//! One-shot lowering of IR unit bodies into flat, statically typed
//! register bytecode (DESIGN.md §14).
//!
//! [`compile_program`] walks every unit once and emits a contiguous
//! `Vec<Instr>` per unit: three-address ops over per-activation
//! `f64`/`i64`/`bool` register files, with the statement
//! watchdog/race-span bookkeeping folded into a single [`Instr::Gate`]
//! per statement, jump-target-patched `IF` control flow, and
//! loop/while/call/sync descriptors in side tables. The artifact is
//! **config-independent and immutable** — verify's K-seed sweeps, the
//! fuzz oracles, and the serve retry ladder compile once and share it
//! by `Arc` across many `(seed, config)` executions.
//!
//! ## The typing rule
//!
//! Every scalar expression gets a static [`Class`] (`R`/`I`/`B`) from
//! the declared `Ty` of its symbols and the promotion rules of
//! `cedar_ir::ops::{bin, un}` (stated once, as `value_ops::{bin_class,
//! un_class, intrinsic_class}`, and shared with the vector lanes): two
//! integers stay integral for `+ - * / **`
//! and compare as integers, anything else promotes both sides through
//! `as_f64`; the logical operators read both sides through `as_bool`;
//! unary minus on a LOGICAL yields an INTEGER. Conversions are explicit
//! `Cvt*` ops that charge nothing — exactly the `as_f64`/`as_i64`/
//! `as_bool` calls the tree-walker makes. A load yields the *storage*
//! type, so the VM only runs an activation whose every binding's
//! storage class and rank agree with the declaration (`Simulator::
//! seal_frame`); any other activation walks the IR tree.
//!
//! ## The fallback rule (bit-identity by construction)
//!
//! Every statement is compiled under exactly one of two regimes:
//!
//! * **Native** — a `Gate` followed by typed ops whose charge / stat /
//!   fault / race sequences mirror the interpreter instruction by
//!   instruction.
//! * **Interp** — a single [`Instr::Interp`] holding the cloned
//!   statement; the VM hands it to `exec_stmt`, which performs its own
//!   gating. Vector sections, `WHERE`, task starts, unknown callees,
//!   and rank-mismatched or rank-overflow element stores take this
//!   path, so the complex cost model (vector startup, prefetch, bulk
//!   section ops and their `without_fast_paths` ablation) has exactly
//!   one implementation.
//!
//! Within a native statement, a right-hand side, subscript, condition
//! or loop bound the typed ops cannot reproduce faithfully (it contains
//! a reduction, a function call, a section, or a subscript list whose
//! rank disagrees with the declaration) is kept as a **whole** cloned
//! tree behind [`Instr::EvalTree`] — the VM evaluates it with the
//! interpreter's `eval_scalar` into the activation's one boxed value
//! register. Those four positions read the value class-blind (coercing
//! store, `as_i64`, `as_bool`), so a boxed value never meets a typed
//! op. Elemental intrinsics are typed ([`intrinsic_class`]) and run
//! through `value_ops::intrinsic`, the interpreter's own.

use crate::cost::{Access, CostClass};
use crate::value_ops::{bin_class, intrinsic_class, un_class, Class};
use cedar_ir::ops::cmp_mask;
use cedar_ir::{
    BinOp, Expr, Intrinsic, LValue, Loop, LoopClass, Program, Span, Stmt, SymbolId, SyncOp, UnOp,
    Unit,
};
use std::collections::HashMap;

/// Fortran 77 caps array rank at 7; the interpreter's stack-allocated
/// subscript buffer holds 8 so the *9th* push reports the violation.
/// Subscript lists longer than the buffer fall back to the interpreter
/// to reproduce that error (including its partial charge sequence).
pub(crate) const MAX_RANK: usize = 8;

/// Longest argument list of a natively compiled intrinsic (the VM boxes
/// the operands into a buffer of this size).
pub(crate) const MAX_INTR_ARGS: usize = 8;

/// Index into one of an activation's register files.
pub(crate) type Reg = u32;

/// One bytecode instruction. `d` is the destination register, `a`/`b`
/// the operands, `s` a stored value; the op's suffix names the register
/// file(s) it works on. Every arithmetic, comparison and logical op
/// charges one scalar op; loads and stores charge what the
/// interpreter's `load`/`store_at` paths charge; `Cvt*` ops are free.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
#[rustfmt::skip] // one op per line reads as the table it is
pub(crate) enum Instr {
    // ---- loads ----
    /// Load a scalar variable (cache-hit charge, then element load).
    LoadR { d: Reg, sym: SymbolId },
    LoadI { d: Reg, sym: SymbolId },
    LoadB { d: Reg, sym: SymbolId },
    /// Linearize integer registers `subs[sub..sub + rank]` against
    /// `arr`'s resolved dims, charge the placement-dependent access
    /// cost, load the element.
    ElemR { d: Reg, arr: SymbolId, sub: u32, rank: u8 },
    ElemI { d: Reg, arr: SymbolId, sub: u32, rank: u8 },
    ElemB { d: Reg, arr: SymbolId, sub: u32, rank: u8 },
    /// Charge one subscript's address arithmetic (after its value ops).
    ChargeIdx,
    /// A subscript that is an INTEGER variable: `LoadI` then `ChargeIdx`.
    LoadIdx { d: Reg, sym: SymbolId },
    /// An element load whose subscripts are the INTEGER variables
    /// `idx_vars[sub..sub + rank]`: each one's `LoadIdx`, then the
    /// element's access — without registers between them.
    ElemVarR { d: Reg, arr: SymbolId, sub: u32, rank: u8 },
    ElemVarI { d: Reg, arr: SymbolId, sub: u32, rank: u8 },
    ElemVarB { d: Reg, arr: SymbolId, sub: u32, rank: u8 },

    // ---- arithmetic ----
    AddR { d: Reg, a: Reg, b: Reg },
    SubR { d: Reg, a: Reg, b: Reg },
    MulR { d: Reg, a: Reg, b: Reg },
    DivR { d: Reg, a: Reg, b: Reg },
    PowR { d: Reg, a: Reg, b: Reg },
    /// Real base, integer exponent.
    PowRI { d: Reg, a: Reg, b: Reg },
    AddI { d: Reg, a: Reg, b: Reg },
    SubI { d: Reg, a: Reg, b: Reg },
    MulI { d: Reg, a: Reg, b: Reg },
    /// Faults on a zero divisor, as `PowI` on `0 ** negative`.
    DivI { d: Reg, a: Reg, b: Reg },
    PowI { d: Reg, a: Reg, b: Reg },
    NegR { d: Reg, a: Reg },
    NegI { d: Reg, a: Reg },
    /// Elemental intrinsic `f` over the `n` operands
    /// `intr_args[args..]`, through `value_ops::intrinsic` (two scalar
    /// ops; faults as it does). The suffix is the result's class.
    IntrR { f: Intrinsic, n: u8, d: Reg, args: u32 },
    IntrI { f: Intrinsic, n: u8, d: Reg, args: u32 },

    // ---- comparisons and logic ----
    /// `mask` holds one bit per `Ordering` (see [`cmp_mask`]); an
    /// unordered pair (NaN) reads `Equal` ([`cedar_ir::ops::cmp_r`]).
    CmpR { d: Reg, a: Reg, b: Reg, mask: u8 },
    CmpI { d: Reg, a: Reg, b: Reg, mask: u8 },
    AndB { d: Reg, a: Reg, b: Reg },
    OrB { d: Reg, a: Reg, b: Reg },
    EqvB { d: Reg, a: Reg, b: Reg },
    NeqvB { d: Reg, a: Reg, b: Reg },
    NotB { d: Reg, a: Reg },

    // ---- conversions (`Value::{as_f64, as_i64, as_bool}`) ----
    CvtIR { d: Reg, a: Reg },
    CvtBR { d: Reg, a: Reg },
    CvtRI { d: Reg, a: Reg },
    CvtBI { d: Reg, a: Reg },
    CvtRB { d: Reg, a: Reg },
    CvtIB { d: Reg, a: Reg },

    // ---- whole-tree fallback ----
    /// Evaluate side-table expression `exprs[i]` with the interpreter's
    /// `eval_scalar` into the boxed value register.
    EvalTree(u32),
    /// `as_i64` of the boxed value register.
    CvtVI { d: Reg },
    /// `as_bool` of the boxed value register.
    CvtVB { d: Reg },

    // ---- statement ops ----
    /// Statement prologue: count the watchdog budget, poll the cancel
    /// token, report `span` to the race detector, and set the error
    /// stamp for the statement's inline ops.
    Gate { span: Span, stamp: Span },
    /// Charge the conditional-branch test of an `IF` (no stat count).
    Branch,
    /// Jump to the absolute target when logical register `c` is false.
    JumpIfFalse { c: Reg, t: u32 },
    /// Unconditional jump to the absolute target.
    Jump(u32),
    /// Store register `s` to a scalar variable of the same class.
    StoreR { sym: SymbolId, s: Reg },
    StoreI { sym: SymbolId, s: Reg },
    StoreB { sym: SymbolId, s: Reg },
    /// Store the boxed value register to a scalar variable (coercing).
    StoreV { sym: SymbolId },
    /// Store register `s` to an array element of the same class.
    SetElemR { arr: SymbolId, sub: u32, rank: u8, s: Reg },
    SetElemI { arr: SymbolId, sub: u32, rank: u8, s: Reg },
    SetElemB { arr: SymbolId, sub: u32, rank: u8, s: Reg },
    /// Store the boxed value register to an array element (coercing).
    SetElemV { arr: SymbolId, sub: u32, rank: u8 },
    /// Run side-table loop `loops[i]` (bound registers, schedule, body
    /// ranges), then continue at its `end_pc`.
    LoopStmt(u32),
    /// Enter side-table loop `loops[i]`, a sequential loop without
    /// locals, preamble or postamble, whose body follows inline: keep
    /// its value, iterations left and step in integer registers
    /// `at..at + 3`, store the loop variable and charge the step — or,
    /// with no iteration, continue at `end_pc`.
    SeqLoop { li: u32, at: Reg },
    /// Close the body of the [`Instr::SeqLoop`] whose state is at `at`:
    /// while iterations are left, advance `var`, charge the step and
    /// jump back to `body`.
    LoopBack { var: SymbolId, body: u32, at: Reg },
    /// Run side-table DO WHILE `whiles[i]`, then continue at `end_pc`.
    WhileStmt(u32),
    /// CALL side-table site `calls[i]` (known callee, pre-resolved).
    CallSub(u32),
    /// `CALL TSTART` / `CALL TSTOP` region-timer bookkeeping.
    Timer { start: bool },
    /// Execute side-table synchronization op `syncs[i]`.
    SyncStmt(u32),
    /// Join every outstanding subroutine-level task.
    TaskWait,
    /// Charge one buffered I/O statement.
    Io,
    /// RETURN from the unit body.
    Return,
    /// STOP the program.
    Stop,
    /// Full interpreter fallback: execute cloned statement `stmts[i]`
    /// via `exec_stmt` (which gates itself — no `Gate` precedes this).
    Interp(u32),
}

/// The value ops of [`Instr`], one row each: the charge it makes
/// (`ScalarOp`, or `free` for a conversion), the classes of its
/// destination and operands (`D <- A B`), its registers, and the function
/// that computes its value, from `cedar_ir::ops` (in scope as `ops`
/// where the table is read) wherever the value needs a decision. The
/// function of a `fallible` row returns an `Option`, `None` where the op
/// faults; an executor that can fault reads every row's value through
/// `Option::from`, which is `Some` for the others. `$on!` gets the row,
/// and the arms `$rest` take any other op in the same `match`. The VM's
/// dispatch loop, a kernel's iteration, a lane batch and its plan, and
/// [`Instr::charges`] all read this table, so none of them can compute
/// or charge a value op differently.
macro_rules! value_op {
    ($instr:expr, $on:ident, $($rest:tt)*) => {
        match $instr {
            Instr::AddR { d, a, b } => $on!(ScalarOp, R <- R R, d, a b, |x: f64, y: f64| x + y),
            Instr::SubR { d, a, b } => $on!(ScalarOp, R <- R R, d, a b, |x: f64, y: f64| x - y),
            Instr::MulR { d, a, b } => $on!(ScalarOp, R <- R R, d, a b, |x: f64, y: f64| x * y),
            Instr::DivR { d, a, b } => $on!(ScalarOp, R <- R R, d, a b, |x: f64, y: f64| x / y),
            Instr::PowR { d, a, b } => $on!(ScalarOp, R <- R R, d, a b, ops::powf),
            Instr::PowRI { d, a, b } => $on!(ScalarOp, R <- R I, d, a b, ops::pow_ri),
            Instr::AddI { d, a, b } => $on!(ScalarOp, I <- I I, d, a b, ops::add_i),
            Instr::SubI { d, a, b } => $on!(ScalarOp, I <- I I, d, a b, ops::sub_i),
            Instr::MulI { d, a, b } => $on!(ScalarOp, I <- I I, d, a b, ops::mul_i),
            Instr::DivI { d, a, b } => $on!(ScalarOp, I <- I I, d, a b, ops::div_i, fallible),
            Instr::PowI { d, a, b } => $on!(ScalarOp, I <- I I, d, a b, ops::pow_ii, fallible),
            Instr::NegR { d, a } => $on!(ScalarOp, R <- R, d, a, |x: f64| -x),
            Instr::NegI { d, a } => $on!(ScalarOp, I <- I, d, a, ops::neg_i),
            Instr::CmpR { d, a, b, mask } => {
                $on!(ScalarOp, B <- R R, d, a b, |x, y| ops::cmp_r(*mask, x, y))
            }
            Instr::CmpI { d, a, b, mask } => {
                $on!(ScalarOp, B <- I I, d, a b, |x, y| ops::cmp_i(*mask, x, y))
            }
            Instr::AndB { d, a, b } => $on!(ScalarOp, B <- B B, d, a b, |x: bool, y: bool| x && y),
            Instr::OrB { d, a, b } => $on!(ScalarOp, B <- B B, d, a b, |x: bool, y: bool| x || y),
            Instr::EqvB { d, a, b } => $on!(ScalarOp, B <- B B, d, a b, |x: bool, y: bool| x == y),
            Instr::NeqvB { d, a, b } => $on!(ScalarOp, B <- B B, d, a b, |x: bool, y: bool| x != y),
            Instr::NotB { d, a } => $on!(ScalarOp, B <- B, d, a, |x: bool| !x),
            Instr::CvtIR { d, a } => $on!(free, R <- I, d, a, ops::real_of_int),
            Instr::CvtBR { d, a } => $on!(free, R <- B, d, a, ops::real_of_bool),
            Instr::CvtRI { d, a } => $on!(free, I <- R, d, a, ops::trunc),
            Instr::CvtBI { d, a } => $on!(free, I <- B, d, a, ops::int_of_bool),
            Instr::CvtRB { d, a } => $on!(free, B <- R, d, a, ops::bool_of_real),
            Instr::CvtIB { d, a } => $on!(free, B <- I, d, a, ops::bool_of_int),
            $($rest)*
        }
    };
}
pub(crate) use value_op;

/// The one of `f`, `i` and `b` (register files, or rows of lanes) that
/// holds the values of class `R`, `I` or `B`.
macro_rules! by_class {
    (R; $f:expr, $i:expr, $b:expr) => {
        $f
    };
    (I; $f:expr, $i:expr, $b:expr) => {
        $i
    };
    (B; $f:expr, $i:expr, $b:expr) => {
        $b
    };
}
pub(crate) use by_class;

/// One charge an op makes, in order: a fixed one, a scalar access to
/// a symbol (a cache hit), or an element access to a symbol's storage
/// (priced by the placement it is bound to).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Charge {
    Fixed(CostClass),
    Scalar(SymbolId),
    Elem(SymbolId, Access),
}

impl Instr {
    /// An op a loop kernel runs: it neither jumps, calls, allocates nor
    /// boxes, so what it charges does not depend on what it computes.
    pub(crate) fn in_kernel(&self) -> bool {
        use Instr::*;
        !matches!(
            self,
            EvalTree(_)
                | CvtVI { .. }
                | CvtVB { .. }
                | Branch
                | JumpIfFalse { .. }
                | Jump(_)
                | StoreV { .. }
                | SetElemV { .. }
                | LoopStmt(_)
                | SeqLoop { .. }
                | LoopBack { .. }
                | WhileStmt(_)
                | CallSub(_)
                | Timer { .. }
                | SyncStmt(_)
                | TaskWait
                | Io
                | Return
                | Stop
                | Interp(_)
        )
    }

    /// The charges of a kernel op that does not fault, in the order its
    /// arm of the dispatch loop makes them.
    pub(crate) fn charges(&self, cu: &CompiledUnit, mut f: impl FnMut(Charge)) {
        use Charge::{Elem, Fixed, Scalar};
        use CostClass::{Intrinsic, ScalarOp};
        use Instr::*;
        match *self {
            Gate { .. } => {}
            LoadR { sym, .. }
            | LoadI { sym, .. }
            | LoadB { sym, .. }
            | StoreR { sym, .. }
            | StoreI { sym, .. }
            | StoreB { sym, .. } => f(Scalar(sym)),
            LoadIdx { sym, .. } => {
                f(Scalar(sym));
                f(Fixed(ScalarOp));
            }
            ElemR { arr, .. } | ElemI { arr, .. } | ElemB { arr, .. } => {
                f(Elem(arr, Access::ScalarRead))
            }
            ElemVarR { arr, sub, rank, .. }
            | ElemVarI { arr, sub, rank, .. }
            | ElemVarB { arr, sub, rank, .. } => {
                for &v in &cu.idx_vars[sub as usize..][..rank as usize] {
                    f(Scalar(v));
                    f(Fixed(ScalarOp));
                }
                f(Elem(arr, Access::ScalarRead));
            }
            SetElemR { arr, .. } | SetElemI { arr, .. } | SetElemB { arr, .. } => {
                f(Elem(arr, Access::ScalarWrite))
            }
            IntrR { .. } | IntrI { .. } => f(Fixed(Intrinsic)),
            ChargeIdx => f(Fixed(ScalarOp)),
            ref op => {
                macro_rules! charge {
                    (free, $($_:tt)*) => {
                        ()
                    };
                    ($class:ident, $($_:tt)*) => {
                        f(Fixed($class))
                    };
                }
                #[allow(unused_variables)]
                let () =
                    value_op!(op, charge, other => unreachable!("{other:?} is not a kernel op"));
            }
        }
    }
}

/// A pre-resolved CALL site.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// Callee index into `program.units` ([`callee_index`]).
    pub ridx: usize,
    /// Actual-argument expressions (bound by `invoke`).
    pub args: Vec<Expr>,
    /// Call-statement span (stamped onto errors from the callee).
    pub span: Span,
}

/// Compiled form of a DO loop: the integer registers its bound code
/// (emitted just before the `LoopStmt`) leaves the bounds in, compiled
/// code ranges for the preamble/body/postamble, and the scheduler
/// inputs.
#[derive(Debug, Clone)]
pub(crate) struct VmLoop {
    pub class: LoopClass,
    pub var: SymbolId,
    pub start: Reg,
    pub end: Reg,
    pub step: Option<Reg>,
    pub locals: Vec<SymbolId>,
    /// `[lo, hi)` code range of the once-per-participant preamble.
    pub pre: (u32, u32),
    /// `[lo, hi)` code range of the loop body.
    pub body: (u32, u32),
    /// `[lo, hi)` code range of the once-per-participant postamble.
    pub post: (u32, u32),
    pub span: Span,
    /// Straight-line continuation after the loop's inline ranges.
    pub end_pc: u32,
    /// An [`Instr::SeqLoop`] whose body is kernel ops only
    /// ([`Instr::in_kernel`]) and within [`MAX_CHARGES`] and
    /// [`MAX_ACCESSES`].
    pub kernel: bool,
}

/// The most charges one iteration of a loop kernel makes, its step's
/// included, and the most accesses: a body that makes more runs on the
/// dispatch loop. A kernel's prices and resolved accesses are arrays of
/// these lengths on the stack, so that entering one allocates nothing.
/// The serial originals' largest kernels make 51 charges and 28
/// accesses.
pub(crate) const MAX_CHARGES: usize = 64;
pub(crate) const MAX_ACCESSES: usize = 32;

/// Compiled form of a DO WHILE: a code range leaving the condition in
/// logical register `cond_reg`, and the compiled body range.
#[derive(Debug, Clone)]
pub(crate) struct VmWhile {
    /// `[lo, hi)` code range of the condition.
    pub cond: (u32, u32),
    pub cond_reg: Reg,
    /// `[lo, hi)` code range of the body.
    pub body: (u32, u32),
    pub span: Span,
    pub end_pc: u32,
}

/// What the code of a unit assumes of one of its symbols; an
/// activation whose binding has another storage class or rank cannot
/// run it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SymShape {
    pub class: Class,
    pub rank: u32,
    /// Sum of the ranks of the symbols before this one: where its
    /// dimensions start in an activation's flat dimension table.
    pub dims: u32,
}

/// One unit's compiled body plus its side tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledUnit {
    pub code: Vec<Instr>,
    /// Per symbol of the unit, in symbol order.
    pub shapes: Vec<SymShape>,
    /// Cloned statements behind [`Instr::Interp`].
    pub stmts: Vec<Stmt>,
    /// Cloned expressions behind [`Instr::EvalTree`].
    pub exprs: Vec<Expr>,
    /// Integer registers holding subscript lists, addressed by the
    /// `sub`/`rank` fields of the element ops.
    pub subs: Vec<Reg>,
    /// INTEGER variables subscripting the `ElemVar*` ops, addressed by
    /// their `sub`/`rank` fields.
    pub idx_vars: Vec<SymbolId>,
    /// Operands of the intrinsic ops, addressed by their `args`/`n`.
    pub intr_args: Vec<(Class, Reg)>,
    pub loops: Vec<VmLoop>,
    pub whiles: Vec<VmWhile>,
    pub calls: Vec<CallSite>,
    pub syncs: Vec<SyncOp>,
    /// Register-file sizes (`f64`, `i64`, `bool`).
    pub nregs: [u32; 3],
    /// Constants, preloaded into their registers once per activation.
    pub fconsts: Vec<(Reg, f64)>,
    pub iconsts: Vec<(Reg, i64)>,
    pub bconsts: Vec<(Reg, bool)>,
}

/// The immutable compiled artifact: one [`CompiledUnit`] per program
/// unit, indexed exactly like `program.units`. Share it with
/// [`Arc`](std::sync::Arc) — compiling is cheap, but verify / fuzz /
/// serve run the same program hundreds of times.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) units: Vec<CompiledUnit>,
}

impl CompiledProgram {
    /// Total instruction count across all units (introspection/tests).
    pub fn instr_count(&self) -> usize {
        self.units.iter().map(|u| u.code.len()).sum()
    }

    /// How many statements fell back to the tree-walker
    /// ([`Instr::Interp`]), across all units (introspection/tests).
    pub fn fallback_count(&self) -> usize {
        self.units.iter().map(|u| u.stmts.len()).sum()
    }

    /// How many expression sites (right-hand sides, subscripts,
    /// conditions, loop bounds) are evaluated by the tree-walker
    /// ([`Instr::EvalTree`]), across all units (introspection/tests).
    pub fn eval_tree_count(&self) -> usize {
        self.units.iter().map(|u| u.exprs.len()).sum()
    }

    /// Each unit's instructions by name (`"LoadIdx"`, `"SeqLoop"`, …),
    /// in code order (introspection/tests).
    pub fn op_names(&self) -> Vec<Vec<String>> {
        let name = |i| format!("{i:?}").split([' ', '(']).next().unwrap_or_default().to_string();
        self.units.iter().map(|u| u.code.iter().map(name).collect()).collect()
    }
}

/// Lower every unit of `program` to bytecode. Pure function of the
/// program: no config, no I/O — the same program always compiles to the
/// same artifact, so content-keyed caches can share it freely.
pub fn compile_program(program: &Program) -> CompiledProgram {
    let unit_index = callee_index(program);
    let units = program
        .units
        .iter()
        .map(|u| {
            let mut c = Compiler {
                unit: u,
                cu: CompiledUnit::default(),
                unit_index: &unit_index,
                next: [0; 3],
                base: [0; 3],
                fconst: HashMap::new(),
                iconst: HashMap::new(),
                bconst: [None; 2],
            };
            let mut dims = 0;
            for sym in &u.symbols {
                let rank = sym.dims.len() as u32;
                c.cu.shapes.push(SymShape { class: Class::of(sym.ty), rank, dims });
                dims += rank;
            }
            c.collect_consts();
            c.emit_block(&u.body);
            c.cu
        })
        .collect();
    CompiledProgram { units }
}

/// `unit name → index` into `program.units`, for the CALL, function and
/// task-start sites of both engines: the first definition of a name
/// wins, as `Iterator::position` would find it.
pub(crate) fn callee_index(program: &Program) -> HashMap<&str, usize> {
    let mut index = HashMap::with_capacity(program.units.len());
    for (i, u) in program.units.iter().enumerate() {
        index.entry(u.name.as_str()).or_insert(i);
    }
    index
}

struct Compiler<'a> {
    unit: &'a Unit,
    cu: CompiledUnit,
    unit_index: &'a HashMap<&'a str, usize>,
    /// Next free register per class (indexed by `Class as usize`).
    next: [Reg; 3],
    /// Where a statement's temporaries start: the registers below hold
    /// the unit's constants and the state of the enclosing inline
    /// loops. No other value lives across statements, so every
    /// statement starts allocating here again.
    base: [Reg; 3],
    fconst: HashMap<u64, Reg>,
    iconst: HashMap<i64, Reg>,
    bconst: [Option<Reg>; 2],
}

impl Compiler<'_> {
    fn pc(&self) -> u32 {
        self.cu.code.len() as u32
    }

    fn push(&mut self, i: Instr) {
        self.cu.code.push(i);
    }

    fn fresh(&mut self, c: Class) -> Reg {
        let k = c as usize;
        let r = self.next[k];
        self.next[k] += 1;
        self.cu.nregs[k] = self.cu.nregs[k].max(self.next[k]);
        r
    }

    /// Give every literal of the unit a register of its own, below all
    /// temporaries, to be loaded once per activation.
    fn collect_consts(&mut self) {
        let unit = self.unit;
        cedar_ir::visit::walk_stmts(&unit.body, &mut |s| {
            cedar_ir::visit::walk_stmt_exprs(s, false, &mut |e| match e {
                Expr::ConstR { value, .. } if !self.fconst.contains_key(&value.to_bits()) => {
                    let r = self.fresh(Class::R);
                    self.fconst.insert(value.to_bits(), r);
                    self.cu.fconsts.push((r, *value));
                }
                Expr::ConstI(v) if !self.iconst.contains_key(v) => {
                    let r = self.fresh(Class::I);
                    self.iconst.insert(*v, r);
                    self.cu.iconsts.push((r, *v));
                }
                Expr::ConstB(v) if self.bconst[*v as usize].is_none() => {
                    let r = self.fresh(Class::B);
                    self.bconst[*v as usize] = Some(r);
                    self.cu.bconsts.push((r, *v));
                }
                _ => {}
            });
        });
        self.base = self.next;
    }

    /// The register holding a literal, if [`Compiler::collect_consts`]
    /// saw it.
    fn const_reg(&self, e: &Expr) -> Option<(Class, Reg)> {
        match e {
            Expr::ConstR { value, .. } => Some((Class::R, *self.fconst.get(&value.to_bits())?)),
            Expr::ConstI(v) => Some((Class::I, *self.iconst.get(v)?)),
            Expr::ConstB(v) => Some((Class::B, self.bconst[*v as usize]?)),
            _ => None,
        }
    }

    fn class(&self, s: SymbolId) -> Class {
        self.cu.shapes[s.index()].class
    }

    /// An element access the typed ops handle: the subscript list fits
    /// the interpreter's buffer and matches the declared rank (the only
    /// rank an activation the VM runs can be bound with).
    fn elem_ok(&self, arr: SymbolId, rank: usize) -> bool {
        rank <= MAX_RANK && rank == self.cu.shapes[arr.index()].rank as usize
    }

    fn gate(&mut self, span: Span, stamp: Span) {
        self.push(Instr::Gate { span, stamp });
    }

    /// Emit a placeholder jump; returns its index for patching.
    fn emit_jump_placeholder(&mut self, cond: Option<Reg>) -> usize {
        let at = self.cu.code.len();
        self.push(match cond {
            Some(c) => Instr::JumpIfFalse { c, t: u32::MAX },
            None => Instr::Jump(u32::MAX),
        });
        at
    }

    /// Point a placeholder jump at the current pc.
    fn patch_jump(&mut self, at: usize) {
        let target = self.pc();
        match &mut self.cu.code[at] {
            Instr::JumpIfFalse { t, .. } | Instr::Jump(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Emit a block and return its `[lo, hi)` code range.
    fn emit_range(&mut self, body: &[Stmt]) -> (u32, u32) {
        let lo = self.pc();
        self.emit_block(body);
        (lo, self.pc())
    }

    fn emit_block(&mut self, body: &[Stmt]) {
        for s in body {
            self.emit_stmt(s);
        }
    }

    /// Whole-statement interpreter fallback (no `Gate`: `exec_stmt`
    /// gates itself, keeping watchdog counts and race spans identical).
    fn fallback(&mut self, s: &Stmt) {
        let i = self.cu.stmts.len() as u32;
        self.cu.stmts.push(s.clone());
        self.push(Instr::Interp(i));
    }

    /// Emit ops computing `e`: `Some(class, register)` when the typed
    /// ops are faithful, otherwise (whatever was emitted for its parts
    /// taken back) one whole-tree [`Instr::EvalTree`] leaving the result
    /// in the boxed value register (`None`).
    fn emit_value(&mut self, e: &Expr) -> Option<(Class, Reg)> {
        let cu = &self.cu;
        let mark = (
            cu.code.len(),
            cu.subs.len(),
            cu.idx_vars.len(),
            cu.intr_args.len(),
            cu.exprs.len(),
            self.next,
        );
        if let Some(v) = self.emit_expr(e) {
            return Some(v);
        }
        self.cu.code.truncate(mark.0);
        self.cu.subs.truncate(mark.1);
        self.cu.idx_vars.truncate(mark.2);
        self.cu.intr_args.truncate(mark.3);
        self.cu.exprs.truncate(mark.4);
        self.next = mark.5;
        let i = self.cu.exprs.len() as u32;
        self.cu.exprs.push(e.clone());
        self.push(Instr::EvalTree(i));
        None
    }

    /// `e`'s value through `as_i64`, in an integer register.
    fn emit_int(&mut self, e: &Expr) -> Reg {
        match self.emit_value(e) {
            Some((c, r)) => self.convert(c, r, Class::I),
            None => {
                let d = self.fresh(Class::I);
                self.push(Instr::CvtVI { d });
                d
            }
        }
    }

    /// `e`'s value through `as_bool`, in a logical register.
    fn emit_bool(&mut self, e: &Expr) -> Reg {
        match self.emit_value(e) {
            Some((c, r)) => self.convert(c, r, Class::B),
            None => {
                let d = self.fresh(Class::B);
                self.push(Instr::CvtVB { d });
                d
            }
        }
    }

    /// Reinterpret register `a` of class `from` as class `to` (what
    /// `value_ops::coerce` does to a boxed value).
    fn convert(&mut self, from: Class, a: Reg, to: Class) -> Reg {
        if from == to {
            return a;
        }
        let d = self.fresh(to);
        self.push(match (from, to) {
            (Class::I, Class::R) => Instr::CvtIR { d, a },
            (Class::B, Class::R) => Instr::CvtBR { d, a },
            (Class::R, Class::I) => Instr::CvtRI { d, a },
            (Class::B, Class::I) => Instr::CvtBI { d, a },
            (Class::R, Class::B) => Instr::CvtRB { d, a },
            (Class::I, Class::B) => Instr::CvtIB { d, a },
            _ => unreachable!("identity conversion handled above"),
        });
        d
    }

    /// Evaluate a subscript list left to right (value, then its address
    /// charge) and record the registers in the `subs` side table. A
    /// subscript is read through `as_i64` whatever its class, so one the
    /// typed ops cannot compute is boxed on its own.
    fn emit_subs(&mut self, idx: &[Expr]) -> u32 {
        let regs: Vec<Reg> = idx
            .iter()
            .map(|e| {
                if let Some(sym) = self.index_var(e) {
                    let d = self.fresh(Class::I);
                    self.push(Instr::LoadIdx { d, sym });
                    return d;
                }
                let r = self.emit_int(e);
                self.push(Instr::ChargeIdx);
                r
            })
            .collect();
        let at = self.cu.subs.len() as u32;
        self.cu.subs.extend(regs);
        at
    }

    /// The subscript is an INTEGER variable.
    fn index_var(&self, e: &Expr) -> Option<SymbolId> {
        match e {
            Expr::Scalar(s) if self.class(*s) == Class::I => Some(*s),
            _ => None,
        }
    }

    /// Emit typed ops for `e` when they reproduce its evaluation
    /// (values, charge order, stat counts, and error order) exactly;
    /// `None` — with ops for some of its parts possibly emitted, for
    /// [`Compiler::emit_value`] to take back — when only the tree walk
    /// does.
    fn emit_expr(&mut self, e: &Expr) -> Option<(Class, Reg)> {
        Some(match e {
            Expr::ConstI(_) | Expr::ConstR { .. } | Expr::ConstB(_) => self.const_reg(e)?,
            Expr::Scalar(s) => {
                let (c, sym) = (self.class(*s), *s);
                let d = self.fresh(c);
                self.push(match c {
                    Class::R => Instr::LoadR { d, sym },
                    Class::I => Instr::LoadI { d, sym },
                    Class::B => Instr::LoadB { d, sym },
                });
                (c, d)
            }
            // Rank overflow must raise mid-subscript-list, after the
            // overflowing subscript's evaluation but before its charge,
            // and a rank mismatch after the whole list — only the tree
            // walk gets those sequences right.
            Expr::Elem { arr, idx } if self.elem_ok(*arr, idx.len()) => {
                // Subscripts that are all INTEGER variables are loaded
                // by the element op itself.
                let fused = idx.iter().all(|e| self.index_var(e).is_some());
                let sub = if fused {
                    for e in idx {
                        self.cu.idx_vars.extend(self.index_var(e));
                    }
                    (self.cu.idx_vars.len() - idx.len()) as u32
                } else {
                    self.emit_subs(idx)
                };
                let (c, arr, rank) = (self.class(*arr), *arr, idx.len() as u8);
                let d = self.fresh(c);
                self.push(match (c, fused) {
                    (Class::R, true) => Instr::ElemVarR { d, arr, sub, rank },
                    (Class::I, true) => Instr::ElemVarI { d, arr, sub, rank },
                    (Class::B, true) => Instr::ElemVarB { d, arr, sub, rank },
                    (Class::R, false) => Instr::ElemR { d, arr, sub, rank },
                    (Class::I, false) => Instr::ElemI { d, arr, sub, rank },
                    (Class::B, false) => Instr::ElemB { d, arr, sub, rank },
                });
                (c, d)
            }
            Expr::Un(op, inner) => {
                let (c, a) = self.emit_expr(inner)?;
                // The operand is read as the result's class: `-(.true.)`
                // is the integer -1, `.not.` reads through `as_bool`.
                let to = un_class(*op, c);
                let a = self.convert(c, a, to);
                let d = self.fresh(to);
                self.push(match (op, to) {
                    (UnOp::Neg, Class::R) => Instr::NegR { d, a },
                    (UnOp::Neg, _) => Instr::NegI { d, a },
                    (UnOp::Not, _) => Instr::NotB { d, a },
                });
                (to, d)
            }
            Expr::Bin(op, l, r) => {
                let l = self.emit_expr(l)?;
                let r = self.emit_expr(r)?;
                self.emit_bin(*op, l, r)
            }
            Expr::Intr { f, args, .. } if args.len() <= MAX_INTR_ARGS => {
                let ops = args.iter().map(|a| self.emit_expr(a)).collect::<Option<Vec<_>>>()?;
                let classes: Vec<Class> = ops.iter().map(|&(c, _)| c).collect();
                let c = intrinsic_class(*f, &classes)?;
                let (f, n, args) = (*f, ops.len() as u8, self.cu.intr_args.len() as u32);
                self.cu.intr_args.extend(ops);
                let d = self.fresh(c);
                self.push(match c {
                    Class::R => Instr::IntrR { f, n, d, args },
                    _ => Instr::IntrI { f, n, d, args },
                });
                (c, d)
            }
            // Reductions, iota, function calls, sections, and element
            // accesses of the wrong rank keep the interpreter's logic.
            _ => return None,
        })
    }

    /// One typed op for `bin(op, l, r)`: the result's class is
    /// [`bin_class`]'s, and the operands are converted the way
    /// `cedar_ir::ops::bin` reads them.
    fn emit_bin(
        &mut self,
        op: BinOp,
        (cl, a): (Class, Reg),
        (cr, b): (Class, Reg),
    ) -> (Class, Reg) {
        use BinOp::*;
        let to = bin_class(op, cl, cr);
        let d = self.fresh(to);
        if let Some(mask) = cmp_mask(op) {
            // Two integers compare as integers, anything else as reals.
            if cl == Class::I && cr == Class::I {
                self.push(Instr::CmpI { d, a, b, mask });
            } else {
                let (a, b) = (self.convert(cl, a, Class::R), self.convert(cr, b, Class::R));
                self.push(Instr::CmpR { d, a, b, mask });
            }
            return (to, d);
        }
        // Any non-integer base with an integer exponent is `powi`.
        let powi = op == Pow && to == Class::R && cr == Class::I;
        let a = self.convert(cl, a, to);
        let b = if powi { b } else { self.convert(cr, b, to) };
        self.push(match (op, to) {
            (And, _) => Instr::AndB { d, a, b },
            (Or, _) => Instr::OrB { d, a, b },
            (Eqv, _) => Instr::EqvB { d, a, b },
            (Neqv, _) => Instr::NeqvB { d, a, b },
            (Add, Class::I) => Instr::AddI { d, a, b },
            (Sub, Class::I) => Instr::SubI { d, a, b },
            (Mul, Class::I) => Instr::MulI { d, a, b },
            (Div, Class::I) => Instr::DivI { d, a, b },
            (_, Class::I) => Instr::PowI { d, a, b },
            (Add, _) => Instr::AddR { d, a, b },
            (Sub, _) => Instr::SubR { d, a, b },
            (Mul, _) => Instr::MulR { d, a, b },
            (Div, _) => Instr::DivR { d, a, b },
            _ if powi => Instr::PowRI { d, a, b },
            _ => Instr::PowR { d, a, b },
        });
        (to, d)
    }

    fn emit_stmt(&mut self, s: &Stmt) {
        self.next = self.base;
        match s {
            Stmt::Assign { lhs, rhs, span } => match lhs {
                LValue::Scalar(sv) => {
                    self.gate(*span, *span);
                    let sym = *sv;
                    match self.emit_value(rhs) {
                        Some((c, r)) => {
                            let to = self.class(sym);
                            let s = self.convert(c, r, to);
                            self.push(match to {
                                Class::R => Instr::StoreR { sym, s },
                                Class::I => Instr::StoreI { sym, s },
                                Class::B => Instr::StoreB { sym, s },
                            });
                        }
                        None => self.push(Instr::StoreV { sym }),
                    }
                }
                LValue::Elem { arr, idx } if self.elem_ok(*arr, idx.len()) => {
                    self.gate(*span, *span);
                    let sub = self.emit_subs(idx);
                    let (arr, rank) = (*arr, idx.len() as u8);
                    match self.emit_value(rhs) {
                        Some((c, r)) => {
                            let to = self.class(arr);
                            let s = self.convert(c, r, to);
                            self.push(match to {
                                Class::R => Instr::SetElemR { arr, sub, rank, s },
                                Class::I => Instr::SetElemI { arr, sub, rank, s },
                                Class::B => Instr::SetElemB { arr, sub, rank, s },
                            });
                        }
                        None => self.push(Instr::SetElemV { arr, sub, rank }),
                    }
                }
                // Vector sections (bulk ops, masks, fast-path ablation)
                // and rank-mismatched or rank-overflow element stores
                // keep the interpreter's single implementation.
                _ => self.fallback(s),
            },
            Stmt::WhereAssign { .. } => self.fallback(s),
            Stmt::If { cond, then_body, elifs, else_body, span } => {
                self.gate(*span, *span);
                let c = self.emit_bool(cond);
                // The interpreter charges the branch test once, after
                // the IF condition only (elif conditions are free).
                self.push(Instr::Branch);
                let mut end_jumps = Vec::with_capacity(1 + elifs.len());
                let mut next = self.emit_jump_placeholder(Some(c));
                self.emit_block(then_body);
                end_jumps.push(self.emit_jump_placeholder(None));
                for (ec, eb) in elifs {
                    self.patch_jump(next);
                    self.next = self.base;
                    let c = self.emit_bool(ec);
                    next = self.emit_jump_placeholder(Some(c));
                    self.emit_block(eb);
                    end_jumps.push(self.emit_jump_placeholder(None));
                }
                self.patch_jump(next);
                self.emit_block(else_body);
                for j in end_jumps {
                    self.patch_jump(j);
                }
            }
            Stmt::Loop(l) => self.emit_loop(l),
            Stmt::DoWhile { cond, body, span } => {
                self.gate(*span, Span::NONE);
                let wi = self.cu.whiles.len();
                self.push(Instr::WhileStmt(wi as u32));
                let lo = self.pc();
                let cond_reg = self.emit_bool(cond);
                let cond = (lo, self.pc());
                // Reserve the side-table slot first: nested DO WHILEs
                // take the following ones.
                self.cu.whiles.push(VmWhile {
                    cond,
                    cond_reg,
                    body: (0, 0),
                    span: *span,
                    end_pc: 0,
                });
                let body = self.emit_range(body);
                let end_pc = self.pc();
                let w = &mut self.cu.whiles[wi];
                (w.body, w.end_pc) = (body, end_pc);
            }
            Stmt::Call { callee, args, span } => {
                if cedar_ir::is_timer_call(callee) {
                    self.gate(*span, *span);
                    self.push(Instr::Timer { start: callee == "tstart" });
                } else if let Some(&ridx) = self.unit_index.get(callee.as_str()) {
                    self.gate(*span, *span);
                    let ci = self.cu.calls.len() as u32;
                    self.cu.calls.push(CallSite { ridx, args: args.clone(), span: *span });
                    self.push(Instr::CallSub(ci));
                } else {
                    // Unknown callee: the interpreter's error (span,
                    // message, gating) is authoritative.
                    self.fallback(s);
                }
            }
            // Forked clocks, task-group race regions, and the
            // mtskstart sync audit stay on the interpreter.
            Stmt::TaskStart { .. } => self.fallback(s),
            Stmt::TaskWait { span } => {
                self.gate(*span, Span::NONE);
                self.push(Instr::TaskWait);
            }
            Stmt::Sync(op) => {
                // `Stmt::span()` is NONE for sync ops, and the
                // interpreter never stamps their errors.
                self.gate(Span::NONE, Span::NONE);
                let si = self.cu.syncs.len() as u32;
                self.cu.syncs.push(op.clone());
                self.push(Instr::SyncStmt(si));
            }
            Stmt::Return => {
                self.gate(Span::NONE, Span::NONE);
                self.push(Instr::Return);
            }
            Stmt::Stop => {
                self.gate(Span::NONE, Span::NONE);
                self.push(Instr::Stop);
            }
            Stmt::Io { span } => {
                self.gate(*span, Span::NONE);
                self.push(Instr::Io);
            }
        }
    }

    fn emit_loop(&mut self, l: &Loop) {
        // Bounds evaluate under a NONE stamp: the interpreter's
        // `exec_loop` is not wrapped in `with_span`.
        self.gate(l.span, Span::NONE);
        let start = self.emit_int(&l.start);
        let end = self.emit_int(&l.end);
        let step = l.step.as_ref().map(|e| self.emit_int(e));
        // Reserve the side-table slot first: nested loops take the
        // following ones.
        let li = self.cu.loops.len();
        self.cu.loops.push(VmLoop {
            class: l.class,
            var: l.var,
            start,
            end,
            step,
            locals: l.locals.clone(),
            pre: (0, 0),
            body: (0, 0),
            post: (0, 0),
            span: l.span,
            end_pc: 0,
            kernel: false,
        });
        let (pre, body, post) = if inline_loop(l) {
            // The dispatch loop runs it itself: the trip state sits in
            // three registers the body's temporaries start above.
            let at = self.fresh(Class::I);
            self.fresh(Class::I);
            self.fresh(Class::I);
            self.push(Instr::SeqLoop { li: li as u32, at });
            let outer = self.base;
            self.base = self.next;
            let body = self.emit_range(&l.body);
            self.base = outer;
            self.cu.loops[li].kernel = self.is_kernel(body);
            self.push(Instr::LoopBack { var: l.var, body: body.0, at });
            ((0, 0), body, (0, 0))
        } else {
            self.push(Instr::LoopStmt(li as u32));
            // The loop's blocks live inline after the LoopStmt; straight-
            // line execution continues at end_pc, and only the schedulers
            // enter the ranges (per participant / per iteration).
            let pre = self.emit_range(&l.preamble);
            let body = self.emit_range(&l.body);
            (pre, body, self.emit_range(&l.postamble))
        };
        let end_pc = self.pc();
        let lp = &mut self.cu.loops[li];
        (lp.pre, lp.body, lp.post, lp.end_pc) = (pre, body, post, end_pc);
    }

    /// An inline loop's `body` is a kernel's: kernel ops only, within
    /// the kernel's arrays — one charge for the step, then the body's.
    fn is_kernel(&self, body: (u32, u32)) -> bool {
        let ops = &self.cu.code[body.0 as usize..body.1 as usize];
        if !ops.iter().all(Instr::in_kernel) {
            return false;
        }
        let (mut charges, mut accesses) = (1, 0);
        for op in ops {
            op.charges(&self.cu, |c| {
                charges += 1;
                accesses += !matches!(c, Charge::Fixed(_)) as usize;
            });
        }
        charges <= MAX_CHARGES && accesses <= MAX_ACCESSES
    }
}

/// A sequential loop the dispatch loop runs itself ([`Instr::SeqLoop`]):
/// one that binds no locals and has no once-per-participant blocks.
fn inline_loop(l: &Loop) -> bool {
    l.class == LoopClass::Seq
        && l.locals.is_empty()
        && l.preamble.is_empty()
        && l.postamble.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_src(src: &str) -> CompiledProgram {
        let p = cedar_ir::compile_free(src).expect("test source compiles");
        compile_program(&p)
    }

    #[test]
    fn straight_line_assign_compiles_without_fallback() {
        let cp = compile_src("program t\nreal a(10)\nreal x\nx = 1.5\na(3) = x * 2.0\nend\n");
        assert_eq!(cp.fallback_count(), 0, "scalar assigns must go native");
        assert!(cp.instr_count() > 0);
    }

    #[test]
    fn expressions_are_typed_from_declarations_and_promotion_rules() {
        let cp = compile_src(
            "program t\ninteger i, k\nreal x\nlogical l\ni = 2\nx = i * 1.5 + i / 2\n\
             k = -l\nl = i .lt. x\nx = sqrt(x) + mod(i, 2)\nend\n",
        );
        assert_eq!((cp.eval_tree_count(), cp.fallback_count()), (0, 0));
        let code = &cp.units[0].code;
        let has = |f: fn(&Instr) -> bool| code.iter().any(f);
        assert!(has(|i| matches!(i, Instr::DivI { .. })), "i / 2 stays integral");
        assert!(has(|i| matches!(i, Instr::MulR { .. })), "i * 1.5 promotes");
        assert!(has(|i| matches!(i, Instr::CvtIR { .. })), "through an explicit conversion");
        assert!(has(|i| matches!(i, Instr::CvtBI { .. })), "-l negates the integer of l");
        assert!(has(|i| matches!(i, Instr::CmpR { .. })), "i .lt. x compares as reals");
        assert!(has(|i| matches!(i, Instr::IntrR { .. })), "sqrt yields a real");
        assert!(has(|i| matches!(i, Instr::IntrI { .. })), "mod of two integers an integer");
        // Every literal has a register below the temporaries, loaded
        // once per activation.
        let u = &cp.units[0];
        assert_eq!(u.iconsts.len(), 1, "the one integer literal, 2: {:?}", u.iconsts);
        assert_eq!(u.fconsts.len(), 1, "{:?}", u.fconsts);
    }

    #[test]
    fn what_the_typed_ops_cannot_compute_is_boxed_where_it_is_consumed() {
        // A call in a subscript boxes the subscript alone; a call in
        // arithmetic boxes the right-hand side, taking back the ops
        // already emitted for its other operand.
        let cp = compile_src(
            "program t\nreal a(4)\nx = a(nf(1)) + 1.0\ny = a(2) * g(3.0)\nend\n\
             integer function nf(k)\nnf = k\nend\nreal function g(v)\ng = v\nend\n",
        );
        let u = &cp.units[0];
        assert_eq!(cp.eval_tree_count(), 2);
        assert!(matches!(u.exprs[0], Expr::Call { .. }), "{:?}", u.exprs[0]);
        assert!(matches!(u.exprs[1], Expr::Bin(..)), "{:?}", u.exprs[1]);
        assert!(u.code.iter().any(|i| matches!(i, Instr::CvtVI { .. })));
        assert!(u.code.iter().any(|i| matches!(i, Instr::StoreV { .. })));
        let elem_loads = u.code.iter().filter(|i| matches!(i, Instr::ElemR { .. })).count();
        assert_eq!(elem_loads, 1, "a(2) of the boxed statement was taken back");
    }

    #[test]
    fn an_access_of_the_wrong_rank_is_left_to_the_tree_walker() {
        let mut p =
            cedar_ir::compile_free("program t\nreal a(4, 4)\nx = a(2, 3)\na(1, 2) = x\nend\n")
                .expect("compiles");
        // The front end checks ranks; retag the array by hand.
        let a = p.units[0].symbols.iter_mut().find(|s| s.name == "a").expect("a");
        a.dims.truncate(1);
        let cp = compile_program(&p);
        assert_eq!((cp.eval_tree_count(), cp.fallback_count()), (1, 1));
    }

    #[test]
    fn section_assign_falls_back_whole_statement() {
        let cp = compile_src("program t\nreal a(10)\na(1:10) = 0.0\nend\n");
        assert_eq!(cp.fallback_count(), 1, "vector statement → Interp");
        // The fallback op must not be preceded by a Gate (exec_stmt
        // gates itself; double-gating would double watchdog counts).
        let code = &cp.units[0].code;
        let at = code.iter().position(|i| matches!(i, Instr::Interp(_))).expect("one Interp op");
        assert!(
            at == 0 || !matches!(code[at - 1], Instr::Gate { .. }),
            "Interp must not be double-gated"
        );
    }

    #[test]
    fn if_chain_patches_all_jumps() {
        let cp = compile_src(
            "program t\nreal x, y\nx = 1.0\nif (x .gt. 2.0) then\ny = 1.0\n\
             else if (x .gt. 0.5) then\ny = 2.0\nelse\ny = 3.0\nend if\nend\n",
        );
        for u in &cp.units {
            for i in &u.code {
                match i {
                    Instr::Jump(t) | Instr::JumpIfFalse { t, .. } => {
                        assert!(*t != u32::MAX, "unpatched jump");
                        assert!((*t as usize) <= u.code.len(), "jump out of range");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn loop_ranges_nest_and_terminate() {
        let cp = compile_src(
            "program t\nreal a(8, 8)\ninteger i, j\ndo j = 1, 8\ndo i = 1, 8\n\
             a(i, j) = i + j\nend do\nend do\nend\n",
        );
        let u = &cp.units[0];
        assert!(u.loops.len() >= 2, "two nested loops compiled");
        for lp in &u.loops {
            assert!(lp.body.0 <= lp.body.1);
            assert!((lp.end_pc as usize) <= u.code.len());
        }
    }

    #[test]
    fn first_unit_definition_wins_for_calls() {
        // Lowering refuses a second definition of a name, so the IR is
        // renamed: the call resolves to the first.
        let mut p = cedar_ir::compile_free(
            "program t\ncall s\nend\nsubroutine s\nx = 1.0\nend\nsubroutine u\nx = 2.0\nend\n",
        )
        .expect("compiles");
        p.units[2].name = "s".into();
        let cp = compile_program(&p);
        let u = &cp.units[0];
        assert_eq!(u.calls.len(), 1);
        assert_eq!(u.calls[0].ridx, 1);
    }
}
