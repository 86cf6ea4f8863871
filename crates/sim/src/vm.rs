//! The bytecode dispatch loop and the per-activation state it runs on
//! (DESIGN.md §14).
//!
//! This module is a child of [`exec`](super) so it can execute
//! instructions through the interpreter's own private seams — the cost
//! model's entry points (`costs.charge`, `access_cost`: placement +
//! paging + fault jitter), `note_read` / `note_write` (race-detector
//! shadow memory),
//! `exec_sync` (cascades, locks, deadlock detection), `invoke` (frames,
//! recursion guard), and the shared loop schedulers. The VM replaces
//! only the *walk*: statement dispatch, expression recursion, value
//! boxing, and per-access binding resolution. Everything observable
//! (cycles, stats, outputs, errors, race reports, fault-RNG draw order)
//! is produced in the same order as the tree-walker, which is what
//! makes the two engines bit-identical — gated by the `vm_identity`
//! tests and the `vm-vs-interpreter` fuzz lane. The value ops are the
//! rows of `compile::value_op!`, whose functions come from
//! `cedar_ir::ops`: the loop charges and computes each the way the
//! kernels and lane batches do.
//!
//! ## Activation state
//!
//! A [`VmState`] sits beside `frame.binds`: typed register files sized
//! by the compiler (constants preloaded), one boxed value register for
//! [`Instr::EvalTree`] results, and the **resolved-operand table** —
//! per symbol, the slot of every cluster, the element offset, the
//! storage class, the placement, and `(lo, hi, stride)` per dimension —
//! so an access is an indexed read instead of `bind_of` +
//! `resolve_slot` + a stride walk over `Vec<(i64, i64)>`. The table is
//! filled by [`Simulator::seal_frame`] once an activation's bindings
//! are complete and refreshed by [`Simulator::rebind`], the one way a
//! binding changes afterwards (loop locals at loop entry, and per
//! participant inside `exec_parallel_loop`).
//!
//! ## Faults and error stamping
//!
//! Typed ops are infallible or fail without a payload (unbound operand,
//! subscript or storage out of range, integer `/0`, `0 ** -k`). A
//! failing op leaves the loop through [`Simulator::vm_fault`], which
//! re-runs the interpreter's checked path over the same operands to
//! build the error — same kind, same message — and stamps it. (The
//! intrinsic ops call `value_ops::intrinsic` itself and stamp what it
//! returns.)
//!
//! The interpreter wraps some statement bodies in
//! `map_err(with_span(span))`. The VM reproduces this with a running
//! *stamp* set by each [`Instr::Gate`]: every fallible inline op stamps
//! its error with the current stamp. `with_span` only fills empty
//! spans, so a `Gate` whose stamp is `Span::NONE` (loops, sync ops —
//! statements the interpreter does not wrap) makes the stamping a
//! no-op, and errors that arrive pre-stamped from nested calls pass
//! through unchanged — exactly the interpreter's behavior.

use super::loops::trip_count;
use super::types::{with_span, Flow, LoopBlocks, LoopRef, Subs};
use super::{kerr, Ctx, Frame, Result, Simulator};
use crate::compile::{
    by_class, value_op, CompiledUnit, Instr, Reg, VmLoop, MAX_INTR_ARGS, MAX_RANK,
};
use crate::cost::{Access, CostClass};
use crate::error::{OpError, SimError, SimErrorKind};
use crate::store::{linearize, strides, ArrayData, DimStride, SlotId, StorageRef, Store, VarBind};
use crate::value_ops::{self, Class};
use cedar_ir::{ops, BinOp, LoopClass, Placement, Span, SymbolId, Value};
use std::sync::Arc;

/// One symbol's entry in the resolved-operand table.
#[derive(Clone, Copy)]
pub(super) struct Operand {
    pub(super) bound: bool,
    /// Declared class; a bound operand's storage has the same one.
    class: Class,
    pub(super) placement: Placement,
    /// Declared rank; a bound operand's dims have the same one.
    rank: u32,
    /// First of this symbol's `rank` entries in [`Operands::dims`].
    pub(super) dims: u32,
    pub(super) offset: usize,
}

/// What compiled code needs of an activation besides `frame.binds`.
/// Empty (and `live` false) for activations the tree-walker runs.
#[derive(Default)]
pub(super) struct VmState {
    /// The activation runs compiled code.
    pub(super) live: bool,
    pub(super) table: Operands,
    pub(super) f: Vec<f64>,
    pub(super) i: Vec<i64>,
    pub(super) b: Vec<bool>,
    /// Result of the last [`Instr::EvalTree`].
    v: Option<Value>,
}

/// The resolved-operand table.
#[derive(Default)]
pub(super) struct Operands {
    /// Changes whenever an entry does: unique within a run.
    pub(super) generation: u64,
    pub(super) ops: Vec<Operand>,
    /// Slot per (symbol, cluster): `slots[sym * width + cluster]`.
    slots: Vec<SlotId>,
    width: usize,
    dims: Vec<DimStride>,
}

impl Operands {
    #[inline(always)]
    pub(super) fn slot(&self, sym: usize, cluster: usize) -> SlotId {
        self.slots[sym * self.width + cluster.min(self.width - 1)]
    }

    /// `VarBind::linearize` over the resolved dims. `None` = unbound or
    /// out of bounds (the fault path works out which).
    #[inline(always)]
    fn linearize(&self, op: &Operand, subs: impl ExactSizeIterator<Item = i64>) -> Option<usize> {
        if !op.bound {
            return None;
        }
        linearize(self.dims(op).iter().copied(), op.offset, subs)
    }

    /// A bound operand's dims.
    #[inline(always)]
    pub(super) fn dims(&self, op: &Operand) -> &[DimStride] {
        &self.dims[op.dims as usize..][..op.rank as usize]
    }

    /// Fill symbol `si`'s entry from `bind`; `false` (entry left
    /// unbound) when the storage class or the rank differs from the
    /// declaration the code was typed against.
    fn resolve(&mut self, si: usize, bind: &VarBind, store: &Store) -> bool {
        let op = &mut self.ops[si];
        op.bound = false;
        let slots = match &bind.sref {
            StorageRef::One(s) => std::slice::from_ref(s),
            StorageRef::PerCluster(v) | StorageRef::PerParticipant(v) => v.as_slice(),
        };
        let Some(&first) = slots.first() else {
            return false;
        };
        if store.slot(first).class() != op.class || bind.dims.len() != op.rank as usize {
            return false;
        }
        // `resolve_slot`, once per cluster: a per-participant binding
        // is rebound per participant, so its first slot is the one.
        let per_cluster = matches!(bind.sref, StorageRef::PerCluster(_));
        for c in 0..self.width {
            let k = if per_cluster { c.min(slots.len() - 1) } else { 0 };
            self.slots[si * self.width + c] = slots[k];
        }
        for (d, s) in self.dims[op.dims as usize..].iter_mut().zip(strides(&bind.dims)) {
            *d = s;
        }
        op.placement = bind.placement;
        op.offset = bind.offset;
        op.bound = true;
        true
    }
}

impl VmState {
    /// A DO loop's start, end and step, left in registers by its bound
    /// code.
    fn bounds(&self, lp: &VmLoop) -> (i64, i64, i64) {
        let step = lp.step.map_or(1, |r| self.i[r as usize]);
        (self.i[lp.start as usize], self.i[lp.end as usize], step)
    }

    /// The subscript values of an element op, as the interpreter's
    /// subscript buffer.
    fn subs(&self, cu: &CompiledUnit, sub: u32, rank: u8) -> Subs {
        let mut subs = Subs::new();
        for &r in &cu.subs[sub as usize..][..rank as usize] {
            subs.push(self.i[r as usize]).expect("compiler admits rank <= 8 only");
        }
        subs
    }
}

#[cold]
pub(super) fn class_bug() -> ! {
    unreachable!("a value of another class than the compiler typed it")
}

/// An [`Instr::IntrR`] or [`Instr::IntrI`] over the register files: its
/// operands boxed, `value_ops::intrinsic`, its result stored.
#[inline(always)]
pub(super) fn intrinsic(
    cu: &CompiledUnit,
    instr: &Instr,
    (f, i, b): (&mut [f64], &mut [i64], &mut [bool]),
) -> std::result::Result<(), OpError> {
    let (Instr::IntrR { f: g, n, d, args } | Instr::IntrI { f: g, n, d, args }) = *instr else {
        unreachable!("{instr:?} is not an intrinsic")
    };
    let mut argv = [Value::I(0); MAX_INTR_ARGS];
    for (v, &(c, r)) in argv.iter_mut().zip(&cu.intr_args[args as usize..][..n as usize]) {
        *v = match c {
            Class::R => Value::R(f[r as usize]),
            Class::I => Value::I(i[r as usize]),
            Class::B => Value::B(b[r as usize]),
        };
    }
    match (value_ops::intrinsic(g, &argv[..n as usize])?, instr) {
        (Value::R(x), Instr::IntrR { .. }) => f[d as usize] = x,
        (Value::I(x), Instr::IntrI { .. }) => i[d as usize] = x,
        _ => class_bug(),
    }
    Ok(())
}

impl Simulator<'_> {
    /// Called once an activation's bindings are complete: when the
    /// engine is [`Engine::Vm`](crate::Engine::Vm) and every binding's
    /// storage class and rank agree with the unit's declarations, build
    /// the register files and the resolved-operand table, making the
    /// activation run compiled code. A load yields the *storage* type —
    /// an INTEGER actual behind a REAL dummy reads as an integer, a
    /// COMMON member takes the first declaring unit's type — so an
    /// activation where they differ stays on the tree-walker, which
    /// types dynamically.
    pub(super) fn seal_frame(&mut self, frame: &mut Frame) {
        let Some(cp) = &self.compiled else { return };
        let cu = &cp.units[frame.unit];
        // Buffers of a finished activation (see `retire_frame`): a call
        // in an inner loop seals without allocating.
        let mut vm = self.retired.pop().unwrap_or_default();
        self.tables_resolved += 1;
        let table = &mut vm.table;
        table.generation = self.tables_resolved;
        table.width = self.clusters.max(1);
        table.ops.clear();
        table.ops.extend(cu.shapes.iter().map(|s| Operand {
            bound: false,
            class: s.class,
            placement: Placement::Default,
            rank: s.rank,
            dims: s.dims,
            offset: 0,
        }));
        table.slots.clear();
        table.slots.resize(cu.shapes.len() * table.width, SlotId(0));
        table.dims.clear();
        table.dims.resize(
            cu.shapes.last().map_or(0, |s| (s.dims + s.rank) as usize),
            DimStride::default(),
        );
        for (si, bind) in frame.binds.iter().enumerate() {
            if let Some(bind) = bind {
                if !vm.table.resolve(si, bind, &self.store) {
                    self.retired.push(vm);
                    return;
                }
            }
        }
        vm.f.clear();
        vm.f.resize(cu.nregs[Class::R as usize] as usize, 0.0);
        vm.i.clear();
        vm.i.resize(cu.nregs[Class::I as usize] as usize, 0);
        vm.b.clear();
        vm.b.resize(cu.nregs[Class::B as usize] as usize, false);
        for &(r, v) in &cu.fconsts {
            vm.f[r as usize] = v;
        }
        for &(r, v) in &cu.iconsts {
            vm.i[r as usize] = v;
        }
        for &(r, v) in &cu.bconsts {
            vm.b[r as usize] = v;
        }
        vm.live = true;
        frame.vm = vm;
    }

    /// A returning activation hands its buffers to the next one sealed.
    pub(super) fn retire_frame(&mut self, frame: &mut Frame) {
        if frame.vm.live {
            self.retired.push(std::mem::take(&mut frame.vm));
        }
    }

    /// Change one binding of a sealed activation (the only way
    /// `frame.binds` changes after [`Simulator::seal_frame`]), keeping
    /// the resolved-operand table in step.
    pub(super) fn rebind(&mut self, frame: &mut Frame, sym: SymbolId, bind: &VarBind) {
        match &mut frame.binds[sym.index()] {
            // Keep the `dims` buffer: a loop local is rebound whenever
            // the participant changes.
            Some(b) => {
                b.sref.clone_from(&bind.sref);
                b.dims.clone_from(&bind.dims);
                (b.offset, b.ty, b.placement) = (bind.offset, bind.ty, bind.placement);
            }
            unbound => *unbound = Some(bind.clone()),
        }
        if frame.vm.live {
            // Loop locals are allocated from their own declaration.
            let agrees = frame.vm.table.resolve(sym.index(), bind, &self.store);
            debug_assert!(agrees, "loop local bound to storage of another class");
            self.tables_resolved += 1;
            frame.vm.table.generation = self.tables_resolved;
        }
    }

    /// [`Simulator::set_loop_var`] through the resolved-operand table:
    /// `true` when the store was done. Only without a race detector —
    /// with one the general path's suspend/resume bracket runs.
    pub(super) fn set_loop_var_resolved(
        &mut self,
        frame: &Frame,
        var: SymbolId,
        value: i64,
        cluster: usize,
    ) -> bool {
        let vm = &frame.vm;
        if !vm.live || self.races.is_some() {
            return false;
        }
        let op = vm.table.ops[var.index()];
        if !op.bound {
            return false;
        }
        let stored = match self.store.slot_mut(vm.table.slot(var.index(), cluster)) {
            ArrayData::I(d) => d.get_mut(op.offset).map(|x| *x = value),
            ArrayData::R(d) => d.get_mut(op.offset).map(|x| *x = ops::real_of_int(value)),
            ArrayData::B(d) => d.get_mut(op.offset).map(|x| *x = ops::bool_of_int(value)),
        };
        stored.is_some()
    }

    /// Execute the body of unit `ridx`: compiled bytecode when the
    /// activation was sealed for it (from `run_main` *and* `invoke`, so
    /// callees run compiled no matter how they were reached), the IR
    /// tree otherwise.
    pub(super) fn exec_unit_body(
        &mut self,
        frame: &mut Frame,
        ridx: usize,
        ctx: &mut Ctx,
    ) -> Result<Flow> {
        if frame.vm.live {
            let cp = Arc::clone(self.compiled.as_ref().expect("sealed without an artifact"));
            let cu = &cp.units[ridx];
            return self.vm_run_range(frame, cu, (0, cu.code.len() as u32), Span::NONE, ctx);
        }
        self.tree_walked += self.compiled.is_some() as u64;
        let program = self.program;
        self.exec_block(frame, &program.units[ridx].body, ctx)
    }

    /// Run the instructions in `range` of a compiled unit; `stamp` is
    /// the error stamp in force until the first [`Instr::Gate`]. No
    /// register holds a value across a statement boundary but the trip
    /// state of an enclosing [`Instr::SeqLoop`], which the compiler puts
    /// below every temporary of its body, so nested ranges (loop bodies,
    /// DO WHILE conditions) share the activation's register files.
    pub(super) fn vm_run_range(
        &mut self,
        frame: &mut Frame,
        cu: &CompiledUnit,
        range: (u32, u32),
        mut stamp: Span,
        ctx: &mut Ctx,
    ) -> Result<Flow> {
        let code = &cu.code[..range.1 as usize];
        let mut pc = range.0 as usize;
        // The clock lives in a local while this loop runs: charged
        // through `ctx`, every addition of the chain waits for a store
        // to reach the load after it. `ctx.time` is made current around
        // every call that is handed `ctx` to charge, and at every exit.
        let mut time = ctx.time;

        macro_rules! exit {
            ($r:expr) => {{
                ctx.time = time;
                return $r;
            }};
        }
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => exit!(Err(e)),
                }
            };
        }
        // A call that charges through `ctx`.
        macro_rules! charging {
            ($e:expr) => {{
                ctx.time = time;
                let r = $e;
                time = ctx.time;
                r
            }};
        }
        macro_rules! fault {
            ($instr:expr) => {
                exit!(Err(self.vm_fault(frame, cu, $instr, stamp, ctx.cluster)))
            };
        }
        // The cost model's fixed charge, on the local clock.
        macro_rules! charge {
            (free) => {};
            ($class:ident) => {
                self.costs.charge(CostClass::$class, &mut self.stats, &mut time)
            };
        }
        // The tail of `load` / `store_at`.
        macro_rules! note {
            ($hook:ident, $slot:expr, $lin:expr) => {
                if self.races.is_some() {
                    tri!(self.$hook($slot, $lin).map_err(|e| with_span(e, stamp)));
                }
            };
        }
        // Where an access lands and what it costs. A scalar is
        // register/cache resident; an element pays the
        // placement-dependent access cost once its subscripts linearize:
        // read from integer registers (`elem`), or (`vars`) loaded from
        // INTEGER variables here, each as its `LoadIdx` would.
        macro_rules! address {
            ($instr:ident, $op:ident, scalar) => {
                $op.bound.then_some($op.offset)
            };
            ($instr:ident, $op:ident, elem $sub:ident $rank:ident) => {{
                let regs = &cu.subs[*$sub as usize..][..*$rank as usize];
                frame.vm.table.linearize(&$op, regs.iter().map(|&r| frame.vm.i[r as usize]))
            }};
            ($instr:ident, $op:ident, vars $sub:ident $rank:ident) => {{
                let vars = &cu.idx_vars[*$sub as usize..][..*$rank as usize];
                let mut subs = [0; MAX_RANK];
                for (s, v) in subs.iter_mut().zip(vars) {
                    *s = read!($instr, I, v, scalar);
                    charge!(ScalarOp);
                }
                frame.vm.table.linearize(&$op, subs[..vars.len()].iter().copied())
            }};
        }
        macro_rules! charge_access {
            ($op:ident, $how:ident, scalar) => {
                charge!(CacheHit)
            };
            ($op:ident, $how:ident, $($elem:tt)+) => {
                time += self.access_cost($op.placement, 1, Access::$how, ctx)
            };
        }
        // The value of one checked, charged and noted read.
        macro_rules! read {
            ($instr:ident, $V:ident, $sym:ident, $($how:tt)+) => {{
                let si = $sym.index();
                let op = frame.vm.table.ops[si];
                let Some(lin) = address!($instr, op, $($how)+) else { fault!($instr) };
                charge_access!(op, ScalarRead, $($how)+);
                let slot = frame.vm.table.slot(si, ctx.cluster);
                let ArrayData::$V(data) = self.store.slot(slot) else { class_bug() };
                let Some(&x) = data.get(lin) else { fault!($instr) };
                note!(note_read, slot, lin);
                x
            }};
        }
        macro_rules! load {
            ($instr:ident, $V:ident, $file:ident, $d:ident, $sym:ident, $($how:tt)+) => {{
                let x = read!($instr, $V, $sym, $($how)+);
                frame.vm.$file[*$d as usize] = x;
            }};
        }
        macro_rules! store {
            ($instr:ident, $V:ident, $file:ident, $s:ident, $sym:ident, $($how:tt)+) => {{
                let si = $sym.index();
                let op = frame.vm.table.ops[si];
                let Some(lin) = address!($instr, op, $($how)+) else { fault!($instr) };
                charge_access!(op, ScalarWrite, $($how)+);
                let slot = frame.vm.table.slot(si, ctx.cluster);
                let x = frame.vm.$file[*$s as usize];
                let ArrayData::$V(data) = self.store.slot_mut(slot) else { class_bug() };
                let Some(cell) = data.get_mut(lin) else { fault!($instr) };
                *cell = x;
                note!(note_write, slot, lin);
            }};
        }

        while let Some(instr) = code.get(pc) {
            pc += 1;
            // One value op of the table: its charge on the local clock,
            // then its value, or its fault.
            macro_rules! value {
                ($c:ident, $D:ident <- $($A:ident)+, $d:ident, $($a:ident)+,
                 $f:expr $(, $x:ident)?) => {{
                    charge!($c);
                    let vm = &mut frame.vm;
                    let v = Option::from($f($(by_class!($A; vm.f, vm.i, vm.b)[*$a as usize]),+));
                    let Some(v) = v else { fault!(instr) };
                    by_class!($D; vm.f, vm.i, vm.b)[*$d as usize] = v;
                }};
            }
            value_op!(instr, value,
                Instr::Gate { span, stamp: st } => {
                    tri!(self.statement_gate(*span));
                    stamp = *st;
                }

                Instr::LoadR { d, sym } => load!(instr, R, f, d, sym, scalar),
                Instr::LoadI { d, sym } => load!(instr, I, i, d, sym, scalar),
                Instr::LoadB { d, sym } => load!(instr, B, b, d, sym, scalar),
                Instr::ElemR { d, arr, sub, rank } => load!(instr, R, f, d, arr, elem sub rank),
                Instr::ElemI { d, arr, sub, rank } => load!(instr, I, i, d, arr, elem sub rank),
                Instr::ElemB { d, arr, sub, rank } => load!(instr, B, b, d, arr, elem sub rank),
                Instr::ChargeIdx => {
                    charge!(ScalarOp);
                }
                Instr::LoadIdx { d, sym } => {
                    load!(instr, I, i, d, sym, scalar);
                    charge!(ScalarOp);
                }
                Instr::ElemVarR { d, arr, sub, rank } => load!(instr, R, f, d, arr, vars sub rank),
                Instr::ElemVarI { d, arr, sub, rank } => load!(instr, I, i, d, arr, vars sub rank),
                Instr::ElemVarB { d, arr, sub, rank } => load!(instr, B, b, d, arr, vars sub rank),

                Instr::IntrR { .. } | Instr::IntrI { .. } => {
                    charge!(Intrinsic);
                    let vm = &mut frame.vm;
                    let r = intrinsic(cu, instr, (&mut vm.f, &mut vm.i, &mut vm.b));
                    tri!(r.map_err(|e| with_span(SimError::from_op(e, Span::NONE), stamp)));
                }

                Instr::EvalTree(i) => {
                    let v = charging!(self.eval_scalar(frame, &cu.exprs[*i as usize], ctx));
                    let v = tri!(v.map_err(|e| with_span(e, stamp)));
                    frame.vm.v = Some(v);
                }
                Instr::CvtVI { d } => {
                    let v = boxed(frame);
                    frame.vm.i[*d as usize] = v.as_i64();
                }
                Instr::CvtVB { d } => {
                    let v = boxed(frame);
                    frame.vm.b[*d as usize] = v.as_bool();
                }

                Instr::Branch => charge!(Branch),
                Instr::JumpIfFalse { c, t } => {
                    if !frame.vm.b[*c as usize] {
                        pc = *t as usize;
                    }
                }
                Instr::Jump(t) => pc = *t as usize,

                Instr::StoreR { sym, s } => store!(instr, R, f, s, sym, scalar),
                Instr::StoreI { sym, s } => store!(instr, I, i, s, sym, scalar),
                Instr::StoreB { sym, s } => store!(instr, B, b, s, sym, scalar),
                Instr::SetElemR { arr, sub, rank, s } => {
                    store!(instr, R, f, s, arr, elem sub rank)
                }
                Instr::SetElemI { arr, sub, rank, s } => {
                    store!(instr, I, i, s, arr, elem sub rank)
                }
                Instr::SetElemB { arr, sub, rank, s } => {
                    store!(instr, B, b, s, arr, elem sub rank)
                }
                // A boxed value has no static class: it goes through
                // the interpreter's coercing store.
                Instr::StoreV { sym } => {
                    let v = boxed(frame);
                    let bind = tri!(self.bind_of(frame, *sym).map_err(|e| with_span(e, stamp)));
                    charge!(CacheHit);
                    let slot = self.resolve_slot(bind, ctx.cluster);
                    let (offset, ty) = (bind.offset, bind.ty);
                    tri!(self.store_at(slot, offset, v, ty).map_err(|e| with_span(e, stamp)));
                }
                Instr::SetElemV { arr, sub, rank } => {
                    let v = boxed(frame);
                    let subs = frame.vm.subs(cu, *sub, *rank);
                    let bind = tri!(self.bind_of(frame, *arr).map_err(|e| with_span(e, stamp)));
                    let lin = tri!(self
                        .linearize(frame, *arr, bind, subs.as_slice())
                        .map_err(|e| with_span(e, stamp)));
                    time += self.access_cost(bind.placement, 1, Access::ScalarWrite, ctx);
                    let slot = self.resolve_slot(bind, ctx.cluster);
                    let ty = bind.ty;
                    tri!(self.store_at(slot, lin, v, ty).map_err(|e| with_span(e, stamp)));
                }

                Instr::LoopStmt(li) => {
                    let lp = &cu.loops[*li as usize];
                    let (start, end, step) = frame.vm.bounds(lp);
                    let trip = tri!(trip_count(start, end, step, lp.span));
                    let lr = LoopRef {
                        class: lp.class,
                        var: lp.var,
                        locals: &lp.locals,
                        span: lp.span,
                        blocks: LoopBlocks::Vm { cu, lp },
                    };
                    let flow = charging!(if lp.class == LoopClass::Seq {
                        self.exec_seq_loop(frame, &lr, start, step, trip, ctx)
                    } else {
                        self.exec_parallel_loop(frame, &lr, start, step, trip, ctx)
                    });
                    match tri!(flow) {
                        Flow::Normal => pc = lp.end_pc as usize,
                        other => exit!(Ok(other)),
                    }
                }
                // `exec_seq_loop` without a call per iteration: the same
                // stores of the loop variable and charges of the step,
                // and the body's RETURN, STOP or error leaves this loop.
                Instr::SeqLoop { li, at } => {
                    let lp = &cu.loops[*li as usize];
                    let (start, end, step) = frame.vm.bounds(lp);
                    match tri!(trip_count(start, end, step, lp.span)) {
                        0 => pc = lp.end_pc as usize,
                        trip => {
                            let (trip, mut done) = (trip as u64, 0);
                            self.inline_iterations += trip;
                            if lp.kernel && self.kernels_on() {
                                let bounds = (start, step, trip);
                                (time, done) =
                                    tri!(self.run_kernel(frame, cu, lp, bounds, time, ctx));
                            }
                            if done == trip {
                                pc = lp.end_pc as usize;
                                continue;
                            }
                            // The rest, from iteration `done` on.
                            let value = start.wrapping_add((done as i64).wrapping_mul(step));
                            let state = [value, (trip - done) as i64, step];
                            frame.vm.i[*at as usize..][..3].copy_from_slice(&state);
                            tri!(self.set_loop_var(frame, lp.var, value, ctx));
                            charge!(LoopStep);
                        }
                    }
                }
                Instr::LoopBack { var, body, at } => {
                    // Value, iterations left, step.
                    let state = &mut frame.vm.i[*at as usize..];
                    if state[1] > 1 {
                        state[1] -= 1;
                        state[0] += state[2];
                        let value = state[0];
                        tri!(self.set_loop_var(frame, *var, value, ctx));
                        charge!(LoopStep);
                        pc = *body as usize;
                    }
                }
                Instr::WhileStmt(wi) => {
                    let w = &cu.whiles[*wi as usize];
                    let mut iters = 0u64;
                    let broke = loop {
                        // The interpreter stamps condition errors with
                        // the DO WHILE's own span.
                        tri!(charging!(self.vm_run_range(frame, cu, w.cond, w.span, ctx)));
                        if !frame.vm.b[w.cond_reg as usize] {
                            break Flow::Normal;
                        }
                        let body = charging!(self.vm_run_range(frame, cu, w.body, Span::NONE, ctx));
                        match tri!(body) {
                            Flow::Normal => {}
                            other => break other,
                        }
                        iters += 1;
                        if iters > self.max_while_iters {
                            exit!(kerr(
                                SimErrorKind::Limit,
                                w.span,
                                "DO WHILE exceeded iteration bound",
                            ));
                        }
                    };
                    match broke {
                        Flow::Normal => pc = w.end_pc as usize,
                        other => exit!(Ok(other)),
                    }
                }
                Instr::CallSub(ci) => {
                    let cs = &cu.calls[*ci as usize];
                    let r = charging!(self.invoke(frame, cs.ridx, &cs.args, ctx));
                    tri!(r.map_err(|e| with_span(e, cs.span)));
                }
                Instr::Timer { start } => {
                    if *start {
                        self.stats.region_open = Some(time);
                    } else if let Some(t0) = self.stats.region_open.take() {
                        self.stats.region_cycles += time - t0;
                    }
                }
                Instr::SyncStmt(si) => {
                    tri!(charging!(self.exec_sync(frame, &cu.syncs[*si as usize], ctx)));
                }
                Instr::TaskWait => {
                    for t in self.task_ends.drain(..) {
                        if t > time {
                            time = t;
                        }
                    }
                    if let Some(rd) = self.races.as_mut() {
                        if rd.in_task_group() {
                            rd.pop_region();
                        }
                    }
                }
                Instr::Io => charge!(Io),
                Instr::Return => exit!(Ok(Flow::Return)),
                Instr::Stop => exit!(Ok(Flow::Stop)),
                Instr::Interp(i) => {
                    let flow = charging!(self.exec_stmt(frame, &cu.stmts[*i as usize], ctx));
                    match tri!(flow) {
                        Flow::Normal => {}
                        other => exit!(Ok(other)),
                    }
                }
            )
        }
        exit!(Ok(Flow::Normal))
    }

    /// The one exit of a typed op that failed: build the error the
    /// interpreter raises for the same operands, by running its checked
    /// path over them, and stamp it. The op has charged exactly what the
    /// interpreter charges before the failing check; nothing here
    /// charges or counts.
    #[cold]
    #[inline(never)]
    fn vm_fault(
        &self,
        frame: &Frame,
        cu: &CompiledUnit,
        instr: &Instr,
        stamp: Span,
        cluster: usize,
    ) -> SimError {
        let vm = &frame.vm;
        let int_op = |op, a: Reg, b: Reg| {
            let (x, y) = (Value::I(vm.i[a as usize]), Value::I(vm.i[b as usize]));
            let e = value_ops::bin(op, x, y).expect_err("typed integer op faulted without cause");
            SimError::from_op(e, Span::NONE)
        };
        let e = match *instr {
            Instr::LoadR { sym, .. }
            | Instr::LoadI { sym, .. }
            | Instr::LoadB { sym, .. }
            | Instr::LoadIdx { sym, .. }
            | Instr::StoreR { sym, .. }
            | Instr::StoreI { sym, .. }
            | Instr::StoreB { sym, .. } => self.access_error(frame, sym, None, cluster),
            Instr::ElemR { arr, sub, rank, .. }
            | Instr::ElemI { arr, sub, rank, .. }
            | Instr::ElemB { arr, sub, rank, .. }
            | Instr::SetElemR { arr, sub, rank, .. }
            | Instr::SetElemI { arr, sub, rank, .. }
            | Instr::SetElemB { arr, sub, rank, .. } => {
                let subs = vm.subs(cu, sub, rank);
                self.access_error(frame, arr, Some(subs.as_slice()), cluster)
            }
            // The subscript variables in order, then the element.
            Instr::ElemVarR { arr, sub, rank, .. }
            | Instr::ElemVarI { arr, sub, rank, .. }
            | Instr::ElemVarB { arr, sub, rank, .. } => {
                let mut subs = Subs::new();
                for &v in &cu.idx_vars[sub as usize..][..rank as usize] {
                    let read = self.bind_of(frame, v).and_then(|bind| {
                        let slot = self.resolve_slot(bind, cluster);
                        let value = self.store.slot(slot).try_get(bind.offset);
                        value.ok_or_else(|| self.storage_error(slot, bind.offset))
                    });
                    match read {
                        Ok(s) => subs.push(s.as_i64()).expect("compiler admits rank <= 8 only"),
                        Err(e) => return with_span(e, stamp),
                    }
                }
                self.access_error(frame, arr, Some(subs.as_slice()), cluster)
            }
            Instr::DivI { a, b, .. } => int_op(BinOp::Div, a, b),
            Instr::PowI { a, b, .. } => int_op(BinOp::Pow, a, b),
            ref other => unreachable!("{other:?} cannot fault"),
        };
        with_span(e, stamp)
    }

    /// Why a typed access failed, in the interpreter's check order:
    /// unbound, then subscripts, then the storage extent.
    fn access_error(
        &self,
        frame: &Frame,
        sym: SymbolId,
        subs: Option<&[i64]>,
        cluster: usize,
    ) -> SimError {
        let bind = match self.bind_of(frame, sym) {
            Ok(b) => b,
            Err(e) => return e,
        };
        let lin = match subs {
            Some(s) => match self.linearize(frame, sym, bind, s) {
                Ok(lin) => lin,
                Err(e) => return e,
            },
            None => bind.offset,
        };
        self.storage_error(self.resolve_slot(bind, cluster), lin)
    }
}

/// The boxed value register; the compiler emits its readers right after
/// the [`Instr::EvalTree`] that fills it.
fn boxed(frame: &Frame) -> Value {
    frame.vm.v.expect("EvalTree precedes every reader of the value register")
}
