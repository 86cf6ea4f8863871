//! Loop kernels (DESIGN.md §14, "Loop kernels"): an inline loop whose
//! body is kernel ops only ([`Instr::in_kernel`]) runs here, in batches
//! of iterations run as lanes, for as long as a test at each batch's
//! entry proves its iterations independent. From the first iteration
//! lanes cannot take, the dispatch loop runs the rest of the loop.
//!
//! Without a race detector and a fault profile, nothing such a body
//! charges depends on what it computes: it allocates nothing, so the
//! paging pools stand still, and no memory jitter is drawn. So at entry
//! the cost model prices one iteration once
//! ([`CostModel::price`](crate::cost::CostModel::price)): each clock
//! addition in the dispatch loop's order, the step's first, and the
//! counts. Each access is resolved to its slot, and each batch of
//! iterations views those slots as cells, which operands sharing a slot
//! may hold together. A batch then adds its iterations' prices to the
//! clock in one step where [`ExactSum`] proves that exact, else one at a
//! time — the additions the dispatch loop makes, in its order — so the
//! clock keeps its bits either way. Counts, and the statements the
//! watchdog counts, are added per batch.
//!
//! Lanes are the restructurer's two-version loop, in the simulator. When
//! a kernel is planned, [`LanePlan::plan`] decides once whether its body
//! could run op by op over many iterations at once: loads, stores and
//! value ops that cannot fault, scalars the loop does not change or
//! stores itself, and subscripts affine in the loop variable; a body it
//! refuses is not kept. At each batch's entry, [`LanePlan::addresses`]
//! finds every element access's first cell and step, checks both ends
//! of its range, and proves that no two accesses of a slot, one of them
//! a store, touch one cell in different iterations; then
//! [`LanePlan::run`] runs the batch chunk by chunk, each op over the
//! chunk's lanes, and the ops a stored scalar's value carries from one
//! iteration to the next lane after lane. A batch the test refuses ends
//! the kernel, and an iteration that would fault faults on the dispatch
//! loop, where it always did.
//!
//! An iteration that would pass a statement the watchdog looks at — the
//! budget's last, or one opening a cancel-poll window — is handed to the
//! dispatch loop whole, so the watchdog fires at the same statement with
//! the same message, and so is each iteration before it when too few
//! are left for a batch; the batches go on after it.

use super::vm::{class_bug, Operands, VmState};
use super::{Ctx, Frame, Result, Simulator};
use crate::compile::{by_class, value_op, MAX_INTR_ARGS};
use crate::compile::{Charge, CompiledUnit, Instr, Reg, VmLoop, MAX_ACCESSES, MAX_CHARGES};
use crate::cost::{CostClass, CostModel, ExactSum, Priced, Site};
use crate::stats::ExecStats;
use crate::store::{Cells, DimStride, SlotId, Store};
use crate::value_ops::{self, Class};
use cedar_ir::{ops, Intrinsic, Span, Value};
use std::array::from_fn;
use std::cell::Cell;

/// The fewest iterations a batch runs as lanes, half a chunk; a shorter
/// loop is not planned. Measured on the 22 serial originals, 4, 8, 16
/// and 32 all ran them within 3 % of each other: the test at a batch's
/// entry costs about what an iteration does.
const MIN_LANES: u64 = 8;

/// Iterations a lane batch runs each op over at once: one chunk. On the
/// 22 serial originals, 8 and 32 were 4–9 % slower than 16.
const LANES: usize = 16;

/// Rows of each class a lane batch gives a body's registers and stored
/// scalars (the serial originals' lane bodies use at most 11), the
/// longest body it runs and the most subscripts of its accesses. Each
/// kilobyte these add to the simulator costs about ten of peak resident
/// memory, in the simulator's copies on the stacks of the threads that
/// run one.
const ROWS: usize = 12;
const MAX_LANE_OPS: usize = 48;
const MAX_SUBS: usize = 2 * MAX_ACCESSES;

impl Simulator<'_> {
    /// Kernels run on the fast paths, without a race detector (which
    /// notes every access) and without a fault profile (which jitters
    /// memory charges).
    pub(super) fn kernels_on(&self) -> bool {
        self.fast_paths && self.races.is_none() && self.faults.is_none()
    }

    /// Run the first of the `trip` iterations of the inline loop `lp`
    /// that lanes can take, on the clock `time`: the clock after them,
    /// and how many ran. None run for fewer than [`MIN_LANES`]
    /// iterations, or when the loop variable's store, an access, a
    /// charge or the lane plan cannot be planned; the dispatch loop runs
    /// the rest. (Not inlined: its frame, and the plans' on the stack,
    /// stay out of the dispatch loop's.)
    #[inline(never)]
    pub(super) fn run_kernel(
        &mut self,
        frame: &mut Frame,
        cu: &CompiledUnit,
        lp: &VmLoop,
        (start, step, trip): (i64, i64, u64),
        mut time: f64,
        ctx: &mut Ctx,
    ) -> Result<(f64, u64)> {
        if trip < MIN_LANES {
            return Ok((time, 0));
        }
        let body = &cu.code[lp.body.0 as usize..lp.body.1 as usize];
        let store = &self.store;
        let key = PlanKey {
            body: body.as_ptr() as usize,
            table: frame.vm.table.generation,
            cluster: ctx.cluster,
            active: ctx.active,
            pools: (store.cluster_pool.get(ctx.cluster).copied(), store.global_pool),
        };
        let kept = match self.plans.kept.iter().position(|k| k.key == Some(key)) {
            Some(at) => at,
            None if self.plans.refused.contains(&Some(key)) => return Ok((time, 0)),
            None => match self.plan(key, frame, cu, lp, body, ctx) {
                Some(at) => at,
                None => {
                    self.plans.refused.rotate_right(1);
                    self.plans.refused[0] = Some(key);
                    return Ok((time, 0));
                }
            },
        };
        let gates = body.iter().filter(|op| matches!(op, Instr::Gate { .. })).count() as u64;

        let mut done = 0;
        while done < trip {
            let value = start.wrapping_add((done as i64).wrapping_mul(step));
            let quiet = match gates {
                0 => trip - done,
                g => (self.quiet_statements() / g).min(trip - done),
            };
            if quiet >= MIN_LANES {
                let Plans { kept: plans, scratch, .. } = &mut self.plans;
                let Some(clock) = plans[kept].plan.batch(
                    body,
                    (&mut self.store, &mut frame.vm, scratch),
                    (value, step),
                    quiet,
                    (time, self.stats.paged_accesses),
                ) else {
                    break;
                };
                (time, self.stats.paged_accesses) = clock;
                CostModel::count(&plans[kept].per, quiet, &mut self.stats);
                self.ops_executed += gates * quiet;
                self.kernel_iterations += quiet;
                done += quiet;
                continue;
            }
            // Too few iterations for a batch before a statement the
            // watchdog looks at (or before the end): the dispatch loop
            // runs the next one.
            self.set_loop_var(frame, lp.var, value, ctx)?;
            self.costs.charge(CostClass::LoopStep, &mut self.stats, &mut time);
            ctx.time = time;
            self.vm_run_range(frame, cu, lp.body, Span::NONE, ctx)?;
            time = ctx.time;
            done += 1;
        }
        Ok((time, done))
    }

    /// Plan the kernel of loop `lp` under `key` in place of the oldest
    /// plan kept, which goes; where it is kept. `None` when the body
    /// cannot be priced, resolved or run as lanes.
    #[inline(never)]
    fn plan(
        &mut self,
        key: PlanKey,
        frame: &Frame,
        cu: &CompiledUnit,
        lp: &VmLoop,
        body: &[Instr],
        ctx: &Ctx,
    ) -> Option<usize> {
        let at = self.plans.next;
        let KeptPlan { key: kept, plan, per } = &mut self.plans.kept[at];
        (*kept, *plan, *per) = (None, Plan::default(), ExecStats::default());
        plan_kernel((&self.store, &self.costs), plan, frame, cu, body, ctx, per)?;
        let table = &frame.vm.table;
        let (var, si) = (&table.ops[lp.var.index()], lp.var.index());
        let var_slot = table.slot(si, ctx.cluster);
        if !var.bound || var.offset >= self.store.slot(var_slot).len() {
            return None;
        }
        plan.var = (var_slot, var.offset);
        plan.lay_out();
        let sites = (&plan.sites[..plan.accesses], &plan.place[..]);
        plan.lanes.plan(sites, plan.var, cu, body, table)?;
        *kept = Some(key);
        self.plans.next = (at + 1) % KEPT_PLANS;
        Some(at)
    }
}

/// Price the step and then the charges of `ops` into `plan`, their
/// counts into `per`, and resolve where each access lands in `store`.
/// `None` when an access is to an unbound symbol, a charge cannot be
/// priced, or the arrays are too short.
fn plan_kernel(
    (store, costs): (&Store, &CostModel),
    plan: &mut Plan,
    frame: &Frame,
    cu: &CompiledUnit,
    ops: &[Instr],
    ctx: &Ctx,
    per: &mut ExecStats,
) -> Option<()> {
    let table = &frame.vm.table;
    let mut site =
        Site { cluster: ctx.cluster, active: ctx.active, store, stats: per, faults: None };
    let mut exact = true;
    let mut put = |charge: Charge| {
        let priced = match charge {
            Charge::Fixed(class) => Priced::Fixed(class),
            Charge::Scalar(sym) | Charge::Elem(sym, _) => {
                let op = &table.ops[sym.index()];
                let slot = table.slot(sym.index(), ctx.cluster);
                let scalar = matches!(charge, Charge::Scalar(_));
                // A scalar out of its slot faults in the first
                // iteration: the dispatch loop runs the loop.
                let fits = !scalar || op.offset < store.slot(slot).len();
                exact &= op.bound && fits && plan.accesses < MAX_ACCESSES;
                if let Some(at) = plan.sites.get_mut(plan.accesses) {
                    *at = Resolved { slot, op: sym.index() as u32, scalar };
                    plan.accesses += 1;
                }
                match charge {
                    Charge::Elem(_, how) => Priced::Access(op.placement, how),
                    _ => Priced::Fixed(CostClass::CacheHit),
                }
            }
        };
        match (costs.price(priced, &mut site), plan.charges < MAX_CHARGES) {
            (Some((cycles, paged)), true) => {
                plan.cycles[plan.charges] = cycles;
                if paged > 0.0 {
                    // Only an element access pages: the latest one.
                    plan.paged[plan.accesses - 1] = paged;
                    plan.paging = true;
                }
                plan.charges += 1;
            }
            _ => exact = false,
        }
    };
    put(Charge::Fixed(CostClass::LoopStep));
    for op in ops {
        op.charges(cu, &mut put);
    }
    plan.sum = ExactSum::of(&plan.cycles[..plan.charges]);
    exact.then_some(())
}

/// What a kernel's plan depends on: the loop, the resolved-operand
/// table's generation, where the kernel runs, and the paging pools.
#[derive(Clone, Copy, PartialEq)]
struct PlanKey {
    body: usize,
    table: u64,
    cluster: usize,
    active: usize,
    pools: (Option<u64>, u64),
}

/// How many plans are kept: the inner loops one iteration of the loops
/// around them enters.
const KEPT_PLANS: usize = 4;

/// The plans made last, which the next entries of their loops under the
/// same [`PlanKey`] reuse: an inner loop is entered once per iteration
/// of the loops around it. The oldest goes first. The keys of the loops
/// that could not be planned last, whose next entries go to the dispatch
/// loop without planning again: such a loop evicts a kept plan once,
/// not on every entry. With them, the one scratch every lane batch runs
/// in, and its addresses.
#[derive(Default)]
pub(super) struct Plans {
    kept: [KeptPlan; KEPT_PLANS],
    next: usize,
    refused: [Option<PlanKey>; KEPT_PLANS],
    scratch: (Scratch, Addresses),
}

#[derive(Default)]
struct KeptPlan {
    key: Option<PlanKey>,
    plan: Plan,
    per: ExecStats,
}

/// Where an access of a kernel lands: its slot, and its entry in the
/// resolved-operand table; a scalar's or an element's.
#[derive(Clone, Copy)]
struct Resolved {
    slot: SlotId,
    op: u32,
    scalar: bool,
}

/// A scalar's cell, checked at entry.
#[derive(Clone, Copy)]
enum Scalar<'s> {
    R(&'s Cell<f64>),
    I(&'s Cell<i64>),
    B(&'s Cell<bool>),
}

/// An array's cells, the element offset and the dims.
#[derive(Clone, Copy)]
struct Array<'s> {
    cells: Cells<'s>,
    offset: usize,
    dims: &'s [DimStride],
}

/// One iteration of a kernel, planned at its entry: the prices of its
/// charges in order — the step's first — with what each access adds to
/// `paged_accesses` (no other charge pages), and where its accesses and
/// its loop variable land.
struct Plan {
    cycles: [f64; MAX_CHARGES],
    paged: [f64; MAX_ACCESSES],
    charges: usize,
    /// Some access adds to `paged_accesses`.
    paging: bool,
    sites: [Resolved; MAX_ACCESSES],
    accesses: usize,
    var: (SlotId, usize),
    /// The accesses' and the variable's slots, ascending and distinct,
    /// and the accesses, and the variable ([`VAR`]), by their slots.
    slots: [SlotId; MAX_ACCESSES + 1],
    distinct: usize,
    order: [u8; MAX_ACCESSES + 1],
    /// Each access's place among the scalars' or the arrays', and how
    /// many of each there are.
    place: [u8; MAX_ACCESSES],
    scalars: usize,
    arrays: usize,
    /// The prices summed, where they can be added in one step.
    sum: Option<ExactSum>,
    lanes: LanePlan,
}

/// The loop variable among [`Plan::order`]'s accesses.
const VAR: u8 = MAX_ACCESSES as u8;

impl Default for Plan {
    fn default() -> Plan {
        let nowhere = Resolved { slot: SlotId(0), op: 0, scalar: false };
        Plan {
            cycles: [0.0; MAX_CHARGES],
            paged: [0.0; MAX_ACCESSES],
            charges: 0,
            paging: false,
            sites: [nowhere; MAX_ACCESSES],
            accesses: 0,
            var: (SlotId(0), 0),
            slots: [SlotId(0); MAX_ACCESSES + 1],
            distinct: 0,
            order: [0; MAX_ACCESSES + 1],
            place: [0; MAX_ACCESSES],
            scalars: 0,
            arrays: 0,
            sum: None,
            lanes: LanePlan::default(),
        }
    }
}

impl Plan {
    /// Sort the slots the accesses and the variable land in, each to be
    /// viewed once, and place each access among the scalars or arrays.
    fn lay_out(&mut self) {
        let mut order = self.order;
        for (k, at) in order[..self.accesses].iter_mut().enumerate() {
            *at = k as u8;
        }
        order[self.accesses] = VAR;
        order[..=self.accesses].sort_unstable_by_key(|&k| self.slot_of(k).0);
        self.order = order;
        for &k in &order[..=self.accesses] {
            let slot = self.slot_of(k);
            if self.distinct == 0 || self.slots[self.distinct - 1] != slot {
                self.slots[self.distinct] = slot;
                self.distinct += 1;
            }
        }
        for (p, site) in self.place.iter_mut().zip(&self.sites[..self.accesses]) {
            let n = if site.scalar { &mut self.scalars } else { &mut self.arrays };
            (*p, *n) = (*n as u8, *n + 1);
        }
    }

    /// The slot access `k`, or the variable ([`VAR`]), lands in.
    fn slot_of(&self, k: u8) -> SlotId {
        self.sites.get(k as usize).map_or(self.var.0, |site| site.slot)
    }

    /// Add `n` iterations' prices to the clock `time` and their paging
    /// to `paged`: in one step where [`ExactSum`] allows it, else one
    /// at a time and in order (an access that does not page adds 0,
    /// which leaves the sum's bits).
    fn charge(&self, (mut time, mut paged): (f64, f64), n: u64) -> (f64, f64) {
        match self.sum.and_then(|sum| sum.after(time, n)) {
            Some(t) => time = t,
            None => {
                for _ in 0..n {
                    for &c in &self.cycles[..self.charges] {
                        time += c;
                    }
                }
            }
        }
        if self.paging {
            for _ in 0..n {
                for &p in &self.paged[..self.accesses] {
                    paged += p;
                }
            }
        }
        (time, paged)
    }

    /// Run `n` iterations of `body` from the loop variable's value on,
    /// on the clock `time` and the paging count `paged`, as lanes; then
    /// their charges ([`Plan::charge`]). `None`, and nothing run, where
    /// [`LanePlan::addresses`] cannot prove the iterations independent.
    #[inline(never)]
    fn batch(
        &self,
        body: &[Instr],
        (store, vm, (scratch, at)): (&mut Store, &mut VmState, &mut (Scratch, Addresses)),
        (value, step): (i64, i64),
        n: u64,
        clock: (f64, f64),
    ) -> Option<(f64, f64)> {
        let VmState { table, f, i, b, .. } = vm;
        let empty = Scalar::B(&Cell::new(false));
        let (mut scalar_views, mut var) = ([empty; MAX_ACCESSES], empty);
        let nowhere = Array { cells: Cells::B(&[]), offset: 0, dims: &[] };
        let mut array_views = [nowhere; MAX_ACCESSES];
        let mut next = self.order[..=self.accesses].iter().peekable();
        let slot_of = |k: &&u8| self.slot_of(**k);
        store.cells(&self.slots[..self.distinct], |slot, cells| {
            let scalar = |offset: usize| match cells {
                Cells::R(c) => Scalar::R(&c[offset]),
                Cells::I(c) => Scalar::I(&c[offset]),
                Cells::B(c) => Scalar::B(&c[offset]),
            };
            while let Some(&k) = next.next_if(|k| slot_of(k) == slot) {
                let (k, Some(site)) = (k as usize, self.sites.get(k as usize)) else {
                    var = scalar(self.var.1);
                    continue;
                };
                let (op, place) = (&table.ops[site.op as usize], self.place[k] as usize);
                if site.scalar {
                    scalar_views[place] = scalar(op.offset);
                } else {
                    let dims = table.dims(op);
                    array_views[place] = Array { cells, offset: op.offset, dims };
                }
            }
        });
        let views = (&scalar_views[..self.scalars], &array_views[..self.arrays]);
        if !self.lanes.addresses(views, i, (value, step), n, at) {
            return None;
        }
        let regs = (&mut f[..], &mut i[..], &mut b[..]);
        self.lanes.run(body, views, var, regs, scratch, at, (value, step), n);
        Some(self.charge(clock, n))
    }
}

/// Store the loop variable, as `set_loop_var` stores it.
#[inline(always)]
fn store_var(var: Scalar, value: i64) {
    match var {
        Scalar::I(c) => c.set(value),
        Scalar::R(c) => c.set(ops::real_of_int(value)),
        Scalar::B(c) => c.set(ops::bool_of_int(value)),
    }
}

/// One of a lane batch's registers: a row of [`Scratch`].
type Row = u8;

/// At most `N` items, in order: a list that allocates nothing.
#[derive(Clone, Copy)]
struct Few<T: Copy, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy, const N: usize> Few<T, N> {
    fn new(fill: T) -> Self {
        Few { items: [fill; N], len: 0 }
    }

    /// Append `x`: its index, `None` when the list is full.
    fn push(&mut self, x: T) -> Option<usize> {
        *self.items.get_mut(self.len)? = x;
        self.len += 1;
        Some(self.len - 1)
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for Few<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy, const N: usize> std::ops::DerefMut for Few<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

/// The scratch a lane batch runs in: [`ROWS`] rows of each class, each
/// [`LANES`] iterations wide.
pub(super) struct Scratch {
    f: [[f64; LANES]; ROWS],
    i: [[i64; LANES]; ROWS],
    b: [[bool; LANES]; ROWS],
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch { f: [[0.0; LANES]; ROWS], i: [[0; LANES]; ROWS], b: [[false; LANES]; ROWS] }
    }
}

/// What a lane batch does for one op of the body, over a chunk's lanes.
#[derive(Clone, Copy)]
enum LaneOp {
    /// Row `d` gets the loop variable, as its REAL or LOGICAL cell holds
    /// it.
    Var(Row),
    /// Row `d` gets scalar view `p`'s value in every lane.
    Scalar(Row, u8),
    /// INTEGER row `d` gets affine form `a`'s value.
    Affine(Row, u8),
    /// Row `d` gets element access `e`'s cells; they get row `s`.
    Load(Row, u8),
    Store(Row, u8),
    /// Body op `k`'s value op, over rows `[d, a, b]`.
    Value(u8, [Row; 3]),
    /// Body op `k`'s intrinsic into row `d`, over the arguments from
    /// `args[at]` on.
    Intr(u8, Row, u8),
    /// Row `d` of class `c` gets row `s`: a scalar stored, or read after
    /// the iteration stored it.
    Copy(Class, Row, Row),
    /// Row `d` gets stored scalar `x`'s value of the iteration before:
    /// its last row one lane back, in a chunk's first lane its cell.
    Carried(Row, u8),
}

/// An INTEGER register the body builds from the loop variable `v`, the
/// values the same in every iteration and `+ - *`, as `a·v + b`: a form
/// over earlier forms, evaluated once at a batch's entry. The ring of
/// wrapping integers makes it the value the body computes, bit for bit.
#[derive(Clone, Copy)]
enum Affine {
    Var,
    /// Scalar view `p`'s value.
    Scalar(u8),
    /// A register the body does not define.
    Input(Reg),
    Add(u8, u8),
    Sub(u8, u8),
    /// Of two forms, at most one of which varies.
    Mul(u8, u8),
}

/// An element access of a lane batch: its array view and slot, the
/// affine forms of its subscripts `subs[at..at + rank]`, and whether it
/// stores.
#[derive(Clone, Copy)]
struct Elem {
    view: u8,
    slot: SlotId,
    at: u8,
    rank: u8,
    write: bool,
}

/// A scalar the body stores: its cell, a view of it, and the row that
/// holds its value at the end of an iteration.
#[derive(Clone, Copy)]
struct Stored {
    cell: (SlotId, usize),
    view: u8,
    class: Class,
    row: Row,
}

/// Where a register the body defines is after a batch: in a row's last
/// lane, or an affine form's value.
#[derive(Clone, Copy)]
enum Out {
    Row(Row),
    Affine(u8),
}

/// A batch's element accesses' first cells and steps, and its affine
/// forms' `(a, b)`.
type Addresses = ([(i64, i64); MAX_ACCESSES], [(i64, i64); MAX_AFFINE]);

/// The most affine forms, intrinsic arguments, stored scalars and
/// registers (read before the body defines them, or defined) a lane
/// batch plans.
const MAX_AFFINE: usize = 32;
const MAX_ARGS: usize = 16;
const MAX_STORED: usize = 8;
const MAX_REGS: usize = 40;

/// A body's iterations as lanes, planned once with its kernel
/// ([`LanePlan::plan`]): its ops over rows of the [`Scratch`], and its
/// element accesses, stored scalars and registers.
struct LanePlan {
    /// The ops run over a chunk's lanes at once, and (`chain`) the ops a
    /// value carried from the iteration before reaches, run one lane
    /// after another; each in the body's order.
    ops: Few<LaneOp, MAX_LANE_OPS>,
    chain: Few<LaneOp, MAX_LANE_OPS>,
    elems: Few<Elem, MAX_ACCESSES>,
    subs: Few<u8, MAX_SUBS>,
    affine: Few<Affine, MAX_AFFINE>,
    args: Few<(Class, Row), MAX_ARGS>,
    stored: Few<Stored, MAX_STORED>,
    /// The registers read before the body defines them, broadcast to
    /// their rows at entry, and where the ones it defines end.
    inputs: Few<(Class, Reg, Row), MAX_REGS>,
    outputs: Few<(Class, Reg, Out), MAX_REGS>,
    rows: [usize; 3],
}

impl Default for LanePlan {
    fn default() -> LanePlan {
        let elem = Elem { view: 0, slot: SlotId(0), at: 0, rank: 0, write: false };
        let stored = Stored { cell: (SlotId(0), 0), view: 0, class: Class::R, row: 0 };
        LanePlan {
            ops: Few::new(LaneOp::Var(0)),
            chain: Few::new(LaneOp::Var(0)),
            elems: Few::new(elem),
            subs: Few::new(0),
            affine: Few::new(Affine::Var),
            args: Few::new((Class::R, 0)),
            stored: Few::new(stored),
            inputs: Few::new((Class::R, 0, 0)),
            outputs: Few::new((Class::R, 0, Out::Row(0))),
            rows: [0; 3],
        }
    }
}

/// How many accesses `op` makes: its charges to a symbol.
fn accesses(op: &Instr, cu: &CompiledUnit) -> usize {
    let mut n = 0;
    op.charges(cu, |c| n += !matches!(c, Charge::Fixed(_)) as usize);
    n
}

/// The class of the value a load or a store moves.
fn moved_class(op: &Instr) -> Class {
    use Instr::*;
    match op {
        LoadR { .. } | ElemR { .. } | ElemVarR { .. } | SetElemR { .. } | StoreR { .. } => Class::R,
        LoadB { .. } | ElemB { .. } | ElemVarB { .. } | SetElemB { .. } | StoreB { .. } => Class::B,
        _ => Class::I,
    }
}

/// What one chunk of a lane batch runs over: the views, the loop
/// variable's cell, each element access's first cell and step, the
/// affine forms' values, the variable's value in the chunk's first lane
/// and the step, the iterations done before the chunk and its lanes.
#[derive(Clone, Copy)]
struct Chunk<'c, 's> {
    views: (&'c [Scalar<'s>], &'c [Array<'s>]),
    var: Scalar<'s>,
    addresses: &'c Addresses,
    first: i64,
    step: i64,
    done: u64,
    len: usize,
}

impl LanePlan {
    /// Plan the ops of `body`, whose accesses land at `sites` (their
    /// views at `place`) and whose loop variable's cell is `var`, as
    /// lanes; `None` where it cannot run so. The static rules: only loads,
    /// stores and value ops that cannot fault (no division or power of
    /// integers, no INTEGER `mod`); no store to the loop variable's
    /// cell; every other scalar read is of a scalar the body stores, or
    /// in a slot no element store writes; every subscript is an affine
    /// form; no register is read before the body defines it unless the
    /// body never does; no element lands in the loop variable's slot.
    fn plan(
        &mut self,
        (sites, place): (&[Resolved], &[u8]),
        var: (SlotId, usize),
        cu: &CompiledUnit,
        body: &[Instr],
        table: &Operands,
    ) -> Option<()> {
        let mut rn = Renumber {
            lanes: self,
            regs: Few::new((Class::R, 0, Loc::default(), false)),
            scalars: [None; MAX_STORED],
            chain_owned: [[false; ROWS]; 3],
            chain_read: [[false; ROWS]; 3],
            varies: [false; MAX_AFFINE],
            chain_slots: Few::new(SlotId(0)),
        };
        rn.plan(sites, place, var, cu, body, table)
    }

    /// Each affine form's `(a, b)` and each element access's first cell
    /// and step between iterations in a batch of `n` from `value` on by
    /// `step`, into `affine` and `at`. `false` when an iteration's
    /// access would be out of bounds, two accesses of a slot, one of
    /// them a store, would touch one cell in different iterations, or an
    /// access would touch a stored scalar.
    fn addresses(
        &self,
        (scalars, arrays): (&[Scalar], &[Array]),
        i: &[i64],
        (value, step): (i64, i64),
        n: u64,
        (at, affine): &mut Addresses,
    ) -> bool {
        let Ok(last) = i64::try_from(n - 1) else {
            return false;
        };
        for (k, form) in self.affine.iter().enumerate() {
            let pair = |x: u8, y: u8| (affine[x as usize], affine[y as usize]);
            affine[k] = match *form {
                Affine::Var => (1, 0),
                Affine::Scalar(p) => match scalars[p as usize] {
                    Scalar::I(c) => (0, c.get()),
                    _ => class_bug(),
                },
                Affine::Input(r) => (0, i[r as usize]),
                Affine::Add(x, y) => {
                    let ((a, b), (c, d)) = pair(x, y);
                    (ops::add_i(a, c), ops::add_i(b, d))
                }
                Affine::Sub(x, y) => {
                    let ((a, b), (c, d)) = pair(x, y);
                    (ops::sub_i(a, c), ops::sub_i(b, d))
                }
                Affine::Mul(x, y) => {
                    let ((a, b), (c, d)) = pair(x, y);
                    (ops::add_i(ops::mul_i(a, d), ops::mul_i(c, b)), ops::mul_i(b, d))
                }
            };
        }
        let cells = |e: &Elem| -> Option<(i64, i64)> {
            let array = &arrays[e.view as usize];
            let (mut lin, mut dl) = (0i64, 0i64);
            for (&sub, dim) in self.subs[e.at as usize..][..e.rank as usize].iter().zip(array.dims)
            {
                let (a, b) = affine[sub as usize];
                let (s0, ds) = (ops::add_i(ops::mul_i(a, value), b), ops::mul_i(a, step));
                let s1 = ds.checked_mul(last)?.checked_add(s0)?;
                if s0.min(s1) < dim.lo || s0.max(s1) > dim.hi {
                    return None;
                }
                lin = (s0 - dim.lo).checked_mul(dim.stride)?.checked_add(lin)?;
                dl = ds.checked_mul(dim.stride)?.checked_add(dl)?;
            }
            let lin1 = dl.checked_mul(last)?.checked_add(lin)?;
            let offset = i64::try_from(array.offset).ok()?;
            let (l0, l1) = (lin.checked_add(offset)?, lin1.checked_add(offset)?);
            let len = match array.cells {
                Cells::R(c) => c.len(),
                Cells::I(c) => c.len(),
                Cells::B(c) => c.len(),
            };
            (lin.min(lin1) >= 0 && (l0.max(l1) as u64) < len as u64).then_some((l0, dl))
        };
        let elems = &self.elems;
        for (e, elem) in elems.iter().enumerate() {
            match cells(elem) {
                Some(a) => at[e] = a,
                None => return false,
            }
        }
        for (e, a) in elems.iter().enumerate() {
            for (f, b) in elems.iter().enumerate().skip(e + 1) {
                if a.slot == b.slot && (a.write || b.write) && !apart(at[e], at[f], last) {
                    return false;
                }
            }
            for s in self.stored.iter() {
                if a.slot == s.cell.0 && !apart(at[e], (s.cell.1 as i64, 0), last) {
                    return false;
                }
            }
        }
        true
    }

    /// Run `n` iterations of `body` from `value` on by `step`, chunk by
    /// chunk. Within a chunk the ops run one by one over its lanes, and
    /// then the carried ops lane by lane: each lane makes its
    /// iteration's accesses in the body's order, [`LanePlan::addresses`]
    /// has proved that no other iteration's come between them, and the
    /// plan keeps every slot a carried op accesses to carried ops from
    /// then on. After each chunk the stored scalars' cells hold its last
    /// iteration's values; after the batch the registers the body
    /// defines and the loop variable do too, as after the dispatch
    /// loop's last iteration.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        body: &[Instr],
        views: (&[Scalar], &[Array]),
        var: Scalar,
        (f, i, b): (&mut [f64], &mut [i64], &mut [bool]),
        scratch: &mut Scratch,
        addresses: &Addresses,
        (value, step): (i64, i64),
        n: u64,
    ) {
        for &(c, r, row) in self.inputs.iter() {
            let (r, row) = (r as usize, row as usize);
            match c {
                Class::R => scratch.f[row] = [f[r]; LANES],
                Class::I => scratch.i[row] = [i[r]; LANES],
                Class::B => scratch.b[row] = [b[r]; LANES],
            }
        }
        let (mut done, mut len) = (0, 0);
        while done < n {
            len = (n - done).min(LANES as u64) as usize;
            let first = value.wrapping_add((done as i64).wrapping_mul(step));
            let chunk = Chunk { views, var, addresses, first, step, done, len };
            for op in self.ops.iter() {
                self.exec::<true>(*op, body, chunk, scratch, 0);
            }
            if !self.chain.is_empty() {
                self.run_chain(body, &chunk, scratch);
            }
            for s in self.stored.iter() {
                let row = s.row as usize;
                match views.0[s.view as usize] {
                    Scalar::R(c) => c.set(scratch.f[row][len - 1]),
                    Scalar::I(c) => c.set(scratch.i[row][len - 1]),
                    Scalar::B(c) => c.set(scratch.b[row][len - 1]),
                }
            }
            done += len as u64;
        }
        let last = value.wrapping_add(((n - 1) as i64).wrapping_mul(step));
        for &(c, r, out) in self.outputs.iter() {
            let r = r as usize;
            match (out, c) {
                (Out::Row(row), Class::R) => f[r] = scratch.f[row as usize][len - 1],
                (Out::Row(row), Class::I) => i[r] = scratch.i[row as usize][len - 1],
                (Out::Row(row), Class::B) => b[r] = scratch.b[row as usize][len - 1],
                (Out::Affine(k), _) => {
                    let (a, b) = addresses.1[k as usize];
                    i[r] = ops::add_i(ops::mul_i(a, last), b);
                }
            }
        }
        store_var(var, last);
    }

    /// Run `op` over every lane of `chunk` (`ALL`; its element accesses
    /// over those it has), or over lane `t`.
    #[inline(always)]
    fn exec<const ALL: bool>(
        &self,
        op: LaneOp,
        body: &[Instr],
        chunk: Chunk,
        scratch: &mut Scratch,
        t: usize,
    ) {
        let (lo, hi) = if ALL { (0, LANES) } else { (t, t + 1) };
        let arrays = chunk.views.1;
        let lane = |t: usize| chunk.first.wrapping_add((t as i64).wrapping_mul(chunk.step));
        let (sf, si, sb) = (&mut scratch.f, &mut scratch.i, &mut scratch.b);
        match op {
            // An affine form is never carried.
            LaneOp::Affine(d, k) => {
                let (a, b) = chunk.addresses.1[k as usize];
                si[d as usize] = from_fn(|t| ops::add_i(ops::mul_i(a, lane(t)), b));
            }
            LaneOp::Load(d, e) | LaneOp::Store(d, e) => {
                let (l0, dl) = chunk.addresses.0[e as usize];
                let base = l0 + chunk.done as i64 * dl;
                let (lanes, at) = if ALL { (0..chunk.len, 0) } else { (t..t + 1, t) };
                let cells = lanes.map(|t| (base + t as i64 * dl) as usize);
                let (d, load) = (d as usize, matches!(op, LaneOp::Load(..)));
                match arrays[self.elems[e as usize].view as usize].cells {
                    Cells::R(c) => move_lanes(c, cells, &mut sf[d][at..], load),
                    Cells::I(c) => move_lanes(c, cells, &mut si[d][at..], load),
                    Cells::B(c) => move_lanes(c, cells, &mut sb[d][at..], load),
                }
            }
            LaneOp::Value(k, [rd, ra, rb]) => {
                // The plan refuses an op that can fault.
                macro_rules! lanes {
                    ($c:ident, $D:ident <- $A:ident $B:ident, $d:ident, $a:ident $b:ident,
                     $f:expr, fallible) => {{
                        let _ = ($d, $a, $b);
                        unreachable!("an op that can fault in lanes")
                    }};
                    // Over all lanes, from copies of the operand rows
                    // (which may be the result's).
                    ($c:ident, $D:ident <- $A:ident $B:ident, $d:ident, $a:ident $b:ident,
                     $f:expr) => {{
                        let _ = ($d, $a, $b);
                        let (x, y) = (ra as usize, rb as usize);
                        if ALL {
                            let (xs, ys) = (by_class!($A; sf, si, sb)[x], by_class!($B; sf, si, sb)[y]);
                            let out = &mut by_class!($D; sf, si, sb)[rd as usize];
                            for t in 0..LANES {
                                out[t] = $f(xs[t], ys[t]);
                            }
                        } else {
                            let v = $f(by_class!($A; sf, si, sb)[x][t], by_class!($B; sf, si, sb)[y][t]);
                            by_class!($D; sf, si, sb)[rd as usize][t] = v;
                        }
                    }};
                    ($c:ident, $D:ident <- $A:ident, $d:ident, $a:ident, $f:expr) => {{
                        let _ = ($d, $a);
                        if ALL {
                            let xs = by_class!($A; sf, si, sb)[ra as usize];
                            let out = &mut by_class!($D; sf, si, sb)[rd as usize];
                            for t in 0..LANES {
                                out[t] = $f(xs[t]);
                            }
                        } else {
                            let v = $f(by_class!($A; sf, si, sb)[ra as usize][t]);
                            by_class!($D; sf, si, sb)[rd as usize][t] = v;
                        }
                    }};
                }
                value_op!(&body[k as usize], lanes, op => unreachable!("{op:?} in lanes"))
            }
            LaneOp::Copy(c, d, s) => {
                let (d, s) = (d as usize, s as usize);
                match (c, ALL) {
                    (Class::R, true) => sf[d] = sf[s],
                    (Class::I, true) => si[d] = si[s],
                    (Class::B, true) => sb[d] = sb[s],
                    (Class::R, false) => sf[d][t] = sf[s][t],
                    (Class::I, false) => si[d][t] = si[s][t],
                    (Class::B, false) => sb[d][t] = sb[s][t],
                }
            }
            // The loop variable's and the scalars' rows are never
            // carried: every lane.
            LaneOp::Var(d) => {
                let d = d as usize;
                match chunk.var {
                    Scalar::R(_) => sf[d] = from_fn(|t| ops::real_of_int(lane(t))),
                    Scalar::I(_) => si[d] = from_fn(lane),
                    Scalar::B(_) => sb[d] = from_fn(|t| ops::bool_of_int(lane(t))),
                }
            }
            LaneOp::Scalar(d, p) => match chunk.views.0[p as usize] {
                Scalar::R(c) => sf[d as usize] = [c.get(); LANES],
                Scalar::I(c) => si[d as usize] = [c.get(); LANES],
                Scalar::B(c) => sb[d as usize] = [c.get(); LANES],
            },
            LaneOp::Intr(k, d, at) => self.intrinsic(&body[k as usize], d, at, scratch, (lo, hi)),
            // Always carried: the lane before's value, or in a chunk's
            // first lane the cell's.
            LaneOp::Carried(d, x) => {
                let (d, x) = (d as usize, &self.stored[x as usize]);
                let s = x.row as usize;
                match chunk.views.0[x.view as usize] {
                    Scalar::R(c) => sf[d][lo] = if lo == 0 { c.get() } else { sf[s][lo - 1] },
                    Scalar::I(c) => si[d][lo] = if lo == 0 { c.get() } else { si[s][lo - 1] },
                    Scalar::B(c) => sb[d][lo] = if lo == 0 { c.get() } else { sb[s][lo - 1] },
                }
            }
        }
    }

    /// The carried ops, lane after lane, each lane's in the body's order.
    #[inline(never)]
    fn run_chain(&self, body: &[Instr], chunk: &Chunk, scratch: &mut Scratch) {
        for t in 0..chunk.len {
            for op in self.chain.iter() {
                self.exec::<false>(*op, body, *chunk, scratch, t);
            }
        }
    }

    /// Body op `op`'s intrinsic into row `d`, over the arguments from
    /// `args[at]` on, in lanes `lo..hi`.
    #[inline(never)]
    fn intrinsic(
        &self,
        op: &Instr,
        d: Row,
        at: u8,
        scratch: &mut Scratch,
        (lo, hi): (usize, usize),
    ) {
        let (sf, si, sb) = (&mut scratch.f, &mut scratch.i, &mut scratch.b);
        let (Instr::IntrR { f: g, n, .. } | Instr::IntrI { f: g, n, .. }) = *op else {
            class_bug()
        };
        let args = &self.args[at as usize..][..n as usize];
        let (d, mut argv) = (d as usize, [Value::I(0); MAX_INTR_ARGS]);
        for t in lo..hi {
            for (v, &(c, r)) in argv.iter_mut().zip(args) {
                let r = r as usize;
                *v = match c {
                    Class::R => Value::R(sf[r][t]),
                    Class::I => Value::I(si[r][t]),
                    Class::B => Value::B(sb[r][t]),
                };
            }
            match value_ops::intrinsic(g, &argv[..args.len()]) {
                Ok(Value::R(x)) => sf[d][t] = x,
                Ok(Value::I(x)) => si[d][t] = x,
                _ => unreachable!("{g:?} cannot fault"),
            }
        }
    }
}

/// Where a register's or a stored scalar's value is while a lane plan is
/// made: a row (`chain`: one the carried ops write), and for an INTEGER
/// register an affine form.
#[derive(Clone, Copy, Default)]
struct Loc {
    row: Option<Row>,
    affine: Option<u8>,
    chain: bool,
}

/// A scalar access of a lane body: the loop variable's cell, a cell the
/// same in every iteration (its view), or a stored scalar's.
enum Access {
    Var,
    Same(u8),
    Stored(usize),
}

/// A [`LanePlan`] being made, one op after another in the body's order.
struct Renumber<'p> {
    lanes: &'p mut LanePlan,
    /// Each register's class, number, place and whether the body read
    /// it before defining it.
    regs: Few<(Class, Reg, Loc, bool), MAX_REGS>,
    /// Each stored scalar's place, from its first store on.
    scalars: [Option<Loc>; MAX_STORED],
    /// Per class and row: the carried ops write it; a carried op read it.
    chain_owned: [[bool; ROWS]; 3],
    chain_read: [[bool; ROWS]; 3],
    /// The affine forms that vary with the loop variable.
    varies: [bool; MAX_AFFINE],
    /// The slots a carried op has accessed.
    chain_slots: Few<SlotId, MAX_ACCESSES>,
}

impl Renumber<'_> {
    /// Register `r` of class `c`'s entry, made if it has none.
    fn reg(&mut self, c: Class, r: Reg) -> Option<usize> {
        let found = self.regs.iter().position(|e| (e.0, e.1) == (c, r));
        found.or_else(|| self.regs.push((c, r, Loc::default(), false)))
    }

    /// A new row of class `c`, written by the carried ops or not.
    fn fresh(&mut self, c: Class, chain: bool) -> Option<Row> {
        let n = &mut self.lanes.rows[c as usize];
        if *n == ROWS {
            return None;
        }
        self.chain_owned[c as usize][*n] = chain;
        *n += 1;
        Some((*n - 1) as Row)
    }

    /// Where a new value of class `c` goes, written by a carried op or
    /// not, when `old` held the one before: `old`'s row while ops of the
    /// same kind write it and, for the others, no carried op has read
    /// it (the ops over all lanes run first); else a new row.
    fn place(&mut self, c: Class, old: Loc, chain: bool) -> Option<Loc> {
        let (owned, read) = (&self.chain_owned[c as usize], &self.chain_read[c as usize]);
        let row = match old.row {
            Some(r) if owned[r as usize] == chain && (chain || !read[r as usize]) => r,
            _ => self.fresh(c, chain)?,
        };
        Some(Loc { row: Some(row), affine: None, chain })
    }

    /// Register `r` defined by an op that is carried or not: its row.
    /// `None` when the body read it before: an iteration would read the
    /// value the one before it left.
    fn def(&mut self, c: Class, r: Reg, chain: bool) -> Option<Row> {
        let at = self.reg(c, r)?;
        let (.., old, input) = self.regs[at];
        let loc = if input { None } else { self.place(c, old, chain) }?;
        self.regs[at].2 = loc;
        loc.row
    }

    /// A new affine form.
    fn push_affine(&mut self, form: Affine, varies: bool) -> Option<u8> {
        let k = self.lanes.affine.push(form)?;
        self.varies[k] = varies;
        Some(k as u8)
    }

    /// INTEGER register `r` defined as an affine form.
    fn def_affine(&mut self, r: Reg, form: Affine, varies: bool) -> Option<()> {
        let at = self.reg(Class::I, r)?;
        if self.regs[at].3 {
            return None;
        }
        let k = self.push_affine(form, varies)?;
        self.regs[at].2 = Loc { row: None, affine: Some(k), chain: false };
        Some(())
    }

    /// INTEGER register `r`'s affine form; `None` where the body computed
    /// it otherwise.
    fn affine(&mut self, r: Reg) -> Option<u8> {
        let at = self.reg(Class::I, r)?;
        let (.., loc, input) = self.regs[at];
        match (loc.affine, loc.row) {
            (Some(k), _) => Some(k),
            (None, Some(_)) if !input => None,
            _ => {
                // Not defined by the body: the same in every iteration.
                self.regs[at].3 = true;
                let k = self.push_affine(Affine::Input(r), false)?;
                self.regs[at].2.affine = Some(k);
                Some(k)
            }
        }
    }

    /// Register `r` read by an op: its row (made from its affine form,
    /// or broadcast from the register file where the body does not
    /// define it), and whether the carried ops write it.
    fn read(&mut self, c: Class, r: Reg) -> Option<(Row, bool)> {
        let at = self.reg(c, r)?;
        let (.., loc, input) = self.regs[at];
        if let Some(row) = loc.row {
            return Some((row, loc.chain));
        }
        let row = self.fresh(c, false)?;
        match loc.affine {
            Some(k) if !input => self.push(LaneOp::Affine(row, k), false)?,
            _ => {
                self.regs[at].3 = true;
                self.lanes.inputs.push((c, r, row))?;
            }
        }
        self.regs[at].2.row = Some(row);
        Some((row, false))
    }

    /// Whether an op that reads `rows` is carried: one of them is. A
    /// carried op marks the rows it reads.
    fn carried(&mut self, rows: &[(Class, (Row, bool))]) -> bool {
        let chain = rows.iter().any(|&(_, (_, chain))| chain);
        if chain {
            for &(c, (row, _)) in rows {
                self.chain_read[c as usize][row as usize] = true;
            }
        }
        chain
    }

    /// Append `op` to the ops run over all lanes or to the carried ones.
    fn push(&mut self, op: LaneOp, chain: bool) -> Option<()> {
        match chain {
            true => self.lanes.chain.push(op),
            false => self.lanes.ops.push(op),
        }
        .map(drop)
    }

    /// The subscripts in the INTEGER registers `regs`, each an affine
    /// form; where they start.
    fn reg_subs(&mut self, regs: &[Reg]) -> Option<usize> {
        let at = self.lanes.subs.len();
        for &r in regs {
            let form = self.affine(r)?;
            self.lanes.subs.push(form)?;
        }
        Some(at)
    }

    /// A new element access: view `view` of `slot`, with the subscripts
    /// from `at` on. Carried when `chain`, or when a carried op accessed
    /// the slot before; a carried one keeps the slot's later accesses
    /// carried.
    fn elem(
        &mut self,
        (view, slot): (u8, SlotId),
        write: bool,
        at: usize,
        chain: bool,
    ) -> Option<(u8, bool)> {
        let marked = self.chain_slots.contains(&slot);
        if chain && !marked {
            self.chain_slots.push(slot)?;
        }
        let rank = (self.lanes.subs.len() - at) as u8;
        let e = self.lanes.elems.push(Elem { view, slot, at: at as u8, rank, write })?;
        Some((e as u8, chain || marked))
    }

    /// `d = a ⊕ b` of two affine forms, as one; `false` (and nothing
    /// planned) where an operand has no form, or both vary under `*`.
    fn affine_op(&mut self, op: &Instr, d: Reg, (a, b): (Reg, Reg)) -> Option<bool> {
        let (Some(x), Some(y)) = (self.affine(a), self.affine(b)) else {
            return Some(false);
        };
        let (vx, vy) = (self.varies[x as usize], self.varies[y as usize]);
        let form = match op {
            Instr::AddI { .. } => Affine::Add(x, y),
            Instr::SubI { .. } => Affine::Sub(x, y),
            _ if vx && vy => return Some(false),
            _ => Affine::Mul(x, y),
        };
        self.def_affine(d, form, vx || vy)?;
        Some(true)
    }

    /// An elemental intrinsic, body op `j`; INTEGER `mod`, which faults
    /// on a zero divisor, is refused.
    fn intrinsic(&mut self, j: u8, op: &Instr, cu: &CompiledUnit) -> Option<()> {
        let (Instr::IntrR { f, n, d, args } | Instr::IntrI { f, n, d, args }) = *op else {
            return None;
        };
        let c = match op {
            Instr::IntrI { .. } if f == Intrinsic::Mod => return None,
            Instr::IntrI { .. } => Class::I,
            _ => Class::R,
        };
        let (at, mut read) = (self.lanes.args.len(), [(Class::R, (0, false)); MAX_INTR_ARGS]);
        for (k, &(c, r)) in cu.intr_args[args as usize..][..n as usize].iter().enumerate() {
            read[k] = (c, self.read(c, r)?);
            self.lanes.args.push((c, read[k].1 .0))?;
        }
        let chain = self.carried(&read[..n as usize]);
        let d = self.def(c, d, chain)?;
        self.push(LaneOp::Intr(j, d, at as u8), chain)
    }

    /// [`LanePlan::plan`]'s rules, op by op; `None` where one fails.
    fn plan(
        &mut self,
        sites: &[Resolved],
        place: &[u8],
        var: (SlotId, usize),
        cu: &CompiledUnit,
        body: &[Instr],
        table: &Operands,
    ) -> Option<()> {
        let cell = |k: usize| (sites[k].slot, table.ops[sites[k].op as usize].offset);
        // The slots the element stores write, and the scalars the body
        // stores.
        let (mut written, mut n_written, mut k) = ([SlotId(0); MAX_ACCESSES], 0, 0);
        for op in body {
            k += accesses(op, cu);
            match op {
                Instr::SetElemR { .. } | Instr::SetElemI { .. } | Instr::SetElemB { .. } => {
                    (written[n_written], n_written) = (sites[k - 1].slot, n_written + 1);
                }
                Instr::StoreR { .. } | Instr::StoreI { .. } | Instr::StoreB { .. } => {
                    let lanes = &mut *self.lanes;
                    let (cell, class) = (cell(k - 1), moved_class(op));
                    match lanes.stored.iter().find(|s| s.cell == cell) {
                        _ if cell == var => return None,
                        Some(s) if s.class != class => return None,
                        Some(_) => {}
                        None => drop(lanes.stored.push(Stored {
                            cell,
                            view: place[k - 1],
                            class,
                            row: 0,
                        })?),
                    }
                }
                _ => {}
            }
        }
        let (written, stored) = (&written[..n_written], self.lanes.stored);
        let access = |k: usize| -> Option<Access> {
            let cell = cell(k);
            match stored.iter().position(|s| s.cell == cell) {
                _ if cell == var => Some(Access::Var),
                Some(x) => Some(Access::Stored(x)),
                None if written.contains(&cell.0) => None,
                None => Some(Access::Same(place[k])),
            }
        };
        let elem = |k: usize| {
            let site = &sites[k];
            (site.slot != var.0).then_some((place[k], site.slot))
        };
        let mut k = 0;
        for (j, op) in body.iter().enumerate() {
            let c = moved_class(op);
            match op {
                Instr::Gate { .. } | Instr::ChargeIdx => {}
                Instr::LoadR { d, .. }
                | Instr::LoadI { d, .. }
                | Instr::LoadB { d, .. }
                | Instr::LoadIdx { d, .. } => match access(k)? {
                    Access::Var if c == Class::I => self.def_affine(*d, Affine::Var, true)?,
                    Access::Same(p) if c == Class::I => {
                        self.def_affine(*d, Affine::Scalar(p), false)?
                    }
                    Access::Var => {
                        let row = self.def(c, *d, false)?;
                        self.push(LaneOp::Var(row), false)?;
                    }
                    Access::Same(p) => {
                        let row = self.def(c, *d, false)?;
                        self.push(LaneOp::Scalar(row, p), false)?;
                    }
                    Access::Stored(x) if stored[x].class != c => return None,
                    // Before the body's first store: the value the
                    // iteration before left.
                    Access::Stored(x) => match self.scalars[x] {
                        None => {
                            let row = self.def(c, *d, true)?;
                            self.push(LaneOp::Carried(row, x as u8), true)?;
                        }
                        Some(loc) => {
                            let chain = self.carried(&[(c, (loc.row?, loc.chain))]);
                            let row = self.def(c, *d, chain)?;
                            self.push(LaneOp::Copy(c, row, loc.row?), chain)?;
                        }
                    },
                },
                Instr::ElemR { d, sub, rank, .. }
                | Instr::ElemI { d, sub, rank, .. }
                | Instr::ElemB { d, sub, rank, .. } => {
                    let at = self.reg_subs(&cu.subs[*sub as usize..][..*rank as usize])?;
                    let (e, chain) = self.elem(elem(k)?, false, at, false)?;
                    let row = self.def(c, *d, chain)?;
                    self.push(LaneOp::Load(row, e), chain)?;
                }
                Instr::ElemVarR { d, rank, .. }
                | Instr::ElemVarI { d, rank, .. }
                | Instr::ElemVarB { d, rank, .. } => {
                    let (at, rank) = (self.lanes.subs.len(), *rank as usize);
                    for k in k..k + rank {
                        let form = match access(k)? {
                            Access::Var => self.push_affine(Affine::Var, true)?,
                            Access::Same(p) => self.push_affine(Affine::Scalar(p), false)?,
                            Access::Stored(_) => return None,
                        };
                        self.lanes.subs.push(form)?;
                    }
                    let (e, chain) = self.elem(elem(k + rank)?, false, at, false)?;
                    let row = self.def(c, *d, chain)?;
                    self.push(LaneOp::Load(row, e), chain)?;
                }
                Instr::SetElemR { sub, rank, s, .. }
                | Instr::SetElemI { sub, rank, s, .. }
                | Instr::SetElemB { sub, rank, s, .. } => {
                    let from = self.read(c, *s)?;
                    let at = self.reg_subs(&cu.subs[*sub as usize..][..*rank as usize])?;
                    let (e, chain) = self.elem(elem(k)?, true, at, from.1)?;
                    self.carried(&[(c, (from.0, chain))]);
                    self.push(LaneOp::Store(from.0, e), chain)?;
                }
                Instr::StoreR { s, .. } | Instr::StoreI { s, .. } | Instr::StoreB { s, .. } => {
                    let Access::Stored(x) = access(k)? else { return None };
                    let from = self.read(c, *s)?;
                    let chain = self.carried(&[(c, from)]);
                    let loc = self.place(c, self.scalars[x].unwrap_or_default(), chain)?;
                    self.scalars[x] = Some(loc);
                    self.push(LaneOp::Copy(c, loc.row?, from.0), chain)?;
                }
                Instr::AddI { d, a, b } | Instr::SubI { d, a, b } | Instr::MulI { d, a, b }
                    if self.affine_op(op, *d, (*a, *b))? => {}
                op => {
                    let j = u8::try_from(j).ok()?;
                    macro_rules! rows {
                        ($c:ident, $D:ident <- $A:ident $B:ident, $d:ident, $a:ident $b:ident,
                         $f:expr, fallible) => {
                            return None
                        };
                        ($c:ident, $D:ident <- $A:ident $B:ident, $d:ident, $a:ident $b:ident,
                         $($_:tt)*) => {{
                            let (a, b) = (self.read(Class::$A, *$a)?, self.read(Class::$B, *$b)?);
                            let chain = self.carried(&[(Class::$A, a), (Class::$B, b)]);
                            let d = self.def(Class::$D, *$d, chain)?;
                            self.push(LaneOp::Value(j, [d, a.0, b.0]), chain)?
                        }};
                        ($c:ident, $D:ident <- $A:ident, $d:ident, $a:ident, $($_:tt)*) => {{
                            let a = self.read(Class::$A, *$a)?;
                            let chain = self.carried(&[(Class::$A, a)]);
                            let d = self.def(Class::$D, *$d, chain)?;
                            self.push(LaneOp::Value(j, [d, a.0, 0]), chain)?
                        }};
                    }
                    // The ops that can fault (integer division and
                    // powers) are refused here. A compare's rows do not
                    // depend on its mask.
                    #[allow(unused_variables)]
                    let () = value_op!(op, rows,
                        Instr::IntrR { .. } | Instr::IntrI { .. } => self.intrinsic(j, op, cu)?,
                        _ => return None);
                }
            }
            k += accesses(op, cu);
        }
        for (x, s) in self.lanes.stored.iter_mut().enumerate() {
            s.row = self.scalars[x]?.row?;
        }
        for &(c, r, loc, input) in self.regs.iter() {
            let out = match (loc.row, loc.affine) {
                _ if input => continue,
                (Some(row), _) => Out::Row(row),
                (None, Some(k)) => Out::Affine(k),
                (None, None) => continue,
            };
            self.lanes.outputs.push((c, r, out))?;
        }
        Some(())
    }
}

/// Load a chunk's lanes of `row` from `cells`, one per index of `at`,
/// or store them there.
#[inline(always)]
fn move_lanes<T: Copy>(
    cells: &[Cell<T>],
    at: impl Iterator<Item = usize>,
    row: &mut [T],
    load: bool,
) {
    for (lane, k) in row.iter_mut().zip(at) {
        match load {
            true => *lane = cells[k].get(),
            false => cells[k].set(*lane),
        }
    }
}

/// Two accesses of `last + 1` iterations, first cells and steps `(l, d)`
/// and `(m, e)`, touch no cell in two different iterations.
fn apart((l, d): (i64, i64), (m, e): (i64, i64), last: i64) -> bool {
    let ends = |s: i64, t: i64| Some((s, t.checked_mul(last)?.checked_add(s)?));
    match (d == e, d) {
        (true, 0) => l != m,
        // Iteration `t` of one and `t + q` of the other meet for
        // `q = (m - l) / d`.
        (true, _) => {
            let meet = m.checked_sub(l).and_then(|diff| Some((diff.checked_rem(d)?, diff / d)));
            match meet {
                Some((0, q)) => q == 0 || q.unsigned_abs() > last as u64,
                Some(_) => true,
                None => false,
            }
        }
        _ => match (ends(l, d), ends(m, e)) {
            (Some((l0, l1)), Some((m0, m1))) => l0.max(l1) < m0.min(m1) || m0.max(m1) < l0.min(l1),
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use cedar_ir::Placement;

    /// A loop that cannot be planned (its partitioned array pages, which
    /// a price cannot say), and one whose lane plan is refused (its
    /// subscript is gathered), entered in a nest after four kernel loops,
    /// are planned once: they evict one of their plans once, not on
    /// every entry, and at the end all four are kept.
    #[test]
    fn a_loop_that_cannot_be_planned_is_planned_once() {
        let kernel = "do i = 1, 8\na(i) = b(i) + 1.0\nend do\n".repeat(KEPT_PLANS);
        let src = format!(
            "program p\nreal a(8), b(8), c(400000)\ninteger ix(8)\ndo i = 1, 8\nix(i) = 9 - i\n\
             end do\ndo k = 1, 3\n{kernel}do i = 1, 8\nc(i * 50000) = b(i)\nend do\n\
             do i = 1, 8\na(i) = b(ix(i))\nend do\nend do\nend\n"
        );
        let mut p = cedar_ir::compile_free(&src).unwrap();
        let c = p.units[0].find_symbol("c").unwrap();
        p.units[0].symbol_mut(c).placement = Placement::Partitioned;
        let sim = crate::run(Box::leak(Box::new(p)), MachineConfig::cedar_config1_scaled());
        let sim = sim.unwrap();
        assert!(sim.stats.paged_accesses > 0.0);
        let kept = sim.plans.kept.iter().filter(|k| k.key.is_some()).count();
        assert_eq!(kept, KEPT_PLANS);
        assert_eq!(sim.plans.refused.iter().flatten().count(), 2);
        // The first loop's 8 iterations, the outer loop's 3 and the
        // inner loops' 144; the first loop's and the kernels' as lanes.
        let kernels = KEPT_PLANS as u64 * 8 * 3;
        assert_eq!(sim.kernel_iterations(), (8 + 3 + 6 * 8 * 3, 8 + kernels));
    }
}
