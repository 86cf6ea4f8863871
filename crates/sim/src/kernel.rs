//! Loop kernels (DESIGN.md §14, "Loop kernels"): an inline loop whose
//! body is kernel ops only ([`Instr::in_kernel`]) runs here, in batches
//! of iterations: as lanes when a test at the batch's entry proves them
//! independent, else one tight pass per iteration.
//!
//! Without a race detector and a fault profile, nothing such a body
//! charges depends on what it computes: it allocates nothing, so the
//! paging pools stand still, and no memory jitter is drawn. So at entry
//! the cost model prices one iteration once
//! ([`CostModel::price`](crate::cost::CostModel::price)): each clock
//! addition in the dispatch loop's order, the step's first, and the
//! counts. Each access is resolved to its slot, and each batch of
//! iterations views those slots as cells, which operands sharing a slot
//! may hold together. An iteration stores the loop variable and runs the
//! value ops with every element access checked. A batch then adds its
//! iterations' prices to the clock in one step where [`ExactSum`] proves
//! that exact, else one at a time — the additions the dispatch loop
//! makes, in its order — so the clock keeps its bits either way. Counts,
//! and the statements the watchdog counts, are added per batch.
//!
//! Lanes are the restructurer's two-version loop, in the simulator. When
//! a kernel is planned, [`LanePlan::plan`] decides once whether its body
//! could run op by op over many iterations at once: loads, element
//! stores and value ops that cannot fault, scalars that do not change
//! within the loop, and subscripts that are the loop variable or do not
//! change either. At each batch's entry, [`LanePlan::addresses`] finds
//! every element access's first cell and step, checks both ends of its
//! range, and proves that no two accesses of a slot, one of them a
//! store, touch one cell in different iterations; then
//! [`LanePlan::run`] runs the batch chunk by chunk, each op over the
//! chunk's lanes. Otherwise the batch runs per iteration, and faults
//! where it always did.
//!
//! The dispatch loop runs the rest of an iteration from its op `k` on
//! in two cases. An op that would fault has changed nothing: the kernel
//! adds the charges of the ops before it and hands the iteration over
//! at `k`, where the op faults again and builds its error as it always
//! does. And an iteration that would pass a statement the watchdog
//! looks at — the budget's last, or one opening a cancel-poll window —
//! is handed over whole, so the watchdog fires at the same statement
//! with the same message.

use super::vm::{class_bug, intrinsic, Operands, VmState};
use super::{Ctx, Frame, Result, Simulator};
use crate::compile::{by_class, value_op};
use crate::compile::{Charge, CompiledUnit, Instr, Reg, VmLoop, MAX_ACCESSES, MAX_CHARGES};
use crate::cost::{CostClass, CostModel, ExactSum, Priced, Site};
use crate::stats::ExecStats;
use crate::store::{linearize, Cells, DimStride, SlotId, Store};
use crate::value_ops::Class;
use cedar_ir::{ops, Span};
use std::array::from_fn;
use std::cell::Cell;

/// The fewest iterations a kernel runs: planning one costs about what
/// the dispatch loop spends on five iterations of a typical body.
const MIN_TRIP: usize = 6;

/// The fewest iterations a batch runs as lanes, half a chunk. Measured
/// on the 22 serial originals, 4, 8, 16 and 32 all ran them within 3 %
/// of each other: the test at a batch's entry costs about what an
/// iteration does.
const MIN_LANES: u64 = 8;

/// Iterations a lane batch runs each op over at once: one chunk. On the
/// 22 serial originals, 8 and 32 were 4–9 % slower than 16.
const LANES: usize = 16;

/// Registers of each class a lane batch renumbers a body's into (the
/// serial originals' lane bodies use at most 8), the longest body it
/// runs and the most subscripts of its accesses. Each kilobyte these
/// add to the simulator costs about ten of peak resident memory, in the
/// simulator's copies on the stacks of the threads that run one.
const ROWS: usize = 8;
const MAX_LANE_OPS: usize = 48;
const MAX_SUBS: usize = 2 * MAX_ACCESSES;

impl Simulator<'_> {
    /// Kernels run on the fast paths, without a race detector (which
    /// notes every access) and without a fault profile (which jitters
    /// memory charges).
    pub(super) fn kernels_on(&self) -> bool {
        self.fast_paths && self.races.is_none() && self.faults.is_none()
    }

    /// Run all `trip` iterations of the inline loop `lp` as a kernel,
    /// on the clock `time`; the clock after them. `None` (and nothing
    /// done) for fewer than [`MIN_TRIP`] iterations, or when the loop
    /// variable's store, an access or a charge cannot be planned: the
    /// dispatch loop runs the loop then.
    pub(super) fn run_kernel(
        &mut self,
        frame: &mut Frame,
        cu: &CompiledUnit,
        lp: &VmLoop,
        (start, step, trip): (i64, i64, usize),
        mut time: f64,
        ctx: &mut Ctx,
    ) -> Option<Result<f64>> {
        if trip < MIN_TRIP {
            return None;
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
            None => {
                let (mut plan, mut per) = (Plan::default(), ExecStats::default());
                self.plan_kernel(&mut plan, frame, cu, body, ctx, &mut per)?;
                let table = &frame.vm.table;
                let (var, si) = (&table.ops[lp.var.index()], lp.var.index());
                let var_slot = table.slot(si, ctx.cluster);
                if !var.bound || var.offset >= self.store.slot(var_slot).len() {
                    return None;
                }
                plan.var = (var_slot, var.offset);
                plan.lay_out();
                let sites = (&plan.sites[..plan.accesses], &plan.place[..]);
                plan.lanes.plan(sites, plan.var, cu, body, table);
                let at = self.plans.next;
                self.plans.next = (at + 1) % KEPT_PLANS;
                self.plans.kept[at] = KeptPlan { key: Some(key), plan, per };
                at
            }
        };
        let gates = body.iter().filter(|op| matches!(op, Instr::Gate { .. })).count() as u64;

        let (mut value, mut left) = (start, trip as u64);
        let run = loop {
            let quiet = match gates {
                0 => left,
                g => (self.quiet_statements() / g).min(left),
            };
            let paged = self.stats.paged_accesses;
            let Plans { kept: plans, scratch, .. } = &mut self.plans;
            let ran = plans[kept].plan.batch(
                cu,
                body,
                (&mut self.store, &mut frame.vm, scratch),
                (value, step),
                quiet,
                (time, paged),
            );
            (time, self.stats.paged_accesses, value) = (ran.time, ran.paged, ran.value);
            CostModel::count(&plans[kept].per, ran.iterations, &mut self.stats);
            self.ops_executed += gates * ran.iterations;
            self.kernel_iterations += ran.iterations;
            self.lane_iterations += ran.iterations * ran.lanes as u64;
            left -= ran.iterations;
            if left == 0 {
                break Ok(time);
            }
            // The next iteration stopped at an op that faults, or would
            // pass a statement the watchdog looks at: handed over whole.
            let k = ran.stop.unwrap_or_else(|| {
                self.set_loop_var_resolved(frame, lp.var, value, ctx.cluster);
                0
            });
            match self.hand_over(frame, cu, lp, k, time, ctx) {
                Ok(t) => time = t,
                Err(e) => break Err(e),
            }
            value = value.wrapping_add(step);
            left -= 1;
        };
        Some(run)
    }

    /// Price the step and then the charges of `ops` into `plan`, their
    /// counts into `per`, and resolve where each access lands. `None`
    /// when an access is to an unbound symbol, a charge cannot be
    /// priced, or the arrays are too short.
    fn plan_kernel(
        &self,
        plan: &mut Plan,
        frame: &Frame,
        cu: &CompiledUnit,
        ops: &[Instr],
        ctx: &Ctx,
        per: &mut ExecStats,
    ) -> Option<()> {
        let table = &frame.vm.table;
        let mut site = Site {
            cluster: ctx.cluster,
            active: ctx.active,
            store: &self.store,
            stats: per,
            faults: None,
        };
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
                    let fits = !scalar || op.offset < self.store.slot(slot).len();
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
            match (self.costs.price(priced, &mut site), plan.charges < MAX_CHARGES) {
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

    /// Hand the current iteration, its variable stored, over to the
    /// dispatch loop at body op `k`: charge, count and page the step and
    /// the ops before `k` as the kernel does, then run the rest of the
    /// body.
    #[cold]
    #[inline(never)]
    fn hand_over(
        &mut self,
        frame: &mut Frame,
        cu: &CompiledUnit,
        lp: &VmLoop,
        k: usize,
        mut time: f64,
        ctx: &mut Ctx,
    ) -> Result<f64> {
        let done = &cu.code[lp.body.0 as usize..][..k];
        let (mut plan, mut per) = (Plan::default(), ExecStats::default());
        self.plan_kernel(&mut plan, frame, cu, done, ctx, &mut per)
            .expect("the whole body was planned");
        (time, self.stats.paged_accesses) = plan.charge((time, self.stats.paged_accesses), 1);
        CostModel::count(&per, 1, &mut self.stats);
        let mut stamp = Span::NONE;
        for op in done {
            if let Instr::Gate { stamp: st, .. } = op {
                stamp = *st;
                self.ops_executed += 1;
            }
        }
        ctx.time = time;
        self.vm_run_range(frame, cu, (lp.body.0 + k as u32, lp.body.1), stamp, ctx)?;
        Ok(ctx.time)
    }
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
/// of the loops around it. The oldest goes first. With them, the one
/// scratch every lane batch runs in.
#[derive(Default)]
pub(super) struct Plans {
    kept: [KeptPlan; KEPT_PLANS],
    next: usize,
    scratch: Scratch,
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

/// Where a batch of kernel iterations stopped.
struct Batch {
    time: f64,
    paged: f64,
    /// The loop variable's value of the next iteration.
    value: i64,
    iterations: u64,
    /// The next iteration stopped at this op, which would fault: it has
    /// changed nothing, and nothing of the iteration is charged.
    stop: Option<usize>,
    /// The iterations ran as lanes.
    lanes: bool,
}

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

    /// Run up to `n` iterations of `body` from the loop variable's
    /// value on, on the clock `time` and the paging count `paged`: as
    /// lanes where [`LanePlan::addresses`] proves them independent, else
    /// one by one, each storing the variable and running the value ops
    /// ([`pass`]). Then their charges ([`Plan::charge`]).
    #[inline(never)]
    fn batch(
        &self,
        cu: &CompiledUnit,
        body: &[Instr],
        (store, vm, scratch): (&mut Store, &mut VmState, &mut Scratch),
        (mut value, step): (i64, i64),
        n: u64,
        clock: (f64, f64),
    ) -> Batch {
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
        if n >= MIN_LANES {
            let mut at = [(0, 0); MAX_ACCESSES];
            if self.lanes.addresses(views, i, (value, step), n, &mut at) {
                let regs = (&mut f[..], &mut i[..], &mut b[..]);
                let value = self.lanes.run(body, views, var, regs, scratch, &at, (value, step), n);
                let (time, paged) = self.charge(clock, n);
                return Batch { time, paged, value, iterations: n, stop: None, lanes: true };
            }
        }
        let (mut iterations, mut stop) = (0, None);
        while iterations < n {
            store_var(var, value);
            stop = pass(cu, body, views, (f, i, b));
            if stop.is_some() {
                break;
            }
            value = value.wrapping_add(step);
            iterations += 1;
        }
        let (time, paged) = self.charge(clock, iterations);
        Batch { time, paged, value, iterations, stop, lanes: false }
    }
}

/// One iteration's value ops over `views` and the register files, as the
/// dispatch loop computes them. `Some(k)` when op `k` would fault: it has
/// changed nothing.
#[inline(always)]
fn pass(
    cu: &CompiledUnit,
    body: &[Instr],
    (scalars, arrays): (&[Scalar], &[Array]),
    (f, i, b): (&mut [f64], &mut [i64], &mut [bool]),
) -> Option<usize> {
    let (mut scalars, mut arrays) = (scalars.iter(), arrays.iter());
    for (k, instr) in body.iter().enumerate() {
        // The next scalar's cell (checked at entry, so it cannot fault).
        macro_rules! scalar {
            ($V:ident) => {{
                let Some(Scalar::$V(cell)) = scalars.next() else { class_bug() };
                *cell
            }};
        }
        // The next element's cell, or leave at op `k`. Its subscripts
        // come from integer registers, or (`vars`) INTEGER variables,
        // which are accesses before the element's.
        macro_rules! element {
            (@ $V:ident, $array:ident, $subs:expr) => {{
                let $array = arrays.next().expect("a view per access");
                let Cells::$V(cells) = $array.cells else {
                    class_bug()
                };
                let dims = $array.dims.iter().copied();
                match linearize(dims, $array.offset, $subs).and_then(|l| cells.get(l)) {
                    Some(cell) => cell,
                    None => return Some(k),
                }
            }};
            ($V:ident, $sub:expr, $rank:expr) => {
                element!(@ $V, array, {
                    let regs = &cu.subs[*$sub as usize..][..*$rank as usize];
                    regs.iter().map(|&r| i[r as usize])
                })
            };
            ($V:ident, vars) => {
                element!(@ $V, array, array.dims.iter().map(|_| scalar!(I).get()))
            };
        }
        // An op that would fault leaves at op `k`.
        macro_rules! one {
            ($c:ident, $D:ident <- $($A:ident)+, $d:ident, $($a:ident)+,
             $f:expr $(, $x:ident)?) => {{
                let Some(v) = Option::from($f($(by_class!($A; f, i, b)[*$a as usize]),+)) else {
                    return Some(k);
                };
                by_class!($D; f, i, b)[*$d as usize] = v;
            }};
        }
        value_op!(instr, one, other => match other {
            Instr::Gate { .. } | Instr::ChargeIdx => {}
            Instr::LoadR { d, .. } => f[*d as usize] = scalar!(R).get(),
            Instr::LoadI { d, .. } | Instr::LoadIdx { d, .. } => i[*d as usize] = scalar!(I).get(),
            Instr::LoadB { d, .. } => b[*d as usize] = scalar!(B).get(),
            Instr::ElemR { d, sub, rank, .. } => f[*d as usize] = element!(R, sub, rank).get(),
            Instr::ElemI { d, sub, rank, .. } => i[*d as usize] = element!(I, sub, rank).get(),
            Instr::ElemB { d, sub, rank, .. } => b[*d as usize] = element!(B, sub, rank).get(),
            Instr::ElemVarR { d, .. } => f[*d as usize] = element!(R, vars).get(),
            Instr::ElemVarI { d, .. } => i[*d as usize] = element!(I, vars).get(),
            Instr::ElemVarB { d, .. } => b[*d as usize] = element!(B, vars).get(),
            Instr::IntrR { .. } | Instr::IntrI { .. } => {
                if intrinsic(cu, instr, (&mut *f, &mut *i, &mut *b)).is_err() {
                    return Some(k);
                }
            }
            Instr::StoreR { s, .. } => scalar!(R).set(f[*s as usize]),
            Instr::StoreI { s, .. } => scalar!(I).set(i[*s as usize]),
            Instr::StoreB { s, .. } => scalar!(B).set(b[*s as usize]),
            Instr::SetElemR { sub, rank, s, .. } => element!(R, sub, rank).set(f[*s as usize]),
            Instr::SetElemI { sub, rank, s, .. } => element!(I, sub, rank).set(i[*s as usize]),
            Instr::SetElemB { sub, rank, s, .. } => element!(B, sub, rank).set(b[*s as usize]),
            other => unreachable!("{other:?} is not a kernel op"),
        })
    }
    None
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

/// The scratch a lane batch runs in: [`ROWS`] registers of each class,
/// each [`LANES`] iterations wide.
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

/// What a lane batch does for one op of the body, over a chunk.
#[derive(Clone, Copy)]
enum LaneOp {
    /// Row `d` gets the loop variable, as its cell holds it.
    Var(Row),
    /// Row `d` gets scalar view `p`'s value in every lane.
    Scalar(Row, u8),
    /// Row `d` gets element access `e`'s cells; they get row `s`.
    Load(Row, u8),
    Store(Row, u8),
    /// Body op `k`'s value op, over rows `[d, a, b]`.
    Value(u8, [Row; 3]),
}

/// Where one subscript of an element access comes from in a lane
/// batch: the loop variable, or a value the same in every iteration —
/// an INTEGER scalar's view, or the row of a register the body does not
/// define.
#[derive(Clone, Copy)]
enum Sub {
    Var,
    Scalar(u8),
    Input(Row),
}

/// An element access of a lane batch: its array view and slot, its
/// subscripts `subs[at..at + rank]`, and whether it stores.
#[derive(Clone, Copy)]
struct Elem {
    view: u8,
    slot: SlotId,
    at: u8,
    rank: u8,
    write: bool,
}

/// A body's iterations as lanes, planned once with its kernel
/// ([`LanePlan::plan`]): its ops over the body's registers renumbered
/// into rows of the [`Scratch`], and its element accesses.
struct LanePlan {
    /// The static rules hold: the body can run as lanes.
    ok: bool,
    ops: [LaneOp; MAX_LANE_OPS],
    len: usize,
    elems: [Elem; MAX_ACCESSES],
    n_elems: usize,
    subs: [Sub; MAX_SUBS],
    n_subs: usize,
    /// Per class, the register each row stands for and (`defined`)
    /// whether the body defines it; one it does not define it only
    /// reads, and it holds the same value in every iteration.
    regs: [[Reg; ROWS]; 3],
    defined: [[bool; ROWS]; 3],
    rows: [usize; 3],
}

impl Default for LanePlan {
    fn default() -> LanePlan {
        let elem = Elem { view: 0, slot: SlotId(0), at: 0, rank: 0, write: false };
        LanePlan {
            ok: false,
            ops: [LaneOp::Var(0); MAX_LANE_OPS],
            len: 0,
            elems: [elem; MAX_ACCESSES],
            n_elems: 0,
            subs: [Sub::Var; MAX_SUBS],
            n_subs: 0,
            regs: [[0; ROWS]; 3],
            defined: [[false; ROWS]; 3],
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

/// A [`LanePlan`] being made: which rows the body read before defining
/// them, and where the value of each INTEGER row came from.
struct Renumber<'p> {
    lanes: &'p mut LanePlan,
    read_first: [[bool; ROWS]; 3],
    from: [Option<Sub>; ROWS],
}

impl Renumber<'_> {
    /// The row of register `r` of class `c`, given one if it has none.
    fn row(&mut self, c: Class, r: Reg) -> Option<usize> {
        let (regs, n) = (&mut self.lanes.regs[c as usize], &mut self.lanes.rows[c as usize]);
        match regs[..*n].iter().position(|&reg| reg == r) {
            Some(row) => Some(row),
            None if *n < ROWS => {
                regs[*n] = r;
                *n += 1;
                Some(*n - 1)
            }
            None => None,
        }
    }

    fn read(&mut self, c: Class, r: Reg) -> Option<Row> {
        let row = self.row(c, r)?;
        if !self.lanes.defined[c as usize][row] {
            self.read_first[c as usize][row] = true;
        }
        Some(row as Row)
    }

    /// Register `r` defined, its value (if INTEGER) from `from`. `None`
    /// when the body read it before: an iteration would read the value
    /// the one before it left.
    fn def(&mut self, c: Class, r: Reg, from: Option<Sub>) -> Option<Row> {
        let row = self.row(c, r)?;
        if self.read_first[c as usize][row] {
            return None;
        }
        self.lanes.defined[c as usize][row] = true;
        if c == Class::I {
            self.from[row] = from;
        }
        Some(row as Row)
    }

    /// Register `r` read as a subscript: where its value came from.
    fn sub(&mut self, r: Reg) -> Option<Sub> {
        let row = self.read(Class::I, r)?;
        match self.lanes.defined[Class::I as usize][row as usize] {
            true => self.from[row as usize],
            false => Some(Sub::Input(row)),
        }
    }

    fn push_sub(&mut self, sub: Sub) -> Option<()> {
        let lanes = &mut *self.lanes;
        *lanes.subs.get_mut(lanes.n_subs)? = sub;
        lanes.n_subs += 1;
        Some(())
    }

    /// The subscripts in the INTEGER registers `regs`; where they start.
    fn reg_subs(&mut self, regs: &[Reg]) -> Option<usize> {
        let at = self.lanes.n_subs;
        for &r in regs {
            let sub = self.sub(r)?;
            self.push_sub(sub)?;
        }
        Some(at)
    }

    /// A new element access: view `view` of `slot`, with the subscripts
    /// from `at` on.
    fn elem(&mut self, (view, slot): (u8, SlotId), write: bool, at: usize) -> Option<u8> {
        let lanes = &mut *self.lanes;
        let (e, rank) = (lanes.n_elems, (lanes.n_subs - at) as u8);
        lanes.elems[e] = Elem { view, slot, at: at as u8, rank, write };
        lanes.n_elems += 1;
        Some(e as u8)
    }
}

/// The class of the value a load or a store moves.
fn moved_class(op: &Instr) -> Class {
    use Instr::*;
    match op {
        LoadR { .. } | ElemR { .. } | ElemVarR { .. } | SetElemR { .. } => Class::R,
        LoadB { .. } | ElemB { .. } | ElemVarB { .. } | SetElemB { .. } => Class::B,
        _ => Class::I,
    }
}

impl LanePlan {
    /// Decide whether `body`, whose accesses land at `sites` (their
    /// views at `place`) and whose loop variable's cell is `var`, can
    /// run as lanes, and plan its ops. The static rules: only loads,
    /// element stores and value ops that cannot fault (no scalar store,
    /// which would carry a value into the next iteration, no division or
    /// power of integers, no intrinsic); every scalar read is the loop
    /// variable or in a slot no op of the body writes; every subscript
    /// is the loop variable or the same in every iteration; no register
    /// is read before the body defines it unless the body never does;
    /// no element lands in the loop variable's slot.
    fn plan(
        &mut self,
        (sites, place): (&[Resolved], &[u8]),
        var: (SlotId, usize),
        cu: &CompiledUnit,
        body: &[Instr],
        table: &Operands,
    ) {
        let mut rn = Renumber { lanes: self, read_first: [[false; ROWS]; 3], from: [None; ROWS] };
        rn.lanes.ok = rn.plan(sites, place, var, cu, body, table).is_some();
    }

    /// Each element access's first cell and its step between iterations
    /// in a batch of `n` from `value` on by `step`, into `at`. `false`
    /// when the body cannot run as lanes, an iteration's access would be
    /// out of bounds, or two accesses of a slot, one of them a store,
    /// would touch one cell in different iterations.
    fn addresses(
        &self,
        (scalars, arrays): (&[Scalar], &[Array]),
        i: &[i64],
        (value, step): (i64, i64),
        n: u64,
        at: &mut [(i64, i64); MAX_ACCESSES],
    ) -> bool {
        let last = i64::try_from(n - 1).ok();
        let cells = |e: &Elem, last: i64| -> Option<(i64, i64)> {
            let array = &arrays[e.view as usize];
            let (mut lin, mut dl) = (0i64, 0i64);
            for (sub, dim) in self.subs[e.at as usize..][..e.rank as usize].iter().zip(array.dims) {
                let (s0, ds) = match *sub {
                    Sub::Var => (value, step),
                    Sub::Scalar(p) => match scalars[p as usize] {
                        Scalar::I(c) => (c.get(), 0),
                        _ => class_bug(),
                    },
                    Sub::Input(row) => (i[self.regs[Class::I as usize][row as usize] as usize], 0),
                };
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
        let (Some(last), true) = (last, self.ok) else {
            return false;
        };
        let elems = &self.elems[..self.n_elems];
        for (e, elem) in elems.iter().enumerate() {
            match cells(elem, last) {
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
        }
        true
    }

    /// Run `n` iterations of `body` from `value` on by `step`, chunk by
    /// chunk and, within a chunk, op by op over its lanes: each lane
    /// makes its iteration's accesses in the body's order, and
    /// [`LanePlan::addresses`] has proved that no other iteration's come
    /// between them. Then the registers the body defines and the loop
    /// variable hold the last iteration's values, as after [`pass`].
    /// The variable's value of the next iteration.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        body: &[Instr],
        (scalars, arrays): (&[Scalar], &[Array]),
        var: Scalar,
        (f, i, b): (&mut [f64], &mut [i64], &mut [bool]),
        scratch: &mut Scratch,
        at: &[(i64, i64); MAX_ACCESSES],
        (value, step): (i64, i64),
        n: u64,
    ) -> i64 {
        let [rf, ri, rb] = [0, 1, 2].map(|c| (&self.regs[c][..self.rows[c]], &self.defined[c]));
        broadcast(rf, f, &mut scratch.f);
        broadcast(ri, i, &mut scratch.i);
        broadcast(rb, b, &mut scratch.b);
        let (mut done, mut len) = (0, 0);
        while done < n {
            len = (n - done).min(LANES as u64) as usize;
            let first = value.wrapping_add((done as i64).wrapping_mul(step));
            let lane = |t: usize| first.wrapping_add((t as i64).wrapping_mul(step));
            for op in &self.ops[..self.len] {
                match *op {
                    LaneOp::Var(d) => match var {
                        Scalar::R(_) => {
                            scratch.f[d as usize] = from_fn(|t| ops::real_of_int(lane(t)))
                        }
                        Scalar::I(_) => scratch.i[d as usize] = from_fn(lane),
                        Scalar::B(_) => {
                            scratch.b[d as usize] = from_fn(|t| ops::bool_of_int(lane(t)))
                        }
                    },
                    LaneOp::Scalar(d, p) => match scalars[p as usize] {
                        Scalar::R(c) => scratch.f[d as usize] = [c.get(); LANES],
                        Scalar::I(c) => scratch.i[d as usize] = [c.get(); LANES],
                        Scalar::B(c) => scratch.b[d as usize] = [c.get(); LANES],
                    },
                    LaneOp::Load(d, e) | LaneOp::Store(d, e) => {
                        let (l0, dl) = at[e as usize];
                        let base = l0 + done as i64 * dl;
                        let cells = (0..len).map(|t| (base + t as i64 * dl) as usize);
                        let (d, load) = (d as usize, matches!(op, LaneOp::Load(..)));
                        match arrays[self.elems[e as usize].view as usize].cells {
                            Cells::R(c) => move_lanes(c, cells, &mut scratch.f[d], load),
                            Cells::I(c) => move_lanes(c, cells, &mut scratch.i[d], load),
                            Cells::B(c) => move_lanes(c, cells, &mut scratch.b[d], load),
                        }
                    }
                    LaneOp::Value(k, [rd, ra, rb]) => {
                        let (sf, si, sb) = (&mut scratch.f, &mut scratch.i, &mut scratch.b);
                        // The plan refuses an op that can fault.
                        macro_rules! lanes {
                            ($c:ident, $D:ident <- $A:ident $B:ident, $d:ident, $a:ident $b:ident,
                             $f:expr, fallible) => {{
                                let _ = ($d, $a, $b);
                                unreachable!("an op that can fault in lanes")
                            }};
                            ($c:ident, $D:ident <- $A:ident $B:ident, $d:ident, $a:ident $b:ident,
                             $f:expr) => {{
                                let _ = ($d, $a, $b);
                                let xs = by_class!($A; sf, si, sb)[ra as usize];
                                let ys = by_class!($B; sf, si, sb)[rb as usize];
                                let out = &mut by_class!($D; sf, si, sb)[rd as usize];
                                for t in 0..LANES {
                                    out[t] = $f(xs[t], ys[t]);
                                }
                            }};
                            ($c:ident, $D:ident <- $A:ident, $d:ident, $a:ident, $f:expr) => {{
                                let _ = ($d, $a);
                                let xs = by_class!($A; sf, si, sb)[ra as usize];
                                let out = &mut by_class!($D; sf, si, sb)[rd as usize];
                                for t in 0..LANES {
                                    out[t] = $f(xs[t]);
                                }
                            }};
                        }
                        value_op!(&body[k as usize], lanes, op => unreachable!("{op:?} in lanes"))
                    }
                }
            }
            done += len as u64;
        }
        write_back(rf, &scratch.f, len - 1, f);
        write_back(ri, &scratch.i, len - 1, i);
        write_back(rb, &scratch.b, len - 1, b);
        store_var(var, value.wrapping_add(((n - 1) as i64).wrapping_mul(step)));
        value.wrapping_add((n as i64).wrapping_mul(step))
    }
}

impl Renumber<'_> {
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
        // The slots the element stores write.
        let (mut written, mut n_written, mut k) = ([SlotId(0); MAX_ACCESSES], 0, 0);
        for op in body {
            k += accesses(op, cu);
            if let Instr::SetElemR { .. } | Instr::SetElemI { .. } | Instr::SetElemB { .. } = op {
                (written[n_written], n_written) = (sites[k - 1].slot, n_written + 1);
            }
        }
        let written = &written[..n_written];
        // A scalar access: the loop variable, or one the same in every
        // iteration.
        let scalar = |k: usize| -> Option<Sub> {
            let site = &sites[k];
            if (site.slot, table.ops[site.op as usize].offset) == var {
                Some(Sub::Var)
            } else if written.contains(&site.slot) {
                None
            } else {
                Some(Sub::Scalar(place[k]))
            }
        };
        let elem = |k: usize| {
            let site = &sites[k];
            (site.slot != var.0).then_some((place[k], site.slot))
        };
        let mut k = 0;
        for (j, op) in body.iter().enumerate() {
            let c = moved_class(op);
            let lane = match op {
                Instr::Gate { .. } | Instr::ChargeIdx => None,
                Instr::LoadR { d, .. }
                | Instr::LoadI { d, .. }
                | Instr::LoadB { d, .. }
                | Instr::LoadIdx { d, .. } => {
                    let from = scalar(k)?;
                    let row = self.def(c, *d, Some(from))?;
                    Some(match from {
                        Sub::Var => LaneOp::Var(row),
                        _ => LaneOp::Scalar(row, place[k]),
                    })
                }
                Instr::ElemR { d, sub, rank, .. }
                | Instr::ElemI { d, sub, rank, .. }
                | Instr::ElemB { d, sub, rank, .. } => {
                    let at = self.reg_subs(&cu.subs[*sub as usize..][..*rank as usize])?;
                    let e = self.elem(elem(k)?, false, at)?;
                    Some(LaneOp::Load(self.def(c, *d, None)?, e))
                }
                Instr::ElemVarR { d, rank, .. }
                | Instr::ElemVarI { d, rank, .. }
                | Instr::ElemVarB { d, rank, .. } => {
                    let (at, rank) = (self.lanes.n_subs, *rank as usize);
                    for k in k..k + rank {
                        self.push_sub(scalar(k)?)?;
                    }
                    let e = self.elem(elem(k + rank)?, false, at)?;
                    Some(LaneOp::Load(self.def(c, *d, None)?, e))
                }
                Instr::SetElemR { sub, rank, s, .. }
                | Instr::SetElemI { sub, rank, s, .. }
                | Instr::SetElemB { sub, rank, s, .. } => {
                    let row = self.read(c, *s)?;
                    let at = self.reg_subs(&cu.subs[*sub as usize..][..*rank as usize])?;
                    Some(LaneOp::Store(row, self.elem(elem(k)?, true, at)?))
                }
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
                            LaneOp::Value(j, [self.def(Class::$D, *$d, None)?, a, b])
                        }};
                        ($c:ident, $D:ident <- $A:ident, $d:ident, $a:ident, $($_:tt)*) => {{
                            let a = self.read(Class::$A, *$a)?;
                            LaneOp::Value(j, [self.def(Class::$D, *$d, None)?, a, 0])
                        }};
                    }
                    // Scalar stores, intrinsics and the ops that can
                    // fault (integer division and powers) are refused
                    // here. A compare's rows do not depend on its mask.
                    #[allow(unused_variables)]
                    let value = value_op!(op, rows, _ => return None);
                    Some(value)
                }
            };
            k += accesses(op, cu);
            if let Some(lane) = lane {
                let lanes = &mut *self.lanes;
                *lanes.ops.get_mut(lanes.len)? = lane;
                lanes.len += 1;
            }
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
    row: &mut [T; LANES],
    load: bool,
) {
    for (lane, k) in row.iter_mut().zip(at) {
        match load {
            true => *lane = cells[k].get(),
            false => cells[k].set(*lane),
        }
    }
}

/// Fill the rows of the registers `regs` the body only reads from the
/// register file, the same value in every lane.
fn broadcast<T: Copy>(
    (regs, defined): (&[Reg], &[bool; ROWS]),
    file: &[T],
    rows: &mut [[T; LANES]],
) {
    for ((row, &r), _) in rows.iter_mut().zip(regs).zip(defined).filter(|(_, &d)| !d) {
        *row = [file[r as usize]; LANES];
    }
}

/// Write lane `lane` of the rows of the registers `regs` the body
/// defines back to the register file.
fn write_back<T: Copy>(
    (regs, defined): (&[Reg], &[bool; ROWS]),
    rows: &[[T; LANES]],
    lane: usize,
    file: &mut [T],
) {
    for ((row, &r), _) in rows.iter().zip(regs).zip(defined).filter(|(_, &d)| d) {
        file[r as usize] = row[lane];
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
