//! Loop kernels (DESIGN.md §14, "Loop kernels"): an inline loop whose
//! body is kernel ops only ([`Instr::in_kernel`]) runs here, one tight
//! pass per iteration.
//!
//! Without a race detector and a fault profile, nothing such a body
//! charges depends on what it computes: it allocates nothing, so the
//! paging pools stand still, and no memory jitter is drawn. So at entry
//! the cost model prices one iteration once
//! ([`CostModel::price`](crate::cost::CostModel::price)): each clock
//! addition in the dispatch loop's order, the step's first, and the
//! counts. Each access is resolved to its slot, and each batch of
//! iterations views those slots as cells, which operands sharing a slot
//! may hold together. An iteration stores the loop variable, runs the
//! value ops with every element access checked, then adds the prices to
//! the clock one at a time — the additions the dispatch loop makes, in
//! its order, so the clock keeps its bits. Counts, and the statements
//! the watchdog counts, are added per batch.
//!
//! The dispatch loop runs the rest of an iteration from its op `k` on
//! in two cases. An op that would fault has changed nothing: the kernel
//! adds the charges of the ops before it and hands the iteration over
//! at `k`, where the op faults again and builds its error as it always
//! does. And an iteration that would pass a statement the watchdog
//! looks at — the budget's last, or one opening a cancel-poll window —
//! is handed over whole, so the watchdog fires at the same statement
//! with the same message.

use super::vm::{class_bug, linearize, DimStride, VmState};
use super::{Ctx, Frame, Result, Simulator};
use crate::compile::MAX_INTR_ARGS;
use crate::compile::{Charge, CompiledUnit, Instr, VmLoop, MAX_ACCESSES, MAX_CHARGES};
use crate::cost::{CostClass, CostModel, Priced, Site};
use crate::stats::ExecStats;
use crate::store::{Cells, SlotId, Store};
use crate::value_ops::{self, cmp_f64, mask_accepts, Class};
use cedar_ir::{Span, Value};
use std::cell::Cell;

/// The fewest iterations a kernel runs: planning one costs about what
/// the dispatch loop spends on five iterations of a typical body.
const MIN_TRIP: usize = 6;

impl Simulator<'_> {
    /// Kernels run on the fast paths, without a race detector (which
    /// notes every access) and without a fault profile (which jitters
    /// memory charges).
    pub(super) fn kernels_on(&self) -> bool {
        self.pre.enabled && self.races.is_none() && self.faults.is_none()
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
            let ran = self.plans.kept[kept].plan.batch(
                cu,
                body,
                &mut self.store,
                &mut frame.vm,
                (value, step),
                quiet,
                (time, paged),
            );
            (time, self.stats.paged_accesses, value) = (ran.time, ran.paged, ran.value);
            CostModel::count(&self.plans.kept[kept].per, ran.iterations, &mut self.stats);
            self.ops_executed += gates * ran.iterations;
            self.kernel_iterations += ran.iterations;
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
                        *at = Resolved { slot, op: sym.index(), scalar };
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
                    (plan.cycles[plan.charges], plan.paged[plan.charges]) = (cycles, paged);
                    plan.paging |= paged > 0.0;
                    plan.charges += 1;
                }
                _ => exact = false,
            }
        };
        put(Charge::Fixed(CostClass::LoopStep));
        for op in ops {
            op.charges(cu, &mut put);
        }
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
        for &c in &plan.cycles[..plan.charges] {
            time += c;
        }
        if plan.paging {
            for &p in &plan.paged[..plan.charges] {
                self.stats.paged_accesses += p;
            }
        }
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
/// of the loops around it. The oldest goes first.
#[derive(Default)]
pub(super) struct Plans {
    kept: [KeptPlan; KEPT_PLANS],
    next: usize,
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
    op: usize,
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
/// charges in order — the step's first — with what each adds to
/// `paged_accesses`, and where its accesses and its loop variable land.
struct Plan {
    cycles: [f64; MAX_CHARGES],
    paged: [f64; MAX_CHARGES],
    charges: usize,
    /// Some charge adds to `paged_accesses`.
    paging: bool,
    sites: [Resolved; MAX_ACCESSES],
    accesses: usize,
    var: (SlotId, usize),
    /// The accesses' and the variable's slots, ascending and distinct,
    /// and who lands in each: access `k`, or [`VAR`].
    slots: [SlotId; MAX_ACCESSES + 1],
    distinct: usize,
    order: [(SlotId, usize); MAX_ACCESSES + 1],
    /// Each access's place among the scalars' or the arrays', and how
    /// many of each there are.
    place: [usize; MAX_ACCESSES],
    scalars: usize,
    arrays: usize,
}

/// The loop variable among [`Plan::order`]'s accesses.
const VAR: usize = MAX_ACCESSES;

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
}

impl Default for Plan {
    fn default() -> Plan {
        let nowhere = Resolved { slot: SlotId(0), op: 0, scalar: false };
        Plan {
            cycles: [0.0; MAX_CHARGES],
            paged: [0.0; MAX_CHARGES],
            charges: 0,
            paging: false,
            sites: [nowhere; MAX_ACCESSES],
            accesses: 0,
            var: (SlotId(0), 0),
            slots: [SlotId(0); MAX_ACCESSES + 1],
            distinct: 0,
            order: [(SlotId(0), 0); MAX_ACCESSES + 1],
            place: [0; MAX_ACCESSES],
            scalars: 0,
            arrays: 0,
        }
    }
}

impl Plan {
    /// Sort the slots the accesses and the variable land in, each to be
    /// viewed once, and place each access among the scalars or arrays.
    fn lay_out(&mut self) {
        for (k, site) in self.sites[..self.accesses].iter().enumerate() {
            self.order[k] = (site.slot, k);
        }
        self.order[self.accesses] = (self.var.0, VAR);
        let order = &mut self.order[..=self.accesses];
        order.sort_unstable_by_key(|&(slot, _)| slot.0);
        for &(slot, _) in order.iter() {
            if self.distinct == 0 || self.slots[self.distinct - 1] != slot {
                self.slots[self.distinct] = slot;
                self.distinct += 1;
            }
        }
        for (p, site) in self.place.iter_mut().zip(&self.sites[..self.accesses]) {
            let n = if site.scalar { &mut self.scalars } else { &mut self.arrays };
            (*p, *n) = (*n, *n + 1);
        }
    }

    /// Run up to `n` iterations of `body` from the loop variable's
    /// value on, on the clock `time` and the paging count `paged`. Each
    /// one stores the variable, runs the value ops ([`pass`]), and then
    /// adds its prices and its paging, one at a time and in order (a
    /// charge that does not page adds 0, which leaves the sum's bits).
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn batch(
        &self,
        cu: &CompiledUnit,
        body: &[Instr],
        store: &mut Store,
        vm: &mut VmState,
        (mut value, step): (i64, i64),
        n: u64,
        (mut time, mut paged): (f64, f64),
    ) -> Batch {
        let VmState { table, f, i, b, .. } = vm;
        let empty = Scalar::B(&Cell::new(false));
        let (mut scalar_views, mut var) = ([empty; MAX_ACCESSES], empty);
        let nowhere = Array { cells: Cells::B(&[]), offset: 0, dims: &[] };
        let mut array_views = [nowhere; MAX_ACCESSES];
        let mut next = self.order[..=self.accesses].iter().peekable();
        store.cells(&self.slots[..self.distinct], |slot, cells| {
            let scalar = |offset: usize| match cells {
                Cells::R(c) => Scalar::R(&c[offset]),
                Cells::I(c) => Scalar::I(&c[offset]),
                Cells::B(c) => Scalar::B(&c[offset]),
            };
            while let Some(&(_, k)) = next.next_if(|&&(s, _)| s == slot) {
                let Some(site) = self.sites.get(k) else {
                    var = scalar(self.var.1);
                    continue;
                };
                let op = &table.ops[site.op];
                if site.scalar {
                    scalar_views[self.place[k]] = scalar(op.offset);
                } else {
                    let dims = table.dims(op);
                    array_views[self.place[k]] = Array { cells, offset: op.offset, dims };
                }
            }
        });
        let views = (&scalar_views[..self.scalars], &array_views[..self.arrays]);
        let mut iterations = 0;
        while iterations < n {
            store_var(var, value);
            if let Some(k) = pass(cu, body, views, (f, i, b)) {
                return Batch { time, paged, value, iterations, stop: Some(k) };
            }
            for &c in &self.cycles[..self.charges] {
                time += c;
            }
            if self.paging {
                for &p in &self.paged[..self.charges] {
                    paged += p;
                }
            }
            value = value.wrapping_add(step);
            iterations += 1;
        }
        Batch { time, paged, value, iterations, stop: None }
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
                match linearize($array.dims, $array.offset, $subs).and_then(|l| cells.get(l)) {
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
        macro_rules! op {
            ($dst:ident <- $src:ident, $d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
                let ($x, $y) = ($src[*$a as usize], $src[*$b as usize]);
                $dst[*$d as usize] = $e;
            }};
            ($dst:ident <- $src:ident, $d:expr, $a:expr, |$x:ident| $e:expr) => {{
                let $x = $src[*$a as usize];
                $dst[*$d as usize] = $e;
            }};
        }
        match instr {
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

            Instr::AddR { d, a, b } => op!(f <- f, d, a, b, |x, y| x + y),
            Instr::SubR { d, a, b } => op!(f <- f, d, a, b, |x, y| x - y),
            Instr::MulR { d, a, b } => op!(f <- f, d, a, b, |x, y| x * y),
            Instr::DivR { d, a, b } => op!(f <- f, d, a, b, |x, y| x / y),
            Instr::PowR { d, a, b } => op!(f <- f, d, a, b, |x, y| x.powf(y)),
            Instr::PowRI { d, a, b: e } => {
                f[*d as usize] = cedar_ir::pow_ri(f[*a as usize], i[*e as usize])
            }
            Instr::AddI { d, a, b } => op!(i <- i, d, a, b, |x, y| x.wrapping_add(y)),
            Instr::SubI { d, a, b } => op!(i <- i, d, a, b, |x, y| x.wrapping_sub(y)),
            Instr::MulI { d, a, b } => op!(i <- i, d, a, b, |x, y| x.wrapping_mul(y)),
            Instr::DivI { d, a, b } => {
                let (x, y) = (i[*a as usize], i[*b as usize]);
                if y == 0 {
                    return Some(k);
                }
                i[*d as usize] = x.wrapping_div(y);
            }
            Instr::PowI { d, a, b } => {
                let Some(p) = cedar_ir::pow_ii(i[*a as usize], i[*b as usize]) else {
                    return Some(k);
                };
                i[*d as usize] = p;
            }
            Instr::NegR { d, a } => op!(f <- f, d, a, |x| -x),
            Instr::NegI { d, a } => op!(i <- i, d, a, |x| -x),
            Instr::IntrR { f: g, n, d, args } | Instr::IntrI { f: g, n, d, args } => {
                let mut argv = [Value::I(0); MAX_INTR_ARGS];
                let operands = &cu.intr_args[*args as usize..][..*n as usize];
                for (v, &(c, r)) in argv.iter_mut().zip(operands) {
                    *v = match c {
                        Class::R => Value::R(f[r as usize]),
                        Class::I => Value::I(i[r as usize]),
                        Class::B => Value::B(b[r as usize]),
                    };
                }
                match (value_ops::intrinsic(*g, &argv[..*n as usize]), instr) {
                    (Ok(Value::R(x)), Instr::IntrR { .. }) => f[*d as usize] = x,
                    (Ok(Value::I(x)), Instr::IntrI { .. }) => i[*d as usize] = x,
                    (Ok(_), _) => class_bug(),
                    (Err(_), _) => return Some(k),
                }
            }

            Instr::CmpR { d, a, b: c, mask } => {
                op!(b <- f, d, a, c, |x, y| mask_accepts(*mask, cmp_f64(x, y)))
            }
            Instr::CmpI { d, a, b: c, mask } => {
                op!(b <- i, d, a, c, |x, y| mask_accepts(*mask, x.cmp(&y)))
            }
            Instr::AndB { d, a, b: c } => op!(b <- b, d, a, c, |x, y| x && y),
            Instr::OrB { d, a, b: c } => op!(b <- b, d, a, c, |x, y| x || y),
            Instr::EqvB { d, a, b: c } => op!(b <- b, d, a, c, |x, y| x == y),
            Instr::NeqvB { d, a, b: c } => op!(b <- b, d, a, c, |x, y| x != y),
            Instr::NotB { d, a } => op!(b <- b, d, a, |x| !x),

            Instr::CvtIR { d, a } => op!(f <- i, d, a, |x| x as f64),
            Instr::CvtBR { d, a } => op!(f <- b, d, a, |x| if x { 1.0 } else { 0.0 }),
            Instr::CvtRI { d, a } => op!(i <- f, d, a, |x| x.trunc() as i64),
            Instr::CvtBI { d, a } => op!(i <- b, d, a, |x| x as i64),
            Instr::CvtRB { d, a } => op!(b <- f, d, a, |x| x != 0.0),
            Instr::CvtIB { d, a } => op!(b <- i, d, a, |x| x != 0),

            Instr::StoreR { s, .. } => scalar!(R).set(f[*s as usize]),
            Instr::StoreI { s, .. } => scalar!(I).set(i[*s as usize]),
            Instr::StoreB { s, .. } => scalar!(B).set(b[*s as usize]),
            Instr::SetElemR { sub, rank, s, .. } => element!(R, sub, rank).set(f[*s as usize]),
            Instr::SetElemI { sub, rank, s, .. } => element!(I, sub, rank).set(i[*s as usize]),
            Instr::SetElemB { sub, rank, s, .. } => element!(B, sub, rank).set(b[*s as usize]),
            other => unreachable!("{other:?} is not a kernel op"),
        }
    }
    None
}

/// Store the loop variable, as `set_loop_var` stores it.
#[inline(always)]
fn store_var(var: Scalar, value: i64) {
    match var {
        Scalar::I(c) => c.set(value),
        Scalar::R(c) => c.set(value as f64),
        Scalar::B(c) => c.set(value != 0),
    }
}
