//! The cost model: every simulated cycle is charged here.
//!
//! [`CostModel`] is built once per simulator from the [`Machine`] and
//! is the only reader of its cost fields: the executor keeps the
//! machine's topology and run limits and no cost field, so tree-walker,
//! VM dispatch loop and loop kernels all charge through these entry
//! points by construction, not by convention.
//!
//! * [`CostModel::charge`] — a **fixed** charge. Its [`CostClass`]
//!   selects the table entry *and* the [`ExecStats`] counter, bumped in
//!   the same call, so a count and its cost cannot drift.
//! * [`CostModel::access`], [`CostModel::vector_node`],
//!   [`CostModel::reduction`] — the **computed** charges: memory by
//!   placement × [`Access`] × contention × paging × fault jitter,
//!   vector-expression nodes by lane count, reductions by [`ParMode`].
//! * [`CostModel::loop_shape`] — participants, start-up and dispatch
//!   of a loop class, for the scheduler and parallel reductions alike.
//! * [`CostModel::price`] and [`CostModel::count`] — a loop kernel's
//!   iteration priced once through the entry points above, and its
//!   counts added for many iterations at once (DESIGN.md §14, "Loop
//!   kernels").
//!
//! DESIGN.md §14.1 tabulates every class (trigger, formula, fields and
//! constants read, counter bumped) and lists the clock moves that are
//! not charges (stalls, joins, fault skew), which stay where they are
//! scheduled.
//!
//! **Bit-identity.** Simulated time is an `f64` accumulator and float
//! addition does not associate, so an entry point makes exactly the
//! additions the statement it models always made, one at a time and in
//! that order. A table entry is a *verbatim copy* of a config field, or
//! a product that would otherwise be computed identically on every
//! charge (`scalar_op * 2.0` has the same bits computed once or per
//! iteration), and there is one `mem_jitter` draw per memory level
//! charged, in order. Charges are folded into one addition in a single
//! place, where the fold provably has the bits of the additions it
//! replaces: [`ExactSum`] adds `n` iterations of a loop kernel's prices
//! as `t + n·S` only when every partial sum of the in-order additions
//! is a representable multiple of one power of two, so that each of
//! them is exact. `tests/cycle_bits.rs` pins the result.

use crate::fault::FaultState;
use crate::stats::ExecStats;
use crate::store::Store;
use cedar_ir::{LoopClass, Machine, ParMode, Placement};

/// What `ctskstart` / `mtskstart` cost the *starter*: the dispatch
/// handshake (the thread begins `ctsk_start` / `mtsk_start` later).
const CTSK_HANDSHAKE: f64 = 200.0;
const MTSK_HANDSHAKE: f64 = 40.0;
/// Operand streams sharing one vector start-up: a loaded section pays
/// `vector_startup / 4`, the store stream all of it.
const STARTUP_OPERANDS: f64 = 4.0;
/// A vector access to cluster memory, as a share of a scalar one.
const CLUSTER_VECTOR_DISCOUNT: f64 = 0.5;
/// Vector ops per lane of an elementwise vector intrinsic.
const VECTOR_INTRINSIC_OPS: f64 = 2.0;
/// Scalar ops of a scalar intrinsic call; of a sequential loop step
/// (increment + test).
const INTRINSIC_OPS: u64 = 2;
const LOOP_STEP_OPS: u64 = 2;
/// Flops per element of `DOTPRODUCT` (every other reduction: 1).
const DOT_FLOPS: f64 = 2.0;
/// Share of a `Partitioned` access served by the owning cluster's
/// memory (§4.2.3: "50% of its data references localized").
const PARTITIONED_LOCAL_SHARE: f64 = 0.5;

/// The fixed charges, one table entry each: [`CostModel::build`] says
/// what each costs, [`CostModel::charge`] what it counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CostClass {
    ScalarOp,
    Intrinsic,
    CacheHit,
    Branch,
    Io,
    LoopStep,
    VectorStartup,
    OperandStartup,
    Call,
    Await,
    Advance,
    Lock,
    CdoStart,
    SdoStart,
    XdoStart,
    CdoDispatch,
    LibDispatch,
    Barrier,
    CtskStart,
    MtskStart,
    CtskHandshake,
    MtskHandshake,
}

const N_CLASSES: usize = CostClass::MtskHandshake as usize + 1;

/// How a memory access reaches storage: one element through the scalar
/// unit, or a vector stream — which the prefetch unit runs ahead of
/// only when it is a read that no index vector steers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    ScalarRead,
    ScalarWrite,
    VectorRead,
    Gather,
    VectorWrite,
}

/// Where a memory charge is made from and what of the run it touches:
/// the pools behind paging, the counters, the fault stream.
pub(crate) struct Site<'a> {
    pub cluster: usize,
    /// CEs running concurrently (global-memory contention).
    pub active: usize,
    pub store: &'a Store,
    pub stats: &'a mut ExecStats,
    pub faults: Option<&'a mut FaultState>,
}

/// The machine's cost model (see the module docs).
pub(crate) struct CostModel {
    /// Cycles per [`CostClass`].
    fixed: [f64; N_CLASSES],
    /// What the computed charges read.
    cfg: Machine,
}

impl CostModel {
    /// Take over the cost fields of `cfg`.
    pub(crate) fn build(cfg: Machine) -> CostModel {
        use CostClass::*;
        let mut fixed = [0.0; N_CLASSES];
        let mut set = |class: CostClass, cycles: f64| fixed[class as usize] = cycles;
        set(ScalarOp, cfg.scalar_op); // subscript address arithmetic too
        set(Intrinsic, cfg.scalar_op * INTRINSIC_OPS as f64);
        set(CacheHit, cfg.cache_hit); // scalar loads and stores
        set(Branch, cfg.scalar_op); // the test of an IF
        set(Io, cfg.io_cost);
        set(LoopStep, cfg.scalar_op * LOOP_STEP_OPS as f64);
        set(VectorStartup, cfg.vector_startup);
        set(OperandStartup, cfg.vector_startup / STARTUP_OPERANDS);
        set(Call, cfg.call_overhead);
        set(Await, cfg.await_cost); // stall time excluded, as for Lock
        set(Advance, cfg.advance_cost);
        set(Lock, cfg.lock_cost);
        set(CdoStart, cfg.cdo_start);
        set(SdoStart, cfg.sdo_start);
        set(XdoStart, cfg.xdo_start);
        set(CdoDispatch, cfg.cdo_dispatch);
        set(LibDispatch, cfg.lib_dispatch);
        set(Barrier, cfg.barrier);
        set(CtskStart, cfg.ctsk_start);
        set(MtskStart, cfg.mtsk_start);
        set(CtskHandshake, CTSK_HANDSHAKE);
        set(MtskHandshake, MTSK_HANDSHAKE);
        CostModel { fixed, cfg }
    }

    /// The cycles of a `class` charge, uncharged (what scales a fault
    /// perturbation of a start-up).
    #[inline(always)]
    pub(crate) fn fixed(&self, class: CostClass) -> f64 {
        self.fixed[class as usize]
    }

    /// Charge one fixed cost to `clock` and count it.
    #[inline(always)]
    pub(crate) fn charge(&self, class: CostClass, stats: &mut ExecStats, clock: &mut f64) {
        use CostClass::*;
        match class {
            ScalarOp => stats.scalar_ops += 1,
            Intrinsic => stats.scalar_ops += INTRINSIC_OPS,
            LoopStep => stats.scalar_ops += LOOP_STEP_OPS,
            Io => stats.io_statements += 1,
            Call => stats.calls += 1,
            Await => stats.awaits += 1,
            Advance => stats.advances += 1,
            Lock => stats.lock_acquisitions += 1,
            CdoStart | SdoStart | XdoStart => stats.parallel_loops += 1,
            CtskStart | MtskStart => stats.tasks_started += 1,
            CacheHit | Branch | VectorStartup | OperandStartup | CdoDispatch | LibDispatch
            | Barrier | CtskHandshake | MtskHandshake => {}
        }
        *clock += self.fixed(class);
    }

    /// Participants of a parallel loop of `class` and the classes of
    /// its start-up and per-iteration dispatch; `None` for `Seq`.
    pub(crate) fn loop_shape(&self, class: LoopClass) -> Option<(usize, CostClass, CostClass)> {
        use CostClass::*;
        let cfg = &self.cfg;
        Some(match class {
            LoopClass::CDoall | LoopClass::CDoacross => {
                (cfg.ces_per_cluster, CdoStart, CdoDispatch)
            }
            LoopClass::SDoall | LoopClass::SDoacross => (cfg.clusters, SdoStart, LibDispatch),
            LoopClass::XDoall | LoopClass::XDoacross => (cfg.total_ces(), XdoStart, LibDispatch),
            LoopClass::Seq => return None,
        })
    }

    /// Count `n` element accesses to storage of `placement` and return
    /// their cycles for the caller's clock (one addition; returned, not
    /// added, so that the VM's clock can stay in a register).
    #[inline]
    pub(crate) fn access(&self, placement: Placement, n: u64, how: Access, at: &mut Site) -> f64 {
        if placement == Placement::Partitioned {
            return self.partitioned(n, how, at);
        }
        self.level(placement, n, how, at)
    }

    /// Partitioned placement models the paper's §4.2.3 measurement
    /// directly: a share of each access streams from the owning
    /// cluster's memory, the rest still crosses the global
    /// interconnect.
    #[inline(never)]
    fn partitioned(&self, n: u64, how: Access, at: &mut Site) -> f64 {
        let local = self.level(Placement::Cluster, n, how, at);
        let remote = self.level(Placement::Global, n, how, at);
        PARTITIONED_LOCAL_SHARE * (local + remote)
    }

    /// Cycles of `n` accesses at one memory level; specialized where it
    /// is inlined (the scalar access path knows `n` and `how`).
    #[inline(always)]
    fn level(&self, placement: Placement, n: u64, how: Access, at: &mut Site) -> f64 {
        let (cfg, store, stats) = (&self.cfg, at.store, &mut *at.stats);
        let vector = !matches!(how, Access::ScalarRead | Access::ScalarWrite);
        let (per_elem, thrash) = match placement {
            Placement::Private => {
                stats.private_accesses += n;
                (cfg.cache_hit, 0.0)
            }
            Placement::Cluster | Placement::Default => {
                stats.cluster_accesses += n;
                let thrash = thrash_factor(store.cluster_pool[at.cluster], cfg.cluster_capacity);
                if vector {
                    (cfg.cluster_mem * CLUSTER_VECTOR_DISCOUNT, thrash)
                } else {
                    (cfg.cluster_mem, thrash)
                }
            }
            Placement::Global | Placement::Partitioned => {
                let thrash = thrash_factor(store.global_pool, cfg.global_capacity);
                if vector {
                    stats.global_vector_elems += n;
                    let base = if cfg.prefetch && how == Access::VectorRead {
                        stats.prefetched_elems += n;
                        cfg.global_prefetch
                    } else {
                        cfg.global_vector
                    };
                    let contention = (at.active as f64 / cfg.global_streams).max(1.0);
                    (base * contention, thrash)
                } else {
                    // Scalar global accesses are latency-bound; the
                    // interleaved banks absorb their low request rate,
                    // so no contention multiplier applies.
                    stats.global_scalar_accesses += n;
                    (cfg.global_scalar, thrash)
                }
            }
        };
        let mut cost = per_elem * n as f64;
        if thrash > 0.0 {
            // Paging surcharge.
            stats.paged_accesses += thrash * n as f64;
            cost += thrash * cfg.page_fault_cost * n as f64;
        }
        if let Some(f) = at.faults.as_deref_mut().filter(|f| f.cfg.mem_jitter > 0.0) {
            // Legal perturbation: network/bank contention noise.
            cost *= 1.0 + f.cfg.mem_jitter * f.rng.unit_f64();
        }
        cost
    }

    /// Charge one elementwise node of a vector expression over `lanes`
    /// lanes: an operator or `iota`, or an intrinsic.
    #[inline]
    pub(crate) fn vector_node(
        &self,
        intrinsic: bool,
        lanes: usize,
        stats: &mut ExecStats,
        clock: &mut f64,
    ) {
        stats.vector_elems += lanes as u64;
        let cycles = self.cfg.vector_op * lanes as f64;
        *clock += if intrinsic { cycles * VECTOR_INTRINSIC_OPS } else { cycles };
    }

    /// Charge the combining of a `lanes`-lane reduction by execution
    /// mode. Evaluating the operands already charged one CE's vector
    /// streams, `operand_cycles` in all; the parallel modes divide that
    /// work across participants and add start-up and combining.
    pub(crate) fn reduction(
        &self,
        par: ParMode,
        dot: bool,
        lanes: usize,
        operand_cycles: f64,
        stats: &mut ExecStats,
        clock: &mut f64,
    ) {
        let cfg = &self.cfg;
        let n = lanes as f64;
        let flop_per_elem = if dot { DOT_FLOPS } else { 1.0 };
        match par {
            ParMode::Serial => {
                // Undo the vector-memory discount: serial gathers cost
                // scalar accesses and scalar flops.
                *clock += n * (cfg.scalar_op * flop_per_elem);
                *clock += operand_cycles; // scalar path ≈ 2× vector path
                stats.scalar_ops += lanes as u64;
            }
            ParMode::Vector => {
                *clock += cfg.vector_startup + n * cfg.vector_op * flop_per_elem;
                stats.vector_elems += lanes as u64;
            }
            ParMode::ClusterParallel | ParMode::CedarParallel => {
                let cluster = par == ParMode::ClusterParallel;
                let class = if cluster { LoopClass::CDoall } else { LoopClass::XDoall };
                let (participants, start, _) =
                    self.loop_shape(class).expect("CDOALL and XDOALL are parallel classes");
                let (p, startup) = (participants as f64, self.fixed(start));
                // Memory streams parallelize too: refund the serial
                // stream and charge the parallel one.
                *clock -= operand_cycles;
                *clock += operand_cycles / p * (p / cfg.global_streams).max(1.0);
                *clock += startup
                    + (n / p) * cfg.vector_op * flop_per_elem
                    + (cfg.clusters as f64).log2().ceil().max(1.0) * cfg.barrier;
                stats.vector_elems += lanes as u64;
                stats.parallel_loops += 1;
            }
        }
    }
}

/// One charge of a loop kernel's iteration, its placement resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Priced {
    Fixed(CostClass),
    Access(Placement, Access),
}

impl CostModel {
    /// Price one charge of a loop kernel's iteration, once: its clock
    /// addition and its addition to `paged_accesses` (0 for none); its
    /// counts go to `at.stats`, whose `paged_accesses` it overwrites.
    /// The charge is made through its entry point against a zero clock,
    /// so a price has the bits of the addition it stands for. Kernels
    /// run without a fault profile, so no jitter is drawn. `None` for a
    /// partitioned access that pages: it adds to `paged_accesses` twice.
    pub(crate) fn price(&self, charge: Priced, at: &mut Site) -> Option<(f64, f64)> {
        debug_assert!(at.faults.is_none(), "kernels run without a fault profile");
        at.stats.paged_accesses = 0.0;
        let mut clock = 0.0;
        match charge {
            Priced::Fixed(class) => self.charge(class, at.stats, &mut clock),
            Priced::Access(placement, how) => {
                clock = self.access(placement, 1, how, at);
                if placement == Placement::Partitioned && at.stats.paged_accesses > 0.0 {
                    return None;
                }
            }
        }
        Some((clock, at.stats.paged_accesses))
    }

    /// Add the counts of `per` (of one iteration, from
    /// [`CostModel::price`]) `times` over to `stats`: what the charges a
    /// kernel makes count, scalar ops and scalar accesses.
    pub(crate) fn count(per: &ExecStats, times: u64, stats: &mut ExecStats) {
        stats.scalar_ops += per.scalar_ops * times;
        stats.private_accesses += per.private_accesses * times;
        stats.cluster_accesses += per.cluster_accesses * times;
        stats.global_scalar_accesses += per.global_scalar_accesses * times;
    }
}

/// The prices of a loop kernel's iteration, summed, for adding `n`
/// iterations of them to a clock in one multiply-add where that is
/// exact (DESIGN.md §14, "Loop kernels").
///
/// Every price is finite and ≥ 0, `grain` is the lowest exponent `g`
/// such that each nonzero price is a multiple of `2^g`, and `sum` their
/// sum `S`. On a clock `T` whose lowest set bit is `2^b`, every partial
/// sum of the in-order additions of `n` iterations is a multiple of
/// `2^q`, `q = min(g, b)`, and at most `T + n·S`. Below `2^(53+q)` each
/// such multiple is representable, so each addition is exact and so are
/// `n·S` and `T + n·S`: one multiply-add has the bits of the additions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExactSum {
    sum: f64,
    grain: i32,
}

impl ExactSum {
    /// The sum of `prices`; `None` when one is negative, `-0.0`, or not
    /// finite.
    pub(crate) fn of(prices: &[f64]) -> Option<ExactSum> {
        let (mut sum, mut grain) = (0.0, i32::MAX);
        for &p in prices {
            if !(p.is_finite() && p.is_sign_positive()) {
                return None;
            }
            sum += p;
            grain = grain.min(lowest_bit(p));
        }
        Some(ExactSum { sum, grain })
    }

    /// The clock `t` after `n` iterations' prices are added to it one
    /// at a time and in order; `None` when `T + n·S` reaches `2^(53+q)`,
    /// or `t` is negative or not finite: the caller adds them so.
    pub(crate) fn after(self, t: f64, n: u64) -> Option<f64> {
        if n == 0 {
            return Some(t);
        }
        if !(t.is_finite() && t >= 0.0) {
            return None;
        }
        let q = self.grain.min(lowest_bit(t));
        let end = t + n as f64 * self.sum;
        (end < pow2(53_i32.saturating_add(q))).then_some(end)
    }
}

/// The exponent of the lowest set bit of a finite `x`: `x` is an odd
/// multiple of `2^e`. `i32::MAX` for zero.
fn lowest_bit(x: f64) -> i32 {
    let bits = x.to_bits();
    let (exp, frac) = (((bits >> 52) & 0x7ff) as i32, bits & ((1 << 52) - 1));
    match (exp, frac) {
        (0, 0) => i32::MAX,
        (0, _) => -1074 + frac.trailing_zeros() as i32,
        _ => exp - 1075 + (frac | 1 << 52).trailing_zeros() as i32,
    }
}

/// `2^k` for `k ≥ -1022`; infinity past the largest finite power.
fn pow2(k: i32) -> f64 {
    debug_assert!(k >= -1022, "a clock or a price below 2^-1074");
    match k {
        ..=1023 => f64::from_bits(((k + 1023) as u64) << 52),
        _ => f64::INFINITY,
    }
}

/// Thrashing probability of a pool: 0 while the working set fits,
/// then the probability an access misses physical memory,
/// `1 − capacity/allocated`.
fn thrash_factor(allocated: u64, capacity: u64) -> f64 {
    if allocated <= capacity || allocated == 0 {
        0.0
    } else {
        1.0 - capacity as f64 / allocated as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn table_entries_are_verbatim_config_bits() {
        let cfg = Machine::cedar_config1();
        let t = CostModel::build(cfg.clone());
        assert_eq!(t.fixed(CostClass::ScalarOp).to_bits(), cfg.scalar_op.to_bits());
        assert_eq!(t.fixed(CostClass::CacheHit).to_bits(), cfg.cache_hit.to_bits());
        assert_eq!(t.fixed(CostClass::Branch).to_bits(), cfg.scalar_op.to_bits());
        assert_eq!(t.fixed(CostClass::Io).to_bits(), cfg.io_cost.to_bits());
        assert_eq!(
            t.fixed(CostClass::LoopStep).to_bits(),
            (cfg.scalar_op * 2.0).to_bits(),
            "loop step must be the same product the interpreter computes"
        );
    }

    /// Add `n` iterations of `prices` to `t` one at a time, in order.
    fn in_order(prices: &[f64], mut t: f64, n: u64) -> f64 {
        for _ in 0..n {
            for &p in prices {
                t += p;
            }
        }
        t
    }

    #[test]
    fn exact_sums_have_the_bits_of_in_order_additions() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let (mut folded, mut refused) = (0, 0);
        for _ in 0..20_000 {
            // Dyadic prices at a few grains, some zero; a clock that
            // sometimes has a finer grain than the prices.
            let grain = next() % 12;
            let prices: Vec<f64> = (0..1 + next() % 12)
                .map(|_| (next() % 4096) as f64 / (1u64 << grain) as f64)
                .collect();
            let scale = [1.0, 1e9, 2f64.powi(40), 3.0 * 2f64.powi(48)][next() as usize % 4];
            let t = (next() % 1_000_000) as f64 / (1u64 << (next() % 20)) as f64 * scale;
            let n = next() % 5_000;
            let sum = ExactSum::of(&prices).expect("finite prices >= 0");
            match sum.after(t, n) {
                Some(end) => {
                    assert_eq!(
                        end.to_bits(),
                        in_order(&prices, t, n).to_bits(),
                        "{prices:?} {t} {n}"
                    );
                    folded += 1;
                }
                None => refused += 1,
            }
        }
        assert!(folded > 10_000 && refused > 100, "{folded} folded, {refused} refused");
    }

    #[test]
    fn exact_sums_are_refused_at_and_across_2_to_the_53() {
        let big = 2f64.powi(53);
        let sum = ExactSum::of(&[1.0]).unwrap();
        // 2^53 - 10 is even, the price odd: q = 0, the bound 2^53.
        assert_eq!(sum.after(big - 10.0, 9), Some(big - 1.0));
        assert_eq!(in_order(&[1.0], big - 10.0, 9), big - 1.0);
        assert_eq!(sum.after(big - 10.0, 10), None);
        // Past 2^53 each addition of 1 rounds back to 2^53.
        assert_eq!(sum.after(big - 10.0, 13), None);
        assert_eq!(in_order(&[1.0], big - 10.0, 13), big);
        assert_ne!(big - 10.0 + 13.0, big);
        // A price of 2 on an even clock may go on to 2^54.
        let two = ExactSum::of(&[2.0]).unwrap();
        assert_eq!(two.after(big, 4), Some(big + 8.0));
        assert_eq!(sum.after(big + 2.0, 1), None, "an odd price past 2^53");
        assert_eq!(ExactSum::of(&[0.5]).unwrap().after(2f64.powi(52) - 1.0, 2), None);
        // Nothing but zeros adds nothing.
        assert_eq!(ExactSum::of(&[0.0, 0.0]).unwrap().after(-0.0, 3).map(f64::to_bits), Some(0));
        assert_eq!(sum.after(-0.0, 0).map(f64::to_bits), Some((-0.0f64).to_bits()));
        for bad in [-1.0, -0.0, f64::NAN, f64::INFINITY] {
            assert!(ExactSum::of(&[1.0, bad]).is_none(), "{bad}");
        }
        assert_eq!(sum.after(f64::INFINITY, 1), None);
        assert_eq!(sum.after(-1.0, 1), None);
    }

    #[test]
    fn exact_sums_are_refused_for_a_contention_scaled_price() {
        // 0.75 × 3.2 has its lowest set bit at 2^-49: from a clock of
        // 2^4 on, the in-order additions may round.
        let prices = [2.0, 0.75 * 3.2];
        assert_eq!(lowest_bit(prices[1]), -49);
        let sum = ExactSum::of(&prices).unwrap();
        assert_eq!(sum.after(0.0, 3), Some(in_order(&prices, 0.0, 3)), "13.2 < 16");
        assert_eq!(sum.after(0.0, 4), None);
        assert_eq!(sum.after(1000.0, 1), None);
        assert_ne!(in_order(&prices, 1000.0, 100), 1000.0 + 100.0 * sum.sum);
    }

    #[test]
    fn thrash_factor_behaviour() {
        assert_eq!(thrash_factor(100, 200), 0.0);
        assert_eq!(thrash_factor(200, 200), 0.0);
        assert!((thrash_factor(400, 200) - 0.5).abs() < 1e-12);
        assert_eq!(thrash_factor(0, 0), 0.0);
    }

    /// One-screen programs that between them make every charge.
    const PROBES: [&str; 12] = [
        // scalar loop over cluster data; over global data
        "program p\nreal a(64)\ndo i = 1, 64\na(i) = a(i) + 1.0\nend do\nend\n",
        "program p\nreal g(64)\nglobal g\ndo i = 1, 64\ng(i) = g(i) + 1.0\nend do\nend\n",
        // vector statement on global data; gather
        "program p\nreal a(256), b(256)\nglobal a, b\nb(1:256) = 1.0\n\
         a(1:256) = b(1:256) * 2.0\nend\n",
        "program p\nreal a(8), b(8)\ninteger idx(8)\nglobal a\ndo i = 1, 8\nidx(i) = 9 - i\n\
         end do\nb(1:8) = a(idx(1:8))\nend\n",
        // CDOALL; SDOALL; XDOALL of global vector statements
        "program p\nreal a(64)\ncdoall i = 1, 64\na(i) = 1.0\nend cdoall\nend\n",
        "program p\nreal a(64)\nglobal a\nsdoall i = 1, 64\na(i) = 1.0\nend sdoall\nend\n",
        "program p\nreal a(256), b(256)\nglobal a, b\nb(1:256) = 1.0\nxdoall i = 1, 32\n\
         a(1:256) = b(1:256)\nend xdoall\nend\n",
        // cascade; critical section
        "program p\nreal a(17)\na(1) = 1.0\ncdoacross i = 2, 17\ncall await(1, 1)\n\
         a(i) = a(i-1) + 1.0\ncall advance(1)\nend cdoacross\nend\n",
        "program p\nreal t\nt = 0.0\ncdoall i = 1, 8\ncall lock(1)\nt = t + 1.0\n\
         call unlock(1)\nend cdoall\nend\n",
        // ctskstart, mtskstart, call; PRINT
        "program p\nreal x\ncall ctskstart(f, x)\ncall tskwait\ncall mtskstart(f, x)\n\
         call tskwait\ncall f(x)\nend\nsubroutine f(v)\nreal v\nv = 1.0\nend\n",
        "program p\nx = 1.0\nprint *, x\nend\n",
        // cluster and global pools both overflowing (scaled capacities)
        "program p\nreal a(65536), g(262144)\nglobal g\na(1) = 1.0\ng(1) = a(1)\nend\n",
    ];

    /// The `f64` cost fields by name. Every field of the machine is
    /// named here: a new one does not compile until it is sorted into
    /// the costs (and so scaled by the test below) or the rest.
    fn cost_fields(cfg: &mut Machine) -> Vec<(&'static str, &mut f64)> {
        macro_rules! named {
            ($($f:ident),*) => { vec![$((stringify!($f), $f)),*] };
        }
        let Machine {
            name: _,
            clusters: _,
            ces_per_cluster: _,
            cache_hit,
            cluster_mem,
            global_scalar,
            global_vector,
            global_prefetch,
            prefetch: _,
            scalar_op,
            vector_op,
            vector_startup,
            call_overhead,
            io_cost,
            cdo_start,
            cdo_dispatch,
            sdo_start,
            xdo_start,
            lib_dispatch,
            barrier,
            ctsk_start,
            mtsk_start,
            await_cost,
            advance_cost,
            lock_cost,
            global_streams,
            cluster_capacity: _,
            global_capacity: _,
            page_fault_cost,
        } = cfg;
        named!(
            cache_hit,
            cluster_mem,
            global_scalar,
            global_vector,
            global_prefetch,
            scalar_op,
            vector_op,
            vector_startup,
            call_overhead,
            io_cost,
            cdo_start,
            cdo_dispatch,
            sdo_start,
            xdo_start,
            lib_dispatch,
            barrier,
            ctsk_start,
            mtsk_start,
            await_cost,
            advance_cost,
            lock_cost,
            global_streams,
            page_fault_cost
        )
    }

    /// A parameter that moves no cycle cannot be calibrated (and
    /// `prefetch_block`, which nothing read, was once listed as one).
    #[test]
    fn every_cost_field_is_live() {
        let programs: Vec<_> =
            PROBES.iter().map(|src| cedar_ir::compile_free(src).unwrap()).collect();
        let cycles = |m: &Machine| -> Vec<u64> {
            let run = |p| crate::run(p, MachineConfig::on(m.clone())).unwrap().cycles().to_bits();
            programs.iter().map(run).collect()
        };
        let base = MachineConfig::cedar_config1_scaled().machine;
        let at_base = cycles(&base);
        let mut variants = vec![
            ("prefetch", Machine { prefetch: false, ..base.clone() }),
            ("cluster_capacity", base.clone()),
            ("global_capacity", base.clone()),
        ];
        variants[1].1.cluster_capacity = base.cluster_capacity * 3 / 2;
        variants[2].1.global_capacity = base.global_capacity * 3 / 2;
        for k in 0..cost_fields(&mut base.clone()).len() {
            let mut cfg = base.clone();
            let (name, field) = cost_fields(&mut cfg).swap_remove(k);
            *field *= 1.5;
            variants.push((name, cfg));
        }
        assert_eq!(variants.len(), 26);
        for (name, cfg) in &variants {
            assert_ne!(cycles(cfg), at_base, "`{name}` moves no cycle of any probe");
        }
    }
}
