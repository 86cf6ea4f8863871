//! The IR interpreter with the Cedar cycle-cost model.
//!
//! See the crate docs for the execution model. The interpreter computes
//! *real values* (so restructured programs can be checked for semantic
//! equivalence against their serial originals) while charging simulated
//! cycles for every operation, memory access, loop dispatch, and
//! synchronization event.

use crate::compile::CompiledProgram;
use crate::config::{Engine, MachineConfig};
use crate::cost::{Access, CostModel, Site};
use crate::fault::{FaultConfig, FaultState};
use crate::lanes::LanePool;
use crate::race::{RaceDetector, RaceInfo};
use crate::stats::ExecStats;
use crate::store::{Store, VarBind};
use cedar_ir::{Placement, Program, UnitKind, Value};
use cedar_par::CancelToken;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

pub use self::types::SectionCounts;
pub use crate::error::{SimError, SimErrorKind};

// The executor along its seams, and the bytecode dispatch loop: child
// modules, so that they reach the simulator's private state. What one
// needs of another is `pub(super)`.
mod frames;
#[path = "kernel.rs"]
mod kernel;
mod loops;
mod scalar;
mod stmt;
mod sync;
mod types;
mod vector;
#[path = "vm.rs"]
mod vm;

use self::sync::DoacrossState;

type Result<T> = std::result::Result<T, SimError>;

/// Shorthand for the default (bad-program) error class.
fn err<T>(span: cedar_ir::Span, msg: impl Into<String>) -> Result<T> {
    Err(SimError::new(SimErrorKind::BadProgram, span, msg))
}

/// Shorthand for a specific error class.
fn kerr<T>(kind: SimErrorKind, span: cedar_ir::Span, msg: impl Into<String>) -> Result<T> {
    Err(SimError::new(kind, span, msg))
}

/// One activation record: per-symbol bindings of the current unit,
/// plus what compiled code runs on (empty for tree-walked activations).
struct Frame {
    unit: usize,
    binds: Vec<Option<VarBind>>,
    vm: vm::VmState,
}

impl Frame {
    fn new(unit: usize, symbols: usize) -> Frame {
        Frame { unit, binds: vec![None; symbols], vm: vm::VmState::default() }
    }
}

/// Execution context: where and when we are.
#[derive(Clone, Copy)]
struct Ctx {
    /// Cluster of the executing CE.
    cluster: usize,
    /// Simulated time on the executing CE.
    time: f64,
    /// Number of CEs concurrently active in the enclosing parallel
    /// region (1 when serial) — drives global-memory contention.
    active: usize,
}

/// The simulator.
pub struct Simulator<'p> {
    /// The program being executed.
    pub program: &'p Program,
    /// Counters accumulated by the run.
    pub stats: ExecStats,
    /// Every cycle is charged through the cost model, and it alone holds
    /// the [`MachineConfig`]'s cost fields. The rest of the
    /// configuration follows: topology and run limits.
    costs: CostModel,
    clusters: usize,
    ces_per_cluster: usize,
    max_while_iters: u64,
    watchdog_ops: u64,
    cancel: Option<CancelToken>,
    store: Store,
    /// COMMON member bindings (block → member binds), shared by every
    /// unit that declares the block.
    commons: BTreeMap<String, Vec<VarBind>>,
    /// The main (or entry) frame, kept after the run for inspection.
    entry_frame: Option<Frame>,
    /// Critical-section release times.
    lock_release: BTreeMap<u32, f64>,
    /// Stack of active DOACROSS loops (innermost last).
    doacross: Vec<DoacrossState>,
    /// Completion times of outstanding subroutine-level tasks.
    task_ends: Vec<f64>,
    call_depth: usize,
    /// Seeded perturbation injector (None = unperturbed).
    faults: Option<FaultState>,
    /// Statements executed so far (watchdog budget).
    ops_executed: u64,
    /// Section elements worked on since the cancel token was last
    /// polled for them ([`Simulator::element_work`]).
    elements_since_poll: u64,
    /// Happens-before race detector (None unless
    /// [`MachineConfig::detect_races`] is set — the hot path pays one
    /// `Option` test per access when disabled, and no simulated cycles
    /// either way).
    races: Option<Box<RaceDetector>>,
    /// [`crate::compile::callee_index`] of the program.
    callees: HashMap<&'p str, usize>,
    /// [`MachineConfig::fast_paths`]: loop kernels and the progression
    /// indexer of sections.
    fast_paths: bool,
    /// Recycled lane and index buffers of vector statements.
    pool: LanePool,
    /// See [`Simulator::section_counts`].
    sections: SectionCounts,
    /// Bytecode artifact (Some iff [`MachineConfig::engine`] is
    /// [`Engine::Vm`]); `Arc`-shared so verify / fuzz / serve compile
    /// once and run many (seed, config) executions off it.
    compiled: Option<Arc<CompiledProgram>>,
    /// Register files and operand tables of returned activations, for
    /// the next ones to reuse.
    retired: Vec<vm::VmState>,
    /// Locals of exited loops by site (the address of the loop's locals
    /// list), for the site's next entry to reuse. Never iterated and no
    /// key removed, so what it allocates repeats exactly.
    site_locals: HashMap<usize, loops::SiteLocals>,
    /// Participant clocks of the parallel loops not running now.
    spare_clocks: Vec<Vec<f64>>,
    /// Tie-break salts of a randomized participant pick.
    salts: Vec<u64>,
    /// See [`Simulator::tree_walked_activations`].
    tree_walked: u64,
    /// See [`Simulator::kernel_iterations`].
    inline_iterations: u64,
    kernel_iterations: u64,
    /// Resolved-operand tables filled or changed so far: the next
    /// one's generation.
    tables_resolved: u64,
    /// The loop kernels planned last.
    plans: kernel::Plans,
}

impl<'p> Simulator<'p> {
    /// Build a simulator and allocate COMMON storage. When the config
    /// selects the VM engine, the program is compiled to bytecode here;
    /// use [`Simulator::with_artifact`] to reuse a compiled artifact
    /// across runs instead.
    pub fn new(program: &'p Program, config: MachineConfig) -> Result<Simulator<'p>> {
        let artifact = (config.engine == Engine::Vm)
            .then(|| Arc::new(crate::compile::compile_program(program)));
        Simulator::build(program, config, artifact)
    }

    /// As [`Simulator::new`] but reusing a pre-compiled artifact (from
    /// [`crate::compile`]) instead of compiling again. The artifact is
    /// ignored when the config selects the tree-walking engine, so one
    /// artifact can serve differential interp-vs-VM comparisons too.
    pub fn with_artifact(
        program: &'p Program,
        config: MachineConfig,
        artifact: Arc<CompiledProgram>,
    ) -> Result<Simulator<'p>> {
        let artifact = (config.engine == Engine::Vm).then_some(artifact);
        Simulator::build(program, config, artifact)
    }

    fn build(
        program: &'p Program,
        mut config: MachineConfig,
        compiled: Option<Arc<CompiledProgram>>,
    ) -> Result<Simulator<'p>> {
        let races = config.detect_races.then(|| Box::new(RaceDetector::new(true)));
        let mut store = Store::new(config.machine.clusters);
        if races.is_some() {
            store.charge_shadow();
        }
        let mut sim = Simulator {
            program,
            store,
            clusters: config.machine.clusters,
            ces_per_cluster: config.machine.ces_per_cluster,
            max_while_iters: config.max_while_iters,
            watchdog_ops: config.watchdog_ops,
            cancel: config.cancel.take(),
            costs: CostModel::build(config.machine),
            stats: ExecStats::default(),
            commons: BTreeMap::new(),
            entry_frame: None,
            lock_release: BTreeMap::new(),
            doacross: Vec::new(),
            task_ends: Vec::new(),
            call_depth: 0,
            faults: None,
            ops_executed: 0,
            elements_since_poll: 0,
            races,
            callees: crate::compile::callee_index(program),
            fast_paths: config.fast_paths,
            pool: LanePool::default(),
            sections: SectionCounts::default(),
            compiled,
            retired: Vec::new(),
            site_locals: HashMap::new(),
            spare_clocks: Vec::new(),
            salts: Vec::new(),
            tree_walked: 0,
            inline_iterations: 0,
            kernel_iterations: 0,
            tables_resolved: 0,
            plans: kernel::Plans::default(),
        };
        sim.allocate_commons()?;
        Ok(sim)
    }

    /// Enable seeded fault injection for the coming run. Call before
    /// [`Simulator::run_main`]; inactive profiles are ignored.
    pub fn set_faults(&mut self, cfg: FaultConfig) {
        self.faults = if cfg.is_active() { Some(FaultState::new(cfg)) } else { None };
    }

    /// Switch the race detector to **collect-all** mode: races are
    /// recorded (see [`Simulator::race_report`]) instead of aborting the
    /// run. Enables the detector if the config did not, charging the
    /// storage allocated so far for its shadow.
    pub fn collect_races(&mut self) {
        match self.races.as_mut() {
            Some(rd) => rd.fail_fast = false,
            None => {
                self.store.charge_shadow();
                self.races = Some(Box::new(RaceDetector::new(false)));
            }
        }
    }

    /// Races collected so far (empty when detection is disabled or in
    /// fail-fast mode; capped — see [`Simulator::races_detected`]).
    pub fn race_report(&self) -> &[RaceInfo] {
        self.races.as_ref().map_or(&[], |rd| rd.report())
    }

    /// Total number of races the detector observed (uncapped).
    pub fn races_detected(&self) -> u64 {
        self.races.as_ref().map_or(0, |rd| rd.total())
    }

    /// How many unit activations the VM engine handed to the
    /// tree-walker because a binding's storage type or rank disagreed
    /// with the unit's declaration (always 0 on the tree-walking
    /// engine). Not part of [`ExecStats`]: it differs between engines
    /// by design.
    pub fn tree_walked_activations(&self) -> u64 {
        self.tree_walked
    }

    /// Iterations of the sequential loops the VM runs inline
    /// ([`Instr::SeqLoop`](crate::compile::Instr::SeqLoop)), and how
    /// many of them ran as lanes in loop kernels, in that order
    /// (DESIGN.md §14, "Loop kernels"). Not part of [`ExecStats`]:
    /// kernels run only on the VM, with the fast paths and without a
    /// race detector or faults.
    pub fn kernel_iterations(&self) -> (u64, u64) {
        (self.inline_iterations, self.kernel_iterations)
    }

    /// How the run's vector sections were resolved to element indices
    /// (the same on both engines — vector statements have one
    /// implementation — but not under `without_fast_paths`, which is
    /// why this is not part of [`ExecStats`]).
    pub fn section_counts(&self) -> SectionCounts {
        self.sections
    }

    /// Total simulated cycles so far.
    pub fn cycles(&self) -> f64 {
        self.stats.cycles
    }

    /// Run the PROGRAM unit.
    pub fn run_main(&mut self) -> Result<()> {
        // Copy the `&'p Program` out of `self` so the body borrow is
        // independent of `&mut self` (no per-run body clone).
        let program = self.program;
        let idx =
            program.units.iter().position(|u| u.kind == UnitKind::Program).ok_or_else(|| {
                SimError::new(
                    SimErrorKind::BadProgram,
                    cedar_ir::Span::NONE,
                    "program has no PROGRAM unit",
                )
            })?;
        let mut ctx = Ctx { cluster: 0, time: 0.0, active: 1 };
        let mut frame = self.new_frame(idx, &mut ctx)?;
        self.seal_frame(&mut frame);
        self.exec_unit_body(&mut frame, idx, &mut ctx)?;
        self.stats.cycles = ctx.time;
        self.entry_frame = Some(frame);
        Ok(())
    }

    /// Read a named variable of the entry unit after a run; arrays are
    /// returned flattened (column-major), scalars as one element.
    pub fn read_var(&self, name: &str) -> Option<Vec<Value>> {
        let frame = self.entry_frame.as_ref()?;
        let unit = &self.program.units[frame.unit];
        let sym = unit.find_symbol(name)?;
        let bind = frame.binds[sym.index()].as_ref()?;
        let slot = self.resolve_slot(bind, 0);
        let data = self.store.slot(slot);
        let len = if bind.dims.is_empty() { 1 } else { bind.total_len() };
        let avail = data.len().saturating_sub(bind.offset);
        Some((bind.offset..bind.offset + len.min(avail)).map(|i| data.get(i)).collect())
    }

    /// As [`Simulator::read_var`] but coerced to f64.
    pub fn read_f64(&self, name: &str) -> Option<Vec<f64>> {
        self.read_var(name).map(|v| v.into_iter().map(|x| x.as_f64()).collect())
    }

    /// [`CostModel::access`] with this run's pools, counters and fault
    /// stream: the cycles of `n` element accesses to storage of
    /// `placement`, made where `ctx` is.
    #[inline(always)]
    fn access_cost(&mut self, placement: Placement, n: u64, how: Access, ctx: &Ctx) -> f64 {
        let (store, stats, faults) = (&self.store, &mut self.stats, self.faults.as_mut());
        let mut at = Site { cluster: ctx.cluster, active: ctx.active, store, stats, faults };
        self.costs.access(placement, n, how, &mut at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn run_src(src: &str) -> Simulator<'_> {
        // Leak the program so the simulator can borrow it in tests.
        let p = Box::leak(Box::new(compile_free(src).unwrap()));
        crate::run(p, MachineConfig::cedar_config1()).unwrap()
    }

    #[test]
    fn scalar_arithmetic_and_assignment() {
        let sim = run_src("program p\nreal x, y\nx = 3.0\ny = x * 2.0 + 1.0\nend\n");
        assert_eq!(sim.read_f64("y").unwrap(), vec![7.0]);
        assert!(sim.cycles() > 0.0);
    }

    #[test]
    fn do_loop_and_array() {
        let sim = run_src(
            "program p\nparameter (n = 10)\nreal a(n)\ndo i = 1, n\n\
             a(i) = i * 1.0\nend do\ns = 0.0\ndo i = 1, n\ns = s + a(i)\nend do\nend\n",
        );
        assert_eq!(sim.read_f64("s").unwrap(), vec![55.0]);
    }

    #[test]
    fn nested_loops_column_major() {
        let sim = run_src(
            "program p\nparameter (n = 3)\nreal a(n, n)\ndo j = 1, n\ndo i = 1, n\n\
             a(i, j) = i * 10.0 + j\nend do\nend do\nx = a(2, 3)\nend\n",
        );
        assert_eq!(sim.read_f64("x").unwrap(), vec![23.0]);
        let a = sim.read_f64("a").unwrap();
        // column-major: a(1,1), a(2,1), a(3,1), a(1,2)...
        assert_eq!(a[0], 11.0);
        assert_eq!(a[1], 21.0);
        assert_eq!(a[3], 12.0);
    }

    #[test]
    fn vector_assignment_and_sections() {
        let sim = run_src(
            "program p\nparameter (n = 8)\nreal a(n), b(n)\ndo i = 1, n\n\
             b(i) = i * 1.0\nend do\na(1:n) = b(1:n) * 2.0\nx = a(5)\n\
             a(1:4) = b(5:8)\ny = a(2)\nend\n",
        );
        assert_eq!(sim.read_f64("x").unwrap(), vec![10.0]);
        assert_eq!(sim.read_f64("y").unwrap(), vec![6.0]);
    }

    #[test]
    fn where_masked_assignment() {
        let sim = run_src(
            "program p\nparameter (n = 4)\nreal a(n)\na(1) = -1.0\na(2) = 4.0\n\
             a(3) = -9.0\na(4) = 16.0\nwhere (a(1:n) .gt. 0.0) a(1:n) = sqrt(a(1:n))\nend\n",
        );
        assert_eq!(sim.read_f64("a").unwrap(), vec![-1.0, 2.0, -9.0, 4.0]);
    }

    #[test]
    fn if_elseif_else() {
        let sim = run_src(
            "program p\nx = -3.0\nif (x .gt. 0.0) then\ns = 1.0\n\
             else if (x .lt. 0.0) then\ns = -1.0\nelse\ns = 0.0\nend if\nend\n",
        );
        assert_eq!(sim.read_f64("s").unwrap(), vec![-1.0]);
    }

    #[test]
    fn subroutine_call_by_reference() {
        let sim = run_src(
            "program p\nparameter (n = 5)\nreal x(n)\ndo i = 1, n\nx(i) = i * 1.0\nend do\n\
             call dbl(x, n)\ny = x(3)\nend\n\
             subroutine dbl(a, m)\nreal a(m)\ndo i = 1, m\na(i) = a(i) * 2.0\nend do\nend\n",
        );
        assert_eq!(sim.read_f64("y").unwrap(), vec![6.0]);
    }

    #[test]
    fn array_element_actual_aliases_slice() {
        // Pass a(1,2): callee sees column 2.
        let sim = run_src(
            "program p\nparameter (n = 3)\nreal a(n, n)\ndo j = 1, n\ndo i = 1, n\n\
             a(i, j) = j * 100.0 + i\nend do\nend do\ncall zap(a(1, 2), n)\n\
             x = a(2, 2)\ny = a(2, 1)\nend\n\
             subroutine zap(col, m)\nreal col(m)\ndo i = 1, m\ncol(i) = 0.0\nend do\nend\n",
        );
        assert_eq!(sim.read_f64("x").unwrap(), vec![0.0]);
        assert_eq!(sim.read_f64("y").unwrap(), vec![102.0]);
    }

    #[test]
    fn function_call_returns_value() {
        let sim = run_src(
            "program p\nx = f(3.0) + f(4.0)\nend\n\
             real function f(v)\nf = v * v\nend\n",
        );
        assert_eq!(sim.read_f64("x").unwrap(), vec![25.0]);
    }

    #[test]
    fn common_block_shared_across_units() {
        let sim = run_src(
            "program p\ncommon /blk/ w(4), total\ndo i = 1, 4\nw(i) = i * 1.0\nend do\n\
             call addup\nx = total\nend\n\
             subroutine addup\ncommon /blk/ v(4), t\nt = v(1) + v(2) + v(3) + v(4)\nend\n",
        );
        assert_eq!(sim.read_f64("x").unwrap(), vec![10.0]);
    }

    #[test]
    fn parallel_loop_gives_speedup_and_same_result() {
        let serial = run_src(
            "program p\nparameter (n = 512)\nreal a(n), b(n)\ndo i = 1, n\n\
             b(i) = i * 1.0\nend do\ndo i = 1, n\na(i) = sqrt(b(i)) + b(i)\nend do\n\
             s = a(100)\nend\n",
        );
        let par = run_src(
            "program p\nparameter (n = 512)\nreal a(n), b(n)\nglobal a, b\ndo i = 1, n\n\
             b(i) = i * 1.0\nend do\ncdoall i = 1, n\na(i) = sqrt(b(i)) + b(i)\nend cdoall\n\
             s = a(100)\nend\n",
        );
        assert_eq!(serial.read_f64("s").unwrap(), par.read_f64("s").unwrap());
        assert!(par.stats.parallel_loops >= 1);
    }

    #[test]
    fn doacross_cascade_preserves_order_and_stalls() {
        let sim = run_src(
            "program p\nparameter (n = 64)\nreal a(n), b(n)\ndo i = 1, n\n\
             a(i) = i * 1.0\nb(i) = 0.0\nend do\nb(1) = 1.0\n\
             cdoacross i = 2, n\ncall await(1, 1)\nb(i) = a(i) + b(i - 1)\n\
             call advance(1)\nend cdoacross\nx = b(n)\nend\n",
        );
        // b(n) = 1 + sum(2..n) = 1 + (n(n+1)/2 - 1)
        let n = 64.0_f64;
        assert_eq!(sim.read_f64("x").unwrap(), vec![n * (n + 1.0) / 2.0]);
        assert!(sim.stats.awaits > 0);
        assert!(sim.stats.await_stall_cycles > 0.0);
    }

    #[test]
    fn loop_local_privatization_semantics() {
        let sim = run_src(
            "program p\nparameter (n = 32)\nreal a(n), b(n)\nglobal a, b\n\
             do i = 1, n\nb(i) = i * 1.0\nend do\n\
             cdoall i = 1, n\nreal t\nt = b(i)\na(i) = t * t\nend cdoall\nx = a(7)\nend\n",
        );
        assert_eq!(sim.read_f64("x").unwrap(), vec![49.0]);
    }

    #[test]
    fn reduction_intrinsics() {
        let sim = run_src(
            "program p\nparameter (n = 10)\nreal a(n), b(n)\ndo i = 1, n\n\
             a(i) = 1.0\nb(i) = i * 1.0\nend do\n\
             s = sum(b(1:n))\nd = dotproduct(a(1:n), b(1:n))\n\
             x = maxval(b(1:n))\nend\n",
        );
        assert_eq!(sim.read_f64("s").unwrap(), vec![55.0]);
        assert_eq!(sim.read_f64("d").unwrap(), vec![55.0]);
        assert_eq!(sim.read_f64("x").unwrap(), vec![10.0]);
    }

    #[test]
    fn do_while_terminates() {
        let sim = run_src(
            "program p\nx = 100.0\nk = 0\ndo while (x .gt. 1.0)\nx = x / 2.0\n\
             k = k + 1\nend do\nend\n",
        );
        assert_eq!(sim.read_var("k").unwrap(), vec![Value::I(7)]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let p =
            compile_free("program p\nreal a(3)\ndo i = 1, 5\na(i) = 0.0\nend do\nend\n").unwrap();
        let e = crate::run(&p, MachineConfig::cedar_config1());
        assert!(e.is_err());
    }

    #[test]
    fn global_data_costs_more_than_cluster() {
        let src_cluster = "program p\nparameter (n = 1024)\nreal a(n), b(n)\n\
             do i = 1, n\nb(i) = 1.0\nend do\na(1:n) = b(1:n) * 2.0\nend\n";
        let src_global = "program p\nparameter (n = 1024)\nreal a(n), b(n)\nglobal a, b\n\
             do i = 1, n\nb(i) = 1.0\nend do\na(1:n) = b(1:n) * 2.0\nend\n";
        let c = run_src(src_cluster);
        let g = run_src(src_global);
        assert!(g.cycles() > c.cycles());
        assert!(g.stats.global_scalar_accesses + g.stats.global_vector_elems > 0);
    }

    #[test]
    fn prefetch_reduces_global_vector_cost() {
        let src = "program p\nparameter (n = 4096)\nreal a(n), b(n)\nglobal a, b\n\
             do i = 1, n\nb(i) = 1.0\nend do\na(1:n) = b(1:n) * 2.0\nend\n";
        let p = Box::leak(Box::new(compile_free(src).unwrap()));
        let with = crate::run(p, MachineConfig::cedar_config1()).unwrap();
        let without = crate::run(p, MachineConfig::cedar_config1().without_prefetch()).unwrap();
        assert!(without.cycles() > with.cycles());
        assert!(with.stats.prefetched_elems > 0);
        assert_eq!(without.stats.prefetched_elems, 0);
    }

    #[test]
    fn paging_surcharge_applies_when_pool_overflows() {
        let src = "program p\nparameter (n = 8192)\nreal a(n)\ndo i = 1, n\n\
             a(i) = 1.0\nend do\ns = a(1)\nend\n";
        let p = Box::leak(Box::new(compile_free(src).unwrap()));
        let big = crate::run(p, MachineConfig::cedar_config1()).unwrap();
        // Shrink cluster memory below the array footprint.
        let mut small_cfg = MachineConfig::cedar_config1();
        small_cfg.machine.cluster_capacity = 1024;
        let small = crate::run(p, small_cfg).unwrap();
        assert!(small.cycles() > big.cycles() * 2.0);
        assert!(small.stats.paged_accesses > 0.0);
        assert_eq!(big.stats.paged_accesses, 0.0);
    }

    #[test]
    fn critical_section_locks_serialize() {
        let sim = run_src(
            "program p\nparameter (n = 64)\nreal a(n)\nglobal a\ns = 0.0\n\
             do i = 1, n\na(i) = 1.0\nend do\n\
             cdoall i = 1, n\ncall lock(1)\ns = s + a(i)\ncall unlock(1)\nend cdoall\nend\n",
        );
        assert_eq!(sim.read_f64("s").unwrap(), vec![64.0]);
        assert!(sim.stats.lock_acquisitions == 64);
    }

    #[test]
    fn stop_halts_execution() {
        let sim = run_src("program p\nx = 1.0\nstop\nx = 2.0\nend\n");
        assert_eq!(sim.read_f64("x").unwrap(), vec![1.0]);
    }

    #[test]
    fn missing_advance_deadlocks_instead_of_hanging() {
        // An await whose matching advance was removed can never be
        // satisfied; the watchdog must report a bounded Deadlock error,
        // not stall the cascade forever.
        let p = compile_free(
            "program p\nparameter (n = 16)\nreal a(n), b(n)\ndo i = 1, n\n\
             a(i) = i * 1.0\nb(i) = 0.0\nend do\nb(1) = 1.0\n\
             cdoacross i = 2, n\ncall await(1, 1)\nb(i) = a(i) + b(i - 1)\n\
             end cdoacross\nx = b(n)\nend\n",
        )
        .unwrap();
        let err = match crate::run(&p, MachineConfig::cedar_config1()) {
            Err(e) => e,
            Ok(_) => panic!("run without advance should deadlock"),
        };
        assert_eq!(err.kind, SimErrorKind::Deadlock);
        assert!(err.is_deadlock());
        assert!(err.to_string().contains("await"), "{err}");
    }

    #[test]
    fn fault_injection_is_seed_deterministic() {
        let src = "program p\nparameter (n = 256)\nreal a(n), b(n)\nglobal a, b\n\
             do i = 1, n\nb(i) = i * 1.0\nend do\n\
             cdoall i = 1, n\na(i) = sqrt(b(i)) + b(i)\nend cdoall\nx = a(100)\nend\n";
        let p = Box::leak(Box::new(compile_free(src).unwrap()));
        let base = crate::run(p, MachineConfig::cedar_config1()).unwrap();
        let f1 = crate::run_with_faults(p, MachineConfig::cedar_config1(), FaultConfig::legal(9))
            .unwrap();
        let f2 = crate::run_with_faults(p, MachineConfig::cedar_config1(), FaultConfig::legal(9))
            .unwrap();
        // Same seed → identical schedule and cost; values match the
        // unperturbed run exactly (legal perturbations, no reductions).
        assert_eq!(f1.cycles(), f2.cycles());
        assert_ne!(f1.cycles(), base.cycles());
        assert_eq!(f1.read_f64("x"), base.read_f64("x"));
        assert_eq!(f1.read_f64("a"), base.read_f64("a"));
    }

    #[test]
    fn watchdog_statement_budget_trips() {
        let mut cfg = MachineConfig::cedar_config1();
        cfg.watchdog_ops = 100;
        let p =
            compile_free("program p\ns = 0.0\ndo i = 1, 1000\ns = s + 1.0\nend do\nend\n").unwrap();
        let err = match crate::run(&p, cfg) {
            Err(e) => e,
            Ok(_) => panic!("watchdog budget of 100 statements should trip"),
        };
        assert_eq!(err.kind, SimErrorKind::Limit);
    }
}
