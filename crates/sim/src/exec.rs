//! The IR interpreter with the Cedar cycle-cost model.
//!
//! See the crate docs for the execution model. The interpreter computes
//! *real values* (so restructured programs can be checked for semantic
//! equivalence against their serial originals) while charging simulated
//! cycles for every operation, memory access, loop dispatch, and
//! synchronization event.

use crate::compile::{CompiledProgram, CompiledUnit, VmLoop};
use crate::config::{Engine, MachineConfig};
use crate::cost::{CostClass, CostTable};
use crate::fault::{FaultConfig, FaultState};
use crate::lanes::{LanePool, Lanes};
use crate::prepass::Prepass;
use crate::race::{RaceDetector, RaceInfo};
use crate::stats::ExecStats;
use crate::store::{ArrayData, SlotId, StorageRef, Store, VarBind};
use crate::value_ops;
use cedar_ir::{
    BinOp, Expr, Index, Intrinsic, LValue, Loop, LoopClass, ParMode, Placement, Program, Stmt,
    SymKind, SymbolId, SyncOp, Ty, Unit, UnitKind, Value, Visibility,
};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use crate::error::{SimError, SimErrorKind};

// The bytecode dispatch loop lives in a child module so it can reach
// the interpreter's private seams (load/store, cost model, sync,
// invoke, the shared loop schedulers) without widening their
// visibility.
#[path = "vm.rs"]
mod vm;

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

/// Sync-point ids below this bound use the dense per-point table;
/// anything larger (hand-written adversarial sources) overflows to a
/// map so a wild id cannot force a giant allocation.
const DENSE_POINTS: usize = 64;

/// State of an executing DOACROSS loop: advance times per sync point
/// and per iteration. An `await` that finds no advance recorded in its
/// dependence window is a deadlock (see [`Simulator::exec_sync`]).
///
/// The per-point table is a dense `Vec` indexed by point id (the
/// restructurer numbers cascade points from zero), replacing a
/// `BTreeMap` lookup on every `await`/`advance` of every DOACROSS
/// iteration. An empty inner `Vec` means "no advance recorded yet",
/// exactly like a missing map key did.
struct DoacrossState {
    advance_times: Vec<Vec<Option<f64>>>,
    /// Rare ids ≥ [`DENSE_POINTS`].
    advance_overflow: BTreeMap<u32, Vec<Option<f64>>>,
    cur_iter: usize,
    trip: usize,
}

impl DoacrossState {
    fn new(trip: usize) -> DoacrossState {
        DoacrossState {
            advance_times: Vec::new(),
            advance_overflow: BTreeMap::new(),
            cur_iter: 0,
            trip,
        }
    }

    /// Recorded advance times for a point (None = never advanced).
    fn times(&self, point: u32) -> Option<&[Option<f64>]> {
        let v = if (point as usize) < DENSE_POINTS {
            self.advance_times.get(point as usize)?
        } else {
            self.advance_overflow.get(&point)?
        };
        if v.is_empty() {
            None
        } else {
            Some(v)
        }
    }

    /// Per-iteration slots for a point, allocating on first advance.
    fn times_mut(&mut self, point: u32) -> &mut Vec<Option<f64>> {
        let trip = self.trip;
        let v = if (point as usize) < DENSE_POINTS {
            let pi = point as usize;
            if self.advance_times.len() <= pi {
                self.advance_times.resize_with(pi + 1, Vec::new);
            }
            &mut self.advance_times[pi]
        } else {
            self.advance_overflow.entry(point).or_default()
        };
        if v.is_empty() {
            v.resize(trip, None);
        }
        v
    }
}

/// The simulator.
pub struct Simulator<'p> {
    /// The program being executed.
    pub program: &'p Program,
    /// The machine model.
    pub config: MachineConfig,
    /// Counters accumulated by the run.
    pub stats: ExecStats,
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
    /// Happens-before race detector (None unless
    /// [`MachineConfig::detect_races`] is set — the hot path pays one
    /// `Option` test per access when disabled, and no simulated cycles
    /// either way).
    races: Option<Box<RaceDetector>>,
    /// One-time derived data (callee index, constant-folded dims); see
    /// [`crate::prepass`].
    pre: Prepass,
    /// Recycled lane and index buffers of vector statements.
    pool: LanePool,
    /// See [`Simulator::section_counts`].
    sections: SectionCounts,
    /// Bytecode artifact (Some iff [`MachineConfig::engine`] is
    /// [`Engine::Vm`]); `Arc`-shared so verify / fuzz / serve compile
    /// once and run many (seed, config) executions off it.
    compiled: Option<Arc<CompiledProgram>>,
    /// Static per-instruction cycle charges (see [`crate::cost`]).
    costs: CostTable,
    /// Register files and operand tables of returned activations, for
    /// the next ones to reuse.
    retired: Vec<vm::VmState>,
    /// See [`Simulator::tree_walked_activations`].
    tree_walked: u64,
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
        config: MachineConfig,
        compiled: Option<Arc<CompiledProgram>>,
    ) -> Result<Simulator<'p>> {
        let races = config
            .detect_races
            .then(|| Box::new(RaceDetector::new(true)));
        let pre = Prepass::build(program, &config);
        let costs = CostTable::build(&config);
        let mut sim = Simulator {
            program,
            store: Store::new(config.clusters),
            config,
            stats: ExecStats::default(),
            commons: BTreeMap::new(),
            entry_frame: None,
            lock_release: BTreeMap::new(),
            doacross: Vec::new(),
            task_ends: Vec::new(),
            call_depth: 0,
            faults: None,
            ops_executed: 0,
            races,
            pre,
            pool: LanePool::default(),
            sections: SectionCounts::default(),
            compiled,
            costs,
            retired: Vec::new(),
            tree_walked: 0,
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
    /// run. Enables the detector if the config did not.
    pub fn collect_races(&mut self) {
        match self.races.as_mut() {
            Some(rd) => rd.fail_fast = false,
            None => self.races = Some(Box::new(RaceDetector::new(false))),
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
        let idx = program
            .units
            .iter()
            .position(|u| u.kind == UnitKind::Program)
            .ok_or_else(|| {
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
        Some(
            (bind.offset..bind.offset + len.min(avail))
                .map(|i| data.get(i))
                .collect(),
        )
    }

    /// As [`Simulator::read_var`] but coerced to f64.
    pub fn read_f64(&self, name: &str) -> Option<Vec<f64>> {
        self.read_var(name)
            .map(|v| v.into_iter().map(|x| x.as_f64()).collect())
    }

    // ================== frames & storage ==================

    fn allocate_commons(&mut self) -> Result<()> {
        // Take member shapes from the first unit that declares each block.
        let block_names: Vec<String> = self.program.commons.keys().cloned().collect();
        for bname in block_names {
            let vis = self.program.commons[&bname].visibility;
            // Find the first declaring unit and its member symbols.
            let mut members: Vec<(usize, &cedar_ir::Symbol, usize)> = Vec::new(); // (member, sym, unit idx)
            'outer: for (ui, u) in self.program.units.iter().enumerate() {
                let mut found: Vec<(usize, &cedar_ir::Symbol)> = u
                    .symbols
                    .iter()
                    .filter_map(|s| match &s.kind {
                        SymKind::Common { block, member } if *block == bname => {
                            Some((*member, s))
                        }
                        _ => None,
                    })
                    .collect();
                if !found.is_empty() {
                    found.sort_by_key(|(m, _)| *m);
                    members = found.into_iter().map(|(m, s)| (m, s, ui)).collect();
                    break 'outer;
                }
            }
            let mut binds = Vec::new();
            for (_, sym, ui) in members {
                // COMMON dims must be compile-time constant.
                let dims = self.const_dims(&self.program.units[ui], sym)?;
                let total: usize = dims.iter().map(|&(lo, hi)| (hi - lo + 1) as usize).product();
                let placement = match vis {
                    Visibility::Global => Placement::Global,
                    Visibility::Cluster => Placement::Cluster,
                };
                let sref = self.alloc_storage(sym.ty, total.max(1), placement, 0);
                let bind = VarBind { sref, offset: 0, dims, ty: sym.ty, placement };
                // DATA initializers.
                self.apply_init(&bind, &sym.init);
                self.note_bind_name(&sym.name, &bind);
                binds.push(bind);
            }
            self.commons.insert(bname, binds);
        }
        Ok(())
    }

    fn const_dims(&self, unit: &Unit, sym: &cedar_ir::Symbol) -> Result<Vec<(i64, i64)>> {
        let mut dims = Vec::new();
        for d in &sym.dims {
            let lo = const_eval_static(unit, &d.lower).ok_or_else(|| {
                SimError::new(
                    SimErrorKind::BadProgram,
                    sym.span,
                    format!("COMMON array `{}` has non-constant bounds", sym.name),
                )
            })?;
            let hi = match &d.upper {
                Some(e) => const_eval_static(unit, e).ok_or_else(|| {
                    SimError::new(
                        SimErrorKind::BadProgram,
                        sym.span,
                        format!("COMMON array `{}` has non-constant bounds", sym.name),
                    )
                })?,
                None => {
                    return err(sym.span, format!("COMMON array `{}` is assumed-size", sym.name))
                }
            };
            dims.push((lo, hi));
        }
        Ok(dims)
    }

    /// Release the pool bytes of a binding created by `alloc_storage`
    /// (used when loop locals and routine locals go out of scope, so the
    /// paging model sees live working sets, not allocation history).
    fn release_binding(&mut self, bind: &VarBind, home_cluster: usize) {
        let len = if bind.dims.is_empty() { 1 } else { bind.total_len().max(1) };
        let bytes = len as u64 * bind.ty.size_bytes();
        match (&bind.sref, bind.placement) {
            (StorageRef::One(_), Placement::Global | Placement::Partitioned) => {
                self.store.release_global(bytes);
            }
            (StorageRef::One(_), _) => {
                self.store.release_cluster(home_cluster, bytes);
            }
            (StorageRef::PerCluster(v), _) => {
                for c in 0..v.len() {
                    self.store.release_cluster(c, bytes);
                }
            }
            (StorageRef::PerParticipant(v), _) => {
                for _ in v {
                    self.store.release_cluster(home_cluster, bytes);
                }
            }
        }
    }

    /// Allocate storage of a placement class; `home_cluster` is used for
    /// Private allocations (they live in that cluster's pool).
    fn alloc_storage(
        &mut self,
        ty: Ty,
        len: usize,
        placement: Placement,
        home_cluster: usize,
    ) -> StorageRef {
        let bytes = len as u64 * ty.size_bytes();
        match placement {
            Placement::Global | Placement::Partitioned => {
                self.store.charge_global(bytes);
                StorageRef::One(self.store.alloc(ty, len))
            }
            Placement::Cluster | Placement::Default => {
                // One copy per cluster; each charged to its own pool.
                let slots = (0..self.config.clusters)
                    .map(|c| {
                        self.store.charge_cluster(c, bytes);
                        self.store.alloc(ty, len)
                    })
                    .collect();
                StorageRef::PerCluster(slots)
            }
            Placement::Private => {
                self.store.charge_cluster(home_cluster, bytes);
                StorageRef::One(self.store.alloc(ty, len))
            }
        }
    }

    fn apply_init(&mut self, bind: &VarBind, init: &[Value]) {
        if init.is_empty() {
            return;
        }
        let slots: Vec<SlotId> = match &bind.sref {
            StorageRef::One(s) => vec![*s],
            StorageRef::PerCluster(v) | StorageRef::PerParticipant(v) => v.clone(),
        };
        for slot in slots {
            let data = self.store.slot_mut(slot);
            for (i, v) in init.iter().enumerate() {
                if bind.offset + i < data.len() {
                    data.set(bind.offset + i, value_ops::coerce(*v, bind.ty));
                }
            }
        }
    }

    /// Build a frame for unit `idx`, allocating its local storage.
    /// Argument symbols are left unbound (the caller binds them).
    fn new_frame(&mut self, idx: usize, ctx: &mut Ctx) -> Result<Frame> {
        let unit = &self.program.units[idx];
        let mut frame = Frame::new(idx, unit.symbols.len());
        // Two passes: scalars first (so array dims referencing scalar
        // PARAMETERs / locals resolve), then arrays.
        for pass in 0..2 {
            for (si, sym) in unit.symbols.iter().enumerate() {
                if frame.binds[si].is_some() {
                    continue;
                }
                let is_array = sym.is_array();
                if (pass == 0 && is_array) || (pass == 1 && !is_array) {
                    continue;
                }
                match &sym.kind {
                    SymKind::Arg(_) => continue, // caller binds
                    SymKind::Param(v) => {
                        // Constants live in a tiny private slot.
                        let sref = self.alloc_storage(sym.ty, 1, Placement::Private, ctx.cluster);
                        let bind = VarBind {
                            sref,
                            offset: 0,
                            dims: vec![],
                            ty: sym.ty,
                            placement: Placement::Private,
                        };
                        self.apply_init(&bind, &[*v]);
                        frame.binds[si] = Some(bind);
                    }
                    SymKind::Common { block, member } => {
                        let b = self
                            .commons
                            .get(block)
                            .and_then(|v| v.get(*member))
                            .cloned()
                            .ok_or_else(|| {
                                SimError::new(
                                    SimErrorKind::Uninit,
                                    sym.span,
                                    format!("COMMON /{block}/ member {member} unbound"),
                                )
                            })?;
                        frame.binds[si] = Some(b);
                    }
                    SymKind::Local | SymKind::FuncResult | SymKind::LoopLocal => {
                        // Loop locals are bound lazily at loop entry; skip.
                        if matches!(sym.kind, SymKind::LoopLocal) {
                            continue;
                        }
                        let placement = match sym.placement {
                            Placement::Default => Placement::Cluster,
                            p => p,
                        };
                        let dims = match self.cached_dims(idx, si, ctx) {
                            Some(d) => d,
                            None => self.eval_dims(&frame, unit, si, ctx)?,
                        };
                        let total: usize =
                            dims.iter().map(|&(lo, hi)| ((hi - lo + 1).max(0)) as usize).product();
                        let sref =
                            self.alloc_storage(sym.ty, total.max(1), placement, ctx.cluster);
                        let bind = VarBind { sref, offset: 0, dims, ty: sym.ty, placement };
                        self.apply_init(&bind, &sym.init);
                        self.note_bind_name(&sym.name, &bind);
                        frame.binds[si] = Some(bind);
                    }
                }
            }
        }
        Ok(frame)
    }

    /// Evaluate the declared dims of symbol `si` in the frame.
    fn eval_dims(
        &mut self,
        frame: &Frame,
        unit: &Unit,
        si: usize,
        ctx: &mut Ctx,
    ) -> Result<Vec<(i64, i64)>> {
        let sym = &unit.symbols[si];
        let mut dims = Vec::with_capacity(sym.dims.len());
        for d in &sym.dims {
            let lo = self.eval_scalar(frame, &d.lower, ctx)?.as_i64();
            let hi = match &d.upper {
                Some(e) => self.eval_scalar(frame, e, ctx)?.as_i64(),
                None => {
                    return err(
                        sym.span,
                        format!("assumed-size array `{}` without caller binding", sym.name),
                    )
                }
            };
            dims.push((lo, hi));
        }
        Ok(dims)
    }

    /// Prepass fast path for [`Self::eval_dims`]: when the declared dims
    /// of `[unit_idx][si]` constant-folded, replay the recorded charge
    /// sequence (bit-identical to the slow walk; see `prepass`) and
    /// return the dims. `None` = take the slow path. Bypassed under race
    /// detection: the slow path's PARAMETER reads go through the
    /// detector's shadow memory and must not be skipped.
    fn cached_dims(&mut self, unit_idx: usize, si: usize, ctx: &mut Ctx) -> Option<Vec<(i64, i64)>> {
        if self.races.is_some() {
            return None;
        }
        let cd = self.pre.dims(unit_idx, si)?;
        for &c in &cd.charges {
            ctx.time += c;
        }
        let ops = cd.scalar_ops;
        let dims = cd.dims.clone();
        self.stats.scalar_ops += ops;
        Some(dims)
    }

    #[inline]
    fn resolve_slot(&self, bind: &VarBind, cluster: usize) -> SlotId {
        match &bind.sref {
            StorageRef::One(s) => *s,
            StorageRef::PerCluster(v) => v[cluster.min(v.len() - 1)],
            StorageRef::PerParticipant(v) => v[0], // rebound per participant
        }
    }

    /// Tell the race detector (when active) which source name a
    /// binding's slots carry, so race reports can cite the variable.
    fn note_bind_name(&mut self, name: &str, bind: &VarBind) {
        if let Some(rd) = self.races.as_mut() {
            match &bind.sref {
                StorageRef::One(s) => rd.note_slot_name(*s, name),
                StorageRef::PerCluster(v) | StorageRef::PerParticipant(v) => {
                    for s in v {
                        rd.note_slot_name(*s, name);
                    }
                }
            }
        }
    }

    // ================== cost model ==================

    /// Memory cost of `n` element accesses to storage of the given
    /// placement. `vector` selects the pipelined path; `read` matters
    /// for prefetch (reads only).
    fn mem_cost(&mut self, placement: Placement, n: u64, vector: bool, read: bool, ctx: &Ctx) -> f64 {
        self.mem_cost_inline(placement, n, vector, read, ctx)
    }

    /// [`Simulator::mem_cost`], to be specialized where it is inlined
    /// (the scalar access path knows `n` and `vector`).
    #[inline(always)]
    fn mem_cost_inline(
        &mut self,
        placement: Placement,
        n: u64,
        vector: bool,
        read: bool,
        ctx: &Ctx,
    ) -> f64 {
        let cfg = &self.config;
        let (per_elem, paged_pool) = match placement {
            Placement::Private => {
                self.stats.private_accesses += n;
                (cfg.cache_hit, None)
            }
            Placement::Cluster | Placement::Default => {
                self.stats.cluster_accesses += n;
                let base = if vector { cfg.cluster_mem * 0.5 } else { cfg.cluster_mem };
                (base, Some(ctx.cluster))
            }
            Placement::Global | Placement::Partitioned => {
                if vector {
                    self.stats.global_vector_elems += n;
                    let base = if cfg.prefetch && read {
                        self.stats.prefetched_elems += n;
                        cfg.global_prefetch
                    } else {
                        cfg.global_vector
                    };
                    let contention = (ctx.active as f64 / cfg.global_streams).max(1.0);
                    (base * contention, None)
                } else {
                    // Scalar global accesses are latency-bound; the
                    // interleaved banks absorb their low request rate, so
                    // no contention multiplier applies.
                    self.stats.global_scalar_accesses += n;
                    (cfg.global_scalar, None)
                }
            }
        };
        // Paging surcharge.
        let thrash = match paged_pool {
            Some(c) => Store::thrash_factor(self.store.cluster_pool[c], cfg.cluster_capacity),
            None if matches!(placement, Placement::Global | Placement::Partitioned) => {
                Store::thrash_factor(self.store.global_pool, cfg.global_capacity)
            }
            None => 0.0,
        };
        let mut cost = per_elem * n as f64;
        if thrash > 0.0 {
            self.stats.paged_accesses += thrash * n as f64;
            cost += thrash * self.config.page_fault_cost * n as f64;
        }
        if let Some(f) = self.faults.as_mut() {
            if f.cfg.mem_jitter > 0.0 {
                // Legal perturbation: network/bank contention noise.
                cost *= 1.0 + f.cfg.mem_jitter * f.rng.unit_f64();
            }
        }
        cost
    }

    /// Cost of one scalar element access to storage of the given
    /// placement. Partitioned placement models the paper's §4.2.3
    /// measurement directly: "this variant has 50% of its data
    /// references localized to the cluster memory" — half of each
    /// access streams from the owning cluster's memory, half still
    /// crosses the global interconnect.
    #[inline]
    fn scalar_access_cost(&mut self, placement: Placement, read: bool, ctx: &Ctx) -> f64 {
        if placement == Placement::Partitioned {
            let local = self.mem_cost(Placement::Cluster, 1, false, read, ctx);
            let remote = self.mem_cost(Placement::Global, 1, false, read, ctx);
            return 0.5 * (local + remote);
        }
        self.mem_cost_inline(placement, 1, false, read, ctx)
    }

    // ================== scalar evaluation ==================

    #[inline]
    fn bind_of<'f>(&self, frame: &'f Frame, sym: SymbolId) -> Result<&'f VarBind> {
        match &frame.binds[sym.index()] {
            Some(bind) => Ok(bind),
            None => Err(self.unbound_error(frame, sym)),
        }
    }

    #[cold]
    fn unbound_error(&self, frame: &Frame, sym: SymbolId) -> SimError {
        SimError::new(
            SimErrorKind::Uninit,
            cedar_ir::Span::NONE,
            format!(
                "variable `{}` used before binding",
                self.program.units[frame.unit].symbol(sym).name
            ),
        )
    }

    /// Checked element read through a resolved slot. Every element read
    /// of the interpreter (scalar, indexed, section lane) funnels
    /// through here, so this is where the race detector observes reads.
    #[inline]
    fn load(&mut self, slot: SlotId, lin: usize) -> Result<Value> {
        let v = self.load_raw(slot, lin)?;
        self.note_read(slot, lin)?;
        Ok(v)
    }

    /// Show the race detector (when live) one element read.
    #[inline]
    fn note_read(&mut self, slot: SlotId, lin: usize) -> Result<()> {
        if let Some(rd) = self.races.as_mut() {
            if let Some(race) = rd.record_read(slot, lin) {
                if let Some(e) = rd.flag(race) {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Show the race detector (when live) one element write.
    fn note_write(&mut self, slot: SlotId, lin: usize) -> Result<()> {
        if let Some(rd) = self.races.as_mut() {
            if let Some(race) = rd.record_write(slot, lin) {
                if let Some(e) = rd.flag(race) {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The error of an element access outside its slot.
    #[cold]
    fn storage_error(&self, slot: SlotId, lin: usize) -> SimError {
        SimError::new(
            SimErrorKind::OutOfBounds,
            cedar_ir::Span::NONE,
            format!(
                "linear index {lin} outside storage of {} element(s)",
                self.store.slot(slot).len()
            ),
        )
    }

    /// [`Simulator::load`] without the race hook — for vector gather
    /// loops whose reads the detector observes through a bulk recorder
    /// instead.
    #[inline]
    fn load_raw(&mut self, slot: SlotId, lin: usize) -> Result<Value> {
        match self.store.slot(slot).try_get(lin) {
            Some(v) => Ok(v),
            None => Err(self.storage_error(slot, lin)),
        }
    }

    /// Checked element write through a resolved slot (the write-side
    /// counterpart of [`Simulator::load`] for race detection).
    fn store_at(&mut self, slot: SlotId, lin: usize, v: Value, ty: Ty) -> Result<()> {
        self.store_at_raw(slot, lin, v, ty)?;
        self.note_write(slot, lin)
    }

    /// [`Simulator::store_at`] without the race hook — for vector
    /// scatter loops whose writes the detector observes through a bulk
    /// recorder instead.
    fn store_at_raw(&mut self, slot: SlotId, lin: usize, v: Value, ty: Ty) -> Result<()> {
        if self.store.slot_mut(slot).try_set(lin, value_ops::coerce(v, ty)) {
            Ok(())
        } else {
            Err(self.storage_error(slot, lin))
        }
    }

    /// [`Simulator::eval_scalar`] read through `as_i64`, for section
    /// bounds: constants and plain variables (nearly all of them) are
    /// handled here, without entering the recursive evaluator, and an
    /// INTEGER cell is read as what it is, unboxed.
    #[inline]
    fn eval_i64(&mut self, frame: &Frame, e: &Expr, ctx: &mut Ctx) -> Result<i64> {
        Ok(match e {
            Expr::ConstI(v) => *v,
            Expr::Scalar(s) => {
                let bind = self.bind_of(frame, *s)?;
                ctx.time += self.config.cache_hit;
                let (slot, at) = (self.resolve_slot(bind, ctx.cluster), bind.offset);
                match self.store.slot(slot) {
                    ArrayData::I(v) if at < v.len() => {
                        let x = v[at];
                        self.note_read(slot, at)?;
                        x
                    }
                    _ => self.load(slot, at)?.as_i64(),
                }
            }
            _ => self.eval_scalar(frame, e, ctx)?.as_i64(),
        })
    }

    fn eval_scalar(&mut self, frame: &Frame, e: &Expr, ctx: &mut Ctx) -> Result<Value> {
        match e {
            Expr::ConstI(v) => Ok(Value::I(*v)),
            Expr::ConstR { value, .. } => Ok(Value::R(*value)),
            Expr::ConstB(b) => Ok(Value::B(*b)),
            Expr::Scalar(s) => {
                let bind = self.bind_of(frame, *s)?;
                // Scalars are register/cache resident.
                ctx.time += self.config.cache_hit;
                let slot = self.resolve_slot(bind, ctx.cluster);
                let offset = bind.offset;
                self.load(slot, offset)
            }
            Expr::Elem { arr, idx } => {
                let mut subs = Subs::new();
                for ie in idx {
                    subs.push(self.eval_scalar(frame, ie, ctx)?.as_i64())?;
                    self.stats.scalar_ops += 1;
                    ctx.time += self.config.scalar_op; // address arithmetic
                }
                let bind = self.bind_of(frame, *arr)?;
                let lin = self.linearize(frame, *arr, bind, subs.as_slice())?;
                ctx.time += self.scalar_access_cost(bind.placement, true, ctx);
                let slot = self.resolve_slot(bind, ctx.cluster);
                self.load(slot, lin)
            }
            Expr::Un(op, inner) => {
                let v = self.eval_scalar(frame, inner, ctx)?;
                self.stats.scalar_ops += 1;
                ctx.time += self.config.scalar_op;
                Ok(value_ops::un(*op, v))
            }
            Expr::Bin(op, l, r) => {
                let lv = self.eval_scalar(frame, l, ctx)?;
                let rv = self.eval_scalar(frame, r, ctx)?;
                self.stats.scalar_ops += 1;
                ctx.time += self.config.scalar_op;
                value_ops::bin(*op, lv, rv)
                    .map_err(|e| SimError::from_op(e, cedar_ir::Span::NONE))
            }
            Expr::Intr { f, args, par } => self.eval_intrinsic(frame, *f, args, *par, ctx),
            Expr::Call { unit, args } => self.eval_call(frame, unit, args, ctx),
            Expr::Section { .. } => kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                "vector section in scalar context (internal error)",
            ),
        }
    }

    fn linearize(
        &self,
        frame: &Frame,
        arr: SymbolId,
        bind: &VarBind,
        subs: &[i64],
    ) -> Result<usize> {
        let unit = &self.program.units[frame.unit];
        if subs.len() != bind.dims.len() {
            return kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                format!(
                    "`{}`: rank mismatch ({} subscripts, rank {})",
                    unit.symbol(arr).name,
                    subs.len(),
                    bind.dims.len()
                ),
            );
        }
        bind.linearize(subs, false).ok_or_else(|| {
            SimError::new(
                SimErrorKind::OutOfBounds,
                cedar_ir::Span::NONE,
                format!(
                    "subscript out of bounds: `{}`({:?}) with dims {:?}",
                    unit.symbol(arr).name,
                    subs,
                    bind.dims
                ),
            )
        })
    }

    // ================== vector evaluation ==================

    /// Evaluate the subscripts of a section into `sec` (fresh from
    /// [`Section::new`]): a descriptor per dimension — a fixed
    /// subscript, a range, or a gather vector — and the lane count.
    fn section_lanes(
        &mut self,
        frame: &Frame,
        arr: SymbolId,
        idx: &[Index],
        ctx: &mut Ctx,
        sec: &mut Section,
    ) -> Result<()> {
        let bind = self.bind_of(frame, arr)?;
        for (k, i) in idx.iter().enumerate() {
            let (dlo, dhi) = *bind.dims.get(k).ok_or_else(|| {
                SimError::new(
                    SimErrorKind::TypeError,
                    cedar_ir::Span::NONE,
                    "section rank mismatch",
                )
            })?;
            match i {
                // (A constant or a variable is not; skip the tree walk.)
                Index::At(e)
                    if !matches!(e, Expr::Scalar(_) | Expr::ConstI(_)) && e.is_vector_valued() =>
                {
                    // Vector-valued subscript: hardware gather. Lane
                    // count comes from the subscript vector itself.
                    let n = self.infer_lanes(frame, e, ctx)?.ok_or_else(|| {
                        SimError::new(
                            SimErrorKind::TypeError,
                            cedar_ir::Span::NONE,
                            "gather subscript has no vector length",
                        )
                    })?;
                    let vals = self.eval_vec(frame, e, n, ctx)?;
                    sec.push(SectionDim::Gather(sec.gathers.len()));
                    sec.gathers.push(self.pool.ints(vals));
                    sec.lanes = sec.lanes.max(n);
                }
                Index::At(e) => {
                    let v = self.eval_i64(frame, e, ctx)?;
                    sec.push(SectionDim::Fixed(v));
                }
                Index::Range { lo, hi, step } => {
                    let lo = match lo {
                        Some(e) => self.eval_i64(frame, e, ctx)?,
                        None => dlo,
                    };
                    let hi = match hi {
                        Some(e) => self.eval_i64(frame, e, ctx)?,
                        None => dhi,
                    };
                    let step = match step {
                        Some(e) => self.eval_i64(frame, e, ctx)?,
                        None => 1,
                    };
                    if step == 0 {
                        return err(cedar_ir::Span::NONE, "section stride of zero");
                    }
                    let len = ((hi - lo + step) / step).max(0) as usize;
                    // Multiple range dims form a cartesian product in
                    // column-major order; checked_mul bounds the total.
                    sec.lanes = sec.lanes.checked_mul(len).ok_or_else(|| {
                        SimError::new(
                            SimErrorKind::Limit,
                            cedar_ir::Span::NONE,
                            "section too large",
                        )
                    })?;
                    sec.push(SectionDim::RangeLen { lo, step, len });
                }
            }
        }
        Ok(())
    }

    /// Return a section's gather vectors to the pool.
    #[inline]
    fn release_section(&mut self, sec: &mut Section) {
        for v in sec.gathers.drain(..) {
            self.pool.put_i(v);
        }
    }

    /// Resolve the lanes of a section to linear indices, column-major.
    ///
    /// Exactly one range dimension and no gather (`a(lo:hi)`,
    /// `rs(1:n, i)`, `a(i, lo:hi:2)` …) makes the lanes an arithmetic
    /// progression: bounds-checking the two end lanes covers every
    /// interior lane (the varying subscript is monotonic between them),
    /// and the section is carried as `(first, stride, len)` — no index
    /// per lane is ever written down. Everything else (several ranges,
    /// gathers, an out-of-bounds end lane, `without_fast_paths`) takes
    /// the odometer walk, which checks each lane and raises the error
    /// naming its subscripts.
    fn section_index(&mut self, bind: &VarBind, sec: &Section) -> Result<LaneIdx> {
        if sec.rank > MAX_SECTION_RANK {
            return kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                "array rank exceeds the Fortran 77 limit of 7",
            );
        }
        let (dims, lanes) = (&sec.dims[..sec.rank], sec.lanes);
        if lanes == 0 {
            return Ok(LaneIdx::Prog {
                first: 0,
                stride: 0,
                len: 0,
            });
        }
        let mut range: Option<(usize, i64, i64, usize)> = None;
        let only_fixed_otherwise = dims.iter().enumerate().all(|(k, d)| match d {
            SectionDim::Fixed(_) => true,
            SectionDim::RangeLen { lo, step, len } if range.is_none() => {
                range = Some((k, *lo, *step, *len));
                true
            }
            _ => false,
        });
        let single = range.filter(|_| only_fixed_otherwise);
        if let (true, Some((k, lo, step, len))) = (self.pre.enabled, single) {
            debug_assert_eq!(len, lanes);
            let mut subs = [0i64; MAX_SECTION_RANK];
            for (j, d) in dims.iter().enumerate() {
                subs[j] = match d {
                    SectionDim::Fixed(v) => *v,
                    SectionDim::RangeLen { lo, .. } => *lo,
                    SectionDim::Gather(_) => unreachable!("excluded above"),
                };
            }
            let last = lo + (len as i64 - 1) * step;
            if let Some((first, dim_stride)) = bind.linearize_ends(&subs[..dims.len()], k, last) {
                let stride = if len > 1 {
                    (step * dim_stride) as isize
                } else {
                    0
                };
                self.sections.progressions += 1;
                return Ok(LaneIdx::Prog { first, stride, len });
            }
            // An end lane is out of bounds: fall through to the general
            // walk, which raises the usual error.
        }
        // Odometer over range dims (column-major: leftmost fastest).
        let mut out = self.pool.lin(lanes);
        let mut counters = [0usize; MAX_SECTION_RANK];
        let counters = &mut counters[..dims.len()];
        let mut subs = Subs::new();
        for lane in 0..lanes {
            subs.clear();
            for (d, &c) in dims.iter().zip(counters.iter()) {
                match d {
                    SectionDim::Fixed(v) => subs.push(*v)?,
                    SectionDim::RangeLen { lo, step, .. } => {
                        subs.push(lo + (c as i64) * step)?
                    }
                    SectionDim::Gather(g) => {
                        let vals = &sec.gathers[*g];
                        subs.push(vals.get(lane).or_else(|| vals.last()).copied().unwrap_or(0))?
                    }
                }
            }
            let lin = bind.linearize(subs.as_slice(), false).ok_or_else(|| {
                SimError::new(
                    SimErrorKind::OutOfBounds,
                    cedar_ir::Span::NONE,
                    format!(
                        "section lane out of bounds: {:?} dims {:?}",
                        subs.as_slice(),
                        bind.dims
                    ),
                )
            })?;
            out.push(lin);
            // increment odometer (leftmost range dim fastest)
            for (k, d) in dims.iter().enumerate() {
                let lim = match d {
                    SectionDim::RangeLen { len, .. } => *len,
                    // A gather is advanced by the lane counter.
                    _ => 1,
                };
                if lim <= 1 {
                    continue;
                }
                counters[k] += 1;
                if counters[k] < lim {
                    break;
                }
                counters[k] = 0;
            }
        }
        match single {
            Some(_) => self.sections.single_range_lists += 1,
            None => self.sections.other_lists += 1,
        }
        Ok(LaneIdx::List(out))
    }

    /// Return a resolved section's index list, if it has one, to the pool.
    fn release_index(&mut self, at: LaneIdx) {
        if let LaneIdx::List(l) = at {
            self.pool.put_lin(l);
        }
    }

    /// Load the lanes of a resolved section from `slot`: one slice copy
    /// for a contiguous run, else element by element (which is also the
    /// path that names an element outside the slot). The detector, when
    /// live, observes the same per-element reads in lane order.
    fn load_section(&mut self, slot: SlotId, at: &LaneIdx) -> Result<Lanes> {
        let data = self.store.slot(slot);
        let bulk = at
            .run()
            .and_then(|(first, n)| data.load_run(first, n, &mut self.pool));
        let out = match bulk {
            Some(out) => out,
            None => each_index!(at, lins => data.load_at(lins, &mut self.pool))
                .map_err(|lin| self.storage_error(slot, lin))?,
        };
        if let Some(rd) = self.races.as_mut() {
            let races = each_index!(at, lins => rd.record_reads(slot, at.upper(), lins));
            flag_all(rd, races)?;
        }
        Ok(out)
    }

    /// Evaluate an expression as `lanes` lanes of one class. Sections
    /// load; scalars broadcast (evaluated once).
    fn eval_vec(&mut self, frame: &Frame, e: &Expr, lanes: usize, ctx: &mut Ctx) -> Result<Lanes> {
        let op_err = |e| SimError::from_op(e, cedar_ir::Span::NONE);
        match e {
            Expr::Section { arr, idx } => {
                let mut sec = Section::new();
                self.section_lanes(frame, *arr, idx, ctx, &mut sec)?;
                if sec.lanes != lanes {
                    return kerr(
                        SimErrorKind::TypeError,
                        cedar_ir::Span::NONE,
                        format!("vector length mismatch: {} vs {lanes}", sec.lanes),
                    );
                }
                let bind = self.bind_of(frame, *arr)?;
                let at = self.section_index(bind, &sec)?;
                // Cost: one vector stream. Gathers cannot use the
                // sequential prefetch unit.
                ctx.time += self.config.vector_startup / 4.0; // per-operand share
                let saved_prefetch = self.config.prefetch;
                if !sec.gathers.is_empty() {
                    self.config.prefetch = false;
                }
                let placement = bind.placement;
                let slot = self.resolve_slot(bind, ctx.cluster);
                let cost = if placement == Placement::Partitioned {
                    let local = self.mem_cost(Placement::Cluster, lanes as u64, true, true, ctx);
                    let remote = self.mem_cost(Placement::Global, lanes as u64, true, true, ctx);
                    0.5 * (local + remote)
                } else {
                    self.mem_cost(placement, lanes as u64, true, true, ctx)
                };
                self.config.prefetch = saved_prefetch;
                ctx.time += cost;
                let out = self.load_section(slot, &at)?;
                self.release_index(at);
                self.release_section(&mut sec);
                Ok(out)
            }
            Expr::Un(op, inner) => {
                let v = self.eval_vec(frame, inner, lanes, ctx)?;
                self.stats.vector_elems += lanes as u64;
                ctx.time += self.config.vector_op * lanes as f64;
                Ok(self.pool.un(*op, v))
            }
            Expr::Bin(op, l, r) => {
                let lv = self.eval_vec(frame, l, lanes, ctx)?;
                let rv = self.eval_vec(frame, r, lanes, ctx)?;
                self.stats.vector_elems += lanes as u64;
                ctx.time += self.config.vector_op * lanes as f64;
                self.pool.bin(*op, lv, rv).map_err(op_err)
            }
            Expr::Intr { f: Intrinsic::Iota, args, .. } => {
                let first = args.first().ok_or_else(|| {
                    SimError::new(
                        SimErrorKind::TypeError,
                        cedar_ir::Span::NONE,
                        "iota needs (lo, hi)",
                    )
                })?;
                let lo = self.eval_scalar(frame, first, ctx)?.as_i64();
                ctx.time += self.config.vector_op * lanes as f64;
                self.stats.vector_elems += lanes as u64;
                Ok(self.pool.iota(lo, lanes))
            }
            // A reduction inside a vector expression produces a
            // broadcast scalar.
            Expr::Intr { f, args, par } if f.is_reduction() => {
                let v = self.eval_intrinsic(frame, *f, args, *par, ctx)?;
                Ok(self.pool.splat(v, lanes))
            }
            Expr::Intr { f, args, .. } => {
                let mut cols = self.pool.cols(args.len());
                for a in args {
                    cols.push(self.eval_vec(frame, a, lanes, ctx)?);
                }
                self.stats.vector_elems += lanes as u64;
                ctx.time += self.config.vector_op * lanes as f64 * 2.0; // intrinsics cost more
                let out = self.pool.intrinsic(*f, &mut cols, lanes).map_err(op_err)?;
                self.pool.put_cols(cols);
                Ok(out)
            }
            // Scalar subexpression: evaluate once, broadcast.
            other => {
                let v = self.eval_scalar(frame, other, ctx)?;
                Ok(self.pool.splat(v, lanes))
            }
        }
    }

    /// Count lanes of the first section found in an expression.
    fn infer_lanes(&mut self, frame: &Frame, e: &Expr, ctx: &mut Ctx) -> Result<Option<usize>> {
        match e {
            Expr::Intr { f: Intrinsic::Iota, args, .. } => {
                let lo = self.eval_scalar(frame, &args[0], ctx)?.as_i64();
                let hi = self.eval_scalar(frame, &args[1], ctx)?.as_i64();
                Ok(Some(usize::try_from((hi - lo + 1).max(0)).unwrap_or(0)))
            }
            Expr::Section { arr, idx } => {
                let mut sec = Section::new();
                self.section_lanes(frame, *arr, idx, ctx, &mut sec)?;
                self.release_section(&mut sec);
                Ok(Some(sec.lanes))
            }
            Expr::Un(_, inner) => self.infer_lanes(frame, inner, ctx),
            Expr::Bin(_, l, r) => {
                if let Some(n) = self.infer_lanes(frame, l, ctx)? {
                    Ok(Some(n))
                } else {
                    self.infer_lanes(frame, r, ctx)
                }
            }
            Expr::Intr { f, args, .. } if !f.is_reduction() => {
                for a in args {
                    if let Some(n) = self.infer_lanes(frame, a, ctx)? {
                        return Ok(Some(n));
                    }
                }
                Ok(None)
            }
            _ => Ok(None),
        }
    }

    // ================== intrinsics & calls ==================

    fn eval_intrinsic(
        &mut self,
        frame: &Frame,
        f: Intrinsic,
        args: &[Expr],
        par: ParMode,
        ctx: &mut Ctx,
    ) -> Result<Value> {
        if f.is_reduction() {
            return self.eval_reduction(frame, f, args, par, ctx);
        }
        if f == Intrinsic::Iota {
            return kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                "iota used in scalar context",
            );
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval_scalar(frame, a, ctx)?);
        }
        self.stats.scalar_ops += 2;
        ctx.time += self.config.scalar_op * 2.0;
        value_ops::intrinsic(f, &vals).map_err(|e| SimError::from_op(e, cedar_ir::Span::NONE))
    }

    /// Vector reduction intrinsics (`SUM`, `DOTPRODUCT`, ...) with the
    /// §3.3 two-level parallel library scheme when `par` says so.
    fn eval_reduction(
        &mut self,
        frame: &Frame,
        f: Intrinsic,
        args: &[Expr],
        par: ParMode,
        ctx: &mut Ctx,
    ) -> Result<Value> {
        // Evaluate operand vectors WITHOUT charging serial gather costs:
        // we charge an explicit cost model by mode below. To keep the
        // implementation simple we still evaluate via eval_vec (which
        // charges vector-mode memory costs) and then adjust mode costs.
        let lanes = match args.first() {
            Some(a) => self.infer_lanes(frame, a, ctx)?.ok_or_else(|| {
                SimError::new(
                    SimErrorKind::TypeError,
                    cedar_ir::Span::NONE,
                    format!("{}: argument is not a vector", f.name()),
                )
            })?,
            None => {
                return kerr(
                    SimErrorKind::TypeError,
                    cedar_ir::Span::NONE,
                    "reduction without arguments",
                )
            }
        };
        // Only the first two operands enter a value; any other is
        // evaluated for its charges.
        let (mut first, mut second) = (None, None);
        let mem_t0 = ctx.time;
        for (k, a) in args.iter().enumerate() {
            let col = self.eval_vec(frame, a, lanes, ctx)?;
            match k {
                0 => first = Some(col),
                1 => second = Some(col),
                _ => self.pool.put(col),
            }
        }
        let mem_cost = ctx.time - mem_t0;

        // Value: the lanes read through `as_f64`, folded in lane order.
        let a = self
            .pool
            .reals(first.expect("a reduction has a first operand"));
        let value = match f {
            Intrinsic::Sum => Value::R(a.iter().copied().sum()),
            Intrinsic::Product => Value::R(a.iter().copied().product()),
            Intrinsic::DotProduct => {
                let Some(b) = second.take().filter(|_| args.len() == 2) else {
                    return kerr(
                        SimErrorKind::TypeError,
                        cedar_ir::Span::NONE,
                        "dotproduct needs two vectors",
                    );
                };
                let b = self.pool.reals(b);
                let dot = a.iter().zip(&b).map(|(a, b)| a * b).sum();
                self.pool.put(Lanes::R(b));
                Value::R(dot)
            }
            Intrinsic::MaxVal => Value::R(a.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            Intrinsic::MinVal => Value::R(a.iter().copied().fold(f64::INFINITY, f64::min)),
            Intrinsic::MaxLoc | Intrinsic::MinLoc => {
                let mut best = 0usize;
                for (i, &v) in a.iter().enumerate() {
                    let better = if f == Intrinsic::MaxLoc {
                        v > a[best]
                    } else {
                        v < a[best]
                    };
                    if better {
                        best = i;
                    }
                }
                Value::I(best as i64 + 1)
            }
            other => {
                return kerr(
                    SimErrorKind::TypeError,
                    cedar_ir::Span::NONE,
                    format!("{} is not a reduction", other.name()),
                )
            }
        };
        self.pool.put(Lanes::R(a));
        if let Some(b) = second {
            self.pool.put(b);
        }

        // Cost by execution mode. eval_vec already charged one CE's
        // vector-stream memory cost (mem_cost); parallel modes divide
        // that work across participants and add startup + combining.
        let n = lanes as f64;
        let flop_per_elem = if f == Intrinsic::DotProduct { 2.0 } else { 1.0 };
        let cfg = &self.config;
        match par {
            ParMode::Serial => {
                // Undo the vector-memory discount: serial gathers cost
                // scalar accesses and scalar flops.
                ctx.time += n * (cfg.scalar_op * flop_per_elem);
                ctx.time += mem_cost; // scalar path ≈ 2× vector path
                self.stats.scalar_ops += lanes as u64;
            }
            ParMode::Vector => {
                ctx.time += cfg.vector_startup + n * cfg.vector_op * flop_per_elem;
                self.stats.vector_elems += lanes as u64;
            }
            ParMode::ClusterParallel | ParMode::CedarParallel => {
                let p = if par == ParMode::ClusterParallel {
                    cfg.ces_per_cluster as f64
                } else {
                    cfg.total_ces() as f64
                };
                let startup = if par == ParMode::ClusterParallel {
                    cfg.cdo_start
                } else {
                    cfg.xdo_start
                };
                // Memory streams parallelize too: refund the serial
                // stream and charge the parallel one.
                ctx.time -= mem_cost;
                ctx.time += mem_cost / p * (p / cfg.global_streams).max(1.0);
                ctx.time += startup
                    + (n / p) * cfg.vector_op * flop_per_elem
                    + (cfg.clusters as f64).log2().ceil().max(1.0) * cfg.barrier;
                self.stats.vector_elems += lanes as u64;
                self.stats.parallel_loops += 1;
            }
        }
        Ok(value)
    }

    /// Resolve a callee name to its unit index via the prepass table
    /// (first definition wins, matching the former linear scan).
    fn unit_index(&self, callee: &str) -> Option<usize> {
        self.pre.unit_index.get(callee).copied()
    }

    fn eval_call(
        &mut self,
        frame: &Frame,
        callee: &str,
        args: &[Expr],
        ctx: &mut Ctx,
    ) -> Result<Value> {
        let ridx = self.unit_index(callee).ok_or_else(|| {
            SimError::new(
                SimErrorKind::BadProgram,
                cedar_ir::Span::NONE,
                format!("call to unknown function `{callee}`"),
            )
        })?;
        let flow_result = self.invoke(frame, ridx, args, ctx)?;
        flow_result.ok_or_else(|| {
            SimError::new(
                SimErrorKind::Uninit,
                cedar_ir::Span::NONE,
                format!("function `{callee}` returned no value"),
            )
        })
    }

    /// Invoke unit `ridx` with actual arguments; returns the function
    /// result value if the unit is a FUNCTION.
    fn invoke(
        &mut self,
        caller: &Frame,
        ridx: usize,
        args: &[Expr],
        ctx: &mut Ctx,
    ) -> Result<Option<Value>> {
        self.call_depth += 1;
        if self.call_depth > 200 {
            self.call_depth -= 1;
            return kerr(
                SimErrorKind::Limit,
                cedar_ir::Span::NONE,
                "call depth exceeded (recursion?)",
            );
        }
        self.stats.calls += 1;
        ctx.time += self.config.call_overhead;

        // `&'p` borrow independent of `&mut self` (see run_main).
        let callee_unit = &{ self.program }.units[ridx];
        let mut frame = Frame::new(ridx, callee_unit.symbols.len());

        // Pass 1: bind arguments (aliases or value temps).
        if args.len() != callee_unit.args.len() {
            self.call_depth -= 1;
            return kerr(
                SimErrorKind::TypeError,
                callee_unit.span,
                format!(
                    "`{}` called with {} args, expects {}",
                    callee_unit.name,
                    args.len(),
                    callee_unit.args.len()
                ),
            );
        }
        for (pos, actual) in args.iter().enumerate() {
            let dummy = callee_unit.args[pos];
            let bind = self.bind_actual(caller, actual, ctx)?;
            frame.binds[dummy.index()] = Some(bind);
        }

        // Pass 2: allocate locals (needs args for adjustable dims), then
        // fix up dummy array dims as declared by the callee.
        let local_frame = {
            // Allocate non-arg symbols via new_frame-like logic but into
            // the existing frame.
            let mut f2 = self.new_frame_into(frame, ctx)?;
            // Adjustable dummy dims: reshape each bound arg to the
            // callee's declared dims.
            for (pos, _) in args.iter().enumerate() {
                let dummy = callee_unit.args[pos];
                let sym = callee_unit.symbol(dummy);
                if sym.is_array() {
                    let declared = self.eval_dummy_dims(&f2, ridx, dummy, ctx)?;
                    if let Some(b) = f2.binds[dummy.index()].as_mut() {
                        b.dims = declared;
                        b.ty = sym.ty;
                    }
                } else if let Some(b) = f2.binds[dummy.index()].as_mut() {
                    b.dims = Vec::new();
                    b.ty = sym.ty;
                }
            }
            f2
        };
        let mut frame = local_frame;

        self.seal_frame(&mut frame);
        self.exec_unit_body(&mut frame, ridx, ctx)?;

        let result = match callee_unit.result {
            Some(r) => {
                let bind = self.bind_of(&frame, r)?;
                let slot = self.resolve_slot(bind, ctx.cluster);
                let offset = bind.offset;
                Some(self.load(slot, offset)?)
            }
            None => None,
        };
        // Locals go out of scope: release their pool accounting so the
        // paging model tracks the live working set. Argument aliases and
        // COMMON bindings are the caller's / program's storage.
        for (si, sym) in callee_unit.symbols.iter().enumerate() {
            if matches!(
                sym.kind,
                SymKind::Local | SymKind::FuncResult | SymKind::Param(_)
            ) {
                if let Some(b) = frame.binds[si].take() {
                    self.release_binding(&b, ctx.cluster);
                }
            }
        }
        self.retire_frame(&mut frame);
        self.call_depth -= 1;
        Ok(result)
    }

    /// Allocate local storage for every unbound non-arg symbol of the
    /// frame's unit (args are already bound).
    fn new_frame_into(&mut self, mut frame: Frame, ctx: &mut Ctx) -> Result<Frame> {
        let idx = frame.unit;
        let fresh = self.new_frame(idx, ctx)?;
        for (i, b) in fresh.binds.into_iter().enumerate() {
            if frame.binds[i].is_none() {
                frame.binds[i] = b;
            }
        }
        Ok(frame)
    }

    /// Declared dims of a dummy argument, evaluated in the callee frame;
    /// assumed-size last dimension resolves against the actual length.
    fn eval_dummy_dims(
        &mut self,
        frame: &Frame,
        ridx: usize,
        dummy: SymbolId,
        ctx: &mut Ctx,
    ) -> Result<Vec<(i64, i64)>> {
        // Fully-constant declared dims (never assumed-size: the fold
        // requires every upper bound) replay from the prepass cache.
        if let Some(d) = self.cached_dims(ridx, dummy.index(), ctx) {
            return Ok(d);
        }
        let unit = &{ self.program }.units[ridx];
        let sym = unit.symbol(dummy);
        let mut dims = Vec::with_capacity(sym.dims.len());
        let bind = self.bind_of(frame, dummy)?;
        for (k, d) in sym.dims.iter().enumerate() {
            let lo = self.eval_scalar(frame, &d.lower, ctx)?.as_i64();
            let hi = match &d.upper {
                Some(e) => self.eval_scalar(frame, e, ctx)?.as_i64(),
                None => {
                    // Assumed size: fill from the actual's remaining
                    // length.
                    debug_assert_eq!(k + 1, sym.dims.len());
                    let slot = self.resolve_slot(bind, ctx.cluster);
                    let total = self.store.slot(slot).len().saturating_sub(bind.offset);
                    let lead: usize = dims
                        .iter()
                        .map(|&(l, h): &(i64, i64)| ((h - l + 1).max(0)) as usize)
                        .product();
                    let rem = total.checked_div(lead).unwrap_or(0);
                    lo + rem as i64 - 1
                }
            };
            dims.push((lo, hi));
        }
        Ok(dims)
    }

    /// Bind one actual argument: produce an aliasing VarBind (or a value
    /// temp for expression actuals).
    fn bind_actual(&mut self, caller: &Frame, actual: &Expr, ctx: &mut Ctx) -> Result<VarBind> {
        match actual {
            Expr::Scalar(s) => Ok(self.bind_of(caller, *s)?.clone()),
            Expr::Section { arr, idx } => {
                // Whole-array pass (full section) or sub-section starting
                // point; we alias from the section's first element.
                let mut sec = Section::new();
                self.section_lanes(caller, *arr, idx, ctx, &mut sec)?;
                let subs: Vec<i64> = sec.dims[..sec.rank.min(MAX_SECTION_RANK)]
                    .iter()
                    .chain(&sec.spill)
                    .map(|d| match d {
                        SectionDim::Fixed(v) => *v,
                        SectionDim::RangeLen { lo, .. } => *lo,
                        SectionDim::Gather(g) => sec.gathers[*g].first().copied().unwrap_or(1),
                    })
                    .collect();
                self.release_section(&mut sec);
                let bind = self.bind_of(caller, *arr)?;
                let lin = bind.linearize(&subs, false).unwrap_or(bind.offset);
                let mut nb = bind.clone();
                nb.offset = lin;
                Ok(nb)
            }
            Expr::Elem { arr, idx } => {
                let mut subs = Subs::new();
                for e in idx {
                    subs.push(self.eval_scalar(caller, e, ctx)?.as_i64())?;
                }
                let bind = self.bind_of(caller, *arr)?;
                let lin = self.linearize(caller, *arr, bind, subs.as_slice())?;
                let mut nb = bind.clone();
                nb.offset = lin;
                Ok(nb)
            }
            other => {
                // Expression actual: by-value temp.
                let v = self.eval_scalar(caller, other, ctx)?;
                let ty = v.ty();
                let sref = self.alloc_storage(ty, 1, Placement::Private, ctx.cluster);
                let bind = VarBind { sref, offset: 0, dims: vec![], ty, placement: Placement::Private };
                self.apply_init(&bind, &[v]);
                Ok(bind)
            }
        }
    }

    // ================== statement execution ==================

    fn exec_block(&mut self, frame: &mut Frame, body: &[Stmt], ctx: &mut Ctx) -> Result<Flow> {
        for s in body {
            match self.exec_stmt(frame, s, ctx)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Per-statement prologue shared verbatim by both engines: count
    /// the watchdog budget, poll the cancel token, and report the
    /// statement span to the race detector. The VM runs this once per
    /// [`Instr::Gate`](crate::compile::Instr::Gate), so `ops_executed`
    /// (and every watchdog/cancel error) stays bit-identical across
    /// engines.
    ///
    /// Watchdog: a global statement budget bounds every run, so even
    /// adversarial inputs terminate with a structured error instead of
    /// wedging the harness. The wall-clock companion polls the
    /// supervisor's cancel token every 1024 statements (and on the very
    /// first, so a pre-expired token aborts before any work). One
    /// `Instant::now()` per window keeps the host cost invisible; the
    /// abort is cooperative, so no simulator state tears.
    #[inline]
    fn statement_gate(&mut self, span: cedar_ir::Span) -> Result<()> {
        self.ops_executed += 1;
        if self.ops_executed > self.config.watchdog_ops || self.ops_executed & 0x3FF == 1 {
            self.watchdog(span)?;
        }
        if let Some(rd) = self.races.as_mut() {
            // Accesses report the statement they ran under.
            rd.set_span(span);
        }
        Ok(())
    }

    /// The rare part of [`Simulator::statement_gate`]: the budget is
    /// spent, or a 1024-statement window opens.
    #[cold]
    fn watchdog(&mut self, span: cedar_ir::Span) -> Result<()> {
        if self.ops_executed > self.config.watchdog_ops {
            return kerr(
                SimErrorKind::Limit,
                span,
                format!("watchdog: statement budget of {} exceeded", self.config.watchdog_ops),
            );
        }
        if self.ops_executed & 0x3FF == 1 {
            if let Some(token) = &self.config.cancel {
                if token.expired() {
                    return kerr(
                        SimErrorKind::Timeout,
                        span,
                        match token.budget() {
                            Some(b) => format!(
                                "watchdog: wall-clock budget of {:.3}s exceeded \
                                 after {} statements",
                                b.as_secs_f64(),
                                self.ops_executed
                            ),
                            None => format!(
                                "watchdog: run cancelled by supervisor after {} statements",
                                self.ops_executed
                            ),
                        },
                    );
                }
            }
        }
        Ok(())
    }

    fn exec_stmt(&mut self, frame: &mut Frame, s: &Stmt, ctx: &mut Ctx) -> Result<Flow> {
        self.statement_gate(s.span())?;
        match s {
            Stmt::Assign { lhs, rhs, span } => {
                self.exec_assign(frame, lhs, rhs, None, ctx)
                    .map_err(|e| with_span(e, *span))?;
                Ok(Flow::Normal)
            }
            Stmt::WhereAssign { mask, lhs, rhs, span } => {
                self.exec_assign(frame, lhs, rhs, Some(mask), ctx)
                    .map_err(|e| with_span(e, *span))?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_body, elifs, else_body, span } => {
                let c = self
                    .eval_scalar(frame, cond, ctx)
                    .map_err(|e| with_span(e, *span))?;
                ctx.time += self.config.scalar_op; // branch
                if c.as_bool() {
                    return self.exec_block(frame, then_body, ctx);
                }
                for (ec, eb) in elifs {
                    let v = self
                        .eval_scalar(frame, ec, ctx)
                        .map_err(|e| with_span(e, *span))?;
                    if v.as_bool() {
                        return self.exec_block(frame, eb, ctx);
                    }
                }
                self.exec_block(frame, else_body, ctx)
            }
            Stmt::Loop(l) => self.exec_loop(frame, l, ctx),
            Stmt::DoWhile { cond, body, span } => {
                let mut iters = 0u64;
                loop {
                    let c = self
                        .eval_scalar(frame, cond, ctx)
                        .map_err(|e| with_span(e, *span))?;
                    if !c.as_bool() {
                        return Ok(Flow::Normal);
                    }
                    match self.exec_block(frame, body, ctx)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                    iters += 1;
                    if iters > self.config.max_while_iters {
                        return kerr(
                            SimErrorKind::Limit,
                            *span,
                            "DO WHILE exceeded iteration bound",
                        );
                    }
                }
            }
            Stmt::Call { callee, args, span } => {
                if cedar_ir::is_timer_call(callee) {
                    match callee.as_str() {
                        "tstart" => self.stats.region_open = Some(ctx.time),
                        _ => {
                            if let Some(t0) = self.stats.region_open.take() {
                                self.stats.region_cycles += ctx.time - t0;
                            }
                        }
                    }
                    return Ok(Flow::Normal);
                }
                let ridx = self.unit_index(callee).ok_or_else(|| {
                    SimError::new(
                        SimErrorKind::BadProgram,
                        *span,
                        format!("CALL to unknown subroutine `{callee}`"),
                    )
                })?;
                self.invoke(frame, ridx, args, ctx)
                    .map_err(|e| with_span(e, *span))?;
                Ok(Flow::Normal)
            }
            Stmt::TaskStart { callee, args, lib, span } => {
                self.exec_task_start(frame, callee, args, *lib, ctx)
                    .map_err(|e| with_span(e, *span))?;
                Ok(Flow::Normal)
            }
            Stmt::TaskWait { .. } => {
                // Join every outstanding task.
                for t in self.task_ends.drain(..) {
                    if t > ctx.time {
                        ctx.time = t;
                    }
                }
                if let Some(rd) = self.races.as_mut() {
                    // The join orders every task before what follows.
                    if rd.in_task_group() {
                        rd.pop_region();
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Sync(op) => {
                self.exec_sync(frame, op, ctx)?;
                Ok(Flow::Normal)
            }
            Stmt::Return => Ok(Flow::Return),
            Stmt::Stop => Ok(Flow::Stop),
            Stmt::Io { .. } => {
                self.stats.io_statements += 1;
                ctx.time += self.config.io_cost;
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_assign(
        &mut self,
        frame: &mut Frame,
        lhs: &LValue,
        rhs: &Expr,
        mask: Option<&Expr>,
        ctx: &mut Ctx,
    ) -> Result<()> {
        match lhs {
            LValue::Scalar(sv) => {
                let v = self.eval_scalar(frame, rhs, ctx)?;
                let bind = self.bind_of(frame, *sv)?;
                ctx.time += self.config.cache_hit;
                let slot = self.resolve_slot(bind, ctx.cluster);
                let (offset, ty) = (bind.offset, bind.ty);
                self.store_at(slot, offset, v, ty)
            }
            LValue::Elem { arr, idx } => {
                let mut subs = Subs::new();
                for e in idx {
                    subs.push(self.eval_scalar(frame, e, ctx)?.as_i64())?;
                    ctx.time += self.config.scalar_op;
                    self.stats.scalar_ops += 1;
                }
                let v = self.eval_scalar(frame, rhs, ctx)?;
                let bind = self.bind_of(frame, *arr)?;
                let lin = self.linearize(frame, *arr, bind, subs.as_slice())?;
                ctx.time += self.scalar_access_cost(bind.placement, false, ctx);
                let slot = self.resolve_slot(bind, ctx.cluster);
                let ty = bind.ty;
                self.store_at(slot, lin, v, ty)
            }
            LValue::Section { arr, idx } => {
                let mut sec = Section::new();
                self.section_lanes(frame, *arr, idx, ctx, &mut sec)?;
                let lanes = sec.lanes;
                let bind = self.bind_of(frame, *arr)?;
                let at = self.section_index(bind, &sec)?;
                self.release_section(&mut sec);
                let (placement, ty) = (bind.placement, bind.ty);
                let vals = self.eval_vec(frame, rhs, lanes, ctx)?;
                let mvals = match mask {
                    Some(m) => Some(self.eval_vec(frame, m, lanes, ctx)?),
                    None => None,
                };
                // Store stream cost.
                ctx.time += self.config.vector_startup;
                if placement == Placement::Partitioned {
                    let local = self.mem_cost(Placement::Cluster, lanes as u64, true, false, ctx);
                    let remote = self.mem_cost(Placement::Global, lanes as u64, true, false, ctx);
                    ctx.time += 0.5 * (local + remote);
                } else {
                    ctx.time += self.mem_cost(placement, lanes as u64, true, false, ctx);
                }
                let bind = self.bind_of(frame, *arr)?;
                let slot = self.resolve_slot(bind, ctx.cluster);
                match &mvals {
                    // Unmasked: one coercing slice write for a
                    // contiguous run, else element by element (which
                    // also names an element outside the slot); the
                    // detector (when live) observes the same
                    // per-element writes in lane order.
                    None => {
                        let data = self.store.slot_mut(slot);
                        let bulk = at
                            .run()
                            .is_some_and(|(first, _)| data.store_run(first, &vals, ty));
                        if !bulk {
                            each_index!(&at, lins => data.store_at(lins, &vals, ty))
                                .map_err(|lin| self.storage_error(slot, lin))?;
                        }
                        if let Some(rd) = self.races.as_mut() {
                            let races =
                                each_index!(&at, lins => rd.record_writes(slot, at.upper(), lins));
                            flag_all(rd, races)?;
                        }
                    }
                    // Masked stores skip elements, so each one goes
                    // through the checked scalar path.
                    Some(m) => {
                        for k in 0..lanes {
                            if m.get(k).as_bool() {
                                self.store_at(slot, at.get(k), vals.get(k), ty)?;
                            }
                        }
                    }
                }
                self.release_index(at);
                self.pool.put(vals);
                if let Some(m) = mvals {
                    self.pool.put(m);
                }
                Ok(())
            }
        }
    }

    /// §2.2.2 subroutine-level tasking: run the thread's body on a
    /// forked virtual clock; the starter only pays the dispatch cost.
    /// The `mtskstart` path enforces the paper's deadlock rule: "
    /// synchronization instructions are not allowed in threads started
    /// with mtskstart".
    fn exec_task_start(
        &mut self,
        frame: &Frame,
        callee: &str,
        args: &[Expr],
        lib: bool,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let ridx = self.unit_index(callee).ok_or_else(|| {
            SimError::new(
                SimErrorKind::BadProgram,
                cedar_ir::Span::NONE,
                format!("task start of unknown subroutine `{callee}`"),
            )
        })?;
        if lib {
            let mut has_sync = false;
            cedar_ir::visit::walk_stmts(&self.program.units[ridx].body, &mut |st| {
                if matches!(st, Stmt::Sync(_)) {
                    has_sync = true;
                }
            });
            if has_sync {
                return kerr(
                    SimErrorKind::Unsupported,
                    self.program.units[ridx].span,
                    format!(
                        "synchronization instructions are not allowed in threads \
                         started with mtskstart (`{callee}` would deadlock)"
                    ),
                );
            }
        }
        self.stats.tasks_started += 1;
        let startup = if lib { self.config.mtsk_start } else { self.config.ctsk_start };
        // Race detection: tasks spawned before the next TaskWait are
        // concurrent with each other and with the spawner's
        // continuation. A task-group region models them as logical
        // threads: the spawner is thread 0, task n is thread n.
        let task_no = self.stats.tasks_started as u32;
        if let Some(rd) = self.races.as_mut() {
            if !rd.in_task_group() {
                rd.push_region(false, true);
            }
            rd.switch_task_thread(task_no, 0);
        }
        // The thread runs on its own clock starting after dispatch.
        let mut tctx = Ctx { cluster: ctx.cluster, time: ctx.time + startup, active: ctx.active };
        let body_result = self.invoke(frame, ridx, args, &mut tctx);
        if let Some(rd) = self.races.as_mut() {
            rd.switch_task_thread(0, 0);
        }
        body_result?;
        self.task_ends.push(tctx.time);
        // The starter continues after the dispatch handshake only.
        ctx.time += if lib { 40.0 } else { 200.0 };
        Ok(())
    }

    fn exec_sync(&mut self, _frame: &Frame, op: &SyncOp, ctx: &mut Ctx) -> Result<()> {
        match op {
            SyncOp::Await { point, dist } => {
                self.stats.awaits += 1;
                ctx.time += self.config.await_cost;
                let d = match dist {
                    Expr::ConstI(v) => *v,
                    e => {
                        let mut c2 = *ctx;
                        let v = self.eval_scalar(_frame, e, &mut c2)?;
                        ctx.time = c2.time;
                        v.as_i64()
                    }
                };
                if let Some(st) = self.doacross.last() {
                    let k = st.cur_iter as i64;
                    // The cascade counter holds the highest iteration
                    // that advanced; `await(p, d)` in iteration k waits
                    // for counter ≥ k−d. A negative target is satisfied
                    // by the counter's pre-loop state. Otherwise any
                    // advance of an iteration in [k−d, k] satisfies the
                    // wait; the unblock time is the earliest such
                    // recorded advance. No advance in the window means
                    // the wait can never be satisfied: the watchdog
                    // reports a deadlock instead of stalling forever.
                    if k - d >= 0 {
                        let lo = (k - d) as usize;
                        let hi = (k as usize).min(st.trip.saturating_sub(1));
                        let t = st.times(*point).and_then(|v| {
                            v.get(lo..=hi)?
                                .iter()
                                .flatten()
                                .copied()
                                .fold(None, |m: Option<f64>, x| {
                                    Some(m.map_or(x, |m| m.min(x)))
                                })
                        });
                        match t {
                            Some(t) => {
                                if t > ctx.time {
                                    self.stats.await_stall_cycles += t - ctx.time;
                                    ctx.time = t;
                                }
                            }
                            None => {
                                return kerr(
                                    SimErrorKind::Deadlock,
                                    cedar_ir::Span::NONE,
                                    format!(
                                        "await(point {point}, distance {d}) at iteration \
                                         {k}: no advance({point}) recorded in iterations \
                                         [{lo}, {hi}] — the wait can never be satisfied"
                                    ),
                                );
                            }
                        }
                    }
                }
                // Race detection: the satisfied await synchronizes-with
                // the advances of every iteration ≤ k − d.
                let cur = self.doacross.last().map(|st| st.cur_iter as i64);
                if let (Some(k), Some(rd)) = (cur, self.races.as_mut()) {
                    rd.on_await(*point, k - d);
                }
                Ok(())
            }
            SyncOp::Advance { point } => {
                self.stats.advances += 1;
                ctx.time += self.config.advance_cost;
                let mut t = ctx.time;
                // Fault injection: an advance's *visibility* may be
                // delayed, or the signal dropped entirely (the illegal
                // perturbation that turns dependent awaits into
                // watchdog-reported deadlocks). The advancing CE's own
                // clock is unaffected either way.
                if let Some(f) = self.faults.as_mut() {
                    if f.rng.chance(f.cfg.drop_advance) {
                        self.stats.dropped_advances += 1;
                        return Ok(());
                    }
                    if f.cfg.advance_delay > 0.0 {
                        t += f.rng.unit_f64() * f.cfg.advance_delay;
                    }
                }
                if let Some(st) = self.doacross.last_mut() {
                    let k = st.cur_iter;
                    let v = st.times_mut(*point);
                    if k < v.len() {
                        v[k] = Some(t);
                    }
                }
                // Race detection: publish this iteration's knowledge to
                // later awaiters (a dropped advance publishes nothing —
                // it already returned above).
                if let Some(rd) = self.races.as_mut() {
                    rd.on_advance(*point);
                }
                Ok(())
            }
            SyncOp::Lock { id } => {
                self.stats.lock_acquisitions += 1;
                let free = self.lock_release.get(id).copied().unwrap_or(0.0);
                if free > ctx.time {
                    self.stats.lock_stall_cycles += free - ctx.time;
                    ctx.time = free;
                }
                ctx.time += self.config.lock_cost;
                if let Some(rd) = self.races.as_mut() {
                    rd.on_lock(*id);
                }
                Ok(())
            }
            SyncOp::Unlock { id } => {
                self.lock_release.insert(*id, ctx.time);
                if let Some(rd) = self.races.as_mut() {
                    rd.on_unlock(*id);
                }
                Ok(())
            }
        }
    }

    // ================== loops ==================

    fn exec_loop(&mut self, frame: &mut Frame, l: &Loop, ctx: &mut Ctx) -> Result<Flow> {
        let start = self.eval_scalar(frame, &l.start, ctx)?.as_i64();
        let end = self.eval_scalar(frame, &l.end, ctx)?.as_i64();
        let step = match &l.step {
            Some(e) => self.eval_scalar(frame, e, ctx)?.as_i64(),
            None => 1,
        };
        if step == 0 {
            return err(l.span, "DO step of zero");
        }
        let trip = ((end - start + step) / step).max(0) as usize;

        let lr = LoopRef {
            class: l.class,
            var: l.var,
            locals: &l.locals,
            span: l.span,
            blocks: LoopBlocks::Tree {
                pre: &l.preamble,
                body: &l.body,
                post: &l.postamble,
            },
        };
        if l.class == LoopClass::Seq {
            return self.exec_seq_loop(frame, &lr, start, step, trip, ctx);
        }
        self.exec_parallel_loop(frame, &lr, start, step, trip, ctx)
    }

    /// Execute one block of a loop, whichever engine owns its body.
    fn run_loop_block(
        &mut self,
        frame: &mut Frame,
        lr: &LoopRef<'_>,
        which: Blk,
        ctx: &mut Ctx,
    ) -> Result<Flow> {
        match &lr.blocks {
            LoopBlocks::Tree { pre, body, post } => {
                let b = match which {
                    Blk::Pre => pre,
                    Blk::Body => body,
                    Blk::Post => post,
                };
                self.exec_block(frame, b, ctx)
            }
            LoopBlocks::Vm { cu, lp } => {
                let range = match which {
                    Blk::Pre => lp.pre,
                    Blk::Body => lp.body,
                    Blk::Post => lp.post,
                };
                self.vm_run_range(frame, cu, range, cedar_ir::Span::NONE, ctx)
            }
        }
    }

    fn set_loop_var(&mut self, frame: &Frame, var: SymbolId, value: i64, ctx: &Ctx) -> Result<()> {
        if self.set_loop_var_resolved(frame, var, value, ctx.cluster) {
            return Ok(());
        }
        let bind = self.bind_of(frame, var)?;
        let slot = self.resolve_slot(bind, ctx.cluster);
        let (offset, ty) = (bind.offset, bind.ty);
        // The loop variable is conceptually private per iteration (each
        // CE holds its own copy); the host-side shared write must not
        // register as a cross-iteration race.
        if let Some(rd) = self.races.as_mut() {
            rd.suspend();
        }
        let r = self.store_at(slot, offset, Value::I(value), ty);
        if let Some(rd) = self.races.as_mut() {
            rd.resume();
        }
        r
    }

    fn exec_seq_loop(
        &mut self,
        frame: &mut Frame,
        lr: &LoopRef<'_>,
        start: i64,
        step: i64,
        trip: usize,
        ctx: &mut Ctx,
    ) -> Result<Flow> {
        // Sequential loops may carry locals from privatization of an
        // enclosing transform, or a preamble/postamble if a directive
        // loop was demoted to serial (validation fallback): a serial
        // loop is a one-participant schedule, so bind locals once and
        // run the per-participant blocks once.
        let locals = self.bind_locals(frame, lr.locals, lr.class, 1, ctx)?;
        if lr.has_pre() {
            self.run_loop_block(frame, lr, Blk::Pre, ctx)?;
        }
        let mut flow = Flow::Normal;
        for k in 0..trip {
            self.set_loop_var(frame, lr.var, start + (k as i64) * step, ctx)?;
            ctx.time += self.costs.get(CostClass::LoopStep); // increment + test
            self.stats.scalar_ops += 2;
            match self.run_loop_block(frame, lr, Blk::Body, ctx)? {
                Flow::Normal => {}
                other => {
                    flow = other;
                    break;
                }
            }
        }
        if lr.has_post() && matches!(flow, Flow::Normal) {
            self.run_loop_block(frame, lr, Blk::Post, ctx)?;
        }
        for (_, per_part) in &locals {
            for b in per_part {
                self.release_binding(b, ctx.cluster);
            }
        }
        Ok(flow)
    }

    /// Bind per-participant storage for loop locals. Returns the slots
    /// per local so the scheduler can rebind per participant.
    fn bind_locals(
        &mut self,
        frame: &mut Frame,
        loop_locals: &[SymbolId],
        class: LoopClass,
        participants: usize,
        ctx: &mut Ctx,
    ) -> Result<Vec<(SymbolId, Vec<VarBind>)>> {
        let unit_idx = frame.unit;
        let program = self.program;
        let mut out = Vec::with_capacity(loop_locals.len());
        for &loc in loop_locals {
            let sym = program.units[unit_idx].symbol(loc);
            let mut per_part = Vec::with_capacity(participants);
            for p in 0..participants {
                let home = self.participant_cluster(class, p, ctx);
                // Dims may reference outer scalars (e.g. strip length).
                // Constant declared dims replay from the prepass cache —
                // once per participant, like the slow walk.
                let dims = match self.cached_dims(unit_idx, loc.index(), ctx) {
                    Some(d) => d,
                    None => {
                        let mut dims = Vec::with_capacity(sym.dims.len());
                        for d in &sym.dims {
                            let lo = self.eval_scalar(frame, &d.lower, ctx)?.as_i64();
                            let hi = match &d.upper {
                                Some(e) => self.eval_scalar(frame, e, ctx)?.as_i64(),
                                None => return err(sym.span, "assumed-size loop local"),
                            };
                            dims.push((lo, hi));
                        }
                        dims
                    }
                };
                let total: usize =
                    dims.iter().map(|&(lo, hi)| ((hi - lo + 1).max(0)) as usize).product();
                let sref = self.alloc_storage(sym.ty, total.max(1), Placement::Private, home);
                per_part.push(VarBind {
                    sref,
                    offset: 0,
                    dims,
                    ty: sym.ty,
                    placement: Placement::Private,
                });
            }
            // Privatized loop locals are per-CE storage: iterations that
            // share a participant reuse the slot sequentially, which is
            // not a race (each CE accesses only its own copy). Exempt
            // them from detection; an unprivatized shared temp keeps its
            // ordinary placement and stays visible to the detector.
            if let Some(rd) = self.races.as_mut() {
                for b in &per_part {
                    if let StorageRef::One(s) = &b.sref {
                        rd.exempt_slot(*s);
                    }
                }
            }
            // Bind participant 0 by default.
            self.rebind(frame, loc, &per_part[0]);
            out.push((loc, per_part));
        }
        Ok(out)
    }

    /// Cluster a participant executes on.
    fn participant_cluster(&self, class: LoopClass, p: usize, ctx: &Ctx) -> usize {
        match class {
            LoopClass::CDoall | LoopClass::CDoacross | LoopClass::Seq => ctx.cluster,
            LoopClass::SDoall | LoopClass::SDoacross => p % self.config.clusters,
            LoopClass::XDoall | LoopClass::XDoacross => {
                (p / self.config.ces_per_cluster) % self.config.clusters
            }
        }
    }

    /// Self-scheduling pick: the participant with the lowest virtual
    /// clock takes the next iteration. Ties break by lowest id, or by a
    /// seeded shuffle when fault injection randomizes tie-breaks (a
    /// legal perturbation — any tied participant is a valid choice).
    fn pick_participant(&mut self, clocks: &[f64]) -> usize {
        let salted = match self.faults.as_mut() {
            Some(f) if f.cfg.random_tie_break => {
                Some((0..clocks.len()).map(|_| f.rng.next_u64()).collect::<Vec<_>>())
            }
            _ => None,
        };
        (0..clocks.len())
            .min_by(|&a, &b| {
                clocks[a]
                    .partial_cmp(&clocks[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| match &salted {
                        Some(s) => s[a].cmp(&s[b]),
                        None => a.cmp(&b),
                    })
            })
            .unwrap_or(0)
    }

    fn exec_parallel_loop(
        &mut self,
        frame: &mut Frame,
        lr: &LoopRef<'_>,
        start: i64,
        step: i64,
        trip: usize,
        ctx: &mut Ctx,
    ) -> Result<Flow> {
        let cfg = &self.config;
        let (participants, startup, dispatch) = match lr.class {
            LoopClass::CDoall | LoopClass::CDoacross => {
                (cfg.ces_per_cluster, cfg.cdo_start, cfg.cdo_dispatch)
            }
            LoopClass::SDoall | LoopClass::SDoacross => {
                (cfg.clusters, cfg.sdo_start, cfg.lib_dispatch)
            }
            LoopClass::XDoall | LoopClass::XDoacross => {
                (cfg.total_ces(), cfg.xdo_start, cfg.lib_dispatch)
            }
            LoopClass::Seq => {
                return kerr(
                    SimErrorKind::BadProgram,
                    lr.span,
                    "sequential loop reached the parallel scheduler",
                )
            }
        };
        let participants = participants.max(1);
        self.stats.parallel_loops += 1;
        self.stats.parallel_iterations += trip as u64;

        let is_ordered = lr.class.is_ordered();
        if is_ordered {
            self.doacross.push(DoacrossState::new(trip));
        }

        let locals = self.bind_locals(frame, lr.locals, lr.class, participants, ctx)?;
        let child_active = ctx.active * participants;

        // Per-participant clocks begin after startup.
        let t0 = ctx.time + startup;
        let mut clocks = vec![t0; participants];
        if let Some(f) = self.faults.as_mut() {
            if f.cfg.clock_jitter > 0.0 {
                // Legal perturbation: skew each participant's start
                // clock, reshuffling the self-scheduled partition.
                for c in clocks.iter_mut() {
                    *c += f.rng.unit_f64() * f.cfg.clock_jitter * startup.max(1.0);
                }
            }
        }

        // Preamble: once per participant.
        if lr.has_pre() {
            for p in 0..participants {
                for (loc, per_part) in &locals {
                    self.rebind(frame, *loc, &per_part[p]);
                }
                let mut cctx = Ctx {
                    cluster: self.participant_cluster(lr.class, p, ctx),
                    time: clocks[p],
                    active: child_active,
                };
                self.run_loop_block(frame, lr, Blk::Pre, &mut cctx)?;
                clocks[p] = cctx.time;
            }
        }

        // Race detection: the region forks after the preamble — the
        // preamble (partial-reduction init) and postamble (merge) run
        // per participant but are serialized with the loop body by the
        // hardware, so they execute in the parent's logical thread.
        if let Some(rd) = self.races.as_mut() {
            rd.push_region(is_ordered, false);
        }

        let mut flow = Flow::Normal;
        let mut bound_p = usize::MAX; // participant currently bound into the frame
        for k in 0..trip {
            // Deterministic self-scheduling: earliest-clock participant
            // takes the next iteration (ties: lowest id, or a seeded
            // shuffle under fault injection).
            let p = self.pick_participant(&clocks);
            if p != bound_p {
                for (loc, per_part) in &locals {
                    self.rebind(frame, *loc, &per_part[p]);
                }
                bound_p = p;
            }
            let mut cctx = Ctx {
                cluster: self.participant_cluster(lr.class, p, ctx),
                time: clocks[p] + dispatch,
                active: child_active,
            };
            if is_ordered {
                if let Some(st) = self.doacross.last_mut() {
                    st.cur_iter = k;
                }
            }
            if let Some(rd) = self.races.as_mut() {
                rd.begin_iteration(k as u32, p as u16);
            }
            self.set_loop_var(frame, lr.var, start + (k as i64) * step, &cctx)?;
            let f = self.run_loop_block(frame, lr, Blk::Body, &mut cctx)?;
            clocks[p] = cctx.time;
            if !matches!(f, Flow::Normal) {
                flow = f;
                break;
            }
        }

        if let Some(rd) = self.races.as_mut() {
            rd.pop_region();
        }

        // Postamble: once per participant.
        if lr.has_post() {
            for p in 0..participants {
                for (loc, per_part) in &locals {
                    self.rebind(frame, *loc, &per_part[p]);
                }
                let mut cctx = Ctx {
                    cluster: self.participant_cluster(lr.class, p, ctx),
                    time: clocks[p],
                    active: child_active,
                };
                self.run_loop_block(frame, lr, Blk::Post, &mut cctx)?;
                clocks[p] = cctx.time;
            }
        }

        if is_ordered {
            self.doacross.pop();
        }
        // Locals go out of scope.
        for (_, per_part) in &locals {
            for (p, b) in per_part.iter().enumerate() {
                let home = self.participant_cluster(lr.class, p, ctx);
                self.release_binding(b, home);
            }
        }
        // Join barrier.
        let end = clocks.iter().cloned().fold(t0, f64::max) + self.config.barrier;
        ctx.time = end;
        Ok(flow)
    }
}

/// Stack-allocated subscript list: element accesses evaluate their
/// subscripts into this fixed buffer instead of a heap `Vec` (Fortran
/// 77 caps array rank at 7; [`Subs::push`] reports anything wilder).
struct Subs {
    buf: [i64; 8],
    len: usize,
}

impl Subs {
    fn new() -> Subs {
        Subs { buf: [0; 8], len: 0 }
    }

    fn push(&mut self, v: i64) -> Result<()> {
        if self.len >= self.buf.len() {
            return kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                "array rank exceeds the Fortran 77 limit of 7",
            );
        }
        self.buf[self.len] = v;
        self.len += 1;
        Ok(())
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    fn as_slice(&self) -> &[i64] {
        &self.buf[..self.len]
    }
}

/// Most subscripts a section descriptor holds inline — the size of
/// [`Subs`], so the 9th is what reports the rank violation.
const MAX_SECTION_RANK: usize = 8;

/// Per-dimension descriptor of a section.
#[derive(Debug, Clone, Copy)]
enum SectionDim {
    Fixed(i64),
    RangeLen { lo: i64, step: i64, len: usize },
    /// Vector-valued subscript (gather/scatter through an index
    /// vector): which of [`Section::gathers`].
    Gather(usize),
}

/// A section with its subscripts evaluated: a descriptor per dimension
/// and the lane count. Lives on the caller's stack and is filled in
/// place; gather vectors come from the lane pool
/// ([`Simulator::release_section`] returns them).
struct Section {
    dims: [SectionDim; MAX_SECTION_RANK],
    /// Subscripts given. More than fit in `dims` is an error wherever
    /// the lanes are resolved; the one consumer that only wants the
    /// first element (an actual argument) finds the rest in `spill`.
    rank: usize,
    spill: Vec<SectionDim>,
    lanes: usize,
    /// The index vectors of the gather subscripts.
    gathers: Vec<Vec<i64>>,
}

impl Section {
    fn new() -> Section {
        Section {
            dims: [SectionDim::Fixed(0); MAX_SECTION_RANK],
            rank: 0,
            spill: Vec::new(),
            lanes: 1,
            gathers: Vec::new(),
        }
    }

    fn push(&mut self, d: SectionDim) {
        match self.dims.get_mut(self.rank) {
            Some(slot) => *slot = d,
            None => self.spill.push(d),
        }
        self.rank += 1;
    }
}

/// The linear indices of a section's lanes, in lane order.
enum LaneIdx {
    /// `first + k * stride` for `k < len`, every one inside the
    /// binding's declared shape.
    Prog {
        first: usize,
        stride: isize,
        len: usize,
    },
    /// One index per lane.
    List(Vec<usize>),
}

/// Index `k` of a [`LaneIdx::Prog`].
fn progression_at(first: usize, stride: isize, k: usize) -> usize {
    (first as isize + k as isize * stride) as usize
}

/// The indices of [`LaneIdx::Prog`].
fn progression(first: usize, stride: isize, len: usize) -> impl ExactSizeIterator<Item = usize> {
    (0..len).map(move |k| progression_at(first, stride, k))
}

/// Evaluate `$body` with `$lins` bound to the index iterator of a
/// [`LaneIdx`] (one monomorphic copy per representation).
macro_rules! each_index {
    ($at:expr, $lins:ident => $body:expr) => {
        match $at {
            LaneIdx::Prog { first, stride, len } => {
                let $lins = progression(*first, *stride, *len);
                $body
            }
            LaneIdx::List(list) => {
                let $lins = list.iter().copied();
                $body
            }
        }
    };
}
use each_index;

impl LaneIdx {
    /// `(first, len)` when the lanes are a non-empty ascending
    /// contiguous run.
    fn run(&self) -> Option<(usize, usize)> {
        match *self {
            LaneIdx::Prog { first, stride, len } if len == 1 || (len > 1 && stride == 1) => {
                Some((first, len))
            }
            _ => None,
        }
    }

    /// Index of lane `k`.
    fn get(&self, k: usize) -> usize {
        match self {
            LaneIdx::Prog { first, stride, .. } => progression_at(*first, *stride, k),
            LaneIdx::List(list) => list[k],
        }
    }

    /// One past the largest index (0 without lanes).
    fn upper(&self) -> usize {
        match self {
            LaneIdx::Prog { len: 0, .. } => 0,
            LaneIdx::Prog { first, len, .. } => (*first).max(self.get(len - 1)) + 1,
            LaneIdx::List(list) => list.iter().max().map_or(0, |m| m + 1),
        }
    }
}

/// How a run's vector sections were resolved to element indices (see
/// [`Simulator::section_counts`]). Sections without lanes are not
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionCounts {
    /// One range dimension, no gather: carried as `(first, stride,
    /// length)`, no index list built.
    pub progressions: u64,
    /// One range dimension, no gather, and an index list all the same:
    /// the fast paths were off, or an end lane was out of bounds.
    pub single_range_lists: u64,
    /// Several range dimensions, a gather, or no range at all: an index
    /// list from the odometer walk.
    pub other_lists: u64,
}

#[derive(Debug, Clone, Copy)]
enum Flow {
    Normal,
    Return,
    Stop,
}

/// Engine-neutral view of a loop for the shared schedulers
/// ([`Simulator::exec_seq_loop`] / [`Simulator::exec_parallel_loop`]).
/// The tree-walker and the VM both drive the *same* scheduling,
/// DOACROSS, fault-jitter, and race-region code; only the body blocks
/// differ — IR statement slices vs compiled code ranges.
struct LoopRef<'a> {
    class: LoopClass,
    var: SymbolId,
    locals: &'a [SymbolId],
    span: cedar_ir::Span,
    blocks: LoopBlocks<'a>,
}

enum LoopBlocks<'a> {
    Tree {
        pre: &'a [Stmt],
        body: &'a [Stmt],
        post: &'a [Stmt],
    },
    Vm {
        cu: &'a CompiledUnit,
        lp: &'a VmLoop,
    },
}

/// Which loop block to run (see [`Simulator::run_loop_block`]).
#[derive(Clone, Copy)]
enum Blk {
    Pre,
    Body,
    Post,
}

impl LoopRef<'_> {
    /// A compiled block range is empty iff the IR block is (every
    /// statement emits at least one instruction), so both engines make
    /// the same has-preamble/has-postamble decisions.
    fn has_pre(&self) -> bool {
        match &self.blocks {
            LoopBlocks::Tree { pre, .. } => !pre.is_empty(),
            LoopBlocks::Vm { lp, .. } => lp.pre.0 != lp.pre.1,
        }
    }

    fn has_post(&self) -> bool {
        match &self.blocks {
            LoopBlocks::Tree { post, .. } => !post.is_empty(),
            LoopBlocks::Vm { lp, .. } => lp.post.0 != lp.post.1,
        }
    }
}

/// Count the races a bulk recorder found; the first one aborts a
/// fail-fast run.
fn flag_all(rd: &mut RaceDetector, races: Vec<RaceInfo>) -> Result<()> {
    races.into_iter().try_for_each(|race| rd.flag(race).map_or(Ok(()), Err))
}

fn with_span(mut e: SimError, span: cedar_ir::Span) -> SimError {
    if e.span == cedar_ir::Span::NONE {
        e.span = span;
    }
    e
}


/// Static constant evaluation against PARAMETER symbols only (used for
/// COMMON dims before any frame exists).
fn const_eval_static(unit: &Unit, e: &Expr) -> Option<i64> {
    match e {
        Expr::ConstI(v) => Some(*v),
        Expr::Scalar(s) => match &unit.symbol(*s).kind {
            SymKind::Param(v) => Some(v.as_i64()),
            _ => None,
        },
        Expr::Un(cedar_ir::UnOp::Neg, inner) => Some(-const_eval_static(unit, inner)?),
        Expr::Bin(op, l, r) => {
            let a = const_eval_static(unit, l)?;
            let b = const_eval_static(unit, r)?;
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a.checked_div(b)?,
                _ => return None,
            })
        }
        _ => None,
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
        let sim = run_src(
            "program p\nreal x, y\nx = 3.0\ny = x * 2.0 + 1.0\nend\n",
        );
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
        let p = compile_free(
            "program p\nreal a(3)\ndo i = 1, 5\na(i) = 0.0\nend do\nend\n",
        )
        .unwrap();
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
        assert!(g.stats.global_traffic() > 0);
    }

    #[test]
    fn prefetch_reduces_global_vector_cost() {
        let src = "program p\nparameter (n = 4096)\nreal a(n), b(n)\nglobal a, b\n\
             do i = 1, n\nb(i) = 1.0\nend do\na(1:n) = b(1:n) * 2.0\nend\n";
        let p = Box::leak(Box::new(compile_free(src).unwrap()));
        let with = crate::run(p, MachineConfig::cedar_config1()).unwrap();
        let without =
            crate::run(p, MachineConfig::cedar_config1().without_prefetch()).unwrap();
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
        small_cfg.cluster_capacity = 1024;
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
        let p = compile_free(
            "program p\ns = 0.0\ndo i = 1, 1000\ns = s + 1.0\nend do\nend\n",
        )
        .unwrap();
        let err = match crate::run(&p, cfg) {
            Err(e) => e,
            Ok(_) => panic!("watchdog budget of 100 statements should trip"),
        };
        assert_eq!(err.kind, SimErrorKind::Limit);
    }
}
