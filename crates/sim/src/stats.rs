//! Execution statistics and event counters.

/// Counters accumulated over one simulated run.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Total simulated wall-clock cycles of the run (critical path
    /// through the parallel schedule).
    pub cycles: f64,

    // ---- memory traffic by class (element counts) ----
    /// Accesses served by CE-private storage/cache.
    pub private_accesses: u64,
    /// Accesses served by cluster memory.
    pub cluster_accesses: u64,
    /// Scalar accesses that crossed the global interconnect.
    pub global_scalar_accesses: u64,
    /// Vector elements moved through the global interconnect.
    pub global_vector_elems: u64,
    /// Global vector elements that went through the prefetch buffer.
    pub prefetched_elems: u64,
    /// Expected number of accesses that paid the thrashing
    /// surcharge (fractional: thrash probability × accesses).
    pub paged_accesses: f64,

    // ---- computation ----
    /// Scalar arithmetic operations executed.
    pub scalar_ops: u64,
    /// Elements processed by vector operations.
    pub vector_elems: u64,

    // ---- parallelism ----
    /// Parallel loop instances entered.
    pub parallel_loops: u64,
    /// Iterations executed inside parallel loops.
    pub parallel_iterations: u64,
    /// Cascade `await` operations executed.
    pub awaits: u64,
    /// Cascade `advance` operations executed.
    pub advances: u64,
    /// `advance` signals dropped by fault injection (illegal
    /// perturbation; nonzero only under `FaultConfig::drop_advance`).
    pub dropped_advances: u64,
    /// Critical-section lock acquisitions.
    pub lock_acquisitions: u64,
    /// Cycles CEs spent stalled in cascade awaits (summed over CEs).
    pub await_stall_cycles: f64,
    /// Cycles spent waiting on critical-section locks.
    pub lock_stall_cycles: f64,

    // ---- structure ----
    /// Subroutine-level tasks started (§2.2.2).
    pub tasks_started: u64,
    /// Subroutine/function calls executed.
    pub calls: u64,
    /// PRINT/WRITE statements executed (charged a fixed cost).
    pub io_statements: u64,

    /// Cycles accumulated between `CALL TSTART` / `CALL TSTOP` pairs
    /// (0 when no timers ran; harnesses fall back to total cycles).
    pub region_cycles: f64,
    /// Open-region start time (internal bookkeeping).
    pub region_open: Option<f64>,
}
