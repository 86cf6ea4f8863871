#![warn(missing_docs)]
//! Deterministic cycle-cost simulator of the Cedar hierarchical
//! multiprocessor.
//!
//! The simulator executes the shared IR (`cedar-ir`) directly — the same
//! programs the restructurer produces — and reports **simulated cycles**
//! from an explicit cost model of the Cedar architecture described in
//! the paper's §1–§2. The model is one module, `cost`: the only reader
//! of [`MachineConfig`]'s cost fields, through which the executor
//! ([`exec`]: frames, scalar and vector evaluation, statements, sync,
//! loop scheduling; and the bytecode VM) charges every cycle. It covers:
//!
//! * four clusters of eight computational elements (CEs), each CE with
//!   scalar and vector units;
//! * per-cluster memory and shared data cache; machine-wide global
//!   memory behind a two-stage interconnect with bounded bandwidth;
//! * a vector **prefetch** unit that streams contiguous vector reads
//!   from global memory into a CE-local buffer (§2.2.3), as a
//!   per-element rate;
//! * hardware microtasking for `CDOALL`/`CDOACROSS` (cheap startup via
//!   the concurrency control bus) vs. runtime-library helper-task
//!   microtasking for `SDOALL`/`XDOALL` (expensive startup, §2.2.1/.2);
//! * `await`/`advance` cascade synchronization and lock/unlock critical
//!   sections;
//! * a paging model: each memory pool (per-cluster, global) has a
//!   capacity; allocating beyond it makes accesses to that pool pay a
//!   thrashing surcharge — this reproduces the paper's `mprove`/CG
//!   super-linear speedups, which came from the serial version paging
//!   while the parallel version's data fit in global memory.
//!
//! Execution is **deterministic**: parallel loops self-schedule onto
//! per-CE virtual clocks (lowest-clock CE takes the next iteration;
//! ties break by CE id), and iterations execute in index order in the
//! host, so results are exactly reproducible and DOACROSS cascade waits
//! resolve without real concurrency.
//!
//! Determinism extends to **fault injection** ([`fault`]): a seeded
//! [`FaultConfig`] perturbs the schedule (clock jitter, randomized
//! tie-breaks, delayed advances, memory-latency noise) reproducibly,
//! and every failure path — including cascade deadlocks, which a
//! watchdog detects instead of hanging — surfaces as a structured
//! [`SimError`] with a [`SimErrorKind`].

pub mod compile;
pub mod config;
pub(crate) mod cost;
pub mod error;
pub mod exec;
pub mod fault;
pub(crate) mod lanes;
pub mod race;
pub mod stats;
pub mod store;
pub mod value_ops;

pub use cedar_par::CancelToken;
pub use compile::CompiledProgram;
pub use config::{Engine, MachineConfig};
pub use error::{OpError, SimError, SimErrorKind};
pub use exec::{SectionCounts, Simulator};
pub use fault::{FaultConfig, FaultRng};
pub use race::{RaceInfo, RaceKind};
pub use stats::ExecStats;

use cedar_ir::Program;
use std::sync::Arc;

/// Run a program's main unit to completion; returns the simulator for
/// result inspection plus the simulated cycle count in
/// [`ExecStats::cycles`].
pub fn run(program: &Program, config: MachineConfig) -> Result<Simulator<'_>, SimError> {
    let mut sim = Simulator::new(program, config)?;
    sim.run_main()?;
    Ok(sim)
}

/// Like [`run`], but under a seeded fault-injection profile. With a
/// [`FaultConfig`] whose perturbations are all *legal* (see
/// [`fault`]), a correctly restructured program must produce the same
/// results as the unperturbed run; divergence or a
/// [`SimErrorKind::Deadlock`] indicates an illegal transform.
pub fn run_with_faults(
    program: &Program,
    config: MachineConfig,
    faults: FaultConfig,
) -> Result<Simulator<'_>, SimError> {
    let mut sim = Simulator::new(program, config)?;
    sim.set_faults(faults);
    sim.run_main()?;
    Ok(sim)
}

/// Run with the happens-before race detector in **collect-all** mode:
/// races do not abort the run; inspect them afterwards via
/// [`Simulator::race_report`] / [`Simulator::races_detected`]. Other
/// failures (deadlock, out-of-bounds, ...) still surface as errors.
pub fn run_collecting_races(
    program: &Program,
    config: MachineConfig,
) -> Result<Simulator<'_>, SimError> {
    let mut sim = Simulator::new(program, config.with_race_detection())?;
    sim.collect_races();
    sim.run_main()?;
    Ok(sim)
}

/// Compile a program to the immutable bytecode artifact once, for reuse
/// across many `(seed, config)` executions via the `*_precompiled`
/// entry points (or [`Simulator::with_artifact`]). Compiling is pure:
/// the artifact depends only on the program, never on a
/// [`MachineConfig`], so content-keyed caches can share it freely.
pub fn compile(program: &Program) -> Arc<CompiledProgram> {
    Arc::new(compile::compile_program(program))
}

/// [`run`] off a shared pre-compiled artifact (used by the VM engine;
/// ignored — and the tree walked instead — when `config.engine` is
/// [`Engine::Interp`]).
pub fn run_precompiled<'p>(
    program: &'p Program,
    config: MachineConfig,
    artifact: &Arc<CompiledProgram>,
) -> Result<Simulator<'p>, SimError> {
    let mut sim = Simulator::with_artifact(program, config, Arc::clone(artifact))?;
    sim.run_main()?;
    Ok(sim)
}

/// [`run_with_faults`] off a shared pre-compiled artifact.
pub fn run_with_faults_precompiled<'p>(
    program: &'p Program,
    config: MachineConfig,
    faults: FaultConfig,
    artifact: &Arc<CompiledProgram>,
) -> Result<Simulator<'p>, SimError> {
    let mut sim = Simulator::with_artifact(program, config, Arc::clone(artifact))?;
    sim.set_faults(faults);
    sim.run_main()?;
    Ok(sim)
}

/// [`run_collecting_races`] off a shared pre-compiled artifact.
pub fn run_collecting_races_precompiled<'p>(
    program: &'p Program,
    config: MachineConfig,
    artifact: &Arc<CompiledProgram>,
) -> Result<Simulator<'p>, SimError> {
    let mut sim =
        Simulator::with_artifact(program, config.with_race_detection(), Arc::clone(artifact))?;
    sim.collect_races();
    sim.run_main()?;
    Ok(sim)
}
