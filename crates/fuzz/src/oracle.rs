//! The oracle families every generated program is judged by.
//!
//! 1. **Differential** — restructured output must reproduce the serial
//!    reference memory: bit-for-bit for watch variables the generator
//!    marks exact, within a relative tolerance for variables whose
//!    value passes may legally reassociate (reductions, privatized
//!    accumulations, GIV closed forms). The first differing cell is
//!    reported via [`cedar_verify::CellDiff`].
//! 2. **Metamorphic** — semantics-preserving harness variants must
//!    agree: disabling interpreter fast paths must not change a single
//!    bit, and suppressing every parallel nest
//!    ([`PassConfig::suppress_nests`]) must reproduce the serial
//!    reference exactly.
//! 3. **Internal** — the happens-before race detector and the static
//!    synchronization audit must agree. Generated programs carry no
//!    hand-written directives, so *any* dynamic race on restructured
//!    output is a finding; a sync-audit finding with no dynamic race is
//!    recorded as a known gap (the static audit is deliberately
//!    conservative) rather than a failure.
//! 4. **Cross-backend** — every emission backend's output, re-parsed
//!    through the front end and simulated, must agree with the serial
//!    reference emission ([`cedar_verify::compare_backends`]); an
//!    emission that fails to re-parse is itself a finding.
//!
//! Panics anywhere in the pipeline are caught and converted into
//! failures — a crashing pass is as much a fuzzing find as a
//! miscompiling one.

use crate::gen::{Rendered, WatchVar};
use cedar_ir::Program;
use cedar_restructure::{restructure, PassConfig, Report};
use cedar_sim::{Engine, MachineConfig};
use cedar_verify::{first_bit_diff, first_diff, CellDiff, Snapshot};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which pipeline stage or oracle a failure belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Generated source failed to parse or lower.
    Compile,
    /// The serial reference run itself failed (generator bug).
    Reference,
    /// The restructurer panicked.
    Restructure,
    /// The restructured program failed to run.
    Parallel,
    /// Differential oracle: restructured memory differs from serial.
    Differential,
    /// Metamorphic oracle: fast-path ablation changed results.
    FastPaths,
    /// Differential oracle: the bytecode VM and the tree-walking
    /// interpreter disagree on the same restructured program.
    EngineDiff,
    /// Metamorphic oracle: nest suppression failed to reproduce serial.
    Suppress,
    /// Internal oracle: race detector / sync audit disagreement.
    RaceAudit,
    /// Cross-backend oracle: some emission backend's re-parsed output
    /// disagrees with the serial reference emission.
    BackendDiff,
}

impl Phase {
    /// Stable lower-case tag for JSON.
    pub fn tag(self) -> &'static str {
        match self {
            Phase::Compile => "compile",
            Phase::Reference => "reference",
            Phase::Restructure => "restructure",
            Phase::Parallel => "parallel",
            Phase::Differential => "differential",
            Phase::FastPaths => "fast-paths",
            Phase::EngineDiff => "engine-diff",
            Phase::Suppress => "suppress",
            Phase::RaceAudit => "race-audit",
            Phase::BackendDiff => "backend-diff",
        }
    }
}

/// One oracle failure: where, what, and (for divergences) the first
/// differing memory cell.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Failing stage/oracle.
    pub phase: Phase,
    /// Human-readable description (panic message, sim error, oracle
    /// verdict).
    pub detail: String,
    /// First differing memory cell, when the failure is a divergence.
    pub diff: Option<CellDiff>,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.phase.tag(), self.detail)?;
        if let Some(d) = &self.diff {
            write!(f, " — first differing cell {d}")?;
        }
        Ok(())
    }
}

impl OracleFailure {
    fn new(phase: Phase, detail: impl Into<String>) -> OracleFailure {
        OracleFailure { phase, detail: detail.into(), diff: None }
    }
}

/// What a clean oracle run observed (feeds the campaign ledger and
/// summary statistics).
#[derive(Debug, Clone)]
pub struct OracleStats {
    /// The restructurer's decision log (coverage is absorbed from it).
    pub report: Report,
    /// Simulated cycles of the serial reference.
    pub serial_cycles: f64,
    /// Simulated cycles of the restructured program.
    pub parallel_cycles: f64,
    /// Sync-audit findings with no confirming dynamic race (the
    /// allowlisted direction of the internal oracle).
    pub known_gaps: Vec<String>,
    /// FNV-1a digest of the restructured memory snapshot + cycle
    /// counts; byte-identical reruns must reproduce it exactly (the
    /// campaign's CEDAR_JOBS invariance check compares these).
    pub digest: u64,
}

/// How to drive the pipeline for one program.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Restructurer configuration under test.
    pub pass: PassConfig,
    /// Simulated machine.
    pub mc: MachineConfig,
    /// Relative tolerance for watch variables marked approximate.
    pub rel_tol: f64,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            pass: PassConfig::manual_improved(),
            mc: MachineConfig::cedar_config1_scaled(),
            rel_tol: 1e-3,
        }
    }
}

impl OracleConfig {
    /// The configuration `--config`, a lease or a corpus entry names
    /// ([`PassConfig::named`]: `manual`, `auto`, `serial`); `None` for
    /// an unknown name, which callers reject instead of judging under
    /// a different configuration than the one they report.
    pub fn named(name: &str) -> Option<OracleConfig> {
        PassConfig::named(name).map(|pass| OracleConfig { pass, ..Default::default() })
    }
}

/// Run `f`, converting a panic into an [`OracleFailure`] at `phase`.
fn guard<T>(phase: Phase, f: impl FnOnce() -> T) -> Result<T, OracleFailure> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|p| OracleFailure::new(phase, format!("panic: {}", panic_text(&p))))
}

fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    cedar_par::panic_message(payload.as_ref())
}

/// Run `program` and snapshot the watch variables.
fn run_snapshot(
    phase: Phase,
    program: &Program,
    mc: &MachineConfig,
    watch: &[WatchVar],
) -> Result<(Snapshot, f64), OracleFailure> {
    let sim = guard(phase, || cedar_sim::run(program, mc.clone()))?
        .map_err(|e| OracleFailure::new(phase, format!("sim error: {e}")))?;
    let mut snap: Snapshot = Vec::with_capacity(watch.len());
    for w in watch {
        let v = sim.read_f64(&w.name).ok_or_else(|| {
            OracleFailure::new(phase, format!("watched variable `{}` unreadable", w.name))
        })?;
        snap.push((w.name.clone(), v));
    }
    Ok((snap, sim.cycles()))
}

/// Split a snapshot into the subsets the generator marked exact/approx.
fn subset(snap: &Snapshot, watch: &[WatchVar], exact: bool) -> Snapshot {
    snap.iter()
        .filter(|(n, _)| watch.iter().any(|w| w.exact == exact && &w.name == n))
        .cloned()
        .collect()
}

/// Compare candidate memory against the reference under the generator's
/// per-variable exactness contract.
fn differential(
    phase: Phase,
    reference: &Snapshot,
    got: &Snapshot,
    watch: &[WatchVar],
    rel_tol: f64,
) -> Result<(), OracleFailure> {
    if let Some(diff) = first_bit_diff(&subset(reference, watch, true), &subset(got, watch, true)) {
        return Err(OracleFailure {
            phase,
            detail: "exact watch variable not bit-identical to serial reference".into(),
            diff: Some(diff),
        });
    }
    if let Some(diff) =
        first_diff(&subset(reference, watch, false), &subset(got, watch, false), rel_tol)
    {
        return Err(OracleFailure {
            phase,
            detail: format!("approximate watch variable beyond rel tol {rel_tol:e}"),
            diff: Some(diff),
        });
    }
    Ok(())
}

/// Parallel nest headers `(unit, line)` in a report.
fn parallel_nests(report: &Report) -> Vec<(String, u32)> {
    report
        .loops
        .iter()
        .filter(|l| !matches!(l.decision, cedar_restructure::LoopDecision::Serial { .. }))
        .map(|l| (l.unit.clone(), l.span.line))
        .collect()
}

/// FNV-1a over the snapshot bits and cycle counts.
fn digest(snap: &Snapshot, serial_cycles: f64, parallel_cycles: f64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, vals) in snap {
        eat(name.as_bytes());
        for v in vals {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    eat(&serial_cycles.to_bits().to_le_bytes());
    eat(&parallel_cycles.to_bits().to_le_bytes());
    h
}

/// Judge one rendered program under every oracle. `Ok` means every
/// family passed; `Err` carries the first failure (the shrinker
/// preserves its phase while minimizing).
pub fn run_oracles(r: &Rendered, cfg: &OracleConfig) -> Result<OracleStats, OracleFailure> {
    // ---- pipeline: parse → lower ----
    let program = guard(Phase::Compile, || cedar_ir::compile_free(&r.source))?
        .map_err(|e| OracleFailure::new(Phase::Compile, e.to_string()))?;

    // ---- serial reference ----
    let (reference, serial_cycles) = run_snapshot(Phase::Reference, &program, &cfg.mc, &r.watch)?;

    // ---- restructure → parallel run ----
    let rr = guard(Phase::Restructure, || restructure(&program, &cfg.pass))?;
    let (parallel, parallel_cycles) =
        run_snapshot(Phase::Parallel, &rr.program, &cfg.mc, &r.watch)?;

    // ---- oracle 1: differential ----
    differential(Phase::Differential, &reference, &parallel, &r.watch, cfg.rel_tol)?;

    // ---- oracle 2a: fast-path ablation is observationally invisible ----
    if cfg.mc.fast_paths {
        let (slow, _) = run_snapshot(
            Phase::FastPaths,
            &rr.program,
            &cfg.mc.clone().without_fast_paths(),
            &r.watch,
        )?;
        if let Some(diff) = first_bit_diff(&parallel, &slow) {
            return Err(OracleFailure {
                phase: Phase::FastPaths,
                detail: "fast-path and slow-path runs disagree".into(),
                diff: Some(diff),
            });
        }
    }

    // ---- oracle 2c: the bytecode VM and the tree-walking interpreter
    // must agree on the restructured program bit-for-bit, simulated
    // cycle count included (DESIGN.md §14 engine policy) ----
    {
        let other = match cfg.mc.engine {
            Engine::Vm => Engine::Interp,
            Engine::Interp => Engine::Vm,
        };
        let (snap, cycles) = run_snapshot(
            Phase::EngineDiff,
            &rr.program,
            &cfg.mc.clone().with_engine(other),
            &r.watch,
        )?;
        if parallel_cycles.to_bits() != cycles.to_bits() {
            return Err(OracleFailure::new(
                Phase::EngineDiff,
                format!(
                    "engines disagree on simulated cycles: {parallel_cycles} ({:?}) \
                     vs {cycles} ({other:?})",
                    cfg.mc.engine
                ),
            ));
        }
        if let Some(diff) = first_bit_diff(&parallel, &snap) {
            return Err(OracleFailure {
                phase: Phase::EngineDiff,
                detail: "bytecode VM and tree-walking interpreter disagree".into(),
                diff: Some(diff),
            });
        }
    }

    // ---- oracle 2b: suppressing every parallel nest reproduces the
    // serial reference bit-for-bit ----
    let mut suppress_cfg = cfg.pass.clone();
    let mut serial_rr = None;
    for _ in 0..4 {
        let rr2 = guard(Phase::Suppress, || restructure(&program, &suppress_cfg))?;
        let nests: Vec<(String, u32)> = parallel_nests(&rr2.report)
            .into_iter()
            .filter(|c| !suppress_cfg.suppress_nests.contains(c))
            .collect();
        if nests.is_empty() {
            serial_rr = Some(rr2);
            break;
        }
        suppress_cfg.suppress_nests.extend(nests);
    }
    let Some(serial_rr) = serial_rr else {
        return Err(OracleFailure::new(
            Phase::Suppress,
            format!(
                "nest suppression did not converge after 4 rounds ({} nests suppressed)",
                suppress_cfg.suppress_nests.len()
            ),
        ));
    };
    let (suppressed, _) = run_snapshot(Phase::Suppress, &serial_rr.program, &cfg.mc, &r.watch)?;
    if let Some(diff) = first_bit_diff(&reference, &suppressed) {
        return Err(OracleFailure {
            phase: Phase::Suppress,
            detail: "fully-suppressed restructure differs from serial reference".into(),
            diff: Some(diff),
        });
    }

    // ---- oracle 3: race detector vs sync audit ----
    let traced =
        guard(Phase::RaceAudit, || cedar_sim::run_collecting_races(&rr.program, cfg.mc.clone()))?
            .map_err(|e| {
            OracleFailure::new(Phase::RaceAudit, format!("race-collecting run failed: {e}"))
        })?;
    let audit = &rr.report.sync_audit;
    if let Some(race) = traced.race_report().first() {
        let confirmed = if audit.is_empty() {
            "the sync audit missed it"
        } else {
            "the sync audit flagged it too"
        };
        return Err(OracleFailure::new(
            Phase::RaceAudit,
            format!(
                "restructured output races on a generated (directive-free) program; \
                 {confirmed}: {race}"
            ),
        ));
    }
    let known_gaps: Vec<String> = audit.iter().map(|a| a.to_string()).collect();

    // ---- oracle 4: every emission backend's re-parsed output agrees
    // with the serial reference emission ----
    {
        let watch: Vec<&str> = r.watch.iter().map(|w| w.name.as_str()).collect();
        let cmp = cedar_verify::compare_backends(&program, &cfg.pass, &cfg.mc, &watch, cfg.rel_tol)
            .map_err(|e| OracleFailure::new(Phase::BackendDiff, e))?;
        if let Some(bad) = cmp.first_failure() {
            let diff = match &bad.outcome {
                cedar_verify::BackendOutcome::Divergence(d) => Some(d.clone()),
                _ => None,
            };
            return Err(OracleFailure {
                phase: Phase::BackendDiff,
                detail: format!("backend `{}` {}", bad.backend.name(), bad.outcome),
                diff,
            });
        }
    }

    let d = digest(&parallel, serial_cycles, parallel_cycles);
    Ok(OracleStats { report: rr.report, serial_cycles, parallel_cycles, known_gaps, digest: d })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenProgram;

    #[test]
    fn seed_zero_passes_all_oracles() {
        let gp = GenProgram::generate(0);
        let r = gp.render();
        let stats = run_oracles(&r, &OracleConfig::default())
            .unwrap_or_else(|f| panic!("seed 0 failed: {f}\n{}", r.source));
        assert!(stats.serial_cycles > 0.0 && stats.parallel_cycles > 0.0);
        assert!(!stats.report.loops.is_empty());
    }

    #[test]
    fn oracle_catches_a_seeded_miscompile() {
        // A program whose "restructured" watch list is deliberately
        // compared against a different variable exposes the machinery:
        // swap exactness so a reduction is required to be bit-identical
        // and the differential oracle must fire for at least some seed.
        // (Reductions with partial accumulators reassociate.)
        let src = "program fz\nparameter (n = 2048)\nreal a(n)\n\
                   do i = 1, n\na(i) = 0.5 + 0.001 * real(i)\nend do\n\
                   s1 = 0.0\ndo i = 1, n\ns1 = s1 + a(i) + a(i) * 0.25\nend do\nend\n";
        let r = Rendered {
            source: src.to_string(),
            watch: vec![WatchVar { name: "s1".into(), exact: true }],
        };
        let err = run_oracles(&r, &OracleConfig::default())
            .expect_err("bit-exactness on a reassociated reduction must fail");
        assert_eq!(err.phase, Phase::Differential);
        let d = err.diff.expect("carries the differing cell");
        assert_eq!(d.var, "s1");
        assert!(d.serial.is_finite() && d.parallel.is_finite());
        // ... and with the honest (approx) contract the same program passes.
        let r2 = Rendered {
            source: src.to_string(),
            watch: vec![WatchVar { name: "s1".into(), exact: false }],
        };
        run_oracles(&r2, &OracleConfig::default()).unwrap();
    }

    #[test]
    fn backend_diff_phase_has_a_stable_tag() {
        // The campaign ledger and CI lane filters key on this string.
        assert_eq!(Phase::BackendDiff.tag(), "backend-diff");
    }

    #[test]
    fn compile_failures_are_reported_not_panicked() {
        let r = Rendered { source: "program fz\nthis is not fortran\nend\n".into(), watch: vec![] };
        let err = run_oracles(&r, &OracleConfig::default()).expect_err("must fail");
        assert_eq!(err.phase, Phase::Compile);
    }
}
