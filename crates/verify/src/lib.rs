#![warn(missing_docs)]
//! Differential validation of restructured programs, with graceful
//! degradation to serial form.
//!
//! The restructurer ([`cedar_restructure`]) is supposed to preserve
//! semantics; this crate *checks* that claim dynamically instead of
//! trusting it. [`restructure_validated`] runs the restructured program
//! against the serial original and then re-runs it under K **seeded
//! schedule perturbations** ([`cedar_sim::fault`]): clock jitter,
//! randomized self-scheduling tie-breaks, delayed `advance` delivery,
//! and memory-latency noise. A legally restructured program is
//! insensitive to all of these — any divergence, runtime fault, or
//! watchdog-detected deadlock is evidence of an illegal transform.
//!
//! ## A verdict is one task set
//!
//! The simulations behind a verdict are independent of each other: the
//! serial reference, the unperturbed candidate (with the happens-before
//! detector collecting, when asked for — it charges no cycles, so that
//! run doubles as the base run) and one perturbed run per seed. Each
//! attempt hands them to a single index-ordered [`cedar_par::par_map`]
//! and judges afterwards, in the order a one-after-the-other schedule
//! would have met the failures:
//!
//! 1. the reference's error — returned as `Err`, it is the input that
//!    is broken;
//! 2. the base run's simulator error, then its divergence from the
//!    reference, then its first race;
//! 3. the first failing seed **in seed order** (error or divergence
//!    from the base run).
//!
//! Later attempts reuse the reference's results and overlap base run
//! and seeds the same way. The verdict hands back what it ran —
//! [`Validated::reference_stats`] and [`Validated::base_stats`] are the
//! counters of the serial reference and of the accepted program's base
//! run — so a caller that reports cycles (the service) simulates
//! neither again. A failing candidate's seed runs are spent
//! for nothing; they are milliseconds, and bounded like every run by
//! the simulator's statement budget and `MachineConfig::cancel`.
//! Verdicts, reports and seed-run vectors do not depend on the worker
//! count (`tests/verdict_jobs.rs`).
//!
//! ## Fallback
//!
//! On failure the validator does not give up: it reverts the implicated
//! loop nest to its serial form (via `PassConfig::suppress_nests`),
//! re-restructures, and tries again — so the output program is always
//! runnable, merely less parallel, and every downgrade is recorded both
//! in the [`ValidationReport`] and in the restructurer's own
//! [`Report`](cedar_restructure::Report) fallback list.
//!
//! Bit-exactness caveat: perturbed schedules change which participant
//! executes which iterations. For reduction loops the per-participant
//! partial sums then accumulate different subsets, and merging them —
//! even in fixed participant order — reassociates floating-point
//! addition. Reduction-free nests are bit-identical across legal
//! perturbations (the property tested in `tests/prop_schedules.rs`);
//! nests with reductions are compared under [`ValidationConfig::rel_tol`].

pub mod comparator;

pub use comparator::{compare_backends, BackendComparison, BackendOutcome, BackendRun};

use cedar_ir::visit::walk_stmts;
use cedar_ir::{Program, Stmt};
use cedar_restructure::{restructure, LoopDecision, PassConfig, Report};
use cedar_sim::{
    CompiledProgram, Engine, ExecStats, FaultConfig, MachineConfig, RaceInfo, SimError,
};
use std::fmt;
use std::sync::Arc;

/// Maximum nests to revert to serial before degrading the whole program.
const MAX_FALLBACKS: usize = 8;

/// How hard to shake the program.
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// Perturbation seeds; one full run per seed.
    pub seeds: Vec<u64>,
    /// Relative tolerance when comparing watched results (reductions
    /// reassociate under perturbed schedules, so exact equality is only
    /// expected of reduction-free nests).
    pub rel_tol: f64,
    /// Probability of dropping `advance` signals (chaos knob). Zero for
    /// real validation; nonzero deliberately breaks DOACROSS cascades
    /// to exercise the deadlock-watchdog fallback path.
    pub drop_advance: f64,
    /// Run the happens-before race detector over the candidate (third
    /// validation layer): a race fails the candidate even when its
    /// results happen to match, because the serial host order of the
    /// simulator can mask what a real machine would interleave.
    pub detect_races: bool,
}

impl Default for ValidationConfig {
    fn default() -> ValidationConfig {
        ValidationConfig {
            seeds: (1..=8).collect(),
            rel_tol: 1e-3,
            drop_advance: 0.0,
            detect_races: true,
        }
    }
}

impl ValidationConfig {
    /// The fault profile used for seed `s`.
    fn profile(&self, s: u64) -> FaultConfig {
        if self.drop_advance > 0.0 {
            FaultConfig::with_drops(s, self.drop_advance)
        } else {
            FaultConfig::legal(s)
        }
    }
}

/// One perturbed run of the accepted program.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// Perturbation seed.
    pub seed: u64,
    /// Simulated cycles under this schedule.
    pub cycles: f64,
    /// Watched results matched the unperturbed run bit for bit.
    pub bit_identical: bool,
    /// Largest relative deviation from the unperturbed run.
    pub max_rel_err: f64,
}

/// A memory snapshot of watched variables: `(name, flattened values)`.
/// Arrays are flattened column-major, scalars are one element — the
/// shape [`cedar_sim::Simulator::read_f64`] returns.
pub type Snapshot = Vec<(String, Vec<f64>)>;

/// The first memory cell where two runs disagree: which variable, which
/// flattened element, and both values. This is what a failure bundle
/// needs to be actionable — a bare "mismatch" flag forces whoever
/// triages the bundle to re-run both sides by hand.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// Watched variable name.
    pub var: String,
    /// Flattened (column-major) element index; 0 for scalars.
    pub index: usize,
    /// Value the serial reference computed.
    pub serial: f64,
    /// Value the candidate (restructured/parallel) run computed.
    pub parallel: f64,
    /// Relative error between the two, `|s - p| / max(|s|, 1)`.
    pub rel_err: f64,
}

impl fmt::Display for CellDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}({})`: serial {:e} vs parallel {:e} (rel err {:.2e})",
            self.var, self.index, self.serial, self.parallel, self.rel_err
        )
    }
}

fn rel_err(s: f64, p: f64) -> f64 {
    if s.to_bits() == p.to_bits() {
        return 0.0;
    }
    let e = (s - p).abs() / s.abs().max(1.0);
    if e.is_nan() {
        f64::INFINITY
    } else {
        e
    }
}

/// The first cell whose relative error exceeds `rel_tol`, scanning
/// variables and elements in order. A variable missing from `parallel`
/// or a length mismatch reports the first uncomparable cell with the
/// absent side as NaN and infinite error.
pub fn first_diff(serial: &Snapshot, parallel: &Snapshot, rel_tol: f64) -> Option<CellDiff> {
    scan_diff(serial, parallel, |s, p| rel_err(s, p) > rel_tol)
}

/// The first cell that differs in bit pattern (the strict form of
/// [`first_diff`]: legal transforms of reduction-free programs must be
/// bit-identical under the deterministic simulator).
pub fn first_bit_diff(serial: &Snapshot, parallel: &Snapshot) -> Option<CellDiff> {
    scan_diff(serial, parallel, |s, p| s.to_bits() != p.to_bits())
}

fn scan_diff(
    serial: &Snapshot,
    parallel: &Snapshot,
    differs: impl Fn(f64, f64) -> bool,
) -> Option<CellDiff> {
    for (name, sv) in serial {
        let Some((_, pv)) = parallel.iter().find(|(n, _)| n == name) else {
            return Some(CellDiff {
                var: name.clone(),
                index: 0,
                serial: sv.first().copied().unwrap_or(f64::NAN),
                parallel: f64::NAN,
                rel_err: f64::INFINITY,
            });
        };
        for k in 0..sv.len().max(pv.len()) {
            let (s, p) =
                (sv.get(k).copied().unwrap_or(f64::NAN), pv.get(k).copied().unwrap_or(f64::NAN));
            if sv.get(k).is_none() || pv.get(k).is_none() || differs(s, p) {
                return Some(CellDiff {
                    var: name.clone(),
                    index: k,
                    serial: s,
                    parallel: p,
                    rel_err: rel_err(s, p),
                });
            }
        }
    }
    None
}

/// One nest the validator reverted to serial.
#[derive(Debug, Clone)]
pub struct FallbackNote {
    /// Enclosing unit name.
    pub unit: String,
    /// Loop header line.
    pub line: u32,
    /// The failure that triggered the downgrade.
    pub reason: String,
    /// First differing memory cell, when the failure was a divergence
    /// (simulator faults and races have no cell to point at).
    pub diff: Option<CellDiff>,
}

/// What validation did and found.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Restructure→check rounds executed (1 = accepted first try).
    pub attempts: usize,
    /// Nests reverted to serial, in downgrade order.
    pub fallbacks: Vec<FallbackNote>,
    /// Per-seed runs of the accepted program.
    pub seed_runs: Vec<SeedRun>,
    /// All parallelism was abandoned (every nest suppression exhausted
    /// or the fallback budget ran out).
    pub degraded_to_serial: bool,
}

impl ValidationReport {
    /// True when every seed run matched bit for bit.
    pub fn all_bit_identical(&self) -> bool {
        self.seed_runs.iter().all(|r| r.bit_identical)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "validation: {} attempt(s), {} seed run(s), {} fallback(s){}",
            self.attempts,
            self.seed_runs.len(),
            self.fallbacks.len(),
            if self.degraded_to_serial { " [degraded to serial]" } else { "" },
        )?;
        for fb in &self.fallbacks {
            writeln!(f, "  fallback [{}:line {}]: {}", fb.unit, fb.line, fb.reason)?;
        }
        for r in &self.seed_runs {
            writeln!(
                f,
                "  seed {}: {:.0} cycles, {}",
                r.seed,
                r.cycles,
                if r.bit_identical {
                    "bit-identical".to_string()
                } else {
                    format!("max rel err {:.2e}", r.max_rel_err)
                }
            )?;
        }
        Ok(())
    }
}

/// A restructured program that survived differential validation.
#[derive(Debug, Clone)]
pub struct Validated {
    /// The accepted (possibly partially degraded) program.
    pub program: Program,
    /// The restructurer's decision log for the accepted configuration,
    /// including its `fallbacks` records.
    pub report: Report,
    /// What validation observed.
    pub validation: ValidationReport,
    /// Counters of the serial reference run every attempt was judged
    /// against (the input as it stands, on the verdict's machine).
    pub reference_stats: ExecStats,
    /// Counters of the accepted program's unperturbed base run — the
    /// race-collecting run when the detector was asked for, which
    /// charges nothing, so they are a plain run's. `None` only when the
    /// verdict degraded to a serial program that did not pass its own
    /// check (there is no completed run of it to report).
    pub base_stats: Option<ExecStats>,
}

/// Why a candidate program was rejected.
enum Failure {
    /// Not the candidate's fault: the serial original itself cannot
    /// run, so there is nothing to validate against.
    Reference { err: SimError },
    /// A run died with a structured error (deadlock, out-of-bounds, ...).
    Sim { seed: Option<u64>, err: SimError },
    /// A run completed but computed different results; carries the
    /// first differing memory cell.
    Divergence { seed: Option<u64>, diff: CellDiff, max_rel_err: f64 },
    /// The happens-before detector found unordered conflicting accesses.
    Race { info: Box<RaceInfo> },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let seed = |s: &Option<u64>| match s {
            Some(s) => format!("perturbed run (seed {s})"),
            None => "unperturbed run".to_string(),
        };
        match self {
            Failure::Reference { err } => write!(f, "serial reference failed: {err}"),
            Failure::Sim { seed: s, err } => write!(f, "{} failed: {}", seed(s), err),
            Failure::Divergence { seed: s, diff, max_rel_err } => {
                write!(f, "{} diverged at {diff}, max rel err {max_rel_err:.2e}", seed(s))
            }
            Failure::Race { info } => write!(f, "race detector: {info}"),
        }
    }
}

impl Failure {
    /// Source line implicated by the failure, when known.
    fn line(&self) -> Option<u32> {
        match self {
            Failure::Sim { err, .. } if err.span.line > 0 => Some(err.span.line),
            Failure::Race { info } => {
                // Both racing statements sit under the offending nest's
                // header; either line locates it.
                [info.other_span.line, info.writer_span.line].into_iter().find(|&l| l > 0)
            }
            _ => None,
        }
    }

    /// First differing memory cell, for divergence failures.
    fn diff(&self) -> Option<CellDiff> {
        match self {
            Failure::Divergence { diff, .. } => Some(diff.clone()),
            _ => None,
        }
    }
}

/// Watched results of one run.
type Watched = Vec<(String, Vec<f64>)>;

fn run_watched(
    program: &Program,
    mc: &MachineConfig,
    faults: Option<FaultConfig>,
    watch: &[&str],
    artifact: Option<&Arc<CompiledProgram>>,
) -> Result<(Watched, ExecStats), SimError> {
    let mut sim = match artifact {
        // Compile-once/run-many: the K-seed sweep shares one immutable
        // bytecode artifact instead of re-lowering the program per run.
        Some(a) => cedar_sim::Simulator::with_artifact(program, mc.clone(), Arc::clone(a))?,
        None => cedar_sim::Simulator::new(program, mc.clone())?,
    };
    if let Some(f) = faults {
        sim.set_faults(f);
    }
    sim.run_main()?;
    let results =
        watch.iter().filter_map(|w| sim.read_f64(w).map(|v| (w.to_string(), v))).collect();
    Ok((results, sim.stats))
}

/// Compare two watched-result sets; returns `(bit_identical,
/// max_rel_err, first_cell_beyond_tol)`.
fn compare(a: &Watched, b: &Watched, rel_tol: f64) -> (bool, f64, Option<CellDiff>) {
    let mut max_err = 0.0f64;
    let mut bitwise = true;
    for ((_, va), (_, vb)) in a.iter().zip(b) {
        if va.len() != vb.len() {
            return (false, f64::INFINITY, first_diff(a, b, rel_tol));
        }
        for (x, y) in va.iter().zip(vb) {
            if x.to_bits() != y.to_bits() {
                bitwise = false;
            }
            max_err = max_err.max(rel_err(*x, *y));
        }
    }
    let diff = if max_err > rel_tol { first_diff(a, b, rel_tol) } else { None };
    (bitwise, max_err, diff)
}

/// One simulation of a verdict's task set.
enum Task {
    /// The serial original, unperturbed.
    Reference,
    /// The candidate, unperturbed (race-collecting when asked for).
    Base,
    /// The candidate under the perturbation of one seed.
    Seed(u64),
}

/// What one task observed: the watched results, the run's counters
/// (cycles among them), and — from a race-collecting base run — the
/// first race.
type Observed = (Watched, ExecStats, Option<RaceInfo>);

/// The serial reference as the first attempt's task set ran it.
type Reference = (Watched, ExecStats);

/// Check one candidate program: unperturbed against the serial
/// reference, then every seed against the unperturbed candidate.
///
/// All of it is **one task set**: the reference (on the first attempt;
/// later attempts find it in `reference`), the base run and the K seed
/// runs are independent simulations and go through a single
/// index-ordered [`cedar_par::par_map`]. Judging happens afterwards, in
/// the order a one-after-the-other schedule would have met the
/// failures: the reference's error; the base run's error, its
/// divergence from the reference, its first race; then the first
/// failing seed in seed order. A failing candidate's seed runs are
/// spent for nothing — a few milliseconds, bounded like every run by
/// the statement budget and `mc.cancel`.
fn check(
    program: &Program,
    candidate: &Program,
    mc: &MachineConfig,
    watch: &[&str],
    vcfg: &ValidationConfig,
    reference: &mut Option<Reference>,
) -> Result<(Vec<SeedRun>, ExecStats), Failure> {
    // One lowering of the candidate serves the base run, the race run,
    // and every perturbed seed (compile is pure: config-independent).
    let artifact = (mc.engine == Engine::Vm).then(|| cedar_sim::compile(candidate));
    let artifact = artifact.as_ref();

    // The base run goes first: `par_map` runs a sweep's first item on
    // the calling thread, and the race-collecting run is the one with
    // the large footprint (shadow cells) — kept on one thread, it keeps
    // to one allocator arena.
    let mut tasks = Vec::with_capacity(vcfg.seeds.len() + 2);
    tasks.push(Task::Base);
    if reference.is_none() {
        tasks.push(Task::Reference);
    }
    tasks.extend(vcfg.seeds.iter().map(|&s| Task::Seed(s)));
    let mut ran = cedar_par::par_map(tasks, |task| -> Result<Observed, SimError> {
        let plain = |p: &Program, faults, artifact| {
            run_watched(p, mc, faults, watch, artifact).map(|(got, stats)| (got, stats, None))
        };
        match task {
            Task::Reference => plain(program, None, None),
            // Base run + third layer in one simulation: the
            // happens-before detector (collect-all mode, unperturbed
            // schedule) charges zero cycles and never perturbs results,
            // so the race-collecting run doubles as the base run. The
            // simulator executes iterations in host order, so a racy
            // nest can produce matching results yet still be wrong on a
            // real machine — the detector catches exactly that.
            Task::Base if vcfg.detect_races => {
                let traced = match artifact {
                    Some(a) => {
                        cedar_sim::run_collecting_races_precompiled(candidate, mc.clone(), a)
                    }
                    None => cedar_sim::run_collecting_races(candidate, mc.clone()),
                }?;
                let base = watch
                    .iter()
                    .filter_map(|w| traced.read_f64(w).map(|v| (w.to_string(), v)))
                    .collect();
                let first_race = traced.race_report().first().cloned();
                Ok((base, traced.stats, first_race))
            }
            Task::Base => plain(candidate, None, artifact),
            Task::Seed(s) => plain(candidate, Some(vcfg.profile(s)), artifact),
        }
    })
    .into_iter();

    let base = ran.next().expect("the base task");
    if reference.is_none() {
        let (serial, stats, _) =
            ran.next().expect("the reference task").map_err(|err| Failure::Reference { err })?;
        *reference = Some((serial, stats));
    }
    let (reference, _) = reference.as_ref().expect("set above or by an earlier attempt");

    // The divergence is reported before the race, as the more direct
    // failure; both come from the same run's outputs.
    let (base, base_stats, first_race) = base.map_err(|err| Failure::Sim { seed: None, err })?;
    let (_, max_rel_err, diff) = compare(reference, &base, vcfg.rel_tol);
    if let Some(diff) = diff {
        return Err(Failure::Divergence { seed: None, diff, max_rel_err });
    }
    if let Some(first) = first_race {
        return Err(Failure::Race { info: Box::new(first) });
    }

    // Results are in seed order, so collecting into `Result` reports
    // the first failing seed, exactly as a serial loop would.
    let seed_runs = vcfg
        .seeds
        .iter()
        .zip(ran)
        .map(|(&s, run)| {
            let (got, stats, _) = run.map_err(|err| Failure::Sim { seed: Some(s), err })?;
            let (bit_identical, max_rel_err, diff) = compare(&base, &got, vcfg.rel_tol);
            if let Some(diff) = diff {
                return Err(Failure::Divergence { seed: Some(s), diff, max_rel_err });
            }
            Ok(SeedRun { seed: s, cycles: stats.cycles, bit_identical, max_rel_err })
        })
        .collect::<Result<Vec<SeedRun>, Failure>>()?;
    Ok((seed_runs, base_stats))
}

/// Parallel nest headers `(unit, line)` eligible for suppression: the
/// report's parallelized loops in visit order, plus any user-directive
/// parallel loops still present in the candidate program (hand-written
/// Cedar Fortran the restructurer passed through — the report does not
/// list those, but the validator must be able to demote them too).
fn parallel_nests(report: &Report, candidate: &Program) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = report
        .loops
        .iter()
        .filter(|l| !matches!(l.decision, LoopDecision::Serial { .. }))
        .map(|l| (l.unit.clone(), l.span.line))
        .collect();
    for unit in &candidate.units {
        walk_stmts(&unit.body, &mut |s| match s {
            Stmt::Loop(l) if l.class.is_parallel() => {
                let key = (unit.name.clone(), l.span.line);
                if !out.contains(&key) {
                    out.push(key);
                }
            }
            _ => {}
        });
    }
    out
}

/// Pick the nest to revert for a failure: the parallelized nest whose
/// header is closest above the failing line, else the first candidate
/// (greedy — the loop keeps reverting until validation passes).
fn pick_nest(candidates: &[(String, u32)], failure: &Failure) -> (String, u32) {
    if let Some(line) = failure.line() {
        if let Some(best) = candidates.iter().filter(|(_, l)| *l <= line).max_by_key(|(_, l)| *l) {
            return best.clone();
        }
    }
    candidates[0].clone()
}

/// Restructure `program` under `cfg` and differentially validate the
/// result across perturbed schedules, reverting nests to serial until
/// the program validates. Fails only when the *serial reference itself*
/// cannot run — a broken input program, not a broken transform.
pub fn restructure_validated(
    program: &Program,
    cfg: &PassConfig,
    mc: &MachineConfig,
    watch: &[&str],
    vcfg: &ValidationConfig,
) -> Result<Validated, SimError> {
    // Run by the first attempt's task set, reused by every later one.
    let mut reference = None;
    let mut cfg = cfg.clone();
    let mut fallbacks: Vec<FallbackNote> = Vec::new();
    let mut attempts = 0;
    loop {
        attempts += 1;
        let rr = restructure(program, &cfg);
        match check(program, &rr.program, mc, watch, vcfg, &mut reference) {
            Err(Failure::Reference { err }) => return Err(err),
            Ok((seed_runs, base_stats)) => {
                return Ok(Validated {
                    program: rr.program,
                    report: rr.report,
                    validation: ValidationReport {
                        attempts,
                        fallbacks,
                        seed_runs,
                        degraded_to_serial: false,
                    },
                    reference_stats: reference.expect("a passed check ran or found it").1,
                    base_stats: Some(base_stats),
                })
            }
            Err(failure) => {
                let suppressed = &cfg.suppress_nests;
                let candidates: Vec<(String, u32)> = parallel_nests(&rr.report, &rr.program)
                    .into_iter()
                    .filter(|c| !suppressed.contains(c))
                    .collect();
                if candidates.is_empty() || fallbacks.len() >= MAX_FALLBACKS {
                    // Out of suspects (or budget): abandon all
                    // parallelism. The serial identity always validates
                    // — perturbations only reorder parallel schedules.
                    // Hand-written directive nests survive a plain
                    // serial pass, so suppress every known parallel
                    // nest explicitly.
                    let mut serial_cfg = PassConfig::serial();
                    serial_cfg.suppress_nests =
                        candidates.iter().chain(suppressed.iter()).cloned().collect();
                    let rr = restructure(program, &serial_cfg);
                    let mut report = rr.report;
                    report.record_fallback(
                        "<program>",
                        cedar_ir::Span::NONE,
                        format!("degraded to fully serial: {failure}"),
                    );
                    fallbacks.push(FallbackNote {
                        unit: "<program>".into(),
                        line: 0,
                        reason: format!("degraded to fully serial: {failure}"),
                        diff: failure.diff(),
                    });
                    let (seed_runs, base_stats) =
                        check(program, &rr.program, mc, watch, vcfg, &mut reference).ok().unzip();
                    return Ok(Validated {
                        program: rr.program,
                        report,
                        validation: ValidationReport {
                            attempts,
                            fallbacks,
                            seed_runs: seed_runs.unwrap_or_default(),
                            degraded_to_serial: true,
                        },
                        reference_stats: reference.expect("a candidate failed against it").1,
                        base_stats,
                    });
                }
                let (unit, line) = pick_nest(&candidates, &failure);
                fallbacks.push(FallbackNote {
                    unit: unit.clone(),
                    line,
                    reason: failure.to_string(),
                    diff: failure.diff(),
                });
                cfg.suppress_nests.push((unit, line));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    fn doall_src() -> &'static str {
        // Reduction-free, trivially parallelizable.
        "program p\nparameter (n = 256)\nreal a(n), b(n)\ndo i = 1, n\n\
         b(i) = i * 1.0\nend do\ndo i = 1, n\na(i) = sqrt(b(i)) + b(i)\nend do\n\
         x = a(100)\ny = a(7)\nend\n"
    }

    fn doacross_src() -> &'static str {
        // Distance-1 recurrence behind enough independent work that the
        // profitability model accepts a DOACROSS cascade (the sync
        // region must be a small fraction of the body).
        "program p\nparameter (n = 96)\nreal a(n), b(n), c(n)\ndo i = 1, n\n\
         b(i) = i * 1.0\nc(i) = i * 0.5\nend do\na(1) = 1.0\ndo i = 2, n\n\
         t = sqrt(b(i)) + sqrt(c(i)) + sin(b(i)) * cos(c(i)) + exp(c(i) * 0.01)\n\
         a(i) = a(i - 1) * 0.5 + t\nend do\nx = a(n)\nend\n"
    }

    /// The shared-temporary `CDOALL` the race detector alone can reject.
    fn racy_directive_src() -> &'static str {
        "program p\nparameter (n = 64)\nreal a(n), t\n\
         do i = 1, n\na(i) = real(i)\nend do\n\
         cdoall i = 1, n\nt = a(i) * 2.0\na(i) = t + 1.0\nend cdoall\n\
         x = a(n)\nend\n"
    }

    #[test]
    fn clean_doall_validates_bit_identically() {
        let p = compile_free(doall_src()).unwrap();
        let vcfg = ValidationConfig { seeds: vec![1, 2, 3, 4], ..Default::default() };
        let v = restructure_validated(
            &p,
            &PassConfig::automatic_1991(),
            &MachineConfig::cedar_config1_scaled(),
            &["x", "y"],
            &vcfg,
        )
        .unwrap();
        assert!(v.validation.fallbacks.is_empty(), "{}", v.validation);
        assert_eq!(v.validation.attempts, 1);
        assert_eq!(v.validation.seed_runs.len(), 4);
        assert!(
            v.validation.all_bit_identical(),
            "reduction-free nest must be schedule-insensitive:\n{}",
            v.validation
        );
    }

    #[test]
    fn clean_doacross_validates() {
        let p = compile_free(doacross_src()).unwrap();
        let v = restructure_validated(
            &p,
            &PassConfig::automatic_1991(),
            &MachineConfig::cedar_config1_scaled(),
            &["x"],
            &ValidationConfig { seeds: vec![1, 2, 3], ..Default::default() },
        )
        .unwrap();
        assert!(v.validation.fallbacks.is_empty(), "{}", v.validation);
        assert!(v.validation.all_bit_identical(), "{}", v.validation);
    }

    #[test]
    fn a_long_cascade_validates_in_time_linear_in_its_trip_count() {
        // 1 536 iterations of the recurrence: the race-collecting run
        // alone took 25 s while the detector kept a clock per sibling
        // iteration (cubic in the trip count), most of a service
        // request's 30 s deadline — for a program whose simulations take
        // 2 ms. The awaits prove the cascade ran: a serial fallback
        // would pass in no time too.
        let src = doacross_src().replace("n = 96", "n = 1536");
        let p = compile_free(&src).unwrap();
        let v = restructure_validated(
            &p,
            &PassConfig::automatic_1991(),
            &MachineConfig::cedar_config1_scaled(),
            &["x"],
            &ValidationConfig { seeds: vec![1, 2], ..Default::default() },
        )
        .unwrap();
        assert!(v.validation.fallbacks.is_empty(), "{}", v.validation);
        assert_eq!(v.validation.attempts, 1);
        let base = v.base_stats.expect("the accepted program's base run");
        assert!(base.awaits >= 1535, "the cascade did not run: {} awaits", base.awaits);
    }

    #[test]
    fn the_verdict_hands_back_the_runs_it_made() {
        // Counters of the reference and of the accepted program's base
        // run equal a plain run's to the last field — the detector
        // charges nothing — whether accepted at once (DOALL, cascade),
        // on a later attempt (which finds the reference already run) or
        // not at all (degraded, and the serial program fails its check:
        // the task group races whatever is suppressed).
        let racy_tasks = "program p\nreal s\ns = 0.0\ncall ctskstart(add, s, 1.0)\n\
                          call ctskstart(add, s, 2.0)\ncall tskwait\nx = s\nend\n\
                          subroutine add(s, v)\nreal s, v\ns = s + v\nend\n";
        let mc = MachineConfig::cedar_config1_scaled();
        let plain = |p: &Program| format!("{:?}", cedar_sim::run(p, mc.clone()).unwrap().stats);
        for (src, attempts, degraded) in [
            (doall_src(), 1, false),
            (doacross_src(), 1, false),
            (racy_directive_src(), 2, false),
            (racy_tasks, 1, true),
        ] {
            let p = compile_free(src).unwrap();
            let v = restructure_validated(
                &p,
                &PassConfig::automatic_1991(),
                &mc,
                &["x"],
                &ValidationConfig { seeds: vec![1, 2], ..Default::default() },
            )
            .unwrap();
            assert_eq!(v.validation.attempts, attempts, "{}", v.validation);
            assert_eq!(v.validation.degraded_to_serial, degraded, "{}", v.validation);
            assert_eq!(format!("{:?}", v.reference_stats), plain(&p));
            assert_eq!(v.base_stats.is_none(), degraded);
            if let Some(base) = &v.base_stats {
                assert_eq!(format!("{base:?}"), plain(&v.program));
            }
        }
    }

    #[test]
    fn racy_directive_nest_is_demoted_with_a_cited_race() {
        // Hand-written Cedar Fortran with a classic bug: a shared
        // scalar temporary in a CDOALL. Host-order execution computes
        // the right answer, so only the race detector can reject it —
        // and the validator must then demote the directive nest.
        let p = compile_free(racy_directive_src()).unwrap();
        let v = restructure_validated(
            &p,
            &PassConfig::automatic_1991(),
            &MachineConfig::cedar_config1_scaled(),
            &["x"],
            &ValidationConfig { seeds: vec![1, 2], ..Default::default() },
        )
        .unwrap();
        assert!(!v.validation.fallbacks.is_empty(), "{}", v.validation);
        let note = &v.validation.fallbacks[0];
        assert!(note.reason.contains("race detector"), "{}", note.reason);
        assert!(note.reason.contains("`t`"), "race must cite the variable: {}", note.reason);
        assert!(
            note.reason.contains("conflicts with"),
            "race must cite the statement pair: {}",
            note.reason
        );
        // The demoted program is race-free and still correct.
        let traced =
            cedar_sim::run_collecting_races(&v.program, MachineConfig::cedar_config1_scaled())
                .unwrap();
        assert_eq!(traced.races_detected(), 0);
        assert!(!v.validation.degraded_to_serial, "one nest demotion suffices:\n{}", v.validation);
    }

    #[test]
    fn racy_directive_nest_is_demoted_even_in_pass_through() {
        // Same racy directive program, but under a `parallelize = false`
        // base config: the restructurer's pass-through path must still
        // honor nest suppression, or the validator could never converge
        // on hand-written Cedar Fortran it merely audits.
        let src = "program p\nparameter (n = 32)\nreal a(n), t\n\
                   do i = 1, n\na(i) = real(i)\nend do\n\
                   cdoall i = 1, n\nt = a(i) * 2.0\na(i) = t + 1.0\nend cdoall\n\
                   x = a(5)\nend\n";
        let p = compile_free(src).unwrap();
        let v = restructure_validated(
            &p,
            &PassConfig::serial(),
            &MachineConfig::cedar_config1_scaled(),
            &["a", "x"],
            &ValidationConfig { seeds: vec![1, 2], ..Default::default() },
        )
        .unwrap();
        assert!(!v.validation.fallbacks.is_empty(), "{}", v.validation);
        assert!(v.validation.fallbacks[0].reason.contains("race detector"));
        let traced =
            cedar_sim::run_collecting_races(&v.program, MachineConfig::cedar_config1_scaled())
                .unwrap();
        assert_eq!(traced.races_detected(), 0, "demoted program must be race-free");
    }

    #[test]
    fn race_detection_can_be_disabled() {
        let src = "program p\nparameter (n = 64)\nreal a(n), t\n\
                   do i = 1, n\na(i) = real(i)\nend do\n\
                   cdoall i = 1, n\nt = a(i) * 2.0\na(i) = t + 1.0\nend cdoall\nend\n";
        let p = compile_free(src).unwrap();
        let v = restructure_validated(
            &p,
            &PassConfig::automatic_1991(),
            &MachineConfig::cedar_config1_scaled(),
            &[],
            &ValidationConfig { seeds: vec![1], detect_races: false, ..Default::default() },
        )
        .unwrap();
        // Without the third layer (and with nothing watched), the racy
        // directive nest sails through — which is exactly why the layer
        // defaults to on.
        assert!(v.validation.fallbacks.is_empty(), "{}", v.validation);
    }

    #[test]
    fn first_diff_pinpoints_the_cell() {
        let serial: Snapshot = vec![("a".into(), vec![1.0, 2.0, 3.0]), ("s".into(), vec![10.0])];
        let mut parallel = serial.clone();
        assert_eq!(first_diff(&serial, &parallel, 0.0), None);
        assert_eq!(first_bit_diff(&serial, &parallel), None);

        parallel[0].1[2] = 3.5;
        parallel[1].1[0] = 11.0;
        let d = first_diff(&serial, &parallel, 1e-3).expect("diff found");
        assert_eq!((d.var.as_str(), d.index), ("a", 2));
        assert_eq!((d.serial, d.parallel), (3.0, 3.5));
        assert!(d.to_string().contains("`a(2)`"), "{d}");

        // Within tolerance: the relative check passes, the bit check
        // still points at the cell.
        let mut close = serial.clone();
        close[1].1[0] = 10.0 + 1e-9;
        assert_eq!(first_diff(&serial, &close, 1e-3), None);
        let d = first_bit_diff(&serial, &close).expect("bit diff");
        assert_eq!((d.var.as_str(), d.index), ("s", 0));

        // A variable missing entirely is an infinite-error diff.
        let d = first_diff(&serial, &parallel[..1].to_vec(), 1e-3).expect("missing var");
        assert_eq!(d.var, "a"); // a(2) still differs first
        let d = first_diff(&serial[1..].to_vec(), &Vec::new(), 1e-3).expect("missing var");
        assert_eq!(d.var, "s");
        assert!(d.rel_err.is_infinite());
    }

    #[test]
    fn divergence_failure_carries_the_cell() {
        // A racy directive nest that *changes results*: partial sums
        // into a shared scalar would still agree in host order, so use
        // an order-sensitive overwrite instead. Disable race detection
        // so the divergence path (not the race path) must catch it.
        let src = "program p\nparameter (n = 64)\nreal a(n)\nt = 0.0\n\
                   cdoall i = 1, n\nt = real(i)\na(i) = t\nend cdoall\nx = t\nend\n";
        let p = compile_free(src).unwrap();
        let v = restructure_validated(
            &p,
            &PassConfig::serial(),
            &MachineConfig::cedar_config1_scaled(),
            &["x", "a"],
            &ValidationConfig { seeds: vec![1, 2, 3], detect_races: false, ..Default::default() },
        )
        .unwrap();
        // Under perturbed tie-breaks some iteration other than the last
        // can write `t` last; the validator must report the exact cell.
        if let Some(note) = v.validation.fallbacks.first() {
            let d = note.diff.as_ref().expect("divergence carries a cell diff");
            assert!(!d.var.is_empty());
            assert!(note.reason.contains("diverged at"), "{}", note.reason);
            assert!(note.reason.contains(&format!("`{}(", d.var)), "{}", note.reason);
        }
    }

    #[test]
    fn dropped_advances_force_serial_fallback() {
        let p = compile_free(doacross_src()).unwrap();
        // Dropping every advance makes any emitted DOACROSS deadlock
        // under perturbation; validation must detect it via the
        // watchdog and revert the nest rather than hang or panic.
        let vcfg = ValidationConfig { seeds: vec![1, 2], drop_advance: 1.0, ..Default::default() };
        let v = restructure_validated(
            &p,
            &PassConfig::automatic_1991(),
            &MachineConfig::cedar_config1_scaled(),
            &["x"],
            &vcfg,
        )
        .unwrap();
        assert!(!v.validation.fallbacks.is_empty(), "expected a fallback, got:\n{}", v.validation);
        assert!(
            v.validation.fallbacks[0].reason.contains("deadlock"),
            "fallback should be deadlock-triggered: {}",
            v.validation.fallbacks[0].reason
        );
        // The downgrade is visible in the restructurer's own report.
        assert!(!v.report.fallbacks.is_empty() || v.validation.degraded_to_serial);
        // And the accepted program still computes the right answer.
        let mc = MachineConfig::cedar_config1_scaled();
        let (got, _) = run_watched(&v.program, &mc, None, &["x"], None).unwrap();
        let (reference, _) = run_watched(&p, &mc, None, &["x"], None).unwrap();
        assert_eq!(got, reference);
    }

    // ---- the verdict's task set: judged in the order a
    // one-after-the-other schedule would have met the failures ----

    /// A candidate whose results depend on the schedule and on nothing
    /// else: each CE counts the iterations it has run in its own copy of
    /// `t`. No race (loop locals are per CE), no fault — only which CE
    /// took which of the unevenly long iterations, which every
    /// perturbation seed reshuffles.
    fn schedule_dependent_src() -> &'static str {
        "program p\nparameter (n = 32)\nreal a(n)\nglobal a\n\
         cdoall i = 1, n\ninteger t\nreal w\nt = t + 1\ndo j = 1, mod(i * 7, 11)\n\
         w = w + sqrt(real(j))\nend do\na(i) = t * 1.0\nend cdoall\nend\n"
    }

    fn judge(
        program: &str,
        candidate: &str,
        seeds: &[u64],
    ) -> Result<(Vec<SeedRun>, ExecStats), Failure> {
        let vcfg = ValidationConfig { seeds: seeds.to_vec(), rel_tol: 1e-9, ..Default::default() };
        check(
            &compile_free(program).unwrap(),
            &compile_free(candidate).unwrap(),
            &MachineConfig::cedar_config1(),
            &["a"],
            &vcfg,
            &mut None,
        )
    }

    #[test]
    fn a_failing_reference_outranks_a_racing_candidate() {
        // The input races in its directive loop *and* runs off the end
        // of `a`: there is nothing to validate against, and the error
        // returned is the reference's, not a fallback note.
        let src = "program p\nparameter (n = 16)\nreal a(n), t\n\
                   cdoall i = 1, n\nt = i * 2.0\na(i) = t + 1.0\nend cdoall\n\
                   do i = 1, n + 1\na(i) = a(i) + 1.0\nend do\nend\n";
        let p = compile_free(src).unwrap();
        let mc = MachineConfig::cedar_config1();
        let want = cedar_sim::run(&p, mc.clone()).err().expect("the input cannot run");
        let got = restructure_validated(
            &p,
            &PassConfig::automatic_1991(),
            &mc,
            &["a"],
            &ValidationConfig { seeds: vec![1, 2], ..Default::default() },
        )
        .expect_err("a broken input is refused");
        assert_eq!((got.kind, &got.msg, got.span), (want.kind, &want.msg, want.span));
        assert!(matches!(
            judge(src, src, &[1, 2]),
            Err(Failure::Reference { err }) if err.kind == want.kind
        ));
    }

    #[test]
    fn the_first_failing_seed_is_reported_and_the_base_run_before_any_seed() {
        let racing = schedule_dependent_src();
        let seeds = [5u64, 1, 9, 4, 3, 7, 2];
        // Against itself the base run matches the reference, so what
        // fails are the seeds — which ones, found one run at a time.
        let (p, mc) = (compile_free(racing).unwrap(), MachineConfig::cedar_config1());
        let (base, _) = run_watched(&p, &mc, None, &["a"], None).unwrap();
        let failing: Vec<u64> = seeds
            .iter()
            .copied()
            .filter(|&s| {
                let (got, _) =
                    run_watched(&p, &mc, Some(FaultConfig::legal(s)), &["a"], None).unwrap();
                compare(&base, &got, 1e-9).2.is_some()
            })
            .collect();
        assert!(
            failing.len() >= 2 && failing[0] != seeds[0],
            "seeds to choose between: {failing:?}"
        );
        for jobs in [1, 4] {
            let verdict = cedar_par::with_jobs(jobs, || judge(racing, racing, &seeds));
            assert!(
                matches!(verdict, Err(Failure::Divergence { seed: Some(s), .. }) if s == failing[0]),
                "jobs {jobs}: the first failing seed in seed order is {}",
                failing[0]
            );
            // Held against another program's results, the same candidate
            // fails in its base run already; that is what is reported.
            let other = "program p\nparameter (n = 32)\nreal a(n)\na(1:n) = 1.0\nend\n";
            let verdict = cedar_par::with_jobs(jobs, || judge(other, racing, &seeds));
            assert!(
                matches!(verdict, Err(Failure::Divergence { seed: None, .. })),
                "jobs {jobs}: the base run's divergence comes first"
            );
        }
    }

    #[test]
    fn later_attempts_reuse_the_reference() {
        let p = compile_free(doall_src()).unwrap();
        let rr = restructure(&p, &PassConfig::automatic_1991());
        let (mc, vcfg) = (MachineConfig::cedar_config1(), ValidationConfig::default());
        let mut reference = None;
        let first = check(&p, &rr.program, &mc, &["x", "y"], &vcfg, &mut reference).ok().unwrap();
        let kept = reference.clone().expect("the first attempt ran the reference");
        // A reference that is already there is used, not run again.
        reference.as_mut().unwrap().0[0].1[0] += 1.0;
        let second = check(&p, &rr.program, &mc, &["x", "y"], &vcfg, &mut reference);
        assert!(matches!(second, Err(Failure::Divergence { seed: None, .. })));
        let third = check(&p, &rr.program, &mc, &["x", "y"], &vcfg, &mut Some(kept)).ok().unwrap();
        assert_eq!(format!("{first:?}"), format!("{third:?}"));
    }
}
