//! Cross-backend comparator: every emission backend must compute the
//! same answers.
//!
//! For one input program the comparator runs the restructurer once,
//! emits the result through every [`BackendKind`], re-parses each
//! emission through the front end (an emission that does not re-parse is
//! already a failure), simulates it, and compares watched memory
//! cell-for-cell against the re-parsed **serial** emission — the
//! directive-free reference. The serial reference itself is compared
//! against a direct simulation of the input program, so a serial backend
//! that mangles semantics cannot silently become the yardstick.
//!
//! Comparison regime: reduction loops merge per-participant partials,
//! and the participant count differs per backend (a Cedar `CDOALL` uses
//! one cluster's CEs, the OpenMP re-lowering an `XDOALL` uses all of
//! them), so floating-point results legally differ by reassociation.
//! Watched cells therefore compare under a relative tolerance, like
//! [`crate::restructure_validated`]'s perturbed schedules; bit equality
//! is recorded when it happens (`bit_identical`) because reduction-free
//! programs must achieve it.

use crate::{first_bit_diff, first_diff, CellDiff, Snapshot};
use cedar_ir::Program;
use cedar_restructure::{BackendKind, EmitInput, PassConfig};
use cedar_sim::MachineConfig;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What one backend's emission did when re-parsed and executed.
#[derive(Debug, Clone)]
pub enum BackendOutcome {
    /// Watched memory agreed with the serial reference within tolerance.
    Agrees {
        /// Every watched cell matched the reference bit for bit.
        bit_identical: bool,
        /// Largest relative error across watched cells.
        max_rel_err: f64,
    },
    /// The emission failed to re-parse or re-lower.
    ParseError(String),
    /// The re-parsed program failed to simulate.
    SimError(String),
    /// Results disagreed beyond tolerance; carries the first bad cell.
    Divergence(CellDiff),
}

impl BackendOutcome {
    /// Did this backend agree with the reference?
    pub fn is_agreement(&self) -> bool {
        matches!(self, BackendOutcome::Agrees { .. })
    }
}

impl fmt::Display for BackendOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendOutcome::Agrees { bit_identical: true, .. } => {
                write!(f, "agrees (bit-identical)")
            }
            BackendOutcome::Agrees { max_rel_err, .. } => {
                write!(f, "agrees (max rel err {max_rel_err:.2e})")
            }
            BackendOutcome::ParseError(e) => write!(f, "emission does not re-parse: {e}"),
            BackendOutcome::SimError(e) => write!(f, "re-parsed emission failed: {e}"),
            BackendOutcome::Divergence(d) => write!(f, "diverges at {d}"),
        }
    }
}

/// One backend's leg of the comparison.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Which backend.
    pub backend: BackendKind,
    /// The emitted source text (what a divergence bundle ships).
    pub emission: String,
    /// Simulated cycles of the re-parsed emission, when it ran.
    pub cycles: Option<f64>,
    /// Agreement verdict against the serial reference.
    pub outcome: BackendOutcome,
}

/// The full cross-backend verdict for one input program.
#[derive(Debug, Clone)]
pub struct BackendComparison {
    /// One entry per [`BackendKind`], in canonical order.
    pub runs: Vec<BackendRun>,
}

impl BackendComparison {
    /// True when every backend agreed with the serial reference.
    pub fn agree(&self) -> bool {
        self.runs.iter().all(|r| r.outcome.is_agreement())
    }

    /// The first disagreeing backend, if any.
    pub fn first_failure(&self) -> Option<&BackendRun> {
        self.runs.iter().find(|r| !r.outcome.is_agreement())
    }

    /// The run for one backend (all backends are always present).
    pub fn run(&self, kind: BackendKind) -> &BackendRun {
        self.runs.iter().find(|r| r.backend == kind).expect("comparison covers every backend")
    }
}

impl fmt::Display for BackendComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.runs {
            writeln!(f, "  {:<7} {}", r.backend.name(), r.outcome)?;
        }
        Ok(())
    }
}

fn failure(backend: BackendKind, emission: String, outcome: BackendOutcome) -> BackendRun {
    BackendRun { backend, emission, cycles: None, outcome }
}

/// Simulate `p` on `mc` and snapshot the watch variables.
fn run_watch(p: &Program, mc: &MachineConfig, watch: &[&str]) -> Result<(Snapshot, f64), String> {
    let sim = catch_unwind(AssertUnwindSafe(|| cedar_sim::run(p, mc.clone())))
        .map_err(|p| format!("panic: {}", cedar_par::panic_message(p.as_ref())))?
        .map_err(|e| e.to_string())?;
    let snap = watch.iter().filter_map(|w| sim.read_f64(w).map(|v| (w.to_string(), v))).collect();
    Ok((snap, sim.cycles()))
}

/// Judge a snapshot against the reference under `rel_tol`.
fn verdict(reference: &Snapshot, got: &Snapshot, rel_tol: f64) -> BackendOutcome {
    if let Some(diff) = first_diff(reference, got, rel_tol) {
        return BackendOutcome::Divergence(diff);
    }
    let bit_identical = first_bit_diff(reference, got).is_none();
    let max_rel_err = reference
        .iter()
        .zip(got)
        .flat_map(|((_, a), (_, b))| a.iter().zip(b))
        .map(|(s, p)| (s - p).abs() / s.abs().max(1.0))
        .fold(0.0f64, f64::max);
    BackendOutcome::Agrees { bit_identical, max_rel_err }
}

/// Restructure `original` once, emit through every backend, re-parse and
/// simulate each emission, and compare watched memory against the serial
/// reference under `rel_tol`.
///
/// Never panics on backend misbehaviour: emission panics, re-parse
/// failures and simulator faults all land in the corresponding run's
/// [`BackendOutcome`], so a fuzzing campaign can bundle them.
pub fn compare_backends(
    original: &Program,
    cfg: &PassConfig,
    mc: &MachineConfig,
    watch: &[&str],
    rel_tol: f64,
) -> Result<BackendComparison, String> {
    let rr = catch_unwind(AssertUnwindSafe(|| cedar_restructure::restructure(original, cfg)))
        .map_err(|p| format!("restructure panicked: {}", cedar_par::panic_message(p.as_ref())))?;
    let input = EmitInput { original, restructured: &rr.program, report: &rr.report };

    // The input program's own simulation anchors the serial reference.
    let (anchor, _) = run_watch(original, mc, watch)
        .map_err(|e| format!("input program failed to simulate: {e}"))?;

    let mut runs = Vec::with_capacity(BackendKind::all().len());
    let mut reference: Option<Snapshot> = None;

    // Serial first: every later backend compares against its snapshot.
    let mut kinds = BackendKind::all().to_vec();
    kinds.sort_by_key(|k| *k != BackendKind::Serial);

    for kind in kinds {
        let emission = match catch_unwind(AssertUnwindSafe(|| kind.backend().emit(&input))) {
            Ok(t) => t,
            Err(p) => {
                runs.push(failure(
                    kind,
                    String::new(),
                    BackendOutcome::ParseError(format!(
                        "emitter panicked: {}",
                        cedar_par::panic_message(p.as_ref())
                    )),
                ));
                continue;
            }
        };
        let reparsed = match cedar_ir::compile_source(&emission) {
            Ok(p) => p,
            Err(e) => {
                runs.push(failure(kind, emission, BackendOutcome::ParseError(e.to_string())));
                continue;
            }
        };
        let (snap, cycles) = match run_watch(&reparsed, mc, watch) {
            Ok(r) => r,
            Err(e) => {
                runs.push(failure(kind, emission, BackendOutcome::SimError(e)));
                continue;
            }
        };
        let outcome = match &reference {
            // The serial emission is judged against the input program's
            // direct simulation; everything else against the serial
            // emission.
            None => verdict(&anchor, &snap, rel_tol),
            Some(reference) => verdict(reference, &snap, rel_tol),
        };
        if kind == BackendKind::Serial && outcome.is_agreement() {
            reference = Some(snap);
        }
        runs.push(BackendRun { backend: kind, emission, cycles: Some(cycles), outcome });
    }

    // Restore canonical order for stable reporting.
    runs.sort_by_key(|r| BackendKind::all().iter().position(|k| *k == r.backend));
    Ok(BackendComparison { runs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compare_src(src: &str, cfg: &PassConfig) -> BackendComparison {
        let p = cedar_ir::compile_free(src).unwrap();
        compare_backends(&p, cfg, &MachineConfig::cedar_config1_scaled(), &["chk"], 1e-9).unwrap()
    }

    #[test]
    fn backends_agree_on_a_doall_program() {
        let c = compare_src(
            "program main\nparameter (n = 64)\nreal a(n), b(n)\nchk = 0.0\n\
             do i = 1, n\nb(i) = real(i)\nend do\n\
             do i = 1, n\na(i) = b(i) * 2.0\nend do\n\
             do i = 1, n\nchk = chk + a(i)\nend do\nend\n",
            &PassConfig::automatic_1991(),
        );
        assert!(c.agree(), "{c}");
        assert_eq!(c.runs.len(), 3);
        assert_eq!(c.runs[0].backend, BackendKind::Cedar);
    }

    #[test]
    fn comparator_reports_all_three_backends_with_cycles() {
        let c = compare_src(
            "program main\nparameter (n = 32)\nreal a(n)\nchk = 0.0\n\
             do i = 1, n\na(i) = real(i)\nend do\n\
             do i = 1, n\nchk = chk + a(i)\nend do\nend\n",
            &PassConfig::automatic_1991(),
        );
        for r in &c.runs {
            assert!(r.cycles.is_some(), "{}: {}", r.backend, r.outcome);
        }
        // Parallel emissions should actually be faster than serial when
        // the reduction parallelized; at minimum they must have run.
        assert!(c.run(BackendKind::Serial).outcome.is_agreement());
    }

    #[test]
    fn hand_written_directives_survive_comparison() {
        let c = compare_src(
            "program main\nparameter (n = 48)\nreal a(n)\nchk = 0.0\n\
             cdoall i = 1, n\na(i) = real(i) * 0.5\nend cdoall\n\
             do i = 1, n\nchk = chk + a(i)\nend do\nend\n",
            &PassConfig::manual_improved(),
        );
        assert!(c.agree(), "{c}");
    }
}
