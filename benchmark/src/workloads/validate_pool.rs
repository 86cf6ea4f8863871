//! `validate_pool` — one iteration runs `restructure_validated` (race
//! detection on, four perturbation seeds `S+1..S+4`, default engine)
//! over the 22 Table 1/2 programs and the four racy negatives. A unit
//! is one program brought to a verdict.
//!
//! It uses the simulator differently from `paper_suite`: a serial
//! reference, a race-collecting run, fault-perturbed runs, and for the
//! negatives a fallback that restructures again.

use crate::harness::{Check, Workload};
use crate::inputs;
use crate::spans::Tracer;
use cedar_ir::Program;
use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;
use cedar_verify::{restructure_validated, Snapshot, Validated, ValidationConfig};
use std::time::Instant;

/// Perturbation seeds per program.
pub const SEEDS: u64 = 4;

/// One program to validate.
pub struct Subject {
    /// Row or negative name.
    pub name: String,
    /// The input program.
    pub program: Program,
    /// Result variables.
    pub watch: Vec<String>,
    /// Pass configuration.
    pub cfg: PassConfig,
    /// Whether the program is one of the racy negatives.
    pub racy: bool,
}

impl Subject {
    /// The watch list as `restructure_validated` takes it.
    pub fn watch(&self) -> Vec<&str> {
        self.watch.iter().map(String::as_str).collect()
    }
}

/// The 26 programs: the pool, then the negatives.
pub fn subjects() -> Vec<Subject> {
    let clean = inputs::pool().into_iter().map(|p| Subject {
        name: p.name.to_string(),
        program: cedar_ir::compile_source(&p.source)
            .unwrap_or_else(|e| panic!("pool program {} does not compile: {e}", p.name)),
        watch: p.watch.iter().map(|w| w.to_string()).collect(),
        cfg: p.cfg,
        racy: false,
    });
    let racy = cedar_experiments::races::negatives()
        .into_iter()
        .map(|(name, src)| Subject {
            name: name.to_string(),
            program: cedar_ir::compile_free(&src)
                .unwrap_or_else(|e| panic!("negative {name} does not compile: {e}")),
            watch: vec!["a".into(), "s".into()],
            cfg: PassConfig::manual_improved(),
            racy: true,
        });
    clean.chain(racy).collect()
}

/// The validation settings of a run.
pub fn validation(seed: u64) -> ValidationConfig {
    ValidationConfig {
        seeds: (1..=SEEDS).map(|k| seed + k).collect(),
        ..Default::default()
    }
}

/// State of a run.
pub struct ValidatePool {
    subjects: Vec<Subject>,
    mc: MachineConfig,
    vcfg: ValidationConfig,
    /// Verdicts of the latest iteration.
    verdicts: Vec<Result<Validated, String>>,
}

fn snapshot(p: &Program, mc: &MachineConfig, watch: &[&str]) -> Result<Snapshot, String> {
    let sim = cedar_sim::run(p, mc.clone()).map_err(|e| e.to_string())?;
    Ok(watch
        .iter()
        .filter_map(|w| sim.read_f64(w).map(|v| (w.to_string(), v)))
        .collect())
}

impl Workload for ValidatePool {
    const NAME: &'static str = "validate_pool";
    const MIN_ITERS: usize = 4;
    const REPEATS_UNITS: bool = true;
    const TAIL: f64 = 100.0;
    const UNITS_PER_ITER: usize = 26;
    const LAYERS: &'static [&'static str] = &["verify"];

    fn setup(seed: u64) -> ValidatePool {
        let mut w = ValidatePool {
            subjects: subjects(),
            mc: MachineConfig::cedar_config1_scaled(),
            vcfg: validation(seed),
            verdicts: Vec::new(),
        };
        assert_eq!(w.subjects.len(), Self::UNITS_PER_ITER);
        w.iteration(&Tracer::off());
        w
    }

    fn iteration(&mut self, t: &Tracer) -> Vec<f64> {
        let mut ms = Vec::with_capacity(self.subjects.len());
        self.verdicts.clear();
        for (k, s) in self.subjects.iter().enumerate() {
            let t0 = Instant::now();
            let v = t.span("verify.restructure_validated", k as u32, || {
                restructure_validated(&s.program, &s.cfg, &self.mc, &s.watch(), &self.vcfg)
            });
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.verdicts.push(v.map_err(|e| e.to_string()));
        }
        ms
    }

    fn check(&mut self) -> Check {
        let mut check = Check::default();
        for (s, v) in self.subjects.iter().zip(&self.verdicts) {
            check.record(match v {
                // A negative whose *input* cannot run (an await no
                // advance ever satisfies) is rejected before any
                // candidate is tried; that is a verdict too.
                Err(_) if s.racy => None,
                Err(e) => Some(format!("{}: the serial reference failed: {e}", s.name)),
                Ok(v) => self.problem(s, v),
            });
        }
        check
    }
}

impl ValidatePool {
    /// What is wrong with a verdict, if anything.
    fn problem(&self, s: &Subject, v: &Validated) -> Option<String> {
        let val = &v.validation;
        if s.racy && val.fallbacks.is_empty() {
            return Some(format!(
                "{}: a racy program was accepted without a fallback",
                s.name
            ));
        }
        if !s.racy && (!val.fallbacks.is_empty() || val.degraded_to_serial) {
            return Some(format!(
                "{}: {} fallback(s), degraded_to_serial {}",
                s.name,
                val.fallbacks.len(),
                val.degraded_to_serial
            ));
        }
        if val.seed_runs.len() != SEEDS as usize {
            return Some(format!("{}: {} seed runs", s.name, val.seed_runs.len()));
        }
        // The accepted program computes what the *input* computes.
        let watch = s.watch();
        let want = snapshot(&s.program, &self.mc, &watch);
        let got = snapshot(&v.program, &self.mc, &watch);
        match (want, got) {
            (Ok(want), Ok(got)) => cedar_verify::first_diff(&want, &got, self.vcfg.rel_tol)
                .map(|d| format!("{}: accepted program differs from its input at {d}", s.name)),
            (Err(e), _) | (_, Err(e)) => Some(format!("{}: {e}", s.name)),
        }
    }
}
