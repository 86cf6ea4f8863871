//! `paper_suite` — one iteration clears the content caches and
//! regenerates every artifact of the paper (the work of `--bin all`):
//! Table 1, Table 2, the QCD footnote, Figures 6–9 and the ablation
//! sweeps. A unit is that whole regeneration: the artifacts are eight
//! jobs of very different size (10 ms to 1 s), and "the median
//! artifact" is a 30 ms three-cell job whose time is mostly thread
//! start-up. What each artifact costs is in the traced run's
//! `experiments.*_s`.
//!
//! Plain simulation on three machine models does almost all the work;
//! the front end, the race detector, perturbed runs and the service do
//! none. The fidelity metrics come from the tables it regenerates.

use crate::harness::{Check, Workload};
use crate::inputs;
use crate::spans::Tracer;
use cedar_experiments::{ablation, cache, fig6, fig7, fig8, fig9, table1, table2};
use cedar_sim::MachineConfig;
use std::time::Instant;

/// State of a run.
pub struct PaperSuite {
    /// The tables of the latest iteration.
    pub tables: Option<(Vec<table1::Row>, Vec<table2::Row>)>,
}

impl PaperSuite {
    /// Regenerate every artifact from whatever the caches hold, one
    /// span each.
    pub fn artifacts(&mut self, t: &Tracer) {
        let t1 = t.span("experiments.table1", 0, table1::run);
        let t2 = t.span("experiments.table2", 0, table2::run);
        t.span("experiments.qcd_footnote", 0, table2::qcd_footnote);
        t.span("experiments.fig6", 0, fig6::run);
        t.span("experiments.fig7", 0, fig7::run);
        t.span("experiments.fig8", 0, fig8::run);
        t.span("experiments.fig9", 0, fig9::run);
        t.span("experiments.ablation", 0, ablation::run_all);
        self.tables = Some((t1, t2));
    }
}

impl Workload for PaperSuite {
    const NAME: &'static str = "paper_suite";
    const MIN_ITERS: usize = 5;
    const REPEATS_UNITS: bool = true;
    const TAIL: f64 = 100.0;
    const UNITS_PER_ITER: usize = 1;
    const LAYERS: &'static [&'static str] = &["experiments"];

    fn setup(_seed: u64) -> PaperSuite {
        // The inputs are the paper's own programs: the seed varies
        // nothing here. One untimed iteration pages the code in.
        let mut w = PaperSuite { tables: None };
        w.iteration(&Tracer::off());
        w
    }

    fn iteration(&mut self, t: &Tracer) -> Vec<f64> {
        let t0 = Instant::now();
        t.span("experiments.cache_clear", 0, cache::clear);
        self.artifacts(t);
        vec![t0.elapsed().as_secs_f64() * 1e3]
    }

    fn check(&mut self) -> Check {
        let mut check = Check::default();
        let (t1, t2) = self.tables.as_ref().expect("check runs after an iteration");
        for r in t1 {
            check.record(
                (!r.measured_speedup.is_finite())
                    .then(|| format!("table1 {}: speed-up {}", r.name, r.measured_speedup)),
            );
        }
        for r in t2 {
            for v in [r.auto_fx80, r.auto_cedar, r.manual_fx80, r.manual_cedar] {
                check.record((!v.is_finite()).then(|| format!("table2 {}: speed-up {v}", r.name)));
            }
        }
        // The emitted programs compute what the inputs compute, on every
        // backend.
        let mc = MachineConfig::cedar_config1_scaled();
        let verdicts = cedar_par::par_map(inputs::pool(), |p| {
            let program =
                cedar_ir::compile_source(&p.source).map_err(|e| format!("{}: {e}", p.name))?;
            let cmp = cedar_verify::compare_backends(&program, &p.cfg, &mc, &p.watch, 1e-3)
                .map_err(|e| format!("{}: {e}", p.name))?;
            if cmp.agree() {
                Ok(())
            } else {
                Err(format!("{}: backends disagree:\n{cmp}", p.name))
            }
        });
        for v in verdicts {
            check.record(v.err());
        }
        check
    }
}
