//! `compile_corpus` — one iteration takes every program of the corpus
//! through parse → lower → `restructure` → `emit` on all three
//! backends, on one thread, with no simulation. A unit is one program. The corpus is
//! [`GENERATED`] free-form programs drawn from `--seed` plus the 22
//! fixed-form Table 1/2 sources.
//!
//! This is the compiler half alone (`f77`, `ir`, `analysis`, `core`);
//! it bypasses `sim`, `verify`, `store` and `serve`, so a faster
//! simulator must leave it flat.

use crate::harness::{Check, Workload};
use crate::inputs;
use crate::spans::Tracer;
use cedar_fuzz::GenProgram;
use cedar_ir::Program;
use cedar_restructure::{restructure, BackendKind, EmitInput, PassConfig, RestructureResult};
use std::path::PathBuf;
use std::time::Instant;

/// Generated programs in the corpus.
pub const GENERATED: usize = 3000;

/// One source of the corpus.
pub struct Source {
    /// Pool row name; `None` for a generated program.
    pub pool_name: Option<&'static str>,
    /// Source text.
    pub text: String,
    /// Free-form (generated) or fixed-form (pool).
    pub free_form: bool,
    /// Pass configuration.
    pub cfg: PassConfig,
}

/// The corpus of a seed: the generated programs, then the pool. The
/// pool runs under `manual_improved`, the configuration the golden
/// emissions in `tests/golden/` were written with.
pub fn corpus(seed: u64) -> Vec<Source> {
    let auto = PassConfig::automatic_1991();
    let generated = (0..GENERATED as u64).map(|i| Source {
        pool_name: None,
        text: GenProgram::generate(inputs::program_seed(seed, i))
            .render()
            .source,
        free_form: true,
        cfg: auto.clone(),
    });
    let pool = inputs::pool().into_iter().map(|p| Source {
        pool_name: Some(p.name),
        text: p.source,
        free_form: false,
        cfg: PassConfig::manual_improved(),
    });
    generated.chain(pool).collect()
}

/// Everything one program's compilation produced.
pub struct Compiled {
    /// Lines of the source.
    pub source_lines: usize,
    /// The lowered input.
    pub program: Program,
    /// The restructurer's output and report.
    pub restructured: RestructureResult,
    /// Emissions, in [`BackendKind::all`] order.
    pub emissions: [String; 3],
}

/// Span names of the three emissions, in [`BackendKind::all`] order.
const EMIT_SPANS: [&str; 3] = ["core.emit_cedar", "core.emit_openmp", "core.emit_serial"];

/// Compile one source, one span per layer call.
pub fn compile_one(t: &Tracer, unit: u32, src: &Source) -> Result<Compiled, String> {
    let ast = t
        .span("f77.parse", unit, || {
            if src.free_form {
                cedar_f77::parse_free(&src.text)
            } else {
                cedar_f77::parse_source(&src.text)
            }
        })
        .map_err(|e| e.to_string())?;
    let program = t
        .span("ir.lower", unit, || cedar_ir::lower(&ast))
        .map_err(|e| e.to_string())?;
    let restructured = t.span("core.restructure", unit, || restructure(&program, &src.cfg));
    let input = EmitInput {
        original: &program,
        restructured: &restructured.program,
        report: &restructured.report,
    };
    let kinds = BackendKind::all();
    let emissions =
        std::array::from_fn(|i| t.span(EMIT_SPANS[i], unit, || kinds[i].backend().emit(&input)));
    Ok(Compiled {
        source_lines: src.text.lines().count(),
        program,
        restructured,
        emissions,
    })
}

/// State of a run.
pub struct CompileCorpus {
    /// The corpus.
    pub sources: Vec<Source>,
    /// Emissions of the latest iteration, or why a program failed.
    emissions: Vec<Result<[String; 3], String>>,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/golden"))
}

impl Workload for CompileCorpus {
    const NAME: &'static str = "compile_corpus";
    const MIN_ITERS: usize = 5;
    const REPEATS_UNITS: bool = true;
    const TAIL: f64 = 99.0;
    const UNITS_PER_ITER: usize = GENERATED + 22;
    const LAYERS: &'static [&'static str] = &["f77", "ir", "core"];

    fn setup(seed: u64) -> CompileCorpus {
        let mut w = CompileCorpus {
            sources: corpus(seed),
            emissions: Vec::new(),
        };
        assert_eq!(w.sources.len(), Self::UNITS_PER_ITER);
        w.iteration(&Tracer::off());
        w
    }

    fn iteration(&mut self, t: &Tracer) -> Vec<f64> {
        // One program after the other on one thread: a compiler's
        // throughput, with no scheduling in the measurement.
        self.emissions.clear();
        let mut ms = Vec::with_capacity(self.sources.len());
        for (k, src) in self.sources.iter().enumerate() {
            let t0 = Instant::now();
            let emitted = compile_one(t, k as u32, src).map(|c| c.emissions);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.emissions.push(emitted);
        }
        ms
    }

    fn check(&mut self) -> Check {
        // Every emission parses again; the pool's emissions are the
        // golden files, byte for byte.
        let golden = golden_dir();
        let problems = cedar_par::par_map_range(self.sources.len(), |k| {
            let src = &self.sources[k];
            let label = src
                .pool_name
                .map_or(format!("generated program {k}"), String::from);
            let emissions = match &self.emissions[k] {
                Ok(e) => e,
                Err(e) => return Some(format!("{label}: {e}")),
            };
            for (kind, text) in BackendKind::all().iter().zip(emissions) {
                if let Err(e) = cedar_f77::parse_source(text) {
                    return Some(format!("{label}: {kind} emission does not parse: {e}"));
                }
                if let Some(name) = src.pool_name {
                    let path = golden.join(format!("{name}.expected.{}.f", kind.name()));
                    match std::fs::read_to_string(&path) {
                        Ok(want) if want == *text => {}
                        Ok(_) => {
                            return Some(format!(
                                "{label}: {kind} emission differs from {}",
                                path.display()
                            ))
                        }
                        Err(e) => return Some(format!("{}: {e}", path.display())),
                    }
                }
            }
            None
        });
        let mut check = Check::default();
        for p in problems {
            check.record(p);
        }
        check
    }
}
