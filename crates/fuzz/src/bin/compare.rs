//! Cross-backend comparator driver.
//!
//! ```text
//! cargo run --release --bin compare -- --workloads
//! cargo run --release --bin compare -- --seeds 0..2000 --json target/compare.json
//! cargo run --release --bin compare -- --workloads --seeds 0..500 --bundle-dir target/bundles
//! ```
//!
//! For every workload and/or generated fuzz program, runs
//! [`cedar_verify::compare_backends`]: restructure once, emit through
//! every backend (Cedar Fortran, OpenMP, serial F77), re-parse each
//! emission, simulate it, and demand cell-for-cell agreement with the
//! serial reference. The first divergence per case is bundled to
//! `--bundle-dir` with the input source and every emission.
//!
//! Exit codes: `0` all backends agree everywhere, `1` at least one
//! divergence/failure, `2` usage or harness error.

use cedar_experiments::Writer;
use cedar_par::cli::{exitcode, Args};
use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;
use cedar_verify::{compare_backends, BackendComparison};

const USAGE: &str = "usage: compare [--workloads] [--seeds A..B] [--config manual|auto|serial] \
                     [--json PATH] [--bundle-dir DIR]";

/// The relative tolerance backends must agree within (README "Backends").
const REL_TOL: f64 = 1e-3;

/// One compared case for the JSON report.
struct Case {
    name: String,
    comparison: Result<BackendComparison, String>,
}

impl Case {
    fn agree(&self) -> bool {
        self.comparison.as_ref().map(|c| c.agree()).unwrap_or(false)
    }

    fn write_json(&self, w: &mut Writer) {
        w.obj().key("name").str(&self.name).key("agree").bool(self.agree());
        match &self.comparison {
            Err(e) => w.key("error").str(e),
            Ok(c) => {
                w.key("backends").arr();
                for r in &c.runs {
                    w.obj().key("backend").str(r.backend.name());
                    w.key("agree").bool(r.outcome.is_agreement());
                    w.key("cycles").opt(r.cycles, |w, c| w.float(c, format_args!("{c}")));
                    w.key("outcome").str(&r.outcome).end();
                }
                w.end()
            }
        };
        w.end();
    }
}

/// Write a divergence bundle: the input source plus every emission and
/// the per-backend verdicts.
fn write_bundle(dir: &str, case: &Case, source: &str) -> Result<(), String> {
    let path = format!("{dir}/{}", case.name.replace(['/', ' '], "_"));
    std::fs::create_dir_all(&path).map_err(|e| format!("create {path}: {e}"))?;
    let w = |file: &str, text: &str| {
        std::fs::write(format!("{path}/{file}"), text)
            .map_err(|e| format!("write {path}/{file}: {e}"))
    };
    w("input.f", source)?;
    match &case.comparison {
        Err(e) => w("verdict.txt", &format!("harness error: {e}\n"))?,
        Ok(c) => {
            w("verdict.txt", &format!("{c}"))?;
            for r in &c.runs {
                w(&format!("emitted.{}.f", r.backend.name()), &r.emission)?;
            }
        }
    }
    eprintln!("compare: bundle written to {path}");
    Ok(())
}

fn main() {
    let mut args = Args::from_env("compare", USAGE);
    let seeds = args.seeds("--seeds");
    // With neither, the workloads are the default sweep.
    let workloads = args.flag("--workloads") || seeds.is_none();
    let config: Option<String> = args.value("--config");
    let json: Option<String> = args.value("--json");
    let bundle_dir: Option<String> = args.value("--bundle-dir");
    args.finish();
    let pass = config.map_or_else(PassConfig::manual_improved, |v| {
        PassConfig::named(&v).unwrap_or_else(|| args.fail(format!("unknown config `{v}`")))
    });
    let mc = MachineConfig::cedar_config1_scaled();

    // Collect (name, source, program, watch) for every requested case.
    let mut inputs: Vec<(String, String, cedar_ir::Program, Vec<String>)> = Vec::new();
    if workloads {
        for w in cedar_workloads::table1_workloads()
            .into_iter()
            .chain(cedar_workloads::table2_workloads())
        {
            let program = w.compile();
            let watch = w.watch.iter().map(|s| s.to_string()).collect();
            inputs.push((w.name.to_string(), w.source.clone(), program, watch));
        }
    }
    if let Some((a, b)) = seeds {
        for seed in a..b {
            let r = cedar_fuzz::GenProgram::generate(seed).render();
            let program = cedar_ir::compile_free(&r.source).unwrap_or_else(|e| {
                args.fail(format!("seed {seed} does not compile (generator bug): {e}"))
            });
            let watch = r.watch.iter().map(|w| w.name.clone()).collect();
            inputs.push((format!("seed{seed:04}"), r.source, program, watch));
        }
    }

    let cases: Vec<(Case, String)> =
        cedar_par::par_map(inputs, |(name, source, program, watch)| {
            let watch_refs: Vec<&str> = watch.iter().map(String::as_str).collect();
            let comparison = compare_backends(&program, &pass, &mc, &watch_refs, REL_TOL);
            (Case { name, comparison }, source)
        });

    let mut failures = 0usize;
    for (case, source) in &cases {
        if case.agree() {
            continue;
        }
        failures += 1;
        match &case.comparison {
            Err(e) => eprintln!("compare: {}: harness error: {e}", case.name),
            Ok(c) => eprint!("compare: {} disagrees:\n{c}", case.name),
        }
        if let Some(dir) = &bundle_dir {
            write_bundle(dir, case, source).unwrap_or_else(|e| args.fail(e));
        }
    }

    if let Some(path) = &json {
        let mut w = Writer::new();
        w.obj().key("cases").int(cases.len()).key("failures").int(failures);
        w.key("results").arr();
        for (case, _) in &cases {
            case.write_json(&mut w);
        }
        w.end().end();
        args.write_report(path, &(w.finish() + "\n"));
    }

    println!(
        "compare: {} case(s), {} failure(s){}",
        cases.len(),
        failures,
        if failures == 0 { " — all backends agree" } else { "" }
    );
    std::process::exit(exitcode::classify(failures > 0, 0));
}
