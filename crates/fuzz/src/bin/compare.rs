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
use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;
use cedar_verify::{compare_backends, BackendComparison};
use std::process::ExitCode;

const USAGE: &str = "usage: compare [--workloads] [--seeds A..B] [--config manual|auto|serial] \
                     [--rel-tol X] [--json PATH] [--bundle-dir DIR]";

struct Args {
    workloads: bool,
    seeds: Option<(u64, u64)>,
    pass: PassConfig,
    rel_tol: f64,
    json: Option<String>,
    bundle_dir: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: false,
        seeds: None,
        pass: PassConfig::manual_improved(),
        rel_tol: 1e-3,
        json: None,
        bundle_dir: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workloads" => out.workloads = true,
            "--seeds" => {
                let v = value("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants A..B, got `{v}`"))?;
                let a = a.parse().map_err(|e| format!("bad seed start `{a}`: {e}"))?;
                let b = b.parse().map_err(|e| format!("bad seed end `{b}`: {e}"))?;
                if b <= a {
                    return Err(format!("empty seed range `{v}`"));
                }
                out.seeds = Some((a, b));
            }
            "--config" => {
                let v = value("--config")?;
                out.pass = PassConfig::named(&v).ok_or_else(|| format!("unknown config `{v}`"))?;
            }
            "--rel-tol" => {
                let v = value("--rel-tol")?;
                out.rel_tol = v.parse().map_err(|e| format!("bad tolerance `{v}`: {e}"))?;
            }
            "--json" => out.json = Some(value("--json")?),
            "--bundle-dir" => out.bundle_dir = Some(value("--bundle-dir")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !out.workloads && out.seeds.is_none() {
        out.workloads = true; // the default sweep
    }
    Ok(out)
}

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

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("compare: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mc = MachineConfig::cedar_config1_scaled();

    // Collect (name, source, program, watch) for every requested case.
    let mut inputs: Vec<(String, String, cedar_ir::Program, Vec<String>)> = Vec::new();
    if args.workloads {
        for w in cedar_workloads::table1_workloads()
            .into_iter()
            .chain(cedar_workloads::table2_workloads())
        {
            let program = w.compile();
            let watch = w.watch.iter().map(|s| s.to_string()).collect();
            inputs.push((w.name.to_string(), w.source.clone(), program, watch));
        }
    }
    if let Some((a, b)) = args.seeds {
        for seed in a..b {
            let r = cedar_fuzz::GenProgram::generate(seed).render();
            let program = match cedar_ir::compile_free(&r.source) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("compare: seed {seed} does not compile (generator bug): {e}");
                    return ExitCode::from(2);
                }
            };
            let watch = r.watch.iter().map(|w| w.name.clone()).collect();
            inputs.push((format!("seed{seed:04}"), r.source, program, watch));
        }
    }

    let cases: Vec<(Case, String)> = cedar_par::par_map(inputs, |(name, source, program, watch)| {
        let watch_refs: Vec<&str> = watch.iter().map(String::as_str).collect();
        let comparison =
            compare_backends(&program, &args.pass, &mc, &watch_refs, args.rel_tol);
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
        if let Some(dir) = &args.bundle_dir {
            if let Err(e) = write_bundle(dir, case, source) {
                eprintln!("compare: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = &args.json {
        let mut w = Writer::new();
        w.obj().key("cases").int(cases.len()).key("failures").int(failures);
        w.key("results").arr();
        for (case, _) in &cases {
            case.write_json(&mut w);
        }
        w.end().end();
        if let Err(e) = std::fs::write(path, w.finish() + "\n") {
            eprintln!("compare: write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    println!(
        "compare: {} case(s), {} failure(s){}",
        cases.len(),
        failures,
        if failures == 0 { " — all backends agree" } else { "" }
    );
    ExitCode::from(if failures == 0 { 0 } else { 1 })
}
