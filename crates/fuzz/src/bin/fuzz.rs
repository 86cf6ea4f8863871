//! Fuzzing campaign runner.
//!
//! ```text
//! cargo run --release --bin fuzz -- --seeds 0..500
//! cargo run --release --bin fuzz -- --seeds 0..100000 --budget 60 --json target/fuzz.json
//! cargo run --release --bin fuzz -- --seeds 17..18 --config auto --no-shrink
//! ```
//!
//! Exit codes: `0` clean (all oracles passed, every required pass
//! reached, jobs-invariant), `1` findings (oracle failures, unreachable
//! passes on a complete run, or a jobs-invariance break), `2` usage or
//! harness error.

use cedar_fuzz::{run_campaign, CampaignConfig, OracleConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: fuzz --seeds A..B [--budget SECS] [--json PATH] [--det-json PATH] \
                     [--config manual|auto|serial] [--no-shrink] [--no-bundles] [--jobs-check N] \
                     [--corpus DIR] [--emit-corpus DIR]";

struct Args {
    cfg: CampaignConfig,
    json: Option<String>,
    det_json: Option<String>,
    config_name: String,
    emit_corpus: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut cfg = CampaignConfig::default();
    let mut json = None;
    let mut det_json = None;
    let mut config_name = String::from("manual");
    let mut emit_corpus = None;
    let mut seeds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                let v = value("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants A..B, got `{v}`"))?;
                cfg.seed_start =
                    a.parse().map_err(|e| format!("bad seed start `{a}`: {e}"))?;
                cfg.seed_end = b.parse().map_err(|e| format!("bad seed end `{b}`: {e}"))?;
                if cfg.seed_end <= cfg.seed_start {
                    return Err(format!("empty seed range `{v}`"));
                }
                seeds_given = true;
            }
            "--budget" => {
                let v = value("--budget")?;
                let secs: f64 = v.parse().map_err(|e| format!("bad budget `{v}`: {e}"))?;
                cfg.budget = Some(Duration::from_secs_f64(secs));
            }
            "--json" => json = Some(value("--json")?),
            "--det-json" => det_json = Some(value("--det-json")?),
            "--config" => {
                let v = value("--config")?;
                cfg.oracle =
                    OracleConfig::named(&v).ok_or_else(|| format!("unknown config `{v}`"))?;
                config_name = v;
            }
            "--no-shrink" => cfg.shrink = false,
            "--no-bundles" => cfg.bundles = false,
            "--jobs-check" => {
                let v = value("--jobs-check")?;
                cfg.jobs_check = v.parse().map_err(|e| format!("bad count `{v}`: {e}"))?;
            }
            "--corpus" => cfg.corpus_dir = Some(value("--corpus")?.into()),
            "--emit-corpus" => emit_corpus = Some(value("--emit-corpus")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !seeds_given {
        return Err("--seeds A..B is required".into());
    }
    cfg.corpus_config = config_name.clone();
    Ok(Args { cfg, json, det_json, config_name, emit_corpus })
}

/// `--emit-corpus DIR`: pin every seed in the range as a corpus entry
/// (a self-describing `.f` file, see `cedar_fuzz::corpus`) instead of
/// running a campaign.
fn emit_corpus(dir: &str, cfg: &CampaignConfig, config_name: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    for seed in cfg.seed_start..cfg.seed_end {
        let gp = cedar_fuzz::GenProgram::generate(seed);
        let r = gp.render();
        let name = format!("seed{seed:04}_{}", gp.tags().join("_").replace('-', ""));
        let path = format!("{dir}/{name}.f");
        std::fs::write(&path, cedar_fuzz::format_entry(seed, config_name, &r))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("fuzz: wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { cfg, json: json_path, det_json, config_name, emit_corpus: emit_dir } =
        match parse_args(&argv) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("fuzz: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        };
    if let Some(dir) = emit_dir {
        return match emit_corpus(&dir, &cfg, &config_name) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fuzz: {e}");
                ExitCode::from(2)
            }
        };
    }

    eprintln!(
        "fuzz: seeds {}..{} ({} programs), config {}, shrink {}, bundles {}",
        cfg.seed_start,
        cfg.seed_end,
        cfg.seed_end - cfg.seed_start,
        config_name,
        cfg.shrink,
        cfg.bundles,
    );
    let summary = run_campaign(&cfg);
    // The file/stdout artifact carries the wall-clock section (latency
    // summary + slowest seeds); determinism tests use `to_json()`.
    let json = summary.to_json_full();
    if let Some(path) = json_path {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("fuzz: write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("fuzz: summary written to {path}");
    } else {
        println!("{json}");
    }
    // `--det-json` writes the timing-free form — the byte-deterministic
    // reference a distributed campaign's merged report is diffed against.
    if let Some(path) = det_json {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, summary.to_json()) {
            eprintln!("fuzz: write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("fuzz: deterministic summary written to {path}");
    }

    eprintln!(
        "fuzz: {} executed, {} clean, {} failures, {} skipped for budget, {} known gaps",
        summary.executed,
        summary.executed - summary.failures.len() as u64,
        summary.failures.len(),
        summary.skipped_for_budget,
        summary.known_gaps,
    );
    if let Some((lo, mean, hi)) = summary.speedup {
        eprintln!("fuzz: speedup over serial min {lo:.2}x mean {mean:.2}x max {hi:.2}x");
    }
    if !summary.latency.is_empty() {
        eprintln!(
            "fuzz: per-seed latency p50 {:.1}ms p99 {:.1}ms max {:.1}ms; slowest: {}",
            summary.latency.percentile(50.0),
            summary.latency.percentile(99.0),
            summary.latency.max(),
            summary
                .latency
                .slowest(5)
                .iter()
                .map(|(l, m)| format!("seed {l} ({m:.1}ms)"))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    for f in &summary.failures {
        eprintln!(
            "fuzz: FAILURE seed {} [{}] {}{}",
            f.seed,
            f.failure.phase.tag(),
            f.failure.detail,
            match &f.bundle {
                Some(b) => format!(" (bundle: {b})"),
                None => String::new(),
            },
        );
    }
    let unreachable = summary.unreachable();
    if !unreachable.is_empty() {
        if summary.skipped_for_budget == 0 {
            eprintln!("fuzz: UNREACHABLE passes: {}", unreachable.join(", "));
        } else {
            eprintln!(
                "fuzz: passes not reached before budget lapsed (not gating): {}",
                unreachable.join(", ")
            );
        }
    }
    if let Some(m) = &summary.jobs_mismatch {
        eprintln!("fuzz: JOBS-INVARIANCE BROKEN: {m}");
    }

    if summary.failed() {
        ExitCode::from(1)
    } else {
        eprintln!("fuzz: clean");
        ExitCode::SUCCESS
    }
}
