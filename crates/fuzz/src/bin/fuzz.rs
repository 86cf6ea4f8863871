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

use cedar_fuzz::{check_jobs_depth, run_campaign, CampaignConfig, OracleConfig};
use cedar_par::cli::{exitcode, Args};

const USAGE: &str = "usage: fuzz --seeds A..B [--budget SECS] [--json PATH] \
                     [--config manual|auto|serial] [--no-shrink] [--no-bundles] [--jobs-check N] \
                     [--corpus DIR] [--emit-corpus DIR]";

/// `--emit-corpus DIR`: pin every seed in the range as a corpus entry
/// (a self-describing `.f` file, see `cedar_fuzz::corpus`) instead of
/// running a campaign.
fn emit_corpus(dir: &str, cfg: &CampaignConfig) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    for seed in cfg.seed_start..cfg.seed_end {
        let gp = cedar_fuzz::GenProgram::generate(seed);
        let r = gp.render();
        let name = format!("seed{seed:04}_{}", gp.tags().join("_").replace('-', ""));
        let path = format!("{dir}/{name}.f");
        std::fs::write(&path, cedar_fuzz::format_entry(seed, cfg.oracle.pass.level.name(), &r))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("fuzz: wrote {path}");
    }
    Ok(())
}

fn main() {
    let mut args = Args::from_env("fuzz", USAGE);
    let mut cfg = CampaignConfig::default();
    let seeds = args.seeds("--seeds");
    cfg.budget = args.secs("--budget");
    let json_path: Option<String> = args.value("--json");
    let config_name = args.value("--config").unwrap_or_else(|| String::from("manual"));
    cfg.shrink = !args.flag("--no-shrink");
    cfg.bundles = !args.flag("--no-bundles");
    let jobs_check = args.value("--jobs-check").unwrap_or(4);
    cfg.corpus_dir = args.value("--corpus");
    let emit_dir: Option<String> = args.value("--emit-corpus");
    args.finish();
    (cfg.seed_start, cfg.seed_end) = seeds.unwrap_or_else(|| args.fail("--seeds A..B is required"));
    cfg.oracle = OracleConfig::named(&config_name)
        .unwrap_or_else(|| args.fail(format!("unknown config `{config_name}`")));
    check_jobs_depth(jobs_check).unwrap_or_else(|e| args.fail(e));
    if let Some(dir) = emit_dir {
        emit_corpus(&dir, &cfg).unwrap_or_else(|e| args.fail(e));
        return;
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
    let mut summary = run_campaign(&cfg);
    summary.check_jobs(jobs_check, &cfg.oracle);
    let json = summary.to_json();
    if let Some(path) = json_path {
        args.write_report(&path, &json);
        eprintln!("fuzz: summary written to {path}");
    } else {
        println!("{json}");
    }

    eprintln!(
        "fuzz: {} executed, {} clean, {} failures, {} skipped for budget, {} known gaps",
        summary.executed,
        summary.executed - summary.failures.len() as u64,
        summary.failures.len(),
        summary.skipped_for_budget,
        summary.known_gaps,
    );
    if let Some((lo, mean, hi)) = summary.speedup() {
        eprintln!("fuzz: speedup over serial min {lo:.2}x mean {mean:.2}x max {hi:.2}x");
    }
    for f in &summary.failures {
        eprintln!(
            "fuzz: FAILURE seed {} [{}] {}{}",
            f.seed,
            f.phase,
            f.detail,
            match &f.bundle {
                Some(b) => format!(" (bundle: {b})"),
                None => String::new(),
            },
        );
    }
    let unreachable = summary.coverage.unreachable();
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
        std::process::exit(exitcode::VALIDATION);
    }
    eprintln!("fuzz: clean");
}
