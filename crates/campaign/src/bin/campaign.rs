//! Distributed campaign CLI: the coordinator and worker halves.
//!
//! ```text
//! # terminal 1 — shard 0..3000 into 12 shards, serve leases
//! campaign coordinate --addr 127.0.0.1:7171 --seeds 0..3000 --shard 250 --dir target/campaign
//!
//! # terminals 2..n — any number of workers, started and killed freely
//! campaign work --addr 127.0.0.1:7171 --name w1
//! ```
//!
//! The coordinator exits once every shard is resolved: `0` when the
//! merged report is clean, `1` when the campaign has findings (oracle
//! failures, unreachable passes, a jobs-invariance break), `2` on
//! harness trouble (quarantined shards — merged report withheld — or
//! usage errors). Workers exit `0` when the coordinator reports the
//! campaign done (or finishes and goes away), `2` on errors, and `3`
//! when `CEDAR_CHAOS` injected a crash (the CI kill-test uses real
//! `kill -9`; chaos covers the same path deterministically in tests).

use cedar_campaign::{Coordinator, CoordinatorConfig, WorkerConfig};
use cedar_par::cli::{exitcode, Args};
use std::time::Duration;

const COORDINATE: &str = "usage: campaign coordinate --addr H:P --seeds A..B --dir DIR [--shard N]
                           [--lease-ms N] [--retry-budget N] [--jobs-check N]
                           [--config manual|auto|serial] [--checkpoint-every N]";
const WORK: &str = "usage: campaign work --addr H:P --name NAME [--budget SECS] [--no-shrink]
                     [--corpus DIR]";

/// How long a finished coordinator keeps answering `done`, so that slow
/// workers hear it and exit.
const LINGER: Duration = Duration::from_millis(500);

fn coordinate(args: &mut Args) -> Result<i32, String> {
    args.usage = COORDINATE.into();
    let mut cfg = CoordinatorConfig::default();
    let addr: Option<String> = args.value("--addr");
    let seeds = args.seeds("--seeds");
    let dir = args.value("--dir");
    cfg.shard_size = args.value("--shard").unwrap_or(cfg.shard_size);
    cfg.lease = args.value("--lease-ms").map_or(cfg.lease, Duration::from_millis);
    cfg.retry_budget = args.value("--retry-budget").unwrap_or(cfg.retry_budget);
    cfg.jobs_check = args.value("--jobs-check").unwrap_or(cfg.jobs_check);
    cfg.config_name = args.value("--config").unwrap_or(cfg.config_name);
    cfg.checkpoint_every = args.value("--checkpoint-every").unwrap_or(cfg.checkpoint_every);
    args.finish();
    let addr = addr.unwrap_or_else(|| args.fail("--addr is required"));
    (cfg.seed_start, cfg.seed_end) = seeds.unwrap_or_else(|| args.fail("--seeds A..B is required"));
    cfg.dir = dir.unwrap_or_else(|| args.fail("--dir DIR is required"));
    let coordinator = Coordinator::new(cfg)?;
    let listener = std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("campaign: coordinating on {addr}");
    let outcome = coordinator.serve(listener, LINGER)?;
    eprintln!(
        "campaign: done — {} reassignments, {} quarantined, triage at {}",
        outcome.reassignments,
        outcome.quarantined,
        outcome.triage_path.display(),
    );
    if outcome.quarantined > 0 {
        eprintln!("campaign: quarantined shards leave holes; merged report withheld");
        return Ok(exitcode::HARNESS);
    }
    match &outcome.merged {
        Some(m) => {
            eprintln!(
                "campaign: merged report at {}",
                outcome.merged_path.as_ref().unwrap().display()
            );
            if m.failed() {
                eprintln!("campaign: findings — {} failures", m.failures.len());
                Ok(exitcode::VALIDATION)
            } else {
                eprintln!("campaign: clean");
                Ok(exitcode::OK)
            }
        }
        None => Err("campaign finished with no shards at all".into()),
    }
}

fn work(args: &mut Args) -> Result<i32, String> {
    args.usage = WORK.into();
    let mut cfg = WorkerConfig {
        chaos: cedar_experiments::Supervisor::from_env().chaos,
        ..WorkerConfig::default()
    };
    cfg.addr = args.value("--addr").unwrap_or_default();
    cfg.name = args.value("--name").unwrap_or(cfg.name);
    cfg.budget = args.secs("--budget");
    cfg.shrink = !args.flag("--no-shrink");
    cfg.corpus_dir = args.value("--corpus");
    args.finish();
    if cfg.addr.is_empty() {
        args.fail("--addr is required");
    }
    let report = cedar_campaign::run_worker(&cfg)?;
    if let Some(shard) = report.crashed {
        eprintln!("campaign[{}]: chaos crash holding shard {shard}", cfg.name);
        return Ok(exitcode::CRASHED);
    }
    eprintln!(
        "campaign[{}]: done — {} completed, {} failed",
        cfg.name, report.completed, report.failed,
    );
    Ok(exitcode::OK)
}

fn main() {
    let mut args = Args::from_env("campaign", &format!("{COORDINATE}\n{WORK}"));
    let result = match args.positional().as_deref() {
        Some("coordinate") => coordinate(&mut args),
        Some("work") => work(&mut args),
        _ => args.fail("expected `coordinate` or `work`"),
    };
    std::process::exit(result.unwrap_or_else(|e| args.fail(e)));
}
