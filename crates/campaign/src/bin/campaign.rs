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
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  campaign coordinate --addr H:P --seeds A..B --dir DIR [--shard N] [--lease-ms N]
                      [--retry-budget N] [--jobs-check N] [--config manual|auto|serial] [--linger-ms N]
                      [--checkpoint-every N]
  campaign work --addr H:P --name NAME [--budget SECS] [--no-shrink] [--poll-ms N]
                [--corpus DIR]";

fn coordinate(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = CoordinatorConfig::default();
    let mut addr = None;
    let mut seeds_given = false;
    let mut dir_given = false;
    let mut linger = Duration::from_millis(500);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--seeds" => {
                let v = value("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants A..B, got `{v}`"))?;
                cfg.seed_start = a.parse().map_err(|e| format!("bad seed start `{a}`: {e}"))?;
                cfg.seed_end = b.parse().map_err(|e| format!("bad seed end `{b}`: {e}"))?;
                seeds_given = true;
            }
            "--shard" => cfg.shard_size = parse(&value("--shard")?)?,
            "--lease-ms" => cfg.lease = Duration::from_millis(parse(&value("--lease-ms")?)?),
            "--retry-budget" => cfg.retry_budget = parse(&value("--retry-budget")?)? as u32,
            "--jobs-check" => cfg.jobs_check = parse(&value("--jobs-check")?)? as usize,
            "--config" => cfg.config_name = value("--config")?,
            "--dir" => {
                cfg.dir = value("--dir")?.into();
                dir_given = true;
            }
            "--linger-ms" => linger = Duration::from_millis(parse(&value("--linger-ms")?)?),
            "--checkpoint-every" => {
                cfg.checkpoint_every = parse(&value("--checkpoint-every")?)? as usize
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    if !seeds_given {
        return Err("--seeds A..B is required".into());
    }
    if !dir_given {
        return Err("--dir DIR is required".into());
    }
    let coordinator = Coordinator::new(cfg)?;
    let listener = std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("campaign: coordinating on {addr}");
    let outcome = coordinator.serve(listener, linger)?;
    eprintln!(
        "campaign: done — {} reassignments, {} quarantined, triage at {}",
        outcome.reassignments,
        outcome.quarantined,
        outcome.triage_path.display(),
    );
    if outcome.quarantined > 0 {
        eprintln!("campaign: quarantined shards leave holes; merged report withheld");
        return Ok(ExitCode::from(2));
    }
    match &outcome.merged {
        Some(m) => {
            eprintln!(
                "campaign: merged report at {}",
                outcome.merged_path.as_ref().unwrap().display()
            );
            if m.failed() {
                eprintln!("campaign: findings — {} failures", m.failures.len());
                Ok(ExitCode::from(1))
            } else {
                eprintln!("campaign: clean");
                Ok(ExitCode::SUCCESS)
            }
        }
        None => Err("campaign finished with no shards at all".into()),
    }
}

fn work(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = WorkerConfig {
        chaos: std::env::var("CEDAR_CHAOS").ok().as_deref().and_then(cedar_experiments::chaos::parse_seed),
        ..WorkerConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--name" => cfg.name = value("--name")?,
            "--budget" => {
                let secs: f64 = value("--budget")?
                    .parse()
                    .map_err(|e| format!("bad budget: {e}"))?;
                cfg.budget = Some(Duration::from_secs_f64(secs));
            }
            "--no-shrink" => cfg.shrink = false,
            "--poll-ms" => cfg.poll_base = Duration::from_millis(parse(&value("--poll-ms")?)?),
            "--corpus" => cfg.corpus_dir = Some(value("--corpus")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cfg.addr.is_empty() {
        return Err("--addr is required".into());
    }
    let report = cedar_campaign::run_worker(&cfg)?;
    if let Some(shard) = report.crashed {
        eprintln!("campaign[{}]: chaos crash holding shard {shard}", cfg.name);
        return Ok(ExitCode::from(3));
    }
    eprintln!(
        "campaign[{}]: done — {} completed, {} failed",
        cfg.name, report.completed, report.failed,
    );
    Ok(ExitCode::SUCCESS)
}

fn parse(v: &str) -> Result<u64, String> {
    v.parse().map_err(|e| format!("bad number `{v}`: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("coordinate") => coordinate(&argv[1..]),
        Some("work") => work(&argv[1..]),
        _ => Err("expected `coordinate` or `work`".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("campaign: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
