//! The campaign worker: lease → fuzz → upload, forever, surviving a
//! flaky coordinator and owning up to its own failures.
//!
//! Each granted lease runs a normal [`cedar_fuzz::run_campaign`] over
//! the shard's seed range without local crash bundles (their paths are
//! worker-local) while a heartbeat thread keeps the lease alive, then
//! uploads the summary as `cedar-fuzz-shard-v1`. A
//! budget-truncated run is reported as a *failure* (`POST /fail`), not
//! uploaded: the merge refuses partial shards, so the coordinator
//! reassigns instead.
//!
//! Connection errors back off with the shared deterministic jitter
//! ([`cedar_par::backoff`], keyed on the worker name so a fleet
//! desynchronizes); after enough consecutive failures the worker
//! assumes the coordinator is gone — a clean exit if it ever did real
//! work, an error otherwise.
//!
//! Crash injection: `CEDAR_CHAOS` (via [`WorkerConfig::chaos`]) makes
//! the worker "die" — vanish holding its lease, exactly what `kill -9`
//! looks like to the coordinator — on shards where the sticky draw for
//! `campaign/shard<K>` / `worker-crash` fires. `die_on_shards` /
//! `fail_on_shards` are the deterministic test hooks for the same two
//! paths.

use cedar_experiments::jsonio::{Json, Writer};
use cedar_fuzz::{run_campaign, CampaignConfig, OracleConfig};
use cedar_serve::http;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker parameters.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator `host:port`.
    pub addr: String,
    /// Worker name (lease ownership, triage attribution, backoff key).
    pub name: String,
    /// Minimize failing seeds before uploading.
    pub shrink: bool,
    /// Per-lease wall-clock budget. A lapsed budget fails the shard
    /// back to the coordinator rather than uploading a partial result.
    pub budget: Option<Duration>,
    /// Backoff base for lease/connection retries.
    pub poll_base: Duration,
    /// `CEDAR_CHAOS` seed: simulate a worker crash on shards whose
    /// sticky draw fires.
    pub chaos: Option<u64>,
    /// Test hook: vanish (holding the lease) when granted these shards.
    pub die_on_shards: Vec<u64>,
    /// Test hook: report failure instead of running these shards.
    pub fail_on_shards: Vec<u64>,
    /// Persistent fuzz corpus directory ([`cedar_fuzz::persist`]):
    /// every shard this worker runs records clean seeds there and keeps
    /// the rare-combination ones. Give each worker its **own**
    /// directory — seed files are written atomically, but concurrent
    /// ledger saves from two processes are last-writer-wins.
    pub corpus_dir: Option<std::path::PathBuf>,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            addr: String::new(),
            name: "worker".into(),
            shrink: true,
            budget: None,
            poll_base: Duration::from_millis(50),
            chaos: None,
            die_on_shards: Vec::new(),
            fail_on_shards: Vec::new(),
            corpus_dir: None,
        }
    }
}

/// What one worker did before exiting.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Shards completed and accepted.
    pub completed: u64,
    /// Shards this worker reported as failed.
    pub failed: u64,
    /// Set when the worker simulated a crash (chaos or `die_on_shards`)
    /// — it exited holding a lease on this shard.
    pub crashed: Option<u64>,
}

const T: Duration = Duration::from_secs(10);
/// Consecutive connection failures before the worker gives up on the
/// coordinator.
const MAX_CONSECUTIVE_ERRORS: usize = 6;

/// Run the lease → fuzz → upload loop until the coordinator says
/// `done`, vanishes, or chaos kills us.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerReport, String> {
    let mut report = WorkerReport::default();
    let mut consecutive_errors = 0usize;
    let mut ever_reached = false;
    // Every request names the worker; `/heartbeat`, `/fail` and
    // `/complete` add the shard and their own member.
    let request = |shard: Option<u64>, member: Option<(&str, &str)>| {
        let mut w = Writer::new();
        w.obj().key("worker").str(&cfg.name);
        if let Some(shard) = shard {
            w.key("shard").int(shard);
        }
        if let Some((key, value)) = member {
            w.key(key).str(value);
        }
        w.finish()
    };
    let lease_body = request(None, None);
    loop {
        let reply = match http::post(&cfg.addr, "/lease", &lease_body, T) {
            Ok((200, body)) => body,
            Ok((status, body)) => {
                return Err(format!("coordinator rejected lease request: {status} {body}"));
            }
            Err(e) => {
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_ERRORS {
                    // A coordinator that served us and then went away
                    // most likely finished and exited; that's a clean
                    // end of shift. Never having reached it is an error.
                    return if ever_reached {
                        Ok(report)
                    } else {
                        Err(format!("coordinator unreachable at {}: {e}", cfg.addr))
                    };
                }
                std::thread::sleep(cedar_par::backoff(
                    cfg.poll_base,
                    &format!("campaign/{}/lease", cfg.name),
                    consecutive_errors,
                ));
                continue;
            }
        };
        consecutive_errors = 0;
        ever_reached = true;
        let v = Json::parse(&reply).map_err(|e| format!("bad lease reply: {e}"))?;
        if v.get("done").and_then(Json::as_bool) == Some(true) {
            return Ok(report);
        }
        if let Ok(wait) = v.u64_at("wait_ms") {
            std::thread::sleep(Duration::from_millis(wait));
            continue;
        }
        let lease = |key: &str| v.u64_at(key).map_err(|e| format!("bad lease reply: {e}: {reply}"));
        let (shard, seed_start, seed_end) =
            (lease("shard")?, lease("seed_start")?, lease("seed_end")?);
        let lease_ms = lease("lease_ms")?;
        let config_name = v.str_at("config").map_err(|e| format!("bad lease reply: {e}"))?;
        let oracle = OracleConfig::named(config_name)
            .ok_or_else(|| format!("lease names an unknown config `{config_name}`"))?;

        let crash = cfg.die_on_shards.contains(&shard)
            || cfg.chaos.is_some_and(|seed| {
                cedar_experiments::chaos::probe_sticky(
                    seed,
                    &format!("campaign/shard{shard}"),
                    "worker-crash",
                )
                .is_some()
            });
        if crash {
            report.crashed = Some(shard);
            return Ok(report);
        }
        if cfg.fail_on_shards.contains(&shard) {
            let body = request(Some(shard), Some(("error", "injected failure")));
            let _ = http::post(&cfg.addr, "/fail", &body, T);
            report.failed += 1;
            continue;
        }

        // Keep the lease alive while the campaign runs.
        let stop = Arc::new(AtomicBool::new(false));
        let beat = {
            let stop = Arc::clone(&stop);
            let addr = cfg.addr.clone();
            let body = request(Some(shard), None);
            let interval = Duration::from_millis((lease_ms / 3).max(10));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let _ = http::post(&addr, "/heartbeat", &body, T);
                }
            })
        };
        let summary = run_campaign(&CampaignConfig {
            seed_start,
            seed_end,
            budget: cfg.budget,
            oracle,
            shrink: cfg.shrink,
            bundles: false,
            corpus_dir: cfg.corpus_dir.clone(),
        });
        stop.store(true, Ordering::Relaxed);
        let _ = beat.join();

        if summary.skipped_for_budget > 0 {
            let lapsed = format!(
                "budget lapsed after {} of {} seeds",
                summary.executed,
                seed_end - seed_start
            );
            let body = request(Some(shard), Some(("error", &lapsed)));
            let _ = http::post(&cfg.addr, "/fail", &body, T);
            report.failed += 1;
            continue;
        }
        let shard_json = summary.to_shard_json();
        let body = request(Some(shard), Some(("summary", &shard_json)));
        match http::post(&cfg.addr, "/complete", &body, T) {
            Ok((200, _)) => report.completed += 1,
            Ok((status, reply)) => {
                // The coordinator refused the upload (and already
                // counted it against the shard); keep working.
                eprintln!("campaign[{}]: shard {shard} rejected: {status} {reply}", cfg.name);
                report.failed += 1;
            }
            Err(e) => {
                // Upload lost — the lease will expire and someone
                // (maybe us) re-runs the shard. Nothing to unwind: the
                // coordinator either got it (idempotent) or didn't.
                eprintln!("campaign[{}]: shard {shard} upload failed: {e}", cfg.name);
            }
        }
    }
}
