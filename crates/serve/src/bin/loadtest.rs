//! `loadtest` — replay the `cedar-fuzz` generator against an
//! in-process server at configurable concurrency, optionally under
//! `CEDAR_CHAOS`, and write latency/throughput/robustness numbers to
//! `target/BENCH_serve.json`.
//!
//! The numbers are a report, not a gate: host time is judged by
//! `benchmark/` (`serve_cold`, `serve_replay`). What the run gates is
//! the service's robustness under load (here and in CI's serve-smoke
//! job), which no other test drives with more clients than queue slots:
//!
//! * **nothing is lost** — every submitted request receives a
//!   response; shed requests (429) are retried until admitted;
//! * **no naked failures** — every quarantine response (422/500/504)
//!   references a crash bundle;
//! * **shedding happens** — with more clients than workers + queue
//!   slots, the admission queue must actually shed;
//! * **recovery happens** — under chaos, at least one request must
//!   succeed only after ladder retries.
//!
//! Exit codes follow the repo convention: 0 ok, 1 a gate failed,
//! 2 harness error.

use cedar_experiments::Writer;
use cedar_fuzz::{GenProgram, Latency};
use cedar_par::cli::{exitcode, Args};
use cedar_serve::{http, Json, ServeRequest, Server, ServerConfig};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: loadtest [--requests N] [--clients N] [--workers N] [--queue N]
                [--out PATH]
  --requests N   total requests to replay (default 500)
  --clients N    concurrent client threads (default 8)
  --workers N    server worker threads (default 2)
  --queue N      admission queue capacity (default 2)
  --out PATH     where to write the report JSON (default target/BENCH_serve.json)
CEDAR_CHAOS=SEED runs the server under chaos injection.";

/// Per-client tally, merged after the run.
#[derive(Default)]
struct Tally {
    latency: Latency,
    ok: u64,
    quarantined: u64,
    shed_retries: u64,
    /// Gate violations: lost requests, naked 5xx, unexpected statuses.
    violations: Vec<String>,
}

fn main() {
    let mut args = Args::from_env("loadtest", USAGE);
    let mut size = |name, default| args.value(name).map_or(default, NonZeroUsize::get);
    let (requests, clients) = (size("--requests", 500), size("--clients", 8));
    let (workers, queue) = (size("--workers", 2), size("--queue", 2));
    let out = args.value("--out").unwrap_or_else(|| PathBuf::from("target/BENCH_serve.json"));
    args.finish();

    // Seeds repeat so the run exercises in-flight coalescing, not just
    // distinct work: adjacent indices are duplicates (picked up
    // near-simultaneously by different clients, so they overlap in
    // flight), and the index space wraps so later requests replay
    // earlier programs. This server has no store and the service keeps
    // no memo, so those later repeats are computed again: the run
    // prices a repeat at its worst (what a memo would shave off this
    // mix, p50 4.1 against 2.6 ms, is in EXPERIMENTS.md "One memo for
    // the sweeps, none for the service").
    let unique = (requests * 2 / 5).max(1);
    let seed_of = |i: usize| ((i / 2) % unique) as u64;
    eprintln!("loadtest: generating {} requests ({} unique programs) ...", requests, unique);
    let bodies: Vec<String> = (0..requests)
        .map(|i| {
            let seed = seed_of(i);
            let mut req = ServeRequest::new(GenProgram::generate(seed).render().source);
            req.validate = false; // exact phase set; validation is covered elsewhere
            req.to_json()
        })
        .collect();

    let mut cfg = ServerConfig { workers, queue_cap: queue, ..ServerConfig::default() };
    cfg.engine.sup.bundle_dir = PathBuf::from("target/crash-bundles/loadtest");
    cfg.engine.sup = cfg.engine.sup.overlay_env();
    let chaos = cfg.engine.sup.chaos;
    cfg.engine.backoff_base = Duration::from_millis(2);
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => args.fail(format!("bind failed: {e}")),
    };
    let addr = server.addr();
    eprintln!(
        "loadtest: {} clients -> {} (workers={}, queue={}, chaos={})",
        clients,
        addr,
        workers,
        queue,
        chaos.map_or("off".to_string(), |s| s.to_string()),
    );

    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Tally::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut t = Tally::default();
                let timeout = Duration::from_secs(120);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= bodies.len() {
                        break;
                    }
                    let seed = seed_of(i);
                    let label = format!("seed-{seed}");
                    let sent = Instant::now();
                    // Shed requests are retried until admitted: load
                    // shedding must degrade latency, never lose work.
                    let outcome = loop {
                        match http::post(&addr, "/restructure", &bodies[i], timeout) {
                            Ok((429, _)) => {
                                t.shed_retries += 1;
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            other => break other,
                        }
                    };
                    t.latency.record_duration(label, sent.elapsed());
                    match outcome {
                        Ok((200, _)) => t.ok += 1,
                        Ok((status @ (422 | 500 | 504), body)) => {
                            t.quarantined += 1;
                            let bundled = Json::parse(&body).is_ok_and(|v| {
                                v.get("error")
                                    .and_then(|e| e.get("bundle"))
                                    .is_some_and(|b| !b.is_null())
                            });
                            if !bundled {
                                t.violations.push(format!(
                                    "request {i} (seed {seed}): {status} without a crash bundle: {body}"
                                ));
                            }
                        }
                        Ok((status, body)) => t.violations.push(format!(
                            "request {i} (seed {seed}): unexpected status {status}: {body}"
                        )),
                        Err(e) => t
                            .violations
                            .push(format!("request {i} (seed {seed}) lost: {e}")),
                    }
                }
                let mut m = merged.lock().unwrap();
                m.ok += t.ok;
                m.quarantined += t.quarantined;
                m.shed_retries += t.shed_retries;
                m.violations.extend(t.violations);
                m.latency.absorb(t.latency);
            });
        }
    });
    let wall = started.elapsed();
    let tally = merged.into_inner().unwrap();

    let (_, metrics_body) = http::get(&addr, "/metrics", Duration::from_secs(10))
        .unwrap_or_else(|e| args.fail(format!("metrics fetch failed: {e}")));
    let metrics =
        Json::parse(&metrics_body).unwrap_or_else(|e| args.fail(format!("metrics not JSON: {e}")));
    let counter = |name: &str| {
        metrics.u64_at(name).unwrap_or_else(|e| args.fail(format!("metrics: {e}: {metrics_body}")))
    };
    let (shed, recovered, quarantined_srv, coalesced) =
        (counter("shed"), counter("recovered"), counter("quarantined"), counter("coalesced"));

    // Graceful shutdown must drain: the server joins without force.
    match http::post(&addr, "/shutdown", "", Duration::from_secs(10)) {
        Ok((200, _)) => {}
        other => args.fail(format!("shutdown request failed: {other:?}")),
    }
    server.join();

    let throughput = requests as f64 / wall.as_secs_f64();
    let mut w = Writer::document();
    w.key("schema").str("cedar-serve-bench-v1");
    w.key("requests").int(requests);
    w.key("clients").int(clients);
    w.key("workers").int(workers);
    w.key("queue_cap").int(queue);
    w.key("chaos").opt(chaos, Writer::int);
    w.key("latency_ms").raw(tally.latency.summary_json());
    w.key("throughput_rps").float(throughput, format_args!("{throughput:.2}"));
    w.key("shed").int(shed);
    w.key("shed_retries").int(tally.shed_retries);
    w.key("recovered").int(recovered);
    w.key("quarantined").int(quarantined_srv);
    w.key("coalesced").int(coalesced);
    w.key("slowest").raw(tally.latency.slowest_json(5));
    args.write_report(&out, &w.finish());
    eprintln!(
        "loadtest: {} ok, {} quarantined, shed {} (retries {}), recovered {}, coalesced {}, {:.1} req/s, p50 {:.1} ms, p99 {:.1} ms",
        tally.ok,
        tally.quarantined,
        shed,
        tally.shed_retries,
        recovered,
        coalesced,
        throughput,
        tally.latency.percentile(50.0),
        tally.latency.percentile(99.0),
    );

    // Gates.
    let mut failures = tally.violations;
    if tally.ok + tally.quarantined != requests as u64 {
        failures.push(format!(
            "accounting: {} ok + {} quarantined != {} submitted",
            tally.ok, tally.quarantined, requests
        ));
    }
    if clients > workers + queue && shed == 0 {
        failures.push(format!(
            "no load shedding: {} clients against {} workers + {} queue slots never hit a full queue",
            clients, workers, queue
        ));
    }
    if chaos.is_some() && recovered == 0 {
        failures.push("chaos was on but no request recovered via ladder retries".to_string());
    }

    if !failures.is_empty() {
        eprintln!("loadtest: {} gate failure(s):", failures.len());
        for (i, f) in failures.iter().enumerate().take(20) {
            eprintln!("  [{i}] {f}");
        }
        std::process::exit(exitcode::VALIDATION);
    }
    eprintln!("loadtest: all gates passed; wrote {}", out.display());
}
