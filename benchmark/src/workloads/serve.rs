//! `serve_cold` and `serve_replay` — the write path and the read path
//! of the service, closed loop: [`CLIENTS`] connections, each sending
//! its next `POST /restructure` when the previous reply has arrived,
//! against an in-process server with [`WORKERS`] workers, a queue of
//! [`QUEUE`] and a result store. A unit is one request.
//!
//! `serve_cold` sends every request once, so each one is computed
//! (restructure, validate, emit, JSON) and stored. `serve_replay`
//! fills the store during set-up, restarts the server on it, and then
//! only replays: HTTP framing, `Json::parse`, `ServeRequest::key` and
//! `Store::get`, no compute — a simulator or validator change must not
//! move it.

use crate::harness::{Check, Workload};
use crate::inputs;
use crate::spans::Tracer;
use cedar_fuzz::Rng;
use cedar_serve::{http, Json, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Admission-queue capacity: never reached by two clients, so nothing
/// is shed.
pub const QUEUE: usize = 64;

const TIMEOUT: Duration = Duration::from_secs(120);

/// A fresh directory under `benchmark/out/tmp`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/tmp")).join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    dir
}

/// Start the server of both workloads on `store`.
pub fn start_server(store: &Path) -> Server {
    let mut cfg = ServerConfig {
        workers: WORKERS,
        queue_cap: QUEUE,
        store_dir: Some(store.join("store")),
        ..ServerConfig::default()
    };
    cfg.engine.sup.bundle_dir = store.join("crash-bundles");
    Server::start(cfg).unwrap_or_else(|e| panic!("server start on {}: {e}", store.display()))
}

/// Send `bodies[order[..]]` from [`CLIENTS`] closed-loop clients.
/// `judge(index, status, body)` runs after a reply is timed and says
/// what is wrong with it. Returns one latency (ms) per request, in
/// completion order per client, and the verdicts.
pub fn post_all(
    addr: &str,
    bodies: &[String],
    order: &[usize],
    t: &Tracer,
    judge: impl Fn(usize, u16, &str) -> Option<String> + Sync,
) -> (Vec<f64>, Check) {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new((Vec::with_capacity(order.len()), Check::default()));
    let parent = t.current();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut ms = Vec::new();
                let mut check = Check::default();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = order.get(k) else { break };
                    let t0 = Instant::now();
                    let reply = t.span_under(parent, "serve.post", k as u32, || {
                        http::post(addr, "/restructure", &bodies[i], TIMEOUT)
                    });
                    ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    check.record(match reply {
                        Ok((status, body)) => judge(i, status, &body),
                        Err(e) => Some(format!("request {i} lost: {e}")),
                    });
                }
                let mut m = merged.lock().expect("clients do not panic");
                m.0.extend(ms);
                m.1.absorb(check);
            });
        }
    });
    merged.into_inner().expect("clients do not panic")
}

/// A 200 that parses, carries a restructured program and a
/// verification block that did not fall back to serial.
fn judge_computed(i: usize, status: u16, body: &str) -> Option<String> {
    if status != 200 {
        return Some(format!("request {i}: status {status}: {body}"));
    }
    let v = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return Some(format!("request {i}: reply is not JSON: {e}")),
    };
    if v.get("restructured")
        .and_then(Json::as_str)
        .is_none_or(str::is_empty)
    {
        return Some(format!("request {i}: no restructured program"));
    }
    let passing = v.get("verification").is_some_and(|ver| {
        ver.get("degraded_to_serial").and_then(Json::as_bool) == Some(false)
            && ver
                .get("seed_runs")
                .and_then(Json::as_f64)
                .is_some_and(|n| n >= 1.0)
    });
    (!passing).then(|| format!("request {i}: verification did not pass: {body}"))
}

/// `/metrics` must show a run nothing was shed, retried or lost in,
/// and a store that healed nothing.
fn judge_metrics(addr: &str) -> Check {
    let mut check = Check::default();
    let metrics = http::get(addr, "/metrics", TIMEOUT)
        .and_then(|(_, body)| Json::parse(&body).map_err(|e| e.to_string()));
    match metrics {
        Err(e) => check.record(Some(format!("/metrics: {e}"))),
        Ok(m) => {
            let store = m.get("store");
            for (name, v) in [
                ("shed", m.get("shed")),
                ("recovered", m.get("recovered")),
                ("quarantined", m.get("quarantined")),
                (
                    "store.corrupt_recovered",
                    store.and_then(|s| s.get("corrupt_recovered")),
                ),
            ] {
                let n = v.and_then(Json::as_f64);
                check.record((n != Some(0.0)).then(|| format!("/metrics: {name} = {n:?}")));
            }
        }
    }
    check
}

fn stop(server: Server, dir: &Path) -> Check {
    let check = judge_metrics(&server.addr());
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    check
}

/// State of a `serve_cold` run.
pub struct ServeCold {
    seed: u64,
    dir: PathBuf,
    server: Server,
    /// Index of the next request never sent.
    next: u64,
    block: Vec<String>,
    check: Check,
}

impl ServeCold {
    /// Requests sent before timing starts: one block, as every
    /// workload's set-up ends with one untimed iteration.
    const WARM: u64 = Self::UNITS_PER_ITER as u64;

    fn bodies(&self, from: u64, n: u64) -> Vec<String> {
        (from..from + n)
            .map(|i| inputs::request_body(self.seed, i))
            .collect()
    }
}

impl Workload for ServeCold {
    const NAME: &'static str = "serve_cold";
    const MIN_ITERS: usize = 10;
    const REPEATS_UNITS: bool = false;
    const TAIL: f64 = 99.0;
    const UNITS_PER_ITER: usize = 100;
    const LAYERS: &'static [&'static str] = &["serve"];

    fn setup(seed: u64) -> ServeCold {
        cedar_experiments::cache::clear();
        let dir = scratch_dir("serve_cold");
        let server = start_server(&dir);
        let mut w = ServeCold {
            seed,
            dir,
            server,
            next: Self::WARM,
            block: Vec::new(),
            check: Check::default(),
        };
        let warm = w.bodies(0, Self::WARM);
        let order: Vec<usize> = (0..warm.len()).collect();
        let (_, check) = post_all(
            &w.server.addr(),
            &warm,
            &order,
            &Tracer::off(),
            judge_computed,
        );
        w.check.absorb(check);
        w
    }

    fn prepare(&mut self) {
        self.block = self.bodies(self.next, Self::UNITS_PER_ITER as u64);
        self.next += Self::UNITS_PER_ITER as u64;
    }

    fn iteration(&mut self, t: &Tracer) -> Vec<f64> {
        let order: Vec<usize> = (0..self.block.len()).collect();
        let (ms, check) = post_all(&self.server.addr(), &self.block, &order, t, judge_computed);
        self.check.absorb(check);
        ms
    }

    fn check(&mut self) -> Check {
        std::mem::take(&mut self.check)
    }

    fn finish(self) -> Check {
        stop(self.server, &self.dir)
    }
}

/// State of a `serve_replay` run.
pub struct ServeReplay {
    dir: PathBuf,
    server: Server,
    bodies: Vec<String>,
    /// The reply set-up received for each request.
    expected: Vec<String>,
    rng: Rng,
    order: Vec<usize>,
    check: Check,
}

impl ServeReplay {
    /// Unique requests in the store.
    pub const SET: usize = 400;
}

impl Workload for ServeReplay {
    const NAME: &'static str = "serve_replay";
    const MIN_ITERS: usize = 5;
    const REPEATS_UNITS: bool = false;
    const TAIL: f64 = 95.0;
    /// A round replays the set five times over.
    const UNITS_PER_ITER: usize = 5 * Self::SET;
    const LAYERS: &'static [&'static str] = &["serve"];

    fn setup(seed: u64) -> ServeReplay {
        cedar_experiments::cache::clear();
        let dir = scratch_dir("serve_replay");
        let bodies: Vec<String> = (0..Self::SET as u64)
            .map(|i| inputs::request_body(seed, i))
            .collect();
        // Fill the store: every request computed and stored once.
        let server = start_server(&dir);
        let replies = Mutex::new(vec![String::new(); bodies.len()]);
        let order: Vec<usize> = (0..bodies.len()).collect();
        let (_, mut check) = post_all(
            &server.addr(),
            &bodies,
            &order,
            &Tracer::off(),
            |i, status, body| {
                replies.lock().expect("clients do not panic")[i] = body.to_string();
                judge_computed(i, status, body)
            },
        );
        check.absorb(judge_metrics(&server.addr()));
        server.shutdown();
        // Restart on the same store: from here on nothing is computed.
        // A restarted service is a new process, so the process-wide
        // content caches the fill left behind go too.
        cedar_experiments::cache::clear();
        let server = start_server(&dir);
        let mut w = ServeReplay {
            dir,
            server,
            bodies,
            expected: replies.into_inner().expect("clients do not panic"),
            rng: Rng::new(seed),
            order: Vec::new(),
            check,
        };
        w.prepare();
        w.iteration(&Tracer::off());
        w
    }

    fn prepare(&mut self) {
        self.order.clear();
        for _ in 0..Self::UNITS_PER_ITER / Self::SET {
            let mut pass: Vec<usize> = (0..Self::SET).collect();
            for k in (1..pass.len()).rev() {
                pass.swap(k, self.rng.below(k as u64 + 1) as usize);
            }
            self.order.extend(pass);
        }
    }

    fn iteration(&mut self, t: &Tracer) -> Vec<f64> {
        let expected = &self.expected;
        let (ms, check) = post_all(
            &self.server.addr(),
            &self.bodies,
            &self.order,
            t,
            |i, status, body| {
                (status != 200 || body != expected[i]).then(|| {
                    format!(
                        "request {i}: replayed reply (status {status}) differs from the stored one"
                    )
                })
            },
        );
        self.check.absorb(check);
        ms
    }

    fn check(&mut self) -> Check {
        std::mem::take(&mut self.check)
    }

    fn finish(self) -> Check {
        stop(self.server, &self.dir)
    }
}
