//! The long-running server: admission control, a worker pool, request
//! coalescing, and graceful shutdown around the per-request engine.
//!
//! Architecture (DESIGN.md §12): one acceptor thread owns the listener
//! and enforces **admission control** — a connection either enters the
//! bounded queue or is answered `429 queue-full` on the spot (load
//! shedding; the server never builds unbounded backlog). Worker threads
//! pop connections, parse HTTP, and route; `/restructure` requests run
//! the supervised retry ladder ([`crate::engine`]). In-flight identical
//! requests are **coalesced**: followers park their connection on the
//! leader's flight record and receive a copy of its response, so a
//! thundering herd of one hot source costs one restructure.
//!
//! **Write-behind persistence**: a 200 goes out first and is handed to
//! the one store-writer thread afterwards, so no client waits for an
//! fsync. Until the durable put has returned, the body stays on the
//! request's flight record and a repeat is answered from there.
//!
//! **Graceful shutdown**: `POST /shutdown` (or
//! [`Server::initiate_shutdown`]) flips the draining flag, pokes the
//! acceptor awake, and lets the workers finish everything already
//! admitted before they exit — queued work is drained, never dropped;
//! new arrivals get `503 shutting-down`. The store writer exits last,
//! after every reply handed to it is on disk.

use crate::breaker::{self, Breaker};
use crate::engine::{self, EngineConfig, ServeRequest};
use crate::error::{self, kind};
use crate::http;
use crate::json::Json;
use cedar_experiments::jsonio::{flags, Writer};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed.
    pub queue_cap: usize,
    /// Engine knobs (chaos, deadlines, backoff, bundles).
    pub engine: EngineConfig,
    /// Root of a crash-safe result store ([`cedar_store::Store`]).
    /// When set, every 200 `/restructure` response is persisted keyed
    /// by [`ServeRequest::key`], and a restarted server replays stored
    /// responses byte-identically instead of recomputing. `None`
    /// (the default) keeps the server fully in-memory.
    pub store_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            engine: EngineConfig::default(),
            store_dir: None,
        }
    }
}

/// Monotonic service counters, exposed at `/metrics` and read by the
/// load-test gates.
#[derive(Debug, Default)]
pub struct Counters {
    /// Connections admitted to the queue.
    pub accepted: AtomicU64,
    /// 200 responses (including coalesced copies).
    pub served: AtomicU64,
    /// Connections shed with 429 at admission.
    pub shed: AtomicU64,
    /// Requests that succeeded only after ladder retries.
    pub recovered: AtomicU64,
    /// Requests that failed at every rung (bundle written).
    pub quarantined: AtomicU64,
    /// Requests answered from another request's in-flight computation.
    pub coalesced: AtomicU64,
    /// 4xx responses (bad request, compile error, not found).
    pub client_errors: AtomicU64,
}

impl Counters {
    fn json(
        &self,
        draining: bool,
        breaker: &Breaker,
        store: Option<&cedar_store::Store>,
        pending: usize,
    ) -> String {
        let mut w = Writer::new();
        w.obj().key("schema").str("cedar-serve-metrics-v1");
        w.key("accepted").int(self.accepted.load(Ordering::Relaxed));
        w.key("served").int(self.served.load(Ordering::Relaxed));
        w.key("shed").int(self.shed.load(Ordering::Relaxed));
        w.key("recovered").int(self.recovered.load(Ordering::Relaxed));
        w.key("quarantined").int(self.quarantined.load(Ordering::Relaxed));
        w.key("coalesced").int(self.coalesced.load(Ordering::Relaxed));
        w.key("client_errors").int(self.client_errors.load(Ordering::Relaxed));
        w.key("draining").bool(draining);
        w.key("breaker").raw(breaker.status_json());
        w.key("store").opt(store, |w, s| {
            let st = s.stats();
            w.obj().key("hits").int(st.hits).key("misses").int(st.misses);
            w.key("corrupt_recovered").int(st.corrupt_recovered);
            w.key("puts").int(st.puts).key("entries").int(s.len());
            w.key("pending").int(pending).end()
        });
        w.finish()
    }
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    breaker: Breaker,
    /// Admitted connections, each with the instant it was admitted.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    counters: Counters,
    /// `/restructure` requests between admission and the store, by
    /// request key.
    flights: Mutex<HashMap<u64, Flight>>,
    /// Optional persistent result store: 200 responses keyed by
    /// [`ServeRequest::key`] survive restarts and are replayed
    /// byte-identically.
    store: Option<cedar_store::Store>,
}

/// What the server holds for a request key the store cannot answer yet.
enum Flight {
    /// The leader is in the engine; these follower connections get a
    /// copy of its response.
    Computing(Vec<TcpStream>),
    /// The 200 went out with this body and its durable put has not
    /// returned. A repeat is answered from here, so a reply is never
    /// recomputed and the first body is the one that reaches the disk.
    /// The hand-off queue bounds how many of these exist.
    Persisting(Arc<String>),
}

/// One reply on its way to the store writer.
type Put = (u64, Arc<String>);

impl Shared {
    fn flights(&self) -> MutexGuard<'_, HashMap<u64, Flight>> {
        self.flights.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replies sent whose put has not returned.
    fn pending(&self) -> usize {
        let flights = self.flights();
        flights.values().filter(|f| matches!(f, Flight::Persisting(_))).count()
    }
}

/// A running server; dropping it does **not** stop it — call
/// [`Server::shutdown`] (or hit `POST /shutdown` and [`Server::join`]).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    /// The store writer, when there is a store.
    writer: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start the acceptor + worker threads.
    ///
    /// When [`ServerConfig::store_dir`] is set the result store is
    /// opened (writable, single-writer) before the listener starts; a
    /// store that cannot be opened — locked by a live process, or an
    /// unwritable directory — fails the whole start rather than running
    /// silently without persistence.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let store = match &cfg.store_dir {
            None => None,
            Some(dir) => Some(cedar_store::Store::open(dir).map_err(|e| {
                std::io::Error::other(format!("result store {}: {e}", dir.display()))
            })?),
        };
        Server::start_on(cfg, store)
    }

    /// [`Server::start`] on a store the caller opened: how this module's
    /// tests give the server one with a fault hook.
    fn start_on(cfg: ServerConfig, store: Option<cedar_store::Store>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            breaker: Breaker::new(breaker::THRESHOLD, breaker::COOLDOWN),
            cfg,
            addr,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            flights: Mutex::new(HashMap::new()),
            store,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        let workers = shared.cfg.workers.max(1);
        // The hand-off to the store writer holds one reply per worker: a
        // disk slower than the engine fills it, and the worker that finds
        // it full waits as it did when it ran the put itself. Each worker
        // owns a sender, so the writer's loop ends when the last worker
        // has exited and the queue is empty.
        let (persist, writer) = match shared.store {
            None => (None, None),
            Some(_) => {
                let (tx, rx) = sync_channel(workers);
                let shared = Arc::clone(&shared);
                (Some(tx), Some(std::thread::spawn(move || store_writer(&shared, rx))))
            }
        };
        let workers = (0..workers)
            .map(|_| {
                let (shared, persist) = (Arc::clone(&shared), persist.clone());
                std::thread::spawn(move || worker_loop(&shared, persist.as_ref()))
            })
            .collect();
        Ok(Server { addr, shared, acceptor, workers, writer })
    }

    /// `host:port` the server is listening on.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// A snapshot of the service counters.
    pub fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    /// Begin draining: stop admitting, let workers finish the queue.
    pub fn initiate_shutdown(&self) {
        begin_drain(&self.shared);
    }

    /// Wait for the acceptor and workers to exit (after a drain was
    /// initiated via [`Server::initiate_shutdown`] or `POST /shutdown`),
    /// then for the store writer: every 200 this server answered is on
    /// disk, or its put was logged as failed, when `join` returns.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(w) = self.writer {
            let _ = w.join();
        }
    }

    /// [`Server::initiate_shutdown`] + [`Server::join`].
    pub fn shutdown(self) {
        self.initiate_shutdown();
        self.join();
    }
}

fn begin_drain(shared: &Shared) {
    shared.draining.store(true, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    // Poke the acceptor out of its blocking accept; the throwaway
    // connection is answered (or dropped) and the loop exits.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        let Ok(mut stream) = conn else { continue };
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
        if shared.draining.load(Ordering::SeqCst) {
            // Answer the straggler that woke us, then stop accepting.
            if http::read_request(&mut stream).is_ok() {
                http::write_response(
                    &mut stream,
                    error::status_for(kind::SHUTTING_DOWN),
                    &error::error_json(
                        kind::SHUTTING_DOWN,
                        "server is draining; no new work is admitted",
                        None,
                        &[],
                    ),
                );
            }
            break;
        }
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= shared.cfg.queue_cap {
            drop(queue);
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            // Load shedding: consume the request (so the client's write
            // completes cleanly) and answer with the structured 429.
            let _ = http::read_request(&mut stream);
            http::write_response(
                &mut stream,
                error::status_for(kind::QUEUE_FULL),
                &error::error_json(
                    kind::QUEUE_FULL,
                    "admission queue is full; retry with backoff",
                    None,
                    &[],
                ),
            );
        } else {
            queue.push_back((stream, Instant::now()));
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            drop(queue);
            shared.queue_cv.notify_one();
        }
    }
    // Acceptor exit: make sure sleeping workers observe the drain.
    shared.queue_cv.notify_all();
}

/// The one thread that writes the store. The put is `Store::put` — one
/// append to the log and its `fdatasync` — and best-effort: a full disk
/// or an injected fault degrades the server to recompute-on-restart.
/// The flight record goes only after the put has returned, so the entry
/// is visible in the store before the body stops being answered from
/// memory.
fn store_writer(shared: &Shared, replies: Receiver<Put>) {
    let Some(store) = &shared.store else { return };
    for (key, body) in replies {
        if let Err(e) = store.put(key, body.as_bytes()) {
            eprintln!("cedar-serve: result store put failed: {e}");
        }
        shared.flights().remove(&key);
    }
}

fn worker_loop(shared: &Shared, persist: Option<&SyncSender<Put>>) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.queue_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        match stream {
            // The request holds a core of the process's budget while it
            // is answered, so concurrent verdicts run on their workers.
            Some((s, admitted)) => {
                cedar_par::occupy(|| handle_connection(shared, persist, s, admitted.elapsed()))
            }
            None => return, // drained and draining: exit
        }
    }
}

/// Answer one admitted connection; `queued` is how long it waited for
/// this worker.
fn handle_connection(
    shared: &Shared,
    persist: Option<&SyncSender<Put>>,
    mut stream: TcpStream,
    queued: Duration,
) {
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.client_errors.fetch_add(1, Ordering::Relaxed);
            http::write_response(
                &mut stream,
                400,
                &error::error_json(
                    kind::BAD_REQUEST,
                    &format!("malformed request: {e}"),
                    None,
                    &[],
                ),
            );
            return;
        }
    };
    let draining = shared.draining.load(Ordering::SeqCst);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => http::write_response(&mut stream, 200, &flags(&[("ok", true)])),
        ("GET", "/readyz") => {
            if draining {
                http::write_response(
                    &mut stream,
                    error::status_for(kind::SHUTTING_DOWN),
                    &error::error_json(kind::SHUTTING_DOWN, "draining", None, &[]),
                );
            } else {
                http::write_response(&mut stream, 200, &flags(&[("ready", true)]));
            }
        }
        ("GET", "/metrics") => {
            let body = shared.counters.json(
                draining,
                &shared.breaker,
                shared.store.as_ref(),
                shared.pending(),
            );
            http::write_response(&mut stream, 200, &body);
        }
        ("POST", "/shutdown") => {
            begin_drain(shared);
            http::write_response(&mut stream, 200, &flags(&[("ok", true), ("draining", true)]));
        }
        ("POST", "/restructure") => {
            restructure_endpoint(shared, persist, stream, &req.body, queued)
        }
        _ => {
            shared.counters.client_errors.fetch_add(1, Ordering::Relaxed);
            http::write_response(
                &mut stream,
                error::status_for(kind::NOT_FOUND),
                &error::error_json(
                    kind::NOT_FOUND,
                    &format!("no such endpoint: {} {}", req.method, req.path),
                    None,
                    &[],
                ),
            );
        }
    }
}

fn restructure_endpoint(
    shared: &Shared,
    persist: Option<&SyncSender<Put>>,
    mut stream: TcpStream,
    body: &str,
    queued: Duration,
) {
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => {
            shared.counters.client_errors.fetch_add(1, Ordering::Relaxed);
            http::write_response(
                &mut stream,
                error::status_for(kind::PARSE_ERROR),
                &error::error_json(kind::PARSE_ERROR, &format!("body is not JSON: {e}"), None, &[]),
            );
            return;
        }
    };
    let sreq = match ServeRequest::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.client_errors.fetch_add(1, Ordering::Relaxed);
            http::write_response(
                &mut stream,
                error::status_for(kind::BAD_REQUEST),
                &error::error_json(kind::BAD_REQUEST, &e, None, &[]),
            );
            return;
        }
    };

    let key = sreq.key();
    let replay = |stream: &mut TcpStream, body: &str| {
        shared.counters.served.fetch_add(1, Ordering::Relaxed);
        http::write_response(stream, 200, body);
    };

    // A reply that went out is never recomputed. Until its put has
    // returned the store may not have it, so the flight record is asked
    // before the store; the writer drops the record only after the put,
    // and a key missing here is either on disk or was never answered.
    let replied = match shared.flights().get(&key) {
        Some(Flight::Persisting(body)) => Some(Arc::clone(body)),
        _ => None,
    };
    if let Some(body) = replied {
        return replay(&mut stream, &body);
    }

    // Then the store: a previous request (or a previous process — this
    // is the warm-restart path) may have the finished response on disk.
    // A verified entry is replayed **verbatim**, so a restarted server
    // is byte-identical to the one that computed the result; a torn or
    // corrupt entry is quarantined by `get` and falls through to
    // recomputation, which re-persists a fresh copy below.
    if let Some(store) = &shared.store {
        if let Some(bytes) = store.get(key) {
            if let Ok(body) = String::from_utf8(bytes) {
                return replay(&mut stream, &body);
            }
        }
    }

    // Coalescing: if an identical request is already being computed,
    // park this connection on its flight record — the leader answers
    // it. Registration happens under the flights lock, and the leader
    // collects waiters under the same lock, so no follower can be
    // orphaned between check and park.
    {
        let mut flights = shared.flights();
        match flights.get_mut(&key) {
            Some(Flight::Computing(waiters)) => {
                waiters.push(stream);
                shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // The leader answered while this request was at the store.
            Some(Flight::Persisting(body)) => {
                let body = Arc::clone(body);
                drop(flights);
                return replay(&mut stream, &body);
            }
            None => {
                flights.insert(key, Flight::Computing(Vec::new()));
            }
        }
    }

    let handled = engine::handle_queued(&sreq, &shared.cfg.engine, &shared.breaker, queued);
    let body = Arc::new(handled.body);

    // Only a 200 is persisted. In the step that collects the followers
    // the record becomes the body (the leader's, with `"coalesced":
    // false`, so a replay after restart matches what its client saw):
    // no request for this key finds neither a leader nor a reply.
    let persist = persist.filter(|_| handled.status == 200);
    let waiters = {
        let mut flights = shared.flights();
        let record = match persist {
            Some(_) => flights.insert(key, Flight::Persisting(Arc::clone(&body))),
            None => flights.remove(&key),
        };
        match record {
            Some(Flight::Computing(waiters)) => waiters,
            _ => Vec::new(),
        }
    };

    if handled.status == 200 {
        shared.counters.served.fetch_add(1 + waiters.len() as u64, Ordering::Relaxed);
        if handled.retries > 0 {
            shared.counters.recovered.fetch_add(1, Ordering::Relaxed);
        }
    } else if handled.quarantined {
        shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
    } else if handled.status < 500 {
        shared.counters.client_errors.fetch_add(1, Ordering::Relaxed);
    }

    http::write_response(&mut stream, handled.status, &body);
    // One request per connection: the client has its reply when the
    // connection closes, which must not wait for the hand-off below.
    drop(stream);
    if !waiters.is_empty() {
        let copy = engine::coalesced_copy(&body);
        for mut w in waiters {
            http::write_response(&mut w, handled.status, &copy);
        }
    }

    // Every client has its answer; now the disk. A full queue makes this
    // worker wait for the writer, as it waited for its own put before:
    // nothing is dropped. A writer that is gone is a failed put.
    if let Some(writer) = persist {
        if writer.send((key, body)).is_err() {
            eprintln!("cedar-serve: result store writer is gone; reply not persisted");
            shared.flights().remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn test_config(tag: &str) -> ServerConfig {
        let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
        cfg.engine.sup.chaos = None;
        cfg.engine.sup.deadline = None;
        cfg.engine.sup.bundle_dir = PathBuf::from(format!("target/test-serve-bundles/{tag}"));
        cfg.engine.backoff_base = Duration::from_millis(1);
        cfg
    }

    const T: Duration = Duration::from_secs(30);

    /// The `serve` binary lays the supervisor variables over the default
    /// (`from_env` replaced it by the sweeps' 120 s profile), so with
    /// none set it runs the 30 s attempt deadline of every in-process
    /// server.
    #[test]
    fn the_binary_shares_the_in_process_attempt_deadline() {
        if cedar_par::cli::env_secs("CEDAR_CELL_DEADLINE").is_none() {
            let sup = ServerConfig::default().engine.sup.overlay_env();
            assert_eq!(sup.deadline, Some(Duration::from_secs(30)));
        }
    }

    #[test]
    fn health_endpoints_and_unknown_routes() {
        let server = Server::start(test_config("health")).unwrap();
        let addr = server.addr();
        assert_eq!(http::get(&addr, "/healthz", T).unwrap(), (200, "{\"ok\": true}".into()));
        assert_eq!(http::get(&addr, "/readyz", T).unwrap().0, 200);
        let (status, body) = http::get(&addr, "/nope", T).unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("\"kind\": \"not-found\""), "{body}");
        let (status, metrics) = http::get(&addr, "/metrics", T).unwrap();
        assert_eq!(status, 200);
        assert!(metrics.contains("\"schema\": \"cedar-serve-metrics-v1\""), "{metrics}");
        server.shutdown();
    }

    #[test]
    fn restructure_round_trip_and_shutdown_drains() {
        let server = Server::start(test_config("roundtrip")).unwrap();
        let addr = server.addr();
        let mut req = ServeRequest::new(
            "program p\nreal a(32)\ninteger i\ndo 10 i = 1, 32\n  a(i) = real(i)\n10 continue\nprint *, a(32)\nend\n",
        );
        req.validate = false;
        let (status, body) = http::post(&addr, "/restructure", &req.to_json(), T).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"speedup\""), "{body}");
        // Shutdown via the endpoint: readyz flips, then the server joins.
        let (status, _) = http::post(&addr, "/shutdown", "", T).unwrap();
        assert_eq!(status, 200);
        server.join();
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let mut cfg = test_config("coalesce");
        // 20 000 perturbed validation runs (about 5 µs each) keep the
        // leader in flight for a hundred milliseconds — long enough
        // that the followers, sent a few ms later, find it computing
        // even when the rest of the suite keeps every processor busy.
        cfg.engine.validate_seeds = (1..=20_000).collect();
        let server = Server::start(cfg).unwrap();
        let addr = server.addr();
        let req = ServeRequest::new(
            "program p\nreal a(256), s\ninteger i\ns = 0.0\ndo 10 i = 1, 256\n  a(i) = real(i) * 0.5\n10 continue\ndo 20 i = 1, 256\n  s = s + a(i)\n20 continue\nprint *, s\nend\n",
        );
        let body = req.to_json();
        let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|i: u64| {
                    let (addr, body) = (addr.clone(), body.clone());
                    scope.spawn(move || {
                        if i > 0 {
                            std::thread::sleep(Duration::from_millis(3 * i));
                        }
                        http::post(&addr, "/restructure", &body, T).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let coalesced = server.counters().coalesced.load(std::sync::atomic::Ordering::Relaxed);
        assert!(coalesced >= 1, "identical in-flight requests must share one computation");
        let reports: Vec<&str> = bodies
            .iter()
            .map(|(status, b)| {
                assert_eq!(*status, 200, "{b}");
                let (_, rest) = b.split_once("\"report\": \"").unwrap();
                rest.split("\", \"stats\"").next().unwrap()
            })
            .collect();
        assert!(reports.windows(2).all(|w| w[0] == w[1]), "answers must agree");
        let marked =
            bodies.iter().filter(|(_, b)| b.contains("\"coalesced\": true")).count() as u64;
        assert_eq!(marked, coalesced, "followers carry the coalesced marker");
        server.shutdown();
    }

    #[test]
    fn a_reply_reports_its_wait_for_a_worker() {
        use std::io::{Read, Write};
        use std::sync::atomic::Ordering;
        // One worker, held by a connection that has not sent its request
        // yet; a `/restructure` request admitted behind it stands in the
        // queue until the first one speaks, 20 ms after the admission.
        let mut cfg = test_config("queue-wait");
        cfg.workers = 1;
        let server = Server::start(cfg).unwrap();
        let addr = server.addr();
        let admitted = |n| {
            while server.counters().accepted.load(Ordering::Relaxed) < n {
                std::thread::yield_now();
            }
        };
        let mut silent = TcpStream::connect(&addr).unwrap();
        admitted(1);
        let mut req = ServeRequest::new("program p\nreal x\nx = 1.0\nprint *, x\nend\n");
        req.validate = false;
        let (status, body) = std::thread::scope(|scope| {
            let queued =
                scope.spawn(|| http::post(&addr, "/restructure", &req.to_json(), T).unwrap());
            admitted(2);
            std::thread::sleep(Duration::from_millis(20));
            silent.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
            silent.read_to_end(&mut Vec::new()).unwrap();
            queued.join().unwrap()
        });
        assert_eq!(status, 200, "{body}");
        let service = Json::parse(&body).unwrap().get("service").cloned().unwrap();
        assert_eq!(service.str_at("request_id").unwrap(), req.id());
        let stages = service.get("stages_ms").unwrap();
        let queue = stages.get("queue").and_then(Json::as_f64).unwrap();
        assert!(queue >= 20.0, "admitted 20 ms before the worker was free, waited {queue} ms");
        server.shutdown();
    }

    use cedar_store::{FaultHook, FsFault, FsStage, Store};
    use std::sync::mpsc;

    /// A two-worker server on a fresh store whose puts ask `hook` first.
    fn start_with_hook(tag: &str, hook: FaultHook) -> (Server, PathBuf) {
        let dir = PathBuf::from(format!("target/test-serve-writer/{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap().with_fault_hook(hook);
        (Server::start_on(test_config(tag), Some(store)).unwrap(), dir)
    }

    /// A hook that holds every put at its first stage for as long as the
    /// sender it comes with is alive.
    fn gate() -> (mpsc::Sender<()>, FaultHook) {
        let (open, held) = mpsc::channel::<()>();
        let held = Mutex::new(held);
        let hook: FaultHook = Arc::new(move |stage, _| {
            if stage == FsStage::Write {
                let _ = held.lock().unwrap().recv();
            }
            None
        });
        (open, hook)
    }

    /// Unvalidated requests with distinct keys.
    fn distinct(n: usize) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                let mut req = ServeRequest::new(format!(
                    "program p\nreal a({0})\ninteger i\ndo 10 i = 1, {0}\n  a(i) = real(i)\n10 continue\nprint *, a({0})\nend\n",
                    16 + i
                ));
                req.validate = false;
                req
            })
            .collect()
    }

    fn post_ok(addr: &str, req: &ServeRequest) -> String {
        let (status, body) = http::post(addr, "/restructure", &req.to_json(), T).unwrap();
        assert_eq!(status, 200, "{body}");
        body
    }

    /// `(pending, puts, hits, misses)` of `/metrics`' store block.
    fn store_counts(addr: &str) -> (u64, u64, u64, u64) {
        let (_, body) = http::get(addr, "/metrics", T).unwrap();
        let store = Json::parse(&body).unwrap().get("store").cloned().unwrap();
        let n = |field| store.u64_at(field).unwrap();
        (n("pending"), n("puts"), n("hits"), n("misses"))
    }

    /// [`store_counts`] once the writer owes the disk nothing.
    fn settled_store_counts(addr: &str) -> (u64, u64, u64, u64) {
        let start = Instant::now();
        loop {
            let counts = store_counts(addr);
            if counts.0 == 0 {
                return counts;
            }
            assert!(start.elapsed() < T, "the store writer never caught up: {counts:?}");
            std::thread::yield_now();
        }
    }

    /// Every reply is in the store at `dir`, whole, and nothing else is.
    fn assert_on_disk(dir: &std::path::Path, requests: &[ServeRequest], replies: &[String]) {
        let store = Store::open(dir).expect("the server released its store");
        assert_eq!(store.len(), requests.len(), "one entry per 200");
        for (req, reply) in requests.iter().zip(replies) {
            assert_eq!(store.get(req.key()).as_deref(), Some(reply.as_bytes()));
        }
        assert_eq!(store.stats().corrupt_recovered, 0, "every entry verifies");
    }

    #[test]
    fn a_repeat_before_the_put_returns_is_answered_from_the_flight_record() {
        let (open, hook) = gate();
        let (server, _) = start_with_hook("read-your-writes", hook);
        let addr = server.addr();
        let req = &distinct(1)[0];
        let first = post_ok(&addr, req);
        assert_eq!(post_ok(&addr, req), first, "the repeat is the first reply");
        // One miss: the repeat reached neither the store nor the engine.
        assert_eq!(store_counts(&addr), (1, 0, 0, 1), "(pending, puts, hits, misses)");
        drop(open);
        assert_eq!(settled_store_counts(&addr), (0, 1, 0, 1));
        assert_eq!(post_ok(&addr, req), first, "and so is the store's copy");
        assert_eq!(store_counts(&addr), (0, 1, 1, 1));
        server.shutdown();
    }

    #[test]
    fn a_full_hand_off_holds_the_worker_and_shutdown_waits_for_every_put() {
        let (open, hook) = gate();
        let (server, dir) = start_with_hook("back-pressure", hook);
        let addr = server.addr();
        // The writer holds the first put and the queue the next two (one
        // per worker); the worker that answered the fourth waits to hand
        // it over. All four clients have their answer.
        let requests = distinct(4);
        let replies: Vec<String> = requests.iter().map(|r| post_ok(&addr, r)).collect();
        assert_eq!(store_counts(&addr), (4, 0, 0, 4), "(pending, puts, hits, misses)");
        server.initiate_shutdown();
        drop(open);
        server.join();
        assert_on_disk(&dir, &requests, &replies);
    }

    #[test]
    fn a_failed_put_at_any_stage_costs_no_reply_and_tears_nothing() {
        for stage in FsStage::ALL {
            let hook: FaultHook = Arc::new(move |st, _| (st == stage).then_some(FsFault::Eio));
            let (server, dir) = start_with_hook(&format!("failed-put-{}", stage.tag()), hook);
            let addr = server.addr();
            for req in &distinct(2) {
                post_ok(&addr, req);
            }
            assert_eq!(
                settled_store_counts(&addr),
                (0, 0, 0, 2),
                "{stage:?}: the records are dropped"
            );
            server.shutdown();
            assert_on_disk(&dir, &[], &[]);
        }
    }

    #[test]
    fn a_dead_writer_costs_no_reply_and_shutdown_returns() {
        let hook: FaultHook = Arc::new(|_, _| panic!("the store writer dies in its first put"));
        let (server, dir) = start_with_hook("dead-writer", hook);
        let addr = server.addr();
        let requests = distinct(4);
        for req in &requests {
            post_ok(&addr, req);
        }
        server.shutdown();
        assert_on_disk(&dir, &[], &[]);
    }

    #[test]
    fn bad_bodies_get_structured_errors() {
        let server = Server::start(test_config("badbody")).unwrap();
        let addr = server.addr();
        let (status, body) = http::post(&addr, "/restructure", "{not json", T).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("\"kind\": \"parse-error\""), "{body}");
        let (status, body) = http::post(&addr, "/restructure", "{\"x\": 1}", T).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("\"kind\": \"bad-request\""), "{body}");
        server.shutdown();
    }
}
