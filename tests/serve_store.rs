//! Warm-restart persistence tests for the service result store
//! (DESIGN.md §15): a server started on a populated store replays
//! `/restructure` responses **byte-identically** without recomputing,
//! `/metrics` accounts for store traffic, and a corrupt entry heals by
//! recomputation instead of poisoning the response.

use cedar_serve::{http, Json, ServeRequest, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

const T: Duration = Duration::from_secs(30);

const SOURCE: &str = "program p\nreal a(64), s\ninteger i\ns = 0.0\ndo 10 i = 1, 64\n  a(i) = real(i) * 1.5\n10 continue\ndo 20 i = 1, 64\n  s = s + a(i)\n20 continue\nprint *, s\nend\n";

/// Server config whose store lives at `target/test-serve-store/<tag>`,
/// left exactly as the previous run (if any) wrote it.
fn config_reopen(tag: &str) -> ServerConfig {
    let dir = PathBuf::from(format!("target/test-serve-store/{tag}"));
    let mut cfg =
        ServerConfig { workers: 2, store_dir: Some(dir.join("store")), ..ServerConfig::default() };
    cfg.engine.sup.chaos = None;
    cfg.engine.sup.deadline = None;
    cfg.engine.sup.bundle_dir = dir.join("bundles");
    cfg.engine.backoff_base = Duration::from_millis(1);
    cfg
}

/// [`config_reopen`] on a wiped directory: the cold-start config.
fn config(tag: &str) -> ServerConfig {
    let _ = std::fs::remove_dir_all(format!("target/test-serve-store/{tag}"));
    config_reopen(tag)
}

fn request() -> ServeRequest {
    let mut req = ServeRequest::new(SOURCE);
    req.watch.push("s".into());
    req
}

/// `/metrics` → the `store` object, or a panic when persistence is off.
fn store_metrics(addr: &str) -> Json {
    let (status, body) = http::get(addr, "/metrics", T).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).expect("metrics are valid JSON");
    let store = v.get("store").expect("metrics carry a store field");
    assert!(!store.is_null(), "store metrics missing: {body}");
    store.clone()
}

/// [`store_metrics`] once no reply is waiting for its put: the server
/// answers before it writes, so what `puts` and `entries` say about a
/// reply already received is settled when `pending` is 0.
fn settled_store_metrics(addr: &str) -> Json {
    let start = std::time::Instant::now();
    loop {
        let m = store_metrics(addr);
        if count(&m, "pending") == 0 {
            return m;
        }
        assert!(start.elapsed() < T, "the store writer never caught up: {m:?}");
        std::thread::yield_now();
    }
}

fn count(m: &Json, field: &str) -> u64 {
    m.get(field).and_then(Json::as_f64).unwrap_or_else(|| panic!("no {field} in {m:?}")) as u64
}

#[test]
fn warm_restart_replays_byte_identical_responses() {
    let cfg = config("warm");
    let body = request().to_json();

    // Cold run: compute, persist, answer.
    let server = Server::start(cfg.clone()).unwrap();
    let addr = server.addr();
    let (status, cold) = http::post(&addr, "/restructure", &body, T).unwrap();
    assert_eq!(status, 200, "{cold}");
    let m = settled_store_metrics(&addr);
    assert_eq!(count(&m, "misses"), 1, "cold request misses the store: {m:?}");
    assert_eq!(count(&m, "puts"), 1, "cold response is persisted: {m:?}");
    // A repeat within the same process is already a store hit.
    let (status, repeat) = http::post(&addr, "/restructure", &body, T).unwrap();
    assert_eq!(status, 200);
    assert_eq!(repeat, cold, "same-process replay is byte-identical");
    server.shutdown();

    // Warm run: a brand-new process image (new Server, same dir) must
    // answer from disk, byte for byte, without touching the engine.
    let server = Server::start(config_reopen("warm")).unwrap();
    let addr = server.addr();
    let (status, warm) = http::post(&addr, "/restructure", &body, T).unwrap();
    assert_eq!(status, 200, "{warm}");
    assert_eq!(warm, cold, "warm restart must replay the stored bytes");
    let m = store_metrics(&addr);
    assert_eq!(count(&m, "hits"), 1, "warm request hits the store: {m:?}");
    assert_eq!(count(&m, "misses"), 0, "{m:?}");
    assert_eq!(count(&m, "corrupt_recovered"), 0, "{m:?}");
    assert_eq!(count(&m, "entries"), 1, "{m:?}");

    // A *different* request (different key) misses and is computed —
    // the body can coincide with `cold` (shared caches, rounded
    // timings), so the store counters are the discriminating signal.
    let mut other = request();
    other.config = "manual".into();
    let (status, fresh) = http::post(&addr, "/restructure", &other.to_json(), T).unwrap();
    assert_eq!(status, 200, "{fresh}");
    let m = settled_store_metrics(&addr);
    assert_eq!(count(&m, "misses"), 1, "new key misses the store: {m:?}");
    assert_eq!(count(&m, "entries"), 2, "new result persisted: {m:?}");
    server.shutdown();
}

/// `N` requests with distinct keys (the trip count is in the source).
fn distinct_requests(n: usize) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            let mut req = ServeRequest::new(SOURCE.replace("64", &(32 + i).to_string()));
            req.watch.push("s".into());
            req
        })
        .collect()
}

#[test]
fn shutdown_leaves_one_verifying_entry_per_reply() {
    let cfg = config("drain");
    let store_root = cfg.store_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    let requests = distinct_requests(6);
    let replies: Vec<String> = requests
        .iter()
        .map(|req| {
            let (status, body) = http::post(&addr, "/restructure", &req.to_json(), T).unwrap();
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();
    // No wait between the last reply and the shutdown: whatever the
    // server still owes the disk, `shutdown` returns after it is paid.
    server.shutdown();

    let store = cedar_store::Store::open(&store_root).expect("the server released its store");
    assert_eq!(store.len(), requests.len(), "one entry per 200");
    for (req, reply) in requests.iter().zip(&replies) {
        let entry = store.get(req.key()).expect("every reply is on disk after shutdown");
        assert_eq!(entry, reply.as_bytes(), "the entry is the reply");
    }
    assert_eq!(store.stats().corrupt_recovered, 0, "every entry verifies");
}

#[test]
fn a_repeat_right_after_the_reply_is_the_reply() {
    let server = Server::start(config("read-your-writes")).unwrap();
    let addr = server.addr();
    // The repeat leaves as soon as the first reply has arrived, with no
    // look at `/metrics` in between: wherever the first body is by then,
    // the second answer is that body and nothing is computed twice.
    for req in distinct_requests(8) {
        let body = req.to_json();
        let (status, first) = http::post(&addr, "/restructure", &body, T).unwrap();
        assert_eq!(status, 200, "{first}");
        let (status, repeat) = http::post(&addr, "/restructure", &body, T).unwrap();
        assert_eq!(status, 200, "{repeat}");
        assert_eq!(repeat, first, "a reply that went out is not recomputed");
    }
    let (_, metrics) = http::get(&addr, "/metrics", T).unwrap();
    let served = Json::parse(&metrics).unwrap().u64_at("served").unwrap();
    assert_eq!(served, 16, "{metrics}");
    server.shutdown();
}

#[test]
fn corrupt_entries_recompute_and_repersist() {
    let cfg = config("corrupt");
    let store_root = cfg.store_dir.clone().unwrap();
    let req = request();
    let body = req.to_json();

    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    let (status, cold) = http::post(&addr, "/restructure", &body, T).unwrap();
    assert_eq!(status, 200, "{cold}");
    server.shutdown();

    // Flip the last payload byte on disk: the record's checksum must
    // catch it.
    let log = store_root.join("log");
    let mut bytes = std::fs::read(&log).unwrap();
    assert!(bytes.len() > cold.len(), "the record carries header + payload");
    *bytes.last_mut().unwrap() ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();

    let server = Server::start(config_reopen("corrupt")).unwrap();
    let addr = server.addr();
    let (status, healed) = http::post(&addr, "/restructure", &body, T).unwrap();
    assert_eq!(status, 200, "{healed}");
    let m = settled_store_metrics(&addr);
    assert_eq!(count(&m, "corrupt_recovered"), 1, "torn entry detected: {m:?}");
    assert_eq!(count(&m, "puts"), 1, "recomputed response re-persisted: {m:?}");
    // The quarantined copy is preserved for forensics…
    let corrupt: Vec<_> = std::fs::read_dir(store_root.join("corrupt")).unwrap().collect();
    assert_eq!(corrupt.len(), 1, "corrupt entry quarantined");
    // …and the store is healed: the next request replays from disk.
    let (status, replay) = http::post(&addr, "/restructure", &body, T).unwrap();
    assert_eq!(status, 200);
    assert_eq!(replay, healed, "healed entry replays byte-identically");
    server.shutdown();
}

#[test]
fn a_live_second_writer_is_refused_at_startup() {
    let cfg = config("locked");
    let server = Server::start(cfg.clone()).unwrap();
    let err = match Server::start(cfg) {
        Err(e) => e,
        Ok(_) => panic!("second server must not share the store"),
    };
    assert!(err.to_string().contains("locked"), "{err}");
    server.shutdown();
}
