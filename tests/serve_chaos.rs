//! Fault-injection proof of the service's robustness contract, driven
//! through the real HTTP surface with `CEDAR_CHAOS`-style injection
//! enabled on the in-process server:
//!
//! * a **transient** fault (fails at `normal`, clean at a safer rung)
//!   must recover via the retry ladder — the client sees a plain 200
//!   plus honest `service.retries` accounting;
//! * a **sticky** fault (fires at every rung) must quarantine: a
//!   structured error with a stable kind, no leaked panic internals,
//!   and a crash-bundle reference — and a second identical request
//!   must land in the *same* deduplicated bundle with its hit count
//!   incremented, not a second directory.
//!
//! Chaos draws are deterministic in `(seed, label, rung, phase)`, so
//! the tests *predict* which generated program recovers and which
//! quarantines using the public probes, then assert the service does
//! exactly that.
//!
//! Inputs that used to abort the process get an error reply, and the
//! server keeps answering: programs past the storage cap, and bodies
//! nested past the parsers' limits.

use cedar_experiments::chaos;
use cedar_experiments::jsonio::MAX_DEPTH;
use cedar_experiments::supervise::{self, Rung};
use cedar_f77::parser::{MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, MAX_EXPR_HEIGHT};
use cedar_fuzz::GenProgram;
use cedar_serve::{http, Json, ServeRequest, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

const CHAOS: u64 = 42;
/// The phases a `validate: false` request gates, in order.
const PHASES: [&str; 3] = ["compile", "restructure", "simulate"];
const T: Duration = Duration::from_secs(120);

fn chaos_server(tag: &str) -> Server {
    let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    cfg.engine.sup.chaos = Some(CHAOS);
    cfg.engine.sup.deadline = None;
    cfg.engine.sup.bundle_dir = PathBuf::from(format!("target/test-serve-bundles/{tag}"));
    let _ = std::fs::remove_dir_all(&cfg.engine.sup.bundle_dir);
    cfg.engine.backoff_base = Duration::from_millis(1);
    Server::start(cfg).expect("bind in-process server")
}

fn request_for(seed: u64) -> ServeRequest {
    let mut req = ServeRequest::new(GenProgram::generate(seed).render().source);
    req.validate = false;
    req
}

/// A sticky non-delay fault fires on some phase of this request — it
/// will fail identically at every rung.
fn sticky_faulty(label: &str) -> bool {
    PHASES.iter().any(|p| matches!(chaos::probe_sticky(CHAOS, label, p), Some(k) if k != "delay"))
}

/// A transient non-delay fault fires on some phase at this rung.
fn rung_fails(label: &str, rung: &str) -> bool {
    PHASES.iter().any(|p| matches!(chaos::probe(CHAOS, label, rung, p), Some(k) if k != "delay"))
}

/// First generated program whose request satisfies `want`.
fn find_seed(want: impl Fn(&str) -> bool) -> (u64, ServeRequest) {
    for seed in 0..2000u64 {
        let req = request_for(seed);
        if want(&req.label()) {
            return (seed, req);
        }
    }
    panic!("no generated program matches the predicate in 2000 seeds");
}

#[test]
fn transient_faults_recover_via_the_retry_ladder() {
    // Want: clean of sticky faults, fails at `normal`, but some safer
    // rung is completely clean — the ladder must rescue it.
    let (seed, req) = find_seed(|label| {
        !sticky_faulty(label)
            && rung_fails(label, Rung::Normal.label())
            && Rung::LADDER[1..].iter().any(|r| !rung_fails(label, r.label()))
    });
    let server = chaos_server("chaos-transient");
    let addr = server.addr();
    let (status, body) = http::post(&addr, "/restructure", &req.to_json(), T).unwrap();
    assert_eq!(status, 200, "seed {seed} should recover, got: {body}");
    let v = Json::parse(&body).unwrap();
    let service = v.get("service").unwrap();
    let retries = service.get("retries").and_then(Json::as_f64).unwrap();
    assert!(retries >= 1.0, "recovery must be visible in retries: {body}");
    let rung = service.get("rung").and_then(Json::as_str).unwrap();
    assert_ne!(rung, "normal", "recovered rung must be a safer one: {body}");

    let (_, metrics) = http::get(&addr, "/metrics", T).unwrap();
    let m = Json::parse(&metrics).unwrap();
    assert!(m.get("recovered").and_then(Json::as_f64).unwrap() >= 1.0, "{metrics}");
    server.shutdown();
}

#[test]
fn sticky_faults_quarantine_into_one_deduped_bundle() {
    let (seed, req) = find_seed(sticky_faulty);
    let server = chaos_server("chaos-sticky");
    let addr = server.addr();

    let (status, body) = http::post(&addr, "/restructure", &req.to_json(), T).unwrap();
    assert!(
        matches!(status, 422 | 500 | 504),
        "seed {seed} should quarantine, got {status}: {body}"
    );
    let v = Json::parse(&body).unwrap();
    let err = v.get("error").unwrap();
    let kind = err.get("kind").and_then(Json::as_str).unwrap();
    assert!(!kind.is_empty() && kind.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
    // Engine internals never leak: no panic location, no backtrace.
    assert!(!body.contains("panicked at"), "{body}");
    assert!(!body.contains(".rs:"), "{body}");
    // Every ladder rung was attempted before giving up.
    let attempts = err.get("attempts").and_then(Json::as_arr).unwrap();
    assert_eq!(attempts.len(), Rung::LADDER.len(), "{body}");
    let bundle = err
        .get("bundle")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("quarantine must reference a bundle: {body}"))
        .to_string();
    assert_eq!(supervise::bundle_hits(&bundle), 1, "first quarantine = one hit");

    // The identical request again: same digest, same directory, one
    // more hit — never a second bundle.
    let (status2, body2) = http::post(&addr, "/restructure", &req.to_json(), T).unwrap();
    assert_eq!(status2, status, "{body2}");
    let bundle2 = Json::parse(&body2)
        .unwrap()
        .get("error")
        .and_then(|e| e.get("bundle"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_eq!(bundle2, bundle, "identical failures must share one bundle");
    assert_eq!(supervise::bundle_hits(&bundle), 2, "second hit recorded");
    let root = PathBuf::from("target/test-serve-bundles/chaos-sticky");
    let dirs = std::fs::read_dir(&root).unwrap().count();
    assert_eq!(dirs, 1, "exactly one bundle directory under {}", root.display());
    server.shutdown();
}

#[test]
fn a_program_past_the_storage_cap_gets_an_error_and_the_server_keeps_answering() {
    // 2^40 REALs: a request the host allocator cannot meet aborted the
    // whole process before the simulator capped a run's storage.
    let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    cfg.engine.sup.bundle_dir = PathBuf::from("target/test-serve-bundles/storage-cap");
    let _ = std::fs::remove_dir_all(&cfg.engine.sup.bundle_dir);
    let server = Server::start(cfg).expect("bind in-process server");
    let addr = server.addr();
    let big = "      program p\n      real a(1099511627776)\n      a(1) = 1.0\n      end\n";
    let (status, body) = http::post(&addr, "/restructure", &ServeRequest::new(big).to_json(), T)
        .expect("the server answers");
    assert_eq!(status, 422, "{body}");
    let v = Json::parse(&body).unwrap();
    let err = v.get("error").unwrap_or_else(|| panic!("an error body: {body}"));
    assert_eq!(err.str_at("kind"), Ok("limit-exceeded"), "{body}");
    let message = err.str_at("message").unwrap();
    assert!(message.contains("line 2") && message.contains("array `a` is too large"), "{body}");

    let (status, body) = http::post(&addr, "/restructure", &request_for(0).to_json(), T)
        .expect("the server still answers");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn a_validated_program_whose_shadow_passes_the_storage_cap_gets_a_reply() {
    // 60 000 000 REALs: the candidate's GLOBAL array fits the cap, its
    // race-collecting run's shadow cells do not. That run took 1.6 GB
    // from the host before the shadow was charged to the run's storage.
    let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    cfg.engine.sup.bundle_dir = PathBuf::from("target/test-serve-bundles/shadow-cap");
    let _ = std::fs::remove_dir_all(&cfg.engine.sup.bundle_dir);
    let server = Server::start(cfg).expect("bind in-process server");
    let addr = server.addr();
    let big = "      program p\n      real a(60000000)\n      do i = 1, 60000000\n\
               \x20     a(i) = 1.0\n      end do\n      end\n";
    let req = ServeRequest::new(big);
    assert!(req.validate);
    let (status, body) =
        http::post(&addr, "/restructure", &req.to_json(), T).expect("the server answers");
    assert_eq!(status, 422, "{body}");
    let v = Json::parse(&body).unwrap();
    let err = v.get("error").unwrap_or_else(|| panic!("an error body: {body}"));
    assert_eq!(err.str_at("kind"), Ok("limit-exceeded"), "{body}");

    let (status, body) = http::post(&addr, "/restructure", &request_for(0).to_json(), T)
        .expect("the server still answers");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn bodies_nested_past_the_limits_get_a_client_error_and_the_server_keeps_answering() {
    let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    cfg.engine.sup.bundle_dir = PathBuf::from("target/test-serve-bundles/nesting");
    let _ = std::fs::remove_dir_all(&cfg.engine.sup.bundle_dir);
    let server = Server::start(cfg).expect("bind in-process server");
    let addr = server.addr();
    let program = |body: String| format!("      program p\n      real x\n{body}      end\n");
    let nest = |n: usize, open: &str, close: &str| {
        program(format!("      {}\n      x = 1.0\n      {}\n", open.repeat(n), close.repeat(n)))
    };
    let parens = 10 * MAX_EXPR_DEPTH;
    let sources = [
        program(format!("      x = {}1.0{}\n", "(".repeat(parens), ")".repeat(parens))),
        program(format!("      x = 1.0{}\n", " + 1.0".repeat(10 * MAX_EXPR_HEIGHT))),
        nest(10 * MAX_BLOCK_DEPTH, "do i = 1, 1\n      ", "end do\n      "),
        nest(10 * MAX_BLOCK_DEPTH, "if (x .lt. 1.0) then\n      ", "end if\n      "),
    ];
    let bodies = sources
        .iter()
        .map(|src| ServeRequest::new(src.as_str()).to_json())
        .chain(["[".repeat(10 * MAX_DEPTH) + &"]".repeat(10 * MAX_DEPTH)]);
    for body in bodies {
        let (status, reply) =
            http::post(&addr, "/restructure", &body, T).expect("the server answers");
        assert_eq!(status, 400, "{reply}");
        let (status, reply) = http::post(&addr, "/restructure", &request_for(0).to_json(), T)
            .expect("the server still answers");
        assert_eq!(status, 200, "{reply}");
    }
    server.shutdown();
}

#[test]
fn a_few_statements_over_long_sections_keep_the_deadline() {
    // 100 000 statements of 4 000 000 elements each: polled once per
    // 1 024 statements, each rung timed out after the 1 025th, and the
    // request was answered after 228.6 s.
    let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    cfg.engine.sup.bundle_dir = PathBuf::from("target/test-serve-bundles/long-sections");
    let _ = std::fs::remove_dir_all(&cfg.engine.sup.bundle_dir);
    let server = Server::start(cfg).expect("bind in-process server");
    let addr = server.addr();
    let src = "      program p\n      real a(4000000), b(4000000)\n      do i = 1, 100000\n\
               \x20     a(1:4000000) = b(1:4000000) + 1.0\n      end do\n      end\n";
    let mut req = ServeRequest::new(src);
    req.deadline_ms = Some(1000);
    let started = std::time::Instant::now();
    let (status, body) =
        http::post(&addr, "/restructure", &req.to_json(), T).expect("the server answers");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(10), "answered after {took:?}: {body}");
    assert_eq!(status, 504, "{body}");

    let (status, body) = http::post(&addr, "/restructure", &request_for(0).to_json(), T)
        .expect("the server still answers");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}
