//! The service keeps nothing per request: after a run of distinct
//! requests through a server with no store, the process-wide memo of
//! `cedar-experiments` — unbounded, sized for the paper's finite sweeps
//! — holds no entry. What outlives a request is the server's own
//! bounded state (admission queue, flights, breaker, store).
//!
//! One test in its own target: the memo is process-wide, so the count
//! is this process's alone.

use cedar_fuzz::GenProgram;
use cedar_restructure::BackendKind;
use cedar_serve::{http, ServeRequest, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

const REQUESTS: u64 = 60;

#[test]
fn distinct_requests_leave_the_memo_empty() {
    let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    cfg.engine.sup.chaos = None;
    cfg.engine.sup.deadline = None;
    cfg.engine.sup.bundle_dir = PathBuf::from("target/test-serve-bundles/memoless");
    cfg.engine.backoff_base = Duration::from_millis(1);
    let server = Server::start(cfg).expect("bind in-process server");
    let addr = server.addr();

    for i in 0..REQUESTS {
        let rendered = GenProgram::generate(i).render();
        let mut req = ServeRequest::new(rendered.source);
        req.watch = rendered.watch.into_iter().map(|w| w.name).collect();
        req.validate = i % 2 == 0;
        req.backend = BackendKind::all()[(i % 3) as usize];
        let (status, body) =
            http::post(&addr, "/restructure", &req.to_json(), Duration::from_secs(120))
                .unwrap_or_else(|err| panic!("request {i}: transport failed: {err}"));
        assert_eq!(status, 200, "request {i}: {body}");
    }
    server.shutdown();

    assert_eq!(
        cedar_experiments::cache::sizes(),
        (0, 0, 0, 0),
        "the service left entries in the sweeps' memo"
    );
}
