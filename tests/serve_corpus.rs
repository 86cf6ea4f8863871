//! Service/driver equivalence: every checked-in `tests/corpus/*.f`
//! entry replayed through the in-process HTTP server must produce the
//! exact same restructured program and transformation report as calling
//! the restructurer directly — byte for byte. The service is a
//! delivery mechanism, never a different compiler.

use cedar_fuzz::corpus;
use cedar_restructure::{restructure, PassConfig};
use cedar_serve::{http, Json, ServeRequest, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn corpus_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/serve; the corpus lives at the repo
    // root next to the other integration tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn quiet_server(tag: &str) -> Server {
    let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    cfg.engine.sup.chaos = None;
    cfg.engine.sup.deadline = None;
    cfg.engine.sup.bundle_dir = PathBuf::from(format!("target/test-serve-bundles/{tag}"));
    cfg.engine.backoff_base = Duration::from_millis(1);
    Server::start(cfg).expect("bind in-process server")
}

const T: Duration = Duration::from_secs(120);

#[test]
fn corpus_reports_are_byte_identical_to_the_direct_driver() {
    let entries = corpus::load_dir(&corpus_dir()).unwrap();
    assert!(entries.len() >= 8, "corpus shrank to {} entries", entries.len());
    let server = quiet_server("corpus");
    let addr = server.addr();

    for e in &entries {
        // What the driver produces when called directly, no service.
        let program = cedar_ir::compile_free(&e.rendered.source)
            .unwrap_or_else(|err| panic!("corpus entry {} no longer compiles: {err}", e.name));
        let pass = match e.config.as_str() {
            "manual" => PassConfig::manual_improved(),
            _ => PassConfig::automatic_1991(),
        };
        let direct = restructure(&program, &pass);
        let direct_report = direct.report.to_string();
        let direct_source = cedar_ir::print::print_program(&direct.program);

        // The same source through the wire.
        let mut req = ServeRequest::new(e.rendered.source.clone());
        req.config = e.config.clone();
        req.validate = false;
        for w in &e.rendered.watch {
            req.watch.push(w.name.clone());
        }
        let (status, body) = http::post(&addr, "/restructure", &req.to_json(), T)
            .unwrap_or_else(|err| panic!("corpus entry {}: transport failed: {err}", e.name));
        assert_eq!(status, 200, "corpus entry {}: {body}", e.name);
        let v = Json::parse(&body)
            .unwrap_or_else(|err| panic!("corpus entry {}: bad JSON: {err}\n{body}", e.name));

        let served_report = v.get("report").and_then(Json::as_str).unwrap();
        let served_source = v.get("restructured").and_then(Json::as_str).unwrap();
        assert_eq!(
            served_report, direct_report,
            "corpus entry {}: served report differs from the direct driver",
            e.name
        );
        assert_eq!(
            served_source, direct_source,
            "corpus entry {}: served program differs from the direct driver",
            e.name
        );
        let speedup = v.get("stats").and_then(|s| s.get("speedup")).and_then(Json::as_f64).unwrap();
        assert!(speedup > 0.0, "corpus entry {}: degenerate speedup", e.name);
    }
    server.shutdown();
}

#[test]
fn validated_corpus_entry_verifies_clean() {
    // One entry through the full validation path: the corpus passes the
    // oracle stack, so the service-side verification must agree (no
    // fallbacks, bit-identical perturbed schedules) and the report must
    // still match the direct driver.
    let entries = corpus::load_dir(&corpus_dir()).unwrap();
    let e = &entries[0];
    let server = quiet_server("corpus-validated");
    let addr = server.addr();

    let mut req = ServeRequest::new(e.rendered.source.clone());
    req.config = e.config.clone();
    req.validate = true;
    let (status, body) = http::post(&addr, "/restructure", &req.to_json(), T).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    let verification = v.get("verification").unwrap();
    assert_eq!(verification.get("fallbacks").and_then(Json::as_f64), Some(0.0), "{body}");
    assert_eq!(
        verification.get("degraded_to_serial").and_then(Json::as_bool),
        Some(false),
        "{body}"
    );

    let program = cedar_ir::compile_free(&e.rendered.source).unwrap();
    let pass = match e.config.as_str() {
        "manual" => PassConfig::manual_improved(),
        _ => PassConfig::automatic_1991(),
    };
    let direct_report = restructure(&program, &pass).report.to_string();
    assert_eq!(
        v.get("report").and_then(Json::as_str),
        Some(direct_report.as_str()),
        "validated report drifted from the direct driver"
    );
    server.shutdown();
}
