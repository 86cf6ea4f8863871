//! Every JSON document the workspace writes, pinned byte for byte.
//!
//! The sweeps' reports, the fuzz and campaign reports, crash bundles,
//! the `cedar-serve` wire protocol and the campaign's state rows are all
//! compared byte for byte by some gate (`determinism`,
//! `campaign_cluster`, `serve_store`, the CI `cmp` steps), but each of
//! those compares two runs of the *same* writer: a comma that moves in
//! the code both runs share passes all of them.
//! `tests/fixtures/json_bytes.txt` holds one entry per document,
//! rendered from fixed synthetic inputs (strings with `"`, `\`,
//! newline, tab, a control character and a non-BMP character among
//! them): the bytes themselves, or `fnv1a=… len=…` for a document over
//! 4 KiB. A refactor of the writers leaves the fixture byte-unchanged;
//! a deliberate change of a schema regenerates it, and the diff shows
//! which documents moved:
//!
//! ```text
//! UPDATE_JSON_BYTES=1 cargo test -p cedar-campaign --test json_bytes
//! ```
//!
//! The second test keeps the seam the documents are written through:
//! outside `jsonio.rs`, no code under `crates/*/src` spells a JSON key,
//! an escape, a `null` or an inexact integer read by hand. The third
//! keeps out paths no caller runs: every `pub fn` of `crates/*/src` has
//! a caller outside its own unit tests.

use cedar_campaign::triage::{triage_json, QuarantinedShard};
use cedar_campaign::{Coordinator, CoordinatorConfig, WorkerStats};
use cedar_experiments::supervise::{
    self, CellError, CellErrorKind, Quarantine, Recovery, Rung, Supervisor,
};
use cedar_experiments::{races, robustness};
use cedar_fuzz::shard::{MergedCampaign, ShardSummary};
use cedar_fuzz::{run_campaign, CampaignConfig, Coverage, FailureLine, Latency, OracleConfig};
use cedar_serve::{http, Breaker, EngineConfig, ServeRequest, Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything an escaper can get wrong, in one string.
const NASTY: &str = "q\"uote back\\slash\nnewline\ttab \u{1}ctl\rcr \u{1F980} end";

const T: Duration = Duration::from_secs(60);

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/json_bytes.txt")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_bytes").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The entries, in fixture order.
#[derive(Default)]
struct Entries(Vec<(String, String)>);

impl Entries {
    fn push(&mut self, name: &str, bytes: impl Into<String>) {
        self.0.push((name.to_string(), bytes.into()));
    }
}

fn quarantine() -> Quarantine {
    Quarantine {
        cell: format!("table1/{NASTY}"),
        kind: "panicked",
        attempts: vec![
            ("normal", "panicked", NASTY.to_string()),
            ("serial", "timed-out", "deadline lapsed".to_string()),
        ],
        bundle: Some(format!("target/crash-bundles/{NASTY}")),
    }
}

fn quarantine_without_bundle() -> Quarantine {
    Quarantine {
        cell: "fig6".into(),
        kind: "sim-error",
        attempts: vec![("normal", "sim-error", "deadlock".to_string())],
        bundle: None,
    }
}

fn sweeps(e: &mut Entries) {
    let q = [quarantine(), quarantine_without_bundle()];
    e.push("supervise quarantined_json empty", supervise::quarantined_json(&[]));
    e.push("supervise quarantined_json", supervise::quarantined_json(&q));
    e.push("supervise recovered_json empty", supervise::recovered_json(&[]));
    let recovered = [
        Recovery { cell: NASTY.into(), rung: "no-fast-paths", errors: vec![("normal", "x".into())] },
        Recovery { cell: "fig9".into(), rung: "serial", errors: Vec::new() },
    ];
    e.push("supervise recovered_json", supervise::recovered_json(&recovered));

    let mut rows = robustness::run_filtered(2, Some(&["tridag", "lubksb"]));
    assert_eq!(rows.len(), 2, "filter missed a workload");
    rows.push(robustness::Row {
        workload: "syn\"thetic\\\n",
        suite: "table2",
        config: "manual",
        attempts: 3,
        fallbacks: 2,
        degraded: true,
        bit_identical: false,
        max_rel_err: f64::INFINITY,
        seed_runs: vec![(1, 1234.5, true, 0.0), (2, f64::NAN, false, 2.5e-7)],
        fallback_notes: vec![NASTY.to_string(), "main:line 4: race".to_string()],
    });
    e.push("robustness to_json", robustness::to_json(&rows, 2, &q));
    e.push("robustness to_json clean", robustness::to_json(&rows[..1], 2, &[]));

    let mut rows = races::run_filtered(Some(&["lubksb", "shared-temp"]));
    assert_eq!(rows.len(), 2, "filter missed a program");
    rows.push(races::Row {
        name: NASTY.into(),
        suite: "negative",
        expect_race: true,
        races: 7,
        deadlock: true,
        first_race: Some(NASTY.into()),
        audit_findings: 2,
        cycles_identical: false,
    });
    e.push("races to_json", races::to_json(&rows, &q));
    e.push("races to_json clean", races::to_json(&rows[..1], &[]));
}

fn bundles(e: &mut Entries) {
    let dir = scratch("bundles");
    let read = |bundle: Option<String>| {
        let dir = bundle.expect("the bundle is written");
        std::fs::read_to_string(Path::new(&dir).join("bundle.json")).unwrap()
    };
    let error = |kind, msg: &str, backtrace: Option<&str>| CellError {
        kind,
        msg: msg.to_string(),
        sim: None,
        backtrace: backtrace.map(str::to_string),
    };
    let sup = Supervisor {
        chaos: Some(7),
        deadline: Some(Duration::from_millis(1500)),
        bundle_dir: dir.clone(),
    };
    let attempts = [
        ("normal", error(CellErrorKind::Panicked, NASTY, Some("frame 0\nframe 1\n"))),
        ("races-on", error(CellErrorKind::TimedOut, "deadline", None)),
        ("serial", error(CellErrorKind::Failed, "deadlock at line 3", None)),
    ];
    let source = "program p\nreal a(8)\na(1) = 1.0\nend\n";
    e.push(
        "bundle.json with source, backtrace, chaos, deadline",
        read(supervise::write_quarantine_bundle(&sup, NASTY, Some(source), &attempts)),
    );
    let sup = Supervisor { chaos: None, deadline: None, bundle_dir: dir };
    e.push(
        "bundle.json bare",
        read(supervise::write_quarantine_bundle(&sup, "fig7", None, &attempts[2..])),
    );
}

fn fragments(e: &mut Entries) {
    let mut cov = Coverage::default();
    e.push("Coverage to_json empty", cov.to_json());
    cov.add("doacross", 3).unwrap();
    cov.add("privatize", 41).unwrap();
    cov.add("giv", 2).unwrap();
    cov.add("two-version", 1).unwrap();
    e.push("Coverage to_json", cov.to_json());

    let mut lat = Latency::new();
    e.push("Latency summary_json empty", lat.summary_json());
    e.push("Latency slowest_json empty", lat.slowest_json(5));
    for (k, ms) in [0.125, 17.0, 3.3333, 250.75, 0.0004].into_iter().enumerate() {
        lat.record(format!("s{k}"), ms);
    }
    lat.record(NASTY, 9.0);
    e.push("Latency summary_json", lat.summary_json());
    e.push("Latency slowest_json", lat.slowest_json(4));
}

const CLEAN: &str = "program p\nreal a(64)\ninteger i\ndo 10 i = 1, 64\n  a(i) = real(i) * 2.0\n10 continue\nprint *, a(64)\nend\n";

fn serve(e: &mut Entries) {
    let mut req = ServeRequest::new(NASTY);
    req.watch = vec!["a".into(), NASTY.into()];
    e.push("ServeRequest to_json", req.to_json());
    req.free_form = false;
    req.config = "manual".into();
    req.machine = "fx80".into();
    req.backend = "openmp".parse().unwrap();
    req.watch.clear();
    req.validate = false;
    req.deadline_ms = Some(1500);
    e.push("ServeRequest to_json every member", req.to_json());

    use cedar_serve::error::{error_json, kind};
    e.push("error_json bare", error_json(kind::BAD_REQUEST, NASTY, None, &[]));
    e.push(
        "error_json quarantined",
        error_json(
            kind::PANICKED,
            "internal engine failure",
            Some(NASTY),
            &[("normal", kind::PANICKED), ("serial", kind::TIMED_OUT)],
        ),
    );

    let breaker = Breaker::new(2, Duration::from_secs(3600));
    e.push("Breaker status_json empty", breaker.status_json());
    breaker.record("manual", Rung::Normal, Some(Rung::Normal));
    breaker.record("auto", Rung::Normal, Some(Rung::RacesOn));
    breaker.record("auto", Rung::Normal, None);
    breaker.record(NASTY, Rung::Normal, Some(Rung::NoFastPaths));
    e.push("Breaker status_json", breaker.status_json());

    let mut engine = EngineConfig::default();
    engine.sup.deadline = None;
    engine.sup.bundle_dir = scratch("serve-bundles");
    let breaker = Breaker::new(3, Duration::from_secs(5));
    // A success body in two entries: the bytes up to the duration, and
    // from the duration on with every wall-clock number masked (the
    // request id is the request's key: it stays in the clear).
    let mut push_success = |name: &str, body: String| {
        let cut = body.find("\"duration_ms\": ").expect("a success body") + "\"duration_ms\": ".len();
        e.push(name, body[..cut].to_string());
        let (duration, rest) = body[cut..].split_once(", ").expect("members after the duration");
        let (id, stages) = rest.split_once("\"stages_ms\": ").expect("the stage timings");
        let tail = format!("{}, {id}\"stages_ms\": {}", masked(duration), masked(stages));
        e.push(&format!("{name} from the duration on"), tail);
    };
    let mut req = ServeRequest::new(CLEAN);
    req.watch = vec!["a".into()];
    let handled = cedar_serve::handle(&req, &engine, &breaker);
    assert_eq!(handled.status, 200, "{}", handled.body);
    push_success("handle success validated", handled.body);
    req.validate = false;
    req.machine = "fx80".into();
    req.backend = "openmp".parse().unwrap();
    let handled = cedar_serve::handle(&req, &engine, &breaker);
    assert_eq!(handled.status, 200, "{}", handled.body);
    push_success("handle success unvalidated fx80 openmp", handled.body);
    let handled = cedar_serve::handle(&ServeRequest::new("program p\nx = = 1\nend\n"), &engine, &breaker);
    e.push(&format!("handle compile error {}", handled.status), handled.body);

    for (tag, store_dir) in [("memory", None), ("store", Some(scratch("serve-store")))] {
        let server = Server::start(ServerConfig {
            workers: 1,
            engine: engine.clone(),
            store_dir,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        let get = |path: &str| http::get(&addr, path, T).unwrap();
        if tag == "memory" {
            for path in ["/healthz", "/readyz", "/nope"] {
                let (status, body) = get(path);
                e.push(&format!("server GET {path} {status}"), body);
            }
            for (what, body) in [("not json", "{not json"), ("no source", "{\"x\": 1}")] {
                let (status, body) = http::post(&addr, "/restructure", body, T).unwrap();
                e.push(&format!("server POST /restructure {what} {status}"), body);
            }
        }
        e.push(&format!("server /metrics fresh {tag}"), get("/metrics").1);
        let (status, body) = http::post(&addr, "/shutdown", "", T).unwrap();
        if tag == "store" {
            e.push(&format!("server POST /shutdown {status}"), body);
        }
        server.join();
    }
}

/// A `/complete` body from worker `w1`.
fn complete_body(shard: u64, summary: &str) -> String {
    let mut w = cedar_experiments::Writer::new();
    w.obj().key("worker").str("w1").key("shard").int(shard).key("summary").str(summary);
    w.finish()
}

/// The deterministic summary of seeds `a..b`, as a worker uploads it.
fn shard_summary(a: u64, b: u64) -> String {
    let s = run_campaign(&CampaignConfig {
        seed_start: a,
        seed_end: b,
        bundles: false,
        jobs_check: 0,
        ..CampaignConfig::default()
    });
    ShardSummary::from_summary(&s).to_json()
}

/// The coordinator's durable documents — the campaign's identity and a
/// shard's row in each state — as its store holds them.
fn state(e: &mut Entries) {
    let dir = scratch("state");
    let mut c = Coordinator::new(CoordinatorConfig {
        seed_start: 0,
        seed_end: 4,
        shard_size: 2,
        lease: Duration::from_secs(30),
        retry_budget: 1,
        jobs_check: 0,
        config_name: "manual".into(),
        dir: dir.clone(),
    })
    .unwrap();
    let now = Instant::now();
    let mut step = |name: &str, path: &str, body: String, key: u64| {
        c.handle("POST", "/lease", "{\"worker\": \"w1\"}", now);
        assert_eq!(c.handle("POST", path, &body, now).0, 200, "{name}");
        // A fresh view: one opened earlier would hand out the superseded row.
        let row = cedar_store::Store::open_read_only(dir.join("state")).get(key).unwrap();
        e.push(&format!("state row {name}"), String::from_utf8(row).unwrap());
    };
    let mut fail = cedar_experiments::Writer::new();
    fail.obj().key("worker").str("w1").key("shard").int(0).key("error").str(NASTY);
    step("pending", "/fail", fail.finish(), 0);
    step("quarantined", "/fail", "{\"worker\": \"w1\", \"shard\": 0, \"error\": \"boom\"}".into(), 0);
    step("completed", "/complete", complete_body(1, &shard_summary(2, 4)), 1);
    let identity = cedar_store::Store::open_read_only(dir.join("state")).get(u64::MAX).unwrap();
    e.push("state identity", String::from_utf8(identity).unwrap());
}

fn failure(seed: u64, bundle: Option<&str>) -> FailureLine {
    FailureLine {
        seed,
        phase: "differential".into(),
        detail: NASTY.into(),
        diff: format!("s[3]: {NASTY}"),
        tags: vec!["reduction".into(), "giv".into()],
        bundle: bundle.map(str::to_string),
    }
}

/// A report's wall-clock section with every number masked: the part
/// `to_json_full` adds to `to_json`, whose digits vary run to run.
fn full_framing(det: &str, full: &str) -> String {
    let shared = det.len() - "\n}\n".len();
    assert_eq!(det[..shared], full[..shared], "to_json_full must extend to_json");
    masked(&full[shared..])
}

/// `text` with every number replaced by `#`.
fn masked(text: &str) -> String {
    let mut out = String::new();
    let mut in_number = false;
    for c in text.chars() {
        if c.is_ascii_digit() || (in_number && c == '.') {
            if !in_number {
                out.push('#');
            }
            in_number = true;
        } else {
            in_number = false;
            out.push(c);
        }
    }
    out
}

fn campaigns(e: &mut Entries) {
    let corpus = scratch("corpus");
    for (tag, rel_tol) in [("clean", 1e-3), ("rel_tol 0", 0.0)] {
        let summary = run_campaign(&CampaignConfig {
            seed_start: 0,
            seed_end: 48,
            oracle: OracleConfig { rel_tol, ..OracleConfig::default() },
            bundles: false,
            jobs_check: 2,
            corpus_dir: (tag == "clean").then(|| corpus.clone()),
            ..CampaignConfig::default()
        });
        assert_eq!(summary.failures.is_empty(), tag == "clean", "{tag}");
        let det = summary.to_json();
        e.push(&format!("CampaignSummary to_json_full framing 0..48 {tag}"), full_framing(&det, &summary.to_json_full()));
        e.push(&format!("CampaignSummary to_json 0..48 {tag}"), det);
        e.push(
            &format!("ShardSummary to_json 0..48 {tag}"),
            ShardSummary::from_summary(&summary).to_json(),
        );
    }
    e.push(
        "corpus ledger.json 0..48",
        std::fs::read_to_string(corpus.join("ledger.json")).unwrap(),
    );

    let mut coverage = Coverage::default();
    coverage.add("doall", 5).unwrap();
    let shard = ShardSummary {
        seed_start: 10,
        seed_end: 14,
        executed: 4,
        skipped_for_budget: 0,
        failures: vec![failure(11, None), failure(13, Some(NASTY))],
        coverage: coverage.clone(),
        known_gaps: 2,
        gap_examples: vec![NASTY.into(), "gap two".into()],
        speedup_samples: vec![1.5, 0.1 + 0.2],
        lead_digests: vec![(10, 0xdead_beef), (12, u64::MAX)],
        bundle_digests: vec!["00000000000000aa".into(), "00000000000000bb".into()],
    };
    let text = shard.to_json();
    assert_eq!(ShardSummary::parse(&text).as_ref(), Ok(&shard));
    e.push("ShardSummary to_json synthetic", text);
    let merged = MergedCampaign {
        seed_start: 10,
        seed_end: 14,
        executed: 4,
        skipped_for_budget: 0,
        failures: shard.failures.clone(),
        coverage,
        known_gaps: 2,
        gap_examples: shard.gap_examples.clone(),
        speedup: Some((0.5, 1.25, 2.0)),
        jobs_checked: 2,
        jobs_mismatch: Some(NASTY.into()),
        bundle_digests: shard.bundle_digests.clone(),
    };
    e.push("MergedCampaign to_json synthetic", merged.to_json());

    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 100,
        shard_size: 25,
        config_name: "manual".into(),
        ..CoordinatorConfig::default()
    };
    let quarantined = [
        QuarantinedShard {
            shard: 2,
            seed_start: 50,
            seed_end: 75,
            attempts: 3,
            errors: vec![NASTY.into(), "lease-expired (w2)".into()],
        },
        QuarantinedShard { shard: 3, seed_start: 75, seed_end: 100, attempts: 1, errors: Vec::new() },
    ];
    let mut workers = BTreeMap::new();
    workers.insert(NASTY.to_string(), WorkerStats { leased: 3, completed: 2, failed: 1 });
    workers.insert("w2".to_string(), WorkerStats { leased: 1, completed: 0, failed: 1 });
    e.push("triage_json", triage_json(&cfg, 4, 2, &quarantined, Some(&merged), &workers));
    e.push("triage_json empty", triage_json(&cfg, 4, 0, &[], None, &BTreeMap::new()));
}

fn coordinator(e: &mut Entries) {
    let mut c = Coordinator::new(CoordinatorConfig {
        seed_start: 0,
        seed_end: 4,
        shard_size: 2,
        lease: Duration::from_secs(30),
        retry_budget: 2,
        jobs_check: 0,
        config_name: "manual".into(),
        dir: scratch("coordinator"),
    })
    .unwrap();
    let now = Instant::now();
    let script: Vec<(&str, &str, &str, String)> = vec![
        ("lease", "POST", "/lease", "{\"worker\": \"w1\"}".into()),
        ("lease not json", "POST", "/lease", "nope".into()),
        ("lease no worker", "POST", "/lease", "{}".into()),
        ("heartbeat held", "POST", "/heartbeat", "{\"worker\": \"w1\", \"shard\": 0}".into()),
        ("heartbeat lost", "POST", "/heartbeat", "{\"worker\": \"w2\", \"shard\": 0}".into()),
        ("heartbeat no shard", "POST", "/heartbeat", "{\"worker\": \"w1\"}".into()),
        ("heartbeat no such shard", "POST", "/heartbeat", "{\"worker\": \"w1\", \"shard\": 9}".into()),
        ("lease second", "POST", "/lease", "{\"worker\": \"w2\"}".into()),
        ("lease wait", "POST", "/lease", "{\"worker\": \"w3\"}".into()),
        ("status busy", "GET", "/status", String::new()),
        ("complete no summary", "POST", "/complete", "{\"worker\": \"w1\", \"shard\": 0}".into()),
        ("complete bad summary", "POST", "/complete", complete_body(0, "garbage")),
        ("complete wrong range", "POST", "/complete", complete_body(0, &shard_summary(2, 4))),
        ("complete", "POST", "/complete", complete_body(0, &shard_summary(0, 2))),
        ("complete duplicate", "POST", "/complete", complete_body(0, &shard_summary(0, 2))),
        ("fail", "POST", "/fail", "{\"worker\": \"w2\", \"shard\": 1, \"error\": \"boom\"}".into()),
        ("fail stale", "POST", "/fail", "{\"worker\": \"w2\", \"shard\": 0}".into()),
        ("no such endpoint", "GET", "/nope", String::new()),
        ("complete last", "POST", "/complete", complete_body(1, &shard_summary(2, 4))),
        ("lease done", "POST", "/lease", "{\"worker\": \"w1\"}".into()),
        ("status done", "GET", "/status", String::new()),
    ];
    for (name, method, path, body) in script {
        let (status, reply) = c.handle(method, path, &body, now);
        e.push(&format!("coordinator {name} {status}"), reply);
    }
    assert!(c.finished());
}

fn entries() -> Vec<(String, String)> {
    let mut e = Entries::default();
    sweeps(&mut e);
    bundles(&mut e);
    fragments(&mut e);
    serve(&mut e);
    state(&mut e);
    campaigns(&mut e);
    coordinator(&mut e);
    e.0
}

/// `### name`, then the bytes (or their digest), then a newline.
fn render(entries: &[(String, String)]) -> String {
    let mut out = String::new();
    for (name, bytes) in entries {
        out.push_str(&format!("### {name}\n"));
        if bytes.len() > 4096 {
            out.push_str(&format!(
                "fnv1a={:016x} len={}",
                cedar_store::fnv1a(bytes.as_bytes()),
                bytes.len()
            ));
        } else {
            out.push_str(bytes);
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_document_matches_the_recorded_bytes() {
    let got = entries();
    let path = fixture_path();
    if std::env::var("UPDATE_JSON_BYTES").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, render(&got)).unwrap();
        println!("json_bytes: {} entries written to {}", got.len(), path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut rest = want.as_str();
    let mut moved = Vec::new();
    for entry in &got {
        let block = render(std::slice::from_ref(entry));
        match rest.strip_prefix(block.as_str()) {
            Some(tail) => rest = tail,
            None => {
                // Resynchronise on the next recorded header so one moved
                // document is reported as one.
                let end = rest[1.min(rest.len())..].find("\n### ").map_or(rest.len(), |k| k + 2);
                moved.push(format!("  recorded:\n{}  written:\n{block}", &rest[..end]));
                rest = &rest[end..];
            }
        }
    }
    assert!(
        moved.is_empty() && rest.is_empty(),
        "{} of {} documents moved ({} recorded bytes unmatched); the first:\n{}",
        moved.len(),
        got.len(),
        rest.len(),
        moved.first().map_or("", String::as_str)
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if entry.is_dir() {
            rust_files(&entry, out);
        } else if entry.extension().is_some_and(|x| x == "rs") {
            out.push(entry);
        }
    }
}

#[test]
fn json_is_spelled_only_in_jsonio() {
    let mut files = Vec::new();
    rust_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."), &mut files);
    files.retain(|f| f.components().any(|c| c.as_os_str() == "src") && !f.ends_with("jsonio.rs"));
    files.sort();
    assert!(files.len() > 100, "crates/*/src was not found: {} files", files.len());
    let mut findings = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        // Code above the file's test module: tests may spell what they expect.
        let code = text.split("\n#[cfg(test)]").next().unwrap();
        for (n, line) in code.lines().enumerate() {
            let what = if line.contains("\\\":") || (line.contains("r#\"") && line.contains("\":")) {
                "a string literal spells a JSON key"
            } else if line.contains("json_escape") {
                "an escape outside the writer"
            } else if line.contains("\"null\"") {
                "`null` spelled by hand"
            } else {
                continue;
            };
            findings.push(format!("{}:{}: {what}: {}", file.display(), n + 1, line.trim()));
        }
        for statement in code.split(';') {
            let Some(read) = statement.find("as_f64").map(|at| &statement[at..]) else { continue };
            if read.contains(" as u64") || read.contains(" as usize") {
                let cast = read.split_whitespace().collect::<Vec<_>>().join(" ");
                findings.push(format!(
                    "{}: an integer cast from `as_f64` (use `Json::u64_at`): {cast}",
                    file.display()
                ));
            }
        }
    }
    assert!(findings.is_empty(), "write and read JSON through `jsonio`:\n{}", findings.join("\n"));
}

/// A source file's code above its test module, comments blanked, and the
/// files it pulls in as test modules (`#[cfg(test)] mod tests;`), which
/// are test code whole. Only a column-0 `#[cfg(test)]` on a block ends
/// the code; one on a `;`-terminated item, or an indented one, is
/// stepped over.
fn above_tests(file: &Path, text: &str) -> (Vec<String>, Vec<PathBuf>) {
    let (mut code, mut test_files) = (Vec::new(), Vec::new());
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if !line.starts_with("#[cfg(test)]") {
            // Comments name functions without calling them.
            code.push(line.split("//").next().unwrap().to_string());
            continue;
        }
        let Some(item) = lines.next().and_then(|l| l.trim_end().strip_suffix(';')) else {
            break;
        };
        if let Some((_, name)) = item.rsplit_once("mod ") {
            let dir = match file.file_stem().unwrap().to_str() {
                Some("mod" | "lib" | "main") => file.parent().unwrap().to_path_buf(),
                _ => file.with_extension(""),
            };
            test_files.push(dir.join(format!("{name}.rs")));
        }
        code.extend([String::new(), String::new()]);
    }
    (code, test_files)
}

/// Every `pub fn` above the test modules of `crates/*/src` is named by
/// non-test code other than a definition, or by an integration test, the
/// benchmark or an example. A function only its own unit tests call
/// belongs in those tests.
#[test]
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let is_src = |f: &Path| {
        f.starts_with(root.join("crates")) && f.components().any(|c| c.as_os_str() == "src")
    };
    let (mut sources, mut test_files) = (Vec::new(), Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let code = if is_src(file) {
            let (code, mut tests) = above_tests(file, &text);
            test_files.append(&mut tests);
            code
        } else {
            text.lines().map(str::to_string).collect()
        };
        sources.push((file, code));
    }
    sources.retain(|(file, _)| !test_files.contains(file));
    assert!(sources.len() > 150, "the workspace was not found: {} files", sources.len());

    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut defined = Vec::new();
    let mut named = std::collections::BTreeSet::new();
    for (file, code) in &sources {
        for (n, line) in code.iter().enumerate() {
            let signature = line.trim_start().strip_prefix("pub fn ").filter(|_| is_src(file));
            if let Some(rest) = signature {
                let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
                let at = file.strip_prefix(&root).unwrap().display();
                defined.push((format!("{at}:{}", n + 1), name));
            }
            let mut prev = "";
            for word in line.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
                if prev != "fn" {
                    named.insert(word);
                }
                prev = word;
            }
        }
    }
    let uncalled: Vec<String> = defined
        .iter()
        .filter(|(_, name)| !named.contains(name.as_str()))
        .map(|(at, name)| format!("{at}: {name}"))
        .collect();
    assert!(
        uncalled.is_empty(),
        "no caller outside unit tests names these (delete each, or move it into its tests):\n{}",
        uncalled.join("\n")
    );
}

/// The machine of §2.2 is described in `cedar_ir::machine` and nowhere
/// else: the restructurer keeps no enum that names it and no literal of
/// its start-ups or CE counts, and the simulator reads its loop
/// start-ups from the description.
#[test]
fn the_machine_is_described_only_in_ir_machine() {
    let mut files = Vec::new();
    rust_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."), &mut files);
    files.retain(|f| f.components().any(|c| c.as_os_str() == "src") && !f.ends_with("ir/src/machine.rs"));
    files.sort();
    assert!(files.len() > 100, "crates/*/src was not found: {} files", files.len());
    // `number` as a whole literal of `code`: not the tail of 128.0, not the head of 8.05.
    let spells = |code: &str, number: &str| {
        code.match_indices(number).any(|(at, _)| {
            let before = code[..at].chars().next_back();
            let after = code[at + number.len()..].chars().next();
            !before.is_some_and(|c| c.is_ascii_digit() || c == '.')
                && !after.is_some_and(|c| c.is_ascii_digit())
        })
    };
    let mut findings = Vec::new();
    for file in &files {
        let planner = file.components().any(|c| c.as_os_str() == "core");
        let text = std::fs::read_to_string(file).unwrap();
        let above_tests = text.split("\n#[cfg(test)]").next().unwrap();
        for (n, line) in above_tests.lines().enumerate() {
            let code = line.split("//").next().unwrap();
            let mut found = |what: &str| {
                findings.push(format!("{}:{}: {what}: {}", file.display(), n + 1, line.trim()))
            };
            for start_up in ["2200.0", "2800.0"] {
                if spells(code, start_up) {
                    found("a loop start-up spelled outside the description");
                }
            }
            if !planner {
                continue;
            }
            if code.contains("enum Target") || code.contains("for_target") {
                found("the machine as an enum someone sets");
            }
            if code.contains("_START") {
                found("a start-up constant");
            }
            for count in ["8.0", "32.0"] {
                if spells(code, count) {
                    found("a CE count spelled as a literal");
                }
            }
        }
    }
    assert!(findings.is_empty(), "plan from `PassConfig::machine`:\n{}", findings.join("\n"));
}

/// The coordinator's durable state goes through `cedar_store` and
/// nothing else: `crates/campaign/src` opens, syncs and checksums no
/// file of its own, and keeps no journal or per-shard files beside the
/// store.
#[test]
fn campaign_state_is_kept_only_in_cedar_store() {
    let mut files = Vec::new();
    rust_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut files);
    files.sort();
    assert!(files.len() >= 5, "crates/campaign/src was not found: {} files", files.len());
    let mut findings = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            for word in ["sync_data", "OpenOptions", "fnv1a", "journal", "shards/"] {
                if line.contains(word) {
                    findings.push(format!("{}:{}: `{word}`: {}", file.display(), n + 1, line.trim()));
                }
            }
        }
    }
    assert!(findings.is_empty(), "keep campaign state in `cedar_store`:\n{}", findings.join("\n"));
}
