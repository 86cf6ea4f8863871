//! End-to-end tests for the distributed campaign subsystem: a real
//! coordinator serving real workers over loopback HTTP, with crashes.
//!
//! The headline guarantee under test: a distributed campaign — workers
//! crashing mid-shard, leases expiring, shards reassigned — merges to
//! the **byte-identical** `cedar-fuzz-v1` report of one process running
//! the whole range, and a coordinator restart resumes from its store of
//! shard rows without re-running completed shards.

use cedar_campaign::{run_worker, Coordinator, CoordinatorConfig, WorkerConfig};
use cedar_experiments::jsonio::{Json, Writer};
use cedar_fuzz::shard::ShardSummary;
use cedar_fuzz::{run_campaign, CampaignConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(format!("target/test-campaign/{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single-process reference a distributed run must reproduce.
fn reference_json(seed_start: u64, seed_end: u64, jobs_check: usize) -> String {
    run_campaign(&CampaignConfig {
        seed_start,
        seed_end,
        bundles: false,
        jobs_check,
        ..CampaignConfig::default()
    })
    .to_json()
}

/// Run one seed range worker-style and wrap it as a `/complete` body.
fn complete_body(worker: &str, shard: u64, seed_start: u64, seed_end: u64) -> String {
    let summary = run_campaign(&CampaignConfig {
        seed_start,
        seed_end,
        bundles: false,
        jobs_check: 0,
        ..CampaignConfig::default()
    });
    let mut w = Writer::new();
    w.obj().key("worker").str(worker).key("shard").int(shard);
    w.key("summary").str(ShardSummary::from_summary(&summary).to_json());
    w.finish()
}

/// Triage's `shards` block and `quarantined` rows: what the
/// coordinator's durable state decides, as against the worker tallies,
/// which a restarted coordinator begins again.
fn shards_and_quarantined(triage: &str) -> &str {
    let from = triage.find("\"shards\": ").expect("a shards block");
    &triage[from..triage.find("\"clusters\": ").expect("a clusters block")]
}

#[test]
fn crashed_worker_loses_no_seeds_and_the_merge_is_byte_identical() {
    let reference = reference_json(0, 60, 2);
    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 60,
        shard_size: 7, // 9 shards, uneven tail
        lease: Duration::from_millis(400),
        retry_budget: 2,
        jobs_check: 2,
        config_name: "manual".into(),
        dir: fresh_dir("crash"),
    };
    let dir = cfg.dir.clone();
    let coordinator = Coordinator::new(cfg).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        coordinator.serve(listener, Duration::from_millis(400)).unwrap()
    });

    // A worker that dies the instant it is granted shard 2 — the lease
    // vanishes with it, exactly like `kill -9`.
    let doomed = run_worker(&WorkerConfig {
        addr: addr.clone(),
        name: "doomed".into(),
        die_on_shards: vec![2],
        poll_base: Duration::from_millis(20),
        ..WorkerConfig::default()
    })
    .unwrap();
    assert_eq!(doomed.crashed, Some(2), "the crash hook must have fired");
    assert_eq!(doomed.completed, 2, "shards 0 and 1 completed before the crash");

    // A healthy worker finishes everything else, waits out the dead
    // lease, and re-runs shard 2 when it expires.
    let healthy = run_worker(&WorkerConfig {
        addr,
        name: "healthy".into(),
        poll_base: Duration::from_millis(20),
        ..WorkerConfig::default()
    })
    .unwrap();
    assert!(healthy.crashed.is_none());
    assert_eq!(doomed.completed + healthy.completed, 9, "every shard completed exactly once");

    let outcome = server.join().unwrap();
    assert_eq!(outcome.quarantined, 0);
    assert!(outcome.reassignments >= 1, "the dead lease must have been reassigned");
    let merged = outcome.merged.expect("full completion must produce a merged report");
    assert_eq!(
        merged.to_json(),
        reference,
        "merged report must be byte-identical to the single-process run"
    );
    assert_eq!(std::fs::read_to_string(outcome.merged_path.unwrap()).unwrap(), reference);

    // Triage records the recovery story.
    let triage = std::fs::read_to_string(outcome.triage_path).unwrap();
    let v = Json::parse(&triage).unwrap();
    assert_eq!(v.get("schema").and_then(Json::as_str), Some("cedar-campaign-triage-v1"));
    assert!(v.get("shards").unwrap().get("reassignments").unwrap().as_f64().unwrap() >= 1.0);
    assert!(v.get("quarantined").unwrap().as_arr().unwrap().is_empty());
    let workers = v.get("workers").unwrap().as_arr().unwrap();
    assert_eq!(workers.len(), 2, "both workers appear in triage: {triage}");

    // And the state store tells the same story durably: every row is
    // completed, and the rows carry the reassignments between them.
    let state = cedar_store::Store::open_read_only(dir.join("state"));
    let rows: Vec<Json> = (0..9).map(|k| parse_row(state.get(k).expect("a row"))).collect();
    assert!(rows.iter().all(|r| r.str_at("state") == Ok("completed")));
    let reassignments: u64 = rows.iter().map(|r| r.u64_at("reassignments").unwrap()).sum();
    assert_eq!(reassignments, outcome.reassignments);
}

#[test]
fn coordinator_restart_resumes_from_the_store_without_rerunning_shards() {
    let dir = fresh_dir("resume");
    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 24,
        shard_size: 8, // 3 shards
        lease: Duration::from_secs(30),
        retry_budget: 2,
        jobs_check: 2,
        config_name: "manual".into(),
        dir: dir.clone(),
    };
    let now = Instant::now();
    {
        let mut c1 = Coordinator::new(cfg.clone()).unwrap();
        let (status, reply) = c1.handle("POST", "/lease", "{\"worker\": \"w1\"}", now);
        assert_eq!(status, 200);
        assert!(reply.contains("\"shard\": 0"), "{reply}");
        let (status, _) = c1.handle("POST", "/complete", &complete_body("w1", 0, 0, 8), now);
        assert_eq!(status, 200);
        // A reported failure reassigns shard 1 once.
        let (_, reply) = c1.handle("POST", "/lease", "{\"worker\": \"w1\"}", now);
        assert!(reply.contains("\"shard\": 1"), "{reply}");
        let fail = "{\"worker\": \"w1\", \"shard\": 1, \"error\": \"flaky\"}";
        assert_eq!(c1.handle("POST", "/fail", fail, now).0, 200);
        // Lease shard 1 again and "crash" with it in flight.
        let (_, reply) = c1.handle("POST", "/lease", "{\"worker\": \"w1\"}", now);
        assert!(reply.contains("\"shard\": 1"), "{reply}");
    } // coordinator killed here

    let mut c2 = Coordinator::new(cfg).unwrap();
    assert!(!c2.finished());
    // Shard 0 is still completed (not re-leased, not re-run); shard 1's
    // in-flight lease died with the first coordinator and is pending
    // again.
    let (_, reply) = c2.handle("POST", "/lease", "{\"worker\": \"w2\"}", now);
    assert!(reply.contains("\"shard\": 1"), "resume must hand out shard 1, got {reply}");
    let (_, reply) = c2.handle("POST", "/lease", "{\"worker\": \"w2\"}", now);
    assert!(reply.contains("\"shard\": 2"), "{reply}");
    c2.handle("POST", "/complete", &complete_body("w2", 1, 8, 16), now);
    c2.handle("POST", "/complete", &complete_body("w2", 2, 16, 24), now);
    assert!(c2.finished());
    let outcome = c2.finish().unwrap();
    assert_eq!(
        outcome.merged.unwrap().to_json(),
        reference_json(0, 24, 2),
        "a resumed campaign still merges byte-identically"
    );
    // The reassignment before the crash is still counted after it.
    let triage = std::fs::read_to_string(outcome.triage_path).unwrap();
    assert_eq!(
        shards_and_quarantined(&triage),
        "\"shards\": {\"total\": 3, \"completed\": 3, \"quarantined\": 0, \"reassignments\": 1},\n  \"quarantined\": [],\n  "
    );
}

/// A shard's row in the state store, parsed.
fn parse_row(bytes: Vec<u8>) -> Json {
    Json::parse(&String::from_utf8(bytes).unwrap()).unwrap()
}

/// The records of a state store's log, as `(header offset, key, payload
/// length)`, found through their headers as CI's `store-smoke` finds
/// them: 24 bytes of magic, checksum, payload length (u32 LE at 12) and
/// key (u64 LE at 16), then the payload.
fn records(log: &[u8]) -> Vec<(usize, u64, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let len = u32::from_le_bytes(log[at + 12..at + 16].try_into().unwrap()) as usize;
        out.push((at, u64::from_le_bytes(log[at + 16..at + 24].try_into().unwrap()), len));
        at += 24 + len;
    }
    assert_eq!(at, log.len(), "the log ends on a record boundary");
    out
}

/// Flip one payload byte of the last record of `key` in `dir`'s state log.
fn flip_payload_byte(dir: &std::path::Path, key: u64) {
    let path = dir.join("state/log");
    let mut log = std::fs::read(&path).unwrap();
    let (at, _, len) = *records(&log).iter().rev().find(|r| r.1 == key).expect("a record of the key");
    log[at + 24 + len / 2] ^= 0x40;
    std::fs::write(&path, log).unwrap();
}

/// Three shards of eight seeds in `dir`.
fn three_shards(dir: PathBuf) -> CoordinatorConfig {
    CoordinatorConfig {
        seed_start: 0,
        seed_end: 24,
        shard_size: 8,
        lease: Duration::from_secs(30),
        retry_budget: 2,
        jobs_check: 2,
        config_name: "manual".into(),
        dir,
    }
}

/// Lease the next shard to `worker`, which must be `shard`.
fn lease(c: &mut Coordinator, worker: &str, shard: u64, now: Instant) {
    let (_, reply) = c.handle("POST", "/lease", &format!("{{\"worker\": \"{worker}\"}}"), now);
    assert!(reply.contains(&format!("\"shard\": {shard},")), "expected shard {shard}: {reply}");
}

/// Lease shard `k` of [`three_shards`] and complete it.
fn run_shard(c: &mut Coordinator, k: u64, now: Instant) {
    lease(c, "w1", k, now);
    let (status, reply) = c.handle("POST", "/complete", &complete_body("w1", k, 8 * k, 8 * k + 8), now);
    assert_eq!(status, 200, "{reply}");
}

#[test]
fn a_flipped_byte_in_a_completed_row_reruns_only_that_shard() {
    let dir = fresh_dir("flip");
    let cfg = three_shards(dir.clone());
    let now = Instant::now();
    {
        let mut c1 = Coordinator::new(cfg.clone()).unwrap();
        for k in 0..3 {
            run_shard(&mut c1, k, now);
        }
        assert!(c1.finished());
    } // coordinator killed here, before it merged
    flip_payload_byte(&dir, 1);

    let mut c2 = Coordinator::new(cfg).unwrap();
    let (_, status) = c2.handle("GET", "/status", "", now);
    assert!(status.contains("\"pending\": 1, \"leased\": 0, \"completed\": 2"), "{status}");
    // The store counted the one corrupt record and set it aside.
    let corrupt: Vec<_> = std::fs::read_dir(dir.join("state/corrupt")).unwrap().flatten().collect();
    assert_eq!(corrupt.len(), 1);
    assert_eq!(corrupt[0].file_name(), format!("{:016x}.0", 1).as_str());
    run_shard(&mut c2, 1, now);
    let outcome = c2.finish().unwrap();
    assert_eq!(outcome.merged.unwrap().to_json(), reference_json(0, 24, 2));
}

#[test]
fn a_log_cut_inside_its_last_record_loses_only_the_last_transition() {
    let dir = fresh_dir("cut");
    let cfg = three_shards(dir.clone());
    let now = Instant::now();
    {
        let mut c1 = Coordinator::new(cfg.clone()).unwrap();
        run_shard(&mut c1, 0, now);
        lease(&mut c1, "w1", 1, now);
        let fail = "{\"worker\": \"w1\", \"shard\": 1, \"error\": \"flaky\"}";
        assert_eq!(c1.handle("POST", "/fail", fail, now).0, 200);
        lease(&mut c1, "w1", 1, now);
        run_shard(&mut c1, 2, now);
    } // killed with shard 1 in flight
    let path = dir.join("state/log");
    let log = std::fs::read(&path).unwrap();
    let &(at, key, len) = records(&log).last().unwrap();
    assert_eq!(key, 2, "shard 2's completion is the last record");
    std::fs::write(&path, &log[..at + 24 + len / 2]).unwrap();

    let mut c2 = Coordinator::new(cfg).unwrap();
    let (_, status) = c2.handle("GET", "/status", "", now);
    assert!(status.contains("\"pending\": 2, \"leased\": 0, \"completed\": 1"), "{status}");
    assert!(status.contains("\"reassignments\": 1"), "{status}");
    assert!(!dir.join("state/corrupt").exists(), "a torn tail is not corruption");
    run_shard(&mut c2, 1, now);
    run_shard(&mut c2, 2, now);
    let outcome = c2.finish().unwrap();
    assert_eq!(outcome.reassignments, 1);
    assert_eq!(outcome.merged.unwrap().to_json(), reference_json(0, 24, 2));
}

#[test]
fn a_directory_holding_another_campaign_is_refused() {
    let dir = fresh_dir("another");
    let cfg = three_shards(dir.clone());
    let now = Instant::now();
    run_shard(&mut Coordinator::new(cfg.clone()).unwrap(), 0, now);

    let others = [
        CoordinatorConfig { seed_end: 32, ..cfg.clone() },
        CoordinatorConfig { seed_start: 8, ..cfg.clone() },
        CoordinatorConfig { shard_size: 4, ..cfg.clone() },
        CoordinatorConfig { config_name: "auto".into(), ..cfg.clone() },
    ];
    for other in others {
        let e = Coordinator::new(other.clone()).err().expect("another campaign");
        assert!(e.contains("refusing to resume it as"), "{other:?}: {e}");
    }
    // What the identity does not name may change, as it always could.
    let mut c = Coordinator::new(CoordinatorConfig { retry_budget: 5, jobs_check: 0, ..cfg.clone() }).unwrap();
    lease(&mut c, "w1", 1, now);
    drop(c);

    // Rows without a readable identity are not adopted.
    flip_payload_byte(&dir, u64::MAX);
    let e = Coordinator::new(cfg).err().expect("no identity");
    assert!(e.contains("no readable campaign identity"), "{e}");

    // A directory an older build left is not read: its campaign starts over.
    let old = fresh_dir("older-build");
    std::fs::create_dir_all(old.join("shards")).unwrap();
    std::fs::write(old.join("journal.jsonl"), "{\"rec\": \"completed\", \"shard\": 0}\n").unwrap();
    std::fs::write(old.join("shards/shard0000.json"), "{}").unwrap();
    lease(&mut Coordinator::new(three_shards(old)).unwrap(), "w1", 0, now);
}

#[test]
fn poison_shards_are_quarantined_and_triaged_without_wedging_the_campaign() {
    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 16,
        shard_size: 8, // 2 shards
        lease: Duration::from_secs(30),
        retry_budget: 1, // second failure quarantines
        jobs_check: 0,
        config_name: "manual".into(),
        dir: fresh_dir("poison"),
    };
    let mut c = Coordinator::new(cfg.clone()).unwrap();
    let now = Instant::now();
    for (worker, error) in [("w1", "panic: shard is cursed"), ("w2", "panic: still cursed")] {
        let (_, reply) = c.handle("POST", "/lease", &format!("{{\"worker\": \"{worker}\"}}"), now);
        assert!(reply.contains("\"shard\": 0"), "{reply}");
        let body = format!(
            "{{\"worker\": \"{worker}\", \"shard\": 0, \"error\": \"{error}\"}}"
        );
        let (status, _) = c.handle("POST", "/fail", &body, now);
        assert_eq!(status, 200);
    }
    // Two healthy workers failed it: quarantined, and still so after a
    // restart. The campaign moves on.
    drop(c);
    let mut c = Coordinator::new(cfg).unwrap();
    let (_, reply) = c.handle("POST", "/lease", "{\"worker\": \"w3\"}", now);
    assert!(reply.contains("\"shard\": 1"), "shard 0 must be quarantined, got {reply}");
    let (status, _) = c.handle("POST", "/complete", &complete_body("w3", 1, 8, 16), now);
    assert_eq!(status, 200);
    assert!(c.finished());

    let (_, status_body) = c.handle("GET", "/status", "", now);
    assert!(status_body.contains("\"quarantined\": 1"), "{status_body}");

    let outcome = c.finish().unwrap();
    assert_eq!(outcome.quarantined, 1);
    assert!(
        outcome.merged.is_none(),
        "a quarantined hole must withhold the merged report, never fake it"
    );
    let triage = std::fs::read_to_string(outcome.triage_path).unwrap();
    let v = Json::parse(&triage).unwrap();
    let q = &v.get("quarantined").unwrap().as_arr().unwrap()[0];
    assert_eq!(q.get("shard").unwrap().as_f64(), Some(0.0));
    assert_eq!(q.get("attempts").unwrap().as_f64(), Some(2.0));
    let errors = q.get("errors").unwrap().as_arr().unwrap();
    assert!(
        errors.iter().any(|e| e.as_str().unwrap().contains("w1: panic: shard is cursed")),
        "{triage}"
    );
    assert_eq!(
        shards_and_quarantined(&triage),
        "\"shards\": {\"total\": 2, \"completed\": 1, \"quarantined\": 1, \"reassignments\": 1},\n  \"quarantined\": [\n    {\"shard\": 0, \"seed_start\": 0, \"seed_end\": 8, \"attempts\": 2, \"errors\": [\"w1: panic: shard is cursed\", \"w2: panic: still cursed\"]}\n  ],\n  "
    );
}

#[test]
fn an_inexact_shard_index_is_a_bad_request_not_a_neighbouring_shard() {
    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 16,
        shard_size: 8,
        lease: Duration::from_secs(30),
        retry_budget: 0, // one burnt attempt would quarantine shard 0
        jobs_check: 0,
        config_name: "manual".into(),
        dir: fresh_dir("inexact"),
    };
    let mut c = Coordinator::new(cfg).unwrap();
    let now = Instant::now();
    let (_, reply) = c.handle("POST", "/lease", "{\"worker\": \"w1\"}", now);
    assert!(reply.contains("\"shard\": 0"), "{reply}");
    // `as usize` saturated -1 to shard 0 and truncated 1.9 to shard 1.
    for shard in ["-1", "1.9", "1e30"] {
        for path in ["/fail", "/heartbeat"] {
            let body = format!("{{\"worker\": \"x\", \"shard\": {shard}}}");
            let (status, reply) = c.handle("POST", path, &body, now);
            assert_eq!(status, 400, "{path} {body}: {reply}");
            assert!(reply.contains("not an exact unsigned integer"), "{reply}");
        }
    }
    let (_, status) = c.handle("GET", "/status", "", now);
    assert!(status.contains("\"leased\": 1, \"completed\": 0, \"quarantined\": 0"), "{status}");
    assert!(status.contains("\"reassignments\": 0"), "{status}");
    let (_, reply) = c.handle("POST", "/heartbeat", "{\"worker\": \"w1\", \"shard\": 0}", now);
    assert_eq!(reply, "{\"ok\": true}", "w1 still holds shard 0");
}

#[test]
fn a_mistyped_config_name_is_refused_not_judged_under_another() {
    let cfg = CoordinatorConfig {
        seed_end: 16,
        config_name: "atuo".into(),
        dir: fresh_dir("atuo"),
        ..CoordinatorConfig::default()
    };
    let dir = cfg.dir.clone();
    let e = Coordinator::new(cfg).err().expect("`atuo` names no configuration");
    assert!(e.contains("unknown config `atuo`"), "{e}");
    assert!(!dir.exists(), "nothing is written under a name that judges nothing");
}

#[test]
fn heartbeats_extend_leases_and_silence_expires_them() {
    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 16,
        shard_size: 8,
        lease: Duration::from_millis(300),
        retry_budget: 2,
        jobs_check: 0,
        config_name: "manual".into(),
        dir: fresh_dir("heartbeat"),
    };
    let mut c = Coordinator::new(cfg).unwrap();
    // Drive the clock by hand — no real sleeps.
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);

    let (_, reply) = c.handle("POST", "/lease", "{\"worker\": \"w1\"}", at(0));
    assert!(reply.contains("\"shard\": 0"), "{reply}");
    let hb = "{\"worker\": \"w1\", \"shard\": 0}";
    // 200ms in: heartbeat accepted, lease now runs to 500ms.
    let (_, reply) = c.handle("POST", "/heartbeat", hb, at(200));
    assert!(reply.contains("\"ok\": true"), "{reply}");
    // 400ms: past the original expiry but inside the extension — the
    // shard is still held, so another worker gets the *other* shard.
    let (_, reply) = c.handle("POST", "/lease", "{\"worker\": \"w2\"}", at(400));
    assert!(reply.contains("\"shard\": 1"), "{reply}");
    // 600ms: w1 went silent past 500ms; its lease expires and shard 0
    // is reassignable.
    let (_, reply) = c.handle("POST", "/lease", "{\"worker\": \"w3\"}", at(600));
    assert!(reply.contains("\"shard\": 0"), "expired lease must reassign, got {reply}");
    // The late heartbeat from w1 is refused: it lost the lease.
    let (_, reply) = c.handle("POST", "/heartbeat", hb, at(650));
    assert!(reply.contains("\"ok\": false"), "{reply}");
    // But its late *completion* is still accepted — first result wins,
    // and shard content is deterministic either way.
    let (status, _) = c.handle("POST", "/complete", &complete_body("w1", 0, 0, 8), at(700));
    assert_eq!(status, 200);
    let (_, status_body) = c.handle("GET", "/status", "", at(750));
    assert!(status_body.contains("\"completed\": 1"), "{status_body}");
}

#[test]
fn chaos_injects_worker_crashes_deterministically() {
    // Find a chaos seed whose sticky draw kills the worker on its very
    // first shard — the prediction is pure, so the test knows the crash
    // will happen before it runs anything.
    let seed = (0..2000)
        .find(|&s| {
            cedar_experiments::chaos::probe_sticky(s, "campaign/shard0", "worker-crash").is_some()
        })
        .expect("no crashing chaos seed in 2000");
    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 8,
        shard_size: 8,
        lease: Duration::from_millis(300),
        retry_budget: 2,
        jobs_check: 0,
        config_name: "manual".into(),
        dir: fresh_dir("chaos"),
    };
    let coordinator = Coordinator::new(cfg).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        coordinator.serve(listener, Duration::from_millis(300)).unwrap()
    });

    let chaotic = run_worker(&WorkerConfig {
        addr: addr.clone(),
        name: "chaotic".into(),
        chaos: Some(seed),
        poll_base: Duration::from_millis(20),
        ..WorkerConfig::default()
    })
    .unwrap();
    assert_eq!(chaotic.crashed, Some(0), "the predicted chaos crash must fire");

    let steady = run_worker(&WorkerConfig {
        addr,
        name: "steady".into(),
        poll_base: Duration::from_millis(20),
        ..WorkerConfig::default()
    })
    .unwrap();
    assert_eq!(steady.completed, 1);

    let outcome = server.join().unwrap();
    assert!(outcome.reassignments >= 1);
    assert_eq!(outcome.merged.unwrap().to_json(), reference_json(0, 8, 0));
}
