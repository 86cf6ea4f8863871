//! End-to-end tests for the distributed campaign subsystem: a real
//! coordinator serving real workers over loopback HTTP, with crashes.
//!
//! The headline guarantee under test: a distributed campaign — workers
//! crashing mid-shard, leases expiring, shards reassigned — merges to
//! the **byte-identical** `cedar-fuzz-v1` report of one process running
//! the whole range, and a coordinator restart resumes from its journal
//! without re-running completed shards.

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
        checkpoint_every: 0,
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

    // And the journal tells the same story durably.
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    assert!(journal.contains("\"rec\": \"reassigned\""), "{journal}");
    assert_eq!(journal.matches("\"rec\": \"completed\"").count(), 9);
}

#[test]
fn coordinator_restart_resumes_from_the_journal_without_rerunning_shards() {
    let dir = fresh_dir("resume");
    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 24,
        shard_size: 8, // 3 shards
        lease: Duration::from_secs(30),
        retry_budget: 2,
        jobs_check: 2,
        config_name: "manual".into(),
        checkpoint_every: 0,
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
        // Lease shard 1 and "crash" with it in flight.
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
}

#[test]
fn checkpoint_compaction_shrinks_the_journal_and_the_result_store_heals_torn_shards() {
    let dir = fresh_dir("checkpoint");
    let cfg = CoordinatorConfig {
        seed_start: 0,
        seed_end: 24,
        shard_size: 8, // 3 shards
        lease: Duration::from_secs(30),
        retry_budget: 2,
        jobs_check: 2,
        config_name: "manual".into(),
        checkpoint_every: 2,
        dir: dir.clone(),
    };
    let now = Instant::now();
    {
        let mut c1 = Coordinator::new(cfg.clone()).unwrap();
        for (shard, range) in [(0u64, (0u64, 8u64)), (1, (8, 16)), (2, (16, 24))] {
            let (_, reply) = c1.handle("POST", "/lease", "{\"worker\": \"w1\"}", now);
            assert!(reply.contains(&format!("\"shard\": {shard}")), "{reply}");
            let body = complete_body("w1", shard, range.0, range.1);
            let (status, _) = c1.handle("POST", "/complete", &body, now);
            assert_eq!(status, 200);
        }
    } // coordinator killed here

    // Two completions triggered a checkpoint-compaction; only shard
    // 2's completion (and its lease) postdate it, so the journal is
    // campaign + checkpoint + a short tail instead of the full
    // history.
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    assert!(journal.starts_with("{\"rec\": \"campaign\""), "{journal}");
    assert_eq!(journal.matches("\"rec\": \"checkpoint\"").count(), 1, "{journal}");
    assert_eq!(journal.matches("\"rec\": \"completed\"").count(), 1, "{journal}");
    assert_eq!(journal.matches("\"rec\": \"leased\"").count(), 1, "{journal}");

    // Maul the plain shard files behind the coordinator's back: one
    // torn mid-write, one deleted outright. The checksummed result
    // store still holds both.
    let shard0 = dir.join("shards/shard0000.json");
    let full = std::fs::read_to_string(&shard0).unwrap();
    std::fs::write(&shard0, &full[..full.len() / 2]).unwrap();
    std::fs::remove_file(dir.join("shards/shard0001.json")).unwrap();

    // Restart: resume folds the checkpoint, heals both files from the
    // store instead of re-running the shards, and the merge is still
    // byte-identical to the single-process reference.
    let mut c2 = Coordinator::new(cfg).unwrap();
    assert!(
        c2.finished(),
        "every shard must resume completed — torn files heal from the result store"
    );
    assert_eq!(std::fs::read_to_string(&shard0).unwrap(), full, "healed byte-identically");
    let outcome = c2.finish().unwrap();
    assert_eq!(outcome.quarantined, 0);
    assert_eq!(outcome.merged.unwrap().to_json(), reference_json(0, 24, 2));
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
        checkpoint_every: 0,
        dir: fresh_dir("poison"),
    };
    let mut c = Coordinator::new(cfg).unwrap();
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
    // Two healthy workers failed it: quarantined, campaign moves on.
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
        checkpoint_every: 0,
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
    assert!(!dir.exists(), "nothing is journaled under a name that judges nothing");
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
        checkpoint_every: 0,
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
        checkpoint_every: 0,
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
