//! Breaker state-transition coverage at the *engine* level: real
//! requests through [`cedar_serve::handle`] with chaos injection, so
//! the transitions under test are driven by actual ladder escalations
//! and quarantines, not by calling `Breaker::record` by hand (the unit
//! tests in `breaker.rs` already do that).
//!
//! The machine walked here:
//!
//! * closed → **open**: `threshold` consecutive escalated requests trip
//!   the breaker, and the next request *enters the ladder at the rescue
//!   rung* — visible in its `service.entry_rung`;
//! * open stays open: success at an elevated entry proves nothing about
//!   `normal`, so the breaker must not reset;
//! * open → half-open → **closed**: after the cooldown a probe enters
//!   at `normal` again, and a clean success resets the streak;
//! * quarantine: a request that fails every rung counts toward the trip
//!   and teaches the breaker nothing better than `serial`.
//!
//! Chaos draws are deterministic in `(seed, label, rung, phase)`, so
//! each test *predicts* escalation vs quarantine per request with the
//! public probes, then asserts the breaker moved accordingly.

use cedar_experiments::chaos;
use cedar_experiments::supervise::{Rung, Supervisor};
use cedar_fuzz::GenProgram;
use cedar_serve::{handle, Breaker, EngineConfig, Json, ServeRequest};
use std::path::PathBuf;
use std::time::Duration;

const CHAOS: u64 = 42;
/// The phases a `validate: false` request gates, in order.
const PHASES: [&str; 3] = ["compile", "restructure", "simulate"];

fn chaos_engine(tag: &str) -> EngineConfig {
    let cfg = EngineConfig {
        sup: Supervisor {
            chaos: Some(CHAOS),
            deadline: None,
            bundle_dir: PathBuf::from(format!("target/test-serve-bundles/{tag}")),
        },
        backoff_base: Duration::from_millis(1),
        validate_seeds: vec![1],
    };
    let _ = std::fs::remove_dir_all(&cfg.sup.bundle_dir);
    cfg
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

/// Fails at `normal`, clean somewhere safer: the ladder will rescue it.
fn transient(label: &str) -> bool {
    !sticky_faulty(label)
        && rung_fails(label, Rung::Normal.label())
        && Rung::LADDER[1..].iter().any(|r| !rung_fails(label, r.label()))
}

/// No fault at any rung: succeeds wherever the breaker makes it enter.
fn always_clean(label: &str) -> bool {
    !sticky_faulty(label) && Rung::LADDER.iter().all(|r| !rung_fails(label, r.label()))
}

/// First `n` distinct generated programs whose requests satisfy `want`.
fn find_requests(n: usize, want: impl Fn(&str) -> bool) -> Vec<ServeRequest> {
    let mut out = Vec::new();
    for seed in 0..3000u64 {
        let req = request_for(seed);
        if want(&req.label()) {
            out.push(req);
            if out.len() == n {
                return out;
            }
        }
    }
    panic!("only {} of {n} matching programs in 3000 seeds", out.len());
}

fn entry_rung_of(body: &str) -> String {
    Json::parse(body)
        .expect("response is valid JSON")
        .get("service")
        .and_then(|s| s.get("entry_rung"))
        .and_then(Json::as_str)
        .expect("service.entry_rung present")
        .to_string()
}

#[test]
fn consecutive_escalations_trip_the_breaker_and_elevate_the_entry_rung() {
    let cfg = chaos_engine("breaker-trip");
    let breaker = Breaker::new(3, Duration::from_secs(60));
    for (i, req) in find_requests(3, transient).iter().enumerate() {
        assert_eq!(
            breaker.entry_rung("auto"),
            Rung::Normal,
            "breaker must stay closed until the threshold ({i} escalations so far)"
        );
        let h = handle(req, &cfg, &breaker);
        assert_eq!(h.status, 200, "transient request must recover: {}", h.body);
        assert!(h.retries >= 1, "must have escalated: {}", h.body);
        assert_eq!(entry_rung_of(&h.body), "normal");
    }

    // Tripped: open, and entry jumps to the rung that rescued the
    // escalated requests. Other pass configs are untouched.
    let rescue = breaker.entry_rung("auto");
    assert_ne!(rescue, Rung::Normal, "three escalations must open the breaker");
    assert_eq!(breaker.entry_rung("manual"), Rung::Normal);
    let status = breaker.status_json();
    assert!(status.contains("\"auto\": {\"state\": \"open\""), "{status}");

    // A request arriving while open skips the doomed rungs entirely:
    // first attempt at the rescue rung, zero retries.
    let clean = &find_requests(1, always_clean)[0];
    let h = handle(clean, &cfg, &breaker);
    assert_eq!(h.status, 200, "{}", h.body);
    assert_eq!(h.retries, 0, "entry at the rescue rung must not re-walk the ladder");
    assert_eq!(entry_rung_of(&h.body), rescue.label());

    // That success proved nothing about `normal`: still open.
    assert_eq!(breaker.entry_rung("auto"), rescue);
    assert!(breaker.status_json().contains("\"auto\": {\"state\": \"open\""));
}

#[test]
fn a_clean_probe_after_the_cooldown_closes_the_breaker() {
    let cfg = chaos_engine("breaker-close");
    // Zero cooldown: "open" lapses immediately, so the very next
    // request is the half-open probe at `normal`.
    let breaker = Breaker::new(1, Duration::ZERO);
    let transient_req = &find_requests(1, transient)[0];
    let h = handle(transient_req, &cfg, &breaker);
    assert_eq!(h.status, 200, "{}", h.body);
    assert!(breaker.status_json().contains("\"consecutive\": 1"));

    let clean = &find_requests(1, always_clean)[0];
    let h = handle(clean, &cfg, &breaker);
    assert_eq!(h.status, 200, "{}", h.body);
    assert_eq!(entry_rung_of(&h.body), "normal", "half-open probes at normal");
    assert_eq!(h.retries, 0);

    // Clean success at `normal` closed it and reset the streak.
    assert_eq!(breaker.entry_rung("auto"), Rung::Normal);
    let status = breaker.status_json();
    assert!(status.contains("\"auto\": {\"state\": \"closed\", \"consecutive\": 0"), "{status}");
}

#[test]
fn a_quarantine_trips_the_breaker_to_the_deepest_rung() {
    let cfg = chaos_engine("breaker-quarantine");
    let breaker = Breaker::new(1, Duration::from_secs(60));
    let sticky = &find_requests(1, sticky_faulty)[0];
    let h = handle(sticky, &cfg, &breaker);
    assert!(h.quarantined, "sticky request must quarantine: {}", h.body);
    assert!(matches!(h.status, 422 | 500 | 504), "{}", h.status);

    // A quarantine teaches nothing better than `serial` — the next
    // request starts at the bottom of the ladder.
    assert_eq!(breaker.entry_rung("auto"), Rung::Serial);
    let status = breaker.status_json();
    assert!(status.contains("\"entry_rung\": \"serial\""), "{status}");
}
