//! Circuit breaker: when requests under one pass configuration keep
//! needing the degradation ladder, stop paying for the doomed attempts
//! and start subsequent requests directly at the rung that has been
//! rescuing them.
//!
//! State is kept per pass name (`auto` / `manual` / `serial`) — "a pass
//! that keeps failing" is the unit the ISSUE names, and it matches how
//! a deployment would see a restructurer regression: one configuration
//! goes bad while the others stay healthy. The policy is the classic
//! three-state machine:
//!
//! * **closed** — requests enter the ladder at `normal`;
//! * **open** — after `threshold` *consecutive* requests needed
//!   escalation (or quarantined), entry jumps to the highest rung that
//!   rescued them, for `cooldown`;
//! * **half-open** — once the cooldown lapses, the next request probes
//!   at `normal` again; success closes the breaker, another escalation
//!   re-opens it.
//!
//! Time is only consulted on state *reads* (`Instant::now` vs a stored
//! deadline), so tests can drive the machine synthetically with a zero
//! cooldown.

use cedar_experiments::supervise::Rung;
use cedar_experiments::Writer;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Consecutive escalations before the server's breaker opens.
pub(crate) const THRESHOLD: u32 = 3;
/// How long the server's open breaker skips straight to its rescue rung.
pub(crate) const COOLDOWN: Duration = Duration::from_secs(5);

#[derive(Debug, Clone)]
struct PassState {
    /// Consecutive requests that needed escalation beyond `normal`.
    consecutive: u32,
    /// While `Some` and in the future, the breaker is open.
    open_until: Option<Instant>,
    /// Highest rung that rescued a recent escalated request (entry
    /// point while open).
    rescue: Rung,
}

/// Per-pass circuit breaker; shared across worker threads.
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown: Duration,
    state: Mutex<HashMap<String, PassState>>,
}

impl Breaker {
    /// A breaker that opens after `threshold` consecutive escalations
    /// and stays open for `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker { threshold, cooldown, state: Mutex::new(HashMap::new()) }
    }

    /// The rung a new request under `pass` should enter the ladder at:
    /// `normal` when closed or half-open (probe), the rescue rung while
    /// open.
    pub fn entry_rung(&self, pass: &str) -> Rung {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match state.get(pass) {
            Some(s) if s.open_until.is_some_and(|t| Instant::now() < t) => s.rescue,
            _ => Rung::Normal,
        }
    }

    /// Record a finished request: the rung it entered at, the rung it
    /// succeeded at (`None` = quarantined at every rung).
    pub fn record(&self, pass: &str, entry: Rung, succeeded_at: Option<Rung>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = state.entry(pass.to_string()).or_insert(PassState {
            consecutive: 0,
            open_until: None,
            rescue: Rung::Normal,
        });
        match succeeded_at {
            // A clean first-attempt success while entering at `normal`
            // is the only event that closes the breaker — success at an
            // elevated entry rung proves nothing about `normal`.
            Some(rung) if rung == entry && entry == Rung::Normal => {
                s.consecutive = 0;
                s.open_until = None;
                s.rescue = Rung::Normal;
            }
            outcome => {
                s.consecutive += 1;
                // The rung that rescued the request becomes the entry
                // point while open; a quarantine teaches nothing better
                // than the deepest rung.
                s.rescue = s.rescue.max(outcome.unwrap_or(Rung::Serial)).max(entry);
                if s.consecutive >= self.threshold {
                    s.open_until = Some(Instant::now() + self.cooldown);
                }
            }
        }
    }

    /// `{"pass": {"state": "closed|open", "consecutive": n,
    /// "entry_rung": "..."}}` for `/metrics`; passes sorted for
    /// deterministic output.
    pub fn status_json(&self) -> String {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut passes: Vec<&String> = state.keys().collect();
        passes.sort();
        let mut w = Writer::new();
        w.obj();
        for p in passes {
            let s = &state[p];
            let open = s.open_until.is_some_and(|t| Instant::now() < t);
            w.key(p).obj().key("state").str(if open { "open" } else { "closed" });
            w.key("consecutive").int(s.consecutive);
            w.key("entry_rung").str(if open { s.rescue } else { Rung::Normal }.label()).end();
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_and_skips_to_rescue_rung() {
        let b = Breaker::new(3, Duration::from_secs(60));
        assert_eq!(b.entry_rung("auto"), Rung::Normal);
        b.record("auto", Rung::Normal, Some(Rung::NoFastPaths));
        b.record("auto", Rung::Normal, Some(Rung::RacesOn));
        assert_eq!(b.entry_rung("auto"), Rung::Normal, "below threshold stays closed");
        b.record("auto", Rung::Normal, Some(Rung::NoFastPaths));
        assert_eq!(b.entry_rung("auto"), Rung::RacesOn, "opens at highest rescue rung");
        assert_eq!(b.entry_rung("manual"), Rung::Normal, "other passes unaffected");
    }

    #[test]
    fn success_at_normal_closes() {
        let b = Breaker::new(2, Duration::from_secs(60));
        b.record("auto", Rung::Normal, Some(Rung::Serial));
        b.record("auto", Rung::Normal, None); // quarantine counts too
        assert_eq!(b.entry_rung("auto"), Rung::Serial);
        // A clean probe at normal closes the breaker.
        b.record("auto", Rung::Normal, Some(Rung::Normal));
        assert_eq!(b.entry_rung("auto"), Rung::Normal);
        let json = b.status_json();
        assert!(json.contains("\"auto\": {\"state\": \"closed\""), "{json}");
    }

    #[test]
    fn cooldown_lapse_half_opens() {
        let b = Breaker::new(1, Duration::ZERO);
        b.record("auto", Rung::Normal, Some(Rung::NoFastPaths));
        // Open with a zero cooldown is immediately lapsed: the next
        // request probes at normal.
        assert_eq!(b.entry_rung("auto"), Rung::Normal);
        // But the escalation streak is intact — one more failure
        // re-opens instantly.
        b.record("auto", Rung::Normal, Some(Rung::Serial));
        assert!(b.status_json().contains("\"consecutive\": 2"));
    }

    #[test]
    fn success_at_elevated_entry_does_not_close() {
        let b = Breaker::new(1, Duration::from_secs(60));
        b.record("auto", Rung::Normal, Some(Rung::NoFastPaths));
        assert_eq!(b.entry_rung("auto"), Rung::NoFastPaths);
        // While open, requests succeed at the rescue rung; that must
        // not reset the breaker (normal is still unproven).
        b.record("auto", Rung::NoFastPaths, Some(Rung::NoFastPaths));
        assert_eq!(b.entry_rung("auto"), Rung::NoFastPaths);
        let json = b.status_json();
        assert!(json.contains("\"state\": \"open\""), "{json}");
        assert!(json.contains("\"entry_rung\": \"no-fast-paths\""), "{json}");
    }
}
