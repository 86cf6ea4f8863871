//! Transform-coverage ledger: which restructuring passes actually fired
//! across a campaign.
//!
//! A fuzzer that only ever exercises the serial path proves nothing, so
//! every campaign accumulates, from each restructurer
//! [`Report`](cedar_restructure::Report), a count per pass and fails at
//! the end if any required pass was unreachable. The required set is
//! the transformations the paper's restructurer applies to loop nests;
//! additional techniques (interchange, GIV substitution, run-time
//! tests, ...) are tracked as `extras` for the JSON report but are not
//! gated — their triggering shapes depend on the pass configuration.

use cedar_experiments::Writer;
use cedar_restructure::{LoopDecision, Report, Technique};
use std::collections::BTreeMap;

/// Passes every campaign must reach at least once.
pub const REQUIRED: [&str; 8] =
    ["doall", "doacross", "stripmine", "privatize", "reduce", "fuse", "coalesce", "vectorize"];

/// Pass-hit counts across a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    counts: BTreeMap<&'static str, u64>,
}

impl Coverage {
    /// Record every pass that fired in one restructurer report.
    pub fn absorb(&mut self, report: &Report) {
        let mut hit = |pass: &'static str| *self.counts.entry(pass).or_insert(0) += 1;
        for l in &report.loops {
            match &l.decision {
                LoopDecision::Doall { vectorized, .. } => {
                    hit("doall");
                    if *vectorized {
                        hit("vectorize");
                    }
                }
                LoopDecision::Doacross { .. } => hit("doacross"),
                LoopDecision::TwoVersion => hit("two-version"),
                LoopDecision::CriticalSection => hit("critical-section"),
                LoopDecision::LibraryReduction => hit("reduce"),
                LoopDecision::Distributed { .. } => hit("distribute"),
                LoopDecision::Serial { .. } => {}
            }
            for t in &l.techniques {
                match t {
                    Technique::ScalarPrivatization | Technique::ArrayPrivatization => {
                        hit("privatize")
                    }
                    Technique::ScalarReduction | Technique::ArrayReduction => hit("reduce"),
                    Technique::Stripmining => hit("stripmine"),
                    Technique::LoopFusion => hit("fuse"),
                    Technique::Coalescing => hit("coalesce"),
                    Technique::GivSubstitution => hit("giv"),
                    Technique::RuntimeDepTest => hit("runtime-test"),
                    Technique::Interchange => hit("interchange"),
                    Technique::IfToWhere => hit("if-to-where"),
                    Technique::Distribution => hit("distribute"),
                    Technique::Globalization => hit("globalize"),
                    Technique::Inlining => hit("inline"),
                    Technique::DataPartitioning => hit("partition"),
                }
            }
        }
    }

    /// Merge another ledger (per-worker ledgers fold into the campaign's).
    pub fn merge(&mut self, other: &Coverage) {
        for (pass, n) in &other.counts {
            *self.counts.entry(pass).or_insert(0) += n;
        }
    }

    /// Every `(pass, count)` pair, sorted by pass name.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(p, n)| (*p, *n))
    }

    /// Add `n` hits for a pass named at runtime (shard deserialization);
    /// errors on a name no version of the ledger ever emits.
    pub fn add(&mut self, pass: &str, n: u64) -> Result<(), String> {
        let interned = intern(pass).ok_or_else(|| format!("unknown coverage pass `{pass}`"))?;
        if n > 0 {
            *self.counts.entry(interned).or_insert(0) += n;
        }
        Ok(())
    }

    /// Hits for one pass.
    pub fn count(&self, pass: &str) -> u64 {
        self.counts.get(pass).copied().unwrap_or(0)
    }

    /// Required passes that never fired.
    pub fn unreachable(&self) -> Vec<&'static str> {
        REQUIRED.iter().copied().filter(|p| self.count(p) == 0).collect()
    }

    /// JSON object: required passes first (always present, even at 0),
    /// then any extras that fired.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj();
        for p in REQUIRED {
            w.key(p).int(self.count(p));
        }
        for (pass, n) in &self.counts {
            if !REQUIRED.contains(pass) {
                w.key(pass).int(n);
            }
        }
        w.finish()
    }
}

/// Map a runtime pass name back to the `'static` key [`Coverage`] uses
/// internally. The list is every name `absorb` can emit — required
/// passes plus extras.
fn intern(name: &str) -> Option<&'static str> {
    const ALL: [&str; 18] = [
        "doall",
        "doacross",
        "stripmine",
        "privatize",
        "reduce",
        "fuse",
        "coalesce",
        "vectorize",
        "two-version",
        "critical-section",
        "distribute",
        "giv",
        "runtime-test",
        "interchange",
        "if-to-where",
        "globalize",
        "inline",
        "partition",
    ];
    ALL.iter().find(|p| **p == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::{LoopClass, Span};

    #[test]
    fn absorb_counts_decisions_and_techniques() {
        let mut r = Report::default();
        r.record(
            "u",
            Span::new(1),
            LoopDecision::Doall { classes: vec![LoopClass::XDoall], vectorized: true },
            vec![Technique::Stripmining, Technique::ScalarPrivatization],
        );
        r.record("u", Span::new(9), LoopDecision::LibraryReduction, vec![]);
        r.record("u", Span::new(20), LoopDecision::Serial { reason: "dep".into() }, vec![]);
        let mut c = Coverage::default();
        c.absorb(&r);
        assert_eq!(c.count("doall"), 1);
        assert_eq!(c.count("vectorize"), 1);
        assert_eq!(c.count("stripmine"), 1);
        assert_eq!(c.count("privatize"), 1);
        assert_eq!(c.count("reduce"), 1);
        assert_eq!(c.count("fuse"), 0);
        let missing = c.unreachable();
        assert!(missing.contains(&"fuse") && missing.contains(&"coalesce"));
        assert!(!missing.contains(&"doall"));
    }

    #[test]
    fn entries_and_add_round_trip_every_emittable_pass() {
        let mut a = Coverage::default();
        let mut r = Report::default();
        r.record(
            "u",
            Span::new(1),
            LoopDecision::Doall { classes: vec![LoopClass::XDoall], vectorized: true },
            vec![Technique::GivSubstitution, Technique::Interchange],
        );
        a.absorb(&r);
        let mut b = Coverage::default();
        for (pass, n) in a.entries() {
            b.add(pass, n).unwrap();
        }
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert!(b.add("warp-drive", 1).is_err(), "unknown pass must be rejected");
    }

    #[test]
    fn merge_adds_and_json_lists_required_first() {
        let mut a = Coverage::default();
        let mut r = Report::default();
        r.record("u", Span::new(1), LoopDecision::Doacross { sync_points: 1 }, vec![]);
        a.absorb(&r);
        let mut b = Coverage::default();
        b.absorb(&r);
        a.merge(&b);
        assert_eq!(a.count("doacross"), 2);
        let json = a.to_json();
        assert!(json.starts_with("{\"doall\": 0, \"doacross\": 2"), "{json}");
    }
}
