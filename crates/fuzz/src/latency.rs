//! Shared wall-clock latency accounting.
//!
//! One accumulator serves two consumers that must agree on definitions:
//! fuzz campaigns record per-seed judge times and print the outlier
//! seeds on stderr (a seed that takes 50× the median is a
//! generator or simulator pathology worth a look even when its oracles
//! pass), and the `cedar-serve` load-test harness records per-request
//! service times for its `target/BENCH_serve.json` report. Percentiles are
//! nearest-rank over the recorded samples — simple, exact for the
//! sample sizes involved, and free of interpolation ambiguity when two
//! reports are diffed.

use cedar_experiments::Writer;
use std::time::Duration;

/// A set of labelled wall-clock samples (label, milliseconds).
#[derive(Debug, Default, Clone)]
pub struct Latency {
    samples: Vec<(String, f64)>,
}

impl Latency {
    /// An empty accumulator.
    pub fn new() -> Latency {
        Latency::default()
    }

    /// Record one sample in milliseconds.
    pub fn record(&mut self, label: impl Into<String>, ms: f64) {
        self.samples.push((label.into(), ms));
    }

    /// Record one sample from a [`Duration`].
    pub fn record_duration(&mut self, label: impl Into<String>, d: Duration) {
        self.record(label, d.as_secs_f64() * 1e3);
    }

    /// Fold another accumulator's samples into this one (per-thread
    /// recorders merging at the end of a run).
    pub fn absorb(&mut self, other: Latency) {
        self.samples.extend(other.samples);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank percentile (`p` in 0..=100) of the sample times in
    /// milliseconds; 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut ms: Vec<f64> = self.samples.iter().map(|(_, m)| *m).collect();
        ms.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * ms.len() as f64).ceil() as usize;
        ms[rank.clamp(1, ms.len()) - 1]
    }

    /// Mean sample time in milliseconds; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, m)| m).sum::<f64>() / self.samples.len() as f64
    }

    /// Largest sample time in milliseconds; 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().map(|(_, m)| *m).fold(0.0, f64::max)
    }

    /// The `n` slowest samples, slowest first (ties broken by label so
    /// the ordering is deterministic).
    pub fn slowest(&self, n: usize) -> Vec<(&str, f64)> {
        let mut all: Vec<(&str, f64)> =
            self.samples.iter().map(|(l, m)| (l.as_str(), *m)).collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        all.truncate(n);
        all
    }

    /// Summary object: `{"p50": …, "p99": …, "mean": …, "max": …,
    /// "count": N}` (times in milliseconds, no trailing newline).
    pub fn summary_json(&self) -> String {
        let mut w = Writer::new();
        w.obj();
        for (key, ms) in [
            ("p50", self.percentile(50.0)),
            ("p99", self.percentile(99.0)),
            ("mean", self.mean()),
            ("max", self.max()),
        ] {
            w.key(key).float(ms, format_args!("{ms:.3}"));
        }
        w.key("count").int(self.len());
        w.finish()
    }

    /// The `n` slowest samples as a JSON array of
    /// `{"label": …, "ms": …}` objects (no trailing newline).
    pub fn slowest_json(&self, n: usize) -> String {
        let mut w = Writer::new();
        w.arr();
        for (label, ms) in self.slowest(n) {
            w.obj().key("label").str(label).key("ms").float(ms, format_args!("{ms:.3}")).end();
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> Latency {
        let mut l = Latency::new();
        for k in 1..=100u32 {
            l.record(format!("s{k}"), f64::from(k));
        }
        l
    }

    #[test]
    fn nearest_rank_percentiles() {
        let l = filled();
        assert_eq!(l.percentile(50.0), 50.0);
        assert_eq!(l.percentile(99.0), 99.0);
        assert_eq!(l.percentile(100.0), 100.0);
        assert_eq!(l.max(), 100.0);
        assert!((l.mean() - 50.5).abs() < 1e-9);
        assert_eq!(Latency::new().percentile(99.0), 0.0);
    }

    #[test]
    fn slowest_is_ordered_and_deterministic() {
        let mut l = filled();
        l.record("tie", 99.0); // ties with s99; label order breaks it
        let top = l.slowest(3);
        assert_eq!(top[0], ("s100", 100.0));
        assert_eq!(top[1], ("s99", 99.0));
        assert_eq!(top[2], ("tie", 99.0));
    }

    #[test]
    fn json_shapes() {
        let l = filled();
        let s = l.summary_json();
        assert!(s.starts_with("{\"p50\": 50.000"), "{s}");
        assert!(s.ends_with("\"count\": 100}"), "{s}");
        let top = l.slowest_json(2);
        assert_eq!(
            top,
            "[{\"label\": \"s100\", \"ms\": 100.000}, {\"label\": \"s99\", \"ms\": 99.000}]"
        );
        assert_eq!(Latency::new().slowest_json(5), "[]");
    }

    #[test]
    fn absorb_merges_samples() {
        let mut a = Latency::new();
        a.record("x", 1.0);
        let mut b = Latency::new();
        b.record_duration("y", Duration::from_millis(3));
        a.absorb(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), 3.0);
    }
}
