//! Deterministic jittered exponential backoff, shared by every
//! retrying client in the workspace.
//!
//! `cedar-serve`'s per-request retry ladder and `cedar-campaign`'s
//! worker lease loop both need the same thing: attempt `k` waits
//! `base · 2^(k-1)` plus a 0–50 % jitter that is a pure function of the
//! retry *label*, so two processes retrying different work desynchronize
//! while a single failing request stays exactly reproducible (the chaos
//! tests predict recovery timing from the label alone — no RNG state,
//! no host time).

use crate::sip_parts;
use std::time::Duration;

/// Backoff before retry `k` (k ≥ 1) of the work named `label`:
/// exponential in `base` (capped at `base · 2^4`) plus a deterministic
/// 0–50 % jitter keyed on `(label, k)`.
pub fn backoff(base: Duration, label: &str, k: usize) -> Duration {
    let exp = base.saturating_mul(1u32 << (k - 1).min(4));
    let jitter_pct = sip_parts(&[label, &k.to_string()]) % 50;
    exp + exp.mul_f64(jitter_pct as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_exponentially_and_jitters_deterministically() {
        let base = Duration::from_millis(10);
        let a1 = backoff(base, "serve/x", 1);
        let a2 = backoff(base, "serve/x", 2);
        let a3 = backoff(base, "serve/x", 3);
        assert!(a1 >= base && a1 < base * 2, "{a1:?}");
        assert!(a2 >= base * 2 && a2 < base * 3, "{a2:?}");
        assert!(a3 >= base * 4 && a3 < base * 6, "{a3:?}");
        assert_eq!(a1, backoff(base, "serve/x", 1), "jitter is deterministic");
    }

    #[test]
    fn exponent_is_capped() {
        let base = Duration::from_millis(10);
        let deep = backoff(base, "w", 40);
        assert!(deep < base * 2 * 16 + Duration::from_millis(1), "{deep:?}");
    }

    #[test]
    fn labels_decorrelate() {
        let base = Duration::from_millis(100);
        // Not all labels may differ at every k, but across a handful of
        // labels the jitter must not collapse to one value.
        let distinct: std::collections::HashSet<Duration> =
            (0..8).map(|i| backoff(base, &format!("worker-{i}"), 1)).collect();
        assert!(distinct.len() > 1, "jitter ignored the label");
    }
}
