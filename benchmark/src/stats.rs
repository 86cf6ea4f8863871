//! The statistics every reported timing goes through: a median, a
//! nearest-rank percentile, and the rule that a tail percentile is
//! reported only where at least ten samples lie beyond it.

/// Percentiles a tail may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: a workload that timed nothing is a bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    sorted(xs)[rank(xs.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond nearest-rank percentile
/// `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`] of
/// `n` samples beyond it, if any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Percentile `p` of unit latencies that are samples of one
/// distribution (requests). When one iteration alone has
/// [`MIN_BEYOND`] samples beyond `p`, the percentile is taken per
/// iteration and the median over iterations reported, so one disturbed
/// iteration cannot own the tail; otherwise the iterations are pooled.
/// Returns the value and the sample count it rests on.
pub fn sample_percentile(per_iter: &[Vec<f64>], p: f64) -> (f64, usize) {
    let each_has_tail = per_iter
        .iter()
        .all(|it| samples_beyond(it.len(), p) >= MIN_BEYOND);
    if each_has_tail {
        let per: Vec<f64> = per_iter.iter().map(|it| percentile(it, p)).collect();
        (
            median(&per),
            per_iter.iter().map(Vec::len).min().unwrap_or(0),
        )
    } else {
        let pooled: Vec<f64> = per_iter.iter().flatten().copied().collect();
        (percentile(&pooled, p), pooled.len())
    }
}

/// Percentile `p` over the units of a workload that repeats the same
/// units in every iteration (unit `k` is the same program each time):
/// a unit's latency is its median over the iterations, and the
/// percentile is taken over the units. The units are a fixed
/// population, not a sample, so `p` = 100 — the slowest unit — is
/// exact however few they are. Returns the value and the unit count.
pub fn repeated_unit_percentile(per_iter: &[Vec<f64>], p: f64) -> (f64, usize) {
    let units = per_iter.first().map_or(0, Vec::len);
    assert!(
        per_iter.iter().all(|it| it.len() == units),
        "every iteration runs the same units"
    );
    let per_unit: Vec<f64> = (0..units)
        .map(|k| median(&per_iter.iter().map(|it| it[k]).collect::<Vec<_>>()))
        .collect();
    (percentile(&per_unit, p), units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(99), Some(75.0));
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(39), Some(50.0));
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(0), None);
    }

    #[test]
    fn sample_percentile_goes_per_iteration_only_with_a_tail_in_each() {
        // Two iterations of 1000: p99 per iteration, median of the two.
        let a: Vec<f64> = (1..=1000).map(f64::from).collect();
        let b: Vec<f64> = (1..=1000).map(|x| f64::from(x) * 3.0).collect();
        let (v, n) = sample_percentile(&[a.clone(), b], 99.0);
        assert_eq!(v, (990.0 + 2970.0) / 2.0);
        assert_eq!(n, 1000);
        // One short iteration forces pooling.
        let (v, n) = sample_percentile(&[a, vec![5000.0; 20]], 99.0);
        assert_eq!(n, 1020);
        assert_eq!(v, 5000.0);
    }

    #[test]
    fn repeated_units_take_the_median_per_unit_first() {
        // Three units over three iterations; unit 1 was disturbed once.
        let iters = [
            vec![1.0, 20.0, 3.0],
            vec![1.2, 2.0, 3.2],
            vec![0.8, 2.2, 2.8],
        ];
        assert_eq!(repeated_unit_percentile(&iters, 50.0), (2.2, 3));
        assert_eq!(repeated_unit_percentile(&iters, 100.0), (3.0, 3));
    }
}
