//! The host-speed reference. The machines this benchmark runs on are
//! shared: their speed moves by 10–30 % in regimes that last minutes,
//! by different amounts for arithmetic, for memory and for
//! allocation-heavy code (README, "Host speed"). So every run times
//! three fixed kernels between its iterations — dependent arithmetic,
//! dependent loads over 32 MiB, and allocate/format/hash — and reports
//! its clock metrics divided by the *host index*: the geometric mean
//! of the three kernels' median times over their [`NOMINAL`] times.
//!
//! The kernels use the standard library only, so no change to the
//! layers can move them, and this directory is frozen, so nothing else
//! can either: a slower layer still reads slower by exactly as much.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Size of the array the load kernel walks. It stays resident for the
/// whole run and is subtracted from `peak_rss_mb`.
pub const CHAIN_BYTES: usize = 32 << 20;

/// Kernel times, seconds, on the machine the benchmark was defined on
/// while it was quiet: arithmetic, loads, allocation. They only fix
/// the scale — a host index of 1 means "as fast as that machine then".
pub const NOMINAL: [f64; 3] = [0.0165, 0.0520, 0.0145];

/// SplitMix64, for the permutation and the allocation kernel's keys.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A chain of dependent multiply-adds: the core's clock.
fn arithmetic() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..6_000_000_u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    x
}

/// Allocate, format and hash: what the front end and the service do
/// between the numeric parts.
fn allocation() -> usize {
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    let mut state = 1;
    for i in 0..100_000_u64 {
        let key = format!("k{}", next(&mut state) % 5000);
        map.entry(key).or_default().push(i);
    }
    map.iter().map(|(k, v)| k.len() + v.len()).sum()
}

/// A random permutation of `0..len` that is one cycle (Sattolo's
/// algorithm), so a walk along it never falls into a short loop.
fn single_cycle(len: usize) -> Vec<u32> {
    let mut chain: Vec<u32> = (0..len as u32).collect();
    let mut state = 0x5bf0_3635_d1a4_86c9;
    for i in (1..len).rev() {
        chain.swap(i, (next(&mut state) % i as u64) as usize);
    }
    chain
}

/// The reference kernels and the samples a run has taken of them.
pub struct Reference {
    /// One random cycle through all of `0..len`: every load depends on
    /// the one before it and misses the private caches.
    chain: Vec<u32>,
    samples: Vec<[f64; 3]>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// Build the load kernel's array.
    pub fn new() -> Reference {
        Reference {
            chain: single_cycle(CHAIN_BYTES / std::mem::size_of::<u32>()),
            samples: Vec::new(),
        }
    }

    fn loads(&self) -> u32 {
        let mut i = 0;
        for _ in 0..400_000 {
            i = self.chain[i as usize];
        }
        i
    }

    /// Time the three kernels once (≈ 80 ms).
    pub fn sample(&mut self) {
        fn time<R>(f: impl FnOnce() -> R) -> f64 {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        }
        self.samples
            .push([time(arithmetic), time(|| self.loads()), time(allocation)]);
    }

    /// Median time of each kernel over the samples taken, seconds.
    pub fn kernel_medians(&self) -> [f64; 3] {
        std::array::from_fn(|k| median(&self.samples.iter().map(|s| s[k]).collect::<Vec<_>>()))
    }

    /// How slow the host was during the run: 1 is the speed the
    /// [`NOMINAL`] times were taken at, 1.2 is 20 % slower.
    pub fn host_index(&self) -> f64 {
        host_index(&self.kernel_medians())
    }
}

/// Geometric mean of the kernels' times over their nominal times.
pub fn host_index(kernel_s: &[f64; 3]) -> f64 {
    let product: f64 = kernel_s
        .iter()
        .zip(NOMINAL)
        .map(|(t, nominal)| t / nominal)
        .product();
    product.cbrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_is_a_geometric_mean_over_nominal() {
        assert!((host_index(&NOMINAL) - 1.0).abs() < 1e-12);
        let slow = [NOMINAL[0] * 1.1, NOMINAL[1] * 1.2, NOMINAL[2] * 1.5];
        assert!((host_index(&slow) - (1.1f64 * 1.2 * 1.5).cbrt()).abs() < 1e-12);
    }

    #[test]
    fn the_chain_is_one_cycle() {
        let chain = single_cycle(1000);
        let (mut at, mut steps) = (0, 0);
        loop {
            at = chain[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, 1000);
    }

    #[test]
    fn sampling_records_three_positive_times() {
        let mut r = Reference {
            chain: single_cycle(1024),
            samples: Vec::new(),
        };
        r.sample();
        r.sample();
        assert!(r.kernel_medians().iter().all(|t| *t > 0.0));
        assert!(r.host_index() > 0.0);
    }
}
