//! Property tests for the supervised experiment engine (DESIGN.md §10):
//! under *any* chaos seed the supervisor must yield a **complete**
//! report — one slot per cell, each either a correct result or a
//! quarantine entry with a crash bundle on disk — and the outcome must
//! be identical across worker counts. With chaos off, supervision is
//! invisible. The exit-code taxonomy (README "Exit codes") is pinned
//! alongside, since the CI chaos smoke test asserts on it.

use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;

use cedar_experiments::supervise::{self, Cell, Supervisor, Sweep};

const N_CELLS: usize = 12;

/// A supervisor writing bundles under a per-(tag, seed) scratch dir so
/// concurrent test cases never collide.
fn supervisor(tag: &str, chaos: Option<u64>) -> Supervisor {
    let seed = chaos.map_or_else(|| "off".to_string(), |s| s.to_string());
    Supervisor {
        chaos,
        deadline: Some(Duration::from_secs(60)),
        bundle_dir: PathBuf::from(format!("target/chaos-prop/{tag}-{seed}")),
    }
}

/// Synthetic sweep: each cell walks two chaos-gated phases, then
/// returns a value derived from its input. Real work is negligible, so
/// every observed failure comes from the injector.
fn sweep(sup: &Supervisor) -> Sweep<usize> {
    let cells: Vec<Cell<usize>> = (0..N_CELLS)
        .map(|k| {
            Cell::with_source(
                format!("prop/cell-{k}"),
                format!("! synthetic cell {k}\n      END\n"),
                k,
            )
        })
        .collect();
    supervise::run_cells(sup, cells, |&k| {
        supervise::gate("alpha");
        supervise::gate("beta");
        k * 3
    })
}

/// Sweep outcome distilled for comparison: result slots, recovered
/// `(cell, rung)` pairs, quarantined cell labels.
type Shape = (Vec<Option<usize>>, Vec<(String, String)>, Vec<String>);

/// The stable shape of a sweep outcome, for cross-jobs comparison.
fn shape(s: &Sweep<usize>) -> Shape {
    (
        s.results.clone(),
        s.recovered
            .iter()
            .map(|r| (r.cell.clone(), r.rung.to_string()))
            .collect(),
        s.quarantined.iter().map(|q| q.cell.clone()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the seed injects, the report is complete: every cell is
    /// either a correct result or a quarantine entry (never both, never
    /// neither), and every quarantine has its crash bundle on disk.
    #[test]
    fn chaos_report_is_always_complete(seed in 0u64..10_000) {
        let sup = supervisor("complete", Some(seed));
        let s = sweep(&sup);
        prop_assert_eq!(s.results.len(), N_CELLS);
        for (k, r) in s.results.iter().enumerate() {
            let label = format!("prop/cell-{k}");
            let quarantined = s.quarantined.iter().any(|q| q.cell == label);
            match r {
                Some(v) => {
                    prop_assert_eq!(*v, k * 3, "cell {} returned a wrong value", k);
                    prop_assert!(!quarantined, "cell {} both succeeded and quarantined", k);
                }
                None => prop_assert!(
                    quarantined,
                    "cell {} has no result and no quarantine entry", k
                ),
            }
        }
        for q in &s.quarantined {
            prop_assert!(!q.attempts.is_empty(), "{}: quarantine with no attempts", q.cell);
            let bundle = q.bundle.as_ref();
            prop_assert!(bundle.is_some(), "{}: quarantined without a bundle", q.cell);
            let dir = PathBuf::from(bundle.unwrap());
            prop_assert!(
                dir.join("bundle.json").is_file(),
                "{}: bundle.json missing under {}", q.cell, dir.display()
            );
            prop_assert!(
                dir.join("source.f").is_file(),
                "{}: source.f missing under {}", q.cell, dir.display()
            );
        }
    }

    /// The chaos outcome — values, recoveries, quarantines — is a pure
    /// function of the seed, independent of the worker count.
    #[test]
    fn chaos_outcome_is_jobs_invariant(seed in 0u64..10_000) {
        let sup = supervisor("jobs", Some(seed));
        let serial = cedar_par::with_jobs(1, || shape(&sweep(&sup)));
        let parallel = cedar_par::with_jobs(4, || shape(&sweep(&sup)));
        prop_assert_eq!(serial, parallel, "seed {}: outcome depends on CEDAR_JOBS", seed);
    }
}

/// With chaos off, supervision is invisible: every cell succeeds on the
/// first rung and nothing is recovered or quarantined.
#[test]
fn clean_sweep_is_untouched() {
    let s = sweep(&supervisor("clean", None));
    assert_eq!(
        s.results,
        (0..N_CELLS).map(|k| Some(k * 3)).collect::<Vec<_>>()
    );
    assert!(s.recovered.is_empty(), "clean run recovered: {:?}", s.recovered);
    assert!(s.quarantined.is_empty(), "clean run quarantined: {:?}", s.quarantined);
}

/// The exit-code taxonomy the binaries and CI smoke test rely on:
/// 0 = ok, 1 = validation failure, 2 = harness error, and a harness
/// error outranks a validation failure.
#[test]
fn exit_codes_follow_the_readme_taxonomy() {
    use cedar_par::cli::exitcode;
    assert_eq!(exitcode::classify(false, 0), exitcode::OK);
    assert_eq!(exitcode::classify(true, 0), exitcode::VALIDATION);
    assert_eq!(exitcode::classify(false, 3), exitcode::HARNESS);
    assert_eq!(exitcode::classify(true, 3), exitcode::HARNESS);
    assert_eq!(exitcode::OK, 0);
    assert_eq!(exitcode::VALIDATION, 1);
    assert_eq!(exitcode::HARNESS, 2);
}
