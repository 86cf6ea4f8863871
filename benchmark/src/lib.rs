#![warn(missing_docs)]
//! The repository's benchmark: five workloads, nine end-to-end metrics
//! and a per-layer trace, all taken from outside the crates under
//! test. `README.md` next to this package says what each name means
//! and which layer should move which number.
//!
//! This library holds what the end-to-end runner (`e2e`) and the
//! traced runner (`trace`) share, and calls only crate-root entry
//! points of the layers, so that it keeps compiling while the layers
//! are refactored. Calls that reach deeper live in the `trace` binary.

pub mod harness;
pub mod inputs;
pub mod paper;
pub mod reference;
pub mod selfcheck;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Worker threads every run gives `cedar-par`; with the two server
/// workers and two clients of the serve workloads this is sized for a
/// two-core machine.
pub const JOBS: usize = 2;

/// Dispatch on a workload name: `$body` runs with `$W` bound to the
/// workload's type.
#[macro_export]
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            "paper_suite" => {
                type $W = $crate::workloads::PaperSuite;
                Some($body)
            }
            "validate_pool" => {
                type $W = $crate::workloads::ValidatePool;
                Some($body)
            }
            "compile_corpus" => {
                type $W = $crate::workloads::CompileCorpus;
                Some($body)
            }
            "serve_cold" => {
                type $W = $crate::workloads::ServeCold;
                Some($body)
            }
            "serve_replay" => {
                type $W = $crate::workloads::ServeReplay;
                Some($body)
            }
            _ => None,
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::harness::Workload;
    use crate::stats::{highest_percentile, samples_beyond, LADDER, MIN_BEYOND};
    use crate::workloads::*;

    /// Samples beyond `TAIL` after the fewest iterations a run makes.
    fn beyond<W: Workload>() -> usize {
        assert!(!W::REPEATS_UNITS);
        let per_iter = samples_beyond(W::UNITS_PER_ITER, W::TAIL);
        if per_iter >= MIN_BEYOND {
            per_iter
        } else {
            samples_beyond(W::MIN_ITERS * W::UNITS_PER_ITER, W::TAIL)
        }
    }

    #[test]
    fn sample_tails_have_ten_samples_beyond() {
        assert!(beyond::<ServeCold>() >= MIN_BEYOND);
        assert!(beyond::<ServeReplay>() >= MIN_BEYOND);
        assert!(LADDER.contains(&ServeCold::TAIL) && LADDER.contains(&ServeReplay::TAIL));
        // `serve_cold` reports the highest percentile it can resolve;
        // `serve_replay` stays one rung below (README, "Tails").
        assert_eq!(
            highest_percentile(ServeCold::MIN_ITERS * ServeCold::UNITS_PER_ITER),
            Some(ServeCold::TAIL)
        );
    }

    #[test]
    fn every_name_dispatches() {
        for name in NAMES {
            assert_eq!(with_workload!(name, W => W::NAME), Some(name));
        }
        assert_eq!(with_workload!("nope", W => W::NAME), None);
    }
}
