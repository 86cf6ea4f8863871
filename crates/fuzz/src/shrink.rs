//! Structure-aware shrinker.
//!
//! When a seed fails an oracle, the raw program usually mixes several
//! independent shapes; the shrinker greedily minimizes it while
//! preserving the failure, so the crash bundle carries the smallest
//! reproducer the template grammar can express. Shrinking is over the
//! *generator's* structured form ([`GenProgram::shrink_candidates`]) —
//! statement/loop deletion and extent reduction — never over raw text,
//! so every candidate is still a well-formed program with a coherent
//! watch list.
//!
//! A candidate counts as reproducing only if it fails in the **same
//! phase** as the original: a shrink that trades a differential
//! divergence for, say, a compile error has destroyed the evidence,
//! not minimized it.

use crate::gen::GenProgram;
use crate::oracle::{run_oracles, OracleConfig, OracleFailure};

/// Result of a shrink run: the smallest reproducer found and the
/// failure it exhibits.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// Minimized program (may equal the original if nothing smaller
    /// reproduced).
    pub program: GenProgram,
    /// The (possibly re-observed) failure of the minimized program.
    pub failure: OracleFailure,
    /// Successful shrink steps taken.
    pub steps: usize,
    /// Oracle evaluations spent.
    pub checks: usize,
}

/// Greedily minimize `program` while it keeps failing in
/// `failure.phase`. `max_checks` bounds the total number of oracle
/// evaluations (each runs the full pipeline, so this is the shrinker's
/// time budget).
pub fn shrink(
    program: &GenProgram,
    failure: &OracleFailure,
    cfg: &OracleConfig,
    max_checks: usize,
) -> ShrinkOutcome {
    let mut current = program.clone();
    let mut current_failure = failure.clone();
    let mut steps = 0;
    let mut checks = 0;
    'outer: loop {
        for cand in current.shrink_candidates() {
            if checks >= max_checks {
                break 'outer;
            }
            checks += 1;
            if let Err(f) = run_oracles(&cand.render(), cfg) {
                if f.phase == current_failure.phase {
                    current = cand;
                    current_failure = f;
                    steps += 1;
                    continue 'outer; // restart from the smaller program
                }
            }
        }
        break; // no candidate reproduced — fixpoint
    }
    ShrinkOutcome { program: current, failure: current_failure, steps, checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Phase;

    /// A synthetic failure every program "exhibits" lets us exercise the
    /// fixpoint plumbing without needing a real restructurer bug: no
    /// candidate will reproduce a phase that never fires, so shrinking
    /// is the identity.
    #[test]
    fn clean_program_shrinks_to_itself() {
        let gp = GenProgram::generate(3);
        let fake =
            OracleFailure { phase: Phase::Differential, detail: "synthetic".into(), diff: None };
        let out = shrink(&gp, &fake, &OracleConfig::default(), 10);
        assert_eq!(out.steps, 0);
        assert_eq!(out.program, gp);
        assert!(out.checks <= 10);
    }

    /// Force a real, stable failure by tightening the tolerance to an
    /// absurd level so any reassociating shape diverges; the shrinker
    /// must produce a program no larger than the original that still
    /// diverges.
    #[test]
    fn real_divergence_shrinks_monotonically() {
        let cfg = OracleConfig { rel_tol: 0.0, ..Default::default() };
        // Find a seed whose program fails differentially under rel_tol 0
        // (i.e. contains a reassociating reduction).
        for seed in 0..64u64 {
            let gp = GenProgram::generate(seed);
            if let Err(f) = run_oracles(&gp.render(), &cfg) {
                if f.phase != Phase::Differential {
                    continue;
                }
                let out = shrink(&gp, &f, &cfg, 64);
                assert_eq!(out.failure.phase, Phase::Differential);
                assert!(out.program.shapes.len() <= gp.shapes.len());
                // The minimized program really does fail.
                assert!(run_oracles(&out.program.render(), &cfg).is_err());
                return;
            }
        }
        panic!("no seed in 0..64 diverged under rel_tol 0 — generator lost its reductions?");
    }
}
