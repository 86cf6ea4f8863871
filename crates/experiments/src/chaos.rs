//! Seeded chaos injection for the supervised experiment engine
//! (DESIGN.md §10.4).
//!
//! When `CEDAR_CHAOS=<seed>` is set, the pipeline's phase gates
//! ([`crate::supervise::gate`]) consult this module before doing real
//! work. Draws are pure functions of `(seed, cell label, rung, phase)`
//! — no RNG state, no host time — so a chaos run is exactly
//! reproducible, independent of `CEDAR_JOBS`, thread scheduling, and
//! the process-wide caches (gates fire *before* cache lookups, so a
//! memoized outcome can never mask an injection).
//!
//! Two draw classes:
//!
//! * **sticky** — keyed `(seed, cell, phase)`, *ignoring the rung*: the
//!   same fault recurs on every retry, so the degradation ladder cannot
//!   save the cell and it deterministically ends up quarantined with a
//!   crash bundle. This is the class the CI chaos smoke test counts.
//! * **transient** — keyed `(seed, cell, rung, phase)`: the fault is
//!   specific to one rung, so a retry one rung up usually clears it —
//!   this exercises the ladder's recovery path.
//!
//! Each firing draw carries one of three fault kinds: a plain panic, a
//! structured simulator fault (routed through
//! [`crate::supervise::note_sim_error`] so the supervisor classifies it
//! as `sim-error` rather than `panicked`), or a small delay (benign on
//! its own; it only fails a cell whose wall-clock budget is already
//! tight).

use cedar_par::sip_parts;

/// One injected fault, decided by [`draw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injection {
    /// Panic with a chaos-tagged message.
    Panic,
    /// Record a structured `SimError` and abort the phase.
    SimFault,
    /// Sleep for the given number of milliseconds, then proceed.
    Delay(u64),
}

/// One in `STICKY_MOD` `(cell, phase)` pairs carries a fault at every
/// rung. Chosen so a sweep the size of the `all` binary (~64 cells,
/// ~3 phases each) quarantines a handful of cells per seed.
const STICKY_MOD: u64 = 24;

/// One in `TRANSIENT_MOD` `(cell, rung, phase)` triples carries a
/// rung-local fault — frequent enough that most seeds also exercise a
/// ladder recovery.
const TRANSIENT_MOD: u64 = 16;

/// Map a firing draw's hash to a fault kind. Divisions decorrelate the
/// kind from the `% MOD == 0` firing decision.
fn kind(h: u64) -> Injection {
    match (h / 97) % 3 {
        0 => Injection::Panic,
        1 => Injection::SimFault,
        _ => Injection::Delay(1 + (h / 7) % 4),
    }
}

/// Decide whether phase `phase` of cell `cell` at rung `rung` suffers
/// an injected fault under `seed`. Deterministic; `None` means the
/// phase proceeds untouched.
pub(crate) fn draw(seed: u64, cell: &str, rung: &str, phase: &str) -> Option<Injection> {
    let seed_s = seed.to_string();
    let sticky = sip_parts(&["sticky", &seed_s, cell, phase]);
    if sticky.is_multiple_of(STICKY_MOD) {
        return Some(kind(sticky));
    }
    let transient = sip_parts(&["transient", &seed_s, cell, rung, phase]);
    if transient.is_multiple_of(TRANSIENT_MOD) {
        return Some(kind(transient));
    }
    None
}

/// Stable tag of an injection kind ("panic" / "sim-fault" / "delay").
fn tag(i: Injection) -> &'static str {
    match i {
        Injection::Panic => "panic",
        Injection::SimFault => "sim-fault",
        Injection::Delay(_) => "delay",
    }
}

/// Probe the full draw for `(seed, cell, rung, phase)` without running
/// anything: the tag of the injection that [`crate::supervise::gate`]
/// would fire, or `None`. Test harnesses (the service chaos tests, the
/// load-test gate) use this to *predict* which requests must recover
/// via retry and which must end up quarantined, so assertions are exact
/// rather than statistical.
pub fn probe(seed: u64, cell: &str, rung: &str, phase: &str) -> Option<&'static str> {
    draw(seed, cell, rung, phase).map(tag)
}

/// Probe only the **sticky** class for `(seed, cell, phase)` — the
/// rung-independent draws the degradation ladder cannot clear. A
/// non-`"delay"` sticky hit on a phase a request actually runs means
/// that request deterministically quarantines.
pub fn probe_sticky(seed: u64, cell: &str, phase: &str) -> Option<&'static str> {
    let seed_s = seed.to_string();
    let sticky = sip_parts(&["sticky", &seed_s, cell, phase]);
    sticky.is_multiple_of(STICKY_MOD).then(|| tag(kind(sticky)))
}

/// Seeded **filesystem** fault lane for [`cedar_store`] durable writes
/// (DESIGN.md §15.4).
///
/// No environment variable or binary switches this lane on: tests
/// drive it by handing [`fs::hook`]`(seed)` to a store
/// (`tests/prop_store.rs`). It is kept out of the `CEDAR_CHAOS` lane
/// because the predicted-behavior chaos tests enumerate exactly which
/// cells fault under a `CEDAR_CHAOS` seed, and adding draws to that
/// keyspace would silently shift their predictions. Like the engine
/// lane, draws here are pure functions — of `(seed, stage, entry
/// name)` — so a faulting run is exactly reproducible and tests can
/// *predict* which store writes fail and how, instead of asserting
/// statistically.
pub mod fs {
    use cedar_par::sip_parts;
    use cedar_store::{FaultHook, FsFault, FsStage};
    use std::sync::Arc;

    /// One in `FS_MOD` `(stage, entry)` pairs suffers an injected
    /// fault. Deliberately hot (a store write makes two draws, so
    /// roughly one write in three is hit somewhere) — the lane only
    /// exists inside fault tests, where coverage beats realism.
    const FS_MOD: u64 = 6;

    /// Map a firing draw's hash to a fault. Divisions decorrelate the
    /// shape from the `% FS_MOD == 0` firing decision, mirroring the
    /// engine lane's `kind`.
    fn shape(h: u64) -> FsFault {
        match (h / 97) % 3 {
            0 => FsFault::ShortWrite((h / 7) as usize % 48),
            1 => FsFault::Eio,
            _ => FsFault::Crash,
        }
    }

    /// Decide whether the syscall at `stage` for entry `name` is
    /// injected under `seed`. Pure; `None` means the syscall proceeds.
    pub fn draw(seed: u64, stage: FsStage, name: &str) -> Option<FsFault> {
        let seed_s = seed.to_string();
        let h = sip_parts(&["fs", &seed_s, stage.tag(), name]);
        h.is_multiple_of(FS_MOD).then(|| shape(h))
    }

    /// Package [`draw`] under a fixed seed as a store fault hook.
    pub fn hook(seed: u64) -> FaultHook {
        Arc::new(move |stage, name| draw(seed, stage, name))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fs_draws_are_deterministic_and_stage_sensitive() {
            for seed in 0..50u64 {
                for stage in FsStage::ALL {
                    assert_eq!(
                        draw(seed, stage, "0000000000000007"),
                        draw(seed, stage, "0000000000000007")
                    );
                }
            }
            // Stages must draw independently: find a seed where one
            // stage faults and another doesn't.
            let split = (0..500u64).any(|s| {
                let hits: Vec<_> =
                    FsStage::ALL.iter().map(|st| draw(s, *st, "entry-a").is_some()).collect();
                hits.iter().any(|h| *h) && hits.iter().any(|h| !*h)
            });
            assert!(split, "stages never drew independently in 500 seeds");
        }

        #[test]
        fn all_fault_shapes_are_reachable_and_some_writes_are_clean() {
            let mut seen = (false, false, false);
            let mut clean = false;
            for seed in 0..2000u64 {
                let hits: Vec<_> =
                    FsStage::ALL.iter().filter_map(|st| draw(seed, *st, "entry-b")).collect();
                if hits.is_empty() {
                    clean = true;
                }
                for f in hits {
                    match f {
                        FsFault::ShortWrite(n) => {
                            assert!(n < 48);
                            seen.0 = true;
                        }
                        FsFault::Eio => seen.1 = true,
                        FsFault::Crash => seen.2 = true,
                    }
                }
            }
            assert_eq!(seen, (true, true, true), "short-write/EIO/crash must all occur");
            assert!(clean, "every seed faulted entry-b — FS_MOD far too hot");
        }

        #[test]
        fn the_hook_matches_the_draw() {
            let h = hook(42);
            for stage in FsStage::ALL {
                assert_eq!(h(stage, "entry-c"), draw(42, stage, "entry-c"));
            }
        }
    }
}

/// Parse a `CEDAR_CHAOS` value: a decimal integer is used verbatim, any
/// other non-empty string is hashed to a seed (so `CEDAR_CHAOS=kaboom`
/// works), and an empty value disables chaos.
pub fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    Some(s.parse().unwrap_or_else(|_| sip_parts(&["seed", s])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic() {
        for seed in 0..50u64 {
            for rung in ["normal", "serial"] {
                assert_eq!(
                    draw(seed, "table1/cg", rung, "simulate"),
                    draw(seed, "table1/cg", rung, "simulate"),
                );
            }
        }
    }

    #[test]
    fn sticky_draws_ignore_the_rung() {
        // Find a sticky firing draw, then confirm it fires identically
        // at every rung (the ladder must not be able to dodge it).
        let mut found = 0;
        for seed in 0..500u64 {
            let rungs = ["normal", "no-fast-paths", "races-on", "serial"];
            let hits: Vec<_> = rungs.iter().map(|r| draw(seed, "cell-x", r, "compile")).collect();
            let seed_s = seed.to_string();
            if sip_parts(&["sticky", &seed_s, "cell-x", "compile"]).is_multiple_of(STICKY_MOD) {
                assert!(hits.iter().all(|h| h == &hits[0]), "seed {seed}: {hits:?}");
                assert!(hits[0].is_some());
                found += 1;
            }
        }
        assert!(found > 0, "no sticky draw in 500 seeds — STICKY_MOD too large");
    }

    #[test]
    fn some_seeds_are_quiet_for_a_given_cell() {
        let quiet = (0..200u64).any(|seed| {
            ["compile", "restructure", "simulate"]
                .iter()
                .all(|p| draw(seed, "cell-y", "normal", p).is_none())
        });
        assert!(quiet, "every seed faulted cell-y — rates far too high");
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("  7 "), Some(7));
        assert_eq!(parse_seed(""), None);
        assert_eq!(parse_seed("   "), None);
        let a = parse_seed("kaboom").unwrap();
        assert_eq!(Some(a), parse_seed("kaboom"), "string seeds must be stable");
        assert_ne!(Some(a), parse_seed("kaboom2"));
    }

    #[test]
    fn all_kinds_are_reachable() {
        let mut seen = [false; 3];
        for seed in 0..2000u64 {
            if let Some(k) = draw(seed, "cell-z", "normal", "simulate") {
                match k {
                    Injection::Panic => seen[0] = true,
                    Injection::SimFault => seen[1] = true,
                    Injection::Delay(ms) => {
                        assert!((1..=4).contains(&ms));
                        seen[2] = true;
                    }
                }
            }
        }
        assert_eq!(seen, [true; 3], "panic/sim-fault/delay must all occur");
    }
}
