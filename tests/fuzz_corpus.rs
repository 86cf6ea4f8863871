//! Tier-1 regression-corpus replay: every checked-in `tests/corpus/*.f`
//! entry runs through the full oracle stack (differential, metamorphic,
//! race/audit agreement) on every test run, once with the bytecode VM
//! as the primary engine and once with the tree-walker, so a
//! regression in either engine trips a historical find.
//!
//! Entries are self-describing — a `! cedar-fuzz seed=... config=...`
//! header plus `! watch <var> exact|approx` lines — so the checked-in
//! text, not the generator, is authoritative: a generator change cannot
//! silently rewrite what a historical find tested.

use cedar_fuzz::{corpus, coverage::Coverage, run_oracles};
use cedar_sim::Engine;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/fuzz; the corpus lives at the repo
    // root so humans find it next to the other integration tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn every_corpus_entry_passes_all_oracles() {
    let entries = corpus::load_dir(&corpus_dir()).unwrap();
    assert!(entries.len() >= 8, "corpus shrank to {} entries", entries.len());
    let mut cov = Coverage::default();
    for e in &entries {
        for engine in [Engine::Vm, Engine::Interp] {
            let mut cfg = e.oracle_config();
            cfg.mc = cfg.mc.with_engine(engine);
            let stats = run_oracles(&e.rendered, &cfg).unwrap_or_else(|f| {
                panic!("corpus entry {} (seed {}) failed on {engine:?}: {f}", e.name, e.seed)
            });
            cov.absorb(&stats.report);
        }
    }
    // The corpus is curated to jointly exercise every required pass, so
    // replay doubles as a coverage regression test for the pinned seeds.
    assert!(
        cov.unreachable().is_empty(),
        "corpus no longer covers: {:?}\ncoverage: {}",
        cov.unreachable(),
        cov.to_json()
    );
}

#[test]
fn corpus_entries_match_their_recorded_seeds() {
    // Provenance check: the seed in each header still generates the
    // same watch list it was pinned with (the source text may lag the
    // generator; the watch contract may not silently drift).
    for e in corpus::load_dir(&corpus_dir()).unwrap() {
        let fresh = cedar_fuzz::GenProgram::generate(e.seed).render();
        let mut want: Vec<_> = fresh.watch.iter().map(|w| (&w.name, w.exact)).collect();
        let mut got: Vec<_> = e.rendered.watch.iter().map(|w| (&w.name, w.exact)).collect();
        want.sort();
        got.sort();
        assert_eq!(got, want, "watch list of {} drifted from seed {}", e.name, e.seed);
    }
}
