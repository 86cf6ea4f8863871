//! Persistent fuzz corpus: seeds that light up **rare transform
//! combinations**, kept on disk across campaigns (DESIGN.md §15.6).
//!
//! A fuzzing campaign's cheapest finding isn't a failure — it's a seed
//! whose program drove the restructurer through a pass combination the
//! corpus has rarely (or never) seen. Those seeds are regression gold:
//! replaying them exercises exactly the interacting-pass paths where
//! restructurer bugs hide. This module keeps them:
//!
//! ```text
//! <dir>/ledger.json      coverage ledger: per-combo seen/kept counts
//! <dir>/seeds/seedN.f    kept seeds, in the self-describing corpus
//!                        format (crate::corpus) — each file replays
//!                        through the full oracle stack on its own
//! ```
//!
//! The **combo** of a seed is the sorted `+`-joined set of passes its
//! restructurer report fired (`"doall+stripmine+vectorize"`; a program
//! nothing parallelized is `"serial"`). A seed is kept while its combo
//! has fewer than [`KEEP_PER_COMBO`] entries on disk;
//! once a combination is well represented, further seeds only bump the
//! `seen` count. Because the ledger persists, a *reloaded* campaign
//! keeps only seeds that are still novel relative to everything every
//! previous run observed.
//!
//! Durability: the ledger is written with [`cedar_store::atomic_write`]
//! (tmp + fsync + rename), and seed files are written the same way, so
//! a campaign killed mid-save leaves either the old or the new ledger —
//! never a torn one. Seed files are authoritative: a ledger lost to a
//! crash rebuilds its `kept` counts from the directory on open.

use crate::corpus::{self, CorpusEntry};
use crate::coverage::Coverage;
use crate::gen::Rendered;
use cedar_experiments::jsonio::{Json, Writer};
use cedar_restructure::Report;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How many seeds to keep per pass combination. Two gives every
/// combination a primary and an independent witness without letting
/// common shapes (plain `doall+vectorize`) flood the corpus.
pub const KEEP_PER_COMBO: u64 = 2;

/// The sorted, `+`-joined set of passes a report fired; `"serial"` when
/// none did. This is the corpus's novelty signature.
pub fn combo(report: &Report) -> String {
    let mut c = Coverage::default();
    c.absorb(report);
    let passes: Vec<&str> = c.entries().filter(|(_, n)| *n > 0).map(|(p, _)| p).collect();
    if passes.is_empty() {
        "serial".to_string()
    } else {
        passes.join("+")
    }
}

/// Per-combo ledger row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComboStats {
    /// Clean seeds ever observed with this combo (all runs).
    pub seen: u64,
    /// Seed files currently kept for this combo.
    pub kept: u64,
}

/// An on-disk corpus + coverage ledger, reloaded across campaigns.
#[derive(Debug)]
pub struct PersistentCorpus {
    dir: PathBuf,
    combos: BTreeMap<String, ComboStats>,
    kept_this_run: u64,
}

impl PersistentCorpus {
    /// Open (or create) a corpus directory and load its ledger. The
    /// `kept` counts are always re-derived from the seed files actually
    /// present, so a stale or missing ledger under-keeps nothing.
    pub fn open(dir: impl Into<PathBuf>) -> Result<PersistentCorpus, String> {
        let dir = dir.into();
        let seeds = dir.join("seeds");
        std::fs::create_dir_all(&seeds).map_err(|e| format!("create {}: {e}", seeds.display()))?;
        let mut combos: BTreeMap<String, ComboStats> = BTreeMap::new();
        let ledger = dir.join("ledger.json");
        if let Ok(text) = std::fs::read_to_string(&ledger) {
            let v = Json::parse(&text).map_err(|e| format!("{}: {e}", ledger.display()))?;
            if let Some(Json::Obj(members)) = v.get("combos") {
                for (name, row) in members {
                    let seen = row.u64_at("seen").unwrap_or(0);
                    combos.insert(name.clone(), ComboStats { seen, kept: 0 });
                }
            }
        }
        // Rebuild `kept` from the files on disk: they are the ground
        // truth (each carries its combo in the file name suffix).
        for entry in corpus::load_dir(&seeds)? {
            let combo = entry
                .name
                .split_once('_')
                .map(|(_, c)| c.replace('_', "+"))
                .unwrap_or_else(|| "serial".into());
            combos.entry(combo).or_default().kept += 1;
        }
        Ok(PersistentCorpus { dir, combos, kept_this_run: 0 })
    }

    /// Record one clean seed. Returns `true` when the seed was novel
    /// enough to keep — its combo had fewer than [`KEEP_PER_COMBO`] seed
    /// files — and the corpus entry was written (atomically).
    pub fn observe(
        &mut self,
        seed: u64,
        config_name: &str,
        rendered: &Rendered,
        report: &Report,
    ) -> Result<bool, String> {
        let combo = combo(report);
        let path = self.seed_path(seed, &combo);
        let row = self.combos.entry(combo).or_default();
        row.seen += 1;
        if row.kept >= KEEP_PER_COMBO {
            return Ok(false);
        }
        if path.exists() {
            return Ok(false); // re-observed across runs; already kept
        }
        let text = corpus::format_entry(seed, config_name, rendered);
        cedar_store::atomic_write(&path, text.as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        row.kept += 1;
        self.kept_this_run += 1;
        Ok(true)
    }

    /// Persist the ledger (atomic replace; readers see old or new).
    pub fn save(&self) -> Result<(), String> {
        let mut w = Writer::document();
        w.key("schema").str("cedar-fuzz-corpus-v1");
        w.key("combos").row_obj();
        for (combo, s) in &self.combos {
            w.key(combo).obj().key("seen").int(s.seen).key("kept").int(s.kept).end();
        }
        w.end();
        let path = self.dir.join("ledger.json");
        cedar_store::atomic_write(&path, w.finish().as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Load every kept seed as a replayable corpus entry, name order.
    pub fn entries(&self) -> Result<Vec<CorpusEntry>, String> {
        corpus::load_dir(&self.dir.join("seeds"))
    }

    /// Ledger row for a combo (zeroes when never seen).
    pub fn stats(&self, combo: &str) -> ComboStats {
        self.combos.get(combo).copied().unwrap_or_default()
    }

    /// Every `(combo, stats)` row, sorted by combo name.
    pub fn rows(&self) -> impl Iterator<Item = (&str, ComboStats)> + '_ {
        self.combos.iter().map(|(c, s)| (c.as_str(), *s))
    }

    /// Seeds written by this process (not reloaded ones).
    pub fn kept_this_run(&self) -> u64 {
        self.kept_this_run
    }

    /// The corpus root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn seed_path(&self, seed: u64, combo: &str) -> PathBuf {
        // The combo rides in the file name (sanitized `+` → `_`) so a
        // lost ledger can rebuild `kept` counts without re-judging.
        self.dir.join("seeds").join(format!("seed{seed:06}_{}.f", combo.replace('+', "_")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenProgram;
    use crate::oracle::{run_oracles, OracleConfig};

    fn fresh(tag: &str) -> PathBuf {
        let dir = PathBuf::from(format!("target/test-fuzz-persist/{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Judge a handful of seeds, feeding clean ones to the corpus.
    fn observe_range(pc: &mut PersistentCorpus, seeds: std::ops::Range<u64>) -> u64 {
        let cfg = OracleConfig::default();
        let mut clean = 0;
        for seed in seeds {
            let r = GenProgram::generate(seed).render();
            if let Ok(stats) = run_oracles(&r, &cfg) {
                clean += 1;
                pc.observe(seed, "manual", &r, &stats.report).unwrap();
            }
        }
        clean
    }

    #[test]
    fn combos_are_sorted_sets_and_serial_is_named() {
        use cedar_ir::{LoopClass, Span};
        use cedar_restructure::{LoopDecision, Technique};
        let mut r = Report::default();
        r.record(
            "u",
            Span::new(1),
            LoopDecision::Doall { classes: vec![LoopClass::XDoall], vectorized: true },
            vec![Technique::Stripmining],
        );
        assert_eq!(combo(&r), "doall+stripmine+vectorize");
        assert_eq!(combo(&Report::default()), "serial");
    }

    #[test]
    fn rare_combos_are_kept_and_reloads_stay_quiet() {
        let dir = fresh("reload");
        let mut pc = PersistentCorpus::open(&dir).unwrap();
        let clean = observe_range(&mut pc, 0..12);
        assert!(clean > 0, "no clean seeds in 0..12");
        let first_kept = pc.kept_this_run();
        assert!(first_kept > 0, "nothing was novel on an empty corpus");
        pc.save().unwrap();

        // Every kept file is a valid, replayable corpus entry.
        let entries = pc.entries().unwrap();
        assert_eq!(entries.len() as u64, first_kept);
        for e in &entries {
            cedar_ir::compile_free(&e.rendered.source).unwrap();
            assert!(!e.rendered.watch.is_empty());
        }

        // A second campaign over the same range: nothing is novel any
        // more, but the ledger keeps counting observations.
        let mut pc2 = PersistentCorpus::open(&dir).unwrap();
        observe_range(&mut pc2, 0..12);
        assert_eq!(pc2.kept_this_run(), 0, "re-observed seeds must not be re-kept");
        for (c, s) in pc2.rows() {
            assert!(s.seen >= s.kept, "{c}: {s:?}");
        }
        pc2.save().unwrap();
        let pc3 = PersistentCorpus::open(&dir).unwrap();
        let total_seen: u64 = pc3.rows().map(|(_, s)| s.seen).sum();
        assert_eq!(total_seen, 2 * clean, "ledger accumulates across runs");
    }

    #[test]
    fn a_full_combo_counts_seeds_without_keeping_them() {
        let dir = fresh("retention");
        let mut pc = PersistentCorpus::open(&dir).unwrap();
        let clean = observe_range(&mut pc, 0..16);
        let rows: Vec<(String, ComboStats)> = pc.rows().map(|(c, s)| (c.to_string(), s)).collect();
        assert!(
            rows.iter().any(|(_, s)| s.seen > KEEP_PER_COMBO),
            "no combo in 0..16 outgrew the cap: {rows:?}"
        );
        for (c, s) in &rows {
            assert_eq!(s.kept, s.seen.min(KEEP_PER_COMBO), "{c}: {s:?}");
        }
        assert_eq!(rows.iter().map(|(_, s)| s.seen).sum::<u64>(), clean);
        let kept: u64 = rows.iter().map(|(_, s)| s.kept).sum();
        assert_eq!(pc.kept_this_run(), kept);
        assert_eq!(pc.entries().unwrap().len() as u64, kept, "one file per kept seed");
    }

    #[test]
    fn kept_counts_survive_a_lost_ledger() {
        let dir = fresh("lost-ledger");
        let mut pc = PersistentCorpus::open(&dir).unwrap();
        observe_range(&mut pc, 0..8);
        let kept = pc.kept_this_run();
        assert!(kept > 0);
        pc.save().unwrap();
        std::fs::remove_file(dir.join("ledger.json")).unwrap();
        // The seed files alone rebuild the kept side of the ledger, so
        // the retention cap still binds.
        let mut pc2 = PersistentCorpus::open(&dir).unwrap();
        let rebuilt: u64 = pc2.rows().map(|(_, s)| s.kept).sum();
        assert_eq!(rebuilt, kept);
        observe_range(&mut pc2, 0..8);
        assert_eq!(pc2.kept_this_run(), 0);
    }
}
