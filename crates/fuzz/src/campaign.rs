//! Seeded fuzzing campaigns: fan a seed range across workers, judge
//! every program with [`crate::oracle`], shrink failures, write crash
//! bundles through the supervised engine, and gate on the
//! transform-coverage ledger.
//!
//! A campaign is deterministic in its *findings*: which seeds fail,
//! what they shrink to, and what the coverage ledger reads depend only
//! on the seed range and oracle configuration, never on worker count or
//! scheduling. [`CampaignSummary::check_jobs`] enforces a slice of that
//! promise on the final summary by re-judging its lead seeds
//! single-threaded and comparing result digests.
//!
//! One type carries the result everywhere: [`run_campaign`] returns a
//! [`CampaignSummary`], a worker uploads one as `cedar-fuzz-shard-v1`
//! ([`crate::shard`]), and [`crate::merge_shards`] folds a set of them
//! into another. [`CampaignSummary::to_json`] is the one writer of the
//! `cedar-fuzz-v1` document.

use crate::coverage::Coverage;
use crate::gen::GenProgram;
use crate::latency::Latency;
use crate::oracle::{run_oracles, OracleConfig, OracleFailure, OracleStats};
use crate::persist::PersistentCorpus;
use crate::shrink::shrink;
use cedar_experiments::supervise::{bundle_digest, run_cells, Cell, Supervisor};
use cedar_experiments::Writer;
use std::time::{Duration, Instant};

/// Oracle-evaluation budget per shrink run.
const MAX_SHRINK_CHECKS: usize = 128;

/// Clean-seed digests a summary carries, in seed order, for the
/// jobs-invariance check: a run and a merge keep the same first
/// `LEAD_DIGESTS`, so a check at most this deep re-judges the same seeds
/// on both paths, and a deeper one is refused ([`check_jobs_depth`]).
pub const LEAD_DIGESTS: usize = 8;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Wall-clock budget; seeds not started when it lapses are counted
    /// as skipped, never silently dropped. `None` = run them all.
    pub budget: Option<Duration>,
    /// Pipeline/oracle configuration shared by every seed; kept corpus
    /// entries are stamped with the name of its level.
    pub oracle: OracleConfig,
    /// Minimize failures before reporting/bundling.
    pub shrink: bool,
    /// Write crash bundles for failures via the supervised engine.
    pub bundles: bool,
    /// Persistent corpus directory ([`crate::persist`]): clean seeds
    /// with rare transform combinations are kept there across runs,
    /// and the coverage ledger accumulates. `None` (default) disables.
    pub corpus_dir: Option<std::path::PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed_start: 0,
            seed_end: 100,
            budget: None,
            oracle: OracleConfig::default(),
            shrink: true,
            bundles: true,
            corpus_dir: None,
        }
    }
}

/// One failing seed, minimized: what the shrink and bundle phases of
/// [`run_campaign`] work on before it becomes a [`FailureLine`].
#[derive(Debug)]
pub(crate) struct SeedFailure {
    /// The generator seed.
    seed: u64,
    /// Minimized reproducer (equals the original program when shrinking
    /// is off or found nothing smaller).
    minimized: GenProgram,
    /// Failure the minimized program exhibits.
    failure: OracleFailure,
    /// Rendered source of the minimized reproducer.
    source: String,
    /// Crash-bundle directory, when one was written.
    bundle: Option<String>,
}

impl SeedFailure {
    fn line(&self) -> FailureLine {
        FailureLine {
            seed: self.seed,
            phase: self.failure.phase.tag().to_string(),
            detail: self.failure.detail.clone(),
            diff: self.failure.diff.as_ref().map(|d| d.to_string()).unwrap_or_default(),
            tags: self.minimized.tags().iter().map(|t| t.to_string()).collect(),
            bundle: self.bundle.clone(),
        }
    }
}

/// One failure as the `cedar-fuzz-v1` report prints it: plain strings
/// only, no live [`GenProgram`]. Campaign shards carry these across
/// process boundaries, so a coordinator that never saw the failing
/// program can still render the merged report byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureLine {
    /// The generator seed.
    pub seed: u64,
    /// Failing phase tag (e.g. `differential`).
    pub phase: String,
    /// Human-readable failure detail.
    pub detail: String,
    /// Rendered cell diff, or empty when the failure had none.
    pub diff: String,
    /// Generator shape tags of the minimized reproducer.
    pub tags: Vec<String>,
    /// Crash-bundle directory, when one was written.
    pub bundle: Option<String>,
}

/// Write the `failures` member shared by `cedar-fuzz-v1` and
/// `cedar-fuzz-shard-v1`: one row per failing seed.
pub(crate) fn write_failures(w: &mut Writer, failures: &[FailureLine]) {
    w.key("failures").rows();
    for f in failures {
        w.obj().key("seed").int(f.seed).key("phase").str(&f.phase);
        w.key("detail").str(&f.detail).key("cell").str(&f.diff);
        w.key("tags").strs(&f.tags);
        w.key("bundle").opt(f.bundle.as_deref(), Writer::str).end();
    }
    w.end();
}

/// Refuse a jobs-invariance check deeper than the [`LEAD_DIGESTS`] a
/// summary carries: the one rule for `fuzz --jobs-check` and the
/// coordinator's `jobs_check`.
pub fn check_jobs_depth(k: usize) -> Result<(), String> {
    if k > LEAD_DIGESTS {
        return Err(format!(
            "jobs_check {k} exceeds the {LEAD_DIGESTS} lead digests a summary carries"
        ));
    }
    Ok(())
}

/// Everything a campaign over a contiguous seed range observed, as
/// plain data: one process's run, a worker's shard and a coordinator's
/// merge of shards are all this type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignSummary {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Seeds actually judged.
    pub executed: u64,
    /// Seeds skipped because the wall-clock budget lapsed; a shard
    /// with any is incomplete, and a coordinator reassigns it.
    pub skipped_for_budget: u64,
    /// Failing seeds as report lines, ascending.
    pub failures: Vec<FailureLine>,
    /// Transform-coverage ledger over all clean seeds.
    pub coverage: Coverage,
    /// Total sync-audit findings with no confirming dynamic race.
    pub known_gaps: u64,
    /// The first ≤ 3 distinct gap findings, in seed order.
    pub gap_examples: Vec<String>,
    /// Serial/parallel cycle ratio of every clean seed, in seed order;
    /// shards carry them as bit patterns so a merge refolds the exact
    /// mean ([`CampaignSummary::speedup`]).
    pub speedup_samples: Vec<f64>,
    /// `(seed, result digest)` of the first ≤ [`LEAD_DIGESTS`] clean
    /// seeds, in seed order.
    pub lead_digests: Vec<(u64, u64)>,
    /// Deduplicated crash-bundle digests of the failures (minimized
    /// source FNV, the key the supervised engine files bundles under),
    /// sorted.
    pub bundle_digests: Vec<String>,
    /// Seeds re-judged single-threaded by [`CampaignSummary::check_jobs`].
    pub jobs_checked: u64,
    /// Digest mismatch detail, if the invariance check failed — also
    /// when a worker uploaded a corrupted digest, since the check
    /// re-judges from the seed alone.
    pub jobs_mismatch: Option<String>,
}

impl CampaignSummary {
    /// Did the campaign find anything (oracle failures, unreachable
    /// passes on a complete run, or a jobs-invariance break)? A
    /// budget-truncated campaign may legitimately miss some passes.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
            || self.jobs_mismatch.is_some()
            || (self.skipped_for_budget == 0 && !self.coverage.unreachable().is_empty())
    }

    /// `(min, mean, max)` over the speedup samples. The mean is the
    /// ordered left fold `sum / len` over samples in seed order, so a
    /// merge reproduces a single run's mean to the bit.
    pub fn speedup(&self) -> Option<(f64, f64, f64)> {
        let samples = &self.speedup_samples;
        if samples.is_empty() {
            return None;
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Some((lo, mean, hi))
    }

    /// The CEDAR_JOBS invariance check: re-judge the first `k` lead
    /// digests under `with_jobs(1)` and compare result digests bit for
    /// bit, recording how many were checked and the first mismatch.
    /// Run once, on the final summary: the `fuzz` binary's run or the
    /// coordinator's merge, each of which refuses `k` past
    /// [`check_jobs_depth`] before its campaign starts.
    pub fn check_jobs(&mut self, k: usize, oracle: &OracleConfig) {
        (self.jobs_checked, self.jobs_mismatch) = (0, None);
        for i in 0..k.min(self.lead_digests.len()) {
            let (seed, want) = self.lead_digests[i];
            self.jobs_checked += 1;
            self.jobs_mismatch = match cedar_par::with_jobs(1, || judge(seed, oracle)) {
                Ok(stats) if stats.digest == want => continue,
                Ok(stats) => Some(format!(
                    "seed {seed}: digest {want:#018x} with ambient jobs vs {:#018x} single-threaded",
                    stats.digest
                )),
                Err((_, f)) => Some(format!(
                    "seed {seed}: clean with ambient jobs but failed single-threaded: {f}"
                )),
            };
            break;
        }
    }

    /// The `cedar-fuzz-v1` document. Byte-deterministic: two runs over
    /// the same seed range, and any merge of shards tiling it, write
    /// identical text.
    pub fn to_json(&self) -> String {
        let mut w = Writer::document();
        w.key("schema").str("cedar-fuzz-v1");
        w.key("seed_start").int(self.seed_start).and_key("seed_end").int(self.seed_end);
        w.key("executed").int(self.executed);
        w.and_key("skipped_for_budget").int(self.skipped_for_budget);
        w.and_key("clean").int(self.executed - self.failures.len() as u64);
        write_failures(&mut w, &self.failures);
        w.key("coverage").raw(self.coverage.to_json());
        w.key("unreachable").strs(self.coverage.unreachable());
        w.key("known_gaps").int(self.known_gaps).and_key("gap_examples").strs(&self.gap_examples);
        w.key("speedup").opt(self.speedup(), |w, (lo, mean, hi)| {
            w.obj();
            for (key, x) in [("min", lo), ("mean", mean), ("max", hi)] {
                w.key(key).float(x, format_args!("{x:.3}"));
            }
            w.end()
        });
        w.key("jobs_invariance").obj().key("checked").int(self.jobs_checked);
        w.key("ok").bool(self.jobs_mismatch.is_none());
        w.key("detail").opt(self.jobs_mismatch.as_deref(), Writer::str).end();
        w.finish()
    }
}

/// Judge one seed. Returns the stats of a clean run or the failing
/// program.
fn judge(seed: u64, cfg: &OracleConfig) -> Result<OracleStats, (GenProgram, OracleFailure)> {
    let gp = GenProgram::generate(seed);
    run_oracles(&gp.render(), cfg).map_err(|f| (gp, f))
}

/// Run a campaign over `[seed_start, seed_end)`. The per-seed judge
/// times go to stderr (p50, p99, the five slowest), never into the
/// summary.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    run_with_failures(cfg).0
}

/// [`run_campaign`], also returning the minimized failures its lines
/// were made from.
pub(crate) fn run_with_failures(cfg: &CampaignConfig) -> (CampaignSummary, Vec<SeedFailure>) {
    const CHUNK: u64 = 32;
    let started = Instant::now();
    let mut s = CampaignSummary {
        seed_start: cfg.seed_start,
        seed_end: cfg.seed_end,
        ..CampaignSummary::default()
    };
    let mut raw_failures: Vec<(u64, GenProgram, OracleFailure)> = Vec::new();
    let mut next = cfg.seed_start;
    let mut latency = Latency::new();
    let config_name = cfg.oracle.pass.level.name();
    // Persistent corpus: best-effort — a corpus that cannot be opened
    // degrades the campaign to non-persistent, it never fails it.
    let mut corpus = cfg.corpus_dir.as_ref().and_then(|dir| {
        PersistentCorpus::open(dir).map_err(|e| eprintln!("fuzz: corpus disabled: {e}")).ok()
    });

    // ---- phase 1: parallel sweep, chunked so the wall-clock budget is
    // checked between chunks (each seed is cheap; a chunk is the
    // granularity of over-run) ----
    while next < cfg.seed_end {
        if let Some(budget) = cfg.budget {
            if started.elapsed() >= budget {
                break;
            }
        }
        let hi = (next + CHUNK).min(cfg.seed_end);
        let seeds: Vec<u64> = (next..hi).collect();
        next = hi;
        s.executed += seeds.len() as u64;
        let results = cedar_par::par_map(seeds, |seed| {
            let t = Instant::now();
            let r = judge(seed, &cfg.oracle);
            (seed, t.elapsed(), r)
        });
        for (seed, took, r) in results {
            latency.record_duration(seed.to_string(), took);
            match r {
                Ok(stats) => {
                    s.coverage.absorb(&stats.report);
                    if let Some(pc) = corpus.as_mut() {
                        let rendered = GenProgram::generate(seed).render();
                        if let Err(e) = pc.observe(seed, config_name, &rendered, &stats.report) {
                            eprintln!("fuzz: corpus observe failed: {e}");
                        }
                    }
                    s.known_gaps += stats.known_gaps.len() as u64;
                    for g in stats.known_gaps {
                        if s.gap_examples.len() < 3 && !s.gap_examples.contains(&g) {
                            s.gap_examples.push(g);
                        }
                    }
                    if stats.parallel_cycles > 0.0 {
                        s.speedup_samples.push(stats.serial_cycles / stats.parallel_cycles);
                    }
                    if s.lead_digests.len() < LEAD_DIGESTS {
                        s.lead_digests.push((seed, stats.digest));
                    }
                }
                Err((gp, f)) => raw_failures.push((seed, gp, f)),
            }
        }
    }
    s.skipped_for_budget = cfg.seed_end - next;
    if !latency.is_empty() {
        eprintln!(
            "fuzz: per-seed latency p50 {:.1}ms p99 {:.1}ms max {:.1}ms; slowest: {}",
            latency.percentile(50.0),
            latency.percentile(99.0),
            latency.max(),
            latency
                .slowest(5)
                .iter()
                .map(|(l, m)| format!("seed {l} ({m:.1}ms)"))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    if let Some(pc) = &corpus {
        match pc.save() {
            Ok(()) => {
                if pc.kept_this_run() > 0 {
                    eprintln!(
                        "fuzz: corpus kept {} novel seed(s) under {}",
                        pc.kept_this_run(),
                        pc.dir().display(),
                    );
                }
            }
            Err(e) => eprintln!("fuzz: corpus ledger save failed: {e}"),
        }
    }

    // ---- phase 2: shrink failures (serial: failures are rare and each
    // shrink is itself a pipeline-heavy loop) ----
    let mut failures: Vec<SeedFailure> = raw_failures
        .into_iter()
        .map(|(seed, gp, original)| {
            let (minimized, failure) = if cfg.shrink {
                let out = shrink(&gp, &original, &cfg.oracle, MAX_SHRINK_CHECKS);
                (out.program, out.failure)
            } else {
                (gp, original)
            };
            let source = minimized.render().source;
            SeedFailure { seed, minimized, failure, source, bundle: None }
        })
        .collect();
    failures.sort_by_key(|f| f.seed);
    s.bundle_digests = failures
        .iter()
        .map(|f| bundle_digest(&format!("fuzz/seed{}", f.seed), Some(&f.source)))
        .map(|d| format!("{d:016x}"))
        .collect();
    s.bundle_digests.sort();
    s.bundle_digests.dedup();

    // ---- phase 3: crash bundles via the supervised engine. The cell
    // deliberately re-raises the oracle verdict as a panic; it fails at
    // every ladder rung, so the engine quarantines it and writes the
    // bundle (minimized source + attempt chain + backtrace). ----
    if cfg.bundles && !failures.is_empty() {
        let sup = Supervisor::from_env();
        let cells: Vec<Cell<String>> = failures
            .iter()
            .map(|f| {
                Cell::with_source(
                    format!("fuzz/seed{}", f.seed),
                    f.source.clone(),
                    f.failure.to_string(),
                )
            })
            .collect();
        let sweep = run_cells(&sup, cells, |verdict: &String| -> () {
            panic!("fuzz oracle failure: {verdict}");
        });
        for q in &sweep.quarantined {
            if let Some(f) = failures.iter_mut().find(|f| q.cell == format!("fuzz/seed{}", f.seed))
            {
                f.bundle = q.bundle.clone();
            }
        }
    }
    s.failures = failures.iter().map(SeedFailure::line).collect();
    (s, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig { seed_start: 0, seed_end: 12, bundles: false, ..Default::default() }
    }

    #[test]
    fn small_campaign_is_deterministic() {
        let a = run_campaign(&small());
        let b = run_campaign(&small());
        assert_eq!(a, b);
        assert_eq!(a.executed, 12);
        assert_eq!(a.skipped_for_budget, 0);
    }

    #[test]
    fn summary_json_is_well_formed_enough() {
        let s = run_campaign(&small()).to_json();
        assert!(s.contains("\"schema\": \"cedar-fuzz-v1\""));
        assert!(s.contains("\"coverage\": {\"doall\": "));
        assert!(!s.contains("latency"), "the document is timing-free");
        assert_eq!(s.matches('{').count(), s.matches('}').count(), "{s}");
    }

    #[test]
    fn failures_are_shrunk_and_reported() {
        // rel_tol 0 demands bit-exactness from reassociating reductions
        // too, so some seeds must fail — exercising the failure path
        // (collection, shrinking, summary, exit classification) without
        // needing a real restructurer bug.
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 24,
            oracle: crate::oracle::OracleConfig { rel_tol: 0.0, ..Default::default() },
            bundles: false,
            ..Default::default()
        };
        let (s, failures) = run_with_failures(&cfg);
        assert!(!failures.is_empty(), "rel_tol 0 found nothing in 24 seeds");
        assert!(s.failed());
        assert_eq!(s.failures, failures.iter().map(SeedFailure::line).collect::<Vec<_>>());
        for f in &failures {
            assert_eq!(f.failure.phase.tag(), "differential");
            assert!(f.failure.diff.is_some(), "divergence without a cell: {}", f.failure);
            assert!(
                f.minimized.shapes.len() <= GenProgram::generate(f.seed).shapes.len(),
                "shrinker grew seed {}",
                f.seed
            );
            assert!(f.source.contains("program fz"));
        }
        assert!(!s.bundle_digests.is_empty());
        let json = s.to_json();
        assert!(json.contains("\"phase\": \"differential\""));
    }

    #[test]
    fn budget_truncation_reports_skipped_seeds() {
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 10_000,
            budget: Some(Duration::from_millis(1)),
            bundles: false,
            ..Default::default()
        };
        let s = run_campaign(&cfg);
        assert!(s.skipped_for_budget > 0);
        assert_eq!(s.executed + s.skipped_for_budget, 10_000);
        // Truncated campaigns never fail on coverage alone.
        if s.failures.is_empty() && s.jobs_mismatch.is_none() {
            assert!(!s.failed());
        }
    }

    #[test]
    fn a_run_keeps_the_lead_digests_the_jobs_check_rejudges() {
        let mut s = run_campaign(&small());
        assert_eq!(s.lead_digests.len(), LEAD_DIGESTS, "12 default seeds are clean");
        s.check_jobs(2, &OracleConfig::default());
        assert_eq!((s.jobs_checked, s.jobs_mismatch), (2, None));
    }
}
