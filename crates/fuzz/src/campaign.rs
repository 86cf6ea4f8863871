//! Seeded fuzzing campaigns: fan a seed range across workers, judge
//! every program with [`crate::oracle`], shrink failures, write crash
//! bundles through the supervised engine, and gate on the
//! transform-coverage ledger.
//!
//! A campaign is deterministic in its *findings*: which seeds fail,
//! what they shrink to, and what the coverage ledger reads depend only
//! on the seed range and oracle configuration, never on worker count or
//! scheduling. The CEDAR_JOBS invariance check enforces a slice of that
//! promise on every run by re-judging a sample of seeds single-threaded
//! and comparing result digests.

use crate::coverage::Coverage;
use crate::gen::GenProgram;
use crate::latency::Latency;
use crate::oracle::{run_oracles, OracleConfig, OracleFailure, OracleStats};
use crate::persist::PersistentCorpus;
use crate::shrink::shrink;
use cedar_experiments::supervise::{run_cells, Cell, Supervisor};
use cedar_experiments::Writer;
use std::time::{Duration, Instant};

/// Oracle-evaluation budget per shrink run.
const MAX_SHRINK_CHECKS: usize = 128;

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
    /// Pipeline/oracle configuration shared by every seed.
    pub oracle: OracleConfig,
    /// Minimize failures before reporting/bundling.
    pub shrink: bool,
    /// Write crash bundles for failures via the supervised engine.
    pub bundles: bool,
    /// How many seeds to re-judge under `with_jobs(1)` for the
    /// CEDAR_JOBS invariance check (0 disables).
    pub jobs_check: usize,
    /// Persistent corpus directory ([`crate::persist`]): clean seeds
    /// with rare transform combinations are kept there across runs,
    /// and the coverage ledger accumulates. `None` (default) disables.
    pub corpus_dir: Option<std::path::PathBuf>,
    /// Config name stamped into kept corpus entries (`manual`/`auto`);
    /// must match [`CampaignConfig::oracle`] so replays use the same
    /// pipeline.
    pub corpus_config: String,
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
            jobs_check: 4,
            corpus_dir: None,
            corpus_config: "manual".into(),
        }
    }
}

/// One failing seed, minimized.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The generator seed.
    pub seed: u64,
    /// Failure of the original (unshrunk) program.
    pub original: OracleFailure,
    /// Minimized reproducer (equals the original program when shrinking
    /// is off or found nothing smaller).
    pub minimized: GenProgram,
    /// Failure the minimized program exhibits.
    pub failure: OracleFailure,
    /// Rendered source of the minimized reproducer.
    pub source: String,
    /// Crash-bundle directory, when one was written.
    pub bundle: Option<String>,
}

impl SeedFailure {
    /// The serialization-friendly view of this failure — exactly what
    /// the JSON report prints for it.
    pub fn line(&self) -> FailureLine {
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

/// The content every `cedar-fuzz-v1` report prints, independent of
/// where it came from: a live [`CampaignSummary`] borrows itself into
/// this view; a merged set of shards reconstructs one. Both go through
/// the same writer ([`render_report`]), which is what makes
/// "distributed run merges to the byte-identical report" a structural
/// guarantee instead of a convention.
pub struct ReportView<'a> {
    /// Echo of the requested range.
    pub seed_start: u64,
    /// Echo of the requested range.
    pub seed_end: u64,
    /// Seeds actually judged.
    pub executed: u64,
    /// Seeds skipped because the wall-clock budget lapsed.
    pub skipped_for_budget: u64,
    /// Failing seeds, ascending.
    pub failures: &'a [FailureLine],
    /// Transform-coverage ledger over all clean seeds.
    pub coverage: &'a Coverage,
    /// Total sync-audit findings with no confirming dynamic race.
    pub known_gaps: u64,
    /// Up to three example gap findings.
    pub gap_examples: &'a [String],
    /// `(min, mean, max)` speedup triple.
    pub speedup: Option<(f64, f64, f64)>,
    /// Seeds re-judged for the jobs-invariance check.
    pub jobs_checked: u64,
    /// Digest mismatch detail, if the invariance check failed.
    pub jobs_mismatch: Option<&'a str>,
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

/// Write the `cedar-fuzz-v1` document for a report view. `latency`
/// appends the wall-clock section; `None` keeps the byte-deterministic
/// form.
pub fn render_report(v: &ReportView<'_>, latency: Option<&Latency>) -> String {
    let mut w = Writer::document();
    w.key("schema").str("cedar-fuzz-v1");
    w.key("seed_start").int(v.seed_start).and_key("seed_end").int(v.seed_end);
    w.key("executed").int(v.executed).and_key("skipped_for_budget").int(v.skipped_for_budget);
    w.and_key("clean").int(v.executed - v.failures.len() as u64);
    write_failures(&mut w, v.failures);
    w.key("coverage").raw(v.coverage.to_json());
    w.key("unreachable").strs(v.coverage.unreachable());
    w.key("known_gaps").int(v.known_gaps).and_key("gap_examples").strs(v.gap_examples);
    w.key("speedup").opt(v.speedup, |w, (lo, mean, hi)| {
        w.obj();
        for (key, x) in [("min", lo), ("mean", mean), ("max", hi)] {
            w.key(key).float(x, format_args!("{x:.3}"));
        }
        w.end()
    });
    w.key("jobs_invariance").obj().key("checked").int(v.jobs_checked);
    w.key("ok").bool(v.jobs_mismatch.is_none());
    w.key("detail").opt(v.jobs_mismatch, Writer::str).end();
    if let Some(latency) = latency {
        w.key("latency_ms").raw(latency.summary_json());
        w.key("slowest_seeds").raw(latency.slowest_json(5));
    }
    w.finish()
}

/// `(min, mean, max)` over per-seed speedup samples. The mean is the
/// ordered left fold `sum / len`; because every caller (live campaign,
/// shard merge) folds the samples in seed order through this one
/// function, a distributed run reproduces the single-process mean to
/// the bit.
pub fn speedup_triple(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Some((lo, mean, hi))
}

/// Re-judge the first `k` of `digests` under `with_jobs(1)` and compare
/// result digests bit-for-bit. Returns `(seeds checked, mismatch)`.
/// Shared by [`run_campaign`] and the shard merge so a coordinator
/// checking merged lead digests produces the exact messages (and
/// verdict) a single-process run over the same range would.
pub fn jobs_invariance(
    digests: &[(u64, u64)],
    k: usize,
    oracle: &OracleConfig,
) -> (u64, Option<String>) {
    let mut checked = 0u64;
    for &(seed, want) in digests.iter().take(k) {
        checked += 1;
        let got = cedar_par::with_jobs(1, || judge(seed, oracle));
        match got {
            Ok(stats) if stats.digest == want => {}
            Ok(stats) => {
                return (
                    checked,
                    Some(format!(
                        "seed {seed}: digest {want:#018x} with ambient jobs vs {:#018x} single-threaded",
                        stats.digest
                    )),
                );
            }
            Err((_, f)) => {
                return (
                    checked,
                    Some(format!(
                        "seed {seed}: clean with ambient jobs but failed single-threaded: {f}"
                    )),
                );
            }
        }
    }
    (checked, None)
}

/// Everything a campaign observed; renders to the `cedar-fuzz-v1` JSON
/// summary.
#[derive(Debug)]
pub struct CampaignSummary {
    /// Echo of the requested range.
    pub seed_start: u64,
    /// Echo of the requested range.
    pub seed_end: u64,
    /// Seeds actually judged.
    pub executed: u64,
    /// Seeds skipped because the wall-clock budget lapsed.
    pub skipped_for_budget: u64,
    /// Failing seeds, ascending.
    pub failures: Vec<SeedFailure>,
    /// Transform-coverage ledger over all clean seeds.
    pub coverage: Coverage,
    /// Total sync-audit findings with no confirming dynamic race.
    pub known_gaps: u64,
    /// Up to three example gap findings (deduplicated text).
    pub gap_examples: Vec<String>,
    /// `(min, mean, max)` serial/parallel cycle ratio over clean seeds
    /// (always [`speedup_triple`] of [`speedup_samples`]).
    ///
    /// [`speedup_samples`]: CampaignSummary::speedup_samples
    pub speedup: Option<(f64, f64, f64)>,
    /// Per-seed speedup samples in seed order — what campaign shards
    /// carry so a merge can refold the exact mean.
    pub speedup_samples: Vec<f64>,
    /// `(seed, result digest)` for every clean seed, in seed order.
    /// Shards carry a prefix of these so the coordinator can run the
    /// jobs-invariance check over the same seeds a single-process run
    /// would have picked.
    pub digests: Vec<(u64, u64)>,
    /// Seeds re-judged single-threaded for the jobs-invariance check.
    pub jobs_checked: u64,
    /// Digest mismatch detail, if the invariance check failed.
    pub jobs_mismatch: Option<String>,
    /// Per-seed judge wall-clock samples (label = decimal seed). Only
    /// [`CampaignSummary::to_json_full`] reports these — [`to_json`]
    /// stays byte-deterministic across runs.
    ///
    /// [`to_json`]: CampaignSummary::to_json
    pub latency: Latency,
}

impl CampaignSummary {
    /// Required passes that never fired (only meaningful when the whole
    /// range ran; a budget-truncated campaign may legitimately miss
    /// some).
    pub fn unreachable(&self) -> Vec<&'static str> {
        self.coverage.unreachable()
    }

    /// Did the campaign find anything (oracle failures, unreachable
    /// passes on a complete run, or a jobs-invariance break)?
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
            || self.jobs_mismatch.is_some()
            || (self.skipped_for_budget == 0 && !self.unreachable().is_empty())
    }

    /// The `cedar-fuzz-v1` JSON document. Byte-deterministic: two runs
    /// over the same seed range produce identical text (no wall-clock
    /// fields) — the determinism and jobs-invariance tests diff this
    /// form directly.
    pub fn to_json(&self) -> String {
        self.render_json(None)
    }

    /// [`to_json`] plus the wall-clock section: a `"latency_ms"`
    /// summary and the top-5 `"slowest_seeds"` outliers. Timing varies
    /// run to run, so this form is for human-facing artifacts (the
    /// `fuzz` binary's campaign report), never for determinism diffs.
    ///
    /// [`to_json`]: CampaignSummary::to_json
    pub fn to_json_full(&self) -> String {
        self.render_json(Some(&self.latency))
    }

    fn render_json(&self, latency: Option<&Latency>) -> String {
        let failures: Vec<FailureLine> = self.failures.iter().map(SeedFailure::line).collect();
        render_report(
            &ReportView {
                seed_start: self.seed_start,
                seed_end: self.seed_end,
                executed: self.executed,
                skipped_for_budget: self.skipped_for_budget,
                failures: &failures,
                coverage: &self.coverage,
                known_gaps: self.known_gaps,
                gap_examples: &self.gap_examples,
                speedup: self.speedup,
                jobs_checked: self.jobs_checked,
                jobs_mismatch: self.jobs_mismatch.as_deref(),
            },
            latency,
        )
    }
}

/// Judge one seed. Returns the stats of a clean run or the failing
/// program.
fn judge(seed: u64, cfg: &OracleConfig) -> Result<OracleStats, (GenProgram, OracleFailure)> {
    let gp = GenProgram::generate(seed);
    run_oracles(&gp.render(), cfg).map_err(|f| (gp, f))
}

/// Run a campaign over `[seed_start, seed_end)`.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    const CHUNK: u64 = 32;
    let started = Instant::now();
    let mut coverage = Coverage::default();
    let mut raw_failures: Vec<(u64, GenProgram, OracleFailure)> = Vec::new();
    let mut digests: Vec<(u64, u64)> = Vec::new(); // (seed, digest)
    let mut known_gaps = 0u64;
    let mut gap_examples: Vec<String> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut executed = 0u64;
    let mut next = cfg.seed_start;
    let mut latency = Latency::new();
    // Persistent corpus: best-effort — a corpus that cannot be opened
    // degrades the campaign to non-persistent, it never fails it.
    let mut corpus = cfg.corpus_dir.as_ref().and_then(|dir| {
        PersistentCorpus::open(dir)
            .map_err(|e| eprintln!("fuzz: corpus disabled: {e}"))
            .ok()
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
        executed += seeds.len() as u64;
        let results = cedar_par::par_map(seeds, |seed| {
            let t = Instant::now();
            let r = judge(seed, &cfg.oracle);
            (seed, t.elapsed(), r)
        });
        for (seed, took, r) in results {
            latency.record_duration(seed.to_string(), took);
            match r {
                Ok(stats) => {
                    coverage.absorb(&stats.report);
                    if let Some(pc) = corpus.as_mut() {
                        let rendered = GenProgram::generate(seed).render();
                        if let Err(e) =
                            pc.observe(seed, &cfg.corpus_config, &rendered, &stats.report)
                        {
                            eprintln!("fuzz: corpus observe failed: {e}");
                        }
                    }
                    known_gaps += stats.known_gaps.len() as u64;
                    for g in stats.known_gaps {
                        if gap_examples.len() < 3 && !gap_examples.contains(&g) {
                            gap_examples.push(g);
                        }
                    }
                    if stats.parallel_cycles > 0.0 {
                        speedups.push(stats.serial_cycles / stats.parallel_cycles);
                    }
                    digests.push((seed, stats.digest));
                }
                Err((gp, f)) => raw_failures.push((seed, gp, f)),
            }
        }
    }
    let skipped_for_budget = cfg.seed_end - next;
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
                (gp, original.clone())
            };
            let source = minimized.render().source;
            SeedFailure { seed, original, minimized, failure, source, bundle: None }
        })
        .collect();
    failures.sort_by_key(|f| f.seed);

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
            if let Some(f) = failures
                .iter_mut()
                .find(|f| q.cell == format!("fuzz/seed{}", f.seed))
            {
                f.bundle = q.bundle.clone();
            }
        }
    }

    // ---- phase 4: CEDAR_JOBS invariance — re-judge a sample of clean
    // seeds single-threaded; digests must match bit-for-bit ----
    let (jobs_checked, jobs_mismatch) = jobs_invariance(&digests, cfg.jobs_check, &cfg.oracle);

    let speedup = speedup_triple(&speedups);

    CampaignSummary {
        seed_start: cfg.seed_start,
        seed_end: cfg.seed_end,
        executed,
        skipped_for_budget,
        failures,
        coverage,
        known_gaps,
        gap_examples,
        speedup,
        speedup_samples: speedups,
        digests,
        jobs_checked,
        jobs_mismatch,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig {
            seed_start: 0,
            seed_end: 12,
            bundles: false,
            jobs_check: 2,
            ..Default::default()
        }
    }

    #[test]
    fn small_campaign_is_deterministic() {
        let a = run_campaign(&small());
        let b = run_campaign(&small());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.executed, 12);
        assert_eq!(a.skipped_for_budget, 0);
    }

    #[test]
    fn summary_json_is_well_formed_enough() {
        let s = run_campaign(&small()).to_json();
        assert!(s.contains("\"schema\": \"cedar-fuzz-v1\""));
        assert!(s.contains("\"coverage\": {\"doall\": "));
        assert_eq!(s.matches('{').count(), s.matches('}').count(), "{s}");
    }

    #[test]
    fn full_json_adds_latency_without_touching_the_deterministic_form() {
        let s = run_campaign(&small());
        assert_eq!(s.latency.len() as u64, s.executed, "one sample per judged seed");
        let det = s.to_json();
        assert!(!det.contains("latency_ms"), "to_json must stay timing-free");
        let full = s.to_json_full();
        assert!(full.contains("\"latency_ms\": {\"p50\": "), "{full}");
        assert!(full.contains("\"slowest_seeds\": [{\"label\": "), "{full}");
        assert!(full.starts_with(det.trim_end_matches("\n}\n")), "full extends to_json");
        assert_eq!(full.matches('{').count(), full.matches('}').count(), "{full}");
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
            jobs_check: 0,
            ..Default::default()
        };
        let s = run_campaign(&cfg);
        assert!(!s.failures.is_empty(), "rel_tol 0 found nothing in 24 seeds");
        assert!(s.failed());
        for f in &s.failures {
            assert_eq!(f.failure.phase.tag(), "differential");
            assert!(f.failure.diff.is_some(), "divergence without a cell: {}", f.failure);
            assert!(
                f.minimized.shapes.len() <= GenProgram::generate(f.seed).shapes.len(),
                "shrinker grew seed {}",
                f.seed
            );
            assert!(f.source.contains("program fz"));
        }
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
            jobs_check: 0,
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
}
