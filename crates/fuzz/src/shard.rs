//! Campaign shards: the unit of work a distributed fuzzing campaign
//! moves between processes, and the deterministic merge that folds
//! shards back into the single-process `cedar-fuzz-v1` report.
//!
//! A worker runs [`crate::run_campaign`] over a contiguous sub-range
//! and uploads a [`ShardSummary`] — the campaign summary reduced to
//! plain data (`cedar-fuzz-shard-v1` JSON): failure lines, the
//! coverage ledger, per-seed speedup samples as f64 *bit patterns*
//! (decimal round-trips would perturb the merged mean), the first few
//! clean-seed digests, and deduplicated crash-bundle digests.
//!
//! [`merge_shards`] folds a complete, contiguous set of shards into a
//! [`MergedCampaign`] whose [`to_json`](MergedCampaign::to_json) is
//! **byte-identical** to `CampaignSummary::to_json()` of one process
//! running the whole range, no matter how the range was sharded, which
//! workers ran which shards, or how many times shards were reassigned.
//! The merge gets that for free by construction:
//!
//! * every scalar is a sum over shards (counts commute);
//! * the speedup mean refolds the concatenated per-seed samples in
//!   seed order through the same [`speedup_triple`] left fold;
//! * gap examples refold each shard's first-3-distinct prefix, which
//!   provably reconstructs the global first-3-distinct;
//! * the jobs-invariance check re-judges the concatenated lead digests
//!   through the same [`jobs_invariance`] helper, hitting exactly the
//!   seeds a single-process run would have re-judged — and doubling as
//!   an end-to-end corruption check on worker-reported digests.

use crate::campaign::{
    jobs_invariance, render_report, speedup_triple, write_failures, CampaignSummary, FailureLine,
    ReportView,
};
use crate::coverage::Coverage;
use crate::oracle::OracleConfig;
use cedar_experiments::jsonio::{Json, Writer};
use cedar_experiments::supervise::bundle_digest;

/// Clean-seed digests carried per shard for the merged jobs-invariance
/// check. The merge refuses `jobs_check` larger than this: a shard
/// with more clean seeds truncates its digest list here, so a deeper
/// check could no longer mirror the single-process seed choice.
pub const LEAD_DIGESTS: usize = 8;

/// One worker's complete result for a contiguous seed sub-range.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Seeds actually judged (must equal the range for a mergeable
    /// shard).
    pub executed: u64,
    /// Seeds skipped for budget — a shard reporting any is incomplete
    /// and unmergeable; the coordinator reassigns instead.
    pub skipped_for_budget: u64,
    /// Failing seeds as report lines, ascending.
    pub failures: Vec<FailureLine>,
    /// Transform-coverage ledger over this shard's clean seeds.
    pub coverage: Coverage,
    /// Total sync-audit findings with no confirming dynamic race.
    pub known_gaps: u64,
    /// This shard's first ≤ 3 distinct gap findings, in seed order.
    pub gap_examples: Vec<String>,
    /// Per-clean-seed speedup samples in seed order.
    pub speedup_samples: Vec<f64>,
    /// `(seed, digest)` for the first ≤ [`LEAD_DIGESTS`] clean seeds.
    pub lead_digests: Vec<(u64, u64)>,
    /// Deduplicated crash-bundle digests for this shard's failures
    /// (minimized-source FNV, the same key the supervised engine files
    /// bundles under), sorted.
    pub bundle_digests: Vec<String>,
}

impl ShardSummary {
    /// Reduce a worker-run campaign summary to its shard form.
    ///
    /// The campaign must have been run the way the distributed
    /// protocol requires: no bundles (bundle paths are worker-local
    /// and would leak into the merged report) and `jobs_check: 0` (the
    /// coordinator runs the invariance check over merged lead
    /// digests).
    pub fn from_summary(s: &CampaignSummary) -> ShardSummary {
        let mut bundle_digests: Vec<String> = s
            .failures
            .iter()
            .map(|f| {
                format!("{:016x}", bundle_digest(&format!("fuzz/seed{}", f.seed), Some(&f.source)))
            })
            .collect();
        bundle_digests.sort();
        bundle_digests.dedup();
        ShardSummary {
            seed_start: s.seed_start,
            seed_end: s.seed_end,
            executed: s.executed,
            skipped_for_budget: s.skipped_for_budget,
            failures: s.failures.iter().map(|f| f.line()).collect(),
            coverage: s.coverage.clone(),
            known_gaps: s.known_gaps,
            gap_examples: s.gap_examples.clone(),
            speedup_samples: s.speedup_samples.clone(),
            lead_digests: s.digests.iter().take(LEAD_DIGESTS).copied().collect(),
            bundle_digests,
        }
    }

    /// The `cedar-fuzz-shard-v1` JSON document. Byte-deterministic for
    /// a given sub-range, like everything else in the campaign path.
    pub fn to_json(&self) -> String {
        let mut w = Writer::document();
        w.key("schema").str("cedar-fuzz-shard-v1");
        w.key("seed_start").int(self.seed_start).and_key("seed_end").int(self.seed_end);
        w.and_key("executed").int(self.executed);
        w.and_key("skipped_for_budget").int(self.skipped_for_budget);
        write_failures(&mut w, &self.failures);
        w.key("coverage").raw(self.coverage.to_json());
        w.key("known_gaps").int(self.known_gaps).and_key("gap_examples").strs(&self.gap_examples);
        w.key("speedup_samples").arr();
        for x in &self.speedup_samples {
            w.str(format_args!("{:016x}", x.to_bits()));
        }
        w.end();
        w.key("lead_digests").arr();
        for (seed, d) in &self.lead_digests {
            w.obj().key("seed").int(seed).key("digest").str(format_args!("{d:016x}")).end();
        }
        w.end();
        w.key("bundle_digests").strs(&self.bundle_digests);
        w.finish()
    }

    /// Parse a `cedar-fuzz-shard-v1` document.
    pub fn parse(text: &str) -> Result<ShardSummary, String> {
        let v = Json::parse(text)?;
        if v.get("schema").and_then(Json::as_str) != Some("cedar-fuzz-shard-v1") {
            return Err("not a cedar-fuzz-shard-v1 document".into());
        }
        let mut failures = Vec::new();
        for f in v.arr_at("failures")? {
            failures.push(FailureLine {
                seed: f.u64_at("seed")?,
                phase: f.str_at("phase")?.to_string(),
                detail: f.str_at("detail")?.to_string(),
                diff: f.str_at("cell")?.to_string(),
                tags: f.strs_at("tags")?,
                bundle: match f.get("bundle") {
                    Some(Json::Str(s)) => Some(s.clone()),
                    _ => None,
                },
            });
        }
        let mut coverage = Coverage::default();
        match v.get("coverage") {
            Some(counts @ Json::Obj(members)) => {
                for (pass, _) in members {
                    coverage.add(pass, counts.u64_at(pass)?)?;
                }
            }
            _ => return Err("missing coverage object".into()),
        }
        let mut speedup_samples = Vec::new();
        for hex in v.strs_at("speedup_samples")? {
            speedup_samples.push(f64::from_bits(hex_u64(&hex)?));
        }
        let mut lead_digests = Vec::new();
        for d in v.arr_at("lead_digests")? {
            lead_digests.push((d.u64_at("seed")?, hex_u64(d.str_at("digest")?)?));
        }
        Ok(ShardSummary {
            seed_start: v.u64_at("seed_start")?,
            seed_end: v.u64_at("seed_end")?,
            executed: v.u64_at("executed")?,
            skipped_for_budget: v.u64_at("skipped_for_budget")?,
            failures,
            coverage,
            known_gaps: v.u64_at("known_gaps")?,
            gap_examples: v.strs_at("gap_examples")?,
            speedup_samples,
            lead_digests,
            bundle_digests: v.strs_at("bundle_digests")?,
        })
    }
}

fn hex_u64(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex digest `{s}`: {e}"))
}

/// A set of shards folded back into whole-campaign form.
#[derive(Debug)]
pub struct MergedCampaign {
    /// Full range covered by the shards.
    pub seed_start: u64,
    /// Full range covered by the shards.
    pub seed_end: u64,
    /// Seeds judged (= the whole range; incomplete shards don't merge).
    pub executed: u64,
    /// Always 0 — see [`merge_shards`].
    pub skipped_for_budget: u64,
    /// All failing seeds, ascending.
    pub failures: Vec<FailureLine>,
    /// Merged transform-coverage ledger.
    pub coverage: Coverage,
    /// Summed sync-audit gap count.
    pub known_gaps: u64,
    /// Global first ≤ 3 distinct gap findings.
    pub gap_examples: Vec<String>,
    /// Speedup triple refolded from the concatenated samples.
    pub speedup: Option<(f64, f64, f64)>,
    /// Seeds re-judged single-threaded by the merge.
    pub jobs_checked: u64,
    /// Digest mismatch detail — also trips when a worker uploaded a
    /// corrupted digest, since the merge re-judges from the seed alone.
    pub jobs_mismatch: Option<String>,
    /// Union of the shards' crash-bundle digests, sorted, deduped.
    pub bundle_digests: Vec<String>,
}

impl MergedCampaign {
    /// Required passes that never fired across the merged range.
    pub fn unreachable(&self) -> Vec<&'static str> {
        self.coverage.unreachable()
    }

    /// Same verdict [`CampaignSummary::failed`] would give.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
            || self.jobs_mismatch.is_some()
            || (self.skipped_for_budget == 0 && !self.unreachable().is_empty())
    }

    /// The `cedar-fuzz-v1` document — byte-identical to what one
    /// process running the whole range would have written.
    pub fn to_json(&self) -> String {
        render_report(
            &ReportView {
                seed_start: self.seed_start,
                seed_end: self.seed_end,
                executed: self.executed,
                skipped_for_budget: self.skipped_for_budget,
                failures: &self.failures,
                coverage: &self.coverage,
                known_gaps: self.known_gaps,
                gap_examples: &self.gap_examples,
                speedup: self.speedup,
                jobs_checked: self.jobs_checked,
                jobs_mismatch: self.jobs_mismatch.as_deref(),
            },
            None,
        )
    }
}

/// Fold shards covering a contiguous range into a [`MergedCampaign`].
///
/// Errors when the shards don't tile a range exactly (gap, overlap,
/// none at all) or any shard is incomplete (budget-skipped seeds): a
/// coordinator must reassign those, never merge around them. The
/// jobs-invariance check re-judges the first `jobs_check` clean seeds
/// (capped at [`LEAD_DIGESTS`]) single-threaded in this process —
/// order-insensitive to how shards arrived, since they're sorted by
/// range first.
pub fn merge_shards(
    shards: &[ShardSummary],
    jobs_check: usize,
    oracle: &OracleConfig,
) -> Result<MergedCampaign, String> {
    if shards.is_empty() {
        return Err("no shards to merge".into());
    }
    if jobs_check > LEAD_DIGESTS {
        return Err(format!(
            "jobs_check {jobs_check} exceeds the {LEAD_DIGESTS} lead digests shards carry"
        ));
    }
    let mut ordered: Vec<&ShardSummary> = shards.iter().collect();
    ordered.sort_by_key(|s| s.seed_start);
    for pair in ordered.windows(2) {
        if pair[1].seed_start != pair[0].seed_end {
            return Err(format!(
                "shards are not contiguous: {}..{} then {}..{}",
                pair[0].seed_start, pair[0].seed_end, pair[1].seed_start, pair[1].seed_end
            ));
        }
    }
    let mut failures = Vec::new();
    let mut coverage = Coverage::default();
    let mut known_gaps = 0u64;
    let mut gap_examples: Vec<String> = Vec::new();
    let mut speedup_samples = Vec::new();
    let mut lead_digests = Vec::new();
    let mut bundle_digests = Vec::new();
    for s in &ordered {
        if s.skipped_for_budget != 0 || s.executed != s.seed_end - s.seed_start {
            return Err(format!(
                "shard {}..{} is incomplete ({} executed, {} skipped); reassign it, don't merge it",
                s.seed_start, s.seed_end, s.executed, s.skipped_for_budget
            ));
        }
        failures.extend(s.failures.iter().cloned());
        coverage.merge(&s.coverage);
        known_gaps += s.known_gaps;
        for g in &s.gap_examples {
            if gap_examples.len() < 3 && !gap_examples.contains(g) {
                gap_examples.push(g.clone());
            }
        }
        speedup_samples.extend_from_slice(&s.speedup_samples);
        if lead_digests.len() < LEAD_DIGESTS {
            lead_digests.extend(s.lead_digests.iter().copied());
        }
        bundle_digests.extend(s.bundle_digests.iter().cloned());
    }
    failures.sort_by_key(|f| f.seed);
    bundle_digests.sort();
    bundle_digests.dedup();
    let (jobs_checked, jobs_mismatch) = jobs_invariance(&lead_digests, jobs_check, oracle);
    Ok(MergedCampaign {
        seed_start: ordered[0].seed_start,
        seed_end: ordered[ordered.len() - 1].seed_end,
        executed: ordered.iter().map(|s| s.executed).sum(),
        skipped_for_budget: 0,
        failures,
        coverage,
        known_gaps,
        gap_examples,
        speedup: speedup_triple(&speedup_samples),
        jobs_checked,
        jobs_mismatch,
        bundle_digests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};

    /// A worker-style config: no bundles, no local jobs check.
    fn worker_cfg(a: u64, b: u64, oracle: &OracleConfig) -> CampaignConfig {
        CampaignConfig {
            seed_start: a,
            seed_end: b,
            oracle: oracle.clone(),
            bundles: false,
            jobs_check: 0,
            ..Default::default()
        }
    }

    fn shard(a: u64, b: u64, oracle: &OracleConfig) -> ShardSummary {
        ShardSummary::from_summary(&run_campaign(&worker_cfg(a, b, oracle)))
    }

    #[test]
    fn shard_json_round_trips() {
        // rel_tol 0 manufactures failures so the failure lines (escaped
        // details, diffs, tags) round-trip too.
        let oracle = OracleConfig { rel_tol: 0.0, ..Default::default() };
        let s = shard(0, 24, &oracle);
        assert!(!s.failures.is_empty(), "rel_tol 0 found nothing in 24 seeds");
        assert!(!s.bundle_digests.is_empty());
        let parsed = ShardSummary::parse(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn worker_supplied_strings_are_escaped() {
        // `tags` and `phase` were printed unescaped: an upload carrying
        // this line passed `parse`, was written back unparseable, and
        // broke the merged report.
        let oracle = OracleConfig::default();
        let mut s = shard(0, 4, &oracle);
        s.failures.push(FailureLine {
            seed: 3,
            phase: "differ\nential".into(),
            detail: "d".into(),
            diff: String::new(),
            tags: vec!["a\"b".into()],
            bundle: None,
        });
        s.bundle_digests.push("00\"11".into());
        assert_eq!(ShardSummary::parse(&s.to_json()).as_ref(), Ok(&s));
        let merged = merge_shards(&[s], 0, &oracle).unwrap().to_json();
        let v = Json::parse(&merged).expect("the merged report is JSON");
        let failure = &v.arr_at("failures").unwrap()[0];
        assert_eq!(failure.strs_at("tags").unwrap(), ["a\"b"]);
        assert_eq!(failure.str_at("phase"), Ok("differ\nential"));
    }

    #[test]
    fn merge_is_byte_identical_to_a_single_process_run() {
        let oracle = OracleConfig::default();
        let jobs_check = 3;
        // Reference: one process, whole range, same jobs check.
        let mut ref_cfg = worker_cfg(0, 48, &oracle);
        ref_cfg.jobs_check = jobs_check;
        let reference = run_campaign(&ref_cfg).to_json();
        // Distributed: uneven shards, merged from shuffled order.
        let shards =
            vec![shard(16, 48, &oracle), shard(0, 4, &oracle), shard(4, 16, &oracle)];
        let merged = merge_shards(&shards, jobs_check, &oracle).unwrap();
        assert_eq!(merged.to_json(), reference);
        // And again with a different sharding: same bytes.
        let shards2 = vec![shard(24, 48, &oracle), shard(0, 24, &oracle)];
        assert_eq!(merge_shards(&shards2, jobs_check, &oracle).unwrap().to_json(), reference);
    }

    #[test]
    fn merge_with_failures_matches_reference() {
        let oracle = OracleConfig { rel_tol: 0.0, ..Default::default() };
        let mut ref_cfg = worker_cfg(0, 24, &oracle);
        ref_cfg.jobs_check = 2;
        let reference = run_campaign(&ref_cfg);
        let shards = vec![shard(12, 24, &oracle), shard(0, 12, &oracle)];
        let merged = merge_shards(&shards, 2, &oracle).unwrap();
        assert_eq!(merged.to_json(), reference.to_json());
        assert!(merged.failed());
        assert_eq!(merged.failures.len(), reference.failures.len());
    }

    #[test]
    fn merge_rejects_bad_tilings() {
        let oracle = OracleConfig::default();
        let a = shard(0, 8, &oracle);
        let c = shard(16, 24, &oracle);
        assert!(merge_shards(&[], 0, &oracle).unwrap_err().contains("no shards"));
        let gap = merge_shards(&[a.clone(), c.clone()], 0, &oracle).unwrap_err();
        assert!(gap.contains("not contiguous"), "{gap}");
        let mut truncated = a.clone();
        truncated.executed -= 2;
        truncated.skipped_for_budget = 2;
        let e = merge_shards(&[truncated], 0, &oracle).unwrap_err();
        assert!(e.contains("incomplete"), "{e}");
        let e = merge_shards(&[a], LEAD_DIGESTS + 1, &oracle).unwrap_err();
        assert!(e.contains("lead digests"), "{e}");
    }

    #[test]
    fn merged_jobs_check_catches_corrupted_worker_digests() {
        let oracle = OracleConfig::default();
        let mut s = shard(0, 8, &oracle);
        assert!(!s.lead_digests.is_empty());
        s.lead_digests[0].1 ^= 1; // a worker lied (or a byte flipped)
        let merged = merge_shards(&[s], 1, &oracle).unwrap();
        assert!(merged.jobs_mismatch.is_some(), "corrupted digest must trip the check");
        assert!(merged.failed());
    }
}
