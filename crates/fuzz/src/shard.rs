//! Campaign shards: a worker's [`CampaignSummary`] for a contiguous
//! sub-range as it crosses a process boundary, and the deterministic
//! merge that folds shards back into the whole range.
//!
//! A worker runs [`crate::run_campaign`] over its sub-range without
//! crash bundles (their paths are worker-local) and uploads
//! [`CampaignSummary::to_shard_json`] (`cedar-fuzz-shard-v1`): failure
//! lines, the coverage ledger, per-seed speedup samples as f64 *bit
//! patterns* (decimal round-trips would perturb the merged mean), the
//! lead clean-seed digests and the crash-bundle digests.
//!
//! [`merge_shards`] folds a complete, contiguous set of shards into
//! another [`CampaignSummary`], equal to the one a single process
//! running the whole range returns, no matter how the range was
//! sharded, which workers ran which shards, or how many times shards
//! were reassigned. Equal summaries write the same `cedar-fuzz-v1`
//! bytes through the one [`CampaignSummary::to_json`]:
//!
//! * every scalar is a sum over shards (counts commute);
//! * speedup samples concatenate in seed order, so
//!   [`CampaignSummary::speedup`] refolds the same mean;
//! * gap examples refold each shard's first-3-distinct prefix, which
//!   provably reconstructs the global first-3-distinct;
//! * lead digests concatenate and keep the first [`LEAD_DIGESTS`], the
//!   seeds a single run keeps, so [`CampaignSummary::check_jobs`] on
//!   the merge re-judges exactly those — and doubles as an end-to-end
//!   corruption check on worker-reported digests.

use crate::campaign::{write_failures, CampaignSummary, FailureLine, LEAD_DIGESTS};
use crate::coverage::Coverage;
use cedar_experiments::jsonio::{Json, Writer};

impl CampaignSummary {
    /// The `cedar-fuzz-shard-v1` document: everything but the
    /// jobs-invariance verdict, which only the final summary gets.
    pub fn to_shard_json(&self) -> String {
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
    pub fn parse(text: &str) -> Result<CampaignSummary, String> {
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
        Ok(CampaignSummary {
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
            jobs_checked: 0,
            jobs_mismatch: None,
        })
    }
}

fn hex_u64(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex digest `{s}`: {e}"))
}

/// Fold shards covering a contiguous range into one summary, before its
/// jobs-invariance check.
///
/// Errors when the shards don't tile a range exactly (gap, overlap,
/// none at all) or any shard is incomplete (budget-skipped seeds): a
/// coordinator must reassign those, never merge around them. Shards are
/// sorted by range first, so the order they arrived in does not matter.
pub fn merge_shards(shards: &[CampaignSummary]) -> Result<CampaignSummary, String> {
    let mut ordered: Vec<&CampaignSummary> = shards.iter().collect();
    ordered.sort_by_key(|s| s.seed_start);
    let (Some(first), Some(last)) = (ordered.first(), ordered.last()) else {
        return Err("no shards to merge".into());
    };
    for pair in ordered.windows(2) {
        if pair[1].seed_start != pair[0].seed_end {
            return Err(format!(
                "shards are not contiguous: {}..{} then {}..{}",
                pair[0].seed_start, pair[0].seed_end, pair[1].seed_start, pair[1].seed_end
            ));
        }
    }
    let mut m = CampaignSummary {
        seed_start: first.seed_start,
        seed_end: last.seed_end,
        ..CampaignSummary::default()
    };
    for s in &ordered {
        if s.skipped_for_budget != 0 || s.executed != s.seed_end - s.seed_start {
            return Err(format!(
                "shard {}..{} is incomplete ({} executed, {} skipped); reassign it, don't merge it",
                s.seed_start, s.seed_end, s.executed, s.skipped_for_budget
            ));
        }
        m.executed += s.executed;
        m.failures.extend(s.failures.iter().cloned());
        m.coverage.merge(&s.coverage);
        m.known_gaps += s.known_gaps;
        for g in &s.gap_examples {
            if m.gap_examples.len() < 3 && !m.gap_examples.contains(g) {
                m.gap_examples.push(g.clone());
            }
        }
        m.speedup_samples.extend_from_slice(&s.speedup_samples);
        m.lead_digests.extend(s.lead_digests.iter().copied());
        m.bundle_digests.extend(s.bundle_digests.iter().cloned());
    }
    m.failures.sort_by_key(|f| f.seed);
    m.lead_digests.truncate(LEAD_DIGESTS);
    m.bundle_digests.sort();
    m.bundle_digests.dedup();
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::oracle::OracleConfig;

    /// A worker-style run: no bundles.
    fn shard(a: u64, b: u64, oracle: &OracleConfig) -> CampaignSummary {
        run_campaign(&CampaignConfig {
            seed_start: a,
            seed_end: b,
            oracle: oracle.clone(),
            bundles: false,
            ..Default::default()
        })
    }

    /// `summary` after the jobs check a final summary gets.
    fn checked(mut summary: CampaignSummary, k: usize, oracle: &OracleConfig) -> CampaignSummary {
        summary.check_jobs(k, oracle);
        summary
    }

    #[test]
    fn shard_json_round_trips() {
        // rel_tol 0 manufactures failures so the failure lines (escaped
        // details, diffs, tags) round-trip too.
        let oracle = OracleConfig { rel_tol: 0.0, ..Default::default() };
        let s = shard(0, 24, &oracle);
        assert!(!s.failures.is_empty(), "rel_tol 0 found nothing in 24 seeds");
        assert!(!s.bundle_digests.is_empty());
        let parsed = CampaignSummary::parse(&s.to_shard_json()).unwrap();
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
        assert_eq!(CampaignSummary::parse(&s.to_shard_json()).as_ref(), Ok(&s));
        let merged = merge_shards(&[s]).unwrap().to_json();
        let v = Json::parse(&merged).expect("the merged report is JSON");
        let failure = &v.arr_at("failures").unwrap()[0];
        assert_eq!(failure.strs_at("tags").unwrap(), ["a\"b"]);
        assert_eq!(failure.str_at("phase"), Ok("differ\nential"));
    }

    #[test]
    fn merge_is_byte_identical_to_a_single_process_run() {
        let oracle = OracleConfig::default();
        // Reference: one process, whole range, same jobs check.
        let reference = checked(shard(0, 48, &oracle), 3, &oracle);
        // Distributed: uneven shards, merged from shuffled order.
        let shards = [shard(16, 48, &oracle), shard(0, 4, &oracle), shard(4, 16, &oracle)];
        assert_eq!(checked(merge_shards(&shards).unwrap(), 3, &oracle), reference);
        // And again with a different sharding.
        let shards = [shard(24, 48, &oracle), shard(0, 24, &oracle)];
        assert_eq!(checked(merge_shards(&shards).unwrap(), 3, &oracle), reference);
    }

    #[test]
    fn merge_with_failures_matches_reference() {
        let oracle = OracleConfig { rel_tol: 0.0, ..Default::default() };
        let reference = checked(shard(0, 24, &oracle), 2, &oracle);
        let merged = merge_shards(&[shard(12, 24, &oracle), shard(0, 12, &oracle)]).unwrap();
        let merged = checked(merged, 2, &oracle);
        assert_eq!(merged, reference);
        assert!(merged.failed());
    }

    #[test]
    fn merge_rejects_bad_tilings() {
        let oracle = OracleConfig::default();
        let a = shard(0, 8, &oracle);
        let c = shard(16, 24, &oracle);
        assert!(merge_shards(&[]).unwrap_err().contains("no shards"));
        let gap = merge_shards(&[a.clone(), c]).unwrap_err();
        assert!(gap.contains("not contiguous"), "{gap}");
        let overlap = merge_shards(&[a.clone(), shard(4, 12, &oracle)]).unwrap_err();
        assert!(overlap.contains("not contiguous"), "{overlap}");
        let mut truncated = a.clone();
        truncated.executed -= 2;
        truncated.skipped_for_budget = 2;
        let e = merge_shards(&[truncated]).unwrap_err();
        assert!(e.contains("incomplete"), "{e}");
        let e = crate::check_jobs_depth(LEAD_DIGESTS + 1).unwrap_err();
        assert!(e.contains("lead digests"), "{e}");
    }

    #[test]
    fn merged_jobs_check_catches_corrupted_worker_digests() {
        let oracle = OracleConfig::default();
        let mut s = shard(0, 8, &oracle);
        assert!(!s.lead_digests.is_empty());
        s.lead_digests[0].1 ^= 1; // a worker lied (or a byte flipped)
        let merged = checked(merge_shards(&[s]).unwrap(), 1, &oracle);
        assert!(merged.jobs_mismatch.is_some(), "corrupted digest must trip the check");
        assert!(merged.failed());
    }
}
