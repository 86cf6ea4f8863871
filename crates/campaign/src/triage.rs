//! The campaign triage report: what a human looks at after a
//! distributed run — quarantined shards with their failure history,
//! oracle-failure clusters from the merged report, and per-worker
//! tallies.
//!
//! Clustering is by `(failing phase, oracle config)`: every seed whose
//! minimized reproducer failed the same oracle phase under the same
//! judge configuration lands in one cluster, with the first few seeds
//! as representatives. That's the shape the paper's own debugging
//! stories take ("the DOACROSS sync audit disagreed with the dynamic
//! race detector on these inputs"), and it keeps a thousand-failure
//! campaign readable.

use crate::coordinator::{CoordinatorConfig, WorkerStats};
use cedar_experiments::Writer;
use cedar_fuzz::CampaignSummary;
use std::collections::BTreeMap;

/// A shard that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct QuarantinedShard {
    /// Shard index.
    pub shard: u64,
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Failed attempts.
    pub attempts: u64,
    /// Every failure reason recorded, oldest first.
    pub errors: Vec<String>,
}

/// Render the `cedar-campaign-triage-v1` document.
pub fn triage_json(
    cfg: &CoordinatorConfig,
    total_shards: u64,
    reassignments: u64,
    quarantined: &[QuarantinedShard],
    merged: Option<&CampaignSummary>,
    workers: &BTreeMap<String, WorkerStats>,
) -> String {
    let mut w = Writer::document();
    w.key("schema").str("cedar-campaign-triage-v1");
    w.key("campaign").obj();
    w.key("seed_start").int(cfg.seed_start).key("seed_end").int(cfg.seed_end);
    w.key("shard_size").int(cfg.shard_size).key("config").str(&cfg.config_name).end();
    w.key("shards").obj();
    w.key("total").int(total_shards);
    w.key("completed").int(total_shards - quarantined.len() as u64);
    w.key("quarantined").int(quarantined.len());
    w.key("reassignments").int(reassignments).end();

    w.key("quarantined").rows();
    for q in quarantined {
        w.obj().key("shard").int(q.shard);
        w.key("seed_start").int(q.seed_start).key("seed_end").int(q.seed_end);
        w.key("attempts").int(q.attempts).key("errors").strs(&q.errors).end();
    }
    w.end();

    // Oracle-failure clusters from the merged report (empty when the
    // merge was withheld — the quarantined section is the lead then).
    let mut clusters: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let failures = merged.map_or(&[][..], |m| &m.failures);
    for f in failures {
        clusters.entry(&f.phase).or_default().push(f.seed);
    }
    w.key("clusters").rows();
    for (phase, seeds) in &clusters {
        w.obj().key("phase").str(phase).key("oracle").str(&cfg.config_name);
        w.key("count").int(seeds.len());
        w.key("example_seeds").arr();
        for seed in seeds.iter().take(10) {
            w.int(seed);
        }
        w.end().end();
    }
    w.end();

    w.key("bundle_digests").strs(merged.map_or(&[][..], |m| &m.bundle_digests));

    w.key("workers").rows();
    for (name, stats) in workers {
        w.obj().key("name").str(name).key("leased").int(stats.leased);
        w.key("completed").int(stats.completed).key("failed").int(stats.failed).end();
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_experiments::jsonio::Json;

    #[test]
    fn triage_document_is_valid_json_with_every_section() {
        let cfg = CoordinatorConfig {
            seed_start: 0,
            seed_end: 100,
            shard_size: 25,
            config_name: "manual".into(),
            ..CoordinatorConfig::default()
        };
        let quarantined = vec![QuarantinedShard {
            shard: 2,
            seed_start: 50,
            seed_end: 75,
            attempts: 3,
            errors: vec!["w1: panic: \"boom\"".into(), "lease-expired (w2)".into()],
        }];
        let mut workers = BTreeMap::new();
        workers.insert("w1".to_string(), WorkerStats { leased: 3, completed: 2, failed: 1 });
        let text = triage_json(&cfg, 4, 2, &quarantined, None, &workers);
        let v = Json::parse(&text).expect("triage must be parseable JSON");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("cedar-campaign-triage-v1"));
        assert_eq!(v.get("shards").unwrap().get("quarantined").unwrap().as_f64(), Some(1.0));
        let q = &v.get("quarantined").unwrap().as_arr().unwrap()[0];
        assert_eq!(q.get("shard").unwrap().as_f64(), Some(2.0));
        assert_eq!(q.get("errors").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("clusters").unwrap().as_arr().unwrap().is_empty());
        let w = &v.get("workers").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("completed").unwrap().as_f64(), Some(2.0));
    }
}
