//! Crash-safe append-only journal for the campaign coordinator.
//!
//! One JSONL record per state transition, flushed and fsynced before
//! the coordinator acts on it, so a coordinator killed at any point
//! resumes by folding the journal back into its shard table
//! ([`replay`]). The records deliberately carry **no wall-clock**: a
//! lease that was in flight at the crash has lost its timer anyway, so
//! replay reverts `leased` shards to pending and lets workers re-lease
//! them. `completed` records point at the shard file on disk and carry
//! its FNV-1a checksum — a half-written shard file fails verification
//! and the shard re-runs instead of poisoning the merge.
//!
//! A torn final line (the coordinator died mid-append) is tolerated;
//! corruption anywhere else is an error, because silently skipping an
//! interior record could resurrect completed work as pending — wasteful
//! but safe — or worse, forget a quarantine.

use cedar_experiments::jsonio::{Json, Writer};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// First line: the campaign's identity. Resume refuses a journal
    /// whose parameters disagree with the coordinator's configuration.
    Campaign {
        /// First seed (inclusive).
        seed_start: u64,
        /// Last seed (exclusive).
        seed_end: u64,
        /// Seeds per shard.
        shard_size: u64,
        /// Oracle configuration name (`manual` / `auto`).
        config: String,
        /// Merged jobs-invariance depth.
        jobs_check: u64,
        /// Reassignments allowed before a shard is quarantined.
        retry_budget: u64,
    },
    /// A shard was leased to a worker.
    Leased {
        /// Shard index.
        shard: u64,
        /// Worker name.
        worker: String,
    },
    /// A shard's result was accepted and persisted.
    Completed {
        /// Shard index.
        shard: u64,
        /// Shard-summary file, relative to the campaign directory.
        file: String,
        /// FNV-1a of the file bytes, 16 hex digits.
        checksum: String,
    },
    /// A lease was revoked (expiry or reported failure); the shard is
    /// pending again.
    Reassigned {
        /// Shard index.
        shard: u64,
        /// Failed attempts so far.
        attempts: u64,
        /// Why the lease was revoked.
        reason: String,
    },
    /// A shard exhausted its retry budget.
    Quarantined {
        /// Shard index.
        shard: u64,
        /// Failed attempts.
        attempts: u64,
        /// Last failure reason.
        reason: String,
    },
    /// A full snapshot of the shard table at a merge milestone. Replay
    /// **restarts** from the most recent checkpoint: every record
    /// before it is already folded into the snapshot, which is what
    /// lets compaction ([`crate::Coordinator`]) truncate the journal
    /// down to `campaign` + `checkpoint` without losing state. Old
    /// journals simply contain no checkpoints and replay record by
    /// record, unchanged.
    Checkpoint {
        /// Lease reassignments so far (the counter the triage report
        /// carries).
        reassignments: u64,
        /// Every shard whose state differs from freshly-pending.
        shards: Vec<ShardSnap>,
    },
}

/// One shard's state inside a [`Record::Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnap {
    /// Shard index.
    pub shard: u64,
    /// `"pending"`, `"completed"`, or `"quarantined"` — an in-flight
    /// lease snapshots as pending, exactly as replay would revert it.
    pub state: String,
    /// Failed attempts so far.
    pub attempts: u64,
    /// Shard-summary file (completed shards), relative to the
    /// campaign directory.
    pub file: Option<String>,
    /// FNV-1a of the file bytes, 16 hex digits (completed shards).
    pub checksum: Option<String>,
    /// Accumulated failure reasons.
    pub errors: Vec<String>,
}

impl ShardSnap {
    fn write_json(&self, w: &mut Writer) {
        w.obj().key("shard").int(self.shard).key("state").str(&self.state);
        w.key("attempts").int(self.attempts);
        if let Some(file) = &self.file {
            w.key("file").str(file);
        }
        if let Some(sum) = &self.checksum {
            w.key("checksum").str(sum);
        }
        if !self.errors.is_empty() {
            w.key("errors").strs(&self.errors);
        }
        w.end();
    }

    fn parse(v: &Json) -> Result<ShardSnap, String> {
        let text = |key: &str| v.str_at(key).ok().map(str::to_string);
        Ok(ShardSnap {
            shard: v.u64_at("shard")?,
            state: v.str_at("state")?.to_string(),
            attempts: v.u64_at("attempts")?,
            file: text("file"),
            checksum: text("checksum"),
            errors: if v.get("errors").is_some() { v.strs_at("errors")? } else { Vec::new() },
        })
    }
}

impl Record {
    /// One JSONL line, newline-terminated.
    pub fn to_line(&self) -> String {
        let mut w = Writer::new();
        w.obj().key("rec");
        match self {
            Record::Campaign { seed_start, seed_end, shard_size, config, jobs_check, retry_budget } => {
                w.str("campaign").key("seed_start").int(seed_start).key("seed_end").int(seed_end);
                w.key("shard_size").int(shard_size).key("config").str(config);
                w.key("jobs_check").int(jobs_check).key("retry_budget").int(retry_budget);
            }
            Record::Leased { shard, worker } => {
                w.str("leased").key("shard").int(shard).key("worker").str(worker);
            }
            Record::Completed { shard, file, checksum } => {
                w.str("completed").key("shard").int(shard);
                w.key("file").str(file).key("checksum").str(checksum);
            }
            Record::Reassigned { shard, attempts, reason } => {
                w.str("reassigned").key("shard").int(shard);
                w.key("attempts").int(attempts).key("reason").str(reason);
            }
            Record::Quarantined { shard, attempts, reason } => {
                w.str("quarantined").key("shard").int(shard);
                w.key("attempts").int(attempts).key("reason").str(reason);
            }
            Record::Checkpoint { reassignments, shards } => {
                w.str("checkpoint").key("reassignments").int(reassignments);
                w.key("shards").arr();
                for snap in shards {
                    snap.write_json(&mut w);
                }
                w.end();
            }
        }
        w.finish() + "\n"
    }

    /// Parse one line back. Every integer is read exactly
    /// ([`Json::u64_at`]): a `"shard": -1` is a corrupt record, not
    /// shard 0.
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = Json::parse(line)?;
        let text = |key: &str| v.str_at(key).map(str::to_string);
        match v.get("rec").and_then(Json::as_str) {
            Some("campaign") => Ok(Record::Campaign {
                seed_start: v.u64_at("seed_start")?,
                seed_end: v.u64_at("seed_end")?,
                shard_size: v.u64_at("shard_size")?,
                config: text("config")?,
                jobs_check: v.u64_at("jobs_check")?,
                retry_budget: v.u64_at("retry_budget")?,
            }),
            Some("leased") => Ok(Record::Leased { shard: v.u64_at("shard")?, worker: text("worker")? }),
            Some("completed") => Ok(Record::Completed {
                shard: v.u64_at("shard")?,
                file: text("file")?,
                checksum: text("checksum")?,
            }),
            Some("reassigned") => Ok(Record::Reassigned {
                shard: v.u64_at("shard")?,
                attempts: v.u64_at("attempts")?,
                reason: text("reason")?,
            }),
            Some("quarantined") => Ok(Record::Quarantined {
                shard: v.u64_at("shard")?,
                attempts: v.u64_at("attempts")?,
                reason: text("reason")?,
            }),
            Some("checkpoint") => {
                let shards = v.arr_at("shards")?.iter().map(ShardSnap::parse);
                Ok(Record::Checkpoint {
                    reassignments: v.u64_at("reassignments")?,
                    shards: shards.collect::<Result<_, _>>()?,
                })
            }
            other => Err(format!("unknown journal record kind {other:?}")),
        }
    }
}

/// The append side of the journal.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: std::fs::File,
}

impl Wal {
    /// Open (creating if needed) for appending.
    pub fn open(path: &Path) -> std::io::Result<Wal> {
        let file = std::fs::OpenOptions::new().append(true).create(true).open(path)?;
        Ok(Wal { path: path.to_path_buf(), file })
    }

    /// Append one record durably: write, flush, fsync. The record is
    /// on disk before this returns — the coordinator never acts on a
    /// transition it could forget.
    pub fn append(&mut self, rec: &Record) -> std::io::Result<()> {
        self.file.write_all(rec.to_line().as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read a journal back, tolerating a torn final line.
pub fn replay(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match Record::parse(line) {
            Ok(r) => records.push(r),
            Err(e) if i == lines.len() - 1 => {
                // Torn tail: the coordinator died mid-append. The
                // transition never happened as far as recovery is
                // concerned.
                eprintln!("campaign: journal has a torn final line (ignored): {e}");
                break;
            }
            Err(e) => return Err(format!("{}:{}: corrupt journal record: {e}", path.display(), i + 1)),
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_store::fnv1a;

    fn all_kinds() -> Vec<Record> {
        vec![
            Record::Campaign {
                seed_start: 0,
                seed_end: 3000,
                shard_size: 250,
                config: "manual".into(),
                jobs_check: 4,
                retry_budget: 2,
            },
            Record::Leased { shard: 3, worker: "w-\"quoted\"".into() },
            Record::Completed {
                shard: 3,
                file: "shards/shard0003.json".into(),
                checksum: format!("{:016x}", fnv1a(b"payload")),
            },
            Record::Reassigned { shard: 4, attempts: 1, reason: "lease-expired (w1)".into() },
            Record::Quarantined { shard: 4, attempts: 3, reason: "worker panic:\nboom".into() },
            Record::Checkpoint {
                reassignments: 2,
                shards: vec![
                    ShardSnap {
                        shard: 3,
                        state: "completed".into(),
                        attempts: 0,
                        file: Some("shards/shard0003.json".into()),
                        checksum: Some(format!("{:016x}", fnv1a(b"payload"))),
                        errors: vec![],
                    },
                    ShardSnap {
                        shard: 4,
                        state: "quarantined".into(),
                        attempts: 3,
                        file: None,
                        checksum: None,
                        errors: vec!["lease-expired (w1)".into(), "worker panic:\nboom".into()],
                    },
                    ShardSnap {
                        shard: 5,
                        state: "pending".into(),
                        attempts: 1,
                        file: None,
                        checksum: None,
                        errors: vec!["w2: budget".into()],
                    },
                ],
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in all_kinds() {
            let line = rec.to_line();
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'), "{line:?}");
            assert_eq!(Record::parse(line.trim_end()).unwrap(), rec);
        }
    }

    #[test]
    fn replay_tolerates_a_torn_tail_but_not_interior_corruption() {
        let dir = std::path::PathBuf::from("target/test-campaign-wal/torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        // A line torn mid-append, and two whose shard is no index at
        // all: `as u64` replayed -1 as shard 0 and 1.9 as shard 1.
        for fragment in [
            "{\"rec\": \"leased\", \"shard\": 9, \"wor",
            "{\"rec\": \"reassigned\", \"shard\": -1, \"attempts\": 1, \"reason\": \"x\"}",
            "{\"rec\": \"leased\", \"shard\": 1.9, \"worker\": \"w\"}",
        ] {
            let mut text = String::new();
            for rec in all_kinds() {
                text.push_str(&rec.to_line());
            }
            text.push_str(fragment);
            std::fs::write(&path, &text).unwrap();
            let recs = replay(&path).unwrap();
            assert_eq!(recs, all_kinds(), "{fragment}");

            // The same fragment *inside* the journal is corruption.
            let bad =
                format!("{}{fragment}\n{}", all_kinds()[0].to_line(), all_kinds()[1].to_line());
            std::fs::write(&path, bad).unwrap();
            let err = replay(&path).unwrap_err();
            assert!(err.contains("corrupt journal record"), "{fragment}: {err}");
        }
    }

    #[test]
    fn append_then_replay() {
        let dir = std::path::PathBuf::from("target/test-campaign-wal/append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        for rec in all_kinds() {
            wal.append(&rec).unwrap();
        }
        drop(wal);
        assert_eq!(replay(&path).unwrap(), all_kinds());
        // Reopen appends, never truncates.
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&Record::Leased { shard: 7, worker: "w2".into() }).unwrap();
        assert_eq!(replay(&path).unwrap().len(), all_kinds().len() + 1);
    }
}
