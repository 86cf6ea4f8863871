//! The campaign coordinator: shards a seed range, leases shards to
//! workers, survives worker crashes (lease expiry → reassignment) and
//! its own (journal replay → resume), quarantines poison shards, and
//! folds completed shards into the byte-deterministic merged report.
//!
//! The coordinator is a state machine over HTTP
//! ([`Coordinator::handle`] maps one request to one reply), wrapped in
//! a tiny single-threaded server loop ([`Coordinator::serve`]) — the
//! requests are all sub-millisecond lookups, so the serve stack's
//! worker pool and admission queue would be dead weight here. Every
//! state transition is journaled (see [`crate::wal`]) *before* the
//! reply is sent.
//!
//! Protocol (JSON over `cedar-serve`'s HTTP):
//!
//! | request                 | reply                                        |
//! |-------------------------|----------------------------------------------|
//! | `POST /lease` `{worker}`| a shard `{shard, seed_start, seed_end, lease_ms, config}`, `{wait_ms}` when everything is in flight, or `{done: true}` |
//! | `POST /heartbeat` `{worker, shard}` | `{ok}` — `false` means the lease was lost |
//! | `POST /complete` `{worker, shard, summary}` | `{ok: true}`; idempotent, first result wins |
//! | `POST /fail` `{worker, shard, error}` | `{ok: true}` — counts against the retry budget |
//! | `GET /status`           | shard-state counts                           |

use crate::triage;
use crate::wal::{self, replay, Record, Wal};
use cedar_experiments::jsonio::{flags, Json, Writer};
use cedar_fuzz::shard::{merge_shards, MergedCampaign, ShardSummary, LEAD_DIGESTS};
use cedar_fuzz::OracleConfig;
use cedar_store::fnv1a;
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Coordinator parameters.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Seeds per shard (the last shard takes the remainder).
    pub shard_size: u64,
    /// How long a worker may hold a shard without heartbeating before
    /// the lease expires and the shard is reassigned.
    pub lease: Duration,
    /// Lease revocations a shard survives before quarantine. A shard
    /// is quarantined on failure `retry_budget + 1`.
    pub retry_budget: u32,
    /// Clean seeds the *coordinator* re-judges single-threaded after
    /// the merge (capped at [`LEAD_DIGESTS`]).
    pub jobs_check: usize,
    /// Oracle configuration name (`manual` / `auto`) — echoed to
    /// workers in every lease so the whole fleet judges identically.
    pub config_name: String,
    /// Campaign directory: `journal.jsonl`, `shards/`, `results/`
    /// (the crash-safe shard-result store), `merged.json`,
    /// `triage.json`.
    pub dir: PathBuf,
    /// Checkpoint-compact the journal after this many shard
    /// completions (`0` disables): a snapshot record replaces the
    /// replayed history, so a resumed campaign folds `campaign` +
    /// `checkpoint` + a short tail instead of the full journal.
    pub checkpoint_every: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            seed_start: 0,
            seed_end: 1000,
            shard_size: 100,
            lease: Duration::from_secs(30),
            retry_budget: 2,
            jobs_check: 4,
            config_name: "manual".into(),
            dir: PathBuf::from("target/campaign"),
            checkpoint_every: 8,
        }
    }
}

impl CoordinatorConfig {
    /// The oracle configuration the name denotes; an unknown name is an
    /// error, never a different configuration.
    pub fn oracle(&self) -> Result<OracleConfig, String> {
        OracleConfig::named(&self.config_name)
            .ok_or_else(|| format!("unknown config `{}`", self.config_name))
    }
}

/// A status and its JSON body.
type Reply = (u16, String);

/// The `{"error": message}` reply.
fn error(status: u16, message: impl std::fmt::Display) -> Reply {
    let mut w = Writer::new();
    w.obj().key("error").str(message);
    (status, w.finish())
}

#[derive(Debug)]
enum ShardState {
    Pending,
    Leased { worker: String, expires: Instant },
    Completed,
    Quarantined,
}

#[derive(Debug)]
struct Shard {
    start: u64,
    end: u64,
    state: ShardState,
    attempts: u32,
    errors: Vec<String>,
}

/// Per-worker bookkeeping for the triage report.
#[derive(Debug, Default, Clone)]
pub struct WorkerStats {
    /// Leases granted.
    pub leased: u64,
    /// Shards completed.
    pub completed: u64,
    /// Failures reported (or leases expired out from under it).
    pub failed: u64,
}

/// What a finished campaign produced.
#[derive(Debug)]
pub struct Outcome {
    /// The merged campaign — `None` when quarantined shards left holes
    /// in the range (a merge around holes would silently lose seeds).
    pub merged: Option<MergedCampaign>,
    /// Where `merged.json` was written, when it was.
    pub merged_path: Option<PathBuf>,
    /// Where `triage.json` was written (always).
    pub triage_path: PathBuf,
    /// Quarantined shard count.
    pub quarantined: usize,
    /// Total lease reassignments over the campaign.
    pub reassignments: u64,
}

/// The coordinator. See the module docs for the protocol.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    shards: Vec<Shard>,
    wal: Wal,
    workers: BTreeMap<String, WorkerStats>,
    reassignments: u64,
    /// Crash-safe copy of every accepted shard result, keyed by shard
    /// index (`dir/results/`). A torn `shards/*.json` file no longer
    /// re-runs the shard: resume restores the bytes from here.
    results: cedar_store::Store,
    completions_since_checkpoint: usize,
}

impl Coordinator {
    /// Create a coordinator, resuming from `dir/journal.jsonl` when one
    /// exists: completed shards (with checksum-verified files) stay
    /// completed, quarantines stick, in-flight leases revert to
    /// pending. A journal whose campaign line disagrees with `cfg` is
    /// refused — resuming a different campaign into this directory
    /// would corrupt both.
    pub fn new(cfg: CoordinatorConfig) -> Result<Coordinator, String> {
        if cfg.seed_end <= cfg.seed_start {
            return Err(format!("empty seed range {}..{}", cfg.seed_start, cfg.seed_end));
        }
        if cfg.shard_size == 0 {
            return Err("shard size must be positive".into());
        }
        cfg.oracle()?;
        if cfg.jobs_check > LEAD_DIGESTS {
            return Err(format!(
                "jobs_check {} exceeds the {LEAD_DIGESTS} lead digests shards carry",
                cfg.jobs_check
            ));
        }
        std::fs::create_dir_all(cfg.dir.join("shards"))
            .map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
        let mut shards = Vec::new();
        let mut start = cfg.seed_start;
        while start < cfg.seed_end {
            let end = (start + cfg.shard_size).min(cfg.seed_end);
            shards.push(Shard {
                start,
                end,
                state: ShardState::Pending,
                attempts: 0,
                errors: Vec::new(),
            });
            start = end;
        }

        let results = cedar_store::Store::open(cfg.dir.join("results"))
            .map_err(|e| format!("open shard-result store: {e}"))?;
        let journal = cfg.dir.join("journal.jsonl");
        let fresh = !journal.exists();
        let mut me = Coordinator {
            wal: Wal::open(&journal).map_err(|e| format!("open journal: {e}"))?,
            cfg,
            shards,
            workers: BTreeMap::new(),
            reassignments: 0,
            results,
            completions_since_checkpoint: 0,
        };
        if fresh {
            me.append(Record::Campaign {
                seed_start: me.cfg.seed_start,
                seed_end: me.cfg.seed_end,
                shard_size: me.cfg.shard_size,
                config: me.cfg.config_name.clone(),
                jobs_check: me.cfg.jobs_check as u64,
                retry_budget: u64::from(me.cfg.retry_budget),
            })?;
        } else {
            me.resume(&journal)?;
        }
        Ok(me)
    }

    fn resume(&mut self, journal: &std::path::Path) -> Result<(), String> {
        let records = replay(journal)?;
        let Some(Record::Campaign { seed_start, seed_end, shard_size, config, .. }) =
            records.first()
        else {
            return Err("journal does not start with a campaign record".into());
        };
        if (*seed_start, *seed_end, *shard_size, config.as_str())
            != (self.cfg.seed_start, self.cfg.seed_end, self.cfg.shard_size, self.cfg.config_name.as_str())
        {
            return Err(format!(
                "journal is for campaign {seed_start}..{seed_end} shard {shard_size} config {config}; refusing to resume it as {}..{} shard {} config {}",
                self.cfg.seed_start, self.cfg.seed_end, self.cfg.shard_size, self.cfg.config_name
            ));
        }
        let mut resumed = 0usize;
        for rec in &records[1..] {
            match rec {
                Record::Campaign { .. } => return Err("duplicate campaign record".into()),
                // A lease in flight at the crash: its timer died with
                // the coordinator, so the shard is simply pending again
                // (unless a later record resolved it).
                Record::Leased { .. } => {}
                Record::Completed { shard, file, checksum } => {
                    let k = self.shard_index(*shard)?;
                    if self.restore_completed(k, file, checksum) {
                        resumed += 1;
                    }
                }
                Record::Checkpoint { reassignments, shards: snaps } => {
                    // The checkpoint *is* the folded history up to its
                    // append: reset the table and re-fold from the
                    // snapshot, then keep walking the tail.
                    for s in &mut self.shards {
                        s.state = ShardState::Pending;
                        s.attempts = 0;
                        s.errors.clear();
                    }
                    resumed = 0;
                    self.reassignments = *reassignments;
                    for snap in snaps {
                        let k = self.shard_index(snap.shard)?;
                        self.shards[k].attempts =
                            snap.attempts.try_into().unwrap_or(u32::MAX);
                        self.shards[k].errors = snap.errors.clone();
                        match snap.state.as_str() {
                            "completed" => {
                                let (Some(file), Some(checksum)) =
                                    (&snap.file, &snap.checksum)
                                else {
                                    return Err(format!(
                                        "checkpoint marks shard {} completed without file/checksum",
                                        snap.shard
                                    ));
                                };
                                if self.restore_completed(k, file, checksum) {
                                    resumed += 1;
                                }
                            }
                            "quarantined" => {
                                self.shards[k].state = ShardState::Quarantined
                            }
                            _ => self.shards[k].state = ShardState::Pending,
                        }
                    }
                }
                Record::Reassigned { shard, attempts, reason } => {
                    let k = self.shard_index(*shard)?;
                    self.shards[k].attempts = (*attempts).try_into().unwrap_or(u32::MAX);
                    self.shards[k].errors.push(reason.clone());
                    self.shards[k].state = ShardState::Pending;
                    self.reassignments += 1;
                }
                Record::Quarantined { shard, attempts, reason } => {
                    let k = self.shard_index(*shard)?;
                    self.shards[k].attempts = (*attempts).try_into().unwrap_or(u32::MAX);
                    self.shards[k].errors.push(reason.clone());
                    self.shards[k].state = ShardState::Quarantined;
                }
            }
        }
        eprintln!(
            "campaign: resumed from journal — {resumed} of {} shards already complete",
            self.shards.len()
        );
        Ok(())
    }

    /// Re-establish a completed shard from durable state: the
    /// `shards/` file when it verifies against the journaled checksum,
    /// else the crash-safe result store — healing the file back from
    /// the store copy. Only when **both** copies are gone or torn does
    /// the shard revert to pending and re-run: losing work is
    /// recoverable, merging garbage is not.
    fn restore_completed(&mut self, k: usize, file: &str, checksum: &str) -> bool {
        let path = self.cfg.dir.join(file);
        let file_ok = std::fs::read_to_string(&path)
            .is_ok_and(|text| format!("{:016x}", fnv1a(text.as_bytes())) == checksum);
        if file_ok {
            self.shards[k].state = ShardState::Completed;
            return true;
        }
        match self.results.get(k as u64) {
            Some(bytes) if format!("{:016x}", fnv1a(&bytes)) == checksum => {
                match cedar_store::atomic_write(&path, &bytes) {
                    Ok(()) => {
                        eprintln!(
                            "campaign: shard {k} file {} was missing/torn; healed from the result store",
                            path.display()
                        );
                        self.shards[k].state = ShardState::Completed;
                        true
                    }
                    Err(e) => {
                        eprintln!("campaign: shard {k}: could not heal {}: {e}; re-running", path.display());
                        self.shards[k].state = ShardState::Pending;
                        false
                    }
                }
            }
            _ => {
                eprintln!(
                    "campaign: shard {k} file {} failed verification and the result store has no good copy; re-running",
                    path.display()
                );
                self.shards[k].state = ShardState::Pending;
                false
            }
        }
    }

    fn shard_index(&self, shard: u64) -> Result<usize, String> {
        let k = shard as usize;
        if k >= self.shards.len() {
            return Err(format!("journal references shard {shard} of {}", self.shards.len()));
        }
        Ok(k)
    }

    fn append(&mut self, rec: Record) -> Result<(), String> {
        self.wal.append(&rec).map_err(|e| format!("journal append: {e}"))
    }

    /// Revoke expired leases; quarantine shards past their budget.
    fn expire_leases(&mut self, now: Instant) {
        for k in 0..self.shards.len() {
            let expired_worker = match &self.shards[k].state {
                ShardState::Leased { worker, expires } if *expires <= now => worker.clone(),
                _ => continue,
            };
            self.workers.entry(expired_worker.clone()).or_default().failed += 1;
            let reason = format!("lease-expired ({expired_worker})");
            self.revoke(k, reason);
        }
    }

    /// Common failure path: bump attempts, then reassign or quarantine.
    fn revoke(&mut self, k: usize, reason: String) {
        self.shards[k].attempts += 1;
        self.shards[k].errors.push(reason.clone());
        let attempts = u64::from(self.shards[k].attempts);
        let shard = k as u64;
        if self.shards[k].attempts > self.cfg.retry_budget {
            self.shards[k].state = ShardState::Quarantined;
            let _ = self.append(Record::Quarantined { shard, attempts, reason });
            eprintln!("campaign: shard {k} quarantined after {attempts} attempts: last failure: {}", self.shards[k].errors.last().map(String::as_str).unwrap_or(""));
        } else {
            self.shards[k].state = ShardState::Pending;
            self.reassignments += 1;
            let _ = self.append(Record::Reassigned { shard, attempts, reason });
        }
    }

    /// All shards resolved (completed or quarantined)?
    pub fn finished(&self) -> bool {
        self.shards
            .iter()
            .all(|s| matches!(s.state, ShardState::Completed | ShardState::Quarantined))
    }

    /// Handle one request. `now` is injected so tests can drive lease
    /// expiry without real sleeps where they want to.
    pub fn handle(&mut self, method: &str, path: &str, body: &str, now: Instant) -> (u16, String) {
        self.expire_leases(now);
        match (method, path) {
            ("POST", "/lease") => self.lease(body, now),
            ("POST", "/heartbeat") => self.heartbeat(body, now),
            ("POST", "/complete") => self.complete(body),
            ("POST", "/fail") => self.fail(body),
            ("GET", "/status") => (200, self.status_json()),
            _ => error(404, format_args!("no such endpoint: {method} {path}")),
        }
    }

    fn parse_worker(body: &str) -> Result<(Json, String), Reply> {
        let v = Json::parse(body).map_err(|e| error(400, format_args!("body is not JSON: {e}")))?;
        let worker = v.str_at("worker").map_err(|_| error(400, "missing worker name"))?.to_string();
        Ok((v, worker))
    }

    /// The shard a request names: an exact index ([`Json::u64_at`]; `-1`
    /// and `1.9` are refused, not saturated to a neighbour) of a shard
    /// that exists.
    fn parse_shard(&self, v: &Json) -> Result<usize, Reply> {
        if v.get("shard").is_none() {
            return Err(error(400, "missing shard index"));
        }
        let k = v.u64_at("shard").map_err(|e| error(400, e))?;
        usize::try_from(k)
            .ok()
            .filter(|k| *k < self.shards.len())
            .ok_or_else(|| error(404, format_args!("no shard {k}")))
    }

    fn lease(&mut self, body: &str, now: Instant) -> (u16, String) {
        let (_, worker) = match Self::parse_worker(body) {
            Ok(v) => v,
            Err(e) => return e,
        };
        if self.finished() {
            return (200, flags(&[("done", true)]));
        }
        let next = self
            .shards
            .iter()
            .position(|s| matches!(s.state, ShardState::Pending));
        match next {
            Some(k) => {
                self.shards[k].state =
                    ShardState::Leased { worker: worker.clone(), expires: now + self.cfg.lease };
                self.workers.entry(worker.clone()).or_default().leased += 1;
                if let Err(e) = self.append(Record::Leased { shard: k as u64, worker }) {
                    // Couldn't journal the lease: revert and make the
                    // worker retry rather than hand out unrecorded work.
                    self.shards[k].state = ShardState::Pending;
                    return error(500, e);
                }
                let mut w = Writer::new();
                w.obj().key("done").bool(false).key("shard").int(k);
                w.key("seed_start").int(self.shards[k].start);
                w.key("seed_end").int(self.shards[k].end);
                w.key("lease_ms").int(self.cfg.lease.as_millis());
                w.key("config").str(&self.cfg.config_name);
                (200, w.finish())
            }
            None => {
                // Everything is in flight; tell the worker when the
                // earliest lease could expire so it polls sensibly.
                let wait = self
                    .shards
                    .iter()
                    .filter_map(|s| match &s.state {
                        ShardState::Leased { expires, .. } => {
                            Some(expires.saturating_duration_since(now))
                        }
                        _ => None,
                    })
                    .min()
                    .unwrap_or(self.cfg.lease);
                let wait_ms = wait.as_millis().clamp(20, 2000);
                let mut w = Writer::new();
                w.obj().key("done").bool(false).key("wait_ms").int(wait_ms);
                (200, w.finish())
            }
        }
    }

    fn heartbeat(&mut self, body: &str, now: Instant) -> (u16, String) {
        let (v, worker) = match Self::parse_worker(body) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let k = match self.parse_shard(&v) {
            Ok(k) => k,
            Err(e) => return e,
        };
        match &mut self.shards[k].state {
            ShardState::Leased { worker: holder, expires } if *holder == worker => {
                *expires = now + self.cfg.lease;
                (200, flags(&[("ok", true)]))
            }
            // Lost the lease (expired, reassigned, or resolved): the
            // worker should stop — though if it completes anyway, the
            // result is still welcome (first result wins).
            _ => (200, flags(&[("ok", false)])),
        }
    }

    fn complete(&mut self, body: &str) -> (u16, String) {
        let (v, worker) = match Self::parse_worker(body) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let k = match self.parse_shard(&v) {
            Ok(k) => k,
            Err(e) => return e,
        };
        if matches!(self.shards[k].state, ShardState::Completed) {
            // A slow worker finishing after reassignment-and-completion:
            // the campaign content is deterministic, so the copies are
            // interchangeable. Idempotent accept.
            return (200, flags(&[("ok", true), ("duplicate", true)]));
        }
        let Ok(text) = v.str_at("summary") else {
            return error(400, "missing summary");
        };
        let summary = match ShardSummary::parse(text) {
            Ok(s) => s,
            Err(e) => {
                // A worker uploading garbage counts as a failed attempt
                // on this shard — repeated garbage quarantines it.
                self.workers.entry(worker).or_default().failed += 1;
                self.revoke(k, format!("unparseable shard summary: {e}"));
                return error(422, format_args!("bad summary: {e}"));
            }
        };
        if (summary.seed_start, summary.seed_end) != (self.shards[k].start, self.shards[k].end)
            || summary.skipped_for_budget != 0
            || summary.executed != summary.seed_end - summary.seed_start
        {
            self.workers.entry(worker).or_default().failed += 1;
            self.revoke(
                k,
                format!(
                    "shard {k} is {}..{} but summary covers {}..{} ({} executed, {} skipped)",
                    self.shards[k].start,
                    self.shards[k].end,
                    summary.seed_start,
                    summary.seed_end,
                    summary.executed,
                    summary.skipped_for_budget,
                ),
            );
            return error(422, "summary does not cover the shard");
        }
        let file = format!("shards/shard{k:04}.json");
        let bytes = summary.to_json();
        // Two durable copies, both crash-safe: the checksummed result
        // store (resume's healing source) and the plain shards/ file
        // (what merge and downstream tooling read), written atomically
        // so neither can be observed torn.
        if let Err(e) = self.results.put(k as u64, bytes.as_bytes()) {
            return error(500, format_args!("persist shard result: {e}"));
        }
        if let Err(e) = cedar_store::atomic_write(&self.cfg.dir.join(&file), bytes.as_bytes()) {
            return error(500, format_args!("persist shard: {e}"));
        }
        let checksum = format!("{:016x}", fnv1a(bytes.as_bytes()));
        if let Err(e) = self.append(Record::Completed { shard: k as u64, file, checksum }) {
            return error(500, e);
        }
        self.shards[k].state = ShardState::Completed;
        self.workers.entry(worker).or_default().completed += 1;
        self.completions_since_checkpoint += 1;
        if self.cfg.checkpoint_every > 0
            && self.completions_since_checkpoint >= self.cfg.checkpoint_every
        {
            // Compaction is best-effort: a failure leaves the plain
            // append-only journal, which replays fine.
            if let Err(e) = self.checkpoint_compact() {
                eprintln!("campaign: journal compaction failed (continuing uncompacted): {e}");
            } else {
                self.completions_since_checkpoint = 0;
            }
        }
        (200, flags(&[("ok", true)]))
    }

    /// Snapshot the shard table into a [`Record::Checkpoint`] and
    /// atomically rewrite the journal as `campaign` + `checkpoint`.
    /// The write goes through [`cedar_store::atomic_write`]
    /// (tmp + fsync + rename), so a crash mid-compaction leaves either
    /// the old journal or the new one — never a truncated hybrid — and
    /// the torn-final-line tolerance of replay still covers an append
    /// that dies later.
    fn checkpoint_compact(&mut self) -> Result<(), String> {
        let snaps: Vec<wal::ShardSnap> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(k, s)| {
                let state = match s.state {
                    ShardState::Completed => "completed",
                    ShardState::Quarantined => "quarantined",
                    // An in-flight lease snapshots as pending — its
                    // timer would not survive a restart anyway.
                    ShardState::Pending | ShardState::Leased { .. } => "pending",
                };
                if state == "pending" && s.attempts == 0 && s.errors.is_empty() {
                    return None;
                }
                let (file, checksum) = if state == "completed" {
                    let file = format!("shards/shard{k:04}.json");
                    let sum = std::fs::read(self.cfg.dir.join(&file))
                        .map(|b| format!("{:016x}", fnv1a(&b)))
                        .ok()?;
                    (Some(file), Some(sum))
                } else {
                    (None, None)
                };
                Some(wal::ShardSnap {
                    shard: k as u64,
                    state: state.into(),
                    attempts: u64::from(s.attempts),
                    file,
                    checksum,
                    errors: s.errors.clone(),
                })
            })
            .collect();
        let mut text = Record::Campaign {
            seed_start: self.cfg.seed_start,
            seed_end: self.cfg.seed_end,
            shard_size: self.cfg.shard_size,
            config: self.cfg.config_name.clone(),
            jobs_check: self.cfg.jobs_check as u64,
            retry_budget: u64::from(self.cfg.retry_budget),
        }
        .to_line();
        text.push_str(
            &Record::Checkpoint { reassignments: self.reassignments, shards: snaps }.to_line(),
        );
        let path = self.wal.path().to_path_buf();
        cedar_store::atomic_write(&path, text.as_bytes())
            .map_err(|e| format!("compact journal: {e}"))?;
        // The old appender's handle points at the renamed-away inode;
        // reopen so future appends land in the compacted journal.
        self.wal = Wal::open(&path).map_err(|e| format!("reopen journal: {e}"))?;
        Ok(())
    }

    fn fail(&mut self, body: &str) -> (u16, String) {
        let (v, worker) = match Self::parse_worker(body) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let k = match self.parse_shard(&v) {
            Ok(k) => k,
            Err(e) => return e,
        };
        if matches!(self.shards[k].state, ShardState::Completed | ShardState::Quarantined) {
            return (200, flags(&[("ok", true), ("stale", true)]));
        }
        let reason = v.str_at("error").unwrap_or("unspecified");
        self.workers.entry(worker.clone()).or_default().failed += 1;
        self.revoke(k, format!("{worker}: {reason}"));
        (200, flags(&[("ok", true)]))
    }

    fn status_json(&self) -> String {
        let mut pending = 0;
        let mut leased = 0;
        let mut completed = 0;
        let mut quarantined = 0;
        for s in &self.shards {
            match s.state {
                ShardState::Pending => pending += 1,
                ShardState::Leased { .. } => leased += 1,
                ShardState::Completed => completed += 1,
                ShardState::Quarantined => quarantined += 1,
            }
        }
        let mut w = Writer::new();
        w.obj().key("schema").str("cedar-campaign-status-v1");
        w.key("seed_start").int(self.cfg.seed_start).key("seed_end").int(self.cfg.seed_end);
        w.key("shards").int(self.shards.len());
        w.key("pending").int(pending).key("leased").int(leased);
        w.key("completed").int(completed).key("quarantined").int(quarantined);
        w.key("reassignments").int(self.reassignments);
        w.key("done").bool(self.finished());
        w.finish()
    }

    /// Merge completed shards and write the artifacts. Call after
    /// [`finished`](Coordinator::finished); the merged report is only
    /// written when *every* shard completed — quarantined holes make a
    /// whole-range report a lie, so those campaigns get triage only.
    pub fn finish(&mut self) -> Result<Outcome, String> {
        let mut summaries = Vec::new();
        for (k, s) in self.shards.iter().enumerate() {
            if matches!(s.state, ShardState::Completed) {
                let path = self.cfg.dir.join(format!("shards/shard{k:04}.json"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                summaries.push(ShardSummary::parse(&text)?);
            }
        }
        let quarantined: Vec<triage::QuarantinedShard> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.state, ShardState::Quarantined))
            .map(|(k, s)| triage::QuarantinedShard {
                shard: k as u64,
                seed_start: s.start,
                seed_end: s.end,
                attempts: u64::from(s.attempts),
                errors: s.errors.clone(),
            })
            .collect();

        let merged = if quarantined.is_empty() && !summaries.is_empty() {
            Some(merge_shards(&summaries, self.cfg.jobs_check, &self.cfg.oracle()?)?)
        } else {
            None
        };
        let merged_path = match &merged {
            Some(m) => {
                let path = self.cfg.dir.join("merged.json");
                cedar_store::atomic_write(&path, m.to_json().as_bytes())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                Some(path)
            }
            None => None,
        };
        let triage_path = self.cfg.dir.join("triage.json");
        let report = triage::triage_json(
            &self.cfg,
            self.shards.len() as u64,
            self.reassignments,
            &quarantined,
            merged.as_ref(),
            &self.workers,
        );
        cedar_store::atomic_write(&triage_path, report.as_bytes())
            .map_err(|e| format!("write {}: {e}", triage_path.display()))?;
        Ok(Outcome {
            merged,
            merged_path,
            triage_path,
            quarantined: quarantined.len(),
            reassignments: self.reassignments,
        })
    }

    /// Serve the protocol on `listener` until every shard is resolved,
    /// keep answering (`done` replies, mostly) for `linger` so slow
    /// workers exit cleanly, then [`finish`](Coordinator::finish).
    pub fn serve(mut self, listener: TcpListener, linger: Duration) -> Result<Outcome, String> {
        listener.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
        let mut finished_at: Option<Instant> = None;
        loop {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
                    stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
                    self.answer(&mut stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
            if self.finished() {
                let at = *finished_at.get_or_insert_with(Instant::now);
                if at.elapsed() >= linger {
                    break;
                }
            }
        }
        self.finish()
    }

    fn answer(&mut self, stream: &mut TcpStream) {
        match cedar_serve::http::read_request(stream) {
            Ok(req) => {
                let (status, body) =
                    self.handle(&req.method, &req.path, &req.body, Instant::now());
                cedar_serve::http::write_response(stream, status, &body);
            }
            Err(e) => {
                let (status, body) = error(400, format_args!("malformed request: {e}"));
                cedar_serve::http::write_response(stream, status, &body);
            }
        }
    }
}
