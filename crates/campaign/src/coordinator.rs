//! The campaign coordinator: shards a seed range, leases shards to
//! workers, survives worker crashes (lease expiry → reassignment) and
//! its own (one row per shard in a `cedar-store` → resume), quarantines
//! poison shards, and folds completed shards into the byte-deterministic
//! merged report.
//!
//! The coordinator is a state machine over HTTP
//! ([`Coordinator::handle`] maps one request to one reply), wrapped in
//! a tiny single-threaded server loop ([`Coordinator::serve`]) — the
//! requests are all sub-millisecond lookups, so the serve stack's
//! worker pool and admission queue would be dead weight here.
//!
//! Its only durable state is the store at `dir/state/`. Key `k` holds
//! shard `k`'s row — state, attempts, reassignments, errors and, once
//! completed, the summary — and key `u64::MAX` the campaign's seed
//! range, shard size and configuration. A completion, a reassignment
//! and a quarantine are each one `put` of the shard's row, made before
//! the reply is sent; a lease writes nothing, so a lease in flight when
//! the coordinator dies is pending again after the restart. Resume is
//! one `get` per shard: a row the store has not got, or counts corrupt,
//! leaves its shard pending to be run again.
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
use cedar_experiments::jsonio::{flags, Json, Writer};
use cedar_fuzz::shard::{merge_shards, MergedCampaign, ShardSummary, LEAD_DIGESTS};
use cedar_fuzz::OracleConfig;
use cedar_store::Store;
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
    /// Campaign directory: `state/` (the store of shard rows),
    /// `merged.json`, `triage.json`.
    pub dir: PathBuf,
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
    /// Revocations that returned the shard to pending; the campaign's
    /// count is the sum over its shards.
    reassignments: u64,
    errors: Vec<String>,
}

/// The state store's key of the campaign's identity; shard `k` is key `k`.
const IDENTITY: u64 = u64::MAX;

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
    workers: BTreeMap<String, WorkerStats>,
    /// Every shard's row and the campaign's identity (`dir/state/`).
    state: Store,
}

impl Coordinator {
    /// Create a coordinator, resuming from `dir/state/` when it holds
    /// this campaign: completed shards stay completed, quarantines
    /// stick, everything else is pending. A store that holds another
    /// campaign, or shard rows without a readable identity, is refused —
    /// resuming a different campaign into this directory would corrupt
    /// both.
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
        let mut shards = Vec::new();
        let mut start = cfg.seed_start;
        while start < cfg.seed_end {
            let end = (start + cfg.shard_size).min(cfg.seed_end);
            shards.push(Shard {
                start,
                end,
                state: ShardState::Pending,
                attempts: 0,
                reassignments: 0,
                errors: Vec::new(),
            });
            start = end;
        }

        let root = cfg.dir.join("state");
        let state = Store::open(&root).map_err(|e| format!("open campaign state: {e}"))?;
        let mut w = Writer::new();
        w.obj().key("seed_start").int(cfg.seed_start).key("seed_end").int(cfg.seed_end);
        w.key("shard_size").int(cfg.shard_size).key("config").str(&cfg.config_name);
        let identity = w.finish();
        let mut me = Coordinator { cfg, shards, workers: BTreeMap::new(), state };
        match me.state.get(IDENTITY) {
            Some(held) if held == identity.as_bytes() => me.resume()?,
            Some(held) => {
                return Err(format!(
                    "{} holds campaign {}; refusing to resume it as {identity}",
                    root.display(),
                    String::from_utf8_lossy(&held)
                ))
            }
            None if !me.state.is_empty() => {
                return Err(format!(
                    "{} holds shard rows but no readable campaign identity; refusing to adopt them",
                    root.display()
                ))
            }
            None => me.state.put(IDENTITY, identity.as_bytes()).map_err(|e| e.to_string())?,
        }
        Ok(me)
    }

    fn resume(&mut self) -> Result<(), String> {
        for k in 0..self.shards.len() {
            let Some(row) = self.row(k)? else { continue };
            let shard = &mut self.shards[k];
            shard.attempts = row.u64_at("attempts")?.try_into().unwrap_or(u32::MAX);
            shard.reassignments = row.u64_at("reassignments")?;
            shard.errors = row.strs_at("errors")?;
            shard.state = match row.str_at("state")? {
                "completed" => ShardState::Completed,
                "quarantined" => ShardState::Quarantined,
                _ => ShardState::Pending,
            };
        }
        let resumed = self.shards.iter().filter(|s| matches!(s.state, ShardState::Completed));
        eprintln!(
            "campaign: resumed — {} of {} shards already complete, {} corrupt rows to re-run",
            resumed.count(),
            self.shards.len(),
            self.state.stats().corrupt_recovered
        );
        Ok(())
    }

    /// Shard `k`'s row, `None` when the store has no whole copy of it.
    fn row(&self, k: usize) -> Result<Option<Json>, String> {
        let Some(bytes) = self.state.get(k as u64) else { return Ok(None) };
        let text = String::from_utf8(bytes).map_err(|e| format!("shard {k}'s row: {e}"))?;
        Json::parse(&text).map(Some).map_err(|e| format!("shard {k}'s row: {e}"))
    }

    /// Make shard `k`'s row durable as `state`, with the summary of a
    /// completed shard: one `put`, synced before it returns.
    fn put_row(&self, k: usize, state: &str, summary: Option<&str>) -> Result<(), String> {
        let shard = &self.shards[k];
        let mut w = Writer::new();
        w.obj().key("state").str(state).key("attempts").int(shard.attempts);
        w.key("reassignments").int(shard.reassignments).key("errors").strs(&shard.errors);
        if let Some(summary) = summary {
            w.key("summary").str(summary);
        }
        let row = w.finish();
        self.state.put(k as u64, row.as_bytes()).map_err(|e| format!("shard {k}: {e}"))
    }

    fn reassignments(&self) -> u64 {
        self.shards.iter().map(|s| s.reassignments).sum()
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
    /// A row that cannot be written is reported; the transition stands
    /// in memory, and a restart runs the shard again.
    fn revoke(&mut self, k: usize, reason: String) {
        let shard = &mut self.shards[k];
        shard.attempts += 1;
        let state = if shard.attempts > self.cfg.retry_budget {
            shard.state = ShardState::Quarantined;
            let attempts = shard.attempts;
            eprintln!("campaign: shard {k} quarantined after {attempts} attempts: last failure: {reason}");
            "quarantined"
        } else {
            shard.state = ShardState::Pending;
            shard.reassignments += 1;
            "pending"
        };
        shard.errors.push(reason);
        if let Err(e) = self.put_row(k, state, None) {
            eprintln!("campaign: cannot persist {e}; a restart runs the shard again");
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
                self.workers.entry(worker).or_default().leased += 1;
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
        if let Err(e) = self.put_row(k, "completed", Some(&summary.to_json())) {
            return error(500, format_args!("persist shard result: {e}"));
        }
        self.shards[k].state = ShardState::Completed;
        self.workers.entry(worker).or_default().completed += 1;
        (200, flags(&[("ok", true)]))
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
        w.key("reassignments").int(self.reassignments());
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
                let row = self.row(k)?.ok_or_else(|| format!("shard {k}'s row left the store"))?;
                summaries.push(ShardSummary::parse(row.str_at("summary")?)?);
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
            self.reassignments(),
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
            reassignments: self.reassignments(),
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
