//! `cedar-campaign` — fault-tolerant distributed fuzzing campaigns
//! (DESIGN.md §13).
//!
//! `cedar-fuzz` proves the restructurer on a seed range inside one
//! process; this crate scales the same campaign across processes and
//! machines without giving up one bit of its determinism. A
//! **coordinator** ([`coordinator`]) shards the range and leases
//! shards to **workers** ([`worker`]) over the `cedar-serve` HTTP
//! stack; every coordinator state transition is one `put` of the
//! shard's row into a `cedar-store` before the reply, so killing the
//! coordinator and restarting it resumes where it was — completed
//! shards are never re-run, in-flight leases are simply pending again.
//!
//! The fault model, and the answer to each fault:
//!
//! * **worker crash / hang** — leases expire unless heartbeated; an
//!   expired lease returns its shard to the pending queue;
//! * **poison shard** — a shard that keeps failing (on *healthy*
//!   workers — each revocation counts) exhausts its retry budget and
//!   is quarantined with its full failure history for triage
//!   ([`triage`]), instead of wedging the campaign;
//! * **duplicated work** — completions are idempotent, first result
//!   wins; a slow worker finishing a reassigned shard is harmless
//!   because shard content is a pure function of the seed range;
//! * **corrupt uploads** — shard summaries are validated against the
//!   lease, stored in checksummed records, and the merged
//!   jobs-invariance check re-judges lead seeds from scratch, catching
//!   digest corruption end to end;
//! * **coordinator crash** — one `get` per shard row: the store cuts a
//!   torn tail, and a row that is missing or fails its checksum leaves
//!   its shard pending, to be run again.
//!
//! The payoff is the merge guarantee (tested in
//! `tests/campaign_cluster.rs` and gated in CI): the merged
//! `cedar-fuzz-v1` report is **byte-identical** to a single process
//! running the whole range, regardless of worker count, shard size,
//! crashes, or reassignments.

#![warn(missing_docs)]

pub mod coordinator;
pub mod triage;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, Outcome, WorkerStats};
pub use worker::{run_worker, WorkerConfig, WorkerReport};
