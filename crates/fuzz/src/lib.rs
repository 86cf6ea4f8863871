//! `cedar-fuzz` — deterministic Fortran loop-nest generator and
//! differential fuzzing harness for the Cedar restructurer
//! (DESIGN.md §11).
//!
//! The fuzzer closes the loop the hand-written test suite can't: it
//! generates unbounded families of well-formed Fortran 77 programs
//! biased toward the shapes each restructuring pass handles (DOALL
//! elementwise loops, reductions, recurrences, fusable pairs,
//! coalescable nests, privatizable work arrays, GIVs, ...), pushes each
//! through the full pipeline — f77 parse → analysis → restructure →
//! simulate — and judges the result with three oracle families
//! ([`oracle`]): differential (restructured memory vs serial
//! reference), metamorphic (fast-path ablation, full nest suppression,
//! CEDAR_JOBS invariance), and internal (race detector vs sync audit).
//!
//! Everything is a pure function of a `u64` seed ([`rng`], [`gen`]), so
//! every find replays from one integer; failures are minimized by a
//! structure-aware shrinker ([`shrink`]) and preserved as crash bundles
//! through the supervised engine and as corpus entries ([`corpus`])
//! that tier-1 CI replays forever. A campaign ([`campaign`]) additionally
//! gates on the transform-coverage ledger ([`coverage`]): a run that
//! never reached, say, loop coalescing fails even with zero
//! miscompiles, because it proved nothing about that pass.

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod latency;
pub mod mutate;
pub mod oracle;
pub mod persist;
pub mod rng;
pub mod shard;
pub mod shrink;

pub use campaign::{
    check_jobs_depth, run_campaign, CampaignConfig, CampaignSummary, FailureLine, LEAD_DIGESTS,
};
pub use corpus::{format_entry, load_dir, parse_entry, CorpusEntry};
pub use coverage::{Coverage, REQUIRED};
pub use gen::{GenProgram, Rendered, Shape, WatchVar};
pub use latency::Latency;
pub use mutate::{mutate, mutations};
pub use oracle::{run_oracles, OracleConfig, OracleFailure, OracleStats, Phase};
pub use persist::{combo, ComboStats, PersistentCorpus};
pub use rng::Rng;
pub use shard::merge_shards;
pub use shrink::{shrink, ShrinkOutcome};
