//! `cedar-serve` — the restructurer as a long-running, fault-tolerant
//! service.
//!
//! The batch binaries answer "restructure this file once"; this crate
//! answers "keep restructuring whatever arrives, and stay up". It
//! accepts Fortran 77 source over a hand-rolled HTTP/1.1 + JSON
//! protocol (std-only: `TcpListener`, no external dependencies) and
//! returns the restructured Cedar Fortran, the transformation report,
//! simulation statistics, and a verification verdict.
//!
//! The robustness layer between socket and restructurer:
//!
//! * **admission control** — a bounded queue; overload is shed with a
//!   structured 429 instead of building backlog ([`server`]);
//! * **deadlines** — per-request wall-clock budgets enforced through
//!   the supervised-cell cancel tokens ([`engine`]);
//! * **retries with degradation** — failed attempts back off with
//!   deterministic jitter and walk the `supervise` ladder (normal →
//!   no-fast-paths → races-on → serial) before a request is
//!   quarantined with a crash-bundle reference ([`engine`]);
//! * **circuit breaking** — a pass configuration that keeps needing
//!   rescue starts subsequent requests at the rung that saves it
//!   ([`breaker`]);
//! * **coalescing** — identical in-flight requests share one
//!   computation ([`server`]); a later repeat is answered by the store
//!   when one is configured and recomputed when not — the service holds
//!   no unbounded memo;
//! * **write-behind persistence** — with a store, a 200 goes out before
//!   its durable put, which one writer thread performs; until then a
//!   repeat is answered from the flight record ([`server`]);
//! * **graceful shutdown** — draining finishes admitted work, new
//!   arrivals get 503, and the process leaves with every reply it
//!   answered on disk ([`server`]);
//! * **structured errors** — the full `SimError` taxonomy and the
//!   repo's exit classes map to stable `error.kind` strings; panic
//!   payloads never leak to clients ([`error`]).
//!
//! Binaries: `serve` runs the server; `loadtest` replays the
//! `cedar-fuzz` generator against an in-process server under
//! `CEDAR_CHAOS` and writes latency/throughput/shed/recovery numbers
//! to `target/BENCH_serve.json`.

#![warn(missing_docs)]

pub mod breaker;
pub mod engine;
pub mod error;
pub mod http;
pub mod json;
pub mod server;

pub use breaker::Breaker;
pub use engine::{handle, EngineConfig, Handled, ServeRequest};
pub use json::Json;
pub use server::{Server, ServerConfig};
