//! JSON reader for request bodies.
//!
//! The parser itself lives in [`cedar_experiments::jsonio`] — it was
//! born here but moved down the stack when the campaign coordinator
//! needed to parse shard uploads and its state rows with the same
//! code. This module re-exports it so `cedar_serve::json::Json` (and
//! `cedar_serve::Json`) keep working for every existing caller.

pub use cedar_experiments::jsonio::Json;
