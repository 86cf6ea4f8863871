//! The five workloads. Each module's doc comment says what one
//! iteration is and why the workload exists.

pub mod compile_corpus;
pub mod paper_suite;
pub mod serve;
pub mod validate_pool;

pub use compile_corpus::CompileCorpus;
pub use paper_suite::PaperSuite;
pub use serve::{ServeCold, ServeReplay};
pub use validate_pool::ValidatePool;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "paper_suite",
    "validate_pool",
    "compile_corpus",
    "serve_cold",
    "serve_replay",
];
