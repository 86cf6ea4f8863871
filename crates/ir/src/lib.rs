#![warn(missing_docs)]
//! Typed intermediate representation shared by the whole Cedar pipeline.
//!
//! The front end (`cedar-f77`) lowers into this IR, the restructurer
//! (`cedar-restructure`) rewrites it, the simulator (`cedar-sim`)
//! executes it, and [`mod@print`] renders it back as Cedar Fortran source.
//! Sequential Fortran 77 is the degenerate case (every loop has class
//! [`LoopClass::Seq`] and every placement is the cluster default), so
//! serial baselines and restructured programs flow through identical
//! machinery — the speedups the experiment harness reports are
//! internally consistent.
//!
//! Key concepts mirrored from the paper:
//!
//! * **Loop classes** (§2.1 Fig. 3): `CDOALL` (all CEs of one cluster,
//!   hardware microtasking), `SDOALL` (one CE per cluster), `XDOALL`
//!   (all CEs machine-wide), and the ordered `*DOACROSS` variants.
//! * **Data placement** (§2.1 Fig. 5): `GLOBAL`/`PROCESS COMMON` data has
//!   one copy in global memory; `CLUSTER`/`COMMON` data has one copy per
//!   cluster; loop-local data is private to each participating CE.
//! * **Cascade synchronization** (§2.1 Fig. 4): `await`/`advance` on
//!   numbered synchronization points inside DOACROSS loops, plus
//!   `lock`/`unlock` unordered critical sections (§4.1.6).
//! * **Runtime library** (§3.3): parallel reductions and recurrence
//!   solvers the restructurer substitutes for recognized loops.

pub mod expr;
pub mod furniture;
pub mod lower;
pub mod machine;
pub mod ops;
pub mod print;
pub mod program;
pub mod stmt;
pub mod symbol;
pub mod types;
pub mod visit;

pub use cedar_f77::ast::{LoopClass, RedOp, TypeSpec, Visibility};
pub use cedar_f77::Span;

pub use expr::{BinOp, Expr, Index, Intrinsic, ParMode, UnOp};
pub use lower::{lower, LowerError};
pub use machine::{Machine, Planning};
pub use program::{CommonBlock, Program, Unit, UnitId, UnitKind};
pub use stmt::{trip, trip_wide, LValue, Loop, Stmt, SyncOp};
pub use symbol::{Placement, SymKind, Symbol, SymbolId};
pub use types::{Ty, Value};

/// Timer pseudo-calls recognized by the simulator: `CALL TSTART` /
/// `CALL TSTOP` bracket the measured region (the paper reports routine
/// times, not whole-program times, for Table 1). They are no-ops for
/// every analysis.
pub fn is_timer_call(name: &str) -> bool {
    name == "tstart" || name == "tstop"
}

/// Convenience: parse fixed-form source and lower it in one step.
pub fn compile_source(src: &str) -> Result<Program, CompileError> {
    let ast = cedar_f77::parse_source(src).map_err(CompileError::Parse)?;
    lower(&ast).map_err(CompileError::Lower)
}

/// Convenience: parse free-form source and lower it in one step.
pub fn compile_free(src: &str) -> Result<Program, CompileError> {
    let ast = cedar_f77::parse_free(src).map_err(CompileError::Parse)?;
    lower(&ast).map_err(CompileError::Lower)
}

/// Either phase of [`compile_source`]/[`compile_free`] can fail.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Lex/parse error from the front end.
    Parse(cedar_f77::Error),
    /// AST→IR lowering error.
    Lower(LowerError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}
