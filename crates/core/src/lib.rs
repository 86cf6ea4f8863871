#![warn(missing_docs)]
//! The Cedar Fortran restructurer — the paper's primary contribution.
//!
//! Translates sequential Fortran 77 (lowered to `cedar-ir`) into Cedar
//! Fortran: parallel loop nests in the right scheduling classes
//! (`SDOALL`/`CDOALL`/`XDOALL`/`*DOACROSS`), stripmined vector bodies,
//! privatized temporaries, `GLOBAL`/`CLUSTER` data placement, parallel
//! reductions, cascade synchronization, and two-version run-time
//! dependence tests.
//!
//! The pass set is controlled by [`PassConfig`], whose
//! [`config::Level`] is the paper's evaluation axis, one preset each:
//!
//! * [`PassConfig::serial`] — the serial identity (the baseline).
//! * [`PassConfig::automatic_1991`] — the techniques the 1991 KAP-based
//!   restructurer applied automatically (§3): dependence-based DOALL
//!   detection, scalar privatization, simple scalar reductions,
//!   stripmining, globalization, DOACROSS synchronization.
//! * [`PassConfig::manual_improved`] — adds the §4.1 techniques the
//!   authors applied by hand and planned to automate: array
//!   privatization, array-element & multi-statement reductions,
//!   generalized induction variables, the run-time dependence test,
//!   unordered critical sections, interprocedural summaries, loop
//!   fusion, and data partitioning.
//!
//! The restructurer is deliberately conservative: a loop is left serial
//! unless the enabled analyses prove the transformation legal, and every
//! decision is recorded in the [`report::Report`] for inspection.

pub mod backend;
pub mod classes;
pub mod coalesce;
pub mod config;
pub mod driver;
pub mod fusion;
pub mod globalize;
pub mod inline;
pub mod legality;
pub mod passes;
pub mod report;
pub mod sync_audit;
pub mod sync_insert;
pub mod vectorize;

pub use backend::{emit_with, Backend, BackendKind, EmitInput};
pub use config::PassConfig;
pub use driver::{restructure, RestructureResult};
pub use report::{LoopDecision, Report, SyncAuditFinding, Technique};

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_ir::compile_free;

    #[test]
    fn presets_differ() {
        let auto = PassConfig::automatic_1991();
        let manual = PassConfig::manual_improved();
        assert_eq!((auto.level, manual.level), (config::Level::Automatic, config::Level::Manual));
        assert!(!auto.loop_fusion && manual.loop_fusion);
        assert!(!auto.coalesce && manual.coalesce);
    }

    #[test]
    fn end_to_end_smoke() {
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\n\
             a(i) = b(i) * 2.0\nend do\nend\n",
        )
        .unwrap();
        let r = restructure(&p, &PassConfig::automatic_1991());
        let text = cedar_ir::print::print_program(&r.program);
        assert!(
            text.contains("xdoall") || text.contains("sdoall") || text.contains("cdoall"),
            "no parallel loop produced:\n{text}"
        );
    }
}
