//! Emission backends: the restructured IR rendered into a concrete
//! dialect.
//!
//! The transform pipeline (`crate::passes`) is dialect-agnostic; what
//! varies is only how the final IR is spelled out. All three backends
//! print through the one streaming writer of `cedar_ir::print`, each in
//! its [`cedar_ir::print::Dialect`] (the table of spelling decisions is
//! on that type):
//!
//! * [`BackendKind::Cedar`] — Cedar Fortran, the paper's target: the
//!   parallel loop classes, `loop`/`endloop` pre/postamble markers,
//!   loop-local declarations, `global`/`cluster` placement lines and
//!   cascade synchronization.
//! * [`BackendKind::OpenMp`] — fixed-form Fortran with `!$omp parallel
//!   do` directives. DOALL nests become directive loops with
//!   `private(...)` clauses for their loop locals and `reduction(op:x)`
//!   clauses recovered from the partials machinery; DOACROSS nests (no
//!   OpenMP `ordered` analogue in our subset) print as serial loops
//!   without their cascades. Critical sections map to
//!   `omp_set_lock`/`omp_unset_lock`. Placement lines are omitted:
//!   OpenMP assumes flat shared memory, and the front end restores that
//!   model at lowering time by globalizing shared data.
//! * [`BackendKind::Serial`] — plain Fortran 77 emitted from the
//!   *original* (pre-restructuring) program with any hand-written
//!   directives demoted; the reference every other backend is compared
//!   against.
//!
//! Only a unit whose loops carry Cedar furniture (locals, a preamble or
//! a postamble) is copied and rewritten before the last two print it —
//! see `serial.rs`; everything else is printed from the borrowed IR.
//!
//! Every backend's output is legal input to `cedar_ir::compile_source`,
//! which is what the cross-backend comparator (`cedar-verify`) relies
//! on: re-parse each emission, simulate it, and demand agreement with
//! the serial reference.

use crate::report::Report;
use cedar_ir::Program;

mod cedar;
mod openmp;
mod serial;

pub use cedar::CedarFortran;
pub use openmp::OpenMp;
pub use serial::SerialF77;

/// The dialects a restructured program can be emitted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Cedar Fortran (the paper's dialect; the default).
    Cedar,
    /// Fixed-form Fortran with OpenMP `parallel do` directives.
    OpenMp,
    /// Plain serial Fortran 77 (the comparison reference).
    Serial,
}

impl BackendKind {
    /// Stable lower-case name, used in CLI flags, golden-file names and
    /// the `cedar-serve` request schema.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cedar => "cedar",
            BackendKind::OpenMp => "openmp",
            BackendKind::Serial => "serial",
        }
    }

    /// Every backend, in canonical order.
    pub fn all() -> [BackendKind; 3] {
        [BackendKind::Cedar, BackendKind::OpenMp, BackendKind::Serial]
    }

    /// Construct the backend implementation for this kind.
    pub fn backend(self) -> Box<dyn Backend> {
        match self {
            BackendKind::Cedar => Box::new(CedarFortran),
            BackendKind::OpenMp => Box::new(OpenMp),
            BackendKind::Serial => Box::new(SerialF77),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cedar" => Ok(BackendKind::Cedar),
            "openmp" => Ok(BackendKind::OpenMp),
            "serial" => Ok(BackendKind::Serial),
            other => Err(format!("unknown backend `{other}` (expected cedar, openmp or serial)")),
        }
    }
}

/// Everything a backend may draw on when emitting: the untouched input
/// program, the restructured program, and the pass pipeline's decision
/// report. The serial backend emits from `original`; the others from
/// `restructured`.
pub struct EmitInput<'a> {
    /// The program as compiled from the user's source, before any pass.
    pub original: &'a Program,
    /// The pipeline's output program.
    pub restructured: &'a Program,
    /// Per-loop decisions recorded by the pipeline.
    pub report: &'a Report,
}

/// One emission dialect. Implementations must be pure functions of the
/// input: no backend may feed information back into the transform
/// passes.
pub trait Backend {
    /// Which dialect this is.
    fn kind(&self) -> BackendKind;
    /// Render the program as fixed-form source text.
    fn emit(&self, input: &EmitInput<'_>) -> String;
}

/// Convenience: run the full restructure-and-emit path for one backend.
pub fn emit_with(
    kind: BackendKind,
    original: &Program,
    cfg: &crate::config::PassConfig,
) -> (String, Report) {
    let r = crate::driver::restructure(original, cfg);
    let input = EmitInput { original, restructured: &r.program, report: &r.report };
    (kind.backend().emit(&input), r.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PassConfig;
    use cedar_ir::compile_free;

    #[test]
    fn kind_names_round_trip() {
        for k in BackendKind::all() {
            assert_eq!(k.name().parse::<BackendKind>().unwrap(), k);
        }
        assert!("f90".parse::<BackendKind>().is_err());
    }

    #[test]
    fn cedar_backend_matches_printer() {
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\n\
             a(i) = b(i) * 2.0\nend do\nend\n",
        )
        .unwrap();
        let r = crate::driver::restructure(&p, &PassConfig::automatic_1991());
        let input = EmitInput { original: &p, restructured: &r.program, report: &r.report };
        assert_eq!(CedarFortran.emit(&input), cedar_ir::print::print_program(&r.program));
    }

    #[test]
    fn serial_backend_strips_hand_written_directives() {
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ncdoacross i = 2, n\n\
             call await(1, 1)\nb(i) = a(i) + b(i - 1)\ncall advance(1)\n\
             end cdoacross\nend\n",
        )
        .unwrap();
        let r = crate::driver::restructure(&p, &PassConfig::serial());
        let input = EmitInput { original: &p, restructured: &r.program, report: &r.report };
        let text = SerialF77.emit(&input);
        assert!(!text.contains("cdoacross"), "directive survived:\n{text}");
        assert!(!text.contains("await"), "cascade survived:\n{text}");
        assert!(text.contains("do i = 2, n"), "loop lost:\n{text}");
        // The output must be legal input to the front end.
        cedar_ir::compile_source(&text)
            .unwrap_or_else(|e| panic!("serial emission does not re-parse: {e}\n{text}"));
    }

    #[test]
    fn dialects_spell_tasking_locks_and_cascades_per_their_table() {
        // Hand-written Cedar Fortran with everything the dialects spell
        // differently, passed through unrestructured: a task, a lock
        // outside any loop, a cascade whose `await` is alone in an ELSE,
        // a shadowing loop local, a non-reduction pre/postamble, a
        // machine-wide library reduction.
        let p = compile_free(
            "program t\nreal a(10), s\ncall ctskstart(w, a, 10)\ncall tskwait\n\
             call lock(1)\ns = 1.0\ncall unlock(1)\ncdoacross i = 2, 10\n\
             if (i .gt. 3) then\na(i) = a(i - 1)\nelse\ncall await(1, 1)\nend if\n\
             call advance(1)\nend cdoacross\nxdoall i = 1, 10\nreal s\ns = 2.0\nloop\n\
             a(i) = s\nendloop\ncall lock(2)\na(1) = a(1) + s\ncall unlock(2)\n\
             end xdoall\nend\nsubroutine w(a, n)\nreal a(n)\na(1) = sum$x(a(1:n))\nend\n",
        )
        .unwrap();
        let r = crate::driver::restructure(&p, &PassConfig::serial());
        let input = EmitInput { original: &p, restructured: &r.program, report: &r.report };
        let decls =
            "      program t\n      real a(10)\n      real s\n      integer i\n      real s$1\n";
        let loops = "        do i = 2, 10\n          if (i .gt. 3) then\n            \
                     a(i) = a(i - 1)\n          end if\n        end do\n        s$1 = 2.0\n        \
                     do i = 1, 10\n          a(i) = s$1\n        end do\n";
        let w = "      subroutine w(a, n)\n      real a(n)\n      integer n\n        \
                 a(1) = sum(a(1:n))\n      end\n\n";
        assert_eq!(
            OpenMp.emit(&input),
            format!(
                "{decls}        call ctskstart(w, a(:), 10)\n        call tskwait\n        \
                 call omp_set_lock(1)\n        s = 1.0\n        call omp_unset_lock(1)\n{loops}        \
                 call omp_set_lock(2)\n        a(1) = a(1) + s$1\n        \
                 call omp_unset_lock(2)\n      end\n\n{w}"
            )
        );
        assert_eq!(
            SerialF77.emit(&input),
            format!(
                "{decls}        call w(a(:), 10)\n        s = 1.0\n{loops}        \
                 a(1) = a(1) + s$1\n      end\n\n{w}"
            )
        );
    }

    #[test]
    fn openmp_backend_emits_directives_for_doalls() {
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ndo i = 1, n\n\
             a(i) = b(i) * 2.0\nend do\nend\n",
        )
        .unwrap();
        let r = crate::driver::restructure(&p, &PassConfig::automatic_1991());
        let input = EmitInput { original: &p, restructured: &r.program, report: &r.report };
        let text = OpenMp.emit(&input);
        assert!(text.contains("!$omp parallel do"), "no directive:\n{text}");
        assert!(
            !text.contains("doall") && !text.contains("global "),
            "Cedar dialect leaked into OpenMP output:\n{text}"
        );
        // The directive must round-trip through the front end as a
        // machine-wide DOALL.
        let p2 = cedar_ir::compile_source(&text)
            .unwrap_or_else(|e| panic!("OpenMP emission does not re-parse: {e}\n{text}"));
        let u = p2.unit("s").unwrap();
        let cedar_ir::Stmt::Loop(l) = &u.body[0] else { panic!("{text}") };
        assert_eq!(l.class, cedar_ir::LoopClass::XDoall);
    }

    #[test]
    fn openmp_backend_recovers_reduction_clauses() {
        let p = compile_free(
            "subroutine s(a, n, t)\nreal a(n), t\ninteger n\nt = 0.0\n\
             do i = 1, n\nt = t + a(i)\nend do\nend\n",
        )
        .unwrap();
        let r = crate::driver::restructure(&p, &PassConfig::automatic_1991());
        let input = EmitInput { original: &p, restructured: &r.program, report: &r.report };
        let text = OpenMp.emit(&input);
        if cedar_ir::print::print_program(&r.program).contains("loop") {
            assert!(
                text.contains("reduction(+:t)"),
                "partials not folded into a reduction clause:\n{text}"
            );
            assert!(!text.contains("$r"), "partial temp leaked:\n{text}");
            // Re-lowering the clause must re-synthesize the partial
            // machinery: identity preamble, lock-guarded merge postamble.
            let p2 = cedar_ir::compile_source(&text)
                .unwrap_or_else(|e| panic!("does not re-parse: {e}\n{text}"));
            let u = p2.unit("s").unwrap();
            let cedar_ir::Stmt::Loop(l) = &u.body[1] else { panic!("{text}") };
            assert_eq!(l.preamble.len(), 1, "{text}");
            assert_eq!(l.postamble.len(), 3, "{text}");
        }
    }
}
