//! OpenMP Fortran emission.
//!
//! The restructured program is printed in [`Dialect::OpenMp`]:
//! fixed-form Fortran whose only parallel construct is `!$omp parallel
//! do`.
//!
//! * DOALL nests (any Cedar class) become directive loops. Loop locals
//!   hoist to unit scope and reappear in a `private(...)` clause; the
//!   scalar reduction partials (identity preamble, body accumulation
//!   into the partial, lock-protected postamble merge) that
//!   `cedar_ir::furniture::scalar_reductions` reads back become
//!   `reduction(op:x)` clauses, with the partial renamed to its target
//!   in the body. A pre/postamble that is not reduction-shaped has no
//!   OpenMP spelling, so that loop falls back to serial.
//! * DOACROSS nests print as serial loops (our OpenMP subset has no
//!   cross-iteration cascade analogue); `await`/`advance` calls are
//!   dropped, which is exactly their one-participant meaning.
//! * Critical sections print as `call omp_set_lock(id)` /
//!   `call omp_unset_lock(id)`; the front end lowers those names back
//!   to the same [`SyncOp`](cedar_ir::SyncOp)s.
//! * Cedar placement (`global`/`cluster`) lines are omitted: OpenMP
//!   assumes flat shared memory. The front end restores that model when
//!   it lowers a directive program, by placing shared data in global
//!   memory.
//!
//! Only the first item moves anything, and only units with loop
//! furniture go through it (see [`super::serial`]); the rest is the
//! dialect's spelling.
//!
//! Scheduling-class distinctions (`CDOALL` vs `SDOALL` vs `XDOALL`) are
//! deliberately not encoded: every directive loop re-parses as a
//! machine-wide `XDOALL`. Cross-backend comparison is about *values*,
//! not cycle counts, and DOALL semantics are identical across classes.

use super::serial::without_furniture;
use super::{Backend, BackendKind, EmitInput};
use cedar_ir::furniture::scalar_reductions;
use cedar_ir::print::{print_unit_as, program_text, Dialect, OmpReduction};
use cedar_ir::visit::rename_symbols;
use cedar_ir::{Loop, Unit};

/// The OpenMP backend.
pub struct OpenMp;

impl Backend for OpenMp {
    fn kind(&self) -> BackendKind {
        BackendKind::OpenMp
    }

    fn emit(&self, input: &EmitInput<'_>) -> String {
        program_text(input.restructured, |u, out| {
            // The writer numbers directive loops as it prints them; this
            // numbers them in the same order, outer before inner.
            let mut reductions = Vec::new();
            let mut directives = 0;
            let u = without_furniture(u, &mut |u, l| {
                let kept = l.class.is_parallel()
                    && !l.class.is_ordered()
                    && fold_reductions(u, l, directives, &mut reductions);
                directives += kept as usize;
                kept
            });
            print_unit_as(&u, Dialect::OpenMp { reductions: &reductions }, out);
        })
    }
}

/// Fold the partials [`scalar_reductions`] reads back into clause
/// form: empty the pre/postamble, rename each partial to its target in
/// the body, drop it from the locals and push one clause for it.
/// `false` means the pre/postamble has some other shape (the loop is
/// untouched and must become serial).
fn fold_reductions(
    u: &Unit,
    l: &mut Loop,
    directive: usize,
    clauses: &mut Vec<OmpReduction>,
) -> bool {
    let Some(reductions) = scalar_reductions(u, l) else {
        return false;
    };
    for (op, target, partial) in reductions {
        rename_symbols(&mut l.body, &mut |x| if x == partial { target } else { x });
        l.locals.retain(|x| *x != partial);
        clauses.push(OmpReduction { directive, op, target });
    }
    l.preamble.clear();
    l.postamble.clear();
    true
}
