//! Plain Fortran 77 emission: the serial reference.
//!
//! Emits from the *original* program (the restructurer's input) in
//! [`Dialect::Serial`]: every loop class prints as a plain `DO`, all
//! synchronization disappears (single thread), task starts print as
//! plain calls and task waits disappear, parallel library-reduction
//! variants (`sum$x` …) print as their serial intrinsics, and no
//! placement lines are emitted. Those are spelling, decided while
//! printing.
//!
//! What a dialect cannot decide while printing is where a statement or
//! a declaration *goes*. A unit whose loops carry Cedar furniture is
//! copied and rewritten first ([`splice_furniture`]):
//!
//! * loop-local declarations hoist to unit scope (renamed if the name
//!   is shadowed elsewhere — symbol references are by id, so a rename
//!   is just a table edit);
//! * pre/postambles splice around the loop (a serial loop is a
//!   one-participant schedule, so "once per participant" means once).
//!
//! A sequential input has no such unit and is printed as it stands.

use super::{Backend, BackendKind, EmitInput};
use cedar_ir::print::{print_unit_as, program_text, Dialect};
use cedar_ir::visit::walk_stmts;
use cedar_ir::{Loop, LoopClass, Stmt, SymKind, SymbolId, Unit};
use std::borrow::Cow;

/// The serial-F77 backend.
pub struct SerialF77;

impl Backend for SerialF77 {
    fn kind(&self) -> BackendKind {
        BackendKind::Serial
    }

    fn emit(&self, input: &EmitInput<'_>) -> String {
        program_text(input.original, |u, out| {
            let u = without_furniture(u, &mut |_, _| false);
            print_unit_as(&u, Dialect::Serial, out);
        })
    }
}

/// The unit itself if none of its loops has locals, a preamble or a
/// postamble; otherwise a copy put through [`splice_furniture`].
pub(super) fn without_furniture<'a>(
    u: &'a Unit,
    keep: &mut impl FnMut(&Unit, &mut Loop) -> bool,
) -> Cow<'a, Unit> {
    let mut furnished = false;
    walk_stmts(&u.body, &mut |s| {
        if let Stmt::Loop(l) = s {
            furnished |= !(l.locals.is_empty() && l.preamble.is_empty() && l.postamble.is_empty());
        }
    });
    if !furnished {
        return Cow::Borrowed(u);
    }
    let mut u = u.clone();
    let mut body = std::mem::take(&mut u.body);
    splice_furniture(&mut u, &mut body, keep);
    u.body = body;
    Cow::Owned(u)
}

/// Hoist the locals of every loop in `body` to unit scope. A loop that
/// `keep` accepts stays a loop of its class with its body rewritten (it
/// is `keep`'s job to dispose of the pre/postamble); any other loop
/// becomes a `DO` with its pre/postamble spliced before and after it.
fn splice_furniture(
    u: &mut Unit,
    body: &mut Vec<Stmt>,
    keep: &mut impl FnMut(&Unit, &mut Loop) -> bool,
) {
    let mut out = Vec::with_capacity(body.len());
    for s in body.drain(..) {
        match s {
            Stmt::Loop(mut l) => {
                let kept = keep(u, &mut l);
                hoist_locals(u, &l.locals);
                if kept {
                    splice_furniture(u, &mut l.body, keep);
                    out.push(Stmt::Loop(l));
                    continue;
                }
                l.class = LoopClass::Seq;
                splice_furniture(u, &mut l.preamble, keep);
                splice_furniture(u, &mut l.body, keep);
                splice_furniture(u, &mut l.postamble, keep);
                out.append(&mut l.preamble);
                let mut post = std::mem::take(&mut l.postamble);
                out.push(Stmt::Loop(l));
                out.append(&mut post);
            }
            mut other => {
                match &mut other {
                    Stmt::If { then_body, elifs, else_body, .. } => {
                        splice_furniture(u, then_body, keep);
                        for (_, b) in elifs {
                            splice_furniture(u, b, keep);
                        }
                        splice_furniture(u, else_body, keep);
                    }
                    Stmt::DoWhile { body, .. } => splice_furniture(u, body, keep),
                    _ => {}
                }
                out.push(other);
            }
        }
    }
    *body = out;
}

/// Turn a loop's locals into ordinary unit-scope variables. References
/// are by [`SymbolId`], so only the symbol table changes; a rename is
/// needed only when the local's name shadows another symbol (the
/// emitted unit-level declarations must stay unambiguous for re-parse).
fn hoist_locals(u: &mut Unit, locals: &[SymbolId]) {
    for &id in locals {
        let name = &u.symbol(id).name;
        let shadowed =
            u.symbols.iter().enumerate().any(|(i, s)| i != id.index() && s.name == *name);
        if shadowed {
            let fresh = u.fresh_name(name);
            u.symbol_mut(id).name = fresh;
        }
        u.symbol_mut(id).kind = SymKind::Local;
    }
}
