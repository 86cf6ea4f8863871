//! Validation-fallback suppression: demote directive nests the
//! differential validator implicated in a race or divergence.

use crate::config::PassConfig;
use crate::report::{LoopDecision, Report};
use cedar_ir::{Loop, LoopClass, Stmt, SyncOp};

/// Remove `await`/`advance` statements from a demoted loop body. Stops
/// at nested *ordered* loops — their cascades still order their own
/// iterations. Locks stay: serially they only cost cycles, and they may
/// guard updates shared with other parallel loops.
fn strip_cascades(body: &mut Vec<Stmt>) {
    body.retain(|s| !matches!(s, Stmt::Sync(SyncOp::Await { .. } | SyncOp::Advance { .. })));
    for s in body {
        match s {
            Stmt::If { then_body, elifs, else_body, .. } => {
                strip_cascades(then_body);
                for (_, b) in elifs {
                    strip_cascades(b);
                }
                strip_cascades(else_body);
            }
            Stmt::DoWhile { body, .. } => strip_cascades(body),
            Stmt::Loop(l) if !l.class.is_ordered() => strip_cascades(&mut l.body),
            _ => {}
        }
    }
}

/// Demote a suppressed hand-written parallel loop to serial: host order
/// satisfies every dependence, so its cascades become no-ops and are
/// stripped (an `await` outside a DOACROSS schedule would stall).
pub fn demote_directive(unit_name: &str, l: &mut Loop, report: &mut Report) {
    l.class = LoopClass::Seq;
    strip_cascades(&mut l.body);
    report.record(
        unit_name,
        l.span,
        LoopDecision::Serial {
            reason: "directive nest suppressed by differential validation".into(),
        },
        Vec::new(),
    );
    report.record_fallback(
        unit_name,
        l.span,
        "directive nest demoted to serial (validation fallback)",
    );
}

/// Demote every suppressed hand-written parallel loop to serial (see
/// [`demote_directive`]); used by the serial level's pass-through,
/// where no nest context exists.
pub fn demote_suppressed_directives(
    unit_name: &str,
    body: &mut Vec<Stmt>,
    cfg: &PassConfig,
    report: &mut Report,
) {
    for s in body {
        match s {
            Stmt::Loop(l) => {
                if l.class != LoopClass::Seq && cfg.is_suppressed(unit_name, l.span.line) {
                    demote_directive(unit_name, l, report);
                }
                demote_suppressed_directives(unit_name, &mut l.body, cfg, report);
            }
            Stmt::If { then_body, elifs, else_body, .. } => {
                demote_suppressed_directives(unit_name, then_body, cfg, report);
                for (_, b) in elifs {
                    demote_suppressed_directives(unit_name, b, cfg, report);
                }
                demote_suppressed_directives(unit_name, else_body, cfg, report);
            }
            Stmt::DoWhile { body, .. } => {
                demote_suppressed_directives(unit_name, body, cfg, report);
            }
            _ => {}
        }
    }
}
