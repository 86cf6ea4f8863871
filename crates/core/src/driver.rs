//! The restructuring driver: clones the input program and runs §3's
//! pipeline, with §4.1's techniques switched on by
//! [`crate::config::Level::Manual`].
//!
//! The transformations live in `crate::passes::*` and the modules they
//! call; emission to a concrete dialect lives behind
//! [`crate::backend::Backend`].

use crate::config::{Level, PassConfig};
use crate::passes::{nest, suppress};
use crate::report::{Report, Technique};
use crate::{fusion, globalize, inline, sync_audit};
use cedar_analysis::interproc::summarize;
use cedar_ir::Program;

/// Output of the restructurer.
pub struct RestructureResult {
    /// The rewritten program.
    pub program: Program,
    /// Per-loop decision log.
    pub report: Report,
}

/// Restructure a program under the given configuration. The input is
/// untouched; the result holds the rewritten program and the decision
/// report.
pub fn restructure(p: &Program, cfg: &PassConfig) -> RestructureResult {
    let mut program = p.clone();
    let mut report = Report::default();
    if cfg.level == Level::Serial {
        // The validation pass-through: demote suppressed hand-written
        // directive nests, restructure nothing.
        for unit in &mut program.units {
            suppress::demote_suppressed_directives(&unit.name, &mut unit.body, cfg, &mut report);
        }
    } else {
        // Inline expansion of small call sites (§4.1.1).
        if cfg.inline_expansion {
            inline::expand(&mut program);
        }
        // Interprocedural summaries for call-containing loops (§4.1.1).
        let summaries = (cfg.level == Level::Manual).then(|| summarize(&program));
        // Per unit, fuse adjacent loops, then classify and rewrite every
        // loop nest into its parallel form.
        for unit in &mut program.units {
            let fused_lines = if cfg.loop_fusion { fusion::fuse_unit(unit) } else { Vec::new() };
            let body = std::mem::take(&mut unit.body);
            let mut nctx = nest::NestCtx::new(cfg, summaries.as_ref(), &mut report);
            unit.body = nctx.transform_block(unit, body);
            // Credit fusion on the surviving loops' report entries (the
            // fused loop was classified above under its own header line).
            for l in report.loops.iter_mut() {
                if l.unit == unit.name
                    && fused_lines.contains(&l.span.line)
                    && !l.techniques.contains(&Technique::LoopFusion)
                {
                    l.techniques.push(Technique::LoopFusion);
                }
            }
        }
        // Data placement: promote shared data to `GLOBAL`/`CLUSTER` (§3.5).
        if cfg.globalize {
            globalize::run(&mut program, cfg);
        }
    }
    // Static audit of cascade/lock synchronization.
    sync_audit::audit(&program, &mut report);
    RestructureResult { program, report }
}
