//! The explicit pass pipeline behind [`crate::restructure`].
//!
//! Each pass is a [`ProgramPass`]: a named, whole-program rewrite that
//! reads the shared [`PipelineCtx`] (config, interprocedural summaries,
//! decision report). [`pipeline`] assembles the pass list for a
//! configuration; the driver just walks it. Passes are backend-neutral:
//! they produce parallel IR (`cedar-ir` with Cedar loop classes and
//! sync statements), and emission to a concrete dialect happens after
//! the pipeline, behind [`crate::backend::Backend`].

pub mod giv;
pub mod nest;
pub mod privatize;
pub mod reductions;
pub mod suppress;

#[cfg(test)]
mod tests;

use crate::config::PassConfig;
use crate::report::{Report, Technique};
use crate::{fusion, globalize, inline};
use cedar_analysis::interproc::{summarize, ProgramSummaries};
use cedar_ir::Program;

/// Shared state threaded through the pass list.
pub struct PipelineCtx<'a> {
    /// The pass configuration (immutable for the whole run).
    pub cfg: &'a PassConfig,
    /// Interprocedural summaries, filled by [`Summarize`].
    pub summaries: Option<ProgramSummaries>,
    /// Accumulated per-loop decision log.
    pub report: Report,
}

impl<'a> PipelineCtx<'a> {
    /// Fresh context for one pipeline run.
    pub fn new(cfg: &'a PassConfig) -> PipelineCtx<'a> {
        PipelineCtx { cfg, summaries: None, report: Report::default() }
    }
}

/// One named whole-program pass.
pub trait ProgramPass {
    /// Stable pass name (for logs and docs).
    fn name(&self) -> &'static str;
    /// Rewrite the program in place.
    fn run(&self, program: &mut Program, ctx: &mut PipelineCtx);
}

/// Assemble the pass list for a configuration.
///
/// With `parallelize` off the pipeline is the validation pass-through:
/// demote suppressed directive nests, audit what remains. Otherwise the
/// full restructuring sequence runs in the paper's order.
pub fn pipeline(cfg: &PassConfig) -> Vec<Box<dyn ProgramPass>> {
    if !cfg.parallelize {
        let mut v: Vec<Box<dyn ProgramPass>> = Vec::new();
        if !cfg.suppress_nests.is_empty() {
            v.push(Box::new(DemoteSuppressed));
        }
        v.push(Box::new(AuditSync));
        return v;
    }
    let mut v: Vec<Box<dyn ProgramPass>> = Vec::new();
    if cfg.inline_expansion {
        v.push(Box::new(InlineExpand));
    }
    if cfg.interprocedural {
        v.push(Box::new(Summarize));
    }
    v.push(Box::new(RestructureNests));
    if cfg.globalize {
        v.push(Box::new(Globalize));
    }
    v.push(Box::new(AuditSync));
    v
}

/// Demote suppressed hand-written directive nests to serial (the
/// `!parallelize` validation pass-through).
pub struct DemoteSuppressed;

impl ProgramPass for DemoteSuppressed {
    fn name(&self) -> &'static str {
        "demote-suppressed"
    }
    fn run(&self, program: &mut Program, ctx: &mut PipelineCtx) {
        for unit in &mut program.units {
            let name = unit.name.clone();
            suppress::demote_suppressed_directives(
                &name,
                &mut unit.body,
                ctx.cfg,
                &mut ctx.report,
            );
        }
    }
}

/// Inline expansion of small call sites (§4.1.1).
pub struct InlineExpand;

impl ProgramPass for InlineExpand {
    fn name(&self) -> &'static str {
        "inline-expand"
    }
    fn run(&self, program: &mut Program, _ctx: &mut PipelineCtx) {
        inline::expand(program);
    }
}

/// Compute interprocedural summaries for the legality analysis.
pub struct Summarize;

impl ProgramPass for Summarize {
    fn name(&self) -> &'static str {
        "summarize"
    }
    fn run(&self, program: &mut Program, ctx: &mut PipelineCtx) {
        ctx.summaries = Some(summarize(program));
    }
}

/// The central transform: per unit, fuse adjacent loops, then classify
/// and rewrite every loop nest into its parallel form.
pub struct RestructureNests;

impl ProgramPass for RestructureNests {
    fn name(&self) -> &'static str {
        "restructure-nests"
    }
    fn run(&self, program: &mut Program, ctx: &mut PipelineCtx) {
        for unit in &mut program.units {
            let fused_lines =
                if ctx.cfg.loop_fusion { fusion::fuse_unit(unit) } else { Vec::new() };
            let body = std::mem::take(&mut unit.body);
            let mut nctx = nest::NestCtx::new(ctx.cfg, ctx.summaries.as_ref(), &mut ctx.report);
            unit.body = nctx.transform_block(unit, body);
            // Credit fusion on the surviving loops' report entries (the
            // fused loop was classified above under its own header line).
            for l in ctx.report.loops.iter_mut() {
                if l.unit == unit.name
                    && fused_lines.contains(&l.span.line)
                    && !l.techniques.contains(&Technique::LoopFusion)
                {
                    l.techniques.push(Technique::LoopFusion);
                }
            }
        }
    }
}

/// Data placement: promote shared data to `GLOBAL`/`CLUSTER` (§3.5).
pub struct Globalize;

impl ProgramPass for Globalize {
    fn name(&self) -> &'static str {
        "globalize"
    }
    fn run(&self, program: &mut Program, ctx: &mut PipelineCtx) {
        globalize::run(program, ctx.cfg);
    }
}

/// Static audit of cascade/lock synchronization.
pub struct AuditSync;

impl ProgramPass for AuditSync {
    fn name(&self) -> &'static str {
        "audit-sync"
    }
    fn run(&self, program: &mut Program, ctx: &mut PipelineCtx) {
        crate::sync_audit::audit(program, &mut ctx.report);
    }
}
