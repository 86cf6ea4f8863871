//! The per-unit nest transform: classify every loop nest and rewrite it
//! into its parallel form, mirroring §3's pipeline with §4.1's
//! techniques as configured extensions.

use crate::classes::{self, NestPlan};
use crate::config::PassConfig;
use crate::legality::{self, Verdict};
use crate::passes::giv::apply_giv;
use crate::passes::suppress::demote_directive;
use crate::report::{LoopDecision, Report, Technique};
use crate::{coalesce, sync_insert, vectorize};
use cedar_analysis::interproc::ProgramSummaries;
use cedar_analysis::reduction::Reduction;
use cedar_ir::furniture::{combine, privatize, reduction_partials};
use cedar_ir::{BinOp, Expr, Intrinsic, LValue, Loop, LoopClass, ParMode, Stmt, SymbolId, Unit};

/// Per-unit transform state: configuration, summaries, the shared
/// report, and the sync-point/lock allocators (reset per unit).
pub struct NestCtx<'a> {
    cfg: &'a PassConfig,
    summaries: Option<&'a ProgramSummaries>,
    report: &'a mut Report,
    next_sync_point: u32,
    next_lock: u32,
}

struct InnerInfo {
    pos: usize,
    vectorizable: bool,
    private_scalars: Vec<SymbolId>,
}

impl<'a> NestCtx<'a> {
    /// Fresh context for one unit.
    pub fn new(
        cfg: &'a PassConfig,
        summaries: Option<&'a ProgramSummaries>,
        report: &'a mut Report,
    ) -> NestCtx<'a> {
        NestCtx { cfg, summaries, report, next_sync_point: 1, next_lock: 100 }
    }

    /// Transform a statement block, rewriting every loop it contains.
    pub fn transform_block(&mut self, unit: &mut Unit, body: Vec<Stmt>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(body.len());
        for s in body {
            match s {
                Stmt::Loop(l) => out.extend(self.transform_loop(unit, l)),
                Stmt::If { cond, then_body, elifs, else_body, span } => {
                    out.push(Stmt::If {
                        cond,
                        then_body: self.transform_block(unit, then_body),
                        elifs: elifs
                            .into_iter()
                            .map(|(c, b)| (c, self.transform_block(unit, b)))
                            .collect(),
                        else_body: self.transform_block(unit, else_body),
                        span,
                    });
                }
                Stmt::DoWhile { cond, body, span } => {
                    out.push(Stmt::DoWhile { cond, body: self.transform_block(unit, body), span });
                }
                other => out.push(other),
            }
        }
        out
    }

    /// Transform one loop (possibly recursively its children) into its
    /// replacement statements.
    fn transform_loop(&mut self, unit: &mut Unit, l: Loop) -> Vec<Stmt> {
        let mut l = l;

        // A loop that is already parallel in the input is a user
        // directive (hand-written Cedar Fortran): keep it, but still
        // visit serial loops nested inside its body. A *suppressed*
        // directive nest (the validator implicated it in a race or a
        // divergence) is demoted to serial instead.
        if l.class != LoopClass::Seq {
            if self.cfg.is_suppressed(&unit.name, l.span.line) {
                demote_directive(&unit.name, &mut l, self.report);
            } else {
                l.body = self.transform_block(unit, std::mem::take(&mut l.body));
            }
            return vec![Stmt::Loop(l)];
        }

        // Suppressed nests (differential-validation fallback) stay
        // serial wholesale — including their inner loops, so the nest
        // runs exactly as written.
        if self.cfg.is_suppressed(&unit.name, l.span.line) {
            self.report.record(
                &unit.name,
                l.span,
                LoopDecision::Serial { reason: "suppressed by differential validation".into() },
                Vec::new(),
            );
            self.report.record_fallback(
                &unit.name,
                l.span,
                "nest reverted to serial (validation fallback)",
            );
            return vec![Stmt::Loop(l)];
        }

        let mut techniques: Vec<Technique> = Vec::new();
        let mut pre: Vec<Stmt> = Vec::new();
        let mut post: Vec<Stmt> = Vec::new();

        let mut verdict = legality::analyze(unit, &l, self.cfg, self.summaries);

        // ---- GIV substitution (§4.1.4) ----
        // Must fire whenever GIVs were recognized: the legality pass has
        // already excluded them from the blocking-scalar set on the
        // assumption that this substitution removes the recurrence.
        if !verdict.givs.is_empty() {
            let givs = std::mem::take(&mut verdict.givs);
            let mut applied = false;
            let mut failed = false;
            for g in &givs {
                if let Some((p, q)) = apply_giv(unit, &mut l, g) {
                    pre.extend(p);
                    post.extend(q);
                    applied = true;
                } else {
                    failed = true;
                }
            }
            if applied {
                techniques.push(Technique::GivSubstitution);
            }
            if failed {
                // Legality assumed the substitution would remove the
                // recurrence; it could not, so the loop must stay serial.
                self.report.record(
                    &unit.name,
                    l.span,
                    LoopDecision::Serial {
                        reason: "induction-variable shape not substitutable".into(),
                    },
                    techniques,
                );
                let body = std::mem::take(&mut l.body);
                l.body = self.transform_block(unit, body);
                let mut out = pre;
                out.push(Stmt::Loop(l));
                out.extend(post);
                return out;
            }
            verdict = legality::analyze(unit, &l, self.cfg, self.summaries);
        }

        if !verdict.private_scalars.is_empty() {
            techniques.push(Technique::ScalarPrivatization);
        }
        if !verdict.private_arrays.is_empty() {
            techniques.push(Technique::ArrayPrivatization);
        }
        for r in &verdict.reductions {
            techniques.push(if r.is_array || r.n_statements > 1 {
                Technique::ArrayReduction
            } else {
                Technique::ScalarReduction
            });
        }

        // ---- whole-loop library reduction (§3.3) ----
        if verdict.doall && verdict.reductions.len() == 1 && l.body.len() == 1 {
            let mode = self.reduction_mode(&l);
            if let Some(stmt) = self.library_reduction(unit, &l, &verdict.reductions[0], mode) {
                self.report.record(&unit.name, l.span, LoopDecision::LibraryReduction, techniques);
                pre.push(stmt);
                pre.extend(post);
                return pre;
            }
        }

        // ---- loop distribution (§3.3) ----
        // "To make use of a library routine, the restructurer must often
        // distribute an original loop to isolate those computations done
        // by library code." A DOALL loop mixing reduction statements
        // with other work splits into a rest-loop plus one loop per
        // reduction; the rest-loop runs first (its outputs may feed the
        // accumulations within the same iteration; the reverse cannot
        // happen because reduction targets are unreferenced elsewhere).
        if verdict.doall && !verdict.reductions.is_empty() && l.body.len() > 1 {
            if let Some((rest, red_loops)) = self.distribute(unit, &l, &verdict) {
                techniques.push(Technique::Distribution);
                let mut out = pre;
                // Record the decision once; the recursive transforms add
                // their own per-loop records.
                self.report.record(
                    &unit.name,
                    l.span,
                    LoopDecision::Distributed { parts: red_loops.len() + rest.is_some() as usize },
                    techniques,
                );
                if let Some(rl) = rest {
                    out.extend(self.transform_loop(unit, rl));
                }
                for red in red_loops {
                    out.extend(self.transform_loop(unit, red));
                }
                out.extend(post);
                return out;
            }
        }

        if verdict.doall {
            // Per-participant reduction partials cost P×(init + merge +
            // lock); on short loops that overhead swamps the gain, so
            // the loop stays serial (matching the paper's observation
            // that its restructurer "lowers its estimate of the benefit"
            // for synchronized constructs).
            if !verdict.reductions.is_empty()
                && !self.reductions_profitable(unit, &l, &verdict.reductions)
            {
                self.report.record(
                    &unit.name,
                    l.span,
                    LoopDecision::Serial {
                        reason: "reduction transform overhead exceeds parallel gain".into(),
                    },
                    techniques,
                );
                let body = std::mem::take(&mut l.body);
                l.body = self.transform_block(unit, body);
                let mut out = pre;
                out.push(Stmt::Loop(l));
                out.extend(post);
                return out;
            }
            let stmt = self.make_doall(unit, l, &verdict, &mut techniques);
            let mut out = pre;
            out.push(stmt);
            out.extend(post);
            return out;
        }

        // ---- loop interchange (§3.4) ----
        // A perfect 2-nest whose inner loop is parallel can have the
        // parallel loop moved outward when no (<, >)-direction
        // dependence exists.
        if self.cfg.interchange && l.body.len() == 1 {
            if let Some(Stmt::Loop(inner)) = l.body.first() {
                let inner_vec =
                    inner.class == LoopClass::Seq && vectorize::body_vectorizable(unit, inner, &[]);
                if inner.class == LoopClass::Seq
                    && inner.locals.is_empty()
                    && l.locals.is_empty()
                    && classes::interchange_profitable(
                        unit,
                        &l,
                        inner,
                        inner_vec,
                        &self.cfg.machine,
                    )
                    && cedar_analysis::depend::interchange_legal(unit, &l, inner)
                {
                    let inner = inner.clone();
                    let mut swapped = inner.clone();
                    let mut new_inner = l.clone();
                    new_inner.body = inner.body;
                    swapped.body = vec![Stmt::Loop(new_inner)];
                    let v2 = legality::analyze(unit, &swapped, self.cfg, self.summaries);
                    if v2.doall {
                        techniques.push(Technique::Interchange);
                        let stmt = self.make_doall(unit, swapped, &v2, &mut techniques);
                        let mut out = pre;
                        out.push(stmt);
                        out.extend(post);
                        return out;
                    }
                }
            }
        }

        // ---- run-time dependence test (§4.1.5) ----
        if let Some(pattern) = &verdict.runtime_pattern {
            if verdict.blockers.len() == 1 {
                let guard = pattern.guard();
                let serial = Stmt::Loop(l.clone());
                let par = self.forced_parallel(unit, l.clone(), &verdict, LoopClass::XDoall);
                techniques.push(Technique::RuntimeDepTest);
                self.report.record(&unit.name, l.span, LoopDecision::TwoVersion, techniques);
                let mut out = pre;
                out.push(Stmt::If {
                    cond: guard,
                    then_body: vec![par],
                    elifs: Vec::new(),
                    else_body: vec![serial],
                    span: l.span,
                });
                out.extend(post);
                return out;
            }
        }

        // ---- critical sections (§4.1.6) ----
        // Locks serialize the protected updates, so the transform only
        // pays when the unprotected work dominates (same discount logic
        // as the DOACROSS delay factor).
        if !verdict.critical_arrays.is_empty() && verdict.blockers.is_empty() {
            let locked_region: Vec<Stmt> = l
                .body
                .iter()
                .filter(|s| {
                    verdict
                        .critical_arrays
                        .iter()
                        .any(|a| crate::sync_insert::stmt_touches_array(s, *a))
                })
                .cloned()
                .collect();
            if classes::critical_worthwhile(unit, &l, &locked_region, &self.cfg.machine) {
                let lock0 = self.next_lock;
                self.next_lock += verdict.critical_arrays.len() as u32;
                let locked =
                    sync_insert::insert_critical_sections(&l, &verdict.critical_arrays, lock0);
                let stmt = self.forced_parallel(unit, locked, &verdict, LoopClass::CDoall);
                self.report.record(&unit.name, l.span, LoopDecision::CriticalSection, techniques);
                let mut out = pre;
                out.push(stmt);
                out.extend(post);
                return out;
            }
        }

        // ---- DOACROSS (§3.3) ----
        if !verdict.doacross_deps.is_empty() {
            let point0 = self.next_sync_point;
            // Cluster hardware sync is cheap; cross-cluster cascades
            // rarely pay (§3.4).
            let (mut dl, spans) = sync_insert::insert_cascade(
                &l,
                LoopClass::CDoacross,
                &verdict.doacross_deps,
                point0,
            );
            let region: Vec<Stmt> =
                spans.iter().flat_map(|&(f, t)| l.body[f..=t].to_vec()).collect();
            if classes::doacross_worthwhile(unit, &l, &region, &self.cfg.machine) {
                self.next_sync_point += spans.len().max(1) as u32;
                for &s in &verdict.private_scalars {
                    privatize(unit, &mut dl, s, 'p');
                }
                self.report.record(
                    &unit.name,
                    l.span,
                    LoopDecision::Doacross { sync_points: spans.len() },
                    techniques,
                );
                let mut out = pre;
                out.push(Stmt::Loop(dl));
                out.extend(post);
                return out;
            }
        }

        // ---- serial: recurse into children ----
        let reason = verdict
            .blockers
            .first()
            .cloned()
            .unwrap_or_else(|| "no profitable parallel form".to_string());
        self.report.record(&unit.name, l.span, LoopDecision::Serial { reason }, techniques);
        let body = std::mem::take(&mut l.body);
        l.body = self.transform_block(unit, body);
        let mut out = pre;
        out.push(Stmt::Loop(l));
        out.extend(post);
        out
    }

    /// Try to distribute a DOALL loop with reductions into a rest loop
    /// plus per-reduction loops. Returns `None` when the shape is not
    /// safely splittable (nested accumulations, shared written scalars,
    /// or nothing to split).
    fn distribute(
        &mut self,
        unit: &Unit,
        l: &Loop,
        verdict: &Verdict,
    ) -> Option<(Option<Loop>, Vec<Loop>)> {
        use std::collections::BTreeSet;
        // Collect top-level accumulation indices per reduction; every
        // accumulation of every target must be at the top level.
        let mut red_idx: Vec<Vec<usize>> = Vec::new();
        let mut taken: BTreeSet<usize> = BTreeSet::new();
        for r in &verdict.reductions {
            let idx = cedar_analysis::reduction::accumulation_statement_indices(l, r.target);
            if idx.len() != r.n_statements {
                return None; // some accumulation is nested
            }
            taken.extend(idx.iter().copied());
            red_idx.push(idx);
        }
        let rest_idx: Vec<usize> = (0..l.body.len()).filter(|k| !taken.contains(k)).collect();
        if rest_idx.is_empty() || taken.is_empty() {
            return None; // nothing to isolate
        }
        // Scalars written in the rest group must not feed accumulation
        // expressions unless they are privatizable per-iteration values;
        // conservatively require the accumulations to read no scalar the
        // rest group writes (arrays are safe: the loop is DOALL-legal).
        let mut rest_writes: BTreeSet<cedar_ir::SymbolId> = BTreeSet::new();
        for &k in &rest_idx {
            if let Stmt::Assign { lhs: LValue::Scalar(v), .. } = &l.body[k] {
                rest_writes.insert(*v);
            }
        }
        for idx in &red_idx {
            for &k in idx {
                let mut reads_rest_scalar = false;
                cedar_ir::visit::walk_stmt_exprs(&l.body[k], true, &mut |e: &Expr| {
                    if matches!(e, Expr::Scalar(v) if rest_writes.contains(v)) {
                        reads_rest_scalar = true;
                    }
                });
                if reads_rest_scalar {
                    return None;
                }
            }
        }
        let _ = unit;
        let mk = |indices: &[usize]| -> Loop {
            let mut nl = l.clone();
            nl.body = indices.iter().map(|&k| l.body[k].clone()).collect();
            nl
        };
        let rest = Some(mk(&rest_idx));
        let red_loops = red_idx.iter().map(|idx| mk(idx)).collect();
        Some((rest, red_loops))
    }

    /// Build the DOALL form of a legal loop.
    fn make_doall(
        &mut self,
        unit: &mut Unit,
        mut l: Loop,
        verdict: &Verdict,
        techniques: &mut Vec<Technique>,
    ) -> Stmt {
        let have_reductions = !verdict.reductions.is_empty();
        let have_priv_arrays = !verdict.private_arrays.is_empty();

        // Vector path requires a plain assign-only body.
        let body_vec = !have_reductions
            && !have_priv_arrays
            && vectorize::body_vectorizable(unit, &l, &verdict.private_scalars);

        // Inner-parallel detection (for the SDOALL/CDOALL plan): the
        // body contains exactly one inner loop, itself DOALL-legal.
        let inner_info = self.inner_parallel_info(unit, &l);

        // ---- loop coalescing (§4.2.4) ----
        // A perfect DOALL×DOALL nest whose outer trip count under-fills
        // the machine becomes one flat XDOALL over the product space;
        // the machine-wide self-scheduler then balances it.
        // Gate on a non-vectorizable inner body: when the inner loop
        // vectorizes, SDOALL + vector strips beats the flat scalar loop
        // (the recovered subscripts defeat section form).
        if self.cfg.coalesce
            && self.cfg.machine.clusters > 1
            && !have_reductions
            && !have_priv_arrays
            && inner_info.as_ref().is_some_and(|i| !i.vectorizable)
        {
            let ces = self.cfg.machine.total_ces() as i64;
            let fits = coalesce::perfect_inner(&l)
                .is_some_and(|inner| coalesce::profitable(&l, inner, ces));
            if fits {
                if let Some(mut flat) = coalesce::coalesce(unit, &l) {
                    techniques.push(Technique::Coalescing);
                    for &s in &verdict.private_scalars {
                        privatize(unit, &mut flat, s, 'p');
                    }
                    flat.class = LoopClass::XDoall;
                    self.report.record(
                        &unit.name,
                        l.span,
                        LoopDecision::Doall { classes: vec![LoopClass::XDoall], vectorized: false },
                        std::mem::take(techniques),
                    );
                    return Stmt::Loop(flat);
                }
            }
        }
        let (plan, considered) = classes::choose_plan(
            unit,
            &l,
            inner_info.is_some(),
            body_vec,
            inner_info.as_ref().is_some_and(|i| i.vectorizable),
            self.cfg,
        );
        self.report.versions_considered += considered;

        let plan = if have_reductions {
            // Reductions need a postamble: force a library-microtasked
            // class.
            NestPlan::XdoallScalar
        } else {
            plan
        };

        match plan {
            NestPlan::XdoallVector | NestPlan::CdoallVector => {
                techniques.push(Technique::Stripmining);
                if l.body.iter().any(|s| matches!(s, Stmt::If { .. })) {
                    techniques.push(Technique::IfToWhere);
                }
                let class = if plan == NestPlan::XdoallVector {
                    LoopClass::XDoall
                } else {
                    LoopClass::CDoall
                };
                let strip = self.cfg.strip_len;
                let stmt = vectorize::stripmine(unit, &l, class, strip, &verdict.private_scalars);
                self.report.record(
                    &unit.name,
                    l.span,
                    LoopDecision::Doall { classes: vec![class], vectorized: true },
                    std::mem::take(techniques),
                );
                stmt
            }
            NestPlan::SdoallCdoall { inner_vector } => {
                let info = inner_info.expect("plan implies inner parallel");
                // Outer: SDOALL with privatization.
                for &s in verdict.private_scalars.iter().chain(&verdict.private_arrays) {
                    privatize(unit, &mut l, s, 'p');
                }
                l.class = LoopClass::SDoall;
                // Inner: replace at the recorded position.
                let Stmt::Loop(inner) = l.body.remove(info.pos) else { unreachable!() };
                if inner_vector && info.vectorizable && info.private_scalars.is_empty() {
                    // §3.2: innermost becomes vector statements.
                    let stmts = vectorize::vectorize_whole(&inner);
                    for (k, st) in stmts.into_iter().enumerate() {
                        l.body.insert(info.pos + k, st);
                    }
                } else {
                    let mut cl = inner;
                    for &s in &info.private_scalars {
                        privatize(unit, &mut cl, s, 'p');
                    }
                    cl.class = LoopClass::CDoall;
                    l.body.insert(info.pos, Stmt::Loop(cl));
                }
                self.report.record(
                    &unit.name,
                    l.span,
                    LoopDecision::Doall {
                        classes: vec![LoopClass::SDoall, LoopClass::CDoall],
                        vectorized: inner_vector,
                    },
                    std::mem::take(techniques),
                );
                Stmt::Loop(l)
            }
            NestPlan::XdoallScalar | NestPlan::CdoallScalar => {
                let any_array_red = verdict.reductions.iter().any(|r| r.is_array);
                let class = if any_array_red {
                    // Array partials are merged once per participant:
                    // one per cluster (SDOALL) keeps the preamble/
                    // postamble cost linear in 4, not 32.
                    LoopClass::SDoall
                } else if plan == NestPlan::XdoallScalar || have_reductions {
                    LoopClass::XDoall
                } else {
                    LoopClass::CDoall
                };
                for &s in verdict.private_scalars.iter().chain(&verdict.private_arrays) {
                    privatize(unit, &mut l, s, 'p');
                }
                for r in &verdict.reductions {
                    let lock = self.next_lock;
                    self.next_lock += 1;
                    let span = l.span;
                    reduction_partials(unit, &mut l, (r.op, r.target), lock, span);
                }
                l.class = class;
                // Inner serial loops over privatized/plain data still
                // benefit from the vector pipes (§3.2's third level of
                // parallelism).
                self.vectorize_children(unit, &mut l);
                self.report.record(
                    &unit.name,
                    l.span,
                    LoopDecision::Doall { classes: vec![class], vectorized: false },
                    std::mem::take(techniques),
                );
                Stmt::Loop(l)
            }
        }
    }

    /// Parallel form used by the two-version and critical-section paths:
    /// privatized scalars/arrays + scalar body (no legality re-check —
    /// the caller guarantees it).
    fn forced_parallel(
        &mut self,
        unit: &mut Unit,
        mut l: Loop,
        verdict: &Verdict,
        class: LoopClass,
    ) -> Stmt {
        for &s in verdict.private_scalars.iter().chain(&verdict.private_arrays) {
            privatize(unit, &mut l, s, 'p');
        }
        self.vectorize_children(unit, &mut l);
        l.class = class;
        Stmt::Loop(l)
    }

    /// Pick the execution mode of a library reduction from the trip
    /// count: the two-level Cedar scheme only pays for long vectors, and
    /// needs a second cluster.
    fn reduction_mode(&self, l: &Loop) -> ParMode {
        match unit_step_trip(l) {
            Some(t) if t < 96 => ParMode::Vector,
            Some(t) if t >= 2048 && self.cfg.machine.clusters > 1 => ParMode::CedarParallel,
            _ => ParMode::ClusterParallel,
        }
    }

    /// Estimate whether per-participant reduction partials pay off.
    fn reductions_profitable(&self, unit: &Unit, l: &Loop, reds: &[Reduction]) -> bool {
        let p = self.cfg.machine.total_ces() as f64;
        let trip = unit_step_trip(l).map_or(classes::DEFAULT_TRIP, |t| t as f64);
        let body = classes::body_cost(unit, &l.body).max(1.0);
        let mut overhead = 0.0;
        for r in reds {
            let len = if r.is_array {
                unit.symbol(r.target).const_len().unwrap_or(64) as f64
            } else {
                1.0
            };
            overhead += p * (2.5 * len + 30.0);
        }
        trip * body * (1.0 - 1.0 / p) > 2.0 * overhead
    }

    /// Replace direct-child sequential loops of a (scalar-bodied)
    /// parallel loop with vector statements or vector-mode library
    /// reductions — the third level of Cedar parallelism (§3.2).
    fn vectorize_children(&mut self, unit: &mut Unit, l: &mut Loop) {
        let mut k = 0;
        while k < l.body.len() {
            let Some(inner) = l.body[k].as_loop() else {
                k += 1;
                continue;
            };
            if inner.class != LoopClass::Seq {
                k += 1;
                continue;
            }
            let inner = inner.clone();
            // Never disturb synchronization the caller inserted.
            let mut has_sync = false;
            cedar_ir::visit::walk_stmts(&inner.body, &mut |s| {
                if matches!(s, Stmt::Sync(_)) {
                    has_sync = true;
                }
            });
            if has_sync {
                k += 1;
                continue;
            }
            let v = legality::analyze(unit, &inner, self.cfg, self.summaries);
            if v.doall
                && v.reductions.len() == 1
                && inner.body.len() == 1
                && !v.reductions[0].is_array
            {
                if let Some(stmt) =
                    self.library_reduction(unit, &inner, &v.reductions[0], ParMode::Vector)
                {
                    l.body[k] = stmt;
                    k += 1;
                    continue;
                }
            }
            if v.doall
                && v.reductions.is_empty()
                && v.private_arrays.is_empty()
                && v.private_scalars.is_empty()
                && vectorize::body_vectorizable(unit, &inner, &[])
            {
                let stmts = vectorize::vectorize_whole(&inner);
                let len = stmts.len();
                l.body.splice(k..k + 1, stmts);
                k += len;
                continue;
            }
            k += 1;
        }
    }

    /// Whole-loop library substitution for a single-statement reduction
    /// body (§3.3): the dot product that "cut the execution time of the
    /// whole program in half".
    fn library_reduction(
        &self,
        unit: &Unit,
        l: &Loop,
        r: &Reduction,
        mode: ParMode,
    ) -> Option<Stmt> {
        if r.is_array {
            return None;
        }
        let Stmt::Assign { lhs: LValue::Scalar(target), rhs, span } = &l.body[0] else {
            return None;
        };
        if *target != r.target {
            return None;
        }
        // rhs = an accumulation chain over target, or intrinsic min/max.
        let accum: Expr = match rhs {
            Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, ..) => {
                // Chain with the target's occurrence removed; signs are
                // baked in (`s = s - e` accumulates `-e`).
                cedar_analysis::reduction::accumulated_expr(rhs, *target, None)?
            }
            Expr::Intr { f: Intrinsic::Min | Intrinsic::Max, args, .. } if args.len() == 2 => {
                if matches!(&args[0], Expr::Scalar(s) if s == target) {
                    args[1].clone()
                } else {
                    args[0].clone()
                }
            }
            _ => return None,
        };
        let lib = vectorize::reduction_library_expr(unit, l, &accum, r.op, mode)?;
        Some(Stmt::Assign {
            lhs: LValue::Scalar(*target),
            rhs: combine(r.op, Expr::Scalar(*target), lib),
            span: *span,
        })
    }

    /// Detect a unique inner loop that is itself DOALL-legal.
    fn inner_parallel_info(&self, unit: &Unit, l: &Loop) -> Option<InnerInfo> {
        let mut loops =
            l.body.iter().enumerate().filter_map(|(k, s)| s.as_loop().map(|il| (k, il)));
        let (pos, inner) = loops.next()?;
        if loops.next().is_some() {
            return None; // multiple inner loops: keep the simple plan
        }
        if inner.class != LoopClass::Seq {
            return None;
        }
        let v = legality::analyze(unit, inner, self.cfg, self.summaries);
        if !v.doall || !v.reductions.is_empty() || !v.private_arrays.is_empty() {
            return None;
        }
        let vectorizable = vectorize::body_vectorizable(unit, inner, &v.private_scalars);
        Some(InnerInfo { pos, vectorizable, private_scalars: v.private_scalars })
    }
}

/// Trip count of a loop with constant bounds, its step taken as 1.
fn unit_step_trip(l: &Loop) -> Option<i64> {
    cedar_ir::trip(l.start.as_const_int()?, l.end.as_const_int()?, 1)
}
