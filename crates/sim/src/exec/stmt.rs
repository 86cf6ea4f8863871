//! Statements and assignment: the per-statement gate (watchdog,
//! cancellation, race-detector span), dispatch, and the three stores.

use super::types::{each_index, flag_all, progression, with_span, Flow, LaneIdx, Section, Subs};
use super::{kerr, Ctx, Frame, Result, SimError, SimErrorKind, Simulator};
use crate::cost::{Access, CostClass};
use cedar_ir::{Expr, LValue, Stmt};

impl Simulator<'_> {
    pub(super) fn exec_block(&mut self, frame: &mut Frame, body: &[Stmt], ctx: &mut Ctx) -> Result<Flow> {
        for s in body {
            match self.exec_stmt(frame, s, ctx)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Per-statement prologue shared verbatim by both engines: count
    /// the watchdog budget, poll the cancel token, and report the
    /// statement span to the race detector. The VM runs this once per
    /// [`Instr::Gate`](crate::compile::Instr::Gate), so `ops_executed`
    /// (and every watchdog/cancel error) stays bit-identical across
    /// engines.
    ///
    /// Watchdog: a global statement budget bounds every run, so even
    /// adversarial inputs terminate with a structured error instead of
    /// wedging the harness. The wall-clock companion polls the
    /// supervisor's cancel token every 1024 statements (and on the very
    /// first, so a pre-expired token aborts before any work). One
    /// `Instant::now()` per window keeps the host cost invisible; the
    /// abort is cooperative, so no simulator state tears.
    #[inline]
    pub(super) fn statement_gate(&mut self, span: cedar_ir::Span) -> Result<()> {
        self.ops_executed += 1;
        if self.ops_executed > self.watchdog_ops || self.ops_executed & 0x3FF == 1 {
            self.watchdog(span)?;
        }
        if let Some(rd) = self.races.as_mut() {
            // Accesses report the statement they ran under.
            rd.set_span(span);
        }
        Ok(())
    }

    /// The rare part of [`Simulator::statement_gate`]: the budget is
    /// spent, or a 1024-statement window opens.
    #[cold]
    fn watchdog(&mut self, span: cedar_ir::Span) -> Result<()> {
        if self.ops_executed > self.watchdog_ops {
            return kerr(
                SimErrorKind::Limit,
                span,
                format!("watchdog: statement budget of {} exceeded", self.watchdog_ops),
            );
        }
        if self.ops_executed & 0x3FF == 1 {
            if let Some(token) = &self.cancel {
                if token.expired() {
                    return kerr(
                        SimErrorKind::Timeout,
                        span,
                        match token.budget() {
                            Some(b) => format!(
                                "watchdog: wall-clock budget of {:.3}s exceeded \
                                 after {} statements",
                                b.as_secs_f64(),
                                self.ops_executed
                            ),
                            None => format!(
                                "watchdog: run cancelled by supervisor after {} statements",
                                self.ops_executed
                            ),
                        },
                    );
                }
            }
        }
        Ok(())
    }

    pub(super) fn exec_stmt(&mut self, frame: &mut Frame, s: &Stmt, ctx: &mut Ctx) -> Result<Flow> {
        self.statement_gate(s.span())?;
        match s {
            Stmt::Assign { lhs, rhs, span } => {
                self.exec_assign(frame, lhs, rhs, None, ctx)
                    .map_err(|e| with_span(e, *span))?;
                Ok(Flow::Normal)
            }
            Stmt::WhereAssign { mask, lhs, rhs, span } => {
                self.exec_assign(frame, lhs, rhs, Some(mask), ctx)
                    .map_err(|e| with_span(e, *span))?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_body, elifs, else_body, span } => {
                let c = self
                    .eval_scalar(frame, cond, ctx)
                    .map_err(|e| with_span(e, *span))?;
                self.costs.charge(CostClass::Branch, &mut self.stats, &mut ctx.time);
                if c.as_bool() {
                    return self.exec_block(frame, then_body, ctx);
                }
                for (ec, eb) in elifs {
                    let v = self
                        .eval_scalar(frame, ec, ctx)
                        .map_err(|e| with_span(e, *span))?;
                    if v.as_bool() {
                        return self.exec_block(frame, eb, ctx);
                    }
                }
                self.exec_block(frame, else_body, ctx)
            }
            Stmt::Loop(l) => self.exec_loop(frame, l, ctx),
            Stmt::DoWhile { cond, body, span } => {
                let mut iters = 0u64;
                loop {
                    let c = self
                        .eval_scalar(frame, cond, ctx)
                        .map_err(|e| with_span(e, *span))?;
                    if !c.as_bool() {
                        return Ok(Flow::Normal);
                    }
                    match self.exec_block(frame, body, ctx)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                    iters += 1;
                    if iters > self.max_while_iters {
                        return kerr(
                            SimErrorKind::Limit,
                            *span,
                            "DO WHILE exceeded iteration bound",
                        );
                    }
                }
            }
            Stmt::Call { callee, args, span } => {
                if cedar_ir::is_timer_call(callee) {
                    match callee.as_str() {
                        "tstart" => self.stats.region_open = Some(ctx.time),
                        _ => {
                            if let Some(t0) = self.stats.region_open.take() {
                                self.stats.region_cycles += ctx.time - t0;
                            }
                        }
                    }
                    return Ok(Flow::Normal);
                }
                let ridx = self.unit_index(callee).ok_or_else(|| {
                    SimError::new(
                        SimErrorKind::BadProgram,
                        *span,
                        format!("CALL to unknown subroutine `{callee}`"),
                    )
                })?;
                self.invoke(frame, ridx, args, ctx)
                    .map_err(|e| with_span(e, *span))?;
                Ok(Flow::Normal)
            }
            Stmt::TaskStart { callee, args, lib, span } => {
                self.exec_task_start(frame, callee, args, *lib, ctx)
                    .map_err(|e| with_span(e, *span))?;
                Ok(Flow::Normal)
            }
            Stmt::TaskWait { .. } => {
                // Join every outstanding task.
                for t in self.task_ends.drain(..) {
                    if t > ctx.time {
                        ctx.time = t;
                    }
                }
                if let Some(rd) = self.races.as_mut() {
                    // The join orders every task before what follows.
                    if rd.in_task_group() {
                        rd.pop_region();
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Sync(op) => {
                self.exec_sync(frame, op, ctx)?;
                Ok(Flow::Normal)
            }
            Stmt::Return => Ok(Flow::Return),
            Stmt::Stop => Ok(Flow::Stop),
            Stmt::Io { .. } => {
                self.costs.charge(CostClass::Io, &mut self.stats, &mut ctx.time);
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_assign(
        &mut self,
        frame: &mut Frame,
        lhs: &LValue,
        rhs: &Expr,
        mask: Option<&Expr>,
        ctx: &mut Ctx,
    ) -> Result<()> {
        match lhs {
            LValue::Scalar(sv) => {
                let v = self.eval_scalar(frame, rhs, ctx)?;
                let bind = self.bind_of(frame, *sv)?;
                self.costs.charge(CostClass::CacheHit, &mut self.stats, &mut ctx.time);
                let slot = self.resolve_slot(bind, ctx.cluster);
                let (offset, ty) = (bind.offset, bind.ty);
                self.store_at(slot, offset, v, ty)
            }
            LValue::Elem { arr, idx } => {
                let mut subs = Subs::new();
                for e in idx {
                    subs.push(self.eval_scalar(frame, e, ctx)?.as_i64())?;
                    self.costs.charge(CostClass::ScalarOp, &mut self.stats, &mut ctx.time);
                }
                let v = self.eval_scalar(frame, rhs, ctx)?;
                let bind = self.bind_of(frame, *arr)?;
                let lin = self.linearize(frame, *arr, bind, subs.as_slice())?;
                ctx.time += self.access_cost(bind.placement, 1, Access::ScalarWrite, ctx);
                let slot = self.resolve_slot(bind, ctx.cluster);
                let ty = bind.ty;
                self.store_at(slot, lin, v, ty)
            }
            LValue::Section { arr, idx } => {
                let mut sec = Section::new();
                self.section_lanes(frame, *arr, idx, ctx, &mut sec)?;
                let lanes = sec.lanes;
                let bind = self.bind_of(frame, *arr)?;
                let at = self.section_index(bind, &sec)?;
                self.release_section(&mut sec);
                let (placement, ty) = (bind.placement, bind.ty);
                let vals = self.eval_vec(frame, rhs, lanes, ctx)?;
                let mvals = match mask {
                    Some(m) => Some(self.eval_vec(frame, m, lanes, ctx)?),
                    None => None,
                };
                // Store stream cost.
                self.costs.charge(CostClass::VectorStartup, &mut self.stats, &mut ctx.time);
                ctx.time += self.access_cost(placement, lanes as u64, Access::VectorWrite, ctx);
                let bind = self.bind_of(frame, *arr)?;
                let slot = self.resolve_slot(bind, ctx.cluster);
                match &mvals {
                    // Unmasked: one coercing slice write for a
                    // contiguous run, else element by element (which
                    // also names an element outside the slot); the
                    // detector (when live) observes the same
                    // per-element writes in lane order.
                    None => {
                        let data = self.store.slot_mut(slot);
                        let bulk = at
                            .run()
                            .is_some_and(|(first, _)| data.store_run(first, &vals, ty));
                        if !bulk {
                            each_index!(&at, lins => data.store_at(lins, &vals, ty))
                                .map_err(|lin| self.storage_error(slot, lin))?;
                        }
                        if let Some(rd) = self.races.as_mut() {
                            let races =
                                each_index!(&at, lins => rd.record_writes(slot, at.upper(), lins))?;
                            flag_all(rd, races)?;
                        }
                    }
                    // Masked stores skip elements, so each one goes
                    // through the checked scalar path.
                    Some(m) => {
                        for k in 0..lanes {
                            if m.get(k).as_bool() {
                                self.store_at(slot, at.get(k), vals.get(k), ty)?;
                            }
                        }
                    }
                }
                self.release_index(at);
                self.pool.put(vals);
                if let Some(m) = mvals {
                    self.pool.put(m);
                }
                Ok(())
            }
        }
    }
}
