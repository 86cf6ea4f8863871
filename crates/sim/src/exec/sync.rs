//! Cascade and lock synchronization, and subroutine-level tasking.

use super::{kerr, Ctx, Frame, Result, SimError, SimErrorKind, Simulator};
use crate::cost::CostClass;
use cedar_ir::{Expr, Stmt, SyncOp};
use std::collections::BTreeMap;

/// Sync-point ids below this bound use the dense per-point table;
/// anything larger (hand-written adversarial sources) overflows to a
/// map so a wild id cannot force a giant allocation.
const DENSE_POINTS: usize = 64;

/// State of an executing DOACROSS loop: advance times per sync point
/// and per iteration. An `await` that finds no advance recorded in its
/// dependence window is a deadlock (see [`Simulator::exec_sync`]).
///
/// The per-point table is a dense `Vec` indexed by point id (the
/// restructurer numbers cascade points from zero), replacing a
/// `BTreeMap` lookup on every `await`/`advance` of every DOACROSS
/// iteration. An empty inner `Vec` means "no advance recorded yet",
/// exactly like a missing map key did.
pub(super) struct DoacrossState {
    advance_times: Vec<Vec<Option<f64>>>,
    /// Rare ids ≥ [`DENSE_POINTS`].
    advance_overflow: BTreeMap<u32, Vec<Option<f64>>>,
    pub(super) cur_iter: usize,
    trip: usize,
}

impl DoacrossState {
    pub(super) fn new(trip: usize) -> DoacrossState {
        DoacrossState {
            advance_times: Vec::new(),
            advance_overflow: BTreeMap::new(),
            cur_iter: 0,
            trip,
        }
    }

    /// Recorded advance times for a point (None = never advanced).
    fn times(&self, point: u32) -> Option<&[Option<f64>]> {
        let v = if (point as usize) < DENSE_POINTS {
            self.advance_times.get(point as usize)?
        } else {
            self.advance_overflow.get(&point)?
        };
        if v.is_empty() {
            None
        } else {
            Some(v)
        }
    }

    /// Per-iteration slots for a point, allocating on first advance.
    fn times_mut(&mut self, point: u32) -> &mut Vec<Option<f64>> {
        let trip = self.trip;
        let v = if (point as usize) < DENSE_POINTS {
            let pi = point as usize;
            if self.advance_times.len() <= pi {
                self.advance_times.resize_with(pi + 1, Vec::new);
            }
            &mut self.advance_times[pi]
        } else {
            self.advance_overflow.entry(point).or_default()
        };
        if v.is_empty() {
            v.resize(trip, None);
        }
        v
    }
}

impl Simulator<'_> {
    /// §2.2.2 subroutine-level tasking: run the thread's body on a
    /// forked virtual clock; the starter only pays the dispatch cost.
    /// The `mtskstart` path enforces the paper's deadlock rule: "
    /// synchronization instructions are not allowed in threads started
    /// with mtskstart".
    pub(super) fn exec_task_start(
        &mut self,
        frame: &Frame,
        callee: &str,
        args: &[Expr],
        lib: bool,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let ridx = self.unit_index(callee).ok_or_else(|| {
            SimError::new(
                SimErrorKind::BadProgram,
                cedar_ir::Span::NONE,
                format!("task start of unknown subroutine `{callee}`"),
            )
        })?;
        if lib {
            let mut has_sync = false;
            cedar_ir::visit::walk_stmts(&self.program.units[ridx].body, &mut |st| {
                if matches!(st, Stmt::Sync(_)) {
                    has_sync = true;
                }
            });
            if has_sync {
                return kerr(
                    SimErrorKind::Unsupported,
                    self.program.units[ridx].span,
                    format!(
                        "synchronization instructions are not allowed in threads \
                         started with mtskstart (`{callee}` would deadlock)"
                    ),
                );
            }
        }
        let (start, handshake) = if lib {
            (CostClass::MtskStart, CostClass::MtskHandshake)
        } else {
            (CostClass::CtskStart, CostClass::CtskHandshake)
        };
        // The thread runs on its own clock starting after dispatch.
        let mut tctx = *ctx;
        self.costs.charge(start, &mut self.stats, &mut tctx.time);
        // Race detection: tasks spawned before the next TaskWait are
        // concurrent with each other and with the spawner's
        // continuation. A task-group region models them as logical
        // threads: the spawner is thread 0, task n is thread n.
        let task_no = self.stats.tasks_started as u32;
        if let Some(rd) = self.races.as_mut() {
            if !rd.in_task_group() {
                rd.push_region(false, true);
            }
            rd.switch_task_thread(task_no, 0);
        }
        let body_result = self.invoke(frame, ridx, args, &mut tctx);
        if let Some(rd) = self.races.as_mut() {
            rd.switch_task_thread(0, 0);
        }
        body_result?;
        self.task_ends.push(tctx.time);
        // The starter continues after the dispatch handshake only.
        self.costs.charge(handshake, &mut self.stats, &mut ctx.time);
        Ok(())
    }

    pub(super) fn exec_sync(&mut self, _frame: &Frame, op: &SyncOp, ctx: &mut Ctx) -> Result<()> {
        match op {
            SyncOp::Await { point, dist } => {
                self.costs.charge(CostClass::Await, &mut self.stats, &mut ctx.time);
                let d = match dist {
                    Expr::ConstI(v) => *v,
                    e => {
                        let mut c2 = *ctx;
                        let v = self.eval_scalar(_frame, e, &mut c2)?;
                        ctx.time = c2.time;
                        v.as_i64()
                    }
                };
                if let Some(st) = self.doacross.last() {
                    let k = st.cur_iter as i64;
                    // The cascade counter holds the highest iteration
                    // that advanced; `await(p, d)` in iteration k waits
                    // for counter ≥ k−d. A negative target is satisfied
                    // by the counter's pre-loop state. Otherwise any
                    // advance of an iteration in [k−d, k] satisfies the
                    // wait; the unblock time is the earliest such
                    // recorded advance. No advance in the window means
                    // the wait can never be satisfied: the watchdog
                    // reports a deadlock instead of stalling forever.
                    if k - d >= 0 {
                        let lo = (k - d) as usize;
                        let hi = (k as usize).min(st.trip.saturating_sub(1));
                        let t = st.times(*point).and_then(|v| {
                            v.get(lo..=hi)?
                                .iter()
                                .flatten()
                                .copied()
                                .fold(None, |m: Option<f64>, x| Some(m.map_or(x, |m| m.min(x))))
                        });
                        match t {
                            Some(t) => {
                                if t > ctx.time {
                                    self.stats.await_stall_cycles += t - ctx.time;
                                    ctx.time = t;
                                }
                            }
                            None => {
                                return kerr(
                                    SimErrorKind::Deadlock,
                                    cedar_ir::Span::NONE,
                                    format!(
                                        "await(point {point}, distance {d}) at iteration \
                                         {k}: no advance({point}) recorded in iterations \
                                         [{lo}, {hi}] — the wait can never be satisfied"
                                    ),
                                );
                            }
                        }
                    }
                }
                // Race detection: the satisfied await synchronizes-with
                // the advances of every iteration ≤ k − d.
                let cur = self.doacross.last().map(|st| st.cur_iter as i64);
                if let (Some(k), Some(rd)) = (cur, self.races.as_mut()) {
                    rd.on_await(*point, k - d);
                }
                Ok(())
            }
            SyncOp::Advance { point } => {
                self.costs.charge(CostClass::Advance, &mut self.stats, &mut ctx.time);
                let mut t = ctx.time;
                // Fault injection: an advance's *visibility* may be
                // delayed, or the signal dropped entirely (the illegal
                // perturbation that turns dependent awaits into
                // watchdog-reported deadlocks). The advancing CE's own
                // clock is unaffected either way.
                if let Some(f) = self.faults.as_mut() {
                    if f.rng.chance(f.cfg.drop_advance) {
                        self.stats.dropped_advances += 1;
                        return Ok(());
                    }
                    if f.cfg.advance_delay > 0.0 {
                        t += f.rng.unit_f64() * f.cfg.advance_delay;
                    }
                }
                if let Some(st) = self.doacross.last_mut() {
                    let k = st.cur_iter;
                    let v = st.times_mut(*point);
                    if k < v.len() {
                        v[k] = Some(t);
                    }
                }
                // Race detection: publish this iteration's knowledge to
                // later awaiters (a dropped advance publishes nothing —
                // it already returned above).
                if let Some(rd) = self.races.as_mut() {
                    rd.on_advance(*point);
                }
                Ok(())
            }
            SyncOp::Lock { id } => {
                let free = self.lock_release.get(id).copied().unwrap_or(0.0);
                if free > ctx.time {
                    self.stats.lock_stall_cycles += free - ctx.time;
                    ctx.time = free;
                }
                self.costs.charge(CostClass::Lock, &mut self.stats, &mut ctx.time);
                if let Some(rd) = self.races.as_mut() {
                    rd.on_lock(*id);
                }
                Ok(())
            }
            SyncOp::Unlock { id } => {
                self.lock_release.insert(*id, ctx.time);
                if let Some(rd) = self.races.as_mut() {
                    rd.on_unlock(*id);
                }
                Ok(())
            }
        }
    }
}
