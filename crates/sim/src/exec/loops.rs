//! Loop scheduling: sequential loops, self-scheduled parallel loops on
//! per-participant clocks, and per-participant loop locals.

use super::sync::DoacrossState;
use super::types::{Blk, Flow, LoopBlocks, LoopRef};
use super::{err, kerr, Ctx, Frame, Result, SimErrorKind, Simulator};
use crate::cost::CostClass;
use crate::store::{StorageRef, VarBind};
use cedar_ir::{Loop, LoopClass, Placement, Span, SymbolId, Value};

/// [`cedar_ir::trip`] of `DO var = start, end, step`, for both engines:
/// an error for a zero step or a count outside the `i64` range the loop
/// variable is stepped in.
pub(super) fn trip_count(start: i64, end: i64, step: i64, span: Span) -> Result<usize> {
    let Some(trip) = cedar_ir::trip_wide(start, end, step) else {
        return err(span, "DO step of zero");
    };
    match i64::try_from(trip) {
        Ok(trip) => Ok(trip as usize),
        Err(_) => kerr(
            SimErrorKind::Limit,
            span,
            format!("DO loop of {trip} iterations exceeds the trip-count range"),
        ),
    }
}

/// One loop site's locals: per local, its binding on each participant.
#[derive(Default)]
pub(super) struct SiteLocals {
    binds: Vec<(SymbolId, Vec<VarBind>)>,
    /// Call depth of the activation that bound them.
    depth: usize,
}

/// A loop site's key among the parked locals: the address of its locals
/// list, which the loop (IR or compiled) holds for the whole run. An
/// engine's loop and its compiled form are two sites.
fn site(loop_locals: &[SymbolId]) -> usize {
    loop_locals.as_ptr() as usize
}

impl Simulator<'_> {
    pub(super) fn exec_loop(&mut self, frame: &mut Frame, l: &Loop, ctx: &mut Ctx) -> Result<Flow> {
        let start = self.eval_scalar(frame, &l.start, ctx)?.as_i64();
        let end = self.eval_scalar(frame, &l.end, ctx)?.as_i64();
        let step = match &l.step {
            Some(e) => self.eval_scalar(frame, e, ctx)?.as_i64(),
            None => 1,
        };
        let trip = trip_count(start, end, step, l.span)?;

        let lr = LoopRef {
            class: l.class,
            var: l.var,
            locals: &l.locals,
            span: l.span,
            blocks: LoopBlocks::Tree { pre: &l.preamble, body: &l.body, post: &l.postamble },
        };
        if l.class == LoopClass::Seq {
            return self.exec_seq_loop(frame, &lr, start, step, trip, ctx);
        }
        self.exec_parallel_loop(frame, &lr, start, step, trip, ctx)
    }

    /// Execute one block of a loop, whichever engine owns its body.
    fn run_loop_block(
        &mut self,
        frame: &mut Frame,
        lr: &LoopRef<'_>,
        which: Blk,
        ctx: &mut Ctx,
    ) -> Result<Flow> {
        match &lr.blocks {
            LoopBlocks::Tree { pre, body, post } => {
                let b = match which {
                    Blk::Pre => pre,
                    Blk::Body => body,
                    Blk::Post => post,
                };
                self.exec_block(frame, b, ctx)
            }
            LoopBlocks::Vm { cu, lp } => {
                let range = match which {
                    Blk::Pre => lp.pre,
                    Blk::Body => lp.body,
                    Blk::Post => lp.post,
                };
                self.vm_run_range(frame, cu, range, cedar_ir::Span::NONE, ctx)
            }
        }
    }

    pub(super) fn set_loop_var(
        &mut self,
        frame: &Frame,
        var: SymbolId,
        value: i64,
        ctx: &Ctx,
    ) -> Result<()> {
        if self.set_loop_var_resolved(frame, var, value, ctx.cluster) {
            return Ok(());
        }
        let bind = self.bind_of(frame, var)?;
        let slot = self.resolve_slot(bind, ctx.cluster);
        let (offset, ty) = (bind.offset, bind.ty);
        // The loop variable is conceptually private per iteration (each
        // CE holds its own copy); the host-side shared write must not
        // register as a cross-iteration race.
        if let Some(rd) = self.races.as_mut() {
            rd.suspend();
        }
        let r = self.store_at(slot, offset, Value::I(value), ty);
        if let Some(rd) = self.races.as_mut() {
            rd.resume();
        }
        r
    }

    pub(super) fn exec_seq_loop(
        &mut self,
        frame: &mut Frame,
        lr: &LoopRef<'_>,
        start: i64,
        step: i64,
        trip: usize,
        ctx: &mut Ctx,
    ) -> Result<Flow> {
        // Sequential loops may carry locals from privatization of an
        // enclosing transform, or a preamble/postamble if a directive
        // loop was demoted to serial (validation fallback): a serial
        // loop is a one-participant schedule, so bind locals once and
        // run the per-participant blocks once. A compiled loop with none
        // of these runs inside the dispatch loop instead (`SeqLoop`), with
        // the same stores and charges per iteration.
        let locals = self.bind_locals(frame, lr.locals, lr.class, 1, ctx)?;
        if lr.has_pre() {
            self.run_loop_block(frame, lr, Blk::Pre, ctx)?;
        }
        let mut flow = Flow::Normal;
        for k in 0..trip {
            self.set_loop_var(frame, lr.var, start + (k as i64) * step, ctx)?;
            // increment + test
            self.costs.charge(CostClass::LoopStep, &mut self.stats, &mut ctx.time);
            match self.run_loop_block(frame, lr, Blk::Body, ctx)? {
                Flow::Normal => {}
                other => {
                    flow = other;
                    break;
                }
            }
        }
        if lr.has_post() && matches!(flow, Flow::Normal) {
            self.run_loop_block(frame, lr, Blk::Post, ctx)?;
        }
        for (_, per_part) in &locals.binds {
            for b in per_part {
                self.release_binding(b, ctx.cluster);
            }
        }
        self.park_locals(lr.locals, locals);
        Ok(flow)
    }

    /// Bind per-participant storage for a loop's locals. Returns the
    /// bindings per local so the scheduler can rebind per participant.
    ///
    /// The site's last exit parked its locals ([`Self::park_locals`]):
    /// a slot of the same type and length is zeroed in place and charged
    /// as a fresh one is, anything else is allocated. Only this site
    /// writes those slots, and it rebinds every local before its body
    /// runs, so a reused slot is observably fresh. Deeper in the call
    /// stack than that exit, the parking activation may be live
    /// (recursion) and read its locals after the loop: allocate.
    fn bind_locals(
        &mut self,
        frame: &mut Frame,
        loop_locals: &[SymbolId],
        class: LoopClass,
        participants: usize,
        ctx: &mut Ctx,
    ) -> Result<SiteLocals> {
        if loop_locals.is_empty() {
            return Ok(SiteLocals::default());
        }
        let parked = self.site_locals.get_mut(&site(loop_locals));
        let mut out = parked.map(std::mem::take).unwrap_or_default();
        let reuse = out.depth >= self.call_depth;
        out.depth = self.call_depth;
        let unit_idx = frame.unit;
        let program = self.program;
        for (k, &loc) in loop_locals.iter().enumerate() {
            let sym = program.units[unit_idx].symbol(loc);
            if out.binds.len() == k {
                out.binds.push((loc, Vec::with_capacity(participants)));
            }
            let per_part = &mut out.binds[k].1;
            per_part.truncate(participants);
            for p in 0..participants {
                let home = self.participant_cluster(class, p, ctx);
                // Dims may reference outer scalars (e.g. strip length),
                // and are evaluated once per participant.
                let mut dims =
                    per_part.get_mut(p).map(|b| std::mem::take(&mut b.dims)).unwrap_or_default();
                self.declared_dims(frame, sym, None, &mut dims, ctx)?;
                let len = self.storage_len("loop local", sym, &dims, Placement::Private)?;
                let sref = match per_part.get(p).map(|b| &b.sref) {
                    Some(&StorageRef::One(s)) if reuse && self.store.rezero(s, sym.ty, len) => {
                        // The charge `alloc_storage` makes for a private slot.
                        self.store.charge_cluster(home, len as u64 * sym.ty.size_bytes());
                        StorageRef::One(s)
                    }
                    _ => self.alloc_storage(sym.ty, len, Placement::Private, home),
                };
                let b =
                    VarBind { sref, offset: 0, dims, ty: sym.ty, placement: Placement::Private };
                match per_part.get_mut(p) {
                    Some(slot) => *slot = b,
                    None => per_part.push(b),
                }
            }
            // Privatized loop locals are per-CE storage: iterations that
            // share a participant reuse the slot sequentially, which is
            // not a race (each CE accesses only its own copy). Exempt
            // them from detection; an unprivatized shared temp keeps its
            // ordinary placement and stays visible to the detector.
            if let Some(rd) = self.races.as_mut() {
                for b in per_part.iter() {
                    if let StorageRef::One(s) = &b.sref {
                        rd.exempt_slot(*s);
                    }
                }
            }
            // Bind participant 0 by default.
            self.rebind(frame, loc, &per_part[0]);
        }
        Ok(out)
    }

    /// Keep an exited loop's locals, released already, for the site's
    /// next entry ([`Self::bind_locals`]).
    fn park_locals(&mut self, loop_locals: &[SymbolId], locals: SiteLocals) {
        if !loop_locals.is_empty() {
            *self.site_locals.entry(site(loop_locals)).or_default() = locals;
        }
    }

    /// Cluster a participant executes on.
    fn participant_cluster(&self, class: LoopClass, p: usize, ctx: &Ctx) -> usize {
        match class {
            LoopClass::CDoall | LoopClass::CDoacross | LoopClass::Seq => ctx.cluster,
            LoopClass::SDoall | LoopClass::SDoacross => p % self.clusters,
            LoopClass::XDoall | LoopClass::XDoacross => (p / self.ces_per_cluster) % self.clusters,
        }
    }

    /// Self-scheduling pick: the participant with the lowest virtual
    /// clock takes the next iteration. Ties break by lowest id, or by a
    /// seeded shuffle when fault injection randomizes tie-breaks (a
    /// legal perturbation — any tied participant is a valid choice).
    fn pick_participant(&mut self, clocks: &[f64]) -> usize {
        let salts = &mut self.salts;
        let salted = match self.faults.as_mut() {
            Some(f) if f.cfg.random_tie_break => {
                salts.clear();
                salts.extend((0..clocks.len()).map(|_| f.rng.next_u64()));
                true
            }
            _ => false,
        };
        (0..clocks.len())
            .min_by(|&a, &b| {
                clocks[a]
                    .partial_cmp(&clocks[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| if salted { salts[a].cmp(&salts[b]) } else { a.cmp(&b) })
            })
            .unwrap_or(0)
    }

    pub(super) fn exec_parallel_loop(
        &mut self,
        frame: &mut Frame,
        lr: &LoopRef<'_>,
        start: i64,
        step: i64,
        trip: usize,
        ctx: &mut Ctx,
    ) -> Result<Flow> {
        let Some((participants, startup, dispatch)) = self.costs.loop_shape(lr.class) else {
            return kerr(
                SimErrorKind::BadProgram,
                lr.span,
                "sequential loop reached the parallel scheduler",
            );
        };
        let participants = participants.max(1);
        self.stats.parallel_iterations += trip as u64;

        let is_ordered = lr.class.is_ordered();
        if is_ordered {
            self.doacross.push(DoacrossState::new(trip));
        }

        let locals = self.bind_locals(frame, lr.locals, lr.class, participants, ctx)?;
        let child_active = ctx.active * participants;

        // Per-participant clocks begin after startup.
        let mut t0 = ctx.time;
        self.costs.charge(startup, &mut self.stats, &mut t0);
        let mut clocks = self.spare_clocks.pop().unwrap_or_default();
        clocks.clear();
        clocks.resize(participants, t0);
        if let Some(f) = self.faults.as_mut() {
            if f.cfg.clock_jitter > 0.0 {
                // Legal perturbation: skew each participant's start
                // clock, reshuffling the self-scheduled partition.
                let scale = self.costs.fixed(startup).max(1.0);
                for c in clocks.iter_mut() {
                    *c += f.rng.unit_f64() * f.cfg.clock_jitter * scale;
                }
            }
        }

        // Preamble: once per participant.
        if lr.has_pre() {
            for p in 0..participants {
                for (loc, per_part) in &locals.binds {
                    self.rebind(frame, *loc, &per_part[p]);
                }
                let mut cctx = Ctx {
                    cluster: self.participant_cluster(lr.class, p, ctx),
                    time: clocks[p],
                    active: child_active,
                };
                self.run_loop_block(frame, lr, Blk::Pre, &mut cctx)?;
                clocks[p] = cctx.time;
            }
        }

        // Race detection: the region forks after the preamble — the
        // preamble (partial-reduction init) and postamble (merge) run
        // per participant but are serialized with the loop body by the
        // hardware, so they execute in the parent's logical thread.
        if let Some(rd) = self.races.as_mut() {
            rd.push_region(is_ordered, false);
        }

        let mut flow = Flow::Normal;
        let mut bound_p = usize::MAX; // participant currently bound into the frame
        for k in 0..trip {
            // Deterministic self-scheduling: earliest-clock participant
            // takes the next iteration (ties: lowest id, or a seeded
            // shuffle under fault injection).
            let p = self.pick_participant(&clocks);
            if p != bound_p {
                for (loc, per_part) in &locals.binds {
                    self.rebind(frame, *loc, &per_part[p]);
                }
                bound_p = p;
            }
            let mut cctx = Ctx {
                cluster: self.participant_cluster(lr.class, p, ctx),
                time: clocks[p],
                active: child_active,
            };
            self.costs.charge(dispatch, &mut self.stats, &mut cctx.time);
            if is_ordered {
                if let Some(st) = self.doacross.last_mut() {
                    st.cur_iter = k;
                }
            }
            if let Some(rd) = self.races.as_mut() {
                rd.begin_iteration(k as u32, p as u16);
            }
            self.set_loop_var(frame, lr.var, start + (k as i64) * step, &cctx)?;
            let f = self.run_loop_block(frame, lr, Blk::Body, &mut cctx)?;
            clocks[p] = cctx.time;
            if !matches!(f, Flow::Normal) {
                flow = f;
                break;
            }
        }

        if let Some(rd) = self.races.as_mut() {
            rd.pop_region();
        }

        // Postamble: once per participant.
        if lr.has_post() {
            for p in 0..participants {
                for (loc, per_part) in &locals.binds {
                    self.rebind(frame, *loc, &per_part[p]);
                }
                let mut cctx = Ctx {
                    cluster: self.participant_cluster(lr.class, p, ctx),
                    time: clocks[p],
                    active: child_active,
                };
                self.run_loop_block(frame, lr, Blk::Post, &mut cctx)?;
                clocks[p] = cctx.time;
            }
        }

        if is_ordered {
            self.doacross.pop();
        }
        // Locals go out of scope.
        for (_, per_part) in &locals.binds {
            for (p, b) in per_part.iter().enumerate() {
                let home = self.participant_cluster(lr.class, p, ctx);
                self.release_binding(b, home);
            }
        }
        self.park_locals(lr.locals, locals);
        // Join barrier.
        ctx.time = clocks.iter().cloned().fold(t0, f64::max);
        self.spare_clocks.push(clocks);
        self.costs.charge(CostClass::Barrier, &mut self.stats, &mut ctx.time);
        Ok(flow)
    }
}
