//! Scalar evaluation: bindings, checked element loads and stores (where
//! the race detector observes them), and scalar expressions.

use super::types::Subs;
use super::{kerr, Ctx, Frame, Result, SimError, SimErrorKind, Simulator};
use crate::cost::{Access, CostClass};
use crate::store::{ArrayData, SlotId, VarBind};
use crate::value_ops;
use cedar_ir::{Expr, Intrinsic, ParMode, SymbolId, Ty, Value};

impl Simulator<'_> {
    #[inline]
    pub(super) fn bind_of<'f>(&self, frame: &'f Frame, sym: SymbolId) -> Result<&'f VarBind> {
        match &frame.binds[sym.index()] {
            Some(bind) => Ok(bind),
            None => Err(self.unbound_error(frame, sym)),
        }
    }

    #[cold]
    fn unbound_error(&self, frame: &Frame, sym: SymbolId) -> SimError {
        SimError::new(
            SimErrorKind::Uninit,
            cedar_ir::Span::NONE,
            format!(
                "variable `{}` used before binding",
                self.program.units[frame.unit].symbol(sym).name
            ),
        )
    }

    /// Checked element read through a resolved slot. Every element read
    /// of the interpreter (scalar, indexed, section lane) funnels
    /// through here, so this is where the race detector observes reads.
    #[inline]
    pub(super) fn load(&mut self, slot: SlotId, lin: usize) -> Result<Value> {
        let v = self.load_raw(slot, lin)?;
        self.note_read(slot, lin)?;
        Ok(v)
    }

    /// Show the race detector (when live) one element read.
    #[inline]
    pub(super) fn note_read(&mut self, slot: SlotId, lin: usize) -> Result<()> {
        if let Some(rd) = self.races.as_mut() {
            if let Some(race) = rd.record_read(slot, lin)? {
                if let Some(e) = rd.flag(race) {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Show the race detector (when live) one element write.
    pub(super) fn note_write(&mut self, slot: SlotId, lin: usize) -> Result<()> {
        if let Some(rd) = self.races.as_mut() {
            if let Some(race) = rd.record_write(slot, lin)? {
                if let Some(e) = rd.flag(race) {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The error of an element access outside its slot.
    #[cold]
    pub(super) fn storage_error(&self, slot: SlotId, lin: usize) -> SimError {
        SimError::new(
            SimErrorKind::OutOfBounds,
            cedar_ir::Span::NONE,
            format!(
                "linear index {lin} outside storage of {} element(s)",
                self.store.slot(slot).len()
            ),
        )
    }

    /// [`Simulator::load`] without the race hook — for vector gather
    /// loops whose reads the detector observes through a bulk recorder
    /// instead.
    #[inline]
    fn load_raw(&mut self, slot: SlotId, lin: usize) -> Result<Value> {
        match self.store.slot(slot).try_get(lin) {
            Some(v) => Ok(v),
            None => Err(self.storage_error(slot, lin)),
        }
    }

    /// Checked element write through a resolved slot (the write-side
    /// counterpart of [`Simulator::load`] for race detection).
    pub(super) fn store_at(&mut self, slot: SlotId, lin: usize, v: Value, ty: Ty) -> Result<()> {
        self.store_at_raw(slot, lin, v, ty)?;
        self.note_write(slot, lin)
    }

    /// [`Simulator::store_at`] without the race hook — for vector
    /// scatter loops whose writes the detector observes through a bulk
    /// recorder instead.
    fn store_at_raw(&mut self, slot: SlotId, lin: usize, v: Value, ty: Ty) -> Result<()> {
        if self.store.slot_mut(slot).try_set(lin, value_ops::coerce(v, ty)) {
            Ok(())
        } else {
            Err(self.storage_error(slot, lin))
        }
    }

    /// [`Simulator::eval_scalar`] read through `as_i64`, for section
    /// bounds: constants and plain variables (nearly all of them) are
    /// handled here, without entering the recursive evaluator, and an
    /// INTEGER cell is read as what it is, unboxed.
    #[inline]
    pub(super) fn eval_i64(&mut self, frame: &Frame, e: &Expr, ctx: &mut Ctx) -> Result<i64> {
        Ok(match e {
            Expr::ConstI(v) => *v,
            Expr::Scalar(s) => {
                let bind = self.bind_of(frame, *s)?;
                self.costs.charge(CostClass::CacheHit, &mut self.stats, &mut ctx.time);
                let (slot, at) = (self.resolve_slot(bind, ctx.cluster), bind.offset);
                match self.store.slot(slot) {
                    ArrayData::I(v) if at < v.len() => {
                        let x = v[at];
                        self.note_read(slot, at)?;
                        x
                    }
                    _ => self.load(slot, at)?.as_i64(),
                }
            }
            _ => self.eval_scalar(frame, e, ctx)?.as_i64(),
        })
    }

    pub(super) fn eval_scalar(&mut self, frame: &Frame, e: &Expr, ctx: &mut Ctx) -> Result<Value> {
        match e {
            Expr::ConstI(v) => Ok(Value::I(*v)),
            Expr::ConstR { value, .. } => Ok(Value::R(*value)),
            Expr::ConstB(b) => Ok(Value::B(*b)),
            Expr::Scalar(s) => {
                let bind = self.bind_of(frame, *s)?;
                // Scalars are register/cache resident.
                self.costs.charge(CostClass::CacheHit, &mut self.stats, &mut ctx.time);
                let slot = self.resolve_slot(bind, ctx.cluster);
                let offset = bind.offset;
                self.load(slot, offset)
            }
            Expr::Elem { arr, idx } => {
                let mut subs = Subs::new();
                for ie in idx {
                    subs.push(self.eval_scalar(frame, ie, ctx)?.as_i64())?;
                    // address arithmetic
                    self.costs.charge(CostClass::ScalarOp, &mut self.stats, &mut ctx.time);
                }
                let bind = self.bind_of(frame, *arr)?;
                let lin = self.linearize(frame, *arr, bind, subs.as_slice())?;
                ctx.time += self.access_cost(bind.placement, 1, Access::ScalarRead, ctx);
                let slot = self.resolve_slot(bind, ctx.cluster);
                self.load(slot, lin)
            }
            Expr::Un(op, inner) => {
                let v = self.eval_scalar(frame, inner, ctx)?;
                self.costs.charge(CostClass::ScalarOp, &mut self.stats, &mut ctx.time);
                Ok(cedar_ir::ops::un(*op, v))
            }
            Expr::Bin(op, l, r) => {
                let lv = self.eval_scalar(frame, l, ctx)?;
                let rv = self.eval_scalar(frame, r, ctx)?;
                self.costs.charge(CostClass::ScalarOp, &mut self.stats, &mut ctx.time);
                value_ops::bin(*op, lv, rv).map_err(|e| SimError::from_op(e, cedar_ir::Span::NONE))
            }
            Expr::Intr { f, args, par } => self.eval_intrinsic(frame, *f, args, *par, ctx),
            Expr::Call { unit, args } => self.eval_call(frame, unit, args, ctx),
            Expr::Section { .. } => kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                "vector section in scalar context (internal error)",
            ),
        }
    }

    pub(super) fn linearize(
        &self,
        frame: &Frame,
        arr: SymbolId,
        bind: &VarBind,
        subs: &[i64],
    ) -> Result<usize> {
        let unit = &self.program.units[frame.unit];
        if subs.len() != bind.dims.len() {
            return kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                format!(
                    "`{}`: rank mismatch ({} subscripts, rank {})",
                    unit.symbol(arr).name,
                    subs.len(),
                    bind.dims.len()
                ),
            );
        }
        bind.linearize(subs).ok_or_else(|| {
            SimError::new(
                SimErrorKind::OutOfBounds,
                cedar_ir::Span::NONE,
                format!(
                    "subscript out of bounds: `{}`({:?}) with dims {:?}",
                    unit.symbol(arr).name,
                    subs,
                    bind.dims
                ),
            )
        })
    }

    pub(super) fn eval_intrinsic(
        &mut self,
        frame: &Frame,
        f: Intrinsic,
        args: &[Expr],
        par: ParMode,
        ctx: &mut Ctx,
    ) -> Result<Value> {
        if f.is_reduction() {
            return self.eval_reduction(frame, f, args, par, ctx);
        }
        if f == Intrinsic::Iota {
            return kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                "iota used in scalar context",
            );
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval_scalar(frame, a, ctx)?);
        }
        self.costs.charge(CostClass::Intrinsic, &mut self.stats, &mut ctx.time);
        value_ops::intrinsic(f, &vals).map_err(|e| SimError::from_op(e, cedar_ir::Span::NONE))
    }

    fn eval_call(
        &mut self,
        frame: &Frame,
        callee: &str,
        args: &[Expr],
        ctx: &mut Ctx,
    ) -> Result<Value> {
        let ridx = self.unit_index(callee).ok_or_else(|| {
            SimError::new(
                SimErrorKind::BadProgram,
                cedar_ir::Span::NONE,
                format!("call to unknown function `{callee}`"),
            )
        })?;
        let flow_result = self.invoke(frame, ridx, args, ctx)?;
        flow_result.ok_or_else(|| {
            SimError::new(
                SimErrorKind::Uninit,
                cedar_ir::Span::NONE,
                format!("function `{callee}` returned no value"),
            )
        })
    }
}
