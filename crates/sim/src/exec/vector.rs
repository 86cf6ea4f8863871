//! Sections, vector expressions and reductions: subscripts to lane
//! indices, lane loads, the lane-wise evaluator.

use super::types::{
    each_index, flag_all, progression, LaneIdx, Section, SectionDim, Subs, MAX_SECTION_RANK,
};
use super::{err, kerr, Ctx, Frame, Result, SimError, SimErrorKind, Simulator};
use crate::cost::{Access, CostClass};
use crate::lanes::Lanes;
use crate::store::{SlotId, VarBind, STORAGE_CAP};
use cedar_ir::{Expr, Index, Intrinsic, ParMode, SymbolId, Value};

impl Simulator<'_> {
    /// Evaluate the subscripts of a section into `sec` (fresh from
    /// [`Section::new`]): a descriptor per dimension — a fixed
    /// subscript, a range, or a gather vector — and the lane count.
    pub(super) fn section_lanes(
        &mut self,
        frame: &Frame,
        arr: SymbolId,
        idx: &[Index],
        ctx: &mut Ctx,
        sec: &mut Section,
    ) -> Result<()> {
        let bind = self.bind_of(frame, arr)?;
        for (k, i) in idx.iter().enumerate() {
            let (dlo, dhi) = *bind.dims.get(k).ok_or_else(|| {
                SimError::new(
                    SimErrorKind::TypeError,
                    cedar_ir::Span::NONE,
                    "section rank mismatch",
                )
            })?;
            match i {
                // (A constant or a variable is not; skip the tree walk.)
                Index::At(e)
                    if !matches!(e, Expr::Scalar(_) | Expr::ConstI(_)) && e.is_vector_valued() =>
                {
                    // Vector-valued subscript: hardware gather. Lane
                    // count comes from the subscript vector itself.
                    let n = self.infer_lanes(frame, e, ctx)?.ok_or_else(|| {
                        SimError::new(
                            SimErrorKind::TypeError,
                            cedar_ir::Span::NONE,
                            "gather subscript has no vector length",
                        )
                    })?;
                    let vals = self.eval_vec(frame, e, n, ctx)?;
                    sec.push(SectionDim::Gather(sec.gathers.len()));
                    sec.gathers.push(self.pool.ints(vals));
                    sec.lanes = sec.lanes.max(n);
                }
                Index::At(e) => {
                    let v = self.eval_i64(frame, e, ctx)?;
                    sec.push(SectionDim::Fixed(v));
                }
                Index::Range { lo, hi, step } => {
                    let lo = match lo {
                        Some(e) => self.eval_i64(frame, e, ctx)?,
                        None => dlo,
                    };
                    let hi = match hi {
                        Some(e) => self.eval_i64(frame, e, ctx)?,
                        None => dhi,
                    };
                    let step = match step {
                        Some(e) => self.eval_i64(frame, e, ctx)?,
                        None => 1,
                    };
                    if step == 0 {
                        return err(cedar_ir::Span::NONE, "section stride of zero");
                    }
                    // Multiple range dims form a cartesian product in
                    // column-major order; checked_mul bounds the total.
                    let too_large = || {
                        SimError::new(
                            SimErrorKind::Limit,
                            cedar_ir::Span::NONE,
                            "section too large",
                        )
                    };
                    let len = cedar_ir::trip(lo, hi, step)
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(too_large)?;
                    sec.lanes = sec.lanes.checked_mul(len).ok_or_else(too_large)?;
                    sec.push(SectionDim::RangeLen { lo, step, len });
                }
            }
        }
        self.element_work(sec.lanes)
    }

    /// Return a section's gather vectors to the pool.
    #[inline]
    pub(super) fn release_section(&mut self, sec: &mut Section) {
        for v in sec.gathers.drain(..) {
            self.pool.put_i(v);
        }
    }

    /// Resolve the lanes of a section to linear indices, column-major.
    ///
    /// Exactly one range dimension and no gather (`a(lo:hi)`,
    /// `rs(1:n, i)`, `a(i, lo:hi:2)` …) makes the lanes an arithmetic
    /// progression: bounds-checking the two end lanes covers every
    /// interior lane (the varying subscript is monotonic between them),
    /// and the section is carried as `(first, stride, len)` — no index
    /// per lane is ever written down. Everything else (several ranges,
    /// gathers, an out-of-bounds end lane, `without_fast_paths`) takes
    /// the odometer walk, which checks each lane and raises the error
    /// naming its subscripts.
    pub(super) fn section_index(&mut self, bind: &VarBind, sec: &Section) -> Result<LaneIdx> {
        if sec.rank > MAX_SECTION_RANK {
            return kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                "array rank exceeds the Fortran 77 limit of 7",
            );
        }
        let (dims, lanes) = (&sec.dims[..sec.rank], sec.lanes);
        if lanes == 0 {
            return Ok(LaneIdx::Prog { first: 0, stride: 0, len: 0 });
        }
        let mut range: Option<(usize, i64, i64, usize)> = None;
        let only_fixed_otherwise = dims.iter().enumerate().all(|(k, d)| match d {
            SectionDim::Fixed(_) => true,
            SectionDim::RangeLen { lo, step, len } if range.is_none() => {
                range = Some((k, *lo, *step, *len));
                true
            }
            _ => false,
        });
        let single = range.filter(|_| only_fixed_otherwise);
        if let (true, Some((k, lo, step, len))) = (self.fast_paths, single) {
            debug_assert_eq!(len, lanes);
            let mut subs = [0i64; MAX_SECTION_RANK];
            for (j, d) in dims.iter().enumerate() {
                subs[j] = match d {
                    SectionDim::Fixed(v) => *v,
                    SectionDim::RangeLen { lo, .. } => *lo,
                    SectionDim::Gather(_) => unreachable!("excluded above"),
                };
            }
            let last = lo + (len as i64 - 1) * step;
            if let Some((first, dim_stride)) = bind.linearize_ends(&subs[..dims.len()], k, last) {
                let stride = if len > 1 { (step * dim_stride) as isize } else { 0 };
                self.sections.progressions += 1;
                return Ok(LaneIdx::Prog { first, stride, len });
            }
            // An end lane is out of bounds: fall through to the general
            // walk, which raises the usual error.
        }
        // Every lane of a range lies between its end lanes. With an end
        // outside its dimension the walk only looks for the first lane
        // out of bounds and writes no index down: a section far past its
        // array fails before any memory is set aside for its lanes.
        let ends_in_bounds = dims.iter().zip(&bind.dims).all(|(d, &(dlo, dhi))| match *d {
            SectionDim::RangeLen { lo, step, len } => {
                let last = lo + (len as i64 - 1) * step;
                (dlo..=dhi).contains(&lo) && (dlo..=dhi).contains(&last)
            }
            _ => true,
        });
        // Odometer over range dims (column-major: leftmost fastest).
        let mut out = if ends_in_bounds { self.pool.lin(lanes) } else { Vec::new() };
        let mut counters = [0usize; MAX_SECTION_RANK];
        let counters = &mut counters[..dims.len()];
        let mut subs = Subs::new();
        for lane in 0..lanes {
            subs.clear();
            for (d, &c) in dims.iter().zip(counters.iter()) {
                match d {
                    SectionDim::Fixed(v) => subs.push(*v)?,
                    SectionDim::RangeLen { lo, step, .. } => subs.push(lo + (c as i64) * step)?,
                    SectionDim::Gather(g) => {
                        let vals = &sec.gathers[*g];
                        subs.push(vals.get(lane).or_else(|| vals.last()).copied().unwrap_or(0))?
                    }
                }
            }
            let lin = bind.linearize(subs.as_slice()).ok_or_else(|| {
                SimError::new(
                    SimErrorKind::OutOfBounds,
                    cedar_ir::Span::NONE,
                    format!(
                        "section lane out of bounds: {:?} dims {:?}",
                        subs.as_slice(),
                        bind.dims
                    ),
                )
            })?;
            if ends_in_bounds {
                out.push(lin);
            }
            // increment odometer (leftmost range dim fastest)
            for (k, d) in dims.iter().enumerate() {
                let lim = match d {
                    SectionDim::RangeLen { len, .. } => *len,
                    // A gather is advanced by the lane counter.
                    _ => 1,
                };
                if lim <= 1 {
                    continue;
                }
                counters[k] += 1;
                if counters[k] < lim {
                    break;
                }
                counters[k] = 0;
            }
        }
        match single {
            Some(_) => self.sections.single_range_lists += 1,
            None => self.sections.other_lists += 1,
        }
        Ok(LaneIdx::List(out))
    }

    /// Return a resolved section's index list, if it has one, to the pool.
    pub(super) fn release_index(&mut self, at: LaneIdx) {
        if let LaneIdx::List(l) = at {
            self.pool.put_lin(l);
        }
    }

    /// Load the lanes of a resolved section from `slot`: one slice copy
    /// for a contiguous run, else element by element (which is also the
    /// path that names an element outside the slot). The detector, when
    /// live, observes the same per-element reads in lane order.
    fn load_section(&mut self, slot: SlotId, at: &LaneIdx) -> Result<Lanes> {
        let data = self.store.slot(slot);
        let bulk = at.run().and_then(|(first, n)| data.load_run(first, n, &mut self.pool));
        let out = match bulk {
            Some(out) => out,
            None => each_index!(at, lins => data.load_at(lins, &mut self.pool))
                .map_err(|lin| self.storage_error(slot, lin))?,
        };
        if let Some(rd) = self.races.as_mut() {
            let races = each_index!(at, lins => rd.record_reads(slot, at.upper(), lins))?;
            flag_all(rd, races)?;
        }
        Ok(out)
    }

    /// Evaluate an expression as `lanes` lanes of one class. Sections
    /// load; scalars broadcast (evaluated once).
    pub(super) fn eval_vec(
        &mut self,
        frame: &Frame,
        e: &Expr,
        lanes: usize,
        ctx: &mut Ctx,
    ) -> Result<Lanes> {
        let op_err = |e| SimError::from_op(e, cedar_ir::Span::NONE);
        match e {
            Expr::Section { arr, idx } => {
                let mut sec = Section::new();
                self.section_lanes(frame, *arr, idx, ctx, &mut sec)?;
                if sec.lanes != lanes {
                    return kerr(
                        SimErrorKind::TypeError,
                        cedar_ir::Span::NONE,
                        format!("vector length mismatch: {} vs {lanes}", sec.lanes),
                    );
                }
                let bind = self.bind_of(frame, *arr)?;
                let at = self.section_index(bind, &sec)?;
                // Cost: one vector stream. Gathers cannot use the
                // sequential prefetch unit.
                self.costs.charge(CostClass::OperandStartup, &mut self.stats, &mut ctx.time);
                let how = if sec.gathers.is_empty() { Access::VectorRead } else { Access::Gather };
                let placement = bind.placement;
                let slot = self.resolve_slot(bind, ctx.cluster);
                ctx.time += self.access_cost(placement, lanes as u64, how, ctx);
                let out = self.load_section(slot, &at)?;
                self.release_index(at);
                self.release_section(&mut sec);
                Ok(out)
            }
            Expr::Un(op, inner) => {
                let v = self.eval_vec(frame, inner, lanes, ctx)?;
                self.costs.vector_node(false, lanes, &mut self.stats, &mut ctx.time);
                Ok(self.pool.un(*op, v))
            }
            Expr::Bin(op, l, r) => {
                let lv = self.eval_vec(frame, l, lanes, ctx)?;
                let rv = self.eval_vec(frame, r, lanes, ctx)?;
                self.costs.vector_node(false, lanes, &mut self.stats, &mut ctx.time);
                self.pool.bin(*op, lv, rv).map_err(op_err)
            }
            Expr::Intr { f: Intrinsic::Iota, args, .. } => {
                let (lo, hi) = iota_args(args)?;
                let lo = self.eval_scalar(frame, lo, ctx)?.as_i64();
                // `hi` only counts the lanes: it is read without a charge
                // where it can be.
                let hi = match self.peek(frame, hi, ctx.cluster) {
                    Some(v) => v.as_i64(),
                    None => self.eval_i64(frame, hi, ctx)?,
                };
                let n = iota_lanes(lo, hi)?;
                if n != lanes {
                    return kerr(
                        SimErrorKind::TypeError,
                        cedar_ir::Span::NONE,
                        format!("vector length mismatch: {n} vs {lanes}"),
                    );
                }
                self.costs.vector_node(false, lanes, &mut self.stats, &mut ctx.time);
                Ok(self.pool.iota(lo, lanes))
            }
            // A reduction inside a vector expression produces a
            // broadcast scalar.
            Expr::Intr { f, args, par } if f.is_reduction() => {
                let v = self.eval_intrinsic(frame, *f, args, *par, ctx)?;
                Ok(self.pool.splat(v, lanes))
            }
            Expr::Intr { f, args, .. } => {
                let mut cols = self.pool.cols(args.len());
                for a in args {
                    cols.push(self.eval_vec(frame, a, lanes, ctx)?);
                }
                self.costs.vector_node(true, lanes, &mut self.stats, &mut ctx.time);
                let out = self.pool.intrinsic(*f, &mut cols, lanes).map_err(op_err)?;
                self.pool.put_cols(cols);
                Ok(out)
            }
            // Scalar subexpression: evaluate once, broadcast.
            other => {
                let v = self.eval_scalar(frame, other, ctx)?;
                Ok(self.pool.splat(v, lanes))
            }
        }
    }

    /// Count lanes of the first section found in an expression.
    fn infer_lanes(&mut self, frame: &Frame, e: &Expr, ctx: &mut Ctx) -> Result<Option<usize>> {
        match e {
            Expr::Intr { f: Intrinsic::Iota, args, .. } => {
                let (lo, hi) = iota_args(args)?;
                let lo = self.eval_scalar(frame, lo, ctx)?.as_i64();
                let hi = self.eval_scalar(frame, hi, ctx)?.as_i64();
                iota_lanes(lo, hi).map(Some)
            }
            Expr::Section { arr, idx } => {
                let mut sec = Section::new();
                self.section_lanes(frame, *arr, idx, ctx, &mut sec)?;
                self.release_section(&mut sec);
                Ok(Some(sec.lanes))
            }
            Expr::Un(_, inner) => self.infer_lanes(frame, inner, ctx),
            Expr::Bin(_, l, r) => {
                if let Some(n) = self.infer_lanes(frame, l, ctx)? {
                    Ok(Some(n))
                } else {
                    self.infer_lanes(frame, r, ctx)
                }
            }
            Expr::Intr { f, args, .. } if !f.is_reduction() => {
                for a in args {
                    if let Some(n) = self.infer_lanes(frame, a, ctx)? {
                        return Ok(Some(n));
                    }
                }
                Ok(None)
            }
            _ => Ok(None),
        }
    }

    /// `e`'s value as it stands, read without a charge, a race note or
    /// a fault: constants and variables, and the operators over them.
    /// `None` for anything else, and for a read that would fail.
    fn peek(&self, frame: &Frame, e: &Expr, cluster: usize) -> Option<Value> {
        match e {
            Expr::ConstI(v) => Some(Value::I(*v)),
            Expr::ConstR { value, .. } => Some(Value::R(*value)),
            Expr::ConstB(b) => Some(Value::B(*b)),
            Expr::Scalar(s) => {
                let bind = frame.binds[s.index()].as_ref()?;
                self.store.slot(self.resolve_slot(bind, cluster)).try_get(bind.offset)
            }
            Expr::Un(op, inner) => Some(cedar_ir::ops::un(*op, self.peek(frame, inner, cluster)?)),
            Expr::Bin(op, l, r) => {
                let (l, r) = (self.peek(frame, l, cluster)?, self.peek(frame, r, cluster)?);
                cedar_ir::ops::bin(*op, l, r).ok()
            }
            _ => None,
        }
    }

    /// Vector reduction intrinsics (`SUM`, `DOTPRODUCT`, ...) with the
    /// §3.3 two-level parallel library scheme when `par` says so.
    pub(super) fn eval_reduction(
        &mut self,
        frame: &Frame,
        f: Intrinsic,
        args: &[Expr],
        par: ParMode,
        ctx: &mut Ctx,
    ) -> Result<Value> {
        // Evaluate operand vectors WITHOUT charging serial gather costs:
        // we charge an explicit cost model by mode below. To keep the
        // implementation simple we still evaluate via eval_vec (which
        // charges vector-mode memory costs) and then adjust mode costs.
        let lanes = match args.first() {
            Some(a) => self.infer_lanes(frame, a, ctx)?.ok_or_else(|| {
                SimError::new(
                    SimErrorKind::TypeError,
                    cedar_ir::Span::NONE,
                    format!("{}: argument is not a vector", f.name()),
                )
            })?,
            None => {
                return kerr(
                    SimErrorKind::TypeError,
                    cedar_ir::Span::NONE,
                    "reduction without arguments",
                )
            }
        };
        // Only the first two operands enter a value; any other is
        // evaluated for its charges.
        let (mut first, mut second) = (None, None);
        let mem_t0 = ctx.time;
        for (k, a) in args.iter().enumerate() {
            let col = self.eval_vec(frame, a, lanes, ctx)?;
            match k {
                0 => first = Some(col),
                1 => second = Some(col),
                _ => self.pool.put(col),
            }
        }
        let mem_cost = ctx.time - mem_t0;

        // Value: the lanes read through `as_f64`, folded in lane order.
        let a = self.pool.reals(first.expect("a reduction has a first operand"));
        let value = match f {
            Intrinsic::Sum => Value::R(a.iter().copied().sum()),
            Intrinsic::Product => Value::R(a.iter().copied().product()),
            Intrinsic::DotProduct => {
                let Some(b) = second.take().filter(|_| args.len() == 2) else {
                    return kerr(
                        SimErrorKind::TypeError,
                        cedar_ir::Span::NONE,
                        "dotproduct needs two vectors",
                    );
                };
                let b = self.pool.reals(b);
                let dot = a.iter().zip(&b).map(|(a, b)| a * b).sum();
                self.pool.put(Lanes::R(b));
                Value::R(dot)
            }
            Intrinsic::MaxVal => Value::R(a.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            Intrinsic::MinVal => Value::R(a.iter().copied().fold(f64::INFINITY, f64::min)),
            Intrinsic::MaxLoc | Intrinsic::MinLoc => {
                let mut best = 0usize;
                for (i, &v) in a.iter().enumerate() {
                    let better = if f == Intrinsic::MaxLoc { v > a[best] } else { v < a[best] };
                    if better {
                        best = i;
                    }
                }
                Value::I(best as i64 + 1)
            }
            other => {
                return kerr(
                    SimErrorKind::TypeError,
                    cedar_ir::Span::NONE,
                    format!("{} is not a reduction", other.name()),
                )
            }
        };
        self.pool.put(Lanes::R(a));
        if let Some(b) = second {
            self.pool.put(b);
        }

        let dot = f == Intrinsic::DotProduct;
        self.costs.reduction(par, dot, lanes, mem_cost, &mut self.stats, &mut ctx.time);
        Ok(value)
    }
}

/// The bounds of `iota(lo, hi)`.
fn iota_args(args: &[Expr]) -> Result<(&Expr, &Expr)> {
    match args {
        [lo, hi] => Ok((lo, hi)),
        _ => kerr(SimErrorKind::TypeError, cedar_ir::Span::NONE, "iota needs (lo, hi)"),
    }
}

/// The lanes of `iota(lo, hi)`, bounded as a declared array's elements
/// are: [`STORAGE_CAP`] bytes of 8-byte lanes. Past that the run is
/// `limit-exceeded` before any lane exists.
fn iota_lanes(lo: i64, hi: i64) -> Result<usize> {
    match cedar_ir::trip(lo, hi, 1) {
        Some(n) if n as u64 <= STORAGE_CAP / 8 => Ok(n as usize),
        _ => kerr(SimErrorKind::Limit, cedar_ir::Span::NONE, "iota too large"),
    }
}
