//! Storage and frames: COMMON and local allocation, pool accounting,
//! declared dims (and their prepass replay), and the activation
//! protocol of a call.

use super::types::{Section, SectionDim, Subs, MAX_SECTION_RANK};
use super::{err, kerr, Ctx, Frame, Result, SimError, SimErrorKind, Simulator};
use crate::cost::CostClass;
use crate::store::{element_count, SlotId, StorageRef, VarBind};
use crate::value_ops;
use cedar_ir::{Expr, Placement, SymKind, Symbol, SymbolId, Ty, Unit, Value, Visibility};

impl Simulator<'_> {
    /// Elements of the storage of `sym` with the bound dims `dims`, at
    /// least one: `Limit` when the count or its bytes do not fit, or
    /// when its copies under `placement` would take the run past
    /// [`STORAGE_CAP`](crate::store::STORAGE_CAP), shadow cells included
    /// under the race detector. A reused loop-local slot is checked as if
    /// it were new.
    pub(super) fn storage_len(
        &self,
        what: &str,
        sym: &Symbol,
        dims: &[(i64, i64)],
        placement: Placement,
    ) -> Result<usize> {
        let copies = match placement {
            Placement::Cluster | Placement::Default => self.clusters as u64,
            _ => 1,
        };
        element_count(dims)
            .map(|n| n.max(1))
            .filter(|&n| {
                (n as u64)
                    .checked_mul(self.store.elem_bytes(sym.ty) * copies)
                    .is_some_and(|bytes| self.store.fits(bytes))
            })
            .ok_or_else(|| {
                let msg = format!("{what} `{}` is too large", sym.name);
                SimError::new(SimErrorKind::Limit, sym.span, msg)
            })
    }

    pub(super) fn allocate_commons(&mut self) -> Result<()> {
        // Take member shapes from the first unit that declares each block.
        let block_names: Vec<String> = self.program.commons.keys().cloned().collect();
        for bname in block_names {
            let vis = self.program.commons[&bname].visibility;
            // Find the first declaring unit and its member symbols.
            let mut members: Vec<(usize, &Symbol, usize)> = Vec::new(); // (member, sym, unit idx)
            'outer: for (ui, u) in self.program.units.iter().enumerate() {
                let mut found: Vec<(usize, &Symbol)> = u
                    .symbols
                    .iter()
                    .filter_map(|s| match &s.kind {
                        SymKind::Common { block, member } if *block == bname => {
                            Some((*member, s))
                        }
                        _ => None,
                    })
                    .collect();
                if !found.is_empty() {
                    found.sort_by_key(|(m, _)| *m);
                    members = found.into_iter().map(|(m, s)| (m, s, ui)).collect();
                    break 'outer;
                }
            }
            let mut binds = Vec::new();
            for (_, sym, ui) in members {
                // COMMON dims must be compile-time constant.
                let dims = self.const_dims(&self.program.units[ui], sym)?;
                let placement = match vis {
                    Visibility::Global => Placement::Global,
                    Visibility::Cluster => Placement::Cluster,
                };
                let len = self.storage_len("COMMON array", sym, &dims, placement)?;
                let sref = self.alloc_storage(sym.ty, len, placement, 0);
                let bind = VarBind { sref, offset: 0, dims, ty: sym.ty, placement };
                // DATA initializers.
                self.apply_init(&bind, &sym.init);
                self.note_bind_name(&sym.name, &bind);
                binds.push(bind);
            }
            self.commons.insert(bname, binds);
        }
        Ok(())
    }

    fn const_dims(&self, unit: &Unit, sym: &Symbol) -> Result<Vec<(i64, i64)>> {
        let bound = |e| unit.const_value(e).map(Value::as_i64);
        let mut dims = Vec::new();
        for d in &sym.dims {
            match (bound(&d.lower), d.upper.as_ref().map(bound)) {
                (Some(lo), Some(Some(hi))) => dims.push((lo, hi)),
                (Some(_), None) => {
                    return err(sym.span, format!("COMMON array `{}` is assumed-size", sym.name))
                }
                _ => {
                    return err(sym.span, format!("COMMON array `{}` has non-constant bounds", sym.name))
                }
            }
        }
        Ok(dims)
    }

    /// Release the pool bytes of a binding created by `alloc_storage`
    /// (used when loop locals and routine locals go out of scope, so the
    /// paging model sees live working sets, not allocation history).
    pub(super) fn release_binding(&mut self, bind: &VarBind, home_cluster: usize) {
        let len = if bind.dims.is_empty() { 1 } else { bind.total_len().max(1) };
        let bytes = len as u64 * bind.ty.size_bytes();
        match (&bind.sref, bind.placement) {
            (StorageRef::One(_), Placement::Global | Placement::Partitioned) => {
                self.store.release_global(bytes);
            }
            (StorageRef::One(_), _) => {
                self.store.release_cluster(home_cluster, bytes);
            }
            (StorageRef::PerCluster(v), _) => {
                for c in 0..v.len() {
                    self.store.release_cluster(c, bytes);
                }
            }
            (StorageRef::PerParticipant(v), _) => {
                for _ in v {
                    self.store.release_cluster(home_cluster, bytes);
                }
            }
        }
    }

    /// Allocate storage of a placement class; `home_cluster` is used for
    /// Private allocations (they live in that cluster's pool).
    pub(super) fn alloc_storage(
        &mut self,
        ty: Ty,
        len: usize,
        placement: Placement,
        home_cluster: usize,
    ) -> StorageRef {
        let bytes = len as u64 * ty.size_bytes();
        match placement {
            Placement::Global | Placement::Partitioned => {
                self.store.charge_global(bytes);
                StorageRef::One(self.store.alloc(ty, len))
            }
            Placement::Cluster | Placement::Default => {
                // One copy per cluster; each charged to its own pool.
                let slots = (0..self.clusters)
                    .map(|c| {
                        self.store.charge_cluster(c, bytes);
                        self.store.alloc(ty, len)
                    })
                    .collect();
                StorageRef::PerCluster(slots)
            }
            Placement::Private => {
                self.store.charge_cluster(home_cluster, bytes);
                StorageRef::One(self.store.alloc(ty, len))
            }
        }
    }

    fn apply_init(&mut self, bind: &VarBind, init: &[Value]) {
        if init.is_empty() {
            return;
        }
        let slots: Vec<SlotId> = match &bind.sref {
            StorageRef::One(s) => vec![*s],
            StorageRef::PerCluster(v) | StorageRef::PerParticipant(v) => v.clone(),
        };
        for slot in slots {
            let data = self.store.slot_mut(slot);
            for (i, v) in init.iter().enumerate() {
                if bind.offset + i < data.len() {
                    data.set(bind.offset + i, value_ops::coerce(*v, bind.ty));
                }
            }
        }
    }

    /// Build a frame for unit `idx`, allocating its local storage.
    /// Argument symbols are left unbound (the caller binds them).
    pub(super) fn new_frame(&mut self, idx: usize, ctx: &mut Ctx) -> Result<Frame> {
        let unit = &self.program.units[idx];
        let mut frame = Frame::new(idx, unit.symbols.len());
        // Two passes: scalars first (so array dims referencing scalar
        // PARAMETERs / locals resolve), then arrays.
        for pass in 0..2 {
            for (si, sym) in unit.symbols.iter().enumerate() {
                if frame.binds[si].is_some() {
                    continue;
                }
                let is_array = sym.is_array();
                if (pass == 0 && is_array) || (pass == 1 && !is_array) {
                    continue;
                }
                match &sym.kind {
                    SymKind::Arg(_) => continue, // caller binds
                    SymKind::Param(v) => {
                        // Constants live in a tiny private slot.
                        let sref = self.alloc_storage(sym.ty, 1, Placement::Private, ctx.cluster);
                        let bind = VarBind {
                            sref,
                            offset: 0,
                            dims: vec![],
                            ty: sym.ty,
                            placement: Placement::Private,
                        };
                        self.apply_init(&bind, &[*v]);
                        frame.binds[si] = Some(bind);
                    }
                    SymKind::Common { block, member } => {
                        let b = self
                            .commons
                            .get(block)
                            .and_then(|v| v.get(*member))
                            .cloned()
                            .ok_or_else(|| {
                                SimError::new(
                                    SimErrorKind::Uninit,
                                    sym.span,
                                    format!("COMMON /{block}/ member {member} unbound"),
                                )
                            })?;
                        frame.binds[si] = Some(b);
                    }
                    SymKind::Local | SymKind::FuncResult | SymKind::LoopLocal => {
                        // Loop locals are bound lazily at loop entry; skip.
                        if matches!(sym.kind, SymKind::LoopLocal) {
                            continue;
                        }
                        let placement = match sym.placement {
                            Placement::Default => Placement::Cluster,
                            p => p,
                        };
                        let dims = match self.cached_dims(idx, si, ctx) {
                            Some(d) => d.to_vec(),
                            None => self.eval_dims(&frame, unit, si, ctx)?,
                        };
                        let len = self.storage_len("array", sym, &dims, placement)?;
                        let sref = self.alloc_storage(sym.ty, len, placement, ctx.cluster);
                        let bind = VarBind { sref, offset: 0, dims, ty: sym.ty, placement };
                        self.apply_init(&bind, &sym.init);
                        self.note_bind_name(&sym.name, &bind);
                        frame.binds[si] = Some(bind);
                    }
                }
            }
        }
        Ok(frame)
    }

    /// Evaluate the declared dims of symbol `si` in the frame.
    fn eval_dims(
        &mut self,
        frame: &Frame,
        unit: &Unit,
        si: usize,
        ctx: &mut Ctx,
    ) -> Result<Vec<(i64, i64)>> {
        let sym = &unit.symbols[si];
        let mut dims = Vec::with_capacity(sym.dims.len());
        for d in &sym.dims {
            let lo = self.eval_scalar(frame, &d.lower, ctx)?.as_i64();
            let hi = match &d.upper {
                Some(e) => self.eval_scalar(frame, e, ctx)?.as_i64(),
                None => {
                    return err(
                        sym.span,
                        format!("assumed-size array `{}` without caller binding", sym.name),
                    )
                }
            };
            dims.push((lo, hi));
        }
        Ok(dims)
    }

    /// Prepass fast path for [`Self::eval_dims`]: when the declared dims
    /// of `[unit_idx][si]` constant-folded, replay the recorded charge
    /// sequence (bit-identical to the slow walk; see `prepass`) and
    /// return the dims. `None` = take the slow path. Bypassed under race
    /// detection: the slow path's PARAMETER reads go through the
    /// detector's shadow memory and must not be skipped.
    pub(super) fn cached_dims(&mut self, unit_idx: usize, si: usize, ctx: &mut Ctx) -> Option<&[(i64, i64)]> {
        if self.races.is_some() {
            return None;
        }
        let cd = self.pre.dims(unit_idx, si)?;
        for &c in &cd.charges {
            self.costs.charge(c, &mut self.stats, &mut ctx.time);
        }
        Some(&cd.dims)
    }

    #[inline]
    pub(super) fn resolve_slot(&self, bind: &VarBind, cluster: usize) -> SlotId {
        match &bind.sref {
            StorageRef::One(s) => *s,
            StorageRef::PerCluster(v) => v[cluster.min(v.len() - 1)],
            StorageRef::PerParticipant(v) => v[0], // rebound per participant
        }
    }

    /// Tell the race detector (when active) which source name a
    /// binding's slots carry, so race reports can cite the variable.
    fn note_bind_name(&mut self, name: &str, bind: &VarBind) {
        if let Some(rd) = self.races.as_mut() {
            match &bind.sref {
                StorageRef::One(s) => rd.note_slot_name(*s, name),
                StorageRef::PerCluster(v) | StorageRef::PerParticipant(v) => {
                    for s in v {
                        rd.note_slot_name(*s, name);
                    }
                }
            }
        }
    }

    /// Resolve a callee name to its unit index via the prepass table
    /// (first definition wins, matching the former linear scan).
    pub(super) fn unit_index(&self, callee: &str) -> Option<usize> {
        self.pre.unit_index.get(callee).copied()
    }

    /// Invoke unit `ridx` with actual arguments; returns the function
    /// result value if the unit is a FUNCTION.
    pub(super) fn invoke(
        &mut self,
        caller: &Frame,
        ridx: usize,
        args: &[Expr],
        ctx: &mut Ctx,
    ) -> Result<Option<Value>> {
        self.call_depth += 1;
        if self.call_depth > 200 {
            self.call_depth -= 1;
            return kerr(
                SimErrorKind::Limit,
                cedar_ir::Span::NONE,
                "call depth exceeded (recursion?)",
            );
        }
        self.costs.charge(CostClass::Call, &mut self.stats, &mut ctx.time);

        // `&'p` borrow independent of `&mut self` (see run_main).
        let callee_unit = &{ self.program }.units[ridx];
        let mut frame = Frame::new(ridx, callee_unit.symbols.len());

        // Pass 1: bind arguments (aliases or value temps).
        if args.len() != callee_unit.args.len() {
            self.call_depth -= 1;
            return kerr(
                SimErrorKind::TypeError,
                callee_unit.span,
                format!(
                    "`{}` called with {} args, expects {}",
                    callee_unit.name,
                    args.len(),
                    callee_unit.args.len()
                ),
            );
        }
        for (pos, actual) in args.iter().enumerate() {
            let dummy = callee_unit.args[pos];
            let bind = self.bind_actual(caller, actual, ctx)?;
            frame.binds[dummy.index()] = Some(bind);
        }

        // Pass 2: allocate locals (needs args for adjustable dims), then
        // fix up dummy array dims as declared by the callee.
        let local_frame = {
            // Allocate non-arg symbols via new_frame-like logic but into
            // the existing frame.
            let mut f2 = self.new_frame_into(frame, ctx)?;
            // Adjustable dummy dims: reshape each bound arg to the
            // callee's declared dims.
            for (pos, _) in args.iter().enumerate() {
                let dummy = callee_unit.args[pos];
                let sym = callee_unit.symbol(dummy);
                if sym.is_array() {
                    let declared = self.eval_dummy_dims(&f2, ridx, dummy, ctx)?;
                    if let Some(b) = f2.binds[dummy.index()].as_mut() {
                        b.dims = declared;
                        b.ty = sym.ty;
                    }
                } else if let Some(b) = f2.binds[dummy.index()].as_mut() {
                    b.dims = Vec::new();
                    b.ty = sym.ty;
                }
            }
            f2
        };
        let mut frame = local_frame;

        self.seal_frame(&mut frame);
        self.exec_unit_body(&mut frame, ridx, ctx)?;

        let result = match callee_unit.result {
            Some(r) => {
                let bind = self.bind_of(&frame, r)?;
                let slot = self.resolve_slot(bind, ctx.cluster);
                let offset = bind.offset;
                Some(self.load(slot, offset)?)
            }
            None => None,
        };
        // Locals go out of scope: release their pool accounting so the
        // paging model tracks the live working set. Argument aliases and
        // COMMON bindings are the caller's / program's storage.
        for (si, sym) in callee_unit.symbols.iter().enumerate() {
            if matches!(
                sym.kind,
                SymKind::Local | SymKind::FuncResult | SymKind::Param(_)
            ) {
                if let Some(b) = frame.binds[si].take() {
                    self.release_binding(&b, ctx.cluster);
                }
            }
        }
        self.retire_frame(&mut frame);
        self.call_depth -= 1;
        Ok(result)
    }

    /// Allocate local storage for every unbound non-arg symbol of the
    /// frame's unit (args are already bound).
    fn new_frame_into(&mut self, mut frame: Frame, ctx: &mut Ctx) -> Result<Frame> {
        let idx = frame.unit;
        let fresh = self.new_frame(idx, ctx)?;
        for (i, b) in fresh.binds.into_iter().enumerate() {
            if frame.binds[i].is_none() {
                frame.binds[i] = b;
            }
        }
        Ok(frame)
    }

    /// Declared dims of a dummy argument, evaluated in the callee frame;
    /// assumed-size last dimension resolves against the actual length.
    fn eval_dummy_dims(
        &mut self,
        frame: &Frame,
        ridx: usize,
        dummy: SymbolId,
        ctx: &mut Ctx,
    ) -> Result<Vec<(i64, i64)>> {
        // Fully-constant declared dims (never assumed-size: the fold
        // requires every upper bound) replay from the prepass cache.
        if let Some(d) = self.cached_dims(ridx, dummy.index(), ctx) {
            return Ok(d.to_vec());
        }
        let unit = &{ self.program }.units[ridx];
        let sym = unit.symbol(dummy);
        let mut dims = Vec::with_capacity(sym.dims.len());
        let bind = self.bind_of(frame, dummy)?;
        for (k, d) in sym.dims.iter().enumerate() {
            let lo = self.eval_scalar(frame, &d.lower, ctx)?.as_i64();
            let hi = match &d.upper {
                Some(e) => self.eval_scalar(frame, e, ctx)?.as_i64(),
                None => {
                    // Assumed size: fill from the actual's remaining
                    // length.
                    debug_assert_eq!(k + 1, sym.dims.len());
                    let slot = self.resolve_slot(bind, ctx.cluster);
                    let total = self.store.slot(slot).len().saturating_sub(bind.offset);
                    let lead: usize = dims
                        .iter()
                        .map(|&(l, h): &(i64, i64)| ((h - l + 1).max(0)) as usize)
                        .product();
                    let rem = total.checked_div(lead).unwrap_or(0);
                    lo + rem as i64 - 1
                }
            };
            dims.push((lo, hi));
        }
        Ok(dims)
    }

    /// Bind one actual argument: produce an aliasing VarBind (or a value
    /// temp for expression actuals).
    fn bind_actual(&mut self, caller: &Frame, actual: &Expr, ctx: &mut Ctx) -> Result<VarBind> {
        match actual {
            Expr::Scalar(s) => Ok(self.bind_of(caller, *s)?.clone()),
            Expr::Section { arr, idx } => {
                // Whole-array pass (full section) or sub-section starting
                // point; we alias from the section's first element.
                let mut sec = Section::new();
                self.section_lanes(caller, *arr, idx, ctx, &mut sec)?;
                let subs: Vec<i64> = sec.dims[..sec.rank.min(MAX_SECTION_RANK)]
                    .iter()
                    .chain(&sec.spill)
                    .map(|d| match d {
                        SectionDim::Fixed(v) => *v,
                        SectionDim::RangeLen { lo, .. } => *lo,
                        SectionDim::Gather(g) => sec.gathers[*g].first().copied().unwrap_or(1),
                    })
                    .collect();
                self.release_section(&mut sec);
                let bind = self.bind_of(caller, *arr)?;
                let lin = bind.linearize(&subs, false).unwrap_or(bind.offset);
                let mut nb = bind.clone();
                nb.offset = lin;
                Ok(nb)
            }
            Expr::Elem { arr, idx } => {
                let mut subs = Subs::new();
                for e in idx {
                    subs.push(self.eval_scalar(caller, e, ctx)?.as_i64())?;
                }
                let bind = self.bind_of(caller, *arr)?;
                let lin = self.linearize(caller, *arr, bind, subs.as_slice())?;
                let mut nb = bind.clone();
                nb.offset = lin;
                Ok(nb)
            }
            other => {
                // Expression actual: by-value temp.
                let v = self.eval_scalar(caller, other, ctx)?;
                let ty = v.ty();
                let sref = self.alloc_storage(ty, 1, Placement::Private, ctx.cluster);
                let bind = VarBind { sref, offset: 0, dims: vec![], ty, placement: Placement::Private };
                self.apply_init(&bind, &[v]);
                Ok(bind)
            }
        }
    }
}
