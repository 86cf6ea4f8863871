//! Simulated storage: typed slots, placement-aware bindings, and the
//! capacity pools behind the paging model.

use crate::lanes::{LanePool, Lanes};
use crate::value_ops::Class;
use cedar_ir::{Placement, Ty, Value};
use std::cell::Cell;

/// One contiguous storage slot (column-major array or scalar cell).
#[derive(Debug, Clone)]
pub enum ArrayData {
    /// REAL / DOUBLE PRECISION payload.
    R(Vec<f64>),
    /// INTEGER payload.
    I(Vec<i64>),
    /// LOGICAL payload.
    B(Vec<bool>),
}

impl ArrayData {
    /// Zero-initialized storage of `len` elements of type `ty`.
    pub fn new(ty: Ty, len: usize) -> ArrayData {
        match ty {
            Ty::Real | Ty::Double => ArrayData::R(vec![0.0; len]),
            Ty::Int => ArrayData::I(vec![0; len]),
            Ty::Logical => ArrayData::B(vec![false; len]),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::R(v) => v.len(),
            ArrayData::I(v) => v.len(),
            ArrayData::B(v) => v.len(),
        }
    }

    /// True when the slot has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element at linear index `i`. Panics when out of range; the
    /// interpreter's fallible paths use [`ArrayData::try_get`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            ArrayData::R(v) => Value::R(v[i]),
            ArrayData::I(v) => Value::I(v[i]),
            ArrayData::B(v) => Value::B(v[i]),
        }
    }

    /// Element at linear index `i`, or `None` when `i` is outside the
    /// slot (e.g. a sub-array actual bound to a larger declared shape).
    pub fn try_get(&self, i: usize) -> Option<Value> {
        match self {
            ArrayData::R(v) => v.get(i).map(|&x| Value::R(x)),
            ArrayData::I(v) => v.get(i).map(|&x| Value::I(x)),
            ArrayData::B(v) => v.get(i).map(|&x| Value::B(x)),
        }
    }

    /// Store `val` (coerced to the slot type) at linear index `i`.
    /// Panics when out of range; the interpreter's fallible paths use
    /// [`ArrayData::try_set`].
    pub fn set(&mut self, i: usize, val: Value) {
        match self {
            ArrayData::R(v) => v[i] = val.as_f64(),
            ArrayData::I(v) => v[i] = val.as_i64(),
            ArrayData::B(v) => v[i] = val.as_bool(),
        }
    }

    /// The payload class.
    pub(crate) fn class(&self) -> Class {
        match self {
            ArrayData::R(_) => Class::R,
            ArrayData::I(_) => Class::I,
            ArrayData::B(_) => Class::B,
        }
    }

    /// Elements `first .. first + n` as lanes of the slot's class — one
    /// slice copy; `None` when the run is outside the slot (the caller
    /// takes [`ArrayData::load_at`], which names the element).
    pub(crate) fn load_run(&self, first: usize, n: usize, pool: &mut LanePool) -> Option<Lanes> {
        fn copy<T: Copy>(src: &[T], first: usize, n: usize, mut out: Vec<T>) -> Option<Vec<T>> {
            out.extend_from_slice(src.get(first..first + n)?);
            Some(out)
        }
        Some(match self {
            ArrayData::R(v) => Lanes::R(copy(v, first, n, pool.r(n))?),
            ArrayData::I(v) => Lanes::I(copy(v, first, n, pool.i(n))?),
            ArrayData::B(v) => Lanes::B(copy(v, first, n, pool.b(n))?),
        })
    }

    /// The elements at the linear indices `at`, in order, as lanes of
    /// the slot's class; `Err` with the first index outside the slot.
    /// Semantically one [`ArrayData::try_get`] per index.
    pub(crate) fn load_at(
        &self,
        at: impl ExactSizeIterator<Item = usize>,
        pool: &mut LanePool,
    ) -> Result<Lanes, usize> {
        fn gather<T: Copy>(
            src: &[T],
            at: impl Iterator<Item = usize>,
            mut out: Vec<T>,
        ) -> Result<Vec<T>, usize> {
            for lin in at {
                out.push(*src.get(lin).ok_or(lin)?);
            }
            Ok(out)
        }
        let n = at.len();
        Ok(match self {
            ArrayData::R(v) => Lanes::R(gather(v, at, pool.r(n))?),
            ArrayData::I(v) => Lanes::I(gather(v, at, pool.i(n))?),
            ArrayData::B(v) => Lanes::B(gather(v, at, pool.b(n))?),
        })
    }

    /// Store `vals` at consecutive indices from `first`, each lane
    /// coerced to `ty` and then to the payload type as the element
    /// store does; `false`, with nothing written, when the run is
    /// outside the slot.
    pub(crate) fn store_run(&mut self, first: usize, vals: &Lanes, ty: Ty) -> bool {
        fn copy<T: Copy>(dst: &mut [T], first: usize, src: &[T]) -> bool {
            dst.get_mut(first..first + src.len()).map(|run| run.copy_from_slice(src)).is_some()
        }
        match (&mut *self, vals, Class::of(ty)) {
            (ArrayData::R(dst), Lanes::R(src), Class::R) => copy(dst, first, src),
            (ArrayData::I(dst), Lanes::I(src), Class::I) => copy(dst, first, src),
            (ArrayData::B(dst), Lanes::B(src), Class::B) => copy(dst, first, src),
            _ => {
                let end = first + vals.len();
                end <= self.len() && self.store_at(first..end, vals, ty).is_ok()
            }
        }
    }

    /// Store lane `k` of `vals` at the `k`-th index of `at`, coerced as
    /// in [`ArrayData::store_run`]; `Err` with the first index outside
    /// the slot (the lanes before it are written). Semantically one
    /// coercing [`ArrayData::try_set`] per index.
    pub(crate) fn store_at(
        &mut self,
        at: impl Iterator<Item = usize>,
        vals: &Lanes,
        ty: Ty,
    ) -> Result<(), usize> {
        fn scatter<T, U: Copy>(
            dst: &mut [T],
            at: impl Iterator<Item = usize>,
            src: &[U],
            coerce: impl Fn(U) -> T,
        ) -> Result<(), usize> {
            for (lin, &v) in at.zip(src) {
                *dst.get_mut(lin).ok_or(lin)? = coerce(v);
            }
            Ok(())
        }
        match (&mut *self, vals, Class::of(ty)) {
            (ArrayData::R(dst), Lanes::R(src), Class::R) => scatter(dst, at, src, |v| v),
            (ArrayData::I(dst), Lanes::I(src), Class::I) => scatter(dst, at, src, |v| v),
            (ArrayData::R(dst), Lanes::I(src), Class::R) => {
                scatter(dst, at, src, |v| Value::I(v).as_f64())
            }
            (ArrayData::I(dst), Lanes::R(src), Class::I) => {
                scatter(dst, at, src, |v| Value::R(v).as_i64())
            }
            // The rarer pairings, one boxed lane at a time.
            _ => at.take(vals.len()).enumerate().try_for_each(|(k, lin)| {
                let v = crate::value_ops::coerce(vals.get(k), ty);
                self.try_set(lin, v).then_some(()).ok_or(lin)
            }),
        }
    }

    /// Store `val` at linear index `i`; `false` when out of range.
    pub fn try_set(&mut self, i: usize, val: Value) -> bool {
        match self {
            ArrayData::R(v) => match v.get_mut(i) {
                Some(x) => *x = val.as_f64(),
                None => return false,
            },
            ArrayData::I(v) => match v.get_mut(i) {
                Some(x) => *x = val.as_i64(),
                None => return false,
            },
            ArrayData::B(v) => match v.get_mut(i) {
                Some(x) => *x = val.as_bool(),
                None => return false,
            },
        }
        true
    }
}

/// Handle of a slot in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub u32);

/// Where a symbol's storage lives: one machine-wide copy, one copy per
/// cluster, or one per participant of the current parallel loop.
#[derive(Debug, Clone)]
pub enum StorageRef {
    /// A single machine-wide copy.
    One(SlotId),
    /// One copy per cluster, indexed by cluster number.
    PerCluster(Vec<SlotId>),
    /// One copy per participant of the active parallel loop.
    PerParticipant(Vec<SlotId>),
}

/// A symbol's binding within an activation frame.
#[derive(Debug, Clone)]
pub struct VarBind {
    /// Where the storage lives.
    pub sref: StorageRef,
    /// Element offset into the slot (nonzero when an array element was
    /// passed as an actual argument — the classic `a(1, j)` column-slice
    /// idiom).
    pub offset: usize,
    /// Resolved dimension bounds (lower, upper) at bind time, for
    /// subscript linearization. Scalars have none.
    pub dims: Vec<(i64, i64)>,
    /// Element type.
    pub ty: Ty,
    /// Memory class used by the cost model.
    pub placement: Placement,
}

impl VarBind {
    /// Column-major linearization of a subscript list against the bound
    /// dims; `None` when out of declared bounds.
    pub fn linearize(&self, subs: &[i64]) -> Option<usize> {
        debug_assert_eq!(subs.len(), self.dims.len());
        linearize(strides(&self.dims), self.offset, subs.iter().copied())
    }

    /// Both end lanes of a one-range section in one pass: the
    /// [`VarBind::linearize`] of `subs`, and the element stride of
    /// dimension `k` — `None` when `subs`, or `subs` with subscript `k`
    /// replaced by `last`, is out of declared bounds.
    pub fn linearize_ends(&self, subs: &[i64], k: usize, last: i64) -> Option<(usize, i64)> {
        let d = strides(&self.dims).nth(k)?;
        if last < d.lo || last > d.hi {
            return None;
        }
        Some((self.linearize(subs)?, d.stride))
    }

    /// Element count implied by the bound dimensions, `usize::MAX` when
    /// it does not fit (storage was never allocated for such a count).
    pub fn total_len(&self) -> usize {
        element_count(&self.dims).unwrap_or(usize::MAX)
    }
}

/// One bound dimension with its column-major element stride.
#[derive(Clone, Copy, Default)]
pub(crate) struct DimStride {
    pub lo: i64,
    pub hi: i64,
    pub stride: i64,
}

/// `dims` with their strides: 1 for the first, and for each next one
/// the stride before times the extent before, wrapping.
pub(crate) fn strides(dims: &[(i64, i64)]) -> impl Iterator<Item = DimStride> + '_ {
    dims.iter().scan(1i64, |stride, &(lo, hi)| {
        let d = DimStride { lo, hi, stride: *stride };
        *stride = stride.wrapping_mul(hi.wrapping_sub(lo).wrapping_add(1));
        Some(d)
    })
}

/// The element `subs` of storage at `offset` with `dims`, for every
/// executor; `None` out of bounds. Wrapping arithmetic: only a dummy
/// argument's declared dims can overflow it, and such an element is
/// then refused by its storage.
#[inline(always)]
pub(crate) fn linearize(
    dims: impl Iterator<Item = DimStride>,
    offset: usize,
    subs: impl Iterator<Item = i64>,
) -> Option<usize> {
    let mut lin: i64 = 0;
    for (s, d) in subs.zip(dims) {
        if s < d.lo || s > d.hi {
            return None;
        }
        lin = lin.wrapping_add(s.wrapping_sub(d.lo).wrapping_mul(d.stride));
    }
    usize::try_from(lin).ok().map(|l| l + offset)
}

/// Elements of an array with the bound dimensions `dims`; `None` when
/// the count does not fit in a `usize`.
pub(crate) fn element_count(dims: &[(i64, i64)]) -> Option<usize> {
    dims.iter().try_fold(1usize, |n, &(lo, hi)| {
        n.checked_mul(usize::try_from(cedar_ir::trip(lo, hi, 1)?).ok()?)
    })
}

/// A slot's elements as cells ([`Store::cells`]).
#[derive(Clone, Copy)]
pub(crate) enum Cells<'s> {
    R(&'s [Cell<f64>]),
    I(&'s [Cell<i64>]),
    B(&'s [Cell<bool>]),
}

/// Simulated bytes one run may allocate over all its slots. A slot
/// lives until the run ends (a scope exit returns its bytes to the
/// paging model's pools, not to the host), so this bounds what a run
/// takes from the host allocator, which aborts the process on a request
/// it cannot meet. A declaration past it is `limit-exceeded` before
/// anything is allocated (EXPERIMENTS.md: the largest workload's total).
/// Under the race detector each element is charged its shadow cell too
/// ([`Store::charge_shadow`]).
pub const STORAGE_CAP: u64 = 1 << 28;

/// The slot arena plus the capacity pools of the paging model.
#[derive(Debug, Default)]
pub struct Store {
    slots: Vec<ArrayData>,
    /// Simulated bytes of every slot allocated so far.
    allocated: u64,
    /// Bytes charged per element on top of its own: the race detector's
    /// shadow cell, or nothing without a detector.
    shadow_bytes: u64,
    /// Bytes allocated per cluster memory pool.
    pub cluster_pool: Vec<u64>,
    /// Bytes allocated in the global pool.
    pub global_pool: u64,
}

impl Store {
    /// Empty store with one capacity pool per cluster.
    pub fn new(clusters: usize) -> Store {
        Store { cluster_pool: vec![0; clusters], ..Store::default() }
    }

    /// Charge every element, allocated so far and from now on, for a
    /// shadow cell of the race detector, so that storage and shadow
    /// together stay within [`STORAGE_CAP`].
    pub(crate) fn charge_shadow(&mut self) {
        if self.shadow_bytes == 0 {
            self.shadow_bytes = crate::race::CELL_BYTES;
            let elems: u64 = self.slots.iter().map(|s| s.len() as u64).sum();
            self.allocated = self.allocated.saturating_add(elems * self.shadow_bytes);
        }
    }

    /// Simulated bytes charged per element of `ty`, shadow included.
    pub(crate) fn elem_bytes(&self, ty: Ty) -> u64 {
        ty.size_bytes() + self.shadow_bytes
    }

    /// Would `bytes` more keep the run within [`STORAGE_CAP`]?
    pub(crate) fn fits(&self, bytes: u64) -> bool {
        self.allocated.checked_add(bytes).is_some_and(|total| total <= STORAGE_CAP)
    }

    /// Allocate a zeroed slot.
    pub fn alloc(&mut self, ty: Ty, len: usize) -> SlotId {
        self.allocated += len as u64 * self.elem_bytes(ty);
        let id = SlotId(self.slots.len() as u32);
        self.slots.push(ArrayData::new(ty, len));
        id
    }

    /// Zero slot `id` in place, as [`Store::alloc`] would leave a fresh
    /// one, when it holds `len` elements of `ty`'s payload class;
    /// `false`, with the slot untouched, otherwise.
    pub(crate) fn rezero(&mut self, id: SlotId, ty: Ty, len: usize) -> bool {
        let slot = &mut self.slots[id.0 as usize];
        if slot.len() != len || slot.class() != Class::of(ty) {
            return false;
        }
        match slot {
            ArrayData::R(v) => v.fill(0.0),
            ArrayData::I(v) => v.fill(0),
            ArrayData::B(v) => v.fill(false),
        }
        true
    }

    /// Read access to a slot.
    pub fn slot(&self, id: SlotId) -> &ArrayData {
        &self.slots[id.0 as usize]
    }

    /// Write access to a slot.
    pub fn slot_mut(&mut self, id: SlotId) -> &mut ArrayData {
        &mut self.slots[id.0 as usize]
    }

    /// The slots `ids`, ascending and distinct, as cells: views that
    /// may be held together and written through, for operands that
    /// share one slot. `view(id, cells)` receives each one's.
    pub(crate) fn cells<'s>(&'s mut self, ids: &[SlotId], mut view: impl FnMut(SlotId, Cells<'s>)) {
        let (mut slots, mut next) = (self.slots.iter_mut(), 0);
        for &id in ids {
            let data = slots.nth(id.0 as usize - next).expect("a slot of this store");
            next = id.0 as usize + 1;
            view(
                id,
                match data {
                    ArrayData::R(v) => Cells::R(Cell::from_mut(&mut v[..]).as_slice_of_cells()),
                    ArrayData::I(v) => Cells::I(Cell::from_mut(&mut v[..]).as_slice_of_cells()),
                    ArrayData::B(v) => Cells::B(Cell::from_mut(&mut v[..]).as_slice_of_cells()),
                },
            );
        }
    }

    /// Account `bytes` to a pool; returns nothing — thrash factors are
    /// queried per access.
    pub fn charge_cluster(&mut self, cluster: usize, bytes: u64) {
        self.cluster_pool[cluster] += bytes;
    }

    /// Account `bytes` to the global pool.
    pub fn charge_global(&mut self, bytes: u64) {
        self.global_pool += bytes;
    }

    /// Return `bytes` to a cluster pool (scope exit).
    pub fn release_cluster(&mut self, cluster: usize, bytes: u64) {
        self.cluster_pool[cluster] = self.cluster_pool[cluster].saturating_sub(bytes);
    }

    /// Return `bytes` to the global pool (scope exit).
    pub fn release_global(&mut self, bytes: u64) {
        self.global_pool = self.global_pool.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_column_major() {
        let b = VarBind {
            sref: StorageRef::One(SlotId(0)),
            offset: 0,
            dims: vec![(1, 3), (1, 2)],
            ty: Ty::Real,
            placement: Placement::Default,
        };
        // a(i, j) → (i-1) + (j-1)*3
        assert_eq!(b.linearize(&[1, 1]), Some(0));
        assert_eq!(b.linearize(&[3, 1]), Some(2));
        assert_eq!(b.linearize(&[1, 2]), Some(3));
        assert_eq!(b.linearize(&[3, 2]), Some(5));
        assert_eq!(b.linearize(&[4, 1]), None);
        assert_eq!(b.linearize(&[0, 1]), None);
    }

    #[test]
    fn linearize_ends_agrees_with_two_linearizations() {
        let b = VarBind {
            sref: StorageRef::One(SlotId(0)),
            offset: 7,
            dims: vec![(1, 3), (0, 4), (2, 3)],
            ty: Ty::Real,
            placement: Placement::Default,
        };
        for k in 0..3 {
            for first in -1..6 {
                for last in -1..6 {
                    let mut subs = [2, 1, 3];
                    subs[k] = first;
                    let mut ends = subs;
                    ends[k] = last;
                    let want = b.linearize(&subs).zip(b.linearize(&ends));
                    let got = b.linearize_ends(&subs, k, last);
                    assert_eq!(got.is_some(), want.is_some(), "{subs:?} {k} {last}");
                    if let (Some((f, stride)), Some((wf, wl))) = (got, want) {
                        assert_eq!(f, wf);
                        assert_eq!(f as i64 + (last - first) * stride, wl as i64);
                    }
                }
            }
        }
    }

    #[test]
    fn linearize_with_lower_bounds_and_offset() {
        let b = VarBind {
            sref: StorageRef::One(SlotId(0)),
            offset: 10,
            dims: vec![(0, 4)],
            ty: Ty::Real,
            placement: Placement::Default,
        };
        assert_eq!(b.linearize(&[0]), Some(10));
        assert_eq!(b.linearize(&[4]), Some(14));
    }

    #[test]
    fn typed_slots_round_trip() {
        let mut st = Store::new(2);
        let s = st.alloc(Ty::Int, 4);
        st.slot_mut(s).set(2, Value::I(7));
        assert_eq!(st.slot(s).get(2), Value::I(7));
        let r = st.alloc(Ty::Real, 1);
        st.slot_mut(r).set(0, Value::I(3));
        assert_eq!(st.slot(r).get(0), Value::R(3.0));
    }

    #[test]
    fn rezero_takes_only_a_slot_of_the_same_class_and_length() {
        let mut st = Store::new(1);
        let s = st.alloc(Ty::Double, 3);
        st.slot_mut(s).set(1, Value::R(-2.5));
        assert!(!st.rezero(s, Ty::Int, 3));
        assert!(!st.rezero(s, Ty::Real, 4));
        assert_eq!(st.slot(s).get(1), Value::R(-2.5));
        assert!(st.rezero(s, Ty::Real, 3));
        assert_eq!(st.slot(s).get(1).as_f64().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn the_storage_cap_counts_every_slot_ever_allocated() {
        let mut st = Store::new(1);
        let s = st.alloc(Ty::Double, 500);
        assert!(st.rezero(s, Ty::Double, 500), "a reused slot allocates nothing");
        assert!(st.fits(STORAGE_CAP - 4000));
        assert!(!st.fits(STORAGE_CAP - 3999));
        assert!(!st.fits(u64::MAX));
    }

    #[test]
    fn the_shadow_is_charged_for_every_slot_before_and_after() {
        let mut st = Store::new(1);
        st.alloc(Ty::Real, 100);
        st.charge_shadow();
        st.charge_shadow();
        st.alloc(Ty::Double, 10);
        let used = 100 * (4 + 8) + 10 * (8 + 8);
        assert!(st.fits(STORAGE_CAP - used));
        assert!(!st.fits(STORAGE_CAP - used + 1));
    }

    #[test]
    fn checked_accessors_reject_out_of_range() {
        let mut st = Store::new(1);
        let s = st.alloc(Ty::Int, 2);
        assert!(st.slot_mut(s).try_set(1, Value::I(9)));
        assert_eq!(st.slot(s).try_get(1), Some(Value::I(9)));
        assert!(!st.slot_mut(s).try_set(2, Value::I(9)));
        assert_eq!(st.slot(s).try_get(2), None);
    }
}
