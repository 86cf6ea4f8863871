//! Helper types of the executor: subscript buffers, section descriptors
//! and lane indices, control flow, the engine-neutral view of a loop.

use super::{kerr, Result, SimError, SimErrorKind};
use crate::compile::{CompiledUnit, VmLoop};
use crate::race::{RaceDetector, RaceInfo};
use cedar_ir::{LoopClass, Stmt, SymbolId};

/// Stack-allocated subscript list: element accesses evaluate their
/// subscripts into this fixed buffer instead of a heap `Vec` (Fortran
/// 77 caps array rank at 7; [`Subs::push`] reports anything wilder).
pub(super) struct Subs {
    buf: [i64; 8],
    len: usize,
}

impl Subs {
    pub(super) fn new() -> Subs {
        Subs { buf: [0; 8], len: 0 }
    }

    pub(super) fn push(&mut self, v: i64) -> Result<()> {
        if self.len >= self.buf.len() {
            return kerr(
                SimErrorKind::TypeError,
                cedar_ir::Span::NONE,
                "array rank exceeds the Fortran 77 limit of 7",
            );
        }
        self.buf[self.len] = v;
        self.len += 1;
        Ok(())
    }

    pub(super) fn clear(&mut self) {
        self.len = 0;
    }

    pub(super) fn as_slice(&self) -> &[i64] {
        &self.buf[..self.len]
    }
}

/// Most subscripts a section descriptor holds inline — the size of
/// [`Subs`], so the 9th is what reports the rank violation.
pub(super) const MAX_SECTION_RANK: usize = 8;

/// Per-dimension descriptor of a section.
#[derive(Debug, Clone, Copy)]
pub(super) enum SectionDim {
    Fixed(i64),
    RangeLen {
        lo: i64,
        step: i64,
        len: usize,
    },
    /// Vector-valued subscript (gather/scatter through an index
    /// vector): which of [`Section::gathers`].
    Gather(usize),
}

/// A section with its subscripts evaluated: a descriptor per dimension
/// and the lane count. Lives on the caller's stack and is filled in
/// place; gather vectors come from the lane pool
/// ([`Simulator::release_section`] returns them).
pub(super) struct Section {
    pub(super) dims: [SectionDim; MAX_SECTION_RANK],
    /// Subscripts given. More than fit in `dims` is an error wherever
    /// the lanes are resolved; the one consumer that only wants the
    /// first element (an actual argument) finds the rest in `spill`.
    pub(super) rank: usize,
    pub(super) spill: Vec<SectionDim>,
    pub(super) lanes: usize,
    /// The index vectors of the gather subscripts.
    pub(super) gathers: Vec<Vec<i64>>,
}

impl Section {
    pub(super) fn new() -> Section {
        Section {
            dims: [SectionDim::Fixed(0); MAX_SECTION_RANK],
            rank: 0,
            spill: Vec::new(),
            lanes: 1,
            gathers: Vec::new(),
        }
    }

    pub(super) fn push(&mut self, d: SectionDim) {
        match self.dims.get_mut(self.rank) {
            Some(slot) => *slot = d,
            None => self.spill.push(d),
        }
        self.rank += 1;
    }
}

/// The linear indices of a section's lanes, in lane order.
pub(super) enum LaneIdx {
    /// `first + k * stride` for `k < len`, every one inside the
    /// binding's declared shape.
    Prog { first: usize, stride: isize, len: usize },
    /// One index per lane.
    List(Vec<usize>),
}

/// Index `k` of a [`LaneIdx::Prog`].
fn progression_at(first: usize, stride: isize, k: usize) -> usize {
    (first as isize + k as isize * stride) as usize
}

/// The indices of [`LaneIdx::Prog`].
pub(super) fn progression(
    first: usize,
    stride: isize,
    len: usize,
) -> impl ExactSizeIterator<Item = usize> {
    (0..len).map(move |k| progression_at(first, stride, k))
}

/// Evaluate `$body` with `$lins` bound to the index iterator of a
/// [`LaneIdx`] (one monomorphic copy per representation).
macro_rules! each_index {
    ($at:expr, $lins:ident => $body:expr) => {
        match $at {
            LaneIdx::Prog { first, stride, len } => {
                let $lins = progression(*first, *stride, *len);
                $body
            }
            LaneIdx::List(list) => {
                let $lins = list.iter().copied();
                $body
            }
        }
    };
}

pub(super) use each_index;

impl LaneIdx {
    /// `(first, len)` when the lanes are a non-empty ascending
    /// contiguous run.
    pub(super) fn run(&self) -> Option<(usize, usize)> {
        match *self {
            LaneIdx::Prog { first, stride, len } if len == 1 || (len > 1 && stride == 1) => {
                Some((first, len))
            }
            _ => None,
        }
    }

    /// Index of lane `k`.
    pub(super) fn get(&self, k: usize) -> usize {
        match self {
            LaneIdx::Prog { first, stride, .. } => progression_at(*first, *stride, k),
            LaneIdx::List(list) => list[k],
        }
    }

    /// One past the largest index (0 without lanes).
    pub(super) fn upper(&self) -> usize {
        match self {
            LaneIdx::Prog { len: 0, .. } => 0,
            LaneIdx::Prog { first, len, .. } => (*first).max(self.get(len - 1)) + 1,
            LaneIdx::List(list) => list.iter().max().map_or(0, |m| m + 1),
        }
    }
}

/// How a run's vector sections were resolved to element indices (see
/// [`Simulator::section_counts`]). Sections without lanes are not
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionCounts {
    /// One range dimension, no gather: carried as `(first, stride,
    /// length)`, no index list built.
    pub progressions: u64,
    /// One range dimension, no gather, and an index list all the same:
    /// the fast paths were off, or an end lane was out of bounds.
    pub single_range_lists: u64,
    /// Several range dimensions, a gather, or no range at all: an index
    /// list from the odometer walk.
    pub other_lists: u64,
}

#[derive(Debug, Clone, Copy)]
pub(super) enum Flow {
    Normal,
    Return,
    Stop,
}

/// Engine-neutral view of a loop for the shared schedulers
/// ([`Simulator::exec_seq_loop`] / [`Simulator::exec_parallel_loop`]).
/// The tree-walker and the VM both drive the *same* scheduling,
/// DOACROSS, fault-jitter, and race-region code; only the body blocks
/// differ — IR statement slices vs compiled code ranges.
pub(super) struct LoopRef<'a> {
    pub(super) class: LoopClass,
    pub(super) var: SymbolId,
    pub(super) locals: &'a [SymbolId],
    pub(super) span: cedar_ir::Span,
    pub(super) blocks: LoopBlocks<'a>,
}

pub(super) enum LoopBlocks<'a> {
    Tree { pre: &'a [Stmt], body: &'a [Stmt], post: &'a [Stmt] },
    Vm { cu: &'a CompiledUnit, lp: &'a VmLoop },
}

/// Which loop block to run (see [`Simulator::run_loop_block`]).
#[derive(Clone, Copy)]
pub(super) enum Blk {
    Pre,
    Body,
    Post,
}

impl LoopRef<'_> {
    /// A compiled block range is empty iff the IR block is (every
    /// statement emits at least one instruction), so both engines make
    /// the same has-preamble/has-postamble decisions.
    pub(super) fn has_pre(&self) -> bool {
        match &self.blocks {
            LoopBlocks::Tree { pre, .. } => !pre.is_empty(),
            LoopBlocks::Vm { lp, .. } => lp.pre.0 != lp.pre.1,
        }
    }

    pub(super) fn has_post(&self) -> bool {
        match &self.blocks {
            LoopBlocks::Tree { post, .. } => !post.is_empty(),
            LoopBlocks::Vm { lp, .. } => lp.post.0 != lp.post.1,
        }
    }
}

/// Count the races a bulk recorder found; the first one aborts a
/// fail-fast run.
pub(super) fn flag_all(rd: &mut RaceDetector, races: Vec<RaceInfo>) -> Result<()> {
    races.into_iter().try_for_each(|race| rd.flag(race).map_or(Ok(()), Err))
}

pub(super) fn with_span(mut e: SimError, span: cedar_ir::Span) -> SimError {
    if e.span == cedar_ir::Span::NONE {
        e.span = span;
    }
    e
}
