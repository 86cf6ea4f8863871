//! Happens-before data-race detection (DESIGN.md §8).
//!
//! The simulator executes parallel loops *sequentially* (one iteration
//! at a time, in index order), so the detector cannot observe races by
//! watching interleavings — it must reconstruct the **happens-before
//! partial order** the Cedar hardware would actually guarantee and flag
//! every pair of conflicting accesses that the order leaves unrelated.
//! A race flagged here is schedule-dependent on the real machine even
//! though the simulator's canonical schedule produced the right answer
//! (idempotent double-writes, reductions without locks, cascades with
//! missing `advance`s, ...) — exactly the class of bugs PR 1's
//! differential validator can miss.
//!
//! The logical threads are **loop iterations**, not CEs: which CE runs
//! an iteration is a scheduling accident, and two iterations race
//! unless synchronization orders them under *every* legal schedule.
//! Happens-before edges come from:
//!
//! * **fork/join** — statements before a parallel loop precede every
//!   iteration; every iteration precedes the join barrier;
//! * **cascade delivery** — `await(p, d)` in iteration `k`
//!   synchronizes-with the `advance(p)` of every iteration `≤ k − d`
//!   (the cascade counter is monotone: when it reaches `k − d`, all
//!   earlier iterations have advanced);
//! * **critical sections** — `lock(id)` synchronizes-with the previous
//!   `unlock(id)`, chaining the lock's holders.
//!
//! Mechanically, every access snapshots the *path* of `(region
//! instance, iteration, segment clock)` triples down the region stack;
//! shadow memory stores, per element, the last write and the reads
//! since. Two accesses are ordered iff their paths diverge at a joined
//! region (host execution order implies the join barrier), stay on one
//! logical thread, or the current iteration has *observed* the recorded
//! segment through synchronization; otherwise they are concurrent and a
//! conflicting pair is a race.
//!
//! What an iteration has observed is indexed by **synchronization
//! object, not by sibling iteration**. A region runs any number of
//! iterations but has a handful of *channels* — its cascade points and
//! its locks — and what a thread has seen of a channel is always a
//! **prefix** of the channel's events: a cascade counter is monotone
//! and iterations run in index order, and a lock's holders form a
//! chain. Each channel is an append-only list of events (`advance`s or
//! `unlock`s), each carrying the **running join** of what its publisher
//! and every earlier publisher had observed; a thread's knowledge is
//! one prefix length per channel. Publishing and learning are
//! O(channels) whatever the trip count; the clock of sibling `j` is
//! looked up on demand as the last event of `j` inside a known prefix
//! (DESIGN.md §8 has the argument that this is the same partial order
//! as an explicit per-iteration vector clock, which survives below as
//! the test module's reference model).
//!
//! The detector charges **zero simulated cycles** and is only
//! instantiated when [`crate::MachineConfig::detect_races`] is set, so
//! the hot path pays nothing when disabled and cycle counts are
//! bit-identical either way.

use crate::store::SlotId;
use cedar_ir::Span;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Conflict classification of a detected race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    /// Two unordered writes to the same element.
    WriteWrite,
    /// A write, then an unordered read of the same element.
    WriteRead,
    /// A read, then an unordered write of the same element.
    ReadWrite,
}

impl RaceKind {
    /// Stable lower-case tag (used in Display and JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::WriteRead => "write-read",
            RaceKind::ReadWrite => "read-write",
        }
    }
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A detected data race: one storage element, two unordered accesses of
/// which at least one is a write.
#[derive(Debug, Clone)]
pub struct RaceInfo {
    /// Storage slot of the racing element.
    pub slot: u32,
    /// Linear element index within the slot.
    pub index: usize,
    /// Source name bound to the slot, when known.
    pub var: Option<String>,
    /// Conflict classification.
    pub kind: RaceKind,
    /// Iteration of the writing access (for read-write, the later write).
    pub writer_iter: u32,
    /// Participant (CE within the loop) that executed the write.
    pub writer_ce: usize,
    /// Statement of the writing access.
    pub writer_span: Span,
    /// Iteration of the other access.
    pub other_iter: u32,
    /// Participant that executed the other access.
    pub other_ce: usize,
    /// Statement of the other access.
    pub other_span: Span,
}

impl fmt::Display for RaceInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match &self.var {
            Some(n) => format!("`{n}`"),
            None => format!("slot {}", self.slot),
        };
        let other_word = match self.kind {
            RaceKind::WriteWrite => "write",
            RaceKind::WriteRead | RaceKind::ReadWrite => "read",
        };
        write!(
            f,
            "{} race on {} (element {}): write in iteration {} (CE {}, {}) \
             conflicts with {} in iteration {} (CE {}, {})",
            self.kind,
            name,
            self.index,
            self.writer_iter,
            self.writer_ce,
            self.writer_span,
            other_word,
            self.other_iter,
            self.other_ce,
            self.other_span,
        )
    }
}

/// One level of an access path: which instance of a parallel region the
/// access ran under, in which iteration, and in which sync segment of
/// that iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathEntry {
    region: u64,
    iter: u32,
    clock: u32,
}

/// A recorded access: its region path plus reporting metadata. The
/// detector **interns** these: every access recorded under one (sync
/// segment, statement) pair shares a single table entry, and shadow
/// cells store the entry's index instead of the record itself. The
/// detector records one access per *element* of vector statements, so
/// the per-cell footprint (4 bytes vs a path snapshot) is what makes a
/// race-collecting run affordable.
#[derive(Debug)]
struct Access {
    path: Arc<[PathEntry]>,
    part: u16,
    span: Span,
}

/// Index into [`RaceDetector::accesses`]; `NO_ACCESS` means "none".
type AccessId = u32;
const NO_ACCESS: AccessId = u32::MAX;

/// Path equality with the `Arc` identity fast path (pointer-equal ⇒
/// value-equal; distinct snapshots can still compare equal, e.g. a
/// task-group thread resumed after a switch rebuilds the same path).
fn paths_equal(a: &Arc<[PathEntry]>, b: &Arc<[PathEntry]>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// Overflow reader list: boxed so the `None` common case keeps `Cell`
/// at 16 bytes (an inline `Vec` would be 24 bytes of always-resident
/// header per cell, and the shadow is sized to the largest array).
#[allow(clippy::box_collection)]
type MoreReads = Option<Box<Vec<AccessId>>>;

/// Shadow state of one storage element: the last write and the readers
/// since. Most cells see at most one reader between writes, so the
/// first reader is stored inline — a `Vec` here would cost a heap
/// allocation per cell, and vector statements touch millions of cells.
#[derive(Debug, Clone)]
struct Cell {
    write: AccessId,
    read0: AccessId,
    more_reads: MoreReads,
}

impl Default for Cell {
    fn default() -> Cell {
        Cell { write: NO_ACCESS, read0: NO_ACCESS, more_reads: None }
    }
}

impl Cell {
    fn last_read(&self) -> AccessId {
        match &self.more_reads {
            Some(v) => v.last().copied().unwrap_or(self.read0),
            None => self.read0,
        }
    }

    fn push_read(&mut self, id: AccessId) {
        if self.read0 == NO_ACCESS {
            self.read0 = id;
        } else {
            self.more_reads.get_or_insert_with(Default::default).push(id);
        }
    }

    /// Clear the reader set, returning it for conflict checks.
    fn take_reads(&mut self) -> (AccessId, MoreReads) {
        (std::mem::replace(&mut self.read0, NO_ACCESS), self.more_reads.take())
    }
}

/// Iterate a reader set returned by [`Cell::take_reads`] in record
/// order.
fn reads_iter(read0: AccessId, more: &MoreReads) -> impl Iterator<Item = AccessId> + '_ {
    (read0 != NO_ACCESS)
        .then_some(read0)
        .into_iter()
        .chain(more.iter().flat_map(|v| v.iter().copied()))
}

/// A synchronization object of one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncObject {
    /// A cascade point (`await` / `advance`).
    Point(u32),
    /// A lock id (`lock` / `unlock`).
    Lock(u32),
}

/// One publication on a channel: an `advance` of the point or an
/// `unlock` of the lock.
struct Event {
    /// The publishing iteration, and the segment its accesses so far
    /// were recorded in.
    iter: u32,
    clock: u32,
    /// Running join over this and every earlier publisher of the
    /// channel: per channel of the frame, how many of its events they
    /// had observed.
    know: Vec<u32>,
}

/// The events of one synchronization object, in host order.
struct Channel {
    sync: SyncObject,
    events: Vec<Event>,
    /// Task groups only, whose threads interleave: thread → indices of
    /// its events. Everywhere else iterations run in index order, so
    /// `events` is sorted by iteration and is its own index.
    by_iter: Option<BTreeMap<u32, Vec<u32>>>,
}

impl Channel {
    /// Segment clock of the last event of `iter` among the first `n`
    /// (clocks rise with the index, so the last visible is the highest).
    fn last_visible(&self, iter: u32, n: usize) -> Option<u32> {
        let at = match &self.by_iter {
            Some(index) => {
                let own = index.get(&iter)?;
                own[..own.partition_point(|&i| (i as usize) < n)].last().copied()? as usize
            }
            None => self.events[..n].partition_point(|e| e.iter <= iter).checked_sub(1)?,
        };
        let e = &self.events[at];
        (e.iter == iter).then_some(e.clock)
    }
}

/// Elementwise maximum of two prefix-length vectors (absent = 0).
fn know_join(dst: &mut Vec<u32>, src: &[u32]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

/// One active parallel region (or subroutine task group).
struct RegionFrame {
    id: u64,
    /// DOACROSS (ordered) regions accept cascade edges.
    ordered: bool,
    /// Subroutine-level task groups interleave logical threads, so
    /// per-thread state is saved/restored instead of reset.
    task_group: bool,
    cur_iter: u32,
    cur_clock: u32,
    cur_part: u16,
    /// The region's synchronization objects, in order of first use.
    channels: Vec<Channel>,
    /// The current thread's observations: `know[c]` is how many events
    /// of `channels[c]` it has seen — always a prefix (absent = 0).
    know: Vec<u32>,
    /// Saved logical-thread state for task groups: (clock, know).
    saved: BTreeMap<u32, (u32, Vec<u32>)>,
}

impl RegionFrame {
    /// Publish the current thread's knowledge on `sync` and open a new
    /// segment (accesses after the event are not ordered by it).
    fn publish(&mut self, sync: SyncObject) {
        let c = self.channels.iter().position(|c| c.sync == sync).unwrap_or_else(|| {
            let by_iter = self.task_group.then(BTreeMap::new);
            self.channels.push(Channel { sync, events: Vec::new(), by_iter });
            self.channels.len() - 1
        });
        let ch = &mut self.channels[c];
        let mut know = self.know.clone();
        if let Some(prev) = ch.events.last() {
            know_join(&mut know, &prev.know);
        }
        if let Some(index) = &mut ch.by_iter {
            index.entry(self.cur_iter).or_default().push(ch.events.len() as u32);
        }
        ch.events.push(Event { iter: self.cur_iter, clock: self.cur_clock, know });
        self.cur_clock += 1;
    }

    /// Observe the events of `sync` that `visible` admits — a prefix —
    /// and, through the running join, all that their publishers knew.
    fn learn(&mut self, sync: SyncObject, visible: impl Fn(&[Event]) -> usize) {
        let Some(c) = self.channels.iter().position(|c| c.sync == sync) else { return };
        let events = &self.channels[c].events;
        let n = visible(events);
        let Some(last) = n.checked_sub(1) else { return };
        know_join(&mut self.know, &events[last].know);
        if self.know.len() <= c {
            self.know.resize(c + 1, 0);
        }
        self.know[c] = self.know[c].max(n as u32);
    }

    /// Highest segment clock of sibling `iter` the current thread has
    /// observed through any channel.
    fn observed(&self, iter: u32) -> Option<u32> {
        let seen = self.channels.iter().zip(&self.know);
        seen.filter_map(|(ch, &n)| ch.last_visible(iter, n as usize)).max()
    }
}

/// Cap on collected race reports (the total count keeps counting).
const REPORT_CAP: usize = 256;

/// The happens-before detector. Owned by [`crate::Simulator`] when
/// [`crate::MachineConfig::detect_races`] is set.
pub struct RaceDetector {
    stack: Vec<RegionFrame>,
    /// Cached path mirror of `stack` (cloned into each access record).
    path: Vec<PathEntry>,
    /// Shared snapshot of `path` handed to access records; rebuilt
    /// lazily after any path mutation (region push/pop, new iteration,
    /// new sync segment).
    path_arc: Option<Arc<[PathEntry]>>,
    /// Interned access records; shadow cells index into this table.
    accesses: Vec<Access>,
    /// Interned record for the current (segment, statement); rebuilt
    /// lazily after a path or span change.
    cur_id: Option<AccessId>,
    /// Memoized happens-before verdicts, reset whenever the current
    /// context or a sync edge changes.
    memo: ConflictMemo,
    /// Shadow memory, indexed by slot id then linear element.
    shadow: Vec<Option<Vec<Cell>>>,
    /// Best-effort slot → source-name map for reports.
    slot_names: BTreeMap<u32, String>,
    /// Per-CE private slots (privatized loop locals): iterations that
    /// share a participant reuse them sequentially, never concurrently.
    /// Indexed by slot id — checked on every recorded access.
    exempt: Vec<bool>,
    next_region: u64,
    /// When > 0, accesses are not recorded (loop-variable bookkeeping).
    suspend: u32,
    /// Fail-fast (first race is a `SimError`) vs collect-all mode.
    pub fail_fast: bool,
    races: Vec<RaceInfo>,
    total: u64,
    cur_span: Span,
}

impl RaceDetector {
    /// New detector; `fail_fast` turns the first race into an error.
    pub fn new(fail_fast: bool) -> RaceDetector {
        RaceDetector {
            stack: Vec::new(),
            path: Vec::new(),
            path_arc: None,
            accesses: Vec::new(),
            cur_id: None,
            memo: ConflictMemo::default(),
            shadow: Vec::new(),
            slot_names: BTreeMap::new(),
            exempt: Vec::new(),
            next_region: 0,
            suspend: 0,
            fail_fast,
            races: Vec::new(),
            total: 0,
            cur_span: Span::NONE,
        }
    }

    /// Races collected so far (capped; see [`RaceDetector::total`]).
    pub fn report(&self) -> &[RaceInfo] {
        &self.races
    }

    /// Total number of races observed (uncapped).
    pub fn total(&self) -> u64 {
        self.total
    }

    pub(crate) fn set_span(&mut self, span: Span) {
        if span != self.cur_span {
            self.cur_span = span;
            self.cur_id = None;
        }
    }

    pub(crate) fn note_slot_name(&mut self, slot: SlotId, name: &str) {
        self.slot_names.entry(slot.0).or_insert_with(|| name.to_string());
    }

    /// Mark a slot as per-CE private (not subject to race checks).
    /// A slot is reused only as the same loop site's private local
    /// (`bind_locals`), so an exemption never reaches a shared
    /// variable's slot and cannot go stale.
    pub(crate) fn exempt_slot(&mut self, slot: SlotId) {
        let si = slot.0 as usize;
        if self.exempt.len() <= si {
            self.exempt.resize(si + 1, false);
        }
        self.exempt[si] = true;
    }

    fn is_exempt(&self, slot: SlotId) -> bool {
        self.exempt.get(slot.0 as usize).copied().unwrap_or(false)
    }

    pub(crate) fn suspend(&mut self) {
        self.suspend += 1;
    }

    pub(crate) fn resume(&mut self) {
        self.suspend = self.suspend.saturating_sub(1);
    }

    // ---- region lifecycle ----

    fn refresh_path_top(&mut self) {
        if let (Some(f), Some(p)) = (self.stack.last(), self.path.last_mut()) {
            *p = PathEntry { region: f.id, iter: f.cur_iter, clock: f.cur_clock };
        }
        self.path_arc = None;
        self.cur_id = None;
        self.memo = ConflictMemo::default();
    }

    pub(crate) fn push_region(&mut self, ordered: bool, task_group: bool) {
        let id = self.next_region;
        self.next_region += 1;
        self.stack.push(RegionFrame {
            id,
            ordered,
            task_group,
            cur_iter: 0,
            cur_clock: 0,
            cur_part: 0,
            channels: Vec::new(),
            know: Vec::new(),
            saved: BTreeMap::new(),
        });
        self.path.push(PathEntry { region: id, iter: 0, clock: 0 });
        self.path_arc = None;
        self.cur_id = None;
        self.memo = ConflictMemo::default();
    }

    pub(crate) fn pop_region(&mut self) {
        self.stack.pop();
        self.path.pop();
        self.path_arc = None;
        self.cur_id = None;
        self.memo = ConflictMemo::default();
    }

    /// True when the innermost region is a subroutine task group.
    pub(crate) fn in_task_group(&self) -> bool {
        self.stack.last().is_some_and(|f| f.task_group)
    }

    /// Start a fresh logical thread (loop iteration) in the innermost
    /// region. Iterations never revisit, so state resets.
    pub(crate) fn begin_iteration(&mut self, iter: u32, part: u16) {
        if let Some(f) = self.stack.last_mut() {
            f.cur_iter = iter;
            f.cur_clock = 0;
            f.cur_part = part;
            f.know.clear();
        }
        self.refresh_path_top();
    }

    /// Switch the innermost task group to logical thread `iter`,
    /// saving/restoring per-thread clocks (threads interleave in host
    /// order: spawner, task 1, spawner, task 2, ...).
    pub(crate) fn switch_task_thread(&mut self, iter: u32, part: u16) {
        if let Some(f) = self.stack.last_mut() {
            if f.cur_iter != iter {
                let know = std::mem::take(&mut f.know);
                f.saved.insert(f.cur_iter, (f.cur_clock, know));
                let (clock, know) = f.saved.remove(&iter).unwrap_or_default();
                f.cur_iter = iter;
                f.cur_clock = clock;
                f.know = know;
            }
            f.cur_part = part;
        }
        self.refresh_path_top();
    }

    // ---- synchronization edges ----

    /// `await(point, d)` satisfied in iteration `k`: learn the advances
    /// of every iteration `≤ upto = k − d` (monotone-counter semantics)
    /// — a prefix, since iterations advance in index order. Applies to
    /// the innermost *ordered* region.
    pub(crate) fn on_await(&mut self, point: u32, upto: i64) {
        if upto < 0 {
            return;
        }
        // The await may add happens-before edges: cached verdicts stale.
        self.memo = ConflictMemo::default();
        let Some(f) = self.stack.iter_mut().rev().find(|f| f.ordered) else {
            return;
        };
        let upto = upto.min(u32::MAX as i64) as u32;
        f.learn(SyncObject::Point(point), |events| events.partition_point(|e| e.iter <= upto));
    }

    /// `advance(point)`: publish the advancing iteration's knowledge
    /// and open a new segment (accesses after the advance are not
    /// ordered by it).
    pub(crate) fn on_advance(&mut self, point: u32) {
        let Some(f) = self.stack.iter_mut().rev().find(|f| f.ordered) else {
            return;
        };
        f.publish(SyncObject::Point(point));
        self.refresh_path_top();
    }

    /// `lock(id)`: synchronize-with every earlier release — the
    /// previous holder's, which had learnt its predecessors'.
    pub(crate) fn on_lock(&mut self, id: u32) {
        // The lock edge may add happens-before edges: cached verdicts
        // stale.
        self.memo = ConflictMemo::default();
        let Some(f) = self.stack.last_mut() else { return };
        f.learn(SyncObject::Lock(id), |events| events.len());
    }

    /// `unlock(id)`: publish this iteration's knowledge to the next
    /// holder and open a new segment.
    pub(crate) fn on_unlock(&mut self, id: u32) {
        let Some(f) = self.stack.last_mut() else { return };
        f.publish(SyncObject::Lock(id));
        self.refresh_path_top();
    }

    // ---- the happens-before test ----

    /// If the recorded access path `a` is *not* ordered before the
    /// current context, return the two diverging iterations
    /// `(recorded, current)`; `None` means happens-before holds.
    #[cfg(test)]
    fn conflict(&self, a: &[PathEntry]) -> Option<(u32, u32)> {
        path_conflict(&self.stack, a)
    }

    // ---- shadow memory ----

    /// Intern (or reuse) the access record for the current context.
    fn cur_access_id(&mut self) -> AccessId {
        if let Some(id) = self.cur_id {
            return id;
        }
        if self.path_arc.is_none() {
            self.path_arc = Some(self.path.as_slice().into());
        }
        self.accesses.push(Access {
            path: Arc::clone(self.path_arc.as_ref().expect("just set")),
            part: self.stack.last().map_or(0, |f| f.cur_part),
            span: self.cur_span,
        });
        let id = (self.accesses.len() - 1) as AccessId;
        self.cur_id = Some(id);
        id
    }
}

/// Small direct-mapped memo of [`path_conflict`] keyed by access id:
/// equal ids share one interned record, hence one path, hence one
/// verdict — and a verdict stays valid until the detector's context
/// changes (new segment, region push/pop, or a sync edge teaching the
/// thread a longer prefix), which resets the memo. Cells of one vector
/// statement (and the handful of scalars in a loop body) were typically
/// last touched by a handful of records, so almost every test is a hit.
struct ConflictMemo {
    entries: [(AccessId, Option<(u32, u32)>); 4],
}

impl Default for ConflictMemo {
    fn default() -> ConflictMemo {
        ConflictMemo { entries: [(NO_ACCESS, None); 4] }
    }
}

impl ConflictMemo {
    fn check(
        &mut self,
        stack: &[RegionFrame],
        accesses: &[Access],
        id: AccessId,
    ) -> Option<(u32, u32)> {
        let e = &mut self.entries[(id & 3) as usize];
        if e.0 == id {
            return e.1;
        }
        let verdict = path_conflict(stack, &accesses[id as usize].path);
        *e = (id, verdict);
        verdict
    }
}

/// The happens-before test of [`RaceDetector::conflict`], as a free
/// function so the bulk range recorders can run it while holding a
/// mutable borrow of the shadow cells.
fn path_conflict(stack: &[RegionFrame], a: &[PathEntry]) -> Option<(u32, u32)> {
    for (d, pa) in a.iter().enumerate() {
            let Some(f) = stack.get(d) else {
                // `a` ran inside a region that has since joined: the
                // join barrier orders it before the current context.
                return None;
            };
            if pa.region != f.id {
                // A different instance at this depth also joined before
                // the current one forked (host order is program order).
                return None;
            }
            if pa.iter == f.cur_iter {
                // Same logical thread at this level; compare deeper.
                continue;
            }
            // Sibling iterations of a live region: ordered only when the
            // current iteration observed the recorded segment via sync.
            if f.observed(pa.iter).is_some_and(|c| pa.clock <= c) {
                return None;
            }
        return Some((pa.iter, f.cur_iter));
    }
    // `a` is a prefix of the current path: same thread, earlier in
    // program order (e.g. before a nested region forked).
    None
}

impl RaceDetector {
    fn make_race(
        &self,
        kind: RaceKind,
        prior: AccessId,
        prior_iter: u32,
        cur_iter: u32,
        slot: SlotId,
        lin: usize,
    ) -> RaceInfo {
        let prior = &self.accesses[prior as usize];
        let cur_part = self.stack.last().map_or(0, |f| f.cur_part) as usize;
        let (writer_iter, writer_ce, writer_span, other_iter, other_ce, other_span) = match kind {
            // Prior access is the write.
            RaceKind::WriteWrite | RaceKind::WriteRead => (
                prior_iter,
                prior.part as usize,
                prior.span,
                cur_iter,
                cur_part,
                self.cur_span,
            ),
            // Current access is the write.
            RaceKind::ReadWrite => (
                cur_iter,
                cur_part,
                self.cur_span,
                prior_iter,
                prior.part as usize,
                prior.span,
            ),
        };
        RaceInfo {
            slot: slot.0,
            index: lin,
            var: self.slot_names.get(&slot.0).cloned(),
            kind,
            writer_iter,
            writer_ce,
            writer_span,
            other_iter,
            other_ce,
            other_span,
        }
    }

    /// Record a read of `slot[lin]`; returns the race it completes, if
    /// any. Serial-context accesses are ordered with everything and are
    /// neither checked nor recorded.
    pub(crate) fn record_read(&mut self, slot: SlotId, lin: usize) -> Option<RaceInfo> {
        if self.suspend > 0 || self.stack.is_empty() || self.is_exempt(slot) {
            return None;
        }
        let cur = self.cur_access_id();
        let (cells, stack, accesses, memo) = self.cells_stack_accesses(slot, lin + 1);
        let cell = &mut cells[lin];
        let mut hit = None;
        if cell.write != NO_ACCESS {
            if let Some((wi, ci)) = memo.check(stack, accesses, cell.write) {
                hit = Some((cell.write, wi, ci));
            }
        }
        // The host runs one iteration at a time, so consecutive reads of
        // a cell from the same path dedupe with a last-entry check.
        let last = cell.last_read();
        let dup = last == cur
            || (last != NO_ACCESS
                && paths_equal(&accesses[last as usize].path, &accesses[cur as usize].path));
        if !dup {
            cell.push_read(cur);
        }
        hit.map(|(w, wi, ci)| self.make_race(RaceKind::WriteRead, w, wi, ci, slot, lin))
    }

    /// Record a write of `slot[lin]`; returns the first race it
    /// completes against the prior write or any unordered reader.
    pub(crate) fn record_write(&mut self, slot: SlotId, lin: usize) -> Option<RaceInfo> {
        if self.suspend > 0 || self.stack.is_empty() || self.is_exempt(slot) {
            return None;
        }
        let cur = self.cur_access_id();
        let (cells, stack, accesses, memo) = self.cells_stack_accesses(slot, lin + 1);
        let cell = &mut cells[lin];
        let prior_write = std::mem::replace(&mut cell.write, cur);
        let (read0, more) = cell.take_reads();
        let mut hit = None;
        if prior_write != NO_ACCESS {
            if let Some((wi, ci)) = memo.check(stack, accesses, prior_write) {
                hit = Some((RaceKind::WriteWrite, prior_write, wi, ci));
            }
        }
        if hit.is_none() {
            for r in reads_iter(read0, &more) {
                if let Some((ri, ci)) = memo.check(stack, accesses, r) {
                    hit = Some((RaceKind::ReadWrite, r, ri, ci));
                    break;
                }
            }
        }
        hit.map(|(kind, id, pi, ci)| self.make_race(kind, id, pi, ci, slot, lin))
    }

    /// Make sure the shadow cells `slot[0..len]` exist, returning the
    /// cell slice alongside the region stack and the access table
    /// (split borrows so the recorders can test [`path_conflict`]
    /// while mutating cells).
    fn cells_stack_accesses(
        &mut self,
        slot: SlotId,
        len: usize,
    ) -> (&mut [Cell], &[RegionFrame], &[Access], &mut ConflictMemo) {
        let si = slot.0 as usize;
        if self.shadow.len() <= si {
            self.shadow.resize_with(si + 1, || None);
        }
        let cells = self.shadow[si].get_or_insert_with(Vec::new);
        if cells.len() < len {
            cells.resize_with(len, Cell::default);
        }
        (&mut cells[..], &self.stack, &self.accesses, &mut self.memo)
    }

    /// Record reads of the elements `lins` of `slot` — a contiguous run,
    /// an arithmetic progression or an index list, as the vector
    /// statement resolved its section — equivalent to
    /// [`RaceDetector::record_read`] once per element in iteration
    /// order, with the guard checks and the context snapshot hoisted out
    /// of the loop. `len` bounds the indices (`lin < len` for each).
    /// Returns the completed races in element order (empty in the common
    /// race-free case: no allocation). This is what keeps vector
    /// statements on the bulk load path when the detector is live.
    pub(crate) fn record_reads(
        &mut self,
        slot: SlotId,
        len: usize,
        lins: impl Iterator<Item = usize>,
    ) -> Vec<RaceInfo> {
        if self.suspend > 0 || self.stack.is_empty() || self.is_exempt(slot) || len == 0 {
            return Vec::new();
        }
        let cur = self.cur_access_id();
        let (cells, stack, accesses, memo) = self.cells_stack_accesses(slot, len);
        let cur_path = &accesses[cur as usize].path;
        let mut pending: Vec<(usize, AccessId, u32, u32)> = Vec::new();
        // Consecutive cells were typically last written by one vector
        // statement sharing a single interned record, so the
        // happens-before test is memoized by access id.
        for lin in lins {
            let cell = &mut cells[lin];
            if cell.write != NO_ACCESS {
                if let Some((wi, ci)) = memo.check(stack, accesses, cell.write) {
                    pending.push((lin, cell.write, wi, ci));
                }
            }
            let last = cell.last_read();
            let dup = last == cur
                || (last != NO_ACCESS && paths_equal(&accesses[last as usize].path, cur_path));
            if !dup {
                cell.push_read(cur);
            }
        }
        pending
            .into_iter()
            .map(|(lin, w, wi, ci)| self.make_race(RaceKind::WriteRead, w, wi, ci, slot, lin))
            .collect()
    }

    /// Write-side counterpart of [`RaceDetector::record_reads`]:
    /// equivalent to [`RaceDetector::record_write`] once per element in
    /// iteration order.
    pub(crate) fn record_writes(
        &mut self,
        slot: SlotId,
        len: usize,
        lins: impl Iterator<Item = usize>,
    ) -> Vec<RaceInfo> {
        if self.suspend > 0 || self.stack.is_empty() || self.is_exempt(slot) || len == 0 {
            return Vec::new();
        }
        let cur = self.cur_access_id();
        let (cells, stack, accesses, memo) = self.cells_stack_accesses(slot, len);
        let mut pending: Vec<(usize, RaceKind, AccessId, u32, u32)> = Vec::new();
        for lin in lins {
            let cell = &mut cells[lin];
            let prior_write = std::mem::replace(&mut cell.write, cur);
            let (read0, more) = cell.take_reads();
            let mut hit = None;
            if prior_write != NO_ACCESS {
                if let Some((wi, ci)) = memo.check(stack, accesses, prior_write) {
                    hit = Some((lin, RaceKind::WriteWrite, prior_write, wi, ci));
                }
            }
            if hit.is_none() {
                for r in reads_iter(read0, &more) {
                    if let Some((ri, ci)) = memo.check(stack, accesses, r) {
                        hit = Some((lin, RaceKind::ReadWrite, r, ri, ci));
                        break;
                    }
                }
            }
            if let Some(h) = hit {
                pending.push(h);
            }
        }
        pending
            .into_iter()
            .map(|(lin, kind, a, pi, ci)| self.make_race(kind, a, pi, ci, slot, lin))
            .collect()
    }

    /// Count a detected race; in fail-fast mode produce the error that
    /// aborts the run, otherwise collect (capped) and continue.
    pub(crate) fn flag(&mut self, race: RaceInfo) -> Option<crate::SimError> {
        self.total += 1;
        if self.fail_fast {
            return Some(crate::SimError::data_race(race));
        }
        if self.races.len() < REPORT_CAP {
            self.races.push(race);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(path: &[PathEntry]) -> Access {
        Access { path: path.into(), part: 0, span: Span::NONE }
    }

    #[test]
    fn joined_regions_are_ordered() {
        let mut d = RaceDetector::new(true);
        d.push_region(false, false);
        d.begin_iteration(3, 1);
        let rec = access(&[PathEntry { region: 0, iter: 1, clock: 0 }]);
        // Same live region, different iteration, no sync: concurrent.
        assert_eq!(d.conflict(&rec.path), Some((1, 3)));
        d.pop_region();
        d.push_region(false, false);
        d.begin_iteration(0, 0);
        // The first region joined before the second forked.
        assert_eq!(d.conflict(&rec.path), None);
    }

    #[test]
    fn cascade_edge_orders_prior_segment_only() {
        let mut d = RaceDetector::new(true);
        d.push_region(true, false);
        d.begin_iteration(1, 0);
        // Iteration 1 advances point 7 after its clock-0 segment,
        // then keeps running in segment 1.
        d.on_advance(7);
        let after_advance = access(&[PathEntry { region: 0, iter: 1, clock: 1 }]);
        let before_advance = access(&[PathEntry { region: 0, iter: 1, clock: 0 }]);
        d.begin_iteration(2, 1);
        // Without the await, both segments are concurrent with iter 2.
        assert!(d.conflict(&before_advance.path).is_some());
        d.on_await(7, 1);
        // The await orders the pre-advance segment, not the post one.
        assert_eq!(d.conflict(&before_advance.path), None);
        assert!(d.conflict(&after_advance.path).is_some());
    }

    #[test]
    fn lock_chain_orders_critical_sections() {
        let mut d = RaceDetector::new(true);
        d.push_region(false, false);
        d.begin_iteration(0, 0);
        d.on_lock(9);
        let in_cs = access(&[PathEntry { region: 0, iter: 0, clock: 0 }]);
        d.on_unlock(9);
        d.begin_iteration(5, 2);
        assert!(d.conflict(&in_cs.path).is_some(), "no lock yet: concurrent");
        d.on_lock(9);
        assert_eq!(d.conflict(&in_cs.path), None, "lock chain orders the CS");
        d.pop_region();
    }

    /// The explicit clock this file kept before channels, as the
    /// reference model: per frame, the current thread's iteration →
    /// highest observed segment clock. An await joins the snapshot of
    /// every advance `≤ upto`, a lock the snapshot of the last unlock.
    type Vc = BTreeMap<u32, u32>;

    #[derive(Default)]
    struct ModelFrame {
        ordered: bool,
        cur: (u32, u32),
        vc: Vc,
        advances: BTreeMap<u32, BTreeMap<u32, (u32, Vc)>>,
        locks: BTreeMap<u32, (u32, u32, Vc)>,
        saved: BTreeMap<u32, (u32, Vc)>,
    }

    impl ModelFrame {
        fn join(&mut self, iter: u32, clock: u32, vc: &Vc) {
            for (&i, &c) in vc.iter().chain([(&iter, &clock)]) {
                let e = self.vc.entry(i).or_insert(0);
                *e = (*e).max(c);
            }
        }
        fn begin(&mut self, iter: u32) {
            (self.cur, self.vc) = ((iter, 0), Vc::new());
        }
        fn switch(&mut self, iter: u32) {
            if self.cur.0 != iter {
                self.saved.insert(self.cur.0, (self.cur.1, std::mem::take(&mut self.vc)));
                let (clock, vc) = self.saved.remove(&iter).unwrap_or_default();
                (self.cur, self.vc) = ((iter, clock), vc);
            }
        }
        fn advance(&mut self, point: u32) {
            let snapshot = (self.cur.1, self.vc.clone());
            self.advances.entry(point).or_default().insert(self.cur.0, snapshot);
            self.cur.1 += 1;
        }
        fn await_(&mut self, point: u32, upto: u32) {
            let edges = self.advances.get(&point).cloned().unwrap_or_default();
            for (j, (clock, vc)) in edges.range(..=upto) {
                self.join(*j, *clock, vc);
            }
        }
        fn lock(&mut self, id: u32) {
            if let Some((iter, clock, vc)) = self.locks.get(&id).cloned() {
                self.join(iter, clock, &vc);
            }
        }
        fn unlock(&mut self, id: u32) {
            self.locks.insert(id, (self.cur.0, self.cur.1, self.vc.clone()));
            self.cur.1 += 1;
        }
    }

    /// Every sibling clock of every live frame, on both sides.
    fn assert_same_clocks(d: &RaceDetector, model: &[ModelFrame], seed: u64, step: usize) {
        for (depth, (f, m)) in d.stack.iter().zip(model).enumerate() {
            assert_eq!((f.cur_iter, f.cur_clock), m.cur, "seed {seed} step {step} depth {depth}");
            for iter in 0..MAX_ITER + 2 {
                assert_eq!(
                    f.observed(iter),
                    m.vc.get(&iter).copied(),
                    "seed {seed} step {step} depth {depth}: observed clock of iteration {iter}"
                );
            }
        }
    }

    const MAX_ITER: u32 = 12;

    /// Seeded event traces — regions ordered / plain / task group nested
    /// two deep, iterations in index order, task threads interleaved,
    /// cascades over 3 points at distances 0..=3, critical sections
    /// over 2 locks — drive the model and the detector side by side.
    #[test]
    fn channels_order_what_the_per_iteration_clock_orders() {
        for seed in 0..2000u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut draw = |n: u32| {
                // xorshift64*: any seeded stream will do.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n as u64) as u32
            };
            let mut d = RaceDetector::new(false);
            let mut model: Vec<ModelFrame> = Vec::new();
            // Per frame, the next iteration to begin.
            let mut next: Vec<u32> = Vec::new();
            for step in 0..120 {
                let top_is_group = d.in_task_group();
                match draw(10) {
                    0 if model.len() < 2 => {
                        let (ordered, group) = [(true, false), (false, false), (false, true)]
                            [draw(3) as usize];
                        d.push_region(ordered, group);
                        model.push(ModelFrame { ordered, ..Default::default() });
                        // A loop begins its first iteration at once;
                        // a task group starts on its spawner, thread 0.
                        next.push(1);
                        if !group {
                            d.begin_iteration(0, 0);
                        }
                    }
                    1 if !model.is_empty() && draw(3) == 0 => {
                        d.pop_region();
                        model.pop();
                        next.pop();
                    }
                    2 | 3 if top_is_group => {
                        let thread = draw(4);
                        d.switch_task_thread(thread, 0);
                        model.last_mut().unwrap().switch(thread);
                    }
                    2 | 3 if !model.is_empty() => {
                        // Index order, sometimes skipping an iteration.
                        let iter = next.last().unwrap() + draw(2);
                        if iter < MAX_ITER {
                            d.begin_iteration(iter, 0);
                            model.last_mut().unwrap().begin(iter);
                            *next.last_mut().unwrap() = iter + 1;
                        }
                    }
                    4 | 5 => {
                        let point = draw(3);
                        d.on_advance(point);
                        if let Some(m) = model.iter_mut().rev().find(|m| m.ordered) {
                            m.advance(point);
                        }
                    }
                    6 | 7 => {
                        let (point, dist) = (draw(3), draw(4));
                        if let Some(m) = model.iter_mut().rev().find(|m| m.ordered) {
                            let upto = m.cur.0 as i64 - dist as i64;
                            d.on_await(point, upto);
                            if upto >= 0 {
                                m.await_(point, upto as u32);
                            }
                        }
                    }
                    8 | 9 if !model.is_empty() => {
                        // A critical section: its holder learns the
                        // chain before it extends it.
                        let id = draw(2);
                        d.on_lock(id);
                        model.last_mut().unwrap().lock(id);
                        assert_same_clocks(&d, &model, seed, step);
                        d.on_unlock(id);
                        model.last_mut().unwrap().unlock(id);
                    }
                    _ => {}
                }
                assert_same_clocks(&d, &model, seed, step);
            }
        }
    }

    #[test]
    fn shadow_reports_write_write_and_read_write() {
        let mut d = RaceDetector::new(false);
        let s = SlotId(4);
        d.push_region(false, false);
        d.begin_iteration(0, 0);
        assert!(d.record_write(s, 2).is_none(), "first write races with nothing");
        d.begin_iteration(1, 1);
        let r = d.record_write(s, 2).expect("unordered second write");
        assert_eq!(r.kind, RaceKind::WriteWrite);
        assert_eq!((r.writer_iter, r.other_iter), (0, 1));
        d.begin_iteration(2, 0);
        assert!(d.record_read(s, 3).is_none(), "different element");
        d.begin_iteration(3, 1);
        let r = d.record_write(s, 3).expect("write after unordered read");
        assert_eq!(r.kind, RaceKind::ReadWrite);
        assert_eq!(r.writer_iter, 3);
    }

    #[test]
    fn serial_context_is_never_racy() {
        let mut d = RaceDetector::new(true);
        let s = SlotId(0);
        assert!(d.record_write(s, 0).is_none());
        assert!(d.record_write(s, 0).is_none());
        assert!(d.record_read(s, 0).is_none());
    }
}
