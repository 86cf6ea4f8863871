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
//! conflicting pair is a race. The detector keeps only what can still
//! race: once the outermost region joins, everything recorded under it
//! is ordered before all that follows, and is released (DESIGN.md §8
//! item 3).
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

use crate::store::{SlotId, STORAGE_CAP};
use crate::{SimError, SimErrorKind};
use cedar_ir::Span;
use std::collections::BTreeMap;
use std::fmt;

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

/// A recorded access: its region path, `paths[at .. at + len]` of
/// [`RaceDetector::paths`], plus reporting metadata. The detector
/// **interns** these: every access recorded under one (sync segment,
/// statement) pair shares a single table entry, and shadow cells store
/// the entry's id instead of the record itself. The detector records one
/// access per *element* of vector statements, so the per-cell footprint
/// (4 bytes vs a path snapshot) is what makes a race-collecting run
/// affordable.
#[derive(Debug, Clone, Copy)]
struct Access {
    at: u32,
    len: u32,
    part: u16,
    span: Span,
}

/// Id of an interned access: `RaceDetector::first_id` plus its index in
/// [`RaceDetector::accesses`]. An id below `first_id` was recorded in an
/// outermost region that has since joined, so it is ordered before
/// everything that runs now and reads as "none".
type AccessId = u32;
/// Below every live id (ids start at 1).
const NO_ACCESS: AccessId = 0;
/// Tag of a cell's read word that holds a reader-list number.
const LIST: u32 = 1 << 31;
/// Once ids or list numbers reach this, the next outermost join resets
/// the shadow and numbers from the start again, so both stay below
/// [`LIST`].
const RENUMBER_AT: u32 = 1 << 30;

/// Shadow state of one storage element: the last write and the readers
/// since. Most cells see at most one reader between writes, so `reads`
/// is that reader's id, or `LIST | n` for list `n` of [`Readers`] once
/// there are more — a `Vec` here would cost a heap allocation per cell,
/// and vector statements touch millions of cells.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    write: AccessId,
    reads: u32,
}

/// Simulated bytes a run is charged per element for its shadow cell
/// when the detector is live ([`crate::store::Store::charge_shadow`]).
pub(crate) const CELL_BYTES: u64 = std::mem::size_of::<Cell>() as u64;

const _: () = assert!(std::mem::size_of::<Cell>() == 8);

/// The reader lists of cells read more than once since their last
/// write, pooled: list number `base + k` is `lists[k]`, and a number
/// below `base` belongs to a joined outermost region. A list a write
/// empties goes to `free` for the next cell; at the outermost join all
/// are released at once, and every buffer keeps its capacity, so a
/// re-entered region allocates no list it had before.
#[derive(Debug, Default)]
struct Readers {
    lists: Vec<Vec<AccessId>>,
    /// Lists handed out since the last outermost join: `lists[..used]`.
    used: u32,
    /// Of those, the ones a write has emptied.
    free: Vec<u32>,
    base: u32,
    /// Bytes of the lists and their buffers, which are kept across
    /// regions.
    bytes: u64,
    /// What the lists may hold beside the detector's records
    /// ([`RaceDetector::records_bytes`]) within its cap, and whether they
    /// or the records passed it; kept by the few paths that grow a
    /// buffer, so that a recorded access only tests `over`.
    room: u64,
    over: bool,
}

impl Readers {
    /// A new list `[first, second]`, as a cell's tagged read word.
    fn open(&mut self, first: AccessId, second: AccessId) -> u32 {
        let k = self.free.pop().unwrap_or_else(|| {
            if self.used as usize == self.lists.len() {
                let before = self.lists.capacity();
                self.lists.push(Vec::new());
                self.grew((self.lists.capacity() - before) * std::mem::size_of::<Vec<AccessId>>());
            }
            self.used += 1;
            self.used - 1
        });
        self.lists[k as usize].clear();
        self.push(k as usize, first);
        self.push(k as usize, second);
        LIST | (self.base + k)
    }

    /// Append `id` to list `k`, counting what its buffer grows by.
    fn push(&mut self, k: usize, id: AccessId) {
        let list = &mut self.lists[k];
        let before = list.capacity();
        list.push(id);
        let grown = list.capacity() - before;
        if grown > 0 {
            self.grew(grown * std::mem::size_of::<AccessId>());
        }
    }

    fn grew(&mut self, bytes: usize) {
        self.bytes += bytes as u64;
        self.over |= self.bytes > self.room;
    }

    /// Every list handed out is dead: the outermost region joined.
    fn release_all(&mut self) {
        self.base += self.used;
        self.used = 0;
        self.free.clear();
    }
}

/// What a cell's read word names, read against the live numbering.
enum Reads {
    None,
    One(AccessId),
    /// Index into [`Readers::lists`].
    Many(usize),
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

/// What a recorder returns: `Err` (`limit-exceeded`) once the records
/// of the live outermost region outgrow [`STORAGE_CAP`].
type Recorded<T> = Result<T, SimError>;

/// The happens-before detector. Owned by [`crate::Simulator`] when
/// [`crate::MachineConfig::detect_races`] is set.
///
/// It holds only state that can still race. The join barrier of the
/// outermost region orders every access recorded under it before all
/// that follows, so when [`RaceDetector::pop_region`] empties the stack
/// the access records, their paths and the reader lists are released,
/// and advancing `first_id` and the list base turns every cell's
/// references dead at once: the cost is the region's own records, never
/// a pass over the shadow.
pub struct RaceDetector {
    stack: Vec<RegionFrame>,
    /// Cached path mirror of `stack` (copied into `paths` per access
    /// record).
    path: Vec<PathEntry>,
    /// Where `path` was last copied into `paths`; cleared after any path
    /// mutation (region push/pop, new iteration, new sync segment).
    path_at: Option<u32>,
    /// The paths of the access records, one after another.
    paths: Vec<PathEntry>,
    /// Interned access records of the live outermost region; shadow
    /// cells name them by id.
    accesses: Vec<Access>,
    /// Id of `accesses[0]`.
    first_id: AccessId,
    /// Interned record for the current (segment, statement); rebuilt
    /// lazily after a path or span change.
    cur_id: Option<AccessId>,
    /// Memoized happens-before verdicts, reset whenever the current
    /// context or a sync edge changes.
    memo: ConflictMemo,
    /// Shadow memory, indexed by slot id then linear element.
    shadow: Vec<Vec<Cell>>,
    readers: Readers,
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
    /// Most bytes the records, paths and reader lists may hold:
    /// [`STORAGE_CAP`] (smaller in tests).
    held_cap: u64,
}

impl RaceDetector {
    /// New detector; `fail_fast` turns the first race into an error.
    pub fn new(fail_fast: bool) -> RaceDetector {
        RaceDetector {
            stack: Vec::new(),
            path: Vec::new(),
            path_at: None,
            paths: Vec::new(),
            accesses: Vec::new(),
            first_id: NO_ACCESS + 1,
            cur_id: None,
            memo: ConflictMemo::default(),
            shadow: Vec::new(),
            readers: Readers { room: STORAGE_CAP, ..Readers::default() },
            slot_names: BTreeMap::new(),
            exempt: Vec::new(),
            next_region: 0,
            suspend: 0,
            fail_fast,
            races: Vec::new(),
            total: 0,
            cur_span: Span::NONE,
            held_cap: STORAGE_CAP,
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
        self.path_at = None;
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
        self.path_at = None;
        self.cur_id = None;
        self.memo = ConflictMemo::default();
    }

    pub(crate) fn pop_region(&mut self) {
        self.stack.pop();
        self.path.pop();
        self.path_at = None;
        self.cur_id = None;
        self.memo = ConflictMemo::default();
        if self.stack.is_empty() {
            self.release_joined();
        }
    }

    /// The outermost region joined: drop its records and reader lists,
    /// keeping every buffer for the next region.
    fn release_joined(&mut self) {
        self.first_id += self.accesses.len() as AccessId;
        self.accesses.clear();
        self.paths.clear();
        self.readers.release_all();
        if self.first_id >= RENUMBER_AT || self.readers.base >= RENUMBER_AT {
            // Once per 2^30 records or lists: cheaper than wider cells.
            for cells in &mut self.shadow {
                cells.fill(Cell::default());
            }
            self.first_id = NO_ACCESS + 1;
            self.readers.base = 0;
        }
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
        let at = *self.path_at.get_or_insert_with(|| {
            let at = u32::try_from(self.paths.len()).expect("paths fit the access ids' range");
            self.paths.extend_from_slice(&self.path);
            at
        });
        self.accesses.push(Access {
            at,
            len: self.path.len() as u32,
            part: self.stack.last().map_or(0, |f| f.cur_part),
            span: self.cur_span,
        });
        let id = self.first_id + (self.accesses.len() - 1) as AccessId;
        assert!(id < LIST, "more than 2^30 access records in one outermost region");
        // The records may have grown, leaving the lists less room.
        let records = self.records_bytes();
        self.readers.room = self.held_cap.saturating_sub(records);
        self.readers.over |= records > self.held_cap || self.readers.bytes > self.readers.room;
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

/// The happens-before test of [`RaceDetector::conflict`], as a free
/// function so the recorders can run it while holding a mutable borrow
/// of the shadow cells.
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

/// The detector's state a recorder reads while it holds the cells of
/// one slot (split borrows), with the per-cell read and write rules.
struct Live<'a> {
    stack: &'a [RegionFrame],
    accesses: &'a [Access],
    paths: &'a [PathEntry],
    first_id: AccessId,
    memo: &'a mut ConflictMemo,
    readers: &'a mut Readers,
}

impl Live<'_> {
    fn path(&self, id: AccessId) -> &[PathEntry] {
        let a = &self.accesses[(id - self.first_id) as usize];
        &self.paths[a.at as usize..(a.at + a.len) as usize]
    }

    fn path_start(&self, id: AccessId) -> u32 {
        self.accesses[(id - self.first_id) as usize].at
    }

    /// The two diverging iterations when access `id` is not ordered
    /// before the current context; `None` for a dead or absent id.
    fn conflict(&mut self, id: AccessId) -> Option<(u32, u32)> {
        if id < self.first_id {
            return None;
        }
        let at = (id & 3) as usize;
        if self.memo.entries[at].0 != id {
            self.memo.entries[at] = (id, path_conflict(self.stack, self.path(id)));
        }
        self.memo.entries[at].1
    }

    fn reads(&self, word: u32) -> Reads {
        if word & LIST != 0 {
            match (word & !LIST).checked_sub(self.readers.base) {
                Some(k) => Reads::Many(k as usize),
                None => Reads::None,
            }
        } else if word >= self.first_id {
            Reads::One(word)
        } else {
            Reads::None
        }
    }

    /// Same interned record, or the same path (a task-group thread
    /// resumed after a switch rebuilds the same path).
    fn same_path(&self, a: AccessId, b: AccessId) -> bool {
        a == b || self.path_start(a) == self.path_start(b) || self.path(a) == self.path(b)
    }

    /// Record a read by `cur`; the race with the prior write it
    /// completes, if any, with the diverging iterations.
    fn read(&mut self, cell: &mut Cell, cur: AccessId) -> Option<(RaceKind, AccessId, u32, u32)> {
        let w = cell.write;
        let hit = self.conflict(w).map(|(wi, ci)| (RaceKind::WriteRead, w, wi, ci));
        // The host runs one iteration at a time, so consecutive reads of
        // a cell from the same path dedupe with a last-entry check.
        match self.reads(cell.reads) {
            Reads::None => cell.reads = cur,
            Reads::One(last) => {
                if !self.same_path(last, cur) {
                    cell.reads = self.readers.open(last, cur);
                }
            }
            Reads::Many(k) => {
                let last = *self.readers.lists[k].last().expect("a list holds two or more");
                if !self.same_path(last, cur) {
                    self.readers.push(k, cur);
                }
            }
        }
        hit
    }

    /// Record a write by `cur`; the first race it completes against the
    /// prior write or, in record order, a reader since.
    fn write(&mut self, cell: &mut Cell, cur: AccessId) -> Option<(RaceKind, AccessId, u32, u32)> {
        let prior = std::mem::replace(&mut cell.write, cur);
        let reads = self.reads(std::mem::take(&mut cell.reads));
        let mut hit = self.conflict(prior).map(|(wi, ci)| (RaceKind::WriteWrite, prior, wi, ci));
        let mut check = |live: &mut Self, r| {
            if hit.is_none() {
                hit = live.conflict(r).map(|(ri, ci)| (RaceKind::ReadWrite, r, ri, ci));
            }
        };
        match reads {
            Reads::None => {}
            Reads::One(r) => check(self, r),
            Reads::Many(k) => {
                for i in 0..self.readers.lists[k].len() {
                    check(self, self.readers.lists[k][i]);
                }
                self.readers.free.push(k as u32);
            }
        }
        hit
    }
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
        let prior = &self.accesses[(prior - self.first_id) as usize];
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

    /// Make sure the shadow cells `slot[0..len]` exist, returning the
    /// cell slice alongside the rest of the state a recorder reads.
    /// `len` never passes the slot's length, and a cell vector grows at
    /// most to twice what it holds, so a slot's cells take at most twice
    /// the [`CELL_BYTES`] per element its declaration was charged.
    fn cells(&mut self, slot: SlotId, len: usize) -> (&mut [Cell], Live<'_>) {
        let si = slot.0 as usize;
        if self.shadow.len() <= si {
            self.shadow.resize_with(si + 1, Vec::new);
        }
        let cells = &mut self.shadow[si];
        if cells.len() < len {
            cells.resize(len, Cell::default());
        }
        let live = Live {
            stack: &self.stack,
            accesses: &self.accesses,
            paths: &self.paths,
            first_id: self.first_id,
            memo: &mut self.memo,
            readers: &mut self.readers,
        };
        (&mut cells[..], live)
    }

    /// Record a read of `slot[lin]`; returns the race it completes, if
    /// any.
    pub(crate) fn record_read(&mut self, slot: SlotId, lin: usize) -> Recorded<Option<RaceInfo>> {
        self.record_one(slot, lin, false)
    }

    /// Record a write of `slot[lin]`; returns the first race it
    /// completes against the prior write or any unordered reader.
    pub(crate) fn record_write(&mut self, slot: SlotId, lin: usize) -> Recorded<Option<RaceInfo>> {
        self.record_one(slot, lin, true)
    }

    /// [`RaceDetector::record`] for one element, with nothing collected
    /// (scalar accesses are the most frequent).
    fn record_one(&mut self, slot: SlotId, lin: usize, write: bool) -> Recorded<Option<RaceInfo>> {
        let Some(cur) = self.recorded(slot) else { return Ok(None) };
        let (cells, mut live) = self.cells(slot, lin + 1);
        let cell = &mut cells[lin];
        let hit = if write { live.write(cell, cur) } else { live.read(cell, cur) };
        self.check_held()?;
        Ok(hit.map(|(kind, a, pi, ci)| self.make_race(kind, a, pi, ci, slot, lin)))
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
    ) -> Recorded<Vec<RaceInfo>> {
        self.record(slot, len, lins, false)
    }

    /// Write-side counterpart of [`RaceDetector::record_reads`]:
    /// equivalent to [`RaceDetector::record_write`] once per element in
    /// iteration order.
    pub(crate) fn record_writes(
        &mut self,
        slot: SlotId,
        len: usize,
        lins: impl Iterator<Item = usize>,
    ) -> Recorded<Vec<RaceInfo>> {
        self.record(slot, len, lins, true)
    }

    /// The bulk recorders' body.
    fn record(
        &mut self,
        slot: SlotId,
        len: usize,
        lins: impl Iterator<Item = usize>,
        write: bool,
    ) -> Recorded<Vec<RaceInfo>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let Some(cur) = self.recorded(slot) else { return Ok(Vec::new()) };
        let (cells, mut live) = self.cells(slot, len);
        // Consecutive cells were typically last written by one vector
        // statement sharing a single interned record, so the
        // happens-before test is memoized by access id.
        let pending: Vec<(usize, (RaceKind, AccessId, u32, u32))> = lins
            .filter_map(|lin| {
                let cell = &mut cells[lin];
                let hit = if write { live.write(cell, cur) } else { live.read(cell, cur) };
                hit.map(|h| (lin, h))
            })
            .collect();
        self.check_held()?;
        Ok(pending
            .into_iter()
            .map(|(lin, (kind, a, pi, ci))| self.make_race(kind, a, pi, ci, slot, lin))
            .collect())
    }

    /// The current access id, when an access of `slot` is recorded:
    /// serial-context accesses are ordered with everything and are
    /// neither checked nor recorded.
    fn recorded(&mut self, slot: SlotId) -> Option<AccessId> {
        let skip = self.suspend > 0 || self.stack.is_empty() || self.is_exempt(slot);
        (!skip).then(|| self.cur_access_id())
    }

    /// `Err` once the records and reader lists have passed their cap.
    fn check_held(&self) -> Recorded<()> {
        if self.readers.over {
            return Err(self.over_cap());
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn over_cap(&self) -> SimError {
        let msg = "the race detector's records of one parallel region passed the storage cap";
        SimError::new(SimErrorKind::Limit, self.cur_span, msg)
    }

    /// Host bytes of the access records and their paths: the buffers'
    /// capacities. With [`Readers::bytes`] it is what the detector holds
    /// beside the shadow cells, which are charged to the store.
    fn records_bytes(&self) -> u64 {
        let records = self.accesses.capacity() * std::mem::size_of::<Access>()
            + self.paths.capacity() * std::mem::size_of::<PathEntry>();
        records as u64
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

    #[test]
    fn joined_regions_are_ordered() {
        let mut d = RaceDetector::new(true);
        d.push_region(false, false);
        d.begin_iteration(3, 1);
        let rec = [PathEntry { region: 0, iter: 1, clock: 0 }];
        // Same live region, different iteration, no sync: concurrent.
        assert_eq!(d.conflict(&rec), Some((1, 3)));
        d.pop_region();
        d.push_region(false, false);
        d.begin_iteration(0, 0);
        // The first region joined before the second forked.
        assert_eq!(d.conflict(&rec), None);
    }

    #[test]
    fn cascade_edge_orders_prior_segment_only() {
        let mut d = RaceDetector::new(true);
        d.push_region(true, false);
        d.begin_iteration(1, 0);
        // Iteration 1 advances point 7 after its clock-0 segment,
        // then keeps running in segment 1.
        d.on_advance(7);
        let after_advance = [PathEntry { region: 0, iter: 1, clock: 1 }];
        let before_advance = [PathEntry { region: 0, iter: 1, clock: 0 }];
        d.begin_iteration(2, 1);
        // Without the await, both segments are concurrent with iter 2.
        assert!(d.conflict(&before_advance).is_some());
        d.on_await(7, 1);
        // The await orders the pre-advance segment, not the post one.
        assert_eq!(d.conflict(&before_advance), None);
        assert!(d.conflict(&after_advance).is_some());
    }

    #[test]
    fn lock_chain_orders_critical_sections() {
        let mut d = RaceDetector::new(true);
        d.push_region(false, false);
        d.begin_iteration(0, 0);
        d.on_lock(9);
        let in_cs = [PathEntry { region: 0, iter: 0, clock: 0 }];
        d.on_unlock(9);
        d.begin_iteration(5, 2);
        assert!(d.conflict(&in_cs).is_some(), "no lock yet: concurrent");
        d.on_lock(9);
        assert_eq!(d.conflict(&in_cs), None, "lock chain orders the CS");
        d.pop_region();
    }

    /// The explicit clock this file kept before channels, as the
    /// reference model: per frame, the current thread's iteration →
    /// highest observed segment clock. An await joins the snapshot of
    /// every advance `≤ upto`, a lock the snapshot of the last unlock.
    type Vc = BTreeMap<u32, u32>;

    #[derive(Default)]
    struct ModelFrame {
        id: u64,
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

    /// A recorded access in the model: `(region, iteration, clock)` per
    /// live frame.
    type ModelPath = Vec<(u64, u32, u32)>;

    /// The model's shadow cell: the last write and *every* read since,
    /// kept across joins (nothing released, nothing deduplicated).
    #[derive(Default)]
    struct ModelCell {
        write: Option<ModelPath>,
        reads: Vec<ModelPath>,
    }

    /// The happens-before test over the model's clocks.
    fn model_conflict(model: &[ModelFrame], a: &ModelPath) -> Option<(u32, u32)> {
        for (d, &(region, iter, clock)) in a.iter().enumerate() {
            let m = model.get(d).filter(|m| m.id == region)?;
            if iter == m.cur.0 {
                continue;
            }
            if m.vc.get(&iter).is_some_and(|&c| clock <= c) {
                return None;
            }
            return Some((iter, m.cur.0));
        }
        None
    }

    /// The model's verdict on one access of `cell`, as `(kind, prior
    /// iteration, current iteration)`.
    fn model_access(
        model: &[ModelFrame],
        cell: &mut ModelCell,
        write: bool,
    ) -> Option<(RaceKind, u32, u32)> {
        let cur: ModelPath = model.iter().map(|m| (m.id, m.cur.0, m.cur.1)).collect();
        let race = |kind, a: &ModelPath| model_conflict(model, a).map(|(p, c)| (kind, p, c));
        if !write {
            let hit = cell.write.as_ref().and_then(|w| race(RaceKind::WriteRead, w));
            cell.reads.push(cur);
            return hit;
        }
        let prior = cell.write.replace(cur);
        let reads = std::mem::take(&mut cell.reads);
        prior
            .as_ref()
            .and_then(|w| race(RaceKind::WriteWrite, w))
            .or_else(|| reads.iter().find_map(|r| race(RaceKind::ReadWrite, r)))
    }

    /// A detector race as `(kind, prior iteration, current iteration)`.
    fn verdict(r: RaceInfo) -> (RaceKind, u32, u32) {
        match r.kind {
            RaceKind::ReadWrite => (r.kind, r.other_iter, r.writer_iter),
            _ => (r.kind, r.writer_iter, r.other_iter),
        }
    }

    /// Seeded event traces — regions ordered / plain / task group nested
    /// two deep, iterations in index order, task threads interleaved,
    /// cascades over 3 points at distances 0..=3, critical sections
    /// over 2 locks, reads and writes of 6 cells in 2 slots — drive the
    /// model and the detector side by side. Most traces run several
    /// top-level regions over the same cells, so the detector's release
    /// at the outermost join is checked against a model that keeps
    /// every access; a fifth start with ids past the renumbering mark.
    #[test]
    fn channels_order_what_the_per_iteration_clock_orders() {
        // Traces whose top-level regions share cells, traces
        // renumbered, verdicts compared (ordered, racing).
        let (mut shared, mut renumbered, mut verdicts) = (0, 0, [0; 2]);
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
            if seed % 5 == 0 {
                // Numbered past the mark: the first outermost join resets.
                (d.first_id, d.readers.base) = (RENUMBER_AT, RENUMBER_AT);
            }
            let mut model: Vec<ModelFrame> = Vec::new();
            let mut cells: BTreeMap<(u32, usize), ModelCell> = BTreeMap::new();
            let mut regions = 0u64;
            // Top-level regions that accessed a cell.
            let mut accessed: Vec<u64> = Vec::new();
            // An advance of an ordered frame below the top moves its
            // clock but not its entry in the detector's path mirror,
            // which refreshes the top entry only: verdicts are compared
            // again after the outermost join.
            let mut skewed = false;
            // Per frame, the next iteration to begin.
            let mut next: Vec<u32> = Vec::new();
            for step in 0..160 {
                let top_is_group = d.in_task_group();
                match draw(12) {
                    0 if model.len() < 2 => {
                        let (ordered, group) = [(true, false), (false, false), (false, true)]
                            [draw(3) as usize];
                        d.push_region(ordered, group);
                        model.push(ModelFrame { id: regions, ordered, ..Default::default() });
                        regions += 1;
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
                        skewed &= !model.is_empty();
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
                        skewed |= model.last().is_some_and(|m| !m.ordered)
                            && model.iter().any(|m| m.ordered);
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
                    10 | 11 if !model.is_empty() => {
                        let (slot, lin, write, bulk) =
                            (draw(2), draw(3) as usize, draw(2) == 0, draw(2) == 0);
                        d.set_span(Span { line: draw(3) });
                        let s = SlotId(slot);
                        let one = std::iter::once(lin);
                        let got = match (write, bulk) {
                            (false, false) => d.record_read(s, lin).unwrap(),
                            (true, false) => d.record_write(s, lin).unwrap(),
                            (false, true) => d.record_reads(s, lin + 1, one).unwrap().pop(),
                            (true, true) => d.record_writes(s, lin + 1, one).unwrap().pop(),
                        };
                        let cell = cells.entry((slot, lin)).or_default();
                        let want = model_access(&model, cell, write);
                        if !skewed {
                            let got = got.map(verdict);
                            assert_eq!(got, want, "seed {seed} step {step}: race verdict");
                            verdicts[want.is_some() as usize] += 1;
                        }
                        if !accessed.contains(&model[0].id) {
                            accessed.push(model[0].id);
                        }
                    }
                    _ => {}
                }
                assert_same_clocks(&d, &model, seed, step);
            }
            shared += (accessed.len() >= 2) as u32;
            renumbered += (seed % 5 == 0 && d.first_id < RENUMBER_AT) as u32;
        }
        println!("{shared} share cells across regions, {renumbered} renumbered; {verdicts:?}");
        assert!(shared >= 1000, "{shared} traces share cells across regions");
        assert!(renumbered >= 200, "{renumbered} traces renumbered");
        assert!(verdicts[1] >= 1000, "{verdicts:?}: too few races to judge");
    }

    #[test]
    fn shadow_reports_write_write_and_read_write() {
        let mut d = RaceDetector::new(false);
        let s = SlotId(4);
        d.push_region(false, false);
        d.begin_iteration(0, 0);
        assert!(d.record_write(s, 2).unwrap().is_none(), "first write races with nothing");
        d.begin_iteration(1, 1);
        let r = d.record_write(s, 2).unwrap().expect("unordered second write");
        assert_eq!(r.kind, RaceKind::WriteWrite);
        assert_eq!((r.writer_iter, r.other_iter), (0, 1));
        d.begin_iteration(2, 0);
        assert!(d.record_read(s, 3).unwrap().is_none(), "different element");
        d.begin_iteration(3, 1);
        let r = d.record_write(s, 3).unwrap().expect("write after unordered read");
        assert_eq!(r.kind, RaceKind::ReadWrite);
        assert_eq!(r.writer_iter, 3);
    }

    #[test]
    fn nothing_recorded_outlives_the_outermost_join() {
        let mut d = RaceDetector::new(false);
        let (s, t) = (SlotId(0), SlotId(1));
        for _ in 0..3 {
            d.push_region(false, false);
            for i in 0..4 {
                d.begin_iteration(i, i as u16);
                // Element 0 gets a reader list; element 1 gets one from
                // the nested regions.
                assert!(d.record_read(s, 0).unwrap().is_none());
                assert!(d.record_write(t, i as usize).unwrap().is_none());
                d.push_region(false, false);
                d.begin_iteration(0, 0);
                assert!(d.record_read(s, 1).unwrap().is_none());
                d.pop_region();
                assert!(!d.accesses.is_empty(), "a nested join releases nothing");
            }
            assert_eq!(d.readers.used, 2);
            d.pop_region();
            assert!(d.accesses.is_empty() && d.paths.is_empty(), "no access records");
            assert_eq!((d.readers.used, d.readers.free.len()), (0, 0), "no reader lists");
            assert_eq!(d.readers.lists.len(), 2, "the lists' buffers stay for reuse");
        }
        assert_eq!(d.total(), 0);
    }

    #[test]
    fn records_past_the_cap_end_the_run_in_limit_exceeded() {
        let mut d = RaceDetector::new(false);
        d.held_cap = 4096;
        d.push_region(false, false);
        d.set_span(Span { line: 7 });
        // Each iteration adds a record, its path and a reader.
        let stop = (0..1000).find_map(|i| {
            d.begin_iteration(i, 0);
            d.record_read(SlotId(0), 0).err().map(|e| (i, e))
        });
        let (i, e) = stop.expect("the records outgrow the cap");
        assert!(i > 50, "stopped after {i} iterations");
        assert_eq!((e.kind, e.span.line), (SimErrorKind::Limit, 7), "{e}");
        let held = d.records_bytes() + d.readers.bytes;
        assert!(held > d.held_cap && held <= 2 * d.held_cap, "{held}");
    }

    #[test]
    fn serial_context_is_never_racy() {
        let mut d = RaceDetector::new(true);
        let s = SlotId(0);
        assert!(d.record_write(s, 0).unwrap().is_none());
        assert!(d.record_write(s, 0).unwrap().is_none());
        assert!(d.record_read(s, 0).unwrap().is_none());
    }
}
