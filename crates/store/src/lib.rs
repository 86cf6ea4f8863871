//! `cedar-store` — a crash-safe, content-addressed, dependency-free
//! on-disk store (DESIGN.md §15).
//!
//! The store maps a 64-bit content key to an immutable byte payload
//! and promises exactly one thing about crashes: **a reader never sees
//! a torn entry**. After `kill -9`, power loss at any modeled point, or
//! any injected filesystem fault, every entry is either absent or
//! byte-for-byte intact — so callers treat the store as a cache that
//! self-heals by recomputation, never as a source of truth that can
//! lie.
//!
//! How the promise is kept:
//!
//! * **One append-only log.** Every entry is a record of the file `log`
//!   under the root: a 24-byte header (magic, FNV-1a checksum of the
//!   rest of the record, payload length, key), then the payload. A
//!   later record of a key supersedes an earlier one.
//! * **Append, sync, then publish.** [`Store::put`] writes one record
//!   at the writer's tracked end of the log and calls `fdatasync`
//!   before it returns; the in-memory `key → record` index learns the
//!   record only after that. A failed put leaves the tracked end at the
//!   last good record. The root directory is synced once, when the log
//!   is created.
//! * **Open scans headers, get checks the checksum.** Bytes after the
//!   last whole frame are a torn tail — what a crash mid-append leaves —
//!   which a writable open cuts, counting nothing. A record that fails
//!   its checksum on [`Store::get`] costs only itself: it is counted,
//!   copied to `corrupt/<key>.<n>`, dropped from the index and reported
//!   as a miss, so the caller recomputes and the next put heals it.
//! * **Single writer, many readers.** A writable store holds an
//!   exclusive `flock` on the log, which the kernel releases when the
//!   holder dies; read-only views never lock, and a miss in one first
//!   re-reads the log's headers, so it sees what the writer appended
//!   since it last looked.
//!
//! The append and the sync each ask an optional [`FaultHook`] first
//! ([`faults`]): the seeded `chaos::fs` lane drives the crash matrix
//! through it in tests.

#![warn(missing_docs)]

pub mod faults;

pub use faults::{FaultHook, FsFault, FsStage};

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The log's file name under the store root.
const LOG: &str = "log";
/// Leading format magic of every record; also the version tag of the
/// record layout.
const MAGIC: &[u8; 4] = b"cdl1";
/// Header size: magic (4) + FNV-1a checksum of `record[12..]` (8) +
/// payload length (4) + key (8).
const HEADER: usize = 24;

/// FNV-1a over raw bytes: the record checksum, and the workspace's one
/// copy of the digest for the crates above the store — the crash-bundle
/// directory names and the digests of the byte-pinned test fixtures are
/// this function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Store failures. Everything is either an environment problem (I/O,
/// lock contention) or an injected fault surfacing through the API.
#[derive(Debug)]
pub enum StoreError {
    /// A real filesystem operation failed.
    Io {
        /// Which operation (`"write"`, `"sync"`, ...).
        op: &'static str,
        /// The path it targeted.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// Another live writer holds the log.
    Locked,
    /// `put` on a store opened with [`Store::open_read_only`].
    ReadOnly,
    /// An injected fault fired at this durable-write stage.
    Injected {
        /// The stage tag (`"write"` or `"sync"`).
        stage: &'static str,
    },
}

impl StoreError {
    fn io(op: &'static str, path: &Path, err: std::io::Error) -> StoreError {
        StoreError::Io { op, path: path.to_path_buf(), err }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, err } => {
                write!(f, "store {op} {}: {err}", path.display())
            }
            StoreError::Locked => write!(f, "store is locked by another live writer"),
            StoreError::ReadOnly => write!(f, "store was opened read-only"),
            StoreError::Injected { stage } => {
                write!(f, "injected fs fault at stage `{stage}`")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Monotonic counters of what the store observed. Snapshot via
/// [`Store::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads that returned a verified payload.
    pub hits: u64,
    /// Reads of absent keys.
    pub misses: u64,
    /// Reads that found a corrupt record, quarantined it, and reported
    /// a miss (the self-heal path).
    pub corrupt_recovered: u64,
    /// Successful durable writes.
    pub puts: u64,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    puts: AtomicU64,
}

/// Where a record lies in the log: its header's offset and its payload
/// length.
#[derive(Clone, Copy, PartialEq)]
struct Slot {
    at: u64,
    len: usize,
}

/// The latest whole record of every key, and where the records the
/// index covers end.
#[derive(Default)]
struct Index {
    slots: HashMap<u64, Slot>,
    end: u64,
}

impl Index {
    /// Index the whole records of `log` up to `size`. A frame that is
    /// broken or runs past `size` ends the scan: it is a torn tail, or an
    /// append still in progress.
    fn scan(log: &File, size: u64) -> Index {
        let mut index = Index::default();
        let mut head = [0u8; HEADER];
        while log.read_exact_at(&mut head, index.end).is_ok() && &head[..4] == MAGIC {
            let len = u32::from_le_bytes(head[12..16].try_into().unwrap()) as usize;
            let key = u64::from_le_bytes(head[16..24].try_into().unwrap());
            let (at, next) = (index.end, index.end + (HEADER + len) as u64);
            if next > size {
                break;
            }
            index.slots.insert(key, Slot { at, len });
            index.end = next;
        }
        index
    }
}

/// A content-addressed store rooted at one directory.
///
/// Thread-safe: `get` takes the index lock only for a lookup and reads
/// with `pread`; `put` serializes in-process through an internal mutex
/// and cross-process through the lock on the log.
pub struct Store {
    root: PathBuf,
    hook: Option<FaultHook>,
    counters: Counters,
    /// The open log; a read-only view opens it on the first look that
    /// finds it.
    log: OnceLock<File>,
    index: Mutex<Index>,
    /// In-process writer serialization; `None` for a read-only view.
    writer: Option<Mutex<()>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("writable", &self.writer.is_some())
            .finish()
    }
}

impl Store {
    fn new(root: PathBuf, writable: bool) -> Store {
        Store {
            root,
            hook: None,
            counters: Counters::default(),
            log: OnceLock::new(),
            index: Mutex::default(),
            writer: writable.then(Mutex::default),
        }
    }

    /// Open (creating if necessary) a writable store at `root`, locking
    /// its log, indexing it and cutting the torn tail of any previous
    /// crash.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let store = Store::new(root.into(), true);
        fs::create_dir_all(&store.root).map_err(|e| StoreError::io("create-dir", &store.root, e))?;
        let path = store.root.join(LOG);
        let io = |op, e| StoreError::io(op, &path, e);
        let log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io("open", e))?;
        log.try_lock().map_err(|e| match e {
            TryLockError::WouldBlock => StoreError::Locked,
            TryLockError::Error(e) => io("lock", e),
        })?;
        let size = log.metadata().map_err(|e| io("stat", e))?.len();
        let index = Index::scan(&log, size);
        let end = index.end;
        *store.index() = index;
        if end < size {
            log.set_len(end).map_err(|e| io("truncate", e))?;
        }
        // An empty log may be one this open created: make its name
        // durable before the first put's `fdatasync` makes its bytes so.
        if end == 0 {
            File::open(&store.root)
                .and_then(|d| d.sync_all())
                .map_err(|e| StoreError::io("sync", &store.root, e))?;
        }
        let _ = store.log.set(log);
        Ok(store)
    }

    /// Open a read-only view: no lock, nothing written, `put` refused.
    /// A corrupt record found by a read-only view is reported as a miss
    /// but left in place for the writer to quarantine.
    pub fn open_read_only(root: impl Into<PathBuf>) -> Store {
        let store = Store::new(root.into(), false);
        store.catch_up();
        store
    }

    /// Install a fault hook consulted before the append and the sync of
    /// every put (the `chaos::fs` lane plugs in here).
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Store {
        self.hook = Some(hook);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            corrupt_recovered: self.counters.corrupt.load(Ordering::Relaxed),
            puts: self.counters.puts.load(Ordering::Relaxed),
        }
    }

    /// Every update of the index is one insert, remove or assignment,
    /// so a guard poisoned by a panicking holder still guards a valid
    /// index.
    fn index(&self) -> MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A read-only view's look at the log: every header again, from the
    /// start, so that the view also follows a writer that cut a failed
    /// append and wrote another record in its place.
    fn catch_up(&self) {
        if self.log.get().is_none() {
            if let Ok(log) = File::open(self.root.join(LOG)) {
                let _ = self.log.set(log);
            }
        }
        if let Some(log) = self.log.get() {
            if let Ok(meta) = log.metadata() {
                *self.index() = Index::scan(log, meta.len());
            }
        }
    }

    fn lookup(&self, key: u64) -> Option<Slot> {
        self.index().slots.get(&key).copied()
    }

    /// Read and verify an entry. `None` is a miss — including the
    /// corrupt case, where the record has been dropped from the index
    /// (and, by a writable store, copied under `corrupt/`) and the
    /// caller is expected to recompute.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let found = self.lookup(key).or_else(|| {
            self.writer.is_none().then(|| self.catch_up())?;
            self.lookup(key)
        });
        let (Some(slot), Some(log)) = (found, self.log.get()) else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        // The checksum covers the length and the key as well. The key is
        // compared too: a read-only view may have indexed a record whose
        // sync then failed, and the writer has since put another key's
        // record in its place.
        let mut record = vec![0; HEADER + slot.len];
        if log.read_exact_at(&mut record, slot.at).is_ok()
            && record[16..24] == key.to_le_bytes()
            && record[4..12] == fnv1a(&record[12..]).to_le_bytes()
        {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            record.drain(..HEADER);
            return Some(record);
        }
        self.quarantine(key, slot, &record);
        None
    }

    /// Take a corrupt record out of the reader's way — from the index,
    /// and for a writable store into `corrupt/` — and count the
    /// recovery.
    fn quarantine(&self, key: u64, slot: Slot, record: &[u8]) {
        self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
        {
            let mut index = self.index();
            // A put may have superseded the record since it was looked up.
            if index.slots.get(&key) == Some(&slot) {
                index.slots.remove(&key);
            }
        }
        if self.writer.is_none() {
            return;
        }
        let dir = self.root.join("corrupt");
        let _ = fs::create_dir_all(&dir);
        for n in 0.. {
            let dest = dir.join(format!("{key:016x}.{n}"));
            if dest.exists() {
                continue;
            }
            let _ = fs::write(&dest, record);
            break;
        }
    }

    /// Does a verified entry exist for `key`? (Counts as a read.)
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    fn fault(&self, stage: FsStage, name: &str) -> Option<FsFault> {
        self.hook.as_ref().and_then(|h| h(stage, name))
    }

    /// Durably write `payload` under `key`, superseding any existing
    /// entry. On error — real or injected — the log is cut back to the
    /// last good record and the promise holds: the entry is the old
    /// version, the new version, or absent, never torn.
    pub fn put(&self, key: u64, payload: &[u8]) -> Result<(), StoreError> {
        let writer = self.writer.as_ref().ok_or(StoreError::ReadOnly)?;
        let len = u32::try_from(payload.len()).map_err(|_| {
            StoreError::io("write", &self.root.join(LOG), std::io::ErrorKind::InvalidInput.into())
        })?;
        let mut record =
            [&MAGIC[..], &[0; 8], &len.to_le_bytes(), &key.to_le_bytes(), payload].concat();
        let sum = fnv1a(&record[12..]);
        record[4..12].copy_from_slice(&sum.to_le_bytes());

        let _serial = writer.lock().expect("a put panicked while it held the writer");
        let log = self.log.get().expect("a writable store opens its log");
        let at = self.index().end;
        if let Err(e) = self.append(log, at, &record, &format!("{key:016x}")) {
            // Best effort: the next put overwrites from `at` anyway, and
            // the next writable open cuts whatever is left.
            let _ = log.set_len(at);
            return Err(e);
        }
        let mut index = self.index();
        index.slots.insert(key, Slot { at, len: payload.len() });
        index.end = at + record.len() as u64;
        self.counters.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The two stages of a put: write the record at `at`, then
    /// `fdatasync` it.
    fn append(&self, log: &File, at: u64, record: &[u8], name: &str) -> Result<(), StoreError> {
        let io = |op, e| StoreError::io(op, &self.root.join(LOG), e);
        match self.fault(FsStage::Write, name) {
            Some(FsFault::ShortWrite(n)) => {
                // The torn prefix lands — what a crash mid-append leaves.
                let _ = log.write_all_at(&record[..n.min(record.len())], at);
                return Err(StoreError::Injected { stage: "write" });
            }
            Some(_) => return Err(StoreError::Injected { stage: "write" }),
            None => {}
        }
        log.write_all_at(record, at).map_err(|e| io("write", e))?;
        // The crash window: the record is whole in the page cache but
        // not known to be on disk, and the index has not learned it.
        if self.fault(FsStage::Sync, name).is_some() {
            return Err(StoreError::Injected { stage: "sync" });
        }
        log.sync_data().map_err(|e| io("sync", e))
    }

    /// Bytes of whole records in the log, superseded and corrupt ones
    /// included: what the store occupies on disk.
    pub fn total_bytes(&self) -> u64 {
        self.index().end
    }

    /// Number of keys with an entry.
    pub fn len(&self) -> usize {
        self.index().slots.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Write `bytes` to `path` atomically: private tmp file in the same
/// directory, fsync, rename. Callers elsewhere in the workspace use
/// this for documents a person or a tool opens by name and must never
/// read torn (a campaign's `merged.json` and `triage.json`), where a
/// record in the store would not do.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let stem = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = dir.join(format!(".{stem}.tmp{}", std::process::id()));
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| StoreError::io("create", &tmp, e))?;
    f.write_all(bytes).map_err(|e| StoreError::io("write", &tmp, e))?;
    f.sync_all().map_err(|e| StoreError::io("sync", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| StoreError::io("rename", &tmp, e))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fresh(tag: &str) -> PathBuf {
        let d = PathBuf::from(format!("target/test-store/{tag}"));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Flip one byte of the log behind the store's back.
    fn flip(root: &Path, at: u64) {
        let log = OpenOptions::new().read(true).write(true).open(root.join(LOG)).unwrap();
        let mut b = [0u8];
        log.read_exact_at(&mut b, at).unwrap();
        log.write_all_at(&[b[0] ^ 0x40], at).unwrap();
    }

    fn log_len(root: &Path) -> u64 {
        fs::metadata(root.join(LOG)).unwrap().len()
    }

    #[test]
    fn put_get_round_trips_and_counts() {
        let s = Store::open(fresh("roundtrip")).unwrap();
        assert_eq!(s.get(1), None);
        s.put(1, b"hello cedar").unwrap();
        assert_eq!(s.get(1).as_deref(), Some(&b"hello cedar"[..]));
        s.put(1, b"replaced").unwrap();
        assert_eq!(s.get(1).as_deref(), Some(&b"replaced"[..]));
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.puts, st.corrupt_recovered), (2, 1, 2, 0));
        // The later record supersedes the earlier one across a reopen too.
        let root = s.root().to_path_buf();
        drop(s);
        let s = Store::open(root).unwrap();
        assert_eq!((s.len(), s.get(1).as_deref()), (1, Some(&b"replaced"[..])));
    }

    #[test]
    fn empty_payloads_and_binary_payloads_survive() {
        let s = Store::open(fresh("binary")).unwrap();
        s.put(0, b"").unwrap();
        assert_eq!(s.get(0).as_deref(), Some(&b""[..]));
        let blob: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        s.put(u64::MAX, &blob).unwrap();
        assert_eq!(s.get(u64::MAX), Some(blob));
    }

    #[test]
    fn a_corrupt_record_costs_only_itself_and_selfheals() {
        let root = fresh("corrupt");
        let s = Store::open(&root).unwrap();
        s.put(7, b"the truth").unwrap();
        s.put(8, b"a neighbour").unwrap();
        // A payload byte of the first record, a key byte of the second
        // (which starts after the 9 payload bytes of the first).
        flip(&root, HEADER as u64);
        flip(&root, (HEADER + 9 + 16) as u64);
        assert_eq!(s.get(7), None, "corrupt record must read as a miss");
        assert_eq!(s.get(8), None, "a flipped key must not re-key the record");
        assert_eq!(s.stats().corrupt_recovered, 2);
        assert_eq!(s.len(), 0, "both left the index");
        assert!(
            root.join("corrupt").join(format!("{:016x}.0", 7u64)).exists(),
            "the record must be quarantined, not destroyed"
        );
        // Self-heal: recompute, re-put, read back — also after a reopen,
        // where the healthy later record supersedes the corrupt one.
        s.put(7, b"the truth").unwrap();
        assert_eq!(s.get(7).as_deref(), Some(&b"the truth"[..]));
        drop(s);
        let s = Store::open(&root).unwrap();
        assert_eq!(s.get(7).as_deref(), Some(&b"the truth"[..]));
        assert_eq!(s.stats().corrupt_recovered, 0);
    }

    #[test]
    fn a_log_cut_inside_its_last_record_reopens_without_it() {
        let root = fresh("truncate");
        let payload = |k: u64| format!("payload {k} long enough to cut interestingly").into_bytes();
        let s = Store::open(&root).unwrap();
        for k in 0..3 {
            s.put(k, &payload(k)).unwrap();
        }
        drop(s);
        let full = fs::read(root.join(LOG)).unwrap();
        let last = full.len() - HEADER - payload(2).len();
        for cut in last..full.len() {
            fs::write(root.join(LOG), &full[..cut]).unwrap();
            let s = Store::open(&root).unwrap();
            assert_eq!(s.get(2), None, "cut at {cut}: the torn record is absent");
            for k in 0..2 {
                assert_eq!(s.get(k), Some(payload(k)), "cut at {cut}: key {k}");
            }
            assert_eq!(s.stats().corrupt_recovered, 0, "cut at {cut}: a torn tail is not corruption");
            assert_eq!(log_len(&root), last as u64, "cut at {cut}: the log ends on a record boundary");
        }
    }

    #[test]
    fn read_only_stores_see_writes_but_cannot_write() {
        let root = fresh("ro");
        let w = Store::open(&root).unwrap();
        w.put(9, b"visible").unwrap();
        let r = Store::open_read_only(&root);
        assert_eq!(r.get(9).as_deref(), Some(&b"visible"[..]));
        assert!(matches!(r.put(9, b"nope"), Err(StoreError::ReadOnly)));
    }

    #[test]
    fn a_read_only_view_sees_puts_made_after_it_opened() {
        let root = fresh("ro-catch-up");
        let w = Store::open(&root).unwrap();
        w.put(9, b"before").unwrap();
        let r = Store::open_read_only(&root);
        // The view's miss scans what the writer appended since it looked.
        w.put(10, b"later").unwrap();
        assert_eq!(r.get(10).as_deref(), Some(&b"later"[..]));
        assert_eq!((r.len(), r.stats().misses), (2, 0));
        // So does a view opened before the log existed.
        let root = fresh("ro-before-log");
        let r = Store::open_read_only(&root);
        Store::open(&root).unwrap().put(1, b"first").unwrap();
        assert_eq!(r.get(1).as_deref(), Some(&b"first"[..]));
    }

    #[test]
    fn a_read_only_view_never_hands_out_another_keys_record() {
        let root = fresh("ro-overwritten");
        let w = Store::open(&root).unwrap();
        let r = Arc::new(Store::open_read_only(&root));
        // The view looks while key 2's record is written but not synced,
        // then the sync fails and key 3's record takes its place.
        let view = Arc::clone(&r);
        let hook: FaultHook = Arc::new(move |stage, name| {
            (stage == FsStage::Sync && name == format!("{:016x}", 2)).then(|| {
                assert_eq!(view.get(2).as_deref(), Some(&b"two"[..]));
                FsFault::Eio
            })
        });
        let w = w.with_fault_hook(hook);
        assert!(w.put(2, b"two").is_err());
        w.put(3, b"3!!").unwrap();
        assert_eq!(r.get(2), None, "key 3's bytes are not key 2's entry");
        assert_eq!(r.get(3).as_deref(), Some(&b"3!!"[..]));
    }

    #[test]
    fn a_read_only_view_reads_up_to_a_torn_tail_and_cuts_nothing() {
        let root = fresh("ro-torn-tail");
        let w = Store::open(&root).unwrap();
        w.put(1, b"one").unwrap();
        w.put(2, b"two").unwrap();
        drop(w);
        let whole = log_len(&root);
        let log = OpenOptions::new().append(true).open(root.join(LOG)).unwrap();
        (&log).write_all(&MAGIC[..]).unwrap();
        let r = Store::open_read_only(&root);
        assert_eq!((r.get(1).as_deref(), r.get(2).as_deref()), (Some(&b"one"[..]), Some(&b"two"[..])));
        assert_eq!((r.total_bytes(), r.stats().corrupt_recovered), (whole, 0));
        assert_eq!(log_len(&root), whole + 4, "a view leaves the tail for the writer");
    }

    #[test]
    fn a_store_an_older_build_left_is_not_read() {
        let root = fresh("older-build");
        for dir in ["entries", "tmp"] {
            fs::create_dir_all(root.join(dir)).unwrap();
        }
        fs::write(root.join("entries").join(format!("{:016x}", 4)), b"old\0\0\0\0\0").unwrap();
        fs::write(root.join("tmp").join("0000000000000004.1.1"), b"torn").unwrap();
        fs::write(root.join("writer.lock"), "1\n").unwrap();
        // No migration: the old entry is a miss, recomputed and put again.
        let s = Store::open(&root).unwrap();
        assert_eq!((s.get(4), s.len()), (None, 0));
        s.put(4, b"new").unwrap();
        assert_eq!(s.get(4).as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn second_writer_is_locked_out_until_drop() {
        let root = fresh("two-writers");
        let a = Store::open(&root).unwrap();
        assert!(matches!(Store::open(&root), Err(StoreError::Locked)));
        drop(a);
        Store::open(&root).unwrap();
    }

    #[test]
    fn the_store_keeps_every_entry() {
        let s = Store::open(fresh("no-cap")).unwrap();
        for k in 0..64u64 {
            s.put(k, b"8 bytes!").unwrap();
        }
        // No size cap and no eviction: each entry is its payload plus
        // the header, and every one still reads back.
        assert_eq!(s.len(), 64);
        assert_eq!(s.total_bytes(), 64 * (8 + HEADER as u64));
        assert!((0..64).all(|k| s.get(k).as_deref() == Some(&b"8 bytes!"[..])));
        assert_eq!(s.stats().hits, 64);
    }

    #[test]
    fn a_hit_leaves_the_log_untouched() {
        let root = fresh("hit-is-a-read");
        let s = Store::open(&root).unwrap();
        s.put(5, b"cached reply").unwrap();
        let path = root.join(LOG);
        let hour_ago = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        File::options().append(true).open(&path).unwrap().set_modified(hour_ago).unwrap();
        let before = fs::metadata(&path).unwrap().modified().unwrap();
        // A writable store's hit is one read: no reopen, no timestamp write.
        assert_eq!(s.get(5).as_deref(), Some(&b"cached reply"[..]));
        assert_eq!(fs::metadata(&path).unwrap().modified().unwrap(), before);
    }

    #[test]
    fn injected_faults_surface_and_never_tear() {
        let root = fresh("inject");
        for (stage, fault) in [
            (FsStage::Write, FsFault::ShortWrite(27)),
            (FsStage::Write, FsFault::Eio),
            (FsStage::Sync, FsFault::Eio),
            (FsStage::Sync, FsFault::Crash),
        ] {
            let _ = fs::remove_dir_all(&root);
            let hook: FaultHook = Arc::new(move |st, name| {
                (st == stage && name == format!("{:016x}", 2)).then_some(fault)
            });
            let s = Store::open(&root).unwrap().with_fault_hook(hook);
            s.put(1, b"before").unwrap();
            assert!(matches!(s.put(2, b"doomed"), Err(StoreError::Injected { .. })));
            assert_eq!(s.get(2), None, "{stage:?}: failed put must not leave an entry");
            // The tracked end stayed at the last good record: the next
            // put lands right after it.
            s.put(3, b"after").unwrap();
            assert_eq!(log_len(&root), (2 * HEADER + 6 + 5) as u64, "{stage:?}");
            assert_eq!(s.get(3).as_deref(), Some(&b"after"[..]));
            assert_eq!(s.stats().corrupt_recovered, 0, "{stage:?}: nothing torn to read");
        }
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let root = fresh("atomic");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("doc.json");
        atomic_write(&path, b"{\"v\": 1}").unwrap();
        atomic_write(&path, b"{\"v\": 2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\": 2}");
        assert_eq!(fs::read_dir(&root).unwrap().count(), 1, "no tmp litter");
    }
}
