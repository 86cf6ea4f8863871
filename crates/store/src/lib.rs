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
//! * **Atomic writes.** [`Store::put`] writes `payload + trailer` to a
//!   private file under `tmp/`, fsyncs it, and `rename(2)`s it onto
//!   `entries/<key>`. POSIX rename is atomic: the entry path only ever
//!   points at nothing or at a complete file. Leftover tmp files from
//!   a crash are swept on the next writable [`Store::open`].
//! * **Checksum trailer.** Every entry ends with 24 bytes: payload
//!   length, FNV-1a checksum of the payload, and a format magic.
//!   [`Store::get`] verifies all three; any mismatch (torn page,
//!   bit rot, truncation that somehow survived the atomic rename —
//!   e.g. a partially-synced tmp file renamed by a pre-crash kernel)
//!   quarantines the file under `corrupt/` and reports a miss, so the
//!   caller recomputes and the next put replaces the entry.
//! * **Single writer, many readers.** A writable store holds a PID
//!   lock file ([`lock`]-module semantics, stale locks from dead
//!   processes are reclaimed); read-only stores never lock. Readers
//!   race only with atomic renames and unlinks — either outcome is a
//!   complete entry or a miss.
//!
//! Fault injection: every syscall in the durable-write sequence asks
//! an optional [`FaultHook`] first ([`faults`]), which is how the
//! seeded `CEDAR_CHAOS` fs lane drives the whole crash matrix
//! deterministically in tests.

#![warn(missing_docs)]

pub mod faults;
mod lock;

pub use faults::{FaultHook, FsFault, FsStage};

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Trailing format magic; also the version tag of the entry layout.
const MAGIC: &[u8; 8] = b"cedarst1";
/// Trailer size: payload length (8) + FNV-1a checksum (8) + magic (8).
const TRAILER: usize = 24;

/// FNV-1a over raw bytes: the entry checksum, and the workspace's one
/// copy of the digest for the crates above the store — the campaign
/// journal's shard checksums and the crash-bundle directory names are
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
        /// Which operation (`"write"`, `"rename"`, ...).
        op: &'static str,
        /// The path it targeted.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// Another live process holds the writer lock.
    Locked {
        /// PID (or description) of the holder.
        holder: String,
    },
    /// `put` on a store opened with [`Store::open_read_only`].
    ReadOnly,
    /// An injected fault fired at this durable-write stage.
    Injected {
        /// The stage tag (`"write"`, `"sync"`, `"rename"`, `"dir-sync"`).
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
            StoreError::Locked { holder } => {
                write!(f, "store is locked by another writer (pid {holder})")
            }
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
    /// Reads that found a torn/corrupt entry, quarantined it, and
    /// reported a miss (the self-heal path).
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

/// A content-addressed store rooted at one directory.
///
/// Thread-safe: `get` is lock-free (entry files are immutable), `put`
/// serializes in-process through an internal mutex and cross-process
/// through the writer lock file.
pub struct Store {
    root: PathBuf,
    hook: Option<FaultHook>,
    counters: Counters,
    /// In-process writer serialization; the value is the tmp-name nonce.
    writer: Option<Mutex<u64>>,
    _lock: Option<lock::LockGuard>,
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
    /// Open (creating if necessary) a writable store at `root`,
    /// acquiring the writer lock and sweeping tmp litter from any
    /// previous crash.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        for sub in ["entries", "tmp", "corrupt"] {
            let d = root.join(sub);
            fs::create_dir_all(&d).map_err(|e| StoreError::io("create-dir", &d, e))?;
        }
        let guard = lock::acquire(&root)?;
        // A crash leaves at most tmp files behind; none is referenced
        // by an entry path, so sweeping them is always safe.
        let tmp = root.join("tmp");
        if let Ok(dirents) = fs::read_dir(&tmp) {
            for ent in dirents.flatten() {
                let _ = fs::remove_file(ent.path());
            }
        }
        Ok(Store {
            root,
            hook: None,
            counters: Counters::default(),
            writer: Some(Mutex::new(0)),
            _lock: Some(guard),
        })
    }

    /// Open a read-only view: no lock, no tmp sweep, `put` refused. A
    /// corrupt entry found by a read-only store is reported as a miss
    /// but left in place for the writer to quarantine.
    pub fn open_read_only(root: impl Into<PathBuf>) -> Store {
        Store {
            root: root.into(),
            hook: None,
            counters: Counters::default(),
            writer: None,
            _lock: None,
        }
    }

    /// Install a fault hook consulted before every durable-write
    /// syscall (the `CEDAR_CHAOS` fs lane plugs in here).
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

    fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join("entries").join(format!("{key:016x}"))
    }

    /// Read and verify an entry. `None` is a miss — including the
    /// corrupt case, where the torn file has been quarantined under
    /// `corrupt/` and the caller is expected to recompute.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match verify(&bytes) {
            Some(payload_len) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                let mut bytes = bytes;
                bytes.truncate(payload_len);
                Some(bytes)
            }
            None => {
                self.quarantine(key, &path);
                None
            }
        }
    }

    /// Move a torn/corrupt entry out of the reader's way (writable
    /// stores only) and count the recovery.
    fn quarantine(&self, key: u64, path: &Path) {
        self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
        if self.writer.is_none() {
            return;
        }
        for n in 0.. {
            let dest = self.root.join("corrupt").join(format!("{key:016x}.{n}"));
            if dest.exists() {
                continue;
            }
            let _ = fs::rename(path, &dest);
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

    /// Durably write `payload` under `key`, replacing any existing
    /// entry. On error — real or injected — the store is unchanged
    /// except possibly for tmp litter (swept at next open) and the
    /// promise holds: the entry is the old version, the new version,
    /// or absent, never torn.
    pub fn put(&self, key: u64, payload: &[u8]) -> Result<(), StoreError> {
        let writer = self.writer.as_ref().ok_or(StoreError::ReadOnly)?;
        let name = format!("{key:016x}");
        let mut full = Vec::with_capacity(payload.len() + TRAILER);
        full.extend_from_slice(payload);
        full.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        full.extend_from_slice(&fnv1a(payload).to_le_bytes());
        full.extend_from_slice(MAGIC);

        let mut nonce = writer.lock().unwrap();
        *nonce += 1;
        let tmp = self.root.join("tmp").join(format!("{name}.{}.{}", std::process::id(), *nonce));

        // Stage 1: write the tmp file.
        match self.fault(FsStage::Write, &name) {
            Some(FsFault::ShortWrite(n)) => {
                // The torn prefix persists — exactly what a crash
                // mid-write leaves. It lives in tmp/, unreferenced.
                let _ = fs::write(&tmp, &full[..n.min(full.len())]);
                return Err(StoreError::Injected { stage: "write" });
            }
            Some(_) => {
                let _ = fs::write(&tmp, b"");
                return Err(StoreError::Injected { stage: "write" });
            }
            None => {}
        }
        let mut f = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp)
            .map_err(|e| StoreError::io("create", &tmp, e))?;
        f.write_all(&full).map_err(|e| StoreError::io("write", &tmp, e))?;

        // Stage 2: fsync the tmp file so the rename can't outrun its
        // contents.
        if self.fault(FsStage::Sync, &name).is_some() {
            return Err(StoreError::Injected { stage: "sync" });
        }
        f.sync_all().map_err(|e| StoreError::io("sync", &tmp, e))?;
        drop(f);

        // Stage 3: the atomic rename. The crash window lives here —
        // an injected Crash leaves a complete synced tmp file but no
        // entry, which is what dying between sync and rename looks
        // like.
        if self.fault(FsStage::Rename, &name).is_some() {
            return Err(StoreError::Injected { stage: "rename" });
        }
        let dest = self.entry_path(key);
        fs::rename(&tmp, &dest).map_err(|e| StoreError::io("rename", &tmp, e))?;

        // Stage 4: fsync the directory so the rename itself is
        // durable. An injected fault here still leaves an intact
        // entry in this process's view — the caller may retry the put,
        // which is idempotent.
        if self.fault(FsStage::DirSync, &name).is_some() {
            return Err(StoreError::Injected { stage: "dir-sync" });
        }
        if let Ok(d) = File::open(self.root.join("entries")) {
            let _ = d.sync_all();
        }
        self.counters.puts.fetch_add(1, Ordering::Relaxed);
        drop(nonce);
        Ok(())
    }

    /// Total bytes of entry files currently on disk.
    pub fn total_bytes(&self) -> u64 {
        let mut sum = 0;
        if let Ok(dirents) = fs::read_dir(self.root.join("entries")) {
            for ent in dirents.flatten() {
                if let Ok(meta) = ent.metadata() {
                    sum += meta.len();
                }
            }
        }
        sum
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        fs::read_dir(self.root.join("entries")).map(|d| d.flatten().count()).unwrap_or(0)
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Validate `payload + trailer` layout; returns the payload length of
/// a well-formed entry.
fn verify(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < TRAILER {
        return None;
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - TRAILER);
    if &trailer[16..24] != MAGIC {
        return None;
    }
    let len = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
    if len != payload.len() as u64 {
        return None;
    }
    let sum = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
    (fnv1a(payload) == sum).then_some(payload.len())
}

/// Write `bytes` to `path` atomically: private tmp file in the same
/// directory, fsync, rename. Callers elsewhere in the workspace use
/// this for documents that must never be read torn (merged campaign
/// reports, compacted journals) without adopting the full store.
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
    fn corrupt_entries_are_quarantined_and_selfheal() {
        let root = fresh("corrupt");
        let s = Store::open(&root).unwrap();
        s.put(7, b"the truth").unwrap();
        // Flip a payload byte behind the store's back.
        let path = root.join("entries").join(format!("{:016x}", 7u64));
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.get(7), None, "corrupt entry must read as a miss");
        assert_eq!(s.stats().corrupt_recovered, 1);
        assert!(
            root.join("corrupt").join(format!("{:016x}.0", 7u64)).exists(),
            "torn file must be quarantined, not destroyed"
        );
        // Self-heal: recompute, re-put, read back.
        s.put(7, b"the truth").unwrap();
        assert_eq!(s.get(7).as_deref(), Some(&b"the truth"[..]));
    }

    #[test]
    fn truncations_at_every_length_never_return_torn_bytes() {
        let root = fresh("truncate");
        let s = Store::open(&root).unwrap();
        let payload = b"a payload long enough to truncate interestingly".to_vec();
        let path = root.join("entries").join(format!("{:016x}", 3u64));
        s.put(3, &payload).unwrap();
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            match s.get(3) {
                None => {}
                Some(got) => panic!("torn read at cut {cut}: {got:?}"),
            }
            // Restore for the next cut (get() quarantined the file).
            fs::write(&path, &full).unwrap();
        }
        assert_eq!(s.get(3), Some(payload));
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
    fn second_writer_is_locked_out_until_drop() {
        let root = fresh("two-writers");
        let a = Store::open(&root).unwrap();
        assert!(matches!(Store::open(&root), Err(StoreError::Locked { .. })));
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
        // the trailer, and every one still reads back.
        assert_eq!(s.len(), 64);
        assert_eq!(s.total_bytes(), 64 * (8 + TRAILER as u64));
        assert!((0..64).all(|k| s.get(k).as_deref() == Some(&b"8 bytes!"[..])));
        assert_eq!(s.stats().hits, 64);
    }

    #[test]
    fn a_hit_leaves_the_entry_file_untouched() {
        let root = fresh("hit-is-a-read");
        let s = Store::open(&root).unwrap();
        s.put(5, b"cached reply").unwrap();
        let path = root.join("entries").join(format!("{:016x}", 5u64));
        let hour_ago = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        File::options().append(true).open(&path).unwrap().set_modified(hour_ago).unwrap();
        let before = fs::metadata(&path).unwrap().modified().unwrap();
        // A writable store's hit is one read: no reopen, no timestamp write.
        assert_eq!(s.get(5).as_deref(), Some(&b"cached reply"[..]));
        assert_eq!(fs::metadata(&path).unwrap().modified().unwrap(), before);
    }

    #[test]
    fn tmp_litter_is_swept_on_reopen() {
        let root = fresh("sweep");
        {
            let s = Store::open(&root).unwrap();
            s.put(1, b"ok").unwrap();
        }
        fs::write(root.join("tmp").join("deadbeef.1.1"), b"torn").unwrap();
        let s = Store::open(&root).unwrap();
        assert_eq!(fs::read_dir(root.join("tmp")).unwrap().count(), 0);
        assert_eq!(s.get(1).as_deref(), Some(&b"ok"[..]));
    }

    #[test]
    fn injected_faults_surface_and_never_tear() {
        let root = fresh("inject");
        for (stage, fault) in [
            (FsStage::Write, FsFault::ShortWrite(5)),
            (FsStage::Write, FsFault::Eio),
            (FsStage::Sync, FsFault::Eio),
            (FsStage::Rename, FsFault::Crash),
        ] {
            let _ = fs::remove_dir_all(&root);
            let hook: FaultHook = Arc::new(move |st, _| (st == stage).then_some(fault));
            let s = Store::open(&root).unwrap().with_fault_hook(hook);
            assert!(matches!(s.put(2, b"doomed"), Err(StoreError::Injected { .. })));
            assert_eq!(s.get(2), None, "{stage:?}: failed put must not leave an entry");
            assert_eq!(s.stats().corrupt_recovered, 0, "{stage:?}: nothing torn to read");
        }
        // DirSync fault: the entry is already durable in this process's
        // view — present and intact despite the error.
        let _ = fs::remove_dir_all(&root);
        let hook: FaultHook = Arc::new(|st, _| (st == FsStage::DirSync).then_some(FsFault::Eio));
        let s = Store::open(&root).unwrap().with_fault_hook(hook);
        assert!(matches!(s.put(2, b"durable"), Err(StoreError::Injected { stage: "dir-sync" })));
        assert_eq!(s.get(2).as_deref(), Some(&b"durable"[..]));
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
