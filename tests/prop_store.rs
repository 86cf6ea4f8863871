//! Durability property tests for `cedar-store` (DESIGN.md §15.5).
//!
//! The store's one promise: a write interrupted at **any** fault point
//! — short write, failed append, failed `fdatasync`, a crash between
//! the append and the sync — leaves the store readable and the entry
//! absent, old or new, never torn. These tests walk the complete fault
//! matrix exhaustively, then let the seeded `chaos::fs` lane drive
//! randomized multi-put histories over it.

use cedar_experiments::chaos;
use cedar_store::{FaultHook, FsFault, FsStage, Store, StoreError};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(format!("target/test-prop-store/{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic payload for a key, so any process can recompute what
/// an entry must contain.
fn payload(key: u64) -> Vec<u8> {
    let len = 1 + (key as usize * 37) % 300;
    (0..len).map(|i| ((key as usize).wrapping_mul(31).wrapping_add(i * 7) % 256) as u8).collect()
}

/// The log ends on a record boundary: every byte of it belongs to a
/// whole record the writable `store` indexed.
fn ends_on_a_record(root: &Path, store: &Store) -> bool {
    std::fs::metadata(root.join("log")).unwrap().len() == store.total_bytes()
}

/// After an interrupted put of `key`, the store must be readable and
/// the entry absent or one of `expect` — and the invariant must survive
/// a reopen (the "restart after the crash" view).
fn assert_never_torn(root: &Path, key: u64, expect: &[&[u8]], probe: u64) {
    for pass in 0..2 {
        let store = if pass == 0 {
            Store::open_read_only(root)
        } else {
            // A writable reopen also cuts any torn tail.
            Store::open(root).unwrap()
        };
        if let Some(got) = store.get(key) {
            assert!(expect.contains(&&got[..]), "pass {pass}: torn entry for key {key:#x}");
        }
        assert_eq!(
            store.stats().corrupt_recovered,
            0,
            "pass {pass}: an interrupted put must never leave bytes that *look* torn"
        );
        // Unrelated entries stay readable.
        assert_eq!(store.get(probe).as_deref(), Some(&payload(probe)[..]), "pass {pass}");
        if pass == 1 {
            assert!(ends_on_a_record(root, &store), "reopen must cut the torn tail");
        }
    }
}

/// The complete single-fault matrix: every stage crossed with every
/// fault shape, including the crash window (Crash at Sync: the record
/// is whole in the log, its sync never happens).
#[test]
fn every_fault_point_leaves_the_entry_absent_or_intact() {
    const PROBE: u64 = 0xaaaa;
    const KEY: u64 = 0x51;
    let body = payload(KEY);
    for stage in FsStage::ALL {
        for fault in [FsFault::ShortWrite(0), FsFault::ShortWrite(9), FsFault::Eio, FsFault::Crash]
        {
            let root = fresh_dir(&format!("matrix-{}-{fault:?}", stage.tag()));
            // Seed the probe entry on a clean store (the hook below is
            // keyed only by stage and would fault the probe put too),
            // then attempt the doomed put under the fault.
            let outcome = {
                let store = Store::open(root.clone()).unwrap();
                store.put(PROBE, &payload(PROBE)).unwrap();
                drop(store);
                let hook: FaultHook = Arc::new(move |st, _| (st == stage).then_some(fault));
                let store = Store::open(root.clone()).unwrap().with_fault_hook(hook);
                store.put(KEY, &body)
            };
            assert!(
                matches!(outcome, Err(StoreError::Injected { .. })),
                "{stage:?}/{fault:?}: the injected fault must surface"
            );
            assert_never_torn(&root, KEY, &[&body], PROBE);
        }
    }
}

/// An interrupted **overwrite** must leave the old value or the new
/// one, never torn bytes — and this process, whose index never learned
/// the new record, the old one.
#[test]
fn interrupted_overwrite_is_old_or_new_never_torn() {
    const PROBE: u64 = 0xbbbb;
    for stage in FsStage::ALL {
        let root = fresh_dir(&format!("overwrite-{}", stage.tag()));
        let store = Store::open(root.clone()).unwrap();
        store.put(PROBE, &payload(PROBE)).unwrap();
        store.put(7, b"old value").unwrap();
        drop(store);
        let hook: FaultHook = Arc::new(move |st, _| (st == stage).then_some(FsFault::Crash));
        let store = Store::open(root.clone()).unwrap().with_fault_hook(hook);
        assert!(store.put(7, b"new value").is_err());
        assert_eq!(
            store.get(7).as_deref(),
            Some(&b"old value"[..]),
            "{stage:?}: a failed overwrite must leave the old entry"
        );
        drop(store);
        assert_never_torn(&root, 7, &[b"old value", b"new value"], PROBE);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized histories under the seeded chaos fs lane: a batch of
    /// puts where the lane decides which writes fail and how. Whatever
    /// the interleaving of successes and injected faults, every key
    /// reads back absent-or-intact, a restart sees the same, and a
    /// clean retry of the failed puts heals the store completely.
    #[test]
    fn chaotic_put_histories_never_tear(seed in 0u64..5000, keys in prop::collection::vec(0u64..64, 1..20)) {
        let root = fresh_dir(&format!("chaos-{seed}"));
        let store = Store::open(root.clone()).unwrap().with_fault_hook(chaos::fs::hook(seed));
        let mut failed: Vec<u64> = Vec::new();
        for &k in &keys {
            match store.put(k, &payload(k)) {
                Ok(()) => {
                    // The fs lane is pure: a successful put means no
                    // stage drew a fault for this entry name.
                    prop_assert_eq!(store.get(k), Some(payload(k)));
                }
                Err(StoreError::Injected { .. }) => {
                    if let Some(got) = store.get(k) {
                        prop_assert_eq!(got, payload(k));
                    }
                    failed.push(k);
                }
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }
        }
        prop_assert_eq!(store.stats().corrupt_recovered, 0);
        drop(store);

        // Restart: reopen without faults; nothing is torn, the log ends
        // on a record, and retrying the failed puts heals every key.
        let store = Store::open(root.clone()).unwrap();
        prop_assert!(ends_on_a_record(&root, &store));
        for &k in &keys {
            if let Some(got) = store.get(k) {
                prop_assert_eq!(got, payload(k), "torn entry after restart");
            }
        }
        for &k in &failed {
            store.put(k, &payload(k)).unwrap();
        }
        for &k in &keys {
            prop_assert_eq!(store.get(k), Some(payload(k)));
        }
        prop_assert_eq!(store.stats().corrupt_recovered, 0);
    }
}
