//! Real `kill -9` durability test for `cedar-store`, in the style of
//! the campaign cluster tests: an actual child **process** (this test
//! binary re-executed with `CEDAR_STORE_KILL_CHILD` set) hammers a
//! store with durable writes until the parent sends it SIGKILL at an
//! arbitrary point, then the parent reopens the store and checks the
//! headline promise: every entry present after the kill is
//! byte-for-byte intact, the dead writer's lock went with it, and the
//! torn tail of the interrupted append is cut.

use cedar_store::{Store, StoreError};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Deterministic payload for a key — both processes can compute it, so
/// the parent knows exactly what any surviving entry must contain.
fn payload(key: u64) -> Vec<u8> {
    let len = 1 + (key as usize * 53) % 2048;
    (0..len).map(|i| ((key as usize).wrapping_mul(131).wrapping_add(i * 11) % 256) as u8).collect()
}

/// Child mode: write entries in a tight loop until killed. Runs as a
/// normal no-op test unless the parent set the env var to a store root.
#[test]
fn kill_child_writer_loop() {
    let Ok(root) = std::env::var("CEDAR_STORE_KILL_CHILD") else {
        return;
    };
    let store = Store::open(root).unwrap();
    // Overwrite a rotating window of keys forever: every instant of
    // this loop has an append or an fdatasync in flight.
    for i in 0u64.. {
        let key = i % 32;
        store.put(key, &payload(key)).unwrap();
    }
}

#[test]
fn sigkill_mid_write_never_corrupts_the_store() {
    let root = PathBuf::from("target/test-store-kill/sigkill");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(&exe)
        .arg("--exact")
        .arg("kill_child_writer_loop")
        .arg("--nocapture")
        .env("CEDAR_STORE_KILL_CHILD", &root)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait until the child has demonstrably written entries, then let
    // it run a little longer so the kill lands mid-stream.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if Store::open_read_only(&root).len() >= 8 {
            break;
        }
        assert!(Instant::now() < deadline, "child never produced entries");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        matches!(Store::open(&root), Err(StoreError::Locked)),
        "a second writer is refused while the child lives"
    );

    // SIGKILL: no destructors, no unlock, no cleanup. The kernel drops
    // the dead child's lock on the log, so the reopen does not wait.
    child.kill().unwrap();
    child.wait().unwrap();
    let store = Store::open(&root).unwrap();

    // Every surviving entry is byte-for-byte what the child computed —
    // absent-or-intact, never torn.
    let mut present = 0;
    for key in 0u64..32 {
        match store.get(key) {
            None => {}
            Some(got) => {
                assert_eq!(got, payload(key), "torn entry for key {key} after SIGKILL");
                present += 1;
            }
        }
    }
    assert!(present >= 8, "the verified pre-kill entries must still read back");
    assert_eq!(store.stats().corrupt_recovered, 0, "nothing may verify as torn");
    assert_eq!(
        std::fs::metadata(root.join("log")).unwrap().len(),
        store.total_bytes(),
        "reopen must cut the interrupted append's torn tail"
    );

    // And the reopened store still writes: self-heal by recomputation.
    store.put(99, &payload(99)).unwrap();
    assert_eq!(store.get(99), Some(payload(99)));
}
