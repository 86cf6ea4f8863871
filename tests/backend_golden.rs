//! Golden-file suite: every workload's emission through every backend.
//!
//! For each of the 22 paper workloads and each [`BackendKind`], the
//! restructurer runs under the paper's tuned configuration and the
//! emission is compared byte-for-byte against
//! `tests/golden/<workload>.expected.<backend>.f`. Any intentional
//! change to a pass or an emitter shows up here as a reviewable diff.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test backend_golden
//! ```
//!
//! A second test guards the directory itself: every file present must
//! correspond to a live (workload, backend) pair, so renaming a
//! workload cannot leave stale snapshots behind.

use cedar_restructure::{emit_with, BackendKind, PassConfig};
use cedar_workloads::Workload;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn workloads() -> Vec<Workload> {
    let mut w = cedar_workloads::table1_workloads();
    w.extend(cedar_workloads::table2_workloads());
    w
}

fn golden_name(workload: &str, backend: BackendKind) -> String {
    format!("{workload}.expected.{}.f", backend.name())
}

fn updating() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// First differing line of two texts, for a readable failure message.
fn first_line_diff(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("first difference at line {}:\n  golden: {w}\n  emitted: {g}", i + 1);
        }
    }
    format!(
        "line counts differ: golden {} vs emitted {}",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn workload_emissions_match_goldens() {
    let dir = golden_dir();
    if updating() {
        fs::create_dir_all(&dir).unwrap();
    }
    let mut mismatches = Vec::new();
    let mut updated = 0usize;
    for w in workloads() {
        let p = w.compile();
        for kind in BackendKind::all() {
            let (emitted, _) = emit_with(kind, &p, &PassConfig::manual_improved());
            let path = dir.join(golden_name(w.name, kind));
            if updating() {
                let stale = fs::read_to_string(&path).map(|t| t != emitted).unwrap_or(true);
                if stale {
                    fs::write(&path, &emitted).unwrap();
                    updated += 1;
                }
                continue;
            }
            match fs::read_to_string(&path) {
                Ok(want) if want == emitted => {}
                Ok(want) => mismatches.push(format!(
                    "{}/{}: {}",
                    w.name,
                    kind,
                    first_line_diff(&want, &emitted)
                )),
                Err(_) => mismatches.push(format!(
                    "{}/{}: golden file {} missing",
                    w.name,
                    kind,
                    path.display()
                )),
            }
        }
    }
    if updating() {
        println!("golden: {updated} file(s) rewritten");
        return;
    }
    assert!(
        mismatches.is_empty(),
        "{} emission(s) drifted from their goldens — inspect the diffs and, if \
         intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test backend_golden:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn golden_directory_has_no_strays() {
    let expected: BTreeSet<String> = workloads()
        .iter()
        .flat_map(|w| BackendKind::all().map(|k| golden_name(w.name, k)))
        .collect();
    let present: BTreeSet<String> = fs::read_dir(golden_dir())
        .expect("tests/golden exists (run UPDATE_GOLDEN=1 once to seed it)")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let strays: Vec<&String> = present.difference(&expected).collect();
    assert!(
        strays.is_empty(),
        "stale files in tests/golden (workload renamed or backend removed?): {strays:?}"
    );
    assert_eq!(present.len(), expected.len(), "expected one golden per workload per backend");
}

#[test]
fn goldens_reparse_through_the_front_end() {
    // Every checked-in snapshot must remain legal input to the compiler;
    // this catches a hand-edited golden as well as an emitter regression.
    for w in workloads() {
        for kind in BackendKind::all() {
            let path = golden_dir().join(golden_name(w.name, kind));
            let Ok(text) = fs::read_to_string(&path) else {
                continue; // the mismatch test already reports missing files
            };
            cedar_ir::compile_source(&text)
                .unwrap_or_else(|e| panic!("golden {} does not re-parse: {e}", path.display()));
        }
    }
}
