//! Pass-pipeline refactor regression gate.
//!
//! The driver was split from one monolithic `driver.rs` into an explicit
//! pass pipeline (`crates/core/src/passes/`). These fixtures were
//! captured from the pre-refactor driver on the pinned `tests/corpus/`
//! seeds: the restructured emission and the decision `Report` must both
//! stay byte-identical across the split, for every preset config.
//!
//! `UPDATE_GOLDEN=1 cargo test --test driver_pipeline` regenerates the
//! fixtures — only do that for an intentional behavior change, and say
//! so in the commit message.

use cedar_ir::print::print_program;
use cedar_restructure::{restructure, PassConfig};
use std::fs;
use std::path::PathBuf;

const REPORT_MARKER: &str = "=== REPORT ===\n";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn configs() -> Vec<(&'static str, PassConfig)> {
    vec![("auto", PassConfig::automatic_1991()), ("manual", PassConfig::manual_improved())]
}

#[test]
fn pipeline_matches_prerefactor_fixtures_on_pinned_corpus() {
    let corpus = repo_root().join("tests/corpus");
    let fixtures = repo_root().join("tests/fixtures/driver_pipeline");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        fs::create_dir_all(&fixtures).unwrap();
    }

    let mut entries: Vec<PathBuf> = fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "f"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 8, "pinned corpus shrank to {}", entries.len());

    let mut checked = 0usize;
    for path in &entries {
        let src = fs::read_to_string(path).unwrap();
        let program = cedar_ir::compile_free(&src)
            .unwrap_or_else(|e| panic!("{} no longer compiles: {e}", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        for (tag, cfg) in configs() {
            let result = restructure(&program, &cfg);
            let snap =
                format!("{}{REPORT_MARKER}{}", print_program(&result.program), result.report);
            let fixture = fixtures.join(format!("{stem}.{tag}.snap"));
            if update {
                fs::write(&fixture, &snap).unwrap();
            } else {
                let want = fs::read_to_string(&fixture).unwrap_or_else(|e| {
                    panic!(
                        "missing fixture {} ({e}); run with UPDATE_GOLDEN=1 to capture",
                        fixture.display()
                    )
                });
                assert_eq!(
                    snap, want,
                    "driver output drifted from the pre-refactor fixture for {stem} ({tag})"
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 16, "expected >= 16 fixture comparisons, did {checked}");
}
