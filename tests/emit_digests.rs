//! Byte-identity of emission beyond the golden files.
//!
//! `tests/fixtures/emit_digests.txt` holds one FNV-1a-64 of the emitted
//! text per backend for 2000 generated programs under both pass
//! configurations and for the 22 paper workloads: 4 022 programs,
//! 12 066 emissions. This test recomputes them and names the first
//! program and backend whose bytes moved. The goldens show *what*
//! changed on 22 programs; this shows *that* nothing changed on the
//! shapes the goldens do not reach (every loop class, pre/postambles,
//! reductions of every operator, cascades, wrapped cards).
//!
//! Regenerate only from a commit whose `tests/golden` is untouched —
//! the fixture is the record of what the emitters printed there:
//!
//! ```text
//! UPDATE_EMIT_DIGESTS=1 cargo test --test emit_digests
//! ```

use cedar_fuzz::GenProgram;
use cedar_restructure::{restructure, BackendKind, EmitInput, PassConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const SEEDS: usize = 2000;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/emit_digests.txt")
}

/// `label cedar=<hex> openmp=<hex> serial=<hex>` for one program.
fn digest_line(label: &str, p: &cedar_ir::Program, cfg: &PassConfig) -> String {
    let r = restructure(p, cfg);
    let input = EmitInput { original: p, restructured: &r.program, report: &r.report };
    let mut line = String::from(label);
    for kind in BackendKind::all() {
        let text = kind.backend().emit(&input);
        let _ = write!(line, " {kind}={:016x}", cedar_store::fnv1a(text.as_bytes()));
    }
    line
}

fn digest_lines() -> Vec<String> {
    let configs = [
        ("automatic_1991", PassConfig::automatic_1991()),
        ("manual_improved", PassConfig::manual_improved()),
    ];
    let mut lines: Vec<String> = cedar_par::par_map_range(SEEDS, |seed| {
        let src = GenProgram::generate(seed as u64).render().source;
        let p = cedar_ir::compile_free(&src)
            .unwrap_or_else(|e| panic!("seed {seed} does not compile: {e}"));
        configs
            .iter()
            .map(|(name, cfg)| digest_line(&format!("seed {seed} {name}"), &p, cfg))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut pool = cedar_workloads::table1_workloads();
    pool.extend(cedar_workloads::table2_workloads());
    for w in pool {
        let label = format!("pool {} manual_improved", w.name);
        lines.push(digest_line(&label, &w.compile(), &configs[1].1));
    }
    lines
}

#[test]
fn emissions_match_the_recorded_digests() {
    let got = digest_lines();
    let path = fixture_path();
    if std::env::var("UPDATE_EMIT_DIGESTS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        println!("emit_digests: {} lines written to {}", got.len(), path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(want.len(), got.len(), "fixture has a different number of programs");
    for (w, g) in want.iter().zip(&got) {
        if w == g {
            continue;
        }
        let moved: Vec<&str> = w
            .split(' ')
            .zip(g.split(' '))
            .filter(|(a, b)| a != b)
            .map(|(_, b)| b.split('=').next().unwrap_or(b))
            .collect();
        panic!("emission bytes moved ({}):\n  recorded: {w}\n  emitted:  {g}", moved.join(", "));
    }
}
