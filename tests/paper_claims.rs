//! End-to-end assertions of the paper's headline claims — the
//! qualitative shapes of every table and figure, runnable as one test
//! target. (The experiment binaries print the full artifacts; these
//! tests pin the *orderings and crossovers* so regressions fail CI.)

use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;

fn speedup(w: &cedar_workloads::Workload, cfg: &PassConfig, mc: &MachineConfig) -> f64 {
    let (s, p) = cedar_experiments::pipeline::run_workload(w, cfg, mc);
    s.cycles / p.cycles
}

/// Table 1's stratification: the memory-pressure routines (`mprove`,
/// CG) exceed the machine's CE count; the mid-pack routines land in
/// single digits to tens; the recurrence-bound solvers barely move.
#[test]
fn table1_stratification() {
    use cedar_workloads::linalg::*;
    let mc = MachineConfig::cedar_config1_scaled();
    let cfg = PassConfig::automatic_1991();

    let s_mprove = speedup(&mprove(192), &cfg, &mc);
    let s_cg = speedup(&cg(184), &cfg, &mc);
    let s_ludcmp = speedup(&ludcmp(128), &cfg, &mc);
    let s_tridag = speedup(&tridag(512), &cfg, &mc);
    let s_toeplz = speedup(&toeplz(192), &cfg, &mc);

    assert!(s_mprove > 32.0, "mprove must beat the CE count: {s_mprove:.0}");
    assert!(s_cg > 32.0, "CG must beat the CE count: {s_cg:.0}");
    assert!(s_mprove > s_ludcmp && s_cg > s_ludcmp);
    assert!((2.0..32.0).contains(&s_ludcmp), "ludcmp is mid-pack: {s_ludcmp:.1}");
    assert!(s_tridag < 4.0, "tridag is recurrence-bound: {s_tridag:.1}");
    assert!(s_toeplz < 6.0, "toeplz is recurrence-bound: {s_toeplz:.1}");
}

/// Table 2's axis: the manual technique set beats the automatic one on
/// (nearly) every program, with QCD the known exception (the RNG cycle
/// serializes both).
#[test]
fn table2_manual_dominates_automatic() {
    let mc = MachineConfig::cedar_config1_scaled();
    let auto = PassConfig::automatic_1991();
    let manual = PassConfig::manual_improved();
    let mut improvements = Vec::new();
    for w in cedar_workloads::table2_workloads() {
        let a = speedup(&w, &auto, &mc);
        let m = speedup(&w, &manual, &mc);
        improvements.push(m / a);
        if w.name != "QCD" && w.name != "TRFD" {
            assert!(
                m >= a * 0.95,
                "{}: manual ({m:.2}) must not lose to automatic ({a:.2})",
                w.name
            );
        }
    }
    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    assert!(
        avg > 2.0,
        "average manual improvement must be substantial: {avg:.2} (paper: 17.2 on Cedar)"
    );
}

/// Figure 6: prefetch helps CG (long vectors, global data) far more
/// than TRFD (short vectors, privatized references).
#[test]
fn fig6_prefetch_ordering() {
    let bars = cedar_experiments::fig6::run();
    assert!(bars[0].gain > 1.5, "CG gain: {:.2}", bars[0].gain);
    assert!(bars[1].gain < bars[0].gain);
    assert!(bars[1].gain >= 1.0 && bars[1].gain < 1.5, "TRFD gain: {:.2}", bars[1].gain);
}

/// Figure 7: the expanded (global, extra-dimension) variant runs at a
/// fraction of the privatized variant's speed.
#[test]
fn fig7_expansion_penalty() {
    let f = cedar_experiments::fig7::run();
    assert!((0.2..0.9).contains(&f.expanded_relative), "{:.2}", f.expanded_relative);
}

/// Figure 8: global placement wins on one cluster and saturates; data
/// distribution scales near-linearly and crosses over.
#[test]
fn fig8_crossover() {
    let (series, _) = cedar_experiments::fig8::run();
    let g = &series[0].speeds;
    let d = &series[1].speeds;
    assert!(g[0] > 1.0 && g[0] > d[0]);
    assert!(d[3] > g[3], "distribution must win at 4 clusters");
}

/// Figure 9: fusing the outer loops helps, and helps more on Cedar than
/// on the FX/80 (SDOALL startup dominates).
#[test]
fn fig9_fusion_gain() {
    let ms = cedar_experiments::fig9::run();
    let fx = &ms[0];
    let cedar = &ms[1];
    assert!(cedar.c > cedar.b && cedar.b > cedar.a);
    assert!(
        cedar.c / cedar.b > fx.c / fx.b,
        "fusion gain must be larger on Cedar ({:.2}) than FX/80 ({:.2})",
        cedar.c / cedar.b,
        fx.c / fx.b
    );
}

/// The QCD footnote ladder (paper: 1.8 / 4.5 / 20.8): a critical
/// section around the RNG draw recovers part of the loss, and a
/// parallel generator turns the serialized ~1.4x into a large speedup.
#[test]
fn qcd_footnote_variants() {
    let (serial_rng, critical_rng, parallel_rng) = cedar_experiments::table2::qcd_footnote();
    assert!(
        critical_rng > 2.0 * serial_rng,
        "critical {critical_rng:.2} vs serialized {serial_rng:.2}"
    );
    assert!(
        parallel_rng > 2.0 * critical_rng,
        "parallel {parallel_rng:.2} vs critical {critical_rng:.2}"
    );
}

/// The paper's 58 cells exist once in effect: `benchmark/`'s frozen
/// transcription (which scores `paper_log_err`) and the tables the
/// experiments print beside their measurements hold the same numbers.
#[test]
fn the_frozen_transcription_equals_the_paper_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/reference/paper_tables.tsv");
    let text = std::fs::read_to_string(path).unwrap();
    let frozen: Vec<(String, f64)> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 4, "{path}: not four fields: {l}");
            (f[..3].join(" "), f[3].parse().unwrap_or_else(|e| panic!("{path}: {l}: {e}")))
        })
        .collect();
    let mut ours: Vec<(String, f64)> = cedar_experiments::table1::PAPER
        .iter()
        .map(|(name, _, v)| (format!("table1 {name} speedup"), *v))
        .collect();
    for (name, auto_fx, auto_cd, man_fx, man_cd) in cedar_experiments::table2::PAPER {
        let columns = ["auto_fx80", "auto_cedar", "manual_fx80", "manual_cedar"];
        for (column, v) in columns.iter().zip([auto_fx, auto_cd, man_fx, man_cd]) {
            ours.push((format!("table2 {name} {column}"), *v));
        }
    }
    assert_eq!((frozen.len(), ours.len()), (58, 58), "10 + 48 cells");
    if let Some((f, o)) = frozen.iter().zip(&ours).find(|(f, o)| f != o) {
        panic!("{path} says `{}` = {}, the experiments say `{}` = {}", f.0, f.1, o.0, o.1);
    }
}
