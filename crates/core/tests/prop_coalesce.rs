//! Property tests for loop coalescing (§4.2.4): for arbitrary nest
//! shapes and bounds, the flattened loop must enumerate exactly the
//! original iteration space — same values, every element written.

use proptest::prelude::*;

use cedar_restructure::{restructure, PassConfig, Technique};
use cedar_sim::MachineConfig;

/// Build a program with an `n1 × n2` nest whose cell value encodes the
/// exact (i, j) pair, offset by the loop lower bounds, with a short
/// serial recurrence so the body cannot vectorize (the coalescing gate
/// requires that).
fn nest_src(n1: i64, n2: i64, lo1: i64, lo2: i64) -> String {
    let hi1 = lo1 + n1 - 1;
    let hi2 = lo2 + n2 - 1;
    format!(
        "program p\nreal a({n2}, {n1}), t\ndo i = ({lo1}), ({hi1})\ndo j = ({lo2}), ({hi2})\n\
         t = real(i) * 1000.0 + real(j)\ndo k = 1, 3\nt = t + 0.0\nend do\n\
         a(j - ({lo2}) + 1, i - ({lo1}) + 1) = t\nend do\nend do\nend\n"
    )
}

fn check(n1: i64, n2: i64, lo1: i64, lo2: i64) {
    let src = nest_src(n1, n2, lo1, lo2);
    let program = cedar_ir::compile_free(&src).unwrap();
    let mut cfg = PassConfig::manual_improved();
    cfg.coalesce = true;
    let r = restructure(&program, &cfg);

    let coalesced = r.report.loops.iter().any(|l| l.techniques.contains(&Technique::Coalescing));
    // The gate: coalesce exactly when the outer trip under-fills the
    // machine while the product fills it.
    let expect = n1 < 32 && n1 * n2 >= 32;
    assert_eq!(
        coalesced, expect,
        "n1={n1} n2={n2}: coalesced={coalesced}, expected {expect}\n{}",
        r.report
    );

    let sim = cedar_sim::run(&r.program, MachineConfig::cedar_config1()).unwrap_or_else(|e| {
        panic!(
            "n1={n1} n2={n2} lo1={lo1} lo2={lo2}: {e}\n{}",
            cedar_ir::print::print_program(&r.program)
        )
    });
    let a = sim.read_f64("a").unwrap();
    assert_eq!(a.len(), (n1 * n2) as usize);
    // Column-major: a[(col-1)*n2 + (row-1)] with col = i-lo1+1, row = j-lo2+1.
    for i in 0..n1 {
        for j in 0..n2 {
            let want = ((lo1 + i) as f64) * 1000.0 + (lo2 + j) as f64;
            let got = a[(i * n2 + j) as usize];
            assert_eq!(got, want, "cell (i={}, j={})", lo1 + i, lo2 + j);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn coalesced_nests_enumerate_the_exact_product_space(
        n1 in 1i64..8,
        n2 in 1i64..80,
        lo1 in -3i64..5,
        lo2 in -3i64..5,
    ) {
        check(n1, n2, lo1, lo2);
    }
}

#[test]
fn boundary_shapes() {
    // Exactly at the machine size, just below, and a 1-wide outer.
    check(1, 32, 1, 1); // product exactly 32 → coalesce
    check(1, 31, 1, 1); // product 31 → no coalesce
    check(31, 2, 1, 1); // 31 < 32, product 62 → coalesce
    check(4, 8, 0, 0); // zero-based bounds
}
