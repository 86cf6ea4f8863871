//! Property test: any single-statement accumulation chain over a scalar
//! target — `t = t + x - y + z`, `t = t * x / y`, with the target at an
//! arbitrary (positive/numerator) position — must be recognized as a
//! reduction, parallelized, and still compute the same value as the
//! serial loop.
//!
//! This fuzzes the chain-flattening matcher in
//! `cedar_analysis::reduction` together with the library-substitution
//! and partial-accumulator rewrites in the driver.

use proptest::prelude::*;

use cedar_restructure::{restructure, LoopDecision, PassConfig};
use cedar_sim::MachineConfig;

const SUM_LEAVES: &[&str] = &["A(I)", "B(I)", "C(I)", "0.25", "A(I) * B(I)"];
const MUL_LEAVES: &[&str] =
    &["(1.0 + 0.0001 * A(I))", "(1.0 + 0.00005 * B(I))", "(1.0 - 0.0001 * C(I))"];

/// Build `t = <chain>` with the target inserted at `tpos` (always joined
/// by the positive operator so the chain is a legal reduction).
fn build_chain(leaf_idx: &[usize], neg: &[bool], tpos: usize, product: bool) -> String {
    let leaves: &[&str] = if product { MUL_LEAVES } else { SUM_LEAVES };
    let (op_pos, op_neg) = if product { ("*", "/") } else { ("+", "-") };
    let mut terms: Vec<(String, bool)> = leaf_idx
        .iter()
        .zip(neg)
        .map(|(&k, &n)| (leaves[k % leaves.len()].to_string(), n))
        .collect();
    let tpos = tpos % (terms.len() + 1);
    terms.insert(tpos, ("T".to_string(), false));
    let mut s = String::new();
    for (k, (leaf, n)) in terms.iter().enumerate() {
        if k == 0 {
            // A leading negation would make the first leaf `-x`, which
            // our chains never produce from Fortran source; fold it in
            // by starting `0 - x` instead.
            if *n {
                s.push_str("0.0 ");
                s.push_str(op_neg);
                s.push(' ');
            }
            s.push_str(leaf);
        } else {
            s.push(' ');
            s.push_str(if *n { op_neg } else { op_pos });
            s.push(' ');
            s.push_str(leaf);
        }
    }
    s
}

fn source(chain: &str, init: f64) -> String {
    format!(
        "\n      PROGRAM PCHAIN\n      PARAMETER (N = 192)\n      REAL A(N), B(N), C(N), T\n      DO 10 I = 1, N\n        A(I) = 0.5 + 0.001 * REAL(I)\n        B(I) = 1.0 + 0.0005 * REAL(I)\n        C(I) = 2.0 - 0.001 * REAL(I)\n   10 CONTINUE\n      T = {init:.1}\n      DO 20 I = 1, N\n        T = {chain}\n   20 CONTINUE\n      END\n"
    )
}

fn check_equivalent(chain: &str, init: f64) {
    let src = source(chain, init);
    let program = cedar_ir::compile_source(&src)
        .unwrap_or_else(|e| panic!("compile failed for `{chain}`: {e}"));
    let serial =
        cedar_sim::run(&program, MachineConfig::cedar_config1_scaled()).expect("serial run");

    let r = restructure(&program, &PassConfig::manual_improved());
    // The accumulation loop is the one at source line 11 (1-based data
    // line of `DO 20`); it must not have stayed serial.
    let rec = r
        .report
        .loops
        .iter()
        .filter(|l| l.unit == "pchain")
        .find(|l| l.span.line >= 10)
        .unwrap_or_else(|| panic!("no record for accumulation loop of `{chain}`"));
    assert!(
        !matches!(rec.decision, LoopDecision::Serial { .. }),
        "`t = {chain}` stayed serial: {:?}",
        rec.decision
    );

    let par =
        cedar_sim::run(&r.program, MachineConfig::cedar_config1_scaled()).unwrap_or_else(|e| {
            panic!(
                "restructured run failed for `{chain}`: {e}\n{}",
                cedar_ir::print::print_program(&r.program)
            )
        });
    let a = serial.read_f64("t").unwrap()[0];
    let b = par.read_f64("t").unwrap()[0];
    assert!(
        (a - b).abs() <= 1e-3 * a.abs().max(1.0),
        "`t = {chain}`: serial {a} vs restructured {b}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sum_chains_parallelize_and_agree(
        leaf_idx in prop::collection::vec(0usize..5, 1..5),
        neg in prop::collection::vec(any::<bool>(), 4),
        tpos in 0usize..5,
    ) {
        // Constant-only chains (every leaf is `0.25`) are legitimately
        // left serial by the profitability gate; keep at least one
        // array leaf so the reduction is always worth parallelizing.
        let mut leaf_idx = leaf_idx;
        if leaf_idx.iter().all(|&k| k % SUM_LEAVES.len() == 3) {
            leaf_idx[0] = 0;
        }
        let chain = build_chain(&leaf_idx, &neg[..leaf_idx.len()], tpos, false);
        check_equivalent(&chain, 0.0);
    }

    #[test]
    fn product_chains_parallelize_and_agree(
        leaf_idx in prop::collection::vec(0usize..3, 1..4),
        neg in prop::collection::vec(any::<bool>(), 3),
        tpos in 0usize..4,
    ) {
        let chain = build_chain(&leaf_idx, &neg[..leaf_idx.len()], tpos, true);
        check_equivalent(&chain, 1.0);
    }
}

/// Promoted from `prop_reduction_chains.proptest-regressions`
/// (cc `2d204523…`, shrunk to `leaf_idx = [3, 3]`, all-positive,
/// `tpos = 3`): a constant-heavy sum chain that the profitability gate
/// used to leave serial. Replaying the exact proptest body — including
/// the constant-leaf guard that rewrites `[3, 3]` to `[0, 3]` — as a
/// named test keeps the historical find alive even if the seed file is
/// pruned or proptest's replay order changes.
#[test]
fn regression_constant_heavy_sum_chain_with_leading_target() {
    let mut leaf_idx = vec![3usize, 3];
    let neg = [false, false, false, false];
    let tpos = 3usize;
    if leaf_idx.iter().all(|&k| k % SUM_LEAVES.len() == 3) {
        leaf_idx[0] = 0;
    }
    let chain = build_chain(&leaf_idx, &neg[..leaf_idx.len()], tpos, false);
    // tpos wraps modulo (terms + 1): 3 % 3 = 0, so the target leads.
    assert_eq!(chain, "T + A(I) + 0.25");
    check_equivalent(&chain, 0.0);
    // The raw shrunk input (before the guard) is the all-constant chain
    // `T + 0.25 + 0.25`; it is legitimately left serial, so assert only
    // that the pipeline handles it without diverging — not that it
    // parallelizes.
    let src = source("T + 0.25 + 0.25", 0.0);
    let program = cedar_ir::compile_source(&src).expect("compile");
    let serial = cedar_sim::run(&program, MachineConfig::cedar_config1_scaled()).unwrap();
    let r = restructure(&program, &PassConfig::manual_improved());
    let par = cedar_sim::run(&r.program, MachineConfig::cedar_config1_scaled()).unwrap();
    assert_eq!(
        serial.read_f64("t").unwrap()[0].to_bits(),
        par.read_f64("t").unwrap()[0].to_bits(),
        "constant chain must be untouched (bit-identical)"
    );
}

/// Deterministic spot checks of shapes the paper's codes actually use.
#[test]
fn canonical_chain_shapes() {
    for chain in [
        "T + A(I)",
        "T + A(I) + C(I)",
        "A(I) + T + C(I)",
        "T - A(I) + B(I)",
        "T + A(I) * B(I) - C(I)",
    ] {
        check_equivalent(chain, 0.0);
    }
    for chain in [
        "T * (1.0 + 0.0001 * A(I))",
        "T * (1.0 + 0.0001 * A(I)) / (1.0 + 0.00005 * B(I))",
        "(1.0 + 0.0001 * A(I)) * T",
    ] {
        check_equivalent(chain, 1.0);
    }
}
