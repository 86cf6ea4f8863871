//! End-to-end driver tests: restructure, simulate both versions, and
//! compare watched variables (moved here from the monolithic driver).

use crate::config::PassConfig;
use crate::driver::restructure;
use crate::report::{LoopDecision, Report, Technique};
use cedar_ir::compile_free;
use cedar_ir::{LoopClass, Machine};
use cedar_sim::MachineConfig;

/// Restructure `src`, run both versions, compare `watch` variables
/// and return (serial_cycles, parallel_cycles, report).
fn check_equiv(src: &str, watch: &[&str], cfg: &PassConfig) -> (f64, f64, Report) {
    let p0 = compile_free(src).unwrap();
    let r = restructure(&p0, cfg);
    let mc = MachineConfig::cedar_config1();
    let s0 = cedar_sim::run(&p0, mc.clone()).unwrap_or_else(|e| panic!("serial: {e}"));
    let s1 = cedar_sim::run(&r.program, mc).unwrap_or_else(|e| {
        panic!("restructured: {e}\n---\n{}", cedar_ir::print::print_program(&r.program))
    });
    for w in watch {
        let a = s0.read_f64(w).unwrap();
        let b = s1.read_f64(w).unwrap_or_else(|| panic!("missing {w}"));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() <= 1e-6 * x.abs().max(1.0),
                "{w}: {x} vs {y}\n---\n{}",
                cedar_ir::print::print_program(&r.program)
            );
        }
    }
    (s0.cycles(), s1.cycles(), r.report)
}

#[test]
fn simple_loop_parallelizes_with_speedup() {
    let (ser, par, rep) = check_equiv(
        "program p\nparameter (n = 4096)\nreal a(n), b(n)\ndo i = 1, n\n\
         b(i) = i * 0.5\nend do\ndo i = 1, n\na(i) = sqrt(b(i)) + b(i)\nend do\n\
         s = a(1) + a(n)\nend\n",
        &["s", "a"],
        &PassConfig::automatic_1991(),
    );
    assert!(rep.parallelized() >= 1, "{rep}");
    assert!(par < ser, "parallel {par} !< serial {ser}");
}

#[test]
fn paper_privatization_example_round_trips() {
    let (ser, par, rep) = check_equiv(
        "program p\nparameter (n = 2048)\nreal a(n), b(n)\ndo i = 1, n\n\
         b(i) = i * 1.0\nend do\ndo i = 1, n\nt = b(i)\na(i) = sqrt(t)\nend do\n\
         s = a(n)\nend\n",
        &["s", "a"],
        &PassConfig::automatic_1991(),
    );
    assert!(rep.parallelized() >= 1);
    assert!(par < ser);
}

#[test]
fn short_outer_nest_is_coalesced() {
    // 3 outer × 64 inner with a per-point serial recurrence (the
    // body cannot vectorize): the outer trip count under-fills 32
    // CEs, so the coalescing pass flattens the nest (§4.2.4). The
    // flat loop must compute the same values and beat serial.
    let src = "program p\nreal a(64, 3), t\ndo i = 1, 3\ndo j = 1, 64\n\
               t = real(i) * 10.0 + real(j)\ndo k = 1, 6\nt = 0.5 * t + 1.0\nend do\n\
               a(j, i) = t\nend do\nend do\n\
               s = a(64, 3) + a(1, 1)\nend\n";
    let mut cfg = PassConfig::manual_improved();
    cfg.coalesce = true;
    let (ser, par, rep) = check_equiv(src, &["s", "a"], &cfg);
    assert!(rep.loops.iter().any(|l| l.techniques.contains(&Technique::Coalescing)), "{rep}");
    assert!(par < ser);

    // Without coalescing the same nest runs as SDOALL×CDOALL.
    cfg.coalesce = false;
    let (_, _, rep2) = check_equiv(src, &["s", "a"], &cfg);
    assert!(!rep2.loops.iter().any(|l| l.techniques.contains(&Technique::Coalescing)), "{rep2}");
}

#[test]
fn wide_outer_nest_is_not_coalesced() {
    // 64 outer iterations already fill the machine: no coalescing.
    let src = "program p\nreal a(8, 64), t\ndo i = 1, 64\ndo j = 1, 8\n\
               t = real(i) + real(j)\ndo k = 1, 6\nt = 0.5 * t + 1.0\nend do\n\
               a(j, i) = t\nend do\nend do\ns = a(8, 64)\nend\n";
    let (_, _, rep) = check_equiv(src, &["s", "a"], &PassConfig::manual_improved());
    assert!(!rep.loops.iter().any(|l| l.techniques.contains(&Technique::Coalescing)), "{rep}");
}

#[test]
fn hand_written_parallel_loops_are_kept_as_directives() {
    // A loop that is already parallel in the input must survive the
    // driver untouched (no re-analysis, no serialization), while
    // serial loops nested inside its body are still processed.
    let src = "program p\nreal a(64), t\nt = 0.0\n\
               xdoall i = 1, 64\ncall lock(1)\nt = t + 1.0\ncall unlock(1)\n\
               a(i) = 1.0\nend xdoall\nend\n";
    let program = compile_free(src).unwrap();
    let r = restructure(&program, &PassConfig::automatic_1991());
    let l = r.program.units[0].body.iter().find_map(|s| s.as_loop()).expect("loop survives");
    assert_eq!(l.class, LoopClass::XDoall, "class must be preserved");
    // The lock/unlock body must still be there (no rewriting).
    let printed = cedar_ir::print::print_program(&r.program);
    assert!(printed.contains("lock"), "{printed}");
}

#[test]
fn chained_accumulation_uses_library_reduction() {
    // `s = s + a(i) + b(i)` — the target is a chain leaf, not a
    // direct operand; the library substitution must produce
    // sum(a + b), not drag `s` into the vector argument.
    let src = "program p\nparameter (n = 4096)\nreal a(n), b(n)\ndo i = 1, n\n\
               a(i) = 1.0\nb(i) = i * 0.001\nend do\ns = 0.0\ndo i = 1, n\n\
               s = s + a(i) + b(i)\nend do\nend\n";
    let (ser, par, rep) = check_equiv(src, &["s"], &PassConfig::automatic_1991());
    assert!(rep.loops.iter().any(|l| matches!(l.decision, LoopDecision::LibraryReduction)));
    assert!(par < ser);
}

#[test]
fn dot_product_uses_library_reduction() {
    let src = "program p\nparameter (n = 4096)\nreal a(n), b(n)\ndo i = 1, n\n\
               a(i) = 1.0\nb(i) = i * 0.001\nend do\ns = 0.0\ndo i = 1, n\n\
               s = s + a(i) * b(i)\nend do\nend\n";
    let (ser, par, rep) = check_equiv(src, &["s"], &PassConfig::automatic_1991());
    assert!(rep.loops.iter().any(|l| matches!(l.decision, LoopDecision::LibraryReduction)));
    assert!(par < ser);
}

#[test]
fn recurrence_becomes_doacross() {
    let src = "program p\nparameter (n = 1024)\nreal a(n), b(n), c(n)\n\
               do i = 1, n\na(i) = i * 1.0\nb(i) = 0.0\nc(i) = 0.0\nend do\n\
               do i = 2, n\nc(i) = sqrt(a(i)) + a(i) * 2.0 + cos(a(i))\n\
               b(i) = b(i - 1) + a(i)\nend do\ns = b(n) + c(n)\nend\n";
    let (_, _, rep) = check_equiv(src, &["s", "b", "c"], &PassConfig::automatic_1991());
    assert!(rep.loops.iter().any(|l| matches!(l.decision, LoopDecision::Doacross { .. })), "{rep}");
}

#[test]
fn nested_nest_gets_sdoall_cdoall() {
    let src = "program p\nparameter (n = 300)\nreal a(n, n)\n\
               do j = 1, n\ndo i = 1, n\na(i, j) = i * 1.0 + j\nend do\nend do\n\
               s = a(3, 5)\nend\n";
    let p0 = compile_free(src).unwrap();
    let r = restructure(&p0, &PassConfig::automatic_1991());
    let has_sdoall = cedar_ir::print::print_program(&r.program).contains("sdoall");
    assert!(has_sdoall, "{}", cedar_ir::print::print_program(&r.program));
    // Semantics preserved (a(i,j) = i + j has the loop var as value
    // only inside subscript-free exprs, so inner can't vectorize —
    // still must be correct).
    check_equiv(src, &["s", "a"], &PassConfig::automatic_1991());
}

#[test]
fn array_privatization_unlocks_mdg_pattern() {
    let src = "program p\nparameter (n = 256, m = 16)\n\
               real a(n), b(n, m), w(m)\n\
               do i = 1, n\ndo j = 1, m\nb(i, j) = i * 0.1 + j\nend do\na(i) = 0.0\nend do\n\
               do i = 1, n\ndo j = 1, m\nw(j) = b(i, j) * 2.0\nend do\n\
               do j = 1, m\na(i) = a(i) + w(j)\nend do\nend do\ns = a(n)\nend\n";
    // Automatic: the w-loop must stay serial.
    let p0 = compile_free(src).unwrap();
    let auto = restructure(&p0, &PassConfig::automatic_1991());
    let serial_ws = auto
        .report
        .loops
        .iter()
        .filter(|l| matches!(l.decision, LoopDecision::Serial { .. }))
        .count();
    assert!(serial_ws >= 1, "{}", auto.report);
    // Manual: parallelized with array privatization.
    let (ser, par, rep) = check_equiv(src, &["s", "a"], &PassConfig::manual_improved());
    assert!(
        rep.loops.iter().any(|l| l.techniques.contains(&Technique::ArrayPrivatization)),
        "{rep}"
    );
    assert!(par < ser);
}

#[test]
fn giv_substitution_parallelizes_ocean_pattern() {
    let src = "program p\nparameter (n = 512)\nreal a(n)\nw = 1.0\n\
               do i = 1, n\nw = w * 1.001\na(i) = w * 2.0\nend do\ns = a(n) + w\nend\n";
    let (_, _, rep) = check_equiv(src, &["s", "a"], &PassConfig::manual_improved());
    assert!(rep.loops.iter().any(|l| l.techniques.contains(&Technique::GivSubstitution)), "{rep}");
    assert!(rep.parallelized() >= 1, "{rep}");
}

#[test]
fn multi_statement_array_reduction_parallelizes() {
    let src = "program p\nparameter (n = 512, m = 8)\nreal a(m), b(n, m), c(n, m)\n\
               do j = 1, m\na(j) = 0.0\nend do\n\
               do i = 1, n\ndo j = 1, m\nb(i, j) = i * 0.01\nc(i, j) = j * 1.0\nend do\nend do\n\
               do i = 1, n\ndo j = 1, m\na(j) = a(j) + b(i, j)\n\
               a(j) = a(j) + c(i, j)\nend do\nend do\ns = a(1) + a(m)\nend\n";
    let (ser, par, rep) = check_equiv(src, &["s", "a"], &PassConfig::manual_improved());
    assert!(rep.loops.iter().any(|l| l.techniques.contains(&Technique::ArrayReduction)), "{rep}");
    assert!(par < ser, "par {par} ser {ser}");
}

#[test]
fn runtime_test_produces_two_versions() {
    let src = "program p\nparameter (n = 32, m = 16)\nreal a(n * m)\nmstr = m\n\
               do j = 1, n\ndo i = 1, m\na((j - 1) * mstr + i) = j * 100.0 + i\nend do\nend do\n\
               s = a(5) + a(n * m)\nend\n";
    let (_, _, rep) = check_equiv(src, &["s", "a"], &PassConfig::manual_improved());
    assert!(rep.loops.iter().any(|l| matches!(l.decision, LoopDecision::TwoVersion)), "{rep}");
}

#[test]
fn critical_sections_for_histogram() {
    let src = "program p\nparameter (n = 512, m = 16)\nreal h(m), w(n)\ninteger idx(n)\n\
               do i = 1, n\nidx(i) = mod(i, m) + 1\nw(i) = i * 0.01\nend do\n\
               do j = 1, m\nh(j) = 0.0\nend do\n\
               do i = 1, n\nt = 0.0\ndo k = 1, 16\n\
               t = t + sqrt(w(i) + k * 0.1)\nend do\n\
               h(idx(i)) = h(idx(i)) + t\nend do\n\
               s = h(1) + h(m)\nend\n";
    let (_, _, rep) = check_equiv(src, &["s", "h"], &PassConfig::manual_improved());
    assert!(rep.loops.iter().any(|l| matches!(l.decision, LoopDecision::CriticalSection)), "{rep}");
}

#[test]
fn serial_config_is_identity() {
    let src = "program p\nreal a(10)\ndo i = 1, 10\na(i) = 1.0\nend do\nend\n";
    let p0 = compile_free(src).unwrap();
    let r = restructure(&p0, &PassConfig::serial());
    assert_eq!(cedar_ir::print::print_program(&p0), cedar_ir::print::print_program(&r.program));
}

#[test]
fn fx80_target_uses_cluster_classes() {
    let src = "program p\nparameter (n = 4096)\nreal a(n), b(n)\ndo i = 1, n\n\
               b(i) = i * 0.5\nend do\ndo i = 1, n\na(i) = b(i) * 2.0\nend do\n\
               s = a(n)\nend\n";
    let p0 = compile_free(src).unwrap();
    let cfg = PassConfig::automatic_1991().for_machine(&Machine::fx80());
    let r = restructure(&p0, &cfg);
    let text = cedar_ir::print::print_program(&r.program);
    assert!(!text.contains("xdoall") && !text.contains("sdoall"), "{text}");
    assert!(text.contains("cdoall"), "{text}");
}

/// toeplz's inner loop: two scalar reductions over a trip count the
/// restructurer cannot see. Partials for 32 participants cost more than
/// the loop saves; for the FX/80's 8 they pay.
#[test]
fn reduction_partials_are_planned_for_the_machines_ces() {
    let src = "program p\nparameter (n = 64)\nreal tr(2 * n), x(n), g(n)\n\
               do i = 1, n\nx(i) = i * 0.5\ng(i) = i * 0.25\nend do\n\
               do i = 1, 2 * n\ntr(i) = i * 0.125\nend do\nm = n / 2\nsxn = 0.0\nsgn = 0.0\n\
               do j = 1, m - 1\nsxn = sxn + tr(n + m - j) * x(j)\n\
               sgn = sgn + tr(n + m - j) * g(j)\nend do\ns = sxn + sgn\nend\n";
    let last = |cfg: &PassConfig| {
        restructure(&compile_free(src).unwrap(), cfg).report.loops.pop().unwrap().decision
    };
    let fx80 = PassConfig::automatic_1991().for_machine(&Machine::fx80());
    assert!(matches!(last(&PassConfig::automatic_1991()), LoopDecision::Serial { .. }));
    assert!(matches!(last(&fx80), LoopDecision::Doall { .. }));
    check_equiv(src, &["s"], &fx80);
}

#[test]
fn if_converts_to_where_in_vector_loop() {
    let src = "program p\nparameter (n = 1024)\nreal a(n)\nc = 10.0\n\
               do i = 1, n\na(i) = i * 0.02\nend do\n\
               do i = 1, n\nif (a(i) .gt. c) a(i) = c\nend do\ns = a(1) + a(n)\nend\n";
    let p0 = compile_free(src).unwrap();
    let r = restructure(&p0, &PassConfig::automatic_1991());
    let text = cedar_ir::print::print_program(&r.program);
    assert!(text.contains("where ("), "{text}");
    check_equiv(src, &["s", "a"], &PassConfig::automatic_1991());
}

#[test]
fn interchange_moves_parallel_loop_outward() {
    // Outer i carries a(i-1, j); inner j is parallel: interchange
    // puts j outside and the nest becomes a DOALL.
    let src = "program p\nparameter (n = 64, m = 96)\nreal a(n, m)\n\
               do j = 1, m\na(1, j) = 0.5 + 0.001 * real(j)\nend do\n\
               do i = 2, n\ndo j = 1, m\n\
               a(i, j) = a(i - 1, j) * 0.99 + 0.0001\nend do\nend do\n\
               s = a(n, 1) + a(n, m)\nend\n";
    let (ser, par, rep) = check_equiv(src, &["s", "a"], &PassConfig::automatic_1991());
    assert!(rep.loops.iter().any(|l| l.techniques.contains(&Technique::Interchange)), "{rep}");
    assert!(par < ser, "interchanged nest must speed up: {par} vs {ser}");
}

#[test]
fn illegal_interchange_is_refused() {
    // (<, >) dependence: must stay serial (or doacross), never
    // interchanged into a wrong DOALL.
    let src = "program p\nparameter (n = 48, m = 48)\nreal a(n + 1, m + 1)\n\
               do j = 1, m + 1\ndo i = 1, n + 1\na(i, j) = 0.01 * real(i + j)\nend do\nend do\n\
               do i = 1, n\ndo j = 2, m\n\
               a(i + 1, j - 1) = a(i, j) + 1.0\nend do\nend do\n\
               s = a(n, 2) + a(2, m)\nend\n";
    let (_, _, rep) = check_equiv(src, &["s", "a"], &PassConfig::automatic_1991());
    assert!(!rep.loops.iter().any(|l| l.techniques.contains(&Technique::Interchange)), "{rep}");
}

#[test]
fn mixed_reduction_loop_distributes() {
    // q(i) = ... plus a dot-product accumulation in one loop: the
    // restructurer isolates the reduction for the library.
    let src = "program p\nparameter (n = 2048)\nreal p1(n), q(n)\n\
               do i = 1, n\np1(i) = 0.5 + 0.001 * real(i)\nend do\n\
               pq = 0.0\ndo i = 1, n\nq(i) = p1(i) * 2.0 + 1.0\n\
               pq = pq + p1(i) * q(i)\nend do\ns = pq + q(n)\nend\n";
    let (ser, par, rep) = check_equiv(src, &["s", "q"], &PassConfig::automatic_1991());
    assert!(
        rep.loops.iter().any(|l| matches!(l.decision, LoopDecision::Distributed { .. })),
        "{rep}"
    );
    assert!(
        rep.loops.iter().any(|l| matches!(l.decision, LoopDecision::LibraryReduction)),
        "distribution must expose the library reduction: {rep}"
    );
    assert!(par < ser);
}

#[test]
fn triangular_giv_substitutes() {
    let src = "program p\nparameter (n = 64)\nreal a(n * n)\nk = 0\n\
               do i = 1, n\ndo j = 1, i\nk = k + 1\na(k) = i * 100.0 + j\nend do\nend do\n\
               s = a(1) + a(k)\nend\n";
    let (_, _, rep) = check_equiv(src, &["s"], &PassConfig::manual_improved());
    assert!(rep.loops.iter().any(|l| l.techniques.contains(&Technique::GivSubstitution)), "{rep}");
}
