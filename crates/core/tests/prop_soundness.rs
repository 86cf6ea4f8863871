//! The restructurer's global soundness property: **for any program it
//! accepts, the restructured version computes the same values as the
//! serial original.** This generates random loop programs — affine
//! subscripts with shifts (carried dependences!), reductions, scalar
//! temporaries, conditionals, two-level nests — and runs both versions
//! under both technique presets on the Cedar model.
//!
//! Unlike the per-analysis property tests, this exercises the whole
//! decision pipeline: a wrong dependence verdict, an illegal
//! privatization, a bad reduction rewrite, or a broken sync insertion
//! all surface here as a value mismatch.

use proptest::prelude::*;

use cedar_restructure::{restructure, PassConfig};
use cedar_sim::MachineConfig;

const N: usize = 96;

/// One generated loop over `i`: kind decides the body shape.
#[derive(Debug, Clone)]
enum LoopKind {
    /// `c(i) = a(i) <op> b(i±shift)` — independent or loop-carried
    /// depending on which array `c` aliases.
    Map { dst: usize, src: usize, shift: i64 },
    /// `s = s + a(i) * b(i)` reduction.
    Dot,
    /// `a(i) = a(i-1) * q + b(i)` first-order recurrence.
    Recurrence,
    /// temp scalar: `t = a(i); c(i) = t + t`.
    Temp { dst: usize },
    /// conditional update: `if (a(i) .gt. 0.5) c(i) = b(i)`.
    Cond { dst: usize },
    /// 2-nest over a matrix: `m(j, i) = m(j, i) + a(j)`.
    Nest,
    /// Wavefront: carried along rows, parallel along columns — the
    /// interchange candidate (`m(i, j) = m(i-1, j) ...`).
    Wavefront,
}

fn loop_kind() -> impl Strategy<Value = LoopKind> {
    prop_oneof![
        (0usize..3, 0usize..3, -2i64..3).prop_map(|(dst, src, shift)| LoopKind::Map {
            dst,
            src,
            shift
        }),
        Just(LoopKind::Dot),
        Just(LoopKind::Recurrence),
        (0usize..3).prop_map(|dst| LoopKind::Temp { dst }),
        (0usize..3).prop_map(|dst| LoopKind::Cond { dst }),
        Just(LoopKind::Nest),
        Just(LoopKind::Wavefront),
    ]
}

const ARR: [&str; 3] = ["a", "b", "c"];

fn emit(kind: &LoopKind, label: usize) -> String {
    let lo = 3; // leave room for ±2 shifts
    let hi = N - 2;
    match kind {
        LoopKind::Map { dst, src, shift } => {
            let d = ARR[*dst];
            let s = ARR[*src];
            let idx = if *shift == 0 {
                "i".to_string()
            } else if *shift > 0 {
                format!("i + {shift}")
            } else {
                format!("i - {}", -shift)
            };
            format!(
                "do {label} i = {lo}, {hi}\n{d}(i) = 0.5 * {d}(i) + 0.25 * {s}({idx})\n{label} continue\n"
            )
        }
        LoopKind::Dot => format!(
            "do {label} i = {lo}, {hi}\ns = s + a(i) * b(i)\n{label} continue\n"
        ),
        LoopKind::Recurrence => format!(
            "do {label} i = {lo}, {hi}\na(i) = a(i - 1) * 0.5 + b(i)\n{label} continue\n"
        ),
        LoopKind::Temp { dst } => {
            let d = ARR[*dst];
            format!(
                "do {label} i = {lo}, {hi}\nt = b(i) * 0.125\n{d}(i) = {d}(i) + t + t\n{label} continue\n"
            )
        }
        LoopKind::Cond { dst } => {
            let d = ARR[*dst];
            format!(
                "do {label} i = {lo}, {hi}\nif (a(i) .gt. 0.5) then\n{d}(i) = {d}(i) + 0.0625\nend if\n{label} continue\n"
            )
        }
        LoopKind::Nest => format!(
            "do {label} j = 1, 8\ndo {} i = 1, {N}\nm(i, j) = m(i, j) + 0.03125 * a(i)\n{} continue\n{label} continue\n",
            label + 1,
            label + 1
        ),
        LoopKind::Wavefront => format!(
            "do {label} i = 2, {N}\ndo {} j = 1, 8\nm(i, j) = m(i - 1, j) * 0.5 + 0.01\n{} continue\n{label} continue\n",
            label + 1,
            label + 1
        ),
    }
}

fn program_src(kinds: &[LoopKind]) -> String {
    let mut src = format!(
        "program f\nreal a({N}), b({N}), c({N}), m({N}, 8), s, t, chksum\n\
         do 900 i = 1, {N}\na(i) = 0.3 + 0.001 * real(i)\nb(i) = 1.0 - 0.002 * real(i)\n\
         c(i) = 0.1 * real(i)\n900 continue\n\
         do 902 j = 1, 8\ndo 901 i = 1, {N}\nm(i, j) = 0.01 * real(i + j)\n901 continue\n902 continue\n\
         s = 0.0\n"
    );
    for (k, kind) in kinds.iter().enumerate() {
        src.push_str(&emit(kind, 10 + 10 * k));
    }
    src.push_str(&format!(
        "chksum = s\ndo 990 i = 1, {N}\nchksum = chksum + a(i) + b(i) + c(i)\n990 continue\n\
         do 992 j = 1, 8\ndo 991 i = 1, {N}\nchksum = chksum + m(i, j)\n991 continue\n992 continue\nend\n"
    ));
    src
}

fn check(kinds: &[LoopKind], cfg: &PassConfig, tag: &str) {
    let src = program_src(kinds);
    let program =
        cedar_ir::compile_free(&src).unwrap_or_else(|e| panic!("[{tag}] compile: {e}\n{src}"));
    let mc = MachineConfig::cedar_config1();
    let serial = cedar_sim::run(&program, mc.clone()).expect("serial");
    let r = restructure(&program, cfg);
    let par = cedar_sim::run(&r.program, mc).unwrap_or_else(|e| {
        panic!("[{tag}] {kinds:?}: {e}\n{}", cedar_ir::print::print_program(&r.program))
    });
    let x = serial.read_f64("chksum").unwrap()[0];
    let y = par.read_f64("chksum").unwrap()[0];
    assert!(
        (x - y).abs() <= 1e-4 * x.abs().max(1.0),
        "[{tag}] {kinds:?}: serial {x} vs restructured {y}\n{}\n{}",
        r.report,
        cedar_ir::print::print_program(&r.program)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn restructured_programs_compute_identical_results(
        kinds in prop::collection::vec(loop_kind(), 1..5),
    ) {
        check(&kinds, &PassConfig::automatic_1991(), "auto");
        check(&kinds, &PassConfig::manual_improved(), "manual");
    }
}

#[test]
fn adversarial_kind_sequences() {
    use LoopKind::*;
    // Hand-picked sequences that interleave carried and independent
    // dependences through the same arrays.
    let cases: Vec<Vec<LoopKind>> = vec![
        vec![Wavefront, Nest],
        vec![Recurrence, Map { dst: 0, src: 0, shift: -1 }],
        vec![Map { dst: 2, src: 2, shift: 1 }, Dot, Recurrence],
        vec![Temp { dst: 1 }, Cond { dst: 1 }, Map { dst: 1, src: 1, shift: 0 }],
        vec![Nest, Nest, Dot],
        vec![Map { dst: 0, src: 1, shift: 2 }, Map { dst: 1, src: 0, shift: -2 }],
    ];
    for kinds in cases {
        check(&kinds, &PassConfig::automatic_1991(), "auto");
        check(&kinds, &PassConfig::manual_improved(), "manual");
    }
}
