//! Parser error-recovery fuzzing (tier-1): the recovering f77 entry
//! points must never panic on mangled input — truncated files, deleted
//! tokens, deleted/duplicated lines, garbled characters — only return
//! diagnostics plus whatever partial program they could salvage.
//!
//! Inputs are generator programs (`cedar_fuzz::gen`) put through seeded
//! syntactic mutations (`cedar_fuzz::mutate`), so every crash this test
//! could find replays from `(seed, mutation index)` alone.
//!
//! Past the parser, a table of well-formed programs with constants at
//! the ends of `i64` pins what lowering, restructuring and simulation
//! make of each: a diagnostic with a span or a definite outcome, never
//! a panic and never a wrapped value. Programs nested to the parser's
//! limits run through the whole pipeline on a server worker's stack,
//! and programs nested ten times deeper end in a diagnostic there.

use cedar_f77::parser::{MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, MAX_EXPR_HEIGHT};
use cedar_f77::{parse_free_recovering, parse_source_recovering};
use cedar_fuzz::{mutations, GenProgram};
use cedar_ir::{compile_source, CompileError, Program};
use cedar_restructure::{restructure, BackendKind, EmitInput, PassConfig};
use cedar_sim::{Engine, MachineConfig, SimErrorKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn must_not_panic(what: &str, src: &str) {
    let free = catch_unwind(AssertUnwindSafe(|| parse_free_recovering(src)));
    assert!(free.is_ok(), "parse_free_recovering panicked on {what}:\n{src}");
    let fixed = catch_unwind(AssertUnwindSafe(|| parse_source_recovering(src)));
    assert!(fixed.is_ok(), "parse_source_recovering panicked on {what}:\n{src}");
}

#[test]
fn mutated_generator_programs_never_panic_the_parser() {
    for seed in 0..24u64 {
        let src = GenProgram::generate(seed).render().source;
        for (k, (kind, mutated)) in mutations(&src, seed, 20).into_iter().enumerate() {
            must_not_panic(&format!("seed {seed} mutation {k} ({kind})"), &mutated);
        }
    }
}

#[test]
fn stacked_mutations_never_panic_the_parser() {
    // Apply several rounds of mutation so the input drifts far from
    // well-formed (missing END, half a DO header, junk mid-expression).
    for seed in 0..8u64 {
        let mut src = GenProgram::generate(seed).render().source;
        for round in 0..6u64 {
            let muts = mutations(&src, seed.wrapping_mul(31).wrapping_add(round), 3);
            if let Some((kind, m)) = muts.into_iter().last() {
                src = m;
                must_not_panic(&format!("seed {seed} round {round} ({kind})"), &src);
            }
        }
    }
}

#[test]
fn every_prefix_of_a_program_is_survivable() {
    // Exhaustive truncation of one representative program: every byte
    // boundary, not just sampled cut points.
    let src = GenProgram::generate(1).render().source;
    for cut in 0..=src.len() {
        if !src.is_char_boundary(cut) {
            continue;
        }
        must_not_panic(&format!("prefix of length {cut}"), &src[..cut]);
    }
}

#[test]
fn recovery_still_reports_diagnostics_not_silence() {
    // Recovery must not degenerate into swallowing errors: deleting a
    // meaningful token from a valid program should surface at least one
    // diagnostic (or salvage a unit — both count as "handled").
    let src = GenProgram::generate(2).render().source;
    let mut saw_diagnostic = false;
    for (_, mutated) in mutations(&src, 7, 20) {
        let out = parse_free_recovering(&mutated);
        saw_diagnostic |= !out.errors.is_empty();
    }
    assert!(saw_diagnostic, "20 mutations of a valid program produced zero diagnostics");
}

/// What a program with extreme constants must come to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// Lowering refuses it with the span of this (1-based) line.
    CompileError(u32),
    /// Both restructurer configurations return; it is not simulated,
    /// because it would run for about 3e18 iterations.
    Restructures,
    /// Both configurations return, and the simulator stops the serial
    /// program with this kind of error before its first iteration.
    SerialFails(SimErrorKind),
    /// Both configurations return, and the original and both
    /// restructured programs simulate to this: `None` runs.
    AllSimulate(Option<SimErrorKind>),
}

/// Fixed-form source: every line is a statement starting in column 7.
const EXTREME_CONSTANTS: &[(&[&str], Outcome)] = &[
    (
        &[
            "program p",
            "parameter (n = 9223372036854775807)",
            "parameter (m = n + 1)",
            "k = m",
            "end",
        ],
        Outcome::CompileError(3),
    ),
    (
        &["program p", "parameter (n = 2**62)", "parameter (m = n * 4)", "k = m", "end"],
        Outcome::CompileError(3),
    ),
    (
        &["program p", "parameter (n = (-2)**63)", "parameter (m = -n)", "k = m", "end"],
        Outcome::CompileError(3),
    ),
    (
        &[
            "program p",
            "real a(10)",
            "do i = -5, 9223372036854775807",
            "a(1) = a(1) + 1.0",
            "end do",
            "end",
        ],
        Outcome::SerialFails(SimErrorKind::Limit),
    ),
    (
        &[
            "program p",
            "real a(10)",
            "do i = 9223372036854775807, -5, -1",
            "a(1) = a(1) + 1.0",
            "end do",
            "end",
        ],
        Outcome::SerialFails(SimErrorKind::Limit),
    ),
    (
        &[
            "program p",
            "real a(10)",
            "do i = 1, 9223372036854775807, 3",
            "a(1) = a(1) + 1.0",
            "end do",
            "end",
        ],
        Outcome::Restructures,
    ),
    (&["program p", "common /c/ a(5:1)", "x = 1.0", "end"], Outcome::AllSimulate(None)),
    // The local array a COMMON member with the same empty bounds matches.
    (&["program p", "real a(5:1)", "x = 1.0", "end"], Outcome::AllSimulate(None)),
    (
        &[
            "program p",
            "parameter (n = 9223372036854775807)",
            "common /c/ a(n + 1)",
            "x = 1.0",
            "end",
        ],
        Outcome::AllSimulate(Some(SimErrorKind::BadProgram)),
    ),
    // 2^64 elements: each extent folds, their product does not fit.
    (
        &["program p", "common /c/ a(4294967296, 4294967296)", "x = 1.0", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::Limit)),
    ),
    // A local array whose element count fits but whose byte count does
    // not: the same limit as COMMON.
    (
        &["program p", "real a(9223372036854775807)", "x = 1.0", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::Limit)),
    ),
    // 2^40 elements (4 TB): count and bytes fit, the run's storage cap
    // does not; a local array and a COMMON block alike.
    (
        &["program p", "real a(1099511627776)", "x = 1.0", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::Limit)),
    ),
    (
        &["program p", "common /c/ a(1099511627776)", "x = 1.0", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::Limit)),
    ),
    // A section past the declared bounds is refused before its lanes
    // are allocated.
    (
        &["program p", "real a(10)", "a(1:9223372036854775807:1) = 1.0", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::OutOfBounds)),
    ),
    // The most negative integer over -1 wraps, in a quotient and in
    // `mod`, as every other integer operation does.
    (
        &[
            "program p",
            "i = -9223372036854775807",
            "i = i - 1",
            "j = i / (-1)",
            "k = mod(i, -1)",
            "end",
        ],
        Outcome::AllSimulate(None),
    ),
    // And negated, as a scalar, through `abs`, and as a vector.
    (
        &["program p", "i = -9223372036854775807", "i = i - 1", "j = -i", "end"],
        Outcome::AllSimulate(None),
    ),
    (
        &["program p", "i = -9223372036854775807", "i = i - 1", "j = abs(i)", "end"],
        Outcome::AllSimulate(None),
    ),
    (
        &[
            "program p",
            "integer v(8)",
            "i = -9223372036854775807",
            "i = i - 1",
            "v(1:8) = i",
            "v(1:8) = -v(1:8)",
            "end",
        ],
        Outcome::AllSimulate(None),
    ),
    // And in a declared bound the simulator folds once at its start
    // (the upper bound is below the lower: an empty array).
    (
        &[
            "program p",
            "parameter (n = -9223372036854775807 - 1)",
            "real a(n / (-1))",
            "x = 1.0",
            "end",
        ],
        Outcome::AllSimulate(None),
    ),
    // Declared dims of a dummy at the ends of `i64`: its extents, the
    // address of an element, and the fill of an assumed-size last
    // dimension wrap as the engines' integers do. A subscript then lands
    // outside the storage, or on an element of it.
    (
        &[
            "program p",
            "real x(4)",
            "call s(x, -9223372036854775807 - 1, 9223372036854775807)",
            "end",
            "subroutine s(a, lo, hi)",
            "integer lo, hi",
            "real a(lo:hi)",
            "a(hi) = 1.0",
            "end",
        ],
        Outcome::AllSimulate(Some(SimErrorKind::OutOfBounds)),
    ),
    (
        &[
            "program p",
            "real x(4)",
            "call s(x, -9223372036854775807 - 1, 9223372036854775807)",
            "end",
            "subroutine s(a, lo, hi)",
            "integer lo, hi",
            "real a(lo:hi, *)",
            "a(hi, 1) = 1.0",
            "end",
        ],
        Outcome::AllSimulate(Some(SimErrorKind::OutOfBounds)),
    ),
    (
        &[
            "program p",
            "real x(4)",
            "call s(x, -9223372036854775807 - 1)",
            "end",
            "subroutine s(a, lo)",
            "integer lo",
            "real a(8, lo:*)",
            "a(1, lo) = 1.0",
            "end",
        ],
        Outcome::AllSimulate(None),
    ),
    (
        &[
            "program p",
            "real x(4)",
            "call s(x)",
            "end",
            "subroutine s(a)",
            "parameter (n = 2**62)",
            "real a(n, n, *)",
            "a(1, 1, 1) = 1.0",
            "end",
        ],
        Outcome::AllSimulate(Some(SimErrorKind::OutOfBounds)),
    ),
    // And the lanes of an `iota` past the largest integer: one lane,
    // which a section of four does not take.
    (
        &["program p", "integer k(4)", "n = 9223372036854775806", "k(1:4) = iota(n, n) + 0", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::TypeError)),
    ),
    // And an `iota` without its upper bound, which indexed past its
    // arguments (a panic), and one of more lanes than `STORAGE_CAP`
    // holds, reduced and gathered.
    (
        &["program p", "s = sum(iota(3))", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::TypeError)),
    ),
    (
        &["program p", "s = sum(iota(1, 4000000000000))", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::Limit)),
    ),
    (
        &["program p", "real rp(4), ra(4)", "rp(1:4) = ra(iota(1, 4000000000000))", "end"],
        Outcome::AllSimulate(Some(SimErrorKind::Limit)),
    ),
];

/// 60 000 000 REALs. The restructured programs declare the array GLOBAL:
/// 240 MB of simulated storage, within `STORAGE_CAP` for a plain run,
/// past it once each element is charged its race detector's shadow cell
/// (the original's per-cluster copies are past it either way). Their
/// race-collecting runs took 1.6 GB from the host and aborted the
/// process under `ulimit -v 1600000`.
const PAST_THE_CAP_WITH_SHADOW: &[&str] =
    &["program p", "real a(60000000)", "do i = 1, 60000000", "a(i) = 1.0", "end do", "end"];

#[test]
fn a_race_collecting_run_past_the_storage_cap_ends_in_limit_exceeded() {
    let src: String = PAST_THE_CAP_WITH_SHADOW.iter().map(|l| format!("      {l}\n")).collect();
    let original = compile_source(&src).unwrap();
    let restructured = [PassConfig::automatic_1991(), PassConfig::manual_improved()]
        .map(|cfg| restructure(&original, &cfg).program);
    for p in std::iter::once(&original).chain(&restructured) {
        for engine in [Engine::Vm, Engine::Interp] {
            let mc = MachineConfig::cedar_config1().with_engine(engine);
            let err = cedar_sim::run_collecting_races(p, mc).err().expect("refused");
            assert_eq!(err.kind, SimErrorKind::Limit, "{engine:?}: {err}");
            assert_eq!(err.span.line, 2, "{engine:?}: the array's declaration");
            assert!(err.msg.contains("array `a` is too large"), "{engine:?}: {err}");
        }
    }
}

/// The outcome of a run, the same on both engines.
fn simulated(p: &Program) -> Option<SimErrorKind> {
    let [vm, interp] = [Engine::Vm, Engine::Interp].map(|engine| {
        let mc = MachineConfig::cedar_config1().with_engine(engine);
        cedar_sim::run(p, mc).err().map(|e| e.kind)
    });
    assert_eq!(vm, interp, "the engines disagree");
    vm
}

#[test]
fn extreme_constants_end_in_diagnostics_or_definite_outcomes() {
    for &(lines, expected) in EXTREME_CONSTANTS {
        let src: String = lines.iter().map(|l| format!("      {l}\n")).collect();
        let original = match compile_source(&src) {
            Ok(p) => p,
            Err(CompileError::Lower(e)) => {
                assert_eq!(Outcome::CompileError(e.span.line), expected, "{e}:\n{src}");
                continue;
            }
            Err(e) => panic!("{e}:\n{src}"),
        };
        let restructured: Vec<Program> =
            [PassConfig::automatic_1991(), PassConfig::manual_improved()]
                .iter()
                .map(|cfg| restructure(&original, cfg).program)
                .collect();
        match expected {
            Outcome::CompileError(_) => panic!("compiles:\n{src}"),
            Outcome::Restructures => {}
            Outcome::SerialFails(kind) => assert_eq!(simulated(&original), Some(kind), "{src}"),
            Outcome::AllSimulate(kind) => {
                for p in std::iter::once(&original).chain(&restructured) {
                    assert_eq!(simulated(p), kind, "{src}");
                }
            }
        }
    }
}

/// A program whose one construct nests `n` deep, by shape: parentheses
/// around an operand, a chain of `n` additions, `n` DO loops, or `n`
/// block IFs.
fn nested(shape: &str, n: usize) -> String {
    let mut lines = vec!["program p".to_string(), "real x".into(), "x = 0.0".into()];
    match shape {
        "parentheses" => lines.push(format!("x = {}x + 1.0{}", "(".repeat(n), ")".repeat(n))),
        "additions" => lines.push(format!("x = x{}", " + 1.0".repeat(n))),
        _ => {
            let (open, close) = match shape {
                "do" => ("do i{} = 1, 1", "end do"),
                _ => ("if (x .lt. 1.0) then", "end if"),
            };
            lines.extend((0..n).map(|k| open.replace("{}", &k.to_string())));
            lines.push("x = x + 1.0".into());
            lines.extend((0..n).map(|_| close.to_string()));
        }
    }
    lines.push("end".into());
    lines.iter().map(|l| format!("      {l}\n")).collect()
}

/// Each shape with the limit that bounds it and the diagnostic past it.
const NESTING_LIMITS: [(&str, usize, &str); 4] = [
    ("parentheses", MAX_EXPR_DEPTH, "expression nested more than"),
    ("additions", MAX_EXPR_HEIGHT, "expression tree higher than"),
    ("do", MAX_BLOCK_DEPTH, "blocks nested more than"),
    ("if", MAX_BLOCK_DEPTH, "blocks nested more than"),
];

/// Run `f` on a thread with a `cedar-serve` worker's 2 MiB stack.
fn on_a_worker_stack(f: impl FnOnce() + Send) {
    std::thread::scope(|s| {
        std::thread::Builder::new().stack_size(2 << 20).spawn_scoped(s, f).unwrap().join().unwrap()
    });
}

#[test]
fn programs_nested_to_the_limits_run_through_the_whole_pipeline() {
    on_a_worker_stack(|| {
        for (shape, limit, _) in NESTING_LIMITS {
            let src = nested(shape, limit);
            let original = compile_source(&src).unwrap_or_else(|e| panic!("{shape}: {e}"));
            for cfg in [PassConfig::automatic_1991(), PassConfig::manual_improved()] {
                let r = restructure(&original, &cfg);
                let (restructured, report) = (&r.program, &r.report);
                let input = EmitInput { original: &original, restructured, report };
                for kind in [BackendKind::Cedar, BackendKind::OpenMp, BackendKind::Serial] {
                    assert!(!kind.backend().emit(&input).is_empty());
                }
                for p in [&original, &r.program] {
                    assert_eq!(simulated(p), None, "{shape}");
                    for engine in [Engine::Vm, Engine::Interp] {
                        let mc = MachineConfig::cedar_config1().with_engine(engine);
                        let races = cedar_sim::run_collecting_races(p, mc);
                        assert!(races.is_ok(), "{shape} {engine:?}: {:?}", races.err());
                    }
                }
            }
        }
    });
}

#[test]
fn nesting_past_the_limits_is_a_diagnostic_with_a_span() {
    on_a_worker_stack(|| {
        for (shape, limit, message) in NESTING_LIMITS {
            for n in [limit + 1, 10 * limit] {
                let src = nested(shape, n);
                let out = parse_source_recovering(&src);
                let [e] = &out.errors[..] else { panic!("{shape} {n}: {:?}", out.errors) };
                assert!(e.to_string().contains(message), "{shape} {n}: {e}");
                // The construct starts on line 4, and its first level past
                // the limit on that line plus the limit for a block.
                let line = if shape == "do" || shape == "if" { 4 + limit } else { 4 };
                assert_eq!(e.span.line as usize, line, "{shape} {n}: {e}");
                assert!(matches!(compile_source(&src), Err(CompileError::Parse(_))), "{shape} {n}");
            }
        }
    });
}
