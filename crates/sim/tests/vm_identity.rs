//! Differential oracle: the bytecode VM vs. the tree-walking
//! interpreter (DESIGN.md §14).
//!
//! Every program here runs under both engines and must be
//! **bit-identical**: cycle accumulator bits, the full `ExecStats`
//! record, memory outputs, race reports, fault-injected schedules, and
//! the whole `SimError` taxonomy (kind + message + span). This is the
//! repo's standing guarantee that the VM is an optimization, never a
//! semantic fork — the fuzz `vm-vs-interpreter` lane extends the same
//! check to generated programs. The fast paths (`without_fast_paths`:
//! loop kernels, the progression indexer) and the race detector may
//! not move a cycle either; declared array shapes, which both engines
//! evaluate through one function, are checked under all of them.

use cedar_sim::{Engine, FaultConfig, MachineConfig, SimError, Simulator};

fn cfg(engine: Engine) -> MachineConfig {
    MachineConfig::cedar_config1().with_engine(engine)
}

/// Run `src` under one engine with an arbitrary config.
fn run_with(src: &str, config: MachineConfig) -> Result<Simulator<'static>, SimError> {
    let p = Box::leak(Box::new(cedar_ir::compile_free(src).unwrap()));
    cedar_sim::run(p, config)
}

/// Assert two successful runs are observably bit-identical.
fn assert_same_sim(interp: &Simulator<'_>, vm: &Simulator<'_>, vars: &[&str], label: &str) {
    assert_eq!(
        interp.cycles().to_bits(),
        vm.cycles().to_bits(),
        "{label}: cycles diverge (interp {} vs vm {})",
        interp.cycles(),
        vm.cycles()
    );
    // ExecStats carries every counter the simulator maintains; Debug
    // formatting covers all fields (it has no PartialEq by design).
    assert_eq!(format!("{:?}", interp.stats), format!("{:?}", vm.stats), "{label}: stats diverge");
    for v in vars {
        assert_eq!(
            bit_patterns(interp.read_var(v)),
            bit_patterns(vm.read_var(v)),
            "{label}: output `{v}` diverges"
        );
    }
}

/// Values by class and bit pattern: a NaN must equal itself, and -0.0
/// must differ from 0.0.
fn bit_patterns(values: Option<Vec<cedar_ir::Value>>) -> Option<Vec<(char, u64)>> {
    use cedar_ir::Value;
    let bits = |v: Value| match v {
        Value::R(x) => ('r', x.to_bits()),
        Value::I(x) => ('i', x as u64),
        Value::B(x) => ('b', x as u64),
    };
    values.map(|vs| vs.into_iter().map(bits).collect())
}

/// Run `src` under both engines and require bit-identity of cycles,
/// stats, and the named output variables.
fn assert_identical(src: &str, vars: &[&str], label: &str) {
    let i = run_with(src, cfg(Engine::Interp)).unwrap_or_else(|e| {
        panic!("{label}: interpreter failed: {e}");
    });
    let v = run_with(src, cfg(Engine::Vm)).unwrap_or_else(|e| {
        panic!("{label}: vm failed: {e}");
    });
    assert_same_sim(&i, &v, vars, label);
}

/// Run `src` under both engines expecting failure; require an identical
/// error (kind, message, span).
fn assert_same_error(src: &str, label: &str) -> SimError {
    let ei = run_with(src, cfg(Engine::Interp)).err().unwrap_or_else(|| {
        panic!("{label}: interpreter unexpectedly succeeded");
    });
    let ev = run_with(src, cfg(Engine::Vm)).err().unwrap_or_else(|| {
        panic!("{label}: vm unexpectedly succeeded");
    });
    assert_errors_equal(&ei, &ev, label);
    ev
}

fn assert_errors_equal(ei: &SimError, ev: &SimError, label: &str) {
    assert_eq!(ei.kind, ev.kind, "{label}: error kind diverges ({ei} vs {ev})");
    assert_eq!(ei.msg, ev.msg, "{label}: error message diverges");
    assert_eq!(ei.span, ev.span, "{label}: error span diverges");
}

// ---------------------------------------------------------------------
// Success-path identity across the statement/expression repertoire.
// ---------------------------------------------------------------------

#[test]
fn straight_line_scalars_and_intrinsics() {
    assert_identical(
        "program p\nreal x, y, z\nx = 3.0\ny = x * 2.0 + 1.0\n\
         z = sqrt(y + 2.0) - abs(-x)\nend\n",
        &["x", "y", "z"],
        "straight-line",
    );
}

#[test]
fn sequential_loops_arrays_and_nested_subscripts() {
    assert_identical(
        "program p\nparameter (n = 24)\nreal a(n), b(n, 2)\nk = 2\n\
         do i = 1, n\na(i) = i * 1.5\nb(i, 1) = a(i)\nb(i, k) = a(i) * 2.0\nend do\n\
         s = 0.0\ndo i = 1, n\ns = s + b(i, 2)\nend do\nend\n",
        &["a", "b", "s"],
        "seq loops",
    );
}

#[test]
fn if_elseif_else_chains() {
    assert_identical(
        "program p\ns = 0.0\ndo i = 1, 10\nx = i * 1.0 - 5.0\n\
         if (x .gt. 0.0) then\ns = s + 1.0\nelse if (x .lt. 0.0) then\n\
         s = s - 1.0\nelse\ns = s + 100.0\nend if\nend do\nend\n",
        &["s"],
        "if chain",
    );
}

#[test]
fn do_while_loops() {
    assert_identical(
        "program p\nx = 1000.0\nk = 0\ndo while (x .gt. 1.0)\nx = x / 3.0\n\
         k = k + 1\nend do\nend\n",
        &["x", "k"],
        "do while",
    );
}

#[test]
fn cdoall_with_privatized_locals() {
    assert_identical(
        "program p\nparameter (n = 128)\nreal a(n), b(n)\nglobal a, b\n\
         do i = 1, n\nb(i) = i * 1.0\nend do\n\
         cdoall i = 1, n\nreal t\nt = b(i)\na(i) = t * t + sqrt(t)\nend cdoall\nend\n",
        &["a"],
        "cdoall",
    );
}

#[test]
fn sdoall_helper_task_startup() {
    assert_identical(
        "program p\nparameter (n = 96)\nreal a(n), b(n)\nglobal a, b\n\
         do i = 1, n\nb(i) = i * 1.0\nend do\n\
         sdoall i = 1, n\na(i) = b(i) * 3.0\nend sdoall\nend\n",
        &["a"],
        "sdoall",
    );
}

#[test]
fn doacross_await_advance_cascade() {
    assert_identical(
        "program p\nparameter (n = 48)\nreal a(n), b(n)\ndo i = 1, n\n\
         a(i) = i * 1.0\nb(i) = 0.0\nend do\nb(1) = 1.0\n\
         cdoacross i = 2, n\ncall await(1, 1)\nb(i) = a(i) + b(i - 1)\n\
         call advance(1)\nend cdoacross\nx = b(n)\nend\n",
        &["b", "x"],
        "doacross cascade",
    );
}

#[test]
fn lock_unlock_critical_sections() {
    assert_identical(
        "program p\nparameter (n = 64)\nreal a(n)\nglobal a\ns = 0.0\n\
         do i = 1, n\na(i) = 1.0\nend do\n\
         cdoall i = 1, n\ncall lock(1)\ns = s + a(i)\ncall unlock(1)\nend cdoall\nend\n",
        &["s"],
        "locks",
    );
}

#[test]
fn sections_where_and_reductions_fall_back_identically() {
    // Section assigns and WHERE run through the interpreter's bulk
    // paths in both engines (whole-statement fallback) — the charges,
    // prefetch stats, and element order must still match exactly.
    assert_identical(
        "program p\nparameter (n = 64)\nreal a(n), b(n)\nglobal a, b\n\
         do i = 1, n\nb(i) = i * 1.0 - 32.0\nend do\n\
         a(1:n) = b(1:n) * 2.0\n\
         where (a(1:n) .gt. 0.0) a(1:n) = sqrt(a(1:n))\n\
         s = sum(a(1:n))\nd = dotproduct(a(1:n), b(1:n))\nend\n",
        &["a", "s", "d"],
        "sections",
    );
}

#[test]
fn subroutine_and_function_calls_with_aliasing_actuals() {
    assert_identical(
        "program p\nparameter (n = 6)\nreal a(n, n)\ndo j = 1, n\ndo i = 1, n\n\
         a(i, j) = j * 100.0 + i\nend do\nend do\ncall zap(a(1, 2), n)\n\
         x = f(a(2, 2)) + f(3.0)\nend\n\
         subroutine zap(col, m)\nreal col(m)\ndo i = 1, m\ncol(i) = 0.0\nend do\nend\n\
         real function f(v)\nf = v * v + 1.0\nend\n",
        &["a", "x"],
        "calls/aliasing",
    );
}

#[test]
fn timer_regions_and_common_blocks() {
    assert_identical(
        "program p\ncommon /blk/ w(4), total\ncall tstart\ndo i = 1, 4\n\
         w(i) = i * 1.0\nend do\ncall addup\ncall tstop\nx = total\nend\n\
         subroutine addup\ncommon /blk/ v(4), t\nt = v(1) + v(2) + v(3) + v(4)\nend\n",
        &["x"],
        "timer/common",
    );
}

#[test]
fn stop_statement_halts_both_engines_alike() {
    assert_identical("program p\nx = 1.0\nstop\nx = 2.0\nend\n", &["x"], "stop");
}

// ---------------------------------------------------------------------
// Edge cases: degenerate loops and bounds.
// ---------------------------------------------------------------------

#[test]
fn empty_loop_bodies() {
    assert_identical(
        "program p\ns = 0.0\ndo i = 1, 10\nend do\n\
         cdoall i = 1, 8\nend cdoall\ns = 1.0\nend\n",
        &["s"],
        "empty bodies",
    );
}

#[test]
fn zero_trip_do_loops() {
    assert_identical(
        "program p\ns = 0.0\ndo i = 5, 1\ns = s + 1.0\nend do\n\
         do i = 1, 10, -1\ns = s + 1.0\nend do\nend\n",
        &["s"],
        "zero trip",
    );
}

#[test]
fn negative_stride_loops() {
    assert_identical(
        "program p\nparameter (n = 16)\nreal a(n)\ndo i = n, 1, -1\n\
         a(i) = i * 2.0\nend do\ns = 0.0\ndo i = n, 1, -3\ns = s + a(i)\nend do\nend\n",
        &["a", "s"],
        "negative stride",
    );
}

#[test]
fn section_aliasing_overlapping_copy() {
    assert_identical(
        "program p\nparameter (n = 12)\nreal a(n)\ndo i = 1, n\n\
         a(i) = i * 1.0\nend do\na(2:9) = a(1:8)\na(1:4) = a(5:8)\nend\n",
        &["a"],
        "section aliasing",
    );
}

// ---------------------------------------------------------------------
// Error taxonomy: every failure class must be byte-for-byte the same.
// ---------------------------------------------------------------------

#[test]
fn do_step_of_zero_same_error() {
    let e = assert_same_error("program p\nk = 0\ndo i = 1, 10, k\nend do\nend\n", "zero step");
    assert!(e.msg.contains("DO step of zero"), "{e}");
}

#[test]
fn out_of_bounds_subscript_same_error() {
    assert_same_error("program p\nreal a(3)\ndo i = 1, 5\na(i) = 0.0\nend do\nend\n", "oob store");
    assert_same_error(
        "program p\nreal a(3)\ns = 0.0\ndo i = 1, 5\ns = s + a(i)\nend do\nend\n",
        "oob load",
    );
}

#[test]
fn deadlocked_await_same_error() {
    let e = assert_same_error(
        "program p\nparameter (n = 16)\nreal a(n), b(n)\ndo i = 1, n\n\
         a(i) = i * 1.0\nb(i) = 0.0\nend do\nb(1) = 1.0\n\
         cdoacross i = 2, n\ncall await(1, 1)\nb(i) = a(i) + b(i - 1)\n\
         end cdoacross\nx = b(n)\nend\n",
        "deadlocked await",
    );
    assert!(e.is_deadlock(), "{e}");
}

#[test]
fn do_while_iteration_bound_same_error() {
    let e = assert_same_error(
        "program p\nx = 1.0\ndo while (x .gt. 0.0)\nx = x + 1.0\nend do\nend\n",
        "while bound",
    );
    assert!(e.msg.contains("DO WHILE"), "{e}");
}

#[test]
fn watchdog_budget_trips_at_the_same_statement() {
    let src = "program p\ns = 0.0\ndo i = 1, 100000\ns = s + 1.0\nend do\nend\n";
    let mut ci = cfg(Engine::Interp);
    ci.watchdog_ops = 500;
    let mut cv = cfg(Engine::Vm);
    cv.watchdog_ops = 500;
    let ei = run_with(src, ci).err().expect("interp watchdog");
    let ev = run_with(src, cv).err().expect("vm watchdog");
    assert_eq!(ei.kind, ev.kind);
    assert_eq!(ei.msg, ev.msg, "ops_executed must advance in lockstep");
    assert_eq!(ei.span, ev.span);
}

// ---------------------------------------------------------------------
// Race detection, fault injection, and the fast-path ablation.
// ---------------------------------------------------------------------

#[test]
fn race_reports_are_identical() {
    let src = "program p\nparameter (n = 64)\nreal a(n), t\n\
         cdoall i = 1, n\nt = real(i) * 2.0\na(i) = t + 1.0\nend cdoall\nend\n";
    let p = Box::leak(Box::new(cedar_ir::compile_free(src).unwrap()));
    let i = cedar_sim::run_collecting_races(p, cfg(Engine::Interp)).unwrap();
    let v = cedar_sim::run_collecting_races(p, cfg(Engine::Vm)).unwrap();
    assert_eq!(i.races_detected(), v.races_detected());
    assert!(v.races_detected() > 0, "the seeded race must be found");
    assert_eq!(
        format!("{:?}", i.race_report()),
        format!("{:?}", v.race_report()),
        "race endpoints (vars, spans, access kinds) must match"
    );
    assert_same_sim(&i, &v, &["a"], "race collect");
}

#[test]
fn fault_injected_schedules_are_identical() {
    let src = "program p\nparameter (n = 256)\nreal a(n), b(n)\nglobal a, b\n\
         do i = 1, n\nb(i) = i * 1.0\nend do\n\
         cdoall i = 1, n\na(i) = sqrt(b(i)) + b(i)\nend cdoall\nx = a(100)\nend\n";
    let p = Box::leak(Box::new(cedar_ir::compile_free(src).unwrap()));
    for seed in [1u64, 9, 42] {
        let i =
            cedar_sim::run_with_faults(p, cfg(Engine::Interp), FaultConfig::legal(seed)).unwrap();
        let v = cedar_sim::run_with_faults(p, cfg(Engine::Vm), FaultConfig::legal(seed)).unwrap();
        assert_same_sim(&i, &v, &["a", "x"], &format!("faults seed {seed}"));
    }
}

#[test]
fn without_fast_paths_ablation_matches_across_engines() {
    // Disabling the fast paths must change both engines the same way —
    // the VM's bulk section ops are the interpreter's (whole-statement
    // fallback), so one switch governs both. The ablated runs must also
    // agree with each other.
    let src = "program p\nparameter (n = 512)\nreal a(n), b(n)\nglobal a, b\n\
         do i = 1, n\nb(i) = i * 1.0\nend do\na(1:n) = b(1:n) * 2.0\n\
         s = sum(a(1:n))\nend\n";
    let fast_i = run_with(src, cfg(Engine::Interp)).unwrap();
    let fast_v = run_with(src, cfg(Engine::Vm)).unwrap();
    let slow_i = run_with(src, cfg(Engine::Interp).without_fast_paths()).unwrap();
    let slow_v = run_with(src, cfg(Engine::Vm).without_fast_paths()).unwrap();
    assert_same_sim(&fast_i, &fast_v, &["a", "s"], "fast paths on");
    assert_same_sim(&slow_i, &slow_v, &["a", "s"], "fast paths off");
    // The metamorphic property itself: fast paths make the exact
    // slow-path charge sequence, so the ablation changes *host* time
    // only — simulated cycles must not move under either engine.
    assert_same_sim(&fast_v, &slow_v, &["a", "s"], "vm ablation metamorphic");
}

#[test]
fn declared_shapes_agree_across_engines_fast_paths_and_races() {
    // Every kind of declared shape the simulator evaluates: locals
    // dimensioned by PARAMETER expressions (in the main program and in
    // a subroutine), an adjustable dummy, an assumed-size dummy, and
    // the loop locals of a CDOALL, one of which is passed on as an
    // assumed-size actual. The shapes are evaluated where they are
    // declared, and what that charges is the same with or without the
    // fast paths and the race detector.
    let p = leak(
        "program p\nparameter (n = 6, m = 2 * n)\nreal a(n, m), s(n), w(m + 1)\nglobal a, s\n\
         do j = 1, m\ndo i = 1, n\na(i, j) = i + j * 0.5\nend do\nend do\n\
         call adj(a, n, m)\ncall asz(a, n)\n\
         cdoall i = 1, n\nreal t(m - 1), u(2 * n)\ndo j = 1, m - 1\nt(j) = a(i, j) * 2.0\n\
         end do\ncall asz(t, 1)\nu(n) = t(2)\ns(i) = t(1) + u(n)\nend cdoall\n\
         w(m + 1) = s(n)\nend\n\
         subroutine adj(d, k, l)\nparameter (nq = 3)\nreal d(k, l)\ninteger v(nq * 2)\n\
         do j = 1, l\nd(k, j) = d(1, j) + j\nend do\nv(nq * 2) = k\nd(1, 1) = v(6)\nend\n\
         subroutine asz(e, k)\nreal e(k, *)\ne(k, 2) = e(1, 1) * 3.0\nend\n",
    );
    let vars = ["a", "s", "w"];
    let tweaks: [(&str, Tweak); 3] = [
        ("plain", |c| c),
        ("no-fast-paths", MachineConfig::without_fast_paths),
        ("races", MachineConfig::with_race_detection),
    ];
    let reference = run_under(p, cfg(Engine::Interp), false).unwrap();
    for (name, tweak) in tweaks {
        for engine in [Engine::Interp, Engine::Vm] {
            let sim = run_under(p, tweak(cfg(engine)), false).unwrap();
            assert_same_sim(&reference, &sim, &vars, &format!("{name} {engine:?}"));
        }
    }
    // s(i) = t(1) + 3 t(1) with t(1) = 2 a(i, 1): `adj` set a(1, 1) = 6
    // and a(6, 1) = 2.5, the rest are i + 0.5.
    assert_eq!(reference.read_f64("s").unwrap(), [48.0, 20.0, 28.0, 36.0, 44.0, 20.0]);
    assert_eq!(reference.read_f64("w").unwrap()[12], 20.0);
}

#[test]
fn extreme_declared_dims_address_alike_on_both_engines() {
    // A dummy `a(lo:hi)` over all of `i64`: its extent wraps to 0, and
    // every executor computes an address in wrapping arithmetic through
    // one function. An element near the lower bound is found, in scalar
    // statements and in a 16-trip loop; one whose offset from `lo`
    // wraps negative, or one past the storage, is out of bounds on
    // every path.
    const CALLEE: &str = "subroutine s(a, lo, hi, k)\ninteger lo, hi, k\nreal a(lo:hi)\n\
         do i = 0, 15\na(lo + i) = i * 2.0\nend do\na(lo + k) = -1.0\nend\n";
    let program = |k: &str| {
        leak(&format!(
            "program p\nreal x(16)\ninteger lo\nlo = -9223372036854775807 - 1\n\
             call s(x, lo, 9223372036854775807, {k})\nend\n{CALLEE}"
        ))
    };
    identical_everywhere(program("3"), |c| c, &["x"], "inside");
    let x = run_under(program("3"), cfg(Engine::Vm), false).unwrap().read_f64("x").unwrap();
    let want: Vec<f64> = (0..16).map(|i| if i == 3 { -1.0 } else { i as f64 * 2.0 }).collect();
    assert_eq!(x, want);
    for k in ["-1", "16"] {
        let e = same_error_everywhere(program(k), |c| c, k);
        assert_eq!(e.kind, cedar_sim::SimErrorKind::OutOfBounds, "{k}: {e}");
    }
}

#[test]
fn an_assumed_size_shape_with_no_actual_is_refused_by_its_kind() {
    // A local declared with `*` reaches the simulator; a loop local
    // cannot be written so (lowering refuses it), so it is made so in
    // the IR. Neither has an actual to take its size from.
    let e = assert_same_error("program p\nreal a(4, *)\nx = 1.0\nend\n", "local");
    assert_eq!(e.msg, "assumed-size array `a` without caller binding");
    let mut p = cedar_ir::compile_free(
        "program p\nreal a(8)\nglobal a\ncdoall i = 1, 8\nreal t(2)\nt(1) = i\na(i) = t(1)\n\
         end cdoall\nend\n",
    )
    .unwrap();
    let t = p.units[0].symbols.iter_mut().find(|s| s.kind == cedar_ir::SymKind::LoopLocal);
    t.expect("the CDOALL's local").dims[0].upper = None;
    let e = same_error_everywhere(Box::leak(Box::new(p)), |c| c, "loop local");
    assert_eq!(e.msg, "assumed-size loop local");
}

#[test]
fn a_unit_defined_twice_is_called_by_its_first_definition() {
    // Both engines resolve callees through one index, in which the first
    // definition of a name wins: a CALL and a function reference alike.
    // Lowering refuses a second definition, so the IR is renamed.
    let mut p = cedar_ir::compile_free(
        "program p\nx = 0.0\ncall s(x)\ny = f(2.0)\nend\nsubroutine s(v)\nv = 1.0\nend\n\
         subroutine t(v)\nv = 2.0\nend\nreal function f(a)\nf = a\nend\n\
         real function g(a)\ng = -a\nend\n",
    )
    .unwrap();
    for (from, to) in [("t", "s"), ("g", "f")] {
        p.units.iter_mut().find(|u| u.name == from).expect("the second unit").name = to.into();
    }
    let p = Box::leak(Box::new(p));
    identical_everywhere(p, |c| c, &["x", "y"], "defined twice");
    let sim = run_under(p, cfg(Engine::Vm), false).unwrap();
    assert_eq!((sim.read_f64("x").unwrap(), sim.read_f64("y").unwrap()), (vec![1.0], vec![2.0]));
}

#[test]
fn precompiled_artifact_reuse_is_identical_to_fresh_compile() {
    let src = "program p\nparameter (n = 64)\nreal a(n)\ndo i = 1, n\n\
         a(i) = i * 1.0\nend do\ns = sum(a(1:n))\nend\n";
    let p = Box::leak(Box::new(cedar_ir::compile_free(src).unwrap()));
    let artifact = cedar_sim::compile(p);
    let fresh = cedar_sim::run(p, cfg(Engine::Vm)).unwrap();
    for _ in 0..3 {
        let reused = cedar_sim::run_precompiled(p, cfg(Engine::Vm), &artifact).unwrap();
        assert_same_sim(&fresh, &reused, &["a", "s"], "artifact reuse");
    }
}

// ---------------------------------------------------------------------
// The typed register ops, family by family. Each scenario runs under
// four configurations: plain, with the race detector live (every access
// takes the shadow-memory hooks), under a legal fault profile (every
// access cost draws from the fault RNG), and without the fast paths.
// ---------------------------------------------------------------------

type Tweak = fn(MachineConfig) -> MachineConfig;

const CONFIGS: [(&str, Tweak, bool); 4] = [
    ("plain", |c| c, false),
    ("races", MachineConfig::with_race_detection, false),
    ("faults", |c| c, true),
    ("no-fast-paths", MachineConfig::without_fast_paths, false),
];

fn run_under(
    p: &'static cedar_ir::Program,
    config: MachineConfig,
    faults: bool,
) -> Result<Simulator<'static>, SimError> {
    if faults {
        cedar_sim::run_with_faults(p, config, FaultConfig::legal(7))
    } else {
        cedar_sim::run(p, config)
    }
}

fn leak(src: &str) -> &'static cedar_ir::Program {
    Box::leak(Box::new(cedar_ir::compile_free(src).unwrap()))
}

/// [`assert_identical`] of a program under every configuration, each
/// further adjusted by `tweak`.
fn identical_everywhere(p: &'static cedar_ir::Program, tweak: Tweak, vars: &[&str], label: &str) {
    for (name, config, faults) in CONFIGS {
        let label = format!("{label} [{name}]");
        let run = |engine| {
            run_under(p, tweak(config(cfg(engine))), faults)
                .unwrap_or_else(|e| panic!("{label}: {engine:?} failed: {e}"))
        };
        assert_same_sim(&run(Engine::Interp), &run(Engine::Vm), vars, &label);
    }
}

/// [`assert_same_error`] of a program under every configuration.
fn same_error_everywhere(p: &'static cedar_ir::Program, tweak: Tweak, label: &str) -> SimError {
    let mut last = None;
    for (name, config, faults) in CONFIGS {
        let label = format!("{label} [{name}]");
        let run = |engine| match run_under(p, tweak(config(cfg(engine))), faults) {
            Err(e) => e,
            Ok(_) => panic!("{label}: {engine:?} unexpectedly succeeded"),
        };
        let (ei, ev) = (run(Engine::Interp), run(Engine::Vm));
        assert_errors_equal(&ei, &ev, &label);
        last = Some(ev);
    }
    last.expect("four configurations")
}

/// Declarations and values shared by the expression scenarios.
const OPERANDS: &str = "program p\ninteger i, j, k(40)\nreal x, y, z, r(60)\n\
     logical l, m, b(40)\ni = 7\nj = -3\nx = 2.5\ny = -0.75\nl = .true.\nm = .false.\n";

#[test]
fn mixed_mode_promotion_in_every_operand_order() {
    // Every pairing of INTEGER, REAL and LOGICAL operands, both ways
    // round, stored to a REAL (exact), an INTEGER (truncating) and a
    // LOGICAL (non-zero) target.
    let pairs = [
        ("i", "j"),
        ("i", "x"),
        ("x", "i"),
        ("x", "y"),
        ("l", "i"),
        ("i", "l"),
        ("l", "x"),
        ("x", "l"),
        ("l", "m"),
        ("m", "l"),
    ];
    let mut src = String::from(OPERANDS);
    let mut n = 0;
    for (a, b) in pairs {
        for op in ["+", "-", "*"] {
            n += 1;
            let e = format!("{a} {op} {b}");
            src += &format!("r({n}) = {e}\nk({n}) = {e}\nb({n}) = {e}\n");
        }
    }
    // Division by anything but the false LOGICAL and a zero INTEGER.
    let dividable =
        [("i", "j"), ("i", "x"), ("x", "i"), ("x", "y"), ("i", "l"), ("x", "l"), ("l", "x")];
    for (a, b) in dividable {
        n += 1;
        src += &format!("r({n}) = {a} / {b}\nk({n}) = {a} / {b}\n");
    }
    src += "end\n";
    identical_everywhere(leak(&src), |c| c, &["r", "k", "b"], "promotion");
}

#[test]
fn integer_division_truncates_toward_zero_and_faults_on_zero() {
    let src = format!(
        "{OPERANDS}k(1) = i / 2\nk(2) = (-i) / 2\nk(3) = i / (-2)\nk(4) = i / j\n\
         k(5) = j / i\nr(1) = i / 2\nr(2) = j / 2 * 2.0\nend\n"
    );
    identical_everywhere(leak(&src), |c| c, &["k", "r"], "integer division");
    for stmt in ["k(1) = i / (j + 3)", "if (i / (j + 3) .gt. 0) x = 1.0", "r(i / (j + 3)) = 1.0"] {
        let e = same_error_everywhere(
            leak(&format!("{OPERANDS}{stmt}\nend\n")),
            |c| c,
            "integer division by zero",
        );
        assert_eq!(e.kind, cedar_sim::SimErrorKind::DivByZero, "{e}");
        assert_eq!(e.span, cedar_ir::Span::new(11), "{e}");
    }
    // A REAL zero divisor is IEEE, not a fault.
    let src = format!("{OPERANDS}z = 0.0\nr(1) = x / z\nr(2) = z / z\nr(3) = i / z\nend\n");
    identical_everywhere(leak(&src), |c| c, &["r"], "real division by zero");
}

/// The most negative integer over -1 wraps, as every other integer
/// operation does: the quotient is itself and `mod` is 0. In a scalar
/// statement, in a loop the VM runs as a kernel, and over vector lanes.
#[test]
fn the_most_negative_integer_over_minus_one_wraps() {
    const HEAD: &str = "program p\ninteger i, m, k(8), v(8)\ni = -9223372036854775807\n\
                        i = i - 1\nm = -1\n";
    let want = |k: [i64; 4]| {
        move |sim: &Simulator<'_>, label: &str| {
            let got = sim.read_var("k").expect("k is an array")[..4].to_vec();
            assert_eq!(got, k.map(cedar_ir::Value::I), "{label}");
        }
    };
    let min = i64::MIN;
    let scalar =
        format!("{HEAD}k(1) = i / (-1)\nk(2) = mod(i, -1)\nk(3) = i / m\nk(4) = mod(i, m)\nend\n");
    identical_everywhere(leak(&scalar), |c| c, &["k"], "scalar");
    want([min, 0, min, 0])(&run_with(&scalar, cfg(Engine::Vm)).unwrap(), "scalar");

    let kernel = format!("{HEAD}do j = 1, 8\nk(j) = i / m + mod(i, m) * j + j\nend do\nend\n");
    let (sim, r) = kernel_identical(&kernel, cfg(Engine::Vm), &["k"], "kernel");
    r.expect("runs");
    want([min + 1, min + 2, min + 3, min + 4])(&sim, "kernel");

    let lanes = format!("{HEAD}v(1:8) = i\nk(1:4) = v(1:4) / m\nk(5:8) = mod(v(5:8), m)\nend\n");
    identical_everywhere(leak(&lanes), |c| c, &["k", "v"], "lanes");
    let sim = run_with(&lanes, cfg(Engine::Vm)).unwrap();
    want([min; 4])(&sim, "lanes");
    assert_eq!(sim.read_var("k").unwrap()[4..], [cedar_ir::Value::I(0); 4]);
}

#[test]
fn power_operator_families() {
    let src = format!(
        "{OPERANDS}k(1) = i ** 2\nk(2) = i ** 0\nk(3) = 2 ** j\nk(4) = 1 ** j\n\
         k(5) = (-1) ** j\nk(6) = (-1) ** (j - 1)\nk(7) = i ** 70\nk(8) = j ** 3\n\
         r(1) = x ** i\nr(2) = x ** j\nr(3) = x ** y\nr(4) = i ** x\nr(5) = i ** y\n\
         r(6) = y ** 2\nr(7) = y ** 0.5\nr(8) = l ** i\nr(9) = x ** l\nr(10) = i ** l\n\
         k(9) = x ** 2\nk(10) = (-1) ** (i * 10 - 6)\nk(11) = j ** (i * 1000000000)\n\
         r(11) = y ** (i * 1000000001)\nr(12) = x ** (j * 1000000000)\nend\n"
    );
    identical_everywhere(leak(&src), |c| c, &["k", "r"], "power");
    let e = same_error_everywhere(
        leak(&format!("{OPERANDS}k(1) = (i - 7) ** (j + 2)\nend\n")),
        |c| c,
        "zero to a negative power",
    );
    assert_eq!(e.kind, cedar_sim::SimErrorKind::DivByZero, "{e}");
    assert!(e.msg.contains("0 ** negative"), "{e}");
}

#[test]
fn comparisons_including_nan() {
    let ops = [".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge."];
    let pairs = [
        ("i", "j"),
        ("j", "i"),
        ("i", "i"),
        ("i", "x"),
        ("x", "i"),
        ("x", "y"),
        ("x", "x"),
        ("z", "z"),
        ("z", "x"),
        ("x", "z"),
        ("i", "z"),
        ("l", "i"),
        ("l", "m"),
        ("l", "x"),
    ];
    // z is a NaN: an unordered pair reads as equal.
    let mut src = format!("{OPERANDS}z = 0.0\nz = z / z\n");
    let mut n = 0;
    for (a, b) in pairs {
        n += 1;
        for (k, op) in ops.iter().enumerate() {
            // Six results per pair, packed into one integer cell and
            // kept apart in the logical array of the first pairs.
            src += &format!("if ({a} {op} {b}) k({n}) = k({n}) + {}\n", 1 << k);
        }
    }
    for (k, op) in ops.iter().enumerate() {
        src += &format!("b({}) = z {op} z\nb({}) = i {op} x\n", k + 1, k + 7);
    }
    src += "end\n";
    identical_everywhere(leak(&src), |c| c, &["k", "b"], "comparisons");
}

#[test]
fn logical_operators_and_unary_minus_on_a_logical() {
    let src = format!(
        "{OPERANDS}b(1) = .not. l\nb(2) = .not. m\nb(3) = l .and. m\nb(4) = l .or. m\n\
         b(5) = l .eqv. m\nb(6) = l .neqv. m\nb(7) = l .eqv. (i .gt. j)\n\
         b(8) = (x .lt. y) .neqv. (i .lt. j)\nb(9) = .not. (l .and. .not. m)\n\
         b(10) = i .and. x\nb(11) = .not. i\nb(12) = (i - 7) .or. m\n\
         k(1) = -l\nk(2) = -m\nk(3) = -(-l)\nr(1) = -l\nr(2) = -l * x\nr(3) = -x\n\
         k(4) = -i\nb(13) = -l\nend\n"
    );
    identical_everywhere(leak(&src), |c| c, &["b", "k", "r"], "logical");
}

#[test]
fn elemental_intrinsics_over_every_operand_class() {
    let src = format!(
        "{OPERANDS}r(1) = real(i)\nr(2) = dble(l)\nr(3) = real(x)\nk(1) = int(x)\nk(2) = int(y)\n\
         k(3) = nint(y)\nk(4) = nint(x)\nk(5) = int(l)\nk(6) = abs(j)\nr(4) = abs(y)\n\
         r(5) = abs(l)\nr(6) = sqrt(x)\nr(7) = sqrt(y)\nr(8) = exp(y) + log(x) + log10(x)\n\
         r(9) = sin(x) + cos(x) + tan(y) + atan(y) + atan2(y, x)\n\
         r(10) = sinh(y) + cosh(y) + tanh(y)\nk(7) = sign(i, j)\nr(11) = sign(x, y)\n\
         r(12) = sign(x, j)\nk(8) = sign(i, y)\nk(9) = mod(i, j)\nk(10) = mod(j, i)\n\
         r(13) = mod(x, y)\nr(14) = mod(i, x)\nk(11) = min(i, j, 2)\nk(12) = max(i, j, 2)\n\
         r(15) = min(i, x)\nr(16) = max(y, j, x)\nr(17) = sqrt(real(i)) * abs(y - x)\n\
         r(18) = r(int(x)) + r(mod(i, 3) + 1)\nend\n"
    );
    identical_everywhere(leak(&src), |c| c, &["r", "k"], "intrinsics");
    let e = same_error_everywhere(
        leak(&format!("{OPERANDS}k(1) = mod(i, j + 3)\nend\n")),
        |c| c,
        "mod by zero",
    );
    assert_eq!(e.kind, cedar_sim::SimErrorKind::DivByZero, "{e}");
    assert_eq!(e.span, cedar_ir::Span::new(11), "{e}");
}

#[test]
fn an_actual_of_another_type_reads_and_writes_as_its_storage() {
    // Trap (a): the dummy is REAL, the storage behind it INTEGER (a
    // variable, an expression temporary, a COMMON member declared
    // otherwise elsewhere). `v / 2` is an integer division there, and
    // a store truncates.
    let src = "program p\ninteger n, na(3)\nreal y, ya(4)\ncommon /blk/ ic, rc\n\
         integer ic\nn = 5\nna(2) = 9\nic = 11\nrc = 0.5\n\
         call half(n, ya(1))\ncall half(na(2), ya(2))\ncall half(n + 2, ya(3))\n\
         call viacommon(ya(4))\ny = n + na(2) + ic\nend\n\
         subroutine half(v, out)\nreal v, out\nout = v / 2\nv = v + 1.75\n\
         out = out + v * 0.5\nend\n\
         subroutine viacommon(out)\ncommon /blk/ c1, c2\nreal c1\ninteger c2\nreal out\n\
         out = c1 / 2 + c2\nc1 = c1 * 1.5\nc2 = 7\nend\n";
    identical_everywhere(leak(src), |c| c, &["n", "na", "y", "ya", "ic", "rc"], "retyped actuals");
}

#[test]
fn rank_seven_access_and_the_rank_nine_error() {
    let src = "program p\nreal a(2, 2, 2, 2, 2, 2, 2)\ns = 0.0\ndo i = 1, 2\ndo j = 1, 2\n\
         a(i, j, 1, 2, i, j, 2) = i * 10.0 + j\ns = s + a(i, j, 1, 2, i, j, 2)\n\
         end do\nend do\nend\n";
    identical_everywhere(leak(src), |c| c, &["a", "s"], "rank 7");
    for stmt in ["x = c(1, 1, 1, 1, 1, 1, 1, 1, 1)", "c(1, 1, 1, 1, 1, 1, 1, 1, 1) = 2.0"] {
        let e = same_error_everywhere(
            leak(&format!("program p\nreal c(1, 1, 1, 1, 1, 1, 1, 1, 1)\n{stmt}\nend\n")),
            |c| c,
            "rank 9",
        );
        assert!(e.msg.contains("rank exceeds"), "{e}");
    }
}

#[test]
fn out_of_bounds_in_the_second_dimension() {
    for stmt in ["x = a(2, j)", "a(2, j) = 1.0", "x = a(2, j - 4)", "k = ia(ia(2, 1), 4)"] {
        let e = same_error_everywhere(
            leak(&format!(
                "program p\nreal a(3, 3)\ninteger ia(3, 3)\nj = 4\nia(2, 1) = 2\n{stmt}\nend\n"
            )),
            |c| c,
            "second dimension",
        );
        assert_eq!(e.kind, cedar_sim::SimErrorKind::OutOfBounds, "{e}");
        assert_eq!(e.span, cedar_ir::Span::new(6), "{e}");
    }
    // Inside the declared bounds of a dummy, outside the actual's storage.
    let e = same_error_everywhere(
        leak(
            "program p\nreal a(4)\ncall f(a)\nend\n\
             subroutine f(d)\nreal d(8)\nd(2) = 1.0\nx = d(7)\nend\n",
        ),
        |c| c,
        "beyond the actual's storage",
    );
    assert!(e.msg.contains("outside storage"), "{e}");
}

#[test]
fn use_of_an_unbound_variable() {
    use cedar_ir::SymKind;
    for stmt in ["y = t + 1.0", "t = 2.0", "y = a(it)", "do i = 1, it\nend do"] {
        // A loop local outside its loop has no binding; the front end
        // never produces that, so retag a plain variable by hand.
        let mut p = cedar_ir::compile_free(&format!(
            "program p\nreal a(4)\nt = 1.0\nit = 1\n{stmt}\nend\n"
        ))
        .unwrap();
        for sym in &mut p.units[0].symbols {
            if sym.name == "t" || sym.name == "it" {
                sym.kind = SymKind::LoopLocal;
            }
        }
        let e = same_error_everywhere(Box::leak(Box::new(p)), |c| c, "unbound");
        assert_eq!(e.kind, cedar_sim::SimErrorKind::Uninit, "{e}");
        assert!(e.msg.contains("used before binding"), "{e}");
    }
}

#[test]
fn loop_bounds_and_step_over_array_elements() {
    let src = "program p\ninteger lim(3), hits(40)\nreal rl(2)\nlogical one\nlim(1) = 2\n\
         lim(2) = 31\nlim(3) = 3\nrl(1) = 1.9\nrl(2) = 6.2\none = .true.\nn = 0\n\
         do i = lim(1), lim(2) - lim(1), lim(3)\nn = n + 1\nhits(i) = n\nend do\n\
         do i = lim(lim(1) + 1) * 2, lim(1), -lim(3)\nhits(i + 20) = i\nend do\n\
         do i = rl(1), rl(2), one\nn = n + i\nend do\n\
         x = 10.0\ndo while (x .gt. rl(1) * lim(1))\nx = x - rl(2) / lim(3)\nend do\nend\n";
    identical_everywhere(leak(src), |c| c, &["hits", "n", "x", "i"], "computed bounds");
}

#[test]
fn watchdog_trips_inside_a_compiled_loop_bound() {
    // The bound calls a function whose loop exhausts the budget: the
    // error must name the same statement with the same count.
    let p = leak(
        "program p\ns = 0.0\ndo i = 1, nlim(3)\ns = s + 1.0\nend do\nend\n\
         integer function nlim(k)\nnlim = 0\ndo j = 1, 100\nnlim = nlim + k\nend do\nend\n",
    );
    let e = same_error_everywhere(
        p,
        |mut c| {
            c.watchdog_ops = 50;
            c
        },
        "watchdog in bound",
    );
    assert_eq!(e.kind, cedar_sim::SimErrorKind::Limit, "{e}");
    identical_everywhere(p, |c| c, &["s"], "bound calling a function");
}

#[test]
fn condition_errors_carry_the_statement_they_belong_to() {
    // IF and ELSE IF conditions are stamped with the IF; a DO WHILE
    // condition with the DO WHILE; loop bounds with nothing.
    for (stmt, line) in [
        ("if (a(j) .gt. 0.0) x = 1.0", 4),
        ("if (j .lt. 0) then\nx = 1.0\nelse if (a(j) .gt. 0.0) then\nx = 2.0\nend if", 4),
        ("do while (a(j) .lt. 1.0)\nj = j + 1\nend do", 4),
        ("do i = 1, a(j)\nend do", 0),
    ] {
        let e = same_error_everywhere(
            leak(&format!("program p\nreal a(3)\nj = 4\n{stmt}\nend\n")),
            |c| c,
            "condition stamp",
        );
        assert_eq!(e.span.line, line, "{e}");
    }
}

// ---------------------------------------------------------------------
// Typed lanes: vector statements work on one class-tagged buffer per
// operand (DESIGN.md §14, "The lane model"). Both engines run the same
// implementation, so besides engine identity under the four
// configurations each scenario is held against an independent oracle:
// the same computation written as a scalar loop, which goes through
// `value_ops` one boxed element at a time.
// ---------------------------------------------------------------------

/// Arrays of each class with a zero, negative values and a NaN-free
/// REAL column; `n` lanes.
const LANES: &str = "program p\nparameter (n = 9)\n\
     integer ia(n), ib(n), id(n), ip(n), k\nreal ra(n), rb(n), rp(n), x, y\n\
     logical la(n), lb(n)\nreal m2(4, 5)\ninteger im(4, 5)\n\
     do i = 1, n\nia(i) = i - 4\nib(i) = 5 - i\nid(i) = i\nip(i) = n + 1 - i\n\
     ra(i) = i * 1.5 - 6.0\nrb(i) = 2.0 - i * 0.25\nrp(i) = i + 0.7\n\
     la(i) = mod(i, 2) .eq. 0\nlb(i) = i .gt. 4\nend do\n\
     do j = 1, 5\ndo i = 1, 4\nm2(i, j) = i * 10.0 + j\nim(i, j) = i - j\nend do\nend do\n\
     x = 0.0\ny = 0.0\nk = 3\n";

/// `cases` of `(vector form, scalar form)` right-hand sides: each is
/// stored to a REAL, an INTEGER and a LOGICAL column, once as a vector
/// statement over `(1:n)` and once by a scalar loop over `(i)`; the
/// columns must agree bit for bit, and the engines everywhere.
fn vector_matches_scalar(cases: &[(String, String)], setup: &str, label: &str) {
    let m = cases.len();
    let mut src = LANES.replacen(
        "logical la(n), lb(n)\n",
        &format!(
            "logical la(n), lb(n)\nreal vr(n, {m}), sr(n, {m})\ninteger vi(n, {m}), si(n, {m})\n\
             logical vl(n, {m}), sl(n, {m})\n"
        ),
        1,
    );
    src += setup;
    for (c, (vector, scalar)) in cases.iter().enumerate() {
        let c = c + 1;
        src += &format!(
            "vr(1:n, {c}) = {vector}\nvi(1:n, {c}) = {vector}\nvl(1:n, {c}) = {vector}\n\
             do i = 1, n\nsr(i, {c}) = {scalar}\nsi(i, {c}) = {scalar}\nsl(i, {c}) = {scalar}\nend do\n"
        );
    }
    src += "end\n";
    let p = leak(&src);
    identical_everywhere(p, |c| c, &["vr", "vi", "vl", "sr", "si", "sl"], label);
    let sim = cedar_sim::run(p, cfg(Engine::Vm)).unwrap();
    for (v, s) in [("vr", "sr"), ("vi", "si"), ("vl", "sl")] {
        let (v, s) =
            (bit_patterns(sim.read_var(v)).unwrap(), bit_patterns(sim.read_var(s)).unwrap());
        for (at, (a, b)) in v.iter().zip(&s).enumerate() {
            let (vector, _) = &cases[at / 9];
            assert_eq!(
                a,
                b,
                "{label}: `{vector}` lane {} differs from the scalar loop",
                at % 9 + 1
            );
        }
    }
}

/// `name(1:n)` / `name(i)` for an array, the text itself for a scalar.
fn operand(name: &str) -> (String, String) {
    if name.len() == 2 && name.chars().all(|c| c.is_ascii_lowercase()) {
        (format!("{name}(1:n)"), format!("{name}(i)"))
    } else {
        (name.to_string(), name.to_string())
    }
}

#[test]
fn every_operator_over_every_pairing_of_lane_classes() {
    // INTEGER, REAL and LOGICAL arrays and scalars on either side of
    // every operator; the right operand is never an integer zero.
    let ops = [
        "+", "-", "*", "/", "**", ".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge.", ".and.", ".or.",
        ".eqv.", ".neqv.",
    ];
    let mut cases = Vec::new();
    for op in ops {
        for l in ["ia", "ra", "la", "x", "k", "2.5"] {
            for r in ["id", "rb", "lb", "2", "0.5"] {
                let ((lv, ls), (rv, rs)) = (operand(l), operand(r));
                if lv == ls && rv == rs {
                    continue; // no vector operand
                }
                cases.push((format!("{lv} {op} {rv}"), format!("{ls} {op} {rs}")));
            }
        }
    }
    // `I ** I` by cases: a negative exponent under a base of 1, -1, 2.
    for base in ["1", "(-1)", "2", "id"] {
        let (bv, bs) = operand(base);
        cases.push((format!("{bv} ** ia(1:n)"), format!("{bs} ** ia(i)")));
    }
    vector_matches_scalar(&cases, "x = 1.25\n", "operators");
}

#[test]
fn unary_operators_and_coercing_stores_over_every_lane_class() {
    // The three target columns of `vector_matches_scalar` are the
    // coercing stores: REAL lanes truncate into an INTEGER array,
    // INTEGER lanes widen into a REAL one, anything non-zero is true.
    let mut cases = Vec::new();
    for a in ["ia", "ra", "la", "rp"] {
        let (v, s) = operand(a);
        cases.push((v.clone(), s.clone()));
        cases.push((format!("-{v}"), format!("-{s}")));
        cases.push((format!(".not. {v}"), format!(".not. {s}")));
        cases.push((format!("-(-{v}) * (-1.5)"), format!("-(-{s}) * (-1.5)")));
    }
    vector_matches_scalar(&cases, "", "unary and stores");
    // And back: a truncated column read as REAL lanes again.
    let src = format!(
        "{LANES}ib(1:n) = rp(1:n) * (-1.0)\nrb(1:n) = ib(1:n)\nla(1:n) = rb(1:n) + 2\n\
         id(1:n) = la(1:n)\nend\n"
    );
    identical_everywhere(leak(&src), |c| c, &["ib", "rb", "la", "id"], "store and back");
}

#[test]
fn nan_lanes_under_all_six_comparisons() {
    // Trap (a): an unordered pair reads `Equal`, so `.le.` and `.ge.`
    // hold on a NaN lane and `.lt.`, `.gt.`, `.ne.` do not.
    let mut cases = Vec::new();
    for op in [".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge."] {
        for (l, r) in [
            ("ra", "rb"),
            ("rb", "ra"),
            ("ra", "ra"),
            ("ia", "ra"),
            ("ra", "ia"),
            ("la", "ra"),
            ("ra", "0.0"),
        ] {
            let ((lv, ls), (rv, rs)) = (operand(l), operand(r));
            cases.push((format!("{lv} {op} {rv}"), format!("{ls} {op} {rs}")));
        }
    }
    vector_matches_scalar(
        &cases,
        "ra(3) = x / x\nrb(7) = x / x\nra(5) = rb(5)\n",
        "NaN comparisons",
    );
    // The reductions see the NaN lanes too, folded in lane order.
    let src = format!(
        "{LANES}ra(3) = x / x\nx = maxval(ra(1:n)) + minval(ra(1:n))\nk = maxloc(ra(1:n)) + minloc(ra(1:n))\n\
         y = sum(ra(1:n))\nwhere (ra(1:n) .le. rb(1:n)) rp(1:n) = 1.0\nend\n"
    );
    identical_everywhere(leak(&src), |c| c, &["x", "k", "y", "rp"], "NaN reductions");
}

#[test]
fn a_failing_lane_raises_the_scalar_error_at_that_lane() {
    // `ib` is zero in lane 5 and `ia` in lane 4: the lanes before them
    // are computed, the statement is stamped, nothing is stored.
    for (stmt, msg) in [
        ("id(1:n) = ia(1:n) / ib(1:n)", "integer division by zero"),
        ("id(1:n) = ia(1:n) ** (-id(1:n))", "0 ** negative"),
        ("id(1:n) = mod(ia(1:n), ib(1:n))", "mod by zero"),
        ("rp(1:n) = ra(1:n) + ia(1:n) / ib(1:n)", "integer division by zero"),
        ("where (ia(1:n) / ib(1:n) .gt. 0) rp(1:n) = 1.0", "integer division by zero"),
        ("x = sum(ia(1:n) / ib(1:n))", "integer division by zero"),
        ("rp(ia(1:n) / ib(1:n)) = 1.0", "integer division by zero"),
        ("k = 0 ** (-1) + sum(id(1:n))", "0 ** negative"),
    ] {
        let e = same_error_everywhere(leak(&format!("{LANES}{stmt}\nend\n")), |c| c, stmt);
        assert_eq!(e.kind, cedar_sim::SimErrorKind::DivByZero, "{stmt}: {e}");
        assert!(e.msg.contains(msg), "{stmt}: {e}");
        assert_eq!(e.span, cedar_ir::Span::new(LANES.lines().count() as u32 + 1), "{stmt}: {e}");
    }
}

#[test]
fn where_with_masks_of_every_class_and_shape() {
    let src = format!(
        "{LANES}where (ia(1:n)) rp(1:n) = ra(1:n) * 2.0\nwhere (ra(1:n) + 1.5) id(1:n) = ib(1:n)\n\
         where (la(1:n)) lb(1:n) = .not. lb(1:n)\nwhere (ia(1:7:2) .gt. 0) rb(1:7:2) = 9.0\n\
         where (ia(1:4)) rb(ip(1:4)) = ra(1:4)\nwhere (lb(1:n)) ib(1:n) = ra(1:n)\n\
         where (ia(1:n)) ra(n:1:-1) = sqrt(rp(1:n))\nwhere (im(1:4, 2:3) .lt. 0) m2(1:4, 2:3) = 0.5\nend\n"
    );
    identical_everywhere(leak(&src), |c| c, &["rp", "id", "lb", "rb", "ib", "ra", "m2"], "where");
    // The scalar form of an INTEGER mask: non-zero is true.
    let (sim, want) = (
        cedar_sim::run(
            leak(&format!("{LANES}where (ia(1:n)) rp(1:n) = -1.0\nend\n")),
            cfg(Engine::Vm),
        ),
        cedar_sim::run(
            leak(&format!("{LANES}do i = 1, n\nif (ia(i) .ne. 0) rp(i) = -1.0\nend do\nend\n")),
            cfg(Engine::Vm),
        ),
    );
    assert_eq!(sim.unwrap().read_f64("rp"), want.unwrap().read_f64("rp"));
    let e = same_error_everywhere(
        leak(&format!("{LANES}where (ia(1:n) .gt. 0) rb(1:7:2) = 9.0\nend\n")),
        |c| c,
        "mask length",
    );
    assert!(e.msg.contains("vector length mismatch: 9 vs 4"), "{e}");
}

#[test]
fn iota_gathers_and_scatters() {
    let src = format!(
        "{LANES}id(1:n) = iota(1, n)\nrb(1:n) = ra(iota(1, n))\nrp(1:n) = ra(ip(1:n))\n\
         rb(ip(1:n)) = rp(1:n)\nrp(1:4) = ra(rp(1:4))\nib(1:5) = ia(iota(3, 7)) + iota(0, 4)\n\
         rp(1:4) = m2(iota(1, 4), 2)\nrp(5:8) = m2(2, ip(6:9))\nm2(ip(6:9), 3) = ra(1:4)\n\
         ra(1:n) = ra(ip(1:n)) * rb(ip(1:n)) + iota(1, n)\nx = sum(ra(ip(1:n)))\n\
         y = dotproduct(ra(ip(1:5)), rb(iota(1, 5)))\ncall first(ra(ip(2:4)), x)\nend\n\
         subroutine first(d, s)\nreal d(2), s\ns = s + d(1) + d(2)\nend\n"
    );
    identical_everywhere(
        leak(&src),
        |c| c,
        &["id", "rb", "rp", "ib", "m2", "ra", "x", "y"],
        "gather",
    );
    // A gather is the subscripted loop.
    let sim = cedar_sim::run(
        leak(&format!("{LANES}rp(1:n) = ra(ip(1:n)) + id(iota(1, n))\nend\n")),
        cfg(Engine::Vm),
    );
    let want = cedar_sim::run(
        leak(&format!("{LANES}do i = 1, n\nrp(i) = ra(ip(i)) + id(i)\nend do\nend\n")),
        cfg(Engine::Vm),
    );
    assert_eq!(sim.unwrap().read_f64("rp"), want.unwrap().read_f64("rp"));
    for (stmt, msg) in [
        ("rp(1:4) = ra(ip(1:4) + 7)", "section lane out of bounds: [16]"),
        ("rp(ip(1:4) + 7) = ra(1:4)", "section lane out of bounds: [16]"),
        ("rp(1:4) = ra(iota(1, 3))", "vector length mismatch: 3 vs 4"),
        ("rp(1:4) = iota(1, 2) + 0", "vector length mismatch: 2 vs 4"),
        ("rp(1:4) = ra(iota(1, n * 999999999999))", "iota too large"),
    ] {
        let e = same_error_everywhere(leak(&format!("{LANES}{stmt}\nend\n")), |c| c, stmt);
        assert!(e.msg.contains(msg), "{stmt}: {e}");
    }
}

#[test]
fn multi_range_strided_and_empty_sections() {
    let src = format!(
        "{}m3(1:3, 1:4, 1:2) = 2.0\nm2(2:3, 2:4) = m2(1:2, 1:3) * 2.0\n\
         m3(1:3, 2:3, 2) = m2(1:3, 4:5) + 1.0\nim(1:4, 1:5) = m2(1:4, 1:5)\n\
         x = sum(m2(1:4, 1:5)) + sum(m3(1:3, 1:4, 1:2))\nm2(4:1:-1, 1:5:2) = m2(1:4, 1:3)\n\
         m2(1:4, 2) = m2(1:4, 3)\nm2(3, 1:5) = m2(2, 5:1:-1)\nm2(:, 4) = m2(:, 1)\nm3(2, :, 1) = m2(:, 2)\n\
         y = sum(m2(2, :)) + sum(im(:, 3))\n\
         rb(n:1:-1) = ra(1:n)\nrp(1:7:2) = ra(2:8:2)\nrp(9:1:-2) = ra(1:5)\nrp(2:8:3) = rb(9:3:-3)\n\
         ib(n:1:-1) = ia(1:n) * id(n:1:-1)\nx = x + sum(ra(1:n:2)) + sum(ra(n:2:-3))\n\
         lb(1:n:4) = la(n:1:-4)\nrp(3:3) = ra(9:9)\nrp(4:4:5) = ra(1:1:-1)\n\
         rp(5:4) = ra(5:4)\nx = x + sum(ra(5:4)) + product(ra(3:2)) + maxval(ra(9:1))\nk = maxloc(ra(5:4))\n\
         rp(1:0) = 1.0\nib(2:1) = ia(7:6) + 1\nwhere (ia(2:1)) rp(2:1) = 1.0\n\
         y = y + dotproduct(ra(2:1), rb(2:1))\nrp(12:11) = ra(20:19)\nrp(5:4) = sqrt(ra(5:4))\n\
         rp(5:4) = max(ra(5:4), 1.0)\nend\n",
        LANES.replacen("real m2(4, 5)\n", "real m2(4, 5), m3(3, 4, 2)\n", 1)
    );
    identical_everywhere(
        leak(&src),
        |c| c,
        &["m2", "m3", "im", "rb", "rp", "ib", "lb", "x", "y", "k"],
        "section shapes",
    );
    // A strided section is the strided loop.
    let sim = cedar_sim::run(
        leak(&format!("{LANES}rp(9:1:-2) = ra(1:5) - rb(1:n:2)\nend\n")),
        cfg(Engine::Vm),
    );
    let want = cedar_sim::run(
        leak(&format!("{LANES}do i = 1, 5\nrp(11 - 2 * i) = ra(i) - rb(2 * i - 1)\nend do\nend\n")),
        cfg(Engine::Vm),
    );
    assert_eq!(sim.unwrap().read_f64("rp"), want.unwrap().read_f64("rp"));
}

#[test]
fn section_shape_errors_name_the_same_lane() {
    // Trap (e): an out-of-bounds end lane falls through to the lane by
    // lane walk, whose error names the subscripts.
    for (stmt, msg) in [
        ("rp(1:4) = ra(1:5)", "vector length mismatch: 5 vs 4"),
        ("rp(1:4) = ra(1:4) + rb(1:5)", "vector length mismatch: 5 vs 4"),
        ("x = dotproduct(ra(1:4), rb(1:5))", "vector length mismatch: 5 vs 4"),
        ("rp(1:n + 1) = 1.0", "section lane out of bounds: [10] dims [(1, 9)]"),
        ("rp(1:4) = ra(7:10)", "section lane out of bounds: [10] dims [(1, 9)]"),
        ("x = sum(ra(1:11:2))", "section lane out of bounds: [11] dims [(1, 9)]"),
        ("rp(0:3) = 1.0", "section lane out of bounds: [0] dims [(1, 9)]"),
        ("rp(1:9:4) = ra(2:12:5)", "section lane out of bounds: [12] dims [(1, 9)]"),
        ("rp(10:10) = 1.0", "section lane out of bounds: [10] dims [(1, 9)]"),
        ("rp(9:10) = ra(1:2)", "section lane out of bounds: [10] dims [(1, 9)]"),
        ("m2(1:4, 1:6) = 1.0", "section lane out of bounds: [1, 6] dims [(1, 4), (1, 5)]"),
        ("m2(2:5, 1:2) = 1.0", "section lane out of bounds: [5, 1] dims [(1, 4), (1, 5)]"),
        ("x = sum(m2(1:4, 0:2))", "section lane out of bounds: [1, 0] dims [(1, 4), (1, 5)]"),
    ] {
        let e = same_error_everywhere(leak(&format!("{LANES}{stmt}\nend\n")), |c| c, stmt);
        assert!(e.msg.contains(msg), "{stmt}: {e}");
        assert_eq!(e.span, cedar_ir::Span::new(LANES.lines().count() as u32 + 1), "{stmt}: {e}");
    }
    // Nine subscripts: the descriptor holds eight. An actual argument
    // only wants the first element and is not an error.
    const RANK9: &str = "program p\nreal c(1, 1, 1, 1, 1, 1, 1, 1, 1)\n";
    for stmt in ["c(1:1, 1, 1, 1, 1, 1, 1, 1, 1) = 2.0", "x = sum(c(1:1, 1, 1, 1, 1, 1, 1, 1, 1))"]
    {
        let e = same_error_everywhere(leak(&format!("{RANK9}{stmt}\nend\n")), |c| c, stmt);
        assert!(e.msg.contains("rank exceeds"), "{stmt}: {e}");
    }
    identical_everywhere(
        leak(&format!(
            "{RANK9}real c8(2, 1, 1, 1, 1, 1, 1, 2)\ncall z(c(1:1, 1, 1, 1, 1, 1, 1, 1, 1))\n\
             c8(1:2, 1, 1, 1, 1, 1, 1, 2) = 3.0\nx = sum(c8(1:2, 1, 1, 1, 1, 1, 1, 1:2))\nend\n\
             subroutine z(d)\nreal d(1)\nd(1) = 4.0\nend\n"
        )),
        |c| c,
        &["c", "c8", "x"],
        "ranks eight and nine",
    );
}

#[test]
fn a_sub_array_actual_shorter_than_its_dummys_shape() {
    // Trap (e): inside the dummy's declared bounds, outside the storage
    // behind it — the slice fetch fails and the element by element path
    // names the element.
    const CALLEES: &str = "subroutine f(d)\nreal d(8)\nd(1:4) = 2.0\nd(1:8) = 1.0\nend\n\
         subroutine g(d)\nreal d(8)\nx = sum(d(1:8))\nend\n\
         subroutine h(d)\nreal d(8)\nx = sum(d(1:8:7))\nend\n\
         subroutine h2(d)\nreal d(8)\nd(2:8:3) = 5.0\nend\n";
    for (call, lin) in
        [("f(ra(6))", 9), ("g(ra(6))", 9), ("h(ra(6))", 12), ("h2(ra(6))", 9), ("f(m2(3, 4))", 20)]
    {
        let e = same_error_everywhere(
            leak(&format!("{LANES}call {call}\nend\n{CALLEES}")),
            |c| c,
            call,
        );
        assert!(e.msg.contains(&format!("linear index {lin} outside storage")), "{call}: {e}");
    }
    // Trap (c): a load yields the slot's class, a store coerces to the
    // binding's type and then to the slot's.
    let src = format!(
        "{LANES}call ok(ra(6), 4)\ncall ok(m2(1, 2), 8)\ncall ok(ra(2:5), 3)\ncall ig(ia)\ncall rg(rb)\n\
         call ig(id(1))\nx = sum(ra(1:n)) + sum(ia(1:n))\nend\n\
         subroutine ok(d, m)\nreal d(m)\nd(1:m) = d(1:m) * 2.0\nd(m:1:-1) = d(1:m) + 1.0\nend\n\
         subroutine ig(d)\nreal d(9)\nd(1:9) = d(1:9) / 2\nd(1:7:2) = d(2:8:2) + 0.75\n\
         where (d(1:9) .gt. 0.5) d(1:9) = d(1:9) * 1.5\nend\n\
         subroutine rg(d)\ninteger d(9)\nd(1:9) = d(1:9) / 2\nd(1:7:2) = d(2:8:2) + 3\nend\n"
    );
    identical_everywhere(
        leak(&src),
        |c| c,
        &["ra", "m2", "ia", "rb", "id", "x"],
        "retyped sections",
    );
}

#[test]
fn every_reduction_in_every_mode_over_integer_and_real_sections() {
    let mut body = String::new();
    for f in ["sum", "product", "maxval", "minval", "maxloc", "minloc"] {
        for mode in ["", "$v", "$c", "$x"] {
            for a in
                ["ra(1:n)", "ia(1:n)", "la(1:n)", "ra(n:1:-2)", "ra(ip(1:n))", "ra(1:n) * rb(1:n)"]
            {
                body += &format!("x = x * 0.5 + {f}{mode}({a})\n");
            }
        }
    }
    for mode in ["", "$v", "$c", "$x"] {
        for (a, b) in [("ra", "rb"), ("ia", "rb"), ("ia", "id"), ("ra", "la")] {
            body += &format!("y = y * 0.5 + dotproduct{mode}({a}(1:n), {b}(1:n))\n");
        }
    }
    body +=
        "rp(1:n) = ra(1:n) / sum(ra(1:n)) + maxval(rb(1:n))\nid(1:n) = ia(1:n) * maxloc(ra(1:n))\n";
    // Cluster memory, then global memory behind the prefetch unit.
    for placement in ["", "global ra, rb, ia, id, la\n"] {
        let decls = format!("logical la(n), lb(n)\n{placement}");
        let src = format!("{}{body}end\n", LANES.replacen("logical la(n), lb(n)\n", &decls, 1));
        identical_everywhere(leak(&src), |c| c, &["x", "y", "rp", "id"], "reductions");
    }
    // The values are the scalar folds.
    let sim = cedar_sim::run(
        leak(&format!("{LANES}x = sum$x(ia(1:n))\ny = dotproduct$c(ia(1:n), rb(1:n))\nk = minloc$v(ra(n:1:-1))\nend\n")),
        cfg(Engine::Vm),
    )
    .unwrap();
    let want = cedar_sim::run(
        leak(&format!(
            "{LANES}do i = 1, n\nx = x + ia(i)\ny = y + ia(i) * rb(i)\nend do\nk = n\nend\n"
        )),
        cfg(Engine::Vm),
    )
    .unwrap();
    for v in ["x", "y", "k"] {
        assert_eq!(bit_patterns(sim.read_var(v)), bit_patterns(want.read_var(v)), "{v}");
    }
}

#[test]
fn elemental_intrinsics_over_every_lane_class() {
    let mut cases = Vec::new();
    for f in [
        "sqrt", "exp", "log", "log10", "sin", "cos", "tan", "atan", "sinh", "cosh", "tanh", "abs",
        "real", "dble", "int", "nint",
    ] {
        for a in ["ra", "ia", "la", "rp"] {
            let (v, s) = operand(a);
            cases.push((format!("{f}({v})"), format!("{f}({s})")));
        }
    }
    for f in ["sign", "mod", "min", "max", "atan2"] {
        for (a, b) in [
            ("ra", "rb"),
            ("ia", "id"),
            ("ia", "rb"),
            ("ra", "id"),
            ("la", "id"),
            ("ra", "2.0"),
            ("id", "3"),
            ("x", "rb"),
        ] {
            let ((av, a_s), (bv, bs)) = (operand(a), operand(b));
            cases.push((format!("{f}({av}, {bv})"), format!("{f}({a_s}, {bs})")));
        }
    }
    cases.push((
        "max(ra(1:n), rb(1:n), 0.5, rp(1:n))".into(),
        "max(ra(i), rb(i), 0.5, rp(i))".into(),
    ));
    cases.push(("min(ia(1:n), id(1:n), 2)".into(), "min(ia(i), id(i), 2)".into()));
    cases.push((
        "sqrt(abs(ra(1:n))) + abs(-rb(1:n)) ** 2".into(),
        "sqrt(abs(ra(i))) + abs(-rb(i)) ** 2".into(),
    ));
    vector_matches_scalar(&cases, "x = -1.5\n", "intrinsics");
}

#[test]
fn vector_statements_under_every_loop_class_and_placement() {
    let src = "program p\nreal g1(64), g2(64), c1(64)\nglobal g1, g2\ncluster c1\n\
         g1(1:64) = 1.0\nc1(1:64) = 2.0\n\
         cdoall i = 1, 8\nreal t(8)\nt(1:8) = g1(i * 8 - 7:i * 8) + c1(i * 8 - 7:i * 8)\n\
         g2(i * 8 - 7:i * 8) = t(1:8) * 2.0\nend cdoall\n\
         sdoall i = 1, 4\ng1(i:64:4) = g2(i:64:4) + 1.0\nend sdoall\n\
         xdoall i = 1, 16\ng2(i * 4 - 3:i * 4) = sqrt(g1(i * 4 - 3:i * 4))\nend xdoall\n\
         x = sum$x(g2(1:64)) + sum$c(g1(1:64))\nend\n";
    identical_everywhere(leak(src), |c| c, &["g1", "g2", "x"], "loop classes");
    // Every CE writing the same eight elements: the strided and the
    // contiguous recorder report the same races on both engines.
    let racy = leak(
        "program p\nreal g1(64)\nglobal g1\ng1(1:64) = 1.0\n\
         cdoall i = 1, 8\ng1(1:8) = g1(1:8) + 1.0\ng1(9:64:8) = g1(10:64:8)\nend cdoall\nend\n",
    );
    for config in [cfg(Engine::Interp), cfg(Engine::Interp).without_fast_paths()] {
        let engine =
            |e| cedar_sim::run_collecting_races(racy, config.clone().with_engine(e)).unwrap();
        let (i, v) = (engine(Engine::Interp), engine(Engine::Vm));
        assert!(v.races_detected() > 0);
        assert_eq!(i.races_detected(), v.races_detected());
        assert_eq!(format!("{:?}", i.race_report()), format!("{:?}", v.race_report()));
    }
    // With and without the index list, the detector is told the same.
    let fast = cedar_sim::run_collecting_races(racy, cfg(Engine::Vm)).unwrap();
    let slow = cedar_sim::run_collecting_races(racy, cfg(Engine::Vm).without_fast_paths()).unwrap();
    assert_eq!(format!("{:?}", fast.race_report()), format!("{:?}", slow.race_report()));
    assert_same_sim(&fast, &slow, &["g1"], "race run, list or no list");
}

#[test]
fn sections_are_counted_as_progressions_or_lists() {
    let p = leak(&format!(
        "{LANES}rp(1:n) = ra(1:n)\nrp(n:1:-2) = ra(1:5)\nm2(2, 1:5) = 1.0\nm2(1:2, 1:2) = 0.0\n\
         rp(1:4) = ra(ip(1:4))\nrp(5:4) = 1.0\nend\n"
    ));
    let counts = |config| cedar_sim::run(p, config).unwrap().section_counts();
    let fast = counts(cfg(Engine::Vm));
    // Five one-range sections; a two-range one; a gather and its index
    // section (one range); the empty section is not counted.
    assert_eq!((fast.progressions, fast.single_range_lists, fast.other_lists), (7, 0, 2));
    assert_eq!(fast, counts(cfg(Engine::Interp)));
    let slow = counts(cfg(Engine::Vm).without_fast_paths());
    assert_eq!((slow.progressions, slow.single_range_lists, slow.other_lists), (0, 7, 2));
}

// ---------------------------------------------------------------------
// Fused scalar addressing and inline sequential loops (DESIGN.md §14,
// "Register model"): `LoadIdx`, the `ElemVar*` loads and `SeqLoop` /
// `LoopBack` make the charges, counts, detector notes and checks of the
// ops they replace, in the same order, and fail with the same errors.
// ---------------------------------------------------------------------

/// Arrays of rank 1 to 3 in each class, filled by nested loops whose
/// subscripts are the loop variables.
const FUSED: &str = "program p\ninteger i, j, k, m, n, ia(5), ib(4, 3), ic(3, 4, 2)\n\
     real a(5), b(4, 3), c(3, 4, 2), s\nlogical la(5), lb(4, 3), lc(3, 4, 2), t\n\
     do i = 1, 5\na(i) = i * 1.5\nia(i) = 6 - i\nla(i) = i .gt. 2\nend do\n\
     do j = 1, 3\ndo i = 1, 4\nb(i, j) = i * 10.0 + j\nib(i, j) = mod(i + j, 3) + 1\n\
     lb(i, j) = i .eq. j\nend do\nend do\n\
     do k = 1, 2\ndo j = 1, 4\ndo i = 1, 3\nc(i, j, k) = i * 100.0 + j * 10.0 + k\n\
     ic(i, j, k) = i - j + k\nlc(i, j, k) = mod(i + j + k, 2) .eq. 0\nend do\nend do\nend do\n\
     s = 0.0\nn = 0\nt = .false.\n";

#[test]
fn fused_subscript_and_element_loads_over_every_rank_and_class() {
    // All-variable subscripts (one fused load), variables mixed with
    // expressions (`LoadIdx` beside `ChargeIdx`), a fused load inside
    // another's subscript, and stores through variable subscripts.
    let src = format!(
        "{FUSED}do k = 1, 2\ndo j = 1, 3\ndo i = 1, 3\n\
         s = s + a(i) * b(i, j) - c(i, j, k) / ic(i, j, k) + ib(i, j)\n\
         n = n + ia(i) + ib(i, j) * ic(i, j + 1, k) + ic(ia(i + 2), j, k)\n\
         if (lc(i, j, k) .and. lb(i, j) .or. la(i)) n = n - 1\n\
         t = t .neqv. lc(i, ib(i, j), k)\nb(i, j) = c(i, j, k) + a(ia(i + 2))\n\
         ic(i, j, k) = ib(i + 1, j) * 2\nlb(i + 1, j) = la(i + 2) .and. lc(i, j, k)\n\
         end do\nend do\nend do\nend\n"
    );
    identical_everywhere(leak(&src), |c| c, &["s", "n", "t", "b", "ic", "lb"], "fused loads");
    // The detector is told of every subscript read: one iteration
    // writes `m`, the others read it only as a subscript — of fused
    // loads in the first loop, of a store in the second.
    let racy = leak(
        "program p\ninteger m, ia(8), ib(8, 8)\nreal a(8), b(8)\nm = 2\ncdoall i = 1, 8\n\
         if (i .eq. 5) m = 3\nb(i) = a(m) + ia(m) + ib(i, m)\nend cdoall\ncdoall i = 1, 8\n\
         if (i .eq. 5) m = 4\nib(i, m) = ia(i)\nend cdoall\nend\n",
    );
    for config in [cfg(Engine::Interp), cfg(Engine::Interp).without_fast_paths()] {
        let run = |e| cedar_sim::run_collecting_races(racy, config.clone().with_engine(e)).unwrap();
        let (i, v) = (run(Engine::Interp), run(Engine::Vm));
        assert!(v.races_detected() > 0);
        assert_eq!(format!("{:?}", i.race_report()), format!("{:?}", v.race_report()));
        assert_same_sim(&i, &v, &["a", "b", "ib"], "races on subscript variables");
    }
}

/// `FUSED` with `stmt` appended, its subscript variables `i`, `j`, `k`
/// set to `1`, `2`, `1` and `m` to 9 — or left an unbound dummy.
fn fused_failure(stmt: &str, unbound: bool) -> &'static cedar_ir::Program {
    let m = if unbound { "n" } else { "m" };
    let src = format!("{FUSED}i = 1\nj = 2\nk = 1\n{m} = 9\n{stmt}\nend\n");
    let mut p = cedar_ir::compile_free(&src).unwrap();
    if unbound {
        // A dummy argument of the main program: nothing binds it.
        for sym in &mut p.units[0].symbols {
            if sym.name == "m" {
                sym.kind = cedar_ir::SymKind::Arg(0);
            }
        }
    }
    Box::leak(Box::new(p))
}

#[test]
fn a_fused_subscript_fails_at_each_position_as_the_tree_walker_does() {
    use cedar_sim::SimErrorKind::{OutOfBounds, Uninit};
    let line = FUSED.lines().count() as u32 + 5;
    for (arr, subs) in [("a", vec!["i"]), ("ib", vec!["i", "j"]), ("lc", vec!["i", "j", "k"])] {
        for pos in 0..subs.len() {
            let mut at = subs.clone();
            at[pos] = "m";
            let elem = format!("{arr}({})", at.join(", "));
            // A load (fused), a store (`LoadIdx`), a load in a
            // subscript; `m` is out of bounds (9) or an unbound dummy.
            for stmt in [
                format!("t = {elem} .eq. 0"),
                format!("{elem} = 0"),
                format!("n = ia(max(1, min(5, int({elem}))))"),
            ] {
                for (unbound, kind) in [(false, OutOfBounds), (true, Uninit)] {
                    let label = format!("{stmt} (m unbound: {unbound})");
                    let e = same_error_everywhere(fused_failure(&stmt, unbound), |c| c, &label);
                    assert_eq!(e.kind, kind, "{label}: {e}");
                    assert_eq!(e.span, cedar_ir::Span::new(line), "{label}: {e}");
                }
            }
        }
    }
    // Inside the dummy's declared bounds, past the end of the actual's
    // storage (two elements), through the subscript at each position.
    for (decl, subs) in [
        ("d(4)", ["m", "", ""]),
        ("d(4, 4)", ["m", "i", ""]),
        ("d(4, 4)", ["i", "m", ""]),
        ("d(4, 4, 4)", ["m", "i", "i"]),
        ("d(4, 4, 4)", ["i", "m", "i"]),
        ("d(4, 4, 4)", ["i", "i", "m"]),
    ] {
        let subs: Vec<&str> = subs.into_iter().filter(|s| !s.is_empty()).collect();
        let elem = format!("d({})", subs.join(", "));
        let src = format!(
            "program p\nreal w(2)\nw(1) = 1.0\nw(2) = 2.0\ncall f(w, 3)\nend\n\
             subroutine f(d, m)\ninteger i, m\nreal {decl}\ni = 1\nx = {elem}\n{elem} = x\nend\n"
        );
        let e = same_error_everywhere(leak(&src), |c| c, &elem);
        assert_eq!(e.kind, OutOfBounds, "{elem}: {e}");
        assert!(e.msg.contains("outside storage of 2 element(s)"), "{elem}: {e}");
    }
}

#[test]
fn inline_loops_with_zero_trips_negative_steps_and_a_written_variable() {
    let src = "program p\ninteger i, j, n, hits(40)\nn = 0\ndo i = 5, 1\nn = n + 1\nend do\n\
         j = i\ndo i = 1, 10, -1\nn = n + 100\nend do\ndo i = 20, 1, -3\nhits(i) = n\nn = n + i\n\
         end do\ndo i = 1, 9, 4\nhits(i + 20) = i\ni = i * 3\nend do\ndo i = -4, -12, -2\n\
         hits(-i) = hits(-i) + i\nend do\nend\n";
    identical_everywhere(leak(src), |c| c, &["i", "j", "n", "hits"], "inline loop shapes");
}

#[test]
fn return_stop_and_errors_leave_inline_loops_at_the_same_point() {
    // RETURN from two inline loops deep, three times over the same
    // activation buffers; STOP from inside a DO WHILE in a loop.
    let src = "program p\ninteger n, hits(30)\nn = 0\ndo k = 1, 3\ncall f(hits, k, n)\nend do\n\
         do k = 1, 10\nx = 1.0\ndo while (x .lt. 100.0)\nx = x * 3.0\nif (k .eq. 4 .and. x .gt. 20.0) stop\n\
         end do\nhits(k + 20) = int(x)\nend do\nend\n\
         subroutine f(h, k, n)\ninteger h(30), k, n\ndo i = 1, 5\ndo j = 1, 5\nn = n + 1\n\
         h(i * 5 + j - 5) = n\nif (i * j .ge. k * 3) return\nend do\nend do\nn = -1\nend\n";
    identical_everywhere(leak(src), |c| c, &["n", "hits", "x", "k"], "return and stop");
    // A watchdog trip in the middle of a loop nest, and a failing
    // statement there, stop both engines at the same statement.
    let nest = leak(
        "program p\nreal a(8, 8)\ndo j = 1, 8\ndo i = 1, 8\na(i, j) = i + j\nend do\nend do\n\
         do j = 1, 8\ndo i = 1, 9\ns = s + a(i, j)\nend do\nend do\nend\n",
    );
    // The first nest runs 73 statements, the second fails at its 11th.
    let budgets: [Tweak; 3] = [
        |c| MachineConfig { watchdog_ops: 5, ..c },
        |c| MachineConfig { watchdog_ops: 40, ..c },
        |c| MachineConfig { watchdog_ops: 80, ..c },
    ];
    for budget in budgets {
        let e = same_error_everywhere(nest, budget, "watchdog mid-loop");
        assert_eq!(e.kind, cedar_sim::SimErrorKind::Limit, "{e}");
    }
    let e = same_error_everywhere(nest, |c| c, "out of bounds in the second nest");
    assert_eq!(e.kind, cedar_sim::SimErrorKind::OutOfBounds, "{e}");
}

#[test]
fn inline_loops_around_calls_while_loops_and_parallel_loops() {
    let src = "program p\nparameter (n = 12)\nreal a(n, n), v(n)\nglobal v\ninteger it\n\
         do j = 1, n\ndo i = 1, n\na(i, j) = 0.0\nend do\nend do\n\
         do j = 1, n, 2\ncall row(a, n, j)\nit = 0\ndo while (it .lt. j)\ndo i = 1, it + 1\n\
         a(i, j) = a(i, j) + 1.0\nend do\nit = it + 1\nend do\nend do\n\
         do k = 1, 3\ncdoall i = 1, n\ndo j = 1, n\nv(i) = v(i) + a(i, j) * k\nend do\nend cdoall\n\
         end do\nend\n\
         subroutine row(a, n, j)\nreal a(n, n)\ndo i = 1, n\ndo m = 1, 2\n\
         a(i, j) = a(i, j) + i * m\nend do\nend do\nend\n";
    identical_everywhere(leak(src), |c| c, &["a", "v", "it"], "calls and while loops");
}

// ---------------------------------------------------------------------
// Loop trip counts: one checked helper for both engines.
// ---------------------------------------------------------------------

#[test]
fn a_trip_count_outside_the_step_range_is_one_error() {
    // The trip count of the first loop is 2^64 - 1: it used to wrap
    // (no iteration in a release build, a panic in a debug one).
    for bounds in [
        "-9223372036854775807, 9223372036854775807",
        "9223372036854775807, -9223372036854775807, -1",
    ] {
        let e = same_error_everywhere(
            leak(&format!(
                "program p\ninteger k\nk = 0\ndo i = {bounds}\nk = k + 1\nend do\nend\n"
            )),
            |c| c,
            bounds,
        );
        assert_eq!(e.kind, cedar_sim::SimErrorKind::Limit, "{e}");
        assert!(e.msg.contains("18446744073709551615 iterations"), "{e}");
        assert_eq!(e.span, cedar_ir::Span::new(4), "{e}");
    }
    // 2^63 - 1 iterations fit: the loop runs until the budget is spent.
    let e = same_error_everywhere(
        leak(
            "program p\ninteger k\nk = 0\ndo i = 1, 9223372036854775807\nk = k + 1\nend do\nend\n",
        ),
        |mut c| {
            c.watchdog_ops = 1000;
            c
        },
        "a long loop",
    );
    assert_eq!(e.kind, cedar_sim::SimErrorKind::Limit, "{e}");
    assert!(e.msg.contains("statement budget"), "{e}");
}

// ---------------------------------------------------------------------
// Loop locals reused per site: a loop's next entry takes back the
// storage its last entry bound, zeroed and charged as fresh storage is.
// Each scenario agrees between the engines under every configuration
// and race-collecting, also with a cluster memory so small that every
// byte the pools account moves the paging cost; and entering one site
// again costs what entering as many fresh sites does.
// ---------------------------------------------------------------------

/// A cluster memory of 64 bytes: loop locals page, and the paging cost
/// follows every byte charged to the pool or released from it.
fn tiny_cluster_memory(mut c: MachineConfig) -> MachineConfig {
    c.machine.cluster_capacity = 64;
    c
}

const MEMORIES: [(&str, Tweak); 2] = [("", |c| c), (" tiny memory", tiny_cluster_memory)];

/// Both engines alike under every configuration and memory, and
/// race-collecting with identical reports; the clean VM run.
fn reuse_identical(
    p: &'static cedar_ir::Program,
    vars: &[&str],
    label: &str,
) -> Simulator<'static> {
    for (memory, tweak) in MEMORIES {
        let label = format!("{label}{memory}");
        identical_everywhere(p, tweak, vars, &label);
        let collect = |engine| {
            cedar_sim::run_collecting_races(p, tweak(cfg(engine)))
                .unwrap_or_else(|e| panic!("{label} [collecting]: {engine:?} failed: {e}"))
        };
        let (i, v) = (collect(Engine::Interp), collect(Engine::Vm));
        assert_eq!(format!("{:?}", i.race_report()), format!("{:?}", v.race_report()), "{label}");
        assert_same_sim(&i, &v, vars, &format!("{label} [collecting]"));
    }
    cedar_sim::run(p, cfg(Engine::Vm)).unwrap()
}

/// [`same_error_everywhere`] under every memory, and race-collecting.
fn reuse_same_error(p: &'static cedar_ir::Program, label: &str) -> SimError {
    for (memory, tweak) in MEMORIES {
        let label = format!("{label}{memory}");
        same_error_everywhere(p, tweak, &label);
        let collect = |engine| match cedar_sim::run_collecting_races(p, tweak(cfg(engine))) {
            Err(e) => e,
            Ok(_) => panic!("{label} [collecting]: {engine:?} unexpectedly succeeded"),
        };
        assert_errors_equal(&collect(Engine::Interp), &collect(Engine::Vm), &label);
    }
    cedar_sim::run(p, cfg(Engine::Vm)).err().expect("fails")
}

/// Column `k` (1-based) of an `n`-row array read back by `read_f64`.
fn column(sim: &Simulator<'_>, var: &str, n: usize, k: usize) -> Vec<f64> {
    sim.read_f64(var).unwrap()[(k - 1) * n..k * n].to_vec()
}

#[test]
fn reentered_private_array_follows_its_bound() {
    // The bound comes from an outer scalar: 8, 16, 8. A pooled slot of
    // another length is not reused, and every element is written.
    let p = leak(
        "program p\nparameter (n = 24)\nreal a(n, 3)\ninteger ms(3)\nglobal a\n\
         ms(1) = 8\nms(2) = 16\nms(3) = 8\ndo k = 1, 3\nm = ms(k)\n\
         cdoall i = 1, n\nreal w(m)\ndo j = 1, m\nw(j) = i * j\nend do\n\
         a(i, k) = w(m) + w(1)\nend cdoall\nend do\nend\n",
    );
    let sim = reuse_identical(p, &["a", "m"], "bound 8, 16, 8");
    for (k, m) in [(1, 8.0), (2, 16.0), (3, 8.0)] {
        let want: Vec<f64> = (1..=24).map(|i| f64::from(i) * (m + 1.0)).collect();
        assert_eq!(column(&sim, "a", 24, k), want, "entry {k}");
    }
}

#[test]
fn reentered_locals_read_zero_before_their_first_write() {
    // Each participant's first iteration of every entry reads a private
    // scalar and an array element before writing them: 0, as on fresh
    // storage, never what the last entry left.
    let p = leak(
        "program p\nparameter (n = 24)\nreal r(n, 3), q(n, 3)\nglobal r, q\ndo k = 1, 3\n\
         cdoall i = 1, n\nreal t, w(2)\nr(i, k) = t\nq(i, k) = w(2)\nt = 1.0\nw(2) = 2.0\n\
         end cdoall\nend do\nend\n",
    );
    let sim = reuse_identical(p, &["r", "q"], "read before write");
    let zeros = |v: Vec<f64>| v.iter().filter(|&&x| x == 0.0).count();
    let first = zeros(column(&sim, "r", 24, 1));
    assert!(first > 0 && first < 24, "{first} participants");
    for k in 1..=3 {
        assert_eq!(zeros(column(&sim, "r", 24, k)), first, "scalar, entry {k}");
        assert_eq!(zeros(column(&sim, "q", 24, k)), first, "array, entry {k}");
    }
}

#[test]
fn reentered_private_scalar_read_after_the_loop() {
    // `private(x)` makes `x` a loop local; after each entry it reads as
    // the last-bound participant's copy.
    let p = leak(
        "program p\nparameter (n = 24)\nreal a(n), y(3), x\nglobal a\ndo k = 1, 3\n\
         !$omp parallel do private(x)\ndo i = 1, n\nx = i * k * 1.0\na(i) = x\nend do\n\
         y(k) = x\nend do\nend\n",
    );
    let sim = reuse_identical(p, &["a", "y", "x"], "read after the loop");
    let y = sim.read_f64("y").unwrap();
    for (k, y) in (1..=3).zip(y) {
        let i = y / f64::from(k);
        assert!(i.fract() == 0.0 && (1.0..=24.0).contains(&i), "y({k}) = {y}");
    }
}

#[test]
fn reentered_by_recursion_allocates_afresh() {
    // The outer activation reads its `private(x)` after a recursive call
    // entered the same loop: the inner entry must not take the outer's
    // storage, which is still bound in a live frame.
    let p = leak(
        "program p\nreal y(2)\ncall r(1, y)\nend\nsubroutine r(d, y)\ninteger d\nreal y(2), x\n\
         !$omp parallel do private(x)\ndo i = 1, 4\nx = i * d * 1.0\nend do\n\
         if (d .eq. 1) call r(10, y)\nif (d .eq. 1) y(1) = x\nif (d .eq. 10) y(2) = x\nend\n",
    );
    let sim = reuse_identical(p, &["y"], "recursion");
    let y = sim.read_f64("y").unwrap();
    assert!((1.0..=4.0).contains(&y[0]) && (10.0..=40.0).contains(&y[1]), "{y:?}");
}

#[test]
fn reentered_loop_in_a_subroutine_called_from_a_doall() {
    // Every call enters the subroutine's CDOALL again, from another
    // participant of the SDOALL and so on another cluster. Four
    // iterations on eight CEs: each iteration has a fresh participant.
    let p = leak(
        "program p\nparameter (n = 16)\nreal a(4, n)\nglobal a\n\
         sdoall i = 1, n\ncall f(a, i)\nend sdoall\nend\n\
         subroutine f(a, i)\nreal a(4, 16)\ncdoall j = 1, 4\nreal t, w(3)\n\
         t = t + j\nw(1) = t * i\na(j, i) = w(1) + w(3)\nend cdoall\nend\n",
    );
    let sim = reuse_identical(p, &["a"], "subroutine loop");
    let want: Vec<f64> = (1..=16).flat_map(|i| (1..=4).map(move |j| f64::from(i * j))).collect();
    assert_eq!(sim.read_f64("a").unwrap(), want);
}

/// A subroutine whose CDOALL is entered once per call, `k` = 1..4,
/// and whose body ends with `exit`.
fn leaving(exit: &str) -> &'static cedar_ir::Program {
    leak(&format!(
        "program p\nparameter (n = 24)\nreal r(n, 4)\nglobal r\ndo k = 1, 4\ndo i = 1, n\n\
         r(i, k) = 5.0\nend do\nend do\ndo k = 1, 4\ncall g(r, n, k)\nend do\nend\n\
         subroutine g(r, n, k)\nreal r(n, 4)\ncdoall i = 1, n\nreal t\nr(i, k) = t\nt = 1.0\n\
         {exit}\nend cdoall\nr(n, k) = -1.0\nend\n"
    ))
}

#[test]
fn reentered_after_return_stop_and_an_error() {
    // RETURN leaves every entry at its tenth iteration; the next call
    // enters again and reads zeros.
    let sim = reuse_identical(leaving("if (i .eq. 10) return"), &["r"], "return");
    for k in 1..=4 {
        let col = column(&sim, "r", 24, k);
        assert!(col[..10].contains(&0.0), "entry {k}: {col:?}");
        assert!(col[10..].iter().all(|&x| x == 5.0), "entry {k}: {col:?}");
    }
    // STOP and an out-of-bounds store in the third entry, after two
    // entries that returned normally.
    let sim = reuse_identical(leaving("if (k .eq. 3 .and. i .eq. 7) stop"), &["r"], "stop");
    let col = column(&sim, "r", 24, 3);
    assert!(col[..7].contains(&0.0) && col[7..].iter().all(|&x| x == 5.0), "{col:?}");
    let e = reuse_same_error(leaving("if (k .eq. 3 .and. i .eq. 7) r(i + n, k) = 1.0"), "error");
    assert_eq!(e.kind, cedar_sim::SimErrorKind::OutOfBounds, "{e}");
}

#[test]
fn reentered_site_costs_what_fresh_sites_cost() {
    // Five calls of one subroutine (one site, entered five times) and
    // five calls of five copies of it (five sites, each entered once)
    // are the same computation at the same cost: the reused storage is
    // zeroed and charged to the pools as fresh storage is (under the
    // tiny memory, the accesses to the cluster array `c` page by what
    // the pool holds). The bound runs 8, 8, 16, 16, 8, so entries two
    // and four reuse.
    let body = |name: &str| {
        format!(
            "subroutine {name}(a, m, k)\nreal a(16, 5), c(16)\ncdoall i = 1, 16\nreal t, w(m)\n\
             t = t + i\nw(m) = w(m) + t\ndo j = 1, m - 1\nw(j) = j\nend do\nc(i) = t\n\
             a(i, k) = w(m) + w(1) + c(i)\nend cdoall\nend\n"
        )
    };
    let bounds = [8, 8, 16, 16, 8];
    let program = |names: [&str; 5]| {
        let mut src = String::from("program p\nreal a(16, 5)\nglobal a\n");
        for (k, (name, m)) in names.iter().zip(bounds).enumerate() {
            src += &format!("call {name}(a, {m}, {})\n", k + 1);
        }
        src += "end\n";
        let mut units: Vec<&str> = names.to_vec();
        units.dedup();
        for name in units {
            src += &body(name);
        }
        leak(&src)
    };
    let reused = program(["s"; 5]);
    let fresh = program(["s1", "s2", "s3", "s4", "s5"]);
    for (memory, tweak) in MEMORIES {
        for (name, config, faults) in CONFIGS {
            let label = format!("one site against five [{name}]{memory}");
            for engine in [Engine::Interp, Engine::Vm] {
                let run = |p| run_under(p, tweak(config(cfg(engine))), faults).unwrap();
                assert_same_sim(&run(reused), &run(fresh), &["a"], &format!("{label} {engine:?}"));
            }
        }
        let collect = |p| cedar_sim::run_collecting_races(p, tweak(cfg(Engine::Vm))).unwrap();
        assert_same_sim(&collect(reused), &collect(fresh), &["a"], &format!("collecting{memory}"));
    }
}

// ---------------------------------------------------------------------
// Loop kernels (DESIGN.md §14, "Loop kernels"): on the fast paths, and
// without a race detector or faults, the VM runs a straight-line inner
// loop as a kernel. The tree-walker never does, nor does the VM without
// the fast paths; the three agree on cycles, every counter, every
// output and every error, also one raised in the middle of a loop.
// ---------------------------------------------------------------------

/// Run `p` on `config`, keeping the simulator on error.
fn kernel_run(
    p: &'static cedar_ir::Program,
    config: MachineConfig,
) -> (Simulator<'static>, Result<(), SimError>) {
    let mut sim = Simulator::new(p, config).expect("allocates");
    let r = sim.run_main();
    (sim, r)
}

/// The kernel run of `src` on `config` against the tree-walker and the
/// VM without the fast paths: the same cycles, counters, `vars` and
/// error. Returns the kernel run and the iterations it ran as kernels,
/// which are some.
fn kernel_identical(
    src: &str,
    config: MachineConfig,
    vars: &[&str],
    label: &str,
) -> (Simulator<'static>, Result<(), SimError>) {
    let p = leak(src);
    let (kernel, kr) = kernel_run(p, config.clone().with_engine(Engine::Vm));
    let others = [
        ("tree-walker", config.clone().with_engine(Engine::Interp)),
        ("no fast paths", config.without_fast_paths().with_engine(Engine::Vm)),
    ];
    for (name, config) in others {
        let label = format!("{label} [{name}]");
        let (other, or) = kernel_run(p, config);
        assert_eq!(other.kernel_iterations().1, 0, "{label}: ran kernels");
        assert_same_sim(&other, &kernel, vars, &label);
        match (&or, &kr) {
            (Ok(()), Ok(())) => {}
            (Err(o), Err(k)) => assert_errors_equal(o, k, &label),
            _ => panic!("{label}: {or:?} against the kernel's {kr:?}"),
        }
    }
    let (inline, kernels, lanes) = kernel.kernel_iterations();
    assert!(kernels > 0 && kernels <= inline, "{label}: {kernels} of {inline} as kernels");
    assert!(lanes <= kernels, "{label}: {lanes} of {kernels} as lanes");
    (kernel, kr)
}

#[test]
fn a_kernel_accumulates_a_scalar_and_steps_downwards() {
    let src = "program p\nparameter (n = 300)\nreal a(n), b(n)\ninteger k(n)\n\
               do i = 1, n\na(i) = i * 0.5\nb(i) = 1.0 / i\nk(i) = mod(i * 7, 13)\nend do\n\
               s = 0.0\nt = 1.0\nm = 0\ndo i = n, 1, -1\ns = s + a(i) * b(i)\nt = t * 1.0001\n\
               m = m + k(i) ** 2\nend do\ndo i = n - 1, 2, -3\na(i) = a(i + 1) - a(i - 1)\n\
               end do\nend\n";
    let (sim, r) = kernel_identical(src, cfg(Engine::Vm), &["a", "s", "t", "m"], "accumulator");
    r.expect("runs");
    // One iteration would open a cancel-poll window: the dispatch loop
    // runs it.
    assert_eq!(sim.kernel_iterations().0, 700);
    assert_eq!(sim.kernel_iterations().1, 699);
}

#[test]
fn a_kernel_leaves_the_loop_variable_at_its_last_value() {
    // Stores to the loop variable last until the next iteration's.
    let src = "program p\ninteger k\nreal a(20)\nk = 0\ndo i = 1, 10\nk = k + i\ni = i * 2\n\
               a(i) = k\nend do\nj = i\nend\n";
    kernel_identical(src, cfg(Engine::Vm), &["a", "k", "i", "j"], "loop variable").1.expect("runs");
}

#[test]
fn a_fault_in_mid_loop_is_raised_where_the_dispatch_loop_raises_it() {
    let cases = [
        ("store out of bounds", "real a(10)\ndo i = 1, 20\nx = x + 1.0\na(i) = x\nend do\n"),
        ("load out of bounds", "real a(10)\ndo i = 1, 20\nx = a(i) + x\nend do\n"),
        ("subscript variable", "real a(5, 5)\nj = 3\ndo i = 1, 9\nx = x + a(j, i)\nend do\n"),
        ("division by zero", "integer k\ndo i = -3, 3\nx = x + 1.0\nk = 12 / i\nend do\n"),
        ("zero to a negative power", "integer k\ndo i = 9, 0, -1\nk = (i - 2) ** (-1)\nend do\n"),
        ("intrinsic", "integer k\ndo i = 1, 6\nx = x + 2.0\nk = mod(10, i - 3)\nend do\n"),
    ];
    for (label, body) in cases {
        let src = format!("program p\n{body}end\n");
        let (sim, r) = kernel_identical(&src, cfg(Engine::Vm), &[], label);
        assert!(r.is_err(), "{label}: ran");
        assert!(sim.stats.scalar_ops > 0, "{label}");
    }
}

#[test]
fn the_statement_budget_runs_out_in_mid_loop_at_the_same_statement() {
    // Two statements an iteration: the budget ends inside one, on each
    // side of a cancel-poll window.
    let src = "program p\nreal a(3000)\ndo i = 1, 3000\nx = x + 1.0\na(i) = x\nend do\nend\n";
    for budget in [7, 1023, 1024, 1025, 2049, 4001] {
        let config = MachineConfig { watchdog_ops: budget, ..cfg(Engine::Vm) };
        let (sim, r) = kernel_identical(src, config, &["a", "x"], &format!("budget {budget}"));
        let e = r.expect_err("the budget runs out");
        assert!(e.msg.contains("statement budget"), "{e}");
        assert!(sim.kernel_iterations().1 < 3000);
    }
}

#[test]
fn a_paging_serial_loop_runs_as_a_kernel() {
    // 40 000 REALs in a cluster memory of 128 KB: every access pages.
    let src = "program p\nparameter (n = 40000)\nreal a(n)\ns = 0.0\ndo i = 1, n\n\
               a(i) = i * 0.25\nend do\ndo i = 1, n, 3\ns = s + a(i)\nend do\nend\n";
    let config = MachineConfig::cedar_config1_scaled();
    let (sim, r) = kernel_identical(src, config, &["s"], "paging");
    r.expect("runs");
    assert!(sim.stats.paged_accesses > 0.0);
}

#[test]
fn a_kernel_over_aliased_actual_arguments() {
    // `x` and `y` are one slot, one element apart.
    let src = "program p\nparameter (n = 50)\nreal a(n + 1)\ndo i = 1, n + 1\na(i) = i\nend do\n\
               call shift(a, a(2), n)\nend\nsubroutine shift(x, y, m)\nreal x(m), y(m)\n\
               do i = 1, m\nx(i) = y(i) * 2.0 + x(i)\ny(i) = x(i) - 1.0\nend do\nend\n";
    kernel_identical(src, cfg(Engine::Vm), &["a"], "aliased").1.expect("runs");
}

#[test]
fn a_kernel_inside_a_parallel_participant() {
    let src = "program p\nparameter (n = 64)\nreal a(n), b(n, 8)\nglobal a, b\n\
               do i = 1, n\na(i) = i\nend do\ncdoall j = 1, 8\ndo i = 1, n\n\
               b(i, j) = a(i) * j + b(i, j)\nend do\nend cdoall\n\
               xdoall j = 1, 8\ndo i = n, 1, -1\nb(i, j) = b(i, j) - a(i)\nend do\nend xdoall\nend\n";
    let (sim, r) = kernel_identical(src, cfg(Engine::Vm), &["b"], "participant");
    r.expect("runs");
    assert_eq!(sim.kernel_iterations().0, 1088);
    assert_eq!(sim.kernel_iterations().1, 1087);
}

// ---------------------------------------------------------------------
// Lane batches (DESIGN.md §14, "Loop kernels"): a kernel batch whose
// iterations a test at its entry proves independent runs op by op over
// lanes of iterations. Each row is a kernel row: the tree-walker and
// the VM without the fast paths are its oracles. Each pins how many
// iterations ran as lanes: a refused loop adds none.
// ---------------------------------------------------------------------

/// Iterations `sim` ran as lanes.
fn lanes(sim: &Simulator<'_>) -> u64 {
    sim.kernel_iterations().2
}

/// ludcmp's elimination at a small size: the scaled column, and the
/// update whose loop variable is the first subscript.
const LUDCMP: &str = "program p\nparameter (n = 40)\nreal a(n, n)\ndo j = 1, n\ndo i = 1, n\n\
    a(i, j) = 1.0 / (1.0 + 2.0 * abs(real(i - j)))\nend do\na(j, j) = a(j, j) + real(n)\nend do\n\
    call ludcmp(a, n)\nend\nsubroutine ludcmp(a, n)\ninteger n\nreal a(n, n), piv\n\
    do k = 1, n - 1\npiv = 1.0 / a(k, k)\ndo i = k + 1, n\na(i, k) = a(i, k) * piv\nend do\n\
    do j = k + 1, n\ndo i = k + 1, n\na(i, j) = a(i, j) - a(i, k) * a(k, j)\nend do\nend do\n\
    end do\nend\n";

/// gaussj's row sweeps at a small size: the loop variable is the second
/// subscript, the row a vector of its own.
const GAUSSJ: &str = "program p\nparameter (n = 36)\nreal a(n, n), b(n), rowk(n), piv, f, bk\n\
    do j = 1, n\ndo i = 1, n\na(i, j) = 1.0 / (1.0 + 2.0 * abs(real(i - j)))\nend do\n\
    a(j, j) = a(j, j) + real(n)\nend do\ndo i = 1, n\nb(i) = 1.0 + 0.01 * real(i)\nend do\n\
    do k = 1, n\npiv = 1.0 / a(k, k)\ndo j = 1, n\na(k, j) = a(k, j) * piv\nrowk(j) = a(k, j)\n\
    end do\nb(k) = b(k) * piv\nbk = b(k)\ndo i = 1, n\nif (i .ne. k) then\nf = a(i, k)\n\
    do j = 1, n\na(i, j) = a(i, j) - f * rowk(j)\nend do\nb(i) = b(i) - f * bk\nend if\nend do\n\
    end do\nend\n";

#[test]
fn lane_batches_run_ludcmp_and_gaussj() {
    // Batches under 8 iterations run one iteration at a time.
    let rows = [("ludcmp", LUDCMP, &["a"][..], 22_689), ("gaussj", GAUSSJ, &["a", "b"], 47_868)];
    for (label, src, vars, as_lanes) in rows {
        let (sim, r) = kernel_identical(src, cfg(Engine::Vm), vars, label);
        r.expect("runs");
        assert_eq!(lanes(&sim), as_lanes, "{label}");
    }
}

#[test]
fn lane_batches_step_downwards_end_mid_chunk_and_read_the_variable_as_a_real() {
    let src = "program p\nparameter (n = 37)\nreal a(n), b(n), c(n)\ninteger k(n)\n\
               do i = 1, n\nb(i) = 1.0 / i\nc(i) = i * i\nend do\n\
               do i = n, 1, -1\na(i) = b(i) * 2.0 + c(i)\nend do\n\
               do i = 2, n - 3, 3\nc(i) = i * 0.5 - a(i)\nk(i) = i * 3 - 7\nend do\n\
               do i = 1, 29\nb(i + 8) = -a(i) * c(i)\nend do\nend\n";
    let (sim, r) = kernel_identical(src, cfg(Engine::Vm), &["a", "b", "c", "k"], "lane shapes");
    r.expect("runs");
    // Every loop, the last one subscripted by the affine `i + 8`.
    assert_eq!(lanes(&sim), 37 + 37 + 11 + 29);
}

#[test]
fn lane_batches_run_on_a_machine_that_pages() {
    // 3 × 20 000 REALs in a cluster memory of 128 KB: every access
    // pages, so no price is a multiple of a common power of two.
    let src = "program p\nparameter (n = 20000)\nreal a(n), b(n), c(n)\ndo i = 1, n\n\
               b(i) = i * 0.25\nend do\ndo i = 1, n\nc(i) = b(i) * 3.0\na(i) = c(i) - b(i)\n\
               end do\nend\n";
    let config = MachineConfig::cedar_config1_scaled();
    let (sim, r) = kernel_identical(src, config, &["a", "c"], "paging lanes");
    r.expect("runs");
    // Every kernel iteration; the others open a cancel-poll window.
    assert_eq!(sim.kernel_iterations(), (40_000, 39_942, 39_942));
    assert!(sim.stats.paged_accesses > 0.0);
}

#[test]
fn lane_batches_are_refused_where_iterations_depend() {
    let cases = [
        // The same cell in every iteration.
        (
            "one cell",
            "real a(20), b(20)\nj = 3\ndo i = 1, 20\nb(i) = i\nend do\n\
                      do i = 1, 20\na(j) = a(j) + b(i)\nend do\n",
        ),
        // A cell the range also writes.
        (
            "inside the range",
            "real a(20)\nk = 9\ndo i = 1, 20\na(i) = i\nend do\n\
                              do i = 1, 20\na(i) = a(k) + 1.0\nend do\n",
        ),
    ];
    for (label, body) in cases {
        let src = format!("program p\n{body}end\n");
        let (sim, r) = kernel_identical(&src, cfg(Engine::Vm), &["a"], label);
        r.expect("runs");
        assert_eq!(lanes(&sim), 20, "{label}: only the setup loop");
    }
}

#[test]
fn lane_batches_are_refused_over_aliased_arguments() {
    // `x` is `y` one element on: iteration `i` writes what `i + 1` reads.
    let shifted = "program p\nparameter (n = 30)\nreal a(n + 1)\ndo i = 1, n + 1\na(i) = i\n\
                   end do\ncall s(a(2), a, n)\nend\nsubroutine s(x, y, m)\nreal x(m), y(m)\n\
                   do i = 1, m\nx(i) = y(i)\nend do\nend\n";
    // The scalar dummy `y` is an element the loop writes.
    let scalar = "program p\nparameter (n = 30)\nreal a(n)\ndo i = 1, n\na(i) = i\nend do\n\
                  call s(a, a(5), n)\nend\nsubroutine s(x, y, m)\nreal x(m), y\n\
                  do i = 1, m\nx(i) = y + 1.0\nend do\nend\n";
    for (label, src, setup) in [("shifted", shifted, 31), ("scalar dummy", scalar, 30)] {
        let (sim, r) = kernel_identical(src, cfg(Engine::Vm), &["a"], label);
        r.expect("runs");
        assert_eq!(lanes(&sim), setup, "{label}: only the setup loop");
    }
}

#[test]
fn lane_batches_leave_an_out_of_bounds_iteration_to_fault_where_it_faults() {
    let src = "program p\nreal a(10), b(12)\ndo i = 1, 12\nb(i) = i\nend do\n\
               do i = 1, 11\na(i) = b(i) * 2.0\nend do\nend\n";
    let (sim, r) = kernel_identical(src, cfg(Engine::Vm), &["a"], "out of bounds");
    assert_eq!(lanes(&sim), 12, "only the setup loop");
    let e = r.expect_err("the last iteration is out of bounds");
    assert_eq!(e.kind, cedar_sim::SimErrorKind::OutOfBounds, "{e}");
}

#[test]
fn the_most_negative_integer_negates_and_takes_its_sign_in_integers() {
    // Negation and `abs` wrap as every other integer op does, in a
    // statement and in a kernel loop (run as lanes); INTEGER `sign`
    // keeps every bit of a value past 2^53.
    let src = "program p\ninteger v(8), w(8), s(4)\ni = -9223372036854775807\ni = i - 1\n\
               j = -i\nk = abs(i)\nm = 2**53 + 1\ns(1) = sign(i, -1)\ns(2) = sign(i, 1)\n\
               s(3) = sign(m, -1)\ns(4) = sign(-m, 2)\ndo l = 1, 8\nv(l) = i + l - 1\nend do\n\
               do l = 1, 8\nw(l) = -v(l)\nend do\nend\n";
    let (sim, r) = kernel_identical(src, cfg(Engine::Vm), &["j", "k", "s", "w"], "i64::MIN");
    r.expect("runs");
    assert_eq!(lanes(&sim), 16);
    let ints = |v: &str| -> Vec<i64> {
        sim.read_var(v).unwrap().into_iter().map(|x| x.as_i64()).collect()
    };
    assert_eq!((ints("j"), ints("k")), (vec![i64::MIN], vec![i64::MIN]));
    let m = (1i64 << 53) + 1;
    assert_eq!(ints("s"), [i64::MIN, i64::MIN, -m, m]);
    let w: Vec<i64> = (0..8).map(|l| (i64::MIN + l).wrapping_neg()).collect();
    assert_eq!(ints("w"), w);
}

// ---------------------------------------------------------------------
// Lane batches over every kernel body: carried scalars (reductions,
// temporaries, prefix sums), intrinsics that cannot fault and affine
// subscripts. Each row is a kernel row, and runs on both engines under
// every configuration (races and faults on, fast paths off); each pins
// its lane count.
// ---------------------------------------------------------------------

/// The kernel run of `src` against its oracles, and `src` on both
/// engines under every configuration: the same cycles, stats, `vars`
/// and error everywhere.
fn lane_row(src: &str, vars: &[&str], label: &str) -> (Simulator<'static>, Result<(), SimError>) {
    let (sim, r) = kernel_identical(src, cfg(Engine::Vm), vars, label);
    match r {
        Ok(()) => identical_everywhere(leak(src), |c| c, vars, label),
        Err(_) => drop(same_error_everywhere(leak(src), |c| c, label)),
    }
    (sim, r)
}

/// Operands `a`, `b` (REAL, with negatives and a zero) and `k`
/// (INTEGER) of `n` elements, set by one lane loop of `n` iterations.
fn operands(n: usize, body: &str) -> String {
    format!(
        "program p\nparameter (n = {n})\nreal a(n), b(n), c(n)\ninteger k(n), m\n\
         do i = 1, n\na(i) = (i - 7) * 0.375\nb(i) = 1.0 / i\nk(i) = i * 7 - 60\nend do\n{body}end\n"
    )
}

#[test]
fn lane_batches_carry_real_and_integer_reductions() {
    // Reductions (the value before on either side, over REAL, INTEGER
    // and LOGICAL values, three in one body) and a longer carried chain.
    let body = "s = 0.5\nm = 3\ndo i = 1, n\ns = s + a(i) * b(i)\nend do\n\
                do i = n, 1, -1\nm = m + k(i) * 3\nend do\n\
                do i = 1, n, 2\nt = t * 1.0001 + a(i)\nend do\n\
                q = 1.0\ndo i = 1, n\nu = a(i) - u\nl = l .neqv. (a(i) .gt. 0.0)\n\
                q = q * 1.001\nend do\n";
    let src = operands(45, body).replace("integer k(n), m", "integer k(n), m\nlogical l");
    let (sim, r) = lane_row(&src, &["s", "m", "t", "u", "l", "q"], "reductions");
    r.expect("runs");
    assert_eq!(lanes(&sim), 45 * 4 + 23);
}

#[test]
fn lane_batches_carry_a_temporary_and_a_prefix_sum() {
    let body = "do i = 1, n\nt = a(i) * 2.0\nc(i) = t + t * b(i)\nend do\n\
                s = 1.0\ndo i = 1, n\ns = s + a(i)\nc(i) = s * b(i)\nm = m + k(i)\nk(i) = m\n\
                end do\n";
    let (sim, r) = lane_row(&operands(40, body), &["c", "k", "s", "t", "m"], "temporary");
    r.expect("runs");
    assert_eq!(lanes(&sim), 40 * 3);
}

#[test]
fn lane_batches_end_a_chunk_in_the_middle_and_stop_at_a_budget() {
    // 37 iterations: two chunks and five lanes.
    let (sim, r) = lane_row(&operands(37, "do i = 1, n\ns = s - a(i)\nend do\n"), &["s"], "37");
    r.expect("runs");
    assert_eq!(lanes(&sim), 37 * 2);
    // The statement budget runs out inside a reduction's batch.
    let src = operands(300, "do i = 1, n\ns = s + a(i)\nb(i) = s\nend do\n");
    for budget in [650, 1029, 1040] {
        let config = MachineConfig { watchdog_ops: budget, ..cfg(Engine::Vm) };
        let label = format!("budget {budget}");
        let (_, r) = kernel_identical(&src, config, &["s", "b"], &label);
        assert!(r.expect_err(&label).msg.contains("statement budget"));
    }
}

#[test]
fn lane_batches_leave_a_scalar_that_aliases_an_element_to_one_iteration_at_a_time() {
    // `y` is `x(5)`, which the loop reads; then the cell past `x`.
    let src = "program p\nparameter (n = 30)\nreal a(n + 1)\ndo i = 1, n + 1\na(i) = i\nend do\n\
               call acc(a, a(5), n)\ncall acc(a, a(n + 1), n)\nend\n\
               subroutine acc(x, y, m)\nreal x(m), y\ndo i = 1, m\ny = y + x(i)\nend do\nend\n";
    let (sim, r) = lane_row(src, &["a"], "aliased scalar");
    r.expect("runs");
    assert_eq!(lanes(&sim), 31 + 30, "the setup loop and the sum past `x`");
    // A COMMON scalar beside the array it sums.
    let src = "program p\ncommon /c/ s, x(24)\ndo i = 1, 24\nx(i) = i * 0.5\nend do\n\
               do i = 1, 24\ns = s + x(i)\nend do\nend\n";
    let (sim, r) = lane_row(src, &["s", "x"], "common scalar");
    r.expect("runs");
    assert_eq!(lanes(&sim), 24 * 2);
}

/// Every elemental intrinsic that cannot fault, over every class its
/// arguments take, one lane loop each; `r` is REAL, `j` INTEGER.
const INTRINSIC_ROWS: &[&str] = &[
    "r(i) = abs(a(i))",
    "j(i) = abs(k(i))",
    "r(i) = abs(k(i) .gt. 0)",
    "r(i) = sqrt(a(i))",
    "r(i) = exp(a(i))",
    "r(i) = log(a(i))",
    "r(i) = log10(b(i))",
    "r(i) = sin(a(i))",
    "r(i) = cos(k(i))",
    "r(i) = tan(a(i))",
    "r(i) = atan(a(i))",
    "r(i) = atan2(a(i), b(i) - 0.5)",
    "r(i) = sinh(a(i))",
    "r(i) = cosh(a(i))",
    "r(i) = tanh(a(i))",
    "r(i) = sign(a(i), b(i) - 0.1)",
    "j(i) = sign(k(i), a(i))",
    "j(i) = sign(k(i), -k(i))",
    "r(i) = mod(a(i), b(i))",
    "r(i) = mod(k(i), a(i))",
    "r(i) = min(a(i), b(i))",
    "j(i) = max(k(i), i, 3)",
    "r(i) = max(k(i), a(i), b(i))",
    "j(i) = int(a(i) * 3.0)",
    "j(i) = int(k(i))",
    "j(i) = nint(a(i) * 1.5)",
    "r(i) = real(k(i))",
    "r(i) = dble(a(i)) + 1.0",
];

#[test]
fn lane_batches_run_every_intrinsic_that_cannot_fault() {
    let n = 24;
    let mut body = String::from("do i = 1, n\nb(i) = b(i) - 0.05\nend do\n");
    for row in INTRINSIC_ROWS {
        body += &format!("do i = 1, n\n{row}\nend do\n");
    }
    let src = operands(n, &body).replace("integer k(n)", "integer k(n), j(n)\nreal r(n)");
    let (sim, r) = lane_row(&src, &["r", "j"], "intrinsics");
    r.expect("runs");
    assert_eq!(lanes(&sim), (2 + INTRINSIC_ROWS.len() as u64) * n as u64);
}

#[test]
fn lane_batches_run_affine_subscripts() {
    let src = "program p\nparameter (n = 20)\nreal a(n * n), b(n, n), c(n + 1), d(n)\n\
               do i = 1, n + 1\nc(i) = i * i * 0.5\nend do\n\
               do j = 1, n\ndo i = 1, n\nb(i, j) = i - j * 0.25\nend do\nend do\n\
               do i = 1, n\nd(i) = c(i + 1) - c(i)\nend do\n\
               do j = 2, n\ndo i = 2, n\nb(i, j) = b(i - 1, j - 1) + b(i, j)\nend do\nend do\n\
               do j = 1, n\ndo i = 1, n\na((j - 1) * n + i) = b(i, j) * 2.0\nend do\nend do\n\
               do j = 1, n\ndo i = 1, n - 1\na(i * n + j) = a(i * n + j) + d(i)\nend do\nend do\n\
               do i = 1, n\nc(i + 1) = c(i) + 1.0\nend do\nend\n";
    let (sim, r) = lane_row(src, &["a", "b", "c", "d"], "affine subscripts");
    r.expect("runs");
    // All but the recurrence `c(i + 1) = c(i) + 1.0`, and one iteration
    // that opens a cancel-poll window.
    assert_eq!(lanes(&sim), 21 + 400 + 20 + 19 * 19 + 400 + 19 * 20 - 1);
}

#[test]
fn lane_batches_leave_an_affine_subscript_out_of_bounds_to_fault_where_it_faults() {
    let src = "program p\nreal a(10), b(12)\ndo i = 1, 12\nb(i) = i\nend do\n\
               do i = 1, 10\na(i + 1) = b(i) * 2.0\nend do\nend\n";
    let (sim, r) = lane_row(src, &["a"], "affine out of bounds");
    assert_eq!(lanes(&sim), 12, "only the setup loop");
    let e = r.expect_err("the last iteration is out of bounds");
    assert_eq!(e.kind, cedar_sim::SimErrorKind::OutOfBounds, "{e}");
}

// ---------------------------------------------------------------------
// Edge values through every executor: each value op over NaN (of both
// signs), ±0.0, ±inf, the ends of `i64` and zero divisors, computed by
// scalar statements (the VM's dispatch loop, and the tree-walker), a
// vector statement (the lanes), and two 16-trip loops the VM runs as
// lane batches, one through a stored temporary, or as kernels one
// iteration at a time where an op can fault. The four results agree bit
// for bit, and each run agrees with the tree-walker's and the VM's
// without fast paths. What each op computes is defined once, in
// `cedar_ir::ops`.
// ---------------------------------------------------------------------

/// Operand arrays `xa`, `xb` (REAL), `ia`, `ib` (INTEGER) and `la`,
/// `lb` (LOGICAL), 16 lanes each, as source expressions: `z` is 0.0,
/// `mx` and `mn` the ends of `i64`. No INTEGER divisor is zero and no
/// zero base meets a negative exponent; [`EDGE_FAULTS`] add them.
const EDGE_OPERANDS: [(&str, [&str; 16]); 6] = [
    (
        "xa",
        [
            "z / z", "z", "-z", "1.0 / z", "-1.0 / z", "1.5", "-2.5", "1.0e308", "-1.0e308",
            "1.0e-300", "3.0", "-3.0", "0.5", "2.0", "-z", "-(z / z)",
        ],
    ),
    (
        "xb",
        [
            "1.0", "z", "-z", "1.0 / z", "z / z", "-1.0 / z", "z", "1.0e308", "2.0", "-z",
            "1.0 / z", "0.5", "-1.5", "1024.5", "3.0", "-1.0 / z",
        ],
    ),
    (
        "ia",
        [
            "mn", "mx", "0", "-1", "1", "mn", "mx", "7", "-7", "2", "-2", "3", "63", "64",
            "mn + 1", "-64",
        ],
    ),
    (
        "ib",
        ["-1", "-1", "5", "2", "-3", "1", "mx", "3", "-2", "64", "63", "mn", "2", "1", "-1", "mx"],
    ),
    ("la", [T, F, T, F, T, F, T, F, T, T, F, F, T, T, F, F]),
    ("lb", [T, T, F, F, T, T, F, F, F, T, F, T, F, T, F, T]),
];
const T: &str = ".true.";
const F: &str = ".false.";

/// One op family per row: its label, the class of its result (`r`, `k`
/// or `b`), the expression over the operands' lane `@`, and whether its
/// loops run as lanes (an op that can fault keeps a loop off lanes: it
/// runs as a kernel).
const EDGE_ROWS: &[(&str, char, &str, bool)] = &[
    ("real +", 'r', "xa(@) + xb(@)", true),
    ("real -", 'r', "xa(@) - xb(@)", true),
    ("real *", 'r', "xa(@) * xb(@)", true),
    ("real /", 'r', "xa(@) / xb(@)", true),
    ("real ** real", 'r', "xa(@) ** xb(@)", true),
    ("real ** integer", 'r', "xa(@) ** ib(@)", true),
    ("real negation", 'r', "-xa(@)", true),
    ("integer as real", 'r', "ia(@)", true),
    ("logical as real", 'r', "la(@)", true),
    ("real abs", 'r', "abs(xa(@))", true),
    ("real sign", 'r', "sign(xa(@), xb(@))", true),
    ("real mod", 'r', "mod(xa(@), xb(@))", true),
    ("integer +", 'k', "ia(@) + ib(@)", true),
    ("integer -", 'k', "ia(@) - ib(@)", true),
    ("integer *", 'k', "ia(@) * ib(@)", true),
    ("integer /", 'k', "ia(@) / ib(@)", false),
    ("integer **", 'k', "ia(@) ** ib(@)", false),
    ("integer negation", 'k', "-ia(@)", true),
    ("real truncated", 'k', "xa(@)", true),
    ("logical as integer", 'k', "la(@)", true),
    ("integer abs", 'k', "abs(ia(@))", true),
    ("integer sign", 'k', "sign(ia(@), ib(@))", true),
    ("integer mod", 'k', "mod(ia(@), ib(@))", false),
    ("real .lt.", 'b', "xa(@) .lt. xb(@)", true),
    ("real .le.", 'b', "xa(@) .le. xb(@)", true),
    ("real .eq.", 'b', "xa(@) .eq. xb(@)", true),
    ("real .ne.", 'b', "xa(@) .ne. xb(@)", true),
    ("real .gt.", 'b', "xa(@) .gt. xb(@)", true),
    ("real .ge.", 'b', "xa(@) .ge. xb(@)", true),
    ("integer .lt.", 'b', "ia(@) .lt. ib(@)", true),
    ("integer .ge.", 'b', "ia(@) .ge. ib(@)", true),
    ("integer .le. real", 'b', "ia(@) .le. xb(@)", true),
    (".and.", 'b', "la(@) .and. lb(@)", true),
    (".or.", 'b', "la(@) .or. lb(@)", true),
    (".eqv.", 'b', "la(@) .eqv. lb(@)", true),
    (".neqv.", 'b', "la(@) .neqv. lb(@)", true),
    (".not.", 'b', ".not. la(@)", true),
    ("real as logical", 'b', "xa(@)", true),
    ("integer + real", 'r', "ia(@) + xb(@)", true),
    ("logical * real", 'r', "la(@) * xa(@)", true),
    ("logical negation", 'k', "-la(@)", true),
    ("real .and. integer", 'b', "xa(@) .and. ia(@)", true),
    ("integer as logical", 'b', "ia(@)", true),
];

/// The rows that fault on a zero divisor, and the statements that put
/// one in lane 5.
const EDGE_FAULTS: &[(&str, &str)] = &[
    ("integer /", "ib(5) = 0"),
    ("integer **", "ia(5) = 0\nib(5) = -3"),
    ("integer mod", "ib(5) = 0"),
];

/// The declarations and operands of an edge row, then `body`.
fn edge_program(body: &str) -> String {
    let mut src = String::from(
        "program p\nreal xa(16), xb(16), r1(16), r2(16), r3(16), r4(16), r5(16), sr\n\
         integer ia(16), ib(16), k1(16), k2(16), k3(16), k4(16), k5(16), sk, jx(16)\n\
         logical la(16), lb(16), b1(16), b2(16), b3(16), b4(16), b5(16), sb\n\
         z = 0.0\nmx = 9223372036854775807\nmn = -mx - 1\n",
    );
    for (name, lanes) in EDGE_OPERANDS {
        for (t, e) in lanes.iter().enumerate() {
            src += &format!("{name}({}) = {e}\n", t + 1);
        }
    }
    for t in 1..=16 {
        src += &format!("jx({t}) = {t}\n");
    }
    src + body + "end\n"
}

/// Row `expr`, of class `c`, into `c1` by scalar statements, `c2` by a
/// vector statement, and `c3`, `c4` and `c5` by loops: `c3`'s stores
/// through a gathered subscript, which keeps it off lanes (it runs one
/// iteration at a time), `c4`'s run as lanes where the row's do, and
/// `c5`'s through a stored temporary; any of the five shapes.
fn edge_shapes(c: char, expr: &str) -> [String; 5] {
    let at = |lane: &str| expr.replace('@', lane);
    let scalars = (1..=16).map(|t| format!("{c}1({t}) = {}\n", at(&t.to_string()))).collect();
    [
        scalars,
        format!("{c}2(1:16) = {}\n", at("1:16")),
        format!("do j = 1, 16\n{c}3(jx(j)) = {}\nend do\n", at("j")),
        format!("do j = 1, 16\n{c}4(j) = {}\nend do\n", at("j")),
        format!("do j = 1, 16\ns{c} = {}\n{c}5(j) = s{c}\nend do\n", at("j")),
    ]
}

#[test]
fn edge_values_through_every_executor_bit_for_bit() {
    for &(label, c, expr, as_lanes) in EDGE_ROWS {
        let vars = [1, 2, 3, 4, 5].map(|k| format!("{c}{k}"));
        let vars = vars.each_ref().map(String::as_str);
        let shapes = edge_shapes(c, expr);
        let src = edge_program(&shapes.concat());
        let (sim, r) = kernel_identical(&src, cfg(Engine::Vm), &vars, label);
        r.unwrap_or_else(|e| panic!("{label}: {e}"));
        let scalars = bit_patterns(sim.read_var(vars[0]));
        for v in &vars[1..] {
            assert_eq!(bit_patterns(sim.read_var(v)), scalars, "{label}: `{v}` against scalars");
        }
        let lanes = if as_lanes { 32 } else { 0 };
        assert_eq!(sim.kernel_iterations(), (48, 48, lanes), "{label}");
        // The gathered shape alone runs one iteration at a time.
        let (sim, r) = kernel_identical(&edge_program(&shapes[2]), cfg(Engine::Vm), &[], label);
        r.unwrap_or_else(|e| panic!("{label} [gathered]: {e}"));
        assert_eq!(sim.kernel_iterations(), (16, 16, 0), "{label} [gathered]");
    }
}

/// A zero divisor in lane 5 raises the same error in every shape and
/// on every path.
#[test]
fn zero_divisors_fault_alike_through_every_executor() {
    for &(label, set) in EDGE_FAULTS {
        let &(_, c, expr, _) = EDGE_ROWS.iter().find(|row| row.0 == label).expect("a row");
        let [scalars, vector, gathered, lanes, temporary] = edge_shapes(c, expr);
        let faulting = |body: &str| edge_program(&format!("{set}\n{body}"));
        for (shape, body) in [("scalars", scalars), ("vector", vector)] {
            let label = format!("{label} [{shape}]");
            let e = same_error_everywhere(leak(&faulting(&body)), |c| c, &label);
            assert_eq!(e.kind, cedar_sim::SimErrorKind::DivByZero, "{label}: {e}");
        }
        for (shape, body) in [("gathered", gathered), ("lanes", lanes), ("temporary", temporary)] {
            let label = format!("{label} [{shape}]");
            let (sim, r) = kernel_identical(&faulting(&body), cfg(Engine::Vm), &[], &label);
            let e = r.expect_err("lane 5 faults");
            assert_eq!(e.kind, cedar_sim::SimErrorKind::DivByZero, "{label}: {e}");
            assert_eq!(sim.kernel_iterations(), (16, 4, 0), "{label}");
        }
    }
}

/// Each value op's body is written once, in `cedar_ir::ops`: no other
/// source of `cedar-ir` or `cedar-sim` (test modules excluded) holds
/// one of the bodies that decide an edge case or an elemental
/// intrinsic's value, and the VM has no value arms of its own but the
/// table's.
#[test]
fn value_op_bodies_are_written_only_in_cedar_ir_ops() {
    let bodies = [
        "wrapping_neg",
        "wrapping_div",
        "wrapping_rem",
        "wrapping_abs",
        ".powf(",
        ".powi(",
        "trunc() as i64",
        "f64::sqrt",
        "f64::exp",
        "f64::ln",
        "f64::log10",
        "f64::sin",
        "f64::cos",
        "f64::tan",
        "f64::atan",
        ".atan2(",
        ".round() as i64",
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    let mut dirs = vec![root.join("ir/src"), root.join("sim/src")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            match path.extension() {
                None => dirs.push(path),
                Some(ext) if ext == "rs" => files.push(path),
                Some(_) => {}
            }
        }
    }
    assert!(files.len() > 30, "the sources were not found: {}", files.len());
    let mut found = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let code = text.split("\n#[cfg(test)]").next().unwrap();
        let name = file.strip_prefix(&root).unwrap().display().to_string();
        for body in bodies {
            let at_home = name == "ir/src/ops.rs";
            match code.contains(body) {
                true if !at_home => found.push(format!("{name}: {body}")),
                false if at_home => found.push(format!("{name} lacks {body}")),
                _ => {}
            }
        }
        if name == "sim/src/vm.rs" {
            for arm in ["bin!", "cvt!"] {
                if code.contains(arm) {
                    found.push(format!("{name}: {arm}"));
                }
            }
        }
    }
    assert!(found.is_empty(), "value-op bodies outside `cedar_ir::ops`:\n{}", found.join("\n"));
}
