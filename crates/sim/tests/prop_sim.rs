//! Property tests for the simulator: computed values must match a Rust
//! reference implementation, and scheduling invariants must hold.

use cedar_sim::MachineConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A serial DAXPY computes exactly what Rust computes.
    #[test]
    fn daxpy_matches_reference(n in 1usize..200, alpha in -4.0f64..4.0) {
        let src = format!(
            "program p\nparameter (n = {n})\nreal x(n), y(n)\n\
             do i = 1, n\nx(i) = 0.5 * real(i)\ny(i) = real(n - i)\nend do\n\
             do i = 1, n\ny(i) = y(i) + ({alpha:?}) * x(i)\nend do\nend\n"
        );
        let p = cedar_ir::compile_free(&src).unwrap();
        let sim = cedar_sim::run(&p, MachineConfig::cedar_config1()).unwrap();
        let y = sim.read_f64("y").unwrap();
        // f32 storage: REAL arrays hold f64 in this simulator, but the
        // arithmetic follows f64; compute the same reference.
        for (i, &got) in y.iter().enumerate() {
            let i1 = (i + 1) as f64;
            let expect = (n as f64 - i1) + alpha * (0.5 * i1);
            prop_assert!((got - expect).abs() < 1e-9,
                "y[{i}] = {got}, expected {expect}");
        }
    }

    /// A CDOALL over independent iterations computes the same values as
    /// the serial loop and never runs slower than 1/P of serial minus
    /// overheads... conservatively: parallel <= serial cycles.
    #[test]
    fn cdoall_semantics_and_speed(n in 64usize..512) {
        let serial = format!(
            "program p\nparameter (n = {n})\nreal a(n), b(n)\n\
             do i = 1, n\nb(i) = real(i) * 0.25\nend do\n\
             do i = 1, n\na(i) = sqrt(b(i)) + b(i) * b(i)\nend do\nend\n"
        );
        let par = serial.replace("do i = 1, n\na(i)", "cdoall i = 1, n\na(i)")
            .replace("a(i) = sqrt(b(i)) + b(i) * b(i)\nend do", "a(i) = sqrt(b(i)) + b(i) * b(i)\nend cdoall");
        let ps = cedar_ir::compile_free(&serial).unwrap();
        let pp = cedar_ir::compile_free(&par).unwrap();
        let mc = MachineConfig::cedar_config1();
        let rs = cedar_sim::run(&ps, mc.clone()).unwrap();
        let rp = cedar_sim::run(&pp, mc).unwrap();
        prop_assert_eq!(rs.read_f64("a").unwrap(), rp.read_f64("a").unwrap());
        prop_assert!(rp.cycles() < rs.cycles(),
            "parallel {} !< serial {}", rp.cycles(), rs.cycles());
    }

    /// DOACROSS with a distance-1 cascade computes the exact prefix
    /// recurrence for any trip count.
    #[test]
    fn doacross_prefix_sum_exact(n in 2usize..300) {
        let src = format!(
            "program p\nparameter (n = {n})\nreal a(n), s(n)\n\
             do i = 1, n\na(i) = real(i)\ns(i) = 0.0\nend do\ns(1) = a(1)\n\
             cdoacross i = 2, n\ncall await(1, 1)\ns(i) = s(i - 1) + a(i)\n\
             call advance(1)\nend cdoacross\nend\n"
        );
        let p = cedar_ir::compile_free(&src).unwrap();
        let sim = cedar_sim::run(&p, MachineConfig::cedar_config1()).unwrap();
        let s = sim.read_f64("s").unwrap();
        for (i, &got) in s.iter().enumerate() {
            let k = (i + 1) as f64;
            prop_assert_eq!(got, k * (k + 1.0) / 2.0);
        }
    }

    /// Vector statements and the equivalent scalar loops produce
    /// identical values.
    #[test]
    fn vector_equals_scalar(n in 1usize..300, c in -3.0f64..3.0) {
        let scalar = format!(
            "program p\nparameter (n = {n})\nreal a(n), b(n)\n\
             do i = 1, n\nb(i) = real(i) + ({c:?})\nend do\n\
             do i = 1, n\na(i) = b(i) * 2.0 + 1.0\nend do\nend\n"
        );
        let vector = format!(
            "program p\nparameter (n = {n})\nreal a(n), b(n)\n\
             b(1:n) = iota(1, n) + ({c:?})\n\
             a(1:n) = b(1:n) * 2.0 + 1.0\nend\n"
        );
        let ps = cedar_ir::compile_free(&scalar).unwrap();
        let pv = cedar_ir::compile_free(&vector).unwrap();
        let mc = MachineConfig::cedar_config1();
        let rs = cedar_sim::run(&ps, mc.clone()).unwrap();
        let rv = cedar_sim::run(&pv, mc).unwrap();
        prop_assert_eq!(rs.read_f64("a").unwrap(), rv.read_f64("a").unwrap());
    }

    /// The paging surcharge is monotone: shrinking cluster capacity
    /// never makes a cluster-resident program faster.
    #[test]
    fn paging_monotone(cap_kb in 1u64..64) {
        let src = "program p\nparameter (n = 8192)\nreal a(n)\n\
                   do i = 1, n\na(i) = real(i)\nend do\ns = a(n)\nend\n";
        let p = cedar_ir::compile_free(src).unwrap();
        let mut small = MachineConfig::cedar_config1();
        small.machine.cluster_capacity = cap_kb * 1024;
        let mut big = small.clone();
        big.machine.cluster_capacity = small.machine.cluster_capacity * 2;
        let t_small = cedar_sim::run(&p, small).unwrap().cycles();
        let t_big = cedar_sim::run(&p, big).unwrap().cycles();
        prop_assert!(t_small >= t_big,
            "smaller memory must not be faster: {t_small} vs {t_big}");
    }
}

// ---------- typed register code vs. the tree walk ----------

/// Deterministic source of choices for [`numeric`] / [`logical`].
struct Choices(u64);

impl Choices {
    /// A number below `n` (xorshift64).
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }
}

/// A random INTEGER- or REAL-valued expression over `i1 i2 r1 r2`.
fn numeric(c: &mut Choices, depth: u32) -> String {
    if depth == 0 || c.below(4) == 0 {
        return c.pick(&["i1", "i2", "r1", "r2", "3", "(-2)", "1.5", "0.25", "0"]).to_string();
    }
    match c.below(7) {
        0 => format!("(-{})", numeric(c, depth - 1)),
        1 => {
            let exponent = c.pick(&["0", "2", "3", "(-1)", "i2", "0.5"]);
            format!("({} ** {exponent})", numeric(c, depth - 1))
        }
        _ => {
            let op = c.pick(&["+", "-", "*", "/"]);
            format!("({} {op} {})", numeric(c, depth - 1), numeric(c, depth - 1))
        }
    }
}

/// A random LOGICAL-valued expression over `l1 l2` and comparisons of
/// [`numeric`] expressions.
fn logical(c: &mut Choices, depth: u32) -> String {
    if depth == 0 || c.below(5) == 0 {
        return c.pick(&["l1", "l2", ".true.", ".false."]).to_string();
    }
    match c.below(3) {
        0 => format!("(.not. {})", logical(c, depth - 1)),
        1 => {
            let op = c.pick(&[".and.", ".or.", ".eqv.", ".neqv."]);
            format!("({} {op} {})", logical(c, depth - 1), logical(c, depth - 1))
        }
        _ => {
            let op = c.pick(&[".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge."]);
            format!("({} {op} {})", numeric(c, depth - 1), numeric(c, depth - 1))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Well-typed scalar expression trees evaluate to bit-identical
    /// values, cycles and operation counts on both engines — or fail
    /// with the same error (an integer division by zero is in reach).
    #[test]
    fn typed_expressions_match_the_tree_walk(seed in 1u64..1_000_000_000) {
        use cedar_sim::Engine;
        let mut c = Choices(seed);
        let src = format!(
            "program p\ninteger i1, i2, ri\nreal r1, r2, rr\nlogical l1, l2, rl\n\
             i1 = {}\ni2 = {}\nr1 = {}.5\nr2 = -0.{}\nl1 = .true.\nl2 = .false.\n\
             ri = {}\nrr = {}\nrl = {}\nif ({}) rr = rr + {}\nend\n",
            c.below(9), c.below(5) as i64 - 2, c.below(4), c.below(90) + 10,
            numeric(&mut c, 4), numeric(&mut c, 4), logical(&mut c, 4),
            logical(&mut c, 3), numeric(&mut c, 2),
        );
        let p = cedar_ir::compile_free(&src).unwrap();
        let run = |e| cedar_sim::run(&p, MachineConfig::cedar_config1().with_engine(e));
        match (run(Engine::Interp), run(Engine::Vm)) {
            (Ok(i), Ok(v)) => {
                prop_assert_eq!(i.cycles().to_bits(), v.cycles().to_bits(), "cycles: {}", src);
                prop_assert_eq!(i.stats.scalar_ops, v.stats.scalar_ops, "scalar_ops: {}", src);
                for var in ["ri", "rr", "rl"] {
                    // Debug keeps -0.0 apart from 0.0 and a NaN equal to itself.
                    prop_assert_eq!(
                        format!("{:?}", i.read_var(var)),
                        format!("{:?}", v.read_var(var)),
                        "{}: {}", var, src
                    );
                }
            }
            (Err(i), Err(v)) => {
                prop_assert_eq!((i.kind, &i.msg, i.span), (v.kind, &v.msg, v.span), "{}", src);
            }
            (i, v) => prop_assert!(false, "{:?} vs {:?}: {}", i.err(), v.err(), src),
        }
    }
}

/// [`numeric`]/[`logical`] text with each scalar leaf replaced by an
/// array operand: a section (`vector`) or the element `i` of the same
/// walk (scalar loop).
fn over_arrays(expr: &str, vector: bool) -> String {
    let leaves = [
        ("i1", "ia(1:n)", "ia(i)"),
        ("i2", "ib(n:1:-1)", "ib(n + 1 - i)"),
        ("r1", "ra(1:n)", "ra(i)"),
        ("r2", "rb(2:2 * n:2)", "rb(2 * i)"),
        ("l1", "la(1:n)", "la(i)"),
        ("l2", "lb(1:n)", "lb(i)"),
    ];
    leaves.iter().fold(expr.to_string(), |e, (leaf, section, elem)| {
        e.replace(leaf, if vector { section } else { elem })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Well-typed *vector* expression trees over INTEGER, REAL and
    /// LOGICAL sections (contiguous, reversed, strided): values, cycles,
    /// stats and race reports are bit-identical across engines and
    /// across `without_fast_paths` — or the error is — and the values
    /// are those of the same expression in a scalar loop, which goes
    /// through `value_ops` one boxed element at a time.
    #[test]
    fn typed_vector_expressions_match_across_engines_and_the_scalar_loop(
        seed in 1u64..1_000_000_000,
    ) {
        use cedar_sim::Engine;
        let mut c = Choices(seed);
        let setup = format!(
            "program p\nparameter (n = 12)\ninteger ia(n), ib(n), vi(n), si(n)\n\
             real ra(n), rb(2 * n), vr(n), sr(n), wr(n), cr(n)\nlogical la(n), lb(n), vl(n), sl(n)\n\
             global cr\ndo i = 1, n\nia(i) = mod(i * {}, 7) - 3\nib(i) = i - {}\n\
             ra(i) = i * 0.5 - {}.25\nrb(2 * i) = {} - i * 0.75\nla(i) = mod(i, 3) .eq. 0\n\
             lb(i) = i .gt. {}\nend do\n",
            c.below(5) + 1, c.below(12), c.below(6), c.below(9), c.below(12),
        );
        let exprs = [numeric(&mut c, 3), numeric(&mut c, 3), logical(&mut c, 3)];
        let (mask, update) = (logical(&mut c, 2), numeric(&mut c, 2));
        let mut src = setup;
        for (e, to) in exprs.iter().zip(["vi", "vr", "vl"]) {
            src += &format!("{to}(1:n) = {}\n", over_arrays(e, true));
        }
        // A masked store, and two iterations racing on one section.
        src += &format!(
            "where ({}) wr(1:n) = {}\ncdoall j = 1, 2\ncr(j:n:2) = vr(j:n:2) + cr(n:1:-2)\nend cdoall\ndo i = 1, n\n",
            over_arrays(&mask, true), over_arrays(&update, true),
        );
        for (e, to) in exprs.iter().zip(["si", "sr", "sl"]) {
            src += &format!("{to}(i) = {}\n", over_arrays(e, false));
        }
        src += "end do\nend\n";
        let p = cedar_ir::compile_free(&src).unwrap();
        let run = |e, fast: bool| {
            let mc = MachineConfig::cedar_config1().with_engine(e);
            cedar_sim::run_collecting_races(&p, if fast { mc } else { mc.without_fast_paths() })
        };
        let reference = run(Engine::Interp, true);
        for (e, fast) in [(Engine::Vm, true), (Engine::Vm, false), (Engine::Interp, false)] {
            match (&reference, run(e, fast)) {
                (Ok(i), Ok(v)) => {
                    prop_assert_eq!(i.cycles().to_bits(), v.cycles().to_bits(), "cycles: {}", src);
                    prop_assert_eq!(format!("{:?}", i.stats), format!("{:?}", v.stats), "{}", src);
                    prop_assert_eq!(
                        format!("{:?}", i.race_report()),
                        format!("{:?}", v.race_report()),
                        "races: {}", src
                    );
                    prop_assert!(v.races_detected() > 0, "the seeded race: {}", src);
                    for var in ["vi", "vr", "vl", "wr", "cr"] {
                        prop_assert_eq!(
                            format!("{:?}", i.read_var(var)),
                            format!("{:?}", v.read_var(var)),
                            "{}: {}", var, src
                        );
                    }
                }
                (Err(i), Err(v)) => {
                    prop_assert_eq!((i.kind, &i.msg, i.span), (v.kind, &v.msg, v.span), "{}", src);
                }
                (i, v) => prop_assert!(false, "{:?} vs {:?}: {}", i.as_ref().err(), v.err(), src),
            }
        }
        if let Ok(sim) = &reference {
            for (vector, scalar) in [("vi", "si"), ("vr", "sr"), ("vl", "sl")] {
                prop_assert_eq!(
                    format!("{:?}", sim.read_var(vector)),
                    format!("{:?}", sim.read_var(scalar)),
                    "{} against the scalar loop: {}", vector, src
                );
            }
        }
    }
}

// ---------- subroutine-level tasking (§2.2.2) ----------

#[test]
fn ctskstart_tasks_overlap_and_tskwait_joins() {
    let src = "
      PROGRAM TSK
      PARAMETER (N = 2048)
      REAL A(N), B(N), SA, SB
      GLOBAL A, B
      CALL CTSKSTART(FILL, A, N, 1.0)
      CALL CTSKSTART(FILL, B, N, 2.0)
      CALL TSKWAIT
      SA = A(N)
      SB = B(N)
      END

      SUBROUTINE FILL(X, N, C)
      INTEGER N
      REAL X(N), C
      DO 10 I = 1, N
        X(I) = C * REAL(I)
   10 CONTINUE
      END
";
    let p = cedar_ir::compile_source(src).unwrap();
    let sim = cedar_sim::run(&p, MachineConfig::cedar_config1()).unwrap();
    assert_eq!(sim.read_f64("sa").unwrap(), vec![2048.0]);
    assert_eq!(sim.read_f64("sb").unwrap(), vec![4096.0]);
    assert_eq!(sim.stats.tasks_started, 2);

    // Sequential CALLs for comparison: two overlapped tasks must be
    // faster than the two bodies run back to back.
    let seq_src = src
        .replace("CALL CTSKSTART(FILL, A, N, 1.0)", "CALL FILL(A, N, 1.0)")
        .replace("CALL CTSKSTART(FILL, B, N, 2.0)", "CALL FILL(B, N, 2.0)")
        .replace("CALL TSKWAIT\n", "");
    let p2 = cedar_ir::compile_source(&seq_src).unwrap();
    let seq = cedar_sim::run(&p2, MachineConfig::cedar_config1()).unwrap();
    assert!(sim.cycles() < seq.cycles(), "tasked {} !< sequential {}", sim.cycles(), seq.cycles());
}

#[test]
fn mtskstart_rejects_synchronization() {
    // The paper's deadlock rule: no synchronization in mtskstart threads.
    let src = "
      PROGRAM TSK
      REAL A(8)
      CALL MTSKSTART(BAD, A, 8)
      CALL TSKWAIT
      END

      SUBROUTINE BAD(X, N)
      INTEGER N
      REAL X(N)
      CALL LOCK(1)
      X(1) = 1.0
      CALL UNLOCK(1)
      END
";
    let p = cedar_ir::compile_source(src).unwrap();
    let e = cedar_sim::run(&p, MachineConfig::cedar_config1());
    assert!(e.is_err(), "mtskstart with locks must be rejected");
    let msg = format!("{}", e.err().unwrap());
    assert!(msg.contains("mtskstart"), "{msg}");
}

#[test]
fn mtskstart_is_cheaper_than_ctskstart() {
    let tmpl = "
      PROGRAM TSK
      REAL A(64)
      GLOBAL A
      CALL {START}(FILL, A, 64)
      CALL TSKWAIT
      S = A(64)
      END

      SUBROUTINE FILL(X, N)
      INTEGER N
      REAL X(N)
      DO 10 I = 1, N
        X(I) = REAL(I)
   10 CONTINUE
      END
";
    let run_one = |kw: &str| {
        let src = tmpl.replace("{START}", kw);
        let p = cedar_ir::compile_source(&src).unwrap();
        cedar_sim::run(&p, MachineConfig::cedar_config1()).unwrap().cycles()
    };
    let ctsk = run_one("CTSKSTART");
    let mtsk = run_one("MTSKSTART");
    assert!(mtsk < ctsk, "mtskstart {mtsk} !< ctskstart {ctsk}");
}

#[test]
fn tasking_round_trips_through_cedar_fortran() {
    let src = "
      PROGRAM TSK
      REAL A(32)
      CALL CTSKSTART(FILL, A, 32)
      CALL TSKWAIT
      S = A(1)
      END

      SUBROUTINE FILL(X, N)
      INTEGER N
      REAL X(N)
      X(1) = 7.0
      END
";
    let p1 = cedar_ir::compile_source(src).unwrap();
    let text1 = cedar_ir::print::print_program(&p1);
    let p2 = cedar_ir::compile_source(&text1).unwrap();
    assert_eq!(text1, cedar_ir::print::print_program(&p2));
    let sim = cedar_sim::run(&p2, MachineConfig::cedar_config1()).unwrap();
    assert_eq!(sim.read_f64("s").unwrap(), vec![7.0]);
}
