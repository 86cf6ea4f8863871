//! The restructurer's output is *source code*: every transformed
//! program must print as Cedar Fortran that the front end parses back
//! to a semantically identical program.
//!
//! The check is two-fold per workload and technique set:
//! 1. print → parse → print reaches a fixpoint (identical text);
//! 2. the re-parsed program simulates to the same results and the same
//!    cycle count as the in-memory one (nothing is lost in text).

use cedar_restructure::{restructure, PassConfig};
use cedar_sim::MachineConfig;

fn round_trip(name: &str, program: &cedar_ir::Program, watch: &[&str]) {
    let text1 = cedar_ir::print::print_program(program);
    let reparsed = cedar_ir::compile_source(&text1).unwrap_or_else(|e| {
        panic!("{name}: emitted Cedar Fortran failed to re-parse: {e}\n{text1}")
    });
    let text2 = cedar_ir::print::print_program(&reparsed);
    assert_eq!(text1, text2, "{name}: print→parse→print must be a fixpoint");

    let mc = MachineConfig::cedar_config1_scaled();
    let a = cedar_sim::run(program, mc.clone()).unwrap_or_else(|e| panic!("{name}: {e}"));
    let b = cedar_sim::run(&reparsed, mc).unwrap_or_else(|e| panic!("{name} reparsed: {e}"));
    assert_eq!(a.cycles(), b.cycles(), "{name}: cycle counts must survive the text");
    for v in watch {
        assert_eq!(a.read_f64(v), b.read_f64(v), "{name}: results must survive the text");
    }
}

#[test]
fn all_perfect_proxies_round_trip_both_configs() {
    for w in cedar_workloads::table2_workloads() {
        let p = w.compile();
        for (tag, cfg) in
            [("auto", PassConfig::automatic_1991()), ("manual", PassConfig::manual_improved())]
        {
            let r = restructure(&p, &cfg);
            round_trip(&format!("{}/{tag}", w.name), &r.program, &w.watch);
        }
    }
}

#[test]
fn small_linalg_round_trips() {
    use cedar_workloads::linalg::*;
    for w in [cg(48), ludcmp(32), sparse(64), tridag(96)] {
        let p = w.compile();
        let r = restructure(&p, &PassConfig::automatic_1991());
        round_trip(w.name, &r.program, &w.watch);
    }
}

#[test]
fn hand_written_cedar_fortran_parses_and_runs() {
    // Figure 3 / Figure 4 features in one program: loop classes,
    // loop-local declarations, preamble/postamble markers, cascade
    // synchronization, GLOBAL declarations, vector statements.
    let src = "
      PROGRAM HAND
      PARAMETER (N = 256)
      REAL A(N), B(N), TOTAL
      GLOBAL A, B, TOTAL
      DO 10 I = 1, N
        B(I) = REAL(I)
   10 CONTINUE
      XDOALL I = 1, N, 32
        INTEGER I3, UP
        REAL T(32)
        I3 = MIN(32, N - I + 1)
        UP = I + I3 - 1
        T(1:I3) = B(I:UP)
        A(I:UP) = SQRT(T(1:I3))
      END XDOALL
      TOTAL = 0.0
      XDOALL I = 1, N
        REAL PART
        PART = 0.0
      LOOP
        PART = PART + A(I)
      ENDLOOP
        CALL LOCK(1)
        TOTAL = TOTAL + PART
        CALL UNLOCK(1)
      END XDOALL
      END
";
    let p = cedar_ir::compile_source(src).expect("hand-written Cedar Fortran");
    let sim = cedar_sim::run(&p, MachineConfig::cedar_config1()).expect("runs");
    let total = sim.read_f64("total").unwrap()[0];
    let expect: f64 = (1..=256).map(|i| (i as f64).sqrt()).sum();
    assert!((total - expect).abs() < 1e-6 * expect);
    round_trip("hand-written", &p, &["total"]);
}
