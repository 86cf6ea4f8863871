//! §2.2.2 of the paper: subroutine-level tasking with `ctskstart` /
//! `mtskstart` / `tskwait`.
//!
//! Cedar Fortran offers two ways to fork a subroutine call as a
//! concurrent task: `ctskstart` builds a complete Fortran environment
//! for the task ("a costly operation"), while the microtasking library's
//! `mtskstart` reuses pre-spawned helper tasks — cheap, but forbidden
//! from using synchronization (the paper's deadlock rule, which the
//! simulator enforces).
//!
//! This example runs the same two-phase pipeline three ways — serial
//! calls, `ctskstart` tasks, `mtskstart` tasks — and prints the startup
//! cost asymmetry; then demonstrates the deadlock rule being rejected.
//!
//! Run with: `cargo run --release --example subroutine_tasking`

use cedar_sim::MachineConfig;

fn pipeline(fork: &str) -> String {
    let (call_a, call_b, wait) = match fork {
        "serial" => (
            "      CALL SMOOTH(A, N, 0.25)".to_string(),
            "      CALL SMOOTH(B, N, 0.50)".to_string(),
            String::new(),
        ),
        f => (
            format!("      CALL {}(SMOOTH, A, N, 0.25)", f.to_uppercase()),
            format!("      CALL {}(SMOOTH, B, N, 0.50)", f.to_uppercase()),
            "      CALL TSKWAIT".to_string(),
        ),
    };
    format!(
        "
      PROGRAM TASKED
      PARAMETER (N = 4096)
      REAL A(N), B(N), CHKSUM
      GLOBAL A, B
      DO 10 I = 1, N
        A(I) = 0.001 * REAL(I)
        B(I) = 1.0 - 0.0005 * REAL(I)
   10 CONTINUE
{call_a}
{call_b}
{wait}
      CHKSUM = A(N) + B(N)
      END

      SUBROUTINE SMOOTH(X, N, W)
      INTEGER N
      REAL X(N), W
      DO 30 K = 1, 8
        DO 20 I = 2, N - 1
          X(I) = (1.0 - W) * X(I) + 0.5 * W * (X(I - 1) + X(I + 1))
   20   CONTINUE
   30 CONTINUE
      END
"
    )
}

fn main() {
    let mc = MachineConfig::cedar_config1();
    let mut results = Vec::new();
    for fork in ["serial", "ctskstart", "mtskstart"] {
        let program = cedar_ir::compile_source(&pipeline(fork)).expect("valid source");
        let sim = cedar_sim::run(&program, mc.clone()).expect("run");
        results.push((fork, sim.cycles(), sim.read_f64("chksum").unwrap()[0]));
    }

    // All three must compute the same values (tasks write disjoint arrays).
    let base = results[0].2;
    for (fork, _, chk) in &results {
        assert!((chk - base).abs() <= 1e-6 * base.abs(), "{fork}: {chk} vs {base}");
    }

    println!("two independent smoothing passes, forked three ways:");
    for (fork, cycles, _) in &results {
        println!("  {fork:<10} {cycles:>10.0} cycles");
    }
    let ctsk = results[1].1;
    let mtsk = results[2].1;
    println!(
        "\nmtskstart saves {:.0} cycles over ctskstart per run — the\n\
         helper-task pool skips building a full Fortran environment\n\
         (ctskstart start cost {:.0} vs mtskstart {:.0}).",
        ctsk - mtsk,
        mc.machine.ctsk_start,
        mc.machine.mtsk_start
    );

    // The §2.2.2 deadlock rule: a task forked through the microtasking
    // library may not synchronize (it could be queued behind the very
    // task it waits for). The simulator rejects it up front.
    let bad = "
      PROGRAM BAD
      REAL X
      CALL MTSKSTART(UPD, X)
      CALL TSKWAIT
      END

      SUBROUTINE UPD(X)
      REAL X
      CALL LOCK(1)
      X = X + 1.0
      CALL UNLOCK(1)
      END
";
    let program = cedar_ir::compile_source(bad).expect("parses fine");
    match cedar_sim::run(&program, mc) {
        Err(e) => println!("\ndeadlock rule enforced: {e}"),
        Ok(_) => panic!("synchronization inside an mtskstart thread must be rejected"),
    }
}
