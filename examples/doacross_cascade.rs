//! Figure 4 of the paper: a recurrence loop run as a `CDOACROSS` with
//! cascade (await/advance) synchronization.
//!
//! The loop below carries a true dependence through `A` — iteration `i`
//! reads `A(i-1)` — so it can never be a DOALL. But most of each
//! iteration's work (the smoothing sweep that produces `C`) is
//! independent. The restructurer fences only the recurrence statement
//! between `await`/`advance` pairs (§3.3), so iterations overlap
//! everywhere except the fenced region, exactly as the paper's Figure 4
//! sketches:
//!
//! ```fortran
//!       CDOACROSS i = 2, n
//!         call await(1, i - 1)
//!         a(i) = 0.5 * a(i-1) + b(i)      ! synchronized recurrence
//!         call advance(1)
//!         ... independent smoothing work ...
//!       END DO
//! ```
//!
//! Run with: `cargo run --release --example doacross_cascade`

use cedar_restructure::{restructure, LoopDecision, PassConfig};
use cedar_sim::MachineConfig;

const SRC: &str = "
      PROGRAM CASCAD
      PARAMETER (N = 2048, M = 4)
      REAL A(N), B(N), C(N), CHKSUM
      DO 10 I = 1, N
        B(I) = 1.0 + 0.0001 * REAL(I)
        C(I) = 0.0
   10 CONTINUE
      A(1) = 1.0
      DO 20 I = 2, N
        A(I) = 0.5 * A(I-1) + B(I)
        S = 0.0
        T = B(I)
        DO 15 J = 1, M
          T = 0.5 * T + 0.125
          S = S + T * T
   15   CONTINUE
        C(I) = S / REAL(M)
   20 CONTINUE
      CHKSUM = 0.0
      DO 30 I = 1, N
        CHKSUM = CHKSUM + A(I) + C(I)
   30 CONTINUE
      END
";

fn main() {
    let program = cedar_ir::compile_source(SRC).expect("valid Fortran 77");

    let result = restructure(&program, &PassConfig::automatic_1991());
    println!("=== restructurer decisions ===\n{}", result.report);

    // The recurrence loop must have been turned into a DOACROSS, not a
    // DOALL (the carried dependence through A forbids that) and not
    // left serial (the independent smoothing work makes overlap pay).
    let doacross = result
        .report
        .loops
        .iter()
        .find(|l| matches!(l.decision, LoopDecision::Doacross { .. }))
        .expect("the recurrence loop should run as a DOACROSS");
    println!("recurrence loop at line {} -> {:?}\n", doacross.span.line, doacross.decision);

    println!("=== Cedar Fortran output ===");
    println!("{}", cedar_ir::print::print_program(&result.program));

    let mc = MachineConfig::cedar_config1();
    let serial = cedar_sim::run(&program, mc.clone()).expect("serial run");
    let parallel = cedar_sim::run(&result.program, mc).expect("doacross run");

    let s = serial.read_f64("chksum").unwrap()[0];
    let p = parallel.read_f64("chksum").unwrap()[0];
    assert!((s - p).abs() < 1e-3 * s.abs(), "results must agree: {s} vs {p}");

    println!("=== simulation (Cedar, 1 cluster x 8 CEs) ===");
    println!("serial:      {:>12.0} cycles", serial.cycles());
    println!("doacross:    {:>12.0} cycles", parallel.cycles());
    println!("speedup:     {:>12.2}x", serial.cycles() / parallel.cycles());
    println!(
        "cascade ops: {} awaits, {} advances, {:.0} cycles stalled",
        parallel.stats.awaits, parallel.stats.advances, parallel.stats.await_stall_cycles
    );
    println!(
        "\nThe speedup sits well below the 8x DOALL ideal: every iteration\n\
         still waits for its predecessor's fenced statement, so the gain\n\
         is bounded by the delay factor of Section 3.3."
    );
}
