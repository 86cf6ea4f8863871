//! Heap allocations of simulator runs: what the engines cost, as a
//! number that does not depend on how fast the host happens to be.
//!
//! This binary holds one `#[test]` and installs its own counting
//! allocator (`alloc` + `realloc` calls), like `compile_allocs.rs`; a
//! simulator run is single-threaded, so the counts repeat exactly.
//! Each is the exact quantity a wall-time ratio would stand in for:
//!
//! * the tree-walker boxes two values per scalar statement, the VM's
//!   typed registers none: the 256×256 nest allocates 131 107 times on
//!   the one and 62 times on the other;
//! * a vector statement in steady state allocates nothing on either
//!   engine (DESIGN.md §14; the lanes come from a pool): 8 128
//!   executions of the 64-lane `ludcmp` statement cost 68 allocations
//!   on the VM and 39 on the tree-walker, set-up included;
//! * what is left of a pool run is per-loop-entry work (`bind_locals`,
//!   ROADMAP item 4(b): toeplz 16 195, OCEAN 10 549, MG3D 9 756). The
//!   ceilings are 1.25 × the totals at the commit that introduced this
//!   test, so a later change can move them down and nothing moves them
//!   up unnoticed.

use cedar_restructure::{restructure, PassConfig};
use cedar_sim::{Engine, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one run of `p`, bytecode compilation included.
fn run_allocs(p: &cedar_ir::Program, engine: Engine) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let mc = MachineConfig::cedar_config1().with_engine(engine);
    cedar_sim::run(p, mc).expect("program runs");
    ALLOCS.load(Ordering::Relaxed) - before
}

/// 65 536 executions of one scalar assignment.
const SCALAR_NEST: &str = "
      PROGRAM S
      PARAMETER (N = 256)
      REAL A(N, N), CHKSUM
      DO 20 J = 1, N
        DO 10 I = 1, N
          A(I, J) = REAL(I) * 0.5 + REAL(J)
   10   CONTINUE
   20 CONTINUE
      CHKSUM = A(N, N)
      END
";

/// Executions of the vector statement in [`VECTOR_STMT`].
const VECTOR_STMTS: u64 = 64 * 127;

/// The inner statement of `ludcmp`/`gaussj` at 64 lanes (three stream
/// loads, two vector ops, one stream store), [`VECTOR_STMTS`] times.
const VECTOR_STMT: &str = "
      PROGRAM V
      PARAMETER (N = 128)
      REAL A(N, N)
      LO = N - 64 + 1
      A(1:N, 1) = 0.5
      DO 30 K = 1, 64
        DO 20 J = 2, N
          A(LO:N, J) = A(LO:N, J) - A(LO:N, 1) * A(1, J)
   20   CONTINUE
   30 CONTINUE
      END
";

/// 1.25 × the totals over the 22 pool programs at the introducing
/// commit (16 500 serial originals, 75 336 candidates).
const POOL_CEILINGS: (u64, u64) = (20_625, 94_170);

#[test]
fn simulator_run_allocations_stay_exact_and_small() {
    let scalar = cedar_ir::compile_source(SCALAR_NEST).unwrap();
    let (vm, tree) = (run_allocs(&scalar, Engine::Vm), run_allocs(&scalar, Engine::Interp));
    println!("scalar nest, 65536 statements: vm {vm}, tree-walker {tree}");
    assert!(vm * 100 < tree, "the VM allocates per scalar statement: {vm} against {tree}");

    let vector = cedar_ir::compile_source(VECTOR_STMT).unwrap();
    for engine in [Engine::Vm, Engine::Interp] {
        let n = run_allocs(&vector, engine);
        println!("vector statement, 64 lanes, {VECTOR_STMTS} executions: {engine:?} {n}");
        assert!(n * 100 < VECTOR_STMTS, "{engine:?} allocates per vector statement: {n}");
    }

    // Table 1 is the paper's automatic restructuring, Table 2's
    // candidates are the manually improved versions.
    let pool = [
        (cedar_workloads::table1_workloads(), PassConfig::automatic_1991()),
        (cedar_workloads::table2_workloads(), PassConfig::manual_improved()),
    ];
    println!("{:<8} {:>10} {:>10}", "program", "serial", "candidate");
    let (mut serial, mut candidate) = (0, 0);
    for (workloads, cfg) in &pool {
        for w in workloads {
            let p = w.compile();
            let r = restructure(&p, cfg).program;
            let (s, c) = (run_allocs(&p, Engine::Vm), run_allocs(&r, Engine::Vm));
            println!("{:<8} {s:>10} {c:>10}", w.name);
            serial += s;
            candidate += c;
        }
    }
    println!("{:<8} {serial:>10} {candidate:>10}", "total");
    println!("{:<8} {:>10} {:>10}", "ceiling", POOL_CEILINGS.0, POOL_CEILINGS.1);
    assert!(serial <= POOL_CEILINGS.0, "serial originals: {serial} allocations");
    assert!(candidate <= POOL_CEILINGS.1, "candidates: {candidate} allocations");
}
