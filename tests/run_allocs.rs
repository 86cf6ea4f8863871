//! Heap allocations of simulator runs: what the engines cost, as a
//! number that does not depend on how fast the host happens to be.
//!
//! This binary holds one `#[test]` and installs its own counting
//! allocator (`alloc` + `realloc` calls), like `compile_allocs.rs`. It
//! counts only the thread that runs the measured call, and only while
//! the call runs (a thread-local switch): a simulator run is
//! single-threaded, so the counts repeat exactly, whatever the test
//! harness's other threads allocate meanwhile.
//! Each is the exact quantity a wall-time ratio would stand in for:
//!
//! * the tree-walker boxes two values per scalar statement, the VM's
//!   typed registers none: the 256×256 nest allocates 131 107 times on
//!   the one and 62 times on the other;
//! * a vector statement in steady state allocates nothing on either
//!   engine (DESIGN.md §14; the lanes come from a pool): 8 128
//!   executions of the 64-lane `ludcmp` statement cost 68 allocations
//!   on the VM and 39 on the tree-walker, set-up included;
//! * a loop site keeps its locals' storage after it exits and reuses it
//!   on its next entry (DESIGN.md §14), and a seeded tie-break draws its
//!   salts into one buffer, so a DOALL with a private scalar and a
//!   private array re-entered 1, 10 or 100 times allocates the same
//!   number of times, and so does a fault-perturbed DOALL of 96, 384 or
//!   1 536 iterations. When every entry allocated its locals afresh the
//!   22 candidates took 75 297 allocations (toeplz 16 192, OCEAN 10 548,
//!   MG3D 9 755); now 10 434, the largest sparse 2 312. The ceilings are
//!   1.25 × the totals, so a later change can move them down and nothing
//!   moves them up unnoticed;
//! * the happens-before detector's clocks are indexed by
//!   synchronization object (DESIGN.md §8), so a race-collecting run
//!   allocates a constant number of times per sync edge, whatever the
//!   trip count. With the per-iteration clock maps of the parent of
//!   PR 22 the distance-1 cascade of `cedar-verify`'s tests allocated
//!   25 136 / 1 566 072 / 100 200 539 times at 96 / 384 / 1 536
//!   iterations (cubic; the 1 536 run took 29 s) and a DOALL whose body
//!   is one critical section 2 396 / 36 896 / 588 987 times
//!   (quadratic); the 22 pool candidates, which contain no cascade and
//!   1 956 lock acquisitions, 828 139 times. The counts now are
//!   asserted exactly below, with `4 · n + 200` as the linear bound;
//! * the detector keeps only state that can still race (DESIGN.md §8):
//!   access paths go into one arena, and what a region recorded is
//!   released at the outermost join into buffers the next region
//!   reuses. A DOALL re-entered 1, 10 or 100 times then allocates the
//!   same number of times (1 114 / 10 130 / 100 142 with an `Arc` path
//!   per iteration), and the 22 candidates' race-collecting runs took
//!   31 613 allocations (607 311 before) and peaked at 8.0 MB of heap
//!   together (26.1 MB);
//! * cells share their readers (DESIGN.md §8): a reader chain is links
//!   in one arena, which any number of cells name, where every cell had
//!   a list of its own. The re-entered DOALL allocates 98 times (121
//!   with lists), the cascade and the lock chain 5 times fewer at every
//!   trip count, and the 22 candidates' race-collecting runs take
//!   14 356 allocations and peak at 6.8 MB together, against ceilings
//!   of 17 945 and 9 MB.

use cedar_restructure::{restructure, PassConfig};
use cedar_sim::{Engine, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes the counted thread allocated less those it freed while
/// counted, and the most that has been since [`counted`] last reset it.
/// A block allocated before the count and freed during it takes `LIVE`
/// down, hence signed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set on the measuring thread while [`counted`] runs its call.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Whether this allocation counts. A thread being torn down has no
/// switch left to read, and does not count.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are statistics and publish no other data, and the switch is a
// `const`-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(l.size());
        }
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        if counting() {
            shrink(l.size());
        }
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            shrink(l.size());
            grow(n);
        }
        System.realloc(p, l, n)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result, the allocations this thread made while it ran, and
/// its heap peak in bytes above what was live when it started.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let peak = PEAK.load(Ordering::Relaxed) - live;
    (out, ALLOCS.load(Ordering::Relaxed) - before, peak as u64)
}

/// Allocations of one run of `p`, bytecode compilation included.
fn run_allocs(p: &cedar_ir::Program, engine: Engine) -> u64 {
    counted(|| {
        let mc = MachineConfig::cedar_config1().with_engine(engine);
        cedar_sim::run(p, mc).expect("program runs");
    })
    .1
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

/// 1.25 × the totals over the 22 pool programs: 16 500 serial
/// originals at the commit that introduced the count, 10 434
/// candidates once loop locals were reused per site.
const POOL_CEILINGS: (u64, u64) = (20_625, 13_043);

/// 1.25 × the race-collecting total over the pool's 22 candidates
/// once cells shared their reader chains (14 356; 31 613 with a reader
/// list per cell, 607 311 when every access record had its own path
/// snapshot and nothing was released).
const POOL_RACE_CEILING: u64 = 17_945;

/// The summed heap peaks of those runs, in bytes, each above what was
/// live before it: 6 787 273 with shared reader chains, 8 001 481 with
/// a list per cell, 26 060 593 before the detector kept only live
/// state.
const POOL_RACE_PEAK_CEILING: u64 = 9_000_000;

/// Allocations of one race-collecting run of `p`, bytecode compilation
/// included, the sync edges (awaits + lock acquisitions) it met, and
/// its heap peak in bytes above what was live before it.
fn race_run_allocs(p: &cedar_ir::Program) -> (u64, u64, u64) {
    let (edges, allocs, peak) = counted(|| {
        let sim = cedar_sim::run_collecting_races(p, MachineConfig::cedar_config1()).expect("runs");
        assert_eq!(sim.races_detected(), 0, "the program is race-free");
        sim.stats.awaits + sim.stats.lock_acquisitions
    });
    (allocs, edges, peak)
}

/// Race-collecting allocations at 96 / 384 / 1 536 iterations.
const CASCADE_ALLOCS: [u64; 3] = [305, 607, 1_773];
const LOCK_CHAIN_ALLOCS: [u64; 3] = [199, 497, 1_659];

/// `cedar-verify`'s distance-1 recurrence at trip count `n`, as the
/// restructurer emits it: one `await` / `advance` cascade.
fn cascade(n: usize) -> cedar_ir::Program {
    let src = format!(
        "program p\nparameter (n = {n})\nreal a(n), b(n), c(n)\ndo i = 1, n\n\
         b(i) = i * 1.0\nc(i) = i * 0.5\nend do\na(1) = 1.0\ndo i = 2, n\n\
         t = sqrt(b(i)) + sqrt(c(i)) + sin(b(i)) * cos(c(i)) + exp(c(i) * 0.01)\n\
         a(i) = a(i - 1) * 0.5 + t\nend do\nx = a(n)\nend\n"
    );
    restructure(&cedar_ir::compile_free(&src).unwrap(), &PassConfig::automatic_1991()).program
}

/// A DOALL of `n` iterations whose body is one critical section: the
/// lock's holders form a chain `n` long.
fn lock_chain(n: usize) -> cedar_ir::Program {
    let src = format!(
        "program p\nparameter (n = {n})\nreal a(n), s\ndo i = 1, n\na(i) = real(i)\nend do\n\
         s = 0.0\ncdoall i = 1, n\ncall lock(1)\ns = s + a(i)\ncall unlock(1)\nend cdoall\nend\n"
    );
    cedar_ir::compile_free(&src).unwrap()
}

/// A DOALL with a private scalar and a private array, entered `trips`
/// times from a serial loop.
fn reentered_doall(trips: usize) -> cedar_ir::Program {
    let src = format!(
        "program p\nparameter (n = 64)\nreal a(n), b(n)\nglobal a, b\ndo i = 1, n\n\
         b(i) = i * 1.0\nend do\ndo k = 1, {trips}\ncdoall i = 1, n\nreal t, w(4)\n\
         t = b(i) * k\nw(1:4) = t\nw(2) = w(1) + w(3)\na(i) = w(2) + t\nend cdoall\nend do\nend\n"
    );
    cedar_ir::compile_free(&src).unwrap()
}

/// A DOALL entered `trips` times from a serial loop, every iteration
/// reading the shared `s` and writing its `a(i)`, across all of a
/// 10^6-element array: what a region records is released at its join,
/// and the next entry reuses the buffers.
fn reentered_race_doall(trips: usize) -> cedar_ir::Program {
    let src = format!(
        "program p\nparameter (n = 1000000)\nreal a(n), s\nglobal a, s\ns = 2.0\n\
         do k = 1, {trips}\ncdoall i = 1, n, 1000\na(i) = s * k\nend cdoall\nend do\n\
         x = a(n)\nend\n"
    );
    cedar_ir::compile_free(&src).unwrap()
}

/// One DOALL of `n` iterations, run under a legal fault profile: every
/// pick of a participant draws a salt per participant.
fn seeded_doall(n: usize) -> cedar_ir::Program {
    let src = format!(
        "program p\nparameter (n = {n})\nreal a(n), b(n)\nglobal a, b\ndo i = 1, n\n\
         b(i) = i * 1.0\nend do\ncdoall i = 1, n\na(i) = sqrt(b(i)) + b(i)\nend cdoall\nend\n"
    );
    cedar_ir::compile_free(&src).unwrap()
}

/// Allocations of [`reentered_doall`] at every number of entries, on
/// the VM and on the tree-walker.
const REENTRY_ALLOCS: [(Engine, u64); 2] = [(Engine::Vm, 91), (Engine::Interp, 57)];

/// Allocations of a race-collecting [`reentered_race_doall`] at every
/// number of entries.
const REENTRY_RACE_ALLOCS: u64 = 94;

/// Allocations of a fault-perturbed [`seeded_doall`] at every trip
/// count.
const SEED_RUN_ALLOCS: u64 = 45;

#[test]
fn simulator_run_allocations_stay_exact_and_small() {
    // Loop locals come back from their site, whatever the entry count.
    for (engine, want) in REENTRY_ALLOCS {
        for trips in [1, 10, 100] {
            let got = run_allocs(&reentered_doall(trips), engine);
            println!("re-entered doall, {trips} entries: {engine:?} {got}");
            assert_eq!(got, want, "{engine:?}, {trips} entries: allocations");
        }
    }
    // A race-collecting run keeps no state past the outermost join.
    // The bytecode is compiled outside the count: the entry count is a
    // literal, and at 1 entry it shares the loop's lower bound's
    // constant register.
    for trips in [1, 10, 100] {
        let p = reentered_race_doall(trips);
        let artifact = cedar_sim::compile(&p);
        let (races, got, _) = counted(|| {
            let mc = MachineConfig::cedar_config1();
            let sim = cedar_sim::run_collecting_races_precompiled(&p, mc, &artifact).expect("runs");
            sim.races_detected()
        });
        assert_eq!(races, 0, "the program is race-free");
        println!("re-entered race-collecting doall, {trips} entries: {got}");
        assert_eq!(got, REENTRY_RACE_ALLOCS, "race-collecting, {trips} entries: allocations");
    }
    // A seeded tie-break draws its salts into one buffer.
    for n in [96, 384, 1536] {
        let p = seeded_doall(n);
        let (_, got, _) = counted(|| {
            let faults = cedar_sim::FaultConfig::legal(3);
            cedar_sim::run_with_faults(&p, MachineConfig::cedar_config1(), faults).expect("runs")
        });
        println!("fault-perturbed doall, {n} iterations: {got}");
        assert_eq!(got, SEED_RUN_ALLOCS, "fault-perturbed doall {n}: allocations");
    }

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
    let head = ("program", "serial", "candidate", "race run", "race peak B");
    println!("{:<8} {:>10} {:>10} {:>10} {:>12}", head.0, head.1, head.2, head.3, head.4);
    let (mut serial, mut candidate, mut raced, mut race_peaks) = (0, 0, 0u64, 0u64);
    for (workloads, cfg) in &pool {
        for w in workloads {
            let p = w.compile();
            let r = restructure(&p, cfg).program;
            let (s, c) = (run_allocs(&p, Engine::Vm), run_allocs(&r, Engine::Vm));
            let (rc, _, peak) = race_run_allocs(&r);
            println!("{:<8} {s:>10} {c:>10} {rc:>10} {peak:>12}", w.name);
            serial += s;
            candidate += c;
            raced += rc;
            race_peaks += peak;
        }
    }
    println!("{:<8} {serial:>10} {candidate:>10} {raced:>10} {race_peaks:>12}", "total");
    let (serial_max, candidate_max) = POOL_CEILINGS;
    let race_max = (POOL_RACE_CEILING, POOL_RACE_PEAK_CEILING);
    println!(
        "{:<8} {serial_max:>10} {candidate_max:>10} {:>10} {:>12}",
        "ceiling", race_max.0, race_max.1
    );
    assert!(serial <= POOL_CEILINGS.0, "serial originals: {serial} allocations");
    assert!(candidate <= POOL_CEILINGS.1, "candidates: {candidate} allocations");
    assert!(raced <= POOL_RACE_CEILING, "race-collecting candidates: {raced} allocations");
    assert!(race_peaks <= POOL_RACE_PEAK_CEILING, "race-collecting candidates: {race_peaks} bytes");

    // Sync edges: a constant number of allocations each.
    type Shape = fn(usize) -> cedar_ir::Program;
    let shapes: [(&str, Shape, [u64; 3]); 2] =
        [("cascade", cascade, CASCADE_ALLOCS), ("lock chain", lock_chain, LOCK_CHAIN_ALLOCS)];
    for (name, program, want) in shapes {
        for (n, want) in [96, 384, 1536].into_iter().zip(want) {
            let (got, edges, _) = race_run_allocs(&program(n));
            println!("{name}, {n} iterations, {edges} sync edges: race-collecting run {got}");
            assert!(edges as usize >= n - 1, "{name} {n}: the loop was not synchronized");
            assert_eq!(got, want, "{name} {n}: race-collecting allocations");
            assert!(got <= 4 * n as u64 + 200, "{name} {n}: more than linear");
        }
    }
}
