//! Integration tests for the simulator's statistics counters and cost
//! model knobs: every counter the experiment harness relies on must
//! move exactly when the corresponding program behaviour occurs.

use cedar_ir::compile_free;
use cedar_sim::{run, MachineConfig};

fn sim(src: &str) -> cedar_sim::Simulator<'_> {
    let p = Box::leak(Box::new(compile_free(src).unwrap()));
    run(p, MachineConfig::cedar_config1()).unwrap()
}

fn sim_on(src: &str, mc: MachineConfig) -> cedar_sim::Simulator<'_> {
    let p = Box::leak(Box::new(compile_free(src).unwrap()));
    run(p, mc).unwrap()
}

// ---------------------------------------------------------------------
// structural counters
// ---------------------------------------------------------------------

#[test]
fn parallel_loop_counters() {
    let s = sim("program p\nreal a(64)\ncdoall i = 1, 64\na(i) = 1.0\nend cdoall\nend\n");
    assert_eq!(s.stats.parallel_loops, 1);
    assert_eq!(s.stats.parallel_iterations, 64);
}

#[test]
fn serial_loop_is_not_a_parallel_loop() {
    let s = sim("program p\nreal a(64)\ndo i = 1, 64\na(i) = 1.0\nend do\nend\n");
    assert_eq!(s.stats.parallel_loops, 0);
    assert_eq!(s.stats.parallel_iterations, 0);
}

#[test]
fn call_and_io_counters() {
    let s = sim("program p\nreal x\ncall f(x)\ncall f(x)\nprint *, x\nend\n\
         subroutine f(y)\nreal y\ny = y + 1.0\nend\n");
    assert_eq!(s.stats.calls, 2);
    assert_eq!(s.stats.io_statements, 1);
    assert_eq!(s.read_f64("x").unwrap(), vec![2.0]);
}

#[test]
fn lock_counter_counts_acquisitions() {
    let s = sim("program p\nreal t\nt = 0.0\ncdoall i = 1, 32\ncall lock(1)\nt = t + 1.0\n\
         call unlock(1)\nend cdoall\nend\n");
    assert_eq!(s.stats.lock_acquisitions, 32);
    assert_eq!(s.read_f64("t").unwrap(), vec![32.0]);
}

#[test]
fn cascade_counters_match_loop_shape() {
    let s = sim("program p\nreal a(65)\na(1) = 1.0\ncdoacross i = 2, 65\ncall await(1, i - 1)\n\
         a(i) = a(i-1) + 1.0\ncall advance(1)\nend cdoacross\nend\n");
    assert_eq!(s.stats.awaits, 64);
    assert_eq!(s.stats.advances, 64);
    assert_eq!(s.read_f64("a").unwrap()[64], 65.0);
}

// ---------------------------------------------------------------------
// timer regions
// ---------------------------------------------------------------------

#[test]
fn timer_regions_exclude_untimed_work() {
    let timed = sim("program p\nreal a(256), b(256)\ndo i = 1, 256\nb(i) = 1.0\nend do\n\
         call tstart\ndo i = 1, 256\na(i) = b(i)\nend do\ncall tstop\nend\n");
    assert!(timed.stats.region_cycles > 0.0);
    assert!(
        timed.stats.region_cycles < timed.cycles(),
        "region {} vs total {}",
        timed.stats.region_cycles,
        timed.cycles()
    );
}

#[test]
fn without_timers_region_cycles_stay_zero() {
    let s = sim("program p\nx = 1.0\nend\n");
    assert_eq!(s.stats.region_cycles, 0.0);
}

// ---------------------------------------------------------------------
// memory-class accounting
// ---------------------------------------------------------------------

#[test]
fn global_vector_traffic_is_counted_separately() {
    // PROCESS COMMON places the arrays in global memory; a vector
    // assignment between them must move elements across the network.
    let s = sim("program p\nprocess common /g/ a(512), b(512)\nreal a, b\n\
         b(1:512) = 1.0\na(1:512) = b(1:512)\nend\n");
    assert!(
        s.stats.global_vector_elems >= 1024,
        "read + write = {} elems",
        s.stats.global_vector_elems
    );
    assert!(s.stats.prefetched_elems > 0, "prefetch should engage");
}

#[test]
fn cluster_data_generates_no_global_traffic() {
    let s = sim("program p\nreal a(512), b(512)\nb(1:512) = 1.0\na(1:512) = b(1:512)\nend\n");
    assert_eq!(s.stats.global_vector_elems, 0);
    assert_eq!(s.stats.global_scalar_accesses, 0);
}

#[test]
fn fewer_global_streams_cost_more_cycles() {
    // Contention applies to concurrent vector streams into global
    // memory: the same program on a machine with fewer full-speed
    // streams must be slower.
    let src = "program p\nprocess common /g/ a(4096), b(4096)\nreal a, b\n\
               b(1:4096) = 1.0\nxdoall i = 1, 32\na(1:4096) = b(1:4096)\nend xdoall\nend\n";
    let mut wide = MachineConfig::cedar_config2();
    wide.machine.global_streams = 32.0;
    let mut narrow = MachineConfig::cedar_config2();
    narrow.machine.global_streams = 4.0;
    let fast = sim_on(src, wide);
    let slow = sim_on(src, narrow);
    assert!(
        slow.cycles() > fast.cycles() * 1.5,
        "narrow {} vs wide {}",
        slow.cycles(),
        fast.cycles()
    );
}

#[test]
fn paging_surcharge_scales_with_overflow() {
    // Two cluster arrays: one fits, one overflows the (scaled-down)
    // cluster memory. Only the second run pays the thrash surcharge.
    let mut mc = MachineConfig::cedar_config1();
    mc.machine.cluster_capacity = 2048; // 512 REAL elements
    let fits =
        sim_on("program p\nreal a(256)\ndo i = 1, 256\na(i) = 1.0\nend do\nend\n", mc.clone());
    let thrashes = sim_on("program p\nreal a(1024)\ndo i = 1, 1024\na(i) = 1.0\nend do\nend\n", mc);
    assert_eq!(fits.stats.paged_accesses, 0.0);
    assert!(thrashes.stats.paged_accesses > 0.0);
}

// ---------------------------------------------------------------------
// gather subscripts and iota
// ---------------------------------------------------------------------

#[test]
fn gather_subscript_reads_through_index_vector() {
    // b(i) = a(idx(i)) in section form exercises the hardware-gather
    // path (§4.2.2): idx reverses the order.
    let s = sim("program p\nreal a(8), b(8)\ninteger idx(8)\ndo i = 1, 8\na(i) = real(i)\n\
         idx(i) = 9 - i\nend do\nb(1:8) = a(idx(1:8))\nend\n");
    let b = s.read_f64("b").unwrap();
    assert_eq!(b, vec![8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);

    // Gathers bypass the prefetch unit (DESIGN.md §6.7): from a GLOBAL
    // array, through an index vector in cluster memory, the lanes cross
    // the interconnect unprefetched — so with the gather as the only
    // global vector read, switching prefetch off moves no cycle. The
    // contiguous read of the same array is prefetched, and does move.
    let program = |read: &str| {
        format!(
            "program p\nreal a(8), b(8)\ninteger idx(8)\nglobal a\ndo i = 1, 8\n\
             a(i) = real(i)\nidx(i) = 9 - i\nend do\nb(1:8) = {read}\nend\n"
        )
    };
    let (gather, contiguous) = (program("a(idx(1:8))"), program("a(1:8)"));
    let mc = MachineConfig::cedar_config1;
    let g = sim_on(&gather, mc());
    assert_eq!(g.read_f64("b").unwrap(), b);
    assert_eq!(g.stats.global_vector_elems, 8);
    assert_eq!(g.stats.prefetched_elems, 0);
    let g_off = sim_on(&gather, mc().without_prefetch());
    assert_eq!(g.cycles().to_bits(), g_off.cycles().to_bits());
    let c = sim_on(&contiguous, mc());
    assert_eq!((c.stats.global_vector_elems, c.stats.prefetched_elems), (8, 8));
    let c_off = sim_on(&contiguous, mc().without_prefetch());
    assert!(c_off.cycles() > c.cycles(), "{} vs {}", c_off.cycles(), c.cycles());
}

// ---------------------------------------------------------------------
// subroutine tasking costs
// ---------------------------------------------------------------------

#[test]
fn ctask_startup_dwarfs_mtask_startup() {
    let src = "program p\nreal x, y\ncall ctskstart(f, x)\ncall tskwait\nend\n\
               subroutine f(v)\nreal v\nv = 1.0\nend\n";
    let src_m = "program p\nreal x, y\ncall mtskstart(f, x)\ncall tskwait\nend\n\
                 subroutine f(v)\nreal v\nv = 1.0\nend\n";
    let heavy = sim(src);
    let light = sim(src_m);
    assert_eq!(heavy.stats.tasks_started, 1);
    assert_eq!(light.stats.tasks_started, 1);
    assert!(
        heavy.cycles() > light.cycles() + 10_000.0,
        "ctsk {} vs mtsk {}",
        heavy.cycles(),
        light.cycles()
    );
}
