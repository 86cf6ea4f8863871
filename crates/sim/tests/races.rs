//! End-to-end tests of the happens-before race detector (DESIGN.md §8)
//! on real Cedar Fortran programs, plus deadlock-watchdog coverage on
//! cross-cluster cascades.

use cedar_sim::{MachineConfig, RaceKind, SimErrorKind};

fn detect(src: &str) -> Result<f64, cedar_sim::SimError> {
    let p = cedar_ir::compile_free(src).unwrap();
    cedar_sim::run(&p, MachineConfig::cedar_config1().with_race_detection()).map(|s| s.cycles())
}

fn collect(src: &str) -> cedar_sim::Simulator<'static> {
    let p = Box::leak(Box::new(cedar_ir::compile_free(src).unwrap()));
    cedar_sim::run_collecting_races(p, MachineConfig::cedar_config1())
        .expect("collect-mode run must complete")
}

/// A shared scalar temporary written by every CDOALL iteration — the
/// classic expansion-without-privatization bug — is a write-write race.
const SHARED_TEMP: &str = "program p
parameter (n = 64)
real a(n), t
cdoall i = 1, n
t = real(i) * 2.0
a(i) = t + 1.0
end cdoall
end
";

#[test]
fn shared_temp_in_cdoall_aborts_with_data_race() {
    let err = detect(SHARED_TEMP).unwrap_err();
    assert!(err.is_race(), "expected a race, got {err}");
    assert_eq!(err.kind, SimErrorKind::DataRace);
    let info = err.race.as_deref().expect("race details attached");
    assert_eq!(info.var.as_deref(), Some("t"), "racy variable named in report");
    // Display formatting: kind tag, variable, and both endpoints.
    let text = err.to_string();
    assert!(text.contains("data-race"), "{text}");
    assert!(text.contains("`t`"), "{text}");
    assert!(text.contains("conflicts with"), "{text}");
}

#[test]
fn collect_mode_completes_and_reports() {
    let sim = collect(SHARED_TEMP);
    assert!(sim.races_detected() > 0, "collect mode must still see the race");
    let report = sim.race_report();
    assert!(!report.is_empty());
    assert!(report.iter().any(|r| r.var.as_deref() == Some("t")));
    // The run completed: `a` holds the (serial-host-order) results.
    assert_eq!(sim.read_f64("a").unwrap().len(), 64);
}

/// The same loop with the temporary privatized (declared loop-local
/// after the header) is race-free: each participant has its own copy.
#[test]
fn privatized_temp_is_not_a_race() {
    let src = "program p
parameter (n = 64)
real a(n)
cdoall i = 1, n
real t
t = real(i) * 2.0
a(i) = t + 1.0
end cdoall
end
";
    let cycles = detect(src).expect("privatized loop must be race-free");
    assert!(cycles > 0.0);
}

/// A loop entered again takes back its locals' storage, and with it
/// their exemption — never a shared temporary's: the unprivatized `s`
/// beside the privatized `t` is reported on every entry, as often as on
/// the first, and `t` never.
#[test]
fn reentered_loop_reports_its_shared_temporary_on_every_entry() {
    let entries = |k: usize| {
        collect(&format!(
            "program p\nparameter (n = 64)\nreal a(n, 3), s\ndo k = 1, {k}\ncdoall i = 1, n\n\
             real t\nt = real(i) * k\ns = t + 1.0\na(i, k) = s\nend cdoall\nend do\nend\n"
        ))
    };
    let (once, thrice) = (entries(1), entries(3));
    assert!(once.races_detected() > 0, "the shared temporary races");
    assert_eq!(thrice.races_detected(), 3 * once.races_detected());
    for sim in [&once, &thrice] {
        assert!(sim.race_report().iter().all(|r| r.var.as_deref() == Some("s")));
    }
    let per_entry = |sim: &cedar_sim::Simulator<'_>| {
        let mut iters: Vec<u32> = sim.race_report().iter().map(|r| r.writer_iter).collect();
        iters.sort_unstable();
        iters
    };
    let (first, all) = (per_entry(&once), per_entry(&thrice));
    assert_eq!(all, first.iter().flat_map(|&i| [i; 3]).collect::<Vec<_>>());
}

/// A first-order recurrence in a DOALL without any cascade: iteration i
/// reads what iteration i-1 wrote, unordered — a write-read race.
#[test]
fn unsynchronized_recurrence_is_a_race() {
    let src = "program p
parameter (n = 32)
real b(n)
do i = 1, n
b(i) = 1.0
end do
cdoall i = 2, n
b(i) = b(i - 1) + 1.0
end cdoall
end
";
    let err = detect(src).unwrap_err();
    assert!(err.is_race(), "expected a race, got {err}");
    let info = err.race.as_deref().unwrap();
    assert_eq!(info.var.as_deref(), Some("b"));
    assert!(
        matches!(info.kind, RaceKind::WriteRead | RaceKind::ReadWrite),
        "recurrence should be a write/read conflict, got {:?}",
        info.kind
    );
}

/// The same recurrence under a CDOACROSS distance-1 cascade is ordered:
/// await(1,1) joins the advance of iteration i-1, which follows its
/// write. No race.
#[test]
fn cascade_orders_the_recurrence() {
    let src = "program p
parameter (n = 32)
real a(n), s(n)
do i = 1, n
a(i) = real(i)
s(i) = 0.0
end do
s(1) = a(1)
cdoacross i = 2, n
call await(1, 1)
s(i) = s(i - 1) + a(i)
call advance(1)
end cdoacross
end
";
    let sim = collect(src);
    assert_eq!(sim.races_detected(), 0, "cascade must order the recurrence");
    // And the values are the true prefix sums.
    let s = sim.read_f64("s").unwrap();
    let n = s.len();
    assert!((s[n - 1] - (n * (n + 1)) as f64 / 2.0).abs() < 1e-9);
}

/// A sum reduction without a critical section races; the same reduction
/// under lock/unlock is ordered by the lock chain.
#[test]
fn reduction_needs_the_lock() {
    let unlocked = "program p
parameter (n = 32)
real a(n), s
s = 0.0
do i = 1, n
a(i) = real(i)
end do
cdoall i = 1, n
s = s + a(i)
end cdoall
end
";
    let err = detect(unlocked).unwrap_err();
    assert!(err.is_race(), "unlocked reduction must race, got {err}");
    assert_eq!(err.race.as_deref().unwrap().var.as_deref(), Some("s"));

    let locked = unlocked.replace("s = s + a(i)", "call lock(1)\ns = s + a(i)\ncall unlock(1)");
    let sim = collect(&locked);
    assert_eq!(sim.races_detected(), 0, "locked reduction is ordered");
    let s = sim.read_f64("s").unwrap();
    assert!((s[0] - (32.0 * 33.0 / 2.0)).abs() < 1e-9);
}

/// Acceptance gate: with `detect_races` off (the default), cycle counts
/// are bit-identical to a run with the detector on — the detector
/// charges zero simulated cycles.
#[test]
fn detector_charges_no_simulated_cycles() {
    let src = "program p
parameter (n = 200)
real a(n), s(n)
do i = 1, n
a(i) = real(i)
s(i) = 0.0
end do
s(1) = a(1)
cdoacross i = 2, n
call await(1, 1)
s(i) = s(i - 1) + a(i)
call advance(1)
end cdoacross
end
";
    let p = cedar_ir::compile_free(src).unwrap();
    let plain = cedar_sim::run(&p, MachineConfig::cedar_config1()).unwrap();
    let traced = cedar_sim::run_collecting_races(&p, MachineConfig::cedar_config1()).unwrap();
    assert_eq!(plain.cycles(), traced.cycles(), "detector must be cycle-invisible");
    assert_eq!(traced.races_detected(), 0);
}

/// Satellite: the deadlock watchdog fires on a *cross-cluster*
/// (SDOACROSS) cascade whose `await` has no matching `advance`, instead
/// of stalling the library-microtasked schedule forever.
#[test]
fn cross_cluster_missing_advance_deadlocks() {
    let src = "program p
parameter (n = 48)
real s(n)
do i = 1, n
s(i) = 1.0
end do
sdoacross i = 2, n
call await(1, 1)
s(i) = s(i - 1) + 1.0
end sdoacross
end
";
    let p = cedar_ir::compile_free(src).unwrap();
    let err = match cedar_sim::run(&p, MachineConfig::cedar_config1()) {
        Ok(_) => panic!("missing advance must deadlock"),
        Err(e) => e,
    };
    assert_eq!(err.kind, SimErrorKind::Deadlock, "got {err}");
    assert!(err.is_deadlock());
    let text = err.to_string();
    assert!(text.contains("deadlock"), "{text}");
}
