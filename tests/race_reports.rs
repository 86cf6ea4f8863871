//! Race reports of the happens-before detector, pinned line for line.
//!
//! `cycle_bits` pins what a race-collecting run *charges* (nothing);
//! this pins what it *says*. `tests/fixtures/race_reports.txt` holds,
//! per run, `races_detected()` (the uncapped total), the length of
//! `race_report()` (capped at 256) and every `RaceInfo` of the report
//! through `Display`, in order — statement pair, iterations, CEs:
//!
//! * the 22 pool workloads × {`automatic_1991`, `manual_improved`} on
//!   Cedar configuration 1 (capacities scaled);
//! * the four racy negatives of `cedar_experiments::races`;
//! * `GenProgram` seeds 0..300 under `automatic_1991`;
//! * a dozen hand-written synchronisation shapes the pool lacks (the
//!   pool's `sim.awaits` is 0), each in a clean and a broken variant:
//!   cascades at distance 1, 2 and 3, two points in one loop, an
//!   `advance` before the `await`, an `advance` some iterations skip,
//!   one point advanced twice, a critical section inside a DOACROSS, a
//!   lock in a DOALL nested in a DOACROSS, two locks in one DOALL, a
//!   cascade that reaches back through a second point, more races than
//!   the report's cap, and a subroutine task group taking a lock;
//! * shadow cells that outlive a join: each racy negative inside a
//!   serial loop of 3 trips, and one shared element read in 1 000
//!   successive DOALLs;
//! * shared readers, clean and broken: a section read by every
//!   iteration of a DOACROSS and written by one, and rounds of two
//!   readers and a writer of one section in a DOALL.
//!
//! A change of the detector's clocks leaves the fixture byte-unchanged:
//! the happens-before order is the machine's, not the representation's.
//! Regenerate only for a deliberate change of that order:
//!
//! ```text
//! UPDATE_RACE_REPORTS=1 cargo test -p cedar-fuzz --test race_reports
//! ```

use cedar_fuzz::GenProgram;
use cedar_ir::Program;
use cedar_restructure::{restructure, PassConfig};
use cedar_sim::MachineConfig;
use std::path::{Path, PathBuf};

const SEEDS: usize = 300;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/race_reports.txt")
}

/// The lines of one race-collecting run: a header, then one indented
/// line per reported race.
fn report(label: &str, program: &Program) -> Vec<String> {
    match cedar_sim::run_collecting_races(program, MachineConfig::cedar_config1_scaled()) {
        Ok(sim) => {
            let races = sim.race_report();
            let head = format!("{label} races={} reported={}", sim.races_detected(), races.len());
            std::iter::once(head).chain(races.iter().map(|r| format!("  {r}"))).collect()
        }
        Err(e) => vec![format!("{label} error={:?}: {}", e.kind, e.msg)],
    }
}

fn compiled(label: &str, src: &str) -> Program {
    cedar_ir::compile_free(src).unwrap_or_else(|e| panic!("{label} does not compile: {e}"))
}

/// Hand-written synchronisation shapes: `(name, clean, broken)`. Every
/// program shares the declarations and the initialisation of `HEAD`.
fn shapes() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "cascade-d1",
            "cdoacross i = 2, n\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             end cdoacross\n",
            // The recurrence is read before the await that orders it.
            "cdoacross i = 2, n\nt = b(i - 1)\ncall await(1, 1)\nb(i) = t + a(i)\n\
             call advance(1)\nend cdoacross\n",
        ),
        (
            "cascade-d2",
            "cdoacross i = 3, n\ncall await(1, 2)\nb(i) = b(i - 2) + a(i)\ncall advance(1)\n\
             end cdoacross\n",
            // Waits two back, depends one back.
            "cdoacross i = 3, n\ncall await(1, 2)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             end cdoacross\n",
        ),
        (
            "cascade-d3",
            "cdoacross i = 4, n\ncall await(1, 3)\nb(i) = b(i - 3) * 0.5 + a(i)\n\
             call advance(1)\nend cdoacross\n",
            "cdoacross i = 4, n\ncall await(1, 3)\nb(i) = b(i - 2) * 0.5 + a(i)\n\
             call advance(1)\nend cdoacross\n",
        ),
        (
            "two-points",
            "cdoacross i = 2, n\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             call await(2, 1)\nc(i) = c(i - 1) + b(i)\ncall advance(2)\nend cdoacross\n",
            // The second recurrence is written after its point advanced.
            "cdoacross i = 2, n\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             call await(2, 1)\ncall advance(2)\nc(i) = c(i - 1) + b(i)\nend cdoacross\n",
        ),
        (
            "advance-before-await",
            "cdoacross i = 2, n\nc(i) = a(i) * 2.0\ncall advance(1)\ncall await(1, 1)\n\
             d(i) = c(i - 1) + 1.0\nend cdoacross\n",
            // `d(i - 1)` is written after the only advance.
            "cdoacross i = 2, n\nc(i) = a(i) * 2.0\ncall advance(1)\ncall await(1, 1)\n\
             d(i) = d(i - 1) + c(i - 1)\nend cdoacross\n",
        ),
        (
            "skipped-advance",
            "cdoacross i = 3, n\ncall await(1, 2)\nif (mod(i, 3) .ne. 0) then\n\
             b(i) = b(i - 2) * 0.5 + a(i)\ncall advance(1)\nend if\nend cdoacross\n",
            // Every third iteration writes but never publishes.
            "cdoacross i = 3, n\ncall await(1, 2)\nb(i) = b(i - 2) * 0.5 + a(i)\n\
             if (mod(i, 3) .ne. 0) then\ncall advance(1)\nend if\nend cdoacross\n",
        ),
        (
            "advanced-twice",
            "cdoacross i = 2, n\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             c(i) = c(i - 1) + b(i)\ncall advance(1)\nend cdoacross\n",
            "cdoacross i = 2, n\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             c(i) = c(i - 1) + b(i)\ncall advance(1)\nd(i) = d(i - 1) + 1.0\nend cdoacross\n",
        ),
        (
            "critical-in-doacross",
            "cdoacross i = 2, n\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             call lock(1)\ns = s + a(i)\ncall unlock(1)\nend cdoacross\n",
            "cdoacross i = 2, n\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             call lock(1)\ns = s + a(i)\ncall unlock(1)\ns2 = s2 + a(i)\nend cdoacross\n",
        ),
        (
            "lock-in-nested-doall",
            "sdoacross i = 2, 16\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\n\
             cdoall j = 1, 8\ncall lock(2)\ns = s + a(j) * b(i)\ncall unlock(2)\nend cdoall\n\
             call advance(1)\nend sdoacross\n",
            // The inner loops of different outer iterations share `s`
            // once the nest runs after the advance.
            "sdoacross i = 2, 16\ncall await(1, 1)\nb(i) = b(i - 1) + a(i)\ncall advance(1)\n\
             cdoall j = 1, 8\ncall lock(2)\ns = s + a(j) * b(i)\ncall unlock(2)\nend cdoall\n\
             end sdoacross\n",
        ),
        (
            "two-locks",
            "cdoall i = 1, n\ncall lock(1)\ns = s + a(i)\ncall unlock(1)\ncall lock(2)\n\
             s2 = s2 + a(i) * 2.0\ncall unlock(2)\nend cdoall\n",
            // Odd and even iterations guard `s` with different locks.
            "cdoall i = 1, n\nif (mod(i, 2) .eq. 0) then\ncall lock(1)\ns = s + a(i)\n\
             call unlock(1)\nelse\ncall lock(2)\ns = s + a(i)\ncall unlock(2)\nend if\n\
             end cdoall\n",
        ),
        (
            "transitive-points",
            // `c(i - 2)` is ordered through point 2 one back, whose
            // publisher had awaited point 1 one back.
            "cdoacross i = 3, n\nc(i) = a(i) * 2.0\ncall advance(1)\ncall await(1, 1)\n\
             call advance(2)\ncall await(2, 1)\nd(i) = c(i - 2) + c(i - 1)\nend cdoacross\n",
            "cdoacross i = 3, n\nc(i) = a(i) * 2.0\ncall advance(1)\ncall advance(2)\n\
             call await(2, 2)\nd(i) = c(i - 2) + c(i - 1)\nend cdoacross\n",
        ),
        (
            "capped-report",
            "cdoall i = 1, n\ncall lock(1)\ns = s + a(i)\ns2 = s2 + a(i)\nt = t + 1.0\n\
             call unlock(1)\nend cdoall\n",
            // More races than the report keeps: the total goes on counting.
            "cdoall i = 1, n\ns = s + a(i)\ns2 = s2 + a(i)\nt = t + 1.0\nend cdoall\n",
        ),
    ]
}

const HEAD: &str = "program p\nparameter (n = 96)\nreal a(n), b(n), c(n), d(n), s, s2, t\n\
                    do i = 1, n\na(i) = real(i)\nb(i) = 1.0\nc(i) = 2.0\nd(i) = 3.0\nend do\n\
                    s = 0.0\ns2 = 0.0\n";

/// A subroutine task group whose spawner takes a lock between the
/// spawns; the tasks' subroutine takes it in the clean variant only.
const TASKS: &str = "program p\nreal s\ns = 0.0\ncall ctskstart(add, s, 1.0)\n\
     call lock(1)\ns = s + 0.5\ncall unlock(1)\ncall ctskstart(add, s, 2.0)\n\
     call ctskstart(add, s, 3.0)\ncall lock(1)\ns = s + 0.25\ncall unlock(1)\ncall tskwait\n\
     x = s\nend\nsubroutine add(s, v)\nreal s, v\n";

fn report_lines() -> Vec<String> {
    let mut pool = cedar_workloads::table1_workloads();
    pool.extend(cedar_workloads::table2_workloads());
    let passes = [
        ("automatic_1991", PassConfig::automatic_1991()),
        ("manual_improved", PassConfig::manual_improved()),
    ];
    let mut lines: Vec<String> = cedar_par::par_map(pool, |w| {
        let serial = w.compile();
        let mut out = Vec::new();
        for (pname, pass) in &passes {
            let candidate = restructure(&serial, pass).program;
            out.extend(report(&format!("pool {} {pname}", w.name), &candidate));
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();

    for (name, src) in cedar_experiments::races::negatives() {
        let label = format!("negative {name}");
        lines.extend(report(&label, &compiled(&label, &src)));
    }

    let auto = PassConfig::automatic_1991();
    lines.extend(
        cedar_par::par_map_range(SEEDS, |seed| {
            let label = format!("seed {seed} automatic_1991");
            let src = GenProgram::generate(seed as u64).render().source;
            report(&label, &restructure(&compiled(&label, &src), &auto).program)
        })
        .into_iter()
        .flatten(),
    );

    let mut hand: Vec<(String, String)> = Vec::new();
    for (name, clean, broken) in shapes() {
        hand.push((format!("shape {name} clean"), format!("{HEAD}{clean}x = b(n) + s\nend\n")));
        hand.push((format!("shape {name} broken"), format!("{HEAD}{broken}x = b(n) + s\nend\n")));
    }
    let locked = "call lock(1)\ns = s + v\ncall unlock(1)\nend\n";
    hand.push(("shape task-group-lock clean".into(), format!("{TASKS}{locked}")));
    hand.push(("shape task-group-lock broken".into(), format!("{TASKS}s = s + v\nend\n")));
    for (label, src) in &hand {
        lines.extend(report(label, &compiled(label, src)));
    }

    for (label, src) in outlived_joins() {
        lines.extend(report(&label, &compiled(&label, &src)));
    }
    for (label, src) in shared_readers() {
        lines.extend(report(&label, &compiled(&label, &src)));
    }
    lines
}

/// Sections whose cells share their readers. Every iteration of a
/// DOACROSS reads `a(1:n)` before it advances, and the last writes it:
/// after `await(1, 1)` it has learnt every reader, after `await(1, 4)`
/// only those four or more back, and the three since race with each
/// element's write. Then rounds in a DOALL: two iterations read
/// `a(1:8)` (one element also as a scalar) and the third writes it,
/// under one lock, or with the writer outside it.
fn shared_readers() -> Vec<(String, String)> {
    let section = |dist: u32| {
        format!(
            "cdoacross j = 1, 16\nc(j) = sum(a(1:n)) * real(j)\ncall advance(1)\n\
             call await(1, {dist})\nif (j .eq. 16) then\na(1:n) = 0.0\nend if\nend cdoacross\n"
        )
    };
    let read = "b(1:8) = a(1:8) + c(1:8)\ns = s + a(mod(j, 8) + 1)\n";
    let write = "a(1:8) = b(1:8) * 0.5\n";
    let rounds = |locked_writer: bool| {
        let (lock, unlock) = ("call lock(1)\n", "call unlock(1)\n");
        let writer = if locked_writer { format!("{lock}{write}{unlock}") } else { write.into() };
        format!(
            "cdoall j = 1, 60\nif (mod(j, 3) .eq. 0) then\n{writer}else\n{lock}{read}{unlock}\
             end if\nend cdoall\n"
        )
    };
    let shapes = [
        ("shared-section clean", section(1)),
        ("shared-section broken", section(4)),
        ("reader-rounds clean", rounds(true)),
        ("reader-rounds broken", rounds(false)),
    ];
    let tail = "x = b(n) + s\nend\n";
    shapes
        .into_iter()
        .map(|(name, body)| (format!("shared {name}"), format!("{HEAD}{body}{tail}")))
        .collect()
}

/// Programs whose shadow cells outlive the join of the region that
/// recorded them: each negative's parallel loop re-entered by a serial
/// loop of 3 trips, and one element read in 1 000 successive DOALLs.
fn outlived_joins() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = cedar_experiments::races::negatives()
        .into_iter()
        .map(|(name, src)| {
            let fork = src.find("\ncdo").expect("a parallel loop") + 1;
            let body = src[fork..].strip_suffix("end\n").expect("ends the program");
            let wrapped = format!("{}do k = 1, 3\n{body}end do\nend\n", &src[..fork]);
            (format!("outlived negative {name}"), wrapped)
        })
        .collect();
    out.push((
        "outlived successive-doalls".into(),
        "program p\nparameter (n = 8)\nreal a(n), s\ns = 2.0\ndo k = 1, 1000\n\
         cdoall i = 1, n\na(i) = s * real(i)\nend cdoall\nend do\nx = a(n)\nend\n"
            .into(),
    ));
    out
}

#[test]
fn race_reports_match_the_recorded_lines() {
    let got = report_lines();
    let path = fixture_path();
    if std::env::var("UPDATE_RACE_REPORTS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        println!("race_reports: {} lines written to {}", got.len(), path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let want: Vec<&str> = want.lines().collect();
    let first = want.iter().zip(&got).position(|(w, g)| w != g);
    if let Some(at) = first {
        panic!(
            "race reports moved at line {}:\n  recorded: {}\n  detected: {}",
            at + 1,
            want[at],
            got[at]
        );
    }
    assert_eq!(want.len(), got.len(), "fixture has a different number of lines");
}
