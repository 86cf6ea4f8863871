//! End-to-end runner: one workload, tracing off.
//!
//! `e2e --workload NAME --seed N --seconds S` sets the workload up
//! three times, measures for `S` seconds, checks the outputs, and
//! prints the nine end-to-end metrics as one JSON object on the last
//! line of stdout (and as a table on stderr).

use cedar_benchmark::harness::{self, Workload};
use cedar_benchmark::reference::Reference;
use cedar_benchmark::spans::Tracer;
use cedar_benchmark::{paper, with_workload};

fn run<W: Workload>(args: &harness::Args) {
    let mut reference = Reference::new();
    // The first set-up, the timed loop and the check run in a fresh
    // process, so that its peak resident set is theirs alone; the
    // set-ups that make `setup_s` a median come after.
    let (mut w, mut setup_s, mut check) =
        harness::setup_repeated::<W>(args.seed, 1, &mut reference);
    let timed = harness::timed_loop(
        &mut w,
        args.seconds,
        W::MIN_ITERS,
        &Tracer::off(),
        &mut reference,
    );
    check.absorb(w.check());
    check.absorb(w.finish());
    let (again, more_setup_s, more_check) =
        harness::setup_repeated::<W>(args.seed, harness::SETUPS - 1, &mut reference);
    setup_s.extend(more_setup_s);
    check.absorb(more_check);
    check.absorb(again.finish());
    let fidelity = paper::measure_fidelity();
    check.record(
        (fidelity.bad_cells > 0)
            .then(|| format!("{} table cells are not finite", fidelity.bad_cells)),
    );
    for note in &check.notes {
        eprintln!("FAILED {note}");
    }
    let attempted = timed.units() as u64 + check.attempted;
    let metrics = harness::end_to_end::<W>(
        &setup_s,
        &timed,
        (attempted, check.failed),
        &fidelity,
        &reference,
    );
    harness::print_table(W::NAME, &metrics);
    println!(
        "{}",
        harness::result_line(attempted, check.failed, &metrics)
    );
}

fn main() {
    let args = harness::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("e2e: {e}\nusage: e2e --workload NAME [--seed N] [--seconds S]");
        std::process::exit(2);
    });
    let ran = cedar_par::with_jobs(
        cedar_benchmark::JOBS,
        || with_workload!(args.workload.as_str(), W => run::<W>(&args)),
    );
    // A run that printed its result exits 0; whether the outputs were
    // correct is in the result.
    if ran.is_none() {
        eprintln!("e2e: no workload named {}", args.workload);
        std::process::exit(2);
    }
}
