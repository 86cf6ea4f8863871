//! A verdict does not depend on how many threads reached it.
//!
//! `restructure_validated` runs the reference, the base run and the
//! seed runs of an attempt as one `cedar_par::par_map` task set and
//! judges afterwards, so everything it returns — the accepted program,
//! the restructurer's report, the validation report with its seed runs
//! in seed order — must be the same under one worker and under four,
//! for the programs that validate and for the ones that are demoted.

use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;
use cedar_verify::{restructure_validated, ValidationConfig};
use cedar_workloads::{table1_workloads, table2_workloads};

/// Everything a verdict carries, as text: the program as printed, and
/// `Debug` for the rest (it prints `f64` exactly, so equal text means
/// equal cycle counts and error bounds bit for bit).
fn verdict(p: &cedar_ir::Program, watch: &[&str], jobs: usize) -> String {
    let vcfg = ValidationConfig { seeds: vec![11, 12, 13], ..Default::default() };
    let mc = MachineConfig::cedar_config1_scaled();
    cedar_par::with_jobs(jobs, || {
        match restructure_validated(p, &PassConfig::automatic_1991(), &mc, watch, &vcfg) {
            Ok(v) => format!(
                "{}\n{:?}\n{:?}",
                cedar_ir::print::print_program(&v.program),
                v.report,
                v.validation
            ),
            Err(e) => format!("refused: {e:?}"),
        }
    })
}

#[test]
fn pool_verdicts_do_not_depend_on_the_worker_count() {
    for w in table1_workloads().into_iter().chain(table2_workloads()) {
        let p = w.compile();
        let serial = verdict(&p, &w.watch, 1);
        assert!(serial.contains("attempts: 1"), "{}: validates at the first attempt", w.name);
        assert!(
            serial == verdict(&p, &w.watch, 4),
            "{}: verdict differs between 1 and 4 workers",
            w.name
        );
    }
}

#[test]
fn demotions_and_refusals_do_not_depend_on_the_worker_count() {
    let init = "do i = 1, n\na(i) = real(i)\nend do\n";
    // One restructuring bug each: a shared temporary, a reduction
    // without its lock, a recurrence without its cascade, a cascade
    // without its advance (which deadlocks the input itself).
    let negatives = [
        (
            "shared-temp",
            "real a(n), t\n",
            "cdoall i = 1, n\nt = a(i) * 2.0\na(i) = t + 1.0\nend cdoall\n",
        ),
        ("unlocked-reduction", "real a(n), s\n", "cdoall i = 1, n\ns = s + a(i)\nend cdoall\n"),
        (
            "missing-cascade",
            "real a(n)\n",
            "cdoall i = 2, n\na(i) = a(i - 1) * 0.5 + 1.0\nend cdoall\n",
        ),
        (
            "missing-advance",
            "real a(n)\n",
            "cdoacross i = 2, n\ncall await(1, 1)\na(i) = a(i - 1) + 1.0\nend cdoacross\n",
        ),
    ];
    for (name, decls, nest) in negatives {
        let src = format!("program neg\nparameter (n = 64)\n{decls}{init}{nest}end\n");
        let p = cedar_ir::compile_free(&src).unwrap();
        let serial = verdict(&p, &["a"], 1);
        if name == "missing-advance" {
            assert!(serial.starts_with("refused:"), "{name}: {serial}");
        } else {
            assert!(serial.contains("race detector"), "{name}: demoted for its race");
        }
        assert!(
            serial == verdict(&p, &["a"], 4),
            "{name}: verdict differs between 1 and 4 workers"
        );
    }
}
