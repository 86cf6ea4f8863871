//! Race-detector evaluation sweep (DESIGN.md §8).
//!
//! Two populations:
//!
//! * **Should be clean** — every Table 1 workload restructured with the
//!   automatic configuration and every Table 2 workload with the manual
//!   configuration, run under the happens-before detector in
//!   collect-all mode. Any race here is a detector false positive (or a
//!   restructurer bug — either way a failure).
//! * **Should be flagged** — hand-written racy Cedar Fortran negatives:
//!   a shared temporary in a `CDOALL` (expansion without
//!   privatization), an unlocked sum reduction, a recurrence in a
//!   `CDOALL` with no cascade, and a `CDOACROSS` whose `await` has no
//!   matching `advance` (which the deadlock watchdog catches instead).
//!
//! Each run also re-executes with detection off and compares simulated
//! cycles: the detector must be cycle-invisible. The static
//! [`cedar_restructure::sync_audit`] pass is applied to every program
//! as a cross-check of the dynamic verdicts. Results are rendered as a
//! text table plus a JSON confusion matrix.

use cedar_restructure::PassConfig;
use cedar_sim::MachineConfig;
use cedar_workloads::Workload;

/// One program's detector verdicts.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload or negative name.
    pub name: String,
    /// `table1` / `table2` / `negative`.
    pub suite: &'static str,
    /// Ground truth: is this program racy by construction?
    pub expect_race: bool,
    /// Races the detector recorded (collect-all mode).
    pub races: u64,
    /// The run deadlocked (counts as flagged: the watchdog caught it).
    pub deadlock: bool,
    /// First race report, for the table.
    pub first_race: Option<String>,
    /// Uncovered dependences the static sync audit found.
    pub audit_findings: usize,
    /// Simulated cycles with detection off == with detection on.
    pub cycles_identical: bool,
}

impl Row {
    /// Did any dynamic layer flag the program?
    pub fn flagged(&self) -> bool {
        self.races > 0 || self.deadlock
    }

    /// Correct verdict for this program?
    pub fn correct(&self) -> bool {
        self.flagged() == self.expect_race
    }
}

/// Confusion-matrix counts over a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Racy program flagged.
    pub true_positive: usize,
    /// Racy program missed.
    pub false_negative: usize,
    /// Clean program flagged.
    pub false_positive: usize,
    /// Clean program passed.
    pub true_negative: usize,
}

/// Tally the matrix.
pub fn confusion(rows: &[Row]) -> Confusion {
    let mut c = Confusion::default();
    for r in rows {
        match (r.expect_race, r.flagged()) {
            (true, true) => c.true_positive += 1,
            (true, false) => c.false_negative += 1,
            (false, true) => c.false_positive += 1,
            (false, false) => c.true_negative += 1,
        }
    }
    c
}

fn examine(
    name: &str,
    suite: &'static str,
    expect_race: bool,
    program: &cedar_ir::Program,
    audit_findings: usize,
) -> Row {
    // This sweep calls the simulator directly (it needs both detector
    // modes), so the chaos gate is applied here rather than in
    // `pipeline::run_program`. The ladder's config rewrites are *not*:
    // this sweep's whole point is comparing fixed detector settings.
    crate::supervise::gate("simulate");
    let mc = MachineConfig::cedar_config1_scaled();
    let plain = cedar_sim::run(program, mc.clone());
    let traced = cedar_sim::run_collecting_races(program, mc);
    let (races, deadlock, first_race, traced_cycles) = match &traced {
        Ok(sim) => (
            sim.races_detected(),
            false,
            sim.race_report().first().map(|r| r.to_string()),
            Some(sim.cycles()),
        ),
        Err(e) => (0, e.is_deadlock(), None, None),
    };
    let cycles_identical = match (&plain, traced_cycles) {
        (Ok(p), Some(t)) => p.cycles().to_bits() == t.to_bits(),
        (Err(a), None) => traced.as_ref().err().map(|b| b.kind) == Some(a.kind),
        _ => false,
    };
    Row {
        name: name.to_string(),
        suite,
        expect_race,
        races,
        deadlock,
        first_race,
        audit_findings,
        cycles_identical,
    }
}

fn examine_workload(w: &Workload, suite: &'static str, cfg: &PassConfig) -> Row {
    // Direct restructure (not the cache): this sweep needs the pass
    // report's sync-audit findings, which the program cache drops.
    let rr = cedar_restructure::restructure(&crate::cache::compiled(w), cfg);
    examine(w.name, suite, false, &rr.program, rr.report.sync_audit.len())
}

fn examine_negative(name: &str, src: &str) -> Row {
    let program = cedar_ir::compile_free(src)
        .unwrap_or_else(|e| panic!("negative `{name}` failed to compile: {e}"));
    // Identity pass: no transformation, just the static audit.
    let rr = cedar_restructure::restructure(&program, &PassConfig::serial());
    examine(name, "negative", true, &program, rr.report.sync_audit.len())
}

/// The seeded racy negatives: each encodes one restructuring bug the
/// paper's techniques exist to prevent.
pub fn negatives() -> Vec<(&'static str, String)> {
    let init = "do i = 1, n\na(i) = real(i)\nend do\n";
    vec![
        (
            "shared-temp",
            format!(
                "program neg\nparameter (n = 64)\nreal a(n), t\n{init}\
                 cdoall i = 1, n\nt = a(i) * 2.0\na(i) = t + 1.0\nend cdoall\nend\n"
            ),
        ),
        (
            "unlocked-reduction",
            format!(
                "program neg\nparameter (n = 64)\nreal a(n), s\ns = 0.0\n{init}\
                 cdoall i = 1, n\ns = s + a(i)\nend cdoall\nend\n"
            ),
        ),
        (
            "missing-cascade",
            format!(
                "program neg\nparameter (n = 64)\nreal a(n)\n{init}\
                 cdoall i = 2, n\na(i) = a(i - 1) * 0.5 + 1.0\nend cdoall\nend\n"
            ),
        ),
        (
            "missing-advance",
            format!(
                "program neg\nparameter (n = 64)\nreal a(n)\n{init}\
                 cdoacross i = 2, n\ncall await(1, 1)\na(i) = a(i - 1) + 1.0\n\
                 end cdoacross\nend\n"
            ),
        ),
    ]
}

enum Job {
    Workload(Workload, &'static str, PassConfig),
    Negative(&'static str, String),
}

impl Job {
    fn name(&self) -> &str {
        match self {
            Job::Workload(w, ..) => w.name,
            Job::Negative(n, _) => n,
        }
    }

    fn suite(&self) -> &'static str {
        match self {
            Job::Workload(_, suite, _) => suite,
            Job::Negative(..) => "negative",
        }
    }

    fn source(&self) -> &str {
        match self {
            Job::Workload(w, ..) => &w.source,
            Job::Negative(_, src) => src,
        }
    }

    fn examine(&self) -> Row {
        match self {
            Job::Workload(w, suite, cfg) => examine_workload(w, suite, cfg),
            Job::Negative(name, src) => examine_negative(name, src),
        }
    }
}

fn jobs(only: Option<&[&str]>) -> Vec<Job> {
    cedar_workloads::table1_workloads()
        .into_iter()
        .map(|w| Job::Workload(w, "table1", PassConfig::automatic_1991()))
        .chain(
            cedar_workloads::table2_workloads()
                .into_iter()
                .map(|w| Job::Workload(w, "table2", PassConfig::manual_improved())),
        )
        .chain(negatives().into_iter().map(|(n, s)| Job::Negative(n, s)))
        .filter(|j| only.is_none_or(|names| names.contains(&j.name())))
        .collect()
}

/// Sweep the programs named in `only` of both workload suites and every
/// negative; `None` sweeps the full matrix (determinism tests use small
/// subsets to stay fast). Every program is an independent detector run
/// ([`cedar_par::par_map`]); row order is the matrix order (table1,
/// table2, negatives) regardless of the filter's order.
pub fn run_filtered(only: Option<&[&str]>) -> Vec<Row> {
    cedar_par::par_map(jobs(only), |job| job.examine())
}

/// The full matrix under the supervised engine: one cell per program. A quarantined program drops out of the confusion matrix and
/// is reported in the quarantine section instead.
pub fn run_supervised(
    sup: &crate::supervise::Supervisor,
) -> (Vec<Row>, Vec<crate::supervise::Recovery>, Vec<crate::supervise::Quarantine>) {
    let cells = jobs(None)
        .into_iter()
        .map(|j| {
            crate::supervise::Cell::with_source(
                format!("races/{}/{}", j.suite(), j.name()),
                j.source().to_string(),
                j,
            )
        })
        .collect();
    let sweep = crate::supervise::run_cells(sup, cells, |job: &Job| job.examine());
    (sweep.results.into_iter().flatten().collect(), sweep.recovered, sweep.quarantined)
}

/// Text rendering.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.suite.to_string(),
                if r.expect_race { "racy" } else { "clean" }.to_string(),
                r.races.to_string(),
                if r.deadlock { "yes" } else { "no" }.to_string(),
                r.audit_findings.to_string(),
                if r.cycles_identical { "yes" } else { "NO" }.to_string(),
                if r.correct() { "ok" } else { "WRONG" }.to_string(),
            ]
        })
        .collect();
    crate::render_table(
        &["program", "suite", "truth", "races", "deadlock", "audit", "cycles-id", "verdict"],
        &body,
    )
}

/// JSON rendering. Quarantined cells — programs the supervisor gave up
/// on — are reported alongside the confusion matrix rather than
/// silently missing from it.
pub fn to_json(rows: &[Row], quarantined: &[crate::supervise::Quarantine]) -> String {
    let c = confusion(rows);
    let mut w = crate::Writer::document();
    w.key("confusion").obj();
    w.key("true_positive").int(c.true_positive).key("false_negative").int(c.false_negative);
    w.key("false_positive").int(c.false_positive).key("true_negative").int(c.true_negative).end();
    w.key("quarantined").raw(crate::supervise::quarantined_json(quarantined));
    w.key("rows").rows();
    for r in rows {
        w.obj();
        w.key("name").str(&r.name);
        w.key("suite").str(r.suite);
        w.key("expect_race").bool(r.expect_race);
        w.key("races").int(r.races);
        w.key("deadlock").bool(r.deadlock);
        w.key("audit_findings").int(r.audit_findings);
        w.key("cycles_identical").bool(r.cycles_identical);
        w.key("flagged").bool(r.flagged());
        w.key("first_race").opt(r.first_race.as_deref(), crate::Writer::str).end();
    }
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negatives_are_all_flagged_and_one_workload_is_clean() {
        let mut rows: Vec<Row> = negatives().iter().map(|(n, s)| examine_negative(n, s)).collect();
        for r in &rows {
            assert!(r.flagged(), "negative `{}` must be flagged: {r:?}", r.name);
            assert!(r.audit_findings > 0, "static audit must agree on `{}`: {r:?}", r.name);
            assert!(r.cycles_identical, "detector changed cycles on `{}`", r.name);
        }
        let w = cedar_workloads::linalg::tridag(48);
        rows.push(examine_workload(&w, "table1", &PassConfig::automatic_1991()));
        let r = rows.last().unwrap();
        assert!(!r.flagged(), "tridag restructured must be race-free: {r:?}");
        assert!(r.cycles_identical);
        let c = confusion(&rows);
        assert_eq!(c.false_negative, 0);
        assert_eq!(c.false_positive, 0);
        assert_eq!(c.true_positive, 4);
        assert_eq!(c.true_negative, 1);
        let json = to_json(&rows, &[]);
        assert!(json.contains("\"confusion\""), "{json}");
        assert!(json.contains("\"false_positive\": 0"), "{json}");
        assert!(json.contains("\"quarantined\": []"), "{json}");
    }
}
