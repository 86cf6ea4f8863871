//! Table 2's central claim is *which* §4.1 technique unlocks *which*
//! program. EXPERIMENTS.md records that mapping; these tests pin it so
//! a regression in any analysis cannot silently change the story while
//! the speedup table still happens to look plausible.

use cedar_restructure::{restructure, LoopDecision, PassConfig, Report, Technique};

fn manual_report(w: &cedar_workloads::Workload) -> Report {
    restructure(&w.compile(), &PassConfig::manual_improved()).report
}

fn auto_report(w: &cedar_workloads::Workload) -> Report {
    restructure(&w.compile(), &PassConfig::automatic_1991()).report
}

fn uses(r: &Report, t: Technique) -> bool {
    r.loops.iter().any(|l| l.techniques.contains(&t))
}

#[test]
fn arc2d_needs_array_privatization() {
    let w = cedar_workloads::perfect::arc2d();
    assert!(
        uses(&manual_report(&w), Technique::ArrayPrivatization),
        "ARC2D's sweep pencil must be array-privatized"
    );
    assert!(
        !uses(&auto_report(&w), Technique::ArrayPrivatization),
        "array privatization is a §4.1 technique, off in the automatic set"
    );
}

#[test]
fn bdna_needs_multi_statement_array_reductions() {
    let w = cedar_workloads::perfect::bdna();
    assert!(
        uses(&manual_report(&w), Technique::ArrayReduction),
        "BDNA's three-statement force accumulation must be recognized"
    );
}

#[test]
fn mdg_needs_array_reductions_and_privatization() {
    let w = cedar_workloads::perfect::mdg();
    let r = manual_report(&w);
    assert!(uses(&r, Technique::ArrayReduction), "{r}");
    assert!(uses(&r, Technique::ArrayPrivatization), "{r}");
}

#[test]
fn ocean_needs_the_runtime_dependence_test() {
    let w = cedar_workloads::perfect::ocean();
    let r = manual_report(&w);
    assert!(
        r.loops.iter().any(|l| matches!(l.decision, LoopDecision::TwoVersion)),
        "OCEAN's linearized indexing needs a two-version loop: {r}"
    );
}

#[test]
fn track_needs_critical_sections() {
    let w = cedar_workloads::perfect::track();
    let r = manual_report(&w);
    assert!(
        r.loops.iter().any(|l| matches!(l.decision, LoopDecision::CriticalSection)),
        "TRACK's commutative updates need a critical section: {r}"
    );
}

#[test]
fn trfd_needs_triangular_givs() {
    // Simple additive IVs (constant step) substitute even in the
    // automatic set — 1991 KAP did those — so the inner `ij = ij + 1`
    // loop is parallel either way. The *outer* triangular view of `ij`
    // is a §4.1.4 generalized IV: automatic must leave that outer loop
    // blocked on the scalar, manual must substitute it.
    let w = cedar_workloads::perfect::trfd();
    assert!(
        uses(&manual_report(&w), Technique::GivSubstitution),
        "TRFD's triangular index must be substituted"
    );
    let auto = auto_report(&w);
    let outer_blocked_on_ij = auto.loops.iter().any(|l| {
        matches!(&l.decision, LoopDecision::Serial { reason } if reason.contains("`ij`"))
            && !l.techniques.contains(&Technique::GivSubstitution)
    });
    assert!(outer_blocked_on_ij, "automatic must be blocked by the triangular recurrence: {auto}");
}

#[test]
fn qcd_stays_serialized_under_every_technique_set() {
    // The RNG dependence cycle is not a reduction, not privatizable,
    // and has no constant distance: nothing in §4.1 unlocks it.
    let w = cedar_workloads::perfect::qcd();
    let r = manual_report(&w);
    let rng_loop_serial = r.loops.iter().any(
        |l| matches!(&l.decision, LoopDecision::Serial { reason } if reason.contains("iseed")),
    );
    assert!(rng_loop_serial, "the iseed recurrence must stay serial: {r}");
}

#[test]
fn table1_routines_report_at_least_one_parallel_loop_each() {
    for w in cedar_workloads::table1_workloads() {
        let r = restructure(&w.compile(), &PassConfig::automatic_1991()).report;
        assert!(
            r.parallelized() >= 1,
            "{}: automatic pipeline found nothing to parallelize\n{r}",
            w.name
        );
    }
}
