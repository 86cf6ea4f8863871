//! Tier-1 fuzz smoke test: a small, fixed-seed campaign must come back
//! clean, cover every required restructuring pass, and be byte-for-byte
//! deterministic.
//!
//! This is the fast always-on slice of the fuzzing subsystem (the CI
//! `fuzz-smoke` job runs a bigger budgeted campaign); it pins the
//! generator's distribution well enough that a change which silently
//! stops exercising a pass — or starts failing an oracle — breaks the
//! ordinary test run, not a nightly.

use cedar_fuzz::{run_campaign, CampaignConfig};

fn smoke_config() -> CampaignConfig {
    CampaignConfig {
        seed_start: 0,
        seed_end: 40,
        bundles: false, // no artifacts from a test run
        ..Default::default()
    }
}

#[test]
fn fixed_seed_campaign_is_clean_and_covers_every_pass() {
    let cfg = smoke_config();
    let mut s = run_campaign(&cfg);
    s.check_jobs(2, &cfg.oracle);
    assert_eq!(s.executed, 40);
    assert_eq!(s.skipped_for_budget, 0);
    assert!(
        s.failures.is_empty(),
        "oracle failures: {:?}",
        s.failures.iter().map(|f| (f.seed, &f.phase, &f.detail)).collect::<Vec<_>>()
    );
    assert!(
        s.coverage.unreachable().is_empty(),
        "passes never reached in seeds 0..40: {:?}\ncoverage: {}",
        s.coverage.unreachable(),
        s.coverage.to_json()
    );
    assert!(s.jobs_mismatch.is_none(), "{:?}", s.jobs_mismatch);
    assert!(!s.failed());
    // Restructuring should actually be winning on generated programs.
    let (_, mean, _) = s.speedup().expect("clean seeds must report speedups");
    assert!(mean > 1.0, "mean speedup {mean}");
}

#[test]
fn campaign_summary_is_deterministic() {
    let a = run_campaign(&smoke_config());
    let b = run_campaign(&smoke_config());
    assert_eq!(a, b);
}

#[test]
fn single_threaded_campaign_agrees_with_parallel() {
    let ambient = run_campaign(&smoke_config()).to_json();
    let serial = cedar_par::with_jobs(1, || run_campaign(&smoke_config()).to_json());
    assert_eq!(ambient, serial, "campaign findings depend on worker count");
}

#[test]
fn campaign_is_engine_invariant() {
    // The campaign digest folds in watched memory bits and simulated
    // cycles, so identical JSON summaries mean the bytecode VM and the
    // tree-walking interpreter agreed bit-for-bit on every seed.
    use cedar_sim::Engine;
    let mut interp = smoke_config();
    interp.oracle.mc = interp.oracle.mc.clone().with_engine(Engine::Interp);
    let mut vm = smoke_config();
    vm.oracle.mc = vm.oracle.mc.clone().with_engine(Engine::Vm);
    let a = run_campaign(&interp).to_json();
    let b = run_campaign(&vm).to_json();
    assert_eq!(a, b, "campaign summary depends on the execution engine");
}
