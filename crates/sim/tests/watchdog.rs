//! Watchdog tests for the *wall-clock* half of the budget: the
//! statement budget has long been exercised (see `exec.rs` unit
//! tests); these cover the cancel token threaded through
//! [`MachineConfig::cancel`] — deadline expiry, explicit cancellation,
//! and the invariant that a token that never fires is invisible.

use cedar_ir::compile_free;
use cedar_sim::{run, CancelToken, MachineConfig, SimErrorKind};
use std::time::Duration;

/// A program that executes a few million statements: long enough that
/// the 1024-statement poll window triggers many times and a
/// millisecond-scale deadline reliably lands mid-run, short enough to
/// finish promptly when no deadline fires.
fn long_program() -> &'static str {
    "program p\nreal s\ns = 0.0\ndo i = 1, 2000000\ns = s + 1.0\nend do\nend\n"
}

#[test]
fn pre_cancelled_token_aborts_on_the_first_statement() {
    let p = compile_free("program p\nreal x\nx = 1.0\nx = 2.0\nend\n").unwrap();
    let token = CancelToken::new();
    token.cancel();
    let err = run(&p, MachineConfig::cedar_config1().with_cancel(token))
        .err()
        .expect("cancelled run must not complete");
    assert_eq!(err.kind, SimErrorKind::Timeout);
    assert!(err.is_timeout());
    assert!(
        err.msg.contains("cancelled by supervisor"),
        "cancellation must be distinguishable from deadline expiry: {err}"
    );
}

#[test]
fn expired_deadline_aborts_mid_run_with_timeout() {
    let p = compile_free(long_program()).unwrap();
    let mc = MachineConfig::cedar_config1().with_time_budget(Duration::from_millis(1));
    let err = run(&p, mc).err().expect("1ms budget must trip on a multi-M-statement run");
    assert_eq!(err.kind, SimErrorKind::Timeout);
    assert!(err.msg.contains("wall-clock budget"), "deadline expiry must cite the budget: {err}");
    assert!(err.to_string().contains("timeout"), "{err}");
}

#[test]
fn generous_deadline_is_invisible() {
    // Same program, with and without a (never-firing) token: cycles and
    // results must be bit-identical — the deadline can only abort.
    let p = compile_free(long_program()).unwrap();
    let plain = run(&p, MachineConfig::cedar_config1()).expect("plain run");
    let guarded =
        run(&p, MachineConfig::cedar_config1().with_time_budget(Duration::from_secs(3600)))
            .expect("guarded run");
    assert_eq!(plain.cycles().to_bits(), guarded.cycles().to_bits());
    assert_eq!(plain.read_f64("s"), guarded.read_f64("s"));
}

#[test]
fn statement_budget_still_outranks_the_clock() {
    // Both budgets active: the statement budget trips first (tiny cap,
    // generous clock) and keeps its Limit classification — the two
    // watchdog halves stay distinguishable.
    let p = compile_free(long_program()).unwrap();
    let mut mc = MachineConfig::cedar_config1().with_time_budget(Duration::from_secs(3600));
    mc.watchdog_ops = 100;
    let err = run(&p, mc).err().expect("statement budget must trip");
    assert_eq!(err.kind, SimErrorKind::Limit);
}

#[test]
fn token_is_shared_across_machine_clones() {
    // The supervisor clones one MachineConfig (hence one token) into
    // several runs of a cell; cancelling the original must stop clones.
    let p = compile_free(long_program()).unwrap();
    let token = CancelToken::new();
    let mc = MachineConfig::cedar_config1().with_cancel(token.clone());
    let first = run(&p, mc.clone()).expect("live token must not interfere");
    assert!(first.cycles() > 0.0);
    token.cancel();
    let err = run(&p, mc).err().expect("clone must observe cancellation");
    assert_eq!(err.kind, SimErrorKind::Timeout);
}
