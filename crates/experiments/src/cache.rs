//! The process-wide memo the experiment sweeps share.
//!
//! Every experiment cell starts from the same place: lower a workload's
//! Fortran source to IR, optionally restructure it under a
//! [`PassConfig`], then simulate. All three stages are pure functions
//! of their inputs, and the paper's evaluation is a finite set that
//! asks for the same ones again and again — the figure sweeps
//! re-restructure one program per curve point, every variant re-runs
//! the serial reference. One [`Memo`] type, instantiated three times,
//! shares that work across a harness run (DESIGN.md §9 has the counted
//! hit rates that justify each use).
//!
//! The memo is unbounded, which is right for a finite sweep and wrong
//! for a server: `cedar-serve` does not use it.
//!
//! Values are held as `Arc`s behind a mutexed map, so
//! [`cedar_par::par_map`] workers can look up concurrently; a miss
//! computes outside the lock (two racing workers may both compute, the
//! first insert wins, both results are identical by purity).
//!
//! Keys are content hashes — the workload *source text* for
//! [`compiled`], the *printed IR* plus the `PassConfig` debug form for
//! [`restructured`] — so two workloads that happen to share a name but
//! differ in scaled size never collide.

use crate::pipeline::Outcome;
use cedar_ir::Program;
use cedar_restructure::{restructure, PassConfig};
use cedar_workloads::Workload;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

struct Memo<V>(LazyLock<Mutex<HashMap<u64, Arc<V>>>>);

impl<V> Memo<V> {
    const fn new() -> Memo<V> {
        Memo(LazyLock::new(Default::default))
    }

    /// The value memoized under `parts`, computing it on a miss.
    fn get_or(&self, parts: &[&str], compute: impl FnOnce() -> V) -> Arc<V> {
        let key = cedar_par::sip_parts(parts);
        if let Some(v) = self.0.lock().unwrap().get(&key) {
            return Arc::clone(v);
        }
        let v = Arc::new(compute());
        self.0.lock().unwrap().entry(key).or_insert(v).clone()
    }

    fn clear(&self) {
        self.0.lock().unwrap().clear();
    }

    fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

static COMPILED: Memo<Program> = Memo::new();
static RESTRUCTURED: Memo<Program> = Memo::new();
static OUTCOME: Memo<Outcome> = Memo::new();

/// Lower a workload's source, reusing a prior lowering of byte-identical
/// source. Equivalent to `Arc::new(w.compile())`.
pub fn compiled(w: &Workload) -> Arc<Program> {
    // Chaos gate ahead of the lookup: a cached program must not mask an
    // injected compile-phase fault (no-op without a supervisor).
    crate::supervise::gate("compile");
    COMPILED.get_or(&[&w.source], || w.compile())
}

/// Restructure `program` under `cfg`, reusing a prior restructure of an
/// identical (printed IR, config) pair. Equivalent to
/// `Arc::new(restructure(program, cfg).program)`.
pub fn restructured(program: &Program, cfg: &PassConfig) -> Arc<Program> {
    restructured_printed(program, &cedar_ir::print::print_program(program), cfg)
}

/// [`restructured`] for a caller that has already printed `program`.
pub(crate) fn restructured_printed(
    program: &Program,
    printed: &str,
    cfg: &PassConfig,
) -> Arc<Program> {
    RESTRUCTURED.get_or(&[printed, &format!("{cfg:?}")], || restructure(program, cfg).program)
}

/// Memoize a deterministic simulation outcome keyed by the full cell
/// identity (printed program, pass config, machine config, watch list).
/// The simulator is fault-free and deterministic under [`run_program`]
/// (no perturbation seeds, no race detector), so two cells with equal
/// keys produce bit-identical outcomes — e.g. the serial reference a
/// sweep re-runs once per variant, or the Table 2 FX/80 baseline shared
/// by the automatic and manual columns.
///
/// [`run_program`]: crate::pipeline::run_program
pub fn outcome(key_parts: &[&str], compute: impl FnOnce() -> Outcome) -> Arc<Outcome> {
    OUTCOME.get_or(key_parts, compute)
}

/// Drop every memoized entry. Results are pure functions of their keys,
/// so clearing is always safe — determinism tests clear between runs to
/// force real recomputation instead of comparing a memo against itself.
pub fn clear() {
    COMPILED.clear();
    RESTRUCTURED.clear();
    OUTCOME.clear();
}

/// Memo occupancy `(compiled, restructured, 0, outcomes)`. The third
/// count was the bytecode cache, which is retired: it always reads 0
/// and is kept so the tuple's callers do not move.
pub fn sizes() -> (usize, usize, usize, usize) {
    (COMPILED.len(), RESTRUCTURED.len(), 0, OUTCOME.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `clear` between another test's two lookups would break its
    /// pointer comparison: the tests of this module take turns.
    static TURN: Mutex<()> = Mutex::new(());

    #[test]
    fn compile_cache_returns_same_program() {
        let _turn = TURN.lock().unwrap();
        let w = cedar_workloads::linalg::tridag(32);
        let a = compiled(&w);
        let b = compiled(&w);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
    }

    #[test]
    fn restructure_cache_discriminates_configs() {
        let _turn = TURN.lock().unwrap();
        let w = cedar_workloads::linalg::tridag(32);
        let p = compiled(&w);
        let auto = PassConfig::automatic_1991();
        let a = restructured(&p, &auto);
        let b = restructured(&p, &auto);
        assert!(Arc::ptr_eq(&a, &b));
        let serial_cfg = PassConfig::serial();
        let c = restructured(&p, &serial_cfg);
        assert!(!Arc::ptr_eq(&a, &c), "different configs must not collide");
    }

    #[test]
    fn clear_empties_every_instance_and_key_parts_stay_apart() {
        let _turn = TURN.lock().unwrap();
        let blank = || Outcome { cycles: 0.0, stats: Default::default(), results: Vec::new() };

        let w = cedar_workloads::linalg::tridag(32);
        let auto = PassConfig::automatic_1991();
        let p = compiled(&w);
        let r = restructured(&p, &auto);
        let o = outcome(&["cache-test", "ab", "c"], blank);
        assert!(
            !Arc::ptr_eq(&o, &outcome(&["cache-test", "a", "bc"], blank)),
            "the same text split elsewhere is another key"
        );
        assert!(Arc::ptr_eq(&o, &outcome(&["cache-test", "ab", "c"], blank)));

        // Other tests of this binary fill the memo as they run, so the
        // counts of `sizes` are not this test's to assert: an entry is
        // gone when its key computes a new value.
        clear();
        assert!(!Arc::ptr_eq(&p, &compiled(&w)));
        assert!(!Arc::ptr_eq(&r, &restructured(&p, &auto)));
        assert!(!Arc::ptr_eq(&o, &outcome(&["cache-test", "ab", "c"], blank)));
    }
}
