//! Static per-instruction cycle-cost table for the bytecode VM.
//!
//! The tree-walking interpreter charges simulated cycles by reading
//! [`MachineConfig`] fields at every expression node. The VM splits
//! those charges in two:
//!
//! * **Static costs** — fixed per instruction class, independent of
//!   where the accessed data lives. These are snapshotted into a flat
//!   [`CostTable`] at [`Simulator::new`](crate::Simulator::new) so the
//!   dispatch loop charges them with one indexed load instead of a
//!   field walk through the config struct.
//! * **Dynamic costs** — memory-placement, contention, paging, and
//!   fault-jitter dependent charges. These stay on the interpreter's
//!   `mem_cost` / `bind_access_cost` model (shared by both engines) so
//!   the two engines cannot drift.
//!
//! ## Bit-identity
//!
//! Every table entry is either a *verbatim copy* of a config field or a
//! product the interpreter also computes identically on every charge
//! (`f64` multiplication is deterministic: `scalar_op * 2.0` yields the
//! same bits whether computed once at table build or once per loop
//! iteration). No entry ever sums charges the interpreter adds
//! separately — float addition does not associate, and simulated time
//! is an `f64` accumulator (see `sim::prepass` for the same rule).

use crate::config::MachineConfig;

/// Instruction cost classes charged by the VM dispatch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CostClass {
    /// One scalar ALU/FPU operation (every arithmetic, comparison and
    /// logical op, subscript address arithmetic):
    /// [`MachineConfig::scalar_op`].
    ScalarOp = 0,
    /// Register/cache-resident scalar access (scalar loads and
    /// stores): [`MachineConfig::cache_hit`].
    CacheHit = 1,
    /// Conditional-branch test of an `IF` statement (the interpreter
    /// charges one scalar op after evaluating the condition):
    /// [`MachineConfig::scalar_op`].
    Branch = 2,
    /// One buffered I/O statement: [`MachineConfig::io_cost`].
    Io = 3,
    /// Loop-iteration bookkeeping (induction increment + bounds test,
    /// two scalar ops): `scalar_op * 2.0`.
    LoopStep = 4,
}

const N_CLASSES: usize = 5;

/// Flat cycle-cost table indexed by [`CostClass`]; built once per
/// simulator from the machine config.
#[derive(Debug, Clone)]
pub struct CostTable {
    t: [f64; N_CLASSES],
}

impl CostTable {
    /// Snapshot the static charges of `config`.
    pub fn build(config: &MachineConfig) -> CostTable {
        let mut t = [0.0; N_CLASSES];
        t[CostClass::ScalarOp as usize] = config.scalar_op;
        t[CostClass::CacheHit as usize] = config.cache_hit;
        t[CostClass::Branch as usize] = config.scalar_op;
        t[CostClass::Io as usize] = config.io_cost;
        t[CostClass::LoopStep as usize] = config.scalar_op * 2.0;
        CostTable { t }
    }

    /// Cycles charged for one instruction of class `c`.
    #[inline(always)]
    pub fn get(&self, c: CostClass) -> f64 {
        self.t[c as usize]
    }
}

impl std::ops::Index<CostClass> for CostTable {
    type Output = f64;

    #[inline(always)]
    fn index(&self, c: CostClass) -> &f64 {
        &self.t[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_entries_are_verbatim_config_bits() {
        let cfg = MachineConfig::cedar_config1();
        let t = CostTable::build(&cfg);
        assert_eq!(t[CostClass::ScalarOp].to_bits(), cfg.scalar_op.to_bits());
        assert_eq!(t[CostClass::CacheHit].to_bits(), cfg.cache_hit.to_bits());
        assert_eq!(t[CostClass::Branch].to_bits(), cfg.scalar_op.to_bits());
        assert_eq!(t[CostClass::Io].to_bits(), cfg.io_cost.to_bits());
        assert_eq!(
            t[CostClass::LoopStep].to_bits(),
            (cfg.scalar_op * 2.0).to_bits(),
            "loop step must be the same product the interpreter computes"
        );
    }

    #[test]
    fn table_tracks_nondefault_configs() {
        let mut cfg = MachineConfig::fx80();
        cfg.scalar_op = 1.75;
        cfg.io_cost = 12.5;
        let t = CostTable::build(&cfg);
        assert_eq!(t.get(CostClass::ScalarOp), 1.75);
        assert_eq!(t.get(CostClass::Branch), 1.75);
        assert_eq!(t.get(CostClass::LoopStep), 3.5);
        assert_eq!(t.get(CostClass::Io), 12.5);
    }
}
