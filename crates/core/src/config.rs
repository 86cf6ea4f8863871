//! Pass configuration.

use cedar_ir::{Machine, Planning};

/// Which techniques the restructurer may apply.
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// What planning reads of the machine the output is tuned for
    /// ([`PassConfig::for_machine`]; Cedar configuration 1 unless said).
    pub machine: Planning,

    // ---- §3 automatic techniques ----
    /// Dependence-based DOALL detection (master switch; off = serial
    /// pass-through used for baselines).
    pub parallelize: bool,
    /// Scalar privatization (§3.2).
    pub scalar_privatization: bool,
    /// Simple scalar reductions (`s = s + a(i)`) via the runtime library
    /// or partial accumulators (§3.3).
    pub scalar_reductions: bool,
    /// Stripmining single parallel loops into XDOALL + vector strips
    /// (§3.2).
    pub stripmine: bool,
    /// Default strip length when trip counts are unknown.
    pub strip_len: usize,
    /// Globalization pass (§3.2): data used by cross-cluster loops is
    /// marked GLOBAL; the rest stays CLUSTER.
    pub globalize: bool,
    /// DOACROSS with cascade synchronization for constant-distance
    /// dependences (§3.3).
    pub doacross: bool,
    /// Candidate-version cap (§3.4; the paper's default is 50).
    pub max_versions: usize,
    /// Loop interchange to move a parallel loop outward (§3.4: "loops
    /// in a nest might be interchanged").
    pub interchange: bool,

    // ---- §4.1 techniques ("manually improved") ----
    /// Array privatization (§4.1.2).
    pub array_privatization: bool,
    /// Array-element and multi-statement reductions (§4.1.3).
    pub array_reductions: bool,
    /// Generalized induction variable substitution (§4.1.4).
    pub giv_substitution: bool,
    /// Run-time dependence test / two-version loops (§4.1.5).
    pub runtime_dep_test: bool,
    /// Interprocedural use/def summaries for call-containing loops
    /// (§4.1.1).
    pub interprocedural: bool,
    /// Inline expansion of small subroutines (§3.2/§4.1.1).
    pub inline_expansion: bool,
    /// Unordered critical sections for commutative updates (§4.1.6).
    pub critical_sections: bool,
    /// Loop coalescing: collapse a perfect DOALL×DOALL nest whose outer
    /// trip count under-fills the machine into one flat XDOALL (§4.2.4).
    pub coalesce: bool,
    /// Fusion of adjacent conformable parallel loops (§4.2.4).
    pub loop_fusion: bool,
    /// Data partitioning across cluster memories (§4.2.3).
    pub data_partitioning: bool,

    // ---- safe fallback (cedar-verify) ----
    /// Loop nests forced to stay serial, keyed by `(unit name, header
    /// line)`. The differential validator adds entries here when a
    /// restructured nest diverges or deadlocks under perturbed
    /// schedules, then re-restructures with the nest degraded to its
    /// serial form.
    pub suppress_nests: Vec<(String, u32)>,
}

impl PassConfig {
    /// The serial identity configuration (baseline runs).
    pub fn serial() -> PassConfig {
        PassConfig {
            machine: Machine::cedar_config1().planning(),
            parallelize: false,
            scalar_privatization: false,
            scalar_reductions: false,
            stripmine: false,
            strip_len: 32,
            globalize: false,
            doacross: false,
            max_versions: 50,
            interchange: false,
            array_privatization: false,
            array_reductions: false,
            giv_substitution: false,
            runtime_dep_test: false,
            interprocedural: false,
            inline_expansion: false,
            critical_sections: false,
            coalesce: false,
            loop_fusion: false,
            data_partitioning: false,
            suppress_nests: Vec::new(),
        }
    }

    /// The techniques the 1991 restructurer applied automatically (§3).
    pub fn automatic_1991() -> PassConfig {
        PassConfig {
            parallelize: true,
            scalar_privatization: true,
            scalar_reductions: true,
            stripmine: true,
            globalize: true,
            doacross: true,
            interchange: true,
            ..Self::serial()
        }
    }

    /// Automatic plus every §4.1/§4.2 technique the authors applied by
    /// hand.
    pub fn manual_improved() -> PassConfig {
        PassConfig {
            array_privatization: true,
            array_reductions: true,
            giv_substitution: true,
            runtime_dep_test: true,
            interprocedural: true,
            inline_expansion: true,
            critical_sections: true,
            coalesce: true,
            loop_fusion: true,
            data_partitioning: false, // opt-in per experiment (Fig. 8)
            ..Self::automatic_1991()
        }
    }

    /// The configuration a command line, a request or a report names:
    /// `auto` (`automatic` in the robustness report), `manual` or
    /// `serial`. `None` for anything else: a mistyped name must not
    /// quietly run a different configuration.
    pub fn named(name: &str) -> Option<PassConfig> {
        match name {
            "auto" | "automatic" => Some(Self::automatic_1991()),
            "manual" => Some(Self::manual_improved()),
            "serial" => Some(Self::serial()),
            _ => None,
        }
    }

    /// Plan for `machine`: the description a simulator of it charges
    /// from (`MachineConfig::machine`).
    pub fn for_machine(mut self, machine: &Machine) -> PassConfig {
        self.machine = machine.planning();
        self
    }

    /// True when the nest headed at `(unit, line)` must stay serial.
    pub fn is_suppressed(&self, unit: &str, line: u32) -> bool {
        self.suppress_nests.iter().any(|(u, l)| u == unit && *l == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_identity_config() {
        let s = PassConfig::serial();
        assert!(!s.parallelize && !s.globalize && !s.stripmine);
    }

    #[test]
    fn manual_includes_automatic() {
        let m = PassConfig::manual_improved();
        assert!(m.parallelize && m.scalar_privatization && m.stripmine);
        assert!(m.runtime_dep_test && m.critical_sections && m.loop_fusion);
        assert_eq!(m.max_versions, 50);
    }

    #[test]
    fn machine_override() {
        let c = PassConfig::automatic_1991().for_machine(&Machine::fx80());
        assert_eq!(c.machine, Machine::fx80().planning());
        assert_ne!(c.machine, PassConfig::automatic_1991().machine);
    }
}
