//! Pass configuration.

use cedar_ir::{Machine, Planning};

/// How much of the paper's technique set the restructurer applies: the
/// three columns of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// No restructuring: the serial identity (baselines, and the
    /// validation pass-through that only demotes suppressed directive
    /// nests).
    Serial,
    /// What the 1991 restructurer applied automatically (§3):
    /// dependence-based DOALL detection, scalar privatization, simple
    /// scalar reductions, stripmining and DOACROSS synchronization.
    Automatic,
    /// Automatic plus the §4.1 techniques the authors applied by hand:
    /// interprocedural summaries (§4.1.1), array privatization
    /// (§4.1.2), array-element and multi-statement reductions (§4.1.3),
    /// generalized induction variables (§4.1.4), the run-time
    /// dependence test (§4.1.5) and unordered critical sections
    /// (§4.1.6).
    Manual,
}

impl Level {
    /// The name [`PassConfig::named`] gives this level.
    pub fn name(self) -> &'static str {
        match self {
            Level::Serial => "serial",
            Level::Automatic => "auto",
            Level::Manual => "manual",
        }
    }
}

/// Which techniques the restructurer may apply.
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// What planning reads of the machine the output is tuned for
    /// ([`PassConfig::for_machine`]; Cedar configuration 1 unless said).
    pub machine: Planning,
    /// The technique set: serial, §3 automatic, or §4.1 manual.
    pub level: Level,

    // ---- settings a single experiment varies ----
    /// Default strip length when trip counts are unknown.
    pub strip_len: usize,
    /// Globalization pass (§3.2): data used by cross-cluster loops is
    /// marked GLOBAL; the rest stays CLUSTER.
    pub globalize: bool,
    /// Candidate-version cap (§3.4; the paper's default is 50).
    pub max_versions: usize,
    /// Loop interchange to move a parallel loop outward (§3.4: "loops
    /// in a nest might be interchanged").
    pub interchange: bool,
    /// Inline expansion of small subroutines (§3.2/§4.1.1).
    pub inline_expansion: bool,
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
            level: Level::Serial,
            strip_len: 32,
            globalize: false,
            max_versions: 50,
            interchange: false,
            inline_expansion: false,
            coalesce: false,
            loop_fusion: false,
            data_partitioning: false,
            suppress_nests: Vec::new(),
        }
    }

    /// The techniques the 1991 restructurer applied automatically (§3).
    pub fn automatic_1991() -> PassConfig {
        PassConfig { level: Level::Automatic, globalize: true, interchange: true, ..Self::serial() }
    }

    /// Automatic plus every §4.1/§4.2 technique the authors applied by
    /// hand.
    pub fn manual_improved() -> PassConfig {
        PassConfig {
            level: Level::Manual,
            inline_expansion: true,
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
        assert!(s.level == Level::Serial && !s.globalize && !s.interchange);
    }

    #[test]
    fn manual_includes_automatic() {
        let m = PassConfig::manual_improved();
        assert_eq!(m.level, Level::Manual);
        assert!(m.globalize && m.interchange && m.loop_fusion);
        assert_eq!(m.max_versions, 50);
    }

    #[test]
    fn a_level_names_its_preset() {
        for name in ["serial", "auto", "manual"] {
            assert_eq!(PassConfig::named(name).unwrap().level.name(), name);
        }
    }

    #[test]
    fn machine_override() {
        let c = PassConfig::automatic_1991().for_machine(&Machine::fx80());
        assert_eq!(c.machine, Machine::fx80().planning());
        assert_ne!(c.machine, PassConfig::automatic_1991().machine);
    }

    /// Probe programs of [`every_pass_config_field_is_live`], each with
    /// the fields it is there for. Every probe's first loop heads line 3.
    const PROBES: [&str; 7] = [
        // machine, strip_len, globalize, max_versions, data_partitioning,
        // suppress_nests
        "program p\nreal a(1000), b(1000)\ndo i = 1, 1000\na(i) = b(i) * 2.0\nend do\n\
         s = a(1)\nend\n",
        // interchange
        "program p\nreal a(64, 96)\ndo i = 2, 64\ndo j = 1, 96\n\
         a(i, j) = a(i - 1, j) * 0.99 + 0.0001\nend do\nend do\nend\n",
        // inline_expansion
        "program p\nreal a(100)\ndo i = 1, 100\ncall f(a, i)\nend do\nend\n\
         subroutine f(a, i)\nreal a(100)\na(i) = 1.0\nend\n",
        // coalesce
        "program p\nreal a(64, 3), t\ndo i = 1, 3\ndo j = 1, 64\n\
         t = real(i) * 10.0 + real(j)\ndo k = 1, 6\nt = 0.5 * t + 1.0\nend do\n\
         a(j, i) = t\nend do\nend do\nend\n",
        // loop_fusion
        "program p\nreal a(500), b(500)\ndo i = 1, 500\na(i) = 1.0\nend do\n\
         do i = 1, 500\nb(i) = a(i) + 2.0\nend do\nend\n",
        // level (§4.1.2 array privatization)
        "program p\nreal a(256), b(256, 16), w(16)\ndo i = 1, 256\ndo j = 1, 16\n\
         w(j) = b(i, j) * 2.0\nend do\ndo j = 1, 16\na(i) = a(i) + w(j)\nend do\nend do\nend\n",
        // suppress_nests at the serial level
        "program p\nreal a(64)\nxdoall i = 1, 64\na(i) = 1.0\nend xdoall\nend\n",
    ];

    /// Every field of `cfg`, each moved off its value. The pattern is
    /// exhaustive, so a new field does not compile until it is sorted
    /// here.
    fn moved(cfg: &PassConfig) -> Vec<(&'static str, PassConfig)> {
        let PassConfig {
            machine,
            level,
            strip_len,
            globalize,
            max_versions,
            interchange,
            inline_expansion,
            coalesce,
            loop_fusion,
            data_partitioning,
            suppress_nests,
        } = cfg.clone();
        let fx80 = Machine::fx80().planning();
        let cedar = Machine::cedar_config1().planning();
        let level = if level == Level::Manual { Level::Automatic } else { Level::Manual };
        let suppress_nests = [suppress_nests, vec![("p".to_string(), 3)]].concat();
        let c = || cfg.clone();
        vec![
            ("machine", PassConfig { machine: if machine == fx80 { cedar } else { fx80 }, ..c() }),
            ("level", PassConfig { level, ..c() }),
            ("strip_len", PassConfig { strip_len: strip_len * 2, ..c() }),
            ("globalize", PassConfig { globalize: !globalize, ..c() }),
            ("max_versions", PassConfig { max_versions: max_versions.min(1), ..c() }),
            ("interchange", PassConfig { interchange: !interchange, ..c() }),
            ("inline_expansion", PassConfig { inline_expansion: !inline_expansion, ..c() }),
            ("coalesce", PassConfig { coalesce: !coalesce, ..c() }),
            ("loop_fusion", PassConfig { loop_fusion: !loop_fusion, ..c() }),
            ("data_partitioning", PassConfig { data_partitioning: !data_partitioning, ..c() }),
            ("suppress_nests", PassConfig { suppress_nests, ..c() }),
        ]
    }

    /// Each field of [`PassConfig`], moved off its preset value, changes
    /// the restructured text or the report of some probe at the
    /// automatic and the manual level. At the serial level only `level`
    /// and `suppress_nests` are read; every other field is inert there.
    #[test]
    fn every_pass_config_field_is_live() {
        let programs: Vec<_> =
            PROBES.iter().map(|src| cedar_ir::compile_free(src).unwrap()).collect();
        let outputs = |cfg: &PassConfig| -> Vec<String> {
            let run = |p| {
                let r = crate::restructure(p, cfg);
                format!("{}{:?}", cedar_ir::print::print_program(&r.program), r.report)
            };
            programs.iter().map(run).collect()
        };
        for preset in [PassConfig::automatic_1991(), PassConfig::manual_improved()] {
            let at_preset = outputs(&preset);
            for (name, cfg) in moved(&preset) {
                assert_ne!(outputs(&cfg), at_preset, "`{name}` is dead at {:?}", preset.level);
            }
        }
        let serial = PassConfig::serial();
        let at_serial = outputs(&serial);
        for (name, cfg) in moved(&serial) {
            let live = matches!(name, "level" | "suppress_nests");
            assert_eq!(outputs(&cfg) != at_serial, live, "`{name}` at the serial level");
        }
    }
}
