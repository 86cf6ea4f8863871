//! The machine of §2.2, described once: the simulator charges from a
//! [`Machine`] and the restructurer plans from its [`Planning`] view,
//! so a parameter that moves reaches both (DESIGN.md §6).

/// The model of a simulated machine: topology, the cycle costs the
/// simulator's cost model reads (DESIGN.md §14.1) and the capacities
/// behind paging. The named constructors encode the two Cedar
/// configurations the paper used plus the Alliant FX/80 baseline (one
/// Cedar-like cluster).
///
/// Costs are in cycles; capacities in bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Label printed in harness output.
    pub name: String,
    // ---- topology ----
    /// Number of clusters (Cedar: 4; FX/80: 1).
    pub clusters: usize,
    /// Computational elements per cluster (8).
    pub ces_per_cluster: usize,

    // ---- per-access memory costs (cycles per element) ----
    /// Cluster cache / CE-local data (privatized loop locals).
    pub cache_hit: f64,
    /// Cluster memory behind the cluster switch.
    pub cluster_mem: f64,
    /// Global memory, scalar (non-pipelined) access.
    pub global_scalar: f64,
    /// Global memory, vector access without prefetch (partially
    /// pipelined through the interconnect).
    pub global_vector: f64,
    /// Global memory, vector access with the prefetch unit engaged —
    /// *faster per element than cluster memory*: Fig. 8's global-data
    /// variant beats the cluster-memory baseline on one cluster "because
    /// of the high transfer rate of global memory and prefetch".
    pub global_prefetch: f64,
    /// Is compiler-inserted prefetch enabled (§2.2.3)?
    pub prefetch: bool,

    // ---- computation costs ----
    /// One scalar ALU/FPU operation.
    pub scalar_op: f64,
    /// Per-element cost of a vector operation once the pipe is full.
    pub vector_op: f64,
    /// Pipeline fill / vector instruction issue overhead per vector
    /// statement.
    pub vector_startup: f64,
    /// Fixed cost of a CALL/RETURN pair.
    pub call_overhead: f64,
    /// Cost charged for an I/O statement (treated as buffered no-op).
    pub io_cost: f64,

    // ---- parallel loop startup / scheduling (§2.2.1) ----
    /// CDOALL/CDOACROSS startup via the concurrency control bus.
    pub cdo_start: f64,
    /// Per-iteration dispatch cost on the concurrency bus.
    pub cdo_dispatch: f64,
    /// SDOALL startup through the runtime library (helper tasks).
    pub sdo_start: f64,
    /// XDOALL startup through the runtime library.
    pub xdo_start: f64,
    /// Per-iteration dispatch cost of library microtasking.
    pub lib_dispatch: f64,
    /// End-of-loop barrier cost per participant wave.
    pub barrier: f64,

    // ---- subroutine-level tasking (§2.2.2) ----
    /// Starting a new OS cluster task (`ctskstart`): "much higher
    /// overhead, but ... unrestricted forms of synchronization".
    pub ctsk_start: f64,
    /// Dispatching onto an existing helper task (`mtskstart`):
    /// "a low-overhead mechanism ... a finer grain of parallelism".
    pub mtsk_start: f64,

    // ---- synchronization (§2.1, §4.1.6) ----
    /// Cycles to test a cascade counter (excluding stall time).
    pub await_cost: f64,
    /// Cycles to bump a cascade counter.
    pub advance_cost: f64,
    /// Cycles to acquire/release a lock (excluding stall time).
    pub lock_cost: f64,

    // ---- global memory bandwidth / contention ----
    /// Number of concurrent global-memory streams the interconnect
    /// sustains at full speed; more simultaneous participants than this
    /// scale access costs linearly (Fig. 8 saturation).
    pub global_streams: f64,

    // ---- capacity / paging model ----
    /// Physical bytes of one cluster memory.
    pub cluster_capacity: u64,
    /// Physical bytes of global memory.
    pub global_capacity: u64,
    /// Surcharge (cycles, amortized per access) once a pool thrashes.
    pub page_fault_cost: f64,
}

/// What loop-class planning reads of a [`Machine`] (§3.4's "simple
/// heuristics"), and nothing else: a restructure memo keyed by a pass
/// configuration must not split on a name, a capacity or a cost no
/// plan depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planning {
    /// Number of clusters; 1 means no `S`/`X` loop class exists.
    pub clusters: usize,
    /// Computational elements per cluster.
    pub ces_per_cluster: usize,
    /// `CDOALL` start-up.
    pub cdo_start: f64,
    /// `SDOALL` start-up.
    pub sdo_start: f64,
    /// `XDOALL` start-up.
    pub xdo_start: f64,
    /// Speed of a vector operation over a scalar one.
    pub vector_gain: f64,
    /// Price of a scalar access to global memory over one to cluster
    /// memory: what leaving the cluster costs a globalized nest.
    pub global_penalty: f64,
    /// Cycles to take and release a lock.
    pub lock_cost: f64,
}

impl Planning {
    /// Total CE count.
    pub fn total_ces(&self) -> usize {
        self.clusters * self.ces_per_cluster
    }
}

impl Machine {
    /// Cedar Configuration 1: 4 clusters × 8 CEs, 64 MB global,
    /// 16 MB cluster memory each (the machine of Table 1 and the
    /// "Automatically compiled" column of Table 2).
    pub fn cedar_config1() -> Machine {
        Machine {
            name: "cedar-config1".to_string(),
            clusters: 4,
            ces_per_cluster: 8,
            cache_hit: 1.0,
            cluster_mem: 3.0,
            global_scalar: 40.0,
            global_vector: 3.0,
            global_prefetch: 0.75,
            prefetch: true,
            scalar_op: 1.0,
            vector_op: 0.5,
            vector_startup: 25.0,
            call_overhead: 30.0,
            io_cost: 50.0,
            cdo_start: 60.0,
            cdo_dispatch: 2.0,
            sdo_start: 2200.0,
            xdo_start: 2800.0,
            lib_dispatch: 12.0,
            barrier: 20.0,
            ctsk_start: 12000.0,
            mtsk_start: 400.0,
            await_cost: 6.0,
            advance_cost: 4.0,
            lock_cost: 30.0,
            global_streams: 10.0,
            cluster_capacity: 16 << 20,
            global_capacity: 64 << 20,
            page_fault_cost: 400.0,
        }
    }

    /// Cedar Configuration 2: like Configuration 1 but 64 MB of cluster
    /// memory per cluster (the "Manually improved" runs).
    pub fn cedar_config2() -> Machine {
        Machine {
            name: "cedar-config2".to_string(),
            cluster_capacity: 64 << 20,
            ..Self::cedar_config1()
        }
    }

    /// Alliant FX/80 baseline: a single Cedar-like cluster (8 CEs),
    /// no global memory hierarchy — "global" placements behave like
    /// cluster memory and cross-cluster loop classes degrade to their
    /// cluster forms.
    pub fn fx80() -> Machine {
        let c = Self::cedar_config1();
        Machine {
            name: "fx80".to_string(),
            clusters: 1,
            // One memory level: global == cluster memory in cost.
            global_scalar: c.cluster_mem,
            global_vector: c.cluster_mem * 0.5,
            global_prefetch: c.cluster_mem * 0.5,
            global_streams: 32.0,   // bus is not the bottleneck at 8 CEs
            sdo_start: c.cdo_start, // no cross-cluster library path
            xdo_start: c.cdo_start,
            lib_dispatch: c.cdo_dispatch,
            cluster_capacity: 32 << 20,
            global_capacity: 32 << 20,
            ..c
        }
    }

    /// Total CE count.
    pub fn total_ces(&self) -> usize {
        self.clusters * self.ces_per_cluster
    }

    /// The planning view: five fields as they are and the three
    /// numbers planning derives from the costs. They only need to be
    /// *relatively* right.
    pub fn planning(&self) -> Planning {
        Planning {
            clusters: self.clusters,
            ces_per_cluster: self.ces_per_cluster,
            cdo_start: self.cdo_start,
            sdo_start: self.sdo_start,
            xdo_start: self.xdo_start,
            vector_gain: self.scalar_op / self.vector_op,
            global_penalty: self.global_scalar / self.cluster_mem,
            lock_cost: self.lock_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_differ_as_documented() {
        let c1 = Machine::cedar_config1();
        let c2 = Machine::cedar_config2();
        assert_eq!(c1.total_ces(), 32);
        assert_eq!(c1.cluster_capacity, 16 << 20);
        assert_eq!(c2.cluster_capacity, 64 << 20);
        let fx = Machine::fx80();
        assert_eq!(fx.total_ces(), 8);
        assert_eq!(fx.global_scalar, fx.cluster_mem);
    }

    /// The restructure memo is keyed by the pass configuration's
    /// `Debug`: the two Cedar configurations must plan as one machine.
    #[test]
    fn planning_sees_no_name_and_no_capacity() {
        assert_eq!(Machine::cedar_config1().planning(), Machine::cedar_config2().planning());
        let fx = Machine::fx80().planning();
        assert_ne!(fx, Machine::cedar_config1().planning());
        assert_eq!((fx.clusters, fx.total_ces()), (1, 8));
        assert_eq!(fx.global_penalty, 1.0);
    }
}
