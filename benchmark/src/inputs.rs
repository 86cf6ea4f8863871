//! The inputs the workloads run on: the 22 fixed Table 1/2 programs,
//! the four racy negatives, and programs generated from `--seed`.

use cedar_fuzz::GenProgram;
use cedar_restructure::{BackendKind, PassConfig};
use cedar_serve::ServeRequest;

/// One of the 22 Table 1/2 programs, with the pass configuration its
/// table runs it under.
pub struct PoolEntry {
    /// Row name.
    pub name: &'static str,
    /// Fixed-form source.
    pub source: String,
    /// Result variables of the main unit.
    pub watch: Vec<&'static str>,
    /// `automatic_1991` for Table 1, `manual_improved` for Table 2.
    pub cfg: PassConfig,
}

/// The 22-program pool, Table 1 then Table 2.
pub fn pool() -> Vec<PoolEntry> {
    let entry = |w: cedar_workloads::Workload, cfg: PassConfig| PoolEntry {
        name: w.name,
        source: w.source,
        watch: w.watch,
        cfg,
    };
    cedar_workloads::table1_workloads()
        .into_iter()
        .map(|w| entry(w, PassConfig::automatic_1991()))
        .chain(
            cedar_workloads::table2_workloads()
                .into_iter()
                .map(|w| entry(w, PassConfig::manual_improved())),
        )
        .collect()
}

/// Seed of the `i`-th generated program of a run: distinct `--seed`s
/// draw disjoint programs.
pub fn program_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_000).wrapping_add(i)
}

/// The `/restructure` request for generated program `i`: service
/// defaults (`validate: true`), the generator's watch list, and the
/// backend rotating cedar/openmp/serial.
pub fn request_body(seed: u64, i: u64) -> String {
    let rendered = GenProgram::generate(program_seed(seed, i)).render();
    let mut req = ServeRequest::new(rendered.source);
    req.watch = rendered.watch.into_iter().map(|w| w.name).collect();
    req.backend = BackendKind::all()[(i % 3) as usize];
    req.to_json()
}
