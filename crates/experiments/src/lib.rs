#![warn(missing_docs)]
//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation (§4) from the full pipeline —
//! parse → restructure → simulate.
//!
//! One module per artifact:
//!
//! * [`table1`] — speedups of the ten automatically-restructured linear
//!   algebra routines (paper Table 1);
//! * [`table2`] — Perfect-proxy speedups, automatic vs. manually
//!   improved, on the FX/80 and Cedar models (paper Table 2, including
//!   the QCD random-number footnote variants);
//! * [`fig6`] — effect of compiler-inserted prefetch on CG and TRFD;
//! * [`fig7`] — privatization vs. expansion in MDG's major loop;
//! * [`fig8`] — data partitioning in Conjugate Gradient over 1–4
//!   clusters;
//! * [`fig9`] — inner-parallel / outer-parallel / outer-fused FLO52
//!   variants on both machines;
//! * [`ablation`] — knob sweeps for the restructurer's design choices
//!   (strip length, version cap, interchange, inlining, interconnect
//!   saturation);
//! * [`robustness`] — differential validation of every workload under
//!   seeded schedule perturbations (`cedar-verify`), with a JSON
//!   report of fallbacks and result deviations;
//! * [`races`] — the happens-before race detector over every
//!   restructured workload plus hand-written racy negatives, with a
//!   JSON confusion matrix.
//!
//! Every cell re-verifies semantic equivalence against the serial run
//! before reporting a speedup — a cell that computes different answers
//! panics rather than reporting a bogus number.
//!
//! Sweeps run under the **supervised experiment engine**
//! ([`supervise`]): per-cell panic isolation and wall-clock deadlines,
//! a degradation ladder for failed cells, crash bundles for cells that
//! fail at every rung, and seeded chaos injection ([`chaos`],
//! `CEDAR_CHAOS`) to prove the harness survives misbehaving cells.

pub mod ablation;
pub mod cache;
pub mod chaos;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod jsonio;
pub mod pipeline;
pub mod races;
pub mod robustness;
pub mod supervise;
pub mod table1;
pub mod table2;

pub use jsonio::{Json, Writer};
pub use pipeline::{run_program, run_workload, Outcome};
pub use supervise::Supervisor;

/// Render a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        let mut parts = Vec::new();
        for (k, c) in cells.iter().enumerate() {
            parts.push(format!("{:>width$}", c, width = widths[k.min(widths.len() - 1)]));
        }
        out.push_str(&parts.join("  "));
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&mut out, &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "x"],
            &[vec!["cg".into(), "163".into()], vec!["mprove".into(), "1079".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("mprove"));
    }
}
