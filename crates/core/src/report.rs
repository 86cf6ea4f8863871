//! Transformation reports: one record per loop the driver considered.

use cedar_ir::{LoopClass, Span};
use std::fmt;

/// Why a loop was (or wasn't) parallelized, and what was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopDecision {
    /// Parallelized as a DOALL nest with the given classes
    /// (outermost first).
    Doall {
        /// Execution class per nest level, outermost first.
        classes: Vec<LoopClass>,
        /// Innermost statements were turned into vector operations.
        vectorized: bool,
    },
    /// Ordered parallel loop with cascade synchronization.
    Doacross {
        /// Number of await/advance pairs inserted.
        sync_points: usize,
    },
    /// Two-version loop behind a run-time dependence test.
    TwoVersion,
    /// Parallelized with a lock-protected critical section.
    CriticalSection,
    /// Replaced by a runtime-library reduction call.
    LibraryReduction,
    /// Split into a rest loop plus per-reduction loops (each then
    /// transformed separately and recorded on its own).
    Distributed {
        /// Number of loops after distribution.
        parts: usize,
    },
    /// Left sequential.
    Serial {
        /// Human-readable explanation (e.g. the blocking dependence).
        reason: String,
    },
}

/// Techniques that fired on a loop (for the report; order of
/// application).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the paper's technique names (see Display)
pub enum Technique {
    ScalarPrivatization,
    ArrayPrivatization,
    ScalarReduction,
    ArrayReduction,
    GivSubstitution,
    RuntimeDepTest,
    Stripmining,
    IfToWhere,
    Interchange,
    Coalescing,
    Distribution,
    LoopFusion,
    Globalization,
    Inlining,
    DataPartitioning,
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Technique::ScalarPrivatization => "scalar-privatization",
            Technique::ArrayPrivatization => "array-privatization",
            Technique::ScalarReduction => "scalar-reduction",
            Technique::ArrayReduction => "array-reduction",
            Technique::GivSubstitution => "giv-substitution",
            Technique::RuntimeDepTest => "runtime-dep-test",
            Technique::Stripmining => "stripmining",
            Technique::IfToWhere => "if-to-where",
            Technique::Interchange => "loop-interchange",
            Technique::Coalescing => "loop-coalescing",
            Technique::Distribution => "loop-distribution",
            Technique::LoopFusion => "loop-fusion",
            Technique::Globalization => "globalization",
            Technique::Inlining => "inlining",
            Technique::DataPartitioning => "data-partitioning",
        };
        f.write_str(s)
    }
}

/// Record for one considered loop.
#[derive(Debug, Clone)]
pub struct LoopRecord {
    /// Enclosing unit name.
    pub unit: String,
    /// Loop header line.
    pub span: Span,
    /// What the driver decided.
    pub decision: LoopDecision,
    /// Techniques applied along the way.
    pub techniques: Vec<Technique>,
}

/// A nest the differential validator degraded back to serial form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackRecord {
    /// Enclosing unit name.
    pub unit: String,
    /// Loop header line.
    pub span: Span,
    /// Why validation rejected the restructured nest (e.g. the seed and
    /// failure kind of the diverging perturbed run).
    pub reason: String,
}

/// One uncovered dependence found by the post-transformation
/// synchronization audit ([`crate::sync_audit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncAuditFinding {
    /// Enclosing unit name.
    pub unit: String,
    /// Header line of the parallel loop carrying the dependence.
    pub line: u32,
    /// The conflicting variable.
    pub var: String,
    /// What is uncovered and why.
    pub detail: String,
}

impl fmt::Display for SyncAuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:line {}] {}", self.unit, self.line, self.detail)
    }
}

/// Whole-program transformation report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// One record per considered loop, in visit order.
    pub loops: Vec<LoopRecord>,
    /// Candidate program versions considered by the selector (§3.4).
    pub versions_considered: usize,
    /// Nests reverted to serial by differential validation.
    pub fallbacks: Vec<FallbackRecord>,
    /// Dependences crossing a parallel loop that the emitted program
    /// does not synchronize ([`crate::sync_audit`]); empty for a clean
    /// restructure.
    pub sync_audit: Vec<SyncAuditFinding>,
}

impl Report {
    /// Append a loop record.
    pub fn record(
        &mut self,
        unit: &str,
        span: Span,
        decision: LoopDecision,
        techniques: Vec<Technique>,
    ) {
        self.loops.push(LoopRecord { unit: unit.to_string(), span, decision, techniques });
    }

    /// Count of loops parallelized in any form.
    pub fn parallelized(&self) -> usize {
        self.loops.iter().filter(|l| !matches!(l.decision, LoopDecision::Serial { .. })).count()
    }

    /// Count of loops left sequential.
    pub fn serial(&self) -> usize {
        self.loops.len() - self.parallelized()
    }

    /// Record a validation-driven serial fallback.
    pub fn record_fallback(&mut self, unit: &str, span: Span, reason: impl Into<String>) {
        self.fallbacks.push(FallbackRecord { unit: unit.to_string(), span, reason: reason.into() });
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "restructurer report: {} loops considered, {} parallelized, {} serial",
            self.loops.len(),
            self.parallelized(),
            self.serial()
        )?;
        for l in &self.loops {
            write!(f, "  [{}:{}] ", l.unit, l.span)?;
            match &l.decision {
                LoopDecision::Doall { classes, vectorized } => {
                    let cs: Vec<&str> = classes.iter().map(|c| c.keyword()).collect();
                    write!(
                        f,
                        "DOALL ({}){}",
                        cs.join("/"),
                        if *vectorized { " +vector" } else { "" }
                    )?;
                }
                LoopDecision::Doacross { sync_points } => {
                    write!(f, "DOACROSS ({sync_points} sync point(s))")?;
                }
                LoopDecision::TwoVersion => write!(f, "two-version (run-time test)")?,
                LoopDecision::CriticalSection => write!(f, "parallel + critical section")?,
                LoopDecision::LibraryReduction => write!(f, "library reduction")?,
                LoopDecision::Distributed { parts } => write!(f, "distributed into {parts} loops")?,
                LoopDecision::Serial { reason } => write!(f, "serial: {reason}")?,
            }
            if !l.techniques.is_empty() {
                let ts: Vec<String> = l.techniques.iter().map(|t| t.to_string()).collect();
                write!(f, " [{}]", ts.join(", "))?;
            }
            writeln!(f)?;
        }
        if !self.fallbacks.is_empty() {
            writeln!(f, "validation fallbacks ({}):", self.fallbacks.len())?;
            for fb in &self.fallbacks {
                writeln!(f, "  [{}:{}] reverted to serial: {}", fb.unit, fb.span, fb.reason)?;
            }
        }
        if !self.sync_audit.is_empty() {
            writeln!(f, "sync audit: {} uncovered dependence(s):", self.sync_audit.len())?;
            for a in &self.sync_audit {
                writeln!(f, "  {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_display() {
        let mut r = Report::default();
        r.record(
            "s",
            Span::new(3),
            LoopDecision::Doall { classes: vec![LoopClass::XDoall], vectorized: true },
            vec![Technique::Stripmining],
        );
        r.record(
            "s",
            Span::new(9),
            LoopDecision::Serial { reason: "recurrence on a".into() },
            vec![],
        );
        assert_eq!(r.parallelized(), 1);
        assert_eq!(r.serial(), 1);
        let text = r.to_string();
        assert!(text.contains("DOALL (xdoall) +vector"));
        assert!(text.contains("serial: recurrence on a"));
    }
}
