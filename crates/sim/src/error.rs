//! Structured simulation errors.
//!
//! Every failure path of the interpreter produces a [`SimError`] with a
//! [`SimErrorKind`] classifying the fault, so harnesses (and the
//! `cedar-verify` differential validator) can react to *what* went
//! wrong — a deadlock under a perturbed schedule means an illegal
//! transform, an out-of-bounds subscript means a broken program —
//! instead of string-matching messages or catching panics.

use crate::race::RaceInfo;
use cedar_ir::Span;
use std::fmt;

/// Classification of a simulation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimErrorKind {
    /// A cascade `await` can never be satisfied: no `advance` of the
    /// awaited point was recorded in the dependence window. The
    /// watchdog reports this instead of stalling forever.
    Deadlock,
    /// Array subscript or section lane outside the bound extents.
    OutOfBounds,
    /// Use of a value or binding that was never established (unbound
    /// variable, function that returned no value).
    Uninit,
    /// Shape or arity violation: rank mismatch, vector length mismatch,
    /// wrong intrinsic argument count.
    TypeError,
    /// Integer division, `MOD`, or `0 ** negative` by/of zero.
    DivByZero,
    /// A construct the simulator (or the Cedar runtime it models)
    /// rejects, e.g. synchronization inside `mtskstart` threads.
    Unsupported,
    /// A watchdog bound tripped: DO WHILE iteration cap, call depth,
    /// total-operation budget, or a section too large to materialize.
    Limit,
    /// The run's wall-clock budget lapsed or its supervisor requested
    /// cancellation ([`crate::MachineConfig::cancel`]): the watchdog
    /// polls the cancel token alongside its statement budget and aborts
    /// cooperatively. Unlike [`SimErrorKind::Limit`], this says nothing
    /// about the program — only that the host ran out of patience.
    Timeout,
    /// Structurally invalid input program (unknown callee, missing
    /// PROGRAM unit, zero DO step, malformed COMMON, ...).
    BadProgram,
    /// The happens-before detector found two unordered conflicting
    /// accesses (see [`crate::race`]); details in [`SimError::race`].
    DataRace,
}

impl SimErrorKind {
    /// Stable lower-case tag (used in Display and JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            SimErrorKind::Deadlock => "deadlock",
            SimErrorKind::OutOfBounds => "out-of-bounds",
            SimErrorKind::Uninit => "uninitialized",
            SimErrorKind::TypeError => "type-error",
            SimErrorKind::DivByZero => "div-by-zero",
            SimErrorKind::Unsupported => "unsupported",
            SimErrorKind::Limit => "limit-exceeded",
            SimErrorKind::Timeout => "timeout",
            SimErrorKind::BadProgram => "bad-program",
            SimErrorKind::DataRace => "data-race",
        }
    }
}

impl fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Simulation error: a fault class, a message, and (when available) the
/// source line of the offending statement.
#[derive(Debug, Clone)]
pub struct SimError {
    /// What class of fault this is.
    pub kind: SimErrorKind,
    /// What went wrong.
    pub msg: String,
    /// Source line of the offending statement (if known).
    pub span: Span,
    /// Structured race details for [`SimErrorKind::DataRace`] errors.
    pub race: Option<Box<RaceInfo>>,
}

impl SimError {
    /// Build an error of the given kind.
    pub fn new(kind: SimErrorKind, span: Span, msg: impl Into<String>) -> SimError {
        SimError { kind, msg: msg.into(), span, race: None }
    }

    /// Build a data-race error from detector findings (fail-fast mode).
    pub fn data_race(info: RaceInfo) -> SimError {
        SimError {
            kind: SimErrorKind::DataRace,
            msg: info.to_string(),
            span: info.other_span,
            race: Some(Box::new(info)),
        }
    }

    /// True when this is a watchdog-detected deadlock.
    pub fn is_deadlock(&self) -> bool {
        self.kind == SimErrorKind::Deadlock
    }

    /// True when this is a detected data race.
    pub fn is_race(&self) -> bool {
        self.kind == SimErrorKind::DataRace
    }

    /// True when the run was aborted by its wall-clock deadline or an
    /// explicit cancellation, not by anything the program did.
    pub fn is_timeout(&self) -> bool {
        self.kind == SimErrorKind::Timeout
    }

    /// Attach a location-free operation error to a statement span.
    pub fn from_op(e: OpError, span: Span) -> SimError {
        SimError { kind: e.kind, msg: e.msg, span, race: None }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: simulation error [{}]: {}", self.span, self.kind, self.msg)
    }
}

impl std::error::Error for SimError {}

/// A kinded error without a source location, produced by the pure value
/// operations ([`crate::value_ops`]); the interpreter attaches the
/// statement span via [`SimError::from_op`].
#[derive(Debug, Clone)]
pub struct OpError {
    /// Fault class.
    pub kind: SimErrorKind,
    /// Message.
    pub msg: String,
}

impl OpError {
    /// Build an operation error.
    pub fn new(kind: SimErrorKind, msg: impl Into<String>) -> OpError {
        OpError { kind, msg: msg.into() }
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_tag_and_span() {
        let e = SimError::new(SimErrorKind::Deadlock, Span::new(7), "await(3) stuck");
        let text = e.to_string();
        assert!(text.contains("deadlock"), "{text}");
        assert!(text.contains("await(3) stuck"), "{text}");
        assert!(e.is_deadlock());
    }

    #[test]
    fn op_error_attaches_span() {
        let op = OpError::new(SimErrorKind::DivByZero, "integer division by zero");
        let e = SimError::from_op(op, Span::new(12));
        assert_eq!(e.kind, SimErrorKind::DivByZero);
        assert_eq!(e.span, Span::new(12));
    }

    #[test]
    fn every_kind_has_a_distinct_stable_tag() {
        let kinds = [
            SimErrorKind::Deadlock,
            SimErrorKind::OutOfBounds,
            SimErrorKind::Uninit,
            SimErrorKind::TypeError,
            SimErrorKind::DivByZero,
            SimErrorKind::Unsupported,
            SimErrorKind::Limit,
            SimErrorKind::Timeout,
            SimErrorKind::BadProgram,
            SimErrorKind::DataRace,
        ];
        let tags: Vec<&str> = kinds.iter().map(|k| k.as_str()).collect();
        let mut dedup = tags.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len(), "duplicate tag in {tags:?}");
        // Tags feed JSON reports: lower-case, no whitespace, and the
        // Display impl must agree with as_str.
        for k in kinds {
            let tag = k.as_str();
            assert_eq!(tag, k.to_string());
            assert!(
                tag.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "tag {tag:?} is not a stable lower-case slug"
            );
            let e = SimError::new(k, Span::new(3), "boom");
            assert!(e.to_string().contains(tag), "{e}");
        }
    }

    #[test]
    fn data_race_error_carries_structured_details() {
        let info = crate::race::RaceInfo {
            slot: 4,
            index: 2,
            var: Some("force".into()),
            kind: crate::race::RaceKind::WriteWrite,
            writer_iter: 5,
            writer_ce: 1,
            writer_span: Span::new(14),
            other_iter: 6,
            other_ce: 2,
            other_span: Span::new(14),
        };
        let e = SimError::data_race(info);
        assert!(e.is_race());
        assert!(!e.is_deadlock());
        let text = e.to_string();
        assert!(text.contains("data-race"), "{text}");
        assert!(text.contains("`force`"), "{text}");
        assert!(text.contains("element 2"), "{text}");
        let info = e.race.as_ref().expect("race details attached");
        assert_eq!((info.writer_span, info.other_span), (Span::new(14), Span::new(14)));
    }
}
