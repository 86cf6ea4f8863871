//! The service's error taxonomy: every failure a request can hit maps
//! onto a stable `error.kind` string, an HTTP status, and one of the
//! repo's exit classes (0 ok / 1 program-or-validation / 2 harness —
//! the same taxonomy `cedar_par::cli::exitcode` gives the batch
//! binaries), rendered as a structured JSON body.
//!
//! Two invariants, enforced here and tested in `tests/serve_chaos.rs`:
//!
//! 1. **Stable kinds.** The `kind` strings are an API: the service-side
//!    kinds below plus every [`SimErrorKind::as_str`] tag. Clients
//!    branch on them; they never change spelling.
//! 2. **No leaked internals.** A panic payload or backtrace never
//!    reaches a client — panics are reported as kind `panicked` with a
//!    fixed message, and the gory details go to the crash bundle the
//!    response references instead.

use cedar_experiments::supervise::{CellError, CellErrorKind};
use cedar_experiments::Writer;

/// Service-side error kinds (program/simulator kinds come from
/// [`cedar_sim::SimErrorKind::as_str`]).
pub mod kind {
    /// Request body is not valid JSON.
    pub const PARSE_ERROR: &str = "parse-error";
    /// Request body is JSON but not a valid request (missing `source`,
    /// unknown `config`, ...).
    pub const BAD_REQUEST: &str = "bad-request";
    /// The Fortran front end rejected the source.
    pub const COMPILE_ERROR: &str = "compile-error";
    /// Unknown endpoint.
    pub const NOT_FOUND: &str = "not-found";
    /// Admission queue full; the request was shed, retry later.
    pub const QUEUE_FULL: &str = "queue-full";
    /// The server is draining for shutdown.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The request panicked the engine at every ladder rung.
    pub const PANICKED: &str = "panicked";
    /// The request exceeded its wall-clock deadline at every rung.
    pub const TIMED_OUT: &str = "timed-out";
}

/// HTTP status for an error kind. Simulator kinds are 422 — the
/// *program* is faulty and deterministically so (a real deadlock or
/// out-of-bounds is the client's bug, not the service's) — except
/// `timeout`, which is the deadline machinery and maps with
/// [`kind::TIMED_OUT`] to 504.
pub fn status_for(kind: &str) -> u16 {
    match kind {
        kind::PARSE_ERROR | kind::BAD_REQUEST | kind::COMPILE_ERROR => 400,
        kind::NOT_FOUND => 404,
        kind::QUEUE_FULL => 429,
        kind::SHUTTING_DOWN => 503,
        kind::PANICKED => 500,
        kind::TIMED_OUT | "timeout" => 504,
        // Everything else is a structured simulator/program fault.
        _ => 422,
    }
}

/// The repo-wide exit class (`cedar_par::cli::exitcode`) a kind
/// belongs to: program/validation faults are class 1, harness-side
/// conditions (shed, drain, panic, deadline) are class 2.
pub fn exit_class(kind: &str) -> i32 {
    match status_for(kind) {
        400 | 404 | 422 => cedar_par::cli::exitcode::VALIDATION,
        _ => cedar_par::cli::exitcode::HARNESS,
    }
}

/// The stable kind for one classified ladder attempt: the structured
/// simulator kind when the failure carried one, else the cell
/// classification (`panicked` / `timed-out`).
pub fn kind_for(e: &CellError) -> &'static str {
    if let Some(sim) = e.sim {
        return sim.as_str();
    }
    match e.kind {
        CellErrorKind::Panicked => kind::PANICKED,
        CellErrorKind::TimedOut => kind::TIMED_OUT,
        CellErrorKind::Failed => kind::PANICKED, // unreachable: Failed implies sim
    }
}

/// The client-safe message for one attempt. Structured simulator
/// errors are safe (they describe the *program*); panic payloads are
/// not (they describe the *engine*) and are replaced wholesale.
pub fn message_for(e: &CellError) -> String {
    match e.kind {
        CellErrorKind::Panicked => {
            "internal engine failure; details preserved in the crash bundle".to_string()
        }
        _ => e.msg.clone(),
    }
}

/// Render a structured error body:
/// `{"schema": ..., "error": {"kind", "message", "exit_class",
/// "bundle", "attempts"}}`. `attempts` lists `(rung, kind)` per ladder
/// attempt — enough to see the degradation path without exposing
/// internals.
pub fn error_json(
    kind: &str,
    message: &str,
    bundle: Option<&str>,
    attempts: &[(&'static str, &'static str)],
) -> String {
    let mut w = Writer::new();
    w.obj().key("schema").str("cedar-serve-v1");
    w.key("error").obj().key("kind").str(kind).key("message").str(message);
    w.key("exit_class").int(exit_class(kind));
    w.key("bundle").opt(bundle, Writer::str);
    w.key("attempts").arr();
    for (rung, k) in attempts {
        w.obj().key("rung").str(rung).key("kind").str(k).end();
    }
    w.end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_sim::SimErrorKind;

    #[test]
    fn every_sim_kind_has_a_status_and_class() {
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
        for k in kinds {
            let status = status_for(k.as_str());
            if k == SimErrorKind::Timeout {
                assert_eq!(status, 504);
                assert_eq!(exit_class(k.as_str()), 2);
            } else {
                assert_eq!(status, 422, "{}", k.as_str());
                assert_eq!(exit_class(k.as_str()), 1, "{}", k.as_str());
            }
        }
    }

    #[test]
    fn service_kind_statuses() {
        assert_eq!(status_for(kind::QUEUE_FULL), 429);
        assert_eq!(status_for(kind::SHUTTING_DOWN), 503);
        assert_eq!(status_for(kind::PANICKED), 500);
        assert_eq!(status_for(kind::TIMED_OUT), 504);
        assert_eq!(status_for(kind::BAD_REQUEST), 400);
        assert_eq!(status_for(kind::NOT_FOUND), 404);
        assert_eq!(exit_class(kind::QUEUE_FULL), 2);
        assert_eq!(exit_class(kind::COMPILE_ERROR), 1);
    }

    #[test]
    fn panic_messages_never_leak() {
        let e = CellError {
            kind: CellErrorKind::Panicked,
            msg: "index out of bounds at src/secret_internal.rs:42".to_string(),
            sim: None,
            backtrace: Some("stack backtrace:\n 0: secret".to_string()),
        };
        let body = error_json(kind_for(&e), &message_for(&e), Some("target/b/x"), &[]);
        assert!(!body.contains("secret"), "{body}");
        assert!(body.contains("\"kind\": \"panicked\""), "{body}");
        assert!(body.contains("crash bundle"), "{body}");
    }

    #[test]
    fn sim_errors_keep_their_structured_kind() {
        let sim = cedar_sim::SimError::new(
            SimErrorKind::Deadlock,
            cedar_ir::Span::new(7),
            "await(2) never satisfied",
        );
        let e = CellError::from_sim_error(&sim);
        assert_eq!(kind_for(&e), "deadlock");
        assert!(message_for(&e).contains("await(2) never satisfied"));
        let body = error_json(
            kind_for(&e),
            &message_for(&e),
            None,
            &[("normal", "deadlock"), ("serial", "deadlock")],
        );
        assert!(body.contains("\"exit_class\": 1"), "{body}");
        assert!(body.contains("{\"rung\": \"serial\", \"kind\": \"deadlock\"}"), "{body}");
    }
}
