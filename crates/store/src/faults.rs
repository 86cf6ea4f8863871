//! Filesystem fault injection points for the store's durable writes.
//!
//! Every [`Store::put`](crate::Store::put) walks a fixed sequence of two
//! stages — write the record at the end of the log, `fdatasync` it —
//! and consults an optional [`FaultHook`] immediately before each real
//! syscall. The hook decides, purely from the stage and the entry
//! name, whether that syscall "fails" and how. The store itself stays
//! dependency-free: seeded draw policies (the `chaos::fs` lane) live
//! upstream and plug in through the hook.
//!
//! The injected faults are the honest ones a real filesystem produces:
//!
//! * [`FsFault::ShortWrite`] — the write persists only a prefix (torn
//!   page, out-of-space mid-write);
//! * [`FsFault::Eio`] — the syscall fails outright, leaving whatever
//!   state it already created;
//! * [`FsFault::Crash`] — the process "dies" at this point: nothing
//!   after the stage happens. At [`FsStage::Sync`] this is the crash
//!   window — the record is whole in the log but not known to be on
//!   disk, and the index never learns it.
//!
//! Whatever fails, the put then cuts the log back to its last good
//! record; a process that really dies leaves that tail for the next
//! writable open to cut.

use std::sync::Arc;

/// A stage of the durable-write sequence, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsStage {
    /// Writing the record at the end of the log.
    Write,
    /// `fdatasync` of the log.
    Sync,
}

impl FsStage {
    /// Stable lowercase tag, used as the chaos draw key.
    pub fn tag(self) -> &'static str {
        match self {
            FsStage::Write => "write",
            FsStage::Sync => "sync",
        }
    }

    /// Every stage, in the order a put executes them.
    pub const ALL: [FsStage; 2] = [FsStage::Write, FsStage::Sync];
}

/// How an injected stage fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFault {
    /// Only the first `n` bytes of the write persist, then the
    /// operation errors. Meaningful at [`FsStage::Write`]; other
    /// stages treat it as [`FsFault::Eio`].
    ShortWrite(usize),
    /// The syscall fails with an I/O error.
    Eio,
    /// The process dies here: the stage and everything after it never
    /// execute.
    Crash,
}

/// Decides whether a syscall at `stage` for entry `name` is injected
/// with a fault. `None` means the real syscall proceeds.
pub type FaultHook = Arc<dyn Fn(FsStage, &str) -> Option<FsFault> + Send + Sync>;
