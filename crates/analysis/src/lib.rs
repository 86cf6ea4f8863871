#![warn(missing_docs)]
//! Program analyses behind the Cedar restructurer.
//!
//! This crate implements the analysis side of the techniques described
//! in *Restructuring Fortran Programs for Cedar* (§3–§4.1):
//!
//! * [`affine`] — affine (linear + symbolic) subscript extraction;
//! * [`nest`] — loop-nest views over the IR with normalized bounds;
//! * [`refs`] — memory-reference collection (array and scalar use/def);
//! * [`depend`] — data-dependence testing: ZIV / strong & weak SIV /
//!   MIV GCD + Banerjee bounds, hierarchical direction vectors, over a
//!   per-loop reference table that normalizes each access once;
//! * [`scalar`] — scalar use/def, live-out approximation, and scalar
//!   privatization legality (§3.2);
//! * [`array_private`] — array privatization legality (§4.1.2);
//! * [`induction`] — induction variables and *generalized* induction
//!   variables: geometric updates and triangular-loop additive updates
//!   (§4.1.4), with closed-form construction;
//! * [`reduction`] — scalar and array-element reduction recognition,
//!   including multi-statement accumulations (§3.3, §4.1.3);
//! * [`interproc`] — interprocedural use/def summaries and side-effect
//!   classification (§4.1.1);
//! * [`runtime_test`] — run-time dependence test synthesis for
//!   linearized-array subscripts (§4.1.5).
//!
//! Every query is conservative: when a subscript defeats the affine
//! machinery the answer is "assume dependence", exactly as the paper's
//! restructurer behaves (and which its §4.1 techniques then relax).

pub mod affine;
pub mod array_private;
pub mod depend;
pub mod induction;
pub mod interproc;
pub mod nest;
pub mod reduction;
pub mod refs;
mod reftable;
pub mod runtime_test;
pub mod scalar;

pub use affine::Affine;
pub use depend::{DepKind, Dependence, Direction, LoopDeps};
pub use nest::LoopLevel;
pub use refs::{AccessKind, ArrayAccess, BodyRefs};
