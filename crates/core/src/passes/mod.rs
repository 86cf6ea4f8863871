//! The rewrites [`crate::restructure`] runs: the per-unit nest
//! transform and the techniques it applies. Passes are backend-neutral:
//! they produce parallel IR (`cedar-ir` with Cedar loop classes and
//! sync statements), and emission to a concrete dialect happens after
//! them, behind [`crate::backend::Backend`].

pub mod giv;
pub mod nest;
pub mod suppress;

#[cfg(test)]
mod tests;
