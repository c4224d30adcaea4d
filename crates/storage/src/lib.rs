//! Relational storage substrate for `cq-updates`.
//!
//! The paper (Section 2) works with finite relational databases over a
//! countably infinite domain `dom = N≥1`, updated by single-tuple
//! `insert R(ā)` / `delete R(ā)` commands under **set semantics**. This
//! crate provides:
//!
//! * [`relation`] / [`database`] — relations as hashed tuple sets, the
//!   database, and its sizes `|D|`/`‖D‖` and `n = |adom(D)|` (the
//!   parameter all the paper's bounds are stated in), computed on demand.
//! * [`update`] — update commands, the [`ApplyUpdate`] contract every
//!   update consumer keeps (effective updates are undone by their
//!   [`Update::inverse`]), logs, and a compact binary codec (via
//!   `bytes`) so experiment workloads are replayable.
//! * [`index`] — hash indexes on arbitrary column subsets, both one-shot
//!   (for recompute baselines) and incrementally maintained (for the IVM
//!   baseline).
//! * [`workload`] — deterministic pseudo-random workload generators for the
//!   experiment harness (matrix-shaped, star-shaped, churn streams).

#![warn(missing_docs)]
pub mod database;
pub mod index;
pub mod relation;
pub mod update;
pub mod workload;

pub use database::Database;
pub use index::Index;
pub use relation::Relation;
pub use update::{ApplyUpdate, Update, UpdateLog};

/// A database constant (`dom = N≥1`; 0 is valid for us too, but generators
/// start at 1 to match the paper).
pub type Const = u64;

/// A database tuple.
pub type Tuple = Vec<Const>;
