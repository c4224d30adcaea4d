//! Lower-bound machinery for the `cq-updates` reproduction.
//!
//! The hardness side of the paper's dichotomies (Theorems 3.3–3.5) is
//! conditional on the **OMv** conjecture (Henzinger, Krinninger,
//! Nanongkai, Saranurak; STOC'15) and, for counting, the **OV** conjecture
//! (implied by SETH). Conditional lower bounds cannot be "run", but their
//! reductions can: this crate defines the three problems with naive
//! reference solvers ([`omv`]) and implements the paper's reductions from
//! them to dynamic query evaluation ([`reduction`]), generically over any
//! stand-alone engine ([`cqu_dynamic::Standalone`]).
//!
//! The experiment harness uses both directions: correctness (reduction
//! answers equal naive answers) and timing (per-round cost through a CQ
//! engine grows polynomially in `n` for the hard queries, flat for the
//! easy ones).

#![warn(missing_docs)]
pub mod boxes;
pub mod omv;
pub mod reduction;

pub use boxes::BoxCounter;
pub use omv::{OmvInstance, OuMvInstance, OvInstance};
pub use reduction::{
    omv_via_enumeration, oumv_via_boolean_set, oumv_via_core, ov_via_counting, phi_et,
    phi_set_boolean, phi_set_join,
};
