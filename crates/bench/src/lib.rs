//! Experiment harness for the `cq-updates` reproduction.
//!
//! * [`measure`] — per-operation timing (update time, enumeration delay,
//!   counting time) with percentile statistics, and the [`JsonReport`]
//!   every experiment returns.
//! * [`workloads`] — the queries and data distributions the experiments
//!   sweep over.
//! * [`experiments`] — one function per table, figure and experiment
//!   (T1, F1, F2/F3, the dichotomy table, E1–E10, E13, E15, E16), each
//!   printing a paper-shaped table.
//!
//! The `experiments` binary runs them and writes each report to
//! `BENCH_<ID>.json` (`cargo run --release -p cqu-bench --bin experiments`).
//! It is the only harness in this crate; the commit-path cost ledger is
//! the separate `cqbench` package at the repository root.

#![warn(missing_docs)]
pub mod experiments;
pub mod measure;
pub mod workloads;

pub use measure::{JsonReport, Stats};
