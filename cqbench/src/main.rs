//! `cqbench` — the commit-path cost ledger of `cq-updates`.
//!
//! Four named workloads, eleven end-to-end metrics, a per-layer depth
//! ladder. See `README.md` beside this package for the glossary; the
//! short version:
//!
//! ```text
//! cqbench --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! cqbench run   [--seed N] [--workload W] [--out DIR]      every workload, tracing off
//! cqbench trace [--seed N] [--workload W] [--out DIR]      the traced run + ladder
//! cqbench aa    [--seed N] [--out DIR]                     two sets of `run`, compared to the bounds
//! ```
//!
//! Every workload runs in a process of its own, so `peak_rss_mb` and
//! allocator state never leak from one workload into the next.

mod affinity;
mod check;
mod disk;
mod gen;
mod json;
mod ladder;
mod metrics;
mod runner;
mod scenario;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match runner::main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("cqbench: {usage}");
            eprintln!(
                "usage: cqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                 \x20      cqbench <run|trace|aa> [--seed <n>] [--workload <name>] [--seconds <s>] [--out <dir>]"
            );
            ExitCode::from(2)
        }
    }
}
