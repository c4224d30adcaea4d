//! The `experiments` binary: regenerates every table and figure of the
//! paper plus the scaling experiments, and writes each one's numbers to
//! `BENCH_<ID>.json` in `CQ_BENCH_JSON_DIR` (default: the current
//! directory).
//!
//! ```text
//! cargo run --release -p cqu-bench --bin experiments            # everything
//! cargo run --release -p cqu-bench --bin experiments -- --table1 --fig3 --e9
//! CQ_ENFORCE_OVERHEAD=1 cargo run --release -p cqu-bench --bin experiments -- --e16
//! ```

use cqu_bench::experiments as ex;
use cqu_bench::workloads::sweep;
use cqu_bench::JsonReport;

/// A command-line selector and the experiment it runs.
type Selector = (&'static str, fn() -> JsonReport);

/// Every selector with the sizes of a full run, in `--all` order.
const EXPERIMENTS: &[Selector] = &[
    ("--table1", ex::table1),
    ("--fig1", ex::figure1),
    ("--fig3", ex::figure3),
    ("--classify", ex::classify_catalogue),
    ("--e1", || {
        ex::e1_enumeration(&sweep(1_000, 4, 4), 2_000, 1_000)
    }),
    ("--e2", || ex::e2_counting(&sweep(1_000, 4, 4), 2_000)),
    ("--e3", || {
        ex::e3_hard_enumeration(&[256, 512, 1024, 2048], 8)
    }),
    ("--e4", || ex::e4_omv(&[64, 128, 256, 512])),
    ("--e5", || ex::e5_ov_counting(&[512, 1024, 2048])),
    ("--e6", || ex::e6_preprocessing(&sweep(10_000, 2, 4))),
    ("--e7", || {
        ex::e7_selfjoins(&[1_000, 4_000, 16_000], 2_000, 1_000)
    }),
    ("--e8", || ex::e8_ablation(&[1, 2, 4, 6], 2_000, 1_000)),
    ("--e9", || ex::e9_batch(32_000, &[64, 256, 1024], 32)),
    ("--e10", || {
        ex::e10_subscriptions(&sweep(100, 10, 5), &[100, 10_000], 200)
    }),
    ("--e13", || ex::e13_serving(&[0, 1, 8, 32], 32, 200)),
    ("--e15", || {
        ex::e15_replica_reads(20_000, &[1, 2, 4], 50_000, 40)
    }),
    ("--e16", || ex::e16_metrics_overhead(1 << 14, 9)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "--all" && !EXPERIMENTS.iter().any(|(flag, _)| flag == *a))
    {
        let flags: Vec<&str> = EXPERIMENTS.iter().map(|(flag, _)| *flag).collect();
        eprintln!("unknown flag {unknown}; known: --all {}", flags.join(" "));
        std::process::exit(2);
    }
    for (flag, run) in EXPERIMENTS {
        if !all && !args.iter().any(|a| a == flag) {
            continue;
        }
        let report = run();
        match report.write() {
            Ok(path) => println!("  wrote {}", path.display()),
            Err(e) => eprintln!("  could not write BENCH_{}.json: {e}", report.id()),
        }
        if report.id() == "E16" {
            ex::enforce_overhead_gate(&report);
        }
    }
}
