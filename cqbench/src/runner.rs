//! Command line, the per-workload child process, and the `run` /
//! `trace` / `aa` parents that spawn one child per workload.

use crate::json::Json;
use crate::metrics::{Better, Report, END_TO_END, SHOULD_BE_ZERO};
use crate::scenario::{self, Scenario};
use crate::trace::Tracer;
use crate::workloads::{self, RunCfg};
use crate::{ladder, metrics};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Wall-clock budget of one child before its timed loops stop early;
/// the driver allows 180 s.
const SAFETY: Duration = Duration::from_secs(140);
/// Default `--seconds` of the parents (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 10.0;
/// Share of `--seconds` each of the traced run's three workload passes
/// gets; the ladder takes the rest.
const TRACE_PASS_SHARE: f64 = 0.2;

struct Opts {
    mode: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        mode: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        corrupt: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            opts.mode = Some(it.next().expect("peeked").clone());
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => opts.smoke = true,
            "--corrupt-oracle" => opts.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Entry point: `Ok(true)` when every check passed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let opts = parse(args)?;
    let picked = match &opts.workload {
        Some(name) => Some(
            scenario::by_name(name)
                .ok_or_else(|| format!("unknown workload {name} (have: {})", names().join(", ")))?,
        ),
        None => None,
    };
    match opts.mode.as_deref() {
        None => {
            let sc = picked.ok_or("--workload is required")?;
            Ok(child(sc, &opts))
        }
        Some("run") => Ok(parent(&opts, picked, false).1),
        Some("trace") => Ok(parent(&opts, picked, true).1),
        Some("aa") => Ok(aa(&opts)),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

/// `BENCHMARK.json`, generated from the catalogue so the two cannot
/// drift (`cqbench manifest > BENCHMARK.json`; a test compares them).
fn manifest() -> String {
    let workloads = scenario::ALL
        .iter()
        .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]));
    let end_to_end = END_TO_END.iter().map(|(name, unit, better, bound)| {
        Json::obj([
            ("name", Json::str(*name)),
            ("unit", Json::str(*unit)),
            ("better", Json::str(better.word())),
            ("bound", Json::Num(*bound)),
        ])
    });
    let per_layer = metrics::PER_LAYER.iter().map(|(name, unit, better)| {
        Json::obj([
            ("name", Json::str(*name)),
            ("unit", Json::str(*unit)),
            ("better", Json::str(better.word())),
        ])
    });
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "cqbench/Cargo.toml",
        "--",
    ];
    let doc = Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("cqbench")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ]);
    doc.render_lines()
}

fn names() -> Vec<&'static str> {
    scenario::ALL.iter().map(|s| s.name).collect()
}

/// Where traces and baselines go: `--out`, else beside the executable —
/// inside the build directory, which is inside the checkout.
fn out_dir(opts: &Opts) -> PathBuf {
    opts.out.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("cqbench-out")))
            .unwrap_or_else(|| PathBuf::from("cqbench-out"))
    })
}

fn run_workload(sc: &Scenario, cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Report {
    match sc.name {
        "engine_floor" => workloads::engine_floor::run(cfg, tracer),
        "session_mixed" => workloads::session_mixed::run(cfg, tracer),
        "durable_sharded" => workloads::durable_sharded::run(cfg, tracer),
        "full_stack" => workloads::full_stack::run(cfg, tracer),
        other => unreachable!("no runner for workload {other}"),
    }
}

/// Runs one workload in this process and prints its result line.
fn child(sc: &Scenario, opts: &Opts) -> bool {
    let cfg = RunCfg {
        seed: opts.seed,
        seconds: opts.seconds,
        smoke: opts.smoke,
        traced: false,
        corrupt: opts.corrupt,
        single_round: opts.smoke,
        deadline: Instant::now() + SAFETY,
    };
    println!(
        "== {} · seed {} · {} s · {} · {} CPUs ==",
        sc.name,
        cfg.seed,
        cfg.seconds,
        if opts.trace {
            "traced run + ladder"
        } else {
            "end-to-end, tracing off"
        },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let report = if opts.trace {
        traced(sc, &cfg, opts)
    } else {
        run_workload(sc, &cfg, None)
    };
    for note in &report.notes {
        println!("  # {note}");
    }
    for name in metrics::names(opts.trace) {
        match report.values.get(name) {
            Some(v) => println!(
                "  {name:<38} {v:>16.4} {}",
                metrics::unit_of(name).unwrap_or("")
            ),
            None => println!("  {name:<38} {:>16}", "not measured"),
        }
    }
    for what in &report.warnings {
        println!("  WARNING (timing, not counted as failed): {what}");
    }
    for why in &report.wrong {
        println!("  FAILED: {why}");
    }
    println!(
        "  attempted {} · failed {} · outputs {}",
        report.attempted,
        report.failed,
        if report.correct() { "correct" } else { "WRONG" }
    );
    println!("{}", report.result_line(opts.trace).render());
    report.correct()
}

/// The traced run: the workload untraced, then with a `Registry`
/// attached and spans kept, then untraced again — `obs.overhead_pct`
/// compares the traced pass with the mean of the two around it, which
/// cancels a process that is still warming up — and then the depth
/// ladder for every per-layer metric.
fn traced(sc: &Scenario, cfg: &RunCfg, opts: &Opts) -> Report {
    let pass = RunCfg {
        seconds: cfg.seconds * TRACE_PASS_SHARE,
        single_round: true,
        ..cfg.clone()
    };
    let before = run_workload(sc, &pass, None);
    let mut tracer = Tracer::default();
    let with_obs = run_workload(
        sc,
        &RunCfg {
            traced: true,
            ..pass.clone()
        },
        Some(&mut tracer),
    );
    let after = run_workload(sc, &pass, None);

    let mut report = ladder::run(sc, cfg);
    let rate = |r: &Report| r.values["updates_per_s"];
    let plain = (rate(&before) + rate(&after)) / 2.0;
    report.set(
        "obs.overhead_pct",
        (plain - rate(&with_obs)) / plain * 100.0,
    );
    report.note(format!(
        "updates_per_s untraced {:.0}, traced {:.0}, untraced {:.0} (each {:.1} s of the workload)",
        rate(&before),
        rate(&with_obs),
        rate(&after),
        pass.seconds
    ));
    match tracer.write(&out_dir(opts), sc.name) {
        Ok(path) => report.note(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => report.fail(format!("could not write the trace: {e}")),
    }
    for part in [before, with_obs, after] {
        report.attempted += part.attempted;
        report.failed += part.failed;
        report.wrong.extend(part.wrong);
        report.warnings.extend(part.warnings);
    }
    report
}

/// One child's parsed result.
struct ChildResult {
    workload: &'static str,
    ok: bool,
    line: Option<Json>,
}

fn spawn(sc: &'static Scenario, opts: &Opts, trace: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", sc.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir(opts))
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if opts.corrupt {
        cmd.arg("--corrupt-oracle");
    }
    let output = cmd.output().expect("workload child starts");
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let line = text.lines().last().and_then(|l| Json::parse(l).ok());
    ChildResult {
        workload: sc.name,
        ok: output.status.success() && line.is_some(),
        line,
    }
}

/// Runs the picked workload (or all), each in a child process.
fn parent(opts: &Opts, picked: Option<&'static Scenario>, trace: bool) -> (Vec<ChildResult>, bool) {
    let list: Vec<&'static Scenario> = match picked {
        Some(sc) => vec![sc],
        None => scenario::ALL.to_vec(),
    };
    let results: Vec<ChildResult> = list.into_iter().map(|sc| spawn(sc, opts, trace)).collect();
    let ok = results.iter().all(|r| r.ok);
    for r in &results {
        println!("{:<16} {}", r.workload, if r.ok { "ok" } else { "FAILED" });
    }
    if trace {
        println!(
            "(should read 0 in the open-loop pass, else printed as a warning: {})",
            SHOULD_BE_ZERO.join(", ")
        );
    }
    (results, ok)
}

fn metric_of(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Two full sets of `run` on the same code, compared against the
/// bounds; the comparison is written to `BASELINE_seed<N>.json`.
fn aa(opts: &Opts) -> bool {
    let (first, ok_a) = parent(opts, None, false);
    let (second, ok_b) = parent(opts, None, false);
    let mut ok = ok_a && ok_b;
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        let (Some(la), Some(lb)) = (&a.line, &b.line) else {
            continue;
        };
        for (name, unit, better, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (metric_of(la, name), metric_of(lb, name)) else {
                ok = false;
                continue;
            };
            // By how much the second set is worse than the first.
            let worse = match better {
                Better::Lower => vb / va - 1.0,
                Better::Higher => 1.0 - vb / va,
            };
            let within = worse <= bound;
            ok &= within;
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}%{}",
                a.workload,
                name,
                va,
                vb,
                worse * 100.0,
                bound * 100.0,
                if within { "" } else { "  OUTSIDE BOUND" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(a.workload)),
                ("metric", Json::str(name)),
                ("unit", Json::str(unit)),
                ("better", Json::str(better.word())),
                ("bound", Json::Num(bound)),
                ("first", Json::Num(va)),
                ("second", Json::Num(vb)),
                ("second_worse_by", Json::Num(worse)),
                ("within_bound", Json::Bool(within)),
            ]));
        }
    }
    let doc = Json::obj([
        ("command", Json::str("cqbench aa")),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        (
            "cpus",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("agree_within_bounds", Json::Bool(ok)),
        ("rows", Json::Arr(rows)),
    ]);
    let dir = out_dir(opts);
    let path = dir.join(format!("BASELINE_seed{}.json", opts.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render_lines())) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "A/A {}",
        if ok {
            "agrees within every bound"
        } else {
            "DISAGREES"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The whole path — generators, every stack, both modes, checks,
    /// result line — at tiny operation counts, so it stays compiled and
    /// green. Seed 2: a seed the rates were not frozen on must run clean.
    #[test]
    fn smoke_every_workload_both_modes() {
        // Traces land beside the test executable, inside the build
        // directory.
        let out = out_dir(&parse(&[]).expect("no arguments parse"));
        for sc in scenario::ALL {
            let trace_file = out.join(format!("TRACE_{}.json", sc.name));
            std::fs::remove_file(&trace_file).ok();
            for trace in ["0", "1"] {
                let ok = main(&args(&[
                    "--workload",
                    sc.name,
                    "--seed",
                    "2",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ]));
                assert_eq!(ok, Ok(true), "{} --trace {trace}", sc.name);
            }
            assert!(trace_file.exists(), "{}", trace_file.display());
        }
    }

    /// A deliberately corrupted expectation must fail the run.
    #[test]
    fn corrupted_oracle_fails_the_run() {
        let ok = main(&args(&[
            "--workload",
            "session_mixed",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
            "--corrupt-oracle",
        ]));
        assert_eq!(ok, Ok(false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(main(&args(&["--workload", "nope", "--trace", "0"])).is_err());
        assert!(main(&args(&["--trace", "0"])).is_err());
        assert!(main(&args(&["--workload", "full_stack", "--trace", "2"])).is_err());
        assert!(main(&args(&["--workload", "full_stack", "--seconds", "0"])).is_err());
        assert!(main(&args(&["frobnicate"])).is_err());
    }
}
