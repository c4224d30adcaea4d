//! The four workloads and what they share: the run configuration, the
//! frozen operation rates, and small measuring helpers.

pub mod durable_sharded;
pub mod engine_floor;
pub mod full_stack;
pub mod session_mixed;

use crate::metrics::{self, Report};
use crate::scenario::{Inputs, Scenario};
use crate::stack::now_ns;
use crate::stats;
use crate::trace::Tracer;
use cq_updates::prelude::*;
use std::time::{Duration, Instant};

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phases, in seconds. Every phase performs a
    /// fixed number of operations — its frozen rate times this — so two
    /// builds of the program do the same work and a faster one simply
    /// finishes sooner.
    pub seconds: f64,
    /// Tiny scale and operation counts (the `--smoke` test).
    pub smoke: bool,
    /// Attach a `Registry` to every layer that takes one.
    pub traced: bool,
    /// Corrupt the expected results, to prove a wrong answer fails.
    pub corrupt: bool,
    /// Run one round instead of the scenario's own number of
    /// independent rounds. Each round builds a fresh stack, runs
    /// `seconds / rounds` of the timed phases on it, recovers and checks;
    /// every metric is the better-side quartile over the rounds
    /// (`stats::better_quartile`). A stack's memory layout and thread
    /// placement give each round a "personality" that more time on the
    /// same stack does not average out; fresh stacks do.
    pub single_round: bool,
    /// Wall-clock instant after which timed loops stop early, so a badly
    /// regressed program still ends inside the driver's time limit.
    pub deadline: Instant,
}

impl RunCfg {
    /// Operations for a phase with the given frozen per-second rate,
    /// rounded up to a multiple of `multiple`.
    pub fn ops(&self, per_second: f64, multiple: usize) -> usize {
        let ops = if self.smoke {
            multiple as f64 * 2.0
        } else {
            per_second * self.seconds
        };
        (ops / multiple as f64).ceil().max(1.0) as usize * multiple
    }

    /// Whether the safety deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// The scale inputs are generated at.
    pub fn scale(&self, sc: &Scenario) -> usize {
        if self.smoke {
            sc.small_scale
        } else {
            sc.scale
        }
    }

    /// Generates a scenario's inputs and checks the pinned fingerprint.
    pub fn inputs(&self, sc: &Scenario, report: &mut Report) -> Inputs {
        let scale = self.scale(sc);
        let inputs = sc.inputs(scale, sc.steps_at(scale), self.seed);
        report.note(format!(
            "script: {} preload + {} forward updates, fingerprint {:#018x}",
            inputs.script.preload.len(),
            inputs.script.forward.len(),
            inputs.script.fingerprint
        ));
        if self.seed == 1 && !self.smoke {
            report.check(inputs.script.fingerprint == sc.fingerprint_seed1, || {
                format!(
                    "{}: seed-1 script fingerprint is {:#018x}, pinned {:#018x} — the generator drifted",
                    sc.name, inputs.script.fingerprint, sc.fingerprint_seed1
                )
            });
        }
        for ((name, _, kind), want) in inputs.queries.iter().zip(sc.kinds) {
            report.check(kind == want, || {
                format!(
                    "{name} is routed to {} but the workload expects {}",
                    kind.name(),
                    want.name()
                )
            });
        }
        inputs
    }
}

/// Runs `f` `reps` times; returns the median duration in seconds and the
/// last value built (earlier ones are dropped before the next is made,
/// so repetitions do not stack up in memory). Set-up and recovery last
/// tens of milliseconds on the small workloads: one sample per round
/// would leave their medians at the mercy of a single page-fault storm.
pub fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&secs), last.expect("at least one repetition"))
}

/// Runs a workload as independent rounds and reports, for
/// every metric, the better-side quartile over the rounds. `round` fills a fresh
/// [`Report`] with one round's metrics, checks and failure counts.
pub fn run_rounds(
    sc: &Scenario,
    cfg: &RunCfg,
    mut tracer: Option<&mut Tracer>,
    mut round: impl FnMut(&RunCfg, &Inputs, &mut Report, Option<&mut Tracer>),
) -> Report {
    let mut report = Report::default();
    let inputs = cfg.inputs(sc, &mut report);
    let rounds = if cfg.single_round { 1 } else { sc.rounds };
    let per_round = RunCfg {
        seconds: cfg.seconds / rounds as f64,
        ..cfg.clone()
    };
    let mut values: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for idx in 0..rounds {
        if idx > 0 && !cfg.smoke {
            std::thread::sleep(Duration::from_secs_f64(sc.round_gap_s));
        }
        let mut one = Report::default();
        round(&per_round, &inputs, &mut one, tracer.as_deref_mut());
        for (name, v) in &one.values {
            // The high-water mark never comes down: from the second round
            // on it would include the first round's oracle (an independent
            // database and sorted copies of every result). Each round
            // reads it before building its oracle; only the first counts.
            if name == "peak_rss_mb" && idx > 0 {
                continue;
            }
            values.entry(name.clone()).or_default().push(*v);
        }
        report.attempted += one.attempted;
        report.failed += one.failed;
        report
            .wrong
            .extend(one.wrong.into_iter().map(|w| format!("round {idx}: {w}")));
        report.warnings.extend(
            one.warnings
                .into_iter()
                .map(|w| format!("round {idx}: {w}")),
        );
        if idx + 1 == rounds {
            report
                .notes
                .extend(one.notes.into_iter().map(|n| format!("last round: {n}")));
        }
    }
    for (name, per_round) in values {
        let shown: Vec<String> = per_round.iter().map(|v| format!("{v:.4}")).collect();
        report.note(format!("{name} by round: {}", shown.join(", ")));
        report.set(
            &name,
            stats::better_quartile(&per_round, metrics::higher_is_better(&name)),
        );
    }
    report
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Read-side probe results shared by the workloads that read after
/// their write phase: median `count()`, per-tuple enumeration delay and
/// pin-and-count cost, all in nanoseconds.
#[derive(Default)]
pub struct ReadProbe {
    /// One `count()` call.
    pub count_ns: Vec<f64>,
    /// Delay between consecutive enumerated tuples (iterator
    /// construction charged to the first).
    pub enum_delay_ns: stats::NsHist,
    /// One pin plus `count()`.
    pub pin_ns: Vec<f64>,
}

/// Tuples enumerated per read round by the session-level workloads.
pub const ENUM_TUPLES: usize = 256;
/// `count()` calls per timed block.
pub const COUNT_BLOCK: usize = 1024;
/// Pins per timed block.
pub const PIN_BLOCK: usize = 256;

impl ReadProbe {
    /// One read round against a session-level read surface: `pin()`
    /// yields a fresh snapshot.
    pub fn round(
        &mut self,
        tracer: &mut Option<&mut Tracer>,
        id: u64,
        pin: impl Fn() -> QuerySnapshot,
    ) {
        let t0 = now_ns();
        let mut acc = 0u64;
        for _ in 0..PIN_BLOCK {
            acc = acc.wrapping_add(std::hint::black_box(pin()).count());
        }
        let t1 = now_ns();
        self.pin_ns.push((t1 - t0) as f64 / PIN_BLOCK as f64);

        let snap = pin();
        for _ in 0..COUNT_BLOCK {
            acc = acc.wrapping_add(std::hint::black_box(&snap).count());
        }
        let t2 = now_ns();
        std::hint::black_box(acc);
        self.count_ns.push((t2 - t1) as f64 / COUNT_BLOCK as f64);

        let mut last = now_ns();
        let t3 = last;
        let mut it = snap.enumerate();
        for _ in 0..ENUM_TUPLES {
            if std::hint::black_box(it.next()).is_none() {
                break;
            }
            let now = now_ns();
            self.enum_delay_ns.record(now - last);
            last = now;
        }
        if let Some(t) = tracer {
            if t.admit() {
                t.span("pin", id, None, t0, t1);
                t.span("count", id, None, t1, t2);
                t.span("enumerate", id, None, t3, last);
            }
        }
    }

    /// Stores the three read metrics.
    pub fn report(&self, report: &mut Report) {
        report.set("count_p50_ns", stats::median(&self.count_ns));
        report.set("enum_delay_p50_ns", self.enum_delay_ns.percentile(50.0));
        report.set("pin_read_p50_ns", stats::median(&self.pin_ns));
        note_delay_tail(report, &self.enum_delay_ns);
    }
}

/// Notes the enumeration-delay tail with its sample count.
pub fn note_delay_tail(report: &mut Report, delays: &stats::NsHist) {
    let t = delays.tail();
    report.note(format!(
        "enumeration delay tail: p{} = {:.1} ns (n = {}, each delay includes one clock read)",
        t.pct, t.value, t.n
    ));
}

/// Microseconds from nanoseconds.
pub fn us(ns: f64) -> f64 {
    ns / 1_000.0
}
