//! Timing utilities for the experiment harness.

use cqu_dynamic::{DynamicEngine, Standalone};
use cqu_storage::Update;
use std::time::Instant;

/// Summary statistics over nanosecond samples.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl Stats {
    /// Computes statistics from raw samples.
    pub fn from_samples(mut samples: Vec<u64>) -> Stats {
        assert!(!samples.is_empty());
        samples.sort_unstable();
        let n = samples.len();
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        Stats {
            n,
            mean_ns: sum as f64 / n as f64,
            p50_ns: samples[n / 2],
            p95_ns: samples[(n * 95 / 100).min(n - 1)],
            max_ns: samples[n - 1],
        }
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1000.0
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:>9.2}µs  p50 {:>9.2}µs  p95 {:>9.2}µs  max {:>9.2}µs",
            self.mean_ns / 1e3,
            self.p50_ns as f64 / 1e3,
            self.p95_ns as f64 / 1e3,
            self.max_ns as f64 / 1e3
        )
    }
}

/// A machine-readable per-experiment report: named [`Stats`] rows plus
/// free-form scalar facts, serialized as JSON (hand-rolled — the
/// harness has no serialization dependency) to `BENCH_<EXPERIMENT>.json`.
///
/// Every experiment returns one of these next to its console output, so
/// plots and regression checks consume stable numbers instead of
/// scraping logs:
///
/// ```
/// use cqu_bench::measure::{JsonReport, Stats};
/// let mut report = JsonReport::new("E0");
/// report.add("update", &Stats::from_samples(vec![10, 20, 30]));
/// report.add_fact("steps", 3.0);
/// let json = report.to_json();
/// assert!(json.contains("\"experiment\": \"E0\""));
/// assert!(json.contains("\"p50_ns\": 20"));
/// ```
#[derive(Debug, Clone)]
pub struct JsonReport {
    experiment: String,
    entries: Vec<(String, Stats)>,
    facts: Vec<(String, f64)>,
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl JsonReport {
    /// A fresh report for `experiment` (e.g. `"E16"` — names the output
    /// file `BENCH_E16.json`).
    pub fn new(experiment: &str) -> JsonReport {
        JsonReport {
            experiment: experiment.to_string(),
            entries: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Adds a named statistics row (median/p95/mean/max over samples).
    pub fn add(&mut self, name: &str, stats: &Stats) -> &mut Self {
        self.entries.push((name.to_string(), *stats));
        self
    }

    /// Adds a named scalar (a ratio, a count, a derived percentage).
    pub fn add_fact(&mut self, name: &str, value: f64) -> &mut Self {
        self.facts.push((name.to_string(), value));
        self
    }

    /// The experiment id this report was opened with.
    pub fn id(&self) -> &str {
        &self.experiment
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.facts.is_empty()
    }

    /// The scalar recorded under `name`, if any.
    pub fn fact(&self, name: &str) -> Option<f64> {
        let (_, value) = self.facts.iter().find(|(n, _)| n == name)?;
        Some(*value)
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            json_escape(&self.experiment)
        ));
        out.push_str("  \"entries\": {\n");
        for (i, (name, s)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{}\": {{ \"n\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {} }}{comma}\n",
                json_escape(name), s.n, s.mean_ns, s.p50_ns, s.p95_ns, s.max_ns
            ));
        }
        out.push_str("  },\n");
        out.push_str("  \"facts\": {\n");
        for (i, (name, v)) in self.facts.iter().enumerate() {
            let comma = if i + 1 < self.facts.len() { "," } else { "" };
            out.push_str(&format!("    \"{}\": {v}{comma}\n", json_escape(name)));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Writes `BENCH_<EXPERIMENT>.json` into `CQ_BENCH_JSON_DIR` (or the
    /// current directory when unset) and returns the path. Errors are
    /// returned, not panicked — a read-only checkout shouldn't kill a
    /// benchmark run.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var_os("CQ_BENCH_JSON_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("."));
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Times each update individually through `engine`.
pub fn time_updates(engine: &mut Standalone, updates: &[Update]) -> Stats {
    Stats::from_samples(
        updates
            .iter()
            .map(|u| time_ns(|| engine.apply(u)))
            .collect(),
    )
}

/// Times the enumeration delay: per-`next()` latency over at most `limit`
/// tuples (including the first). Returns `None` if the result is empty.
pub fn time_delays(engine: &dyn DynamicEngine, limit: usize) -> Option<Stats> {
    let mut samples = Vec::with_capacity(limit.min(4096));
    // Iterator construction counts towards the first delay — engines that
    // materialise eagerly (recompute) must not get it for free.
    let t_construct = Instant::now();
    let mut iter = engine.enumerate();
    let mut construction = t_construct.elapsed().as_nanos() as u64;
    loop {
        let t0 = Instant::now();
        let item = iter.next();
        let dt = t0.elapsed().as_nanos() as u64 + std::mem::take(&mut construction);
        match item {
            Some(_) => {
                samples.push(dt);
                if samples.len() >= limit {
                    break;
                }
            }
            None => break,
        }
    }
    if samples.is_empty() {
        None
    } else {
        Some(Stats::from_samples(samples))
    }
}

/// Times one call of `f`, in nanoseconds.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> u64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_nanos() as u64
}

/// Times `rounds` calls of `f`, one sample per call.
pub fn time_rounds<T>(rounds: usize, mut f: impl FnMut() -> T) -> Stats {
    Stats::from_samples((0..rounds).map(|_| time_ns(&mut f)).collect())
}

/// Times a single closure.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times `count()` calls, one after each of the given updates.
pub fn time_counts(engine: &mut Standalone, updates: &[Update]) -> (Stats, Stats) {
    let mut update_samples = Vec::with_capacity(updates.len());
    let mut count_samples = Vec::with_capacity(updates.len());
    for u in updates {
        update_samples.push(time_ns(|| engine.apply(u)));
        count_samples.push(time_ns(|| engine.count()));
    }
    (
        Stats::from_samples(update_samples),
        Stats::from_samples(count_samples),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_percentiles() {
        let s = Stats::from_samples((1..=100).collect());
        assert_eq!(s.n, 100);
        assert_eq!(s.p50_ns, 51);
        assert_eq!(s.p95_ns, 96);
        assert_eq!(s.max_ns, 100);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn stats_single_sample() {
        let s = Stats::from_samples(vec![42]);
        assert_eq!(s.p50_ns, 42);
        assert_eq!(s.p95_ns, 42);
        assert_eq!(s.max_ns, 42);
    }

    #[test]
    fn json_report_shape_and_escaping() {
        let mut report = JsonReport::new("E99");
        report.add("commit \"hot\"", &Stats::from_samples(vec![5, 10, 15]));
        report.add_fact("overhead_pct", 2.5);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"E99\""));
        assert!(json.contains("\"commit \\\"hot\\\"\""));
        assert!(json.contains("\"p50_ns\": 10"));
        assert!(json.contains("\"overhead_pct\": 2.5"));
        // Crude balance check: every opened brace closes.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON:\n{json}"
        );
    }
}
