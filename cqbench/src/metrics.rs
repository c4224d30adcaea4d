//! The metric catalogue (mirrored by `BENCHMARK.json`; a test keeps the
//! two identical) and the [`Report`] a run fills in.

use crate::json::Json;
use crate::stats::{self, Tail};
use std::collections::BTreeMap;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `(name, unit, direction, bound)`. The bound is
/// the share of the baseline median by which the metric may get worse
/// before it counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 11] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("updates_per_s", "1/s", Better::Higher, 0.25),
    ("update_p50_ns", "ns", Better::Lower, 0.25),
    ("count_p50_ns", "ns", Better::Lower, 0.25),
    ("enum_delay_p50_ns", "ns", Better::Lower, 0.25),
    ("commit_ack_p50_us", "us", Better::Lower, 0.25),
    ("pin_read_p50_ns", "ns", Better::Lower, 0.25),
    ("delivery_p50_us", "us", Better::Lower, 0.25),
    ("watermark_p50_us", "us", Better::Lower, 0.25),
    ("recovery_s", "s", Better::Lower, 0.25),
    ("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

/// A per-layer metric: `(name, unit, direction)`. No bound: these
/// explain a movement, they do not gate one.
pub const PER_LAYER: [(&str, &str, Better); 50] = [
    ("storage.apply_ns", "ns", Better::Lower),
    ("dynamic.apply_ns", "ns", Better::Lower),
    ("dynamic.apply_p99_ns", "ns", Better::Lower),
    ("dynamic.work_per_update", "count", Better::Lower),
    ("dynamic.flatness_ratio", "ratio", Better::Lower),
    ("dynamic.preprocess_ns_per_tuple", "ns", Better::Lower),
    ("dynamic.enum_first_ns", "ns", Better::Lower),
    ("baseline.ivm_apply_ns", "ns", Better::Lower),
    ("session.batch_self_ns", "ns", Better::Lower),
    ("session.shared_self_ns", "ns", Better::Lower),
    ("session.noop_share", "ratio", Better::Lower),
    ("session.commit_p99_us", "us", Better::Lower),
    ("session.pin_p99_ns", "ns", Better::Lower),
    ("session.pinned_commit_ratio", "ratio", Better::Lower),
    ("shard.route_self_ns", "ns", Better::Lower),
    ("shard.scaling_2w", "ratio", Better::Higher),
    ("shard.lock_wait_mean_ns", "ns", Better::Lower),
    ("durable.commit_self_ns", "ns", Better::Lower),
    ("durable.scaling_2w", "ratio", Better::Higher),
    ("durable.commit_ack_p99_us", "us", Better::Lower),
    ("wal.append_ns_per_commit", "ns", Better::Lower),
    ("wal.fsync_ns_per_commit", "ns", Better::Lower),
    ("wal.fsyncs_per_commit", "ratio", Better::Lower),
    ("wal.bytes_per_update", "B", Better::Lower),
    ("wal.checkpoint_s", "s", Better::Lower),
    ("wal.recover_tail_s", "s", Better::Lower),
    ("wal.recover_ckpt_s", "s", Better::Lower),
    ("wal.rec_frame_ns", "ns", Better::Lower),
    ("wal.rec_decode_ns", "ns", Better::Lower),
    ("disk.appends", "count", Better::Lower),
    ("disk.append_bytes", "B", Better::Lower),
    ("disk.syncs", "count", Better::Lower),
    ("disk.sync_wait_s", "s", Better::Lower),
    ("serve.delivery_after_ack_p50_us", "us", Better::Lower),
    ("serve.delivery_after_ack_p99_us", "us", Better::Lower),
    ("serve.subscriber_commit_overhead_ns", "ns", Better::Lower),
    ("serve.encode_ns_per_frame", "ns", Better::Lower),
    ("serve.decode_ns_per_frame", "ns", Better::Lower),
    ("serve.mirror_apply_ns", "ns", Better::Lower),
    ("serve.bytes_per_update", "B", Better::Lower),
    ("serve.frames_per_commit", "ratio", Better::Lower),
    ("serve.delta_rows_per_update", "ratio", Better::Lower),
    ("repl.watermark_after_ack_p50_us", "us", Better::Lower),
    ("repl.watermark_after_ack_p99_us", "us", Better::Lower),
    ("repl.ship_self_ns_per_commit", "ns", Better::Lower),
    ("repl.records_encode_ns", "ns", Better::Lower),
    ("repl.records_decode_ns", "ns", Better::Lower),
    ("repl.catchup_s", "s", Better::Lower),
    ("gen.late_p99_us", "us", Better::Lower),
    ("obs.overhead_pct", "%", Better::Lower),
];

/// Counters printed by the traced run that should read 0 in the
/// open-loop pass; a non-zero value is printed as a warning (it depends on
/// thread scheduling), and they are not gated as metrics because a gated
/// metric must never be 0.
pub const SHOULD_BE_ZERO: [&str; 3] = ["serve.coalesced", "serve.lagged", "repl.queue_overflows"];

/// Names of the per-layer or of the end-to-end metrics, in catalogue
/// order.
pub fn names(per_layer: bool) -> Vec<&'static str> {
    if per_layer {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}

/// Whether a catalogued end-to-end metric improves upwards.
pub fn higher_is_better(name: &str) -> bool {
    END_TO_END
        .iter()
        .any(|m| m.0 == name && m.2 == Better::Higher)
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Free-form context lines (tails with their sample counts, ladder
    /// rungs, counters) printed above the result line.
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold.
    pub wrong: Vec<String>,
    /// Timing conditions worth knowing about (see [`Report::warn`]).
    pub warnings: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Notes a tail percentile with the sample count that supports it.
    pub fn note_tail(&mut self, what: &str, unit: &str, samples: &[f64]) -> Tail {
        let t = stats::tail(&stats::sorted(samples.to_vec()), 99.99);
        self.note(format!(
            "{what}: p{} = {:.3} {unit} (n = {})",
            t.pct, t.value, t.n
        ));
        t
    }

    /// Notes a condition that depends on how the host schedules the
    /// run's threads — a backlog, a coalesced frame — and not on what
    /// the program computed. It is printed, not counted: on a shared box
    /// a neighbour can cause it, and the output checks still decide
    /// whether the run was correct.
    pub fn warn(&mut self, line: impl Into<String>) {
        self.warnings.push(line.into());
    }

    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.wrong.push(why.into());
    }

    /// Whether every output check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.failed == 0
    }

    /// The one-line result object: exactly the catalogued metrics of
    /// the chosen kind, each with value and unit.
    pub fn result_line(&self, per_layer: bool) -> Json {
        let metrics = names(per_layer).into_iter().map(|name| {
            let value = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("run did not measure {name}"));
            let unit = unit_of(name).expect("catalogued");
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(scenario::ALL.iter().map(|s| (s.name, "count")))
            .chain(SHOULD_BE_ZERO.iter().map(|n| (*n, "count")));
        for (name, unit) in all {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for s in scenario::ALL {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", Better::Lower));
        for m in END_TO_END {
            assert!(m.3 > 0.0 && m.3 <= 0.25 && m.3 <= setup.3, "{}", m.0);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what
    /// the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expect: Vec<(String, String)> = scenario::ALL
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, expect);

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(
                    m.as_obj().unwrap().len(),
                    4,
                    "exactly name/unit/better/bound"
                );
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let expect: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.word().into(), m.3))
            .collect();
        assert_eq!(e2e, expect);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(m.as_obj().unwrap().len(), 3, "exactly name/unit/better");
                (field(m, "name"), field(m, "unit"), field(m, "better"))
            })
            .collect();
        let expect: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.word().into()))
            .collect();
        assert_eq!(layers, expect);

        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths, [Json::str("cqbench")]);
        let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
