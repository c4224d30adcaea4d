//! Spans around the program's public calls, recorded by the benchmark.
//!
//! A span is `name, start, end, parent`, and the spans of one request
//! share an identifier (the commit's seq, or a block index for the bare
//! engine). Spans are kept in memory and written to
//! `TRACE_<workload>.json` when the workload ends; spans *inside* the
//! program are a later change. The timed loops keep start/end stamps of
//! every call anyway, so recording is two stores per call — the traced
//! run's extra cost is the attached `Registry`, which is what
//! `obs.overhead_pct` reports.

use crate::json::Json;
use std::path::Path;

/// Requests whose spans are kept per workload; later ones are counted
/// but dropped, so a long run does not write a hundred-megabyte trace.
const MAX_REQUESTS: usize = 4096;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `submit`, `ack`, `deliver`, `watermark`, `pin`, `count`,
    /// `enumerate`, `checkpoint` or `recover`.
    pub name: &'static str,
    /// Identifier shared by the spans of one request.
    pub id: u64,
    /// Name of the causing span within the same request (`submit`), if
    /// any.
    pub parent: Option<&'static str>,
    /// Start, in nanoseconds on the process clock.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// In-memory span store.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    requests: usize,
    dropped: usize,
}

impl Tracer {
    /// Opens a request: returns whether its spans will be kept.
    pub fn admit(&mut self) -> bool {
        self.requests += 1;
        if self.requests > MAX_REQUESTS {
            self.dropped += 1;
            return false;
        }
        true
    }

    /// Records a span.
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Records one commit's spans: `submit` covers the whole request
    /// (submission to the last consumer), `ack`, `deliver` and
    /// `watermark` are its children, each ending when that stage was
    /// observed.
    pub fn commit(
        &mut self,
        id: u64,
        submit_ns: u64,
        ack_ns: u64,
        deliver_ns: Option<u64>,
        watermark_ns: Option<u64>,
    ) {
        if !self.admit() {
            return;
        }
        let end = ack_ns
            .max(deliver_ns.unwrap_or(0))
            .max(watermark_ns.unwrap_or(0));
        self.span("submit", id, None, submit_ns, end);
        self.span("ack", id, Some("submit"), submit_ns, ack_ns);
        if let Some(t) = deliver_ns {
            self.span("deliver", id, Some("submit"), submit_ns, t);
        }
        if let Some(t) = watermark_ns {
            self.span("watermark", id, Some("submit"), submit_ns, t);
        }
    }

    /// Takes over the spans another thread recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.requests += other.requests;
        self.dropped += other.dropped;
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `TRACE_<workload>.json` into `dir`.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<std::path::PathBuf> {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("id", Json::Num(s.id as f64)),
                ("parent", s.parent.map_or(Json::Null, Json::str)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
        });
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            ("requests", Json::Num(self.requests as f64)),
            ("requests_dropped", Json::Num(self.dropped as f64)),
            ("spans", Json::Arr(spans.collect())),
        ]);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("TRACE_{workload}.json"));
        std::fs::write(&path, doc.render() + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_spans_share_an_id_and_hang_off_submit() {
        let mut t = Tracer::default();
        t.commit(42, 100, 150, Some(300), Some(250));
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.id)).collect();
        assert_eq!(
            names,
            vec![
                ("submit", None, 42),
                ("ack", Some("submit"), 42),
                ("deliver", Some("submit"), 42),
                ("watermark", Some("submit"), 42),
            ]
        );
        assert_eq!((t.spans[0].start_ns, t.spans[0].end_ns), (100, 300));
    }

    #[test]
    fn keeps_a_bounded_number_of_requests() {
        let mut t = Tracer::default();
        for i in 0..(MAX_REQUESTS as u64 + 10) {
            t.commit(i, 0, 1, None, None);
        }
        assert_eq!(t.len(), 2 * MAX_REQUESTS);
        assert_eq!(t.dropped, 10);
    }
}
