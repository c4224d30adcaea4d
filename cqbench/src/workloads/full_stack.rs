//! `full_stack`: client-submit → subscriber-receives and client-submit →
//! replica-watermark, the ROADMAP's definition of end to end.
//!
//! A leader [`DurableSession`] (single `SharedSession` backend,
//! [`MeteredDisk`](crate::disk::MeteredDisk) with no flush latency,
//! `FsyncPolicy::Never`, so the pipeline is CPU-bound) maintains `feed`
//! (≈10 result rows change per effective update) and `pairs`; a
//! `ServerHandle` serves one TCP `Client` that folds both queries into
//! `Mirror`s, and a `ReplicationServer` feeds one in-process
//! `ReplicaSession` over loopback. The generator is the writer thread
//! plus two observers that sleep until woken: the subscriber thread
//! (blocked in the socket read, it stamps each frame as it arrives) and
//! the watermark watcher (blocked on the replica's condvar).
//!
//! * Phase A, closed loop: commits of 16 back to back; the clock stops
//!   when subscriber **and** replica have reached the head
//!   (`updates_per_s`).
//! * Phase B, **open loop** at a frozen commit rate (about a third of
//!   what phase A sustains on the reference box): commit *i* is due at
//!   `t0 + i/rate` whatever happened to commit *i − 1*, and every
//!   latency — `commit_ack_p50_us`, `delivery_p50_us`,
//!   `watermark_p50_us` — is measured from that due time, so a stall
//!   charges the commits queued behind it. How late the generator ran
//!   is reported beside them; `update_p50_ns` is the call time alone.
//!
//! * Phase C: with both consumers drained, the writer thread reads the
//!   replica — pin, `count()`, enumeration — back to back.
//!
//! `serve`, `repl` and the codecs do most of the work here and none in
//! `engine_floor`; the durable layer runs its `Backend::Single` arm
//! here and its `Backend::Sharded` arm in `durable_sharded`.

use super::{median_timed, peak_rss_mb, run_rounds, us, ReadProbe, RunCfg};
use crate::gen::{oracle_db, Cursor, Shape};
use crate::metrics::Report;
use crate::scenario::{Inputs, Scenario, FULL_STACK};
use crate::stack::{covered_at, now_ns, Served, ServedOpts};
use crate::trace::Tracer;
use crate::{check, stats};
use cq_updates::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Frozen rate of phase A: commits of 16 per second of phase length.
const SATURATION_COMMITS_PER_SECOND: f64 = 970.0;
/// Frozen open-loop rate of phase B, commits per second: about a third
/// of what phase A sustains on the 2-core reference box while it is
/// quiet (700 commits/s; the replica, which copies every component it
/// touches on every commit, sets the pace). In the box's slow spells the
/// replica sustains 270, the open loop is near saturation and that
/// round's `watermark_p50_us` reads fifty times its usual value — the run
/// warns of the backlog and the quartile over the rounds leaves the
/// round out. A lower rate was tried and is worse: at 100 commits/s the cores
/// sleep longer between commits and every latency spreads two to three
/// times as wide from run to run. Never derived at run time — a faster
/// program must show as lower latency at the same offered load, not as
/// a different load.
pub const OPEN_LOOP_COMMITS_PER_SECOND: f64 = 240.0;
/// Commits the closed-loop writer may have in flight: it waits until
/// both consumers hold commit *i − 4* before sending commit *i*.
pub const IN_FLIGHT: usize = 4;
/// Share of `--seconds` given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.4;
/// Consumers that need longer than this to drain after the last
/// open-loop commit had a backlog; the run says so in a warning.
const DRAIN_LIMIT: Duration = Duration::from_millis(250);
/// Frozen rate of phase C: read rounds (pin, `count()`, enumeration)
/// against the replica per second of run length. The reads run back to
/// back once both consumers have drained: between open-loop commits the
/// writer's core has just slept and the replica is copying on the other
/// one, and read times taken there spread three times as wide.
const READ_ROUNDS_PER_SECOND: f64 = 2_500.0;

/// One open- or closed-loop commit as the writer saw it.
#[derive(Debug, Clone, Copy)]
pub struct Commit {
    /// When the commit was due (open loop) or started (closed loop).
    pub due: u64,
    /// When `apply_batch` was called.
    pub sent: u64,
    /// When it returned.
    pub acked: u64,
    /// Leader seq after the commit.
    pub head: u64,
    /// Seq of the delta the followed query published for it, if any.
    pub event: Option<u64>,
    /// Seq of the newest delta published up to and including this
    /// commit: what the subscriber must hold to have caught up with it.
    pub published: u64,
}

/// Waits until `due` on the process clock: sleeps while far, spins when
/// near (a sleep may overshoot by a scheduler tick, a spin does not).
fn wait_until(due: u64) {
    loop {
        let now = now_ns();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 300_000 {
            std::thread::sleep(Duration::from_nanos(left - 200_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The generator's schedule. Closed loop (`period_ns` is `None`): the
/// next operation is due when the previous one returns. Open loop:
/// operation *i* is due at `start + i·period` whatever happened to the
/// ones before it, so after a stall the queued operations are sent late
/// and their latency — measured from the due time — includes the wait
/// the stall imposed on them.
pub struct Pacer {
    start: u64,
    period_ns: Option<u64>,
    issued: u64,
}

impl Pacer {
    /// A schedule starting now.
    pub fn new(period_ns: Option<u64>) -> Pacer {
        Pacer {
            start: now_ns(),
            period_ns,
            issued: 0,
        }
    }

    /// Blocks until the next operation is due; returns `(due, sent)`.
    pub fn next(&mut self) -> (u64, u64) {
        let due = match self.period_ns {
            Some(p) => {
                let due = self.start + self.issued * p;
                wait_until(due);
                due
            }
            None => now_ns(),
        };
        self.issued += 1;
        (due, now_ns())
    }
}

/// How many commits a phase sends, and when.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Commits to send.
    pub commits: usize,
    /// `None`: closed loop, at most [`IN_FLIGHT`] commits ahead of the
    /// consumers. `Some(p)`: open loop, commit *i* is due at
    /// `start + i·p` regardless of how long earlier commits took.
    pub period_ns: Option<u64>,
}

/// Commits one phase through `served`, calling `between(i)` after commit
/// *i* (outside every timed interval).
pub fn drive(
    served: &Served,
    sc: &Scenario,
    cursor: &mut Cursor,
    phase: Phase,
    between: &mut dyn FnMut(usize),
    cfg: &RunCfg,
    report: &mut Report,
) -> Vec<Commit> {
    let Phase {
        commits: count,
        period_ns,
    } = phase;
    let mut commits = Vec::with_capacity(count);
    // An all-effective stream promises that no update is a no-op.
    let strict = matches!(sc.shape, Shape::Effective { .. });
    let mut pacer = Pacer::new(period_ns);
    for i in 0..count {
        if cfg.expired() {
            report.note("safety deadline reached: phase cut short");
            break;
        }
        // Closed loop: a bounded number of commits in flight. A writer
        // that runs arbitrarily far ahead lets the follower apply whole
        // runs of commits at once, and how long those runs get is chaos.
        if period_ns.is_none() && commits.len() >= IN_FLIGHT {
            let behind: &Commit = &commits[commits.len() - IN_FLIGHT];
            if !served.wait_consumers(behind.published, behind.head) {
                report.fail(format!("commit {i}: consumers stopped following"));
                break;
            }
        }
        let batch = cursor.next(sc.batch);
        let (due, sent) = pacer.next();
        let result = served.leader.apply_batch(batch);
        let acked = now_ns();
        report.attempted += 1;
        match result {
            Ok(r) if r.applied == batch.len() || !strict => {}
            Ok(r) => report.fail(format!(
                "commit {i}: {} of {} updates took effect",
                r.applied,
                batch.len()
            )),
            Err(e) => {
                report.fail(format!("commit {i} refused: {e}"));
                continue;
            }
        }
        let mut event = None;
        while let Some(e) = served.events.poll() {
            event = Some(e.seq);
        }
        let published = event
            .or(commits.last().map(|c: &Commit| c.published))
            .unwrap_or(0);
        commits.push(Commit {
            due,
            sent,
            acked,
            head: served.leader.seq().expect("leader seq"),
            event,
            published,
        });
        between(i);
    }
    commits
}

/// Blocks until both consumers hold everything `commits` published.
pub fn drain(served: &Served, commits: &[Commit], report: &mut Report) -> u64 {
    let (event, head) = commits.last().map_or((0, 0), |c| (c.published, c.head));
    if !served.wait_consumers(event, head) {
        report.fail(format!(
            "consumers never reached the head (event seq {event}, seq {head})"
        ));
    }
    now_ns()
}

/// Latencies of open-loop commits against what the observers recorded:
/// per commit `(ack, delivery, watermark)` from the due time, in
/// nanoseconds; delivery only for commits that published a delta.
pub struct Latencies {
    /// Due → acknowledged.
    pub ack: Vec<f64>,
    /// Due → subscriber holds the covering frame.
    pub delivery: Vec<f64>,
    /// Due → replica watermark covers the commit.
    pub watermark: Vec<f64>,
    /// Acknowledged → delivered (signed: the frame may win the race).
    pub delivery_after_ack: Vec<f64>,
    /// Acknowledged → watermark (signed: shipping precedes the apply).
    pub watermark_after_ack: Vec<f64>,
    /// Due → actually sent: how late the generator ran.
    pub late: Vec<f64>,
}

/// Joins the writer's commit log with the observers' trajectories.
pub fn latencies(
    commits: &[Commit],
    arrivals: &[(u64, u64)],
    watermarks: &[(u64, u64)],
    tracer: Option<&mut Tracer>,
) -> Latencies {
    let published: Vec<&Commit> = commits.iter().filter(|c| c.event.is_some()).collect();
    let events: Vec<u64> = published.iter().filter_map(|c| c.event).collect();
    let heads: Vec<u64> = commits.iter().map(|c| c.head).collect();
    let delivered = covered_at(arrivals, &events);
    let applied = covered_at(watermarks, &heads);
    let since = |t: u64, from: u64| t as f64 - from as f64;
    let mut out = Latencies {
        ack: commits.iter().map(|c| since(c.acked, c.due)).collect(),
        late: commits.iter().map(|c| since(c.sent, c.due)).collect(),
        delivery: Vec::new(),
        watermark: Vec::new(),
        delivery_after_ack: Vec::new(),
        watermark_after_ack: Vec::new(),
    };
    for (c, t) in published.iter().zip(&delivered) {
        if let Some(t) = *t {
            out.delivery.push(since(t, c.due));
            out.delivery_after_ack.push(since(t, c.acked));
        }
    }
    for (c, t) in commits.iter().zip(&applied) {
        if let Some(t) = *t {
            out.watermark.push(since(t, c.due));
            out.watermark_after_ack.push(since(t, c.acked));
        }
    }
    if let Some(tracer) = tracer {
        let mut delivered = published.iter().zip(&delivered).peekable();
        for (c, w) in commits.iter().zip(&applied) {
            let d = delivered
                .next_if(|(p, _)| p.head == c.head)
                .and_then(|(_, t)| *t);
            tracer.commit(c.head, c.due, c.acked, d, *w);
        }
    }
    out
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Report {
    run_rounds(&FULL_STACK, cfg, tracer, round)
}

fn round(cfg: &RunCfg, inputs: &Inputs, report: &mut Report, mut tracer: Option<&mut Tracer>) {
    let sc = &FULL_STACK;
    let opts = ServedOpts {
        flush: Duration::ZERO,
        fsync: FsyncPolicy::Never,
        subscriber: true,
        follower: true,
        registry: cfg.traced.then(|| Arc::new(Registry::new())),
    };
    let (setup_s, served) = median_timed(sc.setup_reps, || Served::start(sc, inputs, &opts));
    report.set("setup_s", setup_s);
    report.note(if served.writer_isolated() {
        "writer thread on a CPU of its own; server, replica and observer threads on the others"
    } else {
        "CPU split not available: writer and background threads share every CPU"
    });

    let cycle = inputs.script.cycle(|_| true, sc.batch);
    let mut cursor = Cursor::new(&cycle);

    // Phase A: closed-loop saturation.
    let count_a = cfg.ops(SATURATION_COMMITS_PER_SECOND * PHASE_A_SHARE, 1);
    let phase_a = Phase {
        commits: count_a,
        period_ns: None,
    };
    let a = drive(&served, sc, &mut cursor, phase_a, &mut |_| {}, cfg, report);
    let end_a = drain(&served, &a, report);
    let first = a.first().map_or(end_a, |c| c.sent);
    report.set(
        "updates_per_s",
        (a.len() * sc.batch) as f64 / ((end_a - first) as f64 / 1e9),
    );
    let saturated_ns: Vec<f64> = a.iter().map(|c| (c.acked - c.sent) as f64).collect();
    report.note(format!(
        "phase A: {} commits, {:.0} commits/s to both consumers at the head; writer alone {:.0} commits/s",
        a.len(),
        a.len() as f64 / ((end_a - first) as f64 / 1e9),
        1e9 / stats::median(&saturated_ns)
    ));
    let serve_after_a = served.serve_stats();

    // Phase B: open loop at the frozen rate.
    let count_b = cfg.ops(OPEN_LOOP_COMMITS_PER_SECOND * (1.0 - PHASE_A_SHARE), 1);
    let period = (1e9 / OPEN_LOOP_COMMITS_PER_SECOND) as u64;
    let phase_b = Phase {
        commits: count_b,
        period_ns: Some(period),
    };
    let b = drive(&served, sc, &mut cursor, phase_b, &mut |_| {}, cfg, report);
    let last_ack = b.last().map_or(0, |c| c.acked);
    let drained = drain(&served, &b, report);
    let backlog = Duration::from_nanos(drained.saturating_sub(last_ack));
    report.note(format!("phase B: {} commits at {OPEN_LOOP_COMMITS_PER_SECOND} commits/s; consumers drained {backlog:?} after the last ack", b.len()));
    if backlog > DRAIN_LIMIT {
        report.warn(format!(
            "backlog at the end of phase B: {backlog:?} to drain; its latencies include queueing"
        ));
    }
    let serve_after_b = served.serve_stats();

    // Phase C: reads at the farthest read point, the replica, at rest.
    let replica = Arc::clone(served.replica.as_ref().expect("follower attached"));
    let reader = replica.reader(sc.queries[0].0).expect("query replicated");
    let mut probe = ReadProbe::default();
    for i in 0..cfg.ops(READ_ROUNDS_PER_SECOND, 1) {
        probe.round(&mut tracer, i as u64, || reader.pin());
    }
    probe.report(report);
    drop(reader);

    let done = served.finish();
    let subscribed = done.subscribed.expect("subscriber attached");
    let lat = latencies(
        &b,
        &subscribed.arrivals,
        &done.watermarks,
        tracer.as_deref_mut(),
    );
    // Service time per update at the offered load. Under saturation the
    // writer shares two cores with every consumer thread and its call
    // time is bimodal from run to run; at half load it is not.
    let service_ns: Vec<f64> = b.iter().map(|c| (c.acked - c.sent) as f64).collect();
    report.set(
        "update_p50_ns",
        stats::median(&service_ns) / sc.batch as f64,
    );
    report.set("commit_ack_p50_us", us(stats::median(&lat.ack)));
    report.set("delivery_p50_us", us(stats::median(&lat.delivery)));
    report.set("watermark_p50_us", us(stats::median(&lat.watermark)));
    report.note_tail("phase B ack tail (from due time)", "ns", &lat.ack);
    report.note_tail("phase B delivery tail (from due time)", "ns", &lat.delivery);
    report.note_tail(
        "phase B watermark tail (from due time)",
        "ns",
        &lat.watermark,
    );
    report.note_tail("phase B generator lateness", "ns", &lat.late);

    // Delivery. A lagged or broken subscriber is a failure: its mirror is
    // no longer the leader's state. Coalescing is not — the netted frames
    // stay exact, as the mirror check below proves — but in phase B it
    // means the subscriber stalled for a whole period, so it is flagged.
    if let Some(why) = &subscribed.broken {
        report.fail(format!("subscriber: {why}"));
    }
    if let (Some((sa, _)), Some((sb, _))) = (serve_after_a, serve_after_b) {
        report.note(format!(
            "serve: coalesced {} in phase A, {} in phase B; lagged {}",
            sa.coalesced,
            sb.coalesced - sa.coalesced,
            sb.lagged
        ));
        if sb.coalesced > sa.coalesced {
            report.warn(format!(
                "phase B coalesced {} frames",
                sb.coalesced - sa.coalesced
            ));
        }
    }
    if done.queue_overflows > 0 {
        report.warn(format!(
            "{} replication queue overflows (the follower was dropped and re-attached)",
            done.queue_overflows
        ));
    }
    let b_events: Vec<u64> = b.iter().filter_map(|c| c.event).collect();
    let b_first = b_events.first().copied().unwrap_or(u64::MAX);
    let b_frames: Vec<u64> = subscribed
        .arrivals
        .iter()
        .map(|&(seq, _)| seq)
        .filter(|&seq| seq >= b_first)
        .collect();
    // Every delivered frame must be one the leader published, in order;
    // fewer frames than deltas means some were merged on the way.
    let mut published = b_events.iter();
    report.check(b_frames.iter().all(|f| published.any(|e| e == f)), || {
        "phase B: a delivered frame carries a seq the leader never published".to_string()
    });
    if b_frames.len() != b_events.len() {
        report.warn(format!(
            "phase B: {} frames delivered for {} published deltas (merged frames)",
            b_frames.len(),
            b_events.len()
        ));
    }

    // Recovery: what a restart of the leader costs. `Never` acknowledges
    // before flushing, so flush explicitly, then cut the power.
    let head = done.leader.seq().expect("leader seq");
    done.leader.sync().expect("final sync");
    let t0 = now_ns();
    let (recovery_s, recovered) = median_timed(sc.recovery_reps, || {
        DurableSession::recover(Box::new(done.disk.strict_view()), DurableOptions::default())
    });
    if let Some(t) = tracer {
        t.span("recover", head, None, t0, now_ns());
    }
    report.set("recovery_s", recovery_s);
    report.set("peak_rss_mb", peak_rss_mb());

    // Output checks at the head seq: mirror = leader = replica =
    // recovered leader = recompute.
    let oracle = oracle_db(&inputs.schema, &inputs.script.preload, &[cursor]);
    let want = check::expected(inputs, &oracle, cfg.corrupt);
    check::all_queries(report, "leader", inputs, &want, |name| {
        check::of_snapshot(&done.leader.snapshot(name).expect("query exists"))
    });
    check::all_queries(report, "replica", inputs, &want, |name| {
        check::of_snapshot(&replica.snapshot(name).expect("query replicated"))
    });
    for ((name, mirror), want) in subscribed.mirrors.iter().zip(&want) {
        check::rows(
            report,
            "subscriber mirror",
            name,
            mirror.rows().len() as u64,
            &mirror.rows_sorted(),
            want,
        );
    }
    report.check(replica.applied_seq() == head, || {
        format!("replica at seq {}, leader at {head}", replica.applied_seq())
    });
    match recovered {
        Ok(back) => {
            report.check(back.seq().ok() == Some(head), || {
                format!(
                    "recovered leader at seq {:?}, leader at {head}",
                    back.seq().ok()
                )
            });
            check::all_queries(report, "recovered leader", inputs, &want, |name| {
                check::of_snapshot(&back.snapshot(name).expect("query exists"))
            });
        }
        Err(e) => report.fail(format!("recovery from the strict view failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An injected stall must show up in the latency of the operations
    /// queued behind it (coordinated omission), and as generator
    /// lateness — not vanish because the generator politely waited.
    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let period = 1_000_000; // 1 ms
        let stall = Duration::from_millis(6);
        let mut pacer = Pacer::new(Some(period));
        let mut ops = Vec::new();
        for i in 0..10 {
            let (due, sent) = pacer.next();
            if i == 2 {
                std::thread::sleep(stall);
            }
            ops.push((due, sent, now_ns()));
        }
        // Due times are on the fixed schedule, stall or not.
        for w in ops.windows(2) {
            assert_eq!(w[1].0 - w[0].0, period);
        }
        // Operations 3 and 4 were due during the stall: sent late, and
        // their latency from the due time carries the wait even though
        // they themselves took microseconds.
        for &(due, sent, done) in &ops[3..5] {
            assert!(sent - due >= 3_000_000, "late by {} ns", sent - due);
            assert!(done - due >= 3_000_000);
            assert!(done - sent < 1_000_000, "the call itself was quick");
        }
        // The generator catches up; a later operation is on time again.
        let (due, sent, _) = ops[9];
        assert!(sent - due < 500_000, "still {} ns late", sent - due);
        // Closed loop: never late by construction.
        let mut closed = Pacer::new(None);
        let (due, sent) = closed.next();
        assert!(sent - due < 100_000);
    }
}
