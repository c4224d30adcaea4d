//! `session_mixed`: an in-memory [`SharedSession`] — no WAL, no sockets —
//! with two q-hierarchical queries and one the classifier routes to
//! delta-IVM, each with an in-process [`Subscription`].
//!
//! Thread 1 commits `apply_batch` of 32 from a `random_updates`-shaped
//! stream (no-ops and cancelling pairs included), drains its
//! subscriptions after every commit (`delivery_p50_us`: commit start to
//! the writer holding the followed query's event) and, every second
//! commit, pins through the lock (`watermark_p50_us`: commit start to a
//! snapshot that reflects it). Thread 2 holds a [`PinReader`] and loops
//! pin → `count()` → enumerate 256, one round per commit it sees,
//! **retaining a pin across every 64 commits** — which is what forces
//! the writer into component copy-on-write. Session dispatch, netting,
//! epoch publication and delta-IVM do most of the work, and `dynamic` is
//! used differently from `engine_floor`: a gain for writers that costs
//! readers shows here.

use super::{median_timed, peak_rss_mb, run_rounds, us, ReadProbe, RunCfg};
use crate::gen::{oracle_db, Cursor};
use crate::metrics::Report;
use crate::scenario::{Inputs, SESSION_MIXED};
use crate::stack::{build_session, load, now_ns};
use crate::trace::Tracer;
use crate::{check, stats};
use cq_updates::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Frozen rate: commits of 32 per second of run length.
const COMMITS_PER_SECOND: f64 = 115.0;
/// Commits a reader pin is retained across.
const RETAIN_COMMITS: usize = 64;
/// The writer pins through the lock every this many commits.
const VISIBLE_EVERY: usize = 2;

fn build(
    cfg_registry: Option<&Arc<Registry>>,
    preload: &[Update],
) -> (SharedSession, Vec<Subscription>) {
    let sc = &SESSION_MIXED;
    let mut session = build_session(sc, cfg_registry);
    load(preload, |chunk| {
        session.apply_batch(chunk).expect("preload applies");
    });
    let shared = SharedSession::new(session);
    let subs = sc
        .queries
        .iter()
        .map(|(name, _)| shared.subscribe(name).expect("query exists"))
        .collect();
    (shared, subs)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Report {
    run_rounds(&SESSION_MIXED, cfg, tracer, round)
}

fn round(cfg: &RunCfg, inputs: &Inputs, report: &mut Report, mut tracer: Option<&mut Tracer>) {
    let sc = &SESSION_MIXED;
    let registry = cfg.traced.then(|| Arc::new(Registry::new()));
    let followed = sc.queries[0].0;

    let (setup_s, (shared, subs)) = median_timed(sc.setup_reps, || {
        build(registry.as_ref(), &inputs.script.preload)
    });
    report.set("setup_s", setup_s);
    crate::stack::assert_schema(inputs, |n| shared.relation(n).ok());

    let cycle = inputs.script.cycle(|_| true, sc.batch);
    let commits = cfg.ops(COMMITS_PER_SECOND, RETAIN_COMMITS);
    let committed = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let mut cursor = Cursor::new(&cycle);
    let (mut commit_ns, mut deliver_ns, mut visible_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut total, mut applied) = (0usize, 0usize);
    let mut wall_ns = 0u64;

    let (probe, read_spans) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let reader = shared.reader(followed).expect("query exists");
            let mut probe = ReadProbe::default();
            let mut held = reader.pin();
            let (mut held_at, mut seen) = (0usize, 0usize);
            let mut spans = Tracer::default();
            let mut local = cfg.traced.then_some(&mut spans);
            // Acquire pairs with the writer's Release stores: a round
            // never starts before the commit it counts has published.
            while !writer_done.load(Ordering::Acquire) {
                let now = committed.load(Ordering::Acquire);
                if now == seen {
                    std::hint::spin_loop();
                    continue;
                }
                seen = now;
                probe.round(&mut local, seen as u64, || reader.pin());
                if seen - held_at >= RETAIN_COMMITS {
                    held = reader.pin();
                    held_at = seen;
                }
            }
            drop(held);
            (probe, spans)
        });

        let started = now_ns();
        for i in 0..commits {
            if cfg.expired() {
                report.note("safety deadline reached: timed phase cut short");
                break;
            }
            let batch = cursor.next(sc.batch);
            let t0 = now_ns();
            let result = shared.apply_batch(batch);
            let t1 = now_ns();
            committed.store(i + 1, Ordering::Release);
            report.attempted += 1;
            let head = match result {
                Ok(r) => {
                    total += r.total;
                    applied += r.applied;
                    commit_ns.push((t1 - t0) as f64);
                    r.applied
                }
                Err(e) => {
                    report.fail(format!("commit {i} refused: {e}"));
                    continue;
                }
            };
            let mut delivered = None;
            for (qi, sub) in subs.iter().enumerate() {
                while let Some(event) = sub.poll() {
                    if qi == 0 {
                        delivered = Some(event.seq);
                    }
                }
            }
            let t2 = now_ns();
            if delivered.is_some() {
                deliver_ns.push((t2 - t0) as f64);
            }
            let mut t3 = None;
            if head > 0 && i % VISIBLE_EVERY == 0 {
                let seq = shared.read(|s| s.seq()).expect("session readable");
                let snap = shared.snapshot(followed).expect("query exists");
                let t = now_ns();
                report.check(snap.seq() >= seq, || {
                    format!(
                        "pin after commit {i} is at seq {}, session at {seq}",
                        snap.seq()
                    )
                });
                // Commit plus pin; the subscription drain between them is
                // the delivery probe's, not this one's.
                visible_ns.push(((t1 - t0) + (t - t2)) as f64);
                t3 = Some(t);
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.commit(i as u64, t0, t1, delivered.map(|_| t2), t3);
            }
        }
        wall_ns = now_ns() - started;
        writer_done.store(true, Ordering::Release);
        reader.join().expect("reader thread")
    });

    if let Some(t) = tracer.as_deref_mut() {
        t.absorb(read_spans);
    }
    let done = commit_ns.len();
    report.set(
        "updates_per_s",
        (done * sc.batch) as f64 / (wall_ns as f64 / 1e9),
    );
    report.set("update_p50_ns", stats::median(&commit_ns) / sc.batch as f64);
    report.set("commit_ack_p50_us", us(stats::median(&commit_ns)));
    report.set("delivery_p50_us", us(stats::median(&deliver_ns)));
    report.set("watermark_p50_us", us(stats::median(&visible_ns)));
    probe.report(report);
    report.note(format!(
        "reader: {} rounds beside {done} commits; no-op share {:.3} ({applied} of {total} updates effective)",
        probe.pin_ns.len(),
        1.0 - applied as f64 / total.max(1) as f64
    ));
    report.note_tail("commit tail", "ns", &commit_ns);
    report.note_tail(
        "pin+count tail (per call, blocks of 256)",
        "ns",
        &probe.pin_ns,
    );

    // Recovery without a log: a fresh session bulk-loaded with the
    // surviving tuples, the way checkpoint loading does it.
    let survivors: Vec<Update> = shared
        .read(|s| {
            s.schema()
                .relations()
                .flat_map(|rel| {
                    s.database()
                        .relation(rel)
                        .sorted()
                        .into_iter()
                        .map(move |t| Update::Insert(rel, t))
                })
                .collect()
        })
        .expect("session readable");
    let t0 = now_ns();
    let (recovery_s, (rebuilt, _)) = median_timed(sc.recovery_reps, || build(None, &survivors));
    if let Some(t) = tracer {
        t.span("recover", 0, None, t0, now_ns());
    }
    report.set("recovery_s", recovery_s);
    report.set("peak_rss_mb", peak_rss_mb());

    let oracle = oracle_db(&inputs.schema, &inputs.script.preload, &[cursor]);
    let want = check::expected(inputs, &oracle, cfg.corrupt);
    for (what, session) in [("session", &shared), ("rebuilt session", &rebuilt)] {
        check::all_queries(report, what, inputs, &want, |name| {
            check::of_snapshot(&session.snapshot(name).expect("query exists"))
        });
    }
}
