//! `engine_floor`: the paper's three promises with no system around
//! them. One thread, bare [`QhEngine`] on the star query at ≈7·10⁵
//! tuples. `cqu-dynamic` and `cqu-storage` do all the work; a change to
//! anything else must leave every number here where it was.
//!
//! Writes go in 256-update blocks. In each block three updates are
//! timed alone — a plain `apply` (`commit_ack_p50_us`: one write call
//! acknowledged), an `apply_tracked` (`delivery_p50_us`: the caller
//! holds the result delta) and an `apply` followed by `snapshot()`
//! (`watermark_p50_us`: a new reader-visible version exists) — and the
//! other 253 are timed together (`update_p50_ns`). Every 64 blocks the
//! thread reads: 1024 `count()` calls, one enumeration of the first
//! 4096 tuples with per-tuple delays, and 256 pins.

use super::{
    median_timed, note_delay_tail, peak_rss_mb, run_rounds, us, RunCfg, COUNT_BLOCK, PIN_BLOCK,
};
use crate::gen::{oracle_db, Cursor};
use crate::metrics::Report;
use crate::scenario::{Inputs, ENGINE_FLOOR};
use crate::stack::now_ns;
use crate::trace::Tracer;
use crate::{check, stats};
use cq_updates::dynamic::ResultDelta;
use cq_updates::prelude::*;
use std::hint::black_box;

/// Frozen rate: 256-update blocks per second of run length (≈ the
/// reference box's speed, so the timed phase lasts about `--seconds`).
const BLOCKS_PER_SECOND: f64 = 1_500.0;
/// Blocks between read rounds.
const READ_EVERY: usize = 64;
/// Tuples enumerated per read round.
const ENUM_TUPLES: usize = 4096;
/// Updates per block timed alone (ack, delivery, watermark).
const SINGLES: usize = 3;

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Report {
    run_rounds(&ENGINE_FLOOR, cfg, tracer, round)
}

fn round(cfg: &RunCfg, inputs: &Inputs, report: &mut Report, mut tracer: Option<&mut Tracer>) {
    let sc = &ENGINE_FLOOR;
    let query = &inputs.queries[0].1;
    let mut db = Database::new(inputs.schema.clone());
    for u in &inputs.script.preload {
        db.apply(u);
    }
    report.note(format!("database: {} tuples", db.cardinality()));

    // Set-up is the paper's linear preprocessing; generating the script
    // and the database above is the generator's work, not the program's.
    let (setup_s, mut engine) = median_timed(sc.setup_reps, || {
        QhEngine::new(query, &db).expect("the star query is q-hierarchical")
    });
    report.set("setup_s", setup_s);
    drop(db);

    let cycle = inputs.script.cycle(|_| true, sc.batch);
    let blocks = cfg.ops(BLOCKS_PER_SECOND, READ_EVERY);
    let mut cursor = Cursor::new(&cycle);
    let mut delta = ResultDelta::default();
    // Single calls last a few hundred whole nanoseconds: histograms give
    // an interpolated median where a sorted vector would give an integer.
    let (mut ack_ns, mut deliver_ns, mut visible_ns) = (
        stats::NsHist::default(),
        stats::NsHist::default(),
        stats::NsHist::default(),
    );
    let mut bulk_ns = Vec::new();
    let (mut count_ns, mut delay_ns, mut pin_ns) =
        (Vec::new(), stats::NsHist::default(), Vec::new());
    let mut write_ns = 0u64;
    let mut done = 0usize;

    for block_idx in 0..blocks {
        if cfg.expired() {
            report.note("safety deadline reached: timed phase cut short");
            break;
        }
        let block = cursor.next(sc.batch);
        let mut effective = 0usize;

        let t0 = now_ns();
        effective += usize::from(engine.apply(&block[0]));
        let t1 = now_ns();
        delta.clear();
        effective += usize::from(engine.apply_tracked(&block[1], &mut delta));
        black_box(&delta);
        let t2 = now_ns();
        effective += usize::from(engine.apply(&block[2]));
        let snap = black_box(engine.snapshot());
        let t3 = now_ns();
        // Dropped before the next write: a retained pin would make the
        // writer copy the whole component (session_mixed measures that).
        drop(snap);
        let t4 = now_ns();
        for u in &block[SINGLES..] {
            effective += usize::from(engine.apply(u));
        }
        let t5 = now_ns();

        ack_ns.record(t1 - t0);
        deliver_ns.record(t2 - t1);
        visible_ns.record(t3 - t2);
        bulk_ns.push((t5 - t4) as f64 / (sc.batch - SINGLES) as f64);
        write_ns += (t3 - t0) + (t5 - t4);
        done += sc.batch;
        report.attempted += sc.batch as u64;
        report.failed += (sc.batch - effective) as u64;
        if let Some(t) = tracer.as_deref_mut() {
            t.commit(block_idx as u64, t0, t5, None, None);
        }

        if (block_idx + 1) % READ_EVERY == 0 {
            let r0 = now_ns();
            let mut acc = 0u64;
            for _ in 0..COUNT_BLOCK {
                acc = acc.wrapping_add(black_box(&engine).count());
            }
            let r1 = now_ns();
            count_ns.push((r1 - r0) as f64 / COUNT_BLOCK as f64);

            let mut last = now_ns();
            let r2 = last;
            let mut it = engine.enumerate();
            for _ in 0..ENUM_TUPLES {
                if black_box(it.next()).is_none() {
                    break;
                }
                let now = now_ns();
                delay_ns.record(now - last);
                last = now;
            }
            drop(it);

            let r3 = now_ns();
            for _ in 0..PIN_BLOCK {
                acc = acc.wrapping_add(black_box(engine.snapshot()).count());
            }
            let r4 = now_ns();
            black_box(acc);
            pin_ns.push((r4 - r3) as f64 / PIN_BLOCK as f64);
            if let Some(t) = tracer.as_deref_mut() {
                if t.admit() {
                    let id = block_idx as u64;
                    t.span("count", id, None, r0, r1);
                    t.span("enumerate", id, None, r2, last);
                    t.span("pin", id, None, r3, r4);
                }
            }
        }
    }

    report.set("updates_per_s", done as f64 / (write_ns as f64 / 1e9));
    report.set("update_p50_ns", stats::median(&bulk_ns));
    report.set("commit_ack_p50_us", us(ack_ns.percentile(50.0)));
    report.set("delivery_p50_us", us(deliver_ns.percentile(50.0)));
    report.set("watermark_p50_us", us(visible_ns.percentile(50.0)));
    report.set("count_p50_ns", stats::median(&count_ns));
    report.set("enum_delay_p50_ns", delay_ns.percentile(50.0));
    report.set("pin_read_p50_ns", stats::median(&pin_ns));
    report.note_tail(
        "update tail (per update, 253-update blocks)",
        "ns",
        &bulk_ns,
    );
    note_delay_tail(report, &delay_ns);

    // Recovery for a bare engine is preprocessing again, on what the
    // run left behind.
    let t0 = now_ns();
    let (recovery_s, rebuilt) = median_timed(sc.recovery_reps, || {
        QhEngine::new(query, engine.database()).expect("q-hierarchical")
    });
    if let Some(t) = tracer {
        t.span("recover", 0, None, t0, now_ns());
    }
    report.set("recovery_s", recovery_s);
    report.set("peak_rss_mb", peak_rss_mb());

    let oracle = oracle_db(&inputs.schema, &inputs.script.preload, &[cursor]);
    let want = check::expected(inputs, &oracle, cfg.corrupt);
    check::rows(
        report,
        "engine",
        "star",
        engine.count(),
        &engine.results_sorted(),
        &want[0],
    );
    check::rows(
        report,
        "rebuilt engine",
        "star",
        rebuilt.count(),
        &rebuilt.results_sorted(),
        &want[0],
    );
}
