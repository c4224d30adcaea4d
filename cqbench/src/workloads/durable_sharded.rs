//! `durable_sharded`: [`DurableSession::create_sharded`] over a
//! [`MeteredDisk`] with `FsyncPolicy::Always` and a **modelled 250 µs
//! device flush**, two queries with disjoint footprints (two shards) and
//! two writer threads, each committing batches of 8 to its own shard.
//! Then `checkpoint()`, a further tenth of the commits as a log tail,
//! drop, and [`DurableSession::recover`] from the disk's strict view —
//! unflushed bytes discarded — timed.
//!
//! The durable layer's global mutex, its effective-set prediction pass
//! and one fsync per commit do most of the work and the engines little:
//! this is where group commit must show, and where two writers buy
//! nothing today (`durable.scaling_2w` ≈ 1).
//!
//! While the writers run, the main thread wakes every 50 ms and reads —
//! 20 rounds of pin, `count()` and enumeration through a lock-free
//! [`PinReader`] (`count_p50_ns`, `enum_delay_p50_ns`,
//! `pin_read_p50_ns`). The duty cycle is a few percent; the point is not
//! to load the writers but to take the read samples across the whole
//! phase: the box's speed wanders on a scale of tenths of a second, and
//! one burst of reads at the end of a phase samples a single mood of it.
//!
//! Each writer drains its own query's in-process subscription after a
//! commit (`delivery_p50_us`). `watermark_p50_us` — commit start to a
//! pin that reflects the commit — is probed only in the log tail, every
//! eighth commit: a pin makes the writer copy the pinned component on
//! its next commit and free the old copy on the next pin, which would
//! otherwise take a third of the two-writer phase.

use super::{median_timed, peak_rss_mb, run_rounds, us, ReadProbe, RunCfg};
use crate::disk::MeteredDisk;
use crate::gen::{oracle_db, Cursor};
use crate::metrics::Report;
use crate::scenario::{Inputs, DURABLE_SHARDED};
use crate::stack::{assert_schema, build_durable, load, now_ns, subscribe};
use crate::trace::Tracer;
use crate::{check, stats};
use cq_updates::prelude::*;
use cq_updates::storage::Tuple;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The modelled device flush.
pub const FLUSH: Duration = Duration::from_micros(250);
/// Frozen rate: commits of 8 per writer per second of run length.
const COMMITS_PER_WRITER_PER_SECOND: f64 = 1_220.0;
/// The tail pins through the lock every this many commits.
const VISIBLE_EVERY: usize = 8;
/// The main thread reads this many rounds, this often, while the writers
/// run.
const READ_BURST: usize = 20;
const READ_EVERY: Duration = Duration::from_millis(50);

/// What one writer measured: per commit `(start, ack, event seen, pin
/// seen)` on the process clock, and how many updates took effect.
#[derive(Default)]
struct WriterLog {
    commits: Vec<(u64, u64, Option<u64>, Option<u64>)>,
    seqs: Vec<u64>,
    applied: usize,
    refused: Vec<String>,
    stale_pins: usize,
}

fn write_loop(
    leader: &DurableSession,
    name: &str,
    sub: &Subscription,
    cursor: &mut Cursor,
    commits: usize,
    pin_every: Option<usize>,
    cfg: &RunCfg,
) -> WriterLog {
    let batch = DURABLE_SHARDED.batch;
    let mut log = WriterLog::default();
    for i in 0..commits {
        if cfg.expired() {
            break;
        }
        let updates = cursor.next(batch);
        let t0 = now_ns();
        let result = leader.apply_batch(updates);
        let t1 = now_ns();
        match result {
            Ok(r) => log.applied += r.applied,
            Err(e) => {
                log.refused
                    .push(format!("commit {i} on {name} refused: {e}"));
                continue;
            }
        }
        let mut seq = None;
        while let Some(event) = sub.poll() {
            seq = Some(event.seq);
        }
        let t2 = now_ns();
        let mut pinned = None;
        if pin_every.is_some_and(|n| i % n == 0) {
            if let Some(seq) = seq {
                let snap = leader.snapshot(name).expect("query exists");
                pinned = Some(now_ns());
                log.stale_pins += usize::from(snap.seq() < seq);
            }
        }
        log.seqs.push(seq.unwrap_or(0));
        log.commits.push((t0, t1, seq.map(|_| t2), pinned));
    }
    log
}

fn state(inputs: &Inputs, session: &DurableSession) -> Vec<(u64, Vec<Tuple>)> {
    inputs
        .queries
        .iter()
        .map(|(name, _, _)| check::of_snapshot(&session.snapshot(name).expect("query exists")))
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Report {
    run_rounds(&DURABLE_SHARDED, cfg, tracer, round)
}

fn round(cfg: &RunCfg, inputs: &Inputs, report: &mut Report, mut tracer: Option<&mut Tracer>) {
    let sc = &DURABLE_SHARDED;
    let registry = cfg.traced.then(|| Arc::new(Registry::new()));

    let (setup_s, (disk, leader)) = median_timed(sc.setup_reps, || {
        let disk = MeteredDisk::new(FLUSH);
        let leader = build_durable(sc, &disk, FsyncPolicy::Always, registry.as_ref());
        load(&inputs.script.preload, |chunk| {
            leader.apply_batch(chunk).expect("preload commits");
        });
        (disk, leader)
    });
    report.set("setup_s", setup_s);
    assert_schema(inputs, |n| leader.relation(n).ok());
    let sharded = leader.sharded().expect("sharded backend").clone();
    report.check(sharded.shard_count() == sc.queries.len(), || {
        format!(
            "{} shards for {} disjoint queries",
            sharded.shard_count(),
            sc.queries.len()
        )
    });

    // One cycle per writer: the relations of its query's shard.
    let cycles: Vec<Vec<Update>> = sc
        .queries
        .iter()
        .map(|(name, _)| {
            let shard = sharded.shard_of_query(name).expect("query has a shard");
            inputs.script.cycle(
                |rel| sharded.shard_of_relation(rel).ok() == Some(shard),
                sc.batch,
            )
        })
        .collect();
    let mut subs: Vec<Subscription> = sc
        .queries
        .iter()
        .map(|(n, _)| subscribe(&leader, n))
        .collect();
    let mut cursors: Vec<Cursor> = cycles.iter().map(|c| Cursor::new(c)).collect();
    let commits = cfg.ops(COMMITS_PER_WRITER_PER_SECOND, 1);
    let disk_before = disk.stats();

    let barrier = Barrier::new(cursors.len());
    // A lock-free pin returns the published epoch, which nobody has
    // refreshed since the queries were registered on an empty database:
    // one locked pin brings it up to date before the first read.
    drop(leader.snapshot(sc.queries[0].0).expect("query exists"));
    let reader = sharded.reader(sc.queries[0].0).expect("query exists");
    let mut probe = ReadProbe::default();
    let writers_done = AtomicUsize::new(0);
    let logs: Vec<WriterLog> = std::thread::scope(|scope| {
        // A `Subscription` is `Send` but not `Sync`: each writer takes
        // its own by unique reference.
        let writers: Vec<_> = cursors
            .iter_mut()
            .zip(subs.iter_mut())
            .enumerate()
            .map(|(w, (cursor, sub))| {
                let (leader, barrier, done) = (&leader, &barrier, &writers_done);
                let name = sc.queries[w].0;
                scope.spawn(move || {
                    barrier.wait();
                    let log = write_loop(leader, name, sub, cursor, commits, None, cfg);
                    // Release: the reading loop below Acquire-loads this to
                    // know the writers are through.
                    done.fetch_add(1, Ordering::Release);
                    log
                })
            })
            .collect();
        // At least one burst, however quickly the writers finish.
        let mut burst = 0;
        loop {
            for _ in 0..READ_BURST {
                probe.round(&mut tracer, burst, || reader.pin());
            }
            burst += 1;
            if writers_done.load(Ordering::Acquire) == writers.len() {
                break;
            }
            std::thread::sleep(READ_EVERY);
        }
        writers
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    let on_disk = disk.stats().since(&disk_before);

    let all: Vec<&(u64, u64, Option<u64>, Option<u64>)> =
        logs.iter().flat_map(|l| &l.commits).collect();
    let first = all.iter().map(|c| c.0).min().unwrap_or(0);
    let last = all.iter().map(|c| c.1).max().unwrap_or(1);
    let commit_ns: Vec<f64> = all.iter().map(|c| (c.1 - c.0) as f64).collect();
    let deliver_ns: Vec<f64> = all
        .iter()
        .filter_map(|c| c.2.map(|t| (t - c.0) as f64))
        .collect();
    for (w, log) in logs.iter().enumerate() {
        report.attempted += commits as u64;
        report.failed += log.refused.len() as u64;
        report.wrong.extend(log.refused.iter().cloned());
        report.check(log.applied == log.commits.len() * sc.batch, || {
            format!(
                "writer {w}: {} of {} updates took effect",
                log.applied,
                log.commits.len() * sc.batch
            )
        });
        if let Some(t) = tracer.as_deref_mut() {
            for (c, seq) in log.commits.iter().zip(&log.seqs) {
                t.commit(*seq, c.0, c.1, c.2, c.3);
            }
        }
    }
    report.set(
        "updates_per_s",
        (all.len() * sc.batch) as f64 / ((last - first) as f64 / 1e9),
    );
    report.set("update_p50_ns", stats::median(&commit_ns) / sc.batch as f64);
    report.set("commit_ack_p50_us", us(stats::median(&commit_ns)));
    report.set("delivery_p50_us", us(stats::median(&deliver_ns)));
    report.note_tail("commit ack tail", "ns", &commit_ns);
    report.note(format!(
        "device during the write phase: {} appends, {} bytes, {} flushes, {:.3} s inside flushes ({:.3} flushes per commit)",
        on_disk.appends,
        on_disk.append_bytes,
        on_disk.syncs,
        on_disk.sync_wait_ns as f64 / 1e9,
        on_disk.syncs as f64 / all.len().max(1) as f64
    ));

    probe.report(report);

    let t0 = now_ns();
    let ckpt_seq = leader.checkpoint();
    let t1 = now_ns();
    report.check(ckpt_seq.is_ok(), || {
        format!("checkpoint failed: {ckpt_seq:?}")
    });
    report.note(format!("checkpoint: {:.4} s", (t1 - t0) as f64 / 1e9));
    if let Some(t) = tracer.as_deref_mut() {
        t.span("checkpoint", ckpt_seq.unwrap_or(0), None, t0, t1);
    }
    // The log tail recovery has to replay on top of the checkpoint; it
    // also carries the visibility probes.
    let tail_commits = (commits / 10).max(VISIBLE_EVERY);
    let mut visible_ns = Vec::new();
    for (w, cursor) in cursors.iter_mut().enumerate() {
        let name = sc.queries[w].0;
        let tail = write_loop(
            &leader,
            name,
            &subs[w],
            cursor,
            tail_commits,
            Some(VISIBLE_EVERY),
            cfg,
        );
        report.attempted += tail_commits as u64;
        report.failed += tail.refused.len() as u64;
        report.check(tail.stale_pins == 0, || {
            format!(
                "{name}: {} pins did not reflect the commit before them",
                tail.stale_pins
            )
        });
        // Commit plus pin, without the subscription drain between them.
        visible_ns.extend(
            tail.commits
                .iter()
                .filter_map(|c| Some(((c.1 - c.0) + (c.3? - c.2?)) as f64)),
        );
        if let Some(t) = tracer.as_deref_mut() {
            for (c, seq) in tail.commits.iter().zip(&tail.seqs) {
                t.commit(*seq, c.0, c.1, c.2, c.3);
            }
        }
        report.wrong.extend(tail.refused);
    }
    report.set("watermark_p50_us", us(stats::median(&visible_ns)));

    // Every commit above was acknowledged under `Always`, so all of it
    // must survive a power cut.
    let acked_seq = leader.seq().expect("leader seq");
    let before_drop = state(inputs, &leader);
    drop(subs);
    drop(reader);
    drop(sharded);
    drop(leader);
    let t0 = now_ns();
    let (recovery_s, recovered) = median_timed(sc.recovery_reps, || {
        DurableSession::recover(Box::new(disk.strict_view()), DurableOptions::default())
    });
    if let Some(t) = tracer {
        t.span("recover", acked_seq, None, t0, now_ns());
    }
    report.set("recovery_s", recovery_s);
    report.set("peak_rss_mb", peak_rss_mb());

    let oracle = oracle_db(&inputs.schema, &inputs.script.preload, &cursors);
    let want = check::expected(inputs, &oracle, cfg.corrupt);
    for (((name, _, _), (count, rows)), want) in inputs.queries.iter().zip(&before_drop).zip(&want)
    {
        check::rows(report, "leader before the drop", name, *count, rows, want);
    }
    match recovered {
        Ok(back) => {
            let seq = back.seq().expect("recovered seq");
            report.check(seq == acked_seq, || {
                format!("recovered to seq {seq}, last acknowledged seq was {acked_seq}")
            });
            report.check(state(inputs, &back) == before_drop, || {
                "recovered results differ from the state before the drop".to_string()
            });
        }
        Err(e) => report.fail(format!("recovery from the strict view failed: {e}")),
    }
}
