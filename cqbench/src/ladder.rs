//! The depth ladder: where a commit's time goes, measured from outside.
//!
//! The workload's own queries and update stream (at the scenario's
//! ladder scale) are replayed through successively deeper stacks, each
//! alone:
//!
//! ```text
//! storage   Database::apply
//! engines   the bare engines the classifier picks, one `apply` per update
//! session   Session::apply_batch
//! shared    SharedSession::apply_batch
//! sharded   ShardedSession::apply_batch, one writer
//! durable   DurableSession::apply_batch, zero-latency disk, fsync Never
//! always    … fsync Always over the modelled 250 µs flush
//! follower  durable + one replica attached
//! subscriber durable + one TCP subscriber attached
//! ```
//!
//! A layer's self time is its rung minus the rung beneath, and every
//! rung is printed as "× over the paper's engine" (`dynamic.apply_ns`).
//! Side measurements hang off the rung that owns them: retained pins on
//! `shared`, two writers on `sharded` and `always`, checkpoint and
//! recovery on `durable`, catch-up on `follower`, and an open-loop pass
//! with both consumers attached for the after-ack latencies and the
//! generator's lateness. Codecs are timed on the run's own records and
//! deltas.

use crate::disk::MeteredDisk;
use crate::gen::Cursor;
use crate::metrics::Report;
use crate::scenario::{Inputs, Scenario};
use crate::stack::{
    build_durable, build_session, build_sharded, connect_replica, load, now_ns, Served, ServedOpts,
};
use crate::stats::{self, self_time};
use crate::workloads::durable_sharded::FLUSH;
use crate::workloads::full_stack::{drain, drive, latencies, Phase};
use crate::workloads::{us, RunCfg};
use cq_updates::dynamic::DynamicEngine;
use cq_updates::prelude::*;
use cq_updates::query::RelId;
use cq_updates::repl::protocol::{decode_records, encode_records_frame};
use cq_updates::serve::{Frame, Mirror};
use cq_updates::serving::protocol::{encode_delta_frame, encode_snapshot_frame};
use cq_updates::wal::Rec;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Updates replayed through each in-memory rung (at least
/// [`MIN_COMMITS`] commits).
const RUNG_UPDATES: usize = 1 << 15;
/// Fewest commits a rung replays, so its median has support.
const MIN_COMMITS: usize = 512;
/// Commits through the rungs that sleep in a modelled flush.
const FLUSH_COMMITS: usize = 1_200;
/// Commits through the rungs with a consumer attached.
const SERVED_COMMITS: usize = 512;
/// Open-loop pass: commits and rate (far below saturation, so the
/// after-ack latencies are the pipeline's, not a queue's).
const OPEN_COMMITS: usize = 200;
const OPEN_RATE: f64 = 50.0;
/// Pins per timed block in the pin-tail probe (a single pin is shorter
/// than the clock's own cost).
const PIN_BLOCK: usize = 16;
/// A retained pin is refreshed every this many commits.
const RETAIN_COMMITS: usize = 64;

struct Ladder<'a> {
    sc: &'a Scenario,
    inputs: Inputs,
    cycle: Vec<Update>,
    commits: usize,
    slow_commits: usize,
    served_commits: usize,
    report: Report,
    /// `(rung, ns per update, the rung it is stacked on)`, shallowest
    /// first.
    rungs: Vec<(&'static str, f64, Option<&'static str>)>,
}

/// Replays `commits` batches of the cycle through `commit`; returns each
/// call's duration in nanoseconds.
fn replay(
    cycle: &[Update],
    batch: usize,
    commits: usize,
    mut commit: impl FnMut(&[Update]),
) -> Vec<f64> {
    let mut cursor = Cursor::new(cycle);
    (0..commits)
        .map(|_| {
            let updates = cursor.next(batch);
            let t0 = now_ns();
            commit(updates);
            (now_ns() - t0) as f64
        })
        .collect()
}

/// Splits the cycle in two by the shard (or, on one shard, the parity)
/// of each update's relation: what two writers would each commit.
fn halves(l: &Ladder, shard_of: impl Fn(RelId) -> usize) -> [Vec<Update>; 2] {
    [0, 1].map(|w| {
        l.inputs
            .script
            .cycle(|rel| shard_of(rel) % 2 == w, l.sc.batch)
    })
}

/// Updates per second when `writers` threads each replay their half.
fn two_writer_rate(
    halves: &[Vec<Update>; 2],
    batch: usize,
    commits: usize,
    commit: impl Fn(&[Update]) + Sync,
) -> f64 {
    let active: Vec<&Vec<Update>> = halves.iter().filter(|h| !h.is_empty()).collect();
    let each = (commits / active.len().max(1)).max(1);
    let barrier = Barrier::new(active.len());
    let t0 = now_ns();
    std::thread::scope(|scope| {
        for half in &active {
            let (barrier, commit) = (&barrier, &commit);
            scope.spawn(move || {
                barrier.wait();
                replay(half, batch, each, commit);
            });
        }
    });
    (each * active.len() * batch) as f64 / ((now_ns() - t0) as f64 / 1e9)
}

impl Ladder<'_> {
    /// Records a rung from its per-commit times and returns its self
    /// time: its median per-update cost minus that of the rung beneath.
    fn rung(
        &mut self,
        name: &'static str,
        beneath: Option<&'static str>,
        commit_ns: &[f64],
    ) -> f64 {
        let per_update = stats::median(commit_ns) / self.sc.batch as f64;
        self.rungs.push((name, per_update, beneath));
        self_time(per_update, beneath.map_or(0.0, |b| self.value(b)))
    }

    fn value(&self, name: &str) -> f64 {
        self.rungs
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
            .expect("rung measured")
    }

    /// Notes the supported tail of `samples` and returns the value of the
    /// highest supported percentile not above p99 (metrics named `_p99_`
    /// never silently become p99.9).
    fn p99(&mut self, what: &str, samples: &[f64]) -> f64 {
        self.report.note_tail(what, "ns", samples);
        stats::tail(&stats::sorted(samples.to_vec()), 99.0).value
    }

    /// `storage` and `engines`: the floor.
    fn engines(&mut self) {
        let (sc, batch) = (self.sc, self.sc.batch);
        let mut db = Database::new(self.inputs.schema.clone());
        for u in &self.inputs.script.preload {
            db.apply(u);
        }
        let seed_db = db.clone();
        let ns = replay(&self.cycle, batch, self.commits, |updates| {
            for u in updates {
                black_box(db.apply(u));
            }
        });
        let storage = self.rung("storage", None, &ns);
        self.report.set("storage.apply_ns", storage);

        // One bare engine per query, fed only the relations it reads —
        // the routing a session does before an engine sees an update.
        let mut total_ns = vec![0.0; self.commits];
        let (mut qh_ns, mut qh_calls, mut ivm_ns, mut ivm_calls) = (0.0, 0usize, 0.0, 0usize);
        let (mut work, mut work_calls, mut first_qh_blocks) = (0u64, 0usize, Vec::new());
        for (qi, (_, query, kind)) in self.inputs.queries.iter().enumerate() {
            let wants = Inputs::footprint(query);
            let routed =
                |updates: &[Update]| updates.iter().filter(|u| wants(u.relation())).count();
            match kind {
                EngineKind::QHierarchical => {
                    let mut engine = QhEngine::new(query, &seed_db).expect("q-hierarchical");
                    let mut cursor = Cursor::new(&self.cycle);
                    for slot in total_ns.iter_mut() {
                        let updates = cursor.next(batch);
                        let t0 = now_ns();
                        for u in updates.iter().filter(|u| wants(u.relation())) {
                            if engine.apply(u) && qi == 0 {
                                work += engine.last_update_work();
                                work_calls += 1;
                            }
                        }
                        let dt = (now_ns() - t0) as f64;
                        let n = routed(updates);
                        *slot += dt;
                        qh_ns += dt;
                        qh_calls += n;
                        if qi == 0 && n > 0 {
                            first_qh_blocks.push(dt / n as f64);
                        }
                    }
                }
                _ => {
                    let mut engine = kind
                        .build(query, &seed_db)
                        .expect("baseline engines accept every query");
                    let mut cursor = Cursor::new(&self.cycle);
                    for slot in total_ns.iter_mut() {
                        let updates = cursor.next(batch);
                        let t0 = now_ns();
                        for u in updates.iter().filter(|u| wants(u.relation())) {
                            black_box(engine.apply(u));
                        }
                        let dt = (now_ns() - t0) as f64;
                        *slot += dt;
                        ivm_ns += dt;
                        ivm_calls += routed(updates);
                    }
                }
            }
        }
        self.rung("engines", None, &total_ns);
        self.report
            .set("dynamic.apply_ns", qh_ns / qh_calls.max(1) as f64);
        let p99 = self.p99(
            "QhEngine::apply tail (per update, per block)",
            &first_qh_blocks,
        );
        self.report.set("dynamic.apply_p99_ns", p99);
        self.report.set(
            "dynamic.work_per_update",
            work as f64 / work_calls.max(1) as f64,
        );
        if ivm_calls == 0 {
            // No query of this workload is routed to delta-IVM: time what
            // the classifier's routing avoids, on the first query.
            let (_, query, _) = &self.inputs.queries[0];
            let wants = Inputs::footprint(query);
            let mut engine = DeltaIvmEngine::new(query, &seed_db);
            let n = self.commits.min(64);
            let ns = replay(&self.cycle, batch, n, |updates| {
                for u in updates.iter().filter(|u| wants(u.relation())) {
                    black_box(engine.apply(u));
                    ivm_calls += 1;
                }
            });
            ivm_ns = ns.iter().sum();
            self.report.note(format!(
                "baseline.ivm_apply_ns: no query of {} is routed to delta-IVM; timed DeltaIvmEngine on {} instead",
                sc.name, self.inputs.queries[0].0
            ));
        }
        self.report
            .set("baseline.ivm_apply_ns", ivm_ns / ivm_calls.max(1) as f64);
    }

    /// Flatness, preprocessing and enumeration restart, on the first
    /// query's bare engine at the run's full scale and at its small one.
    fn flatness(&mut self, cfg: &RunCfg) {
        let sc = self.sc;
        let mut per_update = Vec::new();
        let scales = if cfg.smoke {
            [sc.small_scale, sc.small_scale]
        } else {
            [sc.scale, sc.small_scale]
        };
        for (i, scale) in scales.into_iter().enumerate() {
            let inputs = sc.inputs(scale, sc.steps_at(scale), cfg.seed);
            let (_, query, _) = &inputs.queries[0];
            let wants = Inputs::footprint(query);
            let cycle = inputs.script.cycle(&wants, sc.batch);
            let mut db = Database::new(inputs.schema.clone());
            for u in &inputs.script.preload {
                db.apply(u);
            }
            let t0 = now_ns();
            let mut engine = QhEngine::new(query, &db).expect("q-hierarchical");
            let built_ns = (now_ns() - t0) as f64;
            let ns = replay(&cycle, sc.batch, self.commits, |updates| {
                for u in updates {
                    black_box(engine.apply(u));
                }
            });
            per_update.push(stats::median(&ns) / sc.batch as f64);
            if i == 0 {
                let facts: usize = query
                    .atoms()
                    .iter()
                    .map(|a| db.relation(a.relation).len())
                    .sum();
                self.report.set(
                    "dynamic.preprocess_ns_per_tuple",
                    built_ns / facts.max(1) as f64,
                );
                // Time to the first tuple after an update: the cost of
                // restarting enumeration on changed state.
                let mut cursor = Cursor::new(&cycle);
                let mut firsts = stats::NsHist::default();
                for _ in 0..8 * MIN_COMMITS {
                    engine.apply(&cursor.next(1)[0]);
                    let t0 = now_ns();
                    black_box(engine.enumerate().next());
                    firsts.record(now_ns() - t0);
                }
                self.report
                    .set("dynamic.enum_first_ns", firsts.percentile(50.0));
                self.report.note(format!(
                    "flatness: {facts} tuples at scale {scale} vs scale {}",
                    scales[1]
                ));
            }
        }
        self.report
            .set("dynamic.flatness_ratio", per_update[0] / per_update[1]);
    }

    /// `session`, `shared` (with and without a retained pin), `sharded`
    /// (one and two writers).
    fn sessions(&mut self) {
        let (sc, batch, commits) = (self.sc, self.sc.batch, self.commits);
        let preload = self.inputs.script.preload.clone();
        let mut session = build_session(sc, None);
        load(&preload, |c| {
            session.apply_batch(c).expect("preload applies");
        });
        let (mut total, mut applied) = (0usize, 0usize);
        let ns = replay(&self.cycle, batch, commits, |updates| {
            let r = session.apply_batch(updates).expect("commit applies");
            total += r.total;
            applied += r.applied;
        });
        let v = self.rung("session", Some("engines"), &ns);
        self.report.set("session.batch_self_ns", v);
        self.report.set(
            "session.noop_share",
            1.0 - applied as f64 / total.max(1) as f64,
        );
        drop(session);

        let build_shared = || {
            let mut s = build_session(sc, None);
            load(&preload, |c| {
                s.apply_batch(c).expect("preload applies");
            });
            SharedSession::new(s)
        };
        let shared = build_shared();
        let plain = replay(&self.cycle, batch, commits, |updates| {
            shared.apply_batch(updates).expect("commit applies");
        });
        let v = self.rung("shared", Some("session"), &plain);
        self.report.set("session.shared_self_ns", v);
        let p99 = self.p99("SharedSession commit tail", &plain);
        self.report.set("session.commit_p99_us", us(p99));

        // The same commits with a reader's pin retained across them: the
        // writer has to copy what the pin still references.
        let followed = sc.queries[0].0;
        let shared = build_shared();
        let mut held = shared.snapshot(followed).expect("query exists");
        let mut since = 0usize;
        let pinned = replay(&self.cycle, batch, commits, |updates| {
            shared.apply_batch(updates).expect("commit applies");
            since += 1;
            if since == RETAIN_COMMITS {
                held = shared.snapshot(followed).expect("query exists");
                since = 0;
            }
        });
        drop(held);
        self.report.set(
            "session.pinned_commit_ratio",
            stats::median(&pinned) / stats::median(&plain),
        );
        self.report.note(format!(
            "commit with a pin retained across {RETAIN_COMMITS} commits: median {:.0} ns, mean {:.0} ns; without: median {:.0} ns, mean {:.0} ns",
            stats::median(&pinned),
            pinned.iter().sum::<f64>() / pinned.len() as f64,
            stats::median(&plain),
            plain.iter().sum::<f64>() / plain.len() as f64
        ));
        let reader = shared.reader(followed).expect("query exists");
        let pins: Vec<f64> = (0..8 * MIN_COMMITS)
            .map(|_| {
                let t0 = now_ns();
                for _ in 0..PIN_BLOCK {
                    black_box(reader.pin().count());
                }
                (now_ns() - t0) as f64 / PIN_BLOCK as f64
            })
            .collect();
        let p99 = self.p99("pin + count() tail (per call, blocks of 16)", &pins);
        self.report.set("session.pin_p99_ns", p99);
        drop((reader, shared));

        let sharded = build_sharded(sc, None);
        load(&preload, |c| {
            sharded.apply_batch(c).expect("preload applies");
        });
        let ns = replay(&self.cycle, batch, commits, |updates| {
            sharded.apply_batch(updates).expect("commit applies");
        });
        let v = self.rung("sharded", Some("shared"), &ns);
        self.report.set("shard.route_self_ns", v);
        let one_writer = (commits * batch) as f64 / (ns.iter().sum::<f64>() / 1e9);
        drop(sharded);

        let registry = Arc::new(Registry::new());
        let sharded = build_sharded(sc, Some(&registry));
        load(&preload, |c| {
            sharded.apply_batch(c).expect("preload applies");
        });
        let split = halves(self, |rel| {
            sharded.shard_of_relation(rel).unwrap_or(0)
                + rel.index() * usize::from(sharded.shard_count() == 1)
        });
        let two_writers = two_writer_rate(&split, batch, commits, |updates| {
            sharded.apply_batch(updates).expect("commit applies");
        });
        self.report
            .set("shard.scaling_2w", two_writers / one_writer);
        let waits = registry.histogram("session_shard_lock_wait_ns");
        self.report.set(
            "shard.lock_wait_mean_ns",
            waits.sum() as f64 / waits.count().max(1) as f64,
        );
        self.report.note(format!(
            "in-memory sharded: {} shards, one writer {one_writer:.0} updates/s, two writers {two_writers:.0} updates/s",
            sharded.shard_count()
        ));
    }

    /// `durable` and `always`, with checkpoint, recovery, two writers and
    /// the device's own counters.
    fn durable(&mut self) {
        let (sc, batch) = (self.sc, self.sc.batch);
        let preload = self.inputs.script.preload.clone();
        let open = |flush: Duration, fsync: FsyncPolicy, registry: Option<&Arc<Registry>>| {
            let disk = MeteredDisk::new(flush);
            let leader = build_durable(sc, &disk, fsync, registry);
            load(&preload, |c| {
                leader.apply_batch(c).expect("preload commits");
            });
            (disk, leader)
        };

        let (disk, leader) = open(Duration::ZERO, FsyncPolicy::Never, None);
        let ns = replay(&self.cycle, batch, self.commits, |updates| {
            leader.apply_batch(updates).expect("commit applies");
        });
        let backend = if sc.sharded { "sharded" } else { "shared" };
        let v = self.rung("durable", Some(backend), &ns);
        self.report.set("durable.commit_self_ns", v);
        leader.sync().expect("log flushes");
        let timed = |f: &mut dyn FnMut()| {
            let t0 = now_ns();
            f();
            (now_ns() - t0) as f64 / 1e9
        };
        let recover = |disk: &MeteredDisk| {
            DurableSession::recover(Box::new(disk.strict_view()), DurableOptions::default())
                .expect("ladder log recovers")
        };
        let head = leader.seq().expect("leader seq");
        let mut back = None;
        self.report.set(
            "wal.recover_tail_s",
            timed(&mut || back = Some(recover(&disk))),
        );
        self.report
            .check(back.take().and_then(|b| b.seq().ok()) == Some(head), || {
                "tail recovery stopped short of the head".to_string()
            });
        self.report.set(
            "wal.checkpoint_s",
            timed(&mut || {
                leader.checkpoint().expect("checkpoint");
            }),
        );
        self.report.set(
            "wal.recover_ckpt_s",
            timed(&mut || back = Some(recover(&disk))),
        );
        self.report
            .check(back.take().and_then(|b| b.seq().ok()) == Some(head), || {
                "checkpoint recovery stopped short of the head".to_string()
            });
        drop(leader);

        let registry = Arc::new(Registry::new());
        let (disk, leader) = open(FLUSH, FsyncPolicy::Always, Some(&registry));
        let counter = |name: &str| registry.counter(name).get() as f64;
        let hist_sum = |name: &str| registry.histogram(name).sum() as f64;
        let before = (
            disk.stats(),
            counter("wal_commits_total"),
            counter("wal_fsyncs_total"),
            counter("wal_append_bytes_total"),
            hist_sum("wal_append_latency_ns"),
            hist_sum("wal_fsync_latency_ns"),
        );
        let mut effective = 0usize;
        let ns = replay(&self.cycle, batch, self.slow_commits, |updates| {
            effective += leader.apply_batch(updates).expect("commit applies").applied;
        });
        self.rung("always", Some("durable"), &ns);
        let on_disk = disk.stats().since(&before.0);
        let wal_commits = (counter("wal_commits_total") - before.1).max(1.0);
        self.report.set(
            "wal.fsyncs_per_commit",
            (counter("wal_fsyncs_total") - before.2) / wal_commits,
        );
        self.report.set(
            "wal.bytes_per_update",
            (counter("wal_append_bytes_total") - before.3) / effective.max(1) as f64,
        );
        self.report.set(
            "wal.append_ns_per_commit",
            (hist_sum("wal_append_latency_ns") - before.4) / wal_commits,
        );
        self.report.set(
            "wal.fsync_ns_per_commit",
            (hist_sum("wal_fsync_latency_ns") - before.5) / wal_commits,
        );
        self.report.set("disk.appends", on_disk.appends as f64);
        self.report
            .set("disk.append_bytes", on_disk.append_bytes as f64);
        self.report.set("disk.syncs", on_disk.syncs as f64);
        self.report
            .set("disk.sync_wait_s", on_disk.sync_wait_ns as f64 / 1e9);
        let p99 = self.p99(
            "durable commit ack tail (fsync Always, modelled flush)",
            &ns,
        );
        self.report.set("durable.commit_ack_p99_us", us(p99));
        let one_writer = (self.slow_commits * batch) as f64 / (ns.iter().sum::<f64>() / 1e9);
        let shard_of = |rel: RelId| match leader.sharded() {
            Some(s) if s.shard_count() > 1 => s.shard_of_relation(rel).unwrap_or(0),
            _ => rel.index(),
        };
        let split = halves(self, shard_of);
        let two_writers = two_writer_rate(&split, batch, self.slow_commits, |updates| {
            leader.apply_batch(updates).expect("commit applies");
        });
        self.report
            .set("durable.scaling_2w", two_writers / one_writer);
        self.report.note(format!(
            "durable, fsync Always: one writer {one_writer:.0} updates/s, two writers {two_writers:.0} updates/s"
        ));
    }

    /// `follower` and `subscriber` closed loop, then both, open loop.
    fn served(&mut self, cfg: &RunCfg) {
        let (sc, batch, n) = (self.sc, self.sc.batch, self.served_commits);
        let opts = |follower: bool, subscriber: bool| ServedOpts {
            flush: Duration::ZERO,
            fsync: FsyncPolicy::Never,
            subscriber,
            follower,
            registry: None,
        };
        let closed = |l: &mut Ladder, follower: bool, subscriber: bool| {
            let served = Served::start(sc, &l.inputs, &opts(follower, subscriber));
            let mut cursor = Cursor::new(&l.cycle);
            let phase = Phase {
                commits: n,
                period_ns: None,
            };
            let commits = drive(
                &served,
                sc,
                &mut cursor,
                phase,
                &mut |_| {},
                cfg,
                &mut l.report,
            );
            drain(&served, &commits, &mut l.report);
            let ns: Vec<f64> = commits.iter().map(|c| (c.acked - c.sent) as f64).collect();
            (served.finish(), ns, commits)
        };

        let (done, ns, commits) = closed(self, true, false);
        let v = self.rung("follower", Some("durable"), &ns);
        self.report
            .set("repl.ship_self_ns_per_commit", v * batch as f64);
        let head = commits.last().map_or(0, |c| c.head);
        let t0 = now_ns();
        let late_joiner = connect_replica(done.repl.as_ref().expect("listener"), head, None);
        self.report
            .set("repl.catchup_s", (now_ns() - t0) as f64 / 1e9);
        if done.queue_overflows > 0 {
            self.report.warn(format!(
                "repl.queue_overflows = {} in the closed-loop follower rung",
                done.queue_overflows
            ));
        }
        drop((late_joiner, done));

        let (done, ns, commits) = closed(self, false, true);
        let v = self.rung("subscriber", Some("durable"), &ns);
        self.report
            .set("serve.subscriber_commit_overhead_ns", v * batch as f64);
        let seen = done.subscribed.as_ref().expect("subscriber attached");
        let (stats, bytes) = done.serve.expect("server ran");
        let updates = (commits.len() * batch).max(1) as f64;
        self.report
            .set("serve.bytes_per_update", bytes as f64 / updates);
        self.report.set(
            "serve.frames_per_commit",
            stats.deltas_sent as f64 / commits.len().max(1) as f64,
        );
        self.report
            .set("serve.delta_rows_per_update", seen.rows as f64 / updates);
        self.report.note(format!(
            "serve.coalesced = {}, serve.lagged = {} (closed loop: a saturating writer may coalesce)",
            stats.coalesced, stats.lagged
        ));
        drop(done);

        let served = Served::start(sc, &self.inputs, &opts(true, true));
        let mut cursor = Cursor::new(&self.cycle);
        let count = if cfg.smoke { 8 } else { OPEN_COMMITS };
        let period = (1e9 / OPEN_RATE) as u64;
        let phase = Phase {
            commits: count,
            period_ns: Some(period),
        };
        let commits = drive(
            &served,
            sc,
            &mut cursor,
            phase,
            &mut |_| {},
            cfg,
            &mut self.report,
        );
        drain(&served, &commits, &mut self.report);
        let done = served.finish();
        let seen = done.subscribed.as_ref().expect("subscriber attached");
        let lat = latencies(&commits, &seen.arrivals, &done.watermarks, None);
        let (stats, _) = done.serve.expect("server ran");
        for (name, value) in [
            ("serve.coalesced", stats.coalesced),
            ("serve.lagged", stats.lagged),
            ("repl.queue_overflows", done.queue_overflows),
        ] {
            self.report.note(format!(
                "{name} = {value} (open loop at {OPEN_RATE} commits/s; should be 0)"
            ));
            if value > 0 {
                self.report
                    .warn(format!("{name} = {value} in the open-loop pass"));
            }
        }
        for (prefix, samples) in [
            ("serve.delivery_after_ack", &lat.delivery_after_ack),
            ("repl.watermark_after_ack", &lat.watermark_after_ack),
        ] {
            let sorted = stats::sorted(samples.clone());
            let t = stats::tail(&sorted, 99.0);
            self.report.set(
                &format!("{prefix}_p50_us"),
                us(stats::percentile(&sorted, 50.0)),
            );
            self.report.set(&format!("{prefix}_p99_us"), us(t.value));
            self.report
                .note(format!("{prefix}: tail is p{} (n = {})", t.pct, t.n));
        }
        let t = stats::tail(&stats::sorted(lat.late), 99.0);
        self.report.set("gen.late_p99_us", us(t.value));
        self.report
            .note(format!("gen.late: tail is p{} (n = {})", t.pct, t.n));
    }

    /// The four codecs, on this run's own records and deltas.
    fn codecs(&mut self) {
        let (sc, batch) = (self.sc, self.sc.batch);
        let n = self.commits.min(self.cycle.len() / batch);
        let recs: Vec<Rec> = self.cycle[..n * batch]
            .iter()
            .enumerate()
            .map(|(i, u)| Rec::Update {
                seq: i as u64 + 1,
                shard: 0,
                insert: u.is_insert(),
                rel: u.relation().0,
                tuple: u.tuple().to_vec(),
            })
            .collect();
        let per = |ns: u64, items: usize| ns as f64 / items.max(1) as f64;

        let mut framed = Vec::new();
        let t0 = now_ns();
        let mut bounds = Vec::with_capacity(recs.len());
        for rec in &recs {
            let at = framed.len();
            rec.frame(&mut framed);
            bounds.push((at + 8, framed.len()));
        }
        self.report
            .set("wal.rec_frame_ns", per(now_ns() - t0, recs.len()));
        let t0 = now_ns();
        for &(from, to) in &bounds {
            black_box(Rec::decode(&framed[from..to]).expect("own record decodes"));
        }
        self.report
            .set("wal.rec_decode_ns", per(now_ns() - t0, recs.len()));

        let t0 = now_ns();
        let frames: Vec<Vec<u8>> = recs.chunks(batch).map(encode_records_frame).collect();
        self.report
            .set("repl.records_encode_ns", per(now_ns() - t0, frames.len()));
        let t0 = now_ns();
        for frame in &frames {
            // Length prefix and tag precede the record run.
            black_box(decode_records(&frame[5..]).expect("own frame decodes"));
        }
        self.report
            .set("repl.records_decode_ns", per(now_ns() - t0, frames.len()));

        // Deltas of the followed query, from a session with a subscriber.
        let followed = sc.queries[0].0;
        let mut session = build_session(sc, None);
        load(&self.inputs.script.preload, |c| {
            session.apply_batch(c).expect("preload applies");
        });
        let handle = session.query(followed).expect("query exists");
        let sub = handle.subscribe();
        let snapshot = encode_snapshot_frame(followed, session.seq(), &handle.results_sorted());
        replay(&self.cycle, batch, n, |updates| {
            session.apply_batch(updates).expect("commit applies");
        });
        let events = sub.drain();
        let t0 = now_ns();
        let wire: Vec<Vec<u8>> = events
            .iter()
            .map(|e| encode_delta_frame(followed, e.seq, &e.added, &e.removed))
            .collect();
        self.report
            .set("serve.encode_ns_per_frame", per(now_ns() - t0, wire.len()));
        let t0 = now_ns();
        let decoded: Vec<Frame> = wire
            .iter()
            .map(|bytes| Frame::decode_body(&bytes[4..]).expect("own frame decodes"))
            .collect();
        self.report.set(
            "serve.decode_ns_per_frame",
            per(now_ns() - t0, decoded.len()),
        );
        let mut mirror = Mirror::new();
        mirror.apply(
            followed,
            &Frame::decode_body(&snapshot[4..]).expect("snapshot decodes"),
        );
        let t0 = now_ns();
        for frame in &decoded {
            mirror.apply(followed, frame);
        }
        self.report
            .set("serve.mirror_apply_ns", per(now_ns() - t0, decoded.len()));
        let want = session
            .query(followed)
            .expect("query exists")
            .results_sorted();
        self.report.check(mirror.rows_sorted() == want, || {
            format!(
                "mirror folded from {} encoded deltas differs from the session",
                decoded.len()
            )
        });
    }
}

/// Runs the ladder for one workload and returns every per-layer metric
/// except `obs.overhead_pct`.
pub fn run(sc: &Scenario, cfg: &RunCfg) -> Report {
    let scale = if cfg.smoke {
        sc.small_scale
    } else {
        sc.ladder_scale
    };
    let inputs = sc.inputs(scale, sc.steps_at(scale), cfg.seed);
    let cycle = inputs.script.cycle(|_| true, sc.batch);
    let scaled = |full: usize| if cfg.smoke { 16 } else { full };
    let mut l = Ladder {
        sc,
        cycle,
        commits: scaled((RUNG_UPDATES / sc.batch).max(MIN_COMMITS)),
        slow_commits: scaled(FLUSH_COMMITS),
        served_commits: scaled(SERVED_COMMITS),
        report: Report::default(),
        rungs: Vec::new(),
        inputs,
    };
    l.report.note(format!(
        "ladder: {} at scale {scale} ({} tuples), {} commits of {} per in-memory rung",
        sc.name,
        l.inputs.script.preload.len(),
        l.commits,
        sc.batch
    ));
    l.engines();
    l.flatness(cfg);
    l.sessions();
    l.durable();
    l.served(cfg);
    l.codecs();

    let floor = l.report.values["dynamic.apply_ns"];
    for (name, ns, beneath) in l.rungs.clone() {
        let stacked_on = beneath.map_or(0.0, |b| l.value(b));
        l.report.note(format!(
            "rung {name:<10} {ns:>12.1} ns/update  self {:>+12.1} (over {:<8}) {:>9.2}x over QhEngine::apply ({floor:.1} ns)",
            self_time(ns, stacked_on),
            beneath.unwrap_or("nothing"),
            ns / floor
        ));
    }
    l.report.attempted += (l.rungs.len() * l.commits) as u64;
    l.report
}
