//! Concurrency tests for the thread-safe session layer: snapshot
//! isolation under a live writer, cross-thread change feeds, and the
//! `Arc<ChangeEvent>` fan-out contract.
//!
//! The ground truth throughout is the shared `cqu-testutil` harness:
//! [`result_timeline`] brute-forces the query result after every
//! effective update of a script, so a snapshot pinned at session
//! sequence number `k` must equal `timeline[k]` *exactly* — one tuple
//! off, one tuple torn between two states, and the test fails.
//!
//! The stress dimensions scale with `CQ_STRESS_STEPS` (script length,
//! default 240) for the release-mode CI job.

use cq_updates::prelude::*;
use cq_updates::storage::Tuple;
use cqu_testutil::{cancelling_pairs, random_updates, result_timeline, WorkloadConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Script length, overridable for the release-mode stress CI job.
fn stress_steps(default: usize) -> usize {
    std::env::var("CQ_STRESS_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Reader-thread count, overridable for the reader-heavy CI matrix entry.
fn stress_readers(default: usize) -> usize {
    std::env::var("CQ_STRESS_READERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Shard (and shard-writer-thread) count for the sharded stress cell,
/// overridable for the sharded CI matrix entries.
fn stress_shards(default: usize) -> usize {
    std::env::var("CQ_STRESS_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

const EASY: &str = "Q(x, y) :- E(x, y), T(y)."; // q-hierarchical
const HARD: &str = "Q(x, y) :- S(x), E(x, y), T(y)."; // delta-IVM fallback

/// A churn-heavy script over the session schema: mixed random updates
/// followed by cancelling insert/delete pairs, so results keep flipping
/// while the net state stays put — maximal opportunity for torn reads.
fn churny_script(schema: &cq_updates::query::Schema, seed: u64, steps: usize) -> Vec<Update> {
    let mut script = random_updates(
        schema,
        seed,
        WorkloadConfig {
            steps,
            domain: 4,
            insert_permille: 550,
        },
    );
    let flips = random_updates(
        schema,
        seed ^ 0xF11F,
        WorkloadConfig {
            steps: steps / 3,
            domain: 4,
            insert_permille: 1000,
        },
    );
    script.extend(cancelling_pairs(&flips));
    script
}

/// The tentpole acceptance criterion, single-threaded: a snapshot taken
/// before an update still enumerates the pre-update result after the
/// update commits — on both the q-hierarchical engine (structure-clone
/// pin) and the delta-IVM fallback (view-clone pin).
#[test]
fn snapshot_pins_pre_update_result() {
    let mut s = Session::new();
    s.register("easy", EASY).unwrap();
    s.register("hard", HARD).unwrap();
    let e = s.relation("E").unwrap();
    let t = s.relation("T").unwrap();
    let sr = s.relation("S").unwrap();
    s.apply_batch(&[
        Update::Insert(e, vec![1, 2]),
        Update::Insert(t, vec![2]),
        Update::Insert(sr, vec![1]),
    ])
    .unwrap();

    let easy_before = s.query("easy").unwrap().results_sorted();
    let hard_before = s.query("hard").unwrap().results_sorted();
    let easy_snap = s.query("easy").unwrap().snapshot();
    let hard_snap = s.query("hard").unwrap().snapshot();
    assert_eq!(easy_before, vec![vec![1, 2]]);
    assert_eq!(hard_before, vec![vec![1, 2]]);

    // Change both results: grow one join, cut the other's support.
    s.apply(&Update::Insert(e, vec![3, 2])).unwrap();
    s.apply(&Update::Delete(sr, vec![1])).unwrap();
    assert_eq!(s.query("easy").unwrap().count(), 2);
    assert_eq!(s.query("hard").unwrap().count(), 0);

    // The pins still answer from their pre-update state.
    assert_eq!(easy_snap.results_sorted(), easy_before);
    assert_eq!(hard_snap.results_sorted(), hard_before);
    assert_eq!(easy_snap.count(), 1);
    assert!(hard_snap.answer());
    assert_eq!(easy_snap.kind(), EngineKind::QHierarchical);
    assert_eq!(hard_snap.kind(), EngineKind::DeltaIvm);

    // Repinning without an intervening update reuses the cached pin;
    // the next update stales it.
    let again = s.query("easy").unwrap().snapshot();
    assert_eq!(again.count(), 2);
    let repin = s.query("easy").unwrap().snapshot();
    assert_eq!(repin.seq(), again.seq());
    s.apply(&Update::Delete(e, vec![3, 2])).unwrap();
    assert_eq!(s.query("easy").unwrap().snapshot().count(), 1);
    assert_eq!(again.count(), 2, "older pin unaffected");
}

/// The stress test: N reader threads pin snapshots from both routed
/// engines while one writer thread applies churn (mixed + cancelling).
/// Every snapshot must equal the frozen brute-force recompute of its
/// pinned sequence number — no torn results, ever.
#[test]
fn concurrent_readers_never_observe_torn_snapshots() {
    let readers_n = stress_readers(4);
    let steps = stress_steps(240);

    let mut session = Session::new();
    session.register("easy", EASY).unwrap();
    session.register("hard", HARD).unwrap();
    let schema = session.schema().clone();
    let easy_q = session.query("easy").unwrap().query().clone();
    let hard_q = session.query("hard").unwrap().query().clone();
    let script = churny_script(&schema, 0xD1CE, steps);
    let easy_tl = Arc::new(result_timeline(&schema, &easy_q, &script));
    let hard_tl = Arc::new(result_timeline(&schema, &hard_q, &script));

    let shared = SharedSession::new(session);
    let done = Arc::new(AtomicBool::new(false));
    let pins = Arc::new(AtomicU64::new(0));

    let writer = {
        let shared = shared.clone();
        let done = Arc::clone(&done);
        thread::spawn(move || {
            for u in &script {
                shared.apply(u).unwrap();
            }
            done.store(true, Ordering::Release);
        })
    };

    let readers: Vec<_> = (0..readers_n)
        .map(|r| {
            let shared = shared.clone();
            let done = Arc::clone(&done);
            let pins = Arc::clone(&pins);
            let (easy_tl, hard_tl) = (Arc::clone(&easy_tl), Arc::clone(&hard_tl));
            thread::spawn(move || {
                // Lock-free pin endpoints, acquired once up front.
                let easy_pr = shared.reader("easy").unwrap();
                let hard_pr = shared.reader("hard").unwrap();
                let mut last_seq = 0;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    for (name, tl) in [("easy", &easy_tl), ("hard", &hard_tl)] {
                        let snap = shared.snapshot(name).unwrap();
                        let expected = &tl[snap.seq() as usize];
                        let rows = snap.results_sorted();
                        assert_eq!(
                            &rows,
                            expected,
                            "reader {r}: torn snapshot of {name} at seq {}",
                            snap.seq()
                        );
                        assert_eq!(snap.count() as usize, rows.len());
                        assert_eq!(snap.answer(), !rows.is_empty());
                        assert!(snap.seq() >= last_seq, "seq went backwards");
                        last_seq = snap.seq();
                        pins.fetch_add(1, Ordering::Relaxed);
                    }
                    // Lock-free epoch pins race the writer too: whatever
                    // epoch they catch, its stamp and rows must be one
                    // exact timeline frame.
                    for (name, pr, tl) in
                        [("easy", &easy_pr, &easy_tl), ("hard", &hard_pr, &hard_tl)]
                    {
                        let pin = pr.pin();
                        let rows = pin.results_sorted();
                        assert_eq!(
                            &rows,
                            &tl[pin.seq() as usize],
                            "reader {r}: torn lock-free pin of {name} at seq {}",
                            pin.seq()
                        );
                        assert_eq!(pin.count() as usize, rows.len());
                        pins.fetch_add(1, Ordering::Relaxed);
                    }
                    // O(1) reads under the read lock stay coherent too.
                    shared
                        .read(|s| {
                            let h = s.query("easy").unwrap();
                            assert_eq!(
                                h.count() as usize,
                                easy_tl[s.seq() as usize].len(),
                                "reader {r}: live count diverged from timeline"
                            );
                        })
                        .unwrap();
                    if finished {
                        break;
                    }
                }
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    for reader in readers {
        reader.join().expect("reader observed a torn snapshot");
    }

    // Every effective update landed: the final state is the last frame.
    let final_seq = (easy_tl.len() - 1) as u64;
    let easy_fin = shared.snapshot("easy").unwrap();
    let hard_fin = shared.snapshot("hard").unwrap();
    assert_eq!(easy_fin.seq(), final_seq);
    assert_eq!(&easy_fin.results_sorted(), easy_tl.last().unwrap());
    assert_eq!(&hard_fin.results_sorted(), hard_tl.last().unwrap());
    assert!(
        pins.load(Ordering::Relaxed) >= (readers_n * 2) as u64,
        "readers must have pinned at least once each"
    );
}

/// A writer committing back to back does not starve a thread acquiring
/// its `PinReader` (the one read that takes the shard lock before going
/// lock-free): each commit first lets in the acquisitions the previous
/// one blocked, so ten of them finish within a few commits of a burst,
/// not after it.
#[test]
fn back_to_back_commits_do_not_starve_reader_acquisition() {
    const COMMITS: u64 = 400;
    const READS: usize = 10;
    let mut session = Session::new();
    session.register("easy", EASY).unwrap();
    let (e, t) = (
        session.relation("E").unwrap(),
        session.relation("T").unwrap(),
    );
    let shared = SharedSession::new(session);
    shared.apply(&Update::Insert(t, vec![1])).unwrap();
    // Commits long enough that a blocked reader falls asleep on the lock.
    let edges: Vec<Update> = (0..256).map(|x| Update::Insert(e, vec![x, 1])).collect();
    let removals: Vec<Update> = edges.iter().map(Update::inverse).collect();
    let committed = Arc::new(AtomicU64::new(0));
    let writer = {
        let (shared, committed) = (shared.clone(), Arc::clone(&committed));
        thread::spawn(move || {
            for i in 0..COMMITS {
                let batch = if i % 2 == 0 { &edges } else { &removals };
                shared.apply_batch(batch).unwrap();
                committed.store(i + 1, Ordering::Release);
            }
        })
    };
    while committed.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    let start = committed.load(Ordering::Acquire);
    for _ in 0..READS {
        shared.reader("easy").unwrap().pin();
    }
    let waited = committed.load(Ordering::Acquire) - start;
    writer.join().unwrap();
    assert!(
        waited < 100,
        "{READS} reader acquisitions waited out {waited} of {COMMITS} commits"
    );
}

/// The epoch tentpole's no-writer-lock guarantee: lock-free pins complete
/// (and stay exact) while a transaction holds the session write lock —
/// and they see only committed state, never the transaction's uncommitted
/// updates.
#[test]
fn pins_complete_while_writer_holds_the_lock() {
    let mut session = Session::new();
    session.register("easy", EASY).unwrap();
    session.register("hard", HARD).unwrap();
    let e = session.relation("E").unwrap();
    let t = session.relation("T").unwrap();
    let sr = session.relation("S").unwrap();
    let shared = SharedSession::new(session);
    shared
        .apply_batch(&[
            Update::Insert(e, vec![1, 2]),
            Update::Insert(t, vec![2]),
            Update::Insert(sr, vec![1]),
        ])
        .unwrap();
    // Publish fresh epochs, then acquire the lock-free endpoints.
    assert_eq!(shared.snapshot("easy").unwrap().count(), 1);
    assert_eq!(shared.snapshot("hard").unwrap().count(), 1);
    let easy = shared.reader("easy").unwrap();
    let hard = shared.reader("hard").unwrap();

    let (locked_tx, locked_rx) = channel();
    let (done_tx, done_rx) = channel::<()>();
    let writer = {
        let shared = shared.clone();
        thread::spawn(move || {
            shared
                .transaction(|txn| {
                    txn.apply(&Update::Insert(e, vec![5, 2]))?;
                    locked_tx.send(()).unwrap();
                    // Hold the write lock until the main thread finishes
                    // pinning (or give up after a generous timeout so a
                    // regression fails the elapsed assertion instead of
                    // hanging the suite).
                    let _ = done_rx.recv_timeout(Duration::from_secs(20));
                    Ok(())
                })
                .unwrap();
        })
    };

    locked_rx.recv().unwrap();
    // The write lock is held RIGHT NOW, with an uncommitted insert
    // applied. Every pin below must complete without touching it.
    let start = Instant::now();
    for _ in 0..10_000 {
        let snap = easy.pin();
        assert_eq!(
            snap.results_sorted(),
            vec![vec![1, 2]],
            "pin leaked uncommitted transaction state"
        );
        assert_eq!(hard.pin().count(), 1);
    }
    let elapsed = start.elapsed();
    done_tx.send(()).unwrap();
    writer.join().expect("writer panicked");
    assert!(
        elapsed < Duration::from_secs(10),
        "pins took {elapsed:?} — they waited on the writer lock"
    );

    // After commit the q-hierarchical epoch was republished (pins had
    // requested refresh): the lock-free path now sees the new row.
    let fresh = easy.pin();
    assert_eq!(fresh.results_sorted(), vec![vec![1, 2], vec![5, 2]]);
    // The delta-IVM epoch refreshes on the next locked pin.
    assert_eq!(shared.snapshot("hard").unwrap().count(), 1);
    assert_eq!(hard.pin().count(), 1);
}

/// One query per auto-route the classifier knows (the same trio the
/// subscription-replay suite drives).
const ROUTED: &[(&str, &str, RouteReason)] = &[
    ("qh", EASY, RouteReason::QHierarchical),
    (
        "via_core",
        "Q() :- E(x,x), E(x,y), E(y,y).",
        RouteReason::QHierarchicalCore,
    ),
    ("ivm", HARD, RouteReason::Fallback),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For every routed engine, under mixed + cancelling churn, three
    /// views agree at every step: the lock-free epoch pin (whatever
    /// epoch it catches), the locked full snapshot, and the brute-force
    /// timeline frame of each one's pinned sequence number.
    #[test]
    fn epoch_pins_equal_locked_snapshots_and_timeline(seed in 0u64..1_000_000) {
        let mut session = Session::new();
        for (name, src, reason) in ROUTED {
            session.register(name, src).unwrap();
            prop_assert_eq!(session.query(name).unwrap().route_reason(), *reason);
        }
        let schema = session.schema().clone();
        let script = churny_script(&schema, seed, 48);
        let timelines: Vec<_> = ROUTED
            .iter()
            .map(|(name, _, _)| {
                let q = session.query(name).unwrap().query().clone();
                result_timeline(&schema, &q, &script)
            })
            .collect();
        let readers: Vec<PinReader> = ROUTED
            .iter()
            .map(|(name, _, _)| session.query(name).unwrap().pin_reader())
            .collect();

        for u in &script {
            session.apply(u).unwrap();
            let seq = session.seq() as usize;
            for (i, (name, _, _)) in ROUTED.iter().enumerate() {
                // A pin taken before anyone re-pinned under the lock may
                // lag the writer — but must still be one exact frame.
                let early = readers[i].pin();
                prop_assert!(early.seq() as usize <= seq);
                prop_assert_eq!(
                    early.results_sorted(),
                    timelines[i][early.seq() as usize].clone(),
                    "{}: stale pin is torn", name
                );
                // The locked snapshot is exact and current…
                let snap = session.query(name).unwrap().snapshot();
                prop_assert_eq!(snap.seq() as usize, seq);
                prop_assert_eq!(
                    snap.results_sorted(),
                    timelines[i][seq].clone(),
                    "{}: locked snapshot diverged", name
                );
                // …and afterwards the lock-free pin shares the very same
                // pinned state allocation (the published — possibly
                // cached, for queries this update didn't touch — epoch),
                // at a stamp that is itself an exact frame.
                let repin = readers[i].pin();
                prop_assert!(repin.seq() as usize <= seq);
                prop_assert!(
                    repin.shares_state_with(&snap),
                    "{}: repin after publication must share the epoch", name
                );
                prop_assert_eq!(
                    repin.results_sorted(),
                    timelines[i][repin.seq() as usize].clone(),
                    "{}: repin stamp is not an exact frame", name
                );
            }
        }
    }
}

/// The sharded-writer stress: one writer thread **per shard** commits
/// its own footprint's churn in parallel (no cross-shard lock exists to
/// serialize them) while reader threads pin every query through both
/// the lock-free and the locked path. Every pinned result must be an
/// exact brute-force frame of its own shard's update prefix — one torn
/// tuple and the frame-set lookup fails — and per-query stamps must
/// never go backwards. Scaled by `CQ_STRESS_SHARDS` ×
/// `CQ_STRESS_READERS` × `CQ_STRESS_STEPS` in the CI matrix.
#[test]
fn sharded_parallel_writers_never_tear_snapshots() {
    use std::collections::HashSet;

    let shards_n = stress_shards(2);
    let readers_n = stress_readers(4);
    let steps = stress_steps(240);

    let mut b = ShardedSessionBuilder::new();
    for i in 0..shards_n {
        b.register(
            &format!("q{i}"),
            &format!("Q(x, y) :- E{i}(x, y), T{i}(y)."),
        )
        .unwrap();
    }
    let sharded = b.build().unwrap();
    assert_eq!(sharded.shard_count(), shards_n, "disjoint families");

    // Per-family churny scripts (expressed in the session schema) and
    // their frozen brute-force frame sets.
    let schema = sharded.schema().clone();
    let mut scripts: Vec<Arc<Vec<Update>>> = Vec::new();
    let mut frame_sets: Vec<Arc<HashSet<Vec<Tuple>>>> = Vec::new();
    let mut finals: Vec<Vec<Tuple>> = Vec::new();
    let mut total_effective = 0u64;
    for i in 0..shards_n {
        let fam = parse_query(&format!("Q(x, y) :- E{i}(x, y), T{i}(y).")).unwrap();
        let local = churny_script(fam.schema(), 0xBEEF ^ i as u64, steps / shards_n.max(1));
        let script: Vec<Update> = local
            .iter()
            .map(|u| {
                let rel = schema.relation(fam.schema().name(u.relation())).unwrap();
                match u {
                    Update::Insert(_, t) => Update::Insert(rel, t.clone()),
                    Update::Delete(_, t) => Update::Delete(rel, t.clone()),
                }
            })
            .collect();
        let query = sharded
            .read_shard(&format!("q{i}"), |s| {
                s.query(&format!("q{i}")).unwrap().query().clone()
            })
            .unwrap();
        let timeline = result_timeline(&schema, &query, &script);
        total_effective += (timeline.len() - 1) as u64;
        finals.push(timeline.last().unwrap().clone());
        frame_sets.push(Arc::new(timeline.into_iter().collect()));
        scripts.push(Arc::new(script));
    }

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..shards_n)
        .map(|i| {
            let sharded = sharded.clone();
            let script = Arc::clone(&scripts[i]);
            thread::spawn(move || {
                for u in script.iter() {
                    sharded.apply(u).unwrap();
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..readers_n)
        .map(|r| {
            let sharded = sharded.clone();
            let done = Arc::clone(&done);
            let frame_sets = frame_sets.clone();
            thread::spawn(move || {
                let pins: Vec<PinReader> = (0..frame_sets.len())
                    .map(|i| sharded.reader(&format!("q{i}")).unwrap())
                    .collect();
                let mut last_seq = vec![0u64; frame_sets.len()];
                loop {
                    let finished = done.load(Ordering::Acquire);
                    for (i, frames) in frame_sets.iter().enumerate() {
                        for snap in [pins[i].pin(), sharded.snapshot(&format!("q{i}")).unwrap()] {
                            let rows = snap.results_sorted();
                            assert!(
                                frames.contains(&rows),
                                "reader {r}: q{i} pinned a torn frame at seq {}",
                                snap.seq()
                            );
                            assert_eq!(snap.count() as usize, rows.len());
                            assert_eq!(snap.answer(), !rows.is_empty());
                        }
                        // The *locked* snapshot stamp is per-query
                        // monotone (its shard serializes that query's
                        // updates; foreign shards never move it back).
                        let snap = sharded.snapshot(&format!("q{i}")).unwrap();
                        assert!(
                            snap.seq() >= last_seq[i],
                            "reader {r}: q{i} seq went backwards"
                        );
                        last_seq[i] = snap.seq();
                    }
                    if finished {
                        break;
                    }
                }
            })
        })
        .collect();

    for w in writers {
        w.join().expect("shard writer panicked");
    }
    done.store(true, Ordering::Release);
    for r in readers {
        r.join().expect("reader observed a torn sharded snapshot");
    }

    // Every shard's full script landed; the global counter accounted for
    // every effective update exactly once.
    assert_eq!(sharded.seq(), total_effective);
    for (i, fin) in finals.iter().enumerate() {
        let snap = sharded.snapshot(&format!("q{i}")).unwrap();
        assert_eq!(&snap.results_sorted(), fin, "q{i} final state diverged");
    }
}

/// Snapshots outlive the session entirely: pin, drop everything, read.
#[test]
fn snapshots_outlive_the_session() {
    let mut s = Session::new();
    s.register("easy", EASY).unwrap();
    let e = s.relation("E").unwrap();
    let t = s.relation("T").unwrap();
    s.apply_batch(&[Update::Insert(e, vec![7, 8]), Update::Insert(t, vec![8])])
        .unwrap();
    let snap = s.query("easy").unwrap().snapshot();
    drop(s);
    let from_other_thread = thread::spawn(move || snap.results_sorted()).join().unwrap();
    assert_eq!(from_other_thread, vec![vec![7, 8]]);
}

/// `SharedSession::transaction` commits on `Ok` and rolls back — with
/// silent feeds — on `Err`.
#[test]
fn shared_transaction_commits_on_ok_and_rolls_back_on_err() {
    let mut session = Session::new();
    session.register("easy", EASY).unwrap();
    let e = session.relation("E").unwrap();
    let t = session.relation("T").unwrap();
    let shared = SharedSession::new(session);
    let feed = shared.subscribe("easy").unwrap();

    shared
        .transaction(|txn| {
            txn.apply(&Update::Insert(e, vec![1, 2]))?;
            txn.apply(&Update::Insert(t, vec![2]))?;
            Ok(())
        })
        .unwrap();
    assert_eq!(shared.count("easy").unwrap(), 1);
    let events = feed.drain();
    assert_eq!(events.len(), 1, "one net event per committed transaction");
    assert_eq!(events[0].added, vec![vec![1, 2]]);

    let err = shared
        .transaction::<()>(|txn| {
            txn.apply(&Update::Insert(e, vec![9, 2]))?;
            Err(CqError::UnknownQuery("abort".into()))
        })
        .unwrap_err();
    assert!(matches!(err, CqError::UnknownQuery(_)));
    assert_eq!(shared.count("easy").unwrap(), 1, "rolled back");
    assert!(feed.drain().is_empty(), "rollback publishes nothing");
}

/// Runs `f` on a thread of its own and fails if it has not returned
/// within `limit`, so a call that deadlocks fails the test instead of
/// hanging the suite. The stuck thread is left behind.
fn under_watchdog<R: Send + 'static>(
    what: &str,
    limit: Duration,
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what}: no return within {limit:?}, a deadlock"))
}

/// Resolving a relation by name inside a transaction closure returns:
/// the closure holds the shard locks, and `relation` takes none. That
/// holds on every face that offers both calls — the open one-shard core
/// behind `SharedSession` and an unsharded `DurableSession`, a sealed
/// `ShardedSession` and a sharded `DurableSession` — and for a relation
/// that a registration added after the core was built.
#[test]
fn relation_resolves_inside_a_transaction_closure() {
    const LIMIT: Duration = Duration::from_secs(20);
    let mut session = Session::new();
    session.register("easy", EASY).unwrap();
    let shared = SharedSession::new(session);
    shared.register("late", "Q(x) :- Z(x).").unwrap();
    let applied = under_watchdog("SharedSession", LIMIT, move || {
        shared
            .transaction(|tx| {
                let e = shared.relation("E")?;
                let z = shared.relation("Z")?;
                tx.apply(&Update::Insert(e, vec![1, 2]))?;
                tx.apply(&Update::Insert(z, vec![3]))
            })
            .unwrap()
    });
    assert!(applied);

    let mut b = ShardedSessionBuilder::new();
    b.register("easy", EASY).unwrap();
    b.register("other", "Q(x) :- S(x).").unwrap();
    let sharded = b.build().unwrap();
    let applied = under_watchdog("ShardedSession", LIMIT, move || {
        sharded
            .transaction(|tx| tx.apply(&Update::Insert(sharded.relation("S")?, vec![1])))
            .unwrap()
    });
    assert!(applied);

    for sharded in [false, true] {
        let disk = cqu_testutil::SimDisk::new();
        let durable = if sharded {
            DurableSession::create_sharded(
                Box::new(disk),
                DurableOptions::default(),
                &[("easy", EASY)],
            )
            .unwrap()
        } else {
            let durable =
                DurableSession::create(Box::new(disk), DurableOptions::default()).unwrap();
            durable.register("easy", EASY).unwrap();
            durable
        };
        let applied = under_watchdog("DurableSession", LIMIT, move || {
            durable
                .transaction(|tx| {
                    let t = durable.relation("T").expect("T is registered");
                    tx.apply(&Update::Insert(t, vec![2]))
                })
                .unwrap()
        });
        assert!(applied, "sharded={sharded}");
    }
}

/// Satellite: two subscribers on one query observe identical event
/// sequences from a single update stream — and each event is the *same*
/// allocation (`Arc::ptr_eq`), the zero-copy fan-out contract.
#[test]
fn two_subscribers_observe_identical_event_sequences() {
    let mut s = Session::new();
    s.register("easy", EASY).unwrap();
    let schema = s.schema().clone();
    let first = s.query("easy").unwrap().subscribe();
    let second = s.query("easy").unwrap().subscribe();

    for u in random_updates(
        &schema,
        0xFA11,
        WorkloadConfig {
            steps: stress_steps(240),
            domain: 3,
            insert_permille: 600,
        },
    ) {
        s.apply(&u).unwrap();
    }

    let a = first.drain();
    let b = second.drain();
    assert!(!a.is_empty(), "churn at domain 3 must change the result");
    assert_eq!(a.len(), b.len(), "identical sequence lengths");
    for (x, y) in a.iter().zip(&b) {
        assert!(Arc::ptr_eq(x, y), "fan-out must share one allocation");
        assert_eq!(x, y);
    }
    let seqs: Vec<u64> = a.iter().map(|ev| ev.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "strictly ordered");
}
