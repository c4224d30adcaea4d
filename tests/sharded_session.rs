//! Equivalence suite for the sharded writer subsystem: a
//! [`ShardedSession`] must be observationally identical to a
//! single-writer [`Session`] registered with the same queries — pins,
//! subscriptions, batches, transactions, rollbacks — while its pins stay
//! exact against the brute-force `timeline[seq]` ground truth.
//!
//! The query set spans every auto-route the classifier knows (plain
//! q-hierarchical, via-core, delta-IVM fallback) across three shards,
//! with two queries sharing a shard, so the routing, netting, and
//! publication paths are all exercised per shard.

use cq_updates::prelude::*;
use cqu_testutil::{cancelling_pairs, random_updates, result_timeline, Lcg, WorkloadConfig};
use proptest::prelude::*;

/// Workload scale, shared with the concurrent suite's CI stress matrix:
/// the equivalence proptests derive their script lengths from
/// `CQ_STRESS_STEPS` so the release-mode matrix cells actually grow the
/// covered interleavings instead of re-running one fixed size.
fn stress_steps(default: usize) -> usize {
    std::env::var("CQ_STRESS_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The sharded query zoo: three footprint components, four queries, all
/// three engine routes.
const SHARDED: &[(&str, &str, RouteReason)] = &[
    (
        "qh",
        "Q(x, y) :- E(x, y), T(y).",
        RouteReason::QHierarchical,
    ),
    ("qh2", "Q(y) :- T(y).", RouteReason::QHierarchical),
    (
        "via_core",
        "Q() :- F(x,x), F(x,y), F(y,y).",
        RouteReason::QHierarchicalCore,
    ),
    (
        "ivm",
        "Q(x, y) :- S(x), G(x, y), U(y).",
        RouteReason::Fallback,
    ),
];

/// Builds the sharded session and its single-writer twin: same queries,
/// same registration order, hence the same interned relation ids.
fn twins() -> (ShardedSession, Session) {
    let mut b = ShardedSessionBuilder::new();
    let mut single = Session::new();
    for (name, src, _) in SHARDED {
        b.register(name, src).unwrap();
        single.register(name, src).unwrap();
    }
    let sharded = b.build().unwrap();
    assert_eq!(sharded.shard_count(), 3, "{{E,T}}, {{F}}, {{S,G,U}}");
    assert_eq!(
        sharded.shard_of_query("qh").unwrap(),
        sharded.shard_of_query("qh2").unwrap(),
        "T is shared, so qh and qh2 must co-locate"
    );
    (sharded, single)
}

/// Mixed + cancelling churn over the full union schema (every relation,
/// every shard).
fn churny_script(schema: &Schema, seed: u64, steps: usize) -> Vec<Update> {
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
        seed ^ 0x5A5A,
        WorkloadConfig {
            steps: steps / 3,
            domain: 4,
            insert_permille: 1000,
        },
    );
    script.extend(cancelling_pairs(&flips));
    script
}

#[test]
fn routing_is_preserved_across_shards() {
    let (sharded, single) = twins();
    for (name, _, reason) in SHARDED {
        let sharded_kind = sharded
            .read_shard(name, |s| s.query(name).unwrap().kind())
            .unwrap();
        let sharded_reason = sharded
            .read_shard(name, |s| s.query(name).unwrap().route_reason())
            .unwrap();
        assert_eq!(sharded_kind, single.query(name).unwrap().kind());
        assert_eq!(sharded_reason, *reason);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Apply-only streams: after every update, for every routed query,
    /// four views agree — the sharded locked snapshot, the sharded
    /// lock-free pin (at its own stamp), the single-writer snapshot, and
    /// the brute-force timeline frame of each stamp. Subscriptions on
    /// both sides then deliver bit-identical event sequences,
    /// *including* the global `seq` stamps.
    #[test]
    fn sharded_pins_and_feeds_equal_single_writer_and_timeline(seed in 0u64..1_000_000) {
        let (sharded, mut single) = twins();
        let schema = single.schema().clone();
        // Default ~42-step scripts; the CI stress matrix scales this up
        // (8 proptest cases per run, so a sixth of the raw knob).
        let script = churny_script(&schema, seed, stress_steps(252) / 6);
        let timelines: Vec<_> = SHARDED
            .iter()
            .map(|(name, _, _)| {
                let q = single.query(name).unwrap().query().clone();
                result_timeline(&schema, &q, &script)
            })
            .collect();
        let sharded_feeds: Vec<_> = SHARDED
            .iter()
            .map(|(name, _, _)| sharded.subscribe(name).unwrap())
            .collect();
        let single_feeds: Vec<_> = SHARDED
            .iter()
            .map(|(name, _, _)| single.query(name).unwrap().subscribe())
            .collect();
        let readers: Vec<PinReader> = SHARDED
            .iter()
            .map(|(name, _, _)| sharded.reader(name).unwrap())
            .collect();

        for u in &script {
            let changed_sharded = sharded.apply(u).unwrap();
            let changed_single = single.apply(u).unwrap();
            prop_assert_eq!(changed_sharded, changed_single, "effectiveness diverged");
            prop_assert_eq!(sharded.seq(), single.seq(), "global seq diverged");
            for (i, (name, _, _)) in SHARDED.iter().enumerate() {
                let snap = sharded.snapshot(name).unwrap();
                let expect = single.query(name).unwrap().results_sorted();
                prop_assert_eq!(
                    snap.results_sorted(), expect.clone(),
                    "{}: sharded snapshot diverged from single writer", name
                );
                prop_assert_eq!(
                    &timelines[i][snap.seq() as usize], &expect,
                    "{}: sharded stamp {} is not the exact frame", name, snap.seq()
                );
                let pin = readers[i].pin();
                prop_assert!(pin.seq() <= single.seq());
                prop_assert_eq!(
                    pin.results_sorted(),
                    timelines[i][pin.seq() as usize].clone(),
                    "{}: lock-free pin is torn", name
                );
            }
        }
        for (i, (name, _, _)) in SHARDED.iter().enumerate() {
            let a = sharded_feeds[i].drain();
            let b = single_feeds[i].drain();
            prop_assert_eq!(a.len(), b.len(), "{}: event counts diverged", name);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.seq, y.seq, "{}: event stamps diverged", name);
                prop_assert_eq!(&x.added, &y.added, "{}: added diverged", name);
                prop_assert_eq!(&x.removed, &y.removed, "{}: removed diverged", name);
            }
        }
    }

    /// Mixed command streams — single applies, multi-shard batches,
    /// committed transactions, rolled-back transactions — leave the
    /// sharded session and its single-writer twin in identical states at
    /// every step, consume identical sequence-number budgets, and
    /// deliver identical event payloads (rollbacks deliver nothing).
    #[test]
    fn sharded_batches_and_transactions_equal_single_writer(seed in 0u64..1_000_000) {
        let (sharded, mut single) = twins();
        let schema = single.schema().clone();
        let mut rng = Lcg::new(seed);
        let sharded_feeds: Vec<_> = SHARDED
            .iter()
            .map(|(name, _, _)| sharded.subscribe(name).unwrap())
            .collect();
        let single_feeds: Vec<_> = SHARDED
            .iter()
            .map(|(name, _, _)| single.query(name).unwrap().subscribe())
            .collect();

        for round in 0..(stress_steps(240) / 10) as u64 {
            let chunk = random_updates(
                &schema,
                seed ^ (round + 1),
                WorkloadConfig {
                    steps: 1 + rng.below(5),
                    domain: 4,
                    insert_permille: 550,
                },
            );
            match rng.below(4) {
                // Single applies.
                0 => {
                    for u in &chunk {
                        let a = sharded.apply(u).unwrap();
                        let b = single.apply(u).unwrap();
                        prop_assert_eq!(a, b);
                    }
                }
                // One batch — usually spanning several shards.
                1 => {
                    let a = sharded.apply_batch(&chunk).unwrap();
                    let b = single.apply_batch(&chunk).unwrap();
                    prop_assert_eq!(a.applied, b.applied);
                    prop_assert_eq!(a.total, b.total);
                }
                // Committed cross-shard transaction.
                2 => {
                    let a = sharded
                        .transaction(|tx| tx.apply_all(&chunk))
                        .unwrap();
                    let mut txn = single.transaction();
                    let b = txn.apply_all(&chunk).unwrap();
                    txn.commit();
                    prop_assert_eq!(a, b);
                }
                // Rolled-back cross-shard transaction: no state change,
                // no events; the forward updates burn seq numbers (they
                // cannot be returned once drawn) but the compensating
                // inverses draw none — identically on both sides.
                _ => {
                    let err = sharded
                        .transaction::<usize>(|tx| {
                            tx.apply_all(&chunk)?;
                            Err(CqError::UnknownQuery("rollback".into()))
                        })
                        .unwrap_err();
                    prop_assert!(matches!(err, CqError::UnknownQuery(_)));
                    let mut txn = single.transaction();
                    txn.apply_all(&chunk).unwrap();
                    txn.rollback();
                }
            }
            prop_assert_eq!(sharded.seq(), single.seq(), "seq budgets diverged");
            prop_assert_eq!(
                sharded.generation().unwrap(),
                single.database().generation(),
                "total effective changes diverged"
            );
            for (name, _, _) in SHARDED {
                prop_assert_eq!(
                    sharded.count(name).unwrap(),
                    single.query(name).unwrap().count(),
                    "{}: counts diverged", name
                );
                prop_assert_eq!(
                    sharded.snapshot(name).unwrap().results_sorted(),
                    single.query(name).unwrap().results_sorted(),
                    "{}: results diverged", name
                );
            }
        }
        // Events agree end to end, stamps included: a multi-shard batch
        // or transaction stamps every shard with the commit's last seq.
        for (i, (name, _, _)) in SHARDED.iter().enumerate() {
            let a = sharded_feeds[i].drain();
            let b = single_feeds[i].drain();
            prop_assert_eq!(a.len(), b.len(), "{}: event counts diverged", name);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.seq, y.seq, "{}: stamps diverged", name);
                prop_assert_eq!(&x.added, &y.added, "{}: added diverged", name);
                prop_assert_eq!(&x.removed, &y.removed, "{}: removed diverged", name);
            }
        }
    }

    /// The pinned seq budget of rollback, on both writer paths: a
    /// rolled-back transaction advances the global sequence counter by
    /// **exactly its effective forward updates** — the compensating
    /// inverses draw no numbers — and the sharded session and the
    /// single-writer session agree on the budget and on the final state.
    /// (Forward numbers cannot be un-drawn: under the sharded sessions'
    /// shared atomic counter, other writers may already hold later
    /// ones.)
    #[test]
    fn rollback_burns_forward_seqs_only(seed in 0u64..1_000_000) {
        let (sharded, mut single) = twins();
        let schema = single.schema().clone();
        let mut rng = Lcg::new(seed ^ 0xB0B0);
        for round in 0..10u64 {
            // Committed warm-up so rollbacks start from varied states.
            let warm = random_updates(
                &schema,
                seed ^ (round * 2 + 1),
                WorkloadConfig { steps: 1 + rng.below(4), domain: 4, insert_permille: 600 },
            );
            for u in &warm {
                sharded.apply(u).unwrap();
                single.apply(u).unwrap();
            }
            let chunk = random_updates(
                &schema,
                seed ^ (round * 2 + 2),
                WorkloadConfig { steps: 1 + rng.below(6), domain: 4, insert_permille: 550 },
            );
            let before = single.seq();
            prop_assert_eq!(sharded.seq(), before);
            let state: Vec<_> = SHARDED
                .iter()
                .map(|(name, _, _)| single.query(name).unwrap().results_sorted())
                .collect();

            let mut txn = single.transaction();
            let effective = txn.apply_all(&chunk).unwrap() as u64;
            txn.rollback();
            prop_assert_eq!(
                single.seq(), before + effective,
                "single writer: inverses must draw no seq numbers"
            );

            let err = sharded
                .transaction::<usize>(|tx| {
                    tx.apply_all(&chunk)?;
                    Err(CqError::UnknownQuery("rollback".into()))
                })
                .unwrap_err();
            prop_assert!(matches!(err, CqError::UnknownQuery(_)));
            prop_assert_eq!(
                sharded.seq(), before + effective,
                "sharded: rollback seq budget diverged from single writer"
            );

            // And the rollback really rolled back, on both sides.
            for (i, (name, _, _)) in SHARDED.iter().enumerate() {
                prop_assert_eq!(
                    sharded.snapshot(name).unwrap().results_sorted(),
                    state[i].clone(),
                    "{}: sharded rollback leaked state", name
                );
                prop_assert_eq!(
                    single.query(name).unwrap().results_sorted(),
                    state[i].clone(),
                    "{}: single-writer rollback leaked state", name
                );
            }
        }
    }

    /// The one behaviour the open one-shard core adds over a sealed
    /// plan: registration stays open. A [`SharedSession`] — wrapped
    /// around a session that already has history — takes late
    /// `register` calls interleaved with updates and stays identical to
    /// a plain [`Session`] driven the same way: same seqs, same
    /// snapshots, bit-identical events *including stamps*; and every
    /// locked snapshot, lock-free pin and event is exactly the
    /// `timeline[seq]` frame of its stamp.
    #[test]
    fn open_core_with_late_registration_equals_plain_session_and_timeline(
        seed in 0u64..1_000_000
    ) {
        // One script segment per query, drawn over the schema as it
        // stands once that query is registered — so every update is
        // valid when it runs, and the whole script is valid against the
        // final schema the timelines are computed over.
        let mut reference = Session::new();
        let mut segments = Vec::new();
        for (j, (name, src, _)) in SHARDED.iter().enumerate() {
            reference.register(name, src).unwrap();
            let steps = stress_steps(240) / 16;
            segments.push(churny_script(reference.schema(), seed ^ (j as u64 + 1), steps));
        }
        let schema = reference.schema().clone();
        let script = segments.concat();
        let timelines: Vec<_> = SHARDED
            .iter()
            .map(|(name, _, _)| {
                result_timeline(&schema, reference.query(name).unwrap().query(), &script)
            })
            .collect();

        let mut rng = Lcg::new(seed ^ 0x0BE7);
        let mut plain = Session::new();
        // Segment 0 runs before the wrap: the shared counter must
        // continue the preloaded session's timeline, not restart it.
        let mut preloaded = Session::new();
        for s in [&mut plain, &mut preloaded] {
            s.register(SHARDED[0].0, SHARDED[0].1).unwrap();
            for u in &segments[0] {
                s.apply(u).unwrap();
            }
        }
        let shared = SharedSession::new(preloaded);
        let mut feeds = Vec::new();
        let mut readers = Vec::new();
        for (j, (name, src, _)) in SHARDED.iter().enumerate() {
            if j > 0 {
                let id = shared.register(name, src).unwrap();
                prop_assert_eq!(id, plain.register(name, src).unwrap());
            }
            let born = plain.seq();
            prop_assert_eq!(shared.read(|s| s.seq()).unwrap(), born);
            feeds.push((
                shared.subscribe(name).unwrap(),
                plain.query(name).unwrap().subscribe(),
                timelines[j][born as usize].clone(),
            ));
            readers.push(shared.reader(name).unwrap());
            if j == 0 {
                continue; // segment 0 already ran
            }
            let mut rest = &segments[j][..];
            while !rest.is_empty() {
                let (cmd, tail) = rest.split_at((1 + rng.below(3)).min(rest.len()));
                rest = tail;
                if cmd.len() == 1 {
                    prop_assert_eq!(shared.apply(&cmd[0]).unwrap(), plain.apply(&cmd[0]).unwrap());
                } else {
                    let a = shared.apply_batch(cmd).unwrap();
                    prop_assert_eq!(a.applied, plain.apply_batch(cmd).unwrap().applied);
                }
                prop_assert_eq!(shared.read(|s| s.seq()).unwrap(), plain.seq());
                for (i, (name, _, _)) in SHARDED[..=j].iter().enumerate() {
                    let snap = shared.snapshot(name).unwrap();
                    prop_assert_eq!(snap.seq(), plain.seq());
                    prop_assert_eq!(
                        snap.results_sorted(),
                        plain.query(name).unwrap().results_sorted(),
                        "{}: shared snapshot diverged from the plain session", name
                    );
                    prop_assert_eq!(
                        &snap.results_sorted(), &timelines[i][snap.seq() as usize],
                        "{}: stamp {} is not the exact frame", name, snap.seq()
                    );
                    let pin = readers[i].pin();
                    prop_assert_eq!(
                        &pin.results_sorted(), &timelines[i][pin.seq() as usize],
                        "{}: lock-free pin is torn", name
                    );
                }
            }
        }
        for (i, (name, _, _)) in SHARDED.iter().enumerate() {
            let (shared_feed, plain_feed, start) = &feeds[i];
            let a = shared_feed.drain();
            let b = plain_feed.drain();
            prop_assert_eq!(a.len(), b.len(), "{}: event counts diverged", name);
            let mut mirror: std::collections::BTreeSet<_> = start.iter().cloned().collect();
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x, y, "{}: events diverged", name);
                for row in &x.removed {
                    prop_assert!(mirror.remove(row));
                }
                for row in &x.added {
                    prop_assert!(mirror.insert(row.clone()));
                }
                let frame: Vec<_> = mirror.iter().cloned().collect();
                prop_assert_eq!(
                    &frame, &timelines[i][x.seq as usize],
                    "{}: event stamp {} is not the frame it leads to", name, x.seq
                );
            }
        }
        // The last handle gives the session back, still on the timeline.
        drop(readers);
        let mut back = shared.try_unwrap().expect("last handle");
        prop_assert_eq!(back.seq(), plain.seq());
        let u = Update::Insert(back.relation("T").unwrap(), vec![999]);
        prop_assert_eq!(back.apply(&u).unwrap(), plain.apply(&u).unwrap());
        prop_assert_eq!(back.seq(), plain.seq());
    }
}

/// Scoped transactions (`transaction_over`) are equivalent to whole-
/// session transactions when the updates respect the footprint — and
/// the out-of-scope error leaves the in-scope prefix committable.
#[test]
fn scoped_transaction_equals_full_transaction_within_footprint() {
    let (sharded, mut single) = twins();
    let e = sharded.relation("E").unwrap();
    let t = sharded.relation("T").unwrap();
    let f = sharded.relation("F").unwrap();
    let script = [
        Update::Insert(e, vec![1, 2]),
        Update::Insert(t, vec![2]),
        Update::Insert(t, vec![3]),
        Update::Delete(t, vec![3]),
    ];
    sharded
        .transaction_over(&[e, t], |tx| tx.apply_all(&script))
        .unwrap();
    let mut txn = single.transaction();
    txn.apply_all(&script).unwrap();
    txn.commit();
    for (name, _, _) in SHARDED {
        assert_eq!(
            sharded.snapshot(name).unwrap().results_sorted(),
            single.query(name).unwrap().results_sorted()
        );
    }
    // An out-of-scope update errors without killing the transaction; the
    // caller commits the in-scope work by returning Ok.
    sharded
        .transaction_over(&[e, t], |tx| {
            tx.apply(&Update::Insert(e, vec![9, 2]))?;
            assert!(matches!(
                tx.apply(&Update::Insert(f, vec![1, 1])),
                Err(CqError::OutOfShardScope { .. })
            ));
            Ok(())
        })
        .unwrap();
    assert_eq!(sharded.count("qh").unwrap(), 2);
    assert_eq!(sharded.count("via_core").unwrap(), 0, "F never entered");
}

/// Epoch generation stamps are footprint-granular: a query's snapshot
/// generation moves only when one of *its own* relations changes —
/// foreign traffic (another shard, or a co-located sibling query's
/// relation) leaves it untouched, on the sharded session and the plain
/// session alike.
#[test]
fn footprint_generation_ignores_foreign_traffic() {
    let (sharded, mut single) = twins();
    let e = sharded.relation("E").unwrap();
    let t = sharded.relation("T").unwrap();
    let f = sharded.relation("F").unwrap();
    for u in [Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])] {
        sharded.apply(&u).unwrap();
        single.apply(&u).unwrap();
    }
    let qh_gen = sharded.snapshot("qh").unwrap().generation();
    assert_eq!(qh_gen, single.query("qh").unwrap().snapshot().generation());
    assert_eq!(qh_gen, 2, "two effective changes on qh's own footprint");
    // qh2's footprint is {T} only: E's change must not have moved it.
    assert_eq!(sharded.snapshot("qh2").unwrap().generation(), 2);
    single.apply(&Update::Insert(f, vec![5, 5])).unwrap();
    sharded.apply(&Update::Insert(f, vec![5, 5])).unwrap();
    assert_eq!(
        sharded.snapshot("qh").unwrap().generation(),
        qh_gen,
        "foreign-shard traffic must not move qh's stamp"
    );
    assert_eq!(single.query("qh").unwrap().snapshot().generation(), qh_gen);
    assert!(sharded.snapshot("via_core").unwrap().generation() > 0);
    // A write to qh's own footprint moves it again.
    sharded.apply(&Update::Delete(e, vec![1, 2])).unwrap();
    assert!(sharded.snapshot("qh").unwrap().generation() > qh_gen);
}

/// Readers acquired before any update stay lock-free and exact across
/// shard traffic; epoch sharing holds per shard exactly as in a single
/// session (repin after a locked snapshot shares the allocation).
#[test]
fn lock_free_pins_share_epochs_per_shard() {
    let (sharded, _) = twins();
    let e = sharded.relation("E").unwrap();
    let t = sharded.relation("T").unwrap();
    let reader = sharded.reader("qh").unwrap();
    let genesis = reader.pin();
    assert_eq!(genesis.seq(), 0);
    assert_eq!(genesis.count(), 0);
    sharded
        .apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();
    let snap = sharded.snapshot("qh").unwrap();
    let repin = reader.pin();
    assert!(repin.shares_state_with(&snap), "one epoch per shard state");
    assert_eq!(repin.results_sorted(), vec![vec![1, 2]]);
    assert_eq!(genesis.count(), 0, "old pin unaffected by later commits");
}
