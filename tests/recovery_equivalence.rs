//! Recovery and bootstrap from a checkpoint land on the twin that never
//! crashed.
//!
//! A durable session preloads its relations with one batch per relation,
//! in relation-id order (the order a checkpoint stores them in), deletes
//! a fact and rolls a transaction back, takes a checkpoint, and runs a
//! log tail of a single apply, a batch with a cancelling pair, a
//! committed transaction, updates that cancel across commits and a
//! rollback. The preload holds facts no q-tree item reads (`L(a, b)`
//! with `a ≠ b` against `L(x, x)`) and relations that only a delta-IVM
//! query or a Boolean component reads. A query's `generation()` is the
//! seq of the last committed update on its relations, which the log's
//! records and the checkpoint's relation stamps carry, so every one of
//! these shapes reproduces it. Then:
//!
//! * a session recovered from the disk (checkpoint plus tail), sharded
//!   and unsharded, equals the live session on `seq()`, and on every
//!   query's results, count and snapshot `generation()`;
//! * the same commit applied to both afterwards publishes the same
//!   events (seq, added, removed) on every query, and both stay equal;
//! * a follower bootstrapped off the leader's checkpoint equals the
//!   leader on the same reads.

use cq_updates::prelude::*;
use cqu_testutil::SimDisk;
use std::sync::Arc;
use std::time::Duration;

/// Every engine route and component shape the bulk build has to cover:
/// a two-level q-tree, an equality pattern, a Boolean component, two
/// components with a quantified node, and a delta-IVM query.
const QUERIES: &[(&str, &str)] = &[
    ("qh", "Q(x, y) :- E(x, y), T(y)."),
    ("loop", "Q(x) :- L(x, x)."),
    ("guard", "Q() :- B(u, v), C(v)."),
    ("multi", "Q(x, z) :- R(x), S(z, w)."),
    ("ivm", "Q(x, y) :- P(x), G(x, y), U(y)."),
];

const SYNC: Duration = Duration::from_secs(10);

fn opts() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        // Small segments, so the checkpoint prunes the preload's log and
        // a follower has to bootstrap from the checkpoint.
        segment_bytes: 4096,
        ..DurableOptions::default()
    }
}

fn create(disk: &SimDisk, sharded: bool) -> DurableSession {
    if sharded {
        DurableSession::create_sharded(Box::new(disk.clone()), opts(), QUERIES).unwrap()
    } else {
        let sess = DurableSession::create(Box::new(disk.clone()), opts()).unwrap();
        for (name, src) in QUERIES {
            sess.register(name, src).unwrap();
        }
        sess
    }
}

fn ins(sess: &DurableSession, rel: &str, t: &[Const]) -> Update {
    Update::Insert(sess.relation(rel).unwrap(), t.to_vec())
}

fn del(sess: &DurableSession, rel: &str, t: &[Const]) -> Update {
    Update::Delete(sess.relation(rel).unwrap(), t.to_vec())
}

/// The preload, per relation name: distinct tuples only.
fn preload(rel: &str) -> Vec<Vec<Const>> {
    match rel {
        "E" => (0..150).map(|i| vec![i % 17, i % 11]).collect(),
        "T" => (0..11).step_by(2).map(|y| vec![y]).collect(),
        // Twenty loops, and thirty facts that match no atom pattern.
        "L" => (0..20)
            .map(|i| vec![i, i])
            .chain((0..30).map(|i| vec![i, i + 1]))
            .collect(),
        "B" => (0..35).map(|i| vec![i % 5, i % 7]).collect(),
        "C" => vec![vec![1], vec![3], vec![5]],
        "R" => (0..10).map(|i| vec![i]).collect(),
        "S" => (0..24).map(|i| vec![i % 6, i % 4]).collect(),
        "P" => (0..10).map(|i| vec![i]).collect(),
        "G" => (0..90).map(|i| vec![i % 10, i % 9]).collect(),
        "U" => (0..9).step_by(3).map(|y| vec![y]).collect(),
        other => panic!("no preload for {other}"),
    }
}

/// Preload, checkpoint, tail. Returns the checkpoint's seq.
fn history(sess: &DurableSession) -> u64 {
    // Every shard session carries the whole schema.
    let core = sess.core().unwrap();
    let schema = core.read_shard("qh", |s| s.schema().clone()).unwrap();
    for rel in schema.relations() {
        let batch: Vec<Update> = preload(schema.name(rel))
            .into_iter()
            .map(|t| Update::Insert(rel, t))
            .collect();
        sess.apply_batch(&batch).unwrap();
    }
    // A delete before the checkpoint, and a rollback it covers.
    assert!(sess.apply(&del(sess, "S", &[1, 1])).unwrap());
    roll_back(sess, &[ins(sess, "R", &[90]), del(sess, "P", &[3])]);
    let ckpt = sess.checkpoint().unwrap();
    assert_eq!(ckpt, sess.seq().unwrap());

    assert!(sess.apply(&ins(sess, "E", &[100, 1])).unwrap());
    sess.apply_batch(&[
        ins(sess, "E", &[101, 1]),
        del(sess, "E", &[0, 0]),
        ins(sess, "L", &[50, 50]),
        ins(sess, "L", &[51, 52]),
        del(sess, "T", &[0]),
        ins(sess, "G", &[50, 50]),
        del(sess, "G", &[50, 50]),
    ])
    .unwrap();
    let committed = [
        ins(sess, "C", &[6]),
        del(sess, "B", &[0, 0]),
        ins(sess, "S", &[7, 9]),
    ];
    sess.transaction(|tx| tx.apply_all(&committed).map(drop))
        .unwrap();
    // Updates that cancel across commits, then a rollback that ends the
    // log with a burn.
    assert!(sess.apply(&ins(sess, "R", &[77])).unwrap());
    assert!(sess.apply(&ins(sess, "U", &[4])).unwrap());
    assert!(sess.apply(&del(sess, "R", &[77])).unwrap());
    roll_back(sess, &[ins(sess, "T", &[99]), del(sess, "C", &[1])]);
    ckpt
}

/// Applies `updates` in a transaction that then rolls back: the numbers
/// are burned and nothing is stamped.
fn roll_back(sess: &DurableSession, updates: &[Update]) {
    let res = sess.transaction(|tx| {
        assert_eq!(tx.apply_all(updates)?, updates.len());
        Err::<(), _>(CqError::UnknownQuery("roll back".into()))
    });
    assert!(res.is_err());
}

/// What a reader sees of one query: rows, count and the snapshot's
/// footprint generation.
type Seen = Vec<(&'static str, Vec<Vec<Const>>, u64, u64)>;

fn reads(face: &dyn Reads) -> Seen {
    QUERIES
        .iter()
        .map(|&(name, _)| {
            let snap = face.snapshot(name).unwrap();
            let count = face.count(name).unwrap();
            (name, snap.results_sorted(), count, snap.generation())
        })
        .collect()
}

fn audit(tag: &str, face: &dyn Reads) {
    face.check_invariants()
        .unwrap_or_else(|e| panic!("{tag}: audit failed: {e}"));
}

/// One query's pending events as `(seq, added, removed)`.
type Events = Vec<(u64, Vec<Vec<Const>>, Vec<Vec<Const>>)>;

fn drain(sub: &Subscription) -> Events {
    std::iter::from_fn(|| sub.poll())
        .map(|ev| (ev.seq, ev.added.clone(), ev.removed.clone()))
        .collect()
}

/// The commit that follows recovery: it changes every query's result,
/// and empties the Boolean one.
fn next_commit(sess: &DurableSession) -> Vec<Update> {
    let mut commit = vec![
        ins(sess, "T", &[3]),
        ins(sess, "E", &[102, 3]),
        del(sess, "E", &[1, 1]),
        ins(sess, "L", &[60, 60]),
        del(sess, "L", &[0, 0]),
        ins(sess, "R", &[42]),
        del(sess, "S", &[0, 0]),
        ins(sess, "U", &[1]),
    ];
    commit.extend([1, 3, 5, 6].map(|v| del(sess, "C", &[v])));
    commit
}

fn recovery_case(sharded: bool) {
    let tag = if sharded { "sharded" } else { "single" };
    let disk = SimDisk::new();
    let live = create(&disk, sharded);
    let ckpt = history(&live);
    assert!(
        disk.names().iter().any(|n| n.starts_with("ckpt-")),
        "{tag}: no checkpoint written"
    );

    let back = DurableSession::recover(Box::new(disk.strict_view()), opts()).unwrap();
    assert!(back.seq().unwrap() > ckpt, "{tag}: the tail replayed");
    assert_eq!(back.seq().unwrap(), live.seq().unwrap(), "{tag}: seq");
    audit(tag, &back);
    assert_eq!(reads(&back), reads(&live), "{tag}: reads");

    // The first commit after recovery publishes what the twin publishes.
    let subs: Vec<(Subscription, Subscription)> = QUERIES
        .iter()
        .map(|(name, _)| (live.subscribe(name).unwrap(), back.subscribe(name).unwrap()))
        .collect();
    let report = live.apply_batch(&next_commit(&live)).unwrap();
    assert_eq!(
        back.apply_batch(&next_commit(&back)).unwrap(),
        report,
        "{tag}"
    );
    for ((name, _), (on_live, on_back)) in QUERIES.iter().zip(&subs) {
        let want = drain(on_live);
        assert_eq!(want.len(), 1, "{tag}: {name}: one event, got {want:?}");
        assert_eq!(
            drain(on_back),
            want,
            "{tag}: {name}: first event after recovery"
        );
    }
    assert_eq!(back.seq().unwrap(), live.seq().unwrap(), "{tag}: seq");
    assert_eq!(reads(&back), reads(&live), "{tag}: reads");
    audit(tag, &back);
}

#[test]
fn recovery_from_a_checkpoint_equals_the_session_that_never_crashed() {
    recovery_case(false);
    recovery_case(true);
}

#[test]
fn a_follower_bootstrapped_from_a_checkpoint_equals_the_leader() {
    for sharded in [false, true] {
        let tag = if sharded { "sharded" } else { "single" };
        let disk = SimDisk::new();
        let leader = Arc::new(create(&disk, sharded));
        history(&leader);
        let server =
            ReplicationServer::bind("127.0.0.1:0", Arc::clone(&leader), LeaderConfig::default())
                .unwrap();
        let replica =
            ReplicaSession::connect(server.local_addr(), ReplicaOptions::default()).unwrap();
        for round in 0..2 {
            let head = leader.seq().unwrap();
            assert!(replica.wait_for_seq(head, SYNC), "{tag}: {replica:?}");
            audit(tag, &replica);
            assert_eq!(reads(&replica), reads(&*leader), "{tag}: round {round}");
            leader.apply_batch(&next_commit(&leader)).unwrap();
        }
        assert_eq!(replica.stats().bootstraps, 1, "{tag}");
    }
}
