//! The lock-free read contract, as one table over every handle that
//! hands out a [`PinReader`].
//!
//! A `PinReader` is freshened where it is acquired
//! (`QueryHandle::pin_reader`), so on every face of the system the
//! *first* pin, taken before any locked read, is the current result:
//! it equals the brute-force `timeline[seq()]`, and its stamp lies
//! between the last commit that touched the query's relations and
//! `seq()` (the two coincide for the query the script's last update
//! touches, so there `pin.seq() == seq()`). A pin and a locked read are
//! each a `(seq, state)` pair of the timeline: their rows are
//! `timeline[their own seq()]`, also when the script was committed as
//! batches that span shards.

use cq_updates::prelude::*;
use cqu_testutil::{result_timeline, SimDisk};
use std::sync::Arc;
use std::time::Duration;

/// A q-hierarchical and a delta-IVM registration over disjoint
/// footprints, so a sharded session plans them into two shards.
const QUERIES: &[(&str, &str)] = &[
    ("qh", "Q(x, y) :- E(x, y), T(y)."),
    ("ivm", "Q(x, y) :- S(x), G(x, y), U(y)."),
];

const SYNC: Duration = Duration::from_secs(20);

/// The script every row commits, one effective update per seq, and the
/// brute-force result of each query after each of them.
struct Oracle {
    /// Committed before the checkpoint of the rows that take one.
    head: Vec<Update>,
    /// Committed after it; touches both footprints and ends on `qh`'s.
    tail: Vec<Update>,
    queries: Vec<Query>,
    timelines: Vec<Vec<Vec<Vec<Const>>>>,
}

impl Oracle {
    fn new() -> Oracle {
        let mut s = Session::new();
        for (name, src) in QUERIES {
            s.register(name, src).unwrap();
        }
        let rel = |name: &str| s.relation(name).unwrap();
        let (e, t, sr, g, u) = (rel("E"), rel("T"), rel("S"), rel("G"), rel("U"));
        let head = vec![
            Update::Insert(e, vec![1, 2]),
            Update::Insert(t, vec![2]),
            Update::Insert(sr, vec![1]),
            Update::Insert(g, vec![1, 5]),
            Update::Insert(u, vec![5]),
        ];
        let tail = vec![
            Update::Insert(g, vec![2, 5]),
            Update::Insert(sr, vec![2]),
            Update::Delete(g, vec![1, 5]),
            Update::Insert(e, vec![3, 2]),
            Update::Delete(e, vec![1, 2]),
        ];
        let queries: Vec<Query> = QUERIES
            .iter()
            .map(|(name, _)| s.query(name).unwrap().query().clone())
            .collect();
        let script = [head.clone(), tail.clone()].concat();
        let timelines = queries
            .iter()
            .map(|q| result_timeline(s.schema(), q, &script))
            .collect();
        Oracle {
            head,
            tail,
            queries,
            timelines,
        }
    }

    fn script(&self) -> impl Iterator<Item = &Update> {
        self.head.iter().chain(&self.tail)
    }

    /// The seq of the last update on query `i`'s footprint.
    fn last_touch(&self, i: usize) -> u64 {
        let footprint = self.queries[i].atoms();
        self.script()
            .enumerate()
            .filter(|(_, u)| footprint.iter().any(|a| a.relation == u.relation()))
            .map(|(k, _)| k as u64 + 1)
            .last()
            .unwrap_or(0)
    }

    /// Takes a reader on every query and pins it before any locked read,
    /// then checks each pin against the timeline and a locked snapshot.
    fn check(
        &self,
        what: &str,
        seq: u64,
        reader: impl Fn(&str) -> PinReader,
        locked: impl Fn(&str) -> QuerySnapshot,
    ) {
        assert_eq!(seq, self.script().count() as u64, "{what}: seq()");
        let pins: Vec<QuerySnapshot> = QUERIES.iter().map(|(n, _)| reader(n).pin()).collect();
        let kinds: Vec<EngineKind> = pins.iter().map(QuerySnapshot::kind).collect();
        assert_eq!(kinds, [EngineKind::QHierarchical, EngineKind::DeltaIvm]);
        for (i, pin) in pins.iter().enumerate() {
            let name = QUERIES[i].0;
            let rows = pin.results_sorted();
            assert_eq!(
                rows, self.timelines[i][seq as usize],
                "{what}/{name}: the first lock-free pin is not the current result"
            );
            assert_eq!(
                rows,
                self.timelines[i][pin.seq() as usize],
                "{what}/{name}: the pin is not timeline[{}]",
                pin.seq()
            );
            let floor = self.last_touch(i);
            assert!(
                (floor..=seq).contains(&pin.seq()),
                "{what}/{name}: pin stamped {} outside {floor}..={seq}",
                pin.seq()
            );
            let locked = locked(name);
            assert_eq!(locked.results_sorted(), rows, "{what}/{name}: locked read");
            assert_eq!(
                rows,
                self.timelines[i][locked.seq() as usize],
                "{what}/{name}: the locked read is not timeline[{}]",
                locked.seq()
            );
            assert!(
                (pin.seq()..=seq).contains(&locked.seq()),
                "{what}/{name}: locked read stamped {} outside {}..={seq}",
                locked.seq(),
                pin.seq()
            );
        }
    }
}

fn durable(disk: &SimDisk, sharded: bool) -> DurableSession {
    let opts = DurableOptions::default();
    if sharded {
        return DurableSession::create_sharded(Box::new(disk.clone()), opts, QUERIES).unwrap();
    }
    let sess = DurableSession::create(Box::new(disk.clone()), opts).unwrap();
    for (name, src) in QUERIES {
        sess.register(name, src).unwrap();
    }
    sess
}

/// Commits the script, with a checkpoint between head and tail if asked.
fn commit_all(sess: &DurableSession, o: &Oracle, checkpoint: bool) {
    for u in &o.head {
        sess.apply(u).unwrap();
    }
    if checkpoint {
        sess.checkpoint().unwrap();
    }
    for u in &o.tail {
        sess.apply(u).unwrap();
    }
}

fn sharded_plan() -> ShardedSession {
    let mut builder = ShardedSessionBuilder::new();
    for (name, src) in QUERIES {
        builder.register(name, src).unwrap();
    }
    let sharded = builder.build().unwrap();
    assert_eq!(sharded.shard_count(), 2);
    sharded
}

/// Head and tail each interleave both footprints, so committed as two
/// batches each spans both shards. The log stamps a batch in submission
/// order; every shard the batch changed is stamped with its last seq,
/// where the shard holds the timeline's state. (A seq range per shard
/// stamped `qh` 7 over the state of seq 10.)
#[test]
fn multi_shard_batches_are_stamped_with_their_head() {
    let o = Oracle::new();

    let sharded = sharded_plan();
    sharded.apply_batch(&o.head).unwrap();
    sharded.apply_batch(&o.tail).unwrap();
    o.check(
        "ShardedSession, batched",
        sharded.seq(),
        |n| sharded.reader(n).unwrap(),
        |n| sharded.snapshot(n).unwrap(),
    );

    let leader = Arc::new(durable(&SimDisk::new(), true));
    leader.apply_batch(&o.head).unwrap();
    leader.apply_batch(&o.tail).unwrap();
    o.check(
        "DurableSession, sharded, batched",
        leader.seq().unwrap(),
        |n| leader.reader(n).unwrap(),
        |n| leader.snapshot(n).unwrap(),
    );

    let server =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&leader), LeaderConfig::default())
            .unwrap();
    let replica = ReplicaSession::connect(server.local_addr(), ReplicaOptions::default()).unwrap();
    assert!(
        replica.wait_for_seq(leader.seq().unwrap(), SYNC),
        "{replica:?}"
    );
    o.check(
        "ReplicaSession, sharded, batched",
        replica.applied_seq(),
        |n| replica.reader(n).unwrap(),
        |n| replica.snapshot(n).unwrap(),
    );
}

#[test]
fn first_lock_free_pin_is_current() {
    let o = Oracle::new();

    let mut session = Session::new();
    for (name, src) in QUERIES {
        session.register(name, src).unwrap();
    }
    for u in o.script() {
        session.apply(u).unwrap();
    }
    o.check(
        "Session",
        session.seq(),
        |n| session.query(n).unwrap().pin_reader(),
        |n| session.query(n).unwrap().snapshot(),
    );

    let shared = SharedSession::new(Session::new());
    for (name, src) in QUERIES {
        shared.register(name, src).unwrap();
    }
    for u in o.script() {
        shared.apply(u).unwrap();
    }
    o.check(
        "SharedSession",
        shared.read(|s| s.seq()).unwrap(),
        |n| shared.reader(n).unwrap(),
        |n| shared.snapshot(n).unwrap(),
    );

    let sharded = sharded_plan();
    for u in o.script() {
        sharded.apply(u).unwrap();
    }
    o.check(
        "ShardedSession",
        sharded.seq(),
        |n| sharded.reader(n).unwrap(),
        |n| sharded.snapshot(n).unwrap(),
    );

    // Durable sessions, live and recovered, in both modes: readers come
    // straight off the session's read face.
    for (is_sharded, checkpoint) in [(false, true), (true, true), (false, false), (true, false)] {
        let disk = SimDisk::new();
        let live = durable(&disk, is_sharded);
        commit_all(&live, &o, checkpoint);
        let rec = DurableSession::recover(Box::new(disk.strict_view()), DurableOptions::default())
            .unwrap();
        for (life, sess) in [("live", &live), ("recovered", &rec)] {
            o.check(
                &format!("DurableSession {life}, sharded={is_sharded} checkpoint={checkpoint}"),
                sess.seq().unwrap(),
                |n| sess.reader(n).unwrap(),
                |n| sess.snapshot(n).unwrap(),
            );
        }
    }

    // Followers bootstrapped from a checkpoint and fed the tail as
    // records, each read on a replica nobody has read before.
    for is_sharded in [false, true] {
        let leader = Arc::new(durable(&SimDisk::new(), is_sharded));
        commit_all(&leader, &o, true);
        let server =
            ReplicationServer::bind("127.0.0.1:0", Arc::clone(&leader), LeaderConfig::default())
                .unwrap();
        let replica =
            ReplicaSession::connect(server.local_addr(), ReplicaOptions::default()).unwrap();
        assert!(
            replica.wait_for_seq(leader.seq().unwrap(), SYNC),
            "{replica:?}"
        );
        assert_eq!(replica.stats().bootstraps, 1);
        o.check(
            &format!("ReplicaSession, sharded={is_sharded}"),
            replica.applied_seq(),
            |n| replica.reader(n).unwrap(),
            |n| replica.snapshot(n).unwrap(),
        );
    }
}
