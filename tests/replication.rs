//! Replication suite: leader/follower log shipping over loopback TCP.
//!
//! The convergence driver runs a random script of batches, committed
//! and rolled-back transactions, and checkpoints against a leader
//! [`DurableSession`] while two [`ReplicaSession`]s follow over real
//! sockets. Mid-run it injects follower disconnects (`kick()`) and
//! forces at least one leader checkpoint mid-stream, so followers
//! exercise every sync path: full-log bootstrap, checkpoint-transfer
//! bootstrap, and cursor resume. The oracle is the executed frame
//! timeline: at the end every follower's result for every query must
//! equal the leader's *and* the brute-force evaluation of
//! `timeline[seq]`, and any pin taken at a follower watermark `s` must
//! equal `timeline[s]` exactly. `CQ_STRESS_READERS` threads pin
//! lock-free the whole time, racing the applier: on one reader the
//! pinned seq never decreases, and every pin is `timeline[pin.seq()]`.
//!
//! Deterministic satellites cover the edges one at a time: bootstrap +
//! live follow (with subscriber seq stamps on the leader's timeline),
//! late-joiner checkpoint transfer, kick → resume without
//! re-bootstrap, leader restart → epoch fencing → follower
//! re-bootstrap, sharded leaders, the serving front end over a
//! replica, and the lock-free read contract: a held reader pins at the
//! watermark, and epochs are published only where one is held.
//!
//! Failover edges ride the same oracle: kill the leader, promote the
//! most caught-up follower ([`promotion_candidate`] over the leader's
//! ack-progress snapshot), truncate the timeline to the promotion
//! point (async replication loses the unreplicated suffix), and the
//! survivor must re-handshake onto the bumped epoch and converge —
//! while a restarted stale leader is fenced with a permanent deny.
//!
//! Case count scales with `CQ_STRESS_REPL_KILLS` /
//! `CQ_STRESS_PROMOTE_KILLS` (the CI replication and failover stress
//! cells raise them; the defaults keep local runs quick).

use cq_updates::prelude::*;
use cq_updates::query::RelId;
use cqu_testutil::{brute_force, random_updates, Lcg, SimDisk, WorkloadConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// Generous per-wait bound: loopback sync is milliseconds; the bound
/// only matters when something is genuinely broken.
const SYNC: Duration = Duration::from_secs(20);

fn stress_cases() -> u32 {
    std::env::var("CQ_STRESS_REPL_KILLS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// Lock-free reader threads racing the applier in the churn proptest.
fn stress_readers() -> usize {
    std::env::var("CQ_STRESS_READERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

fn promote_stress_cases() -> u32 {
    std::env::var("CQ_STRESS_PROMOTE_KILLS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// The same engine-route zoo as the durability suite, so a sharded
/// leader splits into three shards: `{E,T}`, `{F}`, `{S,G,U}`.
const QUERIES: &[(&str, &str)] = &[
    ("qh", "Q(x, y) :- E(x, y), T(y)."),
    ("via_core", "Q() :- F(x,x), F(x,y), F(y,y)."),
    ("ivm", "Q(x, y) :- S(x), G(x, y), U(y)."),
];

fn scratch() -> (Schema, Vec<(String, Query)>) {
    let mut s = Session::new();
    for (name, src) in QUERIES {
        s.register(name, src).unwrap();
    }
    let schema = s.schema().clone();
    let queries = QUERIES
        .iter()
        .map(|(name, _)| ((*name).to_string(), s.query(name).unwrap().query().clone()))
        .collect();
    (schema, queries)
}

fn small_opts() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        // Tiny segments force rotation, so checkpoints prune history and
        // catch-up genuinely depends on the checkpoint transfer path.
        segment_bytes: 512,
        ..DurableOptions::default()
    }
}

fn leader(disk: &SimDisk, sharded: bool) -> Arc<DurableSession> {
    Arc::new(if sharded {
        DurableSession::create_sharded(Box::new(disk.clone()), small_opts(), QUERIES).unwrap()
    } else {
        let sess = DurableSession::create(Box::new(disk.clone()), small_opts()).unwrap();
        for (name, src) in QUERIES {
            sess.register(name, src).unwrap();
        }
        sess
    })
}

/// Tight timers so disconnect/reconnect cycles resolve in milliseconds.
fn fast_leader() -> LeaderConfig {
    LeaderConfig {
        heartbeat: Duration::from_millis(40),
        ..LeaderConfig::default()
    }
}

fn fast_replica() -> ReplicaOptions {
    ReplicaOptions {
        follower: FollowerConfig {
            reconnect: Duration::from_millis(25),
            // A low cap keeps fenced/denied followers probing fast
            // enough for the failover tests' VIP flips.
            reconnect_max: Duration::from_millis(200),
            dead_after: Some(Duration::from_secs(2)),
            ..FollowerConfig::default()
        },
        ..ReplicaOptions::default()
    }
}

/// Effectiveness prediction under set semantics with a within-batch
/// overlay — the driver-side twin of the session's dispatch rule.
fn effective(db: &Database, updates: &[Update]) -> Vec<Update> {
    let mut overlay: std::collections::HashMap<(RelId, Vec<Const>), bool> =
        std::collections::HashMap::new();
    let mut eff = Vec::new();
    for u in updates {
        let (rel, tuple, insert) = match u {
            Update::Insert(r, t) => (*r, t, true),
            Update::Delete(r, t) => (*r, t, false),
        };
        let cur = overlay
            .get(&(rel, tuple.clone()))
            .copied()
            .unwrap_or_else(|| db.relation(rel).contains(tuple));
        if insert != cur {
            eff.push(u.clone());
            overlay.insert((rel, tuple.clone()), insert);
        }
    }
    eff
}

/// Rebuilds the database at timeline cut `seq` (`frames[i]` is seq
/// `i+1`; `None` marks a seq burned by a rollback).
fn db_at(schema: &Schema, frames: &[Option<Update>], seq: u64) -> Database {
    let mut db = Database::new(schema.clone());
    for u in frames.iter().take(seq as usize).flatten() {
        assert!(db.apply(u));
    }
    db
}

/// One scripted leader operation.
#[derive(Debug)]
enum Op {
    Batch(Vec<Update>),
    Tx { updates: Vec<Update>, commit: bool },
    Checkpoint,
}

fn script_ops(schema: &Schema, seed: u64, steps: usize) -> Vec<Op> {
    let stream = random_updates(
        schema,
        seed,
        WorkloadConfig {
            steps,
            domain: 4,
            insert_permille: 600,
        },
    );
    let mut rng = Lcg::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut ops = Vec::new();
    let mut it = stream.into_iter().peekable();
    while it.peek().is_some() {
        let roll = rng.below(100);
        if roll < 8 {
            ops.push(Op::Checkpoint);
            continue;
        }
        let chunk: Vec<Update> = it.by_ref().take(1 + rng.below(5)).collect();
        if roll < 40 {
            ops.push(Op::Tx {
                updates: chunk,
                commit: rng.below(100) < 70,
            });
        } else {
            ops.push(Op::Batch(chunk));
        }
    }
    ops
}

/// Executes one op on the (fault-free) leader, extending the frame
/// timeline exactly as the durability driver does.
fn run_op(sess: &DurableSession, db: &mut Database, frames: &mut Vec<Option<Update>>, op: &Op) {
    match op {
        Op::Batch(updates) => {
            let eff = effective(db, updates);
            let report = sess.apply_batch(updates).unwrap();
            assert_eq!(report.applied, eff.len(), "driver misprediction");
            for u in &eff {
                assert!(db.apply(u));
                frames.push(Some(u.clone()));
            }
        }
        Op::Tx { updates, commit } => {
            let eff = effective(db, updates);
            let eff_n = eff.len();
            let res = sess.transaction(|tx| {
                for u in updates {
                    tx.apply(u)?;
                }
                if *commit {
                    Ok(())
                } else {
                    Err(CqError::UnknownQuery("scripted rollback".into()))
                }
            });
            match res {
                Ok(()) => {
                    assert!(*commit);
                    for u in &eff {
                        assert!(db.apply(u));
                        frames.push(Some(u.clone()));
                    }
                }
                Err(DurableError::Session(_)) => {
                    assert!(!*commit);
                    frames.extend(std::iter::repeat_with(|| None).take(eff_n));
                }
                Err(e) => panic!("unexpected tx error: {e}"),
            }
        }
        Op::Checkpoint => {
            sess.checkpoint().unwrap();
        }
    }
    assert_eq!(sess.seq().unwrap(), frames.len() as u64);
}

/// The q-tree audit over every registration of one core, each shard
/// against its own database: a bootstrap, like a recovery, builds every
/// engine from the session's `D` (a checkpoint load or the log, then the
/// tail).
fn audit(tag: &str, face: &dyn Reads) {
    if let Err(e) = face.check_invariants() {
        panic!("{tag}: audit failed: {e}");
    }
}

/// Asserts `replica` has fully converged: watermark at the leader head,
/// every query equal to both the leader and the brute-force oracle at
/// the final cut, a watermark pin exact against `timeline[s]`, and the
/// audit passing on both sides.
fn assert_converged(
    tag: &str,
    sess: &DurableSession,
    replica: &ReplicaSession,
    schema: &Schema,
    queries: &[(String, Query)],
    frames: &[Option<Update>],
) {
    let head = sess.seq().unwrap();
    assert!(
        replica.wait_for_seq(head, SYNC),
        "{tag}: stuck at {} of {head}; stats {:?}",
        replica.applied_seq(),
        replica.stats()
    );
    let final_db = db_at(schema, frames, head);
    audit(tag, sess);
    audit(tag, replica);
    for (name, q) in queries {
        let leader_rows = sess.snapshot(name).unwrap().results_sorted();
        let snap = replica.snapshot(name).unwrap();
        // A sharded query's snapshot is stamped with its *shard's* last
        // published seq, which may trail the global head — but never
        // exceed it.
        assert!(snap.seq() <= head, "{tag}: {name} stamped past the head");
        assert_eq!(
            snap.results_sorted(),
            brute_force(q, &db_at(schema, frames, snap.seq())),
            "{tag}: {name} snapshot is not timeline[{}]",
            snap.seq()
        );
        assert_eq!(
            snap.results_sorted(),
            leader_rows,
            "{tag}: {name} diverged from leader"
        );
        assert_eq!(
            brute_force(q, &final_db),
            leader_rows,
            "{tag}: {name} leader diverged from oracle"
        );
        assert_eq!(replica.count(name).unwrap(), leader_rows.len() as u64);
        // The pin contract: however stale, a pin is internally exact —
        // its result *is* timeline[pin.seq()]. At quiescence it sits on
        // the watermark, so in every mode it must match the final cut.
        let pin = replica.reader(name).unwrap().pin();
        assert_eq!(
            pin.results_sorted(),
            brute_force(q, &db_at(schema, frames, pin.seq())),
            "{tag}: {name} pin at seq {} is not timeline[{}]",
            pin.seq(),
            pin.seq()
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic edges
// ---------------------------------------------------------------------------

/// A fresh follower bootstraps (no checkpoint yet → full log), then
/// applies live commits; subscriber deltas carry the leader's seq
/// stamps.
#[test]
fn bootstrap_and_live_follow() {
    let disk = SimDisk::new();
    let sess = leader(&disk, false);
    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let (schema, queries) = scratch();

    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();

    let replica = ReplicaSession::connect(server.local_addr(), fast_replica()).unwrap();
    assert!(replica.wait_for_seq(2, SYNC), "{replica:?}");
    assert_eq!(replica.epoch(), sess.replication_epoch());
    assert!(replica.is_connected());
    // The replica mirrors the single-mode leader's open one-shard core.
    assert_eq!(replica.core().unwrap().shard_count(), 1);

    // Live follow: a subscriber on the *replica* sees the leader's
    // commit with the leader's seq stamp.
    let sub = replica.subscribe("qh").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![5, 2])]).unwrap();
    assert!(replica.wait_for_seq(3, SYNC));
    let ev = sub.recv_timeout(SYNC).expect("replica subscriber delta");
    assert_eq!(ev.seq, 3, "seq stamps live on the leader's timeline");
    assert_eq!(ev.added, vec![vec![5, 2]]);

    let mut frames = vec![
        Some(Update::Insert(e, vec![1, 2])),
        Some(Update::Insert(t, vec![2])),
        Some(Update::Insert(e, vec![5, 2])),
    ];
    assert_converged("live", &sess, &replica, &schema, &queries, &frames);

    // Cursor replay on the replica nets history like the leader would.
    let resumed = replica.replay_since("qh", 0).unwrap();
    assert!(matches!(resumed, ReplayOutcome::Covered { .. }));

    // Rollback burns ship too: the follower watermark keeps pace even
    // though no state changes.
    let res = sess.transaction(|tx| {
        tx.apply(&Update::Insert(e, vec![9, 2]))?;
        Err::<(), _>(CqError::UnknownQuery("scripted rollback".into()))
    });
    assert!(matches!(res, Err(DurableError::Session(_))));
    frames.push(None);
    assert_converged("burn", &sess, &replica, &schema, &queries, &frames);
}

/// A follower that joins after history was checkpointed and pruned must
/// sync via checkpoint transfer — the full log no longer exists.
#[test]
fn late_follower_bootstraps_from_checkpoint() {
    let disk = SimDisk::new();
    let sess = leader(&disk, false);
    let (schema, queries) = scratch();
    let mut db = Database::new(schema.clone());
    let mut frames = Vec::new();
    for op in script_ops(&schema, 7, 40) {
        run_op(&sess, &mut db, &mut frames, &op);
    }
    sess.checkpoint().unwrap();
    // Post-checkpoint tail, so the transfer alone is not enough.
    for op in script_ops(&schema, 8, 12) {
        if !matches!(op, Op::Checkpoint) {
            run_op(&sess, &mut db, &mut frames, &op);
        }
    }

    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let replica = ReplicaSession::connect(server.local_addr(), fast_replica()).unwrap();
    assert_converged("late", &sess, &replica, &schema, &queries, &frames);
    assert_eq!(replica.stats().bootstraps, 1);
    assert_eq!(replica.stats().resumes, 0);
    let ls = server.stats();
    assert_eq!((ls.bootstraps, ls.resumes), (1, 0));
}

/// A bootstrap with no tail behind it: a reader taken through the read
/// face pins the checkpoint's state at the checkpoint's seq, not the
/// empty core the checkpoint was loaded into.
/// (`tests/read_contract.rs` has the rows with a tail.)
#[test]
fn bootstrapped_core_is_published_before_it_is_shown() {
    for sharded in [false, true] {
        let disk = SimDisk::new();
        let sess = leader(&disk, sharded);
        let e = sess.relation("E").unwrap();
        let t = sess.relation("T").unwrap();
        sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
            .unwrap();
        let seq = sess.checkpoint().unwrap();

        let server =
            ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
        let replica = ReplicaSession::connect(server.local_addr(), fast_replica()).unwrap();
        assert!(replica.wait_for_seq(seq, SYNC), "{replica:?}");
        let reader = replica.reader("qh").unwrap();
        let pin = reader.pin();
        assert_eq!(pin.seq(), seq, "sharded={sharded}");
        assert_eq!(pin.results_sorted(), vec![vec![1, 2]], "sharded={sharded}");
        let tag = format!("checkpoint bootstrap, sharded={sharded}");
        audit(&tag, &replica);
    }
}

/// A replica whose leader never speaks has no state to read: every read
/// through the face, and every request to a `ReplicaSource` front end,
/// says the replica is not bootstrapped — never that the query the
/// caller named does not exist. The leader is a bare listener that
/// accepts and stays silent, so the handshake never completes and no
/// timing is involved.
#[test]
fn reads_before_the_first_bootstrap_say_so() {
    use cq_updates::serve::{Client, ClientError, ReplicaSource, ServerHandle};
    use cq_updates::serving::ErrorCode;

    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let replica =
        Arc::new(ReplicaSession::connect(silent.local_addr().unwrap(), fast_replica()).unwrap());
    let _held = silent.accept().unwrap();
    assert_eq!(replica.applied_seq(), 0);

    let refused = |what: &str, res: Result<(), CqError>| {
        assert_eq!(res, Err(CqError::NotBootstrapped), "{what}");
    };
    refused("relation", replica.relation("E").map(drop));
    refused("snapshot", replica.snapshot("qh").map(drop));
    refused("count", replica.count("qh").map(drop));
    refused("reader", replica.reader("qh").map(drop));
    refused("subscribe", replica.subscribe("qh").map(drop));
    refused("replay_since", replica.replay_since("qh", 0).map(drop));
    refused("subscribe_from", replica.subscribe_from("qh", 0).map(drop));
    refused("core", replica.core().map(drop));
    let msg = CqError::NotBootstrapped.to_string();
    assert!(msg.contains("not yet bootstrapped"), "{msg}");
    assert_eq!(
        replica.check_invariants(),
        Err(msg.clone()),
        "the audit has no core"
    );

    let server = ServerHandle::bind("127.0.0.1:0", Arc::new(ReplicaSource::new(replica))).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (what, res) in [
        ("query", client.query("qh").map(drop)),
        ("subscribe", client.subscribe("qh", None).map(drop)),
    ] {
        match res {
            Err(ClientError::Server { code, msg }) => {
                assert_eq!(code, ErrorCode::BadRequest as u8, "{what}: {msg}");
                assert!(msg.contains("not yet bootstrapped"), "{what}: {msg}");
            }
            other => panic!("{what}: a read before the bootstrap answered {other:?}"),
        }
    }
}

/// A kicked follower reconnects and resumes from its durable cursor —
/// no second bootstrap, no checkpoint transfer.
#[test]
fn kick_resumes_without_rebootstrap() {
    let disk = SimDisk::new();
    let sess = leader(&disk, false);
    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let (schema, queries) = scratch();
    let mut db = Database::new(schema.clone());
    let mut frames = Vec::new();

    let replica = ReplicaSession::connect(server.local_addr(), fast_replica()).unwrap();
    for op in script_ops(&schema, 21, 20) {
        run_op(&sess, &mut db, &mut frames, &op);
    }
    assert_converged("pre-kick", &sess, &replica, &schema, &queries, &frames);
    assert_eq!(replica.stats().bootstraps, 1);

    replica.kick();
    for op in script_ops(&schema, 22, 20) {
        if !matches!(op, Op::Checkpoint) {
            run_op(&sess, &mut db, &mut frames, &op);
        }
    }
    assert_converged("post-kick", &sess, &replica, &schema, &queries, &frames);
    let fs = replica.stats();
    assert_eq!(
        fs.bootstraps, 1,
        "a brief disconnect must not re-bootstrap: {fs:?}"
    );
    assert!(fs.resumes >= 1, "{fs:?}");
    assert!(fs.connects >= 2, "{fs:?}");
}

/// A stable frontend address whose backend target can be swapped — how
/// the suite restarts a leader without racing TIME_WAIT on a rebind.
struct Vip {
    addr: SocketAddr,
    target: Arc<Mutex<SocketAddr>>,
}

fn vip(target0: SocketAddr) -> Vip {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let target = Arc::new(Mutex::new(target0));
    let t = Arc::clone(&target);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let to = *t.lock().unwrap();
            std::thread::spawn(move || {
                let Ok(up) = TcpStream::connect(to) else {
                    return;
                };
                let (c2, u2) = (client.try_clone().unwrap(), up.try_clone().unwrap());
                let fwd = std::thread::spawn(move || pipe(c2, u2));
                pipe(up, client);
                let _ = fwd.join();
            });
        }
    });
    Vip { addr, target }
}

fn pipe(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = from.shutdown(std::net::Shutdown::Both);
    let _ = to.shutdown(std::net::Shutdown::Both);
}

/// Leader restart: the recovered session opens a higher epoch, so the
/// follower's old-epoch cursor is refused a resume and the follower
/// re-bootstraps onto the new timeline.
#[test]
fn leader_restart_forces_epoch_rehandshake() {
    let disk = SimDisk::new();
    let sess1 = leader(&disk, false);
    let (schema, queries) = scratch();
    let mut db = Database::new(schema.clone());
    let mut frames = Vec::new();

    let server1 =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess1), fast_leader()).unwrap();
    let front = vip(server1.local_addr());
    let replica = ReplicaSession::connect(front.addr, fast_replica()).unwrap();

    for op in script_ops(&schema, 31, 24) {
        run_op(&sess1, &mut db, &mut frames, &op);
    }
    assert_converged("life-1", &sess1, &replica, &schema, &queries, &frames);
    let epoch1 = replica.epoch();
    assert_eq!(epoch1, sess1.replication_epoch());

    // Restart the leader process: tear everything down, recover from
    // the same disk, serve from a fresh port behind the same VIP.
    drop(server1);
    drop(sess1);
    let sess2 = Arc::new(DurableSession::recover(Box::new(disk.clone()), small_opts()).unwrap());
    assert!(
        sess2.replication_epoch() > epoch1,
        "recovery must open a new epoch"
    );
    let server2 =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess2), fast_leader()).unwrap();
    *front.target.lock().unwrap() = server2.local_addr();
    replica.kick();

    for op in script_ops(&schema, 32, 24) {
        run_op(&sess2, &mut db, &mut frames, &op);
    }
    assert_converged("life-2", &sess2, &replica, &schema, &queries, &frames);
    assert_eq!(replica.epoch(), sess2.replication_epoch());
    let fs = replica.stats();
    assert!(
        fs.bootstraps >= 2,
        "an old-epoch cursor must re-bootstrap, not resume: {fs:?}"
    );
}

/// A follower speaking the previous protocol version would parse the
/// checkpoint bodies a leader ships in the old layout, without relation
/// stamps, so the leader denies its `Hello` with a permanent version
/// refusal before it ships anything.
#[test]
fn a_follower_on_the_previous_protocol_version_is_denied() {
    use cq_updates::repl::protocol::read_frame;
    use cq_updates::repl::{Frame, REPL_VERSION};
    let disk = SimDisk::new();
    let sess = leader(&disk, false);
    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(SYNC)).unwrap();
    let hello = Frame::Hello {
        version: REPL_VERSION - 1,
        epoch: 0,
        cursor: 0,
    };
    stream.write_all(&hello.encode()).unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::Deny { reason, msg } => {
            assert_eq!(reason, DenyReason::Version);
            assert!(
                msg.contains(&format!("version {}", REPL_VERSION - 1)),
                "{msg}"
            );
        }
        other => panic!("the previous version was not denied: {other:?}"),
    }
}

/// Sharded leaders replicate on the same global timeline; the replica
/// rebuilds the sealed shard plan from the shipped registrations.
#[test]
fn sharded_leader_replicates() {
    let disk = SimDisk::new();
    let sess = leader(&disk, true);
    assert!(sess.is_sharded());
    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let (schema, queries) = scratch();
    let mut db = Database::new(schema.clone());
    let mut frames = Vec::new();

    let replica = ReplicaSession::connect(server.local_addr(), fast_replica()).unwrap();
    for op in script_ops(&schema, 41, 40) {
        run_op(&sess, &mut db, &mut frames, &op);
    }
    assert_converged("sharded", &sess, &replica, &schema, &queries, &frames);
    // The replica rebuilt the leader's sealed shard plan.
    let (mirror, plan) = (replica.core().unwrap(), sess.sharded().unwrap().plan());
    assert_eq!(mirror.shard_count(), plan.shard_count());
    for (name, _) in QUERIES {
        assert_eq!(mirror.shard_of_query(name).ok(), plan.shard_of_query(name));
    }
}

/// The read contract of a held lock-free reader: after `wait_for_seq(s)`
/// its next pin is at `s`, with no locked read in between to republish
/// for it — through a batch, a committed transaction and a rollback
/// burn. Stamps are frame-exact in single mode only; against a sharded
/// leader the pinned rows must equal the leader's at quiescence.
#[test]
fn held_reader_pins_at_the_watermark() {
    for sharded in [false, true] {
        let disk = SimDisk::new();
        let sess = leader(&disk, sharded);
        let server =
            ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
        let (schema, queries) = scratch();
        let qh = &queries[0].1;
        let mut db = Database::new(schema.clone());
        let mut frames = Vec::new();
        let e = sess.relation("E").unwrap();
        let t = sess.relation("T").unwrap();

        let replica = ReplicaSession::connect(server.local_addr(), fast_replica()).unwrap();
        let seed = Op::Batch(vec![
            Update::Insert(e, vec![1, 2]),
            Update::Insert(t, vec![2]),
        ]);
        run_op(&sess, &mut db, &mut frames, &seed);
        assert!(replica.wait_for_seq(2, SYNC), "{replica:?}");
        let reader = replica.reader("qh").unwrap();
        assert_eq!(reader.pin().results_sorted(), vec![vec![1, 2]]);

        let ops = [
            Op::Batch(vec![Update::Insert(e, vec![5, 2])]),
            Op::Tx {
                updates: vec![Update::Insert(t, vec![7]), Update::Insert(e, vec![3, 7])],
                commit: true,
            },
            Op::Tx {
                updates: vec![Update::Insert(e, vec![9, 2])],
                commit: false,
            },
            Op::Batch(vec![Update::Delete(e, vec![1, 2])]),
        ];
        for op in &ops {
            run_op(&sess, &mut db, &mut frames, op);
            let head = frames.len() as u64;
            assert!(replica.wait_for_seq(head, SYNC), "{replica:?}");
            let pin = reader.pin();
            if sharded {
                let leader_rows = sess.snapshot("qh").unwrap().results_sorted();
                assert_eq!(pin.results_sorted(), leader_rows, "after {op:?}");
            } else {
                assert_eq!(pin.seq(), head, "after {op:?}");
                assert_eq!(pin.count(), brute_force(qh, &db).len() as u64);
            }
        }
    }
}

/// Epoch publications on a replica, counted against the script: none
/// while nobody can look, one per commit for the one cheap-snapshot
/// query a `PinReader` is held on — nothing for the delta-IVM query
/// (locked pin path only) or the unwatched `via_core`.
#[test]
fn replica_publishes_only_watched_epochs() {
    const N: u64 = 12;
    let disk = SimDisk::new();
    let sess = leader(&disk, false);
    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    // The replica's own registry: the leader's publications stay out.
    let registry = Arc::new(cq_updates::obs::Registry::new());
    let replica = ReplicaSession::connect(
        server.local_addr(),
        ReplicaOptions {
            registry: Some(Arc::clone(&registry)),
            ..fast_replica()
        },
    )
    .unwrap();
    let publications = registry.counter("session_epoch_publications_total");
    let [e, f, s] = ["E", "F", "S"].map(|r| sess.relation(r).unwrap());
    // Every commit touches the footprint of all three queries.
    let commit = |i: u64| {
        sess.apply_batch(&[
            Update::Insert(e, vec![i, i + 1]),
            Update::Insert(f, vec![i, i]),
            Update::Insert(s, vec![i]),
        ])
        .unwrap();
        assert!(
            replica.wait_for_seq(sess.seq().unwrap(), SYNC),
            "{replica:?}"
        );
    };

    commit(0);
    let before = publications.get();
    (1..=N).for_each(commit);
    assert_eq!(publications.get(), before, "nobody can look");

    let reader = replica.reader("qh").unwrap();
    let before = publications.get();
    (N + 1..=2 * N).for_each(commit);
    assert_eq!(publications.get(), before + N, "one per commit, for qh");
    assert_eq!(reader.pin().seq(), sess.seq().unwrap());
}

/// A replica fronts the same serving protocol as the leader: a
/// subscription client pointed at a [`ReplicaSource`] server converges
/// to the leader's rows, and remote registration is refused.
#[test]
fn replica_serves_the_subscription_protocol() {
    use cq_updates::serve::{Client, ClientError, Mirror, ServerHandle};

    let disk = SimDisk::new();
    let sess = leader(&disk, false);
    let repl_server =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let replica =
        Arc::new(ReplicaSession::connect(repl_server.local_addr(), fast_replica()).unwrap());

    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();
    assert!(replica.wait_for_seq(2, SYNC));

    let source = Arc::new(cq_updates::serve::ReplicaSource::new(Arc::clone(&replica)));
    let front = ServerHandle::bind("127.0.0.1:0", source).unwrap();
    let mut client = Client::connect(front.local_addr()).unwrap();
    assert!(matches!(
        client.register("extra", "Q(x) :- E(x, x)."),
        Err(ClientError::Server { .. })
    ));
    let (_mode, _at) = client.subscribe("qh", None).unwrap();
    let mut mirror = Mirror::new();

    // Writes land on the leader; the serving client sees them through
    // the replica.
    sess.apply_batch(&[Update::Insert(e, vec![5, 2])]).unwrap();
    let want = vec![vec![1, 2], vec![5, 2]];
    let deadline = std::time::Instant::now() + SYNC;
    while mirror.rows_sorted() != want {
        let now = std::time::Instant::now();
        assert!(now < deadline, "serving front end never converged");
        if let Some(frame) = client.next(deadline - now).unwrap() {
            mirror.apply("qh", &frame);
        }
    }
}

// ---------------------------------------------------------------------------
// Failover: promotion, candidate selection, stale-leader fencing
// ---------------------------------------------------------------------------

/// Candidate selection is a pure total order: highest `(epoch,
/// acked_seq)` wins, the lowest attach id breaks exact ties, and
/// followers silent past the liveness horizon are skipped.
#[test]
fn promotion_candidate_is_deterministic() {
    let now = std::time::Instant::now();
    let f = |id, epoch, acked_seq, silent_ms| FollowerProgress {
        id,
        addr: "127.0.0.1:1".parse().unwrap(),
        epoch,
        acked_seq,
        last_seen: now,
        silent_for: Duration::from_millis(silent_ms),
    };
    // A higher epoch beats any seq lead from an older one.
    let set = [f(1, 10, 99, 0), f(2, 11, 5, 0)];
    assert_eq!(promotion_candidate(&set, None).unwrap().id, 2);
    // Same epoch: the highest acked seq.
    let set = [f(1, 10, 50, 0), f(2, 10, 60, 0)];
    assert_eq!(promotion_candidate(&set, None).unwrap().id, 2);
    // Exact tie: the lowest id, whatever the input order.
    let set = [f(3, 10, 50, 0), f(1, 10, 50, 0), f(2, 10, 50, 0)];
    assert_eq!(promotion_candidate(&set, None).unwrap().id, 1);
    // Dead followers are skipped under a horizon, considered without.
    let set = [f(1, 10, 99, 5_000), f(2, 10, 10, 0)];
    let horizon = Some(Duration::from_secs(2));
    assert_eq!(promotion_candidate(&set, horizon).unwrap().id, 2);
    assert_eq!(promotion_candidate(&set, None).unwrap().id, 1);
    assert!(promotion_candidate(&set[..1], horizon).is_none());
    assert!(promotion_candidate(&[], None).is_none());
}

/// Promotion refuses a replica that never synced (nothing to fence
/// against, nothing to serve) — and the refusal is retryable, not a
/// latched "already promoted".
#[test]
fn promote_requires_a_synced_replica() {
    // A port with nothing behind it: connects fail, epoch stays 0.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let r = ReplicaSession::connect(addr, fast_replica()).unwrap();
    assert!(matches!(
        r.promote(Box::new(SimDisk::new()), small_opts()),
        Err(DurableError::Recovery(_))
    ));
    // Still Recovery (not Unsupported): the failed attempt unlatched.
    assert!(matches!(
        r.promote(Box::new(SimDisk::new()), small_opts()),
        Err(DurableError::Recovery(_))
    ));
}

/// The full failover story: the leader's ack-progress snapshot names
/// the candidate, the killed leader's most caught-up follower promotes
/// onto a bumped epoch term, the survivor re-handshakes and converges
/// against the oracle timeline, the promoted replica refuses a second
/// promotion, and a restarted stale leader both *orders below* the new
/// epoch and *fences* a new-epoch follower that lands on it — without
/// disturbing the follower's state.
#[test]
fn promotion_failover_and_stale_leader_fence() {
    let (schema, queries) = scratch();
    let old_disk = SimDisk::new();
    let sess1 = leader(&old_disk, false);
    let server1 =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess1), fast_leader()).unwrap();
    let front = vip(server1.local_addr());
    let a = ReplicaSession::connect(front.addr, fast_replica()).unwrap();
    let b = ReplicaSession::connect(front.addr, fast_replica()).unwrap();

    let mut db = Database::new(schema.clone());
    let mut frames: Vec<Option<Update>> = Vec::new();
    for op in script_ops(&schema, 51, 30) {
        run_op(&sess1, &mut db, &mut frames, &op);
    }
    let head = frames.len() as u64;
    assert!(a.wait_for_seq(head, SYNC), "{a:?}");
    assert!(b.wait_for_seq(head, SYNC), "{b:?}");

    // Leader-side ack plumbing: both followers' acked progress reaches
    // the head (acks ride applies and heartbeats, so poll briefly).
    let deadline = std::time::Instant::now() + SYNC;
    let progress = loop {
        let progress = server1.followers();
        if progress.len() == 2 && progress.iter().all(|f| f.acked_seq == head) {
            break progress;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "acks never reached the head: {progress:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let candidate = promotion_candidate(&progress, Some(Duration::from_secs(2))).unwrap();
    assert_eq!(candidate.acked_seq, head);
    // Both followers tie on (epoch, acked): the lowest attach id wins.
    assert_eq!(
        candidate.id,
        progress.iter().map(|f| f.id).min().unwrap(),
        "tie must break deterministically"
    );
    let epoch1 = a.epoch();
    assert_eq!(epoch1, sess1.replication_epoch());

    // The leader dies. Promote the fully caught-up follower.
    drop(server1);
    drop(sess1);
    let new_disk = SimDisk::new();
    let promoted = Arc::new(a.promote(Box::new(new_disk.clone()), small_opts()).unwrap());
    audit("promoted", &promoted);
    assert_eq!(
        promoted.seq().unwrap(),
        head,
        "promotion point is the watermark"
    );
    assert!(
        promoted.replication_epoch() > epoch1,
        "promotion must open a strictly higher epoch"
    );
    assert!(
        matches!(
            a.promote(Box::new(SimDisk::new()), small_opts()),
            Err(DurableError::Unsupported(_))
        ),
        "a second promotion must be refused"
    );

    // The survivor re-handshakes onto the new leader behind the VIP,
    // and writes continue on the promoted session.
    let server2 =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&promoted), fast_leader()).unwrap();
    *front.target.lock().unwrap() = server2.local_addr();
    b.kick();
    for op in script_ops(&schema, 52, 20) {
        run_op(&promoted, &mut db, &mut frames, &op);
    }
    assert_converged("survivor", &promoted, &b, &schema, &queries, &frames);
    assert_eq!(b.epoch(), promoted.replication_epoch());
    assert!(
        b.stats().bootstraps >= 2,
        "an old-epoch cursor must re-bootstrap onto the new timeline: {:?}",
        b.stats()
    );

    // The old leader comes back from its own disk. Its recovery bumps
    // the lifetime half of its epoch, but its term is stale — it orders
    // below the promoted leader no matter how many times it restarts.
    let old = Arc::new(DurableSession::recover(Box::new(old_disk.clone()), small_opts()).unwrap());
    assert!(
        old.replication_epoch() < promoted.replication_epoch(),
        "a restarted stale leader must order below the promoted epoch"
    );
    let old_server =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&old), fast_leader()).unwrap();

    // Misrouted VIP: the survivor lands on the stale leader, which must
    // fence it with a permanent deny rather than reset it backwards.
    *front.target.lock().unwrap() = old_server.local_addr();
    let applied_before = b.applied_seq();
    b.kick();
    let deadline = std::time::Instant::now() + SYNC;
    while b.stats().fenced != Some(DenyReason::StaleEpoch) {
        assert!(
            std::time::Instant::now() < deadline,
            "stale-epoch fence never surfaced: {:?}",
            b.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        b.applied_seq(),
        applied_before,
        "a fenced follower must not reset onto the stale timeline"
    );
    assert!(b.stats().denies >= 1, "{:?}", b.stats());
    assert!(
        old_server.stats().denied_stale >= 1,
        "the stale leader must count the fence: {:?}",
        old_server.stats()
    );

    // Routing fixed: the follower recovers, clears the fence, and
    // converges on the true timeline.
    *front.target.lock().unwrap() = server2.local_addr();
    b.kick();
    for op in script_ops(&schema, 53, 10) {
        if !matches!(op, Op::Checkpoint) {
            run_op(&promoted, &mut db, &mut frames, &op);
        }
    }
    assert_converged("recovered", &promoted, &b, &schema, &queries, &frames);
    assert_eq!(
        b.stats().fenced,
        None,
        "a successful handshake must clear the fence"
    );
}

/// A promoted replica keeps fronting the serving protocol: after
/// [`ReplicaSource::handoff`] the same server (same port, same client
/// cursors) serves from the promoted session, and `seq()` tracks new
/// commits instead of the frozen follower watermark.
#[test]
fn replica_source_hands_off_to_promoted_session() {
    use cq_updates::serve::{Client, Mirror, ReplicaSource, ServerHandle};

    let disk = SimDisk::new();
    let sess = leader(&disk, false);
    let repl_server =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let replica =
        Arc::new(ReplicaSession::connect(repl_server.local_addr(), fast_replica()).unwrap());

    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();
    assert!(replica.wait_for_seq(2, SYNC));

    let source = Arc::new(ReplicaSource::new(Arc::clone(&replica)));
    let front = ServerHandle::bind("127.0.0.1:0", Arc::clone(&source) as _).unwrap();
    let mut client = Client::connect(front.local_addr()).unwrap();
    client.subscribe("qh", None).unwrap();
    let mut mirror = Mirror::new();

    // Failover: kill the leader, promote the replica, hand the source
    // off. The serving client is none the wiser.
    drop(repl_server);
    drop(sess);
    assert!(source.replica().is_some());
    let promoted = Arc::new(
        replica
            .promote(Box::new(SimDisk::new()), small_opts())
            .unwrap(),
    );
    audit("promoted", &promoted);
    source.handoff(Arc::clone(&promoted));
    assert!(
        source.replica().is_none(),
        "handoff leaves the follower arm"
    );

    // Writes now land on the promoted session; the same subscription
    // keeps flowing (same backend, same feed), and seq() tracks them.
    let e = promoted.relation("E").unwrap();
    promoted.apply(&Update::Insert(e, vec![5, 2])).unwrap();
    assert_eq!(promoted.seq().unwrap(), 3);
    let want = vec![vec![1, 2], vec![5, 2]];
    let deadline = std::time::Instant::now() + SYNC;
    while mirror.rows_sorted() != want {
        let now = std::time::Instant::now();
        assert!(now < deadline, "promoted front end never converged");
        if let Some(frame) = client.next(deadline - now).unwrap() {
            mirror.apply("qh", &frame);
        }
    }
}

// ---------------------------------------------------------------------------
// Convergence under churn
// ---------------------------------------------------------------------------

/// What one racing reader thread saw: per query, the rows of every
/// distinct seq it pinned.
type Sightings = Vec<HashMap<u64, Vec<Vec<Const>>>>;

/// Pins every query of `replica` lock-free until `stop`, while the
/// applier writes. On one [`PinReader`] the pinned seq never decreases;
/// readers are re-taken every few pins so they follow the replica
/// across re-bootstraps.
fn race_pins(replica: &ReplicaSession, start: &Barrier, stop: &AtomicBool) -> Sightings {
    let mut seen: Sightings = vec![HashMap::new(); QUERIES.len()];
    start.wait();
    while !stop.load(Ordering::Acquire) {
        for (i, (name, _)) in QUERIES.iter().enumerate() {
            // Not bootstrapped yet, or between two cores.
            let Ok(reader) = replica.reader(name) else {
                continue;
            };
            let mut last = 0;
            for _ in 0..32 {
                let pin = reader.pin();
                assert!(pin.seq() >= last, "{name}: pin went back in time");
                last = pin.seq();
                let rows = seen[i]
                    .entry(pin.seq())
                    .or_insert_with(|| pin.results_sorted());
                assert_eq!(pin.count(), rows.len() as u64, "{name}: torn pin");
            }
        }
        std::thread::yield_now();
    }
    seen
}

/// Stops the racing readers when the leader-side script ends, however
/// it ends.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn churn_case(seed: u64, sharded: bool) {
    let (schema, queries) = scratch();
    let disk = SimDisk::new();
    let sess = leader(&disk, sharded);
    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let replicas: Vec<ReplicaSession> = (0..2)
        .map(|_| ReplicaSession::connect(server.local_addr(), fast_replica()).unwrap())
        .collect();
    let stop = AtomicBool::new(false);
    // The script starts once every racer runs.
    let start = Barrier::new(stress_readers() + 1);
    std::thread::scope(|scope| {
        let racers: Vec<_> = (0..stress_readers())
            .map(|i| {
                let (replica, start, stop) = (&replicas[i % replicas.len()], &start, &stop);
                scope.spawn(move || race_pins(replica, start, stop))
            })
            .collect();
        start.wait();
        let frames = {
            // Also on a failed assertion: the scope joins the racers
            // before the panic can surface.
            let _release = StopOnDrop(&stop);
            churn_script(seed, &sess, &replicas, &schema, &queries)
        };
        let head = frames.len() as u64;
        for racer in racers {
            let seen = racer.join().expect("racing reader");
            for ((name, q), pins) in queries.iter().zip(&seen) {
                for (&seq, rows) in pins {
                    assert!(seq <= head, "{name}: pinned seq {seq} past head {head}");
                    // Stamps are frame-exact in single mode only (see
                    // `assert_converged`).
                    if !sharded {
                        assert_eq!(
                            rows,
                            &brute_force(q, &db_at(&schema, &frames, seq)),
                            "{name}: racing pin at seq {seq} is not timeline[{seq}]"
                        );
                    }
                }
            }
        }
    });
}

/// The leader-side script of [`churn_case`]; returns the frame timeline.
fn churn_script(
    seed: u64,
    sess: &DurableSession,
    replicas: &[ReplicaSession],
    schema: &Schema,
    queries: &[(String, Query)],
) -> Vec<Option<Update>> {
    let ops = script_ops(schema, seed, 60);
    let mut rng = Lcg::new(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut db = Database::new(schema.clone());
    let mut frames: Vec<Option<Update>> = Vec::new();
    let forced_ckpt_at = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        run_op(sess, &mut db, &mut frames, op);
        if i == forced_ckpt_at {
            // The acceptance bar: at least one leader checkpoint lands
            // mid-stream while followers are attached.
            sess.checkpoint().unwrap();
        }
        if rng.below(100) < 12 {
            replicas[rng.below(2)].kick();
        }
        if rng.below(100) < 8 {
            // Mid-stream exactness: sync one follower to the current
            // head and check a pinned read against the oracle timeline
            // at the pin's own seq.
            let r = &replicas[rng.below(2)];
            let head = frames.len() as u64;
            assert!(r.wait_for_seq(head, SYNC), "mid-stream sync: {r:?}");
            let (name, q) = &queries[rng.below(queries.len())];
            let snap = r.snapshot(name).unwrap();
            assert!(snap.seq() <= head);
            assert_eq!(
                snap.results_sorted(),
                brute_force(q, &db),
                "{name}: mid-stream snapshot diverged at seq {head}"
            );
        }
    }
    for (i, r) in replicas.iter().enumerate() {
        assert_converged(&format!("replica-{i}"), sess, r, schema, queries, &frames);
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: stress_cases(),
        ..ProptestConfig::default()
    })]

    /// Random mixed batch/transaction/rollback streams with injected
    /// follower kicks and a forced mid-stream leader checkpoint: both
    /// followers converge to the leader and to the brute-force
    /// `timeline[seq]` oracle, single-writer and sharded alike.
    #[test]
    fn followers_converge_under_churn(seed in any::<u64>(), sharded in any::<bool>()) {
        churn_case(seed, sharded);
    }
}

/// Churn with a mid-script leader kill and promotion: run half the
/// script against the original leader (with injected kicks), kill it,
/// promote the deterministically-selected replica — highest
/// `(epoch, applied_seq)`, lowest index on ties — truncate the oracle
/// timeline to the promotion point (the unreplicated suffix is lost by
/// design), then run the rest of the script against the promoted
/// leader while the survivor re-handshakes through the VIP.
fn promote_churn_case(seed: u64, sharded: bool) {
    let (schema, queries) = scratch();
    let disk = SimDisk::new();
    let sess = leader(&disk, sharded);
    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let front = vip(server.local_addr());
    let replicas: Vec<ReplicaSession> = (0..2)
        .map(|_| ReplicaSession::connect(front.addr, fast_replica()).unwrap())
        .collect();

    let ops = script_ops(&schema, seed, 50);
    let mut rng = Lcg::new(seed ^ 0x0b4c_9d2f_8e61_a753);
    let mut db = Database::new(schema.clone());
    let mut frames: Vec<Option<Update>> = Vec::new();
    let split = ops.len() / 2;
    for op in ops.iter().take(split) {
        run_op(&sess, &mut db, &mut frames, op);
        if rng.below(100) < 10 {
            replicas[rng.below(2)].kick();
        }
    }
    // Guarantee a promotable candidate: replica 0 fully synced (so its
    // epoch is set and its watermark is the head); replica 1 is
    // wherever churn left it.
    let head = frames.len() as u64;
    assert!(replicas[0].wait_for_seq(head, SYNC), "{:?}", replicas[0]);
    assert_ne!(replicas[0].epoch(), 0, "synced replica must carry an epoch");

    // The leader dies at an arbitrary point in the script.
    drop(server);
    drop(sess);

    // Deterministic selection over the replicas' own (epoch, applied)
    // pairs — the same order promotion_candidate imposes on the
    // leader's ack snapshot, observed from the follower side.
    let states: Vec<(u64, u64)> = replicas
        .iter()
        .map(|r| (r.epoch(), r.applied_seq()))
        .collect();
    let winner = (0..replicas.len())
        .max_by_key(|&i| (states[i].0, states[i].1, std::cmp::Reverse(i)))
        .unwrap();
    let cut = states[winner].1;
    // Async replication: everything past the promotion point is lost.
    frames.truncate(cut as usize);
    let mut db = db_at(&schema, &frames, cut);

    let promoted = Arc::new(
        replicas[winner]
            .promote(Box::new(SimDisk::new()), small_opts())
            .unwrap(),
    );
    audit("promoted", &promoted);
    assert_eq!(promoted.seq().unwrap(), cut);
    assert!(promoted.replication_epoch() > states[winner].0);
    let server2 =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&promoted), fast_leader()).unwrap();
    *front.target.lock().unwrap() = server2.local_addr();
    let survivor = &replicas[1 - winner];
    survivor.kick();

    for op in ops.iter().skip(split) {
        run_op(&promoted, &mut db, &mut frames, op);
        if rng.below(100) < 10 {
            survivor.kick();
        }
    }
    assert_converged("survivor", &promoted, survivor, &schema, &queries, &frames);
    assert_eq!(survivor.epoch(), promoted.replication_epoch());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: promote_stress_cases(),
        ..ProptestConfig::default()
    })]

    /// Leader-kill-and-promote under churn: the survivor converges to
    /// the promoted leader and the truncated-timeline oracle,
    /// single-writer and sharded alike.
    #[test]
    fn promotion_converges_under_churn(seed in any::<u64>(), sharded in any::<bool>()) {
        promote_churn_case(seed, sharded);
    }
}

/// Observability satellite: one registry threaded through the leader
/// session, the replication listener, and the follower carries the
/// whole `repl_*` family. After the follower converges, the
/// per-follower `repl_leader_ack_lag` gauge must read 0, and once the
/// follower detaches the labelled series is retired from the scrape.
#[test]
fn leader_ack_lag_gauge_converges_to_zero() {
    let registry = Arc::new(cq_updates::obs::Registry::new());
    let disk = SimDisk::new();
    let lead = Arc::new(
        DurableSession::create(
            Box::new(disk.clone()),
            DurableOptions {
                registry: Some(Arc::clone(&registry)),
                ..small_opts()
            },
        )
        .unwrap(),
    );
    for (name, src) in QUERIES {
        lead.register(name, src).unwrap();
    }
    // LeaderConfig.registry is unset: bind must fall back to the
    // session's own registry, unifying the scrape.
    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&lead), fast_leader()).unwrap();
    let mut replica = ReplicaSession::connect(
        server.local_addr(),
        ReplicaOptions {
            registry: Some(Arc::clone(&registry)),
            ..fast_replica()
        },
    )
    .unwrap();

    let e = lead.relation("E").unwrap();
    let t = lead.relation("T").unwrap();
    for i in 0..50u64 {
        lead.apply_batch(&[
            Update::Insert(e, vec![i, i + 1]),
            Update::Insert(t, vec![i + 1]),
        ])
        .unwrap();
    }
    let head = lead.seq().unwrap();
    assert!(replica.wait_for_seq(head, SYNC), "{replica:?}");

    // The applied watermark converged; the leader's lag gauge follows
    // as soon as the final ack lands. Poll briefly for it.
    let followers = server.followers();
    assert_eq!(followers.len(), 1);
    let lag = registry.gauge_with(
        "repl_leader_ack_lag",
        &[("follower", &followers[0].id.to_string())],
    );
    let deadline = std::time::Instant::now() + SYNC;
    while lag.get() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "ack lag never reached 0 (stuck at {})",
            lag.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The same registry carries all four repl vantage points.
    let rendered = registry.render();
    for name in [
        "repl_leader_accepted_total",
        "repl_leader_followers",
        "repl_follower_connects_total",
        "repl_follower_applied_seq",
        "wal_commits_total",
    ] {
        assert!(rendered.contains(name), "render() missing {name}");
    }
    // The follower journaled its bootstrap into the shared journal.
    assert!(registry
        .journal()
        .events()
        .iter()
        .any(|ev| ev.kind == "follower_bootstrap"));

    // Detach retires the labelled lag series.
    replica.shutdown();
    drop(replica);
    let deadline = std::time::Instant::now() + SYNC;
    while registry.render().contains("repl_leader_ack_lag{") {
        assert!(
            std::time::Instant::now() < deadline,
            "per-follower lag series must be removed on detach"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The newest checkpoint file on `disk`, as `(name, bytes)`.
fn newest_checkpoint(disk: &SimDisk) -> (String, Vec<u8>) {
    let name = disk
        .names()
        .into_iter()
        .filter(|n| n.starts_with("ckpt-"))
        .max()
        .expect("a checkpoint was published");
    let bytes = disk.file(&name).unwrap();
    (name, bytes)
}

/// One script, replayed from both ends of the one log-replay machine:
/// crash recovery reads it off the directory, a late follower reads it
/// off the socket (checkpoint transfer plus tail). Both must end at the
/// leader's head with every query equal to `timeline[head]`, and with
/// the same registrations over the same database: a checkpoint taken of
/// each (the recovered session's own, the promoted replica's seed) is
/// byte-identical, name (its seq) included.
fn replay_differential_case(seed: u64, sharded: bool) {
    const LATE: &str = "Q(y) :- T(y), U(y).";
    let (schema, mut queries) = scratch();
    let disk = SimDisk::new();
    let sess = leader(&disk, sharded);
    let ops = script_ops(&schema, seed, 60);
    let mut db = Database::new(schema.clone());
    let mut frames: Vec<Option<Update>> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        run_op(&sess, &mut db, &mut frames, op);
        if i == ops.len() / 3 && !sharded {
            // Mid-script DDL: the open form registers between updates.
            sess.register("late", LATE).unwrap();
            let mut s = Session::new();
            for (name, src) in QUERIES {
                s.register(name, src).unwrap();
            }
            s.register("late", LATE).unwrap();
            queries.push(("late".into(), s.query("late").unwrap().query().clone()));
        }
        if i == ops.len() / 2 {
            sess.checkpoint().unwrap();
        }
    }
    let head = frames.len() as u64;

    let server = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&sess), fast_leader()).unwrap();
    let replica = ReplicaSession::connect(server.local_addr(), fast_replica()).unwrap();
    assert!(replica.wait_for_seq(head, SYNC), "{replica:?}");
    assert_eq!(replica.applied_seq(), head);

    let view = disk.strict_view();
    let recovered = DurableSession::recover(Box::new(view.clone()), small_opts()).unwrap();
    assert_eq!(recovered.seq().unwrap(), head);
    assert_eq!(recovered.is_sharded(), sharded);
    audit("recovery", &recovered);
    audit("bootstrap", &replica);

    for (name, q) in &queries {
        let want = brute_force(q, &db);
        assert_eq!(
            recovered.snapshot(name).unwrap().results_sorted(),
            want,
            "{name}: recovery is not timeline[{head}]"
        );
        assert_eq!(
            replica.snapshot(name).unwrap().results_sorted(),
            want,
            "{name}: bootstrap is not timeline[{head}]"
        );
    }

    assert_eq!(recovered.checkpoint().unwrap(), head);
    let seeded = SimDisk::new();
    let promoted = replica
        .promote(Box::new(seeded.clone()), small_opts())
        .unwrap();
    audit("promoted", &promoted);
    assert_eq!(promoted.seq().unwrap(), head);
    assert_eq!(
        newest_checkpoint(&view),
        newest_checkpoint(&seeded),
        "recovery and bootstrap disagree on (seq, registrations, database)"
    );
}

#[test]
fn recovery_and_bootstrap_replay_the_same_state() {
    for seed in [3, 17, 92, 2024] {
        replay_differential_case(seed, false);
        replay_differential_case(seed, true);
    }
}
