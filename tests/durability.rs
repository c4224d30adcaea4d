//! Crash-recovery suite for the durability subsystem.
//!
//! The driver runs a random script of applies, batches, transactions,
//! rollbacks, and checkpoints against a [`DurableSession`] over a
//! [`SimDisk`] armed to kill the "process" at a random byte offset or
//! fsync count. After the crash it rebuilds from the two survivor
//! views — `strict_view` (only fsynced bytes survived) and
//! `crash_view` (a random prefix of the page cache also survived,
//! possibly tearing a record mid-frame) — and checks the recovered
//! session against a brute-force oracle:
//!
//! * the recovered seq `R` must be a **valid cut** of the executed
//!   script: a committed frame, a prefix of the mid-flight batch, or
//!   the all-or-nothing boundary of the mid-flight transaction;
//! * every registered query's recovered result must equal the oracle's
//!   `timeline[R]` (brute force over the database at that cut);
//! * under `FsyncPolicy::Always`, the strict view must retain every
//!   operation that completed before the crash — the durability floor:
//!   no committed-and-fsynced update may be lost;
//! * a transaction whose commit record did not survive must be invisible
//!   in full — no partial transactions, ever.
//!
//! Deterministic satellites cover the checkpoint/rotation edge cases:
//! checkpoint with an empty tail, tail-only recovery, a stale leftover
//! segment older than the checkpoint, and a crash mid-checkpoint-write.
//!
//! Case count scales with `CQ_STRESS_CRASHES` (the CI crash matrix sets
//! 200; the default keeps local runs quick).

use cq_updates::prelude::*;
use cq_updates::query::RelId;
use cqu_testutil::{brute_force, cancelling_pairs, random_updates, Lcg, SimDisk, WorkloadConfig};
use proptest::prelude::*;

fn stress_crashes() -> u32 {
    std::env::var("CQ_STRESS_CRASHES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// Three footprint components, all engine routes — the same zoo the
/// sharded equivalence suite uses, so a sharded durable session splits
/// into three shards: `{E,T}`, `{F}`, `{S,G,U}`.
const QUERIES: &[(&str, &str)] = &[
    ("qh", "Q(x, y) :- E(x, y), T(y)."),
    ("via_core", "Q() :- F(x,x), F(x,y), F(y,y)."),
    ("ivm", "Q(x, y) :- S(x), G(x, y), U(y)."),
];

/// Registers the zoo into a scratch [`Session`] to obtain the union
/// schema and per-query ASTs with the session's interned relation ids
/// (registration order fixes the interning, so these match what any
/// durable session built from `QUERIES` uses).
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

fn small_opts(fsync: FsyncPolicy) -> DurableOptions {
    DurableOptions {
        fsync,
        // Tiny segments force rotation constantly, so recoveries span
        // many segments instead of one.
        segment_bytes: 512,
        ..DurableOptions::default()
    }
}

fn fresh(disk: &SimDisk, opts: DurableOptions, sharded: bool) -> DurableSession {
    if sharded {
        DurableSession::create_sharded(Box::new(disk.clone()), opts, QUERIES).unwrap()
    } else {
        let sess = DurableSession::create(Box::new(disk.clone()), opts).unwrap();
        for (name, src) in QUERIES {
            sess.register(name, src).unwrap();
        }
        sess
    }
}

/// One scripted operation against the durable session.
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
        let mut chunk: Vec<Update> = it.by_ref().take(1 + rng.below(5)).collect();
        if roll < 40 {
            // Half the transactions also insert and delete one fact: a
            // committed one logs both members, and its group replays as
            // one batch whose net leaves them out yet lands on the
            // group's last stamp.
            if rng.below(2) == 0 {
                chunk.extend(cancelling_pairs(&chunk[..1]));
            }
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

/// Predicts the effective subset of `updates` against `db` under set
/// semantics with a within-batch overlay — the driver-side twin of the
/// session's own dispatch rule.
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

/// What the operation in flight at crash time had staged.
#[derive(Debug)]
enum Mid {
    /// A batch's effective updates: records are independent, so any
    /// durable prefix is a valid recovery.
    Batch(Vec<Update>),
    /// A transaction's effective updates: all (commit record survived)
    /// or nothing.
    Tx(Vec<Update>),
    /// A checkpoint: no new seqs, any committed cut is valid.
    Checkpoint,
}

/// Executed history: `frames[i]` is seq `i+1` — `Some(update)` for a
/// committed effective update, `None` for a seq burned by a rollback.
struct Run {
    frames: Vec<Option<Update>>,
    mid: Option<Mid>,
    /// Last seq known fsynced when the op that drew it returned — the
    /// strict-view floor under `FsyncPolicy::Always`. Burned seqs stay
    /// out (their compensation record is written best-effort).
    floor: u64,
}

fn drive(sess: &DurableSession, schema: &Schema, ops: &[Op], always: bool) -> Run {
    let mut db = Database::new(schema.clone());
    let mut frames: Vec<Option<Update>> = Vec::new();
    let mut floor = 0u64;
    for op in ops {
        match op {
            Op::Batch(updates) => {
                let eff = effective(&db, updates);
                match sess.apply_batch(updates) {
                    Ok(report) => {
                        assert_eq!(report.applied, eff.len(), "driver misprediction");
                        for u in &eff {
                            assert!(db.apply(u));
                            frames.push(Some(u.clone()));
                        }
                        // Only an op that actually committed records can
                        // raise the floor: a no-op batch never touches
                        // the log, so it proves nothing about burned
                        // seqs before it (whose compensation record is
                        // best-effort).
                        if always && !eff.is_empty() {
                            floor = frames.len() as u64;
                        }
                    }
                    Err(DurableError::Wal(_)) => {
                        return Run {
                            frames,
                            mid: Some(Mid::Batch(eff)),
                            floor,
                        }
                    }
                    Err(e) => panic!("unexpected batch error: {e}"),
                }
            }
            Op::Tx { updates, commit } => {
                let eff = effective(&db, updates);
                let eff_n = eff.len();
                let res = sess.transaction(|tx| {
                    for u in updates {
                        tx.apply(u)?;
                    }
                    assert_eq!(tx.effective_len(), eff_n, "driver misprediction");
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
                        if always && !eff.is_empty() {
                            floor = frames.len() as u64;
                        }
                    }
                    // The intended rollback: seqs burn without frames.
                    // (A crash during the best-effort burn write also
                    // lands here — the next op then reports the crash.)
                    Err(DurableError::Session(_)) => {
                        assert!(!*commit, "committing transaction rejected");
                        frames.extend(std::iter::repeat_with(|| None).take(eff_n));
                    }
                    Err(DurableError::Wal(_)) => {
                        if *commit {
                            return Run {
                                frames,
                                mid: Some(Mid::Tx(eff)),
                                floor,
                            };
                        }
                        // Rollback path: the seqs burned in memory but
                        // the compensating SeqBurn failed to commit —
                        // surfaced as a Wal error since the fix. The
                        // burned numbers may or may not be covered on
                        // disk; either cut is a valid recovery.
                        frames.extend(std::iter::repeat_with(|| None).take(eff_n));
                        return Run {
                            frames,
                            mid: None,
                            floor,
                        };
                    }
                    Err(e) => panic!("unexpected tx error: {e}"),
                }
            }
            Op::Checkpoint => match sess.checkpoint() {
                Ok(_) => {}
                Err(DurableError::Wal(_)) => {
                    return Run {
                        frames,
                        mid: Some(Mid::Checkpoint),
                        floor,
                    }
                }
                Err(e) => panic!("unexpected checkpoint error: {e}"),
            },
        }
    }
    Run {
        frames,
        mid: None,
        floor,
    }
}

/// Database at cut `r` of the committed history, plus `extra` mid-flight
/// updates.
fn db_at(schema: &Schema, frames: &[Option<Update>], r: usize, extra: &[Update]) -> Database {
    let mut db = Database::new(schema.clone());
    for u in frames.iter().take(r).flatten() {
        assert!(db.apply(u), "committed frame must be effective");
    }
    for u in extra {
        assert!(db.apply(u), "mid-flight frame must be effective");
    }
    db
}

/// A lock-free reader on `name`, through whichever face the mode has.
fn pin_reader(sess: &DurableSession, name: &str) -> PinReader {
    match (sess.shared(), sess.sharded()) {
        (Some(single), _) => single.reader(name).unwrap(),
        (None, Some(sharded)) => sharded.reader(name).unwrap(),
        (None, None) => unreachable!("a session is single or sharded"),
    }
}

/// The q-tree audit over every registration of `sess`, each shard
/// against its own database: recovery builds every engine from the
/// session's `D` (a checkpoint load, then the log tail).
fn audit(sess: &DurableSession) {
    let audited = match (sess.shared(), sess.sharded()) {
        (Some(single), _) => single.read(Session::check_invariants).unwrap(),
        (None, Some(sharded)) => sharded.check_invariants(),
        (None, None) => unreachable!("a session is single or sharded"),
    };
    audited.expect("the recovered state passes the audit");
}

/// Recovers from `view` and checks the oracle invariants and the audit.
/// Returns the recovered session so callers can keep writing to it.
fn check_recovery(
    view: SimDisk,
    schema: &Schema,
    queries: &[(String, Query)],
    run: &Run,
    sharded: bool,
) -> DurableSession {
    let sess = DurableSession::recover(Box::new(view), small_opts(FsyncPolicy::Always))
        .expect("recovery must succeed on a crash-consistent view");
    assert_eq!(sess.is_sharded(), sharded, "recovered mode");
    let r = sess.seq().unwrap();
    // Lock-free pins first, before a locked read can freshen an epoch:
    // recovery positions the counter and publishes nothing, so it is
    // acquiring the reader that must show what was recovered.
    let pins: Vec<QuerySnapshot> = queries
        .iter()
        .map(|(name, _)| pin_reader(&sess, name).pin())
        .collect();
    assert!(
        r >= run.floor,
        "durability floor violated: recovered seq {r} < floor {}",
        run.floor
    );
    let committed = run.frames.len() as u64;

    // Candidate states at cut `r`. Usually one; a mid-flight transaction
    // whose update records all survived is ambiguous at its boundary seq
    // (with the commit record → applied; without → dropped, the buffered
    // records still advancing the counter).
    let mut candidates: Vec<Database> = Vec::new();
    if r <= committed {
        candidates.push(db_at(schema, &run.frames, r as usize, &[]));
    } else {
        let over = (r - committed) as usize;
        match &run.mid {
            Some(Mid::Batch(eff)) => {
                assert!(over <= eff.len(), "recovered seq beyond mid-flight batch");
                candidates.push(db_at(schema, &run.frames, run.frames.len(), &eff[..over]));
            }
            Some(Mid::Tx(eff)) => {
                assert!(over <= eff.len(), "recovered seq beyond mid-flight tx");
                candidates.push(db_at(schema, &run.frames, run.frames.len(), &[]));
                if over == eff.len() {
                    candidates.push(db_at(schema, &run.frames, run.frames.len(), eff));
                }
            }
            Some(Mid::Checkpoint) | None => {
                panic!("recovered seq {r} beyond durable history {committed}")
            }
        }
    }

    let got: Vec<(String, Vec<Vec<Const>>)> = queries
        .iter()
        .map(|(name, _)| (name.clone(), sess.snapshot(name).unwrap().results_sorted()))
        .collect();
    for (pin, (name, rows)) in pins.iter().zip(&got) {
        assert!(
            pin.seq() <= r,
            "{name}: lock-free pin stamped past the head"
        );
        assert_eq!(pin.results_sorted(), *rows, "{name}: lock-free pin");
    }
    let matched = candidates.iter().any(|db| {
        queries
            .iter()
            .zip(&got)
            .all(|((_, q), (_, rows))| brute_force(q, db) == *rows)
    });
    assert!(
        matched,
        "recovered state at seq {r} matches no valid cut ({} candidate(s)); got {got:?}",
        candidates.len()
    );
    audit(&sess);
    sess
}

fn crash_run(seed: u64, arm_bytes: Option<u64>, arm_syncs: Option<u64>, sharded: bool) {
    let (schema, queries) = scratch();
    let ops = script_ops(&schema, seed, 60);
    let disk = SimDisk::new();
    let sess = fresh(&disk, small_opts(FsyncPolicy::Always), sharded);
    // Arm only after creation + registration: DDL is part of the fixture
    // here (mid-stream registration crashes get their own test below).
    if let Some(n) = arm_bytes {
        disk.arm_bytes(n);
    }
    if let Some(n) = arm_syncs {
        disk.arm_syncs(n);
    }
    let run = drive(&sess, &schema, &ops, true);
    drop(sess);
    check_recovery(disk.strict_view(), &schema, &queries, &run, sharded);
    let mut rng = Lcg::new(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) | 1);
    check_recovery(disk.crash_view(&mut rng), &schema, &queries, &run, sharded);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: stress_crashes(), ..ProptestConfig::default() })]

    /// Single-writer crash points: kill at a random byte offset.
    #[test]
    fn single_writer_survives_byte_crashes(seed in 0u64..1_000_000, bytes in 0u64..6_000) {
        crash_run(seed, Some(bytes), None, false);
    }

    /// Single-writer crash points: kill at a random fsync.
    #[test]
    fn single_writer_survives_sync_crashes(seed in 0u64..1_000_000, syncs in 0u64..60) {
        crash_run(seed, None, Some(syncs), false);
    }

    /// Sharded crash points: kill at a random byte offset.
    #[test]
    fn sharded_survives_byte_crashes(seed in 0u64..1_000_000, bytes in 0u64..6_000) {
        crash_run(seed, Some(bytes), None, true);
    }

    /// Sharded crash points: kill at a random fsync.
    #[test]
    fn sharded_survives_sync_crashes(seed in 0u64..1_000_000, syncs in 0u64..60) {
        crash_run(seed, None, Some(syncs), true);
    }

    /// Lazy fsync policies lose only an unsynced suffix: recovery from
    /// the strict view must still land on a valid cut (no floor).
    #[test]
    fn lazy_policies_lose_only_a_suffix(seed in 0u64..1_000_000, every in 1u32..8) {
        let (schema, queries) = scratch();
        let ops = script_ops(&schema, seed, 40);
        let disk = SimDisk::new();
        let sess = fresh(&disk, small_opts(FsyncPolicy::EveryN(every)), false);
        let run = drive(&sess, &schema, &ops, false);
        prop_assert!(run.mid.is_none(), "unarmed disk cannot crash");
        drop(sess);
        check_recovery(disk.strict_view(), &schema, &queries, &run, false);
    }
}

// ---------------------------------------------------------------------
// Deterministic checkpoint / rotation / recovery edge cases.
// ---------------------------------------------------------------------

fn seeded_session(
    disk: &SimDisk,
    steps: usize,
) -> (Schema, Vec<(String, Query)>, Run, DurableSession) {
    let (schema, queries) = scratch();
    let ops = script_ops(&schema, 42, steps);
    let sess = fresh(disk, small_opts(FsyncPolicy::Always), false);
    let run = drive(&sess, &schema, &ops, true);
    assert!(run.mid.is_none());
    (schema, queries, run, sess)
}

/// Checkpoint with an empty tail: everything lives in the checkpoint,
/// old segments are pruned, and recovery replays no records.
#[test]
fn checkpoint_only_recovery() {
    let disk = SimDisk::new();
    let (schema, queries, run, sess) = seeded_session(&disk, 50);
    let seq = sess.checkpoint().unwrap();
    assert_eq!(seq, sess.seq().unwrap());
    drop(sess);
    let names = disk.names();
    assert_eq!(
        names.iter().filter(|n| n.starts_with("ckpt-")).count(),
        1,
        "exactly one checkpoint: {names:?}"
    );
    assert_eq!(
        names.iter().filter(|n| n.starts_with("wal-")).count(),
        1,
        "checkpoint prunes all sealed segments: {names:?}"
    );
    let rec = check_recovery(disk.strict_view(), &schema, &queries, &run, false);
    assert_eq!(rec.seq().unwrap(), seq);
}

/// No checkpoint at all: recovery is a pure tail replay across many
/// rotated segments.
#[test]
fn tail_only_recovery_spans_segments() {
    let disk = SimDisk::new();
    let (schema, queries, run, sess) = seeded_session(&disk, 50);
    drop(sess);
    assert!(
        disk.names()
            .iter()
            .filter(|n| n.starts_with("wal-"))
            .count()
            > 1,
        "512-byte segments must rotate under a 50-step script"
    );
    check_recovery(disk.strict_view(), &schema, &queries, &run, false);
}

/// A stale segment older than the checkpoint (a crash window between
/// checkpoint publish and segment removal): its records' seqs are
/// covered by the checkpoint and must be skipped, not replayed twice.
#[test]
fn checkpoint_newer_than_stale_leftover_segment() {
    let disk = SimDisk::new();
    let (schema, queries, run, sess) = seeded_session(&disk, 50);
    // Save a sealed early segment, checkpoint (which prunes it), then
    // plant it back — the on-disk shape of a crash before the remove.
    let early = disk
        .names()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .min()
        .unwrap();
    let bytes = disk.file(&early).unwrap();
    sess.checkpoint().unwrap();
    drop(sess);
    assert!(disk.file(&early).is_none(), "checkpoint must prune {early}");
    disk.put_file(&early, &bytes);
    check_recovery(disk.strict_view(), &schema, &queries, &run, false);
}

/// A crash while writing the checkpoint body: the torn `ckpt.tmp` is
/// ignored, nothing was pruned, and recovery falls back to the full
/// tail replay.
#[test]
fn crash_during_checkpoint_write_falls_back_to_tail() {
    let disk = SimDisk::new();
    let (schema, queries, run, sess) = seeded_session(&disk, 50);
    disk.arm_bytes(64); // enough for the header, not the body
    assert!(matches!(sess.checkpoint(), Err(DurableError::Wal(_))));
    drop(sess);
    let view = disk.strict_view();
    assert!(
        !view.names().iter().any(|n| n.starts_with("ckpt-")),
        "no checkpoint may publish from a torn ckpt.tmp"
    );
    let rec = check_recovery(view, &schema, &queries, &run, false);
    assert_eq!(
        rec.seq().unwrap(),
        run.frames.len() as u64,
        "fsynced tail is complete, so recovery lands on the last frame"
    );
}

/// Registration mid-stream (single mode) is durable DDL: recovery
/// re-registers in log order and the late query's state is exact.
#[test]
fn mid_stream_registration_survives() {
    let disk = SimDisk::new();
    let sess =
        DurableSession::create(Box::new(disk.clone()), small_opts(FsyncPolicy::Always)).unwrap();
    sess.register("qh", QUERIES[0].1).unwrap();
    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();
    sess.register("late", "Q(y) :- T(y).").unwrap();
    sess.apply(&Update::Insert(t, vec![7])).unwrap();
    drop(sess);

    let rec = DurableSession::recover(
        Box::new(disk.strict_view()),
        small_opts(FsyncPolicy::Always),
    )
    .unwrap();
    audit(&rec);
    assert_eq!(rec.seq().unwrap(), 3);
    assert_eq!(
        rec.snapshot("qh").unwrap().results_sorted(),
        vec![vec![1, 2]]
    );
    assert_eq!(
        rec.snapshot("late").unwrap().results_sorted(),
        vec![vec![2], vec![7]]
    );
}

/// The recovered session is live: it keeps accepting durable writes,
/// and a second recovery sees them.
#[test]
fn recovery_roundtrips_and_stays_writable() {
    let disk = SimDisk::new();
    let (schema, queries, mut run, sess) = seeded_session(&disk, 30);
    drop(sess);
    check_recovery(disk.strict_view(), &schema, &queries, &run, false);

    // The recovered session writes to the *view* disk; keep driving it.
    let view = disk.strict_view();
    let rec =
        DurableSession::recover(Box::new(view.clone()), small_opts(FsyncPolicy::Always)).unwrap();
    audit(&rec);
    assert_eq!(rec.seq().unwrap(), run.frames.len() as u64);
    let more = script_ops(&schema, 43, 20);
    let run2 = {
        // Seed the oracle db with the recovered state, then extend.
        let mut db = Database::new(schema.clone());
        for u in run.frames.iter().flatten() {
            db.apply(u);
        }
        let mut frames = std::mem::take(&mut run.frames);
        for op in &more {
            if let Op::Batch(updates) = op {
                let eff = effective(&db, updates);
                let report = rec.apply_batch(updates).unwrap();
                assert_eq!(report.applied, eff.len());
                for u in &eff {
                    assert!(db.apply(u));
                    frames.push(Some(u.clone()));
                }
            }
        }
        Run {
            frames,
            mid: None,
            floor: 0,
        }
    };
    drop(rec);
    let rec2 = check_recovery(view.strict_view(), &schema, &queries, &run2, false);
    assert_eq!(rec2.seq().unwrap(), run2.frames.len() as u64);
}

/// An empty directory is not a recoverable state — typed error, and
/// `create` refuses a directory that already holds a log.
#[test]
fn recover_empty_and_create_nonvirgin_refuse() {
    let disk = SimDisk::new();
    assert!(matches!(
        DurableSession::recover(Box::new(disk.clone()), DurableOptions::default()),
        Err(DurableError::Recovery(_))
    ));
    let sess = DurableSession::create(Box::new(disk.clone()), DurableOptions::default()).unwrap();
    drop(sess);
    assert!(matches!(
        DurableSession::create(Box::new(disk.clone()), DurableOptions::default()),
        Err(DurableError::Unsupported(_))
    ));
    // But recovery of the (query-less) log now succeeds.
    let rec = DurableSession::recover(Box::new(disk), DurableOptions::default()).unwrap();
    audit(&rec);
    assert_eq!(rec.seq().unwrap(), 0);
    assert!(!rec.is_sharded());
}

/// Flipping a synced byte mid-log is corruption, not a torn tail:
/// recovery must refuse with a typed error rather than silently
/// truncating history.
#[test]
fn mid_log_corruption_is_refused() {
    let disk = SimDisk::new();
    let (_schema, _queries, _run, sess) = seeded_session(&disk, 50);
    drop(sess);
    let view = disk.strict_view();
    let first = view
        .names()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .min()
        .unwrap();
    let mut bytes = view.file(&first).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    view.put_file(&first, &bytes);
    assert!(
        matches!(
            DurableSession::recover(Box::new(view), DurableOptions::default()),
            Err(DurableError::Wal(cq_updates::wal::WalError::Corrupt { .. }))
        ),
        "corrupt non-final segment must be refused"
    );
}

/// Sharded creation seals the query set; `register` on it is a typed
/// refusal, and the sharded mode round-trips through recovery.
#[test]
fn sharded_mode_roundtrip_and_sealed_registration() {
    let disk = SimDisk::new();
    let sess = fresh(&disk, small_opts(FsyncPolicy::Always), true);
    assert!(sess.is_sharded());
    assert!(matches!(
        sess.register("extra", "Q(x) :- E(x, x)."),
        Err(DurableError::Unsupported(_))
    ));
    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    let f = sess.relation("F").unwrap();
    sess.apply_batch(&[
        Update::Insert(e, vec![1, 2]),
        Update::Insert(t, vec![2]),
        Update::Insert(f, vec![3, 3]),
    ])
    .unwrap();
    drop(sess);
    let rec = DurableSession::recover(
        Box::new(disk.strict_view()),
        small_opts(FsyncPolicy::Always),
    )
    .unwrap();
    audit(&rec);
    assert!(rec.is_sharded());
    assert_eq!(rec.seq().unwrap(), 3);
    assert_eq!(
        rec.snapshot("qh").unwrap().results_sorted(),
        vec![vec![1, 2]]
    );
    assert_eq!(rec.snapshot("via_core").unwrap().count(), 1);
}

// ---------------------------------------------------------------------------
// Transient-fault regressions: a commit the caller saw fail must never be
// replayed, and commits acknowledged *after* a fault must always survive.
// ---------------------------------------------------------------------------

use cq_updates::wal::WalFile;
use std::io;
use std::sync::{Arc, Mutex};

/// Pending one-shot faults for [`FaultyDir`].
#[derive(Default)]
struct Faults {
    /// Next append writes only this many bytes, then errors (torn write).
    append_partial: Option<usize>,
    /// Next fsync errors without flushing (fsyncgate).
    sync_fail: bool,
}

/// A [`WalDir`] over a [`SimDisk`] that injects *transient* faults: one
/// append or fsync fails, the process survives, and every later call
/// succeeds. `SimDisk` itself can only model fail-stop crashes (once
/// crashed, everything fails forever), so this wrapper is what lets a
/// test exercise the writer's poison-and-repair path and then keep
/// using the same session.
#[derive(Clone)]
struct FaultyDir {
    disk: SimDisk,
    faults: Arc<Mutex<Faults>>,
}

impl FaultyDir {
    fn new(disk: &SimDisk) -> FaultyDir {
        FaultyDir {
            disk: disk.clone(),
            faults: Arc::default(),
        }
    }

    fn fail_next_append(&self, partial: usize) {
        self.faults.lock().unwrap().append_partial = Some(partial);
    }

    fn fail_next_sync(&self) {
        self.faults.lock().unwrap().sync_fail = true;
    }
}

struct FaultyFile {
    inner: Box<dyn WalFile>,
    faults: Arc<Mutex<Faults>>,
}

impl WalFile for FaultyFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let armed = self.faults.lock().unwrap().append_partial.take();
        match armed {
            Some(k) => {
                // The torn prefix reaches the page cache before the error
                // surfaces, exactly like a short write under ENOSPC.
                self.inner.append(&buf[..k.min(buf.len())])?;
                Err(io::Error::other("injected torn write"))
            }
            None => self.inner.append(buf),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        if std::mem::take(&mut self.faults.lock().unwrap().sync_fail) {
            // Fail WITHOUT flushing: the appended bytes stay dirty in the
            // page cache, free to hit disk later via OS writeback.
            return Err(io::Error::other("injected fsync fault"));
        }
        self.inner.sync()
    }
}

impl WalDir for FaultyDir {
    fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(FaultyFile {
            inner: self.disk.create(name)?,
            faults: Arc::clone(&self.faults),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.disk.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.disk.list()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.disk.remove(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.disk.rename(from, to)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.disk.truncate(name, len)
    }

    fn sync_dir(&self) -> io::Result<()> {
        self.disk.sync_dir()
    }
}

/// The most adversarial recovery view: every byte the process ever
/// wrote reached disk, fsynced or not — the OS flushed the whole page
/// cache before the "crash". Anything the repair path left in a
/// segment file is visible to recovery here.
fn full_view(disk: &SimDisk) -> SimDisk {
    let view = SimDisk::new();
    for name in disk.names() {
        view.put_file(&name, &disk.file(&name).unwrap());
    }
    view
}

/// REVIEW finding 2: a transaction whose `wal.commit()` failed on fsync
/// has a fully framed `TxBegin … TxCommit` sitting in the page cache.
/// The caller was told `Err` and rolled back in memory — so even if the
/// OS later flushes everything, recovery must not replay the tx, and
/// the compensating `SeqBurn` must keep the seq counter in lockstep.
#[test]
fn failed_tx_commit_is_never_replayed() {
    let disk = SimDisk::new();
    let faulty = FaultyDir::new(&disk);
    let sess =
        DurableSession::create(Box::new(faulty.clone()), small_opts(FsyncPolicy::Always)).unwrap();
    for (name, src) in QUERIES {
        sess.register(name, src).unwrap();
    }
    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();
    let before = sess.snapshot("qh").unwrap().results_sorted();
    assert_eq!(before, vec![vec![1, 2]]);

    // The tx frames append cleanly; the commit's fsync fails.
    faulty.fail_next_sync();
    let res = sess.transaction(|tx| {
        tx.apply(&Update::Insert(e, vec![7, 2]))?;
        Ok(())
    });
    assert!(matches!(res, Err(DurableError::Wal(_))));
    assert_eq!(sess.snapshot("qh").unwrap().results_sorted(), before);

    let rec = DurableSession::recover(Box::new(full_view(&disk)), small_opts(FsyncPolicy::Always))
        .unwrap();
    audit(&rec);
    assert_eq!(
        rec.snapshot("qh").unwrap().results_sorted(),
        before,
        "a transaction whose caller saw Err must not be replayed"
    );
    assert_eq!(
        rec.seq().unwrap(),
        sess.seq().unwrap(),
        "the SeqBurn must survive the repair so recovery lands on the live seq"
    );

    // The survivor session keeps working, and its post-fault commits are
    // durable: recovery sees them even through the strictest view.
    sess.apply_batch(&[Update::Insert(e, vec![9, 2])]).unwrap();
    let after = sess.snapshot("qh").unwrap().results_sorted();
    let rec2 = DurableSession::recover(Box::new(full_view(&disk)), small_opts(FsyncPolicy::Always))
        .unwrap();
    audit(&rec2);
    assert_eq!(rec2.snapshot("qh").unwrap().results_sorted(), after);
    assert_eq!(rec2.seq().unwrap(), sess.seq().unwrap());
}

/// REVIEW finding 1: a torn append must not leave the writer appending
/// acknowledged commits behind suspect bytes. Batch B tears mid-frame;
/// batch C is then acknowledged. Recovery — even from a view where the
/// torn bytes reached disk — must produce exactly A + C.
#[test]
fn acknowledged_writes_survive_a_torn_predecessor() {
    let disk = SimDisk::new();
    let faulty = FaultyDir::new(&disk);
    let sess =
        DurableSession::create(Box::new(faulty.clone()), small_opts(FsyncPolicy::Always)).unwrap();
    for (name, src) in QUERIES {
        sess.register(name, src).unwrap();
    }
    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();

    // Batch A: committed and fsynced.
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();

    // Batch B: the frame tears three bytes in.
    faulty.fail_next_append(3);
    let res = sess.apply_batch(&[Update::Insert(e, vec![5, 2])]);
    assert!(matches!(res, Err(DurableError::Wal(_))));

    // Batch C: acknowledged after the fault — a durability promise.
    sess.apply_batch(&[Update::Insert(e, vec![9, 2])]).unwrap();
    let live = sess.snapshot("qh").unwrap().results_sorted();
    assert_eq!(live, vec![vec![1, 2], vec![9, 2]]);

    let rec = DurableSession::recover(Box::new(full_view(&disk)), small_opts(FsyncPolicy::Always))
        .unwrap();
    audit(&rec);
    assert_eq!(
        rec.snapshot("qh").unwrap().results_sorted(),
        live,
        "acknowledged commits after a torn write must survive recovery"
    );
    assert_eq!(rec.seq().unwrap(), sess.seq().unwrap());
}

/// A rollback burns the seq numbers the aborted transaction consumed,
/// and that burn is itself a WAL commit. If *it* fails, the caller used
/// to see only the scripted rollback error (`Session`) while the log
/// silently lost the burn — recovery could then reissue the burned
/// numbers. The fix surfaces the log fault: the caller must see
/// `DurableError::Wal`, not the rollback reason.
#[test]
fn failed_rollback_burn_surfaces_the_wal_error() {
    let disk = SimDisk::new();
    let faulty = FaultyDir::new(&disk);
    let sess =
        DurableSession::create(Box::new(faulty.clone()), small_opts(FsyncPolicy::Always)).unwrap();
    for (name, src) in QUERIES {
        sess.register(name, src).unwrap();
    }
    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();
    let before = sess.snapshot("qh").unwrap().results_sorted();

    // The tx rolls back by script; the compensating SeqBurn's fsync
    // fails. The burn commit is the only WAL write on this path.
    faulty.fail_next_sync();
    let res = sess.transaction(|tx| {
        tx.apply(&Update::Insert(e, vec![7, 2]))?;
        Err::<(), _>(CqError::UnknownQuery("scripted rollback".into()))
    });
    assert!(
        matches!(res, Err(DurableError::Wal(_))),
        "a burn that failed to commit must surface the log fault, got {res:?}"
    );
    assert_eq!(sess.snapshot("qh").unwrap().results_sorted(), before);

    // The writer repairs on the next commit; acknowledged work after
    // the fault is durable and recovery lands on the live counter (the
    // later record's higher seq covers the burned number even though
    // the burn record itself was lost).
    sess.apply_batch(&[Update::Insert(e, vec![9, 2])]).unwrap();
    let after = sess.snapshot("qh").unwrap().results_sorted();
    let rec = DurableSession::recover(Box::new(full_view(&disk)), small_opts(FsyncPolicy::Always))
        .unwrap();
    audit(&rec);
    assert_eq!(rec.snapshot("qh").unwrap().results_sorted(), after);
    assert_eq!(
        rec.seq().unwrap(),
        sess.seq().unwrap(),
        "recovery must land on the live counter, burned numbers included"
    );
}

/// Durable DDL is log-before-publish like every other mutation: a
/// `Register` whose commit failed must leave the session exactly where
/// the log has it — no query, no interned relation. Otherwise later
/// `Update` records carry relation ids recovery has never seen. The
/// survivor keeps registering and committing, the refused registration
/// can be retried, and recovery — even from a view where the refused
/// frame reached disk — lands on the live state, relation ids included.
#[test]
fn failed_register_commit_leaves_the_session_unchanged() {
    let disk = SimDisk::new();
    let faulty = FaultyDir::new(&disk);
    let sess =
        DurableSession::create(Box::new(faulty.clone()), small_opts(FsyncPolicy::Always)).unwrap();
    sess.register("qh", QUERIES[0].1).unwrap();
    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();

    // The Register frame appends cleanly; its fsync fails.
    let late = "Q(x) :- Z(x), T(x).";
    faulty.fail_next_sync();
    let res = sess.register("late", late);
    assert!(matches!(res, Err(DurableError::Wal(_))), "got {res:?}");
    assert!(
        sess.snapshot("late").is_err(),
        "a registration the log refused must not exist in memory"
    );
    assert!(
        sess.relation("Z").is_err(),
        "a registration the log refused must not intern its relations"
    );

    // A different query takes the relation id `Z` would have had.
    sess.register("other", "Q(x) :- W(x), T(x).").unwrap();
    let w = sess.relation("W").unwrap();
    sess.apply_batch(&[Update::Insert(w, vec![2]), Update::Insert(e, vec![9, 2])])
        .unwrap();
    sess.register("late", late).unwrap();
    let z = sess.relation("Z").unwrap();
    sess.apply(&Update::Insert(z, vec![2])).unwrap();
    assert!(w.index() < z.index());

    let rec = DurableSession::recover(Box::new(full_view(&disk)), small_opts(FsyncPolicy::Always))
        .unwrap();
    audit(&rec);
    for (name, want) in [
        ("qh", vec![vec![1, 2], vec![9, 2]]),
        ("other", vec![vec![2]]),
        ("late", vec![vec![2]]),
    ] {
        assert_eq!(sess.snapshot(name).unwrap().results_sorted(), want);
        assert_eq!(rec.snapshot(name).unwrap().results_sorted(), want, "{name}");
    }
    assert_eq!(rec.relation("W").unwrap(), w);
    assert_eq!(rec.relation("Z").unwrap(), z);
    assert_eq!(rec.seq().unwrap(), sess.seq().unwrap());
}

/// A registration whose q-tree weight `C^i` passes `u64` on the data
/// already stored: `Q(x) :- A(x,a), …, F(x,f)` over 2048 facts `(0, i)`
/// per relation has one result but 2048⁶ = 2⁶⁶ unprojected expansions.
/// The `Register` record is committed before the engine loads, so a load
/// that failed here would fail again on every recovery. Not audited: the
/// brute force would enumerate all 2⁶⁶ expansions.
#[test]
fn a_registration_with_weights_past_u64_commits_and_recovers() {
    let disk = SimDisk::new();
    let sess = DurableSession::create(Box::new(disk.clone()), DurableOptions::default()).unwrap();
    // Interns A..F; its own weights stay small (2048 at the root).
    sess.register(
        "loader",
        "Q(x, y) :- A(x, y), B(x, y), C(x, y), D(x, y), E(x, y), F(x, y).",
    )
    .unwrap();
    let facts: Vec<Update> = ["A", "B", "C", "D", "E", "F"]
        .into_iter()
        .flat_map(|name| {
            let rel = sess.relation(name).unwrap();
            (0..2048).map(move |i| Update::Insert(rel, vec![0, i]))
        })
        .collect();
    sess.apply_batch(&facts).unwrap();
    let star = "Q(x) :- A(x, a), B(x, b), C(x, c), D(x, d), E(x, e), F(x, f).";
    sess.register("star", star).unwrap();
    assert_eq!(sess.count("star").unwrap(), 1);
    drop(sess);

    let rec =
        DurableSession::recover(Box::new(full_view(&disk)), DurableOptions::default()).unwrap();
    assert_eq!(rec.count("star").unwrap(), 1);
    assert_eq!(
        rec.snapshot("star").unwrap().results_sorted(),
        vec![vec![0]]
    );
    assert_eq!(rec.count("loader").unwrap(), 2048);
}

/// Satellite check for the observability layer: with a registry
/// threaded through [`DurableOptions`], `wal_commits_total` is *exact*
/// — it equals the oracle count of commit-record writes. The oracle is
/// driven alongside the session: one commit for the `Mode` record at
/// create, one per registration, one per batch with a non-empty
/// effective subset (no-op batches never touch the log), one per
/// committed transaction, and one for a rollback's compensating
/// `SeqBurn`.
#[test]
fn wal_commit_counter_matches_oracle() {
    let registry = Arc::new(cq_updates::obs::Registry::new());
    let disk = SimDisk::new();
    let opts = DurableOptions {
        registry: Some(Arc::clone(&registry)),
        ..small_opts(FsyncPolicy::Always)
    };
    let sess = DurableSession::create(Box::new(disk.clone()), opts).unwrap();
    let mut oracle = 1u64; // the Mode record committed at create
    for (name, src) in QUERIES {
        sess.register(name, src).unwrap();
        oracle += 1;
    }
    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();

    // Effective batches: one commit each.
    for i in 0..10u64 {
        let report = sess
            .apply_batch(&[
                Update::Insert(e, vec![i, i + 1]),
                Update::Insert(t, vec![i + 1]),
            ])
            .unwrap();
        assert_eq!(report.applied, 2);
        oracle += 1;
    }
    // A fully no-op batch: nothing reaches the log.
    let report = sess
        .apply_batch(&[Update::Insert(e, vec![0, 1]), Update::Delete(t, vec![999])])
        .unwrap();
    assert_eq!(report.applied, 0);

    // A committed transaction: one commit for the whole group.
    sess.transaction(|tx| {
        tx.apply(&Update::Insert(e, vec![100, 101]))?;
        tx.apply(&Update::Insert(t, vec![101]))?;
        Ok(())
    })
    .unwrap();
    oracle += 1;

    // A rollback with consumed seqs: one commit for the SeqBurn.
    let res = sess.transaction(|tx| {
        tx.apply(&Update::Insert(e, vec![200, 201]))?;
        Err::<(), _>(CqError::UnknownQuery("scripted rollback".into()))
    });
    assert!(matches!(res, Err(DurableError::Session(_))));
    oracle += 1;

    let commits = registry.counter("wal_commits_total").get();
    assert_eq!(
        commits, oracle,
        "wal_commits_total must equal the oracle commit count"
    );
    // The same number must be visible through the text exposition.
    let rendered = registry.render();
    assert!(
        rendered.contains(&format!("wal_commits_total {oracle}")),
        "render() missing the commit counter:\n{rendered}"
    );
    // And the session layer counted every effective update batch too.
    assert!(registry.counter("session_batches_total").get() > 0);
}

/// A log must replay onto its own stamps. One `Update` frame duplicated
/// inside a segment (valid CRC: whole frames, as `Rec::frame` builds
/// them) makes the stamps restart; recovery refuses the log instead of
/// replaying the update twice and forcing the counter over the damage.
#[test]
fn duplicated_update_frame_is_refused() {
    use cq_updates::wal::Rec;
    let disk = SimDisk::new();
    let opts = || DurableOptions::default(); // one segment holds it all
    let sess = DurableSession::create(Box::new(disk.clone()), opts()).unwrap();
    sess.register("qh", QUERIES[0].1).unwrap();
    let e = sess.relation("E").unwrap();
    let t = sess.relation("T").unwrap();
    sess.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();
    sess.apply(&Update::Insert(e, vec![3, 2])).unwrap();
    drop(sess);

    let view = disk.strict_view();
    let rec = DurableSession::recover(Box::new(view.strict_view()), opts()).unwrap();
    audit(&rec);
    assert_eq!(rec.seq().unwrap(), 3, "the undamaged log recovers");

    let name = view
        .names()
        .into_iter()
        .find(|n| n.starts_with("wal-"))
        .unwrap();
    let bytes = view.file(&name).unwrap();
    // Past the 16-byte segment header (magic, version, term), copy every
    // frame through, and the first `Update` twice.
    let mut damaged = bytes[..16].to_vec();
    let mut rest = &bytes[16..];
    let mut duplicated = false;
    while !rest.is_empty() {
        let (rec, used) = Rec::unframe(rest).unwrap();
        rec.frame(&mut damaged);
        if matches!(rec, Rec::Update { .. }) && !duplicated {
            rec.frame(&mut damaged);
            duplicated = true;
        }
        rest = &rest[used..];
    }
    assert!(duplicated);
    view.put_file(&name, &damaged);
    match DurableSession::recover(Box::new(view), opts()) {
        Err(DurableError::Recovery(msg)) => {
            assert!(msg.contains("replay diverged"), "refused with {msg:?}")
        }
        other => panic!("a log that does not land on its own stamps recovered: {other:?}"),
    }
}
