//! Integration tests for the unified `Session` API: classifier routing,
//! batch/transactional updates, change subscriptions, and schema growth.

use cq_updates::dynamic::Standalone;
use cq_updates::prelude::*;
use cq_updates::query::generator::Lcg;
use cq_updates::query::RelId;
use cqu_testutil::{brute_force, random_query, random_updates, GenConfig, WorkloadConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Acceptance: the session routes each query class to the right engine
/// without the caller naming one.
#[test]
fn auto_routing_matches_the_dichotomy() {
    let mut s = Session::new();
    // Theorem 3.2: q-hierarchical — the paper's algorithm.
    s.register("easy", "Q(x, y) :- E(x, y), T(y).").unwrap();
    // Theorem 3.3: ϕ_S-E-T, conditionally hard — baseline fallback.
    s.register("hard", "Q(x, y) :- S(x), E(x, y), T(y).")
        .unwrap();
    // Core-tractable: not q-hierarchical, but its homomorphic core
    // (∃x Exx) is — routed to the dynamic engine *on the core*.
    s.register("via_core", "Q() :- E(x,x), E(x,y), E(y,y).")
        .unwrap();
    // Section 7 self-join pair: enumeration open — fallback.
    s.register("open", "Q(x, y) :- E(x,x), E(x,y), E(y,y).")
        .unwrap();

    let easy = s.query("easy").unwrap();
    assert_eq!(easy.kind(), EngineKind::QHierarchical);
    assert_eq!(easy.route_reason(), RouteReason::QHierarchical);
    assert!(easy.classification().enumeration.is_tractable());

    let hard = s.query("hard").unwrap();
    assert_eq!(hard.kind(), EngineKind::DeltaIvm);
    assert_eq!(hard.route_reason(), RouteReason::Fallback);
    assert!(hard.classification().enumeration.is_hard());

    let via_core = s.query("via_core").unwrap();
    assert_eq!(via_core.kind(), EngineKind::QHierarchical);
    assert_eq!(via_core.route_reason(), RouteReason::QHierarchicalCore);

    let open = s.query("open").unwrap();
    assert_eq!(open.kind(), EngineKind::DeltaIvm);
    assert_eq!(open.route_reason(), RouteReason::Fallback);
    assert!(open.classification().enumeration.is_open());
}

#[test]
fn forced_choice_overrides_and_rejects() {
    let mut s = Session::new();
    // Auto would pick the qh engine for this q-hierarchical query.
    s.register_with(
        "ivm",
        "Q(x, y) :- E(x, y), T(y).",
        EngineChoice::Forced(EngineKind::DeltaIvm),
    )
    .unwrap();
    let ivm = s.query("ivm").unwrap();
    assert_eq!(ivm.kind(), EngineKind::DeltaIvm);
    assert_eq!(ivm.route_reason(), RouteReason::Forced);

    // Forcing the qh engine onto a hard query surfaces the violation.
    let err = s
        .register_with(
            "nope",
            "Q(x, y) :- S(x), E(x, y), T(y).",
            EngineChoice::Forced(EngineKind::QHierarchical),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        CqError::Query(QueryError::NotQHierarchical(_))
    ));
    assert!(
        s.query("nope").is_err(),
        "failed registration must not register"
    );
}

#[test]
fn session_level_errors_are_typed() {
    let mut s = Session::new();
    s.register("q", "Q(x) :- R(x).").unwrap();
    assert!(matches!(
        s.register("q", "Q(x) :- R(x)."),
        Err(CqError::DuplicateQuery(_))
    ));
    assert!(matches!(
        s.register("bad", "Q(x) :- R(x"),
        Err(CqError::Parse(_))
    ));
    assert!(matches!(
        s.register("mismatch", "Q(x, y) :- R(x, y)."),
        Err(CqError::Query(QueryError::ArityMismatch { .. }))
    ));
    assert!(matches!(s.query("ghost"), Err(CqError::UnknownQuery(_))));
    assert!(matches!(
        s.relation("Ghost"),
        Err(CqError::UnknownRelation(_))
    ));
    let r = s.relation("R").unwrap();
    assert!(matches!(
        s.apply(&Update::Insert(r, vec![1, 2])),
        Err(CqError::Arity {
            expected: 1,
            found: 2,
            ..
        })
    ));
    assert!(matches!(
        s.apply(&Update::Insert(cq_updates::query::RelId(99), vec![1])),
        Err(CqError::UnknownRelationId(99))
    ));
    assert_eq!(
        s.database().cardinality(),
        0,
        "failed updates must not apply"
    );
}

/// A failed registration must leave the session schema and its
/// database exactly as they were — no half-interned relations that a
/// later update could address and crash on.
#[test]
fn failed_registration_leaves_schema_untouched() {
    let mut s = Session::new();
    s.register("ok", "Q(x) :- B(x, y).").unwrap();
    let schema_before = s.schema().len();

    // Interns A fine, then clashes on B's arity — A must not survive.
    let err = s.register("bad", "Q(x) :- A(x), B(x, y, z).").unwrap_err();
    assert!(matches!(
        err,
        CqError::Query(QueryError::ArityMismatch { .. })
    ));
    assert_eq!(s.schema().len(), schema_before);
    assert!(matches!(s.relation("A"), Err(CqError::UnknownRelation(_))));

    // A forced-engine rejection must not leak its new relations either.
    let err = s
        .register_with(
            "forced",
            "Q(x, y) :- S(x), E(x, y), T(y).",
            EngineChoice::Forced(EngineKind::QHierarchical),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        CqError::Query(QueryError::NotQHierarchical(_))
    ));
    assert_eq!(s.schema().len(), schema_before);
    assert!(matches!(s.relation("E"), Err(CqError::UnknownRelation(_))));

    // The session still works: updates to the surviving schema apply.
    let b = s.relation("B").unwrap();
    assert!(s.apply(&Update::Insert(b, vec![1, 2])).unwrap());
    assert_eq!(s.query("ok").unwrap().count(), 1);
}

/// Dropped subscriptions are pruned before the next delta snapshot, so
/// detached feeds stop costing result enumerations even when the result
/// never changes again. The other way round, a session that goes first
/// ends its feeds, bounded or not: they hand out what is pending, then
/// `recv` returns `None` instead of blocking.
#[test]
fn dropped_subscriptions_are_pruned() {
    let mut s = Session::new();
    s.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
    let e = s.relation("E").unwrap();
    let feed = s.query("pairs").unwrap().subscribe();
    let second = s.query("pairs").unwrap().subscribe();
    assert_eq!(s.query("pairs").unwrap().subscriber_count(), 2);
    drop(feed);
    // An update whose delta is empty must still shed the dead feed.
    s.apply(&Update::Insert(e, vec![1, 2])).unwrap();
    assert_eq!(s.query("pairs").unwrap().subscriber_count(), 1);
    drop(second);
    assert_eq!(s.query("pairs").unwrap().subscriber_count(), 0);

    let t = s.relation("T").unwrap();
    let feed = s.query("pairs").unwrap().subscribe();
    let bounded = s.query("pairs").unwrap().subscribe_bounded(1);
    s.apply(&Update::Insert(t, vec![2])).unwrap();
    drop(s);
    assert_eq!(feed.recv().unwrap().added, vec![vec![1, 2]]);
    assert!(feed.recv().is_none(), "the session is gone");
    assert_eq!(bounded.drain().len(), 1);
    assert!(bounded.recv_timeout(Duration::from_secs(30)).is_none());
}

/// Queries registered after data has flowed are seeded from the session's
/// database, and later schema growth never disturbs earlier engines.
#[test]
fn late_registration_sees_existing_data() {
    let mut s = Session::new();
    s.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
    let e = s.relation("E").unwrap();
    let t = s.relation("T").unwrap();
    s.apply_batch(&[
        Update::Insert(e, vec![1, 2]),
        Update::Insert(t, vec![2]),
        Update::Insert(e, vec![3, 2]),
    ])
    .unwrap();
    // New query over a *new* relation plus the existing E.
    s.register("flagged", "Q(x, y) :- E(x, y), Flag(x).")
        .unwrap();
    let flag = s.relation("Flag").unwrap();
    assert_eq!(s.query("flagged").unwrap().count(), 0);
    s.apply(&Update::Insert(flag, vec![3])).unwrap();
    assert_eq!(
        s.query("flagged").unwrap().results_sorted(),
        vec![vec![3, 2]]
    );
    // The earlier query is untouched by the new relation's traffic.
    assert_eq!(s.query("pairs").unwrap().count(), 2);
}

#[test]
fn subscriptions_surface_result_deltas() {
    let mut s = Session::new();
    s.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
    let e = s.relation("E").unwrap();
    let t = s.relation("T").unwrap();
    let feed = s.query("pairs").unwrap().subscribe();

    // An update that cannot change the result publishes nothing.
    s.apply(&Update::Insert(e, vec![1, 2])).unwrap();
    assert!(feed.poll().is_none());

    // This one completes the join: one added tuple.
    s.apply(&Update::Insert(t, vec![2])).unwrap();
    let ev = feed.poll().expect("join completion must publish");
    assert_eq!(ev.added, vec![vec![1, 2]]);
    assert!(ev.removed.is_empty());

    // A batch publishes its net delta in one event.
    let report = s
        .apply_batch(&[
            Update::Insert(e, vec![3, 2]),
            Update::Insert(e, vec![4, 2]),
            Update::Delete(e, vec![1, 2]),
        ])
        .unwrap();
    assert_eq!(report.applied, 3);
    let ev = feed.poll().expect("batch must publish");
    assert_eq!(ev.added, vec![vec![3, 2], vec![4, 2]]);
    assert_eq!(ev.removed, vec![vec![1, 2]]);
    assert!(feed.poll().is_none(), "one event per batch");

    // Dropping the subscription detaches it; the session keeps working.
    drop(feed);
    s.apply(&Update::Delete(t, vec![2])).unwrap();
    assert_eq!(s.query("pairs").unwrap().count(), 0);
}

#[test]
fn transaction_commit_and_rollback() {
    let mut s = Session::new();
    s.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
    let e = s.relation("E").unwrap();
    let t = s.relation("T").unwrap();
    s.apply(&Update::Insert(e, vec![1, 2])).unwrap();

    // Committed transaction: effects persist.
    let mut txn = s.transaction();
    assert!(txn.apply(&Update::Insert(t, vec![2])).unwrap());
    assert_eq!(txn.commit(), 1);
    assert_eq!(s.query("pairs").unwrap().count(), 1);

    // Mid-batch failure: the invalid update aborts, the guard's drop
    // rolls back the effective prefix via Update::inverse.
    let before_results = s.query("pairs").unwrap().results_sorted();
    let before_card = s.database().cardinality();
    let batch = vec![
        Update::Insert(e, vec![5, 2]),
        Update::Insert(e, vec![6, 2]),
        Update::Insert(t, vec![1, 2]), // arity violation: T is unary
        Update::Insert(e, vec![7, 2]),
    ];
    {
        let mut txn = s.transaction();
        let err = txn.apply_all(&batch).unwrap_err();
        assert!(matches!(err, CqError::Arity { .. }));
        assert_eq!(txn.effective_len(), 2, "prefix applied before the failure");
        // Dropped without commit → rollback.
    }
    assert_eq!(s.query("pairs").unwrap().results_sorted(), before_results);
    assert_eq!(s.database().cardinality(), before_card);

    // Explicit rollback of a valid prefix behaves identically.
    {
        let mut txn = s.transaction();
        txn.apply(&Update::Delete(e, vec![1, 2])).unwrap();
        assert_eq!(txn.effective_len(), 1);
        txn.rollback();
    }
    assert_eq!(s.query("pairs").unwrap().count(), 1);
}

/// The faces a transaction runs on — a plain session's guard, the
/// one-shard core behind a `SharedSession`, a sharded core's scoped
/// transaction — each with a query `pairs` over `E` and `T`.
trait TxFace {
    fn pairs(&self) -> QuerySnapshot;
    /// Applies `updates` in one transaction, then commits or rolls back.
    fn transact(&mut self, updates: &[Update], commit: bool);
    fn apply_one(&mut self, update: &Update) -> bool;
    fn batch(&mut self, updates: &[Update]) -> usize;
    fn position(&self) -> u64;
}

impl TxFace for Session {
    fn pairs(&self) -> QuerySnapshot {
        self.query("pairs").unwrap().snapshot()
    }

    fn transact(&mut self, updates: &[Update], commit: bool) {
        let mut txn = self.transaction();
        txn.apply_all(updates).unwrap();
        if commit {
            txn.commit();
        } else {
            txn.rollback();
        }
    }

    fn apply_one(&mut self, update: &Update) -> bool {
        self.apply(update).unwrap()
    }

    fn batch(&mut self, updates: &[Update]) -> usize {
        self.apply_batch(updates).unwrap().applied
    }

    fn position(&self) -> u64 {
        self.seq()
    }
}

/// A core transaction's body: applies `updates`, then commits (`Ok`) or
/// rolls back (`Err`).
fn core_body(
    updates: &[Update],
    commit: bool,
) -> impl FnOnce(&mut ShardedTransaction<'_>) -> Result<(), CqError> + '_ {
    move |tx| {
        tx.apply_all(updates)?;
        if commit {
            Ok(())
        } else {
            Err(CqError::UnknownQuery("rollback".into()))
        }
    }
}

impl TxFace for SharedSession {
    fn pairs(&self) -> QuerySnapshot {
        self.snapshot("pairs").unwrap()
    }

    fn transact(&mut self, updates: &[Update], commit: bool) {
        let res = self.transaction(core_body(updates, commit));
        assert_eq!(res.is_ok(), commit);
    }

    fn apply_one(&mut self, update: &Update) -> bool {
        self.apply(update).unwrap()
    }

    fn batch(&mut self, updates: &[Update]) -> usize {
        self.apply_batch(updates).unwrap().applied
    }

    fn position(&self) -> u64 {
        self.read(|s| s.seq()).unwrap()
    }
}

impl TxFace for ShardedSession {
    fn pairs(&self) -> QuerySnapshot {
        self.snapshot("pairs").unwrap()
    }

    fn transact(&mut self, updates: &[Update], commit: bool) {
        let e = self.relation("E").unwrap();
        let res = self.transaction_over(&[e], core_body(updates, commit));
        assert_eq!(res.is_ok(), commit);
    }

    fn apply_one(&mut self, update: &Update) -> bool {
        self.apply(update).unwrap()
    }

    fn batch(&mut self, updates: &[Update]) -> usize {
        self.apply_batch(updates).unwrap().applied
    }

    fn position(&self) -> u64 {
        self.seq()
    }
}

/// Preloads 1,007 facts, holds a snapshot, then runs a rolled-back
/// transaction and a committed insert + delete of one fact. Neither
/// reaches an engine, so the held snapshot shares its state with a fresh
/// one after each. The fresh one's `seq()` moves with the burned or
/// drawn numbers; its `generation()` stays put over the rollback, which
/// stamps nothing, and moves to the committed delete's seq, the last
/// committed update on `E`.
fn uncommitted_and_cancelled_work_touches_no_engine(face: &mut impl TxFace, e: RelId) {
    let held = face.pairs();
    assert_eq!((held.seq(), held.generation()), (1007, 1007));
    face.transact(&[Update::Insert(e, vec![5000, 1])], false);
    let fresh = face.pairs();
    assert!(
        held.shares_state_with(&fresh),
        "the rollback reached an engine"
    );
    assert_eq!((fresh.seq(), fresh.generation()), (1008, 1007));
    let fact = vec![6000, 1];
    let cancelling = [Update::Insert(e, fact.clone()), Update::Delete(e, fact)];
    face.transact(&cancelling, true);
    let fresh = face.pairs();
    assert!(
        held.shares_state_with(&fresh),
        "the cancelled commit reached an engine"
    );
    assert_eq!((fresh.seq(), fresh.generation()), (1010, 1010));
    assert_eq!(fresh.count(), 1000);
}

#[test]
fn rolled_back_and_cancelled_transactions_touch_no_engine() {
    const PAIRS: &str = "Q(x, y) :- E(x, y), T(y).";
    let preload = |e: RelId, t: RelId| -> Vec<Update> {
        let edges = (0..1000).map(|x| Update::Insert(e, vec![x, x % 7]));
        edges
            .chain((0..7).map(|y| Update::Insert(t, vec![y])))
            .collect()
    };
    let mut s = Session::new();
    s.register("pairs", PAIRS).unwrap();
    let (e, t) = (s.relation("E").unwrap(), s.relation("T").unwrap());
    assert_eq!(s.apply_batch(&preload(e, t)).unwrap().applied, 1007);
    uncommitted_and_cancelled_work_touches_no_engine(&mut s, e);

    let mut b = ShardedSessionBuilder::new();
    b.register("pairs", PAIRS).unwrap();
    b.register("other", "Q(x) :- S(x).").unwrap();
    let mut sharded = b.build().unwrap();
    assert_eq!(sharded.shard_count(), 2);
    let (e, t) = (
        sharded.relation("E").unwrap(),
        sharded.relation("T").unwrap(),
    );
    sharded.apply_batch(&preload(e, t)).unwrap();
    uncommitted_and_cancelled_work_touches_no_engine(&mut sharded, e);
}

/// Transactions buffer subscriber events: a rollback publishes nothing
/// at all, and a commit publishes exactly one *net* event per query —
/// intermediate states and compensating deltas never reach the feed.
#[test]
fn transactions_buffer_events_until_commit() {
    let mut s = Session::new();
    s.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
    let e = s.relation("E").unwrap();
    let t = s.relation("T").unwrap();
    s.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])])
        .unwrap();
    let feed = s.query("pairs").unwrap().subscribe();

    // Rollback: the update's delta and its compensating inverse cancel
    // in the buffer — subscribers see nothing.
    {
        let mut txn = s.transaction();
        txn.apply(&Update::Insert(e, vec![9, 2])).unwrap();
        // No commit.
    }
    assert!(feed.drain().is_empty(), "rollback must publish nothing");
    assert_eq!(s.query("pairs").unwrap().results_sorted(), vec![vec![1, 2]]);

    // Commit: churn inside the transaction nets out; one event carries
    // only the surviving delta.
    {
        let mut txn = s.transaction();
        txn.apply(&Update::Insert(e, vec![9, 2])).unwrap(); // net: added
        txn.apply(&Update::Insert(e, vec![8, 2])).unwrap(); // cancelled below
        txn.apply(&Update::Delete(e, vec![8, 2])).unwrap();
        txn.apply(&Update::Delete(e, vec![1, 2])).unwrap(); // net: removed
        assert_eq!(txn.commit(), 4);
    }
    let events = feed.drain();
    assert_eq!(events.len(), 1, "one net event per query per transaction");
    assert_eq!(events[0].added, vec![vec![9, 2]]);
    assert_eq!(events[0].removed, vec![vec![1, 2]]);

    // A committed transaction whose net delta is empty publishes nothing.
    {
        let mut txn = s.transaction();
        txn.apply(&Update::Insert(e, vec![5, 2])).unwrap();
        txn.apply(&Update::Delete(e, vec![5, 2])).unwrap();
        txn.commit();
    }
    assert!(feed.drain().is_empty(), "empty net delta publishes nothing");
}

/// Shared-harness stream shaped like this suite's historical generator
/// (60% inserts, small churny domain).
fn workload(q: &Query, seed: u64, steps: usize, domain: u64) -> Vec<Update> {
    random_updates(
        q.schema(),
        seed,
        WorkloadConfig {
            steps,
            domain,
            insert_permille: 600,
        },
    )
}

/// Registrations over the shared relations `E`, `T`, `S`: a
/// repeated-variable atom (`E(1, 2)` changes `D` but matches no atom
/// pattern of `loops`), a via-core route and a delta-IVM fallback.
/// [`LATE`] joins mid-stream, its engine built from the session's `D`.
const ZOO: &[(&str, &str, EngineKind, RouteReason)] = &[
    (
        "loops",
        "Q(x) :- E(x, x), T(x).",
        EngineKind::QHierarchical,
        RouteReason::QHierarchical,
    ),
    (
        "pairs",
        "Q(x, y) :- E(x, y), T(y).",
        EngineKind::QHierarchical,
        RouteReason::QHierarchical,
    ),
    (
        "via_core",
        "Q() :- E(x,x), E(x,y), E(y,y).",
        EngineKind::QHierarchical,
        RouteReason::QHierarchicalCore,
    ),
    (
        "hard",
        "Q(x, y) :- S(x), E(x, y), T(y).",
        EngineKind::DeltaIvm,
        RouteReason::Fallback,
    ),
];

const LATE: (&str, &str) = ("late", "Q(x, z) :- E(x, z), S(x).");

/// A session over [`ZOO`], the brute-force oracle's empty `D` and a
/// churny script over the shared relations.
fn zoo(seed: u64, steps: usize) -> (Session, Database, Vec<Update>) {
    let mut s = Session::new();
    for &(name, src, kind, reason) in ZOO {
        s.register(name, src).unwrap();
        let h = s.query(name).unwrap();
        assert_eq!((h.kind(), h.route_reason()), (kind, reason), "{name}");
    }
    let cfg = WorkloadConfig {
        steps,
        domain: 3,
        insert_permille: 600,
    };
    let script = random_updates(s.schema(), seed, cfg);
    let oracle = Database::new(s.schema().clone());
    (s, oracle, script)
}

/// Every registration equals brute force over the oracle's `D`, and the
/// session's audit passes against its one `D`.
fn check_zoo(s: &Session, oracle: &Database, at: &str) -> Result<(), TestCaseError> {
    for h in s.queries() {
        let want = brute_force(h.query(), oracle);
        prop_assert_eq!(h.count() as usize, want.len(), "{} count {}", h.name(), at);
        prop_assert_eq!(h.results_sorted(), want, "{} {}", h.name(), at);
    }
    s.check_invariants()
        .map_err(|e| TestCaseError::fail(format!("audit {at}: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The auto-routed session agrees with the naive recompute engine on
    /// random queries (q-hierarchical or not) under random update logs,
    /// and a session of several registrations over shared relations —
    /// one made at step `mid` — equals brute force after every apply.
    #[test]
    fn auto_routing_agrees_with_naive_recompute(seed in 0u64..100_000, mid in 0usize..60) {
        let (mut zoo, mut oracle, script) = zoo(seed ^ 0x200, 60);
        for (step, u) in script.iter().enumerate() {
            if step == mid {
                zoo.register(LATE.0, LATE.1).unwrap();
            }
            prop_assert_eq!(zoo.apply(u).unwrap(), oracle.apply(u), "effectiveness @{}", step);
            check_zoo(&zoo, &oracle, &format!("after apply @{step}"))?;
        }

        let cfg = GenConfig { max_vars: 4, max_atoms: 3, max_arity: 3, self_join_pct: 25 };
        let q = random_query(&mut Lcg::new(seed), cfg);
        let mut session = Session::new();
        session.register_query("q", &q, EngineChoice::Auto).unwrap();
        let q = session.query("q").unwrap().query().clone();
        let mut oracle = Standalone::from_empty(RecomputeEngine::empty(&q));
        let log = UpdateLog::from_updates(workload(&q, seed ^ 0xA5A5, 60, 4));
        for (step, u) in log.iter().enumerate() {
            let changed = session.apply(u).unwrap();
            prop_assert_eq!(oracle.apply(u), changed, "effectiveness @{}", step);
            if step % 9 == 0 || step + 1 == log.len() {
                let h = session.query("q").unwrap();
                prop_assert_eq!(h.results_sorted(), oracle.results_sorted(), "@{}", step);
                prop_assert_eq!(h.count(), oracle.count(), "@{}", step);
                prop_assert_eq!(h.answer(), oracle.is_nonempty(), "@{}", step);
            }
        }
    }

    /// `apply_batch` is equivalent to sequential `apply`, chunk by chunk,
    /// including the report's sequential-equivalent `applied` count —
    /// also on the several-registration session, which equals brute force
    /// after every batch, the late registration made before batch `mid`.
    #[test]
    fn apply_batch_equals_sequential_apply(
        seed in 0u64..100_000,
        chunk in 1usize..16,
        mid in 0usize..4,
    ) {
        let (mut zoo, mut oracle, script) = zoo(seed ^ 0x300, 64);
        for (i, window) in script.chunks(chunk).enumerate() {
            if i == mid {
                zoo.register(LATE.0, LATE.1).unwrap();
            }
            let report = zoo.apply_batch(window).unwrap();
            prop_assert_eq!(report.applied, oracle.apply_all(window));
            check_zoo(&zoo, &oracle, &format!("after batch {i}"))?;
        }

        let cfg = GenConfig { max_vars: 4, max_atoms: 3, max_arity: 3, self_join_pct: 25 };
        let q = random_query(&mut Lcg::new(seed), cfg);
        let mut batched = Session::new();
        batched.register_query("q", &q, EngineChoice::Auto).unwrap();
        let mut sequential = Session::new();
        sequential.register_query("q", &q, EngineChoice::Auto).unwrap();
        let q = batched.query("q").unwrap().query().clone();
        let updates = workload(&q, seed ^ 0x5A5A, 64, 3);
        for window in updates.chunks(chunk) {
            let report = batched.apply_batch(window).unwrap();
            let mut applied = 0;
            for u in window {
                if sequential.apply(u).unwrap() {
                    applied += 1;
                }
            }
            prop_assert_eq!(report.applied, applied);
            prop_assert_eq!(report.total, window.len());
            let (b, s) = (batched.query("q").unwrap(), sequential.query("q").unwrap());
            prop_assert_eq!(b.results_sorted(), s.results_sorted());
            prop_assert_eq!(b.count(), s.count());
        }
        prop_assert_eq!(
            batched.database().cardinality(),
            sequential.database().cardinality()
        );
    }

    /// Subscription deltas equal a full-result diff around every update,
    /// whatever engine the router picked (native q-tree extraction or
    /// delta-IVM support transitions).
    #[test]
    fn subscription_deltas_equal_result_diffs(seed in 0u64..100_000) {
        let cfg = GenConfig { max_vars: 4, max_atoms: 3, max_arity: 3, self_join_pct: 25 };
        let q = random_query(&mut Lcg::new(seed), cfg);
        let mut session = Session::new();
        session.register_query("q", &q, EngineChoice::Auto).unwrap();
        let q = session.query("q").unwrap().query().clone();
        let feed = session.query("q").unwrap().subscribe();
        for u in workload(&q, seed ^ 0xBEEF, 50, 3) {
            let before = session.query("q").unwrap().results_sorted();
            session.apply(&u).unwrap();
            let after = session.query("q").unwrap().results_sorted();
            let mut want = ResultDelta::default();
            cq_updates::dynamic::diff_sorted_into(&before, &after, &mut want);
            match feed.poll() {
                Some(ev) => {
                    prop_assert_eq!(&ev.added, &want.added, "added after {:?}", &u);
                    prop_assert_eq!(&ev.removed, &want.removed, "removed after {:?}", &u);
                    prop_assert!(feed.poll().is_none(), "at most one event per update");
                }
                None => prop_assert!(want.is_empty(), "missing event after {:?}", &u),
            }
        }
    }

    /// A committed transaction's single net event per query equals the
    /// netted fold of the per-update events the same updates produce when
    /// replayed individually — and equals, stamp included, the event of
    /// the batch of its updates, with the same `seq()`.
    #[test]
    fn transaction_netted_events_equal_replayed_events(seed in 0u64..100_000) {
        let cfg = GenConfig { max_vars: 4, max_atoms: 3, max_arity: 3, self_join_pct: 25 };
        let q = random_query(&mut Lcg::new(seed), cfg);
        let mut tx_session = Session::new();
        tx_session.register_query("q", &q, EngineChoice::Auto).unwrap();
        let mut replay_session = Session::new();
        replay_session.register_query("q", &q, EngineChoice::Auto).unwrap();
        let mut batch_session = Session::new();
        batch_session.register_query("q", &q, EngineChoice::Auto).unwrap();
        let q = tx_session.query("q").unwrap().query().clone();
        let updates = workload(&q, seed ^ 0xC0DE, 40, 3);

        let tx_feed = tx_session.query("q").unwrap().subscribe();
        {
            let mut txn = tx_session.transaction();
            txn.apply_all(&updates).unwrap();
            txn.commit();
        }
        let tx_events = tx_feed.drain();
        prop_assert!(tx_events.len() <= 1, "one net event per query per commit");

        let batch_feed = batch_session.query("q").unwrap().subscribe();
        batch_session.apply_batch(&updates).unwrap();
        let batch_events = batch_feed.drain();
        prop_assert_eq!(tx_events.len(), batch_events.len());
        for (x, y) in tx_events.iter().zip(&batch_events) {
            prop_assert_eq!(x.seq, y.seq, "stamps diverged");
            prop_assert_eq!(&x.added, &y.added);
            prop_assert_eq!(&x.removed, &y.removed);
        }
        prop_assert_eq!(tx_session.seq(), batch_session.seq());

        let replay_feed = replay_session.query("q").unwrap().subscribe();
        let mut net = ResultDelta::default();
        for u in &updates {
            replay_session.apply(u).unwrap();
            for ev in replay_feed.drain() {
                net.added.extend_from_slice(&ev.added);
                net.removed.extend_from_slice(&ev.removed);
            }
        }
        net.normalize();
        match tx_events.first() {
            Some(ev) => {
                prop_assert_eq!(&ev.added, &net.added);
                prop_assert_eq!(&ev.removed, &net.removed);
            }
            None => prop_assert!(net.is_empty(), "tx published nothing but replay netted {:?}", &net),
        }
        prop_assert_eq!(
            tx_session.query("q").unwrap().results_sorted(),
            replay_session.query("q").unwrap().results_sorted()
        );
        // Every effective member stamps its relation with the seq it
        // drew, however the commit grouped it, so the transaction, the
        // batch and the single applies read one seq and one generation.
        let (tx_snap, replay_snap, batch_snap) = (
            tx_session.query("q").unwrap().snapshot(),
            replay_session.query("q").unwrap().snapshot(),
            batch_session.query("q").unwrap().snapshot(),
        );
        prop_assert_eq!(tx_snap.seq(), replay_snap.seq());
        prop_assert_eq!(tx_snap.seq(), batch_snap.seq());
        prop_assert_eq!(tx_snap.generation(), replay_snap.generation());
        prop_assert_eq!(tx_snap.generation(), batch_snap.generation());
    }

    /// The session's counters against an oracle of the calls made, on a
    /// plain session and on the one-shard core behind a `SharedSession`:
    /// `session_updates_total` is `seq()` (a rollback's burned numbers
    /// count), `session_batches_total` counts the batches with an
    /// effective member, and every transaction counts once, a rolled-back
    /// one also as a rollback.
    #[test]
    fn session_counters_equal_the_calls_made(seed in 0u64..100_000) {
        for shared in [false, true] {
            let registry = Arc::new(Registry::new());
            let mut session = Session::new();
            session.share_registry(Arc::clone(&registry));
            session.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
            session.register("hard", "Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
            let cfg = WorkloadConfig { steps: 120, domain: 3, insert_permille: 600 };
            let script = random_updates(session.schema(), seed, cfg);
            let mut face: Box<dyn TxFace> = if shared {
                Box::new(SharedSession::new(session))
            } else {
                Box::new(session)
            };
            let mut rng = Lcg::new(seed ^ 0xC0C0);
            let (mut batches, mut transactions, mut rollbacks) = (0, 0, 0);
            let mut rest = &script[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at((1 + rng.below(6)).min(rest.len()));
                rest = tail;
                match rng.below(4) {
                    0 => chunk.iter().for_each(|u| {
                        face.apply_one(u);
                    }),
                    1 => batches += u64::from(face.batch(chunk) > 0),
                    kind => {
                        let commit = kind == 2;
                        face.transact(chunk, commit);
                        transactions += 1;
                        rollbacks += u64::from(!commit);
                    }
                }
            }
            let read = |name: &str| registry.counter(name).get();
            prop_assert_eq!(read("session_updates_total"), face.position(), "shared: {}", shared);
            prop_assert_eq!(read("session_batches_total"), batches, "shared: {}", shared);
            prop_assert_eq!(read("session_transactions_total"), transactions, "shared: {}", shared);
            prop_assert_eq!(read("session_rollbacks_total"), rollbacks, "shared: {}", shared);
        }
    }

    /// A rolled-back transaction is a perfect no-op mid-stream — also on
    /// the several-registration session, which equals brute force after
    /// every apply, a commit and a rollback, the late registration made
    /// at step `mid` of the prefix (or after it).
    #[test]
    fn transaction_rollback_is_a_noop(
        seed in 0u64..100_000,
        cut in 1usize..40,
        mid in 0usize..40,
    ) {
        let (mut zoo, mut oracle, script) = zoo(seed ^ 0x400, 50);
        let (prefix, rest) = script.split_at(cut);
        for (step, u) in prefix.iter().enumerate() {
            if step == mid {
                zoo.register(LATE.0, LATE.1).unwrap();
            }
            prop_assert_eq!(zoo.apply(u).unwrap(), oracle.apply(u), "effectiveness @{}", step);
            check_zoo(&zoo, &oracle, &format!("after apply @{step}"))?;
        }
        if mid >= cut {
            zoo.register(LATE.0, LATE.1).unwrap();
        }
        let (committed, rolled_back) = rest.split_at(rest.len() / 2);
        let mut txn = zoo.transaction();
        txn.apply_all(committed).unwrap();
        txn.commit();
        oracle.apply_all(committed);
        check_zoo(&zoo, &oracle, "after commit")?;
        let mut txn = zoo.transaction();
        txn.apply_all(rolled_back).unwrap();
        txn.rollback();
        check_zoo(&zoo, &oracle, "after rollback")?;

        let cfg = GenConfig { max_vars: 4, max_atoms: 3, max_arity: 2, self_join_pct: 25 };
        let q = random_query(&mut Lcg::new(seed), cfg);
        let mut session = Session::new();
        session.register_query("q", &q, EngineChoice::Auto).unwrap();
        let q = session.query("q").unwrap().query().clone();
        let updates = workload(&q, seed ^ 0x77, 50, 3);
        let (prefix, rest) = updates.split_at(cut.min(updates.len()));
        for u in prefix {
            session.apply(u).unwrap();
        }
        let results_before = session.query("q").unwrap().results_sorted();
        let card_before = session.database().cardinality();
        let adom_before = session.database().active_domain_size();
        let feed = session.query("q").unwrap().subscribe();
        {
            let mut txn = session.transaction();
            txn.apply_all(rest).unwrap();
            // Dropped uncommitted.
        }
        prop_assert!(feed.drain().is_empty(), "rollback must publish nothing");
        prop_assert_eq!(session.query("q").unwrap().results_sorted(), results_before);
        prop_assert_eq!(session.database().cardinality(), card_before);
        prop_assert_eq!(session.database().active_domain_size(), adom_before);
    }
}
