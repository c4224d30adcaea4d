//! End-to-end suite for the serving layer: resumable cursors, replay
//! netting, backpressure, and the loopback TCP server.
//!
//! The load-bearing invariant, checked from three angles (in-process
//! `replay_since`/`subscribe_from`, the sharded session, and the real
//! wire protocol over loopback TCP): a subscriber that disconnects at
//! cursor `N` and resumes with `from_seq = N` receives exactly the
//! *netted* delta `N → now` — equal to the brute-force oracle diff of
//! the `result_timeline` frames — or, when the retention ring has
//! evicted `N`, an explicit snapshot resync. On top of that: a stalled
//! subscriber must never stall a writer commit (bounded queues,
//! coalescing or `Lagged` teardown), and a coalesced stream still folds
//! to the exact result.

use cq_updates::prelude::*;
use cq_updates::serve::{Client, ClientError, Frame, LagPolicy, Mirror, SubscribeMode};
use cq_updates::serving::server::FeedSource;
use cq_updates::serving::ServeConfig;
use cqu_testutil::{random_updates, result_timeline, Lcg, WorkloadConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One query per auto-route, so replay/netting is exercised on the
/// q-hierarchical engine, the core rewrite, and the delta-IVM fallback.
const ROUTES: &[(&str, &str)] = &[
    ("qh", "Q(x, y) :- E(x, y), T(y)."),
    ("via_core", "Q() :- F(x,x), F(x,y), F(y,y)."),
    ("ivm", "Q(x, y) :- S(x), G(x, y), U(y)."),
];

/// Workload scale knob shared with the CI stress matrix.
fn stress_steps(default: usize) -> usize {
    std::env::var("CQ_STRESS_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Client-count knob for the serving stress cell.
fn stress_clients(default: usize) -> usize {
    std::env::var("CQ_STRESS_CLIENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn churn(schema: &Schema, seed: u64, steps: usize) -> Vec<Update> {
    random_updates(
        schema,
        seed,
        WorkloadConfig {
            steps,
            domain: 4,
            insert_permille: 550,
        },
    )
}

/// The oracle: `(added, removed)` between two result frames.
fn frame_diff(before: &[Vec<u64>], after: &[Vec<u64>]) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let b: BTreeSet<&Vec<u64>> = before.iter().collect();
    let a: BTreeSet<&Vec<u64>> = after.iter().collect();
    let added = a.difference(&b).map(|r| (*r).clone()).collect();
    let removed = b.difference(&a).map(|r| (*r).clone()).collect();
    (added, removed)
}

fn sorted(mut rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    rows.sort();
    rows
}

/// Folds frames from `client` into `mirror` until its rows equal `want`.
fn wait_rows(
    client: &mut Client,
    mirror: &mut Mirror,
    name: &str,
    want: &[Vec<u64>],
    timeout: Duration,
) {
    let deadline = Instant::now() + timeout;
    loop {
        if mirror.rows_sorted() == want {
            return;
        }
        let now = Instant::now();
        assert!(
            now < deadline,
            "{name}: timed out converging to {} rows (mirror has {}, cursor {})",
            want.len(),
            mirror.rows().len(),
            mirror.seq()
        );
        if let Some(frame) = client.next(deadline - now).unwrap() {
            mirror.apply(name, &frame);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// One generated script, every face of the change feed, every
    /// engine route; the brute-force `result_timeline` is the oracle and
    /// each face must reconstruct `timeline[seq]`:
    ///
    /// * an uncapped `Subscription` steps through `timeline[e.seq]`
    ///   event by event, and the feed the server's pump reads carries
    ///   the very same `Arc`s (nothing between them copies a row);
    /// * a `BoundedSubscription` of cap 1, never polled, holds one
    ///   netted event that folds the empty result into the final one;
    /// * for **every** cursor `N` a consumer can hold (a commit
    ///   boundary), `replay_since(N)` returns a single netted delta
    ///   that is *exact*: its removed rows are all present
    ///   in frame `N`, its added rows all absent, and folding it into
    ///   frame `N` lands precisely on the final result;
    /// * a `Client` mirror served over TCP converges to the final
    ///   result, at a cursor whose frame that result is.
    #[test]
    fn replay_nets_exactly_the_timeline_diff(seed in 0u64..1_000_000) {
        let mut session = Session::new();
        for (name, src) in ROUTES {
            session.register(name, src).unwrap();
        }
        let schema = session.schema().clone();
        let script = churn(&schema, seed, stress_steps(240) / 3);
        let timelines: Vec<_> = ROUTES
            .iter()
            .map(|(name, _)| {
                let q = session.query(name).unwrap().query().clone();
                result_timeline(&schema, &q, &script)
            })
            .collect();
        let shared = SharedSession::new(session);
        // Ring sized to cover the whole run: every cursor stays servable.
        let source = Arc::new(SessionSource::new(shared.clone(), script.len() + 1).unwrap());
        let server = ServerHandle::bind("127.0.0.1:0", Arc::clone(&source) as _).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut mirrors = Vec::new();
        let mut feeds = Vec::new();
        for (name, _) in ROUTES {
            client.subscribe(name, None).unwrap();
            mirrors.push(Mirror::new());
            feeds.push((
                shared.subscribe(name).unwrap(),
                source.open_feed(name).unwrap(),
                shared.subscribe_bounded(name, 1).unwrap(),
            ));
        }

        // Singles and batches, so per-update and netted events both flow.
        let seq = || shared.read(|s| s.seq()).unwrap();
        let mut cursors = vec![0];
        for (k, window) in script.chunks(5).enumerate() {
            if k % 2 == 0 {
                shared.apply_batch(window).unwrap();
                cursors.push(seq());
            } else {
                for u in window {
                    shared.apply(u).unwrap();
                    cursors.push(seq());
                }
            }
        }
        let final_seq = seq();
        prop_assert_eq!(final_seq as usize + 1, timelines[0].len());

        for (i, (name, _)) in ROUTES.iter().enumerate() {
            let timeline = &timelines[i];
            let final_rows = timeline.last().unwrap();
            prop_assert_eq!(&shared.snapshot(name).unwrap().results_sorted(), final_rows);
            let (feed, pumped, bounded) = &feeds[i];

            let mut rows: BTreeSet<Vec<u64>> = BTreeSet::new();
            let events = feed.drain();
            for e in &events {
                for r in &e.removed {
                    prop_assert!(rows.remove(r), "{}: event removes an absent row", name);
                }
                for r in &e.added {
                    prop_assert!(rows.insert(r.clone()), "{}: event re-adds a row", name);
                }
                prop_assert_eq!(
                    &rows.iter().cloned().collect::<Vec<_>>(), &timeline[e.seq as usize],
                    "{}: feed is not at timeline[{}]", name, e.seq
                );
            }
            let pumped = pumped.drain();
            prop_assert_eq!(pumped.len(), events.len());
            prop_assert!(
                events.iter().zip(&pumped).all(|(a, b)| Arc::ptr_eq(a, b)),
                "{}: the pump's feed carries a copy", name
            );

            let netted = bounded.drain();
            prop_assert!(netted.len() <= 1, "{}: cap 1 holds {}", name, netted.len());
            for e in &netted {
                prop_assert!(e.removed.is_empty(), "{}: netted from the empty result", name);
            }
            let folded = netted.first().map_or_else(Vec::new, |e| e.added.clone());
            prop_assert_eq!(&folded, final_rows, "{}: cap-1 feed", name);

            for &n in &cursors {
                let replay = shared.read(|s| s.query(name).unwrap().replay_since(n)).unwrap();
                let ReplayOutcome::Covered { upto, event } = replay else {
                    prop_assert!(false, "{}: ring sized to cover cursor {}", name, n);
                    unreachable!()
                };
                prop_assert!(upto >= n, "{}: replay may never rewind a cursor", name);
                let mut rows: BTreeSet<Vec<u64>> =
                    timeline[n as usize].iter().cloned().collect();
                if let Some(e) = &event {
                    prop_assert_eq!(e.seq, upto, "{}: catch-up must be stamped `upto`", name);
                    for r in &e.removed {
                        prop_assert!(
                            rows.remove(r),
                            "{}: netted removal of a row frame {} lacks", name, n
                        );
                    }
                    for r in &e.added {
                        prop_assert!(
                            rows.insert(r.clone()),
                            "{}: netted addition of a row frame {} already has", name, n
                        );
                    }
                }
                let rows: Vec<_> = rows.into_iter().collect();
                prop_assert_eq!(
                    &rows, final_rows,
                    "{}: resume at {} diverged from the oracle", name, n
                );
            }
        }

        // The one client carries all three subscriptions: a frame goes
        // to whichever mirror it names.
        let deadline = Instant::now() + Duration::from_secs(20);
        let behind = |mirrors: &[Mirror]| {
            (0..ROUTES.len()).find(|&i| &mirrors[i].rows_sorted() != timelines[i].last().unwrap())
        };
        while let Some(i) = behind(&mirrors) {
            let left = deadline.saturating_duration_since(Instant::now());
            prop_assert!(!left.is_zero(), "{}: mirror stuck at {}", ROUTES[i].0, mirrors[i].seq());
            if let Some(frame) = client.next(left).unwrap() {
                for ((name, _), mirror) in ROUTES.iter().zip(&mut mirrors) {
                    mirror.apply(name, &frame);
                }
            }
        }
        for (i, mirror) in mirrors.iter().enumerate() {
            prop_assert_eq!(
                &mirror.rows_sorted(), &timelines[i][mirror.seq() as usize],
                "{}: mirror is not at timeline[{}]", ROUTES[i].0, mirror.seq()
            );
        }
    }

    /// `subscribe_from` at a random disconnect point splices catch-up
    /// and live feed with no gap and no duplicate, on the single-writer
    /// session and on the sharded session alike (the cursor is the
    /// *global* seq either way). A deliberately tiny ring forces the
    /// `Resync` arm instead, which must also land on the final result.
    #[test]
    fn resume_at_random_disconnect_points_is_exact(seed in 0u64..1_000_000) {
        let mut single = Session::new();
        let mut b = ShardedSessionBuilder::new();
        for (name, src) in ROUTES {
            single.register(name, src).unwrap();
            b.register(name, src).unwrap();
        }
        let sharded = b.build().unwrap();
        let schema = single.schema().clone();
        let script = churn(&schema, seed, stress_steps(240) / 3);
        for (name, _) in ROUTES {
            single.query(name).unwrap().retain_deltas(script.len() + 1);
            sharded.retain_deltas(name, script.len() + 1).unwrap();
        }
        let mut rng = Lcg::new(seed ^ 0x0DD5);
        let cut = rng.below(script.len().max(1));

        for u in &script[..cut] {
            single.apply(u).unwrap();
            sharded.apply(u).unwrap();
        }
        // The subscriber's last-known state: cursor + rows at the cut.
        let cursors: Vec<u64> = vec![single.seq(); ROUTES.len()];
        let states: Vec<Vec<Vec<u64>>> = ROUTES
            .iter()
            .map(|(name, _)| single.query(name).unwrap().results_sorted())
            .collect();
        for u in &script[cut..] {
            single.apply(u).unwrap();
            sharded.apply(u).unwrap();
        }

        for (i, (name, _)) in ROUTES.iter().enumerate() {
            let final_rows = single.query(name).unwrap().results_sorted();
            for resume in [
                single.query(name).unwrap().subscribe_from(cursors[i]),
                sharded.subscribe_from(name, cursors[i]).unwrap(),
            ] {
                let Resume::Resumed { cursor, catch_up, feed } = resume else {
                    prop_assert!(false, "{}: ring covers the cut", name);
                    unreachable!()
                };
                prop_assert!(cursor >= cursors[i]);
                let mut rows: BTreeSet<Vec<u64>> = states[i].iter().cloned().collect();
                if let Some(e) = &catch_up {
                    for r in &e.removed {
                        prop_assert!(rows.remove(r), "{}: catch-up removal missing", name);
                    }
                    for r in &e.added {
                        prop_assert!(rows.insert(r.clone()), "{}: catch-up duplicate", name);
                    }
                }
                // No writer ran since: the live feed must hold nothing
                // beyond the cursor (events ≤ cursor are pre-replay
                // residue a real consumer skips by seq).
                for e in feed.drain() {
                    prop_assert!(e.seq <= cursor, "{}: event past cursor leaked", name);
                }
                let rows: Vec<_> = rows.into_iter().collect();
                prop_assert_eq!(
                    rows, final_rows.clone(),
                    "{}: resume at cut {} diverged", name, cut
                );
            }
        }

        // Shrink retention to (almost) nothing: old cursors fall below
        // the floor and the resume degrades to an explicit resync.
        for (name, _) in ROUTES {
            let handle = single.query(name).unwrap();
            handle.retain_deltas(1);
            match handle.subscribe_from(0) {
                Resume::Resumed { cursor, catch_up, .. } => {
                    // Still covered: the query saw at most one event.
                    let mut rows = BTreeSet::new();
                    if let Some(e) = &catch_up {
                        for r in &e.added {
                            rows.insert(r.clone());
                        }
                    }
                    prop_assert!(cursor <= single.seq());
                    prop_assert_eq!(
                        rows.into_iter().collect::<Vec<_>>(),
                        handle.results_sorted()
                    );
                }
                Resume::Resync { snapshot, .. } => {
                    prop_assert_eq!(snapshot.results_sorted(), handle.results_sorted());
                    prop_assert_eq!(snapshot.seq(), single.seq());
                }
            }
        }
    }
}

/// A bounded in-process feed under a stalled consumer: never more than
/// `cap` pending events, writer never blocked, and the coalesced stream
/// still folds to the exact result — including pure churn netting away.
#[test]
fn bounded_subscription_coalesces_exactly() {
    let mut session = Session::new();
    session.register("q", "Q(x) :- R(x).").unwrap();
    let r = session.relation("R").unwrap();
    let sub = session.query("q").unwrap().subscribe_bounded(2);

    for i in 0..100u64 {
        session.apply(&Update::Insert(r, vec![i])).unwrap();
        assert!(sub.pending() <= 2, "bounded queue exceeded its capacity");
    }
    assert!(
        sub.coalesced() > 0,
        "100 events through cap 2 must coalesce"
    );
    let events = sub.drain();
    assert!(events.len() <= 2);
    let mut rows = BTreeSet::new();
    for e in &events {
        for row in &e.removed {
            assert!(rows.remove(row), "coalesced removal of an absent row");
        }
        for row in &e.added {
            assert!(rows.insert(row.clone()), "coalesced duplicate addition");
        }
    }
    assert_eq!(
        rows.iter().cloned().collect::<Vec<_>>(),
        session.query("q").unwrap().results_sorted()
    );

    // Pure churn while stalled: folding whatever coalesced stream the
    // consumer finds must land back on the unchanged result.
    for i in 0..50u64 {
        session.apply(&Update::Insert(r, vec![1000 + i])).unwrap();
        session.apply(&Update::Delete(r, vec![1000 + i])).unwrap();
    }
    for e in sub.drain() {
        for row in &e.removed {
            assert!(rows.remove(row), "coalesced removal of an absent row");
        }
        for row in &e.added {
            assert!(rows.insert(row.clone()), "coalesced duplicate addition");
        }
    }
    assert_eq!(
        rows.iter().cloned().collect::<Vec<_>>(),
        session.query("q").unwrap().results_sorted(),
        "cancelled churn must net away"
    );
}

/// The flagship E2E: a real loopback server, a client that disconnects
/// mid-stream and resumes with `from_seq = cursor`, and the assertion
/// that the catch-up is **one** `Delta` frame carrying exactly the
/// oracle diff `cursor → now` — no replayed history, no gap. Run over
/// both source constructors: one serving body, two front doors.
#[test]
fn tcp_resume_receives_only_the_netted_delta() {
    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let shared = SharedSession::new(session);
    let source = SessionSource::new(shared.clone(), 1 << 16).unwrap();
    resume_receives_only_the_netted_delta(Arc::new(source), &|u| shared.apply(u).unwrap());

    let mut builder = ShardedSessionBuilder::new();
    builder.register("feed", ROUTES[0].1).unwrap();
    let sharded = Arc::new(builder.build().unwrap());
    let source = ShardedSource::new(Arc::clone(&sharded), 1 << 16).unwrap();
    resume_receives_only_the_netted_delta(Arc::new(source), &|u| sharded.apply(u).unwrap());
}

fn resume_receives_only_the_netted_delta(
    source: Arc<dyn cq_updates::serving::server::FeedSource>,
    apply: &dyn Fn(&Update) -> bool,
) {
    let mut reference = Session::new();
    reference.register("feed", ROUTES[0].1).unwrap();
    let schema = reference.schema().clone();
    let query = reference.query("feed").unwrap().query().clone();
    let server = ServerHandle::bind("127.0.0.1:0", Arc::clone(&source)).unwrap();
    let addr = server.local_addr();

    let script = churn(&schema, 0xFEED, 80);
    let timeline = result_timeline(&schema, &query, &script);
    let cut = script.len() / 2;

    let mut client = Client::connect(addr).unwrap();
    let (mode, _) = client.subscribe("feed", None).unwrap();
    assert_eq!(mode, SubscribeMode::Live);
    let mut mirror = Mirror::new();

    for u in &script[..cut] {
        apply(u);
    }
    let cut_seq = source.seq() as usize;
    wait_rows(
        &mut client,
        &mut mirror,
        "feed",
        &timeline[cut_seq],
        Duration::from_secs(10),
    );
    let cursor = mirror.seq();
    drop(client); // the disconnect — the mirror (cursor + rows) survives

    for u in &script[cut..] {
        apply(u);
    }
    let final_rows = timeline.last().unwrap().clone();
    let (want_added, want_removed) = frame_diff(&timeline[cursor as usize], &final_rows);
    assert!(
        !want_added.is_empty() || !want_removed.is_empty(),
        "seed must produce a non-trivial resume diff"
    );

    let mut client = Client::connect(addr).unwrap();
    let (mode, at) = client.subscribe("feed", Some(cursor)).unwrap();
    assert_eq!(mode, SubscribeMode::Resumed, "ring covers the cursor");
    assert!(at >= cursor);
    // The very next stream frame must be the single netted catch-up.
    let frame = client
        .next(Duration::from_secs(10))
        .unwrap()
        .expect("catch-up delta");
    match &frame {
        Frame::Delta {
            name,
            seq,
            added,
            removed,
        } => {
            assert_eq!(name, "feed");
            assert_eq!(*seq, at);
            assert_eq!(sorted(added.clone()), want_added, "netted adds ≠ oracle");
            assert_eq!(
                sorted(removed.clone()),
                want_removed,
                "netted removes ≠ oracle"
            );
        }
        other => panic!("expected the netted Delta first, got {other:?}"),
    }
    assert!(mirror.apply("feed", &frame));
    assert_eq!(mirror.rows_sorted(), final_rows);
    // And the server's one-shot snapshot agrees.
    let (_, rows) = client.query("feed").unwrap();
    assert_eq!(rows, final_rows);
}

/// When the ring has evicted the cursor, the server degrades explicitly:
/// `Subscribed{mode: Resync}` followed by an authoritative `Snapshot`.
#[test]
fn tcp_evicted_cursor_falls_back_to_snapshot_resync() {
    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let schema = session.schema().clone();
    let shared = SharedSession::new(session);
    // Ring of 2: anything older than the last two deltas is evicted.
    let source = Arc::new(SessionSource::new(shared.clone(), 2).unwrap());
    let server = ServerHandle::bind("127.0.0.1:0", source).unwrap();

    for u in churn(&schema, 0xE71C, 60) {
        shared.apply(&u).unwrap();
    }
    let final_rows = shared.snapshot("feed").unwrap().results_sorted();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let (mode, _) = client.subscribe("feed", Some(0)).unwrap();
    assert_eq!(mode, SubscribeMode::Resync, "cursor 0 must be evicted");
    let mut mirror = Mirror::new();
    wait_rows(
        &mut client,
        &mut mirror,
        "feed",
        &final_rows,
        Duration::from_secs(10),
    );
    assert_eq!(mirror.seq(), shared.read(|s| s.seq()).unwrap());
}

/// A subscriber that never reads must not stall writer commits: the
/// per-connection queue is bounded, overflow coalesces (exactly), and
/// once the consumer wakes up it still converges to the exact result.
#[test]
fn tcp_stalled_subscriber_never_blocks_the_writer() {
    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let e = session.relation("E").unwrap();
    let t = session.relation("T").unwrap();
    let shared = SharedSession::new(session);
    let source = Arc::new(SessionSource::new(shared.clone(), 1 << 16).unwrap());
    let server = ServerHandle::bind_with(
        "127.0.0.1:0",
        source,
        ServeConfig {
            queue_cap: 4,
            hard_cap: 1 << 20,
            lag: LagPolicy::Coalesce,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    shared.apply(&Update::Insert(t, vec![1])).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.subscribe("feed", None).unwrap();
    // Drain the initial snapshot, then go silent.
    client.next(Duration::from_millis(200)).unwrap();

    // Big deltas (wide batches) through a tiny queue at a sleeping
    // consumer: the writer must stay at full speed regardless. Keep
    // committing until the server demonstrably coalesced — bounded
    // buffers guarantee this terminates quickly.
    let rows_per_batch = 4096u64;
    let started = Instant::now();
    let mut round = 0u64;
    while server.stats().coalesced == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "queue cap 4 with a stalled reader must coalesce"
        );
        let base = 10 + round * rows_per_batch;
        let ins: Vec<Update> = (base..base + rows_per_batch)
            .map(|i| Update::Insert(e, vec![i, 1]))
            .collect();
        shared.apply_batch(&ins).unwrap();
        let del: Vec<Update> = (base..base + rows_per_batch)
            .map(|i| Update::Delete(e, vec![i, 1]))
            .collect();
        shared.apply_batch(&del).unwrap();
        round += 1;
    }
    // Leave a distinguishable final state, then wake the consumer.
    shared.apply(&Update::Insert(e, vec![7, 1])).unwrap();
    let final_rows = shared.snapshot("feed").unwrap().results_sorted();
    let mut mirror = Mirror::new();
    wait_rows(
        &mut client,
        &mut mirror,
        "feed",
        &final_rows,
        Duration::from_secs(30),
    );
    assert!(server.stats().coalesced > 0);
}

/// Under `LagPolicy::Disconnect` the slow consumer is cut loose with a
/// `Lagged{resync_at}` frame instead — and resuming from its cursor
/// restores exactness.
#[test]
fn tcp_lag_disconnect_policy_sheds_the_slow_consumer() {
    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let e = session.relation("E").unwrap();
    let t = session.relation("T").unwrap();
    let shared = SharedSession::new(session);
    let source = Arc::new(SessionSource::new(shared.clone(), 1 << 16).unwrap());
    let server = ServerHandle::bind_with(
        "127.0.0.1:0",
        source,
        ServeConfig {
            queue_cap: 2,
            hard_cap: 1 << 20,
            lag: LagPolicy::Disconnect,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    shared.apply(&Update::Insert(t, vec![1])).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // This test exercises the *manual* recovery flow, so the default
    // transparent re-subscribe must stay out of the way.
    client.set_auto_resubscribe(false);
    client.subscribe("feed", None).unwrap();
    client.next(Duration::from_millis(200)).unwrap();

    let rows_per_batch = 4096u64;
    let started = Instant::now();
    let mut round = 0u64;
    while server.stats().lagged == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "queue cap 2 with a stalled reader must trip Lagged"
        );
        let base = 10 + round * rows_per_batch;
        let ins: Vec<Update> = (base..base + rows_per_batch)
            .map(|i| Update::Insert(e, vec![i, 1]))
            .collect();
        shared.apply_batch(&ins).unwrap();
        let del: Vec<Update> = (base..base + rows_per_batch)
            .map(|i| Update::Delete(e, vec![i, 1]))
            .collect();
        shared.apply_batch(&del).unwrap();
        round += 1;
    }
    let final_rows = shared.snapshot("feed").unwrap().results_sorted();

    // The wire now ends in a Lagged frame; fold until we see it.
    let mut mirror = Mirror::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while mirror.lagged_at().is_none() {
        assert!(Instant::now() < deadline, "Lagged frame never arrived");
        if let Some(frame) = client.next(Duration::from_millis(200)).unwrap() {
            mirror.apply("feed", &frame);
        }
    }
    // The documented recovery: re-subscribe from the mirror's cursor.
    let (mode, _) = client.subscribe("feed", Some(mirror.seq())).unwrap();
    assert!(matches!(
        mode,
        SubscribeMode::Resumed | SubscribeMode::Resync
    ));
    wait_rows(
        &mut client,
        &mut mirror,
        "feed",
        &final_rows,
        Duration::from_secs(30),
    );
    assert!(server.stats().lagged >= 1);
}

/// A snapshot bigger than `snapshot_chunk_bytes` must arrive as a run
/// of `SnapshotChunk` frames — bounded per-frame allocations — that the
/// `Mirror` (and `Client::query`) reassemble into exactly the result a
/// one-frame snapshot would have carried. A mirror with a too-small
/// reassembly budget must freeze (`overflowed`) instead of buffering
/// without bound.
#[test]
fn tcp_large_snapshots_arrive_chunked_and_reassemble() {
    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let e = session.relation("E").unwrap();
    let t = session.relation("T").unwrap();
    let shared = SharedSession::new(session);
    let source = Arc::new(SessionSource::new(shared.clone(), 1 << 16).unwrap());
    let server = ServerHandle::bind_with(
        "127.0.0.1:0",
        source,
        ServeConfig {
            // 16-byte rows through a 256-byte budget: 500 result rows
            // must split into ~32 chunks.
            snapshot_chunk_bytes: 256,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    shared.apply(&Update::Insert(t, vec![1])).unwrap();
    let ins: Vec<Update> = (0..500u64).map(|i| Update::Insert(e, vec![i, 1])).collect();
    shared.apply_batch(&ins).unwrap();
    let final_rows = shared.snapshot("feed").unwrap().results_sorted();
    assert_eq!(final_rows.len(), 500);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let (mode, _) = client.subscribe("feed", None).unwrap();
    assert_eq!(mode, SubscribeMode::Live);

    let mut mirror = Mirror::new();
    let mut tiny = Mirror::with_budget(100); // fits ~6 rows, not 500
    let mut chunks = 0usize;
    let deadline = Instant::now() + Duration::from_secs(10);
    while mirror.rows_sorted() != final_rows {
        let now = Instant::now();
        assert!(now < deadline, "chunked snapshot never reassembled");
        if let Some(frame) = client.next(deadline - now).unwrap() {
            match &frame {
                Frame::SnapshotChunk { .. } => chunks += 1,
                Frame::Snapshot { .. } => panic!("snapshot over budget must be chunked"),
                _ => {}
            }
            mirror.apply("feed", &frame);
            tiny.apply("feed", &frame);
        }
    }
    assert!(chunks > 1, "expected a multi-chunk run, saw {chunks}");
    assert!(!mirror.overflowed());
    assert!(
        tiny.overflowed(),
        "a 100-byte budget cannot hold a 8000-byte snapshot"
    );
    assert!(tiny.rows().is_empty(), "overflowed mirror stays frozen");

    // The one-shot path reassembles too.
    let (_, rows) = client.query("feed").unwrap();
    assert_eq!(sorted(rows), final_rows);

    // Deltas after the chunked snapshot keep folding normally.
    shared.apply(&Update::Insert(e, vec![9999, 1])).unwrap();
    let final_rows = shared.snapshot("feed").unwrap().results_sorted();
    wait_rows(
        &mut client,
        &mut mirror,
        "feed",
        &final_rows,
        Duration::from_secs(10),
    );
}

/// Under `LagPolicy::Disconnect` with auto-resubscribe (the default),
/// the client heals transparently: the `Lagged` frame and the reply to
/// the automatic re-`Subscribe` are swallowed inside the client, the
/// mirror never observes the detach, and the replica still converges to
/// the exact result.
#[test]
fn tcp_lagged_client_auto_resubscribes() {
    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let e = session.relation("E").unwrap();
    let t = session.relation("T").unwrap();
    let shared = SharedSession::new(session);
    let source = Arc::new(SessionSource::new(shared.clone(), 1 << 16).unwrap());
    let server = ServerHandle::bind_with(
        "127.0.0.1:0",
        source,
        ServeConfig {
            queue_cap: 2,
            hard_cap: 1 << 20,
            lag: LagPolicy::Disconnect,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    shared.apply(&Update::Insert(t, vec![1])).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.subscribe("feed", None).unwrap();
    client.next(Duration::from_millis(200)).unwrap();

    // Stall until the server sheds the subscription.
    let rows_per_batch = 4096u64;
    let started = Instant::now();
    let mut round = 0u64;
    while server.stats().lagged == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "queue cap 2 with a stalled reader must trip Lagged"
        );
        let base = 10 + round * rows_per_batch;
        let ins: Vec<Update> = (base..base + rows_per_batch)
            .map(|i| Update::Insert(e, vec![i, 1]))
            .collect();
        shared.apply_batch(&ins).unwrap();
        let del: Vec<Update> = (base..base + rows_per_batch)
            .map(|i| Update::Delete(e, vec![i, 1]))
            .collect();
        shared.apply_batch(&del).unwrap();
        round += 1;
    }
    shared.apply(&Update::Insert(e, vec![7, 1])).unwrap();
    let final_rows = shared.snapshot("feed").unwrap().results_sorted();

    // Wake up and just keep folding: the client re-subscribes under the
    // hood and the mirror heals without ever seeing `Lagged`.
    let mut mirror = Mirror::new();
    wait_rows(
        &mut client,
        &mut mirror,
        "feed",
        &final_rows,
        Duration::from_secs(30),
    );
    assert!(
        client.resubscribes() >= 1,
        "the detach must have been healed transparently"
    );
    assert!(
        mirror.lagged_at().is_none(),
        "Lagged must be swallowed by auto-resubscribe"
    );
    assert!(server.stats().lagged >= 1);
}

/// A sharded deployment behind the same wire: cursors live on the
/// global timeline, resume works identically, and remote `Register` is
/// rejected with `Unsupported` (the shard plan is sealed).
#[test]
fn tcp_sharded_source_serves_the_global_timeline() {
    let mut b = ShardedSessionBuilder::new();
    for (name, src) in ROUTES {
        b.register(name, src).unwrap();
    }
    let sharded = Arc::new(b.build().unwrap());
    let schema = sharded.schema().clone();
    let source = Arc::new(ShardedSource::new(Arc::clone(&sharded), 1 << 16).unwrap());
    let server = ServerHandle::bind("127.0.0.1:0", source).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.register("late", "Q(x) :- E(x, x).") {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, cq_updates::serving::ErrorCode::Unsupported as u8)
        }
        other => panic!("sealed plan must reject Register, got {other:?}"),
    }

    let script = churn(&schema, 0x5AAD, 60);
    let cut = script.len() / 2;
    let (mode, _) = client.subscribe("qh", None).unwrap();
    assert_eq!(mode, SubscribeMode::Live);
    let mut mirror = Mirror::new();
    for u in &script[..cut] {
        sharded.apply(u).unwrap();
    }
    wait_rows(
        &mut client,
        &mut mirror,
        "qh",
        &sharded.snapshot("qh").unwrap().results_sorted(),
        Duration::from_secs(10),
    );
    let cursor = mirror.seq();
    drop(client);

    for u in &script[cut..] {
        sharded.apply(u).unwrap();
    }
    let final_rows = sharded.snapshot("qh").unwrap().results_sorted();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (mode, _) = client.subscribe("qh", Some(cursor)).unwrap();
    assert_eq!(mode, SubscribeMode::Resumed);
    wait_rows(
        &mut client,
        &mut mirror,
        "qh",
        &final_rows,
        Duration::from_secs(10),
    );
}

/// The stress cell: `CQ_STRESS_CLIENTS` subscribers churning through
/// kill-and-resume cycles against a live writer. Every mirror — across
/// all its disconnects — must converge to the writer's final state.
#[test]
fn killed_and_resumed_clients_converge() {
    let clients = stress_clients(8);
    let steps = stress_steps(240);

    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let schema = session.schema().clone();
    let shared = SharedSession::new(session);
    let source = Arc::new(SessionSource::new(shared.clone(), 1 << 16).unwrap());
    let server = Arc::new(ServerHandle::bind("127.0.0.1:0", source).unwrap());
    let addr = server.local_addr();
    let writer_done = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for id in 0..clients {
        let done = Arc::clone(&writer_done);
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg::new(0xC11E + id as u64);
            let mut mirror = Mirror::new();
            let mut resumes = 0u64;
            while !done.load(Ordering::Acquire) {
                // (Re)connect: fresh clients snapshot, survivors resume
                // from their cursor.
                let mut client = Client::connect(addr).expect("connect");
                let from = (mirror.seq() > 0).then(|| mirror.seq());
                resumes += from.is_some() as u64;
                client.subscribe("feed", from).expect("subscribe");
                // Fold a random number of frames, then get killed.
                for _ in 0..rng.below(20) + 1 {
                    if let Ok(Some(frame)) = client.next(Duration::from_millis(20)) {
                        mirror.apply("feed", &frame);
                    }
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
                drop(client);
            }
            (mirror, resumes)
        }));
    }

    for u in churn(&schema, 0x57E9, steps) {
        shared.apply(&u).unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    writer_done.store(true, Ordering::Release);
    let final_rows = shared.snapshot("feed").unwrap().results_sorted();

    let mut total_resumes = 0;
    for h in handles {
        let (mut mirror, resumes) = h.join().expect("client thread");
        total_resumes += resumes;
        // One clean final resume settles whatever the kill interrupted.
        let mut client = Client::connect(addr).unwrap();
        let from = (mirror.seq() > 0).then(|| mirror.seq());
        client.subscribe("feed", from).unwrap();
        wait_rows(
            &mut client,
            &mut mirror,
            "feed",
            &final_rows,
            Duration::from_secs(30),
        );
    }
    assert!(
        total_resumes > 0,
        "stress cell must actually exercise resumes"
    );
    assert!(server.stats().connections as usize >= clients);
}

/// The slowloris guards: a connection that never speaks is reaped at
/// the handshake deadline instead of pinning its thread pair forever,
/// and the connection cap refuses over-limit accepts outright (closed,
/// not hung) — with slots becoming reusable once holders disconnect.
#[test]
fn tcp_silent_connections_time_out_and_the_conn_cap_holds() {
    use std::io::Read;

    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let shared = SharedSession::new(session);
    let source = Arc::new(SessionSource::new(shared.clone(), 1 << 16).unwrap());
    let server = ServerHandle::bind_with(
        "127.0.0.1:0",
        source,
        ServeConfig {
            handshake_timeout: Duration::from_millis(200),
            max_conns: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let assert_closed = |stream: &mut std::net::TcpStream, what: &str| {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 1];
        match stream.read(&mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("{what}: expected the server to close, got {other:?}"),
        }
    };
    let connect_by = |deadline: Instant| -> Client {
        loop {
            match Client::connect(addr) {
                Ok(c) => return c,
                Err(_) => {
                    assert!(Instant::now() < deadline, "no connection slot freed up");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    };

    // A connection that never sends Hello is cut loose at the deadline.
    let mut silent = std::net::TcpStream::connect(addr).unwrap();
    let started = Instant::now();
    assert_closed(&mut silent, "silent handshake");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "handshake reap must honor the configured deadline"
    );

    // Fill both connection slots with handshaken clients (retrying while
    // the reaped silent connection's slot drains)…
    let c1 = connect_by(Instant::now() + Duration::from_secs(10));
    let c2 = connect_by(Instant::now() + Duration::from_secs(10));
    // …then the cap refuses a third outright.
    let mut refused = std::net::TcpStream::connect(addr).unwrap();
    assert_closed(&mut refused, "over-cap connect");

    // Freed slots are reusable.
    drop(c1);
    drop(c2);
    let _ = connect_by(Instant::now() + Duration::from_secs(10));
}

/// A snapshot whose chunk count dwarfs the connection's hard cap must
/// still be servable: the run is admitted against the cap as one unit
/// (it answers a single command) instead of killing the connection
/// mid-run, for both the `Subscribe` and the one-shot `Query` paths.
#[test]
fn tcp_snapshot_runs_longer_than_hard_cap_still_serve() {
    let mut session = Session::new();
    session.register("feed", ROUTES[0].1).unwrap();
    let e = session.relation("E").unwrap();
    let t = session.relation("T").unwrap();
    let shared = SharedSession::new(session);
    let source = Arc::new(SessionSource::new(shared.clone(), 1 << 16).unwrap());
    let server = ServerHandle::bind_with(
        "127.0.0.1:0",
        source,
        ServeConfig {
            queue_cap: 1,
            hard_cap: 4,
            // One row per chunk: a 300-row snapshot is a 300-chunk run,
            // 75x the hard cap.
            snapshot_chunk_bytes: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    shared.apply(&Update::Insert(t, vec![1])).unwrap();
    let ins: Vec<Update> = (0..300u64).map(|i| Update::Insert(e, vec![i, 1])).collect();
    shared.apply_batch(&ins).unwrap();
    let final_rows = shared.snapshot("feed").unwrap().results_sorted();
    assert_eq!(final_rows.len(), 300);

    let mut client = Client::connect(server.local_addr()).unwrap();
    // One-shot Query: the reply run alone exceeds the hard cap.
    let (_, rows) = client.query("feed").unwrap();
    assert_eq!(sorted(rows), final_rows);

    // Subscribe: Subscribed + 300 chunks, again one run.
    let (mode, _) = client.subscribe("feed", None).unwrap();
    assert_eq!(mode, SubscribeMode::Live);
    let mut mirror = Mirror::new();
    wait_rows(
        &mut client,
        &mut mirror,
        "feed",
        &final_rows,
        Duration::from_secs(30),
    );
}

/// Observability satellite: `StatsRequest` over the wire returns the
/// server's full text exposition. When the source session carries a
/// registry, one scrape spans the session layer and the serving layer;
/// the request counter itself moves, proving the reply came from the
/// live registry and not a cached render.
#[test]
fn tcp_stats_request_returns_cross_layer_exposition() {
    let registry = Arc::new(cq_updates::obs::Registry::new());
    let mut session = Session::new();
    session.share_registry(Arc::clone(&registry));
    session.register("feed", ROUTES[0].1).unwrap();
    let schema = session.schema().clone();
    let shared = SharedSession::new(session);
    let source = Arc::new(SessionSource::new(shared.clone(), 1 << 10).unwrap());
    let server = ServerHandle::bind("127.0.0.1:0", source).unwrap();

    // The server must have adopted the source's registry.
    assert!(Arc::ptr_eq(&server.registry(), &registry));

    for u in churn(&schema, 0x57A7, 20) {
        shared.apply(&u).unwrap();
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = client.stats().unwrap();
    for name in [
        "session_updates_total",
        "session_commit_latency_ns",
        "serve_connections_total",
        "serve_stats_requests_total",
    ] {
        assert!(text.contains(name), "stats reply missing {name}:\n{text}");
    }

    // A second scrape observes the first one's count.
    let again = client.stats().unwrap();
    assert!(
        again.contains("serve_stats_requests_total 2"),
        "second scrape must count the first:\n{again}"
    );
}
