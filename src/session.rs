//! The unified front door: classifier-routed query sessions.
//!
//! The paper is a *dichotomy*: q-hierarchical queries admit constant-time
//! updates with constant-delay enumeration (Theorem 3.2), everything else
//! conditionally does not (Theorems 3.3–3.5) and must fall back to
//! IVM-style maintenance. [`Session`] turns that theorem into an API:
//! callers register named queries, the dichotomy classifier picks the
//! engine per query ([`EngineChoice::Auto`]), and updates fan out to all
//! registered queries at once — singly ([`Session::apply`]), batched with
//! netting ([`Session::apply_batch`]), or under all-or-nothing
//! transactions ([`Session::transaction`]). [`QueryHandle`]s expose O(1)
//! counting, Boolean answering, constant-delay enumeration, and a change
//! feed ([`QueryHandle::subscribe`]) of per-update result deltas.
//!
//! Every commit is a batch. Nobody can observe a transaction's
//! intermediate states, so the engines only ever see a commit's net
//! effect: a single update is a batch of one, a transaction changes `D`
//! alone until it commits its netted log as one batch, and a rollback
//! undoes `D` — the engines never saw it. One crate-private function
//! takes every commit's net facts to the engines, the change feeds and
//! the published epochs.
//!
//! # Threading model
//!
//! [`Session`] is `Send + Sync`: all interior state is either plain data
//! behind the `&mut self` write path or guarded by short-lived mutexes
//! (subscriber lists, epoch publishers). Writers are serialized by
//! construction — every commit flows through `&mut self`. Readers scale
//! out through **epoch publication**: each query's latest pinned state
//! sits in an atomically swappable cell ([`cqu_common::EpochCell`]), and
//! every pin is an exact, internally consistent `(seq, result)` frame:
//!
//! * **Lock-free pins** ([`PinReader::pin`], via
//!   [`QueryHandle::pin_reader`] / [`Reads::reader`]): a single
//!   atomic load — no session lock, ever. Pins complete while a writer
//!   or open transaction holds the lock exclusively (and never see its
//!   uncommitted state); a reader holding an arbitrarily old epoch
//!   never delays publication, and replaced epochs free themselves the
//!   moment their last pin drops.
//! * **Locked snapshots** ([`QueryHandle::snapshot`]): an immutable,
//!   `Send + Sync` [`QuerySnapshot`] pinned at the current update
//!   sequence number, republishing the epoch first when updates have
//!   landed since. On the q-hierarchical engine republication costs
//!   O(components) — the engine's structures are `Arc`-shared into the
//!   epoch and the *writer* pays the divergence, copy-on-write, once
//!   per retained epoch per touched component.
//! * **Change feeds** ([`QueryHandle::subscribe`]): [`Subscription`]s are
//!   `Send` and deliver [`Arc<ChangeEvent>`]s — one allocation per event,
//!   shared zero-copy by every subscriber, receivable on any thread.
//!
//! [`SharedSession`] packages the standard deployment: one writer lock
//! with epoch-pinning readers — the one-shard face of the concurrent
//! session core in [`crate::shard`].
//!
//! ```
//! use cq_updates::prelude::*;
//!
//! let mut session = Session::new();
//! session.register("feed", "Feed(u, v, p) :- Follows(u, v), Posts(v, p).").unwrap();
//! let follows = session.relation("Follows").unwrap();
//! let posts = session.relation("Posts").unwrap();
//!
//! // The classifier routed the q-hierarchical feed query to QhEngine.
//! assert_eq!(session.query("feed").unwrap().kind(), EngineKind::QHierarchical);
//!
//! session.apply_batch(&[
//!     Update::Insert(follows, vec![1, 2]),
//!     Update::Insert(posts, vec![2, 77]),
//! ]).unwrap();
//! assert_eq!(session.query("feed").unwrap().count(), 1);
//!
//! // Snapshot isolation: a pinned view survives later updates.
//! let snap = session.query("feed").unwrap().snapshot();
//! session.apply(&Update::Delete(posts, vec![2, 77])).unwrap();
//! assert_eq!(snap.count(), 1);
//! assert_eq!(session.query("feed").unwrap().count(), 0);
//! ```

use crate::error::CqError;
use crate::shard::{Reads, ShardedSession, ShardedTransaction};
use cqu_baseline::EngineKind;
use cqu_common::{EpochCell, FxHashMap, Publisher};
use cqu_dynamic::{
    net_effective, DynamicEngine, Netted, ResultDelta, ResultSnapshot, UpdateReport,
};
use cqu_obs::{Counter, Histogram, Registry};
use cqu_query::classify::{classify, Classification, Verdict};
use cqu_query::hierarchical::{q_hierarchical_violation, Violation};
use cqu_query::{parse_query, Query, QueryBuilder, QueryError, RelId, Schema};
use cqu_serve::{BoundedQueue, Receiver, SeqRing};
use cqu_storage::{Const, Database, Tuple, Update};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub use cqu_serve::{ChangeEvent, ReplayOutcome};

/// Locks an internal fine-grained mutex, shrugging off poisoning: the
/// guarded state (subscriber lists, snapshot caches) is replaced
/// wholesale under the lock, so a panicked holder cannot leave it
/// half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How [`Session::register_with`] picks an engine for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// Classifier-routed (the paper's dichotomy): q-hierarchical queries
    /// — directly or through their homomorphic core — go to the dynamic
    /// engine; conditionally hard ones fall back to delta-IVM.
    #[default]
    Auto,
    /// Use exactly this engine; registration fails with
    /// [`CqError::Query`] if the engine cannot admit the query.
    Forced(EngineKind),
}

/// A stable identifier for a registered query within its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(usize);

/// The receiving end of a [`QueryHandle::subscribe`] change feed: the
/// uncapped face of the feed queue.
///
/// Events accumulate until polled; dropping the subscription closes its
/// queue, and the session forgets a closed queue before its next delta
/// extraction. Subscriptions are `Send`: hand one to a reader thread
/// and drain it there while the session keeps applying updates.
#[derive(Debug)]
pub struct Subscription {
    rx: Receiver<Arc<ChangeEvent>>,
}

impl Subscription {
    /// Takes the next pending event, if any (non-blocking).
    pub fn poll(&self) -> Option<Arc<ChangeEvent>> {
        self.rx.try_recv().item()
    }

    /// Drains all pending events (non-blocking).
    pub fn drain(&self) -> Vec<Arc<ChangeEvent>> {
        self.rx.drain()
    }

    /// Blocks until the next event arrives; `None` once the feed is
    /// closed (the session — or its query — was dropped) and drained.
    pub fn recv(&self) -> Option<Arc<ChangeEvent>> {
        self.rx.recv()
    }

    /// Blocks up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<ChangeEvent>> {
        self.rx.recv_timeout(timeout).item()
    }

    /// The queue end itself: what the serving layer's fan-out pump
    /// polls, where an idle feed and a closed one must differ.
    pub(crate) fn into_receiver(self) -> Receiver<Arc<ChangeEvent>> {
        self.rx
    }
}

/// The receiving end of a [`QueryHandle::subscribe_bounded`] change
/// feed: the same queue end with a capacity, so at most `cap` events
/// are ever pending. When the consumer falls behind, the session
/// **coalesces** — pending events plus the new one are netted into a
/// single exact catch-up event — instead of growing the queue or
/// blocking the writer. The same lag policy network subscribers get,
/// for in-process feeds.
#[derive(Debug)]
pub struct BoundedSubscription {
    feed: Subscription,
}

impl BoundedSubscription {
    /// Takes the next pending event, if any (non-blocking).
    pub fn poll(&self) -> Option<Arc<ChangeEvent>> {
        self.feed.poll()
    }

    /// Drains all pending events (non-blocking).
    pub fn drain(&self) -> Vec<Arc<ChangeEvent>> {
        self.feed.drain()
    }

    /// Blocks up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<ChangeEvent>> {
        self.feed.recv_timeout(timeout)
    }

    /// How many times the session had to coalesce because this consumer
    /// lagged behind its capacity. A netted catch-up event carries the
    /// same net delta the individual events would have, so a nonzero
    /// count means coarser granularity, never lost changes.
    pub fn coalesced(&self) -> u64 {
        self.feed.rx.coalesced()
    }

    /// Number of events currently pending (≤ the subscribed capacity).
    pub fn pending(&self) -> usize {
        self.feed.rx.len()
    }
}

/// How [`QueryHandle::subscribe_from`] satisfied a resume cursor.
#[derive(Debug)]
pub enum Resume {
    /// The cursor was covered by the query's delta retention ring
    /// ([`QueryHandle::retain_deltas`]): apply `catch_up` (the netted
    /// delta `from_seq → cursor`; `None` when the result did not change
    /// net), then follow `feed` — every event on it with `seq` ≤
    /// `cursor` is already folded into the catch-up and must be skipped.
    Resumed {
        /// The resumed stream position: everything up to and including
        /// this seq is covered by `catch_up`.
        cursor: u64,
        /// The netted events `from_seq → cursor`, or `None` when they
        /// cancelled out (or none were retained).
        catch_up: Option<ChangeEvent>,
        /// The live feed from `cursor` onwards.
        feed: Subscription,
    },
    /// Retention is disabled — or the ring evicted the cursor: start
    /// over from a full snapshot, then follow `feed`, skipping events
    /// with `seq` ≤ [`QuerySnapshot::seq`].
    Resync {
        /// The current result, pinned; its [`QuerySnapshot::seq`] is the
        /// new cursor.
        snapshot: QuerySnapshot,
        /// The live feed from the snapshot onwards.
        feed: Subscription,
    },
}

/// Why the auto-router chose the engine it chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteReason {
    /// The query is q-hierarchical; Theorem 3.2 applies directly.
    QHierarchical,
    /// The query is not q-hierarchical but its homomorphic core is;
    /// the engine maintains the core (`core(ϕ)(D) = ϕ(D)`).
    QHierarchicalCore,
    /// Conditionally hard (or open) per Theorems 3.3–3.5; delta-IVM
    /// maintains the result.
    Fallback,
    /// The caller forced the engine with [`EngineChoice::Forced`].
    Forced,
}

/// A query's change-feed state: the live subscribers' queues and, when
/// serving enables it, the bounded seq-keyed delta retention ring that
/// resume cursors replay from. One mutex guards both so ring retention
/// and fan-out observe events in the same order atomically.
#[derive(Default)]
struct FeedState {
    subs: Vec<Arc<BoundedQueue<Arc<ChangeEvent>>>>,
    ring: Option<SeqRing<Arc<ChangeEvent>>>,
}

impl FeedState {
    /// Forgets the queues whose consumer is gone and returns how many
    /// stay. Runs before every tracked update, so a detached feed stops
    /// costing delta extraction immediately.
    fn prune(&mut self) -> usize {
        self.subs.retain(|q| !q.is_closed());
        self.subs.len()
    }
}

impl Drop for FeedState {
    /// A registration that goes away (with its session) closes its
    /// subscribers' queues: they drain what is pending, then see the end.
    fn drop(&mut self) {
        for queue in &self.subs {
            queue.close();
        }
    }
}

/// One published epoch of a query: an immutable, internally consistent
/// `(seq, version, generation, snapshot)` quadruple. The snapshot is
/// exactly the query's result after the first `seq` effective updates of
/// the session stream — epochs freeze the stamp and the state *together*,
/// so a pin of any epoch, however stale, is never torn.
struct Epoch {
    /// Session sequence number at publication (`timeline[seq]` index).
    seq: u64,
    /// The engine-state version ([`Registered::version`]) this reflects.
    version: u64,
    /// The query's footprint generation at publication
    /// ([`Registered::footprint_gen`]): a seq ≤ `seq`, the last one that
    /// changed a relation the query reads. Foreign traffic (other
    /// queries' relations in this session, other shards entirely) never
    /// moves it, so equal stamps mean identical pinned states.
    generation: u64,
    snap: Arc<dyn ResultSnapshot>,
}

struct Registered {
    name: Arc<str>,
    /// The query as the caller wrote it, remapped onto the session schema.
    query: Query,
    classification: Classification,
    kind: EngineKind,
    reason: RouteReason,
    engine: Box<dyn DynamicEngine>,
    /// Per relation (indexed by `RelId`, sized to the schema at build
    /// time): whether the *maintained* query references it. Updates to
    /// unreferenced relations — including relations interned after this
    /// registration — provably cannot change the result and are not
    /// routed; in particular they never trigger delta extraction.
    relevant: Vec<bool>,
    /// The query's current footprint generation: the largest relation
    /// stamp ([`Session::stamps`]) over its `relevant` relations, or 0.
    /// Seeded by [`footprint_generation`] at registration and at a
    /// checkpoint load, then maintained on the write path from the
    /// commit's own stamps, which are the newest. Moves only when one of
    /// *this query's* relations changes.
    footprint_gen: u64,
    /// Monotone engine-state version: bumped before every mutation of
    /// `engine`, so published epochs know when they go stale.
    version: u64,
    /// The published epoch: the per-registration pin cache *and* the
    /// lock-free reader fast path ([`PinReader`]) in one cell. Pinning is
    /// a single atomic load; publication atomically retires the previous
    /// epoch, which is freed the moment its last pin drops.
    cell: Arc<EpochCell<Epoch>>,
    /// The cell's one writer. Its mutex serializes lazy epoch rebuilds
    /// among concurrent `&self` readers ([`Registered::pinned`]), so a
    /// stale epoch is rebuilt once, not once per racing reader; the
    /// writer path, which holds the session exclusively, reaches it with
    /// `get_mut`. Never touched by [`PinReader::pin`].
    publisher: Mutex<Publisher<Epoch>>,
    feed: Mutex<FeedState>,
    /// Shared `session_epoch_publications_total` handle, present once the
    /// session shares a metrics registry ([`Session::share_registry`]).
    epoch_pubs: Option<Arc<Counter>>,
}

/// The generation of a query footprint: the largest of `stamps` over the
/// relations `relevant` marks, or 0. O(|σ|); it seeds
/// [`Registered::footprint_gen`], which the write path then maintains.
fn footprint_generation(relevant: &[bool], stamps: &[u64]) -> u64 {
    relevant
        .iter()
        .zip(stamps)
        .filter(|&(&wanted, _)| wanted)
        .map(|(_, &stamp)| stamp)
        .max()
        .unwrap_or(0)
}

impl Registered {
    fn wants(&self, rel: RelId) -> bool {
        self.relevant.get(rel.index()).copied().unwrap_or(false)
    }

    /// Whether the write path must extract result deltas for this query:
    /// someone is subscribed, or delta retention is enabled (the ring
    /// must see every event, subscribers or not, to keep resume cursors
    /// servable).
    fn wants_deltas(&self) -> bool {
        let mut feed = lock(&self.feed);
        feed.prune() > 0 || feed.ring.is_some()
    }

    /// Publishes a normalized engine-produced delta; empty deltas are
    /// dropped silently. The event is allocated once, retained in the
    /// ring (when enabled), and fanned out as `Arc` clones — ring and
    /// subscribers observe it atomically under the feed lock.
    fn publish(&self, seq: u64, mut delta: ResultDelta) {
        delta.normalize();
        if delta.is_empty() {
            return;
        }
        let event = Arc::new(ChangeEvent {
            seq,
            added: delta.added,
            removed: delta.removed,
        });
        let mut feed = lock(&self.feed);
        if let Some(ring) = feed.ring.as_mut() {
            ring.push(seq, Arc::clone(&event));
        }
        feed.subs.retain(|queue| {
            queue.push_coalescing(Arc::clone(&event), |all| {
                Arc::new(ChangeEvent::net(all.iter().map(|e| &**e)))
            })
        });
    }

    /// Returns the published epoch for the *current* engine version,
    /// rebuilding and republishing it on first demand after an update.
    /// Repeated pins with no intervening update are an atomic load.
    ///
    /// Callers hold the session at least shared (`&self` with no live
    /// writer), so `self.version` is stable across the call.
    fn pinned(&self, seq: u64, generation: u64) -> Arc<Epoch> {
        let epoch = self.cell.load();
        if epoch.version == self.version {
            return epoch;
        }
        // Stale: rebuild under the publisher's lock so racing readers
        // share one rebuild; re-check after acquisition (another reader
        // may have published while we waited).
        let mut publisher = lock(&self.publisher);
        let epoch = self.cell.load();
        if epoch.version == self.version {
            return epoch;
        }
        publisher.store(self.next_epoch(seq, generation));
        self.cell.load()
    }

    /// Builds a snapshot of the engine's current state as the next epoch
    /// to publish, consuming any pending refresh request.
    fn next_epoch(&self, seq: u64, generation: u64) -> Arc<Epoch> {
        let snap: Arc<dyn ResultSnapshot> = Arc::from(self.engine.snapshot());
        self.cell.take_refresh_request();
        if let Some(c) = self.epoch_pubs.as_ref() {
            c.inc();
        }
        Arc::new(Epoch {
            seq,
            version: self.version,
            generation,
            snap,
        })
    }

    /// Writer-side bookkeeping around an engine mutation: bump the state
    /// version and mirror it into the cell so lock-free pins can detect
    /// (and request refresh for) a lagging epoch.
    fn touch(&mut self) {
        self.version += 1;
        self.cell.set_live_version(self.version);
    }

    /// Writer-side demand-driven publication: republish the epoch iff a
    /// pin observed staleness since the last publication *and* this
    /// engine's snapshots are cheap (O(components) `Arc` clones on the
    /// q-hierarchical engine). Delta-IVM, whose snapshots cost
    /// `Ω(|view|)`, never stalls the writer: its epochs
    /// refresh lazily, on the next locked pin. Stamps the maintained
    /// footprint generation — O(1) either way.
    fn republish_on_demand(&mut self, seq: u64) {
        if self.engine.snapshot_is_cheap() && self.cell.take_refresh_request() {
            let epoch = self.next_epoch(seq, self.footprint_gen);
            let publisher = self
                .publisher
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            publisher.store(epoch);
        }
    }
}

/// Registry handles for the write path, resolved once at
/// [`Session::share_registry`] so each commit pays only relaxed atomic
/// ops (and one clock read for the latency histogram), never a registry
/// lookup.
struct SessionMetrics {
    registry: Arc<Registry>,
    updates: Arc<Counter>,
    batches: Arc<Counter>,
    transactions: Arc<Counter>,
    rollbacks: Arc<Counter>,
    commit_latency_ns: Arc<Histogram>,
    epoch_publications: Arc<Counter>,
}

impl SessionMetrics {
    fn new(registry: Arc<Registry>) -> SessionMetrics {
        SessionMetrics {
            updates: registry.counter("session_updates_total"),
            batches: registry.counter("session_batches_total"),
            transactions: registry.counter("session_transactions_total"),
            rollbacks: registry.counter("session_rollbacks_total"),
            commit_latency_ns: registry.histogram("session_commit_latency_ns"),
            epoch_publications: registry.counter("session_epoch_publications_total"),
            registry,
        }
    }
}

/// A registration that passed every fallible check
/// ([`Session::stage_query`]) but has not touched its session yet.
pub(crate) struct StagedQuery {
    name: String,
    /// The session schema grown by the relations the query introduces.
    schema: Schema,
    /// The query remapped onto `schema`.
    query: Query,
    classification: Classification,
    kind: EngineKind,
    reason: RouteReason,
}

impl StagedQuery {
    /// The query the engine will maintain ([`maintained`]).
    fn maintained(&self) -> &Query {
        maintained(self.reason, &self.query, &self.classification)
    }
}

/// The query a registration's engine maintains: the homomorphic core for
/// core-routed registrations, the query itself otherwise.
fn maintained<'a>(
    reason: RouteReason,
    query: &'a Query,
    classification: &'a Classification,
) -> &'a Query {
    match reason {
        RouteReason::QHierarchicalCore => &classification.core,
        _ => query,
    }
}

/// A set of named queries maintained together under one update stream.
///
/// `Session` is `Send + Sync`; writers are serialized through `&mut self`
/// and readers either borrow `&self` or pin [`QuerySnapshot`]s. See the
/// module docs for the threading model and [`SharedSession`] for the
/// packaged one-writer-lock deployment.
pub struct Session {
    schema: Schema,
    /// The one copy of `D`: every effectiveness decision is made against
    /// it, and the engines, which keep no database, receive only the
    /// facts that changed it.
    db: Database,
    /// One stamp per relation of the schema: the seq of the last
    /// committed effective update on it, 0 if none. It is the seq that
    /// update's log record carries, so recovery and replicas reproduce
    /// it. Written only where a commit's numbers are drawn
    /// ([`Session::publish_batch`], which the shard router's
    /// multi-shard commits also end in) and by a checkpoint load.
    stamps: Vec<u64>,
    regs: Vec<Registered>,
    by_name: FxHashMap<String, usize>,
    seq: u64,
    /// When set, sequence numbers are drawn from this shared counter
    /// instead of the private `seq` field — the mechanism by which every
    /// shard of a [`crate::shard::ShardedSession`] stamps its updates
    /// onto one global timeline. `seq` then caches the last number this
    /// session drew (its own updates' position in the global stream).
    seq_source: Option<Arc<AtomicU64>>,
    /// Write-path instrumentation ([`Session::share_registry`]); `None`
    /// keeps commits free of clock reads and atomic traffic.
    metrics: Option<SessionMetrics>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field(
                "queries",
                &self.regs.iter().map(|r| &*r.name).collect::<Vec<_>>(),
            )
            .field("relations", &self.schema.len())
            .field("cardinality", &self.db.cardinality())
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a session over a pre-declared schema. Queries registered
    /// later may also intern new relations on the fly.
    pub fn open(schema: Schema) -> Session {
        let db = Database::new(schema.clone());
        Session {
            stamps: vec![0; schema.len()],
            schema,
            db,
            regs: Vec::new(),
            by_name: FxHashMap::default(),
            seq: 0,
            seq_source: None,
            metrics: None,
        }
    }

    /// Switches this session onto a shared sequence counter: every
    /// effective update from now on draws its number from `source`
    /// (one atomic `fetch_add`; batches reserve a contiguous range), so
    /// several sessions sharing one source stamp their updates onto a
    /// single totally-ordered timeline. The shard layer calls this on
    /// each shard's session at build time, before any update flows
    /// through the shared front door. A session that already has history
    /// (a preloaded one wrapped by [`SharedSession::new`]) seeds the
    /// counter with its own position, so the timeline continues.
    pub(crate) fn share_seq(&mut self, source: Arc<AtomicU64>) {
        source.fetch_max(self.seq, Ordering::Relaxed);
        self.seq_source = Some(source);
    }

    /// Points this session at a shared metrics registry: effective
    /// updates, batches, transactions, rollbacks, commit latency, and
    /// epoch publications are counted there from now on. Handles are
    /// resolved once; the write path then pays a few relaxed atomic ops
    /// (plus one clock read per commit for the latency histogram). A
    /// session without a registry pays neither — the knob the overhead
    /// bench (E16) flips.
    ///
    /// Layers stack onto *one* registry: the durable layer attaches the
    /// same instance to its WAL, the shard layer shares it across every
    /// shard session, and the serving layer renders it over the wire.
    pub fn share_registry(&mut self, registry: Arc<Registry>) {
        let metrics = SessionMetrics::new(registry);
        for reg in &mut self.regs {
            reg.epoch_pubs = Some(Arc::clone(&metrics.epoch_publications));
        }
        self.metrics = Some(metrics);
    }

    /// The shared metrics registry, when one is attached.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Draws the next `n` sequence numbers (one per effective member of
    /// the commit at hand) and returns the last — the stamp for its
    /// epochs and events. Standalone sessions count locally; shard
    /// sessions reserve a contiguous range of the shared global counter.
    /// The shard router draws a multi-shard commit's range itself.
    fn advance_seq(&mut self, n: u64) -> u64 {
        self.seq = match &self.seq_source {
            None => self.seq + n,
            // Relaxed suffices: uniqueness (not ordering) carries the
            // correctness argument, and every consumer of the drawn value
            // reads it through this shard's writer lock.
            Some(source) => source.fetch_add(n, Ordering::Relaxed) + n,
        };
        self.seq
    }

    /// Replay hook: positions the sequence counter at `seq` and marks
    /// every registration's epoch stale. It publishes nothing: an epoch
    /// is published by a locked read, by acquiring a [`PinReader`], by
    /// the writer on a pin's demand
    /// ([`Registered::republish_on_demand`]) or by the replica's applier
    /// ([`Session::publish_watched`]), never as a side effect of
    /// positioning — so positioning pins no component and costs the
    /// next write no copy.
    ///
    /// Replaying a log applies updates as batches, which draw fresh
    /// sequence numbers; they match the log's stamps
    /// only where the log has no jump. The replay machine
    /// (`src/replay.rs`) calls this across each real jump (after a
    /// checkpoint load, over a `SeqBurn`, over a gap in the stream), so
    /// post-recovery updates and subscriber cursors continue the
    /// original timeline. The state is unchanged across the call; the
    /// stale mark makes the next publication carry the new stamp.
    pub(crate) fn force_seq(&mut self, seq: u64) {
        if let Some(source) = &self.seq_source {
            source.store(seq, Ordering::Relaxed);
        }
        self.seq = seq;
        for reg in &mut self.regs {
            reg.touch();
        }
    }

    /// Replica hook: publishes the stale epochs somebody can look at
    /// lock-free. The applier calls it after a run of records and before
    /// it announces the watermark; on a replica no pin has to observe
    /// the lag first, as [`Registered::republish_on_demand`] requires on
    /// the leader. A registration is published iff its engine snapshots
    /// cheaply (the leader's rule for lock-free pins) and a
    /// [`PinReader`] is alive: the registration and its publisher hold
    /// the cell twice, and `pin_reader` is the only other holder. Nobody
    /// watching means no epoch, hence no component the next write has to
    /// copy. Runs under a read guard; the publisher's lock in
    /// [`Registered::pinned`] serializes it with locked readers.
    pub(crate) fn publish_watched(&self) {
        for reg in &self.regs {
            if reg.engine.snapshot_is_cheap() && Arc::strong_count(&reg.cell) > 2 {
                reg.pinned(self.seq, reg.footprint_gen);
            }
        }
    }

    /// Checkpoint hook: installs each of `rels`' stamps and moves its
    /// tuples into the empty `D`, then preprocesses every registration
    /// over it once ([`EngineKind::preprocess`], as a registration over a
    /// loaded `D` does). A relation's stamp is the one the checkpointed
    /// session held, so every footprint generation is the live one. No
    /// seq number is drawn and nothing is published: every epoch goes
    /// stale, and the replay machine positions the counter next.
    pub(crate) fn preload(&mut self, rels: Vec<(RelId, u64, Vec<Tuple>)>) {
        debug_assert_eq!(
            self.db.cardinality(),
            0,
            "a checkpoint loads into an empty D"
        );
        for (rel, stamp, tuples) in rels {
            self.stamps[rel.index()] = stamp;
            for tuple in tuples {
                self.db.insert(rel, tuple);
            }
        }
        for reg in &mut self.regs {
            reg.engine = reg
                .kind
                .preprocess(
                    maintained(reg.reason, &reg.query, &reg.classification),
                    &self.db,
                )
                .expect("the engine admitted the query at registration");
            reg.footprint_gen = footprint_generation(&reg.relevant, &self.stamps);
            reg.touch();
        }
    }

    /// Opens a session with an empty schema (relations are interned by
    /// the queries that mention them).
    pub fn new() -> Session {
        Session::open(Schema::new())
    }

    /// The session schema (the union of all registered queries' schemas).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The one copy of `D` every engine of this session is maintained
    /// against.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The stamp of `rel`: the seq of its last committed effective
    /// update, 0 if none.
    pub(crate) fn stamp(&self, rel: RelId) -> u64 {
        self.stamps[rel.index()]
    }

    /// Audits every registration against the one `D`
    /// ([`DynamicEngine::audit`]: the q-tree counters and weights of
    /// Section 6.4 recomputed by brute force; engines without redundant
    /// registers pass). Brute-force cost — for tests, on states built
    /// from a checkpoint, a log tail or a late registration as much as on
    /// live ones.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.regs.iter().try_for_each(|reg| {
            reg.engine
                .audit(&self.db)
                .map_err(|e| format!("{}: {e}", reg.name))
        })
    }

    /// Number of effective update commands committed so far: single
    /// applies, batch members and transaction members each count one. A
    /// rolled-back transaction *burns* its effective updates' numbers
    /// (the states they would have numbered were never published, so
    /// those positions are simply gaps in the visible timeline); undoing
    /// them draws none. Single-writer and sharded sessions burn
    /// identically; the sharded-session suite pins the equality.
    ///
    /// Inside a [`crate::shard::ShardedSession`], where sessions share
    /// one global counter, this is the *global* position of this shard's
    /// most recent update (other shards may have drawn later numbers).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Resolves a relation by name.
    pub fn relation(&self, name: &str) -> Result<RelId, CqError> {
        self.schema
            .relation(name)
            .ok_or_else(|| CqError::UnknownRelation(name.to_string()))
    }

    /// Parses and registers a query under `name`, classifier-routed.
    pub fn register(&mut self, name: &str, src: &str) -> Result<QueryId, CqError> {
        self.register_with(name, src, EngineChoice::Auto)
    }

    /// Parses and registers a query under `name` with an explicit engine
    /// choice.
    pub fn register_with(
        &mut self,
        name: &str,
        src: &str,
        choice: EngineChoice,
    ) -> Result<QueryId, CqError> {
        let q = parse_query(src)?;
        self.register_query(name, &q, choice)
    }

    /// Registers an already-built query under `name`.
    ///
    /// The query is remapped onto the session schema (new relations are
    /// interned; arity clashes error), classified, and handed to the
    /// chosen engine seeded from the session's current database.
    pub fn register_query(
        &mut self,
        name: &str,
        query: &Query,
        choice: EngineChoice,
    ) -> Result<QueryId, CqError> {
        let staged = self.stage_query(name, query, choice)?;
        Ok(self.commit_query(staged))
    }

    /// The fallible half of a registration: everything that can refuse
    /// the query (duplicate name, arity clash, engine admission) runs
    /// here against `&self`, so a failed registration leaves schema and
    /// the database untouched — and the durable layer can put its
    /// log write between this and [`Session::commit_query`].
    pub(crate) fn stage_query(
        &self,
        name: &str,
        query: &Query,
        choice: EngineChoice,
    ) -> Result<StagedQuery, CqError> {
        if self.by_name.contains_key(name) {
            return Err(CqError::DuplicateQuery(name.to_string()));
        }
        let (schema, query) = self.adopt(query)?;
        let classification = classify(&query);
        let (kind, reason) = route(&query, &classification, choice);
        let staged = StagedQuery {
            name: name.to_string(),
            schema,
            query,
            classification,
            kind,
            reason,
        };
        if let Some(violation) = admission_violation(kind, staged.maintained()) {
            return Err(QueryError::NotQHierarchical(violation).into());
        }
        Ok(staged)
    }

    /// The infallible half: grows schema + database, builds the engine
    /// from the session's `D`, publishes the genesis epoch. `staged` must
    /// come from [`Session::stage_query`] on this session with no schema
    /// change in between. The admission pre-check there is the only failure mode
    /// an engine constructor has, so a build error here is a bug — panic
    /// loudly rather than `?`-masking a broken atomicity invariant.
    pub(crate) fn commit_query(&mut self, staged: StagedQuery) -> QueryId {
        self.schema = staged.schema.clone();
        self.db.adopt_schema(&self.schema);
        self.stamps.resize(self.schema.len(), 0);
        // Route only relations the maintained query references (for
        // core-routed queries that is the core, whose atoms are a subset).
        let maintained = staged.maintained();
        let mut relevant = vec![false; self.schema.len()];
        for atom in maintained.atoms() {
            relevant[atom.relation.index()] = true;
        }
        let engine = staged
            .kind
            .preprocess(maintained, &self.db)
            .expect("admission pre-check guarantees the engine admits the query");
        let id = QueryId(self.regs.len());
        self.by_name.insert(staged.name.clone(), id.0);
        // Publish the genesis epoch: readers acquired before the first
        // update pin the seed state, stamped with the current stream
        // position and the query's footprint generation.
        let footprint_gen = footprint_generation(&relevant, &self.stamps);
        let snap: Arc<dyn ResultSnapshot> = Arc::from(engine.snapshot());
        let publisher = Publisher::new(Arc::new(Epoch {
            seq: self.seq,
            version: 0,
            generation: footprint_gen,
            snap,
        }));
        self.regs.push(Registered {
            name: Arc::from(staged.name),
            query: staged.query,
            classification: staged.classification,
            kind: staged.kind,
            reason: staged.reason,
            engine,
            relevant,
            footprint_gen,
            version: 0,
            cell: Arc::clone(publisher.cell()),
            publisher: Mutex::new(publisher),
            feed: Mutex::new(FeedState::default()),
            epoch_pubs: self
                .metrics
                .as_ref()
                .map(|m| Arc::clone(&m.epoch_publications)),
        });
        id
    }

    /// Remaps `query` onto a *staged* copy of the session schema, grown
    /// with any relations the query introduces. Nothing on the session is
    /// mutated — the caller commits the staged schema only once the whole
    /// registration is known to succeed.
    fn adopt(&self, query: &Query) -> Result<(Schema, Query), CqError> {
        let theirs = query.schema();
        let mut staged = self.schema.clone();
        for rel in theirs.relations() {
            staged.intern(theirs.name(rel), theirs.arity(rel))?;
        }
        let mut b = QueryBuilder::with_schema(query.name(), staged.clone());
        for atom in query.atoms() {
            let args: Vec<_> = atom
                .args
                .iter()
                .map(|&v| b.var(query.var_name(v)))
                .collect();
            b.atom(theirs.name(atom.relation), &args)?;
        }
        let free: Vec<_> = query
            .free()
            .iter()
            .map(|&v| b.var(query.var_name(v)))
            .collect();
        Ok((staged, b.head(&free).build()?))
    }

    /// Looks up a registered query by name.
    pub fn query(&self, name: &str) -> Result<QueryHandle<'_>, CqError> {
        let &idx = self
            .by_name
            .get(name)
            .ok_or_else(|| CqError::UnknownQuery(name.to_string()))?;
        Ok(QueryHandle {
            reg: &self.regs[idx],
            id: QueryId(idx),
            seq: self.seq,
            generation: self.regs[idx].footprint_gen,
        })
    }

    /// Looks up a registered query by id.
    pub fn handle(&self, id: QueryId) -> QueryHandle<'_> {
        QueryHandle {
            reg: &self.regs[id.0],
            id,
            seq: self.seq,
            generation: self.regs[id.0].footprint_gen,
        }
    }

    /// Iterates over all registered queries, in registration order.
    pub fn queries(&self) -> impl Iterator<Item = QueryHandle<'_>> {
        self.regs
            .iter()
            .enumerate()
            .map(move |(i, reg)| QueryHandle {
                reg,
                id: QueryId(i),
                seq: self.seq,
                generation: reg.footprint_gen,
            })
    }

    /// Checks an update against the session schema.
    fn validate(&self, update: &Update) -> Result<(), CqError> {
        validate_update(&self.schema, update)
    }

    /// The instant a commit began, on an instrumented session only: an
    /// uninstrumented one reads no clock.
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.metrics.as_ref().map(|_| Instant::now())
    }

    /// Applies one update to every registered query; returns `true` iff
    /// the database changed.
    pub fn apply(&mut self, update: &Update) -> Result<bool, CqError> {
        self.validate(update)?;
        let start = self.clock();
        let changed = self.apply_prevalidated(update);
        if let (Some(m), Some(t0)) = (self.metrics.as_ref(), start) {
            m.commit_latency_ns.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(changed)
    }

    /// [`Session::apply`] after validation: the shard router's entry,
    /// which validates against the identical union schema first. Whether
    /// the update is a set-semantics no-op is decided against `D`, once,
    /// and no engine sees a no-op; an effective update is a batch of one.
    pub(crate) fn apply_prevalidated(&mut self, update: &Update) -> bool {
        if !self.db.apply(update) {
            return false;
        }
        let stamp = self.advance_seq(1);
        let stamped = std::iter::once((update.relation(), stamp));
        self.publish_batch(std::slice::from_ref(update), stamped, 1, stamp, None);
        true
    }

    /// Applies a batch of updates to every registered query, equivalent
    /// to applying them in order — but amortised: the batch is netted
    /// against the one `D` once ([`cqu_dynamic::net_effective`]) and each
    /// engine receives the net facts at once
    /// ([`DynamicEngine::apply_net`]), so cancelling updates never reach
    /// an engine and delta-IVM groups by relation.
    ///
    /// All-or-nothing: the batch is validated up front and nothing is
    /// applied if any update is malformed. Subscribers see one
    /// [`ChangeEvent`] per query with the batch's net result delta.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<UpdateReport, CqError> {
        for u in updates {
            self.validate(u)?;
        }
        let netted = net_effective(updates, |rel, t| self.db.relation(rel).contains(t));
        let start = self.clock();
        for fact in &netted.net {
            let changed = self.db.apply(fact);
            debug_assert!(changed, "net fact {fact:?} is a no-op");
        }
        let applied = netted.effective.len();
        if applied > 0 {
            // Each effective member advances the stream position,
            // exactly as if applied singly — so a snapshot's `seq()`
            // always counts effective updates, batched or not — but
            // subscribers still get one netted event, stamped with the
            // last member's number.
            let stamp = self.advance_seq(applied as u64);
            let first = stamp + 1 - applied as u64;
            let stamped = netted
                .effective
                .iter()
                .enumerate()
                .map(|(k, &i)| (updates[i].relation(), first + k as u64));
            self.publish_batch(&netted.net, stamped, applied, stamp, start);
        }
        Ok(UpdateReport {
            total: updates.len(),
            applied,
        })
    }

    /// The one path from a commit to the engines: a single apply, a
    /// batch, a transaction's end, and every shard's part of a
    /// multi-shard commit all end here. `net` holds the commit's net
    /// facts, already in `D`; `applied` counts the seq numbers the commit
    /// drew (one per sequentially effective member) and `stamp` is the
    /// last of them — the caller drew them. A commit that drew no number
    /// publishes nothing and leaves the session's position alone; one
    /// whose net is empty (its members cancelled, or a rolled-back
    /// transaction burning its numbers) moves the position and touches
    /// no engine.
    ///
    /// `stamped` pairs each committed member's relation with the seq it
    /// drew, in seq order; a rollback has none. Each pair becomes its
    /// relation's stamp, and a query whose relations it names takes the
    /// largest as its footprint generation — members that cancel, which
    /// no engine sees, included. That is one store per member, and the
    /// same stamps the log's records carry.
    ///
    /// Each concerned engine receives the net facts on its relations at
    /// once and extracts result deltas natively
    /// ([`DynamicEngine::apply_net_tracked`]) at O(δ) as a side product of
    /// its maintenance; no result is materialized here. Every query
    /// publishes at most one [`ChangeEvent`] and one epoch, both at
    /// `stamp`. `batch` is when an [`Session::apply_batch`] began: an
    /// instrumented session counts and times it as a batch.
    pub(crate) fn publish_batch(
        &mut self,
        net: &[Update],
        stamped: impl Iterator<Item = (RelId, u64)> + Clone,
        applied: usize,
        stamp: u64,
        batch: Option<Instant>,
    ) {
        if applied == 0 {
            return;
        }
        self.seq = stamp;
        for (rel, seq) in stamped.clone() {
            self.stamps[rel.index()] = seq;
        }
        let mut filtered: Vec<Update> = Vec::new();
        for reg in &mut self.regs {
            if let Some(generation) = stamped
                .clone()
                .filter(|&(rel, _)| reg.wants(rel))
                .map(|(_, seq)| seq)
                .max()
            {
                reg.footprint_gen = generation;
            }
            // Zero-copy when every net fact concerns this query;
            // otherwise route the relevant subset (possibly empty).
            let routed: &[Update] = if net.iter().all(|u| reg.wants(u.relation())) {
                net
            } else {
                filtered.clear();
                filtered.extend(net.iter().filter(|u| reg.wants(u.relation())).cloned());
                &filtered
            };
            if routed.is_empty() {
                continue;
            }
            reg.touch();
            if reg.wants_deltas() {
                let mut delta = ResultDelta::default();
                reg.engine.apply_net_tracked(routed, &mut delta);
                reg.publish(stamp, delta);
            } else {
                reg.engine.apply_net(routed);
            }
            // One epoch publication per commit, stamped with its final
            // stream position.
            reg.republish_on_demand(stamp);
        }
        if let Some(m) = self.metrics.as_ref() {
            m.updates.add(applied as u64);
            if let Some(t0) = batch {
                m.batches.inc();
                m.commit_latency_ns.record(t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Starts an all-or-nothing transaction over the whole session.
    ///
    /// An update applied through the guard changes the one `D` at once,
    /// so it reports whether it was effective, but no engine sees it
    /// (reads through [`Session::query`] are impossible while the guard
    /// borrows the session). [`SessionTransaction::commit`] nets the
    /// effective updates and commits them as one batch: each query
    /// publishes at most one [`ChangeEvent`], with the transaction's net
    /// result delta, and updates that cancel reach no engine. Dropping
    /// the guard uncommitted rolls back: a rollback undoes `D`; engines
    /// never saw it, and nothing is published.
    pub fn transaction(&mut self) -> SessionTransaction<'_> {
        SessionTransaction {
            session: self,
            log: Vec::new(),
            committed: false,
        }
    }

    /// Applies one update to `D` alone — a transaction member, or a
    /// shard's net fact of a multi-shard batch — which no engine sees
    /// until [`Session::publish_batch`]; returns `true` iff it was
    /// effective. The epoch cells of the queries it concerns announce the
    /// version that publication will bring, so a lock-free pin taken
    /// meanwhile requests the refresh the commit then satisfies.
    pub(crate) fn apply_to_db(&mut self, update: &Update) -> bool {
        if !self.db.apply(update) {
            return false;
        }
        for reg in self.regs.iter().filter(|r| r.wants(update.relation())) {
            reg.cell.set_live_version(reg.version + 1);
        }
        true
    }

    /// Undoes one effective transaction member on `D` (its inverse is
    /// effective by construction). The engines never saw it.
    pub(crate) fn undo(&mut self, update: &Update) {
        let undone = self.db.apply(&update.inverse());
        debug_assert!(undone, "rollback of an effective update must be effective");
    }

    /// Ends a transaction's announcements: every query's cell goes back
    /// to its engine's live version. [`Session::apply_to_db`] announced
    /// a version that only an engine the commit reaches will have;
    /// members that cancel, and a rollback's undo, reach none.
    pub(crate) fn withdraw_announcements(&mut self) {
        for reg in &mut self.regs {
            reg.cell.set_live_version(reg.version);
        }
    }

    /// Counts one finished transaction on an instrumented session — once,
    /// however many shards it locked.
    pub(crate) fn count_transaction(&self, rolled_back: bool) {
        if let Some(m) = self.metrics.as_ref() {
            m.transactions.inc();
            if rolled_back {
                m.rollbacks.inc();
            }
        }
    }

    /// Ends a transaction whose effective `log` this session's `D` holds.
    /// Either way the log draws its numbers and ends in one
    /// [`Session::publish_batch`]: a commit with its net facts
    /// ([`net_log`]) and every member stamping its relation, a rollback —
    /// `D` undone newest first — with neither, burning the numbers.
    fn end_transaction(&mut self, log: &[Update], commit: bool) {
        self.count_transaction(!commit);
        if log.is_empty() {
            return;
        }
        let (net, members) = if commit {
            (net_log(log).net, log)
        } else {
            for u in log.iter().rev() {
                self.undo(u);
            }
            (Vec::new(), &[][..])
        };
        self.withdraw_announcements();
        let stamp = self.advance_seq(log.len() as u64);
        let first = stamp + 1 - log.len() as u64;
        let stamped = members
            .iter()
            .enumerate()
            .map(|(k, u)| (u.relation(), first + k as u64));
        self.publish_batch(&net, stamped, log.len(), stamp, None);
    }
}

/// Nets a transaction's effective log with [`net_effective`]. Every
/// member changed `D` when it was applied, so a fact's presence before
/// the transaction is the opposite of its first member's kind.
pub(crate) fn net_log(log: &[Update]) -> Netted {
    let mut first: FxHashMap<(RelId, &[Const]), bool> = FxHashMap::default();
    for u in log {
        first
            .entry((u.relation(), u.tuple()))
            .or_insert(!u.is_insert());
    }
    let netted = net_effective(log, |rel, t| first[&(rel, t)]);
    debug_assert_eq!(
        netted.effective.len(),
        log.len(),
        "every member was effective"
    );
    netted
}

/// An all-or-nothing update batch over a [`Session`]
/// (see [`Session::transaction`]).
pub struct SessionTransaction<'a> {
    session: &'a mut Session,
    /// Effective updates in order: netted at commit, undone at rollback.
    log: Vec<Update>,
    committed: bool,
}

impl SessionTransaction<'_> {
    /// Validates and applies one update to `D`; returns `true` iff it
    /// was effective. A validation error leaves the transaction open —
    /// the caller decides whether to commit the prefix or drop the guard
    /// to roll it back.
    pub fn apply(&mut self, update: &Update) -> Result<bool, CqError> {
        self.session.validate(update)?;
        let changed = self.session.apply_to_db(update);
        if changed {
            self.log.push(update.clone());
        }
        Ok(changed)
    }

    /// Applies a sequence of updates, stopping at the first malformed
    /// one. On error the transaction is left open (drop it to roll back).
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<usize, CqError> {
        let mut applied = 0;
        for u in updates {
            if self.apply(u)? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Number of effective updates so far.
    pub fn effective_len(&self) -> usize {
        self.log.len()
    }

    /// Commits the effective updates as one batch — at most one net
    /// [`ChangeEvent`] per query whose result changed; returns how many
    /// updates were effective.
    pub fn commit(mut self) -> usize {
        self.committed = true;
        self.session.end_transaction(&self.log, true);
        self.log.len()
    }

    /// Rolls back everything applied so far (same as dropping the guard).
    /// Only `D` is undone; subscribers see nothing.
    pub fn rollback(self) {}
}

impl Drop for SessionTransaction<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.session.end_transaction(&self.log, false);
        }
    }
}

/// Read access to one registered query (see [`Session::query`]).
#[derive(Clone, Copy)]
pub struct QueryHandle<'a> {
    reg: &'a Registered,
    id: QueryId,
    /// The session's update sequence number when this handle was taken —
    /// stamped onto snapshots pinned through it.
    seq: u64,
    /// The query's footprint generation (the largest relation stamp over
    /// its relevant relations) when this handle was taken.
    generation: u64,
}

impl<'a> QueryHandle<'a> {
    /// The session-stable id of this query.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The name the query was registered under.
    pub fn name(&self) -> &'a str {
        &self.reg.name
    }

    /// The query, remapped onto the session schema.
    pub fn query(&self) -> &'a Query {
        &self.reg.query
    }

    /// The engine maintaining this query.
    pub fn kind(&self) -> EngineKind {
        self.reg.kind
    }

    /// Why the router picked [`QueryHandle::kind`].
    pub fn route_reason(&self) -> RouteReason {
        self.reg.reason
    }

    /// The dichotomy classifier's verdicts for this query.
    pub fn classification(&self) -> &'a Classification {
        &self.reg.classification
    }

    /// `|ϕ(D)|` — O(1) on the dynamic engine.
    pub fn count(&self) -> u64 {
        self.reg.engine.count()
    }

    /// `ϕ(D) ≠ ∅` — the Boolean answer.
    pub fn answer(&self) -> bool {
        self.reg.engine.answer()
    }

    /// Enumerates `ϕ(D)` without repetition — constant delay on the
    /// dynamic engine.
    pub fn enumerate(&self) -> Box<dyn Iterator<Item = Tuple> + 'a> {
        self.reg.engine.enumerate()
    }

    /// Collects and sorts the full result.
    pub fn results_sorted(&self) -> Vec<Tuple> {
        self.reg.engine.results_sorted()
    }

    /// Pins an immutable, `Send + Sync` [`QuerySnapshot`] of the current
    /// result. The snapshot keeps answering from the pinned state while
    /// any number of later updates commit — snapshot isolation for
    /// readers, without holding up the writer.
    ///
    /// Cost model (epoch publication): pinning loads the published epoch
    /// — an atomic load plus an `Arc` clone, O(1). If the epoch lags the
    /// engine state (first pin after an update), this locked path
    /// rebuilds and republishes it first: O(components) `Arc` clones on
    /// the q-hierarchical engine (the old `O(‖D‖)` structure clone is
    /// gone — the writer copy-on-writes instead), an `O(|ϕ(D)|)` view
    /// clone on delta-IVM.
    pub fn snapshot(&self) -> QuerySnapshot {
        let epoch = self.reg.pinned(self.seq, self.generation);
        QuerySnapshot {
            name: Arc::clone(&self.reg.name),
            kind: self.reg.kind,
            seq: self.seq,
            generation: self.generation,
            inner: Arc::clone(&epoch.snap),
        }
    }

    /// Acquires a [`PinReader`]: a cloneable, `Send + Sync` endpoint that
    /// pins epoch snapshots of this query in O(1) — a single atomic load
    /// — without ever taking a session lock again. Acquire once (under
    /// whatever lock guards the session), then pin from any number of
    /// reader threads forever.
    ///
    /// Acquisition freshens the epoch, as [`QueryHandle::snapshot`]
    /// does, so the reader's first pin is the current result on every
    /// face of the session, whatever was or was not read before it.
    pub fn pin_reader(&self) -> PinReader {
        self.reg.pinned(self.seq, self.generation);
        PinReader {
            name: Arc::clone(&self.reg.name),
            kind: self.reg.kind,
            cell: Arc::clone(&self.reg.cell),
        }
    }

    /// Opens a change feed: after every effective update or batch that
    /// changes this query's result, a [`ChangeEvent`] with the added and
    /// removed result tuples is delivered. A transaction is one batch:
    /// its event, netted, arrives at commit.
    ///
    /// Every subscriber receives the *same* `Arc<ChangeEvent>` per
    /// update: fan-out costs one queue push per subscriber, never a
    /// payload clone. This is [`QueryHandle::subscribe_bounded`] with no
    /// cap: a consumer that stops polling holds every event since.
    ///
    /// Cost model: both engines a session routes to, the q-hierarchical
    /// engine and delta-IVM, extract deltas natively
    /// ([`DynamicEngine::apply_net_tracked`]) and publish at `O(δ)` per
    /// update on top of their ordinary maintenance work, independent of
    /// `|ϕ(D)|`.
    pub fn subscribe(&self) -> Subscription {
        self.subscribe_bounded(usize::MAX).feed
    }

    /// Opens a **bounded** change feed holding at most `cap` pending
    /// events. When the consumer lags, the session coalesces: the
    /// pending events plus the new one are netted
    /// ([`cqu_dynamic::ResultDelta::normalize`]-style multiset
    /// cancellation) into a single exact catch-up event stamped with the
    /// newest seq. The writer never blocks and the feed never holds more
    /// than `cap` events — a stalled consumer costs O(cap) memory, not
    /// OOM (the failure mode of an unbounded [`QueryHandle::subscribe`]
    /// feed under a dead reader thread).
    ///
    /// [`BoundedSubscription::coalesced`] counts how often the policy
    /// fired; a netted catch-up event may have empty `added`/`removed`
    /// when the changes cancelled, which still advances the consumer's
    /// cursor to its `seq`.
    pub fn subscribe_bounded(&self, cap: usize) -> BoundedSubscription {
        let (queue, rx) = BoundedQueue::channel(cap);
        lock(&self.reg.feed).subs.push(queue);
        BoundedSubscription {
            feed: Subscription { rx },
        }
    }

    /// Enables (or resizes) **delta retention** on this query: the last
    /// `cap` published [`ChangeEvent`]s are kept in a seq-keyed ring so
    /// a consumer that detached at seq `N` can later resume with
    /// [`QueryHandle::subscribe_from`] / [`QueryHandle::replay_since`]
    /// and receive the netted delta `N → now` instead of a full
    /// snapshot. Retention makes the write path extract deltas even
    /// with zero live subscribers (the ring must not miss events);
    /// its memory is bounded by `cap` events.
    ///
    /// Growing `cap` keeps the retained events; shrinking evicts the
    /// oldest (raising the resume floor). The serving layer enables this
    /// on every query it exposes.
    pub fn retain_deltas(&self, cap: usize) {
        let mut feed = lock(&self.reg.feed);
        match feed.ring.as_mut() {
            Some(ring) => ring.resize(cap),
            // Coverage starts *now*: a cursor at the current seq needs
            // exactly the events published after this call, all of which
            // the ring will see.
            None => feed.ring = Some(SeqRing::new(cap, self.seq)),
        }
    }

    /// The retention ring's coverage floor — the smallest cursor
    /// [`QueryHandle::replay_since`] can serve — or `None` when
    /// retention is disabled.
    pub fn retention_floor(&self) -> Option<u64> {
        lock(&self.reg.feed).ring.as_ref().map(|r| r.floor())
    }

    /// Nets the retained delta stream after `from_seq` into at most one
    /// catch-up event — the replay half of cursor resumption, without
    /// opening a feed (the serving layer runs its own fan-out and calls
    /// this per reconnecting client).
    pub fn replay_since(&self, from_seq: u64) -> ReplayOutcome {
        match lock(&self.reg.feed).ring.as_ref() {
            Some(ring) => ring.replay_since(from_seq),
            None => ReplayOutcome::Unavailable { floor: None },
        }
    }

    /// Resumes a change feed from a cursor: the returned [`Resume`]
    /// either carries the netted catch-up delta `from_seq → now` (when
    /// the retention ring still covers `from_seq`) or a full
    /// [`QuerySnapshot`] to resync from, plus in both cases a live
    /// [`Subscription`] attached atomically with the replay — no event
    /// can fall between the catch-up and the feed. Events the feed
    /// re-delivers from the overlap window carry `seq` ≤ the resume
    /// cursor and must be skipped (they are already folded in).
    pub fn subscribe_from(&self, from_seq: u64) -> Resume {
        // Replay and attach need no joint lock: this handle's shared
        // session borrow excludes every writer, so no event can be
        // published between the two calls — the catch-up and the feed
        // are a consistent cut of the event stream.
        let replay = self.replay_since(from_seq);
        let feed = self.subscribe();
        match replay {
            ReplayOutcome::Covered { upto, event } => Resume::Resumed {
                cursor: upto,
                catch_up: event,
                feed,
            },
            ReplayOutcome::Unavailable { .. } => Resume::Resync {
                snapshot: self.snapshot(),
                feed,
            },
        }
    }

    /// Number of live subscriptions on this query (dropped feeds are
    /// pruned first).
    pub fn subscriber_count(&self) -> usize {
        lock(&self.reg.feed).prune()
    }
}

/// An immutable, `Send + Sync` view of one query's result, pinned at a
/// point of the update stream ([`QueryHandle::snapshot`]).
///
/// Cloning is O(1) (the pinned state is shared behind an `Arc`); ship
/// clones to as many reader threads as needed. On the dynamic engine a
/// snapshot still counts in O(1) and enumerates with constant delay.
#[derive(Clone)]
pub struct QuerySnapshot {
    name: Arc<str>,
    kind: EngineKind,
    seq: u64,
    generation: u64,
    inner: Arc<dyn ResultSnapshot>,
}

impl QuerySnapshot {
    /// The name of the query this snapshot was pinned from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine kind that produced the pinned state.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The session update sequence number at pin time: this snapshot
    /// reflects exactly the first `seq()` effective update commands the
    /// session committed — batch and transaction members count
    /// individually; a rolled-back transaction burns its updates'
    /// numbers without publishing any state (see [`Session::seq`]), so
    /// those positions never appear on a pin.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The query's **footprint generation** at pin time: the largest
    /// relation stamp over the relations the maintained query reads, or
    /// 0 if none was ever changed. A relation's stamp is the seq of the
    /// last committed effective update on it — the seq its log record
    /// carries — so the generation is a point of the same timeline as
    /// [`QuerySnapshot::seq`], never above it, and a recovered session,
    /// a replica and a sharded session all read the live session's
    /// value. A rolled-back transaction stamps nothing; a committed
    /// member stamps its relation even when a later member cancels it.
    /// Monotone, and it moves *only* when one of this query's relations
    /// changes — updates to foreign relations (other queries in the
    /// session, other shards of a [`crate::shard::ShardedSession`]) leave
    /// it untouched, so two snapshots of one query with equal stamps pin
    /// identical states even when the rest of the database churned
    /// between them.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether two snapshots share the same pinned state allocation —
    /// `true` exactly when both were pinned from the same published
    /// epoch (e.g. repeated pins with no intervening update). O(1).
    pub fn shares_state_with(&self, other: &QuerySnapshot) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Diagnostic: how many references (this snapshot, its clones, other
    /// snapshots of the same epoch, and the publication cell while the
    /// epoch is current) keep the pinned state alive. Dropping the last
    /// one frees the epoch — leak tests observe exactly that.
    pub fn state_refs(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// `|ϕ(D)|` at pin time. Inlined across crates, so a caller's count
    /// is one dynamic call into the engine snapshot, not two hops.
    #[inline]
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// `ϕ(D) ≠ ∅` at pin time.
    pub fn answer(&self) -> bool {
        self.inner.is_nonempty()
    }

    /// Enumerates the pinned result without repetition.
    pub fn enumerate(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        self.inner.enumerate()
    }

    /// Collects and sorts the pinned result.
    pub fn results_sorted(&self) -> Vec<Tuple> {
        self.inner.results_sorted()
    }
}

impl std::fmt::Debug for QuerySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySnapshot")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("seq", &self.seq)
            .field("generation", &self.generation)
            .field("count", &self.count())
            .finish()
    }
}

/// A lock-free pin endpoint for one registered query (see
/// [`QueryHandle::pin_reader`] / [`Reads::reader`]).
///
/// `PinReader` is the serving-path complement of [`QueryHandle`]: where a
/// handle borrows the session (and, through [`SharedSession`], holds its
/// read lock), a `PinReader` owns a reference to the query's epoch
/// publication cell and nothing else. [`PinReader::pin`] is a single
/// atomic load — it never takes the session lock, so pins complete even
/// while a writer (or an open transaction) holds it exclusively, and it
/// never blocks the writer in return.
///
/// **Freshness.** A pin returns the most recently *published* epoch.
/// Acquiring the reader publishes the current one, so the first pin is
/// exact. From then on engines with cheap snapshots (the q-hierarchical
/// engine) republish on demand after every update a pin observed as
/// missing, so the lag is at most one update behind the writer.
/// Fallback engines with `Ω(|view|)` snapshots (delta-IVM) republish
/// only under the lock ([`QueryHandle::snapshot`], or acquiring another
/// reader) — a held reader's pin may then lag until someone does.
/// Every pin, however stale, is internally exact: its result *is*
/// `timeline[pin.seq()]`.
#[derive(Clone)]
pub struct PinReader {
    name: Arc<str>,
    kind: EngineKind,
    cell: Arc<EpochCell<Epoch>>,
}

impl PinReader {
    /// The name of the query this reader pins.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine kind maintaining the query.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Pins the published epoch: one atomic load plus an `Arc` clone,
    /// O(1) in the database, the result, and the number of concurrent
    /// readers. Never touches any lock; never waits for the writer.
    ///
    /// If the epoch lags the live engine state, a refresh request is
    /// raised so the writer (or the next locked pin) republishes — the
    /// pin itself still returns immediately with the current epoch.
    pub fn pin(&self) -> QuerySnapshot {
        let epoch = self.cell.load();
        if epoch.version != self.cell.live_version() {
            self.cell.request_refresh();
        }
        QuerySnapshot {
            name: Arc::clone(&self.name),
            kind: self.kind,
            seq: epoch.seq,
            generation: epoch.generation,
            inner: Arc::clone(&epoch.snap),
        }
    }
}

impl std::fmt::Debug for PinReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinReader")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// A cloneable, thread-safe handle to a [`Session`]: writers serialize
/// through one writer lock, readers pin [`QuerySnapshot`]s and get out
/// of the writer's way immediately.
///
/// This is the one-shard face of the concurrent session core
/// ([`ShardedSession`]): the wrapped session is that core's only shard,
/// so the handle owns no lock of its own, and — one shard can never need
/// fusing — registration stays open for the handle's whole life.
///
/// ```
/// use cq_updates::prelude::*;
/// use std::thread;
///
/// let mut session = Session::new();
/// session.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
/// let e = session.relation("E").unwrap();
/// let t = session.relation("T").unwrap();
/// let shared = SharedSession::new(session);
///
/// let writer = {
///     let shared = shared.clone();
///     thread::spawn(move || {
///         shared.apply(&Update::Insert(e, vec![1, 2])).unwrap();
///         shared.apply(&Update::Insert(t, vec![2])).unwrap();
///     })
/// };
/// writer.join().unwrap();
/// let snap = shared.snapshot("pairs").unwrap();
/// assert_eq!(snap.count(), 1);
/// ```
#[derive(Clone)]
pub struct SharedSession {
    pub(crate) core: ShardedSession,
}

impl SharedSession {
    /// Wraps a session — fresh or preloaded — for shared multi-threaded
    /// use.
    pub fn new(session: Session) -> SharedSession {
        SharedSession {
            core: ShardedSession::open_one_shard(session),
        }
    }

    /// Runs a closure with shared read access. Prefer
    /// [`Reads::snapshot`] for anything longer than a couple of
    /// O(1) reads — snapshots release the lock immediately.
    ///
    /// Errors with [`CqError::Poisoned`] if a writer panicked mid-update
    /// (engine state can no longer be trusted).
    pub fn read<R>(&self, f: impl FnOnce(&Session) -> R) -> Result<R, CqError> {
        self.core.read_at(0, f)
    }

    /// Runs a closure with exclusive write access (the serialized writer
    /// path). Errors with [`CqError::Poisoned`] if a previous writer
    /// panicked mid-update.
    pub fn write<R>(&self, f: impl FnOnce(&mut Session) -> R) -> Result<R, CqError> {
        self.core.write_at(0, f)
    }

    /// Parses and registers a query, classifier-routed
    /// (see [`Session::register`]).
    pub fn register(&self, name: &str, src: &str) -> Result<QueryId, CqError> {
        self.write(|s| s.register(name, src))?
    }

    /// Parses and registers a query with an explicit engine choice
    /// (see [`Session::register_with`]).
    pub fn register_with(
        &self,
        name: &str,
        src: &str,
        choice: EngineChoice,
    ) -> Result<QueryId, CqError> {
        self.write(|s| s.register_with(name, src, choice))?
    }

    /// Applies one update through the serialized writer path
    /// (see [`Session::apply`]).
    pub fn apply(&self, update: &Update) -> Result<bool, CqError> {
        self.core.apply(update)
    }

    /// Applies a batch through the serialized writer path
    /// (see [`Session::apply_batch`]).
    pub fn apply_batch(&self, updates: &[Update]) -> Result<UpdateReport, CqError> {
        self.core.apply_batch(updates)
    }

    /// Runs `f` inside an all-or-nothing transaction: committed when `f`
    /// returns `Ok`, rolled back (and the error forwarded) when it
    /// returns `Err`. See [`ShardedSession::transaction`].
    pub fn transaction<R>(
        &self,
        f: impl FnOnce(&mut ShardedTransaction<'_>) -> Result<R, CqError>,
    ) -> Result<R, CqError> {
        self.core.transaction(f)
    }

    /// Recovers the owned [`Session`] if this is the last handle.
    ///
    /// Returns `Err(self)` while other handles are alive — and also when
    /// the lock is poisoned: a panicked writer may have left engines
    /// half-updated, so the suspect state stays quarantined behind the
    /// handle (whose every access keeps reporting [`CqError::Poisoned`])
    /// instead of being laundered into an apparently healthy `Session`.
    pub fn try_unwrap(self) -> Result<Session, SharedSession> {
        self.core
            .into_one_shard()
            .map_err(|core| SharedSession { core })
    }
}

impl Reads for SharedSession {
    fn core(&self) -> Result<Cow<'_, ShardedSession>, CqError> {
        Ok(Cow::Borrowed(&self.core))
    }
}

impl std::fmt::Debug for SharedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSession")
            .field("seq", &self.core.seq())
            .finish_non_exhaustive()
    }
}

/// Compile-time thread-safety contract of the session layer (the
/// tentpole guarantee: sessions cross threads, snapshots and feeds fan
/// out to reader threads).
#[allow(dead_code)]
fn _assert_thread_safe() {
    fn send_sync<T: Send + Sync>() {}
    fn send<T: Send>() {}
    send_sync::<Session>();
    send_sync::<SharedSession>();
    send_sync::<QuerySnapshot>();
    send_sync::<PinReader>();
    send_sync::<ChangeEvent>();
    send::<Subscription>();
    send::<BoundedSubscription>();
}

/// Checks one update against a schema: the relation id must exist and
/// the tuple width must match its arity. Shared by [`Session`] and the
/// shard router (which must validate *before* it can even pick a shard).
pub(crate) fn validate_update(schema: &Schema, update: &Update) -> Result<(), CqError> {
    let rel = update.relation();
    if rel.index() >= schema.len() {
        return Err(CqError::UnknownRelationId(rel.0));
    }
    let expected = schema.arity(rel);
    if update.tuple().len() != expected {
        return Err(CqError::Arity {
            relation: schema.name(rel).to_string(),
            expected,
            found: update.tuple().len(),
        });
    }
    Ok(())
}

/// The admission pre-check for the chosen engine: the dynamic engine
/// requires q-hierarchy (Definition 3.1); delta-IVM admits every CQ.
/// Checked *before* the session commits any state for a registration.
fn admission_violation(kind: EngineKind, maintained: &Query) -> Option<Violation> {
    match kind {
        EngineKind::QHierarchical => q_hierarchical_violation(maintained),
        EngineKind::DeltaIvm => None,
    }
}

/// The classifier-driven routing decision.
fn route(
    query: &Query,
    classification: &Classification,
    choice: EngineChoice,
) -> (EngineKind, RouteReason) {
    match choice {
        EngineChoice::Forced(kind) => (kind, RouteReason::Forced),
        EngineChoice::Auto => match &classification.enumeration {
            Verdict::Tractable { .. } => {
                if classification.core.atoms().len() == query.atoms().len() {
                    (EngineKind::QHierarchical, RouteReason::QHierarchical)
                } else {
                    // Chandra–Merlin: core(ϕ)(D) = ϕ(D); maintain the core.
                    (EngineKind::QHierarchical, RouteReason::QHierarchicalCore)
                }
            }
            // Hard (Theorems 3.3–3.5) or open: delta-IVM keeps requests
            // O(1) and pays in the updates, the trade the ROADMAP's
            // read-heavy service shape wants.
            _ => (EngineKind::DeltaIvm, RouteReason::Fallback),
        },
    }
}
