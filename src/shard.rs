//! The concurrent session core: footprint-partitioned parallel commits.
//!
//! [`ShardedSession`] is the one thread-safe front door over
//! [`Session`]s — k writer locks, a router, one shared seq counter.
//! [`crate::SharedSession`] is its one-shard face (an open query set
//! over a single writer lock), and the durable, replica and serving
//! layers all hold this core, whatever the shard count.
//!
//! The paper's Theorem 3.2 makes every *single* update O(1) on a
//! q-hierarchical query — but a [`Session`] still funnels all updates
//! through one serialized writer, so aggregate write throughput is
//! bounded by one core no matter how cheap each update is.
//! [`ShardedSession`] removes that ceiling for workloads whose queries do
//! not all read the same relations: registered queries are partitioned
//! into **shards by relation footprint** — a union-find over each query's
//! relation set, so two queries share a shard iff their footprints are
//! (transitively) connected — and each shard owns a full private
//! [`Session`] (writer lock, engines, subscriber lists, epoch cells)
//! behind its own `RwLock`. Updates route to exactly the shard owning
//! their relation: commits against different shards proceed **in
//! parallel on different threads**, while all of a query's relations
//! always live in its own shard, so no query ever needs cross-shard
//! coordination to stay exact.
//!
//! # One global timeline
//!
//! Every effective update still draws its sequence number from one
//! shared atomic counter (a single `fetch_add` — the only cross-shard
//! touch on the write path), so all shards stamp their epochs, snapshots,
//! and change events onto a single totally-ordered global `seq` timeline:
//! a pin of any query, from any shard, is exactly the brute-force result
//! of its stamped global prefix. Epoch *generation* stamps are
//! footprint-granular: every epoch carries the max per-relation storage
//! counter over its own query's relations
//! ([`cqu_storage::Database::relation_generation`]), which moves only
//! when one of those relations changes — so publication never touches
//! shared state beyond that one counter, and a query's generation stamp
//! is blind to foreign traffic even from a co-located sibling query.
//!
//! # Locking discipline
//!
//! * Single-shard writes ([`ShardedSession::apply`], and
//!   [`ShardedSession::apply_batch`] when the batch touches one shard)
//!   take only that shard's writer lock.
//! * Multi-shard batches and transactions take the locks of every
//!   touched shard in **canonical order** (ascending shard index), so
//!   concurrent multi-shard writers cannot deadlock.
//! * A transaction is a batch. Its updates change only the locked
//!   shards' databases, in submission order, into one effective log;
//!   at commit the log is netted per shard and, exactly like a batch's
//!   tail, draws one seq range and publishes every shard at its head,
//!   while *all* footprint locks are still held — a locked reader can
//!   never observe shard A committed but shard B still mid-flight. A
//!   rollback undoes each shard's database and burns the range once;
//!   no engine ever saw it.
//! * Readers are untouched by all of this: [`ShardedSession::reader`]
//!   hands out the same lock-free [`PinReader`]s as a single session,
//!   and a pin remains one atomic load regardless of the shard count.
//!   Acquiring one takes the shard's read lock once, and a writer
//!   committing back to back lets such a waiting reader in before its
//!   next commit, so the acquisition never waits out a burst.
//!
//! ```
//! use cq_updates::prelude::*;
//!
//! let mut b = ShardedSessionBuilder::new();
//! b.register("feed", "F(u, p) :- Follows(u, v), Posts(v, p).").unwrap();
//! b.register("dms", "D(u, m) :- Inbox(u, m), Active(u).").unwrap();
//! let session = b.build().unwrap();
//! // Disjoint footprints ⇒ two shards: feed and dm traffic commit in
//! // parallel, each behind its own writer lock.
//! assert_eq!(session.shard_count(), 2);
//!
//! let follows = session.relation("Follows").unwrap();
//! let posts = session.relation("Posts").unwrap();
//! session.apply(&Update::Insert(follows, vec![1, 2])).unwrap();
//! session.apply(&Update::Insert(posts, vec![2, 77])).unwrap();
//! assert_eq!(session.count("feed").unwrap(), 1);
//! assert_eq!(session.count("dms").unwrap(), 0);
//! ```

use crate::error::CqError;
use crate::session::{
    net_log, validate_update, BoundedSubscription, EngineChoice, PinReader, QueryId, QuerySnapshot,
    ReplayOutcome, Resume, Session, Subscription,
};
use cqu_common::{FxHashMap, UnionFind};
use cqu_dynamic::{net_effective, Netted, UpdateReport};
use cqu_obs::{Counter, Histogram, Registry};
use cqu_query::{parse_query, Query, RelId, Schema};
use cqu_storage::Update;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Instant;

/// Collects query registrations, then partitions them into independent
/// write shards ([`ShardedSessionBuilder::build`]).
///
/// Shard planning is a whole-set decision — a late query can bridge two
/// previously independent footprints and merge their shards — so the
/// sharded front door registers everything up front and seals the plan
/// at build time. (A [`Session`] remains the right tool for dynamic
/// registration; a [`ShardedSession`] is the serving-scale deployment of
/// a known query set.)
#[derive(Debug, Default)]
pub struct ShardedSessionBuilder {
    schema: Schema,
    regs: Vec<(String, Query, EngineChoice)>,
    registry: Option<Arc<Registry>>,
}

impl ShardedSessionBuilder {
    /// Starts an empty builder (relations are interned by the queries
    /// that mention them).
    pub fn new() -> ShardedSessionBuilder {
        ShardedSessionBuilder::default()
    }

    /// Starts a builder over a pre-declared schema. Relations no query
    /// ends up referencing become singleton shards of their own: updates
    /// to them commit (and count on the global timeline) without ever
    /// contending with query-bearing shards.
    pub fn open(schema: Schema) -> ShardedSessionBuilder {
        ShardedSessionBuilder {
            schema,
            regs: Vec::new(),
            registry: None,
        }
    }

    /// Shares one metrics registry across every shard session (see
    /// [`Session::share_registry`]) and adds the shard layer's own
    /// series: per-shard commit counters
    /// (`session_shard_commits_total{shard="i"}`) and a writer-lock
    /// acquisition-wait histogram (`session_shard_lock_wait_ns`) that
    /// makes cross-writer contention visible at runtime.
    pub fn share_registry(&mut self, registry: Arc<Registry>) -> &mut Self {
        self.registry = Some(registry);
        self
    }

    /// Parses and registers a query under `name`, classifier-routed.
    pub fn register(&mut self, name: &str, src: &str) -> Result<&mut Self, CqError> {
        self.register_with(name, src, EngineChoice::Auto)
    }

    /// Parses and registers a query under `name` with an explicit engine
    /// choice.
    pub fn register_with(
        &mut self,
        name: &str,
        src: &str,
        choice: EngineChoice,
    ) -> Result<&mut Self, CqError> {
        let q = parse_query(src)?;
        self.register_query(name, &q, choice)
    }

    /// Registers an already-built query under `name`.
    ///
    /// The query's relations are interned into the builder schema (arity
    /// clashes error, leaving the builder untouched). Engine admission is
    /// checked at [`ShardedSessionBuilder::build`], exactly as a
    /// [`Session`] checks it at registration.
    pub fn register_query(
        &mut self,
        name: &str,
        query: &Query,
        choice: EngineChoice,
    ) -> Result<&mut Self, CqError> {
        if self.regs.iter().any(|(n, _, _)| n == name) {
            return Err(CqError::DuplicateQuery(name.to_string()));
        }
        // Stage the schema growth so a failed intern leaves no trace.
        let mut staged = self.schema.clone();
        let theirs = query.schema();
        for rel in theirs.relations() {
            staged.intern(theirs.name(rel), theirs.arity(rel))?;
        }
        self.schema = staged;
        self.regs.push((name.to_string(), query.clone(), choice));
        Ok(self)
    }

    /// The shard partition this query set induces, without building the
    /// sessions — for capacity planning and tests.
    pub fn plan(&self) -> ShardPlan {
        partition(&self.schema, &self.regs)
    }

    /// Partitions the registered queries into shards and builds the
    /// sharded session: one [`Session`] per footprint component, all
    /// sharing one global sequence counter. Fails (like
    /// [`Session::register_query`] would) if a forced engine cannot
    /// admit its query.
    pub fn build(self) -> Result<ShardedSession, CqError> {
        let plan = partition(&self.schema, &self.regs);
        let seq = Arc::new(AtomicU64::new(0));
        let mut sessions: Vec<Session> = plan
            .shards
            .iter()
            .map(|_| {
                let mut s = Session::open(self.schema.clone());
                s.share_seq(Arc::clone(&seq));
                if let Some(registry) = &self.registry {
                    s.share_registry(Arc::clone(registry));
                }
                s
            })
            .collect();
        let mut query_shard = FxHashMap::default();
        for (i, (name, query, choice)) in self.regs.iter().enumerate() {
            let sid = plan.reg_shard[i];
            sessions[sid].register_query(name, query, *choice)?;
            query_shard.insert(name.clone(), sid);
        }
        let metrics = self.registry.map(|registry| ShardMetrics {
            lock_wait_ns: registry.histogram("session_shard_lock_wait_ns"),
            shard_commits: (0..plan.shards.len())
                .map(|i| {
                    registry
                        .counter_with("session_shard_commits_total", &[("shard", &i.to_string())])
                })
                .collect(),
        });
        let shards: Vec<Shard> = sessions.into_iter().map(Shard::new).collect();
        Ok(ShardedSession {
            inner: Arc::new(Inner {
                schema: self.schema,
                shards,
                query_shard,
                seq,
                plan,
                open: false,
                metrics,
            }),
        })
    }
}

/// How a query set partitions into write shards
/// (see [`ShardedSessionBuilder::plan`]).
#[derive(Debug, Clone, Default)]
pub struct ShardPlan {
    shards: Vec<ShardSpec>,
    /// Relation index → owning shard index.
    rel_shard: Vec<usize>,
    /// Registration index → owning shard index (same order as the
    /// builder's registrations), so building stays linear in the query
    /// count.
    reg_shard: Vec<usize>,
}

/// One planned shard: the queries it maintains and the relations it
/// owns (a connected component of the query-footprint graph).
#[derive(Debug, Clone, Default)]
pub struct ShardSpec {
    queries: Vec<String>,
    relations: Vec<RelId>,
}

impl ShardSpec {
    /// Names of the queries this shard maintains, in registration order.
    pub fn queries(&self) -> &[String] {
        &self.queries
    }

    /// The relations this shard owns; updates to them route here.
    pub fn relations(&self) -> &[RelId] {
        &self.relations
    }
}

impl ShardPlan {
    /// Number of shards (independent writer locks).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The planned shards, in relation-id order of their first relation.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// The shard owning `rel`, if it is in the plan's schema.
    pub fn shard_of_relation(&self, rel: RelId) -> Option<usize> {
        self.rel_shard.get(rel.index()).copied()
    }

    /// The shard maintaining the query registered as `name`.
    pub fn shard_of_query(&self, name: &str) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.queries.iter().any(|q| q == name))
    }
}

/// Union-find over relations: each query unions its footprint, shards
/// are the resulting components (plus singleton shards for relations no
/// query references). Deterministic: shards are numbered by the smallest
/// relation id they contain, queries stay in registration order.
fn partition(schema: &Schema, regs: &[(String, Query, EngineChoice)]) -> ShardPlan {
    let rel_ids: Vec<RelId> = schema.relations().collect();
    let mut uf = UnionFind::new(rel_ids.len());
    // Footprints in builder-schema ids: the *full* query footprint (not
    // the homomorphic core's) — a superset keeps routing conservative
    // and is always correct, since the maintained core's atoms are a
    // subset of the query's.
    let footprints: Vec<Vec<usize>> = regs
        .iter()
        .map(|(_, q, _)| {
            let mut rels: Vec<usize> = q
                .atoms()
                .iter()
                .map(|a| {
                    schema
                        .relation(q.schema().name(a.relation))
                        .expect("interned at registration")
                        .index()
                })
                .collect();
            rels.sort_unstable();
            rels.dedup();
            rels
        })
        .collect();
    for fp in &footprints {
        for w in fp.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    let mut root_shard: FxHashMap<usize, usize> = FxHashMap::default();
    let mut shards: Vec<ShardSpec> = Vec::new();
    let mut rel_shard = vec![0usize; rel_ids.len()];
    for (idx, &rel) in rel_ids.iter().enumerate() {
        let root = uf.find(idx);
        let sid = *root_shard.entry(root).or_insert_with(|| {
            shards.push(ShardSpec::default());
            shards.len() - 1
        });
        rel_shard[idx] = sid;
        shards[sid].relations.push(rel);
    }
    let mut reg_shard = Vec::with_capacity(regs.len());
    for (i, (name, _, _)) in regs.iter().enumerate() {
        // Guaranteed non-empty: `QueryBuilder::build` rejects empty
        // bodies (`QueryError::EmptyBody`), so every query has an atom.
        let anchor = footprints[i][0];
        let sid = rel_shard[anchor];
        shards[sid].queries.push(name.clone());
        reg_shard.push(sid);
    }
    ShardPlan {
        shards,
        rel_shard,
        reg_shard,
    }
}

/// The shard router's own registry handles: per-shard commit counters
/// and the writer-lock wait histogram, resolved once at build.
struct ShardMetrics {
    lock_wait_ns: Arc<Histogram>,
    /// `session_shard_commits_total{shard="i"}`, indexed by shard id.
    shard_commits: Vec<Arc<Counter>>,
}

/// Yields a writer spends at most letting announced readers in
/// ([`Shard::write`]): a bound, so a reader descheduled between
/// announcing itself and taking the lock delays a writer a little, never
/// indefinitely.
const READER_HANDOFF_YIELDS: usize = 1024;

/// One shard: its session behind a writer lock.
struct Shard {
    lock: RwLock<Session>,
    /// Readers acquiring a [`PinReader`] that the lock turned away because
    /// a writer held it. `std`'s `RwLock` hands a released lock to
    /// whichever thread asks first, and a writer committing back to back
    /// asks again within microseconds, before a woken reader is even
    /// scheduled: without a handoff, a reader could wait out every commit
    /// of a burst before it gets its lock-free endpoint.
    announced_readers: AtomicUsize,
}

impl Shard {
    fn new(session: Session) -> Self {
        Shard {
            lock: RwLock::new(session),
            announced_readers: AtomicUsize::new(0),
        }
    }

    /// Read-locks the shard for a reader that must not wait out a burst
    /// of commits: while a writer holds the lock, the reader announces
    /// itself, and the next writer lets it in first.
    fn read_announced(&self) -> LockResult<RwLockReadGuard<'_, Session>> {
        match self.lock.try_read() {
            Ok(guard) => Ok(guard),
            Err(TryLockError::Poisoned(e)) => Err(e),
            Err(TryLockError::WouldBlock) => {
                self.announced_readers.fetch_add(1, Ordering::AcqRel);
                let guard = self.lock.read();
                self.announced_readers.fetch_sub(1, Ordering::AcqRel);
                guard
            }
        }
    }

    /// Write-locks the shard after letting announced readers take their
    /// turn.
    fn write(&self) -> LockResult<RwLockWriteGuard<'_, Session>> {
        for _ in 0..READER_HANDOFF_YIELDS {
            if self.announced_readers.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
        }
        self.lock.write()
    }
}

struct Inner {
    /// The sealed plan's union schema, which the router validates
    /// against (empty in the open form: shard 0's session owns it).
    schema: Schema,
    /// One shard per footprint component: a full private session behind
    /// its own writer lock.
    shards: Vec<Shard>,
    query_shard: FxHashMap<String, usize>,
    /// The global sequence counter every shard session draws from.
    seq: Arc<AtomicU64>,
    plan: ShardPlan,
    /// The open one-shard form ([`ShardedSession::open_one_shard`]):
    /// everything goes to shard 0, whose own session validates.
    open: bool,
    /// Router-level instrumentation
    /// ([`ShardedSessionBuilder::share_registry`]).
    metrics: Option<ShardMetrics>,
}

/// A cloneable, thread-safe, footprint-sharded session: independent
/// relations commit in parallel, every query stays exact on one global
/// timeline. See the [module docs](self) for the design and
/// [`ShardedSessionBuilder`] for construction.
#[derive(Clone)]
pub struct ShardedSession {
    inner: Arc<Inner>,
}

impl ShardedSession {
    /// Starts a builder (synonym for [`ShardedSessionBuilder::new`]).
    pub fn builder() -> ShardedSessionBuilder {
        ShardedSessionBuilder::new()
    }

    /// The open one-shard form behind [`crate::SharedSession`]: `session`
    /// (fresh or preloaded) becomes shard 0 of a core with no sealed
    /// plan — one shard can never need fusing, so its query set stays
    /// open. Crate-private because the plan accessors (`schema`, `plan`,
    /// `shard_of_relation`, `transaction_over`) describe sealed plans
    /// only; everything that routes an update or names a query works.
    pub(crate) fn open_one_shard(mut session: Session) -> ShardedSession {
        let seq = Arc::new(AtomicU64::new(0));
        session.share_seq(Arc::clone(&seq));
        ShardedSession {
            inner: Arc::new(Inner {
                schema: Schema::new(),
                shards: vec![Shard::new(session)],
                query_shard: FxHashMap::default(),
                seq,
                plan: ShardPlan::default(),
                open: true,
                metrics: None,
            }),
        }
    }

    /// Whether the query set is still open (the one-shard form).
    pub(crate) fn is_open(&self) -> bool {
        self.inner.open
    }

    /// Takes the session back out of the open one-shard form, if this
    /// is the last handle and no writer poisoned the shard.
    pub(crate) fn into_one_shard(self) -> Result<Session, ShardedSession> {
        debug_assert!(self.inner.open);
        match Arc::try_unwrap(self.inner) {
            Ok(mut inner) if !inner.shards[0].lock.is_poisoned() => Ok(inner
                .shards
                .pop()
                .and_then(|shard| shard.lock.into_inner().ok())
                .expect("exclusively owned and checked unpoisoned")),
            Ok(inner) => Err(ShardedSession {
                inner: Arc::new(inner),
            }),
            Err(inner) => Err(ShardedSession { inner }),
        }
    }

    /// The union schema of all registered queries.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// The shard plan this session was built from.
    pub fn plan(&self) -> &ShardPlan {
        &self.inner.plan
    }

    /// Number of shards (independent writer locks).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard maintaining the query registered as `name`.
    pub fn shard_of_query(&self, name: &str) -> Result<usize, CqError> {
        if self.inner.open {
            // Shard 0's session knows which names exist.
            return Ok(0);
        }
        self.inner
            .query_shard
            .get(name)
            .copied()
            .ok_or_else(|| CqError::UnknownQuery(name.to_string()))
    }

    /// The shard owning `rel` (where updates to it commit).
    pub fn shard_of_relation(&self, rel: RelId) -> Result<usize, CqError> {
        self.inner
            .plan
            .shard_of_relation(rel)
            .ok_or(CqError::UnknownRelationId(rel.0))
    }

    /// Resolves a relation by name.
    pub fn relation(&self, name: &str) -> Result<RelId, CqError> {
        if self.inner.open {
            return self.read_at(0, |s| s.relation(name))?;
        }
        self.inner
            .schema
            .relation(name)
            .ok_or_else(|| CqError::UnknownRelation(name.to_string()))
    }

    /// The global sequence counter: total effective update commands
    /// drawn across all shards so far. Monotone; each effective update
    /// (on any shard) owns exactly one number.
    pub fn seq(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// The shared metrics registry, when one is attached
    /// ([`ShardedSessionBuilder::share_registry`]; every shard session
    /// carries the same one).
    pub fn registry(&self) -> Option<Arc<Registry>> {
        let shard = self.inner.shards.first()?.lock.read().ok()?;
        shard.registry().cloned()
    }

    /// Total effective changes committed across all shards, summed from
    /// the shards' own storage-level generation counters — no global
    /// stamp is maintained anywhere; each shard's
    /// [`cqu_storage::Database::generation`] counts only its own traffic
    /// (per relation, see [`ShardedSession::relation_generation`]).
    ///
    /// All shard read locks are held together (acquired in canonical
    /// order) while summing, so the total is one consistent cut: it can
    /// never count a cross-shard transaction's effects on one shard but
    /// not another.
    pub fn generation(&self) -> Result<u64, CqError> {
        self.read_all(|guards| guards.iter().map(|g| g.database().generation()).sum())
    }

    /// The shard-local generation stamp of `rel`'s last effective change
    /// (see [`cqu_storage::Database::relation_generation`]): moves only
    /// when `rel` itself changes, wherever else traffic lands.
    pub fn relation_generation(&self, rel: RelId) -> Result<u64, CqError> {
        let sid = self.shard_of_relation(rel)?;
        self.read_at(sid, |s| s.database().relation_generation(rel))
    }

    /// The shard `rel`'s updates commit on. Unchecked: sealed plans
    /// validate the update against the union schema first; the open
    /// form has only shard 0.
    pub(crate) fn route(&self, rel: RelId) -> usize {
        if self.inner.open {
            0
        } else {
            self.inner.plan.rel_shard[rel.index()]
        }
    }

    /// Where `rel`'s shard sits among the locked, ascending `shards`.
    fn slot(&self, shards: &[usize], rel: RelId) -> usize {
        shards.binary_search(&self.route(rel)).expect("locked")
    }

    /// Takes shard `sid`'s writer lock, recording the acquisition wait.
    fn write_shard(&self, sid: usize) -> Result<RwLockWriteGuard<'_, Session>, CqError> {
        let metrics = self.inner.metrics.as_ref();
        let lock_start = metrics.map(|_| Instant::now());
        let guard = self.inner.shards[sid]
            .write()
            .map_err(|_| CqError::Poisoned)?;
        if let (Some(m), Some(t0)) = (metrics, lock_start) {
            m.lock_wait_ns.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(guard)
    }

    /// Applies one update through the owning shard's writer lock;
    /// returns `true` iff the database changed. Concurrent callers
    /// touching *different* shards commit fully in parallel — this is
    /// the subsystem's whole point; callers on the same shard serialize.
    pub fn apply(&self, update: &Update) -> Result<bool, CqError> {
        if self.inner.open {
            return self.write_shard(0)?.apply(update);
        }
        validate_update(&self.inner.schema, update)?;
        let sid = self.route(update.relation());
        // Pre-validated: every shard session carries the same union
        // schema this router just validated against, so the delegated
        // session must not pay for validation again.
        let changed = self.write_shard(sid)?.apply_prevalidated(update);
        if changed {
            if let Some(m) = self.inner.metrics.as_ref() {
                m.shard_commits[sid].inc();
            }
        }
        Ok(changed)
    }

    /// Applies a batch, equivalent to applying its members in order.
    /// All-or-nothing under validation: nothing is applied if any update
    /// is malformed. The batch locks every shard it touches in canonical
    /// order and is netted once, each tuple against the shard owning it;
    /// since every query's footprint lives inside a single shard, every
    /// query observes exactly the net effect of the updates that concern
    /// it. The batch draws one contiguous seq range and every shard it
    /// changed is stamped with the range's last number.
    pub fn apply_batch(&self, updates: &[Update]) -> Result<UpdateReport, CqError> {
        if self.inner.open {
            return self.write_shard(0)?.apply_batch(updates);
        }
        for u in updates {
            validate_update(&self.inner.schema, u)?;
        }
        self.commit_batch(updates, None)
    }

    /// The batch path after validation: `updates` netted once, by the
    /// caller (the durable layer, under read guards on every shard that
    /// its WAL lock has kept current since) or here, under the touched
    /// shards' writer locks. Every shard applies its net facts to its
    /// database, then [`ShardedSession::publish_at_head`] commits them.
    pub(crate) fn commit_batch(
        &self,
        updates: &[Update],
        netted: Option<Netted>,
    ) -> Result<UpdateReport, CqError> {
        let mut touched: Vec<usize> = updates.iter().map(|u| self.route(u.relation())).collect();
        touched.sort_unstable();
        touched.dedup();
        let slot = |rel: RelId| self.slot(&touched, rel);
        let mut guards = self.lock_shards(&touched)?;
        let netted = netted.unwrap_or_else(|| {
            net_effective(updates, |rel, t| {
                guards[slot(rel)].database().relation(rel).contains(t)
            })
        });
        let start = guards.first().and_then(|g| g.clock());
        for fact in &netted.net {
            let changed = guards[slot(fact.relation())].apply_to_db(fact);
            debug_assert!(changed, "net fact {fact:?} is a no-op");
        }
        let drawn = netted.effective.iter().map(|&i| updates[i].relation());
        let applied = self.publish_at_head(&mut guards, &touched, drawn, netted.net, start);
        Ok(UpdateReport {
            total: updates.len(),
            applied,
        })
    }

    /// The tail every multi-shard commit shares — a batch, a
    /// transaction's commit and its rollback. `guards` hold the locked
    /// `shards` (ascending), whose databases already hold the commit;
    /// `drawn` yields the relation of every member that draws a seq
    /// number, and `net` the facts the engines receive (none for a
    /// rollback). The whole range is drawn at once and every shard
    /// publishes its part ([`Session::publish_batch`]) at the range's
    /// head. The log stamps a commit in submission order, so a range per
    /// shard would hand a shard a stamp whose timeline state it does not
    /// hold; at the head each shard holds exactly the timeline's state
    /// on its own relations. Returns how many numbers were drawn.
    fn publish_at_head(
        &self,
        guards: &mut [RwLockWriteGuard<'_, Session>],
        shards: &[usize],
        drawn: impl Iterator<Item = RelId>,
        net: Vec<Update>,
        batch: Option<Instant>,
    ) -> usize {
        let slot = |rel: RelId| self.slot(shards, rel);
        let mut parts: Vec<(usize, Vec<Update>)> = vec![(0, Vec::new()); shards.len()];
        for rel in drawn {
            parts[slot(rel)].0 += 1;
        }
        for fact in net {
            parts[slot(fact.relation())].1.push(fact);
        }
        let applied: usize = parts.iter().map(|(n, _)| n).sum();
        // Relaxed, as in `Session::advance_seq`: uniqueness carries the
        // argument, and the stamp is read through the shard locks.
        let head = self.inner.seq.fetch_add(applied as u64, Ordering::Relaxed) + applied as u64;
        for ((guard, (n, net)), &sid) in guards.iter_mut().zip(parts).zip(shards) {
            if let Some(m) = self.inner.metrics.as_ref() {
                m.shard_commits[sid].add(n as u64);
            }
            guard.publish_batch(&net, n, head, batch);
        }
        applied
    }

    /// Write-locks `shards` (must be sorted ascending — the canonical
    /// lock order that makes concurrent multi-shard writers deadlock-free).
    fn lock_shards(&self, shards: &[usize]) -> Result<Vec<RwLockWriteGuard<'_, Session>>, CqError> {
        debug_assert!(shards.windows(2).all(|w| w[0] < w[1]), "canonical order");
        shards.iter().map(|&sid| self.write_shard(sid)).collect()
    }

    /// Runs `f` inside an all-or-nothing transaction spanning **all**
    /// shards: committed when `f` returns `Ok`, rolled back (feeds
    /// silent) when it returns `Err`. Prefer
    /// [`ShardedSession::transaction_over`] when the write set is known —
    /// it locks only the footprint's shards and leaves the rest
    /// committing in parallel.
    pub fn transaction<R>(
        &self,
        f: impl FnOnce(&mut ShardedTransaction<'_>) -> Result<R, CqError>,
    ) -> Result<R, CqError> {
        self.transaction_generic(f)
    }

    /// [`ShardedSession::transaction`] with a caller-chosen error type:
    /// the durable layer's commit hook runs *inside* the closure (log
    /// before publish) and needs its I/O failures to flow out through
    /// the rollback path without masquerading as session errors.
    pub(crate) fn transaction_generic<R, E: From<CqError>>(
        &self,
        f: impl FnOnce(&mut ShardedTransaction<'_>) -> Result<R, E>,
    ) -> Result<R, E> {
        let all: Vec<usize> = (0..self.inner.shards.len()).collect();
        self.run_transaction(all, None, f)
    }

    /// Runs `f` inside an all-or-nothing transaction scoped to
    /// `footprint`: only the shards owning those relations are locked
    /// (in canonical order), and the declared relations are the write
    /// set — an update to **any** other relation, even one co-located on
    /// a locked shard, fails with [`CqError::OutOfShardScope`] and
    /// leaves the transaction open for the caller to commit the rest or
    /// abort.
    pub fn transaction_over<R>(
        &self,
        footprint: &[RelId],
        f: impl FnOnce(&mut ShardedTransaction<'_>) -> Result<R, CqError>,
    ) -> Result<R, CqError> {
        let mut scope = vec![false; self.inner.schema.len()];
        let mut shards = Vec::with_capacity(footprint.len());
        for &rel in footprint {
            shards.push(self.shard_of_relation(rel)?);
            scope[rel.index()] = true;
        }
        shards.sort_unstable();
        shards.dedup();
        self.run_transaction(shards, Some(scope), f)
    }

    /// The transaction driver over a sorted shard set: lock all in
    /// canonical order, let `f` change their databases (gated by the
    /// declared relation `scope`, if any), then end the transaction as
    /// one commit ([`ShardedSession::publish_at_head`]) while every lock
    /// is still held, so it is atomic for every locked reader. A commit
    /// publishes the log's net facts; a rollback undoes each shard's `D`
    /// and burns the log's numbers once.
    fn run_transaction<R, E: From<CqError>>(
        &self,
        shards: Vec<usize>,
        scope: Option<Vec<bool>>,
        f: impl FnOnce(&mut ShardedTransaction<'_>) -> Result<R, E>,
    ) -> Result<R, E> {
        let guards = self.lock_shards(&shards).map_err(E::from)?;
        let router =
            (!self.inner.open).then(|| (&self.inner.schema, &self.inner.plan.rel_shard[..]));
        let mut tx = ShardedTransaction {
            guards,
            shards,
            scope,
            router,
            log: Vec::new(),
        };
        let res = f(&mut tx);
        let ShardedTransaction {
            mut guards,
            shards,
            log,
            ..
        } = tx;
        if let Some(g) = guards.first() {
            g.count_transaction(res.is_err());
        }
        let net = if res.is_ok() {
            net_log(&log).net
        } else {
            for u in log.iter().rev() {
                guards[self.slot(&shards, u.relation())].undo(u);
            }
            Vec::new()
        };
        for guard in guards.iter_mut() {
            guard.restamp();
        }
        let drawn = log.iter().map(Update::relation);
        self.publish_at_head(&mut guards, &shards, drawn, net, None);
        res
    }

    /// Runs `f` with shared read access to the session of the shard
    /// maintaining `name` — the escape hatch for everything
    /// [`QueryHandle`](crate::session::QueryHandle) offers beyond the
    /// shortcuts below.
    pub fn read_shard<R>(&self, name: &str, f: impl FnOnce(&Session) -> R) -> Result<R, CqError> {
        self.read_at(self.shard_of_query(name)?, f)
    }

    /// Runs `f` with shared read access to shard `sid`'s session.
    pub(crate) fn read_at<R>(
        &self,
        sid: usize,
        f: impl FnOnce(&Session) -> R,
    ) -> Result<R, CqError> {
        let guard = self.inner.shards[sid]
            .lock
            .read()
            .map_err(|_| CqError::Poisoned)?;
        Ok(f(&guard))
    }

    /// Runs `f` with exclusive write access to shard `sid`'s session.
    pub(crate) fn write_at<R>(
        &self,
        sid: usize,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, CqError> {
        Ok(f(&mut *self.write_shard(sid)?))
    }

    /// The id the shard session assigned to `name` at registration.
    pub fn query_id(&self, name: &str) -> Result<QueryId, CqError> {
        self.read_shard(name, |s| s.query(name).map(|h| h.id()))?
    }

    /// Pins a snapshot of `name`'s current result (shard read lock held
    /// only for the pin itself). See
    /// [`QueryHandle::snapshot`](crate::session::QueryHandle::snapshot).
    pub fn snapshot(&self, name: &str) -> Result<QuerySnapshot, CqError> {
        self.read_shard(name, |s| s.query(name).map(|h| h.snapshot()))?
    }

    /// Acquires a lock-free [`PinReader`] on `name`: one shard read lock
    /// now, then every [`PinReader::pin`] is a single atomic load that
    /// touches no lock of any shard, ever — identical to the
    /// single-session fast path, shard count notwithstanding.
    pub fn reader(&self, name: &str) -> Result<PinReader, CqError> {
        let shard = &self.inner.shards[self.shard_of_query(name)?];
        let session = shard.read_announced().map_err(|_| CqError::Poisoned)?;
        session.query(name).map(|h| h.pin_reader())
    }

    /// Opens a change feed on `name` (see
    /// [`QueryHandle::subscribe`](crate::session::QueryHandle::subscribe)).
    /// Events carry global `seq` stamps.
    pub fn subscribe(&self, name: &str) -> Result<Subscription, CqError> {
        self.read_shard(name, |s| s.query(name).map(|h| h.subscribe()))?
    }

    /// Opens a bounded, lag-coalescing change feed on `name` (see
    /// [`QueryHandle::subscribe_bounded`](crate::session::QueryHandle::subscribe_bounded)).
    pub fn subscribe_bounded(
        &self,
        name: &str,
        cap: usize,
    ) -> Result<BoundedSubscription, CqError> {
        self.read_shard(name, |s| s.query(name).map(|h| h.subscribe_bounded(cap)))?
    }

    /// Enables (or resizes) delta retention on `name` (see
    /// [`QueryHandle::retain_deltas`](crate::session::QueryHandle::retain_deltas)).
    /// Ring entries are keyed by *global* seq, so resume cursors work
    /// identically to the single-writer path.
    pub fn retain_deltas(&self, name: &str, cap: usize) -> Result<(), CqError> {
        self.read_shard(name, |s| s.query(name).map(|h| h.retain_deltas(cap)))?
    }

    /// Enables (or resizes) delta retention on every registered query.
    pub(crate) fn retain_all(&self, cap: usize) -> Result<(), CqError> {
        self.read_all(|guards| {
            for handle in guards.iter().flat_map(|g| g.queries()) {
                handle.retain_deltas(cap);
            }
        })
    }

    /// Nets the retained delta stream of `name` after `from_seq` (see
    /// [`QueryHandle::replay_since`](crate::session::QueryHandle::replay_since)).
    pub fn replay_since(&self, name: &str, from_seq: u64) -> Result<ReplayOutcome, CqError> {
        self.read_shard(name, |s| s.query(name).map(|h| h.replay_since(from_seq)))?
    }

    /// Resumes a change feed on `name` from a cursor (see
    /// [`QueryHandle::subscribe_from`](crate::session::QueryHandle::subscribe_from)).
    /// The replay and the feed attachment happen under one shard read
    /// guard, so no commit falls between them.
    pub fn subscribe_from(&self, name: &str, from_seq: u64) -> Result<Resume, CqError> {
        self.read_shard(name, |s| s.query(name).map(|h| h.subscribe_from(from_seq)))?
    }

    /// O(1) count of `name`'s current result.
    pub fn count(&self, name: &str) -> Result<u64, CqError> {
        self.read_shard(name, |s| s.query(name).map(|h| h.count()))?
    }

    /// Replay hook: positions the shared sequence counter and every
    /// shard at `seq` (see [`Session::force_seq`]; nothing is
    /// published). All shards are write-locked together, so the move is
    /// one atomic cut.
    pub(crate) fn force_seq(&self, seq: u64) -> Result<(), CqError> {
        let all: Vec<usize> = (0..self.inner.shards.len()).collect();
        let mut guards = self.lock_shards(&all)?;
        for guard in guards.iter_mut() {
            guard.force_seq(seq);
        }
        Ok(())
    }

    /// [`Session::check_invariants`] on every shard, each against its own
    /// database, under read guards taken together.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.read_all(|guards| guards.iter().try_for_each(|g| g.check_invariants()))
            .map_err(|e| e.to_string())?
    }

    /// Replica hook: [`Session::publish_watched`] on every shard, under
    /// read guards taken together, so the published epochs are one cut.
    pub(crate) fn publish_watched(&self) -> Result<(), CqError> {
        self.read_all(|guards| guards.iter().for_each(|g| g.publish_watched()))
    }

    /// Checkpoint hook: runs `f` with read guards on every shard session
    /// (acquired in canonical order), handing the caller one consistent
    /// cut of the whole database — the same discipline
    /// [`ShardedSession::generation`] uses.
    pub(crate) fn read_all<R>(
        &self,
        f: impl FnOnce(&[RwLockReadGuard<'_, Session>]) -> R,
    ) -> Result<R, CqError> {
        let mut guards = Vec::with_capacity(self.inner.shards.len());
        for shard in &self.inner.shards {
            guards.push(shard.lock.read().map_err(|_| CqError::Poisoned)?);
        }
        Ok(f(&guards))
    }
}

impl std::fmt::Debug for ShardedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.inner.shards.len())
            .field(
                "queries",
                &self
                    .inner
                    .plan
                    .shards()
                    .iter()
                    .map(|s| s.queries().len())
                    .sum::<usize>(),
            )
            .field("seq", &self.seq())
            .finish_non_exhaustive()
    }
}

/// An all-or-nothing update batch spanning one or more shards
/// (see [`ShardedSession::transaction`] /
/// [`ShardedSession::transaction_over`]). Each update changes its
/// shard's database alone; the owning closure's result decides whether
/// the effective log commits as one batch or is undone.
pub struct ShardedTransaction<'a> {
    /// The locked shards' sessions, in canonical order.
    guards: Vec<RwLockWriteGuard<'a, Session>>,
    /// The locked shards' ids, ascending (parallel to `guards`).
    shards: Vec<usize>,
    /// The declared write set of a scoped transaction, per relation
    /// index (`None` = unscoped, every relation admissible). Checked at
    /// relation granularity: a relation merely co-located on a locked
    /// shard is still out of scope unless it was declared.
    scope: Option<Vec<bool>>,
    /// The sealed plan's union schema and relation → shard table
    /// (`None` in the open form: shard 0's session validates).
    router: Option<(&'a Schema, &'a [usize])>,
    /// The effective updates in submission order: netted at commit,
    /// undone at rollback, and what the durable layer logs.
    log: Vec<Update>,
}

impl ShardedTransaction<'_> {
    /// Validates and applies one update inside the transaction; returns
    /// `true` iff it was effective. Malformed or out-of-scope updates
    /// error and leave the transaction open.
    pub fn apply(&mut self, update: &Update) -> Result<bool, CqError> {
        let slot = match self.router {
            None => {
                validate_update(self.guards[0].schema(), update)?;
                0
            }
            Some((schema, rel_shard)) => {
                validate_update(schema, update)?;
                let rel = update.relation();
                let in_scope = self
                    .scope
                    .as_ref()
                    .is_none_or(|s| s.get(rel.index()).copied().unwrap_or(false));
                match self.shards.binary_search(&rel_shard[rel.index()]) {
                    Ok(slot) if in_scope => slot,
                    _ => {
                        return Err(CqError::OutOfShardScope {
                            relation: schema.name(rel).to_string(),
                        })
                    }
                }
            }
        };
        let changed = self.guards[slot].apply_to_db(update);
        if changed {
            self.log.push(update.clone());
        }
        Ok(changed)
    }

    /// Applies a sequence of updates, stopping at the first malformed or
    /// out-of-scope one; returns how many were effective.
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<usize, CqError> {
        let mut applied = 0;
        for u in updates {
            if self.apply(u)? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Number of effective updates so far, across all shards in scope.
    pub fn effective_len(&self) -> usize {
        self.log.len()
    }

    /// The effective updates so far, in submission order.
    pub(crate) fn log(&self) -> &[Update] {
        &self.log
    }
}

/// Compile-time thread-safety contract: the core crosses threads.
#[allow(dead_code)]
fn _assert_thread_safe() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<ShardedSession>();
    send_sync::<ShardPlan>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_baseline::EngineKind;

    fn builder_with(queries: &[(&str, &str)]) -> ShardedSessionBuilder {
        let mut b = ShardedSessionBuilder::new();
        for (name, src) in queries {
            b.register(name, src).unwrap();
        }
        b
    }

    #[test]
    fn disjoint_footprints_get_their_own_shards() {
        let b = builder_with(&[
            ("a", "Q(x, y) :- E(x, y), T(y)."),
            ("b", "Q(x) :- S(x), U(x)."),
        ]);
        let plan = b.plan();
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.shard_of_query("a"), Some(0));
        assert_eq!(plan.shard_of_query("b"), Some(1));
        assert_eq!(plan.shards()[0].queries(), ["a".to_string()]);
        assert_eq!(plan.shards()[0].relations().len(), 2);
        assert_eq!(plan.shards()[1].relations().len(), 2);
    }

    #[test]
    fn overlapping_footprints_share_a_shard() {
        let b = builder_with(&[
            ("a", "Q(x, y) :- E(x, y), T(y)."),
            ("b", "Q(y) :- T(y)."), // shares T with "a"
            ("c", "Q(x) :- U(x)."),
        ]);
        let plan = b.plan();
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.shard_of_query("a"), plan.shard_of_query("b"));
        assert_ne!(plan.shard_of_query("a"), plan.shard_of_query("c"));
    }

    #[test]
    fn bridging_query_merges_components_transitively() {
        // {E,T} and {S,U} are independent until "bridge" links T and S.
        let b = builder_with(&[
            ("a", "Q(x, y) :- E(x, y), T(y)."),
            ("b", "Q(x) :- S(x), U(x)."),
            ("bridge", "Q(y) :- T(y), S(y)."),
        ]);
        let plan = b.plan();
        assert_eq!(plan.shard_count(), 1, "bridge fuses both components");
        // Without the bridge they stay apart.
        let b = builder_with(&[
            ("a", "Q(x, y) :- E(x, y), T(y)."),
            ("b", "Q(x) :- S(x), U(x)."),
        ]);
        assert_eq!(b.plan().shard_count(), 2);
    }

    #[test]
    fn unreferenced_relations_become_singleton_shards() {
        let mut schema = Schema::new();
        schema.intern("Orphan", 1).unwrap();
        let mut b = ShardedSessionBuilder::open(schema);
        b.register("a", "Q(x) :- R(x).").unwrap();
        let plan = b.plan();
        assert_eq!(plan.shard_count(), 2);
        let session = b.build().unwrap();
        let orphan = session.relation("Orphan").unwrap();
        // Updates to the orphan commit and draw global seqs.
        assert!(session.apply(&Update::Insert(orphan, vec![7])).unwrap());
        assert!(!session.apply(&Update::Insert(orphan, vec![7])).unwrap());
        assert_eq!(session.seq(), 1);
        assert_eq!(session.relation_generation(orphan).unwrap(), 1);
    }

    #[test]
    fn duplicate_names_and_arity_clashes_error_cleanly() {
        let mut b = ShardedSessionBuilder::new();
        b.register("a", "Q(x) :- R(x).").unwrap();
        assert!(matches!(
            b.register("a", "Q(x) :- S(x)."),
            Err(CqError::DuplicateQuery(_))
        ));
        // Arity clash must leave the builder usable and the schema clean.
        assert!(b.register("bad", "Q(x, y) :- R(x, y).").is_err());
        b.register("ok", "Q(x) :- R(x), T(x).").unwrap();
        let session = b.build().unwrap();
        assert_eq!(session.shard_count(), 1, "R and T fused via \"ok\"");
        assert!(session.relation("S").is_err(), "rolled-back intern leaked");
    }

    #[test]
    fn routing_matches_the_single_session_classifier() {
        let mut b = ShardedSessionBuilder::new();
        b.register("easy", "Q(x, y) :- E(x, y), T(y).").unwrap();
        b.register("hard", "Q(x, y) :- S(x), G(x, y), U(y).")
            .unwrap();
        let s = b.build().unwrap();
        assert_eq!(
            s.read_shard("easy", |sess| sess.query("easy").unwrap().kind())
                .unwrap(),
            EngineKind::QHierarchical
        );
        assert_eq!(
            s.read_shard("hard", |sess| sess.query("hard").unwrap().kind())
                .unwrap(),
            EngineKind::DeltaIvm
        );
        // A forced engine that cannot admit its query fails the build.
        let mut b = ShardedSessionBuilder::new();
        b.register_with(
            "forced",
            "Q(x, y) :- S(x), G(x, y), U(y).",
            EngineChoice::Forced(EngineKind::QHierarchical),
        )
        .unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn batches_span_shards_and_report_effective_counts() {
        let mut b = ShardedSessionBuilder::new();
        b.register("a", "Q(x, y) :- E(x, y), T(y).").unwrap();
        b.register("b", "Q(x) :- S(x), U(x).").unwrap();
        let s = b.build().unwrap();
        let e = s.relation("E").unwrap();
        let t = s.relation("T").unwrap();
        let sr = s.relation("S").unwrap();
        let u = s.relation("U").unwrap();
        let report = s
            .apply_batch(&[
                Update::Insert(e, vec![1, 2]),
                Update::Insert(sr, vec![5]),
                Update::Insert(t, vec![2]),
                Update::Insert(u, vec![5]),
                Update::Insert(e, vec![1, 2]), // set-semantics no-op
            ])
            .unwrap();
        assert_eq!(report.total, 5);
        assert_eq!(report.applied, 4);
        assert_eq!(s.count("a").unwrap(), 1);
        assert_eq!(s.count("b").unwrap(), 1);
        assert_eq!(s.seq(), 4);
        // Malformed batches apply nothing anywhere.
        let before = s.seq();
        assert!(s
            .apply_batch(&[Update::Insert(e, vec![9, 9]), Update::Insert(t, vec![])])
            .is_err());
        assert_eq!(s.seq(), before);
        assert_eq!(s.count("a").unwrap(), 1);
    }

    #[test]
    fn scoped_transactions_enforce_their_footprint() {
        let mut b = ShardedSessionBuilder::new();
        b.register("a", "Q(x, y) :- E(x, y), T(y).").unwrap();
        b.register("b", "Q(x) :- S(x), U(x).").unwrap();
        let s = b.build().unwrap();
        let e = s.relation("E").unwrap();
        let t = s.relation("T").unwrap();
        let sr = s.relation("S").unwrap();
        let out = s.transaction_over(&[e, t], |tx| {
            tx.apply(&Update::Insert(e, vec![1, 2]))?;
            tx.apply(&Update::Insert(t, vec![2]))?;
            let scope_err = tx.apply(&Update::Insert(sr, vec![1])).unwrap_err();
            assert!(matches!(scope_err, CqError::OutOfShardScope { .. }));
            assert_eq!(tx.effective_len(), 2);
            Ok(tx.effective_len())
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(s.count("a").unwrap(), 1);
        assert_eq!(s.count("b").unwrap(), 0, "S never entered");
        // The scope is relation-granular: T shares E's shard (and its
        // lock), but an undeclared write to it must still be rejected.
        s.transaction_over(&[e], |tx| {
            tx.apply(&Update::Insert(e, vec![8, 9]))?;
            let colocated = tx.apply(&Update::Insert(t, vec![9])).unwrap_err();
            assert!(matches!(colocated, CqError::OutOfShardScope { .. }));
            Ok(())
        })
        .unwrap();
        assert_eq!(s.count("a").unwrap(), 1, "T(9) never committed");
    }

    #[test]
    fn failed_transactions_roll_back_every_shard() {
        let mut b = ShardedSessionBuilder::new();
        b.register("a", "Q(x, y) :- E(x, y), T(y).").unwrap();
        b.register("b", "Q(x) :- S(x), U(x).").unwrap();
        let s = b.build().unwrap();
        let e = s.relation("E").unwrap();
        let t = s.relation("T").unwrap();
        let sr = s.relation("S").unwrap();
        let u = s.relation("U").unwrap();
        let feed_a = s.subscribe("a").unwrap();
        let err = s
            .transaction::<()>(|tx| {
                tx.apply(&Update::Insert(e, vec![1, 2]))?;
                tx.apply(&Update::Insert(t, vec![2]))?;
                tx.apply(&Update::Insert(sr, vec![9]))?;
                tx.apply(&Update::Insert(u, vec![9]))?;
                Err(CqError::UnknownQuery("abort".into()))
            })
            .unwrap_err();
        assert!(matches!(err, CqError::UnknownQuery(_)));
        assert_eq!(s.count("a").unwrap(), 0);
        assert_eq!(s.count("b").unwrap(), 0);
        assert!(feed_a.drain().is_empty(), "rollback publishes nothing");
        // Committed transactions publish netted events on every shard.
        let feed_b = s.subscribe("b").unwrap();
        s.transaction(|tx| {
            tx.apply(&Update::Insert(e, vec![1, 2]))?;
            tx.apply(&Update::Insert(t, vec![2]))?;
            tx.apply(&Update::Insert(sr, vec![9]))?;
            tx.apply(&Update::Insert(u, vec![9]))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(s.count("a").unwrap(), 1);
        assert_eq!(s.count("b").unwrap(), 1);
        let ev_a = feed_a.drain();
        let ev_b = feed_b.drain();
        assert_eq!(ev_a.len(), 1);
        assert_eq!(ev_a[0].added, vec![vec![1, 2]]);
        assert_eq!(ev_b.len(), 1);
        assert_eq!(ev_b[0].added, vec![vec![9]]);
    }

    #[test]
    fn global_seq_is_shared_and_generation_stays_shard_local() {
        let mut b = ShardedSessionBuilder::new();
        b.register("a", "Q(x, y) :- E(x, y), T(y).").unwrap();
        b.register("b", "Q(x) :- S(x), U(x).").unwrap();
        let s = b.build().unwrap();
        let e = s.relation("E").unwrap();
        let sr = s.relation("S").unwrap();
        s.apply(&Update::Insert(e, vec![1, 2])).unwrap(); // seq 1
        s.apply(&Update::Insert(sr, vec![3])).unwrap(); // seq 2
        s.apply(&Update::Insert(e, vec![4, 5])).unwrap(); // seq 3
        assert_eq!(s.seq(), 3);
        // Each shard's storage generation counts only its own traffic…
        assert_eq!(s.read_shard("a", |x| x.database().generation()).unwrap(), 2);
        assert_eq!(s.read_shard("b", |x| x.database().generation()).unwrap(), 1);
        assert_eq!(s.generation().unwrap(), 3);
        // …and so do the per-relation stamps underneath.
        assert_eq!(s.relation_generation(e).unwrap(), 2);
        assert_eq!(s.relation_generation(sr).unwrap(), 1);
        // Shard sessions stamp their snapshots with global seqs.
        let snap_a = s.snapshot("a").unwrap();
        let snap_b = s.snapshot("b").unwrap();
        assert_eq!(snap_a.seq(), 3);
        assert_eq!(snap_b.seq(), 2, "b's last own update drew global seq 2");
    }
}
