//! Read replicas: follower sessions fed by a leader's log stream.
//!
//! The leader side is one call — [`ReplicationServer::bind`] over an
//! `Arc<DurableSession>` — and the follower side is
//! [`ReplicaSession::connect`], which maintains a live, crash-tolerant
//! copy of the leader's session and serves the full read API
//! (snapshots, O(1) counts, lock-free [`PinReader`] pins, `subscribe()`
//! feeds, cursor replay) at an explicit [`applied_seq`] watermark.
//!
//! [`applied_seq`]: ReplicaSession::applied_seq
//!
//! ```text
//!   DurableSession ── WAL commits ──▶ ReplicationServer (leader)
//!                                         │ checkpoint transfer + record stream
//!              ReplicaSession (follower) ◀┘
//!                  │ applied_seq() watermark
//!              readers / subscribers / cqu-serve front end
//! ```
//!
//! ## Consistency model
//!
//! Replication is asynchronous: a replica is *eventually consistent*
//! with the leader, and **exact** at its watermark. There are no torn
//! states: transaction groups apply atomically, and each record batch
//! is applied before the watermark moves past it. After
//! `wait_for_seq(s)` returns:
//!
//! * **Locked reads** ([`ReplicaSession::snapshot`],
//!   [`ReplicaSession::count`], the subscription calls) observe
//!   precisely `timeline[s']` for some `s' ≥ s` on the leader's one
//!   true timeline.
//! * **Lock-free pins** of a q-hierarchical query, through a
//!   [`PinReader`] from [`ReplicaSession::reader`], are at `≥ s` as
//!   well. `reader` freshens the epoch it hands out, and from then on
//!   the applier publishes it after every applied run and *before* it
//!   announces the watermark. (A pin's `seq()` stamp moves with the
//!   commits that touch its query's relations; across the others the
//!   result is unchanged and so is the epoch.)
//! * **Delta-IVM queries** follow the leader's rule: their `Ω(|view|)`
//!   epochs republish on the locked pin path only (`snapshot`, or
//!   taking a new reader), so a held reader of one may lag.
//!
//! ## Watched publication: what a replicated commit costs
//!
//! An epoch shares the engine's component structures, and the next
//! write to a shared component copies it. So the applier publishes only
//! where someone can look: the registrations whose engine snapshots
//! cheaply, whose epoch is stale, and on which a [`PinReader`] is alive
//! (`Session::publish_watched`). A replica nobody pins lock-free never
//! copies a component: a replicated commit costs what it costs on the
//! leader, O(δ). A held `PinReader` still costs one copy of each touched
//! component per commit, as a retained pin does on the leader. The seq
//! counter is forced (`Session::force_seq`, which republishes
//! everything) only for a real jump: bootstrap, a `SeqBurn`, a gap.
//!
//! ## Bootstrap, resume, epochs
//!
//! A fresh follower (or one whose cursor fell behind the leader's
//! checkpoint floor) is **bootstrapped**: the leader streams its newest
//! checkpoint body in bounded chunks, the replica rebuilds a session
//! core from it (same code path as crash recovery), and the record tail
//! follows. A follower that disconnects briefly **resumes**: it offers
//! its `(epoch, cursor)` and receives only records past the cursor.
//! Epochs fence leader restarts — a restarted leader may have truncated
//! an un-fsynced suffix whose seqs were reassigned, so a cursor from an
//! older epoch is never resumed, only re-bootstrapped.
//!
//! The in-memory apply machinery is identical to recovery's: updates
//! replay through the same session core, so a replica's engine states,
//! relation ids, and subscriber seq stamps match the leader's exactly.
//!
//! ## Failover
//!
//! When the leader dies, pick the most caught-up live follower
//! deterministically ([`promotion_candidate`] over
//! [`ReplicationServer::followers`] progress, or the replicas' own
//! `(epoch, applied_seq)` pairs) and call
//! [`ReplicaSession::promote`]: the follower loop is fenced off, the
//! applied state is checkpointed into a fresh WAL directory, and the
//! result is a [`DurableSession`] at a **bumped epoch term** that a new
//! [`ReplicationServer`] can bind. Surviving followers re-handshake
//! onto the new epoch through the ordinary re-bootstrap path; the old
//! leader, if restarted and pointed at the new one, is refused with a
//! permanent stale-epoch deny (surfaced via [`FollowerStats::fenced`]).

use crate::durable::{
    build_core, decode_choice, decode_ckpt_body, load_ckpt_tuples, DurableError, DurableOptions,
    DurableSession, REPLAY_CHUNK,
};
use crate::error::CqError;
use crate::session::{
    PinReader, QuerySnapshot, ReplayOutcome, Resume, SharedSession, Subscription,
};
use crate::shard::ShardedSession;
use cqu_query::RelId;
use cqu_storage::Update;
use cqu_wal::{Rec, WalDir};
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

pub use cqu_repl::{
    DenyReason, FollowerConfig, FollowerProgress, FollowerStats, LeaderConfig, LeaderStats,
};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Tuning for a [`ReplicaSession`].
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Network behavior (reconnect backoff, timeouts) — see
    /// [`FollowerConfig`].
    pub follower: FollowerConfig,
    /// Delta-retention ring capacity enabled on every replicated query,
    /// so cursor replay ([`ReplicaSession::replay_since`]) and the
    /// serving front end work on the replica. `0` disables retention.
    pub ring_cap: usize,
    /// Metrics registry shared into every session core this replica builds
    /// (bootstrap and re-bootstrap alike). `None` leaves the replica
    /// uninstrumented.
    pub registry: Option<Arc<cqu_obs::Registry>>,
}

impl Default for ReplicaOptions {
    fn default() -> ReplicaOptions {
        ReplicaOptions {
            follower: FollowerConfig::default(),
            ring_cap: 1024,
            registry: None,
        }
    }
}

/// State shared between the applier (follower thread) and reader
/// handles.
struct ReplicaShared {
    /// The live session core — `None` until the first bootstrap
    /// completes; swapped wholesale on re-bootstrap. Its form (open
    /// one-shard vs sealed plan) mirrors the leader's mode.
    backend: RwLock<Option<ShardedSession>>,
    /// The applied watermark, guarded for [`ReplicaSession::wait_for_seq`].
    applied: Mutex<u64>,
    bumped: Condvar,
    /// The leader epoch the current state was built against.
    epoch: AtomicU64,
    /// Mirror of the applier's registration list (name, src, encoded
    /// choice), kept in sync on every DDL apply and re-bootstrap so
    /// [`ReplicaSession::promote`] can seed a checkpoint without the
    /// applier thread.
    regs: Mutex<Vec<(String, String, u8)>>,
}

impl ReplicaShared {
    fn backend(&self) -> Option<ShardedSession> {
        self.backend
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Updates with consecutive seqs collected off the stream: a run of
/// plain updates awaiting a flush, or an open transaction group.
struct SeqRun {
    first_seq: u64,
    updates: Vec<Update>,
}

/// The [`cqu_repl::ReplicaApply`] implementation: drives the same
/// session-core machinery as crash recovery, from a socket instead of a
/// directory scan.
struct SessionApplier {
    shared: Arc<ReplicaShared>,
    ring_cap: usize,
    /// Registry shared into every session core built here.
    registry: Option<Arc<cqu_obs::Registry>>,
    sharded: bool,
    /// Registrations in arrival order (name, src, encoded choice).
    regs: Vec<(String, String, u8)>,
    registered: HashSet<String>,
    /// Local handle to the published core (`None` while a sharded
    /// bootstrap waits for its `Register` records — the sealed plan
    /// needs the full query set before it can build).
    backend: Option<ShardedSession>,
    /// Buffered plain updates awaiting a flush, one entry per maximal
    /// run of consecutive seqs.
    pending: Vec<SeqRun>,
    /// An open `TxBegin … TxCommit` group (may span record frames).
    tx: Option<SeqRun>,
    /// Applied watermark: every seq ≤ cursor is fully applied.
    cursor: u64,
    epoch: u64,
}

impl SessionApplier {
    /// Publishes the current registration list to the shared mirror
    /// (cheap: DDL and re-bootstrap only).
    fn sync_regs(&self) {
        *lock(&self.shared.regs) = self.regs.clone();
    }

    fn install(&mut self, backend: ShardedSession) -> Result<(), String> {
        if self.ring_cap > 0 {
            backend.retain_all(self.ring_cap).map_err(err_str)?;
        }
        *self
            .shared
            .backend
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(backend.clone());
        self.backend = Some(backend);
        Ok(())
    }

    /// Builds the deferred sealed core once its registrations are all
    /// in hand.
    fn ensure_backend(&mut self) -> Result<(), String> {
        if self.backend.is_some() {
            return Ok(());
        }
        let backend =
            build_core(self.sharded, &self.regs, self.registry.as_ref()).map_err(err_str)?;
        backend.force_seq(self.cursor).map_err(err_str)?;
        self.install(backend)
    }

    /// Announces the watermark, after publishing the epochs lock-free
    /// readers are watching ([`ShardedSession::publish_watched`]): a pin
    /// taken after `wait_for_seq(s)` returns must already be at `s`.
    fn publish_applied(&self) -> Result<(), String> {
        if let Some(backend) = &self.backend {
            backend.publish_watched().map_err(err_str)?;
        }
        let mut applied = lock(&self.shared.applied);
        if self.cursor > *applied {
            *applied = self.cursor;
            self.shared.bumped.notify_all();
        }
        Ok(())
    }

    /// Applies the buffered plain updates, one batch-apply per run.
    /// Every update the leader shipped was effective there, so it must
    /// be effective here too — a shortfall means the replica diverged,
    /// and the caller escalates to a re-bootstrap.
    fn flush(&mut self) -> Result<(), String> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.ensure_backend()?;
        let backend = self.backend.as_ref().expect("ensured");
        for run in self.pending.drain(..) {
            position_below(backend, run.first_seq)?;
            for chunk in run.updates.chunks(REPLAY_CHUNK) {
                backend.apply_batch(chunk).map_err(err_str)?;
            }
            let last = run.first_seq + run.updates.len() as u64 - 1;
            let now = backend.seq();
            if now != last {
                return Err(format!(
                    "replica diverged: expected seq {last} after run, backend at {now}"
                ));
            }
            self.cursor = self.cursor.max(last);
        }
        Ok(())
    }

    fn apply_inner(&mut self, recs: Vec<Rec>) -> Result<u64, String> {
        for rec in recs {
            match rec {
                Rec::Mode { sharded } => {
                    if sharded != self.sharded {
                        return Err("stream mode disagrees with handshake".into());
                    }
                }
                Rec::Register { name, src, choice } => {
                    if self.registered.contains(&name) {
                        continue; // catch-up overlap: DDL is idempotent by name
                    }
                    self.flush()?;
                    if self.sharded {
                        if self.backend.is_some() {
                            return Err("late registration on a sealed sharded replica".into());
                        }
                    } else {
                        self.ensure_backend()?;
                        let engine = decode_choice(choice).map_err(err_str)?;
                        let backend = self.backend.as_ref().expect("ensured");
                        backend
                            .write_at(0, |s| -> Result<(), CqError> {
                                let id = s.register_with(&name, &src, engine)?;
                                if self.ring_cap > 0 {
                                    s.handle(id).retain_deltas(self.ring_cap);
                                }
                                Ok(())
                            })
                            .map_err(err_str)?
                            .map_err(err_str)?;
                    }
                    self.registered.insert(name.clone());
                    self.regs.push((name, src, choice));
                    self.sync_regs();
                }
                Rec::Update {
                    seq,
                    insert,
                    rel,
                    tuple,
                    ..
                } => {
                    let u = if insert {
                        Update::Insert(RelId(rel), tuple)
                    } else {
                        Update::Delete(RelId(rel), tuple)
                    };
                    match &mut self.tx {
                        // Group members are filtered by the commit seq,
                        // not per update — groups apply whole or not at
                        // all.
                        Some(g) => g.updates.push(u),
                        None if seq <= self.cursor => {}
                        None => match self.pending.last_mut() {
                            Some(run) if run.first_seq + run.updates.len() as u64 == seq => {
                                run.updates.push(u)
                            }
                            _ => self.pending.push(SeqRun {
                                first_seq: seq,
                                updates: vec![u],
                            }),
                        },
                    }
                }
                Rec::TxBegin { first_seq } => {
                    if self.tx.is_some() {
                        return Err("transaction begin inside an open transaction".into());
                    }
                    self.flush()?;
                    self.tx = Some(SeqRun {
                        first_seq,
                        updates: Vec::new(),
                    });
                }
                Rec::TxCommit { last_seq } => {
                    let Some(g) = self.tx.take() else {
                        return Err("transaction commit without begin".into());
                    };
                    if last_seq <= self.cursor {
                        continue; // already applied before a resume
                    }
                    self.flush()?;
                    self.ensure_backend()?;
                    let backend = self.backend.as_ref().expect("ensured");
                    position_below(backend, g.first_seq)?;
                    // One core transaction: all-or-nothing with a single
                    // published event per query, as on the leader.
                    backend
                        .transaction(|t| t.apply_all(&g.updates))
                        .map_err(err_str)?;
                    let now = backend.seq();
                    if now != last_seq {
                        return Err(format!(
                            "replica diverged: transaction expected seq {last_seq}, backend at {now}"
                        ));
                    }
                    self.cursor = last_seq;
                }
                Rec::SeqBurn { upto } => {
                    if self.tx.is_some() {
                        return Err("seq burn inside an open transaction".into());
                    }
                    if upto > self.cursor {
                        self.flush()?;
                        self.ensure_backend()?;
                        let backend = self.backend.as_ref().expect("ensured");
                        backend.force_seq(upto).map_err(err_str)?;
                        self.cursor = upto;
                    }
                }
            }
        }
        self.flush()?;
        self.publish_applied()?;
        Ok(self.cursor)
    }
}

/// Positions `backend`'s seq counter just below `first_seq`, where the
/// run or group about to be applied starts drawing. In steady state the
/// counter already sits there and nothing is called; only a real jump
/// (a gap in the stream) pays [`ShardedSession::force_seq`], which
/// republishes every epoch.
fn position_below(backend: &ShardedSession, first_seq: u64) -> Result<(), String> {
    let below = first_seq
        .checked_sub(1)
        .ok_or("stream carries seq 0; seqs start at 1")?;
    if backend.seq() != below {
        backend.force_seq(below).map_err(err_str)?;
    }
    Ok(())
}

impl cqu_repl::ReplicaApply for SessionApplier {
    fn reset(&mut self, sharded: bool, checkpoint: Option<(u64, Vec<u8>)>) -> Result<(), String> {
        self.pending.clear();
        self.tx = None;
        self.sharded = sharded;
        self.regs.clear();
        self.registered.clear();
        self.backend = None;
        *self
            .shared
            .backend
            .write()
            .unwrap_or_else(PoisonError::into_inner) = None;
        self.cursor = 0;
        match checkpoint {
            Some((seq, bytes)) => {
                let body = decode_ckpt_body(&bytes).map_err(err_str)?;
                if body.sharded != sharded {
                    return Err("checkpoint mode disagrees with handshake".into());
                }
                let backend =
                    build_core(sharded, &body.regs, self.registry.as_ref()).map_err(err_str)?;
                load_ckpt_tuples(&backend, &body).map_err(err_str)?;
                backend.force_seq(seq).map_err(err_str)?;
                self.registered = body.regs.iter().map(|(n, _, _)| n.clone()).collect();
                self.regs = body.regs;
                self.cursor = seq;
                self.install(backend)?;
            }
            None => {
                // No checkpoint: the leader ships its log from seq 0. The
                // open one-shard form can build empty right away; a
                // sealed plan must wait for its Register records.
                if !sharded {
                    self.ensure_backend()?;
                }
            }
        }
        self.sync_regs();
        // The watermark restarts with the state; readers of the old
        // backend keep their pins, new reads see the bootstrap.
        *lock(&self.shared.applied) = self.cursor;
        self.shared.bumped.notify_all();
        Ok(())
    }

    fn apply_records(&mut self, recs: Vec<Rec>) -> Result<u64, String> {
        let res = self.apply_inner(recs);
        if res.is_err() {
            // Divergence or replay failure: poison the epoch so the
            // reconnect handshake re-bootstraps from the leader's
            // checkpoint instead of resuming atop bad state.
            self.epoch = 0;
            self.shared.epoch.store(0, Ordering::SeqCst);
        }
        res
    }

    fn cursor(&self) -> u64 {
        self.cursor
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.shared.epoch.store(epoch, Ordering::SeqCst);
    }

    fn on_heartbeat(&mut self, _head_seq: u64) -> Result<u64, String> {
        // Heartbeats only flow once catch-up is fully written, so a
        // deferred sharded build can safely seal here.
        self.flush()?;
        if self.backend.is_none() && !self.regs.is_empty() {
            self.ensure_backend()?;
        }
        self.publish_applied()?;
        Ok(self.cursor)
    }

    fn on_disconnect(&mut self) {
        // Drop in-flight partial state; everything applied stays. The
        // cursor only ever covers completed work, so the resume
        // handshake re-ships whatever was dropped here.
        self.tx = None;
        self.pending.clear();
    }
}

/// A live read replica of a leader's [`DurableSession`] (see the
/// [module docs](self) for the consistency model). Dropping it stops
/// the network thread.
pub struct ReplicaSession {
    shared: Arc<ReplicaShared>,
    /// Behind a mutex so [`ReplicaSession::promote`] can stop and join
    /// the network thread through a shared handle.
    follower: Mutex<cqu_repl::Follower>,
    /// Latched by [`ReplicaSession::promote`]; a promoted replica's
    /// follower loop is permanently fenced off.
    promoted: AtomicBool,
    /// The registry from [`ReplicaOptions`], for the serving front end
    /// and promotion journaling.
    registry: Option<Arc<cqu_obs::Registry>>,
}

impl ReplicaSession {
    /// Connects to the replication listener of a
    /// [`ReplicationServer`] at `addr` and starts following. Returns
    /// immediately; use [`ReplicaSession::wait_for_seq`] (or poll
    /// [`ReplicaSession::applied_seq`]) to observe sync progress.
    pub fn connect(addr: SocketAddr, options: ReplicaOptions) -> io::Result<ReplicaSession> {
        let shared = Arc::new(ReplicaShared {
            backend: RwLock::new(None),
            applied: Mutex::new(0),
            bumped: Condvar::new(),
            epoch: AtomicU64::new(0),
            regs: Mutex::new(Vec::new()),
        });
        let applier = SessionApplier {
            shared: Arc::clone(&shared),
            ring_cap: options.ring_cap,
            registry: options.registry.clone(),
            sharded: false,
            regs: Vec::new(),
            registered: HashSet::new(),
            backend: None,
            pending: Vec::new(),
            tx: None,
            cursor: 0,
            epoch: 0,
        };
        // The replica-wide registry also feeds the follower's
        // `repl_follower_*` series, unless the caller pointed the
        // follower at a registry of its own.
        let mut follower_config = options.follower;
        if follower_config.registry.is_none() {
            follower_config.registry = options.registry.clone();
        }
        let follower = cqu_repl::Follower::spawn(addr, Box::new(applier), follower_config)?;
        Ok(ReplicaSession {
            shared,
            follower: Mutex::new(follower),
            promoted: AtomicBool::new(false),
            registry: options.registry,
        })
    }

    /// The applied watermark: every leader seq ≤ this value is fully
    /// reflected in reads. `0` until the first bootstrap lands.
    pub fn applied_seq(&self) -> u64 {
        *lock(&self.shared.applied)
    }

    /// Blocks until the watermark reaches `seq` (true) or `timeout`
    /// elapses (false).
    pub fn wait_for_seq(&self, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut applied = lock(&self.shared.applied);
        while *applied < seq {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self
                .shared
                .bumped
                .wait_timeout(applied, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            applied = g;
        }
        true
    }

    /// The leader epoch this replica's state was built against (`0`
    /// before the first sync, or after a divergence forced the next
    /// handshake to re-bootstrap).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Whether the replication connection is currently up.
    pub fn is_connected(&self) -> bool {
        self.stats().connected
    }

    /// Network counters (connects, bootstraps, resumes, disconnects) and
    /// the fencing status: [`FollowerStats::fenced`] is set when the
    /// leader permanently refused this replica (version mismatch,
    /// stale-epoch fence) — the reconnect loop then idles at its backoff
    /// cap instead of hot-retrying, and clears the flag if a later
    /// handshake succeeds.
    pub fn stats(&self) -> FollowerStats {
        lock(&self.follower).stats()
    }

    /// The metrics registry from [`ReplicaOptions::registry`], if this
    /// replica runs instrumented.
    pub fn registry(&self) -> Option<&Arc<cqu_obs::Registry>> {
        self.registry.as_ref()
    }

    /// Severs the current connection, forcing a disconnect/resume cycle
    /// — fault injection for tests.
    pub fn kick(&self) {
        lock(&self.follower).kick();
    }

    /// Stops the network thread and joins it (also happens on drop).
    pub fn shutdown(&mut self) {
        lock(&self.follower).stop();
    }

    /// Promotes this replica to a standalone leader: permanently stops
    /// the follower loop, checkpoints the applied state into `dir`, and
    /// opens a fresh WAL at a **bumped epoch term** — strictly greater
    /// than any epoch the old leader can ever present, even across its
    /// restarts. The returned [`DurableSession`] accepts writes and can
    /// be handed to [`ReplicationServer::bind`]; surviving replicas
    /// re-handshake onto the new epoch (re-bootstrap path), and the old
    /// leader, if it comes back and connects as a follower, is fenced
    /// with a stale-epoch deny.
    ///
    /// The promotion point is the replica's applied watermark: any
    /// leader suffix past it is lost (asynchronous replication), which
    /// is why callers should promote the follower with the highest
    /// `(epoch, acked_seq)` — see [`promotion_candidate`].
    ///
    /// Errors if the replica was already promoted, never bootstrapped,
    /// or in a diverged/unsynced state (epoch 0), or if `dir` is not
    /// virgin. On error (other than double promotion) the session is
    /// left stopped but unpromoted, so a retry with a fresh `dir` works.
    pub fn promote(
        &self,
        dir: Box<dyn WalDir>,
        options: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        if self.promoted.swap(true, Ordering::SeqCst) {
            return Err(DurableError::Unsupported("replica already promoted"));
        }
        // Joining the network thread quiesces the applier: the core
        // rests exactly at the applied watermark, with no in-flight
        // batches.
        lock(&self.follower).stop();
        let result = (|| {
            let epoch = self.shared.epoch.load(Ordering::SeqCst);
            if epoch == 0 {
                return Err(DurableError::Recovery(
                    "replica never synced (or diverged) — no epoch to fence against".into(),
                ));
            }
            let backend = self.shared.backend().ok_or_else(|| {
                DurableError::Recovery("replica not yet bootstrapped — nothing to promote".into())
            })?;
            let regs = lock(&self.shared.regs).clone();
            DurableSession::promote_from(dir, options, backend, regs, epoch)
        })();
        match &result {
            Ok(promoted) => {
                // Journal into the replica's registry, or the one the
                // promotion options threaded into the new session.
                if let Some(r) = self.registry.clone().or_else(|| promoted.registry()) {
                    r.journal().record(
                        "promotion",
                        format!(
                            "replica promoted to leader at seq {}, fencing epochs below its term",
                            self.applied_seq()
                        ),
                    );
                }
            }
            Err(_) => self.promoted.store(false, Ordering::SeqCst),
        }
        result
    }

    /// The live session core (available once bootstrapped).
    pub(crate) fn core(&self) -> Result<ShardedSession, CqError> {
        self.shared
            .backend()
            .ok_or_else(|| CqError::UnknownQuery("replica not yet bootstrapped".into()))
    }

    /// Resolves a relation by name (available once bootstrapped).
    pub fn relation(&self, name: &str) -> Result<RelId, CqError> {
        self.core()?.relation(name)
    }

    /// Pins a snapshot of `name`'s result at the replica's watermark.
    pub fn snapshot(&self, name: &str) -> Result<QuerySnapshot, CqError> {
        self.core()?.snapshot(name)
    }

    /// O(1) count of `name`'s result at the watermark.
    pub fn count(&self, name: &str) -> Result<u64, CqError> {
        self.core()?.count(name)
    }

    /// A lock-free [`PinReader`] over `name` — constant-delay
    /// enumeration against a pinned epoch, never blocked by the apply
    /// stream. Its first pin is already at the watermark: the epoch is
    /// freshened under the read guard that hands out the reader, and
    /// from then on the applier keeps it fresh (see the
    /// [module docs](self)). The reader follows the core it was taken
    /// from; after a re-bootstrap, take a new one.
    pub fn reader(&self, name: &str) -> Result<PinReader, CqError> {
        self.core()?.read_shard(name, |s| {
            s.query(name).map(|h| {
                // The locked pin path: republishes a stale epoch.
                h.snapshot();
                h.pin_reader()
            })
        })?
    }

    /// Subscribes to `name`'s result deltas as the replica applies the
    /// leader's commits. Seq stamps match the leader's timeline.
    pub fn subscribe(&self, name: &str) -> Result<Subscription, CqError> {
        self.core()?.subscribe(name)
    }

    /// Resumes a subscription from a seq cursor, netting missed deltas
    /// from the retention ring where possible.
    pub fn subscribe_from(&self, name: &str, from_seq: u64) -> Result<Resume, CqError> {
        self.core()?.subscribe_from(name, from_seq)
    }

    /// Nets the retained deltas of `name` since `from_seq` (the replay
    /// half of [`ReplicaSession::subscribe_from`]).
    pub fn replay_since(&self, name: &str, from_seq: u64) -> Result<ReplayOutcome, CqError> {
        self.core()?.replay_since(name, from_seq)
    }

    /// The replica's state as a [`SharedSession`] (single-writer
    /// leaders). Read from it freely; never write through it — replicas
    /// are read-only by construction. A `PinReader` taken through this
    /// handle is kept fresh like any other, but only
    /// [`ReplicaSession::reader`] freshens the epoch it hands out.
    pub fn shared(&self) -> Option<SharedSession> {
        let core = self.shared.backend().filter(ShardedSession::is_open)?;
        Some(SharedSession { core })
    }

    /// The replica's state as a [`ShardedSession`] (sharded leaders).
    /// Same contract as [`ReplicaSession::shared`]: reads only.
    pub fn sharded(&self) -> Option<ShardedSession> {
        self.shared.backend().filter(|core| !core.is_open())
    }
}

impl std::fmt::Debug for ReplicaSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSession")
            .field("applied_seq", &self.applied_seq())
            .field("epoch", &self.epoch())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Picks the follower to promote after a leader failure: the live
/// follower with the highest `(epoch, acked_seq)` — the most caught-up
/// view of the timeline — with the lowest attach id breaking exact
/// ties, so every observer of the same progress snapshot names the
/// same candidate.
///
/// `dead_after` is the liveness horizon (the leader-side mirror of
/// [`FollowerConfig::dead_after`]): followers whose ack stream has been
/// silent longer are presumed dead and skipped. `None` considers every
/// follower. Returns `None` when no follower qualifies.
pub fn promotion_candidate(
    followers: &[FollowerProgress],
    dead_after: Option<Duration>,
) -> Option<&FollowerProgress> {
    followers
        .iter()
        .filter(|f| dead_after.is_none_or(|horizon| f.silent_for <= horizon))
        .max_by_key(|f| (f.epoch, f.acked_seq, std::cmp::Reverse(f.id)))
}

/// Adapts a [`DurableSession`] to the leader-side replication contract.
struct LeaderSource(Arc<DurableSession>);

impl cqu_repl::ReplSource for LeaderSource {
    fn attach(&self, queue: Arc<cqu_repl::ShipQueue>) -> Result<cqu_repl::Attach, String> {
        self.0.attach_follower(queue).map_err(err_str)
    }

    fn detach(&self, id: u64) {
        self.0.detach_follower(id);
    }
}

/// The leader's replication listener: binds a TCP port and ships the
/// session's WAL to every connecting [`ReplicaSession`]. Dropping it
/// stops the listener and tears down follower connections (followers
/// reconnect and resume when a new server binds).
pub struct ReplicationServer {
    inner: cqu_repl::LeaderServer,
}

impl ReplicationServer {
    /// Starts shipping `session`'s log on `addr` (use port 0 for an
    /// OS-assigned port).
    ///
    /// When [`LeaderConfig::registry`] is unset, the session's own
    /// registry (from [`DurableOptions::registry`]) is used, so one
    /// scrape carries the `repl_leader_*` series alongside the WAL and
    /// session metrics.
    pub fn bind(
        addr: impl std::net::ToSocketAddrs,
        session: Arc<DurableSession>,
        mut config: LeaderConfig,
    ) -> io::Result<ReplicationServer> {
        if config.registry.is_none() {
            config.registry = session.registry();
        }
        Ok(ReplicationServer {
            inner: cqu_repl::LeaderServer::bind(addr, Arc::new(LeaderSource(session)), config)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Leader counters (attached followers, resumes, bootstraps, …).
    pub fn stats(&self) -> LeaderStats {
        self.inner.stats()
    }

    /// A progress snapshot of every attached follower: attach id,
    /// address, greeted epoch, highest acked seq, and how long its ack
    /// stream has been silent. Feed this to [`promotion_candidate`] to
    /// pick a failover target deterministically.
    pub fn followers(&self) -> Vec<FollowerProgress> {
        self.inner.followers()
    }

    /// Stops the listener and joins its threads (also happens on drop).
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

impl std::fmt::Debug for ReplicationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}
