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
//! [`PinReader`]: crate::session::PinReader
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
//! is applied before the watermark moves past it. A replica reads
//! through the one read face, [`Reads`], whose core is its current
//! mirror of the leader's; until the first bootstrap lands, every read
//! fails with [`CqError::NotBootstrapped`]. After `wait_for_seq(s)`
//! returns:
//!
//! * **Locked reads** ([`Reads::snapshot`], [`Reads::count`], the
//!   subscription calls) observe precisely `timeline[s']` for some
//!   `s' ≥ s` on the leader's one true timeline.
//! * **Lock-free pins** of a q-hierarchical query, through a
//!   [`PinReader`] from [`Reads::reader`], are at `≥ s` as well.
//!   Acquiring a reader freshens its epoch, and from then on the
//!   applier publishes it after every applied run and *before* it
//!   announces the watermark. (A pin's `seq()` stamp moves with the
//!   commits that touch its query's relations; across the others the
//!   result is unchanged and so is the epoch.) A reader follows the
//!   core it was taken from: after a re-bootstrap, take a new one.
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
//! component per commit, as a retained pin does on the leader. Forcing
//! the seq counter across a jump (`Session::force_seq`: after a
//! checkpoint load, over a `SeqBurn`, over a gap) publishes nothing.
//!
//! ## Bootstrap, resume, epochs
//!
//! A fresh follower (or one whose cursor fell behind the leader's
//! checkpoint floor) is **bootstrapped**: the leader streams its newest
//! checkpoint body in bounded chunks and the record tail follows. A
//! follower that disconnects briefly **resumes**: it offers its
//! `(epoch, cursor)` and receives only records past the cursor. Epochs
//! fence leader restarts — a restarted leader may have truncated an
//! un-fsynced suffix whose seqs were reassigned, so a cursor from an
//! older epoch is never resumed, only re-bootstrapped.
//!
//! Checkpoint and records go to the crate's one log-replay machine
//! (`src/replay.rs`), the same one crash recovery feeds from a directory
//! scan: one set of rules for DDL, seq filtering, transaction groups and
//! the landing check, so a replica's engine states, relation ids and
//! subscriber seq stamps match the leader's exactly. This module owns
//! only what is a replica's: the mirror readers look through, watched
//! publication, the watermark, and epoch poisoning.
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

use crate::durable::{DurableError, DurableOptions, DurableSession};
use crate::error::CqError;
use crate::replay::{Reg, Replay};
use crate::shard::{Reads, ShardedSession};
use cqu_repl::ReplicaApply;
use cqu_wal::{Rec, WalDir};
use std::borrow::Cow;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
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
    /// so cursor replay ([`Reads::replay_since`]) and the
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
#[derive(Default)]
struct ReplicaShared {
    /// The mirror readers look through: the live session core (`None`
    /// until the first bootstrap completes; swapped wholesale on
    /// re-bootstrap; its form mirrors the leader's mode) and the
    /// registrations behind it, which [`ReplicaSession::promote`] needs
    /// to seed a checkpoint without the applier thread.
    built: RwLock<(Option<ShardedSession>, Vec<Reg>)>,
    /// The applied watermark, guarded for [`ReplicaSession::wait_for_seq`].
    applied: Mutex<u64>,
    bumped: Condvar,
    /// The leader epoch the current state was built against.
    epoch: AtomicU64,
}

impl ReplicaShared {
    fn built(&self) -> RwLockReadGuard<'_, (Option<ShardedSession>, Vec<Reg>)> {
        self.built.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn backend(&self) -> Option<ShardedSession> {
        self.built().0.clone()
    }
}

/// The [`ReplicaApply`] implementation: the follower's end of
/// the one log-replay machine ([`Replay`]), fed from a socket where
/// crash recovery feeds it from a directory scan. What stays here is the
/// replica's own: the shared mirror readers look through, watched
/// publication and the watermark, and epoch poisoning.
struct SessionApplier {
    shared: Arc<ReplicaShared>,
    ring_cap: usize,
    /// Registry shared into every session core built here.
    registry: Option<Arc<cqu_obs::Registry>>,
    /// `None` until the first bootstrap; replaced on every re-bootstrap.
    replay: Option<Replay>,
}

impl SessionApplier {
    /// Shows readers the machine's core and registrations as they stand.
    fn mirror(&self) {
        let built = match &self.replay {
            Some(replay) => (replay.core().cloned(), replay.regs().to_vec()),
            None => (None, Vec::new()),
        };
        *self
            .shared
            .built
            .write()
            .unwrap_or_else(PoisonError::into_inner) = built;
    }

    /// Raises the watermark to the machine's cursor.
    fn announce(&self) -> u64 {
        let cursor = self.cursor();
        let mut applied = lock(&self.shared.applied);
        if cursor > *applied {
            *applied = cursor;
            self.shared.bumped.notify_all();
        }
        cursor
    }

    /// Announces the watermark, after mirroring what the machine built
    /// and publishing the epochs lock-free readers are watching
    /// ([`ShardedSession::publish_watched`]): a pin taken after
    /// `wait_for_seq(s)` returns must already be at `s`.
    fn publish_applied(&self) -> Result<u64, String> {
        if let Some(replay) = &self.replay {
            // Between bootstraps only DDL and a deferred sealed build
            // change what the mirror shows, and both change its shape.
            let shown = {
                let built = self.shared.built();
                (built.0.is_some(), built.1.len())
            };
            if shown != (replay.core().is_some(), replay.regs().len()) {
                self.mirror();
            }
            if let Some(core) = replay.core() {
                core.publish_watched().map_err(err_str)?;
            }
        }
        Ok(self.announce())
    }
}

impl ReplicaApply for SessionApplier {
    fn reset(&mut self, sharded: bool, checkpoint: Option<(u64, Vec<u8>)>) -> Result<(), String> {
        // Readers of the old core keep their pins; new reads wait for
        // the bootstrap.
        self.replay = None;
        self.mirror();
        let replay = Replay::bootstrap(sharded, checkpoint, self.ring_cap, self.registry.clone())
            .map_err(err_str)?;
        let cursor = replay.cursor();
        self.replay = Some(replay);
        self.mirror();
        // A re-bootstrap may land behind the old state (a promoted
        // leader's cut), so the watermark drops with it here. It rises
        // to the bootstrap's seq in `set_epoch`, which the follower
        // calls next: a reader that saw `wait_for_seq(s)` return must
        // find the epoch that state was built against, not the last one.
        let mut applied = lock(&self.shared.applied);
        *applied = (*applied).min(cursor);
        Ok(())
    }

    fn apply_records(&mut self, recs: Vec<Rec>) -> Result<u64, String> {
        let res = match &mut self.replay {
            Some(replay) => replay.feed(recs).map_err(err_str),
            None => Err("records before any bootstrap".into()),
        }
        .and_then(|()| self.publish_applied());
        if res.is_err() {
            // Divergence or replay failure: poison the epoch so the
            // reconnect handshake re-bootstraps from the leader's
            // checkpoint instead of resuming atop bad state.
            self.shared.epoch.store(0, Ordering::SeqCst);
        }
        res
    }

    fn cursor(&self) -> u64 {
        self.replay.as_ref().map_or(0, Replay::cursor)
    }

    fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.shared.epoch.store(epoch, Ordering::SeqCst);
        // Announces what `reset` built, now that its epoch is on record.
        self.announce();
    }

    fn on_heartbeat(&mut self, _head_seq: u64) -> Result<u64, String> {
        // Heartbeats only flow once catch-up is fully written, so a
        // deferred sharded build can safely seal here.
        if let Some(replay) = &mut self.replay {
            replay.settle().map_err(err_str)?;
        }
        self.publish_applied()
    }

    fn on_disconnect(&mut self) {
        // Drop in-flight partial state; everything applied stays. The
        // cursor only ever covers completed work, so the resume
        // handshake re-ships whatever was dropped here.
        if let Some(replay) = &mut self.replay {
            replay.drop_open_group();
        }
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
        let shared = Arc::new(ReplicaShared::default());
        let applier = SessionApplier {
            shared: Arc::clone(&shared),
            ring_cap: options.ring_cap,
            registry: options.registry.clone(),
            replay: None,
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
            let (backend, regs) = self.shared.built().clone();
            let backend = backend.ok_or_else(|| {
                DurableError::Recovery("replica not yet bootstrapped — nothing to promote".into())
            })?;
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
}

impl Reads for ReplicaSession {
    /// The replica's current mirror of its leader's core: swapped
    /// wholesale on a re-bootstrap, and [`CqError::NotBootstrapped`]
    /// until the first bootstrap lands.
    fn core(&self) -> Result<Cow<'_, ShardedSession>, CqError> {
        let core = self.shared.backend().ok_or(CqError::NotBootstrapped)?;
        Ok(Cow::Owned(core))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that saw `wait_for_seq(s)` return pairs the watermark
    /// with `epoch()` (promotion does): a bootstrap's seq is announced
    /// once its epoch is on record, never before, and a bootstrap that
    /// lands behind the old state takes the watermark down at once.
    #[test]
    fn bootstrap_watermark_is_announced_with_its_epoch() {
        let shared = Arc::new(ReplicaShared::default());
        let mut applier = SessionApplier {
            shared: Arc::clone(&shared),
            ring_cap: 0,
            registry: None,
            replay: None,
        };
        assert!(
            applier.apply_records(Vec::new()).is_err(),
            "no bootstrap yet"
        );
        let body = crate::replay::encode_ckpt_body(false, &[], &cqu_query::Schema::new(), |_| {
            (0, Vec::new())
        });
        applier.reset(false, Some((5, body.clone()))).unwrap();
        assert!(shared.backend().is_some(), "the mirror shows the bootstrap");
        assert_eq!(*lock(&shared.applied), 0, "not announced before its epoch");
        applier.set_epoch(7);
        assert_eq!(*lock(&shared.applied), 5);
        assert_eq!(applier.cursor(), 5);

        applier.reset(false, Some((3, body))).unwrap();
        assert_eq!(*lock(&shared.applied), 3, "a cut behind drops at once");
        applier.set_epoch(8);
        assert_eq!((*lock(&shared.applied), applier.epoch()), (3, 8));
    }
}
