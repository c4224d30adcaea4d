//! The session core as a [`FeedSource`], plus a convenience launcher.
//!
//! `cqu-serve` stays engine-agnostic by running against a
//! [`FeedSource`], and the change feed has one vocabulary from the
//! engine to the socket ([`cqu_serve::backpressure`]): the
//! `Arc<ChangeEvent>` a commit publishes is the one the server's pump
//! receives, queues and encodes, and a resume cursor gets the session's
//! own [`ReplayOutcome`]. So this module converts
//! nothing but errors. One source body ([`CoreSource`]) serves the core
//! in either form — snapshots pin epochs, feeds subscribe, replay nets
//! the per-query retention ring
//! ([`QueryHandle::retain_deltas`](crate::session::QueryHandle::retain_deltas)
//! is enabled on every query), all on the one global seq timeline, so a
//! client cannot tell the deployments apart — behind two constructors:
//!
//! * [`SessionSource`] — over a [`SharedSession`]: the query set is
//!   open, so clients may even register new queries remotely.
//! * [`ShardedSource`] — over a [`ShardedSession`]: registration is
//!   rejected (the shard plan is sealed at build time).
//!
//! ```no_run
//! use cq_updates::prelude::*;
//! use std::sync::Arc;
//!
//! let session = SharedSession::new(Session::new());
//! session.register("feed", "Feed(u, v, p) :- Follows(u, v), Posts(v, p).").unwrap();
//! let source = Arc::new(SessionSource::new(session.clone(), 1024).unwrap());
//! let server = ServerHandle::bind("127.0.0.1:0", source).unwrap();
//! println!("serving on {}", server.local_addr());
//! ```

use crate::error::CqError;
use crate::session::{ChangeEvent, ReplayOutcome, SharedSession};
use crate::shard::ShardedSession;
use cqu_serve::server::{FeedSource, SourceError};
use cqu_serve::{Receiver, Row, ServeConfig, Server};
use std::net::ToSocketAddrs;
use std::sync::Arc;

pub use cqu_serve::server::ServerStats;
pub use cqu_serve::{Client, ClientError, Frame, LagPolicy, Mirror, SubscribeMode};

fn source_err(e: CqError) -> SourceError {
    match e {
        CqError::UnknownQuery(name) => SourceError::UnknownQuery(name),
        CqError::DuplicateQuery(name) => SourceError::Invalid(format!("duplicate query {name:?}")),
        other => SourceError::Invalid(other.to_string()),
    }
}

/// The one serving source over the concurrent session core. `H` is the
/// handle the caller built it from, kept only to hand it back
/// ([`SessionSource::session`] / [`ShardedSource::session`]); every
/// [`FeedSource`] call goes to the core behind it.
pub struct CoreSource<H> {
    handle: H,
    core: ShardedSession,
    ring_cap: usize,
}

/// Serves a [`SharedSession`] (see the module docs). Construction turns
/// on delta retention (`ring_cap` events per query) for every already
/// registered query; queries registered later by a remote `Register`
/// frame get it on their way in.
pub type SessionSource = CoreSource<SharedSession>;

/// Serves a [`ShardedSession`]: per-query feeds, snapshots, and replay
/// all work on the shared **global** timeline, so a client cannot tell
/// a sharded deployment from a single-writer one. Remote registration
/// is rejected — the shard plan is sealed at build time.
pub type ShardedSource = CoreSource<Arc<ShardedSession>>;

impl<H> CoreSource<H> {
    fn over(handle: H, core: ShardedSession, ring_cap: usize) -> Result<CoreSource<H>, CqError> {
        core.retain_all(ring_cap)?;
        Ok(CoreSource {
            handle,
            core,
            ring_cap,
        })
    }

    /// The wrapped session handle.
    pub fn session(&self) -> &H {
        &self.handle
    }
}

impl SessionSource {
    /// Wraps `session` for serving, enabling delta retention of
    /// `ring_cap` events on each of its queries.
    pub fn new(session: SharedSession, ring_cap: usize) -> Result<SessionSource, CqError> {
        let core = session.core.clone();
        CoreSource::over(session, core, ring_cap)
    }
}

impl ShardedSource {
    /// Wraps `session` for serving, enabling delta retention of
    /// `ring_cap` events on each query.
    pub fn new(session: Arc<ShardedSession>, ring_cap: usize) -> Result<ShardedSource, CqError> {
        let core = ShardedSession::clone(&session);
        CoreSource::over(session, core, ring_cap)
    }
}

impl<H: Send + Sync + 'static> FeedSource for CoreSource<H> {
    fn seq(&self) -> u64 {
        self.core.seq()
    }

    fn register(&self, name: &str, src: &str) -> Result<u64, SourceError> {
        if !self.core.is_open() {
            return Err(SourceError::Unsupported(
                "a sharded session's query set is sealed at build time".into(),
            ));
        }
        let registered = self.core.write_at(0, |s| {
            let id = s.register(name, src)?;
            s.handle(id).retain_deltas(self.ring_cap);
            Ok(s.seq())
        });
        registered.map_err(source_err)?.map_err(source_err)
    }

    fn snapshot(&self, name: &str) -> Result<(u64, Vec<Row>), SourceError> {
        let snap = self.core.snapshot(name).map_err(source_err)?;
        Ok((snap.seq(), snap.results_sorted()))
    }

    fn replay(&self, name: &str, from_seq: u64) -> Result<ReplayOutcome, SourceError> {
        self.core.replay_since(name, from_seq).map_err(source_err)
    }

    fn open_feed(&self, name: &str) -> Result<Receiver<Arc<ChangeEvent>>, SourceError> {
        let sub = self.core.subscribe(name).map_err(source_err)?;
        Ok(sub.into_receiver())
    }

    fn registry(&self) -> Option<Arc<cqu_obs::Registry>> {
        self.core.registry()
    }
}

/// What a [`ReplicaSource`] is currently fronting: a live follower, or
/// the [`DurableSession`](crate::durable::DurableSession) it promoted
/// into after a leader failover.
enum ServedReplica {
    Following(Arc<crate::replica::ReplicaSession>),
    Promoted(Arc<crate::durable::DurableSession>),
}

/// Serves a [`ReplicaSession`](crate::replica::ReplicaSession): a
/// follower can front the same streaming TCP protocol as its leader,
/// which is how read throughput scales horizontally — point subscribers
/// at replicas, keep the leader for writes. Reads are served at the
/// replica's `applied_seq()` watermark (eventually consistent with the
/// leader; seq stamps stay on the leader's timeline, so a client cursor
/// is portable between leader and replica front ends). Delegates to the
/// replica's *current* backend per call, so a re-bootstrap behind the
/// scenes is picked up transparently. Registration is rejected —
/// replicas are read-only.
///
/// After a failover, [`ReplicaSource::handoff`] swaps the source onto
/// the promoted [`DurableSession`](crate::durable::DurableSession)
/// without restarting the server: client cursors stay valid (promotion
/// continues the same seq timeline), feeds keep flowing from the same
/// backend, and `seq()` starts tracking the new leader's commits
/// instead of the frozen follower watermark.
pub struct ReplicaSource {
    inner: std::sync::RwLock<ServedReplica>,
}

impl ReplicaSource {
    /// Wraps `replica` for serving. Delta retention is governed by the
    /// replica's own `ring_cap` option ([`crate::replica::ReplicaOptions`]).
    pub fn new(replica: Arc<crate::replica::ReplicaSession>) -> ReplicaSource {
        ReplicaSource {
            inner: std::sync::RwLock::new(ServedReplica::Following(replica)),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, ServedReplica> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The wrapped replica, while still following (`None` once
    /// [`ReplicaSource::handoff`] has swapped in a promoted session).
    pub fn replica(&self) -> Option<Arc<crate::replica::ReplicaSession>> {
        match &*self.read() {
            ServedReplica::Following(r) => Some(Arc::clone(r)),
            ServedReplica::Promoted(_) => None,
        }
    }

    /// Swaps the source onto the session this replica promoted into
    /// (see [`ReplicaSession::promote`](crate::replica::ReplicaSession::promote)).
    /// In-flight reads finish against the old arm; every later call
    /// serves from `promoted`. Idempotent in effect — handing off twice
    /// just replaces the session handle.
    pub fn handoff(&self, promoted: Arc<crate::durable::DurableSession>) {
        *self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = ServedReplica::Promoted(promoted);
    }
}

impl ReplicaSource {
    /// The session core currently served: the follower's live one (a
    /// re-bootstrap swaps it), or the promoted leader's.
    fn core(&self) -> Result<ShardedSession, SourceError> {
        match &*self.read() {
            ServedReplica::Following(r) => r.core().map_err(source_err),
            ServedReplica::Promoted(d) => Ok(d.core().clone()),
        }
    }
}

impl FeedSource for ReplicaSource {
    fn seq(&self) -> u64 {
        match &*self.read() {
            ServedReplica::Following(r) => r.applied_seq(),
            ServedReplica::Promoted(d) => d.core().seq(),
        }
    }

    fn register(&self, _name: &str, _src: &str) -> Result<u64, SourceError> {
        Err(SourceError::Unsupported(
            "replicas are read-only; register on the leader".into(),
        ))
    }

    fn snapshot(&self, name: &str) -> Result<(u64, Vec<Row>), SourceError> {
        let snap = self.core()?.snapshot(name).map_err(source_err)?;
        Ok((snap.seq(), snap.results_sorted()))
    }

    fn replay(&self, name: &str, from_seq: u64) -> Result<ReplayOutcome, SourceError> {
        let outcome = self.core()?.replay_since(name, from_seq);
        outcome.map_err(source_err)
    }

    fn open_feed(&self, name: &str) -> Result<Receiver<Arc<ChangeEvent>>, SourceError> {
        let sub = self.core()?.subscribe(name).map_err(source_err)?;
        Ok(sub.into_receiver())
    }

    fn registry(&self) -> Option<Arc<cqu_obs::Registry>> {
        match &*self.read() {
            ServedReplica::Following(r) => r.registry().cloned(),
            ServedReplica::Promoted(d) => d.registry(),
        }
    }
}

/// A running server plus its address — the convenience most callers
/// want (see [`cqu_serve::Server`] for the full API).
pub struct ServerHandle {
    server: Server,
}

impl ServerHandle {
    /// Binds a server with default [`ServeConfig`] over any source.
    pub fn bind(
        addr: impl ToSocketAddrs,
        source: Arc<dyn FeedSource>,
    ) -> std::io::Result<ServerHandle> {
        Self::bind_with(addr, source, ServeConfig::default())
    }

    /// Binds with explicit tuning.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        source: Arc<dyn FeedSource>,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            server: Server::bind(addr, source, config)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// The metrics registry the server publishes into — the source's
    /// own registry when it has one (so WAL/session/replication series
    /// share the scrape), else a private server-only registry.
    pub fn registry(&self) -> Arc<cqu_obs::Registry> {
        self.server.registry()
    }

    /// Stops the server and joins its threads (also happens on drop).
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.server.fmt(f)
    }
}
