//! The session core as a [`FeedSource`], plus a convenience launcher.
//!
//! `cqu-serve` stays engine-agnostic by running against a
//! [`FeedSource`], and the change feed has one vocabulary from the
//! engine to the socket ([`cqu_serve::backpressure`]): the
//! `Arc<ChangeEvent>` a commit publishes is the one the server's pump
//! receives, queues and encodes, and a resume cursor gets the session's
//! own [`ReplayOutcome`]. So this module converts
//! nothing but errors. One source body ([`CoreSource`]) serves every
//! kind through its read face ([`Reads`]) — snapshots pin epochs, feeds
//! subscribe, replay nets the per-query retention ring
//! ([`QueryHandle::retain_deltas`](crate::session::QueryHandle::retain_deltas)
//! is enabled on every query), all on the one global seq timeline, so a
//! client cannot tell the deployments apart. Only the seq a cursor is
//! compared against and remote registration differ, behind three
//! constructors:
//!
//! * [`SessionSource`] — over a [`SharedSession`]: the query set is
//!   open, so clients may even register new queries remotely.
//! * [`ShardedSource`] — over a [`ShardedSession`]: registration is
//!   rejected (the shard plan is sealed at build time).
//! * [`ReplicaSource`] — over a [`ReplicaSession`]: reads at its
//!   watermark, registration rejected (replicas are read-only).
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

use crate::durable::DurableSession;
use crate::error::CqError;
use crate::replica::ReplicaSession;
use crate::session::{ChangeEvent, ReplayOutcome, SharedSession};
use crate::shard::{Reads, ShardedSession};
use cqu_serve::server::{FeedSource, SourceError};
use cqu_serve::{Receiver, Row, ServeConfig, Server};
use served::{Served, ServedReplica};
use std::net::ToSocketAddrs;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

pub use cqu_serve::server::ServerStats;
pub use cqu_serve::{Client, ClientError, Frame, LagPolicy, Mirror, SubscribeMode};

fn source_err(e: CqError) -> SourceError {
    match e {
        CqError::UnknownQuery(name) => SourceError::UnknownQuery(name),
        CqError::DuplicateQuery(name) => SourceError::Invalid(format!("duplicate query {name:?}")),
        other => SourceError::Invalid(other.to_string()),
    }
}

/// The one serving source over a read face. `H` is the handle the
/// caller built it from: every read of the [`FeedSource`] goes through
/// its [`Reads`] face, and only the sequence number a client's cursor
/// is compared against and remote registration depend on the kind.
pub struct CoreSource<H> {
    handle: H,
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

/// Serves a [`ReplicaSession`]: a follower can front the same streaming
/// TCP protocol as its leader, which is how read throughput scales
/// horizontally — point subscribers at replicas, keep the leader for
/// writes. Reads are served at the replica's `applied_seq()` watermark
/// (eventually consistent with the leader; seq stamps stay on the
/// leader's timeline, so a client cursor is portable between leader and
/// replica front ends). Every read goes to the replica's *current*
/// core, so a re-bootstrap behind the scenes is picked up
/// transparently; before the first bootstrap a read is refused as
/// [`CqError::NotBootstrapped`], a bad request in this state, never as
/// an unknown query. Registration is rejected — replicas are read-only.
///
/// After a failover, [`ReplicaSource::handoff`] swaps the source onto
/// the promoted [`DurableSession`] without restarting the server:
/// client cursors stay valid (promotion continues the same seq
/// timeline), feeds keep flowing from the same backend, and `seq()`
/// starts tracking the new leader's commits instead of the frozen
/// follower watermark.
pub type ReplicaSource = CoreSource<ServedReplica>;

impl<H> CoreSource<H> {
    /// The wrapped session handle.
    pub fn session(&self) -> &H {
        &self.handle
    }
}

impl<H: Reads> CoreSource<H> {
    fn over(handle: H, ring_cap: usize) -> Result<CoreSource<H>, CqError> {
        handle.core()?.retain_all(ring_cap)?;
        Ok(CoreSource { handle, ring_cap })
    }
}

impl SessionSource {
    /// Wraps `session` for serving, enabling delta retention of
    /// `ring_cap` events on each of its queries.
    pub fn new(session: SharedSession, ring_cap: usize) -> Result<SessionSource, CqError> {
        CoreSource::over(session, ring_cap)
    }
}

impl ShardedSource {
    /// Wraps `session` for serving, enabling delta retention of
    /// `ring_cap` events on each query.
    pub fn new(session: Arc<ShardedSession>, ring_cap: usize) -> Result<ShardedSource, CqError> {
        CoreSource::over(session, ring_cap)
    }
}

impl ReplicaSource {
    /// Wraps `replica` for serving. Delta retention is governed by the
    /// replica's own `ring_cap` option ([`crate::replica::ReplicaOptions`]).
    pub fn new(replica: Arc<ReplicaSession>) -> ReplicaSource {
        CoreSource {
            handle: ServedReplica(RwLock::new(served::Arm::Following(replica))),
            ring_cap: 0,
        }
    }

    /// The wrapped replica, while still following (`None` once
    /// [`ReplicaSource::handoff`] has swapped in a promoted session).
    pub fn replica(&self) -> Option<Arc<ReplicaSession>> {
        match &*self.handle.arm() {
            served::Arm::Following(r) => Some(Arc::clone(r)),
            served::Arm::Promoted(_) => None,
        }
    }

    /// Swaps the source onto the session this replica promoted into
    /// (see [`ReplicaSession::promote`]). In-flight reads finish against
    /// the old arm; every later call serves from `promoted`. Idempotent
    /// in effect — handing off twice just replaces the session handle.
    pub fn handoff(&self, promoted: Arc<DurableSession>) {
        *self
            .handle
            .0
            .write()
            .unwrap_or_else(PoisonError::into_inner) = served::Arm::Promoted(promoted);
    }
}

impl<H: Served> FeedSource for CoreSource<H> {
    fn seq(&self) -> u64 {
        Served::seq(&self.handle)
    }

    fn register(&self, name: &str, src: &str) -> Result<u64, SourceError> {
        Served::register(&self.handle, name, src, self.ring_cap)
    }

    fn snapshot(&self, name: &str) -> Result<(u64, Vec<Row>), SourceError> {
        let snap = self.handle.snapshot(name).map_err(source_err)?;
        Ok((snap.seq(), snap.results_sorted()))
    }

    fn replay(&self, name: &str, from_seq: u64) -> Result<ReplayOutcome, SourceError> {
        self.handle.replay_since(name, from_seq).map_err(source_err)
    }

    fn open_feed(&self, name: &str) -> Result<Receiver<Arc<ChangeEvent>>, SourceError> {
        let sub = self.handle.subscribe(name).map_err(source_err)?;
        Ok(sub.into_receiver())
    }

    fn registry(&self) -> Option<Arc<cqu_obs::Registry>> {
        Served::registry(&self.handle)
    }
}

/// The head of a leader's core.
fn head(face: &(impl Reads + ?Sized)) -> u64 {
    face.core().map_or(0, |core| core.seq())
}

/// What differs between the kinds a [`CoreSource`] serves. Sealed: the
/// module is private, so only the handles below implement it.
mod served {
    use super::*;
    use std::borrow::Cow;

    /// A served handle's own half; the reads are its [`Reads`] face.
    pub trait Served: Reads + Send + Sync + 'static {
        /// The sequence number a client's cursor is compared against: a
        /// leader's head.
        fn seq(&self) -> u64 {
            head(self)
        }

        /// Registers a query remotely; only an open core can.
        fn register(&self, _name: &str, _src: &str, _ring_cap: usize) -> Result<u64, SourceError> {
            Err(SourceError::Unsupported(
                "a sharded session's query set is sealed at build time".into(),
            ))
        }

        /// The metrics registry the handle's engine records into.
        fn registry(&self) -> Option<Arc<cqu_obs::Registry>> {
            self.core().ok()?.registry()
        }
    }

    impl Served for SharedSession {
        fn register(&self, name: &str, src: &str, ring_cap: usize) -> Result<u64, SourceError> {
            let registered = self.write(|s| {
                let id = s.register(name, src)?;
                s.handle(id).retain_deltas(ring_cap);
                Ok(s.seq())
            });
            registered.map_err(source_err)?.map_err(source_err)
        }
    }

    impl Served for Arc<ShardedSession> {}

    /// What a [`ReplicaSource`] is currently fronting: a live follower,
    /// or the [`DurableSession`] it promoted into after a leader
    /// failover.
    pub enum Arm {
        Following(Arc<ReplicaSession>),
        Promoted(Arc<DurableSession>),
    }

    /// The handle of a [`ReplicaSource`]: its arm, swapped by
    /// [`ReplicaSource::handoff`].
    pub struct ServedReplica(pub(super) RwLock<Arm>);

    impl ServedReplica {
        pub(super) fn arm(&self) -> RwLockReadGuard<'_, Arm> {
            self.0.read().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl Reads for ServedReplica {
        fn core(&self) -> Result<Cow<'_, ShardedSession>, CqError> {
            let core = match &*self.arm() {
                Arm::Following(r) => r.core()?.into_owned(),
                Arm::Promoted(d) => d.core()?.into_owned(),
            };
            Ok(Cow::Owned(core))
        }
    }

    impl Served for ServedReplica {
        /// The follower's watermark, or the promoted leader's head.
        fn seq(&self) -> u64 {
            match &*self.arm() {
                Arm::Following(r) => r.applied_seq(),
                Arm::Promoted(d) => head(&**d),
            }
        }

        fn register(&self, _name: &str, _src: &str, _: usize) -> Result<u64, SourceError> {
            Err(SourceError::Unsupported(
                "replicas are read-only; register on the leader".into(),
            ))
        }

        /// The replica's own registry: its cores record into it, and it
        /// is there before the first bootstrap.
        fn registry(&self) -> Option<Arc<cqu_obs::Registry>> {
            match &*self.arm() {
                Arm::Following(r) => r.registry().cloned(),
                Arm::Promoted(d) => d.registry(),
            }
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
