//! The one read face, [`Reads`]: every name-keyed read of the session
//! core, written once.

use super::ShardedSession;
use crate::error::CqError;
use crate::session::{
    BoundedSubscription, PinReader, QueryId, QuerySnapshot, ReplayOutcome, Resume, Subscription,
};
use cqu_query::RelId;
use std::borrow::Cow;
use std::sync::Arc;

/// The name-keyed read surface of every session kind.
///
/// Every session kind is a [`ShardedSession`] underneath — the open
/// one-shard form behind [`SharedSession`](crate::SharedSession) and a
/// single-mode [`DurableSession`](crate::DurableSession), a sealed plan
/// behind a sharded one, and a [`ReplicaSession`](crate::ReplicaSession)'s
/// current mirror of its leader's. So a kind implements one method,
/// [`Reads::core`], and every read below is that core's, whatever the
/// kind: the same locks, the same epoch freshening, the same errors.
///
/// Apart from [`Reads::relation`] and [`Reads::core`], every read takes
/// the read lock of the query's shard for as long as the call runs, so
/// none of them may be called inside a transaction closure that holds
/// that shard: it would wait on its own caller.
///
/// ```
/// use cq_updates::prelude::*;
///
/// let shared = SharedSession::new(Session::new());
/// shared.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
/// let e = shared.relation("E").unwrap();
/// let t = shared.relation("T").unwrap();
/// shared.apply_batch(&[Update::Insert(e, vec![1, 2]), Update::Insert(t, vec![2])]).unwrap();
///
/// // One body per read, whichever kind serves it.
/// fn total(face: &dyn Reads) -> u64 {
///     face.count("pairs").unwrap()
/// }
/// assert_eq!(total(&shared), 1);
/// assert_eq!(shared.reader("pairs").unwrap().pin().count(), 1);
/// ```
pub trait Reads {
    /// The session core serving reads now: a leader's own, or a
    /// replica's current mirror of its leader's — which fails with
    /// [`CqError::NotBootstrapped`] until the first bootstrap lands.
    /// Read through it; write through the kind itself, since a durable
    /// session logs and a replica is read-only.
    fn core(&self) -> Result<Cow<'_, ShardedSession>, CqError>;

    /// Resolves a relation by name. Takes no shard lock, so it may be
    /// called inside a transaction closure.
    fn relation(&self, name: &str) -> Result<RelId, CqError> {
        let core = self.core()?;
        let found = if core.inner.open {
            let names = core
                .inner
                .open_names
                .read()
                .map_err(|_| CqError::Poisoned)?;
            names.relation(name)
        } else {
            core.inner.schema.relation(name)
        };
        found.ok_or_else(|| CqError::UnknownRelation(name.to_string()))
    }

    /// The id the shard session assigned to `name` at registration.
    fn query_id(&self, name: &str) -> Result<QueryId, CqError> {
        self.core()?
            .read_shard(name, |s| s.query(name).map(|h| h.id()))?
    }

    /// Pins a snapshot of `name`'s current result; the shard read lock
    /// is held only for the pin itself. See
    /// [`QueryHandle::snapshot`](crate::session::QueryHandle::snapshot).
    fn snapshot(&self, name: &str) -> Result<QuerySnapshot, CqError> {
        self.core()?
            .read_shard(name, |s| s.query(name).map(|h| h.snapshot()))?
    }

    /// O(1) count of `name`'s current result.
    fn count(&self, name: &str) -> Result<u64, CqError> {
        self.core()?
            .read_shard(name, |s| s.query(name).map(|h| h.count()))?
    }

    /// Acquires a lock-free [`PinReader`] on `name`: one shard read lock
    /// now, then every [`PinReader::pin`] is a single atomic load that
    /// touches no lock of any shard, ever. Acquisition freshens the
    /// epoch ([`QueryHandle::pin_reader`](crate::session::QueryHandle::pin_reader)),
    /// so the first pin is the current result; a writer committing back
    /// to back lets a waiting acquisition in before its next commit.
    /// Acquire readers up front, like prepared statements, and hand
    /// clones to serving threads. A reader follows the core it was taken
    /// from: after a replica re-bootstraps, take a new one.
    fn reader(&self, name: &str) -> Result<PinReader, CqError> {
        let core = self.core()?;
        let shard = &core.inner.shards[core.shard_of_query(name)?];
        let session = shard.read_announced().map_err(|_| CqError::Poisoned)?;
        session.query(name).map(|h| h.pin_reader())
    }

    /// Opens a change feed on `name` (see
    /// [`QueryHandle::subscribe`](crate::session::QueryHandle::subscribe)).
    /// Events carry global `seq` stamps.
    fn subscribe(&self, name: &str) -> Result<Subscription, CqError> {
        self.core()?
            .read_shard(name, |s| s.query(name).map(|h| h.subscribe()))?
    }

    /// Opens a bounded, lag-coalescing change feed on `name` (see
    /// [`QueryHandle::subscribe_bounded`](crate::session::QueryHandle::subscribe_bounded)).
    fn subscribe_bounded(&self, name: &str, cap: usize) -> Result<BoundedSubscription, CqError> {
        self.core()?
            .read_shard(name, |s| s.query(name).map(|h| h.subscribe_bounded(cap)))?
    }

    /// Enables (or resizes) delta retention on `name` (see
    /// [`QueryHandle::retain_deltas`](crate::session::QueryHandle::retain_deltas)).
    /// Ring entries are keyed by *global* seq, so resume cursors work
    /// identically on every kind.
    fn retain_deltas(&self, name: &str, cap: usize) -> Result<(), CqError> {
        self.core()?
            .read_shard(name, |s| s.query(name).map(|h| h.retain_deltas(cap)))?
    }

    /// Nets the retained delta stream of `name` after `from_seq` (see
    /// [`QueryHandle::replay_since`](crate::session::QueryHandle::replay_since)).
    fn replay_since(&self, name: &str, from_seq: u64) -> Result<ReplayOutcome, CqError> {
        self.core()?
            .read_shard(name, |s| s.query(name).map(|h| h.replay_since(from_seq)))?
    }

    /// Resumes a change feed on `name` from a cursor (see
    /// [`QueryHandle::subscribe_from`](crate::session::QueryHandle::subscribe_from)).
    /// The replay and the feed attachment happen under one shard read
    /// guard, so no commit falls between them.
    fn subscribe_from(&self, name: &str, from_seq: u64) -> Result<Resume, CqError> {
        self.core()?
            .read_shard(name, |s| s.query(name).map(|h| h.subscribe_from(from_seq)))?
    }

    /// [`Session::check_invariants`](crate::Session::check_invariants) on
    /// every shard, each against its own database, under read guards
    /// taken together.
    fn check_invariants(&self) -> Result<(), String> {
        self.core()
            .map_err(|e| e.to_string())?
            .read_all(|guards| guards.iter().try_for_each(|g| g.check_invariants()))
            .map_err(|e| e.to_string())?
    }
}

impl Reads for ShardedSession {
    fn core(&self) -> Result<Cow<'_, ShardedSession>, CqError> {
        Ok(Cow::Borrowed(self))
    }
}

impl<R: Reads + ?Sized> Reads for Arc<R> {
    fn core(&self) -> Result<Cow<'_, ShardedSession>, CqError> {
        (**self).core()
    }
}
