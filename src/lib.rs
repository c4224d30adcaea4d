//! # cq-updates
//!
//! A Rust implementation of **Answering Conjunctive Queries under Updates**
//! (Christoph Berkholz, Jens Keppeler, Nicole Schweikardt; PODS 2017,
//! arXiv:1702.06370).
//!
//! The paper classifies conjunctive queries by whether their results can be
//! maintained under single-tuple inserts and deletes. Its central notion is
//! the **q-hierarchical** query: for such queries a data structure exists
//! with linear preprocessing, *constant* update time, *constant-delay*
//! enumeration and O(1) counting — and (conditionally on the OMv and OV
//! conjectures) for everything else no such structure can exist.
//!
//! The front door is the [`session`] API: a [`Session`]
//! registers many named queries, routes each to the best engine via the
//! dichotomy classifier (the paper's Theorems 1.1–1.3 as a dispatch rule),
//! fans updates out to all of them — singly, batched, or transactionally —
//! and publishes per-update result deltas to subscribers. When aggregate
//! write throughput outgrows one serialized writer, the [`shard`] API
//! ([`ShardedSession`]) partitions the query set
//! into footprint shards whose updates commit in parallel while every
//! query stays exact on one global timeline.
//!
//! ## Quickstart
//!
//! ```
//! use cq_updates::prelude::*;
//!
//! let mut session = Session::new();
//!
//! // Register named queries; the classifier picks each engine. The first
//! // is q-hierarchical (constant-time updates, Theorem 3.2); the second
//! // is the paper's canonical hard query and falls back to delta-IVM.
//! session.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
//! session.register("triads", "Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
//! assert_eq!(session.query("pairs").unwrap().kind(), EngineKind::QHierarchical);
//! assert_eq!(session.query("triads").unwrap().kind(), EngineKind::DeltaIvm);
//!
//! // One update stream feeds every registered query.
//! let e = session.relation("E").unwrap();
//! let t = session.relation("T").unwrap();
//! let report = session.apply_batch(&[
//!     Update::Insert(e, vec![1, 2]),
//!     Update::Insert(t, vec![2]),
//! ]).unwrap();
//! assert_eq!(report.applied, 2);
//!
//! let pairs = session.query("pairs").unwrap();
//! assert_eq!(pairs.count(), 1);                        // O(1)
//! assert_eq!(pairs.results_sorted(), vec![vec![1, 2]]); // constant delay
//!
//! // Change feeds surface per-update result deltas.
//! let feed = pairs.subscribe();
//! session.apply(&Update::Delete(t, vec![2])).unwrap();
//! assert_eq!(feed.poll().unwrap().removed, vec![vec![1, 2]]);
//! assert_eq!(session.query("pairs").unwrap().count(), 0);
//! ```
//!
//! The engine layer remains available for direct use:
//!
//! * [`query`] — query AST/parser, q-hierarchical checks, q-trees, cores,
//!   and the dichotomy classifier (`cqu-query`).
//! * [`storage`] — databases, updates, indexes, workloads
//!   (`cqu-storage`).
//! * [`dynamic`] — the paper's dynamic engine (`cqu-dynamic`).
//! * [`baseline`] — delta-IVM (the session's fallback), and the
//!   recompute / semi-join oracles outside the session (`cqu-baseline`).
//! * [`lowerbounds`] — OMv/OuMv/OV and the hardness reductions
//!   (`cqu-lowerbounds`).
//! * [`serve`] / [`serving`] — the streaming subscription server: a TCP
//!   front end with resumable seq cursors, per-client backpressure, and
//!   one-serialization fan-out (`cqu-serve`).
//! * [`replica`] / [`repl`] — log-shipping read replicas: the leader
//!   streams committed WAL records (with checkpoint transfer for
//!   catch-up) to follower sessions that serve reads at an explicit
//!   `applied_seq()` watermark (`cqu-repl`).
//! * [`obs`] — the observability core: a lock-free metrics registry
//!   (counters, gauges, log2-bucket histograms), a bounded structural
//!   event journal, and a Prometheus-style text exposition, shared by
//!   every layer above through `Registry` handles (`cqu-obs`).

#![warn(missing_docs)]

pub mod durable;
pub mod error;
mod replay;
pub mod replica;
pub mod serve;
pub mod session;
pub mod shard;

pub use cqu_baseline as baseline;
pub use cqu_common as common;
pub use cqu_dynamic as dynamic;
pub use cqu_lowerbounds as lowerbounds;
pub use cqu_obs as obs;
pub use cqu_query as query;
pub use cqu_repl as repl;
pub use cqu_serve as serving;
pub use cqu_storage as storage;
pub use cqu_wal as wal;

pub use durable::{DurableError, DurableOptions, DurableSession};
pub use error::CqError;
pub use replica::{promotion_candidate, ReplicaOptions, ReplicaSession, ReplicationServer};
pub use session::{
    BoundedSubscription, ChangeEvent, EngineChoice, QueryHandle, QueryId, QuerySnapshot,
    ReplayOutcome, Resume, RouteReason, Session, SessionTransaction, SharedSession, Subscription,
};
pub use shard::{ShardPlan, ShardSpec, ShardedSession, ShardedSessionBuilder, ShardedTransaction};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::durable::{DurableError, DurableOptions, DurableSession};
    pub use crate::error::CqError;
    pub use crate::replica::{
        promotion_candidate, DenyReason, FollowerConfig, FollowerProgress, LeaderConfig,
        ReplicaOptions, ReplicaSession, ReplicationServer,
    };
    pub use crate::serve::{ReplicaSource, ServerHandle, SessionSource, ShardedSource};
    pub use crate::session::{
        BoundedSubscription, ChangeEvent, EngineChoice, PinReader, QueryHandle, QueryId,
        QuerySnapshot, ReplayOutcome, Resume, RouteReason, Session, SessionTransaction,
        SharedSession, Subscription,
    };
    pub use crate::shard::{
        ShardPlan, ShardSpec, ShardedSession, ShardedSessionBuilder, ShardedTransaction,
    };
    pub use cqu_baseline::{DeltaIvmEngine, EngineKind, RecomputeEngine, SemiJoinEngine};
    pub use cqu_dynamic::{
        selfjoin::Phi2Engine, DynamicEngine, QhEngine, ResultDelta, ResultSnapshot, UpdateReport,
    };
    pub use cqu_obs::{Counter, Event, EventJournal, Gauge, Histogram, Registry};
    pub use cqu_query::classify::classify;
    pub use cqu_query::{
        core_of, parse_query, Classification, Query, QueryBuilder, QueryError, Schema, Var, Verdict,
    };
    pub use cqu_storage::{ApplyUpdate, Const, Database, Update, UpdateLog};
    pub use cqu_wal::{FsDir, FsyncPolicy, WalDir};
}
