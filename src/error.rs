//! The unified error type of the `cq-updates` facade.
//!
//! Every fallible operation on [`Session`](crate::session::Session) and
//! its handles returns [`CqError`], folding together the query-layer
//! errors (`QueryError`, `ParseError`) with the session-level failure
//! modes (unknown names, arity mismatches, duplicate registrations).

use cqu_query::{ParseError, QueryError};

/// Anything that can go wrong while using the facade API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqError {
    /// A structural query error — including
    /// [`QueryError::NotQHierarchical`] when an explicitly requested
    /// engine cannot admit the query.
    Query(QueryError),
    /// The query text failed to parse.
    Parse(ParseError),
    /// No query registered under this name.
    UnknownQuery(String),
    /// No relation with this name in the session schema.
    UnknownRelation(String),
    /// An update referred to a relation id outside the session schema.
    UnknownRelationId(u32),
    /// A query name was registered twice.
    DuplicateQuery(String),
    /// An update's tuple width does not match the relation's arity.
    Arity {
        /// The relation the update addressed.
        relation: String,
        /// Its declared arity.
        expected: usize,
        /// The offending tuple's width.
        found: usize,
    },
    /// A writer panicked while holding the shared session lock
    /// ([`SharedSession`](crate::session::SharedSession)): engines may
    /// have absorbed half an update, so the session refuses further use.
    Poisoned,
    /// A scoped shard transaction
    /// ([`ShardedSession::transaction_over`](crate::shard::ShardedSession::transaction_over))
    /// received an update for a relation outside its declared footprint.
    /// The scope is relation-granular: an undeclared relation is
    /// rejected even when it happens to live on a locked shard, and for
    /// relations on unlocked shards admitting the update would break
    /// both isolation and the canonical lock order.
    OutOfShardScope {
        /// The relation the update addressed.
        relation: String,
    },
    /// A read reached a [`ReplicaSession`](crate::replica::ReplicaSession)
    /// before its first bootstrap landed: it has no state to read yet.
    NotBootstrapped,
}

impl std::fmt::Display for CqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CqError::Query(e) => write!(f, "{e}"),
            CqError::Parse(e) => write!(f, "{e}"),
            CqError::UnknownQuery(name) => write!(f, "no query registered as {name:?}"),
            CqError::UnknownRelation(name) => {
                write!(f, "no relation {name:?} in the session schema")
            }
            CqError::UnknownRelationId(id) => {
                write!(
                    f,
                    "update addresses relation id {id} outside the session schema"
                )
            }
            CqError::DuplicateQuery(name) => {
                write!(f, "a query is already registered as {name:?}")
            }
            CqError::Arity {
                relation,
                expected,
                found,
            } => write!(
                f,
                "update tuple has {found} constants, but {relation} has arity {expected}"
            ),
            CqError::Poisoned => write!(
                f,
                "session lock poisoned: a writer panicked mid-update, engine state is suspect"
            ),
            CqError::OutOfShardScope { relation } => write!(
                f,
                "update addresses relation {relation:?} outside the transaction's declared \
                 shard footprint"
            ),
            CqError::NotBootstrapped => write!(
                f,
                "replica not yet bootstrapped: it has no state to read until its leader's \
                 checkpoint lands"
            ),
        }
    }
}

impl std::error::Error for CqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CqError::Query(e) => Some(e),
            CqError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for CqError {
    fn from(e: QueryError) -> CqError {
        CqError::Query(e)
    }
}

impl From<ParseError> for CqError {
    fn from(e: ParseError) -> CqError {
        CqError::Parse(e)
    }
}
