//! # cqu-serve — the network front end of `cq-updates`
//!
//! Everything below the [`Session`] layer answers queries in-process; this
//! crate turns those answers into a *service*: a hand-rolled `std::net`
//! TCP server speaking a length-prefixed binary protocol
//! ([`protocol::Frame`]) with **resumable cursors** over the engine's
//! global `seq` timeline.
//!
//! The load-bearing ideas, in dependency order:
//!
//! * [`ring::SeqRing`] — a bounded, seq-addressed retention ring with an
//!   explicit coverage floor. The session layer retains each query's
//!   published deltas here; a client reconnecting with `from_seq = N`
//!   gets the *netted* delta `N → now` replayed from the ring, and only
//!   falls back to a full snapshot resync when the ring has evicted `N`.
//! * [`backpressure::BoundedQueue`] — the bounded, never-blocking,
//!   coalesce-on-overflow queue in-process bounded feeds
//!   (`QueryHandle::subscribe_bounded`) are built from. The server's
//!   per-connection outbound queues (`server.rs`'s private `OutQueue`)
//!   follow the same rule: a slow consumer nets its own pending deltas
//!   (or is cut loose with a `Lagged` frame); the commit path never
//!   blocks on anyone's socket.
//! * [`protocol`] — the wire format: `Hello` / `Register` / `Query` /
//!   `Subscribe{from_seq}` / `Snapshot` / `Delta` / `Lagged` / `Ack` /
//!   `Error` frames, length-prefixed, fixed little-endian encoding.
//! * [`server::Server`] — the runtime: thread-per-connection acceptor,
//!   one fan-out pump per subscribed query (each commit is serialized
//!   **once** into shared bytes, however many subscribers receive it),
//!   per-connection bounded outbound queues with a configurable
//!   [`server::LagPolicy`].
//! * [`client::Client`] — a small blocking client (plus
//!   [`client::Mirror`], a cursor-tracking result replica) used by the
//!   tests, benches, and examples — and a reference for real clients.
//!
//! The crate is engine-agnostic: the server runs against anything
//! implementing [`server::FeedSource`] over wire-level rows
//! (`Vec<u64>`). The `cq-updates` facade provides the canonical sources
//! (`cq_updates::serve`) wrapping `SharedSession` and `ShardedSession`.
//!
//! [`Session`]: https://docs.rs/cq-updates

#![warn(missing_docs)]

pub mod backpressure;
pub mod client;
pub mod protocol;
pub mod ring;
pub mod server;

pub use backpressure::{BoundedQueue, TryRecv};
pub use client::{Client, ClientError, Mirror};
pub use protocol::{ErrorCode, Frame, Row, SubscribeMode, WireError, PROTOCOL_VERSION};
pub use ring::SeqRing;
pub use server::{
    FeedDelta, FeedPoll, FeedSource, FeedStream, LagPolicy, Replay, ServeConfig, Server,
    ServerStats, SourceError,
};
