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
//! * [`backpressure`] — the change feed's vocabulary, defined once for
//!   the session layer above and the server below: the [`ChangeEvent`] a
//!   commit publishes (one `Arc`, shared from the engine to the frame
//!   encoder), the never-blocking, coalesce-on-overflow
//!   [`BoundedQueue`] every in-process feed travels in
//!   (`QueryHandle::subscribe` is its uncapped case), its consuming end
//!   ([`Receiver`]) and poll result ([`TryRecv`]). The server's
//!   per-connection outbound queues (`server.rs`'s private `OutQueue`)
//!   follow the same rule with the same netting function: a slow
//!   consumer nets its own pending deltas (or is cut loose with a
//!   `Lagged` frame); the commit path never blocks on anyone's socket.
//! * [`ring::SeqRing`] — a bounded, seq-addressed retention ring with an
//!   explicit coverage floor. The session layer retains each query's
//!   published events here; a client reconnecting with `from_seq = N`
//!   gets the *netted* delta `N → now` replayed from the ring
//!   ([`ReplayOutcome`]), and only falls back to a full snapshot resync
//!   when the ring has evicted `N`.
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
//! implementing [`server::FeedSource`] in the vocabulary above. The
//! `cq-updates` facade provides the canonical sources
//! (`cq_updates::serve`) over its session core.
//!
//! [`Session`]: https://docs.rs/cq-updates

#![warn(missing_docs)]

pub mod backpressure;
pub mod client;
pub mod protocol;
pub mod ring;
pub mod server;

pub use backpressure::{BoundedQueue, ChangeEvent, Receiver, TryRecv};
pub use client::{Client, ClientError, Mirror};
pub use protocol::{ErrorCode, Frame, Row, SubscribeMode, WireError, PROTOCOL_VERSION};
pub use ring::{ReplayOutcome, SeqRing};
pub use server::{FeedSource, LagPolicy, ServeConfig, Server, ServerStats, SourceError};
