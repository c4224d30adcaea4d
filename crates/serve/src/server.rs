//! The server runtime: acceptor, connection state machines, and
//! per-query fan-out pumps.
//!
//! # Architecture
//!
//! ```text
//!                    ┌────────────────────────────┐
//!  commits ──────────▶ FeedSource (session layer)  │
//!                    └──────┬─────────────────────┘
//!                           │ one feed (Receiver) per subscribed query
//!                    ┌──────▼──────┐   encode ONCE per commit
//!                    │ fan-out pump │──▶ Arc<[u8]> ────┬──────────┐
//!                    └─────────────┘                   ▼          ▼
//!                                                 conn A queue  conn B queue
//!                                                 (bounded)     (bounded)
//!                                                      │          │
//!                                                 writer thread  writer thread
//!                                                      ▼          ▼
//!                                                   socket      socket
//! ```
//!
//! Each connection runs two threads: a **reader** executing client
//! commands and a **writer** draining the connection's bounded outbound
//! queue onto the socket. Fan-out pumps never touch sockets — they push
//! pre-encoded shared bytes into outbound queues, so one commit costs
//! one serialization regardless of subscriber count, and a stalled
//! socket can only ever back up its own connection's queue.
//!
//! When a queue overflows, the configured [`LagPolicy`] applies *to the
//! lagging subscription only*: `Coalesce` nets that query's pending
//! deltas into one exact catch-up delta (bounded memory, coarser
//! granularity); `Disconnect` drops them and sends `Lagged{resync_at}`,
//! detaching the subscription — the client re-subscribes with its
//! cursor and the retention ring nets the gap. Under both policies the
//! commit path never blocks.

use crate::backpressure::{ChangeEvent, Receiver, TryRecv};
use crate::protocol::{
    encode_delta_frame, encode_snapshot_frames, read_frame, snapshot_frames, ErrorCode, Frame, Row,
    SubscribeMode, PROTOCOL_VERSION,
};
use crate::ring::ReplayOutcome;
use cqu_obs::{Counter, Gauge, Registry};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long blocking loops (pumps, writers, the acceptor's connect
/// nudge) wait before re-checking the shutdown flag.
const TICK: Duration = Duration::from_millis(50);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a [`FeedSource`] operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// No query registered under that name.
    UnknownQuery(String),
    /// The source cannot do this (e.g. registration on a sealed source).
    Unsupported(String),
    /// The request was understood but invalid (bad query text, …).
    Invalid(String),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::UnknownQuery(name) => write!(f, "unknown query {name:?}"),
            SourceError::Unsupported(what) => write!(f, "unsupported: {what}"),
            SourceError::Invalid(what) => write!(f, "invalid request: {what}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl SourceError {
    fn code(&self) -> ErrorCode {
        match self {
            SourceError::UnknownQuery(_) => ErrorCode::UnknownQuery,
            SourceError::Unsupported(_) => ErrorCode::Unsupported,
            SourceError::Invalid(_) => ErrorCode::BadRequest,
        }
    }
}

/// The engine-side contract the server runs against, in the feed's own
/// vocabulary ([`crate::backpressure`], [`crate::ring`]): the events a
/// source publishes are the events the server queues. The `cq-updates`
/// facade implements it over its session core.
///
/// Seq discipline: [`FeedSource::snapshot`] pins `(seq, rows)` frames
/// that are exact cuts of the update timeline, per-query events carry
/// strictly increasing seqs, and [`FeedSource::replay`] nets retained
/// events after a cursor. The server's resume correctness leans on one
/// invariant: *a delta is either covered by a replay computed after it
/// was published, or arrives on a feed opened before it was published* —
/// which holds because sources publish to retention and feeds
/// atomically.
pub trait FeedSource: Send + Sync + 'static {
    /// The current global sequence number.
    fn seq(&self) -> u64;

    /// Registers a query; returns the seq it was registered at.
    fn register(&self, name: &str, src: &str) -> Result<u64, SourceError>;

    /// Pins the query's current result as an exact `(seq, rows)` frame.
    fn snapshot(&self, name: &str) -> Result<(u64, Vec<Row>), SourceError>;

    /// Nets the retained events of `name` after `from_seq`.
    fn replay(&self, name: &str, from_seq: u64) -> Result<ReplayOutcome, SourceError>;

    /// Opens a live feed of `name`'s events. The server opens exactly
    /// one per subscribed query (the fan-out pump) however many clients
    /// subscribe; dropping it detaches it from the source.
    fn open_feed(&self, name: &str) -> Result<Receiver<Arc<ChangeEvent>>, SourceError>;

    /// The metrics registry the source's engine records into, if any.
    /// When [`ServeConfig::registry`] is unset the server adopts this
    /// one, so a `StatsRequest` renders engine and server metrics in
    /// one scrape.
    fn registry(&self) -> Option<Arc<Registry>> {
        None
    }
}

/// What to do with a subscription whose connection queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LagPolicy {
    /// Net the subscription's pending deltas (plus the new one) into a
    /// single exact catch-up delta. Memory stays bounded; a lagging
    /// client sees coarser deltas, never stale or lost ones.
    #[default]
    Coalesce,
    /// Drop the pending deltas and detach the subscription with
    /// `Lagged{resync_at}`; the client re-subscribes with its cursor and
    /// the retention ring nets the gap.
    Disconnect,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-connection outbound queue capacity (frames) before the lag
    /// policy fires for the pushing subscription.
    pub queue_cap: usize,
    /// Hard per-connection bound: if the queue somehow reaches this many
    /// frames (e.g. a client that sends commands without ever reading),
    /// the connection is torn down outright.
    pub hard_cap: usize,
    /// What happens to a subscription that overflows `queue_cap`.
    pub lag: LagPolicy,
    /// How long a fresh connection gets to complete the `Hello`
    /// handshake before it is dropped. Connections that handshake keep
    /// blocking reads with no deadline (a quiet subscriber is normal);
    /// connections that never speak must not pin threads forever.
    pub handshake_timeout: Duration,
    /// Maximum concurrently open connections; further accepts are closed
    /// immediately. Each connection costs two OS threads, so this bounds
    /// the server's thread count.
    pub max_conns: usize,
    /// Row-payload budget per snapshot frame. Snapshots whose rows
    /// exceed it are shipped as a run of `SnapshotChunk` frames instead
    /// of one giant `Snapshot`, bounding the per-frame allocation on
    /// both sides of the wire and letting a writer's deltas interleave
    /// with a multi-gigabyte snapshot on other subscriptions.
    pub snapshot_chunk_bytes: usize,
    /// Metrics registry the server records into. `None` falls back to
    /// [`FeedSource::registry`], and then to a private registry — the
    /// server's own counters always exist, so [`Server::stats`] and
    /// `StatsRequest` work regardless.
    pub registry: Option<Arc<Registry>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_cap: 64,
            hard_cap: 4096,
            lag: LagPolicy::Coalesce,
            handshake_timeout: Duration::from_secs(10),
            max_conns: 1024,
            snapshot_chunk_bytes: 1 << 20,
            registry: None,
        }
    }
}

/// A point-in-time copy of the server's counters — a typed view over
/// the metrics registry (see [`ServeMetrics`] for the metric names).
///
/// The snapshot is **advisory, not tear-free**: each field is its own
/// relaxed atomic load, so a racing commit may be reflected in one
/// counter and not yet in another. Individual counters are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Delta frames enqueued to subscribers (shared-bytes sends).
    pub deltas_sent: u64,
    /// Times a lagging subscription's pending deltas were coalesced.
    pub coalesced: u64,
    /// Subscriptions detached with `Lagged` (disconnect policy or hard
    /// overflow).
    pub lagged: u64,
    /// Cursor-progress `Ack` frames received from clients.
    pub acks: u64,
    /// Snapshots actually computed and encoded. Fresh subscribes are
    /// served from a shared per-query snapshot cache reconciled by ring
    /// replay, so a subscribe storm keeps this near 1 however many
    /// clients arrive.
    pub snapshots_built: u64,
}

/// The server's registry-backed counters, resolved once at bind. The
/// registry itself is the scrape surface (`StatsRequest` renders it);
/// these handles are the hot-path recording surface.
struct ServeMetrics {
    registry: Arc<Registry>,
    connections: Arc<Counter>,
    open_connections: Arc<Gauge>,
    deltas_sent: Arc<Counter>,
    coalesced: Arc<Counter>,
    lagged: Arc<Counter>,
    acks: Arc<Counter>,
    snapshots_built: Arc<Counter>,
    bytes_out: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    stats_requests: Arc<Counter>,
}

impl ServeMetrics {
    fn new(registry: Arc<Registry>) -> ServeMetrics {
        ServeMetrics {
            connections: registry.counter("serve_connections_total"),
            open_connections: registry.gauge("serve_open_connections"),
            deltas_sent: registry.counter("serve_deltas_sent_total"),
            coalesced: registry.counter("serve_coalesced_total"),
            lagged: registry.counter("serve_lagged_total"),
            acks: registry.counter("serve_acks_total"),
            snapshots_built: registry.counter("serve_snapshots_built_total"),
            bytes_out: registry.counter("serve_bytes_out_total"),
            queue_depth: registry.gauge("serve_queue_depth"),
            stats_requests: registry.counter("serve_stats_requests_total"),
            registry,
        }
    }
}

// ---- per-connection outbound queue ---------------------------------------

/// One queued outbound frame. Control frames are pre-encoded and never
/// dropped; delta frames carry both the shared encoding (fast path) and
/// the event the source published (so lag coalescing can net without
/// re-decoding).
enum Out {
    Ctl(Arc<[u8]>),
    Delta {
        query: Arc<str>,
        delta: Arc<ChangeEvent>,
        bytes: Arc<[u8]>,
    },
    /// The product of lag coalescing; encoded at write time (rare path).
    Coalesced {
        query: Arc<str>,
        delta: ChangeEvent,
    },
}

enum DeltaPush {
    /// Enqueued on the fast path.
    Sent,
    /// Enqueued after netting this query's backlog into one frame.
    Coalesced,
    /// Backlog dropped; the subscription must be detached and `Lagged`
    /// sent.
    Lagged,
    /// The connection is gone.
    Dead,
}

struct OutState {
    items: VecDeque<Out>,
    closed: bool,
}

/// The per-connection bounded outbound queue. Producers (reader thread,
/// fan-out pumps) never block: overflow triggers the lag policy for the
/// pushing subscription, and only the writer thread ever blocks on the
/// socket.
struct OutQueue {
    cap: usize,
    hard_cap: usize,
    state: Mutex<OutState>,
    cond: Condvar,
    /// Server-wide queued-frame gauge (`serve_queue_depth`), shared by
    /// every connection's queue. Adjusted under the queue lock by
    /// diffing the item count across each mutation.
    depth: Arc<Gauge>,
}

impl OutQueue {
    fn new(cap: usize, hard_cap: usize, depth: Arc<Gauge>) -> OutQueue {
        OutQueue {
            cap: cap.max(1),
            hard_cap: hard_cap.max(cap.max(1) * 2),
            state: Mutex::new(OutState {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            depth,
        }
    }

    /// Folds an item-count change into the shared depth gauge.
    fn track(&self, before: usize, after: usize) {
        if after > before {
            self.depth.add((after - before) as u64);
        } else {
            self.depth.sub((before - after) as u64);
        }
    }

    /// Enqueues a control frame. Control frames are responses to client
    /// commands, so their rate is bounded by the client's own request
    /// rate — a client that floods commands without reading trips the
    /// hard cap and loses the connection.
    fn push_ctl(&self, bytes: Arc<[u8]>) -> bool {
        let mut st = lock(&self.state);
        if st.closed {
            return false;
        }
        if st.items.len() >= self.hard_cap {
            let before = st.items.len();
            st.closed = true;
            st.items.clear();
            self.track(before, 0);
            drop(st);
            self.cond.notify_all();
            return false;
        }
        st.items.push_back(Out::Ctl(bytes));
        self.track(0, 1);
        drop(st);
        self.cond.notify_one();
        true
    }

    /// Enqueues a multi-frame control run — a chunked snapshot or a
    /// chunked `Query` reply — as one unit: the hard cap is checked
    /// once against the queue depth *before* the run, so a response
    /// whose chunk count alone exceeds `hard_cap` still goes out
    /// instead of killing the connection. Runs stay safe against
    /// flooding because each one answers exactly one client command;
    /// a client that issues another command without draining the
    /// previous run finds the cap check waiting at the run boundary.
    fn push_ctl_run(&self, frames: impl IntoIterator<Item = Arc<[u8]>>) -> bool {
        let mut frames = frames.into_iter().peekable();
        if frames.peek().is_none() {
            // An empty run enqueues nothing, so it must not count as a
            // push against the cap — handle_subscribe returns no reply
            // frames right after attach() filled the queue with the
            // snapshot run it already sent.
            return true;
        }
        let mut st = lock(&self.state);
        if st.closed {
            return false;
        }
        if st.items.len() >= self.hard_cap {
            let before = st.items.len();
            st.closed = true;
            st.items.clear();
            self.track(before, 0);
            drop(st);
            self.cond.notify_all();
            return false;
        }
        let before = st.items.len();
        st.items.extend(frames.map(Out::Ctl));
        self.track(before, st.items.len());
        drop(st);
        self.cond.notify_one();
        true
    }

    fn push_delta(
        &self,
        query: &Arc<str>,
        delta: &Arc<ChangeEvent>,
        bytes: &Arc<[u8]>,
        policy: LagPolicy,
    ) -> DeltaPush {
        let mut st = lock(&self.state);
        if st.closed {
            return DeltaPush::Dead;
        }
        if st.items.len() < self.cap {
            st.items.push_back(Out::Delta {
                query: Arc::clone(query),
                delta: Arc::clone(delta),
                bytes: Arc::clone(bytes),
            });
            self.track(0, 1);
            drop(st);
            self.cond.notify_one();
            return DeltaPush::Sent;
        }
        // Overflow: this subscription is lagging. Pull the query's
        // pending deltas out of the queue (frames of other queries and
        // control frames stay put, in order).
        let before = st.items.len();
        let mut kept = VecDeque::with_capacity(st.items.len());
        let mut backlog: Vec<Out> = Vec::new();
        for item in st.items.drain(..) {
            match &item {
                Out::Delta { query: q, .. } | Out::Coalesced { query: q, .. }
                    if q.as_ref() == query.as_ref() =>
                {
                    backlog.push(item)
                }
                _ => kept.push_back(item),
            }
        }
        st.items = kept;
        match policy {
            LagPolicy::Coalesce => {
                // Net backlog + new into one exact catch-up frame. Each
                // query converges to at most one pending frame under
                // sustained lag, so the queue stays bounded by
                // `cap + #subscriptions`.
                let netted = ChangeEvent::net(
                    backlog
                        .iter()
                        .map(|item| match item {
                            Out::Delta { delta, .. } => delta.as_ref(),
                            Out::Coalesced { delta, .. } => delta,
                            Out::Ctl(_) => unreachable!("backlog holds only deltas"),
                        })
                        .chain(std::iter::once(delta.as_ref())),
                );
                st.items.push_back(Out::Coalesced {
                    query: Arc::clone(query),
                    delta: netted,
                });
                self.track(before, st.items.len());
                drop(st);
                self.cond.notify_one();
                DeltaPush::Coalesced
            }
            LagPolicy::Disconnect => {
                self.track(before, st.items.len());
                DeltaPush::Lagged
            }
        }
    }

    /// Blocks until the next frame, the queue closes, or `TICK` passes.
    fn recv_tick(&self) -> Result<Option<Out>, ()> {
        let mut st = lock(&self.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                self.track(1, 0);
                return Ok(Some(item));
            }
            if st.closed {
                return Err(());
            }
            let (g, timeout) = match self.cond.wait_timeout(st, TICK) {
                Ok(r) => r,
                Err(p) => {
                    let (g, t) = p.into_inner();
                    (g, t)
                }
            };
            st = g;
            if timeout.timed_out() {
                return Ok(None);
            }
        }
    }

    fn close(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        let before = st.items.len();
        st.items.clear();
        self.track(before, 0);
        drop(st);
        self.cond.notify_all();
    }
}

// ---- connections and fan-out ---------------------------------------------

struct Conn {
    stream: TcpStream,
    out: OutQueue,
    /// Liveness flags of this connection's subscriptions, by query name
    /// (shared with the fan-out pumps' subscriber entries).
    subs: Mutex<HashMap<String, Arc<AtomicBool>>>,
}

impl Conn {
    /// Tears the connection down from any thread: closes the queue (the
    /// writer exits), shuts the socket (the reader exits), detaches all
    /// subscriptions (the pumps prune).
    fn kill(&self) {
        self.out.close();
        let _ = self.stream.shutdown(Shutdown::Both);
        for flag in lock(&self.subs).values() {
            flag.store(false, Ordering::Relaxed);
        }
    }
}

/// One subscription as the fan-out pump sees it.
struct ConnSub {
    conn: Arc<Conn>,
    /// Highest seq this subscription has been sent (or had covered by
    /// its resume replay/snapshot). The pump skips events at or below
    /// it — this is what makes replay + live feed overlap harmless.
    cursor: u64,
    live: Arc<AtomicBool>,
}

/// A pre-encoded snapshot pinned at a seq: one `Snapshot` frame, or a
/// `SnapshotChunk` run when the rows exceeded the chunk budget.
type EncodedSnapshot = (u64, Vec<Arc<[u8]>>);

/// The per-query fan-out: one feed from the source, N subscriptions.
struct FanOut {
    query: Arc<str>,
    subs: Mutex<Vec<ConnSub>>,
    /// Set when the pump exits because the source closed the feed; the
    /// next subscriber respawns the pump.
    closed: AtomicBool,
    /// The last snapshot served, pre-encoded: `(seq, frame bytes)` —
    /// one `Snapshot` frame, or a `SnapshotChunk` run when the rows
    /// exceeded the configured chunk budget. Fresh subscribes share
    /// these bytes and net the staleness away with a ring replay from
    /// `seq`, so a thundering herd of subscribers costs one snapshot
    /// serialization, not N.
    snap_cache: Mutex<Option<EncodedSnapshot>>,
}

struct Shared {
    source: Arc<dyn FeedSource>,
    config: ServeConfig,
    shutdown: AtomicBool,
    pumps: Mutex<HashMap<String, Arc<FanOut>>>,
    conns: Mutex<Vec<std::sync::Weak<Conn>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    metrics: ServeMetrics,
}

/// The streaming subscription server (see the module docs).
///
/// Dropping the server shuts it down: the acceptor stops, every
/// connection is torn down, and all threads are joined.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `source` on `addr` (use port 0 to let
    /// the OS pick; read it back with [`Server::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        source: Arc<dyn FeedSource>,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = config
            .registry
            .clone()
            .or_else(|| source.registry())
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let shared = Arc::new(Shared {
            source,
            config,
            shutdown: AtomicBool::new(false),
            pumps: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            metrics: ServeMetrics::new(registry),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cqu-serve-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the server counters (advisory across
    /// fields — see [`ServerStats`]).
    pub fn stats(&self) -> ServerStats {
        let m = &self.shared.metrics;
        ServerStats {
            connections: m.connections.get(),
            deltas_sent: m.deltas_sent.get(),
            coalesced: m.coalesced.get(),
            lagged: m.lagged.get(),
            acks: m.acks.get(),
            snapshots_built: m.snapshots_built.get(),
        }
    }

    /// The metrics registry the server records into — the one from
    /// [`ServeConfig::registry`], the source's, or a private one.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.metrics.registry)
    }

    /// Stops accepting, tears down every connection and pump, and joins
    /// all server threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for conn in lock(&self.shared.conns).drain(..) {
            if let Some(conn) = conn.upgrade() {
                conn.kill();
            }
        }
        // Pumps observe the shutdown flag within one tick; reader and
        // writer threads exit via the socket/queue teardown above.
        let threads: Vec<_> = lock(&self.shared.threads).drain(..).collect();
        for h in threads {
            let _ = h.join();
        }
        lock(&self.shared.pumps).clear();
        self.shared.metrics.open_connections.set(0);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // The writer flushes one small frame per query per commit:
        // Nagle would hold the second until the first is ACKed.
        let _ = stream.set_nodelay(true);
        // Reap threads of connections that have since closed — a
        // long-running server must not accumulate a JoinHandle pair per
        // connection ever served. Finished threads join instantly.
        {
            let mut threads = lock(&shared.threads);
            let mut i = 0;
            while i < threads.len() {
                if threads[i].is_finished() {
                    let _ = threads.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
        }
        let mut conns = lock(&shared.conns);
        conns.retain(|c| c.strong_count() > 0);
        if conns.len() >= shared.config.max_conns {
            // At capacity: refuse by closing. Dropping the stream sends
            // RST/FIN; the client sees a dead socket, not a hung one.
            drop(stream);
            continue;
        }
        shared.metrics.connections.inc();
        let conn = Arc::new(Conn {
            out: OutQueue::new(
                shared.config.queue_cap,
                shared.config.hard_cap,
                Arc::clone(&shared.metrics.queue_depth),
            ),
            subs: Mutex::new(HashMap::new()),
            stream,
        });
        conns.push(Arc::downgrade(&conn));
        // The gauge reconciles on every accept (dead entries were just
        // pruned above) — advisory between accepts, exact at each one.
        shared.metrics.open_connections.set(conns.len() as u64);
        drop(conns);

        let reader = {
            let shared = Arc::clone(&shared);
            let conn = Arc::clone(&conn);
            std::thread::Builder::new()
                .name("cqu-serve-read".into())
                .spawn(move || {
                    reader_loop(&shared, &conn);
                    conn.kill();
                })
        };
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cqu-serve-write".into())
                .spawn(move || {
                    writer_loop(&shared, &conn);
                    conn.kill();
                })
        };
        let mut threads = lock(&shared.threads);
        threads.extend(reader);
        threads.extend(writer);
    }
}

/// Drains the connection's outbound queue onto the socket. The only
/// thread that ever writes to (or blocks on) this socket.
fn writer_loop(shared: &Shared, conn: &Conn) {
    let mut w = BufWriter::new(&conn.stream);
    loop {
        match conn.out.recv_tick() {
            Err(()) => return,
            Ok(None) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Idle tick: push buffered bytes out.
                if w.flush().is_err() {
                    return;
                }
            }
            Ok(Some(item)) => {
                let result = match &item {
                    Out::Ctl(bytes) => {
                        shared.metrics.bytes_out.add(bytes.len() as u64);
                        w.write_all(bytes)
                    }
                    Out::Delta { bytes, .. } => {
                        shared.metrics.bytes_out.add(bytes.len() as u64);
                        w.write_all(bytes)
                    }
                    Out::Coalesced { query, delta } => {
                        let bytes =
                            encode_delta_frame(query, delta.seq, &delta.added, &delta.removed);
                        shared.metrics.bytes_out.add(bytes.len() as u64);
                        w.write_all(&bytes)
                    }
                };
                if result.is_err() || (conn.out.state_is_empty() && w.flush().is_err()) {
                    return;
                }
            }
        }
    }
}

impl OutQueue {
    fn state_is_empty(&self) -> bool {
        lock(&self.state).items.is_empty()
    }
}

/// Executes client commands. Runs on the connection's reader thread;
/// every reply goes through the outbound queue, never the socket
/// directly.
fn reader_loop(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let mut stream = match conn.stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // Handshake under a read deadline: a client that connects and says
    // nothing (slowloris) must not pin this thread pair forever. After
    // the handshake the deadline comes off — an idle subscriber is a
    // normal, healthy connection.
    let timeout = Some(shared.config.handshake_timeout).filter(|t| !t.is_zero());
    if stream.set_read_timeout(timeout).is_err() {
        return;
    }
    // Handshake: the first frame must be a version-compatible Hello.
    match read_frame(&mut stream) {
        Ok(Frame::Hello { version, .. }) if version == PROTOCOL_VERSION => {
            let hello = Frame::Hello {
                version: PROTOCOL_VERSION,
                seq: shared.source.seq(),
            };
            if !conn.out.push_ctl(hello.encode().into()) {
                return;
            }
        }
        Ok(Frame::Hello { version, .. }) => {
            let err = Frame::Error {
                code: ErrorCode::BadRequest as u8,
                msg: format!("protocol version {version} not supported"),
            };
            conn.out.push_ctl(err.encode().into());
            return;
        }
        _ => return,
    }
    if stream.set_read_timeout(None).is_err() {
        return;
    }
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            // Includes clean EOF (client went away) and the socket
            // shutdown performed by Conn::kill.
            Err(_) => return,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let result = match frame {
            Frame::Register { name, src } => shared
                .source
                .register(&name, &src)
                .map(|seq| vec![Frame::Ack { name, seq }]),
            Frame::Query { name } => shared.source.snapshot(&name).map(|(seq, rows)| {
                snapshot_frames(&name, seq, rows, shared.config.snapshot_chunk_bytes)
            }),
            Frame::Subscribe { name, from_seq } => handle_subscribe(shared, conn, &name, from_seq),
            Frame::Unsubscribe { name } => {
                if let Some(flag) = lock(&conn.subs).remove(&name) {
                    flag.store(false, Ordering::Relaxed);
                }
                Ok(vec![Frame::Ack {
                    name,
                    seq: shared.source.seq(),
                }])
            }
            Frame::Ack { .. } => {
                shared.metrics.acks.inc();
                Ok(Vec::new())
            }
            Frame::StatsRequest => {
                shared.metrics.stats_requests.inc();
                Ok(vec![Frame::StatsReply {
                    text: shared.metrics.registry.render(),
                }])
            }
            // Server-to-client frames arriving from a client are a
            // protocol violation.
            _ => Err(SourceError::Invalid("unexpected frame direction".into())),
        };
        let replies = match result {
            Ok(replies) => replies,
            Err(e) => vec![Frame::Error {
                code: e.code() as u8,
                msg: e.to_string(),
            }],
        };
        // One command, one run: a chunked Query reply counts against the
        // hard cap as a unit, like the snapshot run in `attach`.
        if !conn
            .out
            .push_ctl_run(replies.into_iter().map(|reply| reply.encode().into()))
        {
            return;
        }
    }
}

/// Opens (or resumes) a subscription.
///
/// The gapless-splice invariant: catch-up and live-stream attachment
/// happen atomically with respect to the pump — the fan-out's
/// subscriber lock is held across the catch-up computation and the
/// attach, so no event can fall between them (overlap is deduplicated
/// by the cursor). Replay from a cursor is cheap (ring netting), so it
/// runs entirely under the lock. Snapshots are expensive (full
/// enumeration + encode), so fresh subscribes are served from the
/// fan-out's shared pre-encoded snapshot and reconciled under the lock
/// by a ring replay from the snapshot's seq — a fresh subscribe is just
/// a resume whose cursor comes from a snapshot, and a subscribe storm
/// costs one snapshot serialization, not one per client. With
/// retention enabled that replay is always covered (the ring's floor
/// can never exceed the current seq); if it is not (retention disabled,
/// or a cache stale past the ring), the snapshot is rebuilt under the
/// subscriber lock — slow, serialized, but unconditionally gapless.
fn handle_subscribe(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    name: &str,
    from_seq: Option<u64>,
) -> Result<Vec<Frame>, SourceError> {
    let fanout = pump_for(shared, name)?;

    // Resume cursor: replay + attach entirely under the lock.
    if let Some(n) = from_seq {
        let subs = lock(&fanout.subs);
        if let ReplayOutcome::Covered { upto, event } = shared.source.replay(name, n)? {
            let cursor = n.max(upto);
            let mut frames = vec![Frame::Subscribed {
                name: name.into(),
                mode: SubscribeMode::Resumed,
                seq: cursor,
            }
            .encode()
            .into()];
            if let Some(e) = event {
                frames.push(encode_delta_frame(name, cursor, &e.added, &e.removed).into());
            }
            return attach(conn, subs, name, frames, cursor);
        }
        // Evicted cursor: degrade to the snapshot path below.
    }
    let mode = if from_seq.is_some() {
        SubscribeMode::Resync
    } else {
        SubscribeMode::Live
    };

    // Fresh subscribe (or resync): shared cached snapshot, computed with
    // no lock held, plus a cheap replay from its seq under the lock to
    // close the enumeration window.
    let (snap_seq, snap_frames) = cached_snapshot(shared, &fanout, name)?;
    let subs = lock(&fanout.subs);
    if let ReplayOutcome::Covered { upto, event } = shared.source.replay(name, snap_seq)? {
        let cursor = snap_seq.max(upto);
        let mut frames: Vec<Arc<[u8]>> = vec![Frame::Subscribed {
            name: name.into(),
            mode,
            seq: cursor,
        }
        .encode()
        .into()];
        frames.extend(snap_frames);
        if let Some(e) = event {
            frames.push(encode_delta_frame(name, cursor, &e.added, &e.removed).into());
        }
        return attach(conn, subs, name, frames, cursor);
    }
    // Retention cannot bridge from the cached snapshot (the source
    // retains nothing, or the cache went stale past the ring): rebuild
    // while holding the subscriber lock so nothing slips past.
    let (seq, rows) = shared.source.snapshot(name)?;
    shared.metrics.snapshots_built.inc();
    let encoded: Vec<Arc<[u8]>> =
        encode_snapshot_frames(name, seq, &rows, shared.config.snapshot_chunk_bytes)
            .into_iter()
            .map(Arc::from)
            .collect();
    *lock(&fanout.snap_cache) = Some((seq, encoded.clone()));
    let mut frames: Vec<Arc<[u8]>> = vec![Frame::Subscribed {
        name: name.into(),
        mode,
        seq,
    }
    .encode()
    .into()];
    frames.extend(encoded);
    attach(conn, subs, name, frames, seq)
}

/// How far (in seq numbers) the cached snapshot may trail the source
/// before a fresh subscribe rebuilds it instead of shipping an
/// ever-growing reconcile delta.
const SNAPSHOT_CACHE_LAG: u64 = 1024;

/// Returns the fan-out's `(seq, encoded snapshot frames)` — one
/// `Snapshot` or a `SnapshotChunk` run — building and caching them when
/// missing or lagging more than [`SNAPSHOT_CACHE_LAG`] behind the
/// source. The cache mutex is deliberately held across the build: under
/// a subscribe storm one thread computes while the rest wait here and
/// then share the same bytes.
fn cached_snapshot(
    shared: &Shared,
    fanout: &FanOut,
    name: &str,
) -> Result<EncodedSnapshot, SourceError> {
    let mut cache = lock(&fanout.snap_cache);
    if let Some((seq, frames)) = cache.as_ref() {
        if shared.source.seq().saturating_sub(*seq) <= SNAPSHOT_CACHE_LAG {
            return Ok((*seq, frames.clone()));
        }
    }
    let (seq, rows) = shared.source.snapshot(name)?;
    shared.metrics.snapshots_built.inc();
    let frames: Vec<Arc<[u8]>> =
        encode_snapshot_frames(name, seq, &rows, shared.config.snapshot_chunk_bytes)
            .into_iter()
            .map(Arc::from)
            .collect();
    *cache = Some((seq, frames.clone()));
    Ok((seq, frames))
}

/// Sends the catch-up frames and attaches the live subscription, all
/// while `subs` (the fan-out's subscriber lock) is held — the atomic
/// tail of every [`handle_subscribe`] path. A re-subscribe on the same
/// connection replaces the old feed.
fn attach(
    conn: &Arc<Conn>,
    mut subs: std::sync::MutexGuard<'_, Vec<ConnSub>>,
    name: &str,
    frames: Vec<Arc<[u8]>>,
    cursor: u64,
) -> Result<Vec<Frame>, SourceError> {
    if let Some(old) = lock(&conn.subs).remove(name) {
        old.store(false, Ordering::Relaxed);
    }
    if !conn.out.push_ctl_run(frames) {
        return Err(SourceError::Invalid("connection closed".into()));
    }
    let live = Arc::new(AtomicBool::new(true));
    subs.push(ConnSub {
        conn: Arc::clone(conn),
        cursor,
        live: Arc::clone(&live),
    });
    drop(subs);
    lock(&conn.subs).insert(name.to_string(), live);
    Ok(Vec::new())
}

/// Returns the query's fan-out pump, spawning it (and opening the
/// source feed) on first subscription — or respawning it if the source
/// closed the previous feed.
fn pump_for(shared: &Arc<Shared>, name: &str) -> Result<Arc<FanOut>, SourceError> {
    let mut pumps = lock(&shared.pumps);
    if let Some(existing) = pumps.get(name) {
        if !existing.closed.load(Ordering::SeqCst) {
            return Ok(Arc::clone(existing));
        }
    }
    // Open the feed *before* any replay/snapshot the caller performs:
    // every event after this point reaches the pump, every event before
    // it is visible to replay — no gap.
    let feed = shared.source.open_feed(name)?;
    let fanout = Arc::new(FanOut {
        query: Arc::from(name),
        subs: Mutex::new(Vec::new()),
        closed: AtomicBool::new(false),
        snap_cache: Mutex::new(None),
    });
    pumps.insert(name.to_string(), Arc::clone(&fanout));
    drop(pumps);
    let handle = {
        let shared = Arc::clone(shared);
        let fanout = Arc::clone(&fanout);
        std::thread::Builder::new()
            .name(format!("cqu-serve-pump-{name}"))
            .spawn(move || pump_loop(&shared, &fanout, feed))
            .map_err(|e| SourceError::Invalid(format!("cannot spawn pump: {e}")))?
    };
    lock(&shared.threads).push(handle);
    Ok(fanout)
}

/// The per-query fan-out pump: drains the source feed, encodes each
/// event **once** into shared bytes, and pushes bytes and event (the
/// `Arc` the source published, never a copy) to every attached
/// subscription's bounded queue. Never touches a socket, never blocks
/// on a consumer.
fn pump_loop(shared: &Shared, fanout: &FanOut, feed: Receiver<Arc<ChangeEvent>>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let delta = match feed.recv_timeout(TICK) {
            TryRecv::Empty => continue,
            TryRecv::Closed => {
                fanout.closed.store(true, Ordering::SeqCst);
                return;
            }
            TryRecv::Item(event) => event,
        };
        // THE fan-out batching invariant: one serialization per commit,
        // shared by every subscriber.
        let bytes: Arc<[u8]> =
            encode_delta_frame(&fanout.query, delta.seq, &delta.added, &delta.removed).into();
        let mut subs = lock(&fanout.subs);
        subs.retain_mut(|sub| {
            if !sub.live.load(Ordering::Relaxed) {
                return false;
            }
            // Already covered by the subscription's resume replay or
            // snapshot: the overlap half of splice deduplication.
            if delta.seq <= sub.cursor {
                return true;
            }
            match sub
                .conn
                .out
                .push_delta(&fanout.query, &delta, &bytes, shared.config.lag)
            {
                DeltaPush::Sent => {
                    shared.metrics.deltas_sent.inc();
                    sub.cursor = delta.seq;
                    true
                }
                DeltaPush::Coalesced => {
                    shared.metrics.coalesced.inc();
                    sub.cursor = delta.seq;
                    true
                }
                DeltaPush::Lagged => {
                    shared.metrics.lagged.inc();
                    shared.metrics.registry.journal().record(
                        "serve_lag_disconnect",
                        format!("query {} detached at seq {}", fanout.query, delta.seq),
                    );
                    sub.live.store(false, Ordering::Relaxed);
                    lock(&sub.conn.subs).remove(fanout.query.as_ref());
                    let lagged = Frame::Lagged {
                        name: fanout.query.to_string(),
                        resync_at: delta.seq,
                    };
                    sub.conn.out.push_ctl(lagged.encode().into());
                    false
                }
                DeltaPush::Dead => false,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Arc<[u8]> {
        Arc::from(vec![0u8; 4])
    }

    fn depth(q: &OutQueue) -> usize {
        lock(&q.state).items.len()
    }

    /// A single bounded run may overshoot the hard cap; it is the *next*
    /// push that finds the cap waiting. This is what lets a snapshot of
    /// more than `hard_cap` chunks reach a fresh subscriber.
    #[test]
    fn ctl_run_is_admitted_as_a_unit() {
        let depth_gauge = Arc::new(Gauge::default());
        let q = OutQueue::new(1, 8, Arc::clone(&depth_gauge));
        assert!(q.push_ctl_run((0..100).map(|_| frame())));
        assert_eq!(depth(&q), 100);
        assert_eq!(depth_gauge.get(), 100);
        // The queue is now far past the hard cap: the next ctl push (or
        // run) kills the connection, so a command flood cannot stack runs.
        assert!(!q.push_ctl(frame()));
        assert!(lock(&q.state).closed);
        // The hard-cap teardown cleared the queue: the gauge follows.
        assert_eq!(depth_gauge.get(), 0);
    }

    /// Per-frame pushes keep the original hard-cap behavior: the 8th
    /// frame on an undrained queue closes it.
    #[test]
    fn per_frame_pushes_still_trip_the_hard_cap() {
        let q = OutQueue::new(1, 8, Arc::new(Gauge::default()));
        for _ in 0..8 {
            assert!(q.push_ctl(frame()));
        }
        assert!(!q.push_ctl(frame()));
        assert!(
            !q.push_ctl_run(std::iter::once(frame())),
            "closed for runs too"
        );
    }

    /// The cap check happens at the run boundary: a second non-empty run
    /// against an undrained queue closes it, while an empty run (no
    /// frames to enqueue) is a no-op even then.
    #[test]
    fn run_boundary_checks_cap_before_admitting() {
        let q = OutQueue::new(1, 4, Arc::new(Gauge::default()));
        assert!(q.push_ctl_run((0..4).map(|_| frame())));
        assert!(q.push_ctl_run(std::iter::empty()), "empty run is a no-op");
        assert!(!lock(&q.state).closed);
        assert!(!q.push_ctl_run((0..4).map(|_| frame())));
        assert!(lock(&q.state).closed);
    }

    /// A queued delta holds the event the source published, not a copy.
    #[test]
    fn delta_push_shares_the_published_event() {
        let q = OutQueue::new(4, 8, Arc::new(Gauge::default()));
        let event = Arc::new(ChangeEvent {
            seq: 3,
            added: vec![vec![1]],
            removed: Vec::new(),
        });
        let pushed = q.push_delta(&Arc::from("q"), &event, &frame(), LagPolicy::Coalesce);
        assert!(matches!(pushed, DeltaPush::Sent));
        match q.recv_tick() {
            Ok(Some(Out::Delta { delta, .. })) => assert!(Arc::ptr_eq(&delta, &event)),
            _ => panic!("the delta frame was not queued"),
        }
    }
}
