//! A small blocking client and a cursor-tracking result mirror.
//!
//! [`Client`] is deliberately simple — synchronous request/response plus
//! a pending-frame buffer for deltas that arrive while a command awaits
//! its reply. It is what the tests, benches, and the `social_feed`
//! example use, and a reference for real client implementations.
//! [`Mirror`] folds `Snapshot`/`Delta`/`Lagged` frames into a local
//! replica and tracks the resume cursor — the client half of the
//! resumable-cursor contract.

use crate::protocol::{Frame, Row, SubscribeMode, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A client-side failure: a transport/protocol error or a server
/// `Error` frame.
#[derive(Debug)]
pub enum ClientError {
    /// The wire broke (or a frame was malformed).
    Wire(WireError),
    /// The server answered a command with `Error`.
    Server {
        /// Machine-readable cause ([`crate::protocol::ErrorCode`]).
        code: u8,
        /// Human-readable detail.
        msg: String,
    },
    /// The awaited reply did not arrive within the deadline.
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { code, msg } => write!(f, "server error {code}: {msg}"),
            ClientError::Timeout => write!(f, "timed out awaiting reply"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Wire(WireError::Io(e))
    }
}

/// A blocking client for the `cqu-serve` wire protocol.
///
/// Command methods ([`Client::register`], [`Client::query`],
/// [`Client::subscribe`], …) send one frame and block for its reply;
/// any `Delta`/`Snapshot`/`Lagged` traffic that arrives first is
/// buffered and surfaced later through [`Client::next`]. Stream frames
/// are therefore never lost — only reordered after command replies.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    server_seq: u64,
    pending: VecDeque<Frame>,
    /// Partial-frame accumulation (length prefix + body bytes so far):
    /// a poll deadline hitting mid-frame leaves the bytes here, so short
    /// timeouts never desynchronize the stream — essential for polling
    /// with millisecond timeouts while a multi-megabyte snapshot frame
    /// is in flight.
    rbuf: Vec<u8>,
    /// Resume cursor per subscribed query, advanced as stream frames
    /// pass through [`Client::poll_frame`] — the state auto-resubscribe
    /// resumes from.
    cursors: HashMap<String, u64>,
    /// Whether a `Lagged` detach triggers a transparent re-`Subscribe`
    /// from the tracked cursor (on by default).
    auto_resubscribe: bool,
    /// Queries with an auto-resubscribe in flight; the matching
    /// `Subscribed` reply is swallowed rather than surfaced.
    pending_auto: HashSet<String>,
    /// Auto-resubscribes performed over the connection's lifetime.
    resubscribes: u64,
}

/// How long command replies may take before the client gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

impl Client {
    /// Connects and performs the `Hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            server_seq: 0,
            pending: VecDeque::new(),
            rbuf: Vec::new(),
            cursors: HashMap::new(),
            auto_resubscribe: true,
            pending_auto: HashSet::new(),
            resubscribes: 0,
        };
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            seq: 0,
        })?;
        match client.wait_for(|f| matches!(f, Frame::Hello { .. }))? {
            Frame::Hello { seq, .. } => client.server_seq = seq,
            _ => unreachable!("wait_for matched Hello"),
        }
        Ok(client)
    }

    /// The server's global seq as of the handshake.
    pub fn server_seq(&self) -> u64 {
        self.server_seq
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        crate::protocol::write_frame(&mut self.stream, frame)?;
        Ok(())
    }

    /// Pulls socket bytes into the partial-frame buffer until one
    /// complete frame is decodable or `deadline` passes. Returning
    /// `None` leaves any half-received frame buffered for the next poll.
    fn poll_frame(&mut self, deadline: Instant) -> Result<Option<Frame>, ClientError> {
        loop {
            if self.rbuf.len() >= 4 {
                let len = u32::from_le_bytes(self.rbuf[..4].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME_LEN {
                    return Err(WireError::Oversized(len).into());
                }
                if self.rbuf.len() >= 4 + len {
                    let frame = Frame::decode_body(&self.rbuf[4..4 + len])?;
                    self.rbuf.drain(..4 + len);
                    match self.intercept(frame)? {
                        Some(frame) => return Ok(Some(frame)),
                        None => continue, // swallowed by auto-resubscribe
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some((deadline - now).max(Duration::from_millis(1))))?;
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Wire(WireError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))))
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The single chokepoint every inbound frame passes through:
    /// advances the per-subscription resume cursors and, when enabled,
    /// turns a `Lagged` detach into a transparent re-`Subscribe` from
    /// the tracked cursor. The `Lagged` and the matching `Subscribed`
    /// reply are swallowed (`Ok(None)`); the catch-up `Delta` or
    /// `Snapshot` the server sends next flows to the caller unchanged,
    /// so a [`Mirror`] heals without ever noticing the detach.
    fn intercept(&mut self, frame: Frame) -> Result<Option<Frame>, ClientError> {
        match &frame {
            Frame::Snapshot { name, seq, .. }
            | Frame::Delta { name, seq, .. }
            | Frame::SnapshotChunk {
                name,
                seq,
                last: true,
                ..
            } => {
                if let Some(cursor) = self.cursors.get_mut(name) {
                    *cursor = (*cursor).max(*seq);
                }
            }
            Frame::Lagged { name, .. } if self.auto_resubscribe => {
                if let Some(&cursor) = self.cursors.get(name) {
                    let name = name.clone();
                    self.resubscribes += 1;
                    self.pending_auto.insert(name.clone());
                    self.send(&Frame::Subscribe {
                        name,
                        from_seq: Some(cursor),
                    })?;
                    return Ok(None);
                }
            }
            Frame::Subscribed { name, seq, .. } if self.pending_auto.remove(name) => {
                if let Some(cursor) = self.cursors.get_mut(name) {
                    *cursor = (*cursor).max(*seq);
                }
                return Ok(None);
            }
            _ => {}
        }
        Ok(Some(frame))
    }

    /// Reads frames until `want` matches, buffering everything else.
    /// An `Error` frame aborts the wait (commands are serialized on this
    /// client, so a mid-wait error can only answer the awaited command).
    fn wait_for(&mut self, want: impl Fn(&Frame) -> bool) -> Result<Frame, ClientError> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(pos) = self.pending.iter().position(&want) {
                return Ok(self.pending.remove(pos).expect("position just found"));
            }
            match self.poll_frame(deadline)? {
                Some(Frame::Error { code, msg }) => return Err(ClientError::Server { code, msg }),
                Some(frame) => self.pending.push_back(frame),
                None => return Err(ClientError::Timeout),
            }
        }
    }

    /// Registers a query on the server; returns the registration seq.
    pub fn register(&mut self, name: &str, src: &str) -> Result<u64, ClientError> {
        self.send(&Frame::Register {
            name: name.into(),
            src: src.into(),
        })?;
        match self.wait_for(|f| matches!(f, Frame::Ack { name: n, .. } if n == name))? {
            Frame::Ack { seq, .. } => Ok(seq),
            _ => unreachable!("wait_for matched Ack"),
        }
    }

    /// One-shot read: the query's current `(seq, rows)`. Large results
    /// arrive as a `SnapshotChunk` run and are reassembled here.
    pub fn query(&mut self, name: &str) -> Result<(u64, Vec<Row>), ClientError> {
        self.send(&Frame::Query { name: name.into() })?;
        let mut rows = Vec::new();
        loop {
            match self.wait_for(|f| {
                matches!(f,
                    Frame::Snapshot { name: n, .. } | Frame::SnapshotChunk { name: n, .. }
                        if n == name)
            })? {
                Frame::Snapshot { seq, rows: all, .. } => return Ok((seq, all)),
                Frame::SnapshotChunk {
                    seq,
                    first,
                    last,
                    rows: chunk,
                    ..
                } => {
                    if first {
                        // A restarted run (same seq or not) supersedes
                        // whatever the aborted one delivered.
                        rows.clear();
                    }
                    rows.extend(chunk);
                    if last {
                        return Ok((seq, rows));
                    }
                }
                _ => unreachable!("wait_for matched a snapshot frame"),
            }
        }
    }

    /// Opens (or, with `from = Some(cursor)`, resumes) a change feed.
    /// Returns the server's `(mode, seq)` — the catch-up `Delta` or
    /// `Snapshot` that follows arrives via [`Client::next`].
    pub fn subscribe(
        &mut self,
        name: &str,
        from: Option<u64>,
    ) -> Result<(SubscribeMode, u64), ClientError> {
        self.send(&Frame::Subscribe {
            name: name.into(),
            from_seq: from,
        })?;
        match self.wait_for(|f| matches!(f, Frame::Subscribed { name: n, .. } if n == name))? {
            Frame::Subscribed { mode, seq, .. } => {
                // Track the cursor from here on: every stream frame for
                // this query that passes through the client advances it,
                // and auto-resubscribe resumes from it.
                let cursor = self.cursors.entry(name.to_string()).or_insert(0);
                *cursor = (*cursor).max(seq);
                Ok((mode, seq))
            }
            _ => unreachable!("wait_for matched Subscribed"),
        }
    }

    /// Detaches the feed on `name`.
    pub fn unsubscribe(&mut self, name: &str) -> Result<(), ClientError> {
        self.send(&Frame::Unsubscribe { name: name.into() })?;
        self.wait_for(|f| matches!(f, Frame::Ack { name: n, .. } if n == name))?;
        self.cursors.remove(name);
        self.pending_auto.remove(name);
        Ok(())
    }

    /// Enables or disables transparent re-`Subscribe` on `Lagged`
    /// (enabled by default). Disable it to observe `Lagged` frames and
    /// drive recovery by hand.
    pub fn set_auto_resubscribe(&mut self, on: bool) {
        self.auto_resubscribe = on;
    }

    /// How many times this connection transparently re-subscribed after
    /// a `Lagged` detach.
    pub fn resubscribes(&self) -> u64 {
        self.resubscribes
    }

    /// The tracked resume cursor for `name`, if subscribed.
    pub fn cursor(&self, name: &str) -> Option<u64> {
        self.cursors.get(name).copied()
    }

    /// Reports cursor progress to the server (fire-and-forget).
    pub fn ack(&mut self, name: &str, seq: u64) -> Result<(), ClientError> {
        self.send(&Frame::Ack {
            name: name.into(),
            seq,
        })
    }

    /// Fetches the server's metrics registry rendered in Prometheus
    /// text format — a remote scrape of everything the server (and, when
    /// it shares a registry with its engine, the whole process) records.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.send(&Frame::StatsRequest)?;
        match self.wait_for(|f| matches!(f, Frame::StatsReply { .. }))? {
            Frame::StatsReply { text } => Ok(text),
            _ => unreachable!("wait_for matched StatsReply"),
        }
    }

    /// The next stream frame (buffered or from the wire), or `None` if
    /// nothing arrives within `timeout`.
    pub fn next(&mut self, timeout: Duration) -> Result<Option<Frame>, ClientError> {
        if let Some(frame) = self.pending.pop_front() {
            return Ok(Some(frame));
        }
        self.poll_frame(Instant::now() + timeout)
    }
}

/// A local replica of one query's result, maintained by folding in the
/// server's stream frames — and the keeper of the resume cursor.
///
/// Reconnect flow: remember `mirror.seq()`, reconnect, then
/// `client.subscribe(name, Some(mirror.seq()))` and keep folding. The
/// mirror ignores deltas at or below its cursor, so the replay/live
/// overlap is deduplicated client-side exactly like server-side.
#[derive(Debug, Clone)]
pub struct Mirror {
    rows: BTreeSet<Row>,
    seq: u64,
    /// Set when the server detached the feed with `Lagged` — the cue to
    /// re-subscribe with [`Mirror::seq`] as the cursor.
    lagged_at: Option<u64>,
    /// In-flight `SnapshotChunk` reassembly: the pin seq and the rows
    /// accumulated so far. The replica is only replaced once the `last`
    /// chunk lands, so a poll loop observing the mirror mid-run never
    /// sees a half-applied snapshot.
    chunks: Option<(u64, Vec<Row>)>,
    /// Bytes of chunk rows buffered so far, charged against
    /// [`Mirror::budget`].
    chunk_bytes: usize,
    /// Reassembly budget in row-payload bytes; a snapshot exceeding it
    /// trips [`Mirror::overflowed`] instead of allocating without bound.
    budget: usize,
    overflowed: bool,
}

/// Default [`Mirror`] reassembly budget: 1 GiB of row payload.
const DEFAULT_REASSEMBLY_BUDGET: usize = 1 << 30;

impl Default for Mirror {
    fn default() -> Mirror {
        Mirror::with_budget(DEFAULT_REASSEMBLY_BUDGET)
    }
}

impl Mirror {
    /// An empty replica at seq 0.
    pub fn new() -> Mirror {
        Mirror::default()
    }

    /// An empty replica whose `SnapshotChunk` reassembly may buffer at
    /// most `budget` bytes of row payload (default 1 GiB). A snapshot
    /// exceeding it sets [`Mirror::overflowed`] and the mirror stops
    /// folding — the replica cannot be maintained within the budget, so
    /// it freezes consistent-but-stale rather than corrupting itself.
    pub fn with_budget(budget: usize) -> Mirror {
        Mirror {
            rows: BTreeSet::new(),
            seq: 0,
            lagged_at: None,
            chunks: None,
            chunk_bytes: 0,
            budget,
            overflowed: false,
        }
    }

    /// Whether a chunked snapshot blew the reassembly budget. Once set,
    /// [`Mirror::apply`] ignores all further frames; the replica stays
    /// at its last consistent state.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The replica's rows.
    pub fn rows(&self) -> &BTreeSet<Row> {
        &self.rows
    }

    /// The rows, sorted into a vec (for comparing against snapshots).
    pub fn rows_sorted(&self) -> Vec<Row> {
        self.rows.iter().cloned().collect()
    }

    /// The resume cursor: everything up to and including this seq is
    /// reflected in [`Mirror::rows`].
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Where the server cut us off, if it did ([`Frame::Lagged`]).
    pub fn lagged_at(&self) -> Option<u64> {
        self.lagged_at
    }

    /// Folds one stream frame into the replica; returns `true` if the
    /// frame was one of ours (`Snapshot`/`SnapshotChunk`/`Delta`/
    /// `Lagged` for `name`).
    pub fn apply(&mut self, name: &str, frame: &Frame) -> bool {
        if self.overflowed {
            // The replica can no longer be maintained within budget;
            // claim our frames (so callers don't misroute them) but
            // leave the state frozen.
            return matches!(frame,
                Frame::Snapshot { name: n, .. }
                | Frame::SnapshotChunk { name: n, .. }
                | Frame::Delta { name: n, .. }
                | Frame::Lagged { name: n, .. } if n == name);
        }
        match frame {
            Frame::Snapshot { name: n, seq, rows } if n == name => {
                // Snapshots are authoritative: they replace the state
                // wholesale (resync after eviction or a fresh subscribe).
                self.rows = rows.iter().cloned().collect();
                self.seq = *seq;
                self.lagged_at = None;
                self.chunks = None;
                self.chunk_bytes = 0;
                true
            }
            Frame::SnapshotChunk {
                name: n,
                seq,
                first,
                last,
                rows,
            } if n == name => {
                // Only the `first` flag opens a run: a restarted snapshot
                // can pin the *same* seq as a stale partial run (a
                // reconnect resuming into the server's cached snapshot),
                // so the seq alone cannot distinguish "continuation" from
                // "start over". Anything buffered from the old run is
                // discarded — no double-charged budget, no stale rows.
                if *first {
                    self.chunks = Some((*seq, Vec::new()));
                    self.chunk_bytes = 0;
                } else if self.chunks.as_ref().is_none_or(|(s, _)| s != seq) {
                    // A continuation with no matching in-flight run is an
                    // orphan (its opening chunk was lost to a reconnect).
                    // Drop any mismatched partial and wait for a fresh
                    // `first` rather than merging rows from two runs.
                    self.chunks = None;
                    self.chunk_bytes = 0;
                    return true;
                }
                self.chunk_bytes += rows.iter().map(|r| (r.len() * 8).max(1)).sum::<usize>();
                if self.chunk_bytes > self.budget {
                    self.overflowed = true;
                    self.chunks = None;
                    self.chunk_bytes = 0;
                    return true;
                }
                let (_, buf) = self.chunks.as_mut().expect("run just ensured");
                buf.extend(rows.iter().cloned());
                if *last {
                    let (seq, buf) = self.chunks.take().expect("run in flight");
                    self.rows = buf.into_iter().collect();
                    self.seq = seq;
                    self.lagged_at = None;
                    self.chunk_bytes = 0;
                }
                true
            }
            Frame::Delta {
                name: n,
                seq,
                added,
                removed,
            } if n == name => {
                // The overlap guard: a delta at or below the cursor is
                // already reflected (replayed catch-up vs live feed).
                if *seq > self.seq {
                    for row in removed {
                        self.rows.remove(row);
                    }
                    for row in added {
                        self.rows.insert(row.clone());
                    }
                    self.seq = *seq;
                }
                true
            }
            Frame::Lagged { name: n, resync_at } if n == name => {
                self.lagged_at = Some(*resync_at);
                true
            }
            _ => false,
        }
    }

    /// Drives the mirror from a subscribe-reply plus the client's
    /// stream until `deadline_seq` is reached or `timeout` elapses.
    /// Convenience for tests and the example.
    pub fn catch_up(
        &mut self,
        client: &mut Client,
        name: &str,
        deadline_seq: u64,
        timeout: Duration,
    ) -> Result<(), ClientError> {
        let deadline = Instant::now() + timeout;
        while self.seq < deadline_seq {
            let now = Instant::now();
            if now >= deadline {
                return Err(ClientError::Timeout);
            }
            if let Some(frame) = client.next(deadline - now)? {
                self.apply(name, &frame);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(seq: u64, first: bool, last: bool, rows: Vec<Row>) -> Frame {
        Frame::SnapshotChunk {
            name: "q".into(),
            seq,
            first,
            last,
            rows,
        }
    }

    /// A restarted run at the *same* pin seq (a reconnect resuming into
    /// the server's cached snapshot) must supersede the stale partial:
    /// the budget is not double-charged and no stale rows survive.
    #[test]
    fn restarted_run_at_same_seq_supersedes_stale_partial() {
        // Budget fits exactly one complete 4-row run (8 bytes per row).
        let mut m = Mirror::with_budget(32);
        assert!(m.apply("q", &chunk(5, true, false, vec![vec![1], vec![2]])));
        // The run is cut short; the server restarts the snapshot at the
        // same seq. Charging the stale 16 bytes again would overflow.
        assert!(m.apply("q", &chunk(5, true, false, vec![vec![7], vec![8]])));
        assert!(m.apply("q", &chunk(5, false, true, vec![vec![9], vec![10]])));
        assert!(!m.overflowed(), "restart must not double-charge the budget");
        assert_eq!(
            m.rows_sorted(),
            vec![vec![7], vec![8], vec![9], vec![10]],
            "stale partial rows must not merge into the restarted run"
        );
        assert_eq!(m.seq(), 5);
    }

    /// A continuation whose opening chunk was never seen (it was lost to
    /// a reconnect) must be ignored — even a `last` orphan must not be
    /// installed as an authoritative snapshot.
    #[test]
    fn orphan_continuation_is_ignored() {
        let mut m = Mirror::new();
        assert!(m.apply("q", &chunk(5, false, true, vec![vec![1]])));
        assert!(m.rows().is_empty());
        assert_eq!(m.seq(), 0);
        // The server's retried run then lands whole.
        assert!(m.apply("q", &chunk(5, true, false, vec![vec![2]])));
        assert!(m.apply("q", &chunk(5, false, true, vec![vec![3]])));
        assert_eq!(m.rows_sorted(), vec![vec![2], vec![3]]);
        assert_eq!(m.seq(), 5);
    }
}
