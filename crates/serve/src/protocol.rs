//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is `u32` little-endian body length followed by
//! the body; the body is a one-byte tag followed by fixed little-endian
//! fields. Strings are `u16` length + UTF-8 bytes (encoders truncate
//! longer inputs on a char boundary); row sets are
//! `u32` row count + `u16` arity + `count × arity` little-endian `u64`
//! constants (every row of one query result shares the head arity).
//!
//! | frame | direction | payload | meaning |
//! |---|---|---|---|
//! | `Hello` | both | `version` (+ `seq` from the server) | handshake; the server echoes its protocol version and current global seq |
//! | `Register` | c→s | `name`, `src` | register a query on the serving session |
//! | `Query` | c→s | `name` | one-shot read; answered with `Snapshot` |
//! | `Subscribe` | c→s | `name`, optional `from_seq` | open a change feed; with a cursor, resume it |
//! | `Unsubscribe` | c→s | `name` | detach the feed |
//! | `Ack` | both | `name`, `seq` | client: cursor progress (observability); server: command confirmation |
//! | `Subscribed` | s→c | `name`, `mode`, `seq` | feed opened: `Live`, `Resumed` (netted catch-up `Delta` follows if nonempty) or `Resync` (`Snapshot` follows) |
//! | `Snapshot` | s→c | `name`, `seq`, rows | full result pinned at `seq` |
//! | `SnapshotChunk` | s→c | `name`, `seq`, flags (`last`/`first`), rows | one slice of a large snapshot pinned at `seq`; `first` opens a run, the receiver concatenates until `last` |
//! | `Delta` | s→c | `name`, `seq`, added, removed | netted result delta, cursor advances to `seq` |
//! | `Lagged` | s→c | `name`, `resync_at` | the feed overran its bounded queue and was detached; re-`Subscribe` with your cursor (ring replay makes that cheap) |
//! | `Error` | s→c | `code`, `msg` | command failed |
//! | `StatsRequest` | c→s | — | ask for the server's metrics registry |
//! | `StatsReply` | s→c | `text` (`u32` length + UTF-8) | the registry rendered in Prometheus text format |
//!
//! Decoding is strict: trailing bytes, truncated fields, or an unknown
//! tag are [`WireError`]s, and the body length is capped
//! ([`MAX_FRAME_LEN`]) so a corrupt prefix cannot ask for gigabytes.

use std::io::{self, Read, Write};

/// Protocol version spoken by this build. The server rejects a `Hello`
/// with a different major version.
///
/// History: v1 shipped the base frame set; v2 added `SnapshotChunk`
/// (servers may split large snapshots, so a v1 client would choke on
/// the unknown tag — hence the bump); v3 widened the chunk's `last`
/// byte into a flags byte with a `first` bit, so a receiver can tell a
/// restarted chunk run from the continuation of a stale partial one
/// even when both pin the same seq (a v2 peer would mis-read the flag);
/// v4 added `StatsRequest`/`StatsReply` (metrics scrape over the wire —
/// a v3 client would choke on the reply tag).
pub const PROTOCOL_VERSION: u32 = 4;

/// Upper bound on a frame body; larger length prefixes are rejected
/// before any allocation.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// One result tuple on the wire. Identical to the engine's `Tuple`
/// (`Vec<u64>`), so sources convert by clone, never by re-encoding.
pub type Row = Vec<u64>;

/// How a `Subscribe` was satisfied (the `mode` of [`Frame::Subscribed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeMode {
    /// Fresh feed with no cursor: a `Snapshot` frame follows, then live
    /// deltas.
    Live,
    /// The cursor was covered by the retention ring: a single netted
    /// catch-up `Delta` follows (omitted when the result never changed),
    /// then live deltas.
    Resumed,
    /// The ring had evicted the cursor: a full `Snapshot` follows, then
    /// live deltas.
    Resync,
}

impl SubscribeMode {
    fn to_byte(self) -> u8 {
        match self {
            SubscribeMode::Live => 0,
            SubscribeMode::Resumed => 1,
            SubscribeMode::Resync => 2,
        }
    }

    fn from_byte(b: u8) -> Result<SubscribeMode, WireError> {
        match b {
            0 => Ok(SubscribeMode::Live),
            1 => Ok(SubscribeMode::Resumed),
            2 => Ok(SubscribeMode::Resync),
            _ => Err(WireError::Malformed("unknown subscribe mode")),
        }
    }
}

/// Every frame either side can put on the wire. See the module docs for
/// the frame table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Handshake. The client sends `seq = 0`; the server echoes its
    /// current global sequence number.
    Hello {
        /// Protocol version of the sender.
        version: u32,
        /// Global seq at the server (0 from clients).
        seq: u64,
    },
    /// Register a query on the serving session.
    Register {
        /// Name to register under.
        name: String,
        /// Query source text (`Q(x, y) :- E(x, y), T(y).`).
        src: String,
    },
    /// One-shot read of a query's current result.
    Query {
        /// Registered query name.
        name: String,
    },
    /// Open (or resume) a change feed.
    Subscribe {
        /// Registered query name.
        name: String,
        /// Resume cursor: the last seq this client has fully applied.
        /// `None` opens a fresh feed (snapshot + live deltas).
        from_seq: Option<u64>,
    },
    /// Detach a feed previously opened with `Subscribe`.
    Unsubscribe {
        /// Registered query name.
        name: String,
    },
    /// Client → server: cursor progress report (observability only).
    /// Server → client: confirmation of `Register`/`Unsubscribe`, with
    /// the server's current seq.
    Ack {
        /// Query (or command subject) name.
        name: String,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Feed opened; tells the client how its cursor was satisfied.
    Subscribed {
        /// Query name.
        name: String,
        /// How the cursor was satisfied.
        mode: SubscribeMode,
        /// The cursor position the feed continues from.
        seq: u64,
    },
    /// Full result pinned at `seq`.
    Snapshot {
        /// Query name.
        name: String,
        /// Pin position on the global timeline.
        seq: u64,
        /// The pinned result rows.
        rows: Vec<Row>,
    },
    /// One slice of a snapshot too large for a single frame. All chunks
    /// of one snapshot carry the same pin `seq`; the receiver
    /// concatenates their rows (server-sent in order) and treats the
    /// whole as an authoritative `Snapshot` once `last` arrives. A chunk
    /// run is never interleaved with another snapshot of the same query.
    /// `first` marks the opening chunk, which is what lets a receiver
    /// discard a stale partial run when the server restarts a snapshot
    /// at the *same* pin seq (e.g. a reconnect resumes into the cached
    /// snapshot) — the seq alone cannot tell those apart.
    SnapshotChunk {
        /// Query name.
        name: String,
        /// Pin position on the global timeline (same for every chunk).
        seq: u64,
        /// Whether this chunk opens a new snapshot run.
        first: bool,
        /// Whether this is the final chunk of the snapshot.
        last: bool,
        /// This chunk's slice of the pinned result rows.
        rows: Vec<Row>,
    },
    /// Netted result delta; the client's cursor advances to `seq`.
    Delta {
        /// Query name.
        name: String,
        /// Timeline position after this delta.
        seq: u64,
        /// Rows that entered the result.
        added: Vec<Row>,
        /// Rows that left the result.
        removed: Vec<Row>,
    },
    /// The feed overran its bounded outbound queue under the
    /// disconnect-on-lag policy and was detached at `resync_at`.
    Lagged {
        /// Query name.
        name: String,
        /// Last seq the server tried to deliver; re-subscribing with any
        /// cursor ≥ the last *applied* seq nets the gap from the ring.
        resync_at: u64,
    },
    /// A command failed.
    Error {
        /// Machine-readable cause (see [`ErrorCode`]).
        code: u8,
        /// Human-readable detail.
        msg: String,
    },
    /// Ask the server to render its metrics registry.
    StatsRequest,
    /// The server's metrics registry in Prometheus text format. The
    /// text carries a `u32` length (not the `u16` of wire strings) —
    /// a busy registry easily renders past 64 KiB.
    StatsReply {
        /// `Registry::render()` output (empty when the server has no
        /// registry attached).
        text: String,
    },
}

/// Error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Unclassified failure.
    Other = 0,
    /// No query registered under that name.
    UnknownQuery = 1,
    /// The source does not support the command (e.g. `Register` against
    /// a sealed sharded session).
    Unsupported = 2,
    /// The frame was understood but invalid in this state (bad version,
    /// duplicate subscribe, …).
    BadRequest = 3,
}

mod tag {
    pub const HELLO: u8 = 0x01;
    pub const REGISTER: u8 = 0x02;
    pub const QUERY: u8 = 0x03;
    pub const SUBSCRIBE: u8 = 0x04;
    pub const UNSUBSCRIBE: u8 = 0x05;
    pub const ACK: u8 = 0x06;
    pub const SUBSCRIBED: u8 = 0x07;
    pub const SNAPSHOT: u8 = 0x08;
    pub const DELTA: u8 = 0x09;
    pub const LAGGED: u8 = 0x0A;
    pub const ERROR: u8 = 0x0B;
    pub const SNAPSHOT_CHUNK: u8 = 0x0C;
    pub const STATS_REQUEST: u8 = 0x0D;
    pub const STATS_REPLY: u8 = 0x0E;
}

/// Anything that can go wrong while encoding, decoding, or transporting
/// frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF between frames
    /// as `UnexpectedEof`).
    Io(io::Error),
    /// The bytes did not decode as a frame.
    Malformed(&'static str),
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

// ---- encoding ------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    // Wire strings carry a `u16` length. Longer inputs are reachable
    // remotely (error messages embed client-supplied names), so truncate
    // on a char boundary — a wrapped length prefix would desynchronize
    // the stream for every frame after this one.
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    put_u16(buf, len as u16);
    buf.extend_from_slice(&s.as_bytes()[..len]);
}

fn put_rows(buf: &mut Vec<u8>, rows: &[Row]) {
    put_u32(buf, rows.len() as u32);
    let arity = rows.first().map(Vec::len).unwrap_or(0);
    put_u16(buf, arity as u16);
    for row in rows {
        debug_assert_eq!(row.len(), arity, "rows of one result share the arity");
        for &c in row {
            put_u64(buf, c);
        }
    }
}

impl Frame {
    /// Appends the frame *body* (tag + fields, no length prefix) to `buf`.
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello { version, seq } => {
                buf.push(tag::HELLO);
                put_u32(buf, *version);
                put_u64(buf, *seq);
            }
            Frame::Register { name, src } => {
                buf.push(tag::REGISTER);
                put_str(buf, name);
                put_str(buf, src);
            }
            Frame::Query { name } => {
                buf.push(tag::QUERY);
                put_str(buf, name);
            }
            Frame::Subscribe { name, from_seq } => {
                buf.push(tag::SUBSCRIBE);
                put_str(buf, name);
                match from_seq {
                    Some(seq) => {
                        buf.push(1);
                        put_u64(buf, *seq);
                    }
                    None => buf.push(0),
                }
            }
            Frame::Unsubscribe { name } => {
                buf.push(tag::UNSUBSCRIBE);
                put_str(buf, name);
            }
            Frame::Ack { name, seq } => {
                buf.push(tag::ACK);
                put_str(buf, name);
                put_u64(buf, *seq);
            }
            Frame::Subscribed { name, mode, seq } => {
                buf.push(tag::SUBSCRIBED);
                put_str(buf, name);
                buf.push(mode.to_byte());
                put_u64(buf, *seq);
            }
            Frame::Snapshot { name, seq, rows } => {
                buf.push(tag::SNAPSHOT);
                put_str(buf, name);
                put_u64(buf, *seq);
                put_rows(buf, rows);
            }
            Frame::SnapshotChunk {
                name,
                seq,
                first,
                last,
                rows,
            } => {
                buf.push(tag::SNAPSHOT_CHUNK);
                put_str(buf, name);
                put_u64(buf, *seq);
                buf.push(chunk_flags(*first, *last));
                put_rows(buf, rows);
            }
            Frame::Delta {
                name,
                seq,
                added,
                removed,
            } => {
                buf.push(tag::DELTA);
                put_str(buf, name);
                put_u64(buf, *seq);
                put_rows(buf, added);
                put_rows(buf, removed);
            }
            Frame::Lagged { name, resync_at } => {
                buf.push(tag::LAGGED);
                put_str(buf, name);
                put_u64(buf, *resync_at);
            }
            Frame::Error { code, msg } => {
                buf.push(tag::ERROR);
                buf.push(*code);
                put_str(buf, msg);
            }
            Frame::StatsRequest => {
                buf.push(tag::STATS_REQUEST);
            }
            Frame::StatsReply { text } => {
                buf.push(tag::STATS_REPLY);
                put_u32(buf, text.len() as u32);
                buf.extend_from_slice(text.as_bytes());
            }
        }
    }

    /// Encodes the frame as a complete wire message: `u32` length prefix
    /// followed by the body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; 4];
        self.encode_body(&mut buf);
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        buf
    }
}

/// Encodes a complete `Delta` wire message directly from borrowed rows —
/// the fan-out fast path: the pump encodes each commit once into shared
/// bytes without first cloning rows into a [`Frame`].
pub fn encode_delta_frame(name: &str, seq: u64, added: &[Row], removed: &[Row]) -> Vec<u8> {
    let mut buf = vec![0u8; 4];
    buf.push(tag::DELTA);
    put_str(&mut buf, name);
    put_u64(&mut buf, seq);
    put_rows(&mut buf, added);
    put_rows(&mut buf, removed);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Encodes a complete `Snapshot` wire message directly from borrowed
/// rows (see [`encode_delta_frame`]).
pub fn encode_snapshot_frame(name: &str, seq: u64, rows: &[Row]) -> Vec<u8> {
    let mut buf = vec![0u8; 4];
    buf.push(tag::SNAPSHOT);
    put_str(&mut buf, name);
    put_u64(&mut buf, seq);
    put_rows(&mut buf, rows);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Encodes a complete `SnapshotChunk` wire message directly from
/// borrowed rows (see [`encode_delta_frame`]).
pub fn encode_snapshot_chunk_frame(
    name: &str,
    seq: u64,
    first: bool,
    last: bool,
    rows: &[Row],
) -> Vec<u8> {
    let mut buf = vec![0u8; 4];
    buf.push(tag::SNAPSHOT_CHUNK);
    put_str(&mut buf, name);
    put_u64(&mut buf, seq);
    buf.push(chunk_flags(first, last));
    put_rows(&mut buf, rows);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// The `SnapshotChunk` flags byte: bit 0 = `last`, bit 1 = `first`.
fn chunk_flags(first: bool, last: bool) -> u8 {
    (last as u8) | ((first as u8) << 1)
}

/// How many rows fit a `chunk_bytes` payload budget (at least one —
/// progress is guaranteed even when a single row exceeds the budget).
fn rows_per_chunk(rows: &[Row], chunk_bytes: usize) -> usize {
    let row_bytes = rows.first().map(|r| r.len() * 8).unwrap_or(0).max(1);
    (chunk_bytes / row_bytes).max(1)
}

/// Encodes a snapshot as wire messages, splitting it into
/// `SnapshotChunk` frames (the final one marked `last`) when the row
/// payload exceeds `chunk_bytes`. Results that fit stay one
/// authoritative `Snapshot` frame, so small queries never pay the
/// chunking indirection.
pub fn encode_snapshot_frames(
    name: &str,
    seq: u64,
    rows: &[Row],
    chunk_bytes: usize,
) -> Vec<Vec<u8>> {
    let per = rows_per_chunk(rows, chunk_bytes);
    if rows.len() <= per {
        return vec![encode_snapshot_frame(name, seq, rows)];
    }
    let mut out = Vec::with_capacity(rows.len().div_ceil(per));
    let mut start = 0;
    while start < rows.len() {
        let end = (start + per).min(rows.len());
        out.push(encode_snapshot_chunk_frame(
            name,
            seq,
            start == 0,
            end == rows.len(),
            &rows[start..end],
        ));
        start = end;
    }
    out
}

/// [`encode_snapshot_frames`] at the [`Frame`] level, for reply paths
/// that hand frames (not bytes) downstream. Consumes `rows` so the
/// single-frame fast path moves them without a copy.
pub fn snapshot_frames(name: &str, seq: u64, rows: Vec<Row>, chunk_bytes: usize) -> Vec<Frame> {
    let per = rows_per_chunk(&rows, chunk_bytes);
    if rows.len() <= per {
        return vec![Frame::Snapshot {
            name: name.into(),
            seq,
            rows,
        }];
    }
    let mut out = Vec::with_capacity(rows.len().div_ceil(per));
    let mut rest = rows;
    while !rest.is_empty() {
        let tail = rest.split_off(per.min(rest.len()));
        out.push(Frame::SnapshotChunk {
            name: name.into(),
            seq,
            first: out.is_empty(),
            last: tail.is_empty(),
            rows: rest,
        });
        rest = tail;
    }
    out
}

// ---- decoding ------------------------------------------------------------

/// A cursor over a frame body. The last private copy of the bounded
/// cursor `cqu_wal::Cursor` now is for the record, replication and
/// checkpoint decoders: this crate does not depend on `cqu-wal`, and a
/// new edge changes `cqbench/Cargo.lock`, so the port waits for the
/// benchmark lock refresh (ROADMAP item 3).
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed("truncated field"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn rows(&mut self) -> Result<Vec<Row>, WireError> {
        let count = self.u32()? as usize;
        let arity = self.u16()? as usize;
        // Zero-arity rows occupy no body bytes, so the byte bound below
        // cannot constrain their count; under set semantics a nullary
        // result holds at most one (empty) tuple, so bound it directly.
        if arity == 0 && count > 1 {
            return Err(WireError::Malformed("zero-arity row count exceeds 1"));
        }
        // The remaining body bounds the claimed payload before allocation.
        let need = count.checked_mul(arity).and_then(|c| c.checked_mul(8));
        match need {
            Some(n) if n <= self.buf.len() - self.pos => {}
            _ => return Err(WireError::Malformed("row payload exceeds frame body")),
        }
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(self.u64()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

impl Frame {
    /// Decodes a frame body (tag + fields, no length prefix). Strict:
    /// trailing bytes are an error.
    pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        let mut cur = Cur { buf: body, pos: 0 };
        let frame = match cur.u8()? {
            tag::HELLO => Frame::Hello {
                version: cur.u32()?,
                seq: cur.u64()?,
            },
            tag::REGISTER => Frame::Register {
                name: cur.str()?,
                src: cur.str()?,
            },
            tag::QUERY => Frame::Query { name: cur.str()? },
            tag::SUBSCRIBE => {
                let name = cur.str()?;
                let from_seq = match cur.u8()? {
                    0 => None,
                    1 => Some(cur.u64()?),
                    _ => return Err(WireError::Malformed("bad cursor flag")),
                };
                Frame::Subscribe { name, from_seq }
            }
            tag::UNSUBSCRIBE => Frame::Unsubscribe { name: cur.str()? },
            tag::ACK => Frame::Ack {
                name: cur.str()?,
                seq: cur.u64()?,
            },
            tag::SUBSCRIBED => Frame::Subscribed {
                name: cur.str()?,
                mode: SubscribeMode::from_byte(cur.u8()?)?,
                seq: cur.u64()?,
            },
            tag::SNAPSHOT => Frame::Snapshot {
                name: cur.str()?,
                seq: cur.u64()?,
                rows: cur.rows()?,
            },
            tag::SNAPSHOT_CHUNK => {
                let name = cur.str()?;
                let seq = cur.u64()?;
                let flags = cur.u8()?;
                if flags > 3 {
                    return Err(WireError::Malformed("bad chunk flags"));
                }
                Frame::SnapshotChunk {
                    name,
                    seq,
                    first: flags & 2 != 0,
                    last: flags & 1 != 0,
                    rows: cur.rows()?,
                }
            }
            tag::DELTA => Frame::Delta {
                name: cur.str()?,
                seq: cur.u64()?,
                added: cur.rows()?,
                removed: cur.rows()?,
            },
            tag::LAGGED => Frame::Lagged {
                name: cur.str()?,
                resync_at: cur.u64()?,
            },
            tag::ERROR => Frame::Error {
                code: cur.u8()?,
                msg: cur.str()?,
            },
            tag::STATS_REQUEST => Frame::StatsRequest,
            tag::STATS_REPLY => {
                let len = cur.u32()? as usize;
                let bytes = cur.take(len)?;
                Frame::StatsReply {
                    text: String::from_utf8(bytes.to_vec())
                        .map_err(|_| WireError::Malformed("non-UTF-8 stats text"))?,
                }
            }
            _ => return Err(WireError::Malformed("unknown tag")),
        };
        cur.finish()?;
        Ok(frame)
    }
}

/// Writes one complete frame (length prefix + body) to `w`.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&frame.encode())?;
    Ok(())
}

/// Writes pre-encoded frame bytes (as produced by [`Frame::encode`]) —
/// the fan-out fast path: one encoding, many sockets.
pub fn write_encoded(w: &mut impl Write, bytes: &[u8]) -> Result<(), WireError> {
    w.write_all(bytes)?;
    Ok(())
}

/// Reads one complete frame from `r`. Blocks per the reader's timeout
/// configuration; a clean disconnect between frames surfaces as
/// `WireError::Io(UnexpectedEof)`.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Frame::decode_body(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let (len, body) = bytes.split_at(4);
        assert_eq!(
            u32::from_le_bytes(len.try_into().unwrap()) as usize,
            body.len()
        );
        assert_eq!(Frame::decode_body(body).unwrap(), frame);
        // And through the stream API.
        let mut cursor = std::io::Cursor::new(&bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
            seq: 42,
        });
        roundtrip(Frame::Register {
            name: "feed".into(),
            src: "Feed(u, v, p) :- Follows(u, v), Posts(v, p).".into(),
        });
        roundtrip(Frame::Query {
            name: "feed".into(),
        });
        roundtrip(Frame::Subscribe {
            name: "feed".into(),
            from_seq: None,
        });
        roundtrip(Frame::Subscribe {
            name: "feed".into(),
            from_seq: Some(17),
        });
        roundtrip(Frame::Unsubscribe {
            name: "feed".into(),
        });
        roundtrip(Frame::Ack {
            name: "feed".into(),
            seq: 9,
        });
        for mode in [
            SubscribeMode::Live,
            SubscribeMode::Resumed,
            SubscribeMode::Resync,
        ] {
            roundtrip(Frame::Subscribed {
                name: "feed".into(),
                mode,
                seq: 3,
            });
        }
        roundtrip(Frame::Snapshot {
            name: "feed".into(),
            seq: 7,
            rows: vec![vec![1, 2, 3], vec![4, 5, 6]],
        });
        roundtrip(Frame::Snapshot {
            name: "empty".into(),
            seq: 0,
            rows: vec![],
        });
        roundtrip(Frame::SnapshotChunk {
            name: "feed".into(),
            seq: 7,
            first: true,
            last: false,
            rows: vec![vec![1, 2], vec![3, 4]],
        });
        roundtrip(Frame::SnapshotChunk {
            name: "feed".into(),
            seq: 7,
            first: false,
            last: true,
            rows: vec![],
        });
        roundtrip(Frame::Delta {
            name: "feed".into(),
            seq: 11,
            added: vec![vec![1, 2]],
            removed: vec![vec![3, 4], vec![5, 6]],
        });
        roundtrip(Frame::Lagged {
            name: "feed".into(),
            resync_at: 99,
        });
        roundtrip(Frame::Error {
            code: ErrorCode::UnknownQuery as u8,
            msg: "no query \"nope\"".into(),
        });
        roundtrip(Frame::StatsRequest);
        roundtrip(Frame::StatsReply {
            text: String::new(),
        });
        roundtrip(Frame::StatsReply {
            // Past the u16 wire-string cap: the u32 length must carry it.
            text: "# metric\nwal_commits_total 12\n".repeat(4_000),
        });
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        assert!(matches!(
            Frame::decode_body(&[]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Frame::decode_body(&[0xFF]),
            Err(WireError::Malformed("unknown tag"))
        ));
        // Truncated Hello.
        assert!(Frame::decode_body(&[0x01, 1, 0, 0]).is_err());
        // Trailing garbage after a valid frame.
        let mut bytes = Vec::new();
        Frame::Query { name: "q".into() }.encode_body(&mut bytes);
        bytes.push(0);
        assert!(matches!(
            Frame::decode_body(&bytes),
            Err(WireError::Malformed("trailing bytes"))
        ));
        // A row count the body cannot possibly hold must fail before
        // allocating.
        let mut bytes = vec![tag::SNAPSHOT];
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'q');
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        bytes.extend_from_slice(&8u16.to_le_bytes()); // arity
        assert!(matches!(
            Frame::decode_body(&bytes),
            Err(WireError::Malformed("row payload exceeds frame body"))
        ));
    }

    #[test]
    fn zero_arity_rows_are_bounded() {
        // One empty tuple (a nullary result that holds) roundtrips.
        roundtrip(Frame::Snapshot {
            name: "nullary".into(),
            seq: 1,
            rows: vec![vec![]],
        });
        // A tiny frame claiming u32::MAX zero-arity rows would pass the
        // byte bound (0 * 8 = 0 bytes needed) — it must be rejected
        // before the count drives any allocation.
        let mut bytes = vec![tag::SNAPSHOT];
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'q');
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        bytes.extend_from_slice(&0u16.to_le_bytes()); // arity 0
        assert!(matches!(
            Frame::decode_body(&bytes),
            Err(WireError::Malformed("zero-arity row count exceeds 1"))
        ));
    }

    #[test]
    fn oversized_strings_truncate_on_a_char_boundary() {
        // 'é' is 2 bytes; an odd byte budget must shrink to a boundary.
        let long: String = "é".repeat(40_000); // 80 000 bytes
        let frame = Frame::Error {
            code: ErrorCode::Other as u8,
            msg: long.clone(),
        };
        let bytes = frame.encode();
        let decoded = Frame::decode_body(&bytes[4..]).unwrap();
        let Frame::Error { msg, .. } = decoded else {
            panic!("wrong frame");
        };
        assert!(msg.len() <= u16::MAX as usize);
        assert_eq!(msg.len(), u16::MAX as usize - 1); // 65534: char boundary
        assert!(long.starts_with(&msg));
    }

    #[test]
    fn borrowed_encoders_match_frame_encoding() {
        let added = vec![vec![1u64, 2], vec![3, 4]];
        let removed = vec![vec![5u64, 6]];
        assert_eq!(
            encode_delta_frame("q", 9, &added, &removed),
            Frame::Delta {
                name: "q".into(),
                seq: 9,
                added: added.clone(),
                removed: removed.clone(),
            }
            .encode()
        );
        assert_eq!(
            encode_snapshot_frame("q", 9, &added),
            Frame::Snapshot {
                name: "q".into(),
                seq: 9,
                rows: added.clone(),
            }
            .encode()
        );
    }

    #[test]
    fn bad_chunk_flags_are_rejected() {
        let mut bytes = Vec::new();
        Frame::SnapshotChunk {
            name: "q".into(),
            seq: 3,
            first: true,
            last: true,
            rows: vec![vec![1]],
        }
        .encode_body(&mut bytes);
        // The flags byte sits right after the name (u16 len + 1 byte)
        // and the u64 seq: bit 0 = last, bit 1 = first.
        let flag_at = 1 + 2 + 1 + 8;
        assert_eq!(bytes[flag_at], 3);
        bytes[flag_at] = 4;
        assert!(matches!(
            Frame::decode_body(&bytes),
            Err(WireError::Malformed("bad chunk flags"))
        ));
    }

    #[test]
    fn snapshot_chunking_partitions_exactly() {
        let rows: Vec<Row> = (0..100u64).map(|i| vec![i, i + 1]).collect();
        // 16 bytes per row, 40-byte budget → 2 rows per chunk, 50 chunks.
        let frames = snapshot_frames("q", 9, rows.clone(), 40);
        assert_eq!(frames.len(), 50);
        let mut rebuilt = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let Frame::SnapshotChunk {
                name,
                seq,
                first,
                last,
                rows: chunk,
            } = frame
            else {
                panic!("expected chunks, got {frame:?}");
            };
            assert_eq!(name, "q");
            assert_eq!(*seq, 9);
            assert_eq!(*first, i == 0);
            assert_eq!(*last, i == 49);
            assert_eq!(chunk.len(), 2);
            rebuilt.extend(chunk.iter().cloned());
        }
        assert_eq!(rebuilt, rows);
        // The byte-level encoder agrees frame for frame.
        let encoded = encode_snapshot_frames("q", 9, &rows, 40);
        assert_eq!(encoded.len(), frames.len());
        for (bytes, frame) in encoded.iter().zip(&frames) {
            assert_eq!(bytes, &frame.encode());
        }
        // Small results stay a single authoritative Snapshot.
        let small = snapshot_frames("q", 9, rows[..2].to_vec(), 40);
        assert!(matches!(&small[..], [Frame::Snapshot { .. }]));
        let small_bytes = encode_snapshot_frames("q", 9, &rows[..2], 40);
        assert_eq!(small_bytes, vec![small[0].encode()]);
        // A single row over budget still makes progress, one row per chunk.
        let wide = snapshot_frames("q", 9, vec![vec![0; 100], vec![1; 100]], 8);
        assert_eq!(wide.len(), 2);
        // An empty result is one (empty) Snapshot, never zero frames.
        assert!(matches!(
            &snapshot_frames("q", 9, vec![], 40)[..],
            [Frame::Snapshot { rows, .. }] if rows.is_empty()
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(&bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Oversized(_))
        ));
    }
}
