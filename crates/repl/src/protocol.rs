//! The replication wire protocol: length-prefixed binary frames.
//!
//! Same framing discipline as `cqu-serve`: every wire message is a
//! `u32` little-endian body length followed by the body; the body is a
//! one-byte tag followed by fixed little-endian fields. The payload of
//! a [`Frame::Records`] message is a run of WAL record frames
//! (`u32 len | u32 crc32 | payload`, exactly the segment encoding) —
//! the leader ships the bytes it logged, and both sides validate the
//! per-record CRC independently of the transport.
//!
//! | frame | direction | payload | meaning |
//! |---|---|---|---|
//! | `Hello` | f→l | `version`, `epoch`, `cursor` | handshake: the follower's last known leader epoch and applied seq |
//! | `Welcome` | l→f | `epoch`, `head_seq`, `sharded`, `reset`, `ckpt` | handshake reply: `reset` means the cursor could not be resumed (new epoch, or pruned past it) and a bootstrap follows — a chunked checkpoint when `ckpt`, else the full log from seq 0 |
//! | `CkptChunk` | l→f | `seq`, flags (`last`/`first`), bytes | one slice of the checkpoint body pinned at `seq`; the follower concatenates `first..last` |
//! | `Records` | l→f | WAL record frames | committed records, in log order |
//! | `Heartbeat` | l→f | `head_seq` | keep-alive carrying the leader's committed head |
//! | `Ack` | f→l | `applied_seq` | follower progress (lag observability on the leader) |
//! | `Deny` | l→f | `reason`, `msg` | handshake refused (version mismatch, at capacity, stale epoch) |
//!
//! Decoding is strict: trailing bytes, truncated fields, or an unknown
//! tag are [`WireError`]s, and the body length is capped
//! ([`MAX_FRAME_LEN`]) so a corrupt prefix cannot ask for gigabytes.

use cqu_wal::{Cursor, FrameError, Rec};
use std::io::{self, Read, Write};

/// Replication protocol version spoken by this build. The leader denies
/// a `Hello` with a different version. Version 2 added the typed
/// [`DenyReason`] byte to `Deny` (and with it the stale-epoch fence).
/// Version 3 ships checkpoint bodies that carry a stamp per relation,
/// which a follower parses.
pub const REPL_VERSION: u32 = 3;

/// Upper bound on a frame body; larger length prefixes are rejected
/// before any allocation.
pub const MAX_FRAME_LEN: usize = 256 << 20;

mod tag {
    pub const HELLO: u8 = 0x01;
    pub const WELCOME: u8 = 0x02;
    pub const CKPT_CHUNK: u8 = 0x03;
    pub const RECORDS: u8 = 0x04;
    pub const HEARTBEAT: u8 = 0x05;
    pub const ACK: u8 = 0x06;
    pub const DENY: u8 = 0x07;
}

/// Why a leader refused a handshake (or fenced a live session). Carried
/// as one byte in [`Frame::Deny`] so followers can tell a transient
/// refusal (retry later) from a permanent one (stop hot-retrying and
/// surface the denial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// Unclassified refusal — treated as transient.
    Other,
    /// Protocol version mismatch. Permanent: no amount of retrying
    /// changes the binary on either end.
    Version,
    /// The leader is at its follower capacity. Transient: a slot may
    /// free up.
    AtCapacity,
    /// The peer's epoch is behind the cluster's — a deposed leader (or a
    /// follower of one) knocking after a promotion. Permanent for this
    /// endpoint: the fence never lifts until the target changes.
    StaleEpoch,
}

impl DenyReason {
    /// True when retrying the same endpoint can never succeed.
    pub fn is_permanent(self) -> bool {
        matches!(self, DenyReason::Version | DenyReason::StaleEpoch)
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            DenyReason::Other => 0,
            DenyReason::Version => 1,
            DenyReason::AtCapacity => 2,
            DenyReason::StaleEpoch => 3,
        }
    }

    fn from_u8(b: u8) -> Result<DenyReason, &'static str> {
        Ok(match b {
            0 => DenyReason::Other,
            1 => DenyReason::Version,
            2 => DenyReason::AtCapacity,
            3 => DenyReason::StaleEpoch,
            _ => return Err("unknown deny reason"),
        })
    }
}

impl std::fmt::Display for DenyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DenyReason::Other => "refused",
            DenyReason::Version => "protocol version mismatch",
            DenyReason::AtCapacity => "at capacity",
            DenyReason::StaleEpoch => "stale epoch",
        })
    }
}

/// Every frame either side can put on the wire. See the module docs for
/// the frame table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Follower → leader handshake.
    Hello {
        /// Protocol version of the follower.
        version: u32,
        /// The leader epoch the follower last applied records from
        /// (0 when it has never connected).
        epoch: u64,
        /// The last seq the follower has durably applied.
        cursor: u64,
    },
    /// Leader → follower handshake reply.
    Welcome {
        /// The leader's current epoch (one log lifetime).
        epoch: u64,
        /// The leader's committed head seq at attach time.
        head_seq: u64,
        /// Whether the leader session is sharded.
        sharded: bool,
        /// `false`: the follower's cursor resumes — only records past it
        /// follow. `true`: the follower must discard its state and
        /// bootstrap (checkpoint transfer when `ckpt`, full log replay
        /// otherwise).
        reset: bool,
        /// Whether a `CkptChunk` run follows (only with `reset`).
        ckpt: bool,
    },
    /// One slice of a checkpoint body pinned at `seq`.
    CkptChunk {
        /// The checkpoint's seq (same for every chunk of one body).
        seq: u64,
        /// Whether this chunk opens the body.
        first: bool,
        /// Whether this is the final chunk.
        last: bool,
        /// This chunk's slice of the body bytes.
        bytes: Vec<u8>,
    },
    /// Committed WAL records in log order, encoded as segment frames.
    /// Decode with [`decode_records`].
    Records {
        /// Concatenated `len | crc | payload` record frames.
        bytes: Vec<u8>,
    },
    /// Keep-alive; also how an idle follower learns the leader's head.
    Heartbeat {
        /// The leader's committed head seq.
        head_seq: u64,
    },
    /// Follower progress report.
    Ack {
        /// The last seq the follower has applied.
        applied_seq: u64,
    },
    /// Handshake refused; the connection closes after this frame.
    Deny {
        /// Typed refusal class (drives the follower's retry policy).
        reason: DenyReason,
        /// Human-readable detail.
        msg: String,
    },
}

/// Anything that can go wrong while encoding, decoding, or transporting
/// frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF between frames
    /// as `UnexpectedEof`).
    Io(io::Error),
    /// The bytes did not decode as a frame (or a shipped record failed
    /// its CRC).
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

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    // Wire strings carry a `u16` length; truncate long inputs on a char
    // boundary so the length prefix can never wrap and desynchronize
    // the stream.
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&s.as_bytes()[..len]);
}

/// The chunk flags byte: bit 0 = `last`, bit 1 = `first` (same layout
/// as `cqu-serve`'s `SnapshotChunk`).
fn chunk_flags(first: bool, last: bool) -> u8 {
    (last as u8) | ((first as u8) << 1)
}

impl Frame {
    /// Appends the frame *body* (tag + fields, no length prefix) to `buf`.
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                version,
                epoch,
                cursor,
            } => {
                buf.push(tag::HELLO);
                put_u32(buf, *version);
                put_u64(buf, *epoch);
                put_u64(buf, *cursor);
            }
            Frame::Welcome {
                epoch,
                head_seq,
                sharded,
                reset,
                ckpt,
            } => {
                buf.push(tag::WELCOME);
                put_u64(buf, *epoch);
                put_u64(buf, *head_seq);
                buf.push(u8::from(*sharded));
                buf.push(u8::from(*reset));
                buf.push(u8::from(*ckpt));
            }
            Frame::CkptChunk {
                seq,
                first,
                last,
                bytes,
            } => {
                buf.push(tag::CKPT_CHUNK);
                put_u64(buf, *seq);
                buf.push(chunk_flags(*first, *last));
                put_u32(buf, bytes.len() as u32);
                buf.extend_from_slice(bytes);
            }
            Frame::Records { bytes } => {
                buf.push(tag::RECORDS);
                buf.extend_from_slice(bytes);
            }
            Frame::Heartbeat { head_seq } => {
                buf.push(tag::HEARTBEAT);
                put_u64(buf, *head_seq);
            }
            Frame::Ack { applied_seq } => {
                buf.push(tag::ACK);
                put_u64(buf, *applied_seq);
            }
            Frame::Deny { reason, msg } => {
                buf.push(tag::DENY);
                buf.push(reason.to_u8());
                put_str(buf, msg);
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

/// Encodes a complete `Records` wire message directly from records —
/// the commit-hook fast path: the leader serializes each commit once
/// into shared bytes, however many followers are attached.
pub fn encode_records_frame(recs: &[Rec]) -> Vec<u8> {
    let mut buf = vec![0u8; 4];
    buf.push(tag::RECORDS);
    for rec in recs {
        rec.frame(&mut buf);
    }
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Decodes the payload of a [`Frame::Records`] message: a run of
/// `len | crc | payload` record frames. Strict — a short frame, CRC
/// mismatch, or malformed record payload fails the whole batch (the
/// transport delivered it intact, so damage means a bug, not a torn
/// tail to truncate).
pub fn decode_records(mut bytes: &[u8]) -> Result<Vec<Rec>, WireError> {
    let mut recs = Vec::new();
    while !bytes.is_empty() {
        let (rec, used) = Rec::unframe(bytes).map_err(
            |(FrameError::Torn(what) | FrameError::Undecodable(what))| WireError::Malformed(what),
        )?;
        recs.push(rec);
        bytes = &bytes[used..];
    }
    Ok(recs)
}

// ---- decoding ------------------------------------------------------------

impl Frame {
    /// Decodes a frame body (tag + fields, no length prefix). Strict:
    /// trailing bytes are an error.
    pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        Frame::parse_body(body).map_err(WireError::Malformed)
    }

    fn parse_body(body: &[u8]) -> Result<Frame, &'static str> {
        let mut cur = Cursor(body);
        let frame = match cur.u8()? {
            tag::HELLO => Frame::Hello {
                version: cur.u32()?,
                epoch: cur.u64()?,
                cursor: cur.u64()?,
            },
            tag::WELCOME => Frame::Welcome {
                epoch: cur.u64()?,
                head_seq: cur.u64()?,
                sharded: cur.u8()? != 0,
                reset: cur.u8()? != 0,
                ckpt: cur.u8()? != 0,
            },
            tag::CKPT_CHUNK => {
                let seq = cur.u64()?;
                let flags = cur.u8()?;
                if flags > 3 {
                    return Err("bad chunk flags");
                }
                let len = cur.u32()? as usize;
                let bytes = cur.take(len)?.to_vec();
                Frame::CkptChunk {
                    seq,
                    first: flags & 2 != 0,
                    last: flags & 1 != 0,
                    bytes,
                }
            }
            tag::RECORDS => Frame::Records {
                bytes: cur.take(cur.0.len())?.to_vec(),
            },
            tag::HEARTBEAT => Frame::Heartbeat {
                head_seq: cur.u64()?,
            },
            tag::ACK => Frame::Ack {
                applied_seq: cur.u64()?,
            },
            tag::DENY => {
                let reason = DenyReason::from_u8(cur.u8()?)?;
                // Wire strings carry a `u16` length (see `put_str`).
                let len = cur.u16()? as usize;
                Frame::Deny {
                    reason,
                    msg: cur.str(len)?,
                }
            }
            _ => return Err("unknown tag"),
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
        let mut cursor = std::io::Cursor::new(&bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello {
            version: REPL_VERSION,
            epoch: 3,
            cursor: 42,
        });
        roundtrip(Frame::Welcome {
            epoch: 4,
            head_seq: 100,
            sharded: true,
            reset: true,
            ckpt: false,
        });
        roundtrip(Frame::CkptChunk {
            seq: 50,
            first: true,
            last: false,
            bytes: vec![1, 2, 3],
        });
        roundtrip(Frame::CkptChunk {
            seq: 50,
            first: false,
            last: true,
            bytes: vec![],
        });
        roundtrip(Frame::Heartbeat { head_seq: 7 });
        roundtrip(Frame::Ack { applied_seq: 6 });
        for reason in [
            DenyReason::Other,
            DenyReason::Version,
            DenyReason::AtCapacity,
            DenyReason::StaleEpoch,
        ] {
            roundtrip(Frame::Deny {
                reason,
                msg: format!("{reason}"),
            });
        }
    }

    #[test]
    fn deny_reason_permanence_and_unknown_byte() {
        assert!(DenyReason::Version.is_permanent());
        assert!(DenyReason::StaleEpoch.is_permanent());
        assert!(!DenyReason::Other.is_permanent());
        assert!(!DenyReason::AtCapacity.is_permanent());
        // An unknown reason byte is a malformed frame, not a silent
        // downgrade to some default class.
        let mut bytes = Vec::new();
        Frame::Deny {
            reason: DenyReason::Other,
            msg: "x".into(),
        }
        .encode_body(&mut bytes);
        bytes[1] = 9; // reason byte after the tag
        assert!(matches!(
            Frame::decode_body(&bytes),
            Err(WireError::Malformed("unknown deny reason"))
        ));
    }

    #[test]
    fn records_roundtrip_through_the_batch_encoder() {
        let recs = vec![
            Rec::Mode { sharded: false },
            Rec::Register {
                name: "q".into(),
                src: "Q(x) :- E(x, y).".into(),
                choice: 0,
            },
            Rec::Update {
                seq: 1,
                shard: 0,
                insert: true,
                rel: 0,
                tuple: vec![1, 2],
            },
            Rec::TxBegin { first_seq: 2 },
            Rec::TxCommit { last_seq: 5 },
            Rec::SeqBurn { upto: 9 },
        ];
        let bytes = encode_records_frame(&recs);
        let mut cursor = std::io::Cursor::new(&bytes);
        let Frame::Records { bytes: payload } = read_frame(&mut cursor).unwrap() else {
            panic!("expected Records");
        };
        assert_eq!(decode_records(&payload).unwrap(), recs);
        // An empty batch is a valid (if pointless) frame.
        let empty = encode_records_frame(&[]);
        let mut cursor = std::io::Cursor::new(&empty);
        let Frame::Records { bytes: payload } = read_frame(&mut cursor).unwrap() else {
            panic!("expected Records");
        };
        assert!(decode_records(&payload).unwrap().is_empty());
    }

    #[test]
    fn corrupted_records_are_rejected() {
        let recs = vec![Rec::Update {
            seq: 1,
            shard: 0,
            insert: true,
            rel: 0,
            tuple: vec![7],
        }];
        let frame = encode_records_frame(&recs);
        let payload = &frame[5..]; // strip length prefix + tag
        assert!(decode_records(payload).is_ok());
        // Flip a payload bit: CRC catches it.
        let mut bad = payload.to_vec();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(
            decode_records(&bad),
            Err(WireError::Malformed("record crc mismatch"))
        ));
        // Truncate mid-frame.
        assert!(matches!(
            decode_records(&payload[..payload.len() - 1]),
            Err(WireError::Malformed(_))
        ));
        // A length prefix past the record cap fails before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_records(&huge),
            Err(WireError::Malformed("record length exceeds cap"))
        ));
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
        assert!(Frame::decode_body(&[tag::HELLO, 1, 0, 0]).is_err());
        // Trailing garbage after a valid frame.
        let mut bytes = Vec::new();
        Frame::Ack { applied_seq: 1 }.encode_body(&mut bytes);
        bytes.push(0);
        assert!(matches!(
            Frame::decode_body(&bytes),
            Err(WireError::Malformed("trailing bytes"))
        ));
        // Bad chunk flags.
        let mut bytes = Vec::new();
        Frame::CkptChunk {
            seq: 1,
            first: true,
            last: true,
            bytes: vec![],
        }
        .encode_body(&mut bytes);
        bytes[9] = 4; // flags byte after tag + u64 seq
        assert!(matches!(
            Frame::decode_body(&bytes),
            Err(WireError::Malformed("bad chunk flags"))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let bytes = (u32::MAX).to_le_bytes();
        let mut cursor = std::io::Cursor::new(&bytes[..]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Oversized(_))
        ));
    }
}
