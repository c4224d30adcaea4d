//! WAL record payloads and their binary encoding.
//!
//! The WAL is engine-agnostic: records carry raw relation ids and
//! `u64` constants (the same representation `cqu-storage`'s `UpdateLog`
//! uses), plus the session-level framing — registration DDL, shard ids,
//! transaction begin/commit, and rollback compensation. The `cq-updates`
//! durable layer translates to and from its own types.
//!
//! Wire form of one frame inside a segment:
//!
//! ```text
//! u32 payload_len | u32 crc32(payload) | payload
//! ```
//!
//! All integers little-endian. The payload's first byte is the record
//! tag; the rest is tag-specific.

use crate::crc32::crc32;

/// Sanity cap on a single record's payload (16 MiB). Anything larger in
/// a length prefix is treated as corruption/torn data, not an
/// allocation request.
pub const MAX_RECORD_LEN: usize = 16 << 20;

const TAG_MODE: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_TX_BEGIN: u8 = 4;
const TAG_TX_COMMIT: u8 = 5;
const TAG_SEQ_BURN: u8 = 6;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rec {
    /// Written once, first record of a fresh log: whether the session is
    /// sharded. Recovery uses it to rebuild the right backend.
    Mode {
        /// `true` for a sharded session, `false` for a single writer.
        sharded: bool,
    },
    /// Durable DDL: a query registration. Recovery re-registers in log
    /// order, which deterministically reproduces the schema (relation
    /// ids) and, for sharded sessions, the shard plan.
    Register {
        /// Query name (unique per session).
        name: String,
        /// Query source text.
        src: String,
        /// Engine choice, encoded by the durable layer (0 = auto).
        choice: u8,
    },
    /// One effective update, stamped with its global sequence number and
    /// the shard that applied it (0 for single-writer sessions).
    Update {
        /// Global sequence number this update was published at.
        seq: u64,
        /// Shard id (informational; routing is re-derived at recovery).
        shard: u16,
        /// `true` for insert, `false` for delete.
        insert: bool,
        /// Relation id in the session schema.
        rel: u32,
        /// The tuple's constants.
        tuple: Vec<u64>,
    },
    /// Opens a transaction's record group. Updates between this and the
    /// matching [`Rec::TxCommit`] are atomic: recovery applies them only
    /// if the commit record made it to disk.
    TxBegin {
        /// First sequence number the transaction will occupy.
        first_seq: u64,
    },
    /// Seals a transaction's record group.
    TxCommit {
        /// Last sequence number the transaction occupied.
        last_seq: u64,
    },
    /// Rollback compensation: a rolled-back (or failed) operation burned
    /// sequence numbers up to `upto` without publishing anything. Logged
    /// so the recovered counter matches the in-memory path and burned
    /// numbers are never reissued to subscribers.
    SeqBurn {
        /// The sequence counter value after the burn.
        upto: u64,
    },
}

impl Rec {
    /// Encodes the payload (tag + body, no frame header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Rec::Mode { sharded } => {
                out.push(TAG_MODE);
                out.push(u8::from(*sharded));
            }
            Rec::Register { name, src, choice } => {
                out.push(TAG_REGISTER);
                out.push(*choice);
                put_str32(out, name);
                put_str32(out, src);
            }
            Rec::Update {
                seq,
                shard,
                insert,
                rel,
                tuple,
            } => {
                out.push(TAG_UPDATE);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.push(u8::from(*insert));
                out.extend_from_slice(&rel.to_le_bytes());
                let arity = u16::try_from(tuple.len()).expect("arity fits u16");
                out.extend_from_slice(&arity.to_le_bytes());
                for c in tuple {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            Rec::TxBegin { first_seq } => {
                out.push(TAG_TX_BEGIN);
                out.extend_from_slice(&first_seq.to_le_bytes());
            }
            Rec::TxCommit { last_seq } => {
                out.push(TAG_TX_COMMIT);
                out.extend_from_slice(&last_seq.to_le_bytes());
            }
            Rec::SeqBurn { upto } => {
                out.push(TAG_SEQ_BURN);
                out.extend_from_slice(&upto.to_le_bytes());
            }
        }
    }

    /// Decodes a payload produced by [`Rec::encode`]. `Err` carries a
    /// static description of what was malformed.
    pub fn decode(payload: &[u8]) -> Result<Rec, &'static str> {
        let mut r = Cursor(payload);
        let rec = match r.u8()? {
            TAG_MODE => Rec::Mode {
                sharded: r.u8()? != 0,
            },
            TAG_REGISTER => {
                let choice = r.u8()?;
                let name = r.str32()?;
                let src = r.str32()?;
                Rec::Register { name, src, choice }
            }
            TAG_UPDATE => {
                let seq = r.u64()?;
                let shard = r.u16()?;
                let insert = r.u8()? != 0;
                let rel = r.u32()?;
                let arity = r.u16()? as usize;
                if r.0.len() != arity * 8 {
                    return Err("update tuple length mismatch");
                }
                let mut tuple = Vec::with_capacity(arity);
                for _ in 0..arity {
                    tuple.push(r.u64()?);
                }
                Rec::Update {
                    seq,
                    shard,
                    insert,
                    rel,
                    tuple,
                }
            }
            TAG_TX_BEGIN => Rec::TxBegin {
                first_seq: r.u64()?,
            },
            TAG_TX_COMMIT => Rec::TxCommit { last_seq: r.u64()? },
            TAG_SEQ_BURN => Rec::SeqBurn { upto: r.u64()? },
            _ => return Err("unknown record tag"),
        };
        r.finish()?;
        Ok(rec)
    }

    /// Appends this record as a framed `len | crc | payload` triple,
    /// encoding in place: the header is reserved, then backfilled.
    pub fn frame(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0; 8]);
        self.encode(out);
        let payload = &out[at + 8..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Parses the frame at the head of `bytes` — the one reader of the
    /// `len | crc | payload` layout, for segment scans and shipped record
    /// runs alike. Returns the record and the bytes it occupied.
    pub fn unframe(bytes: &[u8]) -> Result<(Rec, usize), FrameError> {
        if bytes.len() < 8 {
            return Err(FrameError::Torn("truncated record frame header"));
        }
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Err(FrameError::Torn("record length exceeds cap"));
        }
        if bytes.len() - 8 < len {
            return Err(FrameError::Torn("truncated record payload"));
        }
        let payload = &bytes[8..8 + len];
        if crc32(payload) != crc {
            return Err(FrameError::Torn("record crc mismatch"));
        }
        let rec = Rec::decode(payload).map_err(FrameError::Undecodable)?;
        Ok((rec, 8 + len))
    }
}

/// Why [`Rec::unframe`] refused the bytes at the head of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A short header or body, a length past [`MAX_RECORD_LEN`], or a
    /// CRC mismatch: what a torn write leaves at the end of a segment.
    Torn(&'static str),
    /// The CRC holds but the payload does not decode. A torn write
    /// cannot forge a checksum, so this is corruption, never a tail to
    /// truncate.
    Undecodable(&'static str),
}

/// Appends `s` behind a `u32` length prefix ([`Cursor::str32`] reads it).
pub fn put_str32(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounded little-endian read cursor over bytes that came off disk or
/// a socket: every read is checked against what is left, and
/// [`Cursor::count`] admits a raw length field only if the unread bytes
/// can hold that many items, so no field sizes an allocation or a loop
/// unchecked. Errors are static descriptions; each caller wraps them in
/// its own error type.
#[derive(Debug)]
pub struct Cursor<'a>(
    /// The bytes not yet read.
    pub &'a [u8],
);

impl<'a> Cursor<'a> {
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        if self.0.len() < n {
            return Err("truncated field");
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, &'static str> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A UTF-8 string of `len` bytes (the caller read the prefix).
    pub fn str(&mut self, len: usize) -> Result<String, &'static str> {
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "string not utf-8")
    }

    /// A UTF-8 string behind a `u32` length prefix.
    pub fn str32(&mut self) -> Result<String, &'static str> {
        let len = self.u32()? as usize;
        self.str(len)
    }

    /// Admits a raw count of items of at least `item_bytes` each only if
    /// the bytes still unread can hold that many. Zero-width items are
    /// refused: no number of bytes bounds them.
    pub fn count(&self, raw: u64, item_bytes: usize) -> Result<usize, &'static str> {
        match (usize::try_from(raw), self.0.len().checked_div(item_bytes)) {
            (Ok(n), Some(fit)) if n <= fit => Ok(n),
            _ => Err("count exceeds the bytes left"),
        }
    }

    /// Ends the read: anything left over is an error.
    pub fn finish(self) -> Result<(), &'static str> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err("trailing bytes")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: Rec) {
        let mut payload = Vec::new();
        rec.encode(&mut payload);
        assert_eq!(Rec::decode(&payload).unwrap(), rec);
    }

    #[test]
    fn roundtrips() {
        roundtrip(Rec::Mode { sharded: true });
        roundtrip(Rec::Mode { sharded: false });
        roundtrip(Rec::Register {
            name: "feed".into(),
            src: "Q(x, y) :- E(x, y), T(y).".into(),
            choice: 2,
        });
        roundtrip(Rec::Update {
            seq: 42,
            shard: 3,
            insert: true,
            rel: 7,
            tuple: vec![1, u64::MAX, 0],
        });
        roundtrip(Rec::Update {
            seq: 1,
            shard: 0,
            insert: false,
            rel: 0,
            tuple: vec![],
        });
        roundtrip(Rec::TxBegin { first_seq: 9 });
        roundtrip(Rec::TxCommit { last_seq: 12 });
        roundtrip(Rec::SeqBurn { upto: 15 });
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The on-disk and on-wire layout of one frame per record kind, as
    /// literal bytes written down from the WAL v2 encoder before `frame`
    /// encoded in place. Any drift here is a format change.
    #[test]
    fn golden_frames_pin_the_byte_layout() {
        let golden = [
            (Rec::Mode { sharded: true }, "020000002813c52f0101"),
            (
                Rec::Register {
                    name: "q".into(),
                    src: "Q(x) :- E(x, y).".into(),
                    choice: 2,
                },
                "1b00000011f0991b020201000000711000000051287829203a2d204528782c2079292e",
            ),
            (
                Rec::Update {
                    seq: 42,
                    shard: 3,
                    insert: true,
                    rel: 7,
                    tuple: vec![1, u64::MAX],
                },
                "22000000caa68d61032a000000000000000300010700000002000100000000000000\
                 ffffffffffffffff",
            ),
            (
                Rec::TxBegin { first_seq: 9 },
                "09000000895eaaa4040900000000000000",
            ),
            (
                Rec::TxCommit { last_seq: 12 },
                "09000000ae4431fb050c00000000000000",
            ),
            (
                Rec::SeqBurn { upto: 15 },
                "09000000887f334c060f00000000000000",
            ),
        ];
        // Framed back to back into one buffer: in-place encoding must
        // not disturb what precedes it.
        let mut run = Vec::new();
        for (rec, want) in &golden {
            let at = run.len();
            rec.frame(&mut run);
            assert_eq!(hex(&run[at..]), *want, "{rec:?}");
        }
        let mut rest = &run[..];
        for (rec, _) in &golden {
            let (got, used) = Rec::unframe(rest).unwrap();
            assert_eq!(got, *rec);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn unframe_tells_torn_from_undecodable() {
        let mut frame = Vec::new();
        Rec::SeqBurn { upto: 15 }.frame(&mut frame);
        for cut in 0..frame.len() {
            assert!(matches!(
                Rec::unframe(&frame[..cut]),
                Err(FrameError::Torn(_))
            ));
        }
        let mut flipped = frame.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(
            Rec::unframe(&flipped),
            Err(FrameError::Torn("record crc mismatch"))
        );
        let mut huge = frame.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Rec::unframe(&huge),
            Err(FrameError::Torn("record length exceeds cap"))
        );
        // A valid checksum over a payload no record decodes from.
        let payload = [0xEE, 1, 2];
        let mut forged = Vec::new();
        forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        forged.extend_from_slice(&crc32(&payload).to_le_bytes());
        forged.extend_from_slice(&payload);
        assert_eq!(
            Rec::unframe(&forged),
            Err(FrameError::Undecodable("unknown record tag"))
        );
    }

    #[test]
    fn cursor_bounds_counts_by_the_bytes_left() {
        let bytes = [0u8; 16];
        let mut cur = Cursor(&bytes);
        assert_eq!(cur.count(2, 8), Ok(2));
        assert!(cur.count(3, 8).is_err());
        assert!(cur.count(u64::MAX, 1).is_err());
        assert!(cur.count(0, 0).is_err(), "zero-width items have no bound");
        cur.u64().unwrap();
        assert_eq!(cur.0.len(), 8);
        assert!(cur.take(9).is_err());
        assert!(cur.str(8).is_ok());
        cur.finish().unwrap();
        assert!(Cursor(&[0xFF]).str(1).is_err());
        assert!(Cursor(&[0]).finish().is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Rec::decode(&[]).is_err());
        assert!(Rec::decode(&[0xFF]).is_err());
        // Truncated update.
        let mut payload = Vec::new();
        Rec::Update {
            seq: 1,
            shard: 0,
            insert: true,
            rel: 0,
            tuple: vec![5],
        }
        .encode(&mut payload);
        assert!(Rec::decode(&payload[..payload.len() - 1]).is_err());
        // Trailing garbage.
        payload.push(0);
        assert!(Rec::decode(&payload).is_err());
    }
}
