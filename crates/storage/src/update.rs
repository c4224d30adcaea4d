//! Update commands and replayable update logs.
//!
//! An update is `insert R(a₁,…,a_r)` or `delete R(a₁,…,a_r)` (paper,
//! Section 2). Logs serialise to a compact binary format (varint-free,
//! little-endian, via `bytes`) so experiment workloads can be stored and
//! replayed bit-identically.

use crate::{Const, Tuple};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cqu_query::RelId;

/// A single-tuple update command.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Update {
    /// `insert R(a₁,…,a_r)`.
    Insert(RelId, Tuple),
    /// `delete R(a₁,…,a_r)`.
    Delete(RelId, Tuple),
}

impl Update {
    /// The relation the update touches.
    pub fn relation(&self) -> RelId {
        match self {
            Update::Insert(r, _) | Update::Delete(r, _) => *r,
        }
    }

    /// The tuple of the update.
    pub fn tuple(&self) -> &[Const] {
        match self {
            Update::Insert(_, t) | Update::Delete(_, t) => t,
        }
    }

    /// Returns `true` for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert(..))
    }

    /// The inverse command (insert ↔ delete of the same tuple).
    pub fn inverse(&self) -> Update {
        match self {
            Update::Insert(r, t) => Update::Delete(*r, t.clone()),
            Update::Delete(r, t) => Update::Insert(*r, t.clone()),
        }
    }
}

/// Anything that can consume single-tuple updates under set semantics.
///
/// Implementations must return `true` iff the update was *effective*
/// (duplicate inserts / absent deletes are no-ops), and must guarantee
/// that applying the inverse of an effective update restores the previous
/// state: inserts and deletes are their own undo (paper, Section 2),
/// which is what transactional rollback relies on.
pub trait ApplyUpdate {
    /// Applies one update; returns `true` iff state changed.
    fn apply_update(&mut self, update: &Update) -> bool;
}

impl ApplyUpdate for crate::Database {
    fn apply_update(&mut self, update: &Update) -> bool {
        self.apply(update)
    }
}

/// A replayable sequence of updates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateLog {
    /// The commands, in application order.
    pub updates: Vec<Update>,
}

/// Magic bytes identifying the binary log format.
const MAGIC: &[u8; 4] = b"CQU1";

impl UpdateLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        UpdateLog::default()
    }

    /// Wraps an update vector.
    pub fn from_updates(updates: Vec<Update>) -> Self {
        UpdateLog { updates }
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Returns `true` if the log holds no commands.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Appends a command.
    pub fn push(&mut self, u: Update) {
        self.updates.push(u);
    }

    /// Serialises the log to the compact binary format.
    ///
    /// Layout: magic, `u64` count, then per update one tag byte
    /// (0 = insert, 1 = delete), `u32` relation id, `u16` arity, and the
    /// constants as little-endian `u64`.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + 8 + self.updates.len() * 24);
        buf.put_slice(MAGIC);
        buf.put_u64_le(self.updates.len() as u64);
        for u in &self.updates {
            buf.put_u8(u8::from(!u.is_insert()));
            buf.put_u32_le(u.relation().0);
            let tuple = u.tuple();
            buf.put_u16_le(tuple.len() as u16);
            for &c in tuple {
                buf.put_u64_le(c);
            }
        }
        buf.freeze()
    }

    /// Deserialises a log produced by [`UpdateLog::encode`].
    pub fn decode(mut data: &[u8]) -> Result<UpdateLog, DecodeError> {
        if data.remaining() < 12 || &data[..4] != MAGIC {
            return Err(DecodeError("bad magic or truncated header".into()));
        }
        data.advance(4);
        let count = data.get_u64_le() as usize;
        let mut updates = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            if data.remaining() < 7 {
                return Err(DecodeError("truncated update header".into()));
            }
            let tag = data.get_u8();
            let rel = RelId(data.get_u32_le());
            let arity = data.get_u16_le() as usize;
            if data.remaining() < arity * 8 {
                return Err(DecodeError("truncated tuple".into()));
            }
            let tuple: Tuple = (0..arity).map(|_| data.get_u64_le()).collect();
            updates.push(match tag {
                0 => Update::Insert(rel, tuple),
                1 => Update::Delete(rel, tuple),
                t => return Err(DecodeError(format!("unknown tag {t}"))),
            });
        }
        if data.has_remaining() {
            return Err(DecodeError("trailing bytes".into()));
        }
        Ok(UpdateLog { updates })
    }

    /// Iterates over the commands.
    pub fn iter(&self) -> impl Iterator<Item = &Update> {
        self.updates.iter()
    }
}

/// Error decoding a binary update log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "update log decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> UpdateLog {
        UpdateLog::from_updates(vec![
            Update::Insert(RelId(0), vec![1, 2]),
            Update::Insert(RelId(1), vec![9]),
            Update::Delete(RelId(0), vec![1, 2]),
            Update::Insert(RelId(2), vec![u64::MAX, 0, 42]),
        ])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let log = sample_log();
        let bytes = log.encode();
        let back = UpdateLog::decode(&bytes).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn empty_log_roundtrip() {
        let log = UpdateLog::new();
        assert!(log.is_empty());
        let back = UpdateLog::decode(&log.encode()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(UpdateLog::decode(b"").is_err());
        assert!(UpdateLog::decode(b"XXXX\0\0\0\0\0\0\0\0").is_err());
        let mut bytes = sample_log().encode().to_vec();
        bytes.truncate(bytes.len() - 3);
        assert!(UpdateLog::decode(&bytes).is_err());
        bytes.extend_from_slice(&[0; 64]);
        assert!(UpdateLog::decode(&bytes).is_err());
    }

    #[test]
    fn inverse_roundtrip() {
        let u = Update::Insert(RelId(3), vec![4, 5]);
        assert_eq!(u.inverse(), Update::Delete(RelId(3), vec![4, 5]));
        assert_eq!(u.inverse().inverse(), u);
        assert!(u.is_insert());
        assert!(!u.inverse().is_insert());
    }
}
