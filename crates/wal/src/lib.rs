//! `cqu-wal`: a segmented write-ahead log for the dynamic query engine.
//!
//! Pure std, no dependencies — and deliberately engine-agnostic: records
//! carry raw relation ids, `u64` constants, and session framing
//! (registrations, shard ids, transaction begin/commit, rollback
//! compensation), leaving the session semantics to the `cq-updates`
//! durable layer.
//!
//! The pieces:
//!
//! * [`record`] — record payloads, the `len | crc32 | payload` frame and
//!   its one parser ([`Rec::unframe`]), and the bounded read [`Cursor`]
//!   the record, replication and checkpoint decoders share.
//! * [`vfs`] — the storage seam ([`WalDir`]/[`WalFile`]); [`FsDir`] for
//!   real directories, with the fault-injection harness in
//!   `cqu-testutil` plugging in a crash-simulating implementation.
//! * [`log`] — the append path ([`Wal`]) with fsync policies and
//!   segment rotation, checkpoints (temp-file + rename + prune), and
//!   the recovery scan ([`recover`]) with torn-tail truncation and
//!   typed refusal of mid-log corruption.

pub mod crc32;
pub mod log;
pub mod record;
pub mod vfs;

pub use crc32::crc32;
pub use log::{
    epoch, recover, FsyncPolicy, Recovery, Shipped, Wal, WalError, WalOptions, CKPT_TMP,
};
pub use record::{put_str32, Cursor, FrameError, Rec, MAX_RECORD_LEN};
pub use vfs::{FsDir, WalDir, WalFile};
