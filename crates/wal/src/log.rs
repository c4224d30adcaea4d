//! The segmented log: append path, fsync policy, rotation, checkpoints,
//! and the recovery scan.
//!
//! On-disk layout (all in one flat [`WalDir`]):
//!
//! ```text
//! wal-00000000000000000001.seg    segment: "CQWS" u32 version u64 term,
//! wal-00000000000000000002.seg    then frames (see `record`)
//! ckpt-00000000000000000317.ck    checkpoint: "CQCK" u32 version u64 seq
//! ckpt.tmp                        u32 body_len u32 crc32(body) body
//! ```
//!
//! Checkpoints are published with the classic temp-file + rename + dir
//! sync dance, then all older segments and checkpoints are pruned — a
//! crash at any point leaves either the old set or the new set
//! recoverable. The recovery scan tolerates a torn final segment
//! (truncates at the first bad frame) but refuses corruption anywhere
//! earlier with a typed [`WalError::Corrupt`], never a panic.

use crate::crc32::crc32;
use crate::record::{FrameError, Rec};
use crate::vfs::{WalDir, WalFile};
use cqu_obs::{Counter, Histogram, Registry};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic + version prefix of every segment file.
const SEG_MAGIC: &[u8; 4] = b"CQWS";
/// Magic prefix of every checkpoint file.
const CKPT_MAGIC: &[u8; 4] = b"CQCK";
/// Format version for both file kinds. Version 2 added the leadership
/// term to the segment header.
const FORMAT_VERSION: u32 = 2;
/// Segment header length (magic + version + term).
const SEG_HEADER: usize = 16;
/// Temp name a checkpoint is staged under before its rename.
pub const CKPT_TMP: &str = "ckpt.tmp";

/// Replication epochs, packed as `(term, lifetime)` in one ordered
/// `u64`.
///
/// The *lifetime* half is the log's startup segment index — it bumps on
/// every restart of the same node, making each log lifetime distinct so
/// followers know when an equality-based `(epoch, cursor)` resume is
/// impossible. The *term* half is the leadership term persisted in
/// every segment header: restarts keep it, promotion bumps it. Packing
/// term above lifetime makes plain `u64` comparison term-dominant, so a
/// promoted node (higher term) always outranks any later restart of the
/// old leader (same term, however many segments it churned through).
pub mod epoch {
    /// Bits reserved for the lifetime (startup segment index) half.
    pub const LIFETIME_BITS: u32 = 40;
    const LIFETIME_MASK: u64 = (1 << LIFETIME_BITS) - 1;

    /// Packs a `(term, lifetime)` pair into one ordered epoch.
    pub fn compose(term: u64, lifetime: u64) -> u64 {
        debug_assert!(lifetime <= LIFETIME_MASK, "lifetime overflows its bits");
        (term << LIFETIME_BITS) | (lifetime & LIFETIME_MASK)
    }

    /// The leadership term half of a packed epoch.
    pub fn term(epoch: u64) -> u64 {
        epoch >> LIFETIME_BITS
    }

    /// The lifetime (startup segment index) half of a packed epoch.
    pub fn lifetime(epoch: u64) -> u64 {
        epoch & LIFETIME_MASK
    }
}

/// When the log fsyncs after a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every commit (strongest durability, slowest appends).
    Always,
    /// Every N commits (bounded loss window of N-1 commits).
    EveryN(u32),
    /// At most once per interval (bounded loss window in time).
    Interval(Duration),
    /// Never explicitly — durability rides on OS writeback and segment
    /// rotation/checkpoint syncs.
    Never,
}

/// Tuning for the log writer.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Fsync policy applied at each commit.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes. Rotation syncs the sealed segment regardless of policy.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
        }
    }
}

/// A WAL failure: an I/O error from the backing store, or typed
/// corruption found mid-log during recovery.
#[derive(Debug)]
pub enum WalError {
    /// The backing store failed.
    Io(io::Error),
    /// A bad frame in a position recovery cannot repair (anywhere but
    /// the tail of the final segment). The log refuses to load rather
    /// than silently dropping committed history.
    Corrupt {
        /// File the bad frame was found in.
        file: String,
        /// Byte offset of the bad frame.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::Corrupt { file, offset, what } => {
                write!(f, "wal corrupt: {file} at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:020}.seg")
}

fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.ck")
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Registry handles for the append path, resolved once at attach so the
/// hot path never touches the registry's name table.
struct WalMetrics {
    registry: Arc<Registry>,
    commits: Arc<Counter>,
    append_bytes: Arc<Counter>,
    append_latency_ns: Arc<Histogram>,
    fsyncs: Arc<Counter>,
    fsync_latency_ns: Arc<Histogram>,
    rotations: Arc<Counter>,
    repairs: Arc<Counter>,
    checkpoints: Arc<Counter>,
}

impl WalMetrics {
    fn new(registry: Arc<Registry>) -> WalMetrics {
        WalMetrics {
            commits: registry.counter("wal_commits_total"),
            append_bytes: registry.counter("wal_append_bytes_total"),
            append_latency_ns: registry.histogram("wal_append_latency_ns"),
            fsyncs: registry.counter("wal_fsyncs_total"),
            fsync_latency_ns: registry.histogram("wal_fsync_latency_ns"),
            rotations: registry.counter("wal_rotations_total"),
            repairs: registry.counter("wal_repairs_total"),
            checkpoints: registry.counter("wal_checkpoints_total"),
            registry,
        }
    }
}

/// The append half: an open segment plus the fsync/rotation state.
pub struct Wal {
    dir: Box<dyn WalDir>,
    opts: WalOptions,
    seg: Box<dyn WalFile>,
    seg_index: u64,
    /// Leadership term stamped into every segment header this writer
    /// opens. Fixed for the writer's lifetime — only promotion (a new
    /// [`Wal::seed`] into a fresh dir) mints a higher term.
    term: u64,
    /// Bytes of the current segment known good: header plus every fully
    /// committed frame. Bytes past it are suspect after a failed commit.
    seg_len: u64,
    /// Frames staged by [`Wal::append`], written at [`Wal::commit`].
    pending: Vec<u8>,
    commits_since_sync: u32,
    last_sync: Instant,
    /// Set when a commit failed mid-write: the segment tail past
    /// `seg_len` may hold torn — or worse, *complete but
    /// unacknowledged* — frames. No commit is accepted until
    /// [`Wal::repair`] truncates the suspect tail and rotates, so an
    /// acknowledged frame can never land after bytes recovery would
    /// truncate at (or refuse as mid-log corruption).
    torn: bool,
    /// Pre-resolved metric handles; `None` keeps the append path free of
    /// clock reads and atomic traffic.
    metrics: Option<WalMetrics>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("segment", &self.seg_index)
            .field("segment_len", &self.seg_len)
            .field("fsync", &self.opts.fsync)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens a writer appending to a brand-new segment `next_segment`,
    /// stamping `term` into its header (and every later rotation's).
    /// Existing segments are left alone — the recovery scan reads them;
    /// the writer never reopens old files (a torn tail stays quarantined
    /// in its own segment).
    pub fn new(
        dir: Box<dyn WalDir>,
        opts: WalOptions,
        next_segment: u64,
        term: u64,
    ) -> io::Result<Wal> {
        let mut wal = Wal {
            dir,
            opts,
            seg: Box::new(NullFile),
            seg_index: next_segment,
            term,
            seg_len: 0,
            pending: Vec::new(),
            commits_since_sync: 0,
            last_sync: Instant::now(),
            torn: false,
            metrics: None,
        };
        wal.open_segment(next_segment)?;
        Ok(wal)
    }

    /// Points the writer at a shared metrics registry: commit, fsync,
    /// rotation, repair, and checkpoint activity is counted there and
    /// structural events (poison/repair/rotation/checkpoint) land in its
    /// journal. Handles are resolved once; the commit path then pays only
    /// a few relaxed atomic ops per frame.
    pub fn attach_registry(&mut self, registry: Arc<Registry>) {
        self.metrics = Some(WalMetrics::new(registry));
    }

    /// Seeds a brand-new log dir from a foreign checkpoint — the
    /// promotion path: a replica turning leader publishes its applied
    /// state as the checkpoint of an empty log, then appends at a term
    /// of its own. The checkpoint lands with the same temp-file +
    /// rename + dir-sync dance as [`Wal::checkpoint`], so a crash
    /// mid-seed leaves either nothing (re-promote) or a complete pair.
    pub fn seed(
        dir: Box<dyn WalDir>,
        opts: WalOptions,
        start_segment: u64,
        term: u64,
        ckpt_seq: u64,
        ckpt_body: &[u8],
    ) -> io::Result<Wal> {
        publish_checkpoint(&*dir, ckpt_seq, ckpt_body)?;
        Wal::new(dir, opts, start_segment, term)
    }

    fn open_segment(&mut self, index: u64) -> io::Result<()> {
        let mut seg = self.dir.create(&segment_name(index))?;
        let mut header = Vec::with_capacity(SEG_HEADER);
        header.extend_from_slice(SEG_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&self.term.to_le_bytes());
        seg.append(&header)?;
        self.dir.sync_dir()?;
        self.seg = seg;
        self.seg_index = index;
        self.seg_len = SEG_HEADER as u64;
        Ok(())
    }

    /// Stages one record for the next [`Wal::commit`]. Nothing touches
    /// the file until commit, so a failed operation can simply drop its
    /// staged frames.
    pub fn append(&mut self, rec: &Rec) {
        rec.frame(&mut self.pending);
    }

    /// True if [`Wal::append`] staged anything since the last commit.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Discards staged frames (the failed-operation path).
    pub fn discard(&mut self) {
        self.pending.clear();
    }

    /// Writes staged frames to the segment and applies the fsync
    /// policy. Returns `true` if the commit is durably synced. Rotates
    /// afterward if the segment outgrew its budget.
    ///
    /// A failed commit **poisons the writer**: the frames it staged are
    /// dropped (the caller's operation failed and must not be logged),
    /// the segment tail past the last committed frame is suspect — it
    /// may hold torn bytes, or complete frames the caller was told did
    /// *not* commit — and every later commit first has to
    /// `Wal::repair` (truncate the suspect tail, open a fresh
    /// segment) before any new frame is accepted. Repair is also
    /// attempted eagerly on the failure itself, so on the happy
    /// transient-fault path (ENOSPC blip, one bad fsync) the disk never
    /// holds an unacknowledged frame across the error return.
    pub fn commit(&mut self) -> io::Result<bool> {
        if self.torn {
            if let Err(e) = self.repair() {
                // Still poisoned: the staged frames of THIS operation
                // must not survive either — its caller sees the error.
                self.pending.clear();
                return Err(e);
            }
        }
        if self.pending.is_empty() {
            return Ok(true);
        }
        let pending = std::mem::take(&mut self.pending);
        let append_start = self.metrics.as_ref().map(|_| Instant::now());
        if let Err(e) = self.seg.append(&pending) {
            return Err(self.poison(e));
        }
        if let (Some(m), Some(t0)) = (self.metrics.as_ref(), append_start) {
            m.append_latency_ns.record(t0.elapsed().as_nanos() as u64);
            m.append_bytes.add(pending.len() as u64);
        }
        let commits = self.commits_since_sync + 1;
        let sync = match self.opts.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => commits >= n.max(1),
            FsyncPolicy::Interval(d) => self.last_sync.elapsed() >= d,
            FsyncPolicy::Never => false,
        };
        if sync {
            if let Err(e) = self.sync_seg() {
                return Err(self.poison(e));
            }
        } else {
            self.commits_since_sync = commits;
        }
        self.seg_len += pending.len() as u64;
        if self.seg_len >= self.opts.segment_bytes && self.rotate().is_err() {
            // The commit itself is complete and acknowledged; fold the
            // failed rotation into the next commit's repair (which
            // truncates nothing — seg_len is current — and opens the
            // next segment, exactly what rotation wanted).
            self.torn = true;
        }
        if let Some(m) = self.metrics.as_ref() {
            m.commits.inc();
        }
        Ok(sync)
    }

    /// Marks the segment tail suspect and attempts an immediate repair
    /// (best effort — if it fails too, the next commit retries).
    /// Returns `e` for the caller to propagate.
    fn poison(&mut self, e: io::Error) -> io::Error {
        self.torn = true;
        if let Some(m) = self.metrics.as_ref() {
            m.registry
                .journal()
                .record("wal_poison", format!("segment {}: {e}", self.seg_index));
        }
        let _ = self.repair();
        e
    }

    /// Cuts the suspect tail off the current segment (back to the last
    /// committed frame) and seals it by opening the next segment — the
    /// stale handle is never appended to again, so the truncated file
    /// can't grow a hole. Only on full success does the writer accept
    /// commits again.
    fn repair(&mut self) -> io::Result<()> {
        let sealed = self.seg_index;
        let kept = self.seg_len;
        self.dir.truncate(&segment_name(sealed), kept)?;
        self.open_segment(sealed + 1)?;
        self.torn = false;
        if let Some(m) = self.metrics.as_ref() {
            m.repairs.inc();
            m.registry.journal().record(
                "wal_repair",
                format!("sealed segment {sealed} at {kept} bytes"),
            );
        }
        Ok(())
    }

    /// Forces an fsync of the current segment (repairing a poisoned
    /// writer first, so the sync covers a clean tail).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.torn {
            self.repair()?;
        }
        self.sync_seg()
    }

    fn sync_seg(&mut self) -> io::Result<()> {
        let sync_start = self.metrics.as_ref().map(|_| Instant::now());
        self.seg.sync()?;
        if let (Some(m), Some(t0)) = (self.metrics.as_ref(), sync_start) {
            m.fsyncs.inc();
            m.fsync_latency_ns.record(t0.elapsed().as_nanos() as u64);
        }
        self.commits_since_sync = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Seals the current segment (with a final sync) and opens the next.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let sealed = self.seg_index;
        self.open_segment(sealed + 1)?;
        if let Some(m) = self.metrics.as_ref() {
            m.rotations.inc();
            m.registry
                .journal()
                .record("segment_rotation", format!("sealed segment {sealed}"));
        }
        Ok(())
    }

    /// The index of the segment currently being appended to.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// The leadership term this writer stamps into segment headers.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Publishes a checkpoint of `body` at sequence `seq`, then prunes:
    /// rotates to a fresh segment and deletes every older segment and
    /// checkpoint (all their records are ≤ `seq` by construction — the
    /// caller checkpoints under its commit lock).
    ///
    /// Crash-safe: the body is staged as `ckpt.tmp`, synced, renamed to
    /// its final name, and the directory synced — a crash mid-write
    /// leaves a `ckpt.tmp` the recovery scan discards.
    ///
    /// Failures *before* the rename + dir sync are fatal (`Err`) — the
    /// checkpoint did not publish. Failures after it are not: the
    /// checkpoint is already durable, so a failed rotation folds into
    /// the next commit's repair and a failed prune just leaves stale
    /// files (their records are ≤ `seq`; recovery skips them by seq and
    /// the next checkpoint retries the deletes).
    pub fn checkpoint(&mut self, seq: u64, body: &[u8]) -> io::Result<()> {
        publish_checkpoint(&*self.dir, seq, body)?;
        if let Some(m) = self.metrics.as_ref() {
            m.checkpoints.inc();
            m.registry.journal().record(
                "checkpoint",
                format!("seq {seq}, {} body bytes", body.len()),
            );
        }
        // Published. Seal the log at the checkpoint boundary, then prune
        // everything the checkpoint supersedes — best effort from here.
        let sealed = self.seg_index;
        if self.rotate().is_err() {
            // The current segment is still `sealed`; pruning now would
            // delete the live file out from under the writer. Skip the
            // prune entirely and let the next commit's repair rotate.
            self.torn = true;
            return Ok(());
        }
        let Ok(files) = self.dir.list() else {
            return Ok(());
        };
        for file in files {
            if let Some(idx) = parse_name(&file, "wal-", ".seg") {
                if idx <= sealed {
                    let _ = self.dir.remove(&file);
                }
            } else if let Some(s) = parse_name(&file, "ckpt-", ".ck") {
                if s < seq {
                    let _ = self.dir.remove(&file);
                }
            }
        }
        let _ = self.dir.sync_dir();
        Ok(())
    }

    /// A read-only scan of the retained log — the shipping read path for
    /// replication. Must be called between commits (the durable layer
    /// holds its commit lock): the current segment is read only up to
    /// its committed length, so suspect bytes left by a failed commit
    /// are never shipped, and sealed segments must parse cleanly
    /// end-to-end (their torn tails were truncated by repair or a prior
    /// recovery).
    ///
    /// The returned records cover every committed seq above the
    /// checkpoint seq (or all of them when no checkpoint exists); stale
    /// pre-checkpoint segments that survived a crashed prune may
    /// contribute extra records ≤ the checkpoint seq, which consumers
    /// skip by seq exactly like recovery does.
    pub fn ship_scan(&self) -> Result<Shipped, WalError> {
        let files = self.dir.list()?;
        let checkpoint = newest_checkpoint(&*self.dir, &files)?;
        let mut seg_indices: Vec<u64> = files
            .iter()
            .filter_map(|f| parse_name(f, "wal-", ".seg"))
            .filter(|&idx| idx <= self.seg_index)
            .collect();
        seg_indices.sort_unstable();
        let mut records = Vec::new();
        for &index in &seg_indices {
            let name = segment_name(index);
            let mut bytes = self.dir.read(&name)?;
            if index == self.seg_index {
                bytes.truncate(self.seg_len as usize);
            }
            let seg_start = records.len();
            scan_segment(&name, &bytes, false, &mut records)?;
            drop_dangling_tx(&mut records, seg_start);
        }
        Ok(Shipped {
            checkpoint,
            records,
        })
    }
}

/// What [`Wal::ship_scan`] found on disk: the newest valid checkpoint
/// plus every committed record in the retained segments, in log order.
#[derive(Debug)]
pub struct Shipped {
    /// Newest valid checkpoint, as `(seq, body)`.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Every committed record, log-ordered; may include records at or
    /// below the checkpoint seq (stale segments a crashed prune left
    /// behind) — consumers skip those by seq.
    pub records: Vec<Rec>,
}

impl Shipped {
    /// The floor of guaranteed record coverage: every committed seq
    /// strictly above it appears in [`Shipped::records`]. A consumer
    /// whose cursor is ≥ the floor can resume from the records alone;
    /// below it the checkpoint transfer is required.
    pub fn floor(&self) -> u64 {
        self.checkpoint.as_ref().map_or(0, |(seq, _)| *seq)
    }
}

/// Stages a checkpoint body as `ckpt.tmp`, syncs it, renames it into
/// place, and syncs the directory — the crash-safe publish dance shared
/// by [`Wal::checkpoint`] and [`Wal::seed`].
fn publish_checkpoint(dir: &dyn WalDir, seq: u64, body: &[u8]) -> io::Result<()> {
    let mut file = dir.create(CKPT_TMP)?;
    let mut head = Vec::with_capacity(24);
    head.extend_from_slice(CKPT_MAGIC);
    head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    head.extend_from_slice(&seq.to_le_bytes());
    head.extend_from_slice(&(body.len() as u32).to_le_bytes());
    head.extend_from_slice(&crc32(body).to_le_bytes());
    file.append(&head)?;
    file.append(body)?;
    file.sync()?;
    drop(file);
    dir.rename(CKPT_TMP, &checkpoint_name(seq))?;
    dir.sync_dir()?;
    Ok(())
}

/// Stand-in before the first segment opens (never written).
struct NullFile;

impl WalFile for NullFile {
    fn append(&mut self, _buf: &[u8]) -> io::Result<()> {
        unreachable!("NullFile is replaced before use")
    }
    fn sync(&mut self) -> io::Result<()> {
        unreachable!("NullFile is replaced before use")
    }
}

/// What the recovery scan found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// Newest valid checkpoint, as `(seq, body)`. Bodies are opaque to
    /// the WAL — the durable layer owns their format.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Every record in the surviving segments, in log order. May include
    /// records at or below the checkpoint seq (a crash between the
    /// checkpoint rename and the prune leaves stale segments behind);
    /// the replayer skips those by seq.
    pub records: Vec<Rec>,
    /// Set if the final segment had a torn tail: `(file, valid_len)`
    /// after the truncation that repaired it.
    pub truncated: Option<(String, u64)>,
    /// The segment index a new writer should open next.
    pub next_segment: u64,
    /// The highest leadership term found in any segment header. A
    /// restart reopens the log at this same term (restarts bump the
    /// lifetime half of the epoch, never the term).
    pub term: u64,
}

/// Scans `dir`: discards a stale `ckpt.tmp`, loads the newest valid
/// checkpoint, walks every segment frame-by-frame verifying CRCs,
/// truncates a torn tail on the final segment, and refuses mid-log
/// corruption with [`WalError::Corrupt`].
pub fn recover(dir: &dyn WalDir) -> Result<Recovery, WalError> {
    let files = dir.list()?;
    if files.iter().any(|f| f == CKPT_TMP) {
        // An unfinished checkpoint publish; the log tail supersedes it.
        // Best effort: the scan ignores `ckpt.tmp` by name, so a failed
        // delete must not turn a cleanup hiccup into an unrecoverable
        // store — a later life (or the next checkpoint) retries.
        let _ = dir.remove(CKPT_TMP);
    }

    let checkpoint = newest_checkpoint(dir, &files)?;

    let mut seg_indices: Vec<u64> = files
        .iter()
        .filter_map(|f| parse_name(f, "wal-", ".seg"))
        .collect();
    seg_indices.sort_unstable();
    let next_segment = seg_indices.last().map_or(1, |last| last + 1);

    let mut records = Vec::new();
    let mut truncated = None;
    let mut term = 0;
    for (pos, &index) in seg_indices.iter().enumerate() {
        let is_last = pos + 1 == seg_indices.len();
        let name = segment_name(index);
        let bytes = dir.read(&name)?;
        let seg_start = records.len();
        match scan_segment(&name, &bytes, is_last, &mut records)? {
            None => {}
            Some(valid_len) => {
                dir.truncate(&name, valid_len)?;
                truncated = Some((name, valid_len));
            }
        }
        // Terms only grow; the max tolerates a torn final header (which
        // scan_segment truncated away) by keeping the prior segment's.
        if let Some(t) = segment_term(&bytes) {
            term = term.max(t);
        }
        drop_dangling_tx(&mut records, seg_start);
    }

    Ok(Recovery {
        checkpoint,
        records,
        truncated,
        next_segment,
        term,
    })
}

/// Drops an unterminated transaction group from the end of the records
/// just scanned out of one segment (`seg_start` is where they begin).
///
/// A transaction's frames land in a single commit and therefore a
/// single segment, so a `TxBegin` with no matching `TxCommit` can only
/// be the unacknowledged suffix of a crashed commit. It must be cut at
/// the *segment* boundary: a later life appends to a fresh segment, and
/// a replayer that carried the open group across the boundary would
/// silently swallow every subsequent record into the never-committed
/// transaction.
fn drop_dangling_tx(records: &mut Vec<Rec>, seg_start: usize) {
    let mut open = None;
    for (i, rec) in records.iter().enumerate().skip(seg_start) {
        match rec {
            Rec::TxBegin { .. } => open = Some(i),
            Rec::TxCommit { .. } => open = None,
            _ => {}
        }
    }
    if let Some(begin) = open {
        records.truncate(begin);
    }
}

/// Validates one checkpoint file; `Ok(None)` means invalid (skip it).
fn read_checkpoint(dir: &dyn WalDir, name: &str, seq: u64) -> Result<Option<Vec<u8>>, WalError> {
    let bytes = dir.read(name)?;
    if bytes.len() < 24 || &bytes[..4] != CKPT_MAGIC {
        return Ok(None);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let file_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let body_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    if version != FORMAT_VERSION || file_seq != seq || bytes.len() != 24 + body_len {
        return Ok(None);
    }
    let body = &bytes[24..];
    if crc32(body) != crc {
        return Ok(None);
    }
    Ok(Some(body.to_vec()))
}

/// The newest checkpoint among `files` that [`read_checkpoint`] accepts,
/// as `(seq, body)`. An invalid one (torn mid-publish in some earlier
/// life) falls back to the next-newest; the husk is left for the next
/// checkpoint to prune.
fn newest_checkpoint(
    dir: &dyn WalDir,
    files: &[String],
) -> Result<Option<(u64, Vec<u8>)>, WalError> {
    let mut seqs: Vec<u64> = files
        .iter()
        .filter_map(|f| parse_name(f, "ckpt-", ".ck"))
        .collect();
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    for seq in seqs {
        if let Some(body) = read_checkpoint(dir, &checkpoint_name(seq), seq)? {
            return Ok(Some((seq, body)));
        }
    }
    Ok(None)
}

/// Reads the leadership term out of one segment's header, if the header
/// is intact.
fn segment_term(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < SEG_HEADER
        || &bytes[..4] != SEG_MAGIC
        || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != FORMAT_VERSION
    {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

/// Walks one segment's frames into `records`. Returns `Some(valid_len)`
/// if a torn tail was found (only tolerated when `is_last`); errors with
/// [`WalError::Corrupt`] otherwise.
fn scan_segment(
    name: &str,
    bytes: &[u8],
    is_last: bool,
    records: &mut Vec<Rec>,
) -> Result<Option<u64>, WalError> {
    let torn = |offset: usize, what: &'static str| -> Result<Option<u64>, WalError> {
        if is_last {
            Ok(Some(offset as u64))
        } else {
            Err(WalError::Corrupt {
                file: name.to_string(),
                offset: offset as u64,
                what,
            })
        }
    };

    if bytes.len() < SEG_HEADER
        || &bytes[..4] != SEG_MAGIC
        || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != FORMAT_VERSION
    {
        // A header never appears torn unless the crash hit the very
        // first append to a fresh segment.
        return torn(0, "bad segment header");
    }

    let mut offset = SEG_HEADER;
    while offset < bytes.len() {
        match Rec::unframe(&bytes[offset..]) {
            Ok((rec, used)) => {
                records.push(rec);
                offset += used;
            }
            Err(FrameError::Torn(what)) => return torn(offset, what),
            // A valid CRC over an undecodable payload is real corruption
            // (a torn write cannot forge a checksum): refuse even on the
            // tail.
            Err(FrameError::Undecodable(what)) => {
                return Err(WalError::Corrupt {
                    file: name.to_string(),
                    offset: offset as u64,
                    what,
                })
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FsDir;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    /// An in-memory dir with *transient* fault injection: unlike a
    /// crash simulator, the dir keeps working after a fault — modeling
    /// an ENOSPC blip or one failed fsync in a process that lives on.
    #[derive(Clone, Default)]
    struct FlakyDir {
        inner: Arc<Mutex<FlakyState>>,
    }

    #[derive(Default)]
    struct FlakyState {
        files: BTreeMap<String, Vec<u8>>,
        /// Queued append faults: each entry makes one append write only
        /// that many bytes, then error.
        fail_append: std::collections::VecDeque<usize>,
        /// Queued sync outcomes: each file sync pops one (`true` = fail);
        /// an empty queue means syncs succeed.
        fail_sync: std::collections::VecDeque<bool>,
        /// That many upcoming `remove` calls error (the file survives).
        fail_remove: u32,
        /// That many upcoming `truncate` calls error.
        fail_truncate: u32,
    }

    impl FlakyDir {
        fn arm_append(&self, partial: usize) {
            self.inner.lock().unwrap().fail_append.push_back(partial);
        }
        fn arm_sync(&self) {
            self.arm_sync_nth(1);
        }
        /// Lets `n - 1` syncs through, then fails the `n`-th.
        fn arm_sync_nth(&self, n: usize) {
            let mut st = self.inner.lock().unwrap();
            for _ in 1..n {
                st.fail_sync.push_back(false);
            }
            st.fail_sync.push_back(true);
        }
        fn arm_remove(&self, times: u32) {
            self.inner.lock().unwrap().fail_remove = times;
        }
        fn arm_truncate(&self, times: u32) {
            self.inner.lock().unwrap().fail_truncate = times;
        }
    }

    struct FlakyFile {
        name: String,
        inner: Arc<Mutex<FlakyState>>,
    }

    impl WalFile for FlakyFile {
        fn append(&mut self, buf: &[u8]) -> io::Result<()> {
            let mut st = self.inner.lock().unwrap();
            let landed = match st.fail_append.pop_front() {
                Some(partial) => partial.min(buf.len()),
                None => buf.len(),
            };
            st.files
                .get_mut(&self.name)
                .expect("open handle")
                .extend_from_slice(&buf[..landed]);
            if landed < buf.len() {
                return Err(io::Error::other("transient write fault"));
            }
            Ok(())
        }
        fn sync(&mut self) -> io::Result<()> {
            let mut st = self.inner.lock().unwrap();
            if st.fail_sync.pop_front() == Some(true) {
                return Err(io::Error::other("transient fsync fault"));
            }
            Ok(())
        }
    }

    impl WalDir for FlakyDir {
        fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
            let mut st = self.inner.lock().unwrap();
            st.files.insert(name.to_string(), Vec::new());
            Ok(Box::new(FlakyFile {
                name: name.to_string(),
                inner: Arc::clone(&self.inner),
            }))
        }
        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            self.inner
                .lock()
                .unwrap()
                .files
                .get(name)
                .cloned()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
        }
        fn list(&self) -> io::Result<Vec<String>> {
            Ok(self.inner.lock().unwrap().files.keys().cloned().collect())
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            let mut st = self.inner.lock().unwrap();
            if st.fail_remove > 0 {
                st.fail_remove -= 1;
                return Err(io::Error::other("transient remove fault"));
            }
            st.files
                .remove(name)
                .map(|_| ())
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
        }
        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            let mut st = self.inner.lock().unwrap();
            let body = st
                .files
                .remove(from)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, from.to_string()))?;
            st.files.insert(to.to_string(), body);
            Ok(())
        }
        fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
            let mut st = self.inner.lock().unwrap();
            if st.fail_truncate > 0 {
                st.fail_truncate -= 1;
                return Err(io::Error::other("transient truncate fault"));
            }
            st.files
                .get_mut(name)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?
                .truncate(len as usize);
            Ok(())
        }
        fn sync_dir(&self) -> io::Result<()> {
            Ok(())
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cqu-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn upd(seq: u64) -> Rec {
        Rec::Update {
            seq,
            shard: 0,
            insert: true,
            rel: 0,
            tuple: vec![seq, seq + 1],
        }
    }

    #[test]
    fn append_recover_roundtrip() {
        let path = tmpdir("roundtrip");
        let dir = FsDir::open(&path).unwrap();
        let mut wal = Wal::new(Box::new(dir), WalOptions::default(), 1, 0).unwrap();
        for seq in 1..=10 {
            wal.append(&upd(seq));
            wal.commit().unwrap();
        }
        drop(wal);
        let dir = FsDir::open(&path).unwrap();
        let rec = recover(&dir).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.records, (1..=10).map(upd).collect::<Vec<_>>());
        assert_eq!(rec.next_segment, 2);
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_recovery_joins_them() {
        let path = tmpdir("rotate");
        let dir = FsDir::open(&path).unwrap();
        let opts = WalOptions {
            fsync: FsyncPolicy::Never,
            segment_bytes: 64,
        };
        let mut wal = Wal::new(Box::new(dir), opts, 1, 0).unwrap();
        for seq in 1..=20 {
            wal.append(&upd(seq));
            wal.commit().unwrap();
        }
        assert!(wal.segment_index() > 1);
        drop(wal);
        let dir = FsDir::open(&path).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 20);
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncates_and_mid_log_corruption_refuses() {
        let path = tmpdir("torn");
        let dir = FsDir::open(&path).unwrap();
        let mut wal = Wal::new(Box::new(dir), WalOptions::default(), 1, 0).unwrap();
        for seq in 1..=5 {
            wal.append(&upd(seq));
            wal.commit().unwrap();
        }
        drop(wal);
        // Tear the tail: chop 3 bytes off the segment.
        let seg = path.join(segment_name(1));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let dir = FsDir::open(&path).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 4);
        assert!(rec.truncated.is_some());
        // Re-scan after repair: clean.
        let rec = recover(&FsDir::open(&path).unwrap()).unwrap();
        assert_eq!(rec.records.len(), 4);
        assert!(rec.truncated.is_none());

        // Now flip a byte mid-log (first record's payload) with a later
        // valid segment after it: recovery must refuse.
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[SEG_HEADER + 9] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let dir2 = FsDir::open(&path).unwrap();
        let mut wal = Wal::new(Box::new(dir2), WalOptions::default(), 2, 0).unwrap();
        wal.append(&upd(6));
        wal.commit().unwrap();
        drop(wal);
        match recover(&FsDir::open(&path).unwrap()) {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn checkpoint_prunes_and_recovers() {
        let path = tmpdir("ckpt");
        let dir = FsDir::open(&path).unwrap();
        let mut wal = Wal::new(Box::new(dir), WalOptions::default(), 1, 0).unwrap();
        for seq in 1..=5 {
            wal.append(&upd(seq));
            wal.commit().unwrap();
        }
        wal.checkpoint(5, b"state-at-5").unwrap();
        wal.append(&upd(6));
        wal.commit().unwrap();
        drop(wal);
        let rec = recover(&FsDir::open(&path).unwrap()).unwrap();
        assert_eq!(rec.checkpoint, Some((5, b"state-at-5".to_vec())));
        assert_eq!(rec.records, vec![upd(6)]);
        std::fs::remove_dir_all(&path).unwrap();
    }

    /// A torn append must not let later acknowledged commits land
    /// after the torn bytes: the writer repairs (truncate + rotate)
    /// before accepting them, so recovery replays exactly the
    /// acknowledged set — never `Corrupt`, never a silent drop.
    #[test]
    fn failed_commit_poisons_and_repairs_before_later_commits() {
        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        wal.append(&upd(1));
        wal.commit().unwrap();

        // Tear the next commit 5 bytes into its frame.
        dir.arm_append(5);
        wal.append(&upd(2));
        assert!(wal.commit().is_err());

        // The eager repair already cut the torn tail and rotated; the
        // next commit is acknowledged on a clean segment.
        wal.append(&upd(3));
        assert!(wal.commit().unwrap());
        assert!(wal.segment_index() > 1, "repair must seal the torn segment");

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records, vec![upd(1), upd(3)]);
        assert!(rec.truncated.is_none(), "repair left no torn tail behind");
    }

    /// A failed fsync leaves *complete but unacknowledged* frames in
    /// the file; repair must remove them so recovery cannot replay a
    /// commit whose caller was told it failed.
    #[test]
    fn failed_sync_discards_the_unacknowledged_frames() {
        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        wal.append(&upd(1));
        wal.commit().unwrap();

        dir.arm_sync();
        wal.append(&upd(2));
        assert!(wal.commit().is_err());

        wal.append(&upd(3));
        assert!(wal.commit().unwrap());

        let rec = recover(&dir).unwrap();
        assert_eq!(
            rec.records,
            vec![upd(1), upd(3)],
            "the unacknowledged frame of the failed commit must not survive"
        );
    }

    /// While repair itself keeps failing, no commit may be
    /// acknowledged — and staged frames of failed operations must not
    /// leak into a later successful commit.
    #[test]
    fn unrepaired_writer_refuses_commits_without_leaking_frames() {
        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        wal.append(&upd(1));
        wal.commit().unwrap();

        // Three queued faults: tear a frame, fail the eager repair
        // (fresh segment's header append), then fail the deferred
        // repair on the next commit too.
        dir.arm_append(3);
        dir.arm_append(0);
        dir.arm_append(0);
        wal.append(&upd(2));
        assert!(wal.commit().is_err());
        // Deferred repair fails as well: this commit must error and
        // drop its staged frame.
        wal.append(&upd(3));
        assert!(wal.commit().is_err());

        // Fault clears; the next commit repairs and succeeds — with
        // only its own frame.
        wal.append(&upd(4));
        assert!(wal.commit().unwrap());

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records, vec![upd(1), upd(4)]);
    }

    /// A prune fault *after* the rename + dir-sync must not fail the
    /// checkpoint: it is already durable, and the stale files it could
    /// not delete are skipped by seq at recovery and reclaimed by the
    /// next checkpoint. (Pre-fix, `checkpoint` returned `Err` here and
    /// callers re-serialized the whole database to "retry" a publish
    /// that had already happened.)
    #[test]
    fn checkpoint_post_publish_prune_fault_is_not_fatal() {
        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        for seq in 1..=4 {
            wal.append(&upd(seq));
            wal.commit().unwrap();
        }
        dir.arm_remove(1); // first post-rename remove fails
        wal.checkpoint(4, b"state-at-4").unwrap();
        // The stale segment survived the failed delete; recovery skips
        // it by seq and still lands on the checkpoint.
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.checkpoint, Some((4, b"state-at-4".to_vec())));
        wal.append(&upd(5));
        wal.commit().unwrap();
        // The next checkpoint retries the prune and reclaims everything.
        wal.checkpoint(5, b"state-at-5").unwrap();
        let names = dir.list().unwrap();
        assert!(
            !names.contains(&checkpoint_name(4)),
            "retried prune reclaims the stale checkpoint: {names:?}"
        );
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.checkpoint, Some((5, b"state-at-5".to_vec())));
        assert!(rec.records.is_empty());
    }

    /// A rotation fault after the checkpoint published: the prune must
    /// be skipped wholesale (the live segment is still the sealed one —
    /// deleting it would pull the file out from under the writer), the
    /// checkpoint still reports success, and the writer repairs on the
    /// next commit.
    #[test]
    fn checkpoint_rotate_fault_skips_prune_and_repairs() {
        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        for seq in 1..=3 {
            wal.append(&upd(seq));
            wal.commit().unwrap();
        }
        // The ckpt.tmp sync (pre-publish) must succeed; the *second*
        // sync is the rotation sealing the old segment — fail that one.
        dir.arm_sync_nth(2);
        wal.checkpoint(3, b"state-at-3").unwrap();
        // Later commits repair (rotate) and are acknowledged normally.
        wal.append(&upd(4));
        assert!(wal.commit().unwrap());
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.checkpoint, Some((3, b"state-at-3".to_vec())));
        assert!(rec.records.contains(&upd(4)));
    }

    /// A failed `ckpt.tmp` delete during recovery is a cleanup hiccup,
    /// not an unrecoverable store: the scan already ignores the file by
    /// name. (Pre-fix, `recover` propagated the error.)
    #[test]
    fn recover_tolerates_ckpt_tmp_remove_failure() {
        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        wal.append(&upd(1));
        wal.commit().unwrap();
        drop(wal);
        dir.inner
            .lock()
            .unwrap()
            .files
            .insert(CKPT_TMP.to_string(), b"half-written garbage".to_vec());
        dir.arm_remove(1);
        let rec = recover(&dir).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.records, vec![upd(1)]);
        // The husk survived the failed delete; the next recovery (fault
        // cleared) reclaims it.
        assert!(dir.list().unwrap().contains(&CKPT_TMP.to_string()));
        recover(&dir).unwrap();
        assert!(!dir.list().unwrap().contains(&CKPT_TMP.to_string()));
    }

    /// Regression: a crash can leave a *complete but uncommitted*
    /// `TxBegin …` suffix in a sealed segment (the commit record never
    /// landed, and the process died before repair could truncate). A
    /// later life appends to a fresh segment; replaying the joined log
    /// must not swallow the new records into the dead transaction — the
    /// open group is dropped at the segment boundary.
    #[test]
    fn dangling_tx_suffix_does_not_swallow_later_segments() {
        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        wal.append(&upd(1));
        wal.commit().unwrap();
        // Simulate the crashed commit: TxBegin + one update reach the
        // file, the TxCommit and the acknowledgment never do.
        let mut suffix = Vec::new();
        Rec::TxBegin { first_seq: 2 }.frame(&mut suffix);
        upd(2).frame(&mut suffix);
        dir.inner
            .lock()
            .unwrap()
            .files
            .get_mut(&segment_name(1))
            .unwrap()
            .extend_from_slice(&suffix);
        // Next life recovers (sees and drops the dangling group) …
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records, vec![upd(1)]);
        // … and appends to a fresh segment.
        let mut wal = Wal::new(
            Box::new(dir.clone()),
            WalOptions::default(),
            rec.next_segment,
            rec.term,
        )
        .unwrap();
        wal.append(&upd(3));
        wal.commit().unwrap();
        drop(wal);
        // The life after *that* must replay the new record, not bury it
        // inside the never-committed transaction.
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records, vec![upd(1), upd(3)]);
    }

    /// `ship_scan` reads the committed log without mutating anything:
    /// suspect bytes past a failed commit are excluded, checkpoints and
    /// records match what recovery would see, and the floor reflects
    /// the checkpoint.
    #[test]
    fn ship_scan_reads_committed_records_only() {
        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        for seq in 1..=3 {
            wal.append(&upd(seq));
            wal.commit().unwrap();
        }
        let shipped = wal.ship_scan().unwrap();
        assert!(shipped.checkpoint.is_none());
        assert_eq!(shipped.floor(), 0);
        assert_eq!(shipped.records, (1..=3).map(upd).collect::<Vec<_>>());

        // A failed fsync leaves a complete-but-unacknowledged frame in
        // the file; fail the eager repair's truncate too, so the frame
        // is still on disk when the scan runs — it must not ship.
        dir.arm_sync();
        dir.arm_truncate(1);
        wal.append(&upd(4));
        assert!(wal.commit().is_err());
        let shipped = wal.ship_scan().unwrap();
        assert_eq!(
            shipped.records,
            (1..=3).map(upd).collect::<Vec<_>>(),
            "unacknowledged frame of the failed commit must not ship"
        );

        // After a checkpoint the scan reports it, raising the floor.
        wal.append(&upd(4));
        wal.commit().unwrap();
        wal.checkpoint(4, b"state-at-4").unwrap();
        wal.append(&upd(5));
        wal.commit().unwrap();
        let shipped = wal.ship_scan().unwrap();
        assert_eq!(shipped.floor(), 4);
        assert_eq!(shipped.checkpoint, Some((4, b"state-at-4".to_vec())));
        assert_eq!(shipped.records, vec![upd(5)]);
    }

    #[test]
    fn stale_ckpt_tmp_is_discarded() {
        let path = tmpdir("tmp");
        let dir = FsDir::open(&path).unwrap();
        let mut wal = Wal::new(Box::new(dir), WalOptions::default(), 1, 0).unwrap();
        wal.append(&upd(1));
        wal.commit().unwrap();
        drop(wal);
        std::fs::write(path.join(CKPT_TMP), b"half-written garbage").unwrap();
        let rec = recover(&FsDir::open(&path).unwrap()).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.records, vec![upd(1)]);
        assert!(!path.join(CKPT_TMP).exists());
        std::fs::remove_dir_all(&path).unwrap();
    }

    /// The leadership term survives restarts and rotations (every
    /// segment header carries it), and packed epochs order
    /// term-dominantly — a promoted term 2 outranks any lifetime churn
    /// at term 1.
    #[test]
    fn term_persists_across_rotations_and_orders_epochs() {
        let e = epoch::compose(3, 7);
        assert_eq!(epoch::term(e), 3);
        assert_eq!(epoch::lifetime(e), 7);
        let max_lifetime = (1u64 << epoch::LIFETIME_BITS) - 1;
        assert!(epoch::compose(2, 1) > epoch::compose(1, max_lifetime));

        let dir = FlakyDir::default();
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 3).unwrap();
        assert_eq!(wal.term(), 3);
        wal.append(&upd(1));
        wal.commit().unwrap();
        wal.rotate().unwrap();
        wal.append(&upd(2));
        wal.commit().unwrap();
        drop(wal);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.term, 3);
        assert_eq!(rec.next_segment, 3);
        assert_eq!(rec.records, vec![upd(1), upd(2)]);
    }

    /// An attached registry counts commits/fsyncs/repairs/checkpoints
    /// exactly and journals the structural events; a writer without one
    /// pays nothing and records nothing.
    #[test]
    fn attached_registry_counts_wal_activity() {
        let dir = FlakyDir::default();
        let registry = Arc::new(Registry::new());
        let mut wal = Wal::new(Box::new(dir.clone()), WalOptions::default(), 1, 0).unwrap();
        wal.attach_registry(Arc::clone(&registry));
        for seq in 1..=3 {
            wal.append(&upd(seq));
            wal.commit().unwrap();
        }
        assert_eq!(registry.counter("wal_commits_total").get(), 3);
        assert_eq!(registry.counter("wal_fsyncs_total").get(), 3);
        assert!(registry.counter("wal_append_bytes_total").get() > 0);
        assert_eq!(registry.histogram("wal_append_latency_ns").count(), 3);

        // A torn commit journals the poison and the eager repair.
        dir.arm_append(5);
        wal.append(&upd(4));
        assert!(wal.commit().is_err());
        assert_eq!(registry.counter("wal_commits_total").get(), 3);
        assert_eq!(registry.counter("wal_repairs_total").get(), 1);
        let kinds: Vec<&str> = registry.journal().events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"wal_poison"), "journal: {kinds:?}");
        assert!(kinds.contains(&"wal_repair"), "journal: {kinds:?}");

        wal.append(&upd(4));
        wal.commit().unwrap();
        wal.checkpoint(4, b"state-at-4").unwrap();
        assert_eq!(registry.counter("wal_checkpoints_total").get(), 1);
        assert!(registry.counter("wal_rotations_total").get() >= 1);
        let kinds: Vec<&str> = registry.journal().events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"checkpoint"), "journal: {kinds:?}");
        assert!(kinds.contains(&"segment_rotation"), "journal: {kinds:?}");
    }

    /// `Wal::seed` publishes the foreign checkpoint and opens an append
    /// segment at the given term — the promotion bootstrap.
    #[test]
    fn seed_publishes_checkpoint_and_opens_at_term() {
        let dir = FlakyDir::default();
        let mut wal = Wal::seed(
            Box::new(dir.clone()),
            WalOptions::default(),
            1,
            5,
            42,
            b"promoted-state",
        )
        .unwrap();
        assert_eq!(wal.term(), 5);
        wal.append(&upd(43));
        wal.commit().unwrap();
        drop(wal);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.checkpoint, Some((42, b"promoted-state".to_vec())));
        assert_eq!(rec.records, vec![upd(43)]);
        assert_eq!(rec.term, 5);
        assert_eq!(rec.next_segment, 2);
    }
}
