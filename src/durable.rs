//! Durable sessions: the WAL-backed deployment of the concurrent
//! session core ([`ShardedSession`], or its one-shard face
//! [`SharedSession`]).
//!
//! A [`DurableSession`] routes every mutation through a write-ahead log
//! (`cqu-wal`) with **log-before-publish** discipline: the effective
//! updates of a commit — with their global sequence numbers — are
//! framed, appended, and (per [`FsyncPolicy`]) fsynced *before* the
//! in-memory session publishes epochs or subscriber events. A crash at
//! any instant therefore loses only work that no reader or subscriber
//! could have observed, and [`DurableSession::recover`] rebuilds exactly
//! `timeline[last durable seq]`: the newest valid checkpoint plus a
//! replay of the log tail.
//!
//! ## What is logged
//!
//! * a `Mode` record opening every fresh log: whether the query set is
//!   open (single mode — the core's one-shard form, DDL may follow at
//!   any time) or sealed into a shard plan at creation,
//! * `Register` records — durable DDL; recovery re-registers in log
//!   order, which deterministically reproduces the schema's relation
//!   ids and, for sealed plans, the shard plan,
//! * one `Update` record per *effective* update (no-ops draw no seq and
//!   take no disk space), stamped with seq and owning shard,
//! * `TxBegin`/`TxCommit` framing around transactions — recovery applies
//!   a transaction's updates only if its commit record hit the disk,
//! * `SeqBurn` compensation for rollbacks: a rolled-back transaction
//!   burns its sequence numbers in memory (inverses draw none), so the
//!   log records the post-burn counter and recovery never reissues a
//!   burned number to a subscriber cursor.
//!
//! ## One commit path
//!
//! Plain applies and batches are logged *before* they touch the session,
//! so their seqs are predicted: under the WAL lock (which serializes
//! every durable commit) the session's counter is stable, and
//! effectiveness is decided under shard read guards by a read of the
//! relation plus an overlay for within-batch dependencies — the same
//! set-semantics rule the session itself applies. The records are then
//! appended, committed and shipped with no session lock held (locked
//! readers never wait on an fsync), and only then does the batch apply.
//! Transactions cannot be predicted (the closure is opaque), so they
//! dispatch first — uncommitted state is invisible while the writer
//! locks are held — and log inside the commit window, still before any
//! event publishes. DDL stages its fallible half, commits the record
//! to the log, then commits the infallible half to the session, so the
//! in-memory schema never runs ahead of the log.
//!
//! Durable writes serialize through the WAL lock whatever the shard
//! count (one log is one total order); sharding still buys parallel
//! *reads* and feed fan-out. All mutations must go through the
//! `DurableSession` — writing through an escape-hatch handle bypasses
//! the log and forfeits every guarantee here.

use crate::error::CqError;
use crate::session::{
    validate_update, EngineChoice, QueryId, QuerySnapshot, Session, SharedSession,
};
use crate::shard::{ShardedSession, ShardedSessionBuilder, ShardedTransaction};
use cqu_baseline::EngineKind;
use cqu_common::FxHashMap;
use cqu_dynamic::UpdateReport;
use cqu_obs::Registry;
use cqu_query::{parse_query, RelId, Schema};
use cqu_storage::{Tuple, Update};
use cqu_wal::{epoch, FsDir, FsyncPolicy, Rec, Wal, WalDir, WalError, WalOptions};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLockReadGuard};

/// Batch size for checkpoint loading and log replay (bounds peak
/// allocation without changing semantics — batches apply in order).
pub(crate) const REPLAY_CHUNK: usize = 16_384;

/// A durable-layer failure.
#[derive(Debug)]
pub enum DurableError {
    /// The in-memory session refused the operation.
    Session(CqError),
    /// The log refused it (I/O, or typed corruption at recovery).
    Wal(WalError),
    /// The on-disk state is internally inconsistent (recovery only):
    /// e.g. a checkpoint whose schema disagrees with the logged
    /// registrations, or malformed transaction framing mid-log.
    Recovery(String),
    /// The operation is not available on this session (e.g. DDL on a
    /// sealed shard plan).
    Unsupported(&'static str),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Session(e) => write!(f, "{e}"),
            DurableError::Wal(e) => write!(f, "{e}"),
            DurableError::Recovery(msg) => write!(f, "recovery failed: {msg}"),
            DurableError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<CqError> for DurableError {
    fn from(e: CqError) -> DurableError {
        DurableError::Session(e)
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> DurableError {
        DurableError::Wal(e)
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> DurableError {
        DurableError::Wal(WalError::Io(e))
    }
}

/// Tuning for a durable session's log.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// When commits fsync (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Metrics registry shared into every layer of the session (WAL,
    /// session core, shards). `None` leaves the session uninstrumented —
    /// the record paths then skip metric work entirely.
    pub registry: Option<Arc<Registry>>,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            registry: None,
        }
    }
}

impl DurableOptions {
    fn wal(&self) -> WalOptions {
        WalOptions {
            fsync: self.fsync,
            segment_bytes: self.segment_bytes,
        }
    }
}

/// Log state guarded by one mutex: the writer, the registration list
/// (name, src, encoded choice) that checkpoints serialize, and the
/// attached replication queues.
struct WalState {
    wal: Wal,
    regs: Vec<(String, String, u8)>,
    /// Live replication queues `(follower id, queue)`. Commits push
    /// into every queue under this lock; a queue that reports itself
    /// dead or closed is dropped on the spot.
    sinks: Vec<(u64, Arc<cqu_repl::ShipQueue>)>,
    next_sink: u64,
}

/// A WAL-backed session. See the [module docs](self) for the logging
/// discipline and recovery semantics.
pub struct DurableSession {
    wal: Mutex<WalState>,
    /// The one concurrent session core: its open one-shard form for a
    /// single-mode log, a sealed shard plan for a sharded one.
    core: ShardedSession,
    /// The single-mode face of `core` ([`DurableSession::shared`]);
    /// `None` over a sealed plan.
    single: Option<SharedSession>,
    /// Packed [`epoch`] `(term, lifetime)`: the lifetime half is the
    /// startup segment index (strictly increasing across recoveries of
    /// one log), the term half is the leadership term (bumped only by
    /// promotion). Followers resume by cursor only within the epoch
    /// their state was built against; ordering is term-dominant for the
    /// stale-leader fence.
    epoch: u64,
}

impl std::fmt::Debug for DurableSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("sharded", &self.is_sharded())
            .finish_non_exhaustive()
    }
}

fn lock_wal(wal: &Mutex<WalState>) -> Result<std::sync::MutexGuard<'_, WalState>, DurableError> {
    wal.lock()
        .map_err(|_| DurableError::Session(CqError::Poisoned))
}

fn encode_choice(choice: EngineChoice) -> u8 {
    match choice {
        EngineChoice::Auto => 0,
        EngineChoice::Forced(EngineKind::QHierarchical) => 1,
        EngineChoice::Forced(EngineKind::Recompute) => 2,
        EngineChoice::Forced(EngineKind::DeltaIvm) => 3,
        EngineChoice::Forced(EngineKind::SemiJoin) => 4,
    }
}

pub(crate) fn decode_choice(byte: u8) -> Result<EngineChoice, DurableError> {
    Ok(match byte {
        0 => EngineChoice::Auto,
        1 => EngineChoice::Forced(EngineKind::QHierarchical),
        2 => EngineChoice::Forced(EngineKind::Recompute),
        3 => EngineChoice::Forced(EngineKind::DeltaIvm),
        4 => EngineChoice::Forced(EngineKind::SemiJoin),
        b => {
            return Err(DurableError::Recovery(format!(
                "unknown engine choice byte {b}"
            )))
        }
    })
}

/// Builds one `Update` record per entry of `effective`, stamped
/// `seq0+1..` — the commit path appends them to the log and then ships
/// the same values to any attached replication queues.
fn update_recs(core: &ShardedSession, seq0: u64, effective: &[Update]) -> Vec<Rec> {
    effective
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let (insert, rel, tuple) = match u {
                Update::Insert(r, t) => (true, *r, t),
                Update::Delete(r, t) => (false, *r, t),
            };
            Rec::Update {
                seq: seq0 + 1 + i as u64,
                shard: core.route(rel) as u16,
                insert,
                rel: rel.0,
                tuple: tuple.clone(),
            }
        })
        .collect()
}

/// Fans one committed record group out to every attached replication
/// queue: one serialization shared by all followers, and pushes that
/// never block — a queue that overflowed (or whose connection closed)
/// is dropped here, and its follower resumes by cursor on reconnect.
/// Runs after `wal.commit()` succeeds, so followers only ever see
/// records that are durable on the leader.
fn ship(st: &mut WalState, head: u64, recs: &[Rec]) {
    if st.sinks.is_empty() || recs.is_empty() {
        return;
    }
    let frame: Arc<[u8]> = cqu_repl::protocol::encode_records_frame(recs).into();
    st.sinks.retain(|(_, q)| q.push(head, Arc::clone(&frame)));
}

/// Validates `updates` and predicts the effective subset under set
/// semantics: `shards` (read guards on every shard — one consistent
/// cut) answer for the live relations, and an overlay carries
/// within-batch dependencies — exactly the rule the session's dispatch
/// applies, so the predicted seqs match the drawn ones.
fn predict_effective(
    core: &ShardedSession,
    shards: &[RwLockReadGuard<'_, Session>],
    updates: &[Update],
) -> Result<Vec<Update>, CqError> {
    // Every shard session carries the full schema.
    let schema = shards[0].schema();
    let present = |rel: RelId, tuple: &[u64]| {
        let shard = &shards[core.route(rel)];
        shard.database().relation(rel).contains(tuple)
    };
    let mut overlay: FxHashMap<(u32, Tuple), bool> = FxHashMap::default();
    let mut effective = Vec::new();
    for u in updates {
        validate_update(schema, u)?;
        let (rel, tuple, insert) = match u {
            Update::Insert(r, t) => (*r, t, true),
            Update::Delete(r, t) => (*r, t, false),
        };
        let key = (rel.0, tuple.clone());
        let cur = overlay
            .get(&key)
            .copied()
            .unwrap_or_else(|| present(rel, tuple));
        if insert != cur {
            effective.push(u.clone());
            overlay.insert(key, insert);
        }
    }
    Ok(effective)
}

/// Decoded checkpoint body.
pub(crate) struct CkptBody {
    pub(crate) sharded: bool,
    pub(crate) regs: Vec<(String, String, u8)>,
    /// Per relation (in schema order): declared arity and tuples.
    pub(crate) rels: Vec<(usize, Vec<Tuple>)>,
}

/// Checkpoint body layout (the WAL wraps it in magic + seq + CRC):
///
/// ```text
/// u8 sharded
/// u32 n_regs  { u8 choice, u32 name_len, name, u32 src_len, src }*
/// u32 n_rels  { u16 arity, u64 count, count × arity × u64 }*
/// ```
fn encode_ckpt_body(
    sharded: bool,
    regs: &[(String, String, u8)],
    schema: &Schema,
    mut tuples_of: impl FnMut(RelId) -> Vec<Tuple>,
) -> Vec<u8> {
    let put_bytes = |out: &mut Vec<u8>, b: &[u8]| {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        out.extend_from_slice(b);
    };
    let mut out = Vec::new();
    out.push(u8::from(sharded));
    out.extend_from_slice(&(regs.len() as u32).to_le_bytes());
    for (name, src, choice) in regs {
        out.push(*choice);
        put_bytes(&mut out, name.as_bytes());
        put_bytes(&mut out, src.as_bytes());
    }
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    for rel in schema.relations() {
        let tuples = tuples_of(rel);
        out.extend_from_slice(&(schema.arity(rel) as u16).to_le_bytes());
        out.extend_from_slice(&(tuples.len() as u64).to_le_bytes());
        for t in &tuples {
            for c in t {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    out
}

pub(crate) fn decode_ckpt_body(body: &[u8]) -> Result<CkptBody, DurableError> {
    struct R<'a>(&'a [u8]);
    impl R<'_> {
        fn take(&mut self, n: usize) -> Result<&[u8], DurableError> {
            if self.0.len() < n {
                return Err(DurableError::Recovery("checkpoint body truncated".into()));
            }
            let (head, tail) = self.0.split_at(n);
            self.0 = tail;
            Ok(head)
        }
        fn u8(&mut self) -> Result<u8, DurableError> {
            Ok(self.take(1)?[0])
        }
        fn u16(&mut self) -> Result<u16, DurableError> {
            Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
        }
        fn u32(&mut self) -> Result<u32, DurableError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }
        fn u64(&mut self) -> Result<u64, DurableError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }
        fn str(&mut self) -> Result<String, DurableError> {
            let len = self.u32()? as usize;
            String::from_utf8(self.take(len)?.to_vec())
                .map_err(|_| DurableError::Recovery("checkpoint string not utf-8".into()))
        }
        /// Admits a count of items of at least `item_bytes` each only if
        /// the bytes still unread can hold that many: the fields come
        /// raw off disk or the replication socket, and must not size an
        /// allocation or a loop before they are checked.
        fn count(&self, raw: u64, item_bytes: usize) -> Result<usize, DurableError> {
            match usize::try_from(raw) {
                Ok(n) if n <= self.0.len() / item_bytes => Ok(n),
                _ => Err(DurableError::Recovery(format!(
                    "checkpoint count {raw} exceeds the {} bytes left",
                    self.0.len()
                ))),
            }
        }
    }
    let mut r = R(body);
    let sharded = r.u8()? != 0;
    // A registration is a choice byte and two length-prefixed strings.
    let n_regs = r.u32()?;
    let n_regs = r.count(n_regs.into(), 9)?;
    let mut regs = Vec::with_capacity(n_regs);
    for _ in 0..n_regs {
        let choice = r.u8()?;
        let name = r.str()?;
        let src = r.str()?;
        regs.push((name, src, choice));
    }
    // A relation is at least its arity and tuple count.
    let n_rels = r.u32()?;
    let n_rels = r.count(n_rels.into(), 10)?;
    let mut rels = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let arity = r.u16()? as usize;
        let count = r.u64()?;
        let count = if arity > 0 {
            r.count(count, arity * 8)?
        } else if count <= 1 {
            // A nullary relation holds the empty tuple or nothing; its
            // tuples take no bytes, so only this bounds the loop.
            count as usize
        } else {
            return Err(DurableError::Recovery(format!(
                "nullary relation with {count} tuples in checkpoint"
            )));
        };
        let mut tuples = Vec::with_capacity(count);
        for _ in 0..count {
            let mut t = Vec::with_capacity(arity);
            for _ in 0..arity {
                t.push(r.u64()?);
            }
            tuples.push(t);
        }
        rels.push((arity, tuples));
    }
    if !r.0.is_empty() {
        return Err(DurableError::Recovery(
            "trailing bytes after checkpoint body".into(),
        ));
    }
    Ok(CkptBody {
        sharded,
        regs,
        rels,
    })
}

/// Attaches the options' registry, if any, to a freshly opened log
/// writer — the step every constructor shares.
fn instrument(mut wal: Wal, opts: &DurableOptions) -> Wal {
    if let Some(r) = &opts.registry {
        wal.attach_registry(Arc::clone(r));
    }
    wal
}

impl DurableSession {
    fn assemble(
        wal: Wal,
        regs: Vec<(String, String, u8)>,
        core: ShardedSession,
        epoch: u64,
    ) -> DurableSession {
        DurableSession {
            wal: Mutex::new(WalState {
                wal,
                regs,
                sinks: Vec::new(),
                next_sink: 1,
            }),
            single: core.is_open().then(|| SharedSession { core: core.clone() }),
            core,
            epoch,
        }
    }

    /// Creates a fresh single-writer durable session over `dir`. Refuses
    /// a directory that already holds a log — use
    /// [`DurableSession::recover`] for that.
    pub fn create(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        DurableSession::create_mode(dir, opts, false, &[])
    }

    /// Creates a fresh sharded durable session over `dir`, registering
    /// `regs` (name, query source) up front — the sharded plan seals at
    /// build, so the query set arrives here rather than incrementally.
    pub fn create_sharded(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
        regs: &[(&str, &str)],
    ) -> Result<DurableSession, DurableError> {
        if regs.is_empty() {
            return Err(DurableError::Unsupported(
                "a sharded session needs at least one query",
            ));
        }
        DurableSession::create_mode(dir, opts, true, regs)
    }

    /// Builds the core, then opens a virgin log with its `Mode` record
    /// and the initial registrations in one synced commit.
    fn create_mode(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
        sharded: bool,
        regs: &[(&str, &str)],
    ) -> Result<DurableSession, DurableError> {
        ensure_virgin(&*dir)?;
        let regs: Vec<(String, String, u8)> = regs
            .iter()
            .map(|(name, src)| ((*name).to_string(), (*src).to_string(), 0))
            .collect();
        let core = build_core(sharded, &regs, opts.registry.as_ref())?;
        let mut wal = instrument(Wal::new(dir, opts.wal(), 1, 0)?, &opts);
        wal.append(&Rec::Mode { sharded });
        for (name, src, choice) in &regs {
            wal.append(&Rec::Register {
                name: name.clone(),
                src: src.clone(),
                choice: *choice,
            });
        }
        wal.commit()?;
        wal.sync()?;
        Ok(DurableSession::assemble(
            wal,
            regs,
            core,
            epoch::compose(0, 1),
        ))
    }

    /// [`DurableSession::create`] over a filesystem path.
    pub fn create_at(
        path: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        DurableSession::create(Box::new(FsDir::open(path.as_ref())?), opts)
    }

    /// [`DurableSession::create_sharded`] over a filesystem path.
    pub fn create_sharded_at(
        path: impl AsRef<Path>,
        opts: DurableOptions,
        regs: &[(&str, &str)],
    ) -> Result<DurableSession, DurableError> {
        DurableSession::create_sharded(Box::new(FsDir::open(path.as_ref())?), opts, regs)
    }

    /// Rebuilds a session from `dir`: loads the newest valid checkpoint,
    /// replays the log tail (skipping records the checkpoint already
    /// covers and any uncommitted transaction suffix), repairs a torn
    /// final segment by truncation, and refuses mid-log corruption with
    /// a typed error. The recovered state is exactly
    /// `timeline[last durable seq]`, and the sequence counter resumes
    /// from that seq — subscriber cursors from the previous life stay
    /// meaningful.
    pub fn recover(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        let scan = cqu_wal::recover(&*dir)?;
        let ckpt = match &scan.checkpoint {
            Some((seq, body)) => Some((*seq, decode_ckpt_body(body)?)),
            None => None,
        };
        if ckpt.is_none() && scan.records.is_empty() {
            return Err(DurableError::Recovery(
                "no durable state found in directory".into(),
            ));
        }
        let sharded = match &ckpt {
            Some((_, body)) => body.sharded,
            None => match scan.records.first() {
                Some(Rec::Mode { sharded }) => *sharded,
                _ => {
                    return Err(DurableError::Recovery(
                        "log does not begin with a mode record".into(),
                    ))
                }
            },
        };
        let ckpt_seq = ckpt.as_ref().map_or(0, |(seq, _)| *seq);
        let mut regs: Vec<(String, String, u8)> =
            ckpt.as_ref().map_or_else(Vec::new, |(_, b)| b.regs.clone());

        if sharded {
            // Sharded registrations all precede the first update, so the
            // full set (checkpoint + tail) is known before the sealed
            // plan must be built.
            for rec in &scan.records {
                if let Rec::Register { name, src, choice } = rec {
                    if !regs.iter().any(|(n, _, _)| n == name) {
                        regs.push((name.clone(), src.clone(), *choice));
                    }
                }
            }
        }
        let core = build_core(sharded, &regs, opts.registry.as_ref())?;

        // Load checkpoint tuples, batched per relation.
        if let Some((_, body)) = &ckpt {
            load_ckpt_tuples(&core, body)?;
        }

        // Replay the tail.
        let mut registered: std::collections::HashSet<String> =
            regs.iter().map(|(n, _, _)| n.clone()).collect();
        let mut last_seq = ckpt_seq;
        let mut pending: Vec<Update> = Vec::new();
        let mut tx_buf: Option<Vec<Update>> = None;
        for rec in &scan.records {
            match rec {
                Rec::Mode { sharded: m } => {
                    if *m != sharded {
                        return Err(DurableError::Recovery(
                            "conflicting mode records in log".into(),
                        ));
                    }
                }
                Rec::Register { name, src, choice } => {
                    if sharded || registered.contains(name) {
                        continue;
                    }
                    // Single mode interleaves DDL with updates: flush
                    // what came before so relation ids intern in the
                    // original order.
                    flush_pending(&core, &mut pending)?;
                    let engine = decode_choice(*choice)?;
                    core.write_at(0, |s| s.register_with(name, src, engine))??;
                    registered.insert(name.clone());
                    regs.push((name.clone(), src.clone(), *choice));
                }
                Rec::Update {
                    seq,
                    insert,
                    rel,
                    tuple,
                    ..
                } => {
                    if *seq <= ckpt_seq {
                        continue; // stale segment the checkpoint covers
                    }
                    let u = if *insert {
                        Update::Insert(RelId(*rel), tuple.clone())
                    } else {
                        Update::Delete(RelId(*rel), tuple.clone())
                    };
                    last_seq = last_seq.max(*seq);
                    match &mut tx_buf {
                        Some(buf) => buf.push(u),
                        None => pending.push(u),
                    }
                }
                Rec::TxBegin { .. } => {
                    if tx_buf.is_some() {
                        return Err(DurableError::Recovery(
                            "transaction begin inside an open transaction".into(),
                        ));
                    }
                    tx_buf = Some(Vec::new());
                }
                Rec::TxCommit { last_seq: ls } => {
                    let Some(buf) = tx_buf.take() else {
                        return Err(DurableError::Recovery(
                            "transaction commit without begin".into(),
                        ));
                    };
                    pending.extend(buf);
                    last_seq = last_seq.max(*ls);
                }
                Rec::SeqBurn { upto } => {
                    if tx_buf.is_some() {
                        return Err(DurableError::Recovery(
                            "seq burn inside an open transaction".into(),
                        ));
                    }
                    last_seq = last_seq.max(*upto);
                }
            }
        }
        // A still-open tx_buf is the uncommitted suffix of the crash —
        // dropped, exactly as it was never visible.
        flush_pending(&core, &mut pending)?;
        core.force_seq(last_seq)?;

        let wal = instrument(
            Wal::new(dir, opts.wal(), scan.next_segment, scan.term)?,
            &opts,
        );
        // The startup segment index is strictly increasing across lives
        // (recovery always opens past every existing segment) — the
        // lifetime half of the epoch. The term half survives restarts
        // untouched: only promotion mints a higher term.
        let epoch = epoch::compose(scan.term, scan.next_segment);
        Ok(DurableSession::assemble(wal, regs, core, epoch))
    }

    /// [`DurableSession::recover`] over a filesystem path.
    pub fn recover_at(
        path: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        DurableSession::recover(Box::new(FsDir::open(path.as_ref())?), opts)
    }

    /// Turns a replica's applied state into a fresh durable leader log —
    /// the promotion path behind [`crate::replica::ReplicaSession::promote`].
    ///
    /// The core (already at its applied seq) is checkpointed into a
    /// virgin `dir` via [`Wal::seed`], and the log opens at a leadership
    /// term strictly above the one observed from the old leader:
    /// `epoch = (term(observed) + 1, lifetime 1)`. Every epoch the old
    /// leader can ever present again — including after restarts, which
    /// bump only the lifetime half — orders below this one, so the
    /// fence holds.
    pub(crate) fn promote_from(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
        core: ShardedSession,
        regs: Vec<(String, String, u8)>,
        observed_epoch: u64,
    ) -> Result<DurableSession, DurableError> {
        ensure_virgin(&*dir)?;
        let (seq, body) = snapshot_ckpt_body(&core, &regs)?;
        let term = epoch::term(observed_epoch) + 1;
        let wal = instrument(Wal::seed(dir, opts.wal(), 1, term, seq, &body)?, &opts);
        if core.is_open() {
            // The open form can adopt the registry after the fact; a
            // sealed plan fixes its metrics at build, so the replica
            // must have carried the registry from bootstrap.
            if let Some(r) = &opts.registry {
                core.write_at(0, |s| s.share_registry(Arc::clone(r)))?;
            }
        }
        Ok(DurableSession::assemble(
            wal,
            regs,
            core,
            epoch::compose(term, 1),
        ))
    }

    /// Whether this session's query set is sealed into a shard plan
    /// (the log's `Mode` record).
    pub fn is_sharded(&self) -> bool {
        self.single.is_none()
    }

    /// The metrics registry this session was built with, if any. All
    /// layers (WAL, session core, shards) record into this one registry,
    /// so [`Registry::render`] here is the full picture.
    pub fn registry(&self) -> Option<Arc<Registry>> {
        self.core.registry()
    }

    /// The session as a [`SharedSession`] (single-writer mode). Read
    /// from it freely (snapshots, readers, feeds, serving sources);
    /// never write through it — that bypasses the log.
    pub fn shared(&self) -> Option<&SharedSession> {
        self.single.as_ref()
    }

    /// The session as a [`ShardedSession`] (sharded mode). Same contract
    /// as [`DurableSession::shared`]: reads only.
    pub fn sharded(&self) -> Option<&ShardedSession> {
        self.is_sharded().then_some(&self.core)
    }

    /// The session core itself, for crate-internal readers that serve
    /// either mode alike.
    pub(crate) fn core(&self) -> &ShardedSession {
        &self.core
    }

    /// The global sequence counter.
    pub fn seq(&self) -> Result<u64, DurableError> {
        Ok(self.core.seq())
    }

    /// Resolves a relation by name.
    pub fn relation(&self, name: &str) -> Result<RelId, DurableError> {
        Ok(self.core.relation(name)?)
    }

    /// Pins a snapshot of `name`'s current result.
    pub fn snapshot(&self, name: &str) -> Result<QuerySnapshot, DurableError> {
        Ok(self.core.snapshot(name)?)
    }

    /// O(1) count of `name`'s current result.
    pub fn count(&self, name: &str) -> Result<u64, DurableError> {
        Ok(self.core.count(name)?)
    }

    /// Registers a query (single-writer mode only — sharded sessions
    /// seal their query set at creation). Logged as durable DDL and
    /// fsynced regardless of policy: registrations are rare and losing
    /// one desynchronizes relation ids for every later update record.
    pub fn register(&self, name: &str, src: &str) -> Result<QueryId, DurableError> {
        self.register_with(name, src, EngineChoice::Auto)
    }

    /// [`DurableSession::register`] with an explicit engine choice.
    ///
    /// Log-before-publish, like every other mutation: the registration
    /// is staged (every check that can refuse it), then appended and
    /// committed to the log, and only then committed to the session — a
    /// failed log commit leaves the in-memory schema exactly where the
    /// log has it. The extra fsync comes last: once the commit landed
    /// the record is part of the log, so the registration stands on
    /// both sides even if that fsync then reports a fault.
    pub fn register_with(
        &self,
        name: &str,
        src: &str,
        choice: EngineChoice,
    ) -> Result<QueryId, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        if self.is_sharded() {
            return Err(DurableError::Unsupported(
                "sharded sessions register their queries at creation",
            ));
        }
        let query = parse_query(src).map_err(CqError::from)?;
        // The WAL lock keeps the schema still between stage and commit:
        // every durable mutation, DDL included, passes through it.
        let staged = self
            .core
            .read_at(0, |s| s.stage_query(name, &query, choice))??;
        let byte = encode_choice(choice);
        let rec = Rec::Register {
            name: name.to_string(),
            src: src.to_string(),
            choice: byte,
        };
        st.wal.append(&rec);
        st.wal.commit()?;
        let id = self.core.write_at(0, |s| s.commit_query(staged))?;
        let head = self.core.seq();
        ship(&mut st, head, std::slice::from_ref(&rec));
        st.regs.push((name.to_string(), src.to_string(), byte));
        st.wal.sync()?;
        Ok(id)
    }

    /// Applies one update durably; returns `true` iff it was effective.
    /// Log-before-publish: the record (if effective) is on the log —
    /// synced per policy — before the session observes the change.
    pub fn apply(&self, update: &Update) -> Result<bool, DurableError> {
        Ok(self.apply_batch(std::slice::from_ref(update))?.applied > 0)
    }

    /// Applies a batch durably (equivalent to its members in order).
    /// Only the effective subset is logged; seqs are predicted under the
    /// WAL lock and asserted against the session's own assignment.
    pub fn apply_batch(&self, updates: &[Update]) -> Result<UpdateReport, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let st = &mut *st;
        let core = &self.core;
        // The read guards drop before the log is touched.
        let effective = core.read_all(|shards| predict_effective(core, shards, updates))??;
        if effective.is_empty() {
            return Ok(UpdateReport {
                total: updates.len(),
                applied: 0,
            });
        }
        let seq0 = core.seq();
        let head = seq0 + effective.len() as u64;
        let recs = update_recs(core, seq0, &effective);
        for rec in &recs {
            st.wal.append(rec);
        }
        st.wal.commit()?;
        ship(st, head, &recs);
        // No reader can interleave observations here: the WAL lock
        // serializes writers, and per-update seq stamps are never
        // observable below event granularity — the log keeps submission
        // order even when a multi-shard batch commits per-shard
        // sub-batches.
        let report = core.apply_batch_prevalidated(updates)?;
        debug_assert_eq!(report.applied, effective.len());
        debug_assert_eq!(core.seq(), head);
        Ok(report)
    }

    /// Runs `f` inside a durable all-or-nothing transaction. On `Ok`,
    /// the effective updates are framed `TxBegin … TxCommit`, logged,
    /// and synced per policy *before* the in-memory commit publishes
    /// events; a crash before the commit record lands replays nothing.
    /// On `Err` (or a log failure), the in-memory transaction rolls
    /// back and a `SeqBurn` compensation record keeps the on-disk seq
    /// budget aligned with the burned in-memory numbers.
    ///
    /// A *failed* log commit cannot haunt recovery: the WAL poisons
    /// itself on any mid-commit error and repairs by truncating the
    /// suspect tail — including a fully framed `TxBegin … TxCommit`
    /// that reached the file but whose caller was told `Err` — before
    /// accepting another frame. The `SeqBurn` therefore lands on a
    /// fresh segment after the repair (or not at all if the fault
    /// persists), never behind torn bytes that recovery would truncate.
    pub fn transaction<R>(
        &self,
        f: impl FnOnce(&mut DurableTransaction<'_, '_>) -> Result<R, CqError>,
    ) -> Result<R, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let st = &mut *st;
        let core = &self.core;
        let seq0 = core.seq();
        let mut burn: u64 = 0;
        let res = core.transaction_generic(|tx| -> Result<R, DurableError> {
            let mut dtx = DurableTransaction {
                inner: tx,
                logged: Vec::new(),
            };
            let res = f(&mut dtx);
            let logged = dtx.logged;
            let n = logged.len() as u64;
            match res {
                Ok(r) => {
                    if n > 0 {
                        // Armed until the log lands: the driver rolls
                        // back on error and the burn record is written
                        // below.
                        burn = n;
                        let mut recs = Vec::with_capacity(logged.len() + 2);
                        recs.push(Rec::TxBegin {
                            first_seq: seq0 + 1,
                        });
                        recs.extend(update_recs(core, seq0, &logged));
                        recs.push(Rec::TxCommit { last_seq: seq0 + n });
                        for rec in &recs {
                            st.wal.append(rec);
                        }
                        st.wal.commit()?;
                        burn = 0;
                        ship(st, seq0 + n, &recs);
                    }
                    Ok(r)
                }
                Err(e) => {
                    burn = n;
                    Err(DurableError::Session(e))
                }
            }
        });
        if burn > 0 {
            let rec = Rec::SeqBurn { upto: seq0 + burn };
            st.wal.append(&rec);
            match st.wal.commit() {
                Ok(_) => ship(st, seq0 + burn, std::slice::from_ref(&rec)),
                // A burn that fails to land is a real durability fault —
                // the on-disk counter no longer covers the burned
                // numbers, so a recovery could reissue them to
                // subscriber cursors. Surface it — unless the log
                // already failed, in which case the original error is
                // the better diagnostic (and the WAL stays poisoned for
                // the next commit to surface).
                Err(we) => {
                    return match res {
                        Err(DurableError::Wal(_)) => res,
                        _ => Err(we.into()),
                    };
                }
            }
        }
        res
    }

    /// Serializes the full database state at the current seq, publishes
    /// it as a checkpoint (temp-file + rename + directory sync), and
    /// prunes every log segment the checkpoint supersedes. Returns the
    /// checkpointed seq.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let st = &mut *st;
        let (seq, body) = snapshot_ckpt_body(&self.core, &st.regs)?;
        st.wal.checkpoint(seq, &body)?;
        Ok(seq)
    }

    /// Forces an fsync of the current log segment — the manual floor
    /// for the lazy policies (`EveryN`/`Interval`/`Never`).
    pub fn sync(&self) -> Result<(), DurableError> {
        let mut st = lock_wal(&self.wal)?;
        st.wal.sync()?;
        Ok(())
    }

    /// This log lifetime's replication epoch. A follower's resume
    /// cursor is only meaningful within the epoch it was built against:
    /// after a leader restart, an un-fsynced suffix may have been
    /// truncated and its seqs reassigned, so followers re-handshake and
    /// the leader re-bootstraps them as needed.
    pub fn replication_epoch(&self) -> u64 {
        self.epoch
    }

    /// Registers a replication follower: scans the committed log
    /// (newest checkpoint plus the record tail) and attaches `queue` to
    /// receive every later commit — all under one hold of the WAL lock,
    /// so no commit can fall between the scan and the live stream.
    pub(crate) fn attach_follower(
        &self,
        queue: Arc<cqu_repl::ShipQueue>,
    ) -> Result<cqu_repl::Attach, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let shipped = st.wal.ship_scan()?;
        // Stable under the WAL lock: every durable writer serializes
        // through it, and seqs only move inside a commit.
        let head_seq = self.core.seq();
        let id = st.next_sink;
        st.next_sink += 1;
        st.sinks.push((id, queue));
        Ok(cqu_repl::Attach {
            id,
            epoch: self.epoch,
            sharded: self.is_sharded(),
            head_seq,
            checkpoint: shipped.checkpoint,
            records: shipped.records,
        })
    }

    /// Unregisters a departed follower's queue (idempotent).
    pub(crate) fn detach_follower(&self, id: u64) {
        if let Ok(mut st) = lock_wal(&self.wal) {
            st.sinks.retain(|(sid, _)| *sid != id);
        }
    }
}

/// Serializes the core's full state at its current seq into a
/// checkpoint body — shared by [`DurableSession::checkpoint`] and the
/// promotion seeding path. The caller must hold whatever lock makes the
/// seq stable (the WAL lock for a live leader; a stopped follower for
/// promotion).
pub(crate) fn snapshot_ckpt_body(
    core: &ShardedSession,
    regs: &[(String, String, u8)],
) -> Result<(u64, Vec<u8>), DurableError> {
    Ok(core.read_all(|guards| {
        (
            core.seq(),
            encode_ckpt_body(!core.is_open(), regs, guards[0].schema(), |rel| {
                guards[core.route(rel)].database().relation(rel).sorted()
            }),
        )
    })?)
}

fn ensure_virgin(dir: &dyn WalDir) -> Result<(), DurableError> {
    let has_log = dir
        .list()?
        .iter()
        .any(|f| f.starts_with("wal-") || f.starts_with("ckpt"));
    if has_log {
        return Err(DurableError::Unsupported(
            "directory already holds a log — use DurableSession::recover",
        ));
    }
    Ok(())
}

/// Builds a fresh session core from a registration list — shared by
/// creation, recovery and replica bootstrap, which must all reproduce
/// relation ids by re-registering in the original order. This is the one
/// place that chooses the core's form: a sealed shard plan for sharded
/// logs, the open one-shard form otherwise.
pub(crate) fn build_core(
    sharded: bool,
    regs: &[(String, String, u8)],
    registry: Option<&Arc<Registry>>,
) -> Result<ShardedSession, DurableError> {
    if sharded {
        if regs.is_empty() {
            // A sealed plan over no query has no shard to commit on.
            return Err(DurableError::Recovery(
                "sharded log carries no registration".into(),
            ));
        }
        let mut builder = ShardedSessionBuilder::new();
        for (name, src, choice) in regs {
            builder.register_with(name, src, decode_choice(*choice)?)?;
        }
        if let Some(r) = registry {
            builder.share_registry(Arc::clone(r));
        }
        Ok(builder.build()?)
    } else {
        let mut session = Session::new();
        if let Some(r) = registry {
            session.share_registry(Arc::clone(r));
        }
        for (name, src, choice) in regs {
            session.register_with(name, src, decode_choice(*choice)?)?;
        }
        Ok(ShardedSession::open_one_shard(session))
    }
}

/// Loads a decoded checkpoint body's tuples into a freshly built core,
/// batched per relation, with schema/arity cross-checks.
pub(crate) fn load_ckpt_tuples(core: &ShardedSession, body: &CkptBody) -> Result<(), DurableError> {
    let schema = core.read_at(0, |s| s.schema().clone())?;
    if body.rels.len() != schema.len() {
        return Err(DurableError::Recovery(format!(
            "checkpoint has {} relations, schema has {}",
            body.rels.len(),
            schema.len()
        )));
    }
    for (idx, (arity, tuples)) in body.rels.iter().enumerate() {
        let rel = RelId(idx as u32);
        if *arity != schema.arity(rel) {
            return Err(DurableError::Recovery(format!(
                "checkpoint arity mismatch on relation {idx}"
            )));
        }
        for chunk in tuples.chunks(REPLAY_CHUNK) {
            let batch: Vec<Update> = chunk
                .iter()
                .map(|t| Update::Insert(rel, t.clone()))
                .collect();
            replay_batch(core, &batch)?;
        }
    }
    Ok(())
}

pub(crate) fn replay_batch(core: &ShardedSession, batch: &[Update]) -> Result<(), DurableError> {
    core.apply_batch(batch)
        .map_err(|e| DurableError::Recovery(format!("log replay failed: {e}")))?;
    Ok(())
}

pub(crate) fn flush_pending(
    core: &ShardedSession,
    pending: &mut Vec<Update>,
) -> Result<(), DurableError> {
    for chunk in pending.chunks(REPLAY_CHUNK) {
        replay_batch(core, chunk)?;
    }
    pending.clear();
    Ok(())
}

/// The handle a durable transaction closure writes through: forwards to
/// the core's transaction and records each effective update so the
/// commit hook can frame and log them.
pub struct DurableTransaction<'a, 'b> {
    inner: &'b mut ShardedTransaction<'a>,
    logged: Vec<Update>,
}

impl DurableTransaction<'_, '_> {
    /// Validates and applies one update inside the transaction; returns
    /// `true` iff it was effective. Errors leave the transaction open.
    pub fn apply(&mut self, update: &Update) -> Result<bool, CqError> {
        let changed = self.inner.apply(update)?;
        if changed {
            self.logged.push(update.clone());
        }
        Ok(changed)
    }

    /// Applies a batch; returns how many members were effective.
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<usize, CqError> {
        let mut applied = 0;
        for u in updates {
            if self.apply(u)? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Effective updates so far across the whole transaction.
    pub fn effective_len(&self) -> usize {
        self.logged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A body with no registrations and the given raw relation entries
    /// (`arity`, claimed `count`, tuple words actually present).
    fn body(n_regs: u32, rels: &[(u16, u64, &[u64])]) -> Vec<u8> {
        let mut out = vec![0u8];
        out.extend_from_slice(&n_regs.to_le_bytes());
        out.extend_from_slice(&(rels.len() as u32).to_le_bytes());
        for (arity, count, words) in rels {
            out.extend_from_slice(&arity.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            for w in *words {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    fn refused(bytes: &[u8]) -> String {
        match decode_ckpt_body(bytes) {
            Err(DurableError::Recovery(msg)) => msg,
            Err(other) => panic!("expected a recovery error, got {other}"),
            Ok(_) => panic!("hostile body decoded"),
        }
    }

    /// Length fields arrive raw off disk or the replication socket: an
    /// inflated one must be refused before it sizes an allocation
    /// (capacity overflow / OOM) or a loop (a nullary relation's tuples
    /// take no bytes, so nothing else would stop it).
    #[test]
    fn inflated_counts_and_truncation_are_refused_not_allocated() {
        // The honest shapes decode.
        let ok = decode_ckpt_body(&body(0, &[(2, 2, &[1, 2, 3, 4]), (0, 1, &[])])).unwrap();
        assert_eq!(ok.rels[0], (2, vec![vec![1, 2], vec![3, 4]]));
        assert_eq!(ok.rels[1], (0, vec![vec![]]));

        assert!(refused(&body(u32::MAX, &[])).contains("count"));
        let mut many_rels = body(0, &[]);
        many_rels.truncate(5);
        many_rels.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(refused(&many_rels).contains("count"));
        assert!(refused(&body(0, &[(2, u64::MAX, &[1, 2])])).contains("count"));
        assert!(refused(&body(0, &[(2, 2, &[1, 2, 3])])).contains("count"));
        assert!(refused(&body(0, &[(0, 1 << 40, &[])])).contains("nullary"));

        // A real body cut anywhere short of its end is an error too.
        let mut schema = Schema::new();
        let r = schema.intern("R", 2).unwrap();
        let regs = vec![("q".to_string(), "Q(x) :- R(x, y).".to_string(), 0u8)];
        let full = encode_ckpt_body(false, &regs, &schema, |rel| {
            assert_eq!(rel, r);
            vec![vec![1, 2], vec![3, 4]]
        });
        assert_eq!(decode_ckpt_body(&full).unwrap().regs, regs);
        for cut in 0..full.len() {
            refused(&full[..cut]);
        }
    }
}
