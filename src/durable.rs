//! Durable sessions: the WAL-backed deployment of the concurrent
//! session core ([`ShardedSession`], or its one-shard face
//! [`SharedSession`]). This module is the **write path**; reading a log
//! back is the crate's one replay machine (`src/replay.rs`), which
//! [`DurableSession::recover`] feeds from a directory scan and a replica
//! feeds from a socket.
//!
//! A [`DurableSession`] routes every mutation through a write-ahead log
//! (`cqu-wal`) with **log-before-publish** discipline: the effective
//! updates of a commit — with their global sequence numbers — are
//! framed, appended, and (per [`FsyncPolicy`]) fsynced *before* the
//! in-memory session publishes epochs or subscriber events. A crash at
//! any instant therefore loses only work that no reader or subscriber
//! could have observed, and recovery rebuilds exactly
//! `timeline[last durable seq]`.
//!
//! ## What is logged
//!
//! * a `Mode` record opening every fresh log: whether the query set is
//!   open (single mode — the core's one-shard form, DDL may follow at
//!   any time) or sealed into a shard plan at creation,
//! * `Register` records — durable DDL, in the order that fixes the
//!   schema's relation ids and, for sealed plans, the shard plan,
//! * one `Update` record per *effective* update (no-ops draw no seq and
//!   take no disk space), stamped with seq and owning shard,
//! * `TxBegin`/`TxCommit` framing around transactions: all or nothing,
//! * `SeqBurn` compensation for rollbacks: a rolled-back transaction
//!   burns its sequence numbers in memory (undoing `D` draws none), so
//!   the log records the post-burn counter and a burned number is never
//!   reissued to a subscriber cursor.
//!
//! ## One commit path
//!
//! Plain applies and batches are logged *before* they touch the session,
//! so their seqs are predicted: under the WAL lock (which serializes
//! every durable commit) the session's counter is stable, and
//! effectiveness is decided once, by the set-semantics rule the session
//! itself uses ([`cqu_dynamic::net_effective`]) reading presence through
//! shard read guards. The records are then appended, committed and
//! shipped with no session lock held (locked readers never wait on an
//! fsync), and only then does the netted batch apply, as netted.
//! Transactions cannot be predicted (the closure is opaque), so they
//! change `D` first — no engine sees a member before its transaction
//! commits — and log the core transaction's own effective log inside the
//! commit window, before the net batch reaches any engine or event; the
//! durable layer keeps no log of its own. DDL stages its fallible half,
//! commits the record to the log, then commits the infallible half to
//! the session, so the in-memory schema never runs ahead of the log.
//!
//! Durable writes serialize through the WAL lock whatever the shard
//! count (one log is one total order); sharding still buys parallel
//! *reads* and feed fan-out. All mutations must go through the
//! `DurableSession` — writing through an escape-hatch handle bypasses
//! the log and forfeits every guarantee here.

use crate::error::CqError;
use crate::replay::{build_core, ckpt_mode, encode_choice, encode_ckpt_body, Reg, Replay};
use crate::session::{validate_update, EngineChoice, QueryId, QuerySnapshot, SharedSession};
use crate::shard::{ShardedSession, ShardedTransaction};
use cqu_dynamic::{net_effective, UpdateReport};
use cqu_obs::Registry;
use cqu_query::{parse_query, RelId};
use cqu_storage::Update;
use cqu_wal::{epoch, FsDir, FsyncPolicy, Rec, Wal, WalDir, WalError, WalOptions};
use std::path::Path;
use std::sync::{Arc, Mutex};

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
    regs: Vec<Reg>,
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

/// Builds one `Update` record per entry of `effective`, stamped
/// `seq0+1..` — the commit path appends them to the log and then ships
/// the same values to any attached replication queues.
fn update_recs<'u>(
    core: &ShardedSession,
    seq0: u64,
    effective: impl IntoIterator<Item = &'u Update>,
) -> Vec<Rec> {
    effective
        .into_iter()
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

/// Attaches the options' registry, if any, to a freshly opened log
/// writer — the step every constructor shares.
fn instrument(mut wal: Wal, opts: &DurableOptions) -> Wal {
    if let Some(r) = &opts.registry {
        wal.attach_registry(Arc::clone(r));
    }
    wal
}

impl DurableSession {
    fn assemble(wal: Wal, regs: Vec<Reg>, core: ShardedSession, epoch: u64) -> DurableSession {
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
        let regs: Vec<Reg> = regs
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

    /// Rebuilds a session from `dir`: scans the directory (repairing a
    /// torn final segment by truncation, refusing mid-log corruption
    /// with a typed error), decides the mode, and replays the newest
    /// valid checkpoint plus the log tail through the replay machine,
    /// which refuses a log that does not land on its own seq stamps.
    /// The recovered state is exactly `timeline[last durable seq]`, and
    /// the sequence counter resumes from that seq — subscriber cursors
    /// from the previous life stay meaningful.
    pub fn recover(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        let scan = cqu_wal::recover(&*dir)?;
        let sharded = match (&scan.checkpoint, scan.records.first()) {
            (Some((_, body)), _) => ckpt_mode(body)?,
            (None, Some(Rec::Mode { sharded })) => *sharded,
            (None, Some(_)) => {
                return Err(DurableError::Recovery(
                    "log does not begin with a mode record".into(),
                ))
            }
            (None, None) => {
                return Err(DurableError::Recovery(
                    "no durable state found in directory".into(),
                ))
            }
        };
        // Recovery passes no ring capacity: nobody can hold a cursor
        // into a session that is not built yet.
        let mut replay = Replay::bootstrap(sharded, scan.checkpoint, 0, opts.registry.clone())?;
        replay.feed(scan.records)?;
        let core = replay.settle()?.clone();
        let regs = replay.regs().to_vec();

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
        regs: Vec<Reg>,
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
        // Validate, then decide effectiveness once for log and session
        // alike, against one consistent cut (read guards on every shard;
        // every shard session carries the full schema). The guards drop
        // before the log is touched; the WAL lock keeps the cut current.
        let netted = core.read_all(|shards| {
            for u in updates {
                validate_update(shards[0].schema(), u)?;
            }
            Ok::<_, CqError>(net_effective(updates, |rel, t| {
                shards[core.route(rel)].database().relation(rel).contains(t)
            }))
        })??;
        if netted.effective.is_empty() {
            return Ok(UpdateReport {
                total: updates.len(),
                applied: 0,
            });
        }
        let seq0 = core.seq();
        let head = seq0 + netted.effective.len() as u64;
        let recs = update_recs(core, seq0, netted.effective.iter().map(|&i| &updates[i]));
        for rec in &recs {
            st.wal.append(rec);
        }
        st.wal.commit()?;
        ship(st, head, &recs);
        // The log stamps the batch in submission order; a multi-shard
        // batch stamps every shard it changes with `head`, where each
        // holds the timeline's state on its own relations.
        let report = core.commit_batch(updates, Some(netted))?;
        debug_assert_eq!(core.seq(), head);
        Ok(report)
    }

    /// Runs `f` inside a durable all-or-nothing transaction. On `Ok`,
    /// the core transaction's effective log is framed
    /// `TxBegin … TxCommit`, logged, and synced per policy *before* the
    /// transaction commits to the engines and publishes events; a crash
    /// before the commit record lands replays nothing. On `Err` (or a
    /// log failure), the core transaction rolls back — only `D` is
    /// undone, no engine saw it — and a `SeqBurn` compensation record
    /// keeps the on-disk seq budget aligned with the burned in-memory
    /// numbers.
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
        f: impl FnOnce(&mut ShardedTransaction<'_>) -> Result<R, CqError>,
    ) -> Result<R, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let st = &mut *st;
        let core = &self.core;
        let seq0 = core.seq();
        let mut burn: u64 = 0;
        let res = core.transaction_generic(|tx| -> Result<R, DurableError> {
            let res = f(tx);
            let n = tx.effective_len() as u64;
            // Armed until the log lands: the driver rolls back on error
            // and the burn record is written below.
            burn = n;
            let r = res?;
            if n > 0 {
                let mut recs = Vec::with_capacity(tx.effective_len() + 2);
                recs.push(Rec::TxBegin {
                    first_seq: seq0 + 1,
                });
                recs.extend(update_recs(core, seq0, tx.log()));
                recs.push(Rec::TxCommit { last_seq: seq0 + n });
                for rec in &recs {
                    st.wal.append(rec);
                }
                st.wal.commit()?;
                ship(st, seq0 + n, &recs);
            }
            burn = 0;
            Ok(r)
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
    regs: &[Reg],
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
