//! The log-replay machine: the one interpreter of [`Rec`] streams.
//!
//! The paper's preprocessing phase is "start empty, perform the
//! updates"; this module runs it from a log. A [`Replay`] is
//! bootstrapped from an optional checkpoint, fed records by value, and
//! settled; crash recovery ([`crate::DurableSession::recover`]) feeds it
//! the directory scan in one call, a follower
//! ([`crate::replica::ReplicaSession`]) feeds it the leader's stream
//! frame by frame. Both get the same rules:
//!
//! * a `Mode` record must agree with the mode the machine was
//!   bootstrapped in;
//! * `Register` is idempotent by name (catch-up overlap, stale segments)
//!   and flushes what came before, so relation ids intern in log order;
//!   a sealed plan builds once, after its last registration;
//! * plain updates at or below the cursor are skipped, the rest buffer
//!   into runs of consecutive seqs and apply one batch per run;
//! * a `TxBegin … TxCommit` group is one batch — a committed transaction
//!   reached the engines as one, so it replays as one — skipped whole
//!   when its commit seq is at or below the cursor and dropped when its
//!   commit record never arrives;
//! * `SeqBurn` moves the counter past numbers a rollback consumed;
//! * every run, group and burn must land the core's seq counter on the
//!   log's own stamp. The counter is forced only across a real jump
//!   (after a checkpoint load, a burn, a gap), never papered over
//!   afterwards.
//!
//! Replay positions the counter and publishes no epoch
//! ([`Session::force_seq`]): whoever reads the core next publishes what
//! it looks at (a locked read, or acquiring a `PinReader`), and a
//! replica's applier keeps held readers fresh from there.
//!
//! The checkpoint body codec lives here with its one reader, as does the
//! choice of the core's form ([`build_core`]).

use crate::durable::DurableError;
use crate::error::CqError;
use crate::session::{EngineChoice, Session};
use crate::shard::{ShardedSession, ShardedSessionBuilder};
use cqu_baseline::EngineKind;
use cqu_obs::Registry;
use cqu_query::{RelId, Schema};
use cqu_storage::{Tuple, Update};
use cqu_wal::{put_str32, Cursor, Rec};
use std::sync::Arc;

/// Batch size for checkpoint loading and log replay (bounds peak
/// allocation without changing semantics — batches apply in order).
const REPLAY_CHUNK: usize = 16_384;

/// A registration as logged and checkpointed: name, source, encoded
/// engine choice.
pub(crate) type Reg = (String, String, u8);

/// Engine choices in the order of their logged byte. Bytes 2 and 4
/// named engines the session no longer routes to; they keep their place
/// so every other byte means what it always meant.
const CHOICES: [Result<EngineChoice, &str>; 5] = [
    Ok(EngineChoice::Auto),
    Ok(EngineChoice::Forced(EngineKind::QHierarchical)),
    Err("recompute"),
    Ok(EngineChoice::Forced(EngineKind::DeltaIvm)),
    Err("semi-join"),
];

pub(crate) fn encode_choice(choice: EngineChoice) -> u8 {
    CHOICES
        .iter()
        .position(|c| *c == Ok(choice))
        .expect("listed") as u8
}

fn decode_choice(byte: u8) -> Result<EngineChoice, DurableError> {
    match CHOICES.get(usize::from(byte)) {
        Some(Ok(choice)) => Ok(*choice),
        Some(Err(engine)) => Err(refuse(format!(
            "engine choice byte {byte} forces the {engine} engine, which no session \
             routes to any more"
        ))),
        None => Err(refuse(format!("unknown engine choice byte {byte}"))),
    }
}

fn refuse(msg: impl Into<String>) -> DurableError {
    DurableError::Recovery(msg.into())
}

fn replay_failed(e: CqError) -> DurableError {
    refuse(format!("log replay failed: {e}"))
}

/// Decoded checkpoint body.
struct CkptBody {
    sharded: bool,
    regs: Vec<Reg>,
    /// Per relation (in schema order): declared arity and tuples.
    rels: Vec<(usize, Vec<Tuple>)>,
}

/// Checkpoint body layout (the WAL wraps it in magic + seq + CRC):
///
/// ```text
/// u8 sharded
/// u32 n_regs  { u8 choice, u32 name_len, name, u32 src_len, src }*
/// u32 n_rels  { u16 arity, u64 count, count × arity × u64 }*
/// ```
pub(crate) fn encode_ckpt_body(
    sharded: bool,
    regs: &[Reg],
    schema: &Schema,
    mut tuples_of: impl FnMut(RelId) -> Vec<Tuple>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(u8::from(sharded));
    out.extend_from_slice(&(regs.len() as u32).to_le_bytes());
    for (name, src, choice) in regs {
        out.push(*choice);
        put_str32(&mut out, name);
        put_str32(&mut out, src);
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

/// The mode flag of a checkpoint body, for a caller that must know the
/// mode before it can bootstrap.
pub(crate) fn ckpt_mode(body: &[u8]) -> Result<bool, DurableError> {
    match body.first() {
        Some(flag) => Ok(*flag != 0),
        None => Err(refuse("checkpoint body: truncated field")),
    }
}

/// Length fields arrive raw off disk or the replication socket;
/// [`Cursor::count`] checks each before it sizes an allocation or a loop.
fn parse_ckpt_body(body: &[u8]) -> Result<CkptBody, &'static str> {
    let mut r = Cursor(body);
    let sharded = r.u8()? != 0;
    // A registration is a choice byte and two length-prefixed strings.
    let n_regs = r.u32()?;
    let n_regs = r.count(n_regs.into(), 9)?;
    let mut regs = Vec::with_capacity(n_regs);
    for _ in 0..n_regs {
        let choice = r.u8()?;
        let name = r.str32()?;
        let src = r.str32()?;
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
            return Err("nullary relation with more than one tuple");
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
    r.finish()?;
    Ok(CkptBody {
        sharded,
        regs,
        rels,
    })
}

/// Builds a fresh session core from a registration list — shared by
/// creation and replay, which must both reproduce relation ids by
/// registering in the original order. This is the one place that chooses
/// the core's form: a sealed shard plan for sharded logs, the open
/// one-shard form otherwise.
pub(crate) fn build_core(
    sharded: bool,
    regs: &[Reg],
    registry: Option<&Arc<Registry>>,
) -> Result<ShardedSession, DurableError> {
    if sharded {
        if regs.is_empty() {
            // A sealed plan over no query has no shard to commit on.
            return Err(refuse("sharded log carries no registration"));
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

/// Loads a decoded checkpoint's tuples into a freshly built core, in
/// [`REPLAY_CHUNK`] batches per relation, with schema/arity cross-checks.
fn load_ckpt_tuples(
    core: &ShardedSession,
    rels: Vec<(usize, Vec<Tuple>)>,
) -> Result<(), DurableError> {
    let schema = core.read_at(0, |s| s.schema().clone())?;
    if rels.len() != schema.len() {
        return Err(refuse(format!(
            "checkpoint has {} relations, schema has {}",
            rels.len(),
            schema.len()
        )));
    }
    for (idx, (arity, tuples)) in rels.into_iter().enumerate() {
        let rel = RelId(idx as u32);
        if arity != schema.arity(rel) {
            return Err(refuse(format!(
                "checkpoint arity mismatch on relation {idx}"
            )));
        }
        let mut tuples = tuples.into_iter().map(|t| Update::Insert(rel, t));
        loop {
            let batch: Vec<Update> = tuples.by_ref().take(REPLAY_CHUNK).collect();
            if batch.is_empty() {
                break;
            }
            core.apply_batch(&batch).map_err(replay_failed)?;
        }
    }
    Ok(())
}

/// Updates with consecutive seqs collected off the stream: a run of
/// plain updates awaiting a flush, or an open transaction group.
struct SeqRun {
    first_seq: u64,
    updates: Vec<Update>,
}

/// See the [module docs](self).
pub(crate) struct Replay {
    sharded: bool,
    /// Delta-retention ring enabled on every query of a core built here
    /// (a replica's; `0` for recovery, whose session starts unobserved).
    ring_cap: usize,
    /// Registry shared into every core built here.
    registry: Option<Arc<Registry>>,
    /// Registrations in log order.
    regs: Vec<Reg>,
    /// `None` only while a sealed plan waits for its `Register` records:
    /// it needs the full query set before it can build.
    core: Option<ShardedSession>,
    /// Buffered plain updates awaiting a flush, one entry per maximal
    /// run of consecutive seqs. Empty between [`Replay::feed`] calls.
    pending: Vec<SeqRun>,
    /// An open `TxBegin … TxCommit` group (may span `feed` calls).
    tx: Option<SeqRun>,
    /// Applied watermark: every seq ≤ cursor is fully applied, and the
    /// core's counter, once built, sits exactly here.
    cursor: u64,
}

impl Replay {
    /// Starts a replay in the given mode from `checkpoint` (`(seq, body
    /// bytes)`), or from the empty database at seq 0.
    pub(crate) fn bootstrap(
        sharded: bool,
        checkpoint: Option<(u64, Vec<u8>)>,
        ring_cap: usize,
        registry: Option<Arc<Registry>>,
    ) -> Result<Replay, DurableError> {
        let mut replay = Replay {
            sharded,
            ring_cap,
            registry,
            regs: Vec::new(),
            core: None,
            pending: Vec::new(),
            tx: None,
            cursor: 0,
        };
        match checkpoint {
            Some((seq, bytes)) => {
                let body = parse_ckpt_body(&bytes)
                    .map_err(|what| refuse(format!("checkpoint body: {what}")))?;
                if body.sharded != sharded {
                    return Err(refuse("checkpoint mode disagrees with the log's"));
                }
                replay.regs = body.regs;
                let core = build_core(sharded, &replay.regs, replay.registry.as_ref())?;
                // The load draws one seq per tuple from zero; `adopt`
                // forces the counter onto the checkpoint's seq.
                load_ckpt_tuples(&core, body.rels)?;
                replay.cursor = seq;
                replay.adopt(core)?;
            }
            // The open one-shard form can build empty right away; a
            // sealed plan must wait for its Register records.
            None if !sharded => {
                replay.settle()?;
            }
            None => {}
        }
        Ok(replay)
    }

    /// Takes a fresh core: its counter is forced to the cursor unless it
    /// sits there already, and only then is retention turned on, since a
    /// checkpoint load is not history a subscriber may replay.
    fn adopt(&mut self, core: ShardedSession) -> Result<(), DurableError> {
        if core.seq() != self.cursor {
            core.force_seq(self.cursor)?;
        }
        if self.ring_cap > 0 {
            core.retain_all(self.ring_cap)?;
        }
        self.core = Some(core);
        Ok(())
    }

    /// The core, built now from the registrations in hand if a sealed
    /// plan still owes it. Call it where the stream is known complete
    /// (the whole directory scan; a heartbeat after catch-up) for a log
    /// of registrations alone. A group left open stays unapplied,
    /// exactly as it was never visible.
    pub(crate) fn settle(&mut self) -> Result<&ShardedSession, DurableError> {
        if self.core.is_none() {
            let core = build_core(self.sharded, &self.regs, self.registry.as_ref())?;
            self.adopt(core)?;
        }
        Ok(self.core.as_ref().expect("just built"))
    }

    /// Applies one run of plain updates (`group_end: None`) or one
    /// committed group where its stamps say. The counter is positioned
    /// just below the first stamp: in steady state it already sits there
    /// and nothing is called; only a gap in the stream calls
    /// [`ShardedSession::force_seq`], and it never moves back. Then the
    /// landing check: every update the log carries was effective when
    /// logged, so replaying it must draw exactly its stamps, or the
    /// state has diverged from the log's.
    fn apply_stamped(&mut self, run: SeqRun, group_end: Option<u64>) -> Result<(), DurableError> {
        let first = run.first_seq;
        let below = first
            .checked_sub(1)
            .ok_or_else(|| refuse("stream carries seq 0; seqs start at 1"))?;
        let core = self.settle()?;
        let now = core.seq();
        if now > below {
            return Err(refuse(format!(
                "replay diverged: stamps restart at seq {first}, core already at {now}"
            )));
        }
        if now < below {
            core.force_seq(below)?;
        }
        let last = match group_end {
            // One batch, unchunked: a single published event per query,
            // as when the transaction committed.
            Some(last) => {
                core.apply_batch(&run.updates).map_err(replay_failed)?;
                last
            }
            None => {
                for chunk in run.updates.chunks(REPLAY_CHUNK) {
                    core.apply_batch(chunk).map_err(replay_failed)?;
                }
                below + run.updates.len() as u64
            }
        };
        let now = core.seq();
        if now != last {
            return Err(refuse(format!(
                "replay diverged: log stamps end at seq {last}, core landed on {now}"
            )));
        }
        self.cursor = last;
        Ok(())
    }

    /// Applies the buffered plain updates, one batch-apply per run.
    fn flush(&mut self) -> Result<(), DurableError> {
        for run in std::mem::take(&mut self.pending) {
            self.apply_stamped(run, None)?;
        }
        Ok(())
    }

    /// Interprets `recs` in order and applies everything they complete.
    /// An error leaves the machine unusable: bootstrap a new one.
    pub(crate) fn feed(&mut self, recs: Vec<Rec>) -> Result<(), DurableError> {
        for rec in recs {
            match rec {
                Rec::Mode { sharded } => {
                    if sharded != self.sharded {
                        return Err(refuse("mode record disagrees with the log's mode"));
                    }
                }
                Rec::Register { name, src, choice } => {
                    if self.regs.iter().any(|(n, _, _)| *n == name) {
                        continue;
                    }
                    self.flush()?;
                    if !self.sharded {
                        let engine = decode_choice(choice)?;
                        let ring_cap = self.ring_cap;
                        self.settle()?.write_at(0, |s| -> Result<(), CqError> {
                            let id = s.register_with(&name, &src, engine)?;
                            if ring_cap > 0 {
                                s.handle(id).retain_deltas(ring_cap);
                            }
                            Ok(())
                        })??;
                    } else if self.core.is_some() {
                        return Err(refuse("late registration on a sealed shard plan"));
                    }
                    self.regs.push((name, src, choice));
                }
                Rec::Update {
                    seq,
                    insert,
                    rel,
                    tuple,
                    ..
                } => {
                    let u = if insert {
                        Update::Insert(RelId(rel), tuple)
                    } else {
                        Update::Delete(RelId(rel), tuple)
                    };
                    match &mut self.tx {
                        // Group members are filtered by the commit seq,
                        // not per update: groups apply whole or not at
                        // all.
                        Some(g) => g.updates.push(u),
                        None if seq <= self.cursor => {}
                        None => match self.pending.last_mut() {
                            Some(run) if run.first_seq + run.updates.len() as u64 == seq => {
                                run.updates.push(u)
                            }
                            _ => self.pending.push(SeqRun {
                                first_seq: seq,
                                updates: vec![u],
                            }),
                        },
                    }
                }
                Rec::TxBegin { first_seq } => {
                    if self.tx.is_some() {
                        return Err(refuse("transaction begin inside an open transaction"));
                    }
                    self.flush()?;
                    self.tx = Some(SeqRun {
                        first_seq,
                        updates: Vec::new(),
                    });
                }
                Rec::TxCommit { last_seq } => {
                    let Some(g) = self.tx.take() else {
                        return Err(refuse("transaction commit without begin"));
                    };
                    if last_seq <= self.cursor {
                        continue;
                    }
                    self.apply_stamped(g, Some(last_seq))?;
                }
                Rec::SeqBurn { upto } => {
                    if self.tx.is_some() {
                        return Err(refuse("seq burn inside an open transaction"));
                    }
                    if upto > self.cursor {
                        self.flush()?;
                        self.settle()?.force_seq(upto)?;
                        self.cursor = upto;
                    }
                }
            }
        }
        self.flush()
    }

    /// Drops an open transaction group (the connection carrying it died);
    /// everything applied stays, and the cursor covers only that.
    pub(crate) fn drop_open_group(&mut self) {
        self.tx = None;
    }

    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    pub(crate) fn regs(&self) -> &[Reg] {
        &self.regs
    }

    pub(crate) fn core(&self) -> Option<&ShardedSession> {
        self.core.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns `E` as relation 0 and `T` as relation 1.
    const SRC: &str = "Q(x, y) :- E(x, y), T(y).";

    fn reg(name: &str) -> Rec {
        Rec::Register {
            name: name.into(),
            src: SRC.into(),
            choice: 0,
        }
    }

    fn update(seq: u64, insert: bool, rel: u32, tuple: &[u64]) -> Rec {
        Rec::Update {
            seq,
            shard: 0,
            insert,
            rel,
            tuple: tuple.to_vec(),
        }
    }

    fn e(seq: u64, x: u64, y: u64) -> Rec {
        update(seq, true, 0, &[x, y])
    }

    fn t(seq: u64, y: u64) -> Rec {
        update(seq, true, 1, &[y])
    }

    fn boot(sharded: bool) -> Replay {
        Replay::bootstrap(sharded, None, 0, None).unwrap()
    }

    /// A single-mode machine with `q` registered.
    fn single() -> Replay {
        let mut replay = boot(false);
        replay
            .feed(vec![Rec::Mode { sharded: false }, reg("q")])
            .unwrap();
        replay
    }

    fn rows(replay: &Replay) -> Vec<Vec<u64>> {
        let core = replay.core().expect("core built");
        assert_eq!(core.seq(), replay.cursor(), "counter sits at the cursor");
        core.snapshot("q").unwrap().results_sorted()
    }

    fn refusal<T>(res: Result<T, DurableError>) -> String {
        match res {
            Err(DurableError::Recovery(msg)) => msg,
            Err(other) => panic!("expected a recovery error, got {other}"),
            Ok(_) => panic!("hostile input accepted"),
        }
    }

    #[test]
    fn malformed_streams_are_refused() {
        let cases: Vec<(&str, bool, Vec<Rec>, &str)> = vec![
            (
                "begin inside begin",
                false,
                vec![
                    reg("q"),
                    Rec::TxBegin { first_seq: 1 },
                    Rec::TxBegin { first_seq: 1 },
                ],
                "begin inside an open",
            ),
            (
                "commit without begin",
                false,
                vec![reg("q"), Rec::TxCommit { last_seq: 1 }],
                "commit without",
            ),
            (
                "burn inside group",
                false,
                vec![
                    reg("q"),
                    Rec::TxBegin { first_seq: 1 },
                    Rec::SeqBurn { upto: 3 },
                ],
                "burn inside an open",
            ),
            (
                "conflicting mode",
                false,
                vec![Rec::Mode { sharded: true }],
                "mode record disagrees",
            ),
            (
                "late registration on a sealed plan",
                true,
                vec![Rec::Mode { sharded: true }, reg("q"), t(1, 2), reg("late")],
                "late registration on a sealed shard plan",
            ),
            (
                "seq 0 opening a group",
                false,
                vec![
                    reg("q"),
                    Rec::TxBegin { first_seq: 0 },
                    t(0, 2),
                    Rec::TxCommit { last_seq: 1 },
                ],
                "seq 0",
            ),
            (
                "a duplicated update restarts the stamps",
                false,
                vec![reg("q"), t(1, 2), e(2, 1, 2), e(2, 1, 2), t(3, 9)],
                "replay diverged: stamps restart at seq 2",
            ),
            (
                "a run with an ineffective member lands short",
                false,
                vec![reg("q"), t(1, 2), t(2, 2)],
                "replay diverged: log stamps end at seq 2, core landed on 1",
            ),
            (
                "a group with an ineffective member lands short",
                false,
                vec![
                    reg("q"),
                    Rec::TxBegin { first_seq: 1 },
                    t(1, 2),
                    t(2, 2),
                    Rec::TxCommit { last_seq: 2 },
                ],
                "replay diverged: log stamps end at seq 2, core landed on 1",
            ),
            (
                "an unknown engine choice byte",
                false,
                vec![Rec::Register {
                    name: "q".into(),
                    src: SRC.into(),
                    choice: 9,
                }],
                "unknown engine choice byte 9",
            ),
        ];
        for (what, sharded, recs, want) in cases {
            let res = boot(sharded).feed(recs);
            assert!(res.is_err(), "{what}: accepted");
            let msg = refusal(res);
            assert!(msg.contains(want), "{what}: refused with {msg:?}");
        }
        // A sealed plan with nothing to seal.
        let mut empty = boot(true);
        empty.feed(vec![Rec::Mode { sharded: true }]).unwrap();
        assert!(refusal(empty.settle()).contains("no registration"));
    }

    /// The logged choice byte is a format. 0, 1 and 3 keep their meaning
    /// both ways. 2 and 4 forced recompute and semi-join, which no session
    /// routes to any more: a log record and a checkpoint carrying them are
    /// refused alike, naming the engine. 5 was never written.
    #[test]
    fn choice_bytes_are_golden() {
        for (byte, choice) in [
            (0, EngineChoice::Auto),
            (1, EngineChoice::Forced(EngineKind::QHierarchical)),
            (3, EngineChoice::Forced(EngineKind::DeltaIvm)),
        ] {
            assert_eq!(decode_choice(byte).unwrap(), choice);
            assert_eq!(encode_choice(choice), byte);
        }
        let mut schema = Schema::new();
        schema.intern("E", 2).unwrap();
        schema.intern("T", 1).unwrap();
        for (byte, want) in [(2, "recompute"), (4, "semi-join"), (5, "unknown")] {
            let logged = Rec::Register {
                name: "q".into(),
                src: SRC.into(),
                choice: byte,
            };
            let msg = refusal(boot(false).feed(vec![logged]));
            assert!(msg.contains(want), "logged byte {byte}: {msg:?}");
            let regs = [("q".to_string(), SRC.to_string(), byte)];
            let body = encode_ckpt_body(false, &regs, &schema, |_| Vec::new());
            let msg = refusal(Replay::bootstrap(false, Some((0, body)), 0, None).map(|_| ()));
            assert!(msg.contains(want), "checkpointed byte {byte}: {msg:?}");
        }
    }

    #[test]
    fn duplicate_ddl_by_name_is_skipped() {
        let mut replay = single();
        replay
            .feed(vec![t(1, 2), reg("q"), e(2, 1, 2), reg("q")])
            .unwrap();
        assert_eq!(replay.regs().len(), 1);
        assert_eq!(replay.cursor(), 2);
        assert_eq!(rows(&replay), vec![vec![1, 2]]);
    }

    /// A gap forces the counter across it, once, and positioning
    /// publishes nothing: the first epoch after the bootstrap is the one
    /// a reader asks for, stamped where the counter was forced to.
    #[test]
    fn a_gap_forces_the_counter_once() {
        let registry = Arc::new(Registry::new());
        let mut replay = Replay::bootstrap(false, None, 0, Some(Arc::clone(&registry))).unwrap();
        replay.feed(vec![reg("q"), t(1, 2), e(2, 1, 2)]).unwrap();
        let publications = registry.counter("session_epoch_publications_total");
        let before = publications.get();
        replay.feed(vec![e(3, 3, 2)]).unwrap();
        // Seqs 4..=6 never reached the log (a burn that failed to land).
        replay.feed(vec![e(7, 4, 2), e(8, 5, 2)]).unwrap();
        assert_eq!(replay.core().unwrap().seq(), 8, "forced over the gap");
        replay
            .feed(vec![e(9, 6, 2), Rec::SeqBurn { upto: 12 }])
            .unwrap();
        assert_eq!(publications.get(), before, "replay publishes nothing");
        assert_eq!(replay.cursor(), 12);
        assert_eq!(rows(&replay).len(), 5);
        assert_eq!(publications.get(), before + 1, "the locked read did");
        assert_eq!(replay.core().unwrap().snapshot("q").unwrap().seq(), 12);
    }

    #[test]
    fn runs_and_groups_at_or_below_the_cursor_are_skipped_whole() {
        let mut replay = single();
        replay.feed(vec![Rec::SeqBurn { upto: 5 }]).unwrap();
        assert_eq!(replay.cursor(), 5);
        replay
            .feed(vec![
                t(0, 2),
                t(2, 2),
                e(3, 1, 2),
                Rec::TxBegin { first_seq: 4 },
                t(4, 7),
                e(5, 1, 7),
                Rec::TxCommit { last_seq: 5 },
                Rec::SeqBurn { upto: 4 },
            ])
            .unwrap();
        assert_eq!(replay.cursor(), 5);
        assert!(rows(&replay).is_empty());
        // The first stamp past the cursor applies.
        replay.feed(vec![t(5, 2), t(6, 2), e(7, 1, 2)]).unwrap();
        assert_eq!(replay.cursor(), 7);
        assert_eq!(rows(&replay), vec![vec![1, 2]]);
    }

    #[test]
    fn a_group_may_span_feeds_and_applies_only_at_its_commit() {
        let mut replay = single();
        replay
            .feed(vec![Rec::TxBegin { first_seq: 1 }, t(1, 2)])
            .unwrap();
        assert_eq!(replay.cursor(), 0, "an open group is invisible");
        assert!(rows(&replay).is_empty());
        replay
            .feed(vec![e(2, 1, 2), Rec::TxCommit { last_seq: 2 }])
            .unwrap();
        assert_eq!(replay.cursor(), 2);
        assert_eq!(rows(&replay), vec![vec![1, 2]]);

        // A group whose carrier died is dropped, then shipped again whole.
        replay
            .feed(vec![Rec::TxBegin { first_seq: 3 }, e(3, 5, 2)])
            .unwrap();
        replay.drop_open_group();
        replay
            .feed(vec![
                Rec::TxBegin { first_seq: 3 },
                e(3, 5, 2),
                Rec::TxCommit { last_seq: 3 },
            ])
            .unwrap();
        assert_eq!(replay.cursor(), 3);
        assert_eq!(rows(&replay), vec![vec![1, 2], vec![5, 2]]);
    }

    #[test]
    fn a_sealed_plan_builds_at_its_first_update_or_at_settle() {
        let mut replay = boot(true);
        replay
            .feed(vec![Rec::Mode { sharded: true }, reg("q")])
            .unwrap();
        assert!(replay.core().is_none(), "registrations may still follow");
        assert!(!replay.settle().unwrap().is_open());
        assert_eq!(replay.cursor(), 0);
        assert!(rows(&replay).is_empty());

        let mut replay = boot(true);
        replay
            .feed(vec![
                Rec::Mode { sharded: true },
                reg("q"),
                t(1, 2),
                e(2, 1, 2),
            ])
            .unwrap();
        assert_eq!(replay.cursor(), 2);
        assert_eq!(rows(&replay), vec![vec![1, 2]]);
    }

    #[test]
    fn a_checkpoint_bootstraps_the_state_and_the_counter() {
        let mut schema = Schema::new();
        let rel_e = schema.intern("E", 2).unwrap();
        schema.intern("T", 1).unwrap();
        let regs = vec![("q".to_string(), SRC.to_string(), 0u8)];
        let body = encode_ckpt_body(false, &regs, &schema, |rel| {
            if rel == rel_e {
                vec![vec![1, 2]]
            } else {
                vec![vec![2]]
            }
        });
        assert!(!ckpt_mode(&body).unwrap());
        assert!(refusal(ckpt_mode(&[])).contains("truncated"));
        let msg = refusal(Replay::bootstrap(true, Some((7, body.clone())), 0, None).map(|_| ()));
        assert!(msg.contains("checkpoint mode disagrees"), "{msg}");

        // A seq below the tuple count cannot come from a real history;
        // the counter still ends on it, forced.
        let odd = Replay::bootstrap(false, Some((1, body.clone())), 0, None).unwrap();
        assert_eq!(rows(&odd), vec![vec![1, 2]]);

        let mut replay = Replay::bootstrap(false, Some((7, body)), 0, None).unwrap();
        assert_eq!(replay.cursor(), 7);
        assert_eq!(replay.regs(), &regs[..]);
        assert_eq!(rows(&replay), vec![vec![1, 2]]);
        // A stale segment's records are covered; the tail continues at 8.
        replay.feed(vec![reg("q"), e(7, 9, 2), e(8, 3, 2)]).unwrap();
        assert_eq!(replay.cursor(), 8);
        assert_eq!(rows(&replay), vec![vec![1, 2], vec![3, 2]]);
    }

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

    fn refused(bytes: &[u8]) -> &'static str {
        parse_ckpt_body(bytes).err().expect("hostile body decoded")
    }

    /// Length fields arrive raw off disk or the replication socket: an
    /// inflated one must be refused before it sizes an allocation
    /// (capacity overflow / OOM) or a loop (a nullary relation's tuples
    /// take no bytes, so nothing else would stop it).
    #[test]
    fn inflated_counts_and_truncation_are_refused_not_allocated() {
        // The honest shapes decode.
        let ok = parse_ckpt_body(&body(0, &[(2, 2, &[1, 2, 3, 4]), (0, 1, &[])])).unwrap();
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
        assert_eq!(parse_ckpt_body(&full).unwrap().regs, regs);
        for cut in 0..full.len() {
            refused(&full[..cut]);
        }
    }
}
