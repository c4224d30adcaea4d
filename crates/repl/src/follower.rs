//! The follower runtime: a reconnect loop that handshakes, bootstraps
//! or resumes, and feeds decoded records to a [`ReplicaApply`].
//!
//! The network half lives here; the *semantic* half — rebuilding a
//! session from a checkpoint body, applying update records, tracking
//! the applied watermark — is behind the [`ReplicaApply`] trait, which
//! `cq-updates` implements over its session machinery. Keeping the two
//! apart keeps this crate engine-agnostic (and lets protocol tests
//! script a follower against an in-memory applier).
//!
//! The loop's lifecycle:
//!
//! ```text
//! connect ── Hello{epoch, cursor} ──▶ Welcome
//!    ▲            │ reset? ── CkptChunk* ──▶ apply.reset(..)
//!    │            ▼
//!    │        Records / Heartbeat ──▶ apply ──▶ Ack{applied_seq}
//!    │            │ socket error, kick(), leader restart
//!    └── backoff ─┘   (on_disconnect: drop partial state, keep cursor)
//! ```
//!
//! Any stream error tears the connection down and re-enters the
//! handshake with the applier's durable `(epoch, cursor)`; the leader
//! then decides resume vs. re-bootstrap. [`Follower::kick`] forces that
//! path on demand — the fault-injection hook the convergence tests use.

use crate::protocol::{read_frame, DenyReason, Frame, REPL_VERSION};
use cqu_obs::{Counter, Gauge, Registry};
use cqu_wal::Rec;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The state-machine half of a follower: everything the network loop
/// needs from the replica's session layer.
///
/// Methods run on the follower thread; implementations publish applied
/// state to readers however they like (the `cq-updates` glue swaps a
/// backend behind an `RwLock` and bumps an atomic watermark).
pub trait ReplicaApply: Send + 'static {
    /// Starts over from a leader bootstrap: discard local state and
    /// rebuild from `checkpoint` (`None` means the leader ships its
    /// whole log from seq 0). `sharded` is the leader's session mode.
    fn reset(&mut self, sharded: bool, checkpoint: Option<(u64, Vec<u8>)>) -> Result<(), String>;

    /// Applies a decoded record batch (catch-up or live), returning the
    /// new applied watermark. The batch is handed over: the applier
    /// moves tuples out of the records. Records at or below the current
    /// cursor must be skipped — resume boundaries and the attach splice
    /// can replay overlap.
    fn apply_records(&mut self, recs: Vec<Rec>) -> Result<u64, String>;

    /// The durable applied watermark — the resume cursor offered at the
    /// next handshake.
    fn cursor(&self) -> u64;

    /// The leader epoch this replica's state was built against (0 =
    /// never synced; always bootstraps).
    fn epoch(&self) -> u64;

    /// Records the epoch of the leader that accepted the handshake.
    fn set_epoch(&mut self, epoch: u64);

    /// An idle heartbeat carrying the leader's head seq. Returns the
    /// applied watermark to ack (a chance to flush buffered work).
    fn on_heartbeat(&mut self, head_seq: u64) -> Result<u64, String>;

    /// The connection died: drop partial in-flight state (buffered
    /// transactions) but keep everything applied — the cursor must
    /// reflect only completed work.
    fn on_disconnect(&mut self);
}

/// Follower tuning knobs.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Initial backoff between reconnect attempts. Doubles (with
    /// jitter) on each consecutive failure up to
    /// [`reconnect_max`](FollowerConfig::reconnect_max); a successful
    /// handshake resets it.
    pub reconnect: Duration,
    /// Cap on the exponential reconnect backoff. Also the floor a
    /// permanently denied follower retries at (the target may change —
    /// a VIP repointed at a new leader — so retries never fully stop).
    pub reconnect_max: Duration,
    /// Timeout for connect and for each handshake/bootstrap frame.
    pub handshake_timeout: Duration,
    /// If no frame (heartbeats included) arrives for this long, the
    /// connection is presumed dead and re-established. Must exceed the
    /// leader's heartbeat interval. `None` waits forever.
    pub dead_after: Option<Duration>,
    /// Metrics registry the follower publishes `repl_follower_*` series
    /// and journal events (bootstrap, resume, fence) into. `None`
    /// keeps only the built-in [`FollowerStats`] counters.
    pub registry: Option<Arc<Registry>>,
}

impl Default for FollowerConfig {
    fn default() -> FollowerConfig {
        FollowerConfig {
            reconnect: Duration::from_millis(200),
            reconnect_max: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(10),
            dead_after: Some(Duration::from_secs(5)),
            registry: None,
        }
    }
}

/// A point-in-time copy of the follower's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FollowerStats {
    /// Successful handshakes over the follower's lifetime.
    pub connects: u64,
    /// Handshakes that required a bootstrap (reset).
    pub bootstraps: u64,
    /// Handshakes satisfied by cursor resume.
    pub resumes: u64,
    /// Connections lost after a successful handshake.
    pub disconnects: u64,
    /// Whether a connection is currently established.
    pub connected: bool,
    /// The leader's committed head seq as last reported (0 before the
    /// first welcome).
    pub leader_head: u64,
    /// `Deny` handshake refusals received over the follower's lifetime.
    pub denies: u64,
    /// The reason of the most recent *permanent* denial (version
    /// mismatch, stale epoch), cleared by the next successful
    /// handshake. While set, the follower retries only at the backoff
    /// cap — the status API's signal that this endpoint fenced us off.
    pub fenced: Option<DenyReason>,
}

/// Registry handles for the follower's `repl_follower_*` series,
/// resolved once at spawn. The [`FollowerStats`] snapshot reads these
/// same handles — the registry IS the store, there is no shadow copy.
struct FollowerMetrics {
    registry: Option<Arc<Registry>>,
    connects: Arc<Counter>,
    bootstraps: Arc<Counter>,
    resumes: Arc<Counter>,
    disconnects: Arc<Counter>,
    denies: Arc<Counter>,
    /// 0/1: whether a handshaken connection is currently live.
    connected: Arc<Gauge>,
    /// The leader's committed head seq as last reported.
    leader_head: Arc<Gauge>,
    /// The applied watermark last acked back to the leader.
    applied_seq: Arc<Gauge>,
    /// 0 = none, else `DenyReason::to_u8() + 1`. Kept out of the
    /// registry (it encodes an enum, not a quantity).
    fenced: AtomicU64,
}

impl FollowerMetrics {
    fn new(registry: Option<Arc<Registry>>) -> FollowerMetrics {
        // Without a registry the handles are private atomics — same
        // code paths, just not rendered anywhere.
        let r = registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::with_journal_capacity(0)));
        FollowerMetrics {
            connects: r.counter("repl_follower_connects_total"),
            bootstraps: r.counter("repl_follower_bootstraps_total"),
            resumes: r.counter("repl_follower_resumes_total"),
            disconnects: r.counter("repl_follower_disconnects_total"),
            denies: r.counter("repl_follower_denies_total"),
            connected: r.gauge("repl_follower_connected"),
            leader_head: r.gauge("repl_follower_leader_head"),
            applied_seq: r.gauge("repl_follower_applied_seq"),
            fenced: AtomicU64::new(0),
            registry,
        }
    }

    /// Journals a structural event if a registry was supplied.
    fn journal(&self, kind: &'static str, detail: String) {
        if let Some(r) = &self.registry {
            r.journal().record(kind, detail);
        }
    }

    /// Records a permanent denial: metric, fence latch, journal.
    fn fence(&self, reason: DenyReason) {
        self.fenced
            .store(u64::from(reason.to_u8()) + 1, Ordering::Relaxed);
        self.journal("follower_fence", format!("denied permanently: {reason:?}"));
    }
}

struct Shared {
    stop: AtomicBool,
    kick: AtomicBool,
    /// The live socket, for `kick`/`stop` to shut down from outside.
    conn: Mutex<Option<TcpStream>>,
    stats: FollowerMetrics,
}

impl Shared {
    fn sever(&self) {
        if let Some(s) = lock(&self.conn).as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// A running follower: owns the network thread driving a
/// [`ReplicaApply`] (see the module docs). Dropping it stops the
/// thread.
pub struct Follower {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Follower {
    /// Starts the reconnect loop against the leader at `addr`.
    pub fn spawn(
        addr: SocketAddr,
        apply: Box<dyn ReplicaApply>,
        config: FollowerConfig,
    ) -> io::Result<Follower> {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            kick: AtomicBool::new(false),
            conn: Mutex::new(None),
            stats: FollowerMetrics::new(config.registry.clone()),
        });
        let handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cqu-repl-follow".into())
                .spawn(move || follow_loop(addr, apply, config, &shared))?
        };
        Ok(Follower {
            shared,
            handle: Some(handle),
        })
    }

    /// A point-in-time copy of the follower counters — a typed view
    /// over the registry handles. Advisory across fields (each is its
    /// own relaxed load), exact per counter.
    pub fn stats(&self) -> FollowerStats {
        let c = &self.shared.stats;
        FollowerStats {
            connects: c.connects.get(),
            bootstraps: c.bootstraps.get(),
            resumes: c.resumes.get(),
            disconnects: c.disconnects.get(),
            connected: c.connected.get() != 0,
            leader_head: c.leader_head.get(),
            denies: c.denies.get(),
            fenced: match c.fenced.load(Ordering::Relaxed) {
                1 => Some(DenyReason::Other),
                2 => Some(DenyReason::Version),
                3 => Some(DenyReason::AtCapacity),
                4 => Some(DenyReason::StaleEpoch),
                _ => None,
            },
        }
    }

    /// Severs the current connection (if any), forcing a disconnect /
    /// resume cycle — the fault-injection hook for tests.
    pub fn kick(&self) {
        self.shared.kick.store(true, Ordering::SeqCst);
        self.shared.sever();
    }

    /// Stops the network thread and joins it. Idempotent; also runs on
    /// drop.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.sever();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Sleeps `total` in short slices so `stop()` is honored promptly.
fn sleep_interruptibly(shared: &Shared, total: Duration) {
    let slice = Duration::from_millis(20);
    let mut left = total;
    while !left.is_zero() && !shared.stop.load(Ordering::SeqCst) {
        let step = left.min(slice);
        std::thread::sleep(step);
        left -= step;
    }
}

/// Capped exponential reconnect backoff with jitter. The jitter draws
/// from a per-follower LCG so a herd of followers orphaned by one
/// leader restart decorrelates instead of hammering the new leader in
/// lockstep; a successful handshake resets the delay to the floor.
struct Backoff {
    base: Duration,
    cap: Duration,
    current: Duration,
    rng: u64,
}

impl Backoff {
    fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        let cap = cap.max(base);
        Backoff {
            base,
            cap,
            current: base,
            // An LCG ignores a zero seed gracefully but mix one anyway.
            rng: seed | 1,
        }
    }

    /// The delay to sleep after a failure, in `[current/2, current]`;
    /// the undrawn delay then doubles toward the cap.
    fn next(&mut self) -> Duration {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let nanos = self.current.as_nanos() as u64;
        let jitter = if nanos == 0 {
            0
        } else {
            (self.rng >> 16) % (nanos / 2 + 1)
        };
        let drawn = Duration::from_nanos(nanos - jitter);
        self.current = (self.current * 2).min(self.cap);
        drawn
    }

    /// A successful handshake: the next failure starts over at the floor.
    fn reset(&mut self) {
        self.current = self.base;
    }

    /// A permanent denial: skip straight to the cap — retries continue
    /// (the endpoint may be repointed at a new leader) but never hot.
    fn jump_to_cap(&mut self) {
        self.current = self.cap;
    }
}

/// How one connection attempt ended, driving the backoff policy.
enum SessionEnd {
    /// Never completed a handshake (socket error, transient deny).
    Failed,
    /// Handshook and streamed until the connection died.
    Synced,
    /// The leader refused permanently (version mismatch, stale epoch).
    Refused,
}

fn follow_loop(
    addr: SocketAddr,
    mut apply: Box<dyn ReplicaApply>,
    config: FollowerConfig,
    shared: &Shared,
) {
    static SPAWNS: AtomicU64 = AtomicU64::new(0);
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs())
        ^ (u64::from(addr.port()) << 32)
        ^ SPAWNS
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9);
    let mut backoff = Backoff::new(config.reconnect, config.reconnect_max, seed);
    while !shared.stop.load(Ordering::SeqCst) {
        shared.kick.store(false, Ordering::SeqCst);
        let stream = match TcpStream::connect_timeout(&addr, config.handshake_timeout) {
            Ok(s) => s,
            Err(_) => {
                sleep_interruptibly(shared, backoff.next());
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        *lock(&shared.conn) = stream.try_clone().ok();
        let end = run_session(&stream, apply.as_mut(), &config, shared);
        *lock(&shared.conn) = None;
        let _ = stream.shutdown(Shutdown::Both);
        shared.stats.connected.set(0);
        match end {
            SessionEnd::Synced => {
                // Completed a handshake before dying: count the loss
                // and let the applier drop partial in-flight state.
                apply.on_disconnect();
                shared.stats.disconnects.inc();
                backoff.reset();
            }
            SessionEnd::Failed => {}
            SessionEnd::Refused => backoff.jump_to_cap(),
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        sleep_interruptibly(shared, backoff.next());
    }
}

/// Reads the chunked checkpoint transfer that follows a
/// `Welcome { ckpt: true }`. A repeated `first` flag restarts the
/// buffer (a leader would only re-send from the top).
fn read_ckpt(stream: &mut &TcpStream) -> Result<(u64, Vec<u8>), ()> {
    let mut seq = 0u64;
    let mut body: Option<Vec<u8>> = None;
    loop {
        match read_frame(stream) {
            Ok(Frame::CkptChunk {
                seq: s,
                first,
                last,
                bytes,
            }) => {
                match &mut body {
                    Some(buf) if !first => {
                        if s != seq {
                            return Err(()); // interleaved transfers
                        }
                        buf.extend_from_slice(&bytes);
                    }
                    _ if first => {
                        seq = s;
                        body = Some(bytes);
                    }
                    _ => return Err(()), // continuation with no start
                }
                if last {
                    return Ok((seq, body.take().unwrap_or_default()));
                }
            }
            _ => return Err(()),
        }
    }
}

/// One connection's lifetime, handshake through stream error. The
/// returned [`SessionEnd`] tells the reconnect loop whether the loss
/// counts as a disconnect and how to back off.
fn run_session(
    stream: &TcpStream,
    apply: &mut dyn ReplicaApply,
    config: &FollowerConfig,
    shared: &Shared,
) -> SessionEnd {
    let timeout = Some(config.handshake_timeout).filter(|t| !t.is_zero());
    if stream.set_read_timeout(timeout).is_err() {
        return SessionEnd::Failed;
    }
    let mut r = stream;
    let mut w = stream;

    let hello = Frame::Hello {
        version: REPL_VERSION,
        epoch: apply.epoch(),
        cursor: apply.cursor(),
    };
    if w.write_all(&hello.encode()).is_err() {
        return SessionEnd::Failed;
    }
    let (epoch, head_seq, sharded, reset, ckpt) = match read_frame(&mut r) {
        Ok(Frame::Welcome {
            epoch,
            head_seq,
            sharded,
            reset,
            ckpt,
        }) => (epoch, head_seq, sharded, reset, ckpt),
        Ok(Frame::Deny { reason, .. }) => {
            shared.stats.denies.inc();
            if reason.is_permanent() {
                shared.stats.fence(reason);
                return SessionEnd::Refused;
            }
            return SessionEnd::Failed;
        }
        // Malformed or socket error: back off and retry.
        _ => return SessionEnd::Failed,
    };

    // Backstop fence: a leader welcoming us from an epoch *below* the
    // one our state was built against is deposed (it would reset us
    // behind the true leader's history). Refuse its bootstrap even if
    // it never learned to deny us.
    if epoch < apply.epoch() {
        shared.stats.denies.inc();
        shared.stats.fence(DenyReason::StaleEpoch);
        return SessionEnd::Refused;
    }

    if reset {
        let checkpoint = if ckpt {
            match read_ckpt(&mut r) {
                Ok(c) => Some(c),
                Err(()) => return SessionEnd::Failed,
            }
        } else {
            None
        };
        if apply.reset(sharded, checkpoint).is_err() {
            return SessionEnd::Failed;
        }
        shared.stats.bootstraps.inc();
        shared.stats.journal(
            "follower_bootstrap",
            format!("rebuilt from leader epoch {epoch}, head seq {head_seq}"),
        );
    } else {
        shared.stats.resumes.inc();
        shared.stats.journal(
            "follower_resume",
            format!(
                "resumed at cursor {} against leader epoch {epoch}",
                apply.cursor()
            ),
        );
    }
    apply.set_epoch(epoch);
    shared.stats.leader_head.set(head_seq);
    shared.stats.connects.inc();
    shared.stats.connected.set(1);
    // This endpoint accepted us; any earlier fencing no longer holds.
    shared.stats.fenced.store(0, Ordering::Relaxed);

    // Live loop. `dead_after` bounds silence (the leader heartbeats
    // when idle); any timeout or error abandons the whole connection,
    // so a mid-frame timeout can never desync the stream.
    if stream.set_read_timeout(config.dead_after).is_err() {
        return SessionEnd::Synced;
    }
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.kick.load(Ordering::SeqCst) {
            return SessionEnd::Synced;
        }
        let applied = match read_frame(&mut r) {
            Ok(Frame::Records { bytes }) => {
                let recs = match crate::protocol::decode_records(&bytes) {
                    Ok(recs) => recs,
                    Err(_) => return SessionEnd::Synced, // corrupt stream: resync
                };
                match apply.apply_records(recs) {
                    Ok(applied) => applied,
                    Err(_) => return SessionEnd::Synced, // applier asked for a resync
                }
            }
            Ok(Frame::Heartbeat { head_seq }) => {
                shared.stats.leader_head.set(head_seq);
                match apply.on_heartbeat(head_seq) {
                    Ok(applied) => applied,
                    Err(_) => return SessionEnd::Synced,
                }
            }
            Ok(_) => return SessionEnd::Synced, // protocol violation
            Err(_) => return SessionEnd::Synced, // timeout, socket loss, malformed
        };
        shared.stats.applied_seq.set(applied);
        let ack = Frame::Ack {
            applied_seq: applied,
        };
        if w.write_all(&ack.encode()).is_err() {
            return SessionEnd::Synced;
        }
    }
}
