//! Building the program's stacks from a scenario, from the outside:
//! sessions, sharded sessions, durable sessions over a [`MeteredDisk`],
//! and [`Served`] — a leader with a TCP subscriber and a replica, each
//! watched by a benchmark thread that timestamps what arrives.

use crate::affinity::Split;
use crate::disk::MeteredDisk;
use crate::scenario::{Inputs, Scenario};
use cq_updates::prelude::*;
use cq_updates::serve::{Client, Frame, Mirror};
use cq_updates::serving::server::ServerStats;
use cq_updates::serving::ServeConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Chunk size for bulk loads (the program's own replay chunk).
const LOAD_CHUNK: usize = 16_384;
/// How long set-up and drain steps may take before a run gives up.
pub const SYNC_TIMEOUT: Duration = Duration::from_secs(30);
/// Delta-retention ring per served query.
const RING_CAP: usize = 8192;

/// Nanoseconds since the first call in this process: one clock for the
/// writer, the subscriber thread and the replica watcher.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A [`Session`] with the scenario's queries registered (registry shared
/// in first, so per-query series wire up).
pub fn build_session(sc: &Scenario, registry: Option<&Arc<Registry>>) -> Session {
    let mut session = Session::new();
    if let Some(r) = registry {
        session.share_registry(Arc::clone(r));
    }
    for (name, src) in sc.queries {
        session
            .register(name, src)
            .expect("scenario query registers");
    }
    session
}

/// A [`ShardedSession`] with the scenario's queries.
pub fn build_sharded(sc: &Scenario, registry: Option<&Arc<Registry>>) -> ShardedSession {
    let mut b = ShardedSessionBuilder::new();
    for (name, src) in sc.queries {
        b.register(name, src).expect("scenario query registers");
    }
    if let Some(r) = registry {
        b.share_registry(Arc::clone(r));
    }
    b.build().expect("sharded session builds")
}

/// A fresh [`DurableSession`] over `disk` with the scenario's queries —
/// sharded or single as the scenario says.
pub fn build_durable(
    sc: &Scenario,
    disk: &MeteredDisk,
    fsync: FsyncPolicy,
    registry: Option<&Arc<Registry>>,
) -> DurableSession {
    let opts = DurableOptions {
        fsync,
        registry: registry.cloned(),
        ..DurableOptions::default()
    };
    if sc.sharded {
        DurableSession::create_sharded(Box::new(disk.clone()), opts, sc.queries)
            .expect("sharded durable session creates")
    } else {
        let s =
            DurableSession::create(Box::new(disk.clone()), opts).expect("durable session creates");
        for (name, src) in sc.queries {
            s.register(name, src).expect("scenario query registers");
        }
        s
    }
}

/// Bulk-loads `preload` through `apply` in replay-sized chunks.
pub fn load(preload: &[Update], mut apply: impl FnMut(&[Update])) {
    for chunk in preload.chunks(LOAD_CHUNK) {
        apply(chunk);
    }
}

/// Checks that a stack built its union schema the way the script
/// assumes (same relation ids by name).
pub fn assert_schema(inputs: &Inputs, resolve: impl Fn(&str) -> Option<cq_updates::query::RelId>) {
    for rel in inputs.schema.relations() {
        let name = inputs.schema.name(rel);
        assert_eq!(resolve(name), Some(rel), "relation id of {name} drifted");
    }
}

/// An in-process subscription on a durable session's query.
pub fn subscribe(leader: &DurableSession, name: &str) -> Subscription {
    match (leader.shared(), leader.sharded()) {
        (Some(s), _) => s.subscribe(name),
        (_, Some(s)) => s.subscribe(name),
        _ => unreachable!("a durable session has a backend"),
    }
    .expect("followed query exists")
}

/// `(seq, time)` pairs in arrival order: every point at which a
/// consumer's view advanced.
pub type Trajectory = Vec<(u64, u64)>;

/// For each wanted seq (ascending), the time of the first trajectory
/// point whose seq covers it — `None` once the trajectory ends short.
pub fn covered_at(trajectory: &[(u64, u64)], wanted: &[u64]) -> Vec<Option<u64>> {
    let mut at = 0;
    wanted
        .iter()
        .map(|&seq| {
            while at < trajectory.len() && trajectory[at].0 < seq {
                at += 1;
            }
            trajectory.get(at).map(|&(_, t)| t)
        })
        .collect()
}

/// What the TCP subscriber thread saw.
pub struct Subscribed {
    /// One mirror per subscribed query, in scenario order.
    pub mirrors: Vec<(String, Mirror)>,
    /// Arrival trajectory of the followed (first) query's frames.
    pub arrivals: Trajectory,
    /// Delta frames received, over all queries.
    pub frames: u64,
    /// Result rows carried by those frames.
    pub rows: u64,
    /// A `Lagged` frame arrived or the connection failed.
    pub broken: Option<String>,
}

struct Observer {
    stop: Arc<AtomicBool>,
    delivered: Arc<AtomicU64>,
    thread: JoinHandle<Subscribed>,
}

fn spawn_observer(addr: std::net::SocketAddr, names: Vec<String>) -> Observer {
    let stop = Arc::new(AtomicBool::new(false));
    let delivered = Arc::new(AtomicU64::new(0));
    let (stop2, delivered2) = (Arc::clone(&stop), Arc::clone(&delivered));
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("subscriber connects");
        // A lagged subscriber must show up as a failure, not heal itself.
        client.set_auto_resubscribe(false);
        let mut out = Subscribed {
            mirrors: names.iter().map(|n| (n.clone(), Mirror::new())).collect(),
            arrivals: Vec::new(),
            frames: 0,
            rows: 0,
            broken: None,
        };
        let mut heads = Vec::new();
        for name in &names {
            heads.push(client.subscribe(name, None).expect("subscribe").1);
        }
        let mut ready = Some((ready_tx, heads));
        loop {
            match client.next(Duration::from_millis(1)) {
                Ok(Some(frame)) => {
                    match &frame {
                        Frame::Delta { added, removed, .. } => {
                            out.frames += 1;
                            out.rows += (added.len() + removed.len()) as u64;
                        }
                        Frame::Lagged { name, .. } => {
                            out.broken = Some(format!("lagged on {name}"));
                        }
                        _ => {}
                    }
                    for (i, (name, mirror)) in out.mirrors.iter_mut().enumerate() {
                        let before = mirror.seq();
                        if mirror.apply(name, &frame) && i == 0 && mirror.seq() > before {
                            out.arrivals.push((mirror.seq(), now_ns()));
                            // Release: pairs with the writer's Acquire
                            // load when it waits for the subscriber.
                            delivered2.store(mirror.seq(), Ordering::Release);
                        }
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    out.broken = Some(format!("subscriber connection: {e}"));
                    break;
                }
            }
            // Set-up is over once every initial snapshot has landed.
            if let Some((tx, heads)) = &ready {
                if out
                    .mirrors
                    .iter()
                    .zip(heads)
                    .all(|((_, m), &h)| m.seq() >= h)
                {
                    let _ = tx.send(());
                    ready = None;
                }
            }
            if stop2.load(Ordering::Acquire) {
                break;
            }
        }
        out
    });
    ready_rx
        .recv_timeout(SYNC_TIMEOUT)
        .expect("subscriber received its initial snapshots");
    Observer {
        stop,
        delivered,
        thread,
    }
}

struct Watcher {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Trajectory>,
}

/// Records every advance of the replica's applied watermark. The thread
/// blocks on the replica's own condvar, so it costs nothing between
/// advances and stamps each one as it is signalled.
fn spawn_watcher(replica: Arc<ReplicaSession>) -> Watcher {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let mut trajectory = Vec::new();
        let mut seen = replica.applied_seq();
        loop {
            let stopping = stop2.load(Ordering::Acquire);
            if replica.wait_for_seq(seen + 1, Duration::from_millis(5)) || stopping {
                let now = now_ns();
                let applied = replica.applied_seq();
                if applied > seen {
                    trajectory.push((applied, now));
                    seen = applied;
                }
            }
            if stopping {
                break;
            }
        }
        trajectory
    });
    Watcher { stop, thread }
}

/// Which consumers a [`Served`] leader has, and how its log behaves.
#[derive(Clone)]
pub struct ServedOpts {
    /// Modelled device flush.
    pub flush: Duration,
    /// Log flush policy.
    pub fsync: FsyncPolicy,
    /// Attach one TCP subscriber on every query.
    pub subscriber: bool,
    /// Attach one replica.
    pub follower: bool,
    /// Registry shared into every layer (the traced run).
    pub registry: Option<Arc<Registry>>,
}

/// A leader [`DurableSession`] with its consumers attached and caught
/// up.
pub struct Served {
    /// The leader.
    pub leader: Arc<DurableSession>,
    /// Its device.
    pub disk: MeteredDisk,
    /// In-process feed on the followed query: the ground truth of which
    /// commits published a delta, and at which seq.
    pub events: Subscription,
    /// The replica, when attached.
    pub replica: Option<Arc<ReplicaSession>>,
    server: Option<ServerHandle>,
    observer: Option<Observer>,
    repl: Option<ReplicationServer>,
    watcher: Option<Watcher>,
    /// Keeps the calling (writer) thread on a CPU of its own and every
    /// thread started by [`Served::start`] off it; undone on drop.
    split: Split,
}

/// What remains of a [`Served`] stack after its threads are joined.
pub struct Finished {
    /// The leader (still open).
    pub leader: Arc<DurableSession>,
    /// Its device.
    pub disk: MeteredDisk,
    /// The replication listener, kept alive so late joiners can attach.
    pub repl: Option<ReplicationServer>,
    /// What the subscriber saw.
    pub subscribed: Option<Subscribed>,
    /// Every advance of the replica watermark.
    pub watermarks: Trajectory,
    /// Server-side counters and bytes written to sockets.
    pub serve: Option<(ServerStats, u64)>,
    /// Followers dropped for overflowing their ship queue.
    pub queue_overflows: u64,
}

impl Served {
    /// Builds the leader, loads the preload, attaches the consumers and
    /// waits until each holds the preloaded state.
    pub fn start(sc: &Scenario, inputs: &Inputs, opts: &ServedOpts) -> Served {
        // Every thread started below inherits "not the writer's CPU".
        let mut split = Split::begin();
        let disk = MeteredDisk::new(opts.flush);
        let leader = Arc::new(build_durable(sc, &disk, opts.fsync, opts.registry.as_ref()));
        assert_schema(inputs, |n| leader.relation(n).ok());
        load(&inputs.script.preload, |chunk| {
            leader.apply_batch(chunk).expect("preload commits");
        });
        let head = leader.seq().expect("leader seq");

        let (server, observer) = if opts.subscriber {
            let source: Arc<dyn cq_updates::serving::server::FeedSource> =
                match (leader.shared(), leader.sharded()) {
                    (Some(s), _) => {
                        Arc::new(SessionSource::new(s.clone(), RING_CAP).expect("source"))
                    }
                    (_, Some(s)) => {
                        Arc::new(ShardedSource::new(Arc::new(s.clone()), RING_CAP).expect("source"))
                    }
                    _ => unreachable!("a durable session has a backend"),
                };
            let config = ServeConfig {
                // Room for a saturating writer to run ahead of the socket
                // without the lag policy rewriting the frame sequence.
                queue_cap: 4096,
                hard_cap: 1 << 16,
                registry: opts.registry.clone(),
                ..ServeConfig::default()
            };
            let server =
                ServerHandle::bind_with("127.0.0.1:0", source, config).expect("server binds");
            let names = sc.queries.iter().map(|(n, _)| n.to_string()).collect();
            let observer = spawn_observer(server.local_addr(), names);
            (Some(server), Some(observer))
        } else {
            (None, None)
        };

        let (repl, replica, watcher) = if opts.follower {
            let config = LeaderConfig {
                registry: opts.registry.clone(),
                ..LeaderConfig::default()
            };
            let repl = ReplicationServer::bind("127.0.0.1:0", Arc::clone(&leader), config)
                .expect("replication server binds");
            let replica = Arc::new(connect_replica(&repl, head, opts.registry.as_ref()));
            let watcher = spawn_watcher(Arc::clone(&replica));
            (Some(repl), Some(replica), Some(watcher))
        } else {
            (None, None, None)
        };

        let events = subscribe(&leader, sc.queries[0].0);
        split.writer_takes_its_core();
        Served {
            leader,
            disk,
            events,
            replica,
            server,
            observer,
            repl,
            watcher,
            split,
        }
    }

    /// Whether the writer has a CPU to itself (see [`Split`]).
    pub fn writer_isolated(&self) -> bool {
        self.split.active()
    }

    /// Blocks until the subscriber holds the followed query at
    /// `event_seq` and the replica has applied `head`; `false` on
    /// timeout.
    pub fn wait_consumers(&self, event_seq: u64, head: u64) -> bool {
        let deadline = Instant::now() + SYNC_TIMEOUT;
        if let Some(obs) = &self.observer {
            while obs.delivered.load(Ordering::Acquire) < event_seq {
                if Instant::now() >= deadline || obs.thread.is_finished() {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        match &self.replica {
            Some(r) => r.wait_for_seq(head, deadline.saturating_duration_since(Instant::now())),
            None => true,
        }
    }

    /// Server-side counters so far and bytes written to sockets.
    pub fn serve_stats(&self) -> Option<(ServerStats, u64)> {
        self.server.as_ref().map(|s| {
            (
                s.stats(),
                s.registry().counter("serve_bytes_out_total").get(),
            )
        })
    }

    /// Stops and joins the benchmark's observer threads, then the
    /// server. Idempotent; also runs on drop, so a stack that is set up
    /// only to be timed leaves no thread behind.
    fn halt(&mut self) -> (Option<Subscribed>, Trajectory, Option<(ServerStats, u64)>) {
        let watermarks = self.watcher.take().map_or_else(Vec::new, |w| {
            w.stop.store(true, Ordering::Release);
            w.thread.join().expect("watcher thread")
        });
        let subscribed = self.observer.take().map(|o| {
            o.stop.store(true, Ordering::Release);
            o.thread.join().expect("subscriber thread")
        });
        let serve = self.serve_stats();
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        (subscribed, watermarks, serve)
    }

    /// Joins the observers and hands back what they saw, with the
    /// leader and the replication listener still open (a caller that
    /// still needs the replica holds its own handle).
    pub fn finish(mut self) -> Finished {
        let (subscribed, watermarks, serve) = self.halt();
        let queue_overflows = self.repl.as_ref().map_or(0, |r| r.stats().queue_overflows);
        Finished {
            leader: Arc::clone(&self.leader),
            disk: self.disk.clone(),
            repl: self.repl.take(),
            subscribed,
            watermarks,
            serve,
            queue_overflows,
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Connects a fresh replica and waits until it has applied `head`.
pub fn connect_replica(
    repl: &ReplicationServer,
    head: u64,
    registry: Option<&Arc<Registry>>,
) -> ReplicaSession {
    let options = ReplicaOptions {
        registry: registry.cloned(),
        ..ReplicaOptions::default()
    };
    let replica = ReplicaSession::connect(repl.local_addr(), options).expect("replica connects");
    assert!(
        replica.wait_for_seq(head, SYNC_TIMEOUT),
        "replica did not catch up to seq {head}"
    );
    replica
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_at_finds_first_covering_point() {
        let trajectory = vec![(10, 100), (20, 200), (40, 400)];
        assert_eq!(
            covered_at(&trajectory, &[5, 10, 11, 20, 30, 40, 41]),
            vec![
                Some(100),
                Some(100),
                Some(200),
                Some(200),
                Some(400),
                Some(400),
                None
            ]
        );
        assert_eq!(covered_at(&[], &[1]), vec![None]);
    }
}
