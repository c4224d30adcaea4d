//! The change feed's vocabulary: the event, the queue it travels in, and
//! what polling that queue returns.
//!
//! A commit that changes a query's result produces one [`ChangeEvent`],
//! allocated once and shared as an `Arc` by everything downstream: the
//! retention ring ([`crate::ring`]), every in-process subscription, the
//! server's fan-out pump and each connection's outbound queue. Nothing
//! between the engine and the frame encoder copies a row.
//!
//! A [`BoundedQueue`] carries the events to one consumer. Its producer
//! **never blocks**: when the queue is full,
//! [`BoundedQueue::push_coalescing`] drains the pending items and nets
//! them together with the new one into a single replacement item
//! ([`ChangeEvent::net`]). Deltas over a set-valued result net
//! associatively, so a consumer that falls behind sees coarser (but
//! exact) deltas instead of unbounded memory growth. A capacity of
//! `usize::MAX` is the uncapped feed (`QueryHandle::subscribe`); the
//! server's per-connection outbound queues are a separate, private type
//! (`OutQueue` in `server.rs`) whose overflow nets one query's backlog
//! with the same function.
//!
//! The consumer holds a [`Receiver`]: it derefs to the queue and closes
//! it on drop, and the producer closes the queue when it goes away
//! first, so either end learns of the other's departure from
//! [`TryRecv::Closed`] or a failed push.

use crate::protocol::Row;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One result-set delta: what one commit (an update, a batch, or a
/// transaction, which publishes once with its net delta and nothing at
/// all on rollback) changed in one query's result.
///
/// Events are delivered as `Arc<ChangeEvent>`: one allocation per
/// commit, shared by every subscriber on the query and by the serving
/// layer (fan-out never clones the payload).
///
/// Both sides are sorted and duplicate-free; a tuple never appears on
/// both sides of one event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeEvent {
    /// Session-wide sequence number of the causing update (for batches
    /// and transactions: of their last effective update).
    pub seq: u64,
    /// Result tuples that entered `ϕ(D)`.
    pub added: Vec<Row>,
    /// Result tuples that left `ϕ(D)`.
    pub removed: Vec<Row>,
}

impl ChangeEvent {
    /// Whether the event changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Nets a run of sequential events of one query into one exact event
    /// stamped with the last seq: per-row add/remove counts cancel (a
    /// row added then removed, or removed then re-added, disappears),
    /// and both sides come out sorted and duplicate-free. This is the
    /// one netting function: lagging subscribers, lagging connections
    /// and ring replay all coalesce through it. The result may be empty
    /// (the changes cancelled); callers decide whether that is worth
    /// delivering.
    pub fn net<'a>(parts: impl IntoIterator<Item = &'a ChangeEvent>) -> ChangeEvent {
        let mut seq = 0;
        let mut counts: HashMap<&'a Row, i64> = HashMap::new();
        for part in parts {
            seq = seq.max(part.seq);
            for row in &part.added {
                *counts.entry(row).or_insert(0) += 1;
            }
            for row in &part.removed {
                *counts.entry(row).or_insert(0) -= 1;
            }
        }
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (row, count) in counts {
            match count.cmp(&0) {
                std::cmp::Ordering::Greater => added.push(row.clone()),
                std::cmp::Ordering::Less => removed.push(row.clone()),
                std::cmp::Ordering::Equal => {}
            }
        }
        added.sort_unstable();
        removed.sort_unstable();
        ChangeEvent {
            seq,
            added,
            removed,
        }
    }
}

#[derive(Debug)]
struct QState<T> {
    items: VecDeque<T>,
    closed: bool,
    coalesced: u64,
    /// Consumers parked in [`BoundedQueue::recv_until`]: a push wakes
    /// the condvar only when somebody waits on it.
    waiters: usize,
}

/// Outcome of polling a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecv<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is currently empty (producer still attached).
    Empty,
    /// The queue is empty and closed: no more items will ever arrive.
    Closed,
}

impl<T> TryRecv<T> {
    /// The dequeued item, if there was one.
    pub fn item(self) -> Option<T> {
        match self {
            TryRecv::Item(item) => Some(item),
            TryRecv::Empty | TryRecv::Closed => None,
        }
    }
}

/// A bounded MPSC queue whose producers coalesce on overflow instead of
/// blocking or growing.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<QState<T>>,
    cond: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `cap` pending items. `cap` is
    /// clamped to at least 1 (a zero-capacity queue could never deliver);
    /// `usize::MAX` never coalesces.
    pub fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            cap: cap.max(1),
            state: Mutex::new(QState {
                items: VecDeque::new(),
                closed: false,
                coalesced: 0,
                waiters: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// A queue and its consuming end: the producer keeps the queue, the
    /// consumer the [`Receiver`].
    pub fn channel(cap: usize) -> (Arc<BoundedQueue<T>>, Receiver<T>) {
        let queue = Arc::new(BoundedQueue::new(cap));
        (Arc::clone(&queue), Receiver(queue))
    }

    fn lock(&self) -> MutexGuard<'_, QState<T>> {
        // A panic mid-push/pop cannot leave the queue logically torn:
        // every mutation is a single VecDeque operation.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Capacity in pending items.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of items currently pending.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when no items are pending.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// How many times producers had to coalesce because the consumer
    /// fell behind. A cheap lag gauge for tests and observability.
    pub fn coalesced(&self) -> u64 {
        self.lock().coalesced
    }

    /// True once [`close`](BoundedQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Enqueues `item` without ever blocking. If the queue is full, all
    /// pending items plus `item` are handed to `net` (oldest first, the
    /// new item last) and replaced by its single result. Returns `false`
    /// if the queue is closed (the item is dropped).
    pub fn push_coalescing(&self, item: T, net: impl FnOnce(Vec<T>) -> T) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        if st.items.len() >= self.cap {
            let mut all: Vec<T> = st.items.drain(..).collect();
            all.push(item);
            let merged = net(all);
            st.items.push_back(merged);
            st.coalesced += 1;
        } else {
            st.items.push_back(item);
        }
        let wake = st.waiters > 0;
        drop(st);
        if wake {
            self.cond.notify_one();
        }
        true
    }

    /// Dequeues without blocking.
    pub fn try_recv(&self) -> TryRecv<T> {
        let mut st = self.lock();
        match st.items.pop_front() {
            Some(item) => TryRecv::Item(item),
            None if st.closed => TryRecv::Closed,
            None => TryRecv::Empty,
        }
    }

    /// Dequeues, waiting up to `timeout` for an item. `Empty` means the
    /// wait timed out with the queue still open.
    pub fn recv_timeout(&self, timeout: Duration) -> TryRecv<T> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Dequeues, waiting for as long as the queue stays open; `None`
    /// once it is closed and drained.
    pub fn recv(&self) -> Option<T> {
        self.recv_until(None).item()
    }

    fn recv_until(&self, deadline: Option<Instant>) -> TryRecv<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return TryRecv::Item(item);
            }
            if st.closed {
                return TryRecv::Closed;
            }
            let left = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => return TryRecv::Empty,
                left => left,
            };
            st.waiters += 1;
            st = match left {
                None => self.cond.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    let waited = self.cond.wait_timeout(st, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
            st.waiters -= 1;
        }
    }

    /// Drains every pending item without blocking.
    pub fn drain(&self) -> Vec<T> {
        self.lock().items.drain(..).collect()
    }

    /// Closes the queue: producers start failing, and consumers see
    /// `Closed` once the backlog drains. Idempotent.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.cond.notify_all();
    }
}

/// The consuming end of a [`BoundedQueue`] shared with its producer.
/// Derefs to the queue; dropping it closes the queue, so the producer's
/// next push fails and it forgets the queue.
#[derive(Debug)]
pub struct Receiver<T>(Arc<BoundedQueue<T>>);

impl<T> std::ops::Deref for Receiver<T> {
    type Target = BoundedQueue<T>;

    fn deref(&self) -> &BoundedQueue<T> {
        &self.0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn fifo_under_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..3 {
            assert!(q.push_coalescing(i, |_| unreachable!()));
        }
        assert_eq!(q.try_recv(), TryRecv::Item(0));
        assert_eq!(q.try_recv(), TryRecv::Item(1));
        assert_eq!(q.try_recv(), TryRecv::Item(2));
        assert_eq!(q.try_recv(), TryRecv::Empty);
        assert_eq!(q.coalesced(), 0);
    }

    #[test]
    fn overflow_coalesces_everything_into_one() {
        let q = BoundedQueue::new(2);
        q.push_coalescing(1, |_| unreachable!());
        q.push_coalescing(2, |_| unreachable!());
        // Full: the third push nets [1, 2, 3] into their sum.
        q.push_coalescing(3, |all| {
            assert_eq!(all, vec![1, 2, 3]);
            all.into_iter().sum()
        });
        assert_eq!(q.len(), 1);
        assert_eq!(q.coalesced(), 1);
        assert_eq!(q.try_recv(), TryRecv::Item(6));
        // Bound respected throughout: never more than `cap` pending.
        for i in 0..100 {
            q.push_coalescing(i, |all| all.into_iter().sum());
            assert!(q.len() <= 2);
        }
    }

    #[test]
    fn close_wakes_and_finishes() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push_coalescing(7, |_| unreachable!());
        q.close();
        // Closed queues reject new items but drain the backlog.
        assert!(!q.push_coalescing(8, |_| unreachable!()));
        assert_eq!(q.try_recv(), TryRecv::Item(7));
        assert_eq!(q.try_recv(), TryRecv::Closed);
        assert_eq!(q.recv(), None);

        // A consumer blocked with no deadline wakes on a push, then on
        // the close.
        let (q2, rx) = BoundedQueue::<u32>::channel(2);
        let waiter = std::thread::spawn(move || (rx.recv(), rx.recv()));
        while q2.lock().waiters == 0 {
            std::thread::yield_now();
        }
        assert!(q2.push_coalescing(5, |_| unreachable!()));
        while q2.lock().waiters == 0 || !q2.is_empty() {
            std::thread::yield_now();
        }
        q2.close();
        assert_eq!(waiter.join().unwrap(), (Some(5), None));
    }

    #[test]
    fn either_end_closes_the_queue() {
        let (q, rx) = BoundedQueue::channel(usize::MAX);
        assert!(q.push_coalescing(1, |_| unreachable!()));
        drop(rx);
        assert!(q.is_closed());
        assert!(!q.push_coalescing(2, |_| unreachable!()));
    }

    #[test]
    fn recv_timeout_times_out_when_open() {
        let q = BoundedQueue::<u32>::new(1);
        let start = Instant::now();
        assert_eq!(q.recv_timeout(Duration::from_millis(30)), TryRecv::Empty);
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(q.lock().waiters, 0);
    }

    #[test]
    fn producers_never_block() {
        // With no consumer at all, a tiny queue absorbs a large burst in
        // bounded memory and bounded time; an uncapped one keeps it all.
        let q = BoundedQueue::new(1);
        let all = BoundedQueue::new(usize::MAX);
        for i in 0..10_000u64 {
            q.push_coalescing(i, |all| *all.last().unwrap());
            all.push_coalescing(i, |_| unreachable!());
        }
        assert_eq!(q.len(), 1);
        assert_eq!((all.len(), all.coalesced()), (10_000, 0));
    }

    fn event(seq: u64, added: &[u64], removed: &[u64]) -> ChangeEvent {
        ChangeEvent {
            seq,
            added: added.iter().map(|&a| vec![a]).collect(),
            removed: removed.iter().map(|&r| vec![r]).collect(),
        }
    }

    #[test]
    fn net_cancels_per_row() {
        // add → remove → add of one row is one add.
        let run = [
            event(1, &[7], &[]),
            event(2, &[], &[7]),
            event(5, &[7], &[]),
        ];
        assert_eq!(ChangeEvent::net(&run), event(5, &[7], &[]));
        // A fully cancelling run nets to an empty event at its last seq.
        let run = [event(3, &[1, 2], &[9]), event(4, &[9], &[1, 2])];
        let netted = ChangeEvent::net(&run);
        assert!(netted.is_empty());
        assert_eq!(netted.seq, 4);
    }

    proptest! {
        /// Against a brute-force replay: walk a result set through a
        /// random run of valid events (every `added` absent before,
        /// every `removed` present), and the netted event is exactly the
        /// difference between where the walk started and where it ended.
        #[test]
        fn net_equals_the_brute_force_difference(
            start in prop::collection::vec(any::<bool>(), 6..7),
            flips in prop::collection::vec(prop::collection::vec(0usize..6, 0..4), 0..12),
        ) {
            let mut present: BTreeMap<u64, bool> =
                start.iter().enumerate().map(|(i, &p)| (i as u64, p)).collect();
            let before = present.clone();
            let mut run = Vec::new();
            for (i, rows) in flips.iter().enumerate() {
                let mut ev = event(i as u64 + 1, &[], &[]);
                let mut rows: Vec<u64> = rows.iter().map(|&r| r as u64).collect();
                rows.sort_unstable();
                rows.dedup();
                for row in rows {
                    let p = present.get_mut(&row).unwrap();
                    if *p { ev.removed.push(vec![row]) } else { ev.added.push(vec![row]) }
                    *p = !*p;
                }
                run.push(ev);
            }
            let mut want = event(run.len() as u64, &[], &[]);
            for (row, &now) in &present {
                match (before[row], now) {
                    (false, true) => want.added.push(vec![*row]),
                    (true, false) => want.removed.push(vec![*row]),
                    _ => {}
                }
            }
            prop_assert_eq!(ChangeEvent::net(&run), want);
        }
    }
}
