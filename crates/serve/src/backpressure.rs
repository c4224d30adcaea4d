//! Bounded, never-blocking producer queues with coalescing overflow.
//!
//! A [`BoundedQueue`] is the backpressure primitive of in-process
//! bounded feeds (`QueryHandle::subscribe_bounded`). The server's
//! per-connection outbound queues are a separate, private type
//! (`OutQueue` in `server.rs`). The producer side **never blocks**:
//! when the queue is full, [`BoundedQueue::push_coalescing`] drains the
//! pending items and nets them together with the new one into a single
//! replacement item. Deltas over a multiset result net associatively, so
//! a consumer that falls behind sees coarser (but exact) deltas instead
//! of unbounded memory growth — the same contract the wire protocol's
//! coalescing lag policy gives network subscribers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct QState<T> {
    items: VecDeque<T>,
    closed: bool,
    coalesced: u64,
}

/// Outcome of a non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecv<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is currently empty (producer still attached).
    Empty,
    /// The queue is empty and closed: no more items will ever arrive.
    Closed,
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
    /// clamped to at least 1 (a zero-capacity queue could never deliver).
    pub fn new(cap: usize) -> BoundedQueue<T> {
        let cap = cap.max(1);
        BoundedQueue {
            cap,
            state: Mutex::new(QState {
                items: VecDeque::with_capacity(cap.min(1024)),
                closed: false,
                coalesced: 0,
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QState<T>> {
        // A panic mid-push/pop cannot leave the queue logically torn:
        // every mutation is a single VecDeque operation.
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
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
        drop(st);
        self.cond.notify_one();
        true
    }

    /// Enqueues `item`, silently dropping the **oldest** pending item on
    /// overflow. For streams where later items subsume earlier ones
    /// entirely; the session layer uses coalescing instead.
    pub fn push_lossy(&self, item: T) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        if st.items.len() >= self.cap {
            st.items.pop_front();
            st.coalesced += 1;
        }
        st.items.push_back(item);
        drop(st);
        self.cond.notify_one();
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
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return TryRecv::Item(item);
            }
            if st.closed {
                return TryRecv::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return TryRecv::Empty;
            }
            let (g, _) = match self.cond.wait_timeout(st, deadline - now) {
                Ok(r) => r,
                Err(p) => p.into_inner(),
            };
            st = g;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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

        // A blocked consumer wakes on close.
        let q2 = Arc::new(BoundedQueue::<u32>::new(2));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.recv_timeout(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        q2.close();
        assert_eq!(waiter.join().unwrap(), TryRecv::Closed);
    }

    #[test]
    fn recv_timeout_times_out_when_open() {
        let q = BoundedQueue::<u32>::new(1);
        let start = Instant::now();
        assert_eq!(q.recv_timeout(Duration::from_millis(30)), TryRecv::Empty);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn lossy_push_drops_oldest() {
        let q = BoundedQueue::new(2);
        q.push_lossy(1);
        q.push_lossy(2);
        q.push_lossy(3);
        assert_eq!(q.drain(), vec![2, 3]);
        assert_eq!(q.coalesced(), 1);
    }

    #[test]
    fn producers_never_block() {
        // With no consumer at all, a tiny queue absorbs a large burst in
        // bounded memory and bounded time.
        let q = BoundedQueue::new(1);
        for i in 0..10_000u64 {
            q.push_coalescing(i, |all| *all.last().unwrap());
        }
        assert_eq!(q.len(), 1);
    }
}
