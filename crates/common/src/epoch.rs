//! A hand-rolled arc-swap: lock-free epoch publication.
//!
//! [`EpochCell<T>`] holds one `Arc<T>` — the *published epoch* — behind an
//! atomic pointer. Readers take O(1) snapshots with [`EpochCell::load`]
//! (one counter increment, one pointer load, one refcount increment — no
//! lock, no allocation, no waiting on writers); the cell's one
//! [`Publisher`] replaces the epoch with [`Publisher::store`], after which
//! the previous epoch lives exactly as long as the last outstanding `Arc`
//! clone of it — dropping a pin releases its epoch deterministically
//! through the `Arc` refcount.
//!
//! This is the vendored-deps stand-in for the `arc-swap` crate, built
//! from `AtomicPtr` + `Arc::into_raw`. The classic hazard of that
//! construction — a reader loads the raw pointer, the writer swaps and
//! drops the last reference, the reader then increments the refcount of a
//! freed allocation — is closed with *parity-indexed reader windows*:
//! readers announce themselves (into the window slot named by the current
//! publication parity, re-verifying the parity after announcing) before
//! loading and retire after upgrading the raw pointer to a real `Arc`;
//! a publishing writer flips the parity right after its pointer swap and
//! defers its release of the replaced epoch until the *previous* parity's
//! window is empty. Readers announcing after the flip land in the other
//! slot, so continuous pin traffic never extends the writer's drain —
//! the wait covers only the readers that were already crossing the swap
//! (bounded by the thread count; at worst one preemption-length stall if
//! such a crosser is descheduled mid-window, the window itself being
//! three atomic operations with no allocation). A reader *holding* an
//! epoch for hours is entirely invisible to publication — epochs retire
//! through the `Arc` refcount, never through the windows.
//!
//! The windows protect a load against *one* store at a time. Two stores
//! running at once can free an epoch a concurrent load is about to pin:
//! a reader announces under parity 0 and loads `P0`, store A swaps `P0`
//! out, store B swaps A's epoch out and flips the parity first, so A's
//! flip drains the empty window 1 and frees `P0` under the reader. So
//! the store lives on a unique, non-`Clone` [`Publisher`] and takes
//! `&mut self`: one cell has one writer, and the borrow checker
//! serializes its stores. Readers share the cell as `Arc<EpochCell<T>>`.
//!
//! Orderings are deliberately conservative (`SeqCst` on the
//! publication/pin edges): epoch swaps are rare next to pins, and pins
//! are already two orders of magnitude cheaper than the cheapest engine
//! read they front.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A lock-free publication slot for immutable epochs (see module docs).
/// Readers share it as `Arc<EpochCell<T>>`; only its [`Publisher`]
/// stores.
///
/// The cell also carries two advisory registers the session layer uses to
/// coordinate demand-driven publication without extra state:
///
/// * a **live version** ([`EpochCell::set_live_version`]) the writer
///   keeps equal to its engine-state version, so readers can detect that
///   the published epoch lags without taking any lock, and
/// * a **refresh request flag** ([`EpochCell::take_refresh_request`]) a
///   reader raises when it observes such a lag, telling the writer to
///   publish a fresh epoch at its next convenient point.
pub struct EpochCell<T> {
    /// The published epoch, as a raw `Arc::into_raw` pointer. Never null.
    ptr: AtomicPtr<T>,
    /// Publication parity: its low bit names the window slot new readers
    /// announce into. Flipped by every [`Publisher::store`], right after
    /// the pointer swap.
    parity: AtomicUsize,
    /// Reader windows by parity bit: the number of readers currently
    /// inside a load announced under that parity (between announcing and
    /// having upgraded the raw pointer to an `Arc`).
    windows: [AtomicUsize; 2],
    /// Advisory: the writer-side state version (see struct docs).
    live_version: AtomicU64,
    /// Advisory: a reader observed the published epoch lagging.
    refresh: AtomicBool,
}

impl<T> EpochCell<T> {
    /// A cell publishing `initial`; only [`Publisher::new`] makes one, so
    /// every cell has exactly one writer.
    fn new(initial: Arc<T>) -> Self {
        EpochCell {
            ptr: AtomicPtr::new(Arc::into_raw(initial).cast_mut()),
            parity: AtomicUsize::new(0),
            windows: [AtomicUsize::new(0), AtomicUsize::new(0)],
            live_version: AtomicU64::new(0),
            refresh: AtomicBool::new(false),
        }
    }

    /// Takes an O(1) snapshot of the published epoch: an `Arc` clone that
    /// stays valid forever, however many [`Publisher::store`]s follow.
    /// Lock-free — in particular it never blocks on (or even observes)
    /// any writer lock; a concurrent store at most makes it re-announce
    /// into the new parity's window.
    pub fn load(&self) -> Arc<T> {
        // Announce into the current parity's window, then re-verify the
        // parity: if a store flipped it in between, our slot may already
        // have been drained past us, so back out and re-enter. Once the
        // verify succeeds, the store that will retire the pointer we are
        // about to load must drain our slot *after* our announce — it
        // cannot miss us.
        let slot = loop {
            let i = self.parity.load(Ordering::SeqCst) & 1;
            self.windows[i].fetch_add(1, Ordering::SeqCst);
            if self.parity.load(Ordering::SeqCst) & 1 == i {
                break i;
            }
            self.windows[i].fetch_sub(1, Ordering::SeqCst);
        };
        let raw = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `raw` came from `Arc::into_raw` and cannot have been
        // released: the store that swapped it out drains the window slot
        // we verifiably announced into before it releases, and any
        // *earlier* store with the same parity bit completed its drain —
        // waiting for this very announcement to retire — before the
        // pointer we just read was ever published. Incrementing the
        // strong count turns our borrow into an owned reference;
        // `from_raw` then adopts it.
        let epoch = unsafe {
            Arc::increment_strong_count(raw);
            Arc::from_raw(raw)
        };
        self.windows[slot].fetch_sub(1, Ordering::SeqCst);
        epoch
    }

    /// Writer-side: records the current engine-state version (a monotone
    /// counter readers compare epochs against). Relaxed — the value is
    /// advisory and only drives refresh heuristics, never safety.
    pub fn set_live_version(&self, version: u64) {
        self.live_version.store(version, Ordering::Relaxed);
    }

    /// Reader-side: the writer's last recorded state version.
    pub fn live_version(&self) -> u64 {
        self.live_version.load(Ordering::Relaxed)
    }

    /// Reader-side: requests that the writer publish a fresh epoch at its
    /// next publication point.
    pub fn request_refresh(&self) {
        self.refresh.store(true, Ordering::Relaxed);
    }

    /// Writer-side: consumes a pending refresh request, if any.
    pub fn take_refresh_request(&self) -> bool {
        self.refresh.swap(false, Ordering::Relaxed)
    }
}

impl<T> Drop for EpochCell<T> {
    fn drop(&mut self) {
        // Exclusive access: no reader can be inside the window.
        let raw = *self.ptr.get_mut();
        // SAFETY: the cell owns one strong count for the published epoch.
        drop(unsafe { Arc::from_raw(raw) });
    }
}

// SAFETY: the cell hands out `Arc<T>` clones across threads and the
// writer drops `T` on whichever thread releases the last one — exactly
// the `Arc` contract, so the bounds mirror `Arc`'s.
unsafe impl<T: Send + Sync> Send for EpochCell<T> {}
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("epoch", &self.load())
            .field("live_version", &self.live_version())
            .finish_non_exhaustive()
    }
}

/// The one writer of an [`EpochCell`]: unique and not `Clone`, so the
/// stores of one cell can never overlap (see the module docs for the
/// interleaving that two concurrent stores would open).
///
/// ```
/// use cqu_common::epoch::Publisher;
/// use std::sync::Arc;
///
/// let mut publisher = Publisher::new(Arc::new(1u64));
/// let cell = Arc::clone(publisher.cell());
/// let reader = std::thread::spawn(move || *cell.load());
/// publisher.store(Arc::new(2));
/// assert!(matches!(reader.join().unwrap(), 1 | 2));
/// assert_eq!(*publisher.cell().load(), 2);
/// ```
///
/// Two threads cannot store through one publisher at once: a store takes
/// `&mut self`, and a shared borrow does not give one.
///
/// ```compile_fail
/// use cqu_common::epoch::Publisher;
/// use std::sync::Arc;
///
/// let publisher = Publisher::new(Arc::new(0u64));
/// let shared = &publisher;
/// std::thread::scope(|s| {
///     s.spawn(|| shared.store(Arc::new(1)));
///     s.spawn(|| shared.store(Arc::new(2)));
/// });
/// ```
pub struct Publisher<T> {
    cell: Arc<EpochCell<T>>,
}

impl<T> Publisher<T> {
    /// Creates a cell publishing `initial`, and its one publisher.
    pub fn new(initial: Arc<T>) -> Publisher<T> {
        Publisher {
            cell: Arc::new(EpochCell::new(initial)),
        }
    }

    /// The cell this publisher writes; readers load from clones of the
    /// `Arc`.
    pub fn cell(&self) -> &Arc<EpochCell<T>> {
        &self.cell
    }

    /// Publishes `next`, releasing the cell's reference to the previous
    /// epoch. The previous epoch is freed as soon as the last outstanding
    /// pin of it drops — deterministically, through the `Arc` refcount.
    ///
    /// `&mut self` serializes stores; loads may overlap anything.
    pub fn store(&mut self, next: Arc<T>) {
        let cell = &*self.cell;
        let old = cell
            .ptr
            .swap(Arc::into_raw(next).cast_mut(), Ordering::SeqCst);
        // Flip the parity: readers announcing from here on use the other
        // window slot (and can only load the new pointer), so continuous
        // pin traffic never extends the drain below.
        let prev = cell.parity.fetch_add(1, Ordering::SeqCst) & 1;
        // Drain the previous parity's window: exactly the readers that
        // were crossing our swap and may be about to take a refcount on
        // `old`. Bounded by the thread count, each inside a window of a
        // handful of instructions; yield in case one was preempted
        // mid-window.
        while cell.windows[prev].load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        // SAFETY: `old` came from `Arc::into_raw` at publication time and
        // the cell owned one strong count for it; every reader that could
        // still hold it raw has secured its own count by now, and no other
        // store overlaps this one (`&mut self`, one publisher per cell).
        drop(unsafe { Arc::from_raw(old) });
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Publisher<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Publisher").field(&self.cell).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn load_returns_published_epoch() {
        let mut publisher = Publisher::new(Arc::new(1u64));
        let cell = Arc::clone(publisher.cell());
        assert_eq!(*cell.load(), 1);
        publisher.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn pins_survive_publication_and_release_deterministically() {
        let mut publisher = Publisher::new(Arc::new("genesis".to_string()));
        let cell = Arc::clone(publisher.cell());
        let pin = cell.load();
        // cell + pin.
        assert_eq!(Arc::strong_count(&pin), 2);
        publisher.store(Arc::new("next".to_string()));
        // The old epoch now lives only through the pin.
        assert_eq!(*pin, "genesis");
        assert_eq!(Arc::strong_count(&pin), 1);
        let fresh = cell.load();
        assert_eq!(*fresh, "next");
        assert_eq!(Arc::strong_count(&fresh), 2);
        drop(pin); // releases the genesis epoch right here — nothing leaks
    }

    #[test]
    fn ancient_pins_never_delay_publication() {
        let mut publisher = Publisher::new(Arc::new(0u64));
        let cell = Arc::clone(publisher.cell());
        let ancient = cell.load();
        for gen in 1..=10_000u64 {
            publisher.store(Arc::new(gen));
        }
        assert_eq!(*ancient, 0, "ancient pin still reads its epoch");
        assert_eq!(*cell.load(), 10_000);
    }

    #[test]
    fn advisory_registers_roundtrip() {
        let publisher = Publisher::new(Arc::new(()));
        let cell = publisher.cell();
        assert_eq!(cell.live_version(), 0);
        cell.set_live_version(7);
        assert_eq!(cell.live_version(), 7);
        assert!(!cell.take_refresh_request());
        cell.request_refresh();
        assert!(cell.take_refresh_request());
        assert!(!cell.take_refresh_request(), "request is consumed");
    }

    /// Hammer the cell from concurrent readers while a writer republishes
    /// continuously. Epoch payloads self-check their integrity: a torn or
    /// freed read would fail the internal consistency assertion.
    #[test]
    fn concurrent_loads_and_stores_stay_coherent() {
        struct Payload {
            a: u64,
            b: u64, // always a * 2 + 1
        }
        let mut publisher = Publisher::new(Arc::new(Payload { a: 0, b: 1 }));
        let cell = Arc::clone(publisher.cell());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last = 0;
                    let mut held: Vec<Arc<Payload>> = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        let e = cell.load();
                        assert_eq!(e.b, e.a * 2 + 1, "torn epoch");
                        assert!(e.a >= last, "epochs went backwards");
                        last = e.a;
                        // Occasionally hold pins across publications.
                        if e.a.is_multiple_of(7) {
                            held.push(e);
                            if held.len() > 8 {
                                held.clear();
                            }
                        }
                    }
                    for e in held {
                        assert_eq!(e.b, e.a * 2 + 1, "held pin decayed");
                    }
                })
            })
            .collect();
        for a in 1..=20_000u64 {
            publisher.store(Arc::new(Payload { a, b: a * 2 + 1 }));
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().expect("reader observed a torn or freed epoch");
        }
        assert_eq!(cell.load().a, 20_000);
    }
}
