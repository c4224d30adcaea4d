//! Bounded seq-addressed retention: the structure behind resumable
//! cursors.
//!
//! A [`SeqRing`] keeps the last `cap` items of a strictly increasing
//! seq-keyed stream together with an explicit **floor**: the highest seq
//! that has been evicted (or that predates the ring). A resume cursor
//! `from_seq` is servable from the ring iff `from_seq >= floor` — every
//! event with seq > `from_seq` is still retained. Below the floor the
//! caller must fall back to a snapshot resync. [`SeqRing::replay_since`]
//! is that decision for a ring of change events, and [`ReplayOutcome`]
//! its answer, on every path a cursor can arrive by (an in-process
//! `subscribe_from`, a reconnecting network client, a replica's front
//! end).

use crate::backpressure::ChangeEvent;
use std::collections::VecDeque;
use std::sync::Arc;

/// What the retention ring could recover for a resume cursor.
#[derive(Debug)]
pub enum ReplayOutcome {
    /// The cursor is covered: `event` is the netted delta stream
    /// `from_seq → upto` (`None` when it nets to nothing).
    Covered {
        /// The seq the replay catches the caller up to
        /// (`max(from_seq, last retained seq)`).
        upto: u64,
        /// The netted catch-up delta, stamped `upto`.
        event: Option<ChangeEvent>,
    },
    /// The cursor predates the ring's floor (`Some`) or retention was
    /// never enabled (`None`): only a snapshot resync can help.
    Unavailable {
        /// The ring's current coverage floor, if retention is on.
        floor: Option<u64>,
    },
}

/// A bounded ring of `(seq, item)` pairs with an eviction floor.
///
/// Push order must be strictly increasing in seq (the session layer's
/// per-query event seqs are strictly monotone, so this holds by
/// construction there). Capacity 0 is allowed and means "retain
/// nothing": every push immediately raises the floor, and only
/// `from_seq >= current seq` cursors are coverable.
#[derive(Debug, Clone)]
pub struct SeqRing<T> {
    cap: usize,
    /// Highest evicted (or pre-ring) seq. Cursors below this cannot be
    /// served because events in `(floor_excl_cursor, oldest]` are gone.
    floor: u64,
    items: VecDeque<(u64, T)>,
}

impl<T> SeqRing<T> {
    /// Creates an empty ring retaining up to `cap` items, with coverage
    /// starting at `floor` (cursors `>= floor` are servable).
    pub fn new(cap: usize, floor: u64) -> SeqRing<T> {
        SeqRing {
            cap,
            floor,
            items: VecDeque::with_capacity(cap.min(1024)),
        }
    }

    /// Retention capacity in items.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The coverage floor: the smallest cursor this ring can serve.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Seq of the newest retained item, or the floor when empty.
    pub fn head(&self) -> u64 {
        self.items.back().map(|&(s, _)| s).unwrap_or(self.floor)
    }

    /// Retains `(seq, item)`, evicting the oldest entry (and raising the
    /// floor to its seq) when full. `seq` must exceed every previously
    /// pushed seq.
    pub fn push(&mut self, seq: u64, item: T) {
        debug_assert!(
            seq > self.head(),
            "SeqRing seqs must be strictly increasing"
        );
        if self.cap == 0 {
            self.floor = seq;
            return;
        }
        if self.items.len() == self.cap {
            if let Some((evicted, _)) = self.items.pop_front() {
                self.floor = evicted;
            }
        }
        self.items.push_back((seq, item));
    }

    /// Whether a cursor at `from_seq` can be served losslessly: every
    /// retained-or-future event with seq > `from_seq` is available.
    pub fn covers(&self, from_seq: u64) -> bool {
        from_seq >= self.floor
    }

    /// The retained items strictly after `from_seq`, oldest first.
    /// Meaningful only when [`covers`](SeqRing::covers) holds; below the
    /// floor the result silently misses evicted events.
    pub fn since(&self, from_seq: u64) -> impl Iterator<Item = (u64, &T)> {
        // Seqs are sorted, so find the first retained entry past the cursor.
        let start = self.items.partition_point(|&(s, _)| s <= from_seq);
        self.items.iter().skip(start).map(|(s, t)| (*s, t))
    }

    /// Changes the retention capacity, evicting oldest entries (raising
    /// the floor) if shrinking below the current length.
    pub fn resize(&mut self, cap: usize) {
        self.cap = cap;
        while self.items.len() > cap {
            if let Some((evicted, _)) = self.items.pop_front() {
                self.floor = evicted;
            }
        }
    }
}

impl SeqRing<Arc<ChangeEvent>> {
    /// Nets the retained events after `from_seq` into at most one
    /// catch-up event ([`ChangeEvent::net`]).
    pub fn replay_since(&self, from_seq: u64) -> ReplayOutcome {
        if !self.covers(from_seq) {
            return ReplayOutcome::Unavailable {
                floor: Some(self.floor),
            };
        }
        // The catch-up covers the whole retained span, whatever the seq
        // of its last non-empty constituent was.
        let upto = from_seq.max(self.head());
        let mut event = ChangeEvent::net(self.since(from_seq).map(|(_, e)| &**e));
        event.seq = upto;
        ReplayOutcome::Covered {
            upto,
            event: (!event.is_empty()).then_some(event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_nets_the_retained_span() {
        let event = |seq, added: &[u64], removed: &[u64]| {
            Arc::new(ChangeEvent {
                seq,
                added: added.iter().map(|&a| vec![a]).collect(),
                removed: removed.iter().map(|&r| vec![r]).collect(),
            })
        };
        let mut ring = SeqRing::new(2, 0);
        for e in [
            event(2, &[1], &[]),
            event(4, &[2], &[1]),
            event(7, &[1], &[2]),
        ] {
            ring.push(e.seq, e);
        }
        // Evicted: seq 2 → floor 2.
        assert!(matches!(
            ring.replay_since(1),
            ReplayOutcome::Unavailable { floor: Some(2) }
        ));
        match ring.replay_since(2) {
            ReplayOutcome::Covered { upto: 7, event } => assert!(event.is_none(), "{event:?}"),
            other => panic!("{other:?}"),
        }
        match ring.replay_since(4) {
            ReplayOutcome::Covered {
                upto: 7,
                event: Some(e),
            } => assert_eq!(e, *event(7, &[1], &[2])),
            other => panic!("{other:?}"),
        }
        // At or past the head nothing is owed, and the cursor stands.
        assert!(matches!(
            ring.replay_since(9),
            ReplayOutcome::Covered {
                upto: 9,
                event: None
            }
        ));
    }

    #[test]
    fn empty_ring_covers_from_floor() {
        let ring: SeqRing<u32> = SeqRing::new(4, 7);
        assert!(ring.covers(7));
        assert!(ring.covers(100));
        assert!(!ring.covers(6));
        assert_eq!(ring.head(), 7);
        assert_eq!(ring.since(7).count(), 0);
    }

    #[test]
    fn eviction_raises_floor() {
        let mut ring = SeqRing::new(3, 0);
        for seq in [2u64, 4, 6, 8, 10] {
            ring.push(seq, seq * 10);
        }
        // Retained: 6, 8, 10; evicted 2 then 4 → floor 4.
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.floor(), 4);
        assert!(ring.covers(4));
        assert!(!ring.covers(3));
        let collected: Vec<_> = ring.since(4).map(|(s, &v)| (s, v)).collect();
        assert_eq!(collected, vec![(6, 60), (8, 80), (10, 100)]);
        // A cursor mid-ring skips what it already applied.
        let collected: Vec<_> = ring.since(8).map(|(s, &v)| (s, v)).collect();
        assert_eq!(collected, vec![(10, 100)]);
        // A cursor at the head gets nothing.
        assert_eq!(ring.since(10).count(), 0);
        assert!(ring.covers(11));
    }

    #[test]
    fn cursor_between_retained_seqs() {
        let mut ring = SeqRing::new(8, 0);
        ring.push(5, ());
        ring.push(9, ());
        // Cursor 7: already saw 5, needs 9.
        assert_eq!(ring.since(7).count(), 1);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let mut ring = SeqRing::new(0, 0);
        ring.push(3, ());
        assert!(ring.is_empty());
        assert_eq!(ring.floor(), 3);
        assert!(ring.covers(3));
        assert!(!ring.covers(2));
    }

    #[test]
    fn zero_capacity_floor_tracks_every_push() {
        let mut ring = SeqRing::new(0, 5);
        assert_eq!(ring.head(), 5);
        for seq in [6u64, 9, 40] {
            ring.push(seq, ());
            assert!(ring.is_empty());
            assert_eq!(ring.floor(), seq);
            // The floor *is* the head: only a fully caught-up cursor
            // (or a future one) is servable, and it gets nothing.
            assert_eq!(ring.head(), seq);
            assert!(ring.covers(seq));
            assert!(!ring.covers(seq - 1));
            assert_eq!(ring.since(seq).count(), 0);
        }
        // Resizing a populated ring down to zero evicts everything and
        // parks the floor on the last evicted seq.
        let mut ring = SeqRing::new(3, 0);
        for seq in 1..=3u64 {
            ring.push(seq, ());
        }
        ring.resize(0);
        assert!(ring.is_empty());
        assert_eq!(ring.floor(), 3);
        assert!(ring.covers(3) && !ring.covers(2));
        // And it behaves like a born-zero ring afterwards.
        ring.push(7, ());
        assert_eq!((ring.len(), ring.floor()), (0, 7));
    }

    #[test]
    fn cursor_exactly_at_floor_is_lossless() {
        let mut ring = SeqRing::new(2, 0);
        for seq in [3u64, 5, 8] {
            ring.push(seq, seq);
        }
        // Evicted: 3 → floor 3. A cursor sitting exactly on the floor
        // saw the evicted event (it *is* that seq), so service is
        // lossless: everything after it is retained.
        assert_eq!(ring.floor(), 3);
        assert!(ring.covers(3));
        let got: Vec<u64> = ring.since(3).map(|(s, _)| s).collect();
        assert_eq!(got, vec![5, 8]);
        // One below the floor, event 3 itself is gone: not servable.
        assert!(!ring.covers(2));
    }

    #[test]
    fn multi_wrap_keeps_exactly_the_suffix() {
        let mut ring = SeqRing::new(4, 0);
        for seq in 1..=20u64 {
            ring.push(seq, seq * 100);
        }
        // Five full wraps: only the last `cap` survive, floor trails
        // the oldest survivor by exactly one.
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.floor(), 16);
        assert_eq!(ring.head(), 20);
        assert!(ring.covers(16) && !ring.covers(15));
        let got: Vec<(u64, u64)> = ring.since(16).map(|(s, &v)| (s, v)).collect();
        assert_eq!(got, vec![(17, 1700), (18, 1800), (19, 1900), (20, 2000)]);
        // Growing mid-stream widens retention from now on without
        // resurrecting anything already evicted.
        ring.resize(6);
        for seq in 21..=23u64 {
            ring.push(seq, seq * 100);
        }
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.floor(), 17);
        assert_eq!(
            ring.since(17).map(|(s, _)| s).collect::<Vec<_>>(),
            (18..=23).collect::<Vec<_>>()
        );
    }

    #[test]
    fn resize_shrink_evicts_oldest() {
        let mut ring = SeqRing::new(4, 0);
        for seq in 1..=4u64 {
            ring.push(seq, ());
        }
        ring.resize(2);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.floor(), 2);
        assert_eq!(
            ring.since(2).map(|(s, _)| s).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }
}
