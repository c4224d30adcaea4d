//! A slab arena with a free list.
//!
//! The dynamic data structure of Section 6 stores *items* `[v, α, a]` that
//! are created and destroyed as tuples are inserted into and deleted from
//! the database. Items reference each other through intrusive doubly-linked
//! lists, so they need stable, cheap identities: dense `u32` ids into a
//! slab, recycled through a free list. This gives O(1) allocate/free with
//! no per-item heap allocation and keeps neighbouring items close in
//! memory.

/// Identifier of a slot inside a [`Slab`].
///
/// `SlabId::NONE` is the sentinel "null pointer" used by intrusive links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlabId(pub u32);

impl SlabId {
    /// Sentinel id representing "no slot".
    pub const NONE: SlabId = SlabId(u32::MAX);

    /// Returns `true` if this id is the [`SlabId::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }

    /// Returns `true` if this id refers to a slot.
    #[inline]
    pub fn is_some(self) -> bool {
        self != Self::NONE
    }

    /// The raw index of this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

// `Copy` when `T` is: cloning a slab of `Copy` entries is then one
// `memcpy` of the slot vector.
#[derive(Clone, Copy)]
enum Slot<T> {
    Occupied(T),
    /// Free slot, storing the next entry of the free list.
    Vacant(SlabId),
}

/// A growable arena of `T` with O(1) insert and remove and stable ids.
///
/// Cloning a slab (for `T: Clone`) preserves every id — occupied slots,
/// vacancies, and the free list are copied verbatim, so intrusive links
/// stored inside `T` stay valid in the copy. The snapshot machinery of
/// `cqu-dynamic` relies on this. For `T: Copy` the clone is one
/// contiguous copy.
#[derive(Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: SlabId,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: SlabId::NONE,
            len: 0,
        }
    }

    /// Creates an empty slab with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: SlabId::NONE,
            len: 0,
        }
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no slots are occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value`, returning its id. Recycles freed slots first.
    pub fn insert(&mut self, value: T) -> SlabId {
        self.len += 1;
        if self.free_head.is_some() {
            let id = self.free_head;
            match std::mem::replace(&mut self.slots[id.index()], Slot::Occupied(value)) {
                Slot::Vacant(next) => self.free_head = next,
                Slot::Occupied(_) => unreachable!("free list pointed at occupied slot"),
            }
            id
        } else {
            assert!(
                self.slots.len() < u32::MAX as usize - 1,
                "slab exhausted u32 id space"
            );
            let id = SlabId(self.slots.len() as u32);
            self.slots.push(Slot::Occupied(value));
            id
        }
    }

    /// Removes the entry at `id` and returns it.
    ///
    /// # Panics
    /// Panics if `id` is vacant or out of bounds.
    pub fn remove(&mut self, id: SlabId) -> T {
        let slot = std::mem::replace(&mut self.slots[id.index()], Slot::Vacant(self.free_head));
        match slot {
            Slot::Occupied(value) => {
                self.free_head = id;
                self.len -= 1;
                value
            }
            Slot::Vacant(prev) => {
                // Restore the free list before panicking to keep the slab
                // structurally sound for unwinding callers.
                self.slots[id.index()] = Slot::Vacant(prev);
                panic!("slab: remove of vacant slot {id:?}")
            }
        }
    }

    /// Shared access to the entry at `id`, if occupied.
    #[inline]
    pub fn get(&self, id: SlabId) -> Option<&T> {
        match self.slots.get(id.index()) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutable access to the entry at `id`, if occupied.
    #[inline]
    pub fn get_mut(&mut self, id: SlabId) -> Option<&mut T> {
        match self.slots.get_mut(id.index()) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` if `id` refers to an occupied slot.
    #[inline]
    pub fn contains(&self, id: SlabId) -> bool {
        matches!(self.slots.get(id.index()), Some(Slot::Occupied(_)))
    }

    /// Iterates over `(id, &value)` pairs of occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (SlabId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Occupied(v) => Some((SlabId(i as u32), v)),
                Slot::Vacant(_) => None,
            })
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = SlabId::NONE;
        self.len = 0;
    }
}

impl<T> std::ops::Index<SlabId> for Slab<T> {
    type Output = T;

    #[inline]
    fn index(&self, id: SlabId) -> &T {
        match &self.slots[id.index()] {
            Slot::Occupied(v) => v,
            Slot::Vacant(_) => panic!("slab: index of vacant slot {id:?}"),
        }
    }
}

impl<T> std::ops::IndexMut<SlabId> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, id: SlabId) -> &mut T {
        match &mut self.slots[id.index()] {
            Slot::Occupied(v) => v,
            Slot::Vacant(_) => panic!("slab: index of vacant slot {id:?}"),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(id, v)| (id.0, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab[a], "a");
        assert_eq!(slab[b], "b");
        assert_eq!(slab.remove(a), "a");
        assert_eq!(slab.len(), 1);
        assert!(slab.get(a).is_none());
        assert!(slab.contains(b));
    }

    #[test]
    fn ids_are_recycled() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.remove(a);
        let c = slab.insert(3);
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(slab[c], 3);
        assert_eq!(slab[b], 2);
    }

    #[test]
    fn lifo_free_list_order() {
        let mut slab = Slab::new();
        let ids: Vec<_> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(ids[1]);
        slab.remove(ids[3]);
        // Most recently freed first.
        assert_eq!(slab.insert(10), ids[3]);
        assert_eq!(slab.insert(11), ids[1]);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn double_remove_panics() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        slab.remove(a);
    }

    #[test]
    fn iter_skips_vacant() {
        let mut slab = Slab::new();
        let ids: Vec<_> = (0..5).map(|i| slab.insert(i)).collect();
        slab.remove(ids[2]);
        let collected: Vec<_> = slab.iter().map(|(_, &v)| v).collect();
        assert_eq!(collected, vec![0, 1, 3, 4]);
    }

    #[test]
    fn none_sentinel() {
        assert!(SlabId::NONE.is_none());
        assert!(!SlabId::NONE.is_some());
        assert!(SlabId(0).is_some());
    }

    #[test]
    fn stress_mixed_churn() {
        let mut slab = Slab::with_capacity(64);
        let mut live: Vec<(SlabId, u64)> = Vec::new();
        let mut next = 0u64;
        for round in 0..1000 {
            if round % 3 != 2 || live.is_empty() {
                let id = slab.insert(next);
                live.push((id, next));
                next += 1;
            } else {
                let pick = (round * 7919) % live.len();
                let (id, v) = live.swap_remove(pick);
                assert_eq!(slab.remove(id), v);
            }
        }
        assert_eq!(slab.len(), live.len());
        for (id, v) in live {
            assert_eq!(slab[id], v);
        }
    }
}
