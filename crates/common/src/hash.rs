//! Fx-style hashing.
//!
//! The default `SipHash 1-3` hasher of the standard library is robust
//! against HashDoS but slow for the short integer keys that dominate this
//! workload (database constants are `u64`, item keys are a `u32` row id
//! and a `u64` constant). The Fx algorithm (originating in Firefox and used by rustc)
//! is a simple multiply-xor mix that is dramatically faster for such keys.
//!
//! `rustc-hash` is not on the allowed dependency list for this project, so
//! we carry our own implementation; it is a faithful port of the classic
//! algorithm and is tested for stability below.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hasher: `state = (state.rotate_left(5) ^ word) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

/// The multiplicative seed used by the Fx algorithm (derived from the
/// golden ratio, `2^64 / φ`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_word(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_word(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_word(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Convenience constructor: an empty [`FxHashMap`] with `cap` reserved slots.
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// Convenience constructor: an empty [`FxHashSet`] with `cap` reserved slots.
pub fn set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let build = FxBuildHasher::default();
        let a = build.hash_one(12345u64);
        let b = build.hash_one(12345u64);
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test, just a sanity check that the mix is live.
        let h1 = hash_one(&1u64);
        let h2 = hash_one(&2u64);
        let h3 = hash_one(&3u64);
        assert_ne!(h1, h2);
        assert_ne!(h2, h3);
        assert_ne!(h1, h3);
    }

    #[test]
    fn slices_hash_by_content() {
        let a: &[u64] = &[1, 2, 3];
        let b: Vec<u64> = vec![1, 2, 3];
        assert_eq!(hash_one(&a), hash_one(&b.as_slice()));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(vec![i, i * 2], i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&vec![i, i * 2]), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn unaligned_byte_writes() {
        // 1..=17 bytes exercises the 8/4/1-byte tails.
        for len in 1..=17usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let h1 = hash_one(&bytes);
            let mut tweaked = bytes.clone();
            *tweaked.last_mut().unwrap() ^= 0x80;
            let h2 = hash_one(&tweaked);
            assert_ne!(h1, h2, "len={len}");
        }
    }

    #[test]
    fn with_capacity_constructors() {
        let m: FxHashMap<u64, u64> = map_with_capacity(100);
        assert!(m.capacity() >= 100);
        let s: FxHashSet<u64> = set_with_capacity(50);
        assert!(s.capacity() >= 50);
    }
}
