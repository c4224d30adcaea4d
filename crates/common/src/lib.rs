//! Shared substrate for the `cq-updates` workspace.
//!
//! This crate provides the low-level building blocks that the rest of the
//! reproduction of *Answering Conjunctive Queries under Updates* (Berkholz,
//! Keppeler, Schweikardt; PODS 2017) is built on:
//!
//! * [`hash`] — an Fx-style fast hasher plus `FxHashMap`/`FxHashSet`
//!   aliases. The paper's RAM-model `d`-ary arrays `A_v` are replaced by
//!   hash maps keyed on (parent item, constant), as the paper's footnote 2
//!   prescribes for real-world machines.
//! * [`slab`] — a slab arena with a free list. Items of the dynamic data
//!   structure (Section 6 of the paper) live in one slab of `Copy` rows per
//!   q-tree node and are addressed by dense `u32` ids, so the intrusive
//!   doubly-linked "fit lists" need no allocation per link operation and a
//!   copy of a slab is one `memcpy`.
//! * [`bitset`] — dense bitsets and square boolean matrices used by the
//!   OMv/OuMv/OV lower-bound machinery (Section 5 of the paper).
//! * [`epoch`] — a hand-rolled arc-swap ([`EpochCell`], written only
//!   through its one [`Publisher`]): lock-free O(1) epoch publication and
//!   pinning, the substrate of the session layer's snapshot fast path.
//! * [`union_find`] — a disjoint-set forest ([`UnionFind`]), used by the
//!   session layer's shard planner to partition relations into
//!   independent write shards by transitive query-footprint overlap.

#![warn(missing_docs)]
pub mod bitset;
pub mod epoch;
pub mod hash;
pub mod slab;
pub mod union_find;

pub use bitset::{BitMatrix, BitSet};
pub use epoch::{EpochCell, Publisher};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use slab::{Slab, SlabId};
pub use union_find::UnionFind;
