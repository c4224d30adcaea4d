//! Lemma 5.8: counting result tuples inside a box product
//! `X_{x₁} × ⋯ × X_{x_k}` with O(1) counting time, given any dynamic
//! counting engine for the query.
//!
//! The counting lower bound (Theorem 3.5) needs to count only the result
//! tuples whose coordinates land in designated pairwise-disjoint sets
//! ("boxes"). The paper's trick: maintain `(k+1)·2^k` auxiliary databases
//! `D_{I,ℓ}` — for each subset `I ⊆ [k]` of boxes, every element of
//! `⋃_{i∈I} X_{xᵢ}` is replaced by `ℓ` copies. Then
//!
//! ```text
//!   |ϕ(D_{I,ℓ})| = Σ_j ℓ^j · |R_{I,j}|
//! ```
//!
//! where `R_{I,j}` counts result tuples with exactly `j` coordinates in
//! `I`'s boxes. Reading the counts for `ℓ = 0,…,k` gives a Vandermonde
//! system whose leading coefficient is a `k`-th finite difference:
//!
//! ```text
//!   |R_{I,k}| = (1/k!) Σ_ℓ (-1)^{k-ℓ} C(k,ℓ) |ϕ(D_{I,ℓ})| .
//! ```
//!
//! Inclusion–exclusion over `I` (Eq. (8) of the paper) then yields
//! `|R(D)|`, the tuples hitting *all* `k` boxes in some order, and dividing
//! by the size of the permutation group `Π` (permutations `π` for which
//! `xᵢ ↦ x_{π(i)}` extends to an endomorphism) gives
//! `|ϕ(D) ∩ (X₁ × ⋯ × X_k)|`.
//!
//! As in the paper's simplified proof, correctness is guaranteed when
//! every database under consideration admits a homomorphism `g : D → ϕ`
//! with `g(X_{xᵢ}) = {xᵢ}` — exactly the shape of all Section 5 reduction
//! databases.

use cqu_common::{FxHashMap, FxHashSet};
use cqu_dynamic::Standalone;
use cqu_query::homomorphism::find_homomorphism_with;
use cqu_query::Query;
use cqu_storage::{Const, Update};

/// A Lemma 5.8 box counter over a k-ary query.
pub struct BoxCounter {
    query: Query,
    k: usize,
    /// `box_of[c] = i` iff `c ∈ X_{xᵢ}`.
    box_of: FxHashMap<Const, usize>,
    /// `|Π|`: permutations of the free tuple extending to endomorphisms.
    pi_size: u64,
    /// Engines indexed `[mask][ℓ]`, `mask ⊆ [k]` as a bitmask, `ℓ ∈ 0..=k`.
    engines: Vec<Vec<Box<Standalone>>>,
}

impl BoxCounter {
    /// Builds the counter over the empty database.
    ///
    /// `boxes[i]` is `X_{xᵢ}` for the `i`-th free variable; the sets must
    /// be pairwise disjoint. `factory` constructs a fresh stand-alone
    /// counting engine for `query` over the empty database (e.g. a
    /// delta-IVM one); `(k+1)·2^k` of them are created.
    pub fn new(
        query: &Query,
        boxes: &[FxHashSet<Const>],
        factory: &dyn Fn(&Query) -> Box<Standalone>,
    ) -> Self {
        let k = query.arity();
        assert_eq!(boxes.len(), k, "one box per free variable");
        assert!((1..=8).contains(&k), "box counting supports 1 ≤ k ≤ 8");
        let mut box_of: FxHashMap<Const, usize> = FxHashMap::default();
        for (i, b) in boxes.iter().enumerate() {
            for &c in b {
                let prev = box_of.insert(c, i);
                assert!(prev.is_none(), "boxes must be pairwise disjoint");
            }
        }
        // Π: permutations π of [k] whose free-tuple relabeling extends to
        // an endomorphism of ϕ.
        let free = query.free().to_vec();
        let mut pi_size = 0u64;
        let mut perm: Vec<usize> = (0..k).collect();
        loop {
            let fixed: Vec<_> = (0..k).map(|i| (free[i], free[perm[i]])).collect();
            if find_homomorphism_with(query, query, &fixed).is_some() {
                pi_size += 1;
            }
            if !next_permutation(&mut perm) {
                break;
            }
        }
        debug_assert!(pi_size >= 1, "the identity is always an endomorphism");
        let engines: Vec<Vec<Box<Standalone>>> = (0..1usize << k)
            .map(|_| (0..=k).map(|_| factory(query)).collect())
            .collect();
        BoxCounter {
            query: query.clone(),
            k,
            box_of,
            pi_size,
            engines,
        }
    }

    /// `|Π|` — the endomorphism permutation group size of the free tuple.
    pub fn pi_size(&self) -> u64 {
        self.pi_size
    }

    /// Applies an update to every auxiliary database: each original fact
    /// expands to all copy combinations of its box-element positions
    /// (`ℓ^{#box positions}` facts; none when `ℓ = 0` and a box element
    /// occurs). Update time is `2^{O(k)}` times the inner engine's.
    pub fn apply(&mut self, update: &Update) {
        let rel = update.relation();
        let tuple = update.tuple().to_vec();
        let insert = update.is_insert();
        let kc = self.k as Const + 2;
        for mask in 0..(1usize << self.k) {
            // Positions holding elements of boxes selected by `mask`.
            let box_positions: Vec<usize> = tuple
                .iter()
                .enumerate()
                .filter(|(_, c)| self.box_of.get(c).is_some_and(|&i| mask >> i & 1 == 1))
                .map(|(p, _)| p)
                .collect();
            for ell in 0..=self.k {
                let engine = &mut self.engines[mask][ell];
                if ell == 0 && !box_positions.is_empty() {
                    continue; // zero copies: the fact vanishes entirely.
                }
                // Base encoding: copy 0 everywhere.
                let base: Vec<Const> = tuple.iter().map(|&c| c * kc).collect();
                // Cartesian product of copy choices over box positions.
                let mut choice = vec![1usize; box_positions.len()];
                loop {
                    let mut fact = base.clone();
                    for (idx, &p) in box_positions.iter().enumerate() {
                        fact[p] = tuple[p] * kc + choice[idx] as Const;
                    }
                    let u = if insert {
                        Update::Insert(rel, fact)
                    } else {
                        Update::Delete(rel, fact)
                    };
                    engine.apply(&u);
                    // Odometer over 1..=ell per position.
                    let mut pos = 0;
                    loop {
                        if pos == choice.len() {
                            break;
                        }
                        choice[pos] += 1;
                        if choice[pos] <= ell {
                            break;
                        }
                        choice[pos] = 1;
                        pos += 1;
                    }
                    if pos == choice.len() {
                        break;
                    }
                    if choice.is_empty() {
                        break;
                    }
                }
            }
        }
    }

    /// `|R_{mask,k}|`: result tuples with all `k` coordinates in the boxes
    /// selected by `mask` — the leading Vandermonde coefficient, extracted
    /// as a k-th finite difference of the engine counts.
    fn r_k(&self, mask: usize) -> i128 {
        let k = self.k as i128;
        let mut sum: i128 = 0;
        for ell in 0..=self.k {
            let c = self.engines[mask][ell].count() as i128;
            let sign = if (self.k - ell).is_multiple_of(2) {
                1
            } else {
                -1
            };
            sum += sign * binomial(self.k, ell) * c;
        }
        let fact: i128 = (1..=k).product();
        debug_assert_eq!(sum % fact, 0, "finite difference must be divisible by k!");
        sum / fact
    }

    /// `|ϕ(D) ∩ (X₁ × ⋯ × X_k)|` in O(2^k) count reads (Eq. (5)+(8)).
    pub fn count(&self) -> u64 {
        let full = (1usize << self.k) - 1;
        let mut r: i128 = 0;
        for i_mask in 0..(1usize << self.k) {
            let sign = if (i_mask as u32).count_ones().is_multiple_of(2) {
                1
            } else {
                -1
            };
            r += sign * self.r_k(full & !i_mask);
        }
        debug_assert!(r >= 0, "inclusion-exclusion must be non-negative");
        debug_assert_eq!(r % self.pi_size as i128, 0, "|R(D)| = |ϕ∩boxes| · |Π|");
        (r / self.pi_size as i128) as u64
    }

    /// The query being counted.
    pub fn query(&self) -> &Query {
        &self.query
    }
}

fn binomial(n: usize, k: usize) -> i128 {
    let mut out: i128 = 1;
    for i in 0..k.min(n - k) {
        out = out * (n - i) as i128 / (i + 1) as i128;
    }
    out
}

/// Lexicographic next permutation; returns `false` after the last one.
fn next_permutation(perm: &mut [usize]) -> bool {
    let n = perm.len();
    if n < 2 {
        return false;
    }
    let mut i = n - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = n - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_baseline::{evaluate, EngineKind};
    use cqu_query::parse_query;
    use cqu_storage::Database;

    type EngineFactory = dyn Fn(&Query) -> Box<Standalone>;

    fn ivm_factory() -> Box<EngineFactory> {
        Box::new(|q: &Query| {
            let empty = Database::new(q.schema().clone());
            EngineKind::DeltaIvm.build(q, &empty).unwrap()
        })
    }

    /// Brute force |ϕ(D) ∩ boxes| via full evaluation.
    fn brute(q: &Query, db: &Database, boxes: &[FxHashSet<Const>]) -> u64 {
        evaluate(q, db)
            .into_iter()
            .filter(|t| t.iter().zip(boxes).all(|(c, b)| b.contains(c)))
            .count() as u64
    }

    #[test]
    fn loop_query_reduction_shape() {
        // ϕ(x, y) = (Exx ∧ Exy ∧ Eyy) over a D(ϕ, M, u, v)-shaped database:
        // loops on a-side rows (u), loops on b-side columns (v), edges (M).
        let q = parse_query("Q(x, y) :- E(x,x), E(x,y), E(y,y).").unwrap();
        let n = 4u64;
        let xa: FxHashSet<Const> = (1..=n).collect();
        let xb: FxHashSet<Const> = (n + 1..=2 * n).collect();
        let factory = ivm_factory();
        let mut counter = BoxCounter::new(&q, &[xa.clone(), xb.clone()], &factory);
        assert_eq!(counter.pi_size(), 1, "swap is not an endomorphism of ϕ1");
        let mut db = Database::new(q.schema().clone());
        let e = q.schema().relation("E").unwrap();
        let step = |counter: &mut BoxCounter, db: &mut Database, u: Update| {
            db.apply(&u);
            counter.apply(&u);
        };
        // u = (1,0,1,1), v = (1,1,0,1), M with a few entries.
        for i in [1u64, 3, 4] {
            step(&mut counter, &mut db, Update::Insert(e, vec![i, i]));
        }
        for j in [1u64, 2, 4] {
            step(&mut counter, &mut db, Update::Insert(e, vec![n + j, n + j]));
        }
        for (i, j) in [(1u64, 1u64), (1, 2), (3, 3), (4, 2), (2, 1)] {
            step(&mut counter, &mut db, Update::Insert(e, vec![i, n + j]));
        }
        assert_eq!(counter.count(), brute(&q, &db, &[xa.clone(), xb.clone()]));
        // Deletions too.
        step(&mut counter, &mut db, Update::Delete(e, vec![1, 1]));
        assert_eq!(counter.count(), brute(&q, &db, &[xa.clone(), xb.clone()]));
        step(&mut counter, &mut db, Update::Delete(e, vec![n + 2, n + 2]));
        assert_eq!(counter.count(), brute(&q, &db, &[xa, xb]));
    }

    #[test]
    fn symmetric_query_has_nontrivial_pi() {
        // ϕ(x, y) = E(x,y) ∧ E(y,x): the swap IS an endomorphism, |Π| = 2.
        let q = parse_query("Q(x, y) :- E(x, y), E(y, x).").unwrap();
        let xa: FxHashSet<Const> = [1, 2].into_iter().collect();
        let xb: FxHashSet<Const> = [11, 12].into_iter().collect();
        let factory = ivm_factory();
        let mut counter = BoxCounter::new(&q, &[xa.clone(), xb.clone()], &factory);
        assert_eq!(counter.pi_size(), 2);
        let mut db = Database::new(q.schema().clone());
        let e = q.schema().relation("E").unwrap();
        // Bipartite both-direction edges: g maps side A ↦ x, side B ↦ y.
        for (a, b) in [(1u64, 11u64), (1, 12), (2, 12)] {
            for u in [Update::Insert(e, vec![a, b]), Update::Insert(e, vec![b, a])] {
                db.apply(&u);
                counter.apply(&u);
            }
        }
        assert_eq!(counter.count(), 3);
        assert_eq!(counter.count(), brute(&q, &db, &[xa.clone(), xb.clone()]));
        let u = Update::Delete(e, vec![1, 12]);
        db.apply(&u);
        counter.apply(&u);
        assert_eq!(counter.count(), brute(&q, &db, &[xa, xb]));
    }

    #[test]
    fn unary_box_counting() {
        // k = 1: count results inside a single box; Π = {id}.
        let q = parse_query("Q(x) :- E(x, y).").unwrap();
        let xa: FxHashSet<Const> = [1, 2, 3].into_iter().collect();
        let factory = ivm_factory();
        let mut counter = BoxCounter::new(&q, std::slice::from_ref(&xa), &factory);
        let mut db = Database::new(q.schema().clone());
        let e = q.schema().relation("E").unwrap();
        for (a, b) in [(1u64, 100u64), (1, 101), (2, 100), (9, 100)] {
            let u = Update::Insert(e, vec![a, b]);
            db.apply(&u);
            counter.apply(&u);
            assert_eq!(counter.count(), brute(&q, &db, std::slice::from_ref(&xa)));
        }
        assert_eq!(
            counter.count(),
            2,
            "x ∈ {{1,2}} have witnesses; 9 is outside the box"
        );
    }

    #[test]
    fn self_join_free_three_boxes() {
        // ϕ_S-E-T-like with k = 2 on reduction-shaped data, then a k = 3
        // star on box-segregated data.
        let q = parse_query("Q(x, y, z) :- R(x, y), S(x, z), T(x).").unwrap();
        let bx: FxHashSet<Const> = (1..=3u64).collect();
        let by: FxHashSet<Const> = (11..=13u64).collect();
        let bz: FxHashSet<Const> = (21..=23u64).collect();
        let factory = ivm_factory();
        let mut counter = BoxCounter::new(&q, &[bx.clone(), by.clone(), bz.clone()], &factory);
        assert_eq!(counter.pi_size(), 1);
        let mut db = Database::new(q.schema().clone());
        let r = q.schema().relation("R").unwrap();
        let s = q.schema().relation("S").unwrap();
        let t = q.schema().relation("T").unwrap();
        let script = [
            Update::Insert(t, vec![1]),
            Update::Insert(t, vec![2]),
            Update::Insert(r, vec![1, 11]),
            Update::Insert(r, vec![1, 12]),
            Update::Insert(r, vec![2, 13]),
            Update::Insert(s, vec![1, 21]),
            Update::Insert(s, vec![2, 22]),
            Update::Insert(s, vec![2, 99]), // z outside its box
            Update::Delete(r, vec![1, 12]),
        ];
        for u in script {
            db.apply(&u);
            counter.apply(&u);
            assert_eq!(
                counter.count(),
                brute(&q, &db, &[bx.clone(), by.clone(), bz.clone()])
            );
        }
    }
}
