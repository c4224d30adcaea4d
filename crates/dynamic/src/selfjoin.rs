//! The Appendix A engine: constant-delay enumeration for
//! `ϕ₂(x, y, z₁, z₂) = (Exx ∧ Exy ∧ Eyy ∧ Ez₁z₂)` under updates
//! (Lemma A.2).
//!
//! `ϕ₂` is *not* q-hierarchical and its core is itself, so it falls outside
//! Theorem 3.2 — yet the paper shows it is maintainable: the result is
//! `ϕ₁(D) × E^D` with `ϕ₁(x,y) = Exx ∧ Exy ∧ Eyy`, and whenever the result
//! is nonempty there is a loop `(c₀,c₀) ∈ E`. The enumeration first reports
//! `(c₀, c₀) × E^D` — at least `|E|` tuples — and uses that guaranteed
//! budget to compute, a constant slice per emitted tuple, the remaining
//! pairs `ϕ₁(D) \ {(c₀,c₀)}` by one linear scan over `E`; afterwards it
//! reports those pairs crossed with `E^D`.
//!
//! Updates are O(1): the engine maintains the edge list, the loop list, and
//! membership hashes. (Counting is *not* offered — `|ϕ₁(D)|` maintenance is
//! exactly the counting problem Theorem 3.5 proves hard.)

use crate::engine::{DynamicEngine, ResultDelta};
use cqu_common::FxHashMap;
use cqu_query::{parse_query, Query, RelId};
use cqu_storage::{Const, Update};

/// Stable O(1)-update set-with-iteration: a vector plus position map
/// (swap-remove deletion).
#[derive(Debug, Default, Clone)]
struct VecSet {
    items: Vec<(Const, Const)>,
    pos: FxHashMap<(Const, Const), usize>,
}

impl VecSet {
    fn insert(&mut self, e: (Const, Const)) -> bool {
        if self.pos.contains_key(&e) {
            return false;
        }
        self.pos.insert(e, self.items.len());
        self.items.push(e);
        true
    }

    fn remove(&mut self, e: (Const, Const)) -> bool {
        match self.pos.remove(&e) {
            None => false,
            Some(i) => {
                self.items.swap_remove(i);
                if let Some(moved) = self.items.get(i) {
                    self.pos.insert(*moved, i);
                }
                true
            }
        }
    }

    fn contains(&self, e: &(Const, Const)) -> bool {
        self.pos.contains_key(e)
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// Dynamic engine for the `ϕ₂` family (Lemma A.2).
pub struct Phi2Engine {
    query: Query,
    rel: RelId,
    edges: VecSet,
    loops: VecSet,
}

impl Phi2Engine {
    /// Creates the engine over the empty database. The query is fixed:
    /// `Q(x, y, z1, z2) :- E(x,x), E(x,y), E(y,y), E(z1,z2)`.
    pub fn new() -> Self {
        let query = parse_query("Q(x, y, z1, z2) :- E(x,x), E(x,y), E(y,y), E(z1,z2).")
            .expect("fixed query parses");
        let rel = query.schema().relation("E").unwrap();
        Phi2Engine {
            query,
            rel,
            edges: VecSet::default(),
            loops: VecSet::default(),
        }
    }

    /// Number of edges currently stored.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of loops `(c, c)` currently stored.
    pub fn num_loops(&self) -> usize {
        self.loops.len()
    }

    /// The edge and loop sets *are* `E`: the engine's state is the
    /// relation itself, kept as state rather than as a guard.
    fn toggle(&mut self, fact: &Update) {
        assert_eq!(
            fact.relation(),
            self.rel,
            "ϕ₂ engine has a single relation E"
        );
        let t = fact.tuple();
        let e = (t[0], t[1]);
        let changed = if fact.is_insert() {
            self.edges.insert(e)
        } else {
            self.edges.remove(e)
        };
        debug_assert!(changed, "ϕ₂ engine handed a no-op {fact:?}");
        if e.0 == e.1 {
            if fact.is_insert() {
                self.loops.insert(e);
            } else {
                self.loops.remove(e);
            }
        }
    }

    /// Native delta extraction for the Lemma A.2 engine: one linear scan
    /// over `E` per update plus `O(δ)` emission — far below the
    /// `Θ(|ϕ₁| · |E|)` a snapshot diff costs here. (Maintaining `ϕ₁`
    /// incrementally is what Theorem 3.5 conditionally forbids; the
    /// per-update scan is the natural price, and `δ` itself is `Ω(|E|)`
    /// whenever a pair enters or leaves `ϕ₁`.)
    fn toggle_tracked(&mut self, fact: &Update, delta: &mut ResultDelta) {
        let t = fact.tuple();
        let e = (t[0], t[1]);
        let insert = fact.is_insert();
        // added  = ϕ₁_old × {e}  ∪  (ϕ₁_new ∖ ϕ₁_old) × E_new
        // removed = (ϕ₁_old ∖ ϕ₁_new) × E_old  ∪  ϕ₁_new × {e}
        // — both unions disjoint, so raw pushes need no dedup.
        if insert {
            let lp = |v: Const| self.loops.contains(&(v, v));
            for &(x, y) in &self.edges.items {
                if lp(x) && lp(y) {
                    delta.added.push(vec![x, y, e.0, e.1]);
                }
            }
            // Pairs entering ϕ₁ because of e.
            let mut new_pairs: Vec<(Const, Const)> = Vec::new();
            if e.0 == e.1 {
                let c = e.0;
                for &(x, y) in &self.edges.items {
                    let now = (x == c || lp(x)) && (y == c || lp(y));
                    if now && !(lp(x) && lp(y)) {
                        new_pairs.push((x, y));
                    }
                }
                new_pairs.push((c, c)); // the inserted loop edge itself
            } else if lp(e.0) && lp(e.1) {
                new_pairs.push(e);
            }
            self.toggle(fact);
            for &(x, y) in &new_pairs {
                for &(z1, z2) in &self.edges.items {
                    delta.added.push(vec![x, y, z1, z2]);
                }
            }
        } else {
            // Pairs leaving ϕ₁ (evaluated on the pre-delete state).
            let lp = |v: Const| self.loops.contains(&(v, v));
            let mut dead_pairs: Vec<(Const, Const)> = Vec::new();
            if e.0 == e.1 {
                let c = e.0;
                for &(x, y) in &self.edges.items {
                    if lp(x) && lp(y) && (x == c || y == c) {
                        dead_pairs.push((x, y));
                    }
                }
            } else if lp(e.0) && lp(e.1) {
                dead_pairs.push(e);
            }
            for &(x, y) in &dead_pairs {
                for &(z1, z2) in &self.edges.items {
                    delta.removed.push(vec![x, y, z1, z2]);
                }
            }
            self.toggle(fact);
            for &(x, y) in &self.edges.items {
                if self.loops.contains(&(x, x)) && self.loops.contains(&(y, y)) {
                    delta.removed.push(vec![x, y, e.0, e.1]);
                }
            }
        }
    }
}

impl Default for Phi2Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicEngine for Phi2Engine {
    fn query(&self) -> &Query {
        &self.query
    }

    fn apply_net(&mut self, net: &[Update]) {
        for fact in net {
            self.toggle(fact);
        }
    }

    fn apply_net_tracked(&mut self, net: &[Update], delta: &mut ResultDelta) {
        for fact in net {
            self.toggle_tracked(fact, delta);
        }
    }

    /// `|ϕ₂(D)| = |ϕ₁(D)| · |E|`. Computing `|ϕ₁(D)|` under updates is
    /// conditionally hard (Theorem 3.5); this engine deliberately performs
    /// the linear-time computation on demand rather than maintaining it.
    fn count(&self) -> u64 {
        let pairs = self
            .edges
            .items
            .iter()
            .filter(|(a, b)| self.loops.contains(&(*a, *a)) && self.loops.contains(&(*b, *b)))
            .count() as u64;
        pairs * self.edges.len() as u64
    }

    fn is_nonempty(&self) -> bool {
        // ϕ₂(D) ≠ ∅ iff some loop exists: (c,c) gives (c,c,c,c).
        self.loops.len() > 0
    }

    fn delta_hint(&self) -> bool {
        true
    }

    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<Const>> + 'a> {
        Box::new(Phi2Iter::new(self))
    }
}

/// The two-phase amortised iterator of Lemma A.2.
struct Phi2Iter<'a> {
    e: &'a Phi2Engine,
    /// The pivot loop `(c₀, c₀)`, if any.
    c0: Option<Const>,
    /// Phase 1 position in the edge list (`(c₀,c₀,z₁,z₂)` outputs).
    phase1_pos: usize,
    /// Progress of the background scan computing `pairs`.
    scan_pos: usize,
    /// `ϕ₁(D) \ {(c₀,c₀)}`, filled incrementally during phase 1.
    pairs: Vec<(Const, Const)>,
    /// Phase 2 positions.
    pair_pos: usize,
    edge_pos: usize,
}

/// Edges scanned per emitted tuple in phase 1. Any constant ≥ 1 keeps the
/// scan ahead of the |E| phase-1 emissions; 2 leaves slack.
const SCAN_BUDGET: usize = 2;

impl<'a> Phi2Iter<'a> {
    fn new(e: &'a Phi2Engine) -> Self {
        let c0 = e.loops.items.first().map(|&(c, _)| c);
        Phi2Iter {
            e,
            c0,
            phase1_pos: 0,
            scan_pos: 0,
            pairs: Vec::new(),
            pair_pos: 0,
            edge_pos: 0,
        }
    }

    /// Advances the background scan by [`SCAN_BUDGET`] edges: an edge
    /// `(a, b)` contributes the pair `(a, b)` iff both loops exist and it
    /// is not the pivot pair.
    fn scan_step(&mut self) {
        let c0 = self.c0.expect("scan only runs in phase 1");
        for _ in 0..SCAN_BUDGET {
            if self.scan_pos >= self.e.edges.items.len() {
                return;
            }
            let (a, b) = self.e.edges.items[self.scan_pos];
            self.scan_pos += 1;
            if (a, b) != (c0, c0)
                && self.e.loops.contains(&(a, a))
                && self.e.loops.contains(&(b, b))
            {
                self.pairs.push((a, b));
            }
        }
    }
}

impl Iterator for Phi2Iter<'_> {
    type Item = Vec<Const>;

    fn next(&mut self) -> Option<Vec<Const>> {
        let c0 = self.c0?;
        // Phase 1: (c0, c0) × E, scanning as we go.
        if self.phase1_pos < self.e.edges.items.len() {
            let (z1, z2) = self.e.edges.items[self.phase1_pos];
            self.phase1_pos += 1;
            self.scan_step();
            return Some(vec![c0, c0, z1, z2]);
        }
        // Finish any scan remainder (only when |E| is tiny relative to the
        // budget this loop runs more than O(1) times; |E| ≥ 1 and
        // SCAN_BUDGET ≥ 1 bound it by a constant in general).
        while self.scan_pos < self.e.edges.items.len() {
            self.scan_step();
        }
        // Phase 2: pairs × E.
        if self.pair_pos >= self.pairs.len() {
            return None;
        }
        let (x, y) = self.pairs[self.pair_pos];
        let (z1, z2) = self.e.edges.items[self.edge_pos];
        self.edge_pos += 1;
        if self.edge_pos == self.e.edges.items.len() {
            self.edge_pos = 0;
            self.pair_pos += 1;
        }
        Some(vec![x, y, z1, z2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Standalone;

    /// The engine with its own `E`, which filters the no-ops out.
    fn fresh() -> Standalone<Phi2Engine> {
        Standalone::from_empty(Phi2Engine::new())
    }

    fn ins(e: &mut Standalone<Phi2Engine>, a: Const, b: Const) {
        let u = Update::Insert(e.rel, vec![a, b]);
        e.apply(&u);
    }

    fn del(e: &mut Standalone<Phi2Engine>, a: Const, b: Const) {
        let u = Update::Delete(e.rel, vec![a, b]);
        e.apply(&u);
    }

    /// Reference: ϕ₂(D) by brute force.
    fn brute(edges: &[(Const, Const)]) -> Vec<Vec<Const>> {
        let has = |a: Const, b: Const| edges.contains(&(a, b));
        let mut out = Vec::new();
        for &(x, y) in edges {
            if has(x, x) && has(y, y) {
                for &(z1, z2) in edges {
                    out.push(vec![x, y, z1, z2]);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn check(e: &Phi2Engine, edges: &[(Const, Const)]) {
        let mut got: Vec<Vec<Const>> = e.enumerate().collect();
        let n = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), n, "enumeration produced duplicates");
        assert_eq!(got, brute(edges));
        assert_eq!(e.count() as usize, n);
        assert_eq!(e.is_nonempty(), n > 0);
    }

    #[test]
    fn empty_and_loopless() {
        let e = fresh();
        check(&e, &[]);
        let mut e = fresh();
        ins(&mut e, 1, 2);
        ins(&mut e, 2, 3);
        check(&e, &[(1, 2), (2, 3)]);
        assert!(!e.is_nonempty());
    }

    #[test]
    fn single_loop() {
        let mut e = fresh();
        ins(&mut e, 5, 5);
        check(&e, &[(5, 5)]);
        // Result: (5,5,5,5) only.
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn paper_shape_small_graph() {
        let mut e = fresh();
        let edges = [(1, 1), (2, 2), (1, 2), (2, 3), (3, 3), (3, 1)];
        for &(a, b) in &edges {
            ins(&mut e, a, b);
        }
        check(&e, &edges);
        // ϕ₁ pairs: (1,1),(2,2),(3,3),(1,2),(2,3),(3,1) — all ends looped.
        assert_eq!(e.count(), 6 * 6);
    }

    #[test]
    fn updates_including_pivot_deletion() {
        let mut e = fresh();
        let mut live: Vec<(Const, Const)> = Vec::new();
        let script: &[(bool, Const, Const)] = &[
            (true, 1, 1),
            (true, 2, 2),
            (true, 1, 2),
            (true, 4, 5),
            (false, 1, 1), // delete a pivot-candidate loop
            (true, 3, 3),
            (false, 2, 2),
            (true, 2, 2),
            (false, 4, 5),
        ];
        for &(insert, a, b) in script {
            if insert {
                ins(&mut e, a, b);
                live.push((a, b));
            } else {
                del(&mut e, a, b);
                live.retain(|&p| p != (a, b));
            }
            check(&e, &live);
        }
    }

    #[test]
    fn tracked_deltas_match_brute_force_diff() {
        let mut e = fresh();
        let mut live: Vec<(Const, Const)> = Vec::new();
        let script: &[(bool, Const, Const)] = &[
            (true, 1, 1),
            (true, 1, 2),
            (true, 2, 2),
            (true, 3, 4),
            (false, 1, 1),
            (true, 1, 1),
            (false, 2, 2),
            (true, 3, 3),
            (false, 1, 2),
            (false, 3, 4),
            (true, 2, 2), // duplicate territory: reinsert after delete
            (true, 2, 2), // set-semantics no-op
        ];
        for &(insert, a, b) in script {
            let before = brute(&live);
            let rel = e.rel;
            let u = if insert {
                Update::Insert(rel, vec![a, b])
            } else {
                Update::Delete(rel, vec![a, b])
            };
            let mut got = ResultDelta::default();
            let changed = e.apply_tracked(&u, &mut got);
            if insert {
                if changed {
                    live.push((a, b));
                }
            } else if changed {
                live.retain(|&p| p != (a, b));
            }
            got.normalize();
            let mut want = ResultDelta::default();
            crate::engine::diff_sorted_into(&before, &brute(&live), &mut want);
            assert_eq!(got, want, "delta of {u:?}");
            check(&e, &live);
        }
    }

    #[test]
    fn duplicate_updates_are_noops() {
        let mut e = fresh();
        ins(&mut e, 1, 1);
        ins(&mut e, 1, 1);
        assert_eq!(e.num_edges(), 1);
        assert_eq!(e.num_loops(), 1);
        del(&mut e, 1, 1);
        del(&mut e, 1, 1);
        assert_eq!(e.num_edges(), 0);
        assert_eq!(e.num_loops(), 0);
    }

    #[test]
    fn enumeration_is_duplicate_free_on_dense_graph() {
        let mut e = fresh();
        let mut edges = Vec::new();
        for a in 1..=4u64 {
            for b in 1..=4u64 {
                ins(&mut e, a, b);
                edges.push((a, b));
            }
        }
        check(&e, &edges);
        // ϕ₁ = all 16 pairs (every vertex looped); result = 16 × 16.
        assert_eq!(e.count(), 256);
    }
}
