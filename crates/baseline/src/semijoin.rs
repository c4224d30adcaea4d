//! Yannakakis-style semi-join baseline.
//!
//! Bagan–Durand–Grandjean \[4\] showed free-connex acyclic queries enumerate
//! with constant delay after linear preprocessing *in the static setting* —
//! and the paper's Section 1.2 stresses that this does **not** carry over
//! to updates (`ϕ_S-E-T` is free-connex yet hard to maintain). This engine
//! makes that comparison concrete: per request it performs a semi-join
//! reduction to a fixpoint (the full-reducer effect of Yannakakis' join
//! tree on acyclic queries) and then joins the reduced relations, so its
//! enumeration never explodes on dangling tuples — but every update
//! invalidates the reduction, which is rebuilt at the next request, paying
//! `Ω(‖D‖)`.
//!
//! Restricted to self-join-free queries (semi-joins reduce per relation);
//! for queries with self-joins it falls back to the plain join.
//!
//! A stand-alone oracle: no session routes to it, and its result deltas
//! are full diffs, `Ω(|ϕ(D)|)` per update.

use crate::join::JoinEvaluator;
use cqu_dynamic::{diff_sorted_into, DynamicEngine, ResultDelta};
use cqu_query::{Query, Var};
use cqu_storage::{Const, Database, Index, Update};

/// Semi-join-reduction baseline engine.
pub struct SemiJoinEngine {
    query: Query,
    /// The relations the query reads: the engine's state is this part of
    /// `D`, so it keeps it as state (the caller still decides which
    /// updates are effective).
    db: Database,
    /// Whether semi-join reduction applies (self-join-free query).
    reduces: bool,
}

impl SemiJoinEngine {
    /// Builds the engine over the empty database.
    pub fn empty(query: &Query) -> Self {
        let db = Database::new(query.schema().clone());
        SemiJoinEngine {
            query: query.clone(),
            db,
            reduces: query.is_self_join_free(),
        }
    }

    /// Returns the semi-join-reduced copy of the current database: every
    /// tuple that cannot participate in a join with each overlapping atom
    /// is dropped, iterated to a fixpoint.
    pub fn reduced_database(&self) -> Database {
        let mut db = self.db.clone();
        if !self.reduces {
            return db;
        }
        let q = &self.query;
        // Shared-variable positions per ordered atom pair.
        struct Pair {
            a: usize,
            b: usize,
            cols_a: Vec<usize>,
            cols_b: Vec<usize>,
        }
        let mut pairs: Vec<Pair> = Vec::new();
        for a in 0..q.atoms().len() {
            for b in 0..q.atoms().len() {
                if a == b {
                    continue;
                }
                let shared: Vec<Var> = q
                    .atom(a)
                    .vars()
                    .into_iter()
                    .filter(|v| q.atom(b).contains(*v))
                    .collect();
                if shared.is_empty() {
                    continue;
                }
                let cols_of = |aid: usize| -> Vec<usize> {
                    shared
                        .iter()
                        .map(|v| q.atom(aid).args.iter().position(|w| w == v).unwrap())
                        .collect()
                };
                pairs.push(Pair {
                    a,
                    b,
                    cols_a: cols_of(a),
                    cols_b: cols_of(b),
                });
            }
        }
        loop {
            let mut changed = false;
            for p in &pairs {
                let rel_a = q.atom(p.a).relation;
                let rel_b = q.atom(p.b).relation;
                let idx_b = Index::build(db.relation(rel_b), p.cols_b.clone());
                let victims: Vec<Vec<Const>> = db
                    .relation(rel_a)
                    .iter()
                    .filter(|t| {
                        let key: Vec<Const> = p.cols_a.iter().map(|&c| t[c]).collect();
                        idx_b.probe(&key).is_empty()
                    })
                    .cloned()
                    .collect();
                for t in victims {
                    db.delete(rel_a, &t);
                    changed = true;
                }
            }
            if !changed {
                return db;
            }
        }
    }
}

impl DynamicEngine for SemiJoinEngine {
    fn query(&self) -> &Query {
        &self.query
    }

    fn apply_net(&mut self, net: &[Update]) {
        let changed = self.db.apply_all(net);
        debug_assert_eq!(changed, net.len(), "semi-join engine handed a no-op");
    }

    /// Diffs the full result before and after the set: two reductions
    /// and joins, `Ω(|ϕ(D)|)` per call, whatever `δ` is.
    fn apply_net_tracked(&mut self, net: &[Update], delta: &mut ResultDelta) {
        let before = self.results_sorted();
        self.apply_net(net);
        diff_sorted_into(&before, &self.results_sorted(), delta);
    }

    fn count(&self) -> u64 {
        let reduced = self.reduced_database();
        JoinEvaluator::new(&self.query, &reduced).count()
    }

    fn is_nonempty(&self) -> bool {
        let reduced = self.reduced_database();
        JoinEvaluator::new(&self.query, &reduced).is_nonempty()
    }

    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<Const>> + 'a> {
        let reduced = self.reduced_database();
        Box::new(
            JoinEvaluator::new(&self.query, &reduced)
                .results()
                .into_iter(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::RecomputeEngine;
    use cqu_dynamic::Standalone;
    use cqu_query::parse_query;

    #[test]
    fn reduction_removes_dangling_tuples() {
        let q = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        let mut e = Standalone::from_empty(SemiJoinEngine::empty(&q));
        let s = q.schema().relation("S").unwrap();
        let er = q.schema().relation("E").unwrap();
        let t = q.schema().relation("T").unwrap();
        e.apply(&Update::Insert(s, vec![1]));
        e.apply(&Update::Insert(s, vec![9]));
        e.apply(&Update::Insert(er, vec![1, 2]));
        e.apply(&Update::Insert(er, vec![7, 8]));
        e.apply(&Update::Insert(t, vec![2]));
        let reduced = e.reduced_database();
        assert_eq!(reduced.relation(s).len(), 1, "S(9) dangles");
        assert_eq!(reduced.relation(er).len(), 1, "E(7,8) dangles");
        assert_eq!(e.results_sorted(), vec![vec![1, 2]]);
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn agrees_with_recompute() {
        for src in [
            "Q(x, y) :- S(x), E(x, y), T(y).",
            "Q(x) :- E(x, y), T(y).",
            "Q(x, y, z) :- R(x, y), S(y, z), T(z).",
            "Q(x, y) :- E(x, x), E(x, y), E(y, y).", // self-join fallback
        ] {
            let q = parse_query(src).unwrap();
            let mut a = Standalone::from_empty(SemiJoinEngine::empty(&q));
            let mut b = Standalone::from_empty(RecomputeEngine::empty(&q));
            let rels: Vec<_> = q.schema().relations().collect();
            for i in 0..60u64 {
                let rel = rels[(i % rels.len() as u64) as usize];
                let arity = q.schema().arity(rel);
                let t: Vec<Const> = (0..arity).map(|p| (i * 3 + p as u64) % 5 + 1).collect();
                let u = if i % 4 == 3 {
                    Update::Delete(rel, t)
                } else {
                    Update::Insert(rel, t)
                };
                assert_eq!(a.apply(&u), b.apply(&u));
            }
            assert_eq!(a.results_sorted(), b.results_sorted(), "{src}");
            assert_eq!(a.count(), b.count(), "{src}");
            assert_eq!(a.is_nonempty(), b.is_nonempty(), "{src}");
        }
    }

    #[test]
    fn empty_relation_empties_everything() {
        let q = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        let mut e = Standalone::from_empty(SemiJoinEngine::empty(&q));
        let s = q.schema().relation("S").unwrap();
        let er = q.schema().relation("E").unwrap();
        e.apply(&Update::Insert(s, vec![1]));
        e.apply(&Update::Insert(er, vec![1, 2]));
        // T is empty: reduction should empty S and E too.
        let reduced = e.reduced_database();
        assert_eq!(reduced.cardinality(), 0);
        assert!(!e.is_nonempty());
    }
}
