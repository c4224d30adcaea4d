//! The recompute baseline: O(1) updates, full re-evaluation per request.
//!
//! This is the opposite corner of the design space from the paper's
//! engine: updates just touch the stored relations, and every `count` /
//! `answer` / `enumerate` call re-runs the join from scratch. It works for
//! *every* conjunctive query — including the non-q-hierarchical ones the
//! dynamic engine rejects — at `Ω(‖D‖)` cost per request, which is exactly
//! the trade-off the paper's lower bounds say is unavoidable for hard
//! queries.

use crate::join::JoinEvaluator;
use cqu_dynamic::DynamicEngine;
use cqu_query::Query;
use cqu_storage::{Const, Database, Update};

/// Recompute-per-request baseline engine.
pub struct RecomputeEngine {
    query: Query,
    /// The relations the query reads: the engine's state is this part of
    /// `D`, so it keeps it as state (the caller still decides which
    /// updates are effective).
    db: Database,
}

impl RecomputeEngine {
    /// Builds the engine over the relations of `db0` the query reads.
    pub fn new(query: &Query, db0: &Database) -> Self {
        let mut engine = Self::empty(query);
        engine.load(db0);
        engine
    }

    /// Builds the engine over the empty database.
    pub fn empty(query: &Query) -> Self {
        let db = Database::new(query.schema().clone());
        RecomputeEngine {
            query: query.clone(),
            db,
        }
    }
}

impl DynamicEngine for RecomputeEngine {
    fn query(&self) -> &Query {
        &self.query
    }

    fn apply_net(&mut self, net: &[Update]) {
        let changed = self.db.apply_all(net);
        debug_assert_eq!(changed, net.len(), "recompute engine handed a no-op");
    }

    fn count(&self) -> u64 {
        JoinEvaluator::new(&self.query, &self.db).count()
    }

    fn is_nonempty(&self) -> bool {
        JoinEvaluator::new(&self.query, &self.db).is_nonempty()
    }

    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<Const>> + 'a> {
        Box::new(
            JoinEvaluator::new(&self.query, &self.db)
                .results()
                .into_iter(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_dynamic::Standalone;
    use cqu_query::parse_query;

    #[test]
    fn tracks_updates() {
        let q = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        let mut e = Standalone::from_empty(RecomputeEngine::empty(&q));
        let s = q.schema().relation("S").unwrap();
        let er = q.schema().relation("E").unwrap();
        let t = q.schema().relation("T").unwrap();
        assert_eq!(e.count(), 0);
        assert!(e.apply(&Update::Insert(s, vec![1])));
        assert!(e.apply(&Update::Insert(er, vec![1, 2])));
        assert!(e.apply(&Update::Insert(t, vec![2])));
        assert_eq!(e.count(), 1);
        assert_eq!(e.results_sorted(), vec![vec![1, 2]]);
        assert!(e.apply(&Update::Delete(s, vec![1])));
        assert_eq!(e.count(), 0);
        assert!(!e.apply(&Update::Delete(s, vec![1])), "no-op delete");
    }

    #[test]
    fn handles_hard_queries_the_dynamic_engine_rejects() {
        let q = parse_query("Q(x) :- E(x, y), T(y).").unwrap();
        assert!(cqu_dynamic::QhEngine::empty(&q).is_err());
        let mut e = Standalone::from_empty(RecomputeEngine::empty(&q));
        let er = q.schema().relation("E").unwrap();
        let t = q.schema().relation("T").unwrap();
        e.apply(&Update::Insert(er, vec![1, 5]));
        e.apply(&Update::Insert(er, vec![2, 6]));
        e.apply(&Update::Insert(t, vec![5]));
        assert_eq!(e.results_sorted(), vec![vec![1]]);
        assert_eq!(e.count(), 1);
        assert!(e.answer());
    }
}
