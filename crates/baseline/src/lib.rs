//! Baseline dynamic engines for the `cq-updates` reproduction.
//!
//! The paper's dichotomies compare the q-hierarchical dynamic algorithm
//! against "whatever else one could do". This crate supplies those
//! comparators, all implementing [`cqu_dynamic::DynamicEngine`]:
//!
//! * [`RecomputeEngine`] — O(1) updates, full join re-evaluation per
//!   request (the classical static approach applied naively).
//! * [`DeltaIvmEngine`] — classical incremental view maintenance: a
//!   materialised result with per-update delta joins; O(1) requests,
//!   polynomially expensive updates.
//! * [`SemiJoinEngine`] — Yannakakis-style semi-join reduction per request;
//!   the static free-connex comparator of Bagan–Durand–Grandjean.
//! * [`join`] — the shared backtracking join evaluator with greedy plans
//!   and hash indexes.
//!
//! All three work on *every* CQ, including the non-q-hierarchical queries
//! [`cqu_dynamic::QhEngine`] rejects; the benchmarks measure exactly how
//! much that generality costs per update/request as `n` grows.
//! Like the paper's engine they take effective facts from the caller,
//! who owns `D` ([`DynamicEngine`]); recompute and semi-join keep the
//! relations their query reads as their state, delta-IVM keeps none.

#![warn(missing_docs)]
pub mod ivm;
pub mod join;
pub mod naive;
pub mod semijoin;

pub use ivm::{DeltaIvmEngine, DeltaIvmView};
pub use join::{evaluate, JoinEvaluator, JoinPlan};
pub use naive::RecomputeEngine;
pub use semijoin::SemiJoinEngine;

use cqu_dynamic::{DynamicEngine, QhEngine, QhStructure, Standalone};
use cqu_query::{Query, QueryError};
use cqu_storage::Database;

/// Every engine in the workspace, for harnesses that sweep over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// [`cqu_dynamic::QhEngine`] (the paper's algorithm).
    QHierarchical,
    /// [`RecomputeEngine`].
    Recompute,
    /// [`DeltaIvmEngine`].
    DeltaIvm,
    /// [`SemiJoinEngine`].
    SemiJoin,
}

impl EngineKind {
    /// Short display name (used by benches and the experiments binary).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::QHierarchical => "qh-dynamic",
            EngineKind::Recompute => "recompute",
            EngineKind::DeltaIvm => "delta-ivm",
            EngineKind::SemiJoin => "semijoin",
        }
    }

    /// Instantiates the engine over `db0` in its stand-alone form, with
    /// its own copy of `db0` ([`Standalone`]).
    ///
    /// The q-hierarchical engine refuses hard queries; the error carries
    /// the Definition 3.1 violation witness
    /// ([`QueryError::NotQHierarchical`]). The baselines accept every CQ.
    pub fn build(self, q: &Query, db0: &Database) -> Result<Box<Standalone>, QueryError> {
        let engine: Box<Standalone> = match self {
            EngineKind::QHierarchical => Box::new(QhEngine::new(q, db0)?),
            EngineKind::Recompute => Box::new(Standalone::over(RecomputeEngine::empty(q), db0)),
            EngineKind::DeltaIvm => Box::new(Standalone::over(DeltaIvmView::empty(q), db0)),
            EngineKind::SemiJoin => Box::new(Standalone::over(SemiJoinEngine::empty(q), db0)),
        };
        Ok(engine)
    }

    /// Instantiates the engine over the caller's `db`, which the caller
    /// keeps as the one `D` (errors as [`EngineKind::build`]).
    pub fn preprocess(
        self,
        q: &Query,
        db: &Database,
    ) -> Result<Box<dyn DynamicEngine>, QueryError> {
        let mut engine: Box<dyn DynamicEngine> = match self {
            EngineKind::QHierarchical => Box::new(QhStructure::empty(q)?),
            EngineKind::Recompute => Box::new(RecomputeEngine::empty(q)),
            EngineKind::DeltaIvm => Box::new(DeltaIvmView::empty(q)),
            EngineKind::SemiJoin => Box::new(SemiJoinEngine::empty(q)),
        };
        engine.load(db);
        Ok(engine)
    }

    /// Whether this engine kind admits `q` at all.
    pub fn supports(self, q: &Query) -> bool {
        match self {
            EngineKind::QHierarchical => {
                cqu_query::hierarchical::q_hierarchical_violation(q).is_none()
            }
            _ => true,
        }
    }

    /// All engine kinds.
    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::QHierarchical,
            EngineKind::Recompute,
            EngineKind::DeltaIvm,
            EngineKind::SemiJoin,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_query::parse_query;
    use cqu_storage::Update;

    #[test]
    fn engine_kinds_build_where_applicable() {
        let easy = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
        let hard = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        let db_easy = Database::new(easy.schema().clone());
        let db_hard = Database::new(hard.schema().clone());
        for kind in EngineKind::all() {
            assert!(kind.build(&easy, &db_easy).is_ok(), "{}", kind.name());
            assert!(kind.supports(&easy), "{}", kind.name());
        }
        assert!(matches!(
            EngineKind::QHierarchical.build(&hard, &db_hard),
            Err(cqu_query::QueryError::NotQHierarchical(_))
        ));
        assert!(!EngineKind::QHierarchical.supports(&hard));
        assert!(EngineKind::Recompute.build(&hard, &db_hard).is_ok());
    }

    #[test]
    fn all_engines_agree_end_to_end() {
        let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
        let db = Database::new(q.schema().clone());
        let er = q.schema().relation("E").unwrap();
        let tr = q.schema().relation("T").unwrap();
        let mut engines: Vec<(EngineKind, Box<Standalone>)> = EngineKind::all()
            .into_iter()
            .map(|k| (k, k.build(&q, &db).unwrap()))
            .collect();
        let script = [
            Update::Insert(er, vec![1, 2]),
            Update::Insert(er, vec![3, 2]),
            Update::Insert(tr, vec![2]),
            Update::Delete(er, vec![1, 2]),
            Update::Insert(er, vec![3, 4]),
            Update::Insert(tr, vec![4]),
        ];
        for u in &script {
            for (_, e) in engines.iter_mut() {
                e.apply(u);
            }
        }
        let reference = engines[0].1.results_sorted();
        assert_eq!(reference, vec![vec![3, 2], vec![3, 4]]);
        for (k, e) in &engines {
            assert_eq!(e.results_sorted(), reference, "{}", k.name());
            assert_eq!(e.count(), 2, "{}", k.name());
            assert!(e.is_nonempty(), "{}", k.name());
        }
    }
}
