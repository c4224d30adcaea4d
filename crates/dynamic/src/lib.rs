//! The dynamic query-evaluation algorithm of *Answering Conjunctive
//! Queries under Updates* (Berkholz, Keppeler, Schweikardt; PODS 2017).
//!
//! [`QhStructure`] implements Theorem 3.2: for every **q-hierarchical**
//! conjunctive query it offers
//!
//! * `preprocess` in time `poly(ϕ) · O(‖D₀‖)` ([`DynamicEngine::load`]
//!   builds each q-tree component from the caller's initial database in
//!   one top-down and one bottom-up pass),
//! * `update` in time `poly(ϕ)` per inserted/deleted tuple,
//! * `enumerate` with delay `poly(ϕ)` ([`ResultIter`], Algorithm 1),
//! * `count` (`|ϕ(D)|`) and `answer` in time `O(1)` (reading the maintained
//!   `C̃_start` register / whether the start list of fit root items is
//!   non-empty).
//!
//! **The caller owns `D`** (the paper's structure stores it once): the
//! structure's per-atom counters `C^i_ψ` record which facts are present,
//! so it keeps no database of its own. Its mutations accept only facts
//! the caller found effective against its `D` ([`DynamicEngine`]), and
//! preprocessing loads the caller's `D`. The one set-semantics rule is
//! [`net_effective`]; a session calls it against its own database, and
//! [`Standalone`] pairs an engine with a `D` for everyone else —
//! [`QhEngine`] is the q-tree structure in that form:
//!
//! ```
//! use cqu_dynamic::{DynamicEngine, QhEngine};
//! use cqu_query::parse_query;
//! use cqu_storage::{Database, Update};
//!
//! let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
//! let mut engine = QhEngine::new(&q, &Database::new(q.schema().clone())).unwrap();
//! let e = q.schema().relation("E").unwrap();
//! let t = q.schema().relation("T").unwrap();
//! engine.apply(&Update::Insert(e, vec![1, 2]));
//! engine.apply(&Update::Insert(t, vec![2]));
//! assert_eq!(engine.count(), 1);
//! assert_eq!(engine.results_sorted(), vec![vec![1, 2]]);
//! engine.apply(&Update::Delete(t, vec![2]));
//! assert_eq!(engine.count(), 0);
//! ```
//!
//! Non-q-hierarchical queries are rejected at construction with the
//! Definition 3.1 violation witness — by Theorems 3.3–3.5 no engine of
//! this kind can exist for them (conditionally on OMv/OV). Use the
//! baselines in `cqu-baseline` for those, or [`selfjoin::Phi2Engine`] for
//! the Appendix A product family.

#![warn(missing_docs)]
pub mod audit;
pub mod engine;
pub mod enumerate;
pub mod selfjoin;
pub mod structure;

pub use engine::{
    diff_sorted_into, net_effective, DynamicEngine, MaterializedSnapshot, Netted, ResultDelta,
    ResultSnapshot, Standalone, UpdateReport,
};
pub use enumerate::{ComponentIter, ResultIter};
pub use structure::{ComponentStructure, ItemRegisters};

use cqu_query::qtree::QTree;
use cqu_query::{Query, QueryError, RelId};
use cqu_storage::{Const, Database, Update};
use std::sync::Arc;

/// The q-tree engine in its stand-alone form: a [`QhStructure`] with its
/// own copy of `D`.
pub type QhEngine = Standalone<QhStructure>;

impl Standalone<QhStructure> {
    /// `preprocess(ϕ, D₀)`: builds the q-tree forest and loads `db0` —
    /// `O(poly(ϕ) · ‖D₀‖)` total. Fails with
    /// [`QueryError::NotQHierarchical`] iff `query` is not q-hierarchical.
    pub fn new(query: &Query, db0: &Database) -> Result<Self, QueryError> {
        Ok(Standalone::over(QhStructure::empty(query)?, db0))
    }

    /// `preprocess(ϕ, ∅)`: an engine over the empty database.
    pub fn empty(query: &Query) -> Result<Self, QueryError> {
        Ok(Standalone::from_empty(QhStructure::empty(query)?))
    }
}

/// The dynamic data structure for q-hierarchical conjunctive queries
/// (Theorem 3.2, Section 6), maintained against the caller's `D`.
pub struct QhStructure {
    query: Arc<Query>,
    /// The per-component dynamic structures, behind `Arc`s for epoch
    /// snapshots: a pin clones the `Arc`s (O(1) per component), and the
    /// writer goes copy-on-write — [`Arc::make_mut`] mutates in place
    /// while unshared and clones a component only when a live pin still
    /// references it, at most once per retained pin per component.
    components: Vec<Arc<ComponentStructure>>,
    /// Per component: positions of its output variables within the
    /// query's free tuple (delta assembly scatter map).
    out_slots: Vec<Vec<usize>>,
    /// Items visited by the most recent effective update (see
    /// [`QhEngine::last_update_work`]).
    last_work: u64,
    /// `|ϕ(D)|`, refreshed after every mutation, so a count reads one
    /// field whatever the components' layout.
    count: u64,
}

impl QhStructure {
    /// The structure over the empty database (load a `D₀` with
    /// [`DynamicEngine::load`]). Fails with
    /// [`QueryError::NotQHierarchical`] iff `query` is not
    /// q-hierarchical.
    pub fn empty(query: &Query) -> Result<Self, QueryError> {
        let forest = QTree::forest(query)?;
        let query = Arc::new(query.clone());
        let components: Vec<Arc<ComponentStructure>> = forest
            .into_iter()
            .map(|(comp, tree)| Arc::new(ComponentStructure::new(Arc::clone(&query), comp, tree)))
            .collect();
        let out_slots: Vec<Vec<usize>> = components
            .iter()
            .map(|c| c.output_slots(query.free()))
            .collect();
        Ok(QhStructure {
            query,
            components,
            out_slots,
            last_work: 0,
            count: 0,
        })
    }

    /// The per-component structures (for auditing and instrumentation).
    /// Each sits behind the `Arc` that epoch snapshots share — its strong
    /// count is exactly 1 plus the number of live pins referencing it.
    pub fn components(&self) -> &[Arc<ComponentStructure>] {
        &self.components
    }

    /// Total number of live items across components — linear in `|D|`
    /// (each fact creates at most `‖ϕ‖` items).
    pub fn num_items(&self) -> usize {
        self.components.iter().map(|c| c.num_items()).sum()
    }

    /// Structural work of the most recent effective update: the number of
    /// item visits performed. Theorem 3.2's "constant update time" shows up
    /// here as a bound depending only on the query — integration tests
    /// assert it never grows with the database.
    pub fn last_update_work(&self) -> u64 {
        self.last_work
    }

    /// Recomputes the cached `|ϕ(D)| = Π_i |ϕ_i(D)|` over the connected
    /// components; Boolean components contribute 1 (nonempty) or 0
    /// (empty). `O(components)`.
    fn refresh_count(&mut self) {
        self.count = self.components.iter().fold(1u64, |acc, c| {
            acc.checked_mul(c.result_count())
                .expect("result count overflowed u64")
        });
    }

    /// Applies one effective fact to every component while assembling the
    /// full-query result delta into `delta`. Returns the structural work
    /// of the plain update walks.
    fn track_fact(
        &mut self,
        rel: RelId,
        tuple: &[Const],
        insert: bool,
        delta: &mut ResultDelta,
    ) -> u64 {
        let mut work = 0u64;
        let mut local_added: Vec<Vec<Const>> = Vec::new();
        let mut local_removed: Vec<Vec<Const>> = Vec::new();
        for ci in 0..self.components.len() {
            if !self.components[ci].uses_relation(rel) {
                // The fact cannot touch this component: skip it before
                // `make_mut`, so a pinned (shared) component is never
                // cloned for an update that provably leaves it unchanged.
                continue;
            }
            local_added.clear();
            local_removed.clear();
            work += Arc::make_mut(&mut self.components[ci]).apply_fact_tracked(
                rel,
                tuple,
                insert,
                &mut local_added,
                &mut local_removed,
            );
            if !local_added.is_empty() {
                self.cross_assemble(ci, &local_added, &mut delta.added);
            }
            if !local_removed.is_empty() {
                self.cross_assemble(ci, &local_removed, &mut delta.removed);
            }
        }
        work
    }

    /// Crosses component `ci`'s flipped output tuples with every *other*
    /// component's current result — `ϕ(D) = ϕ₁(D) × ⋯ × ϕⱼ(D)`, so a
    /// component-local delta multiplies with the sibling results, which
    /// makes every emitted tuple part of the true result delta (the cost
    /// stays `O(δ)`). Components before `ci` are already post-update,
    /// later ones pre-update: exactly the sequential semantics of the
    /// per-component walk. Scatters into the query's free-variable order.
    fn cross_assemble(&self, ci: usize, local: &[Vec<Const>], out: &mut Vec<Vec<Const>>) {
        // Any empty sibling component annuls the whole product.
        if self
            .components
            .iter()
            .enumerate()
            .any(|(j, c)| j != ci && c.result_count() == 0)
        {
            return;
        }
        // Materialize the sibling results once; each is a factor of δ.
        let others: Vec<(usize, Vec<Vec<Const>>)> = self
            .components
            .iter()
            .enumerate()
            .filter(|&(j, c)| j != ci && !c.output_vars().is_empty())
            .map(|(j, c)| (j, ComponentIter::new(c).collect()))
            .collect();
        let mut tuple = vec![0 as Const; self.query.free().len()];
        for t in local {
            for (p, &v) in t.iter().enumerate() {
                tuple[self.out_slots[ci][p]] = v;
            }
            // Odometer over the sibling results.
            let mut pos = vec![0usize; others.len()];
            'odometer: loop {
                for (k, (j, rows)) in others.iter().enumerate() {
                    for (p, &v) in rows[pos[k]].iter().enumerate() {
                        tuple[self.out_slots[*j][p]] = v;
                    }
                }
                out.push(tuple.clone());
                let mut k = others.len();
                loop {
                    if k == 0 {
                        break 'odometer;
                    }
                    k -= 1;
                    pos[k] += 1;
                    if pos[k] < others[k].1.len() {
                        break;
                    }
                    pos[k] = 0;
                }
            }
        }
    }
}

impl DynamicEngine for QhStructure {
    fn query(&self) -> &Query {
        &self.query
    }

    /// Afterwards [`QhStructure::last_update_work`] holds the *total*
    /// structural work of the set's facts (0 for an empty set, e.g. a
    /// fully cancelling batch).
    fn apply_net(&mut self, net: &[Update]) {
        self.last_work = net
            .iter()
            .map(|fact| {
                let (rel, insert) = (fact.relation(), fact.is_insert());
                self.components
                    .iter_mut()
                    .filter(|c| c.uses_relation(rel))
                    .map(|c| Arc::make_mut(c).apply_fact(rel, fact.tuple(), insert))
                    .sum::<u64>()
            })
            .sum();
        self.refresh_count();
    }

    /// Native `O(δ)` delta extraction per fact: the update walk itself
    /// reports which output assignments flipped between absent and
    /// present ([`ComponentStructure::apply_fact_tracked`]); no result
    /// snapshot is ever taken. Flips of the same result tuple across
    /// facts cancel in [`ResultDelta::normalize`].
    fn apply_net_tracked(&mut self, net: &[Update], delta: &mut ResultDelta) {
        self.last_work = net
            .iter()
            .map(|f| self.track_fact(f.relation(), f.tuple(), f.is_insert(), delta))
            .sum();
        self.refresh_count();
    }

    /// Builds each component from the caller's tuples in one top-down and
    /// one bottom-up pass over its q-tree ([`ComponentStructure`]'s bulk
    /// build), in `O(‖ϕ‖ · ‖D₀‖)` expected time with a number of
    /// allocations that depends on `ϕ` alone. The result is the state
    /// that inserting `db0`'s facts one by one reaches, up to row numbers
    /// and list order; each fit list runs in ascending row order, so
    /// enumeration walks memory forward.
    ///
    /// Only an engine over the empty database loads (a debug assertion
    /// checks each component). Inserts only raise free weights, so the
    /// build fails exactly where that replay would: a `C̃^i` or `|ϕ(D)|`
    /// past `u64` panics with "result count overflowed u64".
    fn load(&mut self, db0: &Database) {
        for c in &mut self.components {
            Arc::make_mut(c).load(db0);
        }
        self.refresh_count();
    }

    /// [`audit::check_invariants`] against the caller's `D`.
    fn audit(&self, db: &Database) -> Result<(), String> {
        audit::check_invariants(self, db)
    }

    // Inlined across crates: a caller's count is one field read, with
    // no call.
    #[inline]
    fn count(&self) -> u64 {
        self.count
    }

    fn is_nonempty(&self) -> bool {
        self.components.iter().all(|c| c.is_nonempty())
    }

    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<cqu_storage::Const>> + 'a> {
        Box::new(ResultIter::new(&self.components, self.query.free()))
    }

    /// Epoch pins are O(1) per component: the snapshot *shares* the live
    /// component structures through their `Arc`s (slab ids and intrusive
    /// links are untouched — nothing is copied at all). The writer pays
    /// instead, copy-on-write: its next mutation of a component this pin
    /// still references clones that one component (`Arc::make_mut`), once
    /// — everything the update doesn't touch stays structurally shared.
    /// The snapshot keeps O(1) counting and constant-delay enumeration.
    fn snapshot(&self) -> Box<dyn engine::ResultSnapshot> {
        Box::new(QhSnapshot {
            count: self.count,
            components: self.components.clone(),
            free: self.query.free().to_vec(),
        })
    }

    /// Pins are O(components), independent of the database: cheap enough
    /// for the session layer to republish eagerly after updates.
    fn snapshot_is_cheap(&self) -> bool {
        true
    }
}

/// [`QhEngine`]'s pinned view: the per-component enumeration structures,
/// structurally shared with the live engine via `Arc` until the writer's
/// next copy-on-write divergence (see [`DynamicEngine::snapshot`] on
/// [`QhEngine`]). Nonemptiness is the trait default `count > 0` —
/// equivalent to the engine's all-components-nonempty check, since a
/// component's result count is zero exactly when it is empty.
pub struct QhSnapshot {
    components: Vec<Arc<ComponentStructure>>,
    free: Vec<cqu_query::Var>,
    count: u64,
}

impl engine::ResultSnapshot for QhSnapshot {
    fn count(&self) -> u64 {
        self.count
    }

    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<Const>> + 'a> {
        Box::new(ResultIter::new(&self.components, &self.free))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_query::parse_query;
    use cqu_storage::Const;

    fn engine_for(src: &str) -> QhEngine {
        let q = parse_query(src).unwrap();
        QhEngine::empty(&q).unwrap()
    }

    fn ins(e: &mut QhEngine, rel: &str, t: &[Const]) -> bool {
        let r = e.query().schema().relation(rel).unwrap();
        e.apply(&Update::Insert(r, t.to_vec()))
    }

    fn del(e: &mut QhEngine, rel: &str, t: &[Const]) -> bool {
        let r = e.query().schema().relation(rel).unwrap();
        e.apply(&Update::Delete(r, t.to_vec()))
    }

    #[test]
    fn rejects_non_q_hierarchical() {
        let q = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        assert!(matches!(
            QhEngine::empty(&q),
            Err(QueryError::NotQHierarchical(_))
        ));
    }

    #[test]
    fn single_edge_join() {
        let mut e = engine_for("Q(x, y) :- E(x, y), T(y).");
        assert_eq!(e.count(), 0);
        assert!(!e.is_nonempty());
        ins(&mut e, "E", &[1, 2]);
        assert_eq!(e.count(), 0, "E(1,2) alone has no T(2) witness");
        ins(&mut e, "T", &[2]);
        assert_eq!(e.count(), 1);
        assert!(e.is_nonempty());
        assert_eq!(e.results_sorted(), vec![vec![1, 2]]);
        ins(&mut e, "E", &[3, 2]);
        assert_eq!(e.count(), 2);
        del(&mut e, "T", &[2]);
        assert_eq!(e.count(), 0);
        assert!(e.results_sorted().is_empty());
    }

    #[test]
    fn duplicate_updates_are_noops() {
        let mut e = engine_for("Q(x) :- R(x).");
        assert!(ins(&mut e, "R", &[5]));
        assert!(!ins(&mut e, "R", &[5]));
        assert_eq!(e.count(), 1);
        assert!(del(&mut e, "R", &[5]));
        assert!(!del(&mut e, "R", &[5]));
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn quantified_variable_counting() {
        // Q(x) :- ∃y E(x, y): count is the number of distinct x, not edges.
        let mut e = engine_for("Q(x) :- E(x, y).");
        ins(&mut e, "E", &[1, 10]);
        ins(&mut e, "E", &[1, 11]);
        ins(&mut e, "E", &[2, 10]);
        assert_eq!(e.count(), 2, "C̃ must deduplicate the quantified y");
        assert_eq!(e.results_sorted(), vec![vec![1], vec![2]]);
        del(&mut e, "E", &[1, 10]);
        assert_eq!(e.count(), 2);
        del(&mut e, "E", &[1, 11]);
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn boolean_query_answer() {
        let mut e = engine_for("Q() :- E(x, y), T(y).");
        assert!(!e.answer());
        ins(&mut e, "E", &[1, 2]);
        assert!(!e.answer());
        ins(&mut e, "T", &[2]);
        assert!(e.answer());
        // Boolean result set is {()}.
        let res: Vec<Vec<Const>> = e.enumerate().collect();
        assert_eq!(res, vec![Vec::<Const>::new()]);
        del(&mut e, "E", &[1, 2]);
        assert!(!e.answer());
        assert_eq!(e.enumerate().count(), 0);
    }

    #[test]
    fn star_query_counts_products() {
        // Q(x, y, z) :- R(x,y), S(x,z), T(x).
        let mut e = engine_for("Q(x, y, z) :- R(x, y), S(x, z), T(x).");
        ins(&mut e, "T", &[1]);
        for y in [10, 11, 12] {
            ins(&mut e, "R", &[1, y]);
        }
        for z in [20, 21] {
            ins(&mut e, "S", &[1, z]);
        }
        assert_eq!(e.count(), 6);
        let results = e.results_sorted();
        assert_eq!(results.len(), 6);
        assert!(results.contains(&vec![1, 12, 20]));
        // A second star that lacks T.
        ins(&mut e, "R", &[2, 10]);
        ins(&mut e, "S", &[2, 20]);
        assert_eq!(e.count(), 6);
        ins(&mut e, "T", &[2]);
        assert_eq!(e.count(), 7);
        del(&mut e, "T", &[1]);
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn cross_product_components() {
        let mut e = engine_for("Q(x, z) :- R(x), S(z).");
        ins(&mut e, "R", &[1]);
        ins(&mut e, "R", &[2]);
        assert_eq!(e.count(), 0, "empty S component");
        ins(&mut e, "S", &[7]);
        assert_eq!(e.count(), 2);
        assert_eq!(e.results_sorted(), vec![vec![1, 7], vec![2, 7]]);
        ins(&mut e, "S", &[8]);
        assert_eq!(e.count(), 4);
    }

    #[test]
    fn boolean_guard_component() {
        let mut e = engine_for("Q(x) :- R(x), S(u, v).");
        ins(&mut e, "R", &[1]);
        assert_eq!(e.count(), 0);
        assert!(e.results_sorted().is_empty());
        ins(&mut e, "S", &[5, 6]);
        assert_eq!(e.count(), 1);
        assert_eq!(e.results_sorted(), vec![vec![1]]);
        del(&mut e, "S", &[5, 6]);
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn self_join_q_hierarchical() {
        // Theorem 3.2 does not need self-join-freeness:
        // Q(a) :- R(a, b), R(a, a) is q-hierarchical with a self-join.
        let mut e = engine_for("Q(a) :- R(a, b), R(a, a).");
        ins(&mut e, "R", &[1, 2]);
        assert_eq!(e.count(), 0);
        ins(&mut e, "R", &[1, 1]);
        // R(1,1) matches both atoms (b := 1) and provides the loop.
        assert_eq!(e.count(), 1);
        assert_eq!(e.results_sorted(), vec![vec![1]]);
        del(&mut e, "R", &[1, 2]);
        assert_eq!(e.count(), 1, "R(1,1) still witnesses both atoms");
        del(&mut e, "R", &[1, 1]);
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn repeated_variable_atom() {
        // Q(x) :- E(x, x): only loops match.
        let mut e = engine_for("Q(x) :- E(x, x).");
        ins(&mut e, "E", &[1, 2]);
        assert_eq!(e.count(), 0);
        ins(&mut e, "E", &[3, 3]);
        assert_eq!(e.count(), 1);
        assert_eq!(e.results_sorted(), vec![vec![3]]);
    }

    #[test]
    fn preprocessing_replays_initial_database() {
        let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
        let mut db = Database::new(q.schema().clone());
        let e = q.schema().relation("E").unwrap();
        let t = q.schema().relation("T").unwrap();
        db.insert(e, vec![1, 2]);
        db.insert(e, vec![3, 2]);
        db.insert(t, vec![2]);
        let engine = QhEngine::new(&q, &db).unwrap();
        assert_eq!(engine.count(), 2);
        assert_eq!(engine.results_sorted(), vec![vec![1, 2], vec![3, 2]]);
        assert_eq!(engine.database().cardinality(), 3);
    }

    #[test]
    fn items_scale_linearly_with_facts() {
        let mut e = engine_for("Q(x, y) :- E(x, y), T(y).");
        for i in 0..100 {
            ins(&mut e, "E", &[i, i + 1000]);
        }
        // Each E-fact creates ≤ 2 items in the E-T component.
        assert!(e.num_items() <= 300, "items = {}", e.num_items());
        for i in 0..100 {
            del(&mut e, "E", &[i, i + 1000]);
        }
        assert_eq!(e.num_items(), 0, "all items must be garbage-collected");
    }

    /// The copy-on-write pin contract: pins share the live component
    /// `Arc`s (O(1), strong count observable), dropped pins release them,
    /// and a writer mutation under a live pin diverges — cloning the
    /// touched component once — while the pin keeps its frozen state.
    #[test]
    fn pins_share_components_and_writers_diverge_on_demand() {
        let mut e = engine_for("Q(x, y) :- E(x, y), T(y).");
        ins(&mut e, "E", &[1, 2]);
        ins(&mut e, "T", &[2]);
        assert_eq!(Arc::strong_count(&e.components()[0]), 1, "unshared");

        let snap = e.snapshot();
        assert_eq!(
            Arc::strong_count(&e.components()[0]),
            2,
            "pin shares the live structure, no copy"
        );
        {
            let again = e.snapshot();
            assert_eq!(Arc::strong_count(&e.components()[0]), 3);
            drop(again);
        }
        assert_eq!(
            Arc::strong_count(&e.components()[0]),
            2,
            "dropped pins release their share immediately"
        );

        // Writer mutates under the live pin: copy-on-write divergence.
        ins(&mut e, "E", &[3, 2]);
        assert_eq!(
            Arc::strong_count(&e.components()[0]),
            1,
            "the live engine moved to its own copy"
        );
        assert_eq!(e.count(), 2);
        assert_eq!(snap.count(), 1, "pin still answers from its epoch");
        assert_eq!(snap.results_sorted(), vec![vec![1, 2]]);
        drop(snap);

        // With no pin outstanding, updates never clone: the engine stays
        // on the same allocation across arbitrary churn.
        let before = Arc::as_ptr(&e.components()[0]);
        for i in 0..100 {
            ins(&mut e, "E", &[i + 10, 2]);
        }
        assert_eq!(
            Arc::as_ptr(&e.components()[0]),
            before,
            "unpinned updates must mutate in place"
        );
    }

    /// Updates to relations outside a component never clone it, even
    /// while a pin shares it (the `uses_relation` guard).
    #[test]
    fn foreign_relation_updates_do_not_clone_pinned_components() {
        let mut e = engine_for("Q(x, z) :- R(x), S(z).");
        ins(&mut e, "R", &[1]);
        ins(&mut e, "S", &[7]);
        let snap = e.snapshot();
        let r_ptr = Arc::as_ptr(&e.components()[0]);
        let s_ptr = Arc::as_ptr(&e.components()[1]);
        // Touch only S: the R component must stay shared verbatim.
        ins(&mut e, "S", &[8]);
        let (r_after, s_after) = (
            Arc::as_ptr(&e.components()[0]),
            Arc::as_ptr(&e.components()[1]),
        );
        assert_eq!(r_ptr, r_after, "untouched component stays shared");
        assert_ne!(s_ptr, s_after, "touched component diverged");
        assert_eq!(snap.count(), 1);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn apply_batch_equals_sequential_apply() {
        let src = "Q(x, y) :- E(x, y), T(y).";
        let batch: Vec<(bool, &str, Vec<Const>)> = vec![
            (true, "E", vec![1, 2]),
            (true, "T", vec![2]),
            (true, "E", vec![1, 2]),  // duplicate: no-op
            (false, "E", vec![1, 2]), // cancels the first insert
            (true, "E", vec![3, 2]),
            (false, "T", vec![9]),   // absent: no-op
            (true, "E", vec![1, 2]), // reinserted after the delete
        ];
        let mut seq = engine_for(src);
        let mut bat = engine_for(src);
        let updates: Vec<Update> = batch
            .iter()
            .map(|(insert, rel, t)| {
                let r = seq.query().schema().relation(rel).unwrap();
                if *insert {
                    Update::Insert(r, t.clone())
                } else {
                    Update::Delete(r, t.clone())
                }
            })
            .collect();
        let seq_applied = updates.iter().filter(|u| seq.apply(u)).count();
        let report = bat.apply_batch(&updates);
        assert_eq!(report.total, updates.len());
        assert_eq!(report.applied, seq_applied);
        assert_eq!(report.noops(), updates.len() - seq_applied);
        assert_eq!(bat.count(), seq.count());
        assert_eq!(bat.results_sorted(), seq.results_sorted());
        assert_eq!(bat.num_items(), seq.num_items());
        assert_eq!(bat.database().cardinality(), seq.database().cardinality());
    }

    #[test]
    fn apply_batch_cancelling_pairs_touch_no_structures() {
        let mut e = engine_for("Q(x, y) :- E(x, y), T(y).");
        let r = e.query().schema().relation("E").unwrap();
        let batch: Vec<Update> = (0..50)
            .flat_map(|i| {
                [
                    Update::Insert(r, vec![i, i + 1]),
                    Update::Delete(r, vec![i, i + 1]),
                ]
            })
            .collect();
        let report = e.apply_batch(&batch);
        assert_eq!(report.applied, 100, "each op is effective in sequence");
        assert_eq!(e.count(), 0);
        assert_eq!(e.num_items(), 0);
        assert_eq!(e.last_update_work(), 0, "netted batch skips propagation");
    }

    /// Drives `native` through `script` with tracked applies, checking the
    /// normalized delta of every step against a full-result diff of an
    /// identically-updated oracle engine.
    fn assert_tracked_matches_diff(src: &str, script: &[(bool, &str, Vec<Const>)]) {
        let mut native = engine_for(src);
        let mut oracle = engine_for(src);
        for (insert, rel, t) in script {
            let r = native.query().schema().relation(rel).unwrap();
            let u = if *insert {
                Update::Insert(r, t.clone())
            } else {
                Update::Delete(r, t.clone())
            };
            let before = oracle.results_sorted();
            let mut got = ResultDelta::default();
            let changed = native.apply_tracked(&u, &mut got);
            assert_eq!(oracle.apply(&u), changed, "{src}: effectiveness of {u:?}");
            got.normalize();
            let mut want = ResultDelta::default();
            engine::diff_sorted_into(&before, &oracle.results_sorted(), &mut want);
            assert_eq!(got, want, "{src}: delta of {u:?}");
        }
        assert_eq!(native.results_sorted(), oracle.results_sorted(), "{src}");
    }

    #[test]
    fn tracked_deltas_match_diff_on_star() {
        assert_tracked_matches_diff(
            "Q(x, y, z) :- R(x, y), S(x, z), T(x).",
            &[
                (true, "T", vec![1]),
                (true, "R", vec![1, 10]),
                (true, "S", vec![1, 20]),
                (true, "R", vec![1, 11]),
                (true, "S", vec![1, 21]),
                (false, "T", vec![1]),
                (true, "T", vec![1]),
                (false, "R", vec![1, 10]),
                (false, "S", vec![1, 20]),
                (false, "S", vec![1, 21]),
            ],
        );
    }

    #[test]
    fn tracked_deltas_match_diff_on_quantified_and_selfjoin() {
        assert_tracked_matches_diff(
            "Q(x) :- E(x, y).",
            &[
                (true, "E", vec![1, 10]),
                (true, "E", vec![1, 11]),
                (false, "E", vec![1, 10]),
                (false, "E", vec![1, 11]),
            ],
        );
        assert_tracked_matches_diff(
            "Q(a) :- R(a, b), R(a, a).",
            &[
                (true, "R", vec![1, 2]),
                (true, "R", vec![1, 1]),
                (false, "R", vec![1, 2]),
                (false, "R", vec![1, 1]),
            ],
        );
    }

    #[test]
    fn tracked_deltas_match_diff_across_components() {
        // Cross product and Boolean guard components.
        assert_tracked_matches_diff(
            "Q(x, z) :- R(x), S(z).",
            &[
                (true, "R", vec![1]),
                (true, "R", vec![2]),
                (true, "S", vec![7]),
                (true, "S", vec![8]),
                (false, "R", vec![1]),
                (false, "S", vec![7]),
                (false, "S", vec![8]),
            ],
        );
        assert_tracked_matches_diff(
            "Q(x) :- R(x), S(u, v).",
            &[
                (true, "R", vec![1]),
                (true, "R", vec![2]),
                (true, "S", vec![5, 6]),
                (true, "S", vec![5, 7]),
                (false, "S", vec![5, 6]),
                (false, "S", vec![5, 7]),
                (false, "R", vec![1]),
            ],
        );
        // Fully Boolean query: the delta is the empty tuple's presence.
        assert_tracked_matches_diff(
            "Q() :- E(x, y), T(y).",
            &[
                (true, "E", vec![1, 2]),
                (true, "T", vec![2]),
                (false, "E", vec![1, 2]),
            ],
        );
    }

    #[test]
    fn tracked_batch_nets_cancelling_churn_silently() {
        let mut e = engine_for("Q(x, y) :- E(x, y), T(y).");
        let r = e.query().schema().relation("E").unwrap();
        let t = e.query().schema().relation("T").unwrap();
        e.apply(&Update::Insert(t, vec![1]));
        let batch: Vec<Update> = (0..20)
            .flat_map(|i| [Update::Insert(r, vec![i, 1]), Update::Delete(r, vec![i, 1])])
            .collect();
        let mut delta = ResultDelta::default();
        let report = e.apply_batch_tracked(&batch, &mut delta);
        assert_eq!(report.applied, 40);
        delta.normalize();
        assert!(delta.is_empty(), "cancelling batch must net to no delta");
    }

    #[test]
    fn deep_path_query() {
        // Q(a, b, c) :- R(a, b, c), S(a, b), T(a): a chain q-tree.
        let mut e = engine_for("Q(a, b, c) :- R(a, b, c), S(a, b), T(a).");
        ins(&mut e, "R", &[1, 2, 3]);
        ins(&mut e, "S", &[1, 2]);
        assert_eq!(e.count(), 0);
        ins(&mut e, "T", &[1]);
        assert_eq!(e.count(), 1);
        ins(&mut e, "R", &[1, 2, 4]);
        assert_eq!(e.count(), 2);
        del(&mut e, "S", &[1, 2]);
        assert_eq!(e.count(), 0);
    }
}
