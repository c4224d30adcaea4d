//! The dynamic-engine interface shared by the paper's algorithm and all
//! baselines, and the one set-semantics rule ([`net_effective`]) every
//! owner of a database decides effectiveness with.
//!
//! A dynamic query evaluation algorithm (paper, Section 2) consists of
//! `preprocess` ([`DynamicEngine::load`] on an engine built empty),
//! `update`, and — depending on the task — `enumerate`, `count`, and
//! `answer`. The caller owns `D`: it decides which updates change `D` and
//! hands the engine only those, so no engine keeps a database to decide
//! it again.

use cqu_common::FxHashMap;
use cqu_query::{Query, RelId};
use cqu_storage::{Const, Database, Update};

/// The net effect of an update (or batch) on a query result: the tuples
/// that entered and left `ϕ(D)`.
///
/// Producers ([`DynamicEngine::apply_net_tracked`],
/// [`Standalone::apply_tracked`]) *append* raw presence flips;
/// call [`ResultDelta::normalize`] before consuming — it nets out
/// add/remove pairs accumulated across several updates (a tuple that
/// entered and left again within a transaction vanishes from the delta)
/// and sorts both sides for deterministic, diffable events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResultDelta {
    /// Result tuples that entered `ϕ(D)`.
    pub added: Vec<Vec<Const>>,
    /// Result tuples that left `ϕ(D)`.
    pub removed: Vec<Vec<Const>>,
}

impl ResultDelta {
    /// No tuples entered or left.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Forgets all recorded flips (keeps allocations).
    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
    }

    /// Nets out add/remove pairs and sorts both sides.
    ///
    /// Presence flips alternate per tuple, so after netting each tuple
    /// appears at most once, on the side of its overall transition.
    pub fn normalize(&mut self) {
        if !self.added.is_empty() && !self.removed.is_empty() {
            let mut net: FxHashMap<Vec<Const>, i64> = FxHashMap::default();
            for t in self.added.drain(..) {
                *net.entry(t).or_insert(0) += 1;
            }
            for t in self.removed.drain(..) {
                *net.entry(t).or_insert(0) -= 1;
            }
            for (t, n) in net {
                match n.cmp(&0) {
                    std::cmp::Ordering::Greater => self.added.push(t),
                    std::cmp::Ordering::Less => self.removed.push(t),
                    std::cmp::Ordering::Equal => {}
                }
            }
        }
        self.added.sort_unstable();
        self.added.dedup();
        self.removed.sort_unstable();
        self.removed.dedup();
    }
}

/// Appends the set difference of two sorted, duplicate-free result
/// vectors to `out`: `after ∖ before` to `out.added`, `before ∖ after`
/// to `out.removed`. How the stand-alone oracles, which have no native
/// delta extraction, implement [`DynamicEngine::apply_net_tracked`].
pub fn diff_sorted_into(before: &[Vec<Const>], after: &[Vec<Const>], out: &mut ResultDelta) {
    let (mut i, mut j) = (0, 0);
    while i < before.len() && j < after.len() {
        match before[i].cmp(&after[j]) {
            std::cmp::Ordering::Less => {
                out.removed.push(before[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.added.push(after[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.removed.extend_from_slice(&before[i..]);
    out.added.extend_from_slice(&after[j..]);
}

/// A batch netted under set semantics ([`net_effective`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netted {
    /// Positions of the members that change `D` when the batch is
    /// applied in order: exactly those for which a sequential
    /// `Database::apply` returns `true`.
    pub effective: Vec<usize>,
    /// The net facts: one per tuple whose presence the whole batch
    /// flips, sorted by relation (then tuple). Applied to the initial
    /// `D` in any order they give the final `D`; an insert/delete pair
    /// of one tuple cancels out of it.
    pub net: Vec<Update>,
}

/// The set-semantics rule, once for the whole system: nets `updates`
/// against the caller's `D`, whose presence bits `present(rel, tuple)`
/// supplies (asked at most once per distinct tuple; the batch's own
/// earlier members overlay it).
pub fn net_effective(
    updates: &[Update],
    mut present: impl FnMut(RelId, &[Const]) -> bool,
) -> Netted {
    // (initial presence, current presence) per touched tuple.
    let mut shadow: FxHashMap<(RelId, &[Const]), (bool, bool)> = FxHashMap::default();
    let mut effective = Vec::new();
    for (i, u) in updates.iter().enumerate() {
        let entry = shadow.entry((u.relation(), u.tuple())).or_insert_with(|| {
            let p = present(u.relation(), u.tuple());
            (p, p)
        });
        if entry.1 != u.is_insert() {
            entry.1 = u.is_insert();
            effective.push(i);
        }
    }
    let mut net: Vec<Update> = shadow
        .into_iter()
        .filter(|(_, (initial, current))| initial != current)
        .map(|((rel, tuple), (_, insert))| {
            if insert {
                Update::Insert(rel, tuple.to_vec())
            } else {
                Update::Delete(rel, tuple.to_vec())
            }
        })
        .collect();
    net.sort_unstable_by(|a, b| (a.relation(), a.tuple()).cmp(&(b.relation(), b.tuple())));
    Netted { effective, net }
}

/// Outcome of a batched update application
/// ([`Standalone::apply_batch`], the session's `apply_batch`).
///
/// `applied` counts the updates that would have been effective had the
/// batch been applied one at a time, although only the net facts reach
/// the engines, so callers can swap batching in and out without changing
/// the final state or the report. Engine-internal instrumentation (e.g.
/// `QhStructure::last_update_work`) reflects the work *actually* done and
/// may legitimately differ under netting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Number of updates in the batch.
    pub total: usize,
    /// Updates that changed the database (as-if-sequential).
    pub applied: usize,
}

impl UpdateReport {
    /// Updates that were set-semantics no-ops.
    pub fn noops(&self) -> usize {
        self.total - self.applied
    }

    /// Folds another report into this one (for multi-engine fan-out).
    pub fn merge(&mut self, other: UpdateReport) {
        self.total += other.total;
        self.applied += other.applied;
    }
}

/// An immutable, thread-safe view of a query result pinned at one point
/// of the update stream ([`DynamicEngine::snapshot`]).
///
/// A snapshot stays valid — and keeps answering from its pinned state —
/// no matter how many updates the engine applies afterwards. It is
/// `Send + Sync`, so reader threads enumerate and count without any
/// lock while a writer maintains the live engine.
pub trait ResultSnapshot: Send + Sync {
    /// `|ϕ(D)|` at pin time.
    fn count(&self) -> u64;

    /// `ϕ(D) ≠ ∅` at pin time.
    fn is_nonempty(&self) -> bool {
        self.count() > 0
    }

    /// Enumerates the pinned `ϕ(D)` without repetition.
    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<Const>> + 'a>;

    /// Collects and sorts the pinned result.
    fn results_sorted(&self) -> Vec<Vec<Const>> {
        let mut v: Vec<Vec<Const>> = self.enumerate().collect();
        v.sort_unstable();
        v
    }
}

/// The fallback [`ResultSnapshot`]: the result materialized into a sorted
/// vector at pin time. `Ω(|ϕ(D)|)` to pin — engines with cheaper
/// enumeration structures (the q-tree engine's copy-on-pin, delta-IVM's
/// view clone) override [`DynamicEngine::snapshot`] instead.
pub struct MaterializedSnapshot {
    rows: Vec<Vec<Const>>,
}

impl MaterializedSnapshot {
    /// Wraps a result; `rows` need not be sorted or deduplicated yet.
    pub fn new(mut rows: Vec<Vec<Const>>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        MaterializedSnapshot { rows }
    }

    /// Wraps an already sorted, duplicate-free result.
    pub fn from_sorted(rows: Vec<Vec<Const>>) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        MaterializedSnapshot { rows }
    }
}

impl ResultSnapshot for MaterializedSnapshot {
    fn count(&self) -> u64 {
        self.rows.len() as u64
    }

    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<Const>> + 'a> {
        Box::new(self.rows.iter().cloned())
    }

    fn results_sorted(&self) -> Vec<Vec<Const>> {
        self.rows.clone()
    }
}

/// A dynamic query-evaluation algorithm over a fixed query.
///
/// **The caller owns `D`.** An engine is handed only *effective* facts —
/// inserts of absent tuples and deletes of present ones, as decided
/// against the caller's own database (a `Database::apply` that returned
/// `true`, or the net of [`net_effective`]) — and keeps no database to
/// decide it again: a no-op handed in corrupts its state. A fact of a
/// relation the query does not reference, or one that matches no atom
/// pattern (`E(1, 2)` against `E(x, x)`), changes `D` but must leave the
/// answer untouched. Preprocessing ([`DynamicEngine::load`]) reads the
/// caller's `D` once. [`Standalone`] pairs an engine with a `D` of its
/// own for callers that keep none.
///
/// Engines are `Send + Sync`: they hold plain data (no interior
/// mutability), writers go through `&mut self`, and concurrent readers
/// share `&self` — the session layer serializes the former and hands the
/// latter out behind its reader lock or via [`DynamicEngine::snapshot`].
pub trait DynamicEngine: Send + Sync {
    /// The query this engine maintains.
    fn query(&self) -> &Query;

    /// Applies a netted set of effective facts (see the trait docs): at
    /// most one per tuple, as [`Netted::net`] holds them. One effective
    /// update is a set of one (`std::slice::from_ref`).
    fn apply_net(&mut self, net: &[Update]);

    /// Applies a netted set like [`DynamicEngine::apply_net`] while
    /// appending the result delta it caused to `delta` (raw flips — the
    /// consumer calls [`ResultDelta::normalize`] before publishing).
    ///
    /// Every engine states its own cost; there is no default. The two a
    /// session routes to — the q-tree structure and delta-IVM — and ϕ₂
    /// extract deltas natively, at the plain update plus `O(δ)` for `δ`
    /// flipped result tuples, whatever `|ϕ(D)|` is. The stand-alone
    /// oracles (recompute, semi-join) diff the full result around the set
    /// ([`diff_sorted_into`]), `Ω(|ϕ(D)|)`.
    fn apply_net_tracked(&mut self, net: &[Update], delta: &mut ResultDelta);

    /// `preprocess(ϕ, D₀)`, once, on an engine built over the empty
    /// database: afterwards the engine holds the state of the caller's
    /// `db0`. The default feeds it every fact of `db0` in a relation the
    /// query references, as effective inserts, one relation at a time in
    /// sets of at most 16,384 (delta-IVM joins each set as one group);
    /// the q-tree structure builds its arrays in bulk instead.
    fn load(&mut self, db0: &Database) {
        const CHUNK: usize = 16_384;
        let mut rels: Vec<RelId> = self.query().atoms().iter().map(|a| a.relation).collect();
        rels.sort_unstable();
        rels.dedup();
        let mut chunk: Vec<Update> = Vec::new();
        for rel in rels {
            let mut tuples = db0.relation(rel).iter();
            loop {
                chunk.clear();
                chunk.extend(
                    tuples
                        .by_ref()
                        .take(CHUNK)
                        .map(|t| Update::Insert(rel, t.clone())),
                );
                if chunk.is_empty() {
                    break;
                }
                self.apply_net(&chunk);
            }
        }
    }

    /// Checks the engine's maintained registers against an independent
    /// recomputation over `db`, the caller's `D`; returns the first
    /// inconsistency. Brute-force cost — for tests. The default has
    /// nothing to check.
    fn audit(&self, _db: &Database) -> Result<(), String> {
        Ok(())
    }

    /// `|ϕ(D)|` on the current database.
    fn count(&self) -> u64;

    /// `ϕ(D) ≠ ∅` (the `answer` routine for Boolean queries).
    fn is_nonempty(&self) -> bool;

    /// Enumerates `ϕ(D)` without repetition. Tuples follow the query's
    /// free-variable order.
    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<Const>> + 'a>;

    /// The `answer` routine: alias for [`DynamicEngine::is_nonempty`].
    fn answer(&self) -> bool {
        self.is_nonempty()
    }

    /// Collects and sorts the full result — test/debug convenience.
    fn results_sorted(&self) -> Vec<Vec<Const>> {
        let mut v: Vec<Vec<Const>> = self.enumerate().collect();
        v.sort_unstable();
        v
    }

    /// Pins an immutable, `Send + Sync` snapshot of the current result.
    ///
    /// The snapshot answers `count`/`is_nonempty`/`enumerate` from the
    /// state at pin time forever, regardless of updates applied to the
    /// engine afterwards. The default materializes the full result
    /// (`Ω(|ϕ(D)|)`); engines whose enumeration structures are cheap to
    /// share override it (`QhEngine` pins by `Arc`-sharing its q-tree
    /// component structures — O(1) per component, copy-on-write on the
    /// writer side; delta-IVM clones its materialized view).
    fn snapshot(&self) -> Box<dyn ResultSnapshot> {
        Box::new(MaterializedSnapshot::from_sorted(self.results_sorted()))
    }

    /// Whether [`DynamicEngine::snapshot`] is cheap enough — O(1) in the
    /// database and the result — for the session layer to republish an
    /// epoch eagerly after updates (`QhEngine`: `Arc` clones per
    /// component). When `false` (the default), snapshots cost `Ω` of the
    /// view or result size, so epochs are republished lazily, on demand.
    fn snapshot_is_cheap(&self) -> bool {
        false
    }
}

/// An engine together with the one copy of `D` it is maintained
/// against, for callers that keep no database of their own (benchmarks,
/// the lower-bound reductions, tests): set semantics is decided here, so
/// the engine it derefs to only ever sees effective facts. There is no
/// `DerefMut` — every mutation passes the database first.
/// `Box<Standalone>` is the type-erased form.
pub struct Standalone<E: ?Sized + DynamicEngine = dyn DynamicEngine> {
    db: Database,
    engine: E,
}

impl<E: DynamicEngine> Standalone<E> {
    /// Preprocesses `engine`, built over the empty database, with `db0`
    /// ([`DynamicEngine::load`]) and keeps a copy of `db0` as its `D`.
    pub fn over(mut engine: E, db0: &Database) -> Self {
        engine.load(db0);
        let db = db0.clone();
        Standalone { db, engine }
    }

    /// Pairs `engine`, built over the empty database, with an empty `D`.
    pub fn from_empty(engine: E) -> Self {
        let db = Database::new(engine.query().schema().clone());
        Standalone { db, engine }
    }
}

impl<E: ?Sized + DynamicEngine> Standalone<E> {
    /// The current database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Applies a single-tuple update; returns `true` iff the database
    /// changed (only then does the engine see it).
    pub fn apply(&mut self, update: &Update) -> bool {
        let effective = self.db.apply(update);
        if effective {
            self.engine.apply_net(std::slice::from_ref(update));
        }
        effective
    }

    /// [`Standalone::apply`] appending the result delta to `delta`.
    pub fn apply_tracked(&mut self, update: &Update, delta: &mut ResultDelta) -> bool {
        let effective = self.db.apply(update);
        if effective {
            self.engine
                .apply_net_tracked(std::slice::from_ref(update), delta);
        }
        effective
    }

    /// Applies a batch, equivalent to its members in order: netted
    /// against `D` first, so the engine walks only the net facts.
    pub fn apply_batch(&mut self, updates: &[Update]) -> UpdateReport {
        self.batch(updates, None)
    }

    /// [`Standalone::apply_batch`] appending the batch's result delta to
    /// `delta`.
    pub fn apply_batch_tracked(
        &mut self,
        updates: &[Update],
        delta: &mut ResultDelta,
    ) -> UpdateReport {
        self.batch(updates, Some(delta))
    }

    fn batch(&mut self, updates: &[Update], delta: Option<&mut ResultDelta>) -> UpdateReport {
        let Netted { effective, net } =
            net_effective(updates, |rel, t| self.db.relation(rel).contains(t));
        for fact in &net {
            self.db.apply(fact);
        }
        match delta {
            _ if effective.is_empty() => {}
            Some(delta) => self.engine.apply_net_tracked(&net, delta),
            None => self.engine.apply_net(&net),
        }
        UpdateReport {
            total: updates.len(),
            applied: effective.len(),
        }
    }
}

impl<E: ?Sized + DynamicEngine> std::ops::Deref for Standalone<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_query::Schema;
    use cqu_testutil::{cancelling_pairs, random_updates, WorkloadConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The one effectiveness rule against sequential `Database::apply`
        /// on scripts full of duplicate inserts, absent deletes and
        /// cancelling pairs: its effective members are exactly the ones
        /// sequential `apply` returns `true` for, and its net, applied to
        /// the initial `D`, is effective fact by fact and gives the final
        /// `D`.
        #[test]
        fn net_effective_equals_sequential_apply(seed in 0u64..100_000, preload in 0usize..24) {
            let mut schema = Schema::new();
            schema.intern("E", 2).unwrap();
            schema.intern("T", 1).unwrap();
            let cfg = |steps| WorkloadConfig { steps, domain: 3, insert_permille: 550 };
            let mut initial = Database::new(schema.clone());
            initial.apply_all(&random_updates(&schema, seed, cfg(preload)));
            let mut script = random_updates(&schema, seed ^ 0x5EED, cfg(30));
            script.extend(cancelling_pairs(&script[..8]));
            script.extend_from_within(4..16);

            let netted = net_effective(&script, |rel, t| initial.relation(rel).contains(t));
            let mut sequential = initial.clone();
            let effective: Vec<usize> = (0..script.len())
                .filter(|&i| sequential.apply(&script[i]))
                .collect();
            prop_assert_eq!(&netted.effective, &effective);
            let mut netted_db = initial.clone();
            for fact in &netted.net {
                prop_assert!(netted_db.apply(fact), "net fact {:?} is a no-op", fact);
            }
            for rel in schema.relations() {
                prop_assert_eq!(
                    netted_db.relation(rel).sorted(),
                    sequential.relation(rel).sorted()
                );
            }
        }
    }

    #[test]
    fn normalize_nets_and_sorts() {
        let mut d = ResultDelta {
            added: vec![vec![3], vec![1], vec![2]],
            removed: vec![vec![2], vec![9]],
        };
        d.normalize();
        assert_eq!(d.added, vec![vec![1], vec![3]]);
        assert_eq!(d.removed, vec![vec![9]]);
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn normalize_cancels_roundtrips() {
        // insert → delete → insert of the same tuple nets to one add.
        let mut d = ResultDelta::default();
        d.added.push(vec![7, 7]);
        d.removed.push(vec![7, 7]);
        d.added.push(vec![7, 7]);
        d.normalize();
        assert_eq!(d.added, vec![vec![7, 7]]);
        assert!(d.removed.is_empty());
    }

    #[test]
    fn diff_matches_set_difference() {
        let before = vec![vec![1], vec![2], vec![4]];
        let after = vec![vec![2], vec![3], vec![4], vec![5]];
        let mut d = ResultDelta::default();
        diff_sorted_into(&before, &after, &mut d);
        assert_eq!(d.added, vec![vec![3], vec![5]]);
        assert_eq!(d.removed, vec![vec![1]]);
    }
}
