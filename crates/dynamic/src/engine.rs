//! The dynamic-engine interface shared by the paper's algorithm and all
//! baselines.
//!
//! A dynamic query evaluation algorithm (paper, Section 2) consists of
//! `preprocess` (the constructor), `update`, and — depending on the task —
//! `enumerate`, `count`, and `answer`. This trait captures the latter four;
//! construction is engine-specific because preprocessing guarantees differ.

use cqu_common::FxHashMap;
use cqu_query::{Query, RelId};
use cqu_storage::{Const, Database, Update};

/// The net effect of an update (or batch) on a query result: the tuples
/// that entered and left `ϕ(D)`.
///
/// Producers ([`DynamicEngine::apply_tracked`] /
/// [`DynamicEngine::apply_batch_tracked`]) *append* raw presence flips;
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
/// to `out.removed`. The full-diff fallback for engines without native
/// delta extraction.
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

/// Nets a batch against `db` under set semantics: returns the
/// as-if-sequential effective count plus the per-fact net commits
/// `(relation, tuple, insert)`, sorted by relation for index locality.
/// An insert/delete pair of the same tuple cancels to two hash probes.
pub fn net_effective(db: &Database, updates: &[Update]) -> (usize, Vec<(RelId, Vec<Const>, bool)>) {
    // (initial presence, current presence) per touched tuple.
    let mut shadow: FxHashMap<(RelId, &[Const]), (bool, bool)> = FxHashMap::default();
    let mut applied = 0usize;
    for u in updates {
        let key = (u.relation(), u.tuple());
        let entry = shadow.entry(key).or_insert_with(|| {
            let present = db.relation(key.0).contains(key.1);
            (present, present)
        });
        let target = u.is_insert();
        if entry.1 != target {
            entry.1 = target;
            applied += 1;
        }
    }
    let mut net: Vec<(RelId, Vec<Const>, bool)> = shadow
        .into_iter()
        .filter(|(_, (initial, current))| initial != current)
        .map(|((rel, tuple), (_, current))| (rel, tuple.to_vec(), current))
        .collect();
    net.sort_unstable();
    (applied, net)
}

/// Outcome of a batched update application ([`DynamicEngine::apply_batch`]).
///
/// `applied` counts the updates that would have been effective had the
/// batch been applied one at a time — engines that net out the batch
/// internally (see `QhEngine`) still report sequential-equivalent
/// numbers, so callers can swap batching in and out without changing
/// the final state or the report. Engine-internal instrumentation (e.g.
/// `QhEngine::last_update_work`) reflects the work *actually* done and
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
/// Engines are `Send + Sync`: they hold plain data (no interior
/// mutability), writers go through `&mut self`, and concurrent readers
/// share `&self` — the session layer serializes the former and hands the
/// latter out behind its reader lock or via [`DynamicEngine::snapshot`].
pub trait DynamicEngine: Send + Sync {
    /// The query this engine maintains.
    fn query(&self) -> &Query;

    /// Applies a single-tuple update; returns `true` iff the database
    /// changed (set semantics: duplicate inserts / absent deletes are
    /// no-ops and must be tolerated).
    fn apply(&mut self, update: &Update) -> bool;

    /// Applies a batch of updates, equivalent to applying them in order.
    ///
    /// The default implementation loops [`DynamicEngine::apply`]; engines
    /// can override it to amortise work across the batch (grouping by
    /// relation, cancelling insert/delete pairs, deferring propagation)
    /// as long as the final state and the report match the sequential
    /// semantics.
    fn apply_batch(&mut self, updates: &[Update]) -> UpdateReport {
        let applied = updates.iter().filter(|u| self.apply(u)).count();
        UpdateReport {
            total: updates.len(),
            applied,
        }
    }

    /// Whether this engine extracts result deltas *natively* — as a side
    /// product of its own maintenance work — rather than by diffing full
    /// result snapshots.
    ///
    /// When `true`, [`DynamicEngine::apply_tracked`] costs the plain
    /// update plus `O(δ)` for `δ` flipped result tuples, so change feeds
    /// stay cheap no matter how large `ϕ(D)` is. When `false` (the
    /// default), the tracked methods fall back to enumerating the result
    /// before and after — correct, but `Ω(|ϕ(D)|)` per update.
    fn delta_hint(&self) -> bool {
        false
    }

    /// Applies a single-tuple update like [`DynamicEngine::apply`] while
    /// appending the result delta it caused to `delta` (raw flips — the
    /// consumer calls [`ResultDelta::normalize`] before publishing).
    ///
    /// The default implementation diffs full result snapshots; engines
    /// with [`DynamicEngine::delta_hint`] override it with native
    /// extraction.
    fn apply_tracked(&mut self, update: &Update, delta: &mut ResultDelta) -> bool {
        let before = self.results_sorted();
        if !self.apply(update) {
            return false;
        }
        diff_sorted_into(&before, &self.results_sorted(), delta);
        true
    }

    /// Applies a batch like [`DynamicEngine::apply_batch`] while
    /// appending the batch's result delta to `delta`.
    ///
    /// The default loops [`DynamicEngine::apply_tracked`] when the engine
    /// extracts deltas natively (flips accumulate and net out in
    /// `normalize`), and otherwise performs one snapshot diff around the
    /// whole batch.
    fn apply_batch_tracked(&mut self, updates: &[Update], delta: &mut ResultDelta) -> UpdateReport {
        if self.delta_hint() {
            let applied = updates
                .iter()
                .filter(|u| self.apply_tracked(u, delta))
                .count();
            return UpdateReport {
                total: updates.len(),
                applied,
            };
        }
        let before = self.results_sorted();
        let report = self.apply_batch(updates);
        if report.applied > 0 {
            diff_sorted_into(&before, &self.results_sorted(), delta);
        }
        report
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

#[cfg(test)]
mod tests {
    use super::*;

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
