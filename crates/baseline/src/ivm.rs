//! The delta-IVM baseline: classical incremental view maintenance.
//!
//! This is "mainstream IVM" in the sense of Gupta–Mumick–Subrahmanian
//! [22]: the engine materialises the query result as a multiset of
//! support counts (result tuple → number of valuations) and, per update
//! `±R(t)`, evaluates the **delta query**
//!
//! ```text
//!   Δϕ = Σ_i  ψ₁^old ⋈ … ⋈ ψ_{i-1}^old ⋈ {t} ⋈ ψ_{i+1}^new ⋈ … ⋈ ψ_d^new
//! ```
//!
//! over one fixed atom decomposition (body order), with persistent hash
//! indexes maintained O(1) per tuple. Requests are O(1) (reads of the
//! materialised view) — the cost sits in the updates, whose delta joins
//! can touch `Θ(n)` or more tuples. The paper's point (Theorems 3.3–3.5)
//! is that for non-q-hierarchical queries *some* polynomial per-update
//! cost of this kind is unavoidable; for q-hierarchical queries the
//! [`cqu_dynamic::QhEngine`] removes it entirely.
//!
//! The view keeps no database: its hash indexes hold the facts its delta
//! joins probe, and the caller owns `D` and hands it only effective facts
//! ([`DynamicEngine`]). A netted set ([`DynamicEngine::apply_net`], at
//! most one fact per tuple) takes the grouped form of the same formula:
//! the facts are grouped per relation and sign, and
//! each group runs the delta join **once** with the whole group `ΔR`
//! bound at the fixed atom — "old" atoms probe the base state without
//! `ΔR`, "new" atoms additionally probe a **persistent ΔR slot**: one
//! pre-built index per distinct `(relation, key columns)` pair, resolved
//! to a dense slot id at plan-build time and cleared/refilled per group,
//! so a steady stream of batches allocates no indexes at all
//! ([`DeltaIvmView::delta_slot_builds`] is the counter the
//! `delta_slots_are_persistent_across_batches` test trips on).
//! Each affected valuation is counted exactly once, at the first atom
//! position where it uses a group tuple, so the grouped delta equals the
//! sum of the sequential per-tuple deltas.
//!
//! Because support transitions (`0 → n` / `n → 0`) are observed as a side
//! effect of view maintenance, the engine reports
//! [`DynamicEngine::delta_hint`] and extracts change-feed deltas natively
//! at `O(δ)` on top of the delta join it performs anyway.

use crate::join::JoinPlan;
use cqu_common::FxHashMap;
use cqu_dynamic::{DynamicEngine, ResultDelta, Standalone};
use cqu_query::{Query, RelId, Var};
use cqu_storage::{Const, Database, Index, Update};
use std::collections::hash_map::Entry;
use std::ops::{Deref, DerefMut};

/// The one ΔR `Index` constructor: every construction bumps the
/// engine's build counter, so [`DeltaIvmView::delta_slot_builds`]
/// measures real allocation events. Batch-path code must route any ΔR
/// index it ever needs through here (never bare `Index::new`), or the
/// `delta_slots_are_persistent_across_batches` test below loses its
/// teeth.
fn new_delta_index(cols: Vec<usize>, builds: &mut u64) -> Index {
    *builds += 1;
    Index::new(cols)
}

/// The delta-IVM engine in its stand-alone form: a [`DeltaIvmView`] with
/// its own copy of `D`. A newtype only because inherent constructors must
/// live in the crate that defines [`Standalone`]; everything else is the
/// owner's, through `Deref`.
pub struct DeltaIvmEngine(Standalone<DeltaIvmView>);

impl DeltaIvmEngine {
    /// Builds the view over `db0` and keeps a copy of `db0`.
    pub fn new(query: &Query, db0: &Database) -> Self {
        DeltaIvmEngine(Standalone::over(DeltaIvmView::empty(query), db0))
    }
}

impl Deref for DeltaIvmEngine {
    type Target = Standalone<DeltaIvmView>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for DeltaIvmEngine {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// Incremental-view-maintenance baseline engine, maintained against the
/// caller's `D`.
pub struct DeltaIvmView {
    query: Query,
    /// Persistent hash indexes, densely stored; `(relation, columns)` is
    /// resolved to a slot at plan-build time so the update hot path never
    /// hashes composite keys or clones column vectors.
    indexes: Vec<Index>,
    /// Relation of each index in `indexes` (for maintenance fan-out).
    index_rel: Vec<RelId>,
    /// Per body atom `i`: the join plan for the `i`-th delta term.
    delta_plans: Vec<JoinPlan>,
    /// Per delta plan, per step ≥ 1: slot of the probe index in
    /// `indexes` (`usize::MAX` for step 0, which binds the update tuple).
    plan_step_index: Vec<Vec<usize>>,
    /// Persistent ΔR slots for the grouped batch path: one per distinct
    /// `(relation, key columns)` a "new"-state atom probes the change
    /// group with. Built once here, cleared and refilled per group —
    /// never reallocated across batches.
    delta_slots: Vec<Index>,
    /// Relation of each ΔR slot (fill fan-out per group).
    delta_slot_rel: Vec<RelId>,
    /// Per delta plan, per step: the ΔR slot a "new"-state atom probes
    /// (`usize::MAX` when the step never sees the change group).
    plan_step_dslot: Vec<Vec<usize>>,
    /// Lifetime count of ΔR `Index` constructions — stays equal to
    /// `delta_slots.len()` forever; the regression tripwire for the old
    /// rebuild-per-group behaviour.
    delta_slot_builds: u64,
    /// Materialised view: result tuple → number of supporting valuations.
    support: FxHashMap<Vec<Const>, u64>,
    /// Reusable per-recursion-depth probe-key buffers: the delta join
    /// performs no allocation per probe, only `mem::take` swaps.
    scratch: Vec<Vec<Const>>,
}

impl DeltaIvmView {
    /// Builds the view over the empty database (load a `D₀` with
    /// [`DynamicEngine::load`]).
    pub fn empty(query: &Query) -> Self {
        let delta_plans: Vec<JoinPlan> = (0..query.atoms().len())
            .map(|i| JoinPlan::new(query, Some(i)))
            .collect();
        let mut slot_of: FxHashMap<(u32, Vec<usize>), usize> = FxHashMap::default();
        let mut indexes: Vec<Index> = Vec::new();
        let mut index_rel: Vec<RelId> = Vec::new();
        let mut plan_step_index: Vec<Vec<usize>> = Vec::with_capacity(delta_plans.len());
        for plan in &delta_plans {
            let mut steps = Vec::with_capacity(plan.order.len());
            for (step, &aid) in plan.order.iter().enumerate() {
                if step == 0 {
                    // The fixed atom binds the update tuple — no index.
                    steps.push(usize::MAX);
                    continue;
                }
                let rel = query.atom(aid).relation;
                let cols = plan.key_cols[step].clone();
                let slot = *slot_of.entry((rel.0, cols.clone())).or_insert_with(|| {
                    indexes.push(Index::new(cols));
                    index_rel.push(rel);
                    indexes.len() - 1
                });
                steps.push(slot);
            }
            plan_step_index.push(steps);
        }
        // Persistent ΔR slots: every (relation, key columns) pair a
        // "new"-state atom (body index > the plan's fixed atom, same
        // relation as the change group) probes the group with. Resolved
        // to dense slot ids here, so the grouped delta join never hashes
        // column sets or allocates indexes again.
        let mut dslot_of: FxHashMap<(u32, Vec<usize>), usize> = FxHashMap::default();
        let mut delta_slots: Vec<Index> = Vec::new();
        let mut delta_slot_rel: Vec<RelId> = Vec::new();
        let mut plan_step_dslot: Vec<Vec<usize>> = Vec::with_capacity(delta_plans.len());
        let mut delta_slot_builds = 0u64;
        for (i, plan) in delta_plans.iter().enumerate() {
            let group_rel = query.atom(i).relation;
            let mut steps = vec![usize::MAX; plan.order.len()];
            for (step, &aid) in plan.order.iter().enumerate().skip(1) {
                if aid > i && query.atom(aid).relation == group_rel {
                    let cols = plan.key_cols[step].clone();
                    let slot = *dslot_of
                        .entry((group_rel.0, cols.clone()))
                        .or_insert_with(|| {
                            delta_slots.push(new_delta_index(cols, &mut delta_slot_builds));
                            delta_slot_rel.push(group_rel);
                            delta_slots.len() - 1
                        });
                    steps[step] = slot;
                }
            }
            plan_step_dslot.push(steps);
        }
        let scratch = vec![Vec::new(); query.atoms().len()];
        DeltaIvmView {
            query: query.clone(),
            indexes,
            index_rel,
            delta_plans,
            plan_step_index,
            delta_slots,
            delta_slot_rel,
            plan_step_dslot,
            delta_slot_builds,
            support: FxHashMap::default(),
            scratch,
        }
    }

    /// Number of persistent ΔR slots the grouped batch path reuses.
    pub fn delta_slot_count(&self) -> usize {
        self.delta_slots.len()
    }

    /// Lifetime number of ΔR index constructions. Equal to
    /// [`DeltaIvmView::delta_slot_count`] by construction — the slots
    /// are built once and refilled per group. Benchmarks assert this
    /// stays put across batches (the old code rebuilt temporary indexes
    /// for every group of every batch).
    pub fn delta_slot_builds(&self) -> u64 {
        self.delta_slot_builds
    }

    /// Size of the materialised view (number of distinct result tuples).
    pub fn view_size(&self) -> usize {
        self.support.len()
    }

    /// Evaluates the delta for the changed tuples `group` of relation
    /// `rel` against the current `indexes` state, which must NOT contain
    /// the group. Atoms with body index `> i` additionally see
    /// the group as candidates ("new" state) via the persistent ΔR slots
    /// (the caller filled them with [`DeltaIvmView::fill_delta_slots`]).
    fn delta_for(
        &self,
        rel: RelId,
        group: &[&[Const]],
        scratch: &mut [Vec<Const>],
        delta: &mut FxHashMap<Vec<Const>, u64>,
    ) {
        let mut assign: Vec<Option<Const>> = vec![None; self.query.num_vars()];
        for (i, plan) in self.delta_plans.iter().enumerate() {
            if self.query.atom(i).relation != rel {
                continue;
            }
            for &t in group {
                self.delta_recurse(
                    plan,
                    &self.plan_step_index[i],
                    i,
                    rel,
                    t,
                    0,
                    &mut assign,
                    scratch,
                    delta,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn delta_recurse(
        &self,
        plan: &JoinPlan,
        slots: &[usize],
        fixed: usize,
        rel: RelId,
        t: &[Const],
        step: usize,
        assign: &mut Vec<Option<Const>>,
        scratch: &mut [Vec<Const>],
        delta: &mut FxHashMap<Vec<Const>, u64>,
    ) {
        if step == plan.order.len() {
            let tuple: Vec<Const> = self
                .query
                .free()
                .iter()
                .map(|v| assign[v.index()].unwrap())
                .collect();
            *delta.entry(tuple).or_insert(0) += 1;
            return;
        }
        let aid = plan.order[step];
        let atom = self.query.atom(aid);
        let cols = &plan.key_cols[step];

        let try_fact = |this: &Self,
                        fact: &[Const],
                        assign: &mut Vec<Option<Const>>,
                        scratch: &mut [Vec<Const>],
                        delta: &mut FxHashMap<Vec<Const>, u64>| {
            let mut bound: Vec<Var> = Vec::new();
            let mut ok = true;
            for (p, &v) in atom.args.iter().enumerate() {
                match assign[v.index()] {
                    Some(c) if c != fact[p] => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        assign[v.index()] = Some(fact[p]);
                        bound.push(v);
                    }
                }
            }
            if ok {
                this.delta_recurse(plan, slots, fixed, rel, t, step + 1, assign, scratch, delta);
            }
            for v in bound {
                assign[v.index()] = None;
            }
        };

        if step == 0 {
            // The fixed atom: only the updated tuple itself.
            debug_assert_eq!(aid, fixed);
            try_fact(self, t, assign, scratch, delta);
            return;
        }
        // Build the probe key in this depth's reusable buffer.
        let mut key = std::mem::take(&mut scratch[step]);
        key.clear();
        key.extend(cols.iter().map(|&p| assign[atom.args[p].index()].unwrap()));
        let index = &self.indexes[slots[step]];
        for fact in index.probe(&key) {
            try_fact(self, fact, assign, scratch, delta);
        }
        // "New"-state atoms (body index > fixed) additionally see the
        // changed tuples, through the persistent ΔR slot resolved at
        // plan-build time (no hash on the column set, no per-group index
        // construction).
        if aid > fixed && atom.relation == rel {
            let dslot = self.plan_step_dslot[fixed][step];
            for fact in self.delta_slots[dslot].probe(&key) {
                try_fact(self, fact, assign, scratch, delta);
            }
        }
        scratch[step] = key;
    }

    /// Applies a delta to the support map with the given sign, recording
    /// the presence transitions (`0 → n` added, `n → 0` removed) when a
    /// change feed is being tracked.
    fn apply_delta(
        &mut self,
        delta: FxHashMap<Vec<Const>, u64>,
        positive: bool,
        mut track: Option<&mut ResultDelta>,
    ) {
        for (tuple, n) in delta {
            if n == 0 {
                continue;
            }
            if positive {
                match self.support.entry(tuple) {
                    Entry::Occupied(mut o) => *o.get_mut() += n,
                    Entry::Vacant(v) => {
                        if let Some(d) = track.as_deref_mut() {
                            d.added.push(v.key().clone());
                        }
                        v.insert(n);
                    }
                }
            } else {
                match self.support.entry(tuple) {
                    Entry::Occupied(mut o) => {
                        assert!(*o.get() >= n, "support underflow");
                        *o.get_mut() -= n;
                        if *o.get() == 0 {
                            let (k, _) = o.remove_entry();
                            if let Some(d) = track.as_deref_mut() {
                                d.removed.push(k);
                            }
                        }
                    }
                    Entry::Vacant(_) => panic!("negative delta on absent tuple"),
                }
            }
        }
    }

    /// Adds/removes `t` in the persistent indexes.
    fn touch_indexes(&mut self, rel: RelId, t: &[Const], insert: bool) {
        for (r, index) in self.index_rel.iter().zip(self.indexes.iter_mut()) {
            if *r == rel {
                if insert {
                    index.insert(t.to_vec());
                } else {
                    index.remove(t);
                }
            }
        }
    }

    /// Loads `group` into the persistent `ΔR` slots of `rel` (clearing
    /// their previous contents, bucket allocations retained). Slots of
    /// other relations are left alone — a grouped delta over `rel` never
    /// probes them.
    fn fill_delta_slots(&mut self, rel: RelId, group: &[&[Const]]) {
        for (slot_rel, index) in self.delta_slot_rel.iter().zip(self.delta_slots.iter_mut()) {
            if *slot_rel == rel {
                index.clear();
                for &t in group {
                    index.insert(t.to_vec());
                }
            }
        }
    }

    /// Commits one netted per-relation group (all inserts or all deletes)
    /// with a single grouped delta join over the persistent ΔR slots.
    fn commit_group(
        &mut self,
        rel: RelId,
        group: &[&[Const]],
        insert: bool,
        scratch: &mut [Vec<Const>],
        track: Option<&mut ResultDelta>,
    ) {
        self.fill_delta_slots(rel, group);
        let mut counts: FxHashMap<Vec<Const>, u64> = FxHashMap::default();
        if insert {
            // The delta is evaluated in the state without the group.
            self.delta_for(rel, group, scratch, &mut counts);
            for &t in group {
                self.touch_indexes(rel, t, true);
            }
            self.apply_delta(counts, true, track);
        } else {
            for &t in group {
                self.touch_indexes(rel, t, false);
            }
            self.delta_for(rel, group, scratch, &mut counts);
            self.apply_delta(counts, false, track);
        }
    }

    /// Per-relation-grouped application of a netted set (see module
    /// docs); each maximal run of one relation is one group per sign.
    fn net_inner(&mut self, net: &[Update], mut track: Option<&mut ResultDelta>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut i = 0;
        while i < net.len() {
            let rel = net[i].relation();
            let end = net[i..]
                .iter()
                .position(|f| f.relation() != rel)
                .map_or(net.len(), |p| i + p);
            // Deletes first: the base state a grouped delta probes must be
            // consistent, and support counts depend only on it.
            let group = |insert: bool| -> Vec<&[Const]> {
                net[i..end]
                    .iter()
                    .filter(|f| f.is_insert() == insert)
                    .map(|f| f.tuple())
                    .collect()
            };
            let (deletes, inserts) = (group(false), group(true));
            if !deletes.is_empty() {
                self.commit_group(rel, &deletes, false, &mut scratch, track.as_deref_mut());
            }
            if !inserts.is_empty() {
                self.commit_group(rel, &inserts, true, &mut scratch, track.as_deref_mut());
            }
            i = end;
        }
        self.scratch = scratch;
    }
}

impl DynamicEngine for DeltaIvmView {
    fn query(&self) -> &Query {
        &self.query
    }

    fn apply_net(&mut self, net: &[Update]) {
        self.net_inner(net, None);
    }

    fn delta_hint(&self) -> bool {
        true
    }

    /// Native delta extraction: support transitions (`0 → n` / `n → 0`)
    /// fall out of the view maintenance the engine performs anyway, so
    /// tracking costs `O(δ)` on top of the delta join.
    fn apply_net_tracked(&mut self, net: &[Update], delta: &mut ResultDelta) {
        self.net_inner(net, Some(delta));
    }

    fn count(&self) -> u64 {
        self.support.len() as u64
    }

    fn is_nonempty(&self) -> bool {
        !self.support.is_empty()
    }

    fn enumerate<'a>(&'a self) -> Box<dyn Iterator<Item = Vec<Const>> + 'a> {
        Box::new(self.support.keys().cloned())
    }

    /// Pins a clone of the materialized view's key set (multiplicities
    /// are an engine-internal detail and are dropped) — the view *is*
    /// the result, so the pin is one `O(|ϕ(D)|)` key copy, and the
    /// sorted-rows snapshot then serves `results_sorted` without
    /// re-sorting per call.
    fn snapshot(&self) -> Box<dyn cqu_dynamic::ResultSnapshot> {
        Box::new(cqu_dynamic::MaterializedSnapshot::new(
            self.support.keys().cloned().collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::RecomputeEngine;
    use cqu_dynamic::diff_sorted_into;
    use cqu_query::parse_query;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ivm(q: &Query) -> Standalone<DeltaIvmView> {
        Standalone::from_empty(DeltaIvmView::empty(q))
    }

    fn random_script(q: &Query, seed: u64, steps: usize, domain: u64) -> Vec<Update> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rels: Vec<_> = q.schema().relations().collect();
        (0..steps)
            .map(|_| {
                let rel = rels[rng.gen_range(0..rels.len())];
                let arity = q.schema().arity(rel);
                let t: Vec<Const> = (0..arity).map(|_| rng.gen_range(1..=domain)).collect();
                if rng.gen_bool(0.65) {
                    Update::Insert(rel, t)
                } else {
                    Update::Delete(rel, t)
                }
            })
            .collect()
    }

    fn agree_on(src: &str, seed: u64) {
        let q = parse_query(src).unwrap();
        let mut ivm = ivm(&q);
        let mut naive = Standalone::from_empty(RecomputeEngine::empty(&q));
        for u in random_script(&q, seed, 200, 5) {
            assert_eq!(ivm.apply(&u), naive.apply(&u), "{src}: effectiveness");
            assert_eq!(ivm.count(), naive.count(), "{src} after {u:?}");
        }
        assert_eq!(ivm.results_sorted(), naive.results_sorted(), "{src}");
    }

    #[test]
    fn agrees_with_recompute_on_hard_queries() {
        agree_on("Q(x, y) :- S(x), E(x, y), T(y).", 1);
        agree_on("Q(x) :- E(x, y), T(y).", 2);
        agree_on("Q() :- S(x), E(x, y), T(y).", 3);
    }

    #[test]
    fn agrees_with_recompute_on_easy_queries() {
        agree_on("Q(x, y) :- E(x, y), T(y).", 4);
        agree_on("Q(x, y, z) :- R(x, y), S(x, z), T(x).", 5);
    }

    #[test]
    fn agrees_with_recompute_on_self_joins() {
        agree_on("Q(x, y) :- E(x, x), E(x, y), E(y, y).", 6);
        agree_on("Q(a) :- R(a, b), R(a, a).", 7);
    }

    #[test]
    fn support_counts_valuations() {
        // Q(x) :- E(x, y): support of [1] is the number of y-partners.
        let q = parse_query("Q(x) :- E(x, y).").unwrap();
        let mut e = ivm(&q);
        let er = q.schema().relation("E").unwrap();
        e.apply(&Update::Insert(er, vec![1, 10]));
        e.apply(&Update::Insert(er, vec![1, 11]));
        assert_eq!(e.count(), 1);
        e.apply(&Update::Delete(er, vec![1, 10]));
        assert_eq!(e.count(), 1, "still supported by E(1,11)");
        e.apply(&Update::Delete(er, vec![1, 11]));
        assert_eq!(e.count(), 0);
        assert_eq!(e.view_size(), 0);
    }

    #[test]
    fn initial_database_load() {
        let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
        let mut db = Database::new(q.schema().clone());
        let er = q.schema().relation("E").unwrap();
        let tr = q.schema().relation("T").unwrap();
        db.insert(er, vec![1, 2]);
        db.insert(tr, vec![2]);
        let e = DeltaIvmEngine::new(&q, &db);
        assert_eq!(e.results_sorted(), vec![vec![1, 2]]);
    }

    /// The grouped batch path must match sequential application exactly —
    /// state, report, and support multiset — on hard self-join queries
    /// where the asymmetric old/new handling is most delicate.
    #[test]
    fn grouped_batch_equals_sequential() {
        for src in [
            "Q(x, y) :- S(x), E(x, y), T(y).",
            "Q(x, y) :- E(x, x), E(x, y), E(y, y).",
            "Q(x) :- E(x, y), T(y).",
            "Q(x, y, z) :- E(x, y), F(y, z), G(z, x).",
        ] {
            let q = parse_query(src).unwrap();
            for seed in 0..6u64 {
                let script = random_script(&q, 100 + seed, 120, 4);
                let mut seq = ivm(&q);
                let mut bat = ivm(&q);
                for window in script.chunks(16) {
                    let applied = window.iter().filter(|u| seq.apply(u)).count();
                    let report = bat.apply_batch(window);
                    assert_eq!(report.applied, applied, "{src} seed {seed}");
                    assert_eq!(report.total, window.len());
                    assert_eq!(bat.results_sorted(), seq.results_sorted(), "{src} {seed}");
                    assert_eq!(bat.support, seq.support, "{src} seed {seed}");
                    assert_eq!(
                        bat.database().cardinality(),
                        seq.database().cardinality(),
                        "{src} seed {seed}"
                    );
                }
            }
        }
    }

    /// Native tracked deltas equal a full-result diff, per update and per
    /// batch.
    #[test]
    fn tracked_deltas_match_full_diff() {
        let q = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        let script = random_script(&q, 9, 150, 4);
        let mut e = ivm(&q);
        for u in &script {
            let before = e.results_sorted();
            let mut got = ResultDelta::default();
            e.apply_tracked(u, &mut got);
            got.normalize();
            let mut want = ResultDelta::default();
            diff_sorted_into(&before, &e.results_sorted(), &mut want);
            assert_eq!(got, want, "single {u:?}");
        }
        let mut e = ivm(&q);
        for window in script.chunks(13) {
            let before = e.results_sorted();
            let mut got = ResultDelta::default();
            e.apply_batch_tracked(window, &mut got);
            got.normalize();
            let mut want = ResultDelta::default();
            diff_sorted_into(&before, &e.results_sorted(), &mut want);
            assert_eq!(got, want, "batch");
        }
    }

    /// The ΔR slots are built once at plan time and merely refilled per
    /// group — a long stream of grouped batches must not construct a
    /// single additional index.
    #[test]
    fn delta_slots_are_persistent_across_batches() {
        let q = parse_query("Q(x, y) :- E(x, x), E(x, y), E(y, y).").unwrap();
        let mut e = ivm(&q);
        assert!(
            e.delta_slot_count() > 0,
            "self-join query must need ΔR slots"
        );
        let builds = e.delta_slot_builds();
        assert_eq!(builds, e.delta_slot_count() as u64);
        let script = random_script(&q, 11, 240, 4);
        for window in script.chunks(16) {
            e.apply_batch(window);
            assert_eq!(e.delta_slot_builds(), builds, "slot rebuilt mid-stream");
        }
        // Queries without self-joins never probe the group from a "new"
        // atom: zero slots, zero builds.
        let q = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        let e = ivm(&q);
        assert_eq!(e.delta_slot_count(), 0);
        assert_eq!(e.delta_slot_builds(), 0);
    }

    #[test]
    fn cancelling_batch_is_cheap_and_silent() {
        let q = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        let er = q.schema().relation("E").unwrap();
        let mut e = ivm(&q);
        let batch: Vec<Update> = (0..50)
            .flat_map(|i| {
                [
                    Update::Insert(er, vec![i, i + 1]),
                    Update::Delete(er, vec![i, i + 1]),
                ]
            })
            .collect();
        let mut delta = ResultDelta::default();
        let report = e.apply_batch_tracked(&batch, &mut delta);
        assert_eq!(report.applied, 100, "each op is effective in sequence");
        assert!(delta.is_empty());
        assert_eq!(e.count(), 0);
        assert_eq!(e.database().cardinality(), 0);
    }
}
