//! From-scratch invariant auditing of the dynamic data structure.
//!
//! The incremental engine maintains many redundant registers (presence
//! counters `C^i_ψ`, free weights `C̃^i`, per-child free sums, fit-list
//! membership, `C̃_start`). This module recomputes all of them
//! **independently** — presence from a direct scan of the database the
//! structure is maintained against, weights by brute-force backtracking
//! joins over `atoms(v)` — and compares. The weights `C^i` and `C_start`
//! are not stored: the structure computes them on demand from its fit
//! lists, and the audit compares those against the reference too, so an
//! item is fit iff its reference `C^i` is positive. Property tests
//! drive random update streams through the engine and call
//! [`check_invariants`] after every step, and a session audits every
//! registration against its one `D`; this is the main correctness
//! argument for the Section 6 implementation beyond the end-to-end
//! result checks.

use crate::structure::ComponentStructure;
use crate::QhStructure;
use cqu_common::{FxHashMap, FxHashSet, SlabId};
use cqu_query::qtree::NodeId;
use cqu_query::{AtomId, Query, Var};
use cqu_storage::{Const, Database};

/// Verifies every maintained register of `structure` against independent
/// recomputation over `db`, the `D` its owner keeps. Returns a
/// description of the first inconsistency found.
///
/// Cost is roughly `O(|items| · |D|^{|atoms(v)|})` — intended for tests on
/// small databases, not production use.
pub fn check_invariants(structure: &QhStructure, db: &Database) -> Result<(), String> {
    for (ci, comp) in structure.components().iter().enumerate() {
        check_component(ci, comp, db)?;
    }
    Ok(())
}

fn check_component(ci: usize, comp: &ComponentStructure, db: &Database) -> Result<(), String> {
    let tree = comp.tree();
    let q = comp.query();

    // ---- Presence and per-atom counters (condition (a), Section 6.4). ----
    type Key = (NodeId, Box<[Const]>);
    let mut expected: FxHashMap<Key, Vec<u64>> = FxHashMap::default();
    for ap in tree.atom_paths() {
        let atom = q.atom(ap.atom);
        for fact in db.relation(atom.relation).iter() {
            if !ap
                .canon
                .iter()
                .enumerate()
                .all(|(p, &c)| fact[p] == fact[c])
            {
                continue;
            }
            let consts: Vec<Const> = ap.extract.iter().map(|&p| fact[p]).collect();
            let path = &tree.node(ap.rep).path;
            for j in 0..path.len() {
                let node = path[j];
                let key: Box<[Const]> = consts[..=j].into();
                let counts = expected
                    .entry((node, key))
                    .or_insert_with(|| vec![0; tree.node(node).atoms.len()]);
                counts[ap.atom_pos[j]] += 1;
            }
        }
    }
    let live: usize = comp.iter_items().count();
    if live != expected.len() {
        return Err(format!(
            "component {ci}: {live} live items but {} expected present",
            expected.len()
        ));
    }
    for ((node, key), counts) in &expected {
        let id = comp
            .lookup_item(*node, key)
            .ok_or_else(|| format!("component {ci}: missing item [{node}, {key:?}]"))?;
        let stored = comp.node_items(*node).atom_counts(id);
        if stored != counts.as_slice() {
            return Err(format!(
                "component {ci}: item [{node}, {key:?}] atom counts {stored:?} != expected {counts:?}"
            ));
        }
    }

    // ---- List structure and maintained free sums. ----
    let walk = |node: NodeId, head: SlabId| -> Result<Vec<SlabId>, String> {
        let rows = &comp.node_items(node).rows;
        let mut out = Vec::new();
        let mut cur = head;
        let mut prev = SlabId::NONE;
        while cur.is_some() {
            let row = rows
                .get(cur)
                .ok_or_else(|| format!("component {ci}: dangling list pointer {cur:?}"))?;
            if row.prev != prev {
                return Err(format!("component {ci}: broken prev link at {cur:?}"));
            }
            out.push(cur);
            prev = cur;
            cur = row.next;
            if out.len() > rows.len() {
                return Err(format!("component {ci}: list cycle detected"));
            }
        }
        Ok(out)
    };

    // Start list: root items only; its C̃_start sum.
    let root = tree.root();
    let roots = &comp.node_items(root).rows;
    let start_items = walk(root, comp.start_head())?;
    let mut listed: FxHashSet<(NodeId, SlabId)> = FxHashSet::default();
    let mut ct_start = 0u64;
    for &id in &start_items {
        let row = &roots[id];
        if row.parent.is_some() {
            return Err(format!("component {ci}: non-root item in start list"));
        }
        listed.insert((root, id));
        ct_start += row.free_weight;
    }
    if tree.node(root).free && comp.ct_start() != ct_start {
        return Err(format!(
            "component {ci}: C~_start {} != recomputed {ct_start}",
            comp.ct_start()
        ));
    }

    // Child lists: parentage and free-sum registers.
    for (node, pid, _) in comp.iter_items() {
        let meta = tree.node(node);
        let regs = comp.node_items(node).children(pid);
        for (pos, &child_node) in meta.children.iter().enumerate() {
            let mut fsum = 0u64;
            for id in walk(child_node, regs[pos].head)? {
                let row = &comp.node_items(child_node).rows[id];
                if row.parent != pid {
                    return Err(format!(
                        "component {ci}: item in wrong child list of {pid:?} slot {pos}"
                    ));
                }
                if !listed.insert((child_node, id)) {
                    return Err(format!("component {ci}: item in two fit lists"));
                }
                fsum += row.free_weight;
            }
            if tree.node(child_node).free && regs[pos].free_sum != fsum {
                return Err(format!(
                    "component {ci}: free child sum {} != recomputed {fsum} (slot {pos})",
                    regs[pos].free_sum
                ));
            }
        }
    }

    // ---- Weights via brute-force joins (definitions of E^i and E~^i). ----
    // The lists are sound now, so the on-demand `C^i` walks terminate.
    let mut c_start = 0u128;
    for (node, id, row) in comp.iter_items() {
        let meta = tree.node(node);
        let key = comp.item_key(node, id);
        // The parent chain and the lookup agree: the key rebuilt from the
        // row's parents addresses the row itself.
        if comp.lookup_item(node, &key) != Some(id) {
            return Err(format!(
                "component {ci}: item [{node}, {key:?}] is not where its key leads"
            ));
        }
        let mut fixed: FxHashMap<Var, Const> = FxHashMap::default();
        for (j, &nid) in meta.path.iter().enumerate() {
            fixed.insert(tree.node(nid).var, key[j]);
        }
        let (c, ctilde) = reference_weights(q, db, &meta.atoms, &fixed);
        let weight = comp.item_weight(node, id);
        if weight != c {
            return Err(format!(
                "component {ci}: item [{node}, {key:?}] weight {weight} != reference C^i {c}"
            ));
        }
        if meta.free && row.free_weight != ctilde {
            return Err(format!(
                "component {ci}: item [{node}, {key:?}] free weight {} != reference C~^i {ctilde}",
                row.free_weight
            ));
        }
        if row.in_list != (c > 0) {
            return Err(format!(
                "component {ci}: item [{node}, {key:?}] fit-list membership {} but C^i = {c}",
                row.in_list
            ));
        }
        if row.in_list != listed.contains(&(node, id)) {
            return Err(format!(
                "component {ci}: item [{node}, {key:?}] is fit but in no list, or listed but unfit"
            ));
        }
        if !row.in_list && (row.prev.is_some() || row.next.is_some()) {
            return Err(format!(
                "component {ci}: unfit item [{node}, {key:?}] keeps list links"
            ));
        }
        if node == root {
            c_start += c;
        }
    }
    if comp.c_start() != c_start {
        return Err(format!(
            "component {ci}: C_start {} != reference {c_start}",
            comp.c_start()
        ));
    }
    Ok(())
}

/// Computes `(C^i, C̃^i)` for an item by brute force: the number of
/// expansions `β ⊇ α` with `dom(β) = ⋃_{ψ ∈ atoms(v)} vars(ψ)` satisfying
/// every `ψ ∈ atoms(v)`, and the number of their distinct projections onto
/// the free variables.
fn reference_weights(
    q: &Query,
    db: &Database,
    atoms: &[AtomId],
    fixed: &FxHashMap<Var, Const>,
) -> (u128, u64) {
    let mut free_u: Vec<Var> = Vec::new();
    for &aid in atoms {
        for v in q.atom(aid).vars() {
            if q.is_free(v) && !free_u.contains(&v) {
                free_u.push(v);
            }
        }
    }
    free_u.sort_unstable();
    let mut assign = fixed.clone();
    let mut count = 0u128;
    let mut projections: FxHashSet<Vec<Const>> = FxHashSet::default();
    backtrack(
        q,
        db,
        atoms,
        0,
        &mut assign,
        &free_u,
        &mut count,
        &mut projections,
    );
    (count, projections.len() as u64)
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    q: &Query,
    db: &Database,
    atoms: &[AtomId],
    idx: usize,
    assign: &mut FxHashMap<Var, Const>,
    free_u: &[Var],
    count: &mut u128,
    projections: &mut FxHashSet<Vec<Const>>,
) {
    if idx == atoms.len() {
        *count += 1;
        projections.insert(free_u.iter().map(|v| assign[v]).collect());
        return;
    }
    let atom = q.atom(atoms[idx]);
    for fact in db.relation(atom.relation).iter() {
        let mut bound: Vec<Var> = Vec::new();
        let mut ok = true;
        for (pos, &v) in atom.args.iter().enumerate() {
            match assign.get(&v) {
                Some(&c) if c != fact[pos] => {
                    ok = false;
                    break;
                }
                Some(_) => {}
                None => {
                    assign.insert(v, fact[pos]);
                    bound.push(v);
                }
            }
        }
        if ok {
            backtrack(q, db, atoms, idx + 1, assign, free_u, count, projections);
        }
        for v in bound {
            assign.remove(&v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DynamicEngine;
    use crate::QhEngine;
    use cqu_query::parse_query;
    use cqu_storage::Update;

    fn audited(e: &QhEngine) {
        check_invariants(e, e.database()).unwrap();
    }

    #[test]
    fn audit_passes_on_small_run() {
        let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
        let mut e = QhEngine::empty(&q).unwrap();
        let er = q.schema().relation("E").unwrap();
        let tr = q.schema().relation("T").unwrap();
        audited(&e);
        for (a, b) in [(1, 2), (1, 3), (2, 3), (3, 3)] {
            e.apply(&Update::Insert(er, vec![a, b]));
            audited(&e);
        }
        for t in [2, 3] {
            e.apply(&Update::Insert(tr, vec![t]));
            audited(&e);
        }
        for (a, b) in [(1, 3), (3, 3)] {
            e.apply(&Update::Delete(er, vec![a, b]));
            audited(&e);
        }
        e.apply(&Update::Delete(tr, vec![2]));
        audited(&e);
    }

    /// A structure out of step with the `D` it is audited against is
    /// caught: the audit reads presence from the caller's database.
    #[test]
    fn audit_reads_the_callers_database() {
        let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
        let mut e = QhEngine::empty(&q).unwrap();
        let er = q.schema().relation("E").unwrap();
        e.apply(&Update::Insert(er, vec![1, 2]));
        let stale = Database::new(q.schema().clone());
        assert!(check_invariants(&e, &stale).is_err());
    }

    #[test]
    fn audit_covers_quantified_queries() {
        let q = parse_query("Q(x) :- E(x, y), F(y, z).").unwrap();
        // Not q-hierarchical? atoms(y) = {E, F}, atoms(x) = {E}: nested ✓;
        // atoms(z) = {F} ⊆ atoms(y) ✓; x free, y quantified with
        // atoms(x) ⊊ atoms(y) → violates (ii)! Use the Boolean version.
        assert!(QhEngine::empty(&q).is_err());
        let qb = parse_query("Q() :- E(x, y), F(y, z).").unwrap();
        let mut e = QhEngine::empty(&qb).unwrap();
        let er = qb.schema().relation("E").unwrap();
        let fr = qb.schema().relation("F").unwrap();
        for (a, b) in [(1, 2), (2, 2), (5, 6)] {
            e.apply(&Update::Insert(er, vec![a, b]));
            audited(&e);
        }
        for (a, b) in [(2, 9), (6, 1)] {
            e.apply(&Update::Insert(fr, vec![a, b]));
            audited(&e);
        }
        assert!(e.answer());
        e.apply(&Update::Delete(fr, vec![2, 9]));
        audited(&e);
    }
}
