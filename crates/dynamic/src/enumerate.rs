//! Constant-delay enumeration (paper, Section 6.3 / Algorithm 1).
//!
//! Enumeration walks the free-variable subtree `T'` in document order
//! `y₁,…,y_k`. The first output is obtained by taking the first item of
//! the start list and, inductively, the first item of each `y_μ`-list of
//! the chosen parent item; successive outputs advance the *deepest*
//! advanceable position and re-seed everything after it. Because every fit
//! item has nonempty child lists, each step costs `O(k)` — constant in the
//! database.
//!
//! For queries with several connected components the result is the
//! cross product `ϕ(D) = ϕ₁(D) × ⋯ × ϕⱼ(D)`; [`ResultIter`] runs the
//! component iterators as an odometer (the nested-loop scheme the paper
//! sketches at the start of Section 6).

use crate::structure::{ComponentStructure, NodeItems};
use cqu_common::SlabId;
use cqu_storage::Const;
use std::sync::Arc;

/// One position `μ` of Algorithm 1's item vector: the node `y_μ`'s array
/// and where its items hang below the item at the parent position.
struct Position<'a> {
    /// `A_{y_μ}`.
    items: &'a NodeItems,
    /// The position of `y_μ`'s parent (unused at position 0, the root).
    parent: usize,
    /// `y_μ`'s index among its parent's children.
    child: usize,
    /// The current item.
    current: SlabId,
    /// Pinned positions are never advanced nor re-seeded — the delta
    /// extractor's prefix-constrained enumeration.
    pinned: bool,
}

/// Algorithm 1 over one component. Yields tuples aligned with
/// [`ComponentStructure::output_vars`] (document order).
pub struct ComponentIter<'a> {
    positions: Vec<Position<'a>>,
    done: bool,
}

impl<'a> ComponentIter<'a> {
    /// Starts an enumeration over the component's current state.
    ///
    /// For Boolean components (no free variables) the iterator is empty —
    /// use [`ComponentStructure::is_nonempty`] as the guard instead.
    pub fn new(s: &'a ComponentStructure) -> Self {
        Self::start(s, |_| SlabId::NONE)
    }

    /// Starts an enumeration with some positions pinned to specific items
    /// (`SlabId::NONE` entries enumerate freely). Pinned items must be fit
    /// and must form a root-anchored chain — exactly what the update path
    /// guarantees for the items of a fit key prefix. Used for the `O(δ)`
    /// change-feed extraction: it yields precisely the output tuples that
    /// extend the pinned assignment.
    pub(crate) fn with_pinned(s: &'a ComponentStructure, fixed: Vec<SlabId>) -> Self {
        debug_assert_eq!(fixed.len(), s.free_order().len());
        Self::start(s, |mu| fixed[mu])
    }

    /// Positions the iterator on the first item vector, with position `μ`
    /// pinned to `fixed(μ)` unless that is `SlabId::NONE`.
    fn start(s: &'a ComponentStructure, fixed: impl Fn(usize) -> SlabId) -> Self {
        let positions: Vec<Position<'a>> = s
            .free_order()
            .iter()
            .enumerate()
            .map(|(mu, &node)| Position {
                items: s.node_items(node),
                parent: s.parent_pos()[mu],
                child: s.pos_in_parent(node),
                current: fixed(mu),
                pinned: fixed(mu).is_some(),
            })
            .collect();
        let mut it = ComponentIter {
            positions,
            done: false,
        };
        match it.positions.first_mut() {
            None => it.done = true,
            Some(root) if !root.pinned => {
                root.current = s.start_head();
                it.done = root.current.is_none();
            }
            Some(_) => {}
        }
        if !it.done {
            it.seed_after(0);
        }
        it
    }

    /// `Set(I, μ)` of Algorithm 1 for every unpinned `μ > j`: the first
    /// element of the `y_μ`-list of the current parent item.
    fn seed_after(&mut self, j: usize) {
        for mu in (j + 1)..self.positions.len() {
            let p = &self.positions[mu];
            if p.pinned {
                continue;
            }
            let up = &self.positions[p.parent];
            let head = up.items.child(up.current, p.child).head;
            debug_assert!(head.is_some(), "fit items have nonempty child lists");
            self.positions[mu].current = head;
        }
    }

    /// Writes the current item vector's constants — each item's own
    /// variable value — into `out` at the positions `slots` names.
    fn scatter(&self, out: &mut [Const], slots: &[usize]) {
        for (p, &slot) in self.positions.iter().zip(slots) {
            out[slot] = p.items.rows[p.current].constant;
        }
    }

    /// Advances to the next item vector; returns `false` at the end.
    fn advance(&mut self) -> bool {
        // Maximal advanceable (non-pinned) j whose item has a successor.
        for j in (0..self.positions.len()).rev() {
            let p = &mut self.positions[j];
            if p.pinned {
                continue;
            }
            let next = p.items.rows[p.current].next;
            if next.is_some() {
                p.current = next;
                self.seed_after(j);
                return true;
            }
        }
        false
    }
}

impl Iterator for ComponentIter<'_> {
    type Item = Vec<Const>;

    fn next(&mut self) -> Option<Vec<Const>> {
        if self.done {
            return None;
        }
        let out = self
            .positions
            .iter()
            .map(|p| p.items.rows[p.current].constant)
            .collect();
        self.done = !self.advance();
        Some(out)
    }
}

/// Cross-product enumeration over all components of a query.
///
/// Emits tuples in the query's free-variable order. Boolean components act
/// as guards: if any is empty, the whole result is empty.
pub struct ResultIter<'a> {
    comps: Vec<&'a ComponentStructure>,
    /// Per component with free variables: its iterator, positioned on the
    /// item vector the next output uses.
    iters: Vec<ComponentIter<'a>>,
    /// For component `c` and document-order position `p`:
    /// `out_slots[c][p]` is the position in the final output tuple.
    out_slots: Vec<Vec<usize>>,
    arity: usize,
    /// Special case `k = 0`: a Boolean query's nonempty result is `{()}`.
    emit_empty_tuple: bool,
    done: bool,
}

impl<'a> ResultIter<'a> {
    /// Builds the product iterator over epoch-shared components (the
    /// engine's live `Arc`s or a pin's clones of them). `free` is the
    /// query's output tuple.
    pub fn new(components: &'a [Arc<ComponentStructure>], free: &[cqu_query::Var]) -> Self {
        Self::from_refs(components.iter().map(|c| &**c).collect(), free)
    }

    /// Builds the product iterator from plain component borrows.
    pub fn from_refs(components: Vec<&'a ComponentStructure>, free: &[cqu_query::Var]) -> Self {
        let nonempty_guards = components.iter().all(|c| c.is_nonempty());
        let with_free: Vec<&ComponentStructure> = components
            .into_iter()
            .filter(|c| !c.output_vars().is_empty())
            .collect();
        let out_slots: Vec<Vec<usize>> = with_free.iter().map(|c| c.output_slots(free)).collect();
        let mut it = ResultIter {
            comps: with_free,
            iters: Vec::new(),
            out_slots,
            arity: free.len(),
            emit_empty_tuple: free.is_empty() && nonempty_guards,
            done: !nonempty_guards,
        };
        if it.done || it.emit_empty_tuple {
            return it;
        }
        it.iters = it.comps.iter().map(|&c| ComponentIter::new(c)).collect();
        // Every free variable lives in some component, so `iters` is empty
        // only in theory; the check keeps `next` from emitting zeros.
        it.done = it.iters.is_empty() || it.iters.iter().any(|ci| ci.done);
        it
    }

    /// The odometer step: advance the last component that can, and restart
    /// every component after it.
    fn advance(&mut self) -> bool {
        for i in (0..self.iters.len()).rev() {
            if self.iters[i].advance() {
                for j in (i + 1)..self.iters.len() {
                    self.iters[j] = ComponentIter::new(self.comps[j]);
                }
                return true;
            }
        }
        false
    }
}

impl Iterator for ResultIter<'_> {
    type Item = Vec<Const>;

    fn next(&mut self) -> Option<Vec<Const>> {
        if self.done {
            return None;
        }
        if self.emit_empty_tuple {
            self.done = true;
            return Some(Vec::new());
        }
        let mut out = vec![0; self.arity];
        for (ci, slots) in self.iters.iter().zip(&self.out_slots) {
            ci.scatter(&mut out, slots);
        }
        self.done = !self.advance();
        Some(out)
    }
}
