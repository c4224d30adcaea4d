//! The per-component dynamic data structure (paper, Section 6.2/6.4/6.5).
//!
//! For one connected q-hierarchical component with q-tree `T`, the
//! structure stores **items** `i = [v, α, a]` — a q-tree node `v`, an
//! assignment `α` to `path[v)`, and a constant `a` for `v` itself. An item
//! is *present* iff some atom `ψ ∈ atoms(v)` has a matching expansion in
//! the database (condition (a) of Section 6.4), and *fit* iff its weight
//!
//! ```text
//!   C^i = Π_{ψ ∈ rep(v)} C^i_ψ · Π_{u ∈ N(v)} C^i_u        (Lemma 6.3)
//! ```
//!
//! is positive. Exactly the fit items sit in the doubly-linked list of
//! their parent (`L^i_u`), root items in the start list. The algorithms
//! read `C^i` only as `C^i > 0`, and `C^i_u = Σ_{i' ∈ L^i_u} C^{i'}` is a
//! sum of positive weights, so it is positive iff `L^i_u` is non-empty:
//! an item is fit iff its counters `C^i_ψ` over `rep(v)` are positive and
//! every child list has a head. So `C^i` is not stored; the inspection
//! hooks compute it from the subtree on demand. The free-variable weights
//!
//! ```text
//!   C̃^i = 0 if C^i = 0, else Π_{u ∈ N(v) ∩ free(ϕ)} C̃^i_u   (Lemma 6.4)
//! ```
//!
//! and their per-child sums `C̃^i_u` are the count, and are maintained
//! incrementally, so a single-tuple update touches only the `O(‖ϕ‖)` items
//! along the updated atom's q-tree path.
//!
//! The paper's RAM-model arrays `A_v` become one arena of fixed-width rows
//! per q-tree node. An item is determined by its parent item and its own
//! constant `a` — `α` is the parent chain's constants — so `A_v` is
//! addressed by the pair (parent row, `a`) through a hash map (the
//! substitution footnote 2 prescribes), with no key stored per item. A row
//! holds the parent, `a`, the free weight and the fit-list links; the counters
//! `C^i_ψ` and the per-child registers sit in flat arrays of the node's
//! fixed stride, indexed by row. Everything is plain `Copy` data, so a
//! copy of a component is a few array copies per node.
//!
//! Preprocessing fills the arrays in bulk (`ComponentStructure::load`),
//! each allocated once at its final size: the rows of one parent item
//! are contiguous, and every fit list runs in ascending row order, so
//! enumeration over a freshly loaded structure walks memory forward.
//! Updates then recycle rows through the slab's free list and push
//! newly fit items at the front of their list.

use cqu_common::hash::map_with_capacity;
use cqu_common::{FxHashMap, Slab, SlabId};
use cqu_query::qtree::{AtomPath, NodeId, QTree};
use cqu_query::{Component, Query, RelId, Var};
use cqu_storage::{Const, Database};
use std::sync::Arc;

/// The fixed-width part of one item `[v, α, a]`: its row of `A_v`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    /// The parent item's row in `A_{parent(v)}`, `SlabId::NONE` for root
    /// items.
    pub parent: SlabId,
    /// The item's own constant `a`.
    pub constant: Const,
    /// The free weight `C̃^i` (meaningful only when `v` is free).
    pub free_weight: u64,
    /// Intrusive links within the containing fit list (rows of `A_v`).
    pub prev: SlabId,
    /// See [`Row::prev`].
    pub next: SlabId,
    /// Whether the item currently sits in its fit list: whether it is fit.
    pub in_list: bool,
}

/// An item's registers for one child `u ∈ N(v)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChildRegs {
    /// `C̃^i_u` (only free children use it).
    pub free_sum: u64,
    /// Head of the list `L^i_u` (a row of `A_u`).
    pub head: SlabId,
}

// Every pinned commit copies these arrays: a field that widens a row or a
// child register is a decision, not a side effect.
const _: () = assert!(size_of::<Row>() <= 32 && size_of::<ChildRegs>() <= 16);

impl Row {
    /// A new item's row: no weight, in no list.
    fn unfit(parent: SlabId, constant: Const) -> Row {
        Row {
            parent,
            constant,
            free_weight: 0,
            prev: SlabId::NONE,
            next: SlabId::NONE,
            in_list: false,
        }
    }
}

impl ChildRegs {
    const ZERO: ChildRegs = ChildRegs {
        free_sum: 0,
        head: SlabId::NONE,
    };
}

/// The array `A_v` of one q-tree node `v`.
#[derive(Clone)]
pub(crate) struct NodeItems {
    pub rows: Slab<Row>,
    /// `|atoms(v)|`, the stride of `atom_counts`.
    atoms: usize,
    /// `|N(v)|`, the stride of `children`.
    fanout: usize,
    /// `C^i_ψ` per row, indexed like
    /// [`cqu_query::qtree::QTreeNode::atoms`].
    atom_counts: Vec<u64>,
    /// The child registers per row, by child position.
    children: Vec<ChildRegs>,
    /// (parent row, own constant) → row.
    lookup: FxHashMap<(SlabId, Const), SlabId>,
}

impl NodeItems {
    fn new(atoms: usize, fanout: usize) -> Self {
        NodeItems {
            rows: Slab::new(),
            atoms,
            fanout,
            atom_counts: Vec::new(),
            children: Vec::new(),
            lookup: FxHashMap::default(),
        }
    }

    /// The item with parent row `parent` and own constant `a`.
    #[inline]
    pub fn get(&self, parent: SlabId, a: Const) -> Option<SlabId> {
        self.lookup.get(&(parent, a)).copied()
    }

    pub fn atom_counts(&self, id: SlabId) -> &[u64] {
        let start = id.index() * self.atoms;
        &self.atom_counts[start..start + self.atoms]
    }

    pub fn children(&self, id: SlabId) -> &[ChildRegs] {
        let start = id.index() * self.fanout;
        &self.children[start..start + self.fanout]
    }

    #[inline]
    pub fn child(&self, id: SlabId, pos: usize) -> &ChildRegs {
        &self.children[id.index() * self.fanout + pos]
    }

    fn child_mut(&mut self, id: SlabId, pos: usize) -> &mut ChildRegs {
        &mut self.children[id.index() * self.fanout + pos]
    }

    /// Allocates a fresh (unfit) item. A recycled row starts from zero
    /// exactly like a new one.
    fn create(&mut self, parent: SlabId, a: Const) -> SlabId {
        let id = self.rows.insert(Row::unfit(parent, a));
        reset_row(&mut self.atom_counts, id, self.atoms, 0);
        reset_row(&mut self.children, id, self.fanout, ChildRegs::ZERO);
        self.lookup.insert((parent, a), id);
        id
    }

    fn destroy(&mut self, id: SlabId) {
        let row = self.rows.remove(id);
        self.lookup.remove(&(row.parent, row.constant));
    }
}

/// Zeroes row `id`'s `stride` entries of a flat arena, growing the arena
/// when the row is new.
fn reset_row<T: Copy>(arena: &mut Vec<T>, id: SlabId, stride: usize, zero: T) {
    let (start, end) = (id.index() * stride, (id.index() + 1) * stride);
    if arena.len() < end {
        arena.resize(end, zero);
    }
    arena[start..end].fill(zero);
}

/// What every copy of a component shares: the query, its q-tree and the
/// maps derived from it, none of which an update changes.
struct Shape {
    query: Arc<Query>,
    comp: Component,
    tree: QTree,
    /// Per relation id: whether any atom of this component is over it —
    /// the guard that keeps updates to foreign relations from touching
    /// (and under copy-on-write: from cloning) this component.
    uses_rel: Box<[bool]>,
    /// Free q-tree nodes in document order (pre-order) — the tree `T'` of
    /// Algorithm 1.
    free_order: Vec<NodeId>,
    /// For each node: its position within its parent's child list
    /// (`usize::MAX` for the root).
    pos_in_parent: Vec<usize>,
    /// For each position `μ` in `free_order` (except 0): the position of
    /// the parent node in `free_order`.
    parent_pos: Vec<usize>,
    /// The variable of each node in `free_order`: the component's output
    /// columns.
    out_vars: Vec<Var>,
}

impl Shape {
    /// The atoms over `rel` whose equality pattern `fact` matches —
    /// self-joins mean several may (Section 6.4's loop over atoms
    /// `ψ = R z₁⋯z_r` with `z_s = z_t ⇒ b_s = b_t`).
    fn matching<'a>(&'a self, rel: RelId, fact: &'a [Const]) -> impl Iterator<Item = &'a AtomPath> {
        self.tree
            .atom_paths()
            .iter()
            .filter(move |ap| self.query.atom(ap.atom).relation == rel && fits_pattern(ap, fact))
    }

    /// The facts of `db` that `ap`'s atom matches, in its relation's
    /// iteration order (the same order on every call over an unchanged
    /// `db`).
    fn facts<'a>(&self, ap: &'a AtomPath, db: &'a Database) -> impl Iterator<Item = &'a [Const]> {
        db.relation(self.query.atom(ap.atom).relation)
            .iter()
            .map(Vec::as_slice)
            .filter(move |fact| fits_pattern(ap, fact))
    }
}

/// Whether `fact` matches the equality pattern of `ap`'s atom.
fn fits_pattern(ap: &AtomPath, fact: &[Const]) -> bool {
    ap.canon
        .iter()
        .enumerate()
        .all(|(p, &c)| fact[p] == fact[c])
}

/// The mutable part of a component: the arrays `A_v` and the start list.
#[derive(Clone)]
struct Items {
    /// `A_v` per q-tree node.
    nodes: Vec<NodeItems>,
    /// Head of the start list `L_start` (fit root items).
    start_head: SlabId,
    /// `C̃_start = Σ_{i ∈ L_start} C̃^i` (only when the component has free
    /// variables).
    ct_start: u64,
}

/// The dynamic structure for one connected component.
///
/// Cloning copies, per q-tree node, the row arena, the two counter arrays
/// and the lookup map — `O(q-tree nodes)` allocations whatever `‖D‖` is,
/// each a copy of plain data — and shares the immutable q-tree. Row ids
/// (and with them all intrusive list links) survive verbatim, so the copy
/// enumerates identically. This is the copy-on-*write* path behind
/// [`crate::QhEngine`]'s epoch snapshots: components live behind `Arc`s
/// that pins share for free, and the writer clones a component only when
/// it must mutate one that a live pin still references — `O(‖D_i‖)` bytes
/// once per retained epoch per touched component, never on the pin itself.
#[derive(Clone)]
pub struct ComponentStructure {
    shape: Arc<Shape>,
    items: Items,
}

/// One item's stored registers ([`ComponentStructure::item_registers`]):
/// what a test reads to see that a recycled row starts from zero. Row ids
/// index the array `A_v` of the item's node (links) or of the child's
/// node (`child_heads`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemRegisters {
    /// The item's row in `A_v`.
    pub row: u32,
    /// `C̃^i`.
    pub free_weight: u64,
    /// `C^i_ψ` per `ψ ∈ atoms(v)`.
    pub atom_counts: Vec<u64>,
    /// `C̃^i_u` per child position.
    pub free_child_sums: Vec<u64>,
    /// Head row of `L^i_u` per child position.
    pub child_heads: Vec<Option<u32>>,
    /// Previous row in the item's fit list.
    pub prev: Option<u32>,
    /// Next row in the item's fit list.
    pub next: Option<u32>,
    /// Whether the item sits in its fit list.
    pub in_list: bool,
}

impl ComponentStructure {
    /// Creates the structure for a component, empty database.
    pub fn new(query: Arc<Query>, comp: Component, tree: QTree) -> Self {
        let n = tree.len();
        let mut pos_in_parent = vec![usize::MAX; n];
        for (id, node) in tree.nodes().iter().enumerate() {
            for (pos, &c) in node.children.iter().enumerate() {
                debug_assert_eq!(tree.node(c).parent, Some(id));
                pos_in_parent[c] = pos;
            }
        }
        let free_order = tree.free_preorder();
        let parent_pos: Vec<usize> = free_order
            .iter()
            .map(|&nid| {
                tree.node(nid)
                    .parent
                    .map(|p| {
                        free_order
                            .iter()
                            .position(|&q| q == p)
                            .expect("free prefix")
                    })
                    .unwrap_or(usize::MAX)
            })
            .collect();
        let out_vars: Vec<Var> = free_order.iter().map(|&nid| tree.node(nid).var).collect();
        let mut uses_rel = vec![false; query.schema().len()];
        for &aid in &comp.atoms {
            uses_rel[query.atom(aid).relation.index()] = true;
        }
        let nodes = tree
            .nodes()
            .iter()
            .map(|node| NodeItems::new(node.atoms.len(), node.children.len()))
            .collect();
        ComponentStructure {
            shape: Arc::new(Shape {
                query,
                comp,
                tree,
                uses_rel: uses_rel.into(),
                free_order,
                pos_in_parent,
                parent_pos,
                out_vars,
            }),
            items: Items {
                nodes,
                start_head: SlabId::NONE,
                ct_start: 0,
            },
        }
    }

    /// The component's q-tree.
    pub fn tree(&self) -> &QTree {
        &self.shape.tree
    }

    /// The component description.
    pub fn component(&self) -> &Component {
        &self.shape.comp
    }

    /// Whether any atom of this component is over `rel` — updates to
    /// other relations provably cannot change this component's state.
    pub fn uses_relation(&self, rel: RelId) -> bool {
        self.shape
            .uses_rel
            .get(rel.index())
            .copied()
            .unwrap_or(false)
    }

    /// The query this component belongs to.
    pub fn query(&self) -> &Query {
        &self.shape.query
    }

    /// `C_start = Σ_{i ∈ L_start} C^i`: for quantifier-free components this
    /// is `|ϕ_i(D)|`; it is positive iff the component's result is
    /// nonempty. Computed from the whole structure (`O(items)`), for
    /// inspection only.
    pub fn c_start(&self) -> u128 {
        self.list_weight(self.shape.tree.root(), self.items.start_head)
    }

    /// `C̃_start = |ϕ_i(D)|` for components with free variables.
    pub fn ct_start(&self) -> u64 {
        self.items.ct_start
    }

    /// The number of result tuples this component contributes:
    /// `C̃_start` if it has free variables, else `1/0` for nonempty/empty.
    pub fn result_count(&self) -> u64 {
        if self.shape.free_order.is_empty() {
            u64::from(self.is_nonempty())
        } else {
            self.items.ct_start
        }
    }

    /// Returns `true` iff the component's result is nonempty.
    pub fn is_nonempty(&self) -> bool {
        self.items.start_head.is_some()
    }

    /// Free q-tree nodes in document order (Algorithm 1's `y₁,…,y_k`).
    pub(crate) fn free_order(&self) -> &[NodeId] {
        &self.shape.free_order
    }

    /// Parent positions within `free_order`.
    pub(crate) fn parent_pos(&self) -> &[usize] {
        &self.shape.parent_pos
    }

    /// Position of `node` within its parent's child list.
    pub(crate) fn pos_in_parent(&self, node: NodeId) -> usize {
        self.shape.pos_in_parent[node]
    }

    /// The component's output variables in document order.
    pub fn output_vars(&self) -> &[Var] {
        &self.shape.out_vars
    }

    /// Positions of this component's output variables within `free` (the
    /// query's output tuple) — the scatter map shared by cross-product
    /// enumeration and delta cross-assembly.
    pub(crate) fn output_slots(&self, free: &[Var]) -> Vec<usize> {
        self.shape
            .out_vars
            .iter()
            .map(|v| {
                free.iter()
                    .position(|f| f == v)
                    .expect("output var is free")
            })
            .collect()
    }

    /// Number of live items (for linear-preprocessing assertions).
    pub fn num_items(&self) -> usize {
        self.items.nodes.iter().map(|n| n.rows.len()).sum()
    }

    /// Preprocessing: builds the arrays of an empty component from `db`
    /// in `O(‖ϕ‖ · ‖D‖)` expected time ([`Items::build`]), reaching the
    /// state that inserting `db`'s facts one by one reaches, up to row
    /// numbering and list order.
    pub(crate) fn load(&mut self, db: &Database) {
        debug_assert_eq!(self.num_items(), 0, "a component loads once, empty");
        self.items.build(&self.shape, db);
    }

    /// Applies one effective fact change for relation `rel`.
    ///
    /// Called once per update command (after the storage layer has
    /// confirmed it changes the database). Walks every atom of the
    /// component over `rel` whose equality pattern matches `fact`.
    /// Returns the number of items visited — the structural "work" of the
    /// update, which Theorem 3.2 bounds by `poly(ϕ)` independent of the
    /// database (asserted by integration tests without timing noise).
    pub fn apply_fact(&mut self, rel: RelId, fact: &[Const], insert: bool) -> u64 {
        let shape = &*self.shape;
        shape
            .matching(rel, fact)
            .map(|ap| self.items.apply_atom(shape, ap, fact, insert))
            .sum()
    }

    /// Like [`ComponentStructure::apply_fact`], but also extracts the
    /// component-local result delta *natively*: the output tuples (over
    /// [`ComponentStructure::output_vars`], document order) that entered
    /// `added` / left `removed` because of this fact change. For Boolean
    /// components the empty tuple stands for "the component is nonempty".
    ///
    /// Cost: the plain `poly(ϕ)` update walk plus `O(δ)` to enumerate the
    /// flipped tuples — never a full result enumeration. The argument:
    /// free q-tree nodes form a prefix of every atom path, so the only
    /// items whose *fitness* (`C^i > 0`, equivalently membership in the
    /// enumeration lists) can change are the path items `i_1,…,i_f` of
    /// the updated atom's free prefix `α`. A result tuple flips presence
    /// iff the all-fit length of that prefix changes across its
    /// divergence depth — and because a single fact change moves all
    /// counters in one direction, each tuple flips at most once per fact,
    /// even across self-join atoms. The flipped set is exactly the set of
    /// extensions of the shortest newly-(un)fit prefix, which the pinned
    /// enumeration walks in constant delay per tuple.
    pub fn apply_fact_tracked(
        &mut self,
        rel: RelId,
        fact: &[Const],
        insert: bool,
        added: &mut Vec<Vec<Const>>,
        removed: &mut Vec<Vec<Const>>,
    ) -> u64 {
        if self.shape.free_order.is_empty() {
            // Boolean component: presence of {()} is the only observable.
            let before = self.is_nonempty();
            let work = self.apply_fact(rel, fact, insert);
            let after = self.is_nonempty();
            if before != after {
                if after {
                    added.push(Vec::new());
                } else {
                    removed.push(Vec::new());
                }
            }
            return work;
        }
        let shape = &*self.shape;
        let mut work = 0u64;
        for ap in shape.matching(rel, fact) {
            // One tracked atom application: bracket the plain walk with
            // fit-prefix measurements and enumerate the flipped extensions.
            let path = &shape.tree.node(ap.rep).path;
            // Free nodes form a prefix of every root-anchored path.
            let f = path
                .iter()
                .take_while(|&&n| shape.tree.node(n).free)
                .count();
            let before = self.items.fit_prefix(&path[..f], ap, fact);
            work += self.items.apply_atom(shape, ap, fact, insert);
            let after = self.items.fit_prefix(&path[..f], ap, fact);
            if insert && after > before {
                // Items i_1..i_{before+1} are fit now and i_{before+1} was
                // unfit before: every present extension of α_{before+1} is new.
                self.collect_extensions(&path[..=before], ap, fact, added);
            } else if !insert && before > after {
                // The flipped tuples existed only in the pre-delete state:
                // restore it (updates are their own undo), enumerate the
                // extensions of the shortest newly-unfit prefix, re-delete.
                self.items.apply_atom(shape, ap, fact, true);
                self.collect_extensions(&path[..=after], ap, fact, removed);
                self.items.apply_atom(shape, ap, fact, false);
            }
        }
        work
    }

    /// Appends all output tuples extending the (all-fit) item chain that
    /// `fact` selects along `prefix` to `out` — the pinned Algorithm 1 walk.
    fn collect_extensions(
        &self,
        prefix: &[NodeId],
        ap: &AtomPath,
        fact: &[Const],
        out: &mut Vec<Vec<Const>>,
    ) {
        let free_order = &self.shape.free_order;
        let mut fixed: Vec<SlabId> = vec![SlabId::NONE; free_order.len()];
        let mut id = SlabId::NONE;
        for (j, &node) in prefix.iter().enumerate() {
            let pos = free_order
                .iter()
                .position(|&n| n == node)
                .expect("path free prefix lies in the free subtree");
            id = self.items.nodes[node]
                .get(id, fact[ap.extract[j]])
                .expect("fit prefix items are present");
            fixed[pos] = id;
        }
        out.extend(crate::enumerate::ComponentIter::with_pinned(self, fixed));
    }

    /// The array `A_v` of q-tree node `node`.
    pub(crate) fn node_items(&self, node: NodeId) -> &NodeItems {
        &self.items.nodes[node]
    }

    /// Head of the start list `L_start`.
    pub(crate) fn start_head(&self) -> SlabId {
        self.items.start_head
    }

    /// Looks up an item by node and path constants (root constant first).
    pub(crate) fn lookup_item(&self, node: NodeId, key: &[Const]) -> Option<SlabId> {
        let path = &self.shape.tree.node(node).path;
        if key.len() != path.len() {
            return None;
        }
        let mut id = SlabId::NONE;
        for (&n, &a) in path.iter().zip(key) {
            id = self.items.nodes[n].get(id, a)?;
        }
        Some(id)
    }

    /// The path constants of item `id` of `node` (root constant first),
    /// rebuilt by walking its parent rows.
    pub(crate) fn item_key(&self, node: NodeId, id: SlabId) -> Vec<Const> {
        let path = &self.shape.tree.node(node).path;
        let mut key = vec![0; path.len()];
        let mut id = id;
        for (j, &n) in path.iter().enumerate().rev() {
            let row = &self.items.nodes[n].rows[id];
            key[j] = row.constant;
            id = row.parent;
        }
        key
    }

    /// Iterates over all live items as `(node, row id, row)` (audit/debug).
    pub(crate) fn iter_items(&self) -> impl Iterator<Item = (NodeId, SlabId, &Row)> {
        self.items
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(node, items)| items.rows.iter().map(move |(id, row)| (node, id, row)))
    }

    /// The q-tree node whose variable is named `var`.
    fn node_named(&self, var: &str) -> Option<NodeId> {
        let (tree, query) = (&self.shape.tree, &self.shape.query);
        (0..tree.len()).find(|&n| query.var_name(tree.node(n).var) == var)
    }

    /// `C^i` of item `id` of `node` (Lemma 6.3), computed from its subtree:
    /// the product of its counters over `rep(v)` and, per child, the sum of
    /// the weights in its fit list. `O(subtree)`, for inspection only.
    ///
    /// # Panics
    /// If a weight exceeds `u128`.
    pub(crate) fn item_weight(&self, node: NodeId, id: SlabId) -> u128 {
        let meta = self.shape.tree.node(node);
        let items = &self.items.nodes[node];
        let counts = items.atom_counts(id);
        let own = meta
            .rep_positions
            .iter()
            .map(|&pos| u128::from(counts[pos]));
        let children = meta
            .children
            .iter()
            .zip(items.children(id))
            .map(|(&child, regs)| self.list_weight(child, regs.head));
        own.chain(children).fold(1, |w, f| {
            w.checked_mul(f).expect("item weight overflowed u128")
        })
    }

    /// `Σ_{i ∈ L} C^i` over the fit list of `node` that starts at `head`.
    fn list_weight(&self, node: NodeId, head: SlabId) -> u128 {
        let rows = &self.items.nodes[node].rows;
        let mut sum = 0u128;
        let mut id = head;
        while id.is_some() {
            sum = sum
                .checked_add(self.item_weight(node, id))
                .expect("item weight overflowed u128");
            id = rows[id].next;
        }
        sum
    }

    /// Public inspection hook: the weight pair `(C^i, C̃^i)` of the item at
    /// the q-tree node whose variable is named `var`, with path constants
    /// `key` (root constant first). Used to reproduce Figure 3. `C^i` is
    /// computed from the item's subtree, in `O(subtree)`.
    pub fn item_weights(&self, var: &str, key: &[Const]) -> Option<(u128, u64)> {
        let node = self.node_named(var)?;
        let id = self.lookup_item(node, key)?;
        let row = &self.items.nodes[node].rows[id];
        Some((self.item_weight(node, id), row.free_weight))
    }

    /// Public inspection hook: every register the item at the node of
    /// `var` with path constants `key` stores, with its row id.
    pub fn item_registers(&self, var: &str, key: &[Const]) -> Option<ItemRegisters> {
        let node = self.node_named(var)?;
        let id = self.lookup_item(node, key)?;
        let items = &self.items.nodes[node];
        let row = &items.rows[id];
        let link = |id: SlabId| id.is_some().then_some(id.0);
        let children = items.children(id);
        Some(ItemRegisters {
            row: id.0,
            free_weight: row.free_weight,
            atom_counts: items.atom_counts(id).to_vec(),
            free_child_sums: children.iter().map(|c| c.free_sum).collect(),
            child_heads: children.iter().map(|c| link(c.head)).collect(),
            prev: link(row.prev),
            next: link(row.next),
            in_list: row.in_list,
        })
    }

    /// Renders the structure in the style of Figure 3: one line per item,
    /// grouped by q-tree node in document order, with weights. Intended
    /// for debugging and the experiments binary.
    pub fn render_structure(&self) -> String {
        use std::fmt::Write as _;
        let tree = &self.shape.tree;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Cstart = {}{}",
            self.c_start(),
            if tree.node(tree.root()).free {
                format!(", C̃start = {}", self.items.ct_start)
            } else {
                String::new()
            }
        );
        // Stable order: nodes by id, items by key.
        for node in 0..tree.len() {
            let var = self.shape.query.var_name(tree.node(node).var);
            let mut items: Vec<(Vec<Const>, SlabId, &Row)> = self.items.nodes[node]
                .rows
                .iter()
                .map(|(id, row)| (self.item_key(node, id), id, row))
                .collect();
            items.sort_by(|a, b| a.0.cmp(&b.0));
            for (key, id, row) in items {
                let _ = writeln!(
                    out,
                    "  [{var}, {key:?}] C = {}{}{}",
                    self.item_weight(node, id),
                    if tree.node(node).free {
                        format!(", C̃ = {}", row.free_weight)
                    } else {
                        String::new()
                    },
                    if row.in_list { "" } else { "  (unfit)" }
                );
            }
        }
        out
    }
}

impl Items {
    /// The bulk build behind [`ComponentStructure::load`], node by node:
    ///
    /// * **Top-down** ([`Items::build_node`]), parents first: a node's
    ///   items are the distinct (parent row, constant) keys of the facts
    ///   on every atom path through it, its counters `C^i_ψ` count those
    ///   facts, and the rows of one parent are contiguous.
    /// * **Bottom-up** ([`Items::link_node`]), children first: fitness
    ///   and `C̃^i` from the finished children, each fit item appended to
    ///   its list in ascending row order, its weight added to its
    ///   parent's free sum.
    ///
    /// Every array is allocated once per node, at its final size, so the
    /// allocation count depends on `ϕ` alone.
    fn build(&mut self, shape: &Shape, db: &Database) {
        let tree = &shape.tree;
        let mut order: Vec<NodeId> = (0..tree.len()).collect();
        order.sort_by_key(|&node| tree.node(node).depth);
        // Per atom path, per matching fact (in `Shape::facts` order): its
        // item's row at the deepest node built so far on the path.
        let mut fact_rows: Vec<Vec<u32>> = vec![Vec::new(); tree.atom_paths().len()];
        for &node in &order {
            self.build_node(shape, db, node, &mut fact_rows);
        }
        for &node in order.iter().rev() {
            self.link_node(shape, node);
        }
    }

    /// Creates the items of `node` and counts their facts. `fact_rows`
    /// holds each path's parent rows on entry and this node's rows on
    /// exit; a path that ends here drops its array.
    fn build_node(
        &mut self,
        shape: &Shape,
        db: &Database,
        node: NodeId,
        fact_rows: &mut [Vec<u32>],
    ) {
        let (tree, paths) = (&shape.tree, shape.tree.atom_paths());
        let meta = tree.node(node);
        let depth = meta.depth;
        let through: Vec<usize> = (0..paths.len())
            .filter(|&p| tree.node(paths[p].rep).path.get(depth) == Some(&node))
            .collect();
        let root = meta.parent.is_none();
        if root {
            for &p in &through {
                let rel = shape.query.atom(paths[p].atom).relation;
                fact_rows[p] = Vec::with_capacity(db.relation(rel).len());
            }
        }
        // Hash grouping: the lookup, sized for one item per fact (each
        // path's array has room for every fact of its relation), numbers
        // the distinct keys in order of first sight, then shrinks to them.
        let bound = through.iter().map(|&p| fact_rows[p].capacity()).sum();
        let mut lookup: FxHashMap<(SlabId, Const), SlabId> = map_with_capacity(bound);
        for &p in &through {
            let (ap, rows) = (&paths[p], &mut fact_rows[p]);
            for (k, fact) in shape.facts(ap, db).enumerate() {
                let parent = if root { SlabId::NONE } else { SlabId(rows[k]) };
                let fresh = SlabId(lookup.len() as u32);
                let id = *lookup
                    .entry((parent, fact[ap.extract[depth]]))
                    .or_insert(fresh);
                if root {
                    rows.push(id.0);
                } else {
                    rows[k] = id.0;
                }
            }
        }
        lookup.shrink_to_fit();
        // A counting pass over the dense parent rows turns first-sight
        // numbers into rows, the items of one parent side by side.
        let len = lookup.len();
        let group = |parent: SlabId| if root { 0 } else { parent.index() };
        let groups = meta.parent.map_or(1, |up| self.nodes[up].rows.len());
        let mut next = vec![0u32; groups + 1];
        for &(parent, _) in lookup.keys() {
            next[group(parent) + 1] += 1;
        }
        for g in 0..groups {
            next[g + 1] += next[g];
        }
        let items = &mut self.nodes[node];
        let mut rows = Slab::with_capacity(len);
        for _ in 0..len {
            rows.insert(Row::unfit(SlabId::NONE, 0));
        }
        let mut placed = vec![0u32; len];
        for (&(parent, constant), id) in lookup.iter_mut() {
            let row = &mut next[group(parent)];
            placed[id.index()] = *row;
            *id = SlabId(*row);
            *row += 1;
            rows[*id] = Row::unfit(parent, constant);
        }
        drop(next);
        items.atom_counts = vec![0; len * items.atoms];
        items.children = vec![ChildRegs::ZERO; len * items.fanout];
        for &p in &through {
            let slot = paths[p].atom_pos[depth];
            for row in fact_rows[p].iter_mut() {
                *row = placed[*row as usize];
                items.atom_counts[*row as usize * items.atoms + slot] += 1;
            }
            if paths[p].rep == node {
                fact_rows[p] = Vec::new();
            }
        }
        items.rows = rows;
        items.lookup = lookup;
    }

    /// Decides fitness and `C̃^i` for every item of `node`, whose children
    /// are linked already, and links the fit ones in ascending row order.
    /// The arithmetic is [`Items::recompute`]'s: a product past `u64`
    /// panics with its message, and sums add as its updates do.
    fn link_node(&mut self, shape: &Shape, node: NodeId) {
        let meta = shape.tree.node(node);
        let mut items = std::mem::replace(&mut self.nodes[node], NodeItems::new(0, 0));
        // The last item linked: a parent's items are contiguous, so once
        // its list has a head, the list's tail is this.
        let mut tail = SlabId::NONE;
        for r in 0..items.rows.len() {
            let id = SlabId(r as u32);
            let (counts, children) = (items.atom_counts(id), items.children(id));
            let fit = meta.rep_positions.iter().all(|&pos| counts[pos] > 0)
                && children.iter().all(|c| c.head.is_some());
            if !fit {
                continue;
            }
            let free_weight = if meta.free {
                children
                    .iter()
                    .zip(&meta.children)
                    .filter(|&(_, &child)| shape.tree.node(child).free)
                    .fold(1u64, |w, (c, _)| {
                        w.checked_mul(c.free_sum)
                            .expect("result count overflowed u64")
                    })
            } else {
                0
            };
            let parent = items.rows[id].parent;
            let head = self.head_mut(shape, node, parent);
            let prev = if head.is_none() {
                *head = id;
                SlabId::NONE
            } else {
                items.rows[tail].next = id;
                tail
            };
            let row = &mut items.rows[id];
            row.prev = prev;
            row.free_weight = free_weight;
            row.in_list = true;
            tail = id;
            match meta.parent {
                None => self.ct_start += free_weight,
                Some(up) => {
                    self.nodes[up]
                        .child_mut(parent, shape.pos_in_parent[node])
                        .free_sum += free_weight;
                }
            }
        }
        self.nodes[node] = items;
    }

    /// The per-atom update walk of Section 6.4: create/locate the items
    /// `i_1,…,i_d` along the atom's q-tree path, bump `C^{i_d…}_ψ`, then
    /// recompute fitness and free weights bottom-up, fixing list membership
    /// and propagating free-sum deltas. Allocates nothing unless it creates
    /// an item.
    fn apply_atom(&mut self, shape: &Shape, ap: &AtomPath, fact: &[Const], insert: bool) -> u64 {
        let path = &shape.tree.node(ap.rep).path;

        // Locate (and for inserts create) the items top-down so parents
        // exist before children reference them.
        let mut id = SlabId::NONE;
        for (j, &node) in path.iter().enumerate() {
            let a = fact[ap.extract[j]];
            id = match self.nodes[node].get(id, a) {
                Some(found) => found,
                None => {
                    assert!(
                        insert,
                        "delete of untracked fact {fact:?} for atom #{}: \
                         engine updates must mirror effective database updates",
                        ap.atom
                    );
                    self.nodes[node].create(id, a)
                }
            };
        }

        // Bottom-up along the parent rows: bump the atom counter and
        // recompute (steps 1–5 of the update procedure, plus 2a/4a for the
        // free weights).
        for (j, &node) in path.iter().enumerate().rev() {
            let items = &mut self.nodes[node];
            let parent = items.rows[id].parent;
            let start = id.index() * items.atoms;
            let count = &mut items.atom_counts[start + ap.atom_pos[j]];
            if insert {
                *count += 1;
            } else {
                debug_assert!(*count > 0, "atom counter underflow");
                *count -= 1;
            }
            self.recompute(shape, node, id);
            // Step 5: drop items that no longer satisfy the presence
            // condition (no atom of atoms(v) has a matching expansion).
            if !insert && self.nodes[node].atom_counts(id).iter().all(|&c| c == 0) {
                self.destroy_item(node, id);
            }
            id = parent;
        }
        2 * path.len() as u64
    }

    /// Length of the longest all-fit item chain along `free_path` that
    /// `fact` selects (missing items count as unfit).
    fn fit_prefix(&self, free_path: &[NodeId], ap: &AtomPath, fact: &[Const]) -> usize {
        let mut id = SlabId::NONE;
        for (j, &node) in free_path.iter().enumerate() {
            let items = &self.nodes[node];
            match items.get(id, fact[ap.extract[j]]) {
                Some(found) if items.rows[found].in_list => id = found,
                _ => return j,
            }
        }
        free_path.len()
    }

    /// Frees an item that is no longer present. The item must be unfit
    /// (not in any list) and — by the monotone presence invariant
    /// — must have no live children, so its counters are all zero again.
    fn destroy_item(&mut self, node: NodeId, id: SlabId) {
        let items = &mut self.nodes[node];
        debug_assert!(!items.rows[id].in_list);
        debug_assert!(items.children(id).iter().all(|c| c.head.is_none()));
        items.destroy(id);
    }

    /// Recomputes fitness (`C^i > 0`, Lemma 6.3) and `C̃^i` (Lemma 6.4) for
    /// one item, updates its fit-list membership, and propagates the free
    /// weight delta to the parent's free sum (or to `C̃_start` for root
    /// items).
    fn recompute(&mut self, shape: &Shape, node: NodeId, id: SlabId) {
        let meta = shape.tree.node(node);
        let items = &mut self.nodes[node];
        let old = items.rows[id];
        let (counts, children) = (items.atom_counts(id), items.children(id));
        // `C^i_u > 0` iff `L^i_u` has an entry: it sums positive weights.
        let fit = meta.rep_positions.iter().all(|&pos| counts[pos] > 0)
            && children.iter().all(|c| c.head.is_some());
        let free_weight = if !meta.free || !fit {
            0
        } else {
            let mut fw: u64 = 1;
            for (c, &child) in children.iter().zip(&meta.children) {
                if shape.tree.node(child).free {
                    fw = fw
                        .checked_mul(c.free_sum)
                        .expect("result count overflowed u64");
                }
            }
            fw
        };
        items.rows[id].free_weight = free_weight;
        if fit && !old.in_list {
            self.list_push(shape, node, id);
        } else if !fit && old.in_list {
            self.list_remove(shape, node, id);
        }
        // Propagate the free-sum delta upward (one level only; the
        // caller's bottom-up loop recomputes the parent next).
        match meta.parent {
            None => {
                if meta.free {
                    self.ct_start = self.ct_start - old.free_weight + free_weight;
                }
            }
            Some(up) => {
                let c = self.nodes[up].child_mut(old.parent, shape.pos_in_parent[node]);
                c.free_sum = c.free_sum - old.free_weight + free_weight;
            }
        }
    }

    /// The head of the fit list that items of `node` under `parent` sit
    /// in: `L^parent_node`, or the start list for root items.
    fn head_mut(&mut self, shape: &Shape, node: NodeId, parent: SlabId) -> &mut SlabId {
        match shape.tree.node(node).parent {
            None => &mut self.start_head,
            Some(up) => {
                &mut self.nodes[up]
                    .child_mut(parent, shape.pos_in_parent[node])
                    .head
            }
        }
    }

    /// Pushes `id` at the front of its containing fit list.
    fn list_push(&mut self, shape: &Shape, node: NodeId, id: SlabId) {
        let parent = self.nodes[node].rows[id].parent;
        let old_head = std::mem::replace(self.head_mut(shape, node, parent), id);
        let rows = &mut self.nodes[node].rows;
        let row = &mut rows[id];
        row.prev = SlabId::NONE;
        row.next = old_head;
        row.in_list = true;
        if old_head.is_some() {
            rows[old_head].prev = id;
        }
    }

    /// Unlinks `id` from its containing fit list.
    fn list_remove(&mut self, shape: &Shape, node: NodeId, id: SlabId) {
        let Row {
            parent, prev, next, ..
        } = self.nodes[node].rows[id];
        if prev.is_some() {
            self.nodes[node].rows[prev].next = next;
        } else {
            let head = self.head_mut(shape, node, parent);
            debug_assert_eq!(*head, id);
            *head = next;
        }
        let rows = &mut self.nodes[node].rows;
        if next.is_some() {
            rows[next].prev = prev;
        }
        let row = &mut rows[id];
        row.prev = SlabId::NONE;
        row.next = SlabId::NONE;
        row.in_list = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_query::parse_query;
    use cqu_storage::Update;

    /// A bulk load lays the rows of one parent side by side, and every fit
    /// list, the start list included, runs forward through the rows: a
    /// count of ordered links, not a timing.
    #[test]
    fn bulk_load_groups_rows_by_parent_and_links_lists_ascending() {
        let q = Arc::new(parse_query("Q(x, y, z) :- R(x, y), S(x, z), T(x).").unwrap());
        let rel = |name| q.schema().relation(name).unwrap();
        let mut db = Database::new(q.schema().clone());
        // Hubs without `T`, or without leaves on one side, stay unfit.
        for x in (0..40u64).rev() {
            if x % 3 != 0 {
                db.apply(&Update::Insert(rel("T"), vec![x]));
            }
            for y in 0..x % 4 {
                db.apply(&Update::Insert(rel("R"), vec![x, 100 + y * 7 % 11]));
            }
            for z in 0..x % 5 + 1 {
                db.apply(&Update::Insert(rel("S"), vec![x, 200 + z]));
            }
        }
        let (comp, tree) = QTree::forest(&q).unwrap().remove(0);
        let mut c = ComponentStructure::new(Arc::clone(&q), comp, tree);
        c.load(&db);

        let tree = c.tree();
        let mut links = 0;
        for node in 0..tree.len() {
            let rows = &c.node_items(node).rows;
            let parents: Vec<SlabId> = rows.iter().map(|(_, row)| row.parent).collect();
            assert!(
                parents.windows(2).all(|w| w[0].is_none() || w[0] <= w[1]),
                "node {node}: one parent's rows are not contiguous: {parents:?}"
            );
            let heads: Vec<SlabId> = match tree.node(node).parent {
                None => vec![c.start_head()],
                Some(up) => {
                    let pos = c.pos_in_parent(node);
                    let parent = c.node_items(up);
                    parent
                        .rows
                        .iter()
                        .map(|(id, _)| parent.child(id, pos).head)
                        .collect()
                }
            };
            for head in heads {
                let (mut prev, mut id) = (SlabId::NONE, head);
                while id.is_some() {
                    assert_eq!(rows[id].prev, prev, "node {node}: back link of {id:?}");
                    assert!(
                        prev.is_none() || prev < id,
                        "node {node}: {prev:?} before {id:?}"
                    );
                    links += usize::from(prev.is_some());
                    (prev, id) = (id, rows[id].next);
                }
            }
        }
        assert!(links > 50, "only {links} ordered links checked");
        assert_eq!(c.num_items(), c.iter_items().count());
    }
}
