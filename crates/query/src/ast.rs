//! The conjunctive-query AST.
//!
//! A k-ary conjunctive query (paper, Section 2) has the form
//! `ϕ(x₁,…,x_k) = ∃y₁ ⋯ ∃y_ℓ (ψ₁ ∧ ⋯ ∧ ψ_d)` where each `ψⱼ = R u₁ ⋯ u_r`
//! is an atom over the schema. Free variables are the `xᵢ`; all other
//! variables are existentially quantified. Variables may repeat inside an
//! atom (`E x x`) and relation symbols may repeat across atoms (self-joins).

use crate::QueryError;
use cqu_common::FxHashMap;

/// A query variable, identified by its index among the query's variables
/// ([`Query::var_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The raw index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A relation symbol, identified by index into a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// The raw index of this relation symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an atom within a query body.
pub type AtomId = usize;

/// A database schema: a finite list of relation symbols with fixed arities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    names: Vec<String>,
    arities: Vec<usize>,
    by_name: FxHashMap<String, RelId>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Adds (or looks up) relation `name` with the given `arity`.
    ///
    /// Returns an error if `name` already exists with a different arity.
    pub fn intern(&mut self, name: &str, arity: usize) -> Result<RelId, QueryError> {
        if let Some(&id) = self.by_name.get(name) {
            let expected = self.arities[id.index()];
            if expected != arity {
                return Err(QueryError::ArityMismatch {
                    relation: name.to_string(),
                    expected,
                    found: arity,
                });
            }
            return Ok(id);
        }
        let id = RelId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.arities.push(arity);
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// The name of relation `id`.
    pub fn name(&self, id: RelId) -> &str {
        &self.names[id.index()]
    }

    /// The arity of relation `id`.
    pub fn arity(&self, id: RelId) -> usize {
        self.arities[id.index()]
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all relation ids.
    pub fn relations(&self) -> impl Iterator<Item = RelId> {
        (0..self.names.len() as u32).map(RelId)
    }

    /// Rebuilds the name lookup table (used after deserialisation).
    pub fn rebuild_index(&mut self) {
        self.by_name = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), RelId(i as u32)))
            .collect();
    }
}

/// An atomic query `R u₁ ⋯ u_r`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The relation symbol.
    pub relation: RelId,
    /// The argument list; length equals the relation's arity. Variables may
    /// repeat (e.g. `E x x`).
    pub args: Vec<Var>,
}

impl Atom {
    /// The set of distinct variables of this atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = Vec::with_capacity(self.args.len());
        for &v in &self.args {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// Returns `true` if variable `v` occurs in this atom.
    pub fn contains(&self, v: Var) -> bool {
        self.args.contains(&v)
    }
}

/// A k-ary conjunctive query.
///
/// Invariants (enforced by [`QueryBuilder`] and the parser):
/// * at least one atom;
/// * every free variable occurs in some atom;
/// * free variables are pairwise distinct;
/// * variable indices are dense: `vars() == 0..num_vars()`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    schema: Schema,
    name: String,
    var_names: Vec<String>,
    free: Vec<Var>,
    atoms: Vec<Atom>,
}

impl Query {
    /// The schema this query is over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The query's head name (purely cosmetic, e.g. `Q`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The printable name of variable `v`.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Number of variables (free and quantified).
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// All variables, in index order.
    pub fn vars(&self) -> impl Iterator<Item = Var> {
        (0..self.var_names.len() as u32).map(Var)
    }

    /// The ordered tuple of free variables `(x₁,…,x_k)`.
    pub fn free(&self) -> &[Var] {
        &self.free
    }

    /// The arity `k = |free(ϕ)|` of the query.
    pub fn arity(&self) -> usize {
        self.free.len()
    }

    /// Returns `true` if this is a Boolean query (`free(ϕ) = ∅`).
    pub fn is_boolean(&self) -> bool {
        self.free.is_empty()
    }

    /// Returns `true` if this is a join query (quantifier-free CQ).
    pub fn is_full(&self) -> bool {
        self.free.len() == self.num_vars()
    }

    /// Returns `true` if variable `v` is free.
    pub fn is_free(&self, v: Var) -> bool {
        self.free.contains(&v)
    }

    /// The body atoms `ψ₁,…,ψ_d`.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The atom with index `id`.
    pub fn atom(&self, id: AtomId) -> &Atom {
        &self.atoms[id]
    }

    /// `atoms(x)`: ids of atoms containing variable `x` (paper, Section 3).
    pub fn atoms_of(&self, x: Var) -> Vec<AtomId> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.contains(x))
            .map(|(i, _)| i)
            .collect()
    }

    /// Returns `true` if no relation symbol occurs in more than one atom.
    pub fn is_self_join_free(&self) -> bool {
        let mut seen = vec![false; self.schema.len()];
        for atom in &self.atoms {
            if std::mem::replace(&mut seen[atom.relation.index()], true) {
                return false;
            }
        }
        true
    }

    /// The existential closure `∃x₁ ⋯ ∃x_k ϕ` of this query.
    pub fn boolean_closure(&self) -> Query {
        let mut q = self.clone();
        q.free.clear();
        q
    }

    /// Restricts the query to the given atoms, dropping unused variables and
    /// renumbering densely. Free variables must all survive.
    ///
    /// Used by the homomorphic-core computation, which shrinks a query to
    /// the image of an endomorphism.
    pub fn restrict_to_atoms(&self, keep: &[AtomId]) -> Query {
        let mut var_map: FxHashMap<Var, Var> = FxHashMap::default();
        let mut var_names = Vec::new();
        // Free variables keep their relative order and come first only if
        // they appear; we preserve original index order for determinism.
        let mut used: Vec<bool> = vec![false; self.num_vars()];
        for &aid in keep {
            for &v in &self.atoms[aid].args {
                used[v.index()] = true;
            }
        }
        for v in self.vars() {
            if used[v.index()] {
                let nv = Var(var_names.len() as u32);
                var_names.push(self.var_names[v.index()].clone());
                var_map.insert(v, nv);
            }
        }
        let free: Vec<Var> = self
            .free
            .iter()
            .map(|v| {
                *var_map
                    .get(v)
                    .expect("restrict_to_atoms: free variable eliminated; cores preserve free vars")
            })
            .collect();
        let atoms: Vec<Atom> = keep
            .iter()
            .map(|&aid| Atom {
                relation: self.atoms[aid].relation,
                args: self.atoms[aid].args.iter().map(|v| var_map[v]).collect(),
            })
            .collect();
        Query {
            schema: self.schema.clone(),
            name: self.name.clone(),
            var_names,
            free,
            atoms,
        }
    }

    /// Replaces the free-variable tuple (crate-internal; callers must pass
    /// distinct variables of this query).
    pub(crate) fn set_free(&mut self, free: Vec<Var>) {
        debug_assert!(free.iter().all(|v| v.index() < self.num_vars()));
        self.free = free;
    }

    /// Renders the query in the parser's concrete syntax.
    pub fn display(&self) -> String {
        format!("{self}")
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.var_name(*v))?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", self.schema.name(atom.relation))?;
            for (j, v) in atom.args.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.var_name(*v))?;
            }
            write!(f, ")")?;
        }
        write!(f, ".")
    }
}

/// Programmatic construction of [`Query`] values.
///
/// ```
/// use cqu_query::QueryBuilder;
///
/// // ϕ(x) = ∃y (E(x, y) ∧ T(y))   — the query ϕ_E-T from the paper, Eq. (4)
/// let mut b = QueryBuilder::new("Q");
/// let x = b.var("x");
/// let y = b.var("y");
/// b.atom("E", &[x, y]).unwrap();
/// b.atom("T", &[y]).unwrap();
/// let q = b.head(&[x]).build().unwrap();
/// assert_eq!(q.arity(), 1);
/// assert_eq!(q.atoms().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    schema: Schema,
    name: String,
    var_names: Vec<String>,
    by_name: FxHashMap<String, Var>,
    free: Option<Vec<Var>>,
    atoms: Vec<Atom>,
}

impl QueryBuilder {
    /// Starts a query named `name` over a fresh schema.
    pub fn new(name: &str) -> Self {
        QueryBuilder {
            schema: Schema::new(),
            name: name.to_string(),
            var_names: Vec::new(),
            by_name: FxHashMap::default(),
            free: None,
            atoms: Vec::new(),
        }
    }

    /// Starts a query over an existing schema (arities are checked against it).
    pub fn with_schema(name: &str, schema: Schema) -> Self {
        QueryBuilder {
            schema,
            name: name.to_string(),
            var_names: Vec::new(),
            by_name: FxHashMap::default(),
            free: None,
            atoms: Vec::new(),
        }
    }

    /// Interns (or looks up) a variable by name.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = Var(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        self.by_name.insert(name.to_string(), v);
        v
    }

    /// Appends a body atom `relation(args…)`.
    pub fn atom(&mut self, relation: &str, args: &[Var]) -> Result<&mut Self, QueryError> {
        let rel = self.schema.intern(relation, args.len())?;
        self.atoms.push(Atom {
            relation: rel,
            args: args.to_vec(),
        });
        Ok(self)
    }

    /// Declares the head (free-variable tuple). Call with `&[]` for Boolean.
    pub fn head(&mut self, free: &[Var]) -> &mut Self {
        self.free = Some(free.to_vec());
        self
    }

    /// Finalises the query, validating all invariants.
    pub fn build(&self) -> Result<Query, QueryError> {
        if self.atoms.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        let free = self.free.clone().unwrap_or_default();
        let mut seen = vec![false; self.var_names.len()];
        for &v in &free {
            if std::mem::replace(&mut seen[v.index()], true) {
                return Err(QueryError::DuplicateHeadVariable(
                    self.var_names[v.index()].clone(),
                ));
            }
        }
        let mut in_body = vec![false; self.var_names.len()];
        for atom in &self.atoms {
            for &v in &atom.args {
                in_body[v.index()] = true;
            }
        }
        for &v in &free {
            if !in_body[v.index()] {
                return Err(QueryError::UnboundHeadVariable(
                    self.var_names[v.index()].clone(),
                ));
            }
        }
        // All interned variables must occur in the body (a variable that
        // never occurs anywhere would be meaningless for evaluation).
        debug_assert!(
            self.var_names
                .iter()
                .enumerate()
                .all(|(i, _)| in_body[i] || !in_body.is_empty()),
            "builder interned a variable that occurs nowhere"
        );
        Ok(Query {
            schema: self.schema.clone(),
            name: self.name.clone(),
            var_names: self.var_names.clone(),
            free,
            atoms: self.atoms.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s_e_t() -> Query {
        // ϕ_S-E-T(x, y) = S(x) ∧ E(x, y) ∧ T(y)   (paper, Eq. (2))
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        let y = b.var("y");
        b.atom("S", &[x]).unwrap();
        b.atom("E", &[x, y]).unwrap();
        b.atom("T", &[y]).unwrap();
        b.head(&[x, y]).build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let q = s_e_t();
        assert_eq!(q.num_vars(), 2);
        assert_eq!(q.arity(), 2);
        assert!(!q.is_boolean());
        assert!(q.is_full());
        assert!(q.is_self_join_free());
        assert_eq!(q.atoms().len(), 3);
        assert_eq!(q.schema().len(), 3);
    }

    #[test]
    fn atoms_of_variable() {
        let q = s_e_t();
        let (x, y) = (Var(0), Var(1));
        assert_eq!(q.atoms_of(x), vec![0, 1]);
        assert_eq!(q.atoms_of(y), vec![1, 2]);
    }

    #[test]
    fn boolean_closure_drops_head() {
        let q = s_e_t();
        let b = q.boolean_closure();
        assert!(b.is_boolean());
        assert_eq!(b.atoms().len(), 3);
        assert_eq!(b.num_vars(), 2);
    }

    #[test]
    fn self_join_detection() {
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        let y = b.var("y");
        b.atom("E", &[x, x]).unwrap();
        b.atom("E", &[x, y]).unwrap();
        let q = b.head(&[x, y]).build().unwrap();
        assert!(!q.is_self_join_free());
    }

    #[test]
    fn repeated_vars_in_atom() {
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        b.atom("E", &[x, x]).unwrap();
        let q = b.head(&[x]).build().unwrap();
        assert_eq!(q.atom(0).vars(), vec![x]);
        assert!(q.atom(0).contains(x));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        b.atom("E", &[x, x]).unwrap();
        let err = b.atom("E", &[x]).unwrap_err();
        assert!(matches!(err, QueryError::ArityMismatch { .. }));
    }

    #[test]
    fn unbound_head_var_rejected() {
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        let z = b.var("z");
        b.atom("S", &[x]).unwrap();
        let err = b.head(&[z]).build().unwrap_err();
        assert_eq!(err, QueryError::UnboundHeadVariable("z".into()));
    }

    #[test]
    fn duplicate_head_var_rejected() {
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        b.atom("S", &[x]).unwrap();
        let err = b.head(&[x, x]).build().unwrap_err();
        assert_eq!(err, QueryError::DuplicateHeadVariable("x".into()));
    }

    #[test]
    fn empty_body_rejected() {
        let b = QueryBuilder::new("Q");
        assert_eq!(b.build().unwrap_err(), QueryError::EmptyBody);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let q = s_e_t();
        let text = q.display();
        assert_eq!(text, "Q(x, y) :- S(x), E(x, y), T(y).");
        let q2 = crate::parse_query(&text).unwrap();
        assert_eq!(q2.display(), text);
    }

    #[test]
    fn restrict_to_atoms_renumbers() {
        // ∃x∃y (E(x,x) ∧ E(x,y) ∧ E(y,y)); restrict to the loop atom E(x,x).
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        let y = b.var("y");
        b.atom("E", &[x, x]).unwrap();
        b.atom("E", &[x, y]).unwrap();
        b.atom("E", &[y, y]).unwrap();
        let q = b.head(&[]).build().unwrap();
        let r = q.restrict_to_atoms(&[0]);
        assert_eq!(r.num_vars(), 1);
        assert_eq!(r.atoms().len(), 1);
        assert_eq!(r.atom(0).args, vec![Var(0), Var(0)]);
    }

    #[test]
    fn schema_interning() {
        let mut s = Schema::new();
        let e = s.intern("E", 2).unwrap();
        let e2 = s.intern("E", 2).unwrap();
        assert_eq!(e, e2);
        assert_eq!(s.name(e), "E");
        assert_eq!(s.arity(e), 2);
        assert_eq!(s.relation("E"), Some(e));
        assert_eq!(s.relation("F"), None);
        assert!(s.intern("E", 3).is_err());
    }
}
