//! The database: one relation per schema symbol.
//!
//! The paper measures everything in `n = |adom(D)|`, the size of the active
//! domain of the *current* database, and defines
//! `|D| = Σ_R |R^D|` (cardinality) and
//! `‖D‖ = |σ| + |adom(D)| + Σ_R ar(R)·|R^D|` (size). These are measures of
//! the input, not something an algorithm reads, so nothing is maintained
//! for them: [`Database::active_domain_size`] and [`Database::size`] scan
//! the relations in `O(‖D‖)`.

use crate::update::Update;
use crate::{Const, Relation, Tuple};
use cqu_common::FxHashSet;
use cqu_query::{RelId, Schema};

/// A relational database over a fixed schema.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Schema,
    relations: Vec<Relation>,
    /// Generation stamp: the number of effective changes ever applied.
    /// Two databases with equal generation (and shared history) hold
    /// identical states, so epoch snapshots stamp themselves with it —
    /// staleness becomes an integer comparison, and a replaced epoch can
    /// be dropped deterministically the moment its generation is passed.
    generation: u64,
    /// Per-relation generation stamps: `rel_generation[r]` is the value
    /// [`Database::generation`] took at relation `r`'s last effective
    /// change (0 if never touched). The global generation is always the
    /// max of these — a write to one relation moves only that relation's
    /// stamp, so shard-local epoch publication can stamp and compare
    /// staleness per relation without any shared hot spot.
    rel_generation: Vec<u64>,
}

impl Database {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        let relations: Vec<Relation> = schema
            .relations()
            .map(|r| Relation::new(schema.arity(r)))
            .collect();
        let rel_generation = vec![0; relations.len()];
        Database {
            schema,
            relations,
            generation: 0,
            rel_generation,
        }
    }

    /// The database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adopts a grown version of this database's schema: `schema` must
    /// extend the current one (same relations, same arities, same ids —
    /// new symbols appended), and empty instances are created for the new
    /// symbols. Existing data is untouched. Panics if `schema` disagrees
    /// with the current one on an existing relation.
    pub fn adopt_schema(&mut self, schema: &Schema) {
        assert!(
            schema.len() >= self.schema.len(),
            "adopt_schema: schema shrank"
        );
        for rel in self.schema.relations() {
            assert_eq!(
                self.schema.name(rel),
                schema.name(rel),
                "adopt_schema: relation renamed"
            );
            assert_eq!(
                self.schema.arity(rel),
                schema.arity(rel),
                "adopt_schema: arity changed"
            );
        }
        for rel in schema.relations().skip(self.schema.len()) {
            self.relations.push(Relation::new(schema.arity(rel)));
            self.rel_generation.push(0);
        }
        self.schema = schema.clone();
    }

    /// The instance of relation `rel`.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.index()]
    }

    /// Inserts `tuple` into `rel`; returns `true` iff the database changed.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> bool {
        !self.relation(rel).contains(&tuple) && self.insert_absent(rel, tuple)
    }

    /// Inserts a `tuple` the caller found absent from `rel`, moving it into
    /// the relation, so an insert stores the one copy it was handed.
    fn insert_absent(&mut self, rel: RelId, tuple: Tuple) -> bool {
        self.generation += 1;
        self.rel_generation[rel.index()] = self.generation;
        let inserted = self.relations[rel.index()].insert(tuple);
        debug_assert!(inserted, "insert_absent of a present tuple");
        inserted
    }

    /// Deletes `tuple` from `rel`; returns `true` iff the database changed.
    pub fn delete(&mut self, rel: RelId, tuple: &[Const]) -> bool {
        let changed = self.relations[rel.index()].delete(tuple);
        if changed {
            self.generation += 1;
            self.rel_generation[rel.index()] = self.generation;
        }
        changed
    }

    /// The generation stamp: a monotone counter of effective changes,
    /// always equal to the max over [`Database::relation_generation`].
    /// Snapshots pinned at equal generations of the same database are
    /// guaranteed identical; epoch publication uses this to detect (and
    /// deterministically retire) stale views.
    pub fn generation(&self) -> u64 {
        debug_assert_eq!(
            self.generation,
            self.rel_generation.iter().copied().max().unwrap_or(0),
            "global generation must be the max per-relation stamp"
        );
        self.generation
    }

    /// The generation stamp of relation `rel`'s last effective change
    /// (0 if it was never touched). Only writes to `rel` move this
    /// stamp, so per-relation staleness checks — e.g. a shard deciding
    /// whether one of its relations changed — never observe foreign
    /// traffic. The global [`Database::generation`] is the max of these.
    pub fn relation_generation(&self, rel: RelId) -> u64 {
        self.rel_generation[rel.index()]
    }

    /// Applies an update command; returns `true` iff the database changed.
    /// Presence is decided first, so a no-op allocates nothing and an
    /// effective insert clones its tuple once.
    pub fn apply(&mut self, update: &Update) -> bool {
        match update {
            Update::Insert(rel, tuple) => {
                !self.relation(*rel).contains(tuple) && self.insert_absent(*rel, tuple.clone())
            }
            Update::Delete(rel, tuple) => self.delete(*rel, tuple),
        }
    }

    /// Applies a sequence of updates, returning how many changed the
    /// database.
    pub fn apply_all<'a>(&mut self, updates: impl IntoIterator<Item = &'a Update>) -> usize {
        updates.into_iter().filter(|u| self.apply(u)).count()
    }

    /// `n = |adom(D)|`: the number of distinct constants currently stored.
    /// Scans every tuple: `O(‖D‖)`.
    pub fn active_domain_size(&self) -> usize {
        let mut adom: FxHashSet<Const> = FxHashSet::default();
        for r in &self.relations {
            for tuple in r.iter() {
                adom.extend(tuple.iter().copied());
            }
        }
        adom.len()
    }

    /// `|D| = Σ_R |R^D]`: total number of stored tuples.
    pub fn cardinality(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// `‖D‖ = |σ| + |adom(D)| + Σ_R ar(R)·|R^D|`, in `O(‖D‖)`.
    pub fn size(&self) -> usize {
        self.schema.len()
            + self.active_domain_size()
            + self
                .relations
                .iter()
                .map(|r| r.arity() * r.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_et() -> Schema {
        let mut s = Schema::new();
        s.intern("E", 2).unwrap();
        s.intern("T", 1).unwrap();
        s
    }

    #[test]
    fn insert_delete_track_active_domain() {
        let s = schema_et();
        let e = s.relation("E").unwrap();
        let t = s.relation("T").unwrap();
        let mut db = Database::new(s);
        assert!(db.insert(e, vec![1, 2]));
        assert!(db.insert(t, vec![2]));
        assert_eq!(db.active_domain_size(), 2);
        assert_eq!(db.cardinality(), 2);
        // ‖D‖ = |σ| + |adom| + Σ ar·|R| = 2 + 2 + (2·1 + 1·1) = 7.
        assert_eq!(db.size(), 7);
        // Deleting E(1,2) removes 1 from the active domain but keeps 2.
        assert!(db.delete(e, &[1, 2]));
        assert_eq!(db.active_domain_size(), 1);
        assert!(db.delete(t, &[2]));
        assert_eq!(db.active_domain_size(), 0);
    }

    #[test]
    fn duplicate_operations_leave_the_active_domain() {
        let s = schema_et();
        let e = s.relation("E").unwrap();
        let mut db = Database::new(s);
        assert!(db.insert(e, vec![7, 7]));
        assert!(!db.insert(e, vec![7, 7]));
        assert_eq!(db.active_domain_size(), 1);
        assert!(!db.delete(e, &[7, 8]));
        assert_eq!(db.active_domain_size(), 1);
        assert!(db.delete(e, &[7, 7]));
        assert_eq!(db.active_domain_size(), 0);
        assert!(!db.delete(e, &[7, 7]));
    }

    #[test]
    fn a_constant_stays_while_any_slot_holds_it() {
        let s = schema_et();
        let e = s.relation("E").unwrap();
        let t = s.relation("T").unwrap();
        let mut db = Database::new(s);
        db.insert(e, vec![3, 3]);
        db.insert(t, vec![3]);
        // Deleting the edge must keep 3 alive through T(3).
        db.delete(e, &[3, 3]);
        assert_eq!(db.active_domain_size(), 1);
    }

    #[test]
    fn apply_updates() {
        let s = schema_et();
        let e = s.relation("E").unwrap();
        let mut db = Database::new(s);
        let ups = vec![
            Update::Insert(e, vec![1, 2]),
            Update::Insert(e, vec![1, 2]),
            Update::Delete(e, vec![1, 2]),
        ];
        assert_eq!(db.apply_all(&ups), 2);
        assert_eq!(db.cardinality(), 0);
    }

    #[test]
    fn generation_counts_effective_changes_only() {
        let s = schema_et();
        let e = s.relation("E").unwrap();
        let mut db = Database::new(s);
        assert_eq!(db.generation(), 0);
        assert!(db.insert(e, vec![1, 2]));
        assert!(!db.insert(e, vec![1, 2])); // no-op: generation frozen
        assert_eq!(db.generation(), 1);
        assert!(!db.delete(e, &[9, 9])); // absent: no-op
        assert!(db.delete(e, &[1, 2]));
        assert_eq!(db.generation(), 2, "back to the same state, new stamp");
    }

    #[test]
    fn per_relation_generations_track_only_their_relation() {
        let s = schema_et();
        let e = s.relation("E").unwrap();
        let t = s.relation("T").unwrap();
        let mut db = Database::new(s);
        assert_eq!(db.relation_generation(e), 0);
        assert_eq!(db.relation_generation(t), 0);
        db.insert(e, vec![1, 2]); // generation 1
        db.insert(t, vec![2]); // generation 2
        db.insert(e, vec![3, 4]); // generation 3
        assert_eq!(db.relation_generation(e), 3);
        assert_eq!(db.relation_generation(t), 2, "foreign writes don't move T");
        assert_eq!(db.generation(), 3, "global is the max per-relation stamp");
        // No-ops freeze both levels.
        assert!(!db.insert(t, vec![2]));
        assert_eq!(db.relation_generation(t), 2);
        assert_eq!(db.generation(), 3);
        // A delete stamps its own relation only.
        assert!(db.delete(t, &[2]));
        assert_eq!(db.relation_generation(t), 4);
        assert_eq!(db.relation_generation(e), 3);
        assert_eq!(db.generation(), 4);
    }

    #[test]
    fn adopted_relations_start_at_generation_zero() {
        let mut s = Schema::new();
        s.intern("E", 2).unwrap();
        let e = s.relation("E").unwrap();
        let mut db = Database::new(s.clone());
        db.insert(e, vec![1, 2]);
        s.intern("X", 1).unwrap();
        db.adopt_schema(&s);
        let x = s.relation("X").unwrap();
        assert_eq!(db.relation_generation(x), 0);
        assert_eq!(db.relation_generation(e), 1);
        assert_eq!(db.generation(), 1);
        assert!(db.insert(x, vec![9]));
        assert_eq!(db.relation_generation(x), 2);
    }
}
