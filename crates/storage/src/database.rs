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
}

impl Database {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        let relations: Vec<Relation> = schema
            .relations()
            .map(|r| Relation::new(schema.arity(r)))
            .collect();
        Database { schema, relations }
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
        let inserted = self.relations[rel.index()].insert(tuple);
        debug_assert!(inserted, "insert_absent of a present tuple");
        inserted
    }

    /// Deletes `tuple` from `rel`; returns `true` iff the database changed.
    pub fn delete(&mut self, rel: RelId, tuple: &[Const]) -> bool {
        self.relations[rel.index()].delete(tuple)
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
    fn adopted_relations_start_empty_and_keep_the_old_data() {
        let mut s = Schema::new();
        s.intern("E", 2).unwrap();
        let e = s.relation("E").unwrap();
        let mut db = Database::new(s.clone());
        db.insert(e, vec![1, 2]);
        s.intern("X", 1).unwrap();
        db.adopt_schema(&s);
        let x = s.relation("X").unwrap();
        assert_eq!(db.relation(x).len(), 0);
        assert!(db.relation(e).contains(&[1, 2]));
        assert!(db.insert(x, vec![9]));
    }
}
