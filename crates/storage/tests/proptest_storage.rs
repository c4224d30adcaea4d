//! Property tests for the storage substrate: the database behaves like a
//! model of per-relation sets with an exact active-domain size, update
//! logs round-trip through the binary codec, and maintained indexes agree
//! with freshly built ones.

use cqu_query::Schema;
use cqu_storage::{Const, Database, Index, Relation, Update, UpdateLog};
use proptest::prelude::*;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.intern("A", 1).unwrap();
    s.intern("B", 2).unwrap();
    s.intern("C", 3).unwrap();
    s
}

type Op = (bool, u8, Vec<Const>);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (any::<bool>(), 0u8..3, prop::collection::vec(1u64..6, 3)),
        1..150,
    )
}

proptest! {
    #[test]
    fn database_matches_set_model(ops in ops()) {
        let s = schema();
        let rels: Vec<_> = s.relations().collect();
        let mut db = Database::new(s.clone());
        let mut model: Vec<std::collections::BTreeSet<Vec<Const>>> =
            vec![Default::default(); rels.len()];
        for (insert, r, consts) in ops {
            let ri = (r as usize) % rels.len();
            let arity = s.arity(rels[ri]);
            let t = consts[..arity].to_vec();
            let changed = if insert {
                let c = model[ri].insert(t.clone());
                prop_assert_eq!(db.insert(rels[ri], t), c);
                c
            } else {
                let c = model[ri].remove(&t);
                prop_assert_eq!(db.delete(rels[ri], &t), c);
                c
            };
            let _ = changed;
            // Cardinality and sizes match the model.
            let model_card: usize = model.iter().map(|m| m.len()).sum();
            prop_assert_eq!(db.cardinality(), model_card);
            let mut adom: std::collections::BTreeSet<Const> = Default::default();
            for m in &model {
                for t in m {
                    adom.extend(t.iter().copied());
                }
            }
            prop_assert_eq!(db.active_domain_size(), adom.len());
            let model_size: usize = s.len()
                + adom.len()
                + model.iter().enumerate().map(|(i, m)| s.arity(rels[i]) * m.len()).sum::<usize>();
            prop_assert_eq!(db.size(), model_size);
        }
    }

    #[test]
    fn update_log_codec_roundtrips(ops in ops()) {
        let s = schema();
        let rels: Vec<_> = s.relations().collect();
        let mut log = UpdateLog::new();
        for (insert, r, consts) in ops {
            let ri = (r as usize) % rels.len();
            let t = consts[..s.arity(rels[ri])].to_vec();
            log.push(if insert { Update::Insert(rels[ri], t) } else { Update::Delete(rels[ri], t) });
        }
        let bytes = log.encode();
        prop_assert_eq!(UpdateLog::decode(&bytes).unwrap(), log);
    }

    #[test]
    fn maintained_index_matches_rebuilt(ops in ops(), col in 0usize..3) {
        let mut relation = Relation::new(3);
        let mut maintained = Index::new(vec![col]);
        for (insert, _, t) in ops {
            if insert {
                if relation.insert(t.clone()) {
                    maintained.insert(t);
                }
            } else if relation.delete(&t) {
                maintained.remove(&t);
            }
        }
        let rebuilt = Index::build(&relation, vec![col]);
        prop_assert_eq!(maintained.num_keys(), rebuilt.num_keys());
        for key in 1u64..6 {
            let mut a = maintained.probe(&[key]).to_vec();
            let mut b = rebuilt.probe(&[key]).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "key {}", key);
        }
    }

    #[test]
    fn replaying_a_log_reproduces_the_database(ops in ops()) {
        let s = schema();
        let rels: Vec<_> = s.relations().collect();
        let mut db = Database::new(s.clone());
        let mut log = UpdateLog::new();
        for (insert, r, consts) in ops {
            let ri = (r as usize) % rels.len();
            let t = consts[..s.arity(rels[ri])].to_vec();
            let u = if insert { Update::Insert(rels[ri], t) } else { Update::Delete(rels[ri], t) };
            db.apply(&u);
            log.push(u);
        }
        let mut replayed = Database::new(s.clone());
        replayed.apply_all(UpdateLog::decode(&log.encode()).unwrap().iter());
        for &r in &rels {
            prop_assert_eq!(db.relation(r).sorted(), replayed.relation(r).sorted());
        }
        prop_assert_eq!(db.active_domain_size(), replayed.active_domain_size());
    }
}
