//! Bulk preprocessing equals replaying `D` insert by insert.
//!
//! `QhEngine::new` builds each component from `D` in one top-down and one
//! bottom-up pass; a twin over the empty database receives the same facts
//! one at a time. On random q-hierarchical queries and a catalogue of
//! shapes — two- and three-level q-trees, self-joins, an equality pattern
//! with facts that match no atom, Boolean and quantified components,
//! several components, relations the query does not read — both engines:
//!
//! * pass `audit`, count the same, and enumerate the same sorted result,
//!   which is the brute-force oracle's;
//! * store the same registers for every item, up to row numbering;
//! * stay equal and audited through a random churn that ends by deleting
//!   every fact, so the bulk state is a valid starting point for Section
//!   6.4's updates.

use cqu_dynamic::{DynamicEngine, ItemRegisters, QhEngine, QhStructure};
use cqu_query::generator::{random_q_hierarchical, GenConfig, Lcg};
use cqu_query::{parse_query, Query, Schema};
use cqu_storage::{Const, Database, Update};
use cqu_testutil::{brute_force, random_updates, WorkloadConfig};

const QUERIES: &[&str] = &[
    // Two- and three-level q-trees, self-joins, an equality pattern.
    "Q(x, y) :- E(x, y), T(x).",
    "Q(x, y, z) :- E(x, y), E(x, z).",
    "Q(x) :- E(x, y), E(x, x).",
    "Q(x, y, z) :- R(x, y, z), S(x, y), T(x).",
    // Only loops match: most facts of `E` match no atom pattern.
    "Q(x) :- E(x, x).",
    // Boolean components, alone and beside a free one.
    "Q() :- E(x, y), T(y).",
    "Q(x) :- R(x), S(u, v).",
    // Several components, quantified nodes.
    "Q(x, z) :- R(x), S(z, w).",
    "Q(x) :- E(x, y), F(x, y, w).",
    "Q(a, b, c) :- A(a), B(b), C(c, d).",
];

/// An item's registers with the row ids that depend on history (its own
/// row, its list neighbours, its child-list heads) reduced to whether
/// they are set.
fn canonical(r: &ItemRegisters) -> ItemRegisters {
    ItemRegisters {
        row: 0,
        child_heads: r.child_heads.iter().map(|h| h.map(|_| 0)).collect(),
        prev: None,
        next: None,
        ..r.clone()
    }
}

/// Every item of `engine` as `(component, var, key)`: the path prefixes
/// of each stored fact under each atom whose pattern it matches.
fn item_keys(engine: &QhEngine) -> Vec<(usize, String, Vec<Const>)> {
    let mut keys = Vec::new();
    for (ci, comp) in engine.components().iter().enumerate() {
        let (tree, q) = (comp.tree(), comp.query());
        for ap in tree.atom_paths() {
            for fact in engine.database().relation(q.atom(ap.atom).relation).iter() {
                if !ap
                    .canon
                    .iter()
                    .enumerate()
                    .all(|(p, &c)| fact[p] == fact[c])
                {
                    continue;
                }
                let key: Vec<Const> = ap.extract.iter().map(|&p| fact[p]).collect();
                for (j, &node) in tree.node(ap.rep).path.iter().enumerate() {
                    let var = q.var_name(tree.node(node).var).to_string();
                    keys.push((ci, var, key[..=j].to_vec()));
                }
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// `bulk` and `replayed` hold the same `D` and the same state.
fn assert_twins(tag: &str, q: &Query, bulk: &QhEngine, replayed: &QhEngine) {
    let db = bulk.database();
    for (side, engine) in [("bulk", bulk), ("replayed", replayed)] {
        engine
            .audit(engine.database())
            .unwrap_or_else(|e| panic!("{tag}: {side} audit: {e}"));
    }
    let want = brute_force(q, db);
    assert_eq!(bulk.count(), want.len() as u64, "{tag}: count");
    assert_eq!(replayed.count(), want.len() as u64, "{tag}: count");
    assert_eq!(bulk.results_sorted(), want, "{tag}: bulk results");
    assert_eq!(replayed.results_sorted(), want, "{tag}: replayed results");
    assert_eq!(bulk.num_items(), replayed.num_items(), "{tag}: items");
    for (ci, var, key) in item_keys(bulk) {
        let regs = |engine: &QhEngine| {
            engine.components()[ci]
                .item_registers(&var, &key)
                .map(|r| canonical(&r))
                .unwrap_or_else(|| panic!("{tag}: item [{var}, {key:?}] missing"))
        };
        assert_eq!(regs(bulk), regs(replayed), "{tag}: item [{var}, {key:?}]");
    }
}

/// Loads a random `D` over `schema` into `q` both ways, compares, then
/// churns both and finally deletes every fact.
fn check(q: &Query, schema: &Schema, seed: u64) {
    let tag = format!("{} (seed {seed})", q.name());
    let mut db = Database::new(schema.clone());
    let cfg = WorkloadConfig {
        steps: 60,
        domain: 4,
        insert_permille: 800,
    };
    for u in random_updates(schema, seed, cfg) {
        db.apply(&u);
    }
    let mut bulk = QhEngine::new(q, &db).unwrap();
    // Over an empty `D` of the same schema, which may be wider than the
    // query's.
    let empty = Database::new(schema.clone());
    let mut replayed = QhEngine::over(QhStructure::empty(q).unwrap(), &empty);
    for rel in schema.relations() {
        for t in db.relation(rel).sorted() {
            assert!(replayed.apply(&Update::Insert(rel, t)));
        }
    }
    assert_eq!(bulk.database().cardinality(), db.cardinality());
    assert_twins(&format!("{tag} after load"), q, &bulk, &replayed);

    let churn = random_updates(schema, seed ^ 0x5eed, WorkloadConfig { steps: 40, ..cfg });
    let drain: Vec<Update> = schema
        .relations()
        .flat_map(|rel| {
            // Every fact the churn may have left: deletes of absent ones
            // are no-ops.
            let mut all = db.relation(rel).sorted();
            all.extend(
                churn
                    .iter()
                    .filter(|u| u.relation() == rel)
                    .map(|u| u.tuple().to_vec()),
            );
            all.into_iter().map(move |t| Update::Delete(rel, t))
        })
        .collect();
    for (step, u) in churn.iter().chain(&drain).enumerate() {
        assert_eq!(bulk.apply(u), replayed.apply(u), "{tag} step {step}");
        assert_twins(&format!("{tag} step {step} ({u:?})"), q, &bulk, &replayed);
    }
    assert_eq!(bulk.database().cardinality(), 0, "{tag}: drained");
    assert_eq!(bulk.num_items(), 0, "{tag}: every item freed");
}

#[test]
fn bulk_load_equals_replay_on_the_catalogue() {
    for (i, src) in QUERIES.iter().enumerate() {
        let q = parse_query(src).unwrap();
        for seed in 0..4 {
            check(&q, q.schema(), 100 * i as u64 + seed);
        }
    }
}

#[test]
fn bulk_load_equals_replay_on_random_q_hierarchical_queries() {
    let cfg = GenConfig {
        max_vars: 5,
        max_atoms: 4,
        max_arity: 3,
        self_join_pct: 30,
    };
    for seed in 0..60 {
        let q = random_q_hierarchical(&mut Lcg::new(seed), cfg);
        check(&q, q.schema(), seed);
    }
}

/// A `D` over a wider schema: the relations the query does not read load
/// into its copy of `D` and into no item.
#[test]
fn relations_the_query_does_not_read_stay_out_of_the_items() {
    let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
    let mut schema = q.schema().clone();
    schema.intern("W", 2).unwrap();
    schema.intern("V", 1).unwrap();
    for seed in 0..4 {
        check(&q, &schema, seed);
    }
}

/// `|ϕ(D)| = 2048⁶ = 2⁶⁶` in one component: its root's free weight
/// passes `u64`. The bulk build panics where inserting the facts one by
/// one panics, with the same message.
#[test]
fn a_free_weight_past_u64_panics_as_the_replay_does() {
    let q = parse_query(
        "Q(x, a, b, c, d, e, f) :- A(x, a), B(x, b), C(x, c), D(x, d), E(x, e), F(x, f).",
    )
    .unwrap();
    let mut db = Database::new(q.schema().clone());
    for rel in q.schema().relations() {
        for i in 0..2048 {
            db.insert(rel, vec![0, i]);
        }
    }
    let message = |build: &dyn Fn()| -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
            .expect_err("a count past u64 must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("a text payload")
    };
    let bulk = message(&|| drop(QhEngine::new(&q, &db)));
    let replayed = message(&|| {
        let mut engine = QhEngine::empty(&q).unwrap();
        for rel in q.schema().relations() {
            for t in db.relation(rel).sorted() {
                engine.apply(&Update::Insert(rel, t));
            }
        }
    });
    assert_eq!(bulk, "result count overflowed u64");
    assert_eq!(replayed, bulk);
}
