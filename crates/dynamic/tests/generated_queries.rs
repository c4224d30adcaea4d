//! Fuzz-style validation on *generated* q-hierarchical queries: the query
//! generator produces random q-trees (with quantifiers, self-joins, and
//! repeated variables), and the engine must match a brute-force oracle and
//! pass the invariant audit on random update scripts for every one of
//! them. This covers a much larger query space than the hand-written
//! catalogue in `proptest_engine.rs`.

use cqu_dynamic::{audit, DynamicEngine, QhEngine};
use cqu_query::generator::{random_q_hierarchical, GenConfig, Lcg};
use cqu_query::Query;
use cqu_storage::{Const, Database, Update};

fn brute_force(q: &Query, db: &Database) -> Vec<Vec<Const>> {
    fn go(
        q: &Query,
        db: &Database,
        idx: usize,
        assign: &mut std::collections::BTreeMap<cqu_query::Var, Const>,
        out: &mut std::collections::BTreeSet<Vec<Const>>,
    ) {
        if idx == q.atoms().len() {
            out.insert(q.free().iter().map(|v| assign[v]).collect());
            return;
        }
        let atom = &q.atoms()[idx];
        let facts: Vec<Vec<Const>> = db.relation(atom.relation).iter().cloned().collect();
        for fact in facts {
            let mut bound = Vec::new();
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
                go(q, db, idx + 1, assign, out);
            }
            for v in bound {
                assign.remove(&v);
            }
        }
    }
    let mut out = std::collections::BTreeSet::new();
    go(q, db, 0, &mut std::collections::BTreeMap::new(), &mut out);
    out.into_iter().collect()
}

fn drive(q: &Query, seed: u64, steps: usize) {
    let mut rng = Lcg::new(seed);
    let rels: Vec<_> = q.schema().relations().collect();
    let mut engine = QhEngine::empty(q).unwrap();
    let mut db = Database::new(q.schema().clone());
    for step in 0..steps {
        let rel = rels[rng.below(rels.len())];
        let arity = q.schema().arity(rel);
        let tuple: Vec<Const> = (0..arity).map(|_| 1 + rng.below(4) as Const).collect();
        let u = if rng.chance(3, 5) {
            Update::Insert(rel, tuple)
        } else {
            Update::Delete(rel, tuple)
        };
        let changed = db.apply(&u);
        assert_eq!(engine.apply(&u), changed, "{q}: effectiveness @{step}");
        assert_eq!(
            engine.count() as usize,
            brute_force(q, &db).len(),
            "{q}: count @{step}"
        );
        if step % 13 == 0 || step == steps - 1 {
            assert_eq!(engine.results_sorted(), brute_force(q, &db), "{q} @{step}");
            audit::check_invariants(&engine, engine.database())
                .unwrap_or_else(|m| panic!("{q}: {m}"));
        }
    }
}

#[test]
fn generated_queries_match_oracle() {
    let cfg = GenConfig {
        max_vars: 4,
        max_atoms: 3,
        max_arity: 3,
        self_join_pct: 30,
    };
    for seed in 0..60 {
        let q = random_q_hierarchical(&mut Lcg::new(seed * 977 + 3), cfg);
        drive(&q, seed, 60);
    }
}

#[test]
fn generated_deep_queries_match_oracle() {
    // Deeper trees, fewer seeds (brute force grows fast).
    let cfg = GenConfig {
        max_vars: 6,
        max_atoms: 2,
        max_arity: 4,
        self_join_pct: 40,
    };
    for seed in 0..25 {
        let q = random_q_hierarchical(&mut Lcg::new(seed * 7919 + 1), cfg);
        drive(&q, seed ^ 0xF00, 40);
    }
}

#[test]
fn generated_queries_survive_full_teardown() {
    let cfg = GenConfig::default();
    for seed in 0..40 {
        let q = random_q_hierarchical(&mut Lcg::new(seed * 131 + 17), cfg);
        let mut rng = Lcg::new(seed);
        let rels: Vec<_> = q.schema().relations().collect();
        let mut engine = QhEngine::empty(&q).unwrap();
        let mut applied: Vec<Update> = Vec::new();
        for _ in 0..80 {
            let rel = rels[rng.below(rels.len())];
            let arity = q.schema().arity(rel);
            let tuple: Vec<Const> = (0..arity).map(|_| 1 + rng.below(3) as Const).collect();
            let u = Update::Insert(rel, tuple);
            if engine.apply(&u) {
                applied.push(u);
            }
        }
        for u in applied.iter().rev() {
            assert!(engine.apply(&u.inverse()));
        }
        assert_eq!(engine.num_items(), 0, "{q}");
        assert_eq!(engine.count(), 0, "{q}");
    }
}
