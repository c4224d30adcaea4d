//! Property tests: all baseline engines agree with each other on random
//! queries (generated, including non-q-hierarchical and self-join ones)
//! under random update scripts — and with the dynamic engine whenever the
//! query is q-hierarchical.

use cqu_baseline::EngineKind;
use cqu_dynamic::Standalone;
use cqu_query::generator::{random_q_hierarchical, random_query, GenConfig, Lcg};
use cqu_storage::{Const, Database, Update};
use proptest::prelude::*;

fn drive_all(q: &cqu_query::Query, seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let db0 = Database::new(q.schema().clone());
    // The q-hierarchical engine joins whenever it admits the query.
    let mut engines: Vec<(&str, Box<Standalone>)> = EngineKind::all()
        .into_iter()
        .filter_map(|k| Some((k.name(), k.build(q, &db0).ok()?)))
        .collect();
    let mut rng = Lcg::new(seed);
    let rels: Vec<_> = q.schema().relations().collect();
    for step in 0..steps {
        let rel = rels[rng.below(rels.len())];
        let arity = q.schema().arity(rel);
        let tuple: Vec<Const> = (0..arity).map(|_| 1 + rng.below(4) as Const).collect();
        let u = if rng.chance(3, 5) {
            Update::Insert(rel, tuple)
        } else {
            Update::Delete(rel, tuple)
        };
        let outcomes: Vec<bool> = engines.iter_mut().map(|(_, e)| e.apply(&u)).collect();
        prop_assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "{q}: engines disagree on effectiveness @{step}"
        );
        if step % 10 == 0 || step == steps - 1 {
            let reference = engines[0].1.results_sorted();
            for (name, e) in engines.iter().skip(1) {
                prop_assert_eq!(
                    e.results_sorted(),
                    reference.clone(),
                    "{}: {} diverges @{}",
                    q,
                    name,
                    step
                );
            }
            for (name, e) in engines.iter() {
                prop_assert_eq!(
                    e.count() as usize,
                    reference.len(),
                    "{}: {} count @{}",
                    q,
                    name,
                    step
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn engines_agree_on_arbitrary_queries(seed in 0u64..10_000) {
        let cfg = GenConfig { max_vars: 4, max_atoms: 3, max_arity: 3, self_join_pct: 30 };
        let q = random_query(&mut Lcg::new(seed), cfg);
        drive_all(&q, seed ^ 0xBEEF, 40)?;
    }

    #[test]
    fn engines_agree_on_q_hierarchical_queries(seed in 0u64..10_000) {
        let cfg = GenConfig { max_vars: 4, max_atoms: 3, max_arity: 3, self_join_pct: 30 };
        let q = random_q_hierarchical(&mut Lcg::new(seed), cfg);
        drive_all(&q, seed ^ 0xF00D, 40)?;
    }
}
