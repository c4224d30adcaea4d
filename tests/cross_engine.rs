//! Cross-engine integration tests: the paper's dynamic engine, the
//! recompute baseline, delta-IVM, and the semi-join baseline must agree
//! with each other (and with the shared `cqu-testutil` brute-force
//! oracle) on randomized update scripts from the shared workload
//! harness, across easy and hard queries. All engines are driven through
//! one [`Session`], registered with explicit [`EngineChoice::Forced`]
//! overrides so every supporting engine kind sees the same stream.

use cq_updates::dynamic::Standalone;
use cq_updates::prelude::*;
use cqu_testutil::{brute_force, random_updates, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn run_all_engines(src: &str, seed: u64, steps: usize, domain: u64) {
    // One session, one query per supporting engine kind.
    let mut session = Session::new();
    let mut names: Vec<&'static str> = Vec::new();
    for kind in EngineKind::all() {
        match session.register_with(kind.name(), src, EngineChoice::Forced(kind)) {
            Ok(_) => names.push(kind.name()),
            Err(CqError::Query(QueryError::NotQHierarchical(_))) => {
                assert_eq!(
                    kind,
                    EngineKind::QHierarchical,
                    "only the qh engine may refuse"
                );
            }
            Err(e) => panic!("{src}: {} refused unexpectedly: {e}", kind.name()),
        }
    }
    assert!(!names.is_empty());
    // The session schema is the remapped query's schema.
    let q = session.query(names[0]).unwrap().query().clone();
    let mut oracle_db = Database::new(session.schema().clone());
    let script = random_updates(
        q.schema(),
        seed,
        WorkloadConfig {
            steps,
            domain,
            insert_permille: 600,
        },
    );
    for (step, u) in script.into_iter().enumerate() {
        let oracle_changed = oracle_db.apply(&u);
        let session_changed = session.apply(&u).unwrap();
        assert_eq!(
            session_changed, oracle_changed,
            "{src}: effectiveness @{step}"
        );
        if step % 11 == 0 || step == steps - 1 {
            let expected = brute_force(&q, &oracle_db);
            session.check_invariants().unwrap();
            for name in &names {
                let h = session.query(name).unwrap();
                assert_eq!(h.kind().name(), *name);
                assert_eq!(h.results_sorted(), expected, "{src}: {name} result @{step}");
                assert_eq!(
                    h.count() as usize,
                    expected.len(),
                    "{src}: {name} count @{step}"
                );
                assert_eq!(h.answer(), !expected.is_empty(), "{src}: {name} @{step}");
            }
        }
    }
    // The one database the session maintains matches the oracle's.
    assert_eq!(session.database().cardinality(), oracle_db.cardinality());
    assert_eq!(
        session.database().active_domain_size(),
        oracle_db.active_domain_size()
    );
}

#[test]
fn easy_queries_all_engines() {
    run_all_engines("Q(x, y) :- E(x, y), T(y).", 1, 150, 5);
    run_all_engines("Q(x, y, z) :- R(x, y), S(x, z), T(x).", 2, 150, 4);
    run_all_engines("Q(x) :- E(x, y).", 3, 120, 5);
    run_all_engines("Q() :- E(x, y), T(y).", 4, 120, 4);
}

#[test]
fn hard_queries_baselines_only() {
    // The qh engine refuses these; the baselines must still agree.
    run_all_engines("Q(x, y) :- S(x), E(x, y), T(y).", 5, 150, 4);
    run_all_engines("Q(x) :- E(x, y), T(y).", 6, 150, 5);
    run_all_engines("Q(x, z) :- R(x, y), S(y, z).", 7, 120, 4);
}

#[test]
fn self_join_queries() {
    run_all_engines("Q(a) :- R(a, b), R(a, a).", 8, 150, 4);
    run_all_engines("Q(x, y) :- E(x, x), E(x, y), E(y, y).", 9, 150, 4);
}

#[test]
fn disconnected_queries() {
    run_all_engines("Q(x, z) :- R(x), S(z).", 10, 120, 5);
    run_all_engines("Q(x) :- R(x), S(u, v).", 11, 120, 4);
}

#[test]
fn example_6_1_under_random_churn() {
    run_all_engines(
        "Q(x, y, z, y', z') :- R(x,y,z), R(x,y,z'), E(x,y), E(x,y'), S(x,y,z).",
        12,
        120,
        3,
    );
}

#[test]
fn phi2_amortised_engine_agrees_with_recompute() {
    let q2 = parse_query("Q(x, y, z1, z2) :- E(x,x), E(x,y), E(y,y), E(z1,z2).").unwrap();
    let er = q2.schema().relation("E").unwrap();
    let mut amort = Standalone::from_empty(Phi2Engine::new());
    let mut rec = Standalone::from_empty(RecomputeEngine::empty(&q2));
    let mut rng = SmallRng::seed_from_u64(13);
    for step in 0..300 {
        let a = rng.gen_range(1..=5u64);
        let b = if rng.gen_bool(0.4) {
            a
        } else {
            rng.gen_range(1..=5u64)
        };
        let u = if rng.gen_bool(0.6) {
            Update::Insert(er, vec![a, b])
        } else {
            Update::Delete(er, vec![a, b])
        };
        assert_eq!(amort.apply(&u), rec.apply(&u), "@{step}");
        if step % 9 == 0 {
            assert_eq!(amort.results_sorted(), rec.results_sorted(), "@{step}");
            assert_eq!(amort.is_nonempty(), rec.is_nonempty(), "@{step}");
        }
    }
}
