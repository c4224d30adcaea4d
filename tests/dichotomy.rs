//! Integration tests for the dichotomy story: classifier verdicts, engine
//! admission, and the Chandra–Merlin core equivalence (`core(ϕ)(D) = ϕ(D)`)
//! that Theorems 1.2/1.3 rely on.

use cq_updates::dynamic::Standalone;
use cq_updates::prelude::*;
use cq_updates::query::hierarchical::is_q_hierarchical;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The engine admits a query iff it is q-hierarchical (Theorem 3.2's
/// precondition is exactly Definition 3.1).
#[test]
fn engine_admission_matches_definition() {
    let zoo = [
        "Q(x, y) :- S(x), E(x, y), T(y).",
        "Q() :- S(x), E(x, y), T(y).",
        "Q(x) :- E(x, y), T(y).",
        "Q(y) :- E(x, y), T(y).",
        "Q(x, y) :- E(x, y), T(y).",
        "Q() :- E(x,x), E(x,y), E(y,y).",
        "Q(x, y) :- E(x,x), E(x,y), E(y,y).",
        "Q(x, y, z, y', z') :- R(x,y,z), R(x,y,z'), E(x,y), E(x,y'), S(x,y,z).",
        "Q(x1, x2, x3) :- E(x1,x2), R(x4,x1,x2,x1), R(x5,x3,x2,x1).",
        "Q(x, z) :- R(x, y), S(y, z).",
        "Q(a) :- R(a, b), R(a, c).",
    ];
    for src in zoo {
        let q = parse_query(src).unwrap();
        let admitted = QhEngine::new(&q, &Database::new(q.schema().clone())).is_ok();
        assert_eq!(admitted, is_q_hierarchical(&q), "{src}");
    }
}

/// Where the classifier says "tractable via the core", maintaining the core
/// with the dynamic engine gives the same results as evaluating the
/// original query — `ϕ'(D) = ϕ(D)` for the homomorphic core `ϕ'`.
#[test]
fn core_evaluation_equals_original() {
    // ϕ = ∃x∃y (Exx ∧ Exy ∧ Eyy): not q-hierarchical, but its core ∃x Exx
    // is. The classifier routes evaluation through the core.
    let q = parse_query("Q() :- E(x,x), E(x,y), E(y,y).").unwrap();
    let verdicts = classify(&q);
    assert!(verdicts.boolean.is_tractable());
    assert!(verdicts.counting.is_tractable());
    let core = verdicts.core.clone();
    assert!(is_q_hierarchical(&core));

    // Maintain the core dynamically; check against recompute on ϕ itself.
    // (Same schema: relation names survive restriction.)
    let mut core_engine = QhEngine::new(&core, &Database::new(core.schema().clone())).unwrap();
    let mut full = Standalone::from_empty(RecomputeEngine::empty(&q));
    let er = q.schema().relation("E").unwrap();
    let er_core = core.schema().relation("E").unwrap();
    let mut rng = SmallRng::seed_from_u64(77);
    for step in 0..300 {
        let a = rng.gen_range(1..=6u64);
        let b = if rng.gen_bool(0.35) {
            a
        } else {
            rng.gen_range(1..=6u64)
        };
        let insert = rng.gen_bool(0.6);
        let (u_core, u_full) = if insert {
            (
                Update::Insert(er_core, vec![a, b]),
                Update::Insert(er, vec![a, b]),
            )
        } else {
            (
                Update::Delete(er_core, vec![a, b]),
                Update::Delete(er, vec![a, b]),
            )
        };
        core_engine.apply(&u_core);
        full.apply(&u_full);
        assert_eq!(core_engine.is_nonempty(), full.is_nonempty(), "@{step}");
        assert_eq!(core_engine.count() > 0, full.count() > 0, "@{step}");
    }
}

/// The counting dichotomy's subtle split (Section 5.4): the Boolean version
/// of `(Exx ∧ Exy ∧ Eyy)` is easy, counting its non-Boolean version is
/// hard — because the k-ary query is its own core while the Boolean
/// closure's core collapses to `∃x Exx`.
#[test]
fn boolean_vs_counting_split_on_loop_query() {
    let non_boolean = parse_query("Q(x, y) :- E(x,x), E(x,y), E(y,y).").unwrap();
    let v = classify(&non_boolean);
    assert!(v.boolean.is_tractable(), "Boolean closure core is ∃x Exx");
    assert!(
        v.counting.is_hard(),
        "the k-ary query is a non-q-hierarchical core"
    );
    assert_eq!(v.boolean_core.atoms().len(), 1);
    assert_eq!(v.core.atoms().len(), 3);
}

/// The three verdicts are monotone in the expected way across the zoo:
/// Boolean tractability is implied by counting tractability, which is
/// implied by enumeration tractability.
#[test]
fn verdict_monotonicity() {
    let zoo = [
        "Q(x, y) :- S(x), E(x, y), T(y).",
        "Q(x) :- E(x, y), T(y).",
        "Q(x, y) :- E(x, y), T(y).",
        "Q() :- E(x,x), E(x,y), E(y,y).",
        "Q(x, y) :- E(x,x), E(x,y), E(y,y).",
        "Q(x, y, z1, z2) :- E(x,x), E(x,y), E(y,y), E(z1,z2).",
        "Q(x, z) :- R(x, y), S(y, z).",
        "Q(a, b, c) :- R(a, b, c), S(a, b), T(a).",
    ];
    for src in zoo {
        let q = parse_query(src).unwrap();
        let v = classify(&q);
        if v.enumeration.is_tractable() {
            assert!(v.counting.is_tractable(), "{src}");
        }
        if v.counting.is_tractable() {
            assert!(v.boolean.is_tractable(), "{src}");
        }
    }
}

/// Serialised update logs replay identically through the engine.
#[test]
fn update_log_roundtrip_replay() {
    let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
    let er = q.schema().relation("E").unwrap();
    let tr = q.schema().relation("T").unwrap();
    let mut log = UpdateLog::new();
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..400 {
        let t: Vec<Const> = vec![rng.gen_range(1..=8), rng.gen_range(1..=8)];
        log.push(if rng.gen_bool(0.6) {
            Update::Insert(er, t)
        } else {
            Update::Delete(er, t)
        });
        if rng.gen_bool(0.3) {
            log.push(Update::Insert(tr, vec![rng.gen_range(1..=8)]));
        }
    }
    let bytes = log.encode();
    let decoded = UpdateLog::decode(&bytes).unwrap();
    assert_eq!(decoded, log);

    let mut a = QhEngine::new(&q, &Database::new(q.schema().clone())).unwrap();
    let mut b = QhEngine::new(&q, &Database::new(q.schema().clone())).unwrap();
    for u in log.iter() {
        a.apply(u);
    }
    for u in decoded.iter() {
        b.apply(u);
    }
    assert_eq!(a.results_sorted(), b.results_sorted());
    assert_eq!(a.count(), b.count());
}
