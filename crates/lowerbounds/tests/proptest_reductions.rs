//! Property tests for the Section 5 reductions: on random instances, the
//! answers obtained *through* dynamic CQ engines always equal the naive
//! matrix/vector solvers' answers.

use cqu_baseline::EngineKind;
use cqu_dynamic::Standalone;
use cqu_lowerbounds::{
    omv_via_enumeration, oumv_via_boolean_set, oumv_via_core, ov_via_counting, phi_et,
    phi_set_boolean, OmvInstance, OuMvInstance, OvInstance,
};
use cqu_query::hierarchical::q_hierarchical_violation;
use cqu_query::{core_of, parse_query, Query};
use cqu_storage::Database;
use proptest::prelude::*;

/// A stand-alone `kind` engine over the empty database.
fn fresh(kind: EngineKind, q: &Query) -> Box<Standalone> {
    kind.build(q, &Database::new(q.schema().clone())).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn oumv_reduction_correct(n in 2usize..10, density in 0.05f64..0.95, seed in any::<u64>()) {
        let inst = OuMvInstance::random(n, density, seed);
        let naive = inst.solve_naive();
        let q = phi_set_boolean();
        let mut rec = fresh(EngineKind::Recompute, &q);
        prop_assert_eq!(oumv_via_boolean_set(&inst, &mut rec), naive.clone());
        let mut ivm = fresh(EngineKind::DeltaIvm, &q);
        prop_assert_eq!(oumv_via_boolean_set(&inst, &mut ivm), naive);
    }

    #[test]
    fn omv_reduction_correct(n in 2usize..10, density in 0.05f64..0.95, seed in any::<u64>()) {
        let inst = OmvInstance::random(n, density, seed);
        let naive = inst.solve_naive();
        let q = phi_et();
        let mut rec = fresh(EngineKind::Recompute, &q);
        prop_assert_eq!(omv_via_enumeration(&inst, &mut rec), naive.clone());
        let mut ivm = fresh(EngineKind::DeltaIvm, &q);
        prop_assert_eq!(omv_via_enumeration(&inst, &mut ivm), naive);
    }

    #[test]
    fn ov_reduction_correct(n in 2usize..14, density in 0.1f64..0.95, seed in any::<u64>()) {
        let inst = OvInstance::random(n, density, seed);
        let naive = inst.solve_naive();
        let q = phi_et();
        let mut ivm = fresh(EngineKind::DeltaIvm, &q);
        prop_assert_eq!(ov_via_counting(&inst, &mut ivm), naive);
    }

    #[test]
    fn generic_core_encoding_correct(n in 2usize..7, density in 0.1f64..0.9, seed in any::<u64>()) {
        // Run the Section 5.4 generic encoder over several non-hierarchical
        // Boolean cores, including one with self-joins and one with a
        // spectator atom.
        let sources = [
            "Q() :- S(x), E(x, y), T(y).",
            "Q() :- E(x, y), E(y, z), E(z, w).",
            "Q() :- S(x), E(x, y), T(y), U(w).",
            "Q() :- A(x, x, y), B(y, y), C(x).",
        ];
        let inst = OuMvInstance::random(n, density, seed);
        let naive = inst.solve_naive();
        for src in sources {
            let core = core_of(&parse_query(src).unwrap());
            if let Some(violation @ cqu_query::hierarchical::Violation::Incomparable { .. }) =
                q_hierarchical_violation(&core)
            {
                let mut engine = fresh(EngineKind::Recompute, &core);
                prop_assert_eq!(
                    oumv_via_core(&core, &violation, &inst, &mut engine),
                    naive.clone(),
                    "{}",
                    src
                );
            }
        }
    }
}

#[test]
fn hand_crafted_edge_instances() {
    // All-zero matrix: every answer is false regardless of the vectors.
    let n = 6;
    let mut inst = OuMvInstance::random(n, 0.9, 1);
    inst.matrix = cqu_common::BitMatrix::zeros(n);
    let q = phi_set_boolean();
    let mut e = fresh(EngineKind::Recompute, &q);
    assert!(oumv_via_boolean_set(&inst, &mut e).iter().all(|&b| !b));

    // All-ones matrix: answer is true iff both vectors are nonzero.
    let mut inst = OuMvInstance::random(n, 0.4, 2);
    inst.matrix = cqu_common::BitMatrix::from_fn(n, |_, _| true);
    let mut e = fresh(EngineKind::Recompute, &q);
    let got = oumv_via_boolean_set(&inst, &mut e);
    for (i, (u, v)) in inst.pairs.iter().enumerate() {
        assert_eq!(got[i], u.count_ones() > 0 && v.count_ones() > 0);
    }
}
