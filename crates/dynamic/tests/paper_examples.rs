//! Reproduction of the paper's worked examples: Example 6.1 with Figures
//! 2–3 (the data structure and its weights before and after an update) and
//! Table 1 (the enumeration of `ϕ(D₀)`).

use cqu_dynamic::{DynamicEngine, QhEngine};
use cqu_query::parse_query;
use cqu_storage::{Const, Update};

// Constants of Example 6.1 (letters → numbers).
const A: Const = 1;
const B: Const = 2;
const C: Const = 3;
const D: Const = 4;
const E: Const = 5;
const F: Const = 6;
const G: Const = 7;
const H: Const = 8;
const P: Const = 16;

/// Builds the engine for Example 6.1 loaded with `D₀`.
fn example_6_1() -> QhEngine {
    // ϕ(x, y, z, y', z') = (Rxyz ∧ Rxyz' ∧ Exy ∧ Exy' ∧ Sxyz).
    let q = parse_query("Q(x, y, z, y', z') :- R(x,y,z), R(x,y,z'), E(x,y), E(x,y'), S(x,y,z).")
        .unwrap();
    let mut engine = QhEngine::empty(&q).unwrap();
    let er = q.schema().relation("E").unwrap();
    let sr = q.schema().relation("S").unwrap();
    let rr = q.schema().relation("R").unwrap();
    let e_facts = [(A, E), (A, F), (B, D), (B, G), (B, H)];
    let s_facts = [(A, E, A), (A, E, B), (A, F, C), (B, G, B), (B, P, A)];
    let r_extra = [(A, E, C), (B, G, A), (B, G, C), (B, P, B), (B, P, C)];
    for (a, b) in e_facts {
        engine.apply(&Update::Insert(er, vec![a, b]));
    }
    for (a, b, c) in s_facts {
        engine.apply(&Update::Insert(sr, vec![a, b, c]));
        engine.apply(&Update::Insert(rr, vec![a, b, c])); // R ⊇ S
    }
    for (a, b, c) in r_extra {
        engine.apply(&Update::Insert(rr, vec![a, b, c]));
    }
    engine
}

/// The 23 result tuples of Table 1, in the paper's column order
/// `(x, y, z, z', y')`.
fn table_1_rows() -> Vec<[Const; 5]> {
    let mut rows = Vec::new();
    for z in [A, B] {
        for zp in [A, B, C] {
            for yp in [E, F] {
                rows.push([A, E, z, zp, yp]);
            }
        }
    }
    for yp in [E, F] {
        rows.push([A, F, C, C, yp]);
    }
    for zp in [A, B, C] {
        for yp in [D, G, H] {
            rows.push([B, G, B, zp, yp]);
        }
    }
    assert_eq!(rows.len(), 23);
    rows
}

#[test]
fn figure_3a_weights_and_cstart() {
    let engine = example_6_1();
    // Cstart = 23 (Figure 3a); the query is quantifier-free, so this is
    // also |ϕ(D₀)|.
    assert_eq!(engine.count(), 23);
    let comp = &engine.components()[0];
    assert_eq!(comp.c_start(), 23);
    assert_eq!(comp.ct_start(), 23, "quantifier-free ⇒ C̃ = C");

    // Item weights as printed in Figure 3(a).
    let w = |var: &str, key: &[Const]| comp.item_weights(var, key).unwrap().0;
    assert_eq!(w("x", &[A]), 14);
    assert_eq!(w("x", &[B]), 9);
    assert_eq!(w("y", &[A, E]), 6);
    assert_eq!(w("y", &[A, F]), 1);
    assert_eq!(w("y", &[B, G]), 3);
    assert_eq!(w("y", &[B, P]), 0, "unfit item [y, b/x, p] has weight 0");
    assert_eq!(w("y'", &[A, E]), 1);
    assert_eq!(w("y'", &[A, F]), 1);
    assert_eq!(w("y'", &[B, D]), 1);
    assert_eq!(w("y'", &[B, G]), 1);
    assert_eq!(w("y'", &[B, H]), 1);
    // z-items under [y, a/x, e]: both z = a and z = b are fit.
    assert_eq!(w("z", &[A, E, A]), 1);
    assert_eq!(w("z", &[A, E, B]), 1);
    assert_eq!(
        w("z", &[A, E, C]),
        0,
        "R(a,e,c) exists but S(a,e,c) does not"
    );
    // z'-items need only Rxyz'.
    assert_eq!(w("z'", &[A, E, C]), 1);
    // Unfit z-items listed at the end of Example 6.1.
    assert_eq!(w("z", &[B, G, A]), 0);
    assert_eq!(w("z", &[B, G, C]), 0);
    assert_eq!(w("z", &[B, P, B]), 0);
    assert_eq!(w("z", &[B, P, C]), 0);

    // Items absent from the structure are really absent.
    assert!(comp.item_weights("y", &[A, D]).is_none());
    assert!(comp.item_weights("x", &[C]).is_none());

    cqu_dynamic::audit::check_invariants(&engine, engine.database()).unwrap();
}

#[test]
fn figure_3b_after_inserting_e_b_p() {
    let mut engine = example_6_1();
    let er = engine.query().schema().relation("E").unwrap();
    assert!(engine.apply(&Update::Insert(er, vec![B, P])));
    // Figure 3(b): Cstart = 38.
    assert_eq!(engine.count(), 38);
    let comp = &engine.components()[0];
    let w = |var: &str, key: &[Const]| comp.item_weights(var, key).unwrap().0;
    assert_eq!(w("x", &[A]), 14);
    assert_eq!(w("x", &[B]), 24);
    assert_eq!(
        w("y", &[B, P]),
        3,
        "item [y, b/x, p] becomes fit with weight 3"
    );
    assert_eq!(w("y'", &[B, P]), 1);
    cqu_dynamic::audit::check_invariants(&engine, engine.database()).unwrap();

    // Removing the tuple again restores Figure 3(a) exactly.
    assert!(engine.apply(&Update::Delete(er, vec![B, P])));
    assert_eq!(engine.count(), 23);
    let comp = &engine.components()[0];
    assert_eq!(comp.item_weights("y", &[B, P]).unwrap().0, 0);
    assert_eq!(comp.item_weights("x", &[B]).unwrap().0, 9);
    cqu_dynamic::audit::check_invariants(&engine, engine.database()).unwrap();
}

#[test]
fn table_1_enumeration() {
    let engine = example_6_1();
    // Output tuples follow the head order (x, y, z, y', z'); Table 1 prints
    // document order (x, y, z, z', y'). Reorder for comparison.
    let got: Vec<[Const; 5]> = engine
        .enumerate()
        .map(|t| [t[0], t[1], t[2], t[4], t[3]])
        .collect();
    assert_eq!(got.len(), 23, "exactly the 23 rows of Table 1");

    // (1) As a set, the output is exactly Table 1.
    let mut got_sorted = got.clone();
    got_sorted.sort_unstable();
    let mut expected = table_1_rows();
    expected.sort_unstable();
    assert_eq!(got_sorted, expected);

    // (2) No duplicates (Lemma 6.2(c)).
    got_sorted.dedup();
    assert_eq!(got_sorted.len(), 23);

    // (3) Document-order grouping: once a prefix (in document order
    // x, y, z, z', y') is abandoned, it never recurs — the structural
    // property that makes Table 1's separating lines well defined.
    for prefix_len in 1..=5 {
        let mut seen: Vec<Vec<Const>> = Vec::new();
        for row in &got {
            let prefix: Vec<Const> = row[..prefix_len].to_vec();
            if seen.last() != Some(&prefix) {
                assert!(
                    !seen.contains(&prefix),
                    "prefix {prefix:?} recurs after being abandoned"
                );
                seen.push(prefix);
            }
        }
    }
}

#[test]
fn example_6_1_brute_force_cross_check() {
    // Independent evaluation of ϕ(D₀) by nested loops over the relations.
    let engine = example_6_1();
    let db = engine.database();
    let q = engine.query();
    let er = q.schema().relation("E").unwrap();
    let sr = q.schema().relation("S").unwrap();
    let rr = q.schema().relation("R").unwrap();
    let mut expected: Vec<Vec<Const>> = Vec::new();
    for exy in db.relation(er).iter() {
        let (x, y) = (exy[0], exy[1]);
        for s in db.relation(sr).iter() {
            if s[0] != x || s[1] != y {
                continue;
            }
            let z = s[2];
            if !db.relation(rr).contains(&[x, y, z]) {
                continue;
            }
            for r2 in db.relation(rr).iter() {
                if r2[0] != x || r2[1] != y {
                    continue;
                }
                let zp = r2[2];
                for eyp in db.relation(er).iter() {
                    if eyp[0] != x {
                        continue;
                    }
                    expected.push(vec![x, y, z, eyp[1], zp]);
                }
            }
        }
    }
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(engine.results_sorted(), expected);
    assert_eq!(engine.count() as usize, expected.len());
}

#[test]
fn full_teardown_empties_structure() {
    let mut engine = example_6_1();
    let db = engine.database().clone();
    for rel in db.schema().relations() {
        for t in db.relation(rel).sorted() {
            assert!(engine.apply(&Update::Delete(rel, t)));
        }
    }
    assert_eq!(engine.count(), 0);
    assert_eq!(engine.num_items(), 0, "all items garbage-collected");
    assert_eq!(engine.enumerate().count(), 0);
    cqu_dynamic::audit::check_invariants(&engine, engine.database()).unwrap();
}
