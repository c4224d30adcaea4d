//! Deterministic stress tests on extreme query shapes: deep chain q-trees,
//! wide stars, high-arity atoms, and many components — checking counts
//! against closed-form expectations rather than an oracle join.

use cqu_dynamic::{DynamicEngine, QhEngine};
use cqu_query::{parse_query, Query};
use cqu_storage::{Const, Update};

/// `Q(x1,…,xd) :- R1(x1), R2(x1,x2), …, Rd(x1,…,xd)`.
fn chain_query(depth: usize) -> Query {
    let vars: Vec<String> = (1..=depth).map(|i| format!("x{i}")).collect();
    let atoms: Vec<String> = (1..=depth)
        .map(|i| format!("R{i}({})", vars[..i].join(", ")))
        .collect();
    parse_query(&format!("Q({}) :- {}.", vars.join(", "), atoms.join(", "))).unwrap()
}

#[test]
fn deep_chain_counts_products_along_paths() {
    // Perfect b-ary "trie" data: each prefix extends to b constants.
    let depth = 5;
    let b: u64 = 3;
    let q = chain_query(depth);
    let mut e = QhEngine::empty(&q).unwrap();
    // Enumerate all b^i prefixes at level i and insert the Ri facts.
    fn prefixes(b: u64, len: usize) -> Vec<Vec<Const>> {
        if len == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in prefixes(b, len - 1) {
            for c in 1..=b {
                let mut q = p.clone();
                q.push(c);
                out.push(q);
            }
        }
        out
    }
    for i in 1..=depth {
        let rel = q.schema().relation(&format!("R{i}")).unwrap();
        for p in prefixes(b, i) {
            assert!(e.apply(&Update::Insert(rel, p)));
        }
    }
    // Every full path survives: count = b^depth.
    assert_eq!(e.count(), b.pow(depth as u32));
    cqu_dynamic::audit::check_invariants(&e, e.database()).unwrap();
    // Deleting one level-2 fact kills exactly b^(depth-2) results.
    let r2 = q.schema().relation("R2").unwrap();
    assert!(e.apply(&Update::Delete(r2, vec![1, 1])));
    assert_eq!(e.count(), b.pow(depth as u32) - b.pow(depth as u32 - 2));
    cqu_dynamic::audit::check_invariants(&e, e.database()).unwrap();
}

#[test]
fn wide_star_count_is_product_of_fanouts() {
    // Q(x, y1..y6) :- R1(x,y1), …, R6(x,y6): count = Π fanout_i per hub.
    let k = 6;
    let head: Vec<String> = std::iter::once("x".into())
        .chain((1..=k).map(|i| format!("y{i}")))
        .collect();
    let atoms: Vec<String> = (1..=k).map(|i| format!("R{i}(x, y{i})")).collect();
    let q = parse_query(&format!("Q({}) :- {}.", head.join(", "), atoms.join(", "))).unwrap();
    let mut e = QhEngine::empty(&q).unwrap();
    let fanouts: [u64; 6] = [2, 3, 1, 4, 2, 3];
    for (i, &f) in fanouts.iter().enumerate() {
        let rel = q.schema().relation(&format!("R{}", i + 1)).unwrap();
        for y in 1..=f {
            e.apply(&Update::Insert(rel, vec![77, 100 * (i as u64 + 1) + y]));
        }
    }
    let expected: u64 = fanouts.iter().product();
    assert_eq!(e.count(), expected);
    assert_eq!(e.enumerate().count() as u64, expected);
    // Zero one branch: the whole hub vanishes.
    let r3 = q.schema().relation("R3").unwrap();
    e.apply(&Update::Delete(r3, vec![77, 301]));
    assert_eq!(e.count(), 0);
    cqu_dynamic::audit::check_invariants(&e, e.database()).unwrap();
}

/// `Q(x) :- A(x,a), …, F(x,f)` over 2048 facts `(0, i)` per relation: one
/// result, while the root item's weight `C^i` counts 2048⁶ = 2⁶⁶
/// unprojected expansions. The update path never multiplies `C^i`, so
/// this loads; no audit, whose brute force would enumerate them all.
#[test]
fn wide_star_with_one_result_and_weight_past_u64() {
    let q = parse_query("Q(x) :- A(x, a), B(x, b), C(x, c), D(x, d), E(x, e), F(x, f).").unwrap();
    let mut e = QhEngine::empty(&q).unwrap();
    for name in ["A", "B", "C", "D", "E", "F"] {
        let rel = q.schema().relation(name).unwrap();
        for i in 0..2048 {
            assert!(e.apply(&Update::Insert(rel, vec![0, i])));
        }
    }
    assert_eq!(e.count(), 1);
    assert_eq!(e.results_sorted(), vec![vec![0]]);
    assert_eq!(e.components()[0].c_start(), 1 << 66);
    let f = q.schema().relation("F").unwrap();
    for i in 0..2048 {
        assert!(e.apply(&Update::Delete(f, vec![0, i])));
    }
    assert_eq!(e.count(), 0);
    assert_eq!(e.components()[0].c_start(), 0);
}

#[test]
fn many_components_multiply() {
    // Five unary components: count = Π |Ri|.
    let q = parse_query("Q(a, b, c, d, f) :- A(a), B(b), C(c), D(d), F(f).").unwrap();
    let mut e = QhEngine::empty(&q).unwrap();
    let sizes = [2u64, 3, 1, 2, 2];
    for (i, (&s, name)) in sizes.iter().zip(["A", "B", "C", "D", "F"]).enumerate() {
        let rel = q.schema().relation(name).unwrap();
        for v in 1..=s {
            e.apply(&Update::Insert(rel, vec![10 * (i as u64 + 1) + v]));
        }
    }
    let expected: u64 = sizes.iter().product();
    assert_eq!(e.count(), expected);
    let rows: Vec<Vec<Const>> = e.enumerate().collect();
    assert_eq!(rows.len() as usize, expected as usize);
    let mut dedup = rows.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), rows.len());
}

#[test]
fn high_arity_atom_with_heavy_repeats() {
    // R(x, x, y, x, y): only facts with the pattern (a,a,b,a,b) count.
    let q = parse_query("Q(x, y) :- R(x, x, y, x, y).").unwrap();
    let mut e = QhEngine::empty(&q).unwrap();
    let r = q.schema().relation("R").unwrap();
    assert!(e.apply(&Update::Insert(r, vec![1, 1, 2, 1, 2])));
    assert!(e.apply(&Update::Insert(r, vec![1, 2, 2, 1, 2]))); // pattern mismatch
    assert!(e.apply(&Update::Insert(r, vec![3, 3, 3, 3, 3])));
    assert_eq!(e.results_sorted(), vec![vec![1, 2], vec![3, 3]]);
    assert!(e.apply(&Update::Delete(r, vec![1, 1, 2, 1, 2])));
    assert_eq!(e.results_sorted(), vec![vec![3, 3]]);
    cqu_dynamic::audit::check_invariants(&e, e.database()).unwrap();
}

#[test]
fn hundred_thousand_updates_stay_consistent() {
    // Long-run determinism: counts always equal enumeration length at
    // checkpoints, and a final teardown empties the structure.
    let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
    let e_rel = q.schema().relation("E").unwrap();
    let t_rel = q.schema().relation("T").unwrap();
    let mut engine = QhEngine::empty(&q).unwrap();
    let mut live: Vec<Update> = Vec::new();
    let mut state = 0x12345u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for step in 0..100_000u64 {
        let u = if next() % 3 == 0 {
            Update::Insert(t_rel, vec![next() % 64 + 1])
        } else {
            Update::Insert(e_rel, vec![next() % 512 + 1, next() % 64 + 1])
        };
        let u = if next() % 5 == 0 { u.inverse() } else { u };
        if engine.apply(&u) {
            if u.is_insert() {
                live.push(u);
            } else {
                let inv = u.inverse();
                let pos = live.iter().position(|x| *x == inv).unwrap();
                live.swap_remove(pos);
            }
        }
        if step % 20_000 == 0 {
            assert_eq!(engine.count(), engine.enumerate().count() as u64, "@{step}");
        }
    }
    assert_eq!(engine.count(), engine.enumerate().count() as u64);
    for u in live.iter().rev() {
        assert!(engine.apply(&u.inverse()));
    }
    assert_eq!(engine.count(), 0);
    assert_eq!(engine.num_items(), 0);
}
