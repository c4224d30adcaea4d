//! The paper's tables and figures (T1, F1, F3), the dichotomy table, and
//! the experiments E1–E10, E13, E15 and E16.
//!
//! Every function prints a human-readable table as it runs and returns
//! the same numbers as a [`JsonReport`], which the `experiments` binary
//! writes to `BENCH_<ID>.json`. Sizes are arguments, so the unit tests
//! run every experiment small; the binary holds the sizes of a full run
//! (a few minutes in release mode). E11, E12 and E14 are not here: their
//! claims are rows of `cqbench` (the README's benchmark table names them).

use crate::measure::{
    time_counts, time_delays, time_ns, time_once, time_rounds, time_updates, JsonReport, Stats,
};
use crate::workloads::{
    easy_set_sibling, example_query, path_query, session_churn, star_churn, star_database,
    star_query, star_query_k,
};
use cq_updates::prelude::*;
use cq_updates::serve::{Client, LagPolicy};
use cq_updates::serving::server::FeedSource;
use cq_updates::serving::ServeConfig;
use cqu_baseline::DeltaIvmView;
use cqu_dynamic::selfjoin::Phi2Engine;
use cqu_dynamic::Standalone;
use cqu_lowerbounds::{
    omv_via_enumeration, oumv_via_boolean_set, ov_via_counting, phi_et, phi_set_boolean,
    phi_set_join, OmvInstance, OuMvInstance, OvInstance,
};
use cqu_query::hypergraph::connected_components;
use cqu_query::qtree::QTree;
use cqu_query::{classify, RelId};
use cqu_testutil::{Lcg, SimDisk};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Builds a stand-alone engine for `q`, preloaded with `db0`.
type Build = fn(&Query, &Database) -> Box<Standalone>;

/// The paper's engine ([`Build`]); the query must be q-hierarchical.
fn qh_dynamic(q: &Query, db0: &Database) -> Box<Standalone> {
    Box::new(QhEngine::new(q, db0).expect("the query is q-hierarchical"))
}

/// Delta-IVM, the session's fallback ([`Build`]).
fn delta_ivm(q: &Query, db0: &Database) -> Box<Standalone> {
    Box::new(Standalone::over(DeltaIvmView::empty(q), db0))
}

/// The recompute oracle ([`Build`]).
fn recompute(q: &Query, db0: &Database) -> Box<Standalone> {
    Box::new(Standalone::over(RecomputeEngine::empty(q), db0))
}

/// The semi-join oracle ([`Build`]).
fn semijoin(q: &Query, db0: &Database) -> Box<Standalone> {
    Box::new(Standalone::over(SemiJoinEngine::empty(q), db0))
}

/// A `build` engine for `q` over the empty database.
fn fresh(build: Build, q: &Query) -> Box<Standalone> {
    build(q, &Database::new(q.schema().clone()))
}

/// The engine of Example 6.1 loaded with the database `D₀` of Table 1
/// (constants `a..h` are 1..8, `p` is 16).
fn example_d0() -> (Query, QhEngine) {
    let q = example_query();
    let mut engine = QhEngine::empty(&q).unwrap();
    let (a, b, c, d, e, f, g, h, p) = (1, 2, 3, 4, 5, 6, 7, 8, 16);
    let rel = |name: &str| q.schema().relation(name).unwrap();
    let (er, sr, rr) = (rel("E"), rel("S"), rel("R"));
    for (x, y) in [(a, e), (a, f), (b, d), (b, g), (b, h)] {
        engine.apply(&Update::Insert(er, vec![x, y]));
    }
    for (x, y, z) in [(a, e, a), (a, e, b), (a, f, c), (b, g, b), (b, p, a)] {
        engine.apply(&Update::Insert(sr, vec![x, y, z]));
        engine.apply(&Update::Insert(rr, vec![x, y, z]));
    }
    for (x, y, z) in [(a, e, c), (b, g, a), (b, g, c), (b, p, b), (b, p, c)] {
        engine.apply(&Update::Insert(rr, vec![x, y, z]));
    }
    (q, engine)
}

/// T1 — Table 1: the enumeration of `ϕ(D₀)` for Example 6.1.
pub fn table1() -> JsonReport {
    header("T1 / Table 1: enumeration of ϕ(D₀), Example 6.1");
    let (_, engine) = example_d0();
    let name = |c: Const| match c {
        16 => "p".to_string(),
        1..=8 => ((b'a' + c as u8 - 1) as char).to_string(),
        _ => c.to_string(),
    };
    println!("|ϕ(D₀)| = {} (paper: 23)", engine.count());
    println!("rows in enumeration order, columns x y z z' y' as in Table 1:");
    let rows: Vec<Vec<Const>> = engine.enumerate().collect();
    for chunk in rows.chunks(12) {
        // Output tuple order is head order (x, y, z, y', z'); Table 1
        // prints (x, y, z, z', y').
        for (label, col) in ["x ", "y ", "z ", "z'", "y'"].iter().zip([0, 1, 2, 4, 3]) {
            let row: Vec<String> = chunk.iter().map(|t| name(t[col])).collect();
            println!("  {label} {}", row.join(" "));
        }
        println!();
    }
    let mut report = JsonReport::new("T1");
    report
        .add_fact("count", engine.count() as f64)
        .add_fact("enumerated", rows.len() as f64);
    report
}

/// F1 — Figure 1: two valid q-trees for the same query.
pub fn figure1() -> JsonReport {
    header("F1 / Figure 1: two q-trees for ϕ(x1,x2,x3) = ∃x4∃x5(Ex1x2 ∧ Rx4x1x2x1 ∧ Rx5x3x2x1)");
    let q = parse_query("Q(x1, x2, x3) :- E(x1,x2), R(x4,x1,x2,x1), R(x5,x3,x2,x1).").unwrap();
    let comp = connected_components(&q)[0].clone();
    let v = |n: &str| q.vars().find(|&v| q.var_name(v) == n).unwrap();
    let tree = |root: &str, edges: [(&str, &str); 4]| {
        let edges: Vec<_> = edges.iter().map(|(c, p)| (v(c), v(p))).collect();
        QTree::from_edges(&q, &comp, v(root), &edges).unwrap()
    };
    let left = tree(
        "x1",
        [("x2", "x1"), ("x3", "x2"), ("x4", "x2"), ("x5", "x3")],
    );
    let right = tree(
        "x2",
        [("x1", "x2"), ("x3", "x1"), ("x4", "x1"), ("x5", "x3")],
    );
    println!("left tree (root x1):\n{}", left.render(&q));
    println!("right tree (root x2):\n{}", right.render(&q));
    let valid = [left.is_valid_for(&q, &comp), right.is_valid_for(&q, &comp)];
    println!("both validate Definition 4.1: {} / {}", valid[0], valid[1]);
    let mut report = JsonReport::new("F1");
    report
        .add_fact("left_valid", valid[0] as u8 as f64)
        .add_fact("right_valid", valid[1] as u8 as f64);
    report
}

/// F2/F3 — Figure 3: data-structure weights before/after `insert E(b,p)`.
pub fn figure3() -> JsonReport {
    header("F2-F3 / Figures 2-3: item weights of Example 6.1");
    let (q, mut engine) = example_d0();
    let (a, b, d, e, f, g, h, p) = (1u64, 2, 4, 5, 6, 7, 8, 16);
    let mut report = JsonReport::new("F3");
    let mut dump = |engine: &QhEngine, stage: &str| {
        let comp = &engine.components()[0];
        println!("  Cstart = {}", comp.c_start());
        report.add_fact(&format!("{stage}/Cstart"), comp.c_start() as f64);
        for (var, keys) in [
            ("x", vec![vec![a], vec![b]]),
            ("y", vec![vec![a, e], vec![a, f], vec![b, g], vec![b, p]]),
            (
                "y'",
                vec![
                    vec![a, e],
                    vec![a, f],
                    vec![b, d],
                    vec![b, g],
                    vec![b, h],
                    vec![b, p],
                ],
            ),
        ] {
            for key in keys {
                if let Some((weight, _)) = comp.item_weights(var, &key) {
                    println!("    C[{var}, {key:?}] = {weight}");
                    report.add_fact(&format!("{stage}/C[{var},{key:?}]"), weight as f64);
                }
            }
        }
    };
    println!("Figure 3(a) — D₀ (paper: Cstart = 23, C[x,a]=14, C[x,b]=9):");
    dump(&engine, "d0");
    engine.apply(&Update::Insert(
        q.schema().relation("E").unwrap(),
        vec![b, p],
    ));
    println!("Figure 3(b) — after insert E(b,p) (paper: Cstart = 38, C[x,b]=24):");
    dump(&engine, "after");
    cqu_dynamic::audit::check_invariants(&engine, engine.database()).unwrap();
    println!("  audit: all maintained registers match from-scratch recomputation ✓");
    report.add_fact("audit_ok", 1.0);
    report
}

/// Times `updates` and then the enumeration delay on `engine`, prints
/// the row and records both series under `{label}/n={n}`. "first-out"
/// is the time until the first tuple (it includes any recompute); the
/// delay p50 is the steady-state per-tuple latency.
fn update_and_delay_row(
    report: &mut JsonReport,
    n: usize,
    label: &str,
    engine: &mut Standalone,
    updates: &[Update],
    delay_limit: usize,
) {
    let upd = time_updates(engine, updates);
    let delay = time_delays(&**engine, delay_limit);
    let (first, steady) = delay.map_or((0, 0), |s| (s.max_ns, s.p50_ns));
    println!(
        "{n:>8}  {label:<12}  {:>12.2}  {:>12.2}  {:>14.2}  {:>14.2}",
        upd.mean_us(),
        us(upd.p95_ns),
        us(steady),
        us(first)
    );
    report.add(&format!("{label}/n={n}/update"), &upd);
    if let Some(delay) = delay {
        report.add(&format!("{label}/n={n}/delay"), &delay);
    }
}

fn update_and_delay_header() {
    println!(
        "{:>8}  {:<12}  {:>12}  {:>12}  {:>14}  {:>14}",
        "n", "engine", "upd mean µs", "upd p95 µs", "delay p50 µs", "first-out µs"
    );
}

const UPPER_BOUND_ENGINES: [(&str, Build); 3] = [
    ("qh-dynamic", qh_dynamic),
    ("delta-ivm", delta_ivm),
    ("recompute", recompute),
];

/// E1 — Theorem 3.2(a)/1.1 upper bound: update time and enumeration delay
/// stay flat in `n` for the dynamic engine on a q-hierarchical query,
/// while the baselines grow.
pub fn e1_enumeration(ns: &[usize], churn_steps: usize, delay_limit: usize) -> JsonReport {
    header("E1 / Thm 3.2(a): q-hierarchical enumeration under updates (star query)");
    update_and_delay_header();
    let mut report = JsonReport::new("E1");
    let q = star_query();
    for &n in ns {
        let db0 = star_database(n, 42);
        let updates = star_churn(n, churn_steps, 7);
        for (name, build) in UPPER_BOUND_ENGINES {
            let mut engine = build(&q, &db0);
            update_and_delay_row(&mut report, n, name, engine.as_mut(), &updates, delay_limit);
        }
    }
    println!(
        "expected shape: qh-dynamic flat in n on every column; delta-ivm update cost grows \
         with result churn; recompute pays Θ(‖D‖) before the first tuple."
    );
    report
}

/// E2 — Theorem 3.2(b)/1.3 upper bound: O(1) counting under updates,
/// including a query with quantified variables (the C̃ machinery).
pub fn e2_counting(ns: &[usize], churn_steps: usize) -> JsonReport {
    header("E2 / Thm 3.2(b): O(1) counting under updates (quantified star query)");
    let q = parse_query("Q(x) :- R(x, y), S(x, z), T(x).").unwrap();
    println!(
        "{:>8}  {:<10}  {:>12}  {:>12}  {:>12}",
        "n", "engine", "upd mean µs", "cnt mean µs", "cnt p95 µs"
    );
    let mut report = JsonReport::new("E2");
    for &n in ns {
        let db0 = star_database(n, 43);
        let updates = star_churn(n, churn_steps, 11);
        for (name, build) in UPPER_BOUND_ENGINES {
            let mut engine = build(&q, &db0);
            let (upd, cnt) = time_counts(engine.as_mut(), &updates);
            println!(
                "{n:>8}  {name:<10}  {:>12.2}  {:>12.2}  {:>12.2}",
                upd.mean_us(),
                cnt.mean_us(),
                us(cnt.p95_ns)
            );
            report
                .add(&format!("{name}/n={n}/update"), &upd)
                .add(&format!("{name}/n={n}/count"), &cnt);
        }
    }
    println!(
        "expected shape: qh-dynamic count is O(1) (a register read); recompute count grows \
         with ‖D‖; delta-ivm count is O(1) but its updates pay the delta joins."
    );
    report
}

/// Replaces the content of the unary relation `rel`, which holds `prev`,
/// by `next`.
fn sync(engine: &mut Standalone, rel: RelId, prev: &mut Vec<Const>, next: Vec<Const>) {
    for x in prev.drain(..) {
        engine.apply(&Update::Delete(rel, vec![x]));
    }
    for &x in &next {
        engine.apply(&Update::Insert(rel, vec![x]));
    }
    *prev = next;
}

/// E3 — Theorem 3.3/1.1 lower bound: every available engine pays
/// polynomially-growing per-round cost on the hard query `ϕ_S-E-T`, while
/// its q-hierarchical sibling stays flat under the same update pressure.
/// (That `QhEngine` rejects `ϕ_S-E-T` is `cqu-dynamic`'s
/// `rejects_non_q_hierarchical` test.)
pub fn e3_hard_enumeration(ns: &[usize], rounds: usize) -> JsonReport {
    header("E3 / Thm 3.3: non-q-hierarchical enumeration under updates (ϕ_S-E-T)");
    let hard = phi_set_join();
    let easy = easy_set_sibling();
    println!(
        "{:>8}  {:<24}  {:>16}  {:>14}",
        "n", "engine/query", "round mean ms", "round max ms"
    );
    let mut report = JsonReport::new("E3");
    for &n in ns {
        let inst = OuMvInstance::random(n, 0.02, 3);
        // Shared protocol: per round, sync S and T to uᵗ/vᵗ and enumerate
        // the full (≤ n·n but typically small) result.
        let mut run = |engine: &mut Standalone, name: &str| {
            let schema = engine.query().schema().clone();
            let s = schema.relation("S").unwrap();
            let e = schema.relation("E").unwrap();
            let t = schema.relation("T");
            for i in 0..n {
                for j in (0..n).filter(|&j| inst.matrix.get(i, j)) {
                    engine.apply(&Update::Insert(
                        e,
                        vec![(i + 1) as Const, (n + j + 1) as Const],
                    ));
                }
            }
            let (mut prev_s, mut prev_t) = (Vec::new(), Vec::new());
            let mut pairs = inst.pairs.iter().take(rounds);
            let stats = time_rounds(rounds.min(inst.pairs.len()), || {
                let (u, v) = pairs.next().expect("one pair per round");
                let ones = u.iter_ones().map(|i| (i + 1) as Const).collect();
                sync(engine, s, &mut prev_s, ones);
                if let Some(t) = t {
                    let ones = v.iter_ones().map(|j| (n + j + 1) as Const).collect();
                    sync(engine, t, &mut prev_t, ones);
                }
                engine.enumerate().count()
            });
            println!(
                "{n:>8}  {name:<24}  {:>16.3}  {:>14.3}",
                stats.mean_ns / 1e6,
                stats.max_ns as f64 / 1e6
            );
            report.add(&format!("{name}/n={n}/round"), &stats);
        };
        run(&mut fresh(recompute, &hard), "recompute/ϕ_S-E-T");
        run(&mut fresh(delta_ivm, &hard), "delta-ivm/ϕ_S-E-T");
        run(&mut fresh(semijoin, &hard), "semijoin/ϕ_S-E-T");
        run(
            &mut QhEngine::empty(&easy).unwrap(),
            "qh-dynamic/easy-sibling",
        );
    }
    println!(
        "expected shape: all engines on ϕ_S-E-T grow superlinearly in n per round (the OMv \
         barrier); the q-hierarchical sibling under identical update pressure stays near-flat."
    );
    report
}

/// Times one solver, checks its answer against the naive solver's
/// (`expect`, absent for the naive solver itself), prints the row after
/// the `cols` prefix and records the total under `{key}/{label}_ms`.
fn solver_row<A: PartialEq>(
    report: &mut JsonReport,
    key: &str,
    cols: &str,
    label: &str,
    expect: Option<&A>,
    solve: impl FnOnce() -> A,
) -> A {
    let (answer, secs) = time_once(solve);
    assert!(
        expect.is_none_or(|e| *e == answer),
        "{key}: {label} disagrees with the naive solver"
    );
    println!("{cols}  {label:<12}  {:>12.2}", secs * 1e3);
    report.add_fact(&format!("{key}/{label}_ms"), secs * 1e3);
    answer
}

/// E4 — Theorem 3.4: OuMv solved through Boolean `ϕ'_S-E-T` engines
/// (Lemma 5.3) and OMv through enumeration of `ϕ_E-T` (Lemma 5.4), each
/// checked against the naive matrix solver.
pub fn e4_omv(ns: &[usize]) -> JsonReport {
    header(
        "E4 / Thm 3.4: OuMv through Boolean ϕ'_S-E-T (Lemma 5.3), OMv through ϕ_E-T (Lemma 5.4)",
    );
    println!(
        "{:>6}  {:>5}  {:<12}  {:>12}",
        "n", "task", "solver", "total ms"
    );
    let mut report = JsonReport::new("E4");
    let (q_oumv, q_omv) = (phi_set_boolean(), phi_et());
    for &n in ns {
        let cols = format!("{n:>6}   OuMv");
        let key = format!("oumv/n={n}");
        let inst = OuMvInstance::random(n, 0.08, 17);
        let naive = solver_row(&mut report, &key, &cols, "naive-matrix", None, || {
            inst.solve_naive()
        });
        solver_row(&mut report, &key, &cols, "recompute", Some(&naive), || {
            oumv_via_boolean_set(&inst, &mut fresh(recompute, &q_oumv))
        });
        solver_row(&mut report, &key, &cols, "delta-ivm", Some(&naive), || {
            oumv_via_boolean_set(&inst, &mut fresh(delta_ivm, &q_oumv))
        });
        let cols = format!("{n:>6}    OMv");
        let key = format!("omv/n={n}");
        let inst = OmvInstance::random(n, 0.08, 23);
        let naive = solver_row(&mut report, &key, &cols, "naive-matrix", None, || {
            inst.solve_naive()
        });
        solver_row(&mut report, &key, &cols, "delta-ivm", Some(&naive), || {
            omv_via_enumeration(&inst, &mut fresh(delta_ivm, &q_omv))
        });
        solver_row(&mut report, &key, &cols, "recompute", Some(&naive), || {
            omv_via_enumeration(&inst, &mut fresh(recompute, &q_omv))
        });
    }
    println!(
        "expected shape: solving OuMv through any CQ engine costs Ω(n³⁻ᵒ⁽¹⁾) total under the \
         OMv conjecture — the measured totals grow superquadratically in n."
    );
    report
}

/// E5 — Theorem 3.5 / Lemma 5.5: OV through counting `ϕ_E-T`.
pub fn e5_ov_counting(ns: &[usize]) -> JsonReport {
    header("E5 / Thm 3.5: OV through counting ϕ_E-T (Lemma 5.5)");
    println!(
        "{:>6}  {:>3}  {:<12}  {:>12}",
        "n", "d", "solver", "total ms"
    );
    let mut report = JsonReport::new("E5");
    let q = phi_et();
    for &n in ns {
        // Sparse: an orthogonal pair ends the run early. Dense: none
        // exists, so every round runs (the worst case).
        for (density, seed) in [(0.30, 5u64), (0.92, 6u64)] {
            let inst = OvInstance::random(n, density, seed);
            let cols = format!("{n:>6}  {:>3}", inst.d());
            let key = format!("n={n}/density={density}");
            let naive = solver_row(&mut report, &key, &cols, "naive-pairs", None, || {
                inst.solve_naive()
            });
            report.add_fact(&format!("{key}/orthogonal_pair"), naive as u8 as f64);
            solver_row(&mut report, &key, &cols, "delta-ivm", Some(&naive), || {
                ov_via_counting(&inst, &mut fresh(delta_ivm, &q))
            });
            solver_row(&mut report, &key, &cols, "recompute", Some(&naive), || {
                ov_via_counting(&inst, &mut fresh(recompute, &q))
            });
        }
    }
    println!(
        "expected shape: counting through a dynamic CQ engine solves OV; under the OV \
         conjecture no engine can make every round O(n^(1-ε))."
    );
    report
}

/// E6 — Theorem 3.2 preprocessing: construction time is linear in `‖D₀‖`.
pub fn e6_preprocessing(ns: &[usize]) -> JsonReport {
    header("E6 / Thm 3.2: linear-time preprocessing");
    println!(
        "{:>8}  {:>10}  {:>12}  {:>14}  {:>10}",
        "n", "‖D₀‖", "items", "preproc ms", "ns/size"
    );
    let mut report = JsonReport::new("E6");
    let q = star_query();
    for &n in ns {
        let db0 = star_database(n, 44);
        let size = db0.size();
        let (engine, t) = time_once(|| QhEngine::new(&q, &db0).unwrap());
        println!(
            "{n:>8}  {size:>10}  {:>12}  {:>14.2}  {:>10.1}",
            engine.num_items(),
            t * 1e3,
            t * 1e9 / size as f64
        );
        report
            .add_fact(&format!("n={n}/size"), size as f64)
            .add_fact(&format!("n={n}/items"), engine.num_items() as f64)
            .add_fact(&format!("n={n}/preprocess_ms"), t * 1e3)
            .add_fact(&format!("n={n}/ns_per_size"), t * 1e9 / size as f64);
    }
    println!(
        "expected shape: ns/size roughly constant across the sweep (linear preprocessing); \
         items linear in |D₀|."
    );
    report
}

/// E7 — Section 7 / Appendix A: self-joins. `ϕ₂` enumerated by the
/// amortised engine with flat update cost and delay, vs recompute.
pub fn e7_selfjoins(ns: &[usize], churn_steps: usize, delay_limit: usize) -> JsonReport {
    header("E7 / Appendix A: self-join product query ϕ₂ = (Exx ∧ Exy ∧ Eyy ∧ Ez1z2), n = |E|");
    update_and_delay_header();
    let mut report = JsonReport::new("E7");
    let q2 = parse_query("Q(x, y, z1, z2) :- E(x,x), E(x,y), E(y,y), E(z1,z2).").unwrap();
    assert!(QhEngine::empty(&q2).is_err(), "ϕ₂ is not q-hierarchical");
    let er = q2.schema().relation("E").unwrap();
    for &n in ns {
        // Loop-heavy edge sampling: ~30% of edges are loops so ϕ₂'s
        // Exx/Eyy atoms fire.
        let mut rng = Lcg::new(9);
        let half = (n / 2).max(2);
        let edge = |rng: &mut Lcg| {
            let a = 1 + rng.below(half) as Const;
            let loops = rng.chance(300, 1000);
            vec![
                a,
                if loops {
                    a
                } else {
                    1 + rng.below(half) as Const
                },
            ]
        };
        let initial: Vec<Update> = (0..n).map(|_| Update::Insert(er, edge(&mut rng))).collect();
        let churn: Vec<Update> = (0..churn_steps)
            .map(|_| {
                let t = edge(&mut rng);
                if rng.chance(500, 1000) {
                    Update::Insert(er, t)
                } else {
                    Update::Delete(er, t)
                }
            })
            .collect();
        let mut contenders: Vec<(&str, Box<Standalone>)> = vec![(
            "phi2-amort",
            Box::new(Standalone::from_empty(Phi2Engine::new())),
        )];
        // The recompute baseline materialises |ϕ₁(D)|·|E| tuples per
        // request, a quadratic blow-up; it runs only where that fits in
        // memory (the shape is already unmistakable there).
        if n <= 4_000 {
            contenders.push(("recompute", fresh(recompute, &q2)));
        } else {
            println!("{n:>8}  recompute     (skipped: materialises |ϕ1|·|E| tuples)");
        }
        for (label, mut engine) in contenders {
            for u in &initial {
                engine.apply(u);
            }
            update_and_delay_row(&mut report, n, label, engine.as_mut(), &churn, delay_limit);
        }
    }
    println!(
        "expected shape: the amortised Appendix-A engine has O(1) updates and flat delay; \
         recompute pays the full join before the first tuple."
    );
    report
}

/// E8 — ablation of Theorem 3.2's `poly(ϕ)` factors: update time against
/// q-tree depth (path queries), and the time to enumerate the first
/// 1000 tuples against output arity (star queries). Both grow with the
/// query, not the database.
pub fn e8_ablation(sizes: &[usize], tuples: usize, steps: usize) -> JsonReport {
    header("E8 / Thm 3.2: the poly(ϕ) factors (update vs q-tree depth, 1000 tuples vs arity)");
    println!(
        "{:>8}  {:>6}  {:>14}  {:>14}",
        "axis", "size", "p50 µs", "p95 µs"
    );
    let mut report = JsonReport::new("E8");
    let mut row = |axis: &str, size: usize, stats: Stats| {
        println!(
            "{axis:>8}  {size:>6}  {:>14.3}  {:>14.3}",
            us(stats.p50_ns),
            us(stats.p95_ns)
        );
        report.add(&format!("{axis}={size}"), &stats);
    };
    for &depth in sizes {
        let q = path_query(depth);
        let mut engine = QhEngine::empty(&q).unwrap();
        let rel = |i: usize| q.schema().relation(&format!("R{i}")).unwrap();
        let mut rng = Lcg::new(13);
        for _ in 0..tuples {
            let consts: Vec<Const> = (0..depth).map(|_| 1 + rng.below(50) as Const).collect();
            for i in 1..=depth {
                engine.apply(&Update::Insert(rel(i), consts[..i].to_vec()));
            }
        }
        // Toggle one fresh root-to-leaf tuple of the deepest relation.
        let tuple: Vec<Const> = (0..depth as u64).map(|i| 900 + i).collect();
        let insert = Update::Insert(rel(depth), tuple);
        let toggles: Vec<Update> = [insert.clone(), insert.inverse()]
            .into_iter()
            .cycle()
            .take(steps)
            .collect();
        row("depth", depth, time_updates(&mut engine, &toggles));
    }
    for &k in sizes {
        let q = star_query_k(k);
        let mut engine = QhEngine::empty(&q).unwrap();
        let mut rng = Lcg::new(14);
        for _ in 0..tuples {
            let x = 1 + rng.below(40) as Const;
            for i in 1..=k {
                let rel = q.schema().relation(&format!("R{i}")).unwrap();
                engine.apply(&Update::Insert(rel, vec![x, 100 + rng.below(101) as Const]));
            }
        }
        // Per-tuple timing would mostly read the clock; time batches.
        let first_1000 = time_rounds(steps, || engine.enumerate().take(1_000).count());
        row("arity", k, first_1000);
    }
    println!("expected shape: both columns grow with the query size, at a fixed database.");
    report
}

/// The dichotomy classifier (Theorems 1.1–1.3) on the paper's query
/// catalogue. Each verdict is recorded as 1 (constant time), −1
/// (conditionally hard) or 0 (open).
pub fn classify_catalogue() -> JsonReport {
    header("Theorems 1.1-1.3: dichotomy classification of the paper's queries");
    let catalogue: &[(&str, &str)] = &[
        ("ϕ_S-E-T (Eq. 2)", "Q(x, y) :- S(x), E(x, y), T(y)."),
        ("ϕ'_S-E-T (Eq. 3)", "Q() :- S(x), E(x, y), T(y)."),
        ("ϕ_E-T (Eq. 4)", "Q(x) :- E(x, y), T(y)."),
        ("∃x ϕ_E-T", "Q() :- E(x, y), T(y)."),
        ("join(E,T)", "Q(x, y) :- E(x, y), T(y)."),
        ("loops ∃ (§3)", "Q() :- E(x,x), E(x,y), E(y,y)."),
        ("ϕ1 (§7)", "Q(x, y) :- E(x,x), E(x,y), E(y,y)."),
        (
            "ϕ2 (§7)",
            "Q(x, y, z1, z2) :- E(x,x), E(x,y), E(y,y), E(z1,z2).",
        ),
        (
            "Example 6.1",
            "Q(x, y, z, y', z') :- R(x,y,z), R(x,y,z'), E(x,y), E(x,y'), S(x,y,z).",
        ),
        (
            "Figure 1",
            "Q(x1, x2, x3) :- E(x1,x2), R(x4,x1,x2,x1), R(x5,x3,x2,x1).",
        ),
        (
            "hier. DS (§3)",
            "Q() :- R(x,y,z), R(x,y,z'), E(x,y), E(x,y').",
        ),
    ];
    println!(
        "{:<18}  {:<12}  {:<12}  {:<12}",
        "query", "enumerate", "count", "boolean"
    );
    let mut report = JsonReport::new("CLASSIFY");
    for (label, src) in catalogue {
        let c = classify::classify(&parse_query(src).unwrap());
        let tasks = [
            ("enumerate", &c.enumeration),
            ("count", &c.counting),
            ("boolean", &c.boolean),
        ];
        let shown = tasks.map(|(task, verdict)| {
            let (text, score) = if verdict.is_tractable() {
                ("O(1)", 1.0)
            } else if verdict.is_hard() {
                ("hard", -1.0)
            } else {
                ("open", 0.0)
            };
            report.add_fact(&format!("{label}/{task}"), score);
            text
        });
        println!(
            "{label:<18}  {:<12}  {:<12}  {:<12}",
            shown[0], shown[1], shown[2]
        );
    }
    println!(
        "paper: ϕ_S-E-T hard everywhere; ϕ_E-T hard except Boolean; ϕ1/ϕ2 counting hard, \
         Boolean easy, enumeration open in general (ϕ1 hard / ϕ2 easy by Appendix A); \
         Example 6.1 and Figure 1 tractable everywhere."
    );
    report
}

/// E9 — batched against sequential updates on the E1 workload. Both
/// engine families net a batch under set semantics before doing real
/// work, so `apply_batch` tracks the *net* change: no worse than N×
/// `apply` on always-effective churn, and insert/delete-cancelling churn
/// collapses to hash probes. Two engines of each kind walk the same
/// windows, one update at a time and one batch at a time.
pub fn e9_batch(n: usize, batches: &[usize], windows: usize) -> JsonReport {
    header("E9: apply_batch against N× apply (star query, churn stream)");
    println!(
        "{:<10}  {:>16}  {:>16}  {:>16}  {:>8}",
        "engine", "window", "N× apply p50 µs", "apply_batch p50 µs", "ratio"
    );
    let mut report = JsonReport::new("E9");
    let q = star_query();
    let db0 = star_database(n, 42);
    for kind in [EngineKind::QHierarchical, EngineKind::DeltaIvm] {
        let mut compare = |label: String, stream: &[Update], batch: usize| {
            let mut one_by_one = kind.build(&q, &db0).unwrap();
            let mut batched = kind.build(&q, &db0).unwrap();
            // Interleaved, so both arms see the same cache and clock state.
            let (mut seq, mut bat) = (Vec::new(), Vec::new());
            for window in stream.chunks(batch).cycle().take(windows) {
                seq.push(time_ns(|| {
                    window.iter().filter(|u| one_by_one.apply(u)).count()
                }));
                bat.push(time_ns(|| batched.apply_batch(window).applied));
            }
            let (seq, bat) = (Stats::from_samples(seq), Stats::from_samples(bat));
            let ratio = bat.p50_ns as f64 / seq.p50_ns as f64;
            println!(
                "{:<10}  {label:>16}  {:>16.1}  {:>16.1}  {ratio:>8.2}",
                kind.name(),
                us(seq.p50_ns),
                us(bat.p50_ns)
            );
            let key = format!("{}/{label}", kind.name());
            report
                .add(&format!("{key}/sequential"), &seq)
                .add(&format!("{key}/apply_batch"), &bat)
                .add_fact(&format!("{key}/batch_over_sequential"), ratio);
        };
        for &batch in batches {
            let stream = star_churn(n, batch * windows, 7);
            compare(format!("churn/{batch}"), &stream, batch);
        }
        // Worst case for sequential, best case for netting: every
        // tuple is inserted and deleted again inside the window.
        let cancelling: Vec<Update> = star_churn(n, 512, 7)
            .iter()
            .flat_map(|u| {
                let insert = Update::Insert(u.relation(), u.tuple().to_vec());
                [insert.clone(), insert.inverse()]
            })
            .collect();
        compare("cancelling/1024".to_string(), &cancelling, cancelling.len());
    }
    println!(
        "expected shape: ratio at or below 1 on churn (every update there is effective, so netting \
         finds nothing to cancel), far below 1 on cancelling."
    );
    report
}

/// E10 — a subscription costs `O(δ)` per update, whatever `|ϕ(D)|` is.
/// Each step toggles one joining edge of `Q(x, y) :- E(x, y), T(y)`
/// (`δ = 1`) over `n` result tuples, without and with a change feed
/// attached. A session (q-hierarchical engine, native deltas from the
/// update walk) stays flat across `sizes`; the stand-alone recompute
/// oracle, whose tracked apply diffs the full result, grows linearly over
/// `diff_sizes`.
pub fn e10_subscriptions(sizes: &[usize], diff_sizes: &[usize], toggles: usize) -> JsonReport {
    header("E10: subscribed update cost against |ϕ(D)| (δ = 1 per update)");
    println!(
        "{:<16}  {:>9}  {:>20}  {:>20}",
        "engine", "|ϕ(D)|", "unsubscribed p50 µs", "subscribed p50 µs"
    );
    let mut report = JsonReport::new("E10");
    let q = parse_query("Q(x, y) :- E(x, y), T(y).").unwrap();
    let (e, t) = (
        q.schema().relation("E").unwrap(),
        q.schema().relation("T").unwrap(),
    );
    // `T(1)` and `n` edges into it; then one insert + delete of a joining
    // edge per round.
    let seed = |n: usize| {
        let edges = (2..=(n as Const) + 1).map(|i| Update::Insert(e, vec![i, 1]));
        std::iter::once(Update::Insert(t, vec![1])).chain(edges)
    };
    let toggle = |n: usize| {
        let insert = Update::Insert(e, vec![(n as Const) + 10, 1]);
        let delete = insert.inverse();
        [insert, delete]
    };
    let mut row = |label: &str, n: usize, bare: Stats, subscribed: Stats| {
        println!(
            "{label:<16}  {n:>9}  {:>20.2}  {:>20.2}",
            us(bare.p50_ns),
            us(subscribed.p50_ns)
        );
        report
            .add(&format!("{label}/n={n}/unsubscribed"), &bare)
            .add(&format!("{label}/n={n}/subscribed"), &subscribed);
        subscribed.p50_ns
    };
    let mut native = Vec::new();
    for &n in sizes {
        let mut s = Session::new();
        s.register_query("pairs", &q, EngineChoice::Auto).unwrap();
        let facts: Vec<Update> = seed(n).collect();
        for chunk in facts.chunks(4096) {
            s.apply_batch(chunk).unwrap();
        }
        let h = s.query("pairs").unwrap();
        assert_eq!(h.count(), n as u64);
        assert_eq!(h.kind(), EngineKind::QHierarchical, "native q-tree deltas");
        // The feed is drained to keep the channel empty.
        let step = toggle(n);
        let round = |s: &mut Session, feed: Option<&Subscription>| {
            step.iter().for_each(|u| assert!(s.apply(u).unwrap()));
            feed.map_or(0, |f| f.drain().len())
        };
        let bare = time_rounds(toggles, || round(&mut s, None));
        let feed = s.query("pairs").unwrap().subscribe();
        let subscribed = time_rounds(toggles, || round(&mut s, Some(&feed)));
        native.push(row("qh-native", n, bare, subscribed) as f64);
    }
    for &n in diff_sizes {
        let mut oracle = Standalone::from_empty(RecomputeEngine::empty(&q));
        for u in seed(n) {
            oracle.apply(&u);
        }
        assert_eq!(oracle.count(), n as u64);
        let step = toggle(n);
        let bare = time_rounds(toggles, || step.iter().all(|u| oracle.apply(u)));
        let mut delta = ResultDelta::default();
        let subscribed = time_rounds(toggles, || {
            delta.clear();
            step.iter().all(|u| oracle.apply_tracked(u, &mut delta))
        });
        row("recompute-diff", n, bare, subscribed);
    }
    if let (Some(small), Some(large)) = (native.first(), native.last()) {
        report.add_fact("qh-native/flatness", large / small);
    }
    println!("expected shape: qh-native flat down both columns; recompute-diff linear in |ϕ(D)|.");
    report
}

/// E13 — serving-layer costs. Commit latency stays flat in the number of
/// live TCP subscribers (the writer publishes once, fan-out happens on
/// the pump thread) and at the no-subscriber baseline under a crowd of
/// *stalled* ones (bounded queues coalesce; the writer never blocks on a
/// socket). Re-subscribing with a retention-covered cursor (netted ring
/// replay) is measured against an evicted one (snapshot resync from the
/// shared cache) and the raw snapshot build the cache amortizes away.
pub fn e13_serving(fanout: &[usize], stalled: usize, rounds: usize) -> JsonReport {
    header("E13: commit latency against subscribers; resume against resync");
    println!("{:<28}  {:>12}  {:>12}", "series", "p50 µs", "p95 µs");
    let mut report = JsonReport::new("E13");
    let mut row = |name: String, stats: Stats| {
        println!(
            "{name:<28}  {:>12.1}  {:>12.1}",
            us(stats.p50_ns),
            us(stats.p95_ns)
        );
        report.add(&name, &stats);
    };
    // ~10k feed rows: 100 followers × 10 followees × 100 posts.
    let feed_session = || {
        let mut session = Session::new();
        session
            .register("feed", "Feed(u, v, p) :- Follows(u, v), Posts(v, p).")
            .unwrap();
        let follows = session.relation("Follows").unwrap();
        let posts = session.relation("Posts").unwrap();
        let mut batch = Vec::new();
        for v in 1..=10u64 {
            batch.extend((1..=100).map(|u| Update::Insert(follows, vec![u, v])));
            batch.extend((0..100).map(|p| Update::Insert(posts, vec![v, 1_000 + v * 1_000 + p])));
        }
        session.apply_batch(&batch).unwrap();
        (SharedSession::new(session), follows)
    };
    // One effective commit: a fresh user (un)follows, flipping ~100 rows.
    let toggles = |shared: &SharedSession, follows: RelId, rounds: usize| {
        let insert = Update::Insert(follows, vec![777_777, 5]);
        let mut next = [insert.clone(), insert.inverse()].into_iter().cycle();
        time_rounds(rounds, || {
            shared.apply(&next.next().expect("cycle")).unwrap()
        })
    };
    // Commit latency beside `n` subscribed clients that either drain
    // their socket or, stalled, never read after the handshake.
    let beside = |n: usize, draining: bool, config: ServeConfig| {
        let (shared, follows) = feed_session();
        let source = Arc::new(SessionSource::new(shared.clone(), 8192).unwrap());
        let server = ServerHandle::bind_with("127.0.0.1:0", source, config).unwrap();
        let stop = AtomicBool::new(false);
        let subscribed = std::sync::Barrier::new(n + 1);
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    let mut client = Client::connect(server.local_addr()).expect("connect");
                    client.subscribe("feed", None).expect("subscribe");
                    subscribed.wait();
                    while !stop.load(Ordering::Acquire) {
                        if draining {
                            let _ = client.next(Duration::from_millis(1));
                        } else {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                });
            }
            subscribed.wait();
            let stats = toggles(&shared, follows, rounds);
            stop.store(true, Ordering::Release);
            stats
        })
    };
    for &n in fanout {
        row(
            format!("commit/live_subscribers={n}"),
            beside(n, true, ServeConfig::default()),
        );
    }
    let tight = ServeConfig {
        queue_cap: 4,
        hard_cap: 4096,
        lag: LagPolicy::Coalesce,
        ..ServeConfig::default()
    };
    row(
        format!("commit/stalled_subscribers={stalled}"),
        beside(stalled, false, tight),
    );

    // A small retention ring under enough history that early cursors
    // are evicted while recent ones stay covered.
    let (shared, follows) = feed_session();
    let source = Arc::new(SessionSource::new(shared.clone(), 32).unwrap());
    let server = ServerHandle::bind("127.0.0.1:0", Arc::clone(&source) as _).unwrap();
    toggles(&shared, follows, 200);
    let now = shared.read(|s| s.seq()).unwrap();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut resubscribe = |from: u64| {
        let subscribed = client.subscribe("feed", Some(from)).expect("subscribe");
        while let Ok(Some(_)) = client.next(Duration::ZERO) {}
        subscribed
    };
    row(
        "resume/covered_cursor".to_string(),
        time_rounds(rounds, || resubscribe(now - 16)),
    );
    row(
        "resync/evicted_cursor".to_string(),
        time_rounds(rounds, || resubscribe(1)),
    );
    row(
        "snapshot/build".to_string(),
        time_rounds(rounds, || source.snapshot("feed").unwrap().1.len()),
    );
    report.add_fact("cores", cores());
    println!(
        "expected shape: the commit rows sit together (fan-out is off the write path); \
         resume < resync < snapshot build."
    );
    report
}

/// What `std::thread::available_parallelism` reports: the thread-count
/// experiments mean little on one core, so they record it.
fn cores() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// E15 — aggregate pinned-read throughput over N synced replicas, all
/// reading concurrently. A replica read is a lock-free pin plus an O(1)
/// count on replica-local state, so with a core per replica the
/// aggregate scales with N: the point of log-shipping read replicas.
/// (Commit-to-watermark lag is `watermark_p50_us` @ `full_stack` in
/// `cqbench`.)
pub fn e15_replica_reads(
    steps: usize,
    replicas: &[usize],
    reads: usize,
    rounds: usize,
) -> JsonReport {
    header("E15: pinned-read throughput over N replicas");
    println!(
        "{:<14}  {:>14}  {:>16}",
        "readers", "round p50 µs", "reads / s"
    );
    let mut report = JsonReport::new("E15");
    let opts = DurableOptions {
        fsync: FsyncPolicy::Never,
        segment_bytes: 32 << 20,
        ..DurableOptions::default()
    };
    let leader = Arc::new(DurableSession::create(Box::new(SimDisk::new()), opts).unwrap());
    leader.register("q", "Q(x, y) :- E(x, y), T(y).").unwrap();
    let server =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&leader), LeaderConfig::default())
            .unwrap();
    let schema = leader
        .shared()
        .expect("single-writer mode")
        .read(|s| s.schema().clone())
        .unwrap();
    for chunk in session_churn(&schema, 0x5EED, steps).chunks(512) {
        leader.apply_batch(chunk).unwrap();
    }
    let head = leader.seq().unwrap();
    // One round: `reads` pinned reads on every reader, concurrently.
    let mut measure = |name: String, readers: &[PinReader]| {
        let stats = time_rounds(rounds, || {
            std::thread::scope(|scope| {
                for reader in readers {
                    scope.spawn(move || (0..reads).map(|_| reader.pin().count()).sum::<u64>());
                }
            })
        });
        let per_s = (readers.len() * reads) as f64 / (stats.p50_ns as f64 / 1e9);
        println!("{name:<14}  {:>14.1}  {per_s:>16.0}", us(stats.p50_ns));
        report
            .add(&format!("{name}/round"), &stats)
            .add_fact(&format!("{name}/reads_per_s"), per_s);
    };
    measure("leader_only".to_string(), &[leader.reader("q").unwrap()]);
    let most = replicas.iter().copied().max().unwrap_or(0);
    let followers: Vec<ReplicaSession> = (0..most)
        .map(|_| ReplicaSession::connect(server.local_addr(), ReplicaOptions::default()).unwrap())
        .collect();
    let readers: Vec<PinReader> = followers
        .iter()
        .map(|r| {
            assert!(
                r.wait_for_seq(head, Duration::from_secs(10)),
                "follower fell behind"
            );
            r.reader("q").unwrap()
        })
        .collect();
    for &n in replicas {
        measure(format!("replicas={n}"), &readers[..n]);
    }
    report.add_fact("cores", cores());
    println!("expected shape: reads / s grows with N while N ≤ cores.");
    report
}

/// E16 — observability overhead on the hot commit path, the `cqu-obs`
/// acceptance gate. The same churn script is committed in 64-update
/// batches through an **instrumented** [`SharedSession`] (a shared
/// [`Registry`]: commit counters, latency histograms, per-batch
/// bookkeeping on every dispatch) and an **uninstrumented** twin. Rounds
/// are interleaved A/B so frequency drift and allocator state cancel
/// instead of biasing one arm, and both sessions evolve through
/// identical states. The headline is the median-round overhead,
/// `(instrumented_p50 / uninstrumented_p50 − 1) × 100`, which
/// [`enforce_overhead_gate`] bounds in CI.
pub fn e16_metrics_overhead(steps: usize, rounds: usize) -> JsonReport {
    const BATCH: usize = 64;
    // Instrumented iff a registry is shared in, *before* registration,
    // so the per-query series wire up too.
    let build = |registry: Option<&Arc<Registry>>| {
        let mut session = Session::new();
        if let Some(r) = registry {
            session.share_registry(Arc::clone(r));
        }
        session.register("q", "Q(x, y) :- E(x, y), T(y).").unwrap();
        let schema = session.schema().clone();
        (SharedSession::new(session), schema)
    };
    let registry = Arc::new(Registry::new());
    let (instrumented, schema) = build(Some(&registry));
    let (bare, _) = build(None);
    let script = session_churn(&schema, 0xE16, steps);
    // One full pass of the script; returns the wall time in nanoseconds.
    let run_round = |session: &SharedSession| {
        time_ns(|| {
            for chunk in script.chunks(BATCH) {
                session.apply_batch(chunk).unwrap();
            }
        })
    };
    // Warm-up round per arm: page in code, size internal tables.
    run_round(&bare);
    run_round(&instrumented);
    let (mut bare_ns, mut inst_ns) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        bare_ns.push(run_round(&bare));
        inst_ns.push(run_round(&instrumented));
    }
    let bare_stats = Stats::from_samples(bare_ns);
    let inst_stats = Stats::from_samples(inst_ns);
    let overhead_pct = (inst_stats.p50_ns as f64 / bare_stats.p50_ns as f64 - 1.0) * 100.0;

    // The instrumented arm must actually have been instrumented —
    // otherwise the comparison silently measures nothing.
    let batches = registry.counter("session_batches_total").get();
    assert!(
        batches >= rounds as u64,
        "instrumented session recorded no batches (got {batches})"
    );

    header("E16: metrics overhead on the commit path");
    println!("  {steps} updates/round, batch {BATCH}, {rounds} rounds per arm");
    println!("  uninstrumented  {bare_stats}");
    println!("  instrumented    {inst_stats}");
    println!("  median-round overhead: {overhead_pct:+.2}%");
    let mut report = JsonReport::new("E16");
    report
        .add("uninstrumented_round", &bare_stats)
        .add("instrumented_round", &inst_stats)
        .add_fact("overhead_pct", overhead_pct)
        .add_fact("rounds", rounds as f64)
        .add_fact("steps_per_round", steps as f64);
    report
}

/// The CI cell that keeps instrumentation honest: with
/// `CQ_ENFORCE_OVERHEAD=1`, fails if E16's median overhead exceeds 5 %.
/// Unenforced by default: a laptop running a browser next to the run
/// produces ±5 % noise on its own.
pub fn enforce_overhead_gate(e16: &JsonReport) {
    if std::env::var("CQ_ENFORCE_OVERHEAD").as_deref() == Ok("1") {
        let overhead_pct = e16.fact("overhead_pct").expect("an E16 report");
        assert!(
            overhead_pct <= 5.0,
            "instrumented commit path is {overhead_pct:.2}% slower than the \
             uninstrumented twin (gate: 5%)"
        );
        println!("  overhead gate (≤5%): PASS");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_23_tuples() {
        let report = table1();
        assert_eq!(report.fact("count"), Some(23.0));
        assert_eq!(report.fact("enumerated"), Some(23.0));
    }

    #[test]
    fn figure3_reports_paper_weights() {
        let report = figure3();
        assert_eq!(report.fact("d0/Cstart"), Some(23.0));
        assert_eq!(report.fact("d0/C[x,[1]]"), Some(14.0));
        assert_eq!(report.fact("d0/C[x,[2]]"), Some(9.0));
        assert_eq!(report.fact("after/Cstart"), Some(38.0));
        assert_eq!(report.fact("after/C[x,[2]]"), Some(24.0));
        assert_eq!(report.fact("audit_ok"), Some(1.0));
    }

    #[test]
    fn figure1_both_trees_valid() {
        let report = figure1();
        assert_eq!(report.fact("left_valid"), Some(1.0));
        assert_eq!(report.fact("right_valid"), Some(1.0));
    }

    #[test]
    fn classify_table_matches_the_paper() {
        let report = classify_catalogue();
        for task in ["enumerate", "count", "boolean"] {
            assert_eq!(report.fact(&format!("ϕ_S-E-T (Eq. 2)/{task}")), Some(-1.0));
            assert_eq!(report.fact(&format!("Example 6.1/{task}")), Some(1.0));
        }
        for q in ["ϕ1 (§7)", "ϕ2 (§7)"] {
            assert_eq!(report.fact(&format!("{q}/enumerate")), Some(0.0), "open");
            assert_eq!(report.fact(&format!("{q}/count")), Some(-1.0));
            assert_eq!(report.fact(&format!("{q}/boolean")), Some(1.0));
        }
    }

    /// Tiny sizes: exercises every experiment's code path and checks
    /// that each fills its report.
    #[test]
    fn small_experiment_smoke() {
        let reports = [
            e1_enumeration(&[200], 50, 20),
            e2_counting(&[200], 50),
            e3_hard_enumeration(&[32], 2),
            e4_omv(&[16]),
            e5_ov_counting(&[32]),
            e6_preprocessing(&[500]),
            e7_selfjoins(&[200], 50, 20),
            e8_ablation(&[1, 3], 100, 20),
            e9_batch(500, &[16], 4),
            e10_subscriptions(&[50, 200], &[50], 10),
            e13_serving(&[0, 2], 2, 10),
            e15_replica_reads(400, &[1, 2], 8, 3),
            e16_metrics_overhead(256, 3),
        ];
        for report in &reports {
            assert!(!report.is_empty(), "{} recorded nothing", report.id());
        }
    }
}
