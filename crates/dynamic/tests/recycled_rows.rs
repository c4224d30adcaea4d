//! Recycled item rows under retained pins.
//!
//! Items live in one row array per q-tree node, and a destroyed item's row
//! is reused by the next item created at that node. A pin shares the
//! writer's components until the writer's next mutation copies them; the
//! churn after that destroys items and recreates others in the freed rows.
//! On q-trees of two and three levels, self-joins included:
//!
//! * every pin enumerates exactly the result it pinned;
//! * the writer passes `audit` after every step;
//! * every item, recycled rows included, stores exactly the registers of
//!   the same item in a structure built from scratch over the same
//!   database, and an unfit item keeps no list links — a reused row starts
//!   from zero.

use cqu_common::FxHashMap;
use cqu_dynamic::{DynamicEngine, ItemRegisters, QhEngine, ResultSnapshot};
use cqu_query::parse_query;
use cqu_storage::{Const, Update};
use cqu_testutil::{random_updates, WorkloadConfig};

type Rows = Vec<Vec<Const>>;

/// q-hierarchical queries whose q-trees have at least two levels.
const QUERIES: &[&str] = &[
    "Q(x, y) :- E(x, y), T(x).",
    // Self-join: one relation feeds two children of `x`.
    "Q(x, y, z) :- E(x, y), E(x, z).",
    // Self-join with an equality pattern: `E(a, a)` hits both atoms.
    "Q(x) :- E(x, y), E(x, x).",
    "Q(x, y, z) :- R(x, y, z), S(x, y), T(x).",
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

/// Every item of `engine` as `(component, var, key)`: the path prefixes of
/// each stored fact under each atom whose pattern it matches.
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

/// Holds up to three pins across `steps` random updates, re-pinning every
/// few steps so the writer copies its components again and again. Returns
/// how many times an item was seen in a row that had held another item.
fn churn(src: &str, seed: u64, steps: usize) -> usize {
    let q = parse_query(src).unwrap();
    let mut engine = QhEngine::empty(&q).unwrap();
    let script = random_updates(
        q.schema(),
        seed,
        WorkloadConfig {
            steps,
            domain: 3,
            insert_permille: 600,
        },
    );
    // Each live pin with the sorted result it pinned.
    let mut pins: Vec<(Box<dyn ResultSnapshot>, Rows)> = Vec::new();
    // (component, var, row) → the key last seen there.
    let mut rows: FxHashMap<(usize, String, u32), Vec<Const>> = FxHashMap::default();
    let mut recycled = 0;
    for (step, u) in script.iter().enumerate() {
        if step % 5 == 0 {
            if pins.len() == 3 {
                pins.remove(0);
            }
            pins.push((engine.snapshot(), engine.results_sorted()));
        }
        engine.apply(u);
        engine
            .audit(engine.database())
            .unwrap_or_else(|e| panic!("{src} seed {seed} step {step} ({u:?}): {e}"));
        for (pin, pinned) in &pins {
            assert_eq!(pin.count(), pinned.len() as u64, "{src} step {step}");
            assert_eq!(&pin.results_sorted(), pinned, "{src} step {step}");
        }

        let fresh = QhEngine::new(&q, engine.database()).unwrap();
        assert_eq!(engine.num_items(), fresh.num_items(), "{src} step {step}");
        for (ci, var, key) in item_keys(&engine) {
            let regs = engine.components()[ci]
                .item_registers(&var, &key)
                .unwrap_or_else(|| panic!("{src} step {step}: item [{var}, {key:?}] missing"));
            let want = fresh.components()[ci].item_registers(&var, &key).unwrap();
            assert_eq!(
                canonical(&regs),
                canonical(&want),
                "{src} seed {seed} step {step}: item [{var}, {key:?}] in row {}",
                regs.row
            );
            if !regs.in_list {
                assert_eq!((regs.prev, regs.next), (None, None), "{src} step {step}");
            }
            if let Some(old) = rows.insert((ci, var, regs.row), key.clone()) {
                recycled += usize::from(old != key);
            }
        }
    }
    recycled
}

#[test]
fn churn_under_pins_recycles_rows_cleanly() {
    for src in QUERIES {
        let recycled: usize = (1..=3).map(|seed| churn(src, seed, 240)).sum();
        assert!(recycled > 0, "{src}: the churn never reused a row");
    }
}

/// The scripted case: a root item with two fit children is destroyed
/// under a pin, and the next root item created takes its row with every
/// counter, sum and link at zero.
#[test]
fn a_recycled_row_starts_from_zero() {
    let q = parse_query("Q(x, y) :- E(x, y), T(x).").unwrap();
    let (e, t) = (
        q.schema().relation("E").unwrap(),
        q.schema().relation("T").unwrap(),
    );
    let mut engine = QhEngine::empty(&q).unwrap();
    for u in [
        Update::Insert(e, vec![1, 10]),
        Update::Insert(e, vec![1, 11]),
        Update::Insert(t, vec![1]),
        Update::Insert(e, vec![2, 20]),
        Update::Insert(t, vec![2]),
    ] {
        assert!(engine.apply(&u));
    }
    let pin = engine.snapshot();
    let pinned = engine.results_sorted();
    let regs = |engine: &QhEngine, var: &str, key: &[Const]| {
        engine.components()[0].item_registers(var, key)
    };
    let x1 = regs(&engine, "x", &[1]).unwrap();
    assert!(x1.in_list);
    assert_eq!((x1.free_weight, x1.free_child_sums.clone()), (2, vec![2]));
    assert!(x1.child_heads[0].is_some());
    let y11 = regs(&engine, "y", &[1, 11]).unwrap();

    for u in [
        Update::Delete(e, vec![1, 10]),
        Update::Delete(e, vec![1, 11]),
        Update::Delete(t, vec![1]),
    ] {
        assert!(engine.apply(&u));
        engine.audit(engine.database()).unwrap();
    }
    assert_eq!(regs(&engine, "x", &[1]), None, "x = 1 is destroyed");

    // T(3) alone: a present but unfit root item in x = 1's old row.
    assert!(engine.apply(&Update::Insert(t, vec![3])));
    assert_eq!(
        regs(&engine, "x", &[3]),
        Some(ItemRegisters {
            row: x1.row,
            free_weight: 0,
            atom_counts: vec![0, 1],
            free_child_sums: vec![0],
            child_heads: vec![None],
            prev: None,
            next: None,
            in_list: false,
        })
    );
    // E(3, 30): a fit leaf in the row E(1, 11) freed last, alone in its
    // list, and x = 3 becomes fit.
    assert!(engine.apply(&Update::Insert(e, vec![3, 30])));
    let y = regs(&engine, "y", &[3, 30]).unwrap();
    assert_eq!(
        y,
        ItemRegisters {
            row: y11.row,
            free_weight: 1,
            atom_counts: vec![1],
            free_child_sums: vec![],
            child_heads: vec![],
            prev: None,
            next: None,
            in_list: true,
        }
    );
    let x3 = regs(&engine, "x", &[3]).unwrap();
    assert_eq!((x3.free_weight, x3.child_heads), (1, vec![Some(y.row)]));
    engine.audit(engine.database()).unwrap();

    assert_eq!(pin.results_sorted(), pinned);
    assert_eq!(
        engine.results_sorted(),
        vec![vec![2, 20], vec![3, 30]],
        "the writer moved on"
    );
}
