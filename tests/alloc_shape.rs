//! Allocation counts per operation, as exact numbers rather than timings.
//!
//! Thm 3.2's O(1) is a statement about work, and allocations are work a
//! timing row only blurs. This binary installs a counting global
//! allocator (std only: it wraps [`System`]) whose counter is
//! thread-local, so the harness's parallel tests do not pollute each
//! other. It asserts:
//!
//! * a subscribed δ = 1 step — insert, then delete, of one joining edge —
//!   allocates exactly as often at |ϕ(D)| = 10² as at 10⁴, on the
//!   q-hierarchical route and on the delta-IVM route, applied singly and
//!   inside committed transactions (E10's "subscriptions cost O(δ)" as a
//!   count);
//! * `PinReader::pin` plus `count` allocates nothing;
//! * a no-op `Session::apply` allocates nothing, for an insert of a
//!   present tuple and a delete of an absent one, and an effective
//!   `Database::apply` insert allocates once, for its stored copy;
//! * an effective `QhEngine` update on the star query allocates as often
//!   at ‖D‖ = 10³ as at 10⁴ and 10⁵, and one that creates no item
//!   allocates exactly what `Database` does: once per insert, never per
//!   delete;
//! * the copy-on-write clone a write under a retained pin triggers
//!   allocates as often at 10³ items as at 10⁴ (it prints its bytes);
//! * preprocessing the star query allocates as often at ‖D‖ = 10³ as at
//!   10⁴.

use cq_updates::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those events asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // A const-initialized `Cell` has no destructor, so the slot lives
        // as long as its thread; `try_with` only guards the teardown path.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    allocs_and_bytes(f).0
}

/// How many allocations `f` makes on this thread, and how many bytes.
fn allocs_and_bytes(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// The q-hierarchical route: `Q(x, y)` keeps both columns.
const QH: &str = "Q(x, y) :- E(x, y), T(y).";
/// The delta-IVM route: projecting `y` away makes `ϕ_E-T` hard.
const IVM: &str = "Q(x) :- E(x, y), T(y).";

/// A session with `src` registered as `q` over `T(1)` and `n` edges into
/// it, so |ϕ(D)| = n; returns it with the joining edge a step toggles.
fn seeded(src: &str, kind: EngineKind, n: u64) -> (Session, Update) {
    let mut s = Session::new();
    s.register("q", src).unwrap();
    assert_eq!(s.query("q").unwrap().kind(), kind, "{src}");
    let (e, t) = (s.relation("E").unwrap(), s.relation("T").unwrap());
    let mut seed = vec![Update::Insert(t, vec![1])];
    seed.extend((2..n + 2).map(|i| Update::Insert(e, vec![i, 1])));
    s.apply_batch(&seed).unwrap();
    assert_eq!(s.query("q").unwrap().count(), n);
    (s, Update::Insert(e, vec![n + 10, 1]))
}

/// Allocations of one subscribed δ = 1 step at |ϕ(D)| = `n`: the edge's
/// insert and delete, each singly or each as a committed transaction,
/// with the feed drained after each. Warm-up steps first, so container
/// growth that a first insert may trigger at some sizes is paid before
/// counting.
fn step_allocs(src: &str, kind: EngineKind, n: u64, in_tx: bool) -> u64 {
    let (mut s, insert) = seeded(src, kind, n);
    let delete = insert.inverse();
    let feed = s.query("q").unwrap().subscribe();
    let mut step = || {
        for u in [&insert, &delete] {
            if in_tx {
                let mut txn = s.transaction();
                assert!(txn.apply(u).unwrap());
                txn.commit();
            } else {
                assert!(s.apply(u).unwrap());
            }
            assert_eq!(feed.drain().len(), 1, "one δ = 1 event per update");
        }
    };
    for _ in 0..4 {
        step();
    }
    allocs(step)
}

#[test]
fn subscribed_step_allocations_do_not_grow_with_the_result() {
    for (src, kind) in [(QH, EngineKind::QHierarchical), (IVM, EngineKind::DeltaIvm)] {
        for in_tx in [false, true] {
            let small = step_allocs(src, kind, 100, in_tx);
            let large = step_allocs(src, kind, 10_000, in_tx);
            assert_eq!(small, large, "{src} (transaction: {in_tx})");
        }
    }
}

#[test]
fn pin_and_count_allocate_nothing() {
    for (src, kind) in [(QH, EngineKind::QHierarchical), (IVM, EngineKind::DeltaIvm)] {
        let (s, _) = seeded(src, kind, 100);
        let reader = s.query("q").unwrap().pin_reader();
        let mut count = 0;
        assert_eq!(allocs(|| count = reader.pin().count()), 0, "{src}");
        assert_eq!(count, 100);
    }
}

#[test]
fn noop_applies_allocate_nothing() {
    let (mut s, insert) = seeded(QH, EngineKind::QHierarchical, 100);
    let _feed = s.query("q").unwrap().subscribe();
    let e = insert.relation();
    let present = Update::Insert(e, vec![2, 1]);
    let absent = Update::Delete(e, vec![1, 1]);
    for noop in [&present, &absent] {
        let mut changed = true;
        assert_eq!(allocs(|| changed = s.apply(noop).unwrap()), 0, "{noop:?}");
        assert!(!changed, "{noop:?} is a no-op");
    }
}

#[test]
fn an_effective_insert_copies_its_tuple_once() {
    let (s, insert) = seeded(QH, EngineKind::QHierarchical, 100);
    let mut db = s.database().clone();
    // Warm-up: the edge's set slot and its constants' domain entries.
    assert!(db.apply(&insert) && db.apply(&insert.inverse()));
    let mut changed = false;
    assert_eq!(allocs(|| changed = db.apply(&insert)), 1);
    assert!(changed);
}

/// The star query of the engine benchmarks: three q-tree nodes, two leaves.
const STAR: &str = "Q(x, y, z) :- R(x, y), S(x, z), T(x).";

/// A stand-alone q-tree engine on the star query over ‖D‖ = `n` tuples
/// (ten per `x`: `T(x)`, four `R` and five `S` leaves, so about `n`
/// items), with the update cycle a step runs: `T(0)` out and back in
/// (no item created or destroyed), then the leaf `R(0, 0)` out and back
/// in (its item destroyed and recreated).
fn star(n: u64) -> (QhEngine, [Update; 4]) {
    let (q, db) = star_db(n);
    let rel = |name| q.schema().relation(name).unwrap();
    let (r, t) = (rel("R"), rel("T"));
    let engine = QhEngine::new(&q, &db).unwrap();
    let cycle = [
        Update::Delete(t, vec![0]),
        Update::Insert(t, vec![0]),
        Update::Delete(r, vec![0, 0]),
        Update::Insert(r, vec![0, 0]),
    ];
    (engine, cycle)
}

/// The star query and its database of `n` facts (see [`star`]).
fn star_db(n: u64) -> (Query, Database) {
    let q = parse_query(STAR).unwrap();
    let rel = |name| q.schema().relation(name).unwrap();
    let (r, s, t) = (rel("R"), rel("S"), rel("T"));
    let mut db = Database::new(q.schema().clone());
    for x in 0..n / 10 {
        db.apply(&Update::Insert(t, vec![x]));
        for y in 0..4 {
            db.apply(&Update::Insert(r, vec![x, 10 * x + y]));
        }
        for z in 0..5 {
            db.apply(&Update::Insert(s, vec![x, 10 * x + z]));
        }
    }
    assert_eq!(db.cardinality() as u64, n);
    (q, db)
}

/// Preprocessing allocates per q-tree node, never per fact or by
/// doubling: every array is sized once.
#[test]
fn preprocessing_allocates_independently_of_the_database() {
    let build = |n: u64| {
        let (q, db) = star_db(n);
        allocs(|| drop(EngineKind::QHierarchical.preprocess(&q, &db).unwrap()))
    };
    let small = build(1_000);
    assert_eq!(small, build(10_000), "‖D‖ = 10³ vs 10⁴");
    println!("allocations to preprocess the star: {small}");
}

#[test]
fn engine_updates_allocate_independently_of_the_database() {
    let per_update = |n: u64| -> Vec<u64> {
        let (mut engine, cycle) = star(n);
        let items = engine.num_items();
        // Warm-up: the recycled rows, the database's set slots.
        for u in cycle.iter().chain(&cycle) {
            assert!(engine.apply(u));
        }
        let counts = cycle
            .iter()
            .map(|u| allocs(|| assert!(engine.apply(u))))
            .collect();
        assert_eq!(engine.num_items(), items);
        counts
    };
    let small = per_update(1_000);
    assert_eq!(small, per_update(10_000), "‖D‖ = 10³ vs 10⁴");
    assert_eq!(small, per_update(100_000), "‖D‖ = 10³ vs 10⁵");
    // `T(0)` creates no item: the engine adds nothing to the database's
    // one copy per insert.
    assert_eq!(small[..2], [0, 1], "delete, insert of T(0)");
    println!("allocations per update (T out, T in, leaf out, leaf in): {small:?}");
}

#[test]
fn pinned_clone_allocations_do_not_grow_with_the_items() {
    let clone = |n: u64| -> (u64, u64, usize) {
        let (mut engine, cycle) = star(n);
        for u in &cycle {
            assert!(engine.apply(u));
        }
        let pin = engine.snapshot();
        // The first write under the pin copies the component; deleting
        // `T(0)` allocates nothing else.
        let (count, bytes) = allocs_and_bytes(|| assert!(engine.apply(&cycle[0])));
        drop(pin);
        (count, bytes, engine.num_items())
    };
    let (small, small_bytes, small_items) = clone(1_000);
    let (large, large_bytes, large_items) = clone(10_000);
    for (count, bytes, items) in [
        (small, small_bytes, small_items),
        (large, large_bytes, large_items),
    ] {
        println!(
            "pinned clone at {items} items: {count} allocations, {bytes} B ({:.1} B/item)",
            bytes as f64 / items as f64
        );
    }
    assert_eq!(small, large, "clone allocations at 10³ vs 10⁴ items");
}
