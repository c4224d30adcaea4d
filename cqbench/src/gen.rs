//! The benchmark's own input generators.
//!
//! Everything is derived from [`Lcg`] and the `--seed` argument inside
//! this directory, not from `cqu_bench::workloads` or
//! `cqu_testutil::random_updates`, which later changes may edit: the
//! program under test receives only the generated updates, and a pinned
//! FNV-1a fingerprint per workload (seed 1) makes drift in [`Lcg`]
//! itself fail loudly instead of silently moving every number.
//!
//! A [`Script`] is a preload plus a *forward* stream; [`Script::cycle`]
//! turns the stream into a palindrome (forward, then the inverses of its
//! effective members in reverse order), which returns the database to
//! the preloaded state. Timed phases replay the cycle as often as their
//! operation count needs, so per-update work does not drift over a run,
//! memory stays bounded however many operations a phase performs, and
//! the expected final state is the preload plus a prefix of one cycle.

use crate::stats::Fnv1a;
use cq_updates::query::{RelId, Schema};
use cq_updates::storage::{Const, Database, Tuple, Update};
use cqu_testutil::Lcg;
use std::collections::{HashMap, HashSet};

/// How one relation is populated: a domain per column (values are drawn
/// from `1..=domain`) and the number of live tuples to hold it at.
#[derive(Debug, Clone)]
pub struct RelGen {
    /// Relation name, as the scenario's queries spell it.
    pub name: &'static str,
    /// Per-column domain size.
    pub cols: Vec<u64>,
    /// Live tuples after preload; churn keeps the relation near it.
    pub live: usize,
}

impl RelGen {
    /// Shorthand constructor.
    pub fn new(name: &'static str, cols: &[u64], live: usize) -> RelGen {
        RelGen {
            name,
            cols: cols.to_vec(),
            live,
        }
    }
}

/// Shape of a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every update changes the database, and no tuple is touched twice
    /// inside an aligned window of the given length — so a batch of that
    /// length never nets anything out and always publishes its deltas.
    Effective {
        /// Window (in updates) inside which tuples are distinct.
        window: usize,
    },
    /// `random_updates`-shaped: inserts with the given permille against
    /// uniformly random tuples, so duplicate inserts, absent deletes and
    /// (one step in twenty) an update immediately followed by its
    /// inverse are part of the stream.
    Raw {
        /// Insert probability per step, in permille. Also the density
        /// the relations settle at, so preload to it.
        insert_permille: usize,
    },
}

/// A deterministic preload and update stream over one schema.
#[derive(Debug, Clone)]
pub struct Script {
    /// Inserts that build the initial database (all effective).
    pub preload: Vec<Update>,
    /// The forward stream.
    pub forward: Vec<Update>,
    /// Whether each forward update changes the database when the stream
    /// is replayed in order onto the preloaded state.
    pub effective: Vec<bool>,
    /// FNV-1a over preload and forward stream.
    pub fingerprint: u64,
}

struct LiveRel {
    id: RelId,
    gen: RelGen,
    tuples: Vec<Tuple>,
    index: HashMap<Tuple, usize>,
}

impl LiveRel {
    fn random_tuple(&self, rng: &mut Lcg) -> Tuple {
        self.gen
            .cols
            .iter()
            .map(|&d| 1 + rng.below(d as usize) as Const)
            .collect()
    }

    fn insert(&mut self, t: Tuple) -> bool {
        if self.index.contains_key(&t) {
            return false;
        }
        self.index.insert(t.clone(), self.tuples.len());
        self.tuples.push(t);
        true
    }

    fn delete(&mut self, t: &[Const]) -> bool {
        let Some(pos) = self.index.remove(t) else {
            return false;
        };
        self.tuples.swap_remove(pos);
        if let Some(moved) = self.tuples.get(pos) {
            self.index.insert(moved.clone(), pos);
        }
        true
    }
}

fn fold(h: &mut Fnv1a, u: &Update) {
    h.write_u64(u64::from(u.relation().0));
    h.write_u64(u64::from(u.is_insert()));
    for &c in u.tuple() {
        h.write_u64(c);
    }
}

impl Script {
    /// Generates a script of `steps` forward updates over `rels`
    /// (resolved against `schema`), deterministically from `seed`.
    pub fn generate(
        schema: &Schema,
        rels: &[RelGen],
        seed: u64,
        steps: usize,
        shape: Shape,
    ) -> Script {
        let mut rng = Lcg::new(seed);
        let mut live: Vec<LiveRel> = rels
            .iter()
            .map(|g| {
                let id = schema
                    .relation(g.name)
                    .unwrap_or_else(|| panic!("scenario relation {} not in schema", g.name));
                assert_eq!(schema.arity(id), g.cols.len(), "arity of {}", g.name);
                let space = g.cols.iter().fold(1u128, |a, &d| a * u128::from(d));
                assert!(
                    (g.live as u128) * 10 <= space * 9,
                    "{}: {} live tuples do not fit {} possible",
                    g.name,
                    g.live,
                    space
                );
                LiveRel {
                    id,
                    gen: g.clone(),
                    tuples: Vec::with_capacity(g.live + 64),
                    index: HashMap::with_capacity(g.live + 64),
                }
            })
            .collect();

        let mut preload = Vec::new();
        for rel in &mut live {
            while rel.tuples.len() < rel.gen.live {
                let t = rel.random_tuple(&mut rng);
                if rel.insert(t.clone()) {
                    preload.push(Update::Insert(rel.id, t));
                }
            }
        }

        // Relations are picked in proportion to their size, so every
        // tuple is about equally likely to be churned.
        let total: usize = live.iter().map(|r| r.gen.live.max(1)).sum();
        let pick = |rng: &mut Lcg, live: &[LiveRel]| {
            let mut at = rng.below(total);
            for (i, r) in live.iter().enumerate() {
                let w = r.gen.live.max(1);
                if at < w {
                    return i;
                }
                at -= w;
            }
            unreachable!("weights sum to total")
        };

        let mut forward = Vec::with_capacity(steps);
        let mut effective = Vec::with_capacity(steps);
        match shape {
            Shape::Effective { window } => {
                let mut touched: HashSet<(usize, Tuple)> = HashSet::new();
                while forward.len() < steps {
                    if forward.len() % window == 0 {
                        touched.clear();
                    }
                    let ri = pick(&mut rng, &live);
                    let rel = &mut live[ri];
                    // A restoring force keeps each relation at its size.
                    let insert_permille = if rel.tuples.len() < rel.gen.live {
                        550
                    } else {
                        450
                    };
                    let insert = rel.tuples.is_empty() || rng.chance(insert_permille, 1000);
                    let t = if insert {
                        rel.random_tuple(&mut rng)
                    } else {
                        rel.tuples[rng.below(rel.tuples.len())].clone()
                    };
                    if touched.contains(&(ri, t.clone())) {
                        continue;
                    }
                    let changed = if insert {
                        rel.insert(t.clone())
                    } else {
                        rel.delete(&t)
                    };
                    if !changed {
                        continue;
                    }
                    touched.insert((ri, t.clone()));
                    forward.push(if insert {
                        Update::Insert(rel.id, t)
                    } else {
                        Update::Delete(rel.id, t)
                    });
                    effective.push(true);
                }
            }
            Shape::Raw { insert_permille } => {
                while forward.len() < steps {
                    let ri = pick(&mut rng, &live);
                    let rel = &mut live[ri];
                    let t = rel.random_tuple(&mut rng);
                    let insert = rng.chance(insert_permille, 1000);
                    let pair = rng.chance(1, 20) && forward.len() + 2 <= steps;
                    let mut push = |rel: &mut LiveRel, insert: bool| {
                        let changed = if insert {
                            rel.insert(t.clone())
                        } else {
                            rel.delete(&t)
                        };
                        forward.push(if insert {
                            Update::Insert(rel.id, t.clone())
                        } else {
                            Update::Delete(rel.id, t.clone())
                        });
                        effective.push(changed);
                    };
                    push(rel, insert);
                    if pair {
                        push(rel, !insert);
                    }
                }
            }
        }

        let mut h = Fnv1a::default();
        for u in preload.iter().chain(&forward) {
            fold(&mut h, u);
        }
        Script {
            preload,
            forward,
            effective,
            fingerprint: h.0,
        }
    }

    /// The palindromic cycle over the relations `keep` admits: the kept
    /// forward updates, truncated to a multiple of `align`, then the
    /// inverses of their effective members in reverse order, padded to a
    /// multiple of `align` with deletes of a tuple that never exists
    /// (only a stream that already contains no-ops ever needs padding).
    /// Replaying the whole cycle onto the preloaded state returns to it;
    /// chunks of `align` never straddle the turn-around or the wrap.
    pub fn cycle(&self, keep: impl Fn(RelId) -> bool, align: usize) -> Vec<Update> {
        let kept: Vec<(&Update, bool)> = self
            .forward
            .iter()
            .zip(self.effective.iter().copied())
            .filter(|(u, _)| keep(u.relation()))
            .collect();
        let kept = &kept[..kept.len() / align * align];
        let mut cycle: Vec<Update> = kept.iter().map(|(u, _)| (*u).clone()).collect();
        cycle.extend(
            kept.iter()
                .rev()
                .filter(|(_, eff)| *eff)
                .map(|(u, _)| u.inverse()),
        );
        if let Some((first, _)) = kept.first() {
            let absent = Update::Delete(first.relation(), vec![0; first.tuple().len()]);
            while !cycle.len().is_multiple_of(align) {
                cycle.push(absent.clone());
            }
        }
        cycle
    }
}

/// Replays a cycle in chunks: hands out consecutive `chunk`-sized slices
/// of a cycle whose length is a multiple of `chunk`, wrapping forever.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    cycle: &'a [Update],
    at: usize,
    /// Total updates handed out.
    pub issued: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `cycle`.
    pub fn new(cycle: &'a [Update]) -> Cursor<'a> {
        Cursor {
            cycle,
            at: 0,
            issued: 0,
        }
    }

    /// The next `chunk` updates.
    pub fn next(&mut self, chunk: usize) -> &'a [Update] {
        debug_assert!(
            self.cycle.len().is_multiple_of(chunk),
            "cycle not aligned to chunk"
        );
        if self.at + chunk > self.cycle.len() {
            self.at = 0;
        }
        let out = &self.cycle[self.at..self.at + chunk];
        self.at += chunk;
        self.issued += chunk;
        out
    }

    /// Applies to `db` what this cursor has handed out so far. Whole
    /// cycles are the identity; only the remainder matters.
    pub fn replay_onto(&self, db: &mut Database) {
        for u in &self.cycle[..self.issued % self.cycle.len().max(1)] {
            db.apply(u);
        }
    }
}

/// The independent oracle: the preload plus everything the cursors
/// handed out, applied to a plain [`Database`]. Several cursors must
/// cover disjoint relations (their order then does not matter).
pub fn oracle_db(schema: &Schema, preload: &[Update], cursors: &[Cursor]) -> Database {
    let mut db = Database::new(schema.clone());
    for u in preload {
        db.apply(u);
    }
    for cursor in cursors {
        cursor.replay_onto(&mut db);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_updates::query::parse_query;

    fn schema() -> Schema {
        parse_query("Q(x, y) :- E(x, y), T(y).")
            .unwrap()
            .schema()
            .clone()
    }

    fn rels() -> Vec<RelGen> {
        vec![RelGen::new("E", &[64, 16], 300), RelGen::new("T", &[16], 8)]
    }

    fn state(db: &Database, schema: &Schema) -> Vec<Vec<Tuple>> {
        schema
            .relations()
            .map(|r| db.relation(r).sorted())
            .collect()
    }

    #[test]
    fn same_seed_same_script_and_seeds_differ() {
        let s = schema();
        let shape = Shape::Effective { window: 16 };
        let a = Script::generate(&s, &rels(), 7, 512, shape);
        let b = Script::generate(&s, &rels(), 7, 512, shape);
        assert_eq!((&a.preload, &a.forward), (&b.preload, &b.forward));
        assert_eq!(a.fingerprint, b.fingerprint);
        let c = Script::generate(&s, &rels(), 8, 512, shape);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn effective_stream_is_effective_distinct_per_window_and_cyclic() {
        let s = schema();
        let script = Script::generate(&s, &rels(), 3, 1024, Shape::Effective { window: 32 });
        let cycle = script.cycle(|_| true, 32);
        assert_eq!(cycle.len(), 2048);
        let mut db = oracle_db(&s, &script.preload, &[]);
        let start = state(&db, &s);
        assert_eq!(db.cardinality(), 308);
        for window in cycle.chunks(32) {
            let mut seen = HashSet::new();
            for u in window {
                assert!(db.apply(u), "no-op in an effective stream: {u:?}");
                assert!(seen.insert((u.relation(), u.tuple().to_vec())));
            }
        }
        assert_eq!(state(&db, &s), start, "one cycle is the identity");
        // Size stays near the preload.
        let mut half = Cursor::new(&cycle);
        half.next(1024);
        let mid = oracle_db(&s, &script.preload, &[half]);
        assert!(
            (250..370).contains(&mid.cardinality()),
            "{}",
            mid.cardinality()
        );
    }

    #[test]
    fn raw_stream_has_noops_and_pairs_and_still_cycles() {
        let s = schema();
        let raw = Shape::Raw {
            insert_permille: 600,
        };
        let dense = vec![RelGen::new("E", &[16, 16], 150), RelGen::new("T", &[16], 9)];
        let script = Script::generate(&s, &dense, 5, 1000, raw);
        let noops = script.effective.iter().filter(|e| !**e).count();
        assert!(noops > 200 && noops < 800, "{noops} no-ops of 1000");
        let pairs = script
            .forward
            .windows(2)
            .filter(|w| w[1] == w[0].inverse())
            .count();
        assert!(pairs > 10, "{pairs} cancelling pairs");
        let cycle = script.cycle(|_| true, 32);
        assert_eq!(cycle.len() % 32, 0);
        let mut db = oracle_db(&s, &script.preload, &[]);
        let start = state(&db, &s);
        for u in &cycle {
            db.apply(u);
        }
        assert_eq!(state(&db, &s), start);
    }

    #[test]
    fn filtered_cycles_are_independent_cycles() {
        let s = schema();
        let e = s.relation("E").unwrap();
        let script = Script::generate(&s, &rels(), 9, 800, Shape::Effective { window: 8 });
        let only_e = script.cycle(|r| r == e, 8);
        assert!(only_e.iter().all(|u| u.relation() == e));
        assert_eq!(only_e.len() % 8, 0);
        let mut db = oracle_db(&s, &script.preload, &[]);
        let start = state(&db, &s);
        for u in &only_e {
            assert!(db.apply(u));
        }
        assert_eq!(state(&db, &s), start);
    }

    #[test]
    fn cursor_wraps_on_chunk_boundaries() {
        let s = schema();
        let script = Script::generate(&s, &rels(), 1, 64, Shape::Effective { window: 8 });
        let cycle = script.cycle(|_| true, 8);
        let mut cur = Cursor::new(&cycle);
        for i in 0..40 {
            let chunk = cur.next(8);
            let at = (i * 8) % cycle.len();
            assert_eq!(chunk, &cycle[at..at + 8]);
        }
        assert_eq!(cur.issued, 320);
    }
}
