//! Experiment workloads: the queries and data distributions the harness
//! sweeps over.
//!
//! Streams and databases are generated through the shared `cqu-testutil`
//! harness — the same deterministic [`Lcg`] generators the correctness
//! suites replay against the brute-force oracle — so a benchmark workload
//! reproduces bit-identically on every platform and any stream can be
//! cross-checked against `cqu_testutil::brute_force` without translation.
//! (The old rand-based generators this module carried are gone.)

use cqu_query::{parse_query, Query, Schema};
use cqu_storage::{Const, Database, Update};
use cqu_testutil::{effective_churn, Lcg, WorkloadConfig};

/// The q-hierarchical star query `Q(x, y, z) :- R(x,y), S(x,z), T(x)` —
/// the canonical tractable query with a branching q-tree.
pub fn star_query() -> Query {
    parse_query("Q(x, y, z) :- R(x, y), S(x, z), T(x).").unwrap()
}

/// The q-hierarchical sibling of `ϕ_S-E-T` with the offending `T` dropped.
pub fn easy_set_sibling() -> Query {
    parse_query("Q(x, y) :- S(x), E(x, y).").unwrap()
}

/// Example 6.1's query (deep q-tree with five variables).
pub fn example_query() -> Query {
    parse_query("Q(x, y, z, y', z') :- R(x,y,z), R(x,y,z'), E(x,y), E(x,y'), S(x,y,z).").unwrap()
}

/// A random star-shaped database with ~`n` active-domain constants:
/// `T(x)` for hub constants, `R(x,y)`/`S(x,z)` random spokes.
pub fn star_database(n: usize, seed: u64) -> Database {
    let q = star_query();
    let mut db = Database::new(q.schema().clone());
    let r = q.schema().relation("R").unwrap();
    let s = q.schema().relation("S").unwrap();
    let t = q.schema().relation("T").unwrap();
    let hubs = (n / 4).max(1) as Const;
    let leaves = n.max(1);
    let mut rng = Lcg::new(seed);
    for x in 1..=hubs {
        if rng.chance(800, 1000) {
            db.insert(t, vec![x]);
        }
        for _ in 0..3 {
            db.insert(r, vec![x, hubs + 1 + rng.below(leaves) as Const]);
            db.insert(s, vec![x, hubs + 1 + rng.below(leaves) as Const]);
        }
    }
    db
}

/// An always-effective churn stream over the star schema, sized to the
/// database — [`cqu_testutil::effective_churn`] with benchmark-shaped
/// parameters (every measured command does real work).
pub fn star_churn(n: usize, steps: usize, seed: u64) -> Vec<Update> {
    let q = star_query();
    effective_churn(
        q.schema(),
        seed ^ 0x5747,
        WorkloadConfig {
            steps,
            domain: (n as Const).max(4),
            insert_permille: 550,
        },
    )
}

/// A mixed, always-effective stream over `schema` for the session-level
/// experiments (E15, E16): constants from 1..=300, 60 % inserts.
pub fn session_churn(schema: &Schema, seed: u64, steps: usize) -> Vec<Update> {
    effective_churn(
        schema,
        seed,
        WorkloadConfig {
            steps,
            domain: 300,
            insert_permille: 600,
        },
    )
}

/// `Q(x1,…,xd) :- R1(x1), R2(x1,x2), …, Rd(x1,…,xd)` — a depth-`d` q-tree.
pub fn path_query(depth: usize) -> Query {
    let vars: Vec<String> = (1..=depth).map(|i| format!("x{i}")).collect();
    let atoms: Vec<String> = (1..=depth)
        .map(|i| format!("R{i}({})", vars[..i].join(", ")))
        .collect();
    parse_query(&format!("Q({}) :- {}.", vars.join(", "), atoms.join(", "))).unwrap()
}

/// `Q(x, y1,…,yk) :- R1(x,y1), …, Rk(x,yk)` — a width-`k` q-tree.
pub fn star_query_k(k: usize) -> Query {
    let head: Vec<String> = (1..=k).map(|i| format!("y{i}")).collect();
    let atoms: Vec<String> = (1..=k).map(|i| format!("R{i}(x, y{i})")).collect();
    parse_query(&format!(
        "Q(x, {}) :- {}.",
        head.join(", "),
        atoms.join(", ")
    ))
    .unwrap()
}

/// The standard geometric sweep of active-domain sizes.
pub fn sweep(base: usize, factor: usize, points: usize) -> Vec<usize> {
    (0..points).map(|i| base * factor.pow(i as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_database_has_expected_shape() {
        let db = star_database(1000, 1);
        assert!(db.cardinality() > 1000);
        assert!(db.active_domain_size() > 200);
        let db2 = star_database(1000, 1);
        assert_eq!(db.cardinality(), db2.cardinality(), "deterministic");
    }

    #[test]
    fn churn_replays_effectively() {
        let ups = star_churn(100, 500, 2);
        assert_eq!(ups.len(), 500);
        let q = star_query();
        let mut db = Database::new(q.schema().clone());
        for u in &ups {
            assert!(db.apply(u));
        }
    }

    #[test]
    fn churn_matches_the_testutil_oracle_stream() {
        // The bench stream IS a testutil stream — no translation layer.
        let q = star_query();
        let direct = effective_churn(
            q.schema(),
            7 ^ 0x5747,
            WorkloadConfig {
                steps: 64,
                domain: 100,
                insert_permille: 550,
            },
        );
        assert_eq!(star_churn(100, 64, 7), direct);
    }

    #[test]
    fn sweep_is_geometric() {
        assert_eq!(sweep(100, 4, 3), vec![100, 400, 1600]);
    }
}
