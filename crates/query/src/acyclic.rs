//! α-acyclicity (GYO reduction) and the free-connex property.
//!
//! The paper situates q-hierarchical queries strictly inside the
//! *free-connex acyclic* queries of Bagan, Durand, Grandjean \[4\]: every
//! q-hierarchical CQ is free-connex (so it enjoys static constant-delay
//! enumeration), but some free-connex queries — e.g. `ϕ_S-E-T` — are not
//! q-hierarchical and are hard to maintain *under updates*. This module
//! provides the classical notions so tests and the classifier can exhibit
//! that strict inclusion.

use crate::ast::{Query, Var};

/// Returns `true` if the query's hypergraph is α-acyclic (GYO reduction
/// succeeds).
///
/// GYO: repeatedly (a) delete vertices occurring in at most one hyperedge,
/// and (b) delete hyperedges contained in other hyperedges; the hypergraph
/// is acyclic iff this empties it.
pub fn is_acyclic(q: &Query) -> bool {
    let edges: Vec<Vec<Var>> = q.atoms().iter().map(|a| a.vars()).collect();
    gyo_reduces(edges)
}

/// Returns `true` if the query is free-connex: it is acyclic and remains
/// acyclic after adding a virtual hyperedge covering exactly `free(ϕ)`.
///
/// For Boolean queries this coincides with acyclicity; for quantifier-free
/// queries it also coincides with acyclicity (the head edge is the union of
/// an acyclic hypergraph's vertices — handled by the general reduction).
pub fn is_free_connex(q: &Query) -> bool {
    if !is_acyclic(q) {
        return false;
    }
    if q.free().is_empty() {
        return true;
    }
    let mut edges: Vec<Vec<Var>> = q.atoms().iter().map(|a| a.vars()).collect();
    edges.push(q.free().to_vec());
    gyo_reduces(edges)
}

/// Runs the GYO reduction on a list of hyperedges.
fn gyo_reduces(mut edges: Vec<Vec<Var>>) -> bool {
    loop {
        let mut changed = false;
        // (a) Remove vertices that occur in at most one hyperedge.
        let mut counts: std::collections::BTreeMap<Var, usize> = std::collections::BTreeMap::new();
        for e in &edges {
            for &v in e {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        for e in &mut edges {
            let before = e.len();
            e.retain(|v| counts[v] > 1);
            if e.len() != before {
                changed = true;
            }
        }
        // Drop empty edges.
        let before = edges.len();
        edges.retain(|e| !e.is_empty());
        if edges.len() != before {
            changed = true;
        }
        // (b) Remove hyperedges contained in another hyperedge.
        let mut keep: Vec<bool> = vec![true; edges.len()];
        for i in 0..edges.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..edges.len() {
                if i == j || !keep[j] {
                    continue;
                }
                let subset = edges[i].iter().all(|v| edges[j].contains(v));
                if subset {
                    // Break ties on equal edges by index so exactly one
                    // survives.
                    if edges[i].len() < edges[j].len()
                        || (edges[i].len() == edges[j].len() && i > j)
                    {
                        keep[i] = false;
                        changed = true;
                        break;
                    }
                }
            }
        }
        if keep.iter().any(|k| !k) {
            let mut it = keep.iter();
            edges.retain(|_| *it.next().unwrap());
        }
        if edges.is_empty() {
            return true;
        }
        if !changed {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::is_q_hierarchical;
    use crate::parse_query;

    #[test]
    fn acyclic_examples() {
        for src in [
            "Q(x, y) :- S(x), E(x, y), T(y).",
            "Q() :- R(x, y), S(y, z), T(z, w).",
            "Q(x) :- R(x, y, z), S(y, z).",
            "Q(x) :- R(x).",
        ] {
            assert!(is_acyclic(&parse_query(src).unwrap()), "{src}");
        }
    }

    #[test]
    fn triangle_is_cyclic() {
        let q = parse_query("Q() :- E(x,y), F(y,z), G(z,x).").unwrap();
        assert!(!is_acyclic(&q));
        assert!(!is_free_connex(&q));
    }

    #[test]
    fn cycle_of_length_four_is_cyclic() {
        let q = parse_query("Q() :- E(a,b), F(b,c), G(c,d), H(d,a).").unwrap();
        assert!(!is_acyclic(&q));
    }

    #[test]
    fn s_e_t_is_free_connex_but_not_q_hierarchical() {
        // The paper's separating example: efficiently enumerable statically,
        // hard under updates.
        let q = parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap();
        assert!(is_free_connex(&q));
        assert!(!is_q_hierarchical(&q));
    }

    #[test]
    fn path_projection_not_free_connex() {
        // Q(x, z) :- R(x, y), S(y, z): the classical acyclic non-free-connex
        // query (head edge {x,z} creates a cycle with the path).
        let q = parse_query("Q(x, z) :- R(x, y), S(y, z).").unwrap();
        assert!(is_acyclic(&q));
        assert!(!is_free_connex(&q));
    }

    #[test]
    fn q_hierarchical_implies_free_connex() {
        // Strict inclusion (one direction) over a catalogue.
        let sources = [
            "Q(x, y) :- E(x, y), T(y).",
            "Q(y) :- E(x, y), T(y).",
            "Q() :- S(x), E(x, y), T(y).",
            "Q(x, y, z) :- R(x, y), S(x, z), T(x).",
            "Q(x, y, z, y', z') :- R(x,y,z), R(x,y,z'), E(x,y), E(x,y'), S(x,y,z).",
            "Q(x1, x2, x3) :- E(x1,x2), R(x4,x1,x2,x1), R(x5,x3,x2,x1).",
            "Q() :- E(x, y), T(y).",
            "Q(a) :- R(a, b), R(a, c).",
        ];
        for src in sources {
            let q = parse_query(src).unwrap();
            if is_q_hierarchical(&q) {
                assert!(is_acyclic(&q), "{src}");
                assert!(is_free_connex(&q), "{src}");
            }
        }
    }

    #[test]
    fn boolean_free_connex_equals_acyclic() {
        let q = parse_query("Q() :- E(x,y), F(y,z), G(z,x).").unwrap();
        assert_eq!(is_free_connex(&q), is_acyclic(&q));
        let q2 = parse_query("Q() :- E(x,y), F(y,z).").unwrap();
        assert_eq!(is_free_connex(&q2), is_acyclic(&q2));
    }

    #[test]
    fn full_acyclic_query_is_free_connex() {
        let q = parse_query("Q(x, y, z) :- R(x, y), S(y, z).").unwrap();
        assert!(is_free_connex(&q));
    }
}
