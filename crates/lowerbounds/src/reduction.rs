//! The paper's lower-bound reductions, as executable code.
//!
//! Section 5 proves hardness by turning an online matrix problem into a
//! stream of database updates against a fixed query. Running these
//! reductions serves two purposes here:
//!
//! 1. **Correctness witnesses** — solving OMv/OuMv/OV *through* a dynamic
//!    CQ engine and checking against the naive solvers validates both the
//!    encodings (Lemmas 5.3–5.5, Section 5.4) and the engines.
//! 2. **Empirical hardness** — the harness times the per-round cost of the
//!    reductions; by Theorems 3.3–3.5 no engine can make all rounds
//!    `O(n^{1-ε})` unless OMv/OV fail, and the measured growth illustrates
//!    the dichotomy's hard side.

use crate::omv::{OmvInstance, OuMvInstance, OvInstance};
use cqu_common::{BitSet, FxHashSet};
use cqu_dynamic::Standalone;
use cqu_query::hierarchical::Violation;
use cqu_query::{parse_query, Query, RelId};
use cqu_storage::{Const, Update};

/// `ϕ'_S-E-T = ∃x∃y (Sx ∧ Exy ∧ Ty)` — Eq. (3), the Boolean hard query.
pub fn phi_set_boolean() -> Query {
    parse_query("Q() :- S(x), E(x, y), T(y).").unwrap()
}

/// `ϕ_S-E-T(x, y) = (Sx ∧ Exy ∧ Ty)` — Eq. (2), the join hard query.
pub fn phi_set_join() -> Query {
    parse_query("Q(x, y) :- S(x), E(x, y), T(y).").unwrap()
}

/// `ϕ_E-T(x) = ∃y (Exy ∧ Ty)` — Eq. (4), hard for enumeration/counting.
pub fn phi_et() -> Query {
    parse_query("Q(x) :- E(x, y), T(y).").unwrap()
}

/// Applies the updates needed to change relation `rel` from `current` to
/// `desired` through `engine`, and replaces `current`.
fn sync_relation(
    engine: &mut Standalone,
    rel: RelId,
    current: &mut FxHashSet<Vec<Const>>,
    desired: FxHashSet<Vec<Const>>,
) -> usize {
    let mut ops = 0;
    for t in current.iter() {
        if !desired.contains(t) {
            engine.apply(&Update::Delete(rel, t.clone()));
            ops += 1;
        }
    }
    for t in desired.iter() {
        if !current.contains(t) {
            engine.apply(&Update::Insert(rel, t.clone()));
            ops += 1;
        }
    }
    *current = desired;
    ops
}

/// Lemma 5.3: solves OuMv through a Boolean `ϕ'_S-E-T` engine.
///
/// `engine` must be a freshly built engine for [`phi_set_boolean`] over the
/// empty database. Returns the round answers `(uᵗ)ᵀ M vᵗ`.
pub fn oumv_via_boolean_set(instance: &OuMvInstance, engine: &mut Standalone) -> Vec<bool> {
    let schema = engine.query().schema();
    let s = schema.relation("S").expect("phi_set schema");
    let e = schema.relation("E").expect("phi_set schema");
    let t = schema.relation("T").expect("phi_set schema");
    let n = instance.n();
    // Domain: row i ↦ a_i = i+1, column j ↦ b_j = n+j+1.
    let row = |i: usize| (i + 1) as Const;
    let col = |j: usize| (n + j + 1) as Const;
    // Preprocessing: E encodes M (≤ n² updates).
    for i in 0..n {
        for j in 0..n {
            if instance.matrix.get(i, j) {
                engine.apply(&Update::Insert(e, vec![row(i), col(j)]));
            }
        }
    }
    let mut cur_s: FxHashSet<Vec<Const>> = FxHashSet::default();
    let mut cur_t: FxHashSet<Vec<Const>> = FxHashSet::default();
    let mut answers = Vec::with_capacity(n);
    for (u, v) in &instance.pairs {
        let want_s: FxHashSet<Vec<Const>> = u.iter_ones().map(|i| vec![row(i)]).collect();
        let want_t: FxHashSet<Vec<Const>> = v.iter_ones().map(|j| vec![col(j)]).collect();
        sync_relation(engine, s, &mut cur_s, want_s);
        sync_relation(engine, t, &mut cur_t, want_t);
        answers.push(engine.answer());
    }
    answers
}

/// Lemma 5.4: solves OMv through enumeration of `ϕ_E-T(x) = ∃y (Exy ∧ Ty)`.
///
/// `engine` must be a freshly built engine for [`phi_et`] over the empty
/// database. Returns the products `M vᵗ`.
pub fn omv_via_enumeration(instance: &OmvInstance, engine: &mut Standalone) -> Vec<BitSet> {
    let schema = engine.query().schema();
    let e = schema.relation("E").expect("phi_et schema");
    let t = schema.relation("T").expect("phi_et schema");
    let n = instance.n();
    let row = |i: usize| (i + 1) as Const;
    let col = |j: usize| (n + j + 1) as Const;
    for i in 0..n {
        for j in 0..n {
            if instance.matrix.get(i, j) {
                engine.apply(&Update::Insert(e, vec![row(i), col(j)]));
            }
        }
    }
    let mut cur_t: FxHashSet<Vec<Const>> = FxHashSet::default();
    let mut out = Vec::with_capacity(n);
    for v in &instance.vectors {
        let want_t: FxHashSet<Vec<Const>> = v.iter_ones().map(|j| vec![col(j)]).collect();
        sync_relation(engine, t, &mut cur_t, want_t);
        // ϕ_E-T(D) = { a_i : (Mv)_i = 1 }.
        let mut result = BitSet::zeros(n);
        for tuple in engine.enumerate() {
            let i = (tuple[0] - 1) as usize;
            result.set(i, true);
        }
        out.push(result);
    }
    out
}

/// Lemma 5.5: solves OV through counting of `ϕ_E-T`.
///
/// `engine` must be a freshly built engine for [`phi_et`] over the empty
/// database. Returns `true` iff some `u ∈ U, v ∈ V` are orthogonal.
pub fn ov_via_counting(instance: &OvInstance, engine: &mut Standalone) -> bool {
    let schema = engine.query().schema();
    let e = schema.relation("E").expect("phi_et schema");
    let t = schema.relation("T").expect("phi_et schema");
    let n = instance.n();
    let d = instance.d();
    let row = |i: usize| (i + 1) as Const;
    let dim = |j: usize| (n + j + 1) as Const;
    // E ⊆ [n] × [d] encodes the vectors of U (≤ nd updates).
    for (i, u) in instance.u.iter().enumerate() {
        for j in u.iter_ones() {
            engine.apply(&Update::Insert(e, vec![row(i), dim(j)]));
        }
    }
    let mut cur_t: FxHashSet<Vec<Const>> = FxHashSet::default();
    for v in &instance.v {
        let want_t: FxHashSet<Vec<Const>> = v.iter_ones().map(|j| vec![dim(j)]).collect();
        sync_relation(engine, t, &mut cur_t, want_t);
        // |ϕ_E-T(D)| = #{ i : uⁱ ⋅ v ≠ 0 } < n  ⇔  some uⁱ ⊥ v.
        if engine.count() < n as u64 {
            return true;
        }
        let _ = d;
    }
    false
}

/// The generic Section 5.4 encoding `D(ϕ, M, u, v)` for a Boolean core `ϕ`
/// violating condition (i) of Definition 3.1, and the induced OuMv solver.
///
/// `core` must be its own homomorphic core (Claim 5.7's hypothesis) and
/// `violation` an [`Violation::Incomparable`] over it. The constant map
/// `ι_{i,j}` sends `x ↦ a_i = i+1`, `y ↦ b_j = n+j+1`, and every other
/// variable `z_s ↦ c_s = 2n+s+1`.
pub fn oumv_via_core(
    core: &Query,
    violation: &Violation,
    instance: &OuMvInstance,
    engine: &mut Standalone,
) -> Vec<bool> {
    let (x, y, psi_x, psi_xy, psi_y) = match violation {
        Violation::Incomparable {
            x,
            y,
            psi_x,
            psi_xy,
            psi_y,
        } => (*x, *y, *psi_x, *psi_xy, *psi_y),
        Violation::FreeQuantified { .. } => {
            panic!("oumv_via_core requires a condition-(i) violation")
        }
    };
    assert!(
        core.is_boolean(),
        "Theorem 3.4's reduction targets Boolean cores"
    );
    let n = instance.n();
    let a = |i: usize| (i + 1) as Const;
    let b = |j: usize| (n + j + 1) as Const;
    let c = |s: usize| (2 * n + s + 1) as Const;
    // ι_{i,j} applied to an atom's argument list.
    let iota = |aid: usize, i: usize, j: usize| -> Vec<Const> {
        core.atom(aid)
            .args
            .iter()
            .map(|&w| {
                if w == x {
                    a(i)
                } else if w == y {
                    b(j)
                } else {
                    c(w.index())
                }
            })
            .collect()
    };
    // Desired relation contents as a function of (u, v): per atom ψ the
    // tuple set prescribed by Section 5.4, unioned per relation symbol.
    let desired = |u: &BitSet, v: &BitSet| -> Vec<FxHashSet<Vec<Const>>> {
        let mut rels: Vec<FxHashSet<Vec<Const>>> = vec![FxHashSet::default(); core.schema().len()];
        for (aid, atom) in core.atoms().iter().enumerate() {
            let dst = &mut rels[atom.relation.index()];
            let has_x = atom.contains(x);
            let has_y = atom.contains(y);
            if aid == psi_x {
                for i in u.iter_ones() {
                    dst.insert(iota(aid, i, 0));
                }
            } else if aid == psi_y {
                for j in v.iter_ones() {
                    dst.insert(iota(aid, 0, j));
                }
            } else if aid == psi_xy {
                for i in 0..n {
                    for j in 0..n {
                        if instance.matrix.get(i, j) {
                            dst.insert(iota(aid, i, j));
                        }
                    }
                }
            } else {
                // All (i, j); the tuple only depends on the variables the
                // atom actually contains, so enumerate the needed ranges.
                match (has_x, has_y) {
                    (true, true) => {
                        for i in 0..n {
                            for j in 0..n {
                                dst.insert(iota(aid, i, j));
                            }
                        }
                    }
                    (true, false) => {
                        for i in 0..n {
                            dst.insert(iota(aid, i, 0));
                        }
                    }
                    (false, true) => {
                        for j in 0..n {
                            dst.insert(iota(aid, 0, j));
                        }
                    }
                    (false, false) => {
                        dst.insert(iota(aid, 0, 0));
                    }
                }
            }
        }
        rels
    };
    let zero = BitSet::zeros(n);
    let mut current = vec![FxHashSet::default(); core.schema().len()];
    // Preprocessing with u = v = 0.
    let want0 = desired(&zero, &zero);
    for (ri, want) in want0.into_iter().enumerate() {
        sync_relation(engine, RelId(ri as u32), &mut current[ri], want);
    }
    let mut answers = Vec::with_capacity(n);
    for (u, v) in &instance.pairs {
        let want = desired(u, v);
        for (ri, w) in want.into_iter().enumerate() {
            sync_relation(engine, RelId(ri as u32), &mut current[ri], w);
        }
        answers.push(engine.answer());
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_baseline::{DeltaIvmView, RecomputeEngine};
    use cqu_query::{core_of, hierarchical::q_hierarchical_violation};

    #[test]
    fn oumv_reduction_matches_naive_recompute() {
        for seed in 0..3 {
            let inst = OuMvInstance::random(9, 0.25, seed);
            let q = phi_set_boolean();
            let mut engine = Standalone::from_empty(RecomputeEngine::empty(&q));
            let got = oumv_via_boolean_set(&inst, &mut engine);
            assert_eq!(got, inst.solve_naive(), "seed {seed}");
        }
    }

    #[test]
    fn oumv_reduction_matches_naive_ivm() {
        let inst = OuMvInstance::random(8, 0.35, 11);
        let q = phi_set_boolean();
        let mut engine = Standalone::from_empty(DeltaIvmView::empty(&q));
        assert_eq!(oumv_via_boolean_set(&inst, &mut engine), inst.solve_naive());
    }

    #[test]
    fn omv_reduction_matches_naive() {
        for seed in [5, 6] {
            let inst = OmvInstance::random(10, 0.3, seed);
            let q = phi_et();
            let mut engine = Standalone::from_empty(RecomputeEngine::empty(&q));
            let got = omv_via_enumeration(&inst, &mut engine);
            assert_eq!(got, inst.solve_naive(), "seed {seed}");
        }
    }

    #[test]
    fn ov_reduction_matches_naive() {
        for seed in 0..6 {
            // Mix of densities so both answers occur.
            let density = if seed % 2 == 0 { 0.35 } else { 0.85 };
            let inst = OvInstance::random(12, density, seed);
            let q = phi_et();
            let mut engine = Standalone::from_empty(RecomputeEngine::empty(&q));
            let got = ov_via_counting(&inst, &mut engine);
            assert_eq!(got, inst.solve_naive(), "seed {seed} density {density}");
        }
    }

    #[test]
    fn generic_encoding_on_phi_set_itself() {
        let q = phi_set_boolean();
        let core = core_of(&q);
        let violation = q_hierarchical_violation(&core).unwrap();
        let inst = OuMvInstance::random(7, 0.3, 21);
        let mut engine = Standalone::from_empty(RecomputeEngine::empty(&core));
        let got = oumv_via_core(&core, &violation, &inst, &mut engine);
        assert_eq!(got, inst.solve_naive());
    }

    #[test]
    fn generic_encoding_on_self_join_path_core() {
        // ∃x∃y∃z∃w (Exy ∧ Eyz ∧ Ezw): a non-hierarchical Boolean core with
        // self-joins — exactly the case Theorem 3.4 needs the generic
        // encoding plus Claims 5.6/5.7 for.
        let q = parse_query("Q() :- E(x, y), E(y, z), E(z, w).").unwrap();
        let core = core_of(&q);
        assert_eq!(core.atoms().len(), 3, "the 3-path is its own core");
        let violation = q_hierarchical_violation(&core).unwrap();
        assert!(matches!(violation, Violation::Incomparable { .. }));
        for seed in [1, 2, 3] {
            let inst = OuMvInstance::random(6, 0.4, seed);
            let mut engine = Standalone::from_empty(RecomputeEngine::empty(&core));
            let got = oumv_via_core(&core, &violation, &inst, &mut engine);
            assert_eq!(got, inst.solve_naive(), "seed {seed}");
        }
    }

    #[test]
    fn generic_encoding_with_extra_relation() {
        // A core with a spectator atom (contains neither x nor y).
        let q = parse_query("Q() :- S(x), E(x, y), T(y), U(w).").unwrap();
        let core = core_of(&q);
        let violation = q_hierarchical_violation(&core).unwrap();
        let inst = OuMvInstance::random(6, 0.3, 8);
        let mut engine = Standalone::from_empty(RecomputeEngine::empty(&core));
        let got = oumv_via_core(&core, &violation, &inst, &mut engine);
        assert_eq!(got, inst.solve_naive());
    }
}
