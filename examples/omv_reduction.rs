//! The lower-bound machinery, end to end: solve online matrix-vector
//! problems *through* dynamic CQ engines (Lemmas 5.3–5.5) and watch the
//! per-round cost grow with `n` — the empirical face of the paper's
//! OMv/OV-conditional hardness.
//!
//! A `Session` with explicit [`EngineChoice::Forced`] overrides picks
//! the engines (the reductions need specific baselines, not the router's
//! choice); each reduction then drives a stand-alone engine of the kind
//! the session routed, one that owns its database — a session's engines
//! are maintained against the session's `D` and are not handed out.
//!
//! ```text
//! cargo run --release --example omv_reduction
//! ```

use cq_updates::dynamic::Standalone;
use cq_updates::lowerbounds::{
    omv_via_enumeration, oumv_via_boolean_set, ov_via_counting, phi_et, phi_set_boolean,
    OmvInstance, OuMvInstance, OvInstance,
};
use cq_updates::prelude::*;
use std::time::Instant;

/// A stand-alone engine over the empty database, of the kind a session
/// routes `q` to when registered as `name` with `kind` forced.
fn routed_engine(name: &str, q: &Query, kind: EngineKind) -> Box<Standalone> {
    let mut s = Session::new();
    s.register_query(name, q, EngineChoice::Forced(kind))
        .unwrap();
    let routed = s.query(name).unwrap().kind();
    assert_eq!(routed, kind);
    routed.build(q, &Database::new(q.schema().clone())).unwrap()
}

fn main() {
    println!(
        "OuMv through the Boolean query {} (Lemma 5.3)",
        phi_set_boolean()
    );
    println!(
        "{:>6} {:>14} {:>14} {:>10}",
        "n", "naive ms", "via-CQ ms", "correct"
    );
    for n in [64usize, 128, 256] {
        let inst = OuMvInstance::random(n, 0.08, 42);
        let t0 = Instant::now();
        let naive = inst.solve_naive();
        let t_naive = t0.elapsed().as_secs_f64() * 1e3;
        let mut engine = routed_engine("oumv", &phi_set_boolean(), EngineKind::DeltaIvm);
        let t1 = Instant::now();
        let via = oumv_via_boolean_set(&inst, &mut engine);
        let t_via = t1.elapsed().as_secs_f64() * 1e3;
        println!("{n:>6} {t_naive:>14.2} {t_via:>14.2} {:>10}", via == naive);
        assert_eq!(via, naive);
    }

    println!("\nOMv through enumeration of {} (Lemma 5.4)", phi_et());
    for n in [64usize, 128] {
        let inst = OmvInstance::random(n, 0.10, 7);
        let naive = inst.solve_naive();
        let mut engine = routed_engine("omv", &phi_et(), EngineKind::Recompute);
        let via = omv_via_enumeration(&inst, &mut engine);
        println!(
            "  n = {n}: reduction output matches naive M·v products: {}",
            via == naive
        );
        assert_eq!(via, naive);
    }

    println!("\nOV through counting of {} (Lemma 5.5)", phi_et());
    for (n, density) in [(512usize, 0.35), (512, 0.92), (1024, 0.92)] {
        let inst = OvInstance::random(n, density, 9);
        let naive = inst.solve_naive();
        let mut engine = routed_engine("ov", &phi_et(), EngineKind::DeltaIvm);
        let t0 = Instant::now();
        let via = ov_via_counting(&inst, &mut engine);
        println!(
            "  n = {n}, d = {}, density {density}: orthogonal pair = {via} \
             (naive agrees: {}) in {:.1} ms",
            inst.d(),
            via == naive,
            t0.elapsed().as_secs_f64() * 1e3
        );
        assert_eq!(via, naive);
    }

    println!(
        "\nTheorems 3.3–3.5: if any dynamic engine ran these reductions with \
         O(n^(1-ε)) update time and O(n^(1-ε)) delay/count time, the OMv or OV \
         conjecture would fail. The growth you see above is that barrier."
    );
}
