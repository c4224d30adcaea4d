//! A network-monitoring scenario with classification-driven engine
//! dispatch: tractable alert queries go to the paper's dynamic engine,
//! conditionally-hard ones fall back to delta-IVM — exactly the decision
//! the dichotomy (Theorems 1.1–1.3) lets a system make *statically*, and
//! exactly what `Session` automates.
//!
//! Both monitors live in **one session**, so they genuinely share the
//! `Conn` relation: every flow event is applied once and fans out to
//! both engines.
//!
//! Relations: `Conn(src, dst)` (live flows), `Blocklist(dst)`,
//! `Infected(src)`, `Critical(dst)`.
//!
//! ```text
//! cargo run --release --example network_monitor
//! ```

use cq_updates::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut session = Session::new();
    // Alert 1 — flows into blocklisted hosts. q-hierarchical: dst dominates.
    session
        .register(
            "blocked",
            "Blocked(src, dst) :- Conn(src, dst), Blocklist(dst).",
        )
        .unwrap();
    // Alert 2 — infected host talking to critical infrastructure. This is
    // ϕ_S-E-T in disguise: NOT q-hierarchical, conditionally hard.
    session
        .register(
            "breach",
            "Breach(src, dst) :- Infected(src), Conn(src, dst), Critical(dst).",
        )
        .unwrap();

    for h in session.queries() {
        println!(
            "{}\n  → {} ({:?})",
            h.query(),
            h.kind().name(),
            h.route_reason()
        );
    }
    assert_eq!(
        session.query("blocked").unwrap().kind(),
        EngineKind::QHierarchical
    );
    assert_eq!(
        session.query("breach").unwrap().kind(),
        EngineKind::DeltaIvm
    );

    // One shared schema: resolve each relation once.
    let conn = session.relation("Conn").unwrap();
    let bl = session.relation("Blocklist").unwrap();
    let inf = session.relation("Infected").unwrap();
    let crit = session.relation("Critical").unwrap();

    let mut rng = SmallRng::seed_from_u64(7);
    let host = |rng: &mut SmallRng| rng.gen_range(1..=5_000u64);

    // Static context: blocklist and critical assets, loaded as one batch.
    let mut context: Vec<Update> = Vec::new();
    for _ in 0..200 {
        let h = host(&mut rng);
        context.push(Update::Insert(bl, vec![h]));
        context.push(Update::Insert(crit, vec![h]));
    }
    for _ in 0..50 {
        context.push(Update::Insert(inf, vec![host(&mut rng)]));
    }
    let report = session.apply_batch(&context).unwrap();
    println!(
        "\ncontext loaded: {} facts ({} effective)",
        report.total, report.applied
    );

    // Flow churn hits both monitors through the single stream.
    let mut alerts1 = 0u64;
    for step in 0..50_000 {
        let (s, d) = (host(&mut rng), host(&mut rng));
        let up = if rng.gen_bool(0.7) {
            Update::Insert(conn, vec![s, d])
        } else {
            Update::Delete(conn, vec![s, d])
        };
        session.apply(&up).unwrap();
        // O(1) alert-count reads on every step for the tractable monitor;
        // sampled reads for the fallback.
        alerts1 = session.query("blocked").unwrap().count();
        if step % 10_000 == 0 {
            println!(
                "step {step:>6}: blocked = {alerts1}, breach = {}",
                session.query("breach").unwrap().count()
            );
        }
    }
    println!("\nblocked-flow alerts:  {alerts1}");
    println!(
        "breach alerts:        {}",
        session.query("breach").unwrap().count()
    );

    // Enumerate a few current alerts from each monitor.
    println!(
        "\nsample blocked flows: {:?}",
        session
            .query("blocked")
            .unwrap()
            .enumerate()
            .take(3)
            .collect::<Vec<_>>()
    );
    println!(
        "sample breaches:      {:?}",
        session
            .query("breach")
            .unwrap()
            .enumerate()
            .take(3)
            .collect::<Vec<_>>()
    );

    // Cross-check both monitors against from-scratch recompute twins
    // registered on the same session (seeded from the session's one database).
    session
        .register_with(
            "blocked_check",
            "Blocked(src, dst) :- Conn(src, dst), Blocklist(dst).",
            EngineChoice::Forced(EngineKind::Recompute),
        )
        .unwrap();
    session
        .register_with(
            "breach_check",
            "Breach(src, dst) :- Infected(src), Conn(src, dst), Critical(dst).",
            EngineChoice::Forced(EngineKind::Recompute),
        )
        .unwrap();
    assert_eq!(
        session.query("blocked_check").unwrap().count(),
        session.query("blocked").unwrap().count()
    );
    assert_eq!(
        session.query("breach_check").unwrap().count(),
        session.query("breach").unwrap().count()
    );
    println!("\ncross-check vs recompute: OK");
}
