//! The four workloads' inputs: queries, data shape, batch size — and the
//! generated [`Inputs`] every stack (bare engine to full pipeline) is
//! built from.

use crate::gen::{RelGen, Script, Shape};
use crate::stats::Fnv1a;
use cq_updates::prelude::*;
use cq_updates::query::RelId;

/// One workload's static description.
pub struct Scenario {
    /// Workload name (also `--workload`).
    pub name: &'static str,
    /// Why the workload exists; copied into `BENCHMARK.json`.
    pub why: &'static str,
    /// `(name, source)` of every registered query, in registration
    /// order. The first is q-hierarchical and is the one subscribers
    /// and readers follow.
    pub queries: &'static [(&'static str, &'static str)],
    /// The engine each query must be routed to; a run fails if the
    /// classifier starts routing differently.
    pub kinds: &'static [EngineKind],
    /// Updates per commit.
    pub batch: usize,
    /// Whether the durable rungs use `create_sharded`.
    pub sharded: bool,
    /// Stream shape.
    pub shape: Shape,
    /// Relation generators at a given scale.
    pub rels: fn(usize) -> Vec<RelGen>,
    /// Scale of the measured run, of the trace ladder, and of the small
    /// end of the flatness comparison.
    pub scale: usize,
    /// See `scale`.
    pub ladder_scale: usize,
    /// See `scale`.
    pub small_scale: usize,
    /// Forward steps of the script at full scale.
    pub steps: usize,
    /// Times set-up and recovery are each repeated within a round.
    pub setup_reps: usize,
    /// See `setup_reps`.
    pub recovery_reps: usize,
    /// Independent rounds per end-to-end run (see `RunCfg::reps`); fewer
    /// where one round's set-up, recovery and check cost seconds.
    pub rounds: usize,
    /// Idle seconds between two rounds. The host's slow spells last
    /// about a minute; rounds spaced out sample a longer stretch of its
    /// mood, so that fewer runs in a row fall wholly inside one spell.
    pub round_gap_s: f64,
    /// FNV-1a of the full-scale script for seed 1.
    pub fingerprint_seed1: u64,
}

fn star_rels(k: usize) -> Vec<RelGen> {
    let x = k as u64;
    vec![
        RelGen::new("R", &[x, 16], 3 * k),
        RelGen::new("S", &[x, 16], 3 * k),
        RelGen::new("T", &[x], 7 * k / 10),
    ]
}

fn mixed_rels(k: usize) -> Vec<RelGen> {
    // Raw streams settle at the insert probability, so every relation is
    // preloaded to 60 % of its tuple space.
    let d = k as u64;
    let dense = |space: usize| space * 6 / 10;
    vec![
        RelGen::new("E", &[d, d], dense(k * k)),
        RelGen::new("T", &[d], dense(k)),
        RelGen::new("S", &[d], dense(k)),
        RelGen::new("R", &[4 * d, 16], dense(64 * k)),
        RelGen::new("U", &[4 * d, 16], dense(64 * k)),
        RelGen::new("V", &[4 * d], dense(4 * k)),
    ]
}

fn sharded_rels(k: usize) -> Vec<RelGen> {
    let x = k as u64;
    vec![
        RelGen::new("E1", &[x, 64], 16 * k),
        RelGen::new("T1", &[64], 32),
        RelGen::new("E2", &[x, 64], 16 * k),
        RelGen::new("T2", &[64], 32),
    ]
}

fn stack_rels(k: usize) -> Vec<RelGen> {
    // Ten followers per creator and ten posts per creator: a post or a
    // follow edge changes about ten feed rows.
    let n = k as u64;
    vec![
        RelGen::new("Follows", &[n, n], 10 * k),
        RelGen::new("Posts", &[n, 1 << 32], 10 * k),
        RelGen::new("E", &[n, 64], 16 * k),
        RelGen::new("T", &[64], 32),
    ]
}

/// The paper's promises with no system around them.
pub const ENGINE_FLOOR: Scenario = Scenario {
    name: "engine_floor",
    why: "bare QhEngine, star query, 7e5 tuples: the paper's O(1) update, count and constant-delay enumeration with no system around them; the floor of every overhead ratio, unmoved by the surround",
    queries: &[("star", "Q(x, y, z) :- R(x, y), S(x, z), T(x).")],
    kinds: &[EngineKind::QHierarchical],
    batch: 256,
    sharded: false,
    shape: Shape::Effective { window: 256 },
    rels: star_rels,
    scale: 100_000,
    ladder_scale: 10_000,
    small_scale: 1_000,
    steps: 1 << 18,
    setup_reps: 1,
    recovery_reps: 2,
    rounds: 3,
    round_gap_s: 0.0,
    fingerprint_seed1: 0x1c62_f087_9231_3302,
};

/// Session dispatch, netting, epochs and delta-IVM, reads beside writes.
pub const SESSION_MIXED: Scenario = Scenario {
    name: "session_mixed",
    why: "in-memory SharedSession, two q-hierarchical queries, one delta-IVM; commits of 32 with no-ops beside a reader retaining pins: session, epochs, copy-on-write dominate; writers may gain at readers' cost",
    queries: &[
        ("pairs", "Q(x, y) :- E(x, y), T(y)."),
        ("star", "Q(x, y, z) :- R(x, y), U(x, z), V(x)."),
        ("triads", "Q(x, y) :- S(x), E(x, y), T(y)."),
    ],
    kinds: &[
        EngineKind::QHierarchical,
        EngineKind::QHierarchical,
        EngineKind::DeltaIvm,
    ],
    batch: 32,
    sharded: false,
    shape: Shape::Raw {
        insert_permille: 600,
    },
    rels: mixed_rels,
    scale: 256,
    ladder_scale: 128,
    small_scale: 32,
    steps: 1 << 17,
    setup_reps: 7,
    recovery_reps: 7,
    rounds: 7,
    round_gap_s: 0.0,
    fingerprint_seed1: 0xf7f0_466f_fc7b_fb2a,
};

/// The durable commit path under a modelled device flush.
pub const DURABLE_SHARDED: Scenario = Scenario {
    name: "durable_sharded",
    why: "sharded DurableSession, fsync Always over a modelled 250us flush, two writers on disjoint shards, then checkpoint, tail, strict-view recovery: the durable mutex and one fsync per commit dominate",
    queries: &[
        ("left", "Q(x, y) :- E1(x, y), T1(y)."),
        ("right", "Q(x, y) :- E2(x, y), T2(y)."),
    ],
    kinds: &[EngineKind::QHierarchical, EngineKind::QHierarchical],
    batch: 8,
    sharded: true,
    shape: Shape::Effective { window: 8 },
    rels: sharded_rels,
    scale: 1024,
    ladder_scale: 256,
    small_scale: 16,
    steps: 1 << 16,
    setup_reps: 11,
    recovery_reps: 21,
    rounds: 5,
    round_gap_s: 0.0,
    fingerprint_seed1: 0x9f15_872f_36a2_411f,
};

/// Client-submit to subscriber and to replica.
pub const FULL_STACK: Scenario = Scenario {
    name: "full_stack",
    why: "leader (fsync Never), one TCP subscriber and one replica on loopback, closed-loop saturation, then open loop at a fixed rate: serve, repl, codecs dominate; submit-to-subscriber and -replica latency",
    queries: &[
        ("feed", "Feed(u, v, p) :- Follows(u, v), Posts(v, p)."),
        ("pairs", "Q(x, y) :- E(x, y), T(y)."),
    ],
    kinds: &[EngineKind::QHierarchical, EngineKind::QHierarchical],
    batch: 16,
    sharded: false,
    shape: Shape::Effective { window: 16 },
    rels: stack_rels,
    scale: 120,
    ladder_scale: 120,
    small_scale: 50,
    steps: 1 << 16,
    setup_reps: 3,
    recovery_reps: 7,
    rounds: 9,
    round_gap_s: 1.5,
    fingerprint_seed1: 0xda22_114f_f910_54c8,
};

/// Every workload, in reporting order.
pub const ALL: [&Scenario; 4] = [&ENGINE_FLOOR, &SESSION_MIXED, &DURABLE_SHARDED, &FULL_STACK];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Scenario> {
    ALL.into_iter().find(|s| s.name == name)
}

/// Everything generated for one scenario at one scale and seed.
pub struct Inputs {
    /// The union schema a session registering the queries in order
    /// builds; every update of `script` is expressed in it.
    pub schema: Schema,
    /// `(name, query over the union schema, routed engine)`.
    pub queries: Vec<(String, Query, EngineKind)>,
    /// Preload and stream.
    pub script: Script,
}

impl Scenario {
    /// Generates the inputs. The script seed mixes the workload name
    /// in, so one `--seed` gives the workloads unrelated streams.
    pub fn inputs(&self, scale: usize, steps: usize, seed: u64) -> Inputs {
        let mut session = Session::new();
        for (name, src) in self.queries {
            session
                .register(name, src)
                .unwrap_or_else(|e| panic!("scenario query {name}: {e}"));
        }
        let schema = session.schema().clone();
        let queries = session
            .queries()
            .map(|h| (h.name().to_string(), onto(h.query(), &schema), h.kind()))
            .collect();
        let mut h = Fnv1a::default();
        h.write(self.name.as_bytes());
        h.write_u64(seed);
        let script = Script::generate(&schema, &(self.rels)(scale), h.0, steps, self.shape);
        Inputs {
            schema,
            queries,
            script,
        }
    }

    /// Forward steps for a scaled-down run: proportional to the scale,
    /// a multiple of 256 and of the batch, at least four blocks.
    pub fn steps_at(&self, scale: usize) -> usize {
        let steps = self.steps * scale / self.scale;
        (steps / 256).max(4) * 256
    }
}

/// Rebuilds `query` over `schema`. A session keeps each query over the
/// schema as it stood when the query was registered; bare engines and
/// the oracle are handed databases over the final union schema, so
/// their queries must be expressed in it too.
fn onto(query: &Query, schema: &Schema) -> Query {
    let theirs = query.schema();
    let mut b = QueryBuilder::with_schema(query.name(), schema.clone());
    for atom in query.atoms() {
        let args: Vec<Var> = atom
            .args
            .iter()
            .map(|&v| b.var(query.var_name(v)))
            .collect();
        b.atom(theirs.name(atom.relation), &args)
            .expect("relation exists in the union schema");
    }
    let free: Vec<Var> = query
        .free()
        .iter()
        .map(|&v| b.var(query.var_name(v)))
        .collect();
    b.head(&free)
        .build()
        .expect("same query over a wider schema")
}

impl Inputs {
    /// Relations `query` reads, as a membership test over [`RelId`]s —
    /// the routing a session applies before handing updates to an
    /// engine.
    pub fn footprint(query: &Query) -> impl Fn(RelId) -> bool {
        let rels: Vec<RelId> = query.atoms().iter().map(|a| a.relation).collect();
        move |r| rels.contains(&r)
    }
}
