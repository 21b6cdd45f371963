//! One workload run: set-up, warm-up, the timed op loop, and the metrics.
//!
//! One client thread drives the program closed-loop: each op waits for its
//! reply before the next is built. The benchmark times every op with its
//! own monotonic clock around the public call; query matrices are built,
//! and answers checked, outside that window.

use crate::gate;
use crate::inputs::{self, Inputs, Op, Shape};
use crate::stats::{self, Percentile};
use phom_cluster::codec::{self, FrameConfig, WireMessage};
use phom_cluster::transport::{ChannelHub, TransportTimeouts};
use phom_cluster::worker::{self, WorkerOptions};
use phom_cluster::{Router, RouterConfig, WorkerServer};
use phom_dynamic::GraphUpdate;
use phom_engine::{PlanKind, PlannerConfig, PrepareOptions, PreparedGraph, Query, UpdateStats};
use phom_graph::{
    component_groups, compress_closure_with, tarjan_scc, ChainIndex, DiGraph, NodeId,
    TransitiveClosure, TwoHopIndex, XorShift64,
};
use phom_service::{
    GraphInfo, QueryResponse, Request, Service, ServiceConfig, ShardingConfig, UpdateSummary,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry name of the benchmark's data graph with index `g`.
fn graph_name(g: usize) -> String {
    format!("bench-{g}")
}

/// Worker services behind the router of the traced `sharded-read` run.
const WORKERS: usize = 2;

/// Router set-ups in the traced `sharded-read` run; `cluster.register_ms`
/// is their median.
const ROUTED_SETUPS: usize = 5;

/// Transport timeouts, far above the slowest op so no answer, count or
/// retry depends on machine speed.
const TIMEOUTS: TransportTimeouts = TransportTimeouts {
    read: Duration::from_secs(120),
    write: Duration::from_secs(120),
};

/// Reachability probes per shard for `graph.reach_ns`.
const REACH_PROBES: usize = 200_000;

/// Which front end serves the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An in-process `Service` with default sharding.
    Sharded,
    /// A `Router` over in-process channel workers: no workload of its own;
    /// the traced `sharded-read` run serves its inputs this way too.
    Routed,
    /// An in-process `Service` over unsharded graphs.
    Live,
}

/// A workload: its front end, input shape and op budget.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name the command line and the results use.
    pub name: &'static str,
    /// The front end.
    pub kind: Kind,
    /// Input shape.
    pub shape: Shape,
    /// Queries per measured second: the op count is fixed from
    /// `--seconds` with this rate, never from elapsed time.
    pub queries_per_second: f64,
    /// Update batches per measured second.
    pub updates_per_second: f64,
    /// Set-ups per run, spread evenly over the run; the reported set-up
    /// time is their median.
    pub setups: usize,
}

/// Fewest queries in a run: `query_p99_ms` needs ten samples beyond it.
const MIN_QUERIES: usize = 1_000;
/// Fewest update batches in a run: `update_p95_ms` needs ten beyond it.
const MIN_UPDATES: usize = 200;

/// Parts, windows and query mix of `sharded-read`:
/// many small WCCs with distinct label pools, so most queries find
/// candidates in one shard and some span several. The cheapest class
/// (single-part exact plans) holds about four fifths of the queries, so
/// the median sits inside it rather than on the step above it, and the
/// three-part class (4%) is wide enough to hold the p99. Update batches
/// toggle write-only parts: toggles inside the queried parts took exact
/// branch and bound on a few patterns near the 64-pair cutoff from about
/// 0.25 ms to 7–86 ms as the run went on, so one seed's draw of toggles
/// decided `ops_per_s`. Windows stop at 13 nodes; the traced run probes exact
/// plans near the cutoff on their own.
const READ_SHAPE: Shape = Shape {
    graphs: 1,
    parts: 64,
    write_parts: 8,
    part_m: 40,
    noise: 0.10,
    xi: 0.75,
    window: (6, 13),
    parts_per_pattern: [90, 6, 4],
    patterns: 2_000,
    stretch_share: 0.1,
    stretch: 3,
    cliff_patterns: 200,
};

/// `live-mixed`: §6 data graphs with denser candidates, each served
/// unsharded. A run serves eight side by side, so its figures average
/// over eight instances: with one, the instance a seed drew (its closure
/// density and candidate counts) and its toggles moved query p50 by 10–20%
/// between seeds; with four, two seeds still differed by about 30% in
/// `ops_per_s`.
const LIVE_SHAPE: Shape = Shape {
    graphs: 8,
    parts: 1,
    write_parts: 0,
    part_m: 300,
    noise: 0.10,
    xi: 0.5,
    window: (12, 30),
    parts_per_pattern: [100, 0, 0],
    patterns: 2_000,
    stretch_share: 0.2,
    stretch: 3,
    cliff_patterns: 0,
};

/// The workloads, by name.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sharded-read",
        kind: Kind::Sharded,
        shape: READ_SHAPE,
        queries_per_second: 2_300.0,
        updates_per_second: 30.0,
        setups: 20,
    },
    Workload {
        name: "live-mixed",
        kind: Kind::Live,
        shape: LIVE_SHAPE,
        queries_per_second: 1_450.0,
        updates_per_second: 210.0,
        setups: 40,
    },
];

/// A router over worker services on an in-process hub. Fields drop in
/// declaration order: the router first, closing its connections, so each
/// worker's handler sees the disconnect before the worker's own drop
/// joins it.
struct Fleet {
    router: Router,
    workers: Vec<(Arc<Service<String>>, WorkerServer)>,
}

/// The front end one run drives.
enum Front {
    Local(Box<Service<String>>),
    Routed(Box<Fleet>),
}

impl Front {
    fn query(
        &self,
        graph: &str,
        query: &Query<String>,
        trace: bool,
    ) -> Result<QueryResponse, String> {
        match self {
            Front::Local(s) => s
                .query_traced(graph, query, trace)
                .map_err(|e| e.to_string()),
            Front::Routed(f) => f
                .router
                .query(graph, query, trace)
                .map_err(|e| e.to_string()),
        }
    }

    fn apply(&self, graph: &str, updates: &[GraphUpdate]) -> Result<UpdateSummary, String> {
        match self {
            Front::Local(s) => s.apply_updates(graph, updates).map_err(|e| e.to_string()),
            Front::Routed(f) => f
                .router
                .apply_updates(graph, updates)
                .map_err(|e| e.to_string()),
        }
    }
}

/// One set-up: from empty to ready to serve.
struct Setup {
    front: Front,
    seconds: f64,
    register_ms: f64,
    infos: Vec<GraphInfo>,
}

fn setup(kind: Kind, data: &[Arc<DiGraph<String>>]) -> Result<Setup, String> {
    let started = Instant::now();
    match kind {
        Kind::Sharded | Kind::Live => {
            // A live graph stays one shard whatever its WCC count.
            let sharding = match kind {
                Kind::Live => ShardingConfig::disabled(),
                _ => ShardingConfig::default(),
            };
            let service = Service::new(ServiceConfig::builder().sharding(sharding).build());
            let infos = data
                .iter()
                .enumerate()
                .map(|(g, d)| service.register(graph_name(g), Arc::clone(d)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("register: {e}"))?;
            Ok(Setup {
                front: Front::Local(Box::new(service)),
                seconds: started.elapsed().as_secs_f64(),
                register_ms: 0.0,
                infos,
            })
        }
        Kind::Routed => {
            let hub = ChannelHub::new();
            let mut addrs = Vec::with_capacity(WORKERS);
            let mut workers = Vec::with_capacity(WORKERS);
            for w in 0..WORKERS {
                let addr = format!("worker-{w}");
                let listener = hub.bind(&addr, TIMEOUTS, FrameConfig::default());
                let config = ServiceConfig::builder()
                    .sharding(ShardingConfig::disabled())
                    .build();
                workers.push(worker::spawn_service(
                    config,
                    Box::new(listener),
                    WorkerOptions::default(),
                ));
                addrs.push(addr);
            }
            let transport = Arc::new(hub.transport(TIMEOUTS, FrameConfig::default()));
            let fleet = Fleet {
                router: Router::connect(transport, &addrs, RouterConfig::default()),
                workers,
            };
            let register_started = Instant::now();
            let infos = data
                .iter()
                .enumerate()
                .map(|(g, d)| fleet.router.register(graph_name(g), Arc::clone(d)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("router register: {e}"))?;
            let register_ms = register_started.elapsed().as_secs_f64() * 1e3;
            Ok(Setup {
                front: Front::Routed(Box::new(fleet)),
                seconds: started.elapsed().as_secs_f64(),
                register_ms,
                infos,
            })
        }
    }
}

/// What a run reports.
pub struct Report {
    /// Ops attempted (warm-up included).
    pub attempted: u64,
    /// Ops that returned a typed error or failed the gate.
    pub failed: u64,
    /// The first failures, each naming its op.
    pub failures: Vec<String>,
    /// `(name, unit, value)`, end-to-end or per-layer per the run mode.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Percentiles behind the latency metrics: `(metric, percentile)`.
    pub percentiles: Vec<(&'static str, Percentile)>,
    /// Samples behind each end-to-end metric (untraced runs only).
    pub samples: Vec<(&'static str, usize)>,
    /// Queries and update batches in the op sequence, and warm-up queries.
    pub op_counts: (usize, usize, usize),
    /// Values that must repeat exactly across runs of one seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Layers the traced run cannot reach from outside, and why.
    pub unmeasured: Vec<(&'static str, &'static str)>,
    /// The serving set-up's registered graphs.
    pub graphs: Vec<GraphInfo>,
}

/// Failures kept for printing; the rest are only counted.
const FAILURES_SHOWN: usize = 20;

struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_SHOWN {
            self.failures.push(what);
        }
    }
}

/// Runs `workload` once.
pub fn run(workload: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let queries =
        ((workload.queries_per_second * seconds as f64).round() as usize).max(MIN_QUERIES);
    let updates =
        ((workload.updates_per_second * seconds as f64).round() as usize).max(MIN_UPDATES);
    let inputs = inputs::generate(&workload.shape, seed, queries, updates);
    let names: Vec<String> = (0..inputs.data.len()).map(graph_name).collect();

    // The first set-up serves. The others run between ops, spread evenly
    // over the run, so their median samples the machine across the whole
    // run rather than in one short window; each is dropped at once.
    let mut setup_seconds = Vec::with_capacity(workload.setups);
    let Setup {
        front,
        seconds: first_seconds,
        infos,
        ..
    } = setup(workload.kind, &inputs.data)?;
    setup_seconds.push(first_seconds);
    let setup_every = (inputs.ops.len() / workload.setups.max(1)).max(1);

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    // Warm-up: every distinct pattern once, untimed, to build the lazy
    // bounded closures and settle the allocator.
    for (i, spec) in inputs.patterns.iter().enumerate() {
        let query = spec.query();
        let graph = &names[spec.target];
        tally.attempted += 1;
        if let Err(e) = front.query(graph, &query, false) {
            tally.fail(format!("warm-up query of pattern {i}: {e}"));
        }
    }

    // The benchmark's own copies of the data graphs, kept in step with
    // the update batches: the gate checks answers against them.
    let mut data: Vec<DiGraph<String>> = inputs.data.iter().map(|d| (**d).clone()).collect();
    let mut layers = Layers::default();
    let mut query_ns: Vec<u64> = Vec::with_capacity(inputs.query_ops);
    let mut update_ns: Vec<u64> = Vec::with_capacity(inputs.update_ops);
    let (mut card_sum, mut sim_sum) = (0.0f64, 0.0f64);
    for (i, op) in inputs.ops.iter().enumerate() {
        if i > 0 && i % setup_every == 0 && setup_seconds.len() < workload.setups {
            setup_seconds.push(setup(workload.kind, &inputs.data)?.seconds);
        }
        tally.attempted += 1;
        match op {
            Op::Query(p) => {
                let spec = &inputs.patterns[*p];
                let query = spec.query();
                let graph = &names[spec.target];
                let outcome = if traced {
                    layers.matrix_cells += (query.matrix.n1() * query.matrix.n2()) as u64;
                    layers.matrix_candidates += query.matrix.candidate_pair_count(inputs.xi) as u64;
                    let shards = infos[spec.target].shards;
                    traced_query(&front, graph, &query, i, shards, None, &mut layers)
                } else {
                    let started = Instant::now();
                    let answer = front.query(graph, &query, false);
                    let ns = started.elapsed().as_nanos() as u64;
                    answer.map(|a| (a, ns))
                };
                let checked = outcome.and_then(|(answer, ns)| {
                    gate::check_answer(&query, &data[spec.target], &answer).map(|()| (answer, ns))
                });
                match checked {
                    Ok((answer, ns)) => {
                        query_ns.push(ns);
                        card_sum += answer.qual_card;
                        sim_sum += answer.qual_sim;
                    }
                    Err(e) => tally.fail(format!("op {i} (query of pattern {p}): {e}")),
                }
            }
            Op::Update(g, batch) => {
                let started = Instant::now();
                let summary = front.apply(&names[*g], batch);
                let ns = started.elapsed().as_nanos() as u64;
                for &u in batch {
                    u.apply_to(&mut data[*g]);
                }
                match summary.and_then(|s| gate::check_update(batch.len(), &s).map(|()| s)) {
                    Ok(summary) => {
                        update_ns.push(ns);
                        layers.record_update(ns, &summary);
                    }
                    Err(e) => tally.fail(format!("op {i} (update batch of {}): {e}", batch.len())),
                }
            }
        }
    }

    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    if traced {
        layers.exact_cliff_ms = exact_cliff_ms(&front, &names, &inputs, &data, &mut tally);
        if workload.kind == Kind::Sharded {
            routed_layers(&names, &inputs, &data, &mut layers, &mut tally)?;
        }
    }
    drop(front);

    let ok_queries = query_ns.len() as f64;
    let qual_card_mean = card_sum / ok_queries.max(1.0);
    let qual_sim_mean = sim_sum / ok_queries.max(1.0);
    let mut exact = vec![
        ("qual_card_mean", qual_card_mean),
        ("qual_sim_mean", qual_sim_mean),
    ];

    let mut percentiles = Vec::new();
    let mut samples = Vec::new();
    let metrics = if traced {
        layers.prepare_ms = infos.iter().map(|i| i.prepare_micros as f64).sum::<f64>() / 1e3;
        layers.index_mb = infos
            .iter()
            .map(|i| i.closure_memory_bytes as f64)
            .sum::<f64>()
            / (1u64 << 20) as f64;
        index_timings(&inputs.data, &infos, &mut layers);
        layers.reach_ns = reach_ns(&inputs.data, &infos, seed);
        let metrics = layers.finish();
        exact.push(("exact_probe_patterns", inputs.cliff.len() as f64));
        exact.extend(
            metrics
                .iter()
                .filter(|(name, _, _)| EXACT_LAYER_METRICS.contains(name))
                .map(|&(name, _, v)| (name, v)),
        );
        metrics
    } else {
        query_ns.sort_unstable();
        update_ns.sort_unstable();
        let completed_ns: u64 = query_ns.iter().chain(&update_ns).sum();
        let completed = (query_ns.len() + update_ns.len()) as f64;
        let q50 = stats::percentile(&query_ns, 0.50);
        let q99 = stats::percentile(&query_ns, 0.99);
        let u50 = stats::percentile(&update_ns, 0.50);
        let u95 = stats::percentile(&update_ns, 0.95);
        for (name, p) in [
            ("query_p50_ms", q50),
            ("query_p99_ms", q99),
            ("update_p50_ms", u50),
            ("update_p95_ms", u95),
        ] {
            if let Some(p) = p {
                percentiles.push((name, p));
            }
        }
        let ms = |p: Option<Percentile>| p.map_or(0.0, |p| p.value_ns as f64 / 1e6);
        let (queries, updates) = (query_ns.len(), update_ns.len());
        samples = vec![
            ("setup_s", setup_seconds.len()),
            ("ops_per_s", queries + updates),
            ("query_p50_ms", queries),
            ("query_p99_ms", queries),
            ("update_p50_ms", updates),
            ("update_p95_ms", updates),
            ("peak_rss_mb", 1),
            ("qual_card_mean", queries),
            ("qual_sim_mean", queries),
        ];
        vec![
            ("setup_s", "s", stats::median(&setup_seconds)),
            (
                "ops_per_s",
                "1/s",
                completed / (completed_ns as f64 / 1e9).max(1e-9),
            ),
            ("query_p50_ms", "ms", ms(q50)),
            ("query_p99_ms", "ms", ms(q99)),
            ("update_p50_ms", "ms", ms(u50)),
            ("update_p95_ms", "ms", ms(u95)),
            ("peak_rss_mb", "MiB", peak_rss_mb),
            ("qual_card_mean", "ratio", qual_card_mean),
            ("qual_sim_mean", "ratio", qual_sim_mean),
        ]
    };
    let unmeasured = if traced {
        unmeasured(workload.kind)
    } else {
        Vec::new()
    };
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        percentiles,
        samples,
        op_counts: (inputs.query_ops, inputs.update_ops, inputs.patterns.len()),
        exact,
        unmeasured,
        graphs: infos,
    })
}

/// Per-layer values that are counts or shares of counts, so they must
/// repeat exactly across runs of one seed.
const EXACT_LAYER_METRICS: [&str; 16] = [
    "service.shards_consulted",
    "service.shard_hit_ratio",
    "service.share_le2_shards",
    "service.reshards",
    "engine.plan_share_exact",
    "engine.plan_share_approx",
    "engine.plan_share_bounded",
    "core.restarts_taken",
    "core.candidate_pairs",
    "core.components",
    "core.extended_pairs",
    "dynamic.incremental_ratio",
    "dynamic.unchanged_ratio",
    "cluster.bytes_sent_per_query",
    "cluster.bytes_received_per_query",
    "sim.candidate_density",
];

/// Runs one query untraced and traced (alternating which goes first, so
/// neither always finds the caches the other warmed), records the traced
/// answer's spans and counters, and returns the traced answer with its
/// wall time. The untraced answer must equal the traced one; with a
/// reference service, so must the reference's.
fn traced_query(
    front: &Front,
    graph: &str,
    query: &Query<String>,
    op: usize,
    shards: usize,
    reference: Option<&Service<String>>,
    layers: &mut Layers,
) -> Result<(QueryResponse, u64), String> {
    let fleet = match front {
        Front::Routed(f) => Some(f),
        Front::Local(_) => None,
    };
    let mut plain = None;
    let mut run_plain = |layers: &mut Layers| -> Result<(), String> {
        let bytes_before = fleet.map(|f| f.router.stats());
        let started = Instant::now();
        let answer = front.query(graph, query, false)?;
        let ns = started.elapsed().as_nanos() as u64;
        if let (Some(f), Some(before)) = (fleet, bytes_before) {
            let after = f.router.stats();
            layers.bytes_sent += after.bytes_sent - before.bytes_sent;
            layers.bytes_received += after.bytes_received - before.bytes_received;
        }
        plain = Some((answer, ns));
        Ok(())
    };
    let plain_first = op.is_multiple_of(2);
    if plain_first {
        run_plain(layers)?;
    }
    // Read after the untraced query, so the records gained during the
    // traced call below are the traced query's alone.
    let flight_before: Vec<u64> = fleet
        .map(|f| f.workers.iter().map(|(s, _)| s.flight().total()).collect())
        .unwrap_or_default();
    let started = Instant::now();
    let traced = front.query(graph, query, true)?;
    let traced_ns = started.elapsed().as_nanos() as u64;
    // Worker-side service time of this traced query, from the records
    // each worker's flight recorder gained during it.
    if let Some(f) = fleet {
        for ((service, _), before) in f.workers.iter().zip(&flight_before) {
            let fresh = (service.flight().total() - before) as usize;
            let records = service.flight().snapshot();
            let skip = records.len().saturating_sub(fresh);
            layers.worker_service_us +=
                records[skip..].iter().map(|r| r.micros as u64).sum::<u64>();
        }
    }
    if !plain_first {
        run_plain(layers)?;
    }
    let (plain, plain_ns) = plain.ok_or("untraced query did not run")?;
    gate::check_same(&plain, &traced).map_err(|e| format!("traced vs untraced: {e}"))?;
    if let Some(reference) = reference {
        let expected = reference
            .query(graph, query)
            .map_err(|e| format!("reference query: {e}"))?;
        gate::check_same(&expected, &traced)
            .map_err(|e| format!("routed vs in-process reference: {e}"))?;
    }
    layers.record_query(&traced, traced_ns, plain_ns, shards);
    Ok((traced, traced_ns))
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    queries: u64,
    traced_ns: u64,
    plain_ns: u64,
    top_level_us: u64,
    plan_us: u64,
    route_us: u64,
    shard_match_us: u64,
    merge_us: u64,
    match_us: u64,
    restart_us: u64,
    worker_match_us: u64,
    worker_service_us: u64,
    /// Queries of the routed section (`routed_layers`), which the
    /// `cluster.*` means divide by.
    routed_queries: u64,
    shards_consulted: u64,
    shards_scanned: u64,
    le2_shards: u64,
    cache_hits: u64,
    plans: [u64; 4],
    restarts_taken: u64,
    candidate_pairs: u64,
    components: u64,
    extended_pairs: u64,
    bytes_sent: u64,
    bytes_received: u64,
    matrix_cells: u64,
    matrix_candidates: u64,
    updates: u64,
    apply_wall_ns: u64,
    update_stats: UpdateStats,
    reshards: u64,
    prepare_ms: f64,
    scc_ms: f64,
    index_ms: f64,
    compress_ms: f64,
    index_mb: f64,
    reach_ns: f64,
    codec_ns_per_byte: f64,
    register_ms: f64,
    retries: u64,
    exact_cliff_ms: f64,
}

impl Layers {
    fn record_query(
        &mut self,
        answer: &QueryResponse,
        traced_ns: u64,
        plain_ns: u64,
        shards: usize,
    ) {
        self.queries += 1;
        self.traced_ns += traced_ns;
        self.plain_ns += plain_ns;
        self.shards_consulted += answer.shards_consulted as u64;
        self.shards_scanned += shards as u64;
        self.le2_shards += u64::from(answer.shards_consulted <= 2);
        self.plans[match answer.plan.kind {
            PlanKind::Exact => 0,
            PlanKind::Approx => 1,
            PlanKind::Bounded => 2,
            PlanKind::Baseline => 3,
        }] += 1;
        let Some(t) = answer.trace.as_deref() else {
            return;
        };
        self.top_level_us += t.top_level_micros();
        self.plan_us += t.micros_of("plan");
        self.route_us += t.micros_of("route");
        self.shard_match_us += t.micros_of("shard_match");
        self.merge_us += t.micros_of("merge");
        self.match_us += t.micros_of("match");
        self.restart_us += t.micros_of("restart");
        self.worker_match_us += t.micros_of("worker_match");
        self.cache_hits += u64::from(t.counters.cache_hit);
        self.restarts_taken += t.counters.restarts_taken as u64;
        self.candidate_pairs += t.counters.candidate_pairs as u64;
        self.components += t.counters.components as u64;
        self.extended_pairs += t.counters.extended_pairs as u64;
    }

    fn record_update(&mut self, wall_ns: u64, summary: &UpdateSummary) {
        self.updates += 1;
        self.apply_wall_ns += wall_ns;
        self.update_stats.absorb(&summary.stats);
        self.reshards += u64::from(summary.resharded);
    }

    fn finish(&self) -> Vec<(&'static str, &'static str, f64)> {
        let per_query = |x: u64| x as f64 / (self.queries.max(1)) as f64;
        let per_routed = |x: u64| x as f64 / (self.routed_queries.max(1)) as f64;
        let per_update = |x: u128| x as f64 / (self.updates.max(1)) as f64;
        let share = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
        let u = &self.update_stats;
        let applied = u.applied as u64;
        let wall_us = self.traced_ns as f64 / 1e3;
        let kernel_us = self.match_us + self.shard_match_us;
        vec![
            ("service.route_us", "us", per_query(self.route_us)),
            (
                "service.shard_match_us",
                "us",
                per_query(self.shard_match_us),
            ),
            ("service.merge_us", "us", per_query(self.merge_us)),
            (
                "service.shards_consulted",
                "count",
                per_query(self.shards_consulted),
            ),
            (
                "service.shard_hit_ratio",
                "ratio",
                share(self.shards_consulted, self.shards_scanned),
            ),
            (
                "service.share_le2_shards",
                "ratio",
                share(self.le2_shards, self.queries),
            ),
            (
                "service.apply_us",
                "us",
                self.apply_wall_ns as f64 / 1e3 / self.updates.max(1) as f64,
            ),
            ("service.reshards", "count", self.reshards as f64),
            (
                "service.outside_spans_us",
                "us",
                (wall_us - self.top_level_us as f64) / self.queries.max(1) as f64,
            ),
            ("engine.plan_us", "us", per_query(self.plan_us)),
            ("engine.match_us", "us", per_query(self.match_us)),
            (
                "engine.cache_hit_ratio",
                "ratio",
                share(self.cache_hits, self.queries),
            ),
            (
                "engine.plan_share_exact",
                "ratio",
                share(self.plans[0], self.queries),
            ),
            (
                "engine.plan_share_approx",
                "ratio",
                share(self.plans[1], self.queries),
            ),
            (
                "engine.plan_share_bounded",
                "ratio",
                share(self.plans[2], self.queries),
            ),
            ("engine.apply_us", "us", per_update(u.apply_micros)),
            (
                "engine.assembly_us",
                "us",
                per_update(
                    u.apply_micros
                        .saturating_sub(u.closure_maintain_micros + u.bounded_refresh_micros),
                ),
            ),
            ("engine.prepare_ms", "ms", self.prepare_ms),
            ("engine.exact_cliff_ms", "ms", self.exact_cliff_ms),
            ("core.restart_us", "us", per_query(self.restart_us)),
            (
                "core.restarts_taken",
                "count",
                per_query(self.restarts_taken),
            ),
            (
                "core.candidate_pairs",
                "count",
                per_query(self.candidate_pairs),
            ),
            ("core.components", "count", per_query(self.components)),
            (
                "core.extended_pairs",
                "count",
                per_query(self.extended_pairs),
            ),
            (
                "core.us_per_kpair",
                "us/kpair",
                kernel_us as f64 / (self.candidate_pairs as f64 / 1e3).max(1e-9),
            ),
            ("graph.scc_ms", "ms", self.scc_ms),
            ("graph.index_ms", "ms", self.index_ms),
            ("graph.compress_ms", "ms", self.compress_ms),
            ("graph.index_mb", "MiB", self.index_mb),
            ("graph.reach_ns", "ns", self.reach_ns),
            (
                "dynamic.maintain_us",
                "us",
                per_update(u.closure_maintain_micros),
            ),
            (
                "dynamic.bounded_refresh_us",
                "us",
                per_update(u.bounded_refresh_micros),
            ),
            (
                "dynamic.incremental_ratio",
                "ratio",
                share(u.incremental as u64, applied),
            ),
            (
                "dynamic.unchanged_ratio",
                "ratio",
                share(u.closure_unchanged as u64, applied),
            ),
            (
                "dynamic.fallbacks",
                "count",
                (u.rebuilds + u.backend_fallbacks) as f64,
            ),
            (
                "cluster.worker_match_us",
                "us",
                per_routed(self.worker_match_us),
            ),
            (
                "cluster.worker_service_us",
                "us",
                per_routed(self.worker_service_us),
            ),
            (
                "cluster.transit_us",
                "us",
                per_routed(self.worker_match_us.saturating_sub(self.worker_service_us)),
            ),
            (
                "cluster.bytes_sent_per_query",
                "bytes",
                per_routed(self.bytes_sent),
            ),
            (
                "cluster.bytes_received_per_query",
                "bytes",
                per_routed(self.bytes_received),
            ),
            ("cluster.codec_ns_per_byte", "ns/B", self.codec_ns_per_byte),
            ("cluster.register_ms", "ms", self.register_ms),
            ("cluster.retries", "count", self.retries as f64),
            (
                "trace.overhead_ratio",
                "ratio",
                share(self.traced_ns, self.plain_ns),
            ),
            (
                "trace.tiling_ratio",
                "ratio",
                self.top_level_us as f64 / wall_us.max(1e-9),
            ),
            (
                "sim.candidate_density",
                "ratio",
                share(self.matrix_candidates, self.matrix_cells),
            ),
        ]
    }
}

/// The `phom-cluster` tier, measured in the traced `sharded-read` run: the
/// data graphs as the op loop left them go behind a `Router` over channel
/// workers (one connection each, one read replica per shard, the
/// `RouterConfig` defaults), and every distinct pattern is queried once
/// untraced and once traced through it. Each routed answer must pass the
/// gate and equal that of a fresh in-process `Service` over the same
/// graphs (the serving one split the graphs before the op loop's toggles,
/// so its shards may group the parts differently). The router's spans and
/// counters fill the `cluster.*` metrics; set-up and `Router::register`
/// (with replica hydration) fill `cluster.register_ms`. It runs after the
/// op loop, so neither the fleet nor the reference is in `peak_rss_mb`.
fn routed_layers(
    names: &[String],
    inputs: &Inputs,
    data: &[DiGraph<String>],
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let graphs: Vec<Arc<DiGraph<String>>> = data.iter().map(|d| Arc::new(d.clone())).collect();
    let reference = Service::new(ServiceConfig::builder().build());
    for (name, g) in names.iter().zip(&graphs) {
        reference
            .register(name.clone(), Arc::clone(g))
            .map_err(|e| format!("reference register: {e}"))?;
    }
    let mut register_ms = Vec::with_capacity(ROUTED_SETUPS);
    let mut fleet = None;
    for _ in 0..ROUTED_SETUPS {
        let s = setup(Kind::Routed, &graphs)?;
        register_ms.push(s.register_ms);
        fleet = Some(s);
    }
    let Setup { front, infos, .. } = fleet.ok_or("no router set-up")?;
    let mut routed = Layers::default();
    for (i, spec) in inputs.patterns.iter().enumerate() {
        let query = spec.query();
        let graph = &names[spec.target];
        let shards = infos[spec.target].shards;
        tally.attempted += 1;
        let outcome = traced_query(
            &front,
            graph,
            &query,
            i,
            shards,
            Some(&reference),
            &mut routed,
        )
        .and_then(|(answer, _)| gate::check_answer(&query, &data[spec.target], &answer));
        if let Err(e) = outcome {
            tally.fail(format!("routed query of pattern {i}: {e}"));
        }
    }
    if let Front::Routed(fleet) = &front {
        let stats = fleet.router.stats();
        layers.retries = stats.reconnects + stats.workers_lost;
    }
    layers.routed_queries = routed.queries;
    layers.worker_match_us = routed.worker_match_us;
    layers.worker_service_us = routed.worker_service_us;
    layers.bytes_sent = routed.bytes_sent;
    layers.bytes_received = routed.bytes_received;
    layers.register_ms = stats::median(&register_ms);
    layers.codec_ns_per_byte = codec_ns_per_byte(inputs);
    Ok(())
}

/// `engine.exact_cliff_ms`: mean latency of the exact-plan probe's
/// patterns, each queried once through the front end (0 without a probe).
fn exact_cliff_ms(
    front: &Front,
    names: &[String],
    inputs: &Inputs,
    data: &[DiGraph<String>],
    tally: &mut Tally,
) -> f64 {
    let (mut ns, mut answered) = (0u128, 0u32);
    for (i, spec) in inputs.cliff.iter().enumerate() {
        let query = spec.query();
        tally.attempted += 1;
        let started = Instant::now();
        let answer = front.query(&names[spec.target], &query, false);
        let elapsed = started.elapsed().as_nanos();
        match answer.and_then(|a| gate::check_answer(&query, &data[spec.target], &a)) {
            Ok(()) => {
                ns += elapsed;
                answered += 1;
            }
            Err(e) => tally.fail(format!("exact-plan probe {i}: {e}")),
        }
    }
    if answered == 0 {
        0.0
    } else {
        ns as f64 / 1e6 / f64::from(answered)
    }
}

/// The shard graphs the registry (and the router) split `data` into.
fn shard_graphs(data: &DiGraph<String>, shards: usize) -> Vec<DiGraph<String>> {
    if shards <= 1 {
        return vec![data.clone()];
    }
    component_groups(data, ShardingConfig::default().max_shards)
        .into_iter()
        .map(|nodes| {
            let keep: BTreeSet<NodeId> = nodes.into_iter().collect();
            data.induced_subgraph(&keep).0
        })
        .collect()
}

/// `graph.scc_ms`, `graph.index_ms` and `graph.compress_ms`: Tarjan, the
/// backend's index builder and the Appendix-B compression on every shard
/// graph of every data graph, summed; the median of three passes.
fn index_timings(data: &[Arc<DiGraph<String>>], infos: &[GraphInfo], layers: &mut Layers) {
    let graphs: Vec<(DiGraph<String>, &GraphInfo)> = data
        .iter()
        .zip(infos)
        .flat_map(|(d, info)| {
            shard_graphs(d, info.shards)
                .into_iter()
                .map(move |g| (g, info))
        })
        .collect();
    let (mut scc, mut index, mut compress) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut s_ms, mut i_ms, mut c_ms) = (0.0, 0.0, 0.0);
        for (g, info) in &graphs {
            let t = Instant::now();
            let result = black_box(tarjan_scc(g));
            s_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            match info.closure_backend.as_str() {
                "chain" => drop(black_box(ChainIndex::from_scc(g, &result))),
                "twohop" => drop(black_box(TwoHopIndex::from_scc(g, &result))),
                _ => drop(black_box(TransitiveClosure::from_scc(g, &result))),
            }
            i_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            drop(black_box(compress_closure_with(g, &result)));
            c_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        scc.push(s_ms);
        index.push(i_ms);
        compress.push(c_ms);
    }
    layers.scc_ms = stats::median(&scc);
    layers.index_ms = stats::median(&index);
    layers.compress_ms = stats::median(&compress);
}

/// `graph.reach_ns`: mean `reaches` probe over a seeded sample of node
/// pairs of each shard of each data graph, on indexes from
/// `PreparedGraph::prepare`.
fn reach_ns(data: &[Arc<DiGraph<String>>], infos: &[GraphInfo], seed: u64) -> f64 {
    let options = PrepareOptions::from_planner(&PlannerConfig::default());
    let mut rng = XorShift64::new(seed ^ 0x7265_6163); // "reac"
    let (mut ns, mut probes) = (0u128, 0usize);
    let graphs = data
        .iter()
        .zip(infos)
        .flat_map(|(d, info)| shard_graphs(d, info.shards));
    for g in graphs {
        let n = g.node_count();
        let prepared = PreparedGraph::prepare(Arc::new(g), options);
        let index = prepared.closure();
        let pairs: Vec<(NodeId, NodeId)> = (0..REACH_PROBES)
            .map(|_| (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32)))
            .collect();
        let started = Instant::now();
        let hits = pairs.iter().filter(|&&(a, b)| index.reaches(a, b)).count();
        ns += started.elapsed().as_nanos();
        black_box(hits);
        probes += pairs.len();
    }
    ns as f64 / probes.max(1) as f64
}

/// `cluster.codec_ns_per_byte`: encode plus decode of each distinct
/// query's request frame, per frame byte.
fn codec_ns_per_byte(inputs: &Inputs) -> f64 {
    let frame = FrameConfig::default();
    let (mut ns, mut bytes) = (0u128, 0usize);
    for spec in &inputs.patterns {
        let msg = WireMessage::Request(Request::Query {
            graph: graph_name(spec.target),
            query: spec.query(),
            trace: false,
        });
        let started = Instant::now();
        let Ok(encoded) = codec::encode(&msg, &frame) else {
            continue;
        };
        let decoded = codec::decode(&encoded[4..], &frame);
        ns += started.elapsed().as_nanos();
        black_box(decoded.is_ok());
        bytes += encoded.len();
    }
    ns as f64 / bytes.max(1) as f64
}

/// Spans the traced run cannot see from outside on this workload.
fn unmeasured(kind: Kind) -> Vec<(&'static str, &'static str)> {
    let mut out = vec![(
        "kernel stages",
        "candidate build, prefilter, compMax core and greedy extension have no spans yet",
    )];
    if kind == Kind::Sharded {
        out.push((
            "engine.match_us",
            "on the sharded path the Match span is folded into service.shard_match_us",
        ));
        out.push((
            "worker spans",
            "behind the router the worker's Plan and Match spans stay in the worker; the router keeps only its counters",
        ));
    }
    out
}
