//! Benchmarks the engine's reason for existing: a 100-query batch over
//! one data graph, cold (every `match_graphs` call rebuilds the closure
//! and re-decides compression) versus prepared (one `PreparedGraph`
//! shared by every query). Also times preparation itself and the
//! steady-state batch on a held prepared graph whose bounded-closure
//! memo is already warm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phom_core::{match_graphs, Algorithm, MatcherConfig};
use phom_engine::{Engine, EngineConfig, PlannerConfig, PreparedGraph, Query, QueryConfig};
use phom_graph::{DiGraph, NodeId};
use phom_sim::SimMatrix;
use phom_workloads::{generate_instance, synthetic::Label, SyntheticConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

const BATCH: usize = 100;

struct Fixture {
    data: Arc<DiGraph<Label>>,
    queries: Vec<Query<Label>>,
}

/// One data graph, 100 small-pattern queries (sliding windows of the
/// template), restarts pinned to 1 so both paths run the identical
/// matching kernel and differ only in preprocessing reuse.
fn fixture(m: usize) -> Fixture {
    let inst = generate_instance(
        &SyntheticConfig {
            m,
            noise: 0.15,
            seed: 42,
        },
        1,
    );
    let data = Arc::new(inst.g2.clone());
    let pattern_nodes = (m / 5).clamp(4, 30);
    let queries = (0..BATCH)
        .map(|i| {
            let lo = (i * 7) % (m - pattern_nodes);
            let keep: BTreeSet<NodeId> =
                (lo..lo + pattern_nodes).map(|x| NodeId(x as u32)).collect();
            let pattern = Arc::new(inst.g1.induced_subgraph(&keep).0);
            let mat = SimMatrix::from_fn(pattern.node_count(), data.node_count(), |v, u| {
                inst.pool.similarity(*pattern.label(v), *data.label(u))
            });
            let mut q = Query::new(pattern, mat);
            q.config = QueryConfig {
                xi: 0.75,
                algorithm: [
                    Algorithm::MaxCard,
                    Algorithm::MaxCard1to1,
                    Algorithm::MaxSim,
                    Algorithm::MaxSim1to1,
                ][i % 4],
                restarts: Some(1),
                max_stretch: (i % 5 == 4).then_some(3),
                ..Default::default()
            };
            q
        })
        .collect();
    Fixture { data, queries }
}

fn bench_batch(c: &mut Criterion) {
    for m in [100usize, 200] {
        let fx = fixture(m);
        let mut group = c.benchmark_group(format!("engine_batch_m{m}"));
        group.sample_size(10);

        group.bench_function(BenchmarkId::from_parameter("cold_per_query"), |b| {
            b.iter(|| {
                for q in &fx.queries {
                    let weights = q.effective_weights();
                    let cfg = MatcherConfig {
                        algorithm: q.config.algorithm,
                        xi: q.config.xi,
                        max_stretch: q.config.max_stretch,
                        restarts: 1,
                        ..Default::default()
                    };
                    criterion::black_box(match_graphs(
                        &q.pattern, &fx.data, &q.matrix, &weights, &cfg,
                    ));
                }
            })
        });

        group.bench_function(BenchmarkId::from_parameter("prepared_batch"), |b| {
            b.iter(|| {
                // Fresh engine per iteration: the one preparation is paid
                // inside the measurement, amortized over the 100 queries.
                let engine: Engine<Label> = Engine::new(EngineConfig {
                    threads: 1,
                    ..Default::default()
                });
                criterion::black_box(engine.execute_batch(&engine.prepare(&fx.data), &fx.queries))
            })
        });

        group.bench_function(BenchmarkId::from_parameter("prepare_only"), |b| {
            b.iter(|| criterion::black_box(PreparedGraph::new(Arc::clone(&fx.data))))
        });

        group.bench_function(BenchmarkId::from_parameter("warm_cache_batch"), |b| {
            let engine: Engine<Label> = Engine::new(EngineConfig {
                threads: 1,
                ..Default::default()
            });
            let prepared = engine.prepare(&fx.data);
            engine.execute_batch(&prepared, &fx.queries); // warm the bounded memo
            b.iter(|| criterion::black_box(engine.execute_batch(&prepared, &fx.queries)))
        });

        group.finish();
    }
}

/// Intra-query parallelism: one large pattern made of `comps` disjoint
/// windows of the template (guaranteed separate weakly connected
/// components), matched against one prepared data graph with the
/// per-component fan-out at 1/2/4 workers. The speedup ceiling is
/// min(workers, components) on idle multi-core hardware; `workers_1` is
/// the sequential baseline the others must beat (or, on a single core,
/// match to within thread-spawn overhead).
fn bench_intra_query(c: &mut Criterion) {
    let m = 400usize;
    let comps = 6usize;
    let span = 25usize;
    let inst = generate_instance(
        &SyntheticConfig {
            m,
            noise: 0.15,
            seed: 7,
        },
        1,
    );
    let data = Arc::new(inst.g2.clone());
    let mut pattern: DiGraph<Label> = DiGraph::new();
    for ci in 0..comps {
        let lo = (ci * (m / comps)).min(m - span);
        let keep: BTreeSet<NodeId> = (lo..lo + span).map(|x| NodeId(x as u32)).collect();
        let (sub, _) = inst.g1.induced_subgraph(&keep);
        let base = pattern.node_count();
        for v in sub.nodes() {
            pattern.add_node(*sub.label(v));
        }
        for (a, b) in sub.edges() {
            pattern.add_edge(
                NodeId((base + a.index()) as u32),
                NodeId((base + b.index()) as u32),
            );
        }
    }
    let pattern = Arc::new(pattern);
    let mat = SimMatrix::from_fn(pattern.node_count(), data.node_count(), |v, u| {
        inst.pool.similarity(*pattern.label(v), *data.label(u))
    });

    let mut group = c.benchmark_group(format!("engine_intra_query_m{m}_c{comps}"));
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        let engine: Engine<Label> = Engine::new(EngineConfig {
            threads: 1,
            planner: PlannerConfig {
                intra_query_workers: workers,
                ..Default::default()
            },
        });
        let prepared = engine.prepare(&data);
        let mut q = Query::new(Arc::clone(&pattern), mat.clone());
        q.config.xi = 0.75;
        q.config.restarts = Some(1);
        group.bench_function(
            BenchmarkId::from_parameter(format!("workers_{workers}")),
            |b| b.iter(|| criterion::black_box(engine.execute(&prepared, &q))),
        );
    }
    group.finish();
}

/// Trace overhead: the same warm 100-query batch with tracing
/// disabled (the default hot path — must stay within noise of the
/// pre-trace engine; the `constructions()` guard test proves it
/// allocates no trace state) and enabled (spans + counters per query,
/// the price of `--trace-json`).
fn bench_trace_overhead(c: &mut Criterion) {
    let fx = fixture(200);
    let engine: Engine<Label> = Engine::new(EngineConfig {
        threads: 1,
        ..Default::default()
    });
    let prepared = engine.prepare(&fx.data);
    let mut group = c.benchmark_group("engine_trace_m200");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("untraced_batch"), |b| {
        b.iter(|| criterion::black_box(engine.execute_batch_traced(&prepared, &fx.queries, false)))
    });
    group.bench_function(BenchmarkId::from_parameter("traced_batch"), |b| {
        b.iter(|| criterion::black_box(engine.execute_batch_traced(&prepared, &fx.queries, true)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch,
    bench_intra_query,
    bench_trace_overhead
);
criterion_main!(benches);
