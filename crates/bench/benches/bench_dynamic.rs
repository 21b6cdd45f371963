//! Benchmarks the semi-dynamic closure subsystem's reason for existing:
//! applying edge updates to a `PreparedGraph` incrementally
//! (`PreparedGraph::apply`) versus re-preparing from scratch, across
//! update batch sizes and graph families.
//!
//! Families: the §6 synthetic generator (highly cyclic — SCC collapse
//! makes even full preparation cheap, so incremental apply is roughly at
//! parity) and two sparse 3000-node families (preferential-attachment
//! and random DAG — the live-web-graph regime, where a single-edge apply
//! beats a full re-prepare severalfold). The largest graphs in the suite
//! are the 3000-node sparse ones. The two sparse families run twice:
//! once under the default (dense) backend and once chain-backed, where
//! the same churn is serviced by incremental chain maintenance instead
//! of the rebuild-per-batch the chain backend used to force.
//!
//! `dynamic_versions_sharded_read` times what every update batch of a
//! sharded service pays to version its graphs, on a union shaped like
//! the repository benchmark's `sharded-read` graph (64 query parts and 8
//! write-only parts, each a §6 data graph of m = 40): cloning and
//! dropping the full graph, which shares all adjacency a batch does not
//! write, and a one-toggle apply on the prepared shard holding the last
//! write-only part. `dynamic_versions_live_mixed` times a one-toggle
//! apply on one graph shaped like the benchmark's `live-mixed` graphs (a
//! §6 data graph of m = 300 under the `Auto` compression policy), where
//! every version rebuilds its Appendix-B `G2*`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phom_engine::{
    ClosureBackend, CompressionPolicy, GraphUpdate, PrepareOptions, PreparedGraph,
    DEFAULT_CHAIN_NODE_THRESHOLD,
};
use phom_graph::{
    component_groups, preferential_attachment, random_dag, tarjan_scc, DiGraph, NodeId, XorShift64,
};
use phom_workloads::{generate_instance, SyntheticConfig};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Representative single-edge churn: alternate removing a random existing
/// edge and inserting a random (possibly fresh) edge.
fn churn<L>(data: &DiGraph<L>, count: usize, seed: u64) -> Vec<GraphUpdate> {
    let n = data.node_count();
    let edges: Vec<(NodeId, NodeId)> = data.edges().collect();
    let mut rng = XorShift64::new(seed);
    (0..count)
        .map(|i| {
            if i % 2 == 0 && !edges.is_empty() {
                let (a, b) = edges[rng.below(edges.len())];
                GraphUpdate::RemoveEdge(a, b)
            } else {
                GraphUpdate::InsertEdge(NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32))
            }
        })
        .collect()
}

fn bench_family<L: Clone + std::fmt::Debug>(c: &mut Criterion, name: &str, data: Arc<DiGraph<L>>) {
    let prepared = Arc::new(PreparedGraph::new(Arc::clone(&data)));
    let updates = churn(&data, 256, 0xD15C);
    let mut group = c.benchmark_group(format!("dynamic_{name}"));
    group.sample_size(10);

    group.bench_function(BenchmarkId::from_parameter("full_reprepare"), |b| {
        b.iter(|| criterion::black_box(PreparedGraph::new(Arc::clone(&data))))
    });

    // Single-edge updates, rotating through the churn stream so inserts,
    // deletes, SCC merges, and cone recomputes all appear.
    let cursor = Cell::new(0usize);
    group.bench_function(BenchmarkId::from_parameter("apply_single_edge"), |b| {
        b.iter(|| {
            let i = cursor.get();
            cursor.set(i + 1);
            criterion::black_box(prepared.apply(&updates[i % updates.len()..][..1]))
        })
    });

    for batch in [8usize, 64] {
        let slice = &updates[..batch];
        group.bench_function(
            BenchmarkId::from_parameter(format!("apply_batch_{batch}")),
            |b| b.iter(|| criterion::black_box(prepared.apply(slice))),
        );
    }

    group.finish();
}

/// The chain-backed variant of [`bench_family`]: the same churn stream
/// applied through [`SemiDynamicChain`] maintenance (extend / split /
/// concatenate from the affected cone) versus a chain-backed re-prepare —
/// the update path that used to be a forced rebuild per batch.
///
/// [`SemiDynamicChain`]: phom_dynamic::SemiDynamicChain
fn bench_family_chain<L: Clone + std::fmt::Debug>(
    c: &mut Criterion,
    name: &str,
    data: Arc<DiGraph<L>>,
) {
    let prepared = Arc::new(PreparedGraph::with_backend(
        Arc::clone(&data),
        ClosureBackend::Chain,
        DEFAULT_CHAIN_NODE_THRESHOLD,
    ));
    let updates = churn(&data, 256, 0xD15C);
    let mut group = c.benchmark_group(format!("dynamic_chain_{name}"));
    group.sample_size(10);

    group.bench_function(BenchmarkId::from_parameter("full_reprepare"), |b| {
        b.iter(|| {
            criterion::black_box(PreparedGraph::with_backend(
                Arc::clone(&data),
                ClosureBackend::Chain,
                DEFAULT_CHAIN_NODE_THRESHOLD,
            ))
        })
    });

    let cursor = Cell::new(0usize);
    group.bench_function(BenchmarkId::from_parameter("apply_single_edge"), |b| {
        b.iter(|| {
            let i = cursor.get();
            cursor.set(i + 1);
            criterion::black_box(prepared.apply(&updates[i % updates.len()..][..1]))
        })
    });

    for batch in [8usize, 64] {
        let slice = &updates[..batch];
        group.bench_function(
            BenchmarkId::from_parameter(format!("apply_batch_{batch}")),
            |b| b.iter(|| criterion::black_box(prepared.apply(slice))),
        );
    }

    // The acceptance telemetry: a representative batch must be serviced
    // by incremental maintenance, not the counted rebuild escape hatches.
    let outcome = prepared.apply(&updates[..64]);
    eprintln!(
        "chain-apply {name:<20} batch of 64: applied = {}, incremental = {}, \
         unchanged = {}, rebuild fallbacks = {} (damage {}, unsupported {})",
        outcome.stats.applied,
        outcome.stats.incremental,
        outcome.stats.closure_unchanged,
        outcome.stats.backend_fallbacks,
        outcome.stats.fallback_damage,
        outcome.stats.fallback_unsupported,
    );

    group.finish();
}

/// The `sharded-read`-shaped union: 72 §6 data graphs of m = 40 side by
/// side, labeled `part:label`.
fn sharded_read_union() -> DiGraph<String> {
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    for p in 0..72u64 {
        let g2 = generate_instance(
            &SyntheticConfig {
                m: 40,
                noise: 0.10,
                seed: p + 1,
            },
            1,
        )
        .g2;
        let base = labels.len() as u32;
        labels.extend(g2.nodes().map(|v| format!("{p}:{}", g2.label(v))));
        edges.extend(
            g2.edges()
                .map(|(a, b)| (NodeId(base + a.0), NodeId(base + b.0))),
        );
    }
    DiGraph::from_edges(labels, edges)
}

fn bench_versions(c: &mut Criterion) {
    let full = sharded_read_union();
    let mut group = c.benchmark_group("dynamic_versions_sharded_read");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("graph_clone_drop"), |b| {
        b.iter(|| drop(criterion::black_box(full.clone())))
    });

    // The shard a service would prepare for the last (write-only) part,
    // under the compression decision pinned for the whole graph.
    let last = NodeId(full.node_count() as u32 - 1);
    let group_of_last = component_groups(&full, 8)
        .into_iter()
        .find(|g| g.contains(&last))
        .expect("every node is in a group");
    let keep: BTreeSet<NodeId> = group_of_last.into_iter().collect();
    let shard = Arc::new(full.induced_subgraph(&keep).0);
    let options = PrepareOptions {
        compression: CompressionPolicy::pinned(full.node_count(), tarjan_scc(&full).count()),
        ..Default::default()
    };
    let prepared = Arc::new(PreparedGraph::prepare(Arc::clone(&shard), options));
    bench_one_toggle(&mut group, "shard_apply_one_toggle", &prepared);
    group.finish();

    let live = generate_instance(
        &SyntheticConfig {
            m: 300,
            noise: 0.10,
            seed: 1,
        },
        1,
    )
    .g2;
    let options = PrepareOptions {
        compression: CompressionPolicy::Auto,
        ..Default::default()
    };
    let prepared = Arc::new(PreparedGraph::prepare(Arc::new(live), options));
    let mut group = c.benchmark_group("dynamic_versions_live_mixed");
    group.sample_size(10);
    bench_one_toggle(&mut group, "apply_one_toggle", &prepared);
    group.finish();
}

/// Times applying one seeded edge toggle at a time to `prepared`, each
/// derived from the same version (a toggle deletes the edge if present
/// and inserts it otherwise).
fn bench_one_toggle<L: Clone>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    prepared: &Arc<PreparedGraph<L>>,
) {
    let graph = prepared.graph();
    let mut rng = XorShift64::new(0x7066);
    let n = graph.node_count();
    let toggles: Vec<GraphUpdate> = (0..256)
        .map(|_| {
            let (a, b) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
            if graph.has_edge(a, b) {
                GraphUpdate::RemoveEdge(a, b)
            } else {
                GraphUpdate::InsertEdge(a, b)
            }
        })
        .collect();
    let cursor = Cell::new(0usize);
    group.bench_function(BenchmarkId::from_parameter(name), |b| {
        b.iter(|| {
            let i = cursor.get();
            cursor.set(i + 1);
            criterion::black_box(prepared.apply(&toggles[i % toggles.len()..][..1]))
        })
    });
}

fn bench_dynamic(c: &mut Criterion) {
    let inst = generate_instance(
        &SyntheticConfig {
            m: 200,
            noise: 0.15,
            seed: 42,
        },
        1,
    );
    bench_family(c, "synthetic_m200", Arc::new(inst.g2.clone()));
    bench_family(
        c,
        "prefattach_n3000",
        Arc::new(preferential_attachment(3000, 4, 7)),
    );
    bench_family(c, "randomdag_n3000", Arc::new(random_dag(3000, 12_000, 11)));
    bench_family_chain(
        c,
        "prefattach_n3000",
        Arc::new(preferential_attachment(3000, 4, 7)),
    );
    bench_family_chain(c, "randomdag_n3000", Arc::new(random_dag(3000, 12_000, 11)));
}

criterion_group!(benches, bench_dynamic, bench_versions);
criterion_main!(benches);
