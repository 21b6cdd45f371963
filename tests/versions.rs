//! Version isolation: a graph version that later writes derive from must
//! read exactly as it did when it was taken.
//!
//! `DiGraph` clones share their label column and adjacency chunks until
//! written, and every update batch derives its version by cloning the
//! current one. These tests pin down what that sharing must never
//! change: the version written to ends up as if it had been rebuilt
//! edge by edge, and every version it was cloned from stays as it was,
//! adjacency order included, through a chain of batches on a sharded
//! service.

use phom::graph::serialize::to_snapshot;
use phom::graph::XorShift64;
use phom::prelude::*;
use phom::service::ShardMap;
use phom::trace::{EventKind, Severity};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything a reader can observe of a graph, in id order.
#[derive(Debug, PartialEq)]
struct Reading {
    labels: Vec<String>,
    edges: Vec<(NodeId, NodeId)>,
    post: Vec<Vec<NodeId>>,
    prev: Vec<Vec<NodeId>>,
    edge_count: usize,
}

fn read(g: &DiGraph<String>) -> Reading {
    Reading {
        labels: g.nodes().map(|v| g.label(v).clone()).collect(),
        edges: g.edges().collect(),
        post: g.nodes().map(|v| g.post(v).to_vec()).collect(),
        prev: g.nodes().map(|v| g.prev(v).to_vec()).collect(),
        edge_count: g.edge_count(),
    }
}

/// The data graph of a §6 instance, with string labels.
fn section6_graph(m: usize, seed: u64) -> DiGraph<String> {
    let inst = generate_instance(
        &SyntheticConfig {
            m,
            noise: 0.2,
            seed,
        },
        1,
    );
    inst.g2.map_labels(|_, l| format!("L{l}"))
}

/// One edit of the seeded sequence.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Insert(NodeId, NodeId),
    Remove(NodeId, NodeId),
}

/// A seeded edit sequence over a graph of `n` nodes holding `edges`:
/// fresh inserts, removals of existing edges, self-loops, and
/// re-inserts of edges removed earlier.
fn edits(edges: &[(NodeId, NodeId)], n: usize, count: usize, seed: u64) -> Vec<Edit> {
    let mut rng = XorShift64::new(seed);
    let mut live: Vec<(NodeId, NodeId)> = edges.to_vec();
    let mut removed: Vec<(NodeId, NodeId)> = Vec::new();
    let node = |rng: &mut XorShift64| NodeId(rng.below(n) as u32);
    (0..count)
        .map(|_| match rng.below(4) {
            0 if !live.is_empty() => {
                let (a, b) = live.remove(rng.below(live.len()));
                removed.push((a, b));
                Edit::Remove(a, b)
            }
            1 => {
                let v = node(&mut rng);
                Edit::Insert(v, v)
            }
            2 if !removed.is_empty() => {
                let (a, b) = removed.swap_remove(rng.below(removed.len()));
                live.push((a, b));
                Edit::Insert(a, b)
            }
            _ => {
                let (a, b) = (node(&mut rng), node(&mut rng));
                Edit::Insert(a, b)
            }
        })
        .collect()
}

/// Applies `edit` to a plain per-node list model of the adjacency:
/// inserts append, removals keep the order of what remains.
fn apply_to_model(post: &mut [Vec<NodeId>], prev: &mut [Vec<NodeId>], edit: Edit) -> bool {
    match edit {
        Edit::Insert(a, b) => {
            if post[a.index()].contains(&b) {
                return false;
            }
            post[a.index()].push(b);
            prev[b.index()].push(a);
            true
        }
        Edit::Remove(a, b) => {
            let Some(i) = post[a.index()].iter().position(|&w| w == b) else {
                return false;
            };
            post[a.index()].remove(i);
            let j = prev[b.index()].iter().position(|&w| w == a).unwrap();
            prev[b.index()].remove(j);
            true
        }
    }
}

fn apply(g: &mut DiGraph<String>, edit: Edit) -> bool {
    match edit {
        Edit::Insert(a, b) => g.add_edge(a, b),
        Edit::Remove(a, b) => g.remove_edge(a, b),
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Edits to a clone reach the clone alone: the original reads as
        /// before, and the clone reads like a per-node list model and
        /// serializes like an unshared edge-by-edge rebuild.
        #[test]
        fn prop_edits_to_a_clone_leave_the_original(
            seed in any::<u64>(),
            m in 6usize..40,
            count in 1usize..160,
        ) {
            let original = section6_graph(m, seed);
            let before = read(&original);
            let mut clone = original.clone();
            let mut post = before.post.clone();
            let mut prev = before.prev.clone();
            let mut rebuilt: DiGraph<String> = DiGraph::new();
            for label in &before.labels {
                rebuilt.add_node(label.clone());
            }
            for &(a, b) in &before.edges {
                rebuilt.add_edge(a, b);
            }
            for edit in edits(&before.edges, original.node_count(), count, seed ^ 0xED17) {
                let changed = apply_to_model(&mut post, &mut prev, edit);
                prop_assert_eq!(apply(&mut clone, edit), changed, "{:?}", edit);
                prop_assert_eq!(apply(&mut rebuilt, edit), changed, "{:?}", edit);
            }
            prop_assert_eq!(read(&original), before, "the original moved");
            let after = read(&clone);
            prop_assert_eq!(&after.post, &post, "successor lists or their order");
            prop_assert_eq!(&after.prev, &prev, "predecessor lists or their order");
            prop_assert_eq!(after.edge_count, post.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(after.labels, before.labels);
            prop_assert_eq!(to_snapshot(&clone), to_snapshot(&rebuilt));
        }
    }
}

/// Parts of the sharded data graph, and the §6 size of each.
const PARTS: usize = 6;
const PART_M: usize = 16;

/// §6 data graphs side by side, one part each (labels `p:l`), plus each
/// part's node range.
fn union_graph(seed: u64) -> (DiGraph<String>, Vec<(usize, usize)>) {
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    let mut ranges = Vec::new();
    for p in 0..PARTS {
        let g = generate_instance(
            &SyntheticConfig {
                m: PART_M,
                noise: 0.1,
                seed: seed + p as u64,
            },
            1,
        )
        .g2;
        let base = labels.len();
        labels.extend(g.nodes().map(|v| format!("{p}:{}", g.label(v))));
        edges.extend(g.edges().map(|(a, b)| {
            (
                NodeId((base + a.index()) as u32),
                NodeId((base + b.index()) as u32),
            )
        }));
        ranges.push((base, g.node_count()));
    }
    (DiGraph::from_edges(labels, edges), ranges)
}

const SHARDING: ShardingConfig = ShardingConfig {
    max_shards: 4,
    min_shard_nodes: 0,
};

fn sharded_service() -> Service<String> {
    Service::new(ServiceConfig::builder().sharding(SHARDING).build())
}

/// Queries cut from the data graph itself: the first `window` nodes of
/// each part under label equality, asked once per config.
fn window_queries(
    data: &DiGraph<String>,
    ranges: &[(usize, usize)],
    window: usize,
    configs: &[QueryConfig],
) -> Vec<Query<String>> {
    let mut out = Vec::new();
    for &(base, n) in ranges {
        let keep: BTreeSet<NodeId> = (base..base + n.min(window))
            .map(|v| NodeId(v as u32))
            .collect();
        let pattern = Arc::new(data.induced_subgraph(&keep).0);
        for config in configs {
            let mut q = Query::new(
                Arc::clone(&pattern),
                SimMatrix::label_equality(&*pattern, data),
            );
            q.config = config.clone();
            out.push(q);
        }
    }
    out
}

/// A 7-node window of each part, asked with a cardinality and a
/// similarity algorithm.
fn queries(data: &DiGraph<String>, ranges: &[(usize, usize)]) -> Vec<Query<String>> {
    let configs = [Algorithm::MaxCard, Algorithm::MaxSim1to1]
        .map(|algorithm| QueryConfig::builder().xi(0.5).algorithm(algorithm).build());
    window_queries(data, ranges, 7, &configs)
}

type Answer = (Vec<(NodeId, NodeId)>, f64, f64);

fn answers(service: &Service<String>, queries: &[Query<String>]) -> Vec<Answer> {
    queries
        .iter()
        .map(|q| {
            let r = service.query("g", q).expect("query");
            (r.mapping.pairs().collect(), r.qual_card, r.qual_sim)
        })
        .collect()
}

/// A seeded batch of edge toggles on `g`: inside one part, and on batch
/// 5 also an edge joining two shards, which splits the graph again.
fn toggles(g: &Arc<DiGraph<String>>, ranges: &[(usize, usize)], batch: u64) -> Vec<GraphUpdate> {
    let mut rng = XorShift64::new(0xBA7C ^ batch);
    let mut updates: Vec<GraphUpdate> = (0..1 + rng.below(4))
        .map(|_| {
            let (base, n) = ranges[rng.below(ranges.len())];
            let a = NodeId((base + rng.below(n)) as u32);
            let b = NodeId((base + rng.below(n)) as u32);
            if g.has_edge(a, b) {
                GraphUpdate::RemoveEdge(a, b)
            } else {
                GraphUpdate::InsertEdge(a, b)
            }
        })
        .collect();
    if batch == 5 {
        // The service splits the current graph as `ShardMap::split` does.
        let (map, _) = ShardMap::split(Arc::clone(g), &SHARDING, CompressionPolicy::Auto);
        let (a, b) = (map.shard_nodes(0)[0], map.shard_nodes(1)[0]);
        updates.push(GraphUpdate::InsertEdge(a, b));
    }
    updates
}

/// Every version a sharded service hands out stays as it was across a
/// chain of batches, and answers like a fresh registration of itself:
/// held versions read as they did, and the final version answers every
/// query like a fresh `register` of the final graph.
#[test]
fn held_versions_of_a_sharded_graph_read_and_answer_as_they_did() {
    let (data, ranges) = union_graph(41);
    let queries = queries(&data, &ranges);
    let service = sharded_service();
    let info = service
        .register("g".into(), Arc::new(data))
        .expect("register");
    assert!(info.shards > 1, "the union must shard");

    let mut held = Vec::new();
    let mut resharded = false;
    for batch in 0..=8u64 {
        if batch > 0 {
            let current = service.graph("g").expect("registered");
            let summary = service
                .apply_updates("g", &toggles(&current, &ranges, batch))
                .expect("apply");
            assert!(summary.stats.applied > 0, "batch {batch} changed nothing");
            resharded |= summary.resharded;
        }
        let graph = service.graph("g").expect("registered");
        let reading = read(&graph);
        held.push((graph, reading, answers(&service, &queries)));
    }
    assert!(resharded, "the chain covers a batch that splits again");

    for (i, (graph, reading, answered)) in held.iter().enumerate() {
        assert_eq!(
            &read(graph),
            reading,
            "version {i} moved under later batches"
        );
        let fresh = sharded_service();
        fresh
            .register("g".into(), Arc::clone(graph))
            .expect("register");
        assert_eq!(
            &answers(&fresh, &queries),
            answered,
            "version {i} answers unlike a fresh registration of it"
        );
    }
    let versions: BTreeSet<usize> = held
        .iter()
        .map(|(g, _, _)| Arc::as_ptr(g) as usize)
        .collect();
    assert_eq!(versions.len(), held.len(), "every batch made a new version");
}

/// Queries that match against `G2*`: a 10-node window of each part,
/// asked with both p-hom metrics on the approximate plan (the exact plan
/// never compresses).
fn compressed_queries(data: &DiGraph<String>, ranges: &[(usize, usize)]) -> Vec<Query<String>> {
    let configs = [
        (Algorithm::MaxCard, 1),
        (Algorithm::MaxSim, 1),
        (Algorithm::MaxCard, 3),
    ]
    .map(|(algorithm, restarts)| {
        QueryConfig::builder()
            .xi(0.5)
            .algorithm(algorithm)
            .restarts(restarts)
            .force_plan(PlanKind::Approx)
            .build()
    });
    window_queries(data, ranges, 10, &configs)
}

/// A seeded batch that merges and splits SCCs: a back edge `v -> u` from
/// a node `v` that `u` reaches in another component (merging every
/// component on the way), the removal of a back edge an earlier batch
/// inserted (splitting what it merged, unless another path remains), and
/// one toggle inside a part. Returns the batch and its new back edge.
fn scc_batch(
    current: &PreparedGraph<String>,
    ranges: &[(usize, usize)],
    back_edges: &mut Vec<(NodeId, NodeId)>,
    rng: &mut XorShift64,
) -> Vec<GraphUpdate> {
    let g = current.graph();
    let scc = current.scc();
    let mut batch = Vec::new();
    if !back_edges.is_empty() && rng.below(3) > 0 {
        let (v, u) = back_edges.swap_remove(rng.below(back_edges.len()));
        batch.push(GraphUpdate::RemoveEdge(v, u));
    }
    for _ in 0..64 {
        let u = NodeId(rng.below(g.node_count()) as u32);
        // Sorted: backends enumerate successors in different orders, and
        // every backend must draw the same batch.
        let mut reached: Vec<NodeId> = current
            .closure()
            .successors_iter(u)
            .filter(|&v| !scc.same_component(u, v))
            .collect();
        reached.sort_unstable();
        if let Some(&v) = reached.get(rng.below(reached.len().max(1))) {
            batch.push(GraphUpdate::InsertEdge(v, u));
            back_edges.push((v, u));
            break;
        }
    }
    let (base, n) = ranges[rng.below(ranges.len())];
    let (a, b) = (
        NodeId((base + rng.below(n)) as u32),
        NodeId((base + rng.below(n)) as u32),
    );
    batch.push(if g.has_edge(a, b) {
        GraphUpdate::RemoveEdge(a, b)
    } else {
        GraphUpdate::InsertEdge(a, b)
    });
    batch
}

/// An applied version's `G2*` must be the one a fresh prepare of its
/// graph builds: the same numbering, member order and closure.
fn assert_same_g2_star(applied: &PreparedGraph<String>, fresh: &PreparedGraph<String>, at: &str) {
    match (applied.compressed(), fresh.compressed()) {
        (None, None) => {}
        (Some(a), Some(f)) => {
            assert_eq!(a.node_count(), f.node_count(), "{at}: compressed nodes");
            for v in applied.graph().nodes() {
                assert_eq!(a.representative(v), f.representative(v), "{at}: {v:?}");
            }
            let compressed = (0..a.node_count() as u32).map(NodeId);
            for c in compressed.clone() {
                assert_eq!(a.expand(c), f.expand(c), "{at}: members of {c:?}");
                for d in compressed.clone() {
                    assert_eq!(a.reaches(c, d), f.reaches(c, d), "{at}: {c:?} -> {d:?}");
                }
            }
        }
        (a, f) => panic!(
            "{at}: compression kept {} after the batch, {} by a fresh prepare",
            a.is_some(),
            f.is_some()
        ),
    }
}

/// More updates than one batch maintains edge by edge (256): toggles
/// inside the parts, with repeats that turn into no-ops, and one update
/// out of range.
fn oversized_batch(g: &DiGraph<String>, ranges: &[(usize, usize)]) -> Vec<GraphUpdate> {
    let mut rng = XorShift64::new(0x0B16);
    let mut batch: Vec<GraphUpdate> = (0..300)
        .map(|_| {
            let (base, n) = ranges[rng.below(ranges.len())];
            let (a, b) = (
                NodeId((base + rng.below(n)) as u32),
                NodeId((base + rng.below(n.min(4))) as u32),
            );
            if g.has_edge(a, b) {
                GraphUpdate::RemoveEdge(a, b)
            } else {
                GraphUpdate::InsertEdge(a, b)
            }
        })
        .collect();
    let n = g.node_count() as u32;
    batch.push(GraphUpdate::InsertEdge(NodeId(0), NodeId(n)));
    batch
}

/// An applied version must read like a fresh prepare of its graph: the
/// same reachability, every node's successors included.
fn assert_same_closure(applied: &PreparedGraph<String>, fresh: &PreparedGraph<String>, at: &str) {
    let successors = |p: &PreparedGraph<String>, u: NodeId| {
        let mut s: Vec<NodeId> = p.closure().successors_iter(u).collect();
        s.sort_unstable();
        s
    };
    for u in applied.graph().nodes() {
        assert_eq!(
            successors(applied, u),
            successors(fresh, u),
            "{at}: successors of {u:?}"
        );
    }
}

/// Every version a chain of SCC-merging and -splitting batches derives,
/// and then one batch past 256 updates, builds the closure and the
/// `G2*` a fresh prepare of its graph builds, and answers every
/// compressed query exactly like it — on every backend, whether
/// compression is pinned on or decided per version. Every backend
/// counts each batch's applied, no-op and rejected updates alike.
#[test]
fn applied_versions_build_the_g2_star_of_a_fresh_prepare() {
    let (data, ranges) = union_graph(7);
    let queries = compressed_queries(&data, &ranges);
    let engine: Engine<String> = Engine::default();
    for compression in [CompressionPolicy::Always, CompressionPolicy::Auto] {
        let mut counts_by_backend = Vec::new();
        for backend in [
            ClosureBackend::Dense,
            ClosureBackend::Chain,
            ClosureBackend::TwoHop,
        ] {
            let options = PrepareOptions {
                backend,
                compression,
                ..Default::default()
            };
            let mut current = Arc::new(PreparedGraph::prepare(Arc::new(data.clone()), options));
            let mut rng = XorShift64::new(0x6257);
            let mut back_edges = Vec::new();
            let (mut merged, mut split, mut kept) = (false, false, 0);
            let mut counts = Vec::new();
            for batch in 0..=12 {
                let updates = if batch < 12 {
                    scc_batch(&current, &ranges, &mut back_edges, &mut rng)
                } else {
                    oversized_batch(current.graph(), &ranges)
                };
                let outcome = current.apply(&updates);
                let (next, stats) = (outcome.prepared, outcome.stats);
                counts.push((stats.applied, stats.noops, stats.rejected));
                let at = format!("{backend:?} {compression:?} batch {batch}");
                if batch == 12 {
                    assert!(updates.len() > 256 && stats.noops > 0, "{at}");
                    assert_eq!(stats.rejected, 1, "{at}");
                    assert_eq!(stats.rebuilds, 1, "{at}: one rebuild per oversized batch");
                    assert_eq!(stats.backend_fallbacks, 0, "{at}: admission, not downgrade");
                } else if backend == ClosureBackend::TwoHop {
                    assert_eq!(stats.rebuilds, 1, "{at}: one rebuild per 2-hop batch");
                    assert_eq!(stats.fallback_unsupported, 1, "{at}");
                }
                let before = current.stats().scc_count;
                merged |= next.stats().scc_count < before;
                split |= next.stats().scc_count > before;
                let fresh = PreparedGraph::prepare(Arc::clone(next.graph()), options);
                assert_eq!(
                    next.stats().closure_backend,
                    fresh.stats().closure_backend,
                    "{at}"
                );
                assert_same_closure(&next, &fresh, &at);
                assert_same_g2_star(&next, &fresh, &at);
                kept += usize::from(next.compressed().is_some());
                for (i, q) in queries.iter().enumerate() {
                    let (a, f) = (engine.execute(&next, q), engine.execute(&fresh, q));
                    assert_eq!(a.plan.kind, PlanKind::Approx);
                    assert_eq!(
                        a.outcome.stats.compression.is_some(),
                        next.compressed().is_some(),
                        "{at}: query {i} matches against G2* whenever it is kept"
                    );
                    assert_eq!(
                        a.outcome.mapping.pairs().collect::<Vec<_>>(),
                        f.outcome.mapping.pairs().collect::<Vec<_>>(),
                        "{at}: query {i}"
                    );
                    assert_eq!(a.outcome.qual_card, f.outcome.qual_card, "{at}: query {i}");
                    assert_eq!(a.outcome.qual_sim, f.outcome.qual_sim, "{at}: query {i}");
                }
                current = next;
            }
            assert!(
                merged && split,
                "{backend:?} {compression:?}: the chain merges and splits"
            );
            assert!(
                kept > 0,
                "{backend:?} {compression:?}: some version keeps compression"
            );
            counts_by_backend.push(counts);
        }
        assert!(
            counts_by_backend.windows(2).all(|w| w[0] == w[1]),
            "{compression:?}: backends count the batches alike: {counts_by_backend:?}"
        );
    }
}

/// A deletion past the damage budget rebuilds the dense closure and the
/// chain index alike, and the service reports both the same way: equal
/// `UpdateStats` (timings aside), equal journal events, and a version
/// that reads like a fresh prepare of its graph.
#[test]
fn damage_rebuilds_are_reported_alike_on_every_maintainer() {
    // n0 -> n1 -> ... -> n9: cutting n8 -> n9 shrinks the reach of
    // n0..n8, a cone of 9 of 10 components, past the budget of half.
    let labels: Vec<String> = (0..10).map(|i| format!("n{i}")).collect();
    let path = Arc::new(DiGraph::from_edges(
        labels,
        (0..9).map(|i| (NodeId(i), NodeId(i + 1))),
    ));
    let cut = [GraphUpdate::RemoveEdge(NodeId(8), NodeId(9))];
    let mut reports = Vec::new();
    for backend in [ClosureBackend::Dense, ClosureBackend::Chain] {
        let config = ServiceConfig::builder()
            .engine(
                EngineConfig::builder()
                    .planner(PlannerConfig::builder().closure_backend(backend).build())
                    .build(),
            )
            .journal_capacity(16)
            .build();
        let service: Service<String> = Service::new(config.clone());
        service
            .register("g".into(), Arc::clone(&path))
            .expect("register");
        let summary = service.apply_updates("g", &cut).expect("apply");
        let stats = UpdateStats {
            closure_maintain_micros: 0,
            bounded_refresh_micros: 0,
            apply_micros: 0,
            ..summary.stats
        };
        assert_eq!(stats.rebuilds, 1, "{backend:?}");
        assert_eq!(stats.fallback_damage, 1, "{backend:?}");
        let events: Vec<(Severity, EventKind)> = service
            .journal()
            .snapshot()
            .into_iter()
            .map(|mut e| {
                if let EventKind::UpdateApplied { micros, .. } = &mut e.kind {
                    *micros = 0;
                }
                (e.severity, e.kind)
            })
            .collect();
        assert!(
            events.contains(&(
                Severity::Warn,
                EventKind::BackendFallback {
                    fallbacks: 1,
                    reason: "damage-threshold".into(),
                }
            )),
            "{backend:?}: {events:?}"
        );
        // The version reads like a fresh registration of its graph.
        let graph = service.graph("g").expect("registered");
        let fresh: Service<String> = Service::new(config);
        fresh.register("g".into(), graph).expect("register");
        let info = service.graph_info("g").expect("info");
        let fresh_info = fresh.graph_info("g").expect("info");
        assert_eq!(
            info.closure_backend, fresh_info.closure_backend,
            "{backend:?}"
        );
        assert_eq!(info.scc_count, fresh_info.scc_count, "{backend:?}");
        assert_eq!(info.closure_edges, fresh_info.closure_edges, "{backend:?}");
        assert_eq!(
            info.compressed_nodes, fresh_info.compressed_nodes,
            "{backend:?}"
        );
        let entry = service.registry().get("g").expect("registered");
        assert_eq!(entry.validate_deep(10).err(), None, "{backend:?}");
        reports.push((stats, events));
    }
    assert_eq!(reports[0], reports[1], "dense and chain report alike");
}
