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

/// Queries cut from the data graph itself: a window of each part under
/// label equality, asked with a cardinality and a similarity algorithm
/// (one restart, so the sharded answer is the unsharded one).
fn queries(data: &DiGraph<String>, ranges: &[(usize, usize)]) -> Vec<Query<String>> {
    let mut out = Vec::new();
    for &(base, n) in ranges {
        let keep: BTreeSet<NodeId> = (base..base + n.min(7)).map(|v| NodeId(v as u32)).collect();
        let pattern = Arc::new(data.induced_subgraph(&keep).0);
        for algorithm in [Algorithm::MaxCard, Algorithm::MaxSim1to1] {
            let mut q = Query::new(
                Arc::clone(&pattern),
                SimMatrix::label_equality(&*pattern, data),
            );
            q.config = QueryConfig::builder()
                .xi(0.5)
                .algorithm(algorithm)
                .restarts(1)
                .build();
            out.push(q);
        }
    }
    out
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
