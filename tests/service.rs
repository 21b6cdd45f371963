//! Service-layer integration tests: the acceptance criteria of the
//! service redesign.
//!
//! 1. **Sharded-vs-unsharded result identity** — a registry that split a
//!    multi-WCC graph into shards must answer every query whose pattern
//!    components each have their candidates on one shard *identically*
//!    (same mapping, same qualities) to a single unsharded
//!    `PreparedGraph`, across the four algorithms and a stretch-bounded
//!    row, including after `ApplyUpdates` batches. Property-tested over random
//!    multi-part graphs and patterns, under label equality and under a
//!    graded matrix with scores at ξ and between 0 and ξ, at ξ = 0.5 and
//!    at ξ = 0 (where a zero score still never matches). A component with
//!    candidates on two shards keeps its quality, not always its mapping
//!    (`tied_shard_answers_merge_to_the_smallest_ids`).
//! 2. **Cache-hit accounting** — the engine's `cache_hits` counts the
//!    queries that built no hop-bounded closure, on unsharded and
//!    sharded graphs alike, the service's hit ratios read
//!    `cache_hits / queries`, and every flight record carries its
//!    query's flag, traced or not.
//!
//! The admission-control criterion (shedding under overload) is its own
//! test target, `tests/overload.rs`.

use phom::prelude::*;
use phom::service::ShardMap;
use std::sync::Arc;

/// Grid of query configurations at threshold `xi`: the four Table-1
/// algorithms, plus one bounded-stretch row, each as serving runs it (no
/// restarts unless asked). The p-hom rows use `G2*` wherever the
/// prepared graph kept it; the 1-1 rows and the stretch row run the
/// uncompressed kernel.
fn config_grid(xi: f64) -> Vec<QueryConfig> {
    let mut grid = Vec::new();
    for algorithm in [
        Algorithm::MaxCard,
        Algorithm::MaxCard1to1,
        Algorithm::MaxSim,
        Algorithm::MaxSim1to1,
    ] {
        let mut config = QueryConfig::builder().xi(xi).algorithm(algorithm).build();
        grid.push(config.clone());
        if algorithm == Algorithm::MaxCard {
            config.max_stretch = Some(2);
            grid.push(config);
        }
    }
    grid
}

/// A deterministic multi-part instance: `parts` disjoint WCC groups with
/// disjoint label alphabets (part `p` uses labels `p*8 ..`), plus a
/// pattern whose components each target one part's alphabet, plus an
/// intra-part update batch. Everything is derived from `seed` via the
/// graph crate's xorshift, so each case is reproducible.
struct Instance {
    data: Arc<DiGraph<u8>>,
    pattern: Arc<DiGraph<u8>>,
    updates: Vec<GraphUpdate>,
}

fn instance(seed: u64, parts: usize) -> Instance {
    let mut rng = phom::graph::XorShift64::new(seed);
    let mut data: DiGraph<u8> = DiGraph::new();
    let mut part_ranges = Vec::new();
    for p in 0..parts {
        let n = 4 + rng.below(4); // 4..=7 nodes
        let base = data.node_count();
        for i in 0..n {
            data.add_node((p * 8 + i % 3) as u8);
        }
        let edges = rng.below(2 * n) + n / 2;
        for _ in 0..edges {
            let a = NodeId((base + rng.below(n)) as u32);
            let b = NodeId((base + rng.below(n)) as u32);
            data.add_edge(a, b);
        }
        // Spanning path so the part is one WCC (otherwise two parts'
        // fragments could interleave shard groups, which is legal but
        // makes the test's "parts = shards" bookkeeping noisy).
        for i in 1..n {
            let (a, b) = (base + i - 1, base + i);
            data.add_edge(NodeId(a as u32), NodeId(b as u32));
        }
        part_ranges.push((base, n));
    }

    let mut pattern: DiGraph<u8> = DiGraph::new();
    for (p, _) in part_ranges.iter().enumerate() {
        // Each part gets a pattern component with probability ~3/4; the
        // first part always does (a pattern must be non-empty).
        if p > 0 && rng.below(4) == 0 {
            continue;
        }
        let n = 2 + rng.below(3); // 2..=4 nodes
        let base = pattern.node_count();
        for i in 0..n {
            // Modulus 4 > the data's 3: label `p*8+3` has no candidate,
            // covering unmatchable pattern nodes.
            pattern.add_node((p * 8 + i % 4) as u8);
        }
        for _ in 0..rng.below(n) + 1 {
            let a = NodeId((base + rng.below(n)) as u32);
            let b = NodeId((base + rng.below(n)) as u32);
            pattern.add_edge(a, b);
        }
    }

    let mut updates = Vec::new();
    for _ in 0..rng.below(6) {
        let (base, n) = part_ranges[rng.below(part_ranges.len())];
        let a = NodeId((base + rng.below(n)) as u32);
        let b = NodeId((base + rng.below(n)) as u32);
        updates.push(if rng.below(2) == 0 {
            GraphUpdate::InsertEdge(a, b)
        } else {
            GraphUpdate::RemoveEdge(a, b)
        });
    }

    Instance {
        data: Arc::new(data),
        pattern: Arc::new(pattern),
        updates,
    }
}

fn sharded_service<L: ServiceLabel>(max_shards: usize) -> Service<L> {
    Service::new(
        ServiceConfig::builder()
            .sharding(ShardingConfig {
                max_shards,
                min_shard_nodes: 0,
            })
            .build(),
    )
}

fn pairs(m: &PHomMapping) -> Vec<(NodeId, NodeId)> {
    m.pairs().collect()
}

/// Asserts the sharded service and the unsharded engine, on its
/// prepared version of the same graph, agree on every grid
/// configuration for the given pattern.
fn assert_identical(
    service: &Service<u8>,
    engine: &Engine<u8>,
    prepared: &PreparedGraph<u8>,
    pattern: &Arc<DiGraph<u8>>,
    context: &str,
) {
    let matrix = SimMatrix::label_equality(pattern, prepared.graph());
    assert_identical_on(service, engine, prepared, pattern, &matrix, 0.5, context);
}

/// A graded similarity over an [`instance`]'s labels (part `p` uses
/// labels `p*8 ..`): equal labels score 1.0 in even parts and exactly
/// the grid's ξ = 0.5 in odd ones, other pairs in the same part 0.2,
/// 0.35 or 0.5, and pairs across parts 0. Scores sit at ξ and between 0
/// and ξ, where label equality has none. A `dimmed` part's scores are
/// scaled by 0.4, so it holds non-zero pairs but no candidate.
fn graded_matrix(pattern: &DiGraph<u8>, data: &DiGraph<u8>, dimmed: Option<u8>) -> SimMatrix {
    SimMatrix::from_fn(pattern.node_count(), data.node_count(), |v, u| {
        let (a, b) = (*pattern.label(v), *data.label(u));
        let part = a / 8;
        let s = if part != b / 8 {
            0.0
        } else if a == b {
            if part % 2 == 0 {
                1.0
            } else {
                0.5
            }
        } else {
            [0.2, 0.35, 0.5][(v.index() + u.index()) % 3]
        };
        if dimmed == Some(part) {
            0.4 * s
        } else {
            s
        }
    })
}

/// [`assert_identical`] with the given similarity matrix on the grid at
/// `xi`; returns each grid configuration's consulted shard count.
///
/// At ξ = 0 the graded matrix's scores below 0.5 are candidates too, and
/// an exact plan may then pick another of several equal optima than the
/// unsharded run (the exact search breaks ties by candidate order, and
/// 1-1 components share one search there but not across shards). An
/// exact plan at ξ = 0 must reach the unsharded objective: qualCard for
/// the MaxCard algorithms, qualSim for the MaxSim ones.
fn assert_identical_on(
    service: &Service<u8>,
    engine: &Engine<u8>,
    prepared: &PreparedGraph<u8>,
    pattern: &Arc<DiGraph<u8>>,
    matrix: &SimMatrix,
    xi: f64,
    context: &str,
) -> Vec<usize> {
    let mut consulted = Vec::new();
    for (ci, config) in config_grid(xi).into_iter().enumerate() {
        let similarity = config.algorithm.similarity();
        let mut query = Query::new(Arc::clone(pattern), matrix.clone());
        query.config = config;
        let sharded = service
            .query("g", &query)
            .unwrap_or_else(|e| panic!("{context} xi {xi} config {ci}: {e}"));
        let reference = engine.execute(prepared, &query);
        // Neither run maps a zero-score pair, at any ξ.
        for (v, u) in sharded
            .mapping
            .pairs()
            .chain(reference.outcome.mapping.pairs())
        {
            assert!(
                matrix.score(v, u) > 0.0,
                "{context} xi {xi} config {ci}: mapped zero-score pair {v:?} -> {u:?}"
            );
        }
        if xi == 0.0 && sharded.plan.kind == PlanKind::Exact {
            let (ours, theirs) = if similarity {
                (sharded.qual_sim, reference.outcome.qual_sim)
            } else {
                (sharded.qual_card, reference.outcome.qual_card)
            };
            assert!(
                (ours - theirs).abs() < 1e-12,
                "{context} xi {xi} config {ci}: exact objective {ours} vs unsharded {theirs}"
            );
        } else {
            assert_eq!(
                pairs(&sharded.mapping),
                pairs(&reference.outcome.mapping),
                "{context} xi {xi} config {ci}: mapping diverged (plan {:?}, {} shards consulted)",
                sharded.plan.kind,
                sharded.shards_consulted,
            );
            assert_eq!(
                sharded.qual_card, reference.outcome.qual_card,
                "{context} xi {xi} config {ci}: qualCard diverged"
            );
            assert_eq!(
                sharded.qual_sim, reference.outcome.qual_sim,
                "{context} xi {xi} config {ci}: qualSim diverged"
            );
        }
        consulted.push(sharded.shards_consulted);
    }
    consulted
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The headline property: sharded registry ≡ unsharded prepared
        /// graph across the whole grid, before and after update batches,
        /// for 2–4 parts and shard budgets that force both one-part and
        /// multi-part shards.
        #[test]
        fn prop_sharded_identical_to_unsharded(
            seed in any::<u64>(),
            parts in 2usize..5,
            max_shards in 2usize..5,
        ) {
            let inst = instance(seed, parts);
            let service = sharded_service(max_shards);
            let info = service
                .register("g".into(), Arc::clone(&inst.data))
                .expect("register");
            prop_assert!(
                info.shards > 1,
                "multi-part graph must actually shard (got {})",
                info.shards
            );
            let engine: Engine<u8> = Engine::default();
            let prepared = engine.prepare(&inst.data);
            assert_identical(&service, &engine, &prepared, &inst.pattern, "fresh");

            if inst.updates.is_empty() {
                return Ok(());
            }
            // Apply the same batch both sides and compare again.
            service.apply_updates("g", &inst.updates).expect("apply");
            let reference = engine.apply_updates(&prepared, &inst.updates);
            prop_assert_eq!(
                service.graph("g").expect("registered").edge_count(),
                reference.prepared.graph().edge_count(),
                "full graphs diverged after updates"
            );
            assert_identical(&service, &engine, &reference.prepared, &inst.pattern, "post-update");
        }

        /// Sharded ≡ unsharded on the same instances and grid under the
        /// graded matrix, whose scores sit at ξ and between 0 and ξ, with
        /// the grid at ξ = 0.5 and at ξ = 0: fresh (also with the last
        /// part dimmed below 0.5), after the instance's update batch, and
        /// after an insert that bridges the first and last parts. Fresh,
        /// the query consults exactly the shards that hold a candidate
        /// pair (at ξ = 0, a pair scoring above 0).
        #[test]
        fn prop_sharded_identical_to_unsharded_at_boundary_scores(
            seed in any::<u64>(),
            parts in 2usize..5,
            max_shards in 2usize..5,
        ) {
            let inst = instance(seed, parts);
            let service = sharded_service(max_shards);
            service
                .register("g".into(), Arc::clone(&inst.data))
                .expect("register");
            let engine: Engine<u8> = Engine::default();
            let prepared = engine.prepare(&inst.data);
            let sharding = ShardingConfig {
                max_shards,
                min_shard_nodes: 0,
            };
            let (map, _) =
                ShardMap::split(Arc::clone(&inst.data), &sharding, CompressionPolicy::Auto);
            let xis = [0.5, 0.0];
            let dims = [None, Some((parts - 1) as u8)];
            for (xi, dimmed) in xis.into_iter().flat_map(|xi| dims.map(|d| (xi, d))) {
                let matrix = graded_matrix(&inst.pattern, &inst.data, dimmed);
                let consulted = assert_identical_on(
                    &service,
                    &engine,
                    &prepared,
                    &inst.pattern,
                    &matrix,
                    xi,
                    "fresh",
                );
                let floor = candidate_floor(xi);
                let holding = (0..map.shard_count())
                    .filter(|&si| {
                        map.shard_nodes(si).iter().any(|&u| {
                            inst.pattern.nodes().any(|v| matrix.score(v, u) >= floor)
                        })
                    })
                    .count();
                prop_assert!(
                    consulted.iter().all(|&c| c == holding),
                    "xi {} dimmed part {:?}: consulted {:?}, {} shards hold a candidate pair",
                    xi,
                    dimmed,
                    consulted,
                    holding
                );
            }

            let matrix = graded_matrix(&inst.pattern, &inst.data, None);
            let mut reference = prepared;
            if !inst.updates.is_empty() {
                service.apply_updates("g", &inst.updates).expect("apply");
                reference = engine.apply_updates(&reference, &inst.updates).prepared;
                for xi in xis {
                    let (pattern, context) = (&inst.pattern, "post-update");
                    assert_identical_on(&service, &engine, &reference, pattern, &matrix, xi, context);
                }
            }
            let last = NodeId((inst.data.node_count() - 1) as u32);
            let bridge = [
                GraphUpdate::InsertEdge(NodeId(0), last),
                GraphUpdate::InsertEdge(last, NodeId(0)),
            ];
            service.apply_updates("g", &bridge).expect("apply");
            reference = engine.apply_updates(&reference, &bridge).prepared;
            for xi in xis {
                let (pattern, context) = (&inst.pattern, "post-bridge");
                assert_identical_on(&service, &engine, &reference, pattern, &matrix, xi, context);
            }
        }
    }
}

/// An insert that joins two shards re-splits the entry, which keeps
/// answering like the unsharded engine. Two inputs: a two-way bridge
/// between parts 0 and 2 on a fresh graph, and a one-way insert after the
/// instance's own batch (seed 375 once mapped a pattern node to a
/// different data node than the engine, at equal qualCard).
#[test]
fn cross_shard_insert_stays_identical_after_resharding() {
    // (seed, parts, max_shards, the instance's batch first, two-way)
    for (seed, parts, max_shards, batch_first, two_way) in
        [(99, 3, 3, false, true), (375, 4, 4, true, false)]
    {
        let inst = instance(seed, parts);
        let service = sharded_service(max_shards);
        service
            .register("g".into(), Arc::clone(&inst.data))
            .expect("register");
        let engine: Engine<u8> = Engine::default();
        let mut reference = engine.prepare(&inst.data);
        if batch_first {
            service.apply_updates("g", &inst.updates).expect("apply");
            reference = engine.apply_updates(&reference, &inst.updates).prepared;
        }
        let last = NodeId((inst.data.node_count() - 1) as u32);
        let mut bridge = vec![GraphUpdate::InsertEdge(NodeId(0), last)];
        if two_way {
            bridge.push(GraphUpdate::InsertEdge(last, NodeId(0)));
        }
        let summary = service.apply_updates("g", &bridge).expect("apply");
        assert!(
            summary.resharded,
            "seed {seed}: cross-shard insert re-splits"
        );
        reference = engine.apply_updates(&reference, &bridge).prepared;
        assert_identical(
            &service,
            &engine,
            &reference,
            &inst.pattern,
            &format!("seed {seed} post-bridge"),
        );
    }
}

/// Shards that answer the pattern `x → y` equally well merge to the
/// smallest global ids, under the default plan and a forced greedy one.
/// A greedy run over the whole graph ranks tied images by look-ahead
/// first, so it picks the same ids only where the tied images look ahead
/// alike (see the `phom_service::shard_map` module docs); both answers
/// map the whole pattern at full similarity either way.
///
/// 1. Three 2-node WCCs, `z0 → z1` and two `x → y` (nodes 2, 3 and 4,
///    5), pack into shards {0, 1, 4, 5} and {2, 3}: the first shard
///    holds the larger ids of the tie, and both images of `x` look ahead
///    alike.
/// 2. `0:x → 1:y` and `2:x → 3:y, 2:x → 4:y, 5:x → 3:y` sit on separate
///    shards. Image 2 of `x` leaves `y` two candidates where 0 and 5
///    leave one, so the greedy unsharded run answers `{x→2, y→3}`; the
///    default plan is exact (6 candidate pairs) and agrees with the
///    merge.
#[test]
fn tied_shard_answers_merge_to_the_smallest_ids() {
    // (data labels, data edges, the first shard's nodes, the smallest
    // tied images, the greedy unsharded run's images)
    type Case = (
        &'static [&'static str],
        &'static [(u32, u32)],
        &'static [u32],
        [u32; 2],
        [u32; 2],
    );
    let cases: [Case; 2] = [
        (
            &["z0", "z1", "x", "y", "x", "y"],
            &[(0, 1), (2, 3), (4, 5)],
            &[0, 1, 4, 5],
            [2, 3],
            [2, 3],
        ),
        (
            &["x", "y", "x", "y", "y", "x"],
            &[(0, 1), (2, 3), (2, 4), (5, 3)],
            &[0, 1],
            [0, 1],
            [2, 3],
        ),
    ];
    let pattern = Arc::new(graph_from_labels(&["x", "y"], &[("x", "y")]));
    let images = |[x, y]: [u32; 2]| vec![(NodeId(0), NodeId(x)), (NodeId(1), NodeId(y))];
    for (ci, (labels, edges, first_shard, smallest, greedy)) in cases.into_iter().enumerate() {
        let mut data: DiGraph<String> = DiGraph::new();
        for &label in labels {
            data.add_node(label.to_owned());
        }
        for &(a, b) in edges {
            data.add_edge(NodeId(a), NodeId(b));
        }
        let data = Arc::new(data);
        let service: Service<String> = sharded_service(2);
        service
            .register("g".into(), Arc::clone(&data))
            .expect("register");
        let (map, _) = ShardMap::split(
            Arc::clone(&data),
            &ShardingConfig {
                max_shards: 2,
                min_shard_nodes: 0,
            },
            CompressionPolicy::Auto,
        );
        let first_shard: Vec<NodeId> = first_shard.iter().map(|&u| NodeId(u)).collect();
        assert_eq!(map.shard_nodes(0), first_shard, "case {ci}");
        let engine: Engine<String> = Engine::default();
        let prepared = engine.prepare(&data);
        for algorithm in [
            Algorithm::MaxCard,
            Algorithm::MaxCard1to1,
            Algorithm::MaxSim,
            Algorithm::MaxSim1to1,
        ] {
            for (force_plan, unsharded_images) in
                [(None, smallest), (Some(PlanKind::Approx), greedy)]
            {
                let mut query = Query::new(
                    Arc::clone(&pattern),
                    SimMatrix::label_equality(&pattern, &data),
                );
                query.config.algorithm = algorithm;
                query.config.force_plan = force_plan;
                let sharded = service.query("g", &query).expect("query");
                let unsharded = engine.execute(&prepared, &query);
                let context = format!("case {ci}, {algorithm:?}, forced plan {force_plan:?}");
                assert_eq!(sharded.shards_consulted, 2, "{context}");
                assert_eq!(pairs(&sharded.mapping), images(smallest), "{context}");
                assert_eq!(
                    pairs(&unsharded.outcome.mapping),
                    images(unsharded_images),
                    "{context}"
                );
                assert_eq!(
                    (sharded.qual_card, sharded.qual_sim),
                    (unsharded.outcome.qual_card, unsharded.outcome.qual_sim),
                    "{context}"
                );
            }
        }
    }
}

/// A sharded entry whose shards resolved to different reachability
/// backends (a 10-node WCC on the chain index, a 3-node one dense)
/// snapshots, restores through the validation gate, and answers exactly
/// as the service that wrote the snapshot.
#[test]
fn mixed_backend_entry_restores_through_the_gate() {
    let service = || -> Service<String> {
        Service::new(
            ServiceConfig::builder()
                .engine(
                    EngineConfig::builder()
                        .planner(PlannerConfig::builder().chain_node_threshold(8).build())
                        .build(),
                )
                .sharding(ShardingConfig {
                    max_shards: 2,
                    min_shard_nodes: 0,
                })
                .build(),
        )
    };
    let labels: Vec<String> = (0..10)
        .map(|i| format!("a{i}"))
        .chain((0..3).map(|i| format!("b{i}")))
        .collect();
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let mut edges: Vec<(&str, &str)> = refs[..10].windows(2).map(|w| (w[0], w[1])).collect();
    edges.extend(refs[10..].windows(2).map(|w| (w[0], w[1])));
    edges.push(("a6", "a2"));
    let data = Arc::new(graph_from_labels(&refs, &edges));
    let original = service();
    let info = original
        .register("g".into(), Arc::clone(&data))
        .expect("register");
    assert_eq!(info.shard_nodes, vec![10, 3]);
    assert_eq!(info.closure_backend, "mixed", "chain and dense shards");
    let bytes = original.snapshot("g").expect("snapshot");

    let restored = service();
    let rinfo = restored
        .restore("g".into(), bytes)
        .expect("the gate admits a snapshot the service wrote");
    assert_eq!(
        (rinfo.shard_nodes, rinfo.closure_backend, rinfo.compression),
        (info.shard_nodes, info.closure_backend, info.compression)
    );
    let pattern = Arc::new(graph_from_labels(
        &["a0", "a5", "a3", "b0", "b2"],
        &[("a0", "a5"), ("a5", "a3"), ("b0", "b2")],
    ));
    for (ci, config) in config_grid(0.5).into_iter().enumerate() {
        let mut query = Query::new(
            Arc::clone(&pattern),
            SimMatrix::label_equality(&pattern, &data),
        );
        query.config = config;
        let want = original.query("g", &query).expect("query");
        let got = restored.query("g", &query).expect("query");
        assert_eq!(pairs(&got.mapping), pairs(&want.mapping), "config {ci}");
        assert_eq!(
            (got.qual_card, got.qual_sim, got.plan, got.shards_consulted),
            (
                want.qual_card,
                want.qual_sim,
                want.plan,
                want.shards_consulted
            ),
            "config {ci}"
        );
    }
}

/// One service holding an unsharded graph (`"one"`, a single WCC) and a
/// sharded one (`"parts"`, three 4-node WCCs with disjoint alphabets).
fn cache_service() -> Service<String> {
    let service = sharded_service(4);
    let one = graph_from_labels(
        &["a", "b", "c", "d", "e"],
        &[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    );
    let labels: Vec<String> = ["p", "q", "r"]
        .iter()
        .flat_map(|part| (0..4).map(move |i| format!("{part}{i}")))
        .collect();
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let edges: Vec<(&str, &str)> = refs
        .chunks(4)
        .flat_map(|part| part.windows(2).map(|w| (w[0], w[1])))
        .collect();
    let parts = graph_from_labels(&refs, &edges);
    let info = service
        .register("one".into(), Arc::new(one))
        .expect("register");
    assert_eq!(info.shards, 1);
    let info = service
        .register("parts".into(), Arc::new(parts))
        .expect("register");
    assert_eq!(info.shards, 3);
    service
}

/// A label-equality query against `graph`'s current version.
fn labeled_query(
    service: &Service<String>,
    graph: &str,
    labels: &[&str],
    edges: &[(&str, &str)],
    max_stretch: Option<usize>,
) -> Query<String> {
    let pattern = Arc::new(graph_from_labels(labels, edges));
    let data = service.graph(graph).expect("registered");
    let mut query = Query::new(
        Arc::clone(&pattern),
        SimMatrix::label_equality(&pattern, &data),
    );
    query.config.max_stretch = max_stretch;
    query
}

/// Runs one query and returns its response with the change it made to
/// the engine's `(cache_hits, queries)` counters.
fn run_counted(
    service: &Service<String>,
    graph: &str,
    query: &Query<String>,
    trace: bool,
) -> (QueryResponse, usize, usize) {
    let before = service.engine_stats();
    let response = service.query_traced(graph, query, trace).expect("query");
    let after = service.engine_stats();
    (
        response,
        after.cache_hits - before.cache_hits,
        after.queries - before.queries,
    )
}

/// Queries without a stretch bound run entirely on prepared state, so
/// every one of them is a cache hit — on the unsharded fast path, the
/// batch executor and the sharded scatter/gather alike.
#[test]
fn queries_without_a_stretch_bound_are_all_cache_hits() {
    let service = cache_service();
    let on_one = labeled_query(&service, "one", &["a", "c"], &[("a", "c")], None);
    let on_parts = labeled_query(
        &service,
        "parts",
        &["p0", "p2", "q1", "q3"],
        &[("p0", "p2"), ("q1", "q3")],
        None,
    );
    for _ in 0..3 {
        let (r, hits, queries) = run_counted(&service, "one", &on_one, false);
        assert_eq!((hits, queries), (1, 1));
        assert_eq!(r.qual_card, 1.0);
        let (r, hits, queries) = run_counted(&service, "parts", &on_parts, false);
        assert_eq!(r.shards_consulted, 2);
        assert_eq!(
            (hits, queries),
            (2, 2),
            "one engine query per consulted shard"
        );
        assert_eq!(r.qual_card, 1.0);
    }
    service
        .query_batch("one", &[on_one.clone(), on_one])
        .expect("batch");
    let stats = service.stats();
    assert_eq!(stats.engine.queries, 3 + 3 * 2 + 2);
    assert_eq!(stats.engine.cache_hits, stats.engine.queries);
    assert_eq!(stats.engine.prepares, 4, "one per shard, at registration");
    assert_eq!(stats.cache_hit_ratio_lifetime, 1.0);
    assert_eq!(stats.cache_hit_ratio, 1.0);
    assert_eq!(stats.cache_hit_ratio_windowed, 1.0);
}

/// The first stretch-bound query on a fresh version builds a hop-bounded
/// closure in each shard it consults, one miss apiece; its repeat reads
/// the memo and hits. The traced run's `cache_hit` agrees with the
/// change in the counter on every query.
#[test]
fn first_stretch_bound_query_misses_once_per_shard_then_hits() {
    let service = cache_service();
    let on_one = labeled_query(&service, "one", &["a", "c"], &[("a", "c")], Some(2));
    let on_parts = labeled_query(
        &service,
        "parts",
        &["p0", "p2", "q1", "q3"],
        &[("p0", "p2"), ("q1", "q3")],
        Some(2),
    );
    for (graph, query, shards) in [("one", &on_one, 1), ("parts", &on_parts, 2)] {
        // (traced, expected hits): the fresh version misses once per
        // consulted shard, then every repeat hits.
        for (step, (traced, expect_hits)) in [(true, 0), (true, shards), (false, shards)]
            .into_iter()
            .enumerate()
        {
            let (r, hits, queries) = run_counted(&service, graph, query, traced);
            assert_eq!(r.shards_consulted, shards, "{graph} step {step}");
            assert_eq!(queries, shards, "{graph} step {step}");
            assert_eq!(hits, expect_hits, "{graph} step {step}");
            if let Some(t) = r.trace.as_deref() {
                assert_eq!(
                    t.counters.cache_hit,
                    hits == queries,
                    "{graph} step {step}: the trace agrees with the counter"
                );
            }
            assert_eq!(r.qual_card, 1.0, "{graph} step {step}: within 2 hops");
        }
    }
    let stats = service.stats();
    assert_eq!(stats.engine.queries, 3 + 3 * 2);
    assert_eq!(stats.engine.cache_hits, 2 + 2 * 2, "three first-run misses");
    assert_eq!(stats.engine.prepares, 4, "closure builds are not prepares");
    let ratio = stats.engine.cache_hits as f64 / stats.engine.queries as f64;
    assert_eq!(stats.cache_hit_ratio_lifetime, ratio);
    assert_eq!(stats.cache_hit_ratio_windowed, ratio);
}

/// Flight records carry each query's cache-hit flag whether or not it
/// was traced: untraced queries with no stretch bound record a hit on
/// the unsharded path, the batch executor and the sharded
/// scatter/gather alike, and the first stretch-bound query on a fresh
/// version records a miss before its repeat records a hit.
#[test]
fn untraced_flight_records_report_cache_hits() {
    let service = cache_service();
    let parts_pattern: (&[&str], &[(&str, &str)]) =
        (&["p0", "p2", "q1", "q3"], &[("p0", "p2"), ("q1", "q3")]);
    let on_one = labeled_query(&service, "one", &["a", "c"], &[("a", "c")], None);
    let on_parts = labeled_query(&service, "parts", parts_pattern.0, parts_pattern.1, None);
    service.query("one", &on_one).expect("query");
    service.query("parts", &on_parts).expect("query");
    service
        .query_batch("one", &[on_one.clone(), on_one])
        .expect("batch");
    let records = service.flight().snapshot();
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.cache_hit()), "{records:?}");

    let bounded_one = labeled_query(&service, "one", &["a", "c"], &[("a", "c")], Some(2));
    let bounded_parts = labeled_query(&service, "parts", parts_pattern.0, parts_pattern.1, Some(2));
    for (graph, query) in [("one", &bounded_one), ("parts", &bounded_parts)] {
        for _ in 0..2 {
            let r = service.query(graph, query).expect("query");
            assert!(r.trace.is_none());
        }
    }
    let flags: Vec<bool> = service.flight().snapshot()[4..]
        .iter()
        .map(|r| r.cache_hit())
        .collect();
    assert_eq!(
        flags,
        [false, true, false, true],
        "miss, then hit, per graph"
    );
}

#[test]
fn envelope_round_trip_through_the_prelude() {
    // The facade exposes the whole envelope: register, query, stats,
    // snapshot, evict — all as values.
    let service: Service<String> = Service::default();
    let data = Arc::new(graph_from_labels(
        &["a", "b", "c"],
        &[("a", "b"), ("b", "c")],
    ));
    let Response::Registered(info) = service
        .handle(Request::RegisterGraph {
            name: "g".into(),
            graph: data.clone(),
        })
        .expect("register")
    else {
        panic!("wrong variant")
    };
    assert_eq!(info.nodes, 3);
    let pattern = Arc::new(graph_from_labels(&["a", "c"], &[("a", "c")]));
    let mat = SimMatrix::label_equality(&pattern, &data);
    let Response::Answer(answer) = service
        .handle(Request::Query {
            graph: "g".into(),
            query: Query::new(pattern, mat),
            trace: false,
        })
        .expect("query")
    else {
        panic!("wrong variant")
    };
    assert_eq!(answer.qual_card, 1.0);
    let Response::Stats(stats) = service.handle(Request::Stats).expect("stats") else {
        panic!("wrong variant")
    };
    assert_eq!(stats.queries_admitted, 1);
    assert!(stats.to_json().contains("\"queries_shed\":0"));
    let err = service
        .handle(Request::Query {
            graph: "missing".into(),
            query: {
                let p = Arc::new(graph_from_labels(&["a"], &[]));
                let m = SimMatrix::new(1, 3);
                Query::new(p, m)
            },
            trace: false,
        })
        .unwrap_err();
    assert_eq!(
        err,
        ServiceError::NotFound {
            graph: "missing".into()
        }
    );
}

/// A batch whose weights do not cover the pattern gets the same typed
/// error as the single query: the batch path runs the one query check,
/// so no batch worker panics on it.
#[test]
fn batch_and_single_queries_reject_short_weights_alike() {
    let service: Service<String> = Service::default();
    let data = Arc::new(graph_from_labels(
        &["a", "b", "c", "d", "e", "f"],
        &[("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")],
    ));
    service
        .register("g".into(), Arc::clone(&data))
        .expect("register");
    let pattern = Arc::new(graph_from_labels(
        &["a", "b", "c"],
        &[("a", "b"), ("b", "c")],
    ));
    let mut query = Query::new(
        Arc::clone(&pattern),
        SimMatrix::label_equality(&pattern, &data),
    );
    query.weights = Some(NodeWeights::uniform(1));
    let single = service.query("g", &query).unwrap_err();
    assert!(
        matches!(single, ServiceError::InvalidRequest(_)),
        "{single:?}"
    );
    let batch = service
        .query_batch("g", &[query.clone(), query])
        .unwrap_err();
    assert_eq!(batch, single);
}

/// `ShardMap::scatter_gather` with a fake per-shard step: each consulted
/// shard gets a sub-query over its own columns with the plan forced, and
/// the first failing shard aborts the query with its error instead of a
/// partial merge.
#[test]
fn scatter_gather_slices_per_shard_and_stops_at_the_first_error() {
    let data = Arc::new(graph_from_labels(
        &["a", "b", "x", "y", "z"],
        &[("a", "b"), ("x", "y"), ("y", "z")],
    ));
    let sharding = ShardingConfig {
        max_shards: 2,
        min_shard_nodes: 0,
    };
    let (map, shard_graphs) =
        ShardMap::split(Arc::clone(&data), &sharding, CompressionPolicy::Auto);
    assert_eq!(map.shard_count(), 2);
    assert_eq!(shard_graphs[0].node_count(), map.shard_nodes(0).len());
    let pattern = Arc::new(graph_from_labels(&["a", "b", "y"], &[("a", "b")]));
    let query = Query::new(
        Arc::clone(&pattern),
        SimMatrix::label_equality(&pattern, &data),
    );
    map.check("g", &query).expect("well-formed query");
    let mut seen = Vec::new();
    let result = map.scatter_gather(
        &query,
        &PlannerConfig::default(),
        false,
        |si, sub, traced| {
            assert!(!traced);
            assert_eq!(sub.matrix.n2(), map.shard_nodes(si).len());
            assert!(sub.config.force_plan.is_some());
            seen.push(si);
            Err(format!("shard {si} down"))
        },
    );
    assert_eq!(result.unwrap_err(), "shard 0 down");
    assert_eq!(seen, vec![0], "no shard runs after the first failure");
}
