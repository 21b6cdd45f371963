//! Service-layer integration tests: the acceptance criteria of the
//! service redesign.
//!
//! 1. **Sharded-vs-unsharded result identity** — a registry that split a
//!    multi-WCC graph into shards must answer every query *identically*
//!    (same mapping, same qualities) to a single unsharded
//!    `PreparedGraph`, across the partition × compress × algorithm grid,
//!    including after `ApplyUpdates` batches. Property-tested over random
//!    multi-part graphs and patterns.
//! 2. **Admission control** — under an overload run, a registry with a
//!    bounded queue depth sheds with `ServiceError::Overloaded`, while
//!    the p99 *service* latency of the admitted queries stays within 2×
//!    of an uncontended run of the same queries.
//! 3. **Cache-hit accounting** — the engine's `cache_hits` counts the
//!    queries that built no hop-bounded closure, on unsharded and
//!    sharded graphs alike, the service's hit ratios read
//!    `cache_hits / queries`, and every flight record carries its
//!    query's flag, traced or not.

use phom::prelude::*;
use phom::service::ShardMap;
use std::sync::Arc;

/// Grid of query configurations: partition × compress × the four
/// Table-1 algorithms, plus one bounded-stretch row. Restarts pinned to
/// 1 (the paper's algorithm): randomized restarts perturb the matrix
/// with an RNG stream over all data nodes, which is deliberately not
/// shard-local (see the `phom_service::registry` docs). A sharded entry
/// always partitions the pattern (routing components to shards *is* the
/// Appendix-B partition), so the reference run compares with
/// `partition = true`; the grid's `partition = false` arm checks that
/// the service's forcing converges to that same answer.
fn config_grid() -> Vec<QueryConfig> {
    let mut grid = Vec::new();
    for &partition in &[false, true] {
        for &compress in &[false, true] {
            for &algorithm in &[
                Algorithm::MaxCard,
                Algorithm::MaxCard1to1,
                Algorithm::MaxSim,
                Algorithm::MaxSim1to1,
            ] {
                let mut config = QueryConfig::builder()
                    .xi(0.5)
                    .algorithm(algorithm)
                    .restarts(1)
                    .partition(partition)
                    .compress(compress)
                    .build();
                grid.push(config.clone());
                if algorithm == Algorithm::MaxCard {
                    config.max_stretch = Some(2);
                    grid.push(config);
                }
            }
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
    let data = prepared.graph();
    for (ci, config) in config_grid().into_iter().enumerate() {
        let matrix = SimMatrix::label_equality(pattern, data);
        let mut query = Query::new(Arc::clone(pattern), matrix);
        query.config = config;
        let sharded = service
            .query("g", &query)
            .unwrap_or_else(|e| panic!("{context} config {ci}: {e}"));
        // Sharded execution implies pattern partitioning; the unsharded
        // reference must run the same semantics.
        let mut reference_query = query.clone();
        reference_query.config.partition = true;
        let reference = engine.execute(prepared, &reference_query);
        assert_eq!(
            pairs(&sharded.mapping),
            pairs(&reference.outcome.mapping),
            "{context} config {ci}: mapping diverged (plan {:?}, {} shards consulted)",
            sharded.plan.kind,
            sharded.shards_consulted,
        );
        assert_eq!(
            sharded.qual_card, reference.outcome.qual_card,
            "{context} config {ci}: qualCard diverged"
        );
        assert_eq!(
            sharded.qual_sim, reference.outcome.qual_sim,
            "{context} config {ci}: qualSim diverged"
        );
    }
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
    }
}

#[test]
fn cross_shard_insert_stays_identical_after_resharding() {
    let inst = instance(99, 3);
    let service = sharded_service(3);
    service
        .register("g".into(), Arc::clone(&inst.data))
        .expect("register");
    // Bridge part 0 and part 2: the entry must re-split and keep
    // answering like the unsharded engine.
    let last = NodeId((inst.data.node_count() - 1) as u32);
    let bridge = vec![
        GraphUpdate::InsertEdge(NodeId(0), last),
        GraphUpdate::InsertEdge(last, NodeId(0)),
    ];
    let summary = service.apply_updates("g", &bridge).expect("apply");
    assert!(summary.resharded, "cross-shard insert re-splits");
    let engine: Engine<u8> = Engine::default();
    let reference = engine.apply_updates(&engine.prepare(&inst.data), &bridge);
    assert_identical(
        &service,
        &engine,
        &reference.prepared,
        &inst.pattern,
        "post-bridge",
    );
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

/// The admission-control acceptance criterion: a registry with queue
/// depth 1 under an open-loop overload run sheds with
/// `ServiceError::Overloaded`, and the p99 *service* latency of the
/// admitted queries stays within 2× of the uncontended run (depth 1
/// means admitted queries execute alone — the whole point of shedding
/// instead of queueing is that admitted work is not slowed by the
/// backlog).
#[test]
fn overload_sheds_and_admitted_p99_stays_within_2x() {
    let inst = phom::workloads::generate_instance(
        &SyntheticConfig {
            m: 120,
            noise: 0.15,
            seed: 7,
        },
        1,
    );
    let data = Arc::new(inst.g2.clone());
    let pattern_nodes = 24;
    let pattern = {
        let keep: std::collections::BTreeSet<NodeId> =
            (0..pattern_nodes).map(|i| NodeId(i as u32)).collect();
        Arc::new(inst.g1.induced_subgraph(&keep).0)
    };
    let mk_query = || {
        let mat = SimMatrix::from_fn(pattern.node_count(), data.node_count(), |v, u| {
            inst.pool.similarity(*pattern.label(v), *data.label(u))
        });
        let mut q = Query::new(Arc::clone(&pattern), mat);
        q.config.xi = 0.75;
        q.config.restarts = Some(1);
        q
    };

    // Uncontended baseline: same query, sequential, unlimited admission.
    let baseline: Service<phom::workloads::synthetic::Label> = Service::new(
        ServiceConfig::builder()
            .sharding(ShardingConfig::disabled())
            .build(),
    );
    baseline
        .register("g".into(), Arc::clone(&data))
        .expect("register");
    let q = mk_query();
    let _warm = baseline.query("g", &q).expect("warm-up");
    let uncontended_p99 = || {
        let mut lat: Vec<u128> = (0..60)
            .map(|_| baseline.query("g", &q).expect("baseline query").micros)
            .collect();
        lat.sort_unstable();
        percentile_micros(&lat, 99)
    };

    // Overload: depth 1, four submitters hammering with brief backoff on
    // shed (so the one admitted query is not starved of CPU by spinners).
    let contended: Service<phom::workloads::synthetic::Label> = Service::new(
        ServiceConfig::builder()
            .sharding(ShardingConfig::disabled())
            .queue_depth(1)
            .build(),
    );
    contended
        .register("g".into(), Arc::clone(&data))
        .expect("register");
    let _warm = contended.query("g", &q).expect("warm-up");
    let overload_round = || {
        let admitted: std::sync::Mutex<Vec<u128>> = std::sync::Mutex::new(Vec::new());
        let shed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let admitted = &admitted;
                let shed = &shed;
                let contended = &contended;
                let q = &q;
                s.spawn(move || {
                    for _ in 0..60 {
                        match contended.query("g", q) {
                            Ok(r) => admitted
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(r.micros),
                            Err(ServiceError::Overloaded { .. }) => {
                                shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_micros(500));
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });
        let mut admitted = admitted.into_inner().unwrap_or_else(|e| e.into_inner());
        admitted.sort_unstable();
        (
            admitted.len(),
            percentile_micros(&admitted, 99),
            shed.load(std::sync::atomic::Ordering::Relaxed),
        )
    };

    // Timing comparison with up to 3 attempts: the test box also runs
    // other test binaries, so a single round can be polluted by external
    // CPU contention. Broken admission control (unbounded queueing) fails
    // every round by construction, so retrying does not mask the bug.
    // The baseline is re-measured around each overload round and the
    // larger p99 taken, absorbing drifting machine load.
    let mut total_shed = 0usize;
    let mut verdict = None;
    for _attempt in 0..3 {
        let base_before = uncontended_p99();
        let (admitted_count, admitted_p99, shed) = overload_round();
        let base_after = uncontended_p99();
        let base_p99 = base_before.max(base_after).max(1);
        total_shed += shed;
        assert!(admitted_count > 0, "some queries must be admitted");
        verdict = Some((admitted_p99, base_p99, admitted_count, shed));
        if admitted_p99 <= base_p99 * 2 {
            break;
        }
    }
    let (admitted_p99, base_p99, admitted_count, shed) = verdict.expect("at least one attempt");
    assert!(
        admitted_p99 <= base_p99 * 2,
        "admitted p99 {admitted_p99} us exceeds 2x the uncontended p99 {base_p99} us \
         ({admitted_count} admitted, {shed} shed)",
    );
    assert!(
        total_shed > 0,
        "4 hammering submitters at depth 1 must shed"
    );
    assert_eq!(
        contended.stats().queries_shed,
        total_shed,
        "the shed count is exported in ServiceStats"
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
            assert!(sub.config.force_plan.is_some() && sub.config.partition);
            seen.push(si);
            Err(format!("shard {si} down"))
        },
    );
    assert_eq!(result.unwrap_err(), "shard 0 down");
    assert_eq!(seen, vec![0], "no shard runs after the first failure");
}
