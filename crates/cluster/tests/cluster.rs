//! End-to-end cluster acceptance tests over the hermetic in-process
//! channel transport: routed multi-process answers must be
//! *bit-identical* to a single-process [`Service`] run across the four
//! algorithms × closure backend — including after dynamic updates —
//! a kill-one-worker failover must promote a replica with zero wrong
//! answers, and every router error path must surface a typed error
//! (never a hang, never a partial merge reported as success).

use phom_cluster::codec::FrameConfig;
use phom_cluster::transport::{ChannelHub, TransportTimeouts};
use phom_cluster::worker::{self, WorkerOptions};
use phom_cluster::{Router, RouterConfig, RouterError, WorkerServer};
use phom_core::Algorithm;
use phom_dynamic::GraphUpdate;
use phom_engine::{ClosureBackend, EngineConfig, PlannerConfig, Query, QueryConfig};
use phom_graph::{DiGraph, NodeId, XorShift64};
use phom_service::{QueryResponse, Request, Service, ServiceConfig, ServiceError, ShardingConfig};
use phom_sim::SimMatrix;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Harness: a fleet of worker services on a channel hub plus a router.

struct Fleet {
    hub: Arc<ChannelHub>,
    addrs: Vec<String>,
    workers: Vec<(Arc<Service<String>>, WorkerServer)>,
}

/// Spawns `n` worker services on one in-process hub. Workers poll reads
/// at 50 ms so `WorkerServer::stop` (and so test teardown) is fast.
fn spawn_fleet(n: usize, planner: PlannerConfig) -> Fleet {
    let hub = ChannelHub::new();
    let timeouts = TransportTimeouts {
        read: Duration::from_millis(50),
        write: Duration::from_millis(50),
    };
    let mut addrs = Vec::new();
    let mut workers = Vec::new();
    for i in 0..n {
        let addr = format!("worker-{i}");
        let listener = hub.bind(&addr, timeouts, FrameConfig::default());
        let config = ServiceConfig::builder()
            .engine(EngineConfig::builder().planner(planner).build())
            .sharding(ShardingConfig::disabled())
            .build();
        let (service, server) =
            worker::spawn_service(config, Box::new(listener), WorkerOptions::default());
        addrs.push(addr);
        workers.push((service, server));
    }
    Fleet {
        hub,
        addrs,
        workers,
    }
}

impl Fleet {
    /// Kills worker `w` the way a process death looks to the router: the
    /// accept loop stops and the address disappears from the hub, so
    /// both live connections and redials fail.
    fn kill(&mut self, w: usize) {
        self.hub.unbind(&self.addrs[w]);
        self.workers[w].1.stop();
    }
}

fn router_for(fleet: &Fleet, planner: PlannerConfig, max_shards: usize, replicas: usize) -> Router {
    let transport = Arc::new(fleet.hub.transport(
        TransportTimeouts {
            read: Duration::from_secs(2),
            write: Duration::from_secs(2),
        },
        FrameConfig::default(),
    ));
    Router::connect(
        transport,
        &fleet.addrs,
        RouterConfig {
            planner,
            sharding: ShardingConfig {
                max_shards,
                min_shard_nodes: 0,
            },
            replicas,
            frame: FrameConfig::default(),
            redials: 1,
            retry_backoff: Duration::from_millis(1),
        },
    )
}

/// The single-process oracle: same planner, same sharding thresholds.
fn reference_service(planner: PlannerConfig, max_shards: usize) -> Service<String> {
    Service::new(
        ServiceConfig::builder()
            .engine(EngineConfig::builder().planner(planner).build())
            .sharding(ShardingConfig {
                max_shards,
                min_shard_nodes: 0,
            })
            .build(),
    )
}

// ---------------------------------------------------------------------
// Instance generation (the tests/service.rs family, String-labeled).

struct Instance {
    data: Arc<DiGraph<String>>,
    pattern: Arc<DiGraph<String>>,
    updates: Vec<GraphUpdate>,
}

/// A data graph of `parts` disconnected parts (so component-group
/// sharding actually splits it), a pattern drawing labels from a random
/// subset of parts, and intra-part updates that never bridge shards.
fn instance(seed: u64, parts: usize) -> Instance {
    let mut rng = XorShift64::new(seed);
    let mut data: DiGraph<String> = DiGraph::new();
    let mut part_nodes: Vec<Vec<NodeId>> = Vec::new();
    for p in 0..parts {
        let n = 4 + rng.below(4);
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| data.add_node(format!("l{}", (p * 8 + i) % 3)))
            .collect();
        for w in nodes.windows(2) {
            data.add_edge(w[0], w[1]);
        }
        for _ in 0..rng.below(n) {
            data.add_edge(nodes[rng.below(n)], nodes[rng.below(n)]);
        }
        part_nodes.push(nodes);
    }
    let mut pattern: DiGraph<String> = DiGraph::new();
    for p in 0..parts {
        if p > 0 && rng.below(4) < 3 {
            continue;
        }
        let m = 2 + rng.below(2);
        let nodes: Vec<NodeId> = (0..m)
            .map(|i| pattern.add_node(format!("l{}", (p * 8 + i) % 4)))
            .collect();
        for w in nodes.windows(2) {
            pattern.add_edge(w[0], w[1]);
        }
    }
    if pattern.node_count() == 0 {
        pattern.add_node("l0".to_owned());
    }
    let mut updates = Vec::new();
    for _ in 0..rng.below(6) {
        let nodes = &part_nodes[rng.below(parts)];
        let a = nodes[rng.below(nodes.len())];
        let b = nodes[rng.below(nodes.len())];
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

/// The four algorithms as serving runs them (the deterministic greedy run
/// both sides must reproduce bit-for-bit).
fn queries_for(inst: &Instance) -> Vec<Query<String>> {
    let matrix = SimMatrix::label_equality(&inst.pattern, &inst.data);
    [
        Algorithm::MaxCard,
        Algorithm::MaxCard1to1,
        Algorithm::MaxSim,
        Algorithm::MaxSim1to1,
    ]
    .into_iter()
    .map(|algorithm| {
        let mut q = Query::new(Arc::clone(&inst.pattern), matrix.clone());
        q.config = QueryConfig::builder().xi(0.5).algorithm(algorithm).build();
        q
    })
    .collect()
}

/// [`phom_engine::UpdateStats`] minus its wall-clock fields — the
/// deterministic part both sides must agree on.
fn stats_fingerprint(stats: &phom_engine::UpdateStats) -> String {
    let mut s = stats.clone();
    s.apply_micros = 0;
    s.closure_maintain_micros = 0;
    s.bounded_refresh_micros = 0;
    format!("{s:?}")
}

/// [`phom_service::GraphInfo`] minus its wall-clock field.
fn info_fingerprint(info: &phom_service::GraphInfo) -> String {
    let mut i = info.clone();
    i.prepare_micros = 0;
    format!("{i:?}")
}

fn assert_identical(label: &str, got: &QueryResponse, want: &QueryResponse) {
    assert_eq!(
        got.mapping.pairs().collect::<Vec<_>>(),
        want.mapping.pairs().collect::<Vec<_>>(),
        "{label}: mapping diverged"
    );
    assert_eq!(got.qual_card, want.qual_card, "{label}: qual_card diverged");
    assert_eq!(got.qual_sim, want.qual_sim, "{label}: qual_sim diverged");
    assert_eq!(got.plan, want.plan, "{label}: plan diverged");
    assert_eq!(
        got.shards_consulted, want.shards_consulted,
        "{label}: shards_consulted diverged"
    );
    assert_eq!(got.timed_out, want.timed_out, "{label}: timed_out diverged");
}

fn check_all(label: &str, router: &Router, reference: &Service<String>, inst: &Instance) {
    for (qi, q) in queries_for(inst).iter().enumerate() {
        let got = router
            .query("g", q, false)
            .unwrap_or_else(|e| panic!("{label}: routed query {qi} failed: {e}"));
        let want = reference
            .query("g", q)
            .unwrap_or_else(|e| panic!("{label}: reference query {qi} failed: {e}"));
        assert_identical(&format!("{label} q{qi}"), &got, &want);
    }
}

// ---------------------------------------------------------------------
// Acceptance: routed == single-process, across the whole grid.

mod identity {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The headline acceptance property: every routed answer —
        /// before and after updates — is bit-identical to the
        /// single-process service, across the algorithms, closure
        /// backends, shard counts, and fleet sizes.
        #[test]
        fn prop_routed_identical_to_single_process(
            seed in any::<u64>(),
            parts in 2usize..5,
            max_shards in 2usize..5,
            nworkers in 2usize..5,
        ) {
            for backend in [ClosureBackend::Dense, ClosureBackend::Chain, ClosureBackend::TwoHop] {
                let planner = PlannerConfig {
                    closure_backend: backend,
                    ..PlannerConfig::default()
                };
                let inst = instance(seed, parts);
                let fleet = spawn_fleet(nworkers, planner);
                let router = router_for(&fleet, planner, max_shards, 1);
                let reference = reference_service(planner, max_shards);
                let got_info = router
                    .register("g".into(), Arc::clone(&inst.data))
                    .expect("routed register");
                let want_info = reference
                    .register("g".into(), Arc::clone(&inst.data))
                    .expect("reference register");
                prop_assert_eq!(
                    info_fingerprint(&got_info),
                    info_fingerprint(&want_info),
                    "registration info diverged"
                );
                prop_assert_eq!(
                    info_fingerprint(&router.graph_info("g").expect("info")),
                    info_fingerprint(&want_info)
                );
                let label = format!("seed={seed} backend={backend:?}");
                check_all(&label, &router, &reference, &inst);
                if !inst.updates.is_empty() {
                    let got_sum = router
                        .apply_updates("g", &inst.updates)
                        .expect("routed updates");
                    let want_sum = reference
                        .apply_updates("g", &inst.updates)
                        .expect("reference updates");
                    prop_assert_eq!(
                        stats_fingerprint(&got_sum.stats),
                        stats_fingerprint(&want_sum.stats),
                        "update stats diverged ({})", label
                    );
                    check_all(&format!("{label} post-update"), &router, &reference, &inst);
                }
            }
        }
    }
}

/// A cross-shard edge insert forces a reshard on both sides, and the
/// answers stay identical through it.
#[test]
fn cross_shard_insert_reshards_and_stays_identical() {
    let planner = PlannerConfig::default();
    let inst = instance(11, 3);
    let fleet = spawn_fleet(3, planner);
    let router = router_for(&fleet, planner, 3, 1);
    let reference = reference_service(planner, 3);
    router
        .register("g".into(), Arc::clone(&inst.data))
        .expect("routed register");
    reference
        .register("g".into(), Arc::clone(&inst.data))
        .expect("reference register");
    assert!(
        router.graph_info("g").expect("info").shards > 1,
        "instance must actually shard for this test to bite"
    );

    // Bridge the first two parts: nodes 0 and (part-0 size .. +1) are in
    // different component groups by construction.
    let bridge = GraphUpdate::InsertEdge(NodeId(0), NodeId(inst.data.node_count() as u32 - 1));
    let got = router.apply_updates("g", &[bridge]).expect("routed bridge");
    let want = reference
        .apply_updates("g", &[bridge])
        .expect("reference bridge");
    assert!(got.resharded, "cross-shard insert must reshard the router");
    assert_eq!(
        stats_fingerprint(&got.stats),
        stats_fingerprint(&want.stats)
    );
    check_all("post-reshard", &router, &reference, &inst);
}

// ---------------------------------------------------------------------
// Failover: kill a worker mid-replay; zero wrong answers.

/// A deterministic 3-part instance whose pattern has one component per
/// part, so every query consults every shard (the failover must be
/// exercised on the query path, not routed around).
fn failover_instance() -> Instance {
    let mut data: DiGraph<String> = DiGraph::new();
    let mut updates = Vec::new();
    for p in 0..3u32 {
        let base = data.node_count() as u32;
        for i in 0..5 {
            data.add_node(format!("p{p}n{}", i % 2));
        }
        for i in 0..4 {
            data.add_edge(NodeId(base + i), NodeId(base + i + 1));
        }
        updates.push(GraphUpdate::InsertEdge(NodeId(base), NodeId(base + 3)));
    }
    let mut pattern: DiGraph<String> = DiGraph::new();
    for p in 0..3u32 {
        let a = pattern.add_node(format!("p{p}n0"));
        let b = pattern.add_node(format!("p{p}n1"));
        pattern.add_edge(a, b);
    }
    Instance {
        data: Arc::new(data),
        pattern: Arc::new(pattern),
        updates,
    }
}

#[test]
fn killing_a_worker_mid_replay_promotes_a_replica_with_zero_wrong_answers() {
    let planner = PlannerConfig::default();
    let inst = failover_instance();
    let mut fleet = spawn_fleet(3, planner);
    let router = router_for(&fleet, planner, 3, 1);
    let reference = reference_service(planner, 3);
    router
        .register("g".into(), Arc::clone(&inst.data))
        .expect("routed register");
    reference
        .register("g".into(), Arc::clone(&inst.data))
        .expect("reference register");
    let info = router.graph_info("g").expect("info");
    assert_eq!(info.shards, 3, "three parts must become three shards");

    // Replay: the same query grid three times over; kill worker 0 (the
    // primary of shard 0) halfway through.
    let grid = queries_for(&inst);
    let total = grid.len() * 3;
    let mut wrong = 0usize;
    let mut completed = 0usize;
    for i in 0..total {
        if i == total / 2 {
            fleet.kill(0);
        }
        let q = &grid[i % grid.len()];
        let got = router
            .query("g", q, false)
            .unwrap_or_else(|e| panic!("query {i} failed during failover: {e}"));
        let want = reference.query("g", q).expect("reference query");
        if got.mapping.pairs().collect::<Vec<_>>() != want.mapping.pairs().collect::<Vec<_>>()
            || got.qual_card != want.qual_card
            || got.qual_sim != want.qual_sim
        {
            wrong += 1;
        }
        completed += 1;
    }
    assert_eq!(wrong, 0, "failover produced wrong answers");
    assert_eq!(completed, total, "replay must complete");

    // The loss and the promotion are observable: counters...
    let stats = router.stats();
    assert!(
        stats.workers_lost >= 1,
        "lost worker not counted: {stats:?}"
    );
    assert!(
        stats.replicas_promoted >= 1,
        "no replica promotion counted: {stats:?}"
    );
    assert_eq!(stats.workers_alive, 2);
    assert!(!router.worker_alive(0));

    // ...and journaled.
    let journal: Vec<String> = router
        .journal()
        .snapshot()
        .iter()
        .map(|e| e.to_json())
        .collect();
    assert!(
        journal
            .iter()
            .any(|e| e.contains("\"event\":\"WorkerLost\"")),
        "journal missing WorkerLost: {journal:?}"
    );
    assert!(
        journal
            .iter()
            .any(|e| e.contains("\"event\":\"ReplicaPromoted\"")),
        "journal missing ReplicaPromoted: {journal:?}"
    );

    // Writes keep working against the promoted primaries, and answers
    // stay identical afterwards.
    let got_sum = router
        .apply_updates("g", &inst.updates)
        .expect("post-failover updates");
    let want_sum = reference
        .apply_updates("g", &inst.updates)
        .expect("reference updates");
    assert_eq!(
        stats_fingerprint(&got_sum.stats),
        stats_fingerprint(&want_sum.stats)
    );
    check_all("post-failover-update", &router, &reference, &inst);
}

// ---------------------------------------------------------------------
// Error paths: typed errors, bounded time, no partial merges.

#[test]
fn worker_side_service_error_mid_batch_is_typed() {
    let planner = PlannerConfig::default();
    let inst = failover_instance();
    let fleet = spawn_fleet(2, planner);
    let router = router_for(&fleet, planner, 3, 0);
    router
        .register("g".into(), Arc::clone(&inst.data))
        .expect("register");

    // Sabotage: evict shard 0 directly on its owning worker (shard 0 of
    // a replica-less ring lives on worker 0). The router's next fan-out
    // must surface the worker's typed ServiceError, not a partial merge.
    fleet.workers[0]
        .0
        .handle(Request::EvictGraph { name: "g#0".into() })
        .expect("worker-side evict");
    let grid = queries_for(&inst);
    match router.query_batch("g", &grid) {
        Err(RouterError::Service(ServiceError::NotFound { graph })) => {
            assert_eq!(graph, "g#0");
        }
        other => panic!("expected the worker's NotFound, got {other:?}"),
    }
}

#[test]
fn dead_fleet_yields_no_quorum_not_a_hang() {
    let planner = PlannerConfig::default();
    let inst = failover_instance();
    let mut fleet = spawn_fleet(1, planner);
    let router = router_for(&fleet, planner, 2, 1);
    router
        .register("g".into(), Arc::clone(&inst.data))
        .expect("register");
    let grid = queries_for(&inst);
    let probe = &grid[0];
    router.query("g", probe, false).expect("pre-kill query");

    fleet.kill(0);
    let started = std::time::Instant::now();
    match router.query("g", probe, false) {
        Err(RouterError::NoQuorum { .. }) => {}
        other => panic!("expected NoQuorum, got {other:?}"),
    }
    match router.apply_updates("g", &inst.updates) {
        Err(RouterError::NoQuorum { .. }) => {}
        other => panic!("expected NoQuorum for writes, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "dead-fleet errors must be bounded"
    );
    assert_eq!(router.heartbeat(), 0);
    assert!(!router.worker_alive(0));

    // A fresh worker rebinding the address is picked back up by the next
    // heartbeat (journaled as WorkerConnected) — new registrations can
    // use it again.
    let listener = fleet.hub.bind(
        &fleet.addrs[0],
        TransportTimeouts {
            read: Duration::from_millis(50),
            write: Duration::from_millis(50),
        },
        FrameConfig::default(),
    );
    let config = ServiceConfig::builder()
        .engine(EngineConfig::builder().planner(planner).build())
        .sharding(ShardingConfig::disabled())
        .build();
    let (_svc, _server) =
        worker::spawn_service(config, Box::new(listener), WorkerOptions::default());
    assert_eq!(router.heartbeat(), 1);
    assert!(router.worker_alive(0));
    let journal: Vec<String> = router
        .journal()
        .snapshot()
        .iter()
        .map(|e| e.to_json())
        .collect();
    assert!(
        journal
            .iter()
            .any(|e| e.contains("\"event\":\"WorkerConnected\"")),
        "journal missing WorkerConnected: {journal:?}"
    );
}

#[test]
fn registry_error_paths_are_typed() {
    let planner = PlannerConfig::default();
    let inst = failover_instance();
    let fleet = spawn_fleet(2, planner);
    let router = router_for(&fleet, planner, 2, 1);
    let grid = queries_for(&inst);
    let probe = &grid[0];

    match router.query("nope", probe, false) {
        Err(RouterError::Service(ServiceError::NotFound { graph })) => assert_eq!(graph, "nope"),
        other => panic!("expected NotFound, got {other:?}"),
    }
    router
        .register("g".into(), Arc::clone(&inst.data))
        .expect("register");
    match router.register("g".into(), Arc::clone(&inst.data)) {
        Err(RouterError::Service(ServiceError::AlreadyRegistered { graph })) => {
            assert_eq!(graph, "g");
        }
        other => panic!("expected AlreadyRegistered, got {other:?}"),
    }

    // Mismatched matrix dimensions are rejected before any fan-out.
    let mut bad = probe.clone();
    bad.matrix = SimMatrix::new(bad.pattern.node_count(), 1);
    match router.query("g", &bad, false) {
        Err(RouterError::Service(ServiceError::InvalidRequest(_))) => {}
        other => panic!("expected InvalidRequest, got {other:?}"),
    }

    router.evict("g").expect("evict");
    match router.evict("g") {
        Err(RouterError::Service(ServiceError::NotFound { .. })) => {}
        other => panic!("expected NotFound after evict, got {other:?}"),
    }
    assert!(router.graph_names().is_empty());
}
