//! Routed ≡ in-process: a router over a two-worker channel fleet must
//! answer exactly like a single-process sharded `Service` with the same
//! configs — before updates, after an intra-shard batch, and after a
//! cross-shard insert re-splits the graph. Both sides run the one
//! `ShardMap`, so this pins that the router's per-shard step (a worker
//! RPC) changes nothing but where a shard runs.

use phom::cluster::worker;
use phom::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SHARDING: ShardingConfig = ShardingConfig {
    max_shards: 3,
    min_shard_nodes: 0,
};

/// Three WCCs of ten nodes (labels `p<part>{a,b,c}`, a chain plus a
/// cycle, so the compression pin has SCCs to count), and a pattern with
/// one component per part.
fn instance() -> (Arc<DiGraph<String>>, Arc<DiGraph<String>>) {
    let mut data: DiGraph<String> = DiGraph::new();
    for p in 0..3 {
        let nodes: Vec<NodeId> = (0..10)
            .map(|i| data.add_node(format!("p{p}{}", ["a", "b", "c"][i % 3])))
            .collect();
        for w in nodes.windows(2) {
            data.add_edge(w[0], w[1]);
        }
        data.add_edge(nodes[9], nodes[5]);
    }
    let pattern = graph_from_labels(
        &["p0a", "p0c", "p1a", "p1b", "p1c", "p2b", "p2a"],
        &[
            ("p0a", "p0c"),
            ("p1a", "p1b"),
            ("p1b", "p1c"),
            ("p2b", "p2a"),
        ],
    );
    (Arc::new(data), Arc::new(pattern))
}

/// The four Table-1 algorithms plus one stretch-bounded query, at one
/// restart (the deterministic run both sides must reproduce). Labels of
/// the same part score 0.6, so every pattern node has ten candidates
/// and the planner takes the greedy approximation, not the exact plan.
fn queries(pattern: &Arc<DiGraph<String>>, data: &DiGraph<String>) -> Vec<Query<String>> {
    let matrix = matrix_from_label_fn(pattern, data, |a, b| {
        if a == b {
            1.0
        } else if a[..2] == b[..2] {
            0.6
        } else {
            0.0
        }
    });
    let mut out = Vec::new();
    for algorithm in [
        Algorithm::MaxCard,
        Algorithm::MaxCard1to1,
        Algorithm::MaxSim,
        Algorithm::MaxSim1to1,
    ] {
        let mut q = Query::new(Arc::clone(pattern), matrix.clone());
        q.config = QueryConfig::builder().xi(0.5).algorithm(algorithm).build();
        out.push(q);
    }
    let mut bounded = out[0].clone();
    bounded.config.max_stretch = Some(2);
    out.push(bounded);
    out
}

fn spawn_fleet(hub: &Arc<ChannelHub>, n: usize) -> Vec<WorkerServer> {
    let timeouts = TransportTimeouts {
        read: Duration::from_millis(50),
        write: Duration::from_millis(50),
    };
    (0..n)
        .map(|i| {
            let listener = hub.bind(&format!("worker-{i}"), timeouts, FrameConfig::default());
            let config = ServiceConfig::builder()
                .sharding(ShardingConfig::disabled())
                .build();
            worker::spawn_service(config, Box::new(listener), WorkerOptions::default()).1
        })
        .collect()
}

/// `GraphInfo` minus its wall-clock field.
fn info_fingerprint(mut info: GraphInfo) -> String {
    info.prepare_micros = 0;
    format!("{info:?}")
}

/// `UpdateSummary` minus its wall-clock fields.
fn summary_fingerprint(summary: &UpdateSummary) -> String {
    let mut stats = summary.stats.clone();
    stats.apply_micros = 0;
    stats.closure_maintain_micros = 0;
    stats.bounded_refresh_micros = 0;
    format!(
        "{stats:?} resharded={} shards={}",
        summary.resharded, summary.shards
    )
}

fn assert_same_answers(
    label: &str,
    router: &Router,
    reference: &Service<String>,
    pattern: &Arc<DiGraph<String>>,
) {
    let data = reference.graph("g").expect("registered");
    for (qi, q) in queries(pattern, &data).iter().enumerate() {
        let got = router
            .query("g", q, false)
            .unwrap_or_else(|e| panic!("{label} q{qi}: routed query failed: {e}"));
        let want = reference
            .query("g", q)
            .unwrap_or_else(|e| panic!("{label} q{qi}: reference query failed: {e}"));
        let context = format!("{label} q{qi} ({:?})", want.plan.kind);
        assert_eq!(
            got.mapping.pairs().collect::<Vec<_>>(),
            want.mapping.pairs().collect::<Vec<_>>(),
            "{context}: mapping"
        );
        assert_eq!(got.qual_card, want.qual_card, "{context}: qual_card");
        assert_eq!(got.qual_sim, want.qual_sim, "{context}: qual_sim");
        assert_eq!(got.plan, want.plan, "{context}: plan");
        assert_eq!(
            got.shards_consulted, want.shards_consulted,
            "{context}: shards"
        );
        assert_eq!(got.timed_out, want.timed_out, "{context}: timed_out");
    }
    assert_eq!(
        info_fingerprint(router.graph_info("g").expect("routed info")),
        info_fingerprint(reference.graph_info("g").expect("reference info")),
        "{label}: graph info"
    );
}

#[test]
fn routed_answers_equal_in_process_through_updates_and_a_reshard() {
    let hub = ChannelHub::new();
    let _workers = spawn_fleet(&hub, 2);
    let transport = Arc::new(hub.transport(
        TransportTimeouts {
            read: Duration::from_secs(5),
            write: Duration::from_secs(5),
        },
        FrameConfig::default(),
    ));
    let addrs: Vec<String> = (0..2).map(|i| format!("worker-{i}")).collect();
    let router = Router::connect(
        transport,
        &addrs,
        RouterConfig {
            sharding: SHARDING,
            ..RouterConfig::default()
        },
    );
    let reference: Service<String> =
        Service::new(ServiceConfig::builder().sharding(SHARDING).build());
    let (data, pattern) = instance();
    router
        .register("g".into(), Arc::clone(&data))
        .expect("routed register");
    let info = reference
        .register("g".into(), Arc::clone(&data))
        .expect("reference register");
    assert_eq!(info.shards, 3, "three WCCs, three shards");
    let plans: Vec<PlanKind> = queries(&pattern, &data)
        .iter()
        .map(|q| reference.query("g", q).expect("query").plan.kind)
        .collect();
    assert!(
        plans.contains(&PlanKind::Approx) && plans.contains(&PlanKind::Bounded),
        "the grid must reach the greedy and the bounded plans: {plans:?}"
    );
    assert_same_answers("fresh", &router, &reference, &pattern);

    // Intra-shard edits in parts 0 and 1 that keep every part connected
    // and its SCCs as they were: routed to the owning shards.
    let intra = [
        GraphUpdate::InsertEdge(NodeId(0), NodeId(3)),
        GraphUpdate::InsertEdge(NodeId(10), NodeId(13)),
        GraphUpdate::RemoveEdge(NodeId(11), NodeId(12)),
    ];
    let got = router.apply_updates("g", &intra).expect("routed batch");
    let want = reference
        .apply_updates("g", &intra)
        .expect("reference batch");
    assert!(!want.resharded, "an intra-shard batch keeps the layout");
    assert_eq!(summary_fingerprint(&got), summary_fingerprint(&want));
    assert_same_answers("post-update", &router, &reference, &pattern);

    // Bridging parts 0 and 2 merges two WCCs: both sides re-split.
    let bridge = [GraphUpdate::InsertEdge(NodeId(4), NodeId(25))];
    let got = router.apply_updates("g", &bridge).expect("routed bridge");
    let want = reference
        .apply_updates("g", &bridge)
        .expect("reference bridge");
    assert!(
        want.resharded && want.shards == 2,
        "bridge must re-split: {want:?}"
    );
    assert_eq!(summary_fingerprint(&got), summary_fingerprint(&want));
    assert_same_answers("post-reshard", &router, &reference, &pattern);
}
