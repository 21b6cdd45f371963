//! Observability satellites: routed traces must tile the response time
//! with worker-tagged `worker_match` spans, and the router's transport
//! metrics must surface through the Prometheus renderer under their
//! documented names.

use phom_cluster::codec::FrameConfig;
use phom_cluster::transport::{ChannelHub, TransportTimeouts};
use phom_cluster::worker::{self, WorkerOptions};
use phom_cluster::{Router, RouterConfig, WorkerServer};
use phom_engine::{EngineConfig, PlannerConfig, Query, QueryConfig};
use phom_graph::{DiGraph, NodeId};
use phom_service::{Service, ServiceConfig, ShardingConfig};
use phom_sim::SimMatrix;
use phom_trace::render_prometheus;
use std::sync::Arc;
use std::time::Duration;

struct Fleet {
    hub: Arc<ChannelHub>,
    addrs: Vec<String>,
    workers: Vec<(Arc<Service<String>>, WorkerServer)>,
}

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

fn router_for(fleet: &Fleet, planner: PlannerConfig, max_shards: usize) -> Router {
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
            replicas: 1,
            frame: FrameConfig::default(),
            redials: 1,
            retry_backoff: Duration::from_millis(1),
        },
    )
}

/// Three disconnected parts; the pattern has one component per part so
/// every shard is consulted.
fn three_part_setup() -> (Arc<DiGraph<String>>, Query<String>) {
    let mut data: DiGraph<String> = DiGraph::new();
    for p in 0..3u32 {
        let base = data.node_count() as u32;
        for i in 0..5 {
            data.add_node(format!("p{p}n{}", i % 2));
        }
        for i in 0..4 {
            data.add_edge(NodeId(base + i), NodeId(base + i + 1));
        }
    }
    let mut pattern: DiGraph<String> = DiGraph::new();
    for p in 0..3u32 {
        let a = pattern.add_node(format!("p{p}n0"));
        let b = pattern.add_node(format!("p{p}n1"));
        pattern.add_edge(a, b);
    }
    let data = Arc::new(data);
    let pattern = Arc::new(pattern);
    let matrix = SimMatrix::label_equality(&pattern, &data);
    let mut query = Query::new(Arc::clone(&pattern), matrix);
    query.config = QueryConfig::builder().xi(0.5).restarts(1).build();
    (data, query)
}

#[test]
fn routed_traces_tile_and_tag_workers() {
    let planner = PlannerConfig::default();
    let (data, query) = three_part_setup();
    let fleet = spawn_fleet(2, planner);
    let router = router_for(&fleet, planner, 3);
    router.register("g".into(), data).expect("register");

    let response = router.query("g", &query, true).expect("traced query");
    let trace = response.trace.as_ref().expect("trace requested");

    // Span shape: plan, route, one worker_match per consulted shard (in
    // shard order), merge — nothing nested on the routed path.
    let names: Vec<&str> = trace.spans.iter().map(|s| s.kind.name()).collect();
    assert_eq!(names.first(), Some(&"plan"), "spans: {names:?}");
    assert_eq!(names.get(1), Some(&"route"), "spans: {names:?}");
    assert_eq!(names.last(), Some(&"merge"), "spans: {names:?}");
    let worker_spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.kind.name() == "worker_match")
        .collect();
    assert_eq!(
        worker_spans.len(),
        response.shards_consulted,
        "one worker_match span per consulted shard"
    );
    assert_eq!(response.shards_consulted, 3, "all three shards consulted");
    for s in &worker_spans {
        let worker = s.kind.worker().expect("worker-tagged span");
        assert!((worker as usize) < fleet.workers.len());
        assert!(s.kind.index().is_some(), "shard-indexed span");
    }
    assert!(trace.spans.iter().all(|s| !s.kind.nested()));

    // Counters agree with the response envelope.
    assert_eq!(trace.counters.shards_consulted, response.shards_consulted);

    // Tiling: top-level spans cover end-to-end time within 10% (+100 µs
    // slack for timer granularity) — the explain surface must not lose
    // routed time in the gaps.
    let sum = trace.top_level_micros() as f64;
    let total = response.micros as f64;
    assert!(
        (sum - total).abs() <= 0.10 * total + 100.0,
        "span tiling off: spans sum to {sum} µs over {total} µs end-to-end"
    );
    assert!(trace.micros_of("worker_match") > 0 || total < 1000.0);

    // The JSON rendering carries the worker tags.
    let json = trace.to_json();
    assert!(json.contains("worker_match"), "missing span kind: {json}");
    assert!(json.contains("\"worker\":"), "missing worker tag: {json}");
}

#[test]
fn transport_metrics_render_under_documented_names() {
    let planner = PlannerConfig::default();
    let (data, query) = three_part_setup();
    let mut fleet = spawn_fleet(2, planner);
    let router = router_for(&fleet, planner, 3);
    router.register("g".into(), data).expect("register");
    router.query("g", &query, false).expect("query");

    let text = render_prometheus(&router.metrics().export(), &[]);
    for family in [
        "phom_cluster_bytes_sent_total",
        "phom_cluster_bytes_received_total",
        "phom_worker_0_request_micros",
        "phom_worker_1_request_micros",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    let stats = router.stats();
    assert!(stats.bytes_sent > 0, "bytes_sent not counted: {stats:?}");
    assert!(
        stats.bytes_received > 0,
        "bytes_received not counted: {stats:?}"
    );
    assert!(stats.queries_routed >= 1);
    let json = stats.to_json();
    assert!(json.contains("\"bytes_sent\":"), "stats json: {json}");

    // A killed worker forces the redial path on the next call, which is
    // what the reconnect counter measures.
    fleet.kill_first();
    let _ = router.query("g", &query, false);
    let text = render_prometheus(&router.metrics().export(), &[]);
    assert!(
        text.contains("phom_worker_reconnects_total"),
        "missing reconnect counter in:\n{text}"
    );
    assert!(router.stats().reconnects >= 1);
}

impl Fleet {
    fn kill_first(&mut self) {
        self.hub.unbind(&self.addrs[0]);
        self.workers[0].1.stop();
    }
}
