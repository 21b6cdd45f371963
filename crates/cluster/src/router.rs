//! The routing front-end: places each shard of a registered graph on
//! worker processes, runs queries and updates across them, and keeps
//! read replicas hydrated from service snapshots.
//!
//! ## Result identity
//!
//! A routed graph holds the same [`ShardMap`] an in-process
//! `GraphEntry` does, so the split, the graph-wide compression pin, the
//! query check, routing, the forced sub-query, the per-component merge
//! and update routing are the registry's own code. What the router
//! adds is where a shard runs: its sub-queries and
//! update batches go to a worker over the wire (a
//! [`SpanKind::WorkerMatch`] span per consulted shard), and its graph is
//! prepared there through `RegisterPinned`. A routed answer therefore
//! equals the answer a single-process [`phom_service::Service`] (same
//! configs) would give — the property the cluster identity proptests pin
//! down.
//!
//! ## Replication and failover
//!
//! Every shard has a primary plus `replicas` read replicas hydrated from
//! the primary's service snapshot (warm indexes, preserved compression
//! pin — so replica reads are bit-identical too). Writes go to the
//! primary first and then to each replica (updates are idempotent edge
//! mutations, so a retried write cannot corrupt a replica). Reads
//! round-robin across live members. A member that fails its reconnect
//! budget is dropped and journaled as [`EventKind::WorkerLost`]; when it
//! was the primary, the first surviving replica is promoted and
//! journaled as [`EventKind::ReplicaPromoted`].

use crate::codec::{self, WireMessage};
use crate::transport::Transport;
use bytes::Bytes;
use phom_dynamic::GraphUpdate;
use phom_engine::{CompressionPolicy, PlannerConfig, PrepareStats, Query, SpanKind};
use phom_graph::serialize::to_snapshot;
use phom_graph::DiGraph;
use phom_service::{
    GraphInfo, QueryResponse, Request, Response, RoutedUpdates, ServiceError, ServiceStats,
    ShardAnswer, ShardMap, ShardingConfig, UpdateSummary,
};
use phom_trace::{EventJournal, EventKind, MetricsRegistry, Severity};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::codec::FrameConfig;

/// Tunables for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Planner cutoffs. **Must match the workers' engine planner** —
    /// the router plans once on the full candidate set and forces the
    /// decision onto every worker, and the graph-wide compression pin is
    /// derived from this config's base policy.
    pub planner: PlannerConfig,
    /// When and how finely registered graphs shard across workers (the
    /// same policy knobs as the in-process registry).
    pub sharding: ShardingConfig,
    /// Read replicas per shard (capped by the live worker count minus
    /// one; `0` disables replication).
    pub replicas: usize,
    /// Frame cap shared with the codec.
    pub frame: FrameConfig,
    /// Extra dial-and-resend attempts after an I/O failure before a
    /// worker is declared lost.
    pub redials: usize,
    /// Sleep between redial attempts.
    pub retry_backoff: Duration,
    /// Capacity of the router's lifecycle-event journal ring
    /// (`WorkerConnected` / `WorkerLost` / `ReplicaPromoted`).
    pub journal_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            planner: PlannerConfig::default(),
            sharding: ShardingConfig::default(),
            replicas: 1,
            frame: FrameConfig::default(),
            redials: 1,
            retry_backoff: Duration::from_millis(10),
            journal_capacity: 256,
        }
    }
}

/// Every way a routed request can fail, as a value. Service-level
/// failures pass through as [`RouterError::Service`]; the transport adds
/// its own classes on top.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterError {
    /// The worker-side service rejected the request (the same taxonomy
    /// a single-process caller would see).
    Service(ServiceError),
    /// A worker could not be reached within the reconnect budget; it has
    /// been marked lost and journaled.
    Unreachable {
        /// Router-assigned worker index.
        worker: usize,
        /// The address that failed.
        addr: String,
        /// The underlying I/O failure.
        detail: String,
    },
    /// Every member (primary and replicas) of a shard is lost; the
    /// request cannot be served until a worker rejoins.
    NoQuorum {
        /// The routed graph name.
        graph: String,
        /// The shard with no live members.
        shard: usize,
    },
    /// The peer answered with bytes the protocol does not allow here
    /// (codec failure or an out-of-place message kind).
    Protocol(String),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::Service(e) => write!(f, "service error: {e}"),
            RouterError::Unreachable {
                worker,
                addr,
                detail,
            } => write!(f, "worker {worker} at {addr} unreachable: {detail}"),
            RouterError::NoQuorum { graph, shard } => {
                write!(f, "no live worker holds graph {graph:?} shard {shard}")
            }
            RouterError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<ServiceError> for RouterError {
    fn from(e: ServiceError) -> Self {
        RouterError::Service(e)
    }
}

/// One worker endpoint: its dial address, the (lazily re-established)
/// connection, and liveness.
struct WorkerHandle {
    addr: String,
    conn: Mutex<Option<Box<dyn crate::transport::Connection>>>,
    alive: AtomicBool,
}

/// Where one shard of a routed graph lives: the member ring
/// (`members[0]` is the primary, the rest are read replicas).
struct RoutedShard {
    members: Mutex<Vec<usize>>,
    rr: AtomicUsize,
}

impl RoutedShard {
    fn members(&self) -> Vec<usize> {
        self.members
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// The router's view of one registered graph: its shard map (the
/// authoritative full graph, kept in sync for routing, re-shards and
/// pin-flip checks) and each shard's member ring, in map order.
struct RoutedGraph {
    map: ShardMap<String>,
    shards: Vec<RoutedShard>,
}

#[derive(Default)]
struct RouterCounters {
    workers_connected: AtomicU64,
    workers_lost: AtomicU64,
    replicas_promoted: AtomicU64,
    reconnects: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    queries_routed: AtomicU64,
    updates_routed: AtomicU64,
}

/// A point-in-time snapshot of the router's own counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Configured worker endpoints.
    pub workers: usize,
    /// Workers currently marked live.
    pub workers_alive: usize,
    /// Successful worker (re)connections over the router's lifetime.
    pub workers_connected: u64,
    /// Workers declared lost over the router's lifetime.
    pub workers_lost: u64,
    /// Replica promotions after a primary death.
    pub replicas_promoted: u64,
    /// Reconnect attempts after an I/O failure.
    pub reconnects: u64,
    /// Frame bytes sent to workers (length prefixes included).
    pub bytes_sent: u64,
    /// Frame bytes received from workers (length prefixes included).
    pub bytes_received: u64,
    /// Queries routed (single queries; batch members count once each).
    pub queries_routed: u64,
    /// Update batches routed.
    pub updates_routed: u64,
    /// Graphs currently registered through this router.
    pub graphs: usize,
}

impl RouterStats {
    /// Compact JSON rendering (field names match the struct).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers\":{},\"workers_alive\":{},\"workers_connected\":{},\
             \"workers_lost\":{},\"replicas_promoted\":{},\"reconnects\":{},\
             \"bytes_sent\":{},\"bytes_received\":{},\"queries_routed\":{},\
             \"updates_routed\":{},\"graphs\":{}}}",
            self.workers,
            self.workers_alive,
            self.workers_connected,
            self.workers_lost,
            self.replicas_promoted,
            self.reconnects,
            self.bytes_sent,
            self.bytes_received,
            self.queries_routed,
            self.updates_routed,
            self.graphs
        )
    }
}

/// The cluster front-end. See the module docs for the routing, identity,
/// and failover contracts.
pub struct Router {
    transport: Arc<dyn Transport>,
    config: RouterConfig,
    workers: Vec<WorkerHandle>,
    graphs: RwLock<BTreeMap<String, RoutedGraph>>,
    metrics: MetricsRegistry,
    journal: Arc<EventJournal>,
    counters: RouterCounters,
    ping_seq: AtomicU64,
}

fn shard_graph_name(name: &str, si: usize) -> String {
    format!("{name}#{si}")
}

impl Router {
    /// Connects to every worker address eagerly. A worker that refuses
    /// the initial dial starts out lost (journaled) and can rejoin via
    /// [`Router::heartbeat`]; registration requires at least one live
    /// worker, so a fully-dead fleet surfaces as [`RouterError::NoQuorum`]
    /// at first use rather than here.
    pub fn connect(
        transport: Arc<dyn Transport>,
        addrs: &[String],
        config: RouterConfig,
    ) -> Router {
        let journal = Arc::new(EventJournal::new(config.journal_capacity));
        let router = Router {
            workers: addrs
                .iter()
                .map(|addr| WorkerHandle {
                    addr: addr.clone(),
                    conn: Mutex::new(None),
                    alive: AtomicBool::new(false),
                })
                .collect(),
            transport,
            config,
            graphs: RwLock::new(BTreeMap::new()),
            metrics: MetricsRegistry::new(),
            journal,
            counters: RouterCounters::default(),
            ping_seq: AtomicU64::new(0),
        };
        for w in 0..router.workers.len() {
            router.try_revive(w);
        }
        router
    }

    /// The router's metrics registry: `cluster_bytes_sent` /
    /// `cluster_bytes_received` / `worker_reconnects` counters plus a
    /// `worker_<i>_request_micros` latency histogram per worker.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The router's lifecycle-event journal (`WorkerConnected`,
    /// `WorkerLost`, `ReplicaPromoted`).
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Whether worker `w` is currently marked live.
    pub fn worker_alive(&self, w: usize) -> bool {
        self.workers
            .get(w)
            .is_some_and(|h| h.alive.load(Ordering::Acquire))
    }

    /// The dial address of worker `w` (as configured).
    pub fn worker_addr(&self, w: usize) -> Option<&str> {
        self.workers.get(w).map(|h| h.addr.as_str())
    }

    /// Snapshot of the router's own counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            workers: self.workers.len(),
            workers_alive: self
                .workers
                .iter()
                .filter(|h| h.alive.load(Ordering::Acquire))
                .count(),
            workers_connected: self.counters.workers_connected.load(Ordering::Relaxed),
            workers_lost: self.counters.workers_lost.load(Ordering::Relaxed),
            replicas_promoted: self.counters.replicas_promoted.load(Ordering::Relaxed),
            reconnects: self.counters.reconnects.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.counters.bytes_received.load(Ordering::Relaxed),
            queries_routed: self.counters.queries_routed.load(Ordering::Relaxed),
            updates_routed: self.counters.updates_routed.load(Ordering::Relaxed),
            graphs: self.graphs.read().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }

    /// Fetches the first live worker's [`ServiceStats`] and overlays the
    /// router's cluster counters (`workers_connected` / `workers_lost` /
    /// `replicas_promoted`) — the cluster-aware view of the stats
    /// surface those fields exist for.
    pub fn cluster_stats(&self) -> Result<Box<ServiceStats>, RouterError> {
        for w in 0..self.workers.len() {
            if !self.worker_alive(w) {
                continue;
            }
            match self.call_worker(w, &WireMessage::Request(Request::Stats)) {
                Ok(WireMessage::Ok(Response::Stats(mut stats))) => {
                    stats.workers_connected =
                        self.counters.workers_connected.load(Ordering::Relaxed);
                    stats.workers_lost = self.counters.workers_lost.load(Ordering::Relaxed);
                    stats.replicas_promoted =
                        self.counters.replicas_promoted.load(Ordering::Relaxed);
                    return Ok(stats);
                }
                Ok(WireMessage::Err(e)) => return Err(e.into()),
                Ok(_) => {
                    return Err(RouterError::Protocol(
                        "stats request answered with a non-stats message".into(),
                    ))
                }
                Err(_) => continue,
            }
        }
        Err(RouterError::NoQuorum {
            graph: String::new(),
            shard: 0,
        })
    }

    /// Pings every worker (`Ping`/`Pong` with a sequence check) and
    /// returns the live count. Lost workers get a revival dial first, so
    /// a restarted worker rejoins the pool here (it does **not** rejoin
    /// shard member rings it was dropped from — re-register to re-place).
    pub fn heartbeat(&self) -> usize {
        let mut live = 0usize;
        for w in 0..self.workers.len() {
            if !self.worker_alive(w) && !self.try_revive(w) {
                continue;
            }
            let seq = self.ping_seq.fetch_add(1, Ordering::Relaxed);
            match self.call_worker(w, &WireMessage::Ping { seq }) {
                Ok(WireMessage::Pong { seq: got }) if got == seq => live += 1,
                Ok(_) => self.mark_lost(w, "heartbeat answered with the wrong message"),
                // `call_worker` already marked the worker lost.
                Err(_) => {}
            }
        }
        live
    }

    // ---- membership ------------------------------------------------

    /// Dials a lost (or never-connected) worker; on success it is marked
    /// live, counted, and journaled.
    fn try_revive(&self, w: usize) -> bool {
        let handle = &self.workers[w];
        match self.transport.connect(&handle.addr) {
            Ok(conn) => {
                *handle.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(conn);
                if !handle.alive.swap(true, Ordering::AcqRel) {
                    self.counters
                        .workers_connected
                        .fetch_add(1, Ordering::Relaxed);
                    self.journal
                        .emit(Severity::Info, || EventKind::WorkerConnected {
                            worker: w,
                            addr: handle.addr.clone(),
                        });
                }
                true
            }
            Err(e) => {
                if handle.alive.swap(false, Ordering::AcqRel) {
                    self.record_lost(w, &format!("dial: {e}"));
                }
                false
            }
        }
    }

    fn record_lost(&self, w: usize, reason: &str) {
        self.counters.workers_lost.fetch_add(1, Ordering::Relaxed);
        let reason = reason.to_owned();
        self.journal.emit(Severity::Warn, || EventKind::WorkerLost {
            worker: w,
            reason,
        });
    }

    /// Marks a worker lost (idempotent) and drops its connection.
    fn mark_lost(&self, w: usize, reason: &str) {
        let handle = &self.workers[w];
        *handle.conn.lock().unwrap_or_else(|e| e.into_inner()) = None;
        if handle.alive.swap(false, Ordering::AcqRel) {
            self.record_lost(w, reason);
        }
    }

    /// Drops `w` from a shard's member ring; when it was the primary,
    /// the first surviving replica is promoted (counted + journaled).
    fn drop_member(&self, graph: &str, si: usize, shard: &RoutedShard, w: usize) {
        let mut members = shard.members.lock().unwrap_or_else(|e| e.into_inner());
        let Some(pos) = members.iter().position(|&m| m == w) else {
            return;
        };
        members.remove(pos);
        if pos == 0 {
            if let Some(&promoted) = members.first() {
                self.counters
                    .replicas_promoted
                    .fetch_add(1, Ordering::Relaxed);
                let graph = graph.to_owned();
                self.journal
                    .emit(Severity::Warn, || EventKind::ReplicaPromoted {
                        graph,
                        shard: si,
                        worker: promoted,
                    });
            }
        }
    }

    // ---- the wire --------------------------------------------------

    /// One framed request/response exchange with worker `w`, with the
    /// configured redial budget. An exhausted budget marks the worker
    /// lost. Retrying a request after a reconnect is safe: queries are
    /// side-effect-free and updates are idempotent edge mutations.
    fn call_worker(&self, w: usize, msg: &WireMessage) -> Result<WireMessage, RouterError> {
        let frame = codec::encode(msg, &self.config.frame)
            .map_err(|e| RouterError::Protocol(format!("encode: {e}")))?;
        // phom-lint: allow(clock, "monotonic per-request latency sample for the worker histograms; no wall-clock semantics")
        let started = Instant::now();
        let payload = self.exchange(w, &frame)?;
        self.metrics.histogram_record(
            &format!("worker_{w}_request_micros"),
            started.elapsed().as_micros(),
        );
        codec::decode(&payload, &self.config.frame)
            .map_err(|e| RouterError::Protocol(format!("decode from worker {w}: {e}")))
    }

    fn exchange(&self, w: usize, frame: &[u8]) -> Result<Vec<u8>, RouterError> {
        let handle = &self.workers[w];
        if !handle.alive.load(Ordering::Acquire) {
            return Err(RouterError::Unreachable {
                worker: w,
                addr: handle.addr.clone(),
                detail: "worker marked lost".into(),
            });
        }
        let mut guard = handle.conn.lock().unwrap_or_else(|e| e.into_inner());
        let mut attempts = 0usize;
        loop {
            if guard.is_none() {
                match self.transport.connect(&handle.addr) {
                    Ok(conn) => *guard = Some(conn),
                    Err(e) => {
                        if attempts >= self.config.redials {
                            *guard = None;
                            drop(guard);
                            self.mark_lost(w, &format!("dial: {e}"));
                            return Err(RouterError::Unreachable {
                                worker: w,
                                addr: handle.addr.clone(),
                                detail: format!("dial: {e}"),
                            });
                        }
                        attempts += 1;
                        self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                        self.metrics.counter_add("worker_reconnects", 1);
                        thread::sleep(self.config.retry_backoff);
                        continue;
                    }
                }
            }
            let Some(conn) = guard.as_mut() else {
                continue;
            };
            match conn.send_frame(frame).and_then(|()| conn.recv_frame()) {
                Ok(payload) => {
                    let sent = frame.len() as u64;
                    let received = (payload.len() + 4) as u64;
                    self.counters.bytes_sent.fetch_add(sent, Ordering::Relaxed);
                    self.counters
                        .bytes_received
                        .fetch_add(received, Ordering::Relaxed);
                    self.metrics.counter_add("cluster_bytes_sent", sent);
                    self.metrics.counter_add("cluster_bytes_received", received);
                    return Ok(payload);
                }
                Err(e) => {
                    *guard = None;
                    if attempts >= self.config.redials {
                        drop(guard);
                        self.mark_lost(w, &format!("io: {e}"));
                        return Err(RouterError::Unreachable {
                            worker: w,
                            addr: handle.addr.clone(),
                            detail: format!("io: {e}"),
                        });
                    }
                    attempts += 1;
                    self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    self.metrics.counter_add("worker_reconnects", 1);
                    thread::sleep(self.config.retry_backoff);
                }
            }
        }
    }

    /// A read request against one shard: round-robins over the live
    /// member ring, dropping members that fail (with promotion when the
    /// primary falls). A worker-side [`ServiceError`] is final — it is
    /// the same answer every identical member would give.
    fn shard_request(
        &self,
        graph: &str,
        si: usize,
        shard: &RoutedShard,
        msg: &WireMessage,
    ) -> Result<(Response, usize), RouterError> {
        loop {
            let members = shard.members();
            if members.is_empty() {
                return Err(RouterError::NoQuorum {
                    graph: graph.to_owned(),
                    shard: si,
                });
            }
            let start = shard.rr.fetch_add(1, Ordering::Relaxed);
            let mut dropped = false;
            for k in 0..members.len() {
                let w = members[(start + k) % members.len()];
                match self.call_worker(w, msg) {
                    Ok(WireMessage::Ok(resp)) => return Ok((resp, w)),
                    Ok(WireMessage::Err(e)) => return Err(e.into()),
                    Ok(_) => {
                        return Err(RouterError::Protocol(format!(
                            "worker {w} answered a request with a non-response message"
                        )))
                    }
                    Err(RouterError::Unreachable { .. }) => {
                        self.drop_member(graph, si, shard, w);
                        dropped = true;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !dropped {
                return Err(RouterError::NoQuorum {
                    graph: graph.to_owned(),
                    shard: si,
                });
            }
        }
    }

    /// A write request against one shard: always lands on the current
    /// primary (`members[0]`), promoting through the ring on failure.
    fn primary_request(
        &self,
        graph: &str,
        si: usize,
        shard: &RoutedShard,
        msg: &WireMessage,
    ) -> Result<(Response, usize), RouterError> {
        loop {
            let Some(&primary) = shard.members().first() else {
                return Err(RouterError::NoQuorum {
                    graph: graph.to_owned(),
                    shard: si,
                });
            };
            match self.call_worker(primary, msg) {
                Ok(WireMessage::Ok(resp)) => return Ok((resp, primary)),
                Ok(WireMessage::Err(e)) => return Err(e.into()),
                Ok(_) => {
                    return Err(RouterError::Protocol(format!(
                        "worker {primary} answered a request with a non-response message"
                    )))
                }
                Err(RouterError::Unreachable { .. }) => {
                    self.drop_member(graph, si, shard, primary);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Replicates a write to every current replica of a shard. A replica
    /// that fails (transport or service) is dropped from the ring — it
    /// can no longer serve bit-identical reads.
    fn replicate(&self, graph: &str, si: usize, shard: &RoutedShard, msg: &WireMessage) {
        let members = shard.members();
        for &w in members.iter().skip(1) {
            match self.call_worker(w, msg) {
                Ok(WireMessage::Ok(_)) => {}
                _ => self.drop_member(graph, si, shard, w),
            }
        }
    }

    // ---- registration ----------------------------------------------

    /// Registers `graph` under `name`: splits it with
    /// [`ShardMap::split`] (the in-process registry's split and
    /// graph-wide compression pin), registers each shard on its primary
    /// worker, and hydrates `replicas` read replicas per shard from the
    /// primary's snapshot.
    pub fn register(
        &self,
        name: String,
        graph: Arc<DiGraph<String>>,
    ) -> Result<GraphInfo, RouterError> {
        if name.is_empty() {
            return Err(ServiceError::InvalidRequest("graph name must be non-empty".into()).into());
        }
        if self
            .graphs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(&name)
        {
            return Err(ServiceError::AlreadyRegistered { graph: name }.into());
        }
        let (routed, info) = self.build_routed(&name, graph)?;
        let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
        if graphs.contains_key(&name) {
            self.evict_shards(&name, &routed.shards);
            return Err(ServiceError::AlreadyRegistered { graph: name }.into());
        }
        graphs.insert(name, routed);
        Ok(info)
    }

    /// Evicts a routed graph: every member of every shard drops its
    /// shard graph (best-effort — lost workers are skipped), and the
    /// router forgets the shard map.
    pub fn evict(&self, name: &str) -> Result<(), RouterError> {
        let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
        let Some(routed) = graphs.remove(name) else {
            return Err(ServiceError::NotFound {
                graph: name.to_owned(),
            }
            .into());
        };
        drop(graphs);
        self.evict_shards(name, &routed.shards);
        Ok(())
    }

    /// Builds the shard map and registers every shard (with replicas)
    /// on the fleet. On failure, already-registered shards are evicted.
    fn build_routed(
        &self,
        name: &str,
        graph: Arc<DiGraph<String>>,
    ) -> Result<(RoutedGraph, GraphInfo), RouterError> {
        let base = self.config.planner.compression;
        let (map, shard_graphs) = ShardMap::split(graph, &self.config.sharding, base);
        let pinned = map.pin(base);
        let live: Vec<usize> = (0..self.workers.len())
            .filter(|&w| self.worker_alive(w))
            .collect();
        let mut shards = Vec::with_capacity(shard_graphs.len());
        let mut stats = Vec::with_capacity(shard_graphs.len());
        for (si, shard_graph) in shard_graphs.iter().enumerate() {
            // Primary on the ring, replicas on the next distinct workers.
            let want = if live.is_empty() {
                Vec::new()
            } else {
                let take = 1 + self.config.replicas.min(live.len() - 1);
                (0..take).map(|k| live[(si + k) % live.len()]).collect()
            };
            match self.register_shard(name, si, to_snapshot(shard_graph), pinned, want) {
                Ok((members, info)) => {
                    stats.push(prepare_stats(info));
                    shards.push(RoutedShard {
                        members: Mutex::new(members),
                        rr: AtomicUsize::new(0),
                    });
                }
                Err(e) => {
                    self.evict_shards(name, &shards);
                    return Err(e);
                }
            }
        }
        let info = map.info(name, &stats);
        Ok((RoutedGraph { map, shards }, info))
    }

    /// Registers one shard on its primary and hydrates the replicas from
    /// the primary's snapshot. Walks the candidate ring on primary
    /// failure; returns the surviving member ring.
    fn register_shard(
        &self,
        name: &str,
        si: usize,
        snapshot: Bytes,
        pinned: Option<CompressionPolicy>,
        mut members: Vec<usize>,
    ) -> Result<(Vec<usize>, GraphInfo), RouterError> {
        let shard_name = shard_graph_name(name, si);
        loop {
            let Some(&primary) = members.first() else {
                return Err(RouterError::NoQuorum {
                    graph: name.to_owned(),
                    shard: si,
                });
            };
            let register = WireMessage::RegisterPinned {
                name: shard_name.clone(),
                graph: snapshot.clone(),
                compression: pinned,
            };
            let info = match self.call_worker(primary, &register) {
                Ok(WireMessage::Ok(Response::Registered(info))) => info,
                Ok(WireMessage::Err(e)) => return Err(e.into()),
                Ok(_) => {
                    return Err(RouterError::Protocol(format!(
                        "worker {primary} answered registration with a non-response message"
                    )))
                }
                Err(RouterError::Unreachable { .. }) => {
                    members.remove(0);
                    continue;
                }
                Err(e) => return Err(e),
            };
            if members.len() == 1 {
                return Ok((members, info));
            }
            // Hydrate replicas from the primary's *service* snapshot so
            // warm indexes and the compression pin carry over — the
            // replica answers bit-identically from its first read.
            let snap = WireMessage::Request(Request::Snapshot {
                graph: shard_name.clone(),
            });
            let service_snapshot = match self.call_worker(primary, &snap) {
                Ok(WireMessage::Ok(Response::Snapshot(bytes))) => bytes,
                Ok(WireMessage::Err(e)) => return Err(e.into()),
                Ok(_) => {
                    return Err(RouterError::Protocol(format!(
                        "worker {primary} answered snapshot with a non-response message"
                    )))
                }
                Err(RouterError::Unreachable { .. }) => {
                    // The primary died between registering and
                    // snapshotting; its registration dies with it.
                    members.remove(0);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let mut kept = vec![primary];
            for &replica in members.iter().skip(1) {
                let restore = WireMessage::Request(Request::RestoreGraph {
                    name: shard_name.clone(),
                    snapshot: service_snapshot.clone(),
                });
                // A replica that cannot hydrate is simply not a member;
                // the shard still has its primary.
                if let Ok(WireMessage::Ok(Response::Registered(_))) =
                    self.call_worker(replica, &restore)
                {
                    kept.push(replica);
                }
            }
            return Ok((kept, info));
        }
    }

    fn evict_shards(&self, name: &str, shards: &[RoutedShard]) {
        for (si, shard) in shards.iter().enumerate() {
            let msg = WireMessage::Request(Request::EvictGraph {
                name: shard_graph_name(name, si),
            });
            for w in shard.members() {
                let _ = self.call_worker(w, &msg);
            }
        }
    }

    // ---- queries ---------------------------------------------------

    /// Routes one query. On an unsharded graph the one worker plans and
    /// runs the original query itself; otherwise
    /// [`ShardMap::scatter_gather`] plans once on the full candidate set
    /// and sends each candidate-holding shard's forced sub-query to one
    /// of its workers, so the answer is bit-identical to a
    /// single-process service run.
    pub fn query(
        &self,
        graph: &str,
        query: &Query<String>,
        trace: bool,
    ) -> Result<QueryResponse, RouterError> {
        self.counters.queries_routed.fetch_add(1, Ordering::Relaxed);
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
        let Some(routed) = graphs.get(graph) else {
            return Err(ServiceError::NotFound {
                graph: graph.to_owned(),
            }
            .into());
        };
        routed.map.check(graph, query)?;
        if let [only] = routed.shards.as_slice() {
            // Unsharded: the worker holds the full graph and plans the
            // original query itself (its planner matches the router's) —
            // the same fast path the in-process registry takes.
            let msg = WireMessage::Request(Request::Query {
                graph: shard_graph_name(graph, 0),
                query: query.clone(),
                trace,
            });
            let (resp, _) = self.shard_request(graph, 0, only, &msg)?;
            return answer_of(resp);
        }
        routed
            .map
            .scatter_gather(query, &self.config.planner, trace, |si, sub, traced| {
                let msg = WireMessage::Request(Request::Query {
                    graph: shard_graph_name(graph, si),
                    query: sub,
                    trace: traced,
                });
                let (resp, worker) = self.shard_request(graph, si, &routed.shards[si], &msg)?;
                let r = answer_of(resp)?;
                Ok(ShardAnswer {
                    mapping: r.mapping,
                    timed_out: r.timed_out,
                    cache_hit: r.cache_hit,
                    trace: r.trace,
                    span: SpanKind::WorkerMatch {
                        shard: si as u32,
                        worker: worker as u32,
                    },
                })
            })
    }

    /// Routes a batch: each query takes the routed single-query path, in
    /// input order. The first failure aborts the batch — a typed error,
    /// never a partial merge dressed up as success.
    pub fn query_batch(
        &self,
        graph: &str,
        queries: &[Query<String>],
    ) -> Result<Vec<QueryResponse>, RouterError> {
        queries
            .iter()
            .map(|q| self.query(graph, q, false))
            .collect()
    }

    // ---- updates ---------------------------------------------------

    /// Applies an update batch routed by [`ShardMap::route_updates`]:
    /// cross-shard edge inserts (and pin flips) re-split the graph across
    /// the fleet; everything else goes to each owning shard's primary and
    /// is then replicated to its replicas (idempotent edge mutations, so
    /// a failover retry is safe).
    pub fn apply_updates(
        &self,
        graph: &str,
        updates: &[GraphUpdate],
    ) -> Result<UpdateSummary, RouterError> {
        self.counters.updates_routed.fetch_add(1, Ordering::Relaxed);
        let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
        let Some(routed) = graphs.get_mut(graph) else {
            return Err(ServiceError::NotFound {
                graph: graph.to_owned(),
            }
            .into());
        };
        let batch = routed.map.route_updates(updates);
        let Some(per_shard) = &batch.per_shard else {
            return self.reshard(graph, routed, &batch);
        };
        let mut shard_stats = Vec::new();
        for (si, (shard, local)) in routed.shards.iter().zip(per_shard).enumerate() {
            if local.is_empty() {
                continue;
            }
            let msg = WireMessage::Request(Request::ApplyUpdates {
                graph: shard_graph_name(graph, si),
                updates: local.clone(),
            });
            // Primary-tagged write; promotion walks the ring if the
            // primary is gone, and an empty ring is a typed NoQuorum.
            let (resp, _) = self.primary_request(graph, si, shard, &msg)?;
            let Response::Updated(sum) = resp else {
                return Err(RouterError::Protocol(
                    "update answered with a non-update response".into(),
                ));
            };
            shard_stats.push(sum.stats);
            self.replicate(graph, si, shard, &msg);
        }
        let stats = batch.fold(&shard_stats);
        let flipped = routed
            .map
            .pin_flipped(self.config.planner.compression, &stats, || {
                self.scc_sum(graph, &routed.shards)
            })?;
        if flipped {
            return self.reshard(graph, routed, &batch);
        }
        routed.map.commit(&batch);
        Ok(batch.applied(stats, routed.shards.len()))
    }

    /// The SCC counts the shards' primaries just maintained, summed from
    /// their `GraphInfo` surfaces.
    fn scc_sum(&self, graph: &str, shards: &[RoutedShard]) -> Result<usize, RouterError> {
        let mut sum = 0usize;
        for (si, shard) in shards.iter().enumerate() {
            let msg = WireMessage::Request(Request::GraphInfo {
                graph: shard_graph_name(graph, si),
            });
            let (resp, _) = self.primary_request(graph, si, shard, &msg)?;
            sum += info_of(resp)?.scc_count;
        }
        Ok(sum)
    }

    /// Evicts the old shard graphs and registers the batch's full graph
    /// from scratch (fresh split, fresh pin) — the cluster version of the
    /// registry's re-split.
    fn reshard(
        &self,
        name: &str,
        routed: &mut RoutedGraph,
        batch: &RoutedUpdates<String>,
    ) -> Result<UpdateSummary, RouterError> {
        self.evict_shards(name, &routed.shards);
        let (rebuilt, _) = self.build_routed(name, Arc::clone(&batch.graph))?;
        let summary = batch.resharded(rebuilt.shards.len());
        *routed = rebuilt;
        Ok(summary)
    }

    // ---- introspection ---------------------------------------------

    /// Aggregated shape/index statistics for a routed graph: the live
    /// per-shard `GraphInfo` surfaces folded by [`ShardMap::info`], as
    /// the in-process entry folds its shards.
    pub fn graph_info(&self, name: &str) -> Result<GraphInfo, RouterError> {
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
        let Some(routed) = graphs.get(name) else {
            return Err(ServiceError::NotFound {
                graph: name.to_owned(),
            }
            .into());
        };
        let mut stats = Vec::with_capacity(routed.shards.len());
        for (si, shard) in routed.shards.iter().enumerate() {
            let msg = WireMessage::Request(Request::GraphInfo {
                graph: shard_graph_name(name, si),
            });
            let (resp, _) = self.shard_request(name, si, shard, &msg)?;
            stats.push(prepare_stats(info_of(resp)?));
        }
        Ok(routed.map.info(name, &stats))
    }

    /// Names of the graphs registered through this router.
    pub fn graph_names(&self) -> Vec<String> {
        self.graphs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }
}

/// The answer in a worker's response to a query.
fn answer_of(resp: Response) -> Result<QueryResponse, RouterError> {
    match resp {
        Response::Answer(r) => Ok(r),
        _ => Err(RouterError::Protocol(
            "query answered with a non-answer response".into(),
        )),
    }
}

/// The info in a worker's response to a `GraphInfo` request.
fn info_of(resp: Response) -> Result<GraphInfo, RouterError> {
    match resp {
        Response::Info(info) => Ok(info),
        _ => Err(RouterError::Protocol(
            "info answered with a non-info response".into(),
        )),
    }
}

/// A worker's report on the one shard it holds, as the prepare
/// statistics [`ShardMap::info`] folds.
fn prepare_stats(info: GraphInfo) -> PrepareStats {
    PrepareStats {
        nodes: info.nodes,
        edges: info.edges,
        scc_count: info.scc_count,
        closure_edges: info.closure_edges,
        closure_backend: info.closure_backend,
        closure_memory_bytes: info.closure_memory_bytes,
        compressed_nodes: info.compressed_nodes,
        prepare_micros: info.prepare_micros,
    }
}
