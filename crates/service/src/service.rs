//! [`Service`]: the request/response front end — a [`GraphRegistry`]
//! plus an [`Engine`], an admission gate, and service counters, all
//! behind [`Service::handle`].

use crate::envelope::{GraphInfo, QueryResponse, Request, Response, UpdateSummary};
use crate::error::ServiceError;
use crate::label::ServiceLabel;
use crate::registry::GraphRegistry;
use crate::shard_map::{single_shard_response, ShardingConfig};
use crate::stats::{AdmissionGate, LatencyHistogram, PlanHistograms, ServiceStats};
use bytes::Bytes;
use phom_dynamic::GraphUpdate;
use phom_engine::{Engine, EngineConfig, EngineStats, PlanKind, Query};
use phom_graph::DiGraph;
use phom_trace::{
    evaluate_slo, EventJournal, EventKind, FlightRecorder, MetricsRegistry, Severity, SloConfig,
    SloStatus, SlowTraceRing, Span, SpanKind, TraceSink, FLIGHT_DEFAULT_CAPACITY,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The wrapped engine's configuration (workers, planner).
    pub engine: EngineConfig,
    /// When and how finely registered graphs shard.
    pub sharding: ShardingConfig,
    /// Admission control: at most this many queries in flight at once;
    /// excess requests are fast-rejected with
    /// [`ServiceError::Overloaded`]. `0` (the default) admits everything.
    pub queue_depth: usize,
    /// When true, a query whose deadline expired returns
    /// [`ServiceError::Timeout`] instead of a best-so-far partial
    /// mapping.
    pub strict_timeouts: bool,
    /// How many of the slowest traced queries the service retains for
    /// [`ServiceStats::slow_traces`]. `0` disables retention. Only
    /// queries requested with `trace: true` are candidates.
    pub slow_trace_capacity: usize,
    /// Lifecycle-event journal ring capacity. `0` (the default) keeps no
    /// ring — the journal stays fully disabled unless a JSON-lines sink
    /// is attached via [`phom_trace::EventJournal::attach_sink`], and
    /// every emission site is then a single branch that constructs
    /// nothing.
    pub journal_capacity: usize,
    /// Flight-recorder ring capacity: the last N query summaries,
    /// **every** query (default
    /// [`phom_trace::FLIGHT_DEFAULT_CAPACITY`]). `0` disables recording.
    pub flight_capacity: usize,
    /// Declarative service-level objectives, evaluated over the metrics
    /// registry's windowed and lifetime views on every
    /// [`Service::slo_status`] (and [`Service::stats`]) read. Empty (the
    /// default) disables the monitor.
    pub slo: SloConfig,
    /// When true, [`Service::restore`] runs the cheap structural tier of
    /// the invariant validators over the restored entry (shard layout,
    /// pinned options, per-shard reachability-index invariants) before
    /// registering it. A snapshot that *parses* but carries a corrupted
    /// index is rejected with [`ServiceError::SnapshotCorrupt`] and
    /// journaled as a `SnapshotRejected` event instead of silently
    /// serving wrong reachability answers. Off by default: the deep
    /// per-row checks stay in `phom audit`, and restores of trusted
    /// snapshots skip the extra pass.
    pub validate_on_restore: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            sharding: ShardingConfig::default(),
            queue_depth: 0,
            strict_timeouts: false,
            slow_trace_capacity: 8,
            journal_capacity: 0,
            flight_capacity: FLIGHT_DEFAULT_CAPACITY,
            slo: SloConfig::disabled(),
            validate_on_restore: false,
        }
    }
}

impl ServiceConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }
}

/// Builder for [`ServiceConfig`] (see [`ServiceConfig::builder`]).
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets [`ServiceConfig::engine`].
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Sets [`ServiceConfig::sharding`].
    pub fn sharding(mut self, sharding: ShardingConfig) -> Self {
        self.config.sharding = sharding;
        self
    }

    /// Sets [`ServiceConfig::queue_depth`].
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Sets [`ServiceConfig::strict_timeouts`].
    pub fn strict_timeouts(mut self, strict: bool) -> Self {
        self.config.strict_timeouts = strict;
        self
    }

    /// Sets [`ServiceConfig::slow_trace_capacity`].
    pub fn slow_trace_capacity(mut self, capacity: usize) -> Self {
        self.config.slow_trace_capacity = capacity;
        self
    }

    /// Sets [`ServiceConfig::journal_capacity`].
    pub fn journal_capacity(mut self, capacity: usize) -> Self {
        self.config.journal_capacity = capacity;
        self
    }

    /// Sets [`ServiceConfig::flight_capacity`].
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.config.flight_capacity = capacity;
        self
    }

    /// Sets [`ServiceConfig::slo`].
    pub fn slo(mut self, slo: SloConfig) -> Self {
        self.config.slo = slo;
        self
    }

    /// Sets [`ServiceConfig::validate_on_restore`].
    pub fn validate_on_restore(mut self, validate: bool) -> Self {
        self.config.validate_on_restore = validate;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ServiceConfig {
        self.config
    }
}

#[derive(Debug, Default)]
struct ServiceCounters {
    queries_admitted: AtomicUsize,
    queries_shed: AtomicUsize,
    update_batches: AtomicUsize,
    reshards: AtomicUsize,
    snapshots: AtomicUsize,
}

/// The service: named graphs in, typed responses out.
///
/// ```
/// use phom_engine::Query;
/// use phom_graph::graph_from_labels;
/// use phom_service::{Request, Response, Service};
/// use phom_sim::SimMatrix;
/// use std::sync::Arc;
///
/// let service: Service<String> = Service::default();
/// let data = Arc::new(graph_from_labels(
///     &["books", "cat", "school"],
///     &[("books", "cat"), ("cat", "school")],
/// ));
/// service
///     .handle(Request::RegisterGraph { name: "web".into(), graph: data.clone() })
///     .unwrap();
///
/// let pattern = Arc::new(graph_from_labels(&["books", "school"], &[("books", "school")]));
/// let matrix = SimMatrix::label_equality(&pattern, &data);
/// let response = service
///     .handle(Request::Query {
///         graph: "web".into(),
///         query: Query::new(pattern, matrix),
///         trace: false,
///     })
///     .unwrap();
/// let Response::Answer(answer) = response else { unreachable!() };
/// assert_eq!(answer.qual_card, 1.0);
/// ```
#[derive(Debug)]
pub struct Service<L> {
    config: ServiceConfig,
    engine: Engine<L>,
    registry: GraphRegistry<L>,
    gate: AdmissionGate,
    counters: ServiceCounters,
    /// Lifetime + windowed latency/counter aggregates (per-plan latency
    /// histograms, cache hit/miss deltas, backend fallbacks).
    metrics: MetricsRegistry,
    /// The K slowest traced queries, serialized (see
    /// [`ServiceStats::slow_traces`]).
    slow_ring: SlowTraceRing,
    /// Last-sampled engine `(cache_hits, queries)`: `stats()` feeds the
    /// deltas into windowed counters, turning the engine's lifetime-only
    /// totals into a recent-window hit ratio.
    engine_sample: Mutex<(usize, usize)>,
    /// Serializes `apply_updates` batches: the registry swap is
    /// read-modify-replace, so two unsynchronized batches on the same
    /// service would both derive from the old entry and the later
    /// replace would silently drop the earlier batch's edits.
    update_lock: Mutex<()>,
    /// The lifecycle-event journal, shared (via `Arc`) with the engine
    /// so both layers' events land in one sequenced stream.
    journal: Arc<EventJournal>,
    /// The always-on flight recorder: a compact summary of every
    /// admitted query, oldest overwritten first.
    flight: FlightRecorder,
    /// Objectives currently in breach — edge-triggers the
    /// `SloBreached` journal event (and its flight dump) so a sustained
    /// breach journals once, not once per stats poll.
    slo_breached: Mutex<BTreeSet<String>>,
}

/// The plan name behind a flight record's plan index (the
/// [`PlanHistograms`] slot order; anything out of range is `"unknown"`).
pub fn plan_name_of(index: u8) -> &'static str {
    if (index as usize) < 4 {
        PlanHistograms::kind_of(index as usize).name()
    } else {
        "unknown"
    }
}

/// The metrics-registry histogram name of one plan kind's latency.
fn latency_key(kind: PlanKind) -> &'static str {
    match kind {
        PlanKind::Exact => "latency_exact",
        PlanKind::Approx => "latency_approx",
        PlanKind::Bounded => "latency_bounded",
        PlanKind::Baseline => "latency_baseline",
    }
}

impl<L: ServiceLabel> Default for Service<L> {
    fn default() -> Self {
        Service::new(ServiceConfig::default())
    }
}

impl<L: ServiceLabel> Service<L> {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        let journal = Arc::new(EventJournal::new(config.journal_capacity));
        let mut engine = Engine::new(config.engine.clone());
        engine.set_journal(Arc::clone(&journal));
        let gate = AdmissionGate::new(config.queue_depth);
        let slow_ring = SlowTraceRing::new(config.slow_trace_capacity);
        let flight = FlightRecorder::new(config.flight_capacity);
        let metrics = MetricsRegistry::new();
        // Pre-register the admission/lifecycle counters so exposition and
        // SLO rate objectives see their families even before any traffic.
        for name in [
            "queries_admitted",
            "queries_shed",
            "queries_timed_out",
            "update_batches",
            "reshards",
            "snapshots",
        ] {
            metrics.counter_add(name, 0);
        }
        // Same for the histogram families: the per-plan latency series
        // and the update phase timings exist from the first scrape.
        for name in [
            "latency_exact",
            "latency_approx",
            "latency_bounded",
            "latency_baseline",
            "update_apply_micros",
            "closure_maintain_micros",
            "bounded_refresh_micros",
        ] {
            metrics.histogram_touch(name);
        }
        Service {
            config,
            engine,
            registry: GraphRegistry::new(),
            gate,
            counters: ServiceCounters::default(),
            metrics,
            slow_ring,
            engine_sample: Mutex::new((0, 0)),
            update_lock: Mutex::new(()),
            journal,
            flight,
            slo_breached: Mutex::new(BTreeSet::new()),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The graph registry (for introspection; mutate through requests).
    pub fn registry(&self) -> &GraphRegistry<L> {
        &self.registry
    }

    /// The wrapped engine's counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The service's metrics registry (lifetime + windowed views of
    /// every latency histogram and maintenance counter).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The lifecycle-event journal (shared with the engine). Attach a
    /// JSON-lines sink with [`phom_trace::EventJournal::attach_sink`].
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// The flight recorder: compact summaries of the last N admitted
    /// queries.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Dispatches one request to its handler.
    pub fn handle(&self, request: Request<L>) -> Result<Response, ServiceError> {
        match request {
            Request::RegisterGraph { name, graph } => {
                self.register(name, graph).map(Response::Registered)
            }
            Request::RestoreGraph { name, snapshot } => {
                self.restore(name, snapshot).map(Response::Registered)
            }
            Request::EvictGraph { name } => {
                self.registry.evict(&name)?;
                self.journal
                    .emit(Severity::Info, || EventKind::GraphEvicted {
                        graph: name.clone(),
                    });
                Ok(Response::Evicted { graph: name })
            }
            Request::Query {
                graph,
                query,
                trace,
            } => self
                .query_traced(&graph, &query, trace)
                .map(Response::Answer),
            Request::QueryBatch { graph, queries } => {
                self.query_batch(&graph, &queries).map(Response::Batch)
            }
            Request::ApplyUpdates { graph, updates } => {
                self.apply_updates(&graph, &updates).map(Response::Updated)
            }
            Request::Snapshot { graph } => self.snapshot(&graph).map(Response::Snapshot),
            Request::GraphInfo { graph } => self.graph_info(&graph).map(Response::Info),
            Request::Stats => Ok(Response::Stats(Box::new(self.stats()))),
        }
    }

    /// Registers `graph` under `name` (see `Request::RegisterGraph`).
    pub fn register(
        &self,
        name: String,
        graph: Arc<DiGraph<L>>,
    ) -> Result<GraphInfo, ServiceError> {
        if name.is_empty() {
            return Err(ServiceError::InvalidRequest(
                "graph name must be non-empty".into(),
            ));
        }
        // Cheap existence probe before paying for preparation; the insert
        // below re-checks under the write lock, so a racing duplicate
        // register still fails cleanly (wasting only its preparation).
        if self.registry.get(&name).is_ok() {
            return Err(ServiceError::AlreadyRegistered { graph: name });
        }
        let entry = crate::registry::GraphEntry::build(
            &self.engine,
            &self.config.sharding,
            self.config.engine.prepare_options(),
            name,
            graph,
        );
        let info = self.registry.insert(entry).map(|e| e.info())?;
        self.journal
            .emit(Severity::Info, || EventKind::GraphRegistered {
                graph: info.name.clone(),
                nodes: info.nodes,
                shards: info.shards,
            });
        Ok(info)
    }

    /// Registers `graph` under `name` with an explicit compression
    /// policy overriding the engine default. A cluster router uses this
    /// to force the *graph-wide* pinned compression decision onto each
    /// worker-held shard, exactly as the in-process sharded path pins
    /// its shards — so routed answers stay bit-identical to a
    /// single-process run. `None` behaves like [`Service::register`].
    pub fn register_pinned(
        &self,
        name: String,
        graph: Arc<DiGraph<L>>,
        compression: Option<phom_engine::CompressionPolicy>,
    ) -> Result<GraphInfo, ServiceError> {
        let Some(compression) = compression else {
            return self.register(name, graph);
        };
        if name.is_empty() {
            return Err(ServiceError::InvalidRequest(
                "graph name must be non-empty".into(),
            ));
        }
        if self.registry.get(&name).is_ok() {
            return Err(ServiceError::AlreadyRegistered { graph: name });
        }
        let options = phom_engine::PrepareOptions {
            compression,
            ..self.config.engine.prepare_options()
        };
        let entry = crate::registry::GraphEntry::build(
            &self.engine,
            &self.config.sharding,
            options,
            name,
            graph,
        );
        let info = self.registry.insert(entry).map(|e| e.info())?;
        self.journal
            .emit(Severity::Info, || EventKind::GraphRegistered {
                graph: info.name.clone(),
                nodes: info.nodes,
                shards: info.shards,
            });
        Ok(info)
    }

    /// Restores a graph from snapshot bytes (see `Request::RestoreGraph`).
    pub fn restore(&self, name: String, snapshot: Bytes) -> Result<GraphInfo, ServiceError> {
        if name.is_empty() {
            return Err(ServiceError::InvalidRequest(
                "graph name must be non-empty".into(),
            ));
        }
        let entry = crate::registry::GraphEntry::restore(
            self.config.engine.prepare_options(),
            name.clone(),
            snapshot,
        )?;
        if self.config.validate_on_restore {
            if let Err(v) = entry.validate() {
                self.journal
                    .emit(Severity::Error, || EventKind::SnapshotRejected {
                        graph: name.clone(),
                        reason: v.to_string(),
                    });
                return Err(ServiceError::SnapshotCorrupt(format!(
                    "restored index failed validation: {v}"
                )));
            }
        }
        let info = self.registry.insert(entry).map(|e| e.info())?;
        self.journal
            .emit(Severity::Info, || EventKind::GraphRegistered {
                graph: info.name.clone(),
                nodes: info.nodes,
                shards: info.shards,
            });
        Ok(info)
    }

    /// Runs one query (see `Request::Query`): admission gate, shard
    /// routing, per-plan latency accounting. Untraced — the explain
    /// surface is [`Service::query_traced`].
    pub fn query(&self, graph: &str, query: &Query<L>) -> Result<QueryResponse, ServiceError> {
        self.query_traced(graph, query, false)
    }

    /// Runs one query, optionally collecting a
    /// [`phom_trace::QueryTrace`] into the response. Traced queries also
    /// feed the slow-trace ring surfaced by [`ServiceStats::slow_traces`];
    /// with `trace = false` this is exactly [`Service::query`] and
    /// constructs no trace state.
    pub fn query_traced(
        &self,
        graph: &str,
        query: &Query<L>,
        trace: bool,
    ) -> Result<QueryResponse, ServiceError> {
        let entry = self.registry.get(graph)?;
        // phom-lint: allow(clock, "monotonic elapsed-time admission span for traces; no wall-clock semantics")
        let admission_started = if trace { Some(Instant::now()) } else { None };
        let permit = self.gate.try_acquire(1).inspect_err(|e| {
            self.counters.queries_shed.fetch_add(1, Ordering::Relaxed);
            self.metrics.counter_add("queries_shed", 1);
            let &ServiceError::Overloaded {
                in_flight,
                queue_depth,
            } = e
            else {
                return;
            };
            self.journal.emit(Severity::Warn, || EventKind::QueryShed {
                graph: graph.to_owned(),
                queries: 1,
                in_flight,
                queue_depth,
            });
        })?;
        let admission_micros = admission_started.map(|s| s.elapsed().as_micros() as u64);
        self.counters
            .queries_admitted
            .fetch_add(1, Ordering::Relaxed);
        self.metrics.counter_add("queries_admitted", 1);
        let result = entry.execute(&self.engine, &self.config.engine.planner, query, trace);
        drop(permit);
        let mut response = result?;
        if let (Some(t), Some(micros)) = (response.trace.as_mut(), admission_micros) {
            // Admission precedes the trace's origin, so it is recorded
            // from its own measurement, at offset 0 (a non-blocking CAS:
            // effectively instantaneous unless the gate is contended).
            t.spans.insert(
                0,
                Span {
                    kind: SpanKind::Admission,
                    start_micros: 0,
                    duration_micros: micros,
                },
            );
        }
        self.metrics
            .histogram_record(latency_key(response.plan.kind), response.micros);
        self.record_flight(&response);
        if let Some(t) = response.trace.as_deref() {
            self.slow_ring.record(response.micros, t);
        }
        if self.config.strict_timeouts && response.timed_out {
            return Err(ServiceError::Timeout {
                micros: response.micros,
            });
        }
        Ok(response)
    }

    /// Runs a batch (see `Request::QueryBatch`). Admission is
    /// all-or-nothing: the batch needs `queries.len()` free slots or it
    /// is shed whole. Unsharded graphs fan out across the engine's
    /// work-stealing batch executor; sharded graphs run the routed path
    /// per query. `strict_timeouts` does not reject batch members —
    /// per-response `timed_out` flags report partial results instead.
    pub fn query_batch(
        &self,
        graph: &str,
        queries: &[Query<L>],
    ) -> Result<Vec<QueryResponse>, ServiceError> {
        self.query_batch_traced(graph, queries, false)
    }

    /// [`Service::query_batch`] with optional per-query tracing — each
    /// response carries its own [`phom_trace::QueryTrace`] when `trace`
    /// is set, and traced responses feed the slow-trace ring exactly as
    /// [`Service::query_traced`] does.
    pub fn query_batch_traced(
        &self,
        graph: &str,
        queries: &[Query<L>],
        trace: bool,
    ) -> Result<Vec<QueryResponse>, ServiceError> {
        let entry = self.registry.get(graph)?;
        let permit = self
            .gate
            .try_acquire(queries.len().max(1))
            .inspect_err(|e| {
                self.counters
                    .queries_shed
                    .fetch_add(queries.len().max(1), Ordering::Relaxed);
                self.metrics
                    .counter_add("queries_shed", queries.len().max(1) as u64);
                let &ServiceError::Overloaded {
                    in_flight,
                    queue_depth,
                } = e
                else {
                    return;
                };
                self.journal.emit(Severity::Warn, || EventKind::QueryShed {
                    graph: graph.to_owned(),
                    queries: queries.len().max(1),
                    in_flight,
                    queue_depth,
                });
            })?;
        self.counters
            .queries_admitted
            .fetch_add(queries.len(), Ordering::Relaxed);
        self.metrics
            .counter_add("queries_admitted", queries.len() as u64);
        let sole = entry.sole_prepared();
        let responses = if let (Some(prepared), false) = (sole, queries.is_empty()) {
            // One shard: the full graph. Check every query up front (the
            // same check a single query gets), then hand the entry's own
            // prepared artifacts to the engine's parallel batch executor
            // (a snapshot-restored entry serves from its warm index).
            for q in queries {
                entry.check(q)?;
            }
            self.engine
                .execute_batch_traced(prepared, queries, trace)
                .results
                .into_iter()
                .map(single_shard_response)
                .collect()
        } else {
            let mut responses = Vec::with_capacity(queries.len());
            for q in queries {
                responses.push(entry.execute(
                    &self.engine,
                    &self.config.engine.planner,
                    q,
                    trace,
                )?);
            }
            responses
        };
        drop(permit);
        for r in &responses {
            self.metrics
                .histogram_record(latency_key(r.plan.kind), r.micros);
            self.record_flight(r);
            if let Some(t) = r.trace.as_deref() {
                self.slow_ring.record(r.micros, t);
            }
        }
        Ok(responses)
    }

    /// Feeds one completed query into the flight recorder (and the
    /// windowed timeout counter), traced or not.
    fn record_flight(&self, response: &QueryResponse) {
        if response.timed_out {
            self.metrics.counter_add("queries_timed_out", 1);
        }
        self.flight.record(
            PlanHistograms::index_of(response.plan.kind) as u8,
            response.shards_consulted.min(u16::MAX as usize) as u16,
            response.micros,
            response.cache_hit,
            response.timed_out,
        );
    }

    /// Applies updates to a registered graph (see
    /// `Request::ApplyUpdates`), routing each to its owning shard and
    /// re-splitting the entry when the component structure changes.
    /// Update batches serialize on a service-wide lock (read entry →
    /// apply → swap must be atomic or a concurrent batch's edits would
    /// be lost in the swap); in-flight queries keep their copy-on-write
    /// snapshot and are never blocked.
    pub fn apply_updates(
        &self,
        graph: &str,
        updates: &[GraphUpdate],
    ) -> Result<UpdateSummary, ServiceError> {
        let _serialized = self.update_lock.lock().unwrap_or_else(|e| e.into_inner());
        let entry = self.registry.get(graph)?;
        let (new_entry, summary) = entry.apply(
            &self.engine,
            &self.config.sharding,
            self.config.engine.prepare_options(),
            updates,
        );
        self.registry.replace(new_entry);
        self.counters.update_batches.fetch_add(1, Ordering::Relaxed);
        self.metrics.counter_add("update_batches", 1);
        if summary.resharded {
            self.counters.reshards.fetch_add(1, Ordering::Relaxed);
            self.metrics.counter_add("reshards", 1);
            self.journal
                .emit(Severity::Info, || EventKind::GraphResharded {
                    graph: graph.to_owned(),
                    shards: summary.shards,
                });
        }
        if summary.stats.backend_fallbacks > 0 {
            self.metrics
                .counter_add("backend_fallbacks", summary.stats.backend_fallbacks as u64);
        }
        self.metrics
            .histogram_record("update_apply_micros", summary.stats.apply_micros);
        // Maintenance-phase timings decay alongside query latency: the
        // closure-patching and bounded-memo-refresh phases each get their
        // own windowed histogram.
        self.metrics.histogram_record(
            "closure_maintain_micros",
            summary.stats.closure_maintain_micros,
        );
        self.metrics.histogram_record(
            "bounded_refresh_micros",
            summary.stats.bounded_refresh_micros,
        );
        Ok(summary)
    }

    /// Serializes a registered graph (see `Request::Snapshot`).
    pub fn snapshot(&self, graph: &str) -> Result<Bytes, ServiceError> {
        let bytes = self.registry.get(graph)?.snapshot()?;
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        self.metrics.counter_add("snapshots", 1);
        self.journal
            .emit(Severity::Info, || EventKind::SnapshotSaved {
                graph: graph.to_owned(),
                bytes: bytes.len(),
            });
        Ok(bytes)
    }

    /// Describes a registered graph (see `Request::GraphInfo`).
    pub fn graph_info(&self, graph: &str) -> Result<GraphInfo, ServiceError> {
        Ok(self.registry.get(graph)?.info())
    }

    /// The current graph version registered under `graph` (for building
    /// similarity matrices against live data).
    pub fn graph(&self, graph: &str) -> Result<Arc<DiGraph<L>>, ServiceError> {
        Ok(Arc::clone(self.registry.get(graph)?.graph()))
    }

    /// Evaluates the configured SLOs ([`ServiceConfig::slo`]) against
    /// the metrics registry's windowed and lifetime views.
    ///
    /// Breaches are **edge-triggered** into the journal: an objective
    /// crossing into breach emits one `SloBreached` event (at `Error`)
    /// — and the first new breach of an evaluation also dumps the flight
    /// recorder's recent ring into the journal as a `FlightDump` — then
    /// stays silent until the objective recovers and breaches again.
    pub fn slo_status(&self) -> SloStatus {
        let status = evaluate_slo(&self.config.slo, &self.metrics);
        if !self.config.slo.is_enabled() {
            return status;
        }
        let mut breached = self.slo_breached.lock().unwrap_or_else(|e| e.into_inner());
        let mut newly_breached = false;
        for o in &status.objectives {
            if o.breached && breached.insert(o.name.clone()) {
                newly_breached = true;
                self.journal
                    .emit(Severity::Error, || EventKind::SloBreached {
                        objective: o.name.clone(),
                        windowed_burn: o.windowed_burn,
                        lifetime_burn: o.lifetime_burn,
                    });
            } else if !o.breached {
                breached.remove(&o.name);
            }
        }
        if newly_breached && self.flight.enabled() {
            self.journal.emit(Severity::Warn, || {
                let snap = self.flight.snapshot();
                let tail = &snap[snap.len().saturating_sub(32)..];
                let items: Vec<String> = tail
                    .iter()
                    .map(|r| r.to_json(plan_name_of(r.plan)))
                    .collect();
                EventKind::FlightDump {
                    recorded: self.flight.total(),
                    summaries: format!("[{}]", items.join(",")),
                }
            });
        }
        status
    }

    /// Renders every metric the service holds — the registry's counters,
    /// gauges, and histograms, refreshed registry-census gauges, and the
    /// derived cache-hit ratios — in Prometheus text exposition format
    /// (see [`phom_trace::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        let (graphs, shards) = self.registry.census();
        self.metrics.gauge_set("graphs", graphs as i64);
        self.metrics.gauge_set("shards", shards as i64);
        let (lifetime_ratio, windowed_ratio) = self.cache_hit_ratios(&self.engine.stats());
        phom_trace::render_prometheus(
            &self.metrics.export(),
            &[
                ("cache_hit_ratio_lifetime".into(), lifetime_ratio),
                ("cache_hit_ratio_windowed".into(), windowed_ratio),
            ],
        )
    }

    /// The lifetime and windowed cache-hit ratios: the share of engine
    /// queries that built no hop-bounded closure
    /// (`cache_hits / queries`, `0.0` before any query). The windowed
    /// view reads the hit and miss counters [`Service::stats`] samples
    /// into the metrics registry.
    fn cache_hit_ratios(&self, engine: &EngineStats) -> (f64, f64) {
        let share = |hits: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        let w_hits = self.metrics.counter_windowed("cache_hits");
        let w_misses = self.metrics.counter_windowed("cache_misses");
        (
            share(engine.cache_hits as u64, engine.queries as u64),
            share(w_hits, w_hits + w_misses),
        )
    }

    /// Snapshot of the service counters (see `Request::Stats`). The
    /// windowed cache-hit ratio and windowed per-plan histograms come
    /// from the service's [`MetricsRegistry`], fed by sampling the
    /// engine's lifetime counters at each `stats()` read.
    pub fn stats(&self) -> ServiceStats {
        let (graphs, shards) = self.registry.census();
        let engine = self.engine.stats();
        // Pull-based windowed sampling: stats() reads are the sampling
        // points; the delta since the last read lands in the current
        // epoch of the windowed cache counters.
        {
            let mut last = self.engine_sample.lock().unwrap_or_else(|e| e.into_inner());
            let hits = engine.cache_hits.saturating_sub(last.0);
            let misses = engine.queries.saturating_sub(last.1).saturating_sub(hits);
            if hits > 0 {
                self.metrics.counter_add("cache_hits", hits as u64);
            }
            if misses > 0 {
                self.metrics.counter_add("cache_misses", misses as u64);
            }
            *last = (engine.cache_hits, engine.queries);
        }
        let (lifetime_ratio, windowed_ratio) = self.cache_hit_ratios(&engine);
        let mut plan_histograms = PlanHistograms::default();
        let mut plan_histograms_windowed = PlanHistograms::default();
        for i in 0..plan_histograms.by_plan.len() {
            let key = latency_key(PlanHistograms::kind_of(i));
            plan_histograms.by_plan[i] =
                LatencyHistogram::from_buckets(self.metrics.histogram_lifetime(key));
            plan_histograms_windowed.by_plan[i] =
                LatencyHistogram::from_buckets(self.metrics.histogram_windowed(key));
        }
        ServiceStats {
            graphs,
            shards,
            queries_admitted: self.counters.queries_admitted.load(Ordering::Relaxed),
            queries_shed: self.counters.queries_shed.load(Ordering::Relaxed),
            update_batches: self.counters.update_batches.load(Ordering::Relaxed),
            reshards: self.counters.reshards.load(Ordering::Relaxed),
            snapshots: self.counters.snapshots.load(Ordering::Relaxed),
            cache_hit_ratio: lifetime_ratio,
            cache_hit_ratio_lifetime: lifetime_ratio,
            cache_hit_ratio_windowed: windowed_ratio,
            backend_fallbacks: self.metrics.counter_lifetime("backend_fallbacks") as usize,
            plan_histograms,
            plan_histograms_windowed,
            slow_traces: self.slow_ring.snapshot(),
            slo: self.slo_status(),
            flight_recorded: self.flight.total(),
            journal_events: self.journal.events_emitted(),
            workers_connected: 0,
            workers_lost: 0,
            replicas_promoted: 0,
            engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::{graph_from_labels, NodeId};
    use phom_sim::SimMatrix;

    /// Two WCCs with disjoint label alphabets: {a,b,c} path and {x,y}
    /// edge.
    fn two_part_graph() -> Arc<DiGraph<String>> {
        Arc::new(graph_from_labels(
            &["a", "b", "c", "x", "y"],
            &[("a", "b"), ("b", "c"), ("x", "y")],
        ))
    }

    fn sharded_service() -> Service<String> {
        Service::new(
            ServiceConfig::builder()
                .sharding(ShardingConfig {
                    max_shards: 4,
                    min_shard_nodes: 0,
                })
                .build(),
        )
    }

    fn query_for(
        service: &Service<String>,
        graph: &str,
        labels: &[&str],
        edges: &[(&str, &str)],
    ) -> Query<String> {
        let pattern = Arc::new(graph_from_labels(labels, edges));
        let data = service.graph(graph).expect("registered");
        let matrix = SimMatrix::label_equality(&pattern, &data);
        Query::new(pattern, matrix)
    }

    #[test]
    fn register_shards_by_wcc_and_queries_route() {
        let service = sharded_service();
        let info = service
            .register("web".into(), two_part_graph())
            .expect("register");
        assert_eq!(info.shards, 2);
        assert_eq!(info.shard_nodes, vec![3, 2]);
        assert_eq!(info.nodes, 5);

        // A pattern over the {a,b,c} alphabet consults only that shard.
        let q = query_for(&service, "web", &["a", "c"], &[("a", "c")]);
        let r = service.query("web", &q).expect("query");
        assert_eq!(r.shards_consulted, 1);
        assert_eq!(r.qual_card, 1.0, "a ⇝ c via b");
        assert_eq!(r.mapping.get(NodeId(0)), Some(NodeId(0)));
        assert_eq!(r.mapping.get(NodeId(1)), Some(NodeId(2)), "global ids");

        // A two-component pattern spanning both alphabets consults both
        // shards and merges.
        let q2 = query_for(
            &service,
            "web",
            &["a", "b", "x", "y"],
            &[("a", "b"), ("x", "y")],
        );
        let r2 = service.query("web", &q2).expect("query");
        assert_eq!(r2.shards_consulted, 2);
        assert_eq!(r2.qual_card, 1.0);
        assert_eq!(r2.mapping.get(NodeId(2)), Some(NodeId(3)), "x at global 3");
    }

    #[test]
    fn unknown_graph_and_bad_matrix_are_typed_errors() {
        let service = sharded_service();
        let err = service
            .query("missing", &{
                let p = Arc::new(graph_from_labels(&["a"], &[]));
                let m = SimMatrix::new(1, 1);
                Query::new(p, m)
            })
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::NotFound {
                graph: "missing".into()
            }
        );
        service.register("web".into(), two_part_graph()).unwrap();
        let p = Arc::new(graph_from_labels(&["a"], &[]));
        let wrong = Query::new(p, SimMatrix::new(1, 3)); // data has 5 nodes
        assert!(matches!(
            service.query("web", &wrong),
            Err(ServiceError::InvalidRequest(_))
        ));
        assert!(matches!(
            service.register("web".into(), two_part_graph()),
            Err(ServiceError::AlreadyRegistered { .. })
        ));
        assert!(matches!(
            service.handle(Request::EvictGraph {
                name: "nope".into()
            }),
            Err(ServiceError::NotFound { .. })
        ));
    }

    #[test]
    fn updates_route_to_owning_shard() {
        let service = sharded_service();
        service.register("web".into(), two_part_graph()).unwrap();
        // Intra-shard delete b -> c (both in shard 0): routed to that
        // shard's semi-dynamic maintenance, no reshard (the SCC structure
        // is unchanged, so the pinned compression decision stands).
        let summary = service
            .apply_updates("web", &[GraphUpdate::RemoveEdge(NodeId(1), NodeId(2))])
            .expect("apply");
        assert_eq!(summary.stats.applied, 1);
        assert!(!summary.resharded);
        assert_eq!(summary.shards, 2);
        let q = query_for(&service, "web", &["a", "c"], &[("a", "c")]);
        let r = service.query("web", &q).expect("query");
        assert_eq!(r.qual_card, 0.5, "a ⇝ c broken: one endpoint maps");
        assert_eq!(service.stats().reshards, 0);
        // An intra-shard insert that builds a cycle (b -> a closes
        // a ⇄ b) flips the graph-wide compression decision — the entry
        // re-splits to keep the pinned decision honest.
        let summary = service
            .apply_updates("web", &[GraphUpdate::InsertEdge(NodeId(1), NodeId(0))])
            .expect("apply");
        assert!(summary.resharded, "compression pin flipped");
        assert_eq!(service.stats().reshards, 1);
    }

    #[test]
    fn cross_shard_insert_resplits_the_entry() {
        let service = sharded_service();
        service.register("web".into(), two_part_graph()).unwrap();
        // c -> x merges the two WCCs.
        let summary = service
            .apply_updates("web", &[GraphUpdate::InsertEdge(NodeId(2), NodeId(3))])
            .expect("apply");
        assert!(summary.resharded);
        assert_eq!(summary.shards, 1, "one WCC now");
        assert_eq!(service.stats().reshards, 1);
        // The merged graph answers a cross-alphabet path query.
        let q = query_for(&service, "web", &["a", "y"], &[("a", "y")]);
        let r = service.query("web", &q).expect("query");
        assert_eq!(r.qual_card, 1.0, "a ⇝ y through the new bridge");
    }

    #[test]
    fn admission_gate_sheds_and_counts() {
        let service: Service<String> = Service::new(
            ServiceConfig::builder()
                .queue_depth(2)
                .sharding(ShardingConfig::disabled())
                .build(),
        );
        service.register("web".into(), two_part_graph()).unwrap();
        // A batch larger than the queue depth is shed whole.
        let q = query_for(&service, "web", &["a"], &[]);
        let batch: Vec<Query<String>> = vec![q.clone(), q.clone(), q.clone()];
        let err = service.query_batch("web", &batch).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { .. }));
        let stats = service.stats();
        assert_eq!(stats.queries_shed, 3);
        assert_eq!(stats.queries_admitted, 0);
        // A fitting batch is admitted and recorded per plan.
        let responses = service
            .query_batch("web", &batch[..2])
            .expect("fits the gate");
        assert_eq!(responses.len(), 2);
        let stats = service.stats();
        assert_eq!(stats.queries_admitted, 2);
        assert_eq!(
            stats
                .plan_histograms
                .of(phom_engine::PlanKind::Baseline)
                .count(),
            2,
            "edgeless patterns route to the baseline plan"
        );
        assert!(stats.to_json().contains("\"queries_shed\":3"));
        assert!(stats.to_json().contains("\"plan_histograms\":{\"exact\":["));
    }

    #[test]
    fn snapshot_roundtrip_preserves_shards_and_answers() {
        let service = sharded_service();
        service.register("web".into(), two_part_graph()).unwrap();
        let Response::Snapshot(bytes) = service
            .handle(Request::Snapshot {
                graph: "web".into(),
            })
            .expect("snapshot")
        else {
            panic!("wrong response variant")
        };
        let restored: Service<String> = sharded_service();
        let info = restored.restore("warm".into(), bytes).expect("restore");
        assert_eq!(info.shards, 2);
        assert_eq!(info.nodes, 5);
        let q = query_for(&restored, "warm", &["a", "c"], &[("a", "c")]);
        let r = restored.query("warm", &q).expect("query");
        assert_eq!(r.qual_card, 1.0);
        // Restored entries keep answering after updates.
        restored
            .apply_updates("warm", &[GraphUpdate::RemoveEdge(NodeId(1), NodeId(2))])
            .expect("apply");
        let r2 = restored
            .query(
                "warm",
                &query_for(&restored, "warm", &["a", "c"], &[("a", "c")]),
            )
            .expect("query");
        assert_eq!(r2.qual_card, 0.5, "b -> c cut: only one node maps");
        // Corruption is a typed error.
        assert!(matches!(
            restored.restore("bad".into(), Bytes::from_static(b"garbage")),
            Err(ServiceError::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn validate_on_restore_gates_corrupted_snapshots() {
        let strict_service = || -> Service<String> {
            Service::new(
                ServiceConfig::builder()
                    .sharding(ShardingConfig::disabled())
                    .validate_on_restore(true)
                    .journal_capacity(16)
                    .build(),
            )
        };
        let service: Service<String> = Service::new(
            ServiceConfig::builder()
                .sharding(ShardingConfig::disabled())
                .build(),
        );
        service.register("web".into(), two_part_graph()).unwrap();
        let bytes = service.snapshot("web").expect("snapshot");

        // A healthy snapshot passes the gate unchanged.
        let strict = strict_service();
        strict
            .restore("ok".into(), bytes.clone())
            .expect("valid snapshot passes the restore gate");
        assert!(strict
            .journal()
            .snapshot()
            .iter()
            .all(|e| e.kind.name() != "SnapshotRejected"));

        // Sweep single-byte corruptions. Some break the parse (already a
        // typed error without the gate), some are semantically neutral —
        // but at least one must parse cleanly yet carry a wrong index,
        // which only the validation gate catches. The full-byte flip is
        // mostly parse-caught (range and padding checks); the single-bit
        // flip is the parse-clean wrong-answer case the gate exists for.
        let mut gate_catches = 0usize;
        for (i, xor) in (0..bytes.len()).flat_map(|i| [(i, 0xFFu8), (i, 0x01)]) {
            let mut bad = bytes.to_vec();
            bad[i] ^= xor;
            let bad = Bytes::from(bad);
            let lax: Service<String> = Service::new(
                ServiceConfig::builder()
                    .sharding(ShardingConfig::disabled())
                    .build(),
            );
            if lax.restore("g".into(), bad.clone()).is_err() {
                continue; // the parser already rejects this one
            }
            let strict = strict_service();
            if matches!(
                strict.restore("g".into(), bad),
                Err(ServiceError::SnapshotCorrupt(_))
            ) {
                gate_catches += 1;
                assert!(
                    strict
                        .journal()
                        .snapshot()
                        .iter()
                        .any(|e| e.kind.name() == "SnapshotRejected"),
                    "rejection must journal a SnapshotRejected event"
                );
                assert_eq!(
                    strict.registry().names(),
                    Vec::<String>::new(),
                    "rejected snapshot must not register"
                );
            }
        }
        assert!(
            gate_catches > 0,
            "no parse-clean corruption was caught by the restore gate"
        );
    }

    #[test]
    fn strict_timeouts_reject_partial_results() {
        let service: Service<String> = Service::new(
            ServiceConfig::builder()
                .strict_timeouts(true)
                .sharding(ShardingConfig::disabled())
                .build(),
        );
        service.register("web".into(), two_part_graph()).unwrap();
        let mut q = query_for(&service, "web", &["a", "c"], &[("a", "c")]);
        q.config.timeout = Some(std::time::Duration::ZERO);
        let err = service.query("web", &q).unwrap_err();
        assert!(matches!(err, ServiceError::Timeout { .. }));
    }

    #[test]
    fn traced_sharded_query_carries_spans_and_matches_untraced_answers() {
        let service = sharded_service();
        service.register("web".into(), two_part_graph()).unwrap();
        let q = query_for(
            &service,
            "web",
            &["a", "b", "x", "y"],
            &[("a", "b"), ("x", "y")],
        );
        let plain = service.query("web", &q).expect("untraced");
        assert!(plain.trace.is_none(), "untraced responses carry no trace");
        let traced = service.query_traced("web", &q, true).expect("traced");
        let t = traced.trace.as_ref().expect("trace requested");

        // Tracing must not change the answer.
        assert_eq!(traced.mapping, plain.mapping);
        assert_eq!(traced.qual_card, plain.qual_card);
        assert_eq!(traced.qual_sim, plain.qual_sim);

        // The sharded path records admission, plan, route, one
        // shard_match per consulted shard, and merge.
        let names: Vec<&str> = t.spans.iter().map(|s| s.kind.name()).collect();
        assert_eq!(
            names,
            vec![
                "admission",
                "plan",
                "route",
                "shard_match",
                "shard_match",
                "merge"
            ],
            "spans: {names:?}"
        );
        assert_eq!(t.counters.shards_consulted, 2);
        assert_eq!(t.counters.plan, traced.plan.kind.name());
        assert_eq!(t.counters.closure_backend, "dense");
        assert!(!t.counters.timed_out);
        // Top-level spans tile the measured latency: their sum cannot
        // exceed it (admission is measured separately and ~0 here).
        assert!(
            t.top_level_micros() <= traced.micros as u64 + t.micros_of("admission"),
            "span sum {} vs end-to-end {}",
            t.top_level_micros(),
            traced.micros
        );

        // The traced query landed in the slow ring and in stats.
        let stats = service.stats();
        assert_eq!(stats.slow_traces.len(), 1);
        assert_eq!(stats.slow_traces[0].0, traced.micros);
        let json = stats.to_json();
        assert!(json.contains("\"slow_traces\":[{\"micros\":"), "{json}");
        assert!(json.contains("\"cache_hit_ratio_windowed\":"), "{json}");
    }

    #[test]
    fn stats_export_windowed_views_and_backend_fallbacks() {
        let service = sharded_service();
        service.register("web".into(), two_part_graph()).unwrap();
        let q = query_for(&service, "web", &["a", "c"], &[("a", "c")]);
        service.query("web", &q).expect("query");
        let stats = service.stats();
        // Freshly recorded: the windowed view still holds everything the
        // lifetime view does.
        assert_eq!(stats.cache_hit_ratio, stats.cache_hit_ratio_lifetime);
        assert_eq!(stats.cache_hit_ratio_windowed, stats.cache_hit_ratio);
        assert_eq!(
            stats.plan_histograms_windowed.combined().count(),
            stats.plan_histograms.combined().count()
        );
        assert!(stats.plan_histograms.combined().count() >= 1);
        // `backend_fallbacks` flows from the metrics registry into the
        // stats export (and its JSON key).
        assert_eq!(stats.backend_fallbacks, 0);
        service.metrics().counter_add("backend_fallbacks", 2);
        let stats = service.stats();
        assert_eq!(stats.backend_fallbacks, 2);
        assert!(stats.to_json().contains("\"backend_fallbacks\":2"));
    }

    #[test]
    fn eviction_frees_the_name() {
        let service = sharded_service();
        service.register("web".into(), two_part_graph()).unwrap();
        assert_eq!(service.registry().names(), vec!["web".to_owned()]);
        let Response::Evicted { graph } = service
            .handle(Request::EvictGraph { name: "web".into() })
            .expect("evict")
        else {
            panic!("wrong response variant")
        };
        assert_eq!(graph, "web");
        assert_eq!(service.stats().graphs, 0);
        service
            .register("web".into(), two_part_graph())
            .expect("name free again");
    }
}

#[cfg(test)]
mod review_fix_tests {
    use super::*;
    use crate::shard_map::ShardingConfig;
    use phom_graph::{graph_from_labels, DiGraph, NodeId};
    use phom_sim::SimMatrix;

    /// Review fix: concurrent `ApplyUpdates` batches must all land — the
    /// read-modify-replace swap serializes on the update lock instead of
    /// silently dropping the earlier batch.
    #[test]
    fn concurrent_update_batches_are_not_lost() {
        // 40 isolated nodes, one WCC each; threads insert disjoint edges.
        let mut g: DiGraph<u8> = DiGraph::new();
        for i in 0..40 {
            g.add_node(i as u8);
        }
        let service: Service<u8> = Service::new(
            ServiceConfig::builder()
                .sharding(ShardingConfig::disabled())
                .build(),
        );
        service.register("g".into(), Arc::new(g)).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let service = &service;
                s.spawn(move || {
                    for i in 0..10u32 {
                        let a = NodeId(t * 10 + i);
                        let b = NodeId((t * 10 + (i + 1) % 10) % 40);
                        let summary = service
                            .apply_updates("g", &[GraphUpdate::InsertEdge(a, b)])
                            .expect("apply");
                        assert_eq!(summary.stats.applied + summary.stats.noops, 1);
                    }
                });
            }
        });
        let final_graph = service.graph("g").expect("registered");
        assert_eq!(
            final_graph.edge_count(),
            40,
            "every thread's inserts survived the swaps"
        );
    }

    /// Review fix: snapshot restore keeps the pinned compression policy.
    /// Part A (a 3-node cycle) would keep Appendix-B compression if it
    /// decided alone, but the graph-wide decision is Never — a restore
    /// must not let the shard re-decide, and the first post-restore
    /// update must not spuriously re-shard on a phantom pin flip.
    #[test]
    fn restore_preserves_pinned_compression() {
        let mut labels: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        for i in 0..30 {
            labels.push(format!("p{i}"));
        }
        let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        let mut edges: Vec<(&str, &str)> = vec![("a", "b"), ("b", "c"), ("c", "a")];
        for i in 1..30 {
            edges.push((refs[2 + i], refs[3 + i]));
        }
        let g = Arc::new(graph_from_labels(&refs, &edges));
        let service: Service<String> = Service::new(
            ServiceConfig::builder()
                .sharding(ShardingConfig {
                    max_shards: 2,
                    min_shard_nodes: 0,
                })
                .build(),
        );
        let info = service.register("g".into(), Arc::clone(&g)).unwrap();
        assert_eq!(info.shards, 2);
        assert_eq!(
            info.compression, "never",
            "33 nodes, 31 SCCs: not worthwhile"
        );
        assert_eq!(info.compressed_nodes, None);

        let bytes = service.snapshot("g").expect("snapshot");
        let restored: Service<String> = Service::new(
            ServiceConfig::builder()
                .sharding(ShardingConfig {
                    max_shards: 2,
                    min_shard_nodes: 0,
                })
                .build(),
        );
        let rinfo = restored.restore("g".into(), bytes).expect("restore");
        assert_eq!(rinfo.compression, "never", "pin survives the roundtrip");
        assert_eq!(
            rinfo.compressed_nodes, None,
            "the cyclic shard must not re-decide compression for itself"
        );
        // First post-restore update: no phantom pin-flip reshard (the
        // SCC structure is unchanged by this delete).
        let summary = restored
            .apply_updates("g", &[GraphUpdate::RemoveEdge(NodeId(3), NodeId(4))])
            .expect("apply");
        assert!(!summary.resharded, "no spurious re-shard after restore");
    }

    /// Review fix: one deadline bounds the whole sharded query — it does
    /// not restart per consulted shard. A zero timeout expires before
    /// the first shard runs.
    #[test]
    fn sharded_query_shares_one_deadline() {
        let data = Arc::new(graph_from_labels(
            &["a", "b", "x", "y"],
            &[("a", "b"), ("x", "y")],
        ));
        let service: Service<String> = Service::new(
            ServiceConfig::builder()
                .sharding(ShardingConfig {
                    max_shards: 2,
                    min_shard_nodes: 0,
                })
                .build(),
        );
        let info = service.register("g".into(), Arc::clone(&data)).unwrap();
        assert_eq!(info.shards, 2);
        let pattern = Arc::new(graph_from_labels(
            &["a", "b", "x", "y"],
            &[("a", "b"), ("x", "y")],
        ));
        let mat = SimMatrix::label_equality(&pattern, &data);
        let mut q = Query::new(Arc::clone(&pattern), mat);
        q.config.timeout = Some(std::time::Duration::ZERO);
        let r = service.query("g", &q).expect("query");
        assert!(r.timed_out, "zero budget expires before any shard");
        assert_eq!(r.shards_consulted, 0, "no shard gets a restarted budget");
        assert!(r.mapping.is_empty());
        // Without a deadline the same query consults both shards fully.
        let mat = SimMatrix::label_equality(&pattern, &data);
        let free = service
            .query("g", &Query::new(pattern, mat))
            .expect("query");
        assert_eq!(free.shards_consulted, 2);
        assert_eq!(free.qual_card, 1.0);
    }
}
