//! The engine proper: per-query planning and execution against
//! [`PreparedGraph`]s, update admission that derives new versions, and a
//! work-stealing batch executor over a scoped thread pool. The engine
//! owns no versions: whoever prepares or updates a graph holds the
//! version it gets back (the service registry, a cluster worker, a
//! test).

use crate::planner::{plan_query, Plan, PlanKind, PlannerConfig, Query};
use crate::prepared::{PrepareOptions, PreparedGraph, UpdateOutcome, UpdateStats};
use phom_core::{
    exact_optimum_budgeted, match_graphs_prepared, MatchBudget, MatchOutcome, MatchStats,
    MatcherConfig, Objective, PHomMapping,
};
use phom_dynamic::GraphUpdate;
use phom_graph::{DiGraph, NodeId, ReachabilityIndex};
use phom_sim::{NodeWeights, SimMatrix};
use phom_trace::{EventJournal, EventKind, QueryTrace, Severity, SpanKind};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Engine construction knobs.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Batch worker threads; `0` = available parallelism.
    pub threads: usize,
    /// Engine-wide query settings (backend, compression, deadline,
    /// intra-query workers).
    pub planner: PlannerConfig,
}

impl EngineConfig {
    /// A builder starting from the defaults — the one config path the
    /// engine, the service layer, and the CLI all construct through.
    ///
    /// ```
    /// use phom_engine::{ClosureBackend, EngineConfig, PlannerConfig};
    ///
    /// let config = EngineConfig::builder()
    ///     .threads(4)
    ///     .planner(
    ///         PlannerConfig::builder()
    ///             .closure_backend(ClosureBackend::Dense)
    ///             .intra_query_workers(2)
    ///             .build(),
    ///     )
    ///     .build();
    /// assert_eq!(config.threads, 4);
    /// ```
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }

    /// The [`PrepareOptions`] this config implies for fresh preparations.
    pub fn prepare_options(&self) -> PrepareOptions {
        PrepareOptions::from_planner(&self.planner)
    }
}

/// Builder for [`EngineConfig`] (see [`EngineConfig::builder`]).
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets [`EngineConfig::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets [`EngineConfig::planner`].
    pub fn planner(mut self, planner: PlannerConfig) -> Self {
        self.config.planner = planner;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Monotone counters the engine keeps across its lifetime, snapshot via
/// [`Engine::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Full preparations run (each computes the closure exactly once).
    pub prepares: usize,
    /// Queries that ran entirely on prepared state: the query built no
    /// hop-bounded closure itself ([`QueryResult::cache_hit`], also
    /// [`phom_trace::TraceCounters::cache_hit`]). A stretch-bound query
    /// that builds its closure counts as a miss; every other query on
    /// the version then hits its memo, including queries that waited
    /// for that build.
    pub cache_hits: usize,
    /// Queries executed.
    pub queries: usize,
    /// Queries routed to each strategy.
    pub exact_plans: usize,
    /// See [`EngineStats::exact_plans`].
    pub approx_plans: usize,
    /// See [`EngineStats::exact_plans`].
    pub bounded_plans: usize,
    /// See [`EngineStats::exact_plans`].
    pub baseline_plans: usize,
    /// Worker threads used by the most recent batch.
    pub last_batch_workers: usize,
    /// Workers observed simultaneously holding queries in the most
    /// recent batch (the parallelism actually achieved at its start).
    pub last_batch_peak_parallel: usize,
    /// Graph updates admitted via [`Engine::apply_updates`] that changed
    /// a graph.
    pub updates_applied: usize,
    /// Updates serviced by incremental closure maintenance (including
    /// those that left the closure untouched).
    pub updates_incremental: usize,
    /// Index rebuilds the admitted batches ran
    /// ([`UpdateStats::rebuilds`]): a maintainer's fallback past the
    /// damage budget or on an SCC split it has no rule for, a 2-hop
    /// batch, or a batch past the admission limit of 256 updates. None
    /// of them counts as a prepare.
    pub update_rebuilds: usize,
    /// Queries whose deadline expired mid-run (best-so-far returned with
    /// `MatchStats::timed_out`).
    pub timeouts: usize,
    /// Pattern components matched on the intra-query parallel path
    /// (Proposition 1 fan-out; see `PlannerConfig::intra_query_workers`).
    pub intra_parallel_components: usize,
    /// p50 of per-query *service* latency (execution only, microseconds)
    /// in the most recent batch or open-loop replay. Always service
    /// time — queueing delay is reported separately in
    /// [`EngineStats::response_p50_micros`].
    pub last_batch_p50_micros: usize,
    /// p95 of per-query service latency in the most recent batch
    /// (microseconds).
    pub last_batch_p95_micros: usize,
    /// p99 of per-query service latency in the most recent batch
    /// (microseconds).
    pub last_batch_p99_micros: usize,
    /// p50 of *response* latency (scheduled arrival to completion,
    /// queueing included, microseconds). Only open-loop replays have a
    /// queueing discipline, so only they populate these; closed-loop
    /// batches leave them 0.
    pub response_p50_micros: usize,
    /// p95 of response latency (microseconds); see
    /// [`EngineStats::response_p50_micros`].
    pub response_p95_micros: usize,
    /// p99 of response latency (microseconds); see
    /// [`EngineStats::response_p50_micros`].
    pub response_p99_micros: usize,
}

/// Nearest-rank percentile of a sorted latency sample (`p` in `0..=100`).
pub fn percentile_micros(sorted: &[u128], p: usize) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)] as usize
}

impl EngineStats {
    /// Compact JSON rendering (field names match the struct) — the
    /// `--stats-json` export format.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"prepares\":{},\"cache_hits\":{},\"queries\":{},\"exact_plans\":{},\
             \"approx_plans\":{},\"bounded_plans\":{},\"baseline_plans\":{},\
             \"last_batch_workers\":{},\"last_batch_peak_parallel\":{},\
             \"updates_applied\":{},\"updates_incremental\":{},\"update_rebuilds\":{},\
             \"timeouts\":{},\"intra_parallel_components\":{},\
             \"last_batch_p50_micros\":{},\"last_batch_p95_micros\":{},\
             \"last_batch_p99_micros\":{},\"response_p50_micros\":{},\
             \"response_p95_micros\":{},\"response_p99_micros\":{}}}",
            self.prepares,
            self.cache_hits,
            self.queries,
            self.exact_plans,
            self.approx_plans,
            self.bounded_plans,
            self.baseline_plans,
            self.last_batch_workers,
            self.last_batch_peak_parallel,
            self.updates_applied,
            self.updates_incremental,
            self.update_rebuilds,
            self.timeouts,
            self.intra_parallel_components,
            self.last_batch_p50_micros,
            self.last_batch_p95_micros,
            self.last_batch_p99_micros,
            self.response_p50_micros,
            self.response_p95_micros,
            self.response_p99_micros
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    prepares: AtomicUsize,
    cache_hits: AtomicUsize,
    queries: AtomicUsize,
    exact_plans: AtomicUsize,
    approx_plans: AtomicUsize,
    bounded_plans: AtomicUsize,
    baseline_plans: AtomicUsize,
    last_batch_workers: AtomicUsize,
    last_batch_peak_parallel: AtomicUsize,
    updates_applied: AtomicUsize,
    updates_incremental: AtomicUsize,
    update_rebuilds: AtomicUsize,
    timeouts: AtomicUsize,
    intra_parallel_components: AtomicUsize,
    last_batch_p50_micros: AtomicUsize,
    last_batch_p95_micros: AtomicUsize,
    last_batch_p99_micros: AtomicUsize,
}

/// The result of one query: the matching outcome plus how the engine got
/// there.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The matcher's outcome (mapping + quality metrics + run stats).
    pub outcome: MatchOutcome,
    /// The plan the query was routed to.
    pub plan: Plan,
    /// Wall-clock microseconds spent executing (excludes preparation).
    pub micros: u128,
    /// Whether the query ran entirely on prepared state: it built no
    /// hop-bounded closure ([`PreparedGraph::bounded_closure`] reported
    /// no build). Decided for every query, traced or not.
    pub cache_hit: bool,
    /// The query's trace when tracing was requested
    /// ([`Engine::execute_traced`]); `None` on the untraced hot path,
    /// which never constructs a trace.
    pub trace: Option<Box<QueryTrace>>,
}

/// One batch's results plus the stats snapshot taken right after it.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query results, in input order.
    pub results: Vec<QueryResult>,
    /// Engine stats after the batch.
    pub stats: EngineStats,
}

/// A long-lived matching engine: prepare a data graph once, answer many
/// pattern queries against it, in parallel, with per-query planning.
/// The engine keeps counters, not versions: the caller holds each
/// [`PreparedGraph`] it prepares or derives by update.
///
/// ```
/// use phom_engine::{Engine, Query};
/// use phom_graph::graph_from_labels;
/// use phom_sim::SimMatrix;
/// use std::sync::Arc;
///
/// let data = Arc::new(graph_from_labels(
///     &["books", "cat", "school"],
///     &[("books", "cat"), ("cat", "school")],
/// ));
/// let pattern = Arc::new(graph_from_labels(&["books", "school"], &[("books", "school")]));
/// let mat = SimMatrix::label_equality(&pattern, &data);
///
/// let engine: Engine<String> = Engine::default();
/// let prepared = engine.prepare(&data);
/// let batch = engine.execute_batch(&prepared, &[Query::new(pattern, mat)]);
/// assert_eq!(batch.results[0].outcome.qual_card, 1.0);
/// assert_eq!(batch.stats.prepares, 1);
/// ```
#[derive(Debug)]
pub struct Engine<L> {
    config: EngineConfig,
    counters: Counters,
    /// Lifecycle-event sink (timeouts, update admissions, backend
    /// fallbacks). Disabled by default: every emission site is then a
    /// single branch that constructs nothing (see
    /// [`phom_trace::event_constructions`]).
    journal: Arc<EventJournal>,
    /// The engine holds no labels; `L` fixes the label type its
    /// prepared graphs and queries carry.
    labels: PhantomData<fn() -> L>,
}

impl<L> Default for Engine<L> {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl<L> Engine<L> {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            counters: Counters::default(),
            journal: Arc::new(EventJournal::disabled()),
            labels: PhantomData,
        }
    }

    /// Routes the engine's lifecycle events ([`EventKind::QueryTimedOut`],
    /// [`EventKind::UpdateApplied`], [`EventKind::BackendFallback`]) into
    /// `journal` — typically a journal shared with the service layer, so
    /// every layer's events land in one sequenced stream.
    pub fn set_journal(&mut self, journal: Arc<EventJournal>) {
        self.journal = journal;
    }

    /// The engine's event journal (disabled unless
    /// [`Engine::set_journal`] installed one).
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        EngineStats {
            prepares: c.prepares.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            exact_plans: c.exact_plans.load(Ordering::Relaxed),
            approx_plans: c.approx_plans.load(Ordering::Relaxed),
            bounded_plans: c.bounded_plans.load(Ordering::Relaxed),
            baseline_plans: c.baseline_plans.load(Ordering::Relaxed),
            last_batch_workers: c.last_batch_workers.load(Ordering::Relaxed),
            last_batch_peak_parallel: c.last_batch_peak_parallel.load(Ordering::Relaxed),
            updates_applied: c.updates_applied.load(Ordering::Relaxed),
            updates_incremental: c.updates_incremental.load(Ordering::Relaxed),
            update_rebuilds: c.update_rebuilds.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            intra_parallel_components: c.intra_parallel_components.load(Ordering::Relaxed),
            last_batch_p50_micros: c.last_batch_p50_micros.load(Ordering::Relaxed),
            last_batch_p95_micros: c.last_batch_p95_micros.load(Ordering::Relaxed),
            last_batch_p99_micros: c.last_batch_p99_micros.load(Ordering::Relaxed),
            // Response percentiles have no engine-side counter: only the
            // open-loop replay (which owns the arrival schedule) can
            // compute them, and it fills them into its exported snapshot.
            response_p50_micros: 0,
            response_p95_micros: 0,
            response_p99_micros: 0,
        }
    }

    fn worker_count(&self, queries: usize) -> usize {
        let hw = if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        };
        hw.min(queries).max(1)
    }
}

impl<L: Clone> Engine<L> {
    /// Prepares `graph` under the options the engine's config implies:
    /// one closure computation, counted in [`EngineStats::prepares`].
    pub fn prepare(&self, graph: &Arc<DiGraph<L>>) -> Arc<PreparedGraph<L>> {
        self.prepare_with(graph, self.config.prepare_options())
    }

    /// [`Engine::prepare`] under explicit [`PrepareOptions`] — the entry
    /// point a sharded registry uses to pin the whole graph's compression
    /// decision onto each shard.
    pub fn prepare_with(
        &self,
        graph: &Arc<DiGraph<L>>,
        options: PrepareOptions,
    ) -> Arc<PreparedGraph<L>> {
        self.counters.prepares.fetch_add(1, Ordering::Relaxed);
        Arc::new(PreparedGraph::prepare(Arc::clone(graph), options))
    }

    /// Admits a batch of edge updates against `prepared` and returns the
    /// post-update version ([`PreparedGraph::apply`]), which inherits
    /// `prepared`'s [`PrepareOptions`]; then counts the batch in
    /// [`EngineStats`] and journals it. A batch in which no update can
    /// change the graph hands back `prepared` itself.
    ///
    /// Copy-on-write versioning: `prepared` is untouched, so any
    /// in-flight query holding it keeps reading the old snapshot. The
    /// caller owns both versions.
    pub fn apply_updates(
        &self,
        prepared: &Arc<PreparedGraph<L>>,
        updates: &[GraphUpdate],
    ) -> UpdateOutcome<L> {
        let outcome = prepared.apply(updates);
        self.count_update(&outcome.stats);
        self.journal_update(updates, &outcome.stats);
        outcome
    }

    /// Journals an admitted update batch — and, separately at `Warn`, any
    /// backend fallbacks it recorded. Payloads are built lazily:
    /// a disabled journal pays one branch per batch.
    fn journal_update(&self, updates: &[GraphUpdate], stats: &UpdateStats) {
        self.journal.emit(Severity::Info, || {
            let inserts = updates
                .iter()
                .filter(|u| matches!(u, GraphUpdate::InsertEdge(..)))
                .count();
            EventKind::UpdateApplied {
                inserts,
                removes: updates.len() - inserts,
                applied: stats.applied,
                noops: stats.noops,
                rejected: stats.rejected,
                rebuilds: stats.rebuilds,
                micros: stats.apply_micros,
            }
        });
        if stats.backend_fallbacks > 0 {
            let reason = match (stats.fallback_damage > 0, stats.fallback_unsupported > 0) {
                (true, true) => "damage-threshold+unsupported-op",
                (true, false) => "damage-threshold",
                _ => "unsupported-op",
            };
            self.journal
                .emit(Severity::Warn, || EventKind::BackendFallback {
                    fallbacks: stats.backend_fallbacks,
                    reason: reason.to_owned(),
                });
        }
    }

    /// Counts an admitted update batch in the engine's update counters.
    fn count_update(&self, stats: &UpdateStats) {
        self.counters
            .updates_applied
            .fetch_add(stats.applied, Ordering::Relaxed);
        self.counters.updates_incremental.fetch_add(
            stats.incremental + stats.closure_unchanged,
            Ordering::Relaxed,
        );
        self.counters
            .update_rebuilds
            .fetch_add(stats.rebuilds, Ordering::Relaxed);
    }
}

impl<L: Clone + Send + Sync> Engine<L> {
    /// Plans and executes one query against a prepared graph.
    ///
    /// A deadline ([`crate::QueryConfig::timeout`], falling back to
    /// [`PlannerConfig::timeout`]) starts ticking here and bounds the
    /// approximate plans: past it, the matcher returns best-so-far with
    /// `MatchStats::timed_out` set and [`EngineStats::timeouts`] is
    /// incremented. Per-component fan-out
    /// ([`PlannerConfig::intra_query_workers`]) is accounted in
    /// [`EngineStats::intra_parallel_components`].
    pub fn execute(&self, prepared: &PreparedGraph<L>, query: &Query<L>) -> QueryResult {
        self.execute_traced(prepared, query, false)
    }

    /// [`Engine::execute`] with optional tracing: when `trace` is set,
    /// the result carries a [`QueryTrace`] with `plan` / `match` spans,
    /// nested per-restart spans, and the sampled hot-path counters
    /// ([`phom_trace::TraceCounters`]). The answer is **identical** to
    /// an untraced run — tracing observes, it never steers — and the
    /// untraced path constructs no trace at all (guarded by
    /// [`phom_trace::constructions`]).
    pub fn execute_traced(
        &self,
        prepared: &PreparedGraph<L>,
        query: &Query<L>,
        trace: bool,
    ) -> QueryResult {
        let mut tr = trace.then(|| Box::new(QueryTrace::new()));
        let plan_open = tr.as_ref().map(|t| t.begin());
        let plan = plan_query(query);
        if let (Some(t), Some(open)) = (tr.as_mut(), plan_open) {
            t.end(SpanKind::Plan, open);
        }
        // A cache hit means the query ran entirely on prepared state: it
        // built no hop-bounded closure itself.
        let mut built = false;
        let match_open = tr.as_ref().map(|t| t.begin());
        // phom-lint: allow(clock, "monotonic elapsed-time stats for prepare/query/update timings; no wall-clock semantics")
        let started = Instant::now();
        let budget = query
            .config
            .timeout
            .or(self.config.planner.timeout)
            .map_or_else(MatchBudget::unlimited, MatchBudget::with_timeout);
        let weights = query.effective_weights();
        let counter = match plan.kind {
            PlanKind::Exact => &self.counters.exact_plans,
            PlanKind::Approx => &self.counters.approx_plans,
            PlanKind::Bounded => &self.counters.bounded_plans,
            PlanKind::Baseline => &self.counters.baseline_plans,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);

        let outcome = match plan.kind {
            PlanKind::Exact => {
                let objective = if query.config.algorithm.similarity() {
                    Objective::Similarity
                } else {
                    Objective::Cardinality
                };
                // A stretch bound (reachable only via force_plan, since the
                // planner routes bounded queries to Bounded) is honored by
                // solving against the hop-bounded closure.
                let bounded_arc: Option<Arc<dyn ReachabilityIndex>> =
                    query.config.max_stretch.map(|k| {
                        let (closure, fresh) = prepared.bounded_closure(k);
                        built = fresh;
                        closure
                    });
                let closure: &dyn ReachabilityIndex =
                    bounded_arc.as_deref().unwrap_or_else(|| prepared.closure());
                // The branch-and-bound honors the same deadline as the
                // approximate plans: past it, best-so-far comes back with
                // `timed_out` set instead of holding the worker hostage.
                let (mapping, timed_out) = exact_optimum_budgeted(
                    &*query.pattern,
                    closure,
                    &query.matrix,
                    query.config.xi,
                    query.config.algorithm.injective(),
                    objective,
                    &weights,
                    budget,
                );
                outcome_of(mapping, &query.matrix, &weights, query.config.xi, timed_out)
            }
            PlanKind::Baseline => {
                let mapping = baseline_assignment(
                    &*query.pattern,
                    prepared.closure(),
                    &query.matrix,
                    query.config.xi,
                    query.config.algorithm.injective(),
                );
                outcome_of(mapping, &query.matrix, &weights, query.config.xi, false)
            }
            PlanKind::Approx | PlanKind::Bounded => {
                let cfg = MatcherConfig {
                    algorithm: query.config.algorithm,
                    xi: query.config.xi,
                    max_stretch: query.config.max_stretch,
                    restarts: plan.restarts,
                    intra_workers: self.config.planner.intra_query_workers,
                    ..Default::default()
                };
                // Hold the memoized bounded closure for the duration of
                // the call; the borrowed view points into it.
                let bounded_arc: Option<(usize, Arc<dyn ReachabilityIndex>)> =
                    query.config.max_stretch.map(|k| {
                        let (closure, fresh) = prepared.bounded_closure(k);
                        built = fresh;
                        (k, closure)
                    });
                let bounded_ref = bounded_arc.as_ref().map(|(k, c)| (*k, &**c));
                let mut inputs = prepared.inputs(bounded_ref);
                inputs.budget = budget;
                match_graphs_prepared(
                    &*query.pattern,
                    prepared.graph(),
                    &query.matrix,
                    &weights,
                    &cfg,
                    inputs,
                )
            }
        };

        let cache_hit = !built;
        if cache_hit {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.stats.timed_out {
            self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            self.journal
                .emit(Severity::Warn, || EventKind::QueryTimedOut {
                    plan: plan.kind.name().to_owned(),
                    micros: started.elapsed().as_micros(),
                });
        }
        if outcome.stats.parallel_components > 0 {
            self.counters
                .intra_parallel_components
                .fetch_add(outcome.stats.parallel_components, Ordering::Relaxed);
        }

        if let (Some(t), Some(open)) = (tr.as_mut(), match_open) {
            t.end(SpanKind::Match, open);
            // Nested restart spans, laid end-to-end from the match span's
            // start (the kernels report durations, not absolute offsets).
            let mut offset = t.spans.last().map_or(0, |s| s.start_micros);
            for (i, &micros) in outcome.stats.restart_micros.iter().enumerate() {
                t.push_span_micros(SpanKind::Restart(i as u32), offset, micros);
                offset += micros;
            }
            t.counters.plan = plan.kind.name().to_owned();
            t.counters.restarts_planned = plan.restarts;
            t.counters.restarts_taken = outcome.stats.restarts_taken;
            t.counters.budget_polls = outcome.stats.budget_polls;
            t.counters.components = outcome.stats.components;
            t.counters.parallel_components = outcome.stats.parallel_components;
            t.counters.cache_hit = cache_hit;
            t.counters.closure_backend = prepared.stats().closure_backend.clone();
            t.counters.candidate_pairs = outcome.stats.candidate_pairs;
            t.counters.extended_pairs = outcome.stats.extended_pairs;
            t.counters.timed_out = outcome.stats.timed_out;
        }

        QueryResult {
            outcome,
            plan,
            micros: started.elapsed().as_micros(),
            cache_hit,
            trace: tr,
        }
    }

    /// Executes the whole batch against a prepared graph across the
    /// worker pool, returning per-query results in input order plus a
    /// stats snapshot.
    ///
    /// Work distribution is stealing (a shared atomic index), so skewed
    /// query costs do not idle workers. All workers synchronize on a
    /// barrier after claiming their first query, which makes the achieved
    /// start-of-batch parallelism observable in
    /// [`EngineStats::last_batch_peak_parallel`].
    pub fn execute_batch(
        &self,
        prepared: &Arc<PreparedGraph<L>>,
        queries: &[Query<L>],
    ) -> BatchOutcome {
        self.execute_batch_traced(prepared, queries, false)
    }

    /// [`Engine::execute_batch`] with optional per-query tracing — each
    /// result carries its own [`QueryTrace`] when `trace` is set (see
    /// [`Engine::execute_traced`]).
    pub fn execute_batch_traced(
        &self,
        prepared: &Arc<PreparedGraph<L>>,
        queries: &[Query<L>],
        trace: bool,
    ) -> BatchOutcome {
        let workers = self.worker_count(queries.len());
        self.counters
            .last_batch_workers
            .store(workers, Ordering::Relaxed);
        self.counters
            .last_batch_peak_parallel
            .store(0, Ordering::Relaxed);

        let results: Mutex<Vec<Option<QueryResult>>> =
            Mutex::new((0..queries.len()).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let in_flight = AtomicUsize::new(0);
        let barrier = Barrier::new(workers);

        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut first = true;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= queries.len() {
                            if first {
                                barrier.wait();
                            }
                            break;
                        }
                        let holding = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        self.counters
                            .last_batch_peak_parallel
                            .fetch_max(holding, Ordering::SeqCst);
                        if first {
                            // Rendezvous with every other worker while each
                            // holds its first query: proves the batch is
                            // actually concurrent before any work retires.
                            barrier.wait();
                            first = false;
                        }
                        let result = self.execute_traced(prepared, &queries[i], trace);
                        let mut slots = results.lock().unwrap_or_else(|e| e.into_inner());
                        slots[i] = Some(result);
                        drop(slots);
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });

        let results: Vec<QueryResult> = results
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            // phom-lint: allow(unwrap, "the scope joins all workers and the claim loop covers every index, so each slot was filled")
            .map(|r| r.expect("every query index was claimed by a worker"))
            .collect();
        let mut latencies: Vec<u128> = results.iter().map(|r| r.micros).collect();
        latencies.sort_unstable();
        self.counters
            .last_batch_p50_micros
            .store(percentile_micros(&latencies, 50), Ordering::Relaxed);
        self.counters
            .last_batch_p95_micros
            .store(percentile_micros(&latencies, 95), Ordering::Relaxed);
        self.counters
            .last_batch_p99_micros
            .store(percentile_micros(&latencies, 99), Ordering::Relaxed);
        BatchOutcome {
            results,
            stats: self.stats(),
        }
    }
}

/// Wraps a bare mapping in a [`MatchOutcome`] with the quality metrics
/// the matcher would report.
fn outcome_of(
    mapping: PHomMapping,
    mat: &SimMatrix,
    weights: &NodeWeights,
    xi: f64,
    timed_out: bool,
) -> MatchOutcome {
    let qual_card = mapping.qual_card();
    let qual_sim = mapping.qual_sim(weights, mat);
    MatchOutcome {
        mapping,
        qual_card,
        qual_sim,
        stats: MatchStats {
            candidate_pairs: mat.candidate_pair_count(xi),
            timed_out,
            ..Default::default()
        },
    }
}

/// Best-candidate assignment for edgeless patterns: each pattern node
/// independently takes its highest-scoring candidate at threshold `xi`
/// (smallest id on ties, matching the Appendix-B singleton shortcut);
/// injective mode claims data nodes greedily in pattern-id order.
fn baseline_assignment<L>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
) -> PHomMapping {
    let mut mapping = PHomMapping::empty(g1.node_count());
    let mut used: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
    for v in g1.nodes() {
        let mut best: Option<(NodeId, f64)> = None;
        for u in mat.candidates(v, xi) {
            if g1.has_self_loop(v) && !closure.reaches(u, u) {
                continue;
            }
            if injective && used.contains(&u) {
                continue;
            }
            let s = mat.score(v, u);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((u, s));
            }
        }
        if let Some((u, _)) = best {
            mapping.set(v, u);
            if injective {
                used.insert(u);
            }
        }
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::MAX_UPDATE_BATCH;
    use phom_graph::graph_from_labels;

    fn data_graph() -> Arc<DiGraph<String>> {
        Arc::new(graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "c"), ("c", "d")],
        ))
    }

    fn simple_query(data: &DiGraph<String>) -> Query<String> {
        let pattern = Arc::new(graph_from_labels(&["a", "c"], &[("a", "c")]));
        let mat = SimMatrix::label_equality(&pattern, data);
        Query::new(pattern, mat)
    }

    #[test]
    fn execute_matches_direct_call() {
        let engine: Engine<String> = Engine::default();
        let g = data_graph();
        let prepared = engine.prepare(&g);
        let q = simple_query(&g);
        let result = engine.execute(&prepared, &q);
        assert_eq!(result.outcome.qual_card, 1.0, "a ⇝ c via 2-hop path");
    }

    #[test]
    fn cache_hits_count_queries_that_build_no_bounded_closure() {
        let engine: Engine<String> = Engine::default();
        let g = data_graph();
        let prepared = engine.prepare(&g);
        let plain = simple_query(&g);
        let mut bounded = simple_query(&g);
        bounded.config.max_stretch = Some(2);
        // (query, traced, expected hit): the first stretch-bound run
        // builds the k = 2 closure, its repeat reads the memo.
        for (step, (q, traced, hit)) in [
            (&plain, false, true),
            (&bounded, true, false),
            (&bounded, false, true),
            (&plain, true, true),
        ]
        .into_iter()
        .enumerate()
        {
            let before = engine.stats().cache_hits;
            let r = engine.execute_traced(&prepared, q, traced);
            assert_eq!(
                engine.stats().cache_hits - before,
                usize::from(hit),
                "step {step}"
            );
            assert_eq!(r.cache_hit, hit, "step {step}: the result agrees");
            if let Some(t) = r.trace {
                assert_eq!(t.counters.cache_hit, hit, "step {step}: trace agrees");
            }
        }
        assert_eq!(prepared.bounded_closures_computed(), 1);
        let stats = engine.stats();
        assert_eq!((stats.cache_hits, stats.queries), (3, 4));
    }

    #[test]
    fn batch_returns_results_in_input_order() {
        let engine: Engine<String> = Engine::new(EngineConfig {
            threads: 2,
            ..Default::default()
        });
        let g = data_graph();
        let queries: Vec<Query<String>> = (0..8).map(|_| simple_query(&g)).collect();
        let batch = engine.execute_batch(&engine.prepare(&g), &queries);
        assert_eq!(batch.results.len(), 8);
        assert!(batch.results.iter().all(|r| r.outcome.qual_card == 1.0));
        assert_eq!(batch.stats.prepares, 1, "one closure for the whole batch");
        assert_eq!(batch.stats.queries, 8);
        assert_eq!(batch.stats.last_batch_workers, 2);
        assert!(batch.stats.last_batch_peak_parallel >= 2);
    }

    #[test]
    fn percentile_micros_edge_cases() {
        assert_eq!(percentile_micros(&[], 0), 0, "empty sample");
        assert_eq!(percentile_micros(&[], 50), 0);
        assert_eq!(percentile_micros(&[], 100), 0);
        assert_eq!(percentile_micros(&[7], 0), 7, "single element");
        assert_eq!(percentile_micros(&[7], 50), 7);
        assert_eq!(percentile_micros(&[7], 100), 7);
        let s = [1u128, 2, 3, 4];
        assert_eq!(percentile_micros(&s, 0), 1, "p0 = minimum");
        assert_eq!(
            percentile_micros(&s, 50),
            2,
            "nearest rank, not interpolated"
        );
        assert_eq!(percentile_micros(&s, 99), 4);
        assert_eq!(percentile_micros(&s, 100), 4, "p100 = maximum");
    }

    #[test]
    fn deadline_expired_query_returns_best_so_far_without_poisoning_the_version() {
        let engine: Engine<String> = Engine::default();
        let g = data_graph();
        let prepared = engine.prepare(&g);
        // Zero budget: deterministically expired at the first boundary.
        // Forced Approx (a 2-node pattern would otherwise route Exact,
        // which is not interruptible).
        let mut q = simple_query(&g);
        q.config.force_plan = Some(PlanKind::Approx);
        q.config.timeout = Some(std::time::Duration::ZERO);
        let timed = engine.execute(&prepared, &q);
        assert!(timed.outcome.stats.timed_out);
        assert!(
            timed.outcome.mapping.is_empty(),
            "zero budget: best-so-far is the empty mapping"
        );
        assert_eq!(engine.stats().timeouts, 1);

        // The prepared graph is untouched: the same query without a
        // deadline — on the same version — answers fully.
        let mut q2 = simple_query(&g);
        q2.config.force_plan = Some(PlanKind::Approx);
        let full = engine.execute(&prepared, &q2);
        assert!(!full.outcome.stats.timed_out);
        assert_eq!(full.outcome.qual_card, 1.0, "a ⇝ c via 2-hop path");
        let stats = engine.stats();
        assert_eq!(stats.timeouts, 1, "no new timeout");
        assert_eq!(stats.prepares, 1, "the version survived the timeout");
    }

    #[test]
    fn exact_plan_honors_zero_deadline() {
        // A 2-node pattern routes Exact under the default cutoff; with a
        // zero budget the branch-and-bound must return the empty
        // best-so-far instead of running to completion (the ROADMAP's
        // "exact plans are not interruptible" caveat, closed).
        let engine: Engine<String> = Engine::default();
        let g = data_graph();
        let prepared = engine.prepare(&g);
        let mut q = simple_query(&g);
        q.config.timeout = Some(std::time::Duration::ZERO);
        let result = engine.execute(&prepared, &q);
        assert_eq!(result.plan.kind, PlanKind::Exact);
        assert!(result.outcome.stats.timed_out);
        assert!(result.outcome.mapping.is_empty());
        assert_eq!(engine.stats().timeouts, 1);
        // The same query with room to run answers fully.
        let full = engine.execute(&prepared, &simple_query(&g));
        assert_eq!(full.plan.kind, PlanKind::Exact);
        assert!(!full.outcome.stats.timed_out);
        assert_eq!(full.outcome.qual_card, 1.0);
    }

    #[test]
    fn apply_updates_inherits_options_and_hands_versions_to_the_caller() {
        use crate::planner::CompressionPolicy;
        let engine: Engine<String> = Engine::default();
        let g = data_graph();
        let options = PrepareOptions {
            compression: CompressionPolicy::Always,
            ..Default::default()
        };
        let prepared = engine.prepare_with(&g, options);
        let outcome =
            engine.apply_updates(&prepared, &[GraphUpdate::InsertEdge(NodeId(3), NodeId(0))]);
        assert_eq!(outcome.stats.applied, 1);
        assert_eq!(outcome.prepared.options(), options, "version inherits");
        assert!(outcome.prepared.compressed().is_some(), "Always kept it");
        // The caller owns both versions: the engine keeps no reference
        // to either.
        assert_eq!(Arc::strong_count(&prepared), 1, "superseded version");
        assert_eq!(Arc::strong_count(&outcome.prepared), 1, "new version");
        assert_eq!(engine.stats().prepares, 1, "the update re-prepared nothing");
        assert_eq!(engine.stats().updates_applied, 1);
    }

    #[test]
    fn intra_query_workers_keep_results_and_count_components() {
        // Pattern with three weakly connected components against the
        // path graph; force Approx so the partitioner actually runs.
        let g = data_graph();
        let pattern = Arc::new({
            // (graph_from_labels needs unique labels; build by hand.)
            let mut p: DiGraph<String> = DiGraph::new();
            let ids: Vec<NodeId> = ["a", "b", "b", "c", "c", "d"]
                .iter()
                .map(|l| p.add_node((*l).to_owned()))
                .collect();
            p.add_edge(ids[0], ids[1]);
            p.add_edge(ids[2], ids[3]);
            p.add_edge(ids[4], ids[5]);
            p
        });
        let mk_query = || {
            let mat = SimMatrix::label_equality(&*pattern, &*g);
            let mut q = Query::new(Arc::clone(&pattern), mat);
            q.config.force_plan = Some(PlanKind::Approx);
            q
        };
        let run = |intra: usize| {
            let engine: Engine<String> = Engine::new(EngineConfig {
                planner: crate::planner::PlannerConfig {
                    intra_query_workers: intra,
                    ..Default::default()
                },
                ..Default::default()
            });
            let r = engine.execute(&engine.prepare(&g), &mk_query());
            (r, engine.stats())
        };
        let (seq, seq_stats) = run(1);
        let (par, par_stats) = run(4);
        assert_eq!(
            seq.outcome.mapping.pairs().collect::<Vec<_>>(),
            par.outcome.mapping.pairs().collect::<Vec<_>>(),
            "intra-query fan-out must not change the mapping"
        );
        assert_eq!(seq_stats.intra_parallel_components, 0);
        assert_eq!(
            par_stats.intra_parallel_components, par.outcome.stats.components,
            "every component accounted on the parallel path"
        );
        assert!(par_stats.intra_parallel_components >= 2);
    }

    #[test]
    fn apply_updates_counts_incremental_work() {
        let engine: Engine<String> = Engine::default();
        let g = data_graph();
        let old = engine.prepare(&g);
        let outcome = engine.apply_updates(&old, &[GraphUpdate::InsertEdge(NodeId(3), NodeId(0))]);
        assert_eq!(outcome.stats.applied, 1);
        assert_eq!(outcome.stats.rebuilds, 0, "single insert is incremental");
        assert!(outcome.prepared.graph().has_edge(NodeId(3), NodeId(0)));
        let stats = engine.stats();
        assert_eq!(stats.prepares, 1, "no re-prepare for the new version");
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.updates_incremental, 1);
        assert_eq!(stats.update_rebuilds, 0);
        // The old version stays readable (copy-on-write).
        assert!(!old.closure().reaches(NodeId(3), NodeId(0)));
        assert!(outcome.prepared.closure().reaches(NodeId(3), NodeId(0)));
    }

    #[test]
    fn noop_update_batch_keeps_current_version() {
        let engine: Engine<String> = Engine::default();
        let g = data_graph();
        let before = engine.prepare(&g);
        let outcome = engine.apply_updates(
            &before,
            &[
                GraphUpdate::InsertEdge(NodeId(0), NodeId(1)), // duplicate
                GraphUpdate::RemoveEdge(NodeId(3), NodeId(0)), // absent
                GraphUpdate::InsertEdge(NodeId(0), NodeId(99)), // out of range
            ],
        );
        assert_eq!(outcome.stats.applied, 0);
        assert_eq!(outcome.stats.noops, 2);
        assert_eq!(outcome.stats.rejected, 1);
        assert!(
            Arc::ptr_eq(&outcome.prepared, &before),
            "no-op batch must not assemble a new version"
        );
        assert_eq!(engine.stats().prepares, 1);
    }

    #[test]
    fn oversized_update_batch_is_admitted_as_one_rebuild() {
        let engine: Engine<String> = Engine::default();
        let g = data_graph();
        // MAX_UPDATE_BATCH + 1 toggles of d -> a: an odd count, so the
        // edge ends up inserted.
        let toggles: Vec<GraphUpdate> = (0..=MAX_UPDATE_BATCH)
            .map(|i| {
                if i % 2 == 0 {
                    GraphUpdate::InsertEdge(NodeId(3), NodeId(0))
                } else {
                    GraphUpdate::RemoveEdge(NodeId(3), NodeId(0))
                }
            })
            .collect();
        let base = engine.prepare(&g);
        let outcome = engine.apply_updates(&base, &toggles);
        assert_eq!(outcome.stats.applied, MAX_UPDATE_BATCH + 1);
        assert_eq!(outcome.stats.rebuilds, 1, "admission limit exceeded");
        assert_eq!(
            outcome.stats.backend_fallbacks, 0,
            "admission is not a downgrade"
        );
        assert_eq!(engine.stats().update_rebuilds, 1);
        assert_eq!(
            engine.stats().prepares,
            1,
            "the batch rebuilt the index without re-preparing"
        );
        assert!(outcome.prepared.closure().reaches(NodeId(3), NodeId(0)));
        assert!(!base.closure().reaches(NodeId(3), NodeId(0)));
    }

    #[test]
    fn engine_stats_json_lists_every_field() {
        let stats = EngineStats {
            prepares: 2,
            queries: 7,
            ..Default::default()
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"prepares\":2"));
        assert!(json.contains("\"queries\":7"));
        assert!(json.contains("\"update_rebuilds\":0"));
        assert!(json.contains("\"timeouts\":0"));
        assert!(json.contains("\"intra_parallel_components\":0"));
        assert!(json.contains("\"response_p50_micros\":0"));
        assert!(json.contains("\"response_p95_micros\":0"));
        assert!(json.contains("\"response_p99_micros\":0"));
    }

    #[test]
    fn baseline_assignment_respects_injectivity() {
        let mut g: DiGraph<&str> = DiGraph::new();
        g.add_node("x");
        g.add_node("x");
        let mut data: DiGraph<&str> = DiGraph::new();
        data.add_node("x");
        let mat = SimMatrix::label_equality(&g, &data);
        let closure = phom_graph::TransitiveClosure::new(&data);
        let free = baseline_assignment(&g, &closure, &mat, 0.5, false);
        assert_eq!(free.qual_card(), 1.0, "both map to the one data node");
        let inj = baseline_assignment(&g, &closure, &mat, 0.5, true);
        assert_eq!(inj.qual_card(), 0.5, "only one may claim it");
        assert!(inj.is_injective());
    }
}
