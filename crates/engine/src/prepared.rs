//! [`PreparedGraph`]: the query-independent artifacts of one data graph,
//! computed once and shared (behind `Arc`) across every query the engine
//! answers against that graph.
//!
//! The paper's algorithms all start by building the transitive closure
//! `G2+` (Fig. 3 line 5) — the dominant preprocessing cost. A prepared
//! graph hoists that cost out of the per-query path:
//!
//! * the **full reachability index** over `G2+` behind a pluggable
//!   [`ReachIndex`] backend — the dense bitset closure, the compressed
//!   chain index, or the 2-hop labeling, chosen by the
//!   [`ClosureBackend`] policy (`Auto` samples the reach density of
//!   large graphs to pick between the compressed backends);
//! * the **SCC decomposition** itself (reused by the index build and
//!   exposed for diagnostics);
//! * the **compressed graph** `G2*` of Appendix B (member lists plus
//!   *its* closure, built from the Tarjan pass), kept only when
//!   compression actually shrinks the graph;
//! * **hop-bounded closures** for bounded-stretch queries, built lazily
//!   per distinct bound `k` and memoized (always dense: SCC members do
//!   not share hop-bounded rows, so the chain trick does not apply);
//! * degree-based **node weights** of the data graph (importance ranking
//!   for result display and workload skimming).

use crate::planner::{
    ClosureBackend, CompressionPolicy, PlannerConfig, ResolvedBackend, DEFAULT_CHAIN_NODE_THRESHOLD,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use phom_core::PreparedInputs;
use phom_dynamic::{
    refresh_bounded_closure, DynamicConfig, GraphUpdate, SemiDynamicChain, SemiDynamicClosure,
};
use phom_graph::serialize::ParseError;
use phom_graph::validate::Violation;
use phom_graph::{
    compress_closure_with, reach_density_sample, tarjan_scc, BitSet, ChainIndex, CompressedClosure,
    DiGraph, DynamicClosure, NodeId, ReachabilityIndex, SccResult, TransitiveClosure, TwoHopIndex,
    UpdateEffect,
};
use phom_sim::NodeWeights;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Condensation components [`ClosureBackend::Auto`] probes with
/// `phom_graph::reach_density_sample` when deciding between the chain
/// and 2-hop backends on large graphs.
const DENSITY_SAMPLES: usize = 64;

/// The reachability backend a prepared graph actually holds — the owning
/// side of `phom_graph::ReachabilityIndex`. Cloning is a pointer bump.
#[derive(Debug, Clone)]
pub enum ReachIndex {
    /// Dense bitset closure (`O(1)` queries, `O(n²)` bits).
    Dense(Arc<TransitiveClosure>),
    /// Compressed chain index (`O(log w)` queries, `O(n·w)` words).
    Chain(Arc<ChainIndex>),
    /// Pruned-landmark 2-hop labeling (label-intersection queries).
    TwoHop(Arc<TwoHopIndex>),
}

impl ReachIndex {
    /// The trait-object view the matching kernels consume.
    #[inline]
    pub fn as_dyn(&self) -> &dyn ReachabilityIndex {
        match self {
            ReachIndex::Dense(c) => &**c,
            ReachIndex::Chain(c) => &**c,
            ReachIndex::TwoHop(c) => &**c,
        }
    }

    /// Shared trait-object handle (for memo shortcuts).
    pub fn as_dyn_arc(&self) -> Arc<dyn ReachabilityIndex> {
        match self {
            ReachIndex::Dense(c) => Arc::clone(c) as Arc<dyn ReachabilityIndex>,
            ReachIndex::Chain(c) => Arc::clone(c) as Arc<dyn ReachabilityIndex>,
            ReachIndex::TwoHop(c) => Arc::clone(c) as Arc<dyn ReachabilityIndex>,
        }
    }

    /// Stable backend name (`"dense"` / `"chain"` / `"twohop"`).
    pub fn backend_name(&self) -> &'static str {
        match self {
            ReachIndex::Dense(_) => "dense",
            ReachIndex::Chain(_) => "chain",
            ReachIndex::TwoHop(_) => "twohop",
        }
    }

    /// The dense closure, when that is the active backend (the
    /// semi-dynamic dense maintenance path needs concrete rows to seed
    /// from).
    // phom-lint: allow(concrete-closure, "backend downcast accessor: the dense maintenance path seeds from concrete rows; not a matching API")
    pub fn dense(&self) -> Option<&Arc<TransitiveClosure>> {
        match self {
            ReachIndex::Dense(c) => Some(c),
            _ => None,
        }
    }

    /// Cheap structural self-check of the active backend: dispatches to
    /// the per-backend `validate` in `phom_graph` (shape, CSR structure,
    /// composition/label invariants). Does not need the graph.
    pub fn validate(&self) -> Result<(), Violation> {
        match self {
            ReachIndex::Dense(c) => c.validate(),
            ReachIndex::Chain(c) => c.validate(),
            ReachIndex::TwoHop(c) => c.validate(),
        }
    }

    /// Deep check of the active backend against the graph it claims to
    /// index: fresh Tarjan partition comparison plus a sampled BFS
    /// ground-truth sweep (`samples` source nodes, evenly spaced).
    pub fn validate_against<L>(&self, g: &DiGraph<L>, samples: usize) -> Result<(), Violation> {
        match self {
            ReachIndex::Dense(c) => c.validate_against(g, samples),
            ReachIndex::Chain(c) => c.validate_against(g, samples),
            ReachIndex::TwoHop(c) => c.validate_against(g, samples),
        }
    }

    /// Builds the index chosen by `policy` for `graph`, reusing an SCC
    /// decomposition. The `Auto` density probe runs only when the node
    /// count passes the chain threshold.
    fn build<L>(
        graph: &DiGraph<L>,
        scc: &SccResult,
        policy: ClosureBackend,
        chain_node_threshold: usize,
    ) -> Self {
        let resolved = policy.resolve(graph.node_count(), chain_node_threshold, || {
            reach_density_sample(graph, scc, DENSITY_SAMPLES)
        });
        match resolved {
            ResolvedBackend::Dense => {
                ReachIndex::Dense(Arc::new(TransitiveClosure::from_scc(graph, scc)))
            }
            ResolvedBackend::Chain => ReachIndex::Chain(Arc::new(ChainIndex::from_scc(graph, scc))),
            ResolvedBackend::TwoHop => {
                ReachIndex::TwoHop(Arc::new(TwoHopIndex::from_scc(graph, scc)))
            }
        }
    }
}

/// Everything a preparation needs to decide *how* to build its artifacts:
/// reachability backend policy and Appendix-B compression policy. A
/// prepared graph remembers its options, and every update-derived version
/// inherits them — which is what lets a sharded registry pin the whole
/// graph's compression decision onto each shard across its entire
/// lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareOptions {
    /// Reachability-backend policy (dense / chain / auto).
    pub backend: ClosureBackend,
    /// Node count at which [`ClosureBackend::Auto`] switches to the chain
    /// index.
    pub chain_node_threshold: usize,
    /// Whether to keep the Appendix-B compressed graph.
    pub compression: CompressionPolicy,
}

impl Default for PrepareOptions {
    fn default() -> Self {
        PrepareOptions {
            backend: ClosureBackend::Auto,
            chain_node_threshold: DEFAULT_CHAIN_NODE_THRESHOLD,
            compression: CompressionPolicy::Auto,
        }
    }
}

impl PrepareOptions {
    /// The options a [`PlannerConfig`] implies — the single config path
    /// the engine, service, and CLI share.
    pub fn from_planner(cfg: &PlannerConfig) -> Self {
        PrepareOptions {
            backend: cfg.closure_backend,
            chain_node_threshold: cfg.chain_node_threshold,
            compression: cfg.compression,
        }
    }
}

/// What one [`PreparedGraph::new`] computed, and how long it took.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrepareStats {
    /// Data-graph node count.
    pub nodes: usize,
    /// Data-graph edge count.
    pub edges: usize,
    /// Strongly connected components.
    pub scc_count: usize,
    /// Reachable pairs in the full closure, `|E+|`.
    pub closure_edges: usize,
    /// Active reachability backend (`"dense"` / `"chain"` / `"twohop"`).
    pub closure_backend: String,
    /// Heap footprint of the active reachability index in bytes.
    pub closure_memory_bytes: usize,
    /// Compressed node count when Appendix-B compression was kept.
    pub compressed_nodes: Option<usize>,
    /// Wall-clock microseconds spent preparing.
    pub prepare_micros: u128,
}

impl PrepareStats {
    /// Compact JSON rendering (field names match the struct).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nodes\":{},\"edges\":{},\"scc_count\":{},\"closure_edges\":{},\
             \"closure_backend\":\"{}\",\"closure_memory_bytes\":{},\
             \"compressed_nodes\":{},\"prepare_micros\":{}}}",
            self.nodes,
            self.edges,
            self.scc_count,
            self.closure_edges,
            self.closure_backend,
            self.closure_memory_bytes,
            match self.compressed_nodes {
                Some(c) => c.to_string(),
                None => "null".to_owned(),
            },
            self.prepare_micros
        )
    }
}

/// What one [`PreparedGraph::apply_with`] batch did to the indexes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Updates that changed the graph.
    pub applied: usize,
    /// Updates that were no-ops (duplicate insert / absent delete).
    pub noops: usize,
    /// Updates referencing out-of-range nodes, skipped.
    pub rejected: usize,
    /// Applied updates that left the closure untouched.
    pub closure_unchanged: usize,
    /// Applied updates patched incrementally.
    pub incremental: usize,
    /// Applied updates that fell back to a full closure rebuild.
    pub rebuilds: usize,
    /// Rebuild fallbacks recorded against the backend — the downgrades
    /// from semi-dynamic maintenance. Always
    /// [`UpdateStats::fallback_damage`] + [`UpdateStats::fallback_unsupported`].
    pub backend_fallbacks: usize,
    /// Backend fallbacks whose reason was a deletion cone past
    /// [`DynamicConfig::damage_threshold`] — the tuned escape hatch.
    pub fallback_damage: usize,
    /// Backend fallbacks whose reason was an update shape with no
    /// incremental rule for the active backend (SCC-splitting deletions
    /// on the chain index; any applied batch on the 2-hop index).
    pub fallback_unsupported: usize,
    /// Total closure components created, merged, or rewritten.
    pub affected_components: usize,
    /// Highest deletion damage the maintainer observed in this batch, in
    /// permille of live condensation components (see
    /// `DynamicStats::peak_damage_permille`).
    pub peak_damage_permille: usize,
    /// Hop-bounded memo rows re-run (affected sources across all
    /// memoized bounds).
    pub bounded_rows_recomputed: usize,
    /// Microseconds spent maintaining the full closure (incremental
    /// patching on the dense and chain backends; the from-scratch index
    /// rebuild on the 2-hop fallback) — the update-apply phase timing
    /// traces and the service registry export.
    pub closure_maintain_micros: u128,
    /// Microseconds spent refreshing the memoized hop-bounded closures.
    pub bounded_refresh_micros: u128,
    /// Wall-clock microseconds for the whole apply (including new-version
    /// assembly).
    pub apply_micros: u128,
}

impl UpdateStats {
    /// Folds another batch's counters into this one (the `engine-live`
    /// aggregate view).
    pub fn absorb(&mut self, other: &UpdateStats) {
        self.applied += other.applied;
        self.noops += other.noops;
        self.rejected += other.rejected;
        self.closure_unchanged += other.closure_unchanged;
        self.incremental += other.incremental;
        self.rebuilds += other.rebuilds;
        self.backend_fallbacks += other.backend_fallbacks;
        self.fallback_damage += other.fallback_damage;
        self.fallback_unsupported += other.fallback_unsupported;
        self.affected_components += other.affected_components;
        self.peak_damage_permille = self.peak_damage_permille.max(other.peak_damage_permille);
        self.bounded_rows_recomputed += other.bounded_rows_recomputed;
        self.closure_maintain_micros += other.closure_maintain_micros;
        self.bounded_refresh_micros += other.bounded_refresh_micros;
        self.apply_micros += other.apply_micros;
    }

    /// Compact JSON rendering (field names match the struct).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"applied\":{},\"noops\":{},\"rejected\":{},\"closure_unchanged\":{},\
             \"incremental\":{},\"rebuilds\":{},\"backend_fallbacks\":{},\
             \"fallback_damage\":{},\"fallback_unsupported\":{},\
             \"affected_components\":{},\"peak_damage_permille\":{},\
             \"bounded_rows_recomputed\":{},\
             \"closure_maintain_micros\":{},\"bounded_refresh_micros\":{},\
             \"apply_micros\":{}}}",
            self.applied,
            self.noops,
            self.rejected,
            self.closure_unchanged,
            self.incremental,
            self.rebuilds,
            self.backend_fallbacks,
            self.fallback_damage,
            self.fallback_unsupported,
            self.affected_components,
            self.peak_damage_permille,
            self.bounded_rows_recomputed,
            self.closure_maintain_micros,
            self.bounded_refresh_micros,
            self.apply_micros
        )
    }
}

/// The result of applying one update batch: the new prepared version
/// (copy-on-write — the version it was derived from is untouched) plus
/// maintenance accounting.
#[derive(Debug, Clone)]
pub struct UpdateOutcome<L> {
    /// The post-update prepared graph.
    pub prepared: Arc<PreparedGraph<L>>,
    /// What the maintenance pass did.
    pub stats: UpdateStats,
}

/// A data graph plus every query-independent index the matching
/// algorithms consume. Cheap to share: all fields are immutable after
/// construction except the lazily grown bounded-closure memo.
#[derive(Debug)]
pub struct PreparedGraph<L> {
    graph: Arc<DiGraph<L>>,
    /// Tarjan decomposition, computed lazily: the fresh-prepare path has
    /// it anyway (the index is built from it), but the incremental
    /// update path maintains SCC *membership* in its own slot numbering
    /// and only needs a Tarjan-numbered result if a caller asks.
    scc: OnceLock<SccResult>,
    index: ReachIndex,
    /// The options this graph was prepared under (inherited by
    /// update-derived versions).
    options: PrepareOptions,
    compressed: Option<CompressedClosure>,
    data_weights: NodeWeights,
    bounded: Mutex<HashMap<usize, Arc<TransitiveClosure>>>,
    stats: PrepareStats,
}

impl<L: Clone> PreparedGraph<L> {
    /// Prepares `graph` under the default [`PrepareOptions`]: SCC
    /// decomposition, full reachability index, compression decision
    /// ([`CompressionPolicy::Auto`]), and degree-based node weights.
    pub fn new(graph: Arc<DiGraph<L>>) -> Self {
        Self::prepare(graph, PrepareOptions::default())
    }

    /// [`PreparedGraph::new`] under an explicit [`ClosureBackend`] policy
    /// with the default compression policy.
    pub fn with_backend(
        graph: Arc<DiGraph<L>>,
        policy: ClosureBackend,
        chain_node_threshold: usize,
    ) -> Self {
        Self::prepare(
            graph,
            PrepareOptions {
                backend: policy,
                chain_node_threshold,
                ..Default::default()
            },
        )
    }

    /// Prepares `graph` under explicit [`PrepareOptions`] (the engine and
    /// the service registry pass their config-derived options here).
    pub fn prepare(graph: Arc<DiGraph<L>>, options: PrepareOptions) -> Self {
        // phom-lint: allow(clock, "monotonic elapsed-time stats for prepare/query/update timings; no wall-clock semantics")
        let started = Instant::now();
        let scc = tarjan_scc(&*graph);
        let index = ReachIndex::build(&graph, &scc, options.backend, options.chain_node_threshold);
        let scc_count = scc.count();
        Self::assemble(
            graph,
            index,
            options,
            Some(scc),
            scc_count,
            HashMap::new(),
            started,
        )
    }

    /// Builds every remaining artifact around an **already built**
    /// reachability index — the shared tail of
    /// [`PreparedGraph::with_backend`] (index just computed, SCC pass
    /// reused), [`PreparedGraph::apply_with`] (index maintained or
    /// rebuilt), and snapshot restore (index deserialized). `scc_count`
    /// is the component count of `graph` (every caller knows it
    /// cheaply); the Tarjan-numbered decomposition itself is optional —
    /// when absent it is computed only if the compression decision needs
    /// it, and otherwise stays lazy until someone calls
    /// [`PreparedGraph::scc`].
    fn assemble(
        graph: Arc<DiGraph<L>>,
        index: ReachIndex,
        options: PrepareOptions,
        scc: Option<SccResult>,
        scc_count: usize,
        bounded: HashMap<usize, Arc<TransitiveClosure>>,
        started: Instant,
    ) -> Self {
        let scc_cell = OnceLock::new();
        if let Some(s) = scc {
            debug_assert_eq!(s.count(), scc_count);
            let _ = scc_cell.set(s);
        }
        let compressed = options
            .compression
            .keep(graph.node_count(), scc_count)
            .then(|| compress_closure_with(&*graph, scc_cell.get_or_init(|| tarjan_scc(&*graph))));
        let data_weights = NodeWeights::by_degree(&*graph);
        let stats = PrepareStats {
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            scc_count,
            closure_edges: index.as_dyn().pair_count(),
            closure_backend: index.backend_name().to_owned(),
            closure_memory_bytes: index.as_dyn().memory_bytes(),
            compressed_nodes: compressed.as_ref().map(CompressedClosure::node_count),
            prepare_micros: started.elapsed().as_micros(),
        };
        PreparedGraph {
            graph,
            scc: scc_cell,
            index,
            options,
            compressed,
            data_weights,
            bounded: Mutex::new(bounded),
            stats,
        }
    }

    /// Applies a batch of edge updates with default maintenance tuning —
    /// see [`PreparedGraph::apply_with`].
    pub fn apply(&self, updates: &[GraphUpdate]) -> UpdateOutcome<L> {
        self.apply_with(updates, &DynamicConfig::default())
    }

    /// Applies a batch of edge updates to this prepared graph and returns
    /// a **new version** — copy-on-write: `self` is untouched, so
    /// in-flight queries holding the old `Arc` keep reading a consistent
    /// snapshot while new queries route to the returned version. The new
    /// version's graph is a clone of this one's that shares its labels
    /// and every adjacency chunk the batch does not write (see
    /// [`DiGraph`]), so versioning the graph costs O(batch), like the
    /// dense closure, whose rows are shared the same way. The version
    /// inherits this graph's options and [`PrepareStats::prepare_micros`];
    /// the batch's own time is [`UpdateStats::apply_micros`].
    ///
    /// With the **dense** backend the closure is *maintained*, not
    /// recomputed: a [`SemiDynamicClosure`] is seeded from the existing
    /// rows (one memcpy), each update is patched in (incremental insert /
    /// bounded-cone delete, with the [`DynamicConfig::damage_threshold`]
    /// rebuild fallback), and memoized hop-bounded closures are refreshed
    /// for affected sources only. When compression is kept, the version's
    /// `G2*` (member lists and closure) is built in one pass over a
    /// Tarjan decomposition of the new graph ([`compress_closure_with`]),
    /// so it is numbered exactly as a fresh prepare numbers it: matching
    /// breaks ties on compressed ids and member order, and the
    /// maintainer's component slots depend on the update history. The
    /// **chain** backend is likewise maintained incrementally by a
    /// [`SemiDynamicChain`] — chains are extended, split, and
    /// concatenated from the update's affected cone — with a full
    /// rebuild kept only as the escape hatch (deletion cones past the
    /// damage threshold, or SCC-splitting deletions, which have no
    /// incremental chain rule); each rebuild is recorded in
    /// [`UpdateStats::backend_fallbacks`] with its reason split across
    /// [`UpdateStats::fallback_damage`] /
    /// [`UpdateStats::fallback_unsupported`]. The **2-hop** backend has
    /// no incremental rule at all: any batch that changes the graph is
    /// serviced by one from-scratch rebuild, counted the same way.
    pub fn apply_with(&self, updates: &[GraphUpdate], config: &DynamicConfig) -> UpdateOutcome<L> {
        match &self.index {
            ReachIndex::Dense(dense) => self.apply_dense(updates, config, dense),
            ReachIndex::Chain(chain) => self.apply_chain(updates, config, chain),
            ReachIndex::TwoHop(_) => self.apply_twohop_rebuild(updates),
        }
    }

    /// The semi-dynamic maintenance path (dense backend only).
    fn apply_dense(
        &self,
        updates: &[GraphUpdate],
        config: &DynamicConfig,
        dense: &Arc<TransitiveClosure>,
    ) -> UpdateOutcome<L> {
        // phom-lint: allow(clock, "monotonic elapsed-time stats for prepare/query/update timings; no wall-clock semantics")
        let started = Instant::now();
        let n = self.graph.node_count();
        let mut stats = UpdateStats::default();
        // The clone becomes the new version's graph: the maintainer owns
        // it, applies each edit to graph and closure in lockstep, and
        // hands both back via `into_parts`. Cloning copies chunk
        // pointers, not adjacency.
        let mut dyc = SemiDynamicClosure::from_closure((*self.graph).clone(), dense, *config);
        let mut touched: Vec<NodeId> = Vec::new();
        for &update in updates {
            if !update.in_range(n) {
                stats.rejected += 1;
                continue;
            }
            let effect = match update {
                GraphUpdate::InsertEdge(a, b) => dyc.insert_edge(a, b),
                GraphUpdate::RemoveEdge(a, b) => dyc.remove_edge(a, b),
            };
            match effect {
                UpdateEffect::NoOp => stats.noops += 1,
                UpdateEffect::Unchanged => {
                    stats.applied += 1;
                    stats.closure_unchanged += 1;
                }
                UpdateEffect::Incremental {
                    affected_components,
                } => {
                    stats.applied += 1;
                    stats.incremental += 1;
                    stats.affected_components += affected_components;
                }
                UpdateEffect::Rebuilt => {
                    stats.applied += 1;
                    stats.rebuilds += 1;
                }
            }
            if effect != UpdateEffect::NoOp {
                touched.push(update.source());
            }
        }
        stats.closure_maintain_micros = dyc.stats().maintain_micros;
        stats.peak_damage_permille = dyc.stats().peak_damage_permille;
        let scc_count = dyc.component_count();
        let (new_graph, closure) = dyc.into_parts();
        let index = ReachIndex::Dense(Arc::new(closure));
        self.derive(new_graph, index, None, scc_count, &touched, stats, started)
    }

    /// The semi-dynamic chain maintenance path: chains are extended,
    /// split, and concatenated from each update's affected cone; full
    /// rebuilds happen only through the counted escape hatches (damage
    /// threshold / SCC-splitting deletion).
    fn apply_chain(
        &self,
        updates: &[GraphUpdate],
        config: &DynamicConfig,
        chain: &Arc<ChainIndex>,
    ) -> UpdateOutcome<L> {
        // phom-lint: allow(clock, "monotonic elapsed-time stats for prepare/query/update timings; no wall-clock semantics")
        let started = Instant::now();
        let n = self.graph.node_count();
        let mut stats = UpdateStats::default();
        // The clone becomes the new version's graph, exactly like the
        // dense path: the maintainer owns it and mutates graph and index
        // in lockstep.
        let mut dyc = SemiDynamicChain::from_index((*self.graph).clone(), chain, *config);
        let mut touched: Vec<NodeId> = Vec::new();
        for &update in updates {
            if !update.in_range(n) {
                stats.rejected += 1;
                continue;
            }
            let effect = match update {
                GraphUpdate::InsertEdge(a, b) => dyc.insert_edge(a, b),
                GraphUpdate::RemoveEdge(a, b) => dyc.remove_edge(a, b),
            };
            match effect {
                UpdateEffect::NoOp => stats.noops += 1,
                UpdateEffect::Unchanged => {
                    stats.applied += 1;
                    stats.closure_unchanged += 1;
                }
                UpdateEffect::Incremental {
                    affected_components,
                } => {
                    stats.applied += 1;
                    stats.incremental += 1;
                    stats.affected_components += affected_components;
                }
                UpdateEffect::Rebuilt => {
                    stats.applied += 1;
                    stats.rebuilds += 1;
                }
            }
            if effect != UpdateEffect::NoOp {
                touched.push(update.source());
            }
        }
        stats.closure_maintain_micros = dyc.stats().maintain_micros;
        stats.peak_damage_permille = dyc.stats().peak_damage_permille;
        stats.fallback_damage = dyc.fallback_damage();
        stats.fallback_unsupported = dyc.fallback_unsupported();
        stats.backend_fallbacks = stats.fallback_damage + stats.fallback_unsupported;
        let scc_count = dyc.component_count();
        let (new_graph, index) = dyc.into_parts();
        let index = ReachIndex::Chain(Arc::new(index));
        self.derive(new_graph, index, None, scc_count, &touched, stats, started)
    }

    /// The 2-hop-backend fallback: apply the edits to a graph clone and
    /// rebuild the labeling from scratch (semi-dynamic by design — never
    /// worse than a re-prepare, and the downgrade is visible in the
    /// stats as an unsupported-op backend fallback).
    fn apply_twohop_rebuild(&self, updates: &[GraphUpdate]) -> UpdateOutcome<L> {
        // phom-lint: allow(clock, "monotonic elapsed-time stats for prepare/query/update timings; no wall-clock semantics")
        let started = Instant::now();
        let n = self.graph.node_count();
        let mut stats = UpdateStats::default();
        let mut new_graph = (*self.graph).clone();
        let mut touched: Vec<NodeId> = Vec::new();
        for &update in updates {
            if !update.in_range(n) {
                stats.rejected += 1;
            } else if update.apply_to(&mut new_graph) {
                stats.applied += 1;
                touched.push(update.source());
            } else {
                stats.noops += 1;
            }
        }
        let (index, scc, scc_count) = if stats.applied == 0 {
            // Nothing changed the graph: keep the existing index (a
            // pointer bump) — no rebuild ran, so no downgrade to record.
            (self.index.clone(), None, self.stats.scc_count)
        } else {
            stats.backend_fallbacks = 1;
            stats.fallback_unsupported = 1;
            stats.rebuilds += 1;
            // phom-lint: allow(clock, "monotonic elapsed-time stats for closure rebuilds; no wall-clock semantics")
            let rebuild_started = Instant::now();
            let scc = tarjan_scc(&new_graph);
            let scc_count = scc.count();
            let index = ReachIndex::TwoHop(Arc::new(TwoHopIndex::from_scc(&new_graph, &scc)));
            stats.closure_maintain_micros = rebuild_started.elapsed().as_micros();
            (index, Some(scc), scc_count)
        };
        self.derive(new_graph, index, scc, scc_count, &touched, stats, started)
    }

    /// The shared tail of the apply paths: refreshes the bounded memo for
    /// the `touched` sources and assembles the version `self` derives
    /// from `graph` and its maintained `index`. The version inherits
    /// `self`'s options and preparation time; `stats` gets the batch's
    /// [`UpdateStats::apply_micros`], measured from `started`.
    #[allow(clippy::too_many_arguments)]
    fn derive(
        &self,
        graph: DiGraph<L>,
        index: ReachIndex,
        scc: Option<SccResult>,
        scc_count: usize,
        touched: &[NodeId],
        mut stats: UpdateStats,
        started: Instant,
    ) -> UpdateOutcome<L> {
        let bounded = self.refreshed_bounded_memo(&graph, touched, &mut stats);
        let mut prepared = Self::assemble(
            Arc::new(graph),
            index,
            self.options,
            scc,
            scc_count,
            bounded,
            started,
        );
        prepared.stats.prepare_micros = self.stats.prepare_micros;
        stats.apply_micros = started.elapsed().as_micros();
        UpdateOutcome {
            prepared: Arc::new(prepared),
            stats,
        }
    }

    /// Refreshes the memoized hop-bounded closures (affected sources
    /// only) so a warm memo survives the version bump.
    fn refreshed_bounded_memo(
        &self,
        new_graph: &DiGraph<L>,
        touched: &[NodeId],
        stats: &mut UpdateStats,
    ) -> HashMap<usize, Arc<TransitiveClosure>> {
        // phom-lint: allow(clock, "monotonic elapsed-time stats for SCC refresh; no wall-clock semantics")
        let refresh_started = Instant::now();
        let old_memo: Vec<(usize, Arc<TransitiveClosure>)> = {
            let memo = self.bounded.lock().unwrap_or_else(|e| e.into_inner());
            memo.iter().map(|(&k, c)| (k, Arc::clone(c))).collect()
        };
        let mut bounded = HashMap::with_capacity(old_memo.len());
        for (k, old) in old_memo {
            if touched.is_empty() {
                bounded.insert(k, old);
                continue;
            }
            let (fresh, recomputed) = refresh_bounded_closure(&old, new_graph, k, touched);
            stats.bounded_rows_recomputed += recomputed;
            bounded.insert(k, Arc::new(fresh));
        }
        stats.bounded_refresh_micros = refresh_started.elapsed().as_micros();
        bounded
    }

    /// The underlying data graph.
    pub fn graph(&self) -> &Arc<DiGraph<L>> {
        &self.graph
    }

    /// The full reachability index over `G2+` (backend-agnostic view).
    pub fn closure(&self) -> &dyn ReachabilityIndex {
        self.index.as_dyn()
    }

    /// The owning reachability backend (for snapshotting and policy
    /// introspection).
    pub fn backend(&self) -> &ReachIndex {
        &self.index
    }

    /// The options this graph was prepared under (update-derived versions
    /// inherit them).
    pub fn options(&self) -> PrepareOptions {
        self.options
    }

    /// The Tarjan SCC decomposition of the data graph (computed lazily
    /// after an incremental update; always membership-equivalent to the
    /// index's component structure).
    pub fn scc(&self) -> &SccResult {
        self.scc.get_or_init(|| tarjan_scc(&*self.graph))
    }

    /// Appendix-B compressed graph (member lists and closure), when kept.
    pub fn compressed(&self) -> Option<&CompressedClosure> {
        self.compressed.as_ref()
    }

    /// Degree-based importance weights of the data-graph nodes.
    pub fn data_weights(&self) -> &NodeWeights {
        &self.data_weights
    }

    /// Preparation statistics.
    pub fn stats(&self) -> &PrepareStats {
        &self.stats
    }

    /// Cheap structural tier of the backend validators: checks the
    /// active reachability index's internal invariants without touching
    /// the graph (see [`ReachIndex::validate`]). This is the check the
    /// snapshot-restore gate and `phom audit` run first.
    pub fn validate(&self) -> Result<(), Violation> {
        self.index.validate()
    }

    /// Deep tier: validates the active index *against* the data graph —
    /// fresh SCC partition comparison plus a sampled BFS ground-truth
    /// sweep over `samples` evenly spaced source nodes (see
    /// [`ReachIndex::validate_against`]).
    pub fn validate_deep(&self, samples: usize) -> Result<(), Violation> {
        self.index.validate_against(&self.graph, samples)
    }

    /// The hop-bounded closure for stretch bound `k`, building and
    /// memoizing it on first use, and whether this call built it. Bounds
    /// at or above the node count coincide with the full closure, so the
    /// active full index is returned without a build. The build runs
    /// under the memo's lock: a concurrent call for the same `k` waits
    /// for it and then reads the memo, so exactly one caller per build
    /// reports `true`.
    pub fn bounded_closure(&self, k: usize) -> (Arc<dyn ReachabilityIndex>, bool) {
        if k >= self.graph.node_count().max(1) {
            return (self.index.as_dyn_arc(), false);
        }
        let mut memo = self.bounded.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = memo.get(&k) {
            return (Arc::clone(c) as Arc<dyn ReachabilityIndex>, false);
        }
        let built = Arc::new(TransitiveClosure::bounded(&*self.graph, k));
        memo.insert(k, Arc::clone(&built));
        (built, true)
    }

    /// How many distinct hop-bounded closures this version holds: the
    /// ones it built plus the ones its update refreshed from the version
    /// it derives from (the memo never evicts).
    pub fn bounded_closures_computed(&self) -> usize {
        self.bounded.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Assembles the borrowed view [`phom_core::match_graphs_prepared`]
    /// consumes. `bounded` must be the memoized closure for the query's
    /// stretch bound when one applies (see [`PreparedGraph::bounded_closure`]).
    /// The returned view carries an unlimited [`phom_core::MatchBudget`];
    /// callers with a per-query deadline (the engine's executor) set the
    /// `budget` field before matching.
    pub fn inputs<'a>(
        &'a self,
        bounded: Option<(usize, &'a dyn ReachabilityIndex)>,
    ) -> PreparedInputs<'a> {
        PreparedInputs {
            closure: self.index.as_dyn(),
            bounded,
            compressed: self.compressed.as_ref(),
            budget: phom_core::MatchBudget::unlimited(),
        }
    }
}

/// Bounds check shared by the snapshot readers.
fn need(data: &Bytes, bytes: usize) -> Result<(), ParseError> {
    if data.remaining() < bytes {
        Err(ParseError::Corrupt(format!("need {bytes} more bytes")))
    } else {
        Ok(())
    }
}

/// Rejects serialized bitset words with bits set at or beyond `len`.
/// `BitSet::from_words` silently clears such bits, so accepting them
/// would let a corrupted snapshot round-trip into a valid-looking index.
fn check_padding(len: usize, words: &[u64]) -> Result<(), ParseError> {
    let tail = len % 64;
    if tail != 0 && words.len() == len.div_ceil(64) {
        if let Some(&last) = words.last() {
            if last >> tail != 0 {
                return Err(ParseError::Corrupt(format!(
                    "bitset has bits set beyond its {len}-bit length"
                )));
            }
        }
    }
    Ok(())
}

/// Magic prefix of the prepared-graph snapshot format ("pHPG").
const PREPARED_MAGIC: u32 = 0x7048_5047;
/// Snapshot format version. Version 2 added the version byte itself plus
/// the backend tag (the PR-2 format was unversioned; its first payload
/// byte — the high byte of a big-endian graph length — reads back as
/// version 0 and is rejected with a clear error instead of misparsing).
const SNAPSHOT_VERSION: u8 = 2;
const BACKEND_DENSE: u8 = 0;
const BACKEND_CHAIN: u8 = 1;
const BACKEND_TWOHOP: u8 = 2;

impl PreparedGraph<String> {
    /// Serializes the prepared graph — the data graph (via
    /// `phom_graph::serialize::to_snapshot`) **plus the warm reachability
    /// index** (dense closure rows or chain-index arrays, tagged by
    /// backend) — into a compact binary snapshot, so a restarted engine
    /// restores a prepared graph without re-running the closure
    /// computation (the dominant preparation cost).
    ///
    /// Bounded-closure memos are *not* persisted (they are per-workload
    /// and rebuild lazily); SCC numbering, compression, and node weights
    /// are recomputed on load from their linear-time passes.
    pub fn save_snapshot(&self) -> Bytes {
        let graph_bytes = phom_graph::serialize::to_snapshot(&self.graph);
        let n = self.graph.node_count();
        let mut buf = BytesMut::with_capacity(24 + graph_bytes.len() + 8 * n);
        buf.put_u32(PREPARED_MAGIC);
        buf.put_u8(SNAPSHOT_VERSION);
        buf.put_u8(match self.index {
            ReachIndex::Dense(_) => BACKEND_DENSE,
            ReachIndex::Chain(_) => BACKEND_CHAIN,
            ReachIndex::TwoHop(_) => BACKEND_TWOHOP,
        });
        buf.put_u32(graph_bytes.len() as u32);
        buf.put_slice(graph_bytes.as_ref());
        buf.put_u32(n as u32);
        match &self.index {
            ReachIndex::Dense(closure) => {
                for v in self.graph.nodes() {
                    buf.put_u32(closure.component_of(v) as u32);
                }
                let rows = closure.component_count();
                buf.put_u32(rows as u32);
                for c in 0..rows {
                    let words = closure.component_row(c).words();
                    buf.put_u32(words.len() as u32);
                    for &w in words {
                        buf.put_u64(w);
                    }
                }
            }
            ReachIndex::Chain(chain) => {
                let p = chain.parts();
                buf.put_u32(p.chain_of.len() as u32);
                for &c in p.comp {
                    buf.put_u32(c);
                }
                let cyclic_words = p.cyclic.words();
                buf.put_u32(cyclic_words.len() as u32);
                for &w in cyclic_words {
                    buf.put_u64(w);
                }
                for &j in p.chain_of {
                    buf.put_u32(j);
                }
                for &pos in p.pos_of {
                    buf.put_u32(pos);
                }
                for &off in p.entry_off {
                    buf.put_u32(off);
                }
                buf.put_u32(p.entries.len() as u32);
                for &(j, pos) in p.entries {
                    buf.put_u32(j);
                    buf.put_u32(pos);
                }
            }
            ReachIndex::TwoHop(hop) => {
                let p = hop.parts();
                buf.put_u32(p.out_mask.len() as u32);
                for &c in p.comp {
                    buf.put_u32(c);
                }
                let cyclic_words = p.cyclic.words();
                buf.put_u32(cyclic_words.len() as u32);
                for &w in cyclic_words {
                    buf.put_u64(w);
                }
                for &m in p.out_mask {
                    buf.put_u64(m);
                }
                for &m in p.in_mask {
                    buf.put_u64(m);
                }
                for (offs, labs) in [(p.out_off, p.out_lab), (p.in_off, p.in_lab)] {
                    for &off in offs {
                        buf.put_u32(off);
                    }
                    buf.put_u32(labs.len() as u32);
                    for &r in labs {
                        buf.put_u32(r);
                    }
                }
            }
        }
        buf.freeze()
    }

    /// Restores a prepared graph from [`PreparedGraph::save_snapshot`]
    /// bytes. Snapshots from unknown format versions — including the
    /// unversioned pre-version-byte layout — are rejected with a
    /// [`ParseError`] instead of being silently misparsed. The index
    /// payload is validated for shape, not re-derived (snapshots are a
    /// cache format, not an interchange format).
    pub fn load_snapshot(data: Bytes) -> Result<Self, ParseError> {
        Self::load_snapshot_with(data, CompressionPolicy::Auto)
    }

    /// [`PreparedGraph::load_snapshot`] under an explicit
    /// [`CompressionPolicy`] — a registry restoring a sharded graph
    /// passes the pinned graph-wide decision here, so a restored shard
    /// does not re-decide Appendix-B compression from its own node/SCC
    /// counts (which would diverge from the unsharded answer the pin
    /// exists to preserve).
    pub fn load_snapshot_with(
        mut data: Bytes,
        compression: CompressionPolicy,
    ) -> Result<Self, ParseError> {
        // phom-lint: allow(clock, "monotonic elapsed-time stats for prepare/query/update timings; no wall-clock semantics")
        let started = Instant::now();
        need(&data, 10)?;
        let magic = data.get_u32();
        if magic != PREPARED_MAGIC {
            return Err(ParseError::Corrupt(format!(
                "bad prepared-graph magic {magic:#x}"
            )));
        }
        let version = data.get_u8();
        if version != SNAPSHOT_VERSION {
            return Err(ParseError::Corrupt(format!(
                "unsupported prepared-snapshot format version {version} \
                 (this build reads version {SNAPSHOT_VERSION}; re-save the snapshot)"
            )));
        }
        let backend = data.get_u8();
        let graph_len = data.get_u32() as usize;
        need(&data, graph_len)?;
        let graph = phom_graph::serialize::from_snapshot(data.split_to(graph_len))?;
        need(&data, 4)?;
        let n = data.get_u32() as usize;
        if n != graph.node_count() {
            return Err(ParseError::Corrupt(format!(
                "closure covers {n} nodes, graph has {}",
                graph.node_count()
            )));
        }
        let index = match backend {
            BACKEND_DENSE => ReachIndex::Dense(Arc::new(Self::load_dense(&mut data, n)?)),
            BACKEND_CHAIN => ReachIndex::Chain(Arc::new(Self::load_chain(&mut data, n)?)),
            BACKEND_TWOHOP => ReachIndex::TwoHop(Arc::new(Self::load_twohop(&mut data, &graph)?)),
            other => {
                return Err(ParseError::Corrupt(format!(
                    "unknown reachability backend tag {other}"
                )))
            }
        };
        let scc = tarjan_scc(&graph);
        let scc_count = scc.count();
        // A restored graph keeps whichever backend it was saved with;
        // later `apply` versions inherit that choice explicitly.
        let options = PrepareOptions {
            backend: match index {
                ReachIndex::Dense(_) => ClosureBackend::Dense,
                ReachIndex::Chain(_) => ClosureBackend::Chain,
                ReachIndex::TwoHop(_) => ClosureBackend::TwoHop,
            },
            compression,
            ..Default::default()
        };
        Ok(Self::assemble(
            Arc::new(graph),
            index,
            options,
            Some(scc),
            scc_count,
            HashMap::new(),
            started,
        ))
    }

    fn load_dense(data: &mut Bytes, n: usize) -> Result<TransitiveClosure, ParseError> {
        need(data, 4 * n)?;
        let comp: Vec<u32> = (0..n).map(|_| data.get_u32()).collect();
        need(data, 4)?;
        let row_count = data.get_u32() as usize;
        // Each serialized row costs at least its 4-byte word count, so a
        // claimed row count past that bound cannot be satisfied; reject
        // before sizing any allocation off the header value.
        if row_count > n || row_count > data.remaining() / 4 {
            return Err(ParseError::Corrupt(format!(
                "{row_count} rows exceed what the snapshot can hold"
            )));
        }
        if let Some(&c) = comp.iter().find(|&&c| c as usize >= row_count) {
            return Err(ParseError::Corrupt(format!(
                "component {c} out of range {row_count}"
            )));
        }
        let max_words = n.div_ceil(64);
        let mut rows = Vec::with_capacity(row_count);
        for _ in 0..row_count {
            need(data, 4)?;
            let word_count = data.get_u32() as usize;
            if word_count > max_words {
                return Err(ParseError::Corrupt(format!(
                    "{word_count} row words exceed {max_words}"
                )));
            }
            need(data, 8 * word_count)?;
            let mut words = Vec::with_capacity(word_count);
            for _ in 0..word_count {
                words.push(data.get_u64());
            }
            check_padding(n, &words)?;
            rows.push(BitSet::from_words(n, &words));
        }
        Ok(TransitiveClosure::from_parts(comp, rows, n))
    }

    fn load_chain(data: &mut Bytes, n: usize) -> Result<ChainIndex, ParseError> {
        need(data, 4)?;
        let c_count = data.get_u32() as usize;
        if c_count > n {
            return Err(ParseError::Corrupt(format!(
                "{c_count} components exceed {n} nodes"
            )));
        }
        need(data, 4 * n)?;
        let comp: Vec<u32> = (0..n).map(|_| data.get_u32()).collect();
        need(data, 4)?;
        let word_count = data.get_u32() as usize;
        if word_count > c_count.div_ceil(64) {
            return Err(ParseError::Corrupt(format!(
                "{word_count} cyclic words exceed {} components",
                c_count
            )));
        }
        need(data, 8 * word_count)?;
        let cyclic_words: Vec<u64> = (0..word_count).map(|_| data.get_u64()).collect();
        check_padding(c_count, &cyclic_words)?;
        let cyclic = BitSet::from_words(c_count, &cyclic_words);
        need(data, 4 * c_count)?;
        let chain_of: Vec<u32> = (0..c_count).map(|_| data.get_u32()).collect();
        need(data, 4 * c_count)?;
        let pos_of: Vec<u32> = (0..c_count).map(|_| data.get_u32()).collect();
        need(data, 4 * (c_count + 1))?;
        let entry_off: Vec<u32> = (0..=c_count).map(|_| data.get_u32()).collect();
        need(data, 4)?;
        let entry_count = data.get_u32() as usize;
        need(data, 8 * entry_count)?;
        let entries: Vec<(u32, u32)> = (0..entry_count)
            .map(|_| (data.get_u32(), data.get_u32()))
            .collect();
        ChainIndex::from_parts(n, comp, cyclic, chain_of, pos_of, entry_off, entries)
            .map_err(|e| ParseError::Corrupt(format!("chain index: {e}")))
    }

    fn load_twohop(data: &mut Bytes, graph: &DiGraph<String>) -> Result<TwoHopIndex, ParseError> {
        let n = graph.node_count();
        need(data, 4)?;
        let c_count = data.get_u32() as usize;
        if c_count > n {
            return Err(ParseError::Corrupt(format!(
                "{c_count} components exceed {n} nodes"
            )));
        }
        need(data, 4 * n)?;
        let comp: Vec<u32> = (0..n).map(|_| data.get_u32()).collect();
        need(data, 4)?;
        let word_count = data.get_u32() as usize;
        if word_count > c_count.div_ceil(64) {
            return Err(ParseError::Corrupt(format!(
                "{word_count} cyclic words exceed {c_count} components"
            )));
        }
        need(data, 8 * word_count)?;
        let cyclic_words: Vec<u64> = (0..word_count).map(|_| data.get_u64()).collect();
        check_padding(c_count, &cyclic_words)?;
        let cyclic = BitSet::from_words(c_count, &cyclic_words);
        need(data, 8 * c_count)?;
        let out_mask: Vec<u64> = (0..c_count).map(|_| data.get_u64()).collect();
        need(data, 8 * c_count)?;
        let in_mask: Vec<u64> = (0..c_count).map(|_| data.get_u64()).collect();
        fn tail_section(
            data: &mut Bytes,
            c_count: usize,
        ) -> Result<(Vec<u32>, Vec<u32>), ParseError> {
            need(data, 4 * (c_count + 1))?;
            let off: Vec<u32> = (0..=c_count).map(|_| data.get_u32()).collect();
            need(data, 4)?;
            let lab_count = data.get_u32() as usize;
            need(data, 4 * lab_count)?;
            let lab: Vec<u32> = (0..lab_count).map(|_| data.get_u32()).collect();
            Ok((off, lab))
        }
        let (out_off, out_lab) = tail_section(data, c_count)?;
        let (in_off, in_lab) = tail_section(data, c_count)?;
        TwoHopIndex::from_parts(
            graph, comp, cyclic, out_mask, in_mask, out_off, out_lab, in_off, in_lab,
        )
        .map_err(|e| ParseError::Corrupt(format!("2-hop index: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::{graph_from_labels, NodeId};

    fn cyclic_graph() -> Arc<DiGraph<String>> {
        Arc::new(graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
        ))
    }

    fn chain_prepared(graph: Arc<DiGraph<String>>) -> PreparedGraph<String> {
        PreparedGraph::with_backend(graph, ClosureBackend::Chain, DEFAULT_CHAIN_NODE_THRESHOLD)
    }

    #[test]
    fn prepare_computes_closure_and_scc() {
        let p = PreparedGraph::new(cyclic_graph());
        assert_eq!(p.stats().nodes, 4);
        assert_eq!(p.stats().scc_count, 3, "{{a,b}} collapses");
        assert_eq!(p.stats().closure_backend, "dense", "auto below threshold");
        assert!(p.stats().closure_memory_bytes > 0);
        assert!(p.closure().reaches(NodeId(0), NodeId(3)));
        assert!(p.closure().reaches(NodeId(0), NodeId(0)), "on a cycle");
        assert!(!p.closure().reaches(NodeId(3), NodeId(0)));
    }

    #[test]
    fn chain_backend_answers_identically() {
        let g = cyclic_graph();
        let dense = PreparedGraph::with_backend(
            Arc::clone(&g),
            ClosureBackend::Dense,
            DEFAULT_CHAIN_NODE_THRESHOLD,
        );
        let chain = chain_prepared(Arc::clone(&g));
        assert_eq!(chain.stats().closure_backend, "chain");
        assert_eq!(chain.stats().closure_edges, dense.stats().closure_edges);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    dense.closure().reaches(u, v),
                    chain.closure().reaches(u, v),
                    "{u:?}->{v:?}"
                );
            }
        }
    }

    #[test]
    fn auto_policy_switches_on_node_threshold_then_density() {
        let g = cyclic_graph();
        let small = PreparedGraph::with_backend(Arc::clone(&g), ClosureBackend::Auto, 1_000_000);
        assert_eq!(small.stats().closure_backend, "dense");
        // Past the node threshold the reach density decides: the tiny
        // cyclic graph condenses to a 3-component path — dense-reach —
        // so Auto picks the 2-hop labeling...
        let big = PreparedGraph::with_backend(Arc::clone(&g), ClosureBackend::Auto, 2);
        assert_eq!(big.stats().closure_backend, "twohop");
        // ...while a tree-shaped graph (almost every component reaches
        // almost nothing) stays on the chain index.
        let tree = Arc::new(phom_graph::preferential_attachment(200, 1, 9));
        let sparse = PreparedGraph::with_backend(Arc::clone(&tree), ClosureBackend::Auto, 2);
        assert_eq!(sparse.stats().closure_backend, "chain");
    }

    #[test]
    fn twohop_backend_answers_identically() {
        let g = cyclic_graph();
        let dense = PreparedGraph::with_backend(
            Arc::clone(&g),
            ClosureBackend::Dense,
            DEFAULT_CHAIN_NODE_THRESHOLD,
        );
        let hop = PreparedGraph::with_backend(
            Arc::clone(&g),
            ClosureBackend::TwoHop,
            DEFAULT_CHAIN_NODE_THRESHOLD,
        );
        assert_eq!(hop.stats().closure_backend, "twohop");
        assert_eq!(hop.stats().closure_edges, dense.stats().closure_edges);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    dense.closure().reaches(u, v),
                    hop.closure().reaches(u, v),
                    "{u:?}->{v:?}"
                );
            }
        }
    }

    #[test]
    fn bounded_closures_are_memoized() {
        let p = PreparedGraph::new(cyclic_graph());
        assert_eq!(p.bounded_closures_computed(), 0);
        let (c1, built) = p.bounded_closure(1);
        assert!(built, "first call builds");
        let (_, built_again) = p.bounded_closure(1);
        assert!(!built_again, "second call is a hit");
        assert_eq!(p.bounded_closures_computed(), 1);
        let (_, built_k2) = p.bounded_closure(2);
        assert!(built_k2);
        assert_eq!(p.bounded_closures_computed(), 2);
        assert!(!c1.reaches(NodeId(0), NodeId(3)), "3 hops exceed k=1");
    }

    #[test]
    fn huge_bound_reuses_full_closure() {
        for p in [
            PreparedGraph::new(cyclic_graph()),
            chain_prepared(cyclic_graph()),
        ] {
            let (c, built) = p.bounded_closure(100);
            assert!(!built);
            assert_eq!(p.bounded_closures_computed(), 0, "no bounded build");
            for u in p.graph().nodes() {
                for v in p.graph().nodes() {
                    assert_eq!(c.reaches(u, v), p.closure().reaches(u, v));
                }
            }
        }
    }

    #[test]
    fn acyclic_graph_skips_compression() {
        let p = PreparedGraph::new(Arc::new(graph_from_labels(
            &["a", "b", "c"],
            &[("a", "b"), ("b", "c")],
        )));
        assert!(p.compressed().is_none(), "condensation does not shrink");
        assert_eq!(p.stats().compressed_nodes, None);
    }

    #[test]
    fn compression_policy_overrides_the_worthwhile_heuristic() {
        // Acyclic path: Auto skips compression, Always keeps a trivial
        // (all-singleton) compressed graph.
        let path = Arc::new(graph_from_labels(
            &["a", "b", "c"],
            &[("a", "b"), ("b", "c")],
        ));
        let always = PreparedGraph::prepare(
            Arc::clone(&path),
            PrepareOptions {
                compression: CompressionPolicy::Always,
                ..Default::default()
            },
        );
        assert_eq!(
            always.compressed().unwrap().node_count(),
            3,
            "every SCC is a singleton"
        );
        // Cyclic graph: Auto keeps it (see the sibling test), Never drops.
        let never = PreparedGraph::prepare(
            cyclic_graph(),
            PrepareOptions {
                compression: CompressionPolicy::Never,
                ..Default::default()
            },
        );
        assert!(never.compressed().is_none());
        // Update-derived versions inherit the pinned policy.
        let outcome = never.apply(&[GraphUpdate::InsertEdge(NodeId(3), NodeId(0))]);
        assert_eq!(
            outcome.prepared.options().compression,
            CompressionPolicy::Never
        );
        assert!(outcome.prepared.compressed().is_none());
    }

    #[test]
    fn pinned_policy_matches_the_global_decision() {
        assert_eq!(CompressionPolicy::pinned(10, 5), CompressionPolicy::Always);
        assert_eq!(CompressionPolicy::pinned(10, 10), CompressionPolicy::Never);
        assert!(CompressionPolicy::Always.keep(1, 1));
        assert!(!CompressionPolicy::Always.keep(0, 0), "empty graph");
        assert!(!CompressionPolicy::Never.keep(10, 1));
    }

    #[test]
    fn cyclic_enough_graph_keeps_compression() {
        // 5 nodes, a 3-cycle collapses: 3 compressed nodes for 5 original.
        let p = PreparedGraph::new(Arc::new(graph_from_labels(
            &["a", "b", "c", "d", "e"],
            &[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"), ("d", "e")],
        )));
        let cc = p.compressed().expect("3-cycle shrinks the graph");
        assert_eq!(cc.node_count(), 3);
        assert_eq!(p.stats().compressed_nodes, Some(3));
    }

    /// Every artifact of an applied version must behave like a from-scratch
    /// prepare of the mutated graph (closure, compression decision,
    /// compressed numbering, member order and closure, stats).
    fn assert_equivalent_to_fresh(applied: &PreparedGraph<String>) {
        let fresh = PreparedGraph::new(Arc::clone(applied.graph()));
        for u in applied.graph().nodes() {
            for v in applied.graph().nodes() {
                assert_eq!(
                    applied.closure().reaches(u, v),
                    fresh.closure().reaches(u, v),
                    "closure diverged at {u:?}->{v:?}"
                );
            }
        }
        assert_eq!(applied.stats().closure_edges, fresh.stats().closure_edges);
        assert_eq!(applied.stats().scc_count, fresh.stats().scc_count);
        assert_eq!(
            applied.stats().compressed_nodes,
            fresh.stats().compressed_nodes
        );
        match (applied.compressed(), fresh.compressed()) {
            (None, None) => {}
            (Some(a), Some(f)) => {
                let cn = a.node_count();
                assert_eq!(cn, f.node_count());
                for v in applied.graph().nodes() {
                    assert_eq!(
                        a.representative(v),
                        f.representative(v),
                        "representative of {v:?}"
                    );
                }
                let compressed = (0..cn as u32).map(NodeId);
                for c in compressed.clone() {
                    assert_eq!(a.expand(c), f.expand(c), "members of {c:?}");
                    for d in compressed.clone() {
                        assert_eq!(
                            a.reaches(c, d),
                            f.reaches(c, d),
                            "compressed closure diverged at {c:?}->{d:?}"
                        );
                    }
                }
            }
            (a, f) => panic!(
                "compression decision diverged: applied={} fresh={}",
                a.is_some(),
                f.is_some()
            ),
        }
    }

    #[test]
    fn apply_is_copy_on_write_and_equivalent_to_fresh_prepare() {
        let old = PreparedGraph::new(cyclic_graph());
        let old_edges = old.stats().edges;
        // d -> a closes a big cycle; then cut b -> c.
        let outcome = old.apply(&[
            GraphUpdate::InsertEdge(NodeId(3), NodeId(0)),
            GraphUpdate::RemoveEdge(NodeId(1), NodeId(2)),
        ]);
        assert_eq!(outcome.stats.applied, 2);
        assert_eq!(outcome.stats.rejected, 0);
        assert_eq!(outcome.stats.backend_fallbacks, 0, "dense is semi-dynamic");
        // Copy-on-write: the old version is untouched.
        assert_eq!(old.stats().edges, old_edges);
        assert!(old.closure().reaches(NodeId(0), NodeId(3)));
        // The new version matches a from-scratch prepare of the new graph.
        let new = &outcome.prepared;
        assert_eq!(new.stats().edges, old_edges); // one added, one removed
        assert!(!new.closure().reaches(NodeId(0), NodeId(2)), "b->c cut");
        assert!(new.closure().reaches(NodeId(3), NodeId(1)), "d->a->b");
        assert_equivalent_to_fresh(new);
    }

    #[test]
    fn chain_backend_apply_maintains_incrementally() {
        let old = chain_prepared(cyclic_graph());
        let outcome = old.apply(&[
            GraphUpdate::InsertEdge(NodeId(0), NodeId(3)), // a->d: already reached
            GraphUpdate::RemoveEdge(NodeId(2), NodeId(3)), // cut c->d
        ]);
        assert_eq!(outcome.stats.applied, 2);
        assert_eq!(outcome.stats.closure_unchanged, 1, "a reached d via b,c");
        assert_eq!(outcome.stats.incremental, 1, "the cut is patched in place");
        assert_eq!(outcome.stats.rebuilds, 0);
        assert_eq!(
            outcome.stats.backend_fallbacks, 0,
            "no escape hatch taken: the batch was maintained, not rebuilt"
        );
        let new = &outcome.prepared;
        assert_eq!(new.stats().closure_backend, "chain");
        assert!(!new.closure().reaches(NodeId(2), NodeId(3)), "c->d cut");
        assert!(new.closure().reaches(NodeId(0), NodeId(3)), "a->d direct");
        // Old version untouched (copy-on-write holds under maintenance).
        assert!(old.closure().reaches(NodeId(2), NodeId(3)));
        assert_equivalent_to_fresh(new);
    }

    #[test]
    fn chain_backend_scc_split_falls_back_with_unsupported_reason() {
        let old = chain_prepared(cyclic_graph());
        let outcome = old.apply(&[
            GraphUpdate::InsertEdge(NodeId(3), NodeId(0)), // back edge: one big SCC
            GraphUpdate::RemoveEdge(NodeId(1), NodeId(2)), // splits it again
            GraphUpdate::InsertEdge(NodeId(0), NodeId(99)), // out of range
        ]);
        assert_eq!(outcome.stats.applied, 2);
        assert_eq!(outcome.stats.rejected, 1);
        assert_eq!(outcome.stats.incremental, 1, "the SCC merge is patched");
        assert_eq!(outcome.stats.rebuilds, 1, "the SCC split is not");
        assert_eq!(outcome.stats.backend_fallbacks, 1);
        assert_eq!(
            outcome.stats.fallback_unsupported, 1,
            "SCC splits have no incremental chain rule"
        );
        assert_eq!(outcome.stats.fallback_damage, 0);
        let new = &outcome.prepared;
        assert_eq!(
            new.stats().closure_backend,
            "chain",
            "versions inherit the backend"
        );
        assert!(!new.closure().reaches(NodeId(0), NodeId(2)), "b->c cut");
        assert!(new.closure().reaches(NodeId(3), NodeId(1)), "d->a->b");
        // Old version untouched (copy-on-write holds on the fallback too).
        assert!(old.closure().reaches(NodeId(0), NodeId(2)));
        assert_equivalent_to_fresh(new);
    }

    #[test]
    fn chain_backend_damage_threshold_falls_back_with_damage_reason() {
        let old = PreparedGraph::prepare(
            cyclic_graph(),
            PrepareOptions {
                backend: ClosureBackend::Chain,
                ..Default::default()
            },
        );
        // A zero damage budget turns every reach-changing deletion into
        // a damage-threshold rebuild.
        let outcome = old.apply_with(
            &[GraphUpdate::RemoveEdge(NodeId(2), NodeId(3))],
            &DynamicConfig {
                damage_threshold: 0.0,
            },
        );
        assert_eq!(outcome.stats.applied, 1);
        assert_eq!(outcome.stats.backend_fallbacks, 1);
        assert_eq!(outcome.stats.fallback_damage, 1, "cone exceeded the budget");
        assert_eq!(outcome.stats.fallback_unsupported, 0);
        assert_equivalent_to_fresh(&outcome.prepared);
    }

    #[test]
    fn twohop_backend_apply_falls_back_to_rebuild() {
        let old = PreparedGraph::with_backend(
            cyclic_graph(),
            ClosureBackend::TwoHop,
            DEFAULT_CHAIN_NODE_THRESHOLD,
        );
        let outcome = old.apply(&[
            GraphUpdate::InsertEdge(NodeId(3), NodeId(0)),
            GraphUpdate::RemoveEdge(NodeId(1), NodeId(2)),
            GraphUpdate::InsertEdge(NodeId(0), NodeId(99)), // out of range
        ]);
        assert_eq!(outcome.stats.applied, 2);
        assert_eq!(outcome.stats.rejected, 1);
        assert_eq!(
            outcome.stats.backend_fallbacks, 1,
            "2-hop has no incremental rule: one rebuild per batch"
        );
        assert_eq!(outcome.stats.fallback_unsupported, 1);
        assert_eq!(outcome.stats.fallback_damage, 0);
        assert_eq!(outcome.stats.rebuilds, 1);
        let new = &outcome.prepared;
        assert_eq!(new.stats().closure_backend, "twohop");
        assert!(!new.closure().reaches(NodeId(0), NodeId(2)), "b->c cut");
        assert!(new.closure().reaches(NodeId(3), NodeId(1)), "d->a->b");
        assert!(old.closure().reaches(NodeId(0), NodeId(2)));
        assert_equivalent_to_fresh(new);
        // A batch of pure no-ops keeps the index without a rebuild.
        let noop = old.apply(&[GraphUpdate::InsertEdge(NodeId(0), NodeId(1))]);
        assert_eq!(noop.stats.backend_fallbacks, 0);
        assert_eq!(noop.prepared.stats().closure_backend, "twohop");
    }

    #[test]
    fn chain_backend_noop_batch_skips_rebuild() {
        let old = chain_prepared(cyclic_graph());
        let outcome = old.apply(&[
            GraphUpdate::InsertEdge(NodeId(0), NodeId(1)), // duplicate
            GraphUpdate::RemoveEdge(NodeId(3), NodeId(0)), // absent
        ]);
        assert_eq!(outcome.stats.applied, 0);
        assert_eq!(outcome.stats.noops, 2);
        assert_eq!(
            outcome.stats.backend_fallbacks, 0,
            "no rebuild ran, so no downgrade to record"
        );
        assert_eq!(outcome.stats.rebuilds, 0);
        assert_eq!(outcome.prepared.stats().closure_backend, "chain");
        assert_equivalent_to_fresh(&outcome.prepared);
    }

    #[test]
    fn apply_refreshes_memoized_bounded_closures() {
        for old in [
            PreparedGraph::new(cyclic_graph()),
            chain_prepared(cyclic_graph()),
        ] {
            let (k1, _) = old.bounded_closure(1);
            assert!(!k1.reaches(NodeId(0), NodeId(2)), "a->c is 2 hops");
            let outcome = old.apply(&[GraphUpdate::InsertEdge(NodeId(0), NodeId(2))]);
            let new = &outcome.prepared;
            assert_eq!(
                new.bounded_closures_computed(),
                1,
                "memo carried over, not dropped"
            );
            let (k1_new, built) = new.bounded_closure(1);
            assert!(!built, "the refreshed memo serves it");
            assert!(k1_new.reaches(NodeId(0), NodeId(2)), "now one hop");
            assert!(outcome.stats.bounded_rows_recomputed > 0);
            let scratch = TransitiveClosure::bounded(&**new.graph(), 1);
            for u in new.graph().nodes() {
                for v in new.graph().nodes() {
                    assert_eq!(k1_new.reaches(u, v), scratch.reaches(u, v));
                }
            }
        }
    }

    #[test]
    fn applied_versions_inherit_prepare_micros() {
        let g = Arc::new(phom_graph::preferential_attachment(400, 2, 5));
        for backend in [
            ClosureBackend::Dense,
            ClosureBackend::Chain,
            ClosureBackend::TwoHop,
        ] {
            let mut version = Arc::new(PreparedGraph::with_backend(
                Arc::clone(&g),
                backend,
                DEFAULT_CHAIN_NODE_THRESHOLD,
            ));
            let prepared_micros = version.stats().prepare_micros;
            for i in 0..3 {
                let outcome = version.apply(&[GraphUpdate::InsertEdge(NodeId(i), NodeId(399 - i))]);
                assert_eq!(
                    outcome.prepared.stats().prepare_micros,
                    prepared_micros,
                    "{backend:?}: a version reports its first preparation, not the apply"
                );
                version = outcome.prepared;
            }
        }
    }

    #[test]
    fn apply_counts_noops_and_rejects_out_of_range() {
        let old = PreparedGraph::new(cyclic_graph());
        let outcome = old.apply(&[
            GraphUpdate::InsertEdge(NodeId(0), NodeId(1)), // already present
            GraphUpdate::RemoveEdge(NodeId(3), NodeId(0)), // absent
            GraphUpdate::InsertEdge(NodeId(0), NodeId(99)), // out of range
        ]);
        assert_eq!(outcome.stats.applied, 0);
        assert_eq!(outcome.stats.noops, 2);
        assert_eq!(outcome.stats.rejected, 1);
        assert_equivalent_to_fresh(&outcome.prepared);
    }

    #[test]
    fn apply_keeps_compression_decision_in_sync() {
        // Starts acyclic (compression skipped); a back edge builds a
        // 4-cycle that makes compression worthwhile.
        let p = PreparedGraph::new(Arc::new(graph_from_labels(
            &["a", "b", "c", "d", "e"],
            &[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
        )));
        assert!(p.compressed().is_none());
        let outcome = p.apply(&[GraphUpdate::InsertEdge(NodeId(3), NodeId(0))]);
        assert!(
            outcome.prepared.compressed().is_some(),
            "4-cycle of 5 nodes compresses to 2"
        );
        assert_equivalent_to_fresh(&outcome.prepared);
    }

    #[test]
    fn snapshot_roundtrip_restores_warm_closure() {
        let p = PreparedGraph::new(cyclic_graph());
        let bytes = p.save_snapshot();
        let restored = PreparedGraph::load_snapshot(bytes).expect("restore");
        assert_eq!(restored.stats().nodes, p.stats().nodes);
        assert_eq!(restored.stats().edges, p.stats().edges);
        assert_eq!(restored.stats().closure_edges, p.stats().closure_edges);
        assert_eq!(restored.stats().closure_backend, "dense");
        assert_eq!(restored.graph().label(NodeId(2)), "c");
        for u in p.graph().nodes() {
            for v in p.graph().nodes() {
                assert_eq!(
                    restored.closure().reaches(u, v),
                    p.closure().reaches(u, v),
                    "{u:?}->{v:?}"
                );
            }
        }
        // A restored graph is live: updates apply on top of it.
        let outcome = restored.apply(&[GraphUpdate::InsertEdge(NodeId(3), NodeId(0))]);
        assert!(outcome.prepared.closure().reaches(NodeId(3), NodeId(2)));
        assert_equivalent_to_fresh(&outcome.prepared);
    }

    #[test]
    fn snapshot_roundtrip_restores_chain_backend() {
        let p = chain_prepared(cyclic_graph());
        let bytes = p.save_snapshot();
        let restored = PreparedGraph::load_snapshot(bytes).expect("restore");
        assert_eq!(restored.stats().closure_backend, "chain");
        assert_eq!(restored.stats().closure_edges, p.stats().closure_edges);
        for u in p.graph().nodes() {
            for v in p.graph().nodes() {
                assert_eq!(
                    restored.closure().reaches(u, v),
                    p.closure().reaches(u, v),
                    "{u:?}->{v:?}"
                );
            }
        }
        // Updates on a restored chain graph keep the chain backend and
        // the incremental maintenance path (the back edge is a patched
        // SCC merge, not a rebuild).
        let outcome = restored.apply(&[GraphUpdate::InsertEdge(NodeId(3), NodeId(0))]);
        assert_eq!(outcome.stats.incremental, 1);
        assert_eq!(outcome.stats.backend_fallbacks, 0);
        assert_eq!(outcome.prepared.stats().closure_backend, "chain");
        assert!(outcome.prepared.closure().reaches(NodeId(3), NodeId(2)));
    }

    #[test]
    fn snapshot_roundtrip_restores_twohop_backend() {
        let p = PreparedGraph::with_backend(
            cyclic_graph(),
            ClosureBackend::TwoHop,
            DEFAULT_CHAIN_NODE_THRESHOLD,
        );
        let bytes = p.save_snapshot();
        let restored = PreparedGraph::load_snapshot(bytes).expect("restore");
        assert_eq!(restored.stats().closure_backend, "twohop");
        assert_eq!(restored.stats().closure_edges, p.stats().closure_edges);
        for u in p.graph().nodes() {
            for v in p.graph().nodes() {
                assert_eq!(
                    restored.closure().reaches(u, v),
                    p.closure().reaches(u, v),
                    "{u:?}->{v:?}"
                );
            }
        }
        // Updates on a restored 2-hop graph rebuild (recorded) and keep
        // the backend.
        let outcome = restored.apply(&[GraphUpdate::InsertEdge(NodeId(3), NodeId(0))]);
        assert_eq!(outcome.stats.backend_fallbacks, 1);
        assert_eq!(outcome.stats.fallback_unsupported, 1);
        assert_eq!(outcome.prepared.stats().closure_backend, "twohop");
        assert!(outcome.prepared.closure().reaches(NodeId(3), NodeId(2)));
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let p = PreparedGraph::new(cyclic_graph());
        let bytes = p.save_snapshot();
        assert!(matches!(
            PreparedGraph::load_snapshot(bytes.slice(0..bytes.len() - 5)),
            Err(ParseError::Corrupt(_))
        ));
        let mut garbled = bytes.to_vec();
        garbled[0] ^= 0xff;
        assert!(matches!(
            PreparedGraph::load_snapshot(Bytes::from(garbled)),
            Err(ParseError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_rejects_unknown_format_version() {
        let p = PreparedGraph::new(cyclic_graph());
        let bytes = p.save_snapshot();
        // Flip the version byte (offset 4, right after the magic).
        let mut wrong = bytes.to_vec();
        wrong[4] = 9;
        let err = PreparedGraph::load_snapshot(Bytes::from(wrong)).unwrap_err();
        let ParseError::Corrupt(msg) = err else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(msg.contains("version 9"), "actionable message: {msg}");
        // The unversioned PR-2 layout put the graph length where the
        // version byte now lives; its high byte is 0 for any realistic
        // graph, so legacy snapshots surface as "version 0" — rejected,
        // not misparsed.
        let mut legacy_like = bytes.to_vec();
        legacy_like[4] = 0;
        assert!(matches!(
            PreparedGraph::load_snapshot(Bytes::from(legacy_like)),
            Err(ParseError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_rejects_unknown_backend_tag() {
        let p = PreparedGraph::new(cyclic_graph());
        let mut wrong = p.save_snapshot().to_vec();
        wrong[5] = 7; // backend byte follows the version byte
        let err = PreparedGraph::load_snapshot(Bytes::from(wrong)).unwrap_err();
        assert!(matches!(err, ParseError::Corrupt(ref m) if m.contains("backend")));
    }
}
