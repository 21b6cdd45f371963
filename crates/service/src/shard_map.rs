//! [`ShardMap`]: how a registered graph splits into shards, and how
//! queries and updates cross that split.
//!
//! Both serving tiers hold one. The in-process
//! [`GraphEntry`](crate::GraphEntry) runs each shard on an engine-prepared
//! graph; the cluster router runs each shard on a worker process. They
//! pass the one step that differs — run a forced sub-query, or an update
//! batch, on one shard — in as a closure, so the split, the compression
//! pin, the query check, routing, the forced sub-query, the
//! per-component merge, update routing and the info fold exist once.
//!
//! ## Why WCC sharding is exact
//!
//! A p-hom witness path lives inside one weakly connected component of
//! the data graph, so a *connected* pattern component can only map into
//! one WCC (Proposition 1: pattern components are independent). Queries
//! therefore route to the shards that hold at least one candidate pair
//! and merge per pattern component. Two things make the sharded answer
//! **identical** to an unsharded run (property-tested in
//! `tests/service.rs` and in the cluster crate), not merely of equal
//! quality:
//!
//! 1. **Monotone ids** — shard node lists ascend in global id order
//!    ([`phom_graph::component_groups`]), so every smallest-id tie-break
//!    in the matching kernels picks the same node on a shard as on the
//!    full graph.
//! 2. **Pinned decisions** — the query is planned once against the full
//!    graph and the plan forced onto every shard, and the Appendix-B
//!    compression decision the *whole graph* would make is pinned onto
//!    every shard via [`CompressionPolicy`] (compressed and uncompressed
//!    runs are different greedy runs; letting each shard decide for
//!    itself would diverge from the unsharded answer).
//!
//! Randomized restarts (`restarts > 1`) perturb the similarity matrix
//! with an RNG stream over *all* data nodes, so their perturbations are
//! not shard-local; sharded answers match unsharded ones exactly for
//! deterministic plans (`restarts <= 1`, i.e. the paper's algorithm) and
//! remain valid best-of mappings otherwise.

use crate::envelope::{GraphInfo, QueryResponse, UpdateSummary};
use crate::error::ServiceError;
use crate::label::ServiceLabel;
use phom_core::PHomMapping;
use phom_dynamic::GraphUpdate;
use phom_engine::{
    plan_query_with, CompressionPolicy, PlannerConfig, PrepareStats, Query, QueryResult,
    UpdateStats,
};
use phom_graph::{
    component_groups, tarjan_scc, weakly_connected_components, DiGraph, NodeId, Violation,
};
use phom_sim::{NodeWeights, SimMatrix};
use phom_trace::{QueryTrace, SpanKind};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// When and how finely a registered graph is sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingConfig {
    /// Maximum shards per graph; `<= 1` disables sharding.
    pub max_shards: usize,
    /// Graphs with fewer nodes than this stay unsharded (tiny graphs pay
    /// routing overhead for no memory or isolation win).
    pub min_shard_nodes: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig {
            max_shards: 8,
            min_shard_nodes: 256,
        }
    }
}

impl ShardingConfig {
    /// A config that never shards (every graph is one shard).
    pub fn disabled() -> Self {
        ShardingConfig {
            max_shards: 1,
            min_shard_nodes: usize::MAX,
        }
    }
}

/// One graph's shard layout: the full graph, each shard's node list, the
/// global → (shard, local id) locator, and the compression policy every
/// shard is prepared under. Cloning is a few pointer copies: the node
/// lists and locator sit behind one `Arc` that every version a batch
/// commits in place shares, and the graph shares its unchanged adjacency
/// with earlier versions.
#[derive(Debug, Clone)]
pub struct ShardMap<L> {
    /// The full graph (current version).
    graph: Arc<DiGraph<L>>,
    /// The node lists and the locator.
    layout: Arc<Layout>,
    /// The (possibly pinned) compression policy of every shard.
    compression: CompressionPolicy,
}

/// The per-node part of a [`ShardMap`], fixed until the graph is split
/// again.
#[derive(Debug)]
struct Layout {
    /// `nodes[s][local]` is the global id of shard `s`'s node `local`;
    /// each list ascends.
    nodes: Vec<Vec<NodeId>>,
    /// `locator[global] = (shard, local id)`.
    locator: Vec<(u32, u32)>,
}

/// What one shard returns for its forced sub-query.
#[derive(Debug)]
pub struct ShardAnswer {
    /// The shard's mapping, in shard-local ids.
    pub mapping: PHomMapping,
    /// Whether the shard hit the query deadline.
    pub timed_out: bool,
    /// Whether the shard answered from prepared state alone (built no
    /// hop-bounded closure).
    pub cache_hit: bool,
    /// The shard's own trace, when one was asked for; its sampled
    /// counters fold into the query's trace.
    pub trace: Option<Box<QueryTrace>>,
    /// The span that records the shard's run in the query's trace.
    pub span: SpanKind,
}

/// An update batch routed onto a [`ShardMap`] by
/// [`ShardMap::route_updates`].
#[derive(Debug)]
pub struct RoutedUpdates<L> {
    /// The full graph after the batch.
    pub graph: Arc<DiGraph<L>>,
    /// Each shard's share of the batch in shard-local ids (empty for an
    /// untouched shard). `None` when an insert joins two shards: the
    /// components merge, and the graph must be split again.
    pub per_shard: Option<Vec<Vec<GraphUpdate>>>,
    /// The batch counted against the full graph.
    full: UpdateStats,
    /// When routing began (the batch's `apply_micros` origin).
    started: Instant,
}

impl<L: ServiceLabel> ShardMap<L> {
    /// Splits `graph` into [`component_groups`] per `sharding`. When the
    /// graph really splits under an `Auto` base policy, the compression
    /// decision the whole graph would make is pinned for every shard.
    /// Returns the map and each shard's graph: the induced subgraph on
    /// its node list, or the full graph itself when unsharded (no copy).
    pub fn split(
        graph: Arc<DiGraph<L>>,
        sharding: &ShardingConfig,
        base: CompressionPolicy,
    ) -> (Self, Vec<Arc<DiGraph<L>>>) {
        let n = graph.node_count();
        let groups = if sharding.max_shards > 1 && n >= sharding.min_shard_nodes {
            component_groups(&graph, sharding.max_shards)
        } else if n == 0 {
            Vec::new()
        } else {
            vec![graph.nodes().collect()]
        };
        let sharded = groups.len() > 1;
        let compression = if sharded && base == CompressionPolicy::Auto {
            CompressionPolicy::pinned(n, tarjan_scc(&*graph).count())
        } else {
            base
        };
        let mut locator = vec![(0u32, 0u32); n];
        let mut nodes = Vec::with_capacity(groups.len());
        let mut graphs = Vec::with_capacity(groups.len());
        for (si, group) in groups.into_iter().enumerate() {
            let (shard_graph, ids) = if sharded {
                let keep: BTreeSet<NodeId> = group.into_iter().collect();
                let (sub, ids) = graph.induced_subgraph(&keep);
                (Arc::new(sub), ids)
            } else {
                (Arc::clone(&graph), group)
            };
            for (local, &global) in ids.iter().enumerate() {
                locator[global.index()] = (si as u32, local as u32);
            }
            nodes.push(ids);
            graphs.push(shard_graph);
        }
        let map = ShardMap {
            graph,
            layout: Arc::new(Layout { nodes, locator }),
            compression,
        };
        (map, graphs)
    }

    /// Rebuilds a map from a snapshot of `n` nodes: the shards' node
    /// lists and the compression they were prepared under. A node out of
    /// range, in two shards or in no shard is a
    /// [`ServiceError::SnapshotCorrupt`], found before `load_shard` loads
    /// any shard's graph (so a list that ran into the bytes after it never
    /// reaches a graph decoder); so is a loaded shard graph whose size
    /// differs from its list. The full graph is reassembled from the
    /// shard graphs, which is sound because no edge crosses a shard.
    pub(crate) fn assemble(
        n: usize,
        nodes: Vec<Vec<NodeId>>,
        compression: CompressionPolicy,
        load_shard: impl FnMut(usize) -> Result<Arc<DiGraph<L>>, ServiceError>,
    ) -> Result<Self, ServiceError> {
        let corrupt = |msg: String| Err(ServiceError::SnapshotCorrupt(msg));
        let mut locator = vec![(u32::MAX, 0u32); n];
        for (si, list) in nodes.iter().enumerate() {
            for (local, &g) in list.iter().enumerate() {
                let Some(slot) = locator.get_mut(g.index()) else {
                    return corrupt(format!("node {} out of range {n}", g.0));
                };
                if slot.0 != u32::MAX {
                    return corrupt(format!("node {} assigned to two shards", g.0));
                }
                *slot = (si as u32, local as u32);
            }
        }
        if let Some(missing) = locator.iter().position(|&(s, _)| s == u32::MAX) {
            return corrupt(format!("node {missing} belongs to no shard"));
        }
        let shard_graphs = (0..nodes.len())
            .map(load_shard)
            .collect::<Result<Vec<_>, _>>()?;
        for (si, (list, shard_graph)) in nodes.iter().zip(&shard_graphs).enumerate() {
            if shard_graph.node_count() != list.len() {
                return corrupt(format!(
                    "shard {si}: {} prepared nodes, {} listed",
                    shard_graph.node_count(),
                    list.len()
                ));
            }
        }
        let graph = if let [only] = shard_graphs.as_slice() {
            Arc::clone(only)
        } else {
            let labels = locator
                .iter()
                .map(|&(si, local)| shard_graphs[si as usize].label(NodeId(local)).clone())
                .collect();
            let edges = nodes
                .iter()
                .zip(&shard_graphs)
                .flat_map(|(list, shard_graph)| {
                    shard_graph
                        .edges()
                        .map(|(a, b)| (list[a.index()], list[b.index()]))
                });
            Arc::new(DiGraph::from_edges(labels, edges))
        };
        Ok(ShardMap {
            graph,
            layout: Arc::new(Layout { nodes, locator }),
            compression,
        })
    }

    /// The full graph (current version).
    pub(crate) fn graph(&self) -> &Arc<DiGraph<L>> {
        &self.graph
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.layout.nodes.len()
    }

    /// Global ids of shard `shard`'s nodes, ascending; index `local`
    /// holds the global id of shard-local node `local`.
    pub fn shard_nodes(&self, shard: usize) -> &[NodeId] {
        &self.layout.nodes[shard]
    }

    /// The compression policy every shard is prepared under.
    pub(crate) fn compression(&self) -> CompressionPolicy {
        self.compression
    }

    /// Whether the split pinned the graph-wide compression decision: a
    /// sharded graph under an `Auto` base policy.
    fn pins(&self, base: CompressionPolicy) -> bool {
        self.layout.nodes.len() > 1 && base == CompressionPolicy::Auto
    }

    /// The compression override a shard prepared elsewhere (on a worker)
    /// must get: the pinned decision when the split pinned one, `None`
    /// to keep the base policy.
    pub fn pin(&self, base: CompressionPolicy) -> Option<CompressionPolicy> {
        self.pins(base).then_some(self.compression)
    }

    /// Commits a batch applied in place: the map takes the batch's full
    /// graph, and the layout stands because every edge stayed inside its
    /// shard.
    pub fn commit(&mut self, batch: &RoutedUpdates<L>) {
        self.graph = Arc::clone(&batch.graph);
    }

    /// Rejects a query whose similarity matrix does not span the pattern
    /// × this map's full graph, or whose weights do not cover the
    /// pattern. `name` names the graph in the message.
    pub fn check(&self, name: &str, query: &Query<L>) -> Result<(), ServiceError> {
        let n1 = query.pattern.node_count();
        if query.matrix.n1() != n1 {
            return Err(ServiceError::InvalidRequest(format!(
                "similarity matrix has {} pattern rows, pattern has {} nodes",
                query.matrix.n1(),
                n1
            )));
        }
        if query.matrix.n2() != self.graph.node_count() {
            return Err(ServiceError::InvalidRequest(format!(
                "similarity matrix has {} data columns, graph {:?} has {} nodes",
                query.matrix.n2(),
                name,
                self.graph.node_count()
            )));
        }
        match &query.weights {
            Some(w) if w.len() != n1 => Err(ServiceError::InvalidRequest(format!(
                "{} weights for {} pattern nodes",
                w.len(),
                n1
            ))),
            _ => Ok(()),
        }
    }

    /// Runs a checked `query` across the shards: plans it once against
    /// the full graph, routes it to the shards that hold a candidate
    /// pair, runs the forced plan on each through `run_shard`, and
    /// merges per pattern component.
    ///
    /// `run_shard(shard, sub_query, traced)` gets the sub-query over the
    /// shard's local ids (its matrix sliced to the shard's columns, plan
    /// and restarts forced, partitioning on, the remaining deadline as
    /// its timeout) and whether to trace it. Shards run in ascending
    /// order under one deadline; the first error aborts the query. With
    /// `trace`, the response carries `plan` / `route` / per-shard /
    /// `merge` spans; untraced calls construct no trace state.
    pub fn scatter_gather<E>(
        &self,
        query: &Query<L>,
        planner: &PlannerConfig,
        trace: bool,
        mut run_shard: impl FnMut(usize, Query<L>, bool) -> Result<ShardAnswer, E>,
    ) -> Result<QueryResponse, E> {
        // phom-lint: allow(clock, "monotonic elapsed-time stats for prepare/query/update timings; no wall-clock semantics")
        let started = Instant::now();
        let mut tr = trace.then(|| Box::new(QueryTrace::new()));
        let plan_open = tr.as_ref().map(|t| t.begin());
        let plan = plan_query_with(query, planner);
        if let (Some(t), Some(open)) = (tr.as_mut(), plan_open) {
            t.end(SpanKind::Plan, open);
        }
        // One deadline for the whole query, however many shards it
        // consults (each shard builds a fresh budget from the timeout it
        // is handed, so without this the deadline would restart per
        // shard and a k-shard query could run k × timeout).
        let deadline = query
            .config
            .timeout
            .or(planner.timeout)
            // phom-lint: allow(clock, "monotonic deadline for the per-request time budget; no wall-clock semantics")
            .map(|t| Instant::now() + t);
        let n1 = query.pattern.node_count();
        let xi = query.config.xi;
        // The plan (and its restart grant) was decided on the full
        // candidate set; shards execute it verbatim so the sharded run
        // answers exactly like the unsharded one. Pattern partitioning is
        // forced on: routing components to shards *is* the Appendix-B
        // partition, so a sharded graph always behaves like a
        // `partition = true` run (the unpartitioned greedy interleaves
        // its choices across components and cannot be reproduced from
        // per-shard runs; `QueryConfig::partition = false` stays honored
        // on unsharded graphs).
        let mut sub_config = query.config.clone();
        sub_config.force_plan = Some(plan.kind);
        sub_config.restarts = Some(plan.restarts);
        sub_config.partition = true;

        // Routing: which shards hold at least one candidate pair. The
        // scan reads only the immutable query matrix, so hoisting it out
        // of the match loop (as the `route` span) changes no answers.
        let route_open = tr.as_ref().map(|t| t.begin());
        let relevant: Vec<bool> = self
            .layout
            .nodes
            .iter()
            .map(|nodes| {
                nodes
                    .iter()
                    .any(|&g| (0..n1 as u32).any(|v| query.matrix.score(NodeId(v), g) >= xi))
            })
            .collect();
        if let (Some(t), Some(open)) = (tr.as_mut(), route_open) {
            t.end(SpanKind::Route, open);
        }

        let mut timed_out = false;
        let mut consulted = 0usize;
        let mut all_cache_hits = true;
        let mut backends: Vec<String> = Vec::new();
        // Each consulted shard's mapping, translated to global ids.
        let mut shard_maps: Vec<PHomMapping> = Vec::new();
        for (si, nodes) in self.layout.nodes.iter().enumerate() {
            if !relevant[si] {
                continue;
            }
            // Shards yet to run get only the *remaining* budget; once it
            // is gone, the merge proceeds with what the earlier shards
            // found (their components stay best-so-far, the skipped ones
            // stay unmapped — the same semantics as an in-kernel expiry).
            let mut remaining = None;
            if let Some(d) = deadline {
                // phom-lint: allow(clock, "monotonic deadline check for the per-request time budget; no wall-clock semantics")
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    timed_out = true;
                    break;
                }
                remaining = Some(left);
            }
            consulted += 1;
            let shard_open = tr.as_ref().map(|t| t.begin());
            let local_matrix = SimMatrix::from_fn(n1, nodes.len(), |v, lu| {
                query.matrix.score(v, nodes[lu.index()])
            });
            let mut sub = Query::new(Arc::clone(&query.pattern), local_matrix);
            sub.weights = query.weights.clone();
            sub.config = sub_config.clone();
            if remaining.is_some() {
                sub.config.timeout = remaining;
            }
            let answer = run_shard(si, sub, tr.is_some())?;
            timed_out |= answer.timed_out;
            all_cache_hits &= answer.cache_hit;
            shard_maps.push(PHomMapping::from_pairs(
                n1,
                answer.mapping.pairs().map(|(v, lu)| (v, nodes[lu.index()])),
            ));
            if let (Some(t), Some(open)) = (tr.as_mut(), shard_open) {
                t.end(answer.span, open);
                // Fold the shard's sampled counters into the query-level
                // trace (its per-shard trace is otherwise discarded).
                if let Some(st) = answer.trace {
                    t.counters.restarts_taken += st.counters.restarts_taken;
                    t.counters.budget_polls += st.counters.budget_polls;
                    t.counters.components += st.counters.components;
                    t.counters.parallel_components += st.counters.parallel_components;
                    t.counters.candidate_pairs += st.counters.candidate_pairs;
                    t.counters.extended_pairs += st.counters.extended_pairs;
                    if !backends.contains(&st.counters.closure_backend) {
                        backends.push(st.counters.closure_backend.clone());
                    }
                }
            }
        }

        let merge_open = tr.as_ref().map(|t| t.begin());
        let weights = query.effective_weights();
        let merged = merge_components(query, &weights, &shard_maps);
        let qual_card = merged.qual_card();
        let qual_sim = merged.qual_sim(&weights, &query.matrix);
        let cache_hit = consulted > 0 && all_cache_hits;
        if let Some(t) = tr.as_mut() {
            if let Some(open) = merge_open {
                t.end(SpanKind::Merge, open);
            }
            t.counters.plan = plan.kind.name().to_owned();
            t.counters.restarts_planned = plan.restarts;
            t.counters.shards_consulted = consulted;
            t.counters.timed_out = timed_out;
            t.counters.cache_hit = cache_hit;
            t.counters.closure_backend = match backends.len() {
                0 => "none".to_owned(),
                1 => backends.swap_remove(0),
                _ => "mixed".to_owned(),
            };
        }
        Ok(QueryResponse {
            mapping: merged,
            qual_card,
            qual_sim,
            plan,
            shards_consulted: consulted,
            timed_out,
            micros: started.elapsed().as_micros(),
            cache_hit,
            trace: tr,
        })
    }

    /// Routes an update batch: applies it to a new version of the full
    /// graph, counting applied, no-op and out-of-range (rejected) updates
    /// there, and gives each shard its share in shard-local ids. The new
    /// version shares every adjacency chunk the batch does not write with
    /// the current one (see [`DiGraph`]), so routing costs O(batch), not
    /// O(graph). An insert of a new edge between two shards merges their
    /// components, so no shard gets a batch then and the graph must be
    /// split again.
    pub fn route_updates(&self, updates: &[GraphUpdate]) -> RoutedUpdates<L> {
        // phom-lint: allow(clock, "monotonic elapsed-time stats for prepare/query/update timings; no wall-clock semantics")
        let started = Instant::now();
        let n = self.graph.node_count();
        let joins_shards = self.layout.nodes.len() > 1
            && updates.iter().any(|u| {
                let (a, b) = u.endpoints();
                u.in_range(n)
                    && matches!(u, GraphUpdate::InsertEdge(..))
                    && !self.graph.has_edge(a, b)
                    && self.layout.locator[a.index()].0 != self.layout.locator[b.index()].0
            });
        let mut full = (*self.graph).clone();
        let mut full_stats = UpdateStats::default();
        for &u in updates {
            if !u.in_range(n) {
                full_stats.rejected += 1;
            } else if u.apply_to(&mut full) {
                full_stats.applied += 1;
            } else {
                full_stats.noops += 1;
            }
        }
        // Cross-shard deletes target edges that cannot exist (shards are
        // unions of WCCs) and were counted as no-ops above.
        let per_shard = (!joins_shards).then(|| {
            let mut per_shard = vec![Vec::new(); self.layout.nodes.len()];
            for &u in updates {
                if !u.in_range(n) {
                    continue;
                }
                let (a, b) = u.endpoints();
                let (sa, la) = self.layout.locator[a.index()];
                let (sb, lb) = self.layout.locator[b.index()];
                if sa != sb {
                    continue;
                }
                per_shard[sa as usize].push(match u {
                    GraphUpdate::InsertEdge(..) => GraphUpdate::InsertEdge(NodeId(la), NodeId(lb)),
                    GraphUpdate::RemoveEdge(..) => GraphUpdate::RemoveEdge(NodeId(la), NodeId(lb)),
                });
            }
            per_shard
        });
        RoutedUpdates {
            graph: Arc::new(full),
            per_shard,
            full: full_stats,
            started,
        }
    }

    /// Whether a batch applied in place flipped the compression decision
    /// the split pinned. A pin must track the graph it was pinned for;
    /// `scc_sum` gives the shards' SCC count after the batch, which is
    /// the full graph's since no edge crosses a shard. It is called only
    /// when the map pins under `base` and the batch applied an update.
    pub fn pin_flipped<E>(
        &self,
        base: CompressionPolicy,
        stats: &UpdateStats,
        scc_sum: impl FnOnce() -> Result<usize, E>,
    ) -> Result<bool, E> {
        if !self.pins(base) || stats.applied == 0 {
            return Ok(false);
        }
        Ok(CompressionPolicy::pinned(self.graph.node_count(), scc_sum()?) != self.compression)
    }

    /// The graph's shape and index statistics under `name`: the shards'
    /// prepare statistics summed, their backends merged (`"mixed"` when
    /// shards disagree, `"none"` without shards).
    pub fn info<'a>(
        &self,
        name: &str,
        shard_stats: impl IntoIterator<Item = &'a PrepareStats>,
    ) -> GraphInfo {
        let mut info = GraphInfo {
            name: name.to_owned(),
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            shards: self.layout.nodes.len(),
            shard_nodes: self.layout.nodes.iter().map(Vec::len).collect(),
            scc_count: 0,
            closure_edges: 0,
            closure_memory_bytes: 0,
            closure_backend: String::new(),
            compressed_nodes: None,
            prepare_micros: 0,
            compression: self.compression.name().to_owned(),
        };
        let mut backends: Vec<&str> = Vec::new();
        for stats in shard_stats {
            info.scc_count += stats.scc_count;
            info.closure_edges += stats.closure_edges;
            info.closure_memory_bytes += stats.closure_memory_bytes;
            info.prepare_micros += stats.prepare_micros;
            if let Some(c) = stats.compressed_nodes {
                *info.compressed_nodes.get_or_insert(0) += c;
            }
            if !backends.contains(&stats.closure_backend.as_str()) {
                backends.push(&stats.closure_backend);
            }
        }
        info.closure_backend = match backends.as_slice() {
            [] => "none".to_owned(),
            [one] => (*one).to_owned(),
            _ => "mixed".to_owned(),
        };
        info
    }

    /// Structural invariants, cheap tier: the node lists partition the
    /// full graph's nodes, agree with the locator in both directions, and
    /// ascend in global id order (the monotone-ids condition above); and
    /// each of `shard_graphs` has as many nodes as its list.
    pub(crate) fn validate(&self, shard_graphs: &[&DiGraph<L>]) -> Result<(), Violation> {
        let n = self.graph.node_count();
        if self.layout.locator.len() != n || shard_graphs.len() != self.layout.nodes.len() {
            return Err(Violation::new(
                "registry-shape",
                format!(
                    "locator covers {} of {n} nodes; {} shard graphs for {} node lists",
                    self.layout.locator.len(),
                    shard_graphs.len(),
                    self.layout.nodes.len()
                ),
            ));
        }
        let mut covered = 0usize;
        for (si, (list, shard_graph)) in self.layout.nodes.iter().zip(shard_graphs).enumerate() {
            if shard_graph.node_count() != list.len() {
                return Err(Violation::new(
                    "registry-shape",
                    format!(
                        "shard {si}: {} listed nodes, graph has {}",
                        list.len(),
                        shard_graph.node_count()
                    ),
                ));
            }
            covered += list.len();
            let mut prev: Option<u32> = None;
            for (local, &g) in list.iter().enumerate() {
                if prev.is_some_and(|p| p >= g.0) {
                    return Err(Violation::new(
                        "registry-order",
                        format!("shard {si}: node list not strictly ascending at {}", g.0),
                    ));
                }
                prev = Some(g.0);
                if self.layout.locator.get(g.index()).copied() != Some((si as u32, local as u32)) {
                    return Err(Violation::new(
                        "registry-locator",
                        format!("node {} not located at shard {si} slot {local}", g.0),
                    ));
                }
            }
        }
        if covered != n {
            return Err(Violation::new(
                "registry-partition",
                format!("shards cover {covered} of {n} nodes"),
            ));
        }
        Ok(())
    }

    /// Deep tier of [`ShardMap::validate`]: each of `shard_graphs` is the
    /// full graph's induced subgraph on its node list (labels and edges),
    /// and together they hold every edge of the full graph.
    pub(crate) fn validate_induced(&self, shard_graphs: &[&DiGraph<L>]) -> Result<(), Violation> {
        self.validate(shard_graphs)?;
        for (si, (list, shard_graph)) in self.layout.nodes.iter().zip(shard_graphs).enumerate() {
            for (local, &global) in list.iter().enumerate() {
                if shard_graph.label(NodeId(local as u32)) != self.graph.label(global) {
                    return Err(Violation::new(
                        "registry-labels",
                        format!(
                            "shard {si}: node {} label disagrees with full graph",
                            global.0
                        ),
                    ));
                }
            }
            for (a, b) in shard_graph.edges() {
                if !self.graph.has_edge(list[a.index()], list[b.index()]) {
                    return Err(Violation::new(
                        "registry-edges",
                        format!("shard {si}: edge {a:?}->{b:?} missing from full graph"),
                    ));
                }
            }
        }
        let full_edges = self.graph.edge_count();
        let shard_edges: usize = shard_graphs.iter().map(|g| g.edge_count()).sum();
        if full_edges != shard_edges {
            return Err(Violation::new(
                "registry-edges",
                format!("shards hold {shard_edges} edges, full graph has {full_edges}"),
            ));
        }
        Ok(())
    }
}

impl<L> RoutedUpdates<L> {
    /// Folds the touched shards' maintenance stats into the batch's.
    /// Shard counters add up; `rejected` and `noops` come from the full
    /// graph, because out-of-range and cross-shard updates never reach a
    /// shard, and a shard sees exactly the no-ops the full graph does (an
    /// induced subgraph has the same edges).
    pub fn fold<'a>(&self, shard_stats: impl IntoIterator<Item = &'a UpdateStats>) -> UpdateStats {
        let mut stats = UpdateStats {
            rejected: self.full.rejected,
            ..Default::default()
        };
        for s in shard_stats {
            stats.absorb(s);
        }
        stats.noops = self.full.noops;
        stats
    }

    /// The summary of a batch applied in place, its shards' stats folded
    /// into `stats` by [`RoutedUpdates::fold`].
    pub fn applied(&self, mut stats: UpdateStats, shards: usize) -> UpdateSummary {
        stats.apply_micros = self.started.elapsed().as_micros();
        UpdateSummary {
            stats,
            resharded: false,
            shards,
        }
    }

    /// The summary of a batch after which the graph was split again, into
    /// `shards` shards: the full-graph counts plus one rebuild. Shard
    /// maintenance run before a pin flip is discarded; its engine
    /// counters stand, which slightly overcounts incremental work on that
    /// rare path.
    pub fn resharded(&self, shards: usize) -> UpdateSummary {
        let mut stats = self.full.clone();
        stats.rebuilds += 1;
        stats.apply_micros = self.started.elapsed().as_micros();
        UpdateSummary {
            stats,
            resharded: true,
            shards,
        }
    }
}

/// Proposition 1: pattern components are independent, so each takes its
/// best shard's assignment — by `qualCard` then `qualSim` (the reverse
/// for similarity algorithms), the first shard winning ties. A component
/// chosen from one shard run is internally consistent (same joint run),
/// and components from different shards have disjoint images, so the
/// merge preserves validity and injectivity.
fn merge_components<L>(
    query: &Query<L>,
    weights: &NodeWeights,
    shard_maps: &[PHomMapping],
) -> PHomMapping {
    let similarity = query.config.algorithm.similarity();
    let mut merged = PHomMapping::empty(query.pattern.node_count());
    for comp in weakly_connected_components(&*query.pattern) {
        let mut best: Option<(f64, f64, &PHomMapping)> = None;
        for map in shard_maps {
            let mut card = 0usize;
            let mut sim = 0.0f64;
            for &v in &comp {
                if let Some(u) = map.get(v) {
                    card += 1;
                    sim += weights.get(v) * query.matrix.score(v, u);
                }
            }
            if card == 0 {
                continue;
            }
            let (primary, secondary) = if similarity {
                (sim, card as f64)
            } else {
                (card as f64, sim)
            };
            let better = match best {
                None => true,
                Some((p, s, _)) => primary > p || (primary == p && secondary > s),
            };
            if better {
                best = Some((primary, secondary, map));
            }
        }
        if let Some((_, _, map)) = best {
            for &v in &comp {
                if let Some(u) = map.get(v) {
                    merged.set(v, u);
                }
            }
        }
    }
    merged
}

/// The response to a query that one shard answered whole (an unsharded
/// graph): the engine's result, with its one consulted shard counted in
/// the trace too.
pub(crate) fn single_shard_response(result: QueryResult) -> QueryResponse {
    let mut trace = result.trace;
    if let Some(t) = trace.as_deref_mut() {
        t.counters.shards_consulted = 1;
    }
    QueryResponse {
        mapping: result.outcome.mapping,
        qual_card: result.outcome.qual_card,
        qual_sim: result.outcome.qual_sim,
        plan: result.plan,
        shards_consulted: 1,
        timed_out: result.outcome.stats.timed_out,
        micros: result.micros,
        cache_hit: result.cache_hit,
        trace,
    }
}
