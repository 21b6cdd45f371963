//! The typed request/response envelope: every operation the service
//! performs is a [`Request`] value, every outcome a [`Response`] or a
//! [`crate::ServiceError`] — the engine/serving boundary as data instead
//! of a grab-bag of library calls.

use crate::stats::ServiceStats;
use bytes::Bytes;
use phom_core::PHomMapping;
use phom_dynamic::GraphUpdate;
use phom_engine::{Plan, PrepareStats, Query, QueryTrace, UpdateStats};
use phom_graph::DiGraph;
use phom_trace::json_escape;
use std::sync::Arc;

/// One operation against the service, addressed to a named graph where
/// applicable.
#[derive(Debug, Clone)]
pub enum Request<L> {
    /// Register `graph` under `name` (sharding it by weakly connected
    /// component when the sharding policy says so).
    RegisterGraph {
        /// Registry name (non-empty, unique).
        name: String,
        /// The data graph.
        graph: Arc<DiGraph<L>>,
    },
    /// Register a graph from a service snapshot (warm reachability
    /// indexes; `String` labels only).
    RestoreGraph {
        /// Registry name (non-empty, unique).
        name: String,
        /// Bytes from a prior `Snapshot` response.
        snapshot: Bytes,
    },
    /// Drop a registered graph (its prepared shards die with it).
    EvictGraph {
        /// The name to drop.
        name: String,
    },
    /// One pattern query against a registered graph. Subject to
    /// admission control.
    Query {
        /// Target graph name.
        graph: String,
        /// The query (pattern + similarity matrix over the **full**
        /// graph's nodes; the service routes and slices per shard).
        query: Query<L>,
        /// When true, the response carries a [`QueryTrace`] (spans +
        /// sampled counters) — the explain surface. The untraced path
        /// constructs nothing.
        trace: bool,
    },
    /// A batch of queries against one registered graph, executed across
    /// the engine's worker pool. Admitted all-or-nothing: the whole batch
    /// is shed when it does not fit the in-flight bound.
    QueryBatch {
        /// Target graph name.
        graph: String,
        /// The queries.
        queries: Vec<Query<L>>,
    },
    /// Apply a batch of edge updates (global node ids) to a registered
    /// graph, routed to the owning shards.
    ApplyUpdates {
        /// Target graph name.
        graph: String,
        /// The updates, in application order.
        updates: Vec<GraphUpdate>,
    },
    /// Serialize a registered graph (all shards, warm indexes) for
    /// restart-surviving restore (`String` labels only).
    Snapshot {
        /// Target graph name.
        graph: String,
    },
    /// Describe a registered graph (shard layout, index stats).
    GraphInfo {
        /// Target graph name.
        graph: String,
    },
    /// Snapshot the service counters.
    Stats,
}

/// The success payloads of [`Request`] variants. Responses carry global
/// node ids and plain stats — no label type — so one response enum
/// serves every registry.
#[derive(Debug, Clone)]
pub enum Response {
    /// `RegisterGraph` / `RestoreGraph` succeeded.
    Registered(GraphInfo),
    /// `EvictGraph` succeeded.
    Evicted {
        /// The evicted name.
        graph: String,
    },
    /// `Query` succeeded.
    Answer(QueryResponse),
    /// `QueryBatch` succeeded (responses in input order).
    Batch(Vec<QueryResponse>),
    /// `ApplyUpdates` succeeded.
    Updated(UpdateSummary),
    /// `Snapshot` succeeded.
    Snapshot(Bytes),
    /// `GraphInfo` succeeded.
    Info(GraphInfo),
    /// `Stats` succeeded.
    Stats(Box<ServiceStats>),
}

/// The answer to one `Query` request, in **global** node ids.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The merged mapping (pattern node → global data node).
    pub mapping: PHomMapping,
    /// `qualCard` of the mapping.
    pub qual_card: f64,
    /// `qualSim` of the mapping (w.r.t. the query's weights).
    pub qual_sim: f64,
    /// The plan the query was routed to (chosen once, globally; shards
    /// execute it verbatim).
    pub plan: Plan,
    /// Shards that held at least one candidate and were consulted.
    pub shards_consulted: usize,
    /// True when any consulted shard hit the query deadline (the mapping
    /// is best-so-far).
    pub timed_out: bool,
    /// Service latency: wall-clock microseconds spent routing and
    /// executing (queueing excluded — the gate sheds instead of queueing).
    pub micros: u128,
    /// Whether every consulted shard answered from prepared state alone
    /// (built no hop-bounded closure; see `QueryResult::cache_hit`). The
    /// cluster wire does not carry this flag: a response decoded from a
    /// frame reads it from its trace, and `false` without one.
    pub cache_hit: bool,
    /// The query's trace, present iff the request asked for one
    /// (`Request::Query { trace: true, .. }`).
    pub trace: Option<Box<QueryTrace>>,
}

/// The answer to one `ApplyUpdates` request.
#[derive(Debug, Clone)]
pub struct UpdateSummary {
    /// Maintenance accounting aggregated across the touched shards (or
    /// the rebuild, when resharded).
    pub stats: UpdateStats,
    /// True when the batch changed the component structure (cross-shard
    /// edge insert) or flipped the graph-wide compression decision, and
    /// the entry was re-split from scratch.
    pub resharded: bool,
    /// Shard count after the batch.
    pub shards: usize,
}

/// Shape and index statistics of one registered graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphInfo {
    /// Registry name.
    pub name: String,
    /// Node count of the full graph.
    pub nodes: usize,
    /// Edge count of the full graph.
    pub edges: usize,
    /// Shard count (1 = unsharded).
    pub shards: usize,
    /// Node count per shard.
    pub shard_nodes: Vec<usize>,
    /// Strongly connected components, summed across shards.
    pub scc_count: usize,
    /// Reachable pairs `|E+|`, summed across shards.
    pub closure_edges: usize,
    /// Reachability-index heap bytes, summed across shards.
    pub closure_memory_bytes: usize,
    /// Backend of the shards (`"dense"`, `"chain"`, `"twohop"`, or
    /// `"mixed"` when shards disagree).
    pub closure_backend: String,
    /// Compressed node count summed across shards, when any shard kept
    /// Appendix-B compression.
    pub compressed_nodes: Option<usize>,
    /// Preparation microseconds, summed across shards.
    pub prepare_micros: u128,
    /// The compression policy pinned onto the shards.
    pub compression: String,
}

impl GraphInfo {
    /// The graph's statistics in the engine's [`PrepareStats`] shape:
    /// the per-shard figures [`crate::ShardMap::info`] folds (a cluster
    /// router reads each worker's shard this way), and the `"prepare"`
    /// section of the CLI's `--stats-json`.
    pub fn prepare_stats(&self) -> PrepareStats {
        PrepareStats {
            nodes: self.nodes,
            edges: self.edges,
            scc_count: self.scc_count,
            closure_edges: self.closure_edges,
            closure_backend: self.closure_backend.clone(),
            closure_memory_bytes: self.closure_memory_bytes,
            compressed_nodes: self.compressed_nodes,
            prepare_micros: self.prepare_micros,
        }
    }

    /// Compact JSON rendering (field names match the struct).
    pub fn to_json(&self) -> String {
        let shard_nodes: Vec<String> = self.shard_nodes.iter().map(|n| n.to_string()).collect();
        format!(
            "{{\"name\":\"{}\",\"nodes\":{},\"edges\":{},\"shards\":{},\"shard_nodes\":[{}],\
             \"scc_count\":{},\"closure_edges\":{},\"closure_memory_bytes\":{},\
             \"closure_backend\":\"{}\",\"compressed_nodes\":{},\"prepare_micros\":{},\
             \"compression\":\"{}\"}}",
            json_escape(&self.name),
            self.nodes,
            self.edges,
            self.shards,
            shard_nodes.join(","),
            self.scc_count,
            self.closure_edges,
            self.closure_memory_bytes,
            self.closure_backend,
            match self.compressed_nodes {
                Some(c) => c.to_string(),
                None => "null".to_owned(),
            },
            self.prepare_micros,
            self.compression
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_info_json_escapes_the_name() {
        let info = GraphInfo {
            name: "g\"1\\x\n".into(),
            nodes: 1,
            edges: 0,
            shards: 1,
            shard_nodes: vec![1],
            scc_count: 1,
            closure_edges: 0,
            closure_memory_bytes: 8,
            closure_backend: "dense".into(),
            compressed_nodes: None,
            prepare_micros: 1,
            compression: "auto".into(),
        };
        let json = info.to_json();
        assert!(json.contains(r#""name":"g\"1\\x\n""#), "escaped: {json}");
    }
}
