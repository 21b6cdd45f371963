//! # p-hom
//!
//! A faithful, production-quality Rust implementation of
//! **"Graph Homomorphism Revisited for Graph Matching"**
//! (Wenfei Fan, Jianzhong Li, Shuai Ma, Hongzhi Wang, Yinghui Wu —
//! PVLDB 3(1): 1161–1172, VLDB 2010).
//!
//! The paper relaxes graph homomorphism / subgraph isomorphism for graph
//! matching: **p-homomorphism** maps *edges to paths* and replaces label
//! equality with a *node-similarity matrix* plus threshold; **1-1 p-hom**
//! adds injectivity. Two metrics quantify partial matches — maximum
//! cardinality (`qualCard`) and maximum overall similarity (`qualSim`) —
//! and four NP-complete optimization problems (CPH, CPH¹⁻¹, SPH, SPH¹⁻¹)
//! get `O(log²(n₁n₂)/(n₁n₂))`-quality approximation algorithms.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`graph`] | digraph substrate: SCC, transitive closure, condensation, bitsets |
//! | [`wis`] | Ramsey / CliqueRemoval / weighted independent set (Boppana–Halldórsson) |
//! | [`sim`] | similarity matrices, shingles, MinHash, tf–idf, HITS, PageRank, node weights |
//! | [`core`] | p-hom & 1-1 p-hom: decision, `compMaxCard`/`compMaxSim` families, product-graph reductions, hardness gadgets, Appendix-B optimizations, bounded-stretch matching, restarts, enumeration, schema embedding |
//! | [`baselines`] | graph simulation, subgraph isomorphism, MCS, graph edit distance, similarity flooding, Blondel |
//! | [`workloads`] | §6 synthetic generator, Web-archive simulator, skeletons, PDG plagiarism, email campaigns |
//! | [`dynamic`] | semi-dynamic closure maintenance for live graphs: incremental inserts, bounded-cone deletes |
//! | [`engine`] | prepared-graph matching engine: query planner, parallel batch execution, closure caching, live updates |
//! | [`trace`] | per-query traces (typed spans + sampled counters), windowed metrics registry, slow-trace retention |
//! | [`service`] | request/response service layer: multi-graph registry with WCC sharding, admission control, typed errors |
//! | [`cluster`] | cross-process scale-out: versioned wire codec, TCP/channel transports, worker process mode, routing front-end with read replicas and failover |
//! | [`audit`] | correctness tooling: project lint pass (`phom lint`) and structural invariant validators over snapshots (`phom audit`) |
//!
//! ## Quickstart
//!
//! ```
//! use phom::prelude::*;
//!
//! // Pattern: an edge (books -> textbooks).
//! let g1 = graph_from_labels(&["books", "textbooks"], &[("books", "textbooks")]);
//! // Data: the same reachable through a category page.
//! let g2 = graph_from_labels(
//!     &["books", "categories", "school"],
//!     &[("books", "categories"), ("categories", "school")],
//! );
//! let mat = matrix_from_label_fn(&g1, &g2, |a, b| match (a, b) {
//!     ("books", "books") => 1.0,
//!     ("textbooks", "school") => 0.8,
//!     _ => 0.0,
//! });
//!
//! // Edge-to-edge notions fail, p-hom succeeds:
//! assert!(!is_subgraph_isomorphic(&g1, &g2));
//! let outcome = match_graphs(
//!     &g1, &g2, &mat,
//!     &NodeWeights::uniform(2),
//!     &MatcherConfig { xi: 0.75, ..Default::default() },
//! );
//! assert_eq!(outcome.qual_card, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use phom_audit as audit;
pub use phom_baselines as baselines;
pub use phom_cluster as cluster;
pub use phom_core as core;
pub use phom_dynamic as dynamic;
pub use phom_engine as engine;
pub use phom_graph as graph;
pub use phom_service as service;
pub use phom_sim as sim;
pub use phom_trace as trace;
pub use phom_wis as wis;
pub use phom_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use phom_audit::{audit_snapshot, lint_workspace, AuditError, AuditReport, LintReport};
    pub use phom_baselines::{
        blondel_similarity, extract_matching, feature_similarity, flooding_match_quality,
        graph_simulation, is_subgraph_isomorphic, maximum_common_subgraph, similarity_flooding,
        subgraph_isomorphism, FloodingConfig,
    };
    pub use phom_baselines::{ged_similarity, graph_edit_distance, EditResult};
    pub use phom_cluster::{
        ChannelHub, CodecError, FrameConfig, Router, RouterConfig, RouterError, RouterStats,
        TcpTransport, Transport, TransportTimeouts, WireMessage, WorkerOptions, WorkerServer,
    };
    pub use phom_core::{ac_prefilter_matrix, edge_witnesses, stretch_stats, StretchStats};
    pub use phom_core::{
        check_schema_embedding, comp_max_card_bounded, comp_max_card_restarts,
        comp_max_sim_restarts, decide_phom_bounded, enumerate_phom_mappings, find_schema_embedding,
        minimal_stretch, verify_phom_bounded, EmbeddingViolation, RestartConfig, Stretch,
    };
    pub use phom_core::{
        comp_max_card, comp_max_card_1_1, comp_max_sim, comp_max_sim_1_1, decide_phom,
        exact_optimum, exact_optimum_budgeted, match_graphs, match_graphs_prepared, match_mutual,
        match_paths, naive_max_card, naive_max_sim, verify_phom, AlgoConfig, Algorithm,
        MatchBudget, MatchOutcome, MatcherConfig, Objective, PHomMapping, PreparedInputs,
        ProductGraph, Selection,
    };
    pub use phom_dynamic::{GraphUpdate, SemiDynamicClosure, UpdateEffect};
    pub use phom_engine::{
        percentile_micros, BatchOutcome, ClosureBackend, CompressionPolicy, Engine, EngineConfig,
        EngineStats, PlanKind, PlannerConfig, PrepareOptions, PreparedGraph, Query, QueryConfig,
        QueryResult, ReachIndex, UpdateOutcome, UpdateStats, DEFAULT_CHAIN_NODE_THRESHOLD,
    };
    pub use phom_graph::{
        component_groups, compress_closure, graph_from_labels, tarjan_scc,
        weakly_connected_components, BitSet, ChainIndex, DiGraph, NodeId, ReachabilityIndex,
        TransitiveClosure,
    };
    pub use phom_service::{
        plan_name_of, GraphInfo, GraphRegistry, QueryResponse, Request, Response, Service,
        ServiceConfig, ServiceError, ServiceLabel, ServiceStats, ShardingConfig, UpdateSummary,
    };
    pub use phom_sim::{
        candidate_floor, hits_scores, matrix_from_label_fn, text_similarity, NodeWeights,
        SimMatrix, SimMatrixBuilder,
    };
    pub use phom_trace::{
        LatencyObjective, MetricsRegistry, QueryTrace, RateObjective, SloConfig, SlowTraceRing,
        Span, SpanKind, TraceCounters, TraceSink,
    };
    pub use phom_wis::{
        clique_removal, max_clique, max_independent_set, ramsey_all, weighted_independent_set,
        UGraph,
    };
    pub use phom_workloads::{
        email_matrix, generate_archive, generate_batch, generate_campaign, generate_instance,
        shingle_matrix, skeleton_alpha, skeleton_top_k, CampaignConfig, SiteCategory, SiteSpec,
        SyntheticConfig,
    };
}
