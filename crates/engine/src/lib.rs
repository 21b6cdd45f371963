//! # phom-engine
//!
//! A **prepared-graph matching engine** for the p-homomorphism algorithms
//! of *Graph Homomorphism Revisited for Graph Matching* (Fan et al.,
//! VLDB 2010).
//!
//! Every algorithm in `phom-core` pays the same dominant preprocessing
//! cost — the transitive closure `G2+` (and, with Appendix B enabled, the
//! compressed graph `G2*` plus *its* closure) — yet a service matching
//! many patterns against the same data graph should pay it **once**, not
//! per query. This crate separates the two concerns, in the spirit of
//! factorized/prepared representations that a query engine then evaluates
//! many queries over:
//!
//! * [`PreparedGraph`] — computes and holds the full closure, SCC data,
//!   the Appendix-B compressed graph (when profitable), lazily memoized
//!   hop-bounded closures, and degree-based data-node weights, all
//!   behind `Arc` for zero-copy sharing across threads;
//! * [`planner`] — routes each [`Query`] to `exact` branch-and-bound,
//!   the greedy approximation (optionally with restarts), the
//!   bounded-stretch variant, or a best-candidate baseline, using the
//!   `phom_core::bounds::prefer_exact` cost model;
//! * [`Engine`] — [`Engine::prepare`] plus [`Engine::execute_batch`]: a
//!   work-stealing scoped thread pool that fans a batch of queries out
//!   in parallel against one prepared graph and reports [`EngineStats`]
//!   (closures computed, queries that built no bounded closure, plans
//!   chosen, achieved parallelism). The engine keeps counters only:
//!   the caller holds every prepared version.
//!
//! For **live graphs**, [`PreparedGraph::apply`] produces a new prepared
//! version under edge insertions/deletions via semi-dynamic closure
//! maintenance (the `phom-dynamic` crate) instead of re-preparing, with
//! copy-on-write versioning (one index rebuild instead for a batch past
//! 256 updates); [`Engine::apply_updates`] applies a batch to a prepared
//! version, counts the work, and journals it.
//! Prepared graphs also snapshot/restore ([`PreparedGraph::save_snapshot`])
//! so warm closures survive restarts.
//!
//! ## Quickstart
//!
//! ```
//! use phom_engine::{Engine, Query};
//! use phom_graph::graph_from_labels;
//! use phom_sim::SimMatrix;
//! use std::sync::Arc;
//!
//! let data = Arc::new(graph_from_labels(
//!     &["home", "cat", "item"],
//!     &[("home", "cat"), ("cat", "item")],
//! ));
//! let pattern = Arc::new(graph_from_labels(&["home", "item"], &[("home", "item")]));
//! let mat = SimMatrix::label_equality(&pattern, &data);
//!
//! let engine: Engine<String> = Engine::default();
//! let prepared = engine.prepare(&data);
//! let batch = engine.execute_batch(&prepared, &[Query::new(pattern, mat)]);
//! assert_eq!(batch.results[0].outcome.qual_card, 1.0);
//! // The whole batch shared one preparation:
//! assert_eq!(batch.stats.prepares, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod planner;
pub mod prepared;

pub use engine::{
    percentile_micros, BatchOutcome, Engine, EngineConfig, EngineConfigBuilder, EngineStats,
    QueryResult,
};
pub use planner::{
    plan_query, plan_query_with_count, ClosureBackend, CompressionPolicy, Plan, PlanKind,
    PlannerConfig, PlannerConfigBuilder, Query, QueryConfig, QueryConfigBuilder, ResolvedBackend,
    DEFAULT_CHAIN_NODE_THRESHOLD, DENSE_REACH_DENSITY_CUTOFF,
};
pub use prepared::{
    PrepareOptions, PrepareStats, PreparedGraph, ReachIndex, UpdateOutcome, UpdateStats,
};

// Re-exported so engine consumers can speak the update vocabulary
// without a direct `phom-dynamic` dependency.
pub use phom_dynamic::GraphUpdate;

// Re-exported so engine consumers can read [`QueryResult::trace`]
// without a direct `phom-trace` dependency.
pub use phom_trace::{QueryTrace, Span, SpanKind, TraceCounters};
