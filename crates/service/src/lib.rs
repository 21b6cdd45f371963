//! # phom-service
//!
//! The **service layer** over the `phom-engine` matching engine: a typed
//! request/response boundary in the spirit of the engine/serving splits
//! argued for in the factorized-database and database-systems-report
//! literature — named datasets behind a request surface, not raw library
//! calls.
//!
//! * [`Request`] / [`Response`] — the envelope: `RegisterGraph`,
//!   `Query`, `QueryBatch`, `ApplyUpdates`, `Snapshot`, `Stats`, … in;
//!   typed payloads or a [`ServiceError`] out (`NotFound`, `Overloaded`,
//!   `InvalidRequest`, `SnapshotVersion`, …) — errors as values
//!   replacing the old mix of panics, `Option`s, and strings. A query
//!   past its deadline is not an error: it answers best-so-far with
//!   `QueryResponse::timed_out` set.
//! * [`GraphRegistry`] — named graphs, each automatically **sharded by
//!   weakly connected component** ([`ShardingConfig`]) into per-shard
//!   `PreparedGraph`s; queries route to the shards that can contain a
//!   match (a connected pattern component never matches across WCCs) and
//!   merge per pattern component, answering **identically** to an
//!   unsharded run when each pattern component's candidates lie on one
//!   shard and the query asks for no restarts. Updates route to the owning
//!   shard; cross-shard edge inserts re-split the entry.
//! * [`ShardMap`] — that split and its routing rules, written once and
//!   shared by the registry and the cluster router, which pass in how
//!   one shard runs a sub-query or an update batch.
//! * **Admission control** — a bounded in-flight queue
//!   ([`ServiceConfig::queue_depth`]) that fast-rejects
//!   [`ServiceError::Overloaded`] instead of queueing unboundedly, with
//!   the shed count, per-plan latency histograms, and cache hit ratio in
//!   [`ServiceStats`].
//!
//! ## Quickstart
//!
//! ```
//! use phom_engine::Query;
//! use phom_graph::graph_from_labels;
//! use phom_service::{Request, Response, Service, ServiceConfig};
//! use phom_sim::SimMatrix;
//! use std::sync::Arc;
//!
//! let service: Service<String> = Service::new(
//!     ServiceConfig::builder().queue_depth(64).build(),
//! );
//! let data = Arc::new(graph_from_labels(
//!     &["home", "cat", "item"],
//!     &[("home", "cat"), ("cat", "item")],
//! ));
//! service
//!     .handle(Request::RegisterGraph { name: "site".into(), graph: data.clone() })
//!     .unwrap();
//! let pattern = Arc::new(graph_from_labels(&["home", "item"], &[("home", "item")]));
//! let mat = SimMatrix::label_equality(&pattern, &data);
//! let Response::Answer(answer) = service
//!     .handle(Request::Query {
//!         graph: "site".into(),
//!         query: Query::new(pattern, mat),
//!         trace: false,
//!     })
//!     .unwrap()
//! else {
//!     unreachable!()
//! };
//! assert_eq!(answer.qual_card, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
pub mod error;
pub mod label;
pub mod registry;
pub mod service;
pub mod shard_map;
pub mod stats;

pub use envelope::{GraphInfo, QueryResponse, Request, Response, UpdateSummary};
pub use error::ServiceError;
pub use label::ServiceLabel;
pub use registry::{GraphEntry, GraphRegistry};
pub use service::{latency_key, plan_name_of, Service, ServiceConfig, ServiceConfigBuilder};
pub use shard_map::{RoutedUpdates, ShardAnswer, ShardMap, ShardingConfig};
pub use stats::{LatencyHistogram, PlanHistograms, ServiceStats};

// Re-exported so service consumers can speak the trace/metrics
// vocabulary without a direct `phom-trace` dependency.
pub use phom_trace::{
    EventJournal, EventKind, FlightRecord, FlightRecorder, LatencyObjective, MetricsRegistry,
    QueryTrace, RateObjective, Severity, SloConfig, SloStatus, SlowTraceRing, Span, SpanKind,
    TraceCounters, TraceSink, FLIGHT_DEFAULT_CAPACITY,
};
