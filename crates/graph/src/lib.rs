//! # phom-graph
//!
//! Directed, node-labeled graph substrate for the `p-hom` workspace — the
//! graph model of *Graph Homomorphism Revisited for Graph Matching*
//! (Fan et al., VLDB 2010), §3.1, together with the graph algorithms the
//! matching algorithms lean on:
//!
//! * [`DiGraph`]: adjacency-list digraph with labels and reverse edges;
//! * [`BitSet`]: fixed-capacity bitset (reachability rows, candidate sets);
//! * [`tarjan_scc`]: strongly connected components (iterative Tarjan);
//! * [`ReachabilityIndex`]: the pluggable reachability-backend trait the
//!   matching kernels consume (`reaches`, successor enumeration, memory
//!   accounting);
//! * [`TransitiveClosure`] (alias [`DenseClosure`]): the dense proper
//!   closure `G+` (Nuutila-style via SCC condensation), i.e. the `H2`
//!   adjacency matrix of algorithm `compMaxCard`;
//! * [`ChainIndex`]: the compressed chain-decomposition backend
//!   (`O(n·w)` words instead of `O(n²)` bits);
//! * [`TwoHopIndex`]: the pruned-landmark 2-hop-labeling backend for
//!   dense-reach shapes (probe = label intersection, hub masks for the
//!   top 64 landmarks);
//! * structural invariant validators on every backend
//!   (`validate()` / `validate_against()`, see [`validate`]) — the
//!   machine-checkable form of the invariants above, used by the
//!   `phom-audit` crate and the snapshot-restore gate;
//! * [`compress_closure`]: the `G2*` compression of Appendix B (member
//!   lists plus the closure of `G2*`, as [`CompressedClosure`]);
//! * [`weakly_connected_components`]: the `G1` partitioning of Appendix B;
//! * traversal helpers, DOT export, and text/binary serialization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod closure;
pub mod components;
pub mod condense;
pub mod digraph;
pub mod dot;
pub mod generators;
pub mod metrics;
pub mod reach;
pub mod scc;
pub mod serialize;
pub mod traversal;
pub mod validate;

pub use bitset::BitSet;
pub use closure::{DenseClosure, DynamicClosure, TransitiveClosure, UpdateEffect};
pub use components::{component_groups, is_weakly_connected, weakly_connected_components};
pub use condense::{compress_closure, compress_closure_with, condensation, CompressedClosure};
pub use digraph::{graph_from_labels, DiGraph, NodeId};
pub use dot::{from_dot, to_dot, DotParseError};
pub use generators::{
    cycle, gnm_random, grid, path, preferential_attachment, random_dag, XorShift64,
};
pub use metrics::{degree_histogram, graph_metrics, top_degree_nodes, GraphMetrics};
pub use reach::{
    reach_density_sample, ChainIndex, ChainIndexParts, ReachabilityIndex, TwoHopIndex,
    TwoHopIndexParts,
};
pub use scc::{tarjan_scc, SccResult};
pub use validate::{proper_reach_set, sample_indices, Violation};
