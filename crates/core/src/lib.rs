//! # phom-core
//!
//! The primary contribution of *Graph Homomorphism Revisited for Graph
//! Matching* (Fan, Li, Ma, Wang, Wu — PVLDB 3(1), 2010):
//! **p-homomorphism** and **1-1 p-homomorphism** matching, from decision
//! procedures to the paper's approximation algorithms.
//!
//! * [`mapping`] — p-hom mappings `σ`, the `qualCard` / `qualSim` metrics
//!   of §3.3, and the validity checker for the §3.2 conditions;
//! * [`matchlist`] — the matching list `H` (good/minus) of §5;
//! * [`algo`] — `compMaxCard`, `compMaxCard1-1`, `compMaxSim`,
//!   `compMaxSim1-1` (Figs. 3–4) with the `O(log²(n₁n₂)/(n₁n₂))` quality
//!   guarantee of Theorem 5.1;
//! * [`exact`] — exponential exact decision / optimization (test oracles;
//!   the problems are NP-complete, Theorem 4.1);
//! * [`product`] / [`naive`] — the product-graph AFP-reduction to weighted
//!   independent set and the naive algorithms built on it;
//! * [`reductions`] — the 3SAT and X3C hardness gadgets of Appendix A,
//!   executable;
//! * [`optimize`] — the Appendix B optimizations (partition `G1`, compress
//!   `G2+`) behind a single [`optimize::match_graphs`] entry point;
//! * [`symmetric`] — the path-to-path / two-way matching of §3.2's Remark;
//! * [`bounded`] — bounded-stretch p-hom (edges map to paths of length
//!   ≤ `k`, the fixed-length matching regime of Zou et al. \[32\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod bounded;
pub mod bounds;
pub mod budget;
pub mod embedding;
pub mod enumerate;
pub mod exact;
pub mod mapping;
pub mod matchlist;
pub mod naive;
pub mod optimize;
pub mod prefilter;
pub mod product;
pub mod reductions;
pub mod restarts;
pub mod sequence;
pub mod symmetric;
pub mod witness;

pub use algo::{
    comp_max_card, comp_max_card_1_1, comp_max_sim, comp_max_sim_1_1, AlgoConfig, Selection,
};
pub use bounded::{
    comp_max_card_1_1_bounded, comp_max_card_bounded, comp_max_sim_1_1_bounded,
    comp_max_sim_bounded, decide_phom_bounded, minimal_stretch, verify_phom_bounded, Stretch,
};
pub use bounds::{guarantee_factor, hardness_ceiling, prefer_exact};
pub use budget::MatchBudget;
pub use embedding::{check_schema_embedding, find_schema_embedding, EmbeddingViolation};
pub use enumerate::{enumerate_phom_mappings, enumerate_phom_mappings_with};
pub use exact::{
    decide_phom, decide_phom_with, exact_optimum, exact_optimum_budgeted, exact_optimum_with,
    Objective,
};
pub use mapping::{verify_phom, PHomMapping, Violation};
pub use naive::{naive_max_card, naive_max_sim};
pub use optimize::{
    compression_worthwhile, match_graphs, match_graphs_prepared, Algorithm, MatchOutcome,
    MatchStats, MatcherConfig, PreparedInputs,
};
pub use prefilter::{ac_prefilter, ac_prefilter_matrix, PrefilterStats};
pub use product::ProductGraph;
pub use restarts::{
    comp_max_card_restarts, comp_max_card_restarts_telemetry, comp_max_card_restarts_with,
    comp_max_sim_restarts, comp_max_sim_restarts_telemetry, comp_max_sim_restarts_with,
    RestartConfig, RestartTelemetry,
};
pub use sequence::{compose_mappings, ComposedMapping};
pub use symmetric::{match_mutual, match_paths, MutualOutcome};
pub use witness::{edge_witnesses, stretch_stats, EdgeWitness, StretchStats};
