//! # phom-sim
//!
//! Node-similarity substrate for the `p-hom` workspace (paper §3.1):
//!
//! * [`SimMatrix`] — the `mat()` similarity matrix with threshold-`ξ`
//!   candidate queries under one rule, [`candidate_floor`];
//! * [`SparseSim`] — a matrix's non-zero cells, one list per pattern row,
//!   for passes that read only those;
//! * [`shingle`] — w-shingling + Jaccard resemblance (Broder \[8\]), the
//!   paper's textual similarity for Web pages;
//! * [`tfidf`] — tf–idf cosine, an alternative textual `mat()` generator
//!   that discounts site-wide boilerplate;
//! * [`NodeWeights`] — the `w(v)` weights of the `qualSim` metric (uniform,
//!   degree-based, HITS-based, PageRank-based);
//! * [`hits`] — hubs & authorities (Kleinberg), for weights and skeleton
//!   node selection;
//! * [`mod@pagerank`] — damped PageRank, the other standard Web importance
//!   score, for weights and skeleton selection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hits;
pub mod matrix;
pub mod minhash;
pub mod pagerank;
pub mod shingle;
pub mod sparse;
pub mod tfidf;
pub mod weights;

pub use hits::{hits_scores, top_hits_nodes, HitsScores};
pub use matrix::{candidate_floor, matrix_from_label_fn, SimMatrix, SimMatrixBuilder};
pub use minhash::{minhash_matrix, MinHashSketch};
pub use pagerank::{pagerank, top_pagerank_nodes, PageRankConfig};
pub use shingle::{jaccard, shingle_similarity, shingles, text_similarity, tokenize};
pub use sparse::SparseSim;
pub use tfidf::{tfidf_matrix, TfIdfCorpus};
pub use weights::NodeWeights;
