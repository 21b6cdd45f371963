//! Symmetric matching (Remark of §3.2): (1-1) p-hom maps *edges* of `G1`
//! to *paths* of `G2`. To compare two graphs symmetrically — paths to
//! paths — compute the transitive closure `G1+` first and test
//! `G1+ ≼(e,p) G2`; for a two-way similarity verdict, test both directions.

use crate::mapping::PHomMapping;
use crate::optimize::{match_graphs, MatchOutcome, MatcherConfig};
use phom_graph::{DiGraph, TransitiveClosure};
use phom_sim::{NodeWeights, SimMatrix};

/// Matches `G1+` (paths of `G1`) against `G2` — the path-to-path variant.
pub fn match_paths<L: Clone + Send + Sync>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &MatcherConfig,
) -> MatchOutcome {
    let g1_closure_graph = TransitiveClosure::new(g1).to_graph(g1);
    match_graphs(&g1_closure_graph, g2, mat, weights, cfg)
}

/// Result of a two-way (mutual) match.
#[derive(Debug, Clone)]
pub struct MutualOutcome {
    /// `G1+ ≼ G2` direction.
    pub forward: MatchOutcome,
    /// `G2+ ≼ G1` direction (with the transposed similarity matrix).
    pub backward: MatchOutcome,
}

impl MutualOutcome {
    /// The smaller of the two qualities (a symmetric similarity score in
    /// `[0, 1]`); pick `qual_card` or `qual_sim` via `by_sim`.
    pub fn symmetric_quality(&self, by_sim: bool) -> f64 {
        if by_sim {
            self.forward.qual_sim.min(self.backward.qual_sim)
        } else {
            self.forward.qual_card.min(self.backward.qual_card)
        }
    }
}

/// Two-way matching: `G1+ ≼ G2` and `G2+ ≼ G1`. The backward direction
/// reuses `mat` transposed and takes its own weights for `G2`'s nodes.
pub fn match_mutual<L: Clone + Send + Sync>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights1: &NodeWeights,
    weights2: &NodeWeights,
    cfg: &MatcherConfig,
) -> MutualOutcome {
    let forward = match_paths(g1, g2, mat, weights1, cfg);
    let tmat = mat.transposed();
    let backward = match_paths(g2, g1, &tmat, weights2, cfg);
    MutualOutcome { forward, backward }
}

/// Convenience: is `mapping` total on the pattern? (Used when symmetric
/// matching is read as a yes/no "the sites mirror each other".)
pub fn is_total(mapping: &PHomMapping) -> bool {
    mapping.len() == mapping.pattern_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    #[test]
    fn path_variant_matches_transitive_pattern() {
        // G1 is a path a -> b -> c; in G1+ there is also a -> c. G2 provides
        // a -> b -> c, so a -> c maps to the 2-edge path: still matches.
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let g2 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w = NodeWeights::uniform(3);
        let out = match_paths(&g1, &g2, &mat, &w, &MatcherConfig::default());
        assert!((out.qual_card - 1.0).abs() < 1e-12);
        assert!(is_total(&out.mapping));
    }

    #[test]
    fn mutual_match_is_symmetric_for_isomorphic_graphs() {
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w1 = NodeWeights::uniform(2);
        let w2 = NodeWeights::uniform(2);
        let out = match_mutual(&g1, &g2, &mat, &w1, &w2, &MatcherConfig::default());
        assert!((out.symmetric_quality(false) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mutual_match_detects_asymmetry() {
        // G2 has an extra node G1 knows nothing about: forward is total,
        // backward is not.
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b", "extra"], &[("a", "b"), ("b", "extra")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w1 = NodeWeights::uniform(2);
        let w2 = NodeWeights::uniform(3);
        let out = match_mutual(&g1, &g2, &mat, &w1, &w2, &MatcherConfig::default());
        assert!((out.forward.qual_card - 1.0).abs() < 1e-12);
        assert!(out.backward.qual_card < 1.0);
        assert!(out.symmetric_quality(false) < 1.0);
    }
}
