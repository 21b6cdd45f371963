//! The product-graph construction behind Theorems 4.3 and 5.1.
//!
//! Algorithm `f` of the AFP-reduction from SPH to WIS builds an undirected
//! graph `G` on candidate pairs `[v, u]` (`mat(v, u) ≥ ξ`, `> 0`) where an edge
//! means *compatibility*:
//!
//! * (a) `v1 ≠ v2`;
//! * (b) a pattern self-loop on `v` demands a cycle through `u` in `G2+`
//!   (we enforce this per-vertex by dropping incompatible pairs);
//! * (c) if `(v1, v2) ∈ E1` then `(u1, u2) ∈ E2+` (and symmetrically for
//!   `(v2, v1)`).
//!
//! Cliques of `G` = valid p-hom mappings (Claim 2); independent sets of the
//! complement `Gc` = cliques of `G`, which is where the WIS algorithms come
//! in. For the 1-1 problems, pairs sharing the same data node are also made
//! adjacent in `Gc` (i.e. incompatible).

use crate::mapping::PHomMapping;
use phom_graph::{DiGraph, NodeId, ReachabilityIndex, TransitiveClosure};
use phom_sim::{NodeWeights, SimMatrix};
use phom_wis::UGraph;

/// The compatibility product graph of `(G1, G2, mat, ξ)`.
#[derive(Debug, Clone)]
pub struct ProductGraph {
    /// Product vertices: the candidate pairs `[v, u]`.
    pub vertices: Vec<(NodeId, NodeId)>,
    /// Compatibility edges (see module docs).
    pub graph: UGraph,
    /// `|V1|`, kept for mapping extraction.
    pub n1: usize,
}

impl ProductGraph {
    /// Builds the product graph (algorithm `f` of Theorem 5.1's proof).
    ///
    /// `injective` additionally marks pairs sharing a data node as
    /// incompatible (the SPH¹⁻¹ / CPH¹⁻¹ variant).
    pub fn build<L>(
        g1: &DiGraph<L>,
        g2: &DiGraph<L>,
        mat: &SimMatrix,
        xi: f64,
        injective: bool,
    ) -> Self {
        let closure = TransitiveClosure::new(g2);
        Self::build_with(g1, &closure, mat, xi, injective)
    }

    /// [`ProductGraph::build`] with a precomputed closure of `G2`.
    pub fn build_with<L>(
        g1: &DiGraph<L>,
        closure: &dyn ReachabilityIndex,
        mat: &SimMatrix,
        xi: f64,
        injective: bool,
    ) -> Self {
        // Vertex condition: threshold + self-loop compatibility (b).
        let mut vertices: Vec<(NodeId, NodeId)> = Vec::new();
        for v in g1.nodes() {
            for u in mat.candidates(v, xi) {
                if g1.has_self_loop(v) && !closure.reaches(u, u) {
                    continue;
                }
                vertices.push((v, u));
            }
        }

        let mut graph = UGraph::new(vertices.len());
        #[allow(clippy::needless_range_loop)]
        for i in 0..vertices.len() {
            let (v1, u1) = vertices[i];
            for j in (i + 1)..vertices.len() {
                let (v2, u2) = vertices[j];
                if v1 == v2 {
                    continue; // (a): one image per pattern node
                }
                if injective && u1 == u2 {
                    continue; // 1-1: distinct images
                }
                // (c) in both directions.
                if g1.has_edge(v1, v2) && !closure.reaches(u1, u2) {
                    continue;
                }
                if g1.has_edge(v2, v1) && !closure.reaches(u2, u1) {
                    continue;
                }
                graph.add_edge(i, j);
            }
        }

        Self {
            vertices,
            graph,
            n1: g1.node_count(),
        }
    }

    /// The complement `Gc` — the WIS instance of the reduction.
    pub fn complement(&self) -> UGraph {
        self.graph.complement()
    }

    /// Product-vertex weights `mat(v, u)` scaled by `w(v)` (step (3) of
    /// algorithm `f`); pass uniform weights for the CPH problems.
    pub fn vertex_weights(&self, mat: &SimMatrix, weights: &NodeWeights) -> Vec<f64> {
        self.vertices
            .iter()
            .map(|&(v, u)| weights.get(v) * mat.score(v, u))
            .collect()
    }

    /// Algorithm `g` of the reduction: converts a set of product vertices
    /// (a clique of `G` / independent set of `Gc`) into a p-hom mapping.
    ///
    /// # Panics
    /// Panics if the set assigns some pattern node twice (i.e. it was not
    /// actually a clique of the product graph).
    pub fn extract_mapping(&self, set: &[usize]) -> PHomMapping {
        PHomMapping::from_pairs(self.n1, set.iter().map(|&i| self.vertices[i]))
    }

    /// True when `set` (indices into `vertices`) is a clique of the product
    /// graph — i.e. a pairwise-compatible set of matches (Claim 2).
    pub fn is_compatible_set(&self, set: &[usize]) -> bool {
        self.graph.is_clique(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify_phom;
    use phom_graph::graph_from_labels;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn vertices_respect_threshold() {
        let g1 = graph_from_labels(&["a", "b"], &[]);
        let g2 = graph_from_labels(&["a", "b", "c"], &[]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let p = ProductGraph::build(&g1, &g2, &mat, 0.5, false);
        assert_eq!(p.vertices, vec![(n(0), n(0)), (n(1), n(1))]);
    }

    #[test]
    fn compatible_pairs_are_adjacent() {
        // G1: a -> b; G2: a -> x -> b. Pair (a,a) and (b,b) compatible.
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "x", "b"], &[("a", "x"), ("x", "b")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let p = ProductGraph::build(&g1, &g2, &mat, 0.5, false);
        assert_eq!(p.vertices.len(), 2);
        assert!(p.graph.has_edge(0, 1));
        assert!(p.is_compatible_set(&[0, 1]));
        let m = p.extract_mapping(&[0, 1]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn incompatible_pairs_not_adjacent() {
        // G2 reversed: no path a ~> b.
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b"], &[("b", "a")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let p = ProductGraph::build(&g1, &g2, &mat, 0.5, false);
        assert_eq!(p.vertices.len(), 2);
        assert!(!p.graph.has_edge(0, 1));
    }

    #[test]
    fn injective_mode_separates_shared_images() {
        // Two pattern nodes, one matching data node.
        let mut g1: DiGraph<String> = DiGraph::new();
        g1.add_node("B".into());
        g1.add_node("B".into());
        let g2 = graph_from_labels(&["B"], &[]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let free = ProductGraph::build(&g1, &g2, &mat, 0.5, false);
        assert!(free.graph.has_edge(0, 1), "p-hom allows sharing");
        let strict = ProductGraph::build(&g1, &g2, &mat, 0.5, true);
        assert!(!strict.graph.has_edge(0, 1), "1-1 forbids sharing");
    }

    #[test]
    fn self_loop_vertex_condition() {
        let mut g1: DiGraph<String> = DiGraph::new();
        let a = g1.add_node("n".into());
        g1.add_edge(a, a);
        // Data: plain node (dropped) and a 2-cycle (kept).
        let mut g2: DiGraph<String> = DiGraph::new();
        g2.add_node("n".into());
        let y = g2.add_node("n".into());
        let z = g2.add_node("n".into());
        g2.add_edge(y, z);
        g2.add_edge(z, y);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let p = ProductGraph::build(&g1, &g2, &mat, 0.5, false);
        assert_eq!(p.vertices, vec![(n(0), n(1)), (n(0), n(2))]);
    }

    #[test]
    fn weights_multiply_mat_by_node_weight() {
        let g1 = graph_from_labels(&["a"], &[]);
        let g2 = graph_from_labels(&["a"], &[]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let p = ProductGraph::build(&g1, &g2, &mat, 0.5, false);
        let w = NodeWeights::from_vec(vec![3.0]);
        assert_eq!(p.vertex_weights(&mat, &w), vec![3.0]);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_pair() -> impl Strategy<Value = (DiGraph<u8>, DiGraph<u8>)> {
            (
                1usize..5,
                proptest::collection::vec((0usize..5, 0usize..5), 0..8),
                1usize..6,
                proptest::collection::vec((0usize..6, 0usize..6), 0..10),
            )
                .prop_map(|(n1, e1, n2, e2)| {
                    let mut g1 = DiGraph::with_capacity(n1);
                    for i in 0..n1 {
                        g1.add_node((i % 3) as u8);
                    }
                    for (a, b) in e1 {
                        g1.add_edge(NodeId((a % n1) as u32), NodeId((b % n1) as u32));
                    }
                    let mut g2 = DiGraph::with_capacity(n2);
                    for i in 0..n2 {
                        g2.add_node((i % 3) as u8);
                    }
                    for (a, b) in e2 {
                        g2.add_edge(NodeId((a % n2) as u32), NodeId((b % n2) as u32));
                    }
                    (g1, g2)
                })
        }

        proptest! {
            /// Claim 2 of the paper, both directions, by exhaustive
            /// enumeration of product-vertex subsets on small instances.
            #[test]
            fn prop_claim2_cliques_are_exactly_valid_mappings((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let closure = TransitiveClosure::new(&g2);
                for injective in [false, true] {
                    let p = ProductGraph::build(&g1, &g2, &mat, 0.5, injective);
                    let k = p.vertices.len().min(12);
                    for mask in 0u32..(1 << k) {
                        let set: Vec<usize> =
                            (0..k).filter(|i| mask & (1 << i) != 0).collect();
                        // Sets assigning one pattern node twice are neither
                        // cliques nor mappings; skip building the mapping.
                        let mut vs: Vec<NodeId> =
                            set.iter().map(|&i| p.vertices[i].0).collect();
                        vs.sort_unstable();
                        vs.dedup();
                        if vs.len() != set.len() {
                            prop_assert!(!p.is_compatible_set(&set));
                            continue;
                        }
                        let m = p.extract_mapping(&set);
                        let valid =
                            verify_phom(&g1, &m, &mat, 0.5, &closure, injective).is_ok();
                        prop_assert_eq!(
                            p.is_compatible_set(&set),
                            valid,
                            "set {:?} injective={}", set, injective
                        );
                    }
                }
            }
        }
    }
}
