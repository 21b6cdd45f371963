//! P-hom mappings `σ` and the two quality metrics of §3.3:
//! maximum cardinality `qualCard` and overall similarity `qualSim`.

use phom_graph::{DiGraph, NodeId, ReachabilityIndex};
use phom_sim::{candidate_floor, NodeWeights, SimMatrix};

/// A (partial) mapping `σ` from nodes of the pattern `G1` to nodes of the
/// data graph `G2`. `assign[v] = Some(u)` means `σ(v) = u`; unassigned
/// pattern nodes are outside the mapped subgraph `G1'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PHomMapping {
    assign: Vec<Option<NodeId>>,
}

impl PHomMapping {
    /// The empty mapping over `n1` pattern nodes.
    pub fn empty(n1: usize) -> Self {
        Self {
            assign: vec![None; n1],
        }
    }

    /// Builds a mapping from `(v, u)` pairs over `n1` pattern nodes.
    ///
    /// # Panics
    /// Panics if a pattern node is assigned twice.
    pub fn from_pairs(n1: usize, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut m = Self::empty(n1);
        for (v, u) in pairs {
            m.set(v, u);
        }
        m
    }

    /// Number of pattern nodes (`|V1|`, the `qualCard` denominator).
    pub fn pattern_size(&self) -> usize {
        self.assign.len()
    }

    /// Number of mapped pattern nodes (`|V1'|`).
    pub fn len(&self) -> usize {
        self.assign.iter().filter(|a| a.is_some()).count()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.assign.iter().all(|a| a.is_none())
    }

    /// `σ(v)`, if `v` is in the mapped subgraph.
    #[inline]
    pub fn get(&self, v: NodeId) -> Option<NodeId> {
        self.assign[v.index()]
    }

    /// Sets `σ(v) = u`.
    ///
    /// # Panics
    /// Panics if `v` is already assigned (mappings are built once).
    pub fn set(&mut self, v: NodeId, u: NodeId) {
        let slot = &mut self.assign[v.index()];
        assert!(slot.is_none(), "pattern node {v:?} assigned twice");
        *slot = Some(u);
    }

    /// Iterates over `(v, σ(v))` pairs in pattern-node order.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.assign
            .iter()
            .enumerate()
            .filter_map(|(v, a)| a.map(|u| (NodeId(v as u32), u)))
    }

    /// The mapped pattern nodes `V1'`.
    pub fn domain(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pairs().map(|(v, _)| v)
    }

    /// True when no two pattern nodes share an image (1-1 / injective).
    pub fn is_injective(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.len());
        self.pairs().all(|(_, u)| seen.insert(u))
    }

    /// `qualCard(σ) = |V1'| / |V1|` (§3.3). Zero for an empty pattern.
    pub fn qual_card(&self) -> f64 {
        if self.assign.is_empty() {
            0.0
        } else {
            self.len() as f64 / self.assign.len() as f64
        }
    }

    /// `qualSim(σ) = Σ_{v∈V1'} w(v)·mat(v, σ(v)) / Σ_{v∈V1} w(v)` (§3.3).
    ///
    /// # Panics
    /// Panics if `weights` does not cover the pattern.
    pub fn qual_sim(&self, weights: &NodeWeights, mat: &SimMatrix) -> f64 {
        assert_eq!(weights.len(), self.assign.len(), "weights must cover V1");
        let denom = weights.total();
        if denom == 0.0 {
            return 0.0;
        }
        let num: f64 = self
            .pairs()
            .map(|(v, u)| weights.get(v) * mat.score(v, u))
            .sum();
        num / denom
    }
}

/// A reason why a candidate mapping is *not* a valid (1-1) p-hom mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// `mat(v, σ(v))` is below `ξ` or not above 0.
    SimilarityBelowThreshold {
        /// Pattern node.
        v: NodeId,
        /// Its image.
        u: NodeId,
        /// The offending similarity value.
        score: f64,
    },
    /// Edge `(v, v')` of the mapped subgraph has no witness path
    /// `σ(v) ⇝ σ(v')` in `G2`.
    MissingPath {
        /// Edge source in the pattern.
        v: NodeId,
        /// Edge target in the pattern.
        v2: NodeId,
    },
    /// Two pattern nodes share an image (only checked in 1-1 mode).
    NotInjective {
        /// First pattern node.
        v1: NodeId,
        /// Second pattern node.
        v2: NodeId,
        /// The shared image.
        u: NodeId,
    },
}

/// Checks the p-hom conditions of §3.2 for `σ` restricted to its domain:
/// (1) `(v, σ(v))` is a candidate at `ξ` ([`candidate_floor`]) for every
/// mapped `v`; (2) every edge `(v, v')`
/// of `G1` with both ends mapped has a nonempty path
/// `σ(v) ⇝ σ(v')` in `G2`; and, when `injective`, (3) σ is 1-1.
///
/// `closure` must be a reachability index over `G2` (any
/// [`ReachabilityIndex`] backend — dense closure or chain index).
pub fn verify_phom<L>(
    g1: &DiGraph<L>,
    mapping: &PHomMapping,
    mat: &SimMatrix,
    xi: f64,
    closure: &dyn ReachabilityIndex,
    injective: bool,
) -> Result<(), Violation> {
    let floor = candidate_floor(xi);
    for (v, u) in mapping.pairs() {
        let score = mat.score(v, u);
        if score < floor {
            return Err(Violation::SimilarityBelowThreshold { v, u, score });
        }
    }
    for (v, u) in mapping.pairs() {
        for &v2 in g1.post(v) {
            if let Some(u2) = mapping.get(v2) {
                if !closure.reaches(u, u2) {
                    return Err(Violation::MissingPath { v, v2 });
                }
            }
        }
    }
    if injective {
        let mut owner: std::collections::HashMap<NodeId, NodeId> = std::collections::HashMap::new();
        for (v, u) in mapping.pairs() {
            if let Some(&v1) = owner.get(&u) {
                return Err(Violation::NotInjective { v1, v2: v, u });
            }
            owner.insert(u, v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::{graph_from_labels, TransitiveClosure};
    use phom_sim::SimMatrixBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_mapping_metrics() {
        let m = PHomMapping::empty(4);
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert_eq!(m.qual_card(), 0.0);
        assert!(m.is_injective());
    }

    #[test]
    fn qual_card_is_fraction_of_mapped_nodes() {
        let m =
            PHomMapping::from_pairs(5, [(n(0), n(0)), (n(1), n(3)), (n(2), n(1)), (n(4), n(2))]);
        assert_eq!(m.len(), 4);
        assert!(
            (m.qual_card() - 0.8).abs() < 1e-12,
            "Example 3.3(1): 4/5 = 0.8"
        );
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_assignment_rejected() {
        let mut m = PHomMapping::empty(2);
        m.set(n(0), n(1));
        m.set(n(0), n(0));
    }

    #[test]
    fn injectivity_detected() {
        let m = PHomMapping::from_pairs(3, [(n(0), n(1)), (n(1), n(1))]);
        assert!(!m.is_injective());
        let m2 = PHomMapping::from_pairs(3, [(n(0), n(1)), (n(1), n(2))]);
        assert!(m2.is_injective());
    }

    #[test]
    fn example_3_3_qual_sim() {
        // G5 nodes: A=0, v1=1 (B), v2=2 (B), D=3, E=4; G6 nodes: A=0, B=1, D=2, E=3.
        // Weights: 1 everywhere except w(v2) = 6.
        let weights = NodeWeights::from_vec(vec![1.0, 1.0, 6.0, 1.0, 1.0]);
        let mat = SimMatrixBuilder::new()
            .pair(n(0), n(0), 1.0) // A ~ A
            .pair(n(3), n(2), 1.0) // D ~ D
            .pair(n(4), n(3), 1.0) // E ~ E
            .pair(n(2), n(1), 1.0) // v2 ~ B
            .pair(n(1), n(1), 0.6) // v1 ~ B
            .build(5, 4);

        // σs maps A and v2 only: qualSim = (1*1 + 6*1) / 10 = 0.7.
        let sigma_s = PHomMapping::from_pairs(5, [(n(0), n(0)), (n(2), n(1))]);
        assert!((sigma_s.qual_sim(&weights, &mat) - 0.7).abs() < 1e-12);

        // σc maps A, v1, D, E: qualSim = (1 + 0.6 + 1 + 1) / 10 = 0.36.
        let sigma_c =
            PHomMapping::from_pairs(5, [(n(0), n(0)), (n(1), n(1)), (n(3), n(2)), (n(4), n(3))]);
        assert!((sigma_c.qual_sim(&weights, &mat) - 0.36).abs() < 1e-12);
        // σc maps more nodes but σs has higher overall similarity.
        assert!(sigma_c.qual_card() > sigma_s.qual_card());
        assert!(sigma_s.qual_sim(&weights, &mat) > sigma_c.qual_sim(&weights, &mat));
    }

    #[test]
    fn verify_accepts_edge_to_path() {
        // G1: a -> b. G2: a -> mid -> b (edge maps to a 2-edge path).
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "mid", "b"], &[("a", "mid"), ("mid", "b")]);
        let mat = SimMatrixBuilder::new()
            .pair(n(0), n(0), 1.0)
            .pair(n(1), n(2), 1.0)
            .build(2, 3);
        let closure = TransitiveClosure::new(&g2);
        let m = PHomMapping::from_pairs(2, [(n(0), n(0)), (n(1), n(2))]);
        assert_eq!(verify_phom(&g1, &m, &mat, 0.5, &closure, true), Ok(()));
    }

    #[test]
    fn verify_rejects_missing_path() {
        // G1: a -> b. G2: b -> a (wrong direction).
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b"], &[("b", "a")]);
        let mat = SimMatrixBuilder::new()
            .pair(n(0), n(0), 1.0)
            .pair(n(1), n(1), 1.0)
            .build(2, 2);
        let closure = TransitiveClosure::new(&g2);
        let m = PHomMapping::from_pairs(2, [(n(0), n(0)), (n(1), n(1))]);
        assert_eq!(
            verify_phom(&g1, &m, &mat, 0.5, &closure, false),
            Err(Violation::MissingPath { v: n(0), v2: n(1) })
        );
    }

    #[test]
    fn verify_rejects_low_similarity() {
        let g1 = graph_from_labels(&["a"], &[]);
        let g2 = graph_from_labels(&["a"], &[]);
        let mat = SimMatrixBuilder::new().pair(n(0), n(0), 0.4).build(1, 1);
        let closure = TransitiveClosure::new(&g2);
        let m = PHomMapping::from_pairs(1, [(n(0), n(0))]);
        assert!(matches!(
            verify_phom(&g1, &m, &mat, 0.5, &closure, false),
            Err(Violation::SimilarityBelowThreshold { .. })
        ));
    }

    #[test]
    fn verify_rejects_non_injective_in_one_one_mode() {
        let g1 = graph_from_labels(&["a", "b"], &[]);
        let g2 = graph_from_labels(&["x"], &[]);
        let mat = SimMatrixBuilder::new()
            .pair(n(0), n(0), 1.0)
            .pair(n(1), n(0), 1.0)
            .build(2, 1);
        let closure = TransitiveClosure::new(&g2);
        let m = PHomMapping::from_pairs(2, [(n(0), n(0)), (n(1), n(0))]);
        assert_eq!(verify_phom(&g1, &m, &mat, 0.5, &closure, false), Ok(()));
        assert!(matches!(
            verify_phom(&g1, &m, &mat, 0.5, &closure, true),
            Err(Violation::NotInjective { .. })
        ));
    }

    #[test]
    fn unmapped_edge_endpoints_are_ignored() {
        // Edge (a, b) with only a mapped: no path obligation.
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a"], &[]);
        let mat = SimMatrixBuilder::new().pair(n(0), n(0), 1.0).build(2, 1);
        let closure = TransitiveClosure::new(&g2);
        let m = PHomMapping::from_pairs(2, [(n(0), n(0))]);
        assert_eq!(verify_phom(&g1, &m, &mat, 0.5, &closure, true), Ok(()));
    }
}
