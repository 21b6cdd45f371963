//! Graph simulation (Henzinger, Henzinger, Kopke \[17\]) — the first
//! baseline of §6. A simulation requires *edge-to-edge* preservation: `R ⊆
//! V1 × V2` such that `(v, u) ∈ R` implies node compatibility and for every
//! edge `(v, v')` of `G1` some edge `(u, u')` of `G2` with `(v', u') ∈ R`.
//!
//! `G1` is simulated by `G2` when the (unique) maximal simulation contains
//! an image for every node of `G1` — the whole-graph matching the paper
//! found "too restrictive" on noisy Web sites.

use phom_graph::{BitSet, DiGraph, NodeId};
use phom_sim::SimMatrix;

/// The maximal simulation relation, as one candidate set per pattern node.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// `sim[v]` = data nodes that simulate pattern node `v`.
    pub sim: Vec<BitSet>,
}

impl SimulationResult {
    /// True when every pattern node has at least one simulator — the
    /// "G1 matches G2 by simulation" criterion of §6.
    pub fn simulates(&self) -> bool {
        self.sim.iter().all(|s| !s.is_zero())
    }

    /// Fraction of pattern nodes with a nonempty simulator set (an
    /// accuracy-style score aligned with `qualCard`).
    pub fn coverage(&self) -> f64 {
        if self.sim.is_empty() {
            return 0.0;
        }
        self.sim.iter().filter(|s| !s.is_zero()).count() as f64 / self.sim.len() as f64
    }

    /// Simulator set of `v`.
    pub fn simulators(&self, v: NodeId) -> &BitSet {
        &self.sim[v.index()]
    }
}

/// Computes the maximal simulation of `g1` by `g2` with node compatibility
/// candidacy at `xi` (use a label-equality matrix for the classical
/// notion). Worklist fixpoint, `O(|V1||V2|(|E1| + |E2|))` worst case.
///
/// ```
/// use phom_baselines::graph_simulation;
/// use phom_graph::graph_from_labels;
/// use phom_sim::SimMatrix;
///
/// // Edge (a, b) simulated directly; a 2-hop rewrite breaks simulation.
/// let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
/// let direct = graph_from_labels(&["a", "b"], &[("a", "b")]);
/// let rewired = graph_from_labels(&["a", "m", "b"], &[("a", "m"), ("m", "b")]);
/// let s1 = graph_simulation(&g1, &direct, &SimMatrix::label_equality(&g1, &direct), 1.0);
/// let s2 = graph_simulation(&g1, &rewired, &SimMatrix::label_equality(&g1, &rewired), 1.0);
/// assert!(s1.simulates());
/// assert!(!s2.simulates()); // simulation is edge-to-edge only
/// ```
pub fn graph_simulation<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
) -> SimulationResult {
    let n1 = g1.node_count();
    let n2 = g2.node_count();

    // Initial candidates: node-compatible pairs.
    let mut sim: Vec<BitSet> = (0..n1)
        .map(|v| {
            let mut s = BitSet::new(n2);
            for u in mat.candidates(NodeId(v as u32), xi) {
                s.insert(u.index());
            }
            s
        })
        .collect();

    // Fixpoint: drop u from sim[v] if some child v' of v has no successor
    // of u in sim[v'].
    let mut changed = true;
    while changed {
        changed = false;
        for v in g1.nodes() {
            let children = g1.post(v);
            if children.is_empty() {
                continue;
            }
            let mut to_remove: Vec<usize> = Vec::new();
            for u in sim[v.index()].iter() {
                let u = NodeId(u as u32);
                let ok = children.iter().all(|&vc| {
                    g2.post(u)
                        .iter()
                        .any(|uc| sim[vc.index()].contains(uc.index()))
                });
                if !ok {
                    to_remove.push(u.index());
                }
            }
            if !to_remove.is_empty() {
                changed = true;
                for u in to_remove {
                    sim[v.index()].remove(u);
                }
            }
        }
    }

    SimulationResult { sim }
}

/// Classical label-equality simulation.
pub fn simulates_by_label<L: PartialEq>(g1: &DiGraph<L>, g2: &DiGraph<L>) -> bool {
    let mat = SimMatrix::label_equality(g1, g2);
    graph_simulation(g1, g2, &mat, 0.5).simulates()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    #[test]
    fn identical_graphs_simulate() {
        let g = graph_from_labels(&["a", "b"], &[("a", "b")]);
        assert!(simulates_by_label(&g, &g));
    }

    #[test]
    fn edge_to_path_breaks_simulation_but_not_phom() {
        // The paper's motivating gap: an edge stretched to a 2-path defeats
        // simulation's edge-to-edge requirement.
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "x", "b"], &[("a", "x"), ("x", "b")]);
        assert!(!simulates_by_label(&g1, &g2));
    }

    #[test]
    fn simulation_allows_node_sharing() {
        // Unlike 1-1 p-hom, simulation is a relation: both A-parents can be
        // simulated by one A node.
        let mut g1: DiGraph<String> = DiGraph::new();
        let a1 = g1.add_node("A".into());
        let a2 = g1.add_node("A".into());
        let b = g1.add_node("B".into());
        g1.add_edge(a1, b);
        g1.add_edge(a2, b);
        let g2 = graph_from_labels(&["A", "B"], &[("A", "B")]);
        assert!(simulates_by_label(&g1, &g2));
    }

    #[test]
    fn leaf_mismatch_propagates_upward() {
        // a -> b where b has no counterpart: a loses its simulator too.
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "z"], &[("a", "z")]);
        let r = graph_simulation(&g1, &g2, &SimMatrix::label_equality(&g1, &g2), 0.5);
        assert!(!r.simulates());
        assert!(r.sim[0].is_zero(), "a's candidate dies because b has none");
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn coverage_counts_partial_simulation() {
        let g1 = graph_from_labels(&["a", "ghost"], &[]);
        let g2 = graph_from_labels(&["a"], &[]);
        let r = graph_simulation(&g1, &g2, &SimMatrix::label_equality(&g1, &g2), 0.5);
        assert!(!r.simulates());
        assert!((r.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn maximal_simulation_property() {
        // Every surviving pair must satisfy the simulation condition; it is
        // a fixpoint, so one more round changes nothing.
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        // g2 has labels a,b,c,b: build by hand to allow the duplicate.
        let mut g2b: DiGraph<String> = DiGraph::new();
        let a = g2b.add_node("a".into());
        let b1 = g2b.add_node("b".into());
        let c = g2b.add_node("c".into());
        let b2 = g2b.add_node("b".into());
        g2b.add_edge(a, b1);
        g2b.add_edge(b1, c);
        g2b.add_edge(a, b2);
        let mat = SimMatrix::label_equality(&g1, &g2b);
        let r = graph_simulation(&g1, &g2b, &mat, 0.5);
        for v in g1.nodes() {
            for u in r.sim[v.index()].iter() {
                let u = NodeId(u as u32);
                for &vc in g1.post(v) {
                    assert!(
                        g2b.post(u)
                            .iter()
                            .any(|uc| r.sim[vc.index()].contains(uc.index())),
                        "pair ({v:?},{u:?}) violates the simulation condition"
                    );
                }
            }
        }
        // b2 (dead end) cannot simulate g1's b.
        assert!(!r.sim[1].contains(b2.index()));
        assert!(r.sim[1].contains(b1.index()));
    }
}
