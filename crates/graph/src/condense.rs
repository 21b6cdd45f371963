//! SCC condensation and the `G2*` compression of Appendix B.
//!
//! Each strongly connected component of `G2` forms a clique in the closure
//! `G2+`. Appendix B replaces each such clique by a *single node with a
//! self-loop* whose label is the **bag of all node labels** in the clique;
//! matching against the compressed graph is equivalent (with bag-aware node
//! similarity) and often much cheaper.

use crate::digraph::{DiGraph, NodeId};
use crate::scc::{tarjan_scc, SccResult};

/// The condensation DAG: one node per SCC, labeled with its member list;
/// an edge `c1 -> c2` iff some member of `c1` has an edge to a member of
/// `c2` in the original graph.
pub fn condensation<L>(g: &DiGraph<L>, scc: &SccResult) -> DiGraph<Vec<NodeId>> {
    let members = (0..scc.count()).map(|c| scc.members(c).to_vec()).collect();
    let edges = g.edges().filter_map(|(u, v)| {
        let cu = scc.component_of(u);
        let cv = scc.component_of(v);
        (cu != cv).then_some((NodeId(cu as u32), NodeId(cv as u32)))
    });
    DiGraph::from_edges(members, edges)
}

/// A graph compressed per Appendix B, plus the node correspondence needed to
/// translate mappings back to the original graph.
#[derive(Debug, Clone)]
pub struct CompressedGraph<L> {
    /// `G2*`: one node per SCC. Cyclic components carry a self-loop.
    /// Node labels are the bags of original labels.
    pub graph: DiGraph<Vec<L>>,
    /// `members[c]` = original nodes collapsed into compressed node `c`.
    pub members: Vec<Vec<NodeId>>,
    /// `rep_of[v]` = compressed node holding original node `v`.
    pub rep_of: Vec<NodeId>,
}

impl<L> CompressedGraph<L> {
    /// The compressed node that original node `v` collapsed into.
    pub fn representative(&self, v: NodeId) -> NodeId {
        self.rep_of[v.index()]
    }

    /// Original nodes represented by compressed node `c`.
    pub fn expand(&self, c: NodeId) -> &[NodeId] {
        &self.members[c.index()]
    }
}

/// Builds `G2*` from `g` (Appendix B, Fig. 10(b)).
///
/// Compressed edges follow original edges between distinct SCCs; a cyclic
/// SCC (size > 1, or a single node with a self-loop) gets a self-loop so
/// that paths may "stay" inside the clique, exactly as in `G2+`.
pub fn compress_closure<L: Clone>(g: &DiGraph<L>) -> CompressedGraph<L> {
    compress_closure_with(g, &tarjan_scc(g))
}

/// [`compress_closure`] reusing an existing SCC decomposition of `g`
/// (callers that already ran Tarjan — the engine's prepare/update paths —
/// skip the second pass).
pub fn compress_closure_with<L: Clone>(g: &DiGraph<L>, scc: &SccResult) -> CompressedGraph<L> {
    let mut bags = Vec::with_capacity(scc.count());
    let mut members = Vec::with_capacity(scc.count());
    let mut rep_of = vec![NodeId(0); g.node_count()];

    for c in 0..scc.count() {
        bags.push(scc.members(c).iter().map(|&v| g.label(v).clone()).collect());
        for &v in scc.members(c) {
            rep_of[v.index()] = NodeId(c as u32);
        }
        members.push(scc.members(c).to_vec());
    }
    let edges = g.edges().filter_map(|(u, v)| {
        let cu = rep_of[u.index()];
        let cv = rep_of[v.index()];
        if cu != cv {
            Some((cu, cv))
        } else if scc.members(cu.index()).len() > 1 || u == v {
            Some((cu, cu)) // cyclic component keeps a self-loop
        } else {
            None
        }
    });
    let graph = DiGraph::from_edges(bags, edges);

    CompressedGraph {
        graph,
        members,
        rep_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::TransitiveClosure;
    use crate::digraph::graph_from_labels;

    #[test]
    fn condensation_of_dag_is_isomorphic() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let scc = tarjan_scc(&g);
        let dag = condensation(&g, &scc);
        assert_eq!(dag.node_count(), 3);
        assert_eq!(dag.edge_count(), 2);
    }

    #[test]
    fn condensation_collapses_cycle() {
        let g = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
        );
        let scc = tarjan_scc(&g);
        let dag = condensation(&g, &scc);
        assert_eq!(dag.node_count(), 3);
        assert_eq!(dag.edge_count(), 2);
        // The condensation is acyclic.
        let dag_scc = tarjan_scc(&dag);
        assert_eq!(dag_scc.count(), dag.node_count());
    }

    #[test]
    fn fig_10b_compression_example() {
        // G2 of Fig. 10(b): A -> {B,C,D cycle}. Compressed: A -> BCD*.
        let g = graph_from_labels(
            &["A", "B", "C", "D"],
            &[("A", "B"), ("B", "C"), ("C", "D"), ("D", "B")],
        );
        let c = compress_closure(&g);
        assert_eq!(c.graph.node_count(), 2);
        let a_rep = c.representative(NodeId(0));
        let b_rep = c.representative(NodeId(1));
        assert_ne!(a_rep, b_rep);
        assert_eq!(c.representative(NodeId(2)), b_rep);
        assert_eq!(c.representative(NodeId(3)), b_rep);
        assert!(c.graph.has_edge(a_rep, b_rep));
        assert!(c.graph.has_self_loop(b_rep), "clique keeps a self-loop");
        assert!(!c.graph.has_self_loop(a_rep));
        let mut bag = c.graph.label(b_rep).clone();
        bag.sort();
        assert_eq!(bag, vec!["B".to_owned(), "C".into(), "D".into()]);
    }

    #[test]
    fn self_loop_survives_compression() {
        let mut g: DiGraph<&str> = DiGraph::new();
        let a = g.add_node("a");
        g.add_edge(a, a);
        let c = compress_closure(&g);
        assert_eq!(c.graph.node_count(), 1);
        assert!(c.graph.has_self_loop(NodeId(0)));
    }

    #[test]
    fn compression_preserves_reachability() {
        // Reachability between compressed representatives must mirror
        // reachability between the original nodes (the Appendix-B claim
        // that matching on G2* is equivalent rests on this).
        let g = graph_from_labels(
            &["a", "b", "c", "d", "e"],
            &[
                ("a", "b"),
                ("b", "c"),
                ("c", "b"),
                ("c", "d"),
                ("d", "e"),
                ("e", "d"),
            ],
        );
        let tc = TransitiveClosure::new(&g);
        let comp = compress_closure(&g);
        let ctc = TransitiveClosure::new(&comp.graph);
        for u in g.nodes() {
            for v in g.nodes() {
                let cu = comp.representative(u);
                let cv = comp.representative(v);
                let orig = tc.reaches(u, v);
                // Same-component pairs rely on the compressed self-loop.
                let compressed = ctc.reaches(cu, cv);
                assert_eq!(orig, compressed, "{u:?}->{v:?}");
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_graph() -> impl Strategy<Value = DiGraph<u32>> {
            (
                1usize..15,
                proptest::collection::vec((0usize..15, 0usize..15), 0..50),
            )
                .prop_map(|(n, raw)| {
                    let mut g = DiGraph::with_capacity(n);
                    for i in 0..n {
                        g.add_node(i as u32);
                    }
                    for (a, b) in raw {
                        g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                    }
                    g
                })
        }

        proptest! {
            #[test]
            fn prop_compression_preserves_proper_reachability(g in arb_graph()) {
                let tc = TransitiveClosure::new(&g);
                let comp = compress_closure(&g);
                let ctc = TransitiveClosure::new(&comp.graph);
                for u in g.nodes() {
                    for v in g.nodes() {
                        prop_assert_eq!(
                            tc.reaches(u, v),
                            ctc.reaches(comp.representative(u), comp.representative(v)),
                            "{:?}->{:?}", u, v
                        );
                    }
                }
            }

            #[test]
            fn prop_condensation_is_acyclic(g in arb_graph()) {
                let scc = tarjan_scc(&g);
                let dag = condensation(&g, &scc);
                let scc2 = tarjan_scc(&dag);
                prop_assert_eq!(scc2.count(), dag.node_count());
                for c in dag.nodes() {
                    prop_assert!(!dag.has_self_loop(c));
                }
            }
        }
    }
}
