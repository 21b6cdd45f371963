//! SCC condensation and the `G2*` compression of Appendix B.
//!
//! Each strongly connected component of `G2` forms a clique in the closure
//! `G2+`. Appendix B collapses each such clique into one node of `G2*`,
//! with a self-loop when the component is cyclic, and matches against
//! `G2*` instead: a pattern node scores a compressed node by its best
//! member. [`CompressedClosure`] holds what that matching reads (the
//! member lists, each original node's compressed node, and the closure of
//! `G2*`), built in one pass over an SCC decomposition the caller already
//! has. `G2*` itself, its labels and its edge list are never materialized.

use crate::digraph::{DiGraph, NodeId};
use crate::reach::ReachabilityIndex;
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

/// `G2*` of Appendix B as matching reads it: the original nodes each
/// compressed node stands for, the compressed node each original node
/// collapsed into, and the proper closure of `G2*`.
///
/// Compressed node `c` is component `c` of the SCC decomposition it was
/// built from, and lists its members in that decomposition's order.
/// Matching breaks ties on both (pivot selection on compressed ids, the
/// first best member of a compressed node), so every version builds its
/// `G2*` from a Tarjan numbering of its own graph.
///
/// The closure is proper, like [`crate::TransitiveClosure`]: `c` reaches
/// `d` iff a member of `c` reaches a member of `d` by a nonempty path in
/// `G2`, so `c` reaches itself iff its component is cyclic (more than one
/// member, or a self-loop). As a [`ReachabilityIndex`] it answers over
/// compressed node ids.
#[derive(Debug, Clone)]
pub struct CompressedClosure {
    /// `rep_of[v]` = compressed node holding original node `v`.
    rep_of: Vec<u32>,
    /// Compressed node `c` holds `members[member_start[c]..member_start[c + 1]]`.
    member_start: Vec<u32>,
    members: Vec<NodeId>,
    /// Closure row of compressed node `c`: words `c * stride..(c + 1) * stride`.
    rows: Vec<u64>,
    stride: usize,
}

impl CompressedClosure {
    /// Number of compressed nodes (SCCs of the original graph).
    pub fn node_count(&self) -> usize {
        self.member_start.len() - 1
    }

    /// The compressed node that original node `v` collapsed into.
    pub fn representative(&self, v: NodeId) -> NodeId {
        NodeId(self.rep_of[v.index()])
    }

    /// Original nodes represented by compressed node `c`, in SCC order.
    pub fn expand(&self, c: NodeId) -> &[NodeId] {
        let (from, to) = (
            self.member_start[c.index()],
            self.member_start[c.index() + 1],
        );
        &self.members[from as usize..to as usize]
    }

    /// True iff compressed node `from` reaches `to` by a nonempty path.
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        let (c, d) = (from.index(), to.index());
        self.rows[c * self.stride + d / 64] & (1 << (d % 64)) != 0
    }

    fn row(&self, c: NodeId) -> &[u64] {
        &self.rows[c.index() * self.stride..][..self.stride]
    }
}

impl ReachabilityIndex for CompressedClosure {
    fn node_count(&self) -> usize {
        CompressedClosure::node_count(self)
    }

    #[inline]
    fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        CompressedClosure::reaches(self, from, to)
    }

    fn reachable_count(&self, from: NodeId) -> usize {
        self.row(from).iter().map(|w| w.count_ones() as usize).sum()
    }

    fn successors_iter(&self, from: NodeId) -> Box<dyn Iterator<Item = NodeId> + '_> {
        Box::new(self.row(from).iter().enumerate().flat_map(|(i, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    NodeId((i * 64 + b) as u32)
                })
            })
        }))
    }

    fn memory_bytes(&self) -> usize {
        4 * (self.rep_of.len() + self.member_start.len() + self.members.len()) + 8 * self.rows.len()
    }
}

/// Builds `G2*` of `g` (Appendix B, Fig. 10(b)) after a fresh Tarjan pass.
pub fn compress_closure<L>(g: &DiGraph<L>) -> CompressedClosure {
    compress_closure_with(g, &tarjan_scc(g))
}

/// Builds `G2*` of `g` from its SCC decomposition `scc`, in one pass over
/// the components in `scc`'s order.
///
/// Tarjan numbers components in reverse topological order, so every edge
/// leaving component `c` enters a lower id, whose closure row is already
/// final: row `c` is the union of those rows plus their own bits, and its
/// own bit when `c` is cyclic. A target already in the row adds nothing
/// and is skipped.
pub fn compress_closure_with<L>(g: &DiGraph<L>, scc: &SccResult) -> CompressedClosure {
    let count = scc.count();
    let stride = count.div_ceil(64);
    let mut member_start = Vec::with_capacity(count + 1);
    let mut members = Vec::with_capacity(g.node_count());
    let mut rows = vec![0u64; count * stride];
    member_start.push(0);
    for c in 0..count {
        let own = scc.members(c);
        members.extend_from_slice(own);
        member_start.push(members.len() as u32);
        let (done, rest) = rows.split_at_mut(c * stride);
        let row = &mut rest[..stride];
        let mut cyclic = own.len() > 1;
        for &v in own {
            for &w in g.post(v) {
                let d = scc.component_of(w);
                if d == c {
                    cyclic = true;
                } else if row[d / 64] & (1 << (d % 64)) == 0 {
                    debug_assert!(d < c, "tarjan numbering invariant");
                    for (x, y) in row.iter_mut().zip(&done[d * stride..][..stride]) {
                        *x |= y;
                    }
                    row[d / 64] |= 1 << (d % 64);
                }
            }
        }
        if cyclic {
            row[c / 64] |= 1 << (c % 64);
        }
    }
    CompressedClosure {
        rep_of: scc.component_ids().to_vec(),
        member_start,
        members,
        rows,
        stride,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::TransitiveClosure;
    use crate::digraph::graph_from_labels;

    /// The reference for the builder: `G2*` as a graph, with one edge
    /// per original edge between distinct components and a self-loop on
    /// every cyclic component, so that its plain transitive closure is
    /// the compressed closure.
    fn appendix_b_graph<L>(g: &DiGraph<L>, scc: &SccResult) -> DiGraph<()> {
        let edges = g.edges().filter_map(|(u, v)| {
            let (cu, cv) = (scc.component_of(u), scc.component_of(v));
            (cu != cv || scc.members(cu).len() > 1 || u == v)
                .then_some((NodeId(cu as u32), NodeId(cv as u32)))
        });
        DiGraph::from_edges(vec![(); scc.count()], edges)
    }

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
        assert_eq!(c.node_count(), 2);
        let a_rep = c.representative(NodeId(0));
        let b_rep = c.representative(NodeId(1));
        assert_ne!(a_rep, b_rep);
        assert_eq!(c.representative(NodeId(2)), b_rep);
        assert_eq!(c.representative(NodeId(3)), b_rep);
        assert_eq!(c.expand(a_rep), &[NodeId(0)]);
        let mut clique = c.expand(b_rep).to_vec();
        clique.sort();
        assert_eq!(clique, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(c.reaches(a_rep, b_rep));
        assert!(c.reaches(b_rep, b_rep), "clique keeps a self-loop");
        assert!(!c.reaches(a_rep, a_rep));
        assert!(!c.reaches(b_rep, a_rep));
    }

    #[test]
    fn self_loop_survives_compression() {
        let mut g: DiGraph<&str> = DiGraph::new();
        let a = g.add_node("a");
        g.add_edge(a, a);
        let c = compress_closure(&g);
        assert_eq!(c.node_count(), 1);
        assert!(c.reaches(NodeId(0), NodeId(0)));
    }

    #[test]
    fn empty_graph_compresses_to_nothing() {
        let g: DiGraph<()> = DiGraph::new();
        let c = compress_closure(&g);
        assert_eq!(c.node_count(), 0);
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
        for u in g.nodes() {
            for v in g.nodes() {
                let cu = comp.representative(u);
                let cv = comp.representative(v);
                // Same-component pairs rely on the compressed self-loop.
                assert_eq!(tc.reaches(u, v), comp.reaches(cu, cv), "{u:?}->{v:?}");
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn graph_of(n: usize, raw: Vec<(usize, usize)>) -> DiGraph<u32> {
            let mut g = DiGraph::with_capacity(n);
            for i in 0..n {
                g.add_node(i as u32);
            }
            for (a, b) in raw {
                g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
            }
            g
        }

        fn arb_graph() -> impl Strategy<Value = DiGraph<u32>> {
            (
                1usize..15,
                proptest::collection::vec((0usize..15, 0usize..15), 0..50),
            )
                .prop_map(|(n, raw)| graph_of(n, raw))
        }

        /// Sparse graphs of up to 150 nodes: their condensations often
        /// exceed 64 components, so closure rows span several words.
        fn arb_wide_graph() -> impl Strategy<Value = DiGraph<u32>> {
            (
                1usize..150,
                proptest::collection::vec((0usize..150, 0usize..150), 0..180),
            )
                .prop_map(|(n, raw)| graph_of(n, raw))
        }

        proptest! {
            #[test]
            fn prop_compression_preserves_proper_reachability(g in arb_graph()) {
                let tc = TransitiveClosure::new(&g);
                let comp = compress_closure(&g);
                for u in g.nodes() {
                    for v in g.nodes() {
                        prop_assert_eq!(
                            tc.reaches(u, v),
                            comp.reaches(comp.representative(u), comp.representative(v)),
                            "{:?}->{:?}", u, v
                        );
                    }
                }
            }

            /// The one-pass builder equals the plain closure of the
            /// Appendix-B graph on every pair, keeps Tarjan's numbering
            /// and member order, and answers the same through the
            /// `ReachabilityIndex` view.
            #[test]
            fn prop_builder_matches_closure_of_appendix_b_graph(g in arb_wide_graph()) {
                let scc = tarjan_scc(&g);
                let comp = compress_closure_with(&g, &scc);
                let reference = TransitiveClosure::new(&appendix_b_graph(&g, &scc));
                prop_assert_eq!(comp.node_count(), scc.count());
                for c in 0..scc.count() {
                    prop_assert_eq!(comp.expand(NodeId(c as u32)), scc.members(c));
                }
                for v in g.nodes() {
                    prop_assert_eq!(comp.representative(v).index(), scc.component_of(v));
                }
                let index: &dyn ReachabilityIndex = &comp;
                for c in 0..scc.count() as u32 {
                    for d in 0..scc.count() as u32 {
                        prop_assert_eq!(
                            comp.reaches(NodeId(c), NodeId(d)),
                            reference.reaches(NodeId(c), NodeId(d)),
                            "{}->{}", c, d
                        );
                    }
                    let succs: Vec<NodeId> = index.successors_iter(NodeId(c)).collect();
                    let expected: Vec<NodeId> =
                        reference.reachable_set(NodeId(c)).iter().map(|d| NodeId(d as u32)).collect();
                    prop_assert_eq!(index.reachable_count(NodeId(c)), expected.len());
                    prop_assert_eq!(succs, expected);
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
