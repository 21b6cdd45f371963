//! Subgraph isomorphism (Ullmann-style backtracking) — the classical
//! notion §3.2 compares against: a 1-1 mapping preserving *edges as
//! edges*. `G1` is isomorphic to a subgraph of `G2` iff such a mapping
//! exists (non-induced variant: only `G1`'s edges are required).

use phom_graph::{DiGraph, NodeId};
use phom_sim::SimMatrix;

/// Finds a subgraph-isomorphism embedding of `g1` into `g2` (injective,
/// edge-to-edge, node compatibility candidacy at `xi`), or `None`.
///
/// Exponential worst case (NP-complete); candidate lists are pruned by
/// degree and refined by 1-step arc consistency before search.
pub fn subgraph_isomorphism<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
) -> Option<Vec<(NodeId, NodeId)>> {
    let n1 = g1.node_count();
    // Candidates: compatible label + sufficient degrees.
    let mut cands: Vec<Vec<NodeId>> = g1
        .nodes()
        .map(|v| {
            mat.candidates(v, xi)
                .filter(|&u| {
                    g2.out_degree(u) >= g1.out_degree(v) && g2.in_degree(u) >= g1.in_degree(v)
                })
                .collect::<Vec<NodeId>>()
        })
        .collect();

    // Arc-consistency refinement (Ullmann's refinement step, 1 round per
    // change): u stays a candidate of v only if every pattern neighbor of
    // v has a corresponding data neighbor of u.
    let mut changed = true;
    while changed {
        changed = false;
        for v in g1.nodes() {
            let before = cands[v.index()].len();
            let keep: Vec<NodeId> = cands[v.index()]
                .iter()
                .copied()
                .filter(|&u| {
                    g1.post(v)
                        .iter()
                        .all(|&vc| g2.post(u).iter().any(|uc| cands[vc.index()].contains(uc)))
                        && g1
                            .prev(v)
                            .iter()
                            .all(|&vp| g2.prev(u).iter().any(|up| cands[vp.index()].contains(up)))
                })
                .collect();
            if keep.len() != before {
                changed = true;
                cands[v.index()] = keep;
            }
        }
    }
    if n1 > 0 && cands.iter().any(|c| c.is_empty()) {
        return None;
    }

    // Fail-first variable order.
    let mut order: Vec<NodeId> = g1.nodes().collect();
    order.sort_by_key(|v| cands[v.index()].len());

    let mut assign: Vec<Option<NodeId>> = vec![None; n1];
    fn backtrack<L>(
        g1: &DiGraph<L>,
        g2: &DiGraph<L>,
        cands: &[Vec<NodeId>],
        order: &[NodeId],
        depth: usize,
        assign: &mut [Option<NodeId>],
    ) -> bool {
        let Some(&v) = order.get(depth) else {
            return true;
        };
        'cand: for &u in &cands[v.index()] {
            if assign.iter().flatten().any(|&x| x == u) {
                continue;
            }
            for &vc in g1.post(v) {
                if let Some(uc) = assign[vc.index()] {
                    if !g2.has_edge(u, uc) {
                        continue 'cand;
                    }
                }
            }
            for &vp in g1.prev(v) {
                if let Some(up) = assign[vp.index()] {
                    if !g2.has_edge(up, u) {
                        continue 'cand;
                    }
                }
            }
            assign[v.index()] = Some(u);
            if backtrack(g1, g2, cands, order, depth + 1, assign) {
                return true;
            }
            assign[v.index()] = None;
        }
        false
    }

    if backtrack(g1, g2, &cands, &order, 0, &mut assign) {
        Some(
            assign
                .iter()
                .enumerate()
                // phom-lint: allow(unwrap, "backtrack returning true means every pattern node received an assignment")
                .map(|(v, u)| (NodeId(v as u32), u.expect("full embedding")))
                .collect(),
        )
    } else {
        None
    }
}

/// Convenience: label-equality subgraph isomorphism test.
pub fn is_subgraph_isomorphic<L: PartialEq>(g1: &DiGraph<L>, g2: &DiGraph<L>) -> bool {
    let mat = SimMatrix::label_equality(g1, g2);
    subgraph_isomorphism(g1, g2, &mat, 0.5).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    #[test]
    fn triangle_in_larger_graph() {
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c"), ("c", "a")]);
        let g2 = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
        );
        let m = subgraph_isomorphism(&g1, &g2, &SimMatrix::label_equality(&g1, &g2), 0.5)
            .expect("triangle embeds");
        assert_eq!(m.len(), 3);
        // Verify edge preservation.
        for (v, u) in &m {
            for &vc in g1.post(*v) {
                let uc = m.iter().find(|(x, _)| *x == vc).expect("mapped").1;
                assert!(g2.has_edge(*u, uc));
            }
        }
    }

    #[test]
    fn edge_to_path_is_rejected() {
        // The exact gap p-hom fills: sub-iso cannot stretch edges.
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "x", "b"], &[("a", "x"), ("x", "b")]);
        assert!(!is_subgraph_isomorphic(&g1, &g2));
    }

    #[test]
    fn injectivity_enforced() {
        let mut g1: DiGraph<String> = DiGraph::new();
        g1.add_node("A".into());
        g1.add_node("A".into());
        let g2 = graph_from_labels(&["A"], &[]);
        assert!(!is_subgraph_isomorphic(&g1, &g2));
    }

    #[test]
    fn non_induced_extra_data_edges_allowed() {
        // G2 has an extra edge between the images; non-induced sub-iso
        // accepts it.
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b"], &[("a", "b"), ("b", "a")]);
        assert!(is_subgraph_isomorphic(&g1, &g2));
    }

    #[test]
    fn degree_pruning_rejects_quickly() {
        // Hub with 3 children cannot embed into a path.
        let g1 = graph_from_labels(&["h", "a", "b", "c"], &[("h", "a"), ("h", "b"), ("h", "c")]);
        let g2 = graph_from_labels(&["h", "a", "b", "c"], &[("h", "a"), ("a", "b"), ("b", "c")]);
        let mat = phom_sim::matrix_from_label_fn(&g1, &g2, |_, _| 1.0);
        assert!(subgraph_isomorphism(&g1, &g2, &mat, 0.5).is_none());
    }

    #[test]
    fn empty_pattern_trivially_embeds() {
        let g1: DiGraph<String> = DiGraph::new();
        let g2 = graph_from_labels(&["a"], &[]);
        let m = subgraph_isomorphism(&g1, &g2, &SimMatrix::new(0, 1), 0.5);
        assert_eq!(m, Some(vec![]));
    }
}
