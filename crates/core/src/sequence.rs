//! Matching across *version sequences* — the Web-graph-sequence setting
//! the paper inherits from Papadimitriou et al. \[23\]: an archive holds
//! versions `G0, G1, .., Gk` of the same graph and one wants `G0 ≼ Gk`
//! without paying a full match against every distant version.
//!
//! Composition of p-hom mappings is *not* closed for partial mappings:
//! `σ1 : G0 ⇀ G1` sends an edge to a path in `G1`, but `σ2 : G1 ⇀ G2`
//! only guarantees images for the path's *endpoints* if its interior
//! nodes happen to be mapped. [`compose_mappings`] therefore composes
//! optimistically and then **repairs**: pairs violating the edge-to-path
//! condition are dropped greedily until the result verifies.

use crate::mapping::{verify_phom, PHomMapping};
use phom_graph::{DiGraph, NodeId, TransitiveClosure};
use phom_sim::{candidate_floor, SimMatrix};

/// Result of a composition.
#[derive(Debug, Clone)]
pub struct ComposedMapping {
    /// The repaired, valid mapping `G0 ⇀ G2`.
    pub mapping: PHomMapping,
    /// Pairs dropped during repair (composition broke their edges).
    pub dropped: usize,
}

/// Composes `σ2 ∘ σ1` and repairs it into a valid p-hom mapping w.r.t.
/// `mat02` / `xi` over `(g0, g2)`.
///
/// Repair loop: while some mapped edge of `g0` lacks a witness path in
/// `g2`, unmap the endpoint with the most violations (ties: larger node
/// id). Terminates in ≤ `|V0|` rounds; the result always verifies.
pub fn compose_mappings<L>(
    g0: &DiGraph<L>,
    g2: &DiGraph<L>,
    sigma1: &PHomMapping,
    sigma2: &PHomMapping,
    mat02: &SimMatrix,
    xi: f64,
    injective: bool,
) -> ComposedMapping {
    let closure2 = TransitiveClosure::new(g2);

    // Optimistic composition, with threshold and injectivity screening.
    let mut assign: Vec<Option<NodeId>> = vec![None; g0.node_count()];
    let mut used: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
    let floor = candidate_floor(xi);
    for (v, mid) in sigma1.pairs() {
        let Some(u) = sigma2.get(mid) else { continue };
        if mat02.score(v, u) < floor {
            continue;
        }
        if injective && !used.insert(u) {
            continue;
        }
        if g0.has_self_loop(v) && !closure2.reaches(u, u) {
            continue;
        }
        assign[v.index()] = Some(u);
    }

    // Repair: drop the worst offender until no violations remain.
    let mut dropped = 0usize;
    loop {
        let mut violations = vec![0usize; g0.node_count()];
        let mut any = false;
        for v in g0.nodes() {
            let Some(u) = assign[v.index()] else { continue };
            for &v2 in g0.post(v) {
                if v2 == v {
                    continue;
                }
                if let Some(u2) = assign[v2.index()] {
                    if !closure2.reaches(u, u2) {
                        violations[v.index()] += 1;
                        violations[v2.index()] += 1;
                        any = true;
                    }
                }
            }
        }
        if !any {
            break;
        }
        let worst = (0..g0.node_count())
            .filter(|&v| assign[v].is_some())
            .max_by_key(|&v| (violations[v], v))
            // phom-lint: allow(unwrap, "any == true means a violation was counted on a mapped node this round")
            .expect("some node is mapped when violations exist");
        assign[worst] = None;
        dropped += 1;
    }

    let mapping = PHomMapping::from_pairs(
        g0.node_count(),
        assign
            .iter()
            .enumerate()
            .filter_map(|(v, u)| u.map(|u| (NodeId(v as u32), u))),
    );
    debug_assert_eq!(
        verify_phom(g0, &mapping, mat02, xi, &closure2, injective),
        Ok(())
    );
    ComposedMapping { mapping, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{comp_max_card, AlgoConfig};
    use phom_graph::graph_from_labels;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn total_compositions_stay_total() {
        // G0 = G1 = G2 = a path; identity mappings compose to identity.
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let id = PHomMapping::from_pairs(3, [(n(0), n(0)), (n(1), n(1)), (n(2), n(2))]);
        let mat = SimMatrix::label_equality(&g, &g);
        let c = compose_mappings(&g, &g, &id, &id, &mat, 0.5, true);
        assert_eq!(c.dropped, 0);
        assert_eq!(c.mapping.len(), 3);
    }

    #[test]
    fn composition_through_stretched_middle() {
        // G0: a -> b. G1 stretches it: a -> x -> b. G2 = G1.
        // σ1 maps a->a, b->b (path via x); σ2 identity on G1.
        let g0 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g1 = graph_from_labels(&["a", "x", "b"], &[("a", "x"), ("x", "b")]);
        let sigma1 = PHomMapping::from_pairs(2, [(n(0), n(0)), (n(1), n(2))]);
        let sigma2 = PHomMapping::from_pairs(3, [(n(0), n(0)), (n(1), n(1)), (n(2), n(2))]);
        let mat02 = SimMatrix::label_equality(&g0, &g1);
        let c = compose_mappings(&g0, &g1, &sigma1, &sigma2, &mat02, 0.5, true);
        assert_eq!(c.mapping.len(), 2);
        assert_eq!(c.dropped, 0);
    }

    #[test]
    fn repair_drops_broken_edges() {
        // σ1 and σ2 valid individually, but composition breaks the edge:
        // G1's witness path interior is REMAPPED by σ2 into a dead end.
        let g0 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let _g1 = graph_from_labels(&["a", "x", "b"], &[("a", "x"), ("x", "b")]);
        // G2: a and b exist but b is only reachable FROM x2, and a links
        // nowhere.
        let g2 = graph_from_labels(&["a", "b"], &[("b", "a")]);
        let sigma1 = PHomMapping::from_pairs(2, [(n(0), n(0)), (n(1), n(2))]);
        // σ2: a->a, b->b (valid for G1's *edges*? G1 edge (a,x): x unmapped
        // so no obligation; edge (x,b): x unmapped. Valid on its domain.)
        let sigma2 = PHomMapping::from_pairs(3, [(n(0), n(0)), (n(2), n(1))]);
        let mat02 = SimMatrix::label_equality(&g0, &g2);
        let c = compose_mappings(&g0, &g2, &sigma1, &sigma2, &mat02, 0.5, true);
        // Composed a->a, b->b violates edge (a, b): no path a ~> b in G2.
        assert_eq!(c.dropped, 1, "one endpoint dropped to repair");
        assert_eq!(c.mapping.len(), 1);
    }

    #[test]
    fn composition_respects_threshold() {
        let g0 = graph_from_labels(&["a"], &[]);
        let _g1 = graph_from_labels(&["a"], &[]);
        let g2 = graph_from_labels(&["a"], &[]);
        let sigma1 = PHomMapping::from_pairs(1, [(n(0), n(0))]);
        let sigma2 = PHomMapping::from_pairs(1, [(n(0), n(0))]);
        let mut mat02 = SimMatrix::label_equality(&g0, &g2);
        mat02.set(n(0), n(0), 0.4);
        let c = compose_mappings(&g0, &g2, &sigma1, &sigma2, &mat02, 0.5, false);
        assert!(c.mapping.is_empty(), "below-threshold pair never composed");
    }

    #[test]
    fn sequence_of_algorithm_outputs_composes() {
        // Chain three versions of a small graph through comp_max_card and
        // compose the two hops; the composed mapping must be valid and
        // usually large.
        let g0 = graph_from_labels(&["r", "a", "b", "c"], &[("r", "a"), ("a", "b"), ("b", "c")]);
        let g1 = graph_from_labels(
            &["r", "a", "x", "b", "c"],
            &[("r", "a"), ("a", "x"), ("x", "b"), ("b", "c")],
        );
        let g2 = graph_from_labels(
            &["r", "a", "x", "y", "b", "c"],
            &[("r", "a"), ("a", "x"), ("x", "y"), ("y", "b"), ("b", "c")],
        );
        let cfg = AlgoConfig::default();
        let m01 = SimMatrix::label_equality(&g0, &g1);
        let m12 = SimMatrix::label_equality(&g1, &g2);
        let m02 = SimMatrix::label_equality(&g0, &g2);
        let sigma1 = comp_max_card(&g0, &g1, &m01, &cfg);
        let sigma2 = comp_max_card(&g1, &g2, &m12, &cfg);
        let c = compose_mappings(&g0, &g2, &sigma1, &sigma2, &m02, 0.5, false);
        assert!(
            c.mapping.len() >= 3,
            "composed mapping covers most of G0: {:?}",
            c.mapping
        );
    }

    mod prop {
        use super::*;
        use crate::algo::comp_max_card;
        use proptest::prelude::*;

        fn arb_triple() -> impl Strategy<Value = (DiGraph<u8>, DiGraph<u8>, DiGraph<u8>)> {
            let g = |n: usize, edges: Vec<(usize, usize)>| {
                let mut g = DiGraph::with_capacity(n);
                for i in 0..n {
                    g.add_node((i % 3) as u8);
                }
                for (a, b) in edges {
                    g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                }
                g
            };
            (
                (
                    1usize..5,
                    proptest::collection::vec((0usize..5, 0usize..5), 0..8),
                ),
                (
                    1usize..6,
                    proptest::collection::vec((0usize..6, 0usize..6), 0..10),
                ),
                (
                    1usize..6,
                    proptest::collection::vec((0usize..6, 0usize..6), 0..10),
                ),
            )
                .prop_map(move |((n0, e0), (n1, e1), (n2, e2))| (g(n0, e0), g(n1, e1), g(n2, e2)))
        }

        proptest! {
            /// Whatever σ1, σ2 the algorithms produce, the composition is
            /// always repaired into a valid mapping.
            #[test]
            fn prop_composition_always_valid((g0, g1, g2) in arb_triple()) {
                let cfg = AlgoConfig::default();
                let m01 = SimMatrix::label_equality(&g0, &g1);
                let m12 = SimMatrix::label_equality(&g1, &g2);
                let m02 = SimMatrix::label_equality(&g0, &g2);
                let sigma1 = comp_max_card(&g0, &g1, &m01, &cfg);
                let sigma2 = comp_max_card(&g1, &g2, &m12, &cfg);
                for injective in [false, true] {
                    let c = compose_mappings(
                        &g0, &g2, &sigma1, &sigma2, &m02, 0.5, injective,
                    );
                    let closure = TransitiveClosure::new(&g2);
                    prop_assert_eq!(
                        verify_phom(&g0, &c.mapping, &m02, 0.5, &closure, injective),
                        Ok(())
                    );
                }
            }
        }
    }
}
