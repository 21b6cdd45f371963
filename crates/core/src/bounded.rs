//! **Bounded-stretch p-homomorphism**: edges map to paths of length at
//! most `k`.
//!
//! §2 of the paper contrasts p-hom with the pattern matching of Zou,
//! Chen and Özsu \[32\], "in which edges denote paths with a fixed
//! length". This module provides that whole family as a single knob:
//! matching against the hop-bounded reachability index
//! [`TransitiveClosure::bounded`] instead of the full closure.
//!
//! * `k = 1` — plain edge-to-edge semantics: p-hom degenerates to graph
//!   homomorphism (with node similarity), 1-1 p-hom to subgraph
//!   isomorphism up to similarity;
//! * `1 < k < n` — the \[32\] regime: bounded rerouting is tolerated,
//!   long detours are not;
//! * `k ≥ n₂` — ordinary (unbounded) p-hom.
//!
//! Because every entry point of [`crate::algo`] and [`crate::exact`]
//! accepts a precomputed closure, the bounded variants below are thin,
//! *correct-by-construction* wrappers: all invariants of the unbounded
//! algorithms (conflict-set nonemptiness, the Theorem 5.1 guarantee
//! relative to the bounded product graph, …) carry over verbatim.

use crate::algo::{comp_max_card_with, comp_max_sim_with, AlgoConfig};
use crate::exact::decide_phom_with;
use crate::mapping::{verify_phom, PHomMapping, Violation};
use phom_graph::{DiGraph, NodeId, TransitiveClosure};
use phom_sim::{NodeWeights, SimMatrix};

/// How far a pattern edge may stretch in the data graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stretch {
    /// Image paths of any nonempty length (ordinary p-hom, §3.2).
    Unbounded,
    /// Image paths of at most this many edges (Zou et al. \[32\]).
    /// `AtMost(1)` is edge-to-edge matching.
    AtMost(usize),
}

impl Stretch {
    /// Builds the reachability index realizing this stretch policy.
    // phom-lint: allow(concrete-closure, "constructor for the bounded-closure policy: bounded closures are deliberately concrete (not composition-closed, excluded from the ReachabilityIndex seam)")
    pub fn closure_of<L>(self, g: &DiGraph<L>) -> TransitiveClosure {
        match self {
            Stretch::Unbounded => TransitiveClosure::new(g),
            Stretch::AtMost(k) => TransitiveClosure::bounded(g, k),
        }
    }

    /// The hop bound, if any.
    pub fn bound(self) -> Option<usize> {
        match self {
            Stretch::Unbounded => None,
            Stretch::AtMost(k) => Some(k),
        }
    }
}

/// Decides whether `G1` is p-hom to `G2` with every edge image path of
/// length ≤ `k` (1-1 when `injective`). Returns a witness mapping of the
/// entire pattern when one exists.
///
/// Exponential in the worst case, like [`crate::exact::decide_phom`] —
/// the `k = 1` case contains graph homomorphism, so the bounded family
/// is NP-complete end to end.
pub fn decide_phom_bounded<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
    k: usize,
) -> Option<PHomMapping> {
    let closure = TransitiveClosure::bounded(g2, k);
    decide_phom_with(g1, &closure, mat, xi, injective)
}

/// `compMaxCard` under a stretch bound: approximates the
/// maximum-cardinality mapping where each edge maps to a path of length
/// ≤ `k`.
///
/// ```
/// use phom_core::{comp_max_card_bounded, AlgoConfig};
/// use phom_graph::graph_from_labels;
/// use phom_sim::SimMatrix;
///
/// let g1 = graph_from_labels(&["a", "c"], &[("a", "c")]);
/// let g2 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
/// let mat = SimMatrix::label_equality(&g1, &g2);
/// let cfg = AlgoConfig::default();
/// // The pattern edge needs a 2-hop detour: k = 1 cannot map both ends,
/// // k = 2 can.
/// assert!(comp_max_card_bounded(&g1, &g2, &mat, &cfg, 1).qual_card() < 1.0);
/// assert_eq!(comp_max_card_bounded(&g1, &g2, &mat, &cfg, 2).qual_card(), 1.0);
/// ```
pub fn comp_max_card_bounded<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    cfg: &AlgoConfig,
    k: usize,
) -> PHomMapping {
    let closure = TransitiveClosure::bounded(g2, k);
    comp_max_card_with(g1, &closure, mat, cfg, false)
}

/// `compMaxCard1-1` under a stretch bound.
pub fn comp_max_card_1_1_bounded<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    cfg: &AlgoConfig,
    k: usize,
) -> PHomMapping {
    let closure = TransitiveClosure::bounded(g2, k);
    comp_max_card_with(g1, &closure, mat, cfg, true)
}

/// `compMaxSim` under a stretch bound.
pub fn comp_max_sim_bounded<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &AlgoConfig,
    k: usize,
) -> PHomMapping {
    let closure = TransitiveClosure::bounded(g2, k);
    comp_max_sim_with(g1, &closure, mat, weights, cfg, false)
}

/// `compMaxSim1-1` under a stretch bound.
pub fn comp_max_sim_1_1_bounded<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &AlgoConfig,
    k: usize,
) -> PHomMapping {
    let closure = TransitiveClosure::bounded(g2, k);
    comp_max_sim_with(g1, &closure, mat, weights, cfg, true)
}

/// Verifies `mapping` under bounded-stretch semantics: `(v, σ(v))` is a candidate at ξ
/// and every mapped pattern edge has an image path of ≤ `k` edges
/// (injectivity too when `injective`).
pub fn verify_phom_bounded<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mapping: &PHomMapping,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
    k: usize,
) -> Result<(), Violation> {
    let closure = TransitiveClosure::bounded(g2, k);
    verify_phom(g1, mapping, mat, xi, &closure, injective)
}

/// The smallest stretch bound `k` under which `mapping` is a valid
/// bounded p-hom mapping, or `None` when it is invalid even unbounded.
///
/// Useful as a match-quality diagnostic alongside
/// [`crate::witness::stretch_stats`]: a mapping tight at `k = 1` is an
/// (approximate) homomorphism; a mapping only valid at large `k` relied
/// on long detours.
pub fn minimal_stretch<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mapping: &PHomMapping,
    mat: &SimMatrix,
    xi: f64,
) -> Option<usize> {
    let full = TransitiveClosure::new(g2);
    verify_phom(g1, mapping, mat, xi, &full, false).ok()?;
    // All mapped edges have some witness; the minimal bound is the max
    // over edges of the shortest-path distance between the images.
    let mut k = 0usize;
    for (v, u) in mapping.pairs() {
        for &v2 in g1.post(v) {
            let Some(u2) = mapping.get(v2) else { continue };
            let d =
                // phom-lint: allow(unwrap, "verify_phom succeeded above, so every mapped edge has a nonempty witness path")
                shortest_nonempty_distance(g2, u, u2).expect("verified mapping has witness paths");
            k = k.max(d);
        }
    }
    Some(k)
}

/// Shortest nonempty-path distance `from ⇝ to` in edges, by BFS.
fn shortest_nonempty_distance<L>(g: &DiGraph<L>, from: NodeId, to: NodeId) -> Option<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    let mut frontier = vec![from];
    let mut d = 0usize;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for x in frontier {
            for &w in g.post(x) {
                if w == to {
                    return Some(d);
                }
                if dist[w.index()] > d {
                    dist[w.index()] = d;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    fn fig1_like() -> (DiGraph<String>, DiGraph<String>, SimMatrix) {
        // Pattern edge (a, c); data has a -> b -> c only (a 2-hop detour).
        let g1 = graph_from_labels(&["a", "c"], &[("a", "c")]);
        let g2 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let mat = SimMatrix::from_fn(2, 3, |v, u| {
            let same = g1.label(v) == g2.label(u);
            if same {
                1.0
            } else {
                0.0
            }
        });
        (g1, g2, mat)
    }

    #[test]
    fn two_hop_detour_needs_k_two() {
        let (g1, g2, mat) = fig1_like();
        assert!(decide_phom_bounded(&g1, &g2, &mat, 0.5, false, 1).is_none());
        let m = decide_phom_bounded(&g1, &g2, &mat, 0.5, false, 2).expect("k=2 admits detour");
        assert_eq!(m.len(), 2);
        assert_eq!(minimal_stretch(&g1, &g2, &m, &mat, 0.5), Some(2));
    }

    #[test]
    fn k1_equals_edge_to_edge_homomorphism() {
        // Triangle pattern into triangle data: k=1 works when edges align.
        let g1 = graph_from_labels(&["x", "y"], &[("x", "y")]);
        let g2 = graph_from_labels(&["x", "y"], &[("x", "y")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        assert!(decide_phom_bounded(&g1, &g2, &mat, 1.0, false, 1).is_some());
    }

    #[test]
    fn bounded_card_is_monotone_in_k() {
        let (g1, g2, mat) = fig1_like();
        let cfg = AlgoConfig::default();
        let q1 = comp_max_card_bounded(&g1, &g2, &mat, &cfg, 1).qual_card();
        let q2 = comp_max_card_bounded(&g1, &g2, &mat, &cfg, 2).qual_card();
        assert!(q2 >= q1, "larger stretch bound cannot lose quality here");
        assert!((q2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_policy_builds_matching_closures() {
        let (_, g2, _) = fig1_like();
        let unb = Stretch::Unbounded.closure_of(&g2);
        let b = Stretch::AtMost(g2.node_count()).closure_of(&g2);
        for u in g2.nodes() {
            for v in g2.nodes() {
                assert_eq!(unb.reaches(u, v), b.reaches(u, v));
            }
        }
        assert_eq!(Stretch::AtMost(3).bound(), Some(3));
        assert_eq!(Stretch::Unbounded.bound(), None);
    }

    #[test]
    fn verify_bounded_rejects_overstretched() {
        let (g1, g2, mat) = fig1_like();
        let m = decide_phom_bounded(&g1, &g2, &mat, 0.5, false, 2).unwrap();
        assert!(verify_phom_bounded(&g1, &g2, &m, &mat, 0.5, false, 2).is_ok());
        assert!(matches!(
            verify_phom_bounded(&g1, &g2, &m, &mat, 0.5, false, 1),
            Err(Violation::MissingPath { .. })
        ));
    }

    #[test]
    fn minimal_stretch_of_invalid_mapping_is_none() {
        let (g1, g2, mat) = fig1_like();
        // Map a -> c and c -> a: no path c ~> a exists.
        let m = PHomMapping::from_pairs(2, [(NodeId(0), NodeId(2)), (NodeId(1), NodeId(0))]);
        assert_eq!(minimal_stretch(&g1, &g2, &m, &mat, 0.0), None);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_pair() -> impl Strategy<Value = (DiGraph<u32>, DiGraph<u32>)> {
            let g = |n_max: usize, e_max: usize| {
                (
                    2usize..n_max,
                    proptest::collection::vec((0usize..16, 0usize..16), 0..e_max),
                )
                    .prop_map(|(n, raw)| {
                        let mut g = DiGraph::with_capacity(n);
                        for i in 0..n {
                            g.add_node((i % 4) as u32);
                        }
                        for (a, b) in raw {
                            g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                        }
                        g
                    })
            };
            (g(7, 14), g(10, 30))
        }

        proptest! {
            /// Any mapping returned under bound k verifies under bound k,
            /// and under every larger bound.
            #[test]
            fn prop_bounded_mappings_verify((g1, g2) in arb_pair(), k in 1usize..5) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let cfg = AlgoConfig::default();
                let m = comp_max_card_bounded(&g1, &g2, &mat, &cfg, k);
                prop_assert!(verify_phom_bounded(&g1, &g2, &m, &mat, cfg.xi, false, k).is_ok());
                prop_assert!(verify_phom_bounded(&g1, &g2, &m, &mat, cfg.xi, false, k + 3).is_ok());
                if !m.is_empty() {
                    let ms = minimal_stretch(&g1, &g2, &m, &mat, cfg.xi).expect("valid");
                    prop_assert!(ms <= k, "minimal stretch {} exceeds bound {}", ms, k);
                }
            }

            /// The exact bounded decision is monotone in k.
            #[test]
            fn prop_bounded_decision_monotone((g1, g2) in arb_pair(), k in 1usize..4) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                if decide_phom_bounded(&g1, &g2, &mat, 1.0, false, k).is_some() {
                    prop_assert!(
                        decide_phom_bounded(&g1, &g2, &mat, 1.0, false, k + 1).is_some(),
                        "admitting longer paths lost a total mapping"
                    );
                }
            }

            /// Unbounded quality dominates any bounded quality (the bounded
            /// product graph is a subgraph of the unbounded one) — checked
            /// via the exact optimum, which is monotone by construction.
            #[test]
            fn prop_exact_bounded_below_unbounded((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let cfg = AlgoConfig::default();
                let b = comp_max_card_bounded(&g1, &g2, &mat, &cfg, 1);
                // Not a strict theorem for the greedy algorithm, but the
                // k=1 mapping must itself be valid unbounded:
                let full = TransitiveClosure::new(&g2);
                prop_assert!(verify_phom(&g1, &b, &mat, cfg.xi, &full, false).is_ok());
                let _ = b.qual_card();
            }
        }
    }
}
