//! Maximum common (induced) subgraph by McGregor-style branch and bound —
//! the stand-in for the `cdkMCS` comparator of §6 (the Chemistry
//! Development Kit's MCS, a Java library we cannot link).
//!
//! Like `cdkMCS` in the paper's experiments, this solver is exact and
//! therefore explodes on anything but tiny skeletons: a wall-clock budget
//! makes it report "did not run to completion" (`timed_out`) exactly the
//! way Table 3 reports `N/A` for skeletons 1.

use phom_graph::{DiGraph, NodeId};
use phom_sim::SimMatrix;
use std::time::{Duration, Instant};

/// Result of an MCS search.
#[derive(Debug, Clone)]
pub struct McsResult {
    /// The best common-subgraph correspondence found (pattern, data) pairs.
    pub mapping: Vec<(NodeId, NodeId)>,
    /// True when the budget expired before the search space was exhausted;
    /// `mapping` is then the best found so far (paper: `N/A`).
    pub timed_out: bool,
    /// `|mapping| / |V1|`, comparable with `qualCard`.
    pub qual_card: f64,
}

/// Finds a maximum common induced subgraph between `g1` and `g2`:
/// an injective partial mapping `σ` with
/// `(v, v') ∈ E1 ⟺ (σ(v), σ(v')) ∈ E2` for all mapped pairs, maximizing
/// the number of mapped nodes. Node compatibility is candidacy at `xi`.
pub fn maximum_common_subgraph<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
    budget: Duration,
) -> McsResult {
    let n1 = g1.node_count();
    // phom-lint: allow(clock, "monotonic deadline for the branch-and-bound time budget; no wall-clock semantics")
    let deadline = Instant::now() + budget;
    let cands: Vec<Vec<NodeId>> = g1
        .nodes()
        .map(|v| mat.candidates(v, xi).collect::<Vec<NodeId>>())
        .collect();

    struct State<'a, L> {
        g1: &'a DiGraph<L>,
        g2: &'a DiGraph<L>,
        cands: &'a [Vec<NodeId>],
        deadline: Instant,
        timed_out: bool,
        best: Vec<(NodeId, NodeId)>,
    }

    fn compatible<L>(s: &State<'_, L>, assign: &[Option<NodeId>], v: NodeId, u: NodeId) -> bool {
        if assign.iter().flatten().any(|&x| x == u) {
            return false;
        }
        for (v2_idx, u2) in assign.iter().enumerate() {
            let Some(u2) = *u2 else { continue };
            let v2 = NodeId(v2_idx as u32);
            // Induced: edge presence must agree in both directions.
            if s.g1.has_edge(v, v2) != s.g2.has_edge(u, u2) {
                return false;
            }
            if s.g1.has_edge(v2, v) != s.g2.has_edge(u2, u) {
                return false;
            }
        }
        true
    }

    fn go<L>(s: &mut State<'_, L>, v_idx: usize, assign: &mut Vec<Option<NodeId>>, size: usize) {
        // phom-lint: allow(clock, "monotonic deadline check for the branch-and-bound time budget; no wall-clock semantics")
        if s.timed_out || Instant::now() >= s.deadline {
            s.timed_out = true;
            return;
        }
        let n1 = assign.len();
        if size + (n1 - v_idx) <= s.best.len() {
            return; // cannot beat the incumbent
        }
        if v_idx == n1 {
            if size > s.best.len() {
                s.best = assign
                    .iter()
                    .enumerate()
                    .filter_map(|(v, u)| u.map(|u| (NodeId(v as u32), u)))
                    .collect();
            }
            return;
        }
        let v = NodeId(v_idx as u32);
        for idx in 0..s.cands[v_idx].len() {
            let u = s.cands[v_idx][idx];
            if compatible(s, assign, v, u) {
                assign[v_idx] = Some(u);
                go(s, v_idx + 1, assign, size + 1);
                assign[v_idx] = None;
                if s.timed_out {
                    return;
                }
            }
        }
        go(s, v_idx + 1, assign, size);
    }

    let mut state = State {
        g1,
        g2,
        cands: &cands,
        deadline,
        timed_out: false,
        best: Vec::new(),
    };
    let mut assign: Vec<Option<NodeId>> = vec![None; n1];
    go(&mut state, 0, &mut assign, 0);

    let qual_card = if n1 == 0 {
        0.0
    } else {
        state.best.len() as f64 / n1 as f64
    };
    McsResult {
        mapping: state.best,
        timed_out: state.timed_out,
        qual_card,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    fn budget() -> Duration {
        Duration::from_secs(5)
    }

    #[test]
    fn identical_graphs_share_everything() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let mat = SimMatrix::label_equality(&g, &g);
        let r = maximum_common_subgraph(&g, &g, &mat, 0.5, budget());
        assert!(!r.timed_out);
        assert_eq!(r.mapping.len(), 3);
        assert!((r.qual_card - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_found() {
        // Common part: a -> b. g1 additionally has b -> c, g2 has c -> b.
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let g2 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("c", "b")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let r = maximum_common_subgraph(&g1, &g2, &mat, 0.5, budget());
        assert!(!r.timed_out);
        // {a, b, c} as an induced common subgraph fails (edge b->c vs c->b),
        // but {a, b} ∪ {c} works: c is isolated from a,b in... g1 has b->c.
        // Induced on {a,b,c}: g1 edges {a->b, b->c}; g2 edges {a->b, c->b}.
        // Mismatch. On {a,b}: both have a->b. Plus c alone can't join since
        // b->c (g1) vs none (g2). So MCS = 2.
        assert_eq!(r.mapping.len(), 2);
    }

    #[test]
    fn induced_condition_enforced() {
        // g1: two disconnected nodes; g2: edge between them. Induced common
        // subgraph of size 2 impossible.
        let g1 = graph_from_labels(&["a", "b"], &[]);
        let g2 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let r = maximum_common_subgraph(&g1, &g2, &mat, 0.5, budget());
        assert_eq!(r.mapping.len(), 1);
    }

    #[test]
    fn zero_budget_times_out() {
        let g = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let mat = SimMatrix::label_equality(&g, &g);
        let r = maximum_common_subgraph(&g, &g, &mat, 0.5, Duration::ZERO);
        assert!(r.timed_out, "no time, no completion — the Table 3 N/A case");
    }

    #[test]
    fn mcs_is_special_case_of_cph_1_1() {
        // §3.3: MCS is a special case of CPH¹⁻¹ — any common subgraph is a
        // valid 1-1 p-hom mapping (edges map to length-1 paths), so the
        // exact CPH¹⁻¹ optimum is at least the MCS size.
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let g2 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("c", "b")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let mcs = maximum_common_subgraph(&g1, &g2, &mat, 0.5, budget());
        let w = phom_sim::NodeWeights::uniform(3);
        let exact = phom_core::exact_optimum(
            &g1,
            &g2,
            &mat,
            0.5,
            true,
            phom_core::Objective::Cardinality,
            &w,
        );
        assert!(exact.len() >= mcs.mapping.len());
    }
}
