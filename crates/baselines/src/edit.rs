//! Graph edit distance (GED) — the structure-based similarity measure of
//! Zeng et al. \[31\] that §2 groups with subgraph isomorphism ("graph
//! edit distance is essentially based on subgraph isomorphism").
//!
//! Exact A* search over node-assignment prefixes with uniform edit costs:
//! node substitution costs 0 on a candidate pair at ξ and 1 otherwise; node
//! insertion/deletion and edge insertion/deletion cost 1. Like the MCS
//! comparator, the solver is exponential, so it carries a wall-clock
//! budget and falls back to a greedy edit path (an upper bound) on
//! timeout — reproducing the "did not run to completion" behaviour the
//! paper reports for its exact comparator.

use phom_graph::{DiGraph, NodeId};
use phom_sim::{candidate_floor, SimMatrix};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Outcome of a GED computation.
#[derive(Debug, Clone)]
pub struct EditResult {
    /// The (exact, or on timeout upper-bound) edit distance.
    pub distance: usize,
    /// True when the budget expired before the search proved optimality;
    /// `distance` is then the best upper bound found.
    pub timed_out: bool,
    /// Normalized similarity `1 - distance / (|V1|+|V2|+|E1|+|E2|)`,
    /// in `[0, 1]` and comparable across graph sizes. 1 iff the graphs
    /// are identical up to a zero-cost relabeling.
    pub similarity: f64,
}

/// One assignment decision for a pattern node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    /// Pattern node mapped to this data node.
    To(NodeId),
    /// Pattern node deleted.
    Deleted,
}

#[derive(Clone)]
struct State {
    /// Edit cost paid so far.
    cost: usize,
    /// Decisions for pattern nodes `0..decided.len()`.
    decided: Vec<Slot>,
}

/// Priority-queue key: `f = g + h` with the node-count-difference lower
/// bound as `h` (admissible: every surplus node must be inserted or
/// deleted at cost ≥ 1 and edge costs are non-negative).
fn f_key(s: &State, n1: usize, n2: usize) -> usize {
    let remaining_pattern = n1 - s.decided.len();
    let used: usize = s
        .decided
        .iter()
        .filter(|d| matches!(d, Slot::To(_)))
        .count();
    let unused_data = n2 - used;
    s.cost + remaining_pattern.abs_diff(unused_data)
}

/// Incremental edge cost of deciding pattern node `v` (index
/// `state.decided.len()`) as `slot`, against all earlier decisions.
fn edge_delta<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    decided: &[Slot],
    v: NodeId,
    slot: Slot,
) -> usize {
    let mut cost = 0usize;
    for (j, d) in decided.iter().enumerate() {
        let vj = NodeId(j as u32);
        let fwd = g1.has_edge(v, vj); // (v, vj) in E1
        let bwd = g1.has_edge(vj, v);
        match (slot, *d) {
            (Slot::To(u), Slot::To(uj)) => {
                cost += usize::from(fwd != g2.has_edge(u, uj));
                cost += usize::from(bwd != g2.has_edge(uj, u));
            }
            // Any pattern edge touching a deleted node is deleted.
            _ => cost += usize::from(fwd) + usize::from(bwd),
        }
    }
    // Self-loops are decided together with the node itself.
    if g1.has_edge(v, v) {
        match slot {
            Slot::To(u) => cost += usize::from(!g2.has_edge(u, u)),
            Slot::Deleted => cost += 1,
        }
    } else if let Slot::To(u) = slot {
        cost += usize::from(g2.has_edge(u, u));
    }
    cost
}

/// Cost of inserting everything in `g2` not covered by the image of a
/// complete assignment: unused data nodes, plus data edges with at least
/// one unused endpoint (edges between used images were charged pairwise).
fn finalize_cost<L>(g2: &DiGraph<L>, decided: &[Slot]) -> usize {
    let mut used = vec![false; g2.node_count()];
    for d in decided {
        if let Slot::To(u) = d {
            used[u.index()] = true;
        }
    }
    let node_ins = used.iter().filter(|&&x| !x).count();
    let edge_ins = g2
        .edges()
        .filter(|&(x, y)| !used[x.index()] || !used[y.index()])
        .count();
    node_ins + edge_ins
}

/// Substitution cost: 0 when `(v, u)` is a candidate at `xi`
/// ([`candidate_floor`]), else 1 (relabeling).
fn sub_cost(mat: &SimMatrix, xi: f64, v: NodeId, u: NodeId) -> usize {
    usize::from(mat.score(v, u) < candidate_floor(xi))
}

/// Greedy edit path: decide pattern nodes in order, taking the locally
/// cheapest slot. Always completes; yields an upper bound on GED.
fn greedy_upper_bound<L>(g1: &DiGraph<L>, g2: &DiGraph<L>, mat: &SimMatrix, xi: f64) -> usize {
    let n1 = g1.node_count();
    let mut decided: Vec<Slot> = Vec::with_capacity(n1);
    let mut used = vec![false; g2.node_count()];
    let mut cost = 0usize;
    for v in g1.nodes() {
        // Deletion option.
        let mut best_slot = Slot::Deleted;
        let mut best_cost = 1 + edge_delta(g1, g2, &decided, v, Slot::Deleted);
        for u in g2.nodes() {
            if used[u.index()] {
                continue;
            }
            let c = sub_cost(mat, xi, v, u) + edge_delta(g1, g2, &decided, v, Slot::To(u));
            if c < best_cost {
                best_cost = c;
                best_slot = Slot::To(u);
            }
        }
        cost += best_cost;
        if let Slot::To(u) = best_slot {
            used[u.index()] = true;
        }
        decided.push(best_slot);
    }
    cost + finalize_cost(g2, &decided)
}

/// Computes the graph edit distance between `g1` and `g2` under uniform
/// costs, with node compatibility given by candidacy at `xi`.
///
/// Exact when it finishes within `budget`; otherwise returns the best
/// upper bound seen (greedy completion or partially explored search) with
/// `timed_out = true`.
///
/// ```
/// use phom_baselines::graph_edit_distance;
/// use phom_graph::graph_from_labels;
/// use phom_sim::SimMatrix;
/// use std::time::Duration;
///
/// let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
/// let g2 = graph_from_labels(&["a", "b"], &[]);
/// let mat = SimMatrix::label_equality(&g1, &g2);
/// let r = graph_edit_distance(&g1, &g2, &mat, 1.0, Duration::from_secs(1));
/// assert_eq!(r.distance, 1); // delete the one edge
/// assert!(!r.timed_out);
/// ```
pub fn graph_edit_distance<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
    budget: Duration,
) -> EditResult {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    // phom-lint: allow(clock, "monotonic deadline for the A* time budget; no wall-clock semantics")
    let deadline = Instant::now() + budget;
    let worst = n1 + n2 + g1.edge_count() + g2.edge_count();

    let mut upper = greedy_upper_bound(g1, g2, mat, xi);
    let mut timed_out = false;

    // A* over assignment prefixes. Entries: Reverse((f, cost, decided)).
    let mut heap: BinaryHeap<Reverse<(usize, usize, Vec<Slot>)>> = BinaryHeap::new();
    heap.push(Reverse((0, 0, Vec::new())));

    while let Some(Reverse((f, cost, decided))) = heap.pop() {
        if f >= upper {
            break; // everything left is no better than the incumbent
        }
        // phom-lint: allow(clock, "monotonic deadline check for the A* time budget; no wall-clock semantics")
        if Instant::now() >= deadline {
            timed_out = true;
            break;
        }
        if decided.len() == n1 {
            let total = cost + finalize_cost(g2, &decided);
            if total < upper {
                upper = total;
            }
            continue;
        }
        let v = NodeId(decided.len() as u32);
        let push = |slot: Slot, extra: usize, heap: &mut BinaryHeap<_>| {
            let mut next = decided.clone();
            next.push(slot);
            let c = cost + extra;
            let s = State {
                cost: c,
                decided: next,
            };
            let f = f_key(&s, n1, n2);
            if f < upper {
                heap.push(Reverse((f, s.cost, s.decided)));
            }
        };
        // Deletion branch.
        push(
            Slot::Deleted,
            1 + edge_delta(g1, g2, &decided, v, Slot::Deleted),
            &mut heap,
        );
        // Substitution branches.
        let used: Vec<bool> = {
            let mut m = vec![false; n2];
            for d in &decided {
                if let Slot::To(u) = d {
                    m[u.index()] = true;
                }
            }
            m
        };
        for u in g2.nodes() {
            if used[u.index()] {
                continue;
            }
            push(
                Slot::To(u),
                sub_cost(mat, xi, v, u) + edge_delta(g1, g2, &decided, v, Slot::To(u)),
                &mut heap,
            );
        }
    }

    let similarity = if worst == 0 {
        1.0
    } else {
        1.0 - (upper.min(worst) as f64 / worst as f64)
    };
    EditResult {
        distance: upper,
        timed_out,
        similarity,
    }
}

/// Beam-search GED: like the A\* search but keeping only the `width`
/// best prefixes per depth level. Polynomial
/// (`O(n1 · width · n2 log)`-ish) instead of exponential, at the price
/// of optimality: the returned `distance` is always a valid **upper
/// bound** (never below the true GED), tight in practice for moderate
/// widths — the standard scalable GED mode in the literature \[31\].
/// `timed_out` is always `false`; approximation, not truncation.
pub fn beam_edit_distance<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
    width: usize,
) -> EditResult {
    assert!(width > 0, "beam width must be positive");
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let worst = n1 + n2 + g1.edge_count() + g2.edge_count();

    let mut level: Vec<State> = vec![State {
        cost: 0,
        decided: Vec::new(),
    }];
    for vi in 0..n1 {
        let v = NodeId(vi as u32);
        let mut next: Vec<State> = Vec::with_capacity(level.len() * (n2 + 1));
        for s in &level {
            // Deletion branch.
            next.push(State {
                cost: s.cost + 1 + edge_delta(g1, g2, &s.decided, v, Slot::Deleted),
                decided: {
                    let mut d = s.decided.clone();
                    d.push(Slot::Deleted);
                    d
                },
            });
            // Substitution branches.
            let mut used = vec![false; n2];
            for d in &s.decided {
                if let Slot::To(u) = d {
                    used[u.index()] = true;
                }
            }
            for u in g2.nodes() {
                if used[u.index()] {
                    continue;
                }
                next.push(State {
                    cost: s.cost
                        + sub_cost(mat, xi, v, u)
                        + edge_delta(g1, g2, &s.decided, v, Slot::To(u)),
                    decided: {
                        let mut d = s.decided.clone();
                        d.push(Slot::To(u));
                        d
                    },
                });
            }
        }
        next.sort_by_key(|s| f_key(s, n1, n2));
        next.truncate(width);
        level = next;
    }

    let upper = level
        .iter()
        .map(|s| s.cost + finalize_cost(g2, &s.decided))
        .min()
        .unwrap_or(worst)
        .min(worst);
    let similarity = if worst == 0 {
        1.0
    } else {
        1.0 - (upper as f64 / worst as f64)
    };
    EditResult {
        distance: upper,
        timed_out: false,
        similarity,
    }
}

/// Convenience wrapper: GED similarity with label-equality compatibility,
/// comparable to the other baselines' quality scores.
pub fn ged_similarity<L: PartialEq>(g1: &DiGraph<L>, g2: &DiGraph<L>, budget: Duration) -> f64 {
    let mat = SimMatrix::label_equality(g1, g2);
    graph_edit_distance(g1, g2, &mat, 1.0, budget).similarity
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    const BUDGET: Duration = Duration::from_secs(5);

    fn eq_mat<L: PartialEq>(g1: &DiGraph<L>, g2: &DiGraph<L>) -> SimMatrix {
        SimMatrix::label_equality(g1, g2)
    }

    #[test]
    fn identical_graphs_have_zero_distance() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let r = graph_edit_distance(&g, &g, &eq_mat(&g, &g), 1.0, BUDGET);
        assert_eq!(r.distance, 0);
        assert!(!r.timed_out);
        assert_eq!(r.similarity, 1.0);
    }

    #[test]
    fn empty_graphs_are_identical() {
        let g: DiGraph<&str> = DiGraph::new();
        let r = graph_edit_distance(&g, &g, &SimMatrix::new(0, 0), 1.0, BUDGET);
        assert_eq!(r.distance, 0);
        assert_eq!(r.similarity, 1.0);
    }

    #[test]
    fn single_edge_deletion_costs_one() {
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b"], &[]);
        let r = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, BUDGET);
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn node_insertion_costs_one() {
        let g1 = graph_from_labels(&["a"], &[]);
        let g2 = graph_from_labels(&["a", "b"], &[]);
        let r = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, BUDGET);
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn relabel_costs_one() {
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "c"], &[("a", "c")]);
        let r = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, BUDGET);
        assert_eq!(r.distance, 1, "substitute b -> c, keep the edge");
    }

    #[test]
    fn edge_direction_matters() {
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b"], &[("b", "a")]);
        let r = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, BUDGET);
        assert_eq!(r.distance, 2, "delete one directed edge, insert the other");
    }

    #[test]
    fn self_loop_counts() {
        let mut g1: DiGraph<String> = DiGraph::new();
        let a = g1.add_node("a".to_string());
        g1.add_edge(a, a);
        let g2 = graph_from_labels(&["a"], &[]);
        let r = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, BUDGET);
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn distance_is_symmetric_on_small_graphs() {
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c"), ("c", "a")]);
        let g2 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let d12 = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, BUDGET).distance;
        let d21 = graph_edit_distance(&g2, &g1, &eq_mat(&g2, &g1), 1.0, BUDGET).distance;
        assert_eq!(d12, d21, "uniform costs are symmetric");
    }

    #[test]
    fn zero_budget_times_out_with_upper_bound() {
        let labels: Vec<String> = (0..8).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let mut edges = Vec::new();
        for i in 0..7usize {
            edges.push((refs[i], refs[i + 1]));
        }
        let g1 = graph_from_labels(&refs, &edges);
        let g2 = graph_from_labels(&refs[..6], &edges[..4]);
        let r = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, Duration::ZERO);
        assert!(r.timed_out);
        // The greedy bound must still be a legal distance value.
        let exact = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, BUDGET);
        assert!(r.distance >= exact.distance);
    }

    #[test]
    fn ged_similarity_orders_near_and_far() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let near = graph_from_labels(&["a", "b", "c"], &[("a", "b")]);
        let far = graph_from_labels(&["x", "y"], &[("y", "x")]);
        let s_near = ged_similarity(&g, &near, BUDGET);
        let s_far = ged_similarity(&g, &far, BUDGET);
        assert!(s_near > s_far, "{s_near} vs {s_far}");
        assert!(ged_similarity(&g, &g, BUDGET) == 1.0);
    }

    #[test]
    fn beam_is_exact_on_identical_graphs() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let r = beam_edit_distance(&g, &g, &eq_mat(&g, &g), 1.0, 4);
        assert_eq!(r.distance, 0);
        assert_eq!(r.similarity, 1.0);
    }

    #[test]
    fn beam_upper_bounds_exact() {
        let g1 = graph_from_labels(&["a", "b", "c", "d"], &[("a", "b"), ("b", "c"), ("c", "d")]);
        let g2 = graph_from_labels(&["a", "c", "d"], &[("a", "c"), ("c", "d")]);
        let exact = graph_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, BUDGET);
        assert!(!exact.timed_out);
        for width in [1usize, 2, 8, 64] {
            let beam = beam_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, width);
            assert!(beam.distance >= exact.distance, "width {width}");
        }
        // A wide beam on this small instance reaches the optimum.
        let wide = beam_edit_distance(&g1, &g2, &eq_mat(&g1, &g2), 1.0, 1024);
        assert_eq!(wide.distance, exact.distance);
    }

    #[test]
    fn beam_stays_within_worst_case_at_any_width() {
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("a", "c")]);
        let g2 = graph_from_labels(&["a", "b", "x"], &[("a", "b"), ("b", "x")]);
        let mat = eq_mat(&g1, &g2);
        let worst = g1.node_count() + g2.node_count() + g1.edge_count() + g2.edge_count();
        let exact = graph_edit_distance(&g1, &g2, &mat, 1.0, BUDGET).distance;
        for width in [1usize, 4, 16, 256] {
            let r = beam_edit_distance(&g1, &g2, &mat, 1.0, width);
            assert!(r.distance >= exact, "width {width} below exact");
            assert!(r.distance <= worst, "width {width} above worst case");
            assert!((0.0..=1.0).contains(&r.similarity));
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_small_graph() -> impl Strategy<Value = DiGraph<u8>> {
            (
                1usize..5,
                proptest::collection::vec((0usize..5, 0usize..5), 0..8),
            )
                .prop_map(|(n, raw)| {
                    let mut g = DiGraph::with_capacity(n);
                    for i in 0..n {
                        g.add_node((i % 3) as u8);
                    }
                    for (a, b) in raw {
                        g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                    }
                    g
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn prop_ged_zero_on_self(g in arb_small_graph()) {
                let mat = SimMatrix::label_equality(&g, &g);
                let r = graph_edit_distance(&g, &g, &mat, 1.0, BUDGET);
                prop_assert_eq!(r.distance, 0);
            }

            #[test]
            fn prop_ged_symmetric(g1 in arb_small_graph(), g2 in arb_small_graph()) {
                let d12 = graph_edit_distance(
                    &g1, &g2, &SimMatrix::label_equality(&g1, &g2), 1.0, BUDGET);
                let d21 = graph_edit_distance(
                    &g2, &g1, &SimMatrix::label_equality(&g2, &g1), 1.0, BUDGET);
                prop_assert!(!d12.timed_out && !d21.timed_out);
                prop_assert_eq!(d12.distance, d21.distance);
            }

            #[test]
            fn prop_ged_bounded_by_worst_case(g1 in arb_small_graph(), g2 in arb_small_graph()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let r = graph_edit_distance(&g1, &g2, &mat, 1.0, BUDGET);
                let worst = g1.node_count() + g2.node_count()
                    + g1.edge_count() + g2.edge_count();
                prop_assert!(r.distance <= worst, "{} > {}", r.distance, worst);
                prop_assert!((0.0..=1.0).contains(&r.similarity));
            }

            /// Beam search is a genuine upper bound on the exact GED at
            /// every width, and coincides with it at saturating width.
            #[test]
            fn prop_beam_upper_bounds_exact(
                g1 in arb_small_graph(),
                g2 in arb_small_graph(),
                width in 1usize..12,
            ) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let exact = graph_edit_distance(&g1, &g2, &mat, 1.0, BUDGET);
                prop_assume!(!exact.timed_out);
                let beam = beam_edit_distance(&g1, &g2, &mat, 1.0, width);
                prop_assert!(beam.distance >= exact.distance);
                // Saturating width explores every prefix: optimal.
                let wide = beam_edit_distance(&g1, &g2, &mat, 1.0, 100_000);
                prop_assert_eq!(wide.distance, exact.distance);
            }
        }
    }
}
