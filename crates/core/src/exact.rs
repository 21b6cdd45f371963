//! Exact procedures for the (1-1) p-hom **decision** problems of §3.2 and
//! the **optimization** problems of §3.3 (Table 1).
//!
//! Both problems are NP-complete (Theorem 4.1, Corollary 4.2), so these are
//! exponential backtracking searches with forward pruning — usable as
//! ground truth on small instances (hardness-gadget tests, approximation-
//! quality measurements) and as exact solvers for patterns of ≲ 20 nodes,
//! where Appendix B notes exact solving is affordable.

use crate::budget::MatchBudget;
use crate::mapping::PHomMapping;
use phom_graph::{DiGraph, NodeId, ReachabilityIndex, TransitiveClosure};
use phom_sim::{NodeWeights, SimMatrix};

/// Shared search state.
struct Search<'a> {
    closure: &'a dyn ReachabilityIndex,
    mat: &'a SimMatrix,
    injective: bool,
    /// Candidate lists per pattern node (static, threshold- and
    /// self-loop-filtered).
    cands: Vec<Vec<NodeId>>,
    /// Each pattern node's `post` and `prev` lists, looked up once: the
    /// consistency check runs per search step.
    post: Vec<&'a [NodeId]>,
    prev: Vec<&'a [NodeId]>,
}

impl<'a> Search<'a> {
    fn new<L>(
        g1: &'a DiGraph<L>,
        closure: &'a dyn ReachabilityIndex,
        mat: &'a SimMatrix,
        xi: f64,
        injective: bool,
    ) -> Self {
        let cands: Vec<Vec<NodeId>> = g1
            .nodes()
            .map(|v| {
                let self_loop = g1.has_self_loop(v);
                mat.candidates(v, xi)
                    .filter(|&u| !self_loop || closure.reaches(u, u))
                    .collect()
            })
            .collect();
        Self {
            closure,
            mat,
            injective,
            cands,
            post: g1.nodes().map(|v| g1.post(v)).collect(),
            prev: g1.nodes().map(|v| g1.prev(v)).collect(),
        }
    }

    /// True when assigning `u` to `v` is consistent with the partial
    /// assignment (edge-to-path in both directions; injectivity).
    fn consistent(&self, assign: &[Option<NodeId>], v: NodeId, u: NodeId) -> bool {
        if self.injective && assign.iter().flatten().any(|&x| x == u) {
            return false;
        }
        for &child in self.post[v.index()] {
            if child == v {
                continue; // self-loop handled statically
            }
            if let Some(cu) = assign[child.index()] {
                if !self.closure.reaches(u, cu) {
                    return false;
                }
            }
        }
        for &parent in self.prev[v.index()] {
            if parent == v {
                continue;
            }
            if let Some(pu) = assign[parent.index()] {
                if !self.closure.reaches(pu, u) {
                    return false;
                }
            }
        }
        true
    }
}

/// Decides `G1 ≼(e,p) G2` (or `≼1-1` when `injective`), returning a witness
/// mapping of the **entire** pattern when one exists.
///
/// Exponential in the worst case (the problem is NP-complete even on DAGs,
/// Theorem 4.1); intended for small inputs and test oracles.
///
/// ```
/// use phom_core::decide_phom;
/// use phom_graph::graph_from_labels;
/// use phom_sim::SimMatrix;
///
/// let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
/// let fwd = graph_from_labels(&["a", "b"], &[("a", "b")]);
/// let rev = graph_from_labels(&["a", "b"], &[("b", "a")]);
/// let m1 = SimMatrix::label_equality(&g1, &fwd);
/// let m2 = SimMatrix::label_equality(&g1, &rev);
/// assert!(decide_phom(&g1, &fwd, &m1, 1.0, false).is_some());
/// assert!(decide_phom(&g1, &rev, &m2, 1.0, false).is_none()); // no path a ~> b
/// ```
pub fn decide_phom<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
) -> Option<PHomMapping> {
    let closure = TransitiveClosure::new(g2);
    decide_phom_with(g1, &closure, mat, xi, injective)
}

/// [`decide_phom`] with a precomputed closure of `G2`.
pub fn decide_phom_with<L>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
) -> Option<PHomMapping> {
    let n1 = g1.node_count();
    let search = Search::new(g1, closure, mat, xi, injective);
    if search.cands.iter().any(|c| c.is_empty()) && n1 > 0 {
        return None; // some node cannot match at all
    }

    // Order pattern nodes by ascending candidate count (fail-first).
    let mut order: Vec<NodeId> = g1.nodes().collect();
    order.sort_by_key(|v| search.cands[v.index()].len());

    let mut assign: Vec<Option<NodeId>> = vec![None; n1];
    fn backtrack(
        s: &Search<'_>,
        order: &[NodeId],
        depth: usize,
        assign: &mut Vec<Option<NodeId>>,
    ) -> bool {
        let Some(&v) = order.get(depth) else {
            return true;
        };
        for idx in 0..s.cands[v.index()].len() {
            let u = s.cands[v.index()][idx];
            if s.consistent(assign, v, u) {
                assign[v.index()] = Some(u);
                if backtrack(s, order, depth + 1, assign) {
                    return true;
                }
                assign[v.index()] = None;
            }
        }
        false
    }

    if backtrack(&search, &order, 0, &mut assign) {
        Some(PHomMapping::from_pairs(
            n1,
            assign
                .iter()
                .enumerate()
                // phom-lint: allow(unwrap, "backtrack returning true means every pattern node received an assignment")
                .map(|(v, u)| (NodeId(v as u32), u.expect("full assignment"))),
        ))
    } else {
        None
    }
}

/// Counts **all** total (1-1) p-hom mappings from `g1` to `g2` —
/// model counting for the decision problem. Exponential; test/demo use
/// (e.g. on the Appendix A gadgets the count equals the number of
/// satisfying assignments / exact covers × slot symmetries).
pub fn count_phom_mappings<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
) -> u64 {
    let closure = TransitiveClosure::new(g2);
    let search = Search::new(g1, &closure, mat, xi, injective);
    let n1 = g1.node_count();
    if n1 == 0 {
        return 1; // the empty mapping is the unique total mapping
    }
    if search.cands.iter().any(|c| c.is_empty()) {
        return 0;
    }
    let mut order: Vec<NodeId> = g1.nodes().collect();
    order.sort_by_key(|v| search.cands[v.index()].len());

    fn go(s: &Search<'_>, order: &[NodeId], depth: usize, assign: &mut Vec<Option<NodeId>>) -> u64 {
        let Some(&v) = order.get(depth) else {
            return 1;
        };
        let mut total = 0u64;
        for idx in 0..s.cands[v.index()].len() {
            let u = s.cands[v.index()][idx];
            if s.consistent(assign, v, u) {
                assign[v.index()] = Some(u);
                total += go(s, order, depth + 1, assign);
                assign[v.index()] = None;
            }
        }
        total
    }

    let mut assign = vec![None; n1];
    go(&search, &order, 0, &mut assign)
}

/// What the exact optimizer should maximize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `qualCard`: the number of mapped nodes.
    Cardinality,
    /// `qualSim`: the weighted similarity mass.
    Similarity,
}

/// Exact optimum for the four problems of Table 1 (CPH, CPH¹⁻¹, SPH,
/// SPH¹⁻¹): the best (1-1) p-hom mapping from *a subgraph* of `G1` to
/// `G2`. Branch and bound; exponential — test oracle for approximation
/// quality (Proposition 5.2's bound is checked against this in tests).
pub fn exact_optimum<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
    objective: Objective,
    weights: &NodeWeights,
) -> PHomMapping {
    let closure = TransitiveClosure::new(g2);
    exact_optimum_with(g1, &closure, mat, xi, injective, objective, weights)
}

/// [`exact_optimum`] with a precomputed closure of `G2` — the entry point
/// the prepared-graph engine uses so a batch of exact-planned queries
/// shares one closure computation.
pub fn exact_optimum_with<L>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
    objective: Objective,
    weights: &NodeWeights,
) -> PHomMapping {
    exact_optimum_budgeted(
        g1,
        closure,
        mat,
        xi,
        injective,
        objective,
        weights,
        MatchBudget::unlimited(),
    )
    .0
}

/// Budget ticker for the exact search: the branch-and-bound visits nodes
/// far faster than a monotonic-clock read, so the deadline is polled once
/// every `STRIDE` visited search nodes.
struct BudgetTicker {
    budget: MatchBudget,
    ticks: u32,
    expired: bool,
}

impl BudgetTicker {
    const STRIDE: u32 = 64;

    fn new(budget: MatchBudget) -> Self {
        BudgetTicker {
            budget,
            ticks: 0,
            // A zero/past deadline is expired before the first branch —
            // the deterministic "return the empty mapping now" probe.
            expired: budget.expired(),
        }
    }

    /// True once the deadline has passed; polls the clock every
    /// [`BudgetTicker::STRIDE`] calls.
    fn expired(&mut self) -> bool {
        if self.expired {
            return true;
        }
        if !self.budget.is_limited() {
            return false;
        }
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(Self::STRIDE) && self.budget.expired() {
            self.expired = true;
        }
        self.expired
    }
}

/// [`exact_optimum_with`] under a per-query deadline: the branch-and-bound
/// stops at the next search-node boundary once `budget` expires and
/// returns its **best-so-far** mapping plus a flag reporting whether the
/// search was cut short (`true` = timed out; the mapping is still a valid
/// (1-1) p-hom mapping, just not certified optimal). A
/// [`MatchBudget::unlimited`] budget never expires and certifies the
/// optimum, and a zero timeout deterministically returns the empty
/// mapping — this is what makes `prefer_exact`-routed engine queries
/// honor the same deadlines as the approximate plans.
#[allow(clippy::too_many_arguments)]
pub fn exact_optimum_budgeted<L>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
    objective: Objective,
    weights: &NodeWeights,
    budget: MatchBudget,
) -> (PHomMapping, bool) {
    assert_eq!(weights.len(), g1.node_count());
    let n1 = g1.node_count();
    let search = Search::new(g1, closure, mat, xi, injective);

    // Node gain when mapped: 1 for cardinality, max attainable weighted
    // similarity for the optimistic bound in similarity mode.
    let gain_bound: Vec<f64> = g1
        .nodes()
        .map(|v| match objective {
            Objective::Cardinality => {
                if search.cands[v.index()].is_empty() {
                    0.0
                } else {
                    1.0
                }
            }
            Objective::Similarity => search.cands[v.index()]
                .iter()
                .map(|&u| weights.get(v) * search.mat.score(v, u))
                .fold(0.0, f64::max),
        })
        .collect();

    struct Best {
        assign: Vec<Option<NodeId>>,
        value: f64,
    }
    let mut best = Best {
        assign: vec![None; n1],
        value: 0.0,
    };

    #[allow(clippy::too_many_arguments)]
    fn go(
        s: &Search<'_>,
        objective: Objective,
        weights: &NodeWeights,
        gain_bound: &[f64],
        v_idx: usize,
        assign: &mut Vec<Option<NodeId>>,
        value: f64,
        best: &mut Best,
        ticker: &mut BudgetTicker,
    ) {
        if ticker.expired() {
            return; // best-so-far stands; unwind without exploring
        }
        if v_idx == assign.len() {
            if value > best.value {
                best.value = value;
                best.assign = assign.clone();
            }
            return;
        }
        // Optimistic bound: current value + best possible gain of the rest.
        let optimistic: f64 = value + gain_bound[v_idx..].iter().sum::<f64>();
        if optimistic <= best.value {
            return;
        }
        let v = NodeId(v_idx as u32);
        // Branch: assign each consistent candidate.
        for idx in 0..s.cands[v_idx].len() {
            let u = s.cands[v_idx][idx];
            if s.consistent(assign, v, u) {
                assign[v_idx] = Some(u);
                let gain = match objective {
                    Objective::Cardinality => 1.0,
                    Objective::Similarity => weights.get(v) * s.mat.score(v, u),
                };
                go(
                    s,
                    objective,
                    weights,
                    gain_bound,
                    v_idx + 1,
                    assign,
                    value + gain,
                    best,
                    ticker,
                );
                assign[v_idx] = None;
            }
        }
        // Branch: leave v unmapped.
        go(
            s,
            objective,
            weights,
            gain_bound,
            v_idx + 1,
            assign,
            value,
            best,
            ticker,
        );
    }

    let mut assign = vec![None; n1];
    let mut ticker = BudgetTicker::new(budget);
    go(
        &search,
        objective,
        weights,
        &gain_bound,
        0,
        &mut assign,
        0.0,
        &mut best,
        &mut ticker,
    );

    (
        PHomMapping::from_pairs(
            n1,
            best.assign
                .iter()
                .enumerate()
                .filter_map(|(v, u)| u.map(|u| (NodeId(v as u32), u))),
        ),
        ticker.expired,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{comp_max_card, comp_max_card_1_1, AlgoConfig};
    use crate::mapping::verify_phom;
    use phom_graph::graph_from_labels;
    use phom_sim::matrix_from_label_fn;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn decide_edge_to_path() {
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "x", "b"], &[("a", "x"), ("x", "b")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let m = decide_phom(&g1, &g2, &mat, 0.5, true).expect("edge maps to path");
        assert_eq!(m.get(n(0)), Some(n(0)));
        assert_eq!(m.get(n(1)), Some(n(2)));
    }

    #[test]
    fn decide_rejects_reversed_edge() {
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b"], &[("b", "a")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        assert!(decide_phom(&g1, &g2, &mat, 0.5, false).is_none());
    }

    #[test]
    fn decide_distinguishes_phom_from_one_one() {
        // Fig. 2 G5/G6 shape: two B-labeled pattern nodes, one B in data.
        let mut g1: DiGraph<String> = DiGraph::new();
        let a = g1.add_node("A".into());
        let b1 = g1.add_node("B".into());
        let b2 = g1.add_node("B".into());
        g1.add_edge(a, b1);
        g1.add_edge(a, b2);
        let g2 = graph_from_labels(&["A", "B"], &[("A", "B")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        assert!(decide_phom(&g1, &g2, &mat, 0.5, false).is_some(), "G5 ≼ G6");
        assert!(
            decide_phom(&g1, &g2, &mat, 0.5, true).is_none(),
            "G5 !≼1-1 G6"
        );
    }

    #[test]
    fn decide_requires_threshold() {
        let g1 = graph_from_labels(&["a"], &[]);
        let g2 = graph_from_labels(&["b"], &[]);
        let mat = matrix_from_label_fn(&g1, &g2, |_, _| 0.59);
        assert!(decide_phom(&g1, &g2, &mat, 0.6, false).is_none());
        assert!(decide_phom(&g1, &g2, &mat, 0.59, false).is_some());
    }

    #[test]
    fn decide_empty_pattern_trivially_holds() {
        let g1: DiGraph<String> = DiGraph::new();
        let g2 = graph_from_labels(&["a"], &[]);
        let mat = SimMatrix::new(0, 1);
        assert!(decide_phom(&g1, &g2, &mat, 0.5, true).is_some());
    }

    #[test]
    fn decide_self_loop_needs_cycle() {
        let mut g1: DiGraph<String> = DiGraph::new();
        let a = g1.add_node("n".into());
        g1.add_edge(a, a);
        let g2_acyclic = graph_from_labels(&["n"], &[]);
        let mat = SimMatrix::label_equality(&g1, &g2_acyclic);
        assert!(decide_phom(&g1, &g2_acyclic, &mat, 0.5, false).is_none());

        let mut g2_cyclic: DiGraph<String> = DiGraph::new();
        let x = g2_cyclic.add_node("n".into());
        g2_cyclic.add_edge(x, x);
        let mat2 = SimMatrix::label_equality(&g1, &g2_cyclic);
        assert!(decide_phom(&g1, &g2_cyclic, &mat2, 0.5, false).is_some());
    }

    #[test]
    fn exact_optimum_cardinality_dominates_approximation() {
        let g1 = graph_from_labels(&["r", "a", "b", "c"], &[("r", "a"), ("r", "b"), ("b", "c")]);
        let g2 = graph_from_labels(
            &["r", "x", "a", "b", "c"],
            &[("r", "x"), ("x", "a"), ("x", "b"), ("b", "c")],
        );
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w = NodeWeights::uniform(4);
        let exact = exact_optimum(&g1, &g2, &mat, 0.5, false, Objective::Cardinality, &w);
        assert_eq!(exact.len(), 4, "everything matches via paths");
        let approx = comp_max_card(&g1, &g2, &mat, &AlgoConfig::default());
        assert!(approx.len() <= exact.len());
    }

    #[test]
    fn exact_optimum_similarity_prefers_heavy() {
        // One heavy node conflicting with two light nodes.
        let mut g1: DiGraph<String> = DiGraph::new();
        let hub = g1.add_node("H".into());
        let l1 = g1.add_node("L".into());
        let l2 = g1.add_node("L".into());
        g1.add_edge(hub, l1);
        g1.add_edge(hub, l2);
        // Data graph where the hub image has no outgoing paths: choosing the
        // hub forbids the leaves.
        let g2 = graph_from_labels(&["H", "L"], &[("L", "H")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w_heavy = NodeWeights::from_vec(vec![10.0, 1.0, 1.0]);
        let m = exact_optimum(&g1, &g2, &mat, 0.5, false, Objective::Similarity, &w_heavy);
        assert_eq!(m.get(n(0)), Some(n(0)), "hub chosen");
        // Both leaves want the single L; with p-hom they can share it but
        // the edge hub->leaf has no witness path, so leaves stay unmapped.
        assert_eq!(m.len(), 1);

        let w_light = NodeWeights::from_vec(vec![1.0, 1.0, 1.0]);
        let m2 = exact_optimum(&g1, &g2, &mat, 0.5, false, Objective::Cardinality, &w_light);
        assert_eq!(m2.len(), 2, "cardinality prefers the two leaves");
        assert_eq!(m2.get(n(0)), None);
    }

    #[test]
    fn zero_budget_exact_returns_empty_best_so_far_deterministically() {
        let g1 = graph_from_labels(&["r", "a", "b", "c"], &[("r", "a"), ("r", "b"), ("b", "c")]);
        let g2 = graph_from_labels(
            &["r", "x", "a", "b", "c"],
            &[("r", "x"), ("x", "a"), ("x", "b"), ("b", "c")],
        );
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w = NodeWeights::uniform(4);
        let closure = TransitiveClosure::new(&g2);
        let (m, timed_out) = exact_optimum_budgeted(
            &g1,
            &closure,
            &mat,
            0.5,
            false,
            Objective::Cardinality,
            &w,
            crate::MatchBudget::with_timeout(std::time::Duration::ZERO),
        );
        assert!(timed_out, "zero budget is expired before the first branch");
        assert!(m.is_empty(), "best-so-far is the empty mapping");
    }

    #[test]
    fn unlimited_budget_exact_reports_no_timeout() {
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "x", "b"], &[("a", "x"), ("x", "b")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w = NodeWeights::uniform(2);
        let closure = TransitiveClosure::new(&g2);
        let (m, timed_out) = exact_optimum_budgeted(
            &g1,
            &closure,
            &mat,
            0.5,
            false,
            Objective::Cardinality,
            &w,
            crate::MatchBudget::unlimited(),
        );
        assert!(!timed_out);
        assert_eq!(m.len(), 2);
        // And a generous (not-yet-expired) budget certifies the same
        // optimum as the unlimited one.
        let (m2, timed_out2) = exact_optimum_budgeted(
            &g1,
            &closure,
            &mat,
            0.5,
            false,
            Objective::Cardinality,
            &w,
            crate::MatchBudget::with_timeout(std::time::Duration::from_secs(3600)),
        );
        assert!(!timed_out2);
        assert_eq!(
            m.pairs().collect::<Vec<_>>(),
            m2.pairs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn count_simple_instances() {
        let g1 = graph_from_labels(&["a"], &[]);
        let mut g2: DiGraph<String> = DiGraph::new();
        g2.add_node("a".into());
        g2.add_node("a".into());
        let mat = SimMatrix::label_equality(&g1, &g2);
        assert_eq!(count_phom_mappings(&g1, &g2, &mat, 0.5, false), 2);

        // Empty pattern: exactly one (empty) mapping.
        let empty: DiGraph<String> = DiGraph::new();
        assert_eq!(
            count_phom_mappings(&empty, &g2, &SimMatrix::new(0, 2), 0.5, true),
            1
        );

        // No candidates: zero.
        let g3 = graph_from_labels(&["z"], &[]);
        let mat3 = SimMatrix::label_equality(&g3, &g2);
        assert_eq!(count_phom_mappings(&g3, &g2, &mat3, 0.5, false), 0);
    }

    #[test]
    fn count_respects_injectivity() {
        // Two pattern nodes, two data nodes, all compatible:
        // p-hom: 4 mappings; 1-1: 2 (permutations).
        let mut g1: DiGraph<String> = DiGraph::new();
        g1.add_node("a".into());
        g1.add_node("a".into());
        let mut g2: DiGraph<String> = DiGraph::new();
        g2.add_node("a".into());
        g2.add_node("a".into());
        let mat = SimMatrix::label_equality(&g1, &g2);
        assert_eq!(count_phom_mappings(&g1, &g2, &mat, 0.5, false), 4);
        assert_eq!(count_phom_mappings(&g1, &g2, &mat, 0.5, true), 2);
    }

    #[test]
    fn gadget_count_equals_satisfying_assignments() {
        use crate::reductions::{three_sat_to_phom, Cnf3, Lit};
        // φ = (x0 ∨ x1 ∨ x2): 7 of 8 assignments satisfy it.
        let phi = Cnf3 {
            num_vars: 3,
            clauses: vec![[Lit::pos(0), Lit::pos(1), Lit::pos(2)]],
        };
        let sat_count = (0u32..8)
            .filter(|m| {
                let a: Vec<bool> = (0..3).map(|i| m & (1 << i) != 0).collect();
                phi.eval(&a)
            })
            .count() as u64;
        assert_eq!(sat_count, 7);
        let inst = three_sat_to_phom(&phi);
        assert_eq!(
            count_phom_mappings(&inst.g1, &inst.g2, &inst.mat, inst.xi, false),
            sat_count,
            "each satisfying assignment induces exactly one p-hom mapping"
        );
    }

    #[test]
    fn x3c_gadget_count_includes_slot_symmetries() {
        use crate::reductions::{x3c_to_one_one_phom, X3cInstance};
        // One subset covering the whole universe: 1 cover; slot children
        // permute in 3! ways.
        let inst = X3cInstance {
            q: 1,
            sets: vec![[0, 1, 2]],
        };
        let gadget = x3c_to_one_one_phom(&inst);
        assert_eq!(
            count_phom_mappings(&gadget.g1, &gadget.g2, &gadget.mat, gadget.xi, true),
            6
        );
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

        /// Brute-force decision by enumerating all |V2|^|V1| mappings.
        fn brute_force_decide(
            g1: &DiGraph<u8>,
            g2: &DiGraph<u8>,
            mat: &SimMatrix,
            xi: f64,
            injective: bool,
        ) -> bool {
            let n1 = g1.node_count();
            let n2 = g2.node_count();
            let closure = TransitiveClosure::new(g2);
            let total = (n2 as u64).pow(n1 as u32);
            'outer: for code in 0..total {
                let mut c = code;
                let mut assign = Vec::with_capacity(n1);
                for _ in 0..n1 {
                    assign.push(NodeId((c % n2 as u64) as u32));
                    c /= n2 as u64;
                }
                let m = PHomMapping::from_pairs(
                    n1,
                    assign
                        .iter()
                        .enumerate()
                        .map(|(v, &u)| (NodeId(v as u32), u)),
                );
                if verify_phom(g1, &m, mat, xi, &closure, injective).is_ok() {
                    return true;
                }
                if code == u64::MAX {
                    break 'outer;
                }
            }
            false
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_decide_matches_brute_force((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                for injective in [false, true] {
                    let fast = decide_phom(&g1, &g2, &mat, 0.5, injective).is_some();
                    let slow = brute_force_decide(&g1, &g2, &mat, 0.5, injective);
                    prop_assert_eq!(fast, slow, "injective={}", injective);
                }
            }

            #[test]
            fn prop_decide_witness_is_valid((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let closure = TransitiveClosure::new(&g2);
                if let Some(m) = decide_phom(&g1, &g2, &mat, 0.5, true) {
                    prop_assert_eq!(m.len(), g1.node_count(), "whole pattern mapped");
                    prop_assert_eq!(verify_phom(&g1, &m, &mat, 0.5, &closure, true), Ok(()));
                }
            }

            #[test]
            fn prop_exact_bounds_approximation((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let w = NodeWeights::uniform(g1.node_count());
                let cfg = AlgoConfig::default();
                let exact = exact_optimum(&g1, &g2, &mat, 0.5, false, Objective::Cardinality, &w);
                let approx = comp_max_card(&g1, &g2, &mat, &cfg);
                prop_assert!(approx.len() <= exact.len());
                let exact11 = exact_optimum(&g1, &g2, &mat, 0.5, true, Objective::Cardinality, &w);
                let approx11 = comp_max_card_1_1(&g1, &g2, &mat, &cfg);
                prop_assert!(approx11.len() <= exact11.len());
                prop_assert!(exact11.len() <= exact.len(), "1-1 is more constrained");
            }

            #[test]
            fn prop_exact_optimum_is_valid((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let w = NodeWeights::uniform(g1.node_count());
                let closure = TransitiveClosure::new(&g2);
                for (inj, obj) in [
                    (false, Objective::Cardinality),
                    (true, Objective::Cardinality),
                    (false, Objective::Similarity),
                    (true, Objective::Similarity),
                ] {
                    let m = exact_optimum(&g1, &g2, &mat, 0.5, inj, obj, &w);
                    prop_assert_eq!(verify_phom(&g1, &m, &mat, 0.5, &closure, inj), Ok(()));
                }
            }

            #[test]
            fn prop_full_exact_card_iff_decide((g1, g2) in arb_pair()) {
                // exact CPH optimum covers all of V1 iff the decision
                // problem holds (§3.3 observation (1)).
                let mat = SimMatrix::label_equality(&g1, &g2);
                let w = NodeWeights::uniform(g1.node_count());
                let full = exact_optimum(&g1, &g2, &mat, 0.5, false, Objective::Cardinality, &w)
                    .len() == g1.node_count();
                let holds = decide_phom(&g1, &g2, &mat, 0.5, false).is_some();
                prop_assert_eq!(full, holds);
            }
        }
    }
}
