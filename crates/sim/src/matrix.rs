//! The similarity matrix `mat()` of §3.1: for each node pair
//! `(v, u) ∈ V1 × V2`, `mat(v, u) ∈ [0, 1]` says how close the labels are.
//! A node `v` may be mapped to `u` only when `mat(v, u) ≥ ξ` and `mat(v, u) > 0`.

use phom_graph::{DiGraph, NodeId};
use serde::{Deserialize, Serialize};

/// The one candidate rule: `(v, u)` is a candidate at threshold `xi` iff
/// `mat(v, u) ≥ candidate_floor(xi)`, that is iff `mat(v, u) > 0` and
/// `mat(v, u) ≥ xi` (§3.2 condition (1), `H[v].good` in Fig. 3). A zero
/// score never matches; above 0 the floor is `xi`; a NaN `xi` admits nothing.
pub fn candidate_floor(xi: f64) -> f64 {
    // The smallest positive f64: `s ≥ it` iff `s > 0`.
    if xi <= 0.0 {
        f64::from_bits(1)
    } else {
        xi
    }
}

/// Dense `|V1| × |V2|` similarity matrix.
///
/// The paper computes `mat()` only on graph *skeletons* (§3.1, §6), so the
/// dense representation stays small in practice; entries default to `0.0`
/// ("totally different"). Passes that need only the non-zero cells read
/// them once into a [`SparseSim`](crate::SparseSim) instead of scanning
/// all `n1 × n2` cells again.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimMatrix {
    n1: usize,
    n2: usize,
    data: Vec<f64>,
}

impl SimMatrix {
    /// All-zero matrix for `n1` pattern nodes and `n2` data nodes.
    pub fn new(n1: usize, n2: usize) -> Self {
        Self {
            n1,
            n2,
            data: vec![0.0; n1 * n2],
        }
    }

    /// Builds the matrix entry-wise from `f(v, u)`.
    ///
    /// # Panics
    /// Panics if `f` produces a value outside `[0, 1]`.
    pub fn from_fn(n1: usize, n2: usize, mut f: impl FnMut(NodeId, NodeId) -> f64) -> Self {
        let mut m = Self::new(n1, n2);
        for v in 0..n1 {
            for u in 0..n2 {
                let (v, u) = (NodeId(v as u32), NodeId(u as u32));
                m.set(v, u, f(v, u));
            }
        }
        m
    }

    /// The label-equality matrix used throughout the paper's examples:
    /// `mat(v, u) = 1` iff the labels are equal, else `0`.
    pub fn label_equality<L: PartialEq>(g1: &DiGraph<L>, g2: &DiGraph<L>) -> Self {
        Self::from_fn(g1.node_count(), g2.node_count(), |v, u| {
            if g1.label(v) == g2.label(u) {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Number of pattern-side nodes (`|V1|`).
    pub fn n1(&self) -> usize {
        self.n1
    }

    /// Number of data-side nodes (`|V2|`).
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// Row `v`'s `n2` cells.
    pub(crate) fn row(&self, v: usize) -> &[f64] {
        &self.data[v * self.n2..(v + 1) * self.n2]
    }

    /// `mat(v, u)`.
    #[inline]
    pub fn score(&self, v: NodeId, u: NodeId) -> f64 {
        self.data[v.index() * self.n2 + u.index()]
    }

    /// Sets `mat(v, u) = s`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ s ≤ 1`.
    #[inline]
    pub fn set(&mut self, v: NodeId, u: NodeId, s: f64) {
        assert!((0.0..=1.0).contains(&s), "similarity {s} outside [0,1]");
        self.data[v.index() * self.n2 + u.index()] = s;
    }

    /// Data-side candidates of `v` at threshold `xi`, the columns scoring
    /// above 0 and at least `xi` ([`candidate_floor`]): the initial
    /// `H[v].good` of algorithm `compMaxCard` (Fig. 3 line 4).
    pub fn candidates(&self, v: NodeId, xi: f64) -> impl Iterator<Item = NodeId> + '_ {
        let floor = candidate_floor(xi);
        self.row(v.index())
            .iter()
            .enumerate()
            .filter(move |&(_, &s)| s >= floor)
            .map(|(u, _)| NodeId(u as u32))
    }

    /// Count of candidate pairs at `xi` (the candidate-pair budget
    /// `P ≤ |V1||V2|` that bounds the `greedyMatch` recursion).
    pub fn candidate_pair_count(&self, xi: f64) -> usize {
        let floor = candidate_floor(xi);
        self.data.iter().filter(|&&s| s >= floor).count()
    }

    /// The transposed matrix (swaps pattern and data sides) — used by the
    /// symmetric-matching helper of §3.2's Remark.
    pub fn transposed(&self) -> SimMatrix {
        SimMatrix::from_fn(self.n2, self.n1, |u, v| self.score(v, u))
    }
}

/// Builder for sparse hand-written matrices (paper examples set a handful of
/// pairs and default the rest to 0).
#[derive(Debug, Default)]
pub struct SimMatrixBuilder {
    entries: Vec<(NodeId, NodeId, f64)>,
}

impl SimMatrixBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `mat(v, u) = s`.
    pub fn pair(mut self, v: NodeId, u: NodeId, s: f64) -> Self {
        self.entries.push((v, u, s));
        self
    }

    /// Finishes into a dense matrix of the given dimensions.
    pub fn build(self, n1: usize, n2: usize) -> SimMatrix {
        let mut m = SimMatrix::new(n1, n2);
        for (v, u, s) in self.entries {
            m.set(v, u, s);
        }
        m
    }
}

/// Builds `mat()` over string-labeled graphs from a label-pair function —
/// convenient for encoding the paper's `mate()` tables by label.
pub fn matrix_from_label_fn(
    g1: &DiGraph<String>,
    g2: &DiGraph<String>,
    mut f: impl FnMut(&str, &str) -> f64,
) -> SimMatrix {
    SimMatrix::from_fn(g1.node_count(), g2.node_count(), |v, u| {
        f(g1.label(v), g2.label(u))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::{graph_from_labels, DiGraph};

    #[test]
    fn new_is_all_zero() {
        let m = SimMatrix::new(2, 3);
        assert_eq!(m.score(NodeId(1), NodeId(2)), 0.0);
        assert_eq!(m.n1(), 2);
        assert_eq!(m.n2(), 3);
    }

    #[test]
    fn set_and_score() {
        let mut m = SimMatrix::new(2, 2);
        m.set(NodeId(0), NodeId(1), 0.7);
        assert_eq!(m.score(NodeId(0), NodeId(1)), 0.7);
        assert_eq!(m.score(NodeId(1), NodeId(0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_out_of_range() {
        let mut m = SimMatrix::new(1, 1);
        m.set(NodeId(0), NodeId(0), 1.5);
    }

    #[test]
    fn label_equality_matrix() {
        let g1 = graph_from_labels(&["A", "B"], &[]);
        let mut g2: DiGraph<String> = DiGraph::new();
        for l in ["B", "A", "A"] {
            g2.add_node(l.to_owned());
        }
        let m = SimMatrix::label_equality(&g1, &g2);
        assert_eq!(m.score(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(m.score(NodeId(0), NodeId(0)), 0.0);
        assert_eq!(m.score(NodeId(1), NodeId(0)), 1.0);
        assert_eq!(m.candidates(NodeId(0), 0.5).count(), 2);
    }

    #[test]
    fn candidates_respect_threshold() {
        // Column 3 scores 0: never a candidate, at ξ ≤ 0 either.
        let mut m = SimMatrix::new(1, 4);
        m.set(NodeId(0), NodeId(0), 0.6);
        m.set(NodeId(0), NodeId(1), 0.59);
        m.set(NodeId(0), NodeId(2), 1.0);
        let c: Vec<NodeId> = m.candidates(NodeId(0), 0.6).collect();
        assert_eq!(c, vec![NodeId(0), NodeId(2)]);
        assert_eq!(m.candidate_pair_count(0.6), 2);
        assert_eq!(m.candidate_pair_count(0.0), 3);
        assert_eq!(m.candidates(NodeId(0), -1.0).count(), 3);
        assert_eq!(m.candidate_pair_count(f64::NAN), 0);
    }

    #[test]
    fn candidate_floor_admits_positive_scores_at_or_above_xi() {
        let xis = [f64::NAN, -1.0, 0.0, f64::MIN_POSITIVE, 0.5, 1.0, 1.5];
        let scores = [0.0, -0.0, f64::MIN_POSITIVE, 0.5, 1.0];
        for xi in xis {
            for s in scores {
                let expected = !xi.is_nan() && s > 0.0 && s >= xi;
                assert_eq!(s >= candidate_floor(xi), expected, "xi {xi}, s {s}");
            }
        }
    }

    #[test]
    fn builder_sets_only_listed_pairs() {
        let m = SimMatrixBuilder::new()
            .pair(NodeId(0), NodeId(1), 0.8)
            .pair(NodeId(1), NodeId(0), 0.6)
            .build(2, 2);
        assert_eq!(m.score(NodeId(0), NodeId(1)), 0.8);
        assert_eq!(m.score(NodeId(0), NodeId(0)), 0.0);
    }

    #[test]
    fn transpose_swaps_sides() {
        let mut m = SimMatrix::new(2, 3);
        m.set(NodeId(1), NodeId(2), 0.4);
        let t = m.transposed();
        assert_eq!(t.n1(), 3);
        assert_eq!(t.n2(), 2);
        assert_eq!(t.score(NodeId(2), NodeId(1)), 0.4);
        assert_eq!(t.score(NodeId(0), NodeId(0)), 0.0);
    }
}
