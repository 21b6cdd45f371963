//! Transitive closure `G+` of a directed graph (Nuutila-style \[22\]):
//! SCC condensation first, then one bitset union pass over the condensation
//! DAG in reverse-topological component order.
//!
//! The closure is **proper**: `reaches(u, v)` holds iff there is a
//! *nonempty* path from `u` to `v` — exactly the `H2[u1][u2]` adjacency
//! matrix of algorithm `compMaxCard` (Fig. 3, lines 5–7). In particular a
//! node reaches itself only when it lies on a cycle (or has a self-loop).

use crate::bitset::BitSet;
use crate::digraph::{DiGraph, NodeId};
use crate::scc::{tarjan_scc, SccResult};
use crate::validate::{proper_reach_set, sample_indices, Violation};
use std::sync::Arc;

/// Reachability matrix of `G+`, stored as one bitset row per SCC
/// (all members of an SCC reach the same node set).
#[derive(Debug, Clone)]
pub struct TransitiveClosure {
    /// `comp[v]` = SCC id of node `v`.
    comp: Vec<u32>,
    /// `rows[c]` = nodes reachable from any member of component `c` via a
    /// nonempty path. Rows sit behind `Arc` so closure *versions* can
    /// share unchanged rows (the semi-dynamic maintenance path copies a
    /// row only when an update actually touches it).
    rows: Vec<Arc<BitSet>>,
    node_count: usize,
}

impl TransitiveClosure {
    /// Computes the closure of `g`.
    pub fn new<L>(g: &DiGraph<L>) -> Self {
        let scc = tarjan_scc(g);
        Self::from_scc(g, &scc)
    }

    /// Computes the **hop-bounded** closure of `g`: `reaches(u, v)` holds
    /// iff there is a nonempty path `u ⇝ v` of length at most `k` edges.
    ///
    /// Matching against a bounded closure yields the fixed-length
    /// path-matching semantics of Zou et al. \[32\] (§2 of the paper):
    /// `k = 1` degenerates to plain edge-to-edge graph homomorphism, and
    /// any `k ≥ n` coincides with the full closure. Unlike the unbounded
    /// closure, SCC members do *not* share reachable sets under a hop
    /// bound, so rows are stored per node (one breadth-first layering per
    /// source, `O(k·(n + m))` each with early exit on a stable frontier).
    pub fn bounded<L>(g: &DiGraph<L>, k: usize) -> Self {
        Self::bounded_reusing(g, k, |_| None)
    }

    /// [`TransitiveClosure::bounded`], except that a source `v` for which
    /// `reuse(v)` returns a row takes that row as is instead of running
    /// its breadth-first layering (a refresh after updates reuses the
    /// rows they cannot have changed).
    pub fn bounded_reusing<L>(
        g: &DiGraph<L>,
        k: usize,
        mut reuse: impl FnMut(NodeId) -> Option<Arc<BitSet>>,
    ) -> Self {
        let n = g.node_count();
        let comp: Vec<u32> = (0..n as u32).collect();
        let mut rows = Vec::with_capacity(n);
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut next: Vec<NodeId> = Vec::new();
        for v in g.nodes() {
            if let Some(row) = reuse(v) {
                rows.push(row);
                continue;
            }
            let mut row = BitSet::new(n);
            frontier.clear();
            frontier.push(v);
            for _ in 0..k {
                next.clear();
                for &x in &frontier {
                    for &w in g.post(x) {
                        if row.insert(w.index()) {
                            next.push(w);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            rows.push(Arc::new(row));
        }
        Self {
            comp,
            rows,
            node_count: n,
        }
    }

    /// Computes the closure of `g` reusing an existing SCC decomposition.
    pub fn from_scc<L>(g: &DiGraph<L>, scc: &SccResult) -> Self {
        let n = g.node_count();
        let c = scc.count();
        let comp: Vec<u32> = (0..n)
            .map(|v| scc.component_of(NodeId(v as u32)) as u32)
            .collect();

        // Tarjan ids are reverse-topological: every cross edge goes from a
        // higher component id to a lower one, so ascending order visits
        // sinks first and each row only depends on already-finished rows.
        let mut rows: Vec<Arc<BitSet>> = Vec::with_capacity(c);
        for cid in 0..c {
            let mut row = BitSet::new(n);
            let mut cyclic = scc.members(cid).len() > 1;
            for &v in scc.members(cid) {
                for &w in g.post(v) {
                    let d = scc.component_of(w);
                    if d == cid {
                        cyclic = true; // self-loop or intra-SCC edge
                    } else {
                        debug_assert!(d < cid, "tarjan numbering invariant");
                        row.insert(w.index());
                        row.union_with(&rows[d]);
                        // Include all members of d (an acyclic component's
                        // own row does not contain its members).
                        for &m in scc.members(d) {
                            row.insert(m.index());
                        }
                    }
                }
            }
            if cyclic {
                for &m in scc.members(cid) {
                    row.insert(m.index());
                }
            }
            rows.push(Arc::new(row));
        }

        Self {
            comp,
            rows,
            node_count: n,
        }
    }

    /// Assembles a closure from a component assignment and per-component
    /// reachability rows — the constructor for **closure maintainers**
    /// (the `phom-dynamic` crate) that keep `comp`/`rows` consistent
    /// themselves rather than recomputing from a graph.
    ///
    /// Requirements (checked by [`TransitiveClosure::validate`], which
    /// maintainers should run in their own tests): `comp.len() ==
    /// node_count`, every `comp[v] < rows.len()`, and every row has
    /// `node_count` bits. Unlike [`TransitiveClosure::from_scc`], the
    /// component numbering need **not** be topological — nothing in the
    /// query path depends on row order.
    pub fn from_parts(comp: Vec<u32>, rows: Vec<BitSet>, node_count: usize) -> Self {
        Self::from_shared_parts(comp, rows.into_iter().map(Arc::new).collect(), node_count)
    }

    /// [`TransitiveClosure::from_parts`] taking rows that are already
    /// `Arc`-shared — the zero-copy handoff from a closure maintainer,
    /// where untouched rows keep pointing at the previous version's
    /// storage.
    pub fn from_shared_parts(comp: Vec<u32>, rows: Vec<Arc<BitSet>>, node_count: usize) -> Self {
        Self {
            comp,
            rows,
            node_count,
        }
    }

    /// Number of nodes in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The component (row) index node `v` is assigned to.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.comp[v.index()] as usize
    }

    /// Number of reachability rows (components).
    pub fn component_count(&self) -> usize {
        self.rows.len()
    }

    /// The reachability row of component `c` (all members of `c` share it).
    pub fn component_row(&self, c: usize) -> &BitSet {
        &self.rows[c]
    }

    /// The shared handle to component `c`'s row (a pointer bump — used to
    /// seed closure maintainers without copying any row data).
    pub fn component_row_shared(&self, c: usize) -> Arc<BitSet> {
        Arc::clone(&self.rows[c])
    }

    /// True iff there is a nonempty path `from ⇝ to`.
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.rows[self.comp[from.index()] as usize].contains(to.index())
    }

    /// The full set of nodes reachable from `v` via nonempty paths.
    pub fn reachable_set(&self, v: NodeId) -> &BitSet {
        &self.rows[self.comp[v.index()] as usize]
    }

    /// Number of `(u, v)` pairs with a nonempty path — `|E+|`.
    /// Each distinct row is popcounted once and multiplied by its
    /// component's membership (rows are shared across SCC members).
    pub fn edge_count(&self) -> usize {
        let mut row_counts: Vec<Option<usize>> = vec![None; self.rows.len()];
        (0..self.node_count)
            .map(|v| {
                let c = self.comp[v] as usize;
                *row_counts[c].get_or_insert_with(|| self.rows[c].count())
            })
            .sum()
    }

    /// Cheap structural self-check (no graph needed): component
    /// assignments in range, rows sized to the node count, and every
    /// referenced row **closed under composition** — if `v ∈ row(c)`
    /// then `row(comp(v)) ⊆ row(c)`, the defining property of a
    /// transitive relation stored row-per-component. Returns the first
    /// violated invariant.
    ///
    /// Applies to full closures only; hop-bounded closures from
    /// [`TransitiveClosure::bounded`] are intentionally not
    /// composition-closed.
    pub fn validate(&self) -> Result<(), Violation> {
        if self.comp.len() != self.node_count {
            return Err(Violation::new(
                "closure-shape",
                format!(
                    "comp covers {} of {} nodes",
                    self.comp.len(),
                    self.node_count
                ),
            ));
        }
        if let Some((v, &c)) = self
            .comp
            .iter()
            .enumerate()
            .find(|&(_, &c)| c as usize >= self.rows.len())
        {
            return Err(Violation::new(
                "closure-shape",
                format!("node {v} assigned out-of-range component {c}"),
            ));
        }
        if let Some((c, row)) = self
            .rows
            .iter()
            .enumerate()
            .find(|(_, row)| row.len() != self.node_count)
        {
            return Err(Violation::new(
                "closure-shape",
                format!(
                    "row {c} holds {} bits for {} nodes",
                    row.len(),
                    self.node_count
                ),
            ));
        }
        // Composition closure over the rows actually referenced by comp.
        let mut used = BitSet::new(self.rows.len());
        for &c in &self.comp {
            used.insert(c as usize);
        }
        let mut checked = BitSet::new(self.rows.len());
        for c in used.iter() {
            checked.clear();
            for v in self.rows[c].iter() {
                let d = self.comp[v] as usize;
                if checked.insert(d) && !self.rows[d].is_subset(&self.rows[c]) {
                    return Err(Violation::new(
                        "closure-composition",
                        format!(
                            "row {c} reaches node {v} (component {d}) but not all of \
                             component {d}'s reachable set"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Deep check against the graph the closure claims to index: runs
    /// [`TransitiveClosure::validate`], then compares the reachable set
    /// of up to `samples` evenly-spaced source nodes against brute-force
    /// proper-path BFS on `g` (pass `samples >= n` for an exhaustive
    /// comparison).
    pub fn validate_against<L>(&self, g: &DiGraph<L>, samples: usize) -> Result<(), Violation> {
        self.validate()?;
        if g.node_count() != self.node_count {
            return Err(Violation::new(
                "closure-shape",
                format!(
                    "closure indexes {} nodes, graph has {}",
                    self.node_count,
                    g.node_count()
                ),
            ));
        }
        for v in sample_indices(self.node_count, samples) {
            let v = NodeId(v as u32);
            let truth = proper_reach_set(g, v);
            if *self.reachable_set(v) != truth {
                return Err(Violation::new(
                    "closure-reaches",
                    format!(
                        "row of node {} disagrees with BFS ({} vs {} reachable)",
                        v.0,
                        self.reachable_set(v).count(),
                        truth.count()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Materializes the closure graph `G+` (same nodes/labels, one edge per
    /// reachable pair). Quadratic output; intended for small graphs
    /// (the symmetric-matching Remark of §3.2 applies it to patterns).
    pub fn to_graph<L: Clone>(&self, g: &DiGraph<L>) -> DiGraph<L> {
        let mut h = DiGraph::with_capacity(g.node_count());
        for v in g.nodes() {
            h.add_node(g.label(v).clone());
        }
        for v in g.nodes() {
            for w in self.reachable_set(v).iter() {
                h.add_edge(v, NodeId(w as u32));
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::graph_from_labels;

    /// Brute-force nonempty-path reachability by DFS from each successor.
    fn slow_reaches<L>(g: &DiGraph<L>, from: NodeId, to: NodeId) -> bool {
        let mut seen = vec![false; g.node_count()];
        let mut stack: Vec<NodeId> = g.post(from).to_vec();
        while let Some(v) = stack.pop() {
            if v == to {
                return true;
            }
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.extend_from_slice(g.post(v));
            }
        }
        false
    }

    #[test]
    fn path_graph_closure() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let tc = TransitiveClosure::new(&g);
        assert!(tc.reaches(NodeId(0), NodeId(1)));
        assert!(tc.reaches(NodeId(0), NodeId(2)));
        assert!(tc.reaches(NodeId(1), NodeId(2)));
        assert!(!tc.reaches(NodeId(2), NodeId(0)));
        assert!(!tc.reaches(NodeId(0), NodeId(0)), "closure is proper");
        assert_eq!(tc.edge_count(), 3);
    }

    #[test]
    fn cycle_members_reach_themselves() {
        let g = graph_from_labels(&["a", "b"], &[("a", "b"), ("b", "a")]);
        let tc = TransitiveClosure::new(&g);
        for i in 0..2 {
            for j in 0..2 {
                assert!(tc.reaches(NodeId(i), NodeId(j)), "{i}->{j}");
            }
        }
    }

    #[test]
    fn self_loop_reaches_itself() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, a);
        g.add_edge(a, b);
        let tc = TransitiveClosure::new(&g);
        assert!(tc.reaches(a, a));
        assert!(tc.reaches(a, b));
        assert!(!tc.reaches(b, b));
    }

    #[test]
    fn cycle_reaching_tail() {
        // cycle {a,b} -> c -> d
        let g = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
        );
        let tc = TransitiveClosure::new(&g);
        assert!(tc.reaches(NodeId(0), NodeId(3)));
        assert!(tc.reaches(NodeId(0), NodeId(0)));
        assert!(!tc.reaches(NodeId(2), NodeId(2)));
        assert!(!tc.reaches(NodeId(3), NodeId(0)));
    }

    #[test]
    fn from_parts_reconstructs_equal_closure() {
        let g = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
        );
        let tc = TransitiveClosure::new(&g);
        let comp: Vec<u32> = g.nodes().map(|v| tc.component_of(v) as u32).collect();
        let rows: Vec<BitSet> = (0..tc.component_count())
            .map(|c| tc.component_row(c).clone())
            .collect();
        let back = TransitiveClosure::from_parts(comp, rows, g.node_count());
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(tc.reaches(u, v), back.reaches(u, v), "{u:?}->{v:?}");
            }
        }
        assert_eq!(tc.edge_count(), back.edge_count());
    }

    #[test]
    fn to_graph_materializes_closure_edges() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let tc = TransitiveClosure::new(&g);
        let gp = tc.to_graph(&g);
        assert_eq!(gp.edge_count(), 3);
        assert!(gp.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(gp.label(NodeId(2)), "c");
    }

    #[test]
    fn closure_matches_dfs_on_fixed_tricky_graph() {
        // Two interlocking cycles plus a DAG tail and an isolated node.
        let g = graph_from_labels(
            &["a", "b", "c", "d", "e", "f", "iso"],
            &[
                ("a", "b"),
                ("b", "c"),
                ("c", "a"),
                ("c", "d"),
                ("d", "e"),
                ("e", "d"),
                ("e", "f"),
            ],
        );
        let tc = TransitiveClosure::new(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    tc.reaches(u, v),
                    slow_reaches(&g, u, v),
                    "mismatch {u:?}->{v:?}"
                );
            }
        }
    }

    /// Brute-force ≤k-hop nonempty-path reachability by depth-limited BFS.
    fn slow_reaches_bounded<L>(g: &DiGraph<L>, from: NodeId, to: NodeId, k: usize) -> bool {
        let mut dist = vec![usize::MAX; g.node_count()];
        let mut frontier = vec![from];
        for d in 1..=k {
            let mut next = Vec::new();
            for x in frontier {
                for &w in g.post(x) {
                    if w == to {
                        return true;
                    }
                    if dist[w.index()] > d {
                        dist[w.index()] = d;
                        next.push(w);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        false
    }

    #[test]
    fn bounded_one_hop_is_edge_relation() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let tc = TransitiveClosure::bounded(&g, 1);
        assert!(tc.reaches(NodeId(0), NodeId(1)));
        assert!(!tc.reaches(NodeId(0), NodeId(2)), "two hops exceed k=1");
        assert!(tc.reaches(NodeId(1), NodeId(2)));
        assert_eq!(tc.edge_count(), g.edge_count());
    }

    #[test]
    fn bounded_zero_hops_reaches_nothing() {
        let g = graph_from_labels(&["a", "b"], &[("a", "b"), ("b", "a")]);
        let tc = TransitiveClosure::bounded(&g, 0);
        for u in g.nodes() {
            for v in g.nodes() {
                assert!(!tc.reaches(u, v));
            }
        }
    }

    #[test]
    fn bounded_cycle_self_reach_needs_cycle_length() {
        // 3-cycle: a node reaches itself only once k >= 3.
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c"), ("c", "a")]);
        assert!(!TransitiveClosure::bounded(&g, 2).reaches(NodeId(0), NodeId(0)));
        assert!(TransitiveClosure::bounded(&g, 3).reaches(NodeId(0), NodeId(0)));
    }

    #[test]
    fn bounded_large_k_equals_full_closure() {
        let g = graph_from_labels(
            &["a", "b", "c", "d", "e"],
            &[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")],
        );
        let full = TransitiveClosure::new(&g);
        let bounded = TransitiveClosure::bounded(&g, g.node_count());
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(full.reaches(u, v), bounded.reaches(u, v), "{u:?}->{v:?}");
            }
        }
    }

    #[test]
    fn validate_accepts_fresh_closures() {
        let g = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
        );
        let tc = TransitiveClosure::new(&g);
        tc.validate().expect("fresh closure is valid");
        tc.validate_against(&g, g.node_count())
            .expect("fresh closure matches BFS");
    }

    #[test]
    fn validate_rejects_tampered_rows() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let tc = TransitiveClosure::new(&g);
        let comp: Vec<u32> = g.nodes().map(|v| tc.component_of(v) as u32).collect();
        let mut rows: Vec<BitSet> = (0..tc.component_count())
            .map(|c| tc.component_row(c).clone())
            .collect();
        // Claim c reaches a without granting it a's reachable set: breaks
        // composition (a reaches b and c; the tampered row lacks b).
        let c_comp = tc.component_of(NodeId(2));
        rows[c_comp].insert(0);
        let bad = TransitiveClosure::from_parts(comp.clone(), rows, g.node_count());
        let err = bad.validate().expect_err("composition break detected");
        assert_eq!(err.check, "closure-composition");

        // A composition-consistent but wrong relation (an extra edge's
        // worth of reachability) passes the cheap tier and is caught by
        // the deep tier.
        let mut rows: Vec<BitSet> = (0..tc.component_count())
            .map(|c| tc.component_row(c).clone())
            .collect();
        let b_comp = tc.component_of(NodeId(1));
        let a_comp = tc.component_of(NodeId(0));
        rows[c_comp] = rows[b_comp].clone();
        rows[b_comp] = rows[a_comp].clone();
        let plausible = TransitiveClosure::from_parts(comp, rows, g.node_count());
        plausible
            .validate()
            .expect("cheap tier cannot see the shift");
        let err = plausible
            .validate_against(&g, g.node_count())
            .expect_err("deep tier compares against BFS");
        assert_eq!(err.check, "closure-reaches");
    }

    #[test]
    fn validate_rejects_malformed_shapes() {
        let g = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let tc = TransitiveClosure::new(&g);
        let rows: Vec<BitSet> = (0..tc.component_count())
            .map(|c| tc.component_row(c).clone())
            .collect();
        let bad_comp = TransitiveClosure::from_parts(vec![0, 99], rows.clone(), 2);
        assert_eq!(
            bad_comp.validate().expect_err("comp range").check,
            "closure-shape"
        );
        let comp: Vec<u32> = g.nodes().map(|v| tc.component_of(v) as u32).collect();
        let bad_rows = TransitiveClosure::from_parts(comp, vec![BitSet::new(5); rows.len()], 2);
        assert_eq!(
            bad_rows.validate().expect_err("row width").check,
            "closure-shape"
        );
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_graph() -> impl Strategy<Value = DiGraph<u32>> {
            (
                1usize..20,
                proptest::collection::vec((0usize..20, 0usize..20), 0..60),
            )
                .prop_map(|(n, raw_edges)| {
                    let mut g = DiGraph::with_capacity(n);
                    for i in 0..n {
                        g.add_node(i as u32);
                    }
                    for (a, b) in raw_edges {
                        g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                    }
                    g
                })
        }

        proptest! {
            #[test]
            fn prop_closure_equals_dfs_reachability(g in arb_graph()) {
                let tc = TransitiveClosure::new(&g);
                for u in g.nodes() {
                    for v in g.nodes() {
                        prop_assert_eq!(
                            tc.reaches(u, v),
                            slow_reaches(&g, u, v),
                            "mismatch {:?}->{:?}", u, v
                        );
                    }
                }
            }

            #[test]
            fn prop_bounded_matches_depth_limited_bfs(g in arb_graph(), k in 0usize..6) {
                let tc = TransitiveClosure::bounded(&g, k);
                for u in g.nodes() {
                    for v in g.nodes() {
                        prop_assert_eq!(
                            tc.reaches(u, v),
                            slow_reaches_bounded(&g, u, v, k),
                            "mismatch {:?}->{:?} k={}", u, v, k
                        );
                    }
                }
            }

            #[test]
            fn prop_bounded_is_monotone_in_k(g in arb_graph(), k in 0usize..5) {
                let lo = TransitiveClosure::bounded(&g, k);
                let hi = TransitiveClosure::bounded(&g, k + 1);
                for u in g.nodes() {
                    for v in g.nodes() {
                        if lo.reaches(u, v) {
                            prop_assert!(hi.reaches(u, v), "k+1 lost {:?}->{:?}", u, v);
                        }
                    }
                }
            }

            #[test]
            fn prop_bounded_at_n_equals_full(g in arb_graph()) {
                let full = TransitiveClosure::new(&g);
                let bounded = TransitiveClosure::bounded(&g, g.node_count());
                for u in g.nodes() {
                    for v in g.nodes() {
                        prop_assert_eq!(full.reaches(u, v), bounded.reaches(u, v));
                    }
                }
            }

            #[test]
            fn prop_fresh_closures_validate(g in arb_graph()) {
                let tc = TransitiveClosure::new(&g);
                prop_assert!(tc.validate().is_ok());
                prop_assert!(tc.validate_against(&g, g.node_count()).is_ok());
            }

            #[test]
            fn prop_closure_is_transitive(g in arb_graph()) {
                let tc = TransitiveClosure::new(&g);
                for u in g.nodes() {
                    for v in g.nodes() {
                        if !tc.reaches(u, v) { continue; }
                        for w in g.nodes() {
                            if tc.reaches(v, w) {
                                prop_assert!(tc.reaches(u, w));
                            }
                        }
                    }
                }
            }
        }
    }
}
