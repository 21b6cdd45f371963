//! Refreshing memoized **hop-bounded** closures after edge updates.
//!
//! A bounded closure stores one depth-limited BFS row per source node
//! (SCC members do not share rows under a hop budget), so incremental
//! row patching does not apply. What does apply is *source pruning*: a
//! source `x`'s row can only change if some ≤`k`-hop path from `x` runs
//! through an updated edge. Taking the **first** inserted-or-deleted
//! edge `(u, v)` on such a path, the prefix before it consists entirely
//! of unchanged edges — so `x` reached `u` in under `k` hops in the *old*
//! graph, i.e. `u` was already in `x`'s old row (or `x == u`). Re-running
//! the BFS for exactly those sources, against the post-update graph, is
//! therefore exact.

use phom_graph::{DiGraph, NodeId, TransitiveClosure};

/// Rebuilds the hop-`k` closure after updates whose edge *sources* are
/// `touched`, given the pre-update bounded closure `old` and the
/// post-update graph `g`. Only sources whose old row could see a touched
/// node are re-run; every other row is reused as-is.
///
/// Returns the refreshed closure and the number of sources recomputed.
pub fn refresh_bounded_closure<L>(
    old: &TransitiveClosure,
    g: &DiGraph<L>,
    k: usize,
    touched: &[NodeId],
) -> (TransitiveClosure, usize) {
    debug_assert_eq!(old.node_count(), g.node_count());
    let mut recomputed = 0;
    let fresh = TransitiveClosure::bounded_reusing(g, k, |x| {
        let affected = touched
            .iter()
            .any(|&t| t == x || old.reachable_set(x).contains(t.index()));
        recomputed += usize::from(affected);
        // Unaffected rows are shared with the old closure, not copied
        // (bounded closures are per-node: component = node index).
        (!affected).then(|| old.component_row_shared(old.component_of(x)))
    });
    (fresh, recomputed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    #[test]
    fn refresh_after_insert_matches_scratch_and_prunes_sources() {
        // a -> b -> c   d -> e ; insert c -> d.
        let g0 = graph_from_labels(
            &["a", "b", "c", "d", "e"],
            &[("a", "b"), ("b", "c"), ("d", "e")],
        );
        let k = 2;
        let old = TransitiveClosure::bounded(&g0, k);
        let mut g = g0.clone();
        g.add_edge(NodeId(2), NodeId(3));
        let (fresh, recomputed) = refresh_bounded_closure(&old, &g, k, &[NodeId(2)]);
        let scratch = TransitiveClosure::bounded(&g, k);
        for x in g.nodes() {
            for y in g.nodes() {
                assert_eq!(fresh.reaches(x, y), scratch.reaches(x, y), "{x:?}->{y:?}");
            }
        }
        // Sources b, c see c within k; a is 2 hops away (= k, still in the
        // old row, conservatively recomputed); d, e never see c.
        assert_eq!(recomputed, 3);
    }

    #[test]
    fn refresh_after_delete_matches_scratch() {
        let g0 = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")],
        );
        for k in 1..=4 {
            let old = TransitiveClosure::bounded(&g0, k);
            let mut g = g0.clone();
            g.remove_edge(NodeId(1), NodeId(2));
            let (fresh, _) = refresh_bounded_closure(&old, &g, k, &[NodeId(1)]);
            let scratch = TransitiveClosure::bounded(&g, k);
            for x in g.nodes() {
                for y in g.nodes() {
                    assert_eq!(fresh.reaches(x, y), scratch.reaches(x, y), "k={k}");
                }
            }
        }
    }

    #[test]
    fn multi_update_batch_uses_old_rows_only_for_pruning() {
        // Chain insertion where the second edge is only reachable through
        // the first: x -> a inserted, then a -> b. Source x must still be
        // recomputed (it sees touched node x itself / a via old rows).
        let g0 = graph_from_labels(&["x", "a", "b"], &[]);
        let k = 2;
        let old = TransitiveClosure::bounded(&g0, k);
        let mut g = g0.clone();
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let (fresh, _) = refresh_bounded_closure(&old, &g, k, &[NodeId(0), NodeId(1)]);
        let scratch = TransitiveClosure::bounded(&g, k);
        for x in g.nodes() {
            for y in g.nodes() {
                assert_eq!(fresh.reaches(x, y), scratch.reaches(x, y), "{x:?}->{y:?}");
            }
        }
        assert!(fresh.reaches(NodeId(0), NodeId(2)), "2 hops within k=2");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_refresh_equals_scratch_bounded(
                n in 2usize..10,
                edges in proptest::collection::vec((0usize..10, 0usize..10), 0..20),
                ops in proptest::collection::vec((any::<bool>(), 0usize..10, 0usize..10), 1..8),
                k in 0usize..5,
            ) {
                let mut g: DiGraph<u32> = DiGraph::with_capacity(n);
                for i in 0..n {
                    g.add_node(i as u32);
                }
                for (a, b) in edges {
                    g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                }
                let old = TransitiveClosure::bounded(&g, k);
                let mut touched = Vec::new();
                for (insert, a, b) in ops {
                    let a = NodeId((a % n) as u32);
                    let b = NodeId((b % n) as u32);
                    let changed = if insert {
                        g.add_edge(a, b)
                    } else {
                        g.remove_edge(a, b)
                    };
                    if changed {
                        touched.push(a);
                    }
                }
                let (fresh, _) = refresh_bounded_closure(&old, &g, k, &touched);
                let scratch = TransitiveClosure::bounded(&g, k);
                for x in g.nodes() {
                    for y in g.nodes() {
                        prop_assert_eq!(fresh.reaches(x, y), scratch.reaches(x, y));
                    }
                }
            }
        }
    }
}
