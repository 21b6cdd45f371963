//! Strongly connected components via Tarjan's algorithm (iterative).
//!
//! Used by the transitive-closure computation (Nuutila \[22\] computes closures
//! through SCC condensation) and by the `G2*` compression of Appendix B,
//! where every SCC of `G2` becomes a clique of `G2+` and is collapsed to one
//! node of `G2*`.

use crate::digraph::{DiGraph, NodeId};

/// The strongly connected components of a graph.
///
/// Components are numbered `0..count` in **reverse topological order of
/// discovery**: Tarjan emits each component only after all components
/// reachable from it, so `comp[v] <= comp[w]` never holds for an edge
/// `v -> w` between distinct components... more precisely, for any edge
/// `v -> w` with `comp(v) != comp(w)`, `comp(v) > comp(w)`. Equivalently,
/// component ids form a reverse topological order of the condensation.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// `comp[v]` = component id of node `v`.
    comp: Vec<u32>,
    /// `members[c]` = nodes of component `c`.
    members: Vec<Vec<NodeId>>,
}

impl SccResult {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Component id of `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.comp[v.index()] as usize
    }

    /// Component id of every node, indexed by node.
    pub(crate) fn component_ids(&self) -> &[u32] {
        &self.comp
    }

    /// Nodes of component `c`.
    pub fn members(&self, c: usize) -> &[NodeId] {
        &self.members[c]
    }

    /// Iterator over components (slices of member nodes).
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.members.iter().map(|m| m.as_slice())
    }

    /// True when `a` and `b` are mutually reachable (same SCC).
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        self.comp[a.index()] == self.comp[b.index()]
    }

    /// Component ids listed in topological order of the condensation
    /// (sources first). Tarjan numbering is reverse-topological, so this is
    /// simply `count-1, .., 0`.
    pub fn topological_order(&self) -> impl Iterator<Item = usize> {
        (0..self.members.len()).rev()
    }
}

/// Computes the strongly connected components of `g`.
///
/// Iterative Tarjan: linear in `|V| + |E|`, no recursion (safe for the deep
/// path graphs the workload generator produces).
pub fn tarjan_scc<L>(g: &DiGraph<L>) -> SccResult {
    const UNVISITED: u32 = u32::MAX;
    let n = g.node_count();
    let mut index = vec![UNVISITED; n]; // discovery index
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    let mut next_index = 0u32;

    // Explicit DFS frame: (node, its successors, next child position).
    // The successor list is looked up once per node, not once per edge.
    let mut frames: Vec<(NodeId, &[NodeId], usize)> = Vec::new();

    for root in g.nodes() {
        if index[root.index()] != UNVISITED {
            continue;
        }
        frames.push((root, g.post(root), 0));
        index[root.index()] = next_index;
        lowlink[root.index()] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root.index()] = true;

        while let Some(&mut (v, succs, ref mut child)) = frames.last_mut() {
            if *child < succs.len() {
                let w = succs[*child];
                *child += 1;
                if index[w.index()] == UNVISITED {
                    index[w.index()] = next_index;
                    lowlink[w.index()] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w.index()] = true;
                    frames.push((w, g.post(w), 0));
                } else if on_stack[w.index()] {
                    lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _, _)) = frames.last_mut() {
                    lowlink[p.index()] = lowlink[p.index()].min(lowlink[v.index()]);
                }
                if lowlink[v.index()] == index[v.index()] {
                    // v is the root of a component: pop it off the stack.
                    let cid = members.len() as u32;
                    let mut group = Vec::new();
                    loop {
                        // phom-lint: allow(unwrap, "Tarjan invariant: a root's component members are on the stack above it")
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w.index()] = false;
                        comp[w.index()] = cid;
                        group.push(w);
                        if w == v {
                            break;
                        }
                    }
                    group.reverse();
                    members.push(group);
                }
            }
        }
    }

    SccResult { comp, members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::graph_from_labels;

    #[test]
    fn singleton_components_for_dag() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c"), ("a", "c")]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        for c in 0..3 {
            assert_eq!(scc.members(c).len(), 1);
        }
    }

    #[test]
    fn cycle_is_one_component() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c"), ("c", "a")]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.members(0).len(), 3);
    }

    #[test]
    fn two_cycles_with_bridge() {
        // a<->b  ->  c<->d
        let g = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")],
        );
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 2);
        assert!(scc.same_component(NodeId(0), NodeId(1)));
        assert!(scc.same_component(NodeId(2), NodeId(3)));
        assert!(!scc.same_component(NodeId(0), NodeId(2)));
        // Edge between components goes from higher comp id to lower
        // (reverse topological numbering).
        assert!(scc.component_of(NodeId(0)) > scc.component_of(NodeId(2)));
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<()> = DiGraph::new();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 0);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 200k-node path; recursive Tarjan would blow the stack.
        let mut g: DiGraph<()> = DiGraph::with_capacity(200_000);
        let mut prev = g.add_node(());
        for _ in 1..200_000 {
            let v = g.add_node(());
            g.add_edge(prev, v);
            prev = v;
        }
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 200_000);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")],
        );
        let scc = tarjan_scc(&g);
        let order: Vec<usize> = scc.topological_order().collect();
        let pos = |c: usize| order.iter().position(|&x| x == c).expect("present");
        for (u, v) in g.edges() {
            let cu = scc.component_of(u);
            let cv = scc.component_of(v);
            if cu != cv {
                assert!(pos(cu) < pos(cv), "edge {u:?}->{v:?} violates topo order");
            }
        }
    }
}
