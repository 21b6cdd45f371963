//! The node-labeled directed graph `G = (V, E, L)` of the paper (§3.1).
//!
//! Nodes are dense `u32` indices wrapped in [`NodeId`]; each node carries a
//! label of type `L` (the paper uses page content / URL strings). Both
//! forward and reverse adjacency are maintained because the matching
//! algorithms need `prev` and `post` lists (algorithm `compMaxCard`,
//! data structure *(c)*).
//!
//! ## Versions share structure
//!
//! A live graph is read through many versions: each update batch derives
//! a new one while in-flight queries keep reading the old. A clone of a
//! [`DiGraph`] therefore shares everything until it is written:
//!
//! * the labels live in one `Arc`'d column, which edge edits never
//!   touch, so every version of a graph holds the same column;
//! * each adjacency direction is a list of `Arc`'d chunks, each holding
//!   the lists of 16 consecutive nodes. [`DiGraph::add_edge`] and
//!   [`DiGraph::remove_edge`] copy a chunk on its first write, so one
//!   edit copies two chunks and leaves every other clone as it was.
//!
//! Cloning or dropping a graph costs one pointer copy or count decrement
//! per 16 nodes. Chunks are small because every graph pays for at least
//! one per direction, and pattern graphs have a few dozen nodes.
//!
//! Reads keep their shape: [`DiGraph::post`] and [`DiGraph::prev`]
//! return each node's list as a slice, one pointer hop further away than
//! in a flat list of lists. The lists hold insertion order, which
//! removals keep, and the matching kernels' tie-breaks depend on it.
//!
//! Two bounds follow from the sharing. [`DiGraph::add_node`] and
//! [`DiGraph::label_mut`] write the label column, copying it first when
//! another version shares it, so they need `L: Clone`. And the column is
//! shared through an `Arc`, so `DiGraph<L>` is `Send` or `Sync` only when
//! `L: Send + Sync`.
//!
//! [`DiGraph::from_edges`] and the constructors built on it
//! ([`DiGraph::map_labels`], [`DiGraph::induced_subgraph`],
//! [`DiGraph::reversed`]) fill unshared chunks and share each one once
//! it is built, so a bulk build pays no copy-on-write check per edge.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Identifier of a node inside one [`DiGraph`]. Dense: `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize`, for direct slice addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Nodes per adjacency chunk: the unit an edge edit copies.
const CHUNK: usize = 16;

/// The adjacency lists of `CHUNK` consecutive nodes; the last chunk of a
/// graph pads with empty lists.
type Chunk = [Vec<NodeId>; CHUNK];

/// Node `v`'s list in a chunked adjacency direction.
#[inline]
fn list(chunks: &[Arc<Chunk>], v: NodeId) -> &[NodeId] {
    &chunks[v.index() / CHUNK][v.index() % CHUNK]
}

/// Node `v`'s list, writable: its chunk is copied first when another
/// version shares it.
fn list_mut(chunks: &mut [Arc<Chunk>], v: NodeId) -> &mut Vec<NodeId> {
    &mut Arc::make_mut(&mut chunks[v.index() / CHUNK])[v.index() % CHUNK]
}

/// A node-labeled directed graph.
///
/// Self-loops are allowed (the product-graph reduction of Theorem 5.1 cares
/// about them); parallel edges are collapsed. Clones share labels and
/// adjacency until written (see the module docs).
pub struct DiGraph<L> {
    labels: Arc<Vec<L>>,
    out: Vec<Arc<Chunk>>,
    inc: Vec<Arc<Chunk>>,
    edge_count: usize,
}

impl<L> Clone for DiGraph<L> {
    fn clone(&self) -> Self {
        DiGraph {
            labels: Arc::clone(&self.labels),
            out: self.out.clone(),
            inc: self.inc.clone(),
            edge_count: self.edge_count,
        }
    }
}

impl<L> Default for DiGraph<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: Clone> DiGraph<L> {
    /// Adds a node with `label`, returning its id.
    pub fn add_node(&mut self, label: L) -> NodeId {
        let n = self.labels.len();
        // phom-lint: allow(unwrap, "node ids are u32 by design; > 4 billion nodes is a documented capacity limit")
        let id = NodeId(u32::try_from(n).expect("more than u32::MAX nodes"));
        Arc::make_mut(&mut self.labels).push(label);
        if n.is_multiple_of(CHUNK) {
            self.out.push(Arc::default());
            self.inc.push(Arc::default());
        }
        id
    }

    /// Mutable access to the label `L(v)`.
    pub fn label_mut(&mut self, v: NodeId) -> &mut L {
        &mut Arc::make_mut(&mut self.labels)[v.index()]
    }

    /// The subgraph induced by `keep` (nodes are renumbered densely in
    /// ascending order of their old ids). Returns the subgraph and the map
    /// `new -> old`.
    pub fn induced_subgraph(&self, keep: &BTreeSet<NodeId>) -> (DiGraph<L>, Vec<NodeId>) {
        let old_of_new: Vec<NodeId> = keep.iter().copied().collect();
        let mut new_of_old: Vec<Option<NodeId>> = vec![None; self.node_count()];
        for (nv, &v) in old_of_new.iter().enumerate() {
            new_of_old[v.index()] = Some(NodeId(nv as u32));
        }
        let labels = old_of_new.iter().map(|&v| self.label(v).clone()).collect();
        let new_of_old = &new_of_old;
        let edges = old_of_new.iter().enumerate().flat_map(|(nv, &v)| {
            self.post(v)
                .iter()
                .filter_map(move |w| new_of_old[w.index()].map(|nw| (NodeId(nv as u32), nw)))
        });
        (DiGraph::from_edges(labels, edges), old_of_new)
    }
}

impl<L> DiGraph<L> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty graph with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            labels: Arc::new(Vec::with_capacity(n)),
            out: Vec::with_capacity(n.div_ceil(CHUNK)),
            inc: Vec::with_capacity(n.div_ceil(CHUNK)),
            edge_count: 0,
        }
    }

    /// Builds the graph with node `i` labeled `labels[i]` and `edges`
    /// added in order: the same graph, adjacency order included, as
    /// [`DiGraph::add_node`] for each label followed by
    /// [`DiGraph::add_edge`] for each edge, built without a copy-on-write
    /// check per edge.
    ///
    /// # Panics
    /// Panics if an edge endpoint is out of range.
    pub fn from_edges(labels: Vec<L>, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        Self::with_labels(Arc::new(labels), edges)
    }

    /// [`DiGraph::from_edges`] over a label column shared with other
    /// graphs.
    fn with_labels(labels: Arc<Vec<L>>, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let n = labels.len();
        let blank = || -> Vec<Chunk> { (0..n.div_ceil(CHUNK)).map(|_| Chunk::default()).collect() };
        let (mut out, mut inc) = (blank(), blank());
        let mut edge_count = 0;
        for (from, to) in edges {
            assert!(from.index() < n, "from out of range");
            assert!(to.index() < n, "to out of range");
            let succs = &mut out[from.index() / CHUNK][from.index() % CHUNK];
            if !succs.contains(&to) {
                succs.push(to);
                inc[to.index() / CHUNK][to.index() % CHUNK].push(from);
                edge_count += 1;
            }
        }
        DiGraph {
            labels,
            out: out.into_iter().map(Arc::new).collect(),
            inc: inc.into_iter().map(Arc::new).collect(),
            edge_count,
        }
    }

    /// Adds the edge `(from, to)` if absent. Returns `true` when inserted.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        assert!(from.index() < self.labels.len(), "from out of range");
        assert!(to.index() < self.labels.len(), "to out of range");
        if self.post(from).contains(&to) {
            return false;
        }
        list_mut(&mut self.out, from).push(to);
        list_mut(&mut self.inc, to).push(from);
        self.edge_count += 1;
        true
    }

    /// Removes the edge `(from, to)` if present, preserving the relative
    /// order of the remaining adjacency entries (matching algorithms
    /// iterate `post`/`prev` in insertion order, so a removal must not
    /// perturb the order of unrelated edges). Returns `true` when removed.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        assert!(from.index() < self.labels.len(), "from out of range");
        assert!(to.index() < self.labels.len(), "to out of range");
        let Some(pos) = self.post(from).iter().position(|&w| w == to) else {
            return false;
        };
        let rpos = self
            .prev(to)
            .iter()
            .position(|&w| w == from)
            // phom-lint: allow(unwrap, "out/inc adjacency lists are mutated in lockstep; the forward entry was found above")
            .expect("reverse adjacency out of sync");
        list_mut(&mut self.out, from).remove(pos);
        list_mut(&mut self.inc, to).remove(rpos);
        self.edge_count -= 1;
        true
    }

    /// Number of nodes, `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges, `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterator over all node ids, `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Iterator over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |v| self.post(v).iter().map(move |&u| (v, u)))
    }

    /// The label `L(v)`.
    #[inline]
    pub fn label(&self, v: NodeId) -> &L {
        &self.labels[v.index()]
    }

    /// Successors of `v` ("children": nodes with an edge from `v`).
    #[inline]
    pub fn post(&self, v: NodeId) -> &[NodeId] {
        list(&self.out, v)
    }

    /// Predecessors of `v` ("parents": nodes with an edge to `v`).
    #[inline]
    pub fn prev(&self, v: NodeId) -> &[NodeId] {
        list(&self.inc, v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.post(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.prev(v).len()
    }

    /// Total degree (in + out) of `v`, as used by the skeleton rule of §6.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// True when the edge `(from, to)` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.post(from).contains(&to)
    }

    /// True when `v` has an edge to itself.
    pub fn has_self_loop(&self, v: NodeId) -> bool {
        self.has_edge(v, v)
    }

    /// Average total degree `avgDeg(G)` (0.0 for the empty graph). §6 uses
    /// `2|E|/|V|` since each edge contributes to one in- and one out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.labels.len() as f64
        }
    }

    /// Maximum total degree `maxDeg(G)` (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Maps labels, preserving structure.
    pub fn map_labels<M, F: FnMut(NodeId, &L) -> M>(&self, mut f: F) -> DiGraph<M> {
        let labels = self.nodes().map(|v| f(v, self.label(v))).collect();
        DiGraph::from_edges(labels, self.edges())
    }

    /// Reverses every edge; the reversed graph shares this one's labels.
    pub fn reversed(&self) -> DiGraph<L> {
        DiGraph::with_labels(Arc::clone(&self.labels), self.edges().map(|(a, b)| (b, a)))
    }
}

impl<L: fmt::Debug> fmt::Debug for DiGraph<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DiGraph(|V|={}, |E|={})",
            self.node_count(),
            self.edge_count()
        )?;
        for v in self.nodes() {
            writeln!(f, "  {v:?} [{:?}] -> {:?}", self.label(v), self.post(v))?;
        }
        Ok(())
    }
}

/// Convenience constructor used pervasively in tests and examples: builds a
/// graph from string labels and label-pair edges.
///
/// # Panics
/// Panics if an edge mentions an unknown label or labels are duplicated.
pub fn graph_from_labels(labels: &[&str], edges: &[(&str, &str)]) -> DiGraph<String> {
    let mut g = DiGraph::with_capacity(labels.len());
    let mut ids = std::collections::HashMap::with_capacity(labels.len());
    for &l in labels {
        let id = g.add_node(l.to_owned());
        let dup = ids.insert(l.to_owned(), id);
        assert!(dup.is_none(), "duplicate label {l:?}");
    }
    for &(a, b) in edges {
        // phom-lint: allow(unwrap, "test/example helper whose doc contract is `# Panics` on unknown labels")
        let &ia = ids.get(a).unwrap_or_else(|| panic!("unknown label {a:?}"));
        // phom-lint: allow(unwrap, "test/example helper whose doc contract is `# Panics` on unknown labels")
        let &ib = ids.get(b).unwrap_or_else(|| panic!("unknown label {b:?}"));
        g.add_edge(ia, ib);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<String> {
        graph_from_labels(
            &["A", "B", "C", "D"],
            &[("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
    }

    #[test]
    fn add_node_assigns_dense_ids() {
        let mut g: DiGraph<&str> = DiGraph::new();
        assert_eq!(g.add_node("x"), NodeId(0));
        assert_eq!(g.add_node("y"), NodeId(1));
        assert_eq!(g.node_count(), 2);
        assert_eq!(*g.label(NodeId(1)), "y");
    }

    #[test]
    fn add_edge_deduplicates() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b), "parallel edge collapsed");
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn post_and_prev_are_consistent() {
        let g = diamond();
        let a = NodeId(0);
        let d = NodeId(3);
        assert_eq!(g.post(a), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.prev(d), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
    }

    #[test]
    fn remove_edge_keeps_adjacency_order_and_counts() {
        let g0 = diamond();
        let mut g = g0.clone();
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)), "already gone");
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.post(NodeId(0)), &[NodeId(2)]);
        assert_eq!(g.prev(NodeId(3)), &[NodeId(1), NodeId(2)], "order kept");
        // Re-adding restores the edge (at the end of the adjacency list).
        assert!(g.add_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), g0.edge_count());
    }

    #[test]
    fn remove_self_loop() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a);
        assert!(g.remove_edge(a, a));
        assert!(!g.has_self_loop(a));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn self_loops_allowed() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        assert!(g.add_edge(a, a));
        assert!(g.has_self_loop(a));
        assert_eq!(g.degree(a), 2, "self loop counts once in and once out");
    }

    #[test]
    fn edges_iterator_lists_all() {
        let g = diamond();
        let mut e: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn degree_statistics_match_section6_definitions() {
        let g = diamond();
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
        let empty: DiGraph<()> = DiGraph::new();
        assert_eq!(empty.avg_degree(), 0.0);
        assert_eq!(empty.max_degree(), 0);
    }

    #[test]
    fn induced_subgraph_renumbers_and_keeps_internal_edges() {
        let g = diamond();
        let keep: BTreeSet<NodeId> = [NodeId(0), NodeId(1), NodeId(3)].into_iter().collect();
        let (h, old) = g.induced_subgraph(&keep);
        assert_eq!(h.node_count(), 3);
        assert_eq!(old, vec![NodeId(0), NodeId(1), NodeId(3)]);
        // Edges A->B and B->D survive; A->C and C->D are dropped.
        assert_eq!(h.edge_count(), 2);
        assert!(h.has_edge(NodeId(0), NodeId(1)));
        assert!(h.has_edge(NodeId(1), NodeId(2)));
        assert_eq!(h.label(NodeId(2)), "D");
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = diamond();
        let r = g.reversed();
        assert!(r.has_edge(NodeId(1), NodeId(0)));
        assert!(!r.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(r.edge_count(), g.edge_count());
    }

    #[test]
    fn map_labels_preserves_structure() {
        let g = diamond();
        let h = g.map_labels(|_, l| l.len());
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        assert_eq!(*h.label(NodeId(0)), 1);
    }

    /// A path of `n` nodes labeled by id.
    fn path(n: u32) -> DiGraph<u32> {
        let mut g = DiGraph::new();
        for v in 0..n {
            g.add_node(v);
        }
        for v in 1..n {
            g.add_edge(NodeId(v - 1), NodeId(v));
        }
        g
    }

    /// Chunks of `a` that `b` does not share.
    fn unshared(a: &[Arc<Chunk>], b: &[Arc<Chunk>]) -> usize {
        a.iter().zip(b).filter(|(x, y)| !Arc::ptr_eq(x, y)).count()
    }

    #[test]
    fn clones_share_until_written_and_an_edit_copies_two_chunks() {
        let g = path(100);
        let mut h = g.clone();
        assert!(Arc::ptr_eq(&g.labels, &h.labels));
        assert_eq!(unshared(&g.out, &h.out) + unshared(&g.inc, &h.inc), 0);
        // Nodes 3 and 70 sit in different chunks: one out, one in chunk.
        assert!(h.add_edge(NodeId(3), NodeId(70)));
        assert_eq!(unshared(&g.out, &h.out), 1);
        assert_eq!(unshared(&g.inc, &h.inc), 1);
        assert!(
            Arc::ptr_eq(&g.labels, &h.labels),
            "edges leave labels shared"
        );
        assert!(
            !g.has_edge(NodeId(3), NodeId(70)),
            "the original is untouched"
        );
        assert_eq!(g.edge_count(), 99);
        assert_eq!(h.edge_count(), 100);
        // A no-op edit copies nothing.
        let k = h.clone();
        assert!(!h.add_edge(NodeId(3), NodeId(70)));
        assert!(!h.remove_edge(NodeId(70), NodeId(3)));
        assert_eq!(unshared(&k.out, &h.out) + unshared(&k.inc, &h.inc), 0);
        // Writing a label copies the column, not the adjacency.
        *h.label_mut(NodeId(5)) = 500;
        assert_eq!(*g.label(NodeId(5)), 5);
        assert!(!Arc::ptr_eq(&k.labels, &h.labels));
        assert_eq!(unshared(&k.out, &h.out), 0);
    }

    #[test]
    fn adding_nodes_to_a_clone_leaves_the_original() {
        let g = path(CHUNK as u32);
        let mut h = g.clone();
        let v = h.add_node(99);
        assert_eq!(v, NodeId(CHUNK as u32));
        h.add_edge(NodeId(0), v);
        assert_eq!(g.node_count(), CHUNK);
        assert_eq!(g.post(NodeId(0)), &[NodeId(1)]);
        assert_eq!(h.post(NodeId(0)), &[NodeId(1), v]);
        assert_eq!(h.prev(v), &[NodeId(0)]);
    }

    #[test]
    fn from_edges_matches_edge_by_edge_insertion() {
        let edges = [(2, 0), (1, 0), (0, 2), (2, 0), (1, 1), (0, 1)];
        let mut one_by_one: DiGraph<char> = DiGraph::new();
        for l in ['a', 'b', 'c'] {
            one_by_one.add_node(l);
        }
        for &(a, b) in &edges {
            one_by_one.add_edge(NodeId(a), NodeId(b));
        }
        let bulk = DiGraph::from_edges(
            vec!['a', 'b', 'c'],
            edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))),
        );
        assert_eq!(bulk.edge_count(), 5, "the repeated edge collapses");
        assert_eq!(bulk.edge_count(), one_by_one.edge_count());
        for v in bulk.nodes() {
            assert_eq!(bulk.post(v), one_by_one.post(v));
            assert_eq!(bulk.prev(v), one_by_one.prev(v), "insertion order kept");
            assert_eq!(bulk.label(v), one_by_one.label(v));
        }
    }

    #[test]
    #[should_panic(expected = "to out of range")]
    fn from_edges_rejects_out_of_range_endpoints() {
        DiGraph::from_edges(vec![(); 2], [(NodeId(0), NodeId(2))]);
    }

    #[test]
    #[should_panic(expected = "unknown label")]
    fn graph_from_labels_rejects_unknown_edge_endpoint() {
        graph_from_labels(&["A"], &[("A", "Z")]);
    }
}
