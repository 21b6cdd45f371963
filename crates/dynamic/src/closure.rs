//! [`SemiDynamicClosure`]: the maintained dense closure.
//!
//! State mirrors `TransitiveClosure` — a component per node plus one
//! reachability row (node bitset) per component — with the components
//! in the [`Maintainer`]'s slots. Insert propagation scans all live
//! slots and ignores their order; the deletion cone recompute walks the
//! condensation in post-order.

use crate::slots::{Cover, Maintainer};
use crate::update::UpdateEffect;
use phom_graph::validate::{sample_indices, Violation};
use phom_graph::{tarjan_scc, BitSet, DiGraph, NodeId, TransitiveClosure};
use std::sync::Arc;

/// A transitive closure kept consistent under edge insertions and
/// deletions. See the crate docs for the algorithm and [`Maintainer`]
/// for the shared entry points.
pub type SemiDynamicClosure<L = ()> = Maintainer<L, DenseRows>;

/// The dense maintainer's per-slot index: one reachability row per slot
/// (nodes reachable via a nonempty path).
#[derive(Debug, Clone)]
pub struct DenseRows {
    /// Rows are `Arc`-shared with the closure the maintainer was seeded
    /// from and with every version assembled since: a row is deep-copied
    /// only when an update first touches it (copy-on-write at row
    /// granularity). Dead slots hold a zeroed row so a closure taken
    /// from the maintainer stays well-formed.
    rows: Vec<Arc<BitSet>>,
}

impl<L> SemiDynamicClosure<L> {
    /// Seeds the maintainer from an **already computed** closure of
    /// `graph` — the cheap path the engine takes when applying updates to
    /// a `PreparedGraph` (one row memcpy instead of a closure rebuild).
    /// Takes the graph by value: it becomes the maintained graph and can
    /// be recovered, mutated, via [`SemiDynamicClosure::into_parts`].
    pub fn from_closure(graph: DiGraph<L>, closure: &TransitiveClosure) -> Self {
        let n = graph.node_count();
        debug_assert_eq!(closure.node_count(), n);
        // The seed closure may carry dead slots left by a previous
        // maintainer's merges (versions keep them so `comp` stays
        // valid). Compact here — renumber live slots densely — so slot
        // vectors do not grow without bound across versions of a
        // long-lived update stream.
        let old_slots = closure.component_count();
        let mut members_of_old: Vec<Vec<NodeId>> = vec![Vec::new(); old_slots];
        for v in graph.nodes() {
            members_of_old[closure.component_of(v)].push(v);
        }
        let mut remap: Vec<u32> = vec![u32::MAX; old_slots];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        let mut rows: Vec<Arc<BitSet>> = Vec::new();
        for (c, mems) in members_of_old.into_iter().enumerate() {
            if mems.is_empty() {
                continue;
            }
            remap[c] = members.len() as u32;
            rows.push(closure.component_row_shared(c));
            members.push(mems);
        }
        let comp: Vec<u32> = (0..n)
            .map(|v| remap[closure.component_of(NodeId(v as u32))])
            .collect();
        let cyclic: Vec<bool> = (0..members.len())
            .map(|c| rows[c].contains(members[c][0].index()))
            .collect();
        Maintainer::from_slots(graph, comp, members, cyclic, DenseRows { rows })
    }

    /// Consumes the maintainer into the (mutated) graph plus its current
    /// closure — what the engine assembles the next prepared version from.
    pub fn into_parts(self) -> (DiGraph<L>, TransitiveClosure) {
        let n = self.graph.node_count();
        let closure = TransitiveClosure::from_shared_parts(self.comp, self.cover.rows, n);
        (self.graph, closure)
    }

    /// Appends a fresh (empty, dead-until-filled) slot, returning its id.
    fn push_slot(&mut self) -> usize {
        let n = self.graph.node_count();
        self.members.push(Vec::new());
        self.cyclic.push(false);
        self.cover.rows.push(Arc::new(BitSet::new(n)));
        self.alive.push(true);
        self.live += 1;
        self.members.len() - 1
    }

    /// Handles a back-edge insertion `(u, v)` with `v ⇝ u`: every
    /// component both reached by `v` and reaching `u` collapses (with
    /// `comp(u)` and `comp(v)`) into one SCC; predecessors of any merged
    /// member absorb the merged row.
    fn merge_cycle(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        let n = self.graph.node_count();
        let cu = self.comp[u.index()] as usize;
        let cv = self.comp[v.index()] as usize;
        let rows = &mut self.cover.rows;

        // Candidate components: cv plus the components v reaches.
        let mut seen = vec![false; self.members.len()];
        let mut merge: Vec<usize> = Vec::new();
        seen[cv] = true;
        let mut cands = vec![cv];
        for x in rows[cv].iter() {
            let c = self.comp[x] as usize;
            if !seen[c] {
                seen[c] = true;
                cands.push(c);
            }
        }
        for &c in &cands {
            // On the new cycle iff it also reaches u (cu closes the cycle
            // through the new edge itself).
            if c == cu || rows[c].contains(u.index()) {
                merge.push(c);
            }
        }
        debug_assert!(merge.contains(&cu) && merge.contains(&cv));
        merge.sort_unstable();
        let c0 = merge[0];

        // Merged row: union of the member rows plus every merged member
        // (the new component is cyclic, so members reach each other).
        let mut row = BitSet::new(n);
        let mut all_members: Vec<NodeId> = Vec::new();
        let mut member_bits = BitSet::new(n);
        for &c in &merge {
            row.union_with(&rows[c]);
            for &m in &self.members[c] {
                member_bits.insert(m.index());
                all_members.push(m);
            }
        }
        row.union_with(&member_bits);

        for &m in &all_members {
            self.comp[m.index()] = c0 as u32;
        }
        let zero = Arc::new(BitSet::new(n));
        for &c in &merge[1..] {
            self.members[c].clear();
            rows[c] = Arc::clone(&zero);
            self.cyclic[c] = false;
            self.alive[c] = false;
            self.live -= 1;
        }
        self.members[c0] = all_members;
        rows[c0] = Arc::new(row.clone());
        self.cyclic[c0] = true;

        // Predecessors: any live component that reached one merged member
        // now reaches the whole merged row. (Every new pair routed through
        // the inserted edge passes through a merged member.)
        let mut affected = merge.len();
        for (c, r) in rows.iter_mut().enumerate() {
            if c != c0 && self.alive[c] && r.intersects(&member_bits) && !row.is_subset(r) {
                Arc::make_mut(r).union_with(&row);
                affected += 1;
            }
        }
        UpdateEffect::Incremental {
            affected_components: affected,
        }
    }

    /// Live slots whose row contains node `x` — the predecessor cone of
    /// `x` in the condensation (excluding components that merely *are*
    /// `x`'s own acyclic component).
    fn slots_reaching(&self, x: NodeId) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&c| self.alive[c] && self.cover.rows[c].contains(x.index()))
            .collect()
    }

    /// Nonempty-path reachability `from ⇝ to` over the **current**
    /// adjacency (called right after an edge removal, so the deleted edge
    /// is already gone). Pruned by the pre-removal closure: reachability
    /// can only shrink, so any node that could not reach `to` before the
    /// deletion still cannot, and the search never expands it.
    fn still_reaches(&self, from: NodeId, to: NodeId) -> bool {
        let n = self.graph.node_count();
        let to_idx = to.index();
        let could_reach =
            |x: NodeId| x == to || self.cover.rows[self.comp[x.index()] as usize].contains(to_idx);
        let mut seen = vec![false; n];
        let mut stack: Vec<NodeId> = self
            .graph
            .post(from)
            .iter()
            .copied()
            .filter(|&x| could_reach(x))
            .collect();
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen[x.index()] {
                seen[x.index()] = true;
                stack.extend(
                    self.graph
                        .post(x)
                        .iter()
                        .copied()
                        .filter(|&w| could_reach(w)),
                );
            }
        }
        false
    }
}

impl Cover for DenseRows {
    fn build<L>(graph: DiGraph<L>) -> Maintainer<L, Self> {
        let closure = TransitiveClosure::new(&graph);
        SemiDynamicClosure::from_closure(graph, &closure)
    }

    fn reaches<L>(m: &Maintainer<L, Self>, from: NodeId, to: NodeId) -> bool {
        m.cover.rows[m.comp[from.index()] as usize].contains(to.index())
    }

    fn insert<L>(m: &mut Maintainer<L, Self>, u: NodeId, v: NodeId) -> UpdateEffect {
        if !m.graph.add_edge(u, v) {
            return UpdateEffect::NoOp;
        }
        let cu = m.comp[u.index()] as usize;
        if u == v {
            // Self-loop: the only candidate new pair is (u, u).
            if m.cover.rows[cu].contains(u.index()) {
                return UpdateEffect::Unchanged;
            }
            m.cyclic[cu] = true;
            Arc::make_mut(&mut m.cover.rows[cu]).insert(u.index());
            return UpdateEffect::Incremental {
                affected_components: 1,
            };
        }
        if m.cover.rows[cu].contains(v.index()) {
            // u already reached v: any path through the new edge was
            // already witnessed (x ⇝ u ⇝ v ⇝ y).
            return UpdateEffect::Unchanged;
        }
        let cv = m.comp[v.index()] as usize;
        if m.cover.rows[cv].contains(u.index()) {
            return m.merge_cycle(u, v);
        }
        // Forward edge into an acyclic frontier: everything that reaches u
        // (plus u's own component) gains {v} ∪ reach(v). One application
        // suffices — a path using the edge twice would imply v ⇝ u.
        let rows = &mut m.cover.rows;
        let mut delta = (*rows[cv]).clone();
        delta.insert(v.index());
        Arc::make_mut(&mut rows[cu]).union_with(&delta);
        let mut affected = 1;
        for (c, r) in rows.iter_mut().enumerate() {
            // The subset test keeps no-op unions from forcing a
            // copy-on-write of rows that already contain the delta.
            if c != cu && m.alive[c] && r.contains(u.index()) && !delta.is_subset(r) {
                Arc::make_mut(r).union_with(&delta);
                affected += 1;
            }
        }
        UpdateEffect::Incremental {
            affected_components: affected,
        }
    }

    fn remove<L>(m: &mut Maintainer<L, Self>, u: NodeId, v: NodeId) -> UpdateEffect {
        if !m.graph.remove_edge(u, v) {
            return UpdateEffect::NoOp;
        }
        // Fast path: if u still reaches v, every old path through the
        // deleted edge has a substitute (x ⇝ u ⇝ v ⇝ y), so neither the
        // closure nor the SCC structure changed.
        if m.still_reaches(u, v) {
            return UpdateEffect::Unchanged;
        }
        let cu = m.comp[u.index()] as usize;
        let cv = m.comp[v.index()] as usize;
        if cu != cv {
            // Cross edge: SCC structure is untouched; only rows of
            // components reaching u can shrink.
            let mut affected = m.slots_reaching(u);
            if !affected.contains(&cu) {
                affected.push(cu);
            }
            return m.repair_cone(affected);
        }
        if u == v {
            // Self-loop removal: a larger SCC stays cyclic; a singleton
            // loses exactly the pair (u, u).
            if m.members[cu].len() > 1 {
                return UpdateEffect::Unchanged;
            }
            m.cyclic[cu] = false;
            Arc::make_mut(&mut m.cover.rows[cu]).remove(u.index());
            return UpdateEffect::Incremental {
                affected_components: 1,
            };
        }
        // Intra-SCC deletion: does the component survive? Re-run Tarjan
        // on an unlabeled copy of the component's induced subgraph.
        let mems = m.members[cu].clone();
        let mut local = vec![u32::MAX; m.graph.node_count()];
        let mut sub: DiGraph<()> = DiGraph::with_capacity(mems.len());
        for (i, &x) in mems.iter().enumerate() {
            local[x.index()] = i as u32;
            sub.add_node(());
        }
        for &x in &mems {
            for &w in m.graph.post(x) {
                if local[w.index()] != u32::MAX {
                    sub.add_edge(NodeId(local[x.index()]), NodeId(local[w.index()]));
                }
            }
        }
        let scc = tarjan_scc(&sub);
        if scc.count() == 1 {
            // Still strongly connected: cyclic stays true, and no
            // cross-component reachability changed.
            return UpdateEffect::Unchanged;
        }
        // Split: reuse the old slot for one fragment, append the rest.
        let mut fragments: Vec<usize> = Vec::with_capacity(scc.count());
        for c in 0..scc.count() {
            let slot = if c == 0 { cu } else { m.push_slot() };
            fragments.push(slot);
            let frag: Vec<NodeId> = scc.members(c).iter().map(|&x| mems[x.index()]).collect();
            for &x in &frag {
                m.comp[x.index()] = slot as u32;
            }
            m.members[slot] = frag;
        }
        // Affected cone: the fragments themselves plus every component
        // that reached the old SCC (each such row contains u, since the
        // old component was cyclic).
        let mut affected = fragments.clone();
        for c in m.slots_reaching(u) {
            if !fragments.contains(&c) {
                affected.push(c);
            }
        }
        m.repair_cone(affected)
    }

    /// Recomputes the rows of the `affected` slots from the condensation,
    /// reusing the up-to-date rows of every unaffected successor. Also
    /// refreshes the slots' `cyclic` flags.
    fn recompute<L>(m: &mut Maintainer<L, Self>, affected: &[usize]) {
        let n = m.graph.node_count();
        for c in m.post_order(affected) {
            let mut row = BitSet::new(n);
            let mut cyc = m.members[c].len() > 1;
            for &x in &m.members[c] {
                for &w in m.graph.post(x) {
                    let d = m.comp[w.index()] as usize;
                    if d == c {
                        cyc = true; // self-loop or intra-SCC edge
                        continue;
                    }
                    row.union_with(&m.cover.rows[d]);
                    for &dm in &m.members[d] {
                        row.insert(dm.index());
                    }
                }
            }
            if cyc {
                for &x in &m.members[c] {
                    row.insert(x.index());
                }
            }
            m.cyclic[c] = cyc;
            m.cover.rows[c] = Arc::new(row);
        }
    }

    /// Row shape and cyclic flags, then the maintained rows bit for bit
    /// against a fresh closure.
    fn validate<L>(m: &Maintainer<L, Self>, samples: usize) -> Result<(), Violation> {
        let rows = &m.cover.rows;
        if rows.len() != m.members.len() {
            return Err(Violation::new(
                "dynclosure-shape",
                "row count differs from the slot count",
            ));
        }
        for (c, mems) in m.members.iter().enumerate() {
            if let Some(&x) = mems.first() {
                if m.cyclic[c] != rows[c].contains(x.index()) {
                    return Err(Violation::new(
                        "dynclosure-cyclic",
                        format!("slot {c} cyclic flag disagrees with its row"),
                    ));
                }
            }
        }
        let fresh = TransitiveClosure::new(&m.graph);
        for v in sample_indices(m.graph.node_count(), samples) {
            let maintained = &rows[m.comp[v] as usize];
            let truth = fresh.reachable_set(NodeId(v as u32));
            if **maintained != *truth {
                return Err(Violation::new(
                    "dynclosure-reaches",
                    format!(
                        "row of node {v} disagrees with a from-scratch closure \
                         ({} vs {} reachable)",
                        maintained.count(),
                        truth.count()
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::DynamicStats;
    use phom_graph::graph_from_labels;

    fn assert_matches_scratch<L: Clone, M>(dyc: &SemiDynamicClosure<L>, g: &DiGraph<M>) {
        let scratch = TransitiveClosure::new(g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(
                    dyc.reaches(a, b),
                    scratch.reaches(a, b),
                    "reaches({a:?},{b:?}) diverged"
                );
            }
        }
        let (_, closure) = dyc.clone().into_parts();
        assert_eq!(closure.edge_count(), scratch.edge_count());
    }

    /// A path `n0 → n1 → … → n{len-1}`.
    fn path(len: usize) -> DiGraph<String> {
        let labels: Vec<String> = (0..len).map(|i| format!("n{i}")).collect();
        let names: Vec<&str> = labels.iter().map(String::as_str).collect();
        let edges: Vec<(&str, &str)> = names.windows(2).map(|w| (w[0], w[1])).collect();
        graph_from_labels(&names, &edges)
    }

    fn structure(g: &DiGraph<String>) -> DiGraph<()> {
        g.map_labels(|_, _| ())
    }

    #[test]
    fn forward_insert_propagates_to_predecessors() {
        let g0 = graph_from_labels(&["a", "b", "c", "d"], &[("a", "b"), ("c", "d")]);
        let mut dyc = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        // b -> c connects the two chains: a and b now reach c, d.
        let eff = dyc.insert_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        assert!(matches!(eff, UpdateEffect::Incremental { .. }));
        assert!(dyc.reaches(NodeId(0), NodeId(3)));
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn redundant_insert_is_unchanged_and_duplicate_is_noop() {
        let g0 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let mut dyc = SemiDynamicClosure::new(&g0);
        // a already reaches c via b.
        assert_eq!(
            dyc.insert_edge(NodeId(0), NodeId(2)),
            UpdateEffect::Unchanged
        );
        assert_eq!(dyc.insert_edge(NodeId(0), NodeId(2)), UpdateEffect::NoOp);
        let mut g = structure(&g0);
        g.add_edge(NodeId(0), NodeId(2));
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn back_edge_merges_scc_and_updates_predecessors() {
        // p -> a -> b -> c -> d ; inserting d -> a builds a 4-cycle.
        let g0 = graph_from_labels(
            &["p", "a", "b", "c", "d"],
            &[("p", "a"), ("a", "b"), ("b", "c"), ("c", "d")],
        );
        let mut dyc = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        assert_eq!(dyc.component_count(), 5);
        let eff = dyc.insert_edge(NodeId(4), NodeId(1));
        g.add_edge(NodeId(4), NodeId(1));
        assert!(matches!(eff, UpdateEffect::Incremental { .. }));
        assert_eq!(dyc.component_count(), 2, "cycle collapsed to one SCC");
        assert!(dyc.reaches(NodeId(1), NodeId(1)), "on cycle");
        assert!(dyc.reaches(NodeId(0), NodeId(4)), "p sees whole cycle");
        assert!(!dyc.reaches(NodeId(1), NodeId(0)));
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn self_loop_roundtrip() {
        let g0 = graph_from_labels(&["p", "a"], &[("p", "a")]);
        let mut dyc = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        dyc.insert_edge(NodeId(1), NodeId(1));
        g.add_edge(NodeId(1), NodeId(1));
        assert!(dyc.reaches(NodeId(1), NodeId(1)));
        assert_matches_scratch(&dyc, &g);
        dyc.remove_edge(NodeId(1), NodeId(1));
        g.remove_edge(NodeId(1), NodeId(1));
        assert!(!dyc.reaches(NodeId(1), NodeId(1)));
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn cross_edge_deletion_recomputes_cone() {
        let g0 = graph_from_labels(&["a", "b", "c", "d"], &[("a", "b"), ("b", "c"), ("c", "d")]);
        let mut dyc = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        let eff = dyc.remove_edge(NodeId(1), NodeId(2));
        g.remove_edge(NodeId(1), NodeId(2));
        assert!(matches!(eff, UpdateEffect::Incremental { .. }));
        assert!(!dyc.reaches(NodeId(0), NodeId(3)));
        assert!(dyc.reaches(NodeId(0), NodeId(1)));
        assert!(dyc.reaches(NodeId(2), NodeId(3)));
        assert_eq!(dyc.stats().rebuilds, 0, "cone stayed under the threshold");
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn intra_scc_deletion_splits_component() {
        // 3-cycle with a tail: removing one cycle edge splits the SCC.
        let g0 = graph_from_labels(
            &["a", "b", "c", "t"],
            &[("a", "b"), ("b", "c"), ("c", "a"), ("c", "t")],
        );
        let mut dyc = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        assert_eq!(dyc.component_count(), 2);
        let eff = dyc.remove_edge(NodeId(2), NodeId(0));
        g.remove_edge(NodeId(2), NodeId(0));
        assert!(matches!(
            eff,
            UpdateEffect::Incremental { .. } | UpdateEffect::Rebuilt
        ));
        assert_eq!(
            dyc.component_count(),
            4,
            "the 3-cycle split into singletons"
        );
        assert!(!dyc.reaches(NodeId(0), NodeId(0)));
        assert!(dyc.reaches(NodeId(0), NodeId(3)));
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn redundant_cycle_edge_deletion_is_unchanged() {
        // Complete 2-cycle plus chord ... a<->b with both edges, remove one
        // of two parallel paths keeping strong connectivity.
        let g0 = graph_from_labels(
            &["a", "b", "c"],
            &[("a", "b"), ("b", "c"), ("c", "a"), ("b", "a")],
        );
        let mut dyc = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        assert_eq!(
            dyc.remove_edge(NodeId(1), NodeId(0)),
            UpdateEffect::Unchanged,
            "SCC survives via the 3-cycle"
        );
        g.remove_edge(NodeId(1), NodeId(0));
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn deletion_cone_over_the_damage_budget_rebuilds_and_stays_correct() {
        // Cutting n8 -> n9 shrinks the rows of n0..n8: a cone of 9 of 10
        // live components, over the budget of 5.
        let g0 = path(10);
        let mut dyc = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        let eff = dyc.remove_edge(NodeId(8), NodeId(9));
        g.remove_edge(NodeId(8), NodeId(9));
        assert_eq!(eff, UpdateEffect::Rebuilt);
        assert_eq!(dyc.stats().rebuilds, 1);
        assert_eq!(dyc.stats().fallback_damage, 1);
        assert_eq!(dyc.stats().fallback_unsupported, 0);
        assert_matches_scratch(&dyc, &g);
    }

    /// The operations layer's damage telemetry: every structural removal
    /// records its cone size as a fraction of live components, and the
    /// stat keeps the peak — across both the incremental and the
    /// rebuild branch.
    #[test]
    fn deletion_damage_peak_is_recorded() {
        let g0 = graph_from_labels(&["a", "b", "c", "d"], &[("a", "b"), ("b", "c"), ("c", "d")]);
        let mut dyc = SemiDynamicClosure::new(&g0);
        assert_eq!(dyc.stats().peak_damage_permille, 0, "no removals yet");
        // Cone of b -> c is {a, b}: 2 of 4 live components = 500‰,
        // under the default 0.5 threshold (incremental branch).
        dyc.remove_edge(NodeId(1), NodeId(2));
        assert_eq!(dyc.stats().rebuilds, 0);
        assert_eq!(dyc.stats().peak_damage_permille, 500);
        // A smaller cone later must not lower the peak.
        dyc.remove_edge(NodeId(2), NodeId(3));
        assert_eq!(dyc.stats().peak_damage_permille, 500);
        // The rebuild branch records damage too (and survives the
        // stats carry-over inside rebuild()): 9 of 10 components.
        let mut over = SemiDynamicClosure::new(&path(10));
        assert_eq!(
            over.remove_edge(NodeId(8), NodeId(9)),
            UpdateEffect::Rebuilt
        );
        assert_eq!(over.stats().peak_damage_permille, 900);
    }

    #[test]
    fn seeding_from_existing_closure_matches_fresh_build() {
        let g0 = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
        );
        let closure = TransitiveClosure::new(&g0);
        let mut seeded = SemiDynamicClosure::from_closure(g0.clone(), &closure);
        let mut fresh = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        for (a, b) in [(3u32, 0u32), (2, 2), (0, 3)] {
            let (a, b) = (NodeId(a), NodeId(b));
            seeded.insert_edge(a, b);
            fresh.insert_edge(a, b);
            g.add_edge(a, b);
            assert_matches_scratch(&seeded, &g);
            assert_matches_scratch(&fresh, &g);
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        struct OpSeq {
            n: usize,
            edges: Vec<(usize, usize)>,
            ops: Vec<(bool, usize, usize)>,
        }

        fn arb_ops() -> impl Strategy<Value = OpSeq> {
            (
                2usize..12,
                proptest::collection::vec((0usize..12, 0usize..12), 0..24),
                proptest::collection::vec((any::<bool>(), 0usize..12, 0usize..12), 1..30),
            )
                .prop_map(|(n, edges, ops)| OpSeq { n, edges, ops })
        }

        /// Applies `seq` step by step, comparing every prefix with a
        /// from-scratch closure; returns the maintainer's counters and
        /// each update's effect.
        fn check_sequence(seq: &OpSeq) -> Result<(DynamicStats, Vec<UpdateEffect>), TestCaseError> {
            let mut g: DiGraph<()> = DiGraph::with_capacity(seq.n);
            for _ in 0..seq.n {
                g.add_node(());
            }
            for &(a, b) in &seq.edges {
                g.add_edge(NodeId((a % seq.n) as u32), NodeId((b % seq.n) as u32));
            }
            let mut dyc = SemiDynamicClosure::new(&g);
            let mut effects = Vec::new();
            for &(insert, a, b) in &seq.ops {
                let a = NodeId((a % seq.n) as u32);
                let b = NodeId((b % seq.n) as u32);
                if insert {
                    g.add_edge(a, b);
                    effects.push(dyc.insert_edge(a, b));
                } else {
                    g.remove_edge(a, b);
                    effects.push(dyc.remove_edge(a, b));
                }
                let scratch = TransitiveClosure::new(&g);
                let (_, snap) = dyc.clone().into_parts();
                for x in g.nodes() {
                    for y in g.nodes() {
                        prop_assert_eq!(
                            dyc.reaches(x, y),
                            scratch.reaches(x, y),
                            "after {:?} {:?}->{:?}: reaches({:?},{:?})",
                            if insert { "insert" } else { "remove" },
                            a,
                            b,
                            x,
                            y
                        );
                        prop_assert_eq!(snap.reaches(x, y), scratch.reaches(x, y));
                    }
                }
            }
            // The maintainer's own validator (the audit surface) must
            // accept the maintained state after the full sequence.
            prop_assert_eq!(dyc.validate(g.node_count()).err(), None);
            Ok((*dyc.stats(), effects))
        }

        /// The property's checks reach both sides of the damage budget:
        /// on a 10-node path, cutting `n0 -> n1` recomputes a cone of one
        /// component, and cutting `n8 -> n9` next (a cone of 8 of 10)
        /// rebuilds.
        #[test]
        fn sequence_check_covers_cone_recompute_and_rebuild() {
            let seq = OpSeq {
                n: 10,
                edges: (0..9).map(|i| (i, i + 1)).collect(),
                ops: vec![(false, 0, 1), (false, 8, 9)],
            };
            let (stats, effects) = check_sequence(&seq).expect("maintained closure matches");
            assert!(
                matches!(effects[0], UpdateEffect::Incremental { .. }),
                "cone recompute"
            );
            assert_eq!(effects[1], UpdateEffect::Rebuilt);
            assert_eq!(stats.rebuilds, 1, "damage rebuild");
            assert_eq!(stats.fallback_damage, 1);
        }

        proptest! {
            /// The acceptance-criteria property: a maintained closure
            /// equals the from-scratch closure of the mutated graph after
            /// every prefix of any random update sequence.
            #[test]
            fn prop_dynamic_equals_scratch(seq in arb_ops()) {
                check_sequence(&seq)?;
            }
        }
    }
}
