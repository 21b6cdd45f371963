//! [`SemiDynamicClosure`]: the maintained closure itself.
//!
//! State mirrors `TransitiveClosure` — a component id per node plus one
//! reachability row (node bitset) per component — but components live in
//! *slots*: a back-edge insertion merges several slots into one (the
//! survivors' slots are cleared and marked dead), an intra-SCC deletion
//! splits one slot into several (fresh slots are appended). Slot ids are
//! therefore **not** topologically ordered the way Tarjan ids are; every
//! algorithm here either ignores order (insert propagation scans all
//! live slots) or derives the order it needs on the fly (the deletion
//! cone recompute does an explicit post-order walk of the condensation).

use crate::update::{DynamicConfig, DynamicStats};
use phom_graph::validate::{sample_indices, Violation};
use phom_graph::{
    tarjan_scc, BitSet, DiGraph, DynamicClosure, NodeId, TransitiveClosure, UpdateEffect,
};
use std::sync::Arc;

/// A transitive closure kept consistent under edge insertions and
/// deletions. See the crate docs for the algorithm; see
/// [`phom_graph::DynamicClosure`] for the consumer-facing contract.
///
/// Generic over the label type so a consumer can hand its (cloned) data
/// graph over, mutate it *through* the maintainer, and take the mutated
/// graph back via [`SemiDynamicClosure::into_parts`]. The clone shares
/// labels and adjacency with the graph it came from (see
/// [`phom_graph::DiGraph`]), so a batch copies only the adjacency chunks
/// its edits write, never the whole graph. Labels play no role in
/// maintenance; `L = ()` works for pure reachability use.
#[derive(Debug, Clone)]
pub struct SemiDynamicClosure<L = ()> {
    /// The maintained graph (owned; mutate it only through the
    /// maintainer, or the closure goes stale).
    graph: DiGraph<L>,
    /// `comp[v]` = slot of the component holding `v`.
    comp: Vec<u32>,
    /// Members per slot; dead slots are empty.
    members: Vec<Vec<NodeId>>,
    /// Whether the slot's component is cyclic (its members reach
    /// themselves): size > 1, or a singleton with a self-loop.
    cyclic: Vec<bool>,
    /// Reachability row per slot (nodes reachable via a nonempty path).
    /// Rows are `Arc`-shared with the closure the maintainer was seeded
    /// from and with every snapshot taken since: a row is deep-copied
    /// only when an update first touches it (copy-on-write at row
    /// granularity). Dead slots hold a zeroed row so snapshots stay
    /// well-formed.
    rows: Vec<Arc<BitSet>>,
    /// Slot liveness.
    alive: Vec<bool>,
    /// Number of live slots.
    live: usize,
    config: DynamicConfig,
    stats: DynamicStats,
}

impl<L: Clone> SemiDynamicClosure<L> {
    /// Builds the maintainer from scratch (one Tarjan + closure pass over
    /// a copy of `g`).
    pub fn new(g: &DiGraph<L>) -> Self {
        Self::with_config(g, DynamicConfig::default())
    }

    /// [`SemiDynamicClosure::new`] with explicit tuning.
    pub fn with_config(g: &DiGraph<L>, config: DynamicConfig) -> Self {
        let graph = g.clone();
        let scc = tarjan_scc(&graph);
        let closure = TransitiveClosure::from_scc(&graph, &scc);
        Self::seeded(graph, &closure, config)
    }
}

impl<L> SemiDynamicClosure<L> {
    /// Seeds the maintainer from an **already computed** closure of
    /// `graph` — the cheap path the engine takes when applying updates to
    /// a `PreparedGraph` (one row memcpy instead of a closure rebuild).
    /// Takes the graph by value: it becomes the maintained graph and can
    /// be recovered, mutated, via [`SemiDynamicClosure::into_parts`].
    pub fn from_closure(
        graph: DiGraph<L>,
        closure: &TransitiveClosure,
        config: DynamicConfig,
    ) -> Self {
        Self::seeded(graph, closure, config)
    }

    fn seeded(graph: DiGraph<L>, closure: &TransitiveClosure, config: DynamicConfig) -> Self {
        let n = graph.node_count();
        debug_assert_eq!(closure.node_count(), n);
        // The seed closure may carry dead slots left by a previous
        // maintainer's merges (snapshots keep them so `comp` stays
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
        let live = members.len();
        let alive = vec![true; live];
        SemiDynamicClosure {
            graph,
            comp,
            members,
            cyclic,
            rows,
            alive,
            live,
            config,
            stats: DynamicStats::default(),
        }
    }

    /// The maintained graph.
    pub fn graph(&self) -> &DiGraph<L> {
        &self.graph
    }

    /// Number of live condensation components.
    pub fn component_count(&self) -> usize {
        self.live
    }

    /// Counters of the work done so far.
    pub fn stats(&self) -> &DynamicStats {
        &self.stats
    }

    /// Checks the maintained state against a from-scratch recomputation
    /// — the maintenance contract `maintained ≡
    /// TransitiveClosure::new(graph)`. Slot bookkeeping is verified
    /// first (assignments in range, liveness/membership agreement,
    /// cyclic flags consistent with rows), then the maintained rows are
    /// compared bit-for-bit against a fresh closure for up to `samples`
    /// evenly-spaced source nodes (pass `samples >= node_count` for an
    /// exhaustive comparison). Returns the first violated invariant.
    pub fn validate(&self, samples: usize) -> Result<(), Violation> {
        let n = self.graph.node_count();
        let slots = self.members.len();
        if self.comp.len() != n {
            return Err(Violation::new(
                "dynclosure-shape",
                format!("comp covers {} of {n} nodes", self.comp.len()),
            ));
        }
        if self.rows.len() != slots || self.cyclic.len() != slots || self.alive.len() != slots {
            return Err(Violation::new(
                "dynclosure-shape",
                "slot vectors have diverging lengths",
            ));
        }
        if self.live != self.alive.iter().filter(|&&a| a).count() {
            return Err(Violation::new(
                "dynclosure-slots",
                "live counter disagrees with slot liveness",
            ));
        }
        for (v, &c) in self.comp.iter().enumerate() {
            let c = c as usize;
            if c >= slots || !self.alive[c] {
                return Err(Violation::new(
                    "dynclosure-slots",
                    format!("node {v} assigned to dead or out-of-range slot {c}"),
                ));
            }
            if !self.members[c].contains(&NodeId(v as u32)) {
                return Err(Violation::new(
                    "dynclosure-slots",
                    format!("node {v} missing from the member list of slot {c}"),
                ));
            }
        }
        for c in 0..slots {
            if !self.alive[c] && !self.members[c].is_empty() {
                return Err(Violation::new(
                    "dynclosure-slots",
                    format!("dead slot {c} still holds members"),
                ));
            }
            if let Some(&m) = self.members[c].first() {
                if self.cyclic[c] != self.rows[c].contains(m.index()) {
                    return Err(Violation::new(
                        "dynclosure-cyclic",
                        format!("slot {c} cyclic flag disagrees with its row"),
                    ));
                }
            }
        }
        let fresh = TransitiveClosure::new(&self.graph);
        for v in sample_indices(n, samples) {
            let maintained = &self.rows[self.comp[v] as usize];
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

    /// Consumes the maintainer into an immutable closure of its current
    /// state — the allocation-free sibling of
    /// [`DynamicClosure::snapshot`] for callers done with updates (the
    /// engine's apply path, which seeds, patches, and snapshots once per
    /// batch).
    pub fn into_snapshot(self) -> TransitiveClosure {
        self.into_parts().1
    }

    /// Consumes the maintainer into the (mutated) graph plus its current
    /// closure — what the engine assembles the next prepared version from.
    pub fn into_parts(self) -> (DiGraph<L>, TransitiveClosure) {
        let n = self.graph.node_count();
        let closure = TransitiveClosure::from_shared_parts(self.comp, self.rows, n);
        (self.graph, closure)
    }

    /// Appends a fresh (empty, dead-until-filled) slot, returning its id.
    fn push_slot(&mut self) -> usize {
        let n = self.graph.node_count();
        self.members.push(Vec::new());
        self.cyclic.push(false);
        self.rows.push(Arc::new(BitSet::new(n)));
        self.alive.push(true);
        self.live += 1;
        self.members.len() - 1
    }

    /// Full from-scratch rebuild — the deletion fallback.
    fn rebuild(&mut self) {
        let scc = tarjan_scc(&self.graph);
        let closure = TransitiveClosure::from_scc(&self.graph, &scc);
        let stats = self.stats;
        let config = self.config;
        *self = Self::seeded(std::mem::take(&mut self.graph), &closure, config);
        self.stats = stats;
        self.stats.rebuilds += 1;
    }

    /// Handles a back-edge insertion `(u, v)` with `v ⇝ u`: every
    /// component both reached by `v` and reaching `u` collapses (with
    /// `comp(u)` and `comp(v)`) into one SCC; predecessors of any merged
    /// member absorb the merged row.
    fn merge_cycle(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        let n = self.graph.node_count();
        let cu = self.comp[u.index()] as usize;
        let cv = self.comp[v.index()] as usize;

        // Candidate components: cv plus the components v reaches.
        let mut seen = vec![false; self.members.len()];
        let mut merge: Vec<usize> = Vec::new();
        seen[cv] = true;
        let mut cands = vec![cv];
        for x in self.rows[cv].iter() {
            let c = self.comp[x] as usize;
            if !seen[c] {
                seen[c] = true;
                cands.push(c);
            }
        }
        for &c in &cands {
            // On the new cycle iff it also reaches u (cu closes the cycle
            // through the new edge itself).
            if c == cu || self.rows[c].contains(u.index()) {
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
            row.union_with(&self.rows[c]);
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
            self.rows[c] = Arc::clone(&zero);
            self.cyclic[c] = false;
            self.alive[c] = false;
            self.live -= 1;
        }
        self.members[c0] = all_members;
        self.rows[c0] = Arc::new(row.clone());
        self.cyclic[c0] = true;

        // Predecessors: any live component that reached one merged member
        // now reaches the whole merged row. (Every new pair routed through
        // the inserted edge passes through a merged member.)
        let mut affected = merge.len();
        for c in 0..self.members.len() {
            if c != c0
                && self.alive[c]
                && self.rows[c].intersects(&member_bits)
                && !row.is_subset(&self.rows[c])
            {
                Arc::make_mut(&mut self.rows[c]).union_with(&row);
                affected += 1;
            }
        }
        self.stats.scc_merges += 1;
        self.stats.incremental_inserts += 1;
        UpdateEffect::Incremental {
            affected_components: affected,
        }
    }

    /// Recomputes the rows of `affected` slots from the condensation, in
    /// post-order (successors first), reusing the up-to-date rows of every
    /// unaffected successor. Also refreshes the slots' `cyclic` flags.
    fn recompute_cone(&mut self, affected: &[usize]) {
        let slots = self.members.len();
        let mut need = vec![false; slots];
        for &c in affected {
            need[c] = true;
        }
        // Post-order DFS restricted to affected slots; the condensation is
        // acyclic, so the order is well-defined.
        let mut state = vec![0u8; slots]; // 0 fresh, 1 queued, 2 ordered
        let mut order: Vec<usize> = Vec::with_capacity(affected.len());
        let mut stack: Vec<(usize, bool)> = Vec::new();
        for &start in affected {
            if state[start] == 2 {
                continue;
            }
            stack.push((start, false));
            while let Some((c, emit)) = stack.pop() {
                if emit {
                    if state[c] != 2 {
                        state[c] = 2;
                        order.push(c);
                    }
                    continue;
                }
                if state[c] != 0 {
                    continue;
                }
                state[c] = 1;
                stack.push((c, true));
                for &m in &self.members[c] {
                    for &w in self.graph.post(m) {
                        let d = self.comp[w.index()] as usize;
                        if d != c && need[d] && state[d] == 0 {
                            stack.push((d, false));
                        }
                    }
                }
            }
        }

        let n = self.graph.node_count();
        for &c in &order {
            let mems = self.members[c].clone();
            let mut row = BitSet::new(n);
            let mut cyc = mems.len() > 1;
            for &m in &mems {
                for &w in self.graph.post(m) {
                    let d = self.comp[w.index()] as usize;
                    if d == c {
                        cyc = true; // self-loop or intra-SCC edge
                        continue;
                    }
                    row.union_with(&self.rows[d]);
                    for &dm in &self.members[d] {
                        row.insert(dm.index());
                    }
                }
            }
            if cyc {
                for &m in &mems {
                    row.insert(m.index());
                }
            }
            self.cyclic[c] = cyc;
            self.rows[c] = Arc::new(row);
        }
    }

    /// Applies the damage threshold: cone recompute below it, full
    /// rebuild above.
    fn repair_after_removal(&mut self, affected: Vec<usize>) -> UpdateEffect {
        let budget = ((self.config.damage_threshold * self.live as f64).ceil() as usize).max(1);
        if let Some(permille) = (affected.len() * 1000).checked_div(self.live) {
            self.stats.peak_damage_permille = self.stats.peak_damage_permille.max(permille);
        }
        if affected.len() > budget {
            self.rebuild();
            return UpdateEffect::Rebuilt;
        }
        let count = affected.len();
        self.recompute_cone(&affected);
        self.stats.incremental_removals += 1;
        UpdateEffect::Incremental {
            affected_components: count,
        }
    }

    /// Live slots whose row contains node `x` — the predecessor cone of
    /// `x` in the condensation (excluding components that merely *are*
    /// `x`'s own acyclic component).
    fn slots_reaching(&self, x: NodeId) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&c| self.alive[c] && self.rows[c].contains(x.index()))
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
            |x: NodeId| x == to || self.rows[self.comp[x.index()] as usize].contains(to_idx);
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

    /// [`DynamicClosure::insert_edge`] without the maintenance-timing
    /// wrapper.
    fn insert_edge_untimed(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        if !self.graph.add_edge(u, v) {
            self.stats.noops += 1;
            return UpdateEffect::NoOp;
        }
        let cu = self.comp[u.index()] as usize;
        if u == v {
            // Self-loop: the only candidate new pair is (u, u).
            if self.rows[cu].contains(u.index()) {
                self.stats.unchanged += 1;
                return UpdateEffect::Unchanged;
            }
            self.cyclic[cu] = true;
            Arc::make_mut(&mut self.rows[cu]).insert(u.index());
            self.stats.incremental_inserts += 1;
            return UpdateEffect::Incremental {
                affected_components: 1,
            };
        }
        if self.rows[cu].contains(v.index()) {
            // u already reached v: any path through the new edge was
            // already witnessed (x ⇝ u ⇝ v ⇝ y).
            self.stats.unchanged += 1;
            return UpdateEffect::Unchanged;
        }
        let cv = self.comp[v.index()] as usize;
        if self.rows[cv].contains(u.index()) {
            return self.merge_cycle(u, v);
        }
        // Forward edge into an acyclic frontier: everything that reaches u
        // (plus u's own component) gains {v} ∪ reach(v). One application
        // suffices — a path using the edge twice would imply v ⇝ u.
        let mut delta = (*self.rows[cv]).clone();
        delta.insert(v.index());
        Arc::make_mut(&mut self.rows[cu]).union_with(&delta);
        let mut affected = 1;
        for c in 0..self.members.len() {
            // The subset test keeps no-op unions from forcing a
            // copy-on-write of rows that already contain the delta.
            if c != cu
                && self.alive[c]
                && self.rows[c].contains(u.index())
                && !delta.is_subset(&self.rows[c])
            {
                Arc::make_mut(&mut self.rows[c]).union_with(&delta);
                affected += 1;
            }
        }
        self.stats.incremental_inserts += 1;
        UpdateEffect::Incremental {
            affected_components: affected,
        }
    }

    /// [`DynamicClosure::remove_edge`] without the maintenance-timing
    /// wrapper.
    fn remove_edge_untimed(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        if !self.graph.remove_edge(u, v) {
            self.stats.noops += 1;
            return UpdateEffect::NoOp;
        }
        // Fast path: if u still reaches v, every old path through the
        // deleted edge has a substitute (x ⇝ u ⇝ v ⇝ y), so neither the
        // closure nor the SCC structure changed.
        if self.still_reaches(u, v) {
            self.stats.unchanged += 1;
            return UpdateEffect::Unchanged;
        }
        let cu = self.comp[u.index()] as usize;
        let cv = self.comp[v.index()] as usize;
        if cu != cv {
            // Cross edge: SCC structure is untouched; only rows of
            // components reaching u can shrink.
            let mut affected = self.slots_reaching(u);
            if !affected.contains(&cu) {
                affected.push(cu);
            }
            return self.repair_after_removal(affected);
        }
        if u == v {
            // Self-loop removal: a larger SCC stays cyclic; a singleton
            // loses exactly the pair (u, u).
            if self.members[cu].len() > 1 {
                self.stats.unchanged += 1;
                return UpdateEffect::Unchanged;
            }
            self.cyclic[cu] = false;
            Arc::make_mut(&mut self.rows[cu]).remove(u.index());
            self.stats.incremental_removals += 1;
            return UpdateEffect::Incremental {
                affected_components: 1,
            };
        }
        // Intra-SCC deletion: does the component survive? Re-run Tarjan
        // on an unlabeled copy of the component's induced subgraph.
        let mems = self.members[cu].clone();
        let mut local = vec![u32::MAX; self.graph.node_count()];
        let mut sub: DiGraph<()> = DiGraph::with_capacity(mems.len());
        for (i, &m) in mems.iter().enumerate() {
            local[m.index()] = i as u32;
            sub.add_node(());
        }
        for &m in &mems {
            for &w in self.graph.post(m) {
                if local[w.index()] != u32::MAX {
                    sub.add_edge(NodeId(local[m.index()]), NodeId(local[w.index()]));
                }
            }
        }
        let scc = tarjan_scc(&sub);
        if scc.count() == 1 {
            // Still strongly connected: cyclic stays true, and no
            // cross-component reachability changed.
            self.stats.unchanged += 1;
            return UpdateEffect::Unchanged;
        }
        // Split: reuse the old slot for one fragment, append the rest.
        self.stats.scc_splits += 1;
        let mut fragments: Vec<usize> = Vec::with_capacity(scc.count());
        for c in 0..scc.count() {
            let slot = if c == 0 { cu } else { self.push_slot() };
            fragments.push(slot);
            let frag: Vec<NodeId> = scc.members(c).iter().map(|&x| mems[x.index()]).collect();
            for &m in &frag {
                self.comp[m.index()] = slot as u32;
            }
            self.members[slot] = frag;
        }
        // Affected cone: the fragments themselves plus every component
        // that reached the old SCC (each such row contains u, since the
        // old component was cyclic).
        let mut affected = fragments.clone();
        for c in self.slots_reaching(u) {
            if !fragments.contains(&c) {
                affected.push(c);
            }
        }
        self.repair_after_removal(affected)
    }
}

impl<L> DynamicClosure for SemiDynamicClosure<L> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.rows[self.comp[from.index()] as usize].contains(to.index())
    }

    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        // phom-lint: allow(clock, "monotonic elapsed-time maintenance stats; no wall-clock semantics")
        let started = std::time::Instant::now();
        let effect = self.insert_edge_untimed(u, v);
        self.stats.maintain_micros += started.elapsed().as_micros();
        effect
    }

    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        // phom-lint: allow(clock, "monotonic elapsed-time maintenance stats; no wall-clock semantics")
        let started = std::time::Instant::now();
        let effect = self.remove_edge_untimed(u, v);
        self.stats.maintain_micros += started.elapsed().as_micros();
        effect
    }

    fn snapshot(&self) -> TransitiveClosure {
        TransitiveClosure::from_shared_parts(
            self.comp.clone(),
            self.rows.clone(),
            self.graph.node_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    fn assert_matches_scratch<L, M>(dyc: &SemiDynamicClosure<L>, g: &DiGraph<M>) {
        let scratch = TransitiveClosure::new(g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(
                    DynamicClosure::reaches(dyc, a, b),
                    scratch.reaches(a, b),
                    "reaches({a:?},{b:?}) diverged"
                );
            }
        }
        let snap = dyc.snapshot();
        assert_eq!(snap.edge_count(), scratch.edge_count());
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
        assert!(DynamicClosure::reaches(&dyc, NodeId(0), NodeId(3)));
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
        let eff = dyc.insert_edge(NodeId(4), NodeId(1));
        g.add_edge(NodeId(4), NodeId(1));
        assert!(matches!(eff, UpdateEffect::Incremental { .. }));
        assert_eq!(dyc.component_count(), 2, "cycle collapsed to one SCC");
        assert!(
            DynamicClosure::reaches(&dyc, NodeId(1), NodeId(1)),
            "on cycle"
        );
        assert!(
            DynamicClosure::reaches(&dyc, NodeId(0), NodeId(4)),
            "p sees whole cycle"
        );
        assert!(!DynamicClosure::reaches(&dyc, NodeId(1), NodeId(0)));
        assert_eq!(dyc.stats().scc_merges, 1);
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn self_loop_roundtrip() {
        let g0 = graph_from_labels(&["p", "a"], &[("p", "a")]);
        let mut dyc = SemiDynamicClosure::new(&g0);
        let mut g = structure(&g0);
        dyc.insert_edge(NodeId(1), NodeId(1));
        g.add_edge(NodeId(1), NodeId(1));
        assert!(DynamicClosure::reaches(&dyc, NodeId(1), NodeId(1)));
        assert_matches_scratch(&dyc, &g);
        dyc.remove_edge(NodeId(1), NodeId(1));
        g.remove_edge(NodeId(1), NodeId(1));
        assert!(!DynamicClosure::reaches(&dyc, NodeId(1), NodeId(1)));
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
        assert!(!DynamicClosure::reaches(&dyc, NodeId(0), NodeId(3)));
        assert!(DynamicClosure::reaches(&dyc, NodeId(0), NodeId(1)));
        assert!(DynamicClosure::reaches(&dyc, NodeId(2), NodeId(3)));
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
        let eff = dyc.remove_edge(NodeId(2), NodeId(0));
        g.remove_edge(NodeId(2), NodeId(0));
        assert!(matches!(
            eff,
            UpdateEffect::Incremental { .. } | UpdateEffect::Rebuilt
        ));
        assert_eq!(dyc.stats().scc_splits, 1);
        assert!(!DynamicClosure::reaches(&dyc, NodeId(0), NodeId(0)));
        assert!(DynamicClosure::reaches(&dyc, NodeId(0), NodeId(3)));
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
    fn zero_damage_threshold_forces_rebuild_and_stays_correct() {
        let g0 = graph_from_labels(&["a", "b", "c", "d"], &[("a", "b"), ("b", "c"), ("c", "d")]);
        let mut dyc = SemiDynamicClosure::with_config(
            &g0,
            DynamicConfig {
                damage_threshold: 0.0,
            },
        );
        let mut g = structure(&g0);
        // Affected cone {a, b} exceeds the 1-component minimum budget.
        let eff = dyc.remove_edge(NodeId(1), NodeId(2));
        g.remove_edge(NodeId(1), NodeId(2));
        assert_eq!(eff, UpdateEffect::Rebuilt);
        assert_eq!(dyc.stats().rebuilds, 1);
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
        // stats carry-over inside rebuild()).
        let g1 = graph_from_labels(&["a", "b", "c", "d"], &[("a", "b"), ("b", "c"), ("c", "d")]);
        let mut forced = SemiDynamicClosure::with_config(
            &g1,
            DynamicConfig {
                damage_threshold: 0.0,
            },
        );
        assert_eq!(
            forced.remove_edge(NodeId(1), NodeId(2)),
            UpdateEffect::Rebuilt
        );
        assert_eq!(forced.stats().peak_damage_permille, 500);
    }

    #[test]
    fn seeding_from_existing_closure_matches_fresh_build() {
        let g0 = graph_from_labels(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
        );
        let closure = TransitiveClosure::new(&g0);
        let mut seeded =
            SemiDynamicClosure::from_closure(g0.clone(), &closure, DynamicConfig::default());
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

        fn check_sequence(seq: &OpSeq, threshold: f64) -> Result<(), TestCaseError> {
            let mut g: DiGraph<()> = DiGraph::with_capacity(seq.n);
            for _ in 0..seq.n {
                g.add_node(());
            }
            for &(a, b) in &seq.edges {
                g.add_edge(NodeId((a % seq.n) as u32), NodeId((b % seq.n) as u32));
            }
            let mut dyc = SemiDynamicClosure::with_config(
                &g,
                DynamicConfig {
                    damage_threshold: threshold,
                },
            );
            for &(insert, a, b) in &seq.ops {
                let a = NodeId((a % seq.n) as u32);
                let b = NodeId((b % seq.n) as u32);
                if insert {
                    g.add_edge(a, b);
                    dyc.insert_edge(a, b);
                } else {
                    g.remove_edge(a, b);
                    dyc.remove_edge(a, b);
                }
                let scratch = TransitiveClosure::new(&g);
                let snap = dyc.snapshot();
                for x in g.nodes() {
                    for y in g.nodes() {
                        prop_assert_eq!(
                            DynamicClosure::reaches(&dyc, x, y),
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
            Ok(())
        }

        proptest! {
            /// The acceptance-criteria property: a maintained closure
            /// equals the from-scratch closure of the mutated graph after
            /// every prefix of any random update sequence.
            #[test]
            fn prop_dynamic_equals_scratch(seq in arb_ops()) {
                check_sequence(&seq, DynamicConfig::default().damage_threshold)?;
            }

            /// Same property with the fallback disabled (threshold 1.0:
            /// always repair incrementally) and with it hair-triggered
            /// (0.0: rebuild on any multi-component deletion damage).
            #[test]
            fn prop_dynamic_equals_scratch_at_threshold_extremes(
                seq in arb_ops(),
                hi in any::<bool>(),
            ) {
                check_sequence(&seq, if hi { 1.0 } else { 0.0 })?;
            }
        }
    }
}
