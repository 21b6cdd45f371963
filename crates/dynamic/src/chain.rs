//! [`SemiDynamicChain`]: incremental maintenance of the compressed
//! chain-cover reachability index under edge updates.
//!
//! The dense maintainer ([`crate::SemiDynamicClosure`]) patches bitset
//! rows; this maintainer patches [`phom_graph::ChainIndex`] structure —
//! per-component `(chain, min position)` entry lists over a chain cover
//! of the SCC condensation. The load-bearing invariant is **chain
//! adjacency**: consecutive elements of every chain are connected by a
//! *direct* condensation edge (at least one graph edge between their
//! member sets). Adjacency is what makes an entry `(j, p)` a sound
//! summary — "reaches everything from position `p` on" — both for
//! probes and, transitively, for later entry recomputes that fold
//! successors' entries. Every mutation below either preserves adjacency
//! or repairs it with local chain surgery:
//!
//! * **Forward insertion** recomputes the entry lists of the affected
//!   cone (the inserting component plus everything that reaches it) in
//!   post-order; when the new edge joins one chain's tail to another's
//!   head, the chains are **concatenated** first (compression recovered,
//!   entries renumbered mechanically).
//! * **Back-edge insertion** merges the components on the new cycle into
//!   one slot; absorbed slots are spliced out of their chains (splitting
//!   where they sat, so no link spans a dead slot) onto tombstone
//!   singleton chains, then the cone is recomputed.
//! * **Cross-component deletion** checks whether the source still
//!   reaches the target; if the deleted edge was the last direct edge to
//!   the source's immediate chain successor, the chain is **split**
//!   there (suffix renumbered to a fresh chain). Only when reachability
//!   actually shrank does the affected cone recompute, gated by the
//!   damage budget ([`crate::DAMAGE_BUDGET_PERMILLE`] of the live
//!   components) — exceeding it falls back to a full rebuild, the
//!   *damage* escape hatch.
//! * **Intra-SCC deletion** that splits a component falls back to a full
//!   rebuild (the *unsupported-op* escape hatch): re-covering a
//!   shattered SCC incrementally is not cheaper than rebuilding.
//!
//! The two fallback reasons are counted separately
//! ([`crate::DynamicStats::fallback_damage`] /
//! [`crate::DynamicStats::fallback_unsupported`]) so the engine can
//! journal an expected escape hatch distinctly from a maintenance gap.

use crate::slots::{Cover, Fallback, Maintainer};
use crate::update::UpdateEffect;
use phom_graph::validate::{proper_reach_set, sample_indices, Violation};
use phom_graph::{BitSet, ChainIndex, DiGraph, NodeId};

/// A [`ChainIndex`] kept consistent under edge insertions and deletions.
/// See the module docs for the algorithm and [`Maintainer`] for the
/// shared entry points: seed it from a prepared index
/// ([`SemiDynamicChain::from_index`]), apply updates, then take the
/// mutated graph and refreshed index back via
/// [`SemiDynamicChain::into_parts`].
pub type SemiDynamicChain<L = ()> = Maintainer<L, ChainCover>;

/// The chain maintainer's per-slot index: a chain cover of the slots plus
/// one `(chain, min position)` entry list per slot.
#[derive(Debug, Clone)]
pub struct ChainCover {
    /// `chain_of[c]` / `pos_of[c]`: chain and position of slot `c`.
    /// Dead slots keep (singleton-chain) positions so the `(chain, pos)`
    /// assignment stays bijective — [`ChainIndex::from_parts`] requires
    /// it when the maintainer is taken apart.
    chain_of: Vec<u32>,
    pos_of: Vec<u32>,
    /// Materialized chains (slot ids in order). May contain empty chains
    /// left behind by splices/concatenations.
    chains: Vec<Vec<u32>>,
    /// Sorted `(chain, min position)` entry list per slot.
    entries: Vec<Vec<(u32, u32)>>,
}

impl<L> SemiDynamicChain<L> {
    /// Seeds the maintainer from an **already built** chain index of
    /// `graph` — the cheap path the engine takes when applying updates
    /// to a prepared graph on the chain backend.
    pub fn from_index(graph: DiGraph<L>, idx: &ChainIndex) -> Self {
        let p = idx.parts();
        let slots = p.chain_of.len();
        let comp: Vec<u32> = p.comp.to_vec();
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); slots];
        for v in graph.nodes() {
            members[comp[v.index()] as usize].push(v);
        }
        let cyclic: Vec<bool> = (0..slots).map(|c| p.cyclic.contains(c)).collect();
        let chain_of = p.chain_of.to_vec();
        let pos_of = p.pos_of.to_vec();
        let width = chain_of.iter().map(|&j| j as usize + 1).max().unwrap_or(0);
        let mut lens = vec![0usize; width];
        for (&j, &q) in chain_of.iter().zip(&pos_of) {
            lens[j as usize] = lens[j as usize].max(q as usize + 1);
        }
        let mut chains: Vec<Vec<u32>> = lens.iter().map(|&l| vec![0u32; l]).collect();
        for c in 0..slots {
            chains[chain_of[c] as usize][pos_of[c] as usize] = c as u32;
        }
        let entries: Vec<Vec<(u32, u32)>> = (0..slots)
            .map(|c| p.entries[p.entry_off[c] as usize..p.entry_off[c + 1] as usize].to_vec())
            .collect();
        let cover = ChainCover {
            chain_of,
            pos_of,
            chains,
            entries,
        };
        Maintainer::from_slots(graph, comp, members, cyclic, cover)
    }

    /// Consumes the maintainer into the (mutated) graph plus the
    /// refreshed immutable index — what the engine assembles the next
    /// prepared version from.
    pub fn into_parts(self) -> (DiGraph<L>, ChainIndex) {
        let n = self.graph.node_count();
        let slots = self.cover.chain_of.len();
        let mut entry_off = vec![0u32; slots + 1];
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for c in 0..slots {
            entries.extend_from_slice(&self.cover.entries[c]);
            entry_off[c + 1] = entries.len() as u32;
        }
        let mut cyc = BitSet::new(slots);
        for (c, &flag) in self.cyclic.iter().enumerate() {
            if flag {
                cyc.insert(c);
            }
        }
        let idx = ChainIndex::from_parts(
            n,
            self.comp,
            cyc,
            self.cover.chain_of,
            self.cover.pos_of,
            entry_off,
            entries,
        )
        // phom-lint: allow(unwrap, "from_parts re-checks the invariants the maintainer preserves; a failure here is a maintainer bug, not caller input")
        .expect("chain maintainer produced a malformed index (maintainer bug)");
        (self.graph, idx)
    }

    /// Proper cross-component reach `cf ⇝ ct` (`cf != ct`) via the
    /// entry list.
    fn comp_probe(&self, cf: usize, ct: usize) -> bool {
        let (tj, tp) = (self.cover.chain_of[ct], self.cover.pos_of[ct]);
        match self.cover.entries[cf].binary_search_by_key(&tj, |&(j, _)| j) {
            Ok(i) => self.cover.entries[cf][i].1 <= tp,
            Err(_) => false,
        }
    }

    /// Live condensation out-neighbors of slot `c`, deduplicated.
    fn out_comps(&self, c: usize) -> Vec<usize> {
        let mut outs: Vec<usize> = Vec::new();
        for &m in &self.members[c] {
            for &w in self.graph.post(m) {
                let d = self.comp[w.index()] as usize;
                if d != c {
                    outs.push(d);
                }
            }
        }
        outs.sort_unstable();
        outs.dedup();
        outs
    }

    /// Whether any graph edge runs from a member of `ca` to a member of
    /// `cb` — the direct condensation edge chain adjacency relies on.
    fn has_member_edge(&self, ca: usize, cb: usize) -> bool {
        self.members[ca].iter().any(|&m| {
            self.graph
                .post(m)
                .iter()
                .any(|&w| self.comp[w.index()] as usize == cb)
        })
    }

    /// The slots whose entry lists can mention the cone of `ca`: `ca`
    /// itself plus every live slot whose entries witness `⇝ ca`.
    fn affected_cone(&self, ca: usize) -> Vec<usize> {
        let mut affected: Vec<usize> = (0..self.members.len())
            .filter(|&c| c != ca && self.alive[c] && self.comp_probe(c, ca))
            .collect();
        affected.push(ca);
        affected
    }

    /// Recomputes the entry lists of `affected` slots from the graph, in
    /// post-order (successors first) so every out-neighbor's entries are
    /// final — out-neighbors outside the cone are untouched by
    /// construction (they cannot reach `ca`), those inside come earlier
    /// in post-order.
    fn recompute_cone(&mut self, affected: &[usize]) {
        // Chain-wise min fold: reach(c) = ∪ over edges c -> d of
        // {d} ∪ reach(d), summarized per chain by the minimum position.
        let width = self.cover.chains.len();
        let mut best: Vec<u32> = vec![u32::MAX; width];
        let mut touched: Vec<u32> = Vec::new();
        for c in self.post_order(affected) {
            for d in self.out_comps(c) {
                let (dj, dp) = (self.cover.chain_of[d] as usize, self.cover.pos_of[d]);
                if best[dj] == u32::MAX {
                    touched.push(dj as u32);
                    best[dj] = dp;
                } else if dp < best[dj] {
                    best[dj] = dp;
                }
                for &(ej, ep) in &self.cover.entries[d] {
                    let ej = ej as usize;
                    if best[ej] == u32::MAX {
                        touched.push(ej as u32);
                        best[ej] = ep;
                    } else if ep < best[ej] {
                        best[ej] = ep;
                    }
                }
            }
            touched.sort_unstable();
            let list: Vec<(u32, u32)> = touched.iter().map(|&j| (j, best[j as usize])).collect();
            for &j in &touched {
                best[j as usize] = u32::MAX;
            }
            touched.clear();
            self.cover.entries[c] = list;
        }
    }

    /// Splits chain `j` after position `p`: the suffix becomes a fresh
    /// chain, and every live entry `(j, q > p)` is renumbered onto it.
    /// Entries `(j, q ≤ p)` are left alone — their holders reach the
    /// element at `p` and are therefore in any affected cone about to be
    /// recomputed.
    fn split_chain_after(&mut self, j: usize, p: usize) {
        if p + 1 >= self.cover.chains[j].len() {
            return;
        }
        let tail = self.cover.chains[j].split_off(p + 1);
        let new_chain = self.cover.chains.len() as u32;
        for (i, &slot) in tail.iter().enumerate() {
            self.cover.chain_of[slot as usize] = new_chain;
            self.cover.pos_of[slot as usize] = i as u32;
        }
        self.cover.chains.push(tail);
        let p = p as u32;
        let j = j as u32;
        for c in 0..self.cover.entries.len() {
            if !self.alive[c] {
                continue;
            }
            if let Ok(i) = self.cover.entries[c].binary_search_by_key(&j, |&(ej, _)| ej) {
                let (_, q) = self.cover.entries[c][i];
                if q > p {
                    // The new chain id is the maximum, so moving the
                    // entry to the back keeps the list sorted.
                    self.cover.entries[c].remove(i);
                    self.cover.entries[c].push((new_chain, q - p - 1));
                }
            }
        }
    }

    /// Splices dead slot `t` out of its chain (splitting the chain there
    /// so no adjacency link spans it) and parks it on a tombstone
    /// singleton chain. Entries spanning the splice point are expanded
    /// onto the suffix chain — sound because this runs only during SCC
    /// merges, where reachability only grows.
    fn splice_out(&mut self, t: usize) {
        let j = self.cover.chain_of[t] as usize;
        let p = self.cover.pos_of[t] as usize;
        let tail = self.cover.chains[j].split_off(p + 1);
        self.cover.chains[j].pop(); // t itself
        let suffix_chain = if tail.is_empty() {
            None
        } else {
            let id = self.cover.chains.len() as u32;
            for (i, &slot) in tail.iter().enumerate() {
                self.cover.chain_of[slot as usize] = id;
                self.cover.pos_of[slot as usize] = i as u32;
            }
            self.cover.chains.push(tail);
            Some(id)
        };
        let tomb = self.cover.chains.len() as u32;
        self.cover.chains.push(vec![t as u32]);
        self.cover.chain_of[t] = tomb;
        self.cover.pos_of[t] = 0;
        let (j, p) = (j as u32, p as u32);
        if let Some(new_chain) = suffix_chain {
            for c in 0..self.cover.entries.len() {
                if !self.alive[c] {
                    continue;
                }
                if let Ok(i) = self.cover.entries[c].binary_search_by_key(&j, |&(ej, _)| ej) {
                    let (_, q) = self.cover.entries[c][i];
                    if q > p {
                        self.cover.entries[c].remove(i);
                        self.cover.entries[c].push((new_chain, q - p - 1));
                    } else if q == p {
                        self.cover.entries[c].remove(i);
                        self.cover.entries[c].push((new_chain, 0));
                    } else {
                        // The claim spanned the splice point: the prefix
                        // part stays, the suffix part gets its own entry.
                        self.cover.entries[c].push((new_chain, 0));
                    }
                }
            }
        }
    }

    /// Concatenates chain `jb` onto the tail of chain `ja` (called when
    /// a new edge directly links `ja`'s tail to `jb`'s head, restoring
    /// the compression a long chain affords). Entries on `jb` shift by
    /// the old length of `ja`; holders of entries on `ja` reach the old
    /// tail, hence — through the new edge — everything appended.
    fn concat_chains(&mut self, ja: usize, jb: usize) {
        let offset = self.cover.chains[ja].len() as u32;
        let moved = std::mem::take(&mut self.cover.chains[jb]);
        for (i, &slot) in moved.iter().enumerate() {
            self.cover.chain_of[slot as usize] = ja as u32;
            self.cover.pos_of[slot as usize] = offset + i as u32;
        }
        self.cover.chains[ja].extend(moved);
        let (ja, jb) = (ja as u32, jb as u32);
        for c in 0..self.cover.entries.len() {
            if !self.alive[c] {
                continue;
            }
            if let Ok(i) = self.cover.entries[c].binary_search_by_key(&jb, |&(ej, _)| ej) {
                let (_, q) = self.cover.entries[c].remove(i);
                match self.cover.entries[c].binary_search_by_key(&ja, |&(ej, _)| ej) {
                    // An existing entry on `ja` covers its whole suffix,
                    // which now includes the appended part.
                    Ok(_) => {}
                    Err(at) => self.cover.entries[c].insert(at, (ja, offset + q)),
                }
            }
        }
    }

    /// Handles a back-edge insertion `(u, v)` with `v ⇝ u`: merges every
    /// component on the new cycle into `comp(u)`'s slot.
    fn merge_cycle(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        let ca = self.comp[u.index()] as usize;
        let cb = self.comp[v.index()] as usize;
        // Cone and cycle membership under the *old* (still consistent)
        // entries: everything on the new cycle reaches ca, so the cycle
        // set is a subset of the affected cone.
        let affected_pre = self.affected_cone(ca);
        let merge: Vec<usize> = affected_pre
            .iter()
            .copied()
            .filter(|&c| c == cb || self.comp_probe(cb, c))
            .collect();
        debug_assert!(merge.contains(&ca) && merge.contains(&cb));
        for &t in &merge {
            if t == ca {
                continue;
            }
            self.splice_out(t);
            let moved = std::mem::take(&mut self.members[t]);
            for &m in &moved {
                self.comp[m.index()] = ca as u32;
            }
            self.members[ca].extend(moved);
            self.cover.entries[t].clear();
            self.cyclic[t] = false;
            self.alive[t] = false;
            self.live -= 1;
        }
        self.cyclic[ca] = true;
        let affected: Vec<usize> = affected_pre
            .into_iter()
            .filter(|&c| self.alive[c])
            .collect();
        let count = affected.len();
        self.recompute_cone(&affected);
        UpdateEffect::Incremental {
            affected_components: count,
        }
    }

    /// BFS `u ⇝ v` restricted to the members of component `c`, over the
    /// current (post-removal) adjacency.
    fn intra_still_reaches(&self, c: usize, u: NodeId, v: NodeId) -> bool {
        let mut seen = vec![false; self.graph.node_count()];
        let mut stack = vec![u];
        seen[u.index()] = true;
        while let Some(x) = stack.pop() {
            for &w in self.graph.post(x) {
                if w == v {
                    return true;
                }
                if self.comp[w.index()] as usize == c && !seen[w.index()] {
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        false
    }
}

impl Cover for ChainCover {
    fn build<L>(graph: DiGraph<L>) -> Maintainer<L, Self> {
        let idx = ChainIndex::new(&graph);
        SemiDynamicChain::from_index(graph, &idx)
    }

    fn reaches<L>(m: &Maintainer<L, Self>, from: NodeId, to: NodeId) -> bool {
        let cf = m.comp[from.index()] as usize;
        let ct = m.comp[to.index()] as usize;
        if cf == ct {
            return m.cyclic[cf];
        }
        m.comp_probe(cf, ct)
    }

    fn insert<L>(m: &mut Maintainer<L, Self>, u: NodeId, v: NodeId) -> UpdateEffect {
        if !m.graph.add_edge(u, v) {
            return UpdateEffect::NoOp;
        }
        let ca = m.comp[u.index()] as usize;
        if u == v {
            if m.cyclic[ca] {
                return UpdateEffect::Unchanged;
            }
            m.cyclic[ca] = true;
            return UpdateEffect::Incremental {
                affected_components: 1,
            };
        }
        let cb = m.comp[v.index()] as usize;
        if ca == cb || m.comp_probe(ca, cb) {
            // Same SCC, or u already reached v: every path through the
            // new edge was already witnessed.
            return UpdateEffect::Unchanged;
        }
        if m.comp_probe(cb, ca) {
            return m.merge_cycle(u, v);
        }
        // Forward edge. If it welds ja's tail to jb's head, concatenate
        // the chains first — the entry recompute below then folds long
        // suffixes instead of two short ones.
        let (ja, jb) = (m.cover.chain_of[ca] as usize, m.cover.chain_of[cb] as usize);
        if ja != jb
            && m.cover.pos_of[ca] as usize == m.cover.chains[ja].len() - 1
            && m.cover.pos_of[cb] == 0
        {
            m.concat_chains(ja, jb);
        }
        let affected = m.affected_cone(ca);
        let count = affected.len();
        m.recompute_cone(&affected);
        UpdateEffect::Incremental {
            affected_components: count,
        }
    }

    fn remove<L>(m: &mut Maintainer<L, Self>, u: NodeId, v: NodeId) -> UpdateEffect {
        if !m.graph.remove_edge(u, v) {
            return UpdateEffect::NoOp;
        }
        let ca = m.comp[u.index()] as usize;
        let cb = m.comp[v.index()] as usize;
        if u == v {
            if m.members[ca].len() > 1 {
                return UpdateEffect::Unchanged;
            }
            m.cyclic[ca] = false;
            return UpdateEffect::Incremental {
                affected_components: 1,
            };
        }
        if ca == cb {
            // Intra-SCC deletion: the component survives iff u still
            // reaches v inside it (any escape path would contradict the
            // condensation's acyclicity).
            if m.intra_still_reaches(ca, u, v) {
                return UpdateEffect::Unchanged;
            }
            m.rebuild(Fallback::Unsupported);
            return UpdateEffect::Rebuilt;
        }
        // Cross-component deletion. First repair chain adjacency: if the
        // deleted edge was the last direct edge from ca to its immediate
        // chain successor, split the chain there — even when ca still
        // reaches cb indirectly, the *direct-link* invariant is what
        // future recomputes lean on.
        let j = m.cover.chain_of[ca] as usize;
        let p = m.cover.pos_of[ca] as usize;
        if p + 1 < m.cover.chains[j].len()
            && m.cover.chains[j][p + 1] as usize == cb
            && !m.has_member_edge(ca, cb)
        {
            m.split_chain_after(j, p);
        }
        // Still-reaches check over ca's live out-neighbors: their
        // entries cannot have been damaged (successors never reach ca).
        if m.out_comps(ca)
            .into_iter()
            .any(|d| d == cb || m.comp_probe(d, cb))
        {
            return UpdateEffect::Unchanged;
        }
        let affected = m.affected_cone(ca);
        m.repair_cone(affected)
    }

    fn recompute<L>(m: &mut Maintainer<L, Self>, affected: &[usize]) {
        m.recompute_cone(affected);
    }

    /// Cover shape and sorted entry lists, then the maintained relation
    /// against brute-force proper-path BFS.
    fn validate<L>(m: &Maintainer<L, Self>, samples: usize) -> Result<(), Violation> {
        let cover = &m.cover;
        let slots = m.members.len();
        if cover.chain_of.len() != slots
            || cover.pos_of.len() != slots
            || cover.entries.len() != slots
        {
            return Err(Violation::new(
                "dynchain-shape",
                "cover vectors differ from the slot count",
            ));
        }
        if let Some(c) = (0..slots).find(|&c| cover.entries[c].windows(2).any(|w| w[0].0 >= w[1].0))
        {
            return Err(Violation::new(
                "dynchain-entries",
                format!("entry list of slot {c} not strictly sorted by chain"),
            ));
        }
        for v in sample_indices(m.graph.node_count(), samples) {
            let v = NodeId(v as u32);
            let truth = proper_reach_set(&m.graph, v);
            for w in m.graph.nodes() {
                if m.reaches(v, w) != truth.contains(w.index()) {
                    return Err(Violation::new(
                        "dynchain-reaches",
                        format!(
                            "reaches({}, {}) = {}, BFS says {}",
                            v.0,
                            w.0,
                            m.reaches(v, w),
                            truth.contains(w.index())
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::DynamicStats;
    use phom_graph::{graph_from_labels, ReachabilityIndex, TransitiveClosure};

    fn assert_matches_scratch<L, M>(dyc: &SemiDynamicChain<L>, g: &DiGraph<M>) {
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
    }

    fn structure(g: &DiGraph<String>) -> DiGraph<()> {
        g.map_labels(|_, _| ())
    }

    #[test]
    fn forward_insert_recomputes_cone_without_rebuild() {
        let g0 = graph_from_labels(&["a", "b", "c", "d"], &[("a", "b"), ("c", "d")]);
        let mut dyc = SemiDynamicChain::new(&g0);
        let mut g = structure(&g0);
        let eff = dyc.insert_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        assert!(matches!(eff, UpdateEffect::Incremental { .. }));
        assert!(dyc.reaches(NodeId(0), NodeId(3)));
        assert_eq!(dyc.stats().rebuilds, 0);
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn back_edge_merges_scc_with_tombstoned_slots() {
        let g0 = graph_from_labels(
            &["p", "a", "b", "c", "d"],
            &[("p", "a"), ("a", "b"), ("b", "c"), ("c", "d")],
        );
        let mut dyc = SemiDynamicChain::new(&g0);
        let mut g = structure(&g0);
        assert_eq!(dyc.component_count(), 5);
        let eff = dyc.insert_edge(NodeId(4), NodeId(1));
        g.add_edge(NodeId(4), NodeId(1));
        assert!(matches!(eff, UpdateEffect::Incremental { .. }));
        assert_eq!(dyc.component_count(), 2, "cycle collapsed to one SCC");
        assert_eq!(dyc.stats().rebuilds, 0);
        assert!(dyc.reaches(NodeId(0), NodeId(4)));
        assert!(!dyc.reaches(NodeId(1), NodeId(0)));
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn cross_deletion_splits_chain_and_recomputes() {
        let g0 = graph_from_labels(&["a", "b", "c", "d"], &[("a", "b"), ("b", "c"), ("c", "d")]);
        let mut dyc = SemiDynamicChain::new(&g0);
        let mut g = structure(&g0);
        let eff = dyc.remove_edge(NodeId(1), NodeId(2));
        g.remove_edge(NodeId(1), NodeId(2));
        assert!(matches!(eff, UpdateEffect::Incremental { .. }));
        assert!(!dyc.reaches(NodeId(0), NodeId(3)));
        assert!(dyc.reaches(NodeId(0), NodeId(1)));
        assert!(dyc.reaches(NodeId(2), NodeId(3)));
        assert_eq!(dyc.stats().rebuilds, 0, "stayed incremental");
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn redundant_deletion_with_bypass_is_unchanged() {
        // a -> b directly and via c: removing the direct edge keeps the
        // closure intact, so the fast path reports Unchanged.
        let g0 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("a", "c"), ("c", "b")]);
        let mut dyc = SemiDynamicChain::new(&g0);
        let mut g = structure(&g0);
        assert_eq!(
            dyc.remove_edge(NodeId(0), NodeId(1)),
            UpdateEffect::Unchanged
        );
        g.remove_edge(NodeId(0), NodeId(1));
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn scc_split_falls_back_to_rebuild_with_unsupported_reason() {
        let g0 = graph_from_labels(
            &["a", "b", "c", "t"],
            &[("a", "b"), ("b", "c"), ("c", "a"), ("c", "t")],
        );
        let mut dyc = SemiDynamicChain::new(&g0);
        let mut g = structure(&g0);
        assert_eq!(dyc.component_count(), 2);
        let eff = dyc.remove_edge(NodeId(2), NodeId(0));
        g.remove_edge(NodeId(2), NodeId(0));
        assert_eq!(eff, UpdateEffect::Rebuilt);
        assert_eq!(
            dyc.component_count(),
            4,
            "the 3-cycle split into singletons"
        );
        assert_eq!(dyc.stats().fallback_unsupported, 1);
        assert_eq!(dyc.stats().fallback_damage, 0);
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn deletion_cone_over_the_damage_budget_rebuilds_with_damage_reason() {
        // Cutting n8 -> n9 damages the entries of n0..n8: a cone of 9 of
        // 10 live components, over the budget of 5.
        let labels: Vec<String> = (0..10).map(|i| format!("n{i}")).collect();
        let names: Vec<&str> = labels.iter().map(String::as_str).collect();
        let edges: Vec<(&str, &str)> = names.windows(2).map(|w| (w[0], w[1])).collect();
        let g0 = graph_from_labels(&names, &edges);
        let mut dyc = SemiDynamicChain::new(&g0);
        let mut g = structure(&g0);
        let eff = dyc.remove_edge(NodeId(8), NodeId(9));
        g.remove_edge(NodeId(8), NodeId(9));
        assert_eq!(eff, UpdateEffect::Rebuilt);
        assert_eq!(dyc.stats().fallback_damage, 1);
        assert_eq!(dyc.stats().fallback_unsupported, 0);
        assert_eq!(dyc.stats().peak_damage_permille, 900);
        assert_matches_scratch(&dyc, &g);
    }

    #[test]
    fn self_loop_roundtrip() {
        let g0 = graph_from_labels(&["p", "a"], &[("p", "a")]);
        let mut dyc = SemiDynamicChain::new(&g0);
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
    fn into_parts_yields_valid_index_after_merges_and_splits() {
        let g0 = graph_from_labels(
            &["a", "b", "c", "d", "e"],
            &[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
        );
        let mut dyc = SemiDynamicChain::new(&g0);
        let mut g = structure(&g0);
        for (ins, a, b) in [
            (true, 3u32, 1u32), // merge b..d into one SCC
            (false, 0, 1),      // cross removal
            (true, 0, 4),       // forward insert
        ] {
            let (a, b) = (NodeId(a), NodeId(b));
            if ins {
                dyc.insert_edge(a, b);
                g.add_edge(a, b);
            } else {
                dyc.remove_edge(a, b);
                g.remove_edge(a, b);
            }
        }
        assert_matches_scratch(&dyc, &g);
        // from_parts revalidates every structural invariant the
        // maintainer claims to preserve (bijective chain positions,
        // sorted entries, spanning offsets).
        let (g_back, idx) = dyc.into_parts();
        let scratch = TransitiveClosure::new(&g_back);
        for a in g_back.nodes() {
            for b in g_back.nodes() {
                assert_eq!(idx.reaches(a, b), scratch.reaches(a, b));
            }
        }
        assert_eq!(idx.pair_count(), ReachabilityIndex::pair_count(&scratch));
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
            let mut dyc = SemiDynamicChain::new(&g);
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
                    }
                }
            }
            // The maintainer's own validator (the audit surface) must
            // accept the maintained state after the full sequence.
            prop_assert_eq!(dyc.validate(g.node_count()).err(), None);
            let stats = *dyc.stats();
            // Finalization must produce a structurally valid index that
            // still answers identically (this is what the engine
            // snapshots and queries).
            let (g_back, idx) = dyc.into_parts();
            let scratch = TransitiveClosure::new(&g_back);
            for x in g_back.nodes() {
                for y in g_back.nodes() {
                    prop_assert_eq!(idx.reaches(x, y), scratch.reaches(x, y));
                }
            }
            prop_assert_eq!(
                idx.validate_against(&g_back, g_back.node_count()).err(),
                None
            );
            Ok((stats, effects))
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
            let (stats, effects) = check_sequence(&seq).expect("maintained index matches");
            assert!(
                matches!(effects[0], UpdateEffect::Incremental { .. }),
                "cone recompute"
            );
            assert_eq!(effects[1], UpdateEffect::Rebuilt);
            assert_eq!(stats.rebuilds, 1, "damage rebuild");
            assert_eq!(stats.fallback_damage, 1);
        }

        proptest! {
            /// The tentpole property: incremental chain maintenance
            /// answers exactly like a from-scratch build of the mutated
            /// graph, after every prefix of any random update sequence —
            /// the same grid the dense maintainer is tested under.
            #[test]
            fn prop_chain_maintenance_equals_scratch(seq in arb_ops()) {
                check_sequence(&seq)?;
            }
        }
    }
}
