//! The matching list `H` of algorithm `compMaxCard` (§5, data structure
//! *(a)*): for each pattern node `v` still in play, `H[v].good` holds the
//! data-graph candidates that may still match `v`, and `H[v].minus` the
//! candidates ruled out *under the current branch's assumptions*.

use phom_graph::NodeId;
use phom_sim::SimMatrix;

/// One pattern node's candidate state.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The pattern node.
    pub v: NodeId,
    /// Candidates that may still match `v` on this branch.
    pub good: Vec<NodeId>,
    /// Candidates excluded on this branch (they seed the `H⁻` sibling).
    pub minus: Vec<NodeId>,
}

/// The matching list `H`: entries for pattern nodes that still have
/// candidates. Nodes with no candidates at all never enter the list.
#[derive(Debug, Clone, Default)]
pub struct MatchList {
    /// Entries in ascending pattern-node order (kept sorted by construction).
    pub entries: Vec<Entry>,
}

impl MatchList {
    /// Initial `H` (Fig. 3 line 4): `H[v].good = {u | mat(v,u) ≥ ξ, > 0}`,
    /// `H[v].minus = ∅`. Pattern nodes without candidates are omitted.
    pub fn initial(n1: usize, mat: &SimMatrix, xi: f64) -> Self {
        let mut entries = Vec::with_capacity(n1);
        for v in 0..n1 {
            let v = NodeId(v as u32);
            let good: Vec<NodeId> = mat.candidates(v, xi).collect();
            if !good.is_empty() {
                entries.push(Entry {
                    v,
                    good,
                    minus: Vec::new(),
                });
            }
        }
        Self { entries }
    }

    /// Initial `H` restricted to a set of allowed `(v, u)` pairs — used by
    /// `compMaxSim`'s weight groups.
    pub fn from_pairs(pairs: &[(NodeId, NodeId)]) -> Self {
        let mut entries: Vec<Entry> = Vec::new();
        // Pairs are grouped by pattern node; sort first to be safe.
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        for (v, u) in sorted {
            match entries.last_mut() {
                Some(e) if e.v == v => e.good.push(u),
                _ => entries.push(Entry {
                    v,
                    good: vec![u],
                    minus: Vec::new(),
                }),
            }
        }
        Self { entries }
    }

    /// Number of pattern nodes with at least one `good` candidate —
    /// `sizeof(H)` in the loop guard of Fig. 3 line 9.
    pub fn active_node_count(&self) -> usize {
        self.entries.iter().filter(|e| !e.good.is_empty()).count()
    }

    /// Total `(v, u)` candidate pairs in `good` lists (bounds the
    /// `greedyMatch` recursion size).
    pub fn total_pairs(&self) -> usize {
        self.entries.iter().map(|e| e.good.len()).sum()
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes the conflict pairs `I` from the list (`H := H \ I`,
    /// Fig. 3 line 10) and drops entries that become empty.
    pub fn remove_pairs(&mut self, pairs: &[(NodeId, NodeId)]) {
        for &(v, u) in pairs {
            if let Some(e) = self.entries.iter_mut().find(|e| e.v == v) {
                e.good.retain(|&c| c != u);
                e.minus.retain(|&c| c != u);
            }
        }
        self.entries
            .retain(|e| !e.good.is_empty() || !e.minus.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_sim::SimMatrixBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn initial_list_collects_candidates_above_threshold() {
        let mat = SimMatrixBuilder::new()
            .pair(n(0), n(0), 0.9)
            .pair(n(0), n(1), 0.4)
            .pair(n(2), n(1), 0.6)
            .build(3, 2);
        let h = MatchList::initial(3, &mat, 0.5);
        assert_eq!(h.entries.len(), 2, "node 1 has no candidates");
        assert_eq!(h.entries[0].v, n(0));
        assert_eq!(h.entries[0].good, vec![n(0)]);
        assert_eq!(h.entries[1].v, n(2));
        assert_eq!(h.active_node_count(), 2);
        assert_eq!(h.total_pairs(), 2);
    }

    #[test]
    fn from_pairs_groups_by_pattern_node() {
        let h = MatchList::from_pairs(&[(n(1), n(0)), (n(0), n(2)), (n(1), n(3))]);
        assert_eq!(h.entries.len(), 2);
        assert_eq!(h.entries[0].v, n(0));
        assert_eq!(h.entries[1].good, vec![n(0), n(3)]);
    }

    #[test]
    fn remove_pairs_drops_empty_entries() {
        let mut h = MatchList::from_pairs(&[(n(0), n(1)), (n(0), n(2)), (n(1), n(1))]);
        h.remove_pairs(&[(n(0), n(1)), (n(1), n(1))]);
        assert_eq!(h.entries.len(), 1);
        assert_eq!(h.entries[0].good, vec![n(2)]);
        h.remove_pairs(&[(n(0), n(2))]);
        assert!(h.is_empty());
    }
}
