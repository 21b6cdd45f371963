//! Update vocabulary shared by the maintainers, the engine's
//! `PreparedGraph::apply`, and the `engine-live` CLI: what an edit is,
//! what it did to a maintained index, and what a maintainer did so far.

use phom_graph::{DiGraph, NodeId};

/// One edit to a live data graph. Updates are **edge-level**: the node
/// set (and the node labels, hence the similarity matrices of standing
/// queries) stays fixed, which is what lets every index be patched
/// rather than resized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphUpdate {
    /// Insert the edge `(from, to)` (no-op if present).
    InsertEdge(NodeId, NodeId),
    /// Remove the edge `(from, to)` (no-op if absent).
    RemoveEdge(NodeId, NodeId),
}

impl GraphUpdate {
    /// The `(from, to)` endpoints of the edited edge.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        match self {
            GraphUpdate::InsertEdge(a, b) | GraphUpdate::RemoveEdge(a, b) => (a, b),
        }
    }

    /// The edge's source — the node whose *predecessor cone* bounds which
    /// closure rows an update can touch (see `SemiDynamicClosure`).
    pub fn source(self) -> NodeId {
        self.endpoints().0
    }

    /// True when both endpoints address nodes of a graph with `n` nodes.
    pub fn in_range(self, n: usize) -> bool {
        let (a, b) = self.endpoints();
        a.index() < n && b.index() < n
    }

    /// True when applying this edit to `g` would change it: an in-range
    /// insert of an absent edge or removal of a present one.
    pub fn changes<L>(self, g: &DiGraph<L>) -> bool {
        self.in_range(g.node_count())
            && match self {
                GraphUpdate::InsertEdge(a, b) => !g.has_edge(a, b),
                GraphUpdate::RemoveEdge(a, b) => g.has_edge(a, b),
            }
    }

    /// Applies just the graph edit (no index maintenance). Returns `true`
    /// when the graph actually changed.
    pub fn apply_to<L>(self, g: &mut DiGraph<L>) -> bool {
        match self {
            GraphUpdate::InsertEdge(a, b) => g.add_edge(a, b),
            GraphUpdate::RemoveEdge(a, b) => g.remove_edge(a, b),
        }
    }
}

/// How an edge update changed a maintained index — what the
/// maintainers' `insert_edge`/`remove_edge` return and the engine's
/// update loop counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateEffect {
    /// The graph itself did not change (duplicate insert, missing delete).
    NoOp,
    /// The graph changed but the index was already consistent (e.g. an
    /// inserted edge whose endpoints were already connected).
    Unchanged,
    /// The index was patched in place, touching this many components.
    Incremental {
        /// Components whose rows were created, merged, or rewritten.
        affected_components: usize,
    },
    /// The index is rebuilt from scratch: a deletion cone past the
    /// damage budget, an update shape the maintainer has no incremental
    /// rule for, or an edit the engine services with one rebuild per
    /// batch.
    Rebuilt,
}

/// Monotone counters of what a maintainer has done since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynamicStats {
    /// Full from-scratch rebuilds: always
    /// [`DynamicStats::fallback_damage`] +
    /// [`DynamicStats::fallback_unsupported`].
    pub rebuilds: usize,
    /// Rebuilds taken because a deletion cone exceeded the damage budget
    /// ([`crate::DAMAGE_BUDGET_PERMILLE`] of the live components) — the
    /// expected escape hatch.
    pub fallback_damage: usize,
    /// Rebuilds taken because the update shape has no incremental rule
    /// (SCC-splitting deletions on the chain cover).
    pub fallback_unsupported: usize,
    /// Highest deletion damage observed across all structural removals,
    /// in permille of live condensation components — the cone size the
    /// damage budget gates on, recorded whether or not the removal
    /// tripped a rebuild. A peak climbing toward
    /// [`crate::DAMAGE_BUDGET_PERMILLE`] warns that removals are about to
    /// start costing full rebuilds.
    pub peak_damage_permille: usize,
    /// Microseconds spent inside index maintenance
    /// (`insert_edge`/`remove_edge`), cumulative — the phase timing the
    /// engine surfaces as `UpdateStats::closure_maintain_micros`.
    pub maintain_micros: u128,
}
