//! [`Maintainer`]: the slot bookkeeping both maintainers share.
//!
//! A maintainer owns the graph it keeps an index for and tracks the
//! graph's condensation components in *slots*: a back-edge insertion
//! merges several slots into one (the absorbed slots are emptied and
//! marked dead), an intra-SCC deletion splits one slot into several
//! (fresh slots are appended). Slot ids are therefore **not**
//! topologically ordered the way Tarjan ids are; code that needs an
//! order derives it on the fly (the deletion repair walks an affected
//! cone successors first).
//!
//! What a maintainer keeps *per slot* beyond that — dense reachability
//! rows or a chain cover — is its [`Cover`], and so are the maintenance
//! rules that patch it. Everything else lives here once: the timed
//! `insert_edge`/`remove_edge` entry points, the cone walk, the damage
//! gate, the rebuild fallback, and the slot checks of `validate`.

use crate::update::{DynamicStats, GraphUpdate, UpdateEffect};
use phom_graph::validate::Violation;
use phom_graph::{DiGraph, NodeId};

/// The deletion damage budget, in permille of the live condensation
/// components: a deletion whose affected cone (the components reaching
/// the deleted edge's source, plus any SCC-split fragments) covers more
/// than this share, rounded up, rebuilds from scratch instead of
/// recomputing the cone — bounding the worst case at one re-prepare.
pub const DAMAGE_BUDGET_PERMILLE: usize = 500;

/// Why a maintainer fell back to a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fallback {
    /// A deletion cone past [`DAMAGE_BUDGET_PERMILLE`].
    Damage,
    /// An update shape the cover has no incremental rule for.
    Unsupported,
}

/// An index kept consistent with an evolving graph under edge
/// insertions and deletions: the shared slot bookkeeping plus a
/// cover holding the per-slot index. Use it through
/// [`crate::SemiDynamicClosure`] (dense rows) or
/// [`crate::SemiDynamicChain`] (chain cover).
///
/// Generic over the label type so a consumer can hand its (cloned) data
/// graph over, mutate it *through* the maintainer, and take the mutated
/// graph back with the cover's `into_parts`. The clone shares labels and
/// adjacency with the graph it came from (see [`phom_graph::DiGraph`]),
/// so a batch copies only the adjacency chunks its edits write, never
/// the whole graph. Labels play no role in maintenance; `L = ()` works
/// for pure reachability use.
#[derive(Debug, Clone)]
pub struct Maintainer<L, C> {
    /// The maintained graph (owned; mutate it only through the
    /// maintainer, or the index goes stale).
    pub(crate) graph: DiGraph<L>,
    /// `comp[v]` = slot of the component holding `v`.
    pub(crate) comp: Vec<u32>,
    /// Members per slot; dead slots are empty.
    pub(crate) members: Vec<Vec<NodeId>>,
    /// Whether the slot's component is cyclic (its members reach
    /// themselves): size > 1, or a singleton with a self-loop.
    pub(crate) cyclic: Vec<bool>,
    /// Slot liveness.
    pub(crate) alive: Vec<bool>,
    /// Number of live slots.
    pub(crate) live: usize,
    pub(crate) stats: DynamicStats,
    /// The per-slot index.
    pub(crate) cover: C,
}

/// The per-slot index a [`Maintainer`] keeps, and the maintenance rules
/// that patch it. Implemented by [`crate::closure::DenseRows`] and
/// [`crate::chain::ChainCover`].
pub trait Cover: Sized {
    /// Builds a maintainer over `graph` from scratch — the constructor
    /// and the rebuild fallback.
    fn build<L>(graph: DiGraph<L>) -> Maintainer<L, Self>;

    /// Nonempty-path reachability `from ⇝ to` under the maintained index.
    fn reaches<L>(m: &Maintainer<L, Self>, from: NodeId, to: NodeId) -> bool;

    /// Inserts the edge `(u, v)` into the graph and patches the index.
    fn insert<L>(m: &mut Maintainer<L, Self>, u: NodeId, v: NodeId) -> UpdateEffect;

    /// Removes the edge `(u, v)` from the graph and patches the index.
    fn remove<L>(m: &mut Maintainer<L, Self>, u: NodeId, v: NodeId) -> UpdateEffect;

    /// Recomputes the index of the `affected` slots from the graph —
    /// the repair a deletion cone within the damage budget gets.
    fn recompute<L>(m: &mut Maintainer<L, Self>, affected: &[usize]);

    /// Checks the cover against the graph once the slot bookkeeping
    /// passed its own checks (see [`Maintainer::validate`]).
    fn validate<L>(m: &Maintainer<L, Self>, samples: usize) -> Result<(), Violation>;
}

impl<L: Clone, C: Cover> Maintainer<L, C> {
    /// Builds the maintainer from scratch over a copy of `g`.
    pub fn new(g: &DiGraph<L>) -> Self {
        C::build(g.clone())
    }
}

impl<L, C: Cover> Maintainer<L, C> {
    /// Assembles a maintainer around a seed's slot assignment. Slots
    /// without members are dead: a seed restored from a snapshot can
    /// carry them from a previous maintainer's merges.
    pub(crate) fn from_slots(
        graph: DiGraph<L>,
        comp: Vec<u32>,
        members: Vec<Vec<NodeId>>,
        cyclic: Vec<bool>,
        cover: C,
    ) -> Self {
        let alive: Vec<bool> = members.iter().map(|m| !m.is_empty()).collect();
        let live = alive.iter().filter(|&&a| a).count();
        Maintainer {
            graph,
            comp,
            members,
            cyclic,
            alive,
            live,
            stats: DynamicStats::default(),
            cover,
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

    /// True iff there is currently a nonempty path `from ⇝ to`.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        C::reaches(self, from, to)
    }

    /// Inserts the edge `(u, v)` and patches the index.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        self.timed(|m| C::insert(m, u, v))
    }

    /// Removes the edge `(u, v)` and patches the index.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> UpdateEffect {
        self.timed(|m| C::remove(m, u, v))
    }

    /// Applies one edit: [`Maintainer::insert_edge`] or
    /// [`Maintainer::remove_edge`].
    pub fn apply(&mut self, update: GraphUpdate) -> UpdateEffect {
        match update {
            GraphUpdate::InsertEdge(a, b) => self.insert_edge(a, b),
            GraphUpdate::RemoveEdge(a, b) => self.remove_edge(a, b),
        }
    }

    /// Runs one maintenance step, adding its time to
    /// [`DynamicStats::maintain_micros`].
    fn timed(&mut self, step: impl FnOnce(&mut Self) -> UpdateEffect) -> UpdateEffect {
        // phom-lint: allow(clock, "monotonic elapsed-time maintenance stats; no wall-clock semantics")
        let started = std::time::Instant::now();
        let effect = step(self);
        self.stats.maintain_micros += started.elapsed().as_micros();
        effect
    }

    /// Checks the maintained state against a from-scratch recomputation
    /// — the maintenance contract `maintained ≡ fresh build of graph` at
    /// the `reaches` level. The slot bookkeeping is verified first
    /// (assignments in range, liveness and membership agreement), then
    /// the cover's own invariants, then the maintained relation for up
    /// to `samples` evenly spaced source nodes (pass `samples >=
    /// node_count` for an exhaustive comparison). Returns the first
    /// violated invariant.
    pub fn validate(&self, samples: usize) -> Result<(), Violation> {
        let n = self.graph.node_count();
        let slots = self.members.len();
        if self.comp.len() != n {
            return Err(Violation::new(
                "dynamic-shape",
                format!("comp covers {} of {n} nodes", self.comp.len()),
            ));
        }
        if self.cyclic.len() != slots || self.alive.len() != slots {
            return Err(Violation::new(
                "dynamic-shape",
                "slot vectors have diverging lengths",
            ));
        }
        if self.live != self.alive.iter().filter(|&&a| a).count() {
            return Err(Violation::new(
                "dynamic-slots",
                "live counter disagrees with slot liveness",
            ));
        }
        for (v, &c) in self.comp.iter().enumerate() {
            let c = c as usize;
            if c >= slots || !self.alive[c] {
                return Err(Violation::new(
                    "dynamic-slots",
                    format!("node {v} assigned to dead or out-of-range slot {c}"),
                ));
            }
            if !self.members[c].contains(&NodeId(v as u32)) {
                return Err(Violation::new(
                    "dynamic-slots",
                    format!("node {v} missing from the member list of slot {c}"),
                ));
            }
        }
        if let Some(c) = (0..slots).find(|&c| !self.alive[c] && !self.members[c].is_empty()) {
            return Err(Violation::new(
                "dynamic-slots",
                format!("dead slot {c} still holds members"),
            ));
        }
        C::validate(self, samples)
    }

    /// The `affected` slots in post-order over the condensation
    /// (successors first), so a recompute visiting them in this order
    /// finds every affected successor already final. The condensation is
    /// acyclic, so the order is well-defined.
    pub(crate) fn post_order(&self, affected: &[usize]) -> Vec<usize> {
        let slots = self.members.len();
        let mut need = vec![false; slots];
        for &c in affected {
            need[c] = true;
        }
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
        order
    }

    /// The damage gate of a structural deletion: records the cone's size
    /// in [`DynamicStats::peak_damage_permille`], then recomputes the
    /// `affected` cone when it is within the budget and rebuilds from
    /// scratch when it is not.
    pub(crate) fn repair_cone(&mut self, affected: Vec<usize>) -> UpdateEffect {
        let budget = (self.live * DAMAGE_BUDGET_PERMILLE).div_ceil(1000).max(1);
        if let Some(permille) = (affected.len() * 1000).checked_div(self.live) {
            self.stats.peak_damage_permille = self.stats.peak_damage_permille.max(permille);
        }
        if affected.len() > budget {
            self.rebuild(Fallback::Damage);
            return UpdateEffect::Rebuilt;
        }
        C::recompute(self, &affected);
        UpdateEffect::Incremental {
            affected_components: affected.len(),
        }
    }

    /// Full from-scratch rebuild — the escape hatch, counted under
    /// `reason`. The counters carry over.
    pub(crate) fn rebuild(&mut self, reason: Fallback) {
        let mut stats = self.stats;
        stats.rebuilds += 1;
        match reason {
            Fallback::Damage => stats.fallback_damage += 1,
            Fallback::Unsupported => stats.fallback_unsupported += 1,
        }
        *self = C::build(std::mem::take(&mut self.graph));
        self.stats = stats;
    }
}
