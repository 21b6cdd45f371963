//! # phom-dynamic
//!
//! **Semi-dynamic closure maintenance** for live data graphs.
//!
//! Every matching algorithm in this workspace consumes the transitive
//! closure `G2+` of the data graph, and `phom-engine`'s `PreparedGraph`
//! makes computing it a one-time cost — for a *frozen* graph. A single
//! edge insertion used to force a full re-prepare. This crate removes
//! that cliff: [`SemiDynamicClosure`] keeps the closure (and the SCC
//! condensation it is built from) consistent under edge insertions and
//! deletions:
//!
//! * **Insertion** is fully incremental (Italiano-style over the
//!   condensation): inserting `(u, v)` when `u` already reaches `v` is a
//!   no-op for the closure; a *forward* edge propagates `{v} ∪ reach(v)`
//!   to every component that reaches `u`; a *back* edge (`v` reaches `u`)
//!   merges every component on the new cycle into one SCC and propagates
//!   the merged row to its predecessors.
//! * **Deletion** recomputes only the *affected condensation cone*: the
//!   components that reach the deleted edge's source (plus, for an
//!   intra-SCC deletion, the fragments of a split component), in
//!   topological order with memoized unaffected rows. When the cone
//!   covers more than [`DAMAGE_BUDGET_PERMILLE`] of the live components
//!   (half of them), it falls back to a full from-scratch rebuild —
//!   semi-dynamic by design, never worse than re-preparing.
//! * **Hop-bounded closure memos** are refreshed by
//!   [`refresh_bounded_closure`], which re-runs the depth-limited BFS
//!   only for sources whose old row could see an updated edge's source.
//!
//! The invariant (enforced by this crate's property tests): after *any*
//! sequence of updates, [`SemiDynamicClosure`] answers `reaches` exactly
//! like `TransitiveClosure::new` of the identically mutated graph.
//!
//! Two maintainers share that contract and one [`Maintainer`] — the
//! graph, its components in slots, the counters, and the code that
//! works on them (timed `insert_edge`/`remove_edge`, the affected-cone
//! walk, the damage budget and its rebuild fallback, the slot checks of
//! `validate`). Each keeps its own per-slot index: [`SemiDynamicClosure`]
//! patches the **dense** backend's bitset rows, and [`SemiDynamicChain`]
//! patches the compressed **chain** backend's `(chain, min position)`
//! entry lists directly — extending, splitting, and concatenating chains
//! from the update's affected cone instead of rebuilding. The chain
//! maintainer also rebuilds on SCC-splitting deletions, which have no
//! incremental chain rule; [`DynamicStats`] counts the two fallback
//! reasons apart on either maintainer, so the engine reports them the
//! same way. The 2-hop backend (`phom_graph::TwoHopIndex`) has no
//! incremental rule at all: the engine's update loop rebuilds it once
//! per batch, recording the downgrade in
//! `phom_engine::UpdateStats::backend_fallbacks`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod chain;
pub mod closure;
mod slots;
pub mod update;

pub use bounded::refresh_bounded_closure;
pub use chain::SemiDynamicChain;
pub use closure::SemiDynamicClosure;
pub use slots::{Maintainer, DAMAGE_BUDGET_PERMILLE};
pub use update::{DynamicStats, GraphUpdate, UpdateEffect};
