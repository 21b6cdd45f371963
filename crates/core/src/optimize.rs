//! The optimization techniques of Appendix B wrapped in a high-level
//! matcher:
//!
//! * **Partitioning `G1`** — drop pattern nodes with no candidate, split
//!   the rest into weakly connected components, match each independently
//!   (Proposition 1), and shortcut singleton components to their best
//!   candidate;
//! * **Compressing `G2+`** — collapse every SCC-clique of the closure into
//!   one node with a self-loop and match against the compressed graph,
//!   scoring each compressed node by its best member (p-hom modes; the
//!   1-1 problems keep the original graph since distinct pattern nodes
//!   must claim distinct data nodes);
//! * **Greedy extension** *(our addition, off by default)* — after the
//!   approximation returns, greedily add remaining compatible pairs;
//!   monotone in both quality metrics.

use crate::algo::{comp_max_card_with, comp_max_sim_with, AlgoConfig, Selection};
use crate::budget::MatchBudget;
use crate::mapping::PHomMapping;
use phom_graph::{
    compress_closure, weakly_connected_components, CompressedClosure, DiGraph, NodeId,
    ReachabilityIndex, TransitiveClosure,
};
use phom_sim::{NodeWeights, SimMatrix};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which of the four problems of Table 1 to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// CPH via `compMaxCard`.
    #[default]
    MaxCard,
    /// CPH¹⁻¹ via `compMaxCard1-1`.
    MaxCard1to1,
    /// SPH via `compMaxSim`.
    MaxSim,
    /// SPH¹⁻¹ via `compMaxSim1-1`.
    MaxSim1to1,
}

impl Algorithm {
    /// True for the 1-1 variants.
    pub fn injective(self) -> bool {
        matches!(self, Algorithm::MaxCard1to1 | Algorithm::MaxSim1to1)
    }

    /// True for the similarity-metric variants.
    pub fn similarity(self) -> bool {
        matches!(self, Algorithm::MaxSim | Algorithm::MaxSim1to1)
    }
}

/// Matcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct MatcherConfig {
    /// Problem/algorithm selector.
    pub algorithm: Algorithm,
    /// Similarity threshold `ξ`.
    pub xi: f64,
    /// `greedyMatch` pivot strategy.
    pub selection: Selection,
    /// Appendix B: partition `G1` into components.
    pub partition_g1: bool,
    /// Appendix B: compress `G2+` (effective in p-hom modes only).
    pub compress_g2: bool,
    /// Our extension: greedy post-pass adding compatible pairs.
    pub greedy_extend: bool,
    /// Future-work extension: arc-consistency prefiltering of the
    /// candidate pairs (see [`crate::prefilter`]). Sound for decisions,
    /// heuristic for maximum-subgraph quality.
    pub prefilter: bool,
    /// Bounded-stretch matching (see [`crate::bounded`]): image paths of
    /// at most this many edges; `None` is ordinary p-hom. A bound
    /// disables `compress_g2` (SCC compression hides intra-SCC hop
    /// counts, so the compressed closure is not hop-faithful).
    pub max_stretch: Option<usize>,
    /// Randomized restarts (see [`crate::restarts`]): best of this many
    /// greedy runs, restart 0 unperturbed. `1` is the paper's algorithm.
    pub restarts: usize,
    /// Intra-query worker threads for per-component matching when
    /// [`MatcherConfig::partition_g1`] splits the pattern: components are
    /// independent in p-hom modes (Proposition 1), so they fan out across
    /// a scoped pool of this many workers. `1` (the default) is the
    /// sequential paper path; `0` uses the available parallelism. The
    /// result is identical for every worker count. Injective (1-1)
    /// components *compete* for data nodes, so they run speculatively in
    /// parallel and merge in deterministic component order: a component
    /// whose candidate support is disjoint from the images already
    /// claimed keeps its speculative answer (provably identical to the
    /// masked sequential run), and only genuine conflicts re-solve
    /// sequentially under the mask.
    pub intra_workers: usize,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::MaxCard,
            xi: 0.5,
            selection: Selection::MaxGood,
            partition_g1: true,
            compress_g2: true,
            greedy_extend: false,
            prefilter: false,
            max_stretch: None,
            restarts: 1,
            intra_workers: 1,
        }
    }
}

/// Statistics about one matcher run (exposed for the experiment harness).
#[derive(Debug, Clone, Default)]
pub struct MatchStats {
    /// Pattern nodes dropped for lack of candidates (set `S1`).
    pub unmatchable_nodes: usize,
    /// Weakly connected components matched (1 when partitioning is off).
    pub components: usize,
    /// Singleton components resolved by the direct shortcut.
    pub singleton_shortcuts: usize,
    /// `(original, compressed)` data-graph node counts when compression ran.
    pub compression: Option<(usize, usize)>,
    /// Candidate pairs at threshold `ξ`.
    pub candidate_pairs: usize,
    /// Pairs added by the greedy extension pass.
    pub extended_pairs: usize,
    /// Prefilter statistics when [`MatcherConfig::prefilter`] is on.
    pub prefilter: Option<crate::prefilter::PrefilterStats>,
    /// Components matched on the intra-query parallel path (0 when the
    /// run was sequential — one component or one worker). In injective
    /// mode this counts components solved speculatively, whether or not
    /// the deterministic merge later re-solved them under the mask.
    pub parallel_components: usize,
    /// Restart kernel runs actually executed, summed across components
    /// (0 when restarts are off; ≤ `components × restarts` when the
    /// deadline cut restart loops short).
    pub restarts_taken: usize,
    /// Deadline polls at iteration boundaries (per component claimed,
    /// per restart, plus the final flag sample) — the hot-path
    /// observability counter traces export.
    pub budget_polls: usize,
    /// Per-restart kernel microseconds, appended across components in
    /// completion order (becomes nested `restart{i}` trace spans).
    pub restart_micros: Vec<u64>,
    /// True when the deadline of [`PreparedInputs::budget`] expired
    /// during the run: the mapping is the best found so far, not the
    /// full algorithm's answer.
    pub timed_out: bool,
}

/// Result of [`match_graphs`].
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The mapping found.
    pub mapping: PHomMapping,
    /// `qualCard` of the mapping.
    pub qual_card: f64,
    /// `qualSim` of the mapping (w.r.t. the provided weights).
    pub qual_sim: f64,
    /// Run statistics.
    pub stats: MatchStats,
}

/// Borrowed, query-independent artifacts of one data graph, computed once
/// and shared across many [`match_graphs_prepared`] calls (the engine's
/// `PreparedGraph` holds the owning side). The reachability index is
/// backend-agnostic: dense closure and compressed chain index plug in
/// interchangeably.
#[derive(Debug, Clone, Copy)]
pub struct PreparedInputs<'a> {
    /// Full proper reachability index over `G2` (any backend).
    pub closure: &'a dyn ReachabilityIndex,
    /// A hop-bounded closure `(k, closure)`; used when `cfg.max_stretch`
    /// is exactly `k`, otherwise the bounded closure is rebuilt locally.
    pub bounded: Option<(usize, &'a dyn ReachabilityIndex)>,
    /// `G2*`'s member lists and closure; `None` means the preparer
    /// determined compression unprofitable (see
    /// [`compression_worthwhile`]), and compressed runs fall back to the
    /// full closure.
    pub compressed: Option<&'a CompressedClosure>,
    /// Per-query deadline. When it expires the matcher stops at the next
    /// iteration boundary (component, restart, kernel outer loop, or
    /// weight group), returns its best-so-far mapping, and sets
    /// [`MatchStats::timed_out`]. Unlimited by default.
    pub budget: MatchBudget,
}

/// Whether collapsing `original_nodes` data nodes into `compressed_nodes`
/// SCC nodes pays for the matrix-translation overhead of a compressed run
/// (Appendix B). Compression only wins when the condensation removes at
/// least ~10% of the nodes; (near-)acyclic graphs should skip it.
pub fn compression_worthwhile(original_nodes: usize, compressed_nodes: usize) -> bool {
    compressed_nodes * 10 <= original_nodes * 9
}

/// Runs the configured algorithm with the configured optimizations.
/// (`L: Send + Sync` because the restart extension may fan runs out to
/// worker threads, which share the graphs' `Arc`'d label columns; label
/// types are plain data in practice.)
pub fn match_graphs<L: Clone + Send + Sync>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &MatcherConfig,
) -> MatchOutcome {
    match_graphs_inner(g1, g2, mat, weights, cfg, None)
}

/// [`match_graphs`] against precomputed data-graph artifacts: the closure
/// (and optionally the bounded closure and compressed graph) are taken
/// from `prep` instead of being rebuilt, so a batch of queries over one
/// data graph pays the dominant preprocessing cost exactly once.
pub fn match_graphs_prepared<L: Clone + Send + Sync>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &MatcherConfig,
    prep: PreparedInputs<'_>,
) -> MatchOutcome {
    match_graphs_inner(g1, g2, mat, weights, cfg, Some(prep))
}

/// A reachability index that is either borrowed from a preparer or built
/// locally for this call — the backend-agnostic replacement for the old
/// `Cow<TransitiveClosure>` (a locally built index is always dense).
enum ReachView<'a> {
    Borrowed(&'a dyn ReachabilityIndex),
    Owned(TransitiveClosure),
}

impl ReachView<'_> {
    #[inline]
    fn get(&self) -> &dyn ReachabilityIndex {
        match self {
            ReachView::Borrowed(r) => *r,
            ReachView::Owned(c) => c,
        }
    }
}

fn match_graphs_inner<L: Clone + Send + Sync>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &MatcherConfig,
    prep: Option<PreparedInputs<'_>>,
) -> MatchOutcome {
    use std::borrow::Cow;

    assert_eq!(mat.n1(), g1.node_count(), "mat rows must cover G1");
    assert_eq!(mat.n2(), g2.node_count(), "mat cols must cover G2");
    assert_eq!(weights.len(), g1.node_count(), "weights must cover G1");
    if let Some(p) = &prep {
        assert_eq!(
            p.closure.node_count(),
            g2.node_count(),
            "prepared closure must cover G2"
        );
    }

    let mut stats = MatchStats {
        candidate_pairs: mat.candidate_pair_count(cfg.xi),
        ..Default::default()
    };

    // The per-query deadline arrives with the prepared view (the
    // unprepared path has no serving engine above it, hence no deadline).
    let budget = prep.as_ref().map_or(MatchBudget::unlimited(), |p| p.budget);

    // --- Appendix B: optionally compress G2 (p-hom modes only). ---
    // In compressed space we match against G2* with
    // mat*(v, c) = max_{u ∈ members(c)} mat(v, u) and translate back.
    let injective = cfg.algorithm.injective();
    let use_compression = cfg.compress_g2 && !injective && cfg.max_stretch.is_none();

    struct DataSide<'m> {
        closure: ReachView<'m>,
        mat: Cow<'m, SimMatrix>,
        /// For compressed runs: best original member per (v, compressed c).
        translate: Option<Vec<Vec<NodeId>>>,
        n2: usize,
    }

    /// Builds the compressed-space matrix and translation table for one
    /// query (these depend on `G1`/`mat` and cannot be shared).
    fn compressed_side<'m, L>(
        g1: &DiGraph<L>,
        g2_nodes: usize,
        mat: &SimMatrix,
        comp: &'m CompressedClosure,
        stats: &mut MatchStats,
    ) -> DataSide<'m> {
        let cn = comp.node_count();
        stats.compression = Some((g2_nodes, cn));
        let mut cmat = SimMatrix::new(g1.node_count(), cn);
        let mut translate: Vec<Vec<NodeId>> = vec![Vec::new(); g1.node_count()];
        for v in g1.nodes() {
            let mut best: Vec<NodeId> = vec![NodeId(0); cn];
            for (c, slot) in best.iter_mut().enumerate() {
                let (mut best_u, mut best_s) = (NodeId(0), -1.0f64);
                for &u in comp.expand(NodeId(c as u32)) {
                    let s = mat.score(v, u);
                    if s > best_s {
                        best_s = s;
                        best_u = u;
                    }
                }
                cmat.set(v, NodeId(c as u32), best_s.max(0.0));
                *slot = best_u;
            }
            translate[v.index()] = best;
        }
        DataSide {
            closure: ReachView::Borrowed(comp),
            mat: Cow::Owned(cmat),
            translate: Some(translate),
            n2: cn,
        }
    }

    // Compression only pays when the condensation actually shrinks the
    // graph; on (near-)acyclic data graphs the compressed run would just
    // add matrix-translation overhead, so fall back adaptively. A
    // preparer makes that call once (`prep.compressed` is `None` when it
    // declined); the unprepared path decides per call.
    let local_comp = (use_compression && prep.is_none())
        .then(|| compress_closure(g2))
        .filter(|comp| compression_worthwhile(g2.node_count(), comp.node_count()));
    let comp = match prep {
        Some(p) if use_compression => p.compressed,
        _ => local_comp.as_ref(),
    };
    let data = comp.map(|comp| compressed_side(g1, g2.node_count(), mat, comp, &mut stats));

    let data = data.unwrap_or_else(|| {
        let closure: ReachView<'_> = match (cfg.max_stretch, &prep) {
            (Some(k), Some(p)) if p.bounded.is_some_and(|(pk, _)| pk == k) => {
                // phom-lint: allow(unwrap, "the match guard established p.bounded is Some with the matching stretch")
                ReachView::Borrowed(p.bounded.expect("checked above").1)
            }
            (Some(k), _) => ReachView::Owned(TransitiveClosure::bounded(g2, k)),
            (None, Some(p)) => ReachView::Borrowed(p.closure),
            (None, None) => ReachView::Owned(TransitiveClosure::new(g2)),
        };
        DataSide {
            closure,
            mat: Cow::Borrowed(mat),
            translate: None,
            n2: g2.node_count(),
        }
    });

    // --- Future-work extension: arc-consistency prefiltering. ---
    let data = if cfg.prefilter {
        let (filtered, pf_stats) =
            crate::prefilter::ac_prefilter_matrix(g1, data.closure.get(), &data.mat, cfg.xi);
        stats.prefilter = Some(pf_stats);
        DataSide {
            closure: data.closure,
            mat: std::borrow::Cow::Owned(filtered),
            translate: data.translate,
            n2: data.n2,
        }
    } else {
        data
    };

    // Shared observability counters: `run_algorithm` executes on intra-
    // query worker threads, so the trace counters accumulate through
    // atomics (and a mutex for the restart timing list) and fold into
    // `stats` once all workers are done.
    let restarts_taken = AtomicUsize::new(0);
    let budget_polls = AtomicUsize::new(0);
    let restart_micros: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    let run_algorithm = |g: &DiGraph<L>, m: &SimMatrix, w: &NodeWeights, xi: f64| -> PHomMapping {
        let algo_cfg = AlgoConfig {
            xi,
            selection: cfg.selection,
            budget,
        };
        if cfg.restarts > 1 {
            let rcfg = crate::restarts::RestartConfig {
                restarts: cfg.restarts,
                budget,
                ..Default::default()
            };
            let (mapping, telemetry) = if cfg.algorithm.similarity() {
                crate::restarts::comp_max_sim_restarts_telemetry(
                    g,
                    data.closure.get(),
                    m,
                    w,
                    &algo_cfg,
                    injective,
                    &rcfg,
                )
            } else {
                crate::restarts::comp_max_card_restarts_telemetry(
                    g,
                    data.closure.get(),
                    m,
                    &algo_cfg,
                    injective,
                    &rcfg,
                )
            };
            restarts_taken.fetch_add(telemetry.taken, Ordering::Relaxed);
            budget_polls.fetch_add(telemetry.polls, Ordering::Relaxed);
            restart_micros
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(&telemetry.micros);
            mapping
        } else if cfg.algorithm.similarity() {
            comp_max_sim_with(g, data.closure.get(), m, w, &algo_cfg, injective)
        } else {
            comp_max_card_with(g, data.closure.get(), m, &algo_cfg, injective)
        }
    };

    // --- Appendix B: optionally partition G1. ---
    let mut mapping = if cfg.partition_g1 {
        // S1: pattern nodes that cannot match anything (incl. self-loop
        // filtering, which is static).
        let keep: BTreeSet<NodeId> = g1
            .nodes()
            .filter(|&v| {
                data.mat
                    .candidates(v, cfg.xi)
                    .any(|u| !g1.has_self_loop(v) || data.closure.get().reaches(u, u))
            })
            .collect();
        stats.unmatchable_nodes = g1.node_count() - keep.len();

        let (reduced, old_of_new) = g1.induced_subgraph(&keep);
        let comps = weakly_connected_components(&reduced);
        stats.components = comps.len();

        // Proposition 1 makes per-component matching sound for p-hom, but
        // 1-1 components *compete* for data nodes. In injective mode we
        // match components sequentially, masking the images already
        // claimed (their scores drop to 0 and the component threshold is
        // bumped above 0 so they cannot re-enter at ξ = 0).
        let mut whole = PHomMapping::empty(g1.node_count());
        if injective {
            let component_xi = cfg.xi.max(f64::MIN_POSITIVE);
            let mut used: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
            let workers = intra_worker_count(cfg.intra_workers, comps.len());
            // Speculative results of the parallel phase: each component
            // solved *unmasked*, together with its candidate **support**
            // — every data node whose score is nonzero in some component
            // row (for singletons, the full filtered candidate list).
            // Masking only zeroes columns; if no already-claimed image
            // lies in the support, the masked matrix equals the unmasked
            // one entry-for-entry, so the speculative answer IS the
            // sequential answer and the merge below accepts it.
            enum Spec {
                /// Deadline expired before this component was claimed.
                Skipped,
                /// Singleton: best unmasked candidate + full support.
                Singleton(NodeId, Option<NodeId>, Vec<NodeId>),
                /// Multi-node: unmasked part, sub-id -> g1 id, support.
                Matched(PHomMapping, Vec<NodeId>, Vec<NodeId>),
            }
            let specs: Option<Vec<Spec>> = if workers > 1 {
                let data = &data;
                let run_algorithm = &run_algorithm;
                let old_of_new = &old_of_new;
                let reduced = &reduced;
                let budget_polls = &budget_polls;
                let spec_solve = move |comp_nodes: &Vec<NodeId>| -> Spec {
                    budget_polls.fetch_add(1, Ordering::Relaxed);
                    if budget.expired() {
                        return Spec::Skipped;
                    }
                    if comp_nodes.len() == 1 {
                        let v_old = old_of_new[comp_nodes[0].index()];
                        let support: Vec<NodeId> = data
                            .mat
                            .candidates(v_old, cfg.xi)
                            .filter(|&u| {
                                !g1.has_self_loop(v_old) || data.closure.get().reaches(u, u)
                            })
                            .collect();
                        let best = support.iter().copied().max_by(|&a, &b| {
                            data.mat
                                .score(v_old, a)
                                .total_cmp(&data.mat.score(v_old, b))
                                .then(b.cmp(&a))
                        });
                        return Spec::Singleton(v_old, best, support);
                    }
                    let comp_set: BTreeSet<NodeId> = comp_nodes.iter().copied().collect();
                    let (sub, sub_old) = reduced.induced_subgraph(&comp_set);
                    let orig: Vec<NodeId> =
                        sub_old.iter().map(|&nv| old_of_new[nv.index()]).collect();
                    let sub_mat = SimMatrix::from_fn(sub.node_count(), data.n2, |nv, u| {
                        data.mat.score(orig[nv.index()], u)
                    });
                    let sub_w =
                        NodeWeights::from_vec(orig.iter().map(|&v| weights.get(v)).collect());
                    let part = run_algorithm(&sub, &sub_mat, &sub_w, component_xi);
                    let support: Vec<NodeId> = (0..data.n2 as u32)
                        .map(NodeId)
                        .filter(|&u| orig.iter().any(|&v| data.mat.score(v, u) > 0.0))
                        .collect();
                    Spec::Matched(part, orig, support)
                };
                // Work-stealing claim loop, mirroring the p-hom branch.
                let next = AtomicUsize::new(0);
                let slots: Mutex<Vec<Option<Spec>>> =
                    Mutex::new((0..comps.len()).map(|_| None).collect());
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            if i >= comps.len() {
                                break;
                            }
                            let r = spec_solve(&comps[i]);
                            let mut slots = slots.lock().unwrap_or_else(|e| e.into_inner());
                            slots[i] = Some(r);
                        });
                    }
                });
                let specs: Vec<Spec> = slots
                    .into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .into_iter()
                    // phom-lint: allow(unwrap, "the scope joins all workers and the claim loop covers every index, so each slot was filled")
                    .map(|r| r.expect("every component index was claimed"))
                    .collect();
                stats.parallel_components =
                    specs.iter().filter(|r| !matches!(r, Spec::Skipped)).count();
                Some(specs)
            } else {
                None
            };
            match specs {
                // Deterministic conflict-resolution merge, in component
                // order — exactly the order the sequential path claims
                // images in, so `used` evolves identically.
                Some(specs) => {
                    for (i, spec) in specs.into_iter().enumerate() {
                        match spec {
                            Spec::Skipped => {}
                            Spec::Singleton(v_old, best, support) => {
                                stats.singleton_shortcuts += 1;
                                let choice = if support.iter().any(|u| used.contains(u)) {
                                    // Conflict: redo the masked pick.
                                    support
                                        .iter()
                                        .copied()
                                        .filter(|u| !used.contains(u))
                                        .max_by(|&a, &b| {
                                            data.mat
                                                .score(v_old, a)
                                                .total_cmp(&data.mat.score(v_old, b))
                                                .then(b.cmp(&a))
                                        })
                                } else {
                                    best
                                };
                                if let Some(u) = choice {
                                    whole.set(v_old, u);
                                    used.insert(u);
                                }
                            }
                            Spec::Matched(part, orig, support) => {
                                if support.iter().any(|u| used.contains(u)) {
                                    // Conflict: re-solve under the mask,
                                    // as the sequential path would have.
                                    budget_polls.fetch_add(1, Ordering::Relaxed);
                                    if budget.expired() {
                                        continue;
                                    }
                                    let comp_set: BTreeSet<NodeId> =
                                        comps[i].iter().copied().collect();
                                    let (sub, _) = reduced.induced_subgraph(&comp_set);
                                    let sub_mat =
                                        SimMatrix::from_fn(sub.node_count(), data.n2, |nv, u| {
                                            if used.contains(&u) {
                                                0.0
                                            } else {
                                                data.mat.score(orig[nv.index()], u)
                                            }
                                        });
                                    let sub_w = NodeWeights::from_vec(
                                        orig.iter().map(|&v| weights.get(v)).collect(),
                                    );
                                    let part = run_algorithm(&sub, &sub_mat, &sub_w, component_xi);
                                    used.extend(part.pairs().map(|(_, u)| u));
                                    whole.absorb_renumbered(&part, &orig);
                                } else {
                                    used.extend(part.pairs().map(|(_, u)| u));
                                    whole.absorb_renumbered(&part, &orig);
                                }
                            }
                        }
                    }
                }
                // Single worker: the paper's sequential masking loop.
                None => {
                    for comp_nodes in &comps {
                        // Deadline: components already matched are kept.
                        budget_polls.fetch_add(1, Ordering::Relaxed);
                        if budget.expired() {
                            break;
                        }
                        if comp_nodes.len() == 1 {
                            // Singleton shortcut: best candidate wins outright.
                            stats.singleton_shortcuts += 1;
                            let v_old = old_of_new[comp_nodes[0].index()];
                            let best = data
                                .mat
                                .candidates(v_old, cfg.xi)
                                .filter(|&u| {
                                    !g1.has_self_loop(v_old) || data.closure.get().reaches(u, u)
                                })
                                .filter(|u| !used.contains(u))
                                .max_by(|&a, &b| {
                                    data.mat
                                        .score(v_old, a)
                                        .total_cmp(&data.mat.score(v_old, b))
                                        .then(b.cmp(&a))
                                });
                            if let Some(u) = best {
                                whole.set(v_old, u);
                                used.insert(u);
                            }
                            continue;
                        }
                        let comp_set: BTreeSet<NodeId> = comp_nodes.iter().copied().collect();
                        let (sub, sub_old) = reduced.induced_subgraph(&comp_set);
                        // sub ids -> original g1 ids.
                        let orig: Vec<NodeId> =
                            sub_old.iter().map(|&nv| old_of_new[nv.index()]).collect();
                        let sub_mat = SimMatrix::from_fn(sub.node_count(), data.n2, |nv, u| {
                            if used.contains(&u) {
                                0.0
                            } else {
                                data.mat.score(orig[nv.index()], u)
                            }
                        });
                        let sub_w =
                            NodeWeights::from_vec(orig.iter().map(|&v| weights.get(v)).collect());
                        let part = run_algorithm(&sub, &sub_mat, &sub_w, component_xi);
                        used.extend(part.pairs().map(|(_, u)| u));
                        whole.absorb_renumbered(&part, &orig);
                    }
                }
            }
        } else {
            // p-hom modes: components are fully independent, so they can
            // be solved in any order — including concurrently. `solve`
            // is a pure function of one component; the merge below is
            // order-insensitive because components are disjoint node
            // sets. A worker count of 1 runs the identical code inline.
            enum Solved {
                /// Deadline expired before this component was claimed.
                Skipped,
                /// Singleton shortcut: its best candidate (if any).
                Singleton(Option<(NodeId, NodeId)>),
                /// A matched multi-node component (part, sub-id -> g1 id).
                Matched(PHomMapping, Vec<NodeId>),
            }
            let data = &data;
            let run_algorithm = &run_algorithm;
            let old_of_new = &old_of_new;
            let reduced = &reduced;
            let budget_polls = &budget_polls;
            let solve = move |comp_nodes: &Vec<NodeId>| -> Solved {
                // Deadline: checked per component, so an expired query
                // stops claiming work at the next component boundary.
                budget_polls.fetch_add(1, Ordering::Relaxed);
                if budget.expired() {
                    return Solved::Skipped;
                }
                if comp_nodes.len() == 1 {
                    let v_old = old_of_new[comp_nodes[0].index()];
                    let best = data
                        .mat
                        .candidates(v_old, cfg.xi)
                        .filter(|&u| !g1.has_self_loop(v_old) || data.closure.get().reaches(u, u))
                        .max_by(|&a, &b| {
                            data.mat
                                .score(v_old, a)
                                .total_cmp(&data.mat.score(v_old, b))
                                .then(b.cmp(&a))
                        });
                    return Solved::Singleton(best.map(|u| (v_old, u)));
                }
                let comp_set: BTreeSet<NodeId> = comp_nodes.iter().copied().collect();
                let (sub, sub_old) = reduced.induced_subgraph(&comp_set);
                // sub ids -> original g1 ids.
                let orig: Vec<NodeId> = sub_old.iter().map(|&nv| old_of_new[nv.index()]).collect();
                let sub_mat = SimMatrix::from_fn(sub.node_count(), data.n2, |nv, u| {
                    data.mat.score(orig[nv.index()], u)
                });
                let sub_w = NodeWeights::from_vec(orig.iter().map(|&v| weights.get(v)).collect());
                let part = run_algorithm(&sub, &sub_mat, &sub_w, cfg.xi);
                Solved::Matched(part, orig)
            };

            let workers = intra_worker_count(cfg.intra_workers, comps.len());
            let solved: Vec<Solved> = if workers > 1 {
                // Work-stealing claim loop (shared atomic index), mirroring
                // the engine's inter-query batch executor one level down.
                let next = AtomicUsize::new(0);
                let slots: Mutex<Vec<Option<Solved>>> =
                    Mutex::new((0..comps.len()).map(|_| None).collect());
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            if i >= comps.len() {
                                break;
                            }
                            let r = solve(&comps[i]);
                            let mut slots = slots.lock().unwrap_or_else(|e| e.into_inner());
                            slots[i] = Some(r);
                        });
                    }
                });
                let solved: Vec<Solved> = slots
                    .into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .into_iter()
                    // phom-lint: allow(unwrap, "the scope joins all workers and the claim loop covers every index, so each slot was filled")
                    .map(|r| r.expect("every component index was claimed"))
                    .collect();
                stats.parallel_components = solved
                    .iter()
                    .filter(|r| !matches!(r, Solved::Skipped))
                    .count();
                solved
            } else {
                comps.iter().map(solve).collect()
            };
            for r in solved {
                match r {
                    Solved::Skipped => {}
                    Solved::Singleton(best) => {
                        stats.singleton_shortcuts += 1;
                        if let Some((v_old, u)) = best {
                            whole.set(v_old, u);
                        }
                    }
                    Solved::Matched(part, orig) => whole.absorb_renumbered(&part, &orig),
                }
            }
        }
        whole
    } else {
        stats.components = 1;
        run_algorithm(g1, &data.mat, weights, cfg.xi)
    };

    // One clock sample decides both whether the greedy extension may
    // still run and the Timeout flag on the outcome, so the two can
    // never disagree. Any earlier loop that broke on the budget implies
    // this sample reads expired (the clock is monotonic), so every cut
    // is flagged; the converse misflag — everything completed and the
    // deadline crosses in the instants before this line — is confined
    // to that one read and errs on the conservative side.
    budget_polls.fetch_add(1, Ordering::Relaxed);
    let expired = budget.expired();

    // --- Our extension: greedy completion (skipped past the deadline:
    // it is a whole-pattern pass, not resumable mid-way). ---
    if cfg.greedy_extend && !expired {
        stats.extended_pairs = greedy_extend(
            g1,
            data.closure.get(),
            &data.mat,
            cfg.xi,
            injective,
            &mut mapping,
        );
    }

    // --- Translate compressed images back to original data nodes. ---
    let mapping = match &data.translate {
        Some(translate) => PHomMapping::from_pairs(
            g1.node_count(),
            mapping
                .pairs()
                .map(|(v, c)| (v, translate[v.index()][c.index()])),
        ),
        None => mapping,
    };

    stats.timed_out = expired;
    stats.restarts_taken = restarts_taken.load(Ordering::Relaxed);
    stats.budget_polls = budget_polls.load(Ordering::Relaxed);
    stats.restart_micros = restart_micros
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());

    let qual_card = mapping.qual_card();
    let qual_sim = mapping.qual_sim(weights, mat);
    MatchOutcome {
        mapping,
        qual_card,
        qual_sim,
        stats,
    }
}

/// Resolves [`MatcherConfig::intra_workers`] against the component count:
/// `0` means available parallelism, and there is never a point in more
/// workers than components.
fn intra_worker_count(requested: usize, components: usize) -> usize {
    let hw = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    hw.min(components).max(1)
}

/// Greedily adds compatible `(v, u)` pairs to `mapping` in descending
/// `mat` order. Returns the number of pairs added.
fn greedy_extend<L>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    xi: f64,
    injective: bool,
    mapping: &mut PHomMapping,
) -> usize {
    let mut used: std::collections::HashSet<NodeId> = mapping.pairs().map(|(_, u)| u).collect();
    let mut candidates: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for v in g1.nodes() {
        if mapping.get(v).is_some() {
            continue;
        }
        for u in mat.candidates(v, xi) {
            if g1.has_self_loop(v) && !closure.reaches(u, u) {
                continue;
            }
            candidates.push((v, u, mat.score(v, u)));
        }
    }
    candidates.sort_by(|a, b| b.2.total_cmp(&a.2));

    let mut added = 0;
    for (v, u, _) in candidates {
        if mapping.get(v).is_some() || (injective && used.contains(&u)) {
            continue;
        }
        let ok = g1
            .post(v)
            .iter()
            .filter_map(|&c| mapping.get(c).map(|cu| (c, cu)))
            .all(|(c, cu)| if c == v { true } else { closure.reaches(u, cu) })
            && g1
                .prev(v)
                .iter()
                .filter_map(|&p| mapping.get(p).map(|pu| (p, pu)))
                .all(|(p, pu)| if p == v { true } else { closure.reaches(pu, u) });
        if ok {
            mapping.set(v, u);
            used.insert(u);
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify_phom;
    use phom_graph::graph_from_labels;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn store_instance() -> (DiGraph<String>, DiGraph<String>, SimMatrix) {
        let g1 = graph_from_labels(&["A", "books", "audio"], &[("A", "books"), ("A", "audio")]);
        let g2 = graph_from_labels(
            &["B", "cat", "books", "digital"],
            &[("B", "cat"), ("cat", "books"), ("cat", "digital")],
        );
        let mat = phom_sim::matrix_from_label_fn(&g1, &g2, |a, b| match (a, b) {
            ("A", "B") => 0.7,
            ("books", "books") => 1.0,
            ("audio", "digital") => 0.7,
            _ => 0.0,
        });
        (g1, g2, mat)
    }

    #[test]
    fn default_matcher_finds_full_mapping() {
        let (g1, g2, mat) = store_instance();
        let w = NodeWeights::uniform(3);
        let out = match_graphs(&g1, &g2, &mat, &w, &MatcherConfig::default());
        assert!((out.qual_card - 1.0).abs() < 1e-12, "{:?}", out.mapping);
        let closure = TransitiveClosure::new(&g2);
        assert_eq!(
            verify_phom(&g1, &out.mapping, &mat, 0.5, &closure, false),
            Ok(())
        );
    }

    #[test]
    fn all_optimization_combinations_agree_on_quality() {
        let (g1, g2, mat) = store_instance();
        let w = NodeWeights::uniform(3);
        for partition in [false, true] {
            for compress in [false, true] {
                let cfg = MatcherConfig {
                    partition_g1: partition,
                    compress_g2: compress,
                    ..Default::default()
                };
                let out = match_graphs(&g1, &g2, &mat, &w, &cfg);
                assert!(
                    (out.qual_card - 1.0).abs() < 1e-12,
                    "partition={partition} compress={compress}: {:?}",
                    out.mapping
                );
            }
        }
    }

    #[test]
    fn partitioning_reports_components_and_shortcuts() {
        // G1: two disconnected pieces, one of them a singleton, plus an
        // unmatchable node.
        let g1 = graph_from_labels(&["a", "b", "lonely", "ghost"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b", "lonely"], &[("a", "b")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w = NodeWeights::uniform(4);
        let cfg = MatcherConfig {
            partition_g1: true,
            ..Default::default()
        };
        let out = match_graphs(&g1, &g2, &mat, &w, &cfg);
        assert_eq!(out.stats.unmatchable_nodes, 1, "ghost has no candidate");
        assert_eq!(out.stats.components, 2);
        assert_eq!(out.stats.singleton_shortcuts, 1);
        assert_eq!(
            out.mapping.get(n(2)),
            Some(n(2)),
            "singleton mapped directly"
        );
        assert!((out.qual_card - 0.75).abs() < 1e-12, "3 of 4 nodes mapped");
    }

    #[test]
    fn compression_handles_cycles_in_data_graph() {
        // Pattern path a -> b -> c against a data graph whose middle is a
        // 3-cycle; compression collapses the cycle.
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let g2 = graph_from_labels(
            &["a", "b", "x", "y", "c"],
            &[("a", "b"), ("b", "x"), ("x", "y"), ("y", "b"), ("y", "c")],
        );
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w = NodeWeights::uniform(3);
        let cfg = MatcherConfig {
            compress_g2: true,
            ..Default::default()
        };
        let out = match_graphs(&g1, &g2, &mat, &w, &cfg);
        let (orig, compressed) = out.stats.compression.expect("compression ran");
        assert_eq!(orig, 5);
        assert_eq!(compressed, 3, "the 3-cycle collapses");
        assert!((out.qual_card - 1.0).abs() < 1e-12, "{:?}", out.mapping);
        // Translated mapping must be valid against the *original* G2.
        let closure = TransitiveClosure::new(&g2);
        assert_eq!(
            verify_phom(&g1, &out.mapping, &mat, 0.5, &closure, false),
            Ok(())
        );
    }

    #[test]
    fn compression_skipped_for_one_one() {
        let (g1, g2, mat) = store_instance();
        let w = NodeWeights::uniform(3);
        let cfg = MatcherConfig {
            algorithm: Algorithm::MaxCard1to1,
            compress_g2: true,
            ..Default::default()
        };
        let out = match_graphs(&g1, &g2, &mat, &w, &cfg);
        assert!(out.stats.compression.is_none(), "1-1 keeps the original G2");
        assert!(out.mapping.is_injective());
    }

    #[test]
    fn greedy_extension_never_reduces_quality() {
        let (g1, g2, mat) = store_instance();
        let w = NodeWeights::uniform(3);
        let base = match_graphs(&g1, &g2, &mat, &w, &MatcherConfig::default());
        let extended = match_graphs(
            &g1,
            &g2,
            &mat,
            &w,
            &MatcherConfig {
                greedy_extend: true,
                ..Default::default()
            },
        );
        assert!(extended.qual_card >= base.qual_card - 1e-12);
        assert!(extended.qual_sim >= base.qual_sim - 1e-12);
    }

    #[test]
    fn prefilter_keeps_mapping_valid_and_reports_stats() {
        let (g1, g2, mat) = store_instance();
        let w = NodeWeights::uniform(3);
        let cfg = MatcherConfig {
            prefilter: true,
            ..Default::default()
        };
        let out = match_graphs(&g1, &g2, &mat, &w, &cfg);
        let pf = out.stats.prefilter.expect("prefilter ran");
        assert!(pf.initial_pairs >= pf.pruned_pairs);
        let closure = TransitiveClosure::new(&g2);
        assert_eq!(
            verify_phom(&g1, &out.mapping, &mat, 0.5, &closure, false),
            Ok(())
        );
        assert!(
            (out.qual_card - 1.0).abs() < 1e-12,
            "easy instance stays fully matched"
        );
    }

    #[test]
    fn stretch_bound_flows_through_matcher() {
        // Pattern edge needs a 2-hop path: k = 1 loses a node, k = 2 and
        // unbounded match fully; compression is auto-disabled under a
        // bound.
        let g1 = graph_from_labels(&["a", "c"], &[("a", "c")]);
        let g2 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w = NodeWeights::uniform(2);
        let tight = match_graphs(
            &g1,
            &g2,
            &mat,
            &w,
            &MatcherConfig {
                max_stretch: Some(1),
                ..Default::default()
            },
        );
        let loose = match_graphs(
            &g1,
            &g2,
            &mat,
            &w,
            &MatcherConfig {
                max_stretch: Some(2),
                ..Default::default()
            },
        );
        assert!(tight.qual_card < 1.0);
        assert!((loose.qual_card - 1.0).abs() < 1e-12);
        assert!(tight.stats.compression.is_none());
    }

    #[test]
    fn restarts_flow_through_matcher() {
        let (g1, g2, mat) = store_instance();
        let w = NodeWeights::uniform(3);
        let base = match_graphs(&g1, &g2, &mat, &w, &MatcherConfig::default());
        let multi = match_graphs(
            &g1,
            &g2,
            &mat,
            &w,
            &MatcherConfig {
                restarts: 5,
                ..Default::default()
            },
        );
        assert!(multi.qual_card >= base.qual_card - 1e-12);
        let closure = TransitiveClosure::new(&g2);
        assert_eq!(
            verify_phom(&g1, &multi.mapping, &mat, 0.5, &closure, false),
            Ok(())
        );
    }

    /// A pattern with three 2-node components plus a singleton, against a
    /// data graph where each pattern edge stretches over a 2-hop path.
    fn multi_component_instance() -> (DiGraph<String>, DiGraph<String>, SimMatrix) {
        let g1 = graph_from_labels(
            &["a", "b", "c", "d", "e", "f", "lone"],
            &[("a", "b"), ("c", "d"), ("e", "f")],
        );
        let g2 = graph_from_labels(
            &["a", "x", "b", "c", "y", "d", "e", "z", "f", "lone"],
            &[
                ("a", "x"),
                ("x", "b"),
                ("c", "y"),
                ("y", "d"),
                ("e", "z"),
                ("z", "f"),
            ],
        );
        let mat = SimMatrix::label_equality(&g1, &g2);
        (g1, g2, mat)
    }

    #[test]
    fn intra_workers_match_sequential_on_multi_component_pattern() {
        let (g1, g2, mat) = multi_component_instance();
        let w = NodeWeights::uniform(g1.node_count());
        let seq = match_graphs(
            &g1,
            &g2,
            &mat,
            &w,
            &MatcherConfig {
                intra_workers: 1,
                ..Default::default()
            },
        );
        assert_eq!(seq.stats.components, 4);
        assert_eq!(seq.stats.parallel_components, 0, "sequential path");
        assert!((seq.qual_card - 1.0).abs() < 1e-12, "{:?}", seq.mapping);
        for workers in [2, 4, 0] {
            let par = match_graphs(
                &g1,
                &g2,
                &mat,
                &w,
                &MatcherConfig {
                    intra_workers: workers,
                    ..Default::default()
                },
            );
            assert_eq!(
                seq.mapping.pairs().collect::<Vec<_>>(),
                par.mapping.pairs().collect::<Vec<_>>(),
                "workers={workers}"
            );
            assert_eq!(seq.qual_card, par.qual_card);
            assert_eq!(seq.qual_sim, par.qual_sim);
            if workers > 1 {
                // (workers == 0 resolves to the available parallelism,
                // which may be 1 on a single-core host — then the run is
                // legitimately sequential.)
                assert_eq!(
                    par.stats.parallel_components, 4,
                    "workers={workers}: all components took the parallel path"
                );
            }
        }
    }

    #[test]
    fn injective_mode_parallel_path_matches_sequential() {
        let (g1, g2, mat) = multi_component_instance();
        let w = NodeWeights::uniform(g1.node_count());
        let run = |workers| {
            match_graphs(
                &g1,
                &g2,
                &mat,
                &w,
                &MatcherConfig {
                    algorithm: Algorithm::MaxCard1to1,
                    intra_workers: workers,
                    ..Default::default()
                },
            )
        };
        let seq = run(1);
        assert_eq!(
            seq.stats.parallel_components, 0,
            "one worker keeps the sequential masking loop"
        );
        assert!(seq.mapping.is_injective());
        let par = run(4);
        assert_eq!(
            par.stats.parallel_components, 4,
            "all components solved speculatively on the parallel path"
        );
        assert!(par.mapping.is_injective());
        assert_eq!(
            seq.mapping.pairs().collect::<Vec<_>>(),
            par.mapping.pairs().collect::<Vec<_>>(),
            "deterministic merge reproduces the sequential masking result"
        );
        assert_eq!(seq.qual_card, par.qual_card);
    }

    #[test]
    fn expired_budget_returns_best_so_far_and_flags_timeout() {
        let (g1, g2, mat) = multi_component_instance();
        let w = NodeWeights::uniform(g1.node_count());
        let closure = TransitiveClosure::new(&g2);
        for algorithm in [
            Algorithm::MaxCard,
            Algorithm::MaxCard1to1,
            Algorithm::MaxSim,
            Algorithm::MaxSim1to1,
        ] {
            for partition in [false, true] {
                for intra_workers in [1, 4] {
                    let prep = PreparedInputs {
                        closure: &closure,
                        bounded: None,
                        compressed: None,
                        budget: MatchBudget::with_timeout(std::time::Duration::ZERO),
                    };
                    let cfg = MatcherConfig {
                        algorithm,
                        partition_g1: partition,
                        intra_workers,
                        greedy_extend: true, // must also be skipped
                        ..Default::default()
                    };
                    let out = match_graphs_prepared(&g1, &g2, &mat, &w, &cfg, prep);
                    assert!(
                        out.stats.timed_out,
                        "algorithm={algorithm:?} partition={partition} \
                         workers={intra_workers}: zero budget must flag Timeout"
                    );
                    assert!(
                        out.mapping.is_empty(),
                        "zero budget stops before the first iteration boundary"
                    );
                    assert_eq!(out.stats.extended_pairs, 0, "greedy extension skipped");
                }
            }
        }
        // The unlimited default never flags.
        let prep = PreparedInputs {
            closure: &closure,
            bounded: None,
            compressed: None,
            budget: MatchBudget::unlimited(),
        };
        let out = match_graphs_prepared(&g1, &g2, &mat, &w, &MatcherConfig::default(), prep);
        assert!(!out.stats.timed_out);
        assert!((out.qual_card - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_algorithms_report_qual_sim() {
        let (g1, g2, mat) = store_instance();
        let w = NodeWeights::uniform(3);
        let cfg = MatcherConfig {
            algorithm: Algorithm::MaxSim,
            ..Default::default()
        };
        let out = match_graphs(&g1, &g2, &mat, &w, &cfg);
        assert!(out.qual_sim > 0.0);
        assert!(out.qual_sim <= 1.0);
    }

    /// Builds the owning side of [`PreparedInputs`] the way an engine
    /// would: full closure, compression when worthwhile, one bounded
    /// closure.
    fn prepare_for_test(
        g2: &DiGraph<String>,
        bound: Option<usize>,
    ) -> (
        TransitiveClosure,
        Option<CompressedClosure>,
        Option<(usize, TransitiveClosure)>,
    ) {
        let closure = TransitiveClosure::new(g2);
        let compressed = Some(phom_graph::compress_closure(g2))
            .filter(|comp| compression_worthwhile(g2.node_count(), comp.node_count()));
        let bounded = bound.map(|k| (k, TransitiveClosure::bounded(g2, k)));
        (closure, compressed, bounded)
    }

    #[test]
    fn prepared_inputs_reproduce_unprepared_results() {
        let (g1, g2, mat) = store_instance();
        let w = NodeWeights::uniform(3);
        for algorithm in [
            Algorithm::MaxCard,
            Algorithm::MaxCard1to1,
            Algorithm::MaxSim,
            Algorithm::MaxSim1to1,
        ] {
            for max_stretch in [None, Some(1), Some(2)] {
                for restarts in [1, 3] {
                    let cfg = MatcherConfig {
                        algorithm,
                        max_stretch,
                        restarts,
                        ..Default::default()
                    };
                    let plain = match_graphs(&g1, &g2, &mat, &w, &cfg);
                    let (closure, compressed, bounded) = prepare_for_test(&g2, max_stretch);
                    let prep = PreparedInputs {
                        closure: &closure,
                        bounded: bounded
                            .as_ref()
                            .map(|(k, c)| (*k, c as &dyn ReachabilityIndex)),
                        compressed: compressed.as_ref(),
                        budget: MatchBudget::unlimited(),
                    };
                    let prepared = match_graphs_prepared(&g1, &g2, &mat, &w, &cfg, prep);
                    assert_eq!(
                        plain.mapping.pairs().collect::<Vec<_>>(),
                        prepared.mapping.pairs().collect::<Vec<_>>(),
                        "algorithm={algorithm:?} stretch={max_stretch:?} restarts={restarts}"
                    );
                    assert_eq!(plain.qual_card, prepared.qual_card);
                    assert_eq!(plain.qual_sim, prepared.qual_sim);
                }
            }
        }
    }

    #[test]
    fn prepared_without_bounded_closure_rebuilds_locally() {
        // A prepared view missing the *matching* bounded closure must
        // still produce correct bounded results (local rebuild).
        let g1 = graph_from_labels(&["a", "c"], &[("a", "c")]);
        let g2 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let w = NodeWeights::uniform(2);
        let closure = TransitiveClosure::new(&g2);
        let wrong_k = TransitiveClosure::bounded(&g2, 5);
        let prep = PreparedInputs {
            closure: &closure,
            bounded: Some((5, &wrong_k)), // query will ask for k = 1
            compressed: None,
            budget: MatchBudget::unlimited(),
        };
        let cfg = MatcherConfig {
            max_stretch: Some(1),
            ..Default::default()
        };
        let out = match_graphs_prepared(&g1, &g2, &mat, &w, &cfg, prep);
        assert!(
            out.qual_card < 1.0,
            "k=1 must not see the 2-hop path: {:?}",
            out.mapping
        );
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_pair() -> impl Strategy<Value = (DiGraph<u8>, DiGraph<u8>)> {
            (
                1usize..6,
                proptest::collection::vec((0usize..6, 0usize..6), 0..10),
                1usize..8,
                proptest::collection::vec((0usize..8, 0usize..8), 0..16),
            )
                .prop_map(|(n1, e1, n2, e2)| {
                    let mut g1 = DiGraph::with_capacity(n1);
                    for i in 0..n1 {
                        g1.add_node((i % 3) as u8);
                    }
                    for (a, b) in e1 {
                        g1.add_edge(NodeId((a % n1) as u32), NodeId((b % n1) as u32));
                    }
                    let mut g2 = DiGraph::with_capacity(n2);
                    for i in 0..n2 {
                        g2.add_node((i % 3) as u8);
                    }
                    for (a, b) in e2 {
                        g2.add_edge(NodeId((a % n2) as u32), NodeId((b % n2) as u32));
                    }
                    (g1, g2)
                })
        }

        proptest! {
            /// Every optimization combination returns a valid mapping;
            /// compression/partitioning never invalidate results.
            #[test]
            fn prop_all_configs_return_valid_mappings((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let w = NodeWeights::uniform(g1.node_count());
                let closure = TransitiveClosure::new(&g2);
                for algorithm in [
                    Algorithm::MaxCard,
                    Algorithm::MaxCard1to1,
                    Algorithm::MaxSim,
                    Algorithm::MaxSim1to1,
                ] {
                    for partition in [false, true] {
                        for compress in [false, true] {
                            for extend in [false, true] {
                                for prefilter in [false, true] {
                                    let cfg = MatcherConfig {
                                        algorithm,
                                        partition_g1: partition,
                                        compress_g2: compress,
                                        greedy_extend: extend,
                                        prefilter,
                                        ..Default::default()
                                    };
                                    let out = match_graphs(&g1, &g2, &mat, &w, &cfg);
                                    prop_assert_eq!(
                                        verify_phom(
                                            &g1, &out.mapping, &mat, 0.5, &closure,
                                            algorithm.injective()
                                        ),
                                        Ok(()),
                                        "algorithm={:?} partition={} compress={} \
                                         extend={} prefilter={}",
                                        algorithm, partition, compress, extend, prefilter
                                    );
                                }
                            }
                        }
                    }
                }
            }

            /// Compression must not change achieved cardinality for p-hom
            /// (the Appendix-B equivalence claim).
            #[test]
            fn prop_compression_preserves_card_quality((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let w = NodeWeights::uniform(g1.node_count());
                let plain = match_graphs(&g1, &g2, &mat, &w, &MatcherConfig {
                    compress_g2: false, partition_g1: false, ..Default::default()
                });
                let comp = match_graphs(&g1, &g2, &mat, &w, &MatcherConfig {
                    compress_g2: true, partition_g1: false, ..Default::default()
                });
                // Both are approximations of the same optimum with the same
                // guarantee; on label-equality instances the compressed run
                // sees a coarser graph so minor differences are possible.
                // The equivalence claim is about *feasibility*: verifying
                // validity (above) plus non-collapse:
                prop_assert_eq!(plain.mapping.is_empty(), comp.mapping.is_empty());
            }

            /// Intra-query parallelism is an implementation detail:
            /// per-component fan-out must be result-identical to the
            /// sequential path across the whole optimization grid
            /// (partition × compress × algorithm).
            #[test]
            fn prop_intra_workers_identical_to_sequential((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let w = NodeWeights::uniform(g1.node_count());
                for algorithm in [
                    Algorithm::MaxCard,
                    Algorithm::MaxCard1to1,
                    Algorithm::MaxSim,
                    Algorithm::MaxSim1to1,
                ] {
                    for partition in [false, true] {
                        for compress in [false, true] {
                            let base = MatcherConfig {
                                algorithm,
                                partition_g1: partition,
                                compress_g2: compress,
                                ..Default::default()
                            };
                            let seq = match_graphs(&g1, &g2, &mat, &w, &base);
                            let par = match_graphs(&g1, &g2, &mat, &w, &MatcherConfig {
                                intra_workers: 4,
                                ..base
                            });
                            prop_assert_eq!(
                                seq.mapping.pairs().collect::<Vec<_>>(),
                                par.mapping.pairs().collect::<Vec<_>>(),
                                "algorithm={:?} partition={} compress={}",
                                algorithm, partition, compress
                            );
                            prop_assert_eq!(seq.qual_card, par.qual_card);
                            prop_assert_eq!(seq.qual_sim, par.qual_sim);
                            prop_assert!(!par.stats.timed_out, "no deadline set");
                        }
                    }
                }
            }

            /// Injecting precomputed artifacts must never change the
            /// result: prepared and unprepared runs agree pair-for-pair
            /// on every algorithm.
            #[test]
            fn prop_prepared_matches_unprepared((g1, g2) in arb_pair()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let w = NodeWeights::uniform(g1.node_count());
                let closure = TransitiveClosure::new(&g2);
                let compressed = Some(phom_graph::compress_closure(&g2))
                    .filter(|comp| compression_worthwhile(g2.node_count(), comp.node_count()));
                let prep = PreparedInputs {
                    closure: &closure,
                    bounded: None,
                    compressed: compressed.as_ref(),
                    budget: MatchBudget::unlimited(),
                };
                for algorithm in [
                    Algorithm::MaxCard,
                    Algorithm::MaxCard1to1,
                    Algorithm::MaxSim,
                    Algorithm::MaxSim1to1,
                ] {
                    let cfg = MatcherConfig { algorithm, ..Default::default() };
                    let plain = match_graphs(&g1, &g2, &mat, &w, &cfg);
                    let prepared = match_graphs_prepared(&g1, &g2, &mat, &w, &cfg, prep);
                    prop_assert_eq!(
                        plain.mapping.pairs().collect::<Vec<_>>(),
                        prepared.mapping.pairs().collect::<Vec<_>>(),
                        "algorithm={:?}", algorithm
                    );
                }
            }
        }
    }
}
