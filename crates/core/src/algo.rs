//! The approximation algorithms of §5:
//!
//! * [`comp_max_card`] — algorithm `compMaxCard` (Fig. 3) for CPH, with the
//!   `greedyMatch` / `trimMatching` procedures of Fig. 4;
//! * [`comp_max_card_1_1`] — `compMaxCard1-1` for CPH¹⁻¹ (adds injectivity
//!   pruning after every fixed pair);
//! * [`comp_max_sim`] / [`comp_max_sim_1_1`] — `compMaxSim` /
//!   `compMaxSim1-1` for SPH / SPH¹⁻¹ (Halldórsson weight grouping over the
//!   cardinality kernel).
//!
//! All four carry the `O(log²(n₁n₂)/(n₁n₂))` quality guarantee of
//! Theorem 5.1 / Proposition 5.2: `greedyMatch` simulates the `Ramsey`
//! procedure on the (never materialized) product graph, with
//! `trimMatching` playing the role of the neighborhood split.
//!
//! `greedyMatch` is implemented iteratively (explicit work stack): its
//! recursion depth is bounded by the number of candidate pairs, which can
//! reach tens of thousands on the paper's synthetic workloads.

use crate::budget::MatchBudget;
use crate::mapping::PHomMapping;
use crate::matchlist::{Entry, MatchList};
use phom_graph::{BitSet, DiGraph, NodeId, ReachabilityIndex, TransitiveClosure};
use phom_sim::{NodeWeights, SimMatrix};
use std::cmp::Ordering;

/// Pivot selection strategy for `greedyMatch` (Fig. 4 line 2 just says
/// "pick a node v of H"; §5's prose picks one with maximal `H[v].good`).
/// The strategy picks the pivot `v`; every strategy then gives `v` the
/// image `select_pivot` ranks first: highest `mat(v, u)`, then the
/// look-ahead of `trimMatching`, then the smallest id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Pick the node with the largest `good` list (paper's description).
    #[default]
    MaxGood,
    /// Pick the first active node (cheapest; ablation baseline).
    FirstActive,
    /// Pick the node with the *smallest* nonempty `good` list
    /// (fail-first heuristic; ablation variant).
    MinGood,
}

/// Configuration shared by the four algorithms.
#[derive(Debug, Clone, Copy)]
pub struct AlgoConfig {
    /// Similarity threshold `ξ`: `(v, u)` is a candidate iff
    /// `mat(v, u) ≥ ξ` and `mat(v, u) > 0` ([`phom_sim::candidate_floor`]).
    pub xi: f64,
    /// Pivot selection strategy.
    pub selection: Selection,
    /// Deadline budget: the `compMaxCard` outer loop and the `compMaxSim`
    /// weight-group loop stop at their next iteration boundary once it
    /// expires and return the best mapping found so far. Unlimited by
    /// default.
    pub budget: MatchBudget,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        Self {
            xi: 0.5,
            selection: Selection::MaxGood,
            budget: MatchBudget::unlimited(),
        }
    }
}

/// Immutable context threaded through `greedyMatch`.
struct Ctx<'a> {
    /// `H1[v].prev` as bitsets over `V1`.
    prev: Vec<BitSet>,
    /// `H1[v].post` as bitsets over `V1`.
    post: Vec<BitSet>,
    /// `H2`: nonempty-path reachability over `G2` (any backend).
    closure: &'a dyn ReachabilityIndex,
    mat: &'a SimMatrix,
    injective: bool,
    selection: Selection,
    budget: MatchBudget,
}

impl<'a> Ctx<'a> {
    fn new<L>(
        g1: &DiGraph<L>,
        closure: &'a dyn ReachabilityIndex,
        mat: &'a SimMatrix,
        injective: bool,
        cfg: &AlgoConfig,
    ) -> Self {
        let n1 = g1.node_count();
        let mut prev = Vec::with_capacity(n1);
        let mut post = Vec::with_capacity(n1);
        for v in g1.nodes() {
            let mut p = BitSet::new(n1);
            for &w in g1.prev(v) {
                p.insert(w.index());
            }
            prev.push(p);
            let mut s = BitSet::new(n1);
            for &w in g1.post(v) {
                s.insert(w.index());
            }
            post.push(s);
        }
        Self {
            prev,
            post,
            closure,
            mat,
            injective,
            selection: cfg.selection,
            budget: cfg.budget,
        }
    }
}

type Pairs = Vec<(NodeId, NodeId)>;

/// Picks the pivot entry index per the configured strategy, and the
/// candidate `u` with the highest `mat(v, u)`. Candidates tied on the top
/// score are ranked by what `trim_matching` would leave behind them
/// ([`look_ahead`]): first the most of `v`'s parents and children left
/// with a candidate, then the most of their candidates kept, then the
/// smallest id. Under label similarity every equal label scores alike,
/// so without the look-ahead the answer would follow node numbering.
/// Fig. 4 line 2 leaves the choice open, and the `Ramsey` procedure
/// `greedyMatch` simulates may pivot on any vertex, so every rank keeps
/// the Theorem 5.1 guarantee. The look-ahead runs only on ties.
fn select_pivot(ctx: &Ctx<'_>, h: &MatchList) -> Option<(usize, NodeId)> {
    let mut pick: Option<usize> = None;
    for (i, e) in h.entries.iter().enumerate() {
        if e.good.is_empty() {
            continue;
        }
        match ctx.selection {
            Selection::FirstActive => {
                pick = Some(i);
                break;
            }
            Selection::MaxGood => {
                if pick.is_none_or(|p| e.good.len() > h.entries[p].good.len()) {
                    pick = Some(i);
                }
            }
            Selection::MinGood => {
                if pick.is_none_or(|p| e.good.len() < h.entries[p].good.len()) {
                    pick = Some(i);
                }
            }
        }
    }
    let i = pick?;
    let e = &h.entries[i];
    let (&first, rest) = e
        .good
        .split_first()
        // phom-lint: allow(unwrap, "the selection loop skips entries with empty good sets, so the picked entry has a candidate")
        .expect("good is nonempty");
    let (mut u, mut top) = (first, ctx.mat.score(e.v, first));
    // `u`'s look-ahead, once a tie has needed it.
    let mut u_look: Option<(usize, usize)> = None;
    for &cand in rest {
        let s = ctx.mat.score(e.v, cand);
        match s.total_cmp(&top) {
            Ordering::Less => {}
            Ordering::Greater => (u, top, u_look) = (cand, s, None),
            Ordering::Equal => {
                let held = *u_look.get_or_insert_with(|| look_ahead(ctx, h, i, u));
                let look = look_ahead(ctx, h, i, cand);
                if look.cmp(&held).then(u.cmp(&cand)).is_gt() {
                    (u, u_look) = (cand, Some(look));
                }
            }
        }
    }
    Some((i, u))
}

/// What `trim_matching` would leave of the pivot's neighborhood if entry
/// `pivot_idx` of `h` mapped to `u`: how many of the pivot's parents and
/// children keep at least one candidate, and how many candidates they
/// keep in all.
fn look_ahead(ctx: &Ctx<'_>, h: &MatchList, pivot_idx: usize, u: NodeId) -> (usize, usize) {
    let v = h.entries[pivot_idx].v;
    let prev_v = &ctx.prev[v.index()];
    let post_v = &ctx.post[v.index()];
    let (mut live, mut kept) = (0, 0);
    for (i, e) in h.entries.iter().enumerate() {
        let is_parent = prev_v.contains(e.v.index());
        let is_child = post_v.contains(e.v.index());
        if i == pivot_idx || !(is_parent || is_child) {
            continue;
        }
        let k = e
            .good
            .iter()
            .filter(|&&cand| compatible(ctx, is_parent, is_child, u, cand))
            .count();
        live += usize::from(k > 0);
        kept += k;
    }
    (live, kept)
}

/// Whether `cand` may still match a pattern node once the pivot maps to
/// `u`: a parent's candidate must reach `u`, a child's must be reached
/// from `u`, and under injectivity no candidate may be `u` itself. The
/// one test of `trim_matching` and [`look_ahead`].
fn compatible(ctx: &Ctx<'_>, is_parent: bool, is_child: bool, u: NodeId, cand: NodeId) -> bool {
    (!ctx.injective || cand != u)
        && (!is_parent || ctx.closure.reaches(cand, u))
        && (!is_child || ctx.closure.reaches(u, cand))
}

/// `trimMatching` (Fig. 4): assuming `(v, u)` is a match, moves candidates
/// that contradict it from `good` to `minus` in every other entry.
/// Extends the paper's procedure with the injectivity pruning of
/// `compMaxCard1-1` when `ctx.injective` holds.
fn trim_matching(ctx: &Ctx<'_>, h: &mut MatchList, pivot_idx: usize, v: NodeId, u: NodeId) {
    let prev_v = &ctx.prev[v.index()];
    let post_v = &ctx.post[v.index()];
    for (i, e) in h.entries.iter_mut().enumerate() {
        if i == pivot_idx {
            continue;
        }
        let is_parent = prev_v.contains(e.v.index());
        let is_child = post_v.contains(e.v.index());
        if !is_parent && !is_child && !ctx.injective {
            continue;
        }
        let minus = &mut e.minus;
        e.good.retain(|&cand| {
            let ok = compatible(ctx, is_parent, is_child, u, cand);
            if !ok {
                minus.push(cand);
            }
            ok
        });
    }
}

/// `greedyMatch` (Fig. 4), iterative. Returns the mapping `σ` and the
/// nonempty set `I` of pairwise contradictory pairs.
fn greedy_match(ctx: &Ctx<'_>, h: MatchList) -> (Pairs, Pairs) {
    enum State {
        Enter(MatchList),
        AfterPlus {
            v: NodeId,
            u: NodeId,
            h_minus: MatchList,
        },
        Combine {
            v: NodeId,
            u: NodeId,
        },
    }

    let mut work = vec![State::Enter(h)];
    let mut results: Vec<(Pairs, Pairs)> = Vec::new();

    while let Some(state) = work.pop() {
        match state {
            State::Enter(mut h) => {
                let Some((pivot_idx, u)) = select_pivot(ctx, &h) else {
                    // H empty (or only empty-good entries): (∅, ∅).
                    results.push((Vec::new(), Vec::new()));
                    continue;
                };
                let v = h.entries[pivot_idx].v;
                // Line 3: v has picked u; its other candidates seed H⁻.
                let pivot_minus: Vec<NodeId> = {
                    let e = &mut h.entries[pivot_idx];
                    let mut m = std::mem::take(&mut e.good);
                    m.retain(|&c| c != u);
                    m
                };
                // Line 4: prune contradictions of (v, u).
                trim_matching(ctx, &mut h, pivot_idx, v, u);

                // Lines 5–9: partition into H⁺ (still-good) and H⁻ (pruned).
                let mut h_plus = MatchList::default();
                let mut h_minus = MatchList::default();
                for (i, e) in h.entries.into_iter().enumerate() {
                    if i == pivot_idx {
                        if !pivot_minus.is_empty() {
                            h_minus.entries.push(Entry {
                                v: e.v,
                                good: pivot_minus.clone(),
                                minus: Vec::new(),
                            });
                        }
                        continue;
                    }
                    if !e.good.is_empty() {
                        h_plus.entries.push(Entry {
                            v: e.v,
                            good: e.good,
                            minus: Vec::new(),
                        });
                    }
                    if !e.minus.is_empty() {
                        h_minus.entries.push(Entry {
                            v: e.v,
                            good: e.minus,
                            minus: Vec::new(),
                        });
                    }
                }

                work.push(State::AfterPlus { v, u, h_minus });
                work.push(State::Enter(h_plus));
            }
            State::AfterPlus { v, u, h_minus } => {
                work.push(State::Combine { v, u });
                work.push(State::Enter(h_minus));
            }
            State::Combine { v, u } => {
                // phom-lint: allow(unwrap, "explicit-stack recursion: Combine is pushed under the H+ and H- Enter states, each of which pushes one result first")
                let (sigma2, i2) = results.pop().expect("H- result");
                // phom-lint: allow(unwrap, "explicit-stack recursion: Combine is pushed under the H+ and H- Enter states, each of which pushes one result first")
                let (mut sigma1, i1) = results.pop().expect("H+ result");

                // Line 12: σ := max(σ1 ∪ {(v,u)}, σ2).
                let sigma = if sigma1.len() + 1 >= sigma2.len() {
                    sigma1.push((v, u));
                    sigma1
                } else {
                    sigma2
                };
                // I := max(I1, I2 ∪ {(v,u)}).
                let conflicts = if i1.len() > i2.len() + 1 {
                    i1
                } else {
                    let mut i2 = i2;
                    i2.push((v, u));
                    i2
                };
                results.push((sigma, conflicts));
            }
        }
    }

    // phom-lint: allow(unwrap, "the work loop leaves exactly the root's result on the stack")
    let out = results.pop().expect("root result");
    debug_assert!(results.is_empty());
    out
}

/// Static pruning applied before the kernel runs: a pattern node with a
/// self-loop `(v, v)` can only map to a data node on a cycle (the edge
/// needs a nonempty path `u ⇝ u`). The paper's product-graph construction
/// encodes this as its node condition (b); `trimMatching` alone cannot,
/// because it never prunes the pivot's own candidates.
fn prune_self_loop_candidates<L>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    h: &mut MatchList,
) {
    for e in &mut h.entries {
        if g1.has_self_loop(e.v) {
            e.good.retain(|&u| closure.reaches(u, u));
        }
    }
    h.entries.retain(|e| !e.good.is_empty());
}

/// Runs the `compMaxCard` outer loop (Fig. 3, lines 8–12) on an explicit
/// matching list. Shared by the four public algorithms.
fn run_kernel(ctx: &Ctx<'_>, mut h: MatchList) -> Pairs {
    let mut best: Pairs = Vec::new();
    while h.active_node_count() > best.len() {
        // Deadline: each outer iteration is one full greedyMatch run, and
        // `best` only ever improves, so stopping here returns best-so-far.
        if ctx.budget.expired() {
            break;
        }
        let (sigma, conflicts) = greedy_match(ctx, h.clone());
        if sigma.len() > best.len() {
            best = sigma;
        }
        if conflicts.is_empty() {
            break; // h had no active nodes; cannot make progress
        }
        h.remove_pairs(&conflicts);
    }
    best
}

/// `compMaxCard` (Fig. 3): approximates the maximum-cardinality p-hom
/// mapping from a subgraph of `g1` to `g2` (problem CPH).
///
/// ```
/// use phom_core::{comp_max_card, AlgoConfig};
/// use phom_graph::graph_from_labels;
/// use phom_sim::SimMatrix;
///
/// // Pattern edge (books -> school) becomes a 2-hop path in the data.
/// let g1 = graph_from_labels(&["books", "school"], &[("books", "school")]);
/// let g2 = graph_from_labels(
///     &["books", "categories", "school"],
///     &[("books", "categories"), ("categories", "school")],
/// );
/// let mat = SimMatrix::label_equality(&g1, &g2);
/// let sigma = comp_max_card(&g1, &g2, &mat, &AlgoConfig::default());
/// assert_eq!(sigma.qual_card(), 1.0); // every pattern node mapped
/// ```
pub fn comp_max_card<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    cfg: &AlgoConfig,
) -> PHomMapping {
    let closure = TransitiveClosure::new(g2);
    comp_max_card_with(g1, &closure, mat, cfg, false)
}

/// `compMaxCard1-1`: the CPH¹⁻¹ variant (injective mappings).
pub fn comp_max_card_1_1<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    cfg: &AlgoConfig,
) -> PHomMapping {
    let closure = TransitiveClosure::new(g2);
    comp_max_card_with(g1, &closure, mat, cfg, true)
}

/// `compMaxCard` with a precomputed reachability index over `G2` (lets
/// callers amortize the closure across the 10 versions matched in Exp-1,
/// lets the optimizer substitute the compressed closure of Appendix B,
/// and accepts any [`ReachabilityIndex`] backend).
pub fn comp_max_card_with<L>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    cfg: &AlgoConfig,
    injective: bool,
) -> PHomMapping {
    let ctx = Ctx::new(g1, closure, mat, injective, cfg);
    let mut h = MatchList::initial(g1.node_count(), mat, cfg.xi);
    prune_self_loop_candidates(g1, closure, &mut h);
    let pairs = run_kernel(&ctx, h);
    PHomMapping::from_pairs(g1.node_count(), pairs)
}

/// `compMaxSim` (§5): approximates the maximum-overall-similarity p-hom
/// mapping (problem SPH) by Halldórsson weight grouping: drop candidate
/// pairs lighter than `W/(n1·n2)`, split the rest into `⌈log₂ P⌉`
/// geometric weight groups, run the cardinality kernel per group, and keep
/// the mapping with the best `qualSim`.
pub fn comp_max_sim<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &AlgoConfig,
) -> PHomMapping {
    let closure = TransitiveClosure::new(g2);
    comp_max_sim_with(g1, &closure, mat, weights, cfg, false)
}

/// `compMaxSim1-1`: the SPH¹⁻¹ variant.
pub fn comp_max_sim_1_1<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &AlgoConfig,
) -> PHomMapping {
    let closure = TransitiveClosure::new(g2);
    comp_max_sim_with(g1, &closure, mat, weights, cfg, true)
}

/// `compMaxSim` with a precomputed reachability index.
pub fn comp_max_sim_with<L>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &AlgoConfig,
    injective: bool,
) -> PHomMapping {
    assert_eq!(
        weights.len(),
        g1.node_count(),
        "one weight per pattern node"
    );
    let n1 = g1.node_count();

    // Candidate pairs with their product-graph weights w(v)·mat(v, u).
    let mut pairs: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for v in g1.nodes() {
        for u in mat.candidates(v, cfg.xi) {
            pairs.push((v, u, weights.get(v) * mat.score(v, u)));
        }
    }
    if pairs.is_empty() {
        return PHomMapping::empty(n1);
    }
    let w_max = pairs.iter().map(|p| p.2).fold(0.0f64, f64::max);
    let p_count = pairs.len();
    let ctx = Ctx::new(g1, closure, mat, injective, cfg);

    if w_max == 0.0 {
        // Degenerate: all pair weights zero (e.g. all pattern weights 0).
        // Any mapping has qualSim 0; fall back to the cardinality kernel.
        let group: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(v, u, _)| (v, u)).collect();
        let mut h = MatchList::from_pairs(&group);
        prune_self_loop_candidates(g1, closure, &mut h);
        let found = run_kernel(&ctx, h);
        return PHomMapping::from_pairs(n1, found);
    }

    let cutoff = w_max / p_count as f64;
    let group_count = (p_count as f64).log2().ceil().max(1.0) as i32;

    let mut best = PHomMapping::empty(n1);
    let mut best_sim = -1.0f64;
    for i in 1..=group_count {
        // Deadline: each weight group is independent; `best` is the best
        // of the groups run so far.
        if cfg.budget.expired() {
            break;
        }
        let lo = w_max / 2f64.powi(i);
        let hi = w_max / 2f64.powi(i - 1);
        let group: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .filter(|&&(_, _, w)| {
                let in_group = if i == 1 { w >= lo } else { w >= lo && w < hi };
                in_group && w >= cutoff
            })
            .map(|&(v, u, _)| (v, u))
            .collect();
        if group.is_empty() {
            continue;
        }
        let mut h = MatchList::from_pairs(&group);
        prune_self_loop_candidates(g1, closure, &mut h);
        let found = run_kernel(&ctx, h);
        let candidate = PHomMapping::from_pairs(n1, found);
        let sim = candidate.qual_sim(weights, mat);
        if sim > best_sim {
            best_sim = sim;
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify_phom;
    use phom_graph::graph_from_labels;
    use phom_sim::{matrix_from_label_fn, SimMatrixBuilder};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Fig. 1's pattern Gp (online store).
    fn fig1_gp() -> DiGraph<String> {
        graph_from_labels(
            &["A", "books", "audio", "textbooks", "abooks", "albums"],
            &[
                ("A", "books"),
                ("A", "audio"),
                ("books", "textbooks"),
                ("books", "abooks"),
                ("audio", "abooks"),
                ("audio", "albums"),
            ],
        )
    }

    /// Fig. 1's data graph G.
    fn fig1_g() -> DiGraph<String> {
        graph_from_labels(
            &[
                "B",
                "books",
                "sports",
                "digital",
                "categories",
                "booksets",
                "school",
                "arts",
                "audiobooks",
                "DVDs",
                "CDs",
                "features",
                "genres",
                "albums",
            ],
            &[
                ("B", "books"),
                ("B", "sports"),
                ("B", "digital"),
                ("books", "categories"),
                ("books", "booksets"),
                ("categories", "school"),
                ("categories", "arts"),
                ("categories", "audiobooks"),
                ("digital", "DVDs"),
                ("digital", "CDs"),
                ("CDs", "features"),
                ("CDs", "genres"),
                ("features", "audiobooks"),
                ("genres", "albums"),
            ],
        )
    }

    /// Example 3.1's `mate()` similarity.
    fn fig1_mate() -> SimMatrix {
        let g1 = fig1_gp();
        let g2 = fig1_g();
        matrix_from_label_fn(&g1, &g2, |a, b| match (a, b) {
            ("A", "B") => 0.7,
            ("audio", "digital") => 0.7,
            ("books", "books") => 1.0,
            ("abooks", "audiobooks") => 0.8,
            ("books", "booksets") => 0.6,
            ("textbooks", "school") => 0.6,
            ("albums", "albums") => 0.85,
            _ => 0.0,
        })
    }

    #[test]
    fn example_3_1_full_phom_mapping_found() {
        // Gp ≼(e,p) G w.r.t. mate() and ξ ≤ 0.6; the approximation should
        // recover the full mapping on this small instance.
        let g1 = fig1_gp();
        let g2 = fig1_g();
        let mat = fig1_mate();
        let cfg = AlgoConfig {
            xi: 0.6,
            ..Default::default()
        };
        let m = comp_max_card(&g1, &g2, &mat, &cfg);
        let closure = TransitiveClosure::new(&g2);
        assert_eq!(verify_phom(&g1, &m, &mat, 0.6, &closure, false), Ok(()));
        assert_eq!(m.len(), 6, "all of Gp matches: {m:?}");
        assert!((m.qual_card() - 1.0).abs() < 1e-12);
        // The mapping of Example 1.1.
        assert_eq!(m.get(n(0)), Some(n(0)), "A -> B");
        assert_eq!(m.get(n(1)), Some(n(1)), "books -> books");
        assert_eq!(m.get(n(2)), Some(n(3)), "audio -> digital");
        assert_eq!(m.get(n(3)), Some(n(6)), "textbooks -> school");
        assert_eq!(m.get(n(4)), Some(n(8)), "abooks -> audiobooks");
        assert_eq!(m.get(n(5)), Some(n(13)), "albums -> albums");
    }

    #[test]
    fn example_3_2_one_one_variant_also_full() {
        // The Example 3.1 mapping is already injective, so Gp ≼1-1 G.
        let g1 = fig1_gp();
        let g2 = fig1_g();
        let mat = fig1_mate();
        let cfg = AlgoConfig {
            xi: 0.6,
            ..Default::default()
        };
        let m = comp_max_card_1_1(&g1, &g2, &mat, &cfg);
        let closure = TransitiveClosure::new(&g2);
        assert_eq!(verify_phom(&g1, &m, &mat, 0.6, &closure, true), Ok(()));
        assert_eq!(m.len(), 6);
        assert!(m.is_injective());
    }

    #[test]
    fn example_5_1_subgraph_trace() {
        // G1' induced by {books, textbooks, abooks}; G2' by
        // {books, categories, booksets, school, audiobooks}; ξ = 0.5.
        let g1 = graph_from_labels(
            &["books", "textbooks", "abooks"],
            &[("books", "textbooks"), ("books", "abooks")],
        );
        let g2 = graph_from_labels(
            &["books", "categories", "booksets", "school", "audiobooks"],
            &[
                ("books", "categories"),
                ("books", "booksets"),
                ("categories", "school"),
                ("categories", "audiobooks"),
            ],
        );
        let mat = matrix_from_label_fn(&g1, &g2, |a, b| match (a, b) {
            ("books", "books") => 1.0,
            ("books", "booksets") => 0.6,
            ("textbooks", "school") => 0.6,
            ("abooks", "audiobooks") => 0.8,
            _ => 0.0,
        });
        let cfg = AlgoConfig {
            xi: 0.5,
            ..Default::default()
        };
        let m = comp_max_card(&g1, &g2, &mat, &cfg);
        // The paper's trace ends with {(books, books), (textbooks, school),
        // (abooks, audiobooks)}.
        assert_eq!(m.get(n(0)), Some(n(0)));
        assert_eq!(m.get(n(1)), Some(n(3)));
        assert_eq!(m.get(n(2)), Some(n(4)));
    }

    /// Fig. 2's G1/G2 pair: two A-parents sharing structure.
    fn fig2_g1_g2() -> (DiGraph<String>, DiGraph<String>) {
        // G1: A1 -> B, A2 -> B, B -> C (two distinct A nodes).
        let mut g1: DiGraph<String> = DiGraph::new();
        let a1 = g1.add_node("A".into());
        let a2 = g1.add_node("A".into());
        let b = g1.add_node("B".into());
        let c = g1.add_node("C".into());
        g1.add_edge(a1, b);
        g1.add_edge(a2, b);
        g1.add_edge(b, c);
        // G2: A -> B, B -> C1, B -> C2 (one A, two C nodes).
        let mut g2: DiGraph<String> = DiGraph::new();
        let a = g2.add_node("A".into());
        let bb = g2.add_node("B".into());
        let c1 = g2.add_node("C".into());
        let c2 = g2.add_node("C".into());
        g2.add_edge(a, bb);
        g2.add_edge(bb, c1);
        g2.add_edge(bb, c2);
        (g1, g2)
    }

    #[test]
    fn fig2_phom_but_not_one_one() {
        // G1 ≼(e,p) G2 (both A nodes map to the single A), but
        // G1 !≼1-1 G2 (Example 3.2).
        let (g1, g2) = fig2_g1_g2();
        let mat = SimMatrix::label_equality(&g1, &g2);
        let cfg = AlgoConfig {
            xi: 0.5,
            ..Default::default()
        };

        let m = comp_max_card(&g1, &g2, &mat, &cfg);
        assert_eq!(m.len(), 4, "full p-hom mapping exists");
        assert_eq!(m.get(n(0)), Some(n(0)));
        assert_eq!(m.get(n(1)), Some(n(0)), "both A nodes share the A image");

        let m11 = comp_max_card_1_1(&g1, &g2, &mat, &cfg);
        assert!(m11.is_injective());
        assert!(m11.len() < 4, "no injective full mapping exists: {m11:?}");
        assert_eq!(m11.len(), 3, "drop one A, map the rest");
    }

    #[test]
    fn fig2_g3_g4_no_full_mapping() {
        // Fig. 2: G3 has A -> D and B -> D; G4 has A -> D1, B -> D2 with
        // *distinct* D nodes unreachable from the other parent. A p-hom
        // mapping must send D to one D node, breaking one edge.
        let mut g3: DiGraph<String> = DiGraph::new();
        let a = g3.add_node("A".into());
        let b = g3.add_node("B".into());
        let d = g3.add_node("D".into());
        g3.add_edge(a, d);
        g3.add_edge(b, d);

        let mut g4: DiGraph<String> = DiGraph::new();
        let a2 = g4.add_node("A".into());
        let b2 = g4.add_node("B".into());
        let d1 = g4.add_node("D".into());
        let d2 = g4.add_node("D".into());
        g4.add_edge(a2, d1);
        g4.add_edge(b2, d2);

        let mat = SimMatrix::label_equality(&g3, &g4);
        let cfg = AlgoConfig {
            xi: 0.5,
            ..Default::default()
        };
        let m = comp_max_card(&g3, &g4, &mat, &cfg);
        let closure = TransitiveClosure::new(&g4);
        assert_eq!(verify_phom(&g3, &m, &mat, 0.5, &closure, false), Ok(()));
        assert_eq!(m.len(), 2, "G3 !≼(e,p) G4: best subgraph has 2 nodes");
    }

    #[test]
    fn comp_max_sim_prefers_heavy_nodes() {
        // Example 3.3 setting: under qualSim with w(v2) = 6, mapping
        // {A, v2} (weight 7·1.0) beats mapping {A, v1, D, E} (3 + 0.6).
        // G5: A -> v1, A -> v2, v1 -> D, v1 -> E (shape approximated; the
        // key conflict is v1 vs v2 competing for the single B in G6).
        let mut g5: DiGraph<String> = DiGraph::new();
        let a = g5.add_node("A".into());
        let v1 = g5.add_node("B".into());
        let v2 = g5.add_node("B".into());
        let d = g5.add_node("D".into());
        let e = g5.add_node("E".into());
        g5.add_edge(a, v1);
        g5.add_edge(a, v2);
        g5.add_edge(v1, d);
        g5.add_edge(v1, e);

        let mut g6: DiGraph<String> = DiGraph::new();
        let a6 = g6.add_node("A".into());
        let b6 = g6.add_node("B".into());
        let d6 = g6.add_node("D".into());
        let e6 = g6.add_node("E".into());
        g6.add_edge(a6, b6);
        g6.add_edge(b6, d6);
        g6.add_edge(b6, e6);

        let mat = SimMatrixBuilder::new()
            .pair(n(0), n(0), 1.0) // A ~ A
            .pair(n(1), n(1), 0.6) // v1 ~ B (weak)
            .pair(n(2), n(1), 1.0) // v2 ~ B (strong)
            .pair(n(3), n(2), 1.0)
            .pair(n(4), n(3), 1.0)
            .build(5, 4);
        let weights = NodeWeights::from_vec(vec![1.0, 1.0, 6.0, 1.0, 1.0]);
        let cfg = AlgoConfig {
            xi: 0.6,
            ..Default::default()
        };

        // 1-1: v1 and v2 cannot share B.
        let m = comp_max_sim_1_1(&g5, &g6, &mat, &weights, &cfg);
        assert!(m.is_injective());
        let sim = m.qual_sim(&weights, &mat);
        assert!(
            m.get(n(2)) == Some(n(1)),
            "heavy v2 should claim B (qualSim {sim}): {m:?}"
        );
        // The weight-6 pair sits alone in Halldórsson group 1, so the
        // grouped algorithm is guaranteed at least {v2 -> B} = 0.6 —
        // already better than the cardinality-style σc (0.36).
        assert!(sim >= 0.6 - 1e-9, "at least group-1 quality: {sim}");
        let m_card = comp_max_card_1_1(&g5, &g6, &mat, &cfg);
        let sim_card = m_card.qual_sim(&weights, &mat);
        assert!(
            sim >= sim_card - 1e-9,
            "compMaxSim ({sim}) must not lose to compMaxCard ({sim_card}) on qualSim"
        );
    }

    #[test]
    fn empty_pattern_yields_empty_mapping() {
        let g1: DiGraph<String> = DiGraph::new();
        let g2 = graph_from_labels(&["a"], &[]);
        let mat = SimMatrix::new(0, 1);
        let cfg = AlgoConfig::default();
        assert!(comp_max_card(&g1, &g2, &mat, &cfg).is_empty());
        let w = NodeWeights::uniform(0);
        assert!(comp_max_sim(&g1, &g2, &mat, &w, &cfg).is_empty());
    }

    #[test]
    fn no_candidates_yields_empty_mapping() {
        let g1 = graph_from_labels(&["a"], &[]);
        let g2 = graph_from_labels(&["b"], &[]);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let cfg = AlgoConfig::default();
        assert!(comp_max_card(&g1, &g2, &mat, &cfg).is_empty());
    }

    #[test]
    fn selection_strategies_all_return_valid_mappings() {
        let g1 = fig1_gp();
        let g2 = fig1_g();
        let mat = fig1_mate();
        let closure = TransitiveClosure::new(&g2);
        for sel in [
            Selection::MaxGood,
            Selection::FirstActive,
            Selection::MinGood,
        ] {
            let cfg = AlgoConfig {
                xi: 0.6,
                selection: sel,
                ..Default::default()
            };
            let m = comp_max_card(&g1, &g2, &mat, &cfg);
            assert_eq!(
                verify_phom(&g1, &m, &mat, 0.6, &closure, false),
                Ok(()),
                "selection {sel:?}"
            );
            assert!(m.len() >= 3, "selection {sel:?} found {}", m.len());
        }
    }

    #[test]
    fn self_loop_pattern_requires_cyclic_image() {
        // G1: a with self-loop. G2: x (no loop), y <-> z cycle.
        let mut g1: DiGraph<String> = DiGraph::new();
        let a = g1.add_node("n".into());
        g1.add_edge(a, a);
        let mut g2: DiGraph<String> = DiGraph::new();
        let _x = g2.add_node("n".into());
        let y = g2.add_node("n".into());
        let z = g2.add_node("n".into());
        g2.add_edge(y, z);
        g2.add_edge(z, y);
        let mat = SimMatrix::label_equality(&g1, &g2);
        let cfg = AlgoConfig {
            xi: 0.5,
            ..Default::default()
        };
        let m = comp_max_card(&g1, &g2, &mat, &cfg);
        let closure = TransitiveClosure::new(&g2);
        assert_eq!(verify_phom(&g1, &m, &mat, 0.5, &closure, false), Ok(()));
        assert_eq!(m.len(), 1);
        assert!(
            m.get(n(0)) == Some(n(1)) || m.get(n(0)) == Some(n(2)),
            "self-loop must land on the cycle, got {m:?}"
        );
    }

    #[test]
    fn tied_images_rank_by_look_ahead_then_id() {
        // Pattern a -> b, a -> c. Data: A0 -> B3; A1 -> B3, B4; A2 and
        // its twin A6 -> B3, C5.
        let g1 = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("a", "c")]);
        let mut g2: DiGraph<String> = DiGraph::new();
        for label in ["A", "A", "A", "B", "B", "C", "A"] {
            g2.add_node(label.into());
        }
        for (x, y) in [(0, 3), (1, 3), (1, 4), (2, 3), (2, 5), (6, 3), (6, 5)] {
            g2.add_edge(n(x), n(y));
        }
        let closure = TransitiveClosure::new(&g2);
        let cfg = AlgoConfig::default();
        // The image `a` gets when it scores `a_scores` against A nodes.
        let image = |a_scores: &[(u32, f64)]| {
            let mat = SimMatrix::from_fn(3, 7, |v, u| match v.index() {
                0 => a_scores
                    .iter()
                    .find(|&&(x, _)| n(x) == u)
                    .map_or(0.0, |&(_, s)| s),
                1 if matches!(u.index(), 3 | 4) => 1.0,
                2 if u.index() == 5 => 1.0,
                _ => 0.0,
            });
            let ctx = Ctx::new(&g1, &closure, &mat, false, &cfg);
            let h = MatchList::initial(3, &mat, cfg.xi);
            let (i, u) = select_pivot(&ctx, &h).expect("a pivot");
            assert_eq!(h.entries[i].v, n(0), "`a` has the most candidates");
            u
        };
        // A2 and A6 leave both children a candidate; the smaller id wins.
        assert_eq!(image(&[(0, 1.0), (1, 1.0), (2, 1.0), (6, 1.0)]), n(2));
        // Without them, A1 keeps two candidates of `b` where A0 keeps one.
        assert_eq!(image(&[(0, 1.0), (1, 1.0)]), n(1));
        // A higher score outranks any look-ahead.
        assert_eq!(image(&[(0, 1.0), (1, 0.9), (2, 0.9), (6, 0.9)]), n(0));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        struct Instance {
            g1: DiGraph<u8>,
            g2: DiGraph<u8>,
        }

        fn arb_instance() -> impl Strategy<Value = Instance> {
            (
                1usize..7,
                proptest::collection::vec((0usize..7, 0usize..7), 0..12),
                1usize..9,
                proptest::collection::vec((0usize..9, 0usize..9), 0..18),
                proptest::collection::vec(0u8..4, 16),
            )
                .prop_map(|(n1, e1, n2, e2, labels)| {
                    let mut g1 = DiGraph::with_capacity(n1);
                    for i in 0..n1 {
                        g1.add_node(labels[i % labels.len()]);
                    }
                    for (a, b) in e1 {
                        g1.add_edge(NodeId((a % n1) as u32), NodeId((b % n1) as u32));
                    }
                    let mut g2 = DiGraph::with_capacity(n2);
                    for i in 0..n2 {
                        g2.add_node(labels[(i + 5) % labels.len()]);
                    }
                    for (a, b) in e2 {
                        g2.add_edge(NodeId((a % n2) as u32), NodeId((b % n2) as u32));
                    }
                    Instance { g1, g2 }
                })
        }

        proptest! {
            #[test]
            fn prop_comp_max_card_returns_valid_phom(inst in arb_instance()) {
                let mat = SimMatrix::label_equality(&inst.g1, &inst.g2);
                let cfg = AlgoConfig { xi: 0.5, ..Default::default() };
                let closure = TransitiveClosure::new(&inst.g2);
                let m = comp_max_card(&inst.g1, &inst.g2, &mat, &cfg);
                prop_assert_eq!(
                    verify_phom(&inst.g1, &m, &mat, 0.5, &closure, false),
                    Ok(())
                );
            }

            #[test]
            fn prop_comp_max_card_1_1_is_injective_and_valid(inst in arb_instance()) {
                let mat = SimMatrix::label_equality(&inst.g1, &inst.g2);
                let cfg = AlgoConfig { xi: 0.5, ..Default::default() };
                let closure = TransitiveClosure::new(&inst.g2);
                let m = comp_max_card_1_1(&inst.g1, &inst.g2, &mat, &cfg);
                prop_assert_eq!(
                    verify_phom(&inst.g1, &m, &mat, 0.5, &closure, true),
                    Ok(())
                );
                prop_assert!(m.is_injective());
            }

            #[test]
            fn prop_one_one_never_beats_unrestricted(inst in arb_instance()) {
                let mat = SimMatrix::label_equality(&inst.g1, &inst.g2);
                let cfg = AlgoConfig { xi: 0.5, ..Default::default() };
                let m = comp_max_card(&inst.g1, &inst.g2, &mat, &cfg);
                let m11 = comp_max_card_1_1(&inst.g1, &inst.g2, &mat, &cfg);
                // Not a theorem for *approximations* in general, but with
                // identical deterministic pivoting the 1-1 run only ever
                // prunes more; allow equality-or-less with slack 0.
                prop_assert!(m11.len() <= m.len() + 1,
                    "1-1 found {} vs {}", m11.len(), m.len());
            }

            #[test]
            fn prop_comp_max_sim_valid_and_injective_variant(inst in arb_instance()) {
                let mat = SimMatrix::label_equality(&inst.g1, &inst.g2);
                let w = NodeWeights::by_degree(&inst.g1);
                let cfg = AlgoConfig { xi: 0.5, ..Default::default() };
                let closure = TransitiveClosure::new(&inst.g2);
                let m = comp_max_sim(&inst.g1, &inst.g2, &mat, &w, &cfg);
                prop_assert_eq!(
                    verify_phom(&inst.g1, &m, &mat, 0.5, &closure, false),
                    Ok(())
                );
                let m11 = comp_max_sim_1_1(&inst.g1, &inst.g2, &mat, &w, &cfg);
                prop_assert_eq!(
                    verify_phom(&inst.g1, &m11, &mat, 0.5, &closure, true),
                    Ok(())
                );
            }

            #[test]
            fn prop_identity_instance_fully_matched_by_card(
                n in 1usize..7,
                edges in proptest::collection::vec((0usize..7, 0usize..7), 0..14),
            ) {
                // G1 == G2 with unique labels: σ = identity is the unique
                // full mapping and greedyMatch must find it (every good
                // list is a singleton, so no wrong branch exists).
                let mut g = DiGraph::with_capacity(n);
                for i in 0..n {
                    g.add_node(i as u32);
                }
                for (a, b) in edges {
                    g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                }
                let mat = SimMatrix::label_equality(&g, &g);
                let cfg = AlgoConfig { xi: 0.5, ..Default::default() };
                let m = comp_max_card(&g, &g, &mat, &cfg);
                prop_assert_eq!(m.len(), n, "identity mapping: {:?}", m);
                for v in g.nodes() {
                    prop_assert_eq!(m.get(v), Some(v));
                }
            }
        }
    }
}
