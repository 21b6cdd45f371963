//! Multi-restart randomized matching: best-of-`r` runs of the paper's
//! greedy kernel under seeded tie-break perturbation.
//!
//! `greedyMatch` (Fig. 4, line 2) underdetermines which node `v` and
//! candidate `u` to pick; §5's prose fixes one heuristic. Different picks
//! explore different branches of the conflict recursion and can return
//! different-quality mappings — the classic cheap remedy is randomized
//! restarts. Each restart `i > 0` perturbs the similarity scores of the
//! *already-eligible* candidate pairs by a seeded `+ε` (with
//! `ε < 10⁻⁹`), which permutes tie-breaking without ever changing the
//! candidate sets, and cycles through the three pivot [`Selection`]
//! strategies. Restart 0 is the unperturbed paper configuration, so the
//! best-of run **never does worse** than the deterministic algorithm,
//! and every run retains the Theorem 5.1 guarantee.
//!
//! Restarts are independent, so they parallelize embarrassingly
//! (crossbeam scoped threads, one chunk per worker).

use crate::algo::{comp_max_card_with, comp_max_sim_with, AlgoConfig, Selection};
use crate::budget::MatchBudget;
use crate::mapping::PHomMapping;
use phom_graph::{DiGraph, ReachabilityIndex, TransitiveClosure};
use phom_sim::{NodeWeights, SimMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for randomized restarts.
#[derive(Debug, Clone, Copy)]
pub struct RestartConfig {
    /// Total number of runs (≥ 1; run 0 is the unperturbed original).
    pub restarts: usize,
    /// Base seed; restart `i` derives its own stream from `seed` and `i`.
    pub seed: u64,
    /// Worker threads (1 = sequential). Results are merged
    /// deterministically regardless of thread count.
    pub threads: usize,
    /// Deadline budget. Restart 0 always runs (each kernel run checks the
    /// budget itself, so even it stays bounded); later restarts are
    /// skipped once the deadline passes, keeping the best-of guarantee
    /// over the restarts that did run. A limited budget forces the
    /// sequential path so which restarts ran is deterministic.
    pub budget: MatchBudget,
}

impl Default for RestartConfig {
    fn default() -> Self {
        Self {
            restarts: 8,
            seed: 0x5eed_2010,
            threads: 1,
            budget: MatchBudget::unlimited(),
        }
    }
}

/// Tie-break perturbation of `mat`: squeezes every at-or-above-threshold
/// score slightly toward `xi` and adds seeded noise smaller than the
/// squeeze, so the perturbed score stays in `[xi, 1]` — candidacy
/// (`score ≥ xi`) is exactly preserved and the matrix invariant
/// `s ∈ [0, 1]` holds. Sub-threshold pairs are untouched.
fn perturb(mat: &SimMatrix, xi: f64, seed: u64) -> SimMatrix {
    const SQUEEZE: f64 = 1e-6;
    let mut rng = SmallRng::seed_from_u64(seed);
    let span = (1.0 - xi).max(1e-9);
    SimMatrix::from_fn(mat.n1(), mat.n2(), |v, u| {
        let s = mat.score(v, u);
        if s < xi {
            return s;
        }
        let squeezed = xi + (s - xi) * (1.0 - SQUEEZE);
        (squeezed + rng.random::<f64>() * span * SQUEEZE).min(1.0)
    })
}

/// The pivot strategy used by restart `i`: restart 0 keeps the caller's
/// choice; later restarts cycle through all strategies.
fn selection_for(i: usize, base: Selection) -> Selection {
    if i == 0 {
        return base;
    }
    match i % 3 {
        0 => Selection::MaxGood,
        1 => Selection::FirstActive,
        _ => Selection::MinGood,
    }
}

/// Objective used to compare restart outcomes.
enum Score<'a> {
    Card,
    Sim(&'a NodeWeights, &'a SimMatrix),
}

impl Score<'_> {
    fn of(&self, m: &PHomMapping) -> f64 {
        match self {
            Score::Card => m.qual_card(),
            Score::Sim(w, mat) => m.qual_sim(w, mat),
        }
    }
}

/// Observability record of one best-of run — the restart-level half of
/// the trace counters (`restarts_taken`, `budget_polls`) plus the raw
/// per-restart timings that become nested `restart{i}` spans.
#[derive(Debug, Clone, Default)]
pub struct RestartTelemetry {
    /// Restarts actually run (≤ the configured count when the deadline
    /// cut the loop short).
    pub taken: usize,
    /// Deadline polls at restart boundaries.
    pub polls: usize,
    /// Per-restart kernel microseconds, in restart order.
    pub micros: Vec<u64>,
}

impl RestartTelemetry {
    /// Folds another run's telemetry into this one (per-component runs
    /// under `G1` partitioning aggregate into one record).
    pub fn absorb(&mut self, other: &RestartTelemetry) {
        self.taken += other.taken;
        self.polls += other.polls;
        self.micros.extend_from_slice(&other.micros);
    }
}

#[allow(clippy::too_many_arguments)]
fn best_of<L: Send + Sync>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    weights: Option<&NodeWeights>,
    cfg: &AlgoConfig,
    injective: bool,
    rcfg: &RestartConfig,
) -> (PHomMapping, RestartTelemetry) {
    assert!(rcfg.restarts >= 1, "at least one restart");
    let score = match weights {
        None => Score::Card,
        Some(w) => Score::Sim(w, mat),
    };

    let run_one = |i: usize| -> (PHomMapping, u64) {
        let sel = selection_for(i, cfg.selection);
        let run_cfg = AlgoConfig {
            selection: sel,
            budget: rcfg.budget,
            ..*cfg
        };
        // phom-lint: allow(clock, "monotonic elapsed-time telemetry per restart; no wall-clock semantics")
        let started = std::time::Instant::now();
        let mapping = if i == 0 {
            match weights {
                None => comp_max_card_with(g1, closure, mat, &run_cfg, injective),
                Some(w) => comp_max_sim_with(g1, closure, mat, w, &run_cfg, injective),
            }
        } else {
            let noisy = perturb(mat, cfg.xi, rcfg.seed.wrapping_add(i as u64));
            match weights {
                None => comp_max_card_with(g1, closure, &noisy, &run_cfg, injective),
                Some(w) => comp_max_sim_with(g1, closure, &noisy, w, &run_cfg, injective),
            }
        };
        (mapping, started.elapsed().as_micros() as u64)
    };

    let mut telemetry = RestartTelemetry::default();
    let candidates: Vec<(PHomMapping, u64)> =
        if rcfg.threads <= 1 || rcfg.restarts == 1 || rcfg.budget.is_limited() {
            let mut out = Vec::with_capacity(rcfg.restarts);
            for i in 0..rcfg.restarts {
                // Deadline: restart 0 always runs (the kernel's own budget
                // checks bound it); later restarts stop at this boundary.
                if i > 0 {
                    telemetry.polls += 1;
                    if rcfg.budget.expired() {
                        break;
                    }
                }
                out.push(run_one(i));
            }
            out
        } else {
            let mut out: Vec<Option<(PHomMapping, u64)>> = vec![None; rcfg.restarts];
            let workers = rcfg.threads.min(rcfg.restarts);
            std::thread::scope(|s| {
                for (w, chunk) in out.chunks_mut(rcfg.restarts.div_ceil(workers)).enumerate() {
                    let run_one = &run_one;
                    let base = w * rcfg.restarts.div_ceil(workers);
                    s.spawn(move || {
                        for (off, slot) in chunk.iter_mut().enumerate() {
                            *slot = Some(run_one(base + off));
                        }
                    });
                }
            });
            out.into_iter()
                // phom-lint: allow(unwrap, "the scope joined all workers and the chunks partition out, so every slot was filled")
                .map(|m| m.expect("all restarts ran"))
                .collect()
        };

    telemetry.taken = candidates.len();
    telemetry.micros = candidates.iter().map(|(_, m)| *m).collect();

    // Deterministic argmax: earliest restart wins ties, so threads=1 and
    // threads=N agree bit-for-bit.
    let best = candidates
        .into_iter()
        .map(|(m, _)| m)
        .reduce(|best, next| {
            if score.of(&next) > score.of(&best) {
                next
            } else {
                best
            }
        })
        // phom-lint: allow(unwrap, "restarts >= 1 is asserted on entry, so candidates is nonempty")
        .expect("restarts >= 1");
    (best, telemetry)
}

/// Best-of-restarts `compMaxCard` (CPH). Never returns a mapping with
/// lower `qualCard` than [`comp_max_card_with`] under the same `cfg`.
///
/// ```
/// use phom_core::{comp_max_card, comp_max_card_restarts, AlgoConfig, RestartConfig};
/// use phom_graph::graph_from_labels;
/// use phom_sim::SimMatrix;
///
/// let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
/// let g2 = graph_from_labels(&["a", "b"], &[("a", "b")]);
/// let mat = SimMatrix::label_equality(&g1, &g2);
/// let cfg = AlgoConfig::default();
/// let rcfg = RestartConfig { restarts: 4, ..Default::default() };
/// let best = comp_max_card_restarts(&g1, &g2, &mat, &cfg, false, &rcfg);
/// let single = comp_max_card(&g1, &g2, &mat, &cfg);
/// assert!(best.qual_card() >= single.qual_card()); // guaranteed
/// ```
pub fn comp_max_card_restarts<L: Send + Sync>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    cfg: &AlgoConfig,
    injective: bool,
    rcfg: &RestartConfig,
) -> PHomMapping {
    let closure = TransitiveClosure::new(g2);
    comp_max_card_restarts_with(g1, &closure, mat, cfg, injective, rcfg)
}

/// [`comp_max_card_restarts`] with a precomputed closure.
pub fn comp_max_card_restarts_with<L: Send + Sync>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    cfg: &AlgoConfig,
    injective: bool,
    rcfg: &RestartConfig,
) -> PHomMapping {
    best_of(g1, closure, mat, None, cfg, injective, rcfg).0
}

/// [`comp_max_card_restarts_with`], also reporting [`RestartTelemetry`]
/// (restarts taken, budget polls, per-restart timings) for tracing.
pub fn comp_max_card_restarts_telemetry<L: Send + Sync>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    cfg: &AlgoConfig,
    injective: bool,
    rcfg: &RestartConfig,
) -> (PHomMapping, RestartTelemetry) {
    best_of(g1, closure, mat, None, cfg, injective, rcfg)
}

/// Best-of-restarts `compMaxSim` (SPH). Never returns a mapping with
/// lower `qualSim` than [`comp_max_sim_with`] under the same `cfg`.
pub fn comp_max_sim_restarts<L: Send + Sync>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &AlgoConfig,
    injective: bool,
    rcfg: &RestartConfig,
) -> PHomMapping {
    let closure = TransitiveClosure::new(g2);
    best_of(g1, &closure, mat, Some(weights), cfg, injective, rcfg).0
}

/// [`comp_max_sim_restarts`] with a precomputed closure (pass a
/// [`TransitiveClosure::bounded`] closure to combine restarts with a
/// stretch bound).
#[allow(clippy::too_many_arguments)]
pub fn comp_max_sim_restarts_with<L: Send + Sync>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &AlgoConfig,
    injective: bool,
    rcfg: &RestartConfig,
) -> PHomMapping {
    best_of(g1, closure, mat, Some(weights), cfg, injective, rcfg).0
}

/// [`comp_max_sim_restarts_with`], also reporting [`RestartTelemetry`]
/// (restarts taken, budget polls, per-restart timings) for tracing.
#[allow(clippy::too_many_arguments)]
pub fn comp_max_sim_restarts_telemetry<L: Send + Sync>(
    g1: &DiGraph<L>,
    closure: &dyn ReachabilityIndex,
    mat: &SimMatrix,
    weights: &NodeWeights,
    cfg: &AlgoConfig,
    injective: bool,
    rcfg: &RestartConfig,
) -> (PHomMapping, RestartTelemetry) {
    best_of(g1, closure, mat, Some(weights), cfg, injective, rcfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::comp_max_card;
    use crate::mapping::verify_phom;
    use phom_graph::graph_from_labels;

    fn setup() -> (DiGraph<String>, DiGraph<String>, SimMatrix) {
        // A diamond pattern against a data graph with two partially
        // overlapping diamonds — pivot order matters here.
        let g1 = graph_from_labels(
            &["r", "a", "b", "t"],
            &[("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")],
        );
        let g2 = graph_from_labels(
            &["r", "a", "b", "t", "a2", "x"],
            &[
                ("r", "a"),
                ("r", "b"),
                ("a", "x"),
                ("x", "t"),
                ("b", "t"),
                ("r", "a2"),
            ],
        );
        let mat = SimMatrix::from_fn(4, 6, |v, u| {
            let l1 = g1.label(v).trim_end_matches('2');
            let l2 = g2.label(u).trim_end_matches('2');
            if l1 == l2 {
                1.0
            } else {
                0.0
            }
        });
        (g1, g2, mat)
    }

    #[test]
    fn restart_zero_reproduces_deterministic_run() {
        let (g1, g2, mat) = setup();
        let cfg = AlgoConfig::default();
        let rcfg = RestartConfig {
            restarts: 1,
            ..Default::default()
        };
        let a = comp_max_card_restarts(&g1, &g2, &mat, &cfg, false, &rcfg);
        let b = comp_max_card(&g1, &g2, &mat, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn best_of_never_below_deterministic() {
        let (g1, g2, mat) = setup();
        let cfg = AlgoConfig::default();
        let single = comp_max_card(&g1, &g2, &mat, &cfg).qual_card();
        for restarts in [2, 5, 9] {
            let rcfg = RestartConfig {
                restarts,
                ..Default::default()
            };
            let multi = comp_max_card_restarts(&g1, &g2, &mat, &cfg, false, &rcfg);
            assert!(multi.qual_card() >= single, "restarts={restarts}");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let (g1, g2, mat) = setup();
        let cfg = AlgoConfig::default();
        let seq = comp_max_card_restarts(
            &g1,
            &g2,
            &mat,
            &cfg,
            false,
            &RestartConfig {
                restarts: 7,
                threads: 1,
                ..Default::default()
            },
        );
        let par = comp_max_card_restarts(
            &g1,
            &g2,
            &mat,
            &cfg,
            false,
            &RestartConfig {
                restarts: 7,
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(seq, par, "thread count must not change the result");
    }

    #[test]
    fn restart_results_are_valid_mappings() {
        let (g1, g2, mat) = setup();
        let cfg = AlgoConfig::default();
        let closure = TransitiveClosure::new(&g2);
        for injective in [false, true] {
            let m = comp_max_card_restarts(
                &g1,
                &g2,
                &mat,
                &cfg,
                injective,
                &RestartConfig {
                    restarts: 6,
                    ..Default::default()
                },
            );
            verify_phom(&g1, &m, &mat, cfg.xi, &closure, injective).expect("valid");
        }
    }

    #[test]
    fn sim_restarts_never_below_deterministic() {
        let (g1, g2, mat) = setup();
        let cfg = AlgoConfig::default();
        let w = NodeWeights::by_degree(&g1);
        let single = crate::algo::comp_max_sim(&g1, &g2, &mat, &w, &cfg).qual_sim(&w, &mat);
        let multi = comp_max_sim_restarts(
            &g1,
            &g2,
            &mat,
            &w,
            &cfg,
            false,
            &RestartConfig {
                restarts: 6,
                ..Default::default()
            },
        );
        assert!(multi.qual_sim(&w, &mat) >= single);
    }

    #[test]
    fn perturbation_preserves_candidacy() {
        let (_, _, mat) = setup();
        let noisy = perturb(&mat, 0.5, 42);
        for v in 0..mat.n1() {
            for u in 0..mat.n2() {
                let v = phom_graph::NodeId(v as u32);
                let u = phom_graph::NodeId(u as u32);
                assert_eq!(mat.score(v, u) >= 0.5, noisy.score(v, u) >= 0.5);
                assert!((noisy.score(v, u) - mat.score(v, u)).abs() < 1e-5);
                assert!((0.0..=1.0).contains(&noisy.score(v, u)));
            }
        }
    }

    mod prop {
        use super::*;
        use phom_graph::NodeId;
        use proptest::prelude::*;

        fn arb_pair() -> impl Strategy<Value = (DiGraph<u8>, DiGraph<u8>)> {
            let g = |n_max: usize| {
                (
                    2usize..n_max,
                    proptest::collection::vec((0usize..12, 0usize..12), 0..24),
                )
                    .prop_map(|(n, raw)| {
                        let mut g = DiGraph::with_capacity(n);
                        for i in 0..n {
                            g.add_node((i % 3) as u8);
                        }
                        for (a, b) in raw {
                            g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                        }
                        g
                    })
            };
            (g(6), g(9))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn prop_restarts_dominate_and_verify((g1, g2) in arb_pair(), seed in any::<u64>()) {
                let mat = SimMatrix::label_equality(&g1, &g2);
                let cfg = AlgoConfig::default();
                let closure = TransitiveClosure::new(&g2);
                let single = comp_max_card(&g1, &g2, &mat, &cfg);
                let rcfg = RestartConfig { restarts: 4, seed, ..Default::default() };
                let multi = comp_max_card_restarts(&g1, &g2, &mat, &cfg, false, &rcfg);
                prop_assert!(multi.qual_card() >= single.qual_card());
                prop_assert!(verify_phom(&g1, &multi, &mat, cfg.xi, &closure, false).is_ok());
            }
        }
    }
}
