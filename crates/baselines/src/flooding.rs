//! Similarity flooding (Melnik, Garcia-Molina, Rahm \[21\]) — the "SF"
//! vertex-similarity baseline of §6.
//!
//! SF builds a *pairwise connectivity graph* (PCG) over node pairs
//! `(v, u)`: an edge `(v, u) → (v', u')` whenever `(v, v') ∈ E1` and
//! `(u, u') ∈ E2`. Similarity mass then floods along PCG edges (weighted
//! by inverse out-degree, plus the reverse direction) until a fixpoint;
//! the final scores are read as a node-similarity matrix.
//!
//! As §6 observes, vertex similarity alone "ignores the topology of graphs
//! by and large" — our experiments reproduce both its mediocre accuracy on
//! restructured sites and its poor scalability (the PCG has up to
//! `|E1|·|E2|` edges).

use phom_graph::{DiGraph, NodeId};
use phom_sim::{candidate_floor, SimMatrix};

/// Similarity-flooding configuration.
#[derive(Debug, Clone, Copy)]
pub struct FloodingConfig {
    /// Maximum fixpoint iterations.
    pub max_iterations: usize,
    /// Stop when the residual (max score delta) drops below this.
    pub epsilon: f64,
    /// Ignore seed pairs below this initial similarity (keeps the PCG
    /// tractable; Melnik's implementation filters similarly).
    pub seed_floor: f64,
}

impl Default for FloodingConfig {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            epsilon: 1e-4,
            seed_floor: 1e-9,
        }
    }
}

/// Runs similarity flooding seeded by `seed` (e.g. shingle similarity) and
/// returns the flooded similarity matrix, normalized to `[0, 1]`.
pub fn similarity_flooding<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    seed: &SimMatrix,
    cfg: &FloodingConfig,
) -> SimMatrix {
    let n1 = g1.node_count();
    let n2 = g2.node_count();

    // PCG vertices: seeded pairs only.
    let mut pair_id = vec![usize::MAX; n1 * n2];
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for v in g1.nodes() {
        for u in g2.nodes() {
            if seed.score(v, u) >= cfg.seed_floor {
                pair_id[v.index() * n2 + u.index()] = pairs.len();
                pairs.push((v, u));
            }
        }
    }
    if pairs.is_empty() {
        return SimMatrix::new(n1, n2);
    }

    // PCG edges (forward); each also used backward during propagation.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); pairs.len()];
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); pairs.len()];
    for (pid, &(v, u)) in pairs.iter().enumerate() {
        for &vc in g1.post(v) {
            for &uc in g2.post(u) {
                let qid = pair_id[vc.index() * n2 + uc.index()];
                if qid != usize::MAX {
                    out_edges[pid].push(qid);
                    in_edges[qid].push(pid);
                }
            }
        }
    }

    // Propagation coefficients: 1 / out-degree (resp. in-degree).
    let mut sigma: Vec<f64> = pairs.iter().map(|&(v, u)| seed.score(v, u)).collect();
    let sigma0 = sigma.clone();
    let mut next = vec![0.0f64; pairs.len()];

    for _ in 0..cfg.max_iterations {
        for (pid, slot) in next.iter_mut().enumerate() {
            // Basic SF update: σ' = σ0 + σ + incoming flow (both ways).
            let mut inflow = 0.0;
            for &qid in &in_edges[pid] {
                inflow += sigma[qid] / out_edges[qid].len() as f64;
            }
            for &qid in &out_edges[pid] {
                inflow += sigma[qid] / in_edges[qid].len() as f64;
            }
            *slot = sigma0[pid] + sigma[pid] + inflow;
        }
        // Normalize by the maximum.
        let max = next.iter().cloned().fold(0.0f64, f64::max);
        if max > 0.0 {
            for x in next.iter_mut() {
                *x /= max;
            }
        }
        let residual = sigma
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        std::mem::swap(&mut sigma, &mut next);
        if residual < cfg.epsilon {
            break;
        }
    }

    let mut out = SimMatrix::new(n1, n2);
    for (pid, &(v, u)) in pairs.iter().enumerate() {
        out.set(v, u, sigma[pid].clamp(0.0, 1.0));
    }
    out
}

/// Extracts an injective matching from a similarity matrix: greedily take
/// the highest-scoring candidates at `threshold` with both endpoints unused.
/// Shared by the SF and Blondel baselines.
pub fn extract_matching(scores: &SimMatrix, threshold: f64) -> Vec<(NodeId, NodeId)> {
    let mut ranked: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for v in 0..scores.n1() {
        let v = NodeId(v as u32);
        for u in scores.candidates(v, threshold) {
            ranked.push((v, u, scores.score(v, u)));
        }
    }
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    let mut used_v = vec![false; scores.n1()];
    let mut used_u = vec![false; scores.n2()];
    let mut out = Vec::new();
    for (v, u, _) in ranked {
        if !used_v[v.index()] && !used_u[u.index()] {
            used_v[v.index()] = true;
            used_u[u.index()] = true;
            out.push((v, u));
        }
    }
    out.sort_unstable();
    out
}

/// End-to-end SF match quality: flooded scores drive the *alignment*
/// (which pairs correspond), the seed similarity judges whether each
/// aligned pair is actually a match (a seed candidate at `threshold`,
/// [`candidate_floor`]). Returns the
/// matched fraction of `G1`, comparable with `qualCard`.
///
/// Judging by raw flooded scores would be meaningless here: they are
/// max-normalized per run, so only the top pair could ever clear an
/// absolute threshold.
pub fn flooding_match_quality<L>(
    g1: &DiGraph<L>,
    g2: &DiGraph<L>,
    seed: &SimMatrix,
    threshold: f64,
    cfg: &FloodingConfig,
) -> f64 {
    if g1.node_count() == 0 {
        return 0.0;
    }
    let flooded = similarity_flooding(g1, g2, seed, cfg);
    let matching = extract_matching(&flooded, 0.0);
    let good = matching
        .iter()
        .filter(|&&(v, u)| seed.score(v, u) >= candidate_floor(threshold))
        .count();
    good as f64 / g1.node_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    #[test]
    fn identical_graphs_flood_to_self_matches() {
        let g = graph_from_labels(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let seed = SimMatrix::label_equality(&g, &g);
        let flooded = similarity_flooding(&g, &g, &seed, &FloodingConfig::default());
        // Diagonal dominates: each node's best match is itself.
        for v in g.nodes() {
            let self_score = flooded.score(v, v);
            for u in g.nodes() {
                if u != v {
                    assert!(
                        self_score >= flooded.score(v, u),
                        "{v:?} prefers {u:?} over itself"
                    );
                }
            }
        }
    }

    #[test]
    fn structure_boosts_related_pairs() {
        // Seed everything equal; flooding should prefer structurally
        // aligned pairs (a,a) over (a,c).
        let g1 = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let g2 = graph_from_labels(&["a", "b", "c"], &[("a", "b")]);
        let seed = phom_sim::matrix_from_label_fn(&g1, &g2, |_, _| 0.5);
        let flooded = similarity_flooding(&g1, &g2, &seed, &FloodingConfig::default());
        assert!(
            flooded.score(NodeId(0), NodeId(0)) > flooded.score(NodeId(0), NodeId(2)),
            "edge-supported pair must outrank isolated pair"
        );
    }

    #[test]
    fn empty_seed_floods_to_zero() {
        let g1 = graph_from_labels(&["a"], &[]);
        let g2 = graph_from_labels(&["b"], &[]);
        let seed = SimMatrix::label_equality(&g1, &g2);
        let flooded = similarity_flooding(&g1, &g2, &seed, &FloodingConfig::default());
        assert_eq!(flooded.score(NodeId(0), NodeId(0)), 0.0);
    }

    #[test]
    fn extract_matching_is_injective_and_greedy() {
        let mut m = SimMatrix::new(2, 2);
        m.set(NodeId(0), NodeId(0), 0.9);
        m.set(NodeId(0), NodeId(1), 0.8);
        m.set(NodeId(1), NodeId(0), 0.85);
        let matching = extract_matching(&m, 0.5);
        // 0-0 taken first (0.9); then 1-0 blocked, 1 has nothing above
        // threshold left except... 1-0 used; so only one pair plus none.
        assert_eq!(matching, vec![(NodeId(0), NodeId(0))]);
    }

    #[test]
    fn match_quality_full_on_identical() {
        let g = graph_from_labels(&["a", "b"], &[("a", "b")]);
        let seed = SimMatrix::label_equality(&g, &g);
        let q = flooding_match_quality(&g, &g, &seed, 0.1, &FloodingConfig::default());
        assert!((q - 1.0).abs() < 1e-12);
    }
}
