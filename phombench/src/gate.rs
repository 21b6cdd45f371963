//! The correctness gate every answer passes, outside the timed op.

use phom_core::edge_witnesses;
use phom_engine::Query;
use phom_graph::DiGraph;
use phom_service::{QueryResponse, UpdateSummary};

/// Relative tolerance for re-computed quality values.
const QUAL_TOLERANCE: f64 = 1e-9;

/// Checks one query answer against the data graph it ran on:
/// every mapped pair meets ξ, every mapped pattern edge has a witness
/// path (at most `k` edges long under a stretch bound), 1-1 answers are
/// injective, and the reported qualCard / qualSim match values computed
/// from the mapping.
pub fn check_answer(
    query: &Query<String>,
    data: &DiGraph<String>,
    answer: &QueryResponse,
) -> Result<(), String> {
    let xi = query.config.xi;
    for (v, u) in answer.mapping.pairs() {
        if u.index() >= data.node_count() {
            return Err(format!(
                "pattern node {} mapped to unknown node {}",
                v.0, u.0
            ));
        }
        let s = query.matrix.score(v, u);
        if s < xi {
            return Err(format!(
                "pair ({}, {}) has similarity {s} below xi {xi}",
                v.0, u.0
            ));
        }
    }
    let witnesses = edge_witnesses(&query.pattern, data, &answer.mapping)
        .map_err(|(a, b)| format!("pattern edge ({}, {}) has no witness path", a.0, b.0))?;
    if let Some(k) = query.config.max_stretch {
        if let Some(w) = witnesses.iter().find(|w| w.path.len() - 1 > k) {
            return Err(format!(
                "pattern edge ({}, {}) needs a {}-edge path, stretch bound is {k}",
                w.from.0,
                w.to.0,
                w.path.len() - 1
            ));
        }
    }
    if query.config.algorithm.injective() && !answer.mapping.is_injective() {
        return Err("1-1 answer maps two pattern nodes to one data node".into());
    }
    let card = answer.mapping.qual_card();
    let sim = answer
        .mapping
        .qual_sim(&query.effective_weights(), &query.matrix);
    if !close(card, answer.qual_card) {
        return Err(format!(
            "reported qualCard {} but the mapping gives {card}",
            answer.qual_card
        ));
    }
    if !close(sim, answer.qual_sim) {
        return Err(format!(
            "reported qualSim {} but the mapping gives {sim}",
            answer.qual_sim
        ));
    }
    Ok(())
}

/// Checks that `other` is the same answer as `reference`: the same
/// mapping, qualities, plan and consulted shard count.
pub fn check_same(reference: &QueryResponse, other: &QueryResponse) -> Result<(), String> {
    if !reference.mapping.pairs().eq(other.mapping.pairs()) {
        return Err("mapping differs from the reference answer".into());
    }
    if reference.qual_card.to_bits() != other.qual_card.to_bits()
        || reference.qual_sim.to_bits() != other.qual_sim.to_bits()
    {
        return Err(format!(
            "qualities ({}, {}) differ from the reference ({}, {})",
            other.qual_card, other.qual_sim, reference.qual_card, reference.qual_sim
        ));
    }
    if reference.plan.kind != other.plan.kind
        || reference.shards_consulted != other.shards_consulted
    {
        return Err(format!(
            "plan {} over {} shards differs from the reference plan {} over {} shards",
            other.plan.kind.name(),
            other.shards_consulted,
            reference.plan.kind.name(),
            reference.shards_consulted
        ));
    }
    Ok(())
}

/// Checks an update summary: every toggle of the batch changed the graph
/// (the benchmark tracks edge state, so none is a no-op or rejected).
pub fn check_update(batch_len: usize, summary: &UpdateSummary) -> Result<(), String> {
    let s = &summary.stats;
    if s.applied != batch_len || s.noops != 0 || s.rejected != 0 {
        return Err(format!(
            "batch of {batch_len} toggles: {} applied, {} no-ops, {} rejected",
            s.applied, s.noops, s.rejected
        ));
    }
    Ok(())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= QUAL_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}
