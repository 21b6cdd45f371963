//! Integration tests for the prepared-graph engine: a mixed batch over
//! real workload graphs must return exactly what the direct per-query
//! entry points return, while the engine's stats prove the closure was
//! computed once per distinct data graph and the batch ran in parallel.

use phom::prelude::*;
use phom::workloads::{generate_archive, generate_campaign, skeleton_top_k};
use std::sync::Arc;

/// Builds the engine's `MatcherConfig` twin for one query result, so the
/// direct call goes down the identical code path (same restarts as the
/// plan picked).
fn direct_config(q: &Query<phom::workloads::Page>, restarts: usize) -> MatcherConfig {
    MatcherConfig {
        algorithm: q.config.algorithm,
        xi: q.config.xi,
        max_stretch: q.config.max_stretch,
        restarts,
        ..Default::default()
    }
}

fn pairs(m: &PHomMapping) -> Vec<(NodeId, NodeId)> {
    m.pairs().collect()
}

#[test]
fn websim_mixed_batch_matches_direct_calls() {
    let spec = phom::workloads::SiteSpec::test_scale(SiteCategory::ALL[0], 77);
    let archive = generate_archive(&spec);
    let data = Arc::new(archive.versions[0].clone());

    // A mixed batch: plain approx, 1-1, similarity, bounded-stretch, and
    // an edgeless pattern that routes to the baseline plan.
    let mut queries: Vec<Query<phom::workloads::Page>> = Vec::new();
    for (i, version) in archive.versions[1..].iter().enumerate().take(4) {
        let pattern = Arc::new(skeleton_top_k(version, 12).graph);
        let mat = shingle_matrix(&pattern, &data, 3);
        let mut q = Query::new(pattern, mat);
        q.config.xi = 0.6;
        q.config.algorithm = [
            Algorithm::MaxCard,
            Algorithm::MaxCard1to1,
            Algorithm::MaxSim,
            Algorithm::MaxSim1to1,
        ][i % 4];
        q.config.restarts = Some(1 + (i % 2) * 2);
        if i == 2 {
            q.config.max_stretch = Some(2);
        }
        queries.push(q);
    }
    // Edgeless pattern: keep only the nodes of a skeleton, drop edges.
    {
        let skel = skeleton_top_k(&archive.versions[1], 6).graph;
        let mut edgeless = DiGraph::new();
        for v in skel.nodes() {
            edgeless.add_node(skel.label(v).clone());
        }
        let edgeless = Arc::new(edgeless);
        let mat = shingle_matrix(&edgeless, &data, 3);
        let mut q = Query::new(edgeless, mat);
        q.config.xi = 0.6;
        queries.push(q);
    }

    let engine: Engine<phom::workloads::Page> = Engine::default();
    let batch = engine.execute_batch(&engine.prepare(&data), &queries);
    assert_eq!(batch.stats.prepares, 1, "one closure for the whole batch");

    let mut kinds_seen = std::collections::HashSet::new();
    for (q, r) in queries.iter().zip(&batch.results) {
        kinds_seen.insert(r.plan.kind);
        let weights = q.effective_weights();
        match r.plan.kind {
            PlanKind::Exact => {
                let objective = if q.config.algorithm.similarity() {
                    Objective::Similarity
                } else {
                    Objective::Cardinality
                };
                let direct = exact_optimum(
                    &q.pattern,
                    &data,
                    &q.matrix,
                    q.config.xi,
                    q.config.algorithm.injective(),
                    objective,
                    &weights,
                );
                assert_eq!(pairs(&direct), pairs(&r.outcome.mapping), "exact plan");
            }
            PlanKind::Approx | PlanKind::Bounded => {
                let direct = match_graphs(
                    &q.pattern,
                    &data,
                    &q.matrix,
                    &weights,
                    &direct_config(q, r.plan.restarts),
                );
                assert_eq!(
                    pairs(&direct.mapping),
                    pairs(&r.outcome.mapping),
                    "{:?} plan must match the direct matcher",
                    r.plan.kind
                );
                assert_eq!(direct.qual_card, r.outcome.qual_card);
                assert_eq!(direct.qual_sim, r.outcome.qual_sim);
            }
            PlanKind::Baseline => {
                // Edgeless patterns: the Appendix-B partitioner reduces to
                // per-node best-candidate shortcuts — identical outcome.
                let direct =
                    match_graphs(&q.pattern, &data, &q.matrix, &weights, &direct_config(q, 1));
                assert_eq!(
                    pairs(&direct.mapping),
                    pairs(&r.outcome.mapping),
                    "baseline"
                );
            }
        }
    }
    assert!(
        kinds_seen.contains(&PlanKind::Bounded) && kinds_seen.contains(&PlanKind::Baseline),
        "batch exercised bounded and baseline plans: {kinds_seen:?}"
    );
}

#[test]
fn email_batch_matches_direct_calls_and_caches_per_graph() {
    let cfg = phom::workloads::CampaignConfig {
        seed: 5,
        ..Default::default()
    };
    let inst = generate_campaign(&cfg, 3, 0);
    let template = Arc::new(inst.template.clone());

    let engine: Engine<phom::workloads::email::Part> = Engine::default();
    // Spam detection inverts the batch shape: one pattern (the campaign
    // template), many data graphs (the mailbox). Each distinct message
    // prepares once; repeating the mailbox reuses the held versions.
    let prepared: Vec<_> = inst
        .mailbox
        .iter()
        .map(|(msg, _)| engine.prepare(&Arc::new(msg.clone())))
        .collect();
    for round in 0..2 {
        for ((msg, _), data) in inst.mailbox.iter().zip(&prepared) {
            let mat = email_matrix(&template, msg);
            let mut q = Query::new(Arc::clone(&template), mat);
            q.config.xi = 0.4;
            q.config.restarts = Some(1);
            let batch = engine.execute_batch(data, &[q.clone()]);
            let direct = match_graphs(
                &template,
                msg,
                &q.matrix,
                &q.effective_weights(),
                &MatcherConfig {
                    algorithm: q.config.algorithm,
                    xi: q.config.xi,
                    restarts: batch.results[0].plan.restarts,
                    ..Default::default()
                },
            );
            assert_eq!(
                pairs(&direct.mapping),
                pairs(&batch.results[0].outcome.mapping),
                "round {round}"
            );
        }
    }
    let stats = engine.stats();
    assert_eq!(
        stats.prepares,
        inst.mailbox.len(),
        "each distinct message prepared exactly once"
    );
    assert_eq!(
        stats.cache_hits,
        2 * inst.mailbox.len(),
        "no query built a bounded closure"
    );
}

#[test]
fn hundred_query_batch_prepares_once_and_runs_in_parallel() {
    let cfg = SyntheticConfig {
        m: 60,
        noise: 0.15,
        seed: 11,
    };
    let inst = phom::workloads::generate_instance(&cfg, 1);
    let data = Arc::new(inst.g2.clone());
    let pattern = Arc::new(inst.g1.clone());
    let base_mat = inst.similarity_matrix();

    let queries: Vec<Query<phom::workloads::synthetic::Label>> = (0..100)
        .map(|i| {
            let mut q = Query::new(Arc::clone(&pattern), base_mat.clone());
            q.config.xi = 0.75;
            q.config.algorithm = [
                Algorithm::MaxCard,
                Algorithm::MaxCard1to1,
                Algorithm::MaxSim,
                Algorithm::MaxSim1to1,
            ][i % 4];
            if i % 5 == 4 {
                q.config.max_stretch = Some(3);
            }
            q
        })
        .collect();

    let engine: Engine<phom::workloads::synthetic::Label> = Engine::new(EngineConfig {
        threads: 4,
        ..Default::default()
    });
    let prepared = engine.prepare(&data);
    let batch = engine.execute_batch(&prepared, &queries);

    assert_eq!(batch.results.len(), 100);
    let stats = &batch.stats;
    assert_eq!(
        stats.prepares, 1,
        "a 100-query batch triggers exactly one closure computation"
    );
    assert_eq!(stats.queries, 100);
    assert_eq!(stats.bounded_plans, 20);
    assert_eq!(
        stats.approx_plans + stats.exact_plans + stats.baseline_plans,
        80
    );
    // All 20 bounded queries share one memoized k=3 closure. Its one
    // build is a miss for each query in flight on a worker when it
    // landed; every other query ran on prepared state.
    assert_eq!(prepared.bounded_closures_computed(), 1);
    assert!(
        (100 - stats.last_batch_workers..100).contains(&stats.cache_hits),
        "cache hits {}",
        stats.cache_hits
    );
    // Parallel execution: all four workers ran, and the start-of-batch
    // rendezvous proves they held queries simultaneously.
    assert_eq!(stats.last_batch_workers, 4);
    assert!(
        stats.last_batch_peak_parallel >= 2,
        "peak parallelism {} must show real overlap",
        stats.last_batch_peak_parallel
    );
    // Sanity: results are real matches, not placeholders.
    assert!(batch.results.iter().all(|r| r.outcome.qual_card > 0.0));
}
