//! Integration tests for live-graph mode: applying edge updates to a
//! prepared graph must (a) leave the old version's answers untouched
//! (copy-on-write), (b) produce a version whose query results are
//! identical to a from-scratch engine on the mutated graph, and (c)
//! hand the caller a version it queries on without a re-prepare.

use phom::prelude::*;
use std::sync::Arc;

type Label = phom::workloads::synthetic::Label;

fn workload(m: usize, seed: u64) -> (Arc<DiGraph<Label>>, Vec<Query<Label>>) {
    let inst = phom::workloads::generate_instance(
        &SyntheticConfig {
            m,
            noise: 0.15,
            seed,
        },
        1,
    );
    let data = Arc::new(inst.g2.clone());
    let pattern_nodes = (m / 5).clamp(4, 20);
    let queries = (0..12)
        .map(|i| {
            let lo = (i * 7) % (m - pattern_nodes);
            let keep: std::collections::BTreeSet<NodeId> =
                (lo..lo + pattern_nodes).map(|x| NodeId(x as u32)).collect();
            let pattern = Arc::new(inst.g1.induced_subgraph(&keep).0);
            let mat = SimMatrix::from_fn(pattern.node_count(), data.node_count(), |v, u| {
                inst.pool.similarity(*pattern.label(v), *data.label(u))
            });
            let mut q = Query::new(pattern, mat);
            q.config = QueryConfig {
                xi: 0.75,
                algorithm: [
                    Algorithm::MaxCard,
                    Algorithm::MaxCard1to1,
                    Algorithm::MaxSim,
                    Algorithm::MaxSim1to1,
                ][i % 4],
                restarts: Some(1),
                max_stretch: (i % 5 == 4).then_some(3),
                ..Default::default()
            };
            q
        })
        .collect();
    (data, queries)
}

fn churn(data: &DiGraph<Label>, count: usize, seed: u64) -> Vec<GraphUpdate> {
    let n = data.node_count();
    let edges: Vec<(NodeId, NodeId)> = data.edges().collect();
    let mut rng = phom::graph::XorShift64::new(seed);
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                let (a, b) = edges[rng.below(edges.len())];
                GraphUpdate::RemoveEdge(a, b)
            } else {
                GraphUpdate::InsertEdge(NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32))
            }
        })
        .collect()
}

fn pairs(r: &QueryResult) -> Vec<(NodeId, NodeId)> {
    r.outcome.mapping.pairs().collect()
}

#[test]
fn query_results_identical_pre_and_post_apply() {
    let (data, queries) = workload(60, 11);
    let engine: Engine<Label> = Engine::default();
    let old = engine.prepare(&data);
    let before: Vec<QueryResult> = queries.iter().map(|q| engine.execute(&old, q)).collect();

    let updates = churn(&data, 24, 0xBEEF);
    let outcome = engine.apply_updates(&old, &updates);
    assert!(outcome.stats.applied > 0, "churn must change the graph");

    // (a) The old snapshot still answers exactly as before — in-flight
    // readers of the pre-update version are unaffected.
    for (q, b) in queries.iter().zip(&before) {
        let again = engine.execute(&old, q);
        assert_eq!(pairs(b), pairs(&again), "old snapshot drifted");
        assert_eq!(b.outcome.qual_card, again.outcome.qual_card);
    }

    // (b) The new version answers exactly like a cold engine that
    // prepared the mutated graph from scratch.
    let fresh_engine: Engine<Label> = Engine::default();
    let fresh = fresh_engine.prepare(outcome.prepared.graph());
    for q in &queries {
        let incremental = engine.execute(&outcome.prepared, q);
        let scratch = fresh_engine.execute(&fresh, q);
        assert_eq!(
            pairs(&incremental),
            pairs(&scratch),
            "incremental version diverged from scratch prepare"
        );
        assert_eq!(incremental.outcome.qual_card, scratch.outcome.qual_card);
        assert_eq!(incremental.outcome.qual_sim, scratch.outcome.qual_sim);
        assert_eq!(incremental.plan.kind, scratch.plan.kind);
    }
}

#[test]
fn interleaved_update_query_stream_stays_consistent() {
    let (data, queries) = workload(40, 19);
    let engine: Engine<Label> = Engine::default();
    let mut current = engine.prepare(&data);
    let mut rng = phom::graph::XorShift64::new(23);
    for step in 0..30 {
        if step % 3 == 0 {
            let data = current.graph();
            let n = data.node_count();
            let a = NodeId(rng.below(n) as u32);
            let b = NodeId(rng.below(n) as u32);
            let update = if data.has_edge(a, b) {
                GraphUpdate::RemoveEdge(a, b)
            } else {
                GraphUpdate::InsertEdge(a, b)
            };
            current = engine.apply_updates(&current, &[update]).prepared;
        } else {
            let q = &queries[step % queries.len()];
            let live = engine.execute(&current, q);
            // Ground truth: a throwaway from-scratch prepare of the
            // current graph.
            let scratch_prep = PreparedGraph::new(Arc::clone(current.graph()));
            let scratch_engine: Engine<Label> = Engine::default();
            let scratch = scratch_engine.execute(&scratch_prep, q);
            assert_eq!(pairs(&live), pairs(&scratch), "step {step} diverged");
        }
    }
    let stats = engine.stats();
    assert!(stats.updates_applied > 0);
    assert_eq!(
        stats.prepares, 1,
        "only the initial graph was ever prepared from scratch"
    );
}
