//! Integration tests for intra-query parallelism and per-query
//! deadlines: component fan-out must be invisible in the results while
//! visible in `EngineStats`, and an expired deadline must surface as a
//! flagged best-so-far answer — never as a poisoned cache entry or a
//! changed answer for later queries.

use phom::prelude::*;
use phom::workloads::synthetic::Label;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// A pattern made of one copy of the template's `span`-node window at
/// each of `starts`, concatenated into one graph: each copy is one or
/// more weakly connected components (copies share no nodes, so no edges
/// can cross them).
fn windows_pattern(
    template: &DiGraph<Label>,
    starts: impl IntoIterator<Item = usize>,
    span: usize,
) -> DiGraph<Label> {
    let mut pattern: DiGraph<Label> = DiGraph::new();
    for lo in starts {
        let keep: BTreeSet<NodeId> = (lo..lo + span).map(|x| NodeId(x as u32)).collect();
        let (sub, _) = template.induced_subgraph(&keep);
        let base = pattern.node_count();
        for v in sub.nodes() {
            pattern.add_node(*sub.label(v));
        }
        for (a, b) in sub.edges() {
            pattern.add_edge(
                NodeId((base + a.index()) as u32),
                NodeId((base + b.index()) as u32),
            );
        }
    }
    pattern
}

struct Fixture {
    data: Arc<DiGraph<Label>>,
    queries: Vec<Query<Label>>,
}

/// `queries` copies of one query whose pattern holds a `span`-node
/// window of the synthetic template at each of `starts`.
fn fixture_of_windows(
    starts: impl IntoIterator<Item = usize>,
    span: usize,
    queries: usize,
) -> Fixture {
    let inst = phom::workloads::generate_instance(
        &SyntheticConfig {
            m: 80,
            noise: 0.15,
            seed: 23,
        },
        1,
    );
    let data = Arc::new(inst.g2.clone());
    let pattern = Arc::new(windows_pattern(&inst.g1, starts, span));
    let queries = (0..queries)
        .map(|_| {
            let mat = SimMatrix::from_fn(pattern.node_count(), data.node_count(), |v, u| {
                inst.pool.similarity(*pattern.label(v), *data.label(u))
            });
            let mut q = Query::new(Arc::clone(&pattern), mat);
            q.config.xi = 0.75;
            q.config.restarts = Some(1);
            // Force Approx: the partitioner (and thus the fan-out) only
            // runs on the approximate path, and tiny candidate sets would
            // otherwise route to exact branch-and-bound.
            q.config.force_plan = Some(PlanKind::Approx);
            q
        })
        .collect();
    Fixture { data, queries }
}

/// Four disjoint 12-node windows spread over the 80-node template.
fn fixture(queries: usize) -> Fixture {
    fixture_of_windows((0..4).map(|i| i * 20), 12, queries)
}

fn engine_with(intra: usize, timeout: Option<Duration>) -> Engine<Label> {
    Engine::new(EngineConfig {
        threads: 2,
        planner: PlannerConfig {
            intra_query_workers: intra,
            timeout,
            ..Default::default()
        },
    })
}

#[test]
fn parallel_batch_is_result_identical_to_sequential() {
    let fx = fixture(6);
    let seq = engine_with(1, None);
    let par = engine_with(4, None);
    let seq_batch = seq.execute_batch(&seq.prepare(&fx.data), &fx.queries);
    let par_batch = par.execute_batch(&par.prepare(&fx.data), &fx.queries);

    for (a, b) in seq_batch.results.iter().zip(&par_batch.results) {
        assert_eq!(
            a.outcome.mapping.pairs().collect::<Vec<_>>(),
            b.outcome.mapping.pairs().collect::<Vec<_>>(),
            "component fan-out must not change any mapping"
        );
        assert_eq!(a.outcome.qual_card, b.outcome.qual_card);
        assert!(b.outcome.stats.components >= 4, "pattern stayed split");
    }
    assert_eq!(seq_batch.stats.intra_parallel_components, 0);
    assert_eq!(seq_batch.stats.timeouts, 0);
    // Every solved component of every query is accounted.
    let expected: usize = par_batch
        .results
        .iter()
        .map(|r| r.outcome.stats.components)
        .sum();
    assert_eq!(par_batch.stats.intra_parallel_components, expected);
    assert!(par_batch.stats.intra_parallel_components >= 4 * fx.queries.len());
    assert_eq!(par_batch.stats.timeouts, 0, "no deadline set");
}

#[test]
fn zero_deadline_queries_time_out_without_affecting_others() {
    let fx = fixture(8);
    let engine = engine_with(2, None);
    // Deadlines are per query: give every even-indexed query a zero
    // budget, leave the odd ones unlimited.
    let mut queries = fx.queries.clone();
    for (i, q) in queries.iter_mut().enumerate() {
        if i % 2 == 0 {
            q.config.timeout = Some(Duration::ZERO);
        }
    }
    let batch = engine.execute_batch(&engine.prepare(&fx.data), &queries);
    assert_eq!(batch.stats.timeouts, 4, "the four zero-budget queries");
    assert_eq!(batch.stats.prepares, 1, "timeouts never force a re-prepare");

    let reference_engine = engine_with(1, None);
    let reference =
        reference_engine.execute_batch(&reference_engine.prepare(&fx.data), &fx.queries);
    for (i, (r, full)) in batch.results.iter().zip(&reference.results).enumerate() {
        if i % 2 == 0 {
            assert!(r.outcome.stats.timed_out, "query {i} had a zero budget");
            assert!(
                r.outcome.mapping.is_empty(),
                "zero budget: best-so-far is empty"
            );
        } else {
            assert!(!r.outcome.stats.timed_out);
            assert_eq!(
                r.outcome.mapping.pairs().collect::<Vec<_>>(),
                full.outcome.mapping.pairs().collect::<Vec<_>>(),
                "query {i}: neighbors' deadlines must not leak"
            );
        }
    }
}

#[test]
fn generous_deadline_changes_nothing() {
    let fx = fixture(4);
    let with_deadline = engine_with(2, Some(Duration::from_secs(3600)));
    let without = engine_with(2, None);
    let a = with_deadline.execute_batch(&with_deadline.prepare(&fx.data), &fx.queries);
    let b = without.execute_batch(&without.prepare(&fx.data), &fx.queries);
    assert_eq!(a.stats.timeouts, 0);
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(
            x.outcome.mapping.pairs().collect::<Vec<_>>(),
            y.outcome.mapping.pairs().collect::<Vec<_>>()
        );
        assert!(!x.outcome.stats.timed_out);
    }
}

#[test]
fn competing_injective_components_match_sequential() {
    // Two copies each of two windows: copies carry the same labels, so
    // in the 1-1 modes a copy wants the images its twin claimed, and the
    // parallel path must re-solve it under the mask. The window at 15 is
    // one 8-node component; the one at 30 splits into six, mostly
    // singletons, so both kinds of component compete.
    let fx = fixture_of_windows([15, 30, 15, 30], 8, 1);
    let seq = engine_with(1, None);
    let par = engine_with(4, None);
    let (seq_prepared, par_prepared) = (seq.prepare(&fx.data), par.prepare(&fx.data));
    for algorithm in [Algorithm::MaxCard1to1, Algorithm::MaxSim1to1] {
        let mut query = fx.queries[0].clone();
        query.config.algorithm = algorithm;
        let a = seq.execute(&seq_prepared, &query).outcome;
        let b = par.execute(&par_prepared, &query).outcome;
        assert_eq!(b.stats.components, 14, "{algorithm:?}: copies stay split");
        assert!(
            a.mapping.pairs().count() > 16,
            "{algorithm:?}: the twins find images of their own"
        );
        assert_eq!(
            a.mapping.pairs().collect::<Vec<_>>(),
            b.mapping.pairs().collect::<Vec<_>>(),
            "{algorithm:?}: the merge must reproduce the sequential masking run"
        );
        assert!(a.mapping.is_injective(), "{algorithm:?}: sequential");
        assert!(b.mapping.is_injective(), "{algorithm:?}: parallel");
        assert_eq!(a.qual_card, b.qual_card);
        assert_eq!(a.qual_sim, b.qual_sim);
    }
    assert_eq!(seq.stats().intra_parallel_components, 0);
    assert!(par.stats().intra_parallel_components > 0);
}
