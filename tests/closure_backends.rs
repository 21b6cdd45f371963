//! Integration tests for the pluggable reachability backends: the engine
//! must return bit-identical results whether the prepared graph answers
//! `reaches` from the dense bitset closure, the compressed chain index,
//! or the 2-hop labeling, across every plan kind, after live updates,
//! and through snapshots — while each compressed index actually delivers
//! the memory reduction it exists for on the family it targets.

use phom::prelude::*;
use std::sync::Arc;

fn engine_with(backend: ClosureBackend) -> Engine<phom::workloads::synthetic::Label> {
    Engine::new(EngineConfig {
        threads: 2,
        planner: PlannerConfig {
            closure_backend: backend,
            ..Default::default()
        },
    })
}

fn mixed_queries(
    inst: &phom::workloads::synthetic::SyntheticInstance,
    data: &DiGraph<phom::workloads::synthetic::Label>,
    count: usize,
) -> Vec<Query<phom::workloads::synthetic::Label>> {
    let pattern = Arc::new(inst.g1.clone());
    (0..count)
        .map(|i| {
            let mat = SimMatrix::from_fn(pattern.node_count(), data.node_count(), |v, u| {
                inst.pool.similarity(*pattern.label(v), *data.label(u))
            });
            let mut q = Query::new(Arc::clone(&pattern), mat);
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
            if i % 7 == 6 {
                q.config.restarts = Some(3);
            }
            q
        })
        .collect()
}

#[test]
fn engine_results_identical_under_every_backend() {
    let cfg = SyntheticConfig {
        m: 60,
        noise: 0.15,
        seed: 23,
    };
    let inst = generate_instance(&cfg, 1);
    let data = Arc::new(inst.g2.clone());
    let queries = mixed_queries(&inst, &data, 48);

    let dense_engine = engine_with(ClosureBackend::Dense);
    let dense = dense_engine.prepare(&data);
    let dense_batch = dense_engine.execute_batch(&dense, &queries);
    assert_eq!(dense.stats().closure_backend, "dense");

    for (backend, name) in [
        (ClosureBackend::Chain, "chain"),
        (ClosureBackend::TwoHop, "twohop"),
    ] {
        let engine = engine_with(backend);
        let prepared = engine.prepare(&data);
        let batch = engine.execute_batch(&prepared, &queries);
        assert_eq!(prepared.stats().closure_backend, name);
        // Same |E+| from every representation.
        assert_eq!(dense.stats().closure_edges, prepared.stats().closure_edges);
        for (i, (d, c)) in dense_batch.results.iter().zip(&batch.results).enumerate() {
            assert_eq!(d.plan.kind, c.plan.kind, "{name} query {i} plan diverged");
            assert_eq!(
                d.outcome.mapping.pairs().collect::<Vec<_>>(),
                c.outcome.mapping.pairs().collect::<Vec<_>>(),
                "{name} query {i} mapping diverged across backends"
            );
            assert_eq!(d.outcome.qual_card, c.outcome.qual_card, "{name} query {i}");
            assert_eq!(d.outcome.qual_sim, c.outcome.qual_sim, "{name} query {i}");
        }
    }
}

#[test]
fn chain_backend_stays_correct_after_live_updates() {
    let cfg = SyntheticConfig {
        m: 40,
        noise: 0.2,
        seed: 77,
    };
    let inst = generate_instance(&cfg, 1);
    let data = Arc::new(inst.g2.clone());
    let n = data.node_count();

    let chain_engine = engine_with(ClosureBackend::Chain);
    let mut rng = phom::graph::XorShift64::new(99);
    let mut prepared = chain_engine.prepare(&data);
    let mut incremental_rounds = 0usize;
    for round in 0..6 {
        let a = NodeId(rng.below(n) as u32);
        let b = NodeId(rng.below(n) as u32);
        let update = if prepared.graph().has_edge(a, b) {
            GraphUpdate::RemoveEdge(a, b)
        } else {
            GraphUpdate::InsertEdge(a, b)
        };
        let outcome = chain_engine.apply_updates(&prepared, &[update]);
        prepared = Arc::clone(&outcome.prepared);
        let current = prepared.graph();
        assert_eq!(
            prepared.stats().closure_backend,
            "chain",
            "round {round}: versions inherit the backend"
        );
        // Fallback accounting is consistent: the total is exactly the
        // two reasons combined, and a changed graph no longer *forces* a
        // rebuild — most rounds are maintained incrementally.
        assert_eq!(
            outcome.stats.backend_fallbacks,
            outcome.stats.fallback_damage + outcome.stats.fallback_unsupported,
            "round {round}"
        );
        if outcome.stats.applied > 0 {
            incremental_rounds += usize::from(outcome.stats.backend_fallbacks == 0);
        }
        // The maintained chain index answers exactly like a fresh dense
        // closure of the mutated graph.
        let reference = TransitiveClosure::new(&**current);
        for u in current.nodes() {
            for v in current.nodes() {
                assert_eq!(
                    prepared.closure().reaches(u, v),
                    reference.reaches(u, v),
                    "round {round}: {u:?}->{v:?}"
                );
            }
        }
    }
    assert!(chain_engine.stats().updates_applied > 0);
    assert!(
        incremental_rounds > 0,
        "at least one changed batch must be serviced without a rebuild"
    );
}

#[test]
fn batch_stats_report_tail_latencies() {
    let cfg = SyntheticConfig {
        m: 50,
        noise: 0.15,
        seed: 5,
    };
    let inst = generate_instance(&cfg, 1);
    let data = Arc::new(inst.g2.clone());
    let queries = mixed_queries(&inst, &data, 20);
    let engine = engine_with(ClosureBackend::Auto);
    let batch = engine.execute_batch(&engine.prepare(&data), &queries);
    let s = &batch.stats;
    assert!(s.last_batch_p50_micros > 0, "p50 recorded");
    assert!(s.last_batch_p95_micros >= s.last_batch_p50_micros);
    assert!(s.last_batch_p99_micros >= s.last_batch_p95_micros);
    let json = s.to_json();
    assert!(json.contains("\"last_batch_p99_micros\""), "{json}");
}

/// The acceptance bar of the closure-memory work: on a ≥10⁴-node sparse
/// graph the chain index must cost at most a quarter of the dense
/// backend's `memory_bytes` while answering identically.
#[test]
fn chain_index_meets_memory_target_on_sparse_10k_graph() {
    use phom::graph::preferential_attachment;
    // Sparse hierarchy (one out-edge per node): the live-web "follower
    // tree" regime the ROADMAP's closure-memory item targets.
    let g = Arc::new(preferential_attachment(10_000, 1, 9).map_labels(|_, l| format!("n{l}")));
    let dense = PreparedGraph::with_backend(
        Arc::clone(&g),
        ClosureBackend::Dense,
        DEFAULT_CHAIN_NODE_THRESHOLD,
    );
    let chain = PreparedGraph::with_backend(
        Arc::clone(&g),
        ClosureBackend::Chain,
        DEFAULT_CHAIN_NODE_THRESHOLD,
    );
    let dense_bytes = dense.stats().closure_memory_bytes;
    let chain_bytes = chain.stats().closure_memory_bytes;
    assert!(
        chain_bytes * 4 <= dense_bytes,
        "chain {chain_bytes} bytes must be <= 25% of dense {dense_bytes} bytes"
    );
    assert_eq!(dense.stats().closure_edges, chain.stats().closure_edges);
    // Spot-check identity on a node sample (the graph crate's property
    // tests cover the exhaustive version at smaller sizes).
    let sample = [0u32, 1, 17, 500, 4_999, 9_998, 9_999];
    for &a in &sample {
        for &b in &sample {
            assert_eq!(
                dense.closure().reaches(NodeId(a), NodeId(b)),
                chain.closure().reaches(NodeId(a), NodeId(b)),
                "{a}->{b}"
            );
        }
    }
    // Auto policy picks the chain index for graphs this large when the
    // threshold says so.
    let auto = PreparedGraph::with_backend(g, ClosureBackend::Auto, 10_000);
    assert_eq!(auto.stats().closure_backend, "chain");
}

/// The acceptance bar of the 2-hop work: on a dense-reach DAG — where
/// the chain index's entry lists measure *worse* than the dense bitset
/// it was meant to beat — the 2-hop labeling must cost at most half the
/// dense backend's `memory_bytes` while answering identically, and the
/// `Auto` policy must route the shape to it.
#[test]
fn twohop_meets_memory_target_on_dense_reach_graph() {
    use phom::graph::random_dag;
    let g = Arc::new(random_dag(4_000, 24_000, 13).map_labels(|_, l| format!("n{l}")));
    let dense = PreparedGraph::with_backend(
        Arc::clone(&g),
        ClosureBackend::Dense,
        DEFAULT_CHAIN_NODE_THRESHOLD,
    );
    let chain = PreparedGraph::with_backend(
        Arc::clone(&g),
        ClosureBackend::Chain,
        DEFAULT_CHAIN_NODE_THRESHOLD,
    );
    let hop = PreparedGraph::with_backend(
        Arc::clone(&g),
        ClosureBackend::TwoHop,
        DEFAULT_CHAIN_NODE_THRESHOLD,
    );
    let dense_bytes = dense.stats().closure_memory_bytes;
    let chain_bytes = chain.stats().closure_memory_bytes;
    let hop_bytes = hop.stats().closure_memory_bytes;
    assert!(
        chain_bytes * 100 >= dense_bytes * 127,
        "this family is the measured chain-loses regime \
         (chain {chain_bytes} vs dense {dense_bytes})"
    );
    assert!(
        hop_bytes * 2 <= dense_bytes,
        "twohop {hop_bytes} bytes must be <= 50% of dense {dense_bytes} bytes"
    );
    assert_eq!(dense.stats().closure_edges, hop.stats().closure_edges);
    let sample = [0u32, 1, 17, 500, 1_999, 3_998, 3_999];
    for &a in &sample {
        for &b in &sample {
            assert_eq!(
                dense.closure().reaches(NodeId(a), NodeId(b)),
                hop.closure().reaches(NodeId(a), NodeId(b)),
                "{a}->{b}"
            );
        }
    }
    // Auto routes the dense-reach shape to the 2-hop labeling once the
    // node threshold admits a compressed backend at all.
    let auto = PreparedGraph::with_backend(g, ClosureBackend::Auto, 1_000);
    assert_eq!(auto.stats().closure_backend, "twohop");
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The satellite invariant: each compressed backend answers the
        /// dense `reaches` relation on random cyclic graphs and DAGs —
        /// not just when freshly built, but **after** an `apply` batch
        /// (incremental chain maintenance / 2-hop rebuild) and after a
        /// snapshot round-trip of the post-apply version.
        #[test]
        fn prop_compressed_backends_equal_dense_after_apply_and_snapshot(
            n in 1usize..16,
            raw_edges in proptest::collection::vec((0usize..16, 0usize..16), 0..48),
            raw_updates in proptest::collection::vec(
                (any::<bool>(), 0usize..16, 0usize..16),
                1..16,
            ),
        ) {
            let mut g = DiGraph::with_capacity(n);
            for i in 0..n {
                g.add_node(format!("n{i}"));
            }
            for (a, b) in raw_edges {
                g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
            }
            let g = Arc::new(g);
            let updates: Vec<phom::dynamic::GraphUpdate> = raw_updates
                .iter()
                .map(|&(insert, a, b)| {
                    let (a, b) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
                    if insert {
                        phom::dynamic::GraphUpdate::InsertEdge(a, b)
                    } else {
                        phom::dynamic::GraphUpdate::RemoveEdge(a, b)
                    }
                })
                .collect();
            for backend in [ClosureBackend::Chain, ClosureBackend::TwoHop] {
                let p = Arc::new(PreparedGraph::with_backend(
                    Arc::clone(&g),
                    backend,
                    DEFAULT_CHAIN_NODE_THRESHOLD,
                ));
                let outcome = p.apply(&updates);
                let mutated = Arc::clone(outcome.prepared.graph());
                let reference = TransitiveClosure::new(&*mutated);
                for u in mutated.nodes() {
                    for v in mutated.nodes() {
                        prop_assert_eq!(
                            outcome.prepared.closure().reaches(u, v),
                            reference.reaches(u, v),
                            "{:?} post-apply: {:?}->{:?}", backend, u, v
                        );
                    }
                }
                let restored = PreparedGraph::load_snapshot(outcome.prepared.save_snapshot())
                    .expect("restore");
                prop_assert_eq!(
                    restored.stats().closure_backend.as_str(),
                    outcome.prepared.stats().closure_backend.as_str()
                );
                for u in mutated.nodes() {
                    for v in mutated.nodes() {
                        prop_assert_eq!(
                            restored.closure().reaches(u, v),
                            reference.reaches(u, v),
                            "{:?} post-roundtrip: {:?}->{:?}", backend, u, v
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn snapshots_roundtrip_under_every_backend_via_engine_types() {
    let g = Arc::new(phom::graph::graph_from_labels(
        &["a", "b", "c", "d", "e"],
        &[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")],
    ));
    for backend in [
        ClosureBackend::Dense,
        ClosureBackend::Chain,
        ClosureBackend::TwoHop,
    ] {
        let p = PreparedGraph::with_backend(Arc::clone(&g), backend, DEFAULT_CHAIN_NODE_THRESHOLD);
        let restored = PreparedGraph::load_snapshot(p.save_snapshot()).expect("restore");
        assert_eq!(
            restored.stats().closure_backend,
            p.stats().closure_backend,
            "{backend:?}"
        );
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    restored.closure().reaches(u, v),
                    p.closure().reaches(u, v),
                    "{backend:?}: {u:?}->{v:?}"
                );
            }
        }
    }
}
