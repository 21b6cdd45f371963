//! Trace-overhead guard: the disabled-trace path must not construct
//! trace state. `phom_trace::constructions()` counts every
//! `QueryTrace::new()` process-wide, so this test lives in its own
//! integration-test binary — no other test here may create traces
//! concurrently — and asserts the counter stays flat across untraced
//! engine and service executions, then moves for exactly the traced
//! ones.

use phom::prelude::*;
use std::sync::Arc;

fn fixture() -> (Arc<DiGraph<String>>, Query<String>) {
    let data = Arc::new(graph_from_labels(
        &["a", "b", "c", "d"],
        &[("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")],
    ));
    let pattern = Arc::new(graph_from_labels(&["a", "d"], &[("a", "d")]));
    let matrix = SimMatrix::label_equality(&pattern, &data);
    (data, Query::new(pattern, matrix))
}

#[test]
fn untraced_paths_construct_no_trace_state() {
    let (data, query) = fixture();

    // Engine layer: execute / execute_traced(false) / batch.
    let engine: Engine<String> = Engine::default();
    let prepared = engine.prepare(&data);
    let before = phom::trace::constructions();
    for _ in 0..32 {
        let r = engine.execute(&prepared, &query);
        assert!(r.trace.is_none());
    }
    let batch = engine.execute_batch(&prepared, &[query.clone(), query.clone()]);
    assert!(batch.results.iter().all(|r| r.trace.is_none()));
    assert_eq!(
        phom::trace::constructions(),
        before,
        "untraced Engine::execute must not allocate trace state"
    );

    // Service layer: query / query_batch / handle(trace: false).
    let service: Service<String> = Service::new(ServiceConfig::default());
    service
        .register("g".into(), Arc::clone(&data))
        .expect("register");
    let before = phom::trace::constructions();
    for _ in 0..8 {
        let r = service.query("g", &query).expect("query");
        assert!(r.trace.is_none());
    }
    service
        .query_batch("g", &[query.clone(), query.clone()])
        .expect("batch");
    assert_eq!(
        phom::trace::constructions(),
        before,
        "untraced Service::query must not allocate trace state"
    );

    // And the traced path accounts for exactly one trace per query.
    let before = phom::trace::constructions();
    let traced = service.query_traced("g", &query, true).expect("traced");
    assert!(traced.trace.is_some());
    assert_eq!(phom::trace::constructions(), before + 1);
}

/// The same zero-alloc contract for the event journal:
/// `phom_trace::event_constructions()` counts every journal `Event`
/// built process-wide, and with the journal ring off (and no sink
/// attached) every emission site must reduce to a branch that
/// constructs nothing — across queries, update batches, snapshots,
/// evictions, and stats/SLO reads.
#[test]
fn disabled_journal_paths_construct_no_events() {
    let (data, query) = fixture();
    let service: Service<String> = Service::new(
        ServiceConfig::builder()
            .journal_capacity(0)
            .flight_capacity(0)
            .build(),
    );
    let before = phom::trace::event_constructions();
    service
        .register("g".into(), Arc::clone(&data))
        .expect("register");
    for _ in 0..16 {
        service.query("g", &query).expect("query");
    }
    service
        .apply_updates("g", &[GraphUpdate::InsertEdge(NodeId(3), NodeId(0))])
        .expect("update");
    service.snapshot("g").expect("snapshot");
    let stats = service.stats();
    service
        .handle(Request::EvictGraph { name: "g".into() })
        .expect("evict");
    assert_eq!(
        phom::trace::event_constructions(),
        before,
        "journal-off service paths must not build events"
    );
    assert_eq!(stats.journal_events, 0);
    assert_eq!(stats.flight_recorded, 0, "flight off records nothing");
}
