//! The service layer's admission-control acceptance criterion: under an
//! overload run, a registry with a bounded queue depth sheds with
//! `ServiceError::Overloaded`, while the p99 *service* latency of the
//! admitted queries stays within 2× of an uncontended run of the same
//! queries. It is its own test target so that cargo runs it alone: the
//! p99 comparison must not compete for the host's CPUs with other tests
//! of the same binary.

use phom::prelude::*;
use std::sync::Arc;

/// The admission-control acceptance criterion: a registry with queue
/// depth 1 under an open-loop overload run sheds with
/// `ServiceError::Overloaded`, and the p99 *service* latency of the
/// admitted queries stays within 2× of the uncontended run (depth 1
/// means admitted queries execute alone — the whole point of shedding
/// instead of queueing is that admitted work is not slowed by the
/// backlog).
#[test]
fn overload_sheds_and_admitted_p99_stays_within_2x() {
    let inst = phom::workloads::generate_instance(
        &SyntheticConfig {
            m: 120,
            noise: 0.15,
            seed: 7,
        },
        1,
    );
    let data = Arc::new(inst.g2.clone());
    let pattern_nodes = 24;
    let pattern = {
        let keep: std::collections::BTreeSet<NodeId> =
            (0..pattern_nodes).map(|i| NodeId(i as u32)).collect();
        Arc::new(inst.g1.induced_subgraph(&keep).0)
    };
    let mk_query = || {
        let mat = SimMatrix::from_fn(pattern.node_count(), data.node_count(), |v, u| {
            inst.pool.similarity(*pattern.label(v), *data.label(u))
        });
        let mut q = Query::new(Arc::clone(&pattern), mat);
        q.config.xi = 0.75;
        q.config.restarts = Some(1);
        q
    };

    // Uncontended baseline: same query, sequential, unlimited admission.
    let baseline: Service<phom::workloads::synthetic::Label> = Service::new(
        ServiceConfig::builder()
            .sharding(ShardingConfig::disabled())
            .build(),
    );
    baseline
        .register("g".into(), Arc::clone(&data))
        .expect("register");
    let q = mk_query();
    let _warm = baseline.query("g", &q).expect("warm-up");
    let uncontended_p99 = || {
        let mut lat: Vec<u128> = (0..60)
            .map(|_| baseline.query("g", &q).expect("baseline query").micros)
            .collect();
        lat.sort_unstable();
        percentile_micros(&lat, 99)
    };

    // Overload: depth 1, four submitters hammering with brief backoff on
    // shed (so the one admitted query is not starved of CPU by spinners).
    let contended: Service<phom::workloads::synthetic::Label> = Service::new(
        ServiceConfig::builder()
            .sharding(ShardingConfig::disabled())
            .queue_depth(1)
            .build(),
    );
    contended
        .register("g".into(), Arc::clone(&data))
        .expect("register");
    let _warm = contended.query("g", &q).expect("warm-up");
    let overload_round = || {
        let admitted: std::sync::Mutex<Vec<u128>> = std::sync::Mutex::new(Vec::new());
        let shed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let admitted = &admitted;
                let shed = &shed;
                let contended = &contended;
                let q = &q;
                s.spawn(move || {
                    for _ in 0..60 {
                        match contended.query("g", q) {
                            Ok(r) => admitted
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(r.micros),
                            Err(ServiceError::Overloaded { .. }) => {
                                shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_micros(500));
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });
        let mut admitted = admitted.into_inner().unwrap_or_else(|e| e.into_inner());
        admitted.sort_unstable();
        (
            admitted.len(),
            percentile_micros(&admitted, 99),
            shed.load(std::sync::atomic::Ordering::Relaxed),
        )
    };

    // Timing comparison with up to 3 attempts: the test box also runs
    // other test binaries, so a single round can be polluted by external
    // CPU contention. Broken admission control (unbounded queueing) fails
    // every round by construction, so retrying does not mask the bug.
    // The baseline is re-measured around each overload round and the
    // larger p99 taken, absorbing drifting machine load.
    let mut total_shed = 0usize;
    let mut verdict = None;
    for _attempt in 0..3 {
        let base_before = uncontended_p99();
        let (admitted_count, admitted_p99, shed) = overload_round();
        let base_after = uncontended_p99();
        let base_p99 = base_before.max(base_after).max(1);
        total_shed += shed;
        assert!(admitted_count > 0, "some queries must be admitted");
        verdict = Some((admitted_p99, base_p99, admitted_count, shed));
        if admitted_p99 <= base_p99 * 2 {
            break;
        }
    }
    let (admitted_p99, base_p99, admitted_count, shed) = verdict.expect("at least one attempt");
    assert!(
        admitted_p99 <= base_p99 * 2,
        "admitted p99 {admitted_p99} us exceeds 2x the uncontended p99 {base_p99} us \
         ({admitted_count} admitted, {shed} shed)",
    );
    assert!(
        total_shed > 0,
        "4 hammering submitters at depth 1 must shed"
    );
    assert_eq!(
        contended.stats().queries_shed,
        total_shed,
        "the shed count is exported in ServiceStats"
    );
}
