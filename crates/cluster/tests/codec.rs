//! Wire-codec acceptance tests: round-trips across the whole envelope
//! (including live service responses with traces, stats, and
//! snapshots), plus the fuzz-hardening satellite — frame caps, declared
//! lengths past the budget, and byte-level corruption injection must
//! yield typed [`CodecError`]s, never a panic or an unbounded
//! allocation.

use phom_cluster::codec::{self, CodecError, FrameConfig, WireMessage, WIRE_MAGIC, WIRE_VERSION};
use phom_core::Algorithm;
use phom_dynamic::GraphUpdate;
use phom_engine::{EngineConfig, PlanKind, Query, QueryConfig};
use phom_graph::{DiGraph, NodeId};
use phom_service::{Request, Response, Service, ServiceConfig, ServiceError, ShardingConfig};
use phom_sim::{NodeWeights, SimMatrix};
use std::sync::Arc;
use std::time::Duration;

fn cfg() -> FrameConfig {
    FrameConfig::default()
}

/// Encodes, checks the frame layout, strips the prefix, and decodes.
fn round_trip(msg: &WireMessage) -> WireMessage {
    let frame = codec::encode(msg, &cfg()).expect("encode");
    let declared = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    assert_eq!(declared + 4, frame.len(), "prefix covers the payload");
    let magic = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]);
    assert_eq!(magic, WIRE_MAGIC);
    assert_eq!(frame[8], WIRE_VERSION);
    codec::decode(&frame[4..], &cfg()).expect("decode")
}

fn payload(msg: &WireMessage) -> Vec<u8> {
    codec::encode(msg, &cfg()).expect("encode")[4..].to_vec()
}

fn data_graph() -> Arc<DiGraph<String>> {
    let mut g: DiGraph<String> = DiGraph::new();
    for i in 0..6 {
        g.add_node(format!("l{}", i % 3));
    }
    for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)] {
        g.add_edge(NodeId(a), NodeId(b));
    }
    Arc::new(g)
}

fn pattern_graph() -> Arc<DiGraph<String>> {
    let mut p: DiGraph<String> = DiGraph::new();
    p.add_node("l0".to_owned());
    p.add_node("l1".to_owned());
    p.add_edge(NodeId(0), NodeId(1));
    Arc::new(p)
}

fn rich_query() -> Query<String> {
    let pattern = pattern_graph();
    let data = data_graph();
    let matrix = SimMatrix::label_equality(&pattern, &data);
    let mut query = Query::new(pattern, matrix);
    query.weights = Some(NodeWeights::from_vec(vec![0.25, 1.5]));
    query.config = QueryConfig {
        xi: 0.5,
        algorithm: Algorithm::MaxSim1to1,
        max_stretch: Some(2),
        restarts: Some(3),
        force_plan: Some(PlanKind::Approx),
        timeout: Some(Duration::new(1, 250)),
    };
    query
}

/// A live service whose responses exercise every payload the codec
/// carries (answers with traces, update summaries, snapshots, info,
/// stats).
fn live_service() -> Service<String> {
    let service = Service::new(
        ServiceConfig::builder()
            .sharding(ShardingConfig {
                max_shards: 2,
                min_shard_nodes: 0,
            })
            .engine(EngineConfig::default())
            .build(),
    );
    service
        .register("g".into(), data_graph())
        .expect("register");
    service
}

#[test]
fn heartbeats_round_trip() {
    for seq in [0u64, 1, u64::MAX] {
        match round_trip(&WireMessage::Ping { seq }) {
            WireMessage::Ping { seq: got } => assert_eq!(got, seq),
            other => panic!("ping decoded as {other:?}"),
        }
        match round_trip(&WireMessage::Pong { seq }) {
            WireMessage::Pong { seq: got } => assert_eq!(got, seq),
            other => panic!("pong decoded as {other:?}"),
        }
    }
}

#[test]
fn every_service_error_round_trips() {
    let errors = vec![
        ServiceError::NotFound { graph: "g".into() },
        ServiceError::AlreadyRegistered {
            graph: "a\"b".into(),
        },
        ServiceError::Overloaded {
            in_flight: 8,
            queue_depth: 4,
        },
        ServiceError::InvalidRequest("dims mismatch".into()),
        ServiceError::SnapshotVersion {
            found: 9,
            supported: 1,
        },
        ServiceError::SnapshotCorrupt("truncated".into()),
        ServiceError::Unsupported("prepared-graph snapshots require String-labeled graphs"),
    ];
    for e in errors {
        match round_trip(&WireMessage::Err(e.clone())) {
            WireMessage::Err(got) => assert_eq!(got, e),
            other => panic!("error decoded as {other:?}"),
        }
    }
    // Tag 4 is unassigned: an error frame carrying it is a typed
    // decode failure.
    let mut retired = payload(&WireMessage::Err(ServiceError::NotFound {
        graph: "g".into(),
    }));
    assert_eq!(
        retired[6], 0,
        "the error tag follows magic, version and kind"
    );
    retired[6] = 4;
    assert!(matches!(
        codec::decode(&retired, &cfg()),
        Err(CodecError::BadTag {
            what: "service error",
            tag: 4
        })
    ));
}

#[test]
fn query_request_round_trips_field_by_field() {
    let query = rich_query();
    let msg = WireMessage::Request(Request::Query {
        graph: "g".into(),
        query: query.clone(),
        trace: true,
    });
    let WireMessage::Request(Request::Query {
        graph,
        query: got,
        trace,
    }) = round_trip(&msg)
    else {
        panic!("query request decoded as a different variant");
    };
    assert_eq!(graph, "g");
    assert!(trace);
    assert_eq!(got.pattern.node_count(), query.pattern.node_count());
    assert_eq!(got.pattern.edge_count(), query.pattern.edge_count());
    for v in query.pattern.nodes() {
        assert_eq!(got.pattern.label(v), query.pattern.label(v));
    }
    assert_eq!(got.matrix.n1(), query.matrix.n1());
    assert_eq!(got.matrix.n2(), query.matrix.n2());
    for v in 0..query.matrix.n1() as u32 {
        for u in 0..query.matrix.n2() as u32 {
            assert_eq!(
                got.matrix.score(NodeId(v), NodeId(u)),
                query.matrix.score(NodeId(v), NodeId(u))
            );
        }
    }
    let (ww, gw) = (
        query.weights.expect("weights"),
        got.weights.expect("weights"),
    );
    for v in 0..2u32 {
        assert_eq!(gw.get(NodeId(v)), ww.get(NodeId(v)));
    }
    assert_eq!(format!("{:?}", got.config), format!("{:?}", query.config));
}

#[test]
fn updates_and_registration_requests_round_trip() {
    let updates = vec![
        GraphUpdate::InsertEdge(NodeId(0), NodeId(5)),
        GraphUpdate::RemoveEdge(NodeId(3), NodeId(4)),
    ];
    let msg = WireMessage::Request(Request::ApplyUpdates {
        graph: "g".into(),
        updates: updates.clone(),
    });
    let WireMessage::Request(Request::ApplyUpdates {
        graph,
        updates: got,
    }) = round_trip(&msg)
    else {
        panic!("update request decoded as a different variant");
    };
    assert_eq!(graph, "g");
    assert_eq!(got, updates);

    let snapshot = phom_graph::serialize::to_snapshot(&data_graph());
    let msg = WireMessage::RegisterPinned {
        name: "g#1".into(),
        graph: snapshot.clone(),
        compression: Some(phom_engine::CompressionPolicy::Always),
    };
    let WireMessage::RegisterPinned {
        name,
        graph,
        compression,
    } = round_trip(&msg)
    else {
        panic!("pinned registration decoded as a different variant");
    };
    assert_eq!(name, "g#1");
    assert_eq!(graph.to_vec(), snapshot.to_vec());
    assert_eq!(compression, Some(phom_engine::CompressionPolicy::Always));
    let restored = phom_graph::serialize::from_snapshot(graph).expect("nested snapshot");
    assert_eq!(restored.node_count(), 6);
}

#[test]
fn live_responses_round_trip() {
    let service = live_service();
    let mut query = rich_query();
    // Full-width matrix over the registered graph; default config so the
    // worker plans for itself (the reason string interning path).
    query.config = QueryConfig::builder().xi(0.5).restarts(1).build();

    // Answer without a trace: field-by-field.
    let answer = service.query("g", &query).expect("query");
    let WireMessage::Ok(Response::Answer(got)) =
        round_trip(&WireMessage::Ok(Response::Answer(answer.clone())))
    else {
        panic!("answer decoded as a different variant");
    };
    assert_eq!(
        got.mapping.pairs().collect::<Vec<_>>(),
        answer.mapping.pairs().collect::<Vec<_>>()
    );
    assert_eq!(got.qual_card, answer.qual_card);
    assert_eq!(got.qual_sim, answer.qual_sim);
    assert_eq!(
        got.plan, answer.plan,
        "plan reason must intern back to the static"
    );
    assert_eq!(got.shards_consulted, answer.shards_consulted);
    assert_eq!(got.timed_out, answer.timed_out);
    assert_eq!(got.micros, answer.micros);
    assert!(got.trace.is_none());

    // Traced answer: spans and counters survive via their JSON surface.
    let traced = service.query_traced("g", &query, true).expect("traced");
    let WireMessage::Ok(Response::Answer(got)) =
        round_trip(&WireMessage::Ok(Response::Answer(traced.clone())))
    else {
        panic!("traced answer decoded as a different variant");
    };
    let (want_tr, got_tr) = (traced.trace.expect("trace"), got.trace.expect("trace"));
    assert_eq!(got_tr.to_json(), want_tr.to_json());

    // Update summary.
    let summary = service
        .apply_updates("g", &[GraphUpdate::InsertEdge(NodeId(0), NodeId(2))])
        .expect("updates");
    let WireMessage::Ok(Response::Updated(got)) =
        round_trip(&WireMessage::Ok(Response::Updated(summary.clone())))
    else {
        panic!("summary decoded as a different variant");
    };
    assert_eq!(format!("{got:?}"), format!("{summary:?}"));

    // Info, snapshot, stats, evicted, batch.
    let Ok(Response::Info(info)) = service.handle(Request::GraphInfo { graph: "g".into() }) else {
        panic!("info request failed");
    };
    let WireMessage::Ok(Response::Info(got)) =
        round_trip(&WireMessage::Ok(Response::Info(info.clone())))
    else {
        panic!("info decoded as a different variant");
    };
    assert_eq!(got, info);

    let Ok(Response::Snapshot(snap)) = service.handle(Request::Snapshot { graph: "g".into() })
    else {
        panic!("snapshot request failed");
    };
    let WireMessage::Ok(Response::Snapshot(got)) =
        round_trip(&WireMessage::Ok(Response::Snapshot(snap.clone())))
    else {
        panic!("snapshot decoded as a different variant");
    };
    assert_eq!(got.to_vec(), snap.to_vec());

    let stats = Box::new(service.stats());
    let WireMessage::Ok(Response::Stats(got)) =
        round_trip(&WireMessage::Ok(Response::Stats(stats.clone())))
    else {
        panic!("stats decoded as a different variant");
    };
    assert_eq!(got.to_json(), stats.to_json());

    let batch = vec![answer.clone(), answer];
    let WireMessage::Ok(Response::Batch(got)) =
        round_trip(&WireMessage::Ok(Response::Batch(batch.clone())))
    else {
        panic!("batch decoded as a different variant");
    };
    assert_eq!(got.len(), batch.len());

    let WireMessage::Ok(Response::Evicted { graph }) =
        round_trip(&WireMessage::Ok(Response::Evicted { graph: "g".into() }))
    else {
        panic!("evicted decoded as a different variant");
    };
    assert_eq!(graph, "g");
}

#[test]
fn encode_rejects_frames_over_the_cap() {
    let msg = WireMessage::Request(Request::Query {
        graph: "g".into(),
        query: rich_query(),
        trace: false,
    });
    let tiny = FrameConfig {
        max_frame_bytes: 16,
    };
    match codec::encode(&msg, &tiny) {
        Err(CodecError::FrameTooLarge { declared, cap }) => {
            assert_eq!(cap, 16);
            assert!(declared > 16);
        }
        other => panic!("oversized encode must fail typed, got {other:?}"),
    }
}

#[test]
fn decode_rejects_bad_magic_version_and_kind() {
    let good = payload(&WireMessage::Ping { seq: 7 });

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        codec::decode(&bad_magic, &cfg()),
        Err(CodecError::BadMagic(_))
    ));

    let mut bad_version = good.clone();
    bad_version[4] = WIRE_VERSION + 1;
    assert!(matches!(
        codec::decode(&bad_version, &cfg()),
        Err(CodecError::UnsupportedVersion(_))
    ));

    let mut bad_kind = good.clone();
    bad_kind[5] = 0xEE;
    assert!(matches!(
        codec::decode(&bad_kind, &cfg()),
        Err(CodecError::BadTag { .. })
    ));

    let mut trailing = good;
    trailing.push(0);
    assert!(
        codec::decode(&trailing, &cfg()).is_err(),
        "trailing bytes must be rejected"
    );
}

#[test]
fn declared_lengths_past_the_budget_are_typed_errors() {
    // A string request whose inner length field claims far more bytes
    // than the payload holds: must fail as Truncated before allocating.
    let good = payload(&WireMessage::Request(Request::EvictGraph {
        name: "abc".into(),
    }));
    let mut lying = good;
    // Payload layout: magic(4) version(1) kind(1) req-tag(1) strlen(4)…
    lying[7..11].copy_from_slice(&u32::MAX.to_be_bytes());
    match codec::decode(&lying, &cfg()) {
        Err(CodecError::Truncated { needed, remaining }) => {
            assert!(needed > remaining);
        }
        other => panic!("hostile length must fail typed, got {other:?}"),
    }
}

/// A query payload over `pattern_graph()` with `matrix`, split around
/// the matrix: the bytes before it, and the bytes after it.
fn split_at_matrix(matrix: SimMatrix) -> (Vec<u8>, Vec<u8>) {
    let query = Query::new(pattern_graph(), matrix);
    let full = payload(&WireMessage::Request(Request::Query {
        graph: "g".into(),
        query: query.clone(),
        trace: false,
    }));
    // Payload layout: magic(4) version(1) kind(1) req-tag(1) name(4+1)
    // pattern-snapshot(4+len) matrix…
    let snap_len = u32::from_be_bytes([full[12], full[13], full[14], full[15]]) as usize;
    let at = 16 + snap_len;
    let dims: Vec<u8> = [query.matrix.n1(), query.matrix.n2()]
        .iter()
        .flat_map(|&d| (d as u32).to_be_bytes())
        .collect();
    assert_eq!(&full[at..at + 8], &dims[..], "matrix starts here");
    let rest = at + 8 + 4 * query.matrix.n1();
    (full[..at].to_vec(), full[rest..].to_vec())
}

/// A frame that declares a 65,536 × 65,536 matrix and holds none of its
/// cells is 256 KiB on the wire but 32 GiB dense: the decoder refuses it
/// before allocating.
#[test]
fn a_huge_matrix_with_no_cells_is_a_typed_error() {
    // A matrix with no non-zero cell: n1, n2, then one zero count a row.
    let (head, tail) = split_at_matrix(SimMatrix::new(2, 6));
    let side = 65_536u32;
    let mut frame = head;
    frame.extend_from_slice(&side.to_be_bytes());
    frame.extend_from_slice(&side.to_be_bytes());
    frame.resize(frame.len() + 4 * side as usize, 0);
    frame.extend_from_slice(&tail);
    match codec::decode(&frame, &cfg()) {
        Err(CodecError::FrameTooLarge { declared, cap }) => {
            assert_eq!(declared, 8 << 32);
            assert_eq!(cap, cfg().max_frame_bytes);
        }
        other => panic!("a huge empty matrix must fail typed, got {other:?}"),
    }
}

/// The frame cap bounds the dense matrices of a whole frame, not each
/// one: a query batch of matrices that each fit under the cap but
/// together exceed it is refused, though its few bytes on the wire are
/// far under the cap.
#[test]
fn a_batch_of_matrices_over_the_cap_together_is_a_typed_error() {
    let cap = FrameConfig {
        max_frame_bytes: 1 << 20,
    };
    // 2 × 40,000 cells: 640,000 dense bytes, 16 bytes on the wire.
    let batch = |queries: usize| {
        let query = Query::new(pattern_graph(), SimMatrix::new(2, 40_000));
        payload(&WireMessage::Request(Request::QueryBatch {
            graph: "g".into(),
            queries: vec![query; queries],
        }))
    };
    match codec::decode(&batch(1), &cap) {
        Ok(WireMessage::Request(Request::QueryBatch { queries, .. })) => {
            assert_eq!(queries.len(), 1);
            assert_eq!(queries[0].matrix.n2(), 40_000);
        }
        other => panic!("one matrix under the cap decodes, got {other:?}"),
    }
    let two = batch(2);
    assert!(two.len() < 4096, "the batch is small on the wire");
    match codec::decode(&two, &cap) {
        Err(CodecError::FrameTooLarge { declared, cap }) => {
            assert_eq!(declared, 2 * 640_000);
            assert_eq!(cap, 1 << 20);
        }
        other => panic!("two matrices over the cap together must fail typed, got {other:?}"),
    }
}

/// Cells out of column order, past the last column, or scoring +0.0,
/// NaN or above 1 are typed errors; a stored -0.0 round-trips.
#[test]
fn sparse_matrix_cells_are_checked() {
    let (head, tail) = split_at_matrix(SimMatrix::new(2, 6));
    let frame_with = |row0: &[(u32, f64)]| {
        let mut frame = head.clone();
        frame.extend_from_slice(&2u32.to_be_bytes());
        frame.extend_from_slice(&6u32.to_be_bytes());
        frame.extend_from_slice(&(row0.len() as u32).to_be_bytes());
        for &(u, s) in row0 {
            frame.extend_from_slice(&u.to_be_bytes());
            frame.extend_from_slice(&s.to_bits().to_be_bytes());
        }
        frame.extend_from_slice(&0u32.to_be_bytes());
        frame.extend_from_slice(&tail);
        codec::decode(&frame, &cfg())
    };
    for bad in [
        vec![(3, 0.5), (3, 0.5)],
        vec![(4, 0.5), (2, 0.5)],
        vec![(6, 0.5)],
        vec![(1, 0.0)],
        vec![(1, f64::NAN)],
        vec![(1, 1.5)],
    ] {
        assert!(
            matches!(frame_with(&bad), Err(CodecError::Corrupt(_))),
            "{bad:?} must be rejected"
        );
    }
    let Ok(WireMessage::Request(Request::Query { query, .. })) = frame_with(&[(0, -0.0), (5, 1.0)])
    else {
        panic!("well-formed cells decode");
    };
    let s = query.matrix.score(NodeId(0), NodeId(0));
    assert!(s == 0.0 && s.is_sign_negative());
    assert_eq!(query.matrix.score(NodeId(0), NodeId(5)), 1.0);
    assert_eq!(query.matrix.score(NodeId(1), NodeId(5)), 0.0);
}

#[test]
fn every_truncation_is_a_typed_error() {
    let service = live_service();
    let mut query = rich_query();
    query.config = QueryConfig::builder().xi(0.5).restarts(1).build();
    let traced = service.query_traced("g", &query, true).expect("traced");
    let rich = vec![
        payload(&WireMessage::Request(Request::Query {
            graph: "g".into(),
            query: rich_query(),
            trace: true,
        })),
        payload(&WireMessage::Ok(Response::Answer(traced))),
        payload(&WireMessage::Ok(Response::Stats(Box::new(service.stats())))),
    ];
    for p in rich {
        for len in 0..p.len() {
            assert!(
                codec::decode(&p[..len], &cfg()).is_err(),
                "a {len}-byte prefix of a {}-byte payload must not decode",
                p.len()
            );
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-trip over randomized query envelopes: every decoded
        /// field agrees with the source.
        #[test]
        fn prop_query_round_trips(
            seed in any::<u64>(),
            xi in 0.0f64..1.0,
            trace in any::<bool>(),
        ) {
            let mut rng = phom_graph::XorShift64::new(seed);
            let mut data: DiGraph<String> = DiGraph::new();
            let n = 2 + rng.below(8);
            for i in 0..n {
                data.add_node(format!("l{}", i % 3));
            }
            for _ in 0..rng.below(2 * n) {
                data.add_edge(
                    NodeId(rng.below(n) as u32),
                    NodeId(rng.below(n) as u32),
                );
            }
            let data = Arc::new(data);
            let mut pattern: DiGraph<String> = DiGraph::new();
            let m = 1 + rng.below(4);
            for i in 0..m {
                pattern.add_node(format!("l{}", i % 4));
            }
            for _ in 0..rng.below(m + 1) {
                pattern.add_edge(
                    NodeId(rng.below(m) as u32),
                    NodeId(rng.below(m) as u32),
                );
            }
            let pattern = Arc::new(pattern);
            let matrix = SimMatrix::label_equality(&pattern, &data);
            let mut query = Query::new(Arc::clone(&pattern), matrix);
            query.config.xi = xi;
            let msg = WireMessage::Request(Request::Query {
                graph: format!("g{seed}"),
                query,
                trace,
            });
            let WireMessage::Request(Request::Query { graph, query: got, trace: got_trace }) =
                round_trip(&msg)
            else {
                panic!("decoded as a different variant");
            };
            prop_assert_eq!(graph, format!("g{seed}"));
            prop_assert_eq!(got_trace, trace);
            prop_assert_eq!(got.pattern.node_count(), m);
            prop_assert_eq!(got.matrix.n2(), n);
            prop_assert_eq!(got.config.xi, xi);
            for v in 0..m as u32 {
                for u in 0..n as u32 {
                    prop_assert_eq!(
                        got.matrix.score(NodeId(v), NodeId(u)),
                        xi_free_score(&pattern, &data, v, u)
                    );
                }
            }
        }

        /// Corruption injection: flipping any single byte of a valid
        /// payload decodes to a typed result — Ok (the flip hit a
        /// don't-care bit) or a CodecError — but never panics and never
        /// misreports the frame as a different valid message silently
        /// growing memory.
        #[test]
        fn prop_single_byte_corruption_never_panics(
            pos_seed in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let p = payload(&WireMessage::Request(Request::Query {
                graph: "g".into(),
                query: rich_query(),
                trace: true,
            }));
            let pos = (pos_seed as usize) % p.len();
            let mut corrupt = p;
            corrupt[pos] ^= flip;
            // Typed outcome either way; the assertion is "returns".
            let _ = codec::decode(&corrupt, &cfg());
        }

        /// Random garbage never panics the decoder.
        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = codec::decode(&bytes, &cfg());
        }
    }

    fn xi_free_score(
        pattern: &Arc<DiGraph<String>>,
        data: &Arc<DiGraph<String>>,
        v: u32,
        u: u32,
    ) -> f64 {
        if pattern.label(NodeId(v)) == data.label(NodeId(u)) {
            1.0
        } else {
            0.0
        }
    }
}
