//! The wire codec: a length-prefixed, versioned binary encoding of the
//! full service envelope ([`Request`] / [`Response`] / [`ServiceError`])
//! plus the cluster-control messages (heartbeats, pinned registration)
//! over the `bytes` seam.
//!
//! Layout of one frame on the wire:
//!
//! ```text
//! [u32 payload_len] [u32 WIRE_MAGIC] [u8 WIRE_VERSION] [u8 kind] [body…]
//! ```
//!
//! All integers are big-endian; `usize` travels as `u64`, `u128` as two
//! `u64` halves, `f64` as its IEEE-754 bit pattern. Decoding is
//! **budget-checked**: every declared length and count is validated
//! against the remaining payload (and the configurable
//! [`FrameConfig::max_frame_bytes`] cap) before any allocation, so a
//! truncated, corrupt, or hostile frame yields a typed [`CodecError`] —
//! never a panic, never an unbounded allocation.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use phom_core::{Algorithm, PHomMapping};
use phom_dynamic::GraphUpdate;
use phom_engine::{
    CompressionPolicy, Plan, PlanKind, Query, QueryConfig, QueryTrace, Span, SpanKind,
    TraceCounters, UpdateStats,
};
use phom_graph::{DiGraph, NodeId};
use phom_service::{
    GraphInfo, LatencyHistogram, PlanHistograms, QueryResponse, Request, Response, ServiceError,
    ServiceStats, UpdateSummary,
};
use phom_sim::{NodeWeights, SimMatrix};
use phom_trace::{ObjectiveStatus, SloStatus, WINDOW_BUCKETS};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Magic tag leading every payload (`"pHC1"`).
pub const WIRE_MAGIC: u32 = 0x7048_4331;

/// Wire format version this build reads and writes.
pub const WIRE_VERSION: u8 = 1;

/// Default frame cap: 64 MiB, far above any realistic envelope but low
/// enough that a hostile length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Codec limits shared by both ends of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameConfig {
    /// Frames whose declared payload length exceeds this are rejected
    /// before any payload byte is read or allocated.
    pub max_frame_bytes: usize,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Every way a frame can fail to decode (or exceed limits on encode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before a declared field.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A frame declared (or would produce) a payload over the cap.
    FrameTooLarge {
        /// Declared / produced payload length.
        declared: usize,
        /// The configured [`FrameConfig::max_frame_bytes`].
        cap: usize,
    },
    /// The payload did not start with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// The payload's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// An enum tag byte had no meaning for its field.
    BadTag {
        /// Which field was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A structurally invalid value (out-of-range float, inconsistent
    /// counts, nested snapshot garbage, …).
    Corrupt(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated frame: needed {needed} bytes, {remaining} left"
                )
            }
            CodecError::FrameTooLarge { declared, cap } => {
                write!(f, "frame of {declared} bytes exceeds the {cap}-byte cap")
            }
            CodecError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            CodecError::BadTag { what, tag } => write!(f, "bad tag {tag} decoding {what}"),
            CodecError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Everything that travels between a router and a worker.
#[derive(Debug, Clone)]
pub enum WireMessage {
    /// A service request (the worker answers with `Ok` or `Err`).
    Request(Request<String>),
    /// A successful response.
    Ok(Response),
    /// A failed response.
    Err(ServiceError),
    /// Heartbeat probe; the worker echoes `seq` back in a `Pong`.
    Ping {
        /// Echo token matching probes to answers.
        seq: u64,
    },
    /// Heartbeat answer.
    Pong {
        /// The probed sequence number, echoed.
        seq: u64,
    },
    /// Cluster-control registration: register the serialized graph under
    /// `name` with an explicit compression override, so a worker-held
    /// shard prepares under the *graph-wide* pinned decision and routed
    /// answers stay bit-identical to a single-process run.
    RegisterPinned {
        /// Registry name on the worker.
        name: String,
        /// `phom_graph::serialize::to_snapshot` bytes of the shard graph.
        graph: Bytes,
        /// The pinned policy; `None` keeps the worker's engine default.
        compression: Option<CompressionPolicy>,
    },
}

// ---------------------------------------------------------------------
// Primitive writers.
// ---------------------------------------------------------------------

fn put_usize(buf: &mut BytesMut, v: usize) {
    buf.put_u64(v as u64);
}

fn put_u128(buf: &mut BytesMut, v: u128) {
    buf.put_u64((v >> 64) as u64);
    buf.put_u64(v as u64);
}

fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_u64(v.to_bits());
}

fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(u8::from(v));
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

fn put_opt_usize(buf: &mut BytesMut, v: Option<usize>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            put_usize(buf, v);
        }
        None => buf.put_u8(0),
    }
}

fn put_opt_duration(buf: &mut BytesMut, v: Option<Duration>) {
    match v {
        Some(d) => {
            buf.put_u8(1);
            buf.put_u64(d.as_secs());
            buf.put_u32(d.subsec_nanos());
        }
        None => buf.put_u8(0),
    }
}

// ---------------------------------------------------------------------
// The budget-checked reader.
// ---------------------------------------------------------------------

/// A cursor over one payload that refuses to read past the end.
struct Dec {
    buf: Bytes,
}

impl Dec {
    fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.buf.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.buf.remaining(),
            });
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    fn usize_(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?)
            .map_err(|_| CodecError::Corrupt("usize field exceeds this platform".into()))
    }

    fn u128_(&mut self) -> Result<u128, CodecError> {
        let hi = self.u64()?;
        let lo = self.u64()?;
        Ok(((hi as u128) << 64) | lo as u128)
    }

    fn f64_(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool_(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    /// A declared-length string, validated against the remaining budget
    /// before allocation.
    fn str_(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let raw = self.buf.split_to(len).to_vec();
        String::from_utf8(raw).map_err(|_| CodecError::Corrupt("string is not UTF-8".into()))
    }

    /// A declared-length byte blob, validated against the remaining
    /// budget before allocation.
    fn bytes_(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        Ok(self.buf.split_to(len))
    }

    /// A declared element count whose elements occupy at least
    /// `min_elem_bytes` each; rejects counts the remaining payload
    /// cannot possibly hold, so `Vec::with_capacity` stays bounded.
    fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
        let n = self.usize_()?;
        let floor = n
            .checked_mul(min_elem_bytes)
            .ok_or_else(|| CodecError::Corrupt(format!("{what}: count overflows")))?;
        self.need(floor)?;
        Ok(n)
    }

    fn opt_usize(&mut self) -> Result<Option<usize>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize_()?)),
            tag => Err(CodecError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    fn opt_duration(&mut self) -> Result<Option<Duration>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let secs = self.u64()?;
                let nanos = self.u32()?;
                if nanos >= 1_000_000_000 {
                    return Err(CodecError::Corrupt("duration nanos out of range".into()));
                }
                Ok(Some(Duration::new(secs, nanos)))
            }
            tag => Err(CodecError::BadTag {
                what: "duration",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Interning for `&'static str` fields.
// ---------------------------------------------------------------------

/// The planner's closed set of plan rationales (see
/// `phom_engine::plan_query_with`); decoding maps wire strings back to
/// these statics, with a marked fallback for strings minted by a newer
/// peer.
const KNOWN_PLAN_REASONS: [&str; 5] = [
    "forced by query config",
    "stretch bound requires the hop-bounded closure",
    "edgeless pattern: no path constraints to satisfy",
    "tiny candidate set: exact branch-and-bound is affordable",
    "greedy approximation with the Theorem 5.1 guarantee",
];

/// Fallback rationale for wire strings outside [`KNOWN_PLAN_REASONS`].
const DECODED_PLAN_REASON: &str = "decoded from wire";

/// Known `ServiceError::Unsupported` payloads (see `phom_service`).
const KNOWN_UNSUPPORTED: [&str; 1] = ["prepared-graph snapshots require String-labeled graphs"];

/// Fallback for unknown `Unsupported` payloads.
const DECODED_UNSUPPORTED: &str = "unsupported operation (decoded from wire)";

fn intern(s: &str, table: &[&'static str], fallback: &'static str) -> &'static str {
    table.iter().find(|k| **k == s).copied().unwrap_or(fallback)
}

// ---------------------------------------------------------------------
// Frame entry points.
// ---------------------------------------------------------------------

/// Encodes `msg` into a full frame (4-byte length prefix included),
/// rejecting payloads over the cap.
pub fn encode(msg: &WireMessage, cfg: &FrameConfig) -> Result<Vec<u8>, CodecError> {
    let mut buf = BytesMut::with_capacity(256);
    buf.put_u32(WIRE_MAGIC);
    buf.put_u8(WIRE_VERSION);
    match msg {
        WireMessage::Request(req) => {
            buf.put_u8(0);
            encode_request(&mut buf, req)?;
        }
        WireMessage::Ok(resp) => {
            buf.put_u8(1);
            encode_response(&mut buf, resp);
        }
        WireMessage::Err(err) => {
            buf.put_u8(2);
            encode_error(&mut buf, err);
        }
        WireMessage::Ping { seq } => {
            buf.put_u8(3);
            buf.put_u64(*seq);
        }
        WireMessage::Pong { seq } => {
            buf.put_u8(4);
            buf.put_u64(*seq);
        }
        WireMessage::RegisterPinned {
            name,
            graph,
            compression,
        } => {
            buf.put_u8(5);
            put_str(&mut buf, name);
            put_bytes(&mut buf, graph.as_ref());
            match compression {
                None => buf.put_u8(0),
                Some(c) => {
                    buf.put_u8(1);
                    buf.put_u8(compression_tag(*c));
                }
            }
        }
    }
    let payload = buf.freeze().to_vec();
    if payload.len() > cfg.max_frame_bytes {
        return Err(CodecError::FrameTooLarge {
            declared: payload.len(),
            cap: cfg.max_frame_bytes,
        });
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Decodes one payload (the frame body *after* its length prefix).
pub fn decode(payload: &[u8], cfg: &FrameConfig) -> Result<WireMessage, CodecError> {
    if payload.len() > cfg.max_frame_bytes {
        return Err(CodecError::FrameTooLarge {
            declared: payload.len(),
            cap: cfg.max_frame_bytes,
        });
    }
    let mut d = Dec {
        buf: Bytes::from(payload.to_vec()),
    };
    let magic = d.u32()?;
    if magic != WIRE_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let msg = match d.u8()? {
        0 => WireMessage::Request(decode_request(&mut d)?),
        1 => WireMessage::Ok(decode_response(&mut d)?),
        2 => WireMessage::Err(decode_error(&mut d)?),
        3 => WireMessage::Ping { seq: d.u64()? },
        4 => WireMessage::Pong { seq: d.u64()? },
        5 => {
            let name = d.str_()?;
            let graph = d.bytes_()?;
            let compression = match d.u8()? {
                0 => None,
                1 => Some(compression_from_tag(d.u8()?)?),
                tag => {
                    return Err(CodecError::BadTag {
                        what: "compression option",
                        tag,
                    })
                }
            };
            WireMessage::RegisterPinned {
                name,
                graph,
                compression,
            }
        }
        tag => {
            return Err(CodecError::BadTag {
                what: "message kind",
                tag,
            })
        }
    };
    if !d.buf.is_empty() {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes after message",
            d.buf.remaining()
        )));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------
// Enum tags.
// ---------------------------------------------------------------------

fn compression_tag(c: CompressionPolicy) -> u8 {
    match c {
        CompressionPolicy::Auto => 0,
        CompressionPolicy::Always => 1,
        CompressionPolicy::Never => 2,
    }
}

fn compression_from_tag(tag: u8) -> Result<CompressionPolicy, CodecError> {
    match tag {
        0 => Ok(CompressionPolicy::Auto),
        1 => Ok(CompressionPolicy::Always),
        2 => Ok(CompressionPolicy::Never),
        tag => Err(CodecError::BadTag {
            what: "compression",
            tag,
        }),
    }
}

fn plan_kind_tag(k: PlanKind) -> u8 {
    match k {
        PlanKind::Exact => 0,
        PlanKind::Approx => 1,
        PlanKind::Bounded => 2,
        PlanKind::Baseline => 3,
    }
}

fn plan_kind_from_tag(tag: u8) -> Result<PlanKind, CodecError> {
    match tag {
        0 => Ok(PlanKind::Exact),
        1 => Ok(PlanKind::Approx),
        2 => Ok(PlanKind::Bounded),
        3 => Ok(PlanKind::Baseline),
        tag => Err(CodecError::BadTag {
            what: "plan kind",
            tag,
        }),
    }
}

fn algorithm_tag(a: Algorithm) -> u8 {
    match a {
        Algorithm::MaxCard => 0,
        Algorithm::MaxCard1to1 => 1,
        Algorithm::MaxSim => 2,
        Algorithm::MaxSim1to1 => 3,
    }
}

fn algorithm_from_tag(tag: u8) -> Result<Algorithm, CodecError> {
    match tag {
        0 => Ok(Algorithm::MaxCard),
        1 => Ok(Algorithm::MaxCard1to1),
        2 => Ok(Algorithm::MaxSim),
        3 => Ok(Algorithm::MaxSim1to1),
        tag => Err(CodecError::BadTag {
            what: "algorithm",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------
// Graph snapshots (nested payloads).
// ---------------------------------------------------------------------

fn put_graph(buf: &mut BytesMut, g: &DiGraph<String>) {
    let snap = phom_graph::serialize::to_snapshot(g);
    put_bytes(buf, snap.as_ref());
}

fn get_graph(d: &mut Dec) -> Result<DiGraph<String>, CodecError> {
    let raw = d.bytes_()?;
    phom_graph::serialize::from_snapshot(raw)
        .map_err(|e| CodecError::Corrupt(format!("nested graph snapshot: {e}")))
}

// ---------------------------------------------------------------------
// Query / plan / mapping.
// ---------------------------------------------------------------------

fn encode_query_config(buf: &mut BytesMut, c: &QueryConfig) {
    put_f64(buf, c.xi);
    buf.put_u8(algorithm_tag(c.algorithm));
    put_opt_usize(buf, c.max_stretch);
    put_opt_usize(buf, c.restarts);
    match c.force_plan {
        None => buf.put_u8(0),
        Some(k) => {
            buf.put_u8(1);
            buf.put_u8(plan_kind_tag(k));
        }
    }
    put_opt_duration(buf, c.timeout);
    put_opt_usize(buf, c.intra_workers);
    put_bool(buf, c.partition);
    put_bool(buf, c.compress);
}

fn decode_query_config(d: &mut Dec) -> Result<QueryConfig, CodecError> {
    let xi = d.f64_()?;
    if !xi.is_finite() {
        return Err(CodecError::Corrupt("xi is not finite".into()));
    }
    let algorithm = algorithm_from_tag(d.u8()?)?;
    let max_stretch = d.opt_usize()?;
    let restarts = d.opt_usize()?;
    let force_plan = match d.u8()? {
        0 => None,
        1 => Some(plan_kind_from_tag(d.u8()?)?),
        tag => {
            return Err(CodecError::BadTag {
                what: "force_plan option",
                tag,
            })
        }
    };
    let timeout = d.opt_duration()?;
    let intra_workers = d.opt_usize()?;
    let partition = d.bool_()?;
    let compress = d.bool_()?;
    Ok(QueryConfig {
        xi,
        algorithm,
        max_stretch,
        restarts,
        force_plan,
        timeout,
        intra_workers,
        partition,
        compress,
    })
}

fn encode_matrix(buf: &mut BytesMut, m: &SimMatrix) {
    buf.put_u32(m.n1() as u32);
    buf.put_u32(m.n2() as u32);
    for v in 0..m.n1() {
        for u in 0..m.n2() {
            put_f64(buf, m.score(NodeId(v as u32), NodeId(u as u32)));
        }
    }
}

fn decode_matrix(d: &mut Dec) -> Result<SimMatrix, CodecError> {
    let n1 = d.u32()? as usize;
    let n2 = d.u32()? as usize;
    let cells = n1
        .checked_mul(n2)
        .and_then(|c| c.checked_mul(8))
        .ok_or_else(|| CodecError::Corrupt("matrix dimensions overflow".into()))?;
    d.need(cells)?;
    let mut m = SimMatrix::new(n1, n2);
    for v in 0..n1 {
        for u in 0..n2 {
            let s = d.f64_()?;
            // `SimMatrix::set` panics outside `[0, 1]`; a corrupt frame
            // must become an error instead.
            if !(0.0..=1.0).contains(&s) {
                return Err(CodecError::Corrupt(format!(
                    "matrix score {s} outside [0,1]"
                )));
            }
            m.set(NodeId(v as u32), NodeId(u as u32), s);
        }
    }
    Ok(m)
}

fn encode_weights(buf: &mut BytesMut, w: Option<&NodeWeights>) {
    match w {
        None => buf.put_u8(0),
        Some(w) => {
            buf.put_u8(1);
            put_usize(buf, w.len());
            for x in w.as_slice() {
                put_f64(buf, *x);
            }
        }
    }
}

fn decode_weights(d: &mut Dec) -> Result<Option<NodeWeights>, CodecError> {
    match d.u8()? {
        0 => Ok(None),
        1 => {
            let n = d.count(8, "weights")?;
            let mut w = Vec::with_capacity(n);
            for _ in 0..n {
                let x = d.f64_()?;
                // `NodeWeights::from_vec` panics on negative or
                // non-finite weights; reject them here instead.
                if !x.is_finite() || x < 0.0 {
                    return Err(CodecError::Corrupt(format!("weight {x} invalid")));
                }
                w.push(x);
            }
            Ok(Some(NodeWeights::from_vec(w)))
        }
        tag => Err(CodecError::BadTag {
            what: "weights option",
            tag,
        }),
    }
}

fn encode_query(buf: &mut BytesMut, q: &Query<String>) {
    put_graph(buf, &q.pattern);
    encode_matrix(buf, &q.matrix);
    encode_weights(buf, q.weights.as_ref());
    encode_query_config(buf, &q.config);
}

fn decode_query(d: &mut Dec) -> Result<Query<String>, CodecError> {
    let pattern = Arc::new(get_graph(d)?);
    let matrix = decode_matrix(d)?;
    if matrix.n1() != pattern.node_count() {
        return Err(CodecError::Corrupt(format!(
            "matrix rows {} != pattern nodes {}",
            matrix.n1(),
            pattern.node_count()
        )));
    }
    let weights = decode_weights(d)?;
    let config = decode_query_config(d)?;
    let mut q = Query::new(pattern, matrix);
    q.weights = weights;
    q.config = config;
    Ok(q)
}

fn encode_plan(buf: &mut BytesMut, p: &Plan) {
    buf.put_u8(plan_kind_tag(p.kind));
    put_usize(buf, p.restarts);
    put_str(buf, p.reason);
}

fn decode_plan(d: &mut Dec) -> Result<Plan, CodecError> {
    let kind = plan_kind_from_tag(d.u8()?)?;
    let restarts = d.usize_()?;
    let reason = d.str_()?;
    Ok(Plan {
        kind,
        restarts,
        reason: intern(&reason, &KNOWN_PLAN_REASONS, DECODED_PLAN_REASON),
    })
}

fn encode_mapping(buf: &mut BytesMut, m: &PHomMapping) {
    put_usize(buf, m.pattern_size());
    put_usize(buf, m.len());
    for (v, u) in m.pairs() {
        buf.put_u32(v.0);
        buf.put_u32(u.0);
    }
}

fn decode_mapping(d: &mut Dec) -> Result<PHomMapping, CodecError> {
    let n1 = d.usize_()?;
    let pairs = d.count(8, "mapping pairs")?;
    let mut m = PHomMapping::empty(n1);
    for _ in 0..pairs {
        let v = d.u32()?;
        let u = d.u32()?;
        if v as usize >= n1 {
            return Err(CodecError::Corrupt(format!(
                "mapping pair source {v} outside pattern of {n1}"
            )));
        }
        m.set(NodeId(v), NodeId(u));
    }
    Ok(m)
}

fn encode_updates(buf: &mut BytesMut, updates: &[GraphUpdate]) {
    put_usize(buf, updates.len());
    for u in updates {
        match u {
            GraphUpdate::InsertEdge(a, b) => {
                buf.put_u8(0);
                buf.put_u32(a.0);
                buf.put_u32(b.0);
            }
            GraphUpdate::RemoveEdge(a, b) => {
                buf.put_u8(1);
                buf.put_u32(a.0);
                buf.put_u32(b.0);
            }
        }
    }
}

fn decode_updates(d: &mut Dec) -> Result<Vec<GraphUpdate>, CodecError> {
    let n = d.count(9, "updates")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = d.u8()?;
        let a = NodeId(d.u32()?);
        let b = NodeId(d.u32()?);
        out.push(match tag {
            0 => GraphUpdate::InsertEdge(a, b),
            1 => GraphUpdate::RemoveEdge(a, b),
            tag => {
                return Err(CodecError::BadTag {
                    what: "graph update",
                    tag,
                })
            }
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Traces.
// ---------------------------------------------------------------------

fn encode_span(buf: &mut BytesMut, s: &Span) {
    match s.kind {
        SpanKind::Admission => buf.put_u8(0),
        SpanKind::Plan => buf.put_u8(1),
        SpanKind::Route => buf.put_u8(2),
        SpanKind::Match => buf.put_u8(3),
        SpanKind::ShardMatch(i) => {
            buf.put_u8(4);
            buf.put_u32(i);
        }
        SpanKind::Merge => buf.put_u8(5),
        SpanKind::Restart(i) => {
            buf.put_u8(6);
            buf.put_u32(i);
        }
        SpanKind::UpdateApply => buf.put_u8(7),
        SpanKind::WorkerMatch { shard, worker } => {
            buf.put_u8(8);
            buf.put_u32(shard);
            buf.put_u32(worker);
        }
    }
    buf.put_u64(s.start_micros);
    buf.put_u64(s.duration_micros);
}

fn decode_span_into(d: &mut Dec, t: &mut QueryTrace) -> Result<(), CodecError> {
    let kind = match d.u8()? {
        0 => SpanKind::Admission,
        1 => SpanKind::Plan,
        2 => SpanKind::Route,
        3 => SpanKind::Match,
        4 => SpanKind::ShardMatch(d.u32()?),
        5 => SpanKind::Merge,
        6 => SpanKind::Restart(d.u32()?),
        7 => SpanKind::UpdateApply,
        8 => SpanKind::WorkerMatch {
            shard: d.u32()?,
            worker: d.u32()?,
        },
        tag => {
            return Err(CodecError::BadTag {
                what: "span kind",
                tag,
            })
        }
    };
    let start = d.u64()?;
    let duration = d.u64()?;
    t.push_span_micros(kind, start, duration);
    Ok(())
}

fn encode_counters(buf: &mut BytesMut, c: &TraceCounters) {
    put_str(buf, &c.plan);
    put_usize(buf, c.restarts_planned);
    put_usize(buf, c.restarts_taken);
    put_usize(buf, c.budget_polls);
    put_usize(buf, c.components);
    put_usize(buf, c.parallel_components);
    put_bool(buf, c.cache_hit);
    put_str(buf, &c.closure_backend);
    put_usize(buf, c.candidate_pairs);
    put_usize(buf, c.extended_pairs);
    put_usize(buf, c.shards_consulted);
    put_bool(buf, c.timed_out);
}

fn decode_counters(d: &mut Dec) -> Result<TraceCounters, CodecError> {
    Ok(TraceCounters {
        plan: d.str_()?,
        restarts_planned: d.usize_()?,
        restarts_taken: d.usize_()?,
        budget_polls: d.usize_()?,
        components: d.usize_()?,
        parallel_components: d.usize_()?,
        cache_hit: d.bool_()?,
        closure_backend: d.str_()?,
        candidate_pairs: d.usize_()?,
        extended_pairs: d.usize_()?,
        shards_consulted: d.usize_()?,
        timed_out: d.bool_()?,
    })
}

fn encode_trace(buf: &mut BytesMut, t: &QueryTrace) {
    put_usize(buf, t.spans.len());
    for s in &t.spans {
        encode_span(buf, s);
    }
    encode_counters(buf, &t.counters);
}

fn decode_trace(d: &mut Dec) -> Result<QueryTrace, CodecError> {
    let spans = d.count(17, "trace spans")?;
    let mut t = QueryTrace::new();
    for _ in 0..spans {
        decode_span_into(d, &mut t)?;
    }
    t.counters = decode_counters(d)?;
    Ok(t)
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

fn encode_request(buf: &mut BytesMut, req: &Request<String>) -> Result<(), CodecError> {
    match req {
        Request::RegisterGraph { name, graph } => {
            buf.put_u8(0);
            put_str(buf, name);
            put_graph(buf, graph);
        }
        Request::RestoreGraph { name, snapshot } => {
            buf.put_u8(1);
            put_str(buf, name);
            put_bytes(buf, snapshot.as_ref());
        }
        Request::EvictGraph { name } => {
            buf.put_u8(2);
            put_str(buf, name);
        }
        Request::Query {
            graph,
            query,
            trace,
        } => {
            buf.put_u8(3);
            put_str(buf, graph);
            encode_query(buf, query);
            put_bool(buf, *trace);
        }
        Request::QueryBatch { graph, queries } => {
            buf.put_u8(4);
            put_str(buf, graph);
            put_usize(buf, queries.len());
            for q in queries {
                encode_query(buf, q);
            }
        }
        Request::ApplyUpdates { graph, updates } => {
            buf.put_u8(5);
            put_str(buf, graph);
            encode_updates(buf, updates);
        }
        Request::Snapshot { graph } => {
            buf.put_u8(6);
            put_str(buf, graph);
        }
        Request::GraphInfo { graph } => {
            buf.put_u8(7);
            put_str(buf, graph);
        }
        Request::Stats => buf.put_u8(8),
    }
    Ok(())
}

fn decode_request(d: &mut Dec) -> Result<Request<String>, CodecError> {
    Ok(match d.u8()? {
        0 => Request::RegisterGraph {
            name: d.str_()?,
            graph: Arc::new(get_graph(d)?),
        },
        1 => Request::RestoreGraph {
            name: d.str_()?,
            snapshot: d.bytes_()?,
        },
        2 => Request::EvictGraph { name: d.str_()? },
        3 => Request::Query {
            graph: d.str_()?,
            query: decode_query(d)?,
            trace: d.bool_()?,
        },
        4 => {
            let graph = d.str_()?;
            let n = d.count(1, "query batch")?;
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                queries.push(decode_query(d)?);
            }
            Request::QueryBatch { graph, queries }
        }
        5 => Request::ApplyUpdates {
            graph: d.str_()?,
            updates: decode_updates(d)?,
        },
        6 => Request::Snapshot { graph: d.str_()? },
        7 => Request::GraphInfo { graph: d.str_()? },
        8 => Request::Stats,
        tag => {
            return Err(CodecError::BadTag {
                what: "request",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

fn encode_graph_info(buf: &mut BytesMut, i: &GraphInfo) {
    put_str(buf, &i.name);
    put_usize(buf, i.nodes);
    put_usize(buf, i.edges);
    put_usize(buf, i.shards);
    put_usize(buf, i.shard_nodes.len());
    for n in &i.shard_nodes {
        put_usize(buf, *n);
    }
    put_usize(buf, i.scc_count);
    put_usize(buf, i.closure_edges);
    put_usize(buf, i.closure_memory_bytes);
    put_str(buf, &i.closure_backend);
    put_opt_usize(buf, i.compressed_nodes);
    put_u128(buf, i.prepare_micros);
    put_str(buf, &i.compression);
}

fn decode_graph_info(d: &mut Dec) -> Result<GraphInfo, CodecError> {
    let name = d.str_()?;
    let nodes = d.usize_()?;
    let edges = d.usize_()?;
    let shards = d.usize_()?;
    let n = d.count(8, "shard nodes")?;
    let mut shard_nodes = Vec::with_capacity(n);
    for _ in 0..n {
        shard_nodes.push(d.usize_()?);
    }
    Ok(GraphInfo {
        name,
        nodes,
        edges,
        shards,
        shard_nodes,
        scc_count: d.usize_()?,
        closure_edges: d.usize_()?,
        closure_memory_bytes: d.usize_()?,
        closure_backend: d.str_()?,
        compressed_nodes: d.opt_usize()?,
        prepare_micros: d.u128_()?,
        compression: d.str_()?,
    })
}

fn encode_update_stats(buf: &mut BytesMut, s: &UpdateStats) {
    put_usize(buf, s.applied);
    put_usize(buf, s.noops);
    put_usize(buf, s.rejected);
    put_usize(buf, s.closure_unchanged);
    put_usize(buf, s.incremental);
    put_usize(buf, s.rebuilds);
    put_usize(buf, s.backend_fallbacks);
    put_usize(buf, s.fallback_damage);
    put_usize(buf, s.fallback_unsupported);
    put_usize(buf, s.affected_components);
    put_usize(buf, s.peak_damage_permille);
    put_usize(buf, s.bounded_rows_recomputed);
    put_u128(buf, s.closure_maintain_micros);
    put_u128(buf, s.bounded_refresh_micros);
    put_u128(buf, s.apply_micros);
}

fn decode_update_stats(d: &mut Dec) -> Result<UpdateStats, CodecError> {
    Ok(UpdateStats {
        applied: d.usize_()?,
        noops: d.usize_()?,
        rejected: d.usize_()?,
        closure_unchanged: d.usize_()?,
        incremental: d.usize_()?,
        rebuilds: d.usize_()?,
        backend_fallbacks: d.usize_()?,
        fallback_damage: d.usize_()?,
        fallback_unsupported: d.usize_()?,
        affected_components: d.usize_()?,
        peak_damage_permille: d.usize_()?,
        bounded_rows_recomputed: d.usize_()?,
        closure_maintain_micros: d.u128_()?,
        bounded_refresh_micros: d.u128_()?,
        apply_micros: d.u128_()?,
    })
}

fn encode_query_response(buf: &mut BytesMut, r: &QueryResponse) {
    encode_mapping(buf, &r.mapping);
    put_f64(buf, r.qual_card);
    put_f64(buf, r.qual_sim);
    encode_plan(buf, &r.plan);
    put_usize(buf, r.shards_consulted);
    put_bool(buf, r.timed_out);
    put_u128(buf, r.micros);
    match &r.trace {
        None => buf.put_u8(0),
        Some(t) => {
            buf.put_u8(1);
            encode_trace(buf, t);
        }
    }
}

fn decode_query_response(d: &mut Dec) -> Result<QueryResponse, CodecError> {
    let mapping = decode_mapping(d)?;
    let qual_card = d.f64_()?;
    let qual_sim = d.f64_()?;
    let plan = decode_plan(d)?;
    let shards_consulted = d.usize_()?;
    let timed_out = d.bool_()?;
    let micros = d.u128_()?;
    let trace = match d.u8()? {
        0 => None,
        1 => Some(Box::new(decode_trace(d)?)),
        tag => {
            return Err(CodecError::BadTag {
                what: "trace option",
                tag,
            })
        }
    };
    Ok(QueryResponse {
        mapping,
        qual_card,
        qual_sim,
        plan,
        shards_consulted,
        timed_out,
        micros,
        // The frame has no cache-hit field; only a trace knows it.
        cache_hit: trace.as_ref().is_some_and(|t| t.counters.cache_hit),
        trace,
    })
}

fn encode_histogram(buf: &mut BytesMut, h: &LatencyHistogram) {
    for &b in h.buckets() {
        buf.put_u64(b);
    }
}

fn decode_histogram(d: &mut Dec) -> Result<LatencyHistogram, CodecError> {
    let mut buckets = [0u64; WINDOW_BUCKETS];
    for b in &mut buckets {
        *b = d.u64()?;
    }
    Ok(LatencyHistogram::from_buckets(buckets))
}

fn encode_plan_histograms(buf: &mut BytesMut, p: &PlanHistograms) {
    for h in &p.by_plan {
        encode_histogram(buf, h);
    }
}

fn decode_plan_histograms(d: &mut Dec) -> Result<PlanHistograms, CodecError> {
    let mut p = PlanHistograms::default();
    for h in &mut p.by_plan {
        *h = decode_histogram(d)?;
    }
    Ok(p)
}

fn encode_slo(buf: &mut BytesMut, s: &SloStatus) {
    put_usize(buf, s.objectives.len());
    for o in &s.objectives {
        put_str(buf, &o.name);
        put_f64(buf, o.windowed_burn);
        put_f64(buf, o.lifetime_burn);
        put_bool(buf, o.breached);
    }
    put_bool(buf, s.breached);
}

fn decode_slo(d: &mut Dec) -> Result<SloStatus, CodecError> {
    let n = d.count(21, "slo objectives")?;
    let mut objectives = Vec::with_capacity(n);
    for _ in 0..n {
        objectives.push(ObjectiveStatus {
            name: d.str_()?,
            windowed_burn: d.f64_()?,
            lifetime_burn: d.f64_()?,
            breached: d.bool_()?,
        });
    }
    Ok(SloStatus {
        objectives,
        breached: d.bool_()?,
    })
}

fn encode_service_stats(buf: &mut BytesMut, s: &ServiceStats) {
    put_usize(buf, s.graphs);
    put_usize(buf, s.shards);
    put_usize(buf, s.queries_admitted);
    put_usize(buf, s.queries_shed);
    put_usize(buf, s.update_batches);
    put_usize(buf, s.reshards);
    put_usize(buf, s.snapshots);
    put_f64(buf, s.cache_hit_ratio);
    put_f64(buf, s.cache_hit_ratio_lifetime);
    put_f64(buf, s.cache_hit_ratio_windowed);
    put_usize(buf, s.backend_fallbacks);
    encode_plan_histograms(buf, &s.plan_histograms);
    encode_plan_histograms(buf, &s.plan_histograms_windowed);
    put_usize(buf, s.slow_traces.len());
    for (micros, trace) in &s.slow_traces {
        put_u128(buf, *micros);
        put_str(buf, trace);
    }
    encode_slo(buf, &s.slo);
    buf.put_u64(s.flight_recorded);
    buf.put_u64(s.journal_events);
    buf.put_u64(s.workers_connected);
    buf.put_u64(s.workers_lost);
    buf.put_u64(s.replicas_promoted);
    let e = &s.engine;
    for v in [
        e.prepares,
        e.cache_hits,
        e.queries,
        e.exact_plans,
        e.approx_plans,
        e.bounded_plans,
        e.baseline_plans,
        e.last_batch_workers,
        e.last_batch_peak_parallel,
        e.updates_applied,
        e.updates_incremental,
        e.update_rebuilds,
        e.timeouts,
        e.intra_parallel_components,
        e.last_batch_p50_micros,
        e.last_batch_p95_micros,
        e.last_batch_p99_micros,
        e.response_p50_micros,
        e.response_p95_micros,
        e.response_p99_micros,
    ] {
        put_usize(buf, v);
    }
}

fn decode_service_stats(d: &mut Dec) -> Result<ServiceStats, CodecError> {
    let graphs = d.usize_()?;
    let shards = d.usize_()?;
    let queries_admitted = d.usize_()?;
    let queries_shed = d.usize_()?;
    let update_batches = d.usize_()?;
    let reshards = d.usize_()?;
    let snapshots = d.usize_()?;
    let cache_hit_ratio = d.f64_()?;
    let cache_hit_ratio_lifetime = d.f64_()?;
    let cache_hit_ratio_windowed = d.f64_()?;
    let backend_fallbacks = d.usize_()?;
    let plan_histograms = decode_plan_histograms(d)?;
    let plan_histograms_windowed = decode_plan_histograms(d)?;
    let n = d.count(20, "slow traces")?;
    let mut slow_traces = Vec::with_capacity(n);
    for _ in 0..n {
        let micros = d.u128_()?;
        let trace = d.str_()?;
        slow_traces.push((micros, trace));
    }
    let slo = decode_slo(d)?;
    let flight_recorded = d.u64()?;
    let journal_events = d.u64()?;
    let workers_connected = d.u64()?;
    let workers_lost = d.u64()?;
    let replicas_promoted = d.u64()?;
    let mut e = [0usize; 20];
    for v in &mut e {
        *v = d.usize_()?;
    }
    Ok(ServiceStats {
        graphs,
        shards,
        queries_admitted,
        queries_shed,
        update_batches,
        reshards,
        snapshots,
        cache_hit_ratio,
        cache_hit_ratio_lifetime,
        cache_hit_ratio_windowed,
        backend_fallbacks,
        plan_histograms,
        plan_histograms_windowed,
        slow_traces,
        slo,
        flight_recorded,
        journal_events,
        workers_connected,
        workers_lost,
        replicas_promoted,
        engine: phom_engine::EngineStats {
            prepares: e[0],
            cache_hits: e[1],
            queries: e[2],
            exact_plans: e[3],
            approx_plans: e[4],
            bounded_plans: e[5],
            baseline_plans: e[6],
            last_batch_workers: e[7],
            last_batch_peak_parallel: e[8],
            updates_applied: e[9],
            updates_incremental: e[10],
            update_rebuilds: e[11],
            timeouts: e[12],
            intra_parallel_components: e[13],
            last_batch_p50_micros: e[14],
            last_batch_p95_micros: e[15],
            last_batch_p99_micros: e[16],
            response_p50_micros: e[17],
            response_p95_micros: e[18],
            response_p99_micros: e[19],
        },
    })
}

fn encode_response(buf: &mut BytesMut, resp: &Response) {
    match resp {
        Response::Registered(info) => {
            buf.put_u8(0);
            encode_graph_info(buf, info);
        }
        Response::Evicted { graph } => {
            buf.put_u8(1);
            put_str(buf, graph);
        }
        Response::Answer(r) => {
            buf.put_u8(2);
            encode_query_response(buf, r);
        }
        Response::Batch(rs) => {
            buf.put_u8(3);
            put_usize(buf, rs.len());
            for r in rs {
                encode_query_response(buf, r);
            }
        }
        Response::Updated(s) => {
            buf.put_u8(4);
            encode_update_stats(buf, &s.stats);
            put_bool(buf, s.resharded);
            put_usize(buf, s.shards);
        }
        Response::Snapshot(b) => {
            buf.put_u8(5);
            put_bytes(buf, b.as_ref());
        }
        Response::Info(info) => {
            buf.put_u8(6);
            encode_graph_info(buf, info);
        }
        Response::Stats(s) => {
            buf.put_u8(7);
            encode_service_stats(buf, s);
        }
    }
}

fn decode_response(d: &mut Dec) -> Result<Response, CodecError> {
    Ok(match d.u8()? {
        0 => Response::Registered(decode_graph_info(d)?),
        1 => Response::Evicted { graph: d.str_()? },
        2 => Response::Answer(decode_query_response(d)?),
        3 => {
            let n = d.count(1, "response batch")?;
            let mut rs = Vec::with_capacity(n);
            for _ in 0..n {
                rs.push(decode_query_response(d)?);
            }
            Response::Batch(rs)
        }
        4 => Response::Updated(UpdateSummary {
            stats: decode_update_stats(d)?,
            resharded: d.bool_()?,
            shards: d.usize_()?,
        }),
        5 => Response::Snapshot(d.bytes_()?),
        6 => Response::Info(decode_graph_info(d)?),
        7 => Response::Stats(Box::new(decode_service_stats(d)?)),
        tag => {
            return Err(CodecError::BadTag {
                what: "response",
                tag,
            })
        }
    })
}

fn encode_error(buf: &mut BytesMut, err: &ServiceError) {
    match err {
        ServiceError::NotFound { graph } => {
            buf.put_u8(0);
            put_str(buf, graph);
        }
        ServiceError::AlreadyRegistered { graph } => {
            buf.put_u8(1);
            put_str(buf, graph);
        }
        ServiceError::Overloaded {
            in_flight,
            queue_depth,
        } => {
            buf.put_u8(2);
            put_usize(buf, *in_flight);
            put_usize(buf, *queue_depth);
        }
        ServiceError::InvalidRequest(msg) => {
            buf.put_u8(3);
            put_str(buf, msg);
        }
        ServiceError::Timeout { micros } => {
            buf.put_u8(4);
            put_u128(buf, *micros);
        }
        ServiceError::SnapshotVersion { found, supported } => {
            buf.put_u8(5);
            buf.put_u32(*found);
            buf.put_u32(*supported);
        }
        ServiceError::SnapshotCorrupt(msg) => {
            buf.put_u8(6);
            put_str(buf, msg);
        }
        ServiceError::Unsupported(what) => {
            buf.put_u8(7);
            put_str(buf, what);
        }
    }
}

fn decode_error(d: &mut Dec) -> Result<ServiceError, CodecError> {
    Ok(match d.u8()? {
        0 => ServiceError::NotFound { graph: d.str_()? },
        1 => ServiceError::AlreadyRegistered { graph: d.str_()? },
        2 => ServiceError::Overloaded {
            in_flight: d.usize_()?,
            queue_depth: d.usize_()?,
        },
        3 => ServiceError::InvalidRequest(d.str_()?),
        4 => ServiceError::Timeout { micros: d.u128_()? },
        5 => ServiceError::SnapshotVersion {
            found: d.u32()?,
            supported: d.u32()?,
        },
        6 => ServiceError::SnapshotCorrupt(d.str_()?),
        7 => {
            let what = d.str_()?;
            ServiceError::Unsupported(intern(&what, &KNOWN_UNSUPPORTED, DECODED_UNSUPPORTED))
        }
        tag => {
            return Err(CodecError::BadTag {
                what: "service error",
                tag,
            })
        }
    })
}
