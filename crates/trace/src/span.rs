//! Per-query traces: typed spans with monotonic timings, sampled
//! counters, and the sinks finished traces drain into.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Global count of [`QueryTrace`] constructions, for the zero-alloc
/// guard: the untraced hot path must never construct a trace, so tests
/// assert this counter does not move across untraced executions.
static CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Total [`QueryTrace`] values ever constructed in this process.
pub fn constructions() -> u64 {
    CONSTRUCTIONS.load(Ordering::Relaxed)
}

/// The stages a traced query passes through. Indexed kinds
/// (`ShardMatch`, `Restart`) carry which shard / which restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Admission-gate acquisition (service layer).
    Admission,
    /// Query planning (planner consult, one per query).
    Plan,
    /// Shard routing: candidate-relevance scan deciding which shards to
    /// consult (sharded entries only).
    Route,
    /// The matching kernel itself (unsharded entries / the raw engine).
    Match,
    /// One shard's match, including its candidate scan and the
    /// global-id translation of its result.
    ShardMatch(u32),
    /// Merging per-shard partial mappings into the global answer.
    Merge,
    /// One randomized restart inside a match (nested: overlaps the
    /// enclosing `Match` / `ShardMatch` span).
    Restart(u32),
    /// Applying one update batch (the write path's single span).
    UpdateApply,
    /// One shard's match executed on a remote cluster worker: which
    /// shard, and which worker process answered it.
    WorkerMatch {
        /// Shard index within the routed graph.
        shard: u32,
        /// Worker id the sub-query ran on.
        worker: u32,
    },
}

impl SpanKind {
    /// The stable JSON name of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Admission => "admission",
            SpanKind::Plan => "plan",
            SpanKind::Route => "route",
            SpanKind::Match => "match",
            SpanKind::ShardMatch(_) => "shard_match",
            SpanKind::Merge => "merge",
            SpanKind::Restart(_) => "restart",
            SpanKind::UpdateApply => "update_apply",
            SpanKind::WorkerMatch { .. } => "worker_match",
        }
    }

    /// The index of an indexed kind (shard id / restart number).
    pub fn index(&self) -> Option<u32> {
        match self {
            SpanKind::ShardMatch(i) | SpanKind::Restart(i) => Some(*i),
            SpanKind::WorkerMatch { shard, .. } => Some(*shard),
            _ => None,
        }
    }

    /// The worker id of a [`SpanKind::WorkerMatch`] span.
    pub fn worker(&self) -> Option<u32> {
        match self {
            SpanKind::WorkerMatch { worker, .. } => Some(*worker),
            _ => None,
        }
    }

    /// True for spans nested inside another span (their durations are
    /// excluded when summing top-level spans against end-to-end time).
    pub fn nested(&self) -> bool {
        matches!(self, SpanKind::Restart(_))
    }
}

/// One timed stage of a traced query, relative to the trace origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What this span measures.
    pub kind: SpanKind,
    /// Microseconds from the trace origin to the span start.
    pub start_micros: u64,
    /// Span length in microseconds.
    pub duration_micros: u64,
}

impl Span {
    /// Compact JSON rendering (`index` only for indexed kinds, `worker`
    /// only for cross-process spans).
    pub fn to_json(&self) -> String {
        match (self.kind.index(), self.kind.worker()) {
            (Some(i), Some(w)) => format!(
                "{{\"name\":\"{}\",\"index\":{},\"worker\":{},\"start_micros\":{},\
                 \"duration_micros\":{}}}",
                self.kind.name(),
                i,
                w,
                self.start_micros,
                self.duration_micros
            ),
            (Some(i), None) => format!(
                "{{\"name\":\"{}\",\"index\":{},\"start_micros\":{},\"duration_micros\":{}}}",
                self.kind.name(),
                i,
                self.start_micros,
                self.duration_micros
            ),
            _ => format!(
                "{{\"name\":\"{}\",\"start_micros\":{},\"duration_micros\":{}}}",
                self.kind.name(),
                self.start_micros,
                self.duration_micros
            ),
        }
    }
}

/// Hot-path counters sampled into a trace — the per-query features the
/// planner's future cost model pairs with the span timings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCounters {
    /// Plan the query executed under (`"exact"`, `"approx"`, …).
    pub plan: String,
    /// Restarts the plan asked for.
    pub restarts_planned: usize,
    /// Restarts actually run before the budget cut in.
    pub restarts_taken: usize,
    /// Times the deadline was polled on the hot path.
    pub budget_polls: usize,
    /// Pattern components fanned out (after partitioning).
    pub components: usize,
    /// Components solved by parallel intra-query workers.
    pub parallel_components: usize,
    /// True when the query ran entirely on prepared state: no
    /// hop-bounded closure was built during execution (on a sharded
    /// query, in every consulted shard). The engine counts the same
    /// event for every query in `EngineStats::cache_hits`.
    pub cache_hit: bool,
    /// Reachability backend of the prepared graph (`"dense"`/`"chain"`).
    pub closure_backend: String,
    /// Candidate `(v, u)` pairs above the similarity threshold.
    pub candidate_pairs: usize,
    /// Pairs added by the greedy completion pass.
    pub extended_pairs: usize,
    /// Shards that held candidates and were consulted.
    pub shards_consulted: usize,
    /// True when the deadline expired mid-query.
    pub timed_out: bool,
}

impl TraceCounters {
    /// Compact JSON rendering (field names match the struct).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"plan\":\"{}\",\"restarts_planned\":{},\"restarts_taken\":{},\
             \"budget_polls\":{},\"components\":{},\"parallel_components\":{},\
             \"cache_hit\":{},\"closure_backend\":\"{}\",\"candidate_pairs\":{},\
             \"extended_pairs\":{},\"shards_consulted\":{},\"timed_out\":{}}}",
            json_escape(&self.plan),
            self.restarts_planned,
            self.restarts_taken,
            self.budget_polls,
            self.components,
            self.parallel_components,
            self.cache_hit,
            json_escape(&self.closure_backend),
            self.candidate_pairs,
            self.extended_pairs,
            self.shards_consulted,
            self.timed_out
        )
    }
}

/// An open span: the instant [`QueryTrace::begin`] was called. Closing
/// it with [`QueryTrace::end`] records the span.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Instant);

/// One query's trace: spans against a common monotonic origin plus the
/// sampled [`TraceCounters`]. Constructed only when tracing is on —
/// see [`constructions`].
#[derive(Debug, Clone)]
pub struct QueryTrace {
    origin: Instant,
    /// The recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// Sampled hot-path counters.
    pub counters: TraceCounters,
}

impl QueryTrace {
    /// A fresh trace with its origin at now. Bumps the global
    /// construction counter.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        QueryTrace {
            // phom-lint: allow(clock, "trace origin: span offsets are monotonic durations from this instant; no wall-clock semantics")
            origin: Instant::now(),
            spans: Vec::new(),
            counters: TraceCounters::default(),
        }
    }

    /// Opens a span (records nothing yet).
    pub fn begin(&self) -> SpanStart {
        // phom-lint: allow(clock, "span open timestamp: recorded only as a monotonic offset from the trace origin")
        SpanStart(Instant::now())
    }

    /// Closes a span opened with [`QueryTrace::begin`] under `kind`.
    pub fn end(&mut self, kind: SpanKind, start: SpanStart) {
        let start_micros = start.0.duration_since(self.origin).as_micros() as u64;
        let duration_micros = start.0.elapsed().as_micros() as u64;
        self.spans.push(Span {
            kind,
            start_micros,
            duration_micros,
        });
    }

    /// Records a span from externally measured micros (used for nested
    /// restart timings reported upward by the kernels, which do not see
    /// the trace itself).
    pub fn push_span_micros(&mut self, kind: SpanKind, start_micros: u64, duration_micros: u64) {
        self.spans.push(Span {
            kind,
            start_micros,
            duration_micros,
        });
    }

    /// Sum of top-level (non-nested) span durations — the quantity that
    /// should approximate the end-to-end latency.
    pub fn top_level_micros(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !s.kind.nested())
            .map(|s| s.duration_micros)
            .sum()
    }

    /// Total duration recorded under `kind` (summing indexed instances).
    pub fn micros_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind.name() == name)
            .map(|s| s.duration_micros)
            .sum()
    }

    /// Compact JSON rendering: `{"spans":[…],"counters":{…}}`.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self.spans.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"spans\":[{}],\"counters\":{}}}",
            spans.join(","),
            self.counters.to_json()
        )
    }
}

/// Where finished traces drain. Implementations must tolerate
/// concurrent calls (the service records from worker threads).
pub trait TraceSink: Send + Sync {
    /// Accepts one finished trace and its end-to-end latency.
    fn record(&self, micros: u128, trace: &QueryTrace);
}

/// A sink that drops every trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _micros: u128, _trace: &QueryTrace) {}
}

/// A bounded ring of the K **slowest** recent traces (serialized), the
/// explain surface's answer to "what were the outliers doing".
#[derive(Debug)]
pub struct SlowTraceRing {
    capacity: usize,
    /// `(micros, serialized trace)`, kept sorted slowest-first.
    entries: Mutex<Vec<(u128, String)>>,
}

impl SlowTraceRing {
    /// A ring keeping at most `capacity` traces (`0` disables it).
    pub fn new(capacity: usize) -> Self {
        SlowTraceRing {
            capacity,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The retained traces as `(micros, json)`, slowest first.
    pub fn snapshot(&self) -> Vec<(u128, String)> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

impl TraceSink for SlowTraceRing {
    fn record(&self, micros: u128, trace: &QueryTrace) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() == self.capacity && entries.last().is_some_and(|(m, _)| micros <= *m) {
            return;
        }
        let json = trace.to_json();
        let at = entries.partition_point(|(m, _)| *m > micros);
        entries.insert(at, (micros, json));
        entries.truncate(self.capacity);
    }
}

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_names_and_indexes() {
        let mut t = QueryTrace::new();
        let s = t.begin();
        t.end(SpanKind::Plan, s);
        t.push_span_micros(SpanKind::ShardMatch(2), 10, 40);
        t.push_span_micros(SpanKind::Restart(1), 12, 5);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"plan\""), "{json}");
        assert!(
            json.contains("\"name\":\"shard_match\",\"index\":2"),
            "{json}"
        );
        assert!(json.contains("\"name\":\"restart\",\"index\":1"), "{json}");
        assert!(json.contains("\"counters\":{"), "{json}");
        // Nested restarts are excluded from the top-level sum.
        assert_eq!(t.micros_of("restart"), 5);
        assert!(t.top_level_micros() >= 40);
        assert_eq!(
            t.top_level_micros(),
            t.micros_of("plan") + t.micros_of("shard_match")
        );
    }

    #[test]
    fn construction_counter_moves_only_on_new() {
        let before = constructions();
        let t = QueryTrace::new();
        assert_eq!(constructions(), before + 1);
        let _open = t.begin(); // begin/end never construct
        assert_eq!(constructions(), before + 1);
    }

    #[test]
    fn slow_ring_keeps_the_k_slowest() {
        let ring = SlowTraceRing::new(2);
        let t = QueryTrace::new();
        ring.record(10, &t);
        ring.record(30, &t);
        ring.record(20, &t);
        ring.record(5, &t); // too fast: dropped
        let snap = ring.snapshot();
        let micros: Vec<u128> = snap.iter().map(|(m, _)| *m).collect();
        assert_eq!(micros, vec![30, 20]);
        // Capacity 0 disables retention entirely.
        let off = SlowTraceRing::new(0);
        off.record(1_000_000, &t);
        assert!(off.snapshot().is_empty());
    }
}
