//! Service-level observability: per-plan latency histograms, shed
//! counters, cache hit ratio — the metrics-export half of the ROADMAP's
//! "Engine hardening" item — plus the admission gate that produces the
//! shed counter in the first place.

use crate::error::ServiceError;
use phom_engine::{EngineStats, PlanKind};
use phom_trace::{bucket_of, WINDOW_BUCKETS};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A log₂-bucketed latency histogram (microseconds): bucket `i` counts
/// latencies in `[2^i, 2^(i+1))` (bucket 0 is `[0, 2)`), the last bucket
/// everything beyond — the bucketing of [`phom_trace::bucket_of`], so
/// the [`phom_trace::MetricsRegistry`]'s histograms convert bucket for
/// bucket. Fixed-size and mergeable — the per-plan service metric that
/// survives export where a raw latency list would not.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; WINDOW_BUCKETS],
}

impl LatencyHistogram {
    /// A histogram from raw bucket counts, such as a
    /// [`phom_trace::MetricsRegistry`] histogram read.
    pub fn from_buckets(buckets: [u64; WINDOW_BUCKETS]) -> Self {
        LatencyHistogram { buckets }
    }

    /// Records one observation.
    pub fn record(&mut self, micros: u128) {
        self.buckets[bucket_of(micros)] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw bucket counts (bucket `i` = `[2^i, 2^(i+1))` µs).
    pub fn buckets(&self) -> &[u64; WINDOW_BUCKETS] {
        &self.buckets
    }

    /// Nearest-rank percentile (`p` in `0..=100`), reported as the upper
    /// bound of the bucket the rank falls in — a conservative estimate
    /// with the usual log-histogram resolution. `0` when empty.
    pub fn percentile_upper_micros(&self, p: u64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (p * total).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << WINDOW_BUCKETS
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// JSON array of bucket counts.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.buckets.iter().map(|c| c.to_string()).collect();
        format!("[{}]", cells.join(","))
    }
}

/// One latency histogram per plan kind (exact / approx / bounded /
/// baseline).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PlanHistograms {
    /// Per-plan histograms, indexed by [`PlanKind::index`].
    pub by_plan: [LatencyHistogram; PlanKind::ALL.len()],
}

impl PlanHistograms {
    /// Records one observation under `kind`.
    pub fn record(&mut self, kind: PlanKind, micros: u128) {
        self.by_plan[kind.index()].record(micros);
    }

    /// The histogram of one plan kind.
    pub fn of(&self, kind: PlanKind) -> &LatencyHistogram {
        &self.by_plan[kind.index()]
    }

    /// All plans folded together.
    pub fn combined(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::default();
        for h in &self.by_plan {
            all.merge(h);
        }
        all
    }

    /// JSON object keyed by plan name, bucket arrays as values.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = PlanKind::ALL
            .iter()
            .zip(&self.by_plan)
            .map(|(kind, h)| format!("\"{}\":{}", kind.name(), h.to_json()))
            .collect();
        format!("{{{}}}", cells.join(","))
    }
}

/// A snapshot of the service's counters — what `Request::Stats` returns
/// and `--stats-json` exports.
///
/// Latency aggregates come in two views, both fed by the service's
/// [`phom_trace::MetricsRegistry`]: **lifetime** (since construction)
/// and **windowed** (the registry's decaying ring of recent epochs).
/// Traced outliers are retained in a [`phom_trace::SlowTraceRing`] and
/// surfaced here as [`ServiceStats::slow_traces`], each a serialized
/// [`phom_trace::QueryTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Graphs currently registered.
    pub graphs: usize,
    /// Shards across all registered graphs.
    pub shards: usize,
    /// Queries admitted past the gate (includes queries inside admitted
    /// batches).
    pub queries_admitted: usize,
    /// Queries fast-rejected with [`ServiceError::Overloaded`] — the shed
    /// count.
    pub queries_shed: usize,
    /// Update batches applied.
    pub update_batches: usize,
    /// Entries rebuilt because an update changed the component structure
    /// (cross-shard edge insert) or flipped the graph-wide compression
    /// decision.
    pub reshards: usize,
    /// Snapshots served.
    pub snapshots: usize,
    /// Share of engine queries, over the engine's lifetime, that ran
    /// entirely on prepared state: no hop-bounded closure was built
    /// while they executed (`EngineStats::cache_hits / queries`; `0.0`
    /// before any query). A sharded query counts once per consulted
    /// shard. Equal to [`ServiceStats::cache_hit_ratio_lifetime`]; kept
    /// under its original JSON key for existing scrapers.
    pub cache_hit_ratio: f64,
    /// Lifetime cache hit ratio (same quantity as
    /// [`ServiceStats::cache_hit_ratio`], under its explicit name).
    pub cache_hit_ratio_lifetime: f64,
    /// Cache hit ratio over the registry's recent-epoch window — the
    /// steady-state number a lifetime ratio buries under the first
    /// stretch-bound queries' closure builds.
    pub cache_hit_ratio_windowed: f64,
    /// Update-maintenance operations that fell back from the chain
    /// backend to a dense rebuild, lifetime (the aggregate of
    /// `UpdateStats::backend_fallbacks` across applied batches).
    pub backend_fallbacks: usize,
    /// Per-plan service-latency histograms of admitted queries,
    /// lifetime.
    pub plan_histograms: PlanHistograms,
    /// Per-plan service-latency histograms over the registry's
    /// recent-epoch window.
    pub plan_histograms_windowed: PlanHistograms,
    /// The K slowest traced queries retained so far, as
    /// `(micros, serialized trace)`, slowest first.
    pub slow_traces: Vec<(u128, String)>,
    /// The SLO monitor's evaluation at this read (all objectives with
    /// their multi-window burn rates; empty when no objectives are
    /// configured).
    pub slo: phom_trace::SloStatus,
    /// Queries the flight recorder has summarized so far (including
    /// ones its ring has since overwritten).
    pub flight_recorded: u64,
    /// Lifecycle events the journal has emitted so far (including ones
    /// its ring has since evicted).
    pub journal_events: u64,
    /// The wrapped engine's counters.
    pub engine: EngineStats,
}

impl ServiceStats {
    /// Compact JSON rendering. The engine counters nest under
    /// `"engine"`; `"queries_shed"` and `"plan_histograms"` are the
    /// service-specific fields dashboards scrape. `"cache_hit_ratio"`
    /// keeps its historical meaning (lifetime); the windowed view sits
    /// beside it.
    pub fn to_json(&self) -> String {
        let slow: Vec<String> = self
            .slow_traces
            .iter()
            .map(|(micros, trace)| format!("{{\"micros\":{micros},\"trace\":{trace}}}"))
            .collect();
        format!(
            "{{\"graphs\":{},\"shards\":{},\"queries_admitted\":{},\"queries_shed\":{},\
             \"update_batches\":{},\"reshards\":{},\"snapshots\":{},\
             \"cache_hit_ratio\":{:.4},\"cache_hit_ratio_lifetime\":{:.4},\
             \"cache_hit_ratio_windowed\":{:.4},\"backend_fallbacks\":{},\
             \"plan_histograms\":{},\"plan_histograms_windowed\":{},\
             \"slow_traces\":[{}],\"slo\":{},\"flight_recorded\":{},\
             \"journal_events\":{},\"engine\":{}}}",
            self.graphs,
            self.shards,
            self.queries_admitted,
            self.queries_shed,
            self.update_batches,
            self.reshards,
            self.snapshots,
            self.cache_hit_ratio,
            self.cache_hit_ratio_lifetime,
            self.cache_hit_ratio_windowed,
            self.backend_fallbacks,
            self.plan_histograms.to_json(),
            self.plan_histograms_windowed.to_json(),
            slow.join(","),
            self.slo.to_json(),
            self.flight_recorded,
            self.journal_events,
            self.engine.to_json()
        )
    }
}

/// The bounded in-flight gate: at most `depth` queries execute at once;
/// the rest are fast-rejected so overload degrades into explicit
/// [`ServiceError::Overloaded`] responses instead of an unbounded queue
/// of doomed work.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    depth: usize,
    in_flight: AtomicUsize,
}

/// An admitted request's slot(s); releasing is dropping.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    gate: &'a AdmissionGate,
    slots: usize,
}

impl AdmissionGate {
    /// A gate admitting at most `depth` concurrent queries (`0` =
    /// unlimited).
    pub(crate) fn new(depth: usize) -> Self {
        AdmissionGate {
            depth,
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Admits `slots` queries or fails with the observed occupancy.
    pub(crate) fn try_acquire(&self, slots: usize) -> Result<Permit<'_>, ServiceError> {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if self.depth > 0 && current + slots > self.depth {
                return Err(ServiceError::Overloaded {
                    in_flight: current,
                    queue_depth: self.depth,
                });
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + slots,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(Permit { gate: self, slots }),
                Err(seen) => current = seen,
            }
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(self.slots, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.percentile_upper_micros(99), 0, "empty");
        h.record(0);
        h.record(1); // bucket 0: [0, 2)
        h.record(3); // bucket 1: [2, 4)
        h.record(1000); // bucket 9: [512, 1024)
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.percentile_upper_micros(50), 2, "rank 2 in bucket 0");
        assert_eq!(h.percentile_upper_micros(100), 1024);
        // A latency beyond the last bucket lands in the catch-all.
        h.record(u128::MAX);
        assert_eq!(h.buckets()[WINDOW_BUCKETS - 1], 1);
        let json = h.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches(',').count(), WINDOW_BUCKETS - 1);
    }

    /// Exact power-of-two latencies land in the bucket they *open*:
    /// bucket `i` is `[2^i, 2^(i+1))`, so `2^i` itself belongs to `i`.
    #[test]
    fn histogram_exact_power_of_two_boundaries() {
        let mut h = LatencyHistogram::default();
        for i in 0..WINDOW_BUCKETS {
            h.record(1u128 << i);
        }
        for i in 0..WINDOW_BUCKETS {
            assert_eq!(h.buckets()[i], 1, "2^{i} opens bucket {i}");
        }
        // One below a boundary stays in the lower bucket.
        let mut low = LatencyHistogram::default();
        low.record((1u128 << 10) - 1);
        assert_eq!(low.buckets()[9], 1);
    }

    /// Everything at or beyond `2^(BUCKETS-1)` µs saturates into the top
    /// bucket instead of indexing out of range.
    #[test]
    fn histogram_top_bucket_saturates() {
        let mut h = LatencyHistogram::default();
        h.record(1u128 << (WINDOW_BUCKETS - 1));
        h.record(1u128 << 80);
        h.record(u128::MAX);
        assert_eq!(h.buckets()[WINDOW_BUCKETS - 1], 3);
        assert_eq!(h.count(), 3);
        assert_eq!(
            h.percentile_upper_micros(1),
            1u64 << WINDOW_BUCKETS,
            "the catch-all reports the range ceiling"
        );
    }

    /// Merging histograms with disjoint occupied buckets is a plain
    /// per-bucket sum — counts, percentiles, and round-trip via
    /// `from_buckets` all agree.
    #[test]
    fn histogram_merge_of_disjoint_histograms() {
        let mut fast = LatencyHistogram::default();
        fast.record(1); // bucket 0
        fast.record(3); // bucket 1
        let mut slow = LatencyHistogram::default();
        slow.record(5_000); // bucket 12
        slow.record(70_000); // bucket 16
        let mut merged = fast.clone();
        merged.merge(&slow);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.buckets()[0], 1);
        assert_eq!(merged.buckets()[1], 1);
        assert_eq!(merged.buckets()[12], 1);
        assert_eq!(merged.buckets()[16], 1);
        assert_eq!(merged.percentile_upper_micros(100), 1 << 17);
        assert_eq!(LatencyHistogram::from_buckets(*merged.buckets()), merged);
        // Merging an empty histogram is the identity.
        merged.merge(&LatencyHistogram::default());
        assert_eq!(merged.count(), 4);
    }

    #[test]
    fn plan_histograms_round_trip_plan_kinds() {
        let mut p = PlanHistograms::default();
        p.record(PlanKind::Approx, 100);
        p.record(PlanKind::Exact, 5);
        assert_eq!(p.of(PlanKind::Approx).count(), 1);
        assert_eq!(p.combined().count(), 2);
        let json = p.to_json();
        assert!(json.contains("\"approx\":["));
        assert!(json.contains("\"exact\":["));
    }

    #[test]
    fn gate_sheds_beyond_depth_and_releases_on_drop() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_acquire(1).expect("slot 1");
        let _b = gate.try_acquire(1).expect("slot 2");
        let shed = gate.try_acquire(1).unwrap_err();
        assert_eq!(
            shed,
            ServiceError::Overloaded {
                in_flight: 2,
                queue_depth: 2
            }
        );
        drop(a);
        let _c = gate.try_acquire(1).expect("slot freed");
        // Multi-slot (batch) admission is all-or-nothing.
        assert!(gate.try_acquire(2).is_err());
        // Unlimited gate never sheds.
        let open = AdmissionGate::new(0);
        let _many = open.try_acquire(10_000).expect("unlimited");
    }
}
