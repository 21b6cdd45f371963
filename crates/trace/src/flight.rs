//! The always-on flight recorder: a fixed-size ring of compact
//! per-query summaries — **every** query, not just the slowest — so an
//! operator can ask "what was the system doing just before this
//! incident". Each record is a handful of plain integers (16 bytes,
//! well under the 32-byte budget), recording is one short mutex-guarded
//! ring write, and capacity `0` disables the recorder entirely.

use crate::window::{Clock, MonotonicClock};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring size: the last 1024 queries.
pub const FLIGHT_DEFAULT_CAPACITY: usize = 1024;

/// One query's compact summary. Plans are stored as a small index
/// (the caller's plan vocabulary — the service uses its
/// `PlanHistograms` slot order); latency saturates into `u32` (~71
/// minutes), which is far beyond any query deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Microseconds on the recorder's clock at completion.
    pub at_micros: u64,
    /// End-to-end query latency, saturated into `u32`.
    pub micros: u32,
    /// Shards consulted.
    pub shards: u16,
    /// Caller-defined plan index (`u8::MAX` = unknown).
    pub plan: u8,
    /// Packed flags — see [`FlightRecord::cache_hit`] /
    /// [`FlightRecord::timed_out`].
    pub flags: u8,
}

/// Flag bit: the query ran entirely on prepared state.
const FLAG_CACHE_HIT: u8 = 1;
/// Flag bit: the query's deadline expired mid-run.
const FLAG_TIMED_OUT: u8 = 1 << 1;

impl FlightRecord {
    /// True when the query ran entirely on prepared state (built no
    /// hop-bounded closure), traced or not.
    pub fn cache_hit(&self) -> bool {
        self.flags & FLAG_CACHE_HIT != 0
    }

    /// True when the query's deadline expired mid-run.
    pub fn timed_out(&self) -> bool {
        self.flags & FLAG_TIMED_OUT != 0
    }

    /// One JSON line, with the plan index resolved to `plan_name` by
    /// the caller (the recorder itself has no plan vocabulary).
    pub fn to_json(&self, plan_name: &str) -> String {
        format!(
            "{{\"at_micros\":{},\"plan\":\"{}\",\"shards\":{},\"micros\":{},\
             \"cache_hit\":{},\"timed_out\":{}}}",
            self.at_micros,
            crate::json_escape(plan_name),
            self.shards,
            self.micros,
            self.cache_hit(),
            self.timed_out()
        )
    }
}

/// Ring state under one mutex: a preallocated record vector, the next
/// write cursor, and the lifetime total.
struct FlightState {
    records: Vec<FlightRecord>,
    next: usize,
}

/// The recorder: a fixed ring of [`FlightRecord`]s overwritten oldest
/// first. `Send + Sync`; one instance serves every worker thread.
pub struct FlightRecorder {
    capacity: usize,
    clock: Arc<dyn Clock>,
    total: AtomicU64,
    state: Mutex<FlightState>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("total", &self.total.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` query summaries (`0`
    /// disables recording).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder::with_clock(capacity, Arc::new(MonotonicClock::default()))
    }

    /// [`FlightRecorder::new`] on an injected clock, for tests.
    pub fn with_clock(capacity: usize, clock: Arc<dyn Clock>) -> Self {
        FlightRecorder {
            capacity,
            clock,
            total: AtomicU64::new(0),
            state: Mutex::new(FlightState {
                records: Vec::with_capacity(capacity.min(4096)),
                next: 0,
            }),
        }
    }

    /// The disabled recorder.
    pub fn disabled() -> Self {
        FlightRecorder::new(0)
    }

    /// True when records are retained.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured ring size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one completed query. A no-op on a disabled recorder.
    pub fn record(&self, plan: u8, shards: u16, micros: u128, cache_hit: bool, timed_out: bool) {
        if self.capacity == 0 {
            return;
        }
        let record = FlightRecord {
            at_micros: self.clock.now_micros(),
            micros: micros.min(u32::MAX as u128) as u32,
            shards,
            plan,
            flags: (if cache_hit { FLAG_CACHE_HIT } else { 0 })
                | (if timed_out { FLAG_TIMED_OUT } else { 0 }),
        };
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.records.len() < self.capacity {
            state.records.push(record);
        } else {
            let at = state.next;
            state.records[at] = record;
        }
        state.next = (state.next + 1) % self.capacity;
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.records.len() < self.capacity {
            return state.records.clone();
        }
        let mut out = Vec::with_capacity(state.records.len());
        out.extend_from_slice(&state.records[state.next..]);
        out.extend_from_slice(&state.records[..state.next]);
        out
    }

    /// Total queries ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    #[test]
    fn records_stay_compact() {
        assert!(
            std::mem::size_of::<FlightRecord>() <= 32,
            "flight records must stay within the 32-byte budget \
             (got {})",
            std::mem::size_of::<FlightRecord>()
        );
    }

    #[test]
    fn ring_overwrites_oldest_first() {
        let clock = Arc::new(ManualClock::default());
        let r = FlightRecorder::with_clock(3, clock.clone());
        assert!(r.enabled());
        for i in 0..5u128 {
            clock.advance(100);
            r.record(0, 1, i, false, false);
        }
        assert_eq!(r.total(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        let micros: Vec<u32> = snap.iter().map(|f| f.micros).collect();
        assert_eq!(micros, vec![2, 3, 4], "oldest first, newest three");
        assert_eq!(snap[0].at_micros, 300);
        assert_eq!(snap[2].at_micros, 500);
    }

    #[test]
    fn flags_and_saturation_round_trip() {
        let r = FlightRecorder::new(2);
        r.record(3, 7, u128::MAX, true, true);
        let f = r.snapshot()[0];
        assert!(f.cache_hit());
        assert!(f.timed_out());
        assert_eq!(f.micros, u32::MAX, "latency saturates, never wraps");
        assert_eq!(f.plan, 3);
        assert_eq!(f.shards, 7);
        let json = f.to_json("baseline");
        assert!(json.contains("\"plan\":\"baseline\""), "{json}");
        assert!(json.contains("\"timed_out\":true"), "{json}");
    }

    #[test]
    fn disabled_recorder_retains_nothing() {
        let r = FlightRecorder::disabled();
        assert!(!r.enabled());
        r.record(0, 1, 10, false, false);
        assert_eq!(r.total(), 0);
        assert!(r.snapshot().is_empty());
    }
}
