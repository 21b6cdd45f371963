//! The structured event journal: typed, severity-leveled lifecycle
//! events (registrations, evictions, reshards, update batches, sheds,
//! timeouts, backend fallbacks, snapshots, SLO breaches) in a bounded
//! ring with an optional JSON-lines file sink.
//!
//! Like [`crate::QueryTrace`], the journal is zero-alloc when disabled:
//! [`EventJournal::emit`] takes the event as a closure and never invokes
//! it on a disabled journal, so the disabled hot path pays one branch
//! and constructs nothing (guarded by [`event_constructions`]).

use crate::window::{Clock, MonotonicClock};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Global count of [`Event`] constructions, for the zero-alloc guard:
/// a disabled journal must never build an event, so tests assert this
/// counter stays flat across emissions into a disabled journal.
static EVENT_CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Total journal [`Event`]s ever constructed in this process.
pub fn event_constructions() -> u64 {
    EVENT_CONSTRUCTIONS.load(Ordering::Relaxed)
}

/// How urgent a journal event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine lifecycle (registrations, applied updates, snapshots).
    Info,
    /// Degradation worth attention (sheds, timeouts, fallbacks).
    Warn,
    /// An objective is being violated (SLO breaches).
    Error,
}

impl Severity {
    /// The stable JSON name of this severity.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// What happened: one typed lifecycle event with its payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A graph was registered (or restored from snapshot).
    GraphRegistered {
        /// Registered name.
        graph: String,
        /// Data-graph node count.
        nodes: usize,
        /// Shards the entry split into.
        shards: usize,
    },
    /// A graph was evicted from the registry.
    GraphEvicted {
        /// Evicted name.
        graph: String,
    },
    /// An update batch changed the component structure (or flipped the
    /// compression pin) and the entry re-split.
    GraphResharded {
        /// Resharded name.
        graph: String,
        /// Shard count after the re-split.
        shards: usize,
    },
    /// An update batch was admitted by the engine.
    UpdateApplied {
        /// Edge insertions in the batch.
        inserts: usize,
        /// Edge removals in the batch.
        removes: usize,
        /// Updates that changed the graph.
        applied: usize,
        /// Updates that were no-ops (duplicate insert / absent delete).
        noops: usize,
        /// Updates rejected (out-of-range endpoints).
        rejected: usize,
        /// Full from-scratch rebuilds the batch triggered.
        rebuilds: usize,
        /// End-to-end apply time.
        micros: u128,
    },
    /// A query (or whole batch) was fast-rejected by the admission gate.
    QueryShed {
        /// Target graph name.
        graph: String,
        /// Queries shed by this rejection (batch size; 1 for a single
        /// query).
        queries: usize,
        /// In-flight occupancy observed at rejection.
        in_flight: usize,
        /// The gate's configured depth.
        queue_depth: usize,
    },
    /// A query's deadline expired mid-run (best-so-far returned).
    QueryTimedOut {
        /// Plan the query executed under (`"exact"`, `"approx"`, …).
        plan: String,
        /// End-to-end query time.
        micros: u128,
    },
    /// Closure maintenance fell back from incremental patching to a
    /// from-scratch index rebuild.
    BackendFallback {
        /// Fallbacks in the batch.
        fallbacks: usize,
        /// Why the batch downgraded: `"damage-threshold"` (a deletion
        /// cone past the damage budget), `"unsupported-op"` (an update
        /// shape with no incremental rule for the active backend), or
        /// both joined with `+` when one batch hit both.
        reason: String,
    },
    /// A snapshot was serialized.
    SnapshotSaved {
        /// Snapshotted name.
        graph: String,
        /// Serialized size.
        bytes: usize,
    },
    /// A snapshot restore parsed but failed the structural invariant
    /// validators and was rejected instead of registered.
    SnapshotRejected {
        /// The name the restore targeted.
        graph: String,
        /// The violated invariant (check id plus detail).
        reason: String,
    },
    /// An SLO objective crossed both burn-rate thresholds.
    SloBreached {
        /// Objective name (see `SloConfig`).
        objective: String,
        /// Burn rate over the windowed (short) view.
        windowed_burn: f64,
        /// Burn rate over the lifetime (long) view.
        lifetime_burn: f64,
    },
    /// The flight recorder's recent ring, dumped on a new SLO breach.
    /// `summaries` is a pre-rendered JSON array of flight records.
    FlightDump {
        /// Queries recorded by the flight recorder so far.
        recorded: u64,
        /// Pre-rendered JSON array of the most recent flight records.
        summaries: String,
    },
    /// A cluster router established (or re-established) a connection to
    /// a worker process.
    WorkerConnected {
        /// Worker id within the router's membership.
        worker: usize,
        /// Transport address the worker answers on.
        addr: String,
    },
    /// A worker failed its heartbeat or dropped a connection and was
    /// removed from the serving rotation.
    WorkerLost {
        /// Worker id within the router's membership.
        worker: usize,
        /// What failed (`"heartbeat-timeout"`, `"io: …"`, …).
        reason: String,
    },
    /// A read replica was promoted to primary after its shard's primary
    /// worker died.
    ReplicaPromoted {
        /// Graph whose shard failed over.
        graph: String,
        /// Shard index within that graph.
        shard: usize,
        /// Worker id of the promoted replica.
        worker: usize,
    },
}

impl EventKind {
    /// The stable JSON name of this event (also what log greps match).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::GraphRegistered { .. } => "GraphRegistered",
            EventKind::GraphEvicted { .. } => "GraphEvicted",
            EventKind::GraphResharded { .. } => "GraphResharded",
            EventKind::UpdateApplied { .. } => "UpdateApplied",
            EventKind::QueryShed { .. } => "QueryShed",
            EventKind::QueryTimedOut { .. } => "QueryTimedOut",
            EventKind::BackendFallback { .. } => "BackendFallback",
            EventKind::SnapshotSaved { .. } => "SnapshotSaved",
            EventKind::SnapshotRejected { .. } => "SnapshotRejected",
            EventKind::SloBreached { .. } => "SloBreached",
            EventKind::FlightDump { .. } => "FlightDump",
            EventKind::WorkerConnected { .. } => "WorkerConnected",
            EventKind::WorkerLost { .. } => "WorkerLost",
            EventKind::ReplicaPromoted { .. } => "ReplicaPromoted",
        }
    }

    /// The payload as a JSON object body (without the enclosing kind).
    fn fields_json(&self) -> String {
        match self {
            EventKind::GraphRegistered {
                graph,
                nodes,
                shards,
            } => format!(
                "{{\"graph\":\"{}\",\"nodes\":{nodes},\"shards\":{shards}}}",
                crate::json_escape(graph)
            ),
            EventKind::GraphEvicted { graph } => {
                format!("{{\"graph\":\"{}\"}}", crate::json_escape(graph))
            }
            EventKind::GraphResharded { graph, shards } => format!(
                "{{\"graph\":\"{}\",\"shards\":{shards}}}",
                crate::json_escape(graph)
            ),
            EventKind::UpdateApplied {
                inserts,
                removes,
                applied,
                noops,
                rejected,
                rebuilds,
                micros,
            } => format!(
                "{{\"inserts\":{inserts},\"removes\":{removes},\"applied\":{applied},\
                 \"noops\":{noops},\"rejected\":{rejected},\"rebuilds\":{rebuilds},\
                 \"micros\":{micros}}}"
            ),
            EventKind::QueryShed {
                graph,
                queries,
                in_flight,
                queue_depth,
            } => format!(
                "{{\"graph\":\"{}\",\"queries\":{queries},\"in_flight\":{in_flight},\
                 \"queue_depth\":{queue_depth}}}",
                crate::json_escape(graph)
            ),
            EventKind::QueryTimedOut { plan, micros } => format!(
                "{{\"plan\":\"{}\",\"micros\":{micros}}}",
                crate::json_escape(plan)
            ),
            EventKind::BackendFallback { fallbacks, reason } => format!(
                "{{\"fallbacks\":{fallbacks},\"reason\":\"{}\"}}",
                crate::json_escape(reason)
            ),
            EventKind::SnapshotSaved { graph, bytes } => format!(
                "{{\"graph\":\"{}\",\"bytes\":{bytes}}}",
                crate::json_escape(graph)
            ),
            EventKind::SnapshotRejected { graph, reason } => format!(
                "{{\"graph\":\"{}\",\"reason\":\"{}\"}}",
                crate::json_escape(graph),
                crate::json_escape(reason)
            ),
            EventKind::SloBreached {
                objective,
                windowed_burn,
                lifetime_burn,
            } => format!(
                "{{\"objective\":\"{}\",\"windowed_burn\":{:.4},\"lifetime_burn\":{:.4}}}",
                crate::json_escape(objective),
                windowed_burn,
                lifetime_burn
            ),
            EventKind::FlightDump {
                recorded,
                summaries,
            } => format!("{{\"recorded\":{recorded},\"summaries\":{summaries}}}"),
            EventKind::WorkerConnected { worker, addr } => format!(
                "{{\"worker\":{worker},\"addr\":\"{}\"}}",
                crate::json_escape(addr)
            ),
            EventKind::WorkerLost { worker, reason } => format!(
                "{{\"worker\":{worker},\"reason\":\"{}\"}}",
                crate::json_escape(reason)
            ),
            EventKind::ReplicaPromoted {
                graph,
                shard,
                worker,
            } => format!(
                "{{\"graph\":\"{}\",\"shard\":{shard},\"worker\":{worker}}}",
                crate::json_escape(graph)
            ),
        }
    }
}

/// One journaled event: a sequence number, a timestamp from the
/// journal's [`Clock`], a [`Severity`], and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Strictly increasing per journal (gap-free in emission order).
    pub seq: u64,
    /// Microseconds on the journal's clock at emission.
    pub at_micros: u64,
    /// How urgent.
    pub severity: Severity,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// One JSON line:
    /// `{"seq":…,"at_micros":…,"severity":"…","event":"…","fields":{…}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"at_micros\":{},\"severity\":\"{}\",\"event\":\"{}\",\"fields\":{}}}",
            self.seq,
            self.at_micros,
            self.severity.name(),
            self.kind.name(),
            self.kind.fields_json()
        )
    }
}

/// A bounded ring of recent [`Event`]s plus an optional JSON-lines file
/// sink. Shared via `Arc` between the service layer and the engine;
/// disabled (the default) it is a single branch per emission site.
pub struct EventJournal {
    capacity: usize,
    clock: Arc<dyn Clock>,
    seq: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
    sink: Mutex<Option<BufWriter<File>>>,
    /// Mirrors `sink.is_some()` so the fully-disabled emit path is a
    /// branch on two plain loads, never a mutex acquisition.
    sink_attached: AtomicBool,
    sink_errors: AtomicU64,
}

impl fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity)
            .field("events", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::disabled()
    }
}

impl EventJournal {
    /// A journal retaining the last `capacity` events (`0` keeps no ring
    /// — the journal is then enabled only if a sink is attached).
    pub fn new(capacity: usize) -> Self {
        EventJournal::with_clock(capacity, Arc::new(MonotonicClock::default()))
    }

    /// [`EventJournal::new`] on an injected clock, for tests.
    pub fn with_clock(capacity: usize, clock: Arc<dyn Clock>) -> Self {
        EventJournal {
            capacity,
            clock,
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            sink: Mutex::new(None),
            sink_attached: AtomicBool::new(false),
            sink_errors: AtomicU64::new(0),
        }
    }

    /// The disabled journal: no ring, no sink, emissions construct
    /// nothing.
    pub fn disabled() -> Self {
        EventJournal::new(0)
    }

    /// Attaches a JSON-lines file sink (one [`Event::to_json`] line per
    /// event), creating or truncating `path`. Builder flavor of
    /// [`EventJournal::attach_sink`].
    pub fn with_sink(self, path: &Path) -> io::Result<Self> {
        self.attach_sink(path)?;
        Ok(self)
    }

    /// Attaches a JSON-lines file sink to a journal already shared (via
    /// `Arc`) with the service/engine layers, creating or truncating
    /// `path`.
    pub fn attach_sink(&self, path: &Path) -> io::Result<()> {
        let file = File::create(path)?;
        *self.sink.lock().unwrap_or_else(|e| e.into_inner()) = Some(BufWriter::new(file));
        self.sink_attached.store(true, Ordering::Release);
        Ok(())
    }

    /// True when emissions are recorded anywhere (ring or sink).
    pub fn enabled(&self) -> bool {
        self.capacity > 0 || self.sink_attached.load(Ordering::Acquire)
    }

    /// Emits one event. The payload is built lazily: on a disabled
    /// journal the closure is never invoked, so the disabled path is a
    /// single branch and allocates nothing (see
    /// [`event_constructions`]).
    pub fn emit(&self, severity: Severity, kind: impl FnOnce() -> EventKind) {
        if self.capacity == 0 {
            // Ring off: only a sink (rare) can still want the event.
            if !self.sink_attached.load(Ordering::Acquire) {
                return;
            }
            let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
            let Some(w) = sink.as_mut() else { return };
            let event = self.build(severity, kind());
            if writeln!(w, "{}", event.to_json()).is_err() {
                self.sink_errors.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        let event = self.build(severity, kind());
        {
            let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = sink.as_mut() {
                if writeln!(w, "{}", event.to_json()).is_err() {
                    self.sink_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Stamps one event (sequence + clock) and accounts the
    /// construction.
    fn build(&self, severity: Severity, kind: EventKind) -> Event {
        EVENT_CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at_micros: self.clock.now_micros(),
            severity,
            kind,
        }
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Total events emitted (including any the ring has since evicted).
    pub fn events_emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Sink write failures so far (the journal never propagates them
    /// into the serving path).
    pub fn sink_errors(&self) -> u64 {
        self.sink_errors.load(Ordering::Relaxed)
    }

    /// Flushes the file sink, if any (also called on drop).
    pub fn flush(&self) {
        if let Some(w) = self.sink.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
            let _ = w.flush();
        }
    }
}

impl Drop for EventJournal {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    #[test]
    fn disabled_journal_constructs_nothing() {
        let j = EventJournal::disabled();
        assert!(!j.enabled());
        let before = event_constructions();
        for _ in 0..64 {
            j.emit(Severity::Warn, || {
                panic!("payload closure must not run on a disabled journal")
            });
        }
        assert_eq!(event_constructions(), before);
        assert_eq!(j.events_emitted(), 0);
        assert!(j.snapshot().is_empty());
    }

    #[test]
    fn ring_bounds_retention_and_sequences_monotonically() {
        let clock = Arc::new(ManualClock::default());
        let j = EventJournal::with_clock(2, clock.clone());
        assert!(j.enabled());
        let before = event_constructions();
        for i in 0..5usize {
            clock.advance(10);
            j.emit(Severity::Info, || EventKind::GraphEvicted {
                graph: format!("g{i}"),
            });
        }
        assert_eq!(event_constructions(), before + 5);
        assert_eq!(j.events_emitted(), 5);
        let snap = j.snapshot();
        assert_eq!(snap.len(), 2, "ring keeps the newest two");
        assert_eq!(snap[0].seq, 3);
        assert_eq!(snap[1].seq, 4);
        assert_eq!(snap[0].at_micros, 40);
        assert_eq!(snap[1].kind, EventKind::GraphEvicted { graph: "g4".into() });
    }

    #[test]
    fn events_render_one_json_line_each() {
        let j = EventJournal::with_clock(4, Arc::new(ManualClock::at(7)));
        j.emit(Severity::Error, || EventKind::SloBreached {
            objective: "latency_exact_p99".into(),
            windowed_burn: 12.5,
            lifetime_burn: 3.25,
        });
        j.emit(Severity::Warn, || EventKind::QueryShed {
            graph: "web".into(),
            queries: 3,
            in_flight: 1,
            queue_depth: 1,
        });
        let snap = j.snapshot();
        let line = snap[0].to_json();
        assert_eq!(
            line,
            "{\"seq\":0,\"at_micros\":7,\"severity\":\"error\",\"event\":\"SloBreached\",\
             \"fields\":{\"objective\":\"latency_exact_p99\",\"windowed_burn\":12.5000,\
             \"lifetime_burn\":3.2500}}"
        );
        assert!(snap[1].to_json().contains("\"event\":\"QueryShed\""));
        assert!(snap[1].to_json().contains("\"queue_depth\":1"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn file_sink_receives_json_lines() {
        let dir = std::env::temp_dir().join("phom-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("journal-{}.jsonl", std::process::id()));
        let j = EventJournal::new(8).with_sink(&path).expect("sink");
        j.emit(Severity::Info, || EventKind::SnapshotSaved {
            graph: "web".into(),
            bytes: 512,
        });
        j.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"event\":\"SnapshotSaved\""), "{text}");
        assert_eq!(j.sink_errors(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sink_only_journal_is_enabled() {
        let dir = std::env::temp_dir().join("phom-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("journal-sink-only-{}.jsonl", std::process::id()));
        let j = EventJournal::new(0).with_sink(&path).expect("sink");
        assert!(j.enabled());
        j.emit(Severity::Warn, || EventKind::BackendFallback {
            fallbacks: 1,
            reason: "damage-threshold".to_owned(),
        });
        j.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("BackendFallback"), "{text}");
        assert!(text.contains("\"reason\":\"damage-threshold\""), "{text}");
        assert!(j.snapshot().is_empty(), "no ring at capacity 0");
        assert_eq!(j.events_emitted(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
