//! The metrics registry: named counters, gauges, and windowed
//! histograms behind one shared handle.

use crate::window::{Clock, MonotonicClock, WindowedCounter, WindowedHistogram, WINDOW_BUCKETS};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default epoch length: one second.
pub(crate) const DEFAULT_EPOCH_MICROS: u64 = 1_000_000;
/// Default ring size: the windowed views cover the last eight epochs.
pub(crate) const DEFAULT_EPOCHS: usize = 8;

/// Named counters, gauges, and windowed histograms. Interior-mutable
/// and `Send + Sync`, so one registry serves every worker thread; all
/// views (lifetime and windowed) read consistently under the same lock.
pub struct MetricsRegistry {
    clock: Arc<dyn Clock>,
    epoch_micros: u64,
    epochs: usize,
    counters: Mutex<BTreeMap<String, WindowedCounter>>,
    gauges: Mutex<BTreeMap<String, i64>>,
    histograms: Mutex<BTreeMap<String, WindowedHistogram>>,
    /// Writes observed with a backwards-stepping clock (the write is
    /// clamped to the newest epoch, never dropped — see
    /// [`WindowedCounter::add`]).
    clock_regressions: AtomicU64,
}

/// A point-in-time copy of every metric in a [`MetricsRegistry`] —
/// counters as `(name, lifetime, windowed)`, gauges as `(name, value)`,
/// histograms as `(name, lifetime buckets, windowed buckets)`. The
/// input [`crate::render_prometheus`] renders from.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, [u64; WINDOW_BUCKETS], [u64; WINDOW_BUCKETS])>,
    /// See [`MetricsRegistry::clock_regressions`].
    pub clock_regressions: u64,
}

/// Runs `write` on the metric `name` in `map`, creating it with `new` on
/// first use. The name is looked up first and copied into the map only
/// when it is missing, so a write to an existing metric allocates
/// nothing.
fn write_entry<T, R>(
    map: &mut BTreeMap<String, T>,
    name: &str,
    new: impl FnOnce() -> T,
    write: impl FnOnce(&mut T) -> R,
) -> R {
    match map.get_mut(name) {
        Some(metric) => write(metric),
        None => write(map.entry(name.to_owned()).or_insert_with(new)),
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("epoch_micros", &self.epoch_micros)
            .field("epochs", &self.epochs)
            .finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::with_clock(
            Arc::new(MonotonicClock::default()),
            DEFAULT_EPOCH_MICROS,
            DEFAULT_EPOCHS,
        )
    }
}

impl MetricsRegistry {
    /// A registry on the production clock (1 s epochs, 8-epoch window).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A registry on an injected clock — tests drive decay with a
    /// [`crate::ManualClock`] instead of sleeping.
    pub fn with_clock(clock: Arc<dyn Clock>, epoch_micros: u64, epochs: usize) -> Self {
        MetricsRegistry {
            clock,
            epoch_micros: epoch_micros.max(1),
            epochs: epochs.max(1),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            clock_regressions: AtomicU64::new(0),
        }
    }

    /// The current absolute epoch number.
    fn epoch(&self) -> u64 {
        self.clock.now_micros() / self.epoch_micros
    }

    /// Adds `n` to the counter `name` (created on first use). A
    /// backwards-stepping clock is tolerated: the write clamps to the
    /// counter's newest epoch and bumps
    /// [`MetricsRegistry::clock_regressions`].
    pub fn counter_add(&self, name: &str, n: u64) {
        let epoch = self.epoch();
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let regressed = write_entry(
            &mut counters,
            name,
            || WindowedCounter::new(self.epochs),
            |c| c.add(epoch, n),
        );
        if regressed {
            self.clock_regressions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The lifetime total of counter `name` (`0` when absent).
    pub fn counter_lifetime(&self, name: &str) -> u64 {
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        counters.get(name).map_or(0, |c| c.lifetime())
    }

    /// The windowed total of counter `name` (`0` when absent).
    pub fn counter_windowed(&self, name: &str) -> u64 {
        let epoch = self.epoch();
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        counters.get(name).map_or(0, |c| c.windowed(epoch))
    }

    /// Sets the gauge `name`.
    pub fn gauge_set(&self, name: &str, value: i64) {
        let mut gauges = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        write_entry(&mut gauges, name, || 0, |g| *g = value);
    }

    /// The gauge `name` (`0` when absent).
    pub fn gauge_get(&self, name: &str) -> i64 {
        let gauges = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        gauges.get(name).copied().unwrap_or(0)
    }

    /// Records one observation into histogram `name` (created on first
    /// use). Tolerates backwards clocks exactly as
    /// [`MetricsRegistry::counter_add`] does.
    pub fn histogram_record(&self, name: &str, value: u128) {
        let epoch = self.epoch();
        let mut histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        let regressed = write_entry(
            &mut histograms,
            name,
            || WindowedHistogram::new(self.epochs),
            |h| h.record(epoch, value),
        );
        if regressed {
            self.clock_regressions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Creates histogram `name` with zero observations if absent. Lets
    /// an instrumented layer pre-register its histogram families so the
    /// exposition (and JSON export) carries them from the first scrape,
    /// instead of families popping into existence with traffic.
    pub fn histogram_touch(&self, name: &str) {
        let mut histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        write_entry(
            &mut histograms,
            name,
            || WindowedHistogram::new(self.epochs),
            |_| (),
        );
    }

    /// Lifetime bucket counts of histogram `name` (zeros when absent).
    pub fn histogram_lifetime(&self, name: &str) -> [u64; WINDOW_BUCKETS] {
        let histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        histograms
            .get(name)
            .map_or([0; WINDOW_BUCKETS], |h| *h.lifetime_buckets())
    }

    /// Windowed bucket counts of histogram `name` (zeros when absent).
    pub fn histogram_windowed(&self, name: &str) -> [u64; WINDOW_BUCKETS] {
        let epoch = self.epoch();
        let histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        histograms
            .get(name)
            .map_or([0; WINDOW_BUCKETS], |h| h.windowed_buckets(epoch))
    }

    /// Writes that arrived with a backwards-stepping clock since
    /// construction (each was clamped, not dropped).
    pub fn clock_regressions(&self) -> u64 {
        self.clock_regressions.load(Ordering::Relaxed)
    }

    /// A consistent point-in-time copy of every metric — counters and
    /// histograms in both lifetime and windowed views — for exposition
    /// (see [`crate::render_prometheus`]).
    pub fn export(&self) -> MetricsSnapshot {
        let epoch = self.epoch();
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let gauges = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        let histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            counters: counters
                .iter()
                .map(|(k, c)| (k.clone(), c.lifetime(), c.windowed(epoch)))
                .collect(),
            gauges: gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: histograms
                .iter()
                .map(|(k, h)| (k.clone(), *h.lifetime_buckets(), h.windowed_buckets(epoch)))
                .collect(),
            clock_regressions: self.clock_regressions(),
        }
    }

    /// Compact JSON rendering: every counter as
    /// `{"lifetime":…,"windowed":…}`, gauges as numbers, histograms as
    /// `{"lifetime":[…],"windowed":[…]}` bucket arrays, plus the
    /// top-level `"clock_regressions"` count.
    pub fn to_json(&self) -> String {
        let epoch = self.epoch();
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let gauges = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        let histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        let cs: Vec<String> = counters
            .iter()
            .map(|(k, c)| {
                format!(
                    "\"{}\":{{\"lifetime\":{},\"windowed\":{}}}",
                    crate::json_escape(k),
                    c.lifetime(),
                    c.windowed(epoch)
                )
            })
            .collect();
        let gs: Vec<String> = gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", crate::json_escape(k), v))
            .collect();
        let row = |b: &[u64; WINDOW_BUCKETS]| {
            let cells: Vec<String> = b.iter().map(|c| c.to_string()).collect();
            format!("[{}]", cells.join(","))
        };
        let hs: Vec<String> = histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "\"{}\":{{\"lifetime\":{},\"windowed\":{}}}",
                    crate::json_escape(k),
                    row(h.lifetime_buckets()),
                    row(&h.windowed_buckets(epoch))
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\
             \"clock_regressions\":{}}}",
            cs.join(","),
            gs.join(","),
            hs.join(","),
            self.clock_regressions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    #[test]
    fn registry_exports_lifetime_and_windowed_views() {
        let clock = Arc::new(ManualClock::default());
        let reg = MetricsRegistry::with_clock(clock.clone(), 1_000, 2);
        reg.counter_add("hits", 3);
        reg.histogram_record("latency", 100);
        reg.gauge_set("shards", 4);
        clock.advance(1_000);
        reg.counter_add("hits", 2);
        assert_eq!(reg.counter_lifetime("hits"), 5);
        assert_eq!(reg.counter_windowed("hits"), 5);
        clock.advance(1_000); // first epoch decays
        assert_eq!(reg.counter_lifetime("hits"), 5);
        assert_eq!(reg.counter_windowed("hits"), 2);
        assert_eq!(reg.histogram_lifetime("latency")[6], 1);
        assert_eq!(reg.histogram_windowed("latency")[6], 0, "decayed");
        assert_eq!(reg.gauge_get("shards"), 4);
        let json = reg.to_json();
        assert!(
            json.contains("\"hits\":{\"lifetime\":5,\"windowed\":2}"),
            "{json}"
        );
        assert!(json.contains("\"shards\":4"), "{json}");
        assert!(json.contains("\"latency\":{\"lifetime\":["), "{json}");
        // Absent names read as zero, not panic.
        assert_eq!(reg.counter_lifetime("nope"), 0);
        assert_eq!(reg.histogram_windowed("nope").iter().sum::<u64>(), 0);
    }

    /// Satellite hardening: the registry counts (and survives) writes
    /// from a clock that steps backwards.
    #[test]
    fn registry_counts_clock_regressions() {
        let clock = Arc::new(ManualClock::at(10_000));
        let reg = MetricsRegistry::with_clock(clock.clone(), 1_000, 4);
        reg.counter_add("hits", 1);
        reg.histogram_record("latency", 100);
        assert_eq!(reg.clock_regressions(), 0);
        clock.set(2_000); // eight epochs backwards
        reg.counter_add("hits", 2);
        reg.histogram_record("latency", 200);
        assert_eq!(reg.clock_regressions(), 2);
        // Nothing was dropped or inflated: both writes are present in
        // both views, and windowed never exceeds lifetime.
        assert_eq!(reg.counter_lifetime("hits"), 3);
        assert_eq!(reg.counter_windowed("hits"), 3);
        assert_eq!(reg.histogram_lifetime("latency").iter().sum::<u64>(), 2);
        assert_eq!(reg.histogram_windowed("latency").iter().sum::<u64>(), 2);
        assert!(reg.to_json().contains("\"clock_regressions\":2"));
        assert_eq!(reg.export().clock_regressions, 2);
        // Recovery: once the clock is monotonic again, no new counts.
        clock.set(20_000);
        reg.counter_add("hits", 1);
        assert_eq!(reg.clock_regressions(), 2);
    }
}
