//! Unified observability: a metrics registry, log-scale latency histograms,
//! and lightweight tracing spans.
//!
//! The serving stack built in this workspace (engine worker pool, buffer
//! pool, retry layer, disk-resident index) each kept private counters; this
//! module gives them one shared, dependency-free home so a single snapshot
//! describes a whole serving run:
//!
//! * [`MetricsRegistry`] — named [`Histogram`]s, [`Counter`]s, and gauge
//!   callbacks, plus a bounded ring of [`SpanRecord`]s. Cheap to share
//!   (`Arc`), cheap to record into (relaxed atomics on the hot paths).
//! * [`Histogram`] — fixed-bucket log-scale value histogram (2 significand
//!   bits per power of two, ≤ 25 % relative error) with p50/p95/p99/max
//!   quantile estimates. Values are nanoseconds for latencies, but any
//!   `u64` works (page counts, batch sizes).
//! * [`Stage`] — the per-stage timing vocabulary of the query engine
//!   (admission wait, batch formation, index scan, result merge, retry
//!   backoff), so every layer records under the same names.
//! * Spans — `registry.record_span(name, start, dur)` appends to a bounded
//!   ring buffer (oldest entries overwritten);
//!   [`RegistrySnapshot::to_chrome_trace`] renders it for a trace viewer.
//! * [`RollingWindows`] and [`SloTracker`] — rolling qps, quantiles, error
//!   rate and SLO burn rates, derived when read from one latency histogram
//!   and one counter of unanswered queries.
//!
//! Everything is `Send + Sync`; recording never blocks except for span
//! recording and registration, which take a short mutex.
//!
//! ```
//! use strindex::telemetry::{MetricsRegistry, Stage};
//! use std::time::{Duration, Instant};
//!
//! let reg = MetricsRegistry::new();
//! let h = reg.stage(Stage::IndexScan);
//! let t0 = Instant::now();
//! // ... do the work ...
//! h.record(t0.elapsed());
//! reg.record_span("scan", t0, t0.elapsed());
//! reg.counter("scans").incr();
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("scans"), Some(1));
//! assert_eq!(snap.histogram("stage.index_scan").unwrap().count, 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Number of histogram buckets: values 0–3 exactly, then 4 sub-buckets per
/// power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// Default capacity of a registry's span ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

/// A fixed-bucket log-scale histogram of `u64` values (latency nanoseconds,
/// page counts, batch sizes).
///
/// Buckets keep the top two bits below the leading one, so each power of two
/// is split into 4 sub-buckets and any recorded value's bucket bound is
/// within 25 % of the value. Recording is wait-free (relaxed atomics);
/// quantiles come from [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` lands in.
    pub fn bucket_index(value: u64) -> usize {
        if value < 4 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as usize; // ≥ 2
        let sub = ((value >> (msb - 2)) & 3) as usize;
        4 * (msb - 1) + sub
    }

    /// The inclusive `(low, high)` value range of bucket `index`.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket {index} out of range");
        if index < 4 {
            return (index as u64, index as u64);
        }
        let msb = index / 4 + 1;
        let sub = (index % 4) as u64;
        let width = 1u64 << (msb - 2);
        let lo = (1u64 << msb) + sub * width;
        (lo, lo.saturating_add(width - 1))
    }

    /// Record one value.
    pub fn record_value(&self, value: u64) {
        // Max first: a snapshot reads buckets before max, so every bucketed
        // entry it sees already has its max applied (quantiles are capped
        // at max and must never undercut a recorded value's bucket).
        self.max.fetch_max(value, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Relaxed);
    }

    /// Record a duration as nanoseconds.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// A self-consistent point-in-time copy (bucket counts are read first,
    /// so the derived count always equals the bucket sum).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets,
        }
    }
}

/// Plain-value copy of a [`Histogram`]; the quantile surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded (sum of all bucket counts).
    pub count: u64,
    /// Sum of all recorded values (for means and stage-time totals).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts ([`Histogram::bucket_range`] gives each range).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Nothing recorded?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`) of the recorded
    /// values: the high edge of the bucket holding the rank-`⌈q·count⌉`
    /// value, capped at the recorded max. Monotone in `q`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_range(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Values recorded in buckets above `value`'s own bucket: every one of
    /// them exceeds `value`, and none exceeds that bucket's high edge.
    pub fn count_above(&self, value: u64) -> u64 {
        self.buckets.iter().skip(Histogram::bucket_index(value) + 1).sum()
    }

    /// The values recorded after `earlier` was taken: buckets, count and sum
    /// subtract (saturating); `max` cannot be differenced and stays this
    /// snapshot's cumulative value.
    pub fn since(&self, earlier: &Self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(&b, &eb)| b.saturating_sub(eb))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Counter.
// ---------------------------------------------------------------------------

/// A named monotonic counter handle ([`MetricsRegistry::counter`]).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Stages.
// ---------------------------------------------------------------------------

/// The serving pipeline's per-stage timing vocabulary. Every layer records
/// into the stage histogram of the *same shared registry*, so one snapshot
/// attributes a run's time across the whole path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Submit → batch pick: time a request sat in the admission queue.
    AdmissionWait,
    /// Lock-held time a worker spent coalescing requests into one batch.
    BatchFormation,
    /// Time the index spent answering a batch's patterns.
    IndexScan,
    /// Time pairing answers with their requests and publishing them.
    ResultMerge,
    /// Backoff slept by the storage retry layer riding out transient faults.
    RetryBackoff,
    /// Open-loop load generation: intended arrival → actual submit. A
    /// saturated generator that cannot keep up with its own schedule records
    /// growing dispatch lag here — the tell that measured latencies are
    /// about to understate queue delay (coordinated omission).
    DispatchLag,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::AdmissionWait,
        Stage::BatchFormation,
        Stage::IndexScan,
        Stage::ResultMerge,
        Stage::RetryBackoff,
        Stage::DispatchLag,
    ];

    /// The registry metric name (`stage.*`) this stage records under.
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "stage.admission_wait",
            Stage::BatchFormation => "stage.batch_formation",
            Stage::IndexScan => "stage.index_scan",
            Stage::ResultMerge => "stage.result_merge",
            Stage::RetryBackoff => "stage.retry_backoff",
            Stage::DispatchLag => "stage.dispatch_lag",
        }
    }

    /// Is this stage exclusive worker busy-time? Busy stages are the ones
    /// whose summed durations are bounded by `workers × wall time` (the
    /// check `exp serve --metrics` enforces); queue-overlapped stages
    /// (admission wait) and sleep stages (retry backoff) are not.
    pub fn is_worker_busy(self) -> bool {
        matches!(self, Stage::BatchFormation | Stage::IndexScan | Stage::ResultMerge)
    }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One completed tracing span: a named interval relative to the registry's
/// epoch (its creation instant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span label (`"q17"`, `"w0.batch"`, `"q3.explain"`, …).
    pub name: String,
    /// Microseconds from the registry epoch to the span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
}

/// Bounded span storage: a ring that overwrites its oldest entry once full.
#[derive(Debug)]
struct SpanRing {
    capacity: usize,
    inner: Mutex<SpanRingInner>,
}

#[derive(Debug, Default)]
struct SpanRingInner {
    slots: Vec<SpanRecord>,
    /// Next write position once `slots` has grown to capacity.
    next: usize,
    /// Spans ever recorded (≥ `slots.len()`; the excess was overwritten).
    recorded: u64,
}

impl SpanRing {
    fn new(capacity: usize) -> Self {
        SpanRing { capacity: capacity.max(1), inner: Mutex::new(SpanRingInner::default()) }
    }

    fn push(&self, rec: SpanRecord) {
        let mut g = lock(&self.inner);
        if g.slots.len() < self.capacity {
            g.slots.push(rec);
        } else {
            let at = g.next;
            g.slots[at] = rec;
            g.next = (at + 1) % self.capacity;
        }
        g.recorded += 1;
    }

    /// Retained spans, oldest first, plus the total ever recorded.
    fn snapshot(&self) -> (Vec<SpanRecord>, u64) {
        let g = lock(&self.inner);
        let mut out = Vec::with_capacity(g.slots.len());
        if g.slots.len() == self.capacity {
            out.extend_from_slice(&g.slots[g.next..]);
            out.extend_from_slice(&g.slots[..g.next]);
        } else {
            out.extend_from_slice(&g.slots);
        }
        (out, g.recorded)
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

type Gauge = Box<dyn Fn() -> u64 + Send + Sync>;

/// Label set of a labeled gauge: `(name, value)` pairs in emission order.
pub type LabelSet = Vec<(String, String)>;

#[derive(Default)]
struct Named {
    histograms: Vec<(String, Arc<Histogram>)>,
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Gauge)>,
    labeled_gauges: Vec<(String, LabelSet, Gauge)>,
}

/// The unified metrics registry: named histograms, counters, gauges, and a
/// bounded span ring, shared by every layer of one serving deployment.
///
/// Registration (`histogram`/`counter`) is get-or-create by name and meant
/// for setup paths; hot paths hold the returned `Arc` handles and record
/// lock-free. Gauges are pull-style callbacks polled at snapshot time —
/// the buffer pool registers its hit/miss/eviction counts this way.
pub struct MetricsRegistry {
    epoch: Instant,
    named: Mutex<Named>,
    spans: SpanRing,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = lock(&self.named);
        f.debug_struct("MetricsRegistry")
            .field("histograms", &g.histograms.len())
            .field("counters", &g.counters.len())
            .field("gauges", &g.gauges.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// A fresh registry with the default span capacity.
    pub fn new() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A fresh registry retaining at most `span_capacity` spans.
    pub fn with_span_capacity(span_capacity: usize) -> Self {
        MetricsRegistry {
            epoch: Instant::now(),
            named: Mutex::new(Named::default()),
            spans: SpanRing::new(span_capacity),
        }
    }

    /// The instant span timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = lock(&self.named);
        if let Some((_, h)) = g.histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        g.histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// The histogram for an engine [`Stage`].
    pub fn stage(&self, stage: Stage) -> Arc<Histogram> {
        self.histogram(stage.metric_name())
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = lock(&self.named);
        if let Some((_, c)) = g.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        g.counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// Register a pull-style gauge: `read` is polled at snapshot time.
    /// Re-registering a name replaces the callback.
    pub fn gauge(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        let mut g = lock(&self.named);
        if let Some((_, slot)) = g.gauges.iter_mut().find(|(n, _)| n == name) {
            *slot = Box::new(read);
        } else {
            g.gauges.push((name.to_string(), Box::new(read)));
        }
    }

    /// Register a pull-style gauge carrying a label set (one time series per
    /// distinct `(name, labels)` pair — e.g. `build.ribs{engine="disk"}`).
    /// Label *values* may contain any characters; exporters escape them.
    /// Re-registering the same name and labels replaces the callback.
    pub fn labeled_gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let set: LabelSet = labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        let mut g = lock(&self.named);
        if let Some((_, _, slot)) =
            g.labeled_gauges.iter_mut().find(|(n, l, _)| n == name && *l == set)
        {
            *slot = Box::new(read);
        } else {
            g.labeled_gauges.push((name.to_string(), set, Box::new(read)));
        }
    }

    /// Record a completed span that started at `start` and ran `duration`.
    pub fn record_span(&self, name: impl Into<String>, start: Instant, duration: Duration) {
        self.spans.push(SpanRecord {
            name: name.into(),
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            duration_us: duration.as_micros() as u64,
        });
    }

    /// A consistent point-in-time view of everything registered, with names
    /// sorted for deterministic output.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let (histograms, counters, gauges, labeled_gauges) = {
            let g = lock(&self.named);
            let mut hs: Vec<(String, HistogramSnapshot)> =
                g.histograms.iter().map(|(n, h)| (n.clone(), h.snapshot())).collect();
            let mut cs: Vec<(String, u64)> =
                g.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect();
            let mut gs: Vec<(String, u64)> =
                g.gauges.iter().map(|(n, f)| (n.clone(), f())).collect();
            let mut ls: Vec<(String, LabelSet, u64)> =
                g.labeled_gauges.iter().map(|(n, l, f)| (n.clone(), l.clone(), f())).collect();
            hs.sort_by(|a, b| a.0.cmp(&b.0));
            cs.sort_by(|a, b| a.0.cmp(&b.0));
            gs.sort_by(|a, b| a.0.cmp(&b.0));
            ls.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            (hs, cs, gs, ls)
        };
        let (spans, spans_recorded) = self.spans.snapshot();
        RegistrySnapshot {
            histograms,
            counters,
            gauges,
            labeled_gauges,
            spans,
            spans_recorded,
            span_capacity: self.spans.capacity,
        }
    }
}

/// Everything a [`MetricsRegistry`] held at one instant.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// `(name, snapshot)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge (polled at snapshot time), sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, labels, value)` per labeled gauge, sorted by name then labels.
    pub labeled_gauges: Vec<(String, LabelSet, u64)>,
    /// Retained spans, oldest first (at most `span_capacity`).
    pub spans: Vec<SpanRecord>,
    /// Spans ever recorded; the excess over `spans.len()` was overwritten.
    pub spans_recorded: u64,
    /// Ring capacity.
    pub span_capacity: usize,
}

impl RegistrySnapshot {
    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The stage histogram for `stage`, if registered.
    pub fn stage(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.histogram(stage.metric_name())
    }

    /// The counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The labeled gauge matching `name` and every `(key, value)` pair in
    /// `labels` (order-insensitive), if registered.
    pub fn labeled_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.labeled_gauges
            .iter()
            .find(|(n, l, _)| {
                n == name
                    && l.len() == labels.len()
                    && labels.iter().all(|&(k, v)| l.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|&(_, _, v)| v)
    }

    /// Total seconds recorded across the worker-busy stages
    /// ([`Stage::is_worker_busy`]) — the quantity bounded by
    /// `workers × wall time`.
    pub fn busy_stage_seconds(&self) -> f64 {
        Stage::ALL
            .iter()
            .filter(|s| s.is_worker_busy())
            .filter_map(|s| self.stage(*s))
            .map(|h| h.sum as f64 / 1e9)
            .sum()
    }

    /// The change from `earlier` to `self`, as another snapshot — so every
    /// exporter (`to_json`, `to_prometheus`, `to_chrome_trace`)
    /// works on an *interval* just as well as on a cumulative view. This is
    /// the primitive [`TimeSeries`] ticks are built from.
    ///
    /// * **Histograms** subtract bucket-wise (saturating), so interval
    ///   quantiles come from the interval's own distribution. `max` cannot
    ///   be differenced and keeps `self`'s cumulative value.
    /// * **Counters** subtract (saturating — a restarted counter reads as
    ///   its full new value, never wraps).
    /// * **Gauges** are instantaneous, not cumulative: the diff keeps
    ///   `self`'s values unchanged.
    /// * **Spans** keep `self`'s retained ring; `spans_recorded` subtracts.
    ///
    /// Metrics present only in `self` (registered after `earlier` was
    /// taken) are included whole; metrics present only in `earlier` are
    /// dropped.
    pub fn diff(&self, earlier: &Self) -> RegistrySnapshot {
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let d = earlier.histogram(name).map_or_else(|| h.clone(), |e| h.since(e));
                (name.clone(), d)
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), v.saturating_sub(earlier.counter(name).unwrap_or(0))))
            .collect();
        RegistrySnapshot {
            histograms,
            counters,
            gauges: self.gauges.clone(),
            labeled_gauges: self.labeled_gauges.clone(),
            spans: self.spans.clone(),
            spans_recorded: self.spans_recorded.saturating_sub(earlier.spans_recorded),
            span_capacity: self.span_capacity,
        }
    }

    /// Machine-readable JSON export (hand-rolled; no external crates).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{");
        out.push_str("\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max
            );
        }
        out.push_str("},\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"labeled_gauges\":[");
        for (i, (name, labels, v)) in self.labeled_gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", json_escape(name));
            for (j, (k, lv)) in labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(lv));
            }
            let _ = write!(out, "}},\"value\":{v}}}");
        }
        let _ = write!(
            out,
            "],\"spans\":{{\"recorded\":{},\"retained\":{},\"capacity\":{},\"events\":[",
            self.spans_recorded,
            self.spans.len(),
            self.span_capacity
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"duration_us\":{}}}",
                json_escape(&s.name),
                s.start_us,
                s.duration_us
            );
        }
        out.push_str("]}}");
        out
    }

    /// Prometheus text-exposition export (format version 0.0.4), with every
    /// metric name prefixed by `namespace` and sanitized to the Prometheus
    /// charset. Histograms export as summaries (quantile series plus
    /// `_sum`/`_count`), counters gain the conventional `_total` suffix,
    /// gauges export as-is, and the span ring contributes
    /// `<ns>_spans_recorded_total` / `<ns>_spans_retained`. The output
    /// passes [`validate_prometheus_text`].
    pub fn to_prometheus(&self, namespace: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let full = |name: &str| sanitize_metric_name(&format!("{namespace}_{name}"));
        for (name, h) in &self.histograms {
            let m = full(name);
            let _ = writeln!(out, "# HELP {m} Log-scale histogram of {name}");
            let _ = writeln!(out, "# TYPE {m} summary");
            for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                let _ = writeln!(out, "{m}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{m}_sum {}", h.sum);
            let _ = writeln!(out, "{m}_count {}", h.count);
        }
        for (name, v) in &self.counters {
            let m = format!("{}_total", full(name));
            let _ = writeln!(out, "# HELP {m} Monotonic counter {name}");
            let _ = writeln!(out, "# TYPE {m} counter");
            let _ = writeln!(out, "{m} {v}");
        }
        for (name, v) in &self.gauges {
            let m = full(name);
            let _ = writeln!(out, "# HELP {m} Gauge {name}");
            let _ = writeln!(out, "# TYPE {m} gauge");
            let _ = writeln!(out, "{m} {v}");
        }
        let mut last_labeled: Option<&str> = None;
        for (name, labels, v) in &self.labeled_gauges {
            let m = full(name);
            // Series of one family are adjacent (sorted); emit one header.
            if last_labeled != Some(name.as_str()) {
                let _ = writeln!(out, "# HELP {m} Gauge {name}");
                let _ = writeln!(out, "# TYPE {m} gauge");
                last_labeled = Some(name.as_str());
            }
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, lv)| format!("{}=\"{}\"", sanitize_label_name(k), escape_label_value(lv)))
                .collect();
            let _ = writeln!(out, "{m}{{{}}} {v}", rendered.join(","));
        }
        let spans_total = format!("{}_total", full("spans_recorded"));
        let _ = writeln!(out, "# TYPE {spans_total} counter");
        let _ = writeln!(out, "{spans_total} {}", self.spans_recorded);
        let retained = full("spans_retained");
        let _ = writeln!(out, "# TYPE {retained} gauge");
        let _ = writeln!(out, "{retained} {}", self.spans.len());
        out
    }

    /// Chrome `trace_event` JSON export of the span ring, loadable in
    /// `chrome://tracing` and Perfetto. Spans become complete (`"ph":"X"`)
    /// events with microsecond timestamps relative to the registry epoch.
    /// Tracks (`tid`) are assigned by span-name convention: worker spans
    /// (`w3.batch`) land on track `3 + worker`, per-query spans (`q17`) on
    /// track 1, everything else on track 2.
    pub fn to_chrome_trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from(
            "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"spine\"}}",
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}}}",
                json_escape(&s.name),
                s.start_us,
                s.duration_us,
                chrome_tid(&s.name)
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// The Perfetto track a span renders on; see
/// [`RegistrySnapshot::to_chrome_trace`].
fn chrome_tid(name: &str) -> u64 {
    if let Some(rest) = name.strip_prefix('w') {
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if !digits.is_empty() && rest[digits.len()..].starts_with('.') {
            return 3 + digits.parse::<u64>().unwrap_or(0);
        }
    }
    if name.starts_with('q') {
        return 1;
    }
    2
}

/// Escape `s` for inclusion inside a JSON string literal: backslash, quote,
/// and every control character (`\n`, `\t`, …, `\u00XX`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Coerce `s` into a legal Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
/// Illegal characters (most commonly the `.` in this crate's metric names)
/// become `_`; a leading digit gains a `_` prefix.
pub fn sanitize_metric_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for (i, c) in s.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Coerce `s` into a legal Prometheus *label* name: like metric names but
/// without `:` (reserved for recording rules).
pub fn sanitize_label_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for (i, c) in s.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a Prometheus label *value* per text-exposition format 0.0.4:
/// backslash, double quote, and line feed are the only escapes.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Check `text` against the Prometheus text-exposition line format
/// (format version 0.0.4): `# HELP`/`# TYPE` comment structure, metric-name
/// charset, label syntax with escaped values, and numeric sample values.
/// Returns the first offending line and why. This is the checker CI runs
/// over `exp serve --metrics --prom` output.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    const TYPES: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let fail = |ln: usize, line: &str, why: &str| Err(format!("line {}: {why}: {line:?}", ln + 1));
    for (ln, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("HELP") => {
                    let Some(name) = parts.next() else {
                        return fail(ln, line, "HELP without metric name");
                    };
                    if !name_ok(name) {
                        return fail(ln, line, "bad metric name in HELP");
                    }
                }
                Some("TYPE") => {
                    let Some(name) = parts.next() else {
                        return fail(ln, line, "TYPE without metric name");
                    };
                    if !name_ok(name) {
                        return fail(ln, line, "bad metric name in TYPE");
                    }
                    let ty = parts.next().unwrap_or("").trim();
                    if !TYPES.contains(&ty) {
                        return fail(ln, line, "unknown TYPE");
                    }
                }
                _ => {} // plain comment: legal
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_and_labels, rest) = match line.find(['{', ' ']) {
            Some(i) if line.as_bytes()[i] == b'{' => {
                let Some(close) = line[i..].find('}') else {
                    return fail(ln, line, "unclosed label braces");
                };
                let labels = &line[i + 1..i + close];
                if !labels_ok(labels) {
                    return fail(ln, line, "malformed labels");
                }
                ((&line[..i], Some(labels)), line[i + close + 1..].trim_start())
            }
            Some(i) => ((&line[..i], None), line[i..].trim_start()),
            None => return fail(ln, line, "no sample value"),
        };
        if !name_ok(name_and_labels.0) {
            return fail(ln, line, "bad metric name");
        }
        let mut fields = rest.split_ascii_whitespace();
        let Some(value) = fields.next() else {
            return fail(ln, line, "no sample value");
        };
        if value.parse::<f64>().is_err() && !["+Inf", "-Inf", "NaN"].contains(&value) {
            return fail(ln, line, "unparseable sample value");
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return fail(ln, line, "unparseable timestamp");
            }
        }
        if fields.next().is_some() {
            return fail(ln, line, "trailing garbage after sample");
        }
    }
    Ok(())
}

/// Are `labels` (the text between `{` and `}`) well-formed
/// `name="value",...` pairs with legal escapes?
fn labels_ok(labels: &str) -> bool {
    let mut rest = labels;
    loop {
        let Some(eq) = rest.find('=') else { return rest.trim().is_empty() };
        let name = rest[..eq].trim();
        if name.is_empty()
            || !name
                .chars()
                .enumerate()
                .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
        {
            return false;
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return false;
        }
        // Scan the quoted value honoring \" \\ \n escapes.
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    match chars.next() {
                        Some((_, '\\' | '"' | 'n')) => {}
                        _ => return false,
                    };
                }
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(end) = end else { return false };
        rest = after[1 + end + 1..].trim_start();
        if rest.is_empty() {
            return true;
        }
        let Some(stripped) = rest.strip_prefix(',') else { return false };
        rest = stripped.trim_start();
        if rest.is_empty() {
            return true; // trailing comma is legal
        }
    }
}

// ---------------------------------------------------------------------------
// Rolling windows and SLO burn, derived at read time.
// ---------------------------------------------------------------------------

/// Span of the short window: the `engine.window.*` gauges and the SLO's
/// short burn rate.
pub const SHORT_WINDOW: Duration = Duration::from_secs(10);

/// Span of the SLO's long window.
pub const LONG_WINDOW: Duration = Duration::from_secs(60);

/// Least time between two cumulative marks: the windows' time granularity.
const MARK_EVERY: Duration = Duration::from_secs(1);

/// Marks retained. At least [`MARK_EVERY`] apart, they reach back past
/// [`LONG_WINDOW`].
const MARKS: usize = 64;

/// Both sources' cumulative values at one instant.
struct Mark {
    at: Instant,
    latency: HistogramSnapshot,
    unanswered: u64,
}

/// "What happened recently", derived at read time from two cumulative
/// sources: a latency histogram that takes one sample per finished query,
/// and a counter of the finished queries that produced no answer. Nothing
/// here runs per query.
///
/// Each read keeps a mark of both sources at most once a second, and
/// answers a window of span `s` as *now minus the oldest mark inside
/// it*; rates divide by the time that mark actually covers. So a window
/// covers between `s − 1 s` and `s` of traffic while something reads it at
/// least once a second (the flight recorder's sampler does), and reads
/// empty when no mark falls inside the span: traffic since an older mark
/// cannot be placed in time.
///
/// Reads never call into a [`MetricsRegistry`]: gauge closures run while
/// the registry's own lock is held, so this type holds its two handles.
pub struct RollingWindows {
    latency: Arc<Histogram>,
    unanswered: Arc<Counter>,
    marks: Mutex<std::collections::VecDeque<Mark>>,
}

impl RollingWindows {
    /// Windows over `latency` and `unanswered`, counting the traffic after
    /// a first mark taken at `start`.
    pub fn new(latency: Arc<Histogram>, unanswered: Arc<Counter>, start: Instant) -> Self {
        let first = Mark { at: start, unanswered: unanswered.get(), latency: latency.snapshot() };
        RollingWindows { latency, unanswered, marks: Mutex::new([first].into()) }
    }

    /// The traffic of the last `span` as seen at `now` (a caller passes
    /// `Instant::now()`; tests pass explicit instants).
    pub fn window(&self, span: Duration, now: Instant) -> WindowAggregate {
        let mut marks = lock(&self.marks);
        // Counter first: the engine bumps it after the histogram sample.
        let unanswered = self.unanswered.get();
        let latency = self.latency.snapshot();
        if marks.back().is_none_or(|m| now.saturating_duration_since(m.at) >= MARK_EVERY) {
            if marks.len() == MARKS {
                marks.pop_front();
            }
            marks.push_back(Mark { at: now, latency: latency.clone(), unanswered });
        }
        let Some(oldest) = marks.iter().find(|m| m.at <= now && now - m.at <= span) else {
            return WindowAggregate::default();
        };
        let histogram = latency.since(&oldest.latency);
        WindowAggregate {
            count: histogram.count,
            errors: unanswered.saturating_sub(oldest.unanswered).min(histogram.count),
            window_secs: (now - oldest.at).as_secs_f64(),
            histogram,
        }
    }

    /// Register the [`SHORT_WINDOW`]'s aggregates as gauges named
    /// `<prefix>.{qps_x1000, p50_ns, p99_ns, error_rate_ppm, count}`.
    /// Fractional quantities are scaled to integers (×1000 / parts-per-
    /// million) since gauges are `u64`.
    pub fn register_gauges(self: &Arc<Self>, registry: &MetricsRegistry, prefix: &str) {
        let mk = |w: &Arc<Self>, f: fn(&WindowAggregate) -> u64| {
            let w = Arc::clone(w);
            move || f(&w.window(SHORT_WINDOW, Instant::now()))
        };
        registry.gauge(&format!("{prefix}.qps_x1000"), mk(self, |a| (a.qps() * 1000.0) as u64));
        registry.gauge(&format!("{prefix}.p50_ns"), mk(self, WindowAggregate::p50));
        registry.gauge(&format!("{prefix}.p99_ns"), mk(self, WindowAggregate::p99));
        registry.gauge(
            &format!("{prefix}.error_rate_ppm"),
            mk(self, |a| (a.error_rate() * 1e6) as u64),
        );
        registry.gauge(&format!("{prefix}.count"), mk(self, |a| a.count));
    }
}

/// One window of [`RollingWindows`].
#[derive(Debug, Clone, Default)]
pub struct WindowAggregate {
    /// Queries finished inside the window.
    pub count: u64,
    /// Of those, the ones that produced no answer.
    pub errors: u64,
    /// Seconds the window actually covers: from its oldest mark to now.
    pub window_secs: f64,
    /// Latency distribution of the window's queries.
    pub histogram: HistogramSnapshot,
}

impl WindowAggregate {
    /// Queries per second over the covered time (0 when no time is
    /// covered: a rate over zero seconds is meaningless).
    pub fn qps(&self) -> f64 {
        if self.window_secs > 0.0 {
            self.count as f64 / self.window_secs
        } else {
            0.0
        }
    }

    /// Unanswered fraction (0 when the window is empty).
    pub fn error_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.errors as f64 / self.count as f64
        }
    }

    /// Rolling median latency upper bound (nanoseconds).
    pub fn p50(&self) -> u64 {
        self.histogram.p50()
    }

    /// Rolling 99th-percentile latency upper bound (nanoseconds).
    pub fn p99(&self) -> u64 {
        self.histogram.p99()
    }
}

/// Burn rates of a [`SloTracker`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReading {
    /// Burn rate over the [`SHORT_WINDOW`] (0 when idle).
    pub burn_short: f64,
    /// Burn rate over the [`LONG_WINDOW`] (0 when idle).
    pub burn_long: f64,
}

impl SloReading {
    /// `false` only when both windows burn budget faster than provisioned
    /// (burn rate above 1.0).
    pub fn healthy(&self) -> bool {
        !(self.burn_short > 1.0 && self.burn_long > 1.0)
    }
}

/// Burn-rate SLO tracking over the short and long [`RollingWindows`].
///
/// A query is *bad* when it produced no answer or missed the latency
/// objective. Misses are counted from the latency histogram's buckets above
/// the objective's own bucket, so the objective is rounded up to that
/// bucket's high edge (at most 25 % above it), and the engine needs no
/// target. A query both unanswered and slow counts twice (capped at the
/// window's count), so burn errs high, never low. The error budget is
/// `1 − availability`; the burn rate is the bad fraction over that budget
/// (1.0 = consuming budget exactly as provisioned). Following the standard
/// multi-window rule, [`SloReading::healthy`] is false only when **both**
/// windows burn: the short window confirms the problem is current, the
/// long one that it is material.
pub struct SloTracker {
    windows: Arc<RollingWindows>,
    target_latency_ns: u64,
    error_budget: f64,
}

impl SloTracker {
    /// A tracker over `windows`. `target_latency` is the per-query latency
    /// objective; `availability` the SLO target in `(0, 1)`, e.g. `0.999`.
    pub fn new(windows: Arc<RollingWindows>, target_latency: Duration, availability: f64) -> Self {
        SloTracker {
            windows,
            target_latency_ns: target_latency.as_nanos().min(u64::MAX as u128) as u64,
            error_budget: 1.0 - availability.clamp(0.0, 1.0 - 1e-9),
        }
    }

    fn burn(&self, w: &WindowAggregate) -> f64 {
        if w.count == 0 {
            return 0.0;
        }
        let bad = (w.errors + w.histogram.count_above(self.target_latency_ns)).min(w.count);
        bad as f64 / w.count as f64 / self.error_budget
    }

    /// Both burn rates as seen at `now`.
    pub fn read(&self, now: Instant) -> SloReading {
        SloReading {
            burn_short: self.burn(&self.windows.window(SHORT_WINDOW, now)),
            burn_long: self.burn(&self.windows.window(LONG_WINDOW, now)),
        }
    }

    /// Register `<prefix>.{burn_short_x1000, burn_long_x1000, healthy}`
    /// gauges reflecting this tracker.
    pub fn register_gauges(self: &Arc<Self>, registry: &MetricsRegistry, prefix: &str) {
        let mk = |t: &Arc<Self>, f: fn(&SloReading) -> u64| {
            let t = Arc::clone(t);
            move || f(&t.read(Instant::now()))
        };
        registry.gauge(
            &format!("{prefix}.burn_short_x1000"),
            mk(self, |r| (r.burn_short * 1000.0) as u64),
        );
        registry.gauge(
            &format!("{prefix}.burn_long_x1000"),
            mk(self, |r| (r.burn_long * 1000.0) as u64),
        );
        registry.gauge(&format!("{prefix}.healthy"), mk(self, |r| r.healthy() as u64));
    }
}

/// Offered-vs-achieved accounting for a load generator driving an engine.
///
/// Three monotone counters cross the generator/engine boundary: `offered`
/// (arrivals the schedule intended by now), `dispatched` (requests actually
/// submitted), and `completed` (results published). Registered as gauges,
/// they make the two gaps visible on any scrape: `offered − dispatched` is
/// *generator lag* — the open-loop schedule slipping because submission
/// itself cannot keep up (per-query magnitude in [`Stage::DispatchLag`]) —
/// and `dispatched − completed` is *engine backlog* (queued + in-flight).
/// Open-loop latency numbers are only honest while generator lag stays
/// near zero; backlog is the quantity that grows without bound past the
/// saturation knee.
#[derive(Default)]
pub struct LoadLedger {
    offered: AtomicU64,
    dispatched: AtomicU64,
    completed: AtomicU64,
}

impl LoadLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `n` arrivals the schedule intended to have offered by now.
    pub fn record_offered(&self, n: u64) {
        self.offered.fetch_add(n, Relaxed);
    }

    /// Count one request actually submitted to the engine.
    pub fn record_dispatched(&self) {
        self.dispatched.fetch_add(1, Relaxed);
    }

    /// Count one result published by the engine.
    pub fn record_completed(&self) {
        self.completed.fetch_add(1, Relaxed);
    }

    pub fn offered(&self) -> u64 {
        self.offered.load(Relaxed)
    }

    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Relaxed)
    }

    pub fn completed(&self) -> u64 {
        self.completed.load(Relaxed)
    }

    /// Requests the schedule intended but the generator has not submitted.
    pub fn generator_lag(&self) -> u64 {
        self.offered().saturating_sub(self.dispatched())
    }

    /// Requests submitted but not yet answered (queued + in-flight).
    pub fn engine_backlog(&self) -> u64 {
        self.dispatched().saturating_sub(self.completed())
    }

    /// Register the three counters plus both derived gaps as gauges named
    /// `<prefix>.{offered, dispatched, completed, generator_lag, backlog}`.
    pub fn register_gauges(self: &Arc<Self>, registry: &MetricsRegistry, prefix: &str) {
        let mk = |l: &Arc<Self>, f: fn(&LoadLedger) -> u64| {
            let l = Arc::clone(l);
            move || f(&l)
        };
        registry.gauge(&format!("{prefix}.offered"), mk(self, Self::offered));
        registry.gauge(&format!("{prefix}.dispatched"), mk(self, Self::dispatched));
        registry.gauge(&format!("{prefix}.completed"), mk(self, Self::completed));
        registry.gauge(&format!("{prefix}.generator_lag"), mk(self, Self::generator_lag));
        registry.gauge(&format!("{prefix}.backlog"), mk(self, Self::engine_backlog));
    }
}

// ---------------------------------------------------------------------------
// Time series: retained metric history.
// ---------------------------------------------------------------------------

/// One periodic observation of a whole [`MetricsRegistry`]: every counter's
/// cumulative value and per-tick delta, every gauge's sample, and every
/// histogram's count plus *interval* quantiles (computed from the bucket
/// deltas since the previous tick via [`RegistrySnapshot::diff`], so a p99
/// here describes this tick's traffic, not all traffic since startup).
#[derive(Debug, Clone)]
pub struct TimeSeriesSample {
    /// Tick number, 0-based and monotone (survives ring eviction).
    pub seq: u64,
    /// Milliseconds since the [`TimeSeries`] was created.
    pub at_ms: u64,
    /// Wall-clock milliseconds since the Unix epoch, for correlating the
    /// ring with journals and postmortems across processes.
    pub unix_ms: u64,
    /// `(name, cumulative value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, increase since the previous tick)` per counter.
    pub counter_deltas: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, interval point)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistPoint)>,
}

/// A histogram's contribution to one [`TimeSeriesSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistPoint {
    /// Cumulative recorded count at this tick.
    pub count: u64,
    /// Values recorded during this tick's interval.
    pub delta: u64,
    /// Interval p50 (upper bound, from the tick's own distribution).
    pub p50: u64,
    /// Interval p95.
    pub p95: u64,
    /// Interval p99.
    pub p99: u64,
    /// Cumulative max (maxima cannot be differenced).
    pub max: u64,
}

impl TimeSeriesSample {
    fn keeps(&self, metric: Option<&str>) -> bool {
        let Some(m) = metric else { return true };
        self.counters.iter().any(|(n, _)| n == m)
            || self.gauges.iter().any(|(n, _)| n == m)
            || self.histograms.iter().any(|(n, _)| n == m)
    }
}

/// What the sampler needs besides the ring: the previous snapshot to diff
/// against. Guarded by its own mutex so readers of the ring never wait
/// behind a snapshot/diff in progress.
struct TsPrev {
    snapshot: Option<RegistrySnapshot>,
    seq: u64,
}

/// A fixed-size ring of periodic [`MetricsRegistry`] observations — the
/// flight recorder's memory. A sampler thread ([`spawn_sampler`]) ticks at
/// a configurable cadence; every metric ever registered automatically
/// acquires retained history with zero per-callsite changes.
///
/// Reads never wait on sampling work: the snapshot and diff happen outside
/// the ring lock, which is held only to push one `Arc` or clone the ring's
/// `Arc`s out.
pub struct TimeSeries {
    capacity: usize,
    started: Instant,
    ticks: AtomicU64,
    ring: Mutex<std::collections::VecDeque<Arc<TimeSeriesSample>>>,
    prev: Mutex<TsPrev>,
}

impl TimeSeries {
    /// An empty ring retaining at most `capacity` ticks (≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TimeSeries {
            capacity,
            started: Instant::now(),
            ticks: AtomicU64::new(0),
            ring: Mutex::new(std::collections::VecDeque::with_capacity(capacity)),
            prev: Mutex::new(TsPrev { snapshot: None, seq: 0 }),
        }
    }

    /// Ring capacity in ticks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ticks taken so far (retained or evicted).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Relaxed)
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> Vec<Arc<TimeSeriesSample>> {
        lock(&self.ring).iter().cloned().collect()
    }

    /// Retained samples whose age relative to the newest one is within
    /// `window`, oldest first.
    pub fn window(&self, window: Duration) -> Vec<Arc<TimeSeriesSample>> {
        let all = self.samples();
        let Some(newest) = all.last().map(|s| s.at_ms) else { return all };
        let horizon = window.as_millis().min(u64::MAX as u128) as u64;
        all.into_iter().filter(|s| newest - s.at_ms <= horizon).collect()
    }

    /// Take one tick now: snapshot `registry`, diff against the previous
    /// tick, and push the resulting sample. The first tick has no previous
    /// snapshot, so its deltas equal the cumulative values.
    pub fn sample(&self, registry: &MetricsRegistry) -> Arc<TimeSeriesSample> {
        let snap = registry.snapshot();
        let at_ms = self.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let (delta, seq) = {
            let mut prev = lock(&self.prev);
            let seq = prev.seq;
            prev.seq += 1;
            let delta = match prev.snapshot.replace(snap.clone()) {
                Some(earlier) => snap.diff(&earlier),
                None => snap.clone(),
            };
            (delta, seq)
        };
        let histograms = snap
            .histograms
            .iter()
            .map(|(name, h)| {
                let d = delta.histogram(name).unwrap_or(h);
                let p = HistPoint {
                    count: h.count,
                    delta: d.count,
                    p50: d.p50(),
                    p95: d.p95(),
                    p99: d.p99(),
                    max: h.max,
                };
                (name.clone(), p)
            })
            .collect();
        let sample = Arc::new(TimeSeriesSample {
            seq,
            at_ms,
            unix_ms,
            counter_deltas: delta.counters,
            counters: snap.counters,
            gauges: snap.gauges,
            histograms,
        });
        {
            let mut ring = lock(&self.ring);
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(Arc::clone(&sample));
        }
        self.ticks.fetch_add(1, Relaxed);
        sample
    }

    /// JSON export (hand-rolled, like every exporter here). `metric`
    /// restricts each sample to that one metric and drops samples that
    /// never saw it; `window` keeps only samples that recent relative to
    /// the newest tick. This is the `/timeline` endpoint's payload.
    pub fn to_json(&self, metric: Option<&str>, window: Option<Duration>) -> String {
        use std::fmt::Write;
        let samples = match window {
            Some(w) => self.window(w),
            None => self.samples(),
        };
        let mut out = String::from("{");
        let _ = write!(out, "\"capacity\":{},\"ticks\":{},", self.capacity, self.ticks());
        match metric {
            Some(m) => {
                let _ = write!(out, "\"metric\":\"{}\",", json_escape(m));
            }
            None => out.push_str("\"metric\":null,"),
        }
        if let Some(w) = window {
            let _ = write!(out, "\"window_ms\":{},", w.as_millis());
        }
        out.push_str("\"samples\":[");
        let mut first = true;
        for s in samples.iter().filter(|s| s.keeps(metric)) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"seq\":{},\"at_ms\":{},\"unix_ms\":{},\"counters\":{{",
                s.seq, s.at_ms, s.unix_ms
            );
            let keep = |n: &str| metric.is_none_or(|m| m == n);
            for (i, (n, v)) in s.counters.iter().filter(|(n, _)| keep(n)).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json_escape(n));
            }
            out.push_str("},\"counter_deltas\":{");
            for (i, (n, v)) in s.counter_deltas.iter().filter(|(n, _)| keep(n)).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json_escape(n));
            }
            out.push_str("},\"gauges\":{");
            for (i, (n, v)) in s.gauges.iter().filter(|(n, _)| keep(n)).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json_escape(n));
            }
            out.push_str("},\"histograms\":{");
            for (i, (n, h)) in s.histograms.iter().filter(|(n, _)| keep(n)).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{}\":{{\"count\":{},\"delta\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                    json_escape(n),
                    h.count,
                    h.delta,
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                );
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Owner handle for the background sampler thread; stops and joins it on
/// drop.
pub struct SamplerHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SamplerHandle {
    /// Signal the sampler and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Tick `series` from `registry` every `interval` on a background thread
/// (one tick immediately, so even short runs retain history). Sampling
/// cost is one registry snapshot plus a bucket-wise diff — a few
/// microseconds at this workspace's metric counts — so cadences down to
/// tens of milliseconds are safe.
pub fn spawn_sampler(
    series: Arc<TimeSeries>,
    registry: Arc<MetricsRegistry>,
    interval: Duration,
) -> SamplerHandle {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("spine-sampler".into())
        .spawn(move || loop {
            // Sample before looking at the flag, so a run stopped before
            // this thread was first scheduled still gets its first tick.
            series.sample(&registry);
            std::thread::park_timeout(interval);
            if stop2.load(Relaxed) {
                return;
            }
        })
        .expect("spawn spine-sampler thread");
    SamplerHandle { stop, thread: Some(thread) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_range_agree() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1_000, 1 << 20, u64::MAX] {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_range(i);
            assert!(lo <= v && v <= hi, "value {v} outside bucket {i} [{lo}, {hi}]");
        }
        // Small values are exact; larger buckets are within 25 %.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert!(hi as f64 <= lo as f64 * 1.25 + 1.0, "bucket {i} too wide: [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantiles_bound_recorded_values() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1_000] {
            h.record_value(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, 1_000);
        assert!(s.p50() >= 50 && s.p50() <= 63, "p50 = {}", s.p50());
        assert_eq!(s.quantile(1.0), 1_000);
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99() && s.p99() <= s.max);
        assert!((s.mean() - 145.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile(1.0), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_value(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().max, 39_999);
    }

    #[test]
    fn registry_names_are_get_or_create() {
        let r = MetricsRegistry::new();
        let a = r.histogram("x");
        let b = r.histogram("x");
        a.record_value(7);
        assert_eq!(b.count(), 1);
        let c = r.counter("y");
        r.counter("y").add(5);
        assert_eq!(c.get(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.histogram("x").unwrap().count, 1);
        assert_eq!(snap.counter("y"), Some(5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn gauges_poll_at_snapshot_time() {
        let r = MetricsRegistry::new();
        let v = Arc::new(AtomicU64::new(3));
        let v2 = Arc::clone(&v);
        r.gauge("g", move || v2.load(Relaxed));
        assert_eq!(r.snapshot().gauge("g"), Some(3));
        v.store(9, Relaxed);
        assert_eq!(r.snapshot().gauge("g"), Some(9));
    }

    #[test]
    fn span_ring_wraps_keeping_newest() {
        let r = MetricsRegistry::with_span_capacity(4);
        let t0 = r.epoch();
        for i in 0..10u64 {
            r.record_span(format!("s{i}"), t0 + Duration::from_micros(i), Duration::from_micros(1));
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans_recorded, 10);
        assert_eq!(snap.spans.len(), 4);
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["s6", "s7", "s8", "s9"], "oldest spans overwritten, order kept");
        assert!(snap.spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
    }

    #[test]
    fn exports_are_well_formed() {
        let r = MetricsRegistry::new();
        r.histogram("h\"x").record_value(5);
        r.counter("c").incr();
        r.gauge("g", || 2);
        r.record_span("work", r.epoch(), Duration::ZERO);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\\\""), "histogram name must be escaped: {json}");
        assert!(json.contains("\"c\":1"));
    }

    #[test]
    fn span_names_are_escaped_in_json() {
        // Regression: span names used to be omitted from to_json entirely,
        // and json_escape passed control characters through raw.
        let r = MetricsRegistry::new();
        r.record_span("evil \"name\"\nwith\\ctl\u{1}", r.epoch(), Duration::from_micros(5));
        let json = r.snapshot().to_json();
        assert!(json.contains("evil \\\"name\\\"\\nwith\\\\ctl\\u0001"), "{json}");
        assert!(!json.contains('\n'), "raw control characters must not survive");
        assert!(json.contains("\"events\":["));
    }

    #[test]
    fn prometheus_export_self_validates() {
        let r = MetricsRegistry::new();
        r.stage(Stage::IndexScan).record_value(1234);
        r.counter("disk.spill_lookups").add(2);
        r.gauge("disk.pool.hits", || 7);
        r.record_span("w", r.epoch(), Duration::ZERO);
        let prom = r.snapshot().to_prometheus("spine");
        validate_prometheus_text(&prom).unwrap();
        assert!(prom.contains("# TYPE spine_stage_index_scan summary"));
        assert!(prom.contains("spine_stage_index_scan{quantile=\"0.5\"}"));
        assert!(prom.contains("spine_disk_spill_lookups_total 2"));
        assert!(prom.contains("spine_disk_pool_hits 7"));
        assert!(prom.contains("spine_spans_recorded_total 1"));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_lines() {
        assert!(validate_prometheus_text("ok_metric 1").is_ok());
        assert!(validate_prometheus_text("m{a=\"x\",b=\"y\"} +Inf").is_ok());
        assert!(validate_prometheus_text("m{a=\"esc\\\"aped\"} 2 123456").is_ok());
        assert!(validate_prometheus_text("# plain comment\n\nm 1").is_ok());
        assert!(validate_prometheus_text("bad.name 1").is_err());
        assert!(validate_prometheus_text("metric notanumber").is_err());
        assert!(validate_prometheus_text("m{l=\"unterminated} 1").is_err());
        assert!(validate_prometheus_text("# TYPE m sideways").is_err());
        assert!(validate_prometheus_text("lonely_name").is_err());
        assert!(validate_prometheus_text("m 1 ts_not_int").is_err());
    }

    #[test]
    fn chrome_trace_exports_spans_on_tracks() {
        let r = MetricsRegistry::new();
        r.record_span("q1", r.epoch(), Duration::from_micros(10));
        r.record_span("w0.batch", r.epoch(), Duration::from_micros(20));
        r.record_span("sharded.merge", r.epoch(), Duration::from_micros(3));
        let trace = r.snapshot().to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.ends_with("}"));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"q1\",\"cat\":\"span\",\"ph\":\"X\""));
        assert!(trace.contains("\"tid\":1")); // q1
        assert!(trace.contains("\"tid\":3")); // w0.batch
        assert!(trace.contains("\"tid\":2")); // sharded.merge
    }

    #[test]
    fn metric_name_sanitization() {
        assert_eq!(sanitize_metric_name("disk.pool.hits"), "disk_pool_hits");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn stage_names_are_distinct_and_busy_set_is_right() {
        let names: std::collections::HashSet<_> =
            Stage::ALL.iter().map(|s| s.metric_name()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
        assert_eq!(Stage::ALL.iter().filter(|s| s.is_worker_busy()).count(), 3);
        assert!(!Stage::AdmissionWait.is_worker_busy());
        assert!(!Stage::RetryBackoff.is_worker_busy());
        assert!(!Stage::DispatchLag.is_worker_busy());
    }

    #[test]
    fn registry_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<MetricsRegistry>();
        check::<Histogram>();
        check::<Counter>();
        check::<RollingWindows>();
        check::<SloTracker>();
    }

    /// Fresh sources and windows over them, first marked at `t0`.
    fn windows_at(t0: Instant) -> (Arc<Histogram>, Arc<Counter>, Arc<RollingWindows>) {
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let w = Arc::new(RollingWindows::new(Arc::clone(&h), Arc::clone(&c), t0));
        (h, c, w)
    }

    /// One finished query, recorded as the engine records it.
    fn finish(h: &Histogram, c: &Counter, latency_ns: u64, answered: bool) {
        h.record_value(latency_ns);
        if !answered {
            c.incr();
        }
    }

    const SEC: Duration = Duration::from_secs(1);

    #[test]
    fn windows_count_errors_and_quantiles() {
        let t0 = Instant::now();
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        finish(&h, &c, 7, false); // before the first mark: never counted
        let w = RollingWindows::new(Arc::clone(&h), Arc::clone(&c), t0);
        for ns in [100, 200, 300, 400] {
            finish(&h, &c, ns, true);
        }
        finish(&h, &c, 1_000_000, false);
        let a = w.window(SHORT_WINDOW, t0 + 2 * SEC);
        assert_eq!((a.count, a.errors), (5, 1));
        assert!((a.error_rate() - 0.2).abs() < 1e-9);
        // Rank 3 is 300, in bucket [256, 319]; rank 5 is the failure.
        assert!((300..=319).contains(&a.p50()), "p50 = {}", a.p50());
        assert_eq!(a.p99(), 1_000_000);
    }

    #[test]
    fn window_rates_divide_by_covered_time() {
        let t0 = Instant::now();
        let (h, c, w) = windows_at(t0);
        for _ in 0..30 {
            finish(&h, &c, 100, true);
        }
        // A window younger than its span divides by the 2 s that elapsed,
        // not by the 10 s span: 15 qps, not 3.
        let a = w.window(SHORT_WINDOW, t0 + 2 * SEC);
        assert_eq!(a.count, 30);
        assert!((a.window_secs - 2.0).abs() < 1e-9);
        assert!((a.qps() - 15.0).abs() < 1e-9);
        // At its first mark a window covers no time: rate 0, never NaN/inf.
        let (_, _, fresh) = windows_at(t0);
        let a = fresh.window(SHORT_WINDOW, t0);
        assert_eq!((a.count, a.qps(), a.error_rate(), a.p99()), (0, 0.0, 0.0, 0));
        // An idle window reads 0 over the 9 s since the mark at 2 s.
        let a = w.window(SHORT_WINDOW, t0 + 11 * SEC);
        assert_eq!((a.count, a.qps(), a.error_rate()), (0, 0.0, 0.0));
        assert!((a.window_secs - 9.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_older_than_the_span_drops_out() {
        let t0 = Instant::now();
        let (h, c, w) = windows_at(t0);
        finish(&h, &c, 100, false);
        assert_eq!(w.window(SHORT_WINDOW, t0 + SEC).count, 1); // marks 1 s
        finish(&h, &c, 200, true);
        finish(&h, &c, 300, true);
        // At 10.5 s the mark at 0 s is outside the 10 s span, so the window
        // runs from the mark at 1 s and the failure before it drops out.
        let at = t0 + 21 * SEC / 2;
        let a = w.window(SHORT_WINDOW, at);
        assert_eq!((a.count, a.errors), (2, 0));
        assert!((a.window_secs - 9.5).abs() < 1e-9);
        // The long window still reaches the first mark.
        assert_eq!(w.window(LONG_WINDOW, at).errors, 1);
        // With no mark inside the span, the traffic cannot be placed in
        // time: the window reads empty rather than stale.
        assert_eq!(w.window(SHORT_WINDOW, t0 + 30 * SEC).count, 0);
        // A read less than a second after the last mark keeps none, so
        // after a read at 0.5 s alone no mark falls inside [0.6 s, 10.6 s].
        let (h, c, w) = windows_at(t0);
        w.window(SHORT_WINDOW, t0 + SEC / 2);
        finish(&h, &c, 100, true);
        assert_eq!(w.window(SHORT_WINDOW, t0 + 53 * SEC / 5).count, 0);
    }

    #[test]
    fn burn_is_the_bad_fraction_over_the_budget() {
        let t0 = Instant::now();
        let (h, c, w) = windows_at(t0);
        // Objective: 100 µs at 0.9 availability, so the budget is 0.1.
        let slo = SloTracker::new(Arc::clone(&w), Duration::from_micros(100), 0.9);
        let at = t0 + SEC;
        assert_eq!(slo.read(at), SloReading { burn_short: 0.0, burn_long: 0.0 });
        for _ in 0..10 {
            finish(&h, &c, 50_000, true);
        }
        assert!(slo.read(at).healthy());
        assert_eq!(slo.read(at).burn_short, 0.0);
        // Slow answers are bad: 5 of 20 burn 0.25 / 0.1 = 2.5× in both.
        for _ in 0..5 {
            finish(&h, &c, 200_000, true);
            finish(&h, &c, 50_000, true);
        }
        let r = slo.read(at);
        assert!((r.burn_short - 2.5).abs() < 1e-9 && (r.burn_long - 2.5).abs() < 1e-9, "{r:?}");
        assert!(!r.healthy());
        // Fast failures are bad too: 10 of 25 burn 4×.
        for _ in 0..5 {
            finish(&h, &c, 10, false);
        }
        assert!((slo.read(at).burn_short - 4.0).abs() < 1e-9);
        // The objective rounds up to its bucket's high edge, 114 687 ns.
        let (h, c, w) = windows_at(t0);
        let slo = SloTracker::new(w, Duration::from_micros(100), 0.9);
        finish(&h, &c, 114_687, true);
        assert_eq!(slo.read(at).burn_short, 0.0);
        finish(&h, &c, 114_688, true);
        assert!((slo.read(at).burn_short - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unhealthy_only_when_both_windows_burn() {
        let t0 = Instant::now();
        let (h, c, w) = windows_at(t0);
        let slo = SloTracker::new(Arc::clone(&w), Duration::from_micros(100), 0.5);
        for _ in 0..100 {
            finish(&h, &c, 50_000, true);
        }
        slo.read(t0 + 30 * SEC); // marks 30 s
                                 // A burst of failures burns the short window; the long one has
                                 // absorbed plenty of good traffic, so this is a blip.
        for _ in 0..10 {
            finish(&h, &c, 10, false);
        }
        let r = slo.read(t0 + 35 * SEC);
        assert!(r.burn_short > 1.0 && r.burn_long < 1.0, "{r:?}");
        assert!(r.healthy());
        // Sustained failures burn the long window too.
        for _ in 0..200 {
            finish(&h, &c, 10, false);
        }
        let r = slo.read(t0 + 40 * SEC);
        assert!(r.burn_short > 1.0 && r.burn_long > 1.0, "{r:?}");
        assert!(!r.healthy());
        // Long alone burning is healthy as well.
        let r = SloReading { burn_short: 0.5, burn_long: 3.0 };
        assert!(r.healthy());
    }

    #[test]
    fn window_and_slo_gauges_read_the_sources() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        let c = r.counter("unanswered");
        let w = Arc::new(RollingWindows::new(Arc::clone(&h), Arc::clone(&c), Instant::now()));
        w.register_gauges(&r, "window");
        let slo = Arc::new(SloTracker::new(w, Duration::from_secs(1), 0.5));
        slo.register_gauges(&r, "slo");
        finish(&h, &c, 3_000, true);
        finish(&h, &c, 5_000, false);
        // The gauges run under the registry's lock and never re-enter it.
        let snap = r.snapshot();
        assert_eq!(snap.gauge("window.count"), Some(2));
        assert_eq!(snap.gauge("window.error_rate_ppm"), Some(500_000));
        assert!(snap.gauge("window.p99_ns").unwrap() >= 5_000);
        assert_eq!(snap.gauge("slo.burn_short_x1000"), Some(1_000));
        assert_eq!(snap.gauge("slo.burn_long_x1000"), Some(1_000));
        assert_eq!(snap.gauge("slo.healthy"), Some(1));
        validate_prometheus_text(&snap.to_prometheus("spine")).unwrap();
    }

    #[test]
    fn snapshot_diff_is_an_interval_snapshot() {
        let r = MetricsRegistry::new();
        let c = r.counter("ops");
        let h = r.histogram("lat");
        c.add(10);
        h.record_value(100);
        h.record_value(200);
        let t0 = r.snapshot();
        c.add(5);
        h.record_value(1_000_000);
        r.counter("late_arrival").incr(); // registered after t0
        let t1 = r.snapshot();
        let d = t1.diff(&t0);
        assert_eq!(d.counter("ops"), Some(5));
        // A metric unknown to the earlier snapshot is included whole.
        assert_eq!(d.counter("late_arrival"), Some(1));
        let dh = d.histogram("lat").unwrap();
        assert_eq!(dh.count, 1);
        // Interval quantiles reflect only the interval's values: the two
        // early cheap values must not drag p50 down.
        assert!(dh.p50() >= 1_000_000);
        // Max stays cumulative; gauges stay instantaneous.
        assert_eq!(dh.max, t1.histogram("lat").unwrap().max);
        // Differencing a snapshot against itself is all-zero.
        let z = t1.diff(&t1);
        assert_eq!(z.counter("ops"), Some(0));
        assert!(z.histogram("lat").unwrap().is_empty());
        // The diff is a full snapshot: every exporter works on it.
        validate_prometheus_text(&d.to_prometheus("spine")).unwrap();
        assert!(d.to_json().contains("\"late_arrival\":1"));
    }

    #[test]
    fn time_series_retains_deltas_and_evicts_fifo() {
        let r = MetricsRegistry::new();
        let c = r.counter("ops");
        let h = r.histogram("lat");
        r.gauge("depth", || 7);
        let ts = TimeSeries::new(3);
        for i in 1..=5u64 {
            c.add(i);
            h.record_value(i * 100);
            ts.sample(&r);
        }
        assert_eq!(ts.ticks(), 5);
        let samples = ts.samples();
        assert_eq!(samples.len(), 3, "ring keeps only the newest capacity ticks");
        assert_eq!(samples[0].seq, 2);
        assert_eq!(samples[2].seq, 4);
        // Tick 4 (1-based add #5): cumulative 1+2+3+4+5, delta 5.
        let last = &samples[2];
        assert_eq!(last.counters, vec![("ops".to_string(), 15)]);
        assert_eq!(last.counter_deltas, vec![("ops".to_string(), 5)]);
        assert_eq!(last.gauges, vec![("depth".to_string(), 7)]);
        let (_, hp) = &last.histograms[0];
        assert_eq!((hp.count, hp.delta), (5, 1));
        assert!(hp.p50 >= 500, "interval p50 covers only this tick's value");
        assert_eq!(hp.max, 500);
    }

    #[test]
    fn time_series_exports_filter_and_parse() {
        let r = MetricsRegistry::new();
        r.counter("a.ops").add(3);
        r.counter("b.ops").add(9);
        r.gauge("depth", || 1);
        let ts = TimeSeries::new(8);
        ts.sample(&r);
        ts.sample(&r);
        let json = ts.to_json(None, None);
        assert!(json.contains("\"capacity\":8"));
        assert!(json.contains("\"a.ops\":3") && json.contains("\"b.ops\":9"));
        // Metric filter: only the named series survives, in every section.
        let json = ts.to_json(Some("a.ops"), None);
        assert!(json.contains("\"a.ops\":3"));
        assert!(!json.contains("b.ops") && !json.contains("depth"));
        // A filter matching nothing yields an empty sample list.
        assert!(ts.to_json(Some("nope"), None).contains("\"samples\":[]"));
        // Zero-width window keeps only ticks at the newest timestamp.
        let windowed = ts.window(Duration::ZERO);
        assert!(!windowed.is_empty());
        assert!(windowed.iter().all(|s| s.at_ms == windowed.last().unwrap().at_ms));
    }

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let r = Arc::new(MetricsRegistry::new());
        r.counter("ops").incr();
        let ts = Arc::new(TimeSeries::new(64));
        let handle = spawn_sampler(Arc::clone(&ts), Arc::clone(&r), Duration::from_millis(1));
        let deadline = Instant::now() + Duration::from_secs(10);
        while ts.ticks() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.stop();
        let ticks = ts.ticks();
        assert!(ticks >= 3, "sampler should have ticked, got {ticks}");
        // Stopped: no more ticks arrive.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(ts.ticks(), ticks);
        assert_eq!(ts.samples().last().unwrap().counters[0], ("ops".to_string(), 1));
    }

    /// Regression: the sampler read its stop flag before its first tick,
    /// so a sampler stopped before its thread was first scheduled took no
    /// sample at all, although its first tick is promised at spawn.
    #[test]
    fn a_sampler_stopped_at_once_still_ticks_once() {
        let r = Arc::new(MetricsRegistry::new());
        for _ in 0..50 {
            let ts = Arc::new(TimeSeries::new(4));
            spawn_sampler(Arc::clone(&ts), Arc::clone(&r), Duration::from_secs(60)).stop();
            assert!(ts.ticks() >= 1, "a stopped sampler took no sample");
        }
    }

    #[test]
    fn labeled_gauges_export_everywhere() {
        let r = MetricsRegistry::new();
        r.labeled_gauge("build.ribs", &[("engine", "spine")], || 4);
        r.labeled_gauge("build.ribs", &[("engine", "disk")], || 7);
        let snap = r.snapshot();
        assert_eq!(snap.labeled_gauge("build.ribs", &[("engine", "spine")]), Some(4));
        assert_eq!(snap.labeled_gauge("build.ribs", &[("engine", "disk")]), Some(7));
        assert_eq!(snap.labeled_gauge("build.ribs", &[("engine", "nope")]), None);
        let json = snap.to_json();
        assert!(json.contains("\"labeled_gauges\":["));
        assert!(json.contains("\"labels\":{\"engine\":\"disk\"}"));
        let prom = snap.to_prometheus("spine");
        validate_prometheus_text(&prom).unwrap();
        assert!(prom.contains("spine_build_ribs{engine=\"spine\"} 4"));
        assert!(prom.contains("spine_build_ribs{engine=\"disk\"} 7"));
        // One TYPE header per family even with two series.
        assert_eq!(prom.matches("# TYPE spine_build_ribs gauge").count(), 1);
    }

    #[test]
    fn adversarial_label_values_escape_and_validate() {
        // Backslashes, quotes, newlines — the exposition 0.0.4 escape set.
        let evil = "pa\\th \"quoted\"\nnext";
        assert_eq!(escape_label_value(evil), "pa\\\\th \\\"quoted\\\"\\nnext");
        let r = MetricsRegistry::new();
        r.labeled_gauge("build.source", &[("file", evil), ("9 bad key!", "v")], || 1);
        let prom = r.snapshot().to_prometheus("spine");
        validate_prometheus_text(&prom).unwrap();
        assert!(prom.contains("file=\"pa\\\\th \\\"quoted\\\"\\nnext\""));
        // Label keys are sanitized to the legal charset.
        assert!(prom.contains("_9_bad_key_=\"v\""));
        // JSON export stays parseable too (shared json_escape path).
        let json = r.snapshot().to_json();
        assert!(json.contains("\"file\":\"pa\\\\th \\\"quoted\\\"\\nnext\""));
    }

    #[test]
    fn label_value_escaping_round_trips_through_validator() {
        for v in ["", "plain", "\\", "\"", "\n", "\\\"", "a\\b\"c\nd", "trailing\\"] {
            let r = MetricsRegistry::new();
            let owned = v.to_string();
            r.labeled_gauge("m", &[("k", &owned)], || 1);
            let prom = r.snapshot().to_prometheus("ns");
            validate_prometheus_text(&prom).unwrap_or_else(|e| panic!("value {v:?} failed: {e}"));
        }
    }

    #[test]
    fn load_ledger_tracks_both_gaps_and_registers_gauges() {
        let l = Arc::new(LoadLedger::new());
        l.record_offered(10);
        for _ in 0..7 {
            l.record_dispatched();
        }
        for _ in 0..4 {
            l.record_completed();
        }
        assert_eq!(l.generator_lag(), 3, "10 offered − 7 dispatched");
        assert_eq!(l.engine_backlog(), 3, "7 dispatched − 4 completed");
        let r = MetricsRegistry::new();
        l.register_gauges(&r, "load");
        let snap = r.snapshot();
        assert_eq!(snap.gauge("load.offered"), Some(10));
        assert_eq!(snap.gauge("load.generator_lag"), Some(3));
        assert_eq!(snap.gauge("load.backlog"), Some(3));
        // Catch-up drains the gaps without ever underflowing.
        for _ in 0..3 {
            l.record_dispatched();
            l.record_completed();
        }
        for _ in 0..3 {
            l.record_completed();
        }
        assert_eq!(l.generator_lag(), 0);
        assert_eq!(l.engine_backlog(), 0);
    }
}
