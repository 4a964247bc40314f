//! Concurrent batched query engine with fault-tolerant serving.
//!
//! The SPINE structures are immutable after construction and use only
//! relaxed atomic counters for instrumentation, so one index can serve any
//! number of concurrent readers. This module packages that property into a
//! server-shaped front end:
//!
//! * a **worker pool** of OS threads sharing one [`Arc`]-held index;
//! * a **bounded admission queue** — each worker takes up to
//!   [`EngineConfig::batch_max`] requests per wakeup and hands them to the
//!   index together ([`ServeIndex::answer_patterns`]), which answers each
//!   pattern on its own. When the queue is at
//!   [`EngineConfig::queue_capacity`], the [`ShedPolicy`] decides whether a
//!   new submission blocks for space or is shed with
//!   [`SubmitError::Overloaded`];
//! * **per-request deadlines** ([`QueryEngine::submit_with_deadline`]):
//!   a request whose deadline has passed by the time a worker would batch it
//!   completes as [`QueryOutcome::TimedOut`] without occupying a batch slot;
//! * **worker panic isolation**: a panic while answering a batch fails only
//!   that batch's requests ([`QueryOutcome::Failed`]); the worker is
//!   respawned (counted in [`MetricsSnapshot::worker_respawns`]) and
//!   `drain` never hangs;
//! * a **hand-off that spins before it parks**. Three kinds of thread wait
//!   on the engine: idle workers (for a submission), `drain` callers (for
//!   the engine to go idle) and [`ShedPolicy::Block`] submitters (for queue
//!   space). Each kind has a condvar, a count of the threads parked on it
//!   and an epoch that every change it waits for bumps under the state
//!   lock. A waiter first releases the lock and watches its epoch, yielding
//!   the CPU between looks, for at most a 50 µs budget per idle period, and
//!   only then parks; a change notifies a condvar only when its parked
//!   count is non-zero. So a closed-loop client and a worker hand queries
//!   back and forth without a wake syscall or the wake-up of an idle CPU,
//!   and an idle engine parks every thread within the budget. Waiters spin
//!   only when the workers and one caller can each have a CPU of their own
//!   (`workers < available_parallelism()`, decided at build); otherwise
//!   they park at once. Queries never run on the `drain` caller's thread,
//!   so `workers` still bounds the threads that do index work;
//! * a **metrics surface** ([`MetricsSnapshot`]) aggregating the index's
//!   [`strindex::Counters`] with per-worker batch statistics, the observed
//!   queue depth, and the fate of every request. The request ledger lives
//!   under the state lock and is snapshotted atomically, so
//!   `completed + shed + timed_out + failed + pending + in_flight ==
//!   submitted` holds on *every* snapshot, not just at idle;
//! * an optional **telemetry hookup** ([`QueryEngine::with_telemetry`]):
//!   given a shared [`MetricsRegistry`], the engine records per-stage
//!   latency histograms ([`Stage::AdmissionWait`], [`Stage::BatchFormation`],
//!   [`Stage::IndexScan`], [`Stage::ResultMerge`]), one end-to-end latency
//!   per finished query ([`QUERY_LATENCY`]) plus a count of the unanswered
//!   ones ([`QUERIES_UNANSWERED`]), batch sizes, and per-query/per-batch
//!   tracing spans. Rolling windows and SLO burn rates are derived from
//!   those two at read time ([`strindex::telemetry::RollingWindows`]).
//!   Engines built with [`QueryEngine::new`] record nothing and pay nothing.
//!
//! Any [`ServeIndex`] works. Every [`FallibleSpineOps`] engine is one for
//! free (a blanket impl answers each pattern with
//! [`try_find_all_ends`]: locate, then a link-tree walk where the
//! structure keeps a link tree, the §4 backbone scan otherwise): the
//! reference [`crate::Spine`], the §5 [`crate::CompactSpine`], a
//! [`crate::GeneralizedSpine`] over many documents, or a page-resident
//! [`crate::DiskSpine`] or [`crate::SealedSpine`] — whose storage faults
//! degrade the affected requests to [`QueryOutcome::Failed`] instead of
//! tearing down the server.
//! Composite indexes implement [`ServeIndex`] directly and answer with
//! document-level matches ([`QueryOutcome::DoneDocs`]): the segmented LSM
//! store ([`crate::SegmentedSpine`]), and [`crate::ShardedSpine`], which
//! partitions documents across several generalized indexes and answers in
//! global document ids.
//!
//! ```
//! use spine::engine::{EngineConfig, QueryEngine};
//! use spine::Spine;
//! use std::sync::Arc;
//! use strindex::Alphabet;
//!
//! let alphabet = Alphabet::dna();
//! let index = Arc::new(Spine::build_from_bytes(alphabet.clone(), b"AACCACAACA").unwrap());
//! let engine = QueryEngine::new(index, EngineConfig { workers: 2, ..Default::default() });
//! engine.submit(alphabet.encode(b"CA").unwrap()).unwrap();
//! engine.submit(alphabet.encode(b"AC").unwrap()).unwrap();
//! let results = engine.drain();
//! assert_eq!(results[0].expect_starts(), vec![3, 5, 8]); // CA
//! assert_eq!(results[1].expect_starts(), vec![1, 4, 7]); // AC
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::generalized::DocMatch;
use crate::node::NodeId;
use crate::occurrences::try_find_all_ends;
use crate::ops::FallibleSpineOps;
use strindex::telemetry::{Counter, Histogram, MetricsRegistry, Stage};
use strindex::{Code, CountersSnapshot};

/// What happens to a submission that finds the admission queue full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Block the submitting thread until a worker frees queue space.
    /// Backpressure without loss; the default.
    #[default]
    Block,
    /// Shed the incoming request: `submit` returns
    /// [`SubmitError::Overloaded`] immediately and the request is counted in
    /// [`MetricsSnapshot::shed`]. Bounded latency under overload.
    RejectNewest,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue was at capacity and the engine's
    /// [`ShedPolicy::RejectNewest`] policy shed this request.
    Overloaded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue full; request shed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Tuning knobs for a [`QueryEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads in the pool (clamped to ≥ 1).
    pub workers: usize,
    /// Most requests one worker coalesces into one batch (clamped to ≥ 1).
    pub batch_max: usize,
    /// Most requests the admission queue holds before the [`ShedPolicy`]
    /// applies (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// What to do with submissions that find the queue full.
    pub shed: ShedPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        EngineConfig { workers, batch_max: 64, queue_capacity: 4096, shed: ShedPolicy::Block }
    }
}

/// Monotonic id assigned by [`QueryEngine::submit`]; results carry it so
/// callers can correlate answers with submissions.
pub type QueryId = u64;

/// How one submitted pattern ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Answered: end positions (1-based) of every occurrence, ascending —
    /// the same values serial [`crate::occurrences::find_all_ends`] yields.
    Done(Vec<NodeId>),
    /// Answered by a document-collection index: every occurrence as a
    /// `(document, offset)` pair, ordered by (doc, offset). Produced by
    /// [`ServeIndex`] implementations whose position space is per-document
    /// (the segmented store, the sharded index) rather than one
    /// concatenation.
    DoneDocs(Vec<DocMatch>),
    /// The request's deadline passed before a worker batched it; no index
    /// work was spent on it.
    TimedOut,
    /// The request could not be answered: a storage fault surfaced during
    /// the traversal, or the worker panicked mid-batch. The message
    /// explains which.
    Failed(String),
}

impl QueryOutcome {
    /// Did the request produce an answer (either position flavor)?
    /// Timeouts and failures count against availability.
    pub fn is_answered(&self) -> bool {
        matches!(self, QueryOutcome::Done(_) | QueryOutcome::DoneDocs(_))
    }
}

/// The answer to one submitted pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Id returned by the corresponding `submit`.
    pub id: QueryId,
    /// The pattern, handed back so `drain` callers need no side table.
    pub pattern: Vec<Code>,
    /// How the request ended up.
    pub outcome: QueryOutcome,
}

impl QueryResult {
    /// Occurrence end positions if the query completed, `None` if it timed
    /// out or failed.
    pub fn ends(&self) -> Option<&[NodeId]> {
        match &self.outcome {
            QueryOutcome::Done(ends) => Some(ends),
            _ => None,
        }
    }

    /// Occurrence end positions; panics if the query did not complete.
    pub fn expect_ends(&self) -> &[NodeId] {
        match &self.outcome {
            QueryOutcome::Done(ends) => ends,
            other => panic!("query {} did not complete: {other:?}", self.id),
        }
    }

    /// Occurrence start offsets (0-based), ascending; panics if the query
    /// did not complete.
    pub fn expect_starts(&self) -> Vec<usize> {
        self.expect_ends().iter().map(|&e| e as usize - self.pattern.len()).collect()
    }

    /// Document-level matches if the query completed against a
    /// document-collection index, `None` otherwise.
    pub fn doc_matches(&self) -> Option<&[DocMatch]> {
        match &self.outcome {
            QueryOutcome::DoneDocs(m) => Some(m),
            _ => None,
        }
    }

    /// Document-level matches; panics if the query did not complete with
    /// [`QueryOutcome::DoneDocs`].
    pub fn expect_doc_matches(&self) -> &[DocMatch] {
        match &self.outcome {
            QueryOutcome::DoneDocs(m) => m,
            other => panic!("query {} has no document matches: {other:?}", self.id),
        }
    }
}

/// Batch statistics for one worker thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Coalesced batches this worker answered.
    pub batches: u64,
    /// Individual queries answered.
    pub queries: u64,
    /// Largest batch it coalesced.
    pub max_batch: u64,
}

/// Point-in-time view of engine activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Index work counters (nodes checked, links followed, …), as the
    /// index reports them ([`ServeIndex::counters_snapshot`]): summed over
    /// every structure it queries.
    pub index: CountersSnapshot,
    /// Per-worker batch statistics, one entry per pool thread.
    pub workers: Vec<WorkerMetrics>,
    /// Requests presented to the engine over its lifetime (admitted or
    /// shed).
    pub submitted: u64,
    /// Requests fully answered ([`QueryOutcome::Done`]).
    pub completed: u64,
    /// Requests shed at admission by [`ShedPolicy::RejectNewest`].
    pub shed: u64,
    /// Requests that expired before a worker batched them
    /// ([`QueryOutcome::TimedOut`]).
    pub timed_out: u64,
    /// Requests that ended as [`QueryOutcome::Failed`] (storage fault or
    /// worker panic).
    pub failed: u64,
    /// Requests sitting in the admission queue at snapshot time.
    pub pending: u64,
    /// Requests inside worker batches at snapshot time.
    pub in_flight: u64,
    /// Worker threads respawned after a panic.
    pub worker_respawns: u64,
    /// Deepest the admission queue has been.
    pub peak_queue_depth: u64,
}

impl MetricsSnapshot {
    /// Total coalesced batches across workers.
    pub fn batches(&self) -> u64 {
        self.workers.iter().map(|w| w.batches).sum()
    }

    /// Mean queries per batch — the coalescing factor. 0 when idle.
    pub fn mean_batch(&self) -> f64 {
        let b = self.batches();
        if b == 0 {
            0.0
        } else {
            self.completed as f64 / b as f64
        }
    }

    /// Requests whose fate is recorded. Equals [`submitted`](Self::submitted)
    /// whenever the engine is idle — the accounting invariant the
    /// fault-tolerance tests assert.
    pub fn accounted(&self) -> u64 {
        self.completed + self.shed + self.timed_out + self.failed
    }

    /// The full-strength ledger invariant: every submitted request is either
    /// finalized, waiting in the queue, or inside a worker batch. Because
    /// the ledger is snapshotted under the engine's state lock, this holds
    /// on every snapshot — including ones taken mid-flight.
    pub fn is_consistent(&self) -> bool {
        self.accounted() + self.pending + self.in_flight == self.submitted
    }
}

struct WorkerStats {
    batches: AtomicU64,
    queries: AtomicU64,
    max_batch: AtomicU64,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            batches: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        }
    }

    fn record(&self, batch: usize) {
        self.batches.fetch_add(1, Relaxed);
        self.queries.fetch_add(batch as u64, Relaxed);
        self.max_batch.fetch_max(batch as u64, Relaxed);
    }

    fn read(&self) -> WorkerMetrics {
        WorkerMetrics {
            batches: self.batches.load(Relaxed),
            queries: self.queries.load(Relaxed),
            max_batch: self.max_batch.load(Relaxed),
        }
    }
}

/// What a [`QueryEngine`] needs from an index: answer a worker's batch of
/// patterns, one outcome per pattern, in order.
///
/// Every [`FallibleSpineOps`] engine gets this for free via a blanket impl
/// that answers each pattern with [`try_find_all_ends`] in concatenation
/// coordinates ([`QueryOutcome::Done`]). Composite indexes (the segmented
/// LSM store, the sharded generalized index) implement it directly and
/// answer per document ([`QueryOutcome::DoneDocs`]). Either way the
/// engine's queueing, deadlines, shedding, panic isolation, and ledger
/// accounting apply unchanged.
pub trait ServeIndex: Send + Sync {
    /// Resolve `patterns` (a worker's batch); the returned vector must have
    /// exactly one outcome per pattern, in order. Failures are per-pattern:
    /// a storage fault in one pattern's resolution fails only that pattern.
    /// A panic fails the whole batch (the engine catches it, fails every
    /// request in the batch, and respawns the worker).
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome>;

    /// Snapshot of the index's work counters, aggregated over whatever
    /// structures it queries (one backbone, the memtable and every segment,
    /// or every shard).
    fn counters_snapshot(&self) -> CountersSnapshot;
}

/// Every single-backbone engine answers each pattern on its own: locate
/// its valid path, then enumerate its ends (the empty pattern's path is
/// the root, so it ends at every node `0..=n`).
impl<S: FallibleSpineOps + Send + Sync> ServeIndex for S {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        patterns
            .iter()
            .map(|p| match try_find_all_ends(self, p) {
                Ok(ends) => QueryOutcome::Done(ends),
                Err(e) => QueryOutcome::Failed(e.to_string()),
            })
            .collect()
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        self.ops_counters().snapshot()
    }
}

struct Request {
    id: QueryId,
    pattern: Vec<Code>,
    deadline: Option<Instant>,
    submitted_at: Instant,
}

/// The request-fate ledger. Plain fields mutated only under the state lock,
/// so a locked read is always internally consistent: `completed + shed +
/// timed_out + failed + pending.len() + in_flight == submitted`. (These were
/// once independent relaxed atomics, and snapshots taken concurrently with a
/// completion could transiently violate the invariant.)
#[derive(Default)]
struct Ledger {
    submitted: u64,
    completed: u64,
    shed: u64,
    timed_out: u64,
    failed: u64,
    worker_respawns: u64,
    peak_queue_depth: u64,
}

/// The three kinds of thread that wait on the engine, each with its own
/// condvar, epoch and parked count ([`Shared::wait`]).
#[derive(Clone, Copy)]
enum Waiter {
    /// An idle worker: waits for a submission (or shutdown).
    Worker,
    /// A `drain` caller: waits for the engine to go idle.
    Drainer,
    /// A [`ShedPolicy::Block`] submitter: waits for queue space.
    Submitter,
}

/// Queue + completion state behind one mutex.
struct State {
    pending: VecDeque<Request>,
    done: Vec<QueryResult>,
    in_flight: usize,
    shutdown: bool,
    ledger: Ledger,
    /// Threads parked on each [`Waiter`] kind's condvar. A change notifies
    /// a condvar only when its count is non-zero.
    parked: [u32; 3],
}

/// How long a waiter spins before it parks, once per idle period: from its
/// first wait until its condition holds. Parking costs a wake syscall and
/// the wake-up of the parked thread's CPU. On a 2-vCPU KVM VM a thread
/// parked on a condvar resumed 1.3–1.8 µs (p50) and up to 8 µs (p99) after
/// the notify, and an empty-index round trip through a 1-worker engine
/// took 8.8–9.1 µs (p50) and 17–25 µs (p99) once its worker had parked,
/// against 2.2–3.0 µs while it spun. The budget is twice that p99: a wait
/// that ends within it pays no park-plus-wake, and an idle engine parks
/// every thread within it.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Whether an engine's waiters spin before they park: only when every
/// worker and one caller can each have a CPU of their own. Otherwise a
/// spinning waiter would take a CPU from a thread with work to do.
fn spins(workers: usize) -> bool {
    workers < std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Registry name of the histogram that takes one submit → finalize latency
/// per finished query, answered or not.
pub const QUERY_LATENCY: &str = "engine.query_latency";

/// Registry name of the counter of finished queries that produced no answer.
pub const QUERIES_UNANSWERED: &str = "engine.queries_unanswered";

/// Stage histograms and span plumbing for one engine, pre-registered so the
/// worker loop's recording is wait-free. Present only on engines built with
/// [`QueryEngine::with_telemetry`].
struct EngineTelemetry {
    registry: Arc<MetricsRegistry>,
    admission_wait: Arc<Histogram>,
    batch_formation: Arc<Histogram>,
    index_scan: Arc<Histogram>,
    result_merge: Arc<Histogram>,
    /// Submit → finalize, one sample per finished query ([`QUERY_LATENCY`]).
    query_latency: Arc<Histogram>,
    /// Finished queries that produced no answer ([`QUERIES_UNANSWERED`]).
    unanswered: Arc<Counter>,
    /// Requests coalesced per batch ("engine.batch_size").
    batch_size: Arc<Histogram>,
}

impl EngineTelemetry {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        EngineTelemetry {
            admission_wait: registry.stage(Stage::AdmissionWait),
            batch_formation: registry.stage(Stage::BatchFormation),
            index_scan: registry.stage(Stage::IndexScan),
            result_merge: registry.stage(Stage::ResultMerge),
            query_latency: registry.histogram(QUERY_LATENCY),
            unanswered: registry.counter(QUERIES_UNANSWERED),
            batch_size: registry.histogram("engine.batch_size"),
            registry,
        }
    }

    /// Record one finished query, once: its latency, plus one unanswered
    /// count when it produced no answer (timed out, failed, or lost to a
    /// worker panic), so every finished query counts against availability.
    fn record_finished(&self, latency: Duration, answered: bool) {
        self.query_latency.record(latency);
        if !answered {
            self.unanswered.incr();
        }
    }
}

/// Callback invoked after a worker panic is contained (batch failed,
/// ledger settled) and before the worker respawns. The argument is the
/// panic message. Runs outside the state lock, so it may do I/O — this is
/// the flight recorder's postmortem trigger.
pub type PanicHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Callback invoked once per finalized query — completed, timed out, or
/// failed — immediately after its result is published and the state lock
/// released. The argument is the query's id. Runs on worker threads, so it
/// should be cheap (a timestamp store, a semaphore release); it may read
/// [`QueryEngine::metrics`] but must not block on [`QueryEngine::drain`].
/// This is how the open-loop load harness timestamps completions without
/// polling: latency measured from *intended* arrival to this callback
/// charges queue wait to the query instead of hiding it.
pub type CompletionHook = Arc<dyn Fn(QueryId) + Send + Sync>;

/// Where one [`Waiter`] kind waits: parked on `cv`, or spinning on `epoch`.
#[derive(Default)]
struct Wakeup {
    cv: Condvar,
    /// Bumped under the state lock by every change that may end this kind's
    /// wait. Spinners read it with the lock released, only as a hint to
    /// relock: the state, this counter included, is re-read under the lock,
    /// which orders it, so `Relaxed` suffices.
    epoch: AtomicU64,
}

struct Shared {
    state: Mutex<State>,
    /// One per [`Waiter`] kind, in declaration order.
    wakeups: [Wakeup; 3],
    /// Whether waiters spin before parking ([`spins`]), fixed at build.
    spin: bool,
    worker_stats: Vec<WorkerStats>,
    telemetry: Option<EngineTelemetry>,
    panic_hook: Mutex<Option<PanicHook>>,
    completion_hook: Mutex<Option<CompletionHook>>,
}

impl Shared {
    /// Lock the engine state, surviving mutex poisoning: a worker that
    /// panicked inside `answer_batch` never held this lock, and even if a
    /// future bug poisons it, serving degraded beats deadlocking `drain`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait, holding `g` on entry and on return, for a change that may end
    /// a `who` wait; the caller rechecks its condition. `idle` is the
    /// caller's idle period: `None` at its first wait, and it must be kept
    /// until the condition holds.
    ///
    /// On a spinning engine the waiter first spends up to [`SPIN_BUDGET`]
    /// of the idle period with the lock released, watching `who`'s epoch
    /// and yielding the CPU between looks. After that, and on other engines
    /// at once, it parks on `who`'s condvar, counted in [`State::parked`].
    fn wait<'a>(
        &'a self,
        who: Waiter,
        mut g: MutexGuard<'a, State>,
        idle: &mut Option<Instant>,
    ) -> MutexGuard<'a, State> {
        let w = &self.wakeups[who as usize];
        if self.spin {
            let now = Instant::now();
            let until = *idle.get_or_insert(now + SPIN_BUDGET);
            if now < until {
                let seen = w.epoch.load(Relaxed);
                drop(g);
                while w.epoch.load(Relaxed) == seen && Instant::now() < until {
                    std::thread::yield_now();
                }
                g = self.lock();
                if w.epoch.load(Relaxed) != seen {
                    return g;
                }
            }
        }
        g.parked[who as usize] += 1;
        g = w.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        g.parked[who as usize] -= 1;
        g
    }

    /// Note, under the state lock, a change that may end a `who` wait: bump
    /// its epoch for spinners, and return its condvar if a `who` thread is
    /// parked, for the caller to notify (after unlocking, where it can).
    fn changed(&self, st: &State, who: Waiter) -> Option<&Condvar> {
        let w = &self.wakeups[who as usize];
        w.epoch.fetch_add(1, Relaxed);
        (st.parked[who as usize] > 0).then_some(&w.cv)
    }

    fn notify_if_idle(&self, st: &State) {
        if st.pending.is_empty() && st.in_flight == 0 {
            if let Some(cv) = self.changed(st, Waiter::Drainer) {
                cv.notify_all();
            }
        }
    }
}

/// A fixed pool of worker threads answering all-occurrence queries against
/// one shared, immutable SPINE index. See the [module docs](self).
///
/// Dropping the engine shuts the pool down; un-drained results are
/// discarded.
pub struct QueryEngine<S: ServeIndex + 'static> {
    index: Arc<S>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    queue_capacity: usize,
    shed_policy: ShedPolicy,
    pool: Vec<JoinHandle<()>>,
}

impl<S: ServeIndex + 'static> QueryEngine<S> {
    /// Spin up a worker pool over `index` with telemetry disabled.
    pub fn new(index: Arc<S>, config: EngineConfig) -> Self {
        Self::build(index, config, None)
    }

    /// Spin up a worker pool that records stage timings, query latencies,
    /// and tracing spans into `registry` (shareable with the storage layer
    /// so one snapshot covers the whole serving path).
    pub fn with_telemetry(
        index: Arc<S>,
        config: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        Self::build(index, config, Some(EngineTelemetry::new(registry)))
    }

    fn build(index: Arc<S>, config: EngineConfig, telemetry: Option<EngineTelemetry>) -> Self {
        let workers = config.workers.max(1);
        let batch_max = config.batch_max.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                done: Vec::new(),
                in_flight: 0,
                shutdown: false,
                ledger: Ledger::default(),
                parked: [0; 3],
            }),
            wakeups: Default::default(),
            spin: spins(workers),
            worker_stats: (0..workers).map(|_| WorkerStats::new()).collect(),
            telemetry,
            panic_hook: Mutex::new(None),
            completion_hook: Mutex::new(None),
        });
        let pool = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let index = Arc::clone(&index);
                std::thread::Builder::new()
                    .name(format!("spine-worker-{w}"))
                    .spawn(move || {
                        // Respawn-in-place: a panic escaping `worker_loop`
                        // (the batch that caused it has already been failed
                        // and accounted) restarts the loop on this same OS
                        // thread, so the pool never shrinks.
                        loop {
                            let run = catch_unwind(AssertUnwindSafe(|| {
                                worker_loop(&*index, &shared, w, batch_max)
                            }));
                            match run {
                                Ok(()) => return, // clean shutdown
                                Err(payload) => {
                                    shared.lock().ledger.worker_respawns += 1;
                                    // Fire the postmortem hook outside the
                                    // state lock: it may dump files.
                                    let hook = shared
                                        .panic_hook
                                        .lock()
                                        .unwrap_or_else(PoisonError::into_inner)
                                        .clone();
                                    if let Some(h) = hook {
                                        h(&panic_message(payload.as_ref()));
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn query worker")
            })
            .collect();
        QueryEngine {
            index,
            shared,
            next_id: AtomicU64::new(0),
            queue_capacity,
            shed_policy: config.shed,
            pool,
        }
    }

    /// The telemetry registry this engine records into, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.shared.telemetry.as_ref().map(|t| &t.registry)
    }

    /// Install a callback fired whenever a worker panic is contained (after
    /// the batch is failed and accounted, before the worker respawns),
    /// with the panic message. Replaces any previous hook. Runs on the
    /// panicking worker's thread, outside the engine's state lock.
    pub fn set_panic_hook(&self, hook: impl Fn(&str) + Send + Sync + 'static) {
        *self.shared.panic_hook.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(Arc::new(hook));
    }

    /// Install a callback fired once per finalized query (completed, timed
    /// out, or failed) right after its result is published — see
    /// [`CompletionHook`]. Replaces any previous hook. Queries finalized
    /// before installation never fire it.
    pub fn set_completion_hook(&self, hook: impl Fn(QueryId) + Send + Sync + 'static) {
        *self.shared.completion_hook.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(Arc::new(hook));
    }

    /// The shared index this engine answers from.
    pub fn index(&self) -> &Arc<S> {
        &self.index
    }

    /// Enqueue one pattern; returns its id, or
    /// [`SubmitError::Overloaded`] if the queue is full and the engine
    /// sheds. Under [`ShedPolicy::Block`] this never errors (it waits for
    /// space instead).
    pub fn submit(&self, pattern: Vec<Code>) -> std::result::Result<QueryId, SubmitError> {
        self.submit_request(pattern, None)
    }

    /// [`submit`](Self::submit) with a deadline: if `deadline` passes
    /// before a worker picks the request up, it completes as
    /// [`QueryOutcome::TimedOut`] without consuming a batch slot.
    pub fn submit_with_deadline(
        &self,
        pattern: Vec<Code>,
        deadline: Instant,
    ) -> std::result::Result<QueryId, SubmitError> {
        self.submit_request(pattern, Some(deadline))
    }

    fn submit_request(
        &self,
        pattern: Vec<Code>,
        deadline: Option<Instant>,
    ) -> std::result::Result<QueryId, SubmitError> {
        let mut st = self.shared.lock();
        let mut idle = None;
        while st.pending.len() >= self.queue_capacity {
            match self.shed_policy {
                ShedPolicy::RejectNewest => {
                    // Still under the lock: submitted and shed move together
                    // so no snapshot can catch one without the other.
                    st.ledger.submitted += 1;
                    st.ledger.shed += 1;
                    return Err(SubmitError::Overloaded);
                }
                ShedPolicy::Block => {
                    st = self.shared.wait(Waiter::Submitter, st, &mut idle);
                }
            }
        }
        let id = self.next_id.fetch_add(1, Relaxed);
        st.ledger.submitted += 1;
        st.pending.push_back(Request { id, pattern, deadline, submitted_at: Instant::now() });
        st.ledger.peak_queue_depth = st.ledger.peak_queue_depth.max(st.pending.len() as u64);
        let parked = self.shared.changed(&st, Waiter::Worker);
        drop(st);
        if let Some(cv) = parked {
            cv.notify_one();
        }
        Ok(id)
    }

    /// Enqueue many patterns; returns one admission result per pattern, in
    /// order. Under [`ShedPolicy::RejectNewest`] individual patterns may be
    /// shed while earlier ones were admitted.
    pub fn submit_batch<I>(&self, patterns: I) -> Vec<std::result::Result<QueryId, SubmitError>>
    where
        I: IntoIterator<Item = Vec<Code>>,
    {
        patterns.into_iter().map(|p| self.submit_request(p, None)).collect()
    }

    /// Block until every admitted query has an outcome, then return all
    /// accumulated results sorted by [`QueryId`].
    ///
    /// Never hangs: timed-out requests are finalized by workers without
    /// index work, and a worker panic fails its batch (restoring the
    /// in-flight count) before the worker respawns.
    pub fn drain(&self) -> Vec<QueryResult> {
        let mut st = self.shared.lock();
        let mut idle = None;
        while !(st.pending.is_empty() && st.in_flight == 0) {
            st = self.shared.wait(Waiter::Drainer, st, &mut idle);
        }
        let mut out = std::mem::take(&mut st.done);
        drop(st);
        out.sort_by_key(|r| r.id);
        out
    }

    /// Current activity counters. Cheap; safe to call while queries run.
    ///
    /// The ledger is read under the state lock, so the snapshot is
    /// self-consistent ([`MetricsSnapshot::is_consistent`]) even mid-flight.
    pub fn metrics(&self) -> MetricsSnapshot {
        let st = self.shared.lock();
        MetricsSnapshot {
            index: self.index.counters_snapshot(),
            workers: self.shared.worker_stats.iter().map(WorkerStats::read).collect(),
            submitted: st.ledger.submitted,
            completed: st.ledger.completed,
            shed: st.ledger.shed,
            timed_out: st.ledger.timed_out,
            failed: st.ledger.failed,
            pending: st.pending.len() as u64,
            in_flight: st.in_flight as u64,
            worker_respawns: st.ledger.worker_respawns,
            peak_queue_depth: st.ledger.peak_queue_depth,
        }
    }
}

impl<S: FallibleSpineOps + Send + Sync + 'static> QueryEngine<S> {
    /// Answer one pattern synchronously on the calling thread with a full
    /// EXPLAIN trace attached ([`crate::trace::QueryTrace`]).
    ///
    /// The request flows through the same ledger as queued submissions
    /// (submitted → in-flight → completed/failed), so
    /// [`MetricsSnapshot::is_consistent`] holds on every snapshot taken
    /// while the traced query runs, and telemetry-enabled engines record
    /// its end-to-end latency plus a `q<id>.explain` span like any other
    /// query. It bypasses the admission queue — EXPLAIN is a diagnostic
    /// read, not load — and never sheds.
    ///
    /// Only single-backbone ([`FallibleSpineOps`]) engines trace; composite
    /// stores explain per component ([`crate::SegmentedSpine::explain`]).
    ///
    /// A storage fault ends as [`QueryOutcome::Failed`] with the partial
    /// trace retained ([`crate::trace::QueryTrace::error`]).
    pub fn submit_traced(&self, pattern: Vec<Code>) -> (QueryResult, crate::trace::QueryTrace) {
        let start = Instant::now();
        let id = self.next_id.fetch_add(1, Relaxed);
        {
            let mut st = self.shared.lock();
            st.ledger.submitted += 1;
            st.in_flight += 1;
        }
        let trace = crate::trace::explain(self.index.as_ref(), &pattern);
        let outcome = match &trace.error {
            Some(e) => QueryOutcome::Failed(e.clone()),
            None => QueryOutcome::Done(trace.ends.clone()),
        };
        if let Some(t) = &self.shared.telemetry {
            // Recorded before the publish below, like a worker's queries.
            let latency = start.elapsed();
            t.record_finished(latency, outcome.is_answered());
            t.registry.record_span(format!("q{id}.explain"), start, latency);
        }
        let mut st = self.shared.lock();
        st.in_flight -= 1;
        if outcome.is_answered() {
            st.ledger.completed += 1;
        } else {
            st.ledger.failed += 1;
        }
        self.shared.notify_if_idle(&st);
        drop(st);
        fire_completions(&self.shared, &mut vec![id]);
        (QueryResult { id, pattern, outcome }, trace)
    }
}

impl<S: ServeIndex + 'static> Drop for QueryEngine<S> {
    fn drop(&mut self) {
        // No caller can be inside `submit` or `drain` here (they borrow the
        // engine), so only workers wait.
        let mut st = self.shared.lock();
        st.shutdown = true;
        if let Some(cv) = self.shared.changed(&st, Waiter::Worker) {
            cv.notify_all();
        }
        drop(st);
        for h in self.pool.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker: wait for work, coalesce up to `batch_max` live requests
/// (finalizing expired ones as [`QueryOutcome::TimedOut`] on the way),
/// resolve them as one batch, publish results, repeat until shutdown.
///
/// A panic inside [`answer_batch`] (e.g. an index whose accessors panic) is
/// caught here just long enough to fail the batch's requests and restore the
/// accounting, then re-raised so the spawn loop in [`QueryEngine::new`] can
/// count the respawn.
fn worker_loop<S: ServeIndex + ?Sized>(index: &S, shared: &Shared, who: usize, batch_max: usize) {
    let telemetry = shared.telemetry.as_ref();
    loop {
        // Submit instants of the batch's requests, kept so publish can
        // record end-to-end latencies; empty when telemetry is off.
        let mut submitted_at: Vec<Instant> = Vec::new();
        // Ids finalized by this iteration, accumulated so the completion
        // hook can fire for each after the state lock is released.
        let mut finalized: Vec<QueryId> = Vec::new();
        let (batch, form_start, formation) = {
            let mut st = shared.lock();
            let mut idle = None;
            let mut batch = Vec::new();
            let (form_start, formation);
            loop {
                if !st.pending.is_empty() {
                    // Formation time covers only the coalescing pass, never
                    // the waits below — it is worker *busy* time.
                    let now = Instant::now();
                    let mut expired = 0u64;
                    while batch.len() < batch_max {
                        let Some(req) = st.pending.pop_front() else { break };
                        if req.deadline.is_some_and(|d| d <= now) {
                            // Deadline passed while queued: finalize without
                            // spending a batch slot or any index work.
                            if let Some(t) = telemetry {
                                t.record_finished(now - req.submitted_at, false);
                            }
                            finalized.push(req.id);
                            st.done.push(QueryResult {
                                id: req.id,
                                pattern: req.pattern,
                                outcome: QueryOutcome::TimedOut,
                            });
                            expired += 1;
                        } else {
                            batch.push(req);
                        }
                    }
                    if expired > 0 {
                        st.ledger.timed_out += expired;
                        if let Some(cv) = shared.changed(&st, Waiter::Submitter) {
                            cv.notify_all();
                        }
                    }
                    if !batch.is_empty() {
                        (form_start, formation) = (now, now.elapsed());
                        break;
                    }
                    // Everything we popped had expired; the queue may be
                    // empty now, so fall through to the wait/shutdown checks.
                    shared.notify_if_idle(&st);
                    if st.pending.is_empty() {
                        if st.shutdown {
                            drop(st);
                            fire_completions(shared, &mut finalized);
                            return;
                        }
                        if !finalized.is_empty() {
                            // Fire the hook for the expired requests before
                            // sleeping — their results are already published
                            // and a hook user (e.g. a latency recorder) must
                            // not wait for the next submission to wake us.
                            drop(st);
                            fire_completions(shared, &mut finalized);
                            st = shared.lock();
                            continue;
                        }
                        st = shared.wait(Waiter::Worker, st, &mut idle);
                    }
                    continue;
                }
                if st.shutdown {
                    return;
                }
                st = shared.wait(Waiter::Worker, st, &mut idle);
            }
            st.in_flight += batch.len();
            let parked = shared.changed(&st, Waiter::Submitter);
            drop(st);
            if let Some(cv) = parked {
                cv.notify_all();
            }
            (batch, form_start, formation)
        };
        // Expired requests finalized during formation, fired now that the
        // lock is released.
        fire_completions(shared, &mut finalized);
        shared.worker_stats[who].record(batch.len());
        if let Some(t) = telemetry {
            t.batch_formation.record(formation);
            t.batch_size.record_value(batch.len() as u64);
            for r in &batch {
                t.admission_wait.record(form_start - r.submitted_at);
            }
            submitted_at = batch.iter().map(|r| r.submitted_at).collect();
        }

        let scan_start = Instant::now();
        let outcomes = match catch_unwind(AssertUnwindSafe(|| answer_batch(index, &batch))) {
            Ok(outcomes) => outcomes,
            Err(payload) => {
                // Poisoned batch: every request in it fails, the in-flight
                // count is restored so `drain` cannot hang, and the panic
                // continues upward to be counted as a respawn.
                let msg = panic_message(payload.as_ref());
                finalized.extend(batch.iter().map(|r| r.id));
                if let Some(t) = telemetry {
                    let failed_at = Instant::now();
                    for req in &batch {
                        t.record_finished(failed_at - req.submitted_at, false);
                    }
                }
                let mut st = shared.lock();
                st.in_flight -= batch.len();
                st.ledger.failed += batch.len() as u64;
                st.done.extend(batch.into_iter().map(|req| QueryResult {
                    id: req.id,
                    pattern: req.pattern,
                    outcome: QueryOutcome::Failed(format!("worker panicked: {msg}")),
                }));
                shared.notify_if_idle(&st);
                drop(st);
                fire_completions(shared, &mut finalized);
                resume_unwind(payload);
            }
        };
        let scan_elapsed = scan_start.elapsed();
        if let Some(t) = telemetry {
            t.index_scan.record(scan_elapsed);
        }

        let merge_start = Instant::now();
        let results: Vec<QueryResult> = batch
            .into_iter()
            .zip(outcomes)
            .map(|(r, outcome)| QueryResult { id: r.id, pattern: r.pattern, outcome })
            .collect();
        if let Some(t) = telemetry {
            // Recorded before the publish below, which is what ends a
            // drain, so a snapshot taken after `drain` returns covers every
            // drained query; outside the state lock, so the critical
            // section that waiters poll holds only the ledger update and
            // the result push.
            let published = Instant::now();
            t.result_merge.record(published - merge_start);
            // One span per batch, one per query (submit → publish).
            t.registry.record_span(format!("w{who}.batch"), scan_start, published - scan_start);
            for (r, at) in results.iter().zip(&submitted_at) {
                let latency = published - *at;
                t.record_finished(latency, r.outcome.is_answered());
                t.registry.record_span(format!("q{}", r.id), *at, latency);
            }
        }
        finalized.extend(results.iter().map(|r| r.id));
        let mut st = shared.lock();
        st.in_flight -= results.len();
        for r in &results {
            match r.outcome {
                QueryOutcome::Done(_) | QueryOutcome::DoneDocs(_) => st.ledger.completed += 1,
                QueryOutcome::TimedOut => st.ledger.timed_out += 1,
                QueryOutcome::Failed(_) => st.ledger.failed += 1,
            };
        }
        st.done.extend(results);
        shared.notify_if_idle(&st);
        drop(st);
        fire_completions(shared, &mut finalized);
    }
}

/// Fire the engine's completion hook (if installed) for every id in `ids`,
/// draining the vector. Callers must have released the state lock: the hook
/// is user code and may take the engine's metrics (which re-locks it).
fn fire_completions(shared: &Shared, ids: &mut Vec<QueryId>) {
    if ids.is_empty() {
        return;
    }
    let hook = shared.completion_hook.lock().unwrap_or_else(PoisonError::into_inner).clone();
    if let Some(h) = hook {
        for id in ids.drain(..) {
            h(id);
        }
    } else {
        ids.clear();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Resolve a batch through the index's [`ServeIndex`] surface: one outcome
/// per request, in order.
///
/// Failure is per-request (the contract `answer_patterns` documents); an
/// index that returns the wrong number of outcomes panics here, which the
/// worker's catch_unwind turns into a failed batch plus a respawn.
fn answer_batch<S: ServeIndex + ?Sized>(index: &S, batch: &[Request]) -> Vec<QueryOutcome> {
    let patterns: Vec<&[Code]> = batch.iter().map(|r| r.pattern.as_slice()).collect();
    let outcomes = index.answer_patterns(&patterns);
    assert_eq!(
        outcomes.len(),
        batch.len(),
        "ServeIndex::answer_patterns must return one outcome per pattern"
    );
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Spine;
    use crate::compact::CompactSpine;
    use crate::generalized::{GeneralizedSpine, ShardedSpine};
    use crate::occurrences::find_all_ends;
    use std::sync::mpsc;
    use std::time::Duration;
    use strindex::telemetry::{RollingWindows, SloTracker};
    use strindex::Alphabet;

    /// An index whose every batch panics.
    struct Bomb;
    impl ServeIndex for Bomb {
        fn answer_patterns(&self, _patterns: &[&[Code]]) -> Vec<QueryOutcome> {
            panic!("bomb in answer_patterns")
        }
        fn counters_snapshot(&self) -> CountersSnapshot {
            CountersSnapshot::default()
        }
    }

    #[test]
    fn worker_panic_fires_the_postmortem_hook_and_respawns() {
        let cfg = EngineConfig { workers: 1, ..EngineConfig::default() };
        let engine = QueryEngine::new(Arc::new(Bomb), cfg);
        let fired = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&fired);
        engine.set_panic_hook(move |msg| sink.lock().unwrap().push(msg.to_string()));
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        engine.submit(vec![0]).unwrap();
        let rs = engine.drain();
        assert!(
            matches!(&rs[0].outcome, QueryOutcome::Failed(m) if m.contains("bomb")),
            "batch must fail with the panic message: {rs:?}"
        );
        // The hook runs on the worker thread after the drain notification;
        // give it a bounded moment.
        let deadline = Instant::now() + Duration::from_secs(10);
        while fired.lock().unwrap().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::panic::set_hook(prev_hook);
        assert_eq!(engine.metrics().worker_respawns, 1);
        let msgs = fired.lock().unwrap();
        assert_eq!(msgs.len(), 1, "hook must fire exactly once");
        assert!(msgs[0].contains("bomb"), "hook gets the panic message: {msgs:?}");
    }

    fn paper_engine(workers: usize) -> (Alphabet, QueryEngine<Spine>) {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let cfg = EngineConfig { workers, batch_max: 4, ..Default::default() };
        (a.clone(), QueryEngine::new(Arc::new(s), cfg))
    }

    fn telemetry_engine<S: ServeIndex>(index: S) -> (QueryEngine<S>, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = EngineConfig { workers: 1, ..Default::default() };
        (QueryEngine::with_telemetry(Arc::new(index), cfg, Arc::clone(&registry)), registry)
    }

    /// Windows and SLO over `registry`'s two engine sources, with gauges.
    fn watch(registry: &MetricsRegistry) -> Arc<SloTracker> {
        let windows = Arc::new(RollingWindows::new(
            registry.histogram(QUERY_LATENCY),
            registry.counter(QUERIES_UNANSWERED),
            Instant::now(),
        ));
        windows.register_gauges(registry, "engine.window");
        let slo = Arc::new(SloTracker::new(windows, Duration::from_secs(5), 0.999));
        slo.register_gauges(registry, "engine.slo");
        slo
    }

    #[test]
    fn windows_and_slo_read_the_engine_sources() {
        let a = Alphabet::dna();
        let (engine, registry) =
            telemetry_engine(Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap());
        let slo = watch(&registry);
        for p in [&b"CA"[..], b"AC", b"A", b"GG"] {
            engine.submit(a.encode(p).unwrap()).unwrap();
        }
        engine.drain();
        // Every answered query is in the window, none breached the generous
        // SLO, and the gauges surface through the registry.
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("engine.window.count"), Some(4));
        assert_eq!(snap.gauge("engine.window.error_rate_ppm"), Some(0));
        assert_eq!(snap.gauge("engine.slo.healthy"), Some(1));
        assert_eq!(snap.histogram(QUERY_LATENCY).unwrap().count, 4);
        assert_eq!(snap.counter(QUERIES_UNANSWERED), Some(0));
        assert!(slo.read(Instant::now()).healthy());
    }

    /// Regression: a request that expired in the queue, or died with its
    /// batch in a worker panic, was finalized with no telemetry record, so
    /// the latency histogram, the window and the SLO never saw it.
    #[test]
    fn expired_and_panicked_queries_count_as_unanswered() {
        let a = Alphabet::dna();
        let (engine, registry) =
            telemetry_engine(Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap());
        let slo = watch(&registry);
        let past = Instant::now() - Duration::from_secs(1);
        for _ in 0..5 {
            engine.submit_with_deadline(a.encode(b"CA").unwrap(), past).unwrap();
        }
        engine.drain();
        assert_eq!(engine.metrics().timed_out, 5);
        let snap = registry.snapshot();
        assert_eq!(snap.histogram(QUERY_LATENCY).unwrap().count, 5);
        assert_eq!(snap.counter(QUERIES_UNANSWERED), Some(5));
        assert_eq!(snap.gauge("engine.window.error_rate_ppm"), Some(1_000_000));
        assert!(!slo.read(Instant::now()).healthy());

        let (bomb, registry) = telemetry_engine(Bomb);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        bomb.submit(vec![0]).unwrap();
        bomb.submit(vec![1]).unwrap();
        let rs = bomb.drain();
        std::panic::set_hook(prev_hook);
        assert!(rs.iter().all(|r| matches!(r.outcome, QueryOutcome::Failed(_))));
        let snap = registry.snapshot();
        assert_eq!(snap.histogram(QUERY_LATENCY).unwrap().count, 2);
        assert_eq!(snap.counter(QUERIES_UNANSWERED), Some(2));
    }

    #[test]
    fn answers_match_serial_scan() {
        let (a, engine) = paper_engine(3);
        let pats = [&b"CA"[..], b"AC", b"A", b"AACCACAACA", b"GG", b""];
        let ids: Vec<QueryId> =
            pats.iter().map(|p| engine.submit(a.encode(p).unwrap()).unwrap()).collect();
        let results = engine.drain();
        assert_eq!(results.len(), pats.len());
        for (i, (r, p)) in results.iter().zip(&pats).enumerate() {
            assert_eq!(r.id, ids[i]);
            let serial = find_all_ends(engine.index().as_ref(), &a.encode(p).unwrap());
            assert_eq!(r.expect_ends(), serial, "pattern {p:?}");
        }
    }

    #[test]
    fn starts_are_zero_based_offsets() {
        let (a, engine) = paper_engine(1);
        engine.submit(a.encode(b"CA").unwrap()).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_ends(), [5, 7, 10]);
        assert_eq!(r[0].expect_starts(), vec![3, 5, 8]);
        assert_eq!(r[0].ends(), Some(&[5, 7, 10][..]));
    }

    #[test]
    fn duplicate_patterns_each_get_answers() {
        let (a, engine) = paper_engine(1); // one worker ⇒ one coalesced batch
        let ca = a.encode(b"CA").unwrap();
        for admitted in engine.submit_batch(vec![ca.clone(), ca.clone(), ca.clone(), ca]) {
            admitted.unwrap();
        }
        let results = engine.drain();
        assert_eq!(results.len(), 4);
        for r in results {
            assert_eq!(r.expect_ends(), [5, 7, 10]);
        }
    }

    #[test]
    fn drain_on_idle_engine_is_empty_and_repeatable() {
        let (a, engine) = paper_engine(2);
        assert!(engine.drain().is_empty());
        engine.submit(a.encode(b"A").unwrap()).unwrap();
        assert_eq!(engine.drain().len(), 1);
        assert!(engine.drain().is_empty()); // results were consumed
    }

    #[test]
    fn metrics_count_batches_and_queries() {
        let (a, engine) = paper_engine(1);
        for admitted in engine.submit_batch((0..10).map(|_| a.encode(b"AC").unwrap())) {
            admitted.unwrap();
        }
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.submitted, 10);
        assert_eq!(m.completed, 10);
        assert_eq!(m.accounted(), m.submitted);
        assert_eq!(m.workers.iter().map(|w| w.queries).sum::<u64>(), 10);
        // batch_max = 4 ⇒ at least ⌈10/4⌉ = 3 batches, and at most one per
        // query.
        let batches = m.batches();
        assert!((3..=10).contains(&batches), "batches = {batches}");
        assert!(m.index.nodes_checked > 0);
        assert!(m.peak_queue_depth >= 1);
        assert!(m.mean_batch() >= 1.0);
        assert_eq!(m.worker_respawns, 0);
    }

    #[test]
    fn works_over_the_compact_layout() {
        let a = Alphabet::dna();
        let c = CompactSpine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let cfg = EngineConfig { workers: 2, batch_max: 8, ..Default::default() };
        let engine = QueryEngine::new(Arc::new(c), cfg);
        engine.submit(a.encode(b"AAC").unwrap()).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_starts(), vec![0, 6]);
    }

    #[test]
    fn empty_text_engine_answers() {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &[]).unwrap();
        let engine = QueryEngine::new(Arc::new(s), EngineConfig::default());
        engine.submit(a.encode(b"A").unwrap()).unwrap();
        engine.submit(Vec::new()).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_ends(), [] as [NodeId; 0]);
        assert_eq!(r[1].expect_ends(), [0]); // empty pattern ends at the root
    }

    #[test]
    fn edge_patterns_through_engine() {
        let (a, engine) = paper_engine(2);
        let n = 10; // text length of AACCACAACA
        let empty = engine.submit(Vec::new()).unwrap();
        let longer = engine.submit(a.encode(&b"A".repeat(n + 5)).unwrap()).unwrap();
        let out_of_alphabet = engine.submit(vec![9, 200, 7]).unwrap();
        let results = engine.drain();
        let by_id = |id| results.iter().find(|r| r.id == id).unwrap();
        // Empty pattern ends at every node.
        assert_eq!(by_id(empty).expect_ends().len(), n + 1);
        // A pattern longer than the text cannot occur, and must not panic.
        assert_eq!(by_id(longer).expect_ends(), [] as [NodeId; 0]);
        // Codes outside the alphabet simply never match a rib or vertebra.
        assert_eq!(by_id(out_of_alphabet).expect_ends(), [] as [NodeId; 0]);
        let m = engine.metrics();
        assert_eq!(m.accounted(), m.submitted);
    }

    #[test]
    fn expired_deadline_times_out_without_index_work() {
        let (a, engine) = paper_engine(1);
        let past = Instant::now() - Duration::from_secs(1);
        let id = engine.submit_with_deadline(a.encode(b"CA").unwrap(), past).unwrap();
        let r = engine.drain();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, id);
        assert_eq!(r[0].outcome, QueryOutcome::TimedOut);
        assert!(r[0].ends().is_none());
        let m = engine.metrics();
        assert_eq!(m.timed_out, 1);
        assert_eq!(m.completed, 0);
        assert_eq!(m.accounted(), m.submitted);
    }

    #[test]
    fn generous_deadline_completes_normally() {
        let (a, engine) = paper_engine(2);
        let soon = Instant::now() + Duration::from_secs(60);
        engine.submit_with_deadline(a.encode(b"CA").unwrap(), soon).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_starts(), vec![3, 5, 8]);
    }

    fn encode_all(a: &Alphabet, texts: &[&[u8]]) -> Vec<Vec<Code>> {
        texts.iter().map(|t| a.encode(t).unwrap()).collect()
    }

    #[test]
    fn sharded_spine_matches_unsharded_generalized() {
        let a = Alphabet::dna();
        let docs = encode_all(&a, &[b"ACGTACGT", b"TTACG", b"GGGG", b"ACACAC", b"T"]);

        let mut reference = GeneralizedSpine::new(a.clone());
        for d in &docs {
            reference.add_document(d).unwrap();
        }

        let sharded = ShardedSpine::build(a.clone(), &docs, 3).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        let cfg = EngineConfig { workers: 2, batch_max: 4, ..Default::default() };
        let engine = QueryEngine::new(Arc::new(sharded), cfg);

        let pats = [&b"ACG"[..], b"T", b"GG", b"CACA", b"TTT"];
        for p in pats {
            engine.submit(a.encode(p).unwrap()).unwrap();
        }
        let results = engine.drain();
        assert_eq!(results.len(), pats.len());
        for (r, p) in results.iter().zip(&pats) {
            assert_eq!(
                r.expect_doc_matches(),
                reference.find_all(&a.encode(p).unwrap()),
                "pattern {p:?}"
            );
        }

        let m = engine.metrics();
        assert_eq!(m.completed, pats.len() as u64);
        assert_eq!(m.workers.len(), 2);
        assert_eq!(m.accounted(), m.submitted);
        assert!(m.index.nodes_checked > 0, "work counters sum over the shards");
    }

    #[test]
    fn sharded_spine_single_shard_degenerate() {
        let a = Alphabet::dna();
        let docs = vec![a.encode(b"ACGT").unwrap()];
        let sharded = ShardedSpine::build(a.clone(), &docs, 8).unwrap();
        assert_eq!(sharded.shard_count(), 1); // clamped to doc count
        let engine = QueryEngine::new(Arc::new(sharded), EngineConfig::default());
        engine.submit(a.encode(b"CG").unwrap()).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].expect_doc_matches(), [DocMatch { doc: 0, offset: 1 }]);
    }

    #[test]
    fn sharded_edge_patterns() {
        let a = Alphabet::dna();
        let docs = encode_all(&a, &[b"ACGT", b"TT"]);
        let sharded = ShardedSpine::build(a.clone(), &docs, 2).unwrap();
        let engine = QueryEngine::new(Arc::new(sharded), EngineConfig::default());
        engine.submit(a.encode(&b"A".repeat(64)).unwrap()).unwrap(); // longer than any doc
        engine.submit(vec![17]).unwrap(); // out-of-alphabet code
        let r = engine.drain();
        assert_eq!(r[0].expect_doc_matches(), [] as [DocMatch; 0]);
        assert_eq!(r[1].expect_doc_matches(), [] as [DocMatch; 0]);
    }

    /// Regression: the sharded engine this index replaces localized the
    /// empty pattern's last end to a shard's sentinel document and panicked
    /// in `drain`. The empty pattern occurs at every offset `0..=len` of
    /// every document, as in the segment store.
    #[test]
    fn sharded_empty_pattern_matches_every_offset_of_every_document() {
        let a = Alphabet::dna();
        let docs = encode_all(&a, &[b"ACGT", b"TT", b"", b"G"]);
        let sharded = ShardedSpine::build(a.clone(), &docs, 2).unwrap();
        let engine = QueryEngine::new(Arc::new(sharded), EngineConfig::default());
        engine.submit(Vec::new()).unwrap();
        let r = engine.drain();
        let every: Vec<DocMatch> = docs
            .iter()
            .enumerate()
            .flat_map(|(doc, d)| (0..=d.len()).map(move |offset| DocMatch { doc, offset }))
            .collect();
        assert_eq!(every.len(), 5 + 3 + 1 + 2);
        assert_eq!(r[0].expect_doc_matches(), every);
    }

    #[test]
    fn sharded_expired_deadline_reports_timeout() {
        let a = Alphabet::dna();
        let docs = encode_all(&a, &[b"ACGTACGT", b"TTACG"]);
        let sharded = ShardedSpine::build(a.clone(), &docs, 2).unwrap();
        let cfg = EngineConfig { workers: 1, ..Default::default() };
        let engine = QueryEngine::new(Arc::new(sharded), cfg);
        let past = Instant::now() - Duration::from_secs(1);
        engine.submit_with_deadline(a.encode(b"ACG").unwrap(), past).unwrap();
        let r = engine.drain();
        assert_eq!(r[0].outcome, QueryOutcome::TimedOut);
        assert!(r[0].doc_matches().is_none());
        let m = engine.metrics();
        assert_eq!(m.accounted(), m.submitted);
    }

    #[test]
    fn snapshot_invariant_holds_mid_flight() {
        // Regression for torn MetricsSnapshot reads: the ledger was a set of
        // independent relaxed atomics, so a snapshot racing completions
        // could observe submitted without the matching outcome. With the
        // ledger under the state lock, every snapshot must satisfy
        // accounted + pending + in_flight == submitted — sampled here as
        // fast as possible while queries stream through the engine.
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), &b"ACGTACGTGGTTAACC".repeat(32)).unwrap();
        let cfg = EngineConfig { workers: 3, batch_max: 4, ..Default::default() };
        let engine = QueryEngine::new(Arc::new(s), cfg);
        let pat = a.encode(b"ACGT").unwrap();
        std::thread::scope(|scope| {
            let eng = &engine;
            let submitter = scope.spawn(move || {
                for _ in 0..2_000 {
                    eng.submit(pat.clone()).unwrap();
                }
            });
            let mut samples = 0u64;
            while !submitter.is_finished() || samples < 100 {
                let m = eng.metrics();
                assert!(
                    m.is_consistent(),
                    "torn snapshot: {} accounted + {} pending + {} in-flight != {} submitted",
                    m.accounted(),
                    m.pending,
                    m.in_flight,
                    m.submitted
                );
                samples += 1;
            }
            submitter.join().unwrap();
        });
        engine.drain();
        let m = engine.metrics();
        assert!(m.is_consistent());
        assert_eq!(m.accounted(), m.submitted); // idle: nothing queued
        assert_eq!(m.completed, 2_000);
    }

    #[test]
    fn telemetry_records_stages_latency_and_spans() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = EngineConfig { workers: 2, batch_max: 4, ..Default::default() };
        let engine = QueryEngine::with_telemetry(Arc::new(s), cfg, Arc::clone(&registry));
        assert!(engine.registry().is_some());
        for _ in 0..10 {
            engine.submit(a.encode(b"CA").unwrap()).unwrap();
        }
        engine.drain();
        let snap = registry.snapshot();
        for stage in
            [Stage::AdmissionWait, Stage::BatchFormation, Stage::IndexScan, Stage::ResultMerge]
        {
            let h = snap.stage(stage).unwrap_or_else(|| panic!("{stage:?} not registered"));
            assert!(!h.is_empty(), "{stage:?} recorded nothing");
        }
        let lat = snap.histogram("engine.query_latency").unwrap();
        assert_eq!(lat.count, 10);
        assert!(lat.p50() <= lat.p99());
        let sizes = snap.histogram("engine.batch_size").unwrap();
        assert!(sizes.max >= 1 && sizes.max <= 4);
        // Per-query and per-batch spans both present.
        assert!(snap.spans.iter().any(|s| s.name.starts_with('q')));
        assert!(snap.spans.iter().any(|s| s.name.contains(".batch")));
        // A plain engine records nothing and has no registry.
        let plain = paper_engine(1).1;
        assert!(plain.registry().is_none());
    }

    #[test]
    fn sharded_telemetry_records_one_latency_per_query() {
        let a = Alphabet::dna();
        let docs = encode_all(&a, &[b"ACGTACGT", b"TTACG", b"GGGG"]);
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = EngineConfig { workers: 1, batch_max: 4, ..Default::default() };
        let sharded = ShardedSpine::build(a.clone(), &docs, 2).unwrap();
        let engine = QueryEngine::with_telemetry(Arc::new(sharded), cfg, Arc::clone(&registry));
        engine.submit(a.encode(b"ACG").unwrap()).unwrap();
        engine.submit(a.encode(b"G").unwrap()).unwrap();
        engine.drain();
        let snap = registry.snapshot();
        // One query answers every shard, so it records one latency.
        assert_eq!(snap.histogram("engine.query_latency").unwrap().count, 2);
        assert!(!snap.stage(Stage::ResultMerge).unwrap().is_empty());
        let m = engine.metrics();
        assert!(m.is_consistent());
    }

    #[test]
    fn submit_traced_accounts_and_matches_queued_answers() {
        let (a, engine) = paper_engine(2);
        let (r, t) = engine.submit_traced(a.encode(b"CA").unwrap());
        assert_eq!(r.expect_ends(), [5, 7, 10]);
        assert_eq!(t.ends, vec![5, 7, 10]);
        assert!(t.error.is_none());
        t.verify_against_text(&a.encode(b"AACCACAACA").unwrap()).unwrap();
        // Queued and traced submissions share one ledger.
        engine.submit(a.encode(b"AC").unwrap()).unwrap();
        engine.drain();
        let m = engine.metrics();
        assert_eq!((m.submitted, m.completed), (2, 2));
        assert!(m.is_consistent());
        // Absent patterns trace their mismatch and answer Done([]).
        let (r, t) = engine.submit_traced(a.encode(b"GG").unwrap());
        assert_eq!(r.expect_ends(), [] as [NodeId; 0]);
        assert_eq!(t.first_end, None);
    }

    #[test]
    fn submit_traced_records_latency_and_span() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let engine = QueryEngine::with_telemetry(
            Arc::new(s),
            EngineConfig::default(),
            Arc::clone(&registry),
        );
        engine.submit_traced(a.encode(b"ACA").unwrap());
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("engine.query_latency").unwrap().count, 1);
        assert!(snap.spans.iter().any(|sp| sp.name.ends_with(".explain")));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let cfg = EngineConfig {
            workers: 1,
            queue_capacity: 0, // clamped to 1: the engine must stay usable
            ..Default::default()
        };
        let engine = QueryEngine::new(Arc::new(s), cfg);
        engine.submit(a.encode(b"CA").unwrap()).unwrap();
        assert_eq!(engine.drain()[0].expect_starts(), vec![3, 5, 8]);
    }

    // The hand-off. Each test forces its interleaving by polling the parked
    // counts under the state lock, never by sleeping.

    /// Poll `engine`'s state under its lock until `cond` holds; fail after
    /// a deadline generous enough for a loaded host.
    fn await_state<S: ServeIndex>(
        engine: &QueryEngine<S>,
        what: &str,
        cond: impl Fn(&State) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond(&engine.shared.lock()) {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn parked(st: &State, who: Waiter) -> u32 {
        st.parked[who as usize]
    }

    fn cpus() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The paper's text behind a gate: every batch waits until the test
    /// opens the gate by dropping its sender.
    struct Gated {
        index: Spine,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl ServeIndex for Gated {
        fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
            // `Err` once the sender is gone: the gate stays open.
            let _ = self.gate.lock().unwrap().recv();
            ServeIndex::answer_patterns(&self.index, patterns)
        }
        fn counters_snapshot(&self) -> CountersSnapshot {
            self.index.counters_snapshot()
        }
    }

    fn gated_engine(cfg: EngineConfig) -> (Alphabet, Arc<QueryEngine<Gated>>, mpsc::Sender<()>) {
        let a = Alphabet::dna();
        let (open, gate) = mpsc::channel();
        let index = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let gated = Gated { index, gate: Mutex::new(gate) };
        (a, Arc::new(QueryEngine::new(Arc::new(gated), cfg)), open)
    }

    #[test]
    fn a_submit_wakes_a_parked_worker() {
        let (a, engine) = paper_engine(1);
        await_state(&engine, "the idle worker parks", |st| parked(st, Waiter::Worker) == 1);
        engine.submit(a.encode(b"CA").unwrap()).unwrap();
        await_state(&engine, "the woken worker publishes", |st| st.done.len() == 1);
        assert_eq!(engine.drain()[0].expect_ends(), [5, 7, 10]);
    }

    #[test]
    fn a_publish_wakes_a_parked_drainer() {
        let (a, engine, open) = gated_engine(EngineConfig { workers: 1, ..Default::default() });
        engine.submit(a.encode(b"CA").unwrap()).unwrap();
        await_state(&engine, "the worker holds the query at the gate", |st| st.in_flight == 1);
        let drainer = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.drain())
        };
        await_state(&engine, "the drainer parks", |st| parked(st, Waiter::Drainer) == 1);
        drop(open);
        await_state(&engine, "the woken drainer takes the answer", |st| {
            st.in_flight == 0 && st.done.is_empty() && parked(st, Waiter::Drainer) == 0
        });
        let results = drainer.join().unwrap();
        assert_eq!(results[0].expect_ends(), [5, 7, 10]);
    }

    #[test]
    fn a_pop_wakes_a_submitter_parked_on_a_full_queue() {
        let cfg = EngineConfig {
            workers: 1,
            queue_capacity: 1,
            shed: ShedPolicy::Block,
            ..Default::default()
        };
        let (a, engine, open) = gated_engine(cfg);
        let ca = a.encode(b"CA").unwrap();
        engine.submit(ca.clone()).unwrap();
        await_state(&engine, "the worker holds the first query", |st| st.in_flight == 1);
        engine.submit(ca.clone()).unwrap(); // fills the queue
        let submitter = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.submit(ca))
        };
        await_state(&engine, "the third submitter parks", |st| parked(st, Waiter::Submitter) == 1);
        drop(open);
        await_state(&engine, "a pop admits the third query", |st| st.ledger.submitted == 3);
        submitter.join().unwrap().unwrap();
        let results = engine.drain();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.expect_ends() == [5, 7, 10]));
        assert!(engine.metrics().is_consistent());
    }

    /// Spinning is bounded by the budget, so every idle worker ends up
    /// parked, on engines that spin and on engines that do not.
    #[test]
    fn an_idle_engine_parks_every_worker() {
        for workers in [cpus().saturating_sub(1).max(1), cpus()] {
            let (a, engine) = paper_engine(workers);
            assert_eq!(engine.shared.spin, workers < cpus());
            for _ in 0..8 {
                engine.submit(a.encode(b"AC").unwrap()).unwrap();
            }
            assert_eq!(engine.drain().len(), 8);
            await_state(&engine, "every idle worker parks", |st| {
                parked(st, Waiter::Worker) == workers as u32
            });
        }
    }

    /// Wait as a drainer does while a gated query is in flight, on an
    /// engine of `workers` workers; report whether the wait spun first.
    fn drainer_spun(workers: usize) -> bool {
        let (a, engine, open) = gated_engine(EngineConfig { workers, ..Default::default() });
        engine.submit(a.encode(b"CA").unwrap()).unwrap();
        await_state(&engine, "a worker holds the query", |st| st.in_flight == 1);
        let drainer = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut idle = None;
                let st = engine.shared.lock();
                drop(engine.shared.wait(Waiter::Drainer, st, &mut idle));
                idle.is_some()
            })
        };
        await_state(&engine, "the drainer parks", |st| parked(st, Waiter::Drainer) == 1);
        drop(open);
        drainer.join().unwrap()
    }

    #[test]
    fn engines_with_a_worker_per_cpu_never_spin() {
        let n = cpus();
        assert!(!spins(n) && !spins(n + 2));
        assert!(!drainer_spun(n), "{n} workers on {n} CPUs must park at once");
        assert!(!drainer_spun(n + 2));
        if n > 1 {
            assert!(spins(n - 1));
            assert!(drainer_spun(n - 1), "{} workers on {n} CPUs spin first", n - 1);
        }
    }

    /// The paper's text, answered after the index has thought for a while.
    struct Thinking {
        index: Spine,
        think: Duration,
    }

    impl ServeIndex for Thinking {
        fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
            busy(self.think);
            ServeIndex::answer_patterns(&self.index, patterns)
        }
        fn counters_snapshot(&self) -> CountersSnapshot {
            self.index.counters_snapshot()
        }
    }

    fn busy(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::thread::yield_now();
        }
    }

    /// A closed loop of submit → drain rounds over 1–4 workers, with think
    /// times below and above the spin budget on both sides: in the index
    /// (what a drainer waits for) and in the client (what an idle worker
    /// waits for). A queue of two makes larger rounds block submitters.
    #[test]
    fn closed_loop_hand_offs_answer_every_query() {
        let a = Alphabet::dna();
        let text = b"ACGTACGTGGTTAACC".repeat(8);
        let pats: Vec<Vec<Code>> = [&b"ACGT"[..], b"GG", b"TTAA", b"C", b"GTAC", b"AAAA"]
            .iter()
            .map(|p| a.encode(p).unwrap())
            .collect();
        let serial = Spine::build_from_bytes(a.clone(), &text).unwrap();
        let expected: Vec<Vec<NodeId>> = pats.iter().map(|p| find_all_ends(&serial, p)).collect();
        for workers in 1..=4 {
            for think in [Duration::ZERO, SPIN_BUDGET / 4, SPIN_BUDGET * 3] {
                let index =
                    Thinking { index: Spine::build_from_bytes(a.clone(), &text).unwrap(), think };
                let cfg =
                    EngineConfig { workers, batch_max: 2, queue_capacity: 2, ..Default::default() };
                let engine = QueryEngine::new(Arc::new(index), cfg);
                let mut answered = 0;
                for round in 0..100 {
                    let ids: Vec<(QueryId, usize)> = (0..1 + round % workers)
                        .map(|j| {
                            let i = (round + j) % pats.len();
                            (engine.submit(pats[i].clone()).unwrap(), i)
                        })
                        .collect();
                    let results = engine.drain();
                    assert_eq!(results.len(), ids.len());
                    for (r, (id, i)) in results.iter().zip(&ids) {
                        assert_eq!(r.id, *id);
                        assert_eq!(r.expect_ends(), expected[*i], "{workers} workers, {think:?}");
                    }
                    answered += ids.len() as u64;
                    busy(think);
                }
                let m = engine.metrics();
                assert!(m.is_consistent(), "{m:?}");
                assert_eq!((m.submitted, m.completed), (answered, answered));
            }
        }
    }
}
