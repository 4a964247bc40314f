//! Seeded load generation and coordinated-omission-safe measurement
//! (`exp scale`).
//!
//! The paper's Table 6 compares engines on total work; the ROADMAP's north
//! star is "heavy traffic from millions of users". Bridging the two needs a
//! measurement layer, not another microbench: this module generates
//! corpora and query mixes deterministically from one printed seed, drives
//! any [`ServeIndex`] through the production [`QueryEngine`], and sweeps
//! offered load to produce throughput-vs-latency curves per engine × mix ×
//! arrival mode.
//!
//! # Coordinated omission
//!
//! A closed-loop driver (each of C virtual clients waits for its answer
//! before sending the next request) measures latency from *submit* to
//! completion. Under overload the clients themselves slow down, so the
//! slow periods generate fewer samples exactly when latency is worst — the
//! histogram silently under-weights the pain. The open-loop driver instead
//! fixes an arrival *schedule* (Poisson or constant-rate, independent of
//! the engine) and measures each query from its **intended arrival time**:
//! if the engine stalls for 100 ms, every query scheduled during the stall
//! is charged its full queue wait. Both drivers are here — closed-loop for
//! capacity discovery, open-loop for honest tail latency — and
//! [`Stage::DispatchLag`] plus the [`LoadLedger`] gauges expose when the
//! generator itself falls behind its schedule (the point past which even
//! open-loop numbers go soft).
//!
//! # Determinism contract
//!
//! Everything *planned* — corpus bytes, query sequences, arrival schedules,
//! [`LoadPlan::summary_json`] — is a pure function of the run seed and the
//! explicit parameters, reproducible byte-for-byte (property-tested in
//! `tests/load.rs`). Everything *measured* (qps, quantiles) is of course
//! machine-dependent; the committed `BENCH_scale.json` gates coverage
//! always and throughput only when the run fingerprint matches.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use genseq::MarkovModel;
use rand::rngs::SmallRng;
use rand::Rng;
use spine::engine::{EngineConfig, QueryEngine, QueryOutcome, ServeIndex, ShedPolicy};
use spine::{NodeId, SegmentConfig, SegmentedSpine, Spine};
use strindex::telemetry::LoadLedger;
use strindex::{Alphabet, Code, CountersSnapshot, MetricsRegistry, Stage, StringIndex};
use suffix_array::SaIndex;
use suffix_tree::SuffixTree;
use suffix_trie::SuffixTrie;

use crate::rng;
use crate::snapshot::{check_schema_version, json_number, SnapshotError, SCHEMA_VERSION};

// ---------------------------------------------------------------------------
// Corpus streaming.
// ---------------------------------------------------------------------------

/// Synthetic corpus family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// Order-3 Markov DNA (the genseq presets' background texture).
    Dna,
    /// Order-1 Markov protein.
    Protein,
    /// Templated ASCII server-log lines (timestamps, paths, status codes).
    LogText,
}

impl CorpusKind {
    pub const ALL: [CorpusKind; 3] = [CorpusKind::Dna, CorpusKind::Protein, CorpusKind::LogText];

    pub fn name(self) -> &'static str {
        match self {
            CorpusKind::Dna => "dna",
            CorpusKind::Protein => "protein",
            CorpusKind::LogText => "logtext",
        }
    }

    pub fn parse(s: &str) -> Option<CorpusKind> {
        Self::ALL.iter().copied().find(|k| k.name() == s)
    }

    pub fn alphabet(self) -> Alphabet {
        match self {
            CorpusKind::Dna => Alphabet::dna(),
            CorpusKind::Protein => Alphabet::protein(),
            CorpusKind::LogText => Alphabet::ascii(),
        }
    }
}

/// One corpus: kind, total length, and the run seed its bytes derive from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    pub kind: CorpusKind,
    /// Total symbols to stream.
    pub len: usize,
    /// Run seed; the stream derives its own sub-streams from it.
    pub seed: u64,
    /// Symbols per streamed chunk — also the document size for
    /// document-oriented builds ([`SegmentedSpine`]), so reservoir windows
    /// (always within-chunk) stay within one document.
    pub chunk: usize,
}

impl CorpusSpec {
    pub fn new(kind: CorpusKind, len: usize, seed: u64) -> CorpusSpec {
        CorpusSpec { kind, len, seed, chunk: 16 << 10 }
    }
}

/// A deterministic chunked generator for a [`CorpusSpec`]. The harness
/// never needs the whole corpus in memory: consumers that can ingest
/// incrementally (the segmented LSM store) pull chunks straight into
/// documents, and two streams with equal specs yield identical bytes, so a
/// second pass replaces a buffer.
///
/// Markov chunks restart their context at chunk boundaries (the model is
/// sampled per chunk); the discontinuity is a few symbols of extra entropy
/// every `chunk` symbols, irrelevant to index behavior and the price of
/// never materializing the stream.
pub struct CorpusStream {
    spec: CorpusSpec,
    alphabet: Alphabet,
    model: Option<MarkovModel>,
    draws: SmallRng,
    produced: usize,
    line_no: u64,
}

impl CorpusStream {
    pub fn new(spec: CorpusSpec) -> CorpusStream {
        let alphabet = spec.kind.alphabet();
        let mut model_rng = rng::stream(spec.seed, "corpus.model", 0);
        let model = match spec.kind {
            CorpusKind::Dna => Some(MarkovModel::random(&alphabet, 3, 0.35, &mut model_rng)),
            CorpusKind::Protein => Some(MarkovModel::random(&alphabet, 1, 0.25, &mut model_rng)),
            CorpusKind::LogText => None,
        };
        CorpusStream {
            spec,
            alphabet,
            model,
            draws: rng::stream(spec.seed, "corpus.draws", 0),
            produced: 0,
            line_no: 0,
        }
    }

    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Templated log line: realistic repeated structure (methods, paths,
    /// levels) over the ASCII alphabet, with enough numeric churn that long
    /// patterns still discriminate.
    fn log_line(&mut self) -> Vec<Code> {
        const METHODS: [&str; 4] = ["GET", "PUT", "POST", "DELETE"];
        const PATHS: [&str; 5] = ["users", "orders", "items", "health", "search"];
        const LEVELS: [&str; 3] = ["INFO", "WARN", "ERROR"];
        self.line_no += 1;
        let line = format!(
            "2026-08-09T10:{:02}:{:02} {} {} /api/v{}/{}/{} {} {}ms\n",
            self.draws.gen_range(0..60u32),
            self.draws.gen_range(0..60u32),
            LEVELS[self.draws.gen_range(0..LEVELS.len())],
            METHODS[self.draws.gen_range(0..METHODS.len())],
            self.draws.gen_range(1..4u32),
            PATHS[self.draws.gen_range(0..PATHS.len())],
            self.line_no,
            200 + self.draws.gen_range(0..4u32) * 100,
            self.draws.gen_range(1..250u32),
        );
        self.alphabet.encode(line.as_bytes()).expect("log template is ASCII")
    }
}

impl Iterator for CorpusStream {
    type Item = Vec<Code>;

    fn next(&mut self) -> Option<Vec<Code>> {
        if self.produced >= self.spec.len {
            return None;
        }
        let want = self.spec.chunk.min(self.spec.len - self.produced);
        let chunk = match &self.model {
            Some(m) => m.sample(want, &mut self.draws),
            None => {
                let mut c = Vec::with_capacity(want + 64);
                while c.len() < want {
                    c.extend(self.log_line());
                }
                c.truncate(want);
                c
            }
        };
        self.produced += chunk.len();
        Some(chunk)
    }
}

/// A bounded reservoir of corpus windows sampled while streaming, so query
/// mixes can reference real substrings without the harness retaining the
/// corpus. Windows never span chunk boundaries (hence never span documents
/// in document-oriented builds).
pub struct WindowReservoir {
    cap: usize,
    window_len: usize,
    seen: u64,
    draws: SmallRng,
    windows: Vec<Vec<Code>>,
}

impl WindowReservoir {
    pub fn new(cap: usize, window_len: usize, seed: u64) -> WindowReservoir {
        WindowReservoir {
            cap: cap.max(1),
            window_len: window_len.max(4),
            seen: 0,
            draws: rng::stream(seed, "corpus.reservoir", 0),
            windows: Vec::new(),
        }
    }

    /// Offer one streamed chunk; a handful of its windows become reservoir
    /// candidates (classic Algorithm R over all candidates ever offered).
    pub fn offer(&mut self, chunk: &[Code]) {
        if chunk.len() < self.window_len {
            return;
        }
        let candidates = 8;
        for _ in 0..candidates {
            let start = self.draws.gen_range(0..=(chunk.len() - self.window_len));
            let w = chunk[start..start + self.window_len].to_vec();
            self.seen += 1;
            if self.windows.len() < self.cap {
                self.windows.push(w);
            } else {
                let j = self.draws.gen_range(0..self.seen);
                if (j as usize) < self.cap {
                    self.windows[j as usize] = w;
                }
            }
        }
    }

    pub fn into_windows(self) -> Vec<Vec<Code>> {
        self.windows
    }
}

/// A streamed corpus reduced to what the harness keeps: the text (for
/// whole-text engine builds), chunk size (for document-oriented rebuilds
/// from an equal stream), and the window reservoir feeding query mixes.
pub struct Corpus {
    pub spec: CorpusSpec,
    pub alphabet: Alphabet,
    pub text: Vec<Code>,
    pub windows: Vec<Vec<Code>>,
}

impl Corpus {
    /// Stream the spec once, retaining text + windows.
    pub fn materialize(spec: CorpusSpec) -> Corpus {
        let mut reservoir = WindowReservoir::new(512, 24, spec.seed);
        let mut text = Vec::with_capacity(spec.len);
        let mut stream = CorpusStream::new(spec);
        let alphabet = stream.alphabet().clone();
        for chunk in &mut stream {
            reservoir.offer(&chunk);
            text.extend(chunk);
        }
        Corpus { spec, alphabet, text, windows: reservoir.into_windows() }
    }
}

// ---------------------------------------------------------------------------
// Query mixes.
// ---------------------------------------------------------------------------

/// Query-mix models over a corpus's window reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Uniformly random substrings of uniformly random windows.
    Uniform,
    /// Zipf-skewed draws over a small hot set of patterns (cache-friendly
    /// "popular query" traffic).
    Zipf,
    /// Adversarial near-misses: a real substring with its last symbol
    /// flipped, maximizing the backbone walk before the miss.
    NearMiss,
    /// Mostly random absent patterns (filter/negative-lookup traffic).
    MissHeavy,
}

impl MixKind {
    pub const ALL: [MixKind; 4] =
        [MixKind::Uniform, MixKind::Zipf, MixKind::NearMiss, MixKind::MissHeavy];

    pub fn name(self) -> &'static str {
        match self {
            MixKind::Uniform => "uniform",
            MixKind::Zipf => "zipf",
            MixKind::NearMiss => "nearmiss",
            MixKind::MissHeavy => "missheavy",
        }
    }

    pub fn parse(s: &str) -> Option<MixKind> {
        Self::ALL.iter().copied().find(|m| m.name() == s)
    }
}

/// Hot-set size for the Zipf mix.
const ZIPF_HOT: usize = 16;

/// Generate `count` queries of `mix` over `corpus`, deterministically from
/// the corpus seed (stream `mix.<name>`).
pub fn mix_queries(corpus: &Corpus, mix: MixKind, count: usize) -> Vec<Vec<Code>> {
    let tag = format!("mix.{}", mix.name());
    let mut r = rng::stream(corpus.spec.seed, &tag, 0);
    let windows = &corpus.windows;
    assert!(!windows.is_empty(), "corpus too small to sample query windows");
    let sub = |r: &mut SmallRng, lo: usize, hi: usize| -> Vec<Code> {
        let w = &windows[r.gen_range(0..windows.len())];
        let len = r.gen_range(lo..=hi.min(w.len()));
        let start = r.gen_range(0..=(w.len() - len));
        w[start..start + len].to_vec()
    };
    match mix {
        MixKind::Uniform => (0..count).map(|_| sub(&mut r, 6, 18)).collect(),
        MixKind::Zipf => {
            // Hot set drawn once, then rank-sampled with weight 1/(rank+1)
            // by inverse CDF over the cumulative harmonic weights.
            let hot: Vec<Vec<Code>> = (0..ZIPF_HOT).map(|_| sub(&mut r, 8, 16)).collect();
            let mut cum = Vec::with_capacity(hot.len());
            let mut total = 0.0f64;
            for rank in 0..hot.len() {
                total += 1.0 / (rank as f64 + 1.0);
                cum.push(total);
            }
            (0..count)
                .map(|_| {
                    let u: f64 = r.gen_range(0.0..total);
                    let rank = cum.partition_point(|&c| c <= u).min(hot.len() - 1);
                    hot[rank].clone()
                })
                .collect()
        }
        MixKind::NearMiss => (0..count)
            .map(|_| {
                let mut q = sub(&mut r, 12, 22);
                let size = corpus.alphabet.size() as u32;
                let last = q.last_mut().expect("near-miss pattern is non-empty");
                let bump = 1 + r.gen_range(0..size - 1);
                *last = ((*last as u32 + bump) % size) as Code;
                q
            })
            .collect(),
        MixKind::MissHeavy => (0..count)
            .map(|_| {
                if r.gen_range(0..100u32) < 85 {
                    // Random symbols: at DNA 4^12 ≫ corpus length these are
                    // almost surely absent (and absent by construction for
                    // larger alphabets).
                    let len = r.gen_range(12..=16usize);
                    let size = corpus.alphabet.size() as u32;
                    (0..len).map(|_| r.gen_range(0..size) as Code).collect()
                } else {
                    sub(&mut r, 6, 14)
                }
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Load plans: arrival schedules.
// ---------------------------------------------------------------------------

/// How load is offered to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Fixed concurrency: C virtual clients, each submitting the next query
    /// when its previous one completes. Latency = submit → completion.
    Closed,
    /// Scheduled arrivals at a fixed offered rate, independent of engine
    /// progress. Latency = *intended arrival* → completion.
    Open,
}

impl ArrivalMode {
    pub fn name(self) -> &'static str {
        match self {
            ArrivalMode::Closed => "closed",
            ArrivalMode::Open => "open",
        }
    }
}

/// Inter-arrival process for open-loop plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival gaps (memoryless bursts).
    Poisson,
    /// Exact constant spacing.
    Constant,
}

/// A fully determined unit of load: the query sequence plus either a
/// concurrency level (closed) or an arrival schedule (open). Everything
/// here is a pure function of its inputs — see the module docs'
/// determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPlan {
    pub mode: ArrivalMode,
    pub queries: Vec<Vec<Code>>,
    /// Intended arrival offsets from run start, nanoseconds; empty when
    /// closed-loop.
    pub arrivals_ns: Vec<u64>,
    /// Virtual clients (closed-loop only).
    pub concurrency: usize,
    /// Offered rate (open-loop only), queries/second.
    pub offered_qps: f64,
}

impl LoadPlan {
    pub fn closed(queries: Vec<Vec<Code>>, concurrency: usize) -> LoadPlan {
        LoadPlan {
            mode: ArrivalMode::Closed,
            queries,
            arrivals_ns: Vec::new(),
            concurrency: concurrency.max(1),
            offered_qps: 0.0,
        }
    }

    /// Open-loop plan at `offered_qps`. The schedule derives from stream
    /// `arrivals` of `seed` (Poisson) or is exact spacing (constant).
    pub fn open(
        queries: Vec<Vec<Code>>,
        offered_qps: f64,
        process: ArrivalProcess,
        seed: u64,
    ) -> LoadPlan {
        assert!(offered_qps > 0.0, "open-loop plans need a positive rate");
        let mean_ns = 1e9 / offered_qps;
        let mut arrivals = Vec::with_capacity(queries.len());
        let mut t = 0.0f64;
        match process {
            ArrivalProcess::Constant => {
                for i in 0..queries.len() {
                    arrivals.push((i as f64 * mean_ns) as u64);
                }
            }
            ArrivalProcess::Poisson => {
                let mut r = rng::stream(seed, "arrivals", 0);
                for _ in 0..queries.len() {
                    let u: f64 = r.gen_range(0.0..1.0);
                    t += -(1.0 - u).ln() * mean_ns;
                    arrivals.push(t as u64);
                }
            }
        }
        LoadPlan {
            mode: ArrivalMode::Open,
            queries,
            arrivals_ns: arrivals,
            concurrency: 0,
            offered_qps,
        }
    }

    /// A deterministic fingerprint of the plan: byte-identical across runs
    /// with equal inputs (the property the determinism tests pin). FNV-1a
    /// digests stand in for the full sequences so the summary stays small.
    pub fn summary_json(&self) -> String {
        let mut qh: u64 = 0xcbf2_9ce4_8422_2325;
        for q in &self.queries {
            for &c in q {
                qh = (qh ^ c as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            qh = (qh ^ 0xFF).wrapping_mul(0x0000_0100_0000_01b3); // separator
        }
        let mut ah: u64 = 0xcbf2_9ce4_8422_2325;
        for &a in &self.arrivals_ns {
            for byte in a.to_le_bytes() {
                ah = (ah ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!(
            "{{\"mode\":\"{}\",\"queries\":{},\"concurrency\":{},\"offered_qps\":{:.3},\
             \"query_digest\":{},\"arrival_digest\":{},\"last_arrival_ns\":{}}}",
            self.mode.name(),
            self.queries.len(),
            self.concurrency,
            self.offered_qps,
            qh,
            ah,
            self.arrivals_ns.last().copied().unwrap_or(0),
        )
    }
}

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

/// What one plan execution measured.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-query latency, microseconds, sorted ascending. Closed-loop:
    /// submit → completion. Open-loop: intended arrival → completion (queue
    /// wait charged).
    pub latencies_us: Vec<u64>,
    /// Per-query dispatch lag (actual submit − intended arrival), µs,
    /// sorted ascending; empty for closed-loop.
    pub dispatch_lag_us: Vec<u64>,
    pub wall_s: f64,
    pub achieved_qps: f64,
    pub completed: u64,
    pub timed_out: u64,
    pub failed: u64,
}

impl RunOutcome {
    fn quantile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    pub fn p50_us(&self) -> u64 {
        Self::quantile(&self.latencies_us, 0.50)
    }

    pub fn p99_us(&self) -> u64 {
        Self::quantile(&self.latencies_us, 0.99)
    }

    pub fn max_us(&self) -> u64 {
        self.latencies_us.last().copied().unwrap_or(0)
    }

    pub fn dispatch_p99_us(&self) -> u64 {
        Self::quantile(&self.dispatch_lag_us, 0.99)
    }
}

/// Execute `plan` against a **fresh** engine (no prior submissions — the
/// driver indexes its timestamp tables by [`spine::engine::QueryId`], which
/// must start at 0). Panics if the engine was already used.
///
/// The closed-loop driver keeps exactly `concurrency` queries in flight via
/// the engine's completion hook. The open-loop driver submits on the plan's
/// schedule — never early, as late as the dispatcher is slow — recording
/// the slip into [`Stage::DispatchLag`] (when the engine has telemetry) and
/// measuring latency from the *intended* instant. `ledger`, when given,
/// receives offered/dispatched/completed counts for live gauges.
pub fn run_plan<S: ServeIndex + 'static>(
    engine: &QueryEngine<S>,
    plan: &LoadPlan,
    ledger: Option<Arc<LoadLedger>>,
) -> RunOutcome {
    let n = plan.queries.len();
    assert!(n > 0, "empty plan");
    let complete_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..n).map(|_| AtomicU64::new(u64::MAX)).collect());
    // (in-flight, completed) under one mutex; the condvar wakes the
    // closed-loop dispatcher when a slot frees.
    let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
    let start = Instant::now();
    {
        let complete_ns = Arc::clone(&complete_ns);
        let gate = Arc::clone(&gate);
        let ledger = ledger.clone();
        engine.set_completion_hook(move |id| {
            if let Some(slot) = complete_ns.get(id as usize) {
                slot.store(start.elapsed().as_nanos() as u64, Relaxed);
            }
            if let Some(l) = &ledger {
                l.record_completed();
            }
            let (lock, cv) = &*gate;
            let mut in_flight = lock.lock().unwrap();
            *in_flight = in_flight.saturating_sub(1);
            drop(in_flight);
            cv.notify_one();
        });
    }
    let lag_hist = engine.registry().map(|r| r.stage(Stage::DispatchLag));
    let mut submit_ns: Vec<u64> = Vec::with_capacity(n);
    let mut lags_us: Vec<u64> = Vec::with_capacity(if plan.arrivals_ns.is_empty() { 0 } else { n });
    for (i, q) in plan.queries.iter().enumerate() {
        match plan.mode {
            ArrivalMode::Closed => {
                let (lock, cv) = &*gate;
                let mut in_flight = lock.lock().unwrap();
                while *in_flight >= plan.concurrency {
                    in_flight = cv.wait(in_flight).unwrap();
                }
                *in_flight += 1;
            }
            ArrivalMode::Open => {
                let intended = Duration::from_nanos(plan.arrivals_ns[i]);
                loop {
                    let now = start.elapsed();
                    if now >= intended {
                        break;
                    }
                    std::thread::sleep(intended - now);
                }
            }
        }
        let now_ns = start.elapsed().as_nanos() as u64;
        submit_ns.push(now_ns);
        if let Some(l) = &ledger {
            l.record_offered(1);
            l.record_dispatched();
        }
        if plan.mode == ArrivalMode::Open {
            let lag = now_ns.saturating_sub(plan.arrivals_ns[i]);
            lags_us.push(lag / 1_000);
            if let Some(h) = &lag_hist {
                h.record(Duration::from_nanos(lag));
            }
        }
        let id = engine.submit(q.clone()).expect("Block policy never sheds");
        assert_eq!(id as usize, i, "run_plan needs a fresh engine (ids must start at 0)");
    }
    let results = engine.drain();
    // The hook fires after results publish, outside the engine's state
    // lock, so drain() can return a beat before the last stamps land.
    for slot in complete_ns.iter() {
        let mut spins = 0u32;
        while slot.load(Relaxed) == u64::MAX {
            std::thread::yield_now();
            spins += 1;
            assert!(spins < 10_000_000, "completion hook never fired for a drained query");
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (mut completed, mut timed_out, mut failed) = (0u64, 0u64, 0u64);
    for r in &results {
        match r.outcome {
            QueryOutcome::Done(_) | QueryOutcome::DoneDocs(_) => completed += 1,
            QueryOutcome::TimedOut => timed_out += 1,
            QueryOutcome::Failed(_) => failed += 1,
        }
    }
    let mut latencies_us: Vec<u64> = (0..n)
        .map(|i| {
            let done = complete_ns[i].load(Relaxed);
            let basis = match plan.mode {
                ArrivalMode::Closed => submit_ns[i],
                ArrivalMode::Open => plan.arrivals_ns[i],
            };
            done.saturating_sub(basis) / 1_000
        })
        .collect();
    latencies_us.sort_unstable();
    lags_us.sort_unstable();
    RunOutcome {
        latencies_us,
        dispatch_lag_us: lags_us,
        wall_s,
        achieved_qps: results.len() as f64 / wall_s.max(1e-9),
        completed,
        timed_out,
        failed,
    }
}

// ---------------------------------------------------------------------------
// Engines under test.
// ---------------------------------------------------------------------------

/// Serve any whole-text [`StringIndex`] through the [`QueryEngine`]: each
/// pattern answers with its occurrence end positions (matching the SPINE
/// convention `end = start + len`), so every comparison engine rides the
/// same batching, queueing, and telemetry path as SPINE itself.
/// [`StringIndex::find_all`] already gives starts ascending, and `0..=n`
/// for the empty pattern, so the ends need no sorting and ε no branch.
pub struct ServeAdapter<T: StringIndex + Send + Sync> {
    index: T,
    probe: Option<fn(&T) -> CountersSnapshot>,
}

impl<T: StringIndex + Send + Sync> ServeAdapter<T> {
    pub fn new(index: T) -> Self {
        ServeAdapter { index, probe: None }
    }

    /// Attach a work-counter probe (engines that keep [`strindex::Counters`]).
    pub fn with_probe(index: T, probe: fn(&T) -> CountersSnapshot) -> Self {
        ServeAdapter { index, probe: Some(probe) }
    }
}

impl<T: StringIndex + Send + Sync> ServeIndex for ServeAdapter<T> {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        patterns
            .iter()
            .map(|p| {
                let starts = self.index.find_all(p).into_iter();
                QueryOutcome::Done(starts.map(|start| (start + p.len()) as NodeId).collect())
            })
            .collect()
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        match self.probe {
            Some(f) => f(&self.index),
            None => CountersSnapshot::default(),
        }
    }
}

/// Type-erased [`ServeIndex`], so one harness loop can hold heterogeneous
/// engines. (A plain `dyn ServeIndex` cannot parameterize [`QueryEngine`],
/// which needs a sized type.)
pub struct BoxedServe(Box<dyn ServeIndex>);

impl BoxedServe {
    pub fn new(inner: impl ServeIndex + 'static) -> BoxedServe {
        BoxedServe(Box::new(inner))
    }
}

impl ServeIndex for BoxedServe {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        self.0.answer_patterns(patterns)
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        self.0.counters_snapshot()
    }
}

/// The in-repo engines the head-to-head sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// In-memory SPINE via the [`spine::FallibleSpineOps`] batch path.
    Spine,
    /// Segmented LSM SPINE, built incrementally from the corpus stream.
    SpineSeg,
    /// Suffix array (SA-IS + LCP) via [`ServeAdapter`].
    SuffixArray,
    /// Ukkonen suffix tree via [`ServeAdapter`].
    SuffixTree,
    /// Suffix trie via [`ServeAdapter`] (node count is O(n²)-ish, so the
    /// harness builds it over a capped corpus prefix — see
    /// [`ScaleConfig::trie_corpus_len`]).
    Trie,
}

impl EngineKind {
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Spine,
        EngineKind::SpineSeg,
        EngineKind::SuffixArray,
        EngineKind::SuffixTree,
        EngineKind::Trie,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Spine => "spine",
            EngineKind::SpineSeg => "spine-seg",
            EngineKind::SuffixArray => "suffix-array",
            EngineKind::SuffixTree => "suffix-tree",
            EngineKind::Trie => "trie",
        }
    }

    pub fn parse(s: &str) -> Option<EngineKind> {
        Self::ALL.iter().copied().find(|e| e.name() == s)
    }
}

/// Build `kind` over the corpus, type-erased for the harness. The
/// segmented store is built from a fresh [`CorpusStream`] (chunk =
/// document, seal every few documents) — the streamed-ingest path — while
/// whole-text engines read `corpus.text`.
pub fn build_engine(kind: EngineKind, corpus: &Corpus, dir: &std::path::Path) -> BoxedServe {
    match kind {
        EngineKind::Spine => BoxedServe::new(
            Spine::build(corpus.alphabet.clone(), &corpus.text).expect("spine build"),
        ),
        EngineKind::SpineSeg => {
            let cfg = SegmentConfig {
                memtable_max_symbols: corpus.spec.chunk * 2,
                ..SegmentConfig::default()
            };
            let store = SegmentedSpine::create(corpus.alphabet.clone(), dir, cfg)
                .expect("segment store create");
            for chunk in CorpusStream::new(corpus.spec) {
                store.add_document(&chunk).expect("segment add_document");
            }
            store.force_seal().expect("segment seal");
            BoxedServe::new(store)
        }
        EngineKind::SuffixArray => BoxedServe::new(ServeAdapter::new(SaIndex::build(
            corpus.alphabet.clone(),
            &corpus.text,
        ))),
        EngineKind::SuffixTree => BoxedServe::new(ServeAdapter::with_probe(
            SuffixTree::build(corpus.alphabet.clone(), &corpus.text).expect("suffix tree build"),
            |t| t.counters().snapshot(),
        )),
        EngineKind::Trie => BoxedServe::new(ServeAdapter::new(SuffixTrie::build(
            corpus.alphabet.clone(),
            &corpus.text,
        ))),
    }
}

// ---------------------------------------------------------------------------
// The scale sweep.
// ---------------------------------------------------------------------------

/// Parameters of one `exp scale` run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Run seed; every stream derives from it (printed at run start).
    pub seed: u64,
    pub corpus_kind: CorpusKind,
    /// Corpus length for every engine except the trie.
    pub corpus_len: usize,
    /// Capped corpus length for the suffix trie (O(n²)-ish nodes). Its
    /// queries come from its own prefix corpus, so hit mixes still hit —
    /// the `corpus_len` field of each curve records the cap.
    pub trie_corpus_len: usize,
    /// Queries measured per curve point.
    pub queries_per_point: usize,
    /// Engine worker threads.
    pub workers: usize,
    pub engines: Vec<EngineKind>,
    /// Mixes run on *every* engine.
    pub mixes: Vec<MixKind>,
    /// Extra mixes run on SPINE only (adversarial deep-dives).
    pub spine_extra_mixes: Vec<MixKind>,
    /// Closed-loop concurrency levels.
    pub closed_levels: Vec<usize>,
    /// Open-loop offered rates, as fractions of the engine's calibrated
    /// closed-loop capacity (values past 1.0 probe beyond the knee).
    pub open_fractions: Vec<f64>,
    pub quick: bool,
    /// Print per-point progress lines.
    pub verbose: bool,
}

impl ScaleConfig {
    /// The full sweep behind the committed `BENCH_scale.json`.
    pub fn full(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            corpus_kind: CorpusKind::Dna,
            corpus_len: 1 << 20,
            trie_corpus_len: 4_000,
            queries_per_point: 384,
            workers: 4,
            engines: EngineKind::ALL.to_vec(),
            mixes: vec![MixKind::Uniform, MixKind::Zipf],
            spine_extra_mixes: vec![MixKind::NearMiss, MixKind::MissHeavy],
            closed_levels: vec![1, 2, 4, 8],
            open_fractions: vec![0.25, 0.5, 0.75, 0.9, 1.1],
            quick: false,
            verbose: true,
        }
    }

    /// CI-sized: same curve coverage (engine × mix × mode), tiny corpus and
    /// few points, so the run takes seconds.
    pub fn quick(seed: u64) -> ScaleConfig {
        ScaleConfig {
            corpus_len: 64 << 10,
            trie_corpus_len: 1_500,
            queries_per_point: 96,
            closed_levels: vec![1, 4],
            open_fractions: vec![0.5, 1.1],
            quick: true,
            ..ScaleConfig::full(seed)
        }
    }
}

/// One measured point on a throughput-vs-latency curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Closed-loop concurrency (0 for open-loop points).
    pub concurrency: usize,
    /// Open-loop offered rate (0 for closed-loop points).
    pub offered_qps: f64,
    pub achieved_qps: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub completed: u64,
    pub failed: u64,
    /// p99 generator slip behind the schedule (open-loop; 0 closed).
    pub dispatch_p99_us: u64,
    /// Stage attribution from the engine's shared registry, total
    /// milliseconds over the point's run: where a knee's time went.
    pub admission_ms: f64,
    pub scan_ms: f64,
    pub merge_ms: f64,
}

impl CurvePoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"concurrency\":{},\"offered_qps\":{:.1},\"achieved_qps\":{:.1},\
             \"p50_us\":{},\"p99_us\":{},\"max_us\":{},\"completed\":{},\"failed\":{},\
             \"dispatch_p99_us\":{},\"admission_ms\":{:.3},\"scan_ms\":{:.3},\
             \"merge_ms\":{:.3}}}",
            self.concurrency,
            self.offered_qps,
            self.achieved_qps,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.completed,
            self.failed,
            self.dispatch_p99_us,
            self.admission_ms,
            self.scan_ms,
            self.merge_ms,
        )
    }
}

/// One engine × mix × mode throughput-vs-latency curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadCurve {
    pub engine: String,
    pub mix: String,
    pub mode: String,
    /// Corpus length this engine actually indexed (the trie cap shows
    /// here).
    pub corpus_len: usize,
    pub build_s: f64,
    /// Calibrated closed-loop capacity the open fractions refer to.
    pub capacity_qps: f64,
    pub points: Vec<CurvePoint>,
}

impl LoadCurve {
    /// The curve's identity within a report.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.engine, self.mix, self.mode)
    }

    /// Best throughput across the curve's points.
    pub fn peak_qps(&self) -> f64 {
        self.points.iter().map(|p| p.achieved_qps).fold(0.0, f64::max)
    }

    fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(CurvePoint::to_json).collect();
        format!(
            "{{\"engine\":\"{}\",\"mix\":\"{}\",\"mode\":\"{}\",\"corpus_len\":{},\
             \"build_s\":{:.4},\"capacity_qps\":{:.1},\"points\":[{}]}}",
            self.engine,
            self.mix,
            self.mode,
            self.corpus_len,
            self.build_s,
            self.capacity_qps,
            points.join(",")
        )
    }
}

/// The `BENCH_scale.json` payload: run fingerprint + every curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    pub seed: u64,
    pub corpus_kind: String,
    pub corpus_len: usize,
    pub trie_corpus_len: usize,
    pub queries_per_point: usize,
    pub workers: usize,
    pub quick: bool,
    pub curves: Vec<LoadCurve>,
}

/// Throughput may drop to this fraction of a matching baseline's per-curve
/// peak before the check fails. Looser than the serve gate's 0.8: a scale
/// run measures 20+ short curves, so per-curve noise is higher.
pub const SCALE_QPS_FLOOR: f64 = 0.5;

impl ScaleReport {
    pub fn to_json(&self) -> String {
        let curves: Vec<String> = self.curves.iter().map(LoadCurve::to_json).collect();
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"seed\":{},\"corpus_kind\":\"{}\",\
             \"corpus_len\":{},\"trie_corpus_len\":{},\"queries_per_point\":{},\
             \"workers\":{},\"quick\":{},\"curves\":[\n{}\n]}}",
            self.seed,
            self.corpus_kind,
            self.corpus_len,
            self.trie_corpus_len,
            self.queries_per_point,
            self.workers,
            self.quick,
            curves.join(",\n")
        )
    }

    /// Parse a report back out of [`Self::to_json`]'s output. Like the
    /// other snapshots, rejects missing/unknown `schema_version` with a
    /// typed error before touching any field.
    pub fn from_json(text: &str) -> Result<ScaleReport, SnapshotError> {
        check_schema_version(text)?;
        let get = |t: &str, key: &str| {
            json_number(t, key)
                .ok_or_else(|| SnapshotError::Malformed(format!("missing numeric field {key:?}")))
        };
        let mut curves = Vec::new();
        // Each curve object begins at `{"engine":"`; the emitter writes one
        // per line, so splitting on the marker is unambiguous.
        for block in text.split("{\"engine\":\"").skip(1) {
            let engine = block
                .split('"')
                .next()
                .ok_or_else(|| SnapshotError::Malformed("unterminated engine name".into()))?
                .to_string();
            let str_field = |key: &str| -> Result<String, SnapshotError> {
                let needle = format!("\"{key}\":\"");
                let at = block
                    .find(&needle)
                    .ok_or_else(|| SnapshotError::Malformed(format!("missing field {key:?}")))?
                    + needle.len();
                block[at..]
                    .split('"')
                    .next()
                    .map(str::to_string)
                    .ok_or_else(|| SnapshotError::Malformed(format!("unterminated {key:?}")))
            };
            let mut points = Vec::new();
            for pb in block.split("{\"concurrency\":").skip(1) {
                let pb = format!("{{\"concurrency\":{pb}");
                points.push(CurvePoint {
                    concurrency: get(&pb, "concurrency")? as usize,
                    offered_qps: get(&pb, "offered_qps")?,
                    achieved_qps: get(&pb, "achieved_qps")?,
                    p50_us: get(&pb, "p50_us")? as u64,
                    p99_us: get(&pb, "p99_us")? as u64,
                    max_us: get(&pb, "max_us")? as u64,
                    completed: get(&pb, "completed")? as u64,
                    failed: get(&pb, "failed")? as u64,
                    dispatch_p99_us: get(&pb, "dispatch_p99_us")? as u64,
                    admission_ms: get(&pb, "admission_ms")?,
                    scan_ms: get(&pb, "scan_ms")?,
                    merge_ms: get(&pb, "merge_ms")?,
                });
            }
            curves.push(LoadCurve {
                engine,
                mix: str_field("mix")?,
                mode: str_field("mode")?,
                corpus_len: get(block, "corpus_len")? as usize,
                build_s: get(block, "build_s")?,
                capacity_qps: get(block, "capacity_qps")?,
                points,
            });
        }
        Ok(ScaleReport {
            seed: get(text, "seed")? as u64,
            corpus_kind: {
                let needle = "\"corpus_kind\":\"";
                let at = text
                    .find(needle)
                    .ok_or_else(|| SnapshotError::Malformed("missing corpus_kind".into()))?
                    + needle.len();
                text[at..].split('"').next().unwrap_or_default().to_string()
            },
            corpus_len: get(text, "corpus_len")? as usize,
            trie_corpus_len: get(text, "trie_corpus_len")? as usize,
            queries_per_point: get(text, "queries_per_point")? as usize,
            workers: get(text, "workers")? as usize,
            quick: text.contains("\"quick\":true"),
            curves,
        })
    }

    /// Does this run's configuration make its throughput comparable to
    /// `baseline`'s? (Same seed, corpus, sizes — a `--quick` run checked
    /// against the committed full baseline deliberately does not match.)
    pub fn fingerprint_matches(&self, baseline: &ScaleReport) -> bool {
        self.seed == baseline.seed
            && self.corpus_kind == baseline.corpus_kind
            && self.corpus_len == baseline.corpus_len
            && self.trie_corpus_len == baseline.trie_corpus_len
            && self.queries_per_point == baseline.queries_per_point
            && self.workers == baseline.workers
            && self.quick == baseline.quick
    }

    /// The regression gate. Always: every baseline curve (engine × mix ×
    /// mode) must exist in this run with at least as many points — lost
    /// coverage fails even in `--quick`. When the run fingerprint matches
    /// the baseline's, additionally gate each curve's peak throughput at
    /// [`SCALE_QPS_FLOOR`] × baseline.
    pub fn check_against(&self, baseline: &ScaleReport) -> Result<String, String> {
        let comparable = self.fingerprint_matches(baseline);
        for b in &baseline.curves {
            let Some(c) = self.curves.iter().find(|c| c.key() == b.key()) else {
                return Err(format!(
                    "coverage regression: curve {} missing from this run",
                    b.key()
                ));
            };
            if c.points.len() < b.points.len() && comparable {
                return Err(format!(
                    "coverage regression: curve {} has {} points, baseline {}",
                    b.key(),
                    c.points.len(),
                    b.points.len()
                ));
            }
            if comparable {
                let floor = b.peak_qps() * SCALE_QPS_FLOOR;
                if c.peak_qps() < floor {
                    return Err(format!(
                        "throughput regression: curve {} peaks at {:.0} qps < {:.0} \
                         ({}% of baseline {:.0})",
                        b.key(),
                        c.peak_qps(),
                        floor,
                        (SCALE_QPS_FLOOR * 100.0) as u64,
                        b.peak_qps()
                    ));
                }
            }
        }
        Ok(format!(
            "{} curves cover baseline's {}{}",
            self.curves.len(),
            baseline.curves.len(),
            if comparable {
                "; peak-qps floors hold"
            } else {
                "; fingerprints differ, coverage-only check"
            }
        ))
    }
}

/// Run the full sweep: build every engine once, calibrate its closed-loop
/// capacity, then measure every mix × mode × level. `scratch` hosts the
/// segmented store's files.
pub fn run_scale(cfg: &ScaleConfig, scratch: &std::path::Path) -> ScaleReport {
    let main_spec = CorpusSpec::new(cfg.corpus_kind, cfg.corpus_len, cfg.seed);
    let trie_spec = CorpusSpec::new(cfg.corpus_kind, cfg.trie_corpus_len, cfg.seed);
    let main_corpus = Corpus::materialize(main_spec);
    let trie_corpus = Corpus::materialize(trie_spec);
    let mut curves = Vec::new();

    for &engine_kind in &cfg.engines {
        let corpus = if engine_kind == EngineKind::Trie { &trie_corpus } else { &main_corpus };
        let dir = scratch.join(format!("seg-{}", engine_kind.name()));
        let build_start = Instant::now();
        let index = Arc::new(build_engine(engine_kind, corpus, &dir));
        let build_s = build_start.elapsed().as_secs_f64();

        // Calibrate: a closed-loop burst at full worker concurrency puts an
        // upper bound on sustainable throughput; open-loop offered rates
        // are fractions of it. (Machine-dependent by nature — the committed
        // baseline's fingerprint covers the deterministic inputs only.)
        let calib_queries = mix_queries(corpus, MixKind::Uniform, cfg.queries_per_point.min(256));
        let calib_plan = LoadPlan::closed(calib_queries, cfg.workers * 2);
        let calib_engine = QueryEngine::new(Arc::clone(&index), engine_config(cfg, &calib_plan));
        let capacity_qps = run_plan(&calib_engine, &calib_plan, None).achieved_qps;
        drop(calib_engine);
        if cfg.verbose {
            println!(
                "engine {:>12}: built {} symbols in {:.2}s, capacity ≈ {:.0} qps",
                engine_kind.name(),
                corpus.spec.len,
                build_s,
                capacity_qps
            );
        }

        let mut mixes = cfg.mixes.clone();
        if engine_kind == EngineKind::Spine {
            mixes.extend(cfg.spine_extra_mixes.iter().copied());
        }
        for mix in mixes {
            let queries = mix_queries(corpus, mix, cfg.queries_per_point);
            for mode in [ArrivalMode::Closed, ArrivalMode::Open] {
                let mut points = Vec::new();
                match mode {
                    ArrivalMode::Closed => {
                        for &c in &cfg.closed_levels {
                            let plan = LoadPlan::closed(queries.clone(), c);
                            points.push(measure_point(cfg, &index, &plan));
                        }
                    }
                    ArrivalMode::Open => {
                        for &f in &cfg.open_fractions {
                            let offered = (capacity_qps * f).max(50.0);
                            let plan = LoadPlan::open(
                                queries.clone(),
                                offered,
                                ArrivalProcess::Poisson,
                                rng::derive(cfg.seed, "open-plan", points.len() as u64),
                            );
                            points.push(measure_point(cfg, &index, &plan));
                        }
                    }
                }
                if cfg.verbose {
                    let peak = points.iter().map(|p| p.achieved_qps).fold(0.0, f64::max);
                    println!(
                        "  {:>9} × {:>6}: {} points, peak {:.0} qps, worst p99 {} µs",
                        mix.name(),
                        mode.name(),
                        points.len(),
                        peak,
                        points.iter().map(|p| p.p99_us).max().unwrap_or(0)
                    );
                }
                curves.push(LoadCurve {
                    engine: engine_kind.name().to_string(),
                    mix: mix.name().to_string(),
                    mode: mode.name().to_string(),
                    corpus_len: corpus.spec.len,
                    build_s,
                    capacity_qps,
                    points,
                });
            }
        }
    }

    ScaleReport {
        seed: cfg.seed,
        corpus_kind: cfg.corpus_kind.name().to_string(),
        corpus_len: cfg.corpus_len,
        trie_corpus_len: cfg.trie_corpus_len,
        queries_per_point: cfg.queries_per_point,
        workers: cfg.workers,
        quick: cfg.quick,
        curves,
    }
}

fn engine_config(cfg: &ScaleConfig, plan: &LoadPlan) -> EngineConfig {
    EngineConfig {
        workers: cfg.workers,
        batch_max: 64,
        // The open-loop driver must never shed or block on admission — the
        // queue absorbs everything so queue wait lands in latency, not in a
        // shed count.
        queue_capacity: plan.queries.len().max(1),
        shed: ShedPolicy::Block,
    }
}

/// Run one plan with a fresh telemetry-backed engine over `index`, and fold
/// the run + its stage attribution into a [`CurvePoint`].
fn measure_point(cfg: &ScaleConfig, index: &Arc<BoxedServe>, plan: &LoadPlan) -> CurvePoint {
    let registry = Arc::new(MetricsRegistry::new());
    let engine = QueryEngine::with_telemetry(Arc::clone(index), engine_config(cfg, plan), registry);
    let out = run_plan(&engine, plan, None);
    let snap = engine.registry().expect("telemetry enabled").snapshot();
    let stage_ms = |s: Stage| snap.stage(s).map(|h| h.sum as f64 / 1e6).unwrap_or(0.0);
    CurvePoint {
        concurrency: plan.concurrency,
        offered_qps: plan.offered_qps,
        achieved_qps: out.achieved_qps,
        p50_us: out.p50_us(),
        p99_us: out.p99_us(),
        max_us: out.max_us(),
        completed: out.completed,
        failed: out.failed + out.timed_out,
        dispatch_p99_us: out.dispatch_p99_us(),
        admission_ms: stage_ms(Stage::AdmissionWait),
        scan_ms: stage_ms(Stage::IndexScan),
        merge_ms: stage_ms(Stage::ResultMerge),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus(kind: CorpusKind) -> Corpus {
        Corpus::materialize(CorpusSpec::new(kind, 20_000, 7))
    }

    #[test]
    fn corpus_stream_is_deterministic_and_sized() {
        for kind in CorpusKind::ALL {
            let spec = CorpusSpec::new(kind, 50_000, 11);
            let a: Vec<Code> = CorpusStream::new(spec).flatten().collect();
            let b: Vec<Code> = CorpusStream::new(spec).flatten().collect();
            assert_eq!(a, b, "{}", kind.name());
            assert_eq!(a.len(), 50_000, "{}", kind.name());
            let size = kind.alphabet().size();
            assert!(a.iter().all(|&c| (c as usize) < size), "{}", kind.name());
        }
    }

    #[test]
    fn materialized_corpus_matches_restreaming() {
        // The segmented build path relies on a second stream yielding the
        // same bytes the whole-text engines indexed.
        let spec = CorpusSpec::new(CorpusKind::Dna, 40_000, 3);
        let c = Corpus::materialize(spec);
        let restream: Vec<Code> = CorpusStream::new(spec).flatten().collect();
        assert_eq!(c.text, restream);
        assert!(!c.windows.is_empty());
        // Windows are within-chunk, so each must occur in the text.
        for w in c.windows.iter().take(16) {
            assert!(c.text.windows(w.len()).any(|x| x == w.as_slice()));
        }
    }

    #[test]
    fn log_text_looks_like_logs() {
        let c = tiny_corpus(CorpusKind::LogText);
        let bytes = c.alphabet.decode_all(&c.text);
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.contains("/api/v"), "sample: {}", &text[..200.min(text.len())]);
        assert!(text.contains("INFO") || text.contains("WARN") || text.contains("ERROR"));
    }

    #[test]
    fn mixes_are_deterministic_and_in_alphabet() {
        let c = tiny_corpus(CorpusKind::Dna);
        for mix in MixKind::ALL {
            let a = mix_queries(&c, mix, 64);
            let b = mix_queries(&c, mix, 64);
            assert_eq!(a, b, "{}", mix.name());
            assert_eq!(a.len(), 64);
            let size = c.alphabet.size();
            assert!(a.iter().flatten().all(|&x| (x as usize) < size), "{}", mix.name());
            assert!(a.iter().all(|q| !q.is_empty()), "{}", mix.name());
        }
    }

    #[test]
    fn zipf_mix_is_skewed() {
        let c = tiny_corpus(CorpusKind::Dna);
        let qs = mix_queries(&c, MixKind::Zipf, 512);
        let mut counts = std::collections::HashMap::new();
        for q in &qs {
            *counts.entry(q.clone()).or_insert(0usize) += 1;
        }
        assert!(counts.len() <= ZIPF_HOT);
        let hottest = counts.values().max().copied().unwrap_or(0);
        // Rank 1 of a 16-entry harmonic distribution carries ~30 % of mass.
        assert!(hottest * 5 >= qs.len(), "hottest {} of {}", hottest, qs.len());
    }

    #[test]
    fn near_miss_patterns_mostly_miss_but_share_prefixes() {
        let c = tiny_corpus(CorpusKind::Dna);
        let spine = Spine::build(c.alphabet.clone(), &c.text).unwrap();
        use strindex::StringIndex;
        let qs = mix_queries(&c, MixKind::NearMiss, 64);
        let mut misses = 0;
        for q in &qs {
            // Prefix (all but the flipped last symbol) is a real substring.
            assert!(spine.contains(&q[..q.len() - 1]), "prefix must be present");
            if !spine.contains(q) {
                misses += 1;
            }
        }
        assert!(misses * 2 > qs.len(), "only {misses}/{} missed", qs.len());
    }

    #[test]
    fn open_plans_derive_deterministic_schedules() {
        let qs = vec![vec![0u8, 1, 2]; 100];
        let a = LoadPlan::open(qs.clone(), 10_000.0, ArrivalProcess::Poisson, 5);
        let b = LoadPlan::open(qs.clone(), 10_000.0, ArrivalProcess::Poisson, 5);
        assert_eq!(a, b);
        assert_eq!(a.summary_json(), b.summary_json());
        let c = LoadPlan::open(qs.clone(), 10_000.0, ArrivalProcess::Poisson, 6);
        assert_ne!(a.arrivals_ns, c.arrivals_ns);
        // Arrivals are monotone and roughly at the offered rate.
        assert!(a.arrivals_ns.windows(2).all(|w| w[0] <= w[1]));
        let constant = LoadPlan::open(qs, 10_000.0, ArrivalProcess::Constant, 0);
        assert_eq!(constant.arrivals_ns[1] - constant.arrivals_ns[0], 100_000);
    }

    #[test]
    fn closed_and_open_drivers_answer_everything() {
        let c = tiny_corpus(CorpusKind::Dna);
        let index = Arc::new(BoxedServe::new(Spine::build(c.alphabet.clone(), &c.text).unwrap()));
        let queries = mix_queries(&c, MixKind::Uniform, 50);

        let plan = LoadPlan::closed(queries.clone(), 4);
        let engine = QueryEngine::new(
            Arc::clone(&index),
            EngineConfig { workers: 2, queue_capacity: 64, ..Default::default() },
        );
        let out = run_plan(&engine, &plan, None);
        assert_eq!(out.completed, 50);
        assert_eq!(out.latencies_us.len(), 50);

        let ledger = Arc::new(LoadLedger::new());
        let plan = LoadPlan::open(queries, 50_000.0, ArrivalProcess::Poisson, 1);
        let engine = QueryEngine::new(
            Arc::clone(&index),
            EngineConfig { workers: 2, queue_capacity: 64, ..Default::default() },
        );
        let out = run_plan(&engine, &plan, Some(Arc::clone(&ledger)));
        assert_eq!(out.completed, 50);
        assert_eq!(out.dispatch_lag_us.len(), 50);
        assert_eq!(ledger.offered(), 50);
        assert_eq!(ledger.dispatched(), 50);
        assert_eq!(ledger.completed(), 50);
        assert_eq!(ledger.engine_backlog(), 0);
    }

    #[test]
    fn serve_adapter_agrees_with_spine() {
        // A text short enough for the quadratic suffix trie; patterns are
        // ε, substrings of it (hits) and substrings of a later stretch of
        // the corpus (mostly misses).
        let c = tiny_corpus(CorpusKind::Dna);
        let (a, text) = (&c.alphabet, &c.text[..400]);
        let mut patterns: Vec<&[Code]> = vec![&[]];
        patterns.extend((0..40).map(|i| &text[i * 9..i * 9 + 3 + i % 8]));
        patterns.extend((0..40).map(|i| &c.text[10_000 + i * 50..10_010 + i * 50 + i % 4]));
        let want = Spine::build(a.clone(), text).unwrap().answer_patterns(&patterns);
        assert!(want.contains(&QueryOutcome::Done(Vec::new())), "some patterns must miss");
        let adapters = [
            ("suffix array", BoxedServe::new(ServeAdapter::new(SaIndex::build(a.clone(), text)))),
            (
                "suffix tree",
                BoxedServe::new(ServeAdapter::new(SuffixTree::build(a.clone(), text).unwrap())),
            ),
            ("suffix trie", BoxedServe::new(ServeAdapter::new(SuffixTrie::build(a.clone(), text)))),
        ];
        for (name, adapter) in adapters {
            assert_eq!(adapter.answer_patterns(&patterns), want, "{name}");
        }
    }

    #[test]
    fn scale_report_round_trips_and_checks() {
        let point = CurvePoint {
            concurrency: 4,
            offered_qps: 0.0,
            achieved_qps: 1234.5,
            p50_us: 80,
            p99_us: 900,
            max_us: 1500,
            completed: 384,
            failed: 0,
            dispatch_p99_us: 0,
            admission_ms: 1.25,
            scan_ms: 10.5,
            merge_ms: 0.75,
        };
        let report = ScaleReport {
            seed: 0x5915E,
            corpus_kind: "dna".into(),
            corpus_len: 1 << 20,
            trie_corpus_len: 4_000,
            queries_per_point: 384,
            workers: 4,
            quick: false,
            curves: vec![LoadCurve {
                engine: "spine".into(),
                mix: "uniform".into(),
                mode: "closed".into(),
                corpus_len: 1 << 20,
                build_s: 1.5,
                capacity_qps: 2000.0,
                points: vec![point],
            }],
        };
        let text = report.to_json();
        let parsed = ScaleReport::from_json(&text).unwrap();
        assert_eq!(parsed, report);
        assert!(parsed.check_against(&report).is_ok());

        // Unknown schema version → typed refusal.
        let future = text.replace("\"schema_version\":1", "\"schema_version\":9");
        assert_eq!(ScaleReport::from_json(&future).unwrap_err(), SnapshotError::UnknownVersion(9));
        assert_eq!(
            ScaleReport::from_json("{\"curves\":[]}").unwrap_err(),
            SnapshotError::MissingVersion
        );

        // Missing curve → coverage failure even with a foreign fingerprint.
        let mut smaller = report.clone();
        smaller.quick = true;
        smaller.curves.clear();
        let err = smaller.check_against(&report).unwrap_err();
        assert!(err.contains("coverage regression"), "{err}");

        // Matching fingerprint gates peak throughput.
        let mut slow = report.clone();
        slow.curves[0].points[0].achieved_qps = 100.0;
        let err = slow.check_against(&report).unwrap_err();
        assert!(err.contains("throughput regression"), "{err}");

        // Differing fingerprint (quick run): same curves pass on coverage.
        let mut quick = slow;
        quick.quick = true;
        let msg = quick.check_against(&report).unwrap();
        assert!(msg.contains("coverage-only"), "{msg}");
    }
}
