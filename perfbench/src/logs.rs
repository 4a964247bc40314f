//! `logs-churn`: a [`SegmentedSpine`] with the default [`SegmentConfig`]
//! over templated ASCII log documents, served by a one-worker
//! [`QueryEngine`] while the same client writes.
//!
//! Every tenth operation is a write: add a new document, retire the oldest
//! (first-in-first-out retention keeps the live size, and so the merge
//! cost, constant), and after a seal apply the background merger's own rule
//! synchronously. No timer or background thread seals or merges, so seals
//! and merges fall on the same operations in every run.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pagestore::PAGE_SIZE;
use spine::engine::{QueryEngine, QueryOutcome, ServeIndex};
use spine::{DocMatch, IoGate, JournalKind, MergePhase, SegmentConfig, SegmentedSpine};
use strindex::{Alphabet, Code, CountersSnapshot};

use crate::inputs::{ChurnScript, Op};
use crate::oracle;
use crate::report;
use crate::stats::Latencies;
use crate::trace::{self, Tracer};
use crate::{
    engine, median_setup, serve, Budget, ClosedLoop, Outcome, Sizes, Step, Values, Workload,
};

/// Store directories made by this process, for unique names.
static STORES: AtomicU64 = AtomicU64::new(0);

/// Removes a store's directory when dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A store in a fresh directory of its own; the directory goes with it.
struct Store {
    spine: Arc<SegmentedSpine>,
    dir: DirGuard,
}

/// The background merger's rule (`spawn_merger`), applied after a seal:
/// merge once the segment count reaches `merge_min_segments` or any
/// tombstone is outstanding.
fn merge_if_due(store: &SegmentedSpine, min_segments: usize) -> strindex::Result<bool> {
    let s = store.stats();
    if s.segments >= min_segments || s.tombstones > 0 {
        store.merge_once()
    } else {
        Ok(false)
    }
}

impl Store {
    /// Create a store and add `docs`, merging by the rule after each seal.
    fn ingest(docs: &[Vec<Code>], cfg: &SegmentConfig) -> Result<Store, String> {
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let dir = DirGuard(crate::work_dir()?.join(format!("store-{}-{n}", std::process::id())));
        let spine = SegmentedSpine::create(Alphabet::ascii(), &dir.0, cfg.clone())
            .map_err(|e| e.to_string())?;
        for doc in docs {
            let seals = spine.stats().seals;
            spine.add_document(doc).map_err(|e| e.to_string())?;
            if spine.stats().seals > seals {
                merge_if_due(&spine, cfg.merge_min_segments).map_err(|e| e.to_string())?;
            }
        }
        Ok(Store { spine: Arc::new(spine), dir })
    }

    /// Bytes of every file in the store's directory.
    fn bytes(&self) -> Result<u64, String> {
        let err = |e: std::io::Error| format!("sizing {}: {e}", self.dir.0.display());
        let mut total = 0;
        for entry in std::fs::read_dir(&self.dir.0).map_err(err)? {
            total += entry.map_err(err)?.metadata().map_err(err)?.len();
        }
        Ok(total)
    }
}

/// The matches the store answers a query with.
fn doc_matches(outcome: QueryOutcome) -> Result<Vec<DocMatch>, QueryOutcome> {
    match outcome {
        QueryOutcome::DoneDocs(matches) => Ok(matches),
        other => Err(other),
    }
}

/// What the engine serves in a traced run: the store, with a span around
/// its own `answer_patterns`.
struct TracedStore {
    store: Arc<SegmentedSpine>,
    tracer: Arc<Tracer>,
}

impl ServeIndex for TracedStore {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        let t0 = Instant::now();
        let out = self.store.answer_patterns(patterns);
        self.tracer.child("segments.query", t0, Instant::now());
        out
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        self.store.counters_snapshot()
    }
}

/// Counts and spans of the traced window.
struct Probe {
    tracer: Arc<Tracer>,
    gate: IoGate,
    queries: u64,
    components: u64,
    query_io: u64,
    search: CountersSnapshot,
    writes: u64,
    write_io: u64,
    appends: Latencies,
    seals: Latencies,
    retires: Latencies,
    merges: Latencies,
    merge_phase_ns: [u64; MergePhase::COUNT],
    journal_merges: u64,
    doc_bytes: u64,
    segment_bytes: u64,
    seen_segments: BTreeSet<u64>,
    last_epoch: u64,
}

/// Counts taken before a traced query.
struct Before {
    io: u64,
    search: CountersSnapshot,
}

impl Probe {
    fn new(tracer: Arc<Tracer>, gate: IoGate, store: &SegmentedSpine) -> Probe {
        Probe {
            tracer,
            gate,
            queries: 0,
            components: 0,
            query_io: 0,
            search: CountersSnapshot::default(),
            writes: 0,
            write_io: 0,
            appends: Latencies::default(),
            seals: Latencies::default(),
            retires: Latencies::default(),
            merges: Latencies::default(),
            merge_phase_ns: [0; MergePhase::COUNT],
            journal_merges: 0,
            doc_bytes: 0,
            segment_bytes: 0,
            seen_segments: store.segment_pages().into_iter().map(|(id, _)| id).collect(),
            last_epoch: store.epoch(),
        }
    }

    /// Take a query's counts before its clock starts.
    fn before_query(&mut self, store: &SegmentedSpine) -> Before {
        let s = store.stats();
        self.components += s.segments as u64 + u64::from(s.memtable_docs > 0);
        Before { io: self.gate.ops(), search: store.counters_snapshot() }
    }

    fn after_query(&mut self, before: Before, store: &SegmentedSpine) {
        self.queries += 1;
        self.query_io += self.gate.ops() - before.io;
        self.search += store.counters_snapshot().since(&before.search);
    }

    /// Account a finished write.
    fn write(&mut self, w: &Write, io_before: u64, store: &SegmentedSpine) -> Result<(), String> {
        let [start, added, retire, retired, end] = w.t;
        self.write_io += self.gate.ops() - io_before;
        self.writes += 1;
        self.doc_bytes += w.doc_len as u64;
        let root = self.tracer.begin("client.write", w.op, start);
        self.tracer.child("segments.append", start, added);
        self.tracer.child("segments.retire", retire, retired);
        if w.merged {
            self.tracer.child("segments.merge", retired, end);
            self.merges.push(end - retired);
        }
        self.tracer.end(root, end);
        if w.sealed {
            self.seals.push(added - start);
        } else {
            self.appends.push(added - start);
        }
        self.retires.push(retired - retire);
        for ev in store.recent_journal(16).map_err(|e| e.to_string())? {
            if ev.epoch <= self.last_epoch {
                continue;
            }
            self.last_epoch = ev.epoch;
            if ev.kind == JournalKind::Merge {
                self.journal_merges += 1;
                for (sum, ns) in self.merge_phase_ns.iter_mut().zip(ev.phase_nanos) {
                    *sum += ns;
                }
            }
        }
        for (id, pages) in store.segment_pages() {
            if self.seen_segments.insert(id) {
                self.segment_bytes += pages * PAGE_SIZE as u64;
            }
        }
        Ok(())
    }

    fn values(&self, values: &mut Values, spans: &[trace::Span], own: &[u64]) {
        let q = self.queries.max(1) as f64;
        let (own_ns, wait_ns) = trace::root_self_and_wait(spans, own, "engine.request");
        values.insert("engine.self_us", own_ns / 1e3);
        values.insert("engine.wait_us", wait_ns / 1e3);
        values.insert("search.nodes_checked_per_query", self.search.nodes_checked as f64 / q);
        values.insert("search.extribs_scanned_per_query", self.search.extribs_scanned as f64 / q);
        values.insert(
            "segments.query_ms",
            trace::mean_duration(spans, "segments.query", 1e6, self.queries as usize),
        );
        values.insert("segments.components_per_query", self.components as f64 / q);
        values.insert("segments.append_ms", self.appends.mean(1e6));
        values.insert("segments.seal_ms", self.seals.mean(1e6));
        values.insert("segments.retire_ms", self.retires.mean(1e6));
        values.insert("segments.merge_ms", self.merges.mean(1e6));
        let merges = self.journal_merges.max(1) as f64;
        for (phase, name) in MergePhase::all().into_iter().zip([
            "segments.merge.collect_ms",
            "segments.merge.build_ms",
            "segments.merge.commit_ms",
            "segments.merge.cleanup_ms",
        ]) {
            values.insert(name, self.merge_phase_ns[phase.index()] as f64 / 1e6 / merges);
        }
        values
            .insert("segments.write_amp", self.segment_bytes as f64 / self.doc_bytes.max(1) as f64);
        values.insert("pagestore.reads_per_query", self.query_io as f64 / q);
        values.insert("pagestore.ops_per_write", self.write_io as f64 / self.writes.max(1) as f64);
    }
}

/// One finished write, for the probe.
struct Write {
    op: u64,
    /// Its start, the add's end, the retire's start and end, and its end
    /// (the merge's end, if it merged). The client checks whether the add
    /// sealed between the add and the retire.
    t: [Instant; 5],
    sealed: bool,
    merged: bool,
    doc_len: usize,
}

/// The client: runs the script against the store, keeping a digest of
/// every query's answer for the check after the run.
struct Churn<'a> {
    seed: u64,
    script: ChurnScript,
    store: &'a Store,
    merge_min: usize,
    answers: Vec<Option<(u64, u64)>>,
    /// Bytes of the store's directory right after the churn's first merge.
    merged_bytes: Option<u64>,
}

impl Churn<'_> {
    /// Run the script's next operation, with the probe's counts and spans
    /// around it when one is given.
    fn step<S: ServeIndex + 'static>(
        &mut self,
        op: u64,
        engine: &QueryEngine<S>,
        mut probe: Option<&mut Probe>,
    ) -> Result<Step, String> {
        let store = &self.store.spine;
        match self.script.next_op() {
            Op::Query(p) => {
                let before = probe.as_deref_mut().map(|pb| pb.before_query(store));
                let t0 = Instant::now();
                let root = probe.as_deref().map(|pb| pb.tracer.begin("engine.request", op, t0));
                let answer = serve(engine, &p, doc_matches);
                let t1 = Instant::now();
                if let (Some(pb), Some(root), Some(before)) = (probe, root, before) {
                    pb.tracer.end(root, t1);
                    pb.after_query(before, store);
                }
                let digest = answer
                    .map(|ms| oracle::digest(ms.iter().map(|m| (m.doc as u64, m.offset as u64))));
                self.answers.push(digest.as_ref().ok().copied());
                Ok(Step::query(t1 - t0, digest.is_err()))
            }
            Op::Write { id, doc, retire } => {
                let io_before = probe.as_ref().map_or(0, |pb| pb.gate.ops());
                let seals = store.stats().seals;
                let t0 = Instant::now();
                let added = store.add_document(&doc);
                let t1 = Instant::now();
                let sealed = store.stats().seals > seals;
                let t2 = Instant::now();
                let retired = store.retire_document(retire);
                let t3 = Instant::now();
                let merged = if sealed { merge_if_due(store, self.merge_min) } else { Ok(false) };
                let t4 = Instant::now();
                let failed = |e: strindex::Error| {
                    format!("write at operation {op} failed (seed {}): {e}", self.seed)
                };
                let (added, retired, merged) =
                    (added.map_err(failed)?, retired.map_err(failed)?, merged.map_err(failed)?);
                if added != id || !retired {
                    return Err(format!(
                        "wrong answer at operation {op} (seed {}): added as {added} (expected {id}), retire of {retire} {}",
                        self.seed,
                        if retired { "done" } else { "refused" }
                    ));
                }
                if merged && self.merged_bytes.is_none() {
                    self.merged_bytes = Some(self.store.bytes()?);
                }
                if let Some(pb) = probe {
                    let w =
                        Write { op, t: [t0, t1, t2, t3, t4], sealed, merged, doc_len: doc.len() };
                    pb.write(&w, io_before, store)?;
                }
                Ok(Step::write(t4 - t0))
            }
        }
    }
}

/// Replay the first `ops` operations of seed `seed`'s script on its own
/// model and check each query's answer digest (`None`: the query failed)
/// against a naive scan of the documents live at that operation.
fn verify(
    seed: u64,
    sizes: &Sizes,
    ops: u64,
    answers: &[Option<(u64, u64)>],
) -> Result<(), String> {
    let mut model = ChurnScript::new(seed, sizes.log_docs, sizes.log_doc_len);
    let mut answers = answers.iter();
    for op in 0..ops {
        if let Op::Query(p) = model.next_op() {
            let got = answers.next().ok_or("fewer answers than queries")?;
            let Some(got) = got else { continue };
            let want = oracle::digest(oracle::doc_matches(model.live(), &p));
            if *got != want {
                return Err(format!(
                    "wrong answer at operation {op} (seed {seed}): {} matches, the oracle finds {}",
                    got.0, want.0
                ));
            }
        }
    }
    Ok(())
}

pub fn churn(seed: u64, run: Duration, traced: bool, sizes: &Sizes) -> Result<Outcome, String> {
    let script = ChurnScript::new(seed, sizes.log_docs, sizes.log_doc_len);
    let initial: Vec<Vec<Code>> = script.live().iter().map(|(_, d)| d.clone()).collect();
    let gate = IoGate::unarmed();
    let cfg = SegmentConfig { gate: traced.then(|| gate.clone()), ..SegmentConfig::default() };
    let setups = if traced { 1 } else { sizes.setups };
    let (store, setup_s) = median_setup(setups, || Store::ingest(&initial, &cfg))?;
    let mut values = Values::new();
    let mut lp = ClosedLoop::new(sizes.log_block, sizes.group, true);
    let mut c = Churn {
        seed,
        script,
        store: &store,
        merge_min: cfg.merge_min_segments,
        answers: Vec::new(),
        merged_bytes: None,
    };
    let plain = engine(store.spine.clone());
    lp.run(Budget::Ops(sizes.warmup_log_ops), |op| c.step(op, &plain, None))?;
    if !traced {
        let phase = lp.run(Budget::For(run), |op| c.step(op, &plain, None))?;
        phase.insert_metrics(&mut values, sizes)?;
        let merged_bytes = c.merged_bytes.ok_or("the churn never merged")?;
        let live_symbols = (sizes.log_docs * sizes.log_doc_len) as f64;
        values.insert("setup_s", setup_s);
        values.insert("bytes_per_symbol", merged_bytes as f64 / live_symbols);
    } else {
        let tracer = Arc::new(Tracer::new());
        let mut probe = Probe::new(tracer.clone(), gate, &store.spine);
        let traced_phase = {
            let wrapper = TracedStore { store: store.spine.clone(), tracer: tracer.clone() };
            let engine = engine(Arc::new(wrapper));
            lp.run(Budget::Ops(sizes.traced_log_ops), |op| c.step(op, &engine, Some(&mut probe)))?
        };
        let spans = tracer.spans();
        let own = report::layer_summary(Workload::LogsChurn, seed, &spans, &mut values)?;
        probe.values(&mut values, &spans, &own);
        let untraced = lp.run(Budget::For(run), |op| c.step(op, &plain, None))?;
        report::print_overhead(&traced_phase.headline(), &untraced.headline());
    }
    drop(plain);
    verify(seed, sizes, lp.next_op, &c.answers)?;
    Ok(Outcome { attempted: lp.attempted, failed: lp.failed, values })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_names_its_operation_and_seed() {
        let sizes = Sizes { log_docs: 4, log_doc_len: 256, ..Sizes::FULL };
        let mut model = ChurnScript::new(3, sizes.log_docs, sizes.log_doc_len);
        let mut answers = Vec::new();
        for _ in 0..30 {
            if let Op::Query(p) = model.next_op() {
                answers.push(Some(oracle::digest(oracle::doc_matches(model.live(), &p))));
            }
        }
        assert_eq!(verify(3, &sizes, 30, &answers), Ok(()));
        answers[20] = None;
        assert_eq!(verify(3, &sizes, 30, &answers), Ok(()));
        answers[21].as_mut().unwrap().0 += 1;
        let err = verify(3, &sizes, 30, &answers).unwrap_err();
        // Query 21 is operation 23: operations 9 and 19 are writes.
        assert!(err.contains("operation 23 (seed 3)"), "{err}");
    }
}
