//! Fault-tolerant serving, end to end.
//!
//! The engine's robustness contract, exercised deterministically:
//!
//! * **bounded admission** — a full queue sheds (`RejectNewest`) without
//!   blocking, and the metrics account for every request:
//!   `completed + shed + timed_out + failed == submitted`;
//! * **worker panic isolation** — a panicking index fails only its batch,
//!   `drain` still returns (the historical hang), the worker respawns, and
//!   the engine keeps serving;
//! * **storage-fault degradation** — an engine over a [`DiskSpine`] whose
//!   device hard-fails turns the affected queries into
//!   [`QueryOutcome::Failed`], while a retry layer over a *transiently*
//!   flaky device hides the faults entirely (answers match the in-memory
//!   oracle); a fault fails only the pattern whose traversal hit it.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pagestore::{FaultyDevice, FlakyDevice, Lru, MemDevice, RetryDevice, RetryPolicy};
use spine::engine::{EngineConfig, QueryEngine, QueryOutcome, ServeIndex, ShedPolicy, SubmitError};
use spine::{DiskSpine, FallibleSpineOps, NodeId, PrefixView, SealedSpine, Spine};
use strindex::{Alphabet, Code, Counters, Error, IoOp, Result, StringIndex};

fn paper_spine() -> (Alphabet, Spine) {
    let a = Alphabet::dna();
    let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
    (a, s)
}

// ---------------------------------------------------------------------------
// A gate that stalls the index's first accessor until released, so tests can
// hold a worker mid-batch and fill the admission queue deterministically.
// ---------------------------------------------------------------------------

struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    entered: Mutex<bool>,
    entered_cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            opened: Condvar::new(),
            entered: Mutex::new(false),
            entered_cv: Condvar::new(),
        }
    }

    /// Called by the index under test: announce a worker reached the gate,
    /// then block until the test opens it.
    fn pass(&self) {
        {
            let mut e = self.entered.lock().unwrap();
            *e = true;
            self.entered_cv.notify_all();
        }
        let mut o = self.open.lock().unwrap();
        while !*o {
            o = self.opened.wait(o).unwrap();
        }
    }

    /// Called by the test: wait until some worker is blocked at the gate.
    fn await_entry(&self) {
        let mut e = self.entered.lock().unwrap();
        while !*e {
            e = self.entered_cv.wait(e).unwrap();
        }
    }

    fn release(&self) {
        let mut o = self.open.lock().unwrap();
        *o = true;
        self.opened.notify_all();
    }
}

struct GatedSpine {
    inner: Spine,
    gate: Arc<Gate>,
}

impl FallibleSpineOps for GatedSpine {
    fn text_len(&self) -> usize {
        FallibleSpineOps::text_len(&self.inner)
    }

    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        self.gate.pass();
        self.inner.try_vertebra_out(node)
    }

    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.inner.try_link_of(node)
    }

    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_rib_of(node, c)
    }

    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_extrib_of(node, prt)
    }

    fn ops_counters(&self) -> &Counters {
        FallibleSpineOps::ops_counters(&self.inner)
    }
}

/// Overload with `RejectNewest`: once one request occupies the single
/// worker and `capacity` more fill the queue, every further submission is
/// shed *immediately* (no blocking), and the final metrics account for
/// every request exactly once.
#[test]
fn reject_newest_sheds_deterministically_and_accounts() {
    let (a, s) = paper_spine();
    let gate = Arc::new(Gate::new());
    let index = Arc::new(GatedSpine { inner: s, gate: Arc::clone(&gate) });
    let capacity = 3usize;
    let engine = QueryEngine::new(
        Arc::clone(&index),
        EngineConfig {
            workers: 1,
            batch_max: 1,
            queue_capacity: capacity,
            shed: ShedPolicy::RejectNewest,
        },
    );

    let pat = a.encode(b"CA").unwrap();
    // First request: the lone worker takes it and blocks at the gate.
    engine.submit(pat.clone()).unwrap();
    gate.await_entry();
    // Fill the queue to capacity — all admitted.
    for _ in 0..capacity {
        engine.submit(pat.clone()).unwrap();
    }
    // Everything beyond capacity is shed, and shedding never blocks: these
    // calls return even though the only worker is stalled at the gate.
    let overload = 9usize;
    for _ in 0..overload {
        assert_eq!(engine.submit(pat.clone()), Err(SubmitError::Overloaded));
    }

    gate.release();
    let results = engine.drain();
    assert_eq!(results.len(), 1 + capacity, "shed requests produce no results");
    for r in &results {
        assert_eq!(r.expect_ends(), [5, 7, 10]);
    }

    let m = engine.metrics();
    assert_eq!(m.submitted, (1 + capacity + overload) as u64);
    assert_eq!(m.completed, (1 + capacity) as u64);
    assert_eq!(m.shed, overload as u64);
    assert_eq!(m.timed_out, 0);
    assert_eq!(m.failed, 0);
    assert_eq!(m.accounted(), m.submitted, "every request accounted exactly once");
}

/// `Block` is loss-free: a submitter that finds the queue full waits for a
/// worker instead of shedding, so every request completes.
#[test]
fn block_policy_is_loss_free_under_overload() {
    let (a, s) = paper_spine();
    let engine = QueryEngine::new(
        Arc::new(s),
        EngineConfig { workers: 2, batch_max: 2, queue_capacity: 2, shed: ShedPolicy::Block },
    );
    let pat = a.encode(b"AC").unwrap();
    for _ in 0..64 {
        engine.submit(pat.clone()).unwrap(); // may block, never errors
    }
    let results = engine.drain();
    assert_eq!(results.len(), 64);
    let m = engine.metrics();
    assert_eq!(m.completed, 64);
    assert_eq!(m.shed, 0);
    assert_eq!(m.accounted(), m.submitted);
}

// ---------------------------------------------------------------------------
// Worker panic isolation.
// ---------------------------------------------------------------------------

/// Panics on the first structural access after arming, then behaves — so
/// exactly one batch is poisoned.
struct PanicOnce {
    inner: Spine,
    armed: AtomicBool,
}

impl FallibleSpineOps for PanicOnce {
    fn text_len(&self) -> usize {
        FallibleSpineOps::text_len(&self.inner)
    }

    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        if self.armed.swap(false, Relaxed) {
            panic!("injected index panic");
        }
        self.inner.try_vertebra_out(node)
    }

    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.inner.try_link_of(node)
    }

    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_rib_of(node, c)
    }

    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_extrib_of(node, prt)
    }

    fn ops_counters(&self) -> &Counters {
        FallibleSpineOps::ops_counters(&self.inner)
    }
}

/// Regression: a worker dying mid-batch used to strand the batch's
/// requests in `in_flight`, hanging `drain` forever. Now the poisoned
/// batch's requests come back as `Failed`, the worker respawns, and the
/// engine keeps answering.
#[test]
fn worker_panic_fails_batch_without_hanging_drain() {
    let (a, s) = paper_spine();
    let index = Arc::new(PanicOnce { inner: s, armed: AtomicBool::new(true) });
    let engine = QueryEngine::new(
        Arc::clone(&index),
        EngineConfig { workers: 1, batch_max: 4, ..Default::default() },
    );

    let pats = [&b"CA"[..], b"AC", b"A"];
    for p in &pats {
        engine.submit(a.encode(p).unwrap()).unwrap();
    }
    let results = engine.drain(); // regression: must return, not hang

    let failed = results
        .iter()
        .filter(|r| matches!(&r.outcome, QueryOutcome::Failed(m) if m.contains("worker panicked")))
        .count();
    assert!(failed >= 1, "the poisoned batch must surface as Failed outcomes");
    assert_eq!(results.len(), pats.len(), "every submitted request gets an outcome");

    // The worker respawned and the engine still serves correct answers.
    engine.submit(a.encode(b"CA").unwrap()).unwrap();
    let after = engine.drain();
    assert_eq!(after[0].expect_ends(), [5, 7, 10]);

    let m = engine.metrics();
    assert_eq!(m.worker_respawns, 1);
    assert_eq!(m.failed, failed as u64);
    assert_eq!(m.accounted(), m.submitted);
}

// ---------------------------------------------------------------------------
// A storage fault fails only the pattern that hit it.
// ---------------------------------------------------------------------------

/// Keeps no link tree, so enumeration runs the §4 backbone scan, and fails
/// the read of one node's link.
struct BadLink {
    inner: Spine,
    bad: NodeId,
}

impl FallibleSpineOps for BadLink {
    fn text_len(&self) -> usize {
        FallibleSpineOps::text_len(&self.inner)
    }

    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        self.inner.try_vertebra_out(node)
    }

    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        if node == self.bad {
            let e = std::io::Error::other(format!("injected fault reading link {node}"));
            return Err(Error::io(e, IoOp::Read, None));
        }
        self.inner.try_link_of(node)
    }

    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_rib_of(node, c)
    }

    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.inner.try_extrib_of(node, prt)
    }

    fn ops_counters(&self) -> &Counters {
        FallibleSpineOps::ops_counters(&self.inner)
    }
}

/// Regression: the blanket `ServeIndex` impl scanned a batch's patterns
/// together, so one bad link read failed every located pattern in the
/// batch. `CA` first ends at node 5 and its scan reads link 7; `GGTT` ends
/// only at node 14, the last node, so its own scan reads no link and it
/// must answer in any batch.
#[test]
fn storage_fault_fails_only_its_own_pattern() {
    let a = Alphabet::dna();
    let s = Spine::build_from_bytes(a.clone(), b"AACCACAACAGGTT").unwrap();
    let index = Arc::new(BadLink { inner: s, bad: 7 });
    assert!(index.link_tree().is_none());
    let ca = a.encode(b"CA").unwrap();
    let ggtt = a.encode(b"GGTT").unwrap();

    let alone = index.answer_patterns(&[&ggtt]);
    assert_eq!(alone, vec![QueryOutcome::Done(vec![14])]);
    let batch = index.answer_patterns(&[&ca, &ggtt]);
    assert!(
        matches!(&batch[0], QueryOutcome::Failed(m) if m.contains("link 7")),
        "CA's scan reads link 7: {batch:?}"
    );
    assert_eq!(batch[1], QueryOutcome::Done(vec![14]), "GGTT never reads link 7");

    // Through the engine, however the worker batches them.
    let engine = QueryEngine::new(index, EngineConfig { workers: 1, ..Default::default() });
    for _ in 0..4 {
        engine.submit_batch([ca.clone(), ggtt.clone()]);
    }
    let results = engine.drain();
    for r in &results {
        if r.pattern == ggtt {
            assert_eq!(r.expect_ends(), [14]);
        } else {
            assert!(matches!(r.outcome, QueryOutcome::Failed(_)), "{r:?}");
        }
    }
    let m = engine.metrics();
    assert_eq!((m.completed, m.failed), (4, 4));
    assert_eq!(m.accounted(), m.submitted);
}

// ---------------------------------------------------------------------------
// Deadlines mixed with live traffic.
// ---------------------------------------------------------------------------

#[test]
fn expired_deadlines_time_out_while_live_requests_complete() {
    let (a, s) = paper_spine();
    let engine = QueryEngine::new(
        Arc::new(s),
        EngineConfig { workers: 1, batch_max: 8, ..Default::default() },
    );
    let past = Instant::now() - Duration::from_secs(1);
    let future = Instant::now() + Duration::from_secs(120);
    let dead = engine.submit_with_deadline(a.encode(b"CA").unwrap(), past).unwrap();
    let live = engine.submit_with_deadline(a.encode(b"CA").unwrap(), future).unwrap();
    let plain = engine.submit(a.encode(b"AC").unwrap()).unwrap();
    let results = engine.drain();
    let by_id = |id| results.iter().find(|r| r.id == id).unwrap();
    assert_eq!(by_id(dead).outcome, QueryOutcome::TimedOut);
    assert_eq!(by_id(live).expect_ends(), [5, 7, 10]);
    assert_eq!(by_id(plain).expect_ends(), [3, 6, 9]);
    let m = engine.metrics();
    assert_eq!(m.timed_out, 1);
    assert_eq!(m.completed, 2);
    assert_eq!(m.accounted(), m.submitted);
}

// ---------------------------------------------------------------------------
// Storage faults through the whole stack: device → DiskSpine → engine.
// ---------------------------------------------------------------------------

fn disk_workload() -> (Alphabet, Vec<Code>, Vec<Vec<Code>>) {
    let a = Alphabet::dna();
    let text = a.encode(&b"AACCACAACAGGTTACGACGACCA".repeat(6)).unwrap();
    let patterns: Vec<Vec<Code>> = [&b"CA"[..], b"GGTT", b"TACGACG", b"ACCAA", b"AACC"]
        .iter()
        .map(|p| a.encode(p).unwrap())
        .collect();
    (a, text, patterns)
}

/// A hard device fault mid-service degrades the affected queries to
/// `Failed` — the engine neither panics nor hangs, and the accounting
/// invariant still holds.
#[test]
fn engine_over_disk_spine_degrades_on_hard_fault() {
    let (a, text, patterns) = disk_workload();
    // Budget exactly the clean build: the first query that misses the
    // 1-frame pool then hits the dead device.
    let clean =
        DiskSpine::build(a.clone(), &text, Box::new(MemDevice::new()), 1, Box::<Lru>::default())
            .unwrap();
    let (r, w) = clean.io_counts();
    let build_budget = r + w;

    let faulty = FaultyDevice::new(MemDevice::new(), build_budget);
    let disk = DiskSpine::build(a, &text, Box::new(faulty), 1, Box::<Lru>::default()).unwrap();
    let engine = QueryEngine::new(
        Arc::new(disk),
        EngineConfig { workers: 2, batch_max: 4, ..Default::default() },
    );
    for p in &patterns {
        engine.submit(p.clone()).unwrap();
    }
    let results = engine.drain();
    assert_eq!(results.len(), patterns.len());
    let failed = results
        .iter()
        .filter(|r| matches!(&r.outcome, QueryOutcome::Failed(m) if m.contains("injected")))
        .count();
    assert!(failed >= 1, "device is dead past construction; queries must fail cleanly");
    let m = engine.metrics();
    assert_eq!(m.worker_respawns, 0, "storage faults are errors, not panics");
    assert_eq!(m.accounted(), m.submitted);
}

/// With the retry layer over a transiently flaky device, the engine's
/// answers are indistinguishable from the in-memory oracle.
#[test]
fn engine_over_retry_wrapped_flaky_disk_matches_oracle() {
    let (a, text, patterns) = disk_workload();
    let oracle = Spine::build(a.clone(), &text).unwrap();

    let flaky = FlakyDevice::with_probability(MemDevice::new(), 0.05, 0xDECAF);
    let retry = RetryDevice::new(flaky, RetryPolicy::immediate(8));
    let disk = DiskSpine::build(a, &text, Box::new(retry), 2, Box::<Lru>::default()).unwrap();
    let engine = QueryEngine::new(
        Arc::new(disk),
        EngineConfig { workers: 3, batch_max: 4, ..Default::default() },
    );
    for p in &patterns {
        engine.submit(p.clone()).unwrap();
    }
    let results = engine.drain();
    for (r, p) in results.iter().zip(&patterns) {
        assert_eq!(
            r.expect_starts(),
            oracle.find_all(p),
            "retry layer must make transient faults invisible (pattern {p:?})"
        );
    }
    let m = engine.metrics();
    assert_eq!(m.completed, patterns.len() as u64);
    assert_eq!(m.failed, 0);
    assert_eq!(m.accounted(), m.submitted);
}

// ---------------------------------------------------------------------------
// The plain-valued surfaces that can run over a disk index have a fallible
// path too: prefix views and maximal matches report a dead device as `Err`.
// ---------------------------------------------------------------------------

/// Both disk layouts over `text` on a device that dies right after the
/// build (or seal): each query's first page fetch misses the 1-frame pool
/// and hits the dead device.
fn dead_after_build(a: &Alphabet, text: &[Code]) -> Vec<(&'static str, Box<dyn FallibleSpineOps>)> {
    let clean =
        DiskSpine::build(a.clone(), text, Box::new(MemDevice::new()), 1, Box::<Lru>::default())
            .unwrap();
    let (r, w) = clean.io_counts();
    let faulty = FaultyDevice::new(MemDevice::new(), r + w);
    let mutable = DiskSpine::build(a.clone(), text, Box::new(faulty), 1, Box::<Lru>::default());

    let spine = Spine::build(a.clone(), text).unwrap();
    let clean = SealedSpine::seal(&spine, Box::new(MemDevice::new()), 1, Box::<Lru>::default());
    let (r, w) = clean.as_ref().unwrap().io_counts();
    let faulty = FaultyDevice::new(MemDevice::new(), r + w + clean.unwrap().io_syncs());
    let sealed = SealedSpine::seal(&spine, Box::new(faulty), 1, Box::<Lru>::default());
    vec![("mutable", Box::new(mutable.unwrap())), ("sealed", Box::new(sealed.unwrap()))]
}

/// Run `f`, failing the test with `what` if it panics.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| panic!("{what}: a storage fault must be an Err, not a panic"))
}

/// A prefix view of a disk index answers through the fallible search: on
/// a dead device every query is an `Err` (never a panic), and on a healthy
/// one it matches the naive oracle over the prefix.
#[test]
fn disk_prefix_views_report_device_faults() {
    use spine::occurrences::try_find_all_ends;
    let (a, text, patterns) = disk_workload();
    for (layout, disk) in dead_after_build(&a, &text) {
        for k in [text.len() / 3, text.len()] {
            for p in &patterns {
                let got = no_panic(layout, || try_find_all_ends(&PrefixView::new(&*disk, k), p));
                assert!(got.is_err(), "{layout}: prefix {k}, pattern {p:?} must fail");
            }
        }
    }
    let healthy =
        DiskSpine::build(a.clone(), &text, Box::new(MemDevice::new()), 1, Box::<Lru>::default())
            .unwrap();
    for k in [0, 1, text.len() / 3, text.len()] {
        let oracle = suffix_trie::NaiveIndex::new(a.clone(), &text[..k]);
        for p in &patterns {
            let ends = try_find_all_ends(&healthy.prefix(k), p).unwrap();
            let starts: Vec<usize> = ends.iter().map(|&e| e as usize - p.len()).collect();
            assert_eq!(starts, oracle.find_all(p), "prefix {k}, pattern {p:?}");
        }
    }
}

/// Maximal matches over a disk index return `Result`: a dead device is an
/// `Err` (never a panic), and a healthy one matches the naive oracle.
#[test]
fn disk_maximal_matches_report_device_faults() {
    use spine::matching::maximal_matches;
    use strindex::MatchingIndex;
    let (a, text, _) = disk_workload();
    let query = a.encode(b"TTACGACGACCAACCACAAGGTTACCA").unwrap();
    for (layout, disk) in dead_after_build(&a, &text) {
        for min_len in [1, 4] {
            let got = no_panic(layout, || maximal_matches(&*disk, &query, min_len));
            assert!(got.is_err(), "{layout}: maximal matches ≥ {min_len} must fail");
        }
    }
    let oracle = suffix_trie::NaiveIndex::new(a.clone(), &text);
    let healthy =
        DiskSpine::build(a.clone(), &text, Box::new(MemDevice::new()), 1, Box::<Lru>::default())
            .unwrap();
    for min_len in [1, 4, 9] {
        let want = oracle.maximal_matches(&query, min_len);
        assert_eq!(maximal_matches(&healthy, &query, min_len).unwrap(), want, "≥ {min_len}");
        assert_eq!(healthy.maximal_matches(&query, min_len), want, "MatchingIndex ≥ {min_len}");
    }
}
