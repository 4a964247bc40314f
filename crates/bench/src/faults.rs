//! Exhaustive crashpoint sweep over the disk-resident SPINE (`exp faults`).
//!
//! The drill: record how many device operations a clean build+query+flush
//! trace performs, then re-run the *same* trace once per operation index
//! `k`, with a [`FaultyDevice`] that hard-fails every operation from `k`
//! on. A fault-tolerant stack must turn every such crashpoint into a clean
//! `Err` — no panic, no hang, no silently wrong answer. A second pass
//! checks the *degraded-mode* promise: with transient faults (a burst
//! outage or a seeded per-op failure probability) behind a
//! [`RetryDevice`], the run must succeed and match the in-memory
//! [`Spine`] oracle exactly.
//!
//! Everything here is deterministic: the text comes from a seeded preset,
//! the fault schedules are exact windows or seeded draws, and the retry
//! jitter generator is seeded per device.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use pagestore::{FaultyDevice, FlakyDevice, Lru, MemDevice, PageDevice, RetryDevice, RetryPolicy};
use spine::journal::decode_all;
use spine::{
    DiskSpine, IoGate, JournalEvent, JournalKind, SegmentConfig, SegmentedSpine, Spine,
    JOURNAL_FILE,
};
use strindex::{Alphabet, Code, StringIndex};

use crate::rng;
use crate::Dataset;

/// Seed for the flaky-device failure schedule, derived once from the
/// harness-wide scheme so `exp faults` runs are reproducible from the
/// documented default run seed.
fn flaky_seed() -> u64 {
    rng::derive(rng::DEFAULT_RUN_SEED, "faults.flaky-device", 0)
}

/// Buffer-pool frames for every sweep run: small enough that queries cause
/// real device traffic (evictions and re-reads), so crashpoints land in the
/// query phase too, not only in construction.
const POOL_PAGES: usize = 2;

/// Which phase of the trace an injected fault surfaced in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// During `DiskSpine::build` (page writes and link-walk reads).
    Build,
    /// During `try_find_all` (valid-path walk or backbone scan).
    Query,
    /// During the final `flush` of dirty pages.
    Flush,
}

/// Outcome of the full sweep; `exp faults` prints it and asserts
/// [`Self::holds`].
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Device operations (reads + writes) in the clean trace — the size of
    /// the crashpoint index space.
    pub trace_ops: u64,
    /// Crashpoints actually injected (every index when `stride` is 1).
    pub tested: u64,
    /// Faults that surfaced during construction.
    pub build_faults: u64,
    /// Faults that surfaced during the query phase.
    pub query_faults: u64,
    /// Faults that surfaced during the final flush.
    pub flush_faults: u64,
    /// Crashpoints that panicked instead of returning `Err`. Must be 0.
    pub panics: u64,
    /// Crashpoints below the trace length that nevertheless reported
    /// success — a swallowed fault. Must be 0.
    pub swallowed: u64,
    /// Transient faults the retry layer absorbed across the degraded runs.
    pub retries_absorbed: u64,
    /// Burst-outage run matched the in-memory oracle exactly.
    pub burst_oracle_match: bool,
    /// Probabilistic-fault run matched the in-memory oracle exactly.
    pub probability_oracle_match: bool,
    /// Device operations in one clean seal to layout v2 — the size of the
    /// seal crashpoint index space.
    pub seal_ops: u64,
    /// Seal crashpoints that degraded to a clean `Err`.
    pub seal_faults: u64,
    /// After every mid-seal crash, the *source* index still answered a
    /// probe query correctly (a failed rebuild must not damage the
    /// committed version).
    pub sealed_source_intact: bool,
    /// A clean seal retried after the crashes matches the in-memory oracle
    /// on every pattern.
    pub sealed_oracle_match: bool,
    /// I/O operations (page ops, manifest and journal file ops, syncs) in
    /// one clean segment-store lifecycle — the pass-4 crashpoint space.
    /// Recovery ops are part of it: the sweep crashes recovery too.
    pub segment_ops: u64,
    /// Segment-store crashpoints that degraded to a clean `Err`.
    pub segment_faults: u64,
    /// Post-crash recoveries that landed on a committed manifest epoch
    /// with oracle-exact answers.
    pub segment_recoveries: u64,
    /// Post-crash recoveries that landed anywhere else — a torn store.
    /// Must be 0.
    pub segment_torn: u64,
    /// Recoveries that found orphan files (evidence of the crash, left for
    /// inspection) — informational.
    pub segment_orphaned: u64,
    /// Post-crash journals that failed the lifecycle contract: a torn
    /// record (strict decode error), an event the script never committed,
    /// an epoch ahead of the recovered manifest, or recovery failing to
    /// journal itself. Must be 0.
    pub segment_journal_divergences: u64,
}

impl SweepReport {
    /// The sweep's acceptance predicate: every crashpoint degraded to a
    /// clean `Err`, every retry-wrapped run matched the oracle, and every
    /// mid-seal crash left the source index committed and rebuildable.
    pub fn holds(&self) -> bool {
        self.panics == 0
            && self.swallowed == 0
            && self.burst_oracle_match
            && self.probability_oracle_match
            && self.tested > 0
            && self.seal_faults > 0
            && self.sealed_source_intact
            && self.sealed_oracle_match
            && self.segment_ops > 0
            && self.segment_faults > 0
            && self.segment_torn == 0
            && self.segment_journal_divergences == 0
    }
}

/// One build+query+flush trace over `device`. On success returns the
/// per-pattern answers and the number of device operations consumed; on
/// failure reports which phase the error surfaced in.
#[allow(clippy::type_complexity)]
fn run_trace(
    alphabet: &Alphabet,
    text: &[Code],
    patterns: &[Vec<Code>],
    device: Box<dyn PageDevice>,
) -> Result<(Vec<Vec<usize>>, u64), (Phase, strindex::Error)> {
    let spine = DiskSpine::build(alphabet.clone(), text, device, POOL_PAGES, Box::<Lru>::default())
        .map_err(|e| (Phase::Build, e))?;
    let mut answers = Vec::with_capacity(patterns.len());
    for p in patterns {
        answers.push(spine.try_find_all(p).map_err(|e| (Phase::Query, e))?);
    }
    spine.flush().map_err(|e| (Phase::Flush, e))?;
    let (reads, writes) = spine.io_counts();
    Ok((answers, reads + writes))
}

/// Deterministic workload: a seeded DNA text plus a pattern mix of present
/// substrings, a guaranteed miss, an overlong pattern, and the empty
/// pattern.
fn workload(text_len: usize) -> (Alphabet, Vec<Code>, Vec<Vec<Code>>) {
    // Any positive scale is clamped to ≥ 1 000 symbols; truncate from there.
    let d = Dataset::generate("eco-sim", 1e-9);
    let alphabet = d.alphabet.clone();
    let mut text = d.seq;
    text.truncate(text_len);
    let mut patterns: Vec<Vec<Code>> = (0..6)
        .map(|i| {
            let start = (i * 131) % (text.len().saturating_sub(12).max(1));
            text[start..(start + 4 + i * 2).min(text.len())].to_vec()
        })
        .collect();
    patterns.push(alphabet.encode(b"GGGGGGGGGGGGGGGGGGGG").unwrap()); // likely miss
    patterns.push(text.iter().chain(text.iter()).copied().collect()); // longer than text
    patterns.push(Vec::new()); // empty
    (alphabet, text, patterns)
}

/// Run the full sweep. `quick` strides the crashpoint space (CI-sized);
/// the full sweep injects at *every* operation index.
pub fn crashpoint_sweep(quick: bool) -> SweepReport {
    let text_len = if quick { 200 } else { 600 };
    let (alphabet, text, patterns) = workload(text_len);

    // In-memory oracle: the reference Spine answers every pattern.
    let oracle_index = Spine::build(alphabet.clone(), &text).unwrap();
    // try_find_all and find_all agree on the empty pattern too (it occurs at
    // every offset 0..=n), so the oracle needs no special-casing.
    let oracle: Vec<Vec<usize>> = patterns.iter().map(|p| oracle_index.find_all(p)).collect();

    // Clean run: establishes the trace length and double-checks answers.
    let (clean_answers, trace_ops) =
        run_trace(&alphabet, &text, &patterns, Box::new(MemDevice::new()))
            .expect("clean trace must not fail");
    assert_eq!(clean_answers, oracle, "clean disk trace diverges from in-memory oracle");

    let mut report = SweepReport { trace_ops, ..Default::default() };

    // ---- pass 1: hard fault at every (strided) crashpoint ------------------
    let stride = if quick { (trace_ops / 48).max(1) } else { 1 };
    // Panics are the bug being hunted; silence the default hook so a
    // regression doesn't spray hundreds of backtraces mid-table.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut k = 0;
    while k < trace_ops {
        let device = Box::new(FaultyDevice::new(MemDevice::new(), k));
        match catch_unwind(AssertUnwindSafe(|| run_trace(&alphabet, &text, &patterns, device))) {
            Ok(Ok(_)) => report.swallowed += 1,
            Ok(Err((phase, e))) => {
                debug_assert!(!e.is_transient(), "hard faults must classify as permanent: {e}");
                match phase {
                    Phase::Build => report.build_faults += 1,
                    Phase::Query => report.query_faults += 1,
                    Phase::Flush => report.flush_faults += 1,
                }
            }
            Err(_) => report.panics += 1,
        }
        report.tested += 1;
        k += stride;
    }
    std::panic::set_hook(prev_hook);

    // ---- pass 2: transient faults behind the retry layer -------------------
    // A burst outage mid-trace: every attempt in the window fails
    // transiently; 8 immediate retries must ride out the 3-op burst.
    let burst = FlakyDevice::with_burst(MemDevice::new(), trace_ops / 2, 3);
    let retry = RetryDevice::new(burst, RetryPolicy::immediate(8));
    match run_trace(&alphabet, &text, &patterns, Box::new(retry)) {
        Ok((answers, _)) => report.burst_oracle_match = answers == oracle,
        Err(_) => report.burst_oracle_match = false,
    }

    // Seeded per-op failure probability: each op fails 5% of the time, so
    // a budget of 8 retries makes overall failure vanishingly unlikely —
    // and the seed makes this run exactly reproducible.
    let flaky = FlakyDevice::with_probability(MemDevice::new(), 0.05, flaky_seed());
    let retry = RetryDevice::new(flaky, RetryPolicy::immediate(8));
    match run_trace(&alphabet, &text, &patterns, Box::new(retry)) {
        Ok((answers, _)) => report.probability_oracle_match = answers == oracle,
        Err(_) => report.probability_oracle_match = false,
    }

    // ---- pass 3: crashpoints while sealing to layout v2 --------------------
    // Build the in-memory source index once, then crash the *target* device
    // at every (strided) operation index during `DiskSpine::seal`. Each
    // crash must surface as a clean `Err`, must leave the source index
    // answering queries (the committed version survives), and a clean retry
    // must produce a sealed index that matches the oracle.
    let src = Spine::build(alphabet.clone(), &text).expect("clean source build must not fail");
    let sealed =
        DiskSpine::seal(&src, Box::new(MemDevice::new()), POOL_PAGES, Box::<Lru>::default())
            .expect("clean seal must not fail");
    let (seal_reads, seal_writes) = sealed.io_counts();
    // Syncs spend fault budget too (the barrier can fail like any op), so
    // they belong to the crashpoint index space.
    report.seal_ops = seal_reads + seal_writes + sealed.io_syncs();

    let stride = if quick { (report.seal_ops / 24).max(1) } else { 1 };
    report.sealed_source_intact = true;
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut k = 0;
    while k < report.seal_ops {
        let device = Box::new(FaultyDevice::new(MemDevice::new(), k));
        match catch_unwind(AssertUnwindSafe(|| {
            DiskSpine::seal(&src, device, POOL_PAGES, Box::<Lru>::default())
        })) {
            Ok(Ok(_)) => report.swallowed += 1,
            Ok(Err(_)) => report.seal_faults += 1,
            Err(_) => report.panics += 1,
        }
        // The committed (source) version must still answer after the crash;
        // probe with a rotating pattern so the sweep covers the whole mix.
        let probe = (k as usize) % patterns.len();
        if src.find_all(&patterns[probe]) != oracle[probe] {
            report.sealed_source_intact = false;
        }
        k += stride;
    }
    std::panic::set_hook(prev_hook);

    // Recovery: a clean retry of the rebuild answers every pattern exactly.
    match DiskSpine::seal(&src, Box::new(MemDevice::new()), POOL_PAGES, Box::<Lru>::default()) {
        Ok(resealed) => {
            let answers: Result<Vec<_>, _> =
                patterns.iter().map(|p| resealed.try_find_all(p)).collect();
            report.sealed_oracle_match = answers.map(|a| a == oracle).unwrap_or(false);
        }
        Err(_) => report.sealed_oracle_match = false,
    }

    // ---- pass 4: crashpoints across segment commit, merge, and recovery ----
    // A scripted segment-store lifecycle (adds, seals, a durable retire, a
    // merge) is first run clean to count its I/O operations — page ops,
    // manifest commits, journal appends, syncs, deletions, and the recovery
    // reads of the initial open all charge one shared IoGate. Then the
    // same lifecycle runs once per (strided) operation index with the gate
    // armed: everything from that index on fails, like a crash. Recovery
    // must land on a committed manifest epoch (the last acknowledged one,
    // or the in-flight commit when the crash hit between its rename and
    // directory sync) and answer every probe pattern oracle-exactly.
    {
        let base =
            std::env::temp_dir().join(format!("spine-faults-segments-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);

        let clean_dir = base.join("clean");
        init_segment_store(&clean_dir);
        let gate = IoGate::unarmed();
        let clean = run_segment_script(&clean_dir, Some(gate.clone()));
        assert!(clean.result.is_ok(), "clean segment lifecycle must not fail");
        report.segment_ops = gate.ops();
        let (exact, _, journal_ok) = verify_segment_recovery(&clean_dir, &clean);
        assert!(exact, "clean segment lifecycle diverges from the per-document oracle");
        assert!(journal_ok, "clean segment lifecycle must satisfy the journal contract");
        let _ = std::fs::remove_dir_all(&clean_dir);

        let stride = if quick { (report.segment_ops / 32).max(1) } else { 1 };
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut k = 0;
        while k < report.segment_ops {
            let dir = base.join(format!("k{k}"));
            init_segment_store(&dir);
            match catch_unwind(AssertUnwindSafe(|| {
                run_segment_script(&dir, Some(IoGate::armed(k)))
            })) {
                Ok(outcome) => {
                    if outcome.result.is_ok() {
                        report.swallowed += 1;
                    } else {
                        report.segment_faults += 1;
                    }
                    let (exact, orphans, journal_ok) = verify_segment_recovery(&dir, &outcome);
                    if exact {
                        report.segment_recoveries += 1;
                    } else {
                        report.segment_torn += 1;
                    }
                    if orphans {
                        report.segment_orphaned += 1;
                    }
                    if !journal_ok {
                        report.segment_journal_divergences += 1;
                    }
                }
                Err(_) => report.panics += 1,
            }
            let _ = std::fs::remove_dir_all(&dir);
            k += stride;
        }
        std::panic::set_hook(prev_hook);
        let _ = std::fs::remove_dir_all(&base);
    }

    // Count absorbed retries with a dedicated instrumented run (the boxed
    // runs above erase the concrete device type).
    let flaky = FlakyDevice::with_probability(MemDevice::new(), 0.05, flaky_seed());
    let mut retry = RetryDevice::new(flaky, RetryPolicy::immediate(8));
    let mut probe = [0u8; pagestore::PAGE_SIZE];
    for i in 0..64u32 {
        retry.write_page(i % 4, &probe).unwrap();
        retry.read_page(i % 4, &mut probe).unwrap();
    }
    report.retries_absorbed = retry.retries();

    report
}

/// The pass-4 document set, indexed by global document id (the script
/// assigns ids 0.. in this order).
const SEG_DOCS: [&[u8]; 5] = [b"ACGTACGTAC", b"GGGGTTTT", b"ACACACAC", b"TTGGCCAA", b"CAGTCAGT"];

/// Probe patterns for post-recovery verification: hits across several
/// documents, a repeat, a single-doc hit, a two-symbol pattern, and the
/// empty pattern.
const SEG_PROBES: [&[u8]; 5] = [b"ACGT", b"GGGG", b"CAGT", b"AC", b""];

/// Adds never auto-seal (threshold `usize::MAX`), so commits happen only
/// at the script's explicit seal/retire/merge steps — the crashpoint
/// accounting stays readable.
fn seg_config(gate: Option<IoGate>) -> SegmentConfig {
    // hot_pin_pages: 0 — pinning issues extra gated reads at open time,
    // which would shift every crashpoint index in the sweep.
    SegmentConfig {
        memtable_max_symbols: usize::MAX,
        pool_pages: 4,
        merge_min_segments: 2,
        gate,
        hot_pin_pages: 0,
    }
}

/// Create the (ungated) empty store each pass-4 run starts from.
fn init_segment_store(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create segment sweep dir");
    SegmentedSpine::create(Alphabet::dna(), dir, seg_config(None))
        .expect("ungated segment-store create must not fail");
}

/// What a pass-4 run observed: every acknowledged commit's
/// `(epoch, live sealed doc ids)`, plus the commit that was in flight if
/// the run crashed mid-operation.
struct SegScriptOutcome {
    committed: Vec<(u64, Vec<u64>)>,
    pending: Option<(u64, Vec<u64>)>,
    result: Result<(), strindex::Error>,
}

/// The scripted lifecycle: two sealed batches, a durable retire, a
/// volatile add, a merge, a final seal. Aborts at the first error (the
/// injected crash), recording the in-flight commit's target state.
fn run_segment_script(dir: &Path, gate: Option<IoGate>) -> SegScriptOutcome {
    let alphabet = Alphabet::dna();
    let enc = |b: &[u8]| alphabet.encode(b).expect("probe docs are valid DNA");
    let mut out =
        SegScriptOutcome { committed: vec![(0, Vec::new())], pending: None, result: Ok(()) };
    let s = match SegmentedSpine::open(alphabet.clone(), dir, seg_config(gate)) {
        Ok(s) => s,
        Err(e) => {
            out.result = Err(e);
            return out;
        }
    };
    let mut epoch = s.epoch();

    macro_rules! volatile {
        ($call:expr) => {
            if let Err(e) = $call {
                out.result = Err(e);
                return out;
            }
        };
    }
    macro_rules! commit {
        ($live:expr, $call:expr) => {
            out.pending = Some((epoch + 1, $live));
            match $call {
                Ok(_) => {
                    epoch = s.epoch();
                    let (_, live) = out.pending.take().expect("pending set above");
                    out.committed.push((epoch, live));
                }
                Err(e) => {
                    out.result = Err(e);
                    return out;
                }
            }
        };
    }

    volatile!(s.add_document(&enc(SEG_DOCS[0])));
    volatile!(s.add_document(&enc(SEG_DOCS[1])));
    commit!(vec![0, 1], s.force_seal());
    volatile!(s.add_document(&enc(SEG_DOCS[2])));
    volatile!(s.add_document(&enc(SEG_DOCS[3])));
    commit!(vec![0, 1, 2, 3], s.force_seal());
    commit!(vec![0, 2, 3], s.retire_document(1));
    volatile!(s.add_document(&enc(SEG_DOCS[4])));
    commit!(vec![0, 2, 3], s.merge_once());
    commit!(vec![0, 2, 3, 4], s.force_seal());
    out
}

/// Naive per-document oracle: every occurrence of `pattern` in the given
/// live documents, as sorted `(doc, offset)` pairs. The empty pattern
/// occurs at every position, boundaries included.
fn seg_oracle(live: &[u64], pattern: &[u8]) -> Vec<(usize, usize)> {
    let mut hits = Vec::new();
    for &d in live {
        let content = SEG_DOCS[d as usize];
        if pattern.is_empty() {
            hits.extend((0..=content.len()).map(|off| (d as usize, off)));
            continue;
        }
        if pattern.len() > content.len() {
            continue;
        }
        for off in 0..=content.len() - pattern.len() {
            if &content[off..off + pattern.len()] == pattern {
                hits.push((d as usize, off));
            }
        }
    }
    hits
}

/// The commit kinds the pass-4 script journals, in epoch order (epochs
/// 1..=5; recover events interleave with whatever epoch was current).
const SEG_SCRIPT_KINDS: [JournalKind; 5] = [
    JournalKind::Seal,
    JournalKind::Seal,
    JournalKind::Retire,
    JournalKind::Merge,
    JournalKind::Seal,
];

/// The lifecycle-journal contract at a crashpoint, checked against the
/// journal bytes as the crash left them (read *before* recovery, which
/// truncates torn tails and appends its own event) plus the recovered
/// store: no torn records (the gate model is fail-stop — an append either
/// happened or it didn't), the commit events form an exact prefix of the
/// script's schedule missing at most the final commit, no event is ahead
/// of the recovered manifest epoch, and recovery journaled itself.
fn verify_segment_journal(
    pre_crash: Result<Vec<JournalEvent>, strindex::Error>,
    s: &SegmentedSpine,
) -> bool {
    let epoch = s.epoch();
    let Ok(events) = pre_crash else {
        return false; // torn record — impossible under fail-stop injection
    };
    let commits: Vec<&JournalEvent> =
        events.iter().filter(|e| e.kind != JournalKind::Recover).collect();
    let prefix_ok = commits
        .iter()
        .enumerate()
        .all(|(i, e)| e.epoch == i as u64 + 1 && SEG_SCRIPT_KINDS.get(i) == Some(&e.kind));
    let k = commits.len() as u64;
    // An event is journaled right after its commit is durable, and a
    // journal failure aborts the script — so the journal contains every
    // acknowledged commit except possibly the last one, and never leads
    // the manifest.
    prefix_ok
        && events.iter().all(|e| e.epoch <= epoch)
        && (k == epoch || k + 1 == epoch)
        && s.recent_journal(1).is_ok_and(|evs| {
            evs.last().is_some_and(|e| e.kind == JournalKind::Recover && e.epoch == epoch)
        })
}

/// Recover `dir` ungated and check the crash-safety contract: the store
/// opens, lands on an epoch the run committed (or had in flight), reports
/// exactly that epoch's live documents, and answers every probe pattern
/// like the naive oracle. Returns
/// `(contract holds, orphans found, journal contract holds)`.
fn verify_segment_recovery(dir: &Path, run: &SegScriptOutcome) -> (bool, bool, bool) {
    // Snapshot the journal exactly as the crash left it: the recovery
    // below truncates torn tails and appends a recover event.
    let journal_bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap_or_default();
    let pre_crash = decode_all(&journal_bytes);
    let alphabet = Alphabet::dna();
    let s = match SegmentedSpine::open(alphabet.clone(), dir, seg_config(None)) {
        Ok(s) => s,
        Err(_) => return (false, false, false),
    };
    let journal_ok = verify_segment_journal(pre_crash, &s);
    let orphans = s.orphan_count() > 0;
    let epoch = s.epoch();
    let expected_live = run
        .committed
        .iter()
        .chain(run.pending.as_ref())
        .find(|(e, _)| *e == epoch)
        .map(|(_, live)| live.clone());
    let Some(expected_live) = expected_live else {
        return (false, orphans, journal_ok);
    };
    if s.live_doc_ids() != expected_live {
        return (false, orphans, journal_ok);
    }
    for probe in SEG_PROBES {
        let pattern = alphabet.encode(probe).expect("probes are valid DNA");
        let got: Vec<(usize, usize)> = match s.try_find_all(&pattern) {
            Ok(ms) => ms.into_iter().map(|m| (m.doc, m.offset)).collect(),
            Err(_) => return (false, orphans, journal_ok),
        };
        if got != seg_oracle(&expected_live, probe) {
            return (false, orphans, journal_ok);
        }
    }
    (true, orphans, journal_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_holds() {
        let r = crashpoint_sweep(true);
        assert!(r.holds(), "sweep violated fault-tolerance contract: {r:?}");
        assert!(r.trace_ops > 0);
        assert!(r.seal_ops > 0, "the seal pass must issue device operations");
        assert!(r.build_faults > 0, "some crashpoints must land in build");
        assert!(
            r.query_faults + r.flush_faults > 0,
            "some crashpoints must land after build: {r:?}"
        );
        assert!(r.segment_ops > 0, "the segment pass must charge I/O operations");
        assert!(r.segment_faults > 0, "segment crashpoints must surface as clean errors");
        assert_eq!(r.segment_torn, 0, "every recovery must land on a committed epoch: {r:?}");
        assert_eq!(
            r.segment_recoveries,
            r.segment_faults + r.swallowed,
            "every crashed run must recover: {r:?}"
        );
        assert_eq!(
            r.segment_journal_divergences, 0,
            "the journal must contain each event or cleanly lack it: {r:?}"
        );
    }

    #[test]
    fn fault_at_zero_fails_immediately_and_cleanly() {
        let (alphabet, text, patterns) = workload(80);
        let device = Box::new(FaultyDevice::new(MemDevice::new(), 0));
        let err = run_trace(&alphabet, &text, &patterns, device);
        assert!(matches!(err, Err((Phase::Build, _))));
    }
}
