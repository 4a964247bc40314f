//! A crash-safe LSM of SPINEs: mutable memtable, immutable sealed
//! segments, atomic manifest commits.
//!
//! [`Spine`] is append-only and [`SealedSpine`] seals to an
//! immutable on-disk layout — neither supports deletes or survives being
//! half-written. [`SegmentedSpine`] composes them into a mutable, durable
//! collection the way log-structured merge trees do:
//!
//! * **Writes** go to an in-memory *memtable*: one [`GeneralizedSpine`],
//!   whose documents carry consecutive global ids from the memtable's
//!   first. It holds each document once, in its backbone. Memtable
//!   contents are volatile by design — there is no write-ahead log;
//!   durability is bought at *seal* time.
//! * At a size threshold the memtable is **sealed**: its index, as it
//!   stands, is encoded as one immutable, self-describing segment file
//!   ([`SealedSpine::seal`]; no APPEND runs, and the file is the one
//!   [`Spine::build`] over the same concatenation would give), and a new
//!   [`Manifest`] naming the enlarged segment set is committed. Memtable
//!   documents retired before the seal are sealed too, and their
//!   tombstones ride in the same commit.
//!   Each live segment keeps its link tree in RAM as a preorder index
//!   (built at seal, rebuilt at reopen; [`crate::preorder`]), so its
//!   queries enumerate without reading a page.
//! * **Retires** of sealed documents become manifest *tombstones*;
//!   retires of memtable documents just flip the index's volatile flag
//!   (the document they hide is volatile too, so a crash loses both
//!   together — never one without the other).
//! * A **merge** builds one [`Spine`] over the live, untombstoned
//!   documents of every segment, writes it as one fresh segment the same
//!   way, commits, then deletes the inputs.
//!
//! ## The commit protocol
//!
//! Every durable state transition — seal, retire, merge — is one manifest
//! replacement: encode, write `MANIFEST.tmp`, `fsync` it, `rename` over
//! `MANIFEST`, `fsync` the directory. Segment files are written (and
//! synced, header-last — see [`SealedSpine::seal`]) *before* the manifest
//! that references them, so at every instant the bytes `MANIFEST` names
//! are complete and synced. A crash at any point leaves either the old
//! manifest or the new one, never a torn state; files written for a commit
//! that never happened are *orphans* — recovery detects and reports them
//! ([`SegmentedSpine::orphan_count`]) but never reads them, and numbers
//! new segments above every orphan's id so no later seal reuses one.
//!
//! ## Snapshots
//!
//! Queries run against an immutable snapshot: the segment list, tombstone
//! set, and memtable are shared via `Arc` and replaced (never mutated) on
//! seal and merge, and the memtable's document count and retired flags are
//! captured at snapshot time. A query observes the store exactly as of one
//! manifest epoch plus a memtable prefix, even while seals, merges, and
//! retires commit concurrently.
//!
//! ## Fault injection
//!
//! Every I/O operation the store performs — page reads/writes/syncs
//! through its devices ([`FaultyDevice`]s over the gate) *and* manifest
//! and journal file operations — can be charged to one
//! [`IoGate`]. An armed gate fails permanently at a chosen
//! operation index, which is how the `exp faults` harness crash-tests
//! every commit, merge, and recovery I/O op and proves recovery always
//! lands on a committed epoch.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use pagestore::{FaultyDevice, FileDevice, IoGate, Lru, PageDevice};
use parking_lot::{Mutex, RwLock};
use strindex::telemetry::{Histogram, MetricsRegistry};
use strindex::{Alphabet, Code, CountersSnapshot, Error, IoOp, Result, StringIndex};

use crate::build::Spine;
use crate::engine::{QueryOutcome, ServeIndex};
use crate::generalized::{localize, DocMatch, GeneralizedSpine};
use crate::journal::{self, JournalEvent, JournalKind, JOURNAL_FILE};
use crate::manifest::{Manifest, SegmentEntry};
use crate::observe::MergePhase;
use crate::occurrences::try_find_all_ends;
use crate::ops::FallibleSpineOps;
use crate::sealed::SealedSpine;
use crate::trace::QueryTrace;

const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// Wall-clock milliseconds since the Unix epoch, for journal timestamps.
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Charge a file-level operation to the store's gate, if it has one.
fn charge(gate: &Option<IoGate>, op: IoOp) -> Result<()> {
    gate.as_ref().map_or(Ok(()), |g| g.charge(op, None))
}

/// A segment file's page device: the file itself, or with a gate set, a
/// [`FaultyDevice`] charging every page operation to it.
fn segment_device(file: FileDevice, gate: &Option<IoGate>) -> Box<dyn PageDevice> {
    match gate {
        Some(g) => Box::new(FaultyDevice::gated(file, g.clone())),
        None => Box::new(file),
    }
}

/// Tuning knobs for a [`SegmentedSpine`].
#[derive(Clone)]
pub struct SegmentConfig {
    /// Seal the memtable once its concatenation (documents plus
    /// separators) reaches this many symbols.
    pub memtable_max_symbols: usize,
    /// Buffer-pool pages per sealed segment.
    pub pool_pages: usize,
    /// The background merger compacts once the segment count reaches this,
    /// or any tombstone is outstanding.
    pub merge_min_segments: usize,
    /// Crash-injection gate charged on every I/O operation. `None` in
    /// production.
    pub gate: Option<IoGate>,
    /// Buffer-pool frames to pin per sealed segment at open time, covering
    /// the upstream backbone-prefix pages (the paper's Figure 8 skew: every
    /// valid path leaves the root, so locate re-reads them on every query;
    /// enumeration reads no page). 0 disables pinning. Must stay below
    /// `pool_pages` — the pool refuses to pin its last evictable frame
    /// regardless.
    pub hot_pin_pages: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            memtable_max_symbols: 1 << 14,
            pool_pages: 16,
            merge_min_segments: 4,
            gate: None,
            hot_pin_pages: 4,
        }
    }
}

/// Point-in-time observability snapshot (the gauge values, as one value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentsSnapshot {
    /// Last committed manifest epoch.
    pub epoch: u64,
    /// Live sealed segments.
    pub segments: usize,
    /// Outstanding tombstones (sealed documents retired but not merged
    /// away).
    pub tombstones: usize,
    /// Memtable documents, retired ones included.
    pub memtable_docs: usize,
    /// Memtable concatenation size, separators included.
    pub memtable_symbols: usize,
    /// Live documents across memtable and segments.
    pub live_docs: usize,
    /// Files recovery found that no committed manifest references.
    pub orphans: usize,
    /// How much work a merge would retire: surplus segments plus
    /// tombstones.
    pub merge_backlog: usize,
    /// Memtable seals performed by this instance.
    pub seals: u64,
    /// Merges committed by this instance.
    pub merges: u64,
}

/// One immutable sealed segment: a [`SealedSpine`] plus the manifest's
/// document table for it.
struct Segment {
    entry: SegmentEntry,
    /// The table's concatenation starts, sentinel included
    /// ([`SegmentEntry::starts`]).
    starts: Vec<usize>,
    index: SealedSpine,
}

impl Segment {
    /// Serve `index` under `entry`, pinning its backbone-prefix pages.
    fn new(entry: SegmentEntry, index: SealedSpine, cfg: &SegmentConfig) -> Result<Segment> {
        if cfg.hot_pin_pages > 0 {
            index.pin_hot_prefix(cfg.hot_pin_pages)?;
        }
        Ok(Segment { starts: entry.starts(), entry, index })
    }

    /// Map a concatenation offset to `(global doc id, in-document offset)`;
    /// `None` at and past the end of the last document.
    fn localize(&self, offset: usize) -> Option<(u64, usize)> {
        localize(&self.starts, offset).map(|m| (self.entry.doc_ids[m.doc], m.offset))
    }

    /// Reconstruct document `i`'s codes from the index itself (the sealed
    /// layout keeps no separate copy of the text — `text[p]` is the
    /// vertebra leaving backbone node `p`) in one locked pass over the
    /// label pages.
    fn doc_codes(&self, i: usize) -> Result<Vec<Code>> {
        let (start, end) = (self.starts[i], self.starts[i] + self.entry.doc_lens[i] as usize);
        if end > self.index.len() {
            return Err(Error::Parse("segment text shorter than its doc table".into()));
        }
        self.index.labels(start, end)
    }
}

/// The mutable head of the LSM: one [`GeneralizedSpine`] whose local
/// document `d` is global id `first_doc + d` — `add_document` hands ids
/// out consecutively under the commit lock, and every seal or recovery
/// starts a fresh memtable at `next_doc`. Its volatile retire flags are
/// the index's own. Replaced wholesale (fresh `Arc`) at seal, so
/// snapshots taken before a seal keep reading the old, now-frozen
/// memtable.
struct Memtable {
    first_doc: u64,
    index: RwLock<GeneralizedSpine>,
}

impl Memtable {
    fn new(alphabet: Alphabet, first_doc: u64) -> Arc<Self> {
        Arc::new(Memtable { first_doc, index: RwLock::new(GeneralizedSpine::new(alphabet)) })
    }
}

/// Everything guarded by the commit lock. `Arc`ed members are replaced,
/// never mutated, so snapshot holders stay consistent.
struct Inner {
    memtable: Arc<Memtable>,
    segments: Arc<Vec<Arc<Segment>>>,
    tombstones: Arc<BTreeSet<u64>>,
    epoch: u64,
    next_doc: u64,
    next_segment: u64,
    orphans: Vec<PathBuf>,
}

/// Gauge backing store — updated under the commit lock, read lock-free by
/// telemetry closures.
#[derive(Default)]
struct SegStats {
    epoch: AtomicU64,
    segments: AtomicU64,
    tombstones: AtomicU64,
    memtable_docs: AtomicU64,
    memtable_symbols: AtomicU64,
    live_docs: AtomicU64,
    orphans: AtomicU64,
    merge_backlog: AtomicU64,
    seals: AtomicU64,
    merges: AtomicU64,
    merge_failures: AtomicU64,
    hot_pinned: AtomicU64,
    resident_bytes: AtomicU64,
}

/// A consistent read view: one manifest epoch's segment list and
/// tombstones plus a frozen memtable prefix.
struct Snapshot {
    memtable: Arc<Memtable>,
    /// The retired flag of each memtable document visible to this
    /// snapshot, by value: documents added later lie past its end, and
    /// later retirements do not change it.
    mem_retired: Vec<bool>,
    segments: Arc<Vec<Arc<Segment>>>,
    tombstones: Arc<BTreeSet<u64>>,
}

/// The crash-safe mutable document collection. See the module docs for
/// the design; see [`ServeIndex`] for how it plugs into the concurrent
/// [`QueryEngine`](crate::QueryEngine) unchanged.
pub struct SegmentedSpine {
    alphabet: Alphabet,
    dir: PathBuf,
    cfg: SegmentConfig,
    inner: Mutex<Inner>,
    stats: Arc<SegStats>,
    /// `segments.merge_duration` histogram, set by [`Self::attach_telemetry`].
    merge_hist: Mutex<Option<Arc<Histogram>>>,
}

impl SegmentedSpine {
    /// Initialize a new store in `dir` (created if absent) and commit its
    /// empty manifest. Refuses to clobber an existing store.
    pub fn create(alphabet: Alphabet, dir: impl AsRef<Path>, cfg: SegmentConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| Error::io(e, IoOp::Meta, None))?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(Error::Unsupported("creating a segment store over an existing one"));
        }
        let s = SegmentedSpine {
            inner: Mutex::new(Inner {
                memtable: Memtable::new(alphabet.clone(), 0),
                segments: Arc::new(Vec::new()),
                tombstones: Arc::new(BTreeSet::new()),
                epoch: 0,
                next_doc: 0,
                next_segment: 0,
                orphans: Vec::new(),
            }),
            alphabet,
            dir,
            cfg,
            stats: Arc::new(SegStats::default()),
            merge_hist: Mutex::new(None),
        };
        s.commit_manifest(&Manifest::default())?;
        s.refresh_stats(&s.inner.lock());
        Ok(s)
    }

    /// Recover a store from its last committed manifest. Memtable contents
    /// at crash time are gone (by design — they were never durable);
    /// every committed segment reopens from its page file. Files in `dir`
    /// that the manifest does not reference are recorded as orphans
    /// ([`Self::orphan_count`]) and left untouched for inspection.
    ///
    /// The lifecycle journal is replayed and cross-checked: a torn final
    /// record (a crash mid-append) is truncated away, but a journal whose
    /// maximum epoch *exceeds* the recovered manifest's is corruption —
    /// events are only ever appended after their commit is durable, so the
    /// journal can trail the manifest, never lead it. Recovery itself then
    /// appends a [`JournalKind::Recover`] event.
    pub fn open(alphabet: Alphabet, dir: impl AsRef<Path>, cfg: SegmentConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        charge(&cfg.gate, IoOp::Read)?;
        let bytes =
            fs::read(dir.join(MANIFEST_FILE)).map_err(|e| Error::io(e, IoOp::Read, None))?;
        let m = Manifest::decode(&bytes)?;
        replay_journal(&dir, &cfg, m.epoch)?;
        let mut segments = Vec::with_capacity(m.segments.len());
        for e in &m.segments {
            segments.push(Arc::new(open_segment(&dir, e, &alphabet, &cfg)?));
        }
        let orphans = scan_orphans(&dir, &m)?;
        // A crash between writing `seg-N.*` and the manifest rename leaves
        // orphans under the id the next seal would take. Number above them:
        // reusing an orphan's id would overwrite the evidence, and
        // `cleanup_orphans` would then delete a committed segment.
        let next_segment = orphans
            .iter()
            .filter_map(|p| segment_file_id(p))
            .map(|id| id + 1)
            .fold(m.next_segment, u64::max);
        let sealed_live: u64 = m
            .segments
            .iter()
            .map(|e| e.doc_ids.iter().filter(|d| !m.tombstones.contains(d)).count() as u64)
            .sum();
        let recover = JournalEvent {
            kind: JournalKind::Recover,
            epoch: m.epoch,
            unix_ms: unix_ms(),
            docs: sealed_live,
            aux: orphans.len() as u64,
            inputs: Vec::new(),
            outputs: m.segments.iter().map(|e| e.id).collect(),
            phase_nanos: [0; MergePhase::COUNT],
        };
        let s = SegmentedSpine {
            inner: Mutex::new(Inner {
                memtable: Memtable::new(alphabet.clone(), m.next_doc),
                segments: Arc::new(segments),
                tombstones: Arc::new(m.tombstones.iter().copied().collect()),
                epoch: m.epoch,
                next_doc: m.next_doc,
                next_segment,
                orphans,
            }),
            alphabet,
            dir,
            cfg,
            stats: Arc::new(SegStats::default()),
            merge_hist: Mutex::new(None),
        };
        s.append_journal(&recover)?;
        s.refresh_stats(&s.inner.lock());
        Ok(s)
    }

    /// The store's alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Append one document; returns its global id. The document is
    /// volatile (memtable-only) until the next seal commits it. May seal
    /// synchronously when the memtable reaches the configured threshold —
    /// a seal failure leaves the document in the memtable and the durable
    /// state untouched.
    pub fn add_document(&self, doc: &[Code]) -> Result<u64> {
        let mut inner = self.inner.lock();
        let id = inner.next_doc;
        let symbols = {
            let mut index = inner.memtable.index.write();
            index.add_document(doc)?;
            index.as_spine().len()
        };
        inner.next_doc = id + 1;
        let sealed = if symbols >= self.cfg.memtable_max_symbols {
            self.seal_locked(&mut inner).map(|_| ())
        } else {
            Ok(())
        };
        self.refresh_stats(&inner);
        sealed.map(|()| id)
    }

    /// Retire document `doc` everywhere. Sealed documents get a durable
    /// manifest tombstone (one atomic commit); memtable documents get the
    /// memtable index's volatile flag (the document is volatile too — a
    /// crash forgets the pair together, never one side, and the seal makes
    /// both durable in one commit). Returns `Ok(true)` if this call
    /// retired it, `Ok(false)` if it was already retired (possibly merged
    /// away since), and [`Error::UnknownDocument`] for an id never
    /// assigned — the same semantics as
    /// [`GeneralizedSpine::retire_document`].
    pub fn retire_document(&self, doc: u64) -> Result<bool> {
        let mut inner = self.inner.lock();
        if doc >= inner.next_doc {
            return Err(Error::UnknownDocument { doc });
        }
        if let Some(local) = doc.checked_sub(inner.memtable.first_doc) {
            let retired = inner.memtable.index.write().retire_document(local as usize)?;
            self.refresh_stats(&inner);
            return Ok(retired);
        }
        if inner.tombstones.contains(&doc) {
            return Ok(false);
        }
        let sealed = inner.segments.iter().any(|s| s.entry.doc_ids.binary_search(&doc).is_ok());
        if !sealed {
            // Assigned once, but already retired and compacted away (or
            // lost with a pre-crash memtable): idempotent no-op.
            return Ok(false);
        }
        let mut tombstones: BTreeSet<u64> = (*inner.tombstones).clone();
        tombstones.insert(doc);
        let manifest = Manifest {
            epoch: inner.epoch + 1,
            next_doc: inner.next_doc,
            next_segment: inner.next_segment,
            segments: inner.segments.iter().map(|s| s.entry.clone()).collect(),
            tombstones: tombstones.iter().copied().collect(),
        };
        self.commit_manifest(&manifest)?;
        inner.epoch = manifest.epoch;
        inner.tombstones = Arc::new(tombstones);
        self.append_journal(&JournalEvent {
            kind: JournalKind::Retire,
            epoch: manifest.epoch,
            unix_ms: unix_ms(),
            docs: doc,
            aux: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            phase_nanos: [0; MergePhase::COUNT],
        })?;
        self.refresh_stats(&inner);
        Ok(true)
    }

    /// Seal the memtable now regardless of size. Returns whether a
    /// segment was created (a memtable with no live document seals to
    /// nothing).
    pub fn force_seal(&self) -> Result<bool> {
        let mut inner = self.inner.lock();
        let sealed = self.seal_locked(&mut inner);
        self.refresh_stats(&inner);
        sealed
    }

    /// Compact every sealed segment (dropping tombstoned documents) into
    /// one, commit, and delete the inputs. Returns `Ok(false)` when there
    /// is nothing worth merging. Once the commit succeeds the merge stands:
    /// an input file it cannot delete is left for recovery to report as an
    /// orphan. The memtable is untouched. Snapshots taken before the merge
    /// keep answering from the old segments: their file handles stay open,
    /// so even the input deletion cannot pull pages out from under them.
    pub fn merge_once(&self) -> Result<bool> {
        let mut inner = self.inner.lock();
        let any_tombstone_sealed = !inner.tombstones.is_empty();
        if inner.segments.len() < 2 && !any_tombstone_sealed {
            return Ok(false);
        }
        let r = self.merge_locked(&mut inner);
        if r.is_err() {
            self.stats.merge_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.refresh_stats(&inner);
        r
    }

    fn merge_locked(&self, inner: &mut Inner) -> Result<bool> {
        let mut nanos = [0u64; MergePhase::COUNT];
        let t = Instant::now();
        // Segments hold ascending ids, oldest first, so the live documents
        // concatenate in id order.
        let sep = self.alphabet.separator();
        let mut text = Vec::new();
        let mut entry =
            SegmentEntry { id: inner.next_segment, doc_ids: Vec::new(), doc_lens: Vec::new() };
        for seg in inner.segments.iter() {
            for (i, &d) in seg.entry.doc_ids.iter().enumerate() {
                if inner.tombstones.contains(&d) {
                    continue;
                }
                text.extend(seg.doc_codes(i)?);
                text.push(sep);
                entry.doc_ids.push(d);
                entry.doc_lens.push(seg.entry.doc_lens[i]);
            }
        }
        nanos[MergePhase::Collect.index()] = t.elapsed().as_nanos() as u64;
        let docs = entry.doc_ids.len() as u64;
        let dropped_tombstones = inner.tombstones.len() as u64;
        let old: Vec<Arc<Segment>> = (*inner.segments).clone();
        let mut segments: Vec<Arc<Segment>> = Vec::new();
        let mut next_segment = inner.next_segment;
        let t = Instant::now();
        if docs > 0 {
            let spine = Spine::build(self.alphabet.clone(), &text)?;
            segments.push(Arc::new(self.write_segment(entry, &spine)?));
            next_segment += 1;
        }
        nanos[MergePhase::Build.index()] = t.elapsed().as_nanos() as u64;
        let manifest = Manifest {
            epoch: inner.epoch + 1,
            next_doc: inner.next_doc,
            next_segment,
            segments: segments.iter().map(|s| s.entry.clone()).collect(),
            // Every tombstoned sealed document was just compacted away.
            tombstones: Vec::new(),
        };
        let t = Instant::now();
        self.commit_manifest(&manifest)?;
        nanos[MergePhase::Commit.index()] = t.elapsed().as_nanos() as u64;
        inner.epoch = manifest.epoch;
        inner.next_segment = next_segment;
        inner.segments = Arc::new(segments);
        inner.tombstones = Arc::new(BTreeSet::new());
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        // The commit made the inputs unreachable; delete them, best effort.
        // A failure here cannot un-commit: the merge stands, and a file
        // left behind is garbage a future recovery flags as an orphan.
        let t = Instant::now();
        for seg in &old {
            if charge(&self.cfg.gate, IoOp::Meta).is_ok() {
                let _ = fs::remove_file(self.pages_path(seg.entry.id));
            }
        }
        nanos[MergePhase::Cleanup.index()] = t.elapsed().as_nanos() as u64;
        if let Some(h) = self.merge_hist.lock().as_ref() {
            h.record_value(nanos.iter().sum());
        }
        self.append_journal(&JournalEvent {
            kind: JournalKind::Merge,
            epoch: manifest.epoch,
            unix_ms: unix_ms(),
            docs,
            aux: dropped_tombstones,
            inputs: old.iter().map(|s| s.entry.id).collect(),
            outputs: inner.segments.iter().map(|s| s.entry.id).collect(),
            phase_nanos: nanos,
        })?;
        Ok(true)
    }

    /// Seal the memtable's index as it stands into a new segment, and
    /// commit it together with a tombstone for each memtable document
    /// retired before the seal (a crash keeps both or loses both; the next
    /// merge drops them). A memtable with no live document resets to a
    /// fresh one without a commit.
    fn seal_locked(&self, inner: &mut Inner) -> Result<bool> {
        let memtable = inner.memtable.clone();
        let index = memtable.index.read();
        let live = index.live_doc_count() as u64;
        if live == 0 {
            // Nothing to persist, and nothing durable referenced those ids.
            inner.memtable = Memtable::new(self.alphabet.clone(), inner.next_doc);
            return Ok(false);
        }
        let mut nanos = [0u64; MergePhase::COUNT];
        let id = inner.next_segment;
        let first = memtable.first_doc;
        let docs = 0..index.doc_count();
        let entry = SegmentEntry {
            id,
            doc_ids: docs.clone().map(|d| first + d as u64).collect(),
            doc_lens: docs.clone().map(|d| index.doc_len(d) as u64).collect(),
        };
        let mut tombstones = (*inner.tombstones).clone();
        tombstones.extend(docs.filter(|&d| index.is_retired(d)).map(|d| first + d as u64));
        let t = Instant::now();
        let seg = self.write_segment(entry, index.as_spine())?;
        nanos[MergePhase::Build.index()] = t.elapsed().as_nanos() as u64;
        drop(index);
        let mut segments: Vec<Arc<Segment>> = (*inner.segments).clone();
        segments.push(Arc::new(seg));
        let manifest = Manifest {
            epoch: inner.epoch + 1,
            next_doc: inner.next_doc,
            next_segment: id + 1,
            segments: segments.iter().map(|s| s.entry.clone()).collect(),
            tombstones: tombstones.iter().copied().collect(),
        };
        let t = Instant::now();
        self.commit_manifest(&manifest)?;
        nanos[MergePhase::Commit.index()] = t.elapsed().as_nanos() as u64;
        inner.epoch = manifest.epoch;
        inner.next_segment = id + 1;
        inner.segments = Arc::new(segments);
        inner.tombstones = Arc::new(tombstones);
        inner.memtable = Memtable::new(self.alphabet.clone(), inner.next_doc);
        self.stats.seals.fetch_add(1, Ordering::Relaxed);
        self.append_journal(&JournalEvent {
            kind: JournalKind::Seal,
            epoch: manifest.epoch,
            unix_ms: unix_ms(),
            docs: live,
            aux: 0,
            inputs: Vec::new(),
            outputs: vec![id],
            phase_nanos: nanos,
        })?;
        Ok(true)
    }

    /// Write segment `entry.id`'s page file: `spine` in the sealed layout
    /// (synced, header last), served under the document table `entry`.
    /// The one sealing path: a seal passes the memtable's own index, a
    /// merge the index it built over the live documents. The file is not
    /// durable *state* until a manifest commit references it — a crash
    /// before that leaves it as an orphan.
    fn write_segment(&self, entry: SegmentEntry, spine: &Spine) -> Result<Segment> {
        charge(&self.cfg.gate, IoOp::Write)?;
        let file = FileDevice::create(self.pages_path(entry.id), false)?;
        let device = segment_device(file, &self.cfg.gate);
        let index = SealedSpine::seal(spine, device, self.cfg.pool_pages, Box::<Lru>::default())?;
        Segment::new(entry, index, &self.cfg)
    }

    /// The atomic commit: temp file, fsync, rename, directory fsync.
    fn commit_manifest(&self, m: &Manifest) -> Result<()> {
        let gate = &self.cfg.gate;
        let bytes = m.encode();
        let tmp = self.dir.join(MANIFEST_TMP);
        charge(gate, IoOp::Write)?;
        let mut f = fs::File::create(&tmp).map_err(|e| Error::io(e, IoOp::Write, None))?;
        charge(gate, IoOp::Write)?;
        f.write_all(&bytes).map_err(|e| Error::io(e, IoOp::Write, None))?;
        charge(gate, IoOp::Sync)?;
        f.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
        drop(f);
        charge(gate, IoOp::Meta)?;
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE))
            .map_err(|e| Error::io(e, IoOp::Meta, None))?;
        // The rename is not durable until the directory itself is synced.
        charge(gate, IoOp::Sync)?;
        let d = fs::File::open(&self.dir).map_err(|e| Error::io(e, IoOp::Sync, None))?;
        d.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
        Ok(())
    }

    fn pages_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id}.pages"))
    }

    /// Last committed manifest epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Files recovery found that no committed manifest references —
    /// evidence of a crash mid-commit. Non-zero turns the serving
    /// `/health` endpoint degraded until an operator inspects and
    /// [`Self::cleanup_orphans`] clears them.
    pub fn orphan_count(&self) -> usize {
        self.inner.lock().orphans.len()
    }

    /// Delete the orphan files recorded at recovery. Returns how many were
    /// removed.
    pub fn cleanup_orphans(&self) -> Result<usize> {
        let mut inner = self.inner.lock();
        let mut removed = 0;
        while let Some(p) = inner.orphans.last().cloned() {
            charge(&self.cfg.gate, IoOp::Meta)?;
            match fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(Error::io(e, IoOp::Meta, None)),
            }
            inner.orphans.pop();
            removed += 1;
        }
        if removed > 0 {
            self.append_journal(&JournalEvent {
                kind: JournalKind::OrphanCleanup,
                epoch: inner.epoch,
                unix_ms: unix_ms(),
                docs: removed as u64,
                aux: 0,
                inputs: Vec::new(),
                outputs: Vec::new(),
                phase_nanos: [0; MergePhase::COUNT],
            })?;
        }
        self.refresh_stats(&inner);
        Ok(removed)
    }

    /// Append one event to `JOURNAL.log` with the manifest's fsync
    /// discipline (write, then `fsync` the file). Called strictly *after*
    /// the commit the event describes is durable, so the journal can only
    /// ever trail the manifest.
    fn append_journal(&self, ev: &JournalEvent) -> Result<()> {
        let gate = &self.cfg.gate;
        let bytes = ev.encode();
        charge(gate, IoOp::Meta)?;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(JOURNAL_FILE))
            .map_err(|e| Error::io(e, IoOp::Meta, None))?;
        charge(gate, IoOp::Write)?;
        f.write_all(&bytes).map_err(|e| Error::io(e, IoOp::Write, None))?;
        charge(gate, IoOp::Sync)?;
        f.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
        Ok(())
    }

    /// Path of the lifecycle journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// The last `n` lifecycle journal events, oldest first. Lenient: a
    /// torn tail (crash mid-append, not yet truncated by recovery) is
    /// skipped, matching replay semantics.
    pub fn recent_journal(&self, n: usize) -> Result<Vec<JournalEvent>> {
        let p = self.journal_path();
        if !p.exists() {
            return Ok(Vec::new());
        }
        charge(&self.cfg.gate, IoOp::Read)?;
        let bytes = fs::read(&p).map_err(|e| Error::io(e, IoOp::Read, None))?;
        let (mut events, _) = journal::replay(&bytes);
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        Ok(events)
    }

    /// Sorted global ids of every live document (memtable and sealed).
    pub fn live_doc_ids(&self) -> Vec<u64> {
        let snap = self.snapshot();
        let mut ids: Vec<u64> = (snap.memtable.first_doc..)
            .zip(&snap.mem_retired)
            .filter_map(|(id, &retired)| (!retired).then_some(id))
            .collect();
        for seg in snap.segments.iter() {
            ids.extend(seg.entry.doc_ids.iter().filter(|id| !snap.tombstones.contains(id)));
        }
        ids.sort_unstable();
        ids
    }

    /// The codes of live document `doc`, or `None` if it is retired or was
    /// never assigned. A memtable document is read back from the
    /// memtable's backbone, a sealed one from its segment's label pages.
    pub fn document(&self, doc: u64) -> Result<Option<Vec<Code>>> {
        let snap = self.snapshot();
        if let Some(local) = doc.checked_sub(snap.memtable.first_doc) {
            let live = snap.mem_retired.get(local as usize) == Some(&false);
            return Ok(live.then(|| snap.memtable.index.read().document(local as usize)));
        }
        if snap.tombstones.contains(&doc) {
            return Ok(None);
        }
        for seg in snap.segments.iter() {
            if let Ok(i) = seg.entry.doc_ids.binary_search(&doc) {
                return Ok(Some(seg.doc_codes(i)?));
            }
        }
        Ok(None)
    }

    /// All occurrences of `pattern` across live documents, as
    /// `(global doc id, offset)` matches ordered by (doc, offset).
    pub fn try_find_all(&self, pattern: &[Code]) -> Result<Vec<DocMatch>> {
        self.snapshot().find_all(pattern)
    }

    /// Per-component EXPLAIN: the memtable's trace plus each sealed
    /// segment's, labeled. The composite has no single backbone walk to
    /// trace, so observability keeps the component structure visible.
    pub fn explain(&self, pattern: &[Code]) -> Vec<(String, QueryTrace)> {
        let snap = self.snapshot();
        let mut out = Vec::with_capacity(1 + snap.segments.len());
        let memtable = crate::trace::explain(&*snap.memtable.index.read(), pattern);
        out.push(("memtable".to_string(), memtable));
        for seg in snap.segments.iter() {
            out.push((format!("seg-{}", seg.entry.id), seg.index.explain(pattern)));
        }
        out
    }

    /// `(segment id, sealed on-disk pages)` for every live segment,
    /// oldest first. Backs the per-segment `segments.pages` labeled
    /// gauges on `/metrics`; an id that has since been merged away simply
    /// stops appearing here.
    pub fn segment_pages(&self) -> Vec<(u64, u64)> {
        let snap = self.snapshot();
        snap.segments.iter().map(|s| (s.entry.id, s.index.file_pages())).collect()
    }

    /// The gauge values as one consistent snapshot.
    pub fn stats(&self) -> SegmentsSnapshot {
        let s = &self.stats;
        SegmentsSnapshot {
            epoch: s.epoch.load(Ordering::Relaxed),
            segments: s.segments.load(Ordering::Relaxed) as usize,
            tombstones: s.tombstones.load(Ordering::Relaxed) as usize,
            memtable_docs: s.memtable_docs.load(Ordering::Relaxed) as usize,
            memtable_symbols: s.memtable_symbols.load(Ordering::Relaxed) as usize,
            live_docs: s.live_docs.load(Ordering::Relaxed) as usize,
            orphans: s.orphans.load(Ordering::Relaxed) as usize,
            merge_backlog: s.merge_backlog.load(Ordering::Relaxed) as usize,
            seals: s.seals.load(Ordering::Relaxed),
            merges: s.merges.load(Ordering::Relaxed),
        }
    }

    /// Register the store's gauges (`segments.count`,
    /// `segments.merge_backlog`, `segments.tombstones`, ...) on `registry`
    /// for the `/metrics` exporters. `segments.resident_bytes` sums the
    /// in-RAM preorder indexes of the live segments (16 B per node).
    pub fn attach_telemetry(&self, registry: &MetricsRegistry) {
        let g = |s: &Arc<SegStats>, f: fn(&SegStats) -> &AtomicU64| {
            let s = s.clone();
            move || f(&s).load(Ordering::Relaxed)
        };
        registry.gauge("segments.count", g(&self.stats, |s| &s.segments));
        registry.gauge("segments.tombstones", g(&self.stats, |s| &s.tombstones));
        registry.gauge("segments.merge_backlog", g(&self.stats, |s| &s.merge_backlog));
        registry.gauge("segments.epoch", g(&self.stats, |s| &s.epoch));
        registry.gauge("segments.memtable_docs", g(&self.stats, |s| &s.memtable_docs));
        registry.gauge("segments.memtable_symbols", g(&self.stats, |s| &s.memtable_symbols));
        registry.gauge("segments.live_docs", g(&self.stats, |s| &s.live_docs));
        registry.gauge("segments.orphans", g(&self.stats, |s| &s.orphans));
        registry.gauge("segments.seals", g(&self.stats, |s| &s.seals));
        registry.gauge("segments.merges", g(&self.stats, |s| &s.merges));
        registry.gauge("segments.merge_failures", g(&self.stats, |s| &s.merge_failures));
        registry.gauge("segments.hot_pinned", g(&self.stats, |s| &s.hot_pinned));
        registry.gauge("segments.resident_bytes", g(&self.stats, |s| &s.resident_bytes));
        // Merges were previously count-only; the histogram makes a slow
        // merge visible (recorded as total wall nanos across phases).
        *self.merge_hist.lock() = Some(registry.histogram("segments.merge_duration"));
    }

    fn refresh_stats(&self, inner: &Inner) {
        let (mem_docs, mem_symbols, mem_live) = {
            let index = inner.memtable.index.read();
            (index.doc_count(), index.as_spine().len(), index.live_doc_count())
        };
        let sealed_live: usize = inner
            .segments
            .iter()
            .map(|s| s.entry.doc_ids.iter().filter(|d| !inner.tombstones.contains(d)).count())
            .sum();
        let s = &self.stats;
        s.epoch.store(inner.epoch, Ordering::Relaxed);
        s.segments.store(inner.segments.len() as u64, Ordering::Relaxed);
        s.tombstones.store(inner.tombstones.len() as u64, Ordering::Relaxed);
        s.memtable_docs.store(mem_docs as u64, Ordering::Relaxed);
        s.memtable_symbols.store(mem_symbols as u64, Ordering::Relaxed);
        s.live_docs.store((mem_live + sealed_live) as u64, Ordering::Relaxed);
        s.orphans.store(inner.orphans.len() as u64, Ordering::Relaxed);
        let backlog = inner.segments.len().saturating_sub(1) + inner.tombstones.len();
        s.merge_backlog.store(backlog as u64, Ordering::Relaxed);
        let pinned: u64 = inner.segments.iter().map(|sg| sg.index.pool_stats().pinned).sum();
        s.hot_pinned.store(pinned, Ordering::Relaxed);
        let resident: u64 = inner.segments.iter().map(|sg| sg.index.resident_bytes()).sum();
        s.resident_bytes.store(resident, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let memtable = inner.memtable.clone();
        let segments = inner.segments.clone();
        let tombstones = inner.tombstones.clone();
        drop(inner);
        let mem_retired = {
            let index = memtable.index.read();
            (0..index.doc_count()).map(|d| index.is_retired(d)).collect()
        };
        Snapshot { memtable, mem_retired, segments, tombstones }
    }
}

impl Snapshot {
    /// Every occurrence of `pattern` among this snapshot's live documents,
    /// ordered by (doc, offset). The memtable and each segment take the
    /// same steps: their concatenation ends ([`try_find_all_ends`]: a walk
    /// of the memtable's child lists or of a segment's in-RAM preorder
    /// index) are localized to `(doc, offset)` by the one map, which drops
    /// the closing sentinel — so the empty pattern occurs at every offset
    /// `0..=len` of every document. Retired and tombstoned documents are
    /// filtered out, and a component's error is returned as it is.
    fn find_all(&self, pattern: &[Code]) -> Result<Vec<DocMatch>> {
        let at = |id: u64, offset: usize| DocMatch { doc: id as usize, offset };
        let mut ms = Vec::new();
        {
            let index = self.memtable.index.read();
            for end in try_find_all_ends(&*index, pattern)? {
                let Some(m) = index.localize(end as usize - pattern.len()) else { continue };
                // Documents added after the snapshot lie past its flags.
                if self.mem_retired.get(m.doc) == Some(&false) {
                    ms.push(at(self.memtable.first_doc + m.doc as u64, m.offset));
                }
            }
        }
        for seg in self.segments.iter() {
            for end in try_find_all_ends(&seg.index, pattern)? {
                let Some((id, offset)) = seg.localize(end as usize - pattern.len()) else {
                    continue;
                };
                if !self.tombstones.contains(&id) {
                    ms.push(at(id, offset));
                }
            }
        }
        ms.sort_unstable();
        Ok(ms)
    }
}

/// Queries resolve against one snapshot per batch, each pattern on its own
/// (`Snapshot::find_all`). Failures are per-pattern: a storage fault in
/// one segment fails the pattern that hit it, not the batch.
impl ServeIndex for SegmentedSpine {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        let snap = self.snapshot();
        patterns
            .iter()
            .map(|p| match snap.find_all(p) {
                Ok(ms) => QueryOutcome::DoneDocs(ms),
                Err(e) => QueryOutcome::Failed(e.to_string()),
            })
            .collect()
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        let snap = self.snapshot();
        let mut agg = FallibleSpineOps::ops_counters(&*snap.memtable.index.read()).snapshot();
        for seg in snap.segments.iter() {
            agg += FallibleSpineOps::ops_counters(&seg.index).snapshot();
        }
        agg
    }
}

/// Recovery's journal pass: salvage the valid record prefix (truncating a
/// torn tail in place, synced) and cross-check it against the recovered
/// manifest epoch. Events are appended only after their commit is durable,
/// so a journal *ahead* of the manifest is corruption, not a crash artifact.
fn replay_journal(dir: &Path, cfg: &SegmentConfig, manifest_epoch: u64) -> Result<()> {
    let path = dir.join(JOURNAL_FILE);
    if !path.exists() {
        return Ok(());
    }
    charge(&cfg.gate, IoOp::Read)?;
    let bytes = fs::read(&path).map_err(|e| Error::io(e, IoOp::Read, None))?;
    let (events, valid) = journal::replay(&bytes);
    if valid < bytes.len() {
        charge(&cfg.gate, IoOp::Meta)?;
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| Error::io(e, IoOp::Meta, None))?;
        f.set_len(valid as u64).map_err(|e| Error::io(e, IoOp::Meta, None))?;
        charge(&cfg.gate, IoOp::Sync)?;
        f.sync_all().map_err(|e| Error::io(e, IoOp::Sync, None))?;
    }
    if let Some(max) = events.iter().map(|e| e.epoch).max() {
        if max > manifest_epoch {
            return Err(Error::Parse(format!(
                "journal epoch {max} is ahead of manifest epoch {manifest_epoch} \
                 (journal events are appended only after their commit is durable)"
            )));
        }
    }
    Ok(())
}

/// Reopen segment `e`, which must have been sealed under `alphabet`: a
/// segment of another alphabet would answer the store's codes as its own.
fn open_segment(
    dir: &Path,
    e: &SegmentEntry,
    alphabet: &Alphabet,
    cfg: &SegmentConfig,
) -> Result<Segment> {
    charge(&cfg.gate, IoOp::Read)?;
    let file = FileDevice::open(dir.join(format!("seg-{}.pages", e.id)), false)?;
    let device = segment_device(file, &cfg.gate);
    let index = SealedSpine::reopen(device, cfg.pool_pages, Box::<Lru>::default())?;
    let sealed = StringIndex::alphabet(&index);
    if sealed != alphabet {
        return Err(Error::Parse(format!(
            "segment {} was sealed under the {:?} alphabet, not the store's {:?}",
            e.id,
            sealed.kind(),
            alphabet.kind()
        )));
    }
    Segment::new(e.clone(), index, cfg)
}

/// The id in a `seg-{id}.pages` file name.
fn segment_file_id(path: &Path) -> Option<u64> {
    path.file_name()?.to_str()?.strip_prefix("seg-")?.strip_suffix(".pages")?.parse().ok()
}

/// Directory entries a committed manifest does not account for: segment
/// files from commits that never happened, or a `MANIFEST.tmp` from an
/// interrupted commit.
fn scan_orphans(dir: &Path, m: &Manifest) -> Result<Vec<PathBuf>> {
    let referenced: BTreeSet<String> =
        m.segments.iter().map(|e| format!("seg-{}.pages", e.id)).collect();
    let mut orphans = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| Error::io(e, IoOp::Meta, None))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::io(e, IoOp::Meta, None))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_segment_file = name.starts_with("seg-") && name.ends_with(".pages");
        if name == MANIFEST_TMP || (is_segment_file && !referenced.contains(&name)) {
            orphans.push(entry.path());
        }
    }
    orphans.sort();
    Ok(orphans)
}

/// Owner handle for the background merge thread; stops and joins it on
/// drop.
pub struct MergeHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MergeHandle {
    /// Signal the merger and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for MergeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run a compaction loop on a background thread: whenever the backlog
/// reaches the configured trigger (segment count, or any outstanding
/// tombstone), merge. Errors increment the `segments.merge_failures`
/// gauge and the loop keeps going — a failed merge leaves the store on
/// its previous committed state.
pub fn spawn_merger(store: Arc<SegmentedSpine>, interval: Duration) -> MergeHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("spine-merger".into())
        .spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                let s = store.stats();
                if s.segments >= store.cfg.merge_min_segments || s.tombstones > 0 {
                    let _ = store.merge_once();
                }
                std::thread::park_timeout(interval);
            }
        })
        .expect("spawn spine-merger thread");
    MergeHandle { stop, thread: Some(thread) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna() -> Alphabet {
        Alphabet::dna()
    }

    fn enc(a: &Alphabet, s: &str) -> Vec<Code> {
        a.encode(s.as_bytes()).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("spine-segments-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn matches_of(s: &SegmentedSpine, a: &Alphabet, pat: &str) -> Vec<(usize, usize)> {
        s.try_find_all(&enc(a, pat)).unwrap().into_iter().map(|m| (m.doc, m.offset)).collect()
    }

    #[test]
    fn add_seal_retire_merge_round_trip() {
        let a = dna();
        let dir = tmpdir("roundtrip");
        let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        let d0 = s.add_document(&enc(&a, "ACGTACGT")).unwrap();
        let d1 = s.add_document(&enc(&a, "TTTT")).unwrap();
        assert_eq!((d0, d1), (0, 1));
        // A separator inside a document is refused before anything is
        // appended, and takes no id.
        let bad = s.add_document(&[0, a.separator()]);
        assert!(matches!(bad, Err(Error::InvalidSymbol { pos: 1, .. })), "{bad:?}");
        assert_eq!(s.stats().memtable_symbols, 9 + 5);
        assert_eq!(matches_of(&s, &a, "ACGT"), vec![(0, 0), (0, 4)]);
        // Seal, then add more on top: queries span memtable + segment.
        assert!(s.force_seal().unwrap());
        let d2 = s.add_document(&enc(&a, "ACGA")).unwrap();
        assert_eq!(matches_of(&s, &a, "ACG"), vec![(0, 0), (0, 4), (2, 0)]);
        assert_eq!(matches_of(&s, &a, "TTT"), vec![(1, 0), (1, 1)]);
        // Retire a sealed doc (durable tombstone) and a memtable doc
        // (volatile flag): both vanish from every surface.
        assert!(s.retire_document(d1).unwrap());
        assert!(!s.retire_document(d1).unwrap());
        assert!(s.retire_document(d2).unwrap());
        assert_eq!(matches_of(&s, &a, "TTT"), vec![]);
        assert_eq!(matches_of(&s, &a, "ACG"), vec![(0, 0), (0, 4)]);
        assert!(matches!(s.retire_document(99), Err(Error::UnknownDocument { doc: 99 })));
        // Merge compacts the tombstone away; answers unchanged. The
        // memtable holds only the retired d2, so this seal is a no-op.
        assert!(!s.force_seal().unwrap());
        assert!(s.merge_once().unwrap());
        assert_eq!(s.stats().tombstones, 0);
        assert_eq!(matches_of(&s, &a, "ACG"), vec![(0, 0), (0, 4)]);
        assert_eq!(s.live_doc_ids(), vec![0]);
        assert_eq!(s.document(d0).unwrap().unwrap(), enc(&a, "ACGTACGT"));
        assert_eq!(s.document(d1).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_localize_ends_with_the_last_document() {
        let a = dna();
        let dir = tmpdir("localize");
        let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        s.add_document(&enc(&a, "ACGT")).unwrap();
        s.add_document(&enc(&a, "GA")).unwrap();
        assert!(s.force_seal().unwrap());
        let snap = s.snapshot();
        let seg = &snap.segments[0];
        let n = seg.index.len();
        assert_eq!(n, 5 + 3);
        assert_eq!(seg.localize(0), Some((0, 0)));
        assert_eq!(seg.localize(5), Some((1, 0)));
        // The last document's terminator is its offset `len`; the sentinel
        // offset `n` belongs to no document.
        assert_eq!(seg.localize(n - 1), Some((1, 2)));
        assert_eq!(seg.localize(n), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_reopens_committed_state_and_forgets_the_memtable() {
        let a = dna();
        let dir = tmpdir("recover");
        let epoch_before;
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGTACGT")).unwrap();
            s.add_document(&enc(&a, "GGGG")).unwrap();
            s.force_seal().unwrap();
            s.retire_document(1).unwrap();
            // Volatile: never sealed, must be forgotten by recovery.
            s.add_document(&enc(&a, "CCCC")).unwrap();
            epoch_before = s.epoch();
        }
        let s = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
        assert_eq!(s.epoch(), epoch_before);
        assert_eq!(s.orphan_count(), 0);
        assert_eq!(s.live_doc_ids(), vec![0]);
        assert_eq!(matches_of(&s, &a, "CCCC"), vec![]);
        assert_eq!(matches_of(&s, &a, "ACGT"), vec![(0, 0), (0, 4)]);
        // The lost memtable doc's id is deliberately reissued.
        assert_eq!(s.add_document(&enc(&a, "TTAA")).unwrap(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_reads_survive_concurrent_seal_and_merge() {
        let a = dna();
        let dir = tmpdir("snapstable");
        let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        s.add_document(&enc(&a, "ACGT")).unwrap();
        s.force_seal().unwrap();
        s.add_document(&enc(&a, "ACCA")).unwrap();
        let snap_before = s.snapshot();
        // Mutate heavily after the snapshot.
        s.retire_document(0).unwrap();
        s.add_document(&enc(&a, "ACAC")).unwrap();
        s.force_seal().unwrap();
        s.merge_once().unwrap();
        // The snapshot still sees exactly docs {0, 1}: segment files were
        // deleted by the merge, but its handles keep them readable.
        let outs: Vec<(usize, usize)> = snap_before
            .find_all(&enc(&a, "AC"))
            .unwrap()
            .iter()
            .map(|m| (m.doc, m.offset))
            .collect();
        assert_eq!(outs, vec![(0, 0), (1, 0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_commit_recovers_to_the_previous_epoch() {
        let a = dna();
        let dir = tmpdir("crashcommit");
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGTACGT")).unwrap();
            s.force_seal().unwrap();
        }
        // Count the ops a clean seal of a second doc takes, then crash at
        // every prefix of them.
        let count = {
            let probe = tmpdir("crashcommit-probe");
            fs::create_dir_all(&probe).unwrap();
            copy_dir(&dir, &probe);
            let gate = IoGate::unarmed();
            let cfg = SegmentConfig { gate: Some(gate.clone()), ..SegmentConfig::default() };
            let s = SegmentedSpine::open(a.clone(), &probe, cfg).unwrap();
            let before = gate.ops();
            s.add_document(&enc(&a, "GGCC")).unwrap();
            s.force_seal().unwrap();
            let n = gate.ops() - before;
            let _ = fs::remove_dir_all(&probe);
            n
        };
        assert!(count > 4, "a seal must take several I/O ops, got {count}");
        for k in 0..count {
            let work = tmpdir("crashcommit-k");
            fs::create_dir_all(&work).unwrap();
            copy_dir(&dir, &work);
            let clean = SegmentConfig::default();
            let epoch0 = SegmentedSpine::open(a.clone(), &work, clean.clone()).unwrap().epoch();
            {
                let gate = IoGate::unarmed();
                let warm = SegmentedSpine::open(
                    a.clone(),
                    &work,
                    SegmentConfig { gate: Some(gate.clone()), ..SegmentConfig::default() },
                )
                .unwrap();
                let baseline = gate.ops();
                let armed = IoGate::armed(baseline + k);
                drop(warm);
                let cfg = SegmentConfig { gate: Some(armed), ..SegmentConfig::default() };
                let s = SegmentedSpine::open(a.clone(), &work, cfg);
                // Recovery itself may crash (k below its op count): that
                // must be an error, never a panic or a torn store.
                if let Ok(s) = s {
                    let r =
                        s.add_document(&enc(&a, "GGCC")).and_then(|_| s.force_seal().map(|_| ()));
                    assert!(r.is_err(), "k={k} should have crashed");
                }
            }
            // Ungated recovery: must land on a committed epoch — the old
            // one, or (when the crash hit after the rename but before the
            // directory sync) the new one — with that epoch's exact
            // answers either way. Never a torn state.
            let s = SegmentedSpine::open(a.clone(), &work, clean).unwrap();
            let e = s.epoch();
            assert_eq!(matches_of(&s, &a, "ACGT"), vec![(0, 0), (0, 4)], "k={k}");
            if e == epoch0 {
                assert_eq!(s.live_doc_ids(), vec![0], "k={k}");
                assert_eq!(matches_of(&s, &a, "GGCC"), vec![], "k={k}");
            } else {
                assert_eq!(e, epoch0 + 1, "k={k}: epoch must be committed");
                assert_eq!(s.live_doc_ids(), vec![0, 1], "k={k}");
                assert_eq!(matches_of(&s, &a, "GGCC"), vec![(1, 0)], "k={k}");
            }
            let _ = fs::remove_dir_all(&work);
        }
    }

    #[test]
    fn orphans_are_detected_and_cleanable() {
        let a = dna();
        let dir = tmpdir("orphans");
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGT")).unwrap();
            s.force_seal().unwrap();
        }
        fs::write(dir.join("seg-99.pages"), b"stray").unwrap();
        fs::write(dir.join("MANIFEST.tmp"), b"torn").unwrap();
        let s = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
        assert_eq!(s.orphan_count(), 2);
        assert_eq!(s.stats().orphans, 2);
        // Orphans never affect answers.
        assert_eq!(matches_of(&s, &a, "ACGT"), vec![(0, 0)]);
        assert_eq!(s.cleanup_orphans().unwrap(), 2);
        assert_eq!(s.orphan_count(), 0);
        assert!(!dir.join("seg-99.pages").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_merger_compacts() {
        let a = dna();
        let dir = tmpdir("bgmerge");
        let cfg = SegmentConfig { merge_min_segments: 2, ..SegmentConfig::default() };
        let s = Arc::new(SegmentedSpine::create(a.clone(), &dir, cfg).unwrap());
        for text in ["ACGT", "GGTT", "CACA"] {
            s.add_document(&enc(&a, text)).unwrap();
            s.force_seal().unwrap();
        }
        assert_eq!(s.stats().segments, 3);
        let h = spawn_merger(s.clone(), Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while s.stats().segments > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        h.stop();
        assert_eq!(s.stats().segments, 1);
        assert_eq!(s.live_doc_ids(), vec![0, 1, 2]);
        assert_eq!(matches_of(&s, &a, "CACA"), vec![(2, 0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lifecycle_journal_records_events_and_recovery_appends() {
        let a = dna();
        let dir = tmpdir("journal");
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGTACGT")).unwrap();
            s.add_document(&enc(&a, "TTTT")).unwrap();
            s.force_seal().unwrap();
            s.add_document(&enc(&a, "GGGG")).unwrap();
            s.force_seal().unwrap();
            s.retire_document(1).unwrap();
            s.merge_once().unwrap();
            let evs = s.recent_journal(10).unwrap();
            let kinds: Vec<JournalKind> = evs.iter().map(|e| e.kind).collect();
            use JournalKind::*;
            assert_eq!(kinds, vec![Seal, Seal, Retire, Merge]);
            assert_eq!(evs.iter().map(|e| e.epoch).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
            assert_eq!((evs[0].docs, evs[0].outputs.clone()), (2, vec![0]));
            // A seal times its build and commit but collects nothing.
            let seal = evs[1].phase_nanos;
            assert!(seal[MergePhase::Commit.index()] > 0);
            assert_eq!(seal[MergePhase::Collect.index()], 0);
            // Retire records the document id it tombstoned.
            assert_eq!(evs[2].docs, 1);
            let m = &evs[3];
            assert_eq!((m.inputs.clone(), m.outputs.clone()), (vec![0, 1], vec![2]));
            assert_eq!((m.docs, m.aux), (2, 1));
            assert!(m.phase_nanos.iter().sum::<u64>() > 0, "merge phases must be timed");
            // recent_journal keeps the newest n.
            assert_eq!(s.recent_journal(2).unwrap(), evs[2..].to_vec());
        }
        // Reopen: replay cross-checks (journal trails manifest), recovery
        // appends its own event, and the whole file strict-decodes — no
        // torn records from any of the above.
        let s = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
        let evs = journal::decode_all(&fs::read(s.journal_path()).unwrap()).unwrap();
        let last = evs.last().unwrap();
        assert_eq!(last.kind, JournalKind::Recover);
        assert_eq!(last.epoch, s.epoch());
        assert_eq!((last.docs, last.aux), (2, 0));
        assert_eq!(last.outputs, vec![2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_salvaged_and_an_ahead_journal_is_rejected() {
        let a = dna();
        let dir = tmpdir("journaltear");
        {
            let s = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
            s.add_document(&enc(&a, "ACGT")).unwrap();
            s.force_seal().unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        // A crash mid-append leaves a torn tail: recovery must truncate it
        // away and keep going.
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        drop(f);
        let s = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
        assert_eq!(s.live_doc_ids(), vec![0]);
        let evs = journal::decode_all(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(evs.last().unwrap().kind, JournalKind::Recover);
        assert!(fs::metadata(&path).unwrap().len() > clean_len, "recover event appended");
        drop(s);
        // A journal *ahead* of the manifest cannot be a crash artifact
        // (events append only after their commit is durable): refuse.
        let forged = JournalEvent {
            kind: JournalKind::Seal,
            epoch: 999,
            unix_ms: 0,
            docs: 0,
            aux: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            phase_nanos: [0; MergePhase::COUNT],
        };
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&forged.encode()).unwrap();
        drop(f);
        let e = match SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("ahead-of-manifest journal must refuse to open"),
        };
        assert!(matches!(e, Error::Parse(_)), "unexpected error {e}");
        let _ = fs::remove_dir_all(&dir);
    }

    fn copy_dir(from: &Path, to: &Path) {
        for e in fs::read_dir(from).unwrap() {
            let e = e.unwrap();
            fs::copy(e.path(), to.join(e.file_name())).unwrap();
        }
    }
}
