//! Page-resident SPINE (the paper's §6.2 disk experiments).
//!
//! Node records live on a page device behind a bounded buffer pool
//! ([`pagestore`]); construction and search perform real page traffic, so
//! the pool's hit rate and the device's read/write counts expose SPINE's
//! locality — the effect behind the paper's 2× on-disk speedups (Figure 7,
//! Table 7). The paper's "simple buffering strategy" (keep the top of the
//! Link Table resident) is available as [`pagestore::PrefixPriority`]; the
//! `exp buffering` experiment compares it against LRU/FIFO/Clock under
//! memory pressure.
//!
//! [`PagedSpine`] is the surface every page layout shares: the
//! [`FallibleSpineOps`], [`StringIndex`] and [`MatchingIndex`] impls, pool
//! accounting, pinning, EXPLAIN and prefix views, written once over the
//! layout's record accessors. Two layouts instantiate it:
//!
//! * [`DiskSpine`] — the paper's generic fixed-size record ("without any
//!   extra disk-specific optimization"): one record per node holding the
//!   vertebra label, link, rib slots, and two extrib slots (more spill to
//!   an in-memory side table, counted in [`DiskSpine::spill_count`]). It
//!   takes APPEND but pays for the worst-case fan-out on every node. It is
//!   the layout the paper's §6.2 disk experiments measure (`exp fig7`,
//!   `exp table7`, `exp buffering`); nothing is sealed from it.
//! * [`SealedSpine`](crate::SealedSpine) — the read-only, self-describing format-v3 page file
//!   ([`crate::sealed`]), encoded from an in-memory [`crate::Spine`]. It
//!   takes no APPEND.
//!
//! APPEND and all query algorithms are the shared generic ones
//! ([`crate::build`], [`crate::ops`]). [`FallibleSpineOps`] takes `&self`,
//! so each layout keeps its buffer pool behind a mutex, and that mutex
//! guards the pool alone.

use std::ops::Range;
use std::sync::Arc;

use crate::build::{self, NodeStore};
use crate::node::NodeId;
use crate::observe::{BuildEvent, BuildPhase, BuildStats, MemBreakdown, Observer, Off};
use crate::ops::{FallibleSpineOps, LinkTree, INFALLIBLE_BOUNDARY};
use crate::prefix::PrefixView;
use crate::trace::QueryTrace;
use layout::PageLayout;
use pagestore::{BufferPool, CacheStats, CacheStatsSnapshot, EvictionPolicy, PageDevice, PagedVec};
use parking_lot::Mutex;
use strindex::{
    Alphabet, Code, Counters, FxHashMap, MatchingIndex, MatchingStats, MaximalMatch, OnlineIndex,
    PackedText, Result, StringIndex,
};

/// What a page layout gives the shared [`PagedSpine`] surface. The trait is
/// public inside a crate-private module, so the crate's two layouts are the
/// only ones: callers name [`DiskSpine`] or [`crate::SealedSpine`], never
/// the trait.
pub(crate) mod layout {
    use super::*;

    /// A page layout's record accessors and its buffer pool.
    pub trait PageLayout {
        /// Run `f` on the buffer pool, under the layout's one lock.
        fn with_pool<R>(&self, f: impl FnOnce(&mut BufferPool) -> R) -> R;

        /// The pages holding the node records of a `len`-symbol text, in
        /// ascending node order.
        fn node_pages(&self, len: usize) -> Range<u32>;

        /// Backbone label of text position `i` (the vertebra leaving node
        /// `i`).
        fn label(&self, i: usize) -> Result<Code>;

        /// `(destination, LEL)` of `node`'s link.
        fn link(&self, node: NodeId) -> Result<(NodeId, u32)>;

        /// `(destination, PT)` of `node`'s rib labeled `c`.
        fn rib(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>>;

        /// `(destination, PT)` of `node`'s extrib in the chain `prt`.
        fn extrib(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>>;

        /// [`FallibleSpineOps::backbone_packing`].
        fn packing(&self) -> Option<u32> {
            None
        }

        /// The word-at-a-time [`FallibleSpineOps::try_label_run`] over a
        /// `len`-symbol text, or `None` when the layout does not pack at
        /// `pattern`'s width, so the scalar walk runs instead.
        fn label_run(
            &self,
            _len: usize,
            _node: NodeId,
            _pattern: &PackedText,
            _from: usize,
        ) -> Option<Result<usize>> {
            None
        }

        /// [`FallibleSpineOps::scan_begin`].
        fn scan_begin(&self) {}

        /// [`FallibleSpineOps::scan_end`].
        fn scan_end(&self) {}

        /// [`FallibleSpineOps::link_tree`].
        fn link_tree(&self) -> Option<LinkTree<'_>> {
            None
        }
    }
}

/// A SPINE index whose node records live on a page device behind a bounded
/// buffer pool, in the page layout `L`: [`DiskSpine`] or
/// [`SealedSpine`](crate::SealedSpine).
///
/// Every accessor returns `Result`: the records sit behind a buffer pool
/// over a fallible device, so any hop can surface an I/O error.
/// [`FallibleSpineOps`] and [`try_find_all`](Self::try_find_all) propagate
/// these; the `StringIndex`/`MatchingIndex` impls expect at their boundary.
pub struct PagedSpine<L> {
    alphabet: Alphabet,
    pub(crate) len: usize,
    counters: Counters,
    /// The buffer pool's cache counters, read without the layout's lock.
    cache: Arc<CacheStats>,
    pub(crate) layout: L,
}

impl<L: PageLayout> PagedSpine<L> {
    /// The index of a `len`-symbol text stored in `layout`, whose buffer
    /// pool counts into `cache`.
    pub(crate) fn over(alphabet: Alphabet, len: usize, cache: Arc<CacheStats>, layout: L) -> Self {
        PagedSpine { alphabet, len, counters: Counters::new(), cache, layout }
    }

    /// Number of indexed characters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Work counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Snapshot of the buffer pool's cache counters: hits, misses (device
    /// page fetches), evictions and pinned pages. Reads no lock.
    pub fn pool_stats(&self) -> CacheStatsSnapshot {
        self.cache.snapshot()
    }

    /// (reads, writes) page counts at the device.
    pub fn io_counts(&self) -> (u64, u64) {
        self.layout.with_pool(|pool| {
            let io = pool.io_stats();
            (io.reads(), io.writes())
        })
    }

    /// Durability barriers issued at the device (sealing issues two: one
    /// before the header page, one after). Together with [`Self::io_counts`]
    /// this spans the crashpoint index space the fault sweep enumerates.
    pub fn io_syncs(&self) -> u64 {
        self.layout.with_pool(|pool| pool.io_stats().syncs())
    }

    /// Flush dirty pages to the device.
    pub fn flush(&self) -> Result<()> {
        self.layout.with_pool(BufferPool::flush)
    }

    /// Pin the pages of the first backbone nodes, spending at most
    /// `max_pages` frames: link destinations concentrate upstream (the
    /// paper's Figure 8), so every valid path leaves through the backbone
    /// prefix. Pages are pinned in order until the pool refuses (it always
    /// keeps one evictable frame), and stay resident — even through the
    /// fixed-record layout's full-backbone occurrence scan — until
    /// [`unpin_all`](Self::unpin_all). Returns the pages pinned.
    pub fn pin_hot_prefix(&self, max_pages: usize) -> Result<usize> {
        let pages = self.layout.node_pages(self.len);
        self.layout.with_pool(|pool| {
            let mut pinned = 0;
            for p in pages.take(max_pages) {
                if !pool.pin(p)? {
                    break;
                }
                pinned += 1;
            }
            Ok(pinned)
        })
    }

    /// Unpin every pinned page, returning how many were released.
    pub fn unpin_all(&self) -> usize {
        self.layout.with_pool(BufferPool::unpin_all)
    }

    /// Fallible [`StringIndex::find_all`]: start offsets of every occurrence,
    /// or `Err` if the device fails mid-traversal. This is the entry point
    /// fault-tolerance harnesses use — an injected fault degrades to a clean
    /// `Err` here instead of a panic.
    pub fn try_find_all(&self, pattern: &[Code]) -> Result<Vec<usize>> {
        let ends = crate::occurrences::try_find_all_ends(self, pattern)?;
        Ok(ends.into_iter().map(|end| end as usize - pattern.len()).collect())
    }

    /// EXPLAIN `pattern` over the page-resident index: the structural trace
    /// of [`crate::trace::explain`] plus
    /// [`crate::trace::TraceEvent::PageFetches`] events attributing buffer
    /// pool hits and device reads to individual traversal steps (sampled
    /// from the pool's cumulative counters around each step — exact in
    /// single-query flows, an upper bound while concurrent queries share
    /// the pool). A storage failure mid-traversal is captured in
    /// [`QueryTrace::error`] with the partial trace retained. Traced walks
    /// always take the scalar path (the event stream is the point), so
    /// traces are step-identical across layouts.
    pub fn explain(&self, pattern: &[Code]) -> QueryTrace {
        crate::trace::explain(self, pattern)
    }

    /// View this index as the index of its length-`len` prefix (see
    /// [`PrefixView`]).
    pub fn prefix(&self, len: usize) -> PrefixView<'_, Self> {
        PrefixView::new(self, len)
    }
}

impl<L: PageLayout> FallibleSpineOps for PagedSpine<L> {
    fn text_len(&self) -> usize {
        self.len
    }

    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        if (node as usize) < self.len {
            self.layout.label(node as usize).map(Some)
        } else {
            Ok(None)
        }
    }

    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.layout.link(node)
    }

    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.layout.rib(node, c)
    }

    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.layout.extrib(node, prt)
    }

    fn ops_counters(&self) -> &Counters {
        &self.counters
    }

    fn storage_counters(&self) -> Option<(u64, u64)> {
        let s = self.pool_stats();
        Some((s.hits, s.misses))
    }

    fn backbone_packing(&self) -> Option<u32> {
        self.layout.packing()
    }

    fn try_label_run(&self, node: NodeId, pattern: &PackedText, from: usize) -> Result<usize> {
        match self.layout.label_run(self.len, node, pattern, from) {
            Some(run) => run,
            None => crate::ops::scalar_label_run(self, node, pattern, from),
        }
    }

    fn scan_begin(&self, _from: NodeId) {
        self.layout.scan_begin();
    }

    fn scan_end(&self) {
        self.layout.scan_end();
    }

    fn link_tree(&self) -> Option<LinkTree<'_>> {
        self.layout.link_tree()
    }
}

impl<L: PageLayout> StringIndex for PagedSpine<L> {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn text_len(&self) -> usize {
        self.len
    }

    fn symbol_at(&self, pos: usize) -> Code {
        self.layout.label(pos).expect(INFALLIBLE_BOUNDARY)
    }

    fn find_first(&self, pattern: &[Code]) -> Option<usize> {
        crate::search::locate(self, pattern).map(|end| end as usize - pattern.len())
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        self.try_find_all(pattern).expect(INFALLIBLE_BOUNDARY)
    }
}

impl<L: PageLayout> MatchingIndex for PagedSpine<L> {
    fn matching_statistics(&self, query: &[Code]) -> MatchingStats {
        crate::matching::matching_statistics(self, query).expect(INFALLIBLE_BOUNDARY)
    }

    fn maximal_matches(&self, query: &[Code], min_len: usize) -> Vec<MaximalMatch> {
        crate::matching::maximal_matches(self, query, min_len).expect(INFALLIBLE_BOUNDARY)
    }
}

// ---------------------------------------------------------------------------
// The fixed-record layout.
// ---------------------------------------------------------------------------

/// Inline extrib slots per record; chains are short (Table 4's steep decay),
/// so two suffice for almost every node.
const EXTRIB_SLOTS: usize = 2;

/// Byte offsets within a fixed node record (little-endian):
/// `cl:1 | link:4 | lel:4 | rib_count:1 | ribs: R×(cl 1, dest 4, pt 4) |
/// extrib_count:1 | extribs: 2×(dest 4, pt 4, prt 4)`.
struct Geometry {
    rib_slots: usize,
}

impl Geometry {
    fn new(alphabet: &Alphabet) -> Self {
        Geometry { rib_slots: alphabet.code_space() }
    }

    fn record_size(&self) -> usize {
        1 + 4 + 4 + 1 + self.rib_slots * 9 + 1 + EXTRIB_SLOTS * 12
    }

    fn rib_off(&self, i: usize) -> usize {
        10 + i * 9
    }

    fn extrib_count_off(&self) -> usize {
        10 + self.rib_slots * 9
    }

    fn extrib_off(&self, i: usize) -> usize {
        self.extrib_count_off() + 1 + i * 12
    }
}

fn get_u32(r: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(r[off..off + 4].try_into().unwrap())
}

fn put_u32(r: &mut [u8], off: usize, v: u32) {
    r[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// The paper's fixed records: one per node, striped over pages from page 0
/// ([`PagedVec`]), with extribs past the inline slots in a side table.
pub struct FixedRecords {
    geometry: Geometry,
    records: Mutex<PagedVec>,
    /// Extribs beyond the inline slots, by node: `(prt, pt, dest)` in the
    /// order APPEND created them. Written only by APPEND (`&mut`).
    spill: FxHashMap<u32, Vec<(u32, u32, u32)>>,
}

impl PageLayout for FixedRecords {
    fn with_pool<R>(&self, f: impl FnOnce(&mut BufferPool) -> R) -> R {
        f(self.records.lock().pool_mut())
    }

    fn node_pages(&self, len: usize) -> Range<u32> {
        let per_page = pagestore::PAGE_SIZE / self.geometry.record_size();
        0..(len / per_page) as u32 + 1
    }

    fn label(&self, i: usize) -> Result<Code> {
        self.records.lock().read(i + 1, |r| r[0])
    }

    fn link(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.records.lock().read(node as usize, |r| (get_u32(r, 1), get_u32(r, 5)))
    }

    fn rib(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        let g = &self.geometry;
        self.records.lock().read(node as usize, |r| {
            (0..r[9] as usize)
                .map(|i| g.rib_off(i))
                .find(|&off| r[off] == c)
                .map(|off| (get_u32(r, off + 1), get_u32(r, off + 5)))
        })
    }

    fn extrib(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        let g = &self.geometry;
        let inline = self.records.lock().read(node as usize, |r| {
            let count = (r[g.extrib_count_off()] as usize).min(EXTRIB_SLOTS);
            (0..count)
                .map(|i| g.extrib_off(i))
                .find(|&off| get_u32(r, off + 8) == prt)
                .map(|off| (get_u32(r, off), get_u32(r, off + 4)))
        })?;
        Ok(inline.or_else(|| {
            let spilled = self.spill.get(&node)?;
            spilled.iter().find(|&&(p, _, _)| p == prt).map(|&(_, pt, dest)| (dest, pt))
        }))
    }

    // Only this layout scans (a sealed index walks its preorder index), so
    // only its pool takes the scan hint.
    fn scan_begin(&self) {
        self.with_pool(BufferPool::begin_scan);
    }

    fn scan_end(&self) {
        self.with_pool(BufferPool::end_scan);
    }
}

/// A SPINE index on a page device in the paper's fixed-record layout; it
/// takes APPEND ([`OnlineIndex::push`]):
///
/// ```
/// # use strindex::OnlineIndex;
/// fn append(index: &mut spine::DiskSpine) -> strindex::Result<()> {
///     index.push(0)
/// }
/// ```
pub type DiskSpine = PagedSpine<FixedRecords>;

impl DiskSpine {
    /// An empty index over `alphabet`, storing records on `device` with a
    /// pool of `pool_pages` frames and the given eviction policy.
    pub fn new(
        alphabet: Alphabet,
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let geometry = Geometry::new(&alphabet);
        let mut records = PagedVec::new(device, pool_pages, policy, geometry.record_size());
        records.push_zeroed()?; // root
        let cache = records.pool().stats_handle();
        let layout =
            FixedRecords { geometry, records: Mutex::new(records), spill: FxHashMap::default() };
        Ok(Self::over(alphabet, 0, cache, layout))
    }

    /// Build from an encoded text.
    pub fn build(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        Self::build_observed(alphabet, text, device, pool_pages, policy, &mut Off)
    }

    /// Build while reporting every build event (plus disk-only spill
    /// events) to `observer`.
    pub fn build_observed<O: Observer<BuildEvent>>(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
        observer: &mut O,
    ) -> Result<Self> {
        let mut s = Self::new(alphabet, device, pool_pages, policy)?;
        build::extend(&mut s, text, observer)?;
        Ok(s)
    }

    /// Build, flush, and return the index together with a reconciled
    /// [`BuildStats`] (the final flush is accounted to the PageFlush phase).
    pub fn build_with_stats(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<(Self, BuildStats)> {
        let mut stats = BuildStats::default();
        let s = Self::build_observed(alphabet, text, device, pool_pages, policy, &mut stats)?;
        let t0 = std::time::Instant::now();
        s.flush()?;
        let nanos = t0.elapsed().as_nanos() as u64;
        stats.event(BuildEvent::Phase { phase: BuildPhase::PageFlush, nanos });
        stats.mem = s.mem_breakdown();
        Ok((s, stats))
    }

    /// Bytes split by edge kind, derived from the fixed record geometry
    /// (field spans × record count) plus the spill side table. Logical
    /// on-device bytes, not buffer-pool memory.
    pub fn mem_breakdown(&self) -> MemBreakdown {
        let records = (self.len + 1) as u64; // root included
        let slots = self.layout.geometry.rib_slots as u64;
        MemBreakdown {
            vertebrae: records,              // cl: 1 byte
            links: records * 8,              // link + lel
            ribs: records * (1 + slots * 9), // count + slots
            extribs: records * (1 + EXTRIB_SLOTS as u64 * 12) + self.spill_count() * 12,
        }
    }

    /// Extribs that did not fit the inline record slots.
    pub fn spill_count(&self) -> u64 {
        self.layout.spill.values().map(|v| v.len() as u64).sum()
    }
}

impl NodeStore for DiskSpine {
    /// A zeroed fixed-size record, labeled `c`; a zeroed link is the root
    /// with LEL 0.
    fn push_node(&mut self, c: Code) -> Result<NodeId> {
        let v = self.layout.records.get_mut();
        let idx = v.push_zeroed()?;
        v.write(idx, |r| r[0] = c)?;
        self.len += 1;
        Ok(idx as NodeId)
    }

    fn set_link(&mut self, node: NodeId, dest: NodeId, lel: u32) -> Result<()> {
        self.layout.records.get_mut().write(node as usize, |r| {
            put_u32(r, 1, dest);
            put_u32(r, 5, lel);
        })
    }

    fn add_rib(&mut self, node: NodeId, c: Code, dest: NodeId, pt: u32) -> Result<()> {
        let FixedRecords { geometry: g, records, .. } = &mut self.layout;
        records.get_mut().write(node as usize, |r| {
            let count = r[9] as usize;
            assert!(count < g.rib_slots, "rib slots exhausted");
            let off = g.rib_off(count);
            r[off] = c;
            put_u32(r, off + 1, dest);
            put_u32(r, off + 5, pt);
            r[9] = (count + 1) as u8;
        })
    }

    /// Extribs beyond the record's inline slots spill to the side table.
    fn add_extrib(&mut self, node: NodeId, prt: u32, dest: NodeId, pt: u32) -> Result<bool> {
        let FixedRecords { geometry: g, records, spill } = &mut self.layout;
        let spilled = records.get_mut().write(node as usize, |r| {
            let co = g.extrib_count_off();
            let count = r[co] as usize;
            if count < EXTRIB_SLOTS {
                let off = g.extrib_off(count);
                put_u32(r, off, dest);
                put_u32(r, off + 4, pt);
                put_u32(r, off + 8, prt);
                r[co] = (count + 1) as u8;
            }
            count >= EXTRIB_SLOTS
        })?;
        if spilled {
            spill.entry(node).or_default().push((prt, pt, dest));
        }
        Ok(spilled)
    }
}

impl OnlineIndex for DiskSpine {
    fn push(&mut self, code: Code) -> Result<()> {
        build::push(self, code, &mut Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Spine;
    use crate::SealedSpine;
    use pagestore::{Lru, MemDevice, PrefixPriority, PAGE_SIZE};

    fn disk(text: &[u8], pool_pages: usize) -> (Alphabet, DiskSpine) {
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        let d = DiskSpine::build(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            pool_pages,
            Box::<Lru>::default(),
        )
        .unwrap();
        (a, d)
    }

    #[test]
    fn build_with_stats_matches_memory_engine_and_counts_spills() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA";
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        let (d, st) = DiskSpine::build_with_stats(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        let (_, mem_stats) = Spine::build_with_stats(a, &codes).unwrap();
        // The structural event stream is representation-independent.
        assert_eq!(st.counts(), mem_stats.counts());
        assert_eq!(st.extrib_spills, d.spill_count());
        // PageFlush was timed, and the logical footprint is non-trivial.
        assert!(st.phase_nanos[BuildPhase::PageFlush.index()] > 0);
        assert_eq!(st.mem.vertebrae, text.len() as u64 + 1);
        assert!(st.mem.total() > st.mem.vertebrae);
    }

    #[test]
    fn equivalent_to_reference() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA";
        let (a, d) = disk(text, 4);
        let r = Spine::build_from_bytes(a.clone(), text).unwrap();
        for node in 0..=r.len() as u32 {
            let vertebra = (r.try_vertebra_out(node).unwrap(), d.try_vertebra_out(node).unwrap());
            assert_eq!(vertebra.0, vertebra.1, "vertebra {node}");
            if node != crate::ROOT {
                assert_eq!(
                    r.try_link_of(node).unwrap(),
                    d.try_link_of(node).unwrap(),
                    "link {node}"
                );
            }
            for code in 0..a.code_space() as Code {
                let rib = (r.try_rib_of(node, code).unwrap(), d.try_rib_of(node, code).unwrap());
                assert_eq!(rib.0, rib.1, "rib {node}/{code}");
            }
        }
    }

    #[test]
    fn queries_under_memory_pressure() {
        // A single-frame pool forces page traffic on every hop.
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = disk(&text, 1);
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
        let q = a.encode(b"TTACGACCACAACAGGAACC").unwrap();
        assert_eq!(
            MatchingIndex::maximal_matches(&r, &q, 3),
            MatchingIndex::maximal_matches(&d, &q, 3)
        );
        let (reads, writes) = d.io_counts();
        assert!(reads > 0 && writes > 0, "pressure must cause I/O");
    }

    #[test]
    fn prefix_priority_keeps_hit_rate_healthy() {
        // With the prefix-priority policy the upstream pages stay resident;
        // the hit rate should be healthy even with a small pool.
        let text = b"ACGTACGGTACGTTTACGACGACCAACC".repeat(16);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let d = DiskSpine::build(
            a,
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<PrefixPriority>::default(),
        )
        .unwrap();
        let rate = d.pool_stats().hit_rate();
        assert!(rate > 0.5, "hit rate {rate}");
    }

    #[test]
    fn flush_persists_everything() {
        let (_, d) = disk(b"ACGTACGT", 2);
        d.flush().unwrap();
        let (_, writes) = d.io_counts();
        assert!(writes > 0);
    }

    #[test]
    fn rejects_bad_code() {
        let a = Alphabet::dna();
        let mut d =
            DiskSpine::new(a, Box::new(MemDevice::new()), 2, Box::<Lru>::default()).unwrap();
        assert!(d.push(9).is_err());
    }

    #[test]
    fn disk_spine_is_send_and_sync() {
        // The query engine serves both layouts from multiple workers; this
        // holds because the device, policy, and spill table are all
        // Send/Sync-compatible.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DiskSpine>();
        assert_send_sync::<SealedSpine>();
    }

    #[test]
    fn telemetry_accounts_pages_and_pool_state() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = disk(&text, 1); // single-frame pool: every hop touches a page
        let before = d.pool_stats();
        d.try_find_all(&a.encode(b"ACGACG").unwrap()).unwrap();
        crate::search::try_locate(&d, &a.encode(b"CA").unwrap()).unwrap();
        let after = d.pool_stats();
        assert!(after.misses > before.misses, "queries under pressure must miss the pool");
        assert!(after.evictions > before.evictions, "a single frame evicts on every miss");
        assert_eq!(after.pinned, 0);
        // The trace hook reads the same counters.
        assert_eq!(d.storage_counters(), Some((after.hits, after.misses)));
    }

    #[test]
    fn explain_attributes_page_fetches() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = disk(&text, 1); // single-frame pool: every hop faults
        let codes = a.encode(&text).unwrap();
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"TACGACG", b"TTTT"] {
            let p = a.encode(p).unwrap();
            let dt = d.explain(&p);
            dt.verify_against_text(&codes).unwrap();
            // Same logical traversal as the reference engine; pages are the
            // only physical difference.
            assert_eq!(dt.structural_events(), r.explain(&p).structural_events());
            let (hits, misses) = dt.page_fetches();
            assert!(hits + misses > 0, "a single-frame pool must show traffic");
        }
    }

    #[test]
    fn try_find_all_matches_infallible_surface() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(4);
        let (a, d) = disk(&text, 2);
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG", b""] {
            let p = a.encode(p).unwrap();
            assert_eq!(d.try_find_all(&p).unwrap(), StringIndex::find_all(&d, &p));
        }
    }

    #[test]
    fn pinned_pages_survive_backbone_scans() {
        // Only the fixed-record layout runs the §4 scan (`exp fig7` and
        // `exp table7` measure it); a sealed index walks its preorder index.
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(16);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let mutable = DiskSpine::build(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            6,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert!(mutable.link_tree().is_none(), "the fixed-record layout scans");
        let pinned = mutable.pin_hot_prefix(3).unwrap();
        assert!(pinned > 0, "a prefix page must pin");
        assert_eq!(mutable.pool_stats().pinned, pinned as u64);
        // A full-backbone occurrence scan cannot flush the pinned set.
        let p = a.encode(b"CA").unwrap();
        assert!(!mutable.try_find_all(&p).unwrap().is_empty());
        assert_eq!(mutable.pool_stats().pinned, pinned as u64);
        assert_eq!(mutable.unpin_all(), pinned);
        assert_eq!(mutable.pool_stats().pinned, 0);
    }

    #[test]
    fn sealing_cuts_bytes_per_node() {
        let text = b"AACCACAACAGGTTACGACGACCAACGTGTACCACA".repeat(64);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let src = DiskSpine::build(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            32,
            Box::<Lru>::default(),
        )
        .unwrap();
        let mutable_mem = src.mem_breakdown();
        let record = src.layout.geometry.record_size();
        let mutable_pages = (codes.len() + 1).div_ceil(PAGE_SIZE / record) as u64;
        let spine = Spine::build(a.clone(), &codes).unwrap();
        let d = SealedSpine::seal(&spine, Box::new(MemDevice::new()), 8, Box::<Lru>::default())
            .unwrap();
        let sealed_pages = d.file_pages();
        let nodes = codes.len() as u64 + 1;
        assert!(
            sealed_pages * 3 < mutable_pages,
            "sealed {sealed_pages} pages vs mutable {mutable_pages}"
        );
        let sealed_mem = d.mem_breakdown();
        assert!(
            sealed_mem.total() * 3 < mutable_mem.total(),
            "sealed {} bytes vs mutable {}",
            sealed_mem.total(),
            mutable_mem.total()
        );
        // The headline number: < 10 encoded bytes per node for DNA, vs the
        // 80-byte fixed record.
        assert_eq!(record, 80);
        assert!(sealed_mem.bytes_per_node(nodes) < 10.0);
    }
}
