//! The buffer pool: a bounded cache of pages over a [`PageDevice`].
//!
//! Beyond the classic fetch/evict cycle the pool supports the hot-page
//! tier (DESIGN §13): **pinning** (a pinned frame is never chosen as an
//! eviction victim) and **scan hints** ([`BufferPool::begin_scan`])
//! forwarded to scan-resistant eviction policies. Frames are tracked
//! floppy-style with an explicit free list (frames released by
//! [`BufferPool::release`]) and a flush list (frames that went dirty since
//! the last flush), so neither allocation nor flushing needs a full frame
//! sweep.

use crate::device::{IoStats, PageDevice, PAGE_SIZE};
use crate::policy::EvictionPolicy;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use strindex::{Error, FxHashMap, IoOp, Result};

/// Shared cache counters as relaxed atomics, so observers on other threads
/// (an index polling a [`BufferPool`] it holds behind a lock) can read them
/// without touching the pool itself.
/// Clone the `Arc` out with [`BufferPool::stats_handle`].
///
/// `misses` counts **every** device page fetch — it is the honest
/// pages-transferred signal the serve benchmarks gate on.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pinned: AtomicU64,
}

impl CacheStats {
    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Device page fetches so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Frames evicted to make room so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Relaxed)
    }

    /// Frames currently pinned.
    pub fn pinned(&self) -> u64 {
        self.pinned.load(Relaxed)
    }

    /// One coherent copy of all counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            pinned: self.pinned(),
        }
    }
}

/// Plain-value copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Cache hits.
    pub hits: u64,
    /// Device page fetches.
    pub misses: u64,
    /// Frames evicted.
    pub evictions: u64,
    /// Frames currently pinned.
    pub pinned: u64,
}

impl CacheStatsSnapshot {
    /// Total page accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in [0, 1] (0 when nothing was accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    page: u32,
    dirty: bool,
    /// Pin count: while non-zero the frame is never an eviction victim.
    pins: u32,
    data: Box<[u8]>,
}

/// A fixed-capacity page cache with a pluggable eviction policy and
/// pinning.
pub struct BufferPool {
    device: Box<dyn PageDevice>,
    policy: Box<dyn EvictionPolicy>,
    capacity: usize,
    frames: Vec<Frame>,
    map: FxHashMap<u32, usize>,
    /// Frames released back to the pool, reusable before growing.
    free: Vec<usize>,
    /// Frames that went dirty since the last flush. May hold stale entries
    /// (a frame cleaned by eviction write-back, or re-listed after a
    /// flush); [`BufferPool::flush`] skips any frame that is clean when it
    /// gets there.
    flush_list: Vec<usize>,
    /// Nesting depth of scan phases; policies see only the 0↔1 edges.
    scan_depth: u32,
    stats: Arc<CacheStats>,
}

impl BufferPool {
    /// A pool caching at most `capacity` pages of `device`, evicting with
    /// `policy`.
    pub fn new(
        device: Box<dyn PageDevice>,
        capacity: usize,
        mut policy: Box<dyn EvictionPolicy>,
    ) -> Self {
        assert!(capacity >= 1);
        policy.capacity_hint(capacity);
        BufferPool {
            device,
            policy,
            capacity,
            frames: Vec::new(),
            map: FxHashMap::default(),
            free: Vec::new(),
            flush_list: Vec::new(),
            scan_depth: 0,
            stats: Arc::new(CacheStats::default()),
        }
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.stats.hits()
    }

    /// Device page fetches so far.
    pub fn misses(&self) -> u64 {
        self.stats.misses()
    }

    /// Frames evicted to make room so far.
    pub fn evictions(&self) -> u64 {
        self.stats.evictions()
    }

    /// Hit ratio in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        self.stats.snapshot().hit_rate()
    }

    /// A shareable handle to this pool's cache counters; stays live (and
    /// keeps counting) for as long as the pool does.
    pub fn stats_handle(&self) -> Arc<CacheStats> {
        Arc::clone(&self.stats)
    }

    /// Device I/O counters.
    pub fn io_stats(&self) -> &IoStats {
        self.device.stats()
    }

    /// Enter a sequential-scan phase: forwards a scan hint to the eviction
    /// policy (so scan-resistant policies stop promoting). Nests; pair
    /// every call with [`BufferPool::end_scan`].
    pub fn begin_scan(&mut self) {
        self.scan_depth += 1;
        if self.scan_depth == 1 {
            self.policy.scan_hint(true);
        }
    }

    /// Leave a sequential-scan phase (see [`BufferPool::begin_scan`]).
    pub fn end_scan(&mut self) {
        if self.scan_depth > 0 {
            self.scan_depth -= 1;
            if self.scan_depth == 0 {
                self.policy.scan_hint(false);
            }
        }
    }

    /// Frames currently pinned.
    pub fn pinned_count(&self) -> usize {
        self.stats.pinned() as usize
    }

    /// Whether `page` is resident with a non-zero pin count.
    pub fn is_pinned(&self, page: u32) -> bool {
        self.map.get(&page).is_some_and(|&f| self.frames[f].pins > 0)
    }

    /// Pin `page`: fetch it if absent and exempt its frame from eviction
    /// until a matching [`BufferPool::unpin`]. Returns `Ok(false)` without
    /// pinning when doing so would leave the pool with no evictable frame
    /// (at least one frame must stay unpinned so demand fetches can make
    /// progress); pinning is advisory, never a correctness requirement.
    pub fn pin(&mut self, page: u32) -> Result<bool> {
        let newly_pinned_frame = !self.is_pinned(page);
        if newly_pinned_frame && self.pinned_count() + 1 >= self.capacity {
            return Ok(false);
        }
        let frame = self.fetch(page)?;
        let fr = &mut self.frames[frame];
        fr.pins += 1;
        if fr.pins == 1 {
            self.stats.pinned.fetch_add(1, Relaxed);
        }
        Ok(true)
    }

    /// Drop one pin from `page`. Returns false if the page was not pinned.
    pub fn unpin(&mut self, page: u32) -> bool {
        let Some(&f) = self.map.get(&page) else { return false };
        let fr = &mut self.frames[f];
        if fr.pins == 0 {
            return false;
        }
        fr.pins -= 1;
        if fr.pins == 0 {
            self.stats.pinned.fetch_sub(1, Relaxed);
        }
        true
    }

    /// Drop *all* pins from every frame. Returns how many distinct pages
    /// were released from pinned state.
    pub fn unpin_all(&mut self) -> usize {
        let mut released = 0;
        for fr in &mut self.frames {
            if fr.pins > 0 {
                fr.pins = 0;
                released += 1;
                self.stats.pinned.fetch_sub(1, Relaxed);
            }
        }
        released
    }

    /// Cooperatively evict `page` if resident and unpinned: write it back
    /// when dirty and put its frame on the free list. Returns whether the
    /// page was released.
    pub fn release(&mut self, page: u32) -> Result<bool> {
        let Some(&f) = self.map.get(&page) else { return Ok(false) };
        if self.frames[f].pins > 0 {
            return Ok(false);
        }
        let fr = &mut self.frames[f];
        if fr.dirty {
            self.device
                .write_page(fr.page, &fr.data)
                .map_err(|e| e.with_io_context(IoOp::Write, fr.page))?;
            fr.dirty = false;
        }
        fr.page = u32::MAX;
        self.map.remove(&page);
        self.free.push(f);
        Ok(true)
    }

    /// Ensure `page` is resident; return its frame index.
    fn fetch(&mut self, page: u32) -> Result<usize> {
        if let Some(&f) = self.map.get(&page) {
            self.stats.hits.fetch_add(1, Relaxed);
            self.policy.on_access(f, page);
            return Ok(f);
        }
        let frame = if let Some(f) = self.free.pop() {
            f
        } else if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page: u32::MAX,
                dirty: false,
                pins: 0,
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            });
            self.frames.len() - 1
        } else {
            let pinned: Vec<bool> = self.frames.iter().map(|fr| fr.pins > 0).collect();
            match self.policy.victim(&pinned) {
                Some(victim) => {
                    debug_assert_eq!(self.frames[victim].pins, 0, "policy evicted a pinned frame");
                    let old = &mut self.frames[victim];
                    if old.dirty {
                        self.device
                            .write_page(old.page, &old.data)
                            .map_err(|e| e.with_io_context(IoOp::Write, old.page))?;
                        old.dirty = false;
                    }
                    self.map.remove(&old.page);
                    self.stats.evictions.fetch_add(1, Relaxed);
                    victim
                }
                None => {
                    return Err(Error::Unsupported("buffer pool exhausted: every frame is pinned"))
                }
            }
        };
        self.stats.misses.fetch_add(1, Relaxed);
        self.device
            .read_page(page, &mut self.frames[frame].data)
            .map_err(|e| e.with_io_context(IoOp::Read, page))?;
        let fr = &mut self.frames[frame];
        fr.page = page;
        fr.dirty = false;
        fr.pins = 0;
        self.map.insert(page, frame);
        self.policy.on_load(frame, page);
        Ok(frame)
    }

    /// Read access to `page`.
    pub fn read<R>(&mut self, page: u32, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let frame = self.fetch(page)?;
        Ok(f(&self.frames[frame].data))
    }

    /// Write access to `page` (marks it dirty).
    pub fn write<R>(&mut self, page: u32, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let frame = self.fetch(page)?;
        if !self.frames[frame].dirty {
            self.frames[frame].dirty = true;
            self.flush_list.push(frame);
        }
        Ok(f(&mut self.frames[frame].data))
    }

    /// Write every dirty frame back to the device (walks the flush list,
    /// not the whole frame table).
    pub fn flush(&mut self) -> Result<()> {
        while let Some(frame) = self.flush_list.pop() {
            let fr = &mut self.frames[frame];
            if !fr.dirty {
                continue; // stale entry: cleaned by eviction write-back
            }
            self.device
                .write_page(fr.page, &fr.data)
                .map_err(|e| e.with_io_context(IoOp::Flush, fr.page))
                .inspect_err(|_| self.flush_list.push(frame))?;
            fr.dirty = false;
        }
        Ok(())
    }

    /// Durability barrier: flush every dirty frame, then ask the device to
    /// put all acknowledged writes on stable storage. Sealing and manifest
    /// commits place this between the data body and the commit record so
    /// the write order the format relies on survives a crash.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.device.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::policy::{Lru, PrefixPriority, SegmentedLru};

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Box::new(MemDevice::new()), cap, Box::<Lru>::default())
    }

    #[test]
    fn read_your_writes_through_cache() {
        let mut p = pool(2);
        p.write(0, |b| b[10] = 42).unwrap();
        assert_eq!(p.read(0, |b| b[10]).unwrap(), 42);
        assert_eq!(p.misses(), 1);
        assert_eq!(p.hits(), 1);
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let mut p = pool(1);
        p.write(0, |b| b[0] = 1).unwrap();
        p.write(1, |b| b[0] = 2).unwrap(); // evicts page 0, must flush it
        p.write(2, |b| b[0] = 3).unwrap();
        assert_eq!(p.read(0, |b| b[0]).unwrap(), 1);
        assert_eq!(p.read(1, |b| b[0]).unwrap(), 2);
        assert_eq!(p.read(2, |b| b[0]).unwrap(), 3);
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut seq = pool(4);
        for round in 0..10 {
            for page in 0..4u32 {
                seq.read(page, |_| ()).unwrap();
                let _ = round;
            }
        }
        assert!(seq.hit_rate() > 0.8, "rate {}", seq.hit_rate());
        // A pool of 1 thrashing over 4 pages never hits.
        let mut thrash = pool(1);
        for _ in 0..5 {
            for page in 0..4u32 {
                thrash.read(page, |_| ()).unwrap();
            }
        }
        assert_eq!(thrash.hits(), 0);
    }

    #[test]
    fn flush_writes_dirty_frames_once() {
        let mut p = pool(4);
        p.write(0, |b| b[0] = 9).unwrap();
        p.write(1, |b| b[0] = 8).unwrap();
        p.flush().unwrap();
        let w = p.io_stats().writes();
        p.flush().unwrap(); // nothing dirty anymore
        assert_eq!(p.io_stats().writes(), w);
    }

    #[test]
    fn sync_flushes_then_issues_device_barrier() {
        let mut p = pool(4);
        p.write(0, |b| b[0] = 1).unwrap();
        p.sync().unwrap();
        assert_eq!(p.io_stats().writes(), 1);
        assert_eq!(p.io_stats().syncs(), 1);
        p.sync().unwrap(); // nothing dirty: barrier only
        assert_eq!(p.io_stats().writes(), 1);
        assert_eq!(p.io_stats().syncs(), 2);
    }

    #[test]
    fn prefix_priority_protects_low_pages() {
        let mut p =
            BufferPool::new(Box::new(MemDevice::new()), 2, Box::<PrefixPriority>::default());
        p.read(0, |_| ()).unwrap();
        p.read(50, |_| ()).unwrap();
        p.read(60, |_| ()).unwrap(); // evicts 50, not 0
        let misses = p.misses();
        p.read(0, |_| ()).unwrap(); // still resident
        assert_eq!(p.misses(), misses);
    }

    #[test]
    fn cache_stats_handle_counts_evictions_and_outlives_borrows() {
        // Regression for the Cell-based counters: stats must be readable
        // from a shared handle (Sync) and evictions must be counted.
        fn is_sync<T: Sync + Send>(_: &T) {}
        let mut p = pool(2);
        let stats = p.stats_handle();
        is_sync(&*stats);
        assert_eq!(stats.evictions(), 0);
        p.read(0, |_| ()).unwrap();
        p.read(1, |_| ()).unwrap();
        p.read(2, |_| ()).unwrap(); // full pool: this miss evicts
        let snap = stats.snapshot();
        assert_eq!(snap.misses, 3);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.accesses(), 3);
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(CacheStatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn pinned_pages_survive_any_traffic() {
        let mut p = pool(3);
        p.write(7, |b| b[0] = 77).unwrap();
        assert!(p.pin(7).unwrap());
        assert!(p.is_pinned(7));
        assert_eq!(p.pinned_count(), 1);
        let misses_after_pin = p.misses();
        for page in 100..160u32 {
            p.read(page, |_| ()).unwrap();
        }
        // Page 7 never left: re-reading it is a hit.
        let m = p.misses();
        assert_eq!(p.read(7, |b| b[0]).unwrap(), 77);
        assert_eq!(p.misses(), m);
        assert!(p.misses() > misses_after_pin);
        assert!(p.unpin(7));
        assert!(!p.is_pinned(7));
        assert!(!p.unpin(7), "second unpin of a single pin must fail");
    }

    #[test]
    fn pin_refuses_to_exhaust_the_pool() {
        let mut p = pool(2);
        assert!(p.pin(0).unwrap());
        // A second pinned frame would leave nothing evictable.
        assert!(!p.pin(1).unwrap());
        assert_eq!(p.pinned_count(), 1);
        // Re-pinning an already-pinned page is fine (same frame).
        assert!(p.pin(0).unwrap());
        assert!(p.unpin(0));
        assert!(p.is_pinned(0), "first unpin drops to one outstanding pin");
        assert!(p.unpin(0));
        assert!(!p.is_pinned(0));
    }

    #[test]
    fn release_frees_frame_for_reuse() {
        let mut p = pool(2);
        p.write(0, |b| b[0] = 5).unwrap();
        assert!(p.release(0).unwrap());
        assert!(!p.release(0).unwrap(), "already released");
        // The write was persisted on release.
        assert_eq!(p.read(0, |b| b[0]).unwrap(), 5);
        // A pinned page refuses to release.
        p.pin(0).unwrap();
        assert!(!p.release(0).unwrap());
    }

    #[test]
    fn all_pinned_pool_errors_on_demand_miss() {
        let mut p = pool(1);
        // Capacity 1 refuses the pin that would exhaust it.
        assert!(!p.pin(0).unwrap());
        // Force the exhaustion path via a pool of 2 with both frames held:
        // one pinned, one pinned via a second page is refused, so instead
        // pin one and fill + pin attempt on the other.
        let mut p2 = pool(2);
        assert!(p2.pin(0).unwrap());
        p2.read(1, |_| ()).unwrap();
        // Demand miss can still evict the unpinned frame.
        p2.read(2, |_| ()).unwrap();
        assert_eq!(p2.read(0, |b| b.len()).unwrap(), PAGE_SIZE);
    }

    #[test]
    fn scan_hint_protects_hot_set_under_slru() {
        // Hot set: pages 0..4 touched twice (promoted). Then a long scan
        // sweeps pages 100..140 through a 8-frame pool. Under SLRU the hot
        // pages survive; re-reading them afterwards stays hit-only.
        let mut p = BufferPool::new(Box::new(MemDevice::new()), 8, Box::<SegmentedLru>::default());
        for page in 0..4u32 {
            p.read(page, |_| ()).unwrap();
            p.read(page, |_| ()).unwrap();
        }
        p.begin_scan();
        for page in 100..140u32 {
            p.read(page, |_| ()).unwrap();
        }
        p.end_scan();
        let misses = p.misses();
        for page in 0..4u32 {
            p.read(page, |_| ()).unwrap();
        }
        assert_eq!(p.misses(), misses, "scan flushed the hot set");
    }
}
