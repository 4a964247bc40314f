//! Page-granular storage devices, plus the fault-injection and retry
//! wrappers used to prove the stack degrades cleanly under storage failure.
//!
//! The wrapper devices compose: a [`RetryDevice`] over a [`FlakyDevice`]
//! over a [`MemDevice`] is a storage stack that suffers transient faults
//! and rides them out; a [`FaultyDevice`] injects a *permanent* fault at an
//! exact operation index of its [`IoGate`], which the `exp faults`
//! crashpoint sweeps use to hit every I/O site of a recorded trace (a
//! segment store shares one gate across its devices and file operations).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use strindex::telemetry::{Counter, Histogram, MetricsRegistry, Stage};
use strindex::{Error, IoOp, Result};

/// Fixed page size, matching a common filesystem block multiple.
pub const PAGE_SIZE: usize = 4096;

/// Cumulative I/O counters. Page counts are the hardware-independent
/// locality signal used to reproduce the shape of the paper's disk results.
///
/// Counters are relaxed atomics so devices stay `Send + Sync`-compatible
/// and can sit behind a shared index serving concurrent queries.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
}

impl IoStats {
    /// Pages read from the device.
    pub fn reads(&self) -> u64 {
        self.reads.load(Relaxed)
    }

    /// Pages written to the device.
    pub fn writes(&self) -> u64 {
        self.writes.load(Relaxed)
    }

    /// Explicit syncs issued (fsync-per-write devices).
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Relaxed)
    }

    /// Total page operations (reads + writes) — the operation index space
    /// the crashpoint sweep enumerates.
    pub fn ops(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.reads.store(0, Relaxed);
        self.writes.store(0, Relaxed);
        self.syncs.store(0, Relaxed);
    }

    #[inline]
    fn count_read(&self) {
        self.reads.fetch_add(1, Relaxed);
    }

    #[inline]
    fn count_write(&self) {
        self.writes.fetch_add(1, Relaxed);
    }

    #[inline]
    fn count_sync(&self) {
        self.syncs.fetch_add(1, Relaxed);
    }
}

/// A device storing fixed-size pages addressed by index.
///
/// `Send` so a device (and anything built over one) can live behind a
/// mutex shared across a query-engine worker pool.
pub trait PageDevice: Send {
    /// Read page `id` into `buf` (must be `PAGE_SIZE` long). Reading a
    /// never-written page yields zeroes.
    fn read_page(&mut self, id: u32, buf: &mut [u8]) -> Result<()>;

    /// Write page `id` from `buf`.
    fn write_page(&mut self, id: u32, buf: &[u8]) -> Result<()>;

    /// Number of pages the device currently holds.
    fn page_count(&self) -> u32;

    /// Durability barrier: block until every previously acknowledged write
    /// is on stable storage. Ordering-critical writers (the sealed-layout
    /// header page, manifest commits) call this between "body written" and
    /// "commit record written" — without it, "header written last" is only
    /// a program-order fact, not a media-order one.
    fn sync(&mut self) -> Result<()>;

    /// I/O counters.
    fn stats(&self) -> &IoStats;
}

/// An in-memory device: precise counting, no hardware noise. This is the
/// default substrate for the disk experiments (see DESIGN.md §4 on the
/// substitution for the paper's 2004 IDE disk).
#[derive(Default)]
pub struct MemDevice {
    pages: Vec<Box<[u8]>>,
    stats: IoStats,
}

impl MemDevice {
    /// An empty device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageDevice for MemDevice {
    fn read_page(&mut self, id: u32, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.stats.count_read();
        match self.pages.get(id as usize) {
            Some(p) => buf.copy_from_slice(p),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_page(&mut self, id: u32, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.stats.count_write();
        while self.pages.len() <= id as usize {
            self.pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
        }
        self.pages[id as usize].copy_from_slice(buf);
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    fn sync(&mut self) -> Result<()> {
        // Memory is "stable" the moment the write returns; count the
        // barrier so op-trace shapes match the file-backed device.
        self.stats.count_sync();
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// A real file device; when `sync_writes` is set, every page write is
/// followed by `sync_data`, reproducing the paper's `O_SYNC` measurement
/// artifact ("the absolute times are large due to our synchronous disk
/// write artifact").
pub struct FileDevice {
    file: File,
    pages: u32,
    sync_writes: bool,
    stats: IoStats,
}

impl FileDevice {
    /// Create (truncate) a device file at `path`.
    pub fn create<P: AsRef<Path>>(path: P, sync_writes: bool) -> Result<Self> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::io(e, IoOp::Meta, None))?;
        Ok(FileDevice { file, pages: 0, sync_writes, stats: IoStats::default() })
    }

    /// Open an existing device file at `path`, recovering its page count
    /// from the file length.
    pub fn open<P: AsRef<Path>>(path: P, sync_writes: bool) -> Result<Self> {
        let file = File::options()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| Error::io(e, IoOp::Meta, None))?;
        let len = file.metadata().map_err(|e| Error::io(e, IoOp::Meta, None))?.len();
        let pages = len.div_ceil(PAGE_SIZE as u64) as u32;
        Ok(FileDevice { file, pages, sync_writes, stats: IoStats::default() })
    }
}

impl PageDevice for FileDevice {
    fn read_page(&mut self, id: u32, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.stats.count_read();
        if id >= self.pages {
            buf.fill(0);
            return Ok(());
        }
        let io = |e| Error::io(e, IoOp::Read, Some(id));
        self.file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64)).map_err(io)?;
        self.file.read_exact(buf).map_err(io)?;
        Ok(())
    }

    fn write_page(&mut self, id: u32, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.stats.count_write();
        let io = |e| Error::io(e, IoOp::Write, Some(id));
        if id >= self.pages {
            // Extend with zero pages up to id.
            let zeroes = vec![0u8; PAGE_SIZE];
            self.file.seek(SeekFrom::Start(self.pages as u64 * PAGE_SIZE as u64)).map_err(io)?;
            for _ in self.pages..id {
                self.file.write_all(&zeroes).map_err(io)?;
            }
            self.pages = id + 1;
        }
        self.file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64)).map_err(io)?;
        self.file.write_all(buf).map_err(io)?;
        if self.sync_writes {
            self.file.sync_data().map_err(|e| Error::io(e, IoOp::Sync, Some(id)))?;
            self.stats.count_sync();
        }
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.pages
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| Error::io(e, IoOp::Sync, None))?;
        self.stats.count_sync();
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// Fault injection and retry.
// ---------------------------------------------------------------------------

/// A shared, countable I/O-operation budget for crash injection.
///
/// Unarmed gates only count operations, so a harness can measure how many
/// a workload performs; armed gates also fail every operation from a chosen
/// index on, **permanently**, like a crashed process. Clones share one
/// count: a gate shared by several devices and by file-level operations (a
/// segment store's manifest and journal) enumerates every point a real
/// crash could hit.
#[derive(Clone)]
pub struct IoGate {
    ops: Arc<AtomicU64>,
    /// Every operation from this index on fails.
    fail_from: u64,
}

impl IoGate {
    /// A counting-only gate: never fails.
    pub fn unarmed() -> Self {
        Self::armed(u64::MAX)
    }

    /// A gate that lets `budget` operations through and then fails every
    /// operation, permanently.
    pub fn armed(budget: u64) -> Self {
        IoGate { ops: Arc::default(), fail_from: budget }
    }

    /// Operations charged so far (failed attempts count too).
    pub fn ops(&self) -> u64 {
        self.ops.load(Relaxed)
    }

    /// Charge one `op` (on `page`, when page-granular): `Err` once the
    /// budget is spent.
    pub fn charge(&self, op: IoOp, page: Option<u32>) -> Result<()> {
        let k = self.ops.fetch_add(1, Relaxed);
        if k >= self.fail_from {
            let e = std::io::Error::other(format!("injected fault at I/O op {k}"));
            return Err(Error::io(e, op, page));
        }
        Ok(())
    }
}

/// A fault-injection wrapper: charges every read, write and sync to an
/// [`IoGate`] before forwarding it, so once the gate's budget is spent
/// every call fails with a **permanent** I/O error. Used by the crashpoint
/// sweeps to verify that the buffer pool and the engines built on it
/// propagate storage failures as `Err` instead of corrupting state or
/// panicking.
pub struct FaultyDevice<D: PageDevice> {
    inner: D,
    gate: IoGate,
}

impl<D: PageDevice> FaultyDevice<D> {
    /// Fail every operation after the first `ops_before_failure` succeed
    /// (a gate of its own).
    pub fn new(inner: D, ops_before_failure: u64) -> Self {
        Self::gated(inner, IoGate::armed(ops_before_failure))
    }

    /// Charge every operation to `gate`, which other devices and file
    /// operations may share.
    pub fn gated(inner: D, gate: IoGate) -> Self {
        FaultyDevice { inner, gate }
    }
}

impl<D: PageDevice> PageDevice for FaultyDevice<D> {
    fn read_page(&mut self, id: u32, buf: &mut [u8]) -> Result<()> {
        self.gate.charge(IoOp::Read, Some(id))?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: u32, buf: &[u8]) -> Result<()> {
        self.gate.charge(IoOp::Write, Some(id))?;
        self.inner.write_page(id, buf)
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn sync(&mut self) -> Result<()> {
        // A sync is a faultable operation like any other: fsync can fail,
        // and the crashpoint sweep must be able to land exactly on it.
        self.gate.charge(IoOp::Sync, None)?;
        self.inner.sync()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

enum FlakyMode {
    /// Each operation fails independently with this probability.
    Probability { p: f64, rng: SmallRng },
    /// Operations with index in `[start, start + len)` fail.
    Burst { start: u64, len: u64 },
}

/// A device suffering **transient** faults: failed operations return a
/// retryable error ([`strindex::Error::is_transient`]) and leave the inner
/// device untouched, so a later attempt of the same operation can succeed.
/// Deterministic: the probabilistic mode draws from the seeded in-tree
/// `SmallRng`, and the burst mode fails an exact window of operation
/// indices.
pub struct FlakyDevice<D: PageDevice> {
    inner: D,
    mode: FlakyMode,
    attempts: u64,
}

impl<D: PageDevice> FlakyDevice<D> {
    /// Fail each operation independently with probability `p` (seeded, so
    /// the fault schedule is reproducible).
    pub fn with_probability(inner: D, p: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "fault probability must be in [0, 1)");
        FlakyDevice {
            inner,
            mode: FlakyMode::Probability { p, rng: SmallRng::seed_from_u64(seed) },
            attempts: 0,
        }
    }

    /// Fail the `len` operations starting at attempt index `start` (a
    /// single outage burst), succeed everywhere else.
    pub fn with_burst(inner: D, start: u64, len: u64) -> Self {
        FlakyDevice { inner, mode: FlakyMode::Burst { start, len }, attempts: 0 }
    }

    /// Operations attempted so far (including failed ones — retries of one
    /// logical operation each count).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    fn trip(&mut self, op: IoOp, page: u32) -> Result<()> {
        let k = self.attempts;
        self.attempts += 1;
        let fail = match &mut self.mode {
            FlakyMode::Probability { p, rng } => rng.gen_bool(*p),
            FlakyMode::Burst { start, len } => k >= *start && k < *start + *len,
        };
        if fail {
            return Err(Error::io(
                std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!("injected transient device fault (op {k})"),
                ),
                op,
                Some(page),
            ));
        }
        Ok(())
    }
}

impl<D: PageDevice> PageDevice for FlakyDevice<D> {
    fn read_page(&mut self, id: u32, buf: &mut [u8]) -> Result<()> {
        self.trip(IoOp::Read, id)?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: u32, buf: &[u8]) -> Result<()> {
        self.trip(IoOp::Write, id)?;
        self.inner.write_page(id, buf)
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn sync(&mut self) -> Result<()> {
        self.trip(IoOp::Sync, 0)?;
        self.inner.sync()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

/// Retry schedule for a [`RetryDevice`]: bounded exponential backoff with
/// deterministic jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries per operation after the initial attempt.
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_delay << k` (capped), plus jitter.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the jitter generator (deterministic per device instance).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps — for tests and in-memory fault drills.
    pub fn immediate(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed: 0x5EED,
        }
    }
}

/// Registry handles the retry layer feeds ([`RetryDevice::attach_telemetry`]):
/// backoff sleeps land in the shared [`Stage::RetryBackoff`] histogram, and
/// absorbed retries are counted per operation kind (the `IoContext`
/// annotation the error taxonomy already carries).
struct RetryTelemetry {
    backoff: Arc<Histogram>,
    retries_read: Arc<Counter>,
    retries_write: Arc<Counter>,
    exhausted: Arc<Counter>,
}

/// A retry layer over any [`PageDevice`]: **transient** errors (see
/// [`strindex::Error::is_transient`]) are retried up to
/// [`RetryPolicy::max_retries`] times with bounded exponential backoff and
/// deterministic jitter; permanent errors propagate immediately.
pub struct RetryDevice<D: PageDevice> {
    inner: D,
    policy: RetryPolicy,
    jitter: SmallRng,
    retries: u64,
    exhausted: u64,
    telemetry: Option<RetryTelemetry>,
}

impl<D: PageDevice> RetryDevice<D> {
    /// Wrap `inner` with the given retry schedule.
    pub fn new(inner: D, policy: RetryPolicy) -> Self {
        RetryDevice {
            inner,
            policy,
            jitter: SmallRng::seed_from_u64(policy.seed),
            retries: 0,
            exhausted: 0,
            telemetry: None,
        }
    }

    /// Record this device's retry activity into `registry`: backoff sleeps
    /// into the [`Stage::RetryBackoff`] histogram, absorbed retries into
    /// `io.retries.read` / `io.retries.write`, and budget exhaustions into
    /// `io.retry_exhausted`.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.telemetry = Some(RetryTelemetry {
            backoff: registry.stage(Stage::RetryBackoff),
            retries_read: registry.counter("io.retries.read"),
            retries_write: registry.counter("io.retries.write"),
            exhausted: registry.counter("io.retry_exhausted"),
        });
    }

    /// Transient faults absorbed (each is one re-attempted operation).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Operations that stayed transiently failing past the retry budget
    /// (their final transient error was propagated to the caller).
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn backoff(&mut self, attempt: u32) {
        if self.policy.base_delay.is_zero() {
            // Record the zero sleep too: the backoff histogram then counts
            // every absorbed retry even under immediate (test) policies.
            if let Some(t) = &self.telemetry {
                t.backoff.record(Duration::ZERO);
            }
            return;
        }
        let shift = attempt.min(16);
        let exp = self.policy.base_delay.saturating_mul(1u32 << shift).min(self.policy.max_delay);
        // Deterministic jitter in [0, exp/2]: decorrelates device instances
        // without losing reproducibility (the rng is seeded per device).
        let jitter_ns =
            if exp.is_zero() { 0 } else { self.jitter.gen_range(0..=exp.as_nanos() as u64 / 2) };
        let sleep = exp + Duration::from_nanos(jitter_ns);
        if let Some(t) = &self.telemetry {
            t.backoff.record(sleep);
        }
        std::thread::sleep(sleep);
    }

    fn with_retry<T>(&mut self, kind: IoOp, mut op: impl FnMut(&mut D) -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            match op(&mut self.inner) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    self.retries += 1;
                    if let Some(t) = &self.telemetry {
                        match kind {
                            IoOp::Write => t.retries_write.incr(),
                            _ => t.retries_read.incr(),
                        }
                    }
                    self.backoff(attempt);
                    attempt += 1;
                }
                Err(e) => {
                    if e.is_transient() {
                        self.exhausted += 1;
                        if let Some(t) = &self.telemetry {
                            t.exhausted.incr();
                        }
                    }
                    return Err(e);
                }
            }
        }
    }
}

impl<D: PageDevice> PageDevice for RetryDevice<D> {
    fn read_page(&mut self, id: u32, buf: &mut [u8]) -> Result<()> {
        self.with_retry(IoOp::Read, |d| d.read_page(id, buf))
    }

    fn write_page(&mut self, id: u32, buf: &[u8]) -> Result<()> {
        self.with_retry(IoOp::Write, |d| d.write_page(id, buf))
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn sync(&mut self) -> Result<()> {
        self.with_retry(IoOp::Sync, |d| d.sync())
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(dev: &mut dyn PageDevice) {
        let mut a = [0u8; PAGE_SIZE];
        a[0] = 7;
        a[PAGE_SIZE - 1] = 9;
        dev.write_page(3, &a).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        dev.read_page(3, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        assert_eq!(buf[PAGE_SIZE - 1], 9);
        // Unwritten (but allocated) page reads back zeroes.
        dev.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert!(dev.page_count() >= 4);
        assert_eq!(dev.stats().reads(), 2);
        assert_eq!(dev.stats().writes(), 1);
        assert_eq!(dev.stats().ops(), 3);
    }

    #[test]
    fn mem_device_round_trip() {
        round_trip(&mut MemDevice::new());
    }

    #[test]
    fn file_device_round_trip() {
        let dir = std::env::temp_dir().join("pagestore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dev-{}.bin", std::process::id()));
        round_trip(&mut FileDevice::create(&path, false).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_device_sync_counts() {
        let dir = std::env::temp_dir().join("pagestore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dev-sync-{}.bin", std::process::id()));
        let mut dev = FileDevice::create(&path, true).unwrap();
        dev.write_page(0, &[1u8; PAGE_SIZE]).unwrap();
        dev.write_page(1, &[2u8; PAGE_SIZE]).unwrap();
        assert_eq!(dev.stats().syncs(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_barrier_counts_and_is_faultable() {
        let mut mem = MemDevice::new();
        mem.sync().unwrap();
        assert_eq!(mem.stats().syncs(), 1);

        let dir = std::env::temp_dir().join("pagestore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dev-barrier-{}.bin", std::process::id()));
        let mut dev = FileDevice::create(&path, false).unwrap();
        dev.write_page(0, &[3u8; PAGE_SIZE]).unwrap();
        dev.sync().unwrap();
        assert_eq!(dev.stats().syncs(), 1);
        std::fs::remove_file(&path).ok();

        // The barrier spends fault budget like reads and writes do.
        let mut faulty = FaultyDevice::new(MemDevice::new(), 1);
        assert!(faulty.sync().is_ok());
        let e = faulty.sync().unwrap_err();
        assert!(!e.is_transient());

        // And the retry layer rides out a transiently failing barrier.
        let flaky = FlakyDevice::with_burst(MemDevice::new(), 0, 2);
        let mut d = RetryDevice::new(flaky, RetryPolicy::immediate(4));
        d.sync().unwrap();
        assert_eq!(d.retries(), 2);
    }

    #[test]
    fn never_written_page_is_zero() {
        let mut dev = MemDevice::new();
        let mut buf = [1u8; PAGE_SIZE];
        dev.read_page(42, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(dev.page_count(), 0);
    }

    #[test]
    fn stats_count_from_threads() {
        let stats = IoStats::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        stats.count_read();
                        stats.count_write();
                    }
                });
            }
        });
        assert_eq!(stats.reads(), 4_000);
        assert_eq!(stats.writes(), 4_000);
        assert_eq!(stats.ops(), 8_000);
    }

    #[test]
    fn devices_are_send() {
        fn is_send<T: Send>() {}
        is_send::<MemDevice>();
        is_send::<FileDevice>();
        is_send::<FaultyDevice<MemDevice>>();
        is_send::<FlakyDevice<MemDevice>>();
        is_send::<RetryDevice<FlakyDevice<MemDevice>>>();
        is_send::<Box<dyn PageDevice>>();
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::*;

    #[test]
    fn fails_after_budget() {
        let mut d = FaultyDevice::new(MemDevice::new(), 2);
        let buf = [0u8; PAGE_SIZE];
        assert!(d.write_page(0, &buf).is_ok());
        assert!(d.write_page(1, &buf).is_ok());
        assert!(d.write_page(2, &buf).is_err());
        let mut rbuf = [0u8; PAGE_SIZE];
        assert!(d.read_page(0, &mut rbuf).is_err());
    }

    #[test]
    fn hard_faults_are_permanent_and_contextual() {
        let mut d = FaultyDevice::new(MemDevice::new(), 0);
        let mut buf = [0u8; PAGE_SIZE];
        let e = d.read_page(7, &mut buf).unwrap_err();
        assert!(!e.is_transient());
        let msg = e.to_string();
        assert!(msg.contains("read of page 7"), "{msg}");
    }

    #[test]
    fn a_shared_gate_spends_one_budget_across_devices() {
        let gate = IoGate::armed(3);
        let mut a = FaultyDevice::gated(MemDevice::new(), gate.clone());
        let mut b = FaultyDevice::gated(MemDevice::new(), gate.clone());
        let buf = [0u8; PAGE_SIZE];
        a.write_page(0, &buf).unwrap();
        b.write_page(0, &buf).unwrap();
        gate.charge(IoOp::Meta, None).unwrap(); // a file operation
        let e = b.write_page(5, &buf).unwrap_err();
        assert!(!e.is_transient());
        assert!(e.to_string().contains("write of page 5"), "{e}");
        assert!(a.sync().is_err(), "the fault is permanent for every holder");
        assert_eq!(gate.ops(), 5, "failed attempts count too");
        let counting = IoGate::unarmed();
        let mut c = FaultyDevice::gated(MemDevice::new(), counting.clone());
        c.sync().unwrap();
        assert_eq!(counting.ops(), 1);
    }

    #[test]
    fn flaky_burst_fails_exact_window() {
        let mut d = FlakyDevice::with_burst(MemDevice::new(), 2, 3);
        let buf = [0u8; PAGE_SIZE];
        assert!(d.write_page(0, &buf).is_ok()); // op 0
        assert!(d.write_page(1, &buf).is_ok()); // op 1
        for _ in 0..3 {
            let e = d.write_page(2, &buf).unwrap_err(); // ops 2..5 fail
            assert!(e.is_transient());
        }
        assert!(d.write_page(2, &buf).is_ok()); // op 5: burst over
        assert_eq!(d.attempts(), 6);
        // The inner device saw only the successful operations.
        assert_eq!(d.stats().writes(), 3);
    }

    #[test]
    fn flaky_probability_is_deterministic_per_seed() {
        let schedule = |seed: u64| -> Vec<bool> {
            let mut d = FlakyDevice::with_probability(MemDevice::new(), 0.3, seed);
            let buf = [0u8; PAGE_SIZE];
            (0..64).map(|_| d.write_page(0, &buf).is_ok()).collect()
        };
        assert_eq!(schedule(1), schedule(1));
        assert_ne!(schedule(1), schedule(2));
        let fails = schedule(1).iter().filter(|ok| !**ok).count();
        assert!((5..30).contains(&fails), "p=0.3 over 64 ops failed {fails} times");
    }

    #[test]
    fn retry_rides_out_transient_burst() {
        let flaky = FlakyDevice::with_burst(MemDevice::new(), 1, 3);
        let mut d = RetryDevice::new(flaky, RetryPolicy::immediate(4));
        let buf = [1u8; PAGE_SIZE];
        d.write_page(0, &buf).unwrap(); // op 0 clean
        d.write_page(1, &buf).unwrap(); // ops 1..4 transient, absorbed
        assert_eq!(d.retries(), 3);
        assert_eq!(d.exhausted(), 0);
        let mut rbuf = [0u8; PAGE_SIZE];
        d.read_page(1, &mut rbuf).unwrap();
        assert_eq!(rbuf[0], 1);
    }

    #[test]
    fn retry_budget_exhaustion_propagates_transient_error() {
        let flaky = FlakyDevice::with_burst(MemDevice::new(), 0, 100);
        let mut d = RetryDevice::new(flaky, RetryPolicy::immediate(3));
        let buf = [0u8; PAGE_SIZE];
        let e = d.write_page(0, &buf).unwrap_err();
        assert!(e.is_transient());
        assert_eq!(d.retries(), 3);
        assert_eq!(d.exhausted(), 1);
    }

    #[test]
    fn retry_telemetry_feeds_registry_per_op() {
        let reg = MetricsRegistry::new();
        let flaky = FlakyDevice::with_burst(MemDevice::new(), 1, 2);
        let mut d = RetryDevice::new(flaky, RetryPolicy::immediate(4));
        d.attach_telemetry(&reg);
        let buf = [1u8; PAGE_SIZE];
        d.write_page(0, &buf).unwrap(); // op 0 clean
        d.write_page(1, &buf).unwrap(); // ops 1..3 transient, absorbed
        let mut rbuf = [0u8; PAGE_SIZE];
        d.read_page(1, &mut rbuf).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("io.retries.write"), Some(2));
        assert_eq!(snap.counter("io.retries.read"), Some(0));
        assert_eq!(snap.counter("io.retry_exhausted"), Some(0));
        // Every absorbed retry recorded a backoff (zero-length here).
        assert_eq!(snap.stage(Stage::RetryBackoff).unwrap().count, 2);

        // Exhaustion counts into the same registry.
        let flaky = FlakyDevice::with_burst(MemDevice::new(), 0, 100);
        let mut d = RetryDevice::new(flaky, RetryPolicy::immediate(1));
        d.attach_telemetry(&reg);
        assert!(d.read_page(0, &mut rbuf).is_err());
        assert_eq!(reg.snapshot().counter("io.retry_exhausted"), Some(1));
    }

    #[test]
    fn retry_does_not_mask_permanent_faults() {
        let faulty = FaultyDevice::new(MemDevice::new(), 0);
        let mut d = RetryDevice::new(faulty, RetryPolicy::immediate(8));
        let buf = [0u8; PAGE_SIZE];
        let e = d.write_page(0, &buf).unwrap_err();
        assert!(!e.is_transient());
        assert_eq!(d.retries(), 0, "permanent faults must not be retried");
    }
}
