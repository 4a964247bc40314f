//! A vector of fixed-size records striped over buffer-pool pages.
//!
//! Records never straddle a page boundary (records-per-page =
//! `PAGE_SIZE / record_size`), matching how the "generic on-disk index
//! without disk-specific optimization" of the paper's §6.2 lays out node
//! arrays. The disk-resident SPINE and suffix-tree engines store their node
//! tables in these.

use crate::device::{IoStats, PageDevice, PAGE_SIZE};
use crate::policy::EvictionPolicy;
use crate::pool::BufferPool;
use strindex::Result;

/// A growable array of `record_size`-byte records behind a buffer pool.
pub struct PagedVec {
    pool: BufferPool,
    record_size: usize,
    per_page: usize,
    len: usize,
}

impl PagedVec {
    /// A paged vector over `device` with the given pool capacity (pages)
    /// and eviction policy.
    pub fn new(
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
        record_size: usize,
    ) -> Self {
        assert!((1..=PAGE_SIZE).contains(&record_size));
        PagedVec {
            pool: BufferPool::new(device, pool_pages, policy),
            record_size,
            per_page: PAGE_SIZE / record_size,
            len: 0,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per record.
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    #[inline]
    fn locate(&self, index: usize) -> (u32, usize) {
        let page = (index / self.per_page) as u32;
        let off = (index % self.per_page) * self.record_size;
        (page, off)
    }

    /// Append a zeroed record, returning its index.
    pub fn push_zeroed(&mut self) -> Result<usize> {
        let index = self.len;
        let (page, off) = self.locate(index);
        let rs = self.record_size;
        self.pool.write(page, |buf| buf[off..off + rs].fill(0))?;
        self.len += 1;
        Ok(index)
    }

    /// Read record `index`.
    pub fn read<R>(&mut self, index: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        assert!(index < self.len, "record {index} out of bounds ({})", self.len);
        let (page, off) = self.locate(index);
        let rs = self.record_size;
        self.pool.read(page, |buf| f(&buf[off..off + rs]))
    }

    /// Mutate record `index`.
    pub fn write<R>(&mut self, index: usize, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        assert!(index < self.len, "record {index} out of bounds ({})", self.len);
        let (page, off) = self.locate(index);
        let rs = self.record_size;
        self.pool.write(page, |buf| f(&mut buf[off..off + rs]))
    }

    /// Flush dirty pages to the device.
    pub fn flush(&mut self) -> Result<()> {
        self.pool.flush()
    }

    /// Device I/O counters.
    pub fn io_stats(&self) -> &IoStats {
        self.pool.io_stats()
    }

    /// The underlying pool (hit/miss counters).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Mutable access to the pool (pinning, scan hints).
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// The page holding record `index` (the uniform fixed-size mapping).
    pub fn page_of(&self, index: usize) -> u32 {
        (index / self.per_page) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::policy::Lru;

    fn pv(record_size: usize, pool_pages: usize) -> PagedVec {
        PagedVec::new(Box::new(MemDevice::new()), pool_pages, Box::<Lru>::default(), record_size)
    }

    #[test]
    fn push_and_round_trip() {
        let mut v = pv(16, 2);
        for i in 0..100usize {
            let idx = v.push_zeroed().unwrap();
            assert_eq!(idx, i);
            v.write(idx, |r| r[..8].copy_from_slice(&(i as u64).to_le_bytes())).unwrap();
        }
        for i in 0..100usize {
            let got = v.read(i, |r| u64::from_le_bytes(r[..8].try_into().unwrap())).unwrap();
            assert_eq!(got, i as u64);
        }
    }

    #[test]
    fn records_do_not_straddle_pages() {
        // 4096 / 100 = 40 records per page with 96 slack bytes.
        let mut v = pv(100, 1);
        for _ in 0..85 {
            v.push_zeroed().unwrap();
        }
        v.write(39, |r| r.fill(1)).unwrap(); // last record of page 0
        v.write(40, |r| r.fill(2)).unwrap(); // first record of page 1
        assert!(v.read(39, |r| r.iter().all(|&b| b == 1)).unwrap());
        assert!(v.read(40, |r| r.iter().all(|&b| b == 2)).unwrap());
    }

    #[test]
    fn survives_eviction_pressure() {
        let mut v = pv(512, 1); // 8 records per page, single-frame pool
        for i in 0..64usize {
            v.push_zeroed().unwrap();
            v.write(i, |r| r[0] = i as u8).unwrap();
        }
        for i in (0..64usize).rev() {
            assert_eq!(v.read(i, |r| r[0]).unwrap(), i as u8);
        }
        assert!(v.io_stats().writes() > 0, "evictions must write back");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let mut v = pv(8, 1);
        v.push_zeroed().unwrap();
        let _ = v.read(1, |_| ());
    }
}
