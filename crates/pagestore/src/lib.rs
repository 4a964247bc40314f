//! Disk substrate for the SPINE reproduction.
//!
//! The paper's §6.2 experiments run the indexes disk-resident ("generic …
//! indexes on disk without any extra disk-specific optimization", with
//! synchronous writes). This crate provides that environment:
//!
//! * [`device`] — a page-granular storage device. [`device::MemDevice`]
//!   counts every page read/write (the locality signal the paper's disk
//!   numbers express); [`device::FileDevice`] is a real file,
//!   optionally fsync-per-write to reproduce the paper's `O_SYNC` artifact.
//! * [`pool`] — a buffer pool (frame table + hash map) with pluggable
//!   eviction.
//! * [`policy`] — LRU, FIFO, Clock, the scan-resistant
//!   [`policy::SegmentedLru`] used by the hot-page tier, and the paper's
//!   SPINE-specific **prefix-priority** policy ("retain as much as possible
//!   of the top part of the Link Table in memory", justified by Figure 8's
//!   link-destination distribution).
//! * [`paged`] — [`paged::PagedVec`]: a vector of fixed-size
//!   records striped over pages; the disk-resident SPINE and suffix-tree
//!   engines store their node arrays in these.

pub mod device;
pub mod paged;
pub mod policy;
pub mod pool;
pub mod slotted;
pub mod varint;

pub use device::{
    FaultyDevice, FileDevice, FlakyDevice, IoGate, IoStats, MemDevice, PageDevice, RetryDevice,
    RetryPolicy, PAGE_SIZE,
};
pub use paged::PagedVec;
pub use policy::{Clock, EvictionPolicy, Fifo, Lru, PrefixPriority, SegmentedLru};
pub use pool::{BufferPool, CacheStats, CacheStatsSnapshot};
pub use slotted::{slotted_record, PageHeader, SlottedPageBuilder, PAGE_FORMAT_V2};
pub use varint::{read_varint, varint_len, write_varint, MAX_VARINT_LEN};
