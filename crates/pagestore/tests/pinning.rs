//! Pinning contract, enforced under arbitrary traffic.
//!
//! A pinned page is a promise: whatever the eviction policy, whatever the
//! fetch/scan sequence thrown at the pool, the frame stays
//! resident and its bytes stay addressable. These proptests drive pools
//! with every shipped policy through random operation scripts and check
//! the promise after every step.

use pagestore::{BufferPool, Clock, EvictionPolicy, Fifo, Lru, MemDevice, SegmentedLru};
use proptest::prelude::*;

const PAGES: u32 = 24;

/// Pool over a device with `PAGES` distinct pages (page `p` is filled with
/// byte `p`), with the pages in `pins` pinned.
fn pinned_pool(capacity: usize, policy: Box<dyn EvictionPolicy>, pins: &[u32]) -> BufferPool {
    let mut pool = BufferPool::new(Box::new(MemDevice::new()), capacity, policy);
    for p in 0..PAGES {
        pool.write(p, |b| b[0] = p as u8).unwrap();
    }
    pool.flush().unwrap();
    for &p in pins {
        assert!(pool.pin(p).unwrap(), "pin budget must admit {} pins", pins.len());
    }
    pool
}

/// One step of random traffic against the pool, decoded from a generated
/// `(kind, page)` pair: 0 = read, 1 = write, 2 = scan begin, 3 = scan end.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u32),
    Write(u32),
    ScanBegin,
    ScanEnd,
}

fn decode(kind: usize, page: u32) -> Op {
    match kind {
        0 => Op::Read(page),
        1 => Op::Write(page),
        2 => Op::ScanBegin,
        _ => Op::ScanEnd,
    }
}

fn policy_for(kind: usize) -> Box<dyn EvictionPolicy> {
    match kind {
        0 => Box::<Lru>::default(),
        1 => Box::<Clock>::default(),
        2 => Box::<Fifo>::default(),
        _ => Box::<SegmentedLru>::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pinned pages survive arbitrary fetch/scan sequences: still
    /// reported pinned, still serving the right bytes, and never charged an
    /// eviction — under every eviction policy in the crate.
    #[test]
    fn pinned_pages_are_never_evicted(
        policy_kind in 0usize..4,
        pin_a in 0..PAGES,
        pin_b in 0..PAGES,
        raw_ops in prop::collection::vec((0usize..4, 0u32..PAGES), 1..120),
    ) {
        let ops: Vec<Op> = raw_ops.into_iter().map(|(k, p)| decode(k, p)).collect();
        let pins: Vec<u32> = if pin_a == pin_b { vec![pin_a] } else { vec![pin_a, pin_b] };
        // Capacity 4 with up to 2 pins: tight enough that unpinned traffic
        // constantly evicts, roomy enough that the pin budget admits both.
        let mut pool = pinned_pool(4, policy_for(policy_kind), &pins);
        for op in &ops {
            match *op {
                Op::Read(p) => { pool.read(p, |b| b[0]).unwrap(); }
                Op::Write(p) => { pool.write(p, |b| b[1] = b[1].wrapping_add(1)).unwrap(); }
                Op::ScanBegin => pool.begin_scan(),
                Op::ScanEnd => pool.end_scan(),
            }
            for &p in &pins {
                prop_assert!(pool.is_pinned(p), "page {} lost its pin after {:?}", p, op);
                // A resident pinned page costs no device traffic to read.
                let before = pool.misses();
                prop_assert_eq!(pool.read(p, |b| b[0]).unwrap(), p as u8);
                prop_assert_eq!(pool.misses(), before, "pinned page {} was re-fetched", p);
            }
        }
        prop_assert_eq!(pool.pinned_count(), pins.len());
        prop_assert_eq!(pool.unpin_all(), pins.len());
        prop_assert_eq!(pool.pinned_count(), 0);
    }

    /// When every frame but one is pinned, demand fetches still succeed by
    /// cycling through the single free frame.
    #[test]
    fn single_free_frame_still_serves(reads in prop::collection::vec(0..PAGES, 1..60)) {
        let mut pool = pinned_pool(4, Box::<Lru>::default(), &[0, 1, 2]);
        for &p in &reads {
            prop_assert_eq!(pool.read(p, |b| b[0]).unwrap(), p as u8);
        }
        for p in [0u32, 1, 2] {
            prop_assert!(pool.is_pinned(p));
        }
    }
}
