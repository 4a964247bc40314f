//! Percentiles and the summaries of a measured phase.
//!
//! A measured phase is cut into blocks of the same number of consecutive
//! operations, and it ends on a block boundary, so no operation it timed is
//! left out. A rate is taken per block and a latency percentile per group
//! of whole blocks, and a phase reports the fastest tenth of them: the
//! block time, or the group percentile, that a tenth of the blocks or
//! groups stay at or under. Other tenants of a shared host only ever slow
//! the program, in spells of seconds to tens of seconds, so the fastest
//! tenth repeats from run to run where the median follows the spells,
//! while a cost that every block pays moves the fastest tenth too.

use std::time::Duration;

/// Nearest-rank percentile `q` (0 < q <= 1) of ascending `sorted`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value that the fastest tenth of `times` stay at or under: their
/// nearest-rank 10th percentile.
pub fn fastest_tenth(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((0.1 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Counts a phase's operations and keeps the elapsed time at the end of
/// every block of them.
pub struct Clock {
    block: u64,
    pub ops: u64,
    pub elapsed: Duration,
    block_ends: Vec<Duration>,
}

impl Clock {
    /// A clock whose blocks are `block` operations long.
    pub fn new(block: u64) -> Clock {
        Clock { block: block.max(1), ops: 0, elapsed: Duration::ZERO, block_ends: Vec::new() }
    }

    /// One more operation done, `elapsed` into the phase; returns whether
    /// it ended a block.
    pub fn tick(&mut self, elapsed: Duration) -> bool {
        self.ops += 1;
        self.elapsed = elapsed;
        let block_end = self.ops.is_multiple_of(self.block);
        if block_end {
            self.block_ends.push(elapsed);
        }
        block_end
    }

    pub fn blocks(&self) -> usize {
        self.block_ends.len()
    }

    /// Operations per second of the fastest tenth of the blocks, or of the
    /// whole phase before the first block ends.
    pub fn ops_per_s(&self) -> f64 {
        if self.block_ends.is_empty() {
            return self.ops as f64 / self.elapsed.as_secs_f64();
        }
        let mut start = Duration::ZERO;
        let times: Vec<f64> = self
            .block_ends
            .iter()
            .map(|&end| {
                let ns = (end - start).as_nanos() as f64;
                start = end;
                ns
            })
            .collect();
        self.block as f64 * 1e9 / fastest_tenth(&times)
    }
}

/// The percentiles kept for each group: p50 and p90.
const KEPT: [f64; 2] = [0.5, 0.9];

/// Latency samples of one kind of operation, in nanoseconds, summarized
/// per group as the phase goes: a block end closes the open group once it
/// holds `min` samples. Only the last closed group and the open one keep
/// their samples; at the end the open samples join the last group, so none
/// is left out, and a phase of fewer than `min` samples is one group.
#[derive(Default)]
pub struct Latencies {
    min: usize,
    count: usize,
    sum_ns: u128,
    /// p50 and p90, in ms, of each closed group before `last`.
    closed: Vec<[f64; 2]>,
    last: Vec<u64>,
    open: Vec<u64>,
}

impl Latencies {
    /// Latencies whose groups hold at least `min` samples.
    pub fn new(min: usize) -> Latencies {
        Latencies { min: min.max(1), ..Latencies::default() }
    }

    pub fn push(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.open.push(ns);
        self.count += 1;
        self.sum_ns += u128::from(ns);
    }

    /// The phase's current block ended.
    pub fn end_block(&mut self) {
        if self.open.len() >= self.min.max(1) {
            if !self.last.is_empty() {
                self.closed.push(kept_ms(&mut self.last));
            }
            self.last = std::mem::take(&mut self.open);
        }
    }

    pub fn len(&self) -> usize {
        self.count
    }

    /// p50 and p90 of every group, the open samples joined to the last.
    fn groups(&self) -> Vec<[f64; 2]> {
        let mut tail = [self.last.as_slice(), self.open.as_slice()].concat();
        let mut groups = self.closed.clone();
        if !tail.is_empty() {
            groups.push(kept_ms(&mut tail));
        }
        groups
    }

    /// The p50 in milliseconds that the fastest tenth of the groups stay
    /// at or under (0 for no samples).
    pub fn p50_ms(&self) -> f64 {
        self.fastest(0)
    }

    /// The p90 in milliseconds that the fastest tenth of the groups stay
    /// at or under (0 for no samples).
    pub fn p90_ms(&self) -> f64 {
        self.fastest(1)
    }

    fn fastest(&self, kept: usize) -> f64 {
        let per_group: Vec<f64> = self.groups().iter().map(|g| g[kept]).collect();
        if per_group.is_empty() {
            0.0
        } else {
            fastest_tenth(&per_group)
        }
    }

    /// Mean in the unit `unit_ns` nanoseconds long (0 for no samples).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// The kept percentiles of `samples`, in milliseconds; sorts them.
fn kept_ms(samples: &mut [u64]) -> [f64; 2] {
    samples.sort_unstable();
    KEPT.map(|q| percentile(samples, q) as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v[..1], 0.99), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn groups_hold_whole_blocks_and_every_sample() {
        // Blocks of 40, 40, 40 and 30 samples, then 5 after the last end;
        // the samples of the n-th block are all n µs.
        let fill = |min| {
            let mut l = Latencies::new(min);
            for (block, len) in [40, 40, 40, 30, 5].into_iter().enumerate() {
                for _ in 0..len {
                    l.push(Duration::from_micros(block as u64 + 1));
                }
                if block < 4 {
                    l.end_block();
                }
            }
            l
        };
        let p50s = |l: &Latencies| l.groups().iter().map(|g| g[0]).collect::<Vec<_>>();
        assert_eq!(p50s(&fill(100)), [0.002]);
        assert_eq!(p50s(&fill(50)), [0.001, 0.003]);
        assert_eq!(p50s(&fill(40)), [0.001, 0.002, 0.003]);
        assert_eq!(p50s(&fill(1000)), [0.002]);
        assert_eq!(fill(50).len(), 155);
        assert!((fill(50).mean(1e3) - 385.0 / 155.0).abs() < 1e-12);
        // A p90 over 100 samples leaves 10 beyond it.
        let mut l = Latencies::new(100);
        (1..=100).for_each(|i| l.push(Duration::from_nanos(i)));
        l.end_block();
        assert_eq!((l.p50_ms(), l.p90_ms()), (0.00005, 0.00009));
    }

    #[test]
    fn the_fastest_tenth_stays_while_spells_come_and_go() {
        const BLOCK: u64 = 100;
        let mut l = Latencies::new(100);
        let mut clock = Clock::new(BLOCK);
        let mut t = Duration::ZERO;
        // Ten blocks; a spell of host load slows seven of them, by 2x to 8x.
        for slow in [1, 4, 2, 1, 8, 2, 2, 1, 3, 4] {
            for i in 0..BLOCK {
                l.push(Duration::from_nanos((1000 + i) * slow));
                t += Duration::from_micros(slow);
                if clock.tick(t) {
                    l.end_block();
                }
            }
        }
        assert_eq!(clock.blocks(), 10);
        assert_eq!((l.p50_ms(), l.p90_ms()), (0.001049, 0.001089));
        assert_eq!(clock.ops_per_s(), 1e6);
        // A cost every block pays moves it.
        let mut slower = Latencies::new(100);
        for _ in 0..10 {
            (0..100).for_each(|i| slower.push(Duration::from_nanos(1200 + i)));
            slower.end_block();
        }
        assert_eq!(slower.p50_ms(), 0.001249);
    }

    #[test]
    fn before_the_first_block_ends_the_whole_phase_counts() {
        let mut l = Latencies::new(1000);
        let mut clock = Clock::new(1000);
        for i in 1..=4 {
            l.push(Duration::from_millis(i));
            clock.tick(Duration::from_millis(250 * i));
        }
        assert_eq!((clock.blocks(), clock.ops_per_s()), (0, 4.0));
        assert_eq!(l.p50_ms(), 2.0);
    }
}
