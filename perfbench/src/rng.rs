//! The benchmark's own seeded generator (SplitMix64), so inputs depend only
//! on `--seed` and on this file, never on a crate of the repository.

/// A SplitMix64 stream. Each purpose (corpus, queries, appends, ...) draws
/// from its own stream, so changing how one input is made leaves the others
/// byte-identical.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut r = Rng(state);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// ranges used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            [r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7, "corpus"), draw(7, "corpus"));
        assert_ne!(draw(7, "corpus"), draw(7, "queries"));
        assert_ne!(draw(7, "corpus"), draw(8, "corpus"));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(1, "t");
        for _ in 0..10_000 {
            let v = r.range(6, 18);
            assert!((6..=18).contains(&v));
            assert!(r.unit() < 1.0);
        }
    }
}
