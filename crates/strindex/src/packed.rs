//! Word-packed symbol sequences for word-at-a-time comparison.
//!
//! Small alphabets waste most of a byte per symbol: DNA needs 2 bits,
//! proteins 5. Packing codes into `u64` words lets the sealed SPINE layout,
//! whose labels live on pages, compare runs of them one word at a time, not
//! one character at a time — the technique of Takagi et al.'s packed compact
//! tries and Kolpakov–Kucherov's word-level string matching.
//!
//! Layout: `per_word = 64 / bits` symbols per word, symbol `i` at bit
//! `(i % per_word) * bits` of word `i / per_word`, little-endian within the
//! word. Any bits above `per_word * bits` (protein packs 12×5 = 60 bits)
//! are always zero. Symbols never straddle a word boundary, so a window of
//! up to `per_word` symbols starting at *any* offset can be assembled from
//! two words with two shifts — see [`PackedText::window`].
//!
//! The byte and ASCII alphabets gain nothing from packing and use the
//! scalar comparison path ([`crate::Alphabet::pack_bits`] returns `None`).

use crate::alphabet::Code;

/// Mask covering the low `bits` bits (`bits <= 64`).
#[inline]
pub fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Length of the common prefix of two windows holding up to `n` symbols of
/// `bits` bits each (`n * bits <= 64`). Bits above `n * bits` are ignored.
#[inline]
pub fn window_match_len(a: u64, b: u64, bits: u32, n: u32) -> u32 {
    debug_assert!(n * bits <= 64);
    let diff = (a ^ b) & low_mask(n * bits);
    if diff == 0 {
        n
    } else {
        diff.trailing_zeros() / bits
    }
}

/// A sequence of symbol codes packed `64 / bits` to the machine word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedText {
    bits: u32,
    per_word: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedText {
    /// An empty packed sequence storing `bits` bits per symbol
    /// (`1 <= bits <= 8`).
    pub fn new(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "pack bits out of range: {bits}");
        PackedText { bits, per_word: 64 / bits, len: 0, words: Vec::new() }
    }

    /// Pack `codes` at `bits` bits per symbol, or `None` if any code does
    /// not fit (e.g. a document separator in a 2-bit DNA packing) — the
    /// caller then falls back to the scalar path.
    pub fn from_codes(bits: u32, codes: &[Code]) -> Option<Self> {
        let mut p = PackedText::new(bits);
        p.words.reserve(codes.len() / p.per_word as usize + 1);
        for &c in codes {
            if !p.try_push(c) {
                return None;
            }
        }
        Some(p)
    }

    /// Bits per symbol.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Symbols per 64-bit word.
    pub fn per_word(&self) -> u32 {
        self.per_word
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the sequence empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (dead bits above `per_word * bits` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Append one symbol; `false` (sequence unchanged) if `c` needs more
    /// than `bits` bits.
    #[inline]
    pub fn try_push(&mut self, c: Code) -> bool {
        if (c as u64) > low_mask(self.bits) {
            return false;
        }
        let phase = (self.len as u64 % self.per_word as u64) as u32;
        if phase == 0 {
            self.words.push(c as u64);
        } else {
            *self.words.last_mut().unwrap() |= (c as u64) << (phase * self.bits);
        }
        self.len += 1;
        true
    }

    /// Symbol `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Code {
        debug_assert!(i < self.len);
        let w = self.words[i / self.per_word as usize];
        ((w >> ((i % self.per_word as usize) as u32 * self.bits)) & low_mask(self.bits)) as Code
    }

    /// Up to `per_word` symbols starting at `i`, packed into the low bits
    /// of one word (two shifts; symbols past `len` read as zero).
    #[inline]
    pub fn window(&self, i: usize) -> u64 {
        let pw = self.per_word as usize;
        let w = i / pw;
        let phase = (i % pw) as u32;
        let lo = self.words.get(w).copied().unwrap_or(0) >> (phase * self.bits);
        let win = if phase == 0 {
            lo
        } else {
            // `(pw - phase) * bits <= (pw - 1) * bits < 64`, so no shift UB.
            let hi = self.words.get(w + 1).copied().unwrap_or(0);
            lo | (hi << ((self.per_word - phase) * self.bits))
        };
        win & low_mask(self.per_word * self.bits)
    }

    /// Length of the longest common prefix of `self[i..]` and `other[j..]`,
    /// capped at `max`, compared one word-window at a time.
    pub fn lcp(&self, i: usize, other: &PackedText, j: usize, max: usize) -> usize {
        debug_assert_eq!(self.bits, other.bits, "lcp needs matching packings");
        let max = max.min(self.len.saturating_sub(i)).min(other.len.saturating_sub(j));
        let pw = self.per_word as usize;
        let mut k = 0usize;
        while k < max {
            let n = (max - k).min(pw) as u32;
            let m = window_match_len(self.window(i + k), other.window(j + k), self.bits, n);
            k += m as usize;
            if m < n {
                break;
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar_lcp(a: &[Code], i: usize, b: &[Code], j: usize, max: usize) -> usize {
        let max = max.min(a.len() - i).min(b.len() - j);
        (0..max).take_while(|&k| a[i + k] == b[j + k]).count()
    }

    #[test]
    fn push_get_round_trip_all_bit_widths() {
        for bits in 1..=8u32 {
            let n = 3 * (64 / bits) as usize + 5;
            let codes: Vec<Code> =
                (0..n).map(|i| (i as u64 % (low_mask(bits) + 1)) as Code).collect();
            let p = PackedText::from_codes(bits, &codes).unwrap();
            assert_eq!(p.len(), n);
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(p.get(i), c, "bits {bits}, index {i}");
            }
        }
    }

    #[test]
    fn push_rejects_oversized_code() {
        let mut p = PackedText::new(2);
        assert!(p.try_push(3));
        assert!(!p.try_push(4)); // separator-sized code does not fit 2 bits
        assert_eq!(p.len(), 1);
        assert!(PackedText::from_codes(2, &[0, 1, 4]).is_none());
    }

    #[test]
    fn window_covers_every_phase() {
        // 5-bit packing has dead bits (12 × 5 = 60): the straddling windows
        // must still read contiguous symbols.
        for bits in [2u32, 3, 5] {
            let pw = (64 / bits) as usize;
            let codes: Vec<Code> =
                (0..3 * pw).map(|i| (i as u64 % (low_mask(bits) + 1)) as Code).collect();
            let p = PackedText::from_codes(bits, &codes).unwrap();
            for start in 0..2 * pw {
                let win = p.window(start);
                for k in 0..pw.min(codes.len() - start) {
                    let got = ((win >> (k as u32 * bits)) & low_mask(bits)) as Code;
                    assert_eq!(got, codes[start + k], "bits {bits}, start {start}, k {k}");
                }
            }
        }
    }

    #[test]
    fn lcp_exhaustive_at_every_word_boundary_offset() {
        // Every (text offset, pattern length) pair around word boundaries,
        // pattern lengths 0..=2·word_len — the alignment cases where the
        // two-shift window assembly could go wrong.
        for bits in [2u32, 5] {
            let pw = (64 / bits) as usize;
            let text: Vec<Code> = (0..3 * pw + 7)
                .map(|i| ((i * 7 + i / 3) as u64 % (low_mask(bits) + 1)) as Code)
                .collect();
            let pt = PackedText::from_codes(bits, &text).unwrap();
            for start in 0..text.len() {
                for plen in 0..=(2 * pw).min(text.len() - start) {
                    let mut pattern = text[start..start + plen].to_vec();
                    // Exact match at every offset…
                    let pp = PackedText::from_codes(bits, &pattern).unwrap();
                    assert_eq!(
                        pt.lcp(start, &pp, 0, plen),
                        plen,
                        "bits {bits} start {start} len {plen}"
                    );
                    // …and a mismatch planted at the last symbol.
                    if plen > 0 {
                        let last = pattern.len() - 1;
                        pattern[last] = (pattern[last] + 1) & low_mask(bits) as Code;
                        let pp = PackedText::from_codes(bits, &pattern).unwrap();
                        assert_eq!(
                            pt.lcp(start, &pp, 0, plen),
                            scalar_lcp(&text, start, &pattern, 0, plen),
                            "bits {bits} start {start} len {plen} (mismatch case)"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lcp_equals_scalar(
            a in prop::collection::vec(0u8..4, 0..130),
            b in prop::collection::vec(0u8..4, 0..130),
            i in 0usize..130,
            j in 0usize..130,
        ) {
            let pa = PackedText::from_codes(2, &a).unwrap();
            let pb = PackedText::from_codes(2, &b).unwrap();
            let i = i.min(a.len());
            let j = j.min(b.len());
            prop_assert_eq!(pa.lcp(i, &pb, j, usize::MAX), scalar_lcp(&a, i, &b, j, usize::MAX));
        }

        #[test]
        fn protein_lcp_equals_scalar(
            a in prop::collection::vec(0u8..21, 0..60),
            i in 0usize..60,
            cut in 0usize..60,
        ) {
            let pa = PackedText::from_codes(5, &a).unwrap();
            let i = i.min(a.len());
            // Compare a against its own suffix: long internal matches.
            let suffix = a[i.min(a.len())..].to_vec();
            let ps = PackedText::from_codes(5, &suffix).unwrap();
            let max = cut.min(suffix.len());
            prop_assert_eq!(pa.lcp(i, &ps, 0, max), scalar_lcp(&a, i, &suffix, 0, max));
        }
    }
}
