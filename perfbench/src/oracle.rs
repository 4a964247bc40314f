//! Reference answers, computed without any index of the repository.

use std::collections::VecDeque;

use strindex::Code;

/// Length of the k-mers that bucket DNA text positions.
const K: usize = 6;

/// All-occurrence search over DNA text by naive comparison, restricted to
/// the positions that share the pattern's first 6-mer.
pub struct KmerOracle<'a> {
    text: &'a [Code],
    /// `positions[offsets[b]..offsets[b + 1]]` are the ascending starts of
    /// the 6-mer with code `b`.
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

fn kmer(codes: &[Code]) -> Option<usize> {
    codes.iter().try_fold(0usize, |acc, &c| (c < 4).then_some(acc << 2 | c as usize))
}

impl<'a> KmerOracle<'a> {
    pub fn new(text: &'a [Code]) -> KmerOracle<'a> {
        let starts = text.len().saturating_sub(K - 1);
        let mut offsets = vec![0u32; (1 << (2 * K)) + 1];
        let keys: Vec<Option<usize>> = (0..starts).map(|i| kmer(&text[i..i + K])).collect();
        for b in keys.iter().flatten() {
            offsets[b + 1] += 1;
        }
        for b in 1..offsets.len() {
            offsets[b] += offsets[b - 1];
        }
        let mut fill = offsets.clone();
        let mut positions = vec![0u32; offsets[offsets.len() - 1] as usize];
        for (i, key) in keys.iter().enumerate() {
            if let Some(b) = *key {
                positions[fill[b] as usize] = i as u32;
                fill[b] += 1;
            }
        }
        KmerOracle { text, offsets, positions }
    }

    /// Ascending start offsets of every occurrence of `pattern`.
    pub fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        let n = self.text.len();
        let matches =
            |&p: &usize| p + pattern.len() <= n && self.text[p..p + pattern.len()] == *pattern;
        match (pattern.len() >= K).then(|| kmer(&pattern[..K])).flatten() {
            Some(b) => self.positions[self.offsets[b] as usize..self.offsets[b + 1] as usize]
                .iter()
                .map(|&p| p as usize)
                .filter(matches)
                .collect(),
            None => (0..n).filter(matches).collect(),
        }
    }
}

/// Every `(document id, offset)` at which `pattern` occurs in the live
/// documents, ordered by id then offset (the store's answer order).
pub fn doc_matches(live: &VecDeque<(u64, Vec<Code>)>, pattern: &[Code]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for (id, doc) in live {
        for (offset, w) in doc.windows(pattern.len()).enumerate() {
            if w == pattern {
                out.push((*id, offset as u64));
            }
        }
    }
    out
}

/// Count and FNV-1a digest of an answer, so a long run keeps 16 bytes per
/// answer for the check after it.
pub fn digest(matches: impl IntoIterator<Item = (u64, u64)>) -> (u64, u64) {
    let mut count = 0;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (a, b) in matches {
        count += 1;
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (count, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmer_oracle_matches_a_plain_scan() {
        let text: Vec<Code> = crate::inputs::dna_corpus(3, 20_000);
        let oracle = KmerOracle::new(&text);
        let mut r = crate::rng::Rng::new(3, "oracle-test");
        let mut patterns = crate::inputs::substrings(&text, &mut r, 200, (1, 20));
        patterns.push(vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0]);
        for p in &patterns {
            let plain: Vec<usize> =
                (0..=text.len() - p.len()).filter(|&i| text[i..i + p.len()] == p[..]).collect();
            assert_eq!(oracle.find_all(p), plain);
        }
    }

    #[test]
    fn doc_matches_cover_overlaps_and_documents() {
        let live: VecDeque<(u64, Vec<Code>)> = [(4, vec![1, 1, 1]), (9, vec![2, 1, 1])].into();
        assert_eq!(doc_matches(&live, &[1, 1]), vec![(4, 0), (4, 1), (9, 1)]);
        assert_ne!(digest([(4, 0)]), digest([(0, 4)]));
    }
}
