//! Runtime alphabets.
//!
//! Index engines work over dense symbol codes `0..size` rather than raw
//! bytes: DNA uses 4 codes (2 bits of character-label storage in the compact
//! SPINE layout, exactly as in the paper), proteins use 20 codes (5 bits),
//! and a raw byte alphabet is available for generic text.
//!
//! One extra code, [`Alphabet::separator`], is reserved directly after the
//! ordinary symbols. It never appears in encoded user data and is used by the
//! generalized (multi-string) indexes as a document terminator, mirroring the
//! terminator trick of Generalized Suffix Trees that the paper points to for
//! multi-string SPINE indexes.

use crate::error::{Error, Result};

/// A dense symbol code. `0..alphabet.size()` are ordinary symbols;
/// `alphabet.separator()` is the reserved document separator.
pub type Code = u8;

const INVALID: u8 = 0xFF;

/// Which built-in alphabet an [`Alphabet`] value describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlphabetKind {
    /// `A C G T` (case-insensitive on input). 4 symbols, 2-bit labels.
    Dna,
    /// The 20 standard amino-acid letters (case-insensitive). 5-bit labels.
    Protein,
    /// Printable ASCII plus whitespace (codes 9, 10, 13, 32..=126).
    Ascii,
    /// All 256 byte values.
    Bytes,
}

/// A runtime alphabet: a bijection between a subset of byte values and the
/// dense code range `0..size`.
///
/// Engines store the alphabet by value; it is 520 bytes and copied rarely
/// (once per index).
#[derive(Clone)]
pub struct Alphabet {
    kind: AlphabetKind,
    size: u16,
    to_code: [u8; 256],
    from_code: [u8; 256],
}

impl std::fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Alphabet").field("kind", &self.kind).field("size", &self.size).finish()
    }
}

impl PartialEq for Alphabet {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}
impl Eq for Alphabet {}

impl Alphabet {
    fn from_symbols(kind: AlphabetKind, symbols: &[u8]) -> Self {
        assert!(!symbols.is_empty() && symbols.len() <= 254);
        let mut to_code = [INVALID; 256];
        let mut from_code = [0u8; 256];
        for (code, &byte) in symbols.iter().enumerate() {
            assert_eq!(to_code[byte as usize], INVALID, "duplicate symbol");
            to_code[byte as usize] = code as u8;
            from_code[code] = byte;
        }
        Alphabet { kind, size: symbols.len() as u16, to_code, from_code }
    }

    /// The DNA alphabet `ACGT`. Lower-case input letters are accepted and
    /// normalised to upper case.
    pub fn dna() -> Self {
        let mut a = Self::from_symbols(AlphabetKind::Dna, b"ACGT");
        for (lo, up) in b"acgt".iter().zip(b"ACGT") {
            a.to_code[*lo as usize] = a.to_code[*up as usize];
        }
        a
    }

    /// The 20-letter amino-acid alphabet (`ACDEFGHIKLMNPQRSTVWY`),
    /// case-insensitive on input.
    pub fn protein() -> Self {
        let letters = b"ACDEFGHIKLMNPQRSTVWY";
        let mut a = Self::from_symbols(AlphabetKind::Protein, letters);
        for &up in letters {
            a.to_code[(up as char).to_ascii_lowercase() as usize] = a.to_code[up as usize];
        }
        a
    }

    /// Printable ASCII plus tab/newline/carriage-return/space.
    pub fn ascii() -> Self {
        let mut symbols = vec![9u8, 10, 13];
        symbols.extend(32u8..=126);
        Self::from_symbols(AlphabetKind::Ascii, &symbols)
    }

    /// All byte values 0..=253 plus 254 and 255 remapped is not possible with
    /// a reserved separator, so the byte alphabet covers codes 0..=253 and
    /// rejects bytes 254 and 255 (rare in text workloads; the FASTA and
    /// generator substrates never produce them).
    pub fn bytes() -> Self {
        let symbols: Vec<u8> = (0u8..=253).collect();
        Self::from_symbols(AlphabetKind::Bytes, &symbols)
    }

    /// Which built-in alphabet this is.
    pub fn kind(&self) -> AlphabetKind {
        self.kind
    }

    /// The byte a persisted index stores for its alphabet (the sealed page
    /// file's header, the compact layout's `SPNC` file): DNA 0, protein 1,
    /// ASCII 2, bytes 3. [`Alphabet::from_tag`] reads it back.
    pub fn tag(&self) -> u8 {
        match self.kind {
            AlphabetKind::Dna => 0,
            AlphabetKind::Protein => 1,
            AlphabetKind::Ascii => 2,
            AlphabetKind::Bytes => 3,
        }
    }

    /// The alphabet a persisted [`Alphabet::tag`] names; any other byte is
    /// [`Error::Parse`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Self::dna(),
            1 => Self::protein(),
            2 => Self::ascii(),
            3 => Self::bytes(),
            t => return Err(Error::Parse(format!("unknown alphabet tag {t}"))),
        })
    }

    /// Number of ordinary symbols (excluding the separator).
    pub fn size(&self) -> usize {
        self.size as usize
    }

    /// Total number of codes an engine must be able to label edges with:
    /// `size() + 1` (the separator).
    pub fn code_space(&self) -> usize {
        self.size as usize + 1
    }

    /// The reserved separator code (== `size()`).
    pub fn separator(&self) -> Code {
        self.size as Code
    }

    /// Bits needed to store one character label, separator code included:
    /// 3 for DNA (one more than §5's 2), 5 for protein, 7 ASCII, 8 bytes.
    pub fn label_bits(&self) -> u32 {
        usize::BITS - (self.code_space() - 1).leading_zeros()
    }

    /// Bits per symbol for *word-packed* comparison, or `None` for
    /// alphabets where packing buys nothing over byte-at-a-time scanning.
    ///
    /// Unlike [`label_bits`](Self::label_bits) this need only cover the
    /// ordinary symbols `0..size` — 2 bits for DNA, 5 for protein, the
    /// densities quoted by the packed-trie literature. The separator code
    /// happens to fit the protein packing (20 < 32) but not the DNA one
    /// (4 > 3); a packing caller stores codes verbatim and falls back to
    /// `label_bits` and a scalar compare when one does not fit — see
    /// `strindex::packed`.
    pub fn pack_bits(&self) -> Option<u32> {
        match self.kind {
            AlphabetKind::Dna => Some(2),
            AlphabetKind::Protein => Some(5),
            AlphabetKind::Ascii | AlphabetKind::Bytes => None,
        }
    }

    /// Encode one byte, or `None` if it is not in the alphabet.
    #[inline]
    pub fn encode_byte(&self, byte: u8) -> Option<Code> {
        let c = self.to_code[byte as usize];
        (c != INVALID).then_some(c)
    }

    /// Decode one code back to its canonical byte. The separator decodes to
    /// `b'#'` for display purposes.
    #[inline]
    pub fn decode(&self, code: Code) -> u8 {
        if code == self.separator() {
            b'#'
        } else {
            debug_assert!((code as usize) < self.size());
            self.from_code[code as usize]
        }
    }

    /// Encode a byte string to a code vector, failing on the first byte that
    /// is not in the alphabet.
    pub fn encode(&self, text: &[u8]) -> Result<Vec<Code>> {
        let mut out = Vec::with_capacity(text.len());
        for (pos, &b) in text.iter().enumerate() {
            match self.encode_byte(b) {
                Some(c) => out.push(c),
                None => return Err(Error::InvalidSymbol { byte: b, pos }),
            }
        }
        Ok(out)
    }

    /// Decode a code slice back to bytes.
    pub fn decode_all(&self, codes: &[Code]) -> Vec<u8> {
        codes.iter().map(|&c| self.decode(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_round_trip() {
        let a = Alphabet::dna();
        assert_eq!(a.size(), 4);
        assert_eq!(a.label_bits(), 3); // 5 codes incl. separator need 3 bits
        let codes = a.encode(b"ACGTacgt").unwrap();
        assert_eq!(codes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(a.decode_all(&codes[..4]), b"ACGT");
    }

    #[test]
    fn dna_rejects_unknown() {
        let a = Alphabet::dna();
        let err = a.encode(b"ACGN").unwrap_err();
        match err {
            Error::InvalidSymbol { byte: b'N', pos: 3 } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn protein_has_20_symbols() {
        let a = Alphabet::protein();
        assert_eq!(a.size(), 20);
        assert_eq!(a.separator(), 20);
        assert_eq!(a.label_bits(), 5);
        let codes = a.encode(b"MKV").unwrap();
        assert_eq!(a.decode_all(&codes), b"MKV");
    }

    #[test]
    fn ascii_covers_text() {
        let a = Alphabet::ascii();
        let text = b"Hello, world!\n";
        let codes = a.encode(text).unwrap();
        assert_eq!(a.decode_all(&codes), text);
    }

    #[test]
    fn bytes_alphabet_covers_low_bytes() {
        let a = Alphabet::bytes();
        assert_eq!(a.size(), 254);
        assert!(a.encode_byte(0).is_some());
        assert!(a.encode_byte(253).is_some());
        assert!(a.encode_byte(254).is_none());
        assert!(a.encode_byte(255).is_none());
    }

    #[test]
    fn pack_bits_covers_every_ordinary_symbol() {
        for a in [Alphabet::dna(), Alphabet::protein()] {
            let bits = a.pack_bits().unwrap();
            assert!(a.size() - 1 < (1 << bits), "all ordinary codes must fit");
            assert!(bits <= a.label_bits());
        }
        assert_eq!(Alphabet::dna().pack_bits(), Some(2));
        // The DNA separator (code 4) does not fit 2 bits — generalized DNA
        // indexes self-disable packing. The protein separator (20) fits 5.
        assert!(Alphabet::dna().separator() as u64 > 0b11);
        assert!((Alphabet::protein().separator() as u64) < 32);
        assert_eq!(Alphabet::protein().pack_bits(), Some(5));
        assert_eq!(Alphabet::ascii().pack_bits(), None);
        assert_eq!(Alphabet::bytes().pack_bits(), None);
        // Label widths count the separator: DNA needs a third bit for it.
        let label_bits =
            [Alphabet::dna(), Alphabet::protein(), Alphabet::ascii(), Alphabet::bytes()]
                .map(|a| a.label_bits());
        assert_eq!(label_bits, [3, 5, 7, 8]);
    }

    #[test]
    fn tags_round_trip_and_reject_unknown_bytes() {
        let all = [Alphabet::dna(), Alphabet::protein(), Alphabet::ascii(), Alphabet::bytes()];
        assert_eq!(all.clone().map(|a| a.tag()), [0, 1, 2, 3], "persisted bytes never change");
        for a in all {
            assert_eq!(Alphabet::from_tag(a.tag()).unwrap(), a);
        }
        assert!(matches!(Alphabet::from_tag(4), Err(Error::Parse(_))));
    }

    #[test]
    fn separator_is_not_encodable() {
        for a in [Alphabet::dna(), Alphabet::protein(), Alphabet::ascii()] {
            let sep = a.separator();
            // No input byte maps to the separator code.
            for b in 0..=255u8 {
                assert_ne!(a.encode_byte(b), Some(sep));
            }
        }
    }
}
