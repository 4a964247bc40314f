//! Measurement hooks for the paper's structural tables and figures.
//!
//! * [`LabelMaxima`] — Table 3 (maximum PT/LEL/PRT values; the basis of the
//!   2-byte label optimization);
//! * [`RibDistribution`] — Table 4 (percentage of nodes by downstream
//!   fan-out; the basis of the multiple-Rib-Table layout);
//! * [`LinkDistribution`] — Figure 8 (links concentrate on upstream nodes;
//!   the basis of the prefix-priority buffering policy);
//! * [`NodeCost`] — Table 2 (worst-case bytes per node of the naive layout)
//!   and measured bytes of the reference representation.

use crate::build::Spine;
use crate::node::ROOT;
use strindex::{Alphabet, Code};

/// Maximum numeric label values over the whole index (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LabelMaxima {
    /// Largest rib or extrib pathlength threshold.
    pub max_pt: u32,
    /// Largest link label.
    pub max_lel: u32,
    /// Largest parent-rib threshold.
    pub max_prt: u32,
}

impl LabelMaxima {
    /// Do all labels fit the paper's 2-byte fields (values < 65 536)?
    pub fn fits_u16(&self) -> bool {
        self.max_pt < 1 << 16 && self.max_lel < 1 << 16 && self.max_prt < 1 << 16
    }
}

/// Downstream fan-out distribution (Table 4): `by_fanout[k]` = number of
/// nodes with exactly `k` outgoing ribs+extribs (index 0 = none).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RibDistribution {
    /// Node counts indexed by fan-out.
    pub by_fanout: Vec<u64>,
    /// Total nodes counted (excludes the root, matching the paper's
    /// per-character accounting).
    pub total: u64,
}

impl RibDistribution {
    /// Percentage of nodes with fan-out exactly `k`.
    pub fn percent(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * self.by_fanout.get(k).copied().unwrap_or(0) as f64 / self.total as f64
    }

    /// Percentage of nodes with *any* downstream edge (the paper's
    /// "only around 30 to 35 percent"). 0 for an empty index — the
    /// complement form `100 − percent(0)` would claim every node of an
    /// empty trie has edges.
    pub fn percent_with_edges(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 - self.percent(0)
    }
}

/// Link-destination histogram (Figure 8): how far down the backbone links
/// point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkDistribution {
    /// Destination counts bucketed over the backbone; `buckets[b]` counts
    /// links landing in the b-th fraction of the node range.
    pub buckets: Vec<u64>,
}

impl LinkDistribution {
    /// Percentage of all links landing in bucket `b`.
    pub fn percent(&self, b: usize) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.buckets[b] as f64 / total as f64
    }

    /// Is the histogram (weakly) dominated by its first half? (The paper's
    /// locality observation.)
    pub fn upstream_heavy(&self) -> bool {
        let half = self.buckets.len() / 2;
        let front: u64 = self.buckets[..half].iter().sum();
        let back: u64 = self.buckets[half..].iter().sum();
        front >= back
    }
}

/// Byte accounting for one index node (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCost {
    /// Worst-case bytes per node of the naive (all fields inline) layout.
    pub naive_worst_case: f64,
    /// Measured average bytes per indexed character of the reference
    /// representation actually built.
    pub reference_avg: f64,
}

impl Spine {
    /// Compute Table 3 for this index.
    pub fn label_maxima(&self) -> LabelMaxima {
        let mut m = LabelMaxima::default();
        for n in &self.nodes[1..] {
            m.max_lel = m.max_lel.max(n.lel);
            for r in &n.ribs {
                m.max_pt = m.max_pt.max(r.pt);
            }
            for e in &n.extribs {
                m.max_pt = m.max_pt.max(e.pt);
                m.max_prt = m.max_prt.max(e.prt);
            }
        }
        for r in &self.nodes[ROOT as usize].ribs {
            m.max_pt = m.max_pt.max(r.pt);
        }
        m
    }

    /// Compute Table 4 for this index.
    pub fn rib_distribution(&self) -> RibDistribution {
        let mut d = RibDistribution::default();
        for n in &self.nodes[1..] {
            let f = n.fanout();
            if d.by_fanout.len() <= f {
                d.by_fanout.resize(f + 1, 0);
            }
            d.by_fanout[f] += 1;
            d.total += 1;
        }
        if d.by_fanout.is_empty() {
            d.by_fanout.push(0);
        }
        d
    }

    /// Compute Figure 8 for this index with `buckets` histogram bins.
    pub fn link_distribution(&self, buckets: usize) -> LinkDistribution {
        assert!(buckets > 0);
        let mut h = vec![0u64; buckets];
        let n = self.len().max(1) as u64;
        for node in &self.nodes[1..] {
            let b = (node.link as u64 * buckets as u64 / (n + 1)) as usize;
            h[b.min(buckets - 1)] += 1;
        }
        LinkDistribution { buckets: h }
    }

    /// Compute Table 2 for this index's alphabet, plus the measured average
    /// of the reference representation.
    pub fn node_cost(&self) -> NodeCost {
        NodeCost {
            naive_worst_case: naive_worst_case_bytes(&self.alphabet),
            reference_avg: self.heap_bytes() as f64 / self.len().max(1) as f64,
        }
    }

    /// Number of nodes carrying more than one extrib — i.e. nodes where two
    /// different rib chains both parked an extension. The paper asserts its
    /// chaining scheme leaves at most one extrib per node; DESIGN.md §1
    /// explains why collisions are nevertheless possible in principle, and
    /// this counter measures how often they actually occur (empirically:
    /// rare but nonzero on repetitive inputs).
    pub fn extrib_collisions(&self) -> u64 {
        self.nodes.iter().filter(|n| n.extribs.len() > 1).count() as u64
    }

    /// Total heap bytes of the reference representation: the node vector
    /// (child-list ids inline), the label store, and the exact-length
    /// rib/extrib slices, which [`Spine::mem_breakdown`] counts the same way.
    pub fn heap_bytes(&self) -> usize {
        let nodes = self.nodes.capacity() * std::mem::size_of::<crate::node::Node>();
        let labels = self.labels.capacity() * std::mem::size_of::<Code>();
        let mem = self.mem_breakdown();
        nodes + labels + (mem.ribs + mem.extribs) as usize
    }
}

/// Table 2's worst-case node size for a given alphabet: character label bits
/// /8 + vertebra dest (4) + link dest+LEL (8) + (size−1) ribs × (dest 4 +
/// PT 4) + one extrib × (dest 4 + PT 4 + PRT 4). For DNA this is the paper's
/// 48.25 bytes.
pub fn naive_worst_case_bytes(alphabet: &Alphabet) -> f64 {
    // Bits for the data symbols alone (2 for DNA, 5 for protein).
    let cl_bits = usize::BITS - (alphabet.size() - 1).leading_zeros();
    let max_ribs = (alphabet.size() - 1) as f64;
    cl_bits as f64 / 8.0 + 4.0 + 8.0 + max_ribs * 8.0 + 12.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_spine() -> Spine {
        Spine::build_from_bytes(Alphabet::dna(), b"AACCACAACA").unwrap()
    }

    #[test]
    fn table2_dna_worst_case_matches_paper() {
        // Table 2's total: 48.25 bytes for DNA.
        let s = paper_spine();
        assert!((s.node_cost().naive_worst_case - 48.25).abs() < 1e-9);
    }

    #[test]
    fn label_maxima_on_paper_string() {
        let s = paper_spine();
        let m = s.label_maxima();
        assert_eq!(m.max_lel, 3); // link(9)/link(10)
        assert_eq!(m.max_pt, 3); // extrib 7→10
        assert_eq!(m.max_prt, 1);
        assert!(m.fits_u16());
    }

    #[test]
    fn rib_distribution_counts_every_node() {
        let s = paper_spine();
        let d = s.rib_distribution();
        assert_eq!(d.total, 10);
        assert_eq!(d.by_fanout.iter().sum::<u64>(), 10);
        // Nodes with downstream edges: 1 (rib→3), 3 (rib→5), 5 (rib→8 +
        // extrib→7), 7 (extrib→10) = 4 of 10.
        assert!((d.percent_with_edges() - 40.0).abs() < 1e-9);
        assert!((d.percent(2) - 10.0).abs() < 1e-9); // node 5
    }

    #[test]
    fn link_distribution_is_upstream_heavy() {
        let s = paper_spine();
        let h = s.link_distribution(5);
        assert_eq!(h.buckets.iter().sum::<u64>(), 10);
        assert!(h.upstream_heavy());
        // All links of the example point to nodes 0..=7.
        assert_eq!(h.buckets[4], 0);
    }

    #[test]
    fn heap_bytes_is_positive_and_scales() {
        let a = Alphabet::dna();
        let small = Spine::build_from_bytes(a.clone(), b"ACGT").unwrap();
        let big = Spine::build_from_bytes(a, &b"ACGTACGTGGTTAACC".repeat(64)).unwrap();
        assert!(small.heap_bytes() > 0);
        assert!(big.heap_bytes() > small.heap_bytes());
    }

    #[test]
    fn empty_index_stats_do_not_panic() {
        let s = Spine::new(Alphabet::dna());
        assert_eq!(s.rib_distribution().total, 0);
        assert_eq!(s.label_maxima(), LabelMaxima::default());
        let _ = s.link_distribution(4);
        let _ = s.node_cost();
    }

    #[test]
    fn empty_index_percentages_are_zero() {
        // Regression: percent_with_edges used to return 100.0 − percent(0)
        // unconditionally, reporting 100 % of an empty index's zero nodes
        // as having downstream edges.
        let d = Spine::new(Alphabet::dna()).rib_distribution();
        assert_eq!(d.percent_with_edges(), 0.0);
        assert_eq!(d.percent(0), 0.0);
        assert_eq!(d.percent(7), 0.0);
        let empty_links = LinkDistribution { buckets: vec![0; 4] };
        assert_eq!(empty_links.percent(0), 0.0);
        assert_eq!(empty_links.percent(3), 0.0);
    }
}
