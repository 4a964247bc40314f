//! BuildStats ↔ structure reconciliation, property-tested.
//!
//! The build observer's counters are only trustworthy if they agree with
//! the finished index — every rib the observer saw created must be present
//! (SPINE never deletes ribs), every link event must correspond to a node,
//! and the CASE 1–4 dispositions must partition the insertions. This suite
//! pins those invariants over random DNA / protein / raw-byte texts
//! (including the empty and single-character edge cases) and checks that
//! the representation-independent counts are identical between the
//! reference, compact and fixed-record disk engines — the disk engine's
//! links, ribs and extribs node for node, too.

use genseq::rng;
use pagestore::{Lru, MemDevice};
use proptest::prelude::*;
use rand::Rng;
use spine::{BuildStats, CompactSpine, DiskSpine, Extrib, Node, Rib, Spine, SpineOps, ROOT};
use std::mem::size_of;
use strindex::{Alphabet, Code};

fn random_text(a: &Alphabet, len: usize, seed: u64) -> Vec<Code> {
    let mut r = rng(seed);
    (0..len).map(|_| r.gen_range(0..a.size()) as Code).collect()
}

/// Build `text` with the observer attached and check every reconciliation
/// invariant against the reference engine's explicit structure.
fn reconcile(a: &Alphabet, text: &[Code]) -> (Spine, BuildStats) {
    let (s, st) = Spine::build_with_stats(a.clone(), text).unwrap();

    // Dispositions partition the insertions; links fire once each.
    assert_eq!(st.insertions as usize, text.len(), "one insertion per character");
    assert_eq!(st.dispositions(), st.insertions, "CASE counts must sum to insertions");
    assert_eq!(st.links_set, st.insertions, "exactly one link per insertion");
    assert_eq!(st.first_char, u64::from(!text.is_empty()), "FirstChar fires for text[0] only");

    // Structural counts: ribs are never deleted, extribs only appended.
    let nodes = s.nodes();
    let ribs_present: u64 = nodes.iter().map(|n| n.ribs.len() as u64).sum();
    let extribs_present: u64 = nodes.iter().map(|n| n.extribs.len() as u64).sum();
    assert_eq!(st.ribs_absorbed, 0, "APPEND cannot absorb ribs");
    assert_eq!(st.ribs_created - st.ribs_absorbed, ribs_present, "ribs created vs present");
    assert_eq!(st.extribs_created, extribs_present, "extribs created vs present");
    assert_eq!(st.extrib_spills, 0, "the in-memory layout never spills");

    // Link labels: positive-LEL links and the maximum agree with the nodes.
    let positive_lel = nodes.iter().filter(|n| n.lel > 0).count() as u64;
    let max_lel = nodes.iter().map(|n| n.lel).max().unwrap_or(0);
    assert_eq!(st.links_with_positive_lel, positive_lel, "links with LEL > 0");
    assert_eq!(st.max_lel, max_lel, "maximum LEL");

    // CASE 3 creates ribs; CASE 4 creates extribs, one each per disposition.
    assert_eq!(st.case4_extrib, st.extribs_created, "one extrib per CASE 4 creation");
    assert!(st.ribs_created >= st.case3_root, "CASE 3 walks create at least one rib each");

    // Memory accounting covers every node (Code is one byte per vertebra).
    assert_eq!(st.mem.vertebrae as usize, text.len() + 1, "one vertebra byte per node");
    assert_eq!(
        st.mem.total(),
        st.mem.vertebrae + st.mem.links + st.mem.ribs + st.mem.extribs,
        "breakdown sums to its total"
    );

    // Edges are exact-length slices: the breakdown counts them by length,
    // and `heap_bytes` counts them the same way, so what it adds on top is
    // the node vector — a whole number of nodes, at least one per node.
    assert_eq!(st.mem.ribs, ribs_present * size_of::<Rib>() as u64, "rib bytes by length");
    assert_eq!(st.mem.extribs, extribs_present * size_of::<Extrib>() as u64, "extrib bytes");
    let node_bytes = s.heap_bytes() as u64 - st.mem.ribs - st.mem.extribs;
    assert_eq!(node_bytes % size_of::<Node>() as u64, 0, "heap_bytes holds whole nodes");
    assert!(node_bytes >= std::mem::size_of_val(nodes) as u64, "every node counted");

    (s, st)
}

/// The compact and fixed-record disk layouts must observe the identical
/// event stream, and the disk engine's APPEND must lay down the reference
/// structure: every link, every rib, and every extrib found by its chain's
/// PRT, whether it sits in an inline slot or the spill table. (Raw-byte
/// alphabets skip the compact layout: its slot markers cap its code space
/// at 253 symbols.)
fn cross_engine(a: &Alphabet, text: &[Code], reference: &Spine, stats: &BuildStats) {
    if a.code_space() < 254 {
        let (c, ct) = CompactSpine::build_with_stats(a.clone(), text).unwrap();
        assert_eq!(
            ct.counts(),
            stats.counts(),
            "compact engine's event counts diverge from the reference engine"
        );
        assert_eq!(ct.extrib_spills, 0);
        assert_eq!(c.len(), text.len());
    }

    let (d, dt) = DiskSpine::build_with_stats(
        a.clone(),
        text,
        Box::new(MemDevice::new()),
        4,
        Box::<Lru>::default(),
    )
    .unwrap();
    assert_eq!(dt.counts(), stats.counts(), "disk engine's event counts diverge");
    assert_eq!(dt.extrib_spills, d.spill_count(), "spill events vs the side table");
    assert_eq!(d.len(), text.len());
    for (id, n) in (0..).zip(reference.nodes()) {
        if id != ROOT {
            assert_eq!(d.link_of(id), (n.link, n.lel), "link of {id}");
        }
        for r in n.ribs.iter() {
            assert_eq!(d.rib_of(id, r.cl), Some((r.dest, r.pt)), "rib {} of {id}", r.cl);
        }
        for e in n.extribs.iter() {
            assert_eq!(d.extrib_of(id, e.prt), Some((e.dest, e.pt)), "extrib {} of {id}", e.prt);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DNA texts, length 0 upward (0 and 1 are the edge cases the
    /// pinned tests below also cover explicitly).
    #[test]
    fn dna_builds_reconcile(len in 0usize..400, seed in 0u64..1 << 48) {
        let a = Alphabet::dna();
        let text = random_text(&a, len, seed);
        let (s, st) = reconcile(&a, &text);
        cross_engine(&a, &text, &s, &st);
    }

    /// Random protein texts (20-symbol alphabet).
    #[test]
    fn protein_builds_reconcile(len in 0usize..250, seed in 0u64..1 << 48) {
        let a = Alphabet::protein();
        let text = random_text(&a, len, seed);
        let (s, st) = reconcile(&a, &text);
        cross_engine(&a, &text, &s, &st);
    }

    /// Random raw-byte texts (256 symbols).
    #[test]
    fn byte_builds_reconcile(len in 0usize..150, seed in 0u64..1 << 48) {
        let a = Alphabet::bytes();
        let text = random_text(&a, len, seed);
        let (s, st) = reconcile(&a, &text);
        cross_engine(&a, &text, &s, &st);
    }
}

/// The degenerate texts, pinned explicitly rather than left to chance.
#[test]
fn empty_and_single_character_texts_reconcile() {
    for a in [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()] {
        let (s, st) = reconcile(&a, &[]);
        assert_eq!(st.insertions, 0);
        assert_eq!(st.counts(), BuildStats::default().counts(), "empty build counts nothing");
        cross_engine(&a, &[], &s, &st);

        let (s, st) = reconcile(&a, &[0]);
        assert_eq!(st.insertions, 1);
        assert_eq!(st.first_char, 1);
        assert_eq!(st.ribs_created, 0, "a single character creates no ribs");
        assert_eq!(st.max_lel, 0);
        cross_engine(&a, &[0], &s, &st);
    }
}

/// The paper's running example, reconciled through the public test API the
/// same way random texts are (the exact expected counts live in the spine
/// crate's unit tests).
#[test]
fn paper_example_reconciles_across_engines() {
    let a = Alphabet::dna();
    let text = a.encode(b"AACCACAACA").unwrap();
    let (s, st) = reconcile(&a, &text);
    cross_engine(&a, &text, &s, &st);
    assert_eq!(st.insertions, 10);
    assert_eq!(st.ribs_created, 4);
    assert_eq!(st.extribs_created, 2);
    assert_eq!(st.max_lel, 3);
    assert_eq!(s.len(), 10);
}
