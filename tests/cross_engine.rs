//! Cross-engine equivalence on realistic workloads.
//!
//! Every engine (SPINE reference/compact/disk v1/sealed disk v2, suffix
//! tree memory/disk, suffix array) answers identical queries over the same
//! preset-generated sequences, and all answers are held to the scan-based
//! oracle.

use genseq::preset;
use pagestore::{Lru, MemDevice, PrefixPriority};
use spine::{CompactSpine, DiskSpine, FallibleSpineOps, SealedSpine, Spine};
use strindex::{Alphabet, Code, MatchingIndex, StringIndex};
use suffix_array::SaIndex;
use suffix_tree::{DiskSuffixTree, SuffixTree};
use suffix_trie::NaiveIndex;

struct Engines {
    alphabet: Alphabet,
    text: Vec<Code>,
    oracle: NaiveIndex,
    spine: Spine,
    compact: CompactSpine,
    disk: DiskSpine,
    disk_v2: SealedSpine,
    st: SuffixTree,
    st_disk: DiskSuffixTree,
    sa: SaIndex,
}

fn engines(name: &str, scale: f64) -> Engines {
    let p = preset(name).unwrap();
    let alphabet = p.alphabet();
    let text = p.generate(scale);
    Engines {
        oracle: NaiveIndex::new(alphabet.clone(), &text),
        spine: Spine::build(alphabet.clone(), &text).unwrap(),
        compact: CompactSpine::build(alphabet.clone(), &text).unwrap(),
        disk: DiskSpine::build(
            alphabet.clone(),
            &text,
            Box::new(MemDevice::new()),
            8,
            Box::<PrefixPriority>::default(),
        )
        .unwrap(),
        disk_v2: SealedSpine::build_sealed(
            alphabet.clone(),
            &text,
            Box::new(MemDevice::new()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap(),
        st: SuffixTree::build(alphabet.clone(), &text).unwrap(),
        st_disk: DiskSuffixTree::build(
            alphabet.clone(),
            &text,
            Box::new(MemDevice::new()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap(),
        sa: SaIndex::build(alphabet.clone(), &text),
        alphabet,
        text,
    }
}

/// Patterns: text windows (hits), perturbed windows (mostly misses), and
/// short k-mers.
fn patterns(e: &Engines) -> Vec<Vec<Code>> {
    let n = e.text.len();
    let mut pats = Vec::new();
    for (i, len) in [(0usize, 1usize), (n / 3, 8), (n / 2, 24), (n - 40, 40), (7, 3)] {
        pats.push(e.text[i..i + len].to_vec());
    }
    for p in pats.clone() {
        let mut q = p;
        if let Some(last) = q.last_mut() {
            *last = (*last + 1) % e.alphabet.size() as Code;
        }
        pats.push(q);
    }
    for k in 0..e.alphabet.size().min(4) as Code {
        pats.push(vec![k, k]);
    }
    pats
}

fn check_exact(e: &Engines) {
    for p in patterns(e) {
        let want_first = e.oracle.find_first(&p);
        let want_all = e.oracle.find_all(&p);
        assert_eq!(e.spine.find_first(&p), want_first, "spine/find_first {p:?}");
        assert_eq!(e.compact.find_first(&p), want_first, "compact/find_first");
        assert_eq!(e.disk.find_first(&p), want_first, "disk/find_first");
        assert_eq!(e.disk_v2.find_first(&p), want_first, "disk-v2/find_first");
        assert_eq!(e.st.find_first(&p), want_first, "st/find_first");
        assert_eq!(e.st_disk.find_first(&p), want_first, "st-disk/find_first");
        assert_eq!(e.sa.find_first(&p), want_first, "sa/find_first");
        assert_eq!(e.spine.find_all(&p), want_all, "spine/find_all {p:?}");
        assert_eq!(e.compact.find_all(&p), want_all, "compact/find_all");
        assert_eq!(e.disk.find_all(&p), want_all, "disk/find_all");
        assert_eq!(e.disk_v2.find_all(&p), want_all, "disk-v2/find_all");
        assert_eq!(e.st.find_all(&p), want_all, "st/find_all");
        assert_eq!(e.st_disk.find_all(&p), want_all, "st-disk/find_all");
        assert_eq!(e.sa.find_all(&p), want_all, "sa/find_all");
    }
}

fn check_matching(e: &Engines, query: &[Code]) {
    let want = e.oracle.matching_statistics(query);
    assert_eq!(e.spine.matching_statistics(query), want, "spine/ms");
    assert_eq!(e.compact.matching_statistics(query), want, "compact/ms");
    assert_eq!(e.disk.matching_statistics(query), want, "disk/ms");
    assert_eq!(e.disk_v2.matching_statistics(query), want, "disk-v2/ms");
    assert_eq!(e.st.matching_statistics(query), want, "st/ms");
    assert_eq!(e.st_disk.matching_statistics(query), want, "st-disk/ms");
    assert_eq!(e.sa.matching_statistics(query), want, "sa/ms");
    for threshold in [4usize, 12] {
        let want = e.oracle.maximal_matches(query, threshold);
        assert_eq!(e.spine.maximal_matches(query, threshold), want, "spine/mm");
        assert_eq!(e.compact.maximal_matches(query, threshold), want, "compact/mm");
        assert_eq!(e.disk.maximal_matches(query, threshold), want, "disk/mm");
        assert_eq!(e.disk_v2.maximal_matches(query, threshold), want, "disk-v2/mm");
        assert_eq!(e.st.maximal_matches(query, threshold), want, "st/mm");
        assert_eq!(e.st_disk.maximal_matches(query, threshold), want, "st-disk/mm");
        assert_eq!(e.sa.maximal_matches(query, threshold), want, "sa/mm");
    }
}

#[test]
fn dna_preset_equivalence() {
    let e = engines("eco-sim", 0.0004); // 1 400 symbols
    check_exact(&e);
    let query: Vec<Code> = genseq::mutate(
        &e.text[..600],
        e.alphabet.size(),
        &genseq::MutationProfile::default(),
        &mut genseq::rng(5),
    );
    check_matching(&e, &query);
}

#[test]
fn protein_preset_equivalence() {
    let e = engines("yst-sim", 0.0004); // ~1 240 residues
    check_exact(&e);
    let query = e.text[100..700].to_vec();
    check_matching(&e, &query);
}

#[test]
fn unrelated_query_equivalence() {
    let e = engines("eco-sim", 0.0003);
    let query = genseq::iid_sequence(&e.alphabet, 500, &mut genseq::rng(77));
    check_matching(&e, &query);
}

#[test]
fn spine_invariants_hold_on_presets() {
    for name in ["eco-sim", "yst-sim"] {
        let p = preset(name).unwrap();
        let text = p.generate(0.0003);
        let s = Spine::build(p.alphabet(), &text).unwrap();
        assert_eq!(s.verify(), vec![], "{name}");
    }
}

/// Node 9 of this text carries 3 ribs and 6 extribs, two more edges than
/// the compact layout's last rib-table class holds ((σ−1)+4 = 7 for DNA).
/// The compact build widens that class instead of panicking, and matches
/// the reference edge for edge, before and after a save/load round trip.
#[test]
fn compact_layout_holds_fanout_past_its_last_class() {
    let a = Alphabet::dna();
    let text = a.encode(b"GCCCCCCCTGCCCTGCCCCCCTGCCTGCCCCCTAGCCCCTGCTTC").unwrap();
    let reference = Spine::build(a.clone(), &text).unwrap();
    assert_eq!(reference.nodes()[9].fanout(), 9);
    let built = CompactSpine::build(a.clone(), &text).unwrap();
    let mut saved = Vec::new();
    built.write_to(&mut saved).unwrap();
    let reloaded = CompactSpine::read_from(&mut saved.as_slice()).unwrap();
    let oracle = NaiveIndex::new(a.clone(), &text);
    for compact in [&built, &reloaded] {
        for node in 0..=text.len() as u32 {
            let vertebra = (reference.try_vertebra_out(node), compact.try_vertebra_out(node));
            assert_eq!(vertebra.0.unwrap(), vertebra.1.unwrap(), "vertebra {node}");
            if node > 0 {
                let link = (reference.try_link_of(node), compact.try_link_of(node));
                assert_eq!(link.0.unwrap(), link.1.unwrap(), "link {node}");
            }
            for c in 0..a.code_space() as Code {
                let rib = (reference.try_rib_of(node, c), compact.try_rib_of(node, c));
                assert_eq!(rib.0.unwrap(), rib.1.unwrap(), "rib {c} at {node}");
            }
            for e in reference.nodes()[node as usize].extribs.iter() {
                let extrib = compact.try_extrib_of(node, e.prt).unwrap();
                assert_eq!(extrib, Some((e.dest, e.pt)), "extrib at {node}");
            }
        }
        for len in 1..=6 {
            for w in text.windows(len) {
                assert_eq!(compact.find_all(w), oracle.find_all(w), "find_all {w:?}");
            }
        }
    }
}
