//! Layout-v2 honesty battery: the sealed varint/delta page format and the
//! word-packed backbone must be *provably* equivalent to the reference
//! engines, across alphabets, page boundaries, file round-trips, and
//! format-version mismatches.
//!
//! Complements the unit-level codec proptests in `spine::disk`: here
//! everything goes through the public API — `build_sealed` / `seal` /
//! `reopen` — over real `FileDevice` files where durability is the claim
//! under test, and frozen digests pin the format's bytes.

use genseq::rng;
use pagestore::{FileDevice, Lru, MemDevice, PAGE_FORMAT_V2, PAGE_SIZE};
use proptest::prelude::*;
use rand::Rng;
use spine::{DiskSpine, FallibleSpineOps, SealedSpine, Spine, DISK_FORMAT_VERSION};
use strindex::{Alphabet, Code, Error, StringIndex};

fn random_text(a: &Alphabet, len: usize, seed: u64) -> Vec<Code> {
    let mut r = rng(seed);
    (0..len).map(|_| r.gen_range(0..a.size()) as Code).collect()
}

fn scan_find_all(text: &[Code], pattern: &[Code]) -> Vec<usize> {
    if pattern.len() > text.len() {
        return Vec::new();
    }
    (0..=text.len() - pattern.len()).filter(|&i| &text[i..i + pattern.len()] == pattern).collect()
}

fn seal(a: &Alphabet, text: &[Code], pool: usize) -> SealedSpine {
    SealedSpine::build_sealed(
        a.clone(),
        text,
        Box::new(MemDevice::new()),
        pool,
        Box::<Lru>::default(),
    )
    .unwrap()
}

/// A scratch directory for the `FileDevice` round-trip tests.
fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("spine-layout-v2-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// The sealed census must reconcile exactly with the construction
/// observer's counts, for every alphabet: structural compression cannot
/// invent or drop edges.
#[test]
fn census_reconciles_with_build_stats_across_alphabets() {
    for (a, len) in
        [(Alphabet::dna(), 900usize), (Alphabet::protein(), 500), (Alphabet::bytes(), 300)]
    {
        let text = random_text(&a, len, 0xCE1505 + len as u64);
        let (spine, st) = Spine::build_with_stats(a.clone(), &text).unwrap();
        let sealed =
            SealedSpine::seal(&spine, Box::new(MemDevice::new()), 8, Box::<Lru>::default())
                .unwrap();
        let census = sealed.sealed_census().unwrap();
        assert_eq!(census.nodes, len as u64 + 1, "one record per backbone node plus the root");
        assert_eq!(census.ribs, st.ribs_created, "rib records vs observer");
        assert_eq!(census.extribs, st.extribs_created, "extrib records vs observer");
        assert_eq!(census.overflow_records, 0, "natural texts never overflow a page");
    }
}

/// Texts large enough that the packed labels straddle label pages and the
/// node records straddle many slotted pages — every answer must cross page
/// boundaries and still match the straight-line scan.
#[test]
fn page_straddling_texts_answer_exactly() {
    let a = Alphabet::dna();
    // > 511 words × 32 symbols/word forces a second label page.
    let text = random_text(&a, 17_000, 0x57D0);
    let sealed = seal(&a, &text, 6);
    let pages = sealed.file_pages();
    assert!(pages > 4, "17k nodes must spread over several pages, got {pages}");

    let mut r = rng(0x57D1);
    for _ in 0..60 {
        let len = r.gen_range(1..=40usize);
        let at = r.gen_range(0..=text.len() - len);
        let pattern = &text[at..at + len];
        assert_eq!(sealed.find_all(pattern), scan_find_all(&text, pattern), "hit at {at}");
        let mut miss = pattern.to_vec();
        let flip = r.gen_range(0..miss.len());
        miss[flip] = (miss[flip] + 1) % a.size() as Code;
        assert_eq!(sealed.find_all(&miss), scan_find_all(&text, &miss), "perturbed at {at}");
    }
}

/// Reopen the sealed file at `path`.
fn reopen(path: &std::path::Path, pool: usize) -> strindex::Result<SealedSpine> {
    SealedSpine::reopen(Box::new(FileDevice::open(path, false)?), pool, Box::<Lru>::default())
}

/// The durable round-trip: seal onto a real file, drop everything, reopen
/// from the file alone — same answers, same packing, same census.
#[test]
fn file_device_seal_reopen_round_trip() {
    let a = Alphabet::dna();
    let text = random_text(&a, 1200, 0xF11E);
    let dev_path = tmp("roundtrip.pages");

    let sealed = SealedSpine::build_sealed(
        a.clone(),
        &text,
        Box::new(FileDevice::create(&dev_path, false).unwrap()),
        8,
        Box::<Lru>::default(),
    )
    .unwrap();
    let census = sealed.sealed_census().unwrap();
    drop(sealed);

    let reopened = reopen(&dev_path, 4).unwrap();
    assert_eq!(reopened.backbone_packing(), Some(2), "packing survives the reopen");
    assert_eq!(reopened.sealed_census().unwrap(), census);

    let reference = Spine::build(a.clone(), &text).unwrap();
    let mut r = rng(0xF12E);
    for _ in 0..40 {
        let len = r.gen_range(1..=16usize);
        let at = r.gen_range(0..=text.len() - len);
        let pattern = &text[at..at + len];
        assert_eq!(reopened.find_all(pattern), reference.find_all(pattern));
    }

    std::fs::remove_file(&dev_path).ok();
}

/// Format versioning: a v1 (fixed-record) file and a v2 file (whose page
/// directory, byte census and overflow records lived in a `.meta`
/// sidecar) must both be rejected with the *typed* rebuild-required error
/// — not a parse error, not a panic — and rebuilding through
/// `build_sealed` must recover the exact answers.
#[test]
fn v1_artifact_reports_rebuild_required_then_rebuild_recovers() {
    let a = Alphabet::protein();
    let text = random_text(&a, 400, 0x0BE1);
    let v1_path = tmp("v1-engine.pages");

    let v1 = DiskSpine::build(
        a.clone(),
        &text,
        Box::new(FileDevice::create(&v1_path, false).unwrap()),
        8,
        Box::<Lru>::default(),
    )
    .unwrap();
    v1.flush().unwrap();
    drop(v1);
    // A v2 file is today's pages 1..N under a page 0 that ends after the
    // node page count.
    let v2_path = tmp("v2-engine.pages");
    let dev = Box::new(FileDevice::create(&v2_path, false).unwrap());
    drop(SealedSpine::build_sealed(a.clone(), &text, dev, 8, Box::<Lru>::default()).unwrap());
    let mut file = std::fs::read(&v2_path).unwrap();
    file[12..14].copy_from_slice(&2u16.to_le_bytes());
    file[33..PAGE_SIZE].fill(0);
    std::fs::write(&v2_path, &file).unwrap();

    // A v1 page 0 holds records, so its first byte (the root's label, 0)
    // fails the page-format check; a v2 page 0 fails the file version.
    for (what, path, found) in [("v1", &v1_path, 0), ("v2", &v2_path, 2)] {
        let err = reopen(path, 8).err().expect("an earlier format must not reopen");
        let want = if found == 0 { PAGE_FORMAT_V2 as u16 } else { DISK_FORMAT_VERSION };
        assert!(
            matches!(err, Error::FormatVersion { found: f, expected: e } if f == found && e == want),
            "{what}: want the typed version mismatch, got {err:?}"
        );
        assert!(err.to_string().contains("rebuild required"), "operator-facing hint: {err}");
    }

    // The prescribed recovery: rebuild into a sealed file and reopen it.
    let rebuilt_path = tmp("rebuilt.pages");
    let rebuilt = SealedSpine::build_sealed(
        a.clone(),
        &text,
        Box::new(FileDevice::create(&rebuilt_path, false).unwrap()),
        8,
        Box::<Lru>::default(),
    )
    .unwrap();
    drop(rebuilt);

    let reopened = reopen(&rebuilt_path, 8).unwrap();
    let reference = Spine::build(a.clone(), &text).unwrap();
    let mut r = rng(0x0BE2);
    for _ in 0..30 {
        let len = r.gen_range(1..=10usize);
        let at = r.gen_range(0..=text.len() - len);
        let pattern = &text[at..at + len];
        assert_eq!(reopened.find_all(pattern), reference.find_all(pattern));
        assert_eq!(reopened.find_all(pattern), scan_find_all(&text, pattern));
    }

    for path in [&v1_path, &v2_path, &rebuilt_path] {
        std::fs::remove_file(path).ok();
    }
}

/// Degenerate inputs: the empty text and the single-symbol text seal,
/// round-trip through their page file, and answer correctly.
#[test]
fn empty_and_len1_texts_seal_and_reopen() {
    for (i, (a, text)) in [
        (Alphabet::dna(), vec![]),
        (Alphabet::dna(), vec![3 as Code]),
        (Alphabet::bytes(), vec![]),
        (Alphabet::bytes(), vec![200 as Code]),
    ]
    .into_iter()
    .enumerate()
    {
        let path = tmp(&format!("degenerate-{i}.pages"));
        let spine = Spine::build(a.clone(), &text).unwrap();
        let dev = Box::new(FileDevice::create(&path, false).unwrap());
        drop(SealedSpine::seal(&spine, dev, 2, Box::<Lru>::default()).unwrap());
        let sealed = reopen(&path, 2).unwrap();
        assert_eq!(sealed.sealed_census().unwrap().nodes, text.len() as u64 + 1);
        let want_pages = if text.is_empty() { 2 } else { 3 }; // header [+ labels] + nodes
        assert_eq!(sealed.file_pages(), want_pages);
        for p in [&[][..], &[0], &text] {
            assert_eq!(sealed.find_all(p), scan_find_all(&text, p));
        }
        assert_eq!(sealed.find_first(&text), Some(0));
        assert!(!sealed.contains(&[0, 0, 0]) || text.len() >= 3);
        std::fs::remove_file(&path).ok();
    }
}

/// The sealed pages really are smaller: the v2 file footprint must be a
/// multiple smaller than the v1 fixed-record footprint on the same text.
#[test]
fn v2_footprint_is_materially_smaller_than_v1() {
    let a = Alphabet::dna();
    let text = random_text(&a, 4000, 0x5123);
    let mutable =
        DiskSpine::build(a.clone(), &text, Box::new(MemDevice::new()), 16, Box::<Lru>::default())
            .unwrap();
    let (v1_reads, v1_writes) = mutable.io_counts();
    assert!(v1_reads + v1_writes > 0);
    // The mutable layout burns one 80-byte record per node.
    let v1_pages = (text.len() as u64 + 1).div_ceil(PAGE_SIZE as u64 / 80);
    let sealed = seal(&a, &text, 8);
    let v2_pages = sealed.file_pages();
    assert!(
        v2_pages * 3 < v1_pages,
        "layout v2 must cut pages at least 3x: v1 {v1_pages} vs v2 {v2_pages}"
    );
    let bytes_per_node = (v2_pages * PAGE_SIZE as u64) as f64 / (text.len() as f64 + 1.0);
    assert!(bytes_per_node < 14.0, "on-disk bytes/node {bytes_per_node:.2} out of budget");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random texts over random alphabets: the sealed engine, squeezed
    /// through a tiny pool, always matches the straight-line scan.
    #[test]
    fn sealed_engine_matches_scan(
        len in 0usize..300,
        seed in 0u64..1 << 48,
        alpha in 0usize..3,
    ) {
        let a = match alpha {
            0 => Alphabet::dna(),
            1 => Alphabet::protein(),
            _ => Alphabet::bytes(),
        };
        let text = random_text(&a, len, seed);
        let spine = Spine::build(a.clone(), &text).unwrap();
        let sealed = SealedSpine::seal(&spine, Box::new(MemDevice::new()), 2, Box::<Lru>::default())
            .unwrap();
        prop_assert_eq!(sealed.sealed_census().unwrap().nodes, len as u64 + 1);

        let mut r = rng(seed ^ 0xACE);
        for _ in 0..10 {
            let plen = r.gen_range(0..=12usize);
            let pattern: Vec<Code> = if !text.is_empty() && plen <= text.len() && r.gen_bool(0.6) {
                let at = r.gen_range(0..=text.len() - plen);
                text[at..at + plen].to_vec()
            } else {
                (0..plen).map(|_| r.gen_range(0..a.size()) as Code).collect()
            };
            let want = scan_find_all(&text, &pattern);
            prop_assert_eq!(sealed.find_all(&pattern), want, "sealed");
        }
    }
}

/// 64-bit FNV-1a, a stable digest for the golden-format test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A self-contained xorshift stream, so the golden inputs never depend on
/// a library generator's output staying the same.
fn golden_stream(mut x: u64) -> impl FnMut(usize) -> usize {
    move |n| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    }
}

/// The golden corpora: `(case, alphabet, text)`. ASCII log lines and
/// separated DNA documents are segment-store concatenations (each
/// document closed by the separator); the separator keeps DNA out of the
/// 2-bit packing, so that case seals the 3-bit scalar label store.
/// Protein packs at 5 bits, bytes at 8 (scalar), and the plain DNA case
/// is the one that seals word-packed 2-bit labels.
fn golden_cases() -> Vec<(&'static str, Alphabet, Vec<Code>)> {
    let mut next = golden_stream(0x0601_DE11);
    let ascii = Alphabet::ascii();
    let mut logs = Vec::new();
    for i in 0..160 {
        let line = format!(
            "2026-10-18T06:{:02}:{:02} {} worker-{} GET /api/v1/items/{} {} {}ms",
            i / 60,
            i % 60,
            ["INFO", "WARN", "DEBUG"][next(3)],
            next(8),
            next(5000),
            [200, 200, 404, 500][next(4)],
            next(900)
        );
        logs.extend(ascii.encode(line.as_bytes()).unwrap());
        logs.push(ascii.separator());
    }
    let dna = Alphabet::dna();
    let mut separated = Vec::new();
    for _ in 0..40 {
        separated.extend((0..300 + next(200)).map(|_| next(4) as Code));
        separated.push(dna.separator());
    }
    let protein = Alphabet::protein();
    let prot: Vec<Code> = (0..7000).map(|_| next(20) as Code).collect();
    let bytes = Alphabet::bytes();
    let raw: Vec<Code> = (0..5000).map(|_| next(254) as Code).collect();
    let plain: Vec<Code> = (0..9000).map(|_| next(4) as Code).collect();
    vec![
        ("ascii-logs", ascii, logs),
        ("dna-separated", dna.clone(), separated),
        ("protein", protein, prot),
        ("bytes", bytes, raw),
        ("dna", dna, plain),
    ]
}

/// `(case, page-file digest, device reads, writes, syncs)`.
type Golden = (&'static str, u64, u64, u64, u64);

/// Frozen format-v3 page files of [`golden_cases`], sealed with a 4-frame
/// pool onto `FileDevice` files. A change to these bytes is a format
/// change: bump `DISK_FORMAT_VERSION` and re-record.
const GOLDEN: [Golden; 5] = [
    ("ascii-logs", 0xbe0d20e2527287dd, 25, 25, 2),
    ("dna-separated", 0x5edb2f17c06bf029, 42, 42, 2),
    ("protein", 0xbbd6324ae3179f96, 22, 22, 2),
    ("bytes", 0x66ed502559072157, 16, 16, 2),
    ("dna", 0xf4391372cd012980, 24, 24, 2),
];

/// Seal `text` onto a fresh file at `path`.
fn seal_file(a: &Alphabet, text: &[Code], path: &std::path::Path) -> SealedSpine {
    let spine = Spine::build(a.clone(), text).unwrap();
    let dev = Box::new(FileDevice::create(path, false).unwrap());
    SealedSpine::seal(&spine, dev, 4, Box::<Lru>::default()).unwrap()
}

/// The sealed page files are byte-for-byte the frozen ones, and the
/// target device sees the same reads, writes and syncs.
#[test]
fn sealed_pages_match_golden_digests() {
    let mut got: Vec<Golden> = Vec::new();
    for (case, a, text) in golden_cases() {
        let path = tmp(&format!("golden-{case}.pages"));
        let sealed = seal_file(&a, &text, &path);
        let (reads, writes) = sealed.io_counts();
        let syncs = sealed.io_syncs();
        let pages = sealed.file_pages();
        drop(sealed);
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(file.len() as u64, pages * PAGE_SIZE as u64, "{case}: file size");
        got.push((case, fnv1a(&file), reads, writes, syncs));
    }
    let table: String = got
        .iter()
        .map(|(c, p, r, w, s)| format!("    ({c:?}, {p:#018x}, {r}, {w}, {s}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "sealed artifacts changed; this run sealed:\n{table}");
}
