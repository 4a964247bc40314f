//! Crash-safe mutable serving: the LSM-of-SPINEs segment store.
//!
//! Walks the full lifecycle — add documents, seal them into immutable
//! layout-v2 segments, retire one (a manifest tombstone), compact with a
//! merge — then simulates a crash *mid-commit* with an injected I/O fault
//! and shows recovery landing on the last committed epoch, with the
//! orphaned half-written files detected and cleaned.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use spine::{IoGate, SegmentConfig, SegmentedSpine};
use strindex::Alphabet;

fn main() -> strindex::Result<()> {
    let a = Alphabet::dna();
    let dir = std::env::temp_dir().join(format!("spine-example-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SegmentConfig { pool_pages: 4, merge_min_segments: 2, ..Default::default() };

    // -- Normal life: add, seal, retire, merge -----------------------------
    let store = SegmentedSpine::create(a.clone(), &dir, cfg.clone())?;
    for text in [&b"ACGTACGTAC"[..], b"GGGGTTTT", b"CACACACA"] {
        let id = store.add_document(&a.encode(text)?)?;
        println!("added doc {id}: {}", String::from_utf8_lossy(text));
    }
    store.force_seal()?;
    let id = store.add_document(&a.encode(b"TTACGTTA")?)?;
    println!("added doc {id}: TTACGTTA");
    store.force_seal()?;
    println!("sealed twice -> epoch {}, {} segments", store.epoch(), store.stats().segments);

    store.retire_document(1)?;
    println!("retired doc 1 -> epoch {} (tombstone committed)", store.epoch());
    store.merge_once()?;
    let s = store.stats();
    println!(
        "merged -> epoch {}, {} segment(s), {} tombstones, {} live docs",
        s.epoch, s.segments, s.tombstones, s.live_docs
    );
    let pat = a.encode(b"ACGT")?;
    let hits: Vec<(usize, usize)> =
        store.try_find_all(&pat)?.into_iter().map(|m| (m.doc, m.offset)).collect();
    println!("ACGT -> {hits:?}");
    let committed_epoch = store.epoch();
    let committed_live = store.live_doc_ids();
    drop(store);

    // -- Crash mid-commit --------------------------------------------------
    // Reopen with a gate that hard-fails every I/O operation from index N
    // on — as if the machine lost power there — and try to seal one more
    // document. The seal writes the segment's page file, then the
    // manifest; the gate kills it partway through the page file. N is a
    // few operations past what a recovery of this store costs, counted
    // first with an unarmed gate.
    let probe = IoGate::unarmed();
    drop(SegmentedSpine::open(
        a.clone(),
        &dir,
        SegmentConfig { gate: Some(probe.clone()), ..cfg.clone() },
    )?);
    let gate = IoGate::armed(probe.ops() + 3);
    let crashed =
        SegmentedSpine::open(a.clone(), &dir, SegmentConfig { gate: Some(gate), ..cfg.clone() })?;
    crashed.add_document(&a.encode(b"AAAACCCC")?)?;
    let err = crashed.force_seal().unwrap_err();
    println!("\ncrash injected mid-seal: {err}");
    drop(crashed);

    // -- Recovery ----------------------------------------------------------
    let recovered = SegmentedSpine::open(a.clone(), &dir, cfg)?;
    println!(
        "recovered -> epoch {} (last committed was {}), live docs {:?}",
        recovered.epoch(),
        committed_epoch,
        recovered.live_doc_ids()
    );
    assert_eq!(recovered.epoch(), committed_epoch);
    assert_eq!(recovered.live_doc_ids(), committed_live);
    let hits2: Vec<(usize, usize)> =
        recovered.try_find_all(&pat)?.into_iter().map(|m| (m.doc, m.offset)).collect();
    assert_eq!(hits2, hits);
    println!("ACGT -> {hits2:?} (identical to pre-crash committed answers)");
    println!(
        "orphans from the torn seal: {} -> cleaned {}",
        recovered.orphan_count(),
        recovered.cleanup_orphans()?
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
