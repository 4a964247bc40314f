//! Disk-resident indexing: build a SPINE index on a real file device and
//! query it through a small buffer pool, comparing eviction policies —
//! including the paper's "keep the top of the Link Table resident" strategy.
//!
//! ```sh
//! cargo run --release --example disk_resident [length]
//! ```

use genseq::{iid_sequence, preset, rng};
use pagestore::{Clock, EvictionPolicy, Fifo, FileDevice, Lru, MemDevice, PrefixPriority};

/// A named eviction-policy factory.
type PolicyMaker = (&'static str, Box<dyn Fn() -> Box<dyn EvictionPolicy>>);
use spine::DiskSpine;
use strindex::{MatchingIndex, StringIndex};

fn main() -> strindex::Result<()> {
    let length: usize = std::env::args().nth(1).map_or(150_000, |s| s.parse().expect("length"));
    let p = preset("cel-sim").unwrap();
    let alphabet = p.alphabet();
    let genome = p.generate(length as f64 / p.full_len as f64);
    println!("data: {} bp", genome.len());

    // --- Build on a real file, with a tight pool -------------------------
    let dir = std::env::temp_dir().join("spine-example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("index-{}.pages", std::process::id()));
    let device = FileDevice::create(&path, false)?;
    let pool_pages = 64;

    let t0 = std::time::Instant::now();
    let index = DiskSpine::build(
        alphabet.clone(),
        &genome,
        Box::new(device),
        pool_pages,
        Box::<Lru>::default(),
    )?;
    index.flush()?;
    let (reads, writes) = index.io_counts();
    println!(
        "built on file in {:.2}s — {} page reads, {} page writes, build hit rate {:.1}%",
        t0.elapsed().as_secs_f64(),
        reads,
        writes,
        100.0 * index.pool_stats().hit_rate()
    );

    // Queries work straight off the pool.
    let probe = genome[1000..1024].to_vec();
    println!("probe pattern occurs {} times", index.find_all(&probe).len());

    // --- Policy comparison under pressure ---------------------------------
    // A hostile query (unrelated to the data) maximizes link chasing into
    // the upstream region, where Figure 8 says the links concentrate.
    let query = iid_sequence(&alphabet, genome.len() / 2, &mut rng(9));
    let small_pool = 16;
    println!("\npolicy comparison (pool = {small_pool} pages, matching statistics):");
    let policies: Vec<PolicyMaker> = vec![
        ("lru", Box::new(|| Box::<Lru>::default())),
        ("fifo", Box::new(|| Box::<Fifo>::default())),
        ("clock", Box::new(|| Box::<Clock>::default())),
        ("prefix-priority", Box::new(|| Box::<PrefixPriority>::default())),
    ];
    for (name, make) in policies {
        let idx = DiskSpine::build(
            alphabet.clone(),
            &genome,
            Box::new(MemDevice::new()),
            small_pool,
            make(),
        )?;
        let (r0, _) = idx.io_counts();
        let t0 = std::time::Instant::now();
        let ms = idx.matching_statistics(&query);
        let (r1, _) = idx.io_counts();
        println!(
            "  {name:<16} {:.3}s  {:>7} search reads  (best match len {})",
            t0.elapsed().as_secs_f64(),
            r1 - r0,
            ms.lengths.iter().max().unwrap()
        );
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
