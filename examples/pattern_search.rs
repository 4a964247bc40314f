//! Batched pattern search over a FASTA file (or a generated sequence).
//!
//! Demonstrates the paper's deferred-occurrence technique: the first
//! occurrence of every pattern is located through the index, then one
//! batch resolves all repetitions of all patterns. On the reference layout
//! the batch walks each pattern's link subtree; the compact and disk
//! layouts share a single sequential backbone scan.
//!
//! ```sh
//! cargo run --release --example pattern_search [file.fasta] [pattern ...]
//! ```
//!
//! Without arguments, a synthetic sequence is generated and probed with a
//! set of sampled patterns.

use genseq::fasta::read_encoded;
use genseq::preset;
use spine::occurrences::{find_all_ends_batch, Target};
use spine::Spine;
use strindex::{Alphabet, Code, StringIndex};

fn main() -> strindex::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let alphabet = Alphabet::dna();

    // Load or generate the data sequence.
    let (seq, source): (Vec<Code>, String) = match args.first() {
        Some(path) if path.ends_with(".fasta") || path.ends_with(".fa") => {
            let reader = std::io::BufReader::new(std::fs::File::open(path)?);
            let (codes, skipped) = read_encoded(reader, &alphabet)?;
            println!("loaded {path}: {} bases ({skipped} non-ACGT skipped)", codes.len());
            (codes, path.clone())
        }
        _ => {
            let p = preset("eco-sim").unwrap();
            let codes = p.generate(0.05);
            (codes, "eco-sim @ 5%".into())
        }
    };

    // Patterns: from the command line, or sampled windows of the data.
    let pattern_args: Vec<&String> =
        args.iter().skip(if source.ends_with("%") { 0 } else { 1 }).collect();
    let patterns: Vec<Vec<Code>> = if pattern_args.is_empty() {
        (0..24).map(|i| seq[(i * 7919) % (seq.len() - 16)..][..16].to_vec()).collect()
    } else {
        pattern_args
            .iter()
            .map(|p| alphabet.encode(p.as_bytes()))
            .collect::<strindex::Result<_>>()?
    };

    let index = Spine::build(alphabet.clone(), &seq)?;
    println!("indexed {} bases from {source}; {} patterns", seq.len(), patterns.len());

    // Phase 1: locate first occurrences only (cheap valid-path walks).
    let mut targets = Vec::new();
    let mut missing = 0usize;
    for p in &patterns {
        match index.locate(p) {
            Some(first_end) => targets.push(Target { first_end, len: p.len() as u32 }),
            None => missing += 1,
        }
    }
    println!("{} patterns present, {missing} absent", targets.len());

    // Phase 2: one batch resolves every occurrence of every pattern.
    let t0 = std::time::Instant::now();
    let occurrences = find_all_ends_batch(&index, &targets);
    let total: usize = occurrences.values().map(Vec::len).sum();
    println!("batch found {total} occurrences in {:.3}s", t0.elapsed().as_secs_f64());

    // Show a summary per pattern (and spot-check against find_all).
    for (p, t) in patterns.iter().zip(&targets).take(8) {
        let ends = &occurrences[t];
        let starts: Vec<usize> = ends.iter().map(|&e| e as usize - p.len()).collect();
        assert_eq!(starts, index.find_all(p));
        println!(
            "  {} → {} occurrence(s), first at {}",
            String::from_utf8_lossy(&alphabet.decode_all(p)),
            starts.len(),
            starts[0]
        );
    }
    Ok(())
}
