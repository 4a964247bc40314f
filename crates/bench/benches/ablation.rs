//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * target-node-buffer **binary search vs linear scan** (the paper says
//!   "searching in the target node buffer is performed in binary fashion to
//!   improve the performance");
//! * **batched vs per-pattern** occurrence scans (the paper defers repeated
//!   occurrences to one final backbone scan), against the link-tree walk
//!   that replaced both on the reference layout (DESIGN.md §16);
//! * **compact vs reference** layout query cost (the §5 layout trades a
//!   little indirection for 4× less space);
//! * **RT migration** exposure: building on repeat-rich vs random text.

use criterion::{criterion_group, criterion_main, Criterion};
use genseq::{iid_sequence, rng};
use spine::occurrences::{find_all_ends, find_all_ends_batch, Target};
use spine::{CompactSpine, PrefixView, Spine};
use spine_bench::Dataset;
use strindex::{Alphabet, Code, StringIndex};

const N: usize = 100_000;

fn dataset() -> Dataset {
    Dataset::generate("eco-sim", N as f64 / 3_500_000.0)
}

/// The linear-scan variant of the all-occurrences scan, for the ablation.
fn occurrences_linear(s: &Spine, first: u32, len: u32) -> Vec<u32> {
    let mut buffer = vec![first];
    for (j, n) in (0..).zip(s.nodes()).skip(first as usize + 1) {
        if n.lel >= len && buffer.contains(&n.link) {
            buffer.push(j);
        }
    }
    buffer
}

fn target_buffer(c: &mut Criterion) {
    let d = dataset();
    let s = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
    // A short, frequent pattern: many occurrences → big buffer.
    let pat = &d.seq[..4].to_vec(); // short ⇒ thousands of occurrences ⇒ big buffer
    let first = s.locate(pat).unwrap();
    // A whole-text prefix view has no child lists, so it runs the §4 scan.
    let scan = PrefixView::new(&s, s.len());
    let mut g = c.benchmark_group("target-buffer");
    g.sample_size(10);
    g.bench_function("binary-search", |b| b.iter(|| find_all_ends(&scan, pat).len()));
    g.bench_function("linear-scan", |b| {
        b.iter(|| occurrences_linear(&s, first, pat.len() as u32).len())
    });
    g.finish();
}

fn batched_occurrences(c: &mut Criterion) {
    let d = dataset();
    let s = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
    let pats: Vec<Vec<Code>> =
        (0..32).map(|i| d.seq[i * 1013 % (d.seq.len() - 16)..][..16].to_vec()).collect();
    let targets: Vec<Target> = pats
        .iter()
        .map(|p| Target { first_end: s.locate(p).unwrap(), len: p.len() as u32 })
        .collect();
    let scan = PrefixView::new(&s, s.len());
    let mut g = c.benchmark_group("occurrence-scans");
    g.sample_size(10);
    g.bench_function("one-scan-per-pattern", |b| {
        b.iter(|| pats.iter().map(|p| find_all_ends(&scan, p).len()).sum::<usize>())
    });
    g.bench_function("single-batched-scan", |b| {
        b.iter(|| find_all_ends_batch(&scan, &targets).values().map(Vec::len).sum::<usize>())
    });
    g.bench_function("link-tree-walk-per-pattern", |b| {
        b.iter(|| pats.iter().map(|p| find_all_ends(&s, p).len()).sum::<usize>())
    });
    g.finish();
}

fn layout_query_cost(c: &mut Criterion) {
    let d = dataset();
    let r = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
    let cp = CompactSpine::build(d.alphabet.clone(), &d.seq).unwrap();
    let pats: Vec<Vec<Code>> =
        (0..64).map(|i| d.seq[i * 997 % (d.seq.len() - 24)..][..24].to_vec()).collect();
    let mut g = c.benchmark_group("layout");
    g.bench_function("reference-find", |b| {
        b.iter(|| pats.iter().filter_map(|p| r.find_first(p)).count())
    });
    g.bench_function("compact-find", |b| {
        b.iter(|| pats.iter().filter_map(|p| cp.find_first(p)).count())
    });
    g.finish();
}

fn migration_exposure(c: &mut Criterion) {
    // Random text creates more fresh downstream edges (more migrations)
    // than repeat-rich text; the paper claims the movement cost is
    // negligible either way.
    let a = Alphabet::dna();
    let random = iid_sequence(&a, N, &mut rng(1));
    let repetitive = dataset().seq;
    let mut g = c.benchmark_group("rt-migration");
    g.sample_size(10);
    g.bench_function("compact-on-random", |b| {
        b.iter(|| CompactSpine::build(a.clone(), &random).unwrap().stats().migrations)
    });
    g.bench_function("compact-on-repetitive", |b| {
        b.iter(|| CompactSpine::build(a.clone(), &repetitive).unwrap().stats().migrations)
    });
    g.finish();
}

criterion_group!(
    benches,
    target_buffer,
    batched_occurrences,
    layout_query_cost,
    migration_exposure
);
criterion_main!(benches);
