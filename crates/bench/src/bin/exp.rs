//! `exp` — regenerate every table and figure of the SPINE paper.
//!
//! One subcommand per experiment (see DESIGN.md §3 for the index):
//!
//! ```text
//! exp table2|table3|table4|fig6|table5|table6|fig7|fig8|table7|protein|space|buffering|serve|faults|verify|figures|explain|bench-snapshot|scale|all
//!     [PATTERN]        `explain` only: the pattern to trace (default ACA)
//!     [--scale F]      dataset scale factor vs the paper's lengths (default 0.02)
//!     [--threshold N]  maximal-match length threshold (default 20)
//!     [--workers N]    worker threads for the `serve` experiment (default 4)
//!     [--quick]        stride the `faults` crashpoint sweep (CI-sized);
//!                      shrink the `--metrics`/`bench-snapshot`/`explain`
//!                      workloads likewise
//!     [--json]         machine-readable row output (`explain`: QueryTrace JSON)
//!     [--metrics]      `serve` only: instrumented run with the telemetry
//!                      registry attached; prints a JSON MetricsReport and
//!                      asserts the ledger + stage-timing invariants
//!     [--prom]         `serve --metrics` only: print the registry in
//!                      Prometheus text exposition format (self-validated)
//!     [--chrome-trace] `serve --metrics` only: print the span ring as a
//!                      Chrome trace_event JSON document
//!     [--out PATH]     `bench-snapshot` only: snapshot path (default BENCH_serve.json)
//!     [--check PATH]   `bench-snapshot` only: compare against a committed
//!                      baseline; exit 1 on a >20 % regression
//!     [--out-build PATH]   `bench-snapshot` only: construction snapshot path
//!                          (default BENCH_build.json)
//!     [--check-build PATH] `bench-snapshot` only: construction baseline to
//!                          regress against; exit 1 on a >20 % regression
//!     [--http PORT]    `serve` only: expose /metrics, /health and /explain
//!                      over HTTP until /quit (port 0 picks an ephemeral one)
//!     [--flaky]        `serve --http` only: inject transient faults into the
//!                      disk probe index so /health flips to 503
//!     [--orphan]       `serve --http` only: plant an uncommitted orphan
//!                      segment file before recovery so /health reports 503
//!     [--sync-file]    use a real file device with fsync-per-write for disk runs
//!     [--seed N]       `scale` only: run seed every generated stream derives
//!                      from (default 0x5915E; hex accepted with 0x prefix)
//!     [--corpus KIND]  `scale` only: dna|protein|logtext (default dna)
//! ```
//!
//! `exp scale` is the load harness (DESIGN.md §15): it streams a synthetic
//! corpus into every in-repo engine, sweeps closed-loop concurrency and
//! open-loop offered rates per query mix, and writes the curves to
//! `--out` (default BENCH_scale.json). `--check PATH` gates against a
//! committed baseline: curve coverage always, peak throughput when the run
//! fingerprint matches. `--quick` shrinks everything to CI size.
//!
//! `exp http-get ADDR/PATH [--prom]` is the matching std-only client
//! (CI's curl replacement); `--prom` additionally validates the body as
//! Prometheus text exposition.
//!
//! Numbers are expected to reproduce the paper's *shape* (who wins, by what
//! factor), not its absolute 2004-hardware values; EXPERIMENTS.md records
//! both sides.

use pagestore::{
    Clock, EvictionPolicy, Fifo, FileDevice, Lru, MemDevice, PageDevice, PrefixPriority, PAGE_SIZE,
};
use spine::{CompactSpine, DiskSpine, SealedSpine, Spine};
use spine_bench::{dna_presets, print_table, protein_presets, query_for, secs, time, Dataset, Row};
use strindex::MatchingIndex;
use suffix_array::SaIndex;
use suffix_tree::{DiskSuffixTree, SuffixTree};

#[derive(Clone)]
struct Opts {
    scale: f64,
    threshold: usize,
    workers: usize,
    quick: bool,
    json: bool,
    metrics: bool,
    prom: bool,
    chrome_trace: bool,
    sync_file: bool,
    /// `explain`: the pattern to trace (ASCII, in the dataset's alphabet).
    pattern: Option<String>,
    /// `bench-snapshot`: where to write the snapshot JSON.
    out: Option<String>,
    /// `bench-snapshot`: baseline snapshot to regress against.
    check: Option<String>,
    /// `bench-snapshot`: where to write the construction snapshot JSON.
    out_build: Option<String>,
    /// `bench-snapshot`: construction baseline to regress against.
    check_build: Option<String>,
    /// `serve`: port for the live monitoring endpoint (0 = ephemeral).
    http: Option<u16>,
    /// `serve --http`: wrap the disk probe index's device in a
    /// `FlakyDevice` so `/health` flips to 503 once the SLO burns.
    flaky: bool,
    /// `serve --http`: plant an uncommitted orphan segment file in the
    /// segment store before recovery, so `/health` reports 503 until an
    /// operator cleans it up.
    orphan: bool,
    /// `scale`: run seed all generated streams derive from.
    seed: u64,
    /// `scale`: corpus family (dna|protein|logtext).
    corpus: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 0.02,
            threshold: 20,
            workers: 4,
            quick: false,
            json: false,
            metrics: false,
            prom: false,
            chrome_trace: false,
            sync_file: false,
            pattern: None,
            out: None,
            check: None,
            out_build: None,
            check_build: None,
            http: None,
            flaky: false,
            orphan: false,
            seed: spine_bench::rng::DEFAULT_RUN_SEED,
            corpus: None,
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage());
    let mut opts = Opts::default();
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--scale" => {
                opts.scale = rest[i + 1].parse().expect("--scale takes a float");
                i += 2;
            }
            "--threshold" => {
                opts.threshold = rest[i + 1].parse().expect("--threshold takes an int");
                i += 2;
            }
            "--workers" => {
                opts.workers = rest[i + 1].parse().expect("--workers takes an int");
                i += 2;
            }
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--json" => {
                opts.json = true;
                i += 1;
            }
            "--metrics" => {
                opts.metrics = true;
                i += 1;
            }
            "--prom" => {
                opts.prom = true;
                i += 1;
            }
            "--chrome-trace" => {
                opts.chrome_trace = true;
                i += 1;
            }
            "--out" => {
                opts.out = Some(rest[i + 1].clone());
                i += 2;
            }
            "--check" => {
                opts.check = Some(rest[i + 1].clone());
                i += 2;
            }
            "--out-build" => {
                opts.out_build = Some(rest[i + 1].clone());
                i += 2;
            }
            "--check-build" => {
                opts.check_build = Some(rest[i + 1].clone());
                i += 2;
            }
            "--http" => {
                opts.http = Some(rest[i + 1].parse().expect("--http takes a port number"));
                i += 2;
            }
            "--flaky" => {
                opts.flaky = true;
                i += 1;
            }
            "--orphan" => {
                opts.orphan = true;
                i += 1;
            }
            "--sync-file" => {
                opts.sync_file = true;
                i += 1;
            }
            "--seed" => {
                let raw = &rest[i + 1];
                opts.seed = raw
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| raw.parse())
                    .expect("--seed takes an integer (0x prefix for hex)");
                i += 2;
            }
            "--corpus" => {
                opts.corpus = Some(rest[i + 1].clone());
                i += 2;
            }
            other if !other.starts_with('-') && opts.pattern.is_none() => {
                opts.pattern = Some(other.to_string());
                i += 1;
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    run(&cmd, &opts);
}

fn usage() -> ! {
    eprintln!(
        "usage: exp <table2|table3|table4|fig6|table5|table6|fig7|fig8|table7|protein|space|buffering|serve|faults|verify|figures|explain|bench-snapshot|scale|http-get|all> \
         [PATTERN] [--scale F] [--threshold N] [--workers N] [--quick] [--json] [--metrics] \
         [--prom] [--chrome-trace] [--out PATH] [--check PATH] [--out-build PATH] \
         [--check-build PATH] [--http PORT] [--flaky] [--orphan] [--sync-file] \
         [--seed N] [--corpus dna|protein|logtext]"
    );
    std::process::exit(2);
}

fn run(cmd: &str, opts: &Opts) {
    match cmd {
        "table2" => table2(opts),
        "table3" => table3(opts),
        "table4" => table4(opts),
        "fig6" => fig6(opts),
        "table5" => table5_6(opts, false),
        "table6" => table5_6(opts, true),
        "fig7" => fig7(opts),
        "fig8" => fig8(opts),
        "table7" => table7(opts),
        "protein" => protein(opts),
        "space" => space(opts),
        "buffering" => buffering(opts),
        "serve" => serve(opts),
        "faults" => faults(opts),
        "verify" => verify(opts),
        "figures" => figures(opts),
        "explain" => explain(opts),
        "bench-snapshot" => bench_snapshot(opts),
        "scale" => scale_cmd(opts),
        "http-get" => http_get_cmd(opts),
        "all" => {
            for c in [
                "table2",
                "table3",
                "table4",
                "fig6",
                "table5",
                "table6",
                "fig7",
                "fig8",
                "table7",
                "protein",
                "space",
                "buffering",
            ] {
                run(c, opts);
            }
        }
        _ => usage(),
    }
}

/// Datasets for the DNA experiments at the requested scale.
fn dna_data(opts: &Opts) -> Vec<Dataset> {
    dna_presets().iter().map(|n| Dataset::generate(n, opts.scale)).collect()
}

// ---------------------------------------------------------------------------
// Table 2: per-node space of the naive layout.
// ---------------------------------------------------------------------------
fn table2(opts: &Opts) {
    let d = Dataset::generate("eco-sim", opts.scale.min(0.01));
    let s = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
    let cost = s.node_cost();
    let c = CompactSpine::build(d.alphabet.clone(), &d.seq).unwrap();
    let rows = vec![Row::new("dna-node")
        .cell("naive-worst-B", cost.naive_worst_case)
        .cell("paper-naive-B", 48.25)
        .cell("compact-B/char", c.layout_bytes_per_char())
        .cell("paper-opt-B", 12.0)];
    print_table("Table 2 — naive node cost vs optimized layout (bytes)", &rows, opts.json);
}

// ---------------------------------------------------------------------------
// Table 3: maximum numeric label values.
// ---------------------------------------------------------------------------
fn table3(opts: &Opts) {
    // Paper maxima (full-size genomes): ECO 1785, CEL 8187, HC21 21844,
    // HC19 12371 — all far below 2^16.
    let paper = [1785.0, 8187.0, 21844.0, 12371.0];
    let mut rows = Vec::new();
    for (d, p) in dna_data(opts).iter().zip(paper) {
        let s = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
        let m = s.label_maxima();
        rows.push(
            Row::new(d.name)
                .cell("len-M", d.mega())
                .cell("max-PT", m.max_pt as f64)
                .cell("max-LEL", m.max_lel as f64)
                .cell("max-PRT", m.max_prt as f64)
                .cell("fits-u16", m.fits_u16() as u8 as f64)
                .cell("paper-max", p),
        );
    }
    print_table("Table 3 — maximum label values", &rows, opts.json);
}

// ---------------------------------------------------------------------------
// Table 4: rib fan-out distribution.
// ---------------------------------------------------------------------------
fn table4(opts: &Opts) {
    // Paper: 1-edge 13–15 %, 2-edge 7–9 %, 3-edge 5–6 %, 4-edge 3–4 %,
    // total 28–33 %.
    let mut rows = Vec::new();
    for d in dna_data(opts) {
        let s = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
        let dist = s.rib_distribution();
        rows.push(
            Row::new(d.name)
                .cell("1-edge-%", dist.percent(1))
                .cell("2-edge-%", dist.percent(2))
                .cell("3-edge-%", dist.percent(3))
                .cell("4+-edge-%", (4..dist.by_fanout.len()).map(|k| dist.percent(k)).sum())
                .cell("total-%", dist.percent_with_edges())
                .cell("extrib-collisions", s.extrib_collisions() as f64),
        );
    }
    print_table("Table 4 — rib distribution across nodes (paper total: 28–33 %)", &rows, opts.json);
}

// ---------------------------------------------------------------------------
// Figure 6: in-memory construction times.
// ---------------------------------------------------------------------------
fn fig6(opts: &Opts) {
    let mut rows = Vec::new();
    for d in dna_data(opts) {
        let (st, t_st) = time(|| SuffixTree::build(d.alphabet.clone(), &d.seq).unwrap());
        let (sp, t_sp) = time(|| Spine::build(d.alphabet.clone(), &d.seq).unwrap());
        let (cp, t_cp) = time(|| CompactSpine::build(d.alphabet.clone(), &d.seq).unwrap());
        std::hint::black_box((&st, &sp, &cp));
        rows.push(
            Row::new(d.name)
                .cell("len-M", d.mega())
                .cell("ST-s", secs(t_st))
                .cell("SPINE-s", secs(t_sp))
                .cell("SPINE-compact-s", secs(t_cp))
                .cell("ST/SPINE", secs(t_st) / secs(t_sp).max(1e-12)),
        );
    }
    print_table(
        "Figure 6 — in-memory construction times (paper: SPINE marginally faster; ST OOMs first)",
        &rows,
        opts.json,
    );
}

// ---------------------------------------------------------------------------
// Tables 5 & 6: in-memory substring matching times and nodes checked.
// ---------------------------------------------------------------------------
fn table5_6(opts: &Opts, nodes_checked: bool) {
    let mut rows = Vec::new();
    for d in dna_data(opts) {
        let query = query_for(&d);
        let st = SuffixTree::build(d.alphabet.clone(), &d.seq).unwrap();
        let sp = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
        st.counters().reset();
        sp.counters().reset();
        let (m_st, t_st) = time(|| st.maximal_matches(&query, opts.threshold));
        let (m_sp, t_sp) = time(|| sp.maximal_matches(&query, opts.threshold));
        assert_eq!(m_st, m_sp, "engines must agree on {}", d.name);
        if nodes_checked {
            rows.push(
                Row::new(d.name)
                    .cell("ST-knodes", st.counters().nodes_checked() as f64 / 1e3)
                    .cell("SPINE-knodes", sp.counters().nodes_checked() as f64 / 1e3)
                    .cell(
                        "ST/SPINE",
                        st.counters().nodes_checked() as f64
                            / sp.counters().nodes_checked().max(1) as f64,
                    ),
            );
        } else {
            rows.push(
                Row::new(d.name)
                    .cell("matches", m_sp.len() as f64)
                    .cell("ST-s", secs(t_st))
                    .cell("SPINE-s", secs(t_sp))
                    .cell("SPINE-gain-%", 100.0 * (1.0 - secs(t_sp) / secs(t_st).max(1e-12))),
            );
        }
    }
    if nodes_checked {
        print_table(
            "Table 6 — nodes checked during matching (paper: SPINE ~40 % fewer)",
            &rows,
            opts.json,
        );
    } else {
        print_table(
            "Table 5 — substring matching times, in memory (paper: SPINE ~30 % faster)",
            &rows,
            opts.json,
        );
    }
}

// ---------------------------------------------------------------------------
// Disk helpers.
// ---------------------------------------------------------------------------
fn device(opts: &Opts, tag: &str) -> Box<dyn PageDevice> {
    if opts.sync_file {
        let dir = std::env::temp_dir().join("spine-exp");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{tag}-{}.pages", std::process::id()));
        Box::new(FileDevice::create(path, true).expect("file device"))
    } else {
        Box::new(MemDevice::new())
    }
}

/// Pool size: a tenth of the pages the index will need (memory pressure, as
/// in a disk-resident deployment).
fn pool_pages(n_chars: usize, record_size: usize) -> usize {
    let per_page = PAGE_SIZE / record_size;
    (n_chars / per_page / 10).max(8)
}

/// Approximate record sizes of the generic disk layouts (DNA).
const SPINE_REC: usize = 80;
const ST_REC: usize = 50;
/// Approximate per-node footprint of the sealed layout-v2 pages (varint
/// records plus the packed label store, DNA); used only to size buffer
/// pools at the same *relative* memory pressure as the v1 runs.
const SPINE_V2_REC: usize = 9;

// ---------------------------------------------------------------------------
// Figure 7: on-disk construction.
// ---------------------------------------------------------------------------
fn fig7(opts: &Opts) {
    let scale = opts.scale * 0.25; // disk runs are slower; keep them bounded
    let mut rows = Vec::new();
    for name in dna_presets().iter().take(3) {
        // The paper's Figure 7 shows ECO/CEL/HC21.
        let d = Dataset::generate(name, scale);
        let sp_pool = pool_pages(d.seq.len(), SPINE_REC);
        let st_pool = pool_pages(2 * d.seq.len(), ST_REC);
        let (sp, t_sp) = time(|| {
            DiskSpine::build(
                d.alphabet.clone(),
                &d.seq,
                device(opts, &format!("spine-{name}")),
                sp_pool,
                Box::<Lru>::default(),
            )
            .unwrap()
        });
        let (st, t_st) = time(|| {
            DiskSuffixTree::build(
                d.alphabet.clone(),
                &d.seq,
                device(opts, &format!("st-{name}")),
                st_pool,
                Box::<Lru>::default(),
            )
            .unwrap()
        });
        let (sp_r, sp_w) = sp.io_counts();
        let (st_r, st_w) = st.io_counts();
        rows.push(
            Row::new(d.name)
                .cell("len-M", d.mega())
                .cell("ST-s", secs(t_st))
                .cell("SPINE-s", secs(t_sp))
                .cell("ST-kIO", (st_r + st_w) as f64 / 1e3)
                .cell("SPINE-kIO", (sp_r + sp_w) as f64 / 1e3)
                .cell("IO-ratio", (st_r + st_w) as f64 / (sp_r + sp_w).max(1) as f64),
        );
    }
    print_table(
        "Figure 7 — on-disk construction (paper: SPINE ~2x faster; smaller nodes + locality)",
        &rows,
        opts.json,
    );
}

// ---------------------------------------------------------------------------
// Figure 8: link-destination distribution over the backbone.
// ---------------------------------------------------------------------------
fn fig8(opts: &Opts) {
    let mut rows = Vec::new();
    for d in dna_data(opts).into_iter().take(3) {
        let s = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
        let h = s.link_distribution(6);
        let mut row = Row::new(d.name);
        for b in 0..6 {
            row = row.cell(&format!("bucket{b}-%"), h.percent(b));
        }
        row = row.cell("upstream-heavy", h.upstream_heavy() as u8 as f64);
        rows.push(row);
    }
    print_table(
        "Figure 8 — link destinations over the backbone (paper: monotone decay toward the tail)",
        &rows,
        opts.json,
    );
}

// ---------------------------------------------------------------------------
// Table 7: on-disk substring matching.
// ---------------------------------------------------------------------------
fn table7(opts: &Opts) {
    let scale = opts.scale * 0.25;
    let mut rows = Vec::new();
    for name in dna_presets().iter().take(3) {
        let d = Dataset::generate(name, scale);
        let query = query_for(&d);
        let sp = DiskSpine::build(
            d.alphabet.clone(),
            &d.seq,
            device(opts, &format!("m-spine-{name}")),
            pool_pages(d.seq.len(), SPINE_REC),
            Box::<Lru>::default(),
        )
        .unwrap();
        let st = DiskSuffixTree::build(
            d.alphabet.clone(),
            &d.seq,
            device(opts, &format!("m-st-{name}")),
            pool_pages(2 * d.seq.len(), ST_REC),
            Box::<Lru>::default(),
        )
        .unwrap();
        let (m_st, t_st) = time(|| st.maximal_matches(&query, opts.threshold));
        let (m_sp, t_sp) = time(|| sp.maximal_matches(&query, opts.threshold));
        assert_eq!(m_st, m_sp, "disk engines must agree on {}", d.name);
        rows.push(
            Row::new(d.name)
                .cell("matches", m_sp.len() as f64)
                .cell("ST-s", secs(t_st))
                .cell("SPINE-s", secs(t_sp))
                .cell("speedup-%", 100.0 * (1.0 - secs(t_sp) / secs(t_st).max(1e-12))),
        );
    }
    print_table("Table 7 — substring matching on disk (paper: ~50 % speedup)", &rows, opts.json);
}

// ---------------------------------------------------------------------------
// §5.2: protein results.
// ---------------------------------------------------------------------------
fn protein(opts: &Opts) {
    let mut rows = Vec::new();
    let mut per_m = Vec::new();
    for name in protein_presets() {
        let d = Dataset::generate(name, opts.scale);
        let (s, t) = time(|| Spine::build(d.alphabet.clone(), &d.seq).unwrap());
        let m = s.label_maxima();
        let dist = s.rib_distribution();
        per_m.push(secs(t) / d.mega());
        rows.push(
            Row::new(d.name)
                .cell("len-M", d.mega())
                .cell("max-label", m.max_pt.max(m.max_lel) as f64)
                .cell("ribbed-%", dist.percent_with_edges())
                .cell("build-s", secs(t))
                .cell("s-per-M", secs(t) / d.mega()),
        );
    }
    // Linear scaling check: seconds-per-megaresidue should be roughly flat.
    let spread = per_m.iter().cloned().fold(f64::MIN, f64::max)
        / per_m.iter().cloned().fold(f64::MAX, f64::min);
    rows.push(Row::new("scaling").cell("max/min-s-per-M", spread));
    print_table(
        "§5.2 — proteins: smaller labels, <30 % ribbed nodes, linear build scaling",
        &rows,
        opts.json,
    );
}

// ---------------------------------------------------------------------------
// Space: bytes per indexed character across engines.
// ---------------------------------------------------------------------------
fn space(opts: &Opts) {
    let mut rows = Vec::new();
    for d in dna_data(opts).into_iter().take(3) {
        let st = SuffixTree::build(d.alphabet.clone(), &d.seq).unwrap();
        let sp = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
        let cp = CompactSpine::build(d.alphabet.clone(), &d.seq).unwrap();
        let sa = SaIndex::build(d.alphabet.clone(), &d.seq);
        let n = d.seq.len() as f64;
        rows.push(
            Row::new(d.name)
                .cell("ST-packed-B/c", st.layout_bytes_per_char())
                .cell("ST-heap-B/c", st.heap_bytes() as f64 / n)
                .cell("SPINE-ref-B/c", sp.heap_bytes() as f64 / n)
                .cell("SPINE-compact-B/c", cp.layout_bytes_per_char())
                .cell("SA-B/c", sa.heap_bytes() as f64 / n)
                .cell("migrations", cp.stats().migrations as f64)
                // §6.1's capacity claim: with a fixed budget (1 GB, the
                // paper's machine), how many Mbp does each index hold?
                .cell("ST-Mbp/GB", 1e9 / st.layout_bytes_per_char() / 1e6)
                .cell("SPINE-Mbp/GB", 1e9 / cp.layout_bytes_per_char() / 1e6),
        );
    }
    print_table(
        "Space — bytes per indexed character (paper: compact SPINE <12, ST ~17; SPINE ≈30 % more capacity)",
        &rows,
        opts.json,
    );
}

// ---------------------------------------------------------------------------
// Buffering policies under memory pressure (§6.2 recommendation).
// ---------------------------------------------------------------------------
fn buffering(opts: &Opts) {
    let d = Dataset::generate("cel-sim", opts.scale * 0.25);
    // An unrelated random query: matches stay short, so the search
    // constantly chases links into the upstream region (Figure 8's
    // concentration) — the access pattern the paper's policy targets.
    let query = genseq::iid_sequence(
        &d.alphabet,
        d.seq.len(),
        &mut spine_bench::rng::stream(spine_bench::rng::DEFAULT_RUN_SEED, "buffering.query", 0),
    );
    let policies: Vec<Box<dyn Fn() -> Box<dyn EvictionPolicy>>> = vec![
        Box::new(|| Box::<Lru>::default()),
        Box::new(|| Box::<Fifo>::default()),
        Box::new(|| Box::<Clock>::default()),
        Box::new(|| Box::<PrefixPriority>::default()),
    ];
    let mut rows = Vec::new();
    for make in policies {
        // Severe pressure: 2 % of the index resident.
        let per_page = PAGE_SIZE / SPINE_REC;
        let pool = (d.seq.len() / per_page / 50).max(4);
        let sp =
            DiskSpine::build(d.alphabet.clone(), &d.seq, Box::new(MemDevice::new()), pool, make())
                .unwrap();
        let name = {
            // Probe the policy name through a throwaway instance.
            make().name().to_string()
        };
        // Stress the link-chain access pattern (where Figure 8's locality
        // lives): matching statistics only, no sequential occurrence scan.
        let (reads0, _) = sp.io_counts();
        let p0 = sp.pool_stats();
        let (_, t) = time(|| sp.matching_statistics(&query));
        let (reads1, _) = sp.io_counts();
        let p1 = sp.pool_stats();
        let dh = (p1.hits - p0.hits) as f64;
        let dm = (p1.misses - p0.misses) as f64;
        rows.push(
            Row::new(name)
                .cell("pool-pages", pool as f64)
                .cell("search-s", secs(t))
                .cell("search-kreads", (reads1 - reads0) as f64 / 1e3)
                .cell("search-hit-rate", dh / (dh + dm).max(1.0)),
        );
    }
    print_table(
        "Buffering — eviction policies under pressure (paper: keep the top of the LT resident)",
        &rows,
        opts.json,
    );
}

// ---------------------------------------------------------------------------
// Serve: concurrent batched query serving over one shared index — the
// "integration with database engines" deployment (§6). Compares a serial
// loop of `find_all_ends` calls against the worker-pool engine, whose
// workers take admitted patterns in batches and answer each on its own.
// ---------------------------------------------------------------------------
/// The `serve` traffic: window patterns (hits, occurrence-heavy) plus
/// reversed variants (mostly misses) — each submitted several times, as a
/// query server would see repeated traffic.
fn serve_workload(d: &Dataset, windows: usize, cycles: usize) -> Vec<Vec<strindex::Code>> {
    let mut pats: Vec<Vec<strindex::Code>> = (0..windows)
        .map(|i| d.seq[i * 883 % (d.seq.len() - 20)..][..12 + i % 8].to_vec())
        .collect();
    for i in 0..windows / 4 {
        let mut p = pats[i].clone();
        p.reverse();
        pats.push(p);
    }
    pats.iter().cycle().take(pats.len() * cycles).cloned().collect()
}

fn serve(opts: &Opts) {
    use spine::engine::{EngineConfig, QueryEngine};
    use spine::occurrences::find_all_ends;
    use std::sync::Arc;

    if let Some(port) = opts.http {
        return serve_http(opts, port);
    }
    if opts.metrics {
        return serve_metrics(opts);
    }

    let d = Dataset::generate("hc21-sim", opts.scale);
    let index = Arc::new(Spine::build(d.alphabet.clone(), &d.seq).unwrap());
    let workload = serve_workload(&d, 256, 4);
    let engines: Vec<(usize, QueryEngine<Spine>)> = [1, 2, opts.workers]
        .into_iter()
        .map(|workers| {
            let cfg = EngineConfig { workers, batch_max: 64, ..Default::default() };
            (workers, QueryEngine::new(Arc::clone(&index), cfg))
        })
        .collect();

    // One timed pass of row 0 (the serial loop) or of an engine: its wall
    // seconds and the occurrences it found.
    let pass = |row: usize| -> (f64, usize) {
        if row == 0 {
            let (hits, t) = time(|| {
                workload.iter().map(|p| find_all_ends(index.as_ref(), p).len()).sum::<usize>()
            });
            return (secs(t), hits);
        }
        let engine = &engines[row - 1].1;
        let (results, t) = time(|| {
            for admitted in engine.submit_batch(workload.iter().cloned()) {
                admitted.expect("default shed policy blocks rather than rejecting");
            }
            engine.drain()
        });
        (secs(t), results.iter().map(|r| r.expect_ends().len()).sum())
    };

    // Each row is the median of SERVE_REPS timed passes: one pass lasts
    // 1–2 ms, and single passes of one binary spread about 2× from run to
    // run. After an untimed pass each (the serial one first), the serial
    // loop and the engines take turns in every repetition, in alternating
    // order, so that warm-up and drift charge every row alike.
    const SERVE_REPS: usize = 21;
    let rows_n = engines.len() + 1;
    let mut serial_hits = None;
    let mut walls = vec![Vec::with_capacity(SERVE_REPS); rows_n];
    for rep in 0..=SERVE_REPS {
        for i in 0..rows_n {
            let row = if rep % 2 == 0 { i } else { rows_n - 1 - i };
            let (wall, hits) = pass(row);
            let serial = *serial_hits.get_or_insert(hits);
            assert_eq!(hits, serial, "engine answers diverge from serial queries");
            if rep > 0 {
                walls[row].push(wall);
            }
        }
    }
    let qps: Vec<f64> = walls
        .iter_mut()
        .map(|w| {
            w.sort_by(f64::total_cmp);
            workload.len() as f64 / w[SERVE_REPS / 2].max(1e-9)
        })
        .collect();

    let mut rows = vec![Row::new("serial")
        .cell("workers", 1.0)
        .cell("queries", workload.len() as f64)
        .cell("qps", qps[0])
        .cell("speedup", 1.0)
        .cell("mean-batch", 1.0)];
    for ((workers, engine), engine_qps) in engines.iter().zip(&qps[1..]) {
        rows.push(
            Row::new(format!("engine-w{workers}"))
                .cell("workers", *workers as f64)
                .cell("queries", workload.len() as f64)
                .cell("qps", *engine_qps)
                .cell("speedup", engine_qps / qps[0])
                .cell("mean-batch", engine.metrics().mean_batch()),
        );
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    print_table(
        &format!(
            "Serve — batched-concurrent throughput vs serial queries (hc21-sim; median of \
             {SERVE_REPS} alternating passes; available_parallelism {cpus})"
        ),
        &rows,
        opts.json,
    );

    // The disk engine's hot-page tier at one fixed pool size: a plain
    // sealed file under LRU, then its backbone-prefix pages pinned under
    // LRU (what `SegmentedSpine` runs) and under the scan-resistant
    // `SegmentedLru` (what `bench-snapshot` gates). Pages/query is the
    // device-fetch count; enumeration reads the in-RAM preorder index, so
    // every fetch is locate's.
    let dd = Dataset::generate("eco-sim", opts.scale.min(0.005));
    let pool = pool_pages(dd.seq.len(), SPINE_V2_REC);
    let pin = (pool / 4).max(1);
    let source = Spine::build(dd.alphabet.clone(), &dd.seq).unwrap();
    let probes: Vec<&[strindex::Code]> =
        (0..dd.seq.len().saturating_sub(16)).step_by(997).map(|i| &dd.seq[i..i + 12]).collect();

    let configs: [(&str, Box<dyn pagestore::EvictionPolicy>, usize); 3] = [
        ("plain-lru", Box::<Lru>::default(), 0),
        ("prefix-pin-lru", Box::<Lru>::default(), pin),
        ("prefix-pin-slru", Box::<pagestore::SegmentedLru>::default(), pin),
    ];
    let mut disk_rows = Vec::new();
    for (name, policy, budget) in configs {
        let engine = SealedSpine::seal(&source, Box::new(MemDevice::new()), pool, policy).unwrap();
        let pinned = engine.pin_hot_prefix(budget).unwrap();
        let before = engine.pool_stats();
        let hits: usize = probes
            .iter()
            .map(|w| engine.try_find_all(w).expect("MemDevice cannot fail").len())
            .sum();
        std::hint::black_box(hits);
        let after = engine.pool_stats();
        let misses = after.misses - before.misses;
        let accesses = (after.hits - before.hits) + misses;
        disk_rows.push(
            Row::new(name)
                .cell("pool-pages", pool as f64)
                .cell("queries", probes.len() as f64)
                .cell("pages/query", misses as f64 / probes.len().max(1) as f64)
                .cell("hit-rate-%", 100.0 * (accesses - misses) as f64 / accesses.max(1) as f64)
                .cell("pinned", pinned as f64),
        );
    }
    print_table(
        "Serve — disk engine hot-page tier at fixed pool size (eco-sim)",
        &disk_rows,
        opts.json,
    );
}

// ---------------------------------------------------------------------------
// Serve --metrics: the observability layer exercised end to end. Plain and
// telemetry-attached engines answer the same workload; the run reports
// telemetry overhead, checks the ledger invariant on the final snapshot, and
// checks that the per-stage busy time respects the `workers × wall` ceiling.
// Output is one JSON MetricsReport (or, with `--prom`/`--chrome-trace`, the
// registry in those export formats).
//
// Overhead is measured as median-of-3: a pinned warmup phase first faults
// the index and workload into cache, then plain and instrumented runs
// alternate (ABAB), three of each, so warm-up and drift charge both sides
// alike, and each side takes its median wall time.
// ---------------------------------------------------------------------------
fn serve_metrics(opts: &Opts) {
    use spine::engine::{EngineConfig, QueryEngine, QUERY_LATENCY};
    use spine::telemetry::{MetricsRegistry, Stage};
    use spine_bench::MetricsReport;
    use std::sync::Arc;

    let scale = if opts.quick { opts.scale * 0.25 } else { opts.scale };
    let cycles = if opts.quick { 2 } else { 4 };
    let d = Dataset::generate("hc21-sim", scale);
    let index = Arc::new(Spine::build(d.alphabet.clone(), &d.seq).unwrap());
    let workload = serve_workload(&d, 256, cycles);
    let cfg = EngineConfig { workers: opts.workers, batch_max: 64, ..Default::default() };

    let run = |engine: &QueryEngine<Spine>| {
        let (results, t) = time(|| {
            for admitted in engine.submit_batch(workload.iter().cloned()) {
                admitted.expect("default shed policy blocks rather than rejecting");
            }
            engine.drain()
        });
        let hits: usize = results.iter().map(|r| r.expect_ends().len()).sum();
        (hits, t)
    };

    // Pinned warmup phase (untimed, fixed pass count): fault the index and
    // workload into cache so no timed run pays the cold-start cost.
    const WARMUP_PASSES: usize = 2;
    for _ in 0..WARMUP_PASSES {
        run(&QueryEngine::new(Arc::clone(&index), cfg));
    }

    const RUNS: usize = 3;

    // Each plain run is followed by an instrumented one. Every instrumented
    // run has a fresh registry + engine so the per-run invariants stay
    // exact; the median run's snapshot is kept. The flight-recorder sampler
    // ticks during each instrumented run so the reported overhead covers the
    // full observability stack, ring included.
    let mut plain_walls = Vec::with_capacity(RUNS);
    let mut plain_hits = None;
    let mut inst = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let (hits, t) = run(&QueryEngine::new(Arc::clone(&index), cfg));
        assert_eq!(*plain_hits.get_or_insert(hits), hits, "plain runs diverge");
        plain_walls.push(secs(t));

        let registry = Arc::new(MetricsRegistry::new());
        let engine = QueryEngine::with_telemetry(Arc::clone(&index), cfg, Arc::clone(&registry));
        let series = Arc::new(spine::telemetry::TimeSeries::new(256));
        let sampler = spine::telemetry::spawn_sampler(
            Arc::clone(&series),
            Arc::clone(&registry),
            std::time::Duration::from_millis(50),
        );
        let (hits, t) = run(&engine);
        sampler.stop();
        assert!(series.ticks() >= 1, "sampler must capture at least the immediate tick");
        assert_eq!(Some(hits), plain_hits, "instrumented engine diverges from plain engine");

        let m = engine.metrics();
        assert!(m.is_consistent(), "ledger invariant violated: {m:?}");
        assert_eq!(m.completed, workload.len() as u64, "not every query completed");

        let snap = registry.snapshot();
        for stage in [Stage::BatchFormation, Stage::IndexScan, Stage::ResultMerge] {
            let h = snap.stage(stage).expect("stage histogram registered");
            assert!(!h.is_empty(), "empty histogram for {}", stage.metric_name());
        }
        let lat = snap.histogram(QUERY_LATENCY).expect("latency histogram");
        assert_eq!(lat.count, workload.len() as u64, "latency histogram misses queries");
        inst.push((secs(t), m, snap));
    }
    plain_walls.sort_by(f64::total_cmp);
    let baseline_wall = plain_walls[RUNS / 2];
    inst.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall, m, snap) = inst.swap_remove(RUNS / 2);

    let report = MetricsReport {
        workers: opts.workers,
        queries: workload.len() as u64,
        wall_s: wall,
        baseline_wall_s: baseline_wall,
        submitted: m.submitted,
        completed: m.completed,
        shed: m.shed,
        timed_out: m.timed_out,
        failed: m.failed,
        ledger_consistent: m.is_consistent(),
        registry: snap,
    };
    assert!(
        report.stages_bounded(),
        "stage timings exceed workers × wall: busy {:.4}s > bound {:.4}s",
        report.busy_stage_s(),
        report.busy_bound_s()
    );
    if opts.prom {
        let text = report.registry.to_prometheus("spine");
        strindex::telemetry::validate_prometheus_text(&text)
            .expect("generated Prometheus exposition must self-validate");
        print!("{text}");
    }
    if opts.chrome_trace {
        println!("{}", report.registry.to_chrome_trace());
    }
    if !opts.prom && !opts.chrome_trace {
        println!("{}", report.to_json());
    }
    eprintln!(
        "OK: {} queries, {:.0} qps, telemetry overhead {:+.1}% (median of {RUNS}), \
         busy stages {:.4}s <= {:.4}s",
        report.queries,
        report.qps(),
        report.overhead_pct(),
        report.busy_stage_s(),
        report.busy_bound_s()
    );
}

// ---------------------------------------------------------------------------
// Serve --http: the live monitoring endpoint. One hc21-sim engine with the
// full observability stack (registry, plus rolling windows and an SLO
// tracker read from the engine's latency histogram and unanswered counter)
// and one small disk probe index share a registry; /metrics exposes it in
// Prometheus format, /health turns the ledger invariant + SLO burn rate into
// 200/503 (each request also fires a probe query against the disk index and
// records it into the same two sources, so device faults burn the error
// budget), and /explain?q=PAT traces a pattern over the serving index. With
// --flaky the probe device starts failing right after construction,
// demonstrating the 503 flip.
// ---------------------------------------------------------------------------

/// Register one engine's [`spine::BuildStats`] as `build.*` labeled gauges
/// (label `engine` distinguishes layouts sharing a registry).
fn register_build_gauges(
    registry: &spine::telemetry::MetricsRegistry,
    engine: &str,
    stats: &spine::BuildStats,
) {
    let labels = [("engine", engine)];
    let fixed: [(&str, u64); 7] = [
        ("build.insertions", stats.insertions),
        ("build.ribs", stats.ribs_created),
        ("build.extribs", stats.extribs_created),
        ("build.extrib_spills", stats.extrib_spills),
        ("build.chain_steps", stats.chain_steps),
        ("build.max_lel", stats.max_lel as u64),
        ("build.mem_bytes", stats.mem.total()),
    ];
    for (name, v) in fixed {
        registry.labeled_gauge(name, &labels, move || v);
    }
    let nps = stats.nodes_per_sec().unwrap_or(0.0) as u64;
    registry.labeled_gauge("build.nodes_per_sec", &labels, move || nps);
    for p in spine::BuildPhase::all() {
        let nanos = stats.phase_nanos[p.index()];
        registry.labeled_gauge(&format!("build.phase_nanos.{}", p.name()), &labels, move || nanos);
    }
}

fn serve_http(opts: &Opts, port: u16) {
    use spine::engine::{EngineConfig, QueryEngine, QUERIES_UNANSWERED, QUERY_LATENCY};
    use spine::telemetry::{
        spawn_sampler, MetricsRegistry, RollingWindows, SloTracker, TimeSeries,
    };
    use spine_bench::{FlightRecorder, MonitorRoutes, MonitorServer};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let scale = if opts.quick { opts.scale * 0.25 } else { opts.scale };
    let d = Dataset::generate("hc21-sim", scale);
    let registry = Arc::new(MetricsRegistry::new());

    // Serving index, built with the observer; its BuildStats become gauges.
    let (index, build_stats) = Spine::build_with_stats(d.alphabet.clone(), &d.seq).unwrap();
    eprintln!("build[memory]: {}", build_stats.summary());
    register_build_gauges(&registry, "memory", &build_stats);
    let index = Arc::new(index);

    let cfg = EngineConfig { workers: opts.workers, batch_max: 64, ..Default::default() };
    let engine =
        Arc::new(QueryEngine::with_telemetry(Arc::clone(&index), cfg, Arc::clone(&registry)));
    // The windows and the SLO read the engine's two cumulative sources; the
    // /health probe records into them too.
    let latency = registry.histogram(QUERY_LATENCY);
    let unanswered = registry.counter(QUERIES_UNANSWERED);
    let windows = Arc::new(RollingWindows::new(
        Arc::clone(&latency),
        Arc::clone(&unanswered),
        Instant::now(),
    ));
    windows.register_gauges(&registry, "engine.window");
    let slo = Arc::new(SloTracker::new(windows, Duration::from_millis(250), 0.999));
    slo.register_gauges(&registry, "engine.slo");

    // Prime the histograms and the rolling windows with real traffic so the
    // first scrape sees a served system, not an empty registry.
    let workload = serve_workload(&d, 64, 1);
    for admitted in engine.submit_batch(workload.iter().cloned()) {
        admitted.expect("default shed policy blocks rather than rejecting");
    }
    let primed = engine.drain().len();

    // Disk probe index (page-resident path for /health). Under --flaky the
    // device fails transiently from the first post-build operation on: a
    // dry build on a clean device counts the construction I/O, and the real
    // build — deterministic, so identical — sits just below the fault burst.
    let dd = Dataset::generate("eco-sim", (scale * 0.25).min(0.005));
    let pool = pool_pages(dd.seq.len(), SPINE_REC);
    let probe_device: Box<dyn PageDevice> = if opts.flaky {
        let dry = DiskSpine::build(
            dd.alphabet.clone(),
            &dd.seq,
            Box::new(MemDevice::new()),
            pool,
            Box::<Lru>::default(),
        )
        .unwrap();
        dry.flush().unwrap(); // build_with_stats flushes too; match its op count
        let (r, w) = dry.io_counts();
        Box::new(pagestore::FlakyDevice::with_burst(MemDevice::new(), r + w, u64::MAX / 2))
    } else {
        Box::new(MemDevice::new())
    };
    let (disk, disk_stats) = DiskSpine::build_with_stats(
        dd.alphabet.clone(),
        &dd.seq,
        probe_device,
        pool,
        Box::<Lru>::default(),
    )
    .unwrap();
    eprintln!("build[disk]:   {}", disk_stats.summary());
    register_build_gauges(&registry, "disk", &disk_stats);
    let disk = Arc::new(disk);
    let probe: Vec<strindex::Code> = dd.seq[..dd.seq.len().min(12)].to_vec();

    // Satellite gauge: the heatmap is the primed workload's trace
    // attribution over the serving index.
    {
        let mut heat = spine::Heatmap::new(d.seq.len());
        for w in workload.iter().take(64) {
            heat.add(&index.explain(w));
        }
        let heat = Arc::new(heat);
        registry.labeled_gauge("heatmap.dropped_touches", &[("index", "memory")], move || {
            heat.dropped_touches()
        });
    }

    // Segment-store recovery probe: build a tiny crash-safe store, seal it,
    // drop the handle, and reopen — exactly the recovery path. Under
    // --orphan a stray uncommitted segment file is planted first, so
    // recovery flags it and /health degrades to 503 until an operator runs
    // cleanup.
    let seg_dir = std::env::temp_dir().join(format!("spine-serve-segments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&seg_dir);
    {
        let store = spine::SegmentedSpine::create(
            dd.alphabet.clone(),
            &seg_dir,
            spine::SegmentConfig::default(),
        )
        .unwrap();
        for doc in [&dd.seq[..dd.seq.len().min(64)], &probe[..]] {
            store.add_document(doc).unwrap();
        }
        store.force_seal().unwrap();
    }
    if opts.orphan {
        std::fs::write(seg_dir.join("seg-99.pages"), b"uncommitted orphan").unwrap();
    }
    let seg = Arc::new(
        spine::SegmentedSpine::open(dd.alphabet.clone(), &seg_dir, spine::SegmentConfig::default())
            .unwrap(),
    );
    seg.attach_telemetry(&registry);
    eprintln!("segments: recovered epoch {} with {} orphan(s)", seg.epoch(), seg.orphan_count());

    // Per-segment page counts, labeled by segment id. Registered for the
    // segments recovered at startup (serving runs no background merger);
    // a gauge whose segment is merged away reads 0 rather than lying.
    for (id, _) in seg.segment_pages() {
        let seg = Arc::clone(&seg);
        let label = id.to_string();
        registry.labeled_gauge("segments.pages", &[("segment", &label)], move || {
            seg.segment_pages().iter().find(|&&(i, _)| i == id).map_or(0, |&(_, p)| p)
        });
    }

    // Flight recorder: a sampler thread ticks the registry into a ring of
    // time-series samples (the /timeline payload), the store's lifecycle
    // journal backs /journal, and a postmortem dump fires on the /health
    // healthy→unhealthy edge or a worker panic.
    let series = Arc::new(TimeSeries::new(512));
    let sampler =
        spawn_sampler(Arc::clone(&series), Arc::clone(&registry), Duration::from_millis(200));
    let journal_json = {
        let seg = Arc::clone(&seg);
        Arc::new(move |n: usize| -> String {
            match seg.recent_journal(n) {
                Ok(evs) => {
                    let mut out = String::from("[");
                    for (i, e) in evs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&e.to_json());
                    }
                    out.push(']');
                    out
                }
                Err(e) => format!(
                    "[{{\"error\":\"{}\"}}]",
                    spine::telemetry::json_escape(&format!("{e:?}"))
                ),
            }
        })
    };
    let dump_dir = std::env::temp_dir().join(format!("spine-postmortem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    let recorder =
        Arc::new(FlightRecorder::new(&dump_dir, Arc::clone(&series), Arc::clone(&registry), {
            let journal_json = Arc::clone(&journal_json);
            move |n| journal_json(n)
        }));
    {
        let recorder = Arc::clone(&recorder);
        engine.set_panic_hook(move |msg| {
            let _ = recorder.trigger(&format!("worker panic: {msg}"));
        });
    }

    let routes = MonitorRoutes {
        metrics: {
            let registry = Arc::clone(&registry);
            Box::new(move || registry.snapshot().to_prometheus("spine"))
        },
        health: {
            let engine = Arc::clone(&engine);
            let slo = Arc::clone(&slo);
            let seg = Arc::clone(&seg);
            let recorder = Arc::clone(&recorder);
            Box::new(move || {
                let t0 = Instant::now();
                let ok = disk.try_find_all(&probe).is_ok();
                latency.record(t0.elapsed());
                if !ok {
                    unanswered.incr();
                }
                let m = engine.metrics();
                let ledger_ok = m.is_consistent();
                let burn = slo.read(Instant::now());
                let slo_ok = burn.healthy();
                let orphans = seg.orphan_count();
                let seg_ok = orphans == 0;
                let body = format!(
                    "{{\"ledger_consistent\":{ledger_ok},\"slo_healthy\":{slo_ok},\
                     \"probe_ok\":{ok},\"segments_clean\":{seg_ok},\"orphans\":{orphans},\
                     \"epoch\":{},\"burn_short\":{:.3},\"burn_long\":{:.3},\
                     \"completed\":{}}}\n",
                    seg.epoch(),
                    burn.burn_short,
                    burn.burn_long,
                    m.completed
                );
                let healthy = ledger_ok && slo_ok && seg_ok;
                // The healthy→unhealthy edge triggers a postmortem dump.
                recorder.observe_health(healthy);
                (healthy, body)
            })
        },
        explain: {
            let a = d.alphabet.clone();
            let index = Arc::clone(&index);
            Box::new(move |q: &str| {
                let pattern = a
                    .encode(q.as_bytes())
                    .map_err(|e| format!("pattern {q:?} is not in the index alphabet: {e:?}"))?;
                Ok(index.explain(&pattern).to_json())
            })
        },
        timeline: {
            let series = Arc::clone(&series);
            Box::new(move |metric, window| series.to_json(metric, window))
        },
        journal: {
            let journal_json = Arc::clone(&journal_json);
            Box::new(move |n| journal_json(n))
        },
    };

    // Self-check the exposition once before serving it to scrapers.
    let prom = registry.snapshot().to_prometheus("spine");
    strindex::telemetry::validate_prometheus_text(&prom)
        .expect("generated Prometheus exposition must self-validate");

    let server = MonitorServer::bind(("127.0.0.1", port), routes, 16)
        .unwrap_or_else(|e| panic!("binding 127.0.0.1:{port}: {e}"));
    // Parsed by scripts/ci.sh; keep both formats stable.
    println!("HTTP listening on {}", server.local_addr());
    println!("postmortem dir {}", dump_dir.display());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eprintln!(
        "serving /metrics /health /explain?q=PAT /timeline /journal /quit \
         ({} primed queries{}{})",
        primed,
        if opts.flaky { ", flaky probe device" } else { "" },
        if opts.orphan { ", planted orphan segment" } else { "" }
    );
    let served = server.serve().expect("accept loop failed");
    sampler.stop();
    let _ = std::fs::remove_dir_all(&seg_dir);

    // Every postmortem captured during the run must read back schema-valid;
    // under --flaky (and --orphan, which also forces a 503) at least one
    // must exist — that is the end-to-end flight-recorder assertion.
    let dumps = recorder.dump_count();
    if opts.flaky || opts.orphan {
        assert!(dumps > 0, "a forced-503 run must capture a postmortem dump");
    }
    if dumps > 0 {
        let last = recorder.last_dump().expect("dump path recorded");
        let text = std::fs::read_to_string(&last)
            .unwrap_or_else(|e| panic!("reading {}: {e}", last.display()));
        spine_bench::validate_postmortem(&text)
            .unwrap_or_else(|e| panic!("postmortem {} is malformed: {e}", last.display()));
        println!("OK: postmortem {} validates ({dumps} dump(s))", last.display());
    }
    println!("OK: monitor served {served} request(s), shut down cleanly");
}

// ---------------------------------------------------------------------------
// http-get: CI's curl replacement. One positional argument ADDR/PATH; the
// body goes to stdout, the status to stderr; exit 1 on transport errors or
// HTTP status >= 400. With --prom the body must additionally pass
// `validate_prometheus_text`.
// ---------------------------------------------------------------------------
fn http_get_cmd(opts: &Opts) {
    let target = opts
        .pattern
        .clone()
        .unwrap_or_else(|| panic!("http-get needs ADDR/PATH, e.g. 127.0.0.1:8080/metrics"));
    let slash = target.find('/').unwrap_or(target.len());
    let (addr, path) = target.split_at(slash);
    let path = if path.is_empty() { "/" } else { path };
    match spine_bench::http_get(addr, path, std::time::Duration::from_secs(10)) {
        Ok((status, body)) => {
            print!("{body}");
            eprintln!("HTTP {status} ({} bytes)", body.len());
            if opts.prom {
                strindex::telemetry::validate_prometheus_text(&body)
                    .unwrap_or_else(|e| panic!("body is not valid Prometheus exposition: {e}"));
                eprintln!("OK: body validates as Prometheus text exposition");
            }
            if status >= 400 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("http-get {target}: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Fault tolerance: exhaustive crashpoint sweep + retry-layer oracle check.
// ---------------------------------------------------------------------------
fn faults(opts: &Opts) {
    let (r, t) = time(|| spine_bench::crashpoint_sweep(opts.quick));
    print_table(
        "Faults — crashpoint sweep (hard faults) + retry layer vs oracle (transient)",
        &r.rows(secs(t)),
        opts.json,
    );
    assert!(
        r.holds(),
        "fault-tolerance contract violated: {} panics, {} swallowed, burst ok={}, prob ok={}, \
         seal source intact={}, reseal oracle ok={}, segment torn={}",
        r.panics,
        r.swallowed,
        r.burst_oracle_match,
        r.probability_oracle_match,
        r.sealed_source_intact,
        r.sealed_oracle_match,
        r.segment_torn
    );
    println!(
        "OK: {} crashpoints -> clean Err; retry-wrapped runs match the in-memory oracle; \
         {} mid-seal crashes left the committed version intact; {} segment-store crashes \
         all recovered to a committed epoch with oracle-exact answers",
        r.tested, r.seal_faults, r.segment_faults
    );
}

// ---------------------------------------------------------------------------
// Integrity verification: the paper's correctness theorem, machine-checked
// on the experiment datasets themselves.
// ---------------------------------------------------------------------------
fn verify(opts: &Opts) {
    let _ = opts.scale;
    let mut rows = Vec::new();
    for name in dna_presets().iter().chain(protein_presets().iter()) {
        let mut d = Dataset::generate(name, 0.001);
        // The first-principles checker is super-quadratic; verify a prefix.
        d.seq.truncate(1_200);
        let s = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
        let violations = s.verify();
        for v in violations.iter().take(3) {
            eprintln!("  VIOLATION {name}: node {} — {}", v.node, v.what);
        }
        // Seal the same prefix and check its preorder index against the
        // sealed link records it was built from.
        let sealed = SealedSpine::build_sealed(
            d.alphabet.clone(),
            &d.seq,
            Box::new(MemDevice::new()),
            16,
            Box::<Lru>::default(),
        )
        .unwrap();
        let links: Vec<_> = (0..=d.seq.len() as u32)
            .map(|j| spine::FallibleSpineOps::try_link_of(&sealed, j).unwrap())
            .collect();
        let preorder_violations = sealed.preorder().check(&links);
        for v in preorder_violations.iter().take(3) {
            eprintln!("  PREORDER VIOLATION {name}: {v}");
        }
        // Cross-check a handful of windows against the suffix tree, on the
        // in-memory and the sealed index.
        let st = SuffixTree::build(d.alphabet.clone(), &d.seq).unwrap();
        let mut disagreements = 0u64;
        for i in (0..d.seq.len().saturating_sub(12)).step_by(97) {
            let w = &d.seq[i..i + 12];
            let want = strindex::StringIndex::find_all(&st, w);
            if strindex::StringIndex::find_all(&s, w) != want
                || strindex::StringIndex::find_all(&sealed, w) != want
            {
                disagreements += 1;
            }
        }
        rows.push(
            Row::new(*name)
                .cell("chars", d.seq.len() as f64)
                .cell("violations", violations.len() as f64)
                .cell("preorder-violations", preorder_violations.len() as f64)
                .cell("st-disagreements", disagreements as f64),
        );
    }
    print_table("Verify — structural invariants + cross-engine agreement", &rows, opts.json);
}

// ---------------------------------------------------------------------------
// Figures 1–3: structural comparison on the paper's example plus a real
// dataset — what each compaction strategy saves.
// ---------------------------------------------------------------------------
fn figures(opts: &Opts) {
    use suffix_trie::SuffixTrie;
    let mut rows = Vec::new();
    // The paper's running example, aaccacaaca.
    let a = strindex::Alphabet::dna();
    let paper = a.encode(b"AACCACAACA").unwrap();
    // Plus a small slice of a realistic dataset (the trie is quadratic).
    let mut eco = Dataset::generate("eco-sim", 0.001).seq;
    eco.truncate(1_500);
    for (name, text, alphabet) in [("aaccacaaca", &paper, &a), ("eco-sim[..1500]", &eco, &a)] {
        let trie = SuffixTrie::build(alphabet.clone(), text);
        let st = SuffixTree::build(alphabet.clone(), text).unwrap();
        let sp = Spine::build(alphabet.clone(), text).unwrap();
        let sp_edges: usize =
            2 * sp.len() + sp.nodes().iter().map(|n| n.ribs.len() + n.extribs.len()).sum::<usize>();
        rows.push(
            Row::new(name)
                .cell("trie-nodes", trie.node_count() as f64)
                .cell("st-nodes", st.node_count() as f64)
                .cell("spine-nodes", sp.nodes().len() as f64)
                .cell("spine-edges", sp_edges as f64),
        );
    }
    print_table(
        "Figures 1–3 — trie vs vertical (ST) vs horizontal (SPINE) compaction",
        &rows,
        opts.json,
    );
    let _ = opts;
}

// ---------------------------------------------------------------------------
// Explain: per-query EXPLAIN tracing on the paper's running example — the
// Figure 3 valid-path walk, rendered step by step — plus a page-resident run
// with buffer-pool attribution and a visit heatmap. Every trace printed here
// is also replayed against the naive oracle (`verify_against_text`).
// ---------------------------------------------------------------------------
fn explain(opts: &Opts) {
    use spine::{Heatmap, TraceEvent};

    let a = strindex::Alphabet::dna();
    let text = b"AACCACAACA";
    let seq = a.encode(text).unwrap();
    let pattern_str = opts.pattern.clone().unwrap_or_else(|| "ACA".to_string());
    let pattern = a
        .encode(pattern_str.as_bytes())
        .unwrap_or_else(|e| panic!("pattern {pattern_str:?} is not DNA: {e:?}"));

    let s = Spine::build(a.clone(), &seq).unwrap();
    let trace = s.explain(&pattern);
    println!("EXPLAIN {pattern_str} over {}", String::from_utf8_lossy(text));
    if opts.json {
        println!("{}", trace.to_json());
    } else {
        print!("{}", trace.to_text(&a));
    }
    trace.verify_against_text(&seq).expect("trace must replay against the naive oracle");

    if pattern_str == "ACA" {
        // The paper's hand-derived path for "aca": vertebra 0→1 on A, rib
        // 1→3 on C (pt 1 admits pl 1), rib 3→5 rejected (pl 2 > pt 1),
        // extrib at 5 (prt 1, pt 2) lands on node 7; the backbone scan then
        // adds the second occurrence ending at 10.
        let ev = trace.structural_events();
        assert_eq!(ev[0], TraceEvent::Vertebra { node: 0, pl: 0, ch: 0 });
        assert_eq!(
            ev[1],
            TraceEvent::Rib { node: 1, ch: 1, dest: 3, pt: 1, pl: 1, admitted: true }
        );
        assert_eq!(
            ev[2],
            TraceEvent::Rib { node: 3, ch: 0, dest: 5, pt: 1, pl: 2, admitted: false }
        );
        assert_eq!(ev[3], TraceEvent::Extrib { at: 5, prt: 1, dest: 7, pt: 2, pl: 2, taken: true });
        assert_eq!(trace.first_end, Some(7));
        assert_eq!(trace.ends, vec![7, 10]);
        eprintln!("OK: trace matches the paper's hand-derived Figure 3 path (ends [7, 10])");
    }

    // The same pattern over a page-resident index under a single-frame pool:
    // the trace attributes buffer-pool hits and device reads to the
    // traversal that caused them.
    let big = seq.repeat(8);
    let disk =
        DiskSpine::build(a.clone(), &big, Box::new(MemDevice::new()), 1, Box::<Lru>::default())
            .unwrap();
    let dtrace = disk.explain(&pattern);
    dtrace.verify_against_text(&big).expect("disk trace must replay against the naive oracle");
    let (hits, misses) = dtrace.page_fetches();
    println!(
        "\ndisk (x8 text, single-frame pool): {} occurrence(s), {hits} page hit(s), \
         {misses} page miss(es)",
        dtrace.ends.len()
    );

    // Heatmap: fold every length-2 window of the text plus the traced
    // pattern into per-node visit counts.
    let mut heat = Heatmap::new(seq.len());
    for w in seq.windows(2) {
        heat.add(&s.explain(w));
    }
    heat.add(&trace);
    println!("\nheatmap over {} traces (hottest: {:?})", heat.traces(), heat.hottest(3));
    print!("{}", heat.render(5, 40));

    if !opts.quick {
        // A realistic dataset: trace a 12-mer over eco-sim and replay it
        // against the oracle there too.
        let d = Dataset::generate("eco-sim", opts.scale.min(0.01));
        let s2 = Spine::build(d.alphabet.clone(), &d.seq).unwrap();
        let q = query_for(&d);
        let p2 = &q[..q.len().min(12)];
        let t2 = s2.explain(p2);
        t2.verify_against_text(&d.seq).expect("eco-sim trace must replay against the naive oracle");
        println!(
            "\neco-sim[{} chars]: {} structural events, {} occurrence(s) for a 12-mer",
            d.seq.len(),
            t2.structural_events().len(),
            t2.ends.len()
        );
    }
    eprintln!("OK: explain traces replay cleanly against the naive oracle");
}

// ---------------------------------------------------------------------------
// Bench-snapshot: BENCH_serve.json — the serving benchmark's headline
// numbers (throughput, tail latency from `engine.query_latency`, mean
// pages/query from the sealed index's pool misses), with an optional
// `--check` regression gate against a committed baseline.
// ---------------------------------------------------------------------------
fn bench_snapshot(opts: &Opts) {
    use spine::engine::{EngineConfig, QueryEngine};
    use spine::telemetry::MetricsRegistry;
    use spine_bench::BenchSnapshot;
    use std::sync::Arc;

    // Serving phase: the `serve --metrics` workload with telemetry attached.
    let scale = if opts.quick { opts.scale * 0.25 } else { opts.scale };
    let cycles = if opts.quick { 2 } else { 4 };
    let d = Dataset::generate("hc21-sim", scale);
    let index = Arc::new(Spine::build(d.alphabet.clone(), &d.seq).unwrap());
    let workload = serve_workload(&d, 256, cycles);
    let cfg = EngineConfig { workers: opts.workers, batch_max: 64, ..Default::default() };

    let run = |engine: &QueryEngine<Spine>| {
        let (results, t) = time(|| {
            for admitted in engine.submit_batch(workload.iter().cloned()) {
                admitted.expect("default shed policy blocks rather than rejecting");
            }
            engine.drain()
        });
        std::hint::black_box(results.len());
        t
    };

    // Pinned warmup, then the median of `SERVE_DRAINS` timed instrumented
    // drains. One drain of the quick workload lasts ~1.6 ms, and single
    // drains of one binary spread 252–748 k qps, so a one-sample `qps`
    // would pass or fail the 0.8× floor on scheduling alone.
    const SERVE_DRAINS: usize = 7;
    run(&QueryEngine::new(Arc::clone(&index), cfg));
    let registry = Arc::new(MetricsRegistry::new());
    let engine = QueryEngine::with_telemetry(Arc::clone(&index), cfg, Arc::clone(&registry));
    let mut walls: Vec<_> = (0..SERVE_DRAINS).map(|_| run(&engine)).collect();
    walls.sort();
    let t = walls[SERVE_DRAINS / 2];
    let qps_of = |d| workload.len() as f64 / secs(d).max(1e-9);
    eprintln!(
        "serve[drains]:  median {:.0} qps of {SERVE_DRAINS} drains (range {:.0}–{:.0})",
        qps_of(t),
        qps_of(walls[SERVE_DRAINS - 1]),
        qps_of(walls[0])
    );
    let served = (SERVE_DRAINS * workload.len()) as u64;
    let m = engine.metrics();
    assert!(m.is_consistent(), "ledger invariant violated: {m:?}");
    assert_eq!(m.completed, served, "not every query completed");

    // Disk phase: pages/query under memory pressure at a fixed pool size —
    // the pool misses (device page fetches) of one serial pass over the
    // probes, divided by the probe count, as `exp serve`'s disk table
    // counts them. The index is sealed once under the scan-resistant
    // `SegmentedLru`, with its backbone-prefix pages pinned (`exp serve`'s
    // `prefix-pin-slru` row). Enumeration walks the sealed index's in-RAM
    // preorder index, so the pages counted are locate's.
    let dd = Dataset::generate("eco-sim", scale.min(0.005));
    let pool = pool_pages(dd.seq.len(), SPINE_V2_REC);
    let source = Spine::build(dd.alphabet.clone(), &dd.seq).unwrap();
    let disk = SealedSpine::seal(
        &source,
        Box::new(MemDevice::new()),
        pool,
        Box::<pagestore::SegmentedLru>::default(),
    )
    .unwrap();
    let probes: Vec<&[strindex::Code]> =
        (0..dd.seq.len().saturating_sub(16)).step_by(997).map(|i| &dd.seq[i..i + 12]).collect();
    assert!(!probes.is_empty(), "no disk probes");
    let pinned = disk.pin_hot_prefix((pool / 4).max(1)).unwrap();
    let before = disk.pool_stats();
    for w in &probes {
        std::hint::black_box(disk.try_find_all(w).expect("MemDevice cannot fail").len());
    }
    let ps = disk.pool_stats();
    let pages_per_query = (ps.misses - before.misses) as f64 / probes.len() as f64;
    eprintln!(
        "disk pool (cap {pool}, {pinned} pinned): {} hits / {} misses ({:.1}% hit rate)",
        ps.hits,
        ps.misses,
        100.0 * ps.hit_rate(),
    );

    // Disk-engine latency: the same serving engine the in-memory phase used,
    // now answering a windowed workload off the sealed index. Its latency
    // histogram supplies the snapshot's p50/p99. The warm-up engine serves
    // the in-memory source, off the measured index, so that index's pool
    // holds only what the measured pass left.
    let dworkload = serve_workload(&dd, 256, cycles);
    let dregistry = Arc::new(MetricsRegistry::new());
    {
        let warm = QueryEngine::new(Arc::new(source), cfg);
        for admitted in warm.submit_batch(dworkload.iter().cloned()) {
            admitted.expect("default shed policy blocks rather than rejecting");
        }
        std::hint::black_box(warm.drain().len());
    }
    let disk = Arc::new(disk);
    let dengine = QueryEngine::with_telemetry(Arc::clone(&disk), cfg, Arc::clone(&dregistry));
    for admitted in dengine.submit_batch(dworkload.iter().cloned()) {
        admitted.expect("default shed policy blocks rather than rejecting");
    }
    std::hint::black_box(dengine.drain().len());
    let dm = dengine.metrics();
    assert!(dm.is_consistent(), "disk ledger invariant violated: {dm:?}");
    assert_eq!(dm.completed, dworkload.len() as u64, "not every disk query completed");

    let snap = registry.snapshot();
    let lat = snap.histogram("engine.query_latency").expect("latency histogram");
    assert_eq!(lat.count, served, "latency histogram misses queries");
    let dsnap = dregistry.snapshot();
    let dlat = dsnap.histogram("engine.query_latency").expect("disk latency histogram");
    assert_eq!(dlat.count, dworkload.len() as u64, "disk latency histogram misses queries");

    let s = BenchSnapshot {
        workers: opts.workers as u64,
        queries: workload.len() as u64,
        wall_s: secs(t),
        qps: workload.len() as f64 / secs(t).max(1e-9),
        p50_us: dlat.p50() / 1_000, // histograms record nanoseconds
        p99_us: dlat.p99() / 1_000,
        pages_per_query,
    };
    let json = s.to_json();
    let out = opts.out.clone().unwrap_or_else(|| "BENCH_serve.json".to_string());
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
    eprintln!("OK: snapshot written to {out}");

    // Construction phase: build-side observability numbers → BENCH_build.json.
    let b = build_snapshot_section(&d, &dd, pool);
    let bjson = b.to_json();
    let out_build = opts.out_build.clone().unwrap_or_else(|| "BENCH_build.json".to_string());
    std::fs::write(&out_build, format!("{bjson}\n"))
        .unwrap_or_else(|e| panic!("writing {out_build}: {e}"));
    println!("{bjson}");
    eprintln!("OK: construction snapshot written to {out_build}");

    if let Some(base_path) = &opts.check {
        let text = std::fs::read_to_string(base_path)
            .unwrap_or_else(|e| panic!("reading baseline {base_path}: {e}"));
        let base = match BenchSnapshot::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("BENCH BASELINE REJECTED ({base_path}): {e}");
                std::process::exit(1);
            }
        };
        match s.check_against(&base) {
            Ok(msg) => eprintln!("OK: {msg}"),
            Err(e) => {
                eprintln!("BENCH REGRESSION vs {base_path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(base_path) = &opts.check_build {
        let text = std::fs::read_to_string(base_path)
            .unwrap_or_else(|e| panic!("reading baseline {base_path}: {e}"));
        let base = match spine_bench::BuildSnapshot::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("BENCH BASELINE REJECTED ({base_path}): {e}");
                std::process::exit(1);
            }
        };
        match b.check_against(&base) {
            Ok(msg) => eprintln!("OK: {msg}"),
            Err(e) => {
                eprintln!("BENCH REGRESSION vs {base_path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The `bench-snapshot` construction section: median-of-3 plain builds for
/// throughput (the observer-disabled path must stay within noise of
/// pre-instrumentation construction — the committed baseline gates it),
/// three plain/observed build pairs for the overhead figure, one
/// progress-transcribed build for the callback path, and a `DiskSpine` build
/// for the page-write count.
fn build_snapshot_section(d: &Dataset, dd: &Dataset, pool: usize) -> spine_bench::BuildSnapshot {
    use spine::{BuildProgress, BuildStats, Tee};

    const RUNS: usize = 3;
    let plain_build = || {
        let (s, t) = time(|| Spine::build(d.alphabet.clone(), &d.seq).unwrap());
        std::hint::black_box(s.len());
        secs(t)
    };
    let mut plain_walls: Vec<f64> = (0..RUNS).map(|_| plain_build()).collect();
    plain_walls.sort_by(f64::total_cmp);
    let build_s = plain_walls[RUNS / 2];

    // Observer overhead: plain/observed pairs, alternating which side runs
    // first so that warm-up and drift charge both sides alike; the figure
    // is the median of the per-pair ratios.
    let mut stats = BuildStats::default();
    let mut observed_build = || {
        let ((s, st), t) = time(|| Spine::build_with_stats(d.alphabet.clone(), &d.seq).unwrap());
        std::hint::black_box(s.len());
        stats = st;
        secs(t)
    };
    let mut ratios: Vec<f64> = (0..RUNS)
        .map(|pair| {
            let (plain, observed) = if pair % 2 == 0 {
                let p = plain_build();
                (p, observed_build())
            } else {
                let o = observed_build();
                (plain_build(), o)
            };
            observed / plain.max(1e-9)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    assert_eq!(stats.insertions as usize, d.seq.len(), "observer missed insertions");
    assert_eq!(stats.dispositions(), stats.insertions, "CASE counts must sum to insertions");

    // One build with a progress callback teed onto the stats — the live
    // transcript EXPERIMENTS.md shows.
    let total = d.seq.len() as u64;
    let mut tee = Tee(
        BuildStats::default(),
        BuildProgress::new(Some(total), (total / 4).max(1), |r| {
            eprintln!(
                "build[progress]: {:>9} / {total} nodes, {:>10.0} nodes/s, eta {:.2}s",
                r.nodes,
                r.nodes_per_sec,
                r.eta_secs.unwrap_or(f64::NAN)
            );
        }),
    );
    let s = Spine::build_observed(d.alphabet.clone(), &d.seq, &mut tee).unwrap();
    std::hint::black_box(s.len());
    assert_eq!(tee.0.counts(), stats.counts(), "observed builds must agree run to run");
    eprintln!("build[summary]:  {}", stats.summary());

    // Disk build: the fixed-record APPEND's page writes through the
    // device, spills reconciled. The same text sealed from an in-memory
    // `Spine` gives the layout-v2 pages; `page_writes` sums the two
    // (the committed baseline's definition) and `bytes_per_node` is the
    // *sealed on-disk* footprint — the number layout v2 exists to shrink.
    let (dsk, dstats) = DiskSpine::build_with_stats(
        dd.alphabet.clone(),
        &dd.seq,
        Box::new(MemDevice::new()),
        pool_pages(dd.seq.len(), SPINE_REC),
        Box::<Lru>::default(),
    )
    .unwrap();
    let (_reads, build_writes) = dsk.io_counts();
    assert_eq!(dstats.extrib_spills, dsk.spill_count(), "spill events must match the side table");
    let source = Spine::build(dd.alphabet.clone(), &dd.seq).unwrap();
    let sealed =
        SealedSpine::seal(&source, Box::new(MemDevice::new()), pool, Box::<Lru>::default())
            .expect("sealing the bench index must not fail");
    let (_sreads, seal_writes) = sealed.io_counts();
    let page_writes = build_writes + seal_writes;
    let file_pages = sealed.file_pages();
    let disk_bytes_per_node = (file_pages * PAGE_SIZE as u64) as f64 / (dd.seq.len() as f64 + 1.0);
    eprintln!(
        "seal[summary]:   {} v1 build writes + {} v2 seal writes; {} v2 pages, \
         {:.2} on-disk bytes/node (heap bytes/node {:.2})",
        build_writes,
        seal_writes,
        file_pages,
        disk_bytes_per_node,
        stats.mem.bytes_per_node(stats.insertions),
    );

    spine_bench::BuildSnapshot {
        nodes: stats.insertions,
        build_s,
        nodes_per_sec: stats.insertions as f64 / build_s.max(1e-9),
        observer_overhead_pct: 100.0 * (ratios[RUNS / 2] - 1.0),
        bytes_per_node: disk_bytes_per_node,
        page_writes,
    }
}

// ---------------------------------------------------------------------------
// `scale`: the load harness (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// Stream a synthetic corpus into every in-repo engine, sweep closed-loop
/// concurrency and open-loop offered load per query mix, and write the
/// throughput-vs-latency curves (with per-stage attribution) to `--out`.
fn scale_cmd(opts: &Opts) {
    use spine_bench::load::{run_scale, CorpusKind, ScaleConfig, ScaleReport};

    let mut cfg =
        if opts.quick { ScaleConfig::quick(opts.seed) } else { ScaleConfig::full(opts.seed) };
    cfg.workers = opts.workers;
    if let Some(kind) = &opts.corpus {
        cfg.corpus_kind = CorpusKind::parse(kind)
            .unwrap_or_else(|| panic!("unknown corpus {kind:?} (dna|protein|logtext)"));
    }
    eprintln!(
        "scale: seed 0x{:X}, corpus {} ({} symbols; trie capped at {}), {} workers, \
         {} queries/point{}",
        cfg.seed,
        cfg.corpus_kind.name(),
        cfg.corpus_len,
        cfg.trie_corpus_len,
        cfg.workers,
        cfg.queries_per_point,
        if cfg.quick { " [quick]" } else { "" }
    );
    let scratch = std::env::temp_dir().join(format!("spine-scale-{}", std::process::id()));
    let report = run_scale(&cfg, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);

    let json = report.to_json();
    let out = opts.out.clone().unwrap_or_else(|| "BENCH_scale.json".to_string());
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("OK: {} curves written to {out}", report.curves.len());

    if let Some(base_path) = &opts.check {
        let text = std::fs::read_to_string(base_path)
            .unwrap_or_else(|e| panic!("reading baseline {base_path}: {e}"));
        let base = match ScaleReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("BENCH BASELINE REJECTED ({base_path}): {e}");
                std::process::exit(1);
            }
        };
        match report.check_against(&base) {
            Ok(msg) => eprintln!("OK: {msg}"),
            Err(e) => {
                eprintln!("BENCH REGRESSION vs {base_path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
