//! End-to-end and per-layer benchmark of the SPINE indexes.
//!
//! ```text
//! perfbench --workload dna-hits|logs-churn|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run makes its inputs from the seed, sets the workload's index up,
//! warms it, measures a closed loop with one operation in flight for the
//! given seconds, checks every answer against an oracle of its own, and
//! prints one JSON object as its last line of output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A wrong
//! answer ends the run with a non-zero exit code and no JSON. README.md
//! explains the workloads and metrics.

mod dna;
mod inputs;
mod logs;
mod oracle;
mod report;
mod rng;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spine::engine::{EngineConfig, QueryEngine, QueryOutcome, ServeIndex};
use strindex::Code;

use crate::report::Headline;
use crate::stats::{Clock, Latencies};

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// How long a measured phase runs.
#[derive(Clone, Copy)]
pub enum Budget {
    Ops(usize),
    For(Duration),
}

/// What one run did.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Workload sizes. [`Sizes::FULL`] is what the benchmark measures; the
/// tests run the same code on smaller inputs.
pub struct Sizes {
    /// DNA corpus length, in symbols.
    pub dna_len: usize,
    /// Distinct `dna-hits` queries, cycled (more than a run sends).
    pub hit_pool: usize,
    /// Length of the reads `dna-hits`' writes append.
    pub append_len: usize,
    /// Set-ups timed per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Warm-up operations, excluded from every measurement.
    pub warmup_hits: usize,
    pub warmup_log_ops: usize,
    /// Operations in the traced window of a `--trace 1` run.
    pub traced_hits: usize,
    pub traced_log_ops: usize,
    /// `logs-churn` live documents and their length, in symbols.
    pub log_docs: usize,
    pub log_doc_len: usize,
    /// Operations per block of the measured phase (see `stats`): about a
    /// second of `dna-hits`, and two whole seal and merge cycles of
    /// `logs-churn` (a write every 10 operations, a seal and a full merge
    /// every 8 writes).
    pub hit_block: u64,
    pub log_block: u64,
    /// Samples each group of blocks holds for a percentile (see `stats`):
    /// 100 leave 10 beyond each group's p90. A measured phase with fewer
    /// queries or writes fails.
    pub group: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dna_len: 1 << 20,
        hit_pool: 1 << 13,
        append_len: 64,
        setups: 5,
        warmup_hits: 20,
        warmup_log_ops: 80,
        traced_hits: 400,
        traced_log_ops: 400,
        log_docs: 32,
        log_doc_len: 2048,
        hit_block: 128,
        log_block: 160,
        group: 100,
    };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DnaHits,
    LogsChurn,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::DnaHits, Workload::LogsChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DnaHits => "dna-hits",
            Workload::LogsChurn => "logs-churn",
        }
    }

    /// The layer that should hold most self time on the parent code.
    pub fn dominant_layer(self) -> &'static str {
        match self {
            Workload::DnaHits => "occurrences",
            Workload::LogsChurn => "segments",
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload dna-hits|logs-churn|all --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workloads: Vec::new(), seed: 1, seconds: 10, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                args.workloads = vec![w.ok_or(format!("unknown workload {value}"))?];
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Run one workload: the end-to-end metrics untraced, the per-layer
/// metrics traced.
pub fn run(
    w: Workload,
    seed: u64,
    run: Duration,
    traced: bool,
    sizes: &Sizes,
) -> Result<Outcome, String> {
    match w {
        Workload::DnaHits => dna::hits(seed, run, traced, sizes),
        Workload::LogsChurn => logs::churn(seed, run, traced, sizes),
    }
}

/// The engine every engine-served workload uses: one worker, so load comes
/// from at most two busy threads, the client and the worker.
pub fn engine<S: ServeIndex + 'static>(index: Arc<S>) -> QueryEngine<S> {
    QueryEngine::new(index, EngineConfig { workers: 1, ..EngineConfig::default() })
}

/// Where runs keep their store directories and trace files: a directory in
/// the working directory, so a run writes nowhere else.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One finished operation.
pub struct Step {
    pub write: bool,
    /// The call alone; answer checks and probes come after it.
    pub latency: Duration,
    /// The call returned an error. A wrong answer ends the run instead.
    pub failed: bool,
}

impl Step {
    pub fn query(latency: Duration, failed: bool) -> Step {
        Step { write: false, latency, failed }
    }

    /// A write that returned. A write that fails ends the run: the store
    /// would no longer match the oracle's model of it.
    pub fn write(latency: Duration) -> Step {
        Step { write: true, latency, failed: false }
    }
}

/// What a phase of the closed loop recorded.
pub struct Phase {
    pub queries: Latencies,
    pub writes: Latencies,
    pub clock: Clock,
}

impl Phase {
    pub fn headline(&self) -> Headline {
        Headline { p50_ms: self.queries.p50_ms(), ops_per_s: self.clock.ops_per_s() }
    }

    /// The end-to-end metrics a measured phase gives.
    pub fn insert_metrics(&self, values: &mut Values, sizes: &Sizes) -> Result<(), String> {
        println!(
            "{} queries and {} writes measured in {} blocks",
            self.queries.len(),
            self.writes.len(),
            self.clock.blocks()
        );
        for (what, l) in [("queries", &self.queries), ("writes", &self.writes)] {
            if l.len() < sizes.group {
                return Err(format!(
                    "{} {what} leave fewer than {} beyond their p90",
                    l.len(),
                    sizes.group / 10
                ));
            }
        }
        values.insert("ops_per_s", self.clock.ops_per_s());
        values.insert("p50_ms", self.queries.p50_ms());
        values.insert("p90_ms", self.queries.p90_ms());
        values.insert("write_p50_ms", self.writes.p50_ms());
        values.insert("write_p90_ms", self.writes.p90_ms());
        Ok(())
    }
}

/// The closed loop: one client, one operation in flight. Operations are
/// numbered across all phases of a run.
pub struct ClosedLoop {
    /// Operations per block.
    pub block: u64,
    /// Samples per latency group (see [`Sizes::group`]).
    pub group: usize,
    /// Whether writes are operations of the clock. `dna-hits`' writes
    /// are not: their whole time is kept out of the query rate.
    pub clock_writes: bool,
    pub next_op: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl ClosedLoop {
    pub fn new(block: u64, group: usize, clock_writes: bool) -> ClosedLoop {
        ClosedLoop { block, group, clock_writes, next_op: 0, attempted: 0, failed: 0 }
    }

    /// Run `op` (operation id → what it did, or a wrong answer) until
    /// `budget` is spent; a timed budget ends on a block boundary.
    pub fn run(
        &mut self,
        budget: Budget,
        mut op: impl FnMut(u64) -> Result<Step, String>,
    ) -> Result<Phase, String> {
        let mut phase = Phase {
            queries: Latencies::new(self.group),
            writes: Latencies::new(self.group),
            clock: Clock::new(self.block),
        };
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        loop {
            let id = self.next_op;
            self.next_op += 1;
            self.attempted += 1;
            let began = start.elapsed();
            let step = op(id)?;
            let now = start.elapsed();
            self.failed += u64::from(step.failed);
            if step.write {
                phase.writes.push(step.latency);
            } else {
                phase.queries.push(step.latency);
            }
            if step.write && !self.clock_writes {
                // The whole operation, untimed work included, stays off
                // the clock.
                paused += now - began;
                continue;
            }
            if phase.clock.tick(now - paused) {
                phase.queries.end_block();
                phase.writes.end_block();
            }
            let done = match budget {
                Budget::Ops(n) => phase.clock.ops >= n as u64,
                Budget::For(d) => now >= d && phase.clock.ops.is_multiple_of(self.block),
            };
            if done {
                return Ok(phase);
            }
        }
    }
}

/// Submit one pattern to an engine with nothing else in flight and wait
/// for its outcome; `answer` maps the outcome it expects and hands any
/// other back.
pub fn serve<S: ServeIndex + 'static, T>(
    engine: &QueryEngine<S>,
    q: &[Code],
    answer: impl FnOnce(QueryOutcome) -> Result<T, QueryOutcome>,
) -> Result<T, String> {
    engine.submit(q.to_vec()).map_err(|e| e.to_string())?;
    let result = engine.drain().pop().ok_or("the engine returned no result")?;
    match result.outcome {
        QueryOutcome::Failed(e) => Err(e),
        other => answer(other).map_err(|o| format!("unexpected outcome {o:?}")),
    }
}

/// Set up `times` times, keeping the last result; returns it with the
/// median set-up time in seconds. Earlier results are dropped before the
/// next set-up starts, outside the timing.
pub fn median_setup<T, E: std::fmt::Display>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup().map_err(|e| format!("set-up failed: {e}"))?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("set up at least once"), stats::median(&secs)))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for w in args.workloads {
        let outcome =
            run(w, args.seed, Duration::from_secs(args.seconds), args.trace, &Sizes::FULL)
                .and_then(|o| report::render(&o, args.trace).map(|json| (o, json)));
        match outcome {
            Ok((o, json)) => {
                println!(
                    "{} seed {}: {} operations attempted, {} failed, every answer checked",
                    w.name(),
                    args.seed,
                    o.attempted,
                    o.failed
                );
                println!("{json}");
            }
            Err(e) => {
                eprintln!("perfbench: {} seed {}: {e}", w.name(), args.seed);
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{ChurnScript, Op};

    /// The workloads' code on inputs small enough for a debug build.
    const SMALL: Sizes = Sizes {
        dna_len: 1 << 15,
        hit_pool: 256,
        append_len: 32,
        setups: 1,
        warmup_hits: 5,
        warmup_log_ops: 20,
        traced_hits: 100,
        traced_log_ops: 400,
        log_docs: 32,
        log_doc_len: 1024,
        hit_block: 16,
        log_block: 160,
        group: 10,
    };

    const SHORT: Duration = Duration::from_secs(1);

    /// Every input a seed makes, as bytes.
    fn inputs(seed: u64) -> Vec<u8> {
        let corpus = inputs::dna_corpus(seed, SMALL.dna_len);
        let mut out = corpus.clone();
        for q in inputs::hit_queries(&corpus, seed, SMALL.hit_pool).into_iter().chain({
            let mut reads = inputs::DnaAppends::new(seed);
            (0..100).map(move |_| reads.next_read(SMALL.append_len))
        }) {
            out.extend(q);
            out.push(u8::MAX);
        }
        let mut script = ChurnScript::new(seed, SMALL.log_docs, SMALL.log_doc_len);
        for (id, doc) in script.live() {
            out.extend(id.to_le_bytes());
            out.extend(doc);
        }
        for _ in 0..500 {
            match script.next_op() {
                Op::Query(p) => out.extend(p),
                Op::Write { id, doc, retire } => {
                    out.extend(id.to_le_bytes());
                    out.extend(doc);
                    out.extend(retire.to_le_bytes());
                }
            }
            out.push(u8::MAX);
        }
        out
    }

    #[test]
    fn a_seed_makes_the_same_inputs_and_another_seed_other_ones() {
        assert_eq!(inputs(5), inputs(5));
        assert_ne!(inputs(5), inputs(6));
    }

    /// Metrics that count work, not time: they must repeat exactly.
    const COUNTS: [&str; 11] = [
        "build.chain_steps_per_symbol",
        "build.ribs_per_symbol",
        "build.extribs_per_symbol",
        "search.nodes_checked_per_query",
        "search.extribs_scanned_per_query",
        "occurrences.nodes_scanned_per_query",
        "occurrences.found_per_query",
        "segments.components_per_query",
        "segments.write_amp",
        "pagestore.reads_per_query",
        "pagestore.ops_per_write",
    ];

    fn counts(w: Workload, seed: u64) -> Vec<(&'static str, f64)> {
        let untraced = run(w, seed, SHORT, false, &SMALL).unwrap();
        let traced = run(w, seed, SHORT, true, &SMALL).unwrap();
        let mut out = vec![("bytes_per_symbol", untraced.values["bytes_per_symbol"])];
        out.extend(COUNTS.iter().map(|&k| (k, traced.values.get(k).copied().unwrap_or(0.0))));
        out
    }

    #[test]
    fn a_seed_repeats_every_count() {
        for (w, seed) in Workload::ALL.into_iter().zip([21, 22]) {
            let first = counts(w, seed);
            assert_eq!(first, counts(w, seed), "{}", w.name());
            let worked = |k: &str| first.iter().any(|&(n, v)| n == k && v > 0.0);
            match w {
                Workload::DnaHits => assert!(worked("occurrences.nodes_scanned_per_query")),
                Workload::LogsChurn => {
                    assert!(worked("segments.write_amp") && worked("pagestore.ops_per_write"))
                }
            }
        }
    }

    #[test]
    fn every_run_reports_every_metric_of_its_kind() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let o = run(w, 31, SHORT, traced, &SMALL).unwrap();
                let line = report::render(&o, traced).unwrap();
                let defs: &[(&str, &str)] =
                    if traced { &report::PER_LAYER } else { &report::END_TO_END };
                for (name, unit) in defs {
                    let entry = format!(r#""{name}": {{"value": "#);
                    assert!(
                        line.contains(&entry) && line.contains(&format!(r#""unit": "{unit}""#))
                    );
                }
                if !traced {
                    assert!(
                        END_TO_END_NEVER_ZERO.iter().all(|k| o.values[k] > 0.0),
                        "{}",
                        w.name()
                    );
                }
            }
        }
    }

    const END_TO_END_NEVER_ZERO: [&str; 7] = [
        "setup_s",
        "ops_per_s",
        "p50_ms",
        "p90_ms",
        "write_p50_ms",
        "write_p90_ms",
        "bytes_per_symbol",
    ];

    #[test]
    fn benchmark_json_names_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for (name, unit) in report::END_TO_END.iter().chain(&report::PER_LAYER) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!(r#""name": "{}""#, w.name())));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload logs-churn --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec![Workload::LogsChurn], 9, 3, true)
        );
        assert_eq!(parse("--workload all").unwrap().workloads, Workload::ALL);
        assert!(parse("--seed 9").is_err());
        assert!(parse("--workload dna").is_err());
        assert!(parse("--workload dna-hits --trace 2").is_err());
        assert!(parse("--workload dna-hits --seed").is_err());
    }
}
