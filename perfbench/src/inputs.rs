//! Workload inputs, made from `--seed` by the benchmark's own generators.
//!
//! Nothing here calls `genseq` or `spine_bench::load`: a later change to
//! those crates cannot change what this benchmark measures.

use std::collections::VecDeque;

use strindex::{Alphabet, Code};

use crate::rng::Rng;

/// Order of the DNA Markov chain.
const DNA_ORDER: usize = 3;

/// Query lengths of the hit mixes (`exp scale`'s `uniform` mix).
pub const HIT_LEN: (usize, usize) = (6, 18);

/// `logs-churn` turns every `WRITE_EVERY`-th operation into a write, so
/// seals and merges fall on the same operation indices in every run.
pub const WRITE_EVERY: u64 = 10;

/// How peaked each transition row is, from 0 (uniform) to 1; genomic DNA
/// sits around 0.3-0.5, and `exp scale` uses 0.35.
const DNA_SKEW: f64 = 0.35;

/// An order-3 Markov model of DNA with one fixed transition table. The
/// table comes from a constant, not from `--seed`: seeds change the sampled
/// sequence, never its statistics, so runs with different seeds measure the
/// same kind of text.
pub struct DnaModel {
    /// Cumulative next-base probabilities per 3-base context.
    cum: Vec<[f64; 4]>,
}

impl DnaModel {
    pub fn fixed() -> DnaModel {
        let mut r = Rng::new(0x0053_5049_4E45, "dna-model");
        let cum = (0..1usize << (2 * DNA_ORDER))
            .map(|_| {
                let w: [f64; 4] =
                    std::array::from_fn(|_| (1.0 - DNA_SKEW) + DNA_SKEW * r.unit().powi(4));
                let total: f64 = w.iter().sum();
                let mut acc = 0.0;
                std::array::from_fn(|i| {
                    acc += w[i] / total;
                    acc
                })
            })
            .collect();
        DnaModel { cum }
    }

    pub fn sample(&self, r: &mut Rng, len: usize) -> Vec<Code> {
        let mask = (1usize << (2 * DNA_ORDER)) - 1;
        let mut ctx = 0usize;
        (0..len)
            .map(|i| {
                let code = if i < DNA_ORDER {
                    r.below(4)
                } else {
                    let u = r.unit();
                    self.cum[ctx].iter().position(|&c| u < c).unwrap_or(3)
                };
                ctx = ((ctx << 2) | code) & mask;
                code as Code
            })
            .collect()
    }
}

/// The `dna-hits` corpus.
pub fn dna_corpus(seed: u64, len: usize) -> Vec<Code> {
    DnaModel::fixed().sample(&mut Rng::new(seed, "dna-corpus"), len)
}

/// Uniformly placed substrings of `text` with lengths uniform in `len`.
pub fn substrings(text: &[Code], r: &mut Rng, count: usize, len: (usize, usize)) -> Vec<Vec<Code>> {
    (0..count)
        .map(|_| {
            let l = r.range(len.0, len.1);
            let start = r.below(text.len() - l + 1);
            text[start..start + l].to_vec()
        })
        .collect()
}

/// `dna-hits` queries: corpus substrings of length 6-18.
pub fn hit_queries(corpus: &[Code], seed: u64, count: usize) -> Vec<Vec<Code>> {
    substrings(corpus, &mut Rng::new(seed, "dna-hits"), count, HIT_LEN)
}

/// New DNA for `dna-hits`' writes: fresh reads from the same model,
/// not copies of the corpus.
pub struct DnaAppends {
    model: DnaModel,
    r: Rng,
}

impl DnaAppends {
    pub fn new(seed: u64) -> DnaAppends {
        DnaAppends { model: DnaModel::fixed(), r: Rng::new(seed, "dna-appends") }
    }

    pub fn next_read(&mut self, len: usize) -> Vec<Code> {
        self.model.sample(&mut self.r, len)
    }
}

/// Templated ASCII log text, cut into fixed-size documents.
pub struct LogDocs {
    r: Rng,
    line: u64,
    alphabet: Alphabet,
}

impl LogDocs {
    pub fn new(seed: u64) -> LogDocs {
        LogDocs { r: Rng::new(seed, "log-docs"), line: 0, alphabet: Alphabet::ascii() }
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.r.below(items.len())]
    }

    fn line(&mut self) -> String {
        const LEVELS: [&str; 4] = ["INFO", "INFO", "WARN", "ERROR"];
        const SERVICES: [&str; 5] = ["gateway", "auth", "billing", "search", "worker"];
        const RESOURCES: [&str; 6] = ["users", "orders", "items", "carts", "invoices", "payments"];
        const VERBS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
        self.line += 1;
        let ts = format!(
            "2026-10-{:02}T{:02}:{:02}:{:02}.{:03}Z",
            1 + self.line / 40_000 % 28,
            self.line / 1_600 % 24,
            self.line / 60 % 60,
            self.r.below(60),
            self.r.below(1000)
        );
        let level = self.pick(&LEVELS);
        let service = self.pick(&SERVICES);
        let pid = 1000 + self.r.below(64);
        let msg = match self.r.below(5) {
            0 | 1 => format!(
                "{} /api/v{}/{}/{} status={} bytes={} took={}ms",
                self.pick(&VERBS),
                1 + self.r.below(3),
                self.pick(&RESOURCES),
                self.r.below(100_000),
                [200, 200, 201, 204, 304, 404, 500][self.r.below(7)],
                self.r.below(65_536),
                1 + self.r.below(900)
            ),
            2 => format!(
                "user {} signed in from 10.{}.{}.{}",
                self.r.below(50_000),
                self.r.below(256),
                self.r.below(256),
                self.r.below(256)
            ),
            3 => format!("cache miss key={}:{}", self.pick(&RESOURCES), self.r.below(100_000)),
            _ => {
                format!("retrying job {} attempt {}/5", self.r.below(1 << 20), 1 + self.r.below(5))
            }
        };
        format!("{ts} {level} {service}[{pid}]: {msg}\n")
    }

    /// The next document: whole log lines, cut to exactly `len` symbols.
    pub fn next_doc(&mut self, len: usize) -> Vec<Code> {
        let mut text = String::with_capacity(len + 160);
        while text.len() < len {
            let line = self.line();
            text.push_str(&line);
        }
        text.truncate(len);
        self.alphabet.encode(text.as_bytes()).expect("log templates are ASCII")
    }
}

/// One `logs-churn` operation.
pub enum Op {
    /// Search the live documents.
    Query(Vec<Code>),
    /// Add `doc` (the store must give it id `id`) and retire document
    /// `retire`, the oldest live one.
    Write { id: u64, doc: Vec<Code>, retire: u64 },
}

/// The `logs-churn` operation script. It is also the oracle's model of the
/// store: `live` holds exactly the documents a correct store answers from.
pub struct ChurnScript {
    docs: LogDocs,
    r: Rng,
    live: VecDeque<(u64, Vec<Code>)>,
    next_id: u64,
    next_op: u64,
    doc_len: usize,
}

impl ChurnScript {
    /// A script whose store starts with `live_docs` documents of `doc_len`
    /// symbols, ids `0..live_docs`.
    pub fn new(seed: u64, live_docs: usize, doc_len: usize) -> ChurnScript {
        let mut docs = LogDocs::new(seed);
        let live = (0..live_docs as u64).map(|id| (id, docs.next_doc(doc_len))).collect();
        ChurnScript {
            docs,
            r: Rng::new(seed, "logs-churn-ops"),
            live,
            next_id: live_docs as u64,
            next_op: 0,
            doc_len,
        }
    }

    /// Live documents in id order.
    pub fn live(&self) -> &VecDeque<(u64, Vec<Code>)> {
        &self.live
    }

    pub fn next_op(&mut self) -> Op {
        self.next_op += 1;
        if self.next_op.is_multiple_of(WRITE_EVERY) {
            let id = self.next_id;
            self.next_id += 1;
            let doc = self.docs.next_doc(self.doc_len);
            let (retire, _) = self.live.pop_front().expect("the live set is never empty");
            self.live.push_back((id, doc.clone()));
            Op::Write { id, doc, retire }
        } else {
            let (_, doc) = &self.live[self.r.below(self.live.len())];
            let l = self.r.range(HIT_LEN.0, HIT_LEN.1);
            let start = self.r.below(doc.len() - l + 1);
            Op::Query(doc[start..start + l].to_vec())
        }
    }
}
