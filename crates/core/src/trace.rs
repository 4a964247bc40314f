//! Per-query EXPLAIN tracing: structured traversal events, trace recording,
//! and hot-spot aggregation.
//!
//! The paper's whole design lives in three traversal decisions — does the
//! vertebra match, does the rib's pathlength threshold admit the path, which
//! extrib element (if any) rescues a rejected rib — plus the link-driven
//! enumeration (a link-tree walk, or the §4 backbone scan) that turns one
//! located occurrence into all of them. This
//! module makes those decisions observable per query, Postgres
//! `EXPLAIN ANALYZE`-style:
//!
//! * [`TraceEvent`] — one structured record per traversal decision:
//!   vertebra steps, rib checks with the PT comparison that admitted or
//!   rejected them, extrib-chain hops, the two mismatch terminations
//!   (no edge / chain exhausted), link-accepted occurrence ends, and page
//!   fetches tagged hit/miss from the buffer pool (disk engine only). The
//!   core search path ([`crate::search::try_step_traced`],
//!   [`crate::occurrences::try_find_all_ends_traced`]) feeds them to an
//!   [`Observer<TraceEvent>`], such as the bounded [`RecordingSink`]. The
//!   untraced entry points pass [`crate::observe::Off`] (`ENABLED ==
//!   false`), so they monomorphize to exactly the code they compiled to
//!   before tracing existed — zero cost when disabled.
//! * [`QueryTrace`] — the `explain(pattern)` result: the event list, the
//!   outcome, and text/JSON renderings. Every engine in the crate exposes
//!   `explain` ([`crate::Spine::explain`], [`crate::CompactSpine`],
//!   [`crate::GeneralizedSpine`], [`crate::disk::PagedSpine::explain`],
//!   [`crate::QueryEngine::submit_traced`]).
//! * [`Heatmap`] — folds traces into per-node visit counts and bucketed
//!   node ranges, surfacing backbone hot spots.
//!
//! Traces double as verifiers: [`QueryTrace::verify_against_text`] replays
//! the event sequence over a naive text oracle and checks that every node
//! the traversal visited is the first-occurrence end position the SPINE
//! invariant promises — so EXPLAIN is another machine check of the
//! no-false-positives theorem, not just a debugging aid.

use crate::build::Spine;
use crate::compact::CompactSpine;
use crate::generalized::GeneralizedSpine;
use crate::node::{NodeId, ROOT};
use crate::observe::Observer;
use crate::ops::FallibleSpineOps;
use strindex::{Alphabet, Code};

/// Default cap on recorded events per trace; past it, events are counted in
/// [`QueryTrace::dropped`] instead of stored.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One structured traversal decision. Node ids double as 1-based text
/// positions (the SPINE invariant), so a trace is also a list of the
/// character positions the query visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Took the (unconstrained) vertebra `node → node + 1` labeled `ch`.
    Vertebra {
        /// Source node.
        node: NodeId,
        /// Path length before the step (= pattern characters consumed).
        pl: u32,
        /// The character consumed.
        ch: Code,
    },
    /// Checked `node`'s rib labeled `ch` against the PT constraint
    /// `pl ≤ pt`; `admitted` records the comparison's outcome.
    Rib {
        /// Source node.
        node: NodeId,
        /// The character consumed (the rib's CL).
        ch: Code,
        /// Rib destination.
        dest: NodeId,
        /// The rib's pathlength threshold.
        pt: u32,
        /// Path length at the check.
        pl: u32,
        /// `pl <= pt`: the rib was traversed. Otherwise the extrib chain
        /// with PRT = `pt` is scanned next.
        admitted: bool,
    },
    /// Probed the extrib of chain `prt` at node `at`; `taken` records
    /// whether its PT covered the path (`pt ≥ pl`).
    Extrib {
        /// Node whose extrib slot was probed.
        at: NodeId,
        /// Parent-rib threshold identifying the chain.
        prt: u32,
        /// Extrib destination (next chain element when not taken).
        dest: NodeId,
        /// The extrib's pathlength threshold.
        pt: u32,
        /// Path length at the check.
        pl: u32,
        /// `pt >= pl`: the extrib was traversed, ending the chain scan.
        taken: bool,
    },
    /// Mismatch termination: `node` has neither a matching vertebra nor a
    /// rib labeled `ch` — the extended string is not a substring.
    NoEdge {
        /// Node where the traversal stopped.
        node: NodeId,
        /// Path length at the stop.
        pl: u32,
        /// The character that found no edge.
        ch: Code,
    },
    /// Mismatch termination: the rib labeled `ch` was rejected and its
    /// extrib chain (PRT `prt`) ran out at `at` without covering `pl`.
    ChainExhausted {
        /// Last chain node probed.
        at: NodeId,
        /// The chain's parent-rib threshold.
        prt: u32,
        /// Path length at the stop.
        pl: u32,
        /// The character whose chain was exhausted.
        ch: Code,
    },
    /// Occurrence enumeration began for a pattern of length `len` (first
    /// occurrence already buffered). The §4 scan reads `from..=to`; on
    /// structures that walk the link tree
    /// ([`crate::ops::FallibleSpineOps::link_tree`]) the range is reported
    /// but not read.
    ScanStart {
        /// First node the scan reads (first occurrence end + 1).
        from: NodeId,
        /// Last node the scan reads (the backbone tail).
        to: NodeId,
        /// Pattern length the scan matches against LELs.
        len: u32,
    },
    /// Enumeration accepted `node` as an occurrence end: its link reaches an
    /// already-buffered end (`link`) with `lel ≥` the pattern length.
    /// Emitted in ascending node order by both the scan and the walk.
    Occurrence {
        /// The accepted occurrence end.
        node: NodeId,
        /// The link destination that admitted it.
        link: NodeId,
        /// The link's LEL label.
        lel: u32,
    },
    /// Buffer-pool traffic attributed to the traversal work since the
    /// previous event: `hits` pages served from the pool, `misses` faulted
    /// from the device. Emitted only by page-resident engines.
    PageFetches {
        /// Pages found resident.
        hits: u64,
        /// Pages read from the device.
        misses: u64,
    },
}

/// A bounded in-memory trace observer: keeps the first `capacity` events
/// and counts the overflow.
#[derive(Debug)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RecordingSink {
    /// A sink retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RecordingSink { events: Vec::new(), capacity: capacity.max(1), dropped: 0 }
    }

    /// Consume the sink: `(events, dropped)`.
    pub fn into_parts(self) -> (Vec<TraceEvent>, u64) {
        (self.events, self.dropped)
    }
}

impl Default for RecordingSink {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Observer<TraceEvent> for RecordingSink {
    fn event(&mut self, e: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else {
            self.dropped += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// QueryTrace.
// ---------------------------------------------------------------------------

/// The result of `explain(pattern)`: everything one query did.
///
/// Produced by [`explain`] (generic), the per-engine `explain` methods, and
/// [`crate::QueryEngine::submit_traced`]. Rendered with
/// [`to_text`](QueryTrace::to_text) (plan-style report) or
/// [`to_json`](QueryTrace::to_json).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The query pattern (encoded).
    pub pattern: Vec<Code>,
    /// Backbone length of the index answering the query.
    pub text_len: usize,
    /// Recorded events, in traversal order (capped; see `dropped`).
    pub events: Vec<TraceEvent>,
    /// Events past the recording cap (counted, not stored).
    pub dropped: u64,
    /// End node of the first occurrence, `None` when the pattern is absent.
    pub first_end: Option<NodeId>,
    /// All occurrence end nodes, ascending (empty when absent).
    pub ends: Vec<NodeId>,
    /// Storage failure that aborted the traversal, if any; the events up to
    /// the fault are retained.
    pub error: Option<String>,
}

impl QueryTrace {
    /// Occurrence start offsets (0-based), derived from `ends`.
    pub fn starts(&self) -> Vec<usize> {
        self.ends.iter().map(|&e| e as usize - self.pattern.len().min(e as usize)).collect()
    }

    /// Total page fetches recorded, as `(hits, misses)`.
    pub fn page_fetches(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for e in &self.events {
            if let TraceEvent::PageFetches { hits: h, misses: m } = e {
                hits += h;
                misses += m;
            }
        }
        (hits, misses)
    }

    /// The events excluding [`TraceEvent::PageFetches`] — the logical
    /// traversal, identical across physical representations of one index.
    pub fn structural_events(&self) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| !matches!(e, TraceEvent::PageFetches { .. }))
            .copied()
            .collect()
    }

    /// Human-readable plan-style report; `alphabet` decodes the characters.
    pub fn to_text(&self, alphabet: &Alphabet) -> String {
        use std::fmt::Write;
        let ch = |c: Code| alphabet.decode(c) as char;
        let mut out = String::new();
        let shown: String = self.pattern.iter().map(|&c| ch(c)).collect();
        let _ = writeln!(
            out,
            "EXPLAIN pattern=\"{shown}\" (len {}) over {}-char backbone",
            self.pattern.len(),
            self.text_len
        );
        let mut step = 0u32;
        for e in &self.events {
            match *e {
                TraceEvent::Vertebra { node, pl, ch: c } => {
                    step += 1;
                    let _ = writeln!(
                        out,
                        "  step {step:<3} pl={pl:<3} '{}': vertebra {node} -> {}",
                        ch(c),
                        node + 1
                    );
                }
                TraceEvent::Rib { node, ch: c, dest, pt, pl, admitted } => {
                    if admitted {
                        step += 1;
                        let _ = writeln!(
                            out,
                            "  step {step:<3} pl={pl:<3} '{}': rib {node} -> {dest} \
                             (pl {pl} <= PT {pt}) ADMIT",
                            ch(c)
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "           pl={pl:<3} '{}': rib {node} -> {dest} \
                             (pl {pl} > PT {pt}) REJECT, scanning extrib chain PRT={pt}",
                            ch(c)
                        );
                    }
                }
                TraceEvent::Extrib { at, prt, dest, pt, pl, taken } => {
                    if taken {
                        step += 1;
                        let _ = writeln!(
                            out,
                            "  step {step:<3} pl={pl:<3}      extrib at {at} -> {dest} \
                             (PRT={prt}, PT {pt} >= pl {pl}) TAKE"
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "           pl={pl:<3}      extrib at {at} -> {dest} \
                             (PRT={prt}, PT {pt} < pl {pl}) continue chain"
                        );
                    }
                }
                TraceEvent::NoEdge { node, pl, ch: c } => {
                    let _ = writeln!(
                        out,
                        "           pl={pl:<3} '{}': no edge at node {node} — MISMATCH, \
                         pattern is not a substring",
                        ch(c)
                    );
                }
                TraceEvent::ChainExhausted { at, prt, pl, ch: c } => {
                    let _ = writeln!(
                        out,
                        "           pl={pl:<3} '{}': extrib chain PRT={prt} exhausted at \
                         node {at} — MISMATCH, pattern is not a substring",
                        ch(c)
                    );
                }
                TraceEvent::ScanStart { from, to, len } => {
                    let _ = writeln!(
                        out,
                        "  enum     accept node j when LEL(j) >= {len} and link(j) is an \
                         accepted end (scan range {from}..={to}; unread by a link-tree walk)"
                    );
                }
                TraceEvent::Occurrence { node, link, lel } => {
                    let _ = writeln!(
                        out,
                        "           occurrence end {node} (link -> {link}, LEL {lel})"
                    );
                }
                TraceEvent::PageFetches { hits, misses } => {
                    let _ = writeln!(out, "           pages: {hits} hit, {misses} miss");
                }
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "  ... {} further events dropped (cap reached)", self.dropped);
        }
        match (&self.error, self.first_end) {
            (Some(e), _) => {
                let _ = writeln!(out, "  ABORTED by storage failure: {e}");
            }
            (None, Some(first)) => {
                let _ = writeln!(
                    out,
                    "  located: first occurrence ends at node {first} (start {})",
                    first as usize - self.pattern.len()
                );
                let (h, m) = self.page_fetches();
                if h + m > 0 {
                    let _ = writeln!(out, "  pages:   {h} hit, {m} miss");
                }
                let _ = writeln!(
                    out,
                    "  result:  {} occurrence(s), ends {:?}",
                    self.ends.len(),
                    preview(&self.ends)
                );
            }
            (None, None) => {
                let _ = writeln!(out, "  result:  pattern does not occur");
            }
        }
        out
    }

    /// Machine-readable JSON (hand-rolled; no external crates).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"pattern\":[");
        for (i, c) in self.pattern.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        let _ = write!(out, "],\"text_len\":{},\"first_end\":", self.text_len);
        match self.first_end {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"ends\":[");
        for (i, e) in self.ends.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{e}");
        }
        let _ = write!(out, "],\"dropped\":{},\"error\":", self.dropped);
        match &self.error {
            Some(e) => {
                let _ = write!(out, "\"{}\"", strindex::telemetry::json_escape(e));
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match *e {
                TraceEvent::Vertebra { node, pl, ch } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"vertebra\",\"node\":{node},\"pl\":{pl},\"ch\":{ch}}}"
                    );
                }
                TraceEvent::Rib { node, ch, dest, pt, pl, admitted } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"rib\",\"node\":{node},\"ch\":{ch},\"dest\":{dest},\
                         \"pt\":{pt},\"pl\":{pl},\"admitted\":{admitted}}}"
                    );
                }
                TraceEvent::Extrib { at, prt, dest, pt, pl, taken } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"extrib\",\"at\":{at},\"prt\":{prt},\"dest\":{dest},\
                         \"pt\":{pt},\"pl\":{pl},\"taken\":{taken}}}"
                    );
                }
                TraceEvent::NoEdge { node, pl, ch } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"no_edge\",\"node\":{node},\"pl\":{pl},\"ch\":{ch}}}"
                    );
                }
                TraceEvent::ChainExhausted { at, prt, pl, ch } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"chain_exhausted\",\"at\":{at},\"prt\":{prt},\
                         \"pl\":{pl},\"ch\":{ch}}}"
                    );
                }
                TraceEvent::ScanStart { from, to, len } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"scan_start\",\"from\":{from},\"to\":{to},\"len\":{len}}}"
                    );
                }
                TraceEvent::Occurrence { node, link, lel } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"occurrence\",\"node\":{node},\"link\":{link},\
                         \"lel\":{lel}}}"
                    );
                }
                TraceEvent::PageFetches { hits, misses } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"page_fetches\",\"hits\":{hits},\"misses\":{misses}}}"
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Replay this trace against the raw text and check every decision:
    ///
    /// * after consuming `k` characters, the traversal must sit at the
    ///   first-occurrence end of `pattern[..k]` (the SPINE invariant);
    /// * mismatch terminations must coincide with `pattern[..k+1]` not
    ///   occurring in the text;
    /// * the occurrence scan must accept exactly the end positions a naive
    ///   scan of the text finds.
    ///
    /// This is the trace/oracle differential: it holds for any correct
    /// index, so EXPLAIN output is itself machine-checkable.
    pub fn verify_against_text(&self, text: &[Code]) -> std::result::Result<(), String> {
        if self.error.is_some() {
            return Ok(()); // an aborted trace proves nothing either way
        }
        let first_end_of = |prefix: &[Code]| -> Option<NodeId> {
            if prefix.len() > text.len() {
                return None;
            }
            (0..=text.len() - prefix.len())
                .find(|&i| &text[i..i + prefix.len()] == prefix)
                .map(|i| (i + prefix.len()) as NodeId)
        };
        let mut node = ROOT;
        let mut k = 0usize; // characters consumed
        let mut scan_seen: Option<Vec<NodeId>> = None;
        let advance = |node: &mut NodeId, k: &mut usize, dest: NodeId| -> Result<(), String> {
            let prefix = &self.pattern[..*k + 1];
            match first_end_of(prefix) {
                Some(expect) if expect == dest => {
                    *node = dest;
                    *k += 1;
                    Ok(())
                }
                Some(expect) => Err(format!(
                    "after {} chars the trace sits at node {dest}, but the first \
                     occurrence of the prefix ends at {expect}",
                    *k + 1
                )),
                None => Err(format!(
                    "trace took an edge for prefix of length {} which never occurs",
                    *k + 1
                )),
            }
        };
        for e in &self.events {
            match *e {
                TraceEvent::Vertebra { node: n, pl, ch } => {
                    if n != node || pl as usize != k || self.pattern.get(k) != Some(&ch) {
                        return Err(format!("vertebra event out of sequence at k={k}: {e:?}"));
                    }
                    advance(&mut node, &mut k, n + 1)?;
                }
                TraceEvent::Rib { node: n, ch, dest, pt, pl, admitted } => {
                    if n != node || pl as usize != k || self.pattern.get(k) != Some(&ch) {
                        return Err(format!("rib event out of sequence at k={k}: {e:?}"));
                    }
                    if admitted != (pl <= pt) {
                        return Err(format!("rib admission contradicts its own PT: {e:?}"));
                    }
                    if admitted {
                        advance(&mut node, &mut k, dest)?;
                    }
                }
                TraceEvent::Extrib { dest, pt, pl, taken, .. } => {
                    if pl as usize != k {
                        return Err(format!("extrib event out of sequence at k={k}: {e:?}"));
                    }
                    if taken != (pt >= pl) {
                        return Err(format!("extrib take contradicts its own PT: {e:?}"));
                    }
                    if taken {
                        advance(&mut node, &mut k, dest)?;
                    }
                }
                TraceEvent::NoEdge { pl, ch, .. } | TraceEvent::ChainExhausted { pl, ch, .. } => {
                    if pl as usize != k || self.pattern.get(k) != Some(&ch) {
                        return Err(format!("mismatch event out of sequence at k={k}: {e:?}"));
                    }
                    if first_end_of(&self.pattern[..k + 1]).is_some() {
                        return Err(format!(
                            "trace reports a mismatch at k={k} but the prefix does occur"
                        ));
                    }
                }
                TraceEvent::ScanStart { from, len, .. } => {
                    if k != self.pattern.len() {
                        return Err(format!(
                            "scan started after {k} of {} chars",
                            self.pattern.len()
                        ));
                    }
                    if len as usize != self.pattern.len() || from != node + 1 {
                        return Err(format!("scan bounds disagree with the locate phase: {e:?}"));
                    }
                    scan_seen = Some(vec![node]);
                }
                TraceEvent::Occurrence { node: j, .. } => {
                    let seen = scan_seen
                        .as_mut()
                        .ok_or_else(|| "occurrence event before scan start".to_string())?;
                    let (start, end) = ((j as usize).checked_sub(k), j as usize);
                    let matches = start
                        .and_then(|s| text.get(s..end))
                        .is_some_and(|w| w == &self.pattern[..]);
                    if !matches {
                        return Err(format!("scan accepted node {j}, not an occurrence end"));
                    }
                    seen.push(j);
                }
                TraceEvent::PageFetches { .. } => {}
            }
        }
        // Outcome checks against a full naive scan.
        let oracle_ends: Vec<NodeId> = if self.pattern.is_empty() {
            (0..=text.len() as NodeId).collect()
        } else if self.pattern.len() > text.len() {
            Vec::new()
        } else {
            (0..=text.len() - self.pattern.len())
                .filter(|&i| text[i..i + self.pattern.len()] == self.pattern[..])
                .map(|i| (i + self.pattern.len()) as NodeId)
                .collect()
        };
        match self.first_end {
            Some(first) => {
                if k != self.pattern.len() {
                    return Err(format!("trace located after {k} of {} chars", self.pattern.len()));
                }
                if oracle_ends.first() != Some(&first) {
                    return Err(format!(
                        "first_end {first} disagrees with oracle {:?}",
                        oracle_ends.first()
                    ));
                }
            }
            None => {
                if !oracle_ends.is_empty() {
                    return Err("trace reports absent but the pattern occurs".to_string());
                }
                return Ok(()); // no scan to check
            }
        }
        if self.dropped == 0 && self.ends != oracle_ends {
            return Err(format!(
                "occurrence ends {:?} disagree with oracle {:?}",
                preview(&self.ends),
                preview(&oracle_ends)
            ));
        }
        Ok(())
    }
}

fn preview(ends: &[NodeId]) -> Vec<NodeId> {
    ends.iter().take(16).copied().collect()
}

/// Buffer-pool delta since `before` (a [`FallibleSpineOps::storage_counters`]
/// sample), as a [`TraceEvent::PageFetches`] — `None` when the structure is
/// not page-resident or nothing was fetched.
pub(crate) fn page_delta_event<S: FallibleSpineOps + ?Sized>(
    s: &S,
    before: Option<(u64, u64)>,
) -> Option<TraceEvent> {
    let (h0, m0) = before?;
    let (h1, m1) = s.storage_counters()?;
    let (hits, misses) = (h1.saturating_sub(h0), m1.saturating_sub(m0));
    if hits + misses == 0 {
        None
    } else {
        Some(TraceEvent::PageFetches { hits, misses })
    }
}

// ---------------------------------------------------------------------------
// The generic explain.
// ---------------------------------------------------------------------------

/// Run `pattern` through `s` with a bounded [`RecordingSink`] attached and
/// package the result. Storage failures are captured in
/// [`QueryTrace::error`] with the partial event list retained — an aborted
/// EXPLAIN shows exactly where the fault hit.
pub fn explain_with_capacity<S: FallibleSpineOps + ?Sized>(
    s: &S,
    pattern: &[Code],
    capacity: usize,
) -> QueryTrace {
    let mut sink = RecordingSink::new(capacity);
    let run = crate::occurrences::try_find_all_ends_traced(s, &mut sink, pattern);
    let (events, dropped) = sink.into_parts();
    let mut trace = QueryTrace {
        pattern: pattern.to_vec(),
        text_len: s.text_len(),
        events,
        dropped,
        first_end: None,
        ends: Vec::new(),
        error: None,
    };
    match run {
        Ok(ends) => {
            trace.first_end = ends.first().copied();
            trace.ends = ends;
        }
        Err(e) => trace.error = Some(e.to_string()),
    }
    trace
}

/// [`explain_with_capacity`] with the default event cap.
pub fn explain<S: FallibleSpineOps + ?Sized>(s: &S, pattern: &[Code]) -> QueryTrace {
    explain_with_capacity(s, pattern, DEFAULT_TRACE_CAPACITY)
}

impl Spine {
    /// EXPLAIN `pattern`: the traversal trace behind
    /// [`find_all`](strindex::StringIndex::find_all). See [`QueryTrace`].
    pub fn explain(&self, pattern: &[Code]) -> QueryTrace {
        explain(self, pattern)
    }
}

impl CompactSpine {
    /// EXPLAIN `pattern` over the §5 compact layout; structurally identical
    /// to the reference trace ([`QueryTrace::structural_events`]).
    pub fn explain(&self, pattern: &[Code]) -> QueryTrace {
        explain(self, pattern)
    }
}

impl GeneralizedSpine {
    /// EXPLAIN `pattern` over the document concatenation; map end nodes to
    /// documents with [`GeneralizedSpine::localize`].
    pub fn explain(&self, pattern: &[Code]) -> QueryTrace {
        explain(self, pattern)
    }
}

// ---------------------------------------------------------------------------
// Heatmap.
// ---------------------------------------------------------------------------

/// Folds traces into per-node visit counts to surface backbone hot spots:
/// which text positions the workload's traversals concentrate on.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// `visits[i]` = times node `i` was arrived at or probed.
    visits: Vec<u64>,
    traces: u64,
    /// Touches whose node id fell outside the tracked backbone even after
    /// growing — counted, never silently lost. Non-zero means the heatmap
    /// saw traces from a larger index than anything it has folded so far
    /// claimed (e.g. a corrupt trace), so the heat ranking may be partial.
    dropped_touches: u64,
}

impl Heatmap {
    /// A cold heatmap for a backbone of `text_len` characters. The map
    /// *grows on demand* when traces from a longer backbone arrive (a
    /// multi-document [`crate::GeneralizedSpine`] concatenation is longer
    /// than any single document), so sizing here is a hint, not a cap.
    pub fn new(text_len: usize) -> Self {
        Heatmap { visits: vec![0; text_len + 1], traces: 0, dropped_touches: 0 }
    }

    /// Number of backbone nodes tracked.
    pub fn nodes(&self) -> usize {
        self.visits.len()
    }

    /// Traces folded in so far.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Touches that could not be attributed to a tracked node (see the
    /// field docs). Zero for any well-formed trace stream.
    pub fn dropped_touches(&self) -> u64 {
        self.dropped_touches
    }

    /// Per-node visit counts.
    pub fn node_visits(&self) -> &[u64] {
        &self.visits
    }

    fn touch(&mut self, n: NodeId) {
        match self.visits.get_mut(n as usize) {
            Some(v) => *v += 1,
            None => self.dropped_touches += 1,
        }
    }

    /// Fold one trace in: every node an event arrived at or probed counts
    /// one visit (rib/extrib destinations count even when rejected — their
    /// records are read to scan the chain).
    ///
    /// The node table grows to the trace's own backbone length first, so a
    /// heatmap sized for one document keeps full attribution when traces
    /// from a longer (multi-document) index arrive. Only node ids beyond
    /// the trace's *claimed* length are dropped (and counted in
    /// [`dropped_touches`](Self::dropped_touches)) — growing to an
    /// untrusted per-event id would let one corrupt trace allocate 4 GiB.
    pub fn add(&mut self, t: &QueryTrace) {
        if t.text_len + 1 > self.visits.len() {
            self.visits.resize(t.text_len + 1, 0);
        }
        self.traces += 1;
        self.touch(ROOT);
        for e in &t.events {
            match *e {
                // The vertebra leaves `node` and arrives at `node + 1`;
                // for the final backbone node that is exactly `text_len`,
                // the last tracked slot. Saturate rather than overflow on a
                // corrupt id — the saturated touch lands in the dropped
                // count, not in a wrapped-around bucket.
                TraceEvent::Vertebra { node, .. } => self.touch(node.saturating_add(1)),
                TraceEvent::Rib { dest, .. } => self.touch(dest),
                TraceEvent::Extrib { dest, .. } => self.touch(dest),
                TraceEvent::Occurrence { node, .. } => self.touch(node),
                TraceEvent::NoEdge { .. }
                | TraceEvent::ChainExhausted { .. }
                | TraceEvent::ScanStart { .. }
                | TraceEvent::PageFetches { .. } => {}
            }
        }
    }

    /// Visit counts folded into `buckets` equal node ranges:
    /// `(range_start, range_end_exclusive, visits)`.
    pub fn bucketed(&self, buckets: usize) -> Vec<(usize, usize, u64)> {
        let buckets = buckets.clamp(1, self.visits.len());
        let per = self.visits.len().div_ceil(buckets);
        self.visits
            .chunks(per)
            .enumerate()
            .map(|(i, c)| (i * per, i * per + c.len(), c.iter().sum()))
            .collect()
    }

    /// The `k` most-visited nodes, hottest first (ties: lower node first).
    pub fn hottest(&self, k: usize) -> Vec<(NodeId, u64)> {
        let mut all: Vec<(NodeId, u64)> =
            self.visits.iter().enumerate().map(|(i, &v)| (i as NodeId, v)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all.retain(|&(_, v)| v > 0);
        all
    }

    /// ASCII rendering: one bar per bucket, `width` columns at full heat.
    pub fn render(&self, buckets: usize, width: usize) -> String {
        use std::fmt::Write;
        let rows = self.bucketed(buckets);
        let max = rows.iter().map(|&(_, _, v)| v).max().unwrap_or(0).max(1);
        let mut out = String::new();
        let _ = writeln!(out, "heatmap: {} traces over {} nodes", self.traces, self.visits.len());
        for (lo, hi, v) in rows {
            let bar = "#".repeat(((v as f64 / max as f64) * width as f64).round() as usize);
            let _ = writeln!(out, "  [{lo:>8}..{hi:>8})  {v:>10}  {bar}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strindex::StringIndex;

    fn paper() -> (Alphabet, Spine) {
        let a = Alphabet::dna();
        (a.clone(), Spine::build_from_bytes(a, b"AACCACAACA").unwrap())
    }

    #[test]
    fn figure3_aca_hand_derived_path() {
        // §4's worked example on aaccacaaca: A by vertebra 0->1, C by the
        // admitted rib 1->3 (pl 1 <= PT 1), A rejected at rib 3->5
        // (pl 2 > PT 1) then rescued by node 5's extrib (PRT 1, PT 2) -> 7.
        let (a, s) = paper();
        let t = s.explain(&a.encode(b"ACA").unwrap());
        assert_eq!(t.first_end, Some(7));
        let structural = t.structural_events();
        assert_eq!(structural[0], TraceEvent::Vertebra { node: 0, pl: 0, ch: 0 });
        assert_eq!(
            structural[1],
            TraceEvent::Rib { node: 1, ch: 1, dest: 3, pt: 1, pl: 1, admitted: true }
        );
        assert_eq!(
            structural[2],
            TraceEvent::Rib { node: 3, ch: 0, dest: 5, pt: 1, pl: 2, admitted: false }
        );
        assert_eq!(
            structural[3],
            TraceEvent::Extrib { at: 5, prt: 1, dest: 7, pt: 2, pl: 2, taken: true }
        );
        assert_eq!(structural[4], TraceEvent::ScanStart { from: 8, to: 10, len: 3 });
        t.verify_against_text(&a.encode(b"AACCACAACA").unwrap()).unwrap();
    }

    #[test]
    fn false_positive_rejection_is_traced() {
        // ACCAA: the rib's PT of 2 rejects the final A and the chain is
        // empty, so the trace must end in a mismatch termination.
        let (a, s) = paper();
        let t = s.explain(&a.encode(b"ACCAA").unwrap());
        assert_eq!(t.first_end, None);
        assert!(t.ends.is_empty());
        assert!(matches!(
            t.events.last(),
            Some(TraceEvent::ChainExhausted { .. } | TraceEvent::NoEdge { .. })
        ));
        t.verify_against_text(&a.encode(b"AACCACAACA").unwrap()).unwrap();
    }

    #[test]
    fn explain_agrees_with_find_all() {
        let (a, s) = paper();
        for p in [&b"CA"[..], b"A", b"AC", b"AACCACAACA", b"GG", b"", b"ACAACA"] {
            let p = a.encode(p).unwrap();
            let t = s.explain(&p);
            if p.is_empty() {
                assert_eq!(t.ends, (0..=10).collect::<Vec<_>>());
            } else {
                assert_eq!(t.starts(), s.find_all(&p), "pattern {p:?}");
            }
            t.verify_against_text(&a.encode(b"AACCACAACA").unwrap()).unwrap();
        }
    }

    #[test]
    fn recording_sink_caps_and_counts() {
        let (a, s) = paper();
        let t = explain_with_capacity(&s, &a.encode(b"A").unwrap(), 2);
        assert_eq!(t.events.len(), 2);
        assert!(t.dropped > 0);
        // Capped traces still report the full answer.
        assert_eq!(t.starts(), s.find_all(&a.encode(b"A").unwrap()));
    }

    #[test]
    fn text_and_json_render() {
        let (a, s) = paper();
        let t = s.explain(&a.encode(b"ACA").unwrap());
        let text = t.to_text(&a);
        assert!(text.contains("vertebra 0 -> 1"));
        assert!(text.contains("ADMIT"));
        assert!(text.contains("REJECT"));
        assert!(text.contains("TAKE"));
        assert!(text.contains("first occurrence ends at node 7"));
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"type\":\"extrib\""));
        assert!(json.contains("\"first_end\":7"));
    }

    #[test]
    fn heatmap_folds_and_buckets() {
        let (a, s) = paper();
        let mut h = Heatmap::new(s.len());
        for p in [&b"ACA"[..], b"CA", b"AAC"] {
            h.add(&s.explain(&a.encode(p).unwrap()));
        }
        assert_eq!(h.traces(), 3);
        let total: u64 = h.node_visits().iter().sum();
        assert!(total > 0);
        // Bucketing conserves the total.
        assert_eq!(h.bucketed(4).iter().map(|&(_, _, v)| v).sum::<u64>(), total);
        assert_eq!(h.bucketed(4).len(), 4);
        let hottest = h.hottest(3);
        assert!(!hottest.is_empty() && hottest[0].1 >= hottest.last().unwrap().1);
        assert!(h.render(4, 20).contains('#'));
    }

    #[test]
    fn heatmap_grows_for_multi_document_traces() {
        // Regression: a heatmap sized for one document used to silently
        // drop every touch beyond `text_len + 1` when traces from a longer
        // (concatenated multi-document) backbone arrived.
        let a = Alphabet::dna();
        let long = Spine::build_from_bytes(a.clone(), &b"AACCACAACAGGTT".repeat(4)).unwrap();
        let mut h = Heatmap::new(10); // sized for a 10-char document
        for p in [&b"CA"[..], b"GGTT", b"ACAACAGG", b"TTAACC"] {
            h.add(&long.explain(&a.encode(p).unwrap()));
        }
        assert_eq!(h.nodes(), long.len() + 1, "table must grow to the trace's backbone");
        assert_eq!(h.dropped_touches(), 0, "well-formed traces lose no heat");
        let far: u64 = h.node_visits()[11..].iter().sum();
        assert!(far > 0, "visits beyond the original sizing must be attributed");
    }

    #[test]
    fn heatmap_counts_unattributable_touches() {
        // A corrupt trace claiming a short backbone but naming a huge node
        // id must not grow the table (that would let one bad trace allocate
        // gigabytes) — the touch is counted as dropped instead.
        let mut h = Heatmap::new(4);
        let t = QueryTrace {
            pattern: vec![0],
            text_len: 4,
            events: vec![
                TraceEvent::Vertebra { node: 0, pl: 0, ch: 0 },
                TraceEvent::Rib { node: 1, ch: 1, dest: u32::MAX, pt: 1, pl: 1, admitted: true },
                // Saturating `node + 1` on the corrupt sentinel must land in
                // the dropped count, not wrap to node 0.
                TraceEvent::Vertebra { node: u32::MAX, pl: 1, ch: 0 },
            ],
            dropped: 0,
            first_end: None,
            ends: vec![],
            error: None,
        };
        h.add(&t);
        assert_eq!(h.nodes(), 5, "corrupt ids must not grow the table");
        assert_eq!(h.dropped_touches(), 2);
        assert_eq!(h.node_visits()[0], 1, "no wrap-around into the root bucket");
    }

    #[test]
    fn final_vertebra_touch_stays_in_range() {
        // Walking the whole text traverses the vertebra out of node
        // `len - 1`; its arrival touch is `len`, the last tracked slot.
        let (a, s) = paper();
        let mut h = Heatmap::new(s.len());
        h.add(&s.explain(&a.encode(b"AACCACAACA").unwrap()));
        assert_eq!(h.dropped_touches(), 0);
        assert!(h.node_visits()[s.len()] > 0, "arrival at the final node is attributed");
    }

    #[test]
    fn verifier_rejects_doctored_traces() {
        let (a, s) = paper();
        let text = a.encode(b"AACCACAACA").unwrap();
        let mut t = s.explain(&a.encode(b"ACA").unwrap());
        t.first_end = Some(9); // lie about the landing position
        assert!(t.verify_against_text(&text).is_err());
        let mut t2 = s.explain(&a.encode(b"ACA").unwrap());
        t2.ends.push(4); // inject a bogus occurrence
        assert!(t2.verify_against_text(&text).is_err());
    }
}
