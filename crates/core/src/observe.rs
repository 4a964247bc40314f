//! Zero-cost observers for the paper's two procedures.
//!
//! One trait, [`Observer<E>`], carries both event streams: APPEND reports
//! [`BuildEvent`]s (which of the paper's CASE 1–4 an insertion took, every
//! rib/extrib/link created, and coarse [`BuildPhase`] timings), and the
//! valid-path search and the §4 enumeration report
//! [`crate::trace::TraceEvent`]s. `ENABLED` is a compile-time constant and
//! every observer-only statement sits behind `if O::ENABLED`, so the
//! disabled observer [`Off`] monomorphizes to exactly the uninstrumented
//! code: the optimizer deletes every guarded block. [`Tee`] fans one stream
//! out to two observers, and `&mut O` forwards to `O`.
//!
//! [`BuildStats`] is the standard build accumulator: its counts reconcile
//! exactly with the structural counts in [`crate::stats`] (ribs created ==
//! ribs present, links set == insertions, CASE dispositions sum to
//! insertions), which the property tests in `tests/build_observer.rs` pin
//! down. [`MergePhase`] names the phases whose wall times each seal and
//! merge writes into its lifecycle journal record.

use std::time::Instant;

/// Observer of one event stream `E`. Implementors with `ENABLED == false`
/// cost nothing: all instrumentation is guarded by `if O::ENABLED`, a
/// compile-time constant.
pub trait Observer<E> {
    /// Whether this observer records anything; `false` lets the optimizer
    /// delete all event plumbing, including work done only to fill an
    /// event (timers, buffer-pool counter samples).
    const ENABLED: bool = true;

    /// Consume one event.
    fn event(&mut self, e: E);
}

/// The disabled observer of every event stream: a zero-sized no-op with
/// `ENABLED == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Off;

impl<E> Observer<E> for Off {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _e: E) {}
}

impl<E, O: Observer<E>> Observer<E> for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline(always)]
    fn event(&mut self, e: E) {
        (**self).event(e);
    }
}

/// Fan one event stream out to two observers. `ENABLED` is the OR of the
/// parts, so teeing a live observer with [`Off`] still records.
#[derive(Debug, Default, Clone)]
pub struct Tee<A, B>(pub A, pub B);

impl<E: Copy, A: Observer<E>, B: Observer<E>> Observer<E> for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn event(&mut self, e: E) {
        if A::ENABLED {
            self.0.event(e);
        }
        if B::ENABLED {
            self.1.event(e);
        }
    }
}

/// One structural action during APPEND, or the wall time of a phase.
///
/// The first six variants are *terminal dispositions*: every insertion emits
/// exactly one of them, so their counts sum to the number of characters
/// appended. `RibCreated` through `ChainStep` are per-edge bookkeeping and
/// may fire zero or more times per insertion. [`BuildEvent::Phase`] is a
/// timing, not a structural action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildEvent {
    /// The first character of the text: links to the root by definition,
    /// no chain walk happens.
    FirstChar,
    /// CASE 1 — the chain node's vertebra already carries the character.
    Case1,
    /// CASE 2 — a rib with sufficient PT already carries it.
    Case2,
    /// CASE 3 terminated at the root (rib created there, link to root).
    Case3Root,
    /// CASE 4 — an existing extrib in the chain had sufficient PT.
    Case4Link,
    /// CASE 4 — the extrib chain was exhausted and a new extrib was created.
    Case4Extrib,
    /// A rib was created (one per non-matching chain node in CASE 3).
    RibCreated {
        /// The rib's pathlength threshold.
        pt: u32,
    },
    /// An extrib was appended to a chain.
    ExtribCreated {
        /// Parent rib threshold identifying the chain.
        prt: u32,
        /// The new element's pathlength threshold.
        pt: u32,
    },
    /// Disk layout only: an extrib did not fit its node's fixed slots and
    /// spilled to the side table.
    ExtribSpill,
    /// The new node's upstream link was set (exactly once per insertion).
    LinkSet {
        /// Link destination node.
        dest: u32,
        /// Longest Early-terminating suffix Length (the link label).
        lel: u32,
    },
    /// One chain-node (or extrib-chain element) was visited without
    /// terminating the insertion — the APPEND work metric.
    ChainStep,
    /// Wall time spent in one construction phase. [`BuildStats`] sums it;
    /// consumers of the structural sequence skip it, as
    /// [`crate::trace::QueryTrace::structural_events`] skips page fetches.
    Phase {
        /// The phase timed.
        phase: BuildPhase,
        /// Wall nanoseconds spent in it.
        nanos: u64,
    },
}

/// Coarse construction phases for wall-time accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPhase {
    /// The main append loop over the input characters.
    Scan,
    /// CASE 4 handling: walking and extending extrib chains.
    RibFixup,
    /// Disk layout only: flushing dirty pages through the pool.
    PageFlush,
}

impl BuildPhase {
    /// Number of phases (array dimension for accumulators).
    pub const COUNT: usize = 3;

    /// Dense index for accumulator arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            BuildPhase::Scan => 0,
            BuildPhase::RibFixup => 1,
            BuildPhase::PageFlush => 2,
        }
    }

    /// Stable lowercase name for exports.
    pub fn name(self) -> &'static str {
        match self {
            BuildPhase::Scan => "scan",
            BuildPhase::RibFixup => "rib_fixup",
            BuildPhase::PageFlush => "page_flush",
        }
    }

    /// All phases in index order.
    pub fn all() -> [BuildPhase; Self::COUNT] {
        [BuildPhase::Scan, BuildPhase::RibFixup, BuildPhase::PageFlush]
    }
}

/// Heap bytes of the finished index, split by edge kind. Filled in by
/// [`crate::Spine::build_with_stats`] and [`crate::DiskSpine::build_with_stats`]
/// (the split is representation-specific; see each engine's
/// `mem_breakdown`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemBreakdown {
    /// Bytes holding vertebra character labels.
    pub vertebrae: u64,
    /// Bytes holding upstream links and their LELs (and, in the reference
    /// layout, the link-child list ids).
    pub links: u64,
    /// Bytes holding ribs.
    pub ribs: u64,
    /// Bytes holding extribs (including any spill/side tables).
    pub extribs: u64,
}

impl MemBreakdown {
    /// Total accounted bytes.
    pub fn total(&self) -> u64 {
        self.vertebrae + self.links + self.ribs + self.extribs
    }

    /// Bytes per indexed character (the paper's space metric).
    pub fn bytes_per_node(&self, nodes: u64) -> f64 {
        if nodes == 0 {
            0.0
        } else {
            self.total() as f64 / nodes as f64
        }
    }
}

/// The standard accumulating observer: counts every event kind, tracks the
/// maximum LEL, and sums per-phase wall time.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BuildStats {
    /// Characters appended (== terminal dispositions == links set).
    pub insertions: u64,
    /// [`BuildEvent::FirstChar`] count (0 or 1 per text).
    pub first_char: u64,
    /// CASE 1 dispositions.
    pub case1: u64,
    /// CASE 2 dispositions.
    pub case2: u64,
    /// CASE 3-at-root dispositions.
    pub case3_root: u64,
    /// CASE 4 dispositions resolved by an existing extrib.
    pub case4_link: u64,
    /// CASE 4 dispositions that created a new extrib.
    pub case4_extrib: u64,
    /// Ribs created. SPINE never deletes ribs, so this equals the finished
    /// index's rib count.
    pub ribs_created: u64,
    /// Extribs created (== finished index's extrib count).
    pub extribs_created: u64,
    /// Disk-layout extribs that spilled to the side table (subset of
    /// `extribs_created`).
    pub extrib_spills: u64,
    /// Links set (exactly one per insertion).
    pub links_set: u64,
    /// Links with LEL > 0 (the root-link default is LEL 0).
    pub links_with_positive_lel: u64,
    /// Largest LEL ever assigned.
    pub max_lel: u32,
    /// Chain nodes / extrib elements visited without terminating.
    pub chain_steps: u64,
    /// Wall nanoseconds per [`BuildPhase`], indexed by [`BuildPhase::index`].
    pub phase_nanos: [u64; BuildPhase::COUNT],
    /// Final heap accounting, filled by the engine after the build.
    pub mem: MemBreakdown,
}

impl BuildStats {
    /// Sum of the six terminal-disposition counters; equals `insertions`.
    pub fn dispositions(&self) -> u64 {
        self.first_char
            + self.case1
            + self.case2
            + self.case3_root
            + self.case4_link
            + self.case4_extrib
    }

    /// Build throughput from the Scan phase timing, if it was recorded.
    pub fn nodes_per_sec(&self) -> Option<f64> {
        let nanos = self.phase_nanos[BuildPhase::Scan.index()];
        if nanos == 0 {
            None
        } else {
            Some(self.insertions as f64 * 1e9 / nanos as f64)
        }
    }

    /// All representation-independent event counters, for cross-engine
    /// equality checks that must ignore wall timings, memory layout, and
    /// disk-only spill counts.
    pub fn counts(&self) -> [u64; 13] {
        [
            self.insertions,
            self.first_char,
            self.case1,
            self.case2,
            self.case3_root,
            self.case4_link,
            self.case4_extrib,
            self.ribs_created,
            self.extribs_created,
            self.links_set,
            self.links_with_positive_lel,
            self.max_lel as u64,
            self.chain_steps,
        ]
    }

    /// One-line human summary (used by the bench CLI's progress transcript).
    pub fn summary(&self) -> String {
        format!(
            "{} insertions (case1 {} case2 {} case3root {} case4link {} case4extrib {}), \
             {} ribs, {} extribs ({} spilled), max LEL {}, {} chain steps, {:.0} bytes total",
            self.insertions,
            self.case1,
            self.case2,
            self.case3_root,
            self.case4_link,
            self.case4_extrib,
            self.ribs_created,
            self.extribs_created,
            self.extrib_spills,
            self.max_lel,
            self.chain_steps,
            self.mem.total() as f64,
        )
    }
}

impl Observer<BuildEvent> for BuildStats {
    // `Phase` makes a `BuildEvent` 16 bytes, which is passed by reference:
    // left to the inliner this stays one call per event, and observed
    // builds measured ~5 % slower.
    #[inline(always)]
    fn event(&mut self, e: BuildEvent) {
        match e {
            BuildEvent::FirstChar => {
                self.first_char += 1;
                self.insertions += 1;
            }
            BuildEvent::Case1 => {
                self.case1 += 1;
                self.insertions += 1;
            }
            BuildEvent::Case2 => {
                self.case2 += 1;
                self.insertions += 1;
            }
            BuildEvent::Case3Root => {
                self.case3_root += 1;
                self.insertions += 1;
            }
            BuildEvent::Case4Link => {
                self.case4_link += 1;
                self.insertions += 1;
            }
            BuildEvent::Case4Extrib => {
                self.case4_extrib += 1;
                self.insertions += 1;
            }
            BuildEvent::RibCreated { .. } => self.ribs_created += 1,
            BuildEvent::ExtribCreated { .. } => self.extribs_created += 1,
            BuildEvent::ExtribSpill => self.extrib_spills += 1,
            BuildEvent::LinkSet { lel, .. } => {
                self.links_set += 1;
                if lel > 0 {
                    self.links_with_positive_lel += 1;
                }
                self.max_lel = self.max_lel.max(lel);
            }
            BuildEvent::ChainStep => self.chain_steps += 1,
            BuildEvent::Phase { phase, nanos } => self.phase_nanos[phase.index()] += nanos,
        }
    }
}

/// A progress report handed to [`BuildProgress`] callbacks.
#[derive(Debug, Clone, Copy)]
pub struct ProgressReport {
    /// Characters inserted so far.
    pub nodes: u64,
    /// Throughput since the observer was created.
    pub nodes_per_sec: f64,
    /// Estimated seconds remaining, when a total was hinted.
    pub eta_secs: Option<f64>,
}

/// Observer that invokes a callback every `every` insertions with running
/// throughput and (if the total length is known up front) an ETA. Tee it
/// with [`BuildStats`] to get both a transcript and a summary.
pub struct BuildProgress<F: FnMut(ProgressReport)> {
    total_hint: Option<u64>,
    every: u64,
    seen: u64,
    started: Instant,
    callback: F,
}

impl<F: FnMut(ProgressReport)> BuildProgress<F> {
    /// `total_hint` enables ETA; `every` is the callback cadence in
    /// insertions (clamped to ≥ 1).
    pub fn new(total_hint: Option<u64>, every: u64, callback: F) -> Self {
        BuildProgress {
            total_hint,
            every: every.max(1),
            seen: 0,
            started: Instant::now(),
            callback,
        }
    }

    fn report(&mut self) {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = self.seen as f64 / elapsed;
        let eta = self.total_hint.map(|total| {
            let left = total.saturating_sub(self.seen) as f64;
            if rate > 0.0 {
                left / rate
            } else {
                f64::INFINITY
            }
        });
        (self.callback)(ProgressReport { nodes: self.seen, nodes_per_sec: rate, eta_secs: eta });
    }
}

impl<F: FnMut(ProgressReport)> Observer<BuildEvent> for BuildProgress<F> {
    #[inline]
    fn event(&mut self, e: BuildEvent) {
        // LinkSet fires exactly once per insertion — the progress heartbeat.
        if let BuildEvent::LinkSet { .. } = e {
            self.seen += 1;
            if self.seen.is_multiple_of(self.every) {
                self.report();
            }
        }
    }
}

/// Coarse phases of a segment-store seal or merge, for wall-time
/// accounting. The same vocabulary serves both operations (a seal simply
/// never spends time in [`MergePhase::Collect`] reading old segments), so
/// the lifecycle journal carries one fixed-width timing record per event;
/// `segments.merge_duration` samples a merge's total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePhase {
    /// Reading the live documents out of the input segments (merge only).
    Collect,
    /// Building the replacement segment's page file.
    Build,
    /// The atomic manifest commit (tmp write, fsyncs, rename).
    Commit,
    /// Deleting superseded input files after the commit (merge only).
    Cleanup,
}

impl MergePhase {
    /// Number of phases (array dimension for accumulators and the journal's
    /// fixed-width timing record).
    pub const COUNT: usize = 4;

    /// Dense index for accumulator arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MergePhase::Collect => 0,
            MergePhase::Build => 1,
            MergePhase::Commit => 2,
            MergePhase::Cleanup => 3,
        }
    }

    /// Stable lowercase name for exports.
    pub fn name(self) -> &'static str {
        match self {
            MergePhase::Collect => "collect",
            MergePhase::Build => "build",
            MergePhase::Commit => "commit",
            MergePhase::Cleanup => "cleanup",
        }
    }

    /// All phases in index order.
    pub fn all() -> [MergePhase; Self::COUNT] {
        [MergePhase::Collect, MergePhase::Build, MergePhase::Commit, MergePhase::Cleanup]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_observer_idiom_serves_trace_and_build_events() {
        use crate::trace::{RecordingSink, TraceEvent};
        // `Off` is zero-sized and disabled for every event stream.
        assert_eq!(std::mem::size_of::<Off>(), 0);
        assert_eq!(
            [
                <Off as Observer<BuildEvent>>::ENABLED,
                <Off as Observer<TraceEvent>>::ENABLED,
                <BuildStats as Observer<BuildEvent>>::ENABLED,
                <RecordingSink as Observer<TraceEvent>>::ENABLED,
            ],
            [false, false, true, true]
        );
        // `Tee::ENABLED` is the OR of its halves; `&mut O` forwards the flag.
        assert_eq!(
            [
                <Tee<BuildStats, Off> as Observer<BuildEvent>>::ENABLED,
                <Tee<Off, &mut BuildStats> as Observer<BuildEvent>>::ENABLED,
                <Tee<Off, Off> as Observer<BuildEvent>>::ENABLED,
                <Tee<Off, RecordingSink> as Observer<TraceEvent>>::ENABLED,
                <Tee<&mut Off, Off> as Observer<TraceEvent>>::ENABLED,
            ],
            [true, true, false, true, false]
        );
        // A tee of `&mut` observers feeds both halves through the forwards.
        let (mut a, mut b) = (BuildStats::default(), BuildStats::default());
        let mut t = Tee(&mut a, &mut b);
        t.event(BuildEvent::Case1);
        t.event(BuildEvent::Phase { phase: BuildPhase::Scan, nanos: 7 });
        for side in [&a, &b] {
            assert_eq!((side.case1, side.phase_nanos[BuildPhase::Scan.index()]), (1, 7));
        }
        let mut sink = RecordingSink::new(8);
        let e = TraceEvent::PageFetches { hits: 1, misses: 2 };
        Tee(&mut sink, Off).event(e);
        Tee(Off, &mut sink).event(e);
        assert_eq!(sink.into_parts(), (vec![e, e], 0));
        // The merge phase vocabulary is dense and stably named.
        for (i, p) in MergePhase::all().into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(MergePhase::Cleanup.name(), "cleanup");
    }

    #[test]
    fn stats_accumulate_dispositions_and_links() {
        let mut s = BuildStats::default();
        s.event(BuildEvent::FirstChar);
        s.event(BuildEvent::LinkSet { dest: 0, lel: 0 });
        s.event(BuildEvent::Case1);
        s.event(BuildEvent::LinkSet { dest: 1, lel: 1 });
        s.event(BuildEvent::RibCreated { pt: 0 });
        s.event(BuildEvent::Case3Root);
        s.event(BuildEvent::LinkSet { dest: 0, lel: 0 });
        s.event(BuildEvent::ChainStep);
        s.event(BuildEvent::ExtribCreated { prt: 1, pt: 3 });
        s.event(BuildEvent::Case4Extrib);
        s.event(BuildEvent::LinkSet { dest: 5, lel: 4 });
        assert_eq!(s.insertions, 4);
        assert_eq!(s.dispositions(), 4);
        assert_eq!(s.links_set, 4);
        assert_eq!(s.links_with_positive_lel, 2);
        assert_eq!(s.max_lel, 4);
        assert_eq!(s.ribs_created, 1);
        assert_eq!(s.extribs_created, 1);
        assert_eq!(s.chain_steps, 1);
    }

    #[test]
    fn phase_nanos_accumulate_per_phase() {
        let mut s = BuildStats::default();
        for (phase, nanos) in
            [(BuildPhase::Scan, 100), (BuildPhase::Scan, 50), (BuildPhase::RibFixup, 7)]
        {
            s.event(BuildEvent::Phase { phase, nanos });
        }
        assert_eq!(s.phase_nanos[BuildPhase::Scan.index()], 150);
        assert_eq!(s.phase_nanos[BuildPhase::RibFixup.index()], 7);
        assert_eq!(s.phase_nanos[BuildPhase::PageFlush.index()], 0);
        assert_eq!(s.counts(), BuildStats::default().counts(), "timings are not structural");
        let nps = s.nodes_per_sec().unwrap();
        assert!(nps >= 0.0);
    }

    #[test]
    fn progress_fires_on_cadence_with_eta() {
        let mut reports = Vec::new();
        {
            let mut p = BuildProgress::new(Some(10), 3, |r| reports.push(r));
            for i in 0..10u32 {
                p.event(BuildEvent::LinkSet { dest: i, lel: 0 });
            }
        }
        assert_eq!(reports.len(), 3); // after 3, 6, 9 insertions
        assert_eq!(reports[2].nodes, 9);
        assert!(reports[2].eta_secs.unwrap() >= 0.0);
    }

    #[test]
    fn mem_breakdown_totals() {
        let m = MemBreakdown { vertebrae: 10, links: 80, ribs: 36, extribs: 24 };
        assert_eq!(m.total(), 150);
        assert!((m.bytes_per_node(10) - 15.0).abs() < 1e-9);
        assert_eq!(MemBreakdown::default().bytes_per_node(0), 0.0);
    }
}
