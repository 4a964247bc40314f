//! Build-phase observability: a zero-cost observer for the APPEND procedure.
//!
//! Mirrors the [`crate::trace::TraceSink`] pattern from the query path: a
//! trait with a `const ENABLED` flag, so the disabled observer monomorphizes
//! to exactly the pre-instrumentation construction code (the optimizer
//! deletes every `if O::ENABLED` block). The enabled observers receive one
//! [`BuildEvent`] per structural action — which of the paper's CASE 1–4 an
//! insertion took, every rib/extrib/link created — plus coarse phase timings
//! ([`BuildPhase`]), and can be composed with [`Tee`].
//!
//! [`BuildStats`] is the standard accumulator: its counts reconcile exactly
//! with the structural counts in [`crate::stats`] (ribs created == ribs
//! present, links set == insertions, CASE dispositions sum to insertions),
//! which the property tests in `tests/build_observer.rs` pin down.

use std::time::Instant;

/// Observer of SPINE construction. Implementors with `ENABLED == false`
/// cost nothing: all instrumentation is guarded by `if O::ENABLED`, a
/// compile-time constant.
pub trait BuildObserver {
    /// Whether this observer records anything; `false` lets the optimizer
    /// delete all build-event plumbing.
    const ENABLED: bool = true;

    /// Consume one structural event.
    fn event(&mut self, e: BuildEvent);

    /// Account `nanos` of wall time to phase `p`.
    fn phase(&mut self, p: BuildPhase, nanos: u64);
}

/// The disabled observer: a zero-sized no-op with `ENABLED == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoBuildObserver;

impl BuildObserver for NoBuildObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _e: BuildEvent) {}

    #[inline(always)]
    fn phase(&mut self, _p: BuildPhase, _nanos: u64) {}
}

impl<O: BuildObserver> BuildObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline(always)]
    fn event(&mut self, e: BuildEvent) {
        (**self).event(e);
    }

    #[inline(always)]
    fn phase(&mut self, p: BuildPhase, nanos: u64) {
        (**self).phase(p, nanos);
    }
}

/// One structural action during APPEND.
///
/// The first six variants are *terminal dispositions*: every insertion emits
/// exactly one of them, so their counts sum to the number of characters
/// appended. The remaining variants are per-edge bookkeeping and may fire
/// zero or more times per insertion.
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

/// Heap bytes of the finished index, split by edge kind. Filled in by each
/// engine's `build_with_stats` constructor (the split is
/// representation-specific; see each engine's `mem_breakdown`).
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
    /// index's rib count (`ribs_absorbed` stays 0 and documents that).
    pub ribs_created: u64,
    /// Ribs removed or merged away — structurally impossible in APPEND;
    /// kept so the invariant `created - absorbed == present` is explicit.
    pub ribs_absorbed: u64,
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
    pub fn counts(&self) -> [u64; 14] {
        [
            self.insertions,
            self.first_char,
            self.case1,
            self.case2,
            self.case3_root,
            self.case4_link,
            self.case4_extrib,
            self.ribs_created,
            self.ribs_absorbed,
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

impl BuildObserver for BuildStats {
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
        }
    }

    fn phase(&mut self, p: BuildPhase, nanos: u64) {
        self.phase_nanos[p.index()] += nanos;
    }
}

/// Fan one event stream out to two observers. `ENABLED` is the OR of the
/// parts, so teeing a live observer with [`NoBuildObserver`] still records.
#[derive(Debug, Default, Clone)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: BuildObserver, B: BuildObserver> BuildObserver for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn event(&mut self, e: BuildEvent) {
        if A::ENABLED {
            self.0.event(e);
        }
        if B::ENABLED {
            self.1.event(e);
        }
    }

    #[inline]
    fn phase(&mut self, p: BuildPhase, nanos: u64) {
        if A::ENABLED {
            self.0.phase(p, nanos);
        }
        if B::ENABLED {
            self.1.phase(p, nanos);
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

impl<F: FnMut(ProgressReport)> BuildObserver for BuildProgress<F> {
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

    #[inline]
    fn phase(&mut self, _p: BuildPhase, _nanos: u64) {}
}

// ---------------------------------------------------------------------------
// Segment-lifecycle observability: seal and merge phases.
// ---------------------------------------------------------------------------

/// Coarse phases of a segment-store seal or merge, for wall-time
/// accounting. The same vocabulary serves both operations (a seal simply
/// never spends time in [`MergePhase::Collect`] reading old segments), so
/// the lifecycle journal can carry one fixed-width timing record per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePhase {
    /// Reading the live documents out of the input segments (merge only).
    Collect,
    /// Building the replacement segment's pages and sidecar.
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

/// Observer of segment seal/merge operations — [`BuildObserver`]'s sibling
/// for the LSM lifecycle, with the same monomorphization contract: all
/// instrumentation sits behind `if O::ENABLED`, a compile-time constant, so
/// an `ENABLED == false` observer costs exactly nothing (no `Instant::now`
/// calls, no accumulator writes).
pub trait MergeObserver {
    /// Whether this observer records anything.
    const ENABLED: bool = true;

    /// Account `nanos` of wall time to phase `p`.
    fn phase(&mut self, p: MergePhase, nanos: u64);
}

/// The disabled observer: a zero-sized no-op with `ENABLED == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoMergeObserver;

impl MergeObserver for NoMergeObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn phase(&mut self, _p: MergePhase, _nanos: u64) {}
}

impl<O: MergeObserver> MergeObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline(always)]
    fn phase(&mut self, p: MergePhase, nanos: u64) {
        (**self).phase(p, nanos);
    }
}

/// The standard accumulator: per-phase wall nanoseconds, indexed by
/// [`MergePhase::index`]. This is what the segment store feeds into its
/// lifecycle journal records and the `segments.merge_duration` histogram.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MergeTimes {
    /// Wall nanoseconds per [`MergePhase`].
    pub phase_nanos: [u64; MergePhase::COUNT],
}

impl MergeTimes {
    /// Total wall nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }
}

impl MergeObserver for MergeTimes {
    #[inline]
    fn phase(&mut self, p: MergePhase, nanos: u64) {
        self.phase_nanos[p.index()] += nanos;
    }
}

/// Fan phase timings out to two [`MergeObserver`]s; `ENABLED` is the OR of
/// the parts (mirrors [`Tee`] for [`BuildObserver`]).
#[derive(Debug, Default, Clone)]
pub struct MergeTee<A, B>(pub A, pub B);

impl<A: MergeObserver, B: MergeObserver> MergeObserver for MergeTee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn phase(&mut self, p: MergePhase, nanos: u64) {
        if A::ENABLED {
            self.0.phase(p, nanos);
        }
        if B::ENABLED {
            self.1.phase(p, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoBuildObserver>(), 0);
        assert_eq!([NoBuildObserver::ENABLED, BuildStats::ENABLED], [false, true]);
    }

    #[test]
    fn merge_observer_mirrors_build_observer_contract() {
        assert_eq!(std::mem::size_of::<NoMergeObserver>(), 0);
        assert_eq!([NoMergeObserver::ENABLED, MergeTimes::ENABLED], [false, true]);
        assert_eq!(
            [
                <MergeTee<MergeTimes, NoMergeObserver> as MergeObserver>::ENABLED,
                <MergeTee<NoMergeObserver, NoMergeObserver> as MergeObserver>::ENABLED,
            ],
            [true, false]
        );
        let mut t = MergeTee(MergeTimes::default(), MergeTimes::default());
        t.phase(MergePhase::Build, 40);
        t.phase(MergePhase::Build, 2);
        t.phase(MergePhase::Commit, 8);
        for side in [&t.0, &t.1] {
            assert_eq!(side.phase_nanos[MergePhase::Build.index()], 42);
            assert_eq!(side.phase_nanos[MergePhase::Collect.index()], 0);
            assert_eq!(side.total_nanos(), 50);
        }
        // Phase vocabulary is dense and stably named.
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
        s.phase(BuildPhase::Scan, 100);
        s.phase(BuildPhase::Scan, 50);
        s.phase(BuildPhase::RibFixup, 7);
        assert_eq!(s.phase_nanos[BuildPhase::Scan.index()], 150);
        assert_eq!(s.phase_nanos[BuildPhase::RibFixup.index()], 7);
        assert_eq!(s.phase_nanos[BuildPhase::PageFlush.index()], 0);
        let nps = s.nodes_per_sec().unwrap();
        assert!(nps >= 0.0);
    }

    #[test]
    fn tee_enabled_is_or_of_parts() {
        assert_eq!(
            [
                <Tee<BuildStats, NoBuildObserver> as BuildObserver>::ENABLED,
                <Tee<NoBuildObserver, NoBuildObserver> as BuildObserver>::ENABLED,
            ],
            [true, false]
        );
        let mut t = Tee(BuildStats::default(), BuildStats::default());
        t.event(BuildEvent::Case1);
        assert_eq!(t.0.case1, 1);
        assert_eq!(t.1.case1, 1);
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
