//! # SPINE: a horizontally-compacted trie index for strings
//!
//! Reproduction of *"SPINE: Putting Backbone into String Indexing"*
//! (Neelapala, Mittal, Haritsa — ICDE 2004).
//!
//! A suffix **trie** holds every suffix of a text on its own root-to-leaf
//! path. Suffix *trees* compact the trie **vertically** (unary nodes merge
//! into their parents). SPINE compacts it **horizontally**: identical
//! character patterns across different paths are merged, all the way down to
//! the logical extreme — a single linear chain of nodes (the *backbone*),
//! one node per text character.
//!
//! A path from the root spelling `w` exists iff `w` is a substring of the
//! text, and it ends at the node whose id equals the end position of the
//! *first occurrence* of `w` (this crate's tests machine-check that
//! invariant against a naive trie). Because path merging alone would admit
//! strings that never occur (false positives), every rib/extrib edge carries
//! a numeric *pathlength threshold* (PT) deciding when it may be traversed.
//!
//! ## Structure
//!
//! * **Backbone / vertebras** — node `i` represents the length-`i` prefix;
//!   the vertebra `i → i+1` is labeled with character `i+1`. The text is
//!   recoverable from the index ([`Spine::recover_text`]), so the original
//!   string need not be kept — a property suffix trees lack.
//! * **Links** (upstream) — node `i`'s link points to the first-occurrence
//!   end of the longest suffix of prefix `i` that occurred earlier; its
//!   label **LEL** is that suffix's length. Links drive construction and let
//!   searches process whole *sets* of suffixes per step.
//! * **Ribs** (downstream) — record first-time extensions of
//!   early-terminating suffixes; labeled with a character and a **PT**.
//! * **Extribs** — extend a rib whose PT is too small; chained, labeled
//!   **PT** plus **PRT** (the parent rib's PT, identifying the chain).
//!
//! ## Quick start
//!
//! ```
//! use spine::Spine;
//! use strindex::{Alphabet, StringIndex};
//!
//! let alphabet = Alphabet::dna();
//! let text = alphabet.encode(b"AACCACAACA").unwrap();
//! let index = Spine::build(alphabet.clone(), &text).unwrap();
//!
//! let pattern = alphabet.encode(b"CA").unwrap();
//! assert_eq!(index.find_all(&pattern), vec![3, 5, 8]);
//! // The paper's false-positive example: ACCAA is *not* a substring, even
//! // though an unlabeled path for it would exist after merging.
//! assert!(!index.contains(&alphabet.encode(b"ACCAA").unwrap()));
//! ```
//!
//! Modules: [`build`] (online construction), [`search`] (valid-path
//! traversal), [`engine`] (concurrent batched query serving),
//! [`occurrences`] (all-occurrence enumeration: link-tree walk or backbone
//! scan), [`preorder`] (the sealed link tree's preorder index),
//! [`matching`] (matching statistics & maximal matches), [`compact`] (the
//! §5 Link-Table/Rib-Table layout, < 12 bytes per character), [`disk`]
//! (the page-resident surface and the paper's fixed records), [`sealed`]
//! (the read-only sealed page file), [`generalized`] (multi-string indexes),
//! [`segments`] (crash-safe LSM of immutable sealed segments with atomic
//! manifest commit), [`prefix`] (prefix partitioning), [`stats`] (the
//! paper's measurement hooks), [`observe`] (the one zero-cost observer
//! trait, build events and statistics), [`trace`] (per-query EXPLAIN
//! tracing and heatmaps), [`verify`] (invariant checker).

pub mod approx;
pub mod build;
pub mod compact;
pub mod disk;
pub mod engine;
pub mod generalized;
pub mod journal;
pub mod manifest;
pub mod matching;
pub mod node;
pub mod observe;
pub mod occurrences;
pub mod ops;
pub mod prefix;
pub mod preorder;
pub mod repeats;
pub mod sealed;
pub mod search;
pub mod segments;
pub mod stats;
pub mod trace;
pub mod verify;

pub use approx::ApproxMatch;
pub use build::Spine;
pub use compact::CompactSpine;
pub use disk::DiskSpine;
pub use engine::{
    CompletionHook, EngineConfig, MetricsSnapshot, PanicHook, QueryEngine, QueryOutcome,
    QueryResult, ServeIndex, ShedPolicy, SubmitError,
};
pub use generalized::{DocMatch, GeneralizedSpine, ShardedSpine};
pub use journal::{JournalEvent, JournalKind, JOURNAL_FILE, JOURNAL_VERSION};
pub use manifest::{Manifest, SegmentEntry, MANIFEST_VERSION};
pub use node::{Extrib, Node, NodeId, Rib, ROOT};
pub use observe::{
    BuildEvent, BuildPhase, BuildProgress, BuildStats, MemBreakdown, MergePhase, Observer, Off,
    ProgressReport, Tee,
};
pub use ops::{FallibleSpineOps, LinkTree};
pub use pagestore::IoGate;
pub use prefix::PrefixView;
pub use preorder::PreorderIndex;
pub use sealed::{SealedCensus, SealedSpine, DISK_FORMAT_VERSION};
pub use search::{locate, try_locate, try_step};
pub use segments::{spawn_merger, MergeHandle, SegmentConfig, SegmentedSpine, SegmentsSnapshot};
pub use strindex::telemetry;
pub use trace::{explain, Heatmap, QueryTrace, RecordingSink, TraceEvent, DEFAULT_TRACE_CAPACITY};
