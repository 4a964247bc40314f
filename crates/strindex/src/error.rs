//! Workspace-wide error type, with a transient/permanent I/O taxonomy.
//!
//! Storage failures carry an [`IoContext`] (which operation, which page) so
//! a fault injected deep inside a buffer pool is diagnosable from the error
//! message alone, and they classify as *transient* (worth retrying: an
//! interrupted syscall, a timeout) or *permanent* (retrying cannot help: a
//! missing file, corrupt metadata). The retry layer in `pagestore` keys off
//! [`Error::is_transient`].

/// The I/O operation a storage error occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A page read.
    Read,
    /// A page write.
    Write,
    /// A dirty-page flush (write-back of cached state).
    Flush,
    /// An explicit durability sync (fsync).
    Sync,
    /// Sidecar metadata I/O (open, serialize, reopen).
    Meta,
}

impl std::fmt::Display for IoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Flush => "flush",
            IoOp::Sync => "sync",
            IoOp::Meta => "meta",
        })
    }
}

/// Where an I/O failure happened: the operation and (when page-granular)
/// the page id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoContext {
    /// The failing operation.
    pub op: IoOp,
    /// The page being operated on, if the failure is page-granular.
    pub page: Option<u32>,
}

impl std::fmt::Display for IoContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.page {
            Some(p) => write!(f, "{} of page {p}", self.op),
            None => write!(f, "{}", self.op),
        }
    }
}

/// Errors shared by the index engines and substrates.
#[derive(Debug)]
pub enum Error {
    /// A byte in the input is not part of the index's alphabet.
    InvalidSymbol {
        /// The offending byte.
        byte: u8,
        /// Its position in the input.
        pos: usize,
    },
    /// The input is longer than the engine's node-id space (u32).
    TooLong {
        /// Requested length.
        len: usize,
        /// Maximum supported length.
        max: usize,
    },
    /// The operation needs a finished (terminated) index.
    NotFinished,
    /// The two sides of an operation use different alphabets.
    AlphabetMismatch,
    /// A malformed input file (e.g. FASTA).
    Parse(String),
    /// A persisted index uses an on-disk format version this build does not
    /// read. The data is intact but must be rebuilt (re-indexed) into the
    /// current format — distinct from [`Error::Parse`], which means the
    /// bytes themselves are garbage.
    FormatVersion {
        /// Version stamped in the file.
        found: u16,
        /// Version this engine reads and writes.
        expected: u16,
    },
    /// The operation is not supported in the engine's current state (e.g.
    /// creating a segment store over an existing one).
    Unsupported(&'static str),
    /// A document id that names no document in the collection — never
    /// assigned, or assigned by a different collection. Distinct from
    /// retiring an *already retired* document, which is an idempotent no-op.
    UnknownDocument {
        /// The offending document id.
        doc: u64,
    },
    /// An underlying I/O failure, with operation context when known.
    Io {
        /// The operating-system (or injected) failure.
        source: std::io::Error,
        /// The operation and page it occurred in, when known.
        ctx: Option<IoContext>,
    },
}

impl Error {
    /// An I/O error with full operation context attached up front.
    pub fn io(source: std::io::Error, op: IoOp, page: Option<u32>) -> Self {
        Error::Io { source, ctx: Some(IoContext { op, page }) }
    }

    /// A *transient* injected/synthetic I/O error (`ErrorKind::Interrupted`),
    /// i.e. one the retry layer will re-attempt.
    pub fn transient_io(msg: impl Into<String>) -> Self {
        Error::Io {
            source: std::io::Error::new(std::io::ErrorKind::Interrupted, msg.into()),
            ctx: None,
        }
    }

    /// Attach `op`/`page` context to an I/O error that lacks it. Errors that
    /// already carry context, and non-I/O errors, pass through unchanged —
    /// so the innermost (most precise) annotation wins.
    pub fn with_io_context(self, op: IoOp, page: u32) -> Self {
        match self {
            Error::Io { source, ctx: None } => {
                Error::Io { source, ctx: Some(IoContext { op, page: Some(page) }) }
            }
            other => other,
        }
    }

    /// The taxonomy split: is retrying this error worthwhile?
    ///
    /// Transient failures are the I/O kinds that name a momentary condition
    /// — an interrupted syscall, a timeout, a would-block. Everything else
    /// (including every non-I/O error) is permanent: retrying replays the
    /// same failure.
    pub fn is_transient(&self) -> bool {
        match self {
            Error::Io { source, .. } => matches!(
                source.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }

    /// The I/O context, if this is an I/O error that carries one.
    pub fn io_context(&self) -> Option<IoContext> {
        match self {
            Error::Io { ctx, .. } => *ctx,
            _ => None,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidSymbol { byte, pos } => {
                write!(f, "byte {byte:#04x} at position {pos} is not in the alphabet")
            }
            Error::TooLong { len, max } => {
                write!(f, "input of length {len} exceeds the maximum supported length {max}")
            }
            Error::NotFinished => write!(f, "index is not finished; call finish() first"),
            Error::AlphabetMismatch => write!(f, "operands use different alphabets"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::FormatVersion { found, expected } => write!(
                f,
                "on-disk format version {found} is not readable by this build \
                 (expects version {expected}); rebuild required"
            ),
            Error::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            Error::UnknownDocument { doc } => {
                write!(f, "document id {doc} names no document in this collection")
            }
            Error::Io { source, ctx: Some(ctx) } => {
                let class = if self.is_transient() { "transient" } else { "permanent" };
                write!(f, "{class} I/O error during {ctx}: {source}")
            }
            Error::Io { source, ctx: None } => {
                let class = if self.is_transient() { "transient" } else { "permanent" };
                write!(f, "{class} I/O error: {source}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io { source: e, ctx: None }
    }
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::InvalidSymbol { byte: b'N', pos: 7 };
        assert!(e.to_string().contains("position 7"));
        let e = Error::TooLong { len: 10, max: 5 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn format_version_says_rebuild_required() {
        let e = Error::FormatVersion { found: 1, expected: 2 };
        let msg = e.to_string();
        assert!(msg.contains("version 1"), "{msg}");
        assert!(msg.contains("version 2"), "{msg}");
        assert!(msg.contains("rebuild required"), "{msg}");
    }

    #[test]
    fn unknown_document_names_the_id() {
        let e = Error::UnknownDocument { doc: 17 };
        assert!(e.to_string().contains("17"), "{e}");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io { .. }));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn io_context_appears_in_message() {
        let e = Error::io(std::io::Error::other("disk gone"), IoOp::Write, Some(42));
        let msg = e.to_string();
        assert!(msg.contains("write of page 42"), "{msg}");
        assert!(msg.contains("permanent"), "{msg}");
        assert!(msg.contains("disk gone"), "{msg}");
    }

    #[test]
    fn with_io_context_fills_only_missing() {
        let e: Error = std::io::Error::other("x").into();
        let e = e.with_io_context(IoOp::Read, 3);
        assert_eq!(e.io_context(), Some(IoContext { op: IoOp::Read, page: Some(3) }));
        // Innermost annotation wins: re-annotating does not overwrite.
        let e = e.with_io_context(IoOp::Flush, 9);
        assert_eq!(e.io_context().unwrap().op, IoOp::Read);
        // Non-I/O errors pass through untouched.
        assert!(Error::NotFinished.with_io_context(IoOp::Read, 0).io_context().is_none());
    }

    #[test]
    fn taxonomy_splits_transient_from_permanent() {
        assert!(Error::transient_io("flaky").is_transient());
        let timeout: Error = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow disk").into();
        assert!(timeout.is_transient());
        let hard: Error = std::io::Error::other("injected device fault").into();
        assert!(!hard.is_transient());
        assert!(!Error::NotFinished.is_transient());
        assert!(!Error::Parse("junk".into()).is_transient());
        assert!(!Error::FormatVersion { found: 1, expected: 2 }.is_transient());
        assert!(!Error::Unsupported("x").is_transient());
        assert!(!Error::UnknownDocument { doc: 9 }.is_transient());
        // Transience survives context attachment.
        assert!(Error::transient_io("flaky").with_io_context(IoOp::Write, 1).is_transient());
    }
}
