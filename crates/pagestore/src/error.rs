use std::fmt;

use crate::page::PageId;

/// Errors produced by the page store layer.
#[derive(Debug)]
pub enum Error {
    /// A page id that was never allocated (or has been freed) was accessed.
    PageNotFound(PageId),
    /// A page id outside the valid range was used.
    InvalidPageId(PageId),
    /// Page contents failed structural validation.
    Corrupt(String),
    /// A page failed its checksum-trailer verification: the stored field
    /// named by `what` (`"crc"`, `"page-id"`, `"epoch"` or `"format"`)
    /// did not carry the expected value. Raised by
    /// [`crate::ChecksumStore`] with full provenance so callers can
    /// quarantine exactly the damaged page.
    Corruption {
        /// The page that failed verification.
        page: PageId,
        /// Which trailer field mismatched.
        what: &'static str,
        /// The value the field should have carried.
        expected: u64,
        /// The value actually found on the page.
        actual: u64,
    },
    /// An I/O error from a file-backed store.
    Io(std::io::Error),
    /// A write did not match the store's page size.
    BadPageSize { expected: usize, got: usize },
    /// An entry (key plus value) larger than one node can hold: refused
    /// before the tree changes. A caller mistake, not damage.
    EntryTooLarge { len: usize, max: usize },
    /// A page size below [`crate::PAGE_SIZE_MIN`] asked of a constructor:
    /// refused before any store is built. A caller mistake, not damage.
    PageSizeTooSmall { size: usize, min: usize },
}

impl Error {
    /// Whether this error reports damaged page *content* (structural or
    /// checksum corruption), as opposed to a transient I/O failure or a
    /// caller mistake. Layers above use this to decide between retrying
    /// and quarantining.
    pub fn is_corruption(&self) -> bool {
        matches!(self, Error::Corrupt(_) | Error::Corruption { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PageNotFound(id) => write!(f, "page {id} not found"),
            Error::InvalidPageId(id) => write!(f, "invalid page id {id}"),
            Error::Corrupt(msg) => write!(f, "corrupt page: {msg}"),
            Error::Corruption {
                page,
                what,
                expected,
                actual,
            } => write!(
                f,
                "page {page} corrupt: {what} mismatch (expected {expected:#010x}, \
                 found {actual:#010x})"
            ),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::BadPageSize { expected, got } => {
                write!(f, "bad page size: expected {expected}, got {got}")
            }
            Error::EntryTooLarge { len, max } => {
                write!(f, "entry of {len} bytes exceeds max entry size {max}")
            }
            Error::PageSizeTooSmall { size, min } => {
                write!(f, "page size {size} below minimum {min}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Result alias for page store operations.
pub type Result<T> = std::result::Result<T, Error>;
