use std::fmt;

/// Errors from index definition, maintenance, and querying.
#[derive(Debug)]
pub enum Error {
    /// Underlying page/B-tree failure.
    Page(pagestore::Error),
    /// Underlying object-store failure.
    Store(objstore::Error),
    /// Schema/encoding failure.
    Schema(schema::Error),
    /// An index definition that cannot be supported (reasons in message).
    BadSpec(String),
    /// Query referenced an index id that does not exist.
    UnknownIndex(u16),
    /// Query shape does not fit the index (e.g. constraint on a position
    /// the index does not have).
    BadQuery(String),
    /// Key bytes that failed to decode (index corruption).
    BadKey(String),
    /// The directory holds no database: it has no `pages.db`.
    NotADatabase(std::path::PathBuf),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Page(e) => write!(f, "page store: {e}"),
            Error::Store(e) => write!(f, "object store: {e}"),
            Error::Schema(e) => write!(f, "schema: {e}"),
            Error::BadSpec(m) => write!(f, "bad index spec: {m}"),
            Error::UnknownIndex(i) => write!(f, "unknown index id {i}"),
            Error::BadQuery(m) => write!(f, "bad query: {m}"),
            Error::BadKey(m) => write!(f, "bad key: {m}"),
            Error::NotADatabase(dir) => write!(
                f,
                "{} is not a database directory: no {} in it",
                dir.display(),
                pagestore::disk::PAGES_FILE
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Page(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pagestore::Error> for Error {
    fn from(e: pagestore::Error) -> Self {
        Error::Page(e)
    }
}

impl From<objstore::Error> for Error {
    fn from(e: objstore::Error) -> Self {
        Error::Store(e)
    }
}

impl From<schema::Error> for Error {
    fn from(e: schema::Error) -> Self {
        Error::Schema(e)
    }
}

/// Result alias for U-index operations.
pub type Result<T> = std::result::Result<T, Error>;
