//! Object store: OIDs, typed attribute values, class extents.
//!
//! The substrate the indexes index. Objects are instances of schema classes
//! holding typed attribute values; single-valued reference attributes are
//! the paper's m:1 REF relationships ("a vehicle is manufactured-by one
//! company"), multi-valued references cover the §4.3 discussion. The store
//! maintains:
//!
//! * per-class **extents** (direct and deep, i.e. including sub-classes);
//! * a **reverse-reference index** (`referrers`) — needed by path-index
//!   maintenance when an object in the middle of a path changes (the
//!   paper's "a President switches companies" example);
//! * referential-integrity checks on attribute assignment and deletion.
//!
//! [`Value::encode_ordered`] provides the order-preserving byte encoding
//! index keys embed: integers sort numerically, strings lexicographically,
//! floats in IEEE total order — and the encodings are self-delimiting so a
//! composite index key can be decoded unambiguously.

mod object;
mod oid;
mod persist;
mod value;

pub use object::{Object, ObjectStore};
pub use oid::Oid;
pub use persist::RecordLoader;
pub use value::{Value, ValueKind};

use std::fmt;

use schema::ClassId;

/// Errors from object-store operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// OID does not exist (or was deleted).
    UnknownOid(Oid),
    /// Attribute does not exist on the object's class.
    UnknownAttr(String),
    /// Value type does not match the attribute's declared type.
    TypeMismatch {
        /// The attribute that was assigned.
        attr: String,
        /// What the schema declares.
        expected: String,
        /// What was provided.
        got: String,
    },
    /// A reference points at a missing object or one of the wrong class.
    BadReference(Oid),
    /// Deleting an object still referenced by others.
    StillReferenced(Oid),
    /// Class id not part of the schema.
    UnknownClass(ClassId),
    /// A stored object record that does not decode, and what is wrong
    /// with it.
    Corrupt(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownOid(o) => write!(f, "unknown oid {o}"),
            Error::UnknownAttr(a) => write!(f, "unknown attribute {a:?}"),
            Error::TypeMismatch {
                attr,
                expected,
                got,
            } => write!(f, "attribute {attr:?} expects {expected}, got {got}"),
            Error::BadReference(o) => write!(f, "bad reference to {o}"),
            Error::StillReferenced(o) => write!(f, "object {o} is still referenced"),
            Error::UnknownClass(c) => write!(f, "unknown class {c:?}"),
            Error::Corrupt(what) => write!(f, "damaged object record: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for object-store operations.
pub type Result<T> = std::result::Result<T, Error>;
