use std::fmt;

use crate::model::{ClassId, RefEdge};

/// Errors from schema construction and encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A class name was declared twice.
    DuplicateClass(String),
    /// An attribute name was declared twice on the same class.
    DuplicateAttr(String),
    /// A class id that does not belong to this schema.
    UnknownClass(ClassId),
    /// Adding this SUP edge would make the is-a graph cyclic.
    HierarchyCycle(ClassId),
    /// The contracted REF graph is cyclic, so no single encoding exists;
    /// the offending edges are reported so they can be split into separate
    /// encodings (paper §4.3).
    RefCycle(Vec<RefEdge>),
    /// Evolution: the class already has a code.
    AlreadyEncoded(ClassId),
    /// Evolution: the class's parent has no code yet.
    ParentNotEncoded(ClassId),
    /// Evolution: REF constraints leave no room for the new root
    /// (equivalent to introducing a cycle).
    NoRoomForRoot(ClassId),
    /// A class, attribute or index name longer than
    /// [`crate::NAME_MAX`] bytes (its length is given).
    NameTooLong(usize),
    /// The class already declares [`crate::MEMBERS_MAX`] attributes.
    TooManyAttrs(ClassId),
    /// The class already has [`crate::MEMBERS_MAX`] parents.
    TooManyParents(ClassId),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateClass(n) => write!(f, "duplicate class name {n:?}"),
            Error::DuplicateAttr(n) => write!(f, "duplicate attribute name {n:?}"),
            Error::UnknownClass(c) => write!(f, "unknown class id {c:?}"),
            Error::HierarchyCycle(c) => {
                write!(f, "is-a cycle introduced at class {c:?}")
            }
            Error::RefCycle(edges) => {
                write!(f, "REF cycle over {} edges; split encodings", edges.len())
            }
            Error::AlreadyEncoded(c) => write!(f, "class {c:?} already encoded"),
            Error::ParentNotEncoded(c) => {
                write!(f, "parent of class {c:?} not encoded yet")
            }
            Error::NoRoomForRoot(c) => {
                write!(f, "REF constraints leave no code slot for root {c:?}")
            }
            Error::NameTooLong(len) => {
                write!(f, "a name of {len} bytes exceeds {} bytes", crate::NAME_MAX)
            }
            Error::TooManyAttrs(c) => {
                write!(
                    f,
                    "class {c:?} already declares {} attributes",
                    crate::MEMBERS_MAX
                )
            }
            Error::TooManyParents(c) => {
                write!(f, "class {c:?} already has {} parents", crate::MEMBERS_MAX)
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for schema operations.
pub type Result<T> = std::result::Result<T, Error>;
