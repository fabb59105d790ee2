//! OODB schema model and the U-index class-code encoding.
//!
//! The paper's central device (§3) is a relation `COD` mapping class names to
//! codes such that:
//!
//! 1. the lexicographic order of the codes is a topological sort of the
//!    schema graph — in particular, for every REF (reference) relationship
//!    the *target* class (the "one" side) sorts before the *source*; and
//! 2. a class hierarchy is a *prefix-closed* code region: every descendant's
//!    code extends its ancestor's, so a pre-order walk of any sub-tree is a
//!    contiguous lexicographic range.
//!
//! This crate provides:
//!
//! * [`Schema`] — classes, attributes, SUP (is-a) and REF (reference) edges,
//!   with validation;
//! * [`ClassCode`] — a code as a sequence of components, each terminated by
//!   a byte below the component alphabet, giving the prefix property and
//!   sibling-region disjointness;
//! * [`Encoding`] — code assignment for a whole schema, plus *schema
//!   evolution* (the paper's Fig. 4): new classes and new hierarchies can be
//!   inserted between existing codes without renaming anything, via
//!   fractional indexing ([`frac`]);
//! * [`cycles`] — REF-cycle detection and the paper's §4.3 cycle-breaking
//!   (partitioning the REF edges into acyclic groups, each encodable
//!   separately).
//!
//! # Example
//!
//! ```
//! use schema::{Schema, Encoding, AttrType};
//!
//! let mut s = Schema::new();
//! let employee = s.add_class("Employee").unwrap();
//! s.add_attr(employee, "Age", AttrType::Int).unwrap();
//! let company = s.add_class("Company").unwrap();
//! s.add_attr(company, "President", AttrType::Ref(employee)).unwrap();
//! let vehicle = s.add_class("Vehicle").unwrap();
//! s.add_attr(vehicle, "ManufacturedBy", AttrType::Ref(company)).unwrap();
//! let auto = s.add_subclass("Automobile", vehicle).unwrap();
//!
//! let enc = Encoding::generate(&s).unwrap();
//! // REF targets sort before sources: Employee < Company < Vehicle.
//! assert!(enc.code(employee).unwrap().as_bytes() < enc.code(company).unwrap().as_bytes());
//! assert!(enc.code(company).unwrap().as_bytes() < enc.code(vehicle).unwrap().as_bytes());
//! // Sub-classes extend their parent's code.
//! assert!(enc.code(auto).unwrap().has_prefix(enc.code(vehicle).unwrap()));
//! ```

mod code;
pub mod cycles;
mod encode;
mod error;
pub mod frac;
mod model;
mod stamp;

pub use code::ClassCode;
pub use encode::Encoding;
pub use error::{Error, Result};
pub use model::{check_name, AttrId, AttrType, ClassId, RefEdge, Schema, MEMBERS_MAX, NAME_MAX};
pub use stamp::Stamp;
