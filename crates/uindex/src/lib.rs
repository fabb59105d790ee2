//! The **U-index**: the paper's uniform indexing scheme for object-oriented
//! databases, on a single front-compressed B+-tree.
//!
//! One [`UIndex`] hosts any number of index definitions ([`IndexSpec`]) in
//! **one** B-tree (§4.1 of the paper): class-hierarchy indexes, path
//! (nested) indexes, combined class-hierarchy/path indexes, and multi-path
//! indexes sharing a prefix (§3.3 "Multiple Paths"). Entry keys are
//!
//! ```text
//! [index id][attr value][0x00][class code][0x00][oid] ( [class code][0x00][oid] )*
//! ```
//!
//! with positions in class-code order, so that:
//!
//! * all entries of a class *and its entire sub-tree* are one contiguous
//!   key range (clustering, §3);
//! * path entries for the same referenced objects cluster (e.g. all
//!   vehicles of one company are adjacent);
//! * front compression in the B-tree removes the repeated prefixes, making
//!   the single-value-entry representation cheap (§3.2).
//!
//! Retrieval offers the naive **forward scan** and the paper's **"parallel"
//! retrieval algorithm** (Algorithm 1): the query is translated into
//! constraints per key field, and on a mismatch the scan *skips* to the
//! next possible key by re-descending from the lowest ancestor the cursor
//! retained whose range still covers it (the leaf itself when the target
//! is on it) — re-using every page already touched in this query, which
//! the buffer pool counts only once.
//!
//! # Example
//!
//! ```
//! use schema::{Schema, AttrType};
//! use objstore::Value;
//! use uindex::{Database, IndexSpec, Query, ClassSel, ValuePred};
//!
//! let mut s = Schema::new();
//! let vehicle = s.add_class("Vehicle").unwrap();
//! s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
//! let auto = s.add_subclass("Automobile", vehicle).unwrap();
//!
//! let mut db = Database::in_memory(s).unwrap();
//! let idx = db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color")).unwrap();
//! let v = db.create_object(vehicle).unwrap();
//! db.set_attr(v, "Color", Value::Str("Red".into())).unwrap();
//! let a = db.create_object(auto).unwrap();
//! db.set_attr(a, "Color", Value::Str("Red".into())).unwrap();
//!
//! let q = Query::on(idx).value(ValuePred::eq(Value::Str("Red".into())));
//! let hits = db.query(&q).unwrap();
//! assert_eq!(hits.len(), 2);
//! // Restrict to the Automobile sub-tree only:
//! let q = q.class_at(0, ClassSel::SubTree(auto));
//! assert_eq!(db.query(&q).unwrap().len(), 1);
//! ```

pub mod analysis;
pub mod catalog;
mod db;
pub mod disk;
mod error;
mod exec;
pub mod explain;
mod index;
mod inline;
mod key;
mod objtree;
pub mod oracle;
mod query;
mod scan;
mod spec;
pub mod uql;

pub use catalog::{catalog_entry_count, CATALOG_ID};
pub use db::{CheckReport, Database, DbStore};
pub use disk::{DiskDatabase, DiskOptions, DiskStore, OpenReport};
pub use error::{Error, Result};
pub use exec::{DatabaseReader, DbSnapshot};
pub use explain::ExplainReport;
pub use index::{IndexId, Planner, UIndex};
pub use inline::InlineVec;
pub use key::{write_key, CodeBytes, EntryKey, KeyValue, Path, PathElem};
pub use query::{
    distinct_oids_at, Assignment, ClassSel, OidSel, PosPred, Query, QueryHit, ValuePred,
};
pub use scan::{QueryTrace, Row, RowSink, ScanAlgorithm, ScanStats};
pub use spec::{IndexSpec, PathStep, SpecBuilder};
