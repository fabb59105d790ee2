//! A B+-tree with variable-length, front-compressed keys over [`pagestore`].
//!
//! This is the single uniform structure the paper builds the U-index on
//! (§3.2: "The index is built with a B-tree with variable-length,
//! front-compressed keys"). Properties:
//!
//! * **Variable-length byte-string keys** with arbitrary (small) values;
//!   entries may be key-only, which is how the U-index stores its
//!   single-value entries.
//! * **Front compression**: within a node, each entry stores only the suffix
//!   that differs from its predecessor. Because capacity is measured in
//!   encoded bytes, compression genuinely increases fanout — this is the
//!   paper's storage argument (§4.2) and is toggleable for the ablation
//!   bench.
//! * **Suffix-truncated separators** in interior nodes (prefix-B-tree
//!   style), also toggleable.
//! * Node capacity either in **bytes** (page-size budget; experiment 2 uses
//!   1024-byte pages) or a fixed **entry count** (experiment 1 uses
//!   max 10 records per node).
//! * Cursors with leaf chaining for forward scans, and `seek` for the
//!   skip-to-key re-descents of the paper's parallel retrieval algorithm.
//!   All page accesses go through the buffer pool, so per-query distinct
//!   page counts come for free.
//!
//! # Example
//!
//! ```
//! use pagestore::{BufferPool, MemStore};
//! use btree::{BTree, BTreeConfig};
//!
//! let pool = BufferPool::new(MemStore::new(256), 64);
//! let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
//! for i in 0..100u32 {
//!     tree.insert(format!("key{i:04}").as_bytes(), &i.to_le_bytes()).unwrap();
//! }
//! assert_eq!(tree.len(), 100);
//! let view = tree.view();
//! let got = view.get(b"key0042").unwrap().unwrap();
//! assert_eq!(got, 42u32.to_le_bytes());
//! let mut cur = view.seek(b"key0098").unwrap();
//! let (k, _) = view.cursor_entry(&mut cur).unwrap().unwrap();
//! assert_eq!(k, b"key0098");
//! ```

mod bulk;
mod codec;
mod config;
mod cursor;
mod edit;
mod node;
mod tree;
mod verify;
mod walk;

pub use bulk::{KeyBuffer, SortedEntries};
pub use codec::common_prefix_len;
pub use config::{BTreeConfig, Capacity};
pub use cursor::{Cursor, EntryRef, ReadView};
pub use edit::{LeafEdit, LeafEditor};
pub use node::{InternalNode, LeafNode, Node};
pub use tree::{BTree, SnapshotTracker, TreeReader, TreeSnapshot};
pub use verify::TreeStats;
pub use walk::LeafWalker;

pub use pagestore::{Error, Result};
