//! Paged storage substrate for the U-index reproduction.
//!
//! Every index structure in this workspace (the U-index itself and all the
//! baseline structures) stores its nodes in fixed-size *pages* managed by a
//! [`BufferPool`]. The paper's experiments report *pages read* and *nodes
//! visited* per query, so the buffer pool is also the instrumentation point:
//! it counts physical reads/writes globally and, per query, the number of
//! **distinct** pages touched (a page already fetched earlier in the same
//! query is free, matching the paper's "utilizing any page which is already
//! in memory").
//!
//! Two page stores are provided:
//!
//! * [`MemStore`] — an in-memory store used by the experiments (the paper's
//!   metric is page *counts*, not wall-clock I/O);
//! * [`FileStore`] — the file-backed store under the durable tier, which
//!   [`disk`] stacks below a checksum layer and a write-ahead log.
//!
//! # Example
//!
//! ```
//! use pagestore::{BufferPool, MemStore, PAGE_SIZE_DEFAULT};
//!
//! let store = MemStore::new(PAGE_SIZE_DEFAULT);
//! let mut pool = BufferPool::new(store, 64);
//! let (id, page) = pool.allocate().unwrap();
//! page.write()[0] = 42;
//! drop(page);
//! pool.begin_query();
//! let page = pool.fetch(id).unwrap();
//! assert_eq!(page.read()[0], 42);
//! assert_eq!(pool.query_stats().distinct_pages, 1);
//! ```

mod buffer;
mod checksum;
mod crc;
pub mod disk;
mod error;
mod fault;
mod file;
mod page;
mod store;
mod wal;

pub use buffer::{BufferPool, PageReadGuard, PageRef, PageWriteGuard, QueryStats, RetryPolicy};
pub use checksum::{check_page_size, ChecksumStore, ScrubReport, Scrubbable, TRAILER_LEN};
pub use crc::crc32;
pub use error::{Error, Result};
pub use fault::{Fault, FaultHandle, FaultStore};
pub use page::{PageId, PAGE_SIZE_DEFAULT, PAGE_SIZE_MIN};
pub use store::{MemStore, PageStore};

pub use file::FileStore;
pub use wal::{RecoveryReport, WalStore};
