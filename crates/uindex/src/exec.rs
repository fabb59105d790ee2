//! Concurrent query execution: [`DatabaseReader`] handles that query a
//! [`Database`] from other threads against epoch snapshots, plus a
//! work-claiming thread-pool executor ([`parallel_query`]).
//!
//! The reader owns everything a query needs — a [`TreeReader`] into the
//! shared tree plus cloned planning metadata (specs, encoding, schema) —
//! so it is `Send + Clone` and never touches the `Database` again after
//! construction. Queries run against an explicit [`DbSnapshot`]: the
//! writer keeps mutating and publishing while scans see a frozen epoch.
//!
//! Each thread counts into its own telemetry registry, where the events
//! happen: a worker's counts stay in the worker's registry, and a query's
//! costs come back as its [`ScanStats`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use btree::{TreeReader, TreeSnapshot};
use objstore::ObjectStore;
use pagestore::PageStore;
use schema::{Encoding, Schema};

use crate::error::{Error, Result};
use crate::index::{IndexId, Planner};
use crate::query::{Query, QueryHit};
use crate::scan::{self, RowSink, ScanStats};
use crate::spec::IndexSpec;

/// A frozen, consistent view of the index tree at one published epoch.
/// Holding it pins the pages of that epoch (the writer defers their
/// reclamation); drop it promptly when done scanning.
pub struct DbSnapshot {
    snap: TreeSnapshot,
}

impl DbSnapshot {
    /// The writer epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// Number of index entries (all logical indexes plus catalog) visible.
    pub fn entries(&self) -> u64 {
        self.snap.len()
    }
}

/// A shareable read handle into a [`Database`]'s index: cloned planning
/// metadata plus a [`TreeReader`]. Obtain one from
/// [`Database::reader`][crate::Database::reader]; clone it freely across
/// threads.
///
/// The metadata is a snapshot of the database's spec table and encoding at
/// construction time — define further indexes or evolve the schema and
/// you need a fresh reader.
pub struct DatabaseReader<P: PageStore> {
    tree: TreeReader<P>,
    encoding: Encoding,
    specs: Vec<IndexSpec>,
    schema: Schema,
    /// Armed by [`crate::Database::reader_with_fallback`]: everything the
    /// degraded path needs to answer without the tree.
    degraded: Option<DegradedSource>,
}

/// The degraded path's inputs: a frozen clone of the object store (taken
/// at reader construction, like the rest of the reader's metadata) plus
/// the quarantine flag shared with the owning [`crate::Database`] — a
/// writer-side quarantine degrades every armed reader, and a clean
/// `check()`/`repair()` restores them all.
struct DegradedSource {
    store: Arc<ObjectStore>,
    flag: Arc<AtomicBool>,
}

impl<P: PageStore> Clone for DatabaseReader<P> {
    fn clone(&self) -> Self {
        DatabaseReader {
            tree: self.tree.clone(),
            encoding: self.encoding.clone(),
            specs: self.specs.clone(),
            schema: self.schema.clone(),
            degraded: self.degraded.as_ref().map(|d| DegradedSource {
                store: Arc::clone(&d.store),
                flag: Arc::clone(&d.flag),
            }),
        }
    }
}

impl<P: PageStore> DatabaseReader<P> {
    pub(crate) fn new(
        tree: TreeReader<P>,
        encoding: Encoding,
        specs: Vec<IndexSpec>,
        schema: Schema,
    ) -> Self {
        DatabaseReader {
            tree,
            encoding,
            specs,
            schema,
            degraded: None,
        }
    }

    /// Arm the degraded-mode fallback (see
    /// [`crate::Database::reader_with_fallback`]).
    pub(crate) fn enable_fallback(&mut self, store: Arc<ObjectStore>, flag: Arc<AtomicBool>) {
        self.degraded = Some(DegradedSource { store, flag });
    }

    /// A reader over a bare [`crate::UIndex`] (no object store): benches
    /// and harnesses that drive the index directly get the same concurrent
    /// read path as [`Database::reader`][crate::Database::reader]. Enables
    /// snapshot mode on the tree; like `Database::reader`, the spec table
    /// and encoding are captured as of this call.
    pub fn for_index(index: &mut crate::UIndex<P>, schema: &Schema) -> Self {
        index.tree_mut().enable_snapshots();
        DatabaseReader::new(
            index.tree().reader(),
            index.encoding().clone(),
            index.specs().to_vec(),
            schema.clone(),
        )
    }

    /// The schema as of reader construction.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Look up an index id by name (reader-side spec table).
    pub fn index_by_name(&self, name: &str) -> Option<IndexId> {
        self.specs
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as IndexId)
    }

    /// Pin the latest published epoch.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            snap: self.tree.snapshot(),
        }
    }

    /// Run `q` against `snap`, returning hits and scan cost counters.
    /// Concurrent calls from different threads are independent; each
    /// accumulates into its own thread-local telemetry registry.
    pub fn query_at(&self, snap: &DbSnapshot, q: &Query) -> Result<(Vec<QueryHit>, ScanStats)> {
        let mut hits = Vec::new();
        let stats = self.query_into(snap, q, &mut hits)?;
        Ok((hits, stats))
    }

    /// Run `q` against `snap`, handing every match to `sink`.
    fn query_into<K: RowSink>(
        &self,
        snap: &DbSnapshot,
        q: &Query,
        sink: &mut K,
    ) -> Result<ScanStats> {
        let matcher = Planner {
            specs: &self.specs,
            encoding: &self.encoding,
        }
        .matcher(q)?;
        let view = self.tree.read(&snap.snap);
        let trace = scan::execute_traced(&view, &matcher, q.algorithm, q.distinct_upto, sink)?;
        Ok(trace.stats)
    }

    /// Convenience: pin the latest epoch and run one query against it.
    pub fn query(&self, q: &Query) -> Result<(Vec<QueryHit>, ScanStats)> {
        let snap = self.snapshot();
        self.query_at(&snap, q)
    }

    /// Whether the shared quarantine flag is currently set. Always false
    /// for a reader without a fallback source.
    pub fn quarantined(&self) -> bool {
        self.degraded
            .as_ref()
            .is_some_and(|d| d.flag.load(Ordering::Acquire))
    }

    /// Answer `q` from the fallback object store via the differential
    /// oracle's evaluator — slower, but immune to index damage, and proven
    /// hit-for-hit equivalent to the scans by the oracle's trial harness.
    fn degraded_eval(&self, src: &DegradedSource, q: &Query) -> Result<Vec<QueryHit>> {
        telemetry::counter("uindex.degraded.queries").inc();
        let hits = crate::oracle::eval_with(&self.specs, &self.encoding, &src.store, q)?;
        Ok(match q.distinct_upto {
            Some(pos) => crate::oracle::distinct_filter(&hits, pos),
            None => hits,
        })
    }

    /// Run `q` against `snap` with graceful degradation, returning the hits
    /// (see [`DatabaseReader::query_guarded_into`]).
    pub fn query_guarded_at(
        &self,
        snap: &DbSnapshot,
        q: &Query,
    ) -> Result<(Vec<QueryHit>, ScanStats, bool)> {
        let mut hits = Vec::new();
        let (stats, degraded) = self.query_guarded_into(snap, q, &mut hits)?;
        Ok((hits, stats, degraded))
    }

    /// Run `q` against `snap` with graceful degradation, handing every
    /// match to `sink`: when the index is quarantined — or the scan hits
    /// storage trouble on the spot — the answer is recomputed from the
    /// fallback object store instead of failing (or worse, trusting damaged
    /// pages). A fault can strike after the scan handed over some rows, so
    /// the sink is restarted before the degraded answer enters it, each row
    /// through [`crate::EntryKey::encode`]. The returned flag says whether
    /// the degraded path answered. On an error the sink holds whatever the
    /// scan handed over before it; discard it.
    ///
    /// Fault policy, mirroring [`crate::Database::query_traced_guarded`]:
    ///
    /// * detected **corruption** quarantines the index immediately (flag
    ///   shared with the writer) and answers degraded;
    /// * a transient **I/O error** — the buffer pool's bounded retries
    ///   already exhausted — answers degraded *without* quarantining, so
    ///   the next query tries the index again;
    /// * anything else (bad queries, planning errors) propagates, and a
    ///   reader without a fallback source propagates every error.
    pub fn query_guarded_into<K: RowSink>(
        &self,
        snap: &DbSnapshot,
        q: &Query,
        sink: &mut K,
    ) -> Result<(ScanStats, bool)> {
        let Some(src) = &self.degraded else {
            return Ok((self.query_into(snap, q, sink)?, false));
        };
        if !src.flag.load(Ordering::Acquire) {
            match self.query_into(snap, q, sink) {
                Ok(stats) => return Ok((stats, false)),
                Err(Error::Page(e)) if e.is_corruption() => {
                    src.flag.store(true, Ordering::Release);
                    telemetry::counter("uindex.degraded.quarantines").inc();
                }
                Err(Error::Page(pagestore::Error::Io(_))) => {}
                Err(e) => return Err(e),
            }
            sink.restart();
        }
        scan::feed_hits(&self.degraded_eval(src, q)?, sink)?;
        Ok((ScanStats::default(), true))
    }

    /// Parse a [`crate::uql`] query string against the reader's captured
    /// metadata without executing it — the serving layer's prepared-plan
    /// path (parse and plan once, execute many times via
    /// [`DatabaseReader::query_at`]).
    pub fn parse_uql(&self, input: &str) -> Result<Query> {
        crate::uql::parse_with_specs(&self.specs, &self.schema, input)
    }

    /// Parse a [`crate::uql`] query string against the reader's metadata
    /// and run it at the latest epoch.
    pub fn query_uql(&self, input: &str) -> Result<(Vec<QueryHit>, ScanStats)> {
        let q = self.parse_uql(input)?;
        self.query(&q)
    }
}

/// Run every query in `queries` against one shared snapshot using
/// `threads` worker threads, returning per-query results in input order.
///
/// Work is claimed dynamically (an atomic cursor, not pre-chunking), so
/// skewed query costs still balance. Each result carries its query's
/// `ScanStats`, identical to a single-threaded execution of the same
/// stream; the workers' telemetry stays in their own registries.
pub fn parallel_query<P>(
    reader: &DatabaseReader<P>,
    queries: &[Query],
    threads: usize,
) -> Result<Vec<(Vec<QueryHit>, ScanStats)>>
where
    P: PageStore + Send + Sync,
{
    let threads = threads.max(1);
    let snap = reader.snapshot();
    if threads == 1 || queries.len() <= 1 {
        // Inline fast path: no thread needed.
        return queries.iter().map(|q| reader.query_at(&snap, q)).collect();
    }

    type QuerySlot = Option<Result<(Vec<QueryHit>, ScanStats)>>;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<QuerySlot>> = Mutex::new((0..queries.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let reader = reader.clone();
            let (snap, next, results) = (&snap, &next, &results);
            workers.push(scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let r = reader.query_at(snap, &queries[i]);
                results.lock().unwrap()[i] = Some(r);
            }));
        }
        for w in workers {
            w.join().expect("query worker panicked");
        }
    });

    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("work claiming covered every query"))
        .collect()
}
