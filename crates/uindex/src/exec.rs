//! Query execution: the one guarded read path ([`run_guarded`]) that the
//! writer's [`crate::Database`] and the [`DatabaseReader`] handles both
//! query through, and the reader handles themselves, which query a
//! `Database` from other threads against epoch snapshots.
//!
//! Every answer — from the tree, or degraded, from the index's keys
//! recomputed from the object store — is the query's [`Matcher`] judging
//! stored key bytes, and reaches the caller's [`RowSink`] as rows of those
//! bytes; the test oracle ([`crate::oracle`]) judges none of them.
//!
//! The reader owns everything a query needs — a [`TreeReader`] into the
//! shared tree plus cloned metadata (specs, encoding, schema) — so it is
//! `Send + Clone` and never touches the `Database` again after
//! construction. Queries run against an explicit [`DbSnapshot`]: the
//! writer keeps mutating and publishing while scans see a frozen epoch.
//!
//! Each thread counts into its own telemetry registry, where the events
//! happen, and a query's costs come back as its [`ScanStats`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use btree::{ReadView, TreeReader, TreeSnapshot};
use objstore::ObjectStore;
use pagestore::PageStore;
use schema::{Encoding, Schema};

use crate::error::{Error, Result};
use crate::index::Planner;
use crate::query::{Query, QueryHit};
use crate::scan::{self, Matcher, QueryTrace, RowSink, ScanStats};
use crate::spec::IndexSpec;

/// What a query answers from when the index cannot: the metadata view and
/// the object store, and the quarantine flag shared by every handle on one
/// database.
pub(crate) struct Fallback<'a> {
    pub(crate) planner: Planner<'a>,
    pub(crate) store: &'a ObjectStore,
    pub(crate) quarantined: &'a AtomicBool,
}

/// Run `q` on `view` with `matcher`, its plan (or why planning failed),
/// handing every match to `sink`; the returned flag says whether the
/// degraded path answered. Planning is the caller's, so a caller that
/// traces can time it: the writer handle does, readers do not.
///
/// A query the planner refuses is refused, with or without a fallback and
/// whether or not the index is quarantined. The fault policy, with a
/// `fallback`:
///
/// * a set quarantine flag answers degraded without touching the tree;
/// * detected **corruption** sets the flag (every handle on the database
///   sees it) and answers degraded;
/// * an **I/O error** — the buffer pool's bounded retries already
///   exhausted — answers degraded *without* quarantining, so the next
///   query tries the index again;
/// * anything else propagates.
///
/// Without a fallback every error propagates. A degraded answer is the
/// same matcher run over the index's keys recomputed from the object store
/// ([`Planner::all_keys`], [`scan::match_keys`]) — slower, but immune to
/// index damage, and no tree page is read. A fault can strike after the
/// scan handed over some rows, so the sink is restarted before the
/// degraded answer enters it. On an error the sink holds whatever the scan
/// handed over; discard it.
pub(crate) fn run_guarded<S: PageStore, K: RowSink>(
    view: &ReadView<'_, S>,
    matcher: Result<Matcher>,
    fallback: Option<Fallback<'_>>,
    q: &Query,
    sink: &mut K,
) -> Result<(QueryTrace, bool)> {
    let matcher = matcher?;
    let scan = |sink: &mut K| scan::execute_traced(view, &matcher, q.algorithm, sink);
    let Some(fallback) = fallback else {
        return Ok((scan(sink)?, false));
    };
    if !fallback.quarantined.load(Ordering::Acquire) {
        match scan(sink) {
            Ok(trace) => return Ok((trace, false)),
            Err(Error::Page(e)) if e.is_corruption() => {
                fallback.quarantined.store(true, Ordering::Release);
                telemetry::counter("uindex.degraded.quarantines").inc();
            }
            Err(Error::Page(pagestore::Error::Io(_))) => {}
            Err(e) => return Err(e),
        }
        sink.restart();
    }
    telemetry::counter("uindex.degraded.queries").inc();
    let keys = fallback.planner.all_keys(fallback.store, q.index)?;
    scan::match_keys(&matcher, &keys, sink)?;
    Ok((QueryTrace::default(), true))
}

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
}

/// A shareable read handle into a [`Database`][crate::Database]'s index:
/// cloned metadata plus a [`TreeReader`]. Obtain one from
/// [`Database::reader`][crate::Database::reader]; clone it freely across
/// threads.
///
/// The metadata is a snapshot of the database's spec table, encoding and
/// schema at construction time — define further indexes or evolve the
/// schema and you need a fresh reader.
pub struct DatabaseReader<P: PageStore> {
    tree: TreeReader<P>,
    specs: Vec<IndexSpec>,
    encoding: Encoding,
    schema: Schema,
    /// Armed by [`crate::Database::reader_with_fallback`].
    fallback: Option<ArmedFallback>,
}

/// A reader's [`Fallback`], owned: a frozen clone of the object store
/// (taken at reader construction, like the rest of the reader's metadata)
/// plus the quarantine flag shared with the owning [`crate::Database`] —
/// a writer-side quarantine degrades every armed reader, and a clean
/// `check()`/`repair()` restores them all.
#[derive(Clone)]
struct ArmedFallback {
    store: Arc<ObjectStore>,
    quarantined: Arc<AtomicBool>,
}

// Not derived: a derive would demand `P: Clone` of the page store.
impl<P: PageStore> Clone for DatabaseReader<P> {
    fn clone(&self) -> Self {
        DatabaseReader {
            tree: self.tree.clone(),
            specs: self.specs.clone(),
            encoding: self.encoding.clone(),
            schema: self.schema.clone(),
            fallback: self.fallback.clone(),
        }
    }
}

impl<P: PageStore> DatabaseReader<P> {
    /// Arm the degraded-mode fallback (see
    /// [`crate::Database::reader_with_fallback`]).
    pub(crate) fn enable_fallback(
        &mut self,
        store: Arc<ObjectStore>,
        quarantined: Arc<AtomicBool>,
    ) {
        self.fallback = Some(ArmedFallback { store, quarantined });
    }

    /// A reader over `index` with `schema`, captured as of this call —
    /// what [`Database::reader`][crate::Database::reader] takes, and how
    /// benches that drive a bare [`crate::UIndex`] get the same concurrent
    /// read path. Enables snapshot mode on the tree.
    pub fn for_index(index: &mut crate::UIndex<P>, schema: &Schema) -> Self {
        index.tree_mut().enable_snapshots();
        DatabaseReader {
            tree: index.tree().reader(),
            specs: index.specs().to_vec(),
            encoding: index.encoding().clone(),
            schema: schema.clone(),
            fallback: None,
        }
    }

    /// The metadata view as of reader construction.
    pub fn planner(&self) -> Planner<'_> {
        Planner {
            specs: &self.specs,
            encoding: &self.encoding,
            schema: &self.schema,
        }
    }

    /// Pin the latest published epoch.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            snap: self.tree.snapshot(),
        }
    }

    /// Run `q` against `snap`, returning hits and scan cost counters. No
    /// fallback: a storage error is returned. Concurrent calls from
    /// different threads are independent; each accumulates into its own
    /// thread-local telemetry registry.
    pub fn query_at(&self, snap: &DbSnapshot, q: &Query) -> Result<(Vec<QueryHit>, ScanStats)> {
        let mut hits = Vec::new();
        let view = self.tree.read(&snap.snap);
        let (trace, _) = run_guarded(&view, self.planner().matcher(q), None, q, &mut hits)?;
        Ok((hits, trace.stats))
    }

    /// Convenience: pin the latest epoch and run one query against it.
    pub fn query(&self, q: &Query) -> Result<(Vec<QueryHit>, ScanStats)> {
        let snap = self.snapshot();
        self.query_at(&snap, q)
    }

    /// Whether the shared quarantine flag is currently set. Always false
    /// for a reader without a fallback source.
    pub fn quarantined(&self) -> bool {
        self.fallback
            .as_ref()
            .is_some_and(|f| f.quarantined.load(Ordering::Acquire))
    }

    /// Run `q` against `snap` through [`run_guarded`] with the reader's
    /// armed fallback (none for a plain [`crate::Database::reader`]),
    /// handing every match to `sink`. Returns the scan counters and
    /// whether the degraded path answered.
    pub fn query_guarded_into<K: RowSink>(
        &self,
        snap: &DbSnapshot,
        q: &Query,
        sink: &mut K,
    ) -> Result<(ScanStats, bool)> {
        let planner = self.planner();
        let fallback = self.fallback.as_ref().map(|f| Fallback {
            planner,
            store: &f.store,
            quarantined: &f.quarantined,
        });
        let view = self.tree.read(&snap.snap);
        let (trace, degraded) = run_guarded(&view, planner.matcher(q), fallback, q, sink)?;
        Ok((trace.stats, degraded))
    }

    /// Parse a [`crate::uql`] query string against the reader's captured
    /// metadata without executing it — the serving layer's prepared-plan
    /// path (parse and plan once, execute many times via
    /// [`DatabaseReader::query_guarded_into`]).
    pub fn parse_uql(&self, input: &str) -> Result<Query> {
        crate::uql::parse(self.planner(), input)
    }

    /// Parse a [`crate::uql`] query string against the reader's metadata
    /// and run it at the latest epoch.
    pub fn query_uql(&self, input: &str) -> Result<(Vec<QueryHit>, ScanStats)> {
        let q = self.parse_uql(input)?;
        self.query(&q)
    }
}
