//! [`Database`]: an object store plus a U-index, kept consistent.
//!
//! A mutation enumerates, in each index it can change, the entries that
//! contain the mutated object — once before the change and once after —
//! encodes each once, and applies the difference as single-key B-tree
//! deletes and inserts. [`Database::set_attr`] consults only the indexes
//! that read the attribute ([`IndexSpec::reads`]: it is their indexed
//! attribute or a via reference); [`Database::delete_object`] consults
//! every index. The tree ends up as the paper's §3.5 update cases say it
//! should (one entry out and one in for an end-of-path attribute; the
//! clustered group for a mid-path reference change), but the work is not
//! yet the paper's price: an involved index is enumerated twice, and each
//! changed key is its own descent.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use btree::{BTreeConfig, KeyBuffer};
use objstore::{ObjectStore, Oid, Value};
use pagestore::{
    BufferPool, ChecksumStore, FaultStore, MemStore, PageStore, RetryPolicy, ScrubReport,
    Scrubbable, TRAILER_LEN,
};
use schema::{AttrId, ClassId, Encoding, Schema};

use crate::error::Result;
use crate::exec::{run_guarded, Fallback};
use crate::index::{IndexId, Planner, UIndex};
use crate::query::{Query, QueryHit};
use crate::scan::{QueryTrace, RowSink, ScanStats};
use crate::spec::{IndexSpec, SpecBuilder};

/// The page-store stack under an in-memory [`Database`] index: checksum
/// verification above memory. A test that injects faults builds its own
/// stack through [`Database::over_store`], with a `FaultStore` over the
/// memory store, so injected silent damage lands below the trailer and is
/// caught exactly like real bit rot.
pub type DbStore = ChecksumStore<MemStore>;

/// Result of [`Database::check`]: scrub outcome, tree verification, and
/// the entry-level cross-check against the object store.
#[derive(Debug)]
pub struct CheckReport {
    /// Checksum scrub over every live page.
    pub scrub: ScrubReport,
    /// Structural B-tree verification outcome (`None` when it passed).
    pub tree_error: Option<String>,
    /// Whether the tree's entries matched a recomputation from the object
    /// store (`false` also when the comparison could not run).
    pub content_ok: bool,
    /// Whether the index is quarantined after this check.
    pub quarantined: bool,
}

impl CheckReport {
    /// Whether every layer of the check passed.
    pub fn clean(&self) -> bool {
        self.scrub.clean() && self.tree_error.is_none() && self.content_ok
    }
}

/// An OODB with automatically maintained U-indexes.
///
/// Generic over the page-store stack `P` under the index: over the default
/// [`DbStore`] it is a volatile engine — nothing it holds outlives the
/// value, and it has no file format; a database kept in files is the same
/// `Database` over [`crate::DiskStore`], inside a [`crate::DiskDatabase`].
/// Everything except construction and repair is backend-agnostic.
pub struct Database<P: PageStore = DbStore> {
    store: ObjectStore,
    index: UIndex<P>,
    /// Classes added by schema evolution whose codes are not assigned yet.
    /// Assignment is deferred until first use so that REF attributes
    /// declared after the class still constrain its code position
    /// (paper Fig. 4b: a new hierarchy slots between the hierarchies it
    /// references and is referenced by).
    pending_codes: BTreeSet<ClassId>,
    config: BTreeConfig,
    /// Set when corruption was detected in the index; queries fall back
    /// to a sequential scan of the object store until a clean
    /// [`Database::check`] or a [`Database::repair`] clears it. Atomic so
    /// the whole query path stays `&self` (shared across reader threads)
    /// while still able to impose a quarantine on the spot; `Arc`-shared
    /// so readers armed via [`Database::reader_with_fallback`] see — and
    /// can impose — the same quarantine from other threads.
    quarantined: Arc<AtomicBool>,
    /// OIDs created, changed or deleted since [`Database::clear_touched`]
    /// — what a durable commit must rewrite. `None` (every tier but the
    /// disk one, the only one that keeps objects in pages) records nothing.
    touched: Option<BTreeSet<Oid>>,
}

impl Database {
    // ----- construction (in memory) --------------------------------------

    /// Build a database over `schema`, generating the class-code encoding.
    /// Fails if the schema's REF graph is cyclic (see
    /// [`schema::cycles::partition_acyclic`] to split it).
    pub fn in_memory(schema: Schema) -> Result<Self> {
        Self::with_page_size(schema, 1024, 1 << 16)
    }

    /// Like [`Database::in_memory`] with explicit page geometry; a page
    /// size below [`pagestore::PAGE_SIZE_MIN`] is refused.
    pub fn with_page_size(schema: Schema, page_size: usize, pool_pages: usize) -> Result<Self> {
        Self::with_config(schema, page_size, pool_pages, BTreeConfig::default())
    }

    /// Full control over the index B-tree configuration (the paper's first
    /// experiment caps nodes at 10 entries).
    pub fn with_config(
        schema: Schema,
        page_size: usize,
        pool_pages: usize,
        config: BTreeConfig,
    ) -> Result<Self> {
        // Before the store is built: `MemStore::new` panics on an inner
        // page below the minimum, which `over_store` would never get to see.
        pagestore::check_page_size(page_size)?;
        // The inner store's pages are [`TRAILER_LEN`] bytes larger so the
        // exposed page size — the one the tree sees and the experiments'
        // page counts are measured in — stays exactly `page_size`.
        let inner = MemStore::new(page_size + TRAILER_LEN);
        Self::over_store(schema, inner, pool_pages, config)
    }
}

impl<S: PageStore> Database<ChecksumStore<S>> {
    /// Build a volatile database whose index lives in `inner` under a
    /// checksum layer. `inner`'s pages are [`TRAILER_LEN`] bytes larger
    /// than the pages the tree sees.
    pub fn over_store(
        schema: Schema,
        inner: S,
        pool_pages: usize,
        config: BTreeConfig,
    ) -> Result<Self> {
        let encoding = Encoding::generate(&schema)?;
        pagestore::check_page_size(inner.page_size().saturating_sub(TRAILER_LEN))?;
        let pool = BufferPool::new(ChecksumStore::new(inner), pool_pages);
        pool.set_retry_policy(RetryPolicy { max_attempts: 3 });
        let index = UIndex::new(pool, config, encoding)?;
        Ok(Database {
            store: ObjectStore::new(schema),
            index,
            pending_codes: BTreeSet::new(),
            config,
            quarantined: Arc::new(AtomicBool::new(false)),
            touched: None,
        })
    }
}

impl<P: PageStore> Database<P> {
    /// Assemble a database from an already-built index and object store
    /// (the disk tier's create/open paths), recording touched OIDs from
    /// here on.
    pub(crate) fn from_raw_parts(
        store: ObjectStore,
        index: UIndex<P>,
        config: BTreeConfig,
    ) -> Self {
        // A class committed before its first use reopens without a code.
        let pending_codes = store
            .schema()
            .class_ids()
            .filter(|&c| index.encoding().code(c).is_none())
            .collect();
        Database {
            store,
            index,
            pending_codes,
            config,
            quarantined: Arc::new(AtomicBool::new(false)),
            touched: Some(BTreeSet::new()),
        }
    }

    /// Salvage the index: bulk-load every registered index from the object
    /// store — the source of truth — into fresh pages of the pool the
    /// current one lives in, verify the new tree and swap it in, lifting
    /// any quarantine. The old tree, whatever state it is in, is never
    /// walked; its pages stay allocated — follow with [`free_unreachable`].
    /// Returns the number of entries loaded.
    pub(crate) fn rebuild_index(&mut self) -> Result<u64> {
        let index = build_index(
            &self.index.tree().pool_arc(),
            self.config,
            self.index.encoding().clone(),
            &self.store,
            self.index.specs().to_vec(),
        )?;
        let n = index.tree().len();
        self.index = index;
        self.quarantined.store(false, Ordering::Release);
        telemetry::counter("uindex.degraded.repairs").inc();
        Ok(n)
    }

    /// The OIDs mutated since [`Database::clear_touched`], ascending.
    pub(crate) fn touched(&self) -> Vec<Oid> {
        self.touched.iter().flatten().copied().collect()
    }

    /// Forget the touched OIDs: their records have been written.
    pub(crate) fn clear_touched(&mut self) {
        if let Some(touched) = &mut self.touched {
            touched.clear();
        }
    }

    fn touch(&mut self, oid: Oid) {
        if let Some(touched) = &mut self.touched {
            touched.insert(oid);
        }
    }

    /// The B-tree configuration this database was built with.
    pub fn config(&self) -> BTreeConfig {
        self.config
    }

    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.store.schema()
    }

    /// The U-index.
    pub fn index(&self) -> &UIndex<P> {
        &self.index
    }

    /// Mutable U-index access (e.g. for statistics resets).
    pub fn index_mut(&mut self) -> &mut UIndex<P> {
        &mut self.index
    }

    /// The metadata view: spec table, class encoding and schema.
    pub fn planner(&self) -> Planner<'_> {
        self.index.planner(self.store.schema())
    }

    /// Whether the index is quarantined (queries run degraded).
    pub fn quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// A `Send + Clone` read handle for concurrent queries from other
    /// threads (see [`crate::DatabaseReader`]). Enables snapshot mode on
    /// the index tree — from here on the writer preserves pre-images for
    /// live snapshots and every mutation publishes a new epoch.
    ///
    /// `&mut self` on purpose: the reader captures the spec table, class
    /// encoding and schema as of this call, so take it after defining
    /// indexes and loading data.
    pub fn reader(&mut self) -> crate::DatabaseReader<P> {
        crate::DatabaseReader::for_index(&mut self.index, self.store.schema())
    }

    /// Like [`Database::reader`], additionally arming the reader with a
    /// degraded-mode fallback: a frozen clone of the object store plus the
    /// database's own quarantine flag. Such a reader answers queries from
    /// the object store when the index is quarantined or faulting (see
    /// [`crate::DatabaseReader::query_guarded_into`]) instead of failing —
    /// the serving tier's availability path. Costs one object-store clone;
    /// the plain [`Database::reader`] stays clone-free for perf paths.
    pub fn reader_with_fallback(&mut self) -> crate::DatabaseReader<P> {
        let mut reader = self.reader();
        reader.enable_fallback(Arc::new(self.store.clone()), Arc::clone(&self.quarantined));
        reader
    }

    // ----- schema evolution ---------------------------------------------

    /// Add a new hierarchy root class (paper Fig. 4b). Its code is
    /// assigned lazily — declare the class's reference attributes first and
    /// the code will respect them; force assignment with
    /// [`Database::encode_class`].
    pub fn add_class(&mut self, name: &str) -> Result<ClassId> {
        let id = self.store.schema_mut().add_class(name)?;
        self.pending_codes.insert(id);
        Ok(id)
    }

    /// Add a sub-class (paper Fig. 4a); its code is assigned lazily.
    pub fn add_subclass(&mut self, name: &str, parent: ClassId) -> Result<ClassId> {
        let id = self.store.schema_mut().add_subclass(name, parent)?;
        self.pending_codes.insert(id);
        Ok(id)
    }

    /// Assign a code now to `class` (and any pending ancestors), honouring
    /// the REF edges declared so far.
    pub fn encode_class(&mut self, class: ClassId) -> Result<()> {
        if !self.pending_codes.contains(&class) {
            return Ok(());
        }
        if let Some(&parent) = self.store.schema().parents(class).first() {
            self.encode_class(parent)?;
        }
        let schema = self.store.schema();
        self.index.encoding_mut().assign_class(schema, class)?;
        self.pending_codes.remove(&class);
        Ok(())
    }

    fn encode_all_pending(&mut self) -> Result<()> {
        let pending: Vec<ClassId> = self.pending_codes.iter().copied().collect();
        for c in pending {
            self.encode_class(c)?;
        }
        Ok(())
    }

    /// Declare an attribute.
    pub fn add_attr(&mut self, class: ClassId, name: &str, ty: schema::AttrType) -> Result<AttrId> {
        Ok(self.store.schema_mut().add_attr(class, name, ty)?)
    }

    // ----- index definition ----------------------------------------------

    /// Define an index from a builder and populate it from current data.
    pub fn define_index(&mut self, builder: SpecBuilder) -> Result<IndexId> {
        let spec = builder.build(self.store.schema())?;
        self.define_index_spec(spec)
    }

    /// Define an index from an explicit spec and populate it.
    pub fn define_index_spec(&mut self, spec: IndexSpec) -> Result<IndexId> {
        // Refused before pending classes get their codes.
        schema::check_name(&spec.name)?;
        self.encode_all_pending()?;
        let id = self.index.define(self.store.schema(), spec)?;
        self.index.build(&self.store, id)?;
        self.index.tree_mut().publish()?;
        Ok(id)
    }

    // ----- object mutations (index-maintaining) ---------------------------

    /// Create an object (no attributes yet, so no index entries).
    pub fn create_object(&mut self, class: ClassId) -> Result<Oid> {
        self.encode_class(class)?;
        let oid = self.store.create(class)?;
        self.touch(oid);
        Ok(oid)
    }

    /// The indexes whose entries read attribute `name` of `oid`
    /// ([`IndexSpec::reads`], on the attribute as the store resolves it for
    /// the object's class): the only ones a set of it can change. Empty
    /// when object or attribute does not resolve — the store refuses such
    /// a set.
    fn indexes_reading(&self, oid: Oid, name: &str) -> Vec<IndexId> {
        let schema = self.store.schema();
        let class = self.store.class_of(oid).ok();
        let Some(attr) = class.and_then(|class| schema.resolve_attr(class, name)) else {
            return Vec::new();
        };
        let specs = self.index.specs();
        (0..specs.len() as IndexId)
            .filter(|&id| specs[id as usize].reads(attr))
            .collect()
    }

    /// For each of the indexes `ids`, the encoded keys, ascending, of all
    /// entries containing `oid` — exactly the entries a mutation of `oid`
    /// can add or remove in it. A key too large for one B-tree entry is
    /// refused here, before the tree sees it.
    fn involved_entries(&self, oid: Oid, ids: &[IndexId]) -> Result<Vec<KeyBuffer>> {
        let max = self.index.tree().max_entry_size();
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let keys = self.planner().entries_involving(&self.store, id, oid)?;
            if let Some(key) = keys.iter().find(|k| k.len() > max) {
                let len = key.len();
                return Err(pagestore::Error::EntryTooLarge { len, max }.into());
            }
            out.push(keys);
        }
        Ok(out)
    }

    /// Delete the keys only `before` has and insert the ones only `after`
    /// has, index by index (both sides ascending), then publish.
    fn apply_diff(&mut self, before: Vec<KeyBuffer>, after: Vec<KeyBuffer>) -> Result<()> {
        for (b, a) in before.iter().zip(&after) {
            for key in b.iter().filter(|k| !a.contains(k)) {
                self.index.tree_mut().delete(key)?;
            }
            for key in a.iter().filter(|k| !b.contains(k)) {
                self.index.tree_mut().insert(key, &[])?;
            }
        }
        // Expose the mutated tree to snapshot readers: every Database
        // mutation is one atomic publish, so concurrent scans only ever
        // see entry sets that correspond to a completed mutation.
        self.index.tree_mut().publish()?;
        Ok(())
    }

    /// Set an attribute, keeping every index consistent. Only the indexes
    /// that read the attribute — as their indexed attribute or as a via
    /// reference ([`IndexSpec::reads`]) — are consulted: every other
    /// index's entries cannot change. In those, the entries containing
    /// `oid` are enumerated before and after the change, and the keys that
    /// differ are deleted and inserted one at a time (see the module doc
    /// for how that compares with §3.5). A value that would make an entry
    /// too large for the tree is refused with store and tree unchanged.
    pub fn set_attr(&mut self, oid: Oid, name: &str, value: Value) -> Result<Option<Value>> {
        let ids = self.indexes_reading(oid, name);
        let before = self.involved_entries(oid, &ids)?;
        let old = self.store.set_attr(oid, name, value)?;
        let after = match self.involved_entries(oid, &ids) {
            Ok(after) => after,
            Err(e) => {
                self.store.restore_attr(oid, name, old)?;
                return Err(e);
            }
        };
        self.touch(oid);
        self.apply_diff(before, after)?;
        Ok(old)
    }

    /// Delete an object, keeping every index consistent: every index is
    /// consulted, since any of them may hold the object at some position.
    /// With `force`, dangling references from other objects are allowed
    /// (their path entries through this object disappear).
    pub fn delete_object(&mut self, oid: Oid, force: bool) -> Result<()> {
        let all: Vec<IndexId> = (0..self.index.specs().len() as IndexId).collect();
        let before = self.involved_entries(oid, &all)?;
        self.store.delete(oid, force)?;
        self.touch(oid);
        // The object no longer exists, so no entry can involve it.
        let after = vec![KeyBuffer::new(); before.len()];
        self.apply_diff(before, after)?;
        Ok(())
    }

    /// Salvage the index: rebuild it from the object store into fresh pages
    /// of the same store, then free every page of the old tree — unread.
    /// Returns the number of entries loaded and clears any quarantine.
    /// Readers taken from the old index keep pointing at it: take new ones.
    pub fn repair(&mut self) -> Result<u64> {
        let n = self.rebuild_index()?;
        let keep = self.index.tree().page_ids()?.into_iter().collect();
        self.index.tree().pool().free_unreachable(&keep)?;
        Ok(n)
    }
}

impl<S: PageStore> Database<ChecksumStore<FaultStore<S>>> {
    /// A clonable handle onto the stack's fault-injection schedule — the
    /// live chaos channel for tests and harnesses. Faults land *below* the
    /// checksum layer, so injected silent damage is detected like real bit
    /// rot.
    pub fn fault_handle(&self) -> pagestore::FaultHandle {
        self.index.tree().pool().store_lock().inner().handle()
    }
}

/// Bulk-load a new index tree over `store` into freshly allocated pages of
/// `pool`, and verify it. Reads no page but its own.
pub(crate) fn build_index<P: PageStore>(
    pool: &Arc<BufferPool<P>>,
    config: BTreeConfig,
    encoding: Encoding,
    store: &ObjectStore,
    specs: Vec<IndexSpec>,
) -> Result<UIndex<P>> {
    let mut index = UIndex::new(pool.clone(), config, encoding)?;
    for spec in specs {
        index.define(store.schema(), spec)?;
    }
    index.build_all(store)?;
    index.verify()?;
    Ok(index)
}

// ----- integrity: check / degraded queries -----------------------------------

impl<P: Scrubbable> Database<P> {
    /// Scrub every live index page, verify the B-tree structurally, and
    /// cross-check its entries against a recomputation from the object
    /// store. A clean check lifts an existing quarantine; a failed one
    /// imposes it, so queries degrade instead of trusting damaged pages.
    pub fn check(&mut self) -> Result<CheckReport> {
        // Make the backing store authoritative, then drop the cache so the
        // scrub and the verification below actually re-read (and re-verify)
        // every page instead of being served stale frames.
        let pool = self.index.tree().pool();
        pool.flush()?;
        pool.invalidate_cache()?;
        let scrub = pool.store_lock().scrub_pages();

        let tree_error = if scrub.clean() {
            match self.index.verify() {
                Ok(_) => None,
                Err(e) => Some(e.to_string()),
            }
        } else {
            Some("scrub found damaged pages".to_string())
        };

        let content_ok = tree_error.is_none() && self.content_matches_store()?;

        let quarantined = !(scrub.clean() && tree_error.is_none() && content_ok);
        self.quarantined.store(quarantined, Ordering::Release);
        if quarantined {
            telemetry::counter("uindex.degraded.quarantines").inc();
        }
        Ok(CheckReport {
            scrub,
            tree_error,
            content_ok,
            quarantined,
        })
    }
}

impl<P: PageStore> Database<P> {
    /// Compare the tree's entry keys with a fresh recomputation from the
    /// object store.
    fn content_matches_store(&self) -> Result<bool> {
        let planner = self.planner();
        let mut expected = Vec::new();
        // Each index's keys ascend and start with its id, so the
        // concatenation is in the tree's order.
        for id in 0..self.index.specs().len() as IndexId {
            expected.push(planner.all_keys(&self.store, id)?);
        }
        let tree = self.index.tree().view().scan_all()?;
        let tree = tree.iter().map(|(k, _)| k.as_slice());
        Ok(tree.eq(expected.iter().flat_map(KeyBuffer::iter)))
    }

    /// Run `q` on the live tree through the one guarded read path, with the
    /// object store and the quarantine flag as its fallback, handing every
    /// match to `sink`: corruption quarantines the index and answers
    /// degraded, exhausted I/O answers degraded without a quarantine, a
    /// quarantined index is not read, and a query the planner refuses is
    /// refused either way. The returned flag reports whether the degraded
    /// path answered. The run is timed as a `query` span with a `plan`
    /// child (the scan adds `descend` and `scan`), which lands in the trace
    /// of an answer the index gave.
    pub fn query_traced_guarded<K: RowSink>(
        &self,
        q: &Query,
        sink: &mut K,
    ) -> Result<(QueryTrace, bool)> {
        let planner = self.planner();
        let fallback = Fallback {
            planner,
            store: &self.store,
            quarantined: &self.quarantined,
        };
        let view = self.index.tree().view();
        let root = telemetry::Span::enter("query");
        let matcher = {
            let _plan = telemetry::Span::enter("plan");
            planner.matcher(q)
        };
        let result = run_guarded(&view, matcher, Some(fallback), q, sink);
        drop(root);
        // The freshly closed "query" root is the last finished span; keep it
        // in the trace and drop older undrained roots.
        let span = telemetry::take_spans()
            .into_iter()
            .rev()
            .find(|s| s.name == "query");
        let (mut trace, degraded) = result?;
        if !degraded {
            trace.span = span;
        }
        Ok((trace, degraded))
    }

    // ----- queries ---------------------------------------------------------

    /// Run a query, returning the hits.
    pub fn query(&self, q: &Query) -> Result<Vec<QueryHit>> {
        Ok(self.query_with_stats(q)?.0)
    }

    /// Parse and run a [`crate::uql`] query string.
    pub fn query_uql(&self, input: &str) -> Result<(Vec<QueryHit>, ScanStats)> {
        let q = crate::uql::parse(self.planner(), input)?;
        self.query_with_stats(&q)
    }

    /// Run a query, returning hits and scan cost counters.
    pub fn query_with_stats(&self, q: &Query) -> Result<(Vec<QueryHit>, ScanStats)> {
        let mut hits = Vec::new();
        let (trace, _) = self.query_traced_guarded(q, &mut hits)?;
        Ok((hits, trace.stats))
    }

    /// Execute `q` and build an EXPLAIN ANALYZE report: the translated plan
    /// plus the executed [`crate::QueryTrace`].
    pub fn explain_query(&self, q: &Query) -> Result<crate::ExplainReport> {
        crate::explain::explain(self, q)
    }

    /// Parse a [`crate::uql`] string (an optional leading `explain analyze`
    /// is accepted and stripped) and build an EXPLAIN ANALYZE report.
    pub fn explain_uql(&self, input: &str) -> Result<crate::ExplainReport> {
        let stripped = strip_explain_prefix(input);
        let q = crate::uql::parse(self.planner(), stripped)?;
        self.explain_query(&q)
    }
}

/// Strip a case-insensitive leading `explain analyze` / `explain`, so both
/// `explain analyze color: ...` and a bare query string reach the parser.
fn strip_explain_prefix(input: &str) -> &str {
    let trimmed = input.trim_start();
    for kw in ["explain analyze", "explain"] {
        // Compare bytes: `kw.len()` need not fall on a char boundary of
        // `trimmed`, and an ASCII match means it does.
        let head = trimmed.as_bytes().get(..kw.len());
        if head.is_some_and(|h| h.eq_ignore_ascii_case(kw.as_bytes())) {
            let rest = &trimmed[kw.len()..];
            // Keyword must end at a word boundary ("explainx" is not it).
            if rest.starts_with(char::is_whitespace) {
                return rest.trim_start();
            }
        }
    }
    trimmed
}
