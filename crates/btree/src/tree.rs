//! The B+-tree proper: create, get, insert, delete with rebalancing — plus
//! the shared-state layer that lets many reader threads run against
//! published snapshots while a single writer mutates.
//!
//! # Concurrency model (DESIGN.md §12)
//!
//! A tree is split into a **writer handle** ([`BTree`], `&mut` for
//! mutations) and any number of **reader handles** ([`TreeReader`],
//! `Clone + Send`). The writer mutates pages in place and, at points of its
//! choosing, [`BTree::publish`]es its root/len/epoch; readers open
//! [`TreeSnapshot`]s of the last published state and scan them through a
//! [`crate::ReadView`] without any coordination with the writer beyond a
//! per-page version lookup.
//!
//! Page ids stay stable across mutations (no copy-on-write page chains — the
//! leaf `next` pointers survive). Instead, the first time a *published* page
//! is rewritten or freed after a publish, its pre-image is preserved in a
//! [`SnapshotTracker`] version store tagged with the epoch it was valid
//! through — in the form readers use: a leaf's bytes, an interior's decoded
//! node. A snapshot reader at epoch `e` resolves a page by taking the
//! oldest preserved version with `valid_through >= e`, else reading the live
//! frame — and then re-checking the version store, which closes the race
//! with a writer that preserved-and-mutated in between (preservation
//! happens-before mutation, so a miss on the re-check proves the bytes read
//! predate any mutation).
//!
//! Frees of published pages are deferred: the page id is queued with the
//! epoch it was valid through and only returned to the store once no active
//! snapshot can reach it (reclamation runs at publish). Pages allocated
//! since the last publish are invisible to every snapshot and are freed
//! immediately.
//!
//! Snapshot mode is **opt-in** ([`BTree::enable_snapshots`]): preservation
//! must be unconditional once readers may exist (a snapshot can be opened
//! at the current published epoch at any time), so single-threaded users —
//! the baselines, most tests — pay nothing.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use pagestore::{BufferPool, Error, PageId, PageRef, PageStore, Result};

use crate::config::BTreeConfig;
use crate::edit::{LeafEdit, LeafEditor};
use crate::node::{Encode, EntrySize, InternalNode, LeafNode, NodeKind, TAG_LEAF};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Registry handles, resolved once per thread so hot-path increments are a
/// single unshared store (catalog in DESIGN.md §9). Thread-local because
/// each thread counts into its own telemetry registry; a `telemetry::Group`
/// adds threads up.
pub(crate) struct TreeMetrics {
    pub(crate) seek_descents: telemetry::Counter,
    pub(crate) seek_nodes: telemetry::Counter,
    /// Reseeks by resolution level: within-leaf, LCA re-descent, full seek.
    pub(crate) reseek_leaf: telemetry::Counter,
    pub(crate) reseek_lca: telemetry::Counter,
    pub(crate) reseek_full: telemetry::Counter,
    pub(crate) splits: telemetry::Counter,
    pub(crate) merges: telemetry::Counter,
    /// Inserts, replaces and deletes written into a leaf where it lies.
    pub(crate) leaf_edits: telemetry::Counter,
    /// Leaves the writer decoded into a `LeafNode` and wrote back whole.
    pub(crate) leaf_reencodes: telemetry::Counter,
    /// Snapshot reads served from the version store instead of live frames.
    pub(crate) version_reads: telemetry::Counter,
    /// Pre-images preserved into the version store.
    pub(crate) preserved: telemetry::Counter,
    /// Frees deferred because a snapshot may still reach the page.
    pub(crate) deferred_frees: telemetry::Counter,
}

impl TreeMetrics {
    fn new() -> Self {
        TreeMetrics {
            seek_descents: telemetry::counter("btree.seek.descents"),
            seek_nodes: telemetry::counter("btree.seek.nodes_fetched"),
            reseek_leaf: telemetry::counter("btree.reseek.leaf"),
            reseek_lca: telemetry::counter("btree.reseek.lca"),
            reseek_full: telemetry::counter("btree.reseek.full"),
            splits: telemetry::counter("btree.splits"),
            merges: telemetry::counter("btree.merges"),
            leaf_edits: telemetry::counter("btree.leaf.in_place_edits"),
            leaf_reencodes: telemetry::counter("btree.leaf.reencodes"),
            version_reads: telemetry::counter("btree.snapshot.version_reads"),
            preserved: telemetry::counter("btree.snapshot.preserved"),
            deferred_frees: telemetry::counter("btree.snapshot.deferred_frees"),
        }
    }
}

thread_local! {
    static TREE_METRICS: TreeMetrics = TreeMetrics::new();
}

pub(crate) fn metrics<R>(f: impl FnOnce(&TreeMetrics) -> R) -> R {
    TREE_METRICS.with(f)
}

/// A page as a descent reads it: an interior node, decoded for routing's
/// binary search, or whatever the reader made of a leaf's bytes.
#[derive(Clone)]
pub(crate) enum Loaded<L> {
    Interior(Arc<InternalNode>),
    Leaf(L),
}

impl<L> Loaded<L> {
    /// The same page with its leaf's form turned into another by `leaf`.
    pub(crate) fn map_leaf<R>(self, leaf: impl FnOnce(L) -> Result<R>) -> Result<Loaded<R>> {
        Ok(match self {
            Loaded::Interior(node) => Loaded::Interior(node),
            Loaded::Leaf(l) => Loaded::Leaf(leaf(l)?),
        })
    }
}

/// Read `page` under one shared lock on its bytes: a leaf's go to `leaf`,
/// an interior comes from — or goes into — the frame's decode cache. This
/// is the only place a decode is cached, and only an interior's: readers
/// walk leaves in place, and the writer rewrites nearly every leaf it
/// loads, which would drop a cached decode again at once.
pub(crate) fn load_page<L>(
    page: &PageRef,
    leaf: impl FnOnce(&[u8]) -> Result<L>,
) -> Result<Loaded<L>> {
    let bytes = page.read();
    if bytes.first() == Some(&TAG_LEAF) {
        Ok(Loaded::Leaf(leaf(&bytes)?))
    } else {
        Ok(Loaded::Interior(bytes.get_or_decode(InternalNode::decode)?))
    }
}

/// A page in the form readers use, which is the form the version store
/// keeps pre-images in: a leaf's bytes, for a [`crate::LeafWalker`] to
/// copy like a live frame's, or an interior's decoded node.
pub(crate) type ReadForm = Loaded<Arc<[u8]>>;

/// The root/len/epoch triple visible to readers, swapped atomically by
/// [`BTree::publish`].
#[derive(Clone, Copy)]
pub(crate) struct Published {
    pub(crate) root: PageId,
    pub(crate) len: u64,
    pub(crate) epoch: u64,
}

/// One preserved pre-image: the page as it stood at every publish up to
/// and including epoch `valid_through`, in the form readers use.
struct VersionedNode {
    valid_through: u64,
    page: ReadForm,
}

#[derive(Default)]
struct TrackInner {
    /// Active snapshot refcounts by epoch (BTreeMap so the minimum — the
    /// reclamation horizon — is O(1)).
    active: BTreeMap<u64, usize>,
    /// Preserved pre-images, per page in ascending `valid_through` order.
    versions: HashMap<PageId, Vec<VersionedNode>>,
    /// Freed pages still reachable from snapshots at epoch <= `.0`.
    pending_free: Vec<(u64, PageId)>,
}

/// Snapshot bookkeeping shared between the writer and all readers: active
/// snapshot epochs, preserved node versions, and the deferred free list.
pub struct SnapshotTracker {
    inner: Mutex<TrackInner>,
    /// Lock-free fast path: readers skip the mutex entirely while the
    /// version store is empty (the common case — an idle or absent writer).
    nversions: AtomicUsize,
    enabled: AtomicBool,
}

impl SnapshotTracker {
    fn new() -> Self {
        SnapshotTracker {
            inner: Mutex::new(TrackInner::default()),
            nversions: AtomicUsize::new(0),
            enabled: AtomicBool::new(false),
        }
    }

    fn register(&self, epoch: u64) {
        *lock(&self.inner).active.entry(epoch).or_insert(0) += 1;
    }

    fn unregister(&self, epoch: u64) {
        let mut inner = lock(&self.inner);
        if let Some(n) = inner.active.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                inner.active.remove(&epoch);
            }
        }
    }

    fn preserve(&self, id: PageId, valid_through: u64, page: ReadForm) {
        let mut inner = lock(&self.inner);
        let versions = inner.versions.entry(id).or_default();
        // Idempotence across publish intervals: at most one version per
        // (page, epoch); epochs only grow, so ascending order is invariant.
        if versions
            .last()
            .is_none_or(|v| v.valid_through < valid_through)
        {
            versions.push(VersionedNode {
                valid_through,
                page,
            });
            self.nversions.fetch_add(1, Ordering::Release);
        }
    }

    fn defer_free(&self, id: PageId, valid_through: u64) {
        lock(&self.inner).pending_free.push((valid_through, id));
    }

    /// The preserved version of `id` visible to a snapshot at `epoch`, if
    /// the live frame is too new for it.
    pub(crate) fn lookup(&self, id: PageId, epoch: u64) -> Option<ReadForm> {
        if self.nversions.load(Ordering::Acquire) == 0 {
            return None;
        }
        let inner = lock(&self.inner);
        let versions = inner.versions.get(&id)?;
        versions
            .iter()
            .find(|v| v.valid_through >= epoch)
            .map(|v| v.page.clone())
    }

    /// Drop versions no active snapshot can need and drain the deferred
    /// frees that are past the reclamation horizon. The caller (the writer,
    /// at publish) frees the returned pages outside the tracker mutex.
    ///
    /// Retention is exact, not horizon-based: a snapshot at epoch `e`
    /// resolves a page to its first version with `valid_through >= e`, so a
    /// version is needed only when some *active* epoch falls in the
    /// half-open interval `(previous version's valid_through, its own
    /// valid_through]`. A long-lived snapshot therefore pins at most one
    /// version per page it can reach — not one per publish interval it
    /// survives — which keeps a server reader held across many writer
    /// epochs at O(pages) footprint instead of O(epochs).
    fn collect_reclaimable(&self) -> Vec<PageId> {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        let mut inner = lock(&self.inner);
        let TrackInner {
            active,
            versions,
            pending_free,
        } = &mut *inner;
        versions.retain(|_, versions| {
            // `prev` tracks the *original* predecessor bound: dropping an
            // unneeded version never widens a survivor's interval, so the
            // exactness argument above stays valid case by case.
            let mut prev: Option<u64> = None;
            versions.retain(|v| {
                let lo = prev;
                prev = Some(v.valid_through);
                match lo {
                    None => active.range(..=v.valid_through).next().is_some(),
                    Some(lo) => active
                        .range((Excluded(lo), Included(v.valid_through)))
                        .next()
                        .is_some(),
                }
            });
            !versions.is_empty()
        });
        let remaining: usize = versions.values().map(Vec::len).sum();
        self.nversions.store(remaining, Ordering::Release);
        let mut freed = Vec::new();
        pending_free.retain(|(valid_through, id)| {
            let reachable = active
                .range((Unbounded, Included(*valid_through)))
                .next()
                .is_some();
            if !reachable {
                freed.push(*id);
            }
            reachable
        });
        freed
    }

    /// Number of currently open snapshots (test/diagnostic hook).
    pub fn active_snapshots(&self) -> usize {
        lock(&self.inner).active.values().sum()
    }

    /// Number of preserved node versions (test/diagnostic hook).
    pub fn version_count(&self) -> usize {
        self.nversions.load(Ordering::Acquire)
    }

    /// Number of deferred (not yet reclaimed) page frees (test hook).
    pub fn pending_frees(&self) -> usize {
        lock(&self.inner).pending_free.len()
    }
}

/// State shared by the writer and every reader handle.
pub(crate) struct TreeShared<S: PageStore> {
    pub(crate) pool: Arc<BufferPool<S>>,
    pub(crate) published: RwLock<Published>,
    pub(crate) tracker: Arc<SnapshotTracker>,
    pub(crate) config: BTreeConfig,
}

/// A cloneable, `Send` handle for opening read snapshots of a tree whose
/// writer lives on another thread. Obtained from [`BTree::reader`]; requires
/// [`BTree::enable_snapshots`] to have been called.
pub struct TreeReader<S: PageStore> {
    pub(crate) shared: Arc<TreeShared<S>>,
}

impl<S: PageStore> Clone for TreeReader<S> {
    fn clone(&self) -> Self {
        TreeReader {
            shared: self.shared.clone(),
        }
    }
}

impl<S: PageStore> TreeReader<S> {
    /// Open a snapshot of the last published tree state. The snapshot pins
    /// its epoch: pages it can reach are not reclaimed until it drops.
    ///
    /// # Panics
    /// Panics if the writer never called [`BTree::enable_snapshots`] —
    /// without preservation a snapshot would silently read torn state.
    pub fn snapshot(&self) -> TreeSnapshot {
        let tracker = &self.shared.tracker;
        assert!(
            tracker.enabled.load(Ordering::Acquire),
            "TreeReader::snapshot on a tree without enable_snapshots()"
        );
        // Register under the published read lock: publish() cannot swap in
        // a new epoch (and prune ours) between the read and the register.
        let p = self
            .shared
            .published
            .read()
            .unwrap_or_else(|e| e.into_inner());
        tracker.register(p.epoch);
        TreeSnapshot {
            root: p.root,
            len: p.len,
            guard: SnapGuard {
                tracker: tracker.clone(),
                epoch: p.epoch,
            },
        }
    }

    /// The buffer pool under the tree (statistics, `begin_query`).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.shared.pool
    }

    /// The tree's configuration.
    pub fn config(&self) -> &BTreeConfig {
        &self.shared.config
    }

    /// The snapshot tracker (diagnostics).
    pub fn tracker(&self) -> &SnapshotTracker {
        &self.shared.tracker
    }
}

/// RAII registration of one snapshot epoch in the tracker.
struct SnapGuard {
    tracker: Arc<SnapshotTracker>,
    epoch: u64,
}

impl Drop for SnapGuard {
    fn drop(&mut self) {
        self.tracker.unregister(self.epoch);
    }
}

/// A consistent read-only view of the tree as of its last publish. Holding
/// a snapshot keeps every page it can reach alive; drop it promptly once
/// the scan is done. Read through [`TreeReader::read`].
pub struct TreeSnapshot {
    pub(crate) root: PageId,
    pub(crate) len: u64,
    guard: SnapGuard,
}

impl TreeSnapshot {
    /// Number of entries at the snapshot's epoch.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root page id at the snapshot's epoch.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// The mutation epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.guard.epoch
    }
}

pub(crate) enum Ins {
    Done(Option<Vec<u8>>),
    Split {
        sep: Vec<u8>,
        right: PageId,
        old: Option<Vec<u8>>,
    },
}

enum Del {
    NotFound,
    Done(Vec<u8>),
    Underflow(Vec<u8>),
}

/// A B+-tree over a buffer pool: the single-writer handle. See the crate
/// docs for the feature set and the module docs for the concurrency model.
pub struct BTree<S: PageStore> {
    pub(crate) shared: Arc<TreeShared<S>>,
    pub(crate) config: BTreeConfig,
    pub(crate) root: PageId,
    len: u64,
    /// Structural mutation counter; retained cursor paths are valid only
    /// while this is unchanged (see `ReadView::reseek`), and publishes
    /// stamp it into the snapshot state.
    epoch: u64,
    /// `epoch` as of the last [`BTree::publish`] — the tag preserved
    /// pre-images carry.
    last_published: u64,
    /// Pages allocated since the last publish: invisible to every
    /// snapshot, so they are mutated and freed without preservation.
    fresh: HashSet<PageId>,
    /// Pages whose pre-image was already preserved this publish interval
    /// (at most one preservation per page per interval).
    preserved: HashSet<PageId>,
    snapshots: bool,
}

impl<S: PageStore> BTree<S> {
    fn attach(pool: Arc<BufferPool<S>>, config: BTreeConfig, root: PageId, len: u64) -> Self {
        let shared = Arc::new(TreeShared {
            pool,
            published: RwLock::new(Published {
                root,
                len,
                epoch: 0,
            }),
            tracker: Arc::new(SnapshotTracker::new()),
            config,
        });
        BTree {
            shared,
            config,
            root,
            len,
            epoch: 0,
            last_published: 0,
            fresh: HashSet::new(),
            preserved: HashSet::new(),
            snapshots: false,
        }
    }

    /// Create an empty tree in `pool`: a pool of its own, or an `Arc` of one
    /// other structures live in too. Each tree owns the pages it allocates;
    /// a shared pool and its store are common ground.
    pub fn create(pool: impl Into<Arc<BufferPool<S>>>, config: BTreeConfig) -> Result<Self> {
        let pool = pool.into();
        let (root, page) = pool.allocate()?;
        LeafNode::new(PageId::NULL).encode(&mut page.write(), config.front_compression)?;
        drop(page);
        Ok(Self::attach(pool, config, root, 0))
    }

    /// Re-attach to an existing tree rooted at `root` holding `len` entries
    /// (the caller is responsible for persisting those two facts).
    pub fn open(
        pool: impl Into<Arc<BufferPool<S>>>,
        config: BTreeConfig,
        root: PageId,
        len: u64,
    ) -> Self {
        Self::attach(pool.into(), config, root, len)
    }

    /// Turn on snapshot preservation, publish the current state, and allow
    /// [`TreeReader::snapshot`]. Before this call the tree does zero
    /// snapshot bookkeeping; after it, every rewrite of a published page
    /// preserves its pre-image (a snapshot at the current published epoch
    /// may be opened at any time).
    pub fn enable_snapshots(&mut self) {
        self.snapshots = true;
        self.shared.tracker.enabled.store(true, Ordering::Release);
        self.publish()
            .expect("publish cannot fail with no pending frees");
    }

    /// Publish the writer's current root/len/epoch for readers: snapshots
    /// opened after this call observe everything up to here. Also prunes
    /// version-store entries no snapshot can need and reclaims deferred
    /// frees past the reclamation horizon.
    pub fn publish(&mut self) -> Result<()> {
        {
            let mut p = self
                .shared
                .published
                .write()
                .unwrap_or_else(|e| e.into_inner());
            *p = Published {
                root: self.root,
                len: self.len,
                epoch: self.epoch,
            };
        }
        self.last_published = self.epoch;
        self.fresh.clear();
        self.preserved.clear();
        for id in self.shared.tracker.collect_reclaimable() {
            self.shared.pool.free(id)?;
        }
        Ok(())
    }

    /// A cloneable, `Send` handle for reader threads. Readers only see
    /// published state — call [`BTree::publish`] after mutating.
    pub fn reader(&self) -> TreeReader<S> {
        TreeReader {
            shared: self.shared.clone(),
        }
    }

    /// The snapshot tracker (diagnostics and tests).
    pub fn tracker(&self) -> &SnapshotTracker {
        &self.shared.tracker
    }

    /// Current structural-mutation epoch. Bumped by every insert, delete,
    /// and bulk load; cursors record it at descent time so `reseek` can
    /// detect that a retained path went stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// The tree's configuration.
    pub fn config(&self) -> &BTreeConfig {
        &self.config
    }

    /// The underlying buffer pool (statistics, `begin_query`, flushes —
    /// the pool API is `&self` throughout).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.shared.pool
    }

    /// A shared handle to the buffer pool, e.g. to build a replacement
    /// tree in the same pool.
    pub fn pool_arc(&self) -> Arc<BufferPool<S>> {
        self.shared.pool.clone()
    }

    /// Consume the tree, returning its buffer pool without flushing —
    /// crash-simulation tests use this to drop dirty frames on the floor.
    /// Reconstruct later with [`BTree::open`] and the saved root and len.
    ///
    /// # Panics
    /// Panics if reader handles or snapshots are still alive.
    pub fn into_pool(self) -> BufferPool<S> {
        let shared = match Arc::try_unwrap(self.shared) {
            Ok(s) => s,
            Err(_) => panic!("BTree::into_pool with live reader handles"),
        };
        match Arc::try_unwrap(shared.pool) {
            Ok(p) => p,
            Err(_) => panic!("BTree::into_pool with live pool handles"),
        }
    }

    /// Largest `key.len() + value.len()` accepted by [`BTree::insert`].
    ///
    /// A third of a page guarantees a valid split always exists (two
    /// maximal entries per half) while still admitting sizeable inline
    /// values such as the CG-tree's 40-set directory records.
    pub fn max_entry_size(&self) -> usize {
        self.pool().page_size() / 3
    }

    pub(crate) fn set_root_len(&mut self, root: PageId, len: u64) {
        self.root = root;
        self.len = len;
    }

    /// Load a node for the write path: an interior from the frame's decode
    /// cache, a leaf decoded afresh (readers walk leaves in place).
    pub(crate) fn load(&self, id: PageId) -> Result<Loaded<LeafNode>> {
        load_page(&self.shared.pool.fetch(id)?, LeafNode::decode)
    }

    /// Fetch `id` for a writer's descent: an interior from the frame's
    /// decode cache, a leaf as its page, to edit where it lies.
    pub(crate) fn descend(&self, id: PageId) -> Result<Loaded<PageRef>> {
        let page = self.shared.pool.fetch(id)?;
        load_page(&page, |_| Ok(()))?.map_leaf(|()| Ok(page))
    }

    /// Overwrite `id` with `node`, preserving the pre-image into the
    /// version store if this is the first write to a published page since
    /// the last publish.
    pub(crate) fn store<N: Encode>(&mut self, id: PageId, node: &N) -> Result<()> {
        let page = self.shared.pool.fetch(id)?;
        self.preserve(id, &page)?;
        let mut bytes = page.write();
        node.encode(&mut bytes, self.config.front_compression)
    }

    /// [`BTree::store`] for a node a split, merge or redistribution wrote
    /// whole; a leaf counts as one the writer re-encoded.
    fn rewrite<N: NodeKind>(&mut self, id: PageId, node: &N) -> Result<()> {
        if !N::PROMOTES {
            metrics(|m| m.leaf_reencodes.inc());
        }
        self.store(id, node)
    }

    /// Apply `edit`, planned by `editor` on the leaf `page` (`id`), where
    /// the leaf lies, preserving its pre-image as [`BTree::store`] does.
    /// Returns the value the edit replaced or removed.
    pub(crate) fn edit_leaf(
        &mut self,
        id: PageId,
        page: &PageRef,
        editor: &mut LeafEditor,
        edit: LeafEdit<'_>,
    ) -> Result<Option<Vec<u8>>> {
        self.preserve(id, page)?;
        let old = editor.apply(&mut page.write(), edit)?;
        metrics(|m| m.leaf_edits.inc());
        Ok(old)
    }

    /// Before the first write to a published page since the last publish,
    /// keep its pre-image in the version store.
    fn preserve(&mut self, id: PageId, page: &PageRef) -> Result<()> {
        if self.snapshots && !self.fresh.contains(&id) && !self.preserved.contains(&id) {
            let old = load_page(page, |bytes| Ok(Arc::from(bytes)))?;
            self.shared.tracker.preserve(id, self.last_published, old);
            self.preserved.insert(id);
            metrics(|m| m.preserved.inc());
        }
        Ok(())
    }

    /// Free a page. Published pages are preserved and their free deferred
    /// until no snapshot can reach them; pages allocated since the last
    /// publish are freed immediately (no snapshot ever saw them).
    pub(crate) fn free_page(&mut self, id: PageId) -> Result<()> {
        if self.snapshots && !self.fresh.contains(&id) {
            if !self.preserved.contains(&id) {
                let page = self.shared.pool.fetch(id)?;
                self.preserve(id, &page)?;
            }
            self.shared.tracker.defer_free(id, self.last_published);
            metrics(|m| m.deferred_frees.inc());
            return Ok(());
        }
        self.fresh.remove(&id);
        self.shared.pool.free(id)
    }

    /// Allocate a page, recording it as invisible to snapshots.
    pub(crate) fn allocate_page(&mut self) -> Result<(PageId, PageRef)> {
        let (id, page) = self.shared.pool.allocate()?;
        if self.snapshots {
            self.fresh.insert(id);
        }
        Ok((id, page))
    }

    pub(crate) fn page_size(&self) -> usize {
        self.pool().page_size()
    }

    /// Whether `node` fits its page.
    pub(crate) fn fits<N: NodeKind>(&self, node: &N) -> bool {
        let size = node.encoded_size(self.config.front_compression);
        self.config.fits(node.count(), size, self.page_size())
    }

    /// Whether `node`, not the root, should be rebalanced.
    pub(crate) fn underfull<N: NodeKind>(&self, node: &N) -> bool {
        let size = node.encoded_size(self.config.front_compression);
        self.config.underfull(node.count(), size, self.page_size())
    }

    /// Where to split the over-full `node` (see [`BTreeConfig::split_point`]).
    pub(crate) fn split_point<N: NodeKind>(&self, node: &N) -> Result<usize> {
        let compress = self.config.front_compression;
        let mut sizes = Vec::with_capacity(node.count());
        let mut prev: &[u8] = &[];
        for i in 0..node.count() {
            let (key, value_len) = node.entry(i);
            sizes.push(EntrySize::of(prev, key, value_len, compress));
            prev = key;
        }
        let page_size = self.page_size();
        self.config
            .split_point(&sizes, N::HEADER, N::PROMOTES, page_size)
    }

    /// Join `left` and `right`, its next sibling on page `right_id`, across
    /// `between`: `None` when all fit `left`, else `left` keeps the entries
    /// before the split point and the separator and right half return.
    pub(crate) fn join<N: NodeKind>(
        &self,
        left: &mut N,
        between: &[u8],
        right: &N,
        right_id: PageId,
    ) -> Result<Option<(Vec<u8>, N)>> {
        left.absorb(between, right);
        if self.fits(left) {
            return Ok(None);
        }
        let at = self.split_point(left)?;
        Ok(Some(left.split(at, right_id, &self.config)))
    }

    // ----- insert -------------------------------------------------------

    /// Insert `key` → `value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        if key.len() + value.len() > self.max_entry_size() {
            return Err(Error::EntryTooLarge {
                len: key.len() + value.len(),
                max: self.max_entry_size(),
            });
        }
        self.bump_epoch();
        let old = match self.insert_rec(self.root, key, value)? {
            Ins::Done(old) => old,
            Ins::Split { sep, right, old } => {
                // Grow the tree: new root with the old root and the new
                // right sibling as children.
                let (new_root, page) = self.allocate_page()?;
                let mut node = InternalNode::new(self.root);
                node.push(&sep, right);
                node.encode(&mut page.write(), self.config.front_compression)?;
                self.root = new_root;
                old
            }
        };
        if old.is_none() {
            self.len += 1;
        }
        Ok(old)
    }

    fn insert_rec(&mut self, id: PageId, key: &[u8], value: &[u8]) -> Result<Ins> {
        // Only the node that changes is written: the leaf always, in place
        // unless it splits, an interior node (copied out of the decode
        // cache) when its child split.
        let int = match self.descend(id)? {
            Loaded::Leaf(page) => return self.insert_leaf(id, &page, key, value),
            Loaded::Interior(int) => int,
        };
        let ci = int.route(key);
        match self.insert_rec(int.child(ci), key, value)? {
            Ins::Split { sep, right, old } => {
                let mut int = Arc::unwrap_or_clone(int);
                int.insert_at(ci, &sep, right);
                if self.fits(&int) {
                    self.store(id, &int)?;
                    return Ok(Ins::Done(old));
                }
                let at = self.split_point(&int)?;
                let (sep, right) = self.split(id, int, at)?;
                Ok(Ins::Split { sep, right, old })
            }
            done => Ok(done),
        }
    }

    /// Put `key` → `value` into the leaf `page` (`id`): in place when the
    /// leaf still fits its page, else split through the decoded node.
    fn insert_leaf(&mut self, id: PageId, page: &PageRef, key: &[u8], value: &[u8]) -> Result<Ins> {
        let bytes = page.read();
        let mut editor = LeafEditor::open(&bytes, &self.config)?;
        if let Some(edit) = editor.put(&bytes, key, value)? {
            drop(bytes);
            return Ok(Ins::Done(self.edit_leaf(id, page, &mut editor, edit)?));
        }
        let mut leaf = LeafNode::decode(&bytes)?;
        drop(bytes);
        let old = match leaf.search(key) {
            Ok(i) => {
                let old = leaf.value(i).to_vec();
                leaf.set_value(i, value);
                Some(old)
            }
            Err(i) => {
                leaf.insert_at(i, key, value);
                None
            }
        };
        // An append to the tree's last leaf moves only the new entry when
        // asked to: ascending loads then leave full leaves behind instead
        // of half-empty ones.
        let last = leaf.len() - 1;
        let appended = old.is_none() && leaf.next.is_null() && leaf.key(last) == key;
        let at = (self.config.append_split && appended && last > 0).then_some(last);
        let at = at.map_or_else(|| self.split_point(&leaf), Ok)?;
        let (sep, right) = self.split(id, leaf, at)?;
        Ok(Ins::Split { sep, right, old })
    }

    /// Split the over-full node `n` of page `id` at `at` onto a new right
    /// sibling: its page, and the separator the parent gets between them.
    fn split<N: NodeKind>(&mut self, id: PageId, mut n: N, at: usize) -> Result<(Vec<u8>, PageId)> {
        let (right, _) = self.allocate_page()?;
        let (sep, right_node) = n.split(at, right, &self.config);
        self.rewrite(id, &n)?;
        self.rewrite(right, &right_node)?;
        metrics(|m| m.splits.inc());
        Ok((sep, right))
    }

    // ----- delete -------------------------------------------------------

    /// Remove `key`, returning its value if it was present.
    pub fn delete(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.bump_epoch();
        let result = self.delete_rec(self.root, key)?;
        let old = match result {
            Del::NotFound => return Ok(None),
            Del::Done(v) | Del::Underflow(v) => v,
        };
        self.len -= 1;
        // Collapse the root if it became a pass-through interior node.
        if let Loaded::Interior(int) = self.descend(self.root)? {
            if int.is_empty() {
                let old_root = self.root;
                self.root = int.child(0);
                self.free_page(old_root)?;
            }
        }
        Ok(Some(old))
    }

    fn delete_rec(&mut self, id: PageId, key: &[u8]) -> Result<Del> {
        let int = match self.descend(id)? {
            Loaded::Leaf(page) => {
                // In place: an underfull leaf is merged or refilled by its
                // parent, from the bytes this leaves.
                let bytes = page.read();
                let mut editor = LeafEditor::open(&bytes, &self.config)?;
                let Some(edit) = editor.remove(&bytes, key)? else {
                    return Ok(Del::NotFound);
                };
                drop(bytes);
                let old = self.edit_leaf(id, &page, &mut editor, edit)?;
                let old = old.expect("a remove returns the value it removed");
                return Ok(if editor.underfull() {
                    Del::Underflow(old)
                } else {
                    Del::Done(old)
                });
            }
            Loaded::Interior(int) => int,
        };
        let ci = int.route(key);
        match self.delete_rec(int.child(ci), key)? {
            Del::Underflow(v) => {
                let mut int = Arc::unwrap_or_clone(int);
                self.rebalance_child(&mut int, ci)?;
                let under = self.underfull(&int);
                self.store(id, &int)?;
                Ok(if under {
                    Del::Underflow(v)
                } else {
                    Del::Done(v)
                })
            }
            other => Ok(other),
        }
    }

    /// Fix up an underfull child of `int` at position `ci` by merging with or
    /// redistributing from an adjacent sibling. `int` is mutated in place;
    /// the caller stores it.
    fn rebalance_child(&mut self, int: &mut InternalNode, ci: usize) -> Result<()> {
        if int.is_empty() {
            return Ok(()); // no sibling (root child chain); nothing to do
        }
        // Pair the underfull child with its left sibling when possible so we
        // always merge right-into-left.
        let li = ci.saturating_sub(1);
        match (self.load(int.child(li))?, self.load(int.child(li + 1))?) {
            (Loaded::Leaf(left), Loaded::Leaf(right)) => self.merge_or_share(int, li, left, &right),
            (Loaded::Interior(left), Loaded::Interior(right)) => {
                self.merge_or_share(int, li, Arc::unwrap_or_clone(left), &right)
            }
            _ => Err(Error::Corrupt("sibling nodes at different levels".into())),
        }
    }

    /// Merge `left` and `right`, the decoded children `li` and `li + 1` of
    /// `int`, into the left one when their entries fit one node, else share
    /// the entries between the two.
    fn merge_or_share<N: NodeKind>(
        &mut self,
        int: &mut InternalNode,
        li: usize,
        mut left: N,
        right: &N,
    ) -> Result<()> {
        let (left_id, right_id) = (int.child(li), int.child(li + 1));
        let shared = self.join(&mut left, int.sep(li), right, right_id)?;
        self.rewrite(left_id, &left)?;
        match shared {
            Some((sep, right)) => {
                self.rewrite(right_id, &right)?;
                int.set_sep(li, &sep);
            }
            None => {
                self.free_page(right_id)?;
                int.remove_at(li);
                metrics(|m| m.merges.inc());
            }
        }
        Ok(())
    }
}
