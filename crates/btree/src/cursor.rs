//! Forward cursors over the leaf level, with hierarchical re-seeking —
//! hosted on a [`ReadView`], the `&self` read surface shared by the writer
//! handle and snapshot readers.
//!
//! A [`Cursor`] holds the decoded node of its current leaf (shared with the
//! frame-embedded decode cache), so stepping within a leaf costs no page
//! fetches; moving to the next leaf goes through the buffer pool and is
//! accounted normally.
//!
//! Beyond the leaf, a cursor *retains its descent path*: for every interior
//! node between the root and the leaf it keeps the decoded node plus the
//! index of the child it descended into. The key range of any subtree on
//! the path is read on demand from the retained nodes' own separators, so
//! a descent copies no key bytes. [`ReadView::reseek`] exploits this for
//! the skip-seeks of the paper's parallel retrieval algorithm
//! (Algorithm 1): instead of paying a full root-to-leaf descent per skip,
//! it
//!
//! 1. resolves the target *inside the current leaf* when the leaf's fence
//!    interval covers it (zero page fetches, zero allocations),
//! 2. otherwise walks *up* the retained path to the lowest common ancestor
//!    whose key range covers the target and re-descends from there,
//!    fetching only the nodes below the LCA (the retained ancestors are
//!    not re-fetched, exactly like the cached leaf is not re-fetched when
//!    stepping within it),
//! 3. falls back to a fresh root descent when the cursor was invalidated
//!    by a tree mutation (detected through the tree's epoch counter).
//!
//! Because skip targets and ranges never need owned key bytes, the scan
//! hot path reads entries through [`ReadView::cursor_peek`] — slices
//! borrowed from the cursor's handle on the shared decoded leaf's arena —
//! instead of cloning every key and value it examines. [`EntryRef`] is the
//! same view with its own `Arc<Node>`, for callers that keep an entry
//! while the cursor moves; it is `Send`, so worker threads can hand scan
//! results around freely.

use std::sync::Arc;

use pagestore::{PageId, PageStore, Result};

use crate::node::{InternalNode, LeafNode, Node};
use crate::tree::{decode_node, metrics, BTree, TreeReader, TreeShared, TreeSnapshot};

/// One retained level of a cursor's descent path: an interior node plus
/// the index of the child the descent took out of it.
struct PathLevel {
    id: PageId,
    node: Arc<Node>,
    child: usize,
}

impl PathLevel {
    fn int(&self) -> &InternalNode {
        match &*self.node {
            Node::Internal(int) => int,
            Node::Leaf(_) => unreachable!("a descent retains interior nodes only"),
        }
    }
}

/// Whether the subtree reached by taking every level's child in `path`
/// covers `key`. Its range is `[lo, hi)`: `lo` the separator left of the
/// taken child at the nearest level that has one, `hi` the separator right
/// of it likewise; a side no level bounds is open (the empty path — the
/// root — covers everything).
fn covers(path: &[PathLevel], key: &[u8]) -> bool {
    let lo = path
        .iter()
        .rev()
        .find(|lvl| lvl.child > 0)
        .map(|lvl| lvl.int().sep(lvl.child - 1));
    let hi = path
        .iter()
        .rev()
        .find(|lvl| lvl.child < lvl.int().len())
        .map(|lvl| lvl.int().sep(lvl.child));
    lo.is_none_or(|lo| lo <= key) && hi.is_none_or(|hi| key < hi)
}

/// Descent accounting, carried by the cursor (each query uses one cursor,
/// so per-query stats are simply the cursor's at scan end): how many
/// root-or-LCA descents were performed and how many node fetches they
/// cost. A flat (non-hierarchical) seek always pays `height` fetches;
/// hierarchical reseeks pay only the levels below the LCA, and zero for
/// targets inside the current leaf. `depth_total / descents` is therefore
/// the average re-descent depth — the units of the paper's experiment 1
/// ("visited nodes").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeekStats {
    /// Descents that fetched at least one node (fresh seeks included).
    pub descents: u64,
    /// Total nodes fetched by those descents.
    pub depth_total: u64,
    /// Reseeks resolved inside the current leaf with no fetch at all.
    pub leaf_reseeks: u64,
}

/// A position in the leaf level of a [`BTree`].
///
/// Created by [`ReadView::seek`] (or the [`BTree`] convenience wrappers);
/// repositioned in place by [`ReadView::reseek`]. A cursor survives tree
/// mutations (reseek then falls back to a full descent), but entries read
/// before the mutation must not be assumed current.
pub struct Cursor {
    leaf: PageId,
    slot: usize,
    cached: Option<(PageId, Arc<Node>)>,
    /// Interior nodes root→parent-of-leaf from the most recent descent.
    path: Vec<PathLevel>,
    /// Whether `path` ends at the current leaf, so that its fence interval
    /// is `covers(&path, ..)`. Invalidated (set to `false`) when the cursor
    /// chains to the next leaf, because the chain walk does not know the
    /// new leaf's separators.
    fence_valid: bool,
    /// Tree mutation epoch at descent time; a mismatch voids path+fence.
    epoch: u64,
    stats: SeekStats,
}

impl Cursor {
    fn new(epoch: u64) -> Self {
        Cursor {
            leaf: PageId::NULL,
            slot: 0,
            cached: None,
            path: Vec::new(),
            fence_valid: false,
            epoch,
            stats: SeekStats::default(),
        }
    }

    /// Page ids of the retained descent path, root first (empty until the
    /// first descent). Diagnostics and test hook.
    pub fn path_pages(&self) -> Vec<PageId> {
        self.path.iter().map(|l| l.id).collect()
    }

    /// The leaf page the cursor currently points into.
    pub fn leaf_page(&self) -> PageId {
        self.leaf
    }

    /// Accumulated descent accounting since this cursor was created.
    pub fn seek_stats(&self) -> SeekStats {
        self.stats
    }

    /// The decoded node the cursor holds, if it is a leaf.
    fn cached_leaf(&self) -> Option<&LeafNode> {
        match self.cached.as_ref().map(|(_, node)| &**node) {
            Some(Node::Leaf(leaf)) => Some(leaf),
            _ => None,
        }
    }

    /// Step to the next entry (within-leaf; leaf chaining happens in
    /// [`ReadView::cursor_entry_ref`]).
    pub fn advance(&mut self) {
        self.slot += 1;
    }
}

/// A shared view of the entry under a cursor.
///
/// Holds a reference-counted handle to the decoded leaf (shared with the
/// pool's decode cache), so no key or value bytes are copied, and the view
/// is `Send`. It stays valid across subsequent seeks and cursor movement;
/// after a tree *mutation* it continues to show the pre-mutation entry.
pub struct EntryRef {
    node: Arc<Node>,
    slot: usize,
}

impl EntryRef {
    fn leaf(&self) -> &LeafNode {
        match &*self.node {
            Node::Leaf(l) => l,
            Node::Internal(_) => unreachable!("EntryRef is only built over leaves"),
        }
    }

    /// The entry's key bytes.
    pub fn key(&self) -> &[u8] {
        self.leaf().key(self.slot)
    }

    /// The entry's value bytes.
    pub fn value(&self) -> &[u8] {
        self.leaf().value(self.slot)
    }

    /// Clone the entry into owned `(key, value)` vectors.
    pub fn to_pair(&self) -> (Vec<u8>, Vec<u8>) {
        (self.key().to_vec(), self.value().to_vec())
    }
}

/// A read-only view of one tree state: either the writer's live state
/// ([`BTree::view`]) or a published snapshot ([`TreeReader::read`]). All
/// cursor machinery and read queries live here, `&self` throughout, so the
/// same code path serves the single-threaded writer and concurrent
/// snapshot scans.
pub struct ReadView<'a, S: PageStore> {
    shared: &'a TreeShared<S>,
    root: PageId,
    len: u64,
    epoch: u64,
    /// `Some(epoch)` for snapshot views: node loads consult the version
    /// store so the scan sees the tree as of that publish.
    snap_epoch: Option<u64>,
}

impl<S: PageStore> BTree<S> {
    /// A read view of the writer's current (possibly unpublished) state.
    pub fn view(&self) -> ReadView<'_, S> {
        ReadView {
            shared: &self.shared,
            root: self.root,
            len: self.len(),
            epoch: self.epoch(),
            snap_epoch: None,
        }
    }
}

impl<S: PageStore> TreeReader<S> {
    /// A read view of a snapshot. The view borrows the snapshot, so the
    /// epoch pin outlives every cursor the view hands out.
    pub fn read<'a>(&'a self, snap: &'a TreeSnapshot) -> ReadView<'a, S> {
        ReadView {
            shared: &self.shared,
            root: snap.root,
            len: snap.len,
            epoch: snap.epoch(),
            snap_epoch: Some(snap.epoch()),
        }
    }
}

impl<S: PageStore> ReadView<'_, S> {
    /// The root page id of this view.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Number of entries visible to this view.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether this view sees no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mutation epoch this view observes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The buffer pool under the view (per-query accounting hooks).
    pub fn pool(&self) -> &pagestore::BufferPool<S> {
        &self.shared.pool
    }

    /// Load a node as this view sees it. Snapshot views consult the
    /// version store around the live-frame read: preservation
    /// happens-before mutation on the writer side, so if the re-check
    /// after decoding still misses, the decoded bytes predate any
    /// mutation and are the snapshot's own.
    fn load_cached(&self, id: PageId) -> Result<Arc<Node>> {
        let Some(e) = self.snap_epoch else {
            let page = self.shared.pool.fetch(id)?;
            return decode_node(&page);
        };
        let tracker = &self.shared.tracker;
        if let Some(n) = tracker.lookup(id, e) {
            metrics(|m| m.version_reads.inc());
            return Ok(n);
        }
        let page = self.shared.pool.fetch(id)?;
        let node = decode_node(&page)?;
        if let Some(n) = tracker.lookup(id, e) {
            metrics(|m| m.version_reads.inc());
            return Ok(n);
        }
        Ok(node)
    }

    /// Point lookup: the value stored under `key`, if any.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut id = self.root;
        loop {
            let node = self.load_cached(id)?;
            match &*node {
                Node::Internal(int) => id = int.child(int.route(key)),
                Node::Leaf(leaf) => {
                    return Ok(leaf.search(key).ok().map(|i| leaf.value(i).to_vec()));
                }
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Position a cursor at the first entry with key `>= key` via a full
    /// root-to-leaf descent.
    pub fn seek(&self, key: &[u8]) -> Result<Cursor> {
        let mut cur = Cursor::new(self.epoch);
        self.descend(&mut cur, 0, self.root, key)?;
        Ok(cur)
    }

    /// Position a cursor at the smallest key in the tree.
    pub fn seek_first(&self) -> Result<Cursor> {
        self.seek(&[])
    }

    /// Full root descent *in place*, preserving the cursor's accumulated
    /// [`SeekStats`] (unlike `*cur = view.seek(..)`, which would zero
    /// them).
    pub fn seek_into(&self, cur: &mut Cursor, key: &[u8]) -> Result<()> {
        cur.path.clear();
        cur.cached = None;
        cur.fence_valid = false;
        self.descend(cur, 0, self.root, key)
    }

    /// Descend from `id`, the node below `cur.path[..depth]`, to the leaf
    /// containing the first entry `>= key`, rebuilding `cur.path` from
    /// `depth` downward. Fetches (and counts) every node from `id` down.
    fn descend(&self, cur: &mut Cursor, depth: usize, id: PageId, key: &[u8]) -> Result<()> {
        cur.path.truncate(depth);
        let mut id = id;
        let mut fetched = 0u64;
        loop {
            let node = self.load_cached(id)?;
            fetched += 1;
            match &*node {
                Node::Internal(int) => {
                    let child = int.route(key);
                    let next = int.child(child);
                    cur.path.push(PathLevel { id, node, child });
                    id = next;
                }
                Node::Leaf(leaf) => {
                    cur.slot = leaf.search(key).unwrap_or_else(|at| at);
                    cur.leaf = id;
                    cur.cached = Some((id, node));
                    cur.fence_valid = true;
                    cur.epoch = self.epoch;
                    cur.stats.descents += 1;
                    cur.stats.depth_total += fetched;
                    metrics(|m| {
                        m.seek_descents.inc();
                        m.seek_nodes.add(fetched);
                    });
                    return Ok(());
                }
            }
        }
    }

    /// Reposition `cur` at the first entry with key `>= key` without paying
    /// a full root descent when the retained path allows better:
    ///
    /// * target inside the current leaf's fence interval → move the slot,
    ///   zero fetches;
    /// * otherwise re-descend from the lowest retained ancestor whose
    ///   range covers the target, fetching only the nodes below it;
    /// * cursor invalidated by a mutation (epoch mismatch) → fresh full
    ///   descent from the root.
    ///
    /// Equivalent to `*cur = view.seek(key)?` in all cases (property-tested
    /// in `tests/reseek_prop.rs`); only the cost differs.
    pub fn reseek(&self, cur: &mut Cursor, key: &[u8]) -> Result<()> {
        if cur.epoch != self.epoch {
            metrics(|m| m.reseek_full.inc());
            return self.seek_into(cur, key);
        }
        if cur.fence_valid && covers(&cur.path, key) {
            // The answer slot is in the descended-to leaf (or, when the
            // target is past its last entry, the chain walk in
            // `cursor_entry_ref` reaches it — the next leaf starts at or
            // above the fence, which is above the target).
            cur.slot = self.leaf(cur)?.search(key).unwrap_or_else(|at| at);
            cur.stats.leaf_reseeks += 1;
            metrics(|m| m.reseek_leaf.inc());
            return Ok(());
        }
        // Lowest retained ancestor covering the target. The root level
        // covers everything, so a non-empty path always yields one.
        let Some(depth) = (0..cur.path.len())
            .rev()
            .find(|&depth| covers(&cur.path[..depth], key))
        else {
            metrics(|m| m.reseek_full.inc());
            return self.seek_into(cur, key);
        };
        let lvl = &mut cur.path[depth];
        lvl.child = lvl.int().route(key);
        let child = lvl.int().child(lvl.child);
        metrics(|m| m.reseek_lca.inc());
        self.descend(cur, depth + 1, child, key)
    }

    /// The decoded leaf the cursor points into, loaded (through the pool,
    /// so counted) if the cursor still holds another.
    fn leaf<'c>(&self, cur: &'c mut Cursor) -> Result<&'c LeafNode> {
        if cur.cached.as_ref().is_none_or(|(id, _)| *id != cur.leaf) {
            cur.cached = Some((cur.leaf, self.load_cached(cur.leaf)?));
        }
        cur.cached_leaf()
            .ok_or_else(|| pagestore::Error::Corrupt("cursor leaf is not a leaf".into()))
    }

    /// Settle the cursor on an entry, chaining across exhausted leaves.
    /// `false` when the cursor is past the last entry.
    fn settle(&self, cur: &mut Cursor) -> Result<bool> {
        loop {
            let leaf = self.leaf(cur)?;
            let (len, next) = (leaf.len(), leaf.next);
            if cur.slot < len {
                return Ok(true);
            }
            if next.is_null() {
                return Ok(false);
            }
            cur.leaf = next;
            cur.slot = 0;
            // Chaining leaves the descent fences behind: the new leaf's
            // separators are unknown, so within-leaf reseek is off until
            // the next descent re-establishes them.
            cur.fence_valid = false;
        }
    }

    /// The key and value under the cursor, advancing across leaf boundaries
    /// as needed; `None` when the cursor is past the last entry. The slices
    /// borrow the cursor's own handle on the decoded leaf, so this is the
    /// scan hot path: no allocation, no copy, no reference-count traffic
    /// per entry. See [`ReadView::cursor_entry_ref`] for a view that
    /// outlives cursor movement.
    pub fn cursor_peek<'c>(&self, cur: &'c mut Cursor) -> Result<Option<(&'c [u8], &'c [u8])>> {
        if !self.settle(cur)? {
            return Ok(None);
        }
        let leaf = cur.cached_leaf().expect("settled on a leaf");
        Ok(Some((leaf.key(cur.slot), leaf.value(cur.slot))))
    }

    /// A shared view of the entry under the cursor (same positioning as
    /// [`ReadView::cursor_peek`]). The view holds its own reference to the
    /// decoded leaf, so it stays valid while the cursor moves on; that
    /// costs one reference-count increment and decrement per entry.
    pub fn cursor_entry_ref(&self, cur: &mut Cursor) -> Result<Option<EntryRef>> {
        if !self.settle(cur)? {
            return Ok(None);
        }
        let (_, node) = cur.cached.as_ref().expect("settled");
        Ok(Some(EntryRef {
            node: node.clone(),
            slot: cur.slot,
        }))
    }

    /// The entry under the cursor as owned vectors (compatibility and
    /// collection helpers; the scan hot path uses
    /// [`ReadView::cursor_peek`]).
    pub fn cursor_entry(&self, cur: &mut Cursor) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        Ok(self
            .cursor_peek(cur)?
            .map(|(k, v)| (k.to_vec(), v.to_vec())))
    }

    /// Step the cursor to the next entry.
    pub fn cursor_advance(&self, cur: &mut Cursor) {
        cur.advance();
    }

    /// Collect all entries with `lo <= key < hi`.
    pub fn range(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut cur = self.seek(lo)?;
        while let Some((k, v)) = self.cursor_peek(&mut cur)? {
            if k >= hi {
                break;
            }
            out.push((k.to_vec(), v.to_vec()));
            cur.advance();
        }
        Ok(out)
    }

    /// Collect all entries whose key starts with `prefix`.
    pub fn prefix_scan(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut cur = self.seek(prefix)?;
        while let Some((k, v)) = self.cursor_peek(&mut cur)? {
            if !k.starts_with(prefix) {
                break;
            }
            out.push((k.to_vec(), v.to_vec()));
            cur.advance();
        }
        Ok(out)
    }

    /// Collect every entry in key order (test/debug helper).
    pub fn scan_all(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut cur = self.seek_first()?;
        while let Some((k, v)) = self.cursor_peek(&mut cur)? {
            out.push((k.to_vec(), v.to_vec()));
            cur.advance();
        }
        Ok(out)
    }
}

/// Convenience wrappers so existing single-threaded call sites keep their
/// original shapes: each one builds a live [`ReadView`] and delegates.
impl<S: PageStore> BTree<S> {
    /// Point lookup: the value stored under `key`, if any.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.view().get(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        self.view().contains(key)
    }

    /// See [`ReadView::seek`].
    pub fn seek(&self, key: &[u8]) -> Result<Cursor> {
        self.view().seek(key)
    }

    /// See [`ReadView::seek_first`].
    pub fn seek_first(&self) -> Result<Cursor> {
        self.view().seek_first()
    }

    /// See [`ReadView::reseek`].
    pub fn reseek(&self, cur: &mut Cursor, key: &[u8]) -> Result<()> {
        self.view().reseek(cur, key)
    }

    /// See [`ReadView::cursor_entry_ref`].
    pub fn cursor_entry_ref(&self, cur: &mut Cursor) -> Result<Option<EntryRef>> {
        self.view().cursor_entry_ref(cur)
    }

    /// See [`ReadView::cursor_entry`].
    pub fn cursor_entry(&self, cur: &mut Cursor) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        self.view().cursor_entry(cur)
    }

    /// See [`ReadView::cursor_advance`].
    pub fn cursor_advance(&self, cur: &mut Cursor) {
        cur.advance();
    }

    /// See [`ReadView::range`].
    pub fn range(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.view().range(lo, hi)
    }

    /// See [`ReadView::prefix_scan`].
    pub fn prefix_scan(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.view().prefix_scan(prefix)
    }

    /// See [`ReadView::scan_all`].
    pub fn scan_all(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.view().scan_all()
    }
}
