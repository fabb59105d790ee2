//! Forward cursors over the leaf level, with hierarchical re-seeking —
//! hosted on a [`ReadView`], the `&self` read surface shared by the writer
//! handle and snapshot readers.
//!
//! **Leaves are read where they lie.** A [`Cursor`] reads its current leaf
//! through a [`LeafWalker`]: one copy of the page's bytes and one key
//! buffer patched from each entry's `prefix_len` on. Stepping within a leaf
//! costs no page fetch and no decode; moving to the next leaf goes through
//! the buffer pool and is accounted normally. No read decodes a leaf — not
//! [`ReadView::get`] either, which searches the frame's bytes under its
//! shared lock. The pool's per-frame decode cache holds interior nodes
//! only, for routing's binary search (the write path decodes the leaves it
//! mutates, uncached: see `tree::load_page`).
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
//!    interval covers it — a forward walk from the cursor's entry when the
//!    target lies ahead of it, as skip targets do (zero page fetches, zero
//!    allocations),
//! 2. otherwise walks *up* the retained path to the lowest common ancestor
//!    whose key range covers the target and re-descends from there,
//!    fetching only the nodes below the LCA (the retained ancestors are
//!    not re-fetched, exactly like the walked leaf is not re-fetched when
//!    stepping within it),
//! 3. falls back to a fresh root descent when the cursor was invalidated
//!    by a tree mutation (detected through the tree's epoch counter).
//!
//! Because skip targets and ranges never need owned key bytes, the scan
//! hot path reads entries through [`ReadView::cursor_peek`] and
//! [`ReadView::cursor_key`] — slices borrowed from the cursor's walker —
//! instead of cloning every key and value it examines. [`EntryRef`] is a
//! copy of one entry, for callers that keep it while the cursor moves.

use std::sync::Arc;

use pagestore::{Error, PageId, PageStore, Result};

use crate::node::{InternalNode, Node};
use crate::tree::{
    load_page, metrics, BTree, Loaded, ReadForm, TreeReader, TreeShared, TreeSnapshot,
};
use crate::walk::{leaf_get, LeafWalker};

/// One retained level of a cursor's descent path: an interior node plus
/// the index of the child the descent took out of it.
struct PathLevel {
    id: PageId,
    node: Arc<Node>,
    child: usize,
}

impl PathLevel {
    fn int(&self) -> &InternalNode {
        interior(&self.node)
    }
}

/// The interior node a page without the leaf tag decodes to.
fn interior(node: &Node) -> &InternalNode {
    match node {
        Node::Internal(int) => int,
        Node::Leaf(_) => unreachable!("only a page with the leaf tag decodes to a leaf"),
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

/// A position in the leaf level of a [`BTree`].
///
/// Created by [`ReadView::seek`] (or the [`BTree`] convenience wrappers);
/// repositioned in place by [`ReadView::reseek`]. A cursor survives tree
/// mutations (reseek then falls back to a full descent), but entries read
/// before the mutation must not be assumed current.
pub struct Cursor {
    leaf: PageId,
    slot: usize,
    /// The leaf whose bytes `walk` holds, if any.
    walked: Option<PageId>,
    walk: LeafWalker,
    /// Interior nodes root→parent-of-leaf from the most recent descent.
    path: Vec<PathLevel>,
    /// Whether `path` ends at the current leaf, so that its fence interval
    /// is `covers(&path, ..)`. Invalidated (set to `false`) when the cursor
    /// chains to the next leaf, because the chain walk does not know the
    /// new leaf's separators.
    fence_valid: bool,
    /// Tree mutation epoch at descent time; a mismatch voids path+fence.
    epoch: u64,
}

impl Cursor {
    fn new(epoch: u64) -> Self {
        Cursor {
            leaf: PageId::NULL,
            slot: 0,
            walked: None,
            walk: LeafWalker::new(),
            path: Vec::new(),
            fence_valid: false,
            epoch,
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

    /// Step to the next entry (within-leaf; the step itself, and leaf
    /// chaining, happen when the cursor is next read).
    pub fn advance(&mut self) {
        self.slot += 1;
    }
}

/// A copy of the entry under a cursor, in one allocation, for callers that
/// keep an entry while the cursor moves on. It is `Send`, and after a tree
/// *mutation* it continues to show the pre-mutation entry.
pub struct EntryRef {
    bytes: Box<[u8]>,
    key_len: usize,
}

impl EntryRef {
    /// The entry's key bytes.
    pub fn key(&self) -> &[u8] {
        &self.bytes[..self.key_len]
    }

    /// The entry's value bytes.
    pub fn value(&self) -> &[u8] {
        &self.bytes[self.key_len..]
    }
}

/// Hand a preserved leaf's bytes to `leaf`, or return the interior.
fn visit_version<R>(v: ReadForm, leaf: impl FnOnce(&[u8]) -> Result<R>) -> Result<Loaded<R>> {
    match v {
        Loaded::Leaf(bytes) => Ok(Loaded::Leaf(leaf(&bytes)?)),
        Loaded::Interior(node) => Ok(Loaded::Interior(node)),
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

    /// Load page `id` as this view sees it: an interior node (from the
    /// frame's decode cache), or a leaf's bytes handed to `leaf` — the live
    /// frame's under its shared lock, so nothing is copied unless `leaf`
    /// copies. Snapshot views consult the version store around the
    /// live-frame read: preservation happens-before mutation on the writer
    /// side, so if the re-check after reading still misses, the bytes read
    /// predate any mutation and are the snapshot's own (on a hit, `leaf`
    /// runs again, on the preserved bytes).
    fn visit<R>(&self, id: PageId, mut leaf: impl FnMut(&[u8]) -> Result<R>) -> Result<Loaded<R>> {
        let Some(e) = self.snap_epoch else {
            return load_page(&self.shared.pool.fetch(id)?, leaf);
        };
        let tracker = &self.shared.tracker;
        if let Some(v) = tracker.lookup(id, e) {
            metrics(|m| m.version_reads.inc());
            return visit_version(v, leaf);
        }
        let live = load_page(&self.shared.pool.fetch(id)?, &mut leaf)?;
        if let Some(v) = tracker.lookup(id, e) {
            metrics(|m| m.version_reads.inc());
            return visit_version(v, leaf);
        }
        Ok(live)
    }

    /// Point lookup: the value stored under `key`, if any.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut id = self.root;
        loop {
            match self.visit(id, |page| leaf_get(page, key))? {
                Loaded::Interior(node) => {
                    let int = interior(&node);
                    id = int.child(int.route(key));
                }
                Loaded::Leaf(value) => return Ok(value),
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

    /// Full root descent *in place*: `*cur = view.seek(..)`, but reusing
    /// the cursor's walker buffer and path vector.
    pub fn seek_into(&self, cur: &mut Cursor, key: &[u8]) -> Result<()> {
        cur.path.clear();
        cur.fence_valid = false;
        self.descend(cur, 0, self.root, key)
    }

    /// Descend from `id`, the node below `cur.path[..depth]`, to the leaf
    /// containing the first entry `>= key`, rebuilding `cur.path` from
    /// `depth` downward. Fetches every node from `id` down, and counts the
    /// descent once in the registry: `btree.seek.descents` plus its fetches
    /// in `btree.seek.nodes_fetched` — a full height for a root descent,
    /// the levels below the LCA for a re-descent (their ratio is the
    /// average re-descent depth, the units of the paper's experiment 1).
    fn descend(&self, cur: &mut Cursor, depth: usize, id: PageId, key: &[u8]) -> Result<()> {
        cur.path.truncate(depth);
        let mut id = id;
        let mut fetched = 0u64;
        loop {
            let visit = self.visit(id, |page| {
                cur.walked = None;
                cur.walk.load(page)
            })?;
            fetched += 1;
            match visit {
                Loaded::Interior(node) => {
                    let child = interior(&node).route(key);
                    let next = interior(&node).child(child);
                    cur.path.push(PathLevel { id, node, child });
                    id = next;
                }
                Loaded::Leaf(()) => {
                    cur.walked = Some(id);
                    cur.walk.seek(key)?;
                    cur.slot = cur.walk.slot();
                    cur.leaf = id;
                    cur.fence_valid = true;
                    cur.epoch = self.epoch;
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
            // target is past its last entry, the chain walk in `settle`
            // reaches it — the next leaf starts at or above the fence,
            // which is above the target). The walker searches forward from
            // its entry when the target lies ahead of it.
            self.walk_leaf(cur)?;
            cur.walk.seek(key)?;
            cur.slot = cur.walk.slot();
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

    /// Make the cursor's walker hold the leaf the cursor points into,
    /// loading it (through the pool, so counted) if it holds another.
    fn walk_leaf(&self, cur: &mut Cursor) -> Result<()> {
        if cur.walked == Some(cur.leaf) {
            return Ok(());
        }
        let id = cur.leaf;
        let visit = self.visit(id, |page| {
            cur.walked = None;
            cur.walk.load(page)
        })?;
        match visit {
            Loaded::Leaf(()) => {
                cur.walked = Some(id);
                Ok(())
            }
            Loaded::Interior(_) => Err(Error::Corrupt("cursor leaf is not a leaf".into())),
        }
    }

    /// Settle the cursor on an entry, chaining across exhausted leaves.
    /// `false` when the cursor is past the last entry.
    fn settle(&self, cur: &mut Cursor) -> Result<bool> {
        loop {
            self.walk_leaf(cur)?;
            if cur.slot < cur.walk.len() {
                cur.walk.goto(cur.slot)?;
                return Ok(true);
            }
            let next = cur.walk.next_leaf();
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
    /// borrow the cursor's walker, so this is the scan hot path: no
    /// allocation, no copy, no reference-count traffic per entry. See
    /// [`ReadView::cursor_entry_ref`] for a copy that outlives cursor
    /// movement.
    pub fn cursor_peek<'c>(&self, cur: &'c mut Cursor) -> Result<Option<(&'c [u8], &'c [u8])>> {
        if !self.settle(cur)? {
            return Ok(None);
        }
        Ok(cur.walk.entry())
    }

    /// The key under the cursor (positioned as by
    /// [`ReadView::cursor_peek`]), with how many leading bytes it is known
    /// to share with the entry the cursor was read at before: the entry's
    /// `prefix_len` when the cursor moved there by one
    /// [`Cursor::advance`] within a leaf, 0 after any other move. A lower
    /// bound — exact on a front-compressed leaf — never more.
    pub fn cursor_key<'c>(&self, cur: &'c mut Cursor) -> Result<Option<(&'c [u8], usize)>> {
        if !self.settle(cur)? {
            return Ok(None);
        }
        Ok(Some((cur.walk.key(), cur.walk.shared())))
    }

    /// A copy of the entry under the cursor (same positioning as
    /// [`ReadView::cursor_peek`]) that stays valid while the cursor moves
    /// on; one allocation per entry.
    pub fn cursor_entry_ref(&self, cur: &mut Cursor) -> Result<Option<EntryRef>> {
        let Some((key, value)) = self.cursor_peek(cur)? else {
            return Ok(None);
        };
        let mut bytes = Vec::with_capacity(key.len() + value.len());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(value);
        Ok(Some(EntryRef {
            bytes: bytes.into_boxed_slice(),
            key_len: key.len(),
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
