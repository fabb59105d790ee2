//! Bulk loading and batch updates.
//!
//! Bulk loading builds a packed tree bottom-up from a sorted stream — this is
//! how the experiment databases are indexed, mirroring a freshly built index
//! in the paper. Batch insertion sorts its input first so that updates to
//! clustered key regions (the paper's batched path-update case, §3.5, citing
//! Tsur & Gudes' B-tree reorganization work) hit each leaf once.

use pagestore::{BufferPool, Error, PageId, PageRef, PageStore, Result};

use crate::codec::{common_prefix_len, truncate_separator};
use crate::config::{BTreeConfig, Capacity};
use crate::edit::LeafEditor;
use crate::node::{entry_size, InternalNode, LeafNode, Node, INTERIOR_HEADER, LEAF_HEADER};
use crate::tree::{BTree, Loaded};

impl<S: PageStore> BTree<S> {
    /// Build a tree from strictly-ascending `(key, value)` pairs.
    ///
    /// Leaves are packed to capacity; the final node of each level is
    /// redistributed with its left neighbour if it would otherwise be
    /// underfull, so the result satisfies all [`BTree::verify`] invariants.
    pub fn bulk_load<I>(pool: BufferPool<S>, config: BTreeConfig, items: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let mut tree = BTree::create(pool, config)?;
        tree.bulk_replace(items)?;
        Ok(tree)
    }

    /// Fill an **empty** tree from strictly-ascending pairs, packing pages
    /// like [`BTree::bulk_load`]. Fails if the tree is not empty.
    pub fn bulk_replace<I>(&mut self, items: I) -> Result<()>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        if !self.is_empty() {
            return Err(Error::Corrupt("bulk_replace requires an empty tree".into()));
        }
        self.bump_epoch();
        let tree = self;
        let config = *tree.config();
        let empty_root = tree.root();
        let compress = config.front_compression;
        let page_size = tree.pool().page_size();
        let max_entry = tree.max_entry_size();

        // ---- pack the leaf level (no page ids yet) ----
        let mut leaves: Vec<LeafNode> = Vec::new();
        let mut cur = LeafNode::new(PageId::NULL);
        let mut cur_size = LEAF_HEADER;
        let mut prev_key: Option<Vec<u8>> = None;
        let mut count: u64 = 0;

        for (key, value) in items {
            if let Some(p) = &prev_key {
                if p.as_slice() >= key.as_slice() {
                    return Err(Error::Corrupt(
                        "bulk_load input not strictly ascending".into(),
                    ));
                }
            }
            if key.len() + value.len() > max_entry {
                return Err(Error::EntryTooLarge {
                    len: key.len() + value.len(),
                    max: max_entry,
                });
            }
            let plen = if compress && !cur.is_empty() {
                common_prefix_len(prev_key.as_deref().unwrap_or(&[]), &key)
            } else {
                0
            };
            let esize = entry_size(plen, key.len(), Some(value.len()));
            let full = match config.capacity {
                Capacity::Bytes => !cur.is_empty() && cur_size + esize > page_size,
                Capacity::Entries(m) => cur.len() >= m,
            };
            if full {
                leaves.push(std::mem::replace(&mut cur, LeafNode::new(PageId::NULL)));
                cur_size = LEAF_HEADER + entry_size(0, key.len(), Some(value.len()));
            } else {
                cur_size += esize;
            }
            cur.push(&key, &value);
            prev_key = Some(key);
            count += 1;
        }
        if !cur.is_empty() || leaves.is_empty() {
            leaves.push(cur);
        }

        // Redistribute an underfull tail leaf with its left neighbour.
        if let [.., prev, tail] = leaves.as_mut_slice() {
            if tree.is_underfull_size(tail.len(), tail.encoded_size(compress)) {
                prev.append(tail);
                if tree.fits_size(prev.len(), prev.encoded_size(compress)) {
                    leaves.pop();
                } else {
                    let k = tree.leaf_split_index(prev)?;
                    *tail = prev.split_off(k);
                }
            }
        }

        // Allocate ids, chain, write.
        let mut leaf_ids = Vec::with_capacity(leaves.len());
        for _ in 0..leaves.len() {
            let (id, _) = tree.allocate_page()?;
            leaf_ids.push(id);
        }
        // Separators between adjacent leaves.
        let mut seps: Vec<Vec<u8>> = leaves
            .windows(2)
            .map(|w| {
                let left_max = w[0].key(w[0].len() - 1);
                let right_min = w[1].key(0);
                if config.suffix_truncation {
                    truncate_separator(left_max, right_min)
                } else {
                    right_min.to_vec()
                }
            })
            .collect();
        for (i, mut leaf) in leaves.into_iter().enumerate() {
            leaf.next = leaf_ids.get(i + 1).copied().unwrap_or(PageId::NULL);
            tree.store_node(leaf_ids[i], &Node::Leaf(leaf))?;
        }
        let mut level = leaf_ids;

        // ---- pack interior levels until a single root remains ----
        while level.len() > 1 {
            let mut nodes: Vec<InternalNode> = Vec::new();
            let mut proms: Vec<Vec<u8>> = Vec::new();
            let mut cur = InternalNode::new(level[0]);
            let mut cur_size = INTERIOR_HEADER;
            let mut prev_sep: Option<&Vec<u8>> = None;
            for (i, sep) in seps.iter().enumerate() {
                let child = level[i + 1];
                let plen = match (prev_sep, compress) {
                    (Some(p), true) if !cur.is_empty() => common_prefix_len(p, sep),
                    _ => 0,
                };
                let esize = entry_size(plen, sep.len(), None);
                let full = match config.capacity {
                    Capacity::Bytes => !cur.is_empty() && cur_size + esize > page_size,
                    Capacity::Entries(m) => cur.len() >= m,
                };
                if full {
                    nodes.push(std::mem::replace(&mut cur, InternalNode::new(child)));
                    proms.push(sep.clone());
                    cur_size = INTERIOR_HEADER;
                } else {
                    cur.push(sep, child);
                    cur_size += esize;
                }
                prev_sep = Some(sep);
            }
            nodes.push(cur);

            // Redistribute an underfull tail interior node.
            if let [.., prev, tail] = nodes.as_mut_slice() {
                if tree.is_underfull_size(tail.len(), tail.encoded_size(compress)) {
                    let between = proms.pop().expect("promoted sep exists");
                    prev.append(&between, tail);
                    if tree.fits_size(prev.len(), prev.encoded_size(compress)) {
                        nodes.pop();
                    } else {
                        let p = tree.internal_split_index(prev)?;
                        let (promoted, right) = prev.split_off(p);
                        *tail = right;
                        proms.push(promoted);
                    }
                }
            }

            let mut ids = Vec::with_capacity(nodes.len());
            for node in nodes {
                let (id, _) = tree.allocate_page()?;
                tree.store_node(id, &Node::Internal(node))?;
                ids.push(id);
            }
            level = ids;
            seps = proms;
        }

        // Install the root; drop the placeholder empty leaf if superseded.
        let new_root = level[0];
        if new_root != empty_root {
            tree.free_page(empty_root)?;
        }
        tree.set_root_len(new_root, count);
        Ok(())
    }

    /// Insert many `(key, value)` pairs, sorting them first so clustered
    /// regions are updated with good page locality (batched updates, §3.5).
    ///
    /// Returns the number of keys that were newly inserted (not replaced).
    pub fn insert_batch(&mut self, mut items: Vec<(Vec<u8>, Vec<u8>)>) -> Result<u64> {
        items.sort_by(|a, b| a.0.cmp(&b.0));
        self.upsert_sorted(&items, |_, _| {})
    }

    /// Upsert pairs already in ascending key order, telling `replaced`
    /// the position and old value of each that overwrote an entry. A run of
    /// keys bound for one leaf is applied to it in one visit — one descent,
    /// one forward pass editing the page where it lies — until the leaf is
    /// full; the key that does not fit goes through [`BTree::insert`],
    /// which splits exactly as it would have, so the tree that results is
    /// the one the same inserts made one by one. Returns the number of keys
    /// newly inserted.
    pub fn upsert_sorted(
        &mut self,
        items: &[(Vec<u8>, Vec<u8>)],
        mut replaced: impl FnMut(usize, &[u8]),
    ) -> Result<u64> {
        if items.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(Error::Corrupt("upsert_sorted input not ascending".into()));
        }
        let max_entry = self.max_entry_size();
        let mut fresh = 0;
        let mut next = 0;
        while next < items.len() {
            let (leaf_id, page, upper) = self.leaf_for(&items[next].0)?;
            let in_leaf = |i: usize| {
                items.get(i).is_some_and(|(key, value)| {
                    upper.as_deref().is_none_or(|u| key.as_slice() < u)
                        && key.len() + value.len() <= max_entry
                })
            };
            let bytes = page.read();
            let mut editor = LeafEditor::open(&bytes, self.config())?;
            let first = if in_leaf(next) {
                editor.put(&bytes, &items[next].0, &items[next].1)?
            } else {
                None
            };
            drop(bytes);
            let Some(mut edit) = first else {
                // The leaf as it stands cannot take the key: split it (or
                // refuse an oversized entry) the ordinary way.
                let (key, value) = &items[next];
                match self.insert(key, value)? {
                    Some(old) => replaced(next, &old),
                    None => fresh += 1,
                }
                next += 1;
                continue;
            };
            self.bump_epoch();
            let mut added = 0;
            loop {
                match self.edit_leaf(leaf_id, &page, &mut editor, edit)? {
                    Some(old) => replaced(next, &old),
                    None => added += 1,
                }
                next += 1;
                if !in_leaf(next) {
                    break;
                }
                let (key, value) = &items[next];
                match editor.put(&page.read(), key, value)? {
                    Some(planned) => edit = planned,
                    None => break,
                }
            }
            self.set_root_len(self.root(), self.len() + added);
            fresh += added;
        }
        Ok(fresh)
    }

    /// The leaf `key` belongs in, its page, and the separator that bounds
    /// that leaf's keys from above (`None` for the tree's last leaf).
    fn leaf_for(&self, key: &[u8]) -> Result<(PageId, PageRef, Option<Vec<u8>>)> {
        let mut id = self.root();
        let mut upper = None;
        loop {
            let node = match self.descend(id)? {
                Loaded::Leaf(page) => return Ok((id, page, upper)),
                Loaded::Interior(node) => node,
            };
            let Node::Internal(int) = &*node else {
                unreachable!("only a page with the leaf tag decodes to a leaf");
            };
            let child = int.route(key);
            if child < int.len() {
                upper = Some(int.sep(child).to_vec());
            }
            id = int.child(child);
        }
    }
}
