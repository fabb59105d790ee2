//! Bulk loading and batch updates.
//!
//! Bulk loading builds a packed tree bottom-up from a sorted stream — this is
//! how the experiment databases are indexed, mirroring a freshly built index
//! in the paper. Batch insertion sorts its input first so that updates to
//! clustered key regions (the paper's batched path-update case, §3.5, citing
//! Tsur & Gudes' B-tree reorganization work) hit each leaf once.

use pagestore::{BufferPool, Error, PageId, PageRef, PageStore, Result};

use crate::codec::separator;
use crate::config::{BTreeConfig, Packer};
use crate::edit::LeafEditor;
use crate::node::{EntrySize, InternalNode, LeafNode, NodeKind};
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
        let config = *self.config();
        let compress = config.front_compression;
        let max_entry = self.max_entry_size();

        // ---- pack the leaf level (no page ids yet) ----
        let (mut leaves, mut seps) = (Vec::new(), Vec::new());
        let mut cur = LeafNode::new(PageId::NULL);
        let mut packer = Packer::new::<LeafNode>(config, self.page_size());
        let mut prev = Vec::new();
        let mut count: u64 = 0;
        for (key, value) in items {
            if count > 0 && prev >= key {
                return Err(Error::Corrupt(
                    "bulk_load input not strictly ascending".into(),
                ));
            }
            if key.len() + value.len() > max_entry {
                return Err(Error::EntryTooLarge {
                    len: key.len() + value.len(),
                    max: max_entry,
                });
            }
            if packer.place(EntrySize::of(&prev, &key, Some(value.len()), compress)) {
                seps.push(separator(&prev, &key, compress));
                leaves.push(std::mem::replace(&mut cur, LeafNode::new(PageId::NULL)));
            }
            cur.push(&key, &value);
            prev = key;
            count += 1;
        }
        leaves.push(cur);
        self.even_tail(&mut leaves, &mut seps)?;

        // Allocate ids, chain, write.
        let mut level = (0..leaves.len())
            .map(|_| Ok(self.allocate_page()?.0))
            .collect::<Result<Vec<_>>>()?;
        for (i, mut leaf) in leaves.into_iter().enumerate() {
            leaf.next = level.get(i + 1).copied().unwrap_or(PageId::NULL);
            self.store(level[i], &leaf)?;
        }

        // ---- pack interior levels until a single root remains ----
        while level.len() > 1 {
            let (mut nodes, mut proms) = (Vec::new(), Vec::new());
            let mut cur = InternalNode::new(level[0]);
            let mut packer = Packer::new::<InternalNode>(config, self.page_size());
            let mut prev: &[u8] = &[];
            for (sep, &child) in seps.iter().zip(&level[1..]) {
                if packer.place(EntrySize::of(prev, sep, None, compress)) {
                    proms.push(sep.clone());
                    nodes.push(std::mem::replace(&mut cur, InternalNode::new(child)));
                } else {
                    cur.push(sep, child);
                }
                prev = sep;
            }
            nodes.push(cur);
            self.even_tail(&mut nodes, &mut proms)?;
            level.clear();
            for node in &nodes {
                let (id, _) = self.allocate_page()?;
                self.store(id, node)?;
                level.push(id);
            }
            seps = proms;
        }

        // Install the root; drop the placeholder empty leaf if superseded.
        let (empty_root, new_root) = (self.root(), level[0]);
        if new_root != empty_root {
            self.free_page(empty_root)?;
        }
        self.set_root_len(new_root, count);
        Ok(())
    }

    /// Merge an underfull last node of a packed level into its left
    /// neighbour, or share their entries when they do not fit one node.
    /// `seps` holds the separators between the level's nodes.
    fn even_tail<N: NodeKind>(&self, nodes: &mut Vec<N>, seps: &mut Vec<Vec<u8>>) -> Result<()> {
        if let [.., prev, tail] = nodes.as_mut_slice() {
            if self.underfull(tail) {
                let between = seps.pop().expect("a separator precedes the tail");
                match self.join(prev, &between, tail, PageId::NULL)? {
                    Some((sep, right)) => {
                        *tail = right;
                        seps.push(sep);
                    }
                    None => {
                        nodes.pop();
                    }
                }
            }
        }
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
            let int = match self.descend(id)? {
                Loaded::Leaf(page) => return Ok((id, page, upper)),
                Loaded::Interior(int) => int,
            };
            let child = int.route(key);
            if child < int.len() {
                upper = Some(int.sep(child).to_vec());
            }
            id = int.child(child);
        }
    }
}
