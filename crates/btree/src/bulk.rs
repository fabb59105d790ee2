//! Bulk loading and batch updates.
//!
//! Bulk loading builds a packed tree bottom-up from a sorted stream — this is
//! how the experiment databases are indexed, mirroring a freshly built index
//! in the paper. Batch insertion sorts its input first so that updates to
//! clustered key regions (the paper's batched path-update case, §3.5, citing
//! Tsur & Gudes' B-tree reorganization work) hit each leaf once.

use std::cmp::Ordering;

use pagestore::{BufferPool, Error, PageId, PageRef, PageStore, Result};

use crate::codec::separator;
use crate::config::Packer;
use crate::edit::LeafEditor;
use crate::node::{
    put_leaf_header, put_value, Encode, EntrySize, InternalNode, LeafNode, NodeKind, LEAF_HEADER,
};
use crate::tree::{BTree, Loaded};
use crate::BTreeConfig;

/// Entries in ascending key order, as [`BTree::bulk_replace`] and
/// [`BTree::upsert_sorted`] read them: entry `i`'s key and value.
pub trait SortedEntries {
    /// Number of entries.
    fn len(&self) -> usize;

    /// Whether there are no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i`'s key.
    fn key(&self, i: usize) -> &[u8];

    /// Entry `i`'s value.
    fn value(&self, i: usize) -> &[u8];
}

impl SortedEntries for [(Vec<u8>, Vec<u8>)] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn key(&self, i: usize) -> &[u8] {
        &self[i].0
    }

    fn value(&self, i: usize) -> &[u8] {
        &self[i].1
    }
}

impl<T> SortedEntries for Vec<T>
where
    [T]: SortedEntries,
{
    fn len(&self) -> usize {
        SortedEntries::len(self.as_slice())
    }

    fn key(&self, i: usize) -> &[u8] {
        self.as_slice().key(i)
    }

    fn value(&self, i: usize) -> &[u8] {
        self.as_slice().value(i)
    }
}

/// Bytes of a key its sort record holds: a U-index class-hierarchy key
/// (about 20 bytes) sorts on its record alone.
const SORT_PREFIX: usize = 24;

/// A key's fixed-width sort record: its first [`SORT_PREFIX`] bytes,
/// zero-padded, as two big-endian integers, then its length and where it
/// starts in the buffer.
#[derive(Debug, Clone, Copy)]
struct SortRecord {
    high: u128,
    low: u64,
    len: u32,
    off: u32,
}

impl SortRecord {
    fn of(key: &[u8], off: usize) -> SortRecord {
        let mut prefix = [0u8; SORT_PREFIX];
        let n = key.len().min(SORT_PREFIX);
        prefix[..n].copy_from_slice(&key[..n]);
        assert!(
            off + key.len() <= u32::MAX as usize,
            "a key buffer holds at most 4 GiB"
        );
        SortRecord {
            high: u128::from_be_bytes(prefix[..16].try_into().expect("16 bytes")),
            low: u64::from_be_bytes(prefix[16..].try_into().expect("8 bytes")),
            len: key.len() as u32,
            off: off as u32,
        }
    }

    /// What orders two keys without their bytes: the padded prefix, then
    /// the length up to one past the prefix. A key that ends within the
    /// prefix sorts before every longer key with the same padded prefix,
    /// since it is a prefix of each; two keys that share the whole prefix
    /// and go on past it tie here, and their bytes decide.
    #[inline]
    fn head(&self) -> (u128, u64, u32) {
        let len = self.len.min(SORT_PREFIX as u32 + 1);
        (self.high, self.low, len)
    }
}

/// Keys written back to back into one buffer, each with a fixed-width sort
/// record: how a bulk load's input is collected and put in order without
/// an allocation per key. [`KeyBuffer::sort`] orders the records (ties on
/// a long shared prefix are broken on the buffer's bytes), drops
/// duplicates and lays the bytes out again in that order. Reads as
/// [`SortedEntries`] of key-only entries, in record order. Holds at most
/// 4 GiB of key bytes.
#[derive(Debug, Clone, Default)]
pub struct KeyBuffer {
    bytes: Vec<u8>,
    records: Vec<SortRecord>,
}

impl KeyBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `keys` keys of `bytes` bytes in all.
    pub fn with_capacity(keys: usize, bytes: usize) -> Self {
        KeyBuffer {
            bytes: Vec::with_capacity(bytes),
            records: Vec::with_capacity(keys),
        }
    }

    /// Append `key`.
    pub fn push(&mut self, key: &[u8]) {
        self.push_with(|out| out.extend_from_slice(key));
    }

    /// Append the key `write` appends to the buffer's bytes.
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let off = self.bytes.len();
        write(&mut self.bytes);
        self.records.push(SortRecord::of(&self.bytes[off..], off));
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer holds no key.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Key `i`, in record order.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        self.bytes_of(&self.records[i])
    }

    /// The keys, in record order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.records.iter().map(|r| self.bytes_of(r))
    }

    /// Put the keys in ascending byte order and drop duplicates.
    pub fn sort(&mut self) {
        let bytes = &self.bytes;
        let order = |a: &SortRecord, b: &SortRecord| {
            a.head()
                .cmp(&b.head())
                .then_with(|| key_at(bytes, a).cmp(key_at(bytes, b)))
        };
        self.records.sort_unstable_by(order);
        self.records.dedup_by(|a, b| order(a, b) == Ordering::Equal);
        // Lay the bytes out in key order too: whoever reads the sorted
        // keys then walks the buffer front to back.
        let mut sorted = Vec::with_capacity(self.bytes.len());
        for r in &mut self.records {
            let off = sorted.len() as u32;
            sorted.extend_from_slice(key_at(&self.bytes, r));
            r.off = off;
        }
        self.bytes = sorted;
    }

    /// Whether a [sorted](KeyBuffer::sort) buffer holds `key`.
    pub fn contains(&self, key: &[u8]) -> bool {
        let probe = SortRecord::of(key, 0);
        self.records
            .binary_search_by(|r| {
                r.head()
                    .cmp(&probe.head())
                    .then_with(|| self.bytes_of(r).cmp(key))
            })
            .is_ok()
    }

    #[inline]
    fn bytes_of(&self, r: &SortRecord) -> &[u8] {
        key_at(&self.bytes, r)
    }
}

#[inline]
fn key_at<'a>(bytes: &'a [u8], r: &SortRecord) -> &'a [u8] {
    &bytes[r.off as usize..(r.off + r.len) as usize]
}

impl SortedEntries for KeyBuffer {
    fn len(&self) -> usize {
        KeyBuffer::len(self)
    }

    fn key(&self, i: usize) -> &[u8] {
        self.get(i)
    }

    fn value(&self, _: usize) -> &[u8] {
        &[]
    }
}

/// Entries `start..end` of a bulk load's input as one leaf chained to
/// `next`: the encoder writes the leaf's page straight from the input.
struct LeafRun<'a, E: ?Sized> {
    entries: &'a E,
    start: usize,
    end: usize,
    next: PageId,
}

impl<E: SortedEntries + ?Sized> Encode for LeafRun<'_, E> {
    const HEADER: usize = LEAF_HEADER;

    fn count(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    fn entry(&self, i: usize) -> (&[u8], Option<usize>) {
        let i = self.start + i;
        (self.entries.key(i), Some(self.entries.value(i).len()))
    }

    fn put_header(&self, page: &mut [u8], count: [u8; 2]) {
        put_leaf_header(page, self.next, count);
    }

    #[inline]
    fn put_payload(&self, i: usize, page: &mut [u8], pos: &mut usize) {
        put_value(page, pos, self.entries.value(self.start + i));
    }
}

impl<S: PageStore> BTree<S> {
    /// Build a tree from strictly-ascending `(key, value)` pairs, packed as
    /// [`BTree::bulk_replace`] packs them.
    pub fn bulk_load<I>(pool: BufferPool<S>, config: BTreeConfig, items: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let items: Vec<_> = items.into_iter().collect();
        let mut tree = BTree::create(pool, config)?;
        tree.bulk_replace(&items)?;
        Ok(tree)
    }

    /// Fill an **empty** tree from strictly-ascending `entries`, bottom up.
    /// Fails if the tree is not empty.
    ///
    /// Each level is laid out by `pack_level`: nodes packed to capacity,
    /// the last one joined with its left neighbour if it would otherwise
    /// be underfull, so the result satisfies all [`BTree::verify`]
    /// invariants. A leaf is encoded straight from its run of `entries`
    /// into its page; only the interior levels, a few hundredths of the
    /// pages, are staged as nodes.
    pub fn bulk_replace<E: SortedEntries + ?Sized>(&mut self, entries: &E) -> Result<()> {
        if !self.is_empty() {
            return Err(Error::Corrupt("bulk_replace requires an empty tree".into()));
        }
        self.bump_epoch();
        let compress = self.config().front_compression;
        let count = entries.len();
        let ends =
            self.pack_level::<LeafNode>(count, |i| (entries.key(i), Some(entries.value(i).len())))?;
        let (_, inner) = ends.split_last().expect("a level has a node");
        let mut seps = KeyBuffer::with_capacity(inner.len(), 0);
        for &end in inner {
            seps.push(separator(entries.key(end - 1), entries.key(end), compress));
        }

        // Allocate ids, chain, write.
        let mut level = (0..ends.len())
            .map(|_| Ok(self.allocate_page()?.0))
            .collect::<Result<Vec<_>>>()?;
        let mut start = 0;
        for (i, &end) in ends.iter().enumerate() {
            let next = level.get(i + 1).copied().unwrap_or(PageId::NULL);
            let leaf = LeafRun {
                entries,
                start,
                end,
                next,
            };
            self.store(level[i], &leaf)?;
            start = end;
        }

        // ---- pack interior levels until a single root remains ----
        while level.len() > 1 {
            let ends = self.pack_level::<InternalNode>(seps.len(), |i| (seps.get(i), None))?;
            let mut parents = Vec::with_capacity(ends.len());
            let mut start = 0;
            for &end in &ends {
                let mut node = InternalNode::new(level[start]);
                for i in start..end {
                    node.push(seps.get(i), level[i + 1]);
                }
                let (id, _) = self.allocate_page()?;
                self.store(id, &node)?;
                parents.push(id);
                start = end + 1;
            }
            let (_, inner) = ends.split_last().expect("a level has a node");
            let mut promoted = KeyBuffer::with_capacity(inner.len(), 0);
            for &end in inner {
                promoted.push(seps.get(end));
            }
            (seps, level) = (promoted, parents);
        }

        // Install the root; drop the placeholder empty leaf if superseded.
        let (empty_root, new_root) = (self.root(), level[0]);
        if new_root != empty_root {
            self.free_page(empty_root)?;
        }
        self.set_root_len(new_root, count as u64);
        Ok(())
    }

    /// Lay a level of `len` entries out in packed nodes of kind `N`, where
    /// `entry(i)` gives entry `i`'s key and value length, and return where
    /// each node's entries end. A node starts where the one before it ends
    /// or, when `N` promotes, one entry later: that entry moves up to the
    /// parent. The `Packer` fills each node to capacity; a last node left
    /// underfull shares the entries of its left neighbour, split again at
    /// `split_point`, as a delete's merge does with two nodes that do not
    /// fit one. Fails on keys out of strictly ascending order or an entry
    /// larger than the tree takes.
    fn pack_level<'a, N: NodeKind>(
        &self,
        len: usize,
        entry: impl Fn(usize) -> (&'a [u8], Option<usize>),
    ) -> Result<Vec<usize>> {
        let config = *self.config();
        let compress = config.front_compression;
        let (page_size, max_entry) = (self.page_size(), self.max_entry_size());
        let mut packer = Packer::new::<N>(config, page_size);
        let mut ends = Vec::new();
        let mut prev: &[u8] = &[];
        for i in 0..len {
            let (key, value_len) = entry(i);
            if i > 0 && prev >= key {
                return Err(Error::Corrupt(
                    "bulk_load input not strictly ascending".into(),
                ));
            }
            let entry_len = key.len() + value_len.unwrap_or(0);
            if entry_len > max_entry {
                return Err(Error::EntryTooLarge {
                    len: entry_len,
                    max: max_entry,
                });
            }
            if packer.place(EntrySize::of(prev, key, value_len, compress)) {
                ends.push(i);
            }
            prev = key;
        }
        ends.push(len);

        let &[.., before, _] = ends.as_slice() else {
            return Ok(ends);
        };
        let up = usize::from(N::PROMOTES);
        let k = ends.len();
        // The last two nodes' entries, sized as one node's.
        let start = if k > 2 { ends[k - 3] + up } else { 0 };
        let mut sizes = Vec::with_capacity(len - start);
        let mut prev: &[u8] = &[];
        for i in start..len {
            let (key, value_len) = entry(i);
            sizes.push(EntrySize::of(prev, key, value_len, compress));
            prev = key;
        }
        let node_size = |from: usize| {
            let mut rest = sizes[from..].iter();
            let first = rest.next().map_or(0, |s| s.alone);
            N::HEADER + first + rest.map(|s| s.behind).sum::<usize>()
        };
        let tail = before + up - start;
        if config.underfull(sizes.len() - tail, node_size(tail), page_size) {
            // The two never fit one node: the packer closed the first
            // because the entry after it did not fit, so they share.
            ends[k - 2] = start + config.split_point(&sizes, N::HEADER, N::PROMOTES, page_size)?;
        }
        Ok(ends)
    }

    /// Insert many `(key, value)` pairs, sorting them first so clustered
    /// regions are updated with good page locality (batched updates, §3.5).
    ///
    /// Returns the number of keys that were newly inserted (not replaced).
    pub fn insert_batch(&mut self, mut items: Vec<(Vec<u8>, Vec<u8>)>) -> Result<u64> {
        items.sort_by(|a, b| a.0.cmp(&b.0));
        self.upsert_sorted(&items, |_, _| {})
    }

    /// Upsert entries already in ascending key order, telling `replaced`
    /// the position and old value of each that overwrote an entry. A run of
    /// keys bound for one leaf is applied to it in one visit — one descent,
    /// one forward pass editing the page where it lies — until the leaf is
    /// full; the key that does not fit goes through [`BTree::insert`],
    /// which splits exactly as it would have, so the tree that results is
    /// the one the same inserts made one by one. Returns the number of keys
    /// newly inserted.
    pub fn upsert_sorted<E: SortedEntries + ?Sized>(
        &mut self,
        items: &E,
        mut replaced: impl FnMut(usize, &[u8]),
    ) -> Result<u64> {
        if (1..items.len()).any(|i| items.key(i - 1) > items.key(i)) {
            return Err(Error::Corrupt("upsert_sorted input not ascending".into()));
        }
        let max_entry = self.max_entry_size();
        let mut fresh = 0;
        let mut next = 0;
        while next < items.len() {
            let (leaf_id, page, upper) = self.leaf_for(items.key(next))?;
            let in_leaf = |i: usize| {
                i < items.len() && {
                    let (key, value) = (items.key(i), items.value(i));
                    upper.as_deref().is_none_or(|u| key < u) && key.len() + value.len() <= max_entry
                }
            };
            let bytes = page.read();
            let mut editor = LeafEditor::open(&bytes, self.config())?;
            let first = if in_leaf(next) {
                editor.put(&bytes, items.key(next), items.value(next))?
            } else {
                None
            };
            drop(bytes);
            let Some(mut edit) = first else {
                // The leaf as it stands cannot take the key: split it (or
                // refuse an oversized entry) the ordinary way.
                match self.insert(items.key(next), items.value(next))? {
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
                match editor.put(&page.read(), items.key(next), items.value(next))? {
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

/// The staged bulk load the packed one replaced: every leaf built as a
/// [`LeafNode`] before any page is written, and each level's tail evened
/// by joining nodes. Kept as the reference the differential tests compare
/// the packed pages against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn bulk_replace<S: PageStore>(
        tree: &mut BTree<S>,
        items: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<()> {
        assert!(tree.is_empty());
        tree.bump_epoch();
        let config = *tree.config();
        let compress = config.front_compression;
        let max_entry = tree.max_entry_size();

        let (mut leaves, mut seps) = (Vec::new(), Vec::new());
        let mut cur = LeafNode::new(PageId::NULL);
        let mut packer = Packer::new::<LeafNode>(config, tree.page_size());
        let mut prev: &[u8] = &[];
        for (count, (key, value)) in items.iter().enumerate() {
            if count > 0 && prev >= key.as_slice() {
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
            if packer.place(EntrySize::of(prev, key, Some(value.len()), compress)) {
                seps.push(separator(prev, key, compress).to_vec());
                leaves.push(std::mem::replace(&mut cur, LeafNode::new(PageId::NULL)));
            }
            cur.push(key, value);
            prev = key;
        }
        leaves.push(cur);
        even_tail(tree, &mut leaves, &mut seps)?;

        let mut level = (0..leaves.len())
            .map(|_| Ok(tree.allocate_page()?.0))
            .collect::<Result<Vec<_>>>()?;
        for (i, mut leaf) in leaves.into_iter().enumerate() {
            leaf.next = level.get(i + 1).copied().unwrap_or(PageId::NULL);
            tree.store(level[i], &leaf)?;
        }
        while level.len() > 1 {
            let (mut nodes, mut proms) = (Vec::new(), Vec::new());
            let mut cur = InternalNode::new(level[0]);
            let mut packer = Packer::new::<InternalNode>(config, tree.page_size());
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
            even_tail(tree, &mut nodes, &mut proms)?;
            level.clear();
            for node in &nodes {
                let (id, _) = tree.allocate_page()?;
                tree.store(id, node)?;
                level.push(id);
            }
            seps = proms;
        }
        let (empty_root, new_root) = (tree.root(), level[0]);
        if new_root != empty_root {
            tree.free_page(empty_root)?;
        }
        tree.set_root_len(new_root, items.len() as u64);
        Ok(())
    }

    fn even_tail<S: PageStore, N: NodeKind>(
        tree: &BTree<S>,
        nodes: &mut Vec<N>,
        seps: &mut Vec<Vec<u8>>,
    ) -> Result<()> {
        if let [.., prev, tail] = nodes.as_mut_slice() {
            if tree.underfull(tail) {
                let between = seps.pop().expect("a separator precedes the tail");
                match tree.join(prev, &between, tail, PageId::NULL)? {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Capacity;
    use pagestore::MemStore;
    use proptest::prelude::*;

    /// Root, length, then every live page's id and bytes.
    fn pages(tree: &BTree<MemStore>) -> Vec<(u32, Vec<u8>)> {
        let mut out = vec![(tree.root().0, tree.len().to_le_bytes().to_vec())];
        for id in tree.page_ids().unwrap() {
            out.push((id.0, tree.pool().fetch(id).unwrap().read().to_vec()));
        }
        out
    }

    /// The packed and the staged bulk load of `items` write the same pages
    /// under the same ids, or fail alike.
    fn same_pages(page: usize, config: BTreeConfig, items: &[(Vec<u8>, Vec<u8>)]) {
        let tree = || BTree::create(BufferPool::new(MemStore::new(page), 1 << 14), config).unwrap();
        let (mut packed, mut staged) = (tree(), tree());
        let got = packed.bulk_replace(items).map_err(|e| e.to_string());
        let want = reference::bulk_replace(&mut staged, items).map_err(|e| e.to_string());
        assert_eq!(
            got,
            want,
            "{config:?}, {page}-byte pages, {} items",
            items.len()
        );
        if got.is_ok() {
            packed.verify().unwrap();
            assert!(
                pages(&packed) == pages(&staged),
                "{config:?}, {page}-byte pages, {} items: the pages differ",
                items.len()
            );
        }
    }

    fn config_for(m: usize, compress: bool) -> BTreeConfig {
        let capacity = if m <= 10 {
            Capacity::Entries(m)
        } else {
            Capacity::Bytes
        };
        BTreeConfig {
            capacity,
            front_compression: compress,
            ..Default::default()
        }
    }

    #[test]
    fn packed_pages_equal_staged_pages_over_a_size_sweep() {
        let key = |i: usize| format!("{:03}.{i:05}", i / 50).into_bytes();
        for page in [128, 256, 1024] {
            for m in 2..=11 {
                let config = config_for(m, m % 2 == 0);
                let vmod = if m <= 10 { 3 } else { 13 };
                for n in (0..40).chain((40..1500).step_by(37)) {
                    let items: Vec<_> =
                        (0..n).map(|i| (key(i), vec![b'v'; i * 7 % vmod])).collect();
                    same_pages(page, config, &items);
                }
            }
        }
    }

    #[test]
    fn bulk_replace_refuses_what_the_staged_load_refused() {
        let config = BTreeConfig::default();
        let k = |s: &str| (s.as_bytes().to_vec(), Vec::new());
        same_pages(128, config, &[k("b"), k("a")]);
        same_pages(128, config, &[k("a"), k("a")]);
        same_pages(128, config, &[k("a"), (b"b".to_vec(), vec![0; 60])]);
    }

    fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        // A small alphabet holding 0x00 makes long shared prefixes, keys
        // that are prefixes of others and embedded separators likely.
        proptest::collection::vec(prop_oneof![0..3u8, any::<u8>()], 0..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn packed_pages_equal_staged_pages(
            keys in proptest::collection::btree_set(arb_bytes(30), 0..700),
            value_lens in proptest::collection::vec(0..12usize, 700),
            m in 2..=11usize,
            compress in any::<bool>(),
            page in prop_oneof![Just(128usize), Just(256usize), Just(1024usize)],
        ) {
            let items: Vec<_> = keys
                .into_iter()
                .zip(&value_lens)
                .map(|(k, &v)| (k, vec![0xA5; v]))
                .collect();
            same_pages(page, config_for(m, compress), &items);
        }

        /// Sorting the records orders and deduplicates exactly as sorting
        /// the byte strings does: keys on both sides of the record's prefix
        /// width, keys that are prefixes of others, embedded zero bytes.
        #[test]
        fn key_buffer_sorts_as_byte_strings_do(
            keys in proptest::collection::vec(arb_bytes(40), 0..200),
            cuts in proptest::collection::vec(0..40usize, 50),
        ) {
            let mut keys = keys;
            // Prefixes of drawn keys, and keys that share a 24-byte prefix.
            for (i, &cut) in cuts.iter().enumerate() {
                if let Some(k) = keys.get(i).cloned() {
                    keys.push(k[..cut.min(k.len())].to_vec());
                    let mut long = vec![0u8; SORT_PREFIX];
                    long.extend_from_slice(&k);
                    keys.push(long);
                }
            }
            let mut buf = KeyBuffer::new();
            for k in &keys {
                buf.push(k);
            }
            buf.sort();
            let mut want = keys.clone();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(buf.iter().map(<[u8]>::to_vec).collect::<Vec<_>>(), want.clone());
            for k in &want {
                prop_assert!(buf.contains(k));
            }
            let mut absent = want.last().cloned().unwrap_or_default();
            absent.push(7);
            prop_assert!(!buf.contains(&absent));
        }
    }
}
