//! In-memory node representation and its (front-compressed) page encoding.
//!
//! Page layouts (all integers little-endian):
//!
//! ```text
//! leaf:     [tag=1][next_leaf u32][count u16][entry]*
//!           entry = varint prefix_len, varint suffix_len, suffix,
//!                   varint value_len, value
//! interior: [tag=0][count u16][child_0 u32][sep-entry]*
//!           sep-entry = varint prefix_len, varint suffix_len, suffix,
//!                       child u32
//! ```
//!
//! `prefix_len` is the number of leading bytes shared with the *previous*
//! key in the node (always 0 for the first entry, and for every entry when
//! front compression is disabled).
//!
//! # The codec boundary
//!
//! The layout above has one encoder, `Encode::encode`, which both node
//! kinds share ([`Node::encode`] dispatches to it), and bulk load writes
//! its leaves through, straight from the sorted input. **Readers** — every
//! `ReadView` operation — read a leaf where it lies, through
//! [`crate::LeafWalker`] (`walk.rs`), and decode an interior once per
//! frame, as an [`InternalNode`], for routing's binary search. **A writer
//! edits a leaf in place** unless it splits or merges: a
//! [`crate::LeafEditor`] (`edit.rs`) rewrites the edited entry and its
//! successor's `prefix_len`/suffix and moves the tail, leaving the bytes
//! `encode` would have written. **Splits, merges and `verify`** decode a
//! leaf into a [`LeafNode`], take an interior from the frame's cache, and
//! lay out either kind through `NodeKind`, over entry sizes: one
//! split-point search (`BTreeConfig::split_point`) and one level packer
//! (`config::Packer`), which bulk load runs over its input's entries
//! without decoding or staging a leaf. A decoded node is an **arena**: one
//! `Vec<u8>` of every prefix-expanded key — in a leaf, each followed by its
//! value — and one `Vec<u32>` offset table, reached only through `key(i)` /
//! `value(i)` / `sep(i)` and the writers `insert_at` / `remove_at` /
//! `split_off` / `append`. Decoding a leaf is two allocations whatever its
//! entry count, and cloning one is two `memcpy`s. A walk accepts exactly
//! the pages [`Node::decode`] accepts, and the editor exactly those of them
//! the encoder could have written (`tests/decode_fuzz.rs`).
//!
//! **Decode bound.** [`Node::decode`] measures a page before it allocates:
//! a first pass validates every length (`prefix_len` within the previous
//! key, suffix/value/child within the page) and sums the reconstructed
//! sizes, so the arena is allocated once at its exact size. A forged
//! `prefix_len`/`suffix_len` chain can make each key as long as the page
//! but no longer, so a page of `count` entries never reconstructs more
//! than `count × page_len` key bytes plus `page_len` value bytes; a count
//! the page cannot hold (three bytes per leaf entry, six per separator) or
//! a total beyond the `u32` offset width is rejected up front with
//! [`Error::Corrupt`].

use pagestore::{Error, PageId, Result};

use crate::codec::{common_prefix_len, read_varint, separator, varint_len, write_varint};
use crate::config::BTreeConfig;

const TAG_INTERIOR: u8 = 0;
pub(crate) const TAG_LEAF: u8 = 1;

/// Fixed header size of a leaf page (tag + next pointer + count).
pub(crate) const LEAF_HEADER: usize = 1 + 4 + 2;
/// Fixed header size of an interior page (tag + count + first child).
pub(crate) const INTERIOR_HEADER: usize = 1 + 2 + 4;

/// Smallest encoded leaf entry: three one-byte varints, empty key and value.
const MIN_LEAF_ENTRY: usize = 3;
/// Smallest encoded separator entry: two one-byte varints and a child id.
const MIN_SEP_ENTRY: usize = 2 + 4;

fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("node arena stays below 4 GiB")
}

/// A sequence of byte strings stored back to back in one allocation, with
/// one offset table: item `i` is `bytes[offs[i]..offs[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slots {
    bytes: Vec<u8>,
    /// `len() + 1` ascending offsets into `bytes`; the first is 0 and the
    /// last is `bytes.len()`.
    offs: Vec<u32>,
}

impl Slots {
    fn new() -> Self {
        Slots {
            bytes: Vec::new(),
            offs: vec![0],
        }
    }

    fn len(&self) -> usize {
        self.offs.len() - 1
    }

    #[inline]
    fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    fn push(&mut self, item: &[u8]) {
        self.bytes.extend_from_slice(item);
        self.offs.push(offset(self.bytes.len()));
    }

    /// Replace the `remove` items starting at `at` with `items`: one move
    /// of the byte tail and one of the offset tail, whatever the counts.
    fn splice(&mut self, at: usize, remove: usize, items: &[&[u8]]) {
        let start = self.offs[at] as usize;
        let old_end = self.offs[at + remove] as usize;
        let new_end = start + items.iter().map(|s| s.len()).sum::<usize>();
        let old_len = self.bytes.len();
        if new_end >= old_end {
            self.bytes.resize(old_len + (new_end - old_end), 0);
            self.bytes.copy_within(old_end..old_len, new_end);
        } else {
            self.bytes.copy_within(old_end..old_len, new_end);
            self.bytes.truncate(old_len - (old_end - new_end));
        }
        let mut pos = start;
        let ends = items.iter().map(|item| {
            self.bytes[pos..pos + item.len()].copy_from_slice(item);
            pos += item.len();
            offset(pos)
        });
        self.offs.splice(at + 1..at + 1 + remove, ends);
        for off in &mut self.offs[at + 1 + items.len()..] {
            *off = offset(*off as usize - old_end + new_end);
        }
    }

    /// Move the items from `at` on into a new sequence.
    fn split_off(&mut self, at: usize) -> Slots {
        let cut = self.offs[at];
        let bytes = self.bytes.split_off(cut as usize);
        let offs = self.offs[at..].iter().map(|o| o - cut).collect();
        self.offs.truncate(at + 1);
        Slots { bytes, offs }
    }

    fn append(&mut self, other: &Slots) {
        let base = self.bytes.len();
        self.bytes.extend_from_slice(&other.bytes);
        self.offs
            .extend(other.offs[1..].iter().map(|&o| offset(base + o as usize)));
    }
}

/// A decoded leaf node: entries in strictly increasing key order, held in
/// one arena (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafNode {
    /// Items `2i` and `2i + 1` are entry `i`'s key and value.
    slots: Slots,
    /// The next leaf in key order, or [`PageId::NULL`] for the last leaf.
    pub next: PageId,
}

impl LeafNode {
    /// An empty leaf chained to `next`.
    pub fn new(next: PageId) -> Self {
        LeafNode {
            slots: Slots::new(),
            next,
        }
    }

    /// Decode a page with the leaf tag (bounds in the module docs).
    pub(crate) fn decode(page: &[u8]) -> Result<LeafNode> {
        let (next, count) = leaf_header(page)?;
        let total = measure(page, LEAF_HEADER, count, true)?;
        let slots = fill(page, LEAF_HEADER, count, total, true, |_| {})?;
        Ok(LeafNode { slots, next })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// Whether the leaf holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Full (decompressed) key bytes of entry `i`.
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        self.slots.get(2 * i)
    }

    /// Value bytes of entry `i`; may be empty (the U-index stores key-only
    /// entries).
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        self.slots.get(2 * i + 1)
    }

    /// Binary search for `key`: `Ok(i)` when entry `i` holds it, otherwise
    /// `Err(i)` with the slot it would be inserted at. Either way `i` is
    /// the first entry with a key `>= key`.
    pub fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok(mid),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// Append an entry; the caller keeps the keys ascending.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        self.slots.push(key);
        self.slots.push(value);
    }

    /// Insert an entry before slot `i`.
    pub fn insert_at(&mut self, i: usize, key: &[u8], value: &[u8]) {
        self.slots.splice(2 * i, 0, &[key, value]);
    }

    /// Replace the value of entry `i`.
    pub fn set_value(&mut self, i: usize, value: &[u8]) {
        self.slots.splice(2 * i + 1, 1, &[value]);
    }

    /// Remove entry `i`.
    pub fn remove_at(&mut self, i: usize) {
        self.slots.splice(2 * i, 2, &[]);
    }

    /// Move the entries from `at` on into a new leaf, which inherits this
    /// leaf's `next` pointer.
    pub fn split_off(&mut self, at: usize) -> LeafNode {
        LeafNode {
            slots: self.slots.split_off(2 * at),
            next: self.next,
        }
    }

    /// Append every entry of `other` (its `next` pointer is not taken).
    pub fn append(&mut self, other: &LeafNode) {
        self.slots.append(&other.slots);
    }

    /// Exact size of the encoded form.
    pub fn encoded_size(&self, compress: bool) -> usize {
        Encode::encoded_size(self, compress)
    }
}

/// A decoded interior node: `len()` separators and `len() + 1` children.
///
/// Routing: a key `k` goes to `child(i)` where `i` is the number of
/// separators `<= k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalNode {
    /// Separator keys (possibly suffix-truncated), strictly increasing.
    seps: Slots,
    /// Child page ids, one more than there are separators.
    children: Vec<PageId>,
}

impl InternalNode {
    /// An interior node with a single child and no separators.
    pub fn new(first_child: PageId) -> Self {
        InternalNode {
            seps: Slots::new(),
            children: vec![first_child],
        }
    }

    /// Decode a page without the leaf tag (bounds in the module docs): an
    /// interior's, else [`Error::Corrupt`].
    pub(crate) fn decode(page: &[u8]) -> Result<InternalNode> {
        let tag = *page
            .first()
            .ok_or_else(|| Error::Corrupt("empty page".into()))?;
        if tag != TAG_INTERIOR {
            return Err(Error::Corrupt(format!("unknown node tag {tag}")));
        }
        if page.len() < INTERIOR_HEADER {
            return Err(Error::Corrupt("interior header truncated".into()));
        }
        let count = u16::from_le_bytes(page[1..3].try_into().unwrap()) as usize;
        let total = measure(page, INTERIOR_HEADER, count, false)?;
        let mut children = Vec::with_capacity(count + 1);
        children.push(PageId::from_bytes(page[3..7].try_into().unwrap()));
        let seps = fill(page, INTERIOR_HEADER, count, total, false, |child| {
            children.push(child)
        })?;
        Ok(InternalNode { seps, children })
    }

    /// Number of separators.
    pub fn len(&self) -> usize {
        self.seps.len()
    }

    /// Whether the node has no separators (a pass-through to one child).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Separator `i`.
    #[inline]
    pub fn sep(&self, i: usize) -> &[u8] {
        self.seps.get(i)
    }

    /// Child `i` (`0..=len()`).
    #[inline]
    pub fn child(&self, i: usize) -> PageId {
        self.children[i]
    }

    /// All child page ids, in key order.
    pub fn children(&self) -> &[PageId] {
        &self.children
    }

    /// Index of the child a key routes to: the number of separators
    /// `<= key`.
    pub fn route(&self, key: &[u8]) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.sep(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Append a separator and the child to its right.
    pub fn push(&mut self, sep: &[u8], child: PageId) {
        self.seps.push(sep);
        self.children.push(child);
    }

    /// Insert separator `sep` at slot `i` with `right` as the child after
    /// it (what a split of child `i` hands its parent).
    pub fn insert_at(&mut self, i: usize, sep: &[u8], right: PageId) {
        self.seps.splice(i, 0, &[sep]);
        self.children.insert(i + 1, right);
    }

    /// Remove separator `i` and the child to its right.
    pub fn remove_at(&mut self, i: usize) {
        self.seps.splice(i, 1, &[]);
        self.children.remove(i + 1);
    }

    /// Replace separator `i`.
    pub fn set_sep(&mut self, i: usize, sep: &[u8]) {
        self.seps.splice(i, 1, &[sep]);
    }

    /// Split around separator `promote`: this node keeps the separators
    /// before it and their children, the returned node gets those after
    /// it, and the separator itself moves up.
    pub fn split_off(&mut self, promote: usize) -> (Vec<u8>, InternalNode) {
        let right = InternalNode {
            seps: self.seps.split_off(promote + 1),
            children: self.children.split_off(promote + 1),
        };
        let promoted = self.sep(promote).to_vec();
        self.seps.splice(promote, 1, &[]);
        (promoted, right)
    }

    /// Merge `other` in from the right, with `sep` (the parent's separator
    /// between the two) pulled down between the separator lists.
    pub fn append(&mut self, sep: &[u8], other: &InternalNode) {
        self.seps.push(sep);
        self.seps.append(&other.seps);
        self.children.extend_from_slice(&other.children);
    }
}

/// A decoded B-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Leaf level.
    Leaf(LeafNode),
    /// Interior level.
    Internal(InternalNode),
}

impl Node {
    /// Number of entries (leaf) or separators (interior).
    pub fn count(&self) -> usize {
        match self {
            Node::Leaf(l) => l.len(),
            Node::Internal(i) => i.len(),
        }
    }

    /// Reconstructed key (and, in a leaf, value) bytes the node holds —
    /// the quantity the decode bound in the module docs limits.
    pub fn arena_len(&self) -> usize {
        match self {
            Node::Leaf(l) => l.slots.bytes.len(),
            Node::Internal(i) => i.seps.bytes.len(),
        }
    }

    /// Exact size of the encoded form.
    pub fn encoded_size(&self, compress: bool) -> usize {
        match self {
            Node::Leaf(l) => l.encoded_size(compress),
            Node::Internal(n) => n.encoded_size(compress),
        }
    }

    /// Encode into `page`, zero-padding the tail.
    ///
    /// Fails with [`Error::Corrupt`], leaving `page` untouched, if the
    /// encoding does not fit — callers must split before storing.
    pub fn encode(&self, page: &mut [u8], compress: bool) -> Result<()> {
        match self {
            Node::Leaf(l) => l.encode(page, compress),
            Node::Internal(n) => n.encode(page, compress),
        }
    }

    /// Decode a node from page bytes (bounds in the module docs).
    pub fn decode(page: &[u8]) -> Result<Node> {
        if page.first() == Some(&TAG_LEAF) {
            LeafNode::decode(page).map(Node::Leaf)
        } else {
            InternalNode::decode(page).map(Node::Internal)
        }
    }
}

/// One entry's encoded size: behind its predecessor in a node, and as a
/// node's first entry, which shares no prefix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntrySize {
    pub(crate) behind: usize,
    pub(crate) alone: usize,
}

impl EntrySize {
    /// The size of `key` behind `prev`, with a `value_len`-byte value or
    /// (`None`) a separator's child pointer.
    pub(crate) fn of(prev: &[u8], key: &[u8], value_len: Option<usize>, compress: bool) -> Self {
        EntrySize {
            behind: entry_size(shared_prefix(prev, key, compress), key.len(), value_len),
            alone: entry_size(0, key.len(), value_len),
        }
    }
}

/// A node as the page encoder reads it: a header, then entries in key
/// order, each a key and its payload (a leaf's value, an interior's child).
/// `encode` is the one encoder every page goes through — a decoded node's,
/// and bulk load's leaves, which it reads straight from the sorted input.
pub(crate) trait Encode {
    /// Fixed header bytes of a page of this kind.
    const HEADER: usize;

    /// Number of entries (separators, in an interior).
    fn count(&self) -> usize;

    /// Entry `i`'s key, and its value's length (`None`: a child pointer).
    fn entry(&self, i: usize) -> (&[u8], Option<usize>);

    /// Write the page header, with the entry count's bytes.
    fn put_header(&self, page: &mut [u8], count: [u8; 2]);

    /// Write what follows entry `i`'s key: its value, or its child.
    fn put_payload(&self, i: usize, page: &mut [u8], pos: &mut usize);

    /// Exact size of the encoded form.
    fn encoded_size(&self, compress: bool) -> usize {
        let mut prev: &[u8] = &[];
        let mut size = Self::HEADER;
        for i in 0..self.count() {
            let (key, value_len) = self.entry(i);
            size += entry_size(shared_prefix(prev, key, compress), key.len(), value_len);
            prev = key;
        }
        size
    }

    /// Encode into `page` as [`Node::encode`] does.
    fn encode(&self, page: &mut [u8], compress: bool) -> Result<()> {
        let count = u16::try_from(self.count())
            .map_err(|_| Error::Corrupt("too many entries in a node".into()))?;
        let size = self.encoded_size(compress);
        if size > page.len() {
            return Err(Error::Corrupt(format!(
                "node encoding {size} bytes exceeds page size {}",
                page.len()
            )));
        }
        self.put_header(page, count.to_le_bytes());
        let mut pos = Self::HEADER;
        let mut prev: &[u8] = &[];
        for i in 0..self.count() {
            let (key, _) = self.entry(i);
            put_key(page, &mut pos, prev, key, compress);
            self.put_payload(i, page, &mut pos);
            prev = key;
        }
        debug_assert_eq!(pos, size, "encoded_size disagrees with encode");
        page[pos..].fill(0);
        Ok(())
    }
}

/// A node kind as the writer lays it out: splits, merges and bulk load
/// handle leaves and interiors through it, so that each layout decision is
/// made once for both (`BTreeConfig::split_point`, `config::Packer`).
pub(crate) trait NodeKind: Encode + Sized {
    /// Whether the entry at a boundary moves up to the parent: an
    /// interior's separator does, a leaf's entry opens the node to its right.
    const PROMOTES: bool;

    /// Take in the entries of `right`, the next sibling; `between` is the
    /// parent's separator between the two.
    fn absorb(&mut self, between: &[u8], right: &Self);

    /// Keep the entries before `at`, and return the separator the parent
    /// gets and the node to the right, which is to live on page `right_id`.
    fn split(&mut self, at: usize, right_id: PageId, config: &BTreeConfig) -> (Vec<u8>, Self);
}

impl Encode for LeafNode {
    const HEADER: usize = LEAF_HEADER;

    fn count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn entry(&self, i: usize) -> (&[u8], Option<usize>) {
        (self.key(i), Some(self.value(i).len()))
    }

    fn put_header(&self, page: &mut [u8], count: [u8; 2]) {
        put_leaf_header(page, self.next, count);
    }

    #[inline]
    fn put_payload(&self, i: usize, page: &mut [u8], pos: &mut usize) {
        put_value(page, pos, self.value(i));
    }
}

impl NodeKind for LeafNode {
    const PROMOTES: bool = false;

    fn absorb(&mut self, _between: &[u8], right: &Self) {
        self.append(right);
        self.next = right.next;
    }

    fn split(&mut self, at: usize, right_id: PageId, config: &BTreeConfig) -> (Vec<u8>, Self) {
        let right = self.split_off(at);
        self.next = right_id;
        let last = self.key(self.len() - 1);
        (
            separator(last, right.key(0), config.front_compression).to_vec(),
            right,
        )
    }
}

impl Encode for InternalNode {
    const HEADER: usize = INTERIOR_HEADER;

    fn count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn entry(&self, i: usize) -> (&[u8], Option<usize>) {
        (self.sep(i), None)
    }

    fn put_header(&self, page: &mut [u8], count: [u8; 2]) {
        page[0] = TAG_INTERIOR;
        page[1..3].copy_from_slice(&count);
        page[3..7].copy_from_slice(&self.child(0).to_bytes());
    }

    #[inline]
    fn put_payload(&self, i: usize, page: &mut [u8], pos: &mut usize) {
        put(page, pos, &self.child(i + 1).to_bytes());
    }
}

impl NodeKind for InternalNode {
    const PROMOTES: bool = true;

    fn absorb(&mut self, between: &[u8], right: &Self) {
        self.append(between, right);
    }

    fn split(&mut self, at: usize, _: PageId, _: &BTreeConfig) -> (Vec<u8>, Self) {
        self.split_off(at)
    }
}

/// The `next` pointer and entry count of a page with the leaf tag.
pub(crate) fn leaf_header(page: &[u8]) -> Result<(PageId, usize)> {
    if page.len() < LEAF_HEADER {
        return Err(Error::Corrupt("leaf header truncated".into()));
    }
    let next = PageId::from_bytes(page[1..5].try_into().expect("four bytes"));
    let count = u16::from_le_bytes(page[5..7].try_into().expect("two bytes")) as usize;
    Ok((next, count))
}

/// Write a leaf page's header: the tag, the `next` pointer and the entry
/// count's bytes.
pub(crate) fn put_leaf_header(page: &mut [u8], next: PageId, count: [u8; 2]) {
    page[0] = TAG_LEAF;
    page[1..5].copy_from_slice(&next.to_bytes());
    page[5..7].copy_from_slice(&count);
}

/// Write a leaf entry's value behind its key: its length, then its bytes.
#[inline]
pub(crate) fn put_value(page: &mut [u8], pos: &mut usize, value: &[u8]) {
    write_varint(page, pos, value.len() as u32);
    put(page, pos, value);
}

pub(crate) fn put(page: &mut [u8], pos: &mut usize, bytes: &[u8]) {
    page[*pos..*pos + bytes.len()].copy_from_slice(bytes);
    *pos += bytes.len();
}

fn put_key(page: &mut [u8], pos: &mut usize, prev: &[u8], key: &[u8], compress: bool) {
    let plen = shared_prefix(prev, key, compress);
    write_varint(page, pos, plen as u32);
    write_varint(page, pos, (key.len() - plen) as u32);
    put(page, pos, &key[plen..]);
}

/// First decode pass: validate every length of the `count` entries that
/// start at `pos` — leaf entries when `leaf`, separator entries otherwise —
/// and return the number of arena bytes they reconstruct. Allocates nothing.
fn measure(page: &[u8], mut pos: usize, count: usize, leaf: bool) -> Result<usize> {
    check_count(page, pos, count, leaf)?;
    let mut total = 0;
    let mut prev_len = 0;
    for _ in 0..count {
        let plen = read_varint(page, &mut pos)? as usize;
        let slen = read_varint(page, &mut pos)? as usize;
        if plen > prev_len || slen > page.len() - pos {
            return Err(Error::Corrupt("bad key prefix/suffix lengths".into()));
        }
        pos += slen;
        prev_len = plen + slen;
        total += prev_len;
        let trailer = if leaf {
            read_varint(page, &mut pos)? as usize
        } else {
            4
        };
        if trailer > page.len() - pos {
            return Err(Error::Corrupt(
                "leaf value or child pointer past end of page".into(),
            ));
        }
        pos += trailer;
        if leaf {
            total += trailer;
        }
    }
    Ok(total)
}

/// Reject a `count` of entries starting at `pos` that the page cannot
/// hold: three bytes per leaf entry, six per separator. No key outgrows the
/// page, so `(count + 1) * page.len()` bounds a decode's arena; a page under
/// 64 KiB can never trip that offset-width check.
pub(crate) fn check_count(page: &[u8], pos: usize, count: usize, leaf: bool) -> Result<()> {
    let min_entry = if leaf { MIN_LEAF_ENTRY } else { MIN_SEP_ENTRY };
    if count > (page.len() - pos) / min_entry
        || (count + 1).saturating_mul(page.len()) > u32::MAX as usize
    {
        return Err(Error::Corrupt(format!(
            "node claims {count} entries in a {}-byte page",
            page.len()
        )));
    }
    Ok(())
}

/// Second decode pass, over a page [`measure`] accepted: expand each key
/// behind its predecessor in an arena of exactly `total` bytes, followed by
/// its value (leaf) or handing its child pointer to `child` (interior).
fn fill(
    page: &[u8],
    mut pos: usize,
    count: usize,
    total: usize,
    leaf: bool,
    mut child: impl FnMut(PageId),
) -> Result<Slots> {
    let mut bytes = Vec::with_capacity(total);
    let mut offs = Vec::with_capacity(if leaf { 2 * count } else { count } + 1);
    offs.push(0);
    let mut prev_start = 0;
    for _ in 0..count {
        let plen = read_varint(page, &mut pos)? as usize;
        let slen = read_varint(page, &mut pos)? as usize;
        let start = bytes.len();
        bytes.extend_from_within(prev_start..prev_start + plen);
        bytes.extend_from_slice(&page[pos..pos + slen]);
        pos += slen;
        offs.push(bytes.len() as u32);
        prev_start = start;
        if leaf {
            let vlen = read_varint(page, &mut pos)? as usize;
            bytes.extend_from_slice(&page[pos..pos + vlen]);
            pos += vlen;
            offs.push(bytes.len() as u32);
        } else {
            child(PageId::from_bytes(page[pos..pos + 4].try_into().unwrap()));
            pos += 4;
        }
    }
    debug_assert_eq!(bytes.len(), total, "measure disagrees with fill");
    Ok(Slots { bytes, offs })
}

/// Bytes of `key` that front compression drops: the prefix it shares with
/// the key before it (`prev`), or none when compression is off.
fn shared_prefix(prev: &[u8], key: &[u8], compress: bool) -> usize {
    if compress {
        common_prefix_len(prev, key)
    } else {
        0
    }
}

/// Encoded size of one entry whose key shares `plen` bytes with its
/// predecessor: a leaf entry with a `value_len`-byte value, or (`None`) a
/// separator with its child pointer.
pub(crate) fn entry_size(plen: usize, key_len: usize, value_len: Option<usize>) -> usize {
    let slen = key_len - plen;
    let mut size = varint_len(plen as u32) + varint_len(slen as u32) + slen;
    match value_len {
        Some(v) => size += varint_len(v as u32) + v,
        None => size += 4, // child pointer
    }
    size
}

/// The `Vec`-of-owned-entries decoder the arena decoder replaced, kept as
/// the reference the differential tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// A node as the reference decoder sees it: one owned vector per key
    /// and per value.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) enum RefNode {
        Leaf {
            entries: Vec<(Vec<u8>, Vec<u8>)>,
            next: PageId,
        },
        Internal {
            seps: Vec<Vec<u8>>,
            children: Vec<PageId>,
        },
    }

    impl RefNode {
        /// The same contents read through the arena accessors.
        pub(crate) fn of(node: &Node) -> RefNode {
            match node {
                Node::Leaf(l) => RefNode::Leaf {
                    entries: (0..l.len())
                        .map(|i| (l.key(i).to_vec(), l.value(i).to_vec()))
                        .collect(),
                    next: l.next,
                },
                Node::Internal(n) => RefNode::Internal {
                    seps: (0..n.len()).map(|i| n.sep(i).to_vec()).collect(),
                    children: n.children().to_vec(),
                },
            }
        }
    }

    pub(crate) fn decode(page: &[u8]) -> Result<RefNode> {
        let tag = *page
            .first()
            .ok_or_else(|| Error::Corrupt("empty page".into()))?;
        match tag {
            TAG_LEAF => {
                if page.len() < LEAF_HEADER {
                    return Err(Error::Corrupt("leaf header truncated".into()));
                }
                let next = PageId::from_bytes(page[1..5].try_into().unwrap());
                let count = u16::from_le_bytes(page[5..7].try_into().unwrap()) as usize;
                let mut pos = LEAF_HEADER;
                let mut entries = Vec::with_capacity(count);
                let mut prev: Vec<u8> = Vec::new();
                for _ in 0..count {
                    let plen = read_varint(page, &mut pos)? as usize;
                    let slen = read_varint(page, &mut pos)? as usize;
                    if plen > prev.len() || pos + slen > page.len() {
                        return Err(Error::Corrupt("bad leaf entry lengths".into()));
                    }
                    let mut key = Vec::with_capacity(plen + slen);
                    key.extend_from_slice(&prev[..plen]);
                    key.extend_from_slice(&page[pos..pos + slen]);
                    pos += slen;
                    let vlen = read_varint(page, &mut pos)? as usize;
                    if pos + vlen > page.len() {
                        return Err(Error::Corrupt("bad leaf value length".into()));
                    }
                    let value = page[pos..pos + vlen].to_vec();
                    pos += vlen;
                    prev = key.clone();
                    entries.push((key, value));
                }
                Ok(RefNode::Leaf { entries, next })
            }
            TAG_INTERIOR => {
                if page.len() < INTERIOR_HEADER {
                    return Err(Error::Corrupt("interior header truncated".into()));
                }
                let count = u16::from_le_bytes(page[1..3].try_into().unwrap()) as usize;
                let first_child = PageId::from_bytes(page[3..7].try_into().unwrap());
                let mut pos = INTERIOR_HEADER;
                let mut seps = Vec::with_capacity(count);
                let mut children = Vec::with_capacity(count + 1);
                children.push(first_child);
                let mut prev: Vec<u8> = Vec::new();
                for _ in 0..count {
                    let plen = read_varint(page, &mut pos)? as usize;
                    let slen = read_varint(page, &mut pos)? as usize;
                    if plen > prev.len() || pos + slen > page.len() {
                        return Err(Error::Corrupt("bad separator lengths".into()));
                    }
                    let mut sep = Vec::with_capacity(plen + slen);
                    sep.extend_from_slice(&prev[..plen]);
                    sep.extend_from_slice(&page[pos..pos + slen]);
                    pos += slen;
                    if pos + 4 > page.len() {
                        return Err(Error::Corrupt("child pointer truncated".into()));
                    }
                    children.push(PageId::from_bytes(page[pos..pos + 4].try_into().unwrap()));
                    pos += 4;
                    prev = sep.clone();
                    seps.push(sep);
                }
                Ok(RefNode::Internal { seps, children })
            }
            t => Err(Error::Corrupt(format!("unknown node tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefNode;
    use super::*;
    use proptest::prelude::*;

    fn leaf(keys: &[&str]) -> Node {
        let mut l = LeafNode::new(PageId(7));
        for k in keys {
            l.push(k.as_bytes(), format!("v-{k}").as_bytes());
        }
        Node::Leaf(l)
    }

    fn interior(seps: &[&[u8]], children: &[u32]) -> Node {
        let mut n = InternalNode::new(PageId(children[0]));
        for (s, c) in seps.iter().zip(&children[1..]) {
            n.push(s, PageId(*c));
        }
        Node::Internal(n)
    }

    #[test]
    fn leaf_roundtrip_compressed() {
        let node = leaf(&["apple", "applesauce", "apricot", "banana"]);
        let mut page = vec![0u8; 256];
        node.encode(&mut page, true).unwrap();
        let back = Node::decode(&page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn leaf_roundtrip_uncompressed() {
        let node = leaf(&["apple", "applesauce", "apricot", "banana"]);
        let mut page = vec![0u8; 256];
        node.encode(&mut page, false).unwrap();
        let back = Node::decode(&page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn compression_shrinks_shared_prefixes() {
        let node = leaf(&[
            "shared-prefix-aaaa",
            "shared-prefix-aaab",
            "shared-prefix-aaac",
            "shared-prefix-aaad",
        ]);
        let c = node.encoded_size(true);
        let u = node.encoded_size(false);
        assert!(
            c + 3 * ("shared-prefix-aaa".len() - 2) <= u,
            "compressed {c} not much smaller than uncompressed {u}"
        );
    }

    #[test]
    fn encoded_size_is_exact() {
        for compress in [true, false] {
            let node = leaf(&["a", "ab", "abc", "b", "ba"]);
            let mut page = vec![0u8; 512];
            node.encode(&mut page, compress).unwrap();
            // Re-encode into a buffer of exactly the reported size: must fit.
            let size = node.encoded_size(compress);
            let mut tight = vec![0u8; size];
            node.encode(&mut tight, compress).unwrap();
            // One byte less must fail, and leave the page as it was.
            let mut small = vec![0x5Au8; size - 1];
            assert!(node.encode(&mut small, compress).is_err());
            assert!(small.iter().all(|&b| b == 0x5A));
        }
    }

    #[test]
    fn interior_roundtrip() {
        let node = interior(&[b"m", b"mm", b"t"], &[1, 2, 3, 4]);
        let mut page = vec![0u8; 128];
        node.encode(&mut page, true).unwrap();
        assert_eq!(Node::decode(&page).unwrap(), node);
    }

    #[test]
    fn empty_nodes_roundtrip() {
        let mut page = vec![0u8; 64];
        let node = Node::Leaf(LeafNode::new(PageId::NULL));
        node.encode(&mut page, true).unwrap();
        assert_eq!(Node::decode(&page).unwrap(), node);

        let node = interior(&[], &[9]);
        node.encode(&mut page, true).unwrap();
        assert_eq!(Node::decode(&page).unwrap(), node);
    }

    #[test]
    fn routing() {
        let Node::Internal(n) = interior(&[b"g", b"p"], &[0, 1, 2]) else {
            unreachable!()
        };
        assert_eq!(n.route(b"a"), 0);
        assert_eq!(n.route(b"f"), 0);
        assert_eq!(n.route(b"g"), 1); // key == separator goes right
        assert_eq!(n.route(b"o"), 1);
        assert_eq!(n.route(b"p"), 2);
        assert_eq!(n.route(b"z"), 2);
    }

    #[test]
    fn decode_garbage_fails() {
        assert!(Node::decode(&[]).is_err());
        assert!(Node::decode(&[9u8; 32]).is_err());
        // Leaf claiming more entries than present.
        let mut page = vec![0u8; 32];
        page[0] = TAG_LEAF;
        page[5] = 200;
        assert!(Node::decode(&page).is_err());
    }

    #[test]
    fn leaf_writers_keep_the_arena_consistent() {
        let Node::Leaf(mut l) = leaf(&["b", "d", "f"]) else {
            unreachable!()
        };
        assert_eq!(l.search(b"d"), Ok(1));
        assert_eq!(l.search(b"a"), Err(0));
        assert_eq!(l.search(b"e"), Err(2));
        assert_eq!(l.search(b"g"), Err(3));
        l.insert_at(0, b"a", b"first");
        l.insert_at(4, b"g", b"");
        l.insert_at(2, b"c", b"mid");
        l.set_value(1, b"a-much-longer-value");
        l.set_value(3, b"");
        let pairs = |l: &LeafNode| -> Vec<(Vec<u8>, Vec<u8>)> {
            (0..l.len())
                .map(|i| (l.key(i).to_vec(), l.value(i).to_vec()))
                .collect()
        };
        let p = |k: &str, v: &str| (k.as_bytes().to_vec(), v.as_bytes().to_vec());
        assert_eq!(
            pairs(&l),
            vec![
                p("a", "first"),
                p("b", "a-much-longer-value"),
                p("c", "mid"),
                p("d", ""),
                p("f", "v-f"),
                p("g", ""),
            ]
        );
        l.remove_at(0);
        l.remove_at(4);
        let mut right = l.split_off(2);
        assert_eq!(right.next, PageId(7), "the right half inherits next");
        assert_eq!(
            pairs(&l),
            vec![p("b", "a-much-longer-value"), p("c", "mid")]
        );
        assert_eq!(pairs(&right), vec![p("d", ""), p("f", "v-f")]);
        right.remove_at(1);
        l.append(&right);
        assert_eq!(
            pairs(&l),
            vec![p("b", "a-much-longer-value"), p("c", "mid"), p("d", "")]
        );
        // The arena holds exactly the live bytes: a node that went through
        // the writers equals one built fresh, and round-trips.
        let mut fresh = LeafNode::new(PageId(7));
        for (k, v) in pairs(&l) {
            fresh.push(&k, &v);
        }
        assert_eq!(l, fresh);
        let mut page = vec![0u8; 128];
        Node::Leaf(l.clone()).encode(&mut page, true).unwrap();
        assert_eq!(Node::decode(&page).unwrap(), Node::Leaf(l));
    }

    #[test]
    fn interior_writers_keep_separators_and_children_aligned() {
        let Node::Internal(mut n) = interior(&[b"g", b"p"], &[0, 1, 2]) else {
            unreachable!()
        };
        n.insert_at(1, b"k", PageId(9)); // child 1 split, 9 is its right half
        n.insert_at(0, b"c", PageId(8));
        assert_eq!(
            (0..n.len()).map(|i| n.sep(i)).collect::<Vec<_>>(),
            [&b"c"[..], b"g", b"k", b"p"]
        );
        assert_eq!(
            n.children(),
            [PageId(0), PageId(8), PageId(1), PageId(9), PageId(2)]
        );
        n.set_sep(2, b"kk");
        let (promoted, right) = n.split_off(1);
        assert_eq!(promoted, b"g");
        assert_eq!((n.len(), n.sep(0)), (1, &b"c"[..]));
        assert_eq!(n.children(), [PageId(0), PageId(8)]);
        assert_eq!((right.sep(0), right.sep(1)), (&b"kk"[..], &b"p"[..]));
        assert_eq!(right.children(), [PageId(1), PageId(9), PageId(2)]);
        n.append(&promoted, &right);
        n.remove_at(2); // separator "kk" and the child to its right
        assert_eq!(
            (0..n.len()).map(|i| n.sep(i)).collect::<Vec<_>>(),
            [&b"c"[..], b"g", b"p"]
        );
        assert_eq!(n.children(), [PageId(0), PageId(8), PageId(1), PageId(2)]);
    }

    /// New decoder ≡ reference decoder on one page, entry by entry, and a
    /// page a tree wrote re-encodes to itself.
    fn differential(page: &[u8], compress: bool) {
        let node = Node::decode(page).expect("a stored page decodes");
        assert_eq!(
            RefNode::of(&node),
            reference::decode(page).expect("reference decodes a stored page")
        );
        let mut out = vec![0xEEu8; page.len()];
        node.encode(&mut out, compress).unwrap();
        assert_eq!(out, page, "encode(decode(page)) != page");
    }

    #[test]
    fn differential_on_every_page_of_a_50k_entry_tree() {
        use crate::{BTree, BTreeConfig};
        use pagestore::{BufferPool, MemStore};

        for config in [
            BTreeConfig::default(),
            BTreeConfig::default().without_compression(),
        ] {
            let items = (0..50_000u32).map(|i| {
                (
                    format!("idx/{:03}/val{:05}/oid{:08}", i / 500, i / 7, i).into_bytes(),
                    vec![0xC3; (i % 4) as usize],
                )
            });
            let pool = BufferPool::new(MemStore::new(1024), 1 << 14);
            let tree = BTree::bulk_load(pool, config, items).unwrap();
            let stats = tree.verify().unwrap();
            assert_eq!(stats.entries, 50_000);
            let mut pages = 0;
            let mut stack = vec![tree.root()];
            while let Some(id) = stack.pop() {
                let page = tree.pool().fetch(id).unwrap().read().to_vec();
                differential(&page, config.front_compression);
                pages += 1;
                if let Node::Internal(n) = Node::decode(&page).unwrap() {
                    stack.extend_from_slice(n.children());
                }
            }
            assert_eq!(pages, stats.total_nodes());
        }
    }

    fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        // A small alphabet makes long shared prefixes likely.
        proptest::collection::vec(prop_oneof![0..3u8, any::<u8>()], 0..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn differential_on_generated_leaves(
            keys in proptest::collection::btree_set(arb_bytes(24), 0..40),
            values in proptest::collection::vec(arb_bytes(6), 40),
            next in any::<u32>(),
            compress in any::<bool>(),
        ) {
            let mut l = LeafNode::new(PageId(next));
            for (k, v) in keys.iter().zip(&values) {
                l.push(k, v);
            }
            let node = Node::Leaf(l);
            let mut page = vec![0u8; 2048];
            node.encode(&mut page, compress).unwrap();
            prop_assert_eq!(&Node::decode(&page).unwrap(), &node);
            differential(&page, compress);
        }

        #[test]
        fn differential_on_generated_interiors(
            seps in proptest::collection::btree_set(arb_bytes(24), 0..40),
            children in proptest::collection::vec(any::<u32>(), 41),
            compress in any::<bool>(),
        ) {
            let mut n = InternalNode::new(PageId(children[0]));
            for (s, c) in seps.iter().zip(&children[1..]) {
                n.push(s, PageId(*c));
            }
            let node = Node::Internal(n);
            let mut page = vec![0u8; 2048];
            node.encode(&mut page, compress).unwrap();
            prop_assert_eq!(&Node::decode(&page).unwrap(), &node);
            differential(&page, compress);
        }

        /// On hostile bytes the two decoders accept and reject the same
        /// pages and agree on what they accept.
        #[test]
        fn differential_on_arbitrary_bytes(
            tag in 0..2u8,
            bytes in proptest::collection::vec(prop_oneof![0..4u8, any::<u8>()], 0..200),
        ) {
            let mut page = vec![tag];
            page.extend_from_slice(&bytes);
            match (Node::decode(&page), reference::decode(&page)) {
                (Ok(node), Ok(reference)) => prop_assert_eq!(RefNode::of(&node), reference),
                (Err(_), Err(_)) => {}
                (new, old) => panic!("decoders disagree: new {new:?}, reference {old:?}"),
            }
        }
    }
}
