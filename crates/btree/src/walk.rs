//! Reading a leaf page where it lies.
//!
//! A [`LeafWalker`] holds a copy of one leaf page's bytes and one key
//! buffer. Stepping to the next entry patches the buffer from the entry's
//! `prefix_len` on — the bytes front compression left out are the ones the
//! buffer already holds — so visiting a leaf costs one `memcpy` of the page
//! and a few varint reads per entry, where [`crate::Node::decode`] rebuilds
//! every key into an arena first.
//!
//! **Searching by `prefix_len`.** A forward search for `target` keeps `m`,
//! the number of leading bytes the last key it passed shares with the
//! target (that key being below the target). An entry whose `prefix_len`
//! exceeds `m` repeats that key's byte at position `m`, where the key is
//! below the target, so it is below the target too and sharing the same
//! `m` bytes: it is passed without comparing a byte. Only an entry with
//! `prefix_len <= m` is compared, and then from position `prefix_len` on,
//! because its first `prefix_len` bytes are the target's. Nothing here
//! assumes the page is sorted or compressed: with compression off every
//! `prefix_len` is 0 and every entry is compared, and on an unsorted page
//! the search still stops at the first entry it reaches that is `>=` the
//! target.
//!
//! **Checked bytes.** Every varint and length is checked against the page
//! before it is used, so hostile bytes give [`Error::Corrupt`], never a
//! panic, and a full walk accepts exactly the pages `Node::decode` accepts
//! (`tests/decode_fuzz.rs`). A failed step leaves the walker where it was.

use std::cell::Cell;
use std::cmp::Ordering;

use pagestore::{Error, PageId, Result};

use crate::codec::{common_prefix_len, read_varint};
use crate::node::{check_count, leaf_header, LEAF_HEADER, TAG_LEAF};

/// The `next` pointer and entry count of a leaf page, checked as
/// `Node::decode` checks them.
pub(crate) fn header(page: &[u8]) -> Result<(PageId, usize)> {
    match page.first() {
        Some(&TAG_LEAF) => {}
        Some(_) => return Err(Error::Corrupt("not a leaf page".into())),
        None => return Err(Error::Corrupt("empty page".into())),
    }
    let (next, count) = leaf_header(page)?;
    check_count(page, LEAF_HEADER, count, true)?;
    Ok((next, count))
}

/// One leaf entry, located but not copied: its key is the first `plen`
/// bytes of the key before it followed by `page[suffix..suffix_end]`, its
/// value is `page[value..end]`, and the next entry starts at `end`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) plen: usize,
    pub(crate) suffix: usize,
    pub(crate) suffix_end: usize,
    pub(crate) value: usize,
    pub(crate) end: usize,
}

impl Entry {
    /// Locate the entry at `pos`, whose predecessor's key is `prev_len`
    /// bytes long, checking every length against the page.
    #[inline]
    pub(crate) fn at(page: &[u8], pos: usize, prev_len: usize) -> Result<Entry> {
        let mut p = pos;
        let plen = read_varint(page, &mut p)? as usize;
        let slen = read_varint(page, &mut p)? as usize;
        if plen > prev_len || slen > page.len() - p {
            return Err(Error::Corrupt("bad key prefix/suffix lengths".into()));
        }
        let suffix = p;
        p += slen;
        let vlen = read_varint(page, &mut p)? as usize;
        if vlen > page.len() - p {
            return Err(Error::Corrupt(
                "leaf value or child pointer past end of page".into(),
            ));
        }
        Ok(Entry {
            plen,
            suffix,
            suffix_end: suffix + slen,
            value: p,
            end: p + vlen,
        })
    }

    pub(crate) fn key_len(&self) -> usize {
        self.plen + self.suffix_end - self.suffix
    }
}

/// Where a forward search starts: entry `slot` at byte `pos`, after a key
/// `prev_len` bytes long that is below the target and shares its first
/// `shared` bytes (the first entry of a page starts after the empty key).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Start {
    pub(crate) slot: usize,
    pub(crate) pos: usize,
    pub(crate) prev_len: usize,
    pub(crate) shared: usize,
}

pub(crate) const FIRST: Start = Start {
    slot: 0,
    pos: LEAF_HEADER,
    prev_len: 0,
    shared: 0,
};

/// Where a forward search stopped: at the first entry whose key is `>=`
/// the target, or past the last.
pub(crate) struct Found {
    /// Entry `at.slot` starts at `at.pos`; the key before it is below the
    /// target, `at.prev_len` bytes long, and on a sorted page shares
    /// exactly its first `at.shared` bytes with the target.
    pub(crate) at: Start,
    /// The entry at `at.slot`, how its key compares to the target, and how
    /// many leading bytes the two share; `None` past the last entry.
    pub(crate) entry: Option<(Entry, Ordering, usize)>,
}

/// Walk the `count` entries of `page` forward from `from` to the first
/// whose key is `>= target`. See the module docs for why an entry whose
/// `prefix_len` exceeds the shared prefix is passed without a compare.
pub(crate) fn search(page: &[u8], count: usize, from: Start, target: &[u8]) -> Result<Found> {
    let mut at = from;
    while at.slot < count {
        let e = Entry::at(page, at.pos, at.prev_len)?;
        if e.plen <= at.shared {
            // The key's first `plen` bytes are the target's.
            let suffix = &page[e.suffix..e.suffix_end];
            let rest = &target[e.plen..];
            let l = common_prefix_len(suffix, rest);
            let order = match (suffix.get(l), rest.get(l)) {
                (Some(a), Some(b)) => a.cmp(b),
                (a, b) => a.is_some().cmp(&b.is_some()),
            };
            if order != Ordering::Less {
                return Ok(Found {
                    at,
                    entry: Some((e, order, e.plen + l)),
                });
            }
            at.shared = e.plen + l;
        }
        at.prev_len = e.key_len();
        at.pos = e.end;
        at.slot += 1;
    }
    Ok(Found { at, entry: None })
}

/// The value stored under `key` in the leaf page `page`, if any: a forward
/// search over the bytes in place, copying nothing but the value.
pub(crate) fn leaf_get(page: &[u8], key: &[u8]) -> Result<Option<Vec<u8>>> {
    let (_, count) = header(page)?;
    Ok(match search(page, count, FIRST, key)?.entry {
        Some((e, Ordering::Equal, _)) => Some(page[e.value..e.end].to_vec()),
        _ => None,
    })
}

/// Bytes past the page and past the longest key the walker's buffer keeps,
/// so that [`LeafWalker`] patches its key in whole eight-byte words.
const SLACK: usize = 8;

/// A position in one leaf page, read in place (see the module docs).
///
/// The walker stands on entry [`LeafWalker::slot`] of the page it last
/// loaded, or past its end when the slot equals [`LeafWalker::len`].
#[derive(Debug)]
pub struct LeafWalker {
    /// One buffer: the page bytes copied in by [`LeafWalker::load`] and
    /// [`SLACK`] bytes, then, from `key_at`, room for the current entry's
    /// key and [`SLACK`] bytes. No key a page holds is longer than the page
    /// (each suffix is page bytes of its own), so patching never
    /// reallocates; and in one allocation the key sits a fixed distance
    /// past the page, never at an address whose low bits alias the page
    /// bytes a step reads next.
    buf: Vec<u8>,
    page_len: usize,
    key_at: usize,
    next: PageId,
    count: usize,
    slot: usize,
    /// The current entry's key is `buf[key_at..key_at + key_len]`.
    key_len: usize,
    value: usize,
    /// Where the entry after the current one starts.
    end: usize,
    shared: usize,
}

thread_local! {
    /// The buffer the last walker dropped on this thread, for the next one.
    /// A query opens a cursor, and so a walker, per root descent; a fresh
    /// buffer each time is a `malloc` too large for the allocator's
    /// per-thread cache, plus a zero fill.
    static SPARE: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

impl LeafWalker {
    /// A walker holding no page (it reads as an empty leaf).
    pub fn new() -> Self {
        LeafWalker {
            buf: SPARE.try_with(Cell::take).unwrap_or_default(),
            page_len: 0,
            key_at: 0,
            next: PageId::NULL,
            count: 0,
            slot: 0,
            key_len: 0,
            value: 0,
            end: 0,
            shared: 0,
        }
    }

    /// Copy `page` in and stand on its first entry. A page that is not a
    /// leaf, whose header or entry count the page cannot hold, or whose
    /// first entry does not parse, is [`Error::Corrupt`]; the walker then
    /// reads as an empty leaf.
    pub fn load(&mut self, page: &[u8]) -> Result<()> {
        (self.count, self.slot) = (0, 0);
        let (next, count) = header(page)?;
        self.page_len = page.len();
        self.key_at = page.len() + SLACK;
        self.buf.resize(2 * self.key_at, 0);
        self.buf[..page.len()].copy_from_slice(page);
        self.next = next;
        self.count = count;
        self.rewind().inspect_err(|_| self.count = 0)
    }

    /// Number of entries in the page.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the page holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The page's `next` pointer: the leaf after it in key order.
    pub fn next_leaf(&self) -> PageId {
        self.next
    }

    /// Index of the entry the walker stands on (`len()` past the end).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The key and value of the current entry; `None` past the end.
    #[inline]
    pub fn entry(&self) -> Option<(&[u8], &[u8])> {
        (self.slot < self.count).then(|| (self.key(), self.value()))
    }

    #[inline]
    pub(crate) fn key(&self) -> &[u8] {
        &self.buf[self.key_at..self.key_at + self.key_len]
    }

    /// The page as loaded, without the slack.
    #[inline]
    fn bytes(&self) -> &[u8] {
        &self.buf[..self.page_len]
    }

    #[inline]
    pub(crate) fn value(&self) -> &[u8] {
        &self.buf[self.value..self.end]
    }

    /// Leading bytes the current key shares with the entry the walker
    /// stood on before it: the entry's `prefix_len` after a
    /// [`LeafWalker::step`], 0 after any other move. A lower bound (exact
    /// when the page was written with front compression), never more.
    #[inline]
    pub fn shared(&self) -> usize {
        self.shared
    }

    /// Make entry `e` the current one; its first `plen` bytes are already
    /// in the key buffer. The suffix is copied a word at a time, reading
    /// and writing up to seven bytes of slack past its end.
    #[inline]
    fn enter(&mut self, e: Entry) {
        let (page, key) = self.buf.split_at_mut(self.key_at);
        let (mut from, mut to) = (e.suffix, e.plen);
        while from < e.suffix_end {
            let word: [u8; 8] = page[from..from + 8].try_into().expect("eight bytes");
            key[to..to + 8].copy_from_slice(&word);
            from += 8;
            to += 8;
        }
        self.key_len = e.key_len();
        self.value = e.value;
        self.end = e.end;
    }

    /// Stand on the first entry.
    fn rewind(&mut self) -> Result<()> {
        if self.count > 0 {
            let e = Entry::at(self.bytes(), LEAF_HEADER, 0)?;
            self.enter(e);
        }
        self.slot = 0;
        self.shared = 0;
        Ok(())
    }

    /// Step to the next entry (past the end after the last; a no-op there).
    #[inline]
    pub fn step(&mut self) -> Result<()> {
        let next = self.slot + 1;
        if next < self.count {
            let e = Entry::at(self.bytes(), self.end, self.key_len)?;
            self.enter(e);
            self.shared = e.plen;
            self.slot = next;
        } else {
            self.slot = self.count;
        }
        Ok(())
    }

    /// Stand on entry `slot` (at most `len()`): forward from the current
    /// entry, or from the first when `slot` lies behind it.
    #[inline]
    pub(crate) fn goto(&mut self, slot: usize) -> Result<()> {
        if slot == self.slot + 1 {
            return self.step();
        }
        let slot = slot.min(self.count);
        if slot == self.slot {
            return Ok(());
        }
        if slot < self.slot {
            self.rewind()?;
        }
        while self.slot < slot {
            self.step()?;
        }
        // More than one step: `shared` spoke of the last one only.
        self.shared = 0;
        Ok(())
    }

    /// Stand on the first entry whose key is `>= target` (past the end if
    /// none is). The search continues forward from the current entry when
    /// that is below the target, and starts from the first entry otherwise;
    /// on a sorted page either way finds what a binary search would.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        let key = self.key();
        let shared = common_prefix_len(key, target);
        let below = match (key.get(shared), target.get(shared)) {
            (Some(a), Some(b)) => a < b,
            (a, b) => a.is_none() && b.is_some(),
        };
        let from = if self.slot < self.count && below {
            Start {
                slot: self.slot + 1,
                pos: self.end,
                prev_len: key.len(),
                shared,
            }
        } else {
            FIRST
        };
        let found = search(self.bytes(), self.count, from, target)?;
        if let Some((e, _, _)) = found.entry {
            // The entry's first `plen` bytes are the target's.
            self.buf[self.key_at..self.key_at + e.plen].copy_from_slice(&target[..e.plen]);
            self.enter(e);
        }
        self.slot = found.at.slot;
        self.shared = 0;
        Ok(())
    }
}

impl Default for LeafWalker {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LeafWalker {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // During thread teardown the spare may be gone already.
        let _ = SPARE.try_with(|spare| spare.set(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{LeafNode, Node};

    fn page_of(keys: &[&[u8]], compress: bool) -> Vec<u8> {
        let mut leaf = LeafNode::new(PageId(9));
        for (i, k) in keys.iter().enumerate() {
            leaf.push(k, &[i as u8; 2][..i % 3]);
        }
        let mut page = vec![0u8; 512];
        Node::Leaf(leaf).encode(&mut page, compress).unwrap();
        page
    }

    #[test]
    fn walk_seek_and_get_agree_with_the_decoded_leaf() {
        let keys: [&[u8]; 7] = [b"a", b"ab", b"abc", b"abd", b"b", b"ba", b"bab"];
        for compress in [true, false] {
            let page = page_of(&keys, compress);
            let leaf = LeafNode::decode(&page).unwrap();
            let mut w = LeafWalker::new();
            w.load(&page).unwrap();
            assert_eq!((w.len(), w.next_leaf()), (7, PageId(9)));
            for i in 0..leaf.len() {
                assert_eq!(w.entry(), Some((leaf.key(i), leaf.value(i))));
                w.step().unwrap();
            }
            assert_eq!((w.slot(), w.entry()), (7, None));
            w.step().unwrap();
            assert_eq!(w.slot(), 7, "stepping past the end stays there");
            let targets: [&[u8]; 9] =
                [b"", b"a", b"aa", b"abc", b"abcd", b"abz", b"b", b"bb", b"c"];
            for t in targets {
                let want = leaf.search(t).unwrap_or_else(|i| i);
                let mut fresh = LeafWalker::new();
                fresh.load(&page).unwrap();
                fresh.seek(t).unwrap();
                assert_eq!(fresh.slot(), want, "seek {t:?}");
                if want < leaf.len() {
                    assert_eq!(fresh.entry(), Some((leaf.key(want), leaf.value(want))));
                }
                // Resumed from wherever the last seek left it.
                w.seek(t).unwrap();
                assert_eq!(w.slot(), want, "re-seek {t:?}");
                assert_eq!(w.entry(), fresh.entry());
                assert_eq!(
                    leaf_get(&page, t).unwrap(),
                    leaf.search(t).ok().map(|i| leaf.value(i).to_vec())
                );
            }
        }
    }

    #[test]
    fn shared_reports_prefix_len_after_a_single_step_only() {
        let page = page_of(&[b"abc", b"abd", b"abde", b"b"], true);
        let mut w = LeafWalker::new();
        w.load(&page).unwrap();
        assert_eq!(w.shared(), 0);
        w.step().unwrap();
        assert_eq!(w.shared(), 2);
        w.goto(2).unwrap();
        assert_eq!(w.shared(), 3);
        w.goto(0).unwrap();
        w.goto(2).unwrap();
        assert_eq!(w.shared(), 0, "two steps at once");
        w.seek(b"b").unwrap();
        assert_eq!((w.slot(), w.shared()), (3, 0));
    }

    #[test]
    fn non_leaf_pages_and_bad_entries_are_corrupt() {
        let mut w = LeafWalker::new();
        for page in [&[][..], &[0u8; 16][..], &[1u8, 0, 0][..]] {
            assert!(matches!(w.load(page), Err(Error::Corrupt(_))));
        }
        // A second entry claiming more prefix than its predecessor has.
        let mut page = page_of(&[b"ab", b"ac"], true);
        let second = LEAF_HEADER + 3 + 2;
        assert_eq!(page[second], 1, "premise: entry 1 shares one byte");
        page[second] = 9;
        w.load(&page).unwrap();
        assert!(matches!(w.step(), Err(Error::Corrupt(_))));
        assert_eq!(w.entry().unwrap().0, b"ab", "a failed step stays put");
        assert!(matches!(w.seek(b"b"), Err(Error::Corrupt(_))));
        assert!(leaf_get(&page, b"b").is_err());
    }
}
