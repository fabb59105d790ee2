//! Editing a leaf page where it lies.
//!
//! A one-key change to a leaf — an insert, a value replace, a delete —
//! changes at most two entries of its encoding: the edited one, and the
//! `prefix_len`/suffix of the entry after it, whose predecessor changed.
//! Every entry behind those only moves. A [`LeafEditor`] plans such an edit
//! with one forward search (`walk.rs`'s, by `prefix_len`), then writes the
//! changed bytes, moves the tail with one `copy_within` and updates the
//! count. The page then holds exactly the bytes `Node::encode` would write
//! for the edited leaf, and no entry was decoded or re-encoded.
//!
//! **Why only the successor changes.** On a sorted page, for keys
//! `a < k < b` the prefix `b` shares with `a` is the shorter of the ones it
//! shares with `k` and `k` with `a`. So inserting `k` between `a` and `b`
//! can only lengthen `b`'s `prefix_len`: its suffix loses bytes from the
//! front, bytes that stay where they are in the page. Deleting `k` can only
//! shorten it: its suffix gains `k`'s bytes from the old `prefix_len` on,
//! which lie at the start of `k`'s own suffix. The search already knows
//! both prefixes: it tracks how much the key before the target shares with
//! it, and compares the first key `>=` the target from that key's
//! `prefix_len` on.
//!
//! **What it accepts.** [`LeafEditor::open`] walks the whole page once,
//! checking every entry as [`crate::LeafWalker`] does. It refuses with
//! [`Error::Corrupt`], writing nothing, any page the writer could not have
//! written under the tree's configuration: keys that do not strictly
//! ascend, a `prefix_len` other than front compression (on or off) gives,
//! or a non-zero byte after the last entry. For every page it accepts,
//! `encode(decode(page)) == page`, so an edit in place and the
//! decode → edit → encode it replaces write the same bytes
//! (`tests/leaf_edit.rs`, `tests/decode_fuzz.rs`).
//!
//! **Two phases.** [`LeafEditor::put`] and [`LeafEditor::remove`] read the
//! page and plan; only [`LeafEditor::apply`] writes it. A writer whose edit
//! does not fit — the leaf must split — or whose key is absent has not
//! taken the page for writing, so the buffer pool never marks it dirty.

use std::cmp::Ordering;

use pagestore::{Error, Result};

use crate::codec::{common_prefix_len, varint_len, write_varint};
use crate::config::BTreeConfig;
use crate::node::{entry_size, put, LEAF_HEADER};
use crate::walk::{header, search, Entry, Start, FIRST};

/// A leaf page checked for editing in place (see the module docs): where
/// its entries end, and where the last edit left off.
#[derive(Debug)]
pub struct LeafEditor {
    config: BTreeConfig,
    page_len: usize,
    count: usize,
    /// Where the last entry ends: the page's encoded size.
    end: usize,
    /// Edits applied so far; a plan made before the last one is refused.
    applied: u64,
    /// After a put, the slot and byte position of the entry behind the one
    /// it wrote, whose key is `key`: a put of a larger key searches on
    /// from there.
    resume: Option<(usize, usize)>,
    /// The key before `resume` (while [`LeafEditor::open`] runs, each
    /// entry's key in turn).
    key: Vec<u8>,
}

/// A planned edit of one leaf entry: the bytes `start..tail` of the page
/// are replaced by `head` new ones, and the entries from `tail` on move to
/// follow them.
#[derive(Debug)]
#[must_use = "a planned edit changes nothing until it is applied"]
pub struct LeafEdit<'a> {
    applied: u64,
    key: &'a [u8],
    start: usize,
    tail: usize,
    head: usize,
    count: usize,
    end: usize,
    /// The value the edit replaces or removes.
    old: Option<(usize, usize)>,
    /// A put's: the slot and position of the entry behind `key` after the
    /// edit, where a search for a larger key may start.
    resume: Option<(usize, usize)>,
    kind: Kind<'a>,
}

#[derive(Debug)]
enum Kind<'a> {
    /// A new entry whose key shares `plen` bytes with the one before it;
    /// the entry after it, if its prefix grew, gets `successor`'s new
    /// `(prefix_len, suffix_len)`, its suffix keeping its last bytes.
    Insert {
        value: &'a [u8],
        plen: usize,
        successor: Option<(usize, usize)>,
    },
    /// A new value for the entry whose value length starts at `start`.
    Value(&'a [u8]),
    /// The entry at `start` goes; the entry after it, if its prefix
    /// shrank, gets `(prefix_len, suffix_len)` and the `extra` bytes at
    /// `from` (the removed key's) in front of its suffix.
    Remove {
        successor: Option<(usize, usize, usize, usize)>,
    },
}

impl LeafEditor {
    /// Check `page` as the writer of a tree configured by `config` would
    /// have written it (see the module docs); [`Error::Corrupt`] if it
    /// could not have.
    pub fn open(page: &[u8], config: &BTreeConfig) -> Result<LeafEditor> {
        let (_, count) = header(page)?;
        let compress = config.front_compression;
        let mut key = if compress {
            Vec::with_capacity(64)
        } else {
            Vec::new()
        };
        let mut pos = LEAF_HEADER;
        let mut prev: Option<Entry> = None;
        for _ in 0..count {
            let e = Entry::at(page, pos, prev.map_or(0, |p| p.key_len()))?;
            let suffix = &page[e.suffix..e.suffix_end];
            // Each length in its shortest varint, as the encoder writes it.
            let lengths = [e.plen, suffix.len(), e.end - e.value].map(|n| varint_len(n as u32));
            if e.suffix - pos + e.value - e.suffix_end != lengths.iter().sum() {
                return Err(Error::Corrupt(
                    "leaf entry length in a padded varint".into(),
                ));
            }
            if let Some(p) = prev {
                let above = if compress {
                    // Sharing exactly `plen` bytes with the key before and
                    // sorting above it: the byte after them is larger, or
                    // that key ends there.
                    match (suffix.first(), key.get(e.plen)) {
                        (Some(a), Some(b)) => a > b,
                        (a, _) => a.is_some(),
                    }
                } else {
                    e.plen == 0 && suffix > &page[p.suffix..p.suffix_end]
                };
                if !above {
                    return Err(Error::Corrupt(
                        "leaf keys out of order or not front-compressed as written".into(),
                    ));
                }
            }
            if compress {
                key.truncate(e.plen);
                key.extend_from_slice(suffix);
            }
            prev = Some(e);
            pos = e.end;
        }
        if page[pos..].iter().any(|&b| b != 0) {
            return Err(Error::Corrupt("bytes after the last leaf entry".into()));
        }
        Ok(LeafEditor {
            config: *config,
            page_len: page.len(),
            count,
            end: pos,
            applied: 0,
            resume: None,
            key,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the leaf holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The encoded size of the leaf: where its last entry ends.
    pub fn size(&self) -> usize {
        self.end
    }

    /// Whether the leaf, were it not the root, should be rebalanced.
    pub fn underfull(&self) -> bool {
        self.config.underfull(self.count, self.end, self.page_len)
    }

    /// Plan storing `value` under `key`: a replace if the key is present,
    /// an insert otherwise. `None` if the leaf would not fit its page and
    /// must split instead.
    pub fn put<'a>(
        &self,
        page: &[u8],
        key: &'a [u8],
        value: &'a [u8],
    ) -> Result<Option<LeafEdit<'a>>> {
        let found = search(page, self.count, self.from(key), key)?;
        let (slot, start) = (found.at.slot, found.at.pos);
        let edit = match found.entry {
            Some((e, Ordering::Equal, _)) => {
                let head = varint_len(value.len() as u32) + value.len();
                let resume = (slot + 1, e.suffix_end + head);
                let mut edit =
                    self.plan(page, key, (e.suffix_end, e.end, head), Kind::Value(value))?;
                (edit.old, edit.resume) = (Some((e.value, e.end)), Some(resume));
                edit
            }
            entry => {
                if self.count >= usize::from(u16::MAX) {
                    return Err(Error::Corrupt("too many entries in a node".into()));
                }
                let compress = self.config.front_compression;
                let plen = if compress { found.at.shared } else { 0 };
                let size = entry_size(plen, key.len(), Some(value.len()));
                let (tail, successor) = match entry {
                    // The successor shares `common` bytes with the new key,
                    // at least the `plen` it shared with the old neighbour.
                    Some((e, _, common)) if compress && common > e.plen => (
                        e.suffix + common - e.plen,
                        Some((common, e.key_len() - common)),
                    ),
                    _ => (start, None),
                };
                let head = size
                    + successor.map_or(0, |(p, s)| varint_len(p as u32) + varint_len(s as u32));
                let kind = Kind::Insert {
                    value,
                    plen,
                    successor,
                };
                let mut edit = self.plan(page, key, (start, tail, head), kind)?;
                (edit.count, edit.resume) = (self.count + 1, Some((slot + 1, start + size)));
                edit
            }
        };
        Ok(self
            .config
            .fits(edit.count, edit.end, self.page_len)
            .then_some(edit))
    }

    /// Plan removing `key`; `None` if the leaf does not hold it.
    pub fn remove<'a>(&self, page: &[u8], key: &'a [u8]) -> Result<Option<LeafEdit<'a>>> {
        let found = search(page, self.count, self.from(key), key)?;
        let Some((e, Ordering::Equal, _)) = found.entry else {
            return Ok(None);
        };
        let (slot, start) = (found.at.slot, found.at.pos);
        let mut span = (start, e.end, 0);
        let mut successor = None;
        if slot + 1 < self.count {
            let s = Entry::at(page, e.end, e.key_len())?;
            if s.plen > e.plen {
                // The successor now shares only `e.plen` bytes with the key
                // before it: the rest of its prefix comes off the removed
                // key's suffix.
                let extra = s.plen - e.plen;
                let slen = s.suffix_end - s.suffix + extra;
                let head = varint_len(e.plen as u32) + varint_len(slen as u32) + extra;
                span = (start, s.suffix, head);
                successor = Some((e.plen, slen, e.suffix, extra));
            }
        }
        let mut edit = self.plan(page, key, span, Kind::Remove { successor })?;
        (edit.count, edit.old) = (self.count - 1, Some((e.value, e.end)));
        Ok(Some(edit))
    }

    /// Write a planned edit into the page it was planned on, returning the
    /// value it replaced or removed (`None` for an insert).
    pub fn apply(&mut self, page: &mut [u8], edit: LeafEdit<'_>) -> Result<Option<Vec<u8>>> {
        if edit.applied != self.applied || page.len() != self.page_len {
            return Err(Error::Corrupt(
                "a leaf edit applied to a page it was not planned on".into(),
            ));
        }
        let old = edit.old.map(|(from, to)| page[from..to].to_vec());
        let to = edit.start + edit.head;
        if let Kind::Remove {
            successor: Some((_, _, from, extra)),
        } = edit.kind
        {
            // Before the tail moves: the destination ends where the moved
            // tail will begin, at or before where it begins now.
            page.copy_within(from..from + extra, to - extra);
        }
        page.copy_within(edit.tail..self.end, to);
        let mut pos = edit.start;
        match edit.kind {
            Kind::Insert {
                value,
                plen,
                successor,
            } => {
                lengths(page, &mut pos, (plen, edit.key.len() - plen));
                put(page, &mut pos, &edit.key[plen..]);
                write_varint(page, &mut pos, value.len() as u32);
                put(page, &mut pos, value);
                if let Some(lens) = successor {
                    lengths(page, &mut pos, lens);
                }
            }
            Kind::Value(value) => {
                write_varint(page, &mut pos, value.len() as u32);
                put(page, &mut pos, value);
            }
            Kind::Remove { successor } => {
                if let Some((plen, slen, ..)) = successor {
                    lengths(page, &mut pos, (plen, slen));
                }
            }
        }
        if edit.end < self.end {
            page[edit.end..self.end].fill(0);
        }
        page[5..7].copy_from_slice(&(edit.count as u16).to_le_bytes());
        if edit.resume.is_some() {
            self.key.clear();
            self.key.extend_from_slice(edit.key);
        }
        self.resume = edit.resume;
        self.count = edit.count;
        self.end = edit.end;
        self.applied += 1;
        Ok(old)
    }

    /// An edit of `key` replacing the bytes `start..tail` of `page` with
    /// `head` new ones; count, old value and resume point still to fill
    /// in. A page other than the one opened is refused.
    fn plan<'a>(
        &self,
        page: &[u8],
        key: &'a [u8],
        (start, tail, head): (usize, usize, usize),
        kind: Kind<'a>,
    ) -> Result<LeafEdit<'a>> {
        if page.len() != self.page_len || tail > self.end {
            return Err(Error::Corrupt("a leaf edit planned on another page".into()));
        }
        Ok(LeafEdit {
            applied: self.applied,
            key,
            start,
            tail,
            head,
            count: self.count,
            end: self.end - (tail - start) + head,
            old: None,
            resume: None,
            kind,
        })
    }

    /// Where a search for `target` starts: behind the last put when that
    /// key is below the target, else at the first entry.
    fn from(&self, target: &[u8]) -> Start {
        match self.resume {
            Some((slot, pos)) if self.key.as_slice() < target => Start {
                slot,
                pos,
                prev_len: self.key.len(),
                shared: common_prefix_len(&self.key, target),
            },
            _ => FIRST,
        }
    }
}

/// Write an entry's `prefix_len` and `suffix_len` at `*pos`.
fn lengths(page: &mut [u8], pos: &mut usize, (plen, slen): (usize, usize)) {
    write_varint(page, pos, plen as u32);
    write_varint(page, pos, slen as u32);
}
