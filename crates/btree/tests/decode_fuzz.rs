//! Hostile-bytes corpus for [`Node::decode`] (ROADMAP 6b).
//!
//! A page reaches the decoder after its checksum verified, so the bytes are
//! "valid" as far as the page store can tell and the decoder is the last
//! line of defence. The contract checked here, on arbitrary bytes and on
//! real encoded leaves/interiors with bit flips, truncations and spliced
//! varints:
//!
//! * `Node::decode` returns `Ok(node)` or a typed [`Error::Corrupt`] — it
//!   never panics and never indexes out of bounds;
//! * an accepted node re-encodes (front compression on) into a page of the
//!   same size and decodes back to itself;
//! * the bytes an accepted node reconstructs stay within the stated bound
//!   `count × page_len` keys plus `page_len` values (a forged
//!   `prefix_len`/`suffix_len` chain can make every key as long as the
//!   page, but no longer);
//! * the [`LeafWalker`] readers use instead of the decoder agrees with it: a
//!   full walk accepts exactly the leaves `Node::decode` accepts, with the
//!   same entries and the same `next`, and refuses every other page with a
//!   typed error; on an accepted leaf, `seek(t)` lands on the first entry
//!   `>= t` — on a sorted page `LeafNode::search(t).unwrap_or_else(|i| i)`,
//!   with front compression on and off (off, every `prefix_len` is 0, so
//!   the walker's skip-by-`prefix_len` never fires), and on an unsorted
//!   hostile page still without a panic and at a slot `<= len`;
//! * the [`LeafEditor`] writers use to edit a leaf in place, under front
//!   compression on and off, opens exactly the pages the writer could have
//!   written — a leaf `Node::decode` accepts, keys strictly ascending,
//!   `encode(decode(page)) == page` — and refuses every other with a typed
//!   [`Error::Corrupt`], never a panic, the bytes it was given unchanged;
//!   on a page it opens, a put (new key or replace) and a remove of a
//!   dozen seek targets write exactly what decode → edit → encode writes
//!   (`tests/common`).
//!
//! Apart from the walker, the corpus goes only through API the
//! `Vec<Entry>` decoder also had (`Node::decode`/`encode`/`count`,
//! `BTree`, the pool) and [`reconstructed_len`], so it ran unchanged
//! against that decoder before the arena decoder replaced it.

use std::sync::OnceLock;

use btree::{BTree, BTreeConfig, Error, LeafEditor, LeafNode, LeafWalker, Node};
use pagestore::{BufferPool, MemStore, PageId};
use proptest::prelude::*;

mod common;

const PAGE: usize = 256;

/// Key and value bytes the decoded node holds.
fn reconstructed_len(node: &Node) -> usize {
    node.arena_len()
}

/// A leaf's entries, as owned key/value pairs.
type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// A full walk of `page`: its entries and `next`, or the error that
/// stopped it.
fn walk(page: &[u8]) -> Result<(Entries, PageId), Error> {
    let mut w = LeafWalker::new();
    w.load(page)?;
    let mut entries = Vec::new();
    while let Some((k, v)) = w.entry() {
        entries.push((k.to_vec(), v.to_vec()));
        w.step()?;
    }
    assert_eq!(w.slot(), w.len());
    Ok((entries, w.next_leaf()))
}

/// Seek targets around the keys of `leaf`: each key, just below and just
/// above it, and the ends.
fn targets(leaf: &LeafNode) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(), vec![0xFF; 4]];
    for i in 0..leaf.len() {
        let k = leaf.key(i);
        out.push(k.to_vec());
        out.push([k, &[0]].concat());
        if let Some((&last, head)) = k.split_last() {
            out.push(head.to_vec());
            if last > 0 {
                out.push([head, &[last - 1, 0xFF]].concat());
            }
        }
    }
    out
}

/// `seek` on an accepted leaf: from a fresh load it lands on the first
/// entry `>= t`; on a sorted leaf that is the binary search's answer, and a
/// walker kept across ascending and descending targets finds it too.
fn check_seek(page: &[u8], leaf: &LeafNode) {
    let sorted = (1..leaf.len()).all(|i| leaf.key(i - 1) < leaf.key(i));
    let mut kept = LeafWalker::new();
    kept.load(page).unwrap();
    let mut ts = targets(leaf);
    ts.sort();
    let down: Vec<Vec<u8>> = ts.iter().rev().step_by(3).cloned().collect();
    for t in ts.iter().chain(&down) {
        let first = (0..leaf.len())
            .find(|&i| leaf.key(i) >= t.as_slice())
            .unwrap_or(leaf.len());
        let mut w = LeafWalker::new();
        w.load(page).unwrap();
        w.seek(t).unwrap();
        assert!(w.slot() <= w.len());
        assert_eq!(w.slot(), first, "seek {t:?}");
        assert_eq!(
            w.entry(),
            (first < leaf.len()).then(|| (leaf.key(first), leaf.value(first)))
        );
        if sorted {
            assert_eq!(first, leaf.search(t).unwrap_or_else(|i| i));
            kept.seek(t).unwrap();
            assert_eq!(kept.slot(), first, "re-seek {t:?}");
            assert_eq!(kept.entry(), w.entry());
        } else {
            // Only the walk's own safety is promised here.
            kept.seek(t).unwrap();
            assert!(kept.slot() <= kept.len());
        }
    }
}

/// The in-place editor on one page image (see the module docs).
fn check_editor(page: &[u8]) {
    for config in [
        BTreeConfig::default(),
        BTreeConfig::default().without_compression(),
    ] {
        let leaf = match Node::decode(page) {
            Ok(Node::Leaf(leaf)) => Some(leaf),
            _ => None,
        };
        let writable = leaf.as_ref().is_some_and(|leaf| {
            let mut out = vec![0u8; page.len()];
            (1..leaf.len()).all(|i| leaf.key(i - 1) < leaf.key(i))
                && Node::Leaf(leaf.clone())
                    .encode(&mut out, config.front_compression)
                    .is_ok()
                && out == page
        });
        let given = page.to_vec();
        match LeafEditor::open(&given, &config) {
            Ok(_) => assert!(writable, "the editor opened a page the writer cannot write"),
            Err(Error::Corrupt(_)) => {
                assert!(!writable, "the editor refused a page the writer wrote");
                assert_eq!(given, page, "a refused page changed");
                continue;
            }
            Err(e) => panic!("the editor failed with an untyped error: {e:?}"),
        }
        let leaf = leaf.expect("an opened page decodes");
        // A dozen targets spread over the leaf, the empty key first.
        let targets = targets(&leaf);
        for (i, key) in targets.iter().step_by(targets.len() / 12 + 1).enumerate() {
            let value = vec![0xA5; i % 7];
            for value in [Some(&value[..]), None] {
                let mut edited = page.to_vec();
                let mut editor = LeafEditor::open(&edited, &config).unwrap();
                let plan = match value {
                    Some(v) => editor.put(&edited, key, v).unwrap(),
                    None => editor.remove(&edited, key).unwrap(),
                };
                let (want, want_old, want_leaf) = common::reference(page, &config, key, value);
                let Some(edit) = plan else {
                    assert!(
                        want.is_none() || (value.is_none() && want_old.is_none()),
                        "the editor declined {key:?} → {value:?}"
                    );
                    continue;
                };
                assert_eq!(editor.apply(&mut edited, edit).unwrap(), want_old);
                assert_eq!(Some(&edited), want.as_ref(), "{key:?} → {value:?}");
                assert_eq!(
                    editor.underfull(),
                    common::underfull(
                        &config,
                        want_leaf.len(),
                        want_leaf.encoded_size(config.front_compression),
                        page.len()
                    )
                );
            }
        }
    }
}

/// The decode contract on one page image.
fn check(page: &[u8]) {
    check_editor(page);
    match (Node::decode(page), walk(page)) {
        (Ok(Node::Leaf(leaf)), Ok((entries, next))) => {
            let want: Entries = (0..leaf.len())
                .map(|i| (leaf.key(i).to_vec(), leaf.value(i).to_vec()))
                .collect();
            assert_eq!(entries, want, "walk and decode disagree on the entries");
            assert_eq!(next, leaf.next);
            check_seek(page, &leaf);
        }
        (Ok(Node::Internal(_)) | Err(_), Err(Error::Corrupt(_))) => {}
        (decoded, walked) => panic!(
            "walk and decode disagree: decode {:?}, walk {:?}",
            decoded.map(|n| n.count()),
            walked.map(|(e, _)| e.len())
        ),
    }
    match Node::decode(page) {
        Ok(node) => {
            let bound = node.count() * page.len() + page.len();
            assert!(
                reconstructed_len(&node) <= bound,
                "decoded {} bytes from a {}-byte page holding {} entries",
                reconstructed_len(&node),
                page.len(),
                node.count()
            );
            let mut out = vec![0u8; page.len()];
            node.encode(&mut out, true)
                .expect("an accepted node re-encodes into a page of the same size");
            assert_eq!(Node::decode(&out).expect("own encoding decodes"), node);
        }
        Err(Error::Corrupt(_)) => {}
        Err(e) => panic!("decode failed with an untyped error: {e:?}"),
    }
}

/// Every page (leaves and interiors) of small trees built with front
/// compression on and off, by bulk load and by random-order inserts.
fn real_pages() -> &'static [Vec<u8>] {
    static PAGES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let mut pages = Vec::new();
        for config in [
            BTreeConfig::default(),
            BTreeConfig::default().without_compression(),
        ] {
            let items: Vec<(Vec<u8>, Vec<u8>)> = (0..1500u32)
                .map(|i| {
                    (
                        format!("shared/prefix/{:04}/{}", i / 7, i).into_bytes(),
                        vec![i as u8; (i % 5) as usize],
                    )
                })
                .collect();
            let mut sorted = items.clone();
            sorted.sort();
            let pool = BufferPool::new(MemStore::new(PAGE), 4096);
            let bulk = BTree::bulk_load(pool, config, sorted).unwrap();
            let pool = BufferPool::new(MemStore::new(PAGE), 4096);
            let mut grown = BTree::create(pool, config).unwrap();
            for i in 0..items.len() {
                // 769 is coprime to the item count: every index once, in
                // scrambled order, so leaves split and refill mid-node.
                let (k, v) = &items[(i * 769) % items.len()];
                grown.insert(k, v).unwrap();
            }
            for tree in [&bulk, &grown] {
                let live = tree.pool().live_pages();
                let mut seen = 0;
                let mut id = 0u32;
                while seen < live {
                    if let Ok(page) = tree.pool().fetch(PageId(id)) {
                        pages.push(page.read().to_vec());
                        seen += 1;
                    }
                    id += 1;
                }
            }
        }
        assert!(pages.iter().any(|p| p[0] == 0), "corpus has interiors");
        assert!(pages.iter().any(|p| p[0] == 1), "corpus has leaves");
        pages
    })
}

#[derive(Debug, Clone)]
enum Mutation {
    /// Flip one bit.
    Flip { at: usize, bit: u8 },
    /// Cut the page short.
    Truncate { len: usize },
    /// Overwrite bytes with a (possibly overlong or maximal) varint.
    Varint { at: usize, value: u32, pad: u8 },
    /// Overwrite the entry count.
    Count { value: u16 },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        4 => (0..PAGE, 0..8u8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
        1 => (0..PAGE).prop_map(|len| Mutation::Truncate { len }),
        3 => (0..PAGE, prop_oneof![any::<u32>(), 0..300u32, Just(u32::MAX)], 0..3u8)
            .prop_map(|(at, value, pad)| Mutation::Varint { at, value, pad }),
        1 => any::<u16>().prop_map(|value| Mutation::Count { value }),
    ]
}

fn mutate(page: &mut Vec<u8>, m: &Mutation) {
    match *m {
        Mutation::Flip { at, bit } => {
            if let Some(b) = page.get_mut(at) {
                *b ^= 1 << bit;
            }
        }
        Mutation::Truncate { len } => page.truncate(len),
        Mutation::Varint { at, value, pad } => {
            // LEB128, padded with `pad` redundant continuation groups.
            let mut bytes = Vec::new();
            let mut v = value;
            loop {
                let group = (v & 0x7F) as u8;
                v >>= 7;
                if v == 0 && pad == 0 {
                    bytes.push(group);
                    break;
                }
                bytes.push(group | 0x80);
                if v == 0 {
                    bytes.extend(std::iter::repeat_n(0x80, pad as usize - 1));
                    bytes.push(0);
                    break;
                }
            }
            for (slot, b) in page.iter_mut().skip(at).zip(bytes) {
                *slot = b;
            }
        }
        Mutation::Count { value } => {
            // Leaf count sits at 5..7, interior count at 1..3.
            let at = if page.first() == Some(&1) { 5 } else { 1 };
            if page.len() >= at + 2 {
                page[at..at + 2].copy_from_slice(&value.to_le_bytes());
            }
        }
    }
}

#[test]
fn real_pages_decode_and_reencode_to_themselves() {
    for page in real_pages() {
        let node = Node::decode(page).unwrap();
        let mut out = vec![0xAAu8; page.len()];
        // The corpus mixes compressed and uncompressed trees; a page
        // re-encodes to itself under the setting it was written with.
        node.encode(&mut out, true).unwrap();
        if out != *page {
            node.encode(&mut out, false).unwrap();
        }
        assert_eq!(&out, page);
        check(page);
    }
}

#[test]
fn every_single_bit_flip_of_a_leaf_and_an_interior() {
    let pages = real_pages();
    let leaf = pages.iter().find(|p| p[0] == 1).unwrap();
    let interior = pages.iter().find(|p| p[0] == 0).unwrap();
    for page in [leaf, interior] {
        for at in 0..page.len() {
            for bit in 0..8 {
                let mut m = page.clone();
                m[at] ^= 1 << bit;
                check(&m);
            }
        }
    }
}

#[test]
fn every_truncation_of_a_leaf_and_an_interior() {
    let pages = real_pages();
    let leaf = pages.iter().find(|p| p[0] == 1).unwrap();
    let interior = pages.iter().find(|p| p[0] == 0).unwrap();
    for page in [leaf, interior] {
        for len in 0..page.len() {
            check(&page[..len]);
        }
    }
}

#[test]
fn forged_prefix_chain_stays_within_the_bound() {
    // One 100-byte key, then as many entries as fit, each claiming the
    // whole previous key as its prefix: the most bytes a page can ask for.
    let mut page = vec![0u8; PAGE];
    page[0] = 1;
    page[1..5].copy_from_slice(&PageId::NULL.to_bytes());
    let mut pos = 7;
    page[pos..pos + 2].copy_from_slice(&[0, 100]);
    pos += 2 + 100;
    page[pos] = 0;
    pos += 1;
    let mut count = 1u16;
    while pos + 3 <= PAGE {
        page[pos..pos + 3].copy_from_slice(&[100, 0, 0]);
        pos += 3;
        count += 1;
    }
    page[5..7].copy_from_slice(&count.to_le_bytes());
    let node = Node::decode(&page).unwrap();
    assert_eq!(node.count(), count as usize);
    assert_eq!(reconstructed_len(&node), 100 * count as usize);
    check(&page);
}

#[test]
fn the_corpus_walks_sorted_leaves_compressed_and_not() {
    let leaves: Vec<&Vec<u8>> = real_pages().iter().filter(|p| p[0] == 1).collect();
    let shared = |p: &[u8]| {
        let mut w = LeafWalker::new();
        w.load(p).unwrap();
        let mut max = 0;
        while w.entry().is_some() {
            max = max.max(w.shared());
            w.step().unwrap();
        }
        max
    };
    assert!(leaves.iter().any(|p| shared(p) > 0), "compressed leaves");
    assert!(leaves.iter().any(|p| shared(p) == 0), "uncompressed leaves");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn seek_on_generated_sorted_leaves(
        keys in proptest::collection::btree_set(
            proptest::collection::vec(prop_oneof![0..3u8, any::<u8>()], 0..12), 0..60),
        probes in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![0..3u8, any::<u8>()], 0..12), 0..8),
        compress in any::<bool>(),
    ) {
        let mut leaf = LeafNode::new(PageId(3));
        for (i, k) in keys.iter().enumerate() {
            leaf.push(k, &[i as u8][..i % 2]);
        }
        let mut page = vec![0u8; 2048];
        Node::Leaf(leaf.clone()).encode(&mut page, compress).unwrap();
        check(&page);
        for t in &probes {
            let mut w = LeafWalker::new();
            w.load(&page).unwrap();
            w.seek(t).unwrap();
            prop_assert_eq!(w.slot(), leaf.search(t).unwrap_or_else(|i| i));
        }
    }

    #[test]
    fn arbitrary_bytes(tag in 0..3u8, mut bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        check(&bytes);
        // Most random first bytes are no node tag at all; force one so the
        // entry loops see the noise too.
        if let Some(b) = bytes.first_mut() {
            *b = tag;
        }
        check(&bytes);
    }

    #[test]
    fn arbitrary_bytes_with_a_plausible_header(
        leaf in any::<bool>(),
        count in 0..40u16,
        body in proptest::collection::vec(prop_oneof![0..4u8, any::<u8>()], 0..300),
    ) {
        let mut page = vec![u8::from(leaf)];
        if leaf {
            page.extend_from_slice(&[0; 4]);
            page.extend_from_slice(&count.to_le_bytes());
        } else {
            page.extend_from_slice(&count.to_le_bytes());
            page.extend_from_slice(&[0; 4]);
        }
        page.extend_from_slice(&body);
        check(&page);
    }

    #[test]
    fn mutated_real_pages(
        which in any::<usize>(),
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let pages = real_pages();
        let mut page = pages[which % pages.len()].clone();
        for m in &mutations {
            mutate(&mut page, m);
        }
        check(&page);
    }
}
