//! A leaf edited where it lies is byte for byte the leaf the decoded-node
//! path writes.
//!
//! The reference for every edit is the path the in-place editor replaced:
//! `Node::decode` of a copy of the page as it stood, the same edit on the
//! decoded `LeafNode` (`search`, then `set_value`, `insert_at` or
//! `remove_at`), the same capacity check, and `Node::encode`. Random
//! sequences of puts (new keys and replaces with longer, shorter and
//! equal values), removes (present and absent keys) and sorted runs of
//! puts through one editor — the bulk upsert's forward pass — run against
//! it, with edits at the first and the last slot, keys that share long
//! prefixes, front compression on and off, and `Capacity::Bytes` and
//! `Capacity::Entries(m)`. After every step the page must equal the
//! reference's, the editor must agree on whether the edit fits, on the old
//! value, the entry count, the encoded size and underfullness, and the
//! page it leaves must open again.
//!
//! On a tree, every single insert or delete that edited a leaf in place
//! (the `btree.leaf.in_place_edits` counter moved, nothing split, merged or
//! was re-encoded) changed exactly one page, and that page equals the
//! reference edit of its pre-image.

use std::collections::BTreeMap;

use btree::{BTree, BTreeConfig, LeafEditor, LeafNode, Node};
use pagestore::{BufferPool, MemStore, PageId};
use proptest::prelude::*;

mod common;
use common::{fits, reference, underfull};

/// A key picked against the leaf's current keys.
#[derive(Debug, Clone)]
enum Pick {
    /// The `i`-th key (mod the count): a replace or a remove.
    Present(usize),
    /// Just below the `i`-th key: a new first entry when `i` is 0.
    Below(usize),
    /// Just above the `i`-th key, sharing all of it.
    Above(usize),
    /// Just above the last key: a new last entry.
    AboveLast,
    /// A key of its own (with the case's shared prefix in front).
    Fresh(Vec<u8>),
}

#[derive(Debug, Clone)]
enum Op {
    Put(Pick, Vec<u8>),
    Remove(Pick),
    /// Sorted puts through one editor, without reopening it.
    Run(Vec<(Pick, Vec<u8>)>),
}

fn keys_of(leaf: &LeafNode) -> Vec<Vec<u8>> {
    (0..leaf.len()).map(|i| leaf.key(i).to_vec()).collect()
}

fn resolve(pick: &Pick, keys: &[Vec<u8>], prefix: &[u8]) -> Vec<u8> {
    let nth = |i: usize| keys.get(i % keys.len().max(1)).cloned().unwrap_or_default();
    match pick {
        Pick::Present(i) => nth(*i),
        Pick::Below(i) => {
            let mut k = nth(*i);
            match k.pop() {
                // The key minus its last byte is a proper prefix: below it.
                Some(0) | None => {}
                Some(last) => k.extend_from_slice(&[last - 1, 0xFF, 0xFF]),
            }
            k
        }
        Pick::Above(i) => [nth(*i).as_slice(), &[0]].concat(),
        Pick::AboveLast => [keys.last().map_or(&[][..], Vec::as_slice), &[0]].concat(),
        Pick::Fresh(k) => [prefix, k].concat(),
    }
}

/// One put or remove through `editor` on `page`, checked against the
/// reference; returns whether the edit was applied.
fn step(
    editor: &mut LeafEditor,
    page: &mut [u8],
    config: &BTreeConfig,
    key: &[u8],
    value: Option<&[u8]>,
) -> bool {
    let (want, want_old, leaf) = reference(page, config, key, value);
    let plan = match value {
        Some(v) => editor.put(page, key, v).unwrap(),
        None => editor.remove(page, key).unwrap(),
    };
    let Some(edit) = plan else {
        match value {
            Some(_) => assert!(
                want.is_none(),
                "the editor refused a put that fits: {key:?}"
            ),
            None => assert!(want_old.is_none(), "the editor missed {key:?}"),
        }
        return false;
    };
    let want = want.expect("the editor planned a put that does not fit");
    let old = editor.apply(page, edit).unwrap();
    assert_eq!(old, want_old, "old value of {key:?}");
    assert_eq!(page, &want[..], "{key:?} → {value:?}");
    assert_eq!(editor.len(), leaf.len());
    assert_eq!(editor.size(), leaf.encoded_size(config.front_compression));
    assert_eq!(
        editor.underfull(),
        underfull(config, leaf.len(), editor.size(), page.len())
    );
    true
}

/// The first keys of `keys` that fit one page, encoded.
fn initial_page(
    keys: &[Vec<u8>],
    value_len: usize,
    config: &BTreeConfig,
    page_len: usize,
) -> Vec<u8> {
    let mut leaf = LeafNode::new(PageId(7));
    for (i, k) in keys.iter().enumerate() {
        leaf.push(k, &vec![i as u8; i % (value_len + 1)]);
        let size = leaf.encoded_size(config.front_compression);
        if !fits(config, leaf.len(), size, page_len) {
            leaf.remove_at(leaf.len() - 1);
            break;
        }
    }
    let mut page = vec![0u8; page_len];
    Node::Leaf(leaf)
        .encode(&mut page, config.front_compression)
        .unwrap();
    page
}

fn arb_config() -> impl Strategy<Value = BTreeConfig> {
    (
        any::<bool>(),
        prop_oneof![Just(None), (3..12usize).prop_map(Some)],
    )
        .prop_map(|(compress, entries)| {
            let config = match entries {
                Some(m) => BTreeConfig::with_max_entries(m),
                None => BTreeConfig::default(),
            };
            if compress {
                config
            } else {
                config.without_compression()
            }
        })
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    // A small alphabet makes shared prefixes likely.
    proptest::collection::vec(prop_oneof![3 => 0..3u8, 1 => any::<u8>()], 0..max)
}

fn arb_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        3 => any::<usize>().prop_map(Pick::Present),
        2 => prop_oneof![Just(0usize), any::<usize>()].prop_map(Pick::Below),
        1 => any::<usize>().prop_map(Pick::Above),
        1 => Just(Pick::AboveLast),
        3 => arb_bytes(10).prop_map(Pick::Fresh),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_pick(), arb_bytes(24)).prop_map(|(p, v)| Op::Put(p, v)),
        3 => arb_pick().prop_map(Op::Remove),
        2 => proptest::collection::vec((arb_pick(), arb_bytes(12)), 1..8).prop_map(Op::Run),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn an_edit_in_place_writes_what_decode_edit_encode_writes(
        config in arb_config(),
        page_len in prop_oneof![Just(128usize), Just(256), Just(1024)],
        prefix in prop_oneof![Just(Vec::new()), proptest::collection::vec(any::<u8>(), 1..40)],
        keys in proptest::collection::btree_set(arb_bytes(12), 0..60),
        value_len in 0..6usize,
        ops in proptest::collection::vec(arb_op(), 1..30),
    ) {
        let keys: Vec<Vec<u8>> = keys.iter().map(|k| [prefix.as_slice(), k].concat()).collect();
        let mut page = initial_page(&keys, value_len, &config, page_len);
        for op in &ops {
            let mut editor = LeafEditor::open(&page, &config).expect("a written leaf opens");
            let Node::Leaf(leaf) = Node::decode(&page).unwrap() else { unreachable!() };
            let keys = keys_of(&leaf);
            match op {
                Op::Put(pick, value) => {
                    step(&mut editor, &mut page, &config, &resolve(pick, &keys, &prefix), Some(value));
                }
                Op::Remove(pick) => {
                    step(&mut editor, &mut page, &config, &resolve(pick, &keys, &prefix), None);
                }
                Op::Run(puts) => {
                    let mut run: Vec<(Vec<u8>, &Vec<u8>)> = puts
                        .iter()
                        .map(|(pick, value)| (resolve(pick, &keys, &prefix), value))
                        .collect();
                    run.sort_by(|a, b| a.0.cmp(&b.0));
                    for (key, value) in &run {
                        if !step(&mut editor, &mut page, &config, key, Some(value)) {
                            break;
                        }
                    }
                }
            }
        }
        LeafEditor::open(&page, &config).expect("an edited leaf opens again");
    }
}

/// Every page of the tree, by id.
fn pages(tree: &BTree<MemStore>) -> BTreeMap<PageId, Vec<u8>> {
    tree.page_ids()
        .unwrap()
        .into_iter()
        .map(|id| (id, tree.pool().fetch(id).unwrap().read().to_vec()))
        .collect()
}

#[test]
fn a_tree_edits_its_leaves_in_place_unless_they_split_or_merge() {
    let counters = || {
        [
            "btree.leaf.in_place_edits",
            "btree.leaf.reencodes",
            "btree.splits",
            "btree.merges",
        ]
        .map(telemetry::counter_value)
    };
    for config in [
        BTreeConfig::default(),
        BTreeConfig::default().without_compression(),
        BTreeConfig::with_max_entries(6),
    ] {
        let mut tree = BTree::create(BufferPool::new(MemStore::new(256), 1024), config).unwrap();
        let mut x = 7u32;
        let mut rand = || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            x >> 8
        };
        let (mut in_place, mut whole) = (0, 0);
        for i in 0..4000 {
            let key = format!("shared/prefix/{:03}/{}", rand() % 300, rand() % 7).into_bytes();
            let value = vec![b'v'; (rand() % 9) as usize];
            let insert = i < 1500 || rand() % 2 == 0;
            let before = pages(&tree);
            let c0 = counters();
            if insert {
                tree.insert(&key, &value).unwrap();
            } else {
                tree.delete(&key).unwrap();
            }
            let c = counters();
            let moved: Vec<u64> = c.iter().zip(&c0).map(|(a, b)| a - b).collect();
            let after = pages(&tree);
            let changed: Vec<PageId> = after
                .iter()
                .filter(|(id, bytes)| before.get(id) != Some(bytes))
                .map(|(id, _)| *id)
                .collect();
            if moved == [0; 4] {
                assert!(!insert && changed.is_empty(), "step {i}: {changed:?}");
                continue;
            }
            if moved != [1, 0, 0, 0] {
                // A split, or a delete whose leaf its parent then merged or
                // refilled: the decoded-node path, whole leaves.
                assert!(moved[0] <= 1 && moved[1] > 0, "step {i}: {moved:?}");
                whole += 1;
                continue;
            }
            in_place += 1;
            if changed.is_empty() {
                // A replace with the value the key already had.
                assert!(insert, "step {i}: a delete changed no page");
                continue;
            }
            assert_eq!(
                changed.len(),
                1,
                "step {i}: an in-place edit changed {changed:?}"
            );
            let pre = &before[&changed[0]];
            let (want, _, _) = reference(pre, &config, &key, insert.then_some(&value[..]));
            assert_eq!(want.as_ref(), Some(&after[&changed[0]]), "step {i}");
        }
        tree.verify().unwrap();
        assert!(
            in_place > 2000 && whole > 50,
            "{config:?}: {in_place} in place, {whole} whole"
        );
    }
}
