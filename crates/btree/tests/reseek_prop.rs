//! Property tests for hierarchical re-seeking: `reseek(cursor, k)` must
//! land on exactly the entry a fresh `seek(k)` finds, for arbitrary trees
//! and target sequences — including targets a few entries ahead of or
//! behind the cursor (inside one leaf the walker searches forward from the
//! cursor or rewinds), targets resolved after the cursor chained across
//! leaf boundaries (stale fences), and targets issued after mutations
//! invalidated the retained path (epoch bump) — on trees built with front
//! compression and without. Only the cost may differ, never the position.

use std::collections::BTreeMap;

use btree::{BTree, BTreeConfig, Capacity};
use pagestore::{BufferPool, MemStore};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Reseek the long-lived cursor and compare against a fresh seek.
    Reseek(Vec<u8>),
    /// Reseek to the key this many entries after (or before) the cursor's
    /// entry, extended by a byte when `past` (so between two keys).
    Nudge {
        by: i8,
        past: bool,
    },
    /// Step the cursor forward (possibly across leaf boundaries).
    Advance(u8),
    /// Mutate the tree, invalidating the cursor's retained path.
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(0u8)],
        1..12,
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => arb_key().prop_map(Op::Reseek),
        4 => (-6..8i8, any::<bool>()).prop_map(|(by, past)| Op::Nudge { by, past }),
        3 => any::<u8>().prop_map(Op::Advance),
        1 => (arb_key(), proptest::collection::vec(any::<u8>(), 0..4))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        1 => arb_key().prop_map(Op::Delete),
    ]
}

/// The entry a cursor currently rests on, read without disturbing it.
fn entry_at<S: pagestore::PageStore>(
    tree: &BTree<S>,
    cur: &mut btree::Cursor,
) -> Option<(Vec<u8>, Vec<u8>)> {
    tree.view().cursor_entry(cur).unwrap()
}

fn run_reseek_model(initial: Vec<(Vec<u8>, Vec<u8>)>, ops: Vec<Op>, config: BTreeConfig) {
    let pool = BufferPool::new(MemStore::new(256), 4096);
    let mut tree = BTree::create(pool, config).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (k, v) in initial {
        model.insert(k.clone(), v.clone());
        tree.insert(&k, &v).unwrap();
    }
    let mut cur = tree.view().seek(&[]).unwrap();
    for (i, op) in ops.into_iter().enumerate() {
        let op = match op {
            Op::Nudge { by, past } => {
                let keys: Vec<&Vec<u8>> = model.keys().collect();
                let at = match entry_at(&tree, &mut cur) {
                    Some((k, _)) => keys.partition_point(|m| **m < k),
                    None => keys.len(),
                };
                let Some(k) = keys.get(at.saturating_add_signed(by as isize)) else {
                    continue;
                };
                let mut k = k.to_vec();
                if past {
                    k.push(0);
                }
                Op::Reseek(k)
            }
            op => op,
        };
        match op {
            Op::Nudge { .. } => unreachable!("resolved above"),
            Op::Reseek(k) => {
                tree.view().reseek(&mut cur, &k).unwrap();
                let got = entry_at(&tree, &mut cur);
                let mut fresh = tree.view().seek(&k).unwrap();
                let want = entry_at(&tree, &mut fresh);
                assert_eq!(got, want, "reseek #{i} diverges from fresh seek");
                // And both agree with the model's view of "first >= k".
                let expect = model
                    .range(k.clone()..)
                    .next()
                    .map(|(a, b)| (a.clone(), b.clone()));
                assert_eq!(got, expect, "reseek #{i} diverges from model");
            }
            Op::Advance(n) => {
                for _ in 0..(n % 4) {
                    if entry_at(&tree, &mut cur).is_none() {
                        break;
                    }
                    tree.view().cursor_advance(&mut cur);
                }
            }
            Op::Insert(k, v) => {
                model.insert(k.clone(), v.clone());
                tree.insert(&k, &v).unwrap();
            }
            Op::Delete(k) => {
                model.remove(&k);
                tree.delete(&k).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reseek_equals_seek_bytes_capacity(
        initial in proptest::collection::vec(
            (arb_key(), proptest::collection::vec(any::<u8>(), 0..4)), 0..120),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        run_reseek_model(initial, ops, BTreeConfig::default());
    }

    #[test]
    fn reseek_equals_seek_without_compression(
        initial in proptest::collection::vec(
            (arb_key(), proptest::collection::vec(any::<u8>(), 0..4)), 0..120),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        run_reseek_model(initial, ops, BTreeConfig::default().without_compression());
    }

    #[test]
    fn reseek_equals_seek_entry_capacity(
        initial in proptest::collection::vec(
            (arb_key(), proptest::collection::vec(any::<u8>(), 0..4)), 0..120),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        // Max 4 entries per node forces tall trees, exercising deep LCA
        // re-descents.
        let config = BTreeConfig {
            capacity: Capacity::Entries(4),
            ..BTreeConfig::default()
        };
        run_reseek_model(initial, ops, config);
    }
}

/// What this thread's registry has counted of cursor movement: the costs
/// below are deltas of it.
#[derive(Debug, Clone, Copy)]
struct Moves {
    /// `btree.seek.descents`.
    descents: u64,
    /// `btree.seek.nodes_fetched`: nodes those descents fetched.
    nodes: u64,
    /// `btree.reseek.leaf`: reseeks resolved inside the current leaf.
    leaf_reseeks: u64,
    /// `pagestore.pool.{hits,misses}`: every page fetch, counted by the
    /// pool rather than by the tree.
    fetches: u64,
}

fn moves() -> Moves {
    let c = telemetry::counter_value;
    Moves {
        descents: c("btree.seek.descents"),
        nodes: c("btree.seek.nodes_fetched"),
        leaf_reseeks: c("btree.reseek.leaf"),
        fetches: c("pagestore.pool.hits") + c("pagestore.pool.misses"),
    }
}

/// [`moves`] since `before`.
fn since(before: Moves) -> Moves {
    let now = moves();
    Moves {
        descents: now.descents - before.descents,
        nodes: now.nodes - before.nodes,
        leaf_reseeks: now.leaf_reseeks - before.leaf_reseeks,
        fetches: now.fetches - before.fetches,
    }
}

/// Inside one leaf, with and without front compression: reseeks ahead of
/// the cursor search forward from it, reseeks behind it rewind, and none
/// fetches a page.
#[test]
fn reseeks_inside_one_leaf_walk_forward_and_rewind() {
    for config in [
        BTreeConfig::default(),
        BTreeConfig::default().without_compression(),
    ] {
        let pool = BufferPool::new(MemStore::new(1024), 4096);
        let keys: Vec<Vec<u8>> = (0..2000u32)
            .map(|i| format!("leaf/{:03}/{i:06}", i / 37).into_bytes())
            .collect();
        let tree = BTree::bulk_load(
            pool,
            config,
            keys.iter().map(|k| (k.clone(), b"v".to_vec())),
        )
        .unwrap();
        let view = tree.view();
        let mut cur = view.seek(&keys[600]).unwrap();
        let leaf = cur.leaf_page();
        let in_leaf: Vec<usize> = (600..700)
            .filter(|&i| view.seek(&keys[i]).unwrap().leaf_page() == leaf)
            .collect();
        assert!(in_leaf.len() >= 20, "premise: a leaf of many entries");
        let before = moves();
        let last = *in_leaf.last().unwrap();
        let order = [601, 603, 604, 610, last, 605, 600, last - 1, 602];
        for (n, &i) in order.iter().enumerate() {
            // Exactly a key, or between it and its predecessor.
            let target = if n % 2 == 0 {
                keys[i].clone()
            } else {
                [&keys[i - 1][..], &[0xFF]].concat()
            };
            view.reseek(&mut cur, &target).unwrap();
            assert_eq!(cur.leaf_page(), leaf);
            let (k, v) = view.cursor_peek(&mut cur).unwrap().unwrap();
            assert_eq!((k, v), (&keys[i][..], &b"v"[..]), "reseek #{n}");
        }
        let moved = since(before);
        assert_eq!(moved.leaf_reseeks, order.len() as u64);
        assert_eq!((moved.descents, moved.nodes), (0, 0));
        assert_eq!(moved.fetches, 0, "no page fetched");
        // Stepping on after a rewind reads the entries in order.
        view.reseek(&mut cur, &keys[603]).unwrap();
        for key in &keys[603..603 + 40] {
            assert_eq!(view.cursor_peek(&mut cur).unwrap().unwrap().0, &key[..]);
            cur.advance();
        }
    }
}

/// Directed (non-random) coverage of the three reseek paths with cost
/// assertions: within-leaf fast path, LCA re-descent, and epoch fallback.
#[test]
fn reseek_paths_and_costs() {
    let pool = BufferPool::new(MemStore::new(1024), 4096);
    let config = BTreeConfig {
        capacity: Capacity::Entries(4),
        ..BTreeConfig::default()
    };
    let keys: Vec<Vec<u8>> = (0..500u32)
        .map(|i| format!("{i:06}").into_bytes())
        .collect();
    let mut tree =
        BTree::bulk_load(pool, config, keys.iter().map(|k| (k.clone(), Vec::new()))).unwrap();

    // Initial descent: a full height of fetches, every one seen by the
    // pool.
    let before = moves();
    let mut cur = tree.view().seek(b"000000").unwrap();
    let moved = since(before);
    let height = moved.nodes;
    assert!(
        height >= 3,
        "tree too shallow for the test: height {height}"
    );
    assert_eq!((moved.descents, moved.fetches), (1, height));

    // Within-leaf: next key lives in the same leaf (4-entry leaves).
    let before = moves();
    tree.view().reseek(&mut cur, b"000001").unwrap();
    let moved = since(before);
    assert_eq!(
        (
            moved.descents,
            moved.nodes,
            moved.leaf_reseeks,
            moved.fetches
        ),
        (0, 0, 1, 0)
    );
    let e = tree.view().cursor_entry(&mut cur).unwrap().unwrap();
    assert_eq!(e.0, b"000001");

    // Nearby target: the LCA re-descent must fetch fewer nodes than the
    // full height.
    let before = moves();
    tree.view().reseek(&mut cur, b"000017").unwrap();
    let moved = since(before);
    assert_eq!(moved.descents, 1);
    assert_eq!(
        moved.fetches, moved.nodes,
        "the pool saw the descent's fetches"
    );
    assert!(
        moved.nodes < height,
        "near reseek paid a full descent: {} vs height {height}",
        moved.nodes
    );
    let e = tree.view().cursor_entry(&mut cur).unwrap().unwrap();
    assert_eq!(e.0, b"000017");

    // Backward target: also via the retained path, same contract.
    tree.view().reseek(&mut cur, b"000003").unwrap();
    let e = tree.view().cursor_entry(&mut cur).unwrap().unwrap();
    assert_eq!(e.0, b"000003");

    // Mutation bumps the epoch: reseek must fall back to a full descent,
    // in place, and still land correctly. (The insert may have grown the
    // tree, so measure the post-mutation height with a fresh seek.)
    tree.insert(b"000003x", b"").unwrap();
    let before = moves();
    tree.view().seek(b"000003x").unwrap();
    let new_height = since(before).nodes;
    let before = moves();
    tree.view().reseek(&mut cur, b"000003x").unwrap();
    let moved = since(before);
    assert_eq!(moved.descents, 1);
    assert_eq!(
        (moved.nodes, moved.fetches),
        (new_height, new_height),
        "epoch-invalidated reseek must re-descend from the root"
    );
    let e = tree.view().cursor_entry(&mut cur).unwrap().unwrap();
    assert_eq!(e.0, b"000003x");
}
