//! Property-based tests: the B+-tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences, and keep
//! all structural invariants, across both capacity models and with
//! compression on or off.

use std::collections::BTreeMap;

use btree::{BTree, BTreeConfig};
use pagestore::{BufferPool, MemStore};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Range(Vec<u8>, Vec<u8>),
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet and length produce many collisions and shared prefixes.
    proptest::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(0u8)],
        1..12,
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_key(), proptest::collection::vec(any::<u8>(), 0..6))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        2 => arb_key().prop_map(Op::Delete),
        1 => arb_key().prop_map(Op::Get),
        1 => (arb_key(), arb_key()).prop_map(|(a, b)| Op::Range(a, b)),
    ]
}

/// Keys of 9–26 bytes over a long shared prefix, from a space of ~1000:
/// a few hundred fill dozens of 256-byte leaves, so a sequence splits
/// leaves and interiors, replaces values in place (length changes shift
/// the arena behind them) and, with deletes weighted up, merges back.
fn arb_wide_key() -> impl Strategy<Value = Vec<u8>> {
    (0..1000u32, any::<bool>()).prop_map(|(i, long)| {
        if long {
            format!("shared/prefix/{:03}/{i}", i / 10).into_bytes()
        } else {
            format!("sp/{i:06}").into_bytes()
        }
    })
}

fn arb_mutation() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (arb_wide_key(), proptest::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        4 => arb_wide_key().prop_map(Op::Delete),
    ]
}

fn run_model(ops: Vec<Op>, config: BTreeConfig, page_size: usize) {
    run_model_checked(ops, config, page_size, false)
}

/// Replay `ops` against the tree and a `BTreeMap`; with `verify_each`, every
/// structural invariant is re-checked after every single mutation, so a
/// split, merge or redistribution that corrupts a node is caught at the
/// step that did it rather than at the end.
fn run_model_checked(ops: Vec<Op>, config: BTreeConfig, page_size: usize, verify_each: bool) {
    let pool = BufferPool::new(MemStore::new(page_size), 4096);
    let mut tree = BTree::create(pool, config).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                let expected = model.insert(k.clone(), v.clone());
                let got = tree.insert(&k, &v).unwrap();
                assert_eq!(got, expected, "insert #{i}");
            }
            Op::Delete(k) => {
                let expected = model.remove(&k);
                let got = tree.delete(&k).unwrap();
                assert_eq!(got, expected, "delete #{i}");
            }
            Op::Get(k) => {
                assert_eq!(
                    tree.view().get(&k).unwrap(),
                    model.get(&k).cloned(),
                    "get #{i}"
                );
            }
            Op::Range(a, b) => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let got = tree.view().range(&lo, &hi).unwrap();
                let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(lo..hi)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, expected, "range #{i}");
            }
        }
        assert_eq!(tree.len(), model.len() as u64);
        if verify_each {
            let stats = tree
                .verify()
                .unwrap_or_else(|e| panic!("verify after op #{i}: {e}"));
            assert_eq!(stats.entries, model.len() as u64, "after op #{i}");
        }
    }
    let stats = tree.verify().unwrap();
    assert_eq!(stats.entries, model.len() as u64);
    let all = tree.view().scan_all().unwrap();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(all, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_btreemap_bytes_capacity(ops in proptest::collection::vec(arb_op(), 0..400)) {
        run_model(ops, BTreeConfig::default(), 128);
    }

    #[test]
    fn matches_btreemap_no_compression(ops in proptest::collection::vec(arb_op(), 0..400)) {
        run_model(ops, BTreeConfig::default().without_compression(), 128);
    }

    #[test]
    fn matches_btreemap_entry_capacity(ops in proptest::collection::vec(arb_op(), 0..400)) {
        run_model(ops, BTreeConfig::with_max_entries(4), 512);
    }

    #[test]
    fn matches_btreemap_entry_capacity_ten(ops in proptest::collection::vec(arb_op(), 0..300)) {
        run_model(ops, BTreeConfig::with_max_entries(10), 1024);
    }

    #[test]
    fn verified_after_every_step_compressed(
        ops in proptest::collection::vec(arb_mutation(), 0..700),
    ) {
        run_model_checked(ops, BTreeConfig::default(), 256, true);
    }

    #[test]
    fn verified_after_every_step_uncompressed(
        ops in proptest::collection::vec(arb_mutation(), 0..700),
    ) {
        run_model_checked(ops, BTreeConfig::default().without_compression(), 256, true);
    }

    #[test]
    fn bulk_load_equals_scan(mut keys in proptest::collection::btree_set(arb_key(), 0..300)) {
        let items: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .map(|k| (k.clone(), vec![k.len() as u8]))
            .collect();
        let pool = BufferPool::new(MemStore::new(128), 4096);
        let tree = BTree::bulk_load(pool, BTreeConfig::default(), items.clone()).unwrap();
        tree.verify().unwrap();
        prop_assert_eq!(tree.view().scan_all().unwrap(), items);
        // Spot-check point lookups.
        if let Some(first) = keys.pop_first() {
            prop_assert!(tree.view().contains(&first).unwrap());
        }
    }

    #[test]
    fn seek_is_lower_bound(
        keys in proptest::collection::btree_set(arb_key(), 1..200),
        probe in arb_key(),
    ) {
        let pool = BufferPool::new(MemStore::new(128), 4096);
        let items: Vec<(Vec<u8>, Vec<u8>)> =
            keys.iter().map(|k| (k.clone(), vec![])).collect();
        let tree = BTree::bulk_load(pool, BTreeConfig::default(), items).unwrap();
        let mut cur = tree.view().seek(&probe).unwrap();
        let got = tree.view().cursor_entry(&mut cur).unwrap().map(|(k, _)| k);
        let expected = keys.range(probe..).next().cloned();
        prop_assert_eq!(got, expected);
    }
}
