//! Golden page digests for the tree's layout decisions: where a full node
//! splits, where a packed level breaks, and whether two siblings merge or
//! share their entries. Each case runs one workload under one configuration
//! and page size and pins a CRC of the root, the length, and every live
//! page's id and bytes after each phase of the workload. A moved split
//! point, packed boundary or merge decision changes a digest even when the
//! tree it leaves is valid, which `verify` alone would not notice.
//!
//! Workloads: bulk loads over a sweep of sizes, so that both the leaf and
//! the interior level end on an underfull tail; ascending, descending and
//! random inserts; random deletes and the deletion of a key range, which
//! merge and redistribute at both levels; and `upsert_sorted` runs that
//! mix inserts with replacements that change a value's length.

use btree::{BTree, BTreeConfig};
use pagestore::{crc32, BufferPool, MemStore};

const PAGE_SIZES: [usize; 3] = [128, 256, 1024];

/// The configurations under test, with the longest value each writes:
/// entry-capacity nodes must hold their `m` entries in a 128-byte page.
fn configs() -> Vec<(&'static str, BTreeConfig, usize)> {
    vec![
        ("bytes", BTreeConfig::default(), 13),
        ("plain", BTreeConfig::default().without_compression(), 13),
        ("e3", BTreeConfig::with_max_entries(3), 3),
        ("e4", BTreeConfig::with_max_entries(4), 3),
        ("e10", BTreeConfig::with_max_entries(10), 3),
        ("append", BTreeConfig::default().with_append_split(), 13),
        (
            "append-e4",
            BTreeConfig::with_max_entries(4).with_append_split(),
            3,
        ),
    ]
}

fn key(i: usize) -> Vec<u8> {
    format!("{:03}.{i:05}", i / 50).into_bytes()
}

fn value(i: usize, vmod: usize) -> Vec<u8> {
    vec![b'v'; i * 7 % vmod]
}

/// `0..n` in a fixed pseudo-random order (xorshift Fisher-Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = seed | 1;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

fn new_tree(page: usize, config: BTreeConfig) -> BTree<MemStore> {
    BTree::create(BufferPool::new(MemStore::new(page), 1 << 14), config).unwrap()
}

fn bulk(page: usize, config: BTreeConfig, n: usize, vmod: usize) -> BTree<MemStore> {
    let pool = BufferPool::new(MemStore::new(page), 1 << 14);
    BTree::bulk_load(pool, config, (0..n).map(|i| (key(i), value(i, vmod)))).unwrap()
}

/// Appends one phase's state to `out`: root, length, then each live page's
/// id and bytes, root first. Checks the tree's invariants on the way.
fn record(tree: &BTree<MemStore>, out: &mut Vec<u8>) {
    tree.verify().unwrap();
    out.extend_from_slice(&tree.root().0.to_le_bytes());
    out.extend_from_slice(&tree.len().to_le_bytes());
    for id in tree.page_ids().unwrap() {
        out.extend_from_slice(&id.0.to_le_bytes());
        out.extend_from_slice(&tree.pool().fetch(id).unwrap().read());
    }
}

/// The digest of one workload under one configuration and page size.
fn run(workload: &str, page: usize, config: BTreeConfig, vmod: usize) -> u32 {
    let n = 8 * page;
    let mut out = Vec::new();
    match workload {
        "bulk" => {
            let mut size = 0;
            while size <= n {
                record(&bulk(page, config, size, vmod), &mut out);
                size += size / 7 + 1;
            }
        }
        "ascending" | "descending" | "random" => {
            let order: Vec<usize> = match workload {
                "ascending" => (0..n).collect(),
                "descending" => (0..n).rev().collect(),
                _ => shuffled(n, 0x5EED),
            };
            let mut tree = new_tree(page, config);
            for (done, &i) in order.iter().enumerate() {
                tree.insert(&key(i), &value(i, vmod)).unwrap();
                if (done + 1) % (n / 4) == 0 {
                    record(&tree, &mut out);
                }
            }
        }
        "delete-random" => {
            let mut tree = new_tree(page, config);
            for i in shuffled(n, 0xD1CE) {
                tree.insert(&key(i), &value(i, vmod)).unwrap();
            }
            for (done, i) in shuffled(n, 0xDE1E).into_iter().enumerate() {
                assert!(tree.delete(&key(i)).unwrap().is_some());
                if (done + 1) % (n / 8) == 0 {
                    record(&tree, &mut out);
                }
            }
        }
        "delete-range" => {
            let mut tree = bulk(page, config, n, vmod);
            for i in n / 4..3 * n / 4 {
                tree.delete(&key(i)).unwrap();
            }
            record(&tree, &mut out);
            for i in (0..n).step_by(2) {
                tree.delete(&key(i)).unwrap();
            }
            record(&tree, &mut out);
        }
        "upsert" => {
            let mut tree = bulk(page, config, n / 2, vmod);
            for run in 0..8 {
                let mut picked = shuffled(2 * n, 0xBA7C + run as u64);
                picked.truncate(n / 8);
                picked.sort_unstable();
                let mut items: Vec<(Vec<u8>, Vec<u8>)> = picked
                    .into_iter()
                    .map(|i| (key(i / 2), value(i + run, vmod)))
                    .collect();
                items.dedup_by(|a, b| a.0 == b.0);
                tree.upsert_sorted(&items, |_, _| {}).unwrap();
                record(&tree, &mut out);
            }
        }
        other => panic!("unknown workload {other}"),
    }
    crc32(&out)
}

/// `(workload/config/page size, digest)`, taken from the tree as it
/// stood before splits, merges and bulk load shared one layout routine.
const GOLDEN: &[(&str, u32)] = &[
    ("bulk/bytes/128", 0x89c13b40),
    ("bulk/bytes/256", 0x3da451dc),
    ("bulk/bytes/1024", 0x89803b24),
    ("bulk/plain/128", 0x642ee477),
    ("bulk/plain/256", 0xafcf8222),
    ("bulk/plain/1024", 0x3f8d90ac),
    ("bulk/e3/128", 0x27c5d2e0),
    ("bulk/e3/256", 0x8acfdaf1),
    ("bulk/e3/1024", 0x6fe49e6a),
    ("bulk/e4/128", 0x3075d608),
    ("bulk/e4/256", 0x2c5911f3),
    ("bulk/e4/1024", 0x5dace179),
    ("bulk/e10/128", 0x673b2812),
    ("bulk/e10/256", 0xde96ae64),
    ("bulk/e10/1024", 0x05712f31),
    ("bulk/append/128", 0x89c13b40),
    ("bulk/append/256", 0x3da451dc),
    ("bulk/append/1024", 0x89803b24),
    ("bulk/append-e4/128", 0x3075d608),
    ("bulk/append-e4/256", 0x2c5911f3),
    ("bulk/append-e4/1024", 0x5dace179),
    ("ascending/bytes/128", 0xb023f081),
    ("ascending/bytes/256", 0xfb59ed70),
    ("ascending/bytes/1024", 0x3762fd55),
    ("ascending/plain/128", 0x0d2e12fc),
    ("ascending/plain/256", 0xd2fec82e),
    ("ascending/plain/1024", 0x58ab33d0),
    ("ascending/e3/128", 0x823dcdec),
    ("ascending/e3/256", 0xf91466ba),
    ("ascending/e3/1024", 0xee92caa0),
    ("ascending/e4/128", 0xf52c0f5b),
    ("ascending/e4/256", 0x66b8f7c5),
    ("ascending/e4/1024", 0x88feb43e),
    ("ascending/e10/128", 0x4e7d54d9),
    ("ascending/e10/256", 0x719dbcb3),
    ("ascending/e10/1024", 0xbda84ed9),
    ("ascending/append/128", 0x77b5d901),
    ("ascending/append/256", 0xcee73648),
    ("ascending/append/1024", 0x70e2e493),
    ("ascending/append-e4/128", 0x6f3c4831),
    ("ascending/append-e4/256", 0x320f55ff),
    ("ascending/append-e4/1024", 0xbb5d4ff6),
    ("descending/bytes/128", 0x029222dd),
    ("descending/bytes/256", 0x12f6eb76),
    ("descending/bytes/1024", 0x9b7b5a26),
    ("descending/plain/128", 0xb1333152),
    ("descending/plain/256", 0x79933ae6),
    ("descending/plain/1024", 0x4a11eecb),
    ("descending/e3/128", 0x31da8870),
    ("descending/e3/256", 0xcc63ac4c),
    ("descending/e3/1024", 0xa09260df),
    ("descending/e4/128", 0xa6bc2e90),
    ("descending/e4/256", 0x1abf05cf),
    ("descending/e4/1024", 0xe5297e9a),
    ("descending/e10/128", 0xcbc7bd81),
    ("descending/e10/256", 0xb70f29f4),
    ("descending/e10/1024", 0x8dcfb400),
    ("descending/append/128", 0x029222dd),
    ("descending/append/256", 0x12f6eb76),
    ("descending/append/1024", 0x9b7b5a26),
    ("descending/append-e4/128", 0xa6bc2e90),
    ("descending/append-e4/256", 0x1abf05cf),
    ("descending/append-e4/1024", 0xe5297e9a),
    ("random/bytes/128", 0x2cbbc9b8),
    ("random/bytes/256", 0x01dc1b0c),
    ("random/bytes/1024", 0x27ecef39),
    ("random/plain/128", 0x0f74569e),
    ("random/plain/256", 0x22b7b266),
    ("random/plain/1024", 0x155ae5e9),
    ("random/e3/128", 0x4f45e75e),
    ("random/e3/256", 0xb5600b8a),
    ("random/e3/1024", 0x93b4d01f),
    ("random/e4/128", 0x50a666f3),
    ("random/e4/256", 0xabdcaf3b),
    ("random/e4/1024", 0x25f8d500),
    ("random/e10/128", 0x7ad05a55),
    ("random/e10/256", 0xb53f9feb),
    ("random/e10/1024", 0x58483c38),
    ("random/append/128", 0x2cbbc9b8),
    ("random/append/256", 0x01dc1b0c),
    ("random/append/1024", 0x27ecef39),
    ("random/append-e4/128", 0x50a666f3),
    ("random/append-e4/256", 0x46c9d1db),
    ("random/append-e4/1024", 0x8fbc111d),
    ("delete-random/bytes/128", 0xb5dc602e),
    ("delete-random/bytes/256", 0x6375f98c),
    ("delete-random/bytes/1024", 0xb18e69a7),
    ("delete-random/plain/128", 0x4a7f8040),
    ("delete-random/plain/256", 0x14a8cb0a),
    ("delete-random/plain/1024", 0x7c9883d4),
    ("delete-random/e3/128", 0x966aaf97),
    ("delete-random/e3/256", 0x3be8cdf8),
    ("delete-random/e3/1024", 0xb5c0ce7a),
    ("delete-random/e4/128", 0xaa8f0760),
    ("delete-random/e4/256", 0xd2491060),
    ("delete-random/e4/1024", 0x0c0205bd),
    ("delete-random/e10/128", 0x15f0d098),
    ("delete-random/e10/256", 0x0e1526ee),
    ("delete-random/e10/1024", 0xf4a67bc5),
    ("delete-random/append/128", 0xb5dc602e),
    ("delete-random/append/256", 0xcc5cc403),
    ("delete-random/append/1024", 0xb18e69a7),
    ("delete-random/append-e4/128", 0x6bea681a),
    ("delete-random/append-e4/256", 0x1c4c48f3),
    ("delete-random/append-e4/1024", 0x0c0205bd),
    ("delete-range/bytes/128", 0x724c4699),
    ("delete-range/bytes/256", 0x818266f0),
    ("delete-range/bytes/1024", 0x37f239ad),
    ("delete-range/plain/128", 0x05ebb1b1),
    ("delete-range/plain/256", 0x5e38f06e),
    ("delete-range/plain/1024", 0x14161cd2),
    ("delete-range/e3/128", 0xb2daca5e),
    ("delete-range/e3/256", 0x2f47ae3b),
    ("delete-range/e3/1024", 0x1a32fe94),
    ("delete-range/e4/128", 0x615aaf64),
    ("delete-range/e4/256", 0x67778707),
    ("delete-range/e4/1024", 0x35cf536a),
    ("delete-range/e10/128", 0xdf205a5a),
    ("delete-range/e10/256", 0x108627dc),
    ("delete-range/e10/1024", 0x225d70b1),
    ("delete-range/append/128", 0x724c4699),
    ("delete-range/append/256", 0x818266f0),
    ("delete-range/append/1024", 0x37f239ad),
    ("delete-range/append-e4/128", 0x615aaf64),
    ("delete-range/append-e4/256", 0x67778707),
    ("delete-range/append-e4/1024", 0x35cf536a),
    ("upsert/bytes/128", 0x81aaa451),
    ("upsert/bytes/256", 0x8e77c499),
    ("upsert/bytes/1024", 0x8ded25a1),
    ("upsert/plain/128", 0xba943d44),
    ("upsert/plain/256", 0xc3e5b347),
    ("upsert/plain/1024", 0xaa19b236),
    ("upsert/e3/128", 0x0cd100d0),
    ("upsert/e3/256", 0xc87e10f7),
    ("upsert/e3/1024", 0x8c1c4a99),
    ("upsert/e4/128", 0x6cae09ff),
    ("upsert/e4/256", 0x0075d13d),
    ("upsert/e4/1024", 0x69632630),
    ("upsert/e10/128", 0xf213701c),
    ("upsert/e10/256", 0xf0de99aa),
    ("upsert/e10/1024", 0xbc72135b),
    ("upsert/append/128", 0x1888f1d4),
    ("upsert/append/256", 0xe9d44d22),
    ("upsert/append/1024", 0x262d2f84),
    ("upsert/append-e4/128", 0x67772715),
    ("upsert/append-e4/256", 0x421d77e0),
    ("upsert/append-e4/1024", 0xdb91b196),
];

/// Runs `workload` under every configuration and page size and compares
/// each digest with its golden value.
fn check(workload: &str) {
    let mut failures = Vec::new();
    for (name, config, vmod) in configs() {
        for page in PAGE_SIZES {
            let case = format!("{workload}/{name}/{page}");
            let got = run(workload, page, config, vmod);
            let want = GOLDEN.iter().find(|(c, _)| *c == case).map(|&(_, d)| d);
            if want != Some(got) {
                failures.push(format!("{case}: digest {got:#010x}, golden {want:#010x?}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn bulk_loads_pack_the_golden_pages() {
    check("bulk");
}

#[test]
fn ascending_inserts_split_at_the_golden_points() {
    check("ascending");
}

#[test]
fn descending_inserts_split_at_the_golden_points() {
    check("descending");
}

#[test]
fn random_inserts_split_at_the_golden_points() {
    check("random");
}

#[test]
fn random_deletes_merge_and_share_as_golden() {
    check("delete-random");
}

#[test]
fn range_deletes_merge_and_share_as_golden() {
    check("delete-range");
}

#[test]
fn sorted_upserts_write_the_golden_pages() {
    check("upsert");
}
