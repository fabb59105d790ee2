//! Scan-path invariants on the experiment-2 database shape (5 000 objects,
//! 8 sets, 1 000 distinct keys — a multi-level tree): the identical query
//! stream under both scan algorithms, on the in-memory store and on
//! the production on-disk stack (WAL + checksums + file store) bulk-loaded,
//! checkpointed, closed and **reopened cold**.

use std::collections::BTreeSet;

use baselines::SetId;
use objstore::Oid;
use pagestore::{disk as pdisk, BufferPool, PageStore};
use uindex::{ScanAlgorithm, ScanStats};
use workload::uniform::{
    generate_postings, key_bytes, key_space, KeyCount, UIndexSet, UniformConfig,
};

const CFG: UniformConfig = UniformConfig {
    num_objects: 5_000,
    num_sets: 8,
    keys: KeyCount::Distinct(1000),
    seed: 42,
};

type Posting = (Vec<u8>, SetId, Oid);
/// One query: `lo <= key < hi` over `sets` (sorted). An exact probe is
/// `[key, key + "\0")`.
type RangeQuery = (Vec<u8>, Vec<u8>, Vec<SetId>);

/// `(name, range width in thousandths of the key space or None for exact
/// match, sets per query, queries)`: the four shapes the paper's figures
/// sweep.
const WORKLOADS: [(&str, Option<u32>, u16, u32); 4] = [
    ("exact_k4", None, 4, 20),
    ("range10_k1", Some(100), 1, 5),
    ("range10_k4", Some(100), 4, 5),
    ("range1_k2", Some(10), 2, 20),
];

/// Deterministic query stream for one workload (SplitMix64, the generator
/// the oracle harness uses).
fn query_stream(permille: Option<u32>, num_sets: u16, queries: u32, keys: u32) -> Vec<RangeQuery> {
    let mut state = 0x5CA9_F0CE_5EED_0001u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..queries)
        .map(|_| {
            let start = (next() % keys as u64) as u32;
            let (lo, hi) = match permille {
                None => {
                    let lo = key_bytes(start);
                    let mut hi = lo.clone();
                    hi.push(0);
                    (lo, hi)
                }
                Some(permille) => {
                    let span = (keys as u64 * permille as u64 / 1000).max(1) as u32;
                    let start = start.min(keys.saturating_sub(span));
                    (key_bytes(start), key_bytes(start + span))
                }
            };
            let first = (next() % 8) as u16;
            let mut sets: Vec<SetId> = (0..num_sets).map(|i| SetId((first + i) % 8)).collect();
            sets.sort();
            (lo, hi, sets)
        })
        .collect()
}

fn counts(s: &ScanStats) -> [u64; 6] {
    [
        s.pages_read,
        s.node_visits,
        s.entries_examined,
        s.seeks,
        s.descents,
        s.reseek_depth_total,
    ]
}

/// The cumulative `uindex.scan.*` registry counters, in [`counts`] order.
fn registry() -> [u64; 6] {
    [
        "uindex.scan.pages",
        "uindex.scan.node_visits",
        "uindex.scan.entries_examined",
        "uindex.scan.skips",
        "uindex.scan.descents",
        "uindex.scan.reseek_depth",
    ]
    .map(telemetry::counter_value)
}

/// `uindex.scan.matches − uindex.scan.carried`: the matches the matcher
/// examined in full.
fn uncarried_matches() -> u64 {
    telemetry::counter_value("uindex.scan.matches")
        - telemetry::counter_value("uindex.scan.carried")
}

/// The postings a query selects, by brute force.
fn selected<'a>(
    postings: &'a [Posting],
    (lo, hi, sets): &'a RangeQuery,
) -> impl Iterator<Item = &'a Posting> {
    postings
        .iter()
        .filter(move |(k, s, _)| k >= lo && k < hi && sets.contains(s))
}

/// Distinct `(key, set)` groups among the postings a query selects. The
/// entries of one group differ only in their trailing OID, so a scan
/// examines exactly one of them in full and carries the verdict to the rest.
fn groups(postings: &[Posting], query: &RangeQuery) -> u64 {
    let distinct: BTreeSet<(&[u8], SetId)> = selected(postings, query)
        .map(|(k, s, _)| (k.as_slice(), *s))
        .collect();
    distinct.len() as u64
}

/// Run every workload's stream under Parallel and Forward and hold them to
/// each other; returns each query with its hits.
fn check_algorithms<P: PageStore>(
    u: &mut UIndexSet<P>,
    postings: &[Posting],
) -> Vec<(RangeQuery, Vec<(SetId, Oid)>)> {
    let keys = key_space(&CFG);
    let mut answered = Vec::new();
    for (name, permille, num_sets, queries) in WORKLOADS {
        let stream = query_stream(permille, num_sets, queries, keys);
        let stream_groups: u64 = stream.iter().map(|q| groups(postings, q)).sum();
        let mut reference: Vec<Vec<(SetId, Oid)>> = Vec::new();
        for algo in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
            u.use_algorithm(algo);
            let mut summed = [0u64; 6];
            let reg0 = registry();
            let uncarried0 = uncarried_matches();
            for (qi, (lo, hi, sets)) in stream.iter().enumerate() {
                let (hits, stats) = match permille {
                    None => u.exact_stats(lo, sets),
                    Some(_) => u.range_stats(lo, hi, sets),
                }
                .expect("query");
                for (sum, c) in summed.iter_mut().zip(counts(&stats)) {
                    *sum += c;
                }
                if algo == ScanAlgorithm::Parallel {
                    reference.push(hits);
                    continue;
                }
                assert_eq!(
                    hits, reference[qi],
                    "{name}: {algo:?} disagrees with Parallel on query {qi}"
                );
            }
            let delta: Vec<u64> = registry().iter().zip(reg0).map(|(a, b)| a - b).collect();
            assert_eq!(
                delta, summed,
                "{name} ({algo:?}): registry deltas diverge from summed ScanStats"
            );
            // The carry cannot silently switch off: all but the first
            // match of every (key, set) group must have been inherited.
            assert_eq!(
                uncarried_matches() - uncarried0,
                stream_groups,
                "{name} ({algo:?}): matches - carried is not the number of (key, set) groups"
            );
        }
        answered.extend(stream.into_iter().zip(reference));
    }
    u.use_algorithm(ScanAlgorithm::Parallel);
    answered
}

#[test]
fn parallel_and_forward_agree_on_hits_counters_and_carry() {
    let postings = generate_postings(&CFG);
    let mut mem = UIndexSet::build(CFG.num_sets, &postings).expect("build");
    let answered = check_algorithms(&mut mem, &postings);
    assert!(answered.iter().any(|(_, hits)| !hits.is_empty()));
}

/// Brute-force reference over the raw postings.
fn brute(postings: &[Posting], query: &RangeQuery) -> Vec<(SetId, Oid)> {
    let mut out: Vec<(SetId, Oid)> = selected(postings, query)
        .map(|(_, s, o)| (*s, *o))
        .collect();
    out.sort();
    out
}

#[test]
fn mem_and_cold_reopened_disk_answer_identically() {
    const PAGE_SIZE: usize = 1024;
    const POOL_PAGES: usize = 1 << 14;
    let postings = generate_postings(&CFG);
    let mut mem = UIndexSet::build(CFG.num_sets, &postings).expect("build mem U-index");
    let mem_answers = check_algorithms(&mut mem, &postings);

    let dir = std::env::temp_dir().join(format!("uindex_scan_invariants_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut stack = pdisk::create(&dir, PAGE_SIZE).expect("create disk stack");
    stack.set_group_commit(8);
    let pool = BufferPool::new(stack, POOL_PAGES);
    let mut disk =
        UIndexSet::build_with_pool(pool, CFG.num_sets, &postings).expect("build disk U-index");
    let (root, len) = disk.persist().expect("persist disk U-index");
    let mut stack = disk.into_pool().into_store();
    stack.checkpoint().expect("checkpoint disk stack");
    drop(stack); // close the files: the reopen below starts cold

    let stack = pdisk::open(&dir).expect("reopen disk stack");
    assert!(stack.recovery().is_some(), "reopen must report recovery");
    let pool = BufferPool::new(stack, POOL_PAGES);
    let mut disk = UIndexSet::open(pool, root, len).expect("reattach via catalog");

    let fsyncs0 = telemetry::counter_value("pagestore.wal.fsyncs");
    let disk_answers = check_algorithms(&mut disk, &postings);
    assert_eq!(
        telemetry::counter_value("pagestore.wal.fsyncs"),
        fsyncs0,
        "read-only query passes must not fsync"
    );
    assert_eq!(mem_answers.len(), disk_answers.len());
    for (qi, ((query, m), (_, d))) in mem_answers.iter().zip(&disk_answers).enumerate() {
        assert_eq!(
            m, d,
            "query {qi}: hits differ between MemStore and FileStore"
        );
        assert_eq!(
            d,
            &brute(&postings, query),
            "query {qi} diverges from the brute-force sweep of the postings"
        );
    }
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}
