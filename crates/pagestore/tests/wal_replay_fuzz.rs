//! Hostile-bytes corpus for WAL replay (`WalStore::open`).
//!
//! A record whose CRC verifies was written whole, so replay must judge its
//! shape by itself: arbitrary record sequences *with valid CRCs*, and real
//! logs whose length fields were spliced (CRC recomputed or not), must make
//! `open` return `Ok` or a typed error — never panic, never allocate beyond
//! what the log's own bytes account for. When replay accepts a log, every
//! page it put in the overlay is exactly one page long: each live page
//! reads back into a page-sized buffer, and a checkpoint never meets a
//! page of the wrong size.

use std::path::PathBuf;

use pagestore::{crc32, Error, MemStore, PageId, PageStore, WalStore};
use proptest::prelude::*;

const PAGE: usize = 64;
const OP_WRITE: u8 = 1;
const OP_COMMIT: u8 = 4;

fn log_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wal_replay_fuzz_{}_{name}", std::process::id()));
    p
}

/// One log record, CRC appended: op, page id, length, body.
fn record(op: u8, page: u32, body: &[u8]) -> Vec<u8> {
    let mut rec = vec![op];
    rec.extend_from_slice(&page.to_le_bytes());
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(body);
    let crc = crc32(&rec);
    rec.extend_from_slice(&crc.to_le_bytes());
    rec
}

/// Replay `log` over a store that already holds `live` pages, and check
/// the contract in the module docs; the error `open` refused with, if any.
fn check(name: &str, log: &[u8], live: u32) -> Option<Error> {
    let path = log_path(name);
    std::fs::write(&path, log).unwrap();
    let mut inner = MemStore::new(PAGE);
    for _ in 0..live {
        inner.allocate().unwrap();
    }
    let opened = WalStore::open(inner, &path);
    std::fs::remove_file(&path).ok();
    match opened {
        Ok(mut store) => {
            let mut buf = vec![0u8; PAGE];
            for id in store.live_page_ids() {
                match store.read(id, &mut buf) {
                    Ok(()) | Err(Error::PageNotFound(_)) => {}
                    Err(e) => panic!("replayed page {id} does not read back: {e:?}"),
                }
            }
            if let Err(e @ Error::BadPageSize { .. }) = store.checkpoint() {
                panic!("an accepted overlay holds a page of the wrong size: {e:?}");
            }
            None
        }
        Err(e @ (Error::Corrupt(_) | Error::PageNotFound(_) | Error::InvalidPageId(_))) => Some(e),
        Err(e) => panic!("replay failed with an unexpected error: {e:?}"),
    }
}

/// A log the store itself wrote: allocations, page writes, frees and
/// commits in the order `ops` gives, ending uncommitted or not (only the
/// writes and commits leave records).
fn real_log(name: &str, ops: &[u8]) -> Vec<u8> {
    let path = log_path(name);
    let mut store = WalStore::create(MemStore::new(PAGE), &path).unwrap();
    let mut live: Vec<PageId> = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        match op % 4 {
            0 => live.push(store.allocate().unwrap()),
            1 if !live.is_empty() => {
                let id = live[i % live.len()];
                store.write(id, &[i as u8; PAGE]).unwrap();
            }
            2 if !live.is_empty() => {
                let id = live.swap_remove(i % live.len());
                store.free(id).unwrap();
            }
            _ => store.commit().unwrap(),
        }
    }
    drop(store);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Byte offsets of the records in a well-formed log.
fn record_starts(log: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 0;
    while pos + 13 <= log.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(log[pos + 5..pos + 9].try_into().unwrap()) as usize;
        pos += 13 + len;
    }
    starts
}

#[derive(Debug, Clone)]
struct Rec {
    op: u8,
    page: u32,
    len: usize,
    fill: u8,
}

fn arb_rec() -> impl Strategy<Value = Rec> {
    (
        prop_oneof![8 => 1..5u8, 1 => any::<u8>()],
        prop_oneof![4 => 0..6u32, 1 => any::<u32>()],
        prop_oneof![4 => Just(0usize), 4 => Just(PAGE), 2 => 0..3 * PAGE],
        any::<u8>(),
    )
        .prop_map(|(op, page, len, fill)| Rec {
            op,
            page,
            len,
            fill,
        })
}

#[test]
fn malformed_records_in_real_logs_are_refused_by_offset() {
    let log = real_log("refused", &[0, 1, 3, 0, 1, 1, 3, 2, 1, 3, 1, 3]);
    let starts = record_starts(&log);
    assert!(starts.len() >= 8, "premise: a log of several records");
    for (i, &at) in starts.iter().enumerate() {
        let len = u32::from_le_bytes(log[at + 5..at + 9].try_into().unwrap()) as usize;
        // Re-frame record `i` with one byte more than it had, CRC valid.
        let mut spliced = log[..at].to_vec();
        let mut body = log[at + 9..at + 9 + len].to_vec();
        body.push(0xAB);
        let page = u32::from_le_bytes(log[at + 1..at + 5].try_into().unwrap());
        spliced.extend(record(log[at], page, &body));
        spliced.extend_from_slice(&log[at + 13 + len..]);
        let path = log_path(&format!("refused_{i}"));
        std::fs::write(&path, &spliced).unwrap();
        match WalStore::open(MemStore::new(PAGE), &path) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains(&format!("offset {at}")), "{msg}"),
            Err(e) => panic!("record {i}: untyped refusal {e:?}"),
            Ok(_) => panic!("record {i}: a record one byte too long was accepted"),
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn arbitrary_records_with_valid_crcs(
        recs in proptest::collection::vec(arb_rec(), 0..24),
        live in 0..4u32,
        tail in proptest::collection::vec(any::<u8>(), 0..20),
    ) {
        let mut log = Vec::new();
        for r in &recs {
            log.extend(record(r.op, r.page, &vec![r.fill; r.len]));
        }
        log.extend_from_slice(&tail);
        check("arbitrary", &log, live);
    }

    #[test]
    fn well_shaped_records_replay(
        ops in proptest::collection::vec((prop_oneof![Just(OP_WRITE), Just(OP_COMMIT)], 0..6u32), 0..24),
        live in 0..4u32,
    ) {
        // Every record has the shape its op calls for: replay never refuses
        // on shape, whatever order the ops come in.
        let mut log = Vec::new();
        for &(op, page) in &ops {
            let body = if op == OP_WRITE { vec![op; PAGE] } else { Vec::new() };
            log.extend(record(op, page, &body));
        }
        log.extend(record(OP_COMMIT, u32::MAX, &[]));
        if let Some(Error::Corrupt(msg)) = check("shaped", &log, live) {
            prop_assert!(false, "a well-shaped log was refused: {}", msg);
        }
    }

    #[test]
    fn real_logs_with_spliced_lengths(
        ops in proptest::collection::vec(any::<u8>(), 1..24),
        which in any::<usize>(),
        len in prop_oneof![Just(0u32), Just(PAGE as u32), 0..300u32, Just(u32::MAX)],
        recrc in any::<bool>(),
    ) {
        let mut log = real_log("spliced_src", &ops);
        let starts = record_starts(&log);
        if !starts.is_empty() {
            let at = starts[which % starts.len()];
            log[at + 5..at + 9].copy_from_slice(&len.to_le_bytes());
            let end = at + 9 + len as usize;
            if recrc && end + 4 <= log.len() {
                let crc = crc32(&log[at..end]);
                log[end..end + 4].copy_from_slice(&crc.to_le_bytes());
            }
        }
        check("spliced", &log, 0);
    }
}
