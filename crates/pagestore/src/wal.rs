//! Write-ahead logging: crash-safe page stores.
//!
//! [`WalStore`] wraps any [`PageStore`] and journals every mutation to an
//! append-only log before it reaches the backing store:
//!
//! * `write` appends a record to the log and holds the page in an
//!   in-memory overlay; `free` marks the page freed in the overlay and logs
//!   nothing, and `allocate` takes an id from the backing store — the log
//!   records no allocation state;
//! * [`WalStore::commit`] appends a commit marker and fsyncs the log — the
//!   batch is now durable. Before the marker it logs, as the zeros it
//!   reads as, every page handed out since the last checkpoint and not
//!   written since, freed or not. So the log names every page allocated
//!   before its last commit marker: the pages a power loss can cut off the
//!   end of the backing file follow one another in the log's page ids, and
//!   a replay never has to skip a slot to reach one;
//! * [`WalStore::checkpoint`] appends the commit marker of what is staged
//!   and fsyncs the log once, so the batch is durable before the first
//!   backing-store write; then it applies the overlay to the backing store
//!   in ascending page-id order, syncs it, and truncates the log. A page
//!   freed in the overlay reaches the backing store's free list only here,
//!   so a slot is reused only once the commit that stopped reaching it is
//!   durable; a freed slot keeps its old bytes until it is reused. A
//!   commit due to checkpoint calls it instead of `commit`;
//! * [`WalStore::open`] replays every *committed* batch from the log into
//!   the overlay; uncommitted tails (a crash mid-batch) are ignored.
//!
//! Records carry a CRC-32, so a torn final record is detected rather than
//! replayed. A log holds page writes and commit markers only, so replaying
//! it is idempotent: it touches the backing file only at the next
//! checkpoint, and re-applying a checkpointed batch writes the same bytes.
//! Which pages are live after a reopen is for the owner of the roots to
//! say: it frees what they do not reach.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::{Error, Result};
use crate::page::PageId;
use crate::store::PageStore;

const OP_WRITE: u8 = 1;
const OP_COMMIT: u8 = 4;

/// What [`WalStore::open`] found and discarded while replaying the log.
///
/// Replay keeps only whole committed batches; everything after the last
/// commit marker — parsed-but-uncommitted records and the torn or
/// CRC-corrupt tail — is truncated away, counted here, and reported via
/// the `pagestore.wal.replay_truncated` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed (members of committed batches, commits included).
    pub replayed_records: u64,
    /// Committed batches applied to the overlay.
    pub replayed_batches: u64,
    /// Well-formed records after the last commit, dropped as uncommitted.
    pub dropped_records: u64,
    /// Bytes of torn/CRC-corrupt tail discarded after the last parseable
    /// record.
    pub corrupt_tail_bytes: u64,
    /// Byte offset the log was truncated to (end of the last committed
    /// batch).
    pub truncated_at: u64,
}

impl RecoveryReport {
    /// Whether replay discarded anything (uncommitted or corrupt tail).
    pub fn truncated(&self) -> bool {
        self.dropped_records > 0 || self.corrupt_tail_bytes > 0
    }
}

/// A crash-safe page store: a [`PageStore`] plus a write-ahead log.
pub struct WalStore<S: PageStore> {
    inner: S,
    log: File,
    log_path: PathBuf,
    /// Uncheckpointed page contents (committed or not).
    overlay: HashMap<PageId, Option<Vec<u8>>>, // None = freed
    /// Pages handed out since the last checkpoint and not written since:
    /// the next commit logs them.
    unwritten: HashSet<PageId>,
    /// What the last [`WalStore::open`] replay found (None for `create`).
    recovery: Option<RecoveryReport>,
    /// Fsync the log every `group_commit`-th commit (1 = every commit).
    group_commit: u32,
    /// Commit markers appended since the last log fsync.
    commits_since_fsync: u32,
}

impl<S: PageStore> WalStore<S> {
    /// Wrap `inner` with a fresh log at `log_path` (truncating any existing
    /// log — use [`WalStore::open`] to recover instead).
    pub fn create(inner: S, log_path: &Path) -> Result<Self> {
        let log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(log_path)?;
        Ok(WalStore {
            inner,
            log,
            log_path: log_path.to_path_buf(),
            overlay: HashMap::new(),
            unwritten: HashSet::new(),
            recovery: None,
            group_commit: 1,
            commits_since_fsync: 0,
        })
    }

    /// Wrap `inner`, replaying committed batches from an existing log.
    pub fn open(inner: S, log_path: &Path) -> Result<Self> {
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(log_path)?;
        let mut buf = Vec::new();
        log.read_to_end(&mut buf)?;
        let mut store = WalStore {
            inner,
            log,
            log_path: log_path.to_path_buf(),
            overlay: HashMap::new(),
            unwritten: HashSet::new(),
            recovery: None,
            group_commit: 1,
            commits_since_fsync: 0,
        };
        store.replay(&buf)?;
        Ok(store)
    }

    fn replay(&mut self, buf: &[u8]) -> Result<()> {
        // Parse records; apply batches up to each COMMIT; drop the tail.
        let mut pos = 0;
        // Offset just past the last commit marker — everything beyond it is
        // uncommitted and must be truncated away. Truncating only to `pos`
        // would retain parsed-but-uncommitted batch records in the file,
        // and the *next* commit appended after reopen would then commit
        // that stale half-batch.
        let mut committed_pos = 0;
        let mut report = RecoveryReport::default();
        let mut batch: Vec<(PageId, Vec<u8>)> = Vec::new();
        // Minimum record: op(1) + page(4) + len(4) + crc(4) = 13 bytes.
        while pos + 13 <= buf.len() {
            let op = buf[pos];
            let page = PageId::from_bytes(buf[pos + 1..pos + 5].try_into().unwrap());
            let len = u32::from_le_bytes(buf[pos + 5..pos + 9].try_into().unwrap()) as usize;
            if pos + 9 + len + 4 > buf.len() {
                break; // torn record
            }
            let data = &buf[pos + 9..pos + 9 + len];
            let stored_crc =
                u32::from_le_bytes(buf[pos + 9 + len..pos + 13 + len].try_into().unwrap());
            if crc32(&buf[pos..pos + 9 + len]) != stored_crc {
                break; // corrupt tail
            }
            // A record that passed its CRC was written whole, so a body of
            // the wrong shape is not a torn tail but a log this code did not
            // write: refuse it rather than replay or drop it. That includes
            // the allocation and free records (ops 2 and 3) of an older log.
            let expected = match op {
                OP_WRITE => self.inner.page_size(),
                OP_COMMIT => 0,
                _ => {
                    return Err(Error::Corrupt(format!(
                        "wal record at offset {pos}: unknown op {op}"
                    )))
                }
            };
            if len != expected {
                return Err(Error::Corrupt(format!(
                    "wal record at offset {pos}: op {op} carries {len} bytes, expected {expected}"
                )));
            }
            pos += 13 + len;
            if op == OP_COMMIT {
                report.replayed_records += batch.len() as u64 + 1;
                report.replayed_batches += 1;
                committed_pos = pos;
                for (page, data) in batch.drain(..) {
                    self.overlay.insert(page, Some(data));
                }
            } else {
                batch.push((page, data.to_vec()));
            }
        }
        report.dropped_records = batch.len() as u64;
        report.corrupt_tail_bytes = (buf.len() - pos) as u64;
        report.truncated_at = committed_pos as u64;
        if report.truncated() {
            telemetry::counter("pagestore.wal.replay_truncated")
                .add(report.dropped_records + u64::from(report.corrupt_tail_bytes > 0));
        }
        self.recovery = Some(report);
        // The replayed state is durable in the log already; nothing to
        // re-append. Truncate to the end of the last committed batch and
        // position the cursor there.
        self.log.set_len(committed_pos as u64)?;
        self.log.seek(SeekFrom::Start(committed_pos as u64))?;
        Ok(())
    }

    fn append(&mut self, op: u8, page: PageId, data: &[u8]) -> Result<()> {
        let mut rec = Vec::with_capacity(13 + data.len());
        rec.push(op);
        rec.extend_from_slice(&page.to_bytes());
        rec.extend_from_slice(&(data.len() as u32).to_le_bytes());
        rec.extend_from_slice(data);
        let crc = crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        self.log.write_all(&rec)?;
        telemetry::counter("pagestore.wal.appends").inc();
        Ok(())
    }

    /// Fsync the log every `every`-th [`WalStore::commit`] instead of on
    /// each one (group commit). Batching amortizes the dominant disk cost
    /// at high commit rates; the trade is that a crash can lose up to
    /// `every - 1` commits that were appended but not yet fsynced (replay
    /// still recovers every *synced* commit, and never a torn one).
    /// [`WalStore::checkpoint`] and [`WalStore::sync_log`] always force
    /// the fsync. `every` is clamped to at least 1.
    pub fn set_group_commit(&mut self, every: u32) {
        self.group_commit = every.max(1);
    }

    /// The current group-commit interval (1 = fsync every commit).
    pub fn group_commit(&self) -> u32 {
        self.group_commit
    }

    /// Force an fsync of the log if any commits are pending one. Makes
    /// every commit appended so far durable regardless of the
    /// group-commit interval.
    pub fn sync_log(&mut self) -> Result<()> {
        if self.commits_since_fsync > 0 {
            self.log.sync_data()?;
            telemetry::counter("pagestore.wal.fsyncs").inc();
            self.commits_since_fsync = 0;
        }
        Ok(())
    }

    /// Append a commit marker; durable immediately, or at the next group
    /// fsync when [`WalStore::set_group_commit`] batching is on. A page
    /// handed out since the last checkpoint and never written is logged
    /// first, as the zeros it reads as (a freed one stays freed).
    pub fn commit(&mut self) -> Result<()> {
        if !self.unwritten.is_empty() {
            let mut ids: Vec<PageId> = self.unwritten.drain().collect();
            ids.sort_unstable();
            let zeros = vec![0u8; self.inner.page_size()];
            for id in ids {
                self.append(OP_WRITE, id, &zeros)?;
                self.overlay
                    .entry(id)
                    .or_insert_with(|| Some(zeros.clone()));
            }
        }
        self.append(OP_COMMIT, PageId::NULL, &[])?;
        telemetry::counter("pagestore.wal.commits").inc();
        self.commits_since_fsync += 1;
        if self.commits_since_fsync >= self.group_commit {
            self.log.sync_data()?;
            telemetry::counter("pagestore.wal.fsyncs").inc();
            self.commits_since_fsync = 0;
        }
        Ok(())
    }

    /// Commit what is staged, apply the overlay to the backing store, sync
    /// it, and truncate the log. The commit marker this appends is covered
    /// by one log fsync — the group fsync if one is due, else a forced one
    /// — before the first write to the backing store.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.commit()?;
        self.sync_log()?;
        // Apply the overlay WITHOUT consuming it: if a backing-store write
        // fails part-way through, the overlay and the intact log must
        // survive so the checkpoint can be retried (re-applying a page
        // write is idempotent) or the store recovered by replay. Ascending
        // page order makes the sequence of backing-store operations the
        // same on every run of the same script (the map's order is not).
        let mut pages: Vec<_> = self.overlay.iter().collect();
        pages.sort_unstable_by_key(|(page, _)| **page);
        for (page, data) in pages {
            match data {
                Some(bytes) => self.inner.write(*page, bytes)?,
                // A retried checkpoint skips a page the first attempt freed.
                None if self.inner.contains(*page) => self.inner.free(*page)?,
                None => {}
            }
        }
        self.inner.sync()?;
        self.overlay.clear();
        self.log.set_len(0)?;
        self.log.seek(SeekFrom::Start(0))?;
        self.log.sync_data()?;
        telemetry::counter("pagestore.wal.checkpoints").inc();
        telemetry::counter("pagestore.wal.fsyncs").inc();
        Ok(())
    }

    /// The log file path (for crash-simulation tests).
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// What the opening replay found and truncated, if this store was
    /// produced by [`WalStore::open`] (None after [`WalStore::create`]).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The backing store, read-only (for instrumentation).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the backing store, e.g. to arm a
    /// [`crate::FaultStore`] schedule. Mutating pages through this handle
    /// bypasses the log and forfeits crash safety.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Consume the wrapper, returning the backing store (without
    /// checkpointing — used by tests that simulate a crash).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for WalStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&mut self) -> Result<PageId> {
        // The backing store may hand out an id the overlay holds: a
        // replayed page past the end of the file, or one a failed
        // checkpoint freed already. Those stay the overlay's.
        loop {
            let id = self.inner.allocate()?;
            if !self.overlay.contains_key(&id) {
                self.unwritten.insert(id);
                return Ok(id);
            }
        }
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        // Liveness only — a free never reads the page, so a page whose
        // bytes are damaged can still be released (index salvage frees the
        // wreck without looking at it).
        if !self.contains(id) {
            return Err(Error::PageNotFound(id));
        }
        self.overlay.insert(id, None);
        Ok(())
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        match self.overlay.get(&id) {
            Some(Some(bytes)) => {
                if buf.len() != bytes.len() {
                    return Err(Error::BadPageSize {
                        expected: bytes.len(),
                        got: buf.len(),
                    });
                }
                buf.copy_from_slice(bytes);
                Ok(())
            }
            Some(None) => Err(Error::PageNotFound(id)),
            None => self.inner.read(id, buf),
        }
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.inner.page_size() {
            return Err(Error::BadPageSize {
                expected: self.inner.page_size(),
                got: buf.len(),
            });
        }
        if !self.contains(id) {
            return Err(Error::PageNotFound(id));
        }
        self.append(OP_WRITE, id, buf)?;
        if !self.unwritten.is_empty() {
            self.unwritten.remove(&id);
        }
        self.overlay.insert(id, Some(buf.to_vec()));
        Ok(())
    }

    fn contains(&self, id: PageId) -> bool {
        match self.overlay.get(&id) {
            Some(data) => data.is_some(),
            None => self.inner.contains(id),
        }
    }

    fn live_pages(&self) -> usize {
        // The count `live_page_ids` lists: an overlay page the inner store
        // lacks adds one, an overlay free of a page it holds takes one.
        let mut live = self.inner.live_pages();
        for (page, data) in &self.overlay {
            match (data.is_some(), self.inner.contains(*page)) {
                (true, false) => live += 1,
                (false, true) => live -= 1,
                _ => {}
            }
        }
        live
    }

    fn live_page_ids(&self) -> Vec<PageId> {
        // Inner ids adjusted by the overlay: allocations reach the inner
        // store eagerly, so the overlay removes (freed), confirms, or adds
        // a replayed page past the end of the file.
        let mut ids: BTreeSet<PageId> = self.inner.live_page_ids().into_iter().collect();
        for (page, data) in &self.overlay {
            match data {
                Some(_) => {
                    ids.insert(*page);
                }
                None => {
                    ids.remove(page);
                }
            }
        }
        ids.into_iter().collect()
    }

    fn sync(&mut self) -> Result<()> {
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("walstore_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn write_commit_survives_reopen_without_checkpoint() {
        let path = tmp("commit");
        let inner = {
            let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
            let a = s.allocate().unwrap();
            let mut buf = vec![0u8; 128];
            buf[0] = 42;
            s.write(a, &buf).unwrap();
            s.commit().unwrap();
            // Crash: no checkpoint — backing store never saw the write.
            s.into_inner()
        };
        let mut recovered = WalStore::open(inner, &path).unwrap();
        let mut out = vec![0u8; 128];
        recovered.read(PageId(0), &mut out).unwrap();
        assert_eq!(out[0], 42, "committed write recovered from the log");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncommitted_tail_is_dropped() {
        let path = tmp("tail");
        let inner = {
            let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
            let a = s.allocate().unwrap();
            let mut buf = vec![0u8; 128];
            buf[0] = 1;
            s.write(a, &buf).unwrap();
            s.commit().unwrap();
            // A second, uncommitted write.
            buf[0] = 99;
            s.write(a, &buf).unwrap();
            s.into_inner()
        };
        let mut recovered = WalStore::open(inner, &path).unwrap();
        let mut out = vec![0u8; 128];
        recovered.read(PageId(0), &mut out).unwrap();
        assert_eq!(out[0], 1, "uncommitted write must not replay");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_record_is_ignored() {
        let path = tmp("torn");
        let inner = {
            let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, [7u8; 128].as_ref()).unwrap();
            s.commit().unwrap();
            s.into_inner()
        };
        // Corrupt the log tail: append garbage simulating a torn write.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[OP_WRITE, 0, 0, 0, 0, 128, 0, 0, 0, 1, 2, 3])
                .unwrap();
        }
        let mut recovered = WalStore::open(inner, &path).unwrap();
        let mut out = vec![0u8; 128];
        recovered.read(PageId(0), &mut out).unwrap();
        assert_eq!(out[0], 7, "good prefix replays, torn tail ignored");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_reports_and_truncates_uncommitted_tail() {
        let path = tmp("report");
        let _inner = {
            let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, &[1u8; 128]).unwrap();
            s.commit().unwrap();
            // An uncommitted write and free, then a torn fragment.
            s.write(a, &[2u8; 128]).unwrap();
            s.free(a).unwrap();
            s.into_inner()
        };
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[OP_WRITE, 0, 0, 0]).unwrap();
        }
        let committed_len = {
            let before = telemetry::counter_value("pagestore.wal.replay_truncated");
            let recovered = WalStore::open(MemStore::new(128), &path).unwrap();
            let r = *recovered.recovery().expect("open sets a recovery report");
            assert_eq!(r.replayed_batches, 1);
            assert_eq!(r.replayed_records, 2, "write + commit");
            assert_eq!(
                r.dropped_records, 1,
                "the uncommitted write; a free logs nothing"
            );
            assert_eq!(r.corrupt_tail_bytes, 4, "torn fragment");
            assert!(r.truncated());
            // 1 dropped record + 1 for the corrupt tail.
            assert_eq!(
                telemetry::counter_value("pagestore.wal.replay_truncated"),
                before + 2
            );
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                r.truncated_at,
                "log truncated to the end of the last committed batch"
            );
            r.truncated_at
        };
        // Regression: the uncommitted records must be GONE from the file.
        // Before the fix, replay truncated past them, so a commit appended
        // in the new session would resurrect the stale half-batch.
        let inner2 = {
            let mut s = WalStore::open(MemStore::new(128), &path).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), committed_len);
            s.commit().unwrap(); // empty batch — must commit nothing stale
            s.into_inner()
        };
        let mut recovered = WalStore::open(inner2, &path).unwrap();
        let mut out = vec![0u8; 128];
        recovered.read(PageId(0), &mut out).unwrap();
        assert_eq!(
            out[0], 1,
            "post-reopen commit must not resurrect the uncommitted write"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A log holding the records of `body`, each with its CRC.
    fn log_of(path: &Path, body: &[(u8, PageId, Vec<u8>)]) {
        let mut bytes = Vec::new();
        for (op, page, data) in body {
            let start = bytes.len();
            bytes.push(*op);
            bytes.extend_from_slice(&page.to_bytes());
            bytes.extend_from_slice(&(data.len() as u32).to_le_bytes());
            bytes.extend_from_slice(data);
            let crc = crc32(&bytes[start..]);
            bytes.extend_from_slice(&crc.to_le_bytes());
        }
        std::fs::write(path, bytes).unwrap();
    }

    /// `open` on `body` fails with a typed error naming the offset of the
    /// record at index `bad`.
    fn refused(name: &str, body: &[(u8, PageId, Vec<u8>)], bad: usize, what: &str) {
        let path = tmp(name);
        log_of(&path, body);
        let offset: usize = body[..bad].iter().map(|(_, _, d)| 13 + d.len()).sum();
        match WalStore::open(MemStore::new(128), &path) {
            Err(Error::Corrupt(msg)) => {
                assert!(msg.contains(&format!("offset {offset}")), "{msg}");
                assert!(msg.contains(what), "{msg}");
            }
            Err(e) => panic!("{name}: untyped refusal {e:?}"),
            Ok(_) => panic!("{name}: a malformed record was replayed"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_page_write_of_the_wrong_size_is_refused() {
        // Before: it entered the overlay and failed every checkpoint.
        for len in [0, 1, 127, 129, 4096] {
            let body = [
                (OP_WRITE, PageId(0), vec![7u8; len]),
                (OP_COMMIT, PageId::NULL, vec![]),
            ];
            refused(
                "write_size",
                &body,
                0,
                &format!("carries {len} bytes, expected 128"),
            );
        }
    }

    #[test]
    fn a_commit_record_carries_no_body() {
        let body = [
            (OP_WRITE, PageId(0), vec![1u8; 128]),
            (OP_COMMIT, PageId::NULL, vec![]),
            (OP_COMMIT, PageId::NULL, vec![1, 2, 3]),
            (OP_COMMIT, PageId::NULL, vec![]),
        ];
        refused("bodied", &body, 2, "carries 3 bytes, expected 0");
    }

    #[test]
    fn an_unknown_op_is_refused() {
        // Before: skipped in silence, uncommitted or not. Ops 2 and 3 are
        // the allocation and free records of the previous log format.
        for op in [0, 2, 3, 5, 0xFF] {
            let body = [
                (OP_WRITE, PageId(0), vec![1u8; 128]),
                (op, PageId(0), vec![]),
                (OP_COMMIT, PageId::NULL, vec![]),
            ];
            refused("unknown_op", &body, 1, &format!("unknown op {op}"));
        }
    }

    #[test]
    fn clean_replay_reports_nothing_truncated() {
        let path = tmp("clean_report");
        let inner = {
            let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, &[9u8; 128]).unwrap();
            s.commit().unwrap();
            s.into_inner()
        };
        let recovered = WalStore::open(inner, &path).unwrap();
        let r = recovered.recovery().unwrap();
        assert!(!r.truncated());
        assert_eq!(r.replayed_batches, 1);
        assert_eq!(r.dropped_records, 0);
        assert_eq!(r.corrupt_tail_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn live_page_ids_sees_overlay() {
        let path = tmp("live_ids");
        let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.free(a).unwrap();
        assert_eq!(s.live_page_ids(), vec![b]);
        assert_eq!(s.live_page_ids().len(), s.live_pages());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_truncates_log_and_applies() {
        let path = tmp("checkpoint");
        let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
        let a = s.allocate().unwrap();
        s.write(a, [5u8; 128].as_ref()).unwrap();
        s.checkpoint().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // After checkpoint, the backing store has the data.
        let mut inner = s.into_inner();
        let mut out = vec![0u8; 128];
        inner.read(a, &mut out).unwrap();
        assert_eq!(out[0], 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn free_and_errors_through_wal() {
        let path = tmp("free");
        let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
        let a = s.allocate().unwrap();
        s.free(a).unwrap();
        let mut out = vec![0u8; 128];
        assert!(matches!(s.read(a, &mut out), Err(Error::PageNotFound(_))));
        assert!(matches!(s.free(a), Err(Error::PageNotFound(_))));
        assert!(matches!(
            s.write(a, &[0u8; 128]),
            Err(Error::PageNotFound(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_first_write_asks_liveness_and_reads_nothing() {
        use crate::fault::FaultStore;
        let path = tmp("noprobe");
        let mut s = WalStore::create(FaultStore::new(MemStore::new(128)), &path).unwrap();
        let a = s.allocate().unwrap();
        s.checkpoint().unwrap();
        let ops = s.inner().handle().ops();
        s.write(a, &[4u8; 128]).unwrap();
        assert_eq!(s.inner().handle().ops(), ops, "the inner store was touched");
        s.free(a).unwrap();
        for id in [a, PageId(7)] {
            assert!(matches!(
                s.write(id, &[0u8; 128]),
                Err(Error::PageNotFound(_))
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_committed_write_past_the_end_of_the_file_replays_and_grows_it() {
        use crate::file::FileStore;
        let (path, log) = (tmp("grow.db"), tmp("grow.log"));
        let b = {
            let mut s = WalStore::create(FileStore::create(&path, 128).unwrap(), &log).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, &[1u8; 128]).unwrap();
            s.checkpoint().unwrap();
            // The allocation writes nothing to the file, as if a crash had
            // lost the extension: only the log holds `b`.
            let b = s.allocate().unwrap();
            s.write(b, &[2u8; 128]).unwrap();
            s.commit().unwrap();
            b
        };
        let mut s = WalStore::open(FileStore::open(&path).unwrap(), &log).unwrap();
        assert_eq!(s.inner().num_slots(), 1);
        assert_eq!(s.live_page_ids(), vec![PageId(0), b]);
        assert_ne!(
            s.allocate().unwrap(),
            b,
            "the replayed page is not handed out"
        );
        s.checkpoint().unwrap();
        drop(s);
        let mut s = WalStore::open(FileStore::open(&path).unwrap(), &log).unwrap();
        let mut out = vec![0u8; 128];
        s.read(b, &mut out).unwrap();
        assert_eq!(out, vec![2u8; 128]);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn a_replayed_write_far_past_the_end_of_the_file_is_refused() {
        use crate::file::FileStore;
        let (path, log) = (tmp("far.db"), tmp("far.log"));
        let mut file = FileStore::create(&path, 128).unwrap();
        file.write(PageId(0), &[1u8; 128]).unwrap();
        let body = [
            (OP_WRITE, PageId(0xFFFF_FFFE), vec![2u8; 128]),
            (OP_COMMIT, PageId::NULL, vec![]),
        ];
        log_of(&log, &body);
        let mut s = WalStore::open(file, &log).unwrap();
        assert!(matches!(
            s.checkpoint(),
            Err(Error::Corrupt(msg)) if msg.contains("skip")
        ));
        assert_eq!(s.inner().num_slots(), 1, "the file did not grow");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 16 + 128);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn a_commit_logs_every_page_handed_out_so_a_lost_extension_replays_in_order() {
        use crate::file::FileStore;
        let (path, log) = (tmp("order.db"), tmp("order.log"));
        let ids = {
            let mut s = WalStore::create(FileStore::create(&path, 128).unwrap(), &log).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, &[1u8; 128]).unwrap();
            s.checkpoint().unwrap();
            // Two pages freed and one left unwritten before the commit; the
            // file holds none of the four, as if a power loss had cut off
            // their extension.
            let ids: Vec<PageId> = (0..4).map(|_| s.allocate().unwrap()).collect();
            s.free(ids[0]).unwrap();
            s.free(ids[1]).unwrap();
            s.write(ids[2], &[3u8; 128]).unwrap();
            s.commit().unwrap();
            assert_eq!(s.inner().num_slots(), 5);
            ids
        };
        let mut s = WalStore::open(FileStore::open(&path).unwrap(), &log).unwrap();
        assert_eq!(s.inner().num_slots(), 1);
        assert_eq!(
            s.recovery().unwrap().replayed_records,
            5,
            "4 writes + commit"
        );
        s.checkpoint().unwrap();
        assert_eq!(s.inner().num_slots(), 5);
        let mut out = vec![0u8; 128];
        s.read(ids[2], &mut out).unwrap();
        assert_eq!(out, vec![3u8; 128]);
        s.read(ids[3], &mut out).unwrap();
        assert_eq!(out, vec![0u8; 128], "an unwritten page replays as zeros");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let path = tmp("groupcommit");
        let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
        s.set_group_commit(4);
        let a = s.allocate().unwrap();
        let fsyncs0 = telemetry::counter_value("pagestore.wal.fsyncs");
        let commits0 = telemetry::counter_value("pagestore.wal.commits");
        for i in 0..8u8 {
            s.write(a, &[i; 128]).unwrap();
            s.commit().unwrap();
        }
        assert_eq!(
            telemetry::counter_value("pagestore.wal.commits"),
            commits0 + 8
        );
        assert_eq!(
            telemetry::counter_value("pagestore.wal.fsyncs"),
            fsyncs0 + 2,
            "8 commits at interval 4 = 2 fsyncs"
        );
        // A 9th commit is pending its group fsync; sync_log forces it.
        s.write(a, &[9; 128]).unwrap();
        s.commit().unwrap();
        assert_eq!(
            telemetry::counter_value("pagestore.wal.fsyncs"),
            fsyncs0 + 2
        );
        s.sync_log().unwrap();
        assert_eq!(
            telemetry::counter_value("pagestore.wal.fsyncs"),
            fsyncs0 + 3
        );
        // Nothing pending: sync_log is free.
        s.sync_log().unwrap();
        assert_eq!(
            telemetry::counter_value("pagestore.wal.fsyncs"),
            fsyncs0 + 3
        );
        std::fs::remove_file(&path).ok();
    }

    /// A [`MemStore`] that records the id of every page written to it.
    struct Recording {
        inner: MemStore,
        writes: Vec<PageId>,
    }

    impl PageStore for Recording {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn allocate(&mut self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn free(&mut self, id: PageId) -> Result<()> {
            self.inner.free(id)
        }
        fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.inner.read(id, buf)
        }
        fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
            self.writes.push(id);
            self.inner.write(id, buf)
        }
        fn contains(&self, id: PageId) -> bool {
            self.inner.contains(id)
        }
        fn live_pages(&self) -> usize {
            self.inner.live_pages()
        }
        fn live_page_ids(&self) -> Vec<PageId> {
            self.inner.live_page_ids()
        }
    }

    #[test]
    fn checkpoints_write_pages_in_the_same_order_on_every_run() {
        // The script: 64 pages written in a scrambled order, some freed,
        // over two checkpoints. Each run gets a fresh overlay map, whose
        // iteration order differs from instance to instance.
        let run = |name: &str| {
            let path = tmp(name);
            let inner = Recording {
                inner: MemStore::new(128),
                writes: Vec::new(),
            };
            let mut s = WalStore::create(inner, &path).unwrap();
            let mut ids: Vec<PageId> = (0..64).map(|_| s.allocate().unwrap()).collect();
            for round in 0..2u8 {
                for i in 0..ids.len() {
                    let id = ids[(i * 37 + round as usize) % ids.len()];
                    s.write(id, &[i as u8 ^ round; 128]).unwrap();
                    s.commit().unwrap();
                }
                for id in ids.iter().step_by(5) {
                    s.free(*id).unwrap();
                }
                ids.retain(|id| s.contains(*id));
                s.checkpoint().unwrap();
            }
            std::fs::remove_file(&path).ok();
            s.into_inner().writes
        };
        let first = run("order_a");
        assert_eq!(
            first,
            run("order_b"),
            "page-file writes differ between runs"
        );
        // Each checkpoint's writes ascend: one descent, between the two.
        let descents = first.windows(2).filter(|w| w[0] >= w[1]).count();
        assert_eq!(descents, 1, "{first:?}");
    }

    #[test]
    fn checkpoint_forces_group_fsync() {
        let path = tmp("groupckpt");
        let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
        s.set_group_commit(1000);
        let a = s.allocate().unwrap();
        s.write(a, &[3u8; 128]).unwrap();
        s.commit().unwrap();
        // Checkpoint must not leave the pending commit unsynced.
        s.checkpoint().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let mut inner = s.into_inner();
        let mut out = vec![0u8; 128];
        inner.read(a, &mut out).unwrap();
        assert_eq!(out[0], 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsynced_commits_still_replay_when_bytes_reached_disk() {
        // Group commit defers fsync, not the write; if the OS got the
        // bytes (as in-process reopen always does), replay honours them.
        let path = tmp("groupreplay");
        let inner = {
            let mut s = WalStore::create(MemStore::new(128), &path).unwrap();
            s.set_group_commit(100);
            let a = s.allocate().unwrap();
            s.write(a, &[8u8; 128]).unwrap();
            s.commit().unwrap(); // appended, fsync pending
            s.into_inner()
        };
        let mut recovered = WalStore::open(inner, &path).unwrap();
        let mut out = vec![0u8; 128];
        recovered.read(PageId(0), &mut out).unwrap();
        assert_eq!(out[0], 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn btree_over_wal_survives_crash() {
        // End-to-end: a B-tree built over a WAL-wrapped store recovers all
        // committed inserts.
        use crate::buffer::BufferPool;
        let path = tmp("btree");
        let inner = {
            let s = WalStore::create(MemStore::new(512), &path).unwrap();
            let pool = BufferPool::new(s, 1 << 12);
            let tree_pool = pool; // build "tree" manually via pages? Use raw pages.
            let (id, page) = tree_pool.allocate().unwrap();
            page.write()[..4].copy_from_slice(b"ROOT");
            drop(page);
            // flush dirty frames into the WAL, then commit (not checkpoint).
            tree_pool.flush_to_store_only().unwrap();
            let mut s = tree_pool.into_store();
            s.commit().unwrap();
            let _ = id;
            s.into_inner()
        };
        let mut recovered = WalStore::open(inner, &path).unwrap();
        let mut out = vec![0u8; 512];
        recovered.read(PageId(0), &mut out).unwrap();
        assert_eq!(&out[..4], b"ROOT");
        std::fs::remove_file(&path).ok();
    }
}
