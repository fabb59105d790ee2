//! Assembly of the production on-disk store stack.
//!
//! The durable tier layers, top to bottom:
//!
//! ```text
//! WalStore          crash safety: committed batches replay on reopen
//!   ChecksumStore   silent-damage detection: per-page CRC trailers
//!     FaultStore    deterministic fault injection (pass-through in prod)
//!       FileStore   pages on disk; the free list lives in memory
//! ```
//!
//! The WAL sits *above* the checksum layer so every page that reaches the
//! file — at checkpoint time — carries a freshly stamped trailer, and the
//! fault layer sits *below* the checksums so injected silent damage is
//! caught exactly like real bit rot. The fault layer stays in this product
//! type because the crash and salvage sweeps drive faults through the real
//! open path. The in-memory product stack (`uindex::DbStore`) has none: a
//! test that injects faults there builds its own stack.
//!
//! [`create`] and [`open`] build the whole stack over a directory holding
//! [`PAGES_FILE`] and [`WAL_FILE`]. Neither file records which pages are
//! free: after [`open`] every slot of the page file is live, and the owner
//! of the roots frees what they do not reach
//! ([`crate::BufferPool::free_unreachable`]).
//! The `page_size` given to [`create`] is the *exposed* size — the one
//! the B-tree sees and the experiments' page counts are measured in; the
//! file's physical pages are [`TRAILER_LEN`] bytes larger.

use std::path::Path;

use crate::checksum::{check_page_size, ChecksumStore, TRAILER_LEN};
use crate::error::Result;
use crate::fault::FaultStore;
use crate::file::FileStore;
use crate::wal::WalStore;

/// The production on-disk page store stack.
pub type DiskStack = WalStore<ChecksumStore<FaultStore<FileStore>>>;

/// Page file name inside a disk-store directory.
pub const PAGES_FILE: &str = "pages.db";

/// Write-ahead log name inside a disk-store directory.
pub const WAL_FILE: &str = "wal.log";

/// Create a fresh disk stack in `dir` (created if missing), truncating
/// any existing store there. `page_size` is the exposed page size.
pub fn create(dir: &Path, page_size: usize) -> Result<DiskStack> {
    check_page_size(page_size)?;
    std::fs::create_dir_all(dir)?;
    let file = FileStore::create(&dir.join(PAGES_FILE), page_size + TRAILER_LEN)?;
    let stack = ChecksumStore::new(FaultStore::new(file));
    WalStore::create(stack, &dir.join(WAL_FILE))
}

/// Reopen a disk stack from `dir`, replaying the WAL's committed batches
/// (inspect [`WalStore::recovery`] for what replay found and truncated).
pub fn open(dir: &Path) -> Result<DiskStack> {
    let file = FileStore::open(&dir.join(PAGES_FILE))?;
    let stack = ChecksumStore::new(FaultStore::new(file));
    WalStore::open(stack, &dir.join(WAL_FILE))
}

/// Mutable access to the stack's [`ChecksumStore`] layer (scrubbing).
pub fn checksum_layer(stack: &mut DiskStack) -> &mut ChecksumStore<FaultStore<FileStore>> {
    stack.inner_mut()
}

/// A clonable handle onto the stack's [`FaultStore`] schedule — the live
/// chaos-injection channel. Faults scheduled through it land *below* the
/// checksum layer, so silent damage is detected like real bit rot.
pub fn fault_handle(stack: &DiskStack) -> crate::fault::FaultHandle {
    stack.inner().inner().handle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;
    use crate::store::PageStore;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pagestore_disk_{}_{}", std::process::id(), name));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn create_commit_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        {
            let mut s = create(&dir, 128).unwrap();
            assert_eq!(s.page_size(), 128, "exposed size excludes the trailer");
            let a = s.allocate().unwrap();
            s.write(a, &[7u8; 128]).unwrap();
            s.commit().unwrap();
            // Crash: never checkpointed, overlay dropped.
        }
        {
            let mut s = open(&dir).unwrap();
            assert!(s.recovery().is_some());
            let mut out = vec![0u8; 128];
            s.read(PageId(0), &mut out).unwrap();
            assert_eq!(out[0], 7, "committed write replayed from the log");
            // Checkpoint pushes it to the file through the checksum layer.
            s.checkpoint().unwrap();
            let report = checksum_layer(&mut s).scrub();
            assert!(report.clean(), "checkpointed pages carry valid trailers");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_state_survives_without_log() {
        let dir = tmpdir("ckpt");
        {
            let mut s = create(&dir, 128).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, &[9u8; 128]).unwrap();
            s.checkpoint().unwrap();
        }
        let mut s = open(&dir).unwrap();
        assert_eq!(s.live_pages(), 1);
        let mut out = vec![0u8; 128];
        s.read(PageId(0), &mut out).unwrap();
        assert_eq!(out[0], 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_holds_every_slot_live_until_the_owner_frees_the_rest() {
        // A free is not logged: after the reopen the checkpointed `a` is
        // live again beside the replayed `b`, until the owner of the roots
        // frees what they do not reach.
        let dir = tmpdir("live_after_replay");
        let (a, b) = {
            let mut s = create(&dir, 128).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, &[1u8; 128]).unwrap();
            s.checkpoint().unwrap();
            let b = s.allocate().unwrap();
            s.write(b, &[2u8; 128]).unwrap();
            s.free(a).unwrap();
            s.commit().unwrap();
            (a, b)
        };
        let s = open(&dir).unwrap();
        assert_eq!(s.live_page_ids(), vec![a, b]);
        let pool = crate::BufferPool::new(s, 8);
        pool.free_unreachable(&[b].into_iter().collect()).unwrap();
        let mut s = pool.into_store();
        assert_eq!(s.live_page_ids(), vec![b]);
        assert_eq!(s.live_pages(), 1);
        s.checkpoint().unwrap();
        let report = checksum_layer(&mut s).scrub();
        assert!(report.clean() && report.pages == 1, "{report:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
