use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE_MIN};
use crate::store::PageStore;

/// A file-backed page store.
///
/// Layout: a 32-byte header (magic, page size, slot count, sync epoch,
/// CRC) followed by pages at offset `HEADER_LEN + id * page_size`. The
/// free list and slot count are persisted in a sidecar *manifest*
/// (`<path>.free`) so a reopen after a clean sync restores the exact
/// allocation state — including LIFO reuse order. [`FileStore::sync`]
/// always fsyncs the page data, but atomically replaces the manifest (and
/// rewrites the header after it) only when the slot count or the free
/// list differs from what the last durable manifest holds, or when that
/// is unknown: a store that has never synced, one opened without a usable
/// manifest, one whose last manifest write failed. Slots allocated after
/// the last sync are not durable yet; [`FileStore::open`] truncates them
/// away, which is exactly what a WAL layer above expects (its replay
/// re-allocates them).
///
/// Pages are read and written with positional I/O (`pread`/`pwrite`):
/// one syscall per page, no file cursor.
///
/// When the manifest is missing or damaged, `open` falls back to the old
/// conservative recovery: every slot implied by the file length is
/// treated as live and the free list starts empty.
pub struct FileStore {
    file: File,
    path: PathBuf,
    page_size: usize,
    num_slots: u32,
    /// Free ids in LIFO order ([`FileStore::allocate`] pops the back).
    free_list: Vec<u32>,
    /// Same ids as `free_list`, for O(1) liveness probes — `check` runs on
    /// every read/write, so a `Vec::contains` scan here made
    /// `live_page_ids` O(n²) at millions of pages.
    free_set: HashSet<u32>,
    live: usize,
    sync_epoch: u64,
    /// Slot count and free list of the last manifest known to be on disk;
    /// `None` when that is unknown, so the next sync writes one.
    durable: Option<(u32, Vec<u32>)>,
    /// Test hook: number of upcoming page-region writes to fail.
    fail_writes: u32,
}

const MAGIC: &[u8; 8] = b"UIDXPGS2";
const HEADER_LEN: u64 = 32;
const MANIFEST_MAGIC: &[u8; 8] = b"UIDXFREE";

/// The free-list manifest sitting next to a store file.
fn manifest_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".free");
    PathBuf::from(os)
}

/// Count one fsync of the page file, the manifest or their directory.
fn count_fsync() {
    telemetry::counter("pagestore.file.fsyncs").inc();
}

/// Best-effort fsync of the directory containing `path`, so a freshly
/// created or renamed file survives a crash of the directory itself.
/// Errors are ignored: not every filesystem supports directory fsync.
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
            count_fsync();
        }
    }
}

fn encode_header(page_size: usize, num_slots: u32, sync_epoch: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
    h[12..16].copy_from_slice(&num_slots.to_le_bytes());
    h[16..24].copy_from_slice(&sync_epoch.to_le_bytes());
    let crc = crc32(&h[..24]);
    h[24..28].copy_from_slice(&crc.to_le_bytes());
    h
}

struct Manifest {
    sync_epoch: u64,
    num_slots: u32,
    free: Vec<u32>,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(28 + 4 * m.free.len());
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.extend_from_slice(&m.sync_epoch.to_le_bytes());
    buf.extend_from_slice(&m.num_slots.to_le_bytes());
    buf.extend_from_slice(&(m.free.len() as u32).to_le_bytes());
    for id in &m.free {
        buf.extend_from_slice(&id.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_manifest(buf: &[u8]) -> Option<Manifest> {
    if buf.len() < 28 || &buf[..8] != MANIFEST_MAGIC {
        return None;
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().ok()?) {
        return None;
    }
    let sync_epoch = u64::from_le_bytes(body[8..16].try_into().ok()?);
    let num_slots = u32::from_le_bytes(body[16..20].try_into().ok()?);
    let count = u32::from_le_bytes(body[20..24].try_into().ok()?) as usize;
    if body.len() != 24 + 4 * count {
        return None;
    }
    let free = body[24..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    Some(Manifest {
        sync_epoch,
        num_slots,
        free,
    })
}

impl FileStore {
    /// Create a new store file, truncating any existing file at `path`.
    ///
    /// The header and the (empty) free-list manifest are fsynced before
    /// this returns — a crash immediately after `create` still leaves an
    /// openable store.
    pub fn create(path: &Path, page_size: usize) -> Result<Self> {
        assert!(
            page_size >= PAGE_SIZE_MIN,
            "page size {page_size} below minimum {PAGE_SIZE_MIN}"
        );
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut store = FileStore {
            file,
            path: path.to_path_buf(),
            page_size,
            num_slots: 0,
            free_list: Vec::new(),
            free_set: HashSet::new(),
            live: 0,
            sync_epoch: 0,
            durable: None,
            fail_writes: 0,
        };
        store.write_manifest(1)?;
        store
            .file
            .write_all_at(&encode_header(page_size, 0, 1), 0)?;
        store.file.sync_all()?;
        count_fsync();
        sync_parent_dir(path);
        store.sync_epoch = 1;
        Ok(store)
    }

    /// Open an existing store file created by [`FileStore::create`].
    ///
    /// A valid manifest makes the reopen *exact*: slot count and free
    /// list (in reuse order) come back as of the last sync, and any
    /// unsynced tail slots are truncated away. Without a manifest the
    /// recovery is conservative: every slot implied by the file length
    /// is live. A truncated or corrupt header is rejected with a typed
    /// [`Error::Corrupt`], never a panic.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            return Err(Error::Corrupt(format!(
                "truncated store header: {file_len} of {HEADER_LEN} bytes"
            )));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)?;
        if &header[..8] != MAGIC {
            return Err(Error::Corrupt("bad magic in store header".into()));
        }
        let stored_crc = u32::from_le_bytes(header[24..28].try_into().unwrap());
        if crc32(&header[..24]) != stored_crc {
            return Err(Error::Corrupt(
                "store header failed its CRC (partially written?)".into(),
            ));
        }
        let page_size = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        if page_size < PAGE_SIZE_MIN {
            return Err(Error::Corrupt(format!("bad page size {page_size}")));
        }
        let header_epoch = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let file_slots = (file_len.saturating_sub(HEADER_LEN) / page_size as u64) as u32;

        let manifest = std::fs::read(manifest_path(path))
            .ok()
            .as_deref()
            .and_then(decode_manifest)
            // A stale manifest (older than the header says) or one that
            // promises more slots than the file holds cannot be trusted.
            .filter(|m| m.sync_epoch >= header_epoch && m.num_slots <= file_slots)
            .filter(|m| m.free.iter().all(|&id| id < m.num_slots));

        Ok(match manifest {
            Some(m) => {
                // Exact recovery: discard slots allocated after the last
                // sync (they are not durable; a WAL replay re-creates
                // them) and restore the free list verbatim.
                file.set_len(HEADER_LEN + m.num_slots as u64 * page_size as u64)?;
                let free_set: HashSet<u32> = m.free.iter().copied().collect();
                let live = m.num_slots as usize - free_set.len();
                FileStore {
                    file,
                    path: path.to_path_buf(),
                    page_size,
                    num_slots: m.num_slots,
                    durable: Some((m.num_slots, m.free.clone())),
                    free_list: m.free,
                    free_set,
                    live,
                    sync_epoch: m.sync_epoch.max(header_epoch),
                    fail_writes: 0,
                }
            }
            None => FileStore {
                file,
                path: path.to_path_buf(),
                page_size,
                num_slots: file_slots,
                free_list: Vec::new(),
                free_set: HashSet::new(),
                live: file_slots as usize,
                sync_epoch: header_epoch,
                durable: None,
                fail_writes: 0,
            },
        })
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total slots in the file, free ones included.
    pub fn num_slots(&self) -> u32 {
        self.num_slots
    }

    /// Test hook: make the next `n` page-region writes fail with an
    /// injected I/O error. Exercises the failure paths inside `allocate`
    /// and `write` that a wrapping [`crate::FaultStore`] cannot reach
    /// (it sits above this store, not inside it).
    #[cfg(test)]
    fn inject_write_failures(&mut self, n: u32) {
        self.fail_writes = n;
    }

    fn offset(&self, id: PageId) -> u64 {
        HEADER_LEN + id.0 as u64 * self.page_size as u64
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        if self.fail_writes > 0 {
            self.fail_writes -= 1;
            return Err(Error::Io(std::io::Error::other("injected write failure")));
        }
        Ok(self.file.write_all_at(buf, offset)?)
    }

    fn check(&self, id: PageId) -> Result<()> {
        if id.is_null() || id.0 >= self.num_slots || self.free_set.contains(&id.0) {
            return Err(Error::PageNotFound(id));
        }
        Ok(())
    }

    /// Atomically replace the manifest (write-to-temp, fsync, rename).
    fn write_manifest(&mut self, epoch: u64) -> Result<()> {
        let target = manifest_path(&self.path);
        let mut tmp_os = target.as_os_str().to_os_string();
        tmp_os.push(".tmp");
        let tmp = PathBuf::from(tmp_os);
        let bytes = encode_manifest(&Manifest {
            sync_epoch: epoch,
            num_slots: self.num_slots,
            free: self.free_list.clone(),
        });
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            count_fsync();
        }
        std::fs::rename(&tmp, &target)?;
        sync_parent_dir(&target);
        telemetry::counter("pagestore.file.manifest_writes").inc();
        Ok(())
    }
}

impl PageStore for FileStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId> {
        // The zero-write is fallible, so all bookkeeping (`live`,
        // `num_slots`, `free_list`) happens strictly *after* it succeeds —
        // a failed allocation must leave the store exactly as it was.
        let zeros = vec![0u8; self.page_size];
        if let Some(&idx) = self.free_list.last() {
            self.write_at(self.offset(PageId(idx)), &zeros)?;
            self.free_list.pop();
            self.free_set.remove(&idx);
            self.live += 1;
            return Ok(PageId(idx));
        }
        let idx = self.num_slots;
        self.write_at(self.offset(PageId(idx)), &zeros)?;
        self.num_slots += 1;
        self.live += 1;
        Ok(PageId(idx))
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.check(id)?;
        self.free_list.push(id.0);
        self.free_set.insert(id.0);
        self.live -= 1;
        Ok(())
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(Error::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        self.check(id)?;
        Ok(self.file.read_exact_at(buf, self.offset(id))?)
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(Error::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        self.check(id)?;
        self.write_at(self.offset(id), buf)
    }

    fn contains(&self, id: PageId) -> bool {
        self.check(id).is_ok()
    }

    fn live_pages(&self) -> usize {
        self.live
    }

    fn live_page_ids(&self) -> Vec<PageId> {
        (0..self.num_slots)
            .filter(|i| !self.free_set.contains(i))
            .map(PageId)
            .collect()
    }

    fn sync(&mut self) -> Result<()> {
        // Order matters: page data first, then the manifest naming the
        // durable slot frontier, then the header stamp. A crash between
        // any two steps leaves either the previous consistent snapshot
        // (manifest epoch == header epoch) or a newer complete manifest
        // (epoch == header epoch + 1) — `open` accepts both. When the
        // allocation state is the one the last manifest holds, the data
        // fsync is all there is to do.
        self.file.sync_data()?;
        count_fsync();
        if self
            .durable
            .as_ref()
            .is_some_and(|(slots, free)| *slots == self.num_slots && *free == self.free_list)
        {
            return Ok(());
        }
        // Whatever a failure below leaves on disk, the next sync rewrites.
        self.durable = None;
        let next = self.sync_epoch + 1;
        self.write_manifest(next)?;
        let header = encode_header(self.page_size, self.num_slots, next);
        self.file.write_all_at(&header, 0)?;
        self.file.sync_data()?;
        count_fsync();
        self.sync_epoch = next;
        self.durable = Some((self.num_slots, self.free_list.clone()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pagestore_test_{}_{}", std::process::id(), name));
        p
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(manifest_path(path)).ok();
    }

    #[test]
    fn create_write_reopen() {
        let path = tmp("roundtrip");
        {
            let mut s = FileStore::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            let mut buf = vec![7u8; 128];
            buf[0] = 1;
            s.write(a, &buf).unwrap();
            s.sync().unwrap();
        }
        {
            let mut s = FileStore::open(&path).unwrap();
            assert_eq!(s.page_size(), 128);
            assert_eq!(s.live_pages(), 1);
            let mut out = vec![0u8; 128];
            s.read(PageId(0), &mut out).unwrap();
            assert_eq!(out[0], 1);
            assert_eq!(out[1], 7);
        }
        cleanup(&path);
    }

    #[test]
    fn free_reuse_zeroes() {
        let path = tmp("reuse");
        let mut s = FileStore::create(&path, 128).unwrap();
        let a = s.allocate().unwrap();
        s.write(a, &[9u8; 128]).unwrap();
        s.free(a).unwrap();
        let b = s.allocate().unwrap();
        assert_eq!(a, b);
        let mut out = vec![1u8; 128];
        s.read(b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
        cleanup(&path);
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a store file at all, padded to header length!").unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(Error::Corrupt(msg)) if msg.contains("magic")
        ));
        cleanup(&path);
    }

    #[test]
    fn open_rejects_truncated_header_with_typed_error() {
        let path = tmp("shortheader");
        std::fs::write(&path, &MAGIC[..6]).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(Error::Corrupt(msg)) if msg.contains("truncated")
        ));
        cleanup(&path);
    }

    #[test]
    fn open_rejects_header_with_bad_crc() {
        let path = tmp("badcrc");
        let mut h = encode_header(128, 0, 1).to_vec();
        h[20] ^= 0xFF; // damage the epoch without fixing the CRC
        std::fs::write(&path, &h).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(Error::Corrupt(msg)) if msg.contains("CRC")
        ));
        cleanup(&path);
    }

    #[test]
    fn crash_right_after_create_is_openable() {
        let path = tmp("createcrash");
        {
            let _s = FileStore::create(&path, 128).unwrap();
            // "Crash": drop without any sync.
        }
        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.live_pages(), 0);
        assert_eq!(s.page_size(), 128);
        cleanup(&path);
    }

    #[test]
    fn failed_allocate_leaves_counters_untouched() {
        let path = tmp("allocfail");
        let mut s = FileStore::create(&path, 128).unwrap();
        let a = s.allocate().unwrap();
        assert_eq!(s.live_pages(), 1);
        // New-slot path: the zero-write fails; live/num_slots must not move.
        s.inject_write_failures(1);
        assert!(matches!(s.allocate(), Err(Error::Io(_))));
        assert_eq!(s.live_pages(), 1);
        assert_eq!(s.num_slots(), 1);
        assert_eq!(s.live_page_ids(), vec![a]);
        // Recovery: the next allocate succeeds and ids stay dense.
        let b = s.allocate().unwrap();
        assert_eq!(b, PageId(1));
        assert_eq!(s.live_pages(), 2);
        // Reuse path: free `a`, fail the zero-write — the id must stay on
        // the free list (and still be reported free).
        s.free(a).unwrap();
        assert_eq!(s.live_pages(), 1);
        s.inject_write_failures(1);
        assert!(matches!(s.allocate(), Err(Error::Io(_))));
        assert_eq!(s.live_pages(), 1);
        assert_eq!(s.live_page_ids(), vec![b]);
        // After the fault clears, the freed id is reused (LIFO) and zeroed.
        let c = s.allocate().unwrap();
        assert_eq!(c, a);
        let mut out = vec![1u8; 128];
        s.read(c, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
        cleanup(&path);
    }

    #[test]
    fn reopen_restores_exact_free_list_and_lifo_order() {
        let path = tmp("manifest");
        {
            let mut s = FileStore::create(&path, 128).unwrap();
            let ids: Vec<PageId> = (0..4).map(|_| s.allocate().unwrap()).collect();
            for id in &ids {
                s.write(*id, &[id.0 as u8 + 1; 128]).unwrap();
            }
            s.free(ids[1]).unwrap();
            s.free(ids[3]).unwrap();
            s.sync().unwrap();
        }
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.live_pages(), 2, "exact free list survives reopen");
        assert_eq!(s.num_slots(), 4);
        assert_eq!(s.live_page_ids(), vec![PageId(0), PageId(2)]);
        let mut out = vec![0u8; 128];
        assert!(matches!(
            s.read(PageId(1), &mut out),
            Err(Error::PageNotFound(_))
        ));
        // LIFO order survives too: 3 was freed last, so it comes back
        // first.
        assert_eq!(s.allocate().unwrap(), PageId(3));
        assert_eq!(s.allocate().unwrap(), PageId(1));
        cleanup(&path);
    }

    #[test]
    fn unsynced_tail_slots_are_discarded_on_open() {
        let path = tmp("tailslots");
        {
            let mut s = FileStore::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, &[5u8; 128]).unwrap();
            s.sync().unwrap();
            // Two more slots after the sync — not durable.
            s.allocate().unwrap();
            s.allocate().unwrap();
        }
        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.num_slots(), 1, "unsynced tail truncated");
        assert_eq!(s.live_pages(), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            HEADER_LEN + 128,
            "file shrunk back to the durable frontier"
        );
        cleanup(&path);
    }

    #[test]
    fn missing_manifest_falls_back_to_conservative() {
        let path = tmp("nomanifest");
        {
            let mut s = FileStore::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            let b = s.allocate().unwrap();
            s.free(a).unwrap();
            let _ = b;
            s.sync().unwrap();
        }
        std::fs::remove_file(manifest_path(&path)).unwrap();
        let s = FileStore::open(&path).unwrap();
        // Conservative: the freed page is considered live again.
        assert_eq!(s.live_pages(), 2);
        assert_eq!(s.live_page_ids().len(), 2);
        cleanup(&path);
    }

    #[test]
    fn corrupt_manifest_falls_back_to_conservative() {
        let path = tmp("badmanifest");
        {
            let mut s = FileStore::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            s.free(a).unwrap();
            s.sync().unwrap();
        }
        let mpath = manifest_path(&path);
        let mut bytes = std::fs::read(&mpath).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&mpath, &bytes).unwrap();
        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.live_pages(), 1, "corrupt manifest ignored");
        cleanup(&path);
    }

    #[test]
    fn live_page_ids_is_not_quadratic_shape() {
        // Smoke the HashSet path: many pages with a large free list; the
        // old Vec::contains probe made this O(n²).
        let path = tmp("bigfree");
        let mut s = FileStore::create(&path, 128).unwrap();
        let ids: Vec<PageId> = (0..512).map(|_| s.allocate().unwrap()).collect();
        for id in ids.iter().step_by(2) {
            s.free(*id).unwrap();
        }
        assert_eq!(s.live_pages(), 256);
        assert_eq!(s.live_page_ids().len(), 256);
        let mut buf = vec![0u8; 128];
        assert!(s.read(PageId(1), &mut buf).is_ok());
        assert!(matches!(
            s.read(PageId(0), &mut buf),
            Err(Error::PageNotFound(_))
        ));
        cleanup(&path);
    }

    fn manifest_writes() -> u64 {
        telemetry::counter_value("pagestore.file.manifest_writes")
    }

    fn fsyncs() -> u64 {
        telemetry::counter_value("pagestore.file.fsyncs")
    }

    /// `(header epoch, manifest epoch)` as they stand on disk.
    fn epochs_on_disk(path: &Path) -> (u64, u64) {
        let file = std::fs::read(path).unwrap();
        let header = u64::from_le_bytes(file[16..24].try_into().unwrap());
        let manifest = decode_manifest(&std::fs::read(manifest_path(path)).unwrap()).unwrap();
        (header, manifest.sync_epoch)
    }

    /// `(slots, live ids, the ids allocation hands out next)` of a store
    /// reopened from `path`; drains its free list to list them.
    fn reopened_state(path: &Path) -> (u32, Vec<PageId>, Vec<PageId>) {
        let mut s = FileStore::open(path).unwrap();
        let (slots, live) = (s.num_slots(), s.live_page_ids());
        let reuse = (0..s.free_list.len())
            .map(|_| s.allocate().unwrap())
            .collect();
        (slots, live, reuse)
    }

    #[test]
    fn sync_rewrites_the_manifest_only_when_allocation_changed() {
        let path = tmp("skipmanifest");
        let mut s = FileStore::create(&path, 128).unwrap();
        // A store that has never synced writes a manifest at its first sync.
        let (m0, f0) = (manifest_writes(), fsyncs());
        s.sync().unwrap();
        assert_eq!(manifest_writes(), m0 + 1, "first sync of a new store");
        let ids: Vec<PageId> = (0..3).map(|_| s.allocate().unwrap()).collect();
        s.sync().unwrap();
        assert_eq!(manifest_writes(), m0 + 2, "slots were allocated");
        // Page writes alone: one data fsync, no manifest, no header.
        let f1 = fsyncs();
        for round in 0..3u8 {
            s.write(ids[1], &[round; 128]).unwrap();
            s.sync().unwrap();
        }
        assert_eq!(manifest_writes(), m0 + 2, "no allocation, no manifest");
        assert_eq!(fsyncs(), f1 + 3, "one data fsync per sync");
        assert!(fsyncs() > f0 + 3, "a manifest write fsyncs too");
        // Manifest epoch >= header epoch on disk after a skipped sync.
        let (header, manifest) = epochs_on_disk(&path);
        assert!(manifest >= header, "{manifest} < {header}");
        // A free is an allocation change.
        s.free(ids[0]).unwrap();
        s.sync().unwrap();
        assert_eq!(manifest_writes(), m0 + 3, "a page was freed");
        drop(s);
        let mut s = FileStore::open(&path).unwrap();
        let mut out = vec![0u8; 128];
        s.read(ids[1], &mut out).unwrap();
        assert_eq!(out, vec![2u8; 128], "the skipped syncs' data is there");
        assert_eq!(s.live_page_ids(), vec![ids[1], ids[2]]);
        cleanup(&path);
    }

    #[test]
    fn fallback_open_writes_a_manifest_at_the_next_sync() {
        for damage in ["deleted", "corrupted"] {
            let path = tmp(&format!("fallback_{damage}"));
            {
                let mut s = FileStore::create(&path, 128).unwrap();
                let ids: Vec<PageId> = (0..3).map(|_| s.allocate().unwrap()).collect();
                s.free(ids[1]).unwrap();
                s.sync().unwrap();
            }
            let mpath = manifest_path(&path);
            if damage == "deleted" {
                std::fs::remove_file(&mpath).unwrap();
            } else {
                let mut bytes = std::fs::read(&mpath).unwrap();
                bytes[10] ^= 0xFF;
                std::fs::write(&mpath, &bytes).unwrap();
            }
            let mut s = FileStore::open(&path).unwrap();
            assert_eq!(s.live_pages(), 3, "{damage}: conservative fallback");
            // No allocation change since open, yet the state on disk is
            // unknown: the sync must write a manifest.
            let m0 = manifest_writes();
            s.write(PageId(2), &[4u8; 128]).unwrap();
            s.sync().unwrap();
            assert_eq!(manifest_writes(), m0 + 1, "{damage}");
            let (slots, live, reuse) = reopened_state(&path);
            assert_eq!(slots, 3, "{damage}");
            assert_eq!(live, vec![PageId(0), PageId(1), PageId(2)], "{damage}");
            assert!(reuse.is_empty(), "{damage}: the fallback's free list");
            let (header, manifest) = epochs_on_disk(&path);
            assert_eq!(header, manifest, "{damage}");
            cleanup(&path);
        }
    }

    #[test]
    fn a_failed_manifest_write_is_retried_at_the_next_sync() {
        let path = tmp("manifestfail");
        let mut s = FileStore::create(&path, 128).unwrap();
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.sync().unwrap();
        s.free(a).unwrap();
        // A directory where the manifest's temporary file goes makes the
        // replace fail after the data fsync.
        let mut tmp_os = manifest_path(&path).into_os_string();
        tmp_os.push(".tmp");
        let blocker = PathBuf::from(tmp_os);
        std::fs::create_dir(&blocker).unwrap();
        assert!(s.sync().is_err());
        std::fs::remove_dir(&blocker).unwrap();
        // Back to the state of the last manifest that was written: what
        // the failed write left on disk is unknown, so the sync writes.
        assert_eq!(s.allocate().unwrap(), a);
        let m0 = manifest_writes();
        s.sync().unwrap();
        assert_eq!(manifest_writes(), m0 + 1, "the failed write is redone");
        drop(s);
        let (slots, live, reuse) = reopened_state(&path);
        assert_eq!((slots, live, reuse), (2, vec![a, b], vec![]));
        cleanup(&path);
    }

    #[test]
    fn free_and_reallocate_between_syncs_reopens_the_exact_lifo_list() {
        let path = tmp("freerealloc");
        let mut s = FileStore::create(&path, 128).unwrap();
        let ids: Vec<PageId> = (0..5).map(|_| s.allocate().unwrap()).collect();
        s.free(ids[1]).unwrap();
        s.free(ids[3]).unwrap();
        s.sync().unwrap();
        // The same id out and back in: the state is the synced one, so
        // the sync writes no manifest.
        let m0 = manifest_writes();
        s.free(ids[4]).unwrap();
        assert_eq!(s.allocate().unwrap(), ids[4]);
        s.sync().unwrap();
        assert_eq!(manifest_writes(), m0);
        let (slots, live, reuse) = reopened_state(&path);
        assert_eq!(slots, 5);
        assert_eq!(live, vec![ids[0], ids[2], ids[4]]);
        assert_eq!(reuse, vec![ids[3], ids[1]], "LIFO: 3 was freed last");
        // The same ids in another order is a different list.
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.allocate().unwrap(), ids[3]);
        assert_eq!(s.allocate().unwrap(), ids[1]);
        s.free(ids[3]).unwrap();
        s.free(ids[1]).unwrap();
        s.sync().unwrap();
        assert_eq!(manifest_writes(), m0 + 1, "[1, 3] became [3, 1]");
        drop(s);
        let (_, _, reuse) = reopened_state(&path);
        assert_eq!(reuse, vec![ids[1], ids[3]]);
        cleanup(&path);
    }
}
