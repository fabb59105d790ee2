use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE_MIN};
use crate::store::PageStore;

/// A file-backed page store.
///
/// Layout: a 16-byte header (magic, page size, CRC) followed by pages at
/// offset `HEADER_LEN + id * page_size`. The file records no allocation
/// state: [`FileStore::open`] treats every slot the file holds as live,
/// and the free list lives in memory only. Which pages are garbage is for
/// the owner of the roots to say — it frees what they do not reach
/// ([`crate::BufferPool::free_unreachable`]).
///
/// [`FileStore::allocate`] does no I/O: a slot holds nothing until its
/// first write (the checksum layer above stamps every page it allocates),
/// and a write to the slot just past the last one grows the file by it.
/// Pages are read and written with positional I/O (`pread`/`pwrite`): one
/// syscall per page, no file cursor.
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
    /// Test hook: number of upcoming page-region writes to fail.
    fail_writes: u32,
}

/// `3`: no allocation state in the file. A file of the layout before it
/// (`2`, which recorded its free list beside it) is refused as a bad
/// magic; no reader for it is kept.
const MAGIC: &[u8; 8] = b"UIDXPGS3";
const HEADER_LEN: u64 = 16;

/// Count one fsync of the page file or its directory.
fn count_fsync() {
    telemetry::counter("pagestore.file.fsyncs").inc();
}

/// Best-effort fsync of the directory containing `path`, so a freshly
/// created file survives a crash of the directory itself. Errors are
/// ignored: not every filesystem supports directory fsync.
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

fn encode_header(page_size: usize) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
    let crc = crc32(&h[..12]);
    h[12..16].copy_from_slice(&crc.to_le_bytes());
    h
}

impl FileStore {
    /// Create a new store file, truncating any existing file at `path`.
    ///
    /// The header is fsynced before this returns — a crash immediately
    /// after `create` still leaves an openable store.
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
        file.write_all_at(&encode_header(page_size), 0)?;
        file.sync_all()?;
        count_fsync();
        sync_parent_dir(path);
        Ok(FileStore::new(file, path, page_size, 0))
    }

    fn new(file: File, path: &Path, page_size: usize, num_slots: u32) -> Self {
        FileStore {
            file,
            path: path.to_path_buf(),
            page_size,
            num_slots,
            free_list: Vec::new(),
            free_set: HashSet::new(),
            live: num_slots as usize,
            fail_writes: 0,
        }
    }

    /// Open an existing store file created by [`FileStore::create`]: every
    /// whole slot the file holds is live. A truncated or corrupt header —
    /// or one of another layout — is rejected with a typed
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
        let stored_crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if crc32(&header[..12]) != stored_crc {
            return Err(Error::Corrupt(
                "store header failed its CRC (partially written?)".into(),
            ));
        }
        let page_size = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        if page_size < PAGE_SIZE_MIN {
            return Err(Error::Corrupt(format!("bad page size {page_size}")));
        }
        let num_slots = ((file_len - HEADER_LEN) / page_size as u64) as u32;
        Ok(FileStore::new(file, path, page_size, num_slots))
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
    /// injected I/O error. Exercises the failure path of `write` that a
    /// wrapping [`crate::FaultStore`] cannot reach (it sits above this
    /// store, not inside it).
    #[cfg(test)]
    fn inject_write_failures(&mut self, n: u32) {
        self.fail_writes = n;
    }

    fn offset(&self, id: PageId) -> u64 {
        HEADER_LEN + id.0 as u64 * self.page_size as u64
    }

    fn check(&self, id: PageId) -> Result<()> {
        if id.is_null() || id.0 >= self.num_slots || self.free_set.contains(&id.0) {
            return Err(Error::PageNotFound(id));
        }
        Ok(())
    }
}

impl PageStore for FileStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId> {
        let idx = match self.free_list.pop() {
            Some(idx) => {
                self.free_set.remove(&idx);
                idx
            }
            None => {
                self.num_slots += 1;
                self.num_slots - 1
            }
        };
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
        self.file.read_exact_at(buf, self.offset(id))?;
        Ok(())
    }

    /// Write a live page, or the slot just past the last one, which grows
    /// the store by it. Replay needs that: a committed write may name a
    /// slot whose unsynced extension of the file a power loss lost, and the
    /// log names every slot handed out before its commit, so a checkpoint
    /// in ascending page order meets those slots one after another. A
    /// write further out would skip slots no log names — the log is not
    /// one this store's writers made — and is refused.
    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(Error::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        if id.is_null() || self.free_set.contains(&id.0) {
            return Err(Error::PageNotFound(id));
        }
        if id.0 > self.num_slots {
            return Err(Error::Corrupt(format!(
                "write to page {id} would skip slots past the end of the file ({} slots)",
                self.num_slots
            )));
        }
        if self.fail_writes > 0 {
            self.fail_writes -= 1;
            return Err(Error::Io(std::io::Error::other("injected write failure")));
        }
        self.file.write_all_at(buf, self.offset(id))?;
        if id.0 == self.num_slots {
            self.num_slots += 1;
            self.live += 1;
        }
        Ok(())
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
        self.file.sync_data()?;
        count_fsync();
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
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
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
    fn allocate_does_no_io_and_reuses_freed_ids_lifo() {
        let path = tmp("reuse");
        let mut s = FileStore::create(&path, 128).unwrap();
        let ids: Vec<PageId> = (0..3).map(|_| s.allocate().unwrap()).collect();
        assert_eq!(file_len(&path), HEADER_LEN, "no slot written yet");
        s.write(ids[0], &[9u8; 128]).unwrap();
        s.free(ids[0]).unwrap();
        s.free(ids[2]).unwrap();
        assert_eq!(s.allocate().unwrap(), ids[2], "LIFO: freed last");
        assert_eq!(s.allocate().unwrap(), ids[0]);
        assert_eq!(s.allocate().unwrap(), PageId(3), "then a new slot");
        assert_eq!((s.num_slots(), s.live_pages()), (4, 4));
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
    fn open_refuses_the_previous_layout() {
        // A `UIDXPGS2` header — magic, page size, slot count, epoch, CRC
        // and padding — with one page after it.
        let path = tmp("previous");
        let mut h = Vec::from(&b"UIDXPGS2"[..]);
        h.extend_from_slice(&128u32.to_le_bytes());
        h.extend_from_slice(&1u32.to_le_bytes());
        h.extend_from_slice(&1u64.to_le_bytes());
        let crc = crc32(&h);
        h.extend_from_slice(&crc.to_le_bytes());
        h.extend_from_slice(&[0u8; 4]);
        h.extend_from_slice(&[5u8; 128]);
        std::fs::write(&path, &h).unwrap();
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
        let mut h = encode_header(128).to_vec();
        h[9] ^= 0xFF; // damage the page size without fixing the CRC
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
    fn a_failed_write_past_the_end_does_not_grow_the_store() {
        let path = tmp("writefail");
        let mut s = FileStore::create(&path, 128).unwrap();
        let a = s.allocate().unwrap();
        s.inject_write_failures(1);
        assert!(matches!(s.write(PageId(1), &[1u8; 128]), Err(Error::Io(_))));
        assert_eq!((s.num_slots(), s.live_page_ids()), (1, vec![a]));
        s.write(PageId(1), &[1u8; 128]).unwrap();
        assert_eq!(s.num_slots(), 2);
        cleanup(&path);
    }

    #[test]
    fn a_write_just_past_the_end_grows_the_file_and_reopens_every_slot_live() {
        let path = tmp("grow");
        {
            let mut s = FileStore::create(&path, 128).unwrap();
            let a = s.allocate().unwrap();
            s.write(a, &[5u8; 128]).unwrap();
            for id in 1..3 {
                s.write(PageId(id), &[6u8; 128]).unwrap();
            }
            assert_eq!((s.num_slots(), s.live_pages()), (3, 3));
            assert_eq!(file_len(&path), HEADER_LEN + 3 * 128);
            s.free(PageId(1)).unwrap();
            s.sync().unwrap();
        }
        // The free was in memory only: every slot the file holds is live.
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.live_page_ids(), (0..3).map(PageId).collect::<Vec<_>>());
        let mut out = vec![0u8; 128];
        s.read(PageId(2), &mut out).unwrap();
        assert_eq!(out, vec![6u8; 128]);
        // Writes to a freed slot or the null id are still refused.
        s.free(PageId(0)).unwrap();
        for id in [PageId(0), PageId::NULL] {
            assert!(matches!(
                s.write(id, &[0u8; 128]),
                Err(Error::PageNotFound(_))
            ));
        }
        cleanup(&path);
    }

    #[test]
    fn a_write_that_would_skip_a_slot_is_refused() {
        let path = tmp("skip");
        let mut s = FileStore::create(&path, 128).unwrap();
        s.write(PageId(0), &[1u8; 128]).unwrap();
        for id in [PageId(2), PageId(0xFFFF_FFFE)] {
            assert!(matches!(
                s.write(id, &[2u8; 128]),
                Err(Error::Corrupt(msg)) if msg.contains("skip")
            ));
        }
        assert_eq!((s.num_slots(), s.live_pages()), (1, 1));
        assert_eq!(file_len(&path), HEADER_LEN + 128);
        // An allocated slot the file does not hold yet is not read as
        // anything: the checksum layer above writes it first.
        let b = s.allocate().unwrap();
        let mut out = vec![0u8; 128];
        assert!(matches!(s.read(b, &mut out), Err(Error::Io(_))));
        cleanup(&path);
    }

    #[test]
    fn a_torn_last_slot_is_not_live() {
        let path = tmp("tornslot");
        {
            let mut s = FileStore::create(&path, 128).unwrap();
            for id in 0..2 {
                s.write(PageId(id), &[3u8; 128]).unwrap();
            }
        }
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(HEADER_LEN + 128 + 60).unwrap();
        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.live_page_ids(), vec![PageId(0)]);
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
        s.write(PageId(1), &buf).unwrap();
        assert!(s.read(PageId(1), &mut buf).is_ok());
        assert!(matches!(
            s.read(PageId(0), &mut buf),
            Err(Error::PageNotFound(_))
        ));
        cleanup(&path);
    }

    #[test]
    fn a_sync_is_one_fsync_whatever_was_allocated_or_freed() {
        let path = tmp("onesync");
        let mut s = FileStore::create(&path, 128).unwrap();
        let fsyncs = || telemetry::counter_value("pagestore.file.fsyncs");
        let ids: Vec<PageId> = (0..3).map(|_| s.allocate().unwrap()).collect();
        let f0 = fsyncs();
        s.sync().unwrap();
        s.free(ids[1]).unwrap();
        s.sync().unwrap();
        s.write(ids[0], &[1u8; 128]).unwrap();
        s.sync().unwrap();
        assert_eq!(fsyncs(), f0 + 3);
        cleanup(&path);
    }
}
