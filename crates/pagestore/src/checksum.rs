//! Checksummed page store: per-page CRC trailers that turn silent damage
//! into typed [`Error::Corruption`] with provenance.
//!
//! [`ChecksumStore`] wraps any [`PageStore`] and reserves the last
//! [`TRAILER_LEN`] bytes of every inner page for a verification trailer:
//!
//! ```text
//! offset  0..4   format tag   (u32 LE, "CHK1")
//! offset  4..8   page id      (u32 LE — catches misdirected writes)
//! offset  8..12  write epoch  (u32 LE — catches stale reads/lost writes)
//! offset 12..16  CRC32        (u32 LE over payload ++ trailer[0..12])
//! ```
//!
//! Callers see a page size [`TRAILER_LEN`] bytes smaller than the inner
//! store's; every `read` verifies the trailer and every `write` restamps
//! it. The three trailer fields catch the three silent-fault families:
//! the CRC catches bit rot and torn pages, the page id catches a write
//! that landed on the wrong page, and the epoch catches a read that
//! returned a page's pre-image (the store keeps the expected epoch per
//! page in memory, trusting the first epoch it sees for pages written
//! before this wrapper existed).
//!
//! [`ChecksumStore::scrub`] walks every live page and verifies it without
//! returning data — the background integrity pass behind `uindex-cli
//! check`.

use std::collections::HashMap;

use crate::crc::crc32;
use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE_MIN};
use crate::store::PageStore;

/// Bytes of every inner page reserved for the verification trailer.
pub const TRAILER_LEN: usize = 16;

/// Trailer format tag ("CHK1").
const FORMAT_TAG: u32 = 0x314B_4843;

/// Outcome of a [`ChecksumStore::scrub`] pass.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Live pages examined.
    pub pages: usize,
    /// Every verification failure found, one per damaged page; each
    /// [`Error::Corruption`] names the page and the mismatched field.
    pub errors: Vec<Error>,
}

impl ScrubReport {
    /// Whether every examined page verified.
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A [`PageStore`] wrapper that verifies a CRC trailer on every read and
/// restamps it on every write. See the module docs for the layout.
pub struct ChecksumStore<S: PageStore> {
    inner: S,
    /// Expected write epoch per page. Written pages get an exact match
    /// requirement; unseen pages trust the first epoch read.
    epochs: HashMap<PageId, u32>,
    /// Full-size scratch buffer, reused across operations.
    scratch: Vec<u8>,
}

/// Refuse an exposed page size — what the layers above a
/// [`ChecksumStore`] see — below [`PAGE_SIZE_MIN`], with a typed error a
/// constructor returns before it builds or touches any store.
pub fn check_page_size(exposed: usize) -> Result<()> {
    if exposed < PAGE_SIZE_MIN {
        return Err(Error::PageSizeTooSmall {
            size: exposed,
            min: PAGE_SIZE_MIN,
        });
    }
    Ok(())
}

impl<S: PageStore> ChecksumStore<S> {
    /// Wrap `inner`, reserving [`TRAILER_LEN`] bytes per page.
    ///
    /// # Panics
    /// Panics if the exposed page size (`inner.page_size() - TRAILER_LEN`)
    /// would fall below [`PAGE_SIZE_MIN`]; a constructor taking the size
    /// from its caller refuses it first with [`check_page_size`].
    pub fn new(inner: S) -> Self {
        let exposed = inner.page_size().saturating_sub(TRAILER_LEN);
        if let Err(e) = check_page_size(exposed) {
            panic!("exposed {e}");
        }
        let scratch = vec![0u8; inner.page_size()];
        ChecksumStore {
            inner,
            epochs: HashMap::new(),
            scratch,
        }
    }

    /// The wrapped store, read-only.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped store. Writes made through this
    /// reference bypass trailer stamping — that is the point: tests use
    /// it to plant damage the trailer must catch.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap, discarding the expected-epoch table.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Verify the trailer of `full` (an inner-size page image) for `id`.
    /// Checks CRC, then format tag, then page id, then epoch; the first
    /// mismatch wins so the reported field is the root cause, not a
    /// knock-on (a payload bit flip fails the CRC before it can be
    /// misread as an epoch problem).
    fn verify(&mut self, id: PageId, full: &[u8]) -> Result<()> {
        let t = full.len() - TRAILER_LEN;
        let stored_crc = u32::from_le_bytes(full[t + 12..t + 16].try_into().unwrap());
        let computed_crc = crc32(&full[..t + 12]);
        if stored_crc != computed_crc {
            return Err(Error::Corruption {
                page: id,
                what: "crc",
                expected: computed_crc as u64,
                actual: stored_crc as u64,
            });
        }
        let tag = u32::from_le_bytes(full[t..t + 4].try_into().unwrap());
        if tag != FORMAT_TAG {
            return Err(Error::Corruption {
                page: id,
                what: "format",
                expected: FORMAT_TAG as u64,
                actual: tag as u64,
            });
        }
        let stored_id = u32::from_le_bytes(full[t + 4..t + 8].try_into().unwrap());
        if stored_id != id.0 {
            return Err(Error::Corruption {
                page: id,
                what: "page-id",
                expected: id.0 as u64,
                actual: stored_id as u64,
            });
        }
        let epoch = u32::from_le_bytes(full[t + 8..t + 12].try_into().unwrap());
        match self.epochs.get(&id) {
            Some(&want) if want != epoch => Err(Error::Corruption {
                page: id,
                what: "epoch",
                expected: want as u64,
                actual: epoch as u64,
            }),
            Some(_) => Ok(()),
            None => {
                // Trust-on-first-use for pages written before this wrapper
                // existed (e.g. a reopened file store).
                self.epochs.insert(id, epoch);
                Ok(())
            }
        }
    }

    /// Stamp the trailer of `full` (an inner-size page image) for `id`
    /// with `epoch` and a fresh CRC.
    fn stamp(full: &mut [u8], id: PageId, epoch: u32) {
        let t = full.len() - TRAILER_LEN;
        full[t..t + 4].copy_from_slice(&FORMAT_TAG.to_le_bytes());
        full[t + 4..t + 8].copy_from_slice(&id.0.to_le_bytes());
        full[t + 8..t + 12].copy_from_slice(&epoch.to_le_bytes());
        let crc = crc32(&full[..t + 12]);
        full[t + 12..t + 16].copy_from_slice(&crc.to_le_bytes());
    }

    /// Verify one live page without returning its data.
    pub fn scrub_page(&mut self, id: PageId) -> Result<()> {
        let mut full = std::mem::take(&mut self.scratch);
        let res = self.inner.read(id, &mut full);
        let res = res.and_then(|()| self.verify(id, &full));
        self.scratch = full;
        res
    }

    /// Walk every live page and verify its trailer, collecting all
    /// failures instead of stopping at the first: a scrub's job is to
    /// size the damage. Emits `pagestore.scrub.{runs,pages,errors}`.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for id in self.inner.live_page_ids() {
            report.pages += 1;
            if let Err(e) = self.scrub_page(id) {
                report.errors.push(e);
            }
        }
        telemetry::counter("pagestore.scrub.runs").inc();
        telemetry::counter("pagestore.scrub.pages").add(report.pages as u64);
        telemetry::counter("pagestore.scrub.errors").add(report.errors.len() as u64);
        report
    }
}

/// A page-store stack containing a [`ChecksumStore`] layer that generic
/// code can scrub without knowing the exact stack shape. Implemented for
/// a bare checksummed stack and for one wrapped in a
/// [`crate::WalStore`] — scrub the latter only after a checkpoint, since
/// the scrub walks the *backing* pages, not the WAL overlay.
pub trait Scrubbable: PageStore {
    /// Verify every live backing page's trailer.
    fn scrub_pages(&mut self) -> ScrubReport;
}

impl<S: PageStore> Scrubbable for ChecksumStore<S> {
    fn scrub_pages(&mut self) -> ScrubReport {
        self.scrub()
    }
}

impl<S: PageStore> Scrubbable for crate::wal::WalStore<ChecksumStore<S>> {
    fn scrub_pages(&mut self) -> ScrubReport {
        self.inner_mut().scrub()
    }
}

impl<S: PageStore> PageStore for ChecksumStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size() - TRAILER_LEN
    }

    fn allocate(&mut self) -> Result<PageId> {
        let id = self.inner.allocate()?;
        // Stamp the zeroed page so its very first read verifies.
        let mut full = std::mem::take(&mut self.scratch);
        full.fill(0);
        Self::stamp(&mut full, id, 0);
        let res = self.inner.write(id, &full);
        self.scratch = full;
        if let Err(e) = res {
            // Hand the slot back: an id nobody holds would be a page no
            // log names.
            let _ = self.inner.free(id);
            return Err(e);
        }
        self.epochs.insert(id, 0);
        Ok(id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.inner.free(id)?;
        self.epochs.remove(&id);
        Ok(())
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let exposed = self.page_size();
        if buf.len() != exposed {
            return Err(Error::BadPageSize {
                expected: exposed,
                got: buf.len(),
            });
        }
        let mut full = std::mem::take(&mut self.scratch);
        let res = self.inner.read(id, &mut full);
        let res = res.and_then(|()| self.verify(id, &full));
        if res.is_ok() {
            buf.copy_from_slice(&full[..exposed]);
        }
        self.scratch = full;
        res
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        let exposed = self.page_size();
        if buf.len() != exposed {
            return Err(Error::BadPageSize {
                expected: exposed,
                got: buf.len(),
            });
        }
        let epoch = self.epochs.get(&id).map_or(0, |e| e.wrapping_add(1));
        let mut full = std::mem::take(&mut self.scratch);
        full[..exposed].copy_from_slice(buf);
        Self::stamp(&mut full, id, epoch);
        let res = self.inner.write(id, &full);
        self.scratch = full;
        res?;
        self.epochs.insert(id, epoch);
        Ok(())
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

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultStore};
    use crate::store::MemStore;

    fn fresh() -> ChecksumStore<MemStore> {
        ChecksumStore::new(MemStore::new(128 + TRAILER_LEN))
    }

    #[test]
    fn a_failed_stamp_hands_the_slot_back() {
        let mut s = ChecksumStore::new(FaultStore::new(MemStore::new(128 + TRAILER_LEN)));
        let at = s.inner().handle().ops();
        s.inner().handle().inject(at + 1, Fault::IoError);
        assert!(s.allocate().is_err(), "the stamp failed");
        assert_eq!(s.live_pages(), 0);
        assert_eq!(s.allocate().unwrap(), PageId(0), "the slot is reused");
    }

    #[test]
    fn roundtrip_and_exposed_size() {
        let mut s = fresh();
        assert_eq!(s.page_size(), 128);
        let a = s.allocate().unwrap();
        let mut buf = vec![0u8; 128];
        // A fresh page reads back zeroed and verified.
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
        buf[0] = 0xAB;
        s.write(a, &buf).unwrap();
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn payload_bit_flip_is_caught_as_crc() {
        let mut s = fresh();
        let a = s.allocate().unwrap();
        s.write(a, &[7u8; 128]).unwrap();
        // Flip one payload bit under the trailer's nose.
        let mut full = vec![0u8; 128 + TRAILER_LEN];
        s.inner_mut().read(a, &mut full).unwrap();
        full[5] ^= 0x10;
        s.inner_mut().write(a, &full).unwrap();
        let mut out = vec![0u8; 128];
        match s.read(a, &mut out) {
            Err(Error::Corruption { page, what, .. }) => {
                assert_eq!(page, a);
                assert_eq!(what, "crc");
            }
            other => panic!("expected crc corruption, got {other:?}"),
        }
    }

    #[test]
    fn misdirected_content_is_caught_as_page_id() {
        let mut s = fresh();
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        s.write(b, &[2u8; 128]).unwrap();
        // b's sectors end up holding a's (internally consistent) page.
        let mut full = vec![0u8; 128 + TRAILER_LEN];
        s.inner_mut().read(a, &mut full).unwrap();
        s.inner_mut().write(b, &full).unwrap();
        let mut out = vec![0u8; 128];
        match s.read(b, &mut out) {
            Err(Error::Corruption { page, what, .. }) => {
                assert_eq!(page, b);
                assert_eq!(what, "page-id");
            }
            other => panic!("expected page-id corruption, got {other:?}"),
        }
    }

    #[test]
    fn stale_content_is_caught_as_epoch() {
        let mut s = fresh();
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        let mut old = vec![0u8; 128 + TRAILER_LEN];
        s.inner_mut().read(a, &mut old).unwrap();
        s.write(a, &[2u8; 128]).unwrap();
        // The old image comes back: valid CRC, right page, wrong epoch.
        s.inner_mut().write(a, &old).unwrap();
        let mut out = vec![0u8; 128];
        match s.read(a, &mut out) {
            Err(Error::Corruption { page, what, .. }) => {
                assert_eq!(page, a);
                assert_eq!(what, "epoch");
            }
            other => panic!("expected epoch corruption, got {other:?}"),
        }
    }

    #[test]
    fn scrub_finds_exactly_the_damaged_pages() {
        let mut s = fresh();
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let id = s.allocate().unwrap();
            s.write(id, &[i; 128]).unwrap();
            ids.push(id);
        }
        assert!(s.scrub().clean());

        // Damage two pages below the checksum layer.
        let mut full = vec![0u8; 128 + TRAILER_LEN];
        for &victim in &[ids[2], ids[5]] {
            s.inner_mut().read(victim, &mut full).unwrap();
            full[0] ^= 0xFF;
            s.inner_mut().write(victim, &full).unwrap();
        }
        let report = s.scrub();
        assert_eq!(report.pages, 8);
        assert_eq!(report.errors.len(), 2);
        let damaged: Vec<PageId> = report
            .errors
            .iter()
            .map(|e| match e {
                Error::Corruption { page, .. } => *page,
                other => panic!("unexpected error {other:?}"),
            })
            .collect();
        assert_eq!(damaged, vec![ids[2], ids[5]]);
    }

    #[test]
    fn catches_every_silent_fault_kind_from_faultstore() {
        // End-to-end over the real stack order: checksum above faults.
        let mut s = ChecksumStore::new(FaultStore::new(MemStore::new(128 + TRAILER_LEN)));
        s.inner_mut().track_preimages(true);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        s.write(b, &[2u8; 128]).unwrap();
        let mut out = vec![0u8; 128];

        // Transient read-side bit flip.
        let at = s.inner().handle().ops();
        s.inner().handle().inject(at, Fault::BitFlip { bit: 77 });
        assert!(s.read(a, &mut out).unwrap_err().is_corruption());
        s.read(a, &mut out).unwrap(); // transient: page itself intact

        // Persistent write-side bit flip.
        let at = s.inner().handle().ops();
        s.inner().handle().inject(at, Fault::BitFlip { bit: 3 });
        s.write(a, &[3u8; 128]).unwrap(); // silent success
        assert!(s.read(a, &mut out).unwrap_err().is_corruption());

        // Misdirected write: reading the victim reports page-id damage.
        let at = s.inner().handle().ops();
        s.inner()
            .handle()
            .inject(at, Fault::MisdirectedWrite { victim: b });
        s.write(a, &[4u8; 128]).unwrap(); // silent success
        match s.read(b, &mut out) {
            Err(Error::Corruption { what, .. }) => assert_eq!(what, "page-id"),
            other => panic!("expected page-id corruption, got {other:?}"),
        }
    }

    #[test]
    fn trust_on_first_use_for_unknown_epochs() {
        let mut inner = MemStore::new(128 + TRAILER_LEN);
        let a;
        {
            let mut s = ChecksumStore::new(inner);
            a = s.allocate().unwrap();
            s.write(a, &[9u8; 128]).unwrap();
            inner = s.into_inner();
        }
        // A fresh wrapper has no epoch table but accepts the stored epoch.
        let mut s = ChecksumStore::new(inner);
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 9);
    }
}
