use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE_MIN};

/// Abstraction over a flat array of fixed-size pages.
///
/// A `PageStore` is the persistence layer under a [`crate::BufferPool`].
/// Implementations must hand out dense page ids and may reuse freed ids.
pub trait PageStore {
    /// The fixed page size in bytes.
    fn page_size(&self) -> usize;

    /// Allocate a page and return its id. A fresh page reads as zeros,
    /// except on a [`crate::FileStore`]: its slot holds nothing until the
    /// first write, and a reused one its old bytes (the checksum layer
    /// above stamps every page it allocates).
    fn allocate(&mut self) -> Result<PageId>;

    /// Release a page. Its id may be handed out again by later allocations.
    fn free(&mut self, id: PageId) -> Result<()>;

    /// Read a page into `buf`, which must be exactly `page_size` long.
    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Write a page from `buf`, which must be exactly `page_size` long.
    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Whether `id` is a live page, decided from the store's bookkeeping
    /// alone: no page is read, so the answer is the same for a page whose
    /// bytes are damaged.
    fn contains(&self, id: PageId) -> bool;

    /// Number of live (allocated, not freed) pages.
    fn live_pages(&self) -> usize;

    /// The ids of all live pages, in ascending order. This is the scrub
    /// walk's enumeration: `live_page_ids().len() == live_pages()` and
    /// every returned id must be readable.
    fn live_page_ids(&self) -> Vec<PageId>;

    /// Flush any buffered writes to durable storage (no-op for memory).
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// An in-memory page store.
///
/// This is what the experiments use: the paper's metrics are page *counts*
/// observed at the buffer pool, not wall-clock disk time, so an in-memory
/// backing keeps runs fast and deterministic.
pub struct MemStore {
    page_size: usize,
    pages: Vec<Option<Box<[u8]>>>,
    free_list: Vec<u32>,
    live: usize,
}

impl MemStore {
    /// Create an empty store with the given page size.
    ///
    /// # Panics
    /// Panics if `page_size < PAGE_SIZE_MIN`.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size >= PAGE_SIZE_MIN,
            "page size {page_size} below minimum {PAGE_SIZE_MIN}"
        );
        MemStore {
            page_size,
            pages: Vec::new(),
            free_list: Vec::new(),
            live: 0,
        }
    }

    fn slot(&self, id: PageId) -> Result<&[u8]> {
        self.pages
            .get(id.index())
            .and_then(|p| p.as_deref())
            .ok_or(Error::PageNotFound(id))
    }
}

impl PageStore for MemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId> {
        self.live += 1;
        if let Some(idx) = self.free_list.pop() {
            self.pages[idx as usize] = Some(vec![0u8; self.page_size].into_boxed_slice());
            return Ok(PageId(idx));
        }
        let idx = self.pages.len();
        if idx >= u32::MAX as usize {
            return Err(Error::InvalidPageId(PageId::NULL));
        }
        self.pages
            .push(Some(vec![0u8; self.page_size].into_boxed_slice()));
        Ok(PageId(idx as u32))
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        match self.pages.get_mut(id.index()) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.free_list.push(id.0);
                self.live -= 1;
                Ok(())
            }
            _ => Err(Error::PageNotFound(id)),
        }
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(Error::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        let page = self.slot(id)?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(Error::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        match self.pages.get_mut(id.index()).and_then(|p| p.as_mut()) {
            Some(page) => {
                page.copy_from_slice(buf);
                Ok(())
            }
            None => Err(Error::PageNotFound(id)),
        }
    }

    fn contains(&self, id: PageId) -> bool {
        self.slot(id).is_ok()
    }

    fn live_pages(&self) -> usize {
        self.live
    }

    fn live_page_ids(&self) -> Vec<PageId> {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| PageId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut s = MemStore::new(128);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(s.live_pages(), 2);

        let mut buf = vec![0u8; 128];
        buf[0] = 0xAB;
        buf[127] = 0xCD;
        s.write(a, &buf).unwrap();

        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out, buf);

        // b is still zeroed
        s.read(b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn free_and_reuse() {
        let mut s = MemStore::new(128);
        let a = s.allocate().unwrap();
        let _b = s.allocate().unwrap();
        s.free(a).unwrap();
        assert_eq!(s.live_pages(), 1);
        assert_eq!(s.live_page_ids(), vec![PageId(1)]);
        let c = s.allocate().unwrap();
        assert_eq!(c, a, "freed id is reused");
        // Reused page must be zeroed.
        let mut out = vec![0u8; 128];
        s.read(c, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn errors() {
        let mut s = MemStore::new(128);
        let mut buf = vec![0u8; 128];
        assert!(matches!(
            s.read(PageId(0), &mut buf),
            Err(Error::PageNotFound(_))
        ));
        let a = s.allocate().unwrap();
        let mut small = vec![0u8; 64];
        assert!(matches!(
            s.read(a, &mut small),
            Err(Error::BadPageSize { .. })
        ));
        s.free(a).unwrap();
        assert!(matches!(s.free(a), Err(Error::PageNotFound(_))));
        assert!(matches!(s.read(a, &mut buf), Err(Error::PageNotFound(_))));
    }

    #[test]
    #[should_panic]
    fn too_small_page_size_panics() {
        let _ = MemStore::new(16);
    }
}
