//! Deterministic fault injection for page stores.
//!
//! [`FaultStore`] wraps any [`PageStore`] and fails scheduled operations:
//! clean I/O errors, torn writes that persist only a prefix of the page,
//! and crash points after which every operation fails. Operations are
//! numbered from zero in the order the wrapper sees them, so a test can
//! sweep a fault across *every* point of a workload and assert that the
//! layers above (WAL, buffer pool, B-tree) either fail cleanly or recover.
//!
//! Beyond those fail-stop faults the store injects *silent* damage — the
//! kind only a checksum layer can catch: [`Fault::BitFlip`] (bit rot),
//! [`Fault::MisdirectedWrite`] (firmware writes the right data to the
//! wrong sector) and [`Fault::StaleRead`] (a lost write: the read returns
//! the page's pre-image). These report success; the corruption sweep
//! asserts [`crate::ChecksumStore`] turns every one of them into a typed
//! [`Error::Corruption`] instead of a wrong answer. For page-targeted
//! sweeps, [`FaultStore::damage_now`] applies the same damage immediately
//! to a chosen page instead of scheduling by operation number.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::{Error, Result};
use crate::page::PageId;
use crate::store::PageStore;

/// A single injected fault, fired when the wrapped store reaches the
/// operation it is scheduled at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with an I/O error and has no effect.
    IoError,
    /// A write persists only its first `bytes` bytes (a torn page), then
    /// reports an I/O error. On non-write operations this degrades to
    /// [`Fault::IoError`].
    TornWrite {
        /// How much of the page reaches the backing store.
        bytes: usize,
    },
    /// The store loses power: this operation and every later one fail,
    /// and nothing more reaches the backing store.
    Crash,
    /// Silent single-bit damage. On a read, bit `bit` (mod page bits) of
    /// the *returned* data is flipped; on a write, the flipped page is
    /// persisted. Either way the operation reports success. Degrades to
    /// [`Fault::IoError`] on allocate/free/sync.
    BitFlip {
        /// Which bit to flip, counted from byte 0's LSB; reduced modulo
        /// the page size in bits.
        bit: usize,
    },
    /// A write lands on `victim` instead of its target and reports
    /// success; the target keeps its old content. Degrades to
    /// [`Fault::IoError`] on non-write operations.
    MisdirectedWrite {
        /// The page that receives the bytes instead.
        victim: PageId,
    },
    /// A read silently returns the page's pre-image (its content before
    /// the last write through this wrapper) — a lost write made visible.
    /// Requires [`FaultStore::track_preimages`]; degrades to
    /// [`Fault::IoError`] when no pre-image is known or on non-read
    /// operations.
    StaleRead,
}

/// The mutable half of a [`FaultStore`]: the schedule and its bookkeeping,
/// shared between the store (which consumes faults on every counted
/// operation) and any number of [`FaultHandle`]s (which inject them —
/// possibly from another thread while the store is serving traffic).
struct FaultState {
    schedule: BTreeMap<u64, Fault>,
    ops: u64,
    crashed: bool,
    /// Per-page content before its most recent write through this wrapper;
    /// populated only while pre-image tracking is on (it costs a read and
    /// a copy per write, so the transparent configuration skips it).
    preimages: Option<HashMap<PageId, Vec<u8>>>,
}

impl FaultState {
    fn new() -> Self {
        FaultState {
            schedule: BTreeMap::new(),
            ops: 0,
            crashed: false,
            preimages: None,
        }
    }
}

fn lock_state(state: &Mutex<FaultState>) -> MutexGuard<'_, FaultState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// A clonable, thread-safe handle onto a [`FaultStore`]'s schedule: the
/// live-injection channel chaos harnesses use to schedule faults against a
/// store that is buried under a buffer pool inside a serving database.
/// Injecting while the store is mid-operation is safe — the schedule lock
/// is taken per counted operation.
#[derive(Clone)]
pub struct FaultHandle {
    state: Arc<Mutex<FaultState>>,
}

impl FaultHandle {
    /// Schedule `fault` to fire at counted operation number `at`.
    pub fn inject(&self, at: u64, fault: Fault) {
        lock_state(&self.state).schedule.insert(at, fault);
    }

    /// Schedule `fault` at `count` consecutive operations starting at
    /// `at` — a burst that outlasts bounded retry.
    pub fn inject_burst(&self, at: u64, count: u64, fault: Fault) {
        let mut s = lock_state(&self.state);
        for i in 0..count {
            s.schedule.insert(at + i, fault);
        }
    }

    /// Operations counted so far.
    pub fn ops(&self) -> u64 {
        lock_state(&self.state).ops
    }

    /// Scheduled faults that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        lock_state(&self.state).schedule.len()
    }

    /// Whether a [`Fault::Crash`] has fired.
    pub fn crashed(&self) -> bool {
        lock_state(&self.state).crashed
    }

    /// Drop all pending faults and clear the crashed flag ("repair the
    /// disk"), e.g. before a recovery attempt.
    pub fn clear_faults(&self) {
        let mut s = lock_state(&self.state);
        s.schedule.clear();
        s.crashed = false;
    }

    /// A copy of the pending schedule, for determinism assertions.
    pub fn schedule(&self) -> BTreeMap<u64, Fault> {
        lock_state(&self.state).schedule.clone()
    }
}

/// A [`PageStore`] wrapper that injects faults from a deterministic
/// schedule. Counted operations are `allocate`, `free`, `read`, `write`
/// and `sync`; `page_size` and `live_pages` are free.
pub struct FaultStore<S: PageStore> {
    inner: S,
    state: Arc<Mutex<FaultState>>,
}

impl<S: PageStore> FaultStore<S> {
    /// Wrap `inner` with an empty schedule (fully transparent).
    pub fn new(inner: S) -> Self {
        FaultStore {
            inner,
            state: Arc::new(Mutex::new(FaultState::new())),
        }
    }

    /// Wrap `inner` with a pseudo-random schedule of `faults` faults over
    /// operations `[0, horizon)`, derived from `seed` (SplitMix64).
    pub fn seeded(inner: S, seed: u64, faults: usize, horizon: u64) -> Self {
        let s = Self::new(inner);
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        {
            let mut st = lock_state(&s.state);
            for _ in 0..faults {
                let at = next() % horizon.max(1);
                let fault = match next() % 3 {
                    0 => Fault::IoError,
                    1 => Fault::TornWrite {
                        bytes: (next() % 64) as usize,
                    },
                    _ => Fault::Crash,
                };
                st.schedule.insert(at, fault);
            }
        }
        s
    }

    /// A clonable handle onto this store's schedule, usable from other
    /// threads while the store itself is behind a pool mutex.
    pub fn handle(&self) -> FaultHandle {
        FaultHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// The wrapped store, read-only.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped store, bypassing the schedule — e.g.
    /// to snapshot or restore raw page bytes around an injected damage.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap, discarding the schedule.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Start (or stop) recording each page's pre-image on write, which
    /// [`Fault::StaleRead`] needs. Off by default: tracking costs one read
    /// and one copy per write.
    pub fn track_preimages(&mut self, on: bool) {
        lock_state(&self.state).preimages = if on { Some(HashMap::new()) } else { None };
    }

    fn record_preimage(&mut self, id: PageId) {
        if lock_state(&self.state).preimages.is_none() {
            return;
        }
        let mut cur = vec![0u8; self.inner.page_size()];
        if self.inner.read(id, &mut cur).is_ok() {
            lock_state(&self.state)
                .preimages
                .as_mut()
                .expect("checked above")
                .insert(id, cur);
        }
    }

    /// Apply `fault`'s damage to `page` *immediately*, bypassing the
    /// operation schedule — the page-targeted hammer the corruption sweep
    /// uses ("corrupt exactly this page, then prove it is detected").
    /// Supports the content faults; [`Fault::IoError`] and
    /// [`Fault::Crash`] have no content effect and are rejected.
    pub fn damage_now(&mut self, page: PageId, fault: Fault) -> Result<()> {
        let ps = self.inner.page_size();
        let mut cur = vec![0u8; ps];
        let res = match fault {
            Fault::BitFlip { bit } => {
                self.inner.read(page, &mut cur)?;
                let b = bit % (ps * 8);
                cur[b / 8] ^= 1 << (b % 8);
                self.inner.write(page, &cur)
            }
            Fault::TornWrite { bytes } => {
                // Keep the first `bytes`, clobber the tail — a power cut
                // midway through rewriting the page's sectors.
                self.inner.read(page, &mut cur)?;
                let n = bytes.min(ps);
                for b in &mut cur[n..] {
                    *b = !*b;
                }
                self.inner.write(page, &cur)
            }
            Fault::MisdirectedWrite { victim } => {
                // A write meant for `victim` landed here instead.
                self.inner.read(victim, &mut cur)?;
                self.inner.write(page, &cur)
            }
            Fault::StaleRead => {
                // Roll the page back to its tracked pre-image (lost write).
                let pre = lock_state(&self.state)
                    .preimages
                    .as_ref()
                    .and_then(|m| m.get(&page))
                    .cloned()
                    .ok_or_else(|| {
                        Error::Corrupt(format!("no pre-image tracked for page {page}"))
                    })?;
                self.inner.write(page, &pre)
            }
            Fault::IoError | Fault::Crash => Err(Error::Corrupt(
                "damage_now only applies content faults".into(),
            )),
        };
        if res.is_ok() {
            telemetry::counter("pagestore.fault.damage").inc();
        }
        res
    }

    fn fault_error(what: &str) -> Error {
        Error::Io(std::io::Error::other(format!("injected fault: {what}")))
    }

    /// Count one operation; return the fault to apply to it, if any.
    /// Fired faults leave the schedule, so tests can tell whether a
    /// scheduled fault was ever reached.
    fn begin_op(&mut self) -> Result<Option<Fault>> {
        let mut s = lock_state(&self.state);
        if s.crashed {
            return Err(Self::fault_error("store crashed"));
        }
        let n = s.ops;
        s.ops += 1;
        match s.schedule.remove(&n) {
            Some(Fault::Crash) => {
                s.crashed = true;
                telemetry::counter("pagestore.fault.trips").inc();
                Err(Self::fault_error("crash"))
            }
            Some(fault) => {
                telemetry::counter("pagestore.fault.trips").inc();
                Ok(Some(fault))
            }
            None => Ok(None),
        }
    }
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&mut self) -> Result<PageId> {
        match self.begin_op()? {
            None => self.inner.allocate(),
            Some(_) => Err(Self::fault_error("allocate failed")),
        }
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        match self.begin_op()? {
            None => self.inner.free(id),
            Some(_) => Err(Self::fault_error("free failed")),
        }
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        match self.begin_op()? {
            None => self.inner.read(id, buf),
            Some(Fault::BitFlip { bit }) => {
                // Silent bit rot on the wire: the backing page is intact,
                // the caller's copy is not.
                self.inner.read(id, buf)?;
                let b = bit % (buf.len() * 8).max(1);
                buf[b / 8] ^= 1 << (b % 8);
                Ok(())
            }
            Some(Fault::StaleRead) => {
                // A lost write: hand back the page's pre-image as if the
                // most recent write never reached the platter.
                match lock_state(&self.state)
                    .preimages
                    .as_ref()
                    .and_then(|m| m.get(&id))
                {
                    Some(pre) if pre.len() == buf.len() => {
                        buf.copy_from_slice(pre);
                        Ok(())
                    }
                    _ => Err(Self::fault_error("read failed")),
                }
            }
            Some(_) => Err(Self::fault_error("read failed")),
        }
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        match self.begin_op()? {
            None => {
                self.record_preimage(id);
                self.inner.write(id, buf)
            }
            Some(Fault::TornWrite { bytes }) => {
                // Persist the torn prefix over the page's current content,
                // then report failure — like a power cut mid-sector.
                let n = bytes.min(buf.len());
                let mut cur = vec![0u8; self.inner.page_size()];
                self.inner.read(id, &mut cur)?;
                cur[..n].copy_from_slice(&buf[..n]);
                self.record_preimage(id);
                self.inner.write(id, &cur)?;
                Err(Self::fault_error("torn write"))
            }
            Some(Fault::BitFlip { bit }) => {
                // The flipped page is what lands on disk; success reported.
                let mut damaged = buf.to_vec();
                let b = bit % (damaged.len() * 8).max(1);
                damaged[b / 8] ^= 1 << (b % 8);
                self.record_preimage(id);
                self.inner.write(id, &damaged)
            }
            Some(Fault::MisdirectedWrite { victim }) => {
                // The bytes land on `victim`; the target keeps its old
                // content and the caller is told everything went fine.
                self.record_preimage(victim);
                let _ = self.inner.write(victim, buf);
                Ok(())
            }
            Some(_) => Err(Self::fault_error("write failed")),
        }
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
        match self.begin_op()? {
            None => self.inner.sync(),
            Some(_) => Err(Self::fault_error("sync failed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn transparent_without_faults() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        s.write(a, &[7u8; 128]).unwrap();
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 7);
        assert_eq!(s.handle().ops(), 3);
        assert_eq!(s.live_pages(), 1);
        s.free(a).unwrap();
        assert_eq!(s.live_pages(), 0);
    }

    #[test]
    fn io_error_has_no_effect() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        s.handle().inject(s.handle().ops(), Fault::IoError);
        assert!(s.write(a, &[2u8; 128]).is_err());
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 1, "failed write must leave the page untouched");
        assert_eq!(
            s.handle().pending_faults(),
            0,
            "fault fired and left the schedule"
        );
    }

    #[test]
    fn torn_write_persists_prefix() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        s.handle()
            .inject(s.handle().ops(), Fault::TornWrite { bytes: 10 });
        assert!(s.write(a, &[2u8; 128]).is_err());
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(&out[..10], &[2u8; 10], "torn prefix persisted");
        assert_eq!(&out[10..], &[1u8; 118], "rest of the page untouched");
    }

    #[test]
    fn crash_latches() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        s.write(a, &[3u8; 128]).unwrap();
        s.handle().inject(s.handle().ops(), Fault::Crash);
        let mut out = vec![0u8; 128];
        assert!(s.read(a, &mut out).is_err());
        assert!(s.handle().crashed());
        assert!(
            s.write(a, &[4u8; 128]).is_err(),
            "everything fails after a crash"
        );
        assert!(s.allocate().is_err());
        // The data written before the crash is still in the backing store.
        let mut inner = s.into_inner();
        inner.read(a, &mut out).unwrap();
        assert_eq!(out[0], 3);
    }

    #[test]
    fn clear_faults_repairs() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        s.handle().inject(s.handle().ops(), Fault::Crash);
        assert!(s.write(a, &[5u8; 128]).is_err());
        s.handle().clear_faults();
        s.write(a, &[5u8; 128]).unwrap();
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 5);
    }

    #[test]
    fn bitflip_on_read_is_transient_and_silent() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        s.write(a, &[0u8; 128]).unwrap();
        s.handle()
            .inject(s.handle().ops(), Fault::BitFlip { bit: 9 });
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out[1], 0b10, "bit 9 of the returned copy flipped");
        // The backing page itself is intact.
        s.read(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn bitflip_on_write_persists_damage() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        s.handle()
            .inject(s.handle().ops(), Fault::BitFlip { bit: 0 });
        s.write(a, &[0u8; 128]).unwrap();
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 1, "flipped page persisted");
    }

    #[test]
    fn misdirected_write_hits_victim_and_spares_target() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        s.write(b, &[2u8; 128]).unwrap();
        s.handle()
            .inject(s.handle().ops(), Fault::MisdirectedWrite { victim: b });
        s.write(a, &[9u8; 128]).unwrap();
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 1, "target kept its old content");
        s.read(b, &mut out).unwrap();
        assert_eq!(out[0], 9, "victim received the bytes");
    }

    #[test]
    fn stale_read_returns_preimage() {
        let mut s = FaultStore::new(MemStore::new(128));
        s.track_preimages(true);
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        s.write(a, &[2u8; 128]).unwrap();
        s.handle().inject(s.handle().ops(), Fault::StaleRead);
        let mut out = vec![0u8; 128];
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 1, "read returned the pre-image of the last write");
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 2, "later reads see the real content");
    }

    #[test]
    fn stale_read_without_tracking_degrades_to_io_error() {
        let mut s = FaultStore::new(MemStore::new(128));
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        s.handle().inject(s.handle().ops(), Fault::StaleRead);
        let mut out = vec![0u8; 128];
        assert!(matches!(s.read(a, &mut out), Err(Error::Io(_))));
    }

    #[test]
    fn damage_now_variants() {
        let mut s = FaultStore::new(MemStore::new(128));
        s.track_preimages(true);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        s.write(b, &[2u8; 128]).unwrap();
        let mut out = vec![0u8; 128];

        s.damage_now(a, Fault::BitFlip { bit: 0 }).unwrap();
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 0, "bit 0 flipped in place");

        s.damage_now(a, Fault::TornWrite { bytes: 64 }).unwrap();
        s.read(a, &mut out).unwrap();
        assert_eq!(out[64], !1u8, "tail clobbered");

        s.damage_now(a, Fault::MisdirectedWrite { victim: b })
            .unwrap();
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 2, "page now holds victim's content");

        // Overwrite b, then roll it back to its pre-image.
        s.write(b, &[3u8; 128]).unwrap();
        s.damage_now(b, Fault::StaleRead).unwrap();
        s.read(b, &mut out).unwrap();
        assert_eq!(out[0], 2, "page rolled back to pre-image");

        assert!(s.damage_now(a, Fault::IoError).is_err());
        assert!(s.damage_now(a, Fault::Crash).is_err());
        assert_eq!(
            s.handle().pending_faults(),
            0,
            "damage_now bypasses the schedule"
        );
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let a = FaultStore::seeded(MemStore::new(128), 42, 5, 100);
        let b = FaultStore::seeded(MemStore::new(128), 42, 5, 100);
        assert_eq!(a.handle().schedule(), b.handle().schedule());
        assert!(!a.handle().schedule().is_empty());
        let c = FaultStore::seeded(MemStore::new(128), 43, 5, 100);
        assert_ne!(a.handle().schedule(), c.handle().schedule());
        assert!(a.handle().schedule().keys().all(|&k| k < 100));
    }

    #[test]
    fn handle_injects_live_and_sees_state() {
        let mut s = FaultStore::new(MemStore::new(128));
        let h = s.handle();
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 128]).unwrap();
        assert_eq!(h.ops(), 2);
        h.inject(h.ops(), Fault::IoError);
        assert_eq!(h.pending_faults(), 1);
        let mut out = vec![0u8; 128];
        assert!(s.read(a, &mut out).is_err());
        assert_eq!(h.pending_faults(), 0);
        // A burst of faults fires on consecutive operations.
        h.inject_burst(h.ops(), 2, Fault::IoError);
        assert!(s.read(a, &mut out).is_err());
        assert!(s.read(a, &mut out).is_err());
        s.read(a, &mut out).unwrap();
        assert_eq!(out[0], 1);
        // Crash state is visible through the handle and clearable from it.
        h.inject(h.ops(), Fault::Crash);
        assert!(s.read(a, &mut out).is_err());
        assert!(h.crashed());
        h.clear_faults();
        assert!(!h.crashed());
        s.read(a, &mut out).unwrap();
    }
}
