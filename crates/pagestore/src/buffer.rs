use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{Error, Result};
use crate::page::PageId;
use crate::store::PageStore;

/// Unpoison a mutex: a panicking holder leaves the data in whatever state
/// the panic found it, which for this pool is always structurally sound
/// (worst case: a frame stays dirty and is written back again later).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// A frame holding one page's bytes in memory, shareable across threads.
struct Frame {
    id: PageId,
    data: RwLock<FrameData>,
    dirty: AtomicBool,
    /// The owning pool's dirty set; a clean → dirty transition records the
    /// page there so a flush need not search the frame table.
    dirty_pages: Arc<DirtyPages>,
    last_use: AtomicU64,
}

/// A page's bytes and, behind the same lock, a decoded representation of
/// them (e.g. a B-tree node), type-erased so this layer stays ignorant of
/// what lives in a page. Invariant: a cached decode was produced from the
/// *current* bytes — [`PageRef::write`] clears it under the exclusive lock,
/// and readers fill it only while holding the shared one. One lock
/// acquisition therefore yields both.
struct FrameData {
    bytes: Box<[u8]>,
    decoded: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl FrameData {
    fn new(bytes: Box<[u8]>) -> RwLock<FrameData> {
        RwLock::new(FrameData {
            bytes,
            decoded: OnceLock::new(),
        })
    }
}

/// Ids of the frames with unwritten modifications. A leaf lock: taken last
/// (under a frame's data lock or a shard lock) and never held across
/// another acquisition.
type DirtyPages = Mutex<BTreeSet<PageId>>;

/// A handle to a buffered page.
///
/// Holding a `PageRef` pins the page: it cannot be evicted while any handle
/// is alive. Access the bytes with [`PageRef::read`] / [`PageRef::write`]
/// (the latter marks the page dirty).
#[derive(Clone)]
pub struct PageRef {
    frame: Arc<Frame>,
}

/// Shared borrow of a page's bytes (see [`PageRef::read`]).
pub struct PageReadGuard<'a> {
    guard: RwLockReadGuard<'a, FrameData>,
}

impl Deref for PageReadGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard.bytes
    }
}

impl PageReadGuard<'_> {
    /// Return the cached decoded form of these bytes, running `decode` on
    /// them if none is cached. The cache is invalidated by
    /// [`PageRef::write`], so a cached value always matches the bytes.
    ///
    /// Readers decode under the shared lock this guard holds; a writer
    /// cannot clear the slot in between, so a stale decode can never be
    /// (re)published. Of two readers racing to fill the slot, the first
    /// wins; a decode of another type than the cached one is returned
    /// without being cached.
    pub fn get_or_decode<T, E, F>(&self, decode: F) -> std::result::Result<Arc<T>, E>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&[u8]) -> std::result::Result<T, E>,
    {
        if let Some(any) = self.guard.decoded.get() {
            if let Ok(hit) = any.clone().downcast::<T>() {
                return Ok(hit);
            }
        }
        let value = Arc::new(decode(&self.guard.bytes)?);
        let _ = self.guard.decoded.set(value.clone());
        Ok(value)
    }
}

/// Exclusive borrow of a page's bytes (see [`PageRef::write`]).
pub struct PageWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, FrameData>,
}

impl Deref for PageWriteGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard.bytes
    }
}

impl DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.guard.bytes
    }
}

impl PageRef {
    /// The id of the buffered page.
    pub fn id(&self) -> PageId {
        self.frame.id
    }

    /// Borrow the page bytes immutably.
    pub fn read(&self) -> PageReadGuard<'_> {
        PageReadGuard {
            guard: read_lock(&self.frame.data),
        }
    }

    /// Borrow the page bytes mutably and mark the page dirty. Any cached
    /// decode is dropped — it described the old bytes.
    pub fn write(&self) -> PageWriteGuard<'_> {
        let mut guard = write_lock(&self.frame.data);
        if !self.frame.dirty.swap(true, Ordering::Relaxed) {
            lock(&self.frame.dirty_pages).insert(self.frame.id);
        }
        guard.decoded.take();
        PageWriteGuard { guard }
    }

    /// Whether the page has unwritten modifications.
    #[cfg(test)]
    fn is_dirty(&self) -> bool {
        self.frame.dirty.load(Ordering::Relaxed)
    }

    /// Whether a decoded form is currently cached for this page.
    pub fn has_decoded(&self) -> bool {
        read_lock(&self.frame.data).decoded.get().is_some()
    }
}

/// Per-query access statistics, reset by [`BufferPool::begin_query`].
///
/// `distinct_pages` is the paper's metric: the number of different pages the
/// query touched, counting a page once no matter how often it is revisited —
/// the paper's retrieval algorithm explicitly "utilizes any page which is
/// already in memory".
///
/// Queries are a per-thread notion: each worker thread runs its own query
/// stream, so the counters live in thread-local storage keyed by pool.
/// `begin_query` and `query_stats` therefore always refer to the calling
/// thread's current query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Distinct pages touched since `begin_query`.
    pub distinct_pages: u64,
    /// Total fetch calls since `begin_query` (revisits included).
    pub node_visits: u64,
}

/// Largest `touched` bitmap (one `u64` per page id) carried across
/// queries; [`BufferPool::begin_query`] sheds anything bigger.
const TOUCHED_RETAIN_LIMIT: usize = 1 << 12;

/// Per-thread, per-pool query accounting state.
struct QueryState {
    stats: QueryStats,
    /// `touched[page] == epoch` means the page was already counted for the
    /// current query. Indexed by raw page id; grows on demand.
    touched: Vec<u64>,
    epoch: u64,
}

impl Default for QueryState {
    fn default() -> Self {
        QueryState {
            stats: QueryStats::default(),
            touched: Vec::new(),
            // Starts at 1 so zero-initialized `touched` slots read as
            // not-yet-counted even before the first `begin_query`.
            epoch: 1,
        }
    }
}

impl QueryState {
    fn begin(&mut self) {
        self.epoch += 1;
        self.stats = QueryStats::default();
        // `touched` grows to the highest page id a query ever visits and
        // would otherwise stay that large for the thread's lifetime. Epochs
        // make stale entries harmless, so shedding the memory is free.
        if self.touched.len() > TOUCHED_RETAIN_LIMIT {
            self.touched.clear();
            self.touched.shrink_to(TOUCHED_RETAIN_LIMIT);
        }
    }

    fn touch(&mut self, id: PageId) {
        self.stats.node_visits += 1;
        let idx = id.index();
        if idx >= self.touched.len() {
            self.touched.resize(idx + 1, 0);
        }
        if self.touched[idx] != self.epoch {
            self.touched[idx] = self.epoch;
            self.stats.distinct_pages += 1;
        }
    }
}

thread_local! {
    /// Query state for every pool this thread has touched. A thread almost
    /// always works against one pool, so the map stays tiny.
    static QUERY_STATE: RefCell<HashMap<u64, QueryState>> = RefCell::new(HashMap::new());
}

fn with_query_state<R>(pool_id: u64, f: impl FnOnce(&mut QueryState) -> R) -> R {
    QUERY_STATE.with(|m| f(m.borrow_mut().entry(pool_id).or_default()))
}

/// Retry policy for transient read failures at fetch time.
///
/// Only [`Error::Io`] is retried: corruption ([`Error::is_corruption`])
/// means the bytes on the page are wrong and re-reading them cannot help,
/// and the remaining errors are caller mistakes. The default policy makes
/// a single attempt — retry is opt-in, because fault-injection tests rely
/// on one scheduled `IoError` producing exactly one failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total read attempts, including the first. `1` disables retry.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 1 }
    }
}

/// Registry handles, resolved once per thread so the hot path pays one
/// unshared store per event (see DESIGN.md §9 for the catalog). These are
/// the pool's only cumulative counts: a fetch is `hits` or `misses`, a
/// write-back `writebacks`. They are thread-local because each thread
/// counts into its own telemetry registry; a `telemetry::Group` adds
/// threads up.
struct PoolMetrics {
    hits: telemetry::Counter,
    misses: telemetry::Counter,
    read_errors: telemetry::Counter,
    evictions: telemetry::Counter,
    writebacks: telemetry::Counter,
    allocations: telemetry::Counter,
    frees: telemetry::Counter,
    retry_attempts: telemetry::Counter,
    retry_successes: telemetry::Counter,
    retry_exhausted: telemetry::Counter,
}

impl PoolMetrics {
    fn new() -> Self {
        PoolMetrics {
            hits: telemetry::counter("pagestore.pool.hits"),
            misses: telemetry::counter("pagestore.pool.misses"),
            read_errors: telemetry::counter("pagestore.pool.read_errors"),
            evictions: telemetry::counter("pagestore.pool.evictions"),
            writebacks: telemetry::counter("pagestore.pool.writebacks"),
            allocations: telemetry::counter("pagestore.pool.allocations"),
            frees: telemetry::counter("pagestore.pool.frees"),
            retry_attempts: telemetry::counter("pagestore.pool.retries"),
            retry_successes: telemetry::counter("pagestore.pool.retry_successes"),
            retry_exhausted: telemetry::counter("pagestore.pool.retry_exhausted"),
        }
    }
}

thread_local! {
    static POOL_METRICS: PoolMetrics = PoolMetrics::new();
}

fn metrics<R>(f: impl FnOnce(&PoolMetrics) -> R) -> R {
    POOL_METRICS.with(f)
}

/// One lock-striped partition of the frame table.
struct Shard {
    frames: HashMap<PageId, Arc<Frame>>,
    /// Per-shard LRU clock; frames stamp `last_use` from it on access.
    clock: u64,
    capacity: usize,
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// A thread-safe buffer pool: the frame table is sharded into lock-striped
/// partitions (hash on page id, per-shard LRU clock), and the backing store
/// sits behind its own mutex that is only taken on misses and write-backs.
/// Pages pin via [`PageRef`] handles and carry an optional decoded-value
/// cache for the layer above.
///
/// Lock order (see DESIGN.md §12): shard → store → frame data. A shard lock
/// is never taken while holding the store lock, and no two shard locks are
/// ever held together.
pub struct BufferPool<S: PageStore> {
    store: Mutex<S>,
    shards: Box<[Mutex<Shard>]>,
    shard_mask: u64,
    page_size: usize,
    /// Every resident frame whose `dirty` flag is set, in page-id order
    /// (which is also the order a flush writes them back in).
    dirty_pages: Arc<DirtyPages>,
    /// Distinguishes this pool's thread-local query state from other pools'.
    pool_id: u64,
    retry: Mutex<RetryPolicy>,
}

impl<S: PageStore> BufferPool<S> {
    /// Create a pool over `store` holding at most (approximately) `capacity`
    /// unpinned frames, spread over power-of-two many shards.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        // Enough shards that concurrent readers rarely collide, but never
        // more than the capacity can populate (tiny test pools get tiny
        // shard counts so eviction still triggers at the advertised size).
        let nshards = prev_power_of_two(capacity.min(64));
        let per_shard = (capacity / nshards).max(1);
        let shards = (0..nshards)
            .map(|_| {
                Mutex::new(Shard {
                    frames: HashMap::new(),
                    clock: 0,
                    capacity: per_shard,
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let page_size = store.page_size();
        BufferPool {
            store: Mutex::new(store),
            shards,
            shard_mask: (nshards - 1) as u64,
            page_size,
            dirty_pages: Arc::default(),
            pool_id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            retry: Mutex::new(RetryPolicy::default()),
        }
    }

    fn shard_for(&self, id: PageId) -> &Mutex<Shard> {
        // Fibonacci hash spreads the dense, sequential page ids the stores
        // hand out evenly across shards.
        let h = (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h & self.shard_mask) as usize]
    }

    /// Replace the fetch-time [`RetryPolicy`] (single-attempt by default).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *lock(&self.retry) = policy;
    }

    /// The fixed page size of the backing store.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of live pages in the backing store.
    pub fn live_pages(&self) -> usize {
        lock(&self.store).live_pages()
    }

    /// Start a new query *on the calling thread*: zeroes that thread's
    /// per-query counters. Every page fetched afterwards counts once
    /// towards [`QueryStats::distinct_pages`].
    pub fn begin_query(&self) {
        with_query_state(self.pool_id, |q| q.begin());
    }

    /// The calling thread's per-query counters accumulated since its last
    /// [`BufferPool::begin_query`].
    pub fn query_stats(&self) -> QueryStats {
        with_query_state(self.pool_id, |q| q.stats)
    }

    #[cfg(test)]
    fn touched_len(&self) -> usize {
        with_query_state(self.pool_id, |q| q.touched.len())
    }

    #[cfg(test)]
    fn touched_capacity(&self) -> usize {
        with_query_state(self.pool_id, |q| q.touched.capacity())
    }

    fn touch_for_query(&self, id: PageId) {
        with_query_state(self.pool_id, |q| q.touch(id));
    }

    /// Read a page, retrying transient [`Error::Io`] failures under the
    /// configured [`RetryPolicy`]. Corruption and caller errors surface
    /// immediately — see the policy docs.
    fn read_with_retry(&self, store: &mut S, id: PageId, buf: &mut [u8]) -> Result<()> {
        let retry = *lock(&self.retry);
        let mut attempt = 1u32;
        loop {
            match store.read(id, buf) {
                Ok(()) => {
                    if attempt > 1 {
                        metrics(|m| m.retry_successes.inc());
                    }
                    return Ok(());
                }
                Err(Error::Io(_)) if attempt < retry.max_attempts => {
                    metrics(|m| m.retry_attempts.inc());
                    attempt += 1;
                }
                Err(e) => {
                    if attempt > 1 {
                        metrics(|m| m.retry_exhausted.inc());
                    }
                    return Err(e);
                }
            }
        }
    }

    /// The cached frame for `id`, if resident — without counting a fetch,
    /// touching per-query state, or reading the store. Diagnostics and
    /// cache-inspection tests only.
    pub fn peek(&self, id: PageId) -> Option<PageRef> {
        let shard = lock(self.shard_for(id));
        shard
            .frames
            .get(&id)
            .cloned()
            .map(|frame| PageRef { frame })
    }

    /// Fetch a page, reading it from the store on a miss.
    ///
    /// A fetch that returns a page counts exactly once in the registry —
    /// `pagestore.pool.hits` or `pagestore.pool.misses` — and once towards
    /// the calling thread's [`QueryStats`]. A fetch whose store read fails
    /// counts towards nothing but `pagestore.pool.read_errors`: the caller
    /// never saw a page, so neither `hits`/`misses` nor the per-query
    /// counters may move.
    pub fn fetch(&self, id: PageId) -> Result<PageRef> {
        if id.is_null() {
            return Err(Error::InvalidPageId(id));
        }
        let mut shard = lock(self.shard_for(id));
        if let Some(frame) = shard.frames.get(&id).cloned() {
            shard.clock += 1;
            frame.last_use.store(shard.clock, Ordering::Relaxed);
            drop(shard);
            self.touch_for_query(id);
            metrics(|m| m.hits.inc());
            return Ok(PageRef { frame });
        }
        // Miss: read from the store while still holding the shard lock, so
        // a concurrent fetch of the same page cannot install a second frame
        // (two frames for one page would fork its contents). The store has
        // its own mutex — this nesting is the pool's canonical lock order.
        let mut data = vec![0u8; self.page_size].into_boxed_slice();
        {
            let mut store = lock(&self.store);
            if let Err(e) = self.read_with_retry(&mut store, id, &mut data) {
                metrics(|m| m.read_errors.inc());
                return Err(e);
            }
        }
        self.touch_for_query(id);
        metrics(|m| m.misses.inc());
        let frame = Arc::new(Frame {
            id,
            data: FrameData::new(data),
            dirty: AtomicBool::new(false),
            dirty_pages: self.dirty_pages.clone(),
            last_use: AtomicU64::new(0),
        });
        shard.clock += 1;
        frame.last_use.store(shard.clock, Ordering::Relaxed);
        self.insert_frame(&mut shard, id, frame.clone())?;
        Ok(PageRef { frame })
    }

    /// Allocate a fresh zeroed page and return a handle to it.
    pub fn allocate(&self) -> Result<(PageId, PageRef)> {
        let id = lock(&self.store).allocate()?;
        metrics(|m| m.allocations.inc());
        self.touch_for_query(id);
        let frame = Arc::new(Frame {
            id,
            data: FrameData::new(vec![0u8; self.page_size].into_boxed_slice()),
            dirty: AtomicBool::new(true),
            dirty_pages: self.dirty_pages.clone(),
            last_use: AtomicU64::new(0),
        });
        lock(&self.dirty_pages).insert(id);
        let mut shard = lock(self.shard_for(id));
        shard.clock += 1;
        frame.last_use.store(shard.clock, Ordering::Relaxed);
        self.insert_frame(&mut shard, id, frame.clone())?;
        Ok((id, PageRef { frame }))
    }

    /// Free a page, dropping its frame. The caller must not hold handles to
    /// it.
    pub fn free(&self, id: PageId) -> Result<()> {
        let mut shard = lock(self.shard_for(id));
        if let Some(frame) = shard.frames.remove(&id) {
            if Arc::strong_count(&frame) > 1 {
                // Put it back before failing so state stays consistent.
                shard.frames.insert(id, frame);
                return Err(Error::Corrupt(format!("freeing pinned page {id}")));
            }
        }
        lock(&self.dirty_pages).remove(&id);
        // Count the free only once the store accepts it, so a failed free
        // (e.g. an unallocated id or an I/O error) leaves stats truthful.
        lock(&self.store).free(id)?;
        metrics(|m| m.frees.inc());
        Ok(())
    }

    /// Free every live page of the store that `keep` does not name,
    /// without reading it: what a replaced tree leaves behind, or what a
    /// reopened store holds that its roots no longer reach.
    pub fn free_unreachable(&self, keep: &HashSet<PageId>) -> Result<()> {
        let live = lock(&self.store).live_page_ids();
        for id in live.into_iter().filter(|id| !keep.contains(id)) {
            self.free(id)?;
        }
        Ok(())
    }

    /// Write all dirty frames back to the store and sync it.
    pub fn flush(&self) -> Result<()> {
        self.flush_to_store_only()?;
        lock(&self.store).sync()
    }

    /// Write all dirty frames back to the store *without* syncing it
    /// (lets a [`crate::WalStore`] caller choose commit vs checkpoint).
    ///
    /// Must not be called while the calling thread holds a
    /// [`PageRef::write`] guard (it would self-deadlock on the frame's
    /// data lock). The single-writer discipline of the layers above
    /// guarantees no *other* thread holds write guards.
    pub fn flush_to_store_only(&self) -> Result<()> {
        // O(dirty), not O(resident): only the recorded ids are visited.
        let ids: Vec<PageId> = lock(&self.dirty_pages).iter().copied().collect();
        for id in ids {
            let shard = lock(self.shard_for(id));
            if let Some(frame) = shard.frames.get(&id) {
                self.write_back(id, frame)?;
            }
        }
        Ok(())
    }

    /// Write `frame` to the store if it is dirty and mark it clean. On
    /// failure the frame stays dirty and recorded, so a later flush retries
    /// it. Caller holds the frame's shard lock.
    fn write_back(&self, id: PageId, frame: &Frame) -> Result<()> {
        if !frame.dirty.load(Ordering::Relaxed) {
            return Ok(());
        }
        let data = read_lock(&frame.data);
        lock(&self.store).write(id, &data.bytes)?;
        frame.dirty.store(false, Ordering::Relaxed);
        lock(&self.dirty_pages).remove(&id);
        metrics(|m| m.writebacks.inc());
        Ok(())
    }

    /// Drop every unpinned frame, writing dirty ones back first. Later
    /// fetches must re-read from the backing store, which forces a
    /// checksum layer underneath to re-verify pages a large cache would
    /// otherwise keep serving from memory. Pinned frames survive.
    pub fn invalidate_cache(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let mut shard = lock(shard);
            let victims: Vec<PageId> = shard
                .frames
                .iter()
                .filter(|(_, f)| Arc::strong_count(f) == 1)
                .map(|(id, _)| *id)
                .collect();
            for id in victims {
                self.write_back(id, &shard.frames[&id])?;
                shard.frames.remove(&id);
            }
        }
        Ok(())
    }

    /// Consume the pool, returning the backing store. Dirty frames are NOT
    /// written back — call [`BufferPool::flush`] or
    /// [`BufferPool::flush_to_store_only`] first.
    pub fn into_store(self) -> S {
        self.store.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Caller holds the shard lock. May take the store lock to write back a
    /// victim — never the other way around.
    fn insert_frame(&self, shard: &mut Shard, id: PageId, frame: Arc<Frame>) -> Result<()> {
        while shard.frames.len() >= shard.capacity {
            if !self.evict_one(shard)? {
                break; // everything is pinned; allow temporary overflow
            }
        }
        shard.frames.insert(id, frame);
        Ok(())
    }

    fn evict_one(&self, shard: &mut Shard) -> Result<bool> {
        let victim = shard
            .frames
            .iter()
            .filter(|(_, f)| Arc::strong_count(f) == 1)
            .min_by_key(|(_, f)| f.last_use.load(Ordering::Relaxed))
            .map(|(id, _)| *id);
        let Some(id) = victim else {
            return Ok(false);
        };
        // Write back under the shard lock: once the frame leaves the map a
        // concurrent fetch would re-read the stale store copy.
        self.write_back(id, &shard.frames[&id])?;
        shard.frames.remove(&id);
        metrics(|m| m.evictions.inc());
        Ok(true)
    }

    /// Lock the backing store for direct access — e.g. to call
    /// [`crate::WalStore::commit`] on a WAL-backed pool after
    /// [`BufferPool::flush_to_store_only`], or to inject faults in tests.
    /// Mutating page contents through this handle bypasses the cache;
    /// prefer the pool's own methods.
    ///
    /// Never call this while holding it already (the mutex is not
    /// reentrant); the pool itself only takes the store lock with at most
    /// one shard lock held.
    pub fn store_lock(&self) -> MutexGuard<'_, S> {
        lock(&self.store)
    }
}

fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n > 0);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn pool(cap: usize) -> BufferPool<MemStore> {
        BufferPool::new(MemStore::new(128), cap)
    }

    // The pool's cumulative counts live in this thread's registry; tests
    // read them as deltas.

    fn misses() -> u64 {
        telemetry::counter_value("pagestore.pool.misses")
    }

    fn fetches() -> u64 {
        telemetry::counter_value("pagestore.pool.hits") + misses()
    }

    fn writebacks() -> u64 {
        telemetry::counter_value("pagestore.pool.writebacks")
    }

    fn frees() -> u64 {
        telemetry::counter_value("pagestore.pool.frees")
    }

    #[test]
    fn fetch_counts_distinct_once() {
        let p = pool(8);
        let (a, _) = p.allocate().unwrap();
        let (b, _) = p.allocate().unwrap();
        p.begin_query();
        p.fetch(a).unwrap();
        p.fetch(a).unwrap();
        p.fetch(b).unwrap();
        p.fetch(a).unwrap();
        let qs = p.query_stats();
        assert_eq!(qs.distinct_pages, 2);
        assert_eq!(qs.node_visits, 4);
    }

    #[test]
    fn begin_query_resets() {
        let p = pool(8);
        let (a, _) = p.allocate().unwrap();
        p.begin_query();
        p.fetch(a).unwrap();
        assert_eq!(p.query_stats().distinct_pages, 1);
        p.begin_query();
        assert_eq!(p.query_stats().distinct_pages, 0);
        p.fetch(a).unwrap();
        assert_eq!(p.query_stats().distinct_pages, 1);
    }

    #[test]
    fn eviction_and_reload() {
        let (writebacks0, misses0) = (writebacks(), misses());
        let p = pool(2);
        let mut ids = Vec::new();
        for i in 0..4u8 {
            let (id, page) = p.allocate().unwrap();
            page.write()[0] = i;
            ids.push(id);
        }
        // All pages were unpinned after each allocation; at least two must
        // have been evicted (written back since dirty) whichever shards the
        // four ids hashed to. Fetch them again and check.
        for (i, id) in ids.iter().enumerate() {
            let page = p.fetch(*id).unwrap();
            assert_eq!(page.read()[0], i as u8);
        }
        assert!(writebacks() - writebacks0 >= 2);
        assert!(misses() - misses0 >= 2);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(2);
        let (a, pin_a) = p.allocate().unwrap();
        pin_a.write()[0] = 77;
        // Allocate many more pages than capacity while `a` stays pinned.
        for _ in 0..8 {
            let _ = p.allocate().unwrap();
        }
        assert_eq!(pin_a.read()[0], 77);
        drop(pin_a);
        let again = p.fetch(a).unwrap();
        assert_eq!(again.read()[0], 77);
    }

    #[test]
    fn free_pinned_fails() {
        let p = pool(4);
        let (a, pin) = p.allocate().unwrap();
        assert!(p.free(a).is_err());
        drop(pin);
        p.free(a).unwrap();
        assert!(p.fetch(a).is_err());
    }

    #[test]
    fn flush_persists_dirty_pages() {
        let writebacks0 = writebacks();
        let p = pool(4);
        let (a, page) = p.allocate().unwrap();
        page.write()[5] = 99;
        drop(page);
        p.flush().unwrap();
        assert!(writebacks() - writebacks0 >= 1);
        let page = p.fetch(a).unwrap();
        assert_eq!(page.read()[5], 99);
    }

    /// A flush visits the recorded dirty pages, not the frame table: it
    /// writes exactly the pages dirtied since the last one, in page-id
    /// order, however many clean frames are resident — and a page whose
    /// write-back failed stays recorded for the next flush.
    #[test]
    fn flush_writes_exactly_the_dirtied_pages_and_retries_failures() {
        use crate::fault::{Fault, FaultStore};
        let writebacks0 = writebacks();
        let written = || writebacks() - writebacks0;
        let p = BufferPool::new(FaultStore::new(MemStore::new(128)), 1 << 10);
        let ids: Vec<PageId> = (0..300).map(|_| p.allocate().unwrap().0).collect();
        p.flush().unwrap();
        assert_eq!(written(), 300);
        p.flush().unwrap();
        assert_eq!(written(), 300, "nothing dirty, nothing written");

        for &id in &[ids[250], ids[7], ids[7], ids[120]] {
            p.fetch(id).unwrap().write()[0] = 1;
        }
        // Fail the middle one of the three write-backs.
        let handle = p.store_lock().handle();
        handle.inject(handle.ops() + 1, Fault::IoError);
        assert!(p.flush_to_store_only().is_err());
        assert_eq!(written(), 301, "page 7 went out first");
        assert!(!p.fetch(ids[7]).unwrap().is_dirty());
        assert!(p.fetch(ids[120]).unwrap().is_dirty());
        p.flush_to_store_only().unwrap();
        assert_eq!(written(), 303, "120 retried, then 250");
        assert!(lock(&p.dirty_pages).is_empty());

        // Eviction and free take a page off the record too.
        p.fetch(ids[9]).unwrap().write()[0] = 2;
        p.invalidate_cache().unwrap();
        p.fetch(ids[10]).unwrap().write()[0] = 3;
        p.free(ids[10]).unwrap();
        assert!(lock(&p.dirty_pages).is_empty());
        p.flush_to_store_only().unwrap();
        assert_eq!(written(), 304, "only the evicted page's write-back");
    }

    #[test]
    fn fetch_null_fails() {
        let p = pool(4);
        assert!(p.fetch(PageId::NULL).is_err());
    }

    #[test]
    fn failed_free_does_not_count() {
        let frees0 = frees();
        let p = pool(4);
        let (a, _) = p.allocate().unwrap();
        p.free(a).unwrap();
        assert_eq!(frees() - frees0, 1);
        // Freeing the same page again fails in the store — the counter
        // must not move (it used to be incremented before the store call).
        assert!(p.free(a).is_err());
        assert_eq!(frees() - frees0, 1);
        assert!(p.free(PageId(999)).is_err());
        assert_eq!(frees() - frees0, 1);
    }

    #[test]
    fn faulted_fetch_is_not_counted_as_access() {
        use crate::fault::{Fault, FaultStore};
        let p = BufferPool::new(FaultStore::new(MemStore::new(128)), 2);
        let (a, _) = p.allocate().unwrap();
        // Push `a` out of the pool so the next fetch must hit the store.
        p.invalidate_cache().unwrap();
        p.begin_query();
        let hits_before = telemetry::counter_value("pagestore.pool.hits");
        let misses_before = misses();
        let errors_before = telemetry::counter_value("pagestore.pool.read_errors");
        let at = p.store_lock().handle().ops();
        p.store_lock().handle().inject(at, Fault::IoError);
        assert!(p.fetch(a).is_err());
        // The failed fetch reached no page: every access statistic must be
        // unchanged, cumulative and per-query alike.
        assert_eq!(p.query_stats(), QueryStats::default());
        assert_eq!(telemetry::counter_value("pagestore.pool.hits"), hits_before);
        assert_eq!(misses(), misses_before);
        assert_eq!(
            telemetry::counter_value("pagestore.pool.read_errors"),
            errors_before + 1
        );
        // The page itself is fine; a retry succeeds and counts normally.
        p.fetch(a).unwrap();
        assert_eq!(fetches(), hits_before + misses_before + 1);
        assert_eq!(p.query_stats().node_visits, 1);
    }

    #[test]
    fn stats_stay_monotonic_across_crash_and_recovery() {
        use crate::fault::{Fault, FaultStore};
        let p = BufferPool::new(FaultStore::new(MemStore::new(128)), 2);
        let mut ids = Vec::new();
        for i in 0..4u8 {
            let (id, page) = p.allocate().unwrap();
            page.write()[0] = i;
            ids.push(id);
        }
        // Make sure nothing is cached so fetches hit the faulted store.
        p.flush_to_store_only().unwrap();
        p.invalidate_cache().unwrap();
        // (fetches, misses, write-backs)
        let counts = || (fetches(), misses(), writebacks());
        let pre_crash = counts();
        let at = p.store_lock().handle().ops();
        p.store_lock().handle().inject(at, Fault::Crash);
        // Everything fails while crashed; counters must not move backwards
        // (or at all — no page access completes).
        assert!(p.fetch(ids[0]).is_err() || p.fetch(ids[1]).is_err());
        let crashed = counts();
        assert!(crashed.0 >= pre_crash.0);
        assert_eq!(crashed.1, pre_crash.1);
        // "Repair the disk" and recover: counters resume from where they
        // were, still monotonic.
        p.store_lock().handle().clear_faults();
        for (i, id) in ids.iter().enumerate() {
            let page = p.fetch(*id).unwrap();
            assert_eq!(page.read()[0], i as u8);
        }
        let recovered = counts();
        assert!(recovered.0 > crashed.0);
        assert!(recovered.1 >= crashed.1);
        assert!(recovered.2 >= crashed.2);
    }

    #[test]
    fn retry_policy_recovers_transient_io_error() {
        use crate::fault::{Fault, FaultStore};
        let p = BufferPool::new(FaultStore::new(MemStore::new(128)), 2);
        p.set_retry_policy(RetryPolicy { max_attempts: 3 });
        let (a, page) = p.allocate().unwrap();
        page.write()[0] = 42;
        drop(page);
        // Evict `a` so the next fetch must hit the store.
        p.flush_to_store_only().unwrap();
        p.invalidate_cache().unwrap();
        let attempts_before = telemetry::counter_value("pagestore.pool.retries");
        let successes_before = telemetry::counter_value("pagestore.pool.retry_successes");
        let at = p.store_lock().handle().ops();
        p.store_lock().handle().inject(at, Fault::IoError);
        // One-shot fault: the first attempt fails, the retry succeeds.
        let page = p.fetch(a).unwrap();
        assert_eq!(page.read()[0], 42);
        assert_eq!(
            telemetry::counter_value("pagestore.pool.retries"),
            attempts_before + 1
        );
        assert_eq!(
            telemetry::counter_value("pagestore.pool.retry_successes"),
            successes_before + 1
        );
    }

    #[test]
    fn retry_policy_gives_up_after_max_attempts() {
        use crate::fault::{Fault, FaultStore};
        let p = BufferPool::new(FaultStore::new(MemStore::new(128)), 2);
        p.set_retry_policy(RetryPolicy { max_attempts: 2 });
        let (a, _) = p.allocate().unwrap();
        p.invalidate_cache().unwrap();
        let exhausted_before = telemetry::counter_value("pagestore.pool.retry_exhausted");
        let at = p.store_lock().handle().ops();
        p.store_lock().handle().inject(at, Fault::IoError);
        p.store_lock().handle().inject(at + 1, Fault::IoError);
        assert!(p.fetch(a).is_err());
        assert_eq!(
            telemetry::counter_value("pagestore.pool.retry_exhausted"),
            exhausted_before + 1
        );
    }

    #[test]
    fn corruption_is_never_retried() {
        use crate::checksum::{ChecksumStore, TRAILER_LEN};
        let p = BufferPool::new(ChecksumStore::new(MemStore::new(128 + TRAILER_LEN)), 2);
        p.set_retry_policy(RetryPolicy { max_attempts: 5 });
        let (a, page) = p.allocate().unwrap();
        page.write()[0] = 1;
        drop(page);
        p.flush().unwrap();
        p.invalidate_cache().unwrap();
        // Damage the raw page below the checksum layer.
        let mut full = vec![0u8; 128 + TRAILER_LEN];
        p.store_lock().inner_mut().read(a, &mut full).unwrap();
        full[0] ^= 0xFF;
        p.store_lock().inner_mut().write(a, &full).unwrap();
        let attempts_before = telemetry::counter_value("pagestore.pool.retries");
        match p.fetch(a) {
            Err(e) => assert!(e.is_corruption()),
            Ok(_) => panic!("fetch of damaged page must fail"),
        }
        assert_eq!(
            telemetry::counter_value("pagestore.pool.retries"),
            attempts_before,
            "corruption must surface without a retry"
        );
    }

    #[test]
    fn invalidate_cache_forces_reread_and_keeps_pins() {
        let p = pool(8);
        let (a, page) = p.allocate().unwrap();
        page.write()[0] = 7;
        drop(page);
        let (b, pin_b) = p.allocate().unwrap();
        pin_b.write()[0] = 8;
        let reads_before = misses();
        p.invalidate_cache().unwrap();
        // `a` was dropped (after a writeback); fetching re-reads it.
        let page = p.fetch(a).unwrap();
        assert_eq!(page.read()[0], 7);
        assert_eq!(misses(), reads_before + 1);
        // The pinned frame survived untouched.
        assert_eq!(pin_b.read()[0], 8);
        drop(pin_b);
        let page = p.fetch(b).unwrap();
        assert_eq!(page.read()[0], 8);
    }

    #[test]
    fn begin_query_sheds_oversized_touched_bitmap() {
        let p = pool(4);
        let mut ids = Vec::new();
        for _ in 0..TOUCHED_RETAIN_LIMIT + 100 {
            ids.push(p.allocate().unwrap().0);
        }
        p.begin_query();
        for &id in &ids {
            p.fetch(id).unwrap();
        }
        assert!(p.touched_len() > TOUCHED_RETAIN_LIMIT);
        assert_eq!(p.query_stats().distinct_pages, ids.len() as u64);
        p.begin_query();
        assert!(
            p.touched_capacity() <= TOUCHED_RETAIN_LIMIT,
            "begin_query must release an oversized touched bitmap"
        );
        // Accounting still works after the shed.
        p.fetch(ids[0]).unwrap();
        p.fetch(ids[0]).unwrap();
        assert_eq!(p.query_stats().distinct_pages, 1);
        assert_eq!(p.query_stats().node_visits, 2);
    }

    #[test]
    fn query_stats_are_per_thread() {
        let p = Arc::new(pool(8));
        let (a, _) = p.allocate().unwrap();
        let (b, _) = p.allocate().unwrap();
        p.begin_query();
        p.fetch(a).unwrap();
        let p2 = p.clone();
        std::thread::spawn(move || {
            // A fresh thread starts with zeroed query state and its
            // fetches must not leak into the spawner's counters.
            p2.begin_query();
            assert_eq!(p2.query_stats(), QueryStats::default());
            p2.fetch(a).unwrap();
            p2.fetch(b).unwrap();
            assert_eq!(p2.query_stats().distinct_pages, 2);
        })
        .join()
        .unwrap();
        assert_eq!(p.query_stats().distinct_pages, 1);
        assert_eq!(p.query_stats().node_visits, 1);
    }

    #[test]
    fn decode_cache_roundtrip_and_invalidation() {
        let p = pool(8);
        let (a, page) = p.allocate().unwrap();
        page.write()[0] = 5;
        let decoded: Arc<u8> = page
            .read()
            .get_or_decode::<u8, (), _>(|b| Ok(b[0]))
            .unwrap();
        assert_eq!(*decoded, 5);
        assert!(page.has_decoded());
        // A second fetch sees the cached value without re-decoding.
        let again = p.fetch(a).unwrap();
        let hit: Arc<u8> = again
            .read()
            .get_or_decode::<u8, (), _>(|_| panic!("must not re-decode"))
            .unwrap();
        assert_eq!(*hit, 5);
        // Writing invalidates the cached decode.
        again.write()[0] = 9;
        assert!(!again.has_decoded());
        let fresh: Arc<u8> = again
            .read()
            .get_or_decode::<u8, (), _>(|b| Ok(b[0]))
            .unwrap();
        assert_eq!(*fresh, 9);
    }

    /// Regression for the single-threaded pool's borrow-across-call hazard
    /// (`bump` used to hold a `RefCell` borrow while eviction re-entered the
    /// frame map). Under the sharded pool the equivalent bug would be a
    /// deadlock between the shard lock and the store lock; hammering one
    /// tiny pool from several threads while evictions and write-backs race
    /// must finish and keep every page's contents intact.
    #[test]
    fn concurrent_fetch_evict_no_deadlock() {
        let p = Arc::new(pool(4));
        let mut ids = Vec::new();
        for i in 0..32u8 {
            let (id, page) = p.allocate().unwrap();
            page.write()[0] = i;
            ids.push(id);
        }
        p.flush_to_store_only().unwrap();
        let ids = Arc::new(ids);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = p.clone();
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..2000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x as usize) % ids.len();
                    let page = p.fetch(ids[i]).unwrap();
                    assert_eq!(page.read()[0], i as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
