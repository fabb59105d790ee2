//! The durable tier: a [`Database`] over the file-backed, WAL-protected
//! page-store stack.
//!
//! A [`DiskDatabase`] lives in one directory:
//!
//! | file             | contents                                            |
//! |------------------|-----------------------------------------------------|
//! | `pages.db`       | every page: the meta page, the index B-tree and the object B-tree ([`pagestore::FileStore`], checksummed trailers) |
//! | `wal.log`        | write-ahead log over the page file                   |
//!
//! **One durability domain.** Objects live in pages of the same store,
//! through the same buffer pool and the same WAL as the index (an
//! OID-keyed tree of their own, see `objtree`). Page 0 is the **meta
//! page**: the [`DiskOptions`] the database was created with, and the root
//! and length of both trees. The object tree's header record holds the
//! definitions — schema, class codes and index specs, as the catalog's
//! records ([`crate::catalog`]) — and is their only durable copy: the index
//! tree holds index entries only. A commit re-encodes the objects the
//! mutators touched into their pages, rewrites the header if a definition
//! changed, rewrites the meta page if a root or length moved, flushes the
//! dirty frames into the WAL and appends one commit marker — which makes
//! objects, index and meta page durable together, or none of them. What a
//! commit writes is proportional to what changed, not to the database, and
//! between checkpoints it goes to `wal.log` alone (a commit that allocates
//! a page also extends `pages.db`: the checksum layer stamps each slot it
//! hands out).
//!
//! **Liveness is reachability.** No file records which pages are free: a
//! page is live iff the committed meta page reaches it — page 0, and the
//! pages of the two trees it roots. A freed page stays in the WAL overlay
//! until the next checkpoint, which only then frees its slot for reuse (the
//! slot keeps its old bytes until it is); a reopen finds every slot of the
//! file live and frees what the roots do not reach.
//!
//! Group commit batches the WAL fsyncs
//! ([`pagestore::WalStore::set_group_commit`]), and every
//! `checkpoint_every` commits the log is checkpointed into the page file
//! so it stays short. That commit's marker is the checkpoint's own: one
//! marker and one log fsync before the first page-file write, then the
//! page writes, one data fsync of `pages.db`, and the log truncate.
//!
//! **Open** replays the log, checkpoints, scrubs every page's checksum,
//! reads the meta page (which sizes the buffer pool), loads the object
//! store and the definitions from the object tree, attaches the index tree
//! with the header's class codes and index specs and verifies it, then
//! frees every page that neither tree nor the meta page reaches.
//!
//! **Garbage.** A slot no root reaches may hold anything: an old image, a
//! stamp torn by a power loss past the last sync, the wreck of a replaced
//! index. Scrub damage there is not a reason to rebuild: the open frees the
//! slot with the rest and reports clean.
//!
//! **Salvage.** The index is derived data: scrub damage the index tree
//! reaches, or a failed verification, rebuild it from the objects —
//! without reading a page of the old tree — into fresh pages of the same
//! store, under the header's class codes and specs (the meta page switches
//! roots in one commit, then the wreck is freed). The objects and the
//! header are not derived from anything: a damaged meta page or object
//! page is a typed error.

use std::collections::HashSet;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use btree::{BTree, BTreeConfig, Capacity};
use objstore::ObjectStore;
use pagestore::disk as pdisk;
use pagestore::{
    BufferPool, PageId, PageStore, RecoveryReport, RetryPolicy, ScrubReport, Scrubbable,
};
use schema::{Encoding, Schema};

use crate::db::{build_index, CheckReport, Database};
use crate::error::{Error, Result};
use crate::index::UIndex;
use crate::objtree::ObjectTree;

/// The page-store stack under a [`DiskDatabase`]'s index.
pub type DiskStore = pdisk::DiskStack;

/// `4`: the object tree's header is the only copy of the definitions, and
/// the index tree holds index entries only. A directory of a layout before
/// it (`3`, definitions in the index tree's catalog as well) is refused as
/// a bad magic; no reader for it is kept.
const META_PAGE_MAGIC: &[u8; 8] = b"UIDXMET4";

/// The WAL-protected meta page: create-time options, roots and lengths of
/// both trees.
const META_PAGE: PageId = PageId(0);

/// Tuning knobs for a [`DiskDatabase`], fixed at create time and recorded
/// in its meta page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskOptions {
    /// Exposed page size (the B-tree's view; the file adds the checksum
    /// trailer below). One below [`pagestore::PAGE_SIZE_MIN`] is refused
    /// at create, before the directory is touched.
    pub page_size: usize,
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Index B-tree configuration.
    pub config: BTreeConfig,
    /// Fsync the WAL every this many commits (1 = every commit).
    pub group_commit: u32,
    /// Checkpoint the WAL into the page file every this many commits
    /// (0 = only on explicit [`DiskDatabase::checkpoint`]/close).
    pub checkpoint_every: u32,
}

impl Default for DiskOptions {
    fn default() -> Self {
        DiskOptions {
            page_size: 1024,
            pool_pages: 1 << 16,
            config: BTreeConfig::default(),
            group_commit: 8,
            checkpoint_every: 64,
        }
    }
}

/// What [`DiskDatabase::open`] found while bringing the store up: WAL
/// replay, checksum scrub, and whether the index had to be rebuilt from
/// the objects.
#[derive(Debug)]
pub struct OpenReport {
    /// WAL replay outcome (None only if the log was missing entirely).
    pub recovery: Option<RecoveryReport>,
    /// Checksum scrub over the page file after replay + checkpoint. When
    /// no root reaches any damaged slot, the damage is garbage the open
    /// frees, and its errors are dropped from here.
    pub scrub: ScrubReport,
    /// Whether the index was rebuilt from the object pages (scrub damage
    /// outside them, or failed verification).
    pub rebuilt: bool,
}

impl OpenReport {
    /// Whether the store came up from its own files, no salvage needed.
    pub fn clean(&self) -> bool {
        !self.rebuilt && self.scrub.clean()
    }
}

/// A [`Database`] over [`DiskStore`] plus the directory bookkeeping that
/// makes it durable. Dereferences to the inner [`Database`] for all
/// querying, mutation and schema evolution; mutations become durable at
/// the next [`DiskDatabase::commit`] (or [`DiskDatabase::checkpoint`]) —
/// dropping the handle without committing loses everything since the
/// last commit, exactly like a crash.
pub struct DiskDatabase {
    db: Database<DiskStore>,
    /// The object store's pages, in the pool the index lives in.
    objects: ObjectTree<DiskStore>,
    dir: PathBuf,
    options: DiskOptions,
    commits_since_checkpoint: u32,
}

impl Deref for DiskDatabase {
    type Target = Database<DiskStore>;
    fn deref(&self) -> &Self::Target {
        &self.db
    }
}

impl DerefMut for DiskDatabase {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.db
    }
}

/// The meta page's content. Laid out as the magic, the two lengths
/// (`u64`), the two roots and the five numbers of the options (`u32`,
/// the capacity as its bound), the capacity kind and the compression flag
/// (`u8`), then a CRC-32 over all of it; little-endian throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MetaPage {
    index_root: PageId,
    index_len: u64,
    object_root: PageId,
    object_len: u64,
    options: DiskOptions,
}

impl MetaPage {
    const LEN: usize = 8 + 2 * 8 + 7 * 4 + 2 + 4;

    fn encode(&self) -> [u8; Self::LEN] {
        let o = &self.options;
        let (kind, cap) = match o.config.capacity {
            Capacity::Bytes => (0, 0),
            Capacity::Entries(m) => (1, m as u32),
        };
        let mut w = [0u8; Self::LEN];
        w[..8].copy_from_slice(META_PAGE_MAGIC);
        for (i, len) in [self.index_len, self.object_len].into_iter().enumerate() {
            w[8 + 8 * i..][..8].copy_from_slice(&len.to_le_bytes());
        }
        let words = [
            self.index_root.0,
            self.object_root.0,
            o.page_size as u32,
            o.pool_pages as u32,
            cap,
            o.group_commit,
            o.checkpoint_every,
        ];
        for (i, word) in words.into_iter().enumerate() {
            w[24 + 4 * i..][..4].copy_from_slice(&word.to_le_bytes());
        }
        w[52] = kind;
        w[53] = o.config.front_compression.into();
        let crc = pagestore::crc32(&w[..Self::LEN - 4]);
        w[Self::LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        w
    }

    /// Decode page 0 as read from the store: the page size recorded must
    /// be the length of `data`.
    fn decode(data: &[u8]) -> Result<Self> {
        let corrupt =
            |what: &str| Error::Page(pagestore::Error::Corrupt(format!("meta page: {what}")));
        if data.len() < Self::LEN || &data[..8] != META_PAGE_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let (body, crc) = data[..Self::LEN].split_at(Self::LEN - 4);
        if pagestore::crc32(body).to_le_bytes() != crc {
            return Err(corrupt("failed its CRC"));
        }
        let [index_len, object_len] =
            std::array::from_fn(|i| u64::from_le_bytes(body[8 + 8 * i..][..8].try_into().unwrap()));
        let [index_root, object_root, page_size, pool_pages, cap, group_commit, checkpoint_every] =
            std::array::from_fn(|i| u32::from_le_bytes(body[24 + 4 * i..][..4].try_into().unwrap()));
        let capacity = match body[52] {
            0 => Capacity::Bytes,
            1 => Capacity::Entries(cap as usize),
            _ => return Err(corrupt("unknown capacity kind")),
        };
        if page_size as usize != data.len() {
            return Err(corrupt("records a page size other than the store's"));
        }
        Ok(MetaPage {
            index_root: PageId(index_root),
            index_len,
            object_root: PageId(object_root),
            object_len,
            options: DiskOptions {
                page_size: page_size as usize,
                pool_pages: pool_pages as usize,
                config: BTreeConfig {
                    capacity,
                    front_compression: body[53] != 0,
                    ..BTreeConfig::default()
                },
                group_commit,
                checkpoint_every,
            },
        })
    }
}

// The smallest page a store accepts holds the meta page.
const _: () = assert!(MetaPage::LEN <= pagestore::PAGE_SIZE_MIN);

/// The pages `scrub` found damaged; None if an error names no page.
fn damaged_pages(scrub: &ScrubReport) -> Option<HashSet<PageId>> {
    scrub
        .errors
        .iter()
        .map(|e| match e {
            pagestore::Error::Corruption { page, .. } => Some(*page),
            _ => None,
        })
        .collect()
}

fn fresh_disk_pool(stack: DiskStore, pool_pages: usize) -> BufferPool<DiskStore> {
    let pool = BufferPool::new(stack, pool_pages);
    pool.set_retry_policy(RetryPolicy { max_attempts: 3 });
    pool
}

impl DiskDatabase {
    // ----- create ---------------------------------------------------------

    /// Create a fresh on-disk database in `dir` (created if missing; any
    /// existing store there is truncated). Ends with a checkpoint, so a
    /// crash immediately after returns an openable, empty database.
    pub fn create(schema: Schema, dir: &Path, options: DiskOptions) -> Result<Self> {
        let encoding = Encoding::generate(&schema)?;
        let mut stack = pdisk::create(dir, options.page_size)?;
        stack.set_group_commit(options.group_commit);
        let pool = Arc::new(fresh_disk_pool(stack, options.pool_pages));
        let (meta_id, page) = pool.allocate()?;
        drop(page);
        debug_assert_eq!(meta_id, META_PAGE, "meta page must be the first allocation");
        let index = UIndex::new(pool.clone(), options.config, encoding)?;
        let objects = ObjectTree::create(pool)?;
        let mut this = Self::assemble(ObjectStore::new(schema), index, objects, dir, options);
        this.checkpoint()?;
        Ok(this)
    }

    fn assemble(
        store: ObjectStore,
        index: UIndex<DiskStore>,
        objects: ObjectTree<DiskStore>,
        dir: &Path,
        options: DiskOptions,
    ) -> Self {
        DiskDatabase {
            db: Database::from_raw_parts(store, index, options.config),
            objects,
            dir: dir.to_path_buf(),
            options,
            commits_since_checkpoint: 0,
        }
    }

    // ----- open -----------------------------------------------------------

    /// Open an existing on-disk database: replay the WAL, checkpoint the
    /// replayed state, scrub every page's checksum, read the options from
    /// the meta page, load the objects and the definitions from their
    /// pages and verify the index tree before serving. Damage to the index
    /// — scrub errors on pages it reaches, a failed verification —
    /// triggers a rebuild from the objects instead of failing; damage to
    /// the meta page or an object page is an error, and a directory
    /// without a `pages.db` is [`Error::NotADatabase`]. Last, every page
    /// that neither tree nor the meta page reaches is freed, unread —
    /// damaged ones included.
    pub fn open(dir: &Path) -> Result<(Self, OpenReport)> {
        let mut stack = pdisk::open(dir).map_err(|e| match e {
            pagestore::Error::Io(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Error::NotADatabase(dir.to_path_buf())
            }
            e => Error::Page(e),
        })?;
        let recovery = stack.recovery().copied();
        // Make the replayed state durable in the page file, then scrub it.
        stack.checkpoint()?;
        let scrub = stack.scrub_pages();
        let mut page = vec![0u8; stack.page_size()];
        stack.read(META_PAGE, &mut page)?;
        let meta = MetaPage::decode(&page)?;
        let options = meta.options;
        stack.set_group_commit(options.group_commit);
        let mut report = OpenReport {
            recovery,
            scrub,
            rebuilt: false,
        };

        let pool = Arc::new(fresh_disk_pool(stack, options.pool_pages));
        let mut objects = ObjectTree::open(pool.clone(), meta.object_root, meta.object_len);
        objects.verify()?;
        let (store, encoding, specs) = objects.load()?;
        let tree = BTree::open(
            pool.clone(),
            options.config,
            meta.index_root,
            meta.index_len,
        );
        let index = UIndex::from_parts(tree, encoding, specs);

        // With the objects safe, whatever the scrub flagged is index or
        // garbage. A walk of the index that stops short of every damaged
        // page tells the two apart: garbage is freed below with the rest;
        // damage the index reaches rebuilds it, and then no page of the old
        // index is read at all.
        if !report.scrub.clean()
            && damaged_pages(&report.scrub)
                .is_some_and(|damaged| matches!(index.tree().reaches(&damaged), Ok(false)))
        {
            report.scrub.errors.clear();
        }
        let sound = report.scrub.clean() && index.verify().is_ok();
        let this = if sound {
            let this = Self::assemble(store, index, objects, dir, options);
            this.free_unreachable()?;
            this
        } else {
            let (encoding, specs) = (index.encoding().clone(), index.specs().to_vec());
            let index = build_index(&pool, options.config, encoding, &store, specs)?;
            let mut this = Self::assemble(store, index, objects, dir, options);
            this.adopt_rebuilt_index()?;
            report.rebuilt = true;
            this
        };
        Ok((this, report))
    }

    fn pool(&self) -> &BufferPool<DiskStore> {
        self.db.index().tree().pool()
    }

    /// Free every live page that neither tree nor the meta page reaches,
    /// without reading it.
    fn free_unreachable(&self) -> Result<()> {
        let mut keep: HashSet<PageId> = self.objects.page_ids()?.into_iter().collect();
        keep.extend(self.db.index().tree().page_ids()?);
        keep.insert(META_PAGE);
        Ok(self.pool().free_unreachable(&keep)?)
    }

    /// Make a just-built index tree the durable one: one checkpoint
    /// switches the meta page's root to it (objects and header in step),
    /// then every page the new roots do not reach — the old index,
    /// whatever state it was in — is freed without being read, and a
    /// second checkpoint makes the frees durable. A crash before the first
    /// leaves the old roots; a crash before the second leaves the wreck
    /// unreachable, and the next open frees it as garbage.
    fn adopt_rebuilt_index(&mut self) -> Result<()> {
        telemetry::counter("uindex.disk.rebuilds").inc();
        self.checkpoint()?;
        self.free_unreachable()?;
        self.force_checkpoint()
    }

    // ----- durability -----------------------------------------------------

    /// Bring the pages up to date with the logical state and flush them
    /// into the WAL overlay: the touched objects' records, the header if a
    /// definition changed (it is encoded only when the schema's or the
    /// encoding's stamp or the spec count moved since its last write), the
    /// meta page if a root or length moved. The caller follows with a WAL
    /// commit or checkpoint — until then none of it is durable.
    fn stage(&mut self) -> Result<()> {
        self.objects
            .sync_objects(self.db.store(), &self.db.touched())?;
        self.db.clear_touched();
        let index = self.db.index();
        if self
            .objects
            .sync_header(self.db.schema(), index.encoding(), index.specs())?
        {
            telemetry::counter("uindex.disk.definition_syncs").inc();
        }
        let tree = self.db.index().tree();
        let meta = MetaPage {
            options: self.options,
            index_root: tree.root(),
            index_len: tree.len(),
            object_root: self.objects.root(),
            object_len: self.objects.len(),
        }
        .encode();
        let page = self.pool().fetch(META_PAGE)?;
        if page.read()[..MetaPage::LEN] != meta {
            page.write()[..MetaPage::LEN].copy_from_slice(&meta);
        }
        drop(page);
        Ok(self.pool().flush_to_store_only()?)
    }

    /// Make everything since the last commit durable (subject to the
    /// group-commit fsync policy; see [`DiskDatabase::sync`] to force the
    /// fsync). Every `checkpoint_every`-th commit also checkpoints: its
    /// staged batch goes to the checkpoint, whose commit marker is the
    /// only one it appends and whose one log fsync makes it durable before
    /// any page-file write.
    pub fn commit(&mut self) -> Result<()> {
        self.stage()?;
        let every = self.options.checkpoint_every;
        if every > 0 && self.commits_since_checkpoint + 1 >= every {
            self.force_checkpoint()?;
        } else {
            self.pool().store_lock().commit()?;
            self.commits_since_checkpoint += 1;
        }
        telemetry::counter("uindex.disk.commits").inc();
        Ok(())
    }

    /// Force the WAL fsync for any commits still pending one under group
    /// commit.
    pub fn sync(&mut self) -> Result<()> {
        Ok(self.pool().store_lock().sync_log()?)
    }

    /// Commit and checkpoint: apply the WAL overlay to the page file,
    /// fsync everything, truncate the log.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.stage()?;
        self.force_checkpoint()
    }

    fn force_checkpoint(&mut self) -> Result<()> {
        self.pool().store_lock().checkpoint()?;
        telemetry::counter("uindex.disk.checkpoints").inc();
        self.commits_since_checkpoint = 0;
        Ok(())
    }

    /// Checkpoint and consume the handle — the clean way to close.
    pub fn close(mut self) -> Result<()> {
        self.checkpoint()
    }

    /// [`Database::check`] on the durable tier: checkpoint first — the
    /// scrub reads the page file, and whatever it makes durable on the way
    /// must be a whole commit, objects included — then scrub every page
    /// (index and objects alike), verify the index tree and cross-check its
    /// entries against the object store.
    pub fn check(&mut self) -> Result<CheckReport> {
        self.checkpoint()?;
        self.db.check()
    }

    /// Rebuild the index in place from the object store (the disk tier's
    /// [`Database::repair`]): every index is bulk-loaded into fresh pages of
    /// the same store, verified, made durable with the current objects in
    /// one checkpoint, and only then is the old tree freed — unread.
    /// Returns the number of entries loaded. Readers taken from the old
    /// index keep pointing at it: take new ones.
    pub fn repair(&mut self) -> Result<u64> {
        let n = self.db.rebuild_index()?;
        self.adopt_rebuilt_index()?;
        Ok(n)
    }

    // ----- accessors ------------------------------------------------------

    /// The directory this database lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the store was created with.
    pub fn options(&self) -> &DiskOptions {
        &self.options
    }

    /// The pages holding the definitions — the object tree's header
    /// record — in key order (diagnostic: a commit that changes no
    /// definition writes none of them).
    pub fn header_pages(&self) -> Result<Vec<PageId>> {
        self.objects.header_pages()
    }

    /// Every page of the object tree, root first (diagnostic: with page 0
    /// and the index tree's pages, that is every live page after an open).
    pub fn object_pages(&self) -> Result<Vec<PageId>> {
        self.objects.page_ids()
    }

    /// A clonable handle onto the on-disk stack's fault-injection
    /// schedule — the live chaos channel for crash/degradation drills.
    /// Faults land below the checksum layer (above the file), so injected
    /// silent damage is detected exactly like real bit rot.
    pub fn fault_handle(&self) -> pagestore::FaultHandle {
        pdisk::fault_handle(&self.pool().store_lock())
    }
}

impl Database {
    /// Create a file-backed database in `dir` — see [`DiskDatabase`].
    pub fn create_on_disk(
        schema: Schema,
        dir: &Path,
        options: DiskOptions,
    ) -> Result<DiskDatabase> {
        DiskDatabase::create(schema, dir, options)
    }

    /// Open a file-backed database — see [`DiskDatabase::open`].
    pub fn open_on_disk(dir: &Path) -> Result<(DiskDatabase, OpenReport)> {
        DiskDatabase::open(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_page_roundtrip_and_damage() {
        let small = DiskOptions {
            page_size: 256,
            pool_pages: 32,
            config: BTreeConfig::with_max_entries(10).without_compression(),
            group_commit: 1,
            checkpoint_every: 0,
        };
        for options in [DiskOptions::default(), small] {
            let meta = MetaPage {
                index_root: PageId(1),
                index_len: 77,
                object_root: PageId(2),
                object_len: 5,
                options,
            };
            let mut page = vec![0u8; options.page_size];
            page[..MetaPage::LEN].copy_from_slice(&meta.encode());
            assert_eq!(MetaPage::decode(&page).unwrap(), meta);
            for byte in 8..MetaPage::LEN {
                let mut damaged = page.clone();
                damaged[byte] ^= 1;
                assert!(MetaPage::decode(&damaged).is_err(), "CRC: flip at {byte}");
            }
            assert!(MetaPage::decode(&page[..128]).is_err(), "other page size");
        }
        assert!(
            MetaPage::decode(&[0u8; 256]).is_err(),
            "a zeroed page has no magic"
        );
    }
}
