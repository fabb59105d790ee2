//! The object base in pages: an OID-keyed B+-tree beside the index tree.
//!
//! [`ObjectTree`] owns the codec and a handle on the buffer pool the index
//! lives in too, so objects, index and meta page move through one WAL and
//! become durable with one commit marker. It shares no page with the index
//! tree: salvage loads every object without reading an index page.
//!
//! Entries (ordinary B-tree entries; a record too long for one entry
//! continues in the next ones):
//!
//! ```text
//! key   := [tag u8][oid u32 BE]            first part of a record
//!        | [tag u8][oid u32 BE][seq u16 BE] part seq >= 1
//! value := that part of the record's bytes
//!
//! tag 0, oid 0   the header: [len u32][schema section][index spec list]
//! tag 1          one object: `ObjectStore::record_bytes`
//! ```
//!
//! The header is the object side's own copy of schema and index
//! definitions — what a rebuild of the index reads instead of the in-tree
//! catalog it may not trust.

use std::sync::Arc;

use btree::{BTree, BTreeConfig};
use objstore::{ObjectStore, Oid, RecordLoader};
use pagestore::{BufferPool, PageId, PageStore};
use schema::{Schema, Stamp};

use crate::catalog;
use crate::error::{Error, Result};
use crate::spec::IndexSpec;

const TAG_HEADER: u8 = 0;
const TAG_OBJECT: u8 = 1;
/// Longest key: tag, OID and a part number.
const KEY_MAX: usize = 1 + 4 + 2;

fn corrupt(what: &str) -> Error {
    Error::Page(pagestore::Error::Corrupt(format!("object pages: {what}")))
}

fn part_key(tag: u8, oid: u32, seq: usize) -> Vec<u8> {
    let mut k = Vec::with_capacity(KEY_MAX);
    k.push(tag);
    k.extend_from_slice(&oid.to_be_bytes());
    if seq > 0 {
        k.extend_from_slice(&(seq as u16).to_be_bytes());
    }
    k
}

/// `(tag, oid, seq)` of an entry key.
fn parse_key(k: &[u8]) -> Result<(u8, u32, usize)> {
    let seq = match k.len() {
        5 => 0,
        KEY_MAX => match u16::from_be_bytes([k[5], k[6]]) {
            0 => return Err(corrupt("part 0 carries no part number")),
            seq => seq as usize,
        },
        _ => return Err(corrupt("bad key length")),
    };
    Ok((k[0], u32::from_be_bytes(k[1..5].try_into().unwrap()), seq))
}

fn encode_header(schema: &Schema, specs: &[IndexSpec]) -> Vec<u8> {
    let section = objstore::schema_to_bytes(schema);
    let mut out = (section.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&section);
    out.extend_from_slice(&catalog::encode_spec_list(specs));
    out
}

fn decode_header(bytes: &[u8]) -> Result<(Schema, Vec<IndexSpec>)> {
    let len = bytes.get(..4).ok_or_else(|| corrupt("truncated header"))?;
    let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
    let rest = &bytes[4..];
    if len > rest.len() {
        return Err(corrupt("truncated header"));
    }
    let (section, specs) = rest.split_at(len);
    Ok((
        objstore::schema_from_bytes(section)?,
        catalog::decode_spec_list(specs)?,
    ))
}

/// The object store's on-page form. See the module docs.
pub(crate) struct ObjectTree<S: PageStore> {
    tree: BTree<S>,
    /// The header record as last written or loaded: a commit rewrites it
    /// only when schema or index definitions changed.
    header: Vec<u8>,
    /// Schema stamp and spec count of the definitions
    /// [`ObjectTree::sync_header`] last wrote; `None` until it first
    /// succeeds on this value, so a fresh or reopened tree compares by value.
    header_stamps: Option<(Stamp, usize)>,
}

impl<S: PageStore> ObjectTree<S> {
    /// OIDs arrive ascending, so leaves fill; capacity is in bytes whatever
    /// the index tree was configured with.
    fn config() -> BTreeConfig {
        BTreeConfig::default().with_append_split()
    }

    /// An empty tree (no header yet) in `pool`.
    pub fn create(pool: Arc<BufferPool<S>>) -> Result<Self> {
        Ok(ObjectTree {
            tree: BTree::create(pool, Self::config())?,
            header: Vec::new(),
            header_stamps: None,
        })
    }

    /// Attach to the tree the meta page names.
    pub fn open(pool: Arc<BufferPool<S>>, root: PageId, len: u64) -> Self {
        ObjectTree {
            tree: BTree::open(pool, Self::config(), root, len),
            header: Vec::new(),
            header_stamps: None,
        }
    }

    pub fn root(&self) -> PageId {
        self.tree.root()
    }

    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// Every page the tree owns.
    pub fn page_ids(&self) -> Result<Vec<PageId>> {
        Ok(self.tree.page_ids()?)
    }

    /// Read and structurally check every page of the tree.
    pub fn verify(&self) -> Result<()> {
        self.tree.verify()?;
        Ok(())
    }

    /// Store each `(tag, oid, bytes)` (ascending) as a record, in as many
    /// parts as it needs, replacing whatever parts it had; no bytes, no
    /// record.
    fn put(&mut self, records: &[(u8, u32, Vec<u8>)]) -> Result<()> {
        let part = self.tree.max_entry_size() - KEY_MAX;
        let mut items = Vec::with_capacity(records.len());
        for (tag, oid, bytes) in records {
            if bytes.len().div_ceil(part) > usize::from(u16::MAX) {
                return Err(Error::BadSpec(format!(
                    "object {oid} of {} bytes is too large to store",
                    bytes.len()
                )));
            }
            for (seq, chunk) in bytes.chunks(part).enumerate() {
                items.push((part_key(*tag, *oid, seq), chunk.to_vec()));
            }
        }
        // Every part but a record's last is full, so the part a write
        // replaces tells whether the old record went on: the common case
        // (one short part over another) never looks for stale parts.
        let mut replaced_full = vec![false; items.len()];
        self.tree.upsert_sorted(&items, |item, old| {
            replaced_full[item] = old.len() == part;
        })?;
        let mut written = 0;
        for (tag, oid, bytes) in records {
            let mut seq = bytes.len().div_ceil(part);
            written += seq;
            let mut goes_on = seq == 0 || replaced_full[written - 1];
            while goes_on {
                let old = self.tree.delete(&part_key(*tag, *oid, seq))?;
                goes_on = old.is_some_and(|old| old.len() == part);
                seq += 1;
            }
        }
        Ok(())
    }

    /// Write the current record of each of `oids` (ascending), or remove
    /// it where `store` no longer has the object.
    pub fn sync_objects(&mut self, store: &ObjectStore, oids: &[Oid]) -> Result<()> {
        // A bulk load arrives here as one call: encode it a slice at a
        // time, not as a second copy of the database.
        for oids in oids.chunks(1 << 10) {
            let mut records = Vec::with_capacity(oids.len());
            for &oid in oids {
                let record = if store.exists(oid) {
                    store.record_bytes(oid)?
                } else {
                    Vec::new()
                };
                records.push((TAG_OBJECT, oid.0, record));
            }
            self.put(&records)?;
        }
        Ok(())
    }

    /// Write the header if schema or index definitions differ from what
    /// the tree holds. Nothing is encoded when the schema's stamp and the
    /// spec count are the ones last written; returns whether the header
    /// had to be encoded and compared.
    pub fn sync_header(&mut self, schema: &Schema, specs: &[IndexSpec]) -> Result<bool> {
        let stamps = (schema.stamp(), specs.len());
        if self.header_stamps == Some(stamps) {
            return Ok(false);
        }
        let header = encode_header(schema, specs);
        if header != self.header {
            self.put(&[(TAG_HEADER, 0, header.clone())])?;
            self.header = header;
        }
        self.header_stamps = Some(stamps);
        Ok(true)
    }

    /// Rebuild the object store and the index definitions from the pages.
    pub fn load(&mut self) -> Result<(ObjectStore, Vec<IndexSpec>)> {
        let mut loading = Loading::default();
        let mut record: Vec<u8> = Vec::new();
        let mut open: Option<(u8, u32)> = None;
        let mut parts = 0;
        let view = self.tree.view();
        let mut cur = view.seek_first()?;
        while let Some((k, v)) = view.cursor_peek(&mut cur)? {
            let (tag, oid, seq) = parse_key(k)?;
            if seq == 0 {
                if let Some((tag, oid)) = open.replace((tag, oid)) {
                    loading.absorb(tag, oid, &record)?;
                }
                record.clear();
                parts = 0;
            } else if open != Some((tag, oid)) || seq != parts {
                return Err(corrupt("record part out of sequence"));
            }
            record.extend_from_slice(v);
            parts += 1;
            cur.advance();
        }
        if let Some((tag, oid)) = open {
            loading.absorb(tag, oid, &record)?;
        }
        let (loader, specs, header) = loading.0.ok_or_else(|| corrupt("no header record"))?;
        self.header = header;
        Ok((loader.finish()?, specs))
    }
}

/// What [`ObjectTree::load`] has decoded so far: nothing until the header
/// (which sorts first) gave it a schema to load objects against.
#[derive(Default)]
struct Loading(Option<(RecordLoader, Vec<IndexSpec>, Vec<u8>)>);

impl Loading {
    fn absorb(&mut self, tag: u8, oid: u32, record: &[u8]) -> Result<()> {
        match (tag, &mut self.0) {
            (TAG_HEADER, None) if oid == 0 => {
                let (schema, specs) = decode_header(record)?;
                self.0 = Some((RecordLoader::new(schema), specs, record.to_vec()));
                Ok(())
            }
            (TAG_OBJECT, Some((loader, ..))) => Ok(loader.push(Oid(oid), record)?),
            _ => Err(corrupt("unexpected record")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use objstore::Value;
    use pagestore::MemStore;
    use proptest::prelude::*;
    use schema::AttrType;

    fn pool(page_size: usize) -> Arc<BufferPool<MemStore>> {
        Arc::new(BufferPool::new(MemStore::new(page_size), 1 << 12))
    }

    fn sample_store() -> ObjectStore {
        let mut s = Schema::new();
        let emp = s.add_class("Employee").unwrap();
        s.add_attr(emp, "Name", AttrType::Str).unwrap();
        s.add_attr(emp, "Owns", AttrType::RefSet(emp)).unwrap();
        ObjectStore::new(s)
    }

    fn sync_all(tree: &mut ObjectTree<MemStore>, store: &ObjectStore, oids: &[Oid]) {
        tree.sync_header(store.schema(), &[]).unwrap();
        tree.sync_objects(store, oids).unwrap();
    }

    /// Reload through a second handle on the same pages.
    fn reload(tree: &ObjectTree<MemStore>) -> ObjectStore {
        let mut again = ObjectTree::open(tree.tree.pool_arc(), tree.root(), tree.len());
        again.verify().unwrap();
        again.load().unwrap().0
    }

    #[test]
    fn objects_larger_than_a_page_round_trip_and_shrink_back() {
        let mut store = sample_store();
        let emp = store.schema().class_by_name("Employee").unwrap();
        let oids: Vec<Oid> = (0..1200).map(|_| store.create(emp).unwrap()).collect();
        let big = oids[7];
        store
            .set_attr(big, "Name", Value::Str("x".repeat(3000)))
            .unwrap();
        store
            .set_attr(big, "Owns", Value::RefSet(oids[100..1100].to_vec()))
            .unwrap();
        let mut tree = ObjectTree::create(pool(256)).unwrap();
        sync_all(&mut tree, &store, &oids);
        assert!(store.record_bytes(big).unwrap().len() > 4 * 256);
        assert_eq!(reload(&tree).to_bytes(), store.to_bytes());

        // Shrink the large record to one part, delete another object: the
        // stale parts and the deleted record must be gone from the pages.
        store.set_attr(big, "Name", Value::Str("y".into())).unwrap();
        store.set_attr(big, "Owns", Value::RefSet(vec![])).unwrap();
        store.delete(oids[9], false).unwrap();
        let entries = tree.len();
        sync_all(&mut tree, &store, &[big, oids[9]]);
        assert!(tree.len() < entries - 10, "stale parts removed");
        assert_eq!(reload(&tree).to_bytes(), store.to_bytes());
    }

    #[test]
    fn ascending_creates_fill_their_pages() {
        let mut store = sample_store();
        let emp = store.schema().class_by_name("Employee").unwrap();
        let mut tree = ObjectTree::create(pool(1024)).unwrap();
        let mut payload = 0;
        // Arrive a few at a time, as commits deliver them.
        for batch in 0..200 {
            let mut oids = Vec::new();
            for i in 0..10 {
                let oid = store.create(emp).unwrap();
                let name = format!("employee-{batch}-{i}");
                store.set_attr(oid, "Name", Value::Str(name)).unwrap();
                payload += store.record_bytes(oid).unwrap().len();
                oids.push(oid);
            }
            sync_all(&mut tree, &store, &oids);
        }
        let pages = tree.page_ids().unwrap().len();
        // Payload alone (keys and entry framing not counted) against the
        // pages' bytes: half-empty leaves would put this near 0.4.
        let fill = payload as f64 / (pages * 1024) as f64;
        assert!(fill > 0.75, "fill {fill:.2} over {pages} pages");
    }

    #[test]
    fn a_tree_without_a_header_is_refused() {
        let mut tree = ObjectTree::create(pool(256)).unwrap();
        assert!(tree.load().is_err());
    }

    /// Entries the codec would never write — any key shape, any bytes —
    /// in an otherwise sound tree (every page passes its checksum): the
    /// loader answers with a typed error or a store, never a panic.
    fn load_hostile(entries: Vec<(Vec<u8>, Vec<u8>)>, with_header: bool) {
        let store = sample_store();
        let mut tree = ObjectTree::create(pool(256)).unwrap();
        if with_header {
            tree.sync_header(store.schema(), &[]).unwrap();
        }
        for (k, v) in entries {
            tree.tree.insert(&k, &v).unwrap();
        }
        if let Ok((store, _)) = tree.load() {
            // Whatever loaded must be a sound store: its own records load.
            let mut again = RecordLoader::new(store.schema().clone());
            for oid in store.oids() {
                again.push(oid, &store.record_bytes(oid).unwrap()).unwrap();
            }
            again.finish().unwrap();
        }
    }

    fn arb_key() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            // Well-shaped keys around the codec's own.
            (0u8..3, 0u32..6, 0u16..4).prop_map(|(tag, oid, seq)| {
                let mut k = part_key(tag, oid, 1);
                k.truncate(5);
                if seq > 0 {
                    k.extend_from_slice(&(seq - 1).to_be_bytes());
                }
                k
            }),
            proptest::collection::vec(any::<u8>(), 0..9),
        ]
    }

    fn arb_value() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            // Near-records: class 0, a forged count, attribute soup.
            proptest::collection::vec(0u8..8, 0..24),
            proptest::collection::vec(any::<u8>(), 0..64),
            Just(vec![0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
            Just(vec![0, 1, 0, 1, 5, 0xFF, 0xFF, 0xFF, 0xFF]),
        ]
    }

    proptest! {
        #[test]
        fn hostile_entries_yield_typed_errors(
            entries in proptest::collection::vec((arb_key(), arb_value()), 0..12),
            with_header in any::<bool>(),
        ) {
            load_hostile(entries, with_header);
        }

        #[test]
        fn hostile_headers_yield_typed_errors(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            forged_len in any::<u32>(),
        ) {
            let _ = decode_header(&bytes);
            let mut forged = forged_len.to_le_bytes().to_vec();
            forged.extend_from_slice(&bytes);
            let _ = decode_header(&forged);
        }
    }
}
