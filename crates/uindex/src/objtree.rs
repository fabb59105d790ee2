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
//! tag 0, oid 0   the header: every definition as a catalog record
//!                (`catalog::records`), framed as
//!                ([key len u32][value len u32][key][value])*
//!                [CRC-32 of all before it, u32]
//! tag 1          one object: `ObjectStore::record_bytes`
//! ```
//!
//! The header is the durable tier's only copy of schema, class codes and
//! index specs: an open attaches the index tree with the codes and specs it
//! holds, and a rebuild of the index reads nothing else.

use std::sync::Arc;

use btree::{BTree, BTreeConfig};
use objstore::{ObjectStore, Oid, RecordLoader};
use pagestore::{BufferPool, PageId, PageStore};
use schema::{Encoding, Schema, Stamp};

use crate::catalog::{self, Record};
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

/// The header record's bytes: `records` framed. See the module docs.
fn encode_header(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in records {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(v);
    }
    out.extend_from_slice(&pagestore::crc32(&out).to_le_bytes());
    out
}

/// Inverse of [`encode_header`]. The bytes are treated as hostile: the CRC
/// is checked first, and every length against the bytes that remain before
/// anything is copied; the records then go to the catalog's own decoder.
fn decode_header(bytes: &[u8]) -> Result<(Schema, Encoding, Vec<IndexSpec>)> {
    let len = bytes.len().checked_sub(4);
    let (mut body, crc) = bytes.split_at(len.ok_or_else(|| corrupt("truncated header"))?);
    if pagestore::crc32(body).to_le_bytes() != crc {
        return Err(corrupt("header failed its CRC"));
    }
    let mut records = Vec::new();
    while !body.is_empty() {
        let truncated = || corrupt("truncated header");
        let (lens, rest) = body.split_at_checked(8).ok_or_else(truncated)?;
        let [key_len, value_len] =
            [0, 4].map(|at| u32::from_le_bytes(lens[at..at + 4].try_into().unwrap()) as usize);
        let (key, rest) = rest.split_at_checked(key_len).ok_or_else(truncated)?;
        let (value, rest) = rest.split_at_checked(value_len).ok_or_else(truncated)?;
        records.push((key.to_vec(), value.to_vec()));
        body = rest;
    }
    catalog::decode(&records)
}

/// The object store's on-page form. See the module docs.
pub(crate) struct ObjectTree<S: PageStore> {
    tree: BTree<S>,
    /// The header record as last written or loaded: a commit rewrites it
    /// only when a definition changed.
    header: Vec<u8>,
    /// Schema stamp, encoding stamp and spec count of the definitions
    /// [`ObjectTree::sync_header`] last wrote (a lazily assigned code moves
    /// the encoding alone); `None` until it first succeeds on this value,
    /// so a fresh or reopened tree compares by value.
    header_stamps: Option<(Stamp, Stamp, usize)>,
}

impl<S: PageStore> ObjectTree<S> {
    /// OIDs arrive ascending, so leaves fill; capacity is in bytes whatever
    /// the index tree was configured with.
    fn config() -> BTreeConfig {
        BTreeConfig::default().with_append_split()
    }

    /// An empty tree (no header yet) in `pool`.
    pub(crate) fn create(pool: Arc<BufferPool<S>>) -> Result<Self> {
        Ok(ObjectTree {
            tree: BTree::create(pool, Self::config())?,
            header: Vec::new(),
            header_stamps: None,
        })
    }

    /// Attach to the tree the meta page names.
    pub(crate) fn open(pool: Arc<BufferPool<S>>, root: PageId, len: u64) -> Self {
        ObjectTree {
            tree: BTree::open(pool, Self::config(), root, len),
            header: Vec::new(),
            header_stamps: None,
        }
    }

    pub(crate) fn root(&self) -> PageId {
        self.tree.root()
    }

    pub(crate) fn len(&self) -> u64 {
        self.tree.len()
    }

    /// The leaves holding the header record's parts.
    pub(crate) fn header_pages(&self) -> Result<Vec<PageId>> {
        let view = self.tree.view();
        let mut cur = view.seek(&[TAG_HEADER])?;
        let mut pages = Vec::new();
        while let Some((k, _)) = view.cursor_peek(&mut cur)? {
            if k[0] != TAG_HEADER {
                break;
            }
            pages.push(cur.leaf_page());
            cur.advance();
        }
        pages.dedup();
        Ok(pages)
    }

    /// Every page the tree owns.
    pub(crate) fn page_ids(&self) -> Result<Vec<PageId>> {
        Ok(self.tree.page_ids()?)
    }

    /// Read and structurally check every page of the tree.
    pub(crate) fn verify(&self) -> Result<()> {
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
    pub(crate) fn sync_objects(&mut self, store: &ObjectStore, oids: &[Oid]) -> Result<()> {
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

    /// Write the header if schema, class codes or index specs differ from
    /// what the tree holds. Nothing is encoded when the schema's and the
    /// encoding's stamps and the spec count are the ones last written;
    /// returns whether the header had to be encoded and compared.
    pub(crate) fn sync_header(
        &mut self,
        schema: &Schema,
        encoding: &Encoding,
        specs: &[IndexSpec],
    ) -> Result<bool> {
        let stamps = (schema.stamp(), encoding.stamp(), specs.len());
        if self.header_stamps == Some(stamps) {
            return Ok(false);
        }
        let header = encode_header(&catalog::records(schema, encoding, specs));
        if header != self.header {
            self.put(&[(TAG_HEADER, 0, header.clone())])?;
            self.header = header;
        }
        self.header_stamps = Some(stamps);
        Ok(true)
    }

    /// Rebuild the object store, the class codes and the index specs from
    /// the pages.
    pub(crate) fn load(&mut self) -> Result<(ObjectStore, Encoding, Vec<IndexSpec>)> {
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
        let (loader, encoding, specs, header) =
            loading.0.ok_or_else(|| corrupt("no header record"))?;
        self.header = header;
        Ok((loader.finish()?, encoding, specs))
    }
}

/// What [`ObjectTree::load`] has decoded so far: nothing until the header
/// (which sorts first) gave it a schema to load objects against.
#[derive(Default)]
struct Loading(Option<(RecordLoader, Encoding, Vec<IndexSpec>, Vec<u8>)>);

impl Loading {
    fn absorb(&mut self, tag: u8, oid: u32, record: &[u8]) -> Result<()> {
        match (tag, &mut self.0) {
            (TAG_HEADER, None) if oid == 0 => {
                let (schema, encoding, specs) = decode_header(record)?;
                self.0 = Some((RecordLoader::new(schema), encoding, specs, record.to_vec()));
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
        let encoding = Encoding::generate(store.schema()).unwrap();
        tree.sync_header(store.schema(), &encoding, &[]).unwrap();
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
            let encoding = Encoding::generate(store.schema()).unwrap();
            tree.sync_header(store.schema(), &encoding, &[]).unwrap();
        }
        for (k, v) in entries {
            tree.tree.insert(&k, &v).unwrap();
        }
        if let Ok((store, ..)) = tree.load() {
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
            junk in proptest::collection::vec(any::<u8>(), 0..96),
            at in any::<usize>(),
            patch in arb_patch(),
        ) {
            // Junk, and a real header with a forged length, count or id
            // patched in: as they are, and behind a valid CRC, which lets
            // them reach the framing's and the catalog's decoders.
            let header = sample_header();
            let body = header[..header.len() - 4].to_vec();
            for bytes in [junk, patched(body, at, &patch)] {
                let _ = decode_header(&bytes);
                let _ = decode_header(&with_crc(bytes));
            }
        }
    }

    fn with_crc(mut body: Vec<u8>) -> Vec<u8> {
        body.extend_from_slice(&pagestore::crc32(&body).to_le_bytes());
        body
    }

    /// [`sample_store`]'s schema grown by evolution — a coded and a pending
    /// subclass, a second parent — with its codes and an index spec.
    fn definitions() -> (Schema, Encoding, Vec<IndexSpec>) {
        let mut s = sample_store().schema().clone();
        let mut encoding = Encoding::generate(&s).unwrap();
        let emp = s.class_by_name("Employee").unwrap();
        let boss = s.add_subclass("Boss", emp).unwrap();
        encoding.assign_class(&s, boss).unwrap();
        let temp = s.add_subclass("Temp", emp).unwrap();
        s.add_parent(temp, boss).unwrap();
        s.add_attr(temp, "Until", AttrType::Int).unwrap();
        let mut spec = IndexSpec::class_hierarchy("name", emp, "Name")
            .build(&s)
            .unwrap();
        spec.normalize(&s, &encoding).unwrap();
        (s, encoding, vec![spec])
    }

    fn sample_header() -> Vec<u8> {
        let (schema, encoding, specs) = definitions();
        encode_header(&catalog::records(&schema, &encoding, &specs))
    }

    /// Overwrite `bytes[at..]` with `patch` (clipped), the way a forged
    /// count or id lands in the middle of an otherwise valid record.
    fn patched(mut bytes: Vec<u8>, at: usize, patch: &[u8]) -> Vec<u8> {
        if !bytes.is_empty() {
            let at = at % bytes.len();
            let n = patch.len().min(bytes.len() - at);
            bytes[at..at + n].copy_from_slice(&patch[..n]);
        }
        bytes
    }

    fn arb_patch() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            Just(vec![0xFF; 4]),
            Just(vec![0xFF, 0xFF, 0xFF, 0x7F]),
            Just(vec![0, 0, 0, 0x80]),
            proptest::collection::vec(any::<u8>(), 1..6),
        ]
    }

    #[test]
    fn a_header_round_trips_and_refuses_every_truncation_and_byte_flip() {
        let (schema, encoding, specs) = definitions();
        let header = sample_header();
        let (schema2, encoding2, specs2) = decode_header(&header).unwrap();
        assert_eq!(
            catalog::records(&schema2, &encoding2, &specs2),
            catalog::records(&schema, &encoding, &specs)
        );
        let temp = schema.class_by_name("Temp").unwrap();
        assert!(encoding2.code(temp).is_none(), "pending stays pending");
        // A second class under the first one's code repeats its record's
        // key, and would otherwise take its attributes.
        let mut records = catalog::records(&schema, &encoding, &specs);
        let twin = [
            &[4, 0][..],
            b"Twin",
            &(schema.num_classes() as u32).to_le_bytes(),
        ];
        records.insert(1, (records[0].0.clone(), twin.concat()));
        assert!(decode_header(&encode_header(&records)).is_err(), "repeated");
        for len in 0..header.len() {
            assert!(decode_header(&header[..len]).is_err(), "truncated to {len}");
        }
        for at in 0..header.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut damaged = header.clone();
                damaged[at] ^= flip;
                assert!(decode_header(&damaged).is_err(), "byte {at} ^ {flip:#x}");
            }
        }
    }

    #[test]
    fn forged_lengths_are_refused_before_allocating() {
        // A record of 4 GiB in a few bytes must be an error, not a copy of
        // that size; so must a spec record claiming 65 535 positions.
        assert!(decode_header(&u32::MAX.to_le_bytes()).is_err());
        assert!(decode_header(&with_crc(u32::MAX.to_le_bytes().repeat(2))).is_err());
        let (schema, encoding, specs) = definitions();
        let mut records = catalog::records(&schema, &encoding, &specs);
        let (_, spec) = records.last_mut().unwrap();
        // The "name" spec: its name, attribute, subclass flag, then the count.
        spec.truncate(2 + "name".len() + 4 + 4 + 1);
        spec.extend_from_slice(&[0xFF, 0xFF]);
        assert!(decode_header(&encode_header(&records)).is_err());
    }
}
