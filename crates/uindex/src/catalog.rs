//! Schema catalog in the index itself (paper §4.1).
//!
//! > "by using the name-encoding scheme above, schema information can be
//! > stored in the same index and retrieved easily. For example, the
//! > relations SUP or REF may be stored in the index and that information
//! > is also clustered."
//!
//! We reserve the top index id ([`CATALOG_ID`]) and store one entry per
//! schema fact, keyed by the owning class's code — so all facts about a
//! class (and, thanks to the prefix property, about its whole sub-tree)
//! cluster, exactly as the paper promises. The facts are sufficient to
//! reconstruct the [`Schema`], the [`Encoding`], and every [`IndexSpec`],
//! which makes a bare [`crate::UIndex`] fully self-describing: a persisted
//! page file can be reopened without any side channel (see
//! [`crate::UIndex::save_catalog`] / [`crate::UIndex::open_with_catalog`]).
//! The same records, built by one encoder and read by one decoder, are the
//! disk tier's definitions too: a [`crate::DiskDatabase`] keeps them in its
//! object tree's header rather than in the index tree, whose pages are
//! then index entries only.
//!
//! Entry layout (ordinary B-tree entries; the value carries the payload):
//!
//! ```text
//! key   := [CATALOG_ID][tag u8][class code][0x00][seq u16]
//! value := fact payload
//! ```
//!
//! A class whose code is not assigned yet (schema evolution assigns codes
//! lazily) is recorded all the same, keyed by [`uncoded_owner`] in place
//! of its code: no class is missing from the catalog, so its class ids stay
//! dense, and a reopened class without a code is still pending.

use btree::BTree;
use pagestore::{PageId, PageStore};
use schema::{AttrId, AttrType, ClassCode, ClassId, Encoding, Schema};

use crate::error::{Error, Result};
use crate::index::UIndex;
use crate::spec::{IndexSpec, PathStep};

/// The reserved logical index holding catalog entries.
pub const CATALOG_ID: u16 = u16::MAX;

const TAG_CLASS: u8 = 1; // payload: name; key code = class code
const TAG_SUP: u8 = 2; // payload: parent class id (u32); clustered at child
const TAG_ATTR: u8 = 3; // payload: attr record; clustered at declaring class
const TAG_SPEC: u8 = 4; // payload: spec record; seq = index id

/// Lowest first byte of an [`uncoded_owner`]. Class codes are made of
/// `'A'..='Z'` and the terminator `0x01`, so they never reach it.
const UNCODED: u8 = 0x80;

/// What an uncoded class's records are keyed by instead of a code: its id
/// in as few 7-bit groups as it takes, most significant first, each with
/// the high bit set — unique and free of the `0x00` terminator.
fn uncoded_owner(class: ClassId) -> Vec<u8> {
    let groups = (32 - class.0.leading_zeros()).div_ceil(7).max(1);
    (0..groups)
        .rev()
        .map(|g| UNCODED | ((class.0 >> (7 * g)) & 0x7F) as u8)
        .collect()
}

/// What `class`'s records are keyed by: its code, or its
/// [`uncoded_owner`] while it has none.
fn record_owner(encoding: &Encoding, class: ClassId) -> Vec<u8> {
    match encoding.code(class) {
        Some(code) => code.as_bytes().to_vec(),
        None => uncoded_owner(class),
    }
}

fn catalog_key(tag: u8, code: &[u8], seq: u16) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + 1 + code.len() + 3);
    k.extend_from_slice(&CATALOG_ID.to_be_bytes());
    k.push(tag);
    k.extend_from_slice(code);
    k.push(0x00);
    k.extend_from_slice(&seq.to_be_bytes());
    k
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let bad = || Error::BadKey("corrupt catalog string".into());
    let n =
        u16::from_le_bytes(buf.get(*pos..*pos + 2).ok_or_else(bad)?.try_into().unwrap()) as usize;
    *pos += 2;
    let s = std::str::from_utf8(buf.get(*pos..*pos + n).ok_or_else(bad)?)
        .map_err(|_| bad())?
        .to_string();
    *pos += n;
    Ok(s)
}

fn encode_attr_type(ty: AttrType) -> [u8; 5] {
    let (tag, target) = match ty {
        AttrType::Int => (0u8, 0u32),
        AttrType::Str => (1, 0),
        AttrType::Float => (2, 0),
        AttrType::Bool => (3, 0),
        AttrType::Ref(c) => (4, c.0),
        AttrType::RefSet(c) => (5, c.0),
    };
    let mut out = [0u8; 5];
    out[0] = tag;
    out[1..5].copy_from_slice(&target.to_le_bytes());
    out
}

fn decode_attr_type(buf: &[u8]) -> Result<AttrType> {
    let bad = || Error::BadKey("corrupt catalog attr type".into());
    let target = ClassId(u32::from_le_bytes(
        buf.get(1..5).ok_or_else(bad)?.try_into().unwrap(),
    ));
    Ok(match buf.first().ok_or_else(bad)? {
        0 => AttrType::Int,
        1 => AttrType::Str,
        2 => AttrType::Float,
        3 => AttrType::Bool,
        4 => AttrType::Ref(target),
        5 => AttrType::RefSet(target),
        _ => return Err(bad()),
    })
}

/// One catalog fact as it is stored: its B-tree key and its value.
pub(crate) type Record = (Vec<u8>, Vec<u8>);

/// Every definition as catalog records, sorted by key: one per class, SUP
/// edge, attribute and index spec. A bare [`UIndex`] keeps them in its
/// tree ([`UIndex::save_catalog`]); the disk tier keeps them in its object
/// tree's header.
pub(crate) fn records(schema: &Schema, encoding: &Encoding, specs: &[IndexSpec]) -> Vec<Record> {
    let mut items = Vec::new();
    for class in schema.class_ids() {
        let code = record_owner(encoding, class);
        let mut payload = Vec::new();
        put_str(&mut payload, schema.class_name(class));
        payload.extend_from_slice(&class.0.to_le_bytes());
        items.push((catalog_key(TAG_CLASS, &code, 0), payload));
        for (i, &parent) in schema.parents(class).iter().enumerate() {
            items.push((
                catalog_key(TAG_SUP, &code, i as u16),
                parent.0.to_le_bytes().to_vec(),
            ));
        }
        for (attr, name, ty) in schema.own_attrs(class) {
            let mut payload = Vec::new();
            put_str(&mut payload, name);
            payload.extend_from_slice(&encode_attr_type(ty));
            items.push((catalog_key(TAG_ATTR, &code, attr.0 as u16), payload));
        }
    }
    for (id, spec) in specs.iter().enumerate() {
        items.push((catalog_key(TAG_SPEC, &[], id as u16), encode_spec(spec)));
    }
    items.sort();
    items
}

/// Rebuild the schema, the encoding and the index specs from the records
/// [`records`] made. The input is treated as hostile: a malformed record,
/// a fact about a class that has no record, or ids that are not dense give
/// a typed error.
pub(crate) fn decode(records: &[Record]) -> Result<(Schema, Encoding, Vec<IndexSpec>)> {
    // Pass 1: classes in code order (parents precede children because
    // codes are prefix-ordered — but class *ids* must keep their original
    // numbering, so collect first).
    struct RawClass {
        id: u32,
        name: String,
        code: Vec<u8>,
        parents: Vec<u32>,
        attrs: Vec<(u16, String, AttrType)>,
    }
    let mut classes: Vec<RawClass> = Vec::new();
    let mut specs_raw: Vec<(u16, &[u8])> = Vec::new();
    let bad = || Error::BadKey("corrupt catalog entry".into());
    // Strictly ascending keys: two classes under one code would repeat a
    // class record's key.
    if records.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(Error::BadKey(
            "catalog records repeated or out of order".into(),
        ));
    }
    for (k, v) in records {
        let tag = *k.get(2).ok_or_else(bad)?;
        let rest = &k[3..];
        let code_end = rest.iter().position(|&b| b == 0).ok_or_else(bad)?;
        let code = rest[..code_end].to_vec();
        let seq = u16::from_be_bytes(
            rest.get(code_end + 1..code_end + 3)
                .ok_or_else(bad)?
                .try_into()
                .unwrap(),
        );
        match tag {
            TAG_CLASS => {
                let mut pos = 0;
                let name = get_str(v, &mut pos)?;
                let id =
                    u32::from_le_bytes(v.get(pos..pos + 4).ok_or_else(bad)?.try_into().unwrap());
                classes.push(RawClass {
                    id,
                    name,
                    code,
                    parents: Vec::new(),
                    attrs: Vec::new(),
                });
            }
            TAG_SUP | TAG_ATTR => {
                // Records sort by tag first, so every class record came
                // before this one, in owner order: `classes` is sorted by
                // `code`.
                let at = classes
                    .binary_search_by(|c| c.code.cmp(&code))
                    .map_err(|_| bad())?;
                let class = &mut classes[at];
                if tag == TAG_SUP {
                    let parent = v.get(..4).ok_or_else(bad)?;
                    class
                        .parents
                        .push(u32::from_le_bytes(parent.try_into().unwrap()));
                } else {
                    let mut pos = 0;
                    let name = get_str(v, &mut pos)?;
                    class.attrs.push((seq, name, decode_attr_type(&v[pos..])?));
                }
            }
            TAG_SPEC => specs_raw.push((seq, v)),
            _ => return Err(bad()),
        }
    }

    // Rebuild the schema with original class ids: add classes in id order
    // (ids were dense).
    classes.sort_by_key(|c| c.id);
    let mut schema = Schema::new();
    for (expect, c) in classes.iter().enumerate() {
        if c.id as usize != expect {
            return Err(Error::BadKey("catalog class ids not dense".into()));
        }
        let id = match c.parents.first() {
            None => schema.add_class(&c.name)?,
            Some(&p) => schema.add_subclass(&c.name, ClassId(p))?,
        };
        debug_assert_eq!(id.0, c.id);
    }
    // Secondary (multiple-inheritance) parents may have higher ids than
    // their children, so link them only after every class exists.
    for c in &classes {
        for &extra in c.parents.iter().skip(1) {
            schema.add_parent(ClassId(c.id), ClassId(extra))?;
        }
    }
    // Attributes after all classes exist (Ref targets may be later ids).
    for c in &mut classes {
        c.attrs.sort_by_key(|(seq, ..)| *seq);
        for (expect, (seq, name, ty)) in c.attrs.iter().enumerate() {
            if *seq as usize != expect {
                return Err(Error::BadKey("catalog attr ids not dense".into()));
            }
            schema.add_attr(ClassId(c.id), name, *ty)?;
        }
    }
    // Rebuild the encoding from the stored codes; an uncoded class stays
    // without one.
    let mut encoding = Encoding::default();
    for c in classes
        .iter()
        .filter(|c| c.code.first().is_none_or(|&b| b < UNCODED))
    {
        let code = ClassCode::from_bytes(&c.code)
            .ok_or_else(|| Error::BadKey("corrupt class code in catalog".into()))?;
        encoding.set_raw(ClassId(c.id), code);
    }
    // Rebuild the specs.
    specs_raw.sort_by_key(|(seq, _)| *seq);
    let mut specs = Vec::with_capacity(specs_raw.len());
    for (expect, (seq, v)) in specs_raw.into_iter().enumerate() {
        if seq as usize != expect {
            return Err(Error::BadKey("catalog spec ids not dense".into()));
        }
        specs.push(decode_spec(v)?);
    }
    Ok((schema, encoding, specs))
}

impl<S: PageStore> UIndex<S> {
    /// Bring the schema catalog in the shared B-tree up to date: one
    /// clustered entry per class, SUP edge, attribute, and index spec. The
    /// entries are compared with what the tree holds, and only the ones
    /// that differ are touched — an unchanged schema writes no page.
    /// Returns the number of entries the catalog holds.
    pub fn save_catalog(&mut self, schema: &Schema) -> Result<u64> {
        let items = records(schema, self.encoding(), self.specs());
        let held = self.tree().view().prefix_scan(&CATALOG_ID.to_be_bytes())?;
        for (k, _) in &held {
            if items.binary_search_by(|(key, _)| key.cmp(k)).is_err() {
                self.tree_mut().delete(k)?;
            }
        }
        for (k, v) in items
            .iter()
            .filter(|item| held.binary_search(item).is_err())
        {
            self.tree_mut().insert(k, v)?;
        }
        Ok(items.len() as u64)
    }

    /// Reconstruct the schema, encoding, and index specs from a catalog
    /// previously written by [`UIndex::save_catalog`], and attach to the
    /// existing tree (`root`/`len` as persisted by the caller).
    pub fn open_with_catalog(
        pool: impl Into<std::sync::Arc<pagestore::BufferPool<S>>>,
        config: btree::BTreeConfig,
        root: PageId,
        len: u64,
    ) -> Result<(Self, Schema)> {
        let tree = BTree::open(pool, config, root, len);
        let entries = tree.view().prefix_scan(&CATALOG_ID.to_be_bytes())?;
        let (schema, encoding, specs) = decode(&entries)?;
        Ok((UIndex::from_parts(tree, encoding, specs), schema))
    }
}

/// Serialize one index spec: a spec record's value.
fn encode_spec(spec: &IndexSpec) -> Vec<u8> {
    let mut payload = Vec::new();
    put_str(&mut payload, &spec.name);
    payload.extend_from_slice(&spec.attr.0 .0.to_le_bytes());
    payload.extend_from_slice(&spec.attr.1 .0.to_le_bytes());
    payload.push(u8::from(spec.include_subclasses));
    payload.extend_from_slice(&(spec.positions.len() as u16).to_le_bytes());
    for p in &spec.positions {
        payload.extend_from_slice(&p.class.0.to_le_bytes());
        match (p.parent, p.via) {
            (Some(parent), Some((decl, attr))) => {
                payload.push(1);
                payload.extend_from_slice(&(parent as u16).to_le_bytes());
                payload.extend_from_slice(&decl.0.to_le_bytes());
                payload.extend_from_slice(&attr.0.to_le_bytes());
            }
            _ => payload.push(0),
        }
    }
    payload
}

/// Inverse of [`encode_spec`].
fn decode_spec(v: &[u8]) -> Result<IndexSpec> {
    let bad = || Error::BadKey("corrupt spec record".into());
    let mut pos = 0;
    let name = get_str(v, &mut pos)?;
    let read_u32 = |pos: &mut usize| -> Result<u32> {
        let x = u32::from_le_bytes(v.get(*pos..*pos + 4).ok_or_else(bad)?.try_into().unwrap());
        *pos += 4;
        Ok(x)
    };
    let attr_class = ClassId(read_u32(&mut pos)?);
    let attr_id = AttrId(read_u32(&mut pos)?);
    let include_subclasses = *v.get(pos).ok_or_else(bad)? != 0;
    pos += 1;
    let n = u16::from_le_bytes(v.get(pos..pos + 2).ok_or_else(bad)?.try_into().unwrap()) as usize;
    pos += 2;
    // A position is at least a class id and a flag byte.
    if n > (v.len() - pos) / 5 {
        return Err(bad());
    }
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let class = ClassId(read_u32(&mut pos)?);
        let has_via = *v.get(pos).ok_or_else(bad)? != 0;
        pos += 1;
        let (parent, via) = if has_via {
            let parent =
                u16::from_le_bytes(v.get(pos..pos + 2).ok_or_else(bad)?.try_into().unwrap())
                    as usize;
            pos += 2;
            let decl = ClassId(read_u32(&mut pos)?);
            let attr = AttrId(read_u32(&mut pos)?);
            (Some(parent), Some((decl, attr)))
        } else {
            (None, None)
        };
        positions.push(PathStep { class, parent, via });
    }
    Ok(IndexSpec {
        name,
        attr: (attr_class, attr_id),
        positions,
        include_subclasses,
    })
}

/// Number of catalog entries currently stored (diagnostic).
pub fn catalog_entry_count<S: PageStore>(index: &mut UIndex<S>) -> Result<usize> {
    let prefix = CATALOG_ID.to_be_bytes().to_vec();
    Ok(index.tree().view().prefix_scan(&prefix)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncoded_owners_are_distinct_zero_free_and_no_class_code() {
        let ids = [0, 1, 127, 128, 16_383, 16_384, u32::MAX];
        let lens: Vec<usize> = ids.map(|i| uncoded_owner(ClassId(i)).len()).into();
        assert_eq!(lens, [1, 1, 1, 2, 2, 3, 5]);
        let mut owners: Vec<Vec<u8>> = (0..40_000)
            .chain(ids)
            .map(|i| uncoded_owner(ClassId(i)))
            .collect();
        for owner in &owners {
            assert!(owner.iter().all(|&b| b >= UNCODED), "{owner:?}");
            assert!(ClassCode::from_bytes(owner).is_none(), "{owner:?}");
        }
        owners.sort();
        owners.dedup();
        assert_eq!(owners.len(), 40_001, "one owner per id");
    }
}
