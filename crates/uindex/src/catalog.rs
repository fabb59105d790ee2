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
//! which makes a [`crate::UIndex`] fully self-describing: a persisted page
//! file can be reopened without any side channel (see
//! [`crate::UIndex::save_catalog`] / [`crate::UIndex::open_with_catalog`]).
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
/// the high bit set — unique, free of the `0x00` terminator, and no longer
/// than the shortest code (two bytes) below class id 16 384.
pub(crate) fn uncoded_owner(class: ClassId) -> Vec<u8> {
    let groups = (32 - class.0.leading_zeros()).div_ceil(7).max(1);
    (0..groups)
        .rev()
        .map(|g| UNCODED | ((class.0 >> (7 * g)) & 0x7F) as u8)
        .collect()
}

/// What `class`'s records are keyed by: its code, or its
/// [`uncoded_owner`] while it has none.
pub(crate) fn record_owner(encoding: &Encoding, class: ClassId) -> Vec<u8> {
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

/// The catalog record (key, value) of class `class` named `name`.
pub(crate) fn class_record(code: &[u8], name: &str, class: ClassId) -> (Vec<u8>, Vec<u8>) {
    let mut payload = Vec::new();
    put_str(&mut payload, name);
    payload.extend_from_slice(&class.0.to_le_bytes());
    (catalog_key(TAG_CLASS, code, 0), payload)
}

/// The catalog record of attribute `attr` named `name`, declared on the
/// class whose code is `code`.
pub(crate) fn attr_record(
    code: &[u8],
    attr: AttrId,
    name: &str,
    ty: AttrType,
) -> (Vec<u8>, Vec<u8>) {
    let mut payload = Vec::new();
    put_str(&mut payload, name);
    payload.extend_from_slice(&encode_attr_type(ty));
    (catalog_key(TAG_ATTR, code, attr.0 as u16), payload)
}

/// The catalog record of index `id`.
pub(crate) fn spec_record(id: u16, spec: &IndexSpec) -> (Vec<u8>, Vec<u8>) {
    (catalog_key(TAG_SPEC, &[], id), encode_spec(spec))
}

impl<S: PageStore> UIndex<S> {
    /// Bring the schema catalog in the shared B-tree up to date: one
    /// clustered entry per class, SUP edge, attribute, and index spec. When
    /// schema, encoding and spec table are the ones last written (same
    /// stamps, same spec count) nothing is encoded; otherwise the entries
    /// are compared with what the tree already holds (as last written or
    /// loaded), and only the ones that differ are touched — an unchanged
    /// schema costs no page. Returns the number of entries the catalog
    /// holds.
    pub fn save_catalog(&mut self, schema: &Schema) -> Result<u64> {
        self.sync_catalog(schema)?;
        Ok(self.catalog.len() as u64)
    }

    /// [`UIndex::save_catalog`], returning whether the definitions had to
    /// be encoded and compared (`false`: their stamps matched the last
    /// write).
    pub(crate) fn sync_catalog(&mut self, schema: &Schema) -> Result<bool> {
        let stamps = (schema.stamp(), self.encoding().stamp(), self.specs().len());
        if self.catalog_stamps == Some(stamps) {
            return Ok(false);
        }
        let mut items: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for class in schema.class_ids() {
            let code = record_owner(self.encoding(), class);
            items.push(class_record(&code, schema.class_name(class), class));
            for (i, &parent) in schema.parents(class).iter().enumerate() {
                items.push((
                    catalog_key(TAG_SUP, &code, i as u16),
                    parent.0.to_le_bytes().to_vec(),
                ));
            }
            for (attr, attr_name, ty) in schema.own_attrs(class) {
                items.push(attr_record(&code, attr, attr_name, ty));
            }
        }
        for (id, spec) in self.specs().iter().enumerate() {
            items.push(spec_record(id as u16, spec));
        }
        items.sort();
        // `self.catalog` and the stamps are replaced only once every change
        // is in the tree: after a failed write the retry repeats the same
        // deletes and upserts, which are idempotent.
        if items != self.catalog {
            let stale: Vec<Vec<u8>> = self
                .catalog
                .iter()
                .filter(|(k, _)| items.binary_search_by(|(key, _)| key.cmp(k)).is_err())
                .map(|(k, _)| k.clone())
                .collect();
            let fresh: Vec<&(Vec<u8>, Vec<u8>)> = items
                .iter()
                .filter(|item| self.catalog.binary_search(item).is_err())
                .collect();
            for k in &stale {
                self.tree_mut().delete(k)?;
            }
            for (k, v) in fresh {
                self.tree_mut().insert(k, v)?;
            }
            self.catalog = items;
        }
        self.catalog_stamps = Some(stamps);
        Ok(true)
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
        let prefix = CATALOG_ID.to_be_bytes().to_vec();
        let entries = tree.view().prefix_scan(&prefix)?;

        // Pass 1: classes in code order (parents precede children because
        // codes are prefix-ordered — but class *ids* must keep their
        // original numbering, so collect first).
        struct RawClass {
            id: u32,
            name: String,
            code: Vec<u8>,
            parents: Vec<u32>,
            attrs: Vec<(u16, String, Vec<u8>)>,
        }
        let mut classes: Vec<RawClass> = Vec::new();
        let mut specs_raw: Vec<(u16, Vec<u8>)> = Vec::new();
        let bad = || Error::BadKey("corrupt catalog entry".into());
        for (k, v) in &entries {
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
                    let id = u32::from_le_bytes(
                        v.get(pos..pos + 4).ok_or_else(bad)?.try_into().unwrap(),
                    );
                    classes.push(RawClass {
                        id,
                        name,
                        code,
                        parents: Vec::new(),
                        attrs: Vec::new(),
                    });
                }
                TAG_SUP => {
                    let parent =
                        u32::from_le_bytes(v.get(..4).ok_or_else(bad)?.try_into().unwrap());
                    let class = classes
                        .iter_mut()
                        .find(|c| c.code == code)
                        .ok_or_else(bad)?;
                    class.parents.push(parent);
                }
                TAG_ATTR => {
                    let mut pos = 0;
                    let name = get_str(v, &mut pos)?;
                    let ty = v.get(pos..).ok_or_else(bad)?.to_vec();
                    let class = classes
                        .iter_mut()
                        .find(|c| c.code == code)
                        .ok_or_else(bad)?;
                    class.attrs.push((seq, name, ty));
                }
                TAG_SPEC => specs_raw.push((seq, v.clone())),
                _ => return Err(bad()),
            }
        }

        // Rebuild the schema with original class ids: add classes in id
        // order (ids were dense).
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
        for c in &classes {
            let mut attrs = c.attrs.clone();
            attrs.sort_by_key(|(seq, ..)| *seq);
            for (_, name, ty) in attrs {
                schema.add_attr(ClassId(c.id), &name, decode_attr_type(&ty)?)?;
            }
        }
        // Rebuild the encoding from the stored codes; an uncoded class
        // stays without one.
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
        let mut specs = Vec::new();
        for (expect, (seq, v)) in specs_raw.iter().enumerate() {
            if *seq as usize != expect {
                return Err(Error::BadKey("catalog spec ids not dense".into()));
            }
            specs.push(decode_spec(v)?);
        }
        let mut index = UIndex::from_parts(tree, encoding, specs);
        index.catalog = entries;
        Ok((index, schema))
    }
}

/// Serialize one index spec (shared by the in-tree catalog and the
/// object-tree header's [`encode_spec_list`]).
pub(crate) fn encode_spec(spec: &IndexSpec) -> Vec<u8> {
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
pub(crate) fn decode_spec(v: &[u8]) -> Result<IndexSpec> {
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

/// Serialize a whole spec list: the tail of the object tree's header
/// record (the rebuild path's source of index definitions, which may not
/// come from the index tree it is replacing).
pub(crate) fn encode_spec_list(specs: &[IndexSpec]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"UIDXSPC1");
    out.extend_from_slice(&(specs.len() as u32).to_le_bytes());
    for spec in specs {
        let enc = encode_spec(spec);
        out.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        out.extend_from_slice(&enc);
    }
    out
}

/// Inverse of [`encode_spec_list`], with typed errors for truncation and
/// a bad magic.
pub(crate) fn decode_spec_list(bytes: &[u8]) -> Result<Vec<IndexSpec>> {
    if bytes.get(..8) != Some(b"UIDXSPC1".as_slice()) {
        return Err(Error::BadKey("bad spec list magic".into()));
    }
    let bad = || Error::BadKey("truncated spec list".into());
    let n = u32::from_le_bytes(bytes.get(8..12).ok_or_else(bad)?.try_into().unwrap()) as usize;
    let mut pos = 12;
    // A spec is at least its length prefix.
    if n > (bytes.len() - pos) / 4 {
        return Err(bad());
    }
    let mut specs = Vec::with_capacity(n);
    for _ in 0..n {
        let len = u32::from_le_bytes(bytes.get(pos..pos + 4).ok_or_else(bad)?.try_into().unwrap())
            as usize;
        pos += 4;
        specs.push(decode_spec(bytes.get(pos..pos + len).ok_or_else(bad)?)?);
        pos += len;
    }
    Ok(specs)
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
