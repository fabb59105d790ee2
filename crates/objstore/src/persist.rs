//! Byte formats of an [`ObjectStore`].
//!
//! Two layouts share one value codec:
//!
//! * the **image** ([`ObjectStore::to_bytes`]): magic, schema section, then
//!   every object as a fixed-width record. Write-only — a canonical form for
//!   comparing two stores and for sizing one; nothing reads it back;
//! * the **record** ([`ObjectStore::record_bytes`] / [`RecordLoader::push`]):
//!   one object without its OID, ids as varints — the unit the durable tier
//!   keeps in pages. The schema those records conform to is kept beside
//!   them by whoever stores them (the durable tier: as the index catalog's
//!   records, in its object tree's header); this crate has no schema
//!   decoder.
//!
//! The record decoder treats its input as hostile: every count is checked
//! against the bytes that remain before anything is allocated for it, and
//! every id against the schema before it is used as an index. Damage
//! surfaces as a typed [`Error`], never a panic.

use schema::{AttrId, AttrType, ClassId, Schema};

use crate::object::ObjectStore;
use crate::oid::Oid;
use crate::value::Value;
use crate::{Error, Result};

const MAGIC: &[u8; 8] = b"UIDXOBJ1";

fn corrupt(what: &str) -> Error {
    Error::Corrupt(what.into())
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// LEB128.
fn put_varint(buf: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        let end = end.ok_or_else(|| corrupt("truncated object bytes"))?;
        let b = &self.buf[self.pos..end];
        self.pos = end;
        Ok(b)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for shift in (0..35).step_by(7) {
            let b = self.u8()?;
            let bits = u32::from(b & 0x7F);
            if shift == 28 && bits > 0x0F {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint too long in object record"))
    }

    /// `n` as a count of items of at least `min_item` bytes each — refused
    /// when the bytes that remain cannot hold that many, so a forged count
    /// never sizes an allocation.
    fn count(&self, n: u32, min_item: usize) -> Result<usize> {
        let n = n as usize;
        if n > (self.buf.len() - self.pos) / min_item {
            return Err(corrupt("count exceeds the bytes that remain"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| corrupt("non-utf8 string in object bytes"))
    }
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        Value::Float(f) => {
            buf.push(2);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            buf.push(3);
            buf.push(u8::from(*b));
        }
        Value::Ref(o) => {
            buf.push(4);
            put_u32(buf, o.0);
        }
        Value::RefSet(os) => {
            buf.push(5);
            put_u32(buf, os.len() as u32);
            for o in os {
                put_u32(buf, o.0);
            }
        }
    }
}

fn get_value(r: &mut Reader) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Int(r.u64()? as i64),
        1 => Value::Str(r.str()?),
        2 => Value::Float(f64::from_bits(r.u64()?)),
        3 => Value::Bool(r.u8()? != 0),
        4 => Value::Ref(Oid(r.u32()?)),
        5 => {
            let n = r.u32()?;
            let n = r.count(n, 4)?;
            let mut os = Vec::with_capacity(n);
            for _ in 0..n {
                os.push(Oid(r.u32()?));
            }
            Value::RefSet(os)
        }
        _ => return Err(corrupt("bad value tag in object bytes")),
    })
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u32(buf, schema.num_classes() as u32);
    for class in schema.class_ids() {
        put_str(buf, schema.class_name(class));
        let parents = schema.parents(class);
        put_u32(buf, parents.len() as u32);
        for p in parents {
            put_u32(buf, p.0);
        }
        let attrs: Vec<_> = schema.own_attrs(class).collect();
        put_u32(buf, attrs.len() as u32);
        for (_, name, ty) in attrs {
            put_str(buf, name);
            let (tag, target) = match ty {
                AttrType::Int => (0u8, 0u32),
                AttrType::Str => (1, 0),
                AttrType::Float => (2, 0),
                AttrType::Bool => (3, 0),
                AttrType::Ref(c) => (4, c.0),
                AttrType::RefSet(c) => (5, c.0),
            };
            buf.push(tag);
            put_u32(buf, target);
        }
    }
}

/// Rebuilds an [`ObjectStore`] from decoded objects: objects are created as
/// they arrive, with every attribute whose references resolve already; a
/// reference may point forward, so one that does not is set once all
/// objects exist.
pub struct RecordLoader {
    store: ObjectStore,
    refs: Vec<(Oid, ClassId, AttrId, Value)>,
}

impl RecordLoader {
    /// A loader for objects conforming to `schema`.
    pub fn new(schema: Schema) -> Self {
        RecordLoader {
            store: ObjectStore::new(schema),
            refs: Vec::new(),
        }
    }

    /// Add the object `oid` from its [`ObjectStore::record_bytes`] record.
    pub fn push(&mut self, oid: Oid, record: &[u8]) -> Result<()> {
        let mut r = Reader {
            buf: record,
            pos: 0,
        };
        let class = ClassId(r.varint()?);
        self.store.create_with_oid(oid, class)?;
        // Smallest attribute: decl (1) + attr (1) + a Bool value (2).
        let n = r.varint()?;
        for _ in 0..r.count(n, 4)? {
            let decl = ClassId(r.varint()?);
            let attr = AttrId(r.varint()?);
            let value = get_value(&mut r)?;
            let ahead = match &value {
                Value::Ref(t) => !self.store.exists(*t),
                Value::RefSet(ts) => ts.iter().any(|t| !self.store.exists(*t)),
                _ => false,
            };
            if ahead {
                self.refs.push((oid, decl, attr, value));
            } else {
                set_decoded(&mut self.store, oid, decl, attr, value)?;
            }
        }
        if r.pos != record.len() {
            return Err(corrupt("trailing bytes after an object record"));
        }
        Ok(())
    }

    /// Set every reference that pointed forward and hand the store over.
    pub fn finish(mut self) -> Result<ObjectStore> {
        for (oid, decl, attr, value) in self.refs {
            set_decoded(&mut self.store, oid, decl, attr, value)?;
        }
        Ok(self.store)
    }
}

/// Set attribute `attr` declared by `decl`, as a record names it, through
/// the store's checked [`ObjectStore::set_attr`].
fn set_decoded(
    store: &mut ObjectStore,
    oid: Oid,
    decl: ClassId,
    attr: AttrId,
    value: Value,
) -> Result<()> {
    let schema = store.schema();
    let name = ((decl.0 as usize) < schema.num_classes())
        .then(|| schema.own_attrs(decl).nth(attr.0 as usize))
        .flatten()
        .map(|(_, name, _)| name.to_string())
        .ok_or_else(|| corrupt("object record names an undeclared attribute"))?;
    store.set_attr(oid, &name, value)?;
    Ok(())
}

impl ObjectStore {
    /// Serialize schema + all objects to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_schema(&mut buf, self.schema());
        let oids: Vec<Oid> = self.oids().collect();
        put_u32(&mut buf, oids.len() as u32);
        for oid in oids {
            let obj = self.get(oid).expect("live oid");
            put_u32(&mut buf, oid.0);
            put_u32(&mut buf, obj.class().0);
            let attrs: Vec<_> = obj.attrs().collect();
            put_u32(&mut buf, attrs.len() as u32);
            for ((decl, attr), value) in attrs {
                put_u32(&mut buf, decl.0);
                put_u32(&mut buf, attr.0);
                put_value(&mut buf, value);
            }
        }
        buf
    }

    /// The record of one object: class, then each set attribute as
    /// (declaring class, attribute id, value), ids as varints. The OID is
    /// not part of the record — whoever stores it keys it.
    pub fn record_bytes(&self, oid: Oid) -> Result<Vec<u8>> {
        let obj = self.get(oid)?;
        let mut buf = Vec::new();
        put_varint(&mut buf, obj.class().0);
        put_varint(&mut buf, obj.attrs().count() as u32);
        for ((decl, attr), value) in obj.attrs() {
            put_varint(&mut buf, decl.0);
            put_varint(&mut buf, attr.0);
            put_value(&mut buf, value);
        }
        Ok(buf)
    }
}
