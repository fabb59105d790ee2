//! Composite index-key encoding.
//!
//! ```text
//! key := index_id(u16 BE) ++ value_enc ++ 0x00 ++ elem*
//! elem := class_code_bytes ++ 0x00 ++ oid(u32 BE)
//! ```
//!
//! * `value_enc` is [`Value::encode_ordered`] of the entry's [`KeyValue`]
//!   (self-delimiting);
//! * class-code bytes never contain `0x00`, so the `0x00` after the code is
//!   an unambiguous terminator;
//! * OIDs are fixed-width, so no separator is needed before the next code;
//! * elements appear in ascending class-code order (guaranteed by the spec
//!   validation), giving the paper's clustering.

use std::sync::Arc;

use objstore::{Oid, Value};

use crate::error::{Error, Result};
use crate::inline::InlineVec;

/// Separator written after the value and after each class code.
pub const FIELD_SEP: u8 = 0x00;

/// The value an index key holds: a [`Value`] without the references,
/// which no key can hold. A string is an `Arc<str>`, so the hits of one
/// cluster share it and a carried hit copies a pointer; the scalars are
/// inline. Converts to and from `Value` (a `Ref` or `RefSet` has no
/// `KeyValue`) and prints exactly as the `Value` it converts to.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyValue {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl KeyValue {
    /// Append the value's order-preserving encoding
    /// ([`Value::encode_ordered`]) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let scalar = match *self {
            KeyValue::Str(ref s) => return Value::encode_str_ordered(s, out),
            KeyValue::Int(i) => Value::Int(i),
            KeyValue::Float(x) => Value::Float(x),
            KeyValue::Bool(b) => Value::Bool(b),
        };
        scalar.encode_ordered_into(out);
    }

    /// Decode the encoding at the front of `bytes`, returning the value and
    /// the number of bytes consumed. A string is copied straight from
    /// `bytes` into its one `Arc<str>` allocation (unless it holds an
    /// escaped NUL); a scalar allocates nothing.
    fn decode_ordered(bytes: &[u8]) -> Option<(KeyValue, usize)> {
        if let Some((s, n)) = Value::decode_str_ordered(bytes) {
            return Some((KeyValue::Str(Arc::from(&*s)), n));
        }
        let (value, n) = Value::decode_ordered(bytes)?;
        Some((KeyValue::try_from(&value).ok()?, n))
    }
}

impl TryFrom<&Value> for KeyValue {
    type Error = Error;

    /// The indexable value `value` is; [`Error::BadKey`] for a reference.
    fn try_from(value: &Value) -> Result<KeyValue> {
        Ok(match value {
            Value::Int(i) => KeyValue::Int(*i),
            Value::Str(s) => KeyValue::Str(Arc::from(s.as_str())),
            Value::Float(x) => KeyValue::Float(*x),
            Value::Bool(b) => KeyValue::Bool(*b),
            Value::Ref(_) | Value::RefSet(_) => {
                return Err(Error::BadKey("reference values are not indexable".into()))
            }
        })
    }
}

impl From<&KeyValue> for Value {
    fn from(value: &KeyValue) -> Value {
        match value {
            KeyValue::Int(i) => Value::Int(*i),
            KeyValue::Str(s) => Value::Str(s.to_string()),
            KeyValue::Float(x) => Value::Float(*x),
            KeyValue::Bool(b) => Value::Bool(*b),
        }
    }
}

/// A class code's bytes, inline up to 30 of them (a code grows about two
/// bytes per hierarchy level), so a decoded path element owns no heap
/// memory. Reads as `&[u8]`; build one with `.into()` from a slice or array.
pub type CodeBytes = InlineVec<u8, 30>;

/// One path element of an entry: the object's class code and its OID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathElem {
    /// The byte encoding of the object's class code.
    pub code: CodeBytes,
    /// The object.
    pub oid: Oid,
}

/// Where one path element sits in a key's bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ElemOffsets {
    /// Offset of the code's first byte within the key.
    pub start: usize,
    /// Offset of the separator byte after the code.
    pub sep: usize,
    /// Offset of the OID's first byte.
    pub oid_start: usize,
}

impl ElemOffsets {
    /// This element's OID bytes in `key`, the key it was parsed from.
    pub(crate) fn oid_bytes(&self, key: &[u8]) -> [u8; 4] {
        key[self.oid_start..self.oid_start + 4]
            .try_into()
            .expect("parse checked the oid width")
    }
}

/// Offset of the first [`FIELD_SEP`] in `bytes`, eight bytes at a time
/// (class codes run to a few dozen bytes and every examined entry has its
/// code scanned for the terminator).
fn find_sep(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        // Classic zero-byte test; borrows only propagate upward, so the
        // lowest flagged byte is exact.
        let zeros = word.wrapping_sub(LOW) & !word & HIGH;
        if zeros != 0 {
            return Some(at + (zeros.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == FIELD_SEP)
        .map(|i| at + i)
}

/// The field boundaries of one key: the crate's only key parser. The scan
/// matcher decides on these offsets without copying a field, a hit is
/// built from the same offsets ([`EntryKey::from_parsed`]), and
/// [`EntryKey::decode`] is parse-then-build. A `KeyOffsets` is meant to be
/// reused: [`KeyOffsets::parse`] refills the element buffer in place, so
/// parsing allocates nothing once the buffer has grown to the longest path.
#[derive(Debug, Default)]
pub(crate) struct KeyOffsets {
    /// Offset of the separator after the value field (the value encoding
    /// is `key[2..val_sep]`).
    pub val_sep: usize,
    /// One entry per path element, in key order.
    pub elems: Vec<ElemOffsets>,
}

impl KeyOffsets {
    /// Parse `key`, validating its shape: index id, a well-formed value
    /// encoding ([`Value::ordered_len`] — measured, not built), the
    /// separator, then zero or more `code 0x00 oid` elements with
    /// non-empty codes.
    pub(crate) fn parse(&mut self, key: &[u8]) -> Result<()> {
        self.elems.clear();
        let rest = key
            .get(2..)
            .ok_or_else(|| Error::BadKey("key shorter than index id".into()))?;
        let vlen = Value::ordered_len(rest)
            .ok_or_else(|| Error::BadKey("undecodable value field".into()))?;
        self.val_sep = 2 + vlen;
        if key.get(self.val_sep) != Some(&FIELD_SEP) {
            return Err(Error::BadKey("missing separator after value".into()));
        }
        let mut offset = self.val_sep + 1;
        while offset < key.len() {
            let code_len = find_sep(&key[offset..])
                .ok_or_else(|| Error::BadKey("unterminated class code".into()))?;
            let sep = offset + code_len;
            let oid_start = sep + 1;
            if oid_start + 4 > key.len() || code_len == 0 {
                return Err(Error::BadKey("truncated element".into()));
            }
            self.elems.push(ElemOffsets {
                start: offset,
                sep,
                oid_start,
            });
            offset = oid_start + 4;
        }
        Ok(())
    }
}

/// An entry's path elements in ascending class-code order. A
/// class-hierarchy entry has exactly one, which is held inline: only
/// longer paths own a heap vector. Reads as `&[PathElem]`; build one with
/// `.into()` from a `Vec<PathElem>` or by collecting an iterator.
#[derive(Clone)]
pub struct Path(PathRepr);

#[derive(Clone)]
enum PathRepr {
    One(PathElem),
    Many(Vec<PathElem>),
}

impl std::ops::Deref for Path {
    type Target = [PathElem];

    #[inline]
    fn deref(&self) -> &[PathElem] {
        match &self.0 {
            PathRepr::One(elem) => std::slice::from_ref(elem),
            PathRepr::Many(elems) => elems,
        }
    }
}

impl Path {
    pub(crate) fn last_mut(&mut self) -> Option<&mut PathElem> {
        match &mut self.0 {
            PathRepr::One(elem) => Some(elem),
            PathRepr::Many(elems) => elems.last_mut(),
        }
    }
}

impl From<Vec<PathElem>> for Path {
    fn from(mut elems: Vec<PathElem>) -> Self {
        if elems.len() == 1 {
            Path(PathRepr::One(elems.pop().expect("one element")))
        } else {
            Path(PathRepr::Many(elems))
        }
    }
}

impl FromIterator<PathElem> for Path {
    fn from_iter<I: IntoIterator<Item = PathElem>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        match (iter.next(), iter.next()) {
            (Some(only), None) => Path(PathRepr::One(only)),
            (first, second) => Path(PathRepr::Many(
                first.into_iter().chain(second).chain(iter).collect(),
            )),
        }
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A decoded index entry key.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryKey {
    /// Which index this entry belongs to.
    pub index_id: u16,
    /// The indexed attribute value.
    pub value: KeyValue,
    /// Path elements in ascending class-code order; a class-hierarchy entry
    /// has exactly one.
    pub path: Path,
}

impl EntryKey {
    /// Serialize to the B-tree key bytes.
    pub fn encode(&self) -> Vec<u8> {
        let value_len = match &self.value {
            KeyValue::Str(s) => s.len() + 2,
            _ => 9,
        };
        let mut out = Vec::with_capacity(2 + value_len + 1 + self.path.len() * 12);
        out.extend_from_slice(&self.index_id.to_be_bytes());
        self.value.encode_into(&mut out);
        out.push(FIELD_SEP);
        for e in self.path.iter() {
            debug_assert!(!e.code.contains(&FIELD_SEP));
            out.extend_from_slice(&e.code);
            out.push(FIELD_SEP);
            out.extend_from_slice(&e.oid.to_bytes());
        }
        out
    }

    /// Decode B-tree key bytes.
    pub fn decode(bytes: &[u8]) -> Result<EntryKey> {
        let mut offsets = KeyOffsets::default();
        offsets.parse(bytes)?;
        EntryKey::from_parsed(bytes, &offsets)
    }

    /// Build the entry from `key` and the `offsets` [`KeyOffsets::parse`]
    /// found in it, without scanning the key again: the value is decoded
    /// from its measured field and each element copied from its recorded
    /// range. A string value's `Arc<str>` is the only heap object of a
    /// one-element entry (scalars, class codes and a lone path element are
    /// inline); longer paths add their vector. Entries that share the
    /// value can share that string by cloning the `KeyValue`.
    pub(crate) fn from_parsed(key: &[u8], offsets: &KeyOffsets) -> Result<EntryKey> {
        let elem = |e: &ElemOffsets| PathElem {
            code: CodeBytes::from_slice(&key[e.start..e.sep]),
            oid: Oid::from_bytes(e.oid_bytes(key)),
        };
        let path = match offsets.elems.as_slice() {
            [] => return Err(Error::BadKey("entry has no path elements".into())),
            [only] => Path(PathRepr::One(elem(only))),
            many => Path(PathRepr::Many(many.iter().map(elem).collect())),
        };
        let (value, _) = KeyValue::decode_ordered(&key[2..offsets.val_sep])
            .ok_or_else(|| Error::BadKey("undecodable value field".into()))?;
        Ok(EntryKey {
            index_id: u16::from_be_bytes([key[0], key[1]]),
            value,
            path,
        })
    }

    /// Key prefix selecting an entire index: `[index_id]`.
    pub fn index_prefix(index_id: u16) -> Vec<u8> {
        index_id.to_be_bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: Value, path: Vec<(&[u8], u32)>) -> EntryKey {
        EntryKey {
            index_id: 7,
            value: KeyValue::try_from(&v).unwrap(),
            path: path
                .into_iter()
                .map(|(c, o)| PathElem {
                    code: c.into(),
                    oid: Oid(o),
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrip_single_position() {
        let k = key(Value::Str("Red".into()), vec![(&[b'N', 1], 42)]);
        let enc = k.encode();
        assert_eq!(EntryKey::decode(&enc).unwrap(), k);
    }

    #[test]
    fn roundtrip_path() {
        let k = key(
            Value::Int(50),
            vec![
                (&[b'B', 1], 3),
                (&[b'C', 1], 12),
                (&[b'E', 1, b'B', 1], 123),
            ],
        );
        let enc = k.encode();
        assert_eq!(EntryKey::decode(&enc).unwrap(), k);
    }

    #[test]
    fn ordering_groups_by_value_then_code_then_oid() {
        let ks = [
            key(Value::Int(1), vec![(&[b'B', 1], 9)]),
            key(Value::Int(1), vec![(&[b'B', 1, b'C', 1], 1)]),
            key(Value::Int(1), vec![(&[b'C', 1], 1)]),
            key(Value::Int(2), vec![(&[b'B', 1], 1)]),
        ];
        let encs: Vec<Vec<u8>> = ks.iter().map(|k| k.encode()).collect();
        for w in encs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn subtree_entries_cluster() {
        // Entries for code B and descendants B.C, B.C.D must be contiguous:
        // between B-entries and the next sibling's entries.
        let parent = key(Value::Int(1), vec![(&[b'B', 1], 1)]);
        let child = key(Value::Int(1), vec![(&[b'B', 1, b'C', 1], 1)]);
        let sibling = key(Value::Int(1), vec![(&[b'C', 1], 1)]);
        let pe = parent.encode();
        let ce = child.encode();
        let se = sibling.encode();
        assert!(pe < ce && ce < se);
    }

    #[test]
    fn different_indexes_do_not_interleave() {
        let a = key(Value::Int(999), vec![(&[b'Z', 1], u32::MAX)]);
        let mut b = key(Value::Int(-999), vec![(&[b'B', 1], 0)]);
        b.index_id = 8;
        assert!(a.encode() < b.encode());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(EntryKey::decode(&[]).is_err());
        assert!(EntryKey::decode(&[0, 7]).is_err());
        assert!(EntryKey::decode(&[0, 7, 0x10, 1, 2]).is_err());
        // Valid value but no path: `[index_id][value][sep]`.
        let mut p = EntryKey::index_prefix(7);
        p.extend_from_slice(&Value::Int(5).encode_ordered().unwrap());
        p.push(FIELD_SEP);
        assert!(EntryKey::decode(&p).is_err());
        // Unterminated code.
        let mut k = p.clone();
        k.extend_from_slice(&[b'N', 1]);
        assert!(EntryKey::decode(&k).is_err());
        // Truncated oid.
        let mut k = p;
        k.extend_from_slice(&[b'N', 1, 0, 1, 2]);
        assert!(EntryKey::decode(&k).is_err());
    }

    #[test]
    fn path_reads_alike_inline_and_on_the_heap() {
        let elem = |o: u32| PathElem {
            code: [b'B', 1].into(),
            oid: Oid(o),
        };
        let one: Path = vec![elem(1)].into();
        assert!(matches!(one.0, PathRepr::One(_)));
        assert_eq!(&*one, &[elem(1)]);
        assert_eq!(one, std::iter::once(elem(1)).collect::<Path>());
        // Equality is by contents, whichever way the path is held.
        assert_eq!(one, Path(PathRepr::Many(vec![elem(1)])));
        let two: Path = [elem(1), elem(2)].into_iter().collect();
        assert_eq!(&*two, &[elem(1), elem(2)]);
        assert_eq!(two, Path::from(vec![elem(1), elem(2)]));
        assert_ne!(one, two);
        assert!(std::iter::empty().collect::<Path>().is_empty());
        assert_eq!(format!("{one:?}"), format!("{:?}", [elem(1)]));
    }

    #[test]
    fn find_sep_agrees_with_a_byte_scan() {
        // 0x01 and 0x80.. neighbours are what a sloppy zero-byte test
        // mistakes for a zero.
        let noise = [
            0x01u8, 0x80, 0xFF, 0x7F, 0x81, 0x02, 0x01, 0x01, 0x80, 0x01, 0xFF,
        ];
        for len in 0..40 {
            let bytes: Vec<u8> = (0..len).map(|i| noise[i % noise.len()]).collect();
            assert_eq!(find_sep(&bytes), None, "len {len}");
            for zero in 0..len {
                let mut b = bytes.clone();
                b[zero] = 0;
                assert_eq!(find_sep(&b), Some(zero), "len {len}");
                if zero + 3 < len {
                    b[zero + 3] = 0;
                    assert_eq!(find_sep(&b), Some(zero), "first of two, len {len}");
                }
            }
        }
    }

    #[test]
    fn ref_value_not_encodable() {
        // A reference has no key value, so no entry key can hold one.
        for v in [Value::Ref(Oid(1)), Value::RefSet(vec![Oid(1), Oid(2)])] {
            assert!(
                matches!(KeyValue::try_from(&v), Err(Error::BadKey(_))),
                "{v:?}"
            );
        }
    }

    #[test]
    fn a_key_value_is_the_value_it_converts_to() {
        for v in [
            Value::Int(-3),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Str(String::new()),
            Value::Str("Red".into()),
            Value::Str("with\0nul".into()),
        ] {
            let kv = KeyValue::try_from(&v).unwrap();
            assert_eq!(Value::from(&kv), v);
            assert_eq!(format!("{kv:?}"), format!("{v:?}"));
            let mut enc = Vec::new();
            kv.encode_into(&mut enc);
            assert_eq!(Some(enc.clone()), v.encode_ordered());
            assert_eq!(KeyValue::decode_ordered(&enc), Some((kv, enc.len())));
        }
    }
}
