//! Typed values and their order-preserving, self-delimiting byte encoding.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use crate::oid::Oid;

/// Type tags, chosen so encodings of different kinds do not collide and
/// sort by kind first.
const TAG_BOOL: u8 = 0x08;
const TAG_INT: u8 = 0x10;
const TAG_FLOAT: u8 = 0x18;
const TAG_STR: u8 = 0x20;

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Single-valued reference (the m:1 REF relationship).
    Ref(Oid),
    /// Multi-valued reference; kept sorted and deduplicated.
    RefSet(Vec<Oid>),
}

/// The kind of a [`Value`], for type checking and error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Integer.
    Int,
    /// String.
    Str,
    /// Float.
    Float,
    /// Boolean.
    Bool,
    /// Single reference.
    Ref,
    /// Reference set.
    RefSet,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::Int => "Int",
            ValueKind::Str => "Str",
            ValueKind::Float => "Float",
            ValueKind::Bool => "Bool",
            ValueKind::Ref => "Ref",
            ValueKind::RefSet => "RefSet",
        };
        f.write_str(s)
    }
}

/// Extent of the string encoding at the front of `bytes` (which starts
/// with `TAG_STR`): the offset just past its terminating `0x00`, and the
/// number of `0x00 0xFF` escapes inside. `None` if the terminator is
/// missing.
fn str_extent(bytes: &[u8]) -> Option<(usize, usize)> {
    let mut i = 1;
    let mut escapes = 0;
    loop {
        i += bytes[i..].iter().position(|&b| b == 0)? + 1;
        if bytes.get(i) != Some(&0xFF) {
            return Some((i, escapes));
        }
        escapes += 1;
        i += 1;
    }
}

impl Value {
    /// The value's kind.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Str(_) => ValueKind::Str,
            Value::Float(_) => ValueKind::Float,
            Value::Bool(_) => ValueKind::Bool,
            Value::Ref(_) => ValueKind::Ref,
            Value::RefSet(_) => ValueKind::RefSet,
        }
    }

    /// Order-preserving, self-delimiting encoding of an indexable value.
    ///
    /// Properties: for two values of the same kind, byte order equals value
    /// order (floats use IEEE total order); and an encoding followed by any
    /// byte other than `0xFF` (index keys follow values with the `0x00`
    /// field separator) decodes unambiguously, so a composite key can be
    /// parsed left to right.
    ///
    /// Returns `None` for reference values.
    pub fn encode_ordered(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(10);
        self.encode_ordered_into(&mut out).then_some(out)
    }

    /// [`Value::encode_ordered`], appended to `out`. Returns `false`, and
    /// appends nothing, for a reference value.
    pub fn encode_ordered_into(&self, out: &mut Vec<u8>) -> bool {
        match self {
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(TAG_INT);
                // Flip the sign bit: negative < positive in unsigned order.
                out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
            }
            Value::Float(x) => {
                out.push(TAG_FLOAT);
                // IEEE-754 total order trick.
                let bits = x.to_bits();
                let ordered = if bits >> 63 == 1 {
                    !bits
                } else {
                    bits | (1 << 63)
                };
                out.extend_from_slice(&ordered.to_be_bytes());
            }
            Value::Str(s) => Value::encode_str_ordered(s, out),
            Value::Ref(_) | Value::RefSet(_) => return false,
        }
        true
    }

    /// Append the encoding of the string value `s` — the bytes
    /// [`Value::encode_ordered`] gives for `Value::Str` of it — for a
    /// caller that holds the string some other way.
    pub fn encode_str_ordered(s: &str, out: &mut Vec<u8>) {
        out.push(TAG_STR);
        // 0x00 bytes escaped as 0x00 0xFF; terminated with 0x00.
        for &b in s.as_bytes() {
            out.push(b);
            if b == 0 {
                out.push(0xFF);
            }
        }
        out.push(0x00);
    }

    /// Length of the encoding at the front of `bytes`, validated exactly as
    /// [`Value::decode_ordered`] would (tag, width, string terminator and
    /// UTF-8) but without building the value: `ordered_len(b)` equals
    /// `decode_ordered(b).map(|(_, n)| n)` on every input. This is what a
    /// key parser needs to find the field after the value, and it
    /// allocates nothing.
    pub fn ordered_len(bytes: &[u8]) -> Option<usize> {
        match *bytes.first()? {
            TAG_BOOL => matches!(bytes.get(1), Some(0 | 1)).then_some(2),
            TAG_INT | TAG_FLOAT => (bytes.len() >= 9).then_some(9),
            TAG_STR => {
                let (end, escapes) = str_extent(bytes)?;
                let body = &bytes[1..end - 1];
                if escapes == 0 {
                    std::str::from_utf8(body).ok()?;
                } else {
                    // An escape is `0x00 0xFF`, and 0xFF is never valid
                    // UTF-8, so validate the runs between escapes. A NUL
                    // is a whole character: no sequence spans an escape.
                    let mut rest = body;
                    while let Some(at) = rest.iter().position(|&b| b == 0) {
                        std::str::from_utf8(&rest[..at]).ok()?;
                        rest = &rest[at + 2..];
                    }
                    std::str::from_utf8(rest).ok()?;
                }
                Some(end)
            }
            _ => None,
        }
    }

    /// Decode an encoding produced by [`Value::encode_ordered`], returning
    /// the value and the number of bytes consumed. Only canonical bytes
    /// decode — a boolean is `0` or `1`, nothing else — so whatever decodes
    /// re-encodes to the bytes it came from.
    pub fn decode_ordered(bytes: &[u8]) -> Option<(Value, usize)> {
        match *bytes.first()? {
            TAG_BOOL => match *bytes.get(1)? {
                0 => Some((Value::Bool(false), 2)),
                1 => Some((Value::Bool(true), 2)),
                _ => None,
            },
            TAG_INT => {
                let raw = u64::from_be_bytes(bytes.get(1..9)?.try_into().ok()?);
                Some((Value::Int((raw ^ (1 << 63)) as i64), 9))
            }
            TAG_FLOAT => {
                let ordered = u64::from_be_bytes(bytes.get(1..9)?.try_into().ok()?);
                let bits = if ordered >> 63 == 1 {
                    ordered & !(1 << 63)
                } else {
                    !ordered
                };
                Some((Value::Float(f64::from_bits(bits)), 9))
            }
            TAG_STR => {
                let (s, end) = Value::decode_str_ordered(bytes)?;
                Some((Value::Str(s.into_owned()), end))
            }
            _ => None,
        }
    }

    /// Decode the string encoding at the front of `bytes`, returning the
    /// string and the number of bytes consumed. The string borrows from
    /// `bytes` unless it holds an escaped NUL, so a caller that keeps it
    /// elsewhere copies it once. `None` unless `bytes` starts with a
    /// well-formed string encoding.
    pub fn decode_str_ordered(bytes: &[u8]) -> Option<(Cow<'_, str>, usize)> {
        if bytes.first() != Some(&TAG_STR) {
            return None;
        }
        let (end, escapes) = str_extent(bytes)?;
        let body = &bytes[1..end - 1];
        if escapes == 0 {
            return Some((Cow::Borrowed(std::str::from_utf8(body).ok()?), end));
        }
        // One buffer of the exact decoded size, filled a run at a time:
        // each escape contributes its NUL and drops its 0xFF.
        let mut s = Vec::with_capacity(end - 2 - escapes);
        let mut rest = body;
        for _ in 0..escapes {
            let at = rest.iter().position(|&b| b == 0)?;
            s.extend_from_slice(&rest[..=at]);
            rest = &rest[at + 2..];
        }
        s.extend_from_slice(rest);
        Some((Cow::Owned(String::from_utf8(s).ok()?), end))
    }

    /// Total order consistent with [`Value::encode_ordered`] for indexable
    /// values (used by in-memory baselines and tests).
    pub fn cmp_ordered(&self, other: &Value) -> Ordering {
        match (self.encode_ordered(), other.encode_ordered()) {
            (Some(a), Some(b)) => a.cmp(&b),
            _ => Ordering::Equal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let enc = v.encode_ordered().unwrap();
        let (back, used) = Value::decode_ordered(&enc).unwrap();
        assert_eq!(&back, v);
        assert_eq!(used, enc.len());
        // Self-delimiting even with trailing junk.
        let mut padded = enc.clone();
        padded.extend_from_slice(&[0xAB, 0xCD]);
        let (back2, used2) = Value::decode_ordered(&padded).unwrap();
        assert_eq!(&back2, v);
        assert_eq!(used2, enc.len());
    }

    #[test]
    fn roundtrips() {
        for v in [
            Value::Int(0),
            Value::Int(42),
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Bool(true),
            Value::Bool(false),
            Value::Float(0.0),
            Value::Float(-1.5),
            Value::Float(1e300),
            Value::Float(f64::NEG_INFINITY),
            Value::Str(String::new()),
            Value::Str("hello".into()),
            Value::Str("with\0nul\0bytes".into()),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn a_string_decodes_borrowed_unless_it_holds_a_nul() {
        for (s, borrowed) in [("", true), ("abc", true), ("a\0b", false)] {
            let enc = Value::Str(s.into()).encode_ordered().unwrap();
            let mut appended = vec![0xAB];
            Value::encode_str_ordered(s, &mut appended);
            assert_eq!(appended[1..], enc[..]);
            let (got, used) = Value::decode_str_ordered(&enc).unwrap();
            assert_eq!((&*got, used), (s, enc.len()));
            assert_eq!(matches!(got, Cow::Borrowed(_)), borrowed, "{s:?}");
        }
        let int = Value::Int(1).encode_ordered().unwrap();
        assert!(Value::decode_str_ordered(&int).is_none());
    }

    #[test]
    fn int_order_preserved() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 7, 1_000_000, i64::MAX];
        for w in vals.windows(2) {
            let a = Value::Int(w[0]).encode_ordered().unwrap();
            let b = Value::Int(w[1]).encode_ordered().unwrap();
            assert!(a < b, "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn float_order_preserved() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            f64::INFINITY,
        ];
        for i in 0..vals.len() {
            for j in i + 1..vals.len() {
                let a = Value::Float(vals[i]).encode_ordered().unwrap();
                let b = Value::Float(vals[j]).encode_ordered().unwrap();
                // -0.0 and 0.0 encode distinctly (total order) but both
                // comparisons must not invert.
                if vals[i] < vals[j] {
                    assert!(a < b, "{} !< {}", vals[i], vals[j]);
                } else {
                    assert!(a <= b);
                }
            }
        }
    }

    #[test]
    fn string_order_preserved_with_nuls() {
        let vals = ["", "a", "a\0", "a\0b", "ab", "b"];
        for w in vals.windows(2) {
            let a = Value::Str(w[0].into()).encode_ordered().unwrap();
            let b = Value::Str(w[1].into()).encode_ordered().unwrap();
            assert!(a < b, "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn decoding_unambiguous_in_key_context() {
        // In a composite index key every value is followed by the 0x00
        // field separator; decoding must stop at exactly the value's end.
        let strs = ["", "a", "ab", "a\0", "aa", "a\0\0b"];
        for s in strs {
            let v = Value::Str(s.into());
            let enc = v.encode_ordered().unwrap();
            let mut key = enc.clone();
            key.push(0x00); // field separator
            key.extend_from_slice(b"NEXTFIELD");
            let (back, used) = Value::decode_ordered(&key).unwrap();
            assert_eq!(back, v, "string {s:?}");
            assert_eq!(used, enc.len(), "string {s:?}");
        }
    }

    #[test]
    fn only_canonical_booleans_decode() {
        for b in 0..=u8::MAX {
            let bytes = [TAG_BOOL, b];
            let want = (b <= 1).then_some((Value::Bool(b == 1), 2));
            assert_eq!(Value::decode_ordered(&bytes), want, "byte {b}");
            assert_eq!(Value::ordered_len(&bytes), want.map(|(_, n)| n), "byte {b}");
        }
    }

    #[test]
    fn refs_not_indexable() {
        assert!(Value::Ref(Oid(1)).encode_ordered().is_none());
        assert!(Value::RefSet(vec![]).encode_ordered().is_none());
    }

    #[test]
    fn kinds_sort_separately() {
        let b = Value::Bool(true).encode_ordered().unwrap();
        let i = Value::Int(i64::MIN).encode_ordered().unwrap();
        let f = Value::Float(f64::NEG_INFINITY).encode_ordered().unwrap();
        let s = Value::Str("".into()).encode_ordered().unwrap();
        assert!(b < i && i < f && f < s);
    }
}
