//! Property tests for the order-preserving value encoding: byte order must
//! match semantic order for arbitrary values of each kind, and every
//! encoding must round-trip (including when embedded in a longer buffer).

use objstore::Value;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        // Finite floats only: NaN has no semantic order to compare against.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        ".{0,12}".prop_map(Value::Str),
    ]
}

fn semantic_lt(a: &Value, b: &Value) -> Option<bool> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x < y),
        (Value::Bool(x), Value::Bool(y)) => Some(x < y),
        (Value::Float(x), Value::Float(y)) => Some(x < y),
        (Value::Str(x), Value::Str(y)) => Some(x.as_bytes() < y.as_bytes()),
        _ => None,
    }
}

proptest! {
    #[test]
    fn roundtrip_with_trailing_context(v in arb_value(), junk in proptest::collection::vec(1u8..=255, 0..8)) {
        let enc = v.encode_ordered().unwrap();
        // Standalone.
        let (back, used) = Value::decode_ordered(&enc).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(used, enc.len());
        // Followed by the key field separator and arbitrary non-0xFF data
        // (the shape inside real index keys).
        let mut key = enc.clone();
        key.push(0x00);
        key.extend(junk);
        let (back, used) = Value::decode_ordered(&key).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(used, enc.len());
    }

    #[test]
    fn byte_order_matches_semantic_order(a in arb_value(), b in arb_value()) {
        let ea = a.encode_ordered().unwrap();
        let eb = b.encode_ordered().unwrap();
        if let Some(lt) = semantic_lt(&a, &b) {
            if lt {
                prop_assert!(ea < eb, "{a:?} < {b:?} but bytes disagree");
            }
            if let Some(true) = semantic_lt(&b, &a) {
                prop_assert!(eb < ea);
            }
        }
    }

    #[test]
    fn equal_values_encode_identically(v in arb_value()) {
        let a = v.encode_ordered().unwrap();
        let b = v.clone().encode_ordered().unwrap();
        prop_assert_eq!(a, b);
    }

    /// `ordered_len` is `decode_ordered` without the value: same accepted
    /// inputs, same length — on real encodings (strings with embedded NULs
    /// encode to `0x00 0xFF` escapes) and on hostile bytes: every tag,
    /// truncated widths, escape/terminator soup, invalid UTF-8.
    #[test]
    fn ordered_len_agrees_with_decode_ordered(
        tag in prop_oneof![Just(0x08u8), Just(0x10), Just(0x18), Just(0x20), any::<u8>()],
        body in proptest::collection::vec(
            prop_oneof![3 => Just(0x00u8), 2 => Just(0xFF), 2 => Just(0xC3), 6 => any::<u8>()],
            0..24,
        ),
        v in arb_value(),
        nuls in proptest::collection::vec(0..12usize, 0..4),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        prop_assert_eq!(
            Value::ordered_len(&bytes),
            Value::decode_ordered(&bytes).map(|(_, n)| n),
            "on {:?}", &bytes
        );
        // A real value, with NULs forced into strings, in key context.
        let v = match v {
            Value::Str(mut s) => {
                for at in nuls {
                    let at = (0..=at.min(s.len())).rev().find(|&i| s.is_char_boundary(i)).unwrap();
                    s.insert(at, '\0');
                }
                Value::Str(s)
            }
            v => v,
        };
        let mut key = v.encode_ordered().unwrap();
        let len = key.len();
        prop_assert_eq!(Value::ordered_len(&key), Some(len));
        key.extend_from_slice(&[0x00, b'N', 1]);
        prop_assert_eq!(Value::ordered_len(&key), Some(len));
        prop_assert_eq!(Value::decode_ordered(&key), Some((v, len)));
    }
}
