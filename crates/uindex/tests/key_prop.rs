//! Index keys are canonical: every byte string [`EntryKey::decode`] accepts
//! is the encoding of the entry it decodes to. That is what lets the server
//! send a leaf's stored key bytes as a wire row while the oracles judge
//! rows by `WireRow::from_hit` — [`EntryKey::encode`] of the decoded hit.

use objstore::{Oid, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use uindex::{EntryKey, KeyValue, PathElem};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        any::<f64>().prop_map(Value::Float),
        ".{0,12}".prop_map(Value::Str),
        // Embedded NULs, which the encoding escapes.
        vec(prop_oneof![Just('\0'), Just('a'), Just('\u{e9}')], 0..6)
            .prop_map(|chars| Value::Str(chars.into_iter().collect())),
    ]
}

fn arb_key() -> impl Strategy<Value = EntryKey> {
    // Codes never hold 0x00; past 30 bytes one leaves the inline buffer.
    let elem = (vec(1u8..=255, 1..40), any::<u32>());
    (any::<u16>(), arb_value(), vec(elem, 1..4)).prop_map(|(index_id, value, path)| EntryKey {
        index_id,
        value: KeyValue::try_from(&value).unwrap(),
        path: path
            .into_iter()
            .map(|(code, oid)| PathElem {
                code: code.as_slice().into(),
                oid: Oid(oid),
            })
            .collect(),
    })
}

/// Arbitrary bytes, and bytes near real keys: an encoding with a few bytes
/// overwritten, inserted or cut off.
fn arb_key_bytes() -> impl Strategy<Value = Vec<u8>> {
    let edit = (any::<usize>(), any::<u8>(), 0u8..3);
    prop_oneof![
        1 => vec(any::<u8>(), 0..48),
        3 => (arb_key(), vec(edit, 1..4)).prop_map(|(key, edits)| {
            let mut bytes = key.encode();
            for (at, byte, op) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ => bytes.truncate(at),
                }
            }
            bytes
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn whatever_decodes_re_encodes_to_the_same_bytes(bytes in arb_key_bytes()) {
        if let Ok(key) = EntryKey::decode(&bytes) {
            prop_assert_eq!(key.encode(), bytes, "decoded as {:?}", key);
        }
    }

    #[test]
    fn encode_decode_encode_is_the_identity(key in arb_key()) {
        let bytes = key.encode();
        let again = EntryKey::decode(&bytes).unwrap().encode();
        prop_assert_eq!(again, bytes);
    }
}

/// The first property is not vacuous: many of the damaged keys still
/// decode, so their re-encoding really is compared.
#[test]
fn damaged_keys_often_still_decode() {
    let strategy = arb_key_bytes();
    let mut rng = TestRng::from_seed(0x5EED);
    let decoded = (0..2000)
        .filter(|_| EntryKey::decode(&strategy.generate(&mut rng)).is_ok())
        .count();
    assert!(decoded >= 200, "only {decoded} of 2000 samples decoded");
}

/// The case that once broke the property: any boolean byte but 0 decoded
/// as `true`, which re-encodes as 1.
#[test]
fn a_boolean_byte_other_than_0_or_1_does_not_decode() {
    let key = |b: u8| {
        let mut bytes = vec![0, 7, 0x08, b, 0x00, b'B', 1, 0x00];
        bytes.extend(Oid(9).to_bytes());
        bytes
    };
    for b in [0, 1] {
        let decoded = EntryKey::decode(&key(b)).unwrap();
        assert_eq!(decoded.value, KeyValue::Bool(b == 1));
        assert_eq!(decoded.encode(), key(b));
    }
    for b in 2..=u8::MAX {
        assert!(EntryKey::decode(&key(b)).is_err(), "byte {b}");
    }
}
