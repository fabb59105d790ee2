//! Property tests for the order-preserving value encoding: byte order must
//! match semantic order for arbitrary values of each kind, and every
//! encoding must round-trip (including when embedded in a longer buffer).
//! The persistence decoders (schema section, records) answer hostile bytes
//! with a typed error, never a panic.

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

// ----- persistence decoders on hostile bytes ---------------------------------
//
// `RecordLoader::push` reads bytes that may come from a damaged page that
// still passes its checksum. It must answer with a typed error — never a
// panic, and never an allocation sized by a count the input merely claims.
// (The schema beside the records is the durable tier's header, whose
// decoder `uindex`'s object-tree tests hold to the same.)

use objstore::{Error, ObjectStore, Oid, RecordLoader};
use schema::{AttrType, Schema};

fn persisted_sample() -> ObjectStore {
    let mut s = Schema::new();
    let emp = s.add_class("Employee").unwrap();
    s.add_attr(emp, "Age", AttrType::Int).unwrap();
    s.add_attr(emp, "Name", AttrType::Str).unwrap();
    let veh = s.add_class("Vehicle").unwrap();
    s.add_attr(veh, "Owner", AttrType::Ref(emp)).unwrap();
    s.add_attr(veh, "CoOwners", AttrType::RefSet(emp)).unwrap();
    s.add_attr(veh, "Weight", AttrType::Float).unwrap();
    s.add_attr(veh, "Electric", AttrType::Bool).unwrap();
    let sport = s.add_subclass("SportsCar", veh).unwrap();
    let mut db = ObjectStore::new(s);
    let e1 = db.create(emp).unwrap();
    db.set_attr(e1, "Age", Value::Int(44)).unwrap();
    db.set_attr(e1, "Name", Value::Str("Ada".into())).unwrap();
    let e2 = db.create(emp).unwrap();
    let v = db.create(sport).unwrap();
    db.set_attr(v, "Owner", Value::Ref(e1)).unwrap();
    db.set_attr(v, "CoOwners", Value::RefSet(vec![e1, e2]))
        .unwrap();
    db.set_attr(v, "Weight", Value::Float(1234.5)).unwrap();
    db.set_attr(v, "Electric", Value::Bool(true)).unwrap();
    db
}

/// Overwrite `bytes[at..]` with `patch` (clipped), the way a forged count
/// or id lands in the middle of an otherwise valid image.
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
fn records_round_trip_through_the_loader() {
    let db = persisted_sample();
    let mut loader = RecordLoader::new(db.schema().clone());
    // Any order: references may point at objects pushed later.
    for oid in db.oids().collect::<Vec<_>>().into_iter().rev() {
        loader.push(oid, &db.record_bytes(oid).unwrap()).unwrap();
    }
    let mut back = loader.finish().unwrap();
    assert_eq!(back.to_bytes(), db.to_bytes());
    // The reverse-reference index is rebuilt too, and fresh OIDs do not
    // collide with reloaded ones.
    assert_eq!(back.referrers(Oid(1)).len(), db.referrers(Oid(1)).len());
    let emp = back.schema().class_by_name("Employee").unwrap();
    assert!(back.create(emp).unwrap().0 > 3);
    // The last OID cannot be stored: fresh OIDs are allocated above it.
    let mut loader = RecordLoader::new(db.schema().clone());
    assert!(loader.push(Oid(u32::MAX), &[0, 0]).is_err());
}

#[test]
fn forged_counts_are_refused_before_allocating() {
    // 4 billion members / attributes in a few bytes: each must be an
    // error, not a `Vec::with_capacity` of that size.
    let db = persisted_sample();
    let mut loader = RecordLoader::new(db.schema().clone());
    // class 1 (Vehicle), one attribute: CoOwners = RefSet of 2^32-1 members.
    let mut record = vec![1, 1, 1, 1, 5];
    record.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(loader.push(Oid(9), &record).is_err());
    // ... and a claimed 2^28 attributes in a six-byte record.
    let mut loader = RecordLoader::new(db.schema().clone());
    assert!(loader
        .push(Oid(9), &[1, 0x80, 0x80, 0x80, 0x80, 0x01])
        .is_err());
}

#[test]
fn every_truncated_record_is_reported_as_damage() {
    let db = persisted_sample();
    for victim in db.oids() {
        let record = db.record_bytes(victim).unwrap();
        for cut in 0..record.len() {
            let mut loader = RecordLoader::new(db.schema().clone());
            let err = loader.push(Oid(9), &record[..cut]).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt(_)),
                "{victim} cut at {cut} of {}: {err:?}",
                record.len()
            );
        }
    }
}

proptest! {
    #[test]
    fn record_decoder_survives_hostile_bytes(
        junk in proptest::collection::vec(any::<u8>(), 0..48),
        at in any::<usize>(),
        patch in arb_patch(),
        oid in prop_oneof![1u32..8, any::<u32>()],
    ) {
        let db = persisted_sample();
        for victim in db.oids() {
            let record = db.record_bytes(victim).unwrap();
            for bytes in [junk.clone(), patched(record.clone(), at, &patch), record[..at % record.len()].to_vec()] {
                let mut loader = RecordLoader::new(db.schema().clone());
                if loader.push(Oid(oid), &bytes).is_ok() {
                    let _ = loader.finish();
                }
            }
        }
    }
}
