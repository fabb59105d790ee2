//! Byte-level helpers: varints, common prefixes, separator truncation.

use pagestore::{Error, Result};

/// Write `v` as a LEB128 varint at `*pos`, advancing it.
///
/// # Panics
/// Panics if `buf` is too short (callers size it with [`varint_len`]).
pub(crate) fn write_varint(buf: &mut [u8], pos: &mut usize, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf[*pos] = byte;
            *pos += 1;
            return;
        }
        buf[*pos] = byte | 0x80;
        *pos += 1;
    }
}

/// Size in bytes of `v` as a varint.
#[inline]
pub(crate) fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0x0FFF_FFFF => 4,
        _ => 5,
    }
}

/// Read a LEB128 varint at `*pos`, advancing it. The one-byte form — every
/// length in a page of short keys — takes one branch.
#[inline]
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u32> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(u32::from(byte))
        }
        _ => read_long_varint(buf, pos),
    }
}

#[cold]
fn read_long_varint(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let mut v: u32 = 0;
    let mut shift = 0;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| Error::Corrupt("varint past end of page".into()))?;
        *pos += 1;
        if shift >= 32 {
            return Err(Error::Corrupt("varint overflow".into()));
        }
        v |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Length of the longest common prefix of `a` and `b`.
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    // Eight bytes at a time: the first differing byte of a little-endian
    // word is its lowest set bit after XOR.
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff =
            u64::from_le_bytes(x.try_into().unwrap()) ^ u64::from_le_bytes(y.try_into().unwrap());
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The separator between a node ending in `left_max` and its right
/// sibling, which starts with `right_min`: with `truncate`, the shortest
/// `t` with `left_max < t <= right_min`, else `right_min` whole.
///
/// Truncation is prefix-B-tree suffix truncation: interior nodes only need
/// enough of a key to route correctly, which keeps them dense. Requires
/// `left_max < right_min`.
pub(crate) fn separator<'a>(left_max: &[u8], right_min: &'a [u8], truncate: bool) -> &'a [u8] {
    debug_assert!(left_max < right_min, "separator inputs out of order");
    let cp = common_prefix_len(left_max, right_min);
    // `right_min[..cp + 1]` always works: it differs from (or extends past)
    // `left_max` at position `cp` and is a prefix of `right_min`.
    let end = if truncate { cp + 1 } else { right_min.len() };
    &right_min[..end.min(right_min.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = [0u8; 64];
        let values = [0u32, 1, 127, 128, 300, 16383, 16384, 1 << 20, u32::MAX];
        let mut end = 0;
        for &v in &values {
            write_varint(&mut buf, &mut end, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf[..end], &mut pos).unwrap(), v);
        }
        assert_eq!(pos, end);
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u32, 5, 127, 128, 16383, 16384, 1 << 21, u32::MAX] {
            let mut buf = [0u8; 5];
            let mut end = 0;
            write_varint(&mut buf, &mut end, v);
            assert_eq!(end, varint_len(v), "value {v}");
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let mut buf = [0u8; 2];
        write_varint(&mut buf, &mut 0, 300);
        let mut pos = 0;
        assert!(read_varint(&buf[..1], &mut pos).is_err());
    }

    #[test]
    fn common_prefix() {
        assert_eq!(common_prefix_len(b"", b""), 0);
        assert_eq!(common_prefix_len(b"abc", b"abd"), 2);
        assert_eq!(common_prefix_len(b"abc", b"abc"), 3);
        assert_eq!(common_prefix_len(b"abc", b"abcdef"), 3);
        assert_eq!(common_prefix_len(b"xyz", b"abc"), 0);
        // Across and at the eight-byte word boundaries.
        let a = b"0123456789abcdefghij";
        for cut in 0..a.len() {
            let mut b = a.to_vec();
            b[cut] ^= 0x40;
            assert_eq!(common_prefix_len(a, &b), cut);
            assert_eq!(common_prefix_len(&a[..cut], a), cut);
        }
    }

    #[test]
    fn separator_truncation() {
        // Differ at first byte.
        assert_eq!(separator(b"apple", b"banana", true), b"b");
        // Common prefix then divergence.
        assert_eq!(separator(b"abcX", b"abcZ", true), b"abcZ");
        // Left is a strict prefix of right.
        assert_eq!(separator(b"abc", b"abcdef", true), b"abcd");
        // Adjacent keys of length 1.
        assert_eq!(separator(b"a", b"b", true), b"b");
    }

    #[test]
    fn separator_is_valid_for_many_pairs() {
        let keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("pre{:05}", i * 7).into_bytes())
            .collect();
        for w in keys.windows(2) {
            let t = separator(&w[0], &w[1], true);
            assert!(w[0].as_slice() < t);
            assert!(t <= w[1].as_slice());
        }
    }
}
