//! CRC-32 (IEEE 802.3), slice-by-16.
//!
//! The checksum sits on the per-fetch hot path ([`crate::ChecksumStore`]
//! verifies every page read), under every WAL record and over every wire
//! frame, so the classic bit-at-a-time loop is too slow. Slice-by-16
//! processes sixteen input bytes per step through sixteen 256-entry tables,
//! all computed at compile time — same polynomial (0xEDB88320, reflected),
//! same known-answer vectors, no dependencies.

/// Sixteen lookup tables: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The four table lookups for one little-endian word whose first byte is
/// `k + 3` bytes from the end of the step.
#[inline(always)]
fn fold(word: u32, k: usize) -> u32 {
    TABLES[k + 3][(word & 0xFF) as usize]
        ^ TABLES[k + 2][((word >> 8) & 0xFF) as usize]
        ^ TABLES[k + 1][((word >> 16) & 0xFF) as usize]
        ^ TABLES[k][(word >> 24) as usize]
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for c in chunks.by_ref() {
        let word = |at: usize| u32::from_le_bytes([c[at], c[at + 1], c[at + 2], c[at + 3]]);
        crc = fold(word(0) ^ crc, 12) ^ fold(word(4), 8) ^ fold(word(8), 4) ^ fold(word(12), 0);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original bit-at-a-time implementation, kept as the reference.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_bitwise_reference_at_every_length() {
        // Lengths 0..=256 cover every chunk/remainder split many times
        // over; pseudo-random bytes catch table-index mistakes a constant
        // fill would miss.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut data = Vec::new();
        for len in 0..=256 {
            while data.len() < len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                data.push((state >> 33) as u8);
            }
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "length {len}"
            );
        }
    }
}
