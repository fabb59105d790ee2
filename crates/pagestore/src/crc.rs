//! CRC-32 (IEEE 802.3): carry-less-multiply folding, slice-by-16 around it.
//!
//! The checksum sits on the per-fetch hot path ([`crate::ChecksumStore`]
//! verifies every page read), under every WAL record and file header and
//! over every wire frame, where a 2 000-row reply is ≈ 112 KB that the
//! server seals and the client verifies. One polynomial (0xEDB88320,
//! reflected), two loops, the same values:
//!
//! - **Folding kernel** (x86_64 with `pclmulqdq` and `sse4.1`, detected at
//!   run time): an input of at least 64 bytes hands its largest multiple of
//!   16 bytes to it. It folds four 128-bit lanes per 64-byte step with
//!   carry-less multiplies, folds them into one, takes the remaining 16-byte
//!   steps, and Barrett-reduces the result to 32 bits (Gopal et al., "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009; zlib's `crc32_simd.c`). About ten times the table loop's
//!   speed from 1 KiB up.
//! - **Slice-by-16 table loop**: sixteen input bytes per step through
//!   sixteen 256-entry tables computed at compile time. It takes what the
//!   kernel cannot: inputs under 64 bytes (file headers, the WAL's commit,
//!   allocate and free records, short frames: the kernel starts with four
//!   whole lanes), the last 0–15 bytes behind the kernel, and every input
//!   on a CPU or architecture without the instructions.

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
    let mut rest = data;
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 {
        let (bulk, tail) = data.split_at(data.len() & !15);
        if let Some(folded) = clmul::update(crc, bulk) {
            crc = folded;
            rest = tail;
        }
    }
    !crc32_table(crc, rest)
}

/// The slice-by-16 loop: the CRC register `crc` (pre-inverted, as
/// [`crc32`] keeps it) continued over `data`.
fn crc32_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for c in chunks.by_ref() {
        let word = |at: usize| u32::from_le_bytes([c[at], c[at + 1], c[at + 2], c[at + 3]]);
        crc = fold(word(0) ^ crc, 12) ^ fold(word(4), 8) ^ fold(word(8), 4) ^ fold(word(12), 0);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_extract_epi32, _mm_set_epi64x,
        _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected polynomial 0xEDB88320: x^k mod P
    // for the fold distances, bit-reflected and shifted left by one (Gopal
    // et al., 2009). K1/K2 fold a lane across 64 bytes (four lanes), K3/K4
    // across 16 bytes (one lane), K5 folds 64 bits into 32; P is the
    // polynomial itself and MU = floor(x^64 / P), for the Barrett reduction.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The CRC register `crc` continued over `data` (at least 64 bytes, a
    /// multiple of 16) by the folding kernel, or `None` when this CPU lacks
    /// the instructions.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `kernel` needs nothing of its caller but the two target
        // features it is compiled with, and this CPU has just been checked
        // for both; it reads `data` through safe slice operations only.
        Some(unsafe { kernel(crc, data) })
    }

    /// Sixteen input bytes as one lane, least significant byte first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(bytes: &[u8; 16]) -> __m128i {
        let lo = u64::from_le_bytes([
            bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
        ]);
        let hi = u64::from_le_bytes([
            bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
        ]);
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` carried `k`'s distance forward and added to `next`: the low half
    /// of `x` times the low constant plus its high half times the high one.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn kernel(crc: u32, data: &[u8]) -> u32 {
        let (lanes, rest) = data.as_chunks::<16>();
        debug_assert!(rest.is_empty(), "the kernel takes whole lanes");
        let (blocks, tail) = lanes.as_chunks::<4>();
        let (first, blocks) = blocks
            .split_first()
            .expect("the kernel takes 64 bytes or more");

        // Four lanes in flight; the register enters with the first.
        let mut x0 = _mm_xor_si128(lane(&first[0]), _mm_set_epi64x(0, i64::from(crc)));
        let mut x1 = lane(&first[1]);
        let mut x2 = lane(&first[2]);
        let mut x3 = lane(&first[3]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            x0 = fold(x0, k1k2, lane(&block[0]));
            x1 = fold(x1, k1k2, lane(&block[1]));
            x2 = fold(x2, k1k2, lane(&block[2]));
            x3 = fold(x3, k1k2, lane(&block[3]));
        }

        // Four lanes into one, then one lane per remaining 16 bytes.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
        for next in tail {
            x = fold(x, k3k4, lane(next));
        }

        // 128 bits into 64, then 64 into 32 (kept in the low half of each
        // 64-bit half by `low32`).
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction: the quotient by P from MU, then the remainder.
        let poly = _mm_set_epi64x(MU, P);
        let q = _mm_and_si128(
            _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly),
            low32,
        );
        x = _mm_xor_si128(x, _mm_clmulepi64_si128::<0x00>(q, poly));
        _mm_extract_epi32::<1>(x) as u32
    }
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

    /// `len` pseudo-random bytes: catch table-index and lane-order mistakes
    /// a constant fill would miss.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    /// Every length 0..=1100 (each lane and 64-byte block split many times
    /// over) and a page and a frame's worth around powers of two.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=1100).chain([4095, 4096, 4097, 65_541])
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // A 1 KiB page of bytes 0, 1, …, 255 four times: long enough for
        // the kernel, so its value is pinned independently of the loops.
        let page: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        assert_eq!(crc32(&page), 0xB70B_4C26);
    }

    #[test]
    fn table_loop_matches_bitwise_reference() {
        let data = noise(65_541 + 16);
        for len in lengths() {
            for at in [0, 1, 7, 15] {
                let bytes = &data[at..at + len];
                assert_eq!(
                    !crc32_table(!0, bytes),
                    crc32_bitwise(bytes),
                    "length {len} at {at}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        // Starting offsets 0..16 inside one buffer: every alignment of the
        // kernel's 16-byte loads.
        let data = noise(65_541 + 16);
        for len in lengths() {
            for at in 0..16 {
                let bytes = &data[at..at + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "length {len} at {at}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_matches_bitwise_reference() {
        // The kernel alone, from the initial register and from a register
        // part-way through a message (the table loop's prefix), over every
        // whole-lane length it accepts and every alignment.
        let data = noise(65_541 + 16 + 7);
        let (head, data) = data.split_at(7);
        let mid = crc32_table(!0, head);
        for len in lengths().filter(|l| *l >= 64 && l % 16 == 0) {
            for at in 0..16 {
                let bytes = &data[at..at + len];
                let Some(crc) = clmul::update(!0, bytes) else {
                    eprintln!("no pclmulqdq/sse4.1 on this CPU: kernel untested");
                    return;
                };
                assert_eq!(!crc, crc32_bitwise(bytes), "length {len} at {at}");
                let whole = [head, bytes].concat();
                assert_eq!(
                    clmul::update(mid, bytes).map(|c| !c),
                    Some(crc32_bitwise(&whole)),
                    "length {len} at {at} behind a 7-byte prefix"
                );
            }
        }
    }
}
