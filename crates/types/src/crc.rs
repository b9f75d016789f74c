//! Checksums shared by every sealed on-disk and over-the-air format.
//!
//! The workspace seals three byte layouts — wire buckets (CRC-32 IEEE),
//! program snapshots and the service checkpoint manifest (both CRC-32C,
//! Castagnoli) — and ships no checksum crate. This module is the single
//! home for the compile-time table builder and the CRC-32C engine (a
//! 3-stream hardware path on SSE4.2 with a GF(2) combine, and a
//! table-driven software fallback pinned equal by test), so every format
//! checks bytes with the same property-tested code.

/// Builds the 256-entry lookup table for a reflected CRC-32 polynomial at
/// compile time — the container ships no checksum crate, and 10 lines of
/// const fn beat a dependency. Shared by the bucket seal (IEEE
/// 0xEDB88320), the snapshot seal and the checkpoint manifest seal (both
/// Castagnoli 0x82F63B78).
pub const fn crc_table(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32C (Castagnoli, reflected) lookup table for the software path.
const CRC32C_TABLE: [u32; 256] = crc_table(0x82F6_3B78);

/// CRC-32C over the little-endian byte serialization of `words`
/// (init all-ones, final xor, reflected) — table-driven fallback.
pub fn crc32c_soft(words: &[u32]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &w in words {
        for b in w.to_le_bytes() {
            c = CRC32C_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

/// CRC-32C over `words`, using the SSE4.2 `crc32` instruction when the
/// CPU has it and the table otherwise. Both paths compute the identical
/// function (pinned by a test below).
pub fn crc32c(words: &[u32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the feature check above guards the intrinsic.
        return unsafe { crc32c_hw(words) };
    }
    crc32c_soft(words)
}

/// Applies a GF(2) linear operator (32×32 bit matrix, `mat[i]` = the
/// image of bit `i`) to a CRC register.
fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// `square = mat ∘ mat` over GF(2).
fn gf2_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for i in 0..32 {
        square[i] = gf2_times(mat, mat[i]);
    }
}

/// Advances a raw (reflected, un-finalized) CRC-32C register across
/// `len` zero bytes in O(log len) matrix squarings — zlib's
/// `crc32_combine` construction with the Castagnoli polynomial. This is
/// what lets `crc32c_hw` split the message into three independent
/// instruction streams and still produce the one defined checksum:
/// `crc(A‖B) = shift(crc(A), len(B)) ^ crc0(B)` by linearity.
pub fn crc32c_shift(crc: u32, mut len: usize) -> u32 {
    if len == 0 || crc == 0 {
        return crc;
    }
    // Operator for one zero *bit* in the reflected representation:
    // bit 0 folds into the polynomial, every other bit shifts down.
    let mut odd = [0u32; 32];
    odd[0] = 0x82F6_3B78;
    for (i, op) in odd.iter_mut().enumerate().skip(1) {
        *op = 1u32 << (i - 1);
    }
    // Square three times: 1 bit → 2 → 4 → 8 = the one-zero-byte operator.
    let mut even = [0u32; 32];
    gf2_square(&mut even, &odd); // 2 bits
    gf2_square(&mut odd, &even); // 4 bits
    gf2_square(&mut even, &odd); // 8 bits = 1 byte
                                 // Binary ladder over `len`: `even` holds advance-by-2^k bytes.
    let mut result = crc;
    let mut next = odd;
    loop {
        if len & 1 != 0 {
            result = gf2_times(&even, result);
        }
        len >>= 1;
        if len == 0 {
            return result;
        }
        gf2_square(&mut next, &even);
        std::mem::swap(&mut next, &mut even);
    }
}

/// One unaligned 8-byte little-endian load from a `u32` slice.
///
/// # Safety
/// `i + 1 < words.len()` must hold.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn load_u64(words: &[u32], i: usize) -> u64 {
    debug_assert!(i + 1 < words.len());
    (words.as_ptr().add(i).cast::<u64>()).read_unaligned()
}

/// Hardware CRC-32C. The `crc32` instruction has 3-cycle latency but
/// 1-cycle throughput, so a single chained stream leaves two thirds of
/// the unit idle; this splits the message into three independent
/// streams of 8-byte steps and merges them with [`crc32c_shift`] — ~3×
/// the bytes per cycle, bit-identical result.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(words: &[u32]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u32, _mm_crc32_u64};
    // The instruction consumes its operand as the next message bytes in
    // little-endian order — exactly the defined layout.
    let total = words.len();
    if total < 48 {
        let mut c = 0xFFFF_FFFFu32;
        for &w in words {
            c = _mm_crc32_u32(c, w);
        }
        return c ^ 0xFFFF_FFFF;
    }
    // Streams A and B get the same even word count; C takes the rest
    // (at least as long as A, so the interleaved loop never overruns it).
    let a_len = (total / 3) & !1;
    let (a, rest) = words.split_at(a_len);
    let (b, c) = rest.split_at(a_len);
    let mut ra = 0xFFFF_FFFFu64;
    let mut rb = 0u64;
    let mut rc = 0u64;
    let mut i = 0;
    while i < a_len {
        // SAFETY: i + 1 < a_len ≤ b.len() ≤ c.len() inside the loop.
        ra = _mm_crc32_u64(ra, load_u64(a, i));
        rb = _mm_crc32_u64(rb, load_u64(b, i));
        rc = _mm_crc32_u64(rc, load_u64(c, i));
        i += 2;
    }
    let mut rc = rc as u32;
    for &w in &c[i..] {
        rc = _mm_crc32_u32(rc, w);
    }
    let ab = crc32c_shift(ra as u32, a_len * 4) ^ rb as u32;
    let abc = crc32c_shift(ab, c.len() * 4) ^ rc;
    abc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_and_software_crc32c_agree() {
        // Known-answer pinning the polynomial: CRC-32C of the ASCII
        // bytes "12345678" (two LE words) is 0x6087809A.
        let words = [0x3433_3231u32, 0x3837_3635]; // "12345678" LE
        assert_eq!(crc32c_soft(&words), 0x6087_809A);
        // Every length from the single-stream short path through the
        // 3-stream split (≥48 words), including each split remainder
        // class, plus larger lengths exercising deep combine ladders.
        let lengths = (0..160usize).chain([1000, 4093, 4096, 65_537]);
        for len in lengths {
            let words: Vec<u32> = (0..len as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0xA5A5_5A5A)
                .collect();
            assert_eq!(crc32c(&words), crc32c_soft(&words), "len {len}");
        }
    }

    #[test]
    fn crc_shift_matches_explicit_zero_padding() {
        // shift(reg, z) must equal running the register through z zero
        // bytes — checked against the table path on raw registers.
        for zeros in [0usize, 1, 2, 3, 7, 64, 1000] {
            for reg in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF] {
                let mut slow = reg;
                for _ in 0..zeros {
                    slow = CRC32C_TABLE[(slow & 0xFF) as usize] ^ (slow >> 8);
                }
                assert_eq!(crc32c_shift(reg, zeros), slow, "reg {reg:#x} zeros {zeros}");
            }
        }
    }
}
