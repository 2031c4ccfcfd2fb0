//! Dense bit-packing of quantization codes.
//!
//! In-memory compute uses one byte per code (§6 widens 2-bit codes to INT8 before the
//! GEMM), but the KV cache and the prefill→decode transfer keep codes densely packed:
//! four 2-bit codes, two 4-bit codes or one 8-bit code per byte. This module provides
//! the pack/unpack routines used by the transport layer and by the byte-exact memory
//! accounting in `hack-kvcache`.

use crate::params::QuantBits;

/// Packs unpacked codes (one per byte, little-end-first within each byte) into a dense
/// byte vector.
///
/// # Panics
/// Panics if any code does not fit in the requested precision.
pub fn pack_codes(codes: &[u8], bits: QuantBits) -> Vec<u8> {
    let max = bits.max_code() as u8;
    let per_byte = bits.codes_per_byte();
    let width = bits.bits();
    let mut out = vec![0u8; bits.packed_bytes(codes.len())];
    for (i, &code) in codes.iter().enumerate() {
        assert!(code <= max, "code {code} does not fit in {width} bits");
        let byte = i / per_byte;
        let slot = (i % per_byte) as u32;
        out[byte] |= code << (slot * width);
    }
    out
}

/// Unpacks a dense byte vector back into one code per byte. `n` is the number of codes
/// originally packed (needed because the final byte may be partially used).
pub fn unpack_codes(packed: &[u8], bits: QuantBits, n: usize) -> Vec<u8> {
    let per_byte = bits.codes_per_byte();
    let width = bits.bits();
    let mask = bits.max_code() as u8;
    assert!(
        packed.len() >= bits.packed_bytes(n),
        "packed buffer too short: {} bytes for {} codes",
        packed.len(),
        n
    );
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let byte = packed[i / per_byte];
        let slot = (i % per_byte) as u32;
        out.push((byte >> (slot * width)) & mask);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tensor::DetRng;

    #[test]
    fn int2_pack_unpack_round_trip() {
        let codes = vec![0u8, 1, 2, 3, 3, 2, 1, 0, 1];
        let packed = pack_codes(&codes, QuantBits::Int2);
        assert_eq!(packed.len(), 3);
        assert_eq!(unpack_codes(&packed, QuantBits::Int2, codes.len()), codes);
    }

    #[test]
    fn int2_known_bit_layout() {
        // Codes 0,1,2,3 -> bits 11_10_01_00 = 0xE4.
        let packed = pack_codes(&[0, 1, 2, 3], QuantBits::Int2);
        assert_eq!(packed, vec![0xE4]);
    }

    #[test]
    fn int4_pack_unpack_round_trip() {
        let codes = vec![0u8, 15, 7, 8, 3];
        let packed = pack_codes(&codes, QuantBits::Int4);
        assert_eq!(packed.len(), 3);
        assert_eq!(unpack_codes(&packed, QuantBits::Int4, codes.len()), codes);
    }

    #[test]
    fn int8_pack_is_identity() {
        let codes = vec![0u8, 255, 128, 1];
        let packed = pack_codes(&codes, QuantBits::Int8);
        assert_eq!(packed, codes);
        assert_eq!(unpack_codes(&packed, QuantBits::Int8, 4), codes);
    }

    #[test]
    fn random_round_trips_all_precisions() {
        let mut rng = DetRng::new(2);
        for bits in [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8] {
            let n = 1000 + rng.range_usize(0, 7);
            let codes: Vec<u8> = (0..n)
                .map(|_| rng.range_usize(0, bits.levels() as usize) as u8)
                .collect();
            let packed = pack_codes(&codes, bits);
            assert_eq!(packed.len(), bits.packed_bytes(n));
            assert_eq!(unpack_codes(&packed, bits, n), codes);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_code_panics() {
        pack_codes(&[4], QuantBits::Int2);
    }

    #[test]
    fn empty_inputs() {
        assert!(pack_codes(&[], QuantBits::Int2).is_empty());
        assert!(unpack_codes(&[], QuantBits::Int2, 0).is_empty());
    }
}
