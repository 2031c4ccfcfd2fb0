//! Software IEEE-754 binary16 ("FP16") emulation.
//!
//! The paper stores unquantized activations and KV data in FP16 and computes the
//! baseline/dequantized paths in FP16. This module provides bit-exact conversions
//! between `f32` and the 16-bit format (round-to-nearest-even, with correct handling of
//! subnormals, infinities and NaN) so the reproduction can model FP16 *storage*
//! precision on a CPU that computes in `f32`.

/// A 16-bit IEEE-754 binary16 value stored as its raw bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

const F16_EXP_BIAS: i32 = 15;
const F32_EXP_BIAS: i32 = 127;
/// The FP16 subnormal step, 2⁻²⁴: a subnormal with mantissa `m` is `m × 2⁻²⁴`.
const F16_SUBNORMAL_STEP: f32 = 1.0 / (1u32 << 24) as f32;

impl F16 {
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);

    /// Converts an `f32` to FP16 with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        F16(f32_to_f16_bits(value))
    }

    /// Converts this FP16 value to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Returns true if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns true if the value is finite (not NaN, not infinite).
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

/// Converts `f32` bits to binary16 bits using round-to-nearest-even.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Infinity or NaN.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            // Preserve a quiet NaN; keep at least one mantissa bit set.
            sign | 0x7C00 | ((mant >> 13) as u16).max(1)
        };
    }

    // Unbiased exponent.
    let unbiased = exp - F32_EXP_BIAS;
    let half_exp = unbiased + F16_EXP_BIAS;

    if half_exp >= 0x1F {
        // Overflow to infinity.
        return sign | 0x7C00;
    }

    if half_exp <= 0 {
        // Subnormal in FP16 (or underflow to zero).
        if half_exp < -10 {
            // Too small even for a subnormal: round to zero.
            return sign;
        }
        // Add the implicit leading 1 and shift right to form the subnormal mantissa.
        let mant_with_hidden = mant | 0x0080_0000;
        let shift = (14 - half_exp) as u32; // between 14 and 24
        let half_mant = (mant_with_hidden >> shift) as u16;
        // Round-to-nearest-even on the bits shifted out.
        let round_bit = 1u32 << (shift - 1);
        let remainder = mant_with_hidden & ((1u32 << shift) - 1);
        let mut result = sign | half_mant;
        if remainder > round_bit || (remainder == round_bit && (half_mant & 1) == 1) {
            result = result.wrapping_add(1);
        }
        return result;
    }

    // Normalised case.
    let mut half_mant = (mant >> 13) as u16;
    let mut half_e = half_exp as u16;
    let remainder = mant & 0x1FFF;
    if remainder > 0x1000 || (remainder == 0x1000 && (half_mant & 1) == 1) {
        half_mant = half_mant.wrapping_add(1);
        if half_mant == 0x0400 {
            // Mantissa overflowed into the exponent.
            half_mant = 0;
            half_e += 1;
            if half_e >= 0x1F {
                return sign | 0x7C00;
            }
        }
    }
    sign | (half_e << 10) | half_mant
}

/// Converts binary16 bits to an `f32` exactly (binary16 is a subset of binary32).
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x03FF) as u32;

    let out_bits = if exp == 0 {
        // Zero or subnormal: the value is exactly `mant × 2⁻²⁴`. The integer
        // converts exactly, and scaling by a power of two lands on a normal
        // `f32`, so the product is exact; the sign goes back in as a bit.
        sign | (mant as f32 * F16_SUBNORMAL_STEP).to_bits()
    } else if exp == 0x1F {
        if mant == 0 {
            sign | 0x7F80_0000
        } else {
            sign | 0x7FC0_0000 | (mant << 13)
        }
    } else {
        let f32_exp = (exp as i32 - F16_EXP_BIAS + F32_EXP_BIAS) as u32;
        sign | (f32_exp << 23) | (mant << 13)
    };
    f32::from_bits(out_bits)
}

/// Rounds an `f32` to the nearest representable FP16 value and returns it as `f32`.
///
/// This is how the workspace models FP16 *storage*: values are kept in `f32` containers
/// but squeezed through binary16 precision whenever the paper's pipeline would have
/// materialised them in FP16.
pub fn round_to_f16(value: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(value))
}

/// Applies [`round_to_f16`] to every element of a slice in place.
pub fn round_slice_to_f16(values: &mut [f32]) {
    for v in values.iter_mut() {
        *v = round_to_f16(*v);
    }
}

/// The pre-change [`f16_bits_to_f32`], which normalised subnormals with a shift
/// loop, kept verbatim as its bit-exactness oracle.
#[cfg(test)]
fn f16_bits_to_f32_loop(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x03FF) as u32;

    let out_bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalise it into the f32 representation.
            let mut e = 0i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03FF;
            let f32_exp = ((e + 1 - F16_EXP_BIAS + F32_EXP_BIAS) as u32) << 23;
            sign | f32_exp | (m << 13)
        }
    } else if exp == 0x1F {
        if mant == 0 {
            sign | 0x7F80_0000
        } else {
            sign | 0x7FC0_0000 | (mant << 13)
        }
    } else {
        let f32_exp = (exp as i32 - F16_EXP_BIAS + F32_EXP_BIAS) as u32;
        sign | (f32_exp << 23) | (mant << 13)
    };
    f32::from_bits(out_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subnormal_decode_matches_the_shift_loop_on_every_pattern() {
        for bits in 0u16..=0xFFFF {
            assert_eq!(
                f16_bits_to_f32(bits).to_bits(),
                f16_bits_to_f32_loop(bits).to_bits(),
                "bits {bits:#06x}"
            );
        }
    }

    #[test]
    fn zero_round_trips() {
        assert_eq!(F16::from_f32(0.0).0, 0);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(0.0).to_f32(), 0.0);
    }

    #[test]
    fn one_round_trips() {
        assert_eq!(F16::from_f32(1.0), F16::ONE);
        assert_eq!(F16::ONE.to_f32(), 1.0);
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::from_f32(0.5).to_f32(), 0.5);
        assert_eq!(F16::from_f32(-2.0).to_f32(), -2.0);
    }

    #[test]
    fn overflow_becomes_infinity() {
        assert_eq!(F16::from_f32(1.0e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1.0e6), F16::NEG_INFINITY);
    }

    #[test]
    fn nan_is_preserved() {
        let nan = F16::from_f32(f32::NAN);
        assert!(nan.is_nan());
        assert!(nan.to_f32().is_nan());
    }

    #[test]
    fn infinity_round_trips() {
        assert_eq!(F16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        let sub = 3.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32(1.0e-10).to_f32(), 0.0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next FP16 value (1 + 2^-10);
        // round-to-nearest-even must pick 1.0 (even mantissa).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(round_to_f16(halfway), 1.0);
        // Slightly above halfway must round up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-13);
        assert_eq!(round_to_f16(above), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn relative_error_is_bounded_for_normals() {
        // FP16 has a 10-bit mantissa, so relative rounding error <= 2^-11.
        let mut rng = crate::rng::DetRng::new(42);
        for _ in 0..10_000 {
            let x = rng.range_f32(-1000.0, 1000.0);
            if x.abs() < 1e-3 {
                continue;
            }
            let r = round_to_f16(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 2.0f32.powi(-11) + 1e-7, "x={x} r={r} rel={rel}");
        }
    }

    #[test]
    fn exhaustive_f16_to_f32_to_f16_identity() {
        // Every finite f16 bit pattern must survive a round trip through f32.
        for bits in 0u16..=0xFFFF {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.0, bits, "bits {bits:#06x} -> {:#06x}", back.0);
        }
    }

    #[test]
    fn round_slice_matches_scalar() {
        let mut values = vec![0.1, -3.7, 12345.678, 1e-5];
        let expect: Vec<f32> = values.iter().map(|&v| round_to_f16(v)).collect();
        round_slice_to_f16(&mut values);
        assert_eq!(values, expect);
    }
}
