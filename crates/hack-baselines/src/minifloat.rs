//! Low-precision floating-point (FP8 / FP6 / FP4) baselines (§3 of the paper).
//!
//! These formats compress the KV cache by 2–4× (well short of the ~86% achieved by
//! 2-bit quantization) and, on GPUs without native support (every pre-H100 part in the
//! paper's testbed), must be converted back to FP16 before computation — so they save
//! transfer bytes but not compute, and add a conversion step.
//!
//! Implemented formats:
//!
//! * FP8 **E4M3** and **E5M2** (the two OCP FP8 variants),
//! * FP6 **E3M2**,
//! * FP4 **E2M1**.
//!
//! Encoding uses round-to-nearest-even with saturation to the largest finite value
//! (the usual ML convention; infinities are not representable in E4M3/E2M1 payloads).

use crate::traits::{CompressedKv, KvCompressor};
use hack_tensor::{DetRng, Matrix};

/// FP8 format selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fp8Format {
    /// 4 exponent bits, 3 mantissa bits (higher precision, smaller range).
    E4M3,
    /// 5 exponent bits, 2 mantissa bits (lower precision, larger range).
    E5M2,
}

/// Generic minifloat parameterisation: `1 + exp_bits + man_bits` total bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinifloatSpec {
    /// Exponent field width in bits.
    pub exp_bits: u32,
    /// Mantissa field width in bits.
    pub man_bits: u32,
}

impl MinifloatSpec {
    /// Total storage bits (including the sign bit).
    pub fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Exponent bias.
    pub fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// Largest finite representable magnitude.
    pub fn max_value(&self) -> f32 {
        let max_exp = ((1 << self.exp_bits) - 1) - self.bias();
        let man_max = 2.0 - 2.0f32.powi(-(self.man_bits as i32));
        man_max * 2.0f32.powi(max_exp)
    }

    /// Encodes an `f32` into the minifloat bit pattern (in the low bits of the `u8`).
    pub fn encode(&self, value: f32) -> u8 {
        let sign = if value.is_sign_negative() { 1u8 } else { 0u8 };
        let sign_bits = sign << (self.exp_bits + self.man_bits);
        let v = value.abs();
        if v.is_nan() {
            // All-ones exponent + non-zero mantissa.
            return sign_bits | (((1 << self.exp_bits) - 1) << self.man_bits) as u8 | 1;
        }
        let max = self.max_value();
        if v >= max {
            // Saturate to the largest finite value.
            let exp_field = ((1 << self.exp_bits) - 1) as u8;
            let man_field = ((1 << self.man_bits) - 1) as u8;
            return sign_bits | (exp_field << self.man_bits) | man_field;
        }
        if v == 0.0 {
            return sign_bits;
        }
        // Decompose into exponent/mantissa in this format's terms.
        let exp = v.log2().floor() as i32;
        let exp_clamped = exp.max(1 - self.bias()); // subnormal threshold
        let biased = exp_clamped + self.bias();
        if biased <= 0 {
            // Subnormal: value = mantissa * 2^(1 - bias - man_bits)
            let step = 2.0f32.powi(1 - self.bias() - self.man_bits as i32);
            let q = (v / step).round() as u32;
            if q == 0 {
                return sign_bits;
            }
            if q >= (1 << self.man_bits) {
                // Rounded up into the normal range.
                return sign_bits | (1 << self.man_bits);
            }
            return sign_bits | q as u8;
        }
        // Normal: mantissa in [1, 2).
        let mant = v / 2.0f32.powi(exp_clamped);
        let man_scaled = ((mant - 1.0) * (1 << self.man_bits) as f32).round() as u32;
        let (mut exp_field, mut man_field) = (biased as u32, man_scaled);
        if man_field >= (1 << self.man_bits) {
            man_field = 0;
            exp_field += 1;
            if exp_field >= (1 << self.exp_bits) {
                // Overflowed past the top exponent: saturate.
                exp_field = (1 << self.exp_bits) - 1;
                man_field = (1 << self.man_bits) - 1;
            }
        }
        sign_bits | ((exp_field as u8) << self.man_bits) | man_field as u8
    }

    /// Decodes a minifloat bit pattern back to `f32`.
    pub fn decode(&self, bits: u8) -> f32 {
        let sign = if (bits >> (self.exp_bits + self.man_bits)) & 1 == 1 {
            -1.0f32
        } else {
            1.0
        };
        let exp_field = ((bits >> self.man_bits) & ((1 << self.exp_bits) - 1) as u8) as i32;
        let man_field = (bits & ((1 << self.man_bits) - 1) as u8) as f32;
        if exp_field == 0 {
            // Subnormal (or zero).
            let step = 2.0f32.powi(1 - self.bias() - self.man_bits as i32);
            return sign * man_field * step;
        }
        let mant = 1.0 + man_field / (1 << self.man_bits) as f32;
        sign * mant * 2.0f32.powi(exp_field - self.bias())
    }
}

/// FP8 spec lookup.
pub fn fp8_spec(format: Fp8Format) -> MinifloatSpec {
    match format {
        Fp8Format::E4M3 => MinifloatSpec {
            exp_bits: 4,
            man_bits: 3,
        },
        Fp8Format::E5M2 => MinifloatSpec {
            exp_bits: 5,
            man_bits: 2,
        },
    }
}

/// FP6 E3M2 spec.
pub const FP6_E3M2: MinifloatSpec = MinifloatSpec {
    exp_bits: 3,
    man_bits: 2,
};
/// FP4 E2M1 spec.
pub const FP4_E2M1: MinifloatSpec = MinifloatSpec {
    exp_bits: 2,
    man_bits: 1,
};

/// FP4 cast baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp4;
/// FP6 cast baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp6;

/// Generic minifloat cast compressor.
#[derive(Debug, Clone, Copy)]
pub struct MinifloatCast {
    /// The minifloat format used for storage.
    pub spec: MinifloatSpec,
    name: &'static str,
}

impl MinifloatCast {
    /// FP8 cast compressor.
    pub fn fp8(format: Fp8Format) -> Self {
        Self {
            spec: fp8_spec(format),
            name: "fp8",
        }
    }

    /// FP6 (E3M2) cast compressor.
    pub fn fp6() -> Self {
        Self {
            spec: FP6_E3M2,
            name: "fp6",
        }
    }

    /// FP4 (E2M1) cast compressor.
    pub fn fp4() -> Self {
        Self {
            spec: FP4_E2M1,
            name: "fp4",
        }
    }

    /// Storage bytes for `elements` values, with sub-byte formats densely packed per
    /// row of `row_len` values (rows are byte-aligned).
    pub fn storage_bytes(&self, rows: usize, row_len: usize) -> usize {
        let bits = self.spec.total_bits() as usize;
        rows * (row_len * bits).div_ceil(8)
    }
}

impl KvCompressor for MinifloatCast {
    fn name(&self) -> &'static str {
        self.name
    }

    fn compress(&self, m: &Matrix, _rng: &mut DetRng) -> CompressedKv {
        // Encode row-by-row as a packed bitstream (rows are byte-aligned).
        let bits = self.spec.total_bits();
        let mut payload = Vec::with_capacity(self.storage_bytes(m.rows(), m.cols()));
        for r in 0..m.rows() {
            let mut acc: u32 = 0;
            let mut filled: u32 = 0;
            for &v in m.row(r) {
                acc |= (self.spec.encode(v) as u32) << filled;
                filled += bits;
                while filled >= 8 {
                    payload.push((acc & 0xFF) as u8);
                    acc >>= 8;
                    filled -= 8;
                }
            }
            if filled > 0 {
                payload.push((acc & 0xFF) as u8);
            }
        }
        CompressedKv {
            payload,
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    fn decompress(&self, c: &CompressedKv) -> Matrix {
        let bits = self.spec.total_bits();
        let row_bytes = (c.cols * bits as usize).div_ceil(8);
        assert_eq!(
            c.payload.len(),
            c.rows * row_bytes,
            "corrupt minifloat payload"
        );
        let mask = (1u32 << bits) - 1;
        let mut out = Matrix::zeros(c.rows, c.cols);
        for r in 0..c.rows {
            let row = &c.payload[r * row_bytes..(r + 1) * row_bytes];
            let mut acc: u32 = 0;
            let mut filled: u32 = 0;
            let mut byte_idx = 0usize;
            for col in 0..c.cols {
                while filled < bits {
                    acc |= (row[byte_idx] as u32) << filled;
                    byte_idx += 1;
                    filled += 8;
                }
                let code = (acc & mask) as u8;
                acc >>= bits;
                filled -= bits;
                out.set(r, col, self.spec.decode(code));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tensor::{cosine_similarity, relative_frobenius_error};

    #[test]
    fn e4m3_known_values() {
        let spec = fp8_spec(Fp8Format::E4M3);
        assert_eq!(spec.total_bits(), 8);
        assert_eq!(spec.bias(), 7);
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 3.5, -0.25] {
            let got = spec.decode(spec.encode(v));
            assert_eq!(got, v, "value {v} should be exactly representable");
        }
    }

    #[test]
    fn e5m2_has_larger_range_than_e4m3() {
        let e4m3 = fp8_spec(Fp8Format::E4M3);
        let e5m2 = fp8_spec(Fp8Format::E5M2);
        assert!(e5m2.max_value() > e4m3.max_value());
        assert!(e4m3.max_value() > 400.0);
    }

    #[test]
    fn saturation_beyond_max() {
        let spec = FP4_E2M1;
        let max = spec.max_value();
        assert_eq!(spec.decode(spec.encode(1e6)), max);
        assert_eq!(spec.decode(spec.encode(-1e6)), -max);
    }

    #[test]
    fn fp4_grid_is_tiny() {
        // E2M1 represents only 0, 0.5, 1, 1.5, 2, 3, 4, 6 (and negatives).
        let spec = FP4_E2M1;
        let mut values: Vec<f32> = (0..16).map(|b| spec.decode(b as u8)).collect();
        values.sort_by(f32::total_cmp);
        assert_eq!(spec.max_value(), 6.0);
        assert!(values.contains(&1.5));
        assert!(values.contains(&-6.0));
    }

    #[test]
    fn zero_round_trips_for_all_formats() {
        for spec in [
            fp8_spec(Fp8Format::E4M3),
            fp8_spec(Fp8Format::E5M2),
            FP6_E3M2,
            FP4_E2M1,
        ] {
            assert_eq!(spec.decode(spec.encode(0.0)), 0.0);
        }
    }

    #[test]
    fn relative_error_shrinks_with_more_mantissa_bits() {
        let mut rng = DetRng::new(1);
        let values: Vec<f32> = (0..4000).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let err = |spec: MinifloatSpec| {
            values
                .iter()
                .map(|&v| (spec.decode(spec.encode(v)) - v).abs() as f64)
                .sum::<f64>()
                / values.len() as f64
        };
        let e_fp8 = err(fp8_spec(Fp8Format::E4M3));
        let e_fp6 = err(FP6_E3M2);
        let e_fp4 = err(FP4_E2M1);
        assert!(
            e_fp8 < e_fp6 && e_fp6 < e_fp4,
            "fp8 {e_fp8} fp6 {e_fp6} fp4 {e_fp4}"
        );
    }

    #[test]
    fn compressor_round_trip_and_sizes() {
        let mut rng = DetRng::new(2);
        let m = Matrix::random_normal(64, 128, 0.0, 1.0, &mut rng);
        for (cast, expected_ratio) in [
            (MinifloatCast::fp8(Fp8Format::E4M3), 0.5),
            (MinifloatCast::fp6(), 0.625),
            (MinifloatCast::fp4(), 0.75),
        ] {
            let c = cast.compress(&m, &mut rng);
            assert_eq!(c.bytes(), cast.storage_bytes(64, 128));
            assert!((c.compression_ratio() - expected_ratio).abs() < 1e-6);
            let back = cast.decompress(&c);
            assert_eq!(back.shape(), m.shape());
            assert!(cosine_similarity(&m, &back) > 0.85, "{}", cast.name());
        }
    }

    #[test]
    fn fp8_reconstruction_is_reasonably_accurate() {
        let mut rng = DetRng::new(3);
        let m = Matrix::random_normal(32, 64, 0.0, 1.0, &mut rng);
        let cast = MinifloatCast::fp8(Fp8Format::E4M3);
        let back = cast.decompress(&cast.compress(&m, &mut rng));
        assert!(relative_frobenius_error(&m, &back) < 0.05);
    }

    #[test]
    fn odd_column_counts_pack_correctly() {
        let mut rng = DetRng::new(4);
        let m = Matrix::random_normal(5, 13, 0.0, 1.0, &mut rng);
        let cast = MinifloatCast::fp4();
        let back = cast.decompress(&cast.compress(&m, &mut rng));
        assert_eq!(back.shape(), (5, 13));
    }

    #[test]
    fn nan_decodes_to_something_finite_or_nan_without_panicking() {
        let spec = fp8_spec(Fp8Format::E4M3);
        let bits = spec.encode(f32::NAN);
        let _ = spec.decode(bits);
    }

    #[test]
    fn names_are_distinct() {
        assert_eq!(MinifloatCast::fp8(Fp8Format::E5M2).name(), "fp8");
        assert_eq!(MinifloatCast::fp6().name(), "fp6");
        assert_eq!(MinifloatCast::fp4().name(), "fp4");
    }
}
