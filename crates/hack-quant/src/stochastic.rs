//! Scalar asymmetric quantization with stochastic rounding (§5.2).
//!
//! A partition with range `[min, max]` and `b`-bit codes uses
//! `scale = (max - min) / (2^b - 1)` and maps a value `x` to
//! `code = round((x - min) / scale)`, where `round` is either stochastic (unbiased in
//! expectation) or nearest. Dequantization maps a code back to `min + scale * code`.

use crate::params::{QuantBits, RoundingMode};
use hack_tensor::DetRng;

/// Per-partition quantization metadata: minimum value and scale.
///
/// Stored in FP16 on the wire and in the cache (§6); kept as `f32` in memory here with
/// FP16 rounding applied at construction so the numerical behaviour matches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionMeta {
    /// Minimum value of the partition.
    pub min: f32,
    /// Scale value `(max - min) / (2^b - 1)`.
    pub scale: f32,
}

impl PartitionMeta {
    /// Computes metadata from a partition's `[min, max]` range.
    ///
    /// Degenerate partitions (constant values, or empty ranges) get `scale = 0`, which
    /// quantizes every element to code 0 and dequantizes back to `min` exactly.
    pub fn from_range(min: f32, max: f32, bits: QuantBits) -> Self {
        let denom = bits.max_code() as f32;
        let raw_scale = if max > min { (max - min) / denom } else { 0.0 };
        // The paper stores m and s in FP16 (§6); model that storage precision.
        Self {
            min: hack_tensor::half::round_to_f16(min),
            scale: hack_tensor::half::round_to_f16(raw_scale),
        }
    }

    /// Computes metadata directly from a slice of values.
    ///
    /// The range is the `f32::min`/`f32::max` fold over `values` (NaN entries are
    /// skipped), found with eight compare-select lanes. Without NaN, the lanes'
    /// minimum and maximum are the fold's, and the bits of a non-zero extreme are
    /// the only ones that compare equal to it. The two cases where the fold's order
    /// could pick other bits, a NaN in the slice or an extreme of ±0, take the
    /// scalar fold itself.
    pub fn from_values(values: &[f32], bits: QuantBits) -> Self {
        if values.is_empty() {
            return Self::from_range(0.0, 0.0, bits);
        }
        let mut mn = [f32::INFINITY; MINMAX_LANES];
        let mut mx = [f32::NEG_INFINITY; MINMAX_LANES];
        let mut nan = [false; MINMAX_LANES];
        let chunks = values.chunks_exact(MINMAX_LANES);
        let rest = chunks.remainder();
        for chunk in chunks {
            let chunk: &[f32; MINMAX_LANES] = chunk.try_into().expect("exact chunk");
            select_extremes(&mut mn, &mut mx, &mut nan, chunk);
        }
        select_extremes(&mut mn, &mut mx, &mut nan, rest);
        let (mut lo, mut hi) = (mn[0], mx[0]);
        for (&l, &h) in mn.iter().zip(&mx).skip(1) {
            lo = if l < lo { l } else { lo };
            hi = if h > hi { h } else { hi };
        }
        if nan.contains(&true) || lo == 0.0 || hi == 0.0 {
            (lo, hi) = min_max_fold(values);
        }
        Self::from_range(lo, hi, bits)
    }

    /// Bytes used to store this metadata on the wire / in the cache (two FP16 values).
    pub const STORAGE_BYTES: usize = 4;
}

/// Compare-select lanes of [`PartitionMeta::from_values`].
const MINMAX_LANES: usize = 8;

/// One compare-select step of [`PartitionMeta::from_values`]: lane `l` takes
/// `values[l]` as its new minimum (maximum) if it is smaller (larger), and notes a
/// NaN. `values` holds at most one entry per lane.
#[inline(always)]
fn select_extremes(
    mn: &mut [f32; MINMAX_LANES],
    mx: &mut [f32; MINMAX_LANES],
    nan: &mut [bool; MINMAX_LANES],
    values: &[f32],
) {
    for (((lo, hi), seen), &v) in mn.iter_mut().zip(mx).zip(nan).zip(values) {
        *lo = if v < *lo { v } else { *lo };
        *hi = if v > *hi { v } else { *hi };
        *seen |= v.is_nan();
    }
}

/// The `f32::min`/`f32::max` fold over a non-empty slice, in element order.
fn min_max_fold(values: &[f32]) -> (f32, f32) {
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for &v in values {
        mn = mn.min(v);
        mx = mx.max(v);
    }
    (mn, mx)
}

/// Rounds `x` (an arbitrary non-negative real in code space) to an integer using the
/// requested rounding mode, clamping into `[0, max_code]`.
///
/// # Panics
/// Panics if `max_code` exceeds 255 (codes are stored in one byte).
#[inline]
pub fn round_code(x: f32, max_code: u32, mode: RoundingMode, rng: &mut DetRng) -> u32 {
    let (floor, frac) = split_code(x, max_code);
    // `frac` is 0 at `max_code`, so rounding up never leaves `[0, max_code]`.
    floor + rounds_up(frac, mode, rng) as u32
}

/// The draw-free half of [`round_code`]: clamps `x` into `[0, max_code]` and splits it
/// into its floor and fractional part.
///
/// # Panics
/// Panics if `max_code` exceeds 255 (codes are stored in one byte).
#[inline(always)]
pub(crate) fn split_code(x: f32, max_code: u32) -> (u32, f32) {
    assert!(
        max_code <= u8::MAX as u32,
        "max_code {max_code} exceeds a byte"
    );
    let clamped = x.clamp(0.0, max_code as f32);
    // On `[0, max_code]` truncation is an exact floor, and the cast inlines where
    // `f32::floor` lowers to a libm call on the baseline x86-64 target. −0.0 and NaN
    // (which `clamp` passes through) both truncate to 0 and leave `frac` non-positive
    // or NaN, so they take code 0 without a draw, exactly as `floor` did.
    let in_range = if clamped >= 0.0 { clamped } else { 0.0 };
    // SAFETY: `in_range` is not NaN and lies in `[0, 255]`, which `i32` represents.
    // Unlike the saturating `as` cast, the unchecked one vectorizes on baseline
    // x86-64, so a loop of splits runs on packed instructions.
    let floor = unsafe { in_range.to_int_unchecked::<i32>() };
    (floor as u32, clamped - floor as f32)
}

/// The rounding decision of [`round_code`] for a fractional part `frac`; the only
/// step that draws from `rng`.
#[inline(always)]
pub(crate) fn rounds_up(frac: f32, mode: RoundingMode, rng: &mut DetRng) -> bool {
    match mode {
        RoundingMode::Nearest => frac >= 0.5,
        // Round up with probability equal to the fractional part, which makes the
        // rounding unbiased: E[round(x)] = x. Only the draw is conditional; adding the
        // comparison as 0/1 keeps the coin flip off the branch predictor.
        RoundingMode::Stochastic => frac > 0.0 && rng.next_f32() < frac,
    }
}

/// Quantizes a single value to its integer code.
#[inline]
pub fn quantize_value(
    x: f32,
    meta: &PartitionMeta,
    bits: QuantBits,
    mode: RoundingMode,
    rng: &mut DetRng,
) -> u8 {
    if meta.scale == 0.0 {
        return 0;
    }
    let normalised = (x - meta.min) / meta.scale;
    round_code(normalised, bits.max_code(), mode, rng) as u8
}

/// Dequantizes a single code back to an approximate real value.
#[inline]
pub fn dequantize_value(code: u8, meta: &PartitionMeta) -> f32 {
    meta.min + meta.scale * code as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_from_range_matches_formula() {
        let m = PartitionMeta::from_range(-1.0, 2.0, QuantBits::Int2);
        assert_eq!(m.min, -1.0);
        assert_eq!(m.scale, 1.0);
        let m8 = PartitionMeta::from_range(0.0, 255.0, QuantBits::Int8);
        assert_eq!(m8.scale, 1.0);
    }

    #[test]
    fn degenerate_range_has_zero_scale() {
        let m = PartitionMeta::from_range(3.0, 3.0, QuantBits::Int2);
        assert_eq!(m.scale, 0.0);
        let mut rng = DetRng::new(1);
        let c = quantize_value(3.0, &m, QuantBits::Int2, RoundingMode::Nearest, &mut rng);
        assert_eq!(c, 0);
        assert_eq!(dequantize_value(c, &m), 3.0);
    }

    #[test]
    fn from_values_finds_range() {
        let vals = [0.5, -2.0, 1.5, 0.0];
        let m = PartitionMeta::from_values(&vals, QuantBits::Int4);
        assert_eq!(m.min, -2.0);
        assert!((m.scale - 3.5 / 15.0).abs() < 2e-3); // fp16 rounding of the scale
    }

    #[test]
    fn lane_scan_matches_the_scalar_fold() {
        // The eight-lane scan must give the scalar fold's min and scale bits at every
        // length 0–200 (each lane residue, and the remainder loop), on inputs where
        // fold order matters (±0 extremes, NaN) and where it must not (±∞,
        // subnormals, ordinary values).
        fn fold(values: &[f32], bits: QuantBits) -> PartitionMeta {
            if values.is_empty() {
                PartitionMeta::from_range(0.0, 0.0, bits)
            } else {
                let (mn, mx) = min_max_fold(values);
                PartitionMeta::from_range(mn, mx, bits)
            }
        }
        let sub = f32::from_bits(3);
        let mut rng = DetRng::new(11);
        let pools: [&[f32]; 7] = [
            &[0.0, -0.0, 0.5, 1.0],
            &[0.0, -0.0, -0.5, -1.0],
            &[0.0, -0.0],
            &[f32::NAN, 0.25, -3.0, 0.0],
            &[f32::NAN],
            &[f32::INFINITY, f32::NEG_INFINITY, 1.0, -0.0],
            &[sub, -sub, f32::MIN_POSITIVE, 0.0, -0.0, 1e-40],
        ];
        for len in 0..=200 {
            let mut cases: Vec<Vec<f32>> = pools
                .iter()
                .map(|pool| {
                    (0..len)
                        .map(|_| pool[rng.range_usize(0, pool.len())])
                        .collect()
                })
                .collect();
            cases.push((0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect());
            // One extreme planted anywhere, including the remainder loop.
            if len > 0 {
                let mut spiked: Vec<f32> = (0..len).map(|_| rng.range_f32(1.0, 2.0)).collect();
                spiked[rng.range_usize(0, len)] = -0.0;
                cases.push(spiked);
            }
            for values in &cases {
                for bits in [QuantBits::Int2, QuantBits::Int8] {
                    let (got, expect) =
                        (PartitionMeta::from_values(values, bits), fold(values, bits));
                    assert_eq!(
                        (got.min.to_bits(), got.scale.to_bits()),
                        (expect.min.to_bits(), expect.scale.to_bits()),
                        "len {len} {bits:?} {values:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_values_are_degenerate() {
        let m = PartitionMeta::from_values(&[], QuantBits::Int2);
        assert_eq!(m.min, 0.0);
        assert_eq!(m.scale, 0.0);
    }

    #[test]
    fn nearest_rounding_is_exact_on_grid_points() {
        let mut rng = DetRng::new(1);
        let m = PartitionMeta::from_range(0.0, 3.0, QuantBits::Int2); // scale = 1
        for (x, expect) in [(0.0, 0u8), (1.0, 1), (2.0, 2), (3.0, 3)] {
            let c = quantize_value(x, &m, QuantBits::Int2, RoundingMode::Nearest, &mut rng);
            assert_eq!(c, expect);
            assert_eq!(dequantize_value(c, &m), x);
        }
    }

    #[test]
    fn codes_are_clamped_to_range() {
        let mut rng = DetRng::new(2);
        let m = PartitionMeta::from_range(0.0, 3.0, QuantBits::Int2);
        // Values outside the [min, max] range (possible after FP16 rounding of min/scale)
        // must clamp rather than wrap.
        let lo = quantize_value(
            -10.0,
            &m,
            QuantBits::Int2,
            RoundingMode::Stochastic,
            &mut rng,
        );
        let hi = quantize_value(
            10.0,
            &m,
            QuantBits::Int2,
            RoundingMode::Stochastic,
            &mut rng,
        );
        assert_eq!(lo, 0);
        assert_eq!(hi, 3);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let mut rng = DetRng::new(3);
        let m = PartitionMeta::from_range(0.0, 3.0, QuantBits::Int2); // scale 1
        let x = 1.3f32;
        let n = 200_000;
        let mut sum = 0u64;
        for _ in 0..n {
            sum +=
                quantize_value(x, &m, QuantBits::Int2, RoundingMode::Stochastic, &mut rng) as u64;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 1.3).abs() < 0.01, "stochastic mean {mean}");
    }

    #[test]
    fn stochastic_rounding_on_integers_is_deterministic() {
        let mut rng = DetRng::new(4);
        for code in 0..=3u32 {
            let got = round_code(code as f32, 3, RoundingMode::Stochastic, &mut rng);
            assert_eq!(got, code);
        }
    }

    #[test]
    fn round_code_boundaries_match_floor_and_draw_nothing() {
        // Integers (including max_code), −0.0 and NaN round to a fixed code with no
        // RNG draw, in both modes — so the cast-based floor leaves codes and the draw
        // stream exactly as `f32::floor` did.
        for bits in [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8] {
            let max = bits.max_code();
            let cases = (0..=max).map(|c| (c as f32, c)).chain([
                (-0.0, 0),
                (f32::NAN, 0),
                (max as f32 + 7.5, max),
                (-3.0, 0),
            ]);
            for (x, expect) in cases {
                for mode in [RoundingMode::Nearest, RoundingMode::Stochastic] {
                    let mut rng = DetRng::new(8);
                    assert_eq!(round_code(x, max, mode, &mut rng), expect, "{x} {mode:?}");
                    assert_eq!(rng.next_u64(), DetRng::new(8).next_u64(), "{x} drew");
                }
            }
        }
        // Between integers the cast truncates exactly like floor: nearest rounding
        // picks the closer neighbour, and stochastic rounding draws once.
        let mut rng = DetRng::new(9);
        assert_eq!(round_code(2.49, 3, RoundingMode::Nearest, &mut rng), 2);
        assert_eq!(round_code(2.5, 3, RoundingMode::Nearest, &mut rng), 3);
        let mut drawn = DetRng::new(10);
        let up = round_code(1.25, 3, RoundingMode::Stochastic, &mut drawn);
        let mut expect = DetRng::new(10);
        assert_eq!(up, if expect.next_f32() < 0.25 { 2 } else { 1 });
        assert_eq!(drawn.next_u64(), expect.next_u64());
    }

    #[test]
    #[should_panic(expected = "exceeds a byte")]
    fn round_code_rejects_codes_wider_than_a_byte() {
        round_code(300.0, 256, RoundingMode::Nearest, &mut DetRng::new(1));
    }

    #[test]
    fn quantization_error_bounded_by_scale() {
        let mut rng = DetRng::new(5);
        let vals: Vec<f32> = (0..256).map(|_| rng.range_f32(-4.0, 4.0)).collect();
        let meta = PartitionMeta::from_values(&vals, QuantBits::Int8);
        for &v in &vals {
            let c = quantize_value(
                v,
                &meta,
                QuantBits::Int8,
                RoundingMode::Stochastic,
                &mut rng,
            );
            let back = dequantize_value(c, &meta);
            // Stochastic rounding error is at most one full step.
            assert!(
                (back - v).abs() <= meta.scale * 1.001 + 1e-4,
                "v={v} back={back} scale={}",
                meta.scale
            );
        }
    }

    #[test]
    fn int2_error_bounded_by_quarter_range() {
        let mut rng = DetRng::new(6);
        let vals: Vec<f32> = (0..64).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let meta = PartitionMeta::from_values(&vals, QuantBits::Int2);
        for &v in &vals {
            let c = quantize_value(v, &meta, QuantBits::Int2, RoundingMode::Nearest, &mut rng);
            let back = dequantize_value(c, &meta);
            assert!((back - v).abs() <= meta.scale / 2.0 + 1e-3);
        }
    }

    #[test]
    fn metadata_storage_size() {
        assert_eq!(PartitionMeta::STORAGE_BYTES, 4);
    }
}
