//! CacheGen-like baseline: delta encoding along the token axis + quantization +
//! entropy coding into a compact bitstream.
//!
//! CacheGen's key insight is that KV values of adjacent tokens in the same channel are
//! highly correlated, so encoding token-to-token *deltas* concentrates the distribution
//! around zero and makes it highly compressible (§2.2). This reproduction follows that
//! recipe:
//!
//! 1. Split the token axis into groups of [`CacheGenLike::anchor_interval`] tokens;
//!    the first token of each group is an **anchor** encoded directly, the rest are
//!    encoded as deltas from the previous token in the same channel.
//! 2. Quantize anchors and deltas with per-channel asymmetric quantization
//!    ([`CacheGenLike::anchor_bits`] / [`CacheGenLike::delta_bits`] bits, metadata
//!    in FP16).
//! 3. Entropy-code the concatenated code stream with the canonical Huffman coder from
//!    [`crate::entropy`] (the paper uses an arithmetic coder — same order-0 entropy
//!    class; the substitution is recorded in DESIGN.md).
//!
//! Decompression reverses the three steps and, like KVQuant, always dequantizes before
//! compute.

use crate::entropy;
use crate::traits::{CompressedKv, KvCompressor};
use hack_quant::params::{QuantBits, RoundingMode};
use hack_quant::stochastic::{dequantize_value, quantize_value, PartitionMeta};
use hack_tensor::{DetRng, Matrix};

/// CacheGen-like delta + entropy codec.
#[derive(Debug, Clone, Copy)]
pub struct CacheGenLike {
    /// Quantization precision of the per-group anchor values (kept high so drift does
    /// not accumulate across groups).
    pub anchor_bits: QuantBits,
    /// Quantization precision of the token-to-token deltas (low: deltas are small and
    /// concentrated around zero, which is what makes the bitstream compressible).
    pub delta_bits: QuantBits,
    /// Number of tokens per anchor group along the token axis.
    pub anchor_interval: usize,
}

impl Default for CacheGenLike {
    fn default() -> Self {
        Self {
            anchor_bits: QuantBits::Int8,
            delta_bits: QuantBits::Int2,
            anchor_interval: 64,
        }
    }
}

impl KvCompressor for CacheGenLike {
    fn name(&self) -> &'static str {
        "cachegen"
    }

    fn compress(&self, m: &Matrix, rng: &mut DetRng) -> CompressedKv {
        let tokens = m.rows();
        let channels = m.cols();
        let mut payload = Vec::new();
        payload.extend_from_slice(&(tokens as u32).to_le_bytes());
        payload.extend_from_slice(&(channels as u32).to_le_bytes());
        if tokens == 0 || channels == 0 {
            return CompressedKv {
                payload,
                rows: tokens,
                cols: channels,
            };
        }

        // Build the delta representation channel-by-channel, group-by-group.
        // `codes` is the symbol stream handed to the entropy coder; metadata (two FP16
        // per channel-group for anchors, two per channel-group for deltas) goes into a
        // side buffer.
        let groups = tokens.div_ceil(self.anchor_interval);
        let mut meta_bytes: Vec<u8> = Vec::with_capacity(groups * channels * 8);
        let mut codes: Vec<u8> = Vec::with_capacity(tokens * channels);

        for g in 0..groups {
            let start = g * self.anchor_interval;
            let end = (start + self.anchor_interval).min(tokens);
            for ch in 0..channels {
                // Anchor value and deltas for this channel within the group.
                let anchor = m.get(start, ch);
                let mut deltas = Vec::with_capacity(end - start - 1);
                for t in start + 1..end {
                    deltas.push(m.get(t, ch) - m.get(t - 1, ch));
                }
                // Quantize the anchor alone (degenerate one-value partition) and the
                // deltas with their own range.
                let anchor_meta = PartitionMeta::from_values(&[anchor], self.anchor_bits);
                let delta_meta = PartitionMeta::from_values(&deltas, self.delta_bits);
                push_meta(&mut meta_bytes, &anchor_meta);
                push_meta(&mut meta_bytes, &delta_meta);
                codes.push(quantize_value(
                    anchor,
                    &anchor_meta,
                    self.anchor_bits,
                    RoundingMode::Stochastic,
                    rng,
                ));
                for &d in &deltas {
                    codes.push(quantize_value(
                        d,
                        &delta_meta,
                        self.delta_bits,
                        RoundingMode::Stochastic,
                        rng,
                    ));
                }
            }
        }

        let encoded = entropy::encode(&codes);
        payload.extend_from_slice(&(meta_bytes.len() as u32).to_le_bytes());
        payload.extend_from_slice(&meta_bytes);
        payload.extend_from_slice(&encoded);
        CompressedKv {
            payload,
            rows: tokens,
            cols: channels,
        }
    }

    fn decompress(&self, c: &CompressedKv) -> Matrix {
        let payload = &c.payload;
        assert!(payload.len() >= 8, "CacheGen payload too short");
        let tokens = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
        let channels = u32::from_le_bytes(payload[4..8].try_into().unwrap()) as usize;
        if tokens == 0 || channels == 0 {
            return Matrix::zeros(tokens, channels);
        }
        let meta_len = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
        let meta_bytes = &payload[12..12 + meta_len];
        let codes = entropy::decode(&payload[12 + meta_len..]);

        let groups = tokens.div_ceil(self.anchor_interval);
        let mut out = Matrix::zeros(tokens, channels);
        let mut meta_idx = 0usize;
        let mut code_idx = 0usize;
        for g in 0..groups {
            let start = g * self.anchor_interval;
            let end = (start + self.anchor_interval).min(tokens);
            for ch in 0..channels {
                let anchor_meta = read_meta(meta_bytes, meta_idx);
                let delta_meta = read_meta(meta_bytes, meta_idx + 1);
                meta_idx += 2;
                let anchor = dequantize_value(codes[code_idx], &anchor_meta);
                code_idx += 1;
                out.set(start, ch, anchor);
                let mut prev = anchor;
                for t in start + 1..end {
                    let delta = dequantize_value(codes[code_idx], &delta_meta);
                    code_idx += 1;
                    prev += delta;
                    out.set(t, ch, prev);
                }
            }
        }
        out.to_f16_precision()
    }
}

fn push_meta(buf: &mut Vec<u8>, meta: &PartitionMeta) {
    buf.extend_from_slice(&hack_tensor::half::f32_to_f16_bits(meta.min).to_le_bytes());
    buf.extend_from_slice(&hack_tensor::half::f32_to_f16_bits(meta.scale).to_le_bytes());
}

fn read_meta(buf: &[u8], index: usize) -> PartitionMeta {
    let off = index * 4;
    assert!(buf.len() >= off + 4, "CacheGen metadata truncated");
    PartitionMeta {
        min: hack_tensor::half::f16_bits_to_f32(u16::from_le_bytes(
            buf[off..off + 2].try_into().unwrap(),
        )),
        scale: hack_tensor::half::f16_bits_to_f32(u16::from_le_bytes(
            buf[off + 2..off + 4].try_into().unwrap(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tensor::{cosine_similarity, relative_frobenius_error};

    /// KV-like data with strong token-to-token correlation (what CacheGen exploits).
    fn correlated_kv(tokens: usize, channels: usize, seed: u64) -> Matrix {
        let mut rng = DetRng::new(seed);
        let mut m = Matrix::zeros(tokens, channels);
        for ch in 0..channels {
            let mut value = rng.normal_f32(0.0, 1.0);
            for t in 0..tokens {
                value += rng.normal_f32(0.0, 0.05);
                m.set(t, ch, value + ((ch % 5) as f32 - 2.0) * 0.3);
            }
        }
        m
    }

    #[test]
    fn compresses_correlated_kv_beyond_80_percent() {
        let mut rng = DetRng::new(1);
        let m = correlated_kv(1024, 128, 2);
        let c = CacheGenLike::default().compress(&m, &mut rng);
        let ratio = c.compression_ratio();
        assert!(ratio > 0.80, "compression ratio {ratio}");
    }

    #[test]
    fn round_trip_is_accurate_on_correlated_data() {
        let mut rng = DetRng::new(3);
        let m = correlated_kv(512, 64, 4);
        let cg = CacheGenLike::default();
        let back = cg.decompress(&cg.compress(&m, &mut rng));
        assert_eq!(back.shape(), m.shape());
        let cos = cosine_similarity(&m, &back);
        assert!(cos > 0.97, "cosine {cos}");
        assert!(relative_frobenius_error(&m, &back) < 0.25);
    }

    #[test]
    fn short_sequences_round_trip() {
        let mut rng = DetRng::new(5);
        let m = correlated_kv(3, 16, 6);
        let cg = CacheGenLike::default();
        let back = cg.decompress(&cg.compress(&m, &mut rng));
        assert_eq!(back.shape(), (3, 16));
        assert!(cosine_similarity(&m, &back) > 0.9);
    }

    #[test]
    fn sequence_longer_than_anchor_interval_round_trips() {
        let mut rng = DetRng::new(7);
        let m = correlated_kv(200, 32, 8);
        let cg = CacheGenLike {
            anchor_bits: QuantBits::Int8,
            delta_bits: QuantBits::Int4,
            anchor_interval: 50,
        };
        let back = cg.decompress(&cg.compress(&m, &mut rng));
        assert!(cosine_similarity(&m, &back) > 0.95);
    }

    #[test]
    fn empty_matrix_round_trips() {
        let mut rng = DetRng::new(9);
        let m = Matrix::zeros(0, 8);
        let cg = CacheGenLike::default();
        let c = cg.compress(&m, &mut rng);
        let back = cg.decompress(&c);
        assert_eq!(back.shape(), (0, 8));
    }

    #[test]
    fn delta_coding_beats_direct_quantization_on_smooth_data() {
        // On strongly correlated data the delta stream has lower entropy than the raw
        // values, so CacheGen should compress better than plain 4-bit packing (0.75).
        let mut rng = DetRng::new(11);
        let m = correlated_kv(2048, 64, 12);
        let c = CacheGenLike::default().compress(&m, &mut rng);
        assert!(
            c.compression_ratio() > 0.78,
            "ratio {}",
            c.compression_ratio()
        );
    }

    #[test]
    fn name_and_flags() {
        assert_eq!(CacheGenLike::default().name(), "cachegen");
        assert!(!CacheGenLike::default().compute_on_compressed());
    }
}
