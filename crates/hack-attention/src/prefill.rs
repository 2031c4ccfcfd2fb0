//! The `attn_prefill` kernel: fused QKV quantization + homomorphic self-attention for
//! the prefill stage (Fig. 5, steps 2–4, and §6).
//!
//! The prefill instance quantizes Q (INT8), K and V (INT2), computes the attention
//! scores with the homomorphic product `Q'·K'ᵀ`, applies the causal softmax, quantizes
//! the probabilities P (INT8) and computes the output with the homomorphic product
//! `P'·V'`. It also returns the ready-to-ship [`HackKvState`], built by
//! [`HackKvState::from_prefill`]. That call quantizes K and V a second time, with
//! fresh stochastic draws, so the K'/V' transferred to the decode instance are not the
//! codes the prefill products used.
//!
//! The kernel is causal end to end: query row `i` only touches keys `j ≤ i`. Each
//! skipped step either fed entries the causal mask discards or contributed exactly
//! zero, so for finite inputs the output, the state and the RNG stream are
//! bit-identical to the dense composition (full `L × L` scores, masked softmax, full P
//! quantization), which the tests keep as the oracle:
//!
//! * `Q'·K'ᵀ` is computed for `j ≤ i` only. The dense product's other entries were
//!   overwritten with −∞.
//! * Scaling and softmax run over the visible prefix. A masked entry adds
//!   `exp(−∞) = +0.0` to the positive softmax sum, which leaves it unchanged, and
//!   normalises to `+0.0`.
//! * P is quantized only up to the diagonal partition. A fully masked partition is all
//!   zeros, which quantizes to codes 0, `min = scale = 0` and sum 0 without an RNG
//!   draw, so skipping it leaves the draw stream unchanged.
//! * `P'·V'` skips those partitions. Each would add exactly `+0.0` to an accumulator
//!   that starts at `+0.0` and therefore never holds `−0.0`.
//!
//! No dense `L × L` f32 matrix is built: the scores live in one reusable row. P' is an
//! `L × L` one-byte code tensor whose partitions after each row's diagonal stay zero.
//!
//! Without Summation Elimination both products recompute every code sum of their
//! operands from the codes, as the dense products did, so the HACK/SE ablation still
//! pays for the work its `sum_recompute_ops` reports.

use crate::state::HackKvState;
use hack_quant::cost::HomomorphicOpCounts;
use hack_quant::qmatrix::quantize_partition;
use hack_quant::stochastic::PartitionMeta;
use hack_quant::{HackConfig, PartitionLayout, QuantizedTensor, RowProduct};
use hack_tensor::softmax::softmax_slice_inplace;
use hack_tensor::{DetRng, Matrix};

/// Result of the prefill attention kernel for one head.
#[derive(Debug, Clone)]
pub struct PrefillOutput {
    /// Self-attention output, `L × d_h`.
    pub output: Matrix,
    /// Decode-ready quantized KV state (what gets transferred to the decode instance).
    pub state: HackKvState,
    /// Operation counts of the `Q'·K'ᵀ` product, as the dense `L × L` Eq. 4 product
    /// counts them (the cost model's convention), although the causal kernel skips
    /// the masked half.
    pub qk_counts: HomomorphicOpCounts,
    /// Operation counts of the `P'·V'` product, dense like [`Self::qk_counts`].
    pub pv_counts: HomomorphicOpCounts,
}

/// Runs HACK prefill self-attention for a single head.
///
/// * `q`, `k`, `v`: `L × d_h` (the prompt's projections for this head).
pub fn hack_prefill_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: HackConfig,
    rng: &mut DetRng,
) -> PrefillOutput {
    assert_eq!(
        q.shape(),
        k.shape(),
        "Q and K must have identical shapes in prefill"
    );
    assert_eq!(
        k.shape(),
        v.shape(),
        "K and V must have identical shapes in prefill"
    );
    let (l, d_h) = q.shape();
    assert!(l > 0, "prefill requires at least one token");
    let pi = cfg.partition.get();
    // Without Summation Elimination every product recomputes its operands' code sums
    // from the codes instead of reading the stored ones.
    let se = cfg.summation_elimination;

    // Step 2: quantize Q (INT8, partitions along the head dimension) and K (INT2).
    let q_q = QuantizedTensor::quantize_rows(q, cfg.q_bits, pi, cfg.rounding, rng);
    let k_q = QuantizedTensor::quantize_rows(k, cfg.kv_bits, pi, cfg.rounding, rng);
    let (q_sums, k_sums) = (q_q.code_sums(se), k_q.code_sums(se));

    // Steps 3–4 and step 2 again, one query row at a time: homomorphic Q'·K'ᵀ over the
    // visible keys, scaled, causal softmax, then P quantized (INT8, partitions along
    // the sequence dimension) up to the diagonal partition. The partitions after it
    // keep codes 0 and zero metadata, which is what they quantize to, and are never
    // read.
    let scale = 1.0 / (d_h as f32).sqrt();
    let p_spans: Vec<(usize, usize)> = PartitionLayout::new(l, pi).ranges().collect();
    let n_parts = p_spans.len();
    let mut qk = RowProduct::with_sums(&k_q, &k_sums);
    let mut probs = vec![0.0f32; l];
    let mut p_codes = vec![0u8; l * l];
    let zero_meta = PartitionMeta {
        min: 0.0,
        scale: 0.0,
    };
    let mut p_metas = vec![zero_meta; l * n_parts];
    let mut p_sums = vec![0i32; l * n_parts];
    for i in 0..l {
        let visible = &mut probs[..=i];
        visible.fill(0.0);
        qk.accumulate(q_q.row_prefix(i, q_q.n_partitions(), &q_sums), visible);
        for s in visible.iter_mut() {
            *s *= scale;
        }
        softmax_slice_inplace(visible);
        // Entries past `i` are still zero (no earlier row reached them), so the masked
        // tail of the diagonal partition quantizes exactly as in the dense P.
        let row_codes = &mut p_codes[i * l..(i + 1) * l];
        for (p, &(s, e)) in p_spans[..=i / pi].iter().enumerate() {
            let (meta, sum) = quantize_partition(
                &probs[s..e],
                &mut row_codes[s..e],
                cfg.p_bits,
                cfg.rounding,
                rng,
            );
            p_metas[i * n_parts + p] = meta;
            p_sums[i * n_parts + p] = sum;
        }
    }
    // The scores are done. Freeing their right-operand copies before P'·V' builds
    // its own keeps the two off the same memory peak.
    drop(qk);
    let p_q = QuantizedTensor::from_parts(l, l, cfg.p_bits, pi, p_codes, p_metas, p_sums);
    let p_sums = p_q.code_sums(se);

    // Step 2 again for V (INT2, partitions along the sequence dimension), then step 3
    // again: homomorphic P'·V' over each row's partitions up to the diagonal.
    let v_q = QuantizedTensor::quantize_cols(v, cfg.kv_bits, pi, cfg.rounding, rng);
    let v_sums = v_q.code_sums(se);
    let mut pv = RowProduct::with_sums(&v_q, &v_sums);
    let mut output = Matrix::zeros(l, d_h);
    for i in 0..l {
        pv.accumulate(p_q.row_prefix(i, i / pi + 1, &p_sums), output.row_mut(i));
    }

    // Build the decode-ready KV state (honouring RQE for the trailing partial block).
    let state = HackKvState::from_prefill(k, v, cfg, rng);

    PrefillOutput {
        output,
        state,
        qk_counts: HomomorphicOpCounts::dense(l, l, d_h, pi, se),
        pv_counts: HomomorphicOpCounts::dense(l, d_h, l, pi, se),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{baseline_attention, AttentionMask};
    use hack_quant::homomorphic::homomorphic_matmul_counted;
    use hack_quant::{PartitionSize, RoundingMode};
    use hack_tensor::softmax::causal_softmax_rows;
    use hack_tensor::{cosine_similarity, relative_frobenius_error};

    /// The dense composition the causal kernel replaced, kept as its bit-exactness
    /// oracle: full `L × L` scores, masked softmax, P quantized in full.
    fn dense_prefill_oracle(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        cfg: HackConfig,
        rng: &mut DetRng,
    ) -> PrefillOutput {
        let d_h = q.cols();
        let pi = cfg.partition.get();
        let q_q = QuantizedTensor::quantize_rows(q, cfg.q_bits, pi, cfg.rounding, rng);
        let k_q = QuantizedTensor::quantize_rows(k, cfg.kv_bits, pi, cfg.rounding, rng);
        let (scores_raw, qk_counts) =
            homomorphic_matmul_counted(&q_q, &k_q, cfg.summation_elimination);
        let scores = scores_raw.scale(1.0 / (d_h as f32).sqrt());
        let probs = causal_softmax_rows(&scores, 0);
        let p_q = QuantizedTensor::quantize_rows(&probs, cfg.p_bits, pi, cfg.rounding, rng);
        let v_q = QuantizedTensor::quantize_cols(v, cfg.kv_bits, pi, cfg.rounding, rng);
        let (output, pv_counts) = homomorphic_matmul_counted(&p_q, &v_q, cfg.summation_elimination);
        let state = HackKvState::from_prefill(k, v, cfg, rng);
        PrefillOutput {
            output,
            state,
            qk_counts,
            pv_counts,
        }
    }

    fn bits_of(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn causal_prefill_is_bit_identical_to_dense_oracle() {
        // Lengths around partition boundaries and a long ragged one, every paper Π,
        // both rounding modes: outputs, shipped state, op counts and the next RNG
        // draw must all match the dense composition exactly. L = 65 runs without
        // Summation Elimination, whose counts differ.
        for l in [1usize, 63, 64, 65, 200, 731] {
            let (q, k, v) = structured_qkv(l, 64, 100 + l as u64);
            for pi in [32, 64, 128] {
                for rounding in [RoundingMode::Nearest, RoundingMode::Stochastic] {
                    let cfg = HackConfig {
                        partition: PartitionSize::new(pi).unwrap(),
                        rounding,
                        summation_elimination: l != 65,
                        ..HackConfig::paper_default()
                    };
                    let label = format!("L={l} Π={pi} {rounding:?}");
                    let mut rng_causal = DetRng::new(7 + pi as u64);
                    let mut rng_dense = DetRng::new(7 + pi as u64);
                    let got = hack_prefill_attention(&q, &k, &v, cfg, &mut rng_causal);
                    let expect = dense_prefill_oracle(&q, &k, &v, cfg, &mut rng_dense);
                    assert_eq!(bits_of(&got.output), bits_of(&expect.output), "{label}");
                    assert_eq!(got.state.k_quant(), expect.state.k_quant(), "{label}");
                    assert_eq!(got.state.v_quant(), expect.state.v_quant(), "{label}");
                    assert_eq!(
                        bits_of(got.state.v_tail()),
                        bits_of(expect.state.v_tail()),
                        "{label}"
                    );
                    assert_eq!(got.qk_counts, expect.qk_counts, "{label}");
                    assert_eq!(got.pv_counts, expect.pv_counts, "{label}");
                    assert_eq!(rng_causal.next_u64(), rng_dense.next_u64(), "{label}");
                }
            }
        }
    }

    fn structured_qkv(tokens: usize, d_h: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = DetRng::new(seed);
        let gen = |rng: &mut DetRng, spread: f32| {
            Matrix::from_fn(tokens, d_h, |t, c| {
                let base = ((c % 9) as f32 - 4.0) * spread;
                base + 0.3 * rng.normal_f32(0.0, 1.0) + 0.1 * ((t + c) as f32 * 0.01).sin()
            })
        };
        let q = gen(&mut rng, 0.3);
        let k = gen(&mut rng, 0.35);
        let v = gen(&mut rng, 0.4);
        (q, k, v)
    }

    #[test]
    fn prefill_output_tracks_baseline() {
        let (q, k, v) = structured_qkv(192, 64, 1);
        let mut rng = DetRng::new(2);
        let out = hack_prefill_attention(&q, &k, &v, HackConfig::paper_default(), &mut rng);
        let expect = baseline_attention(&q, &k, &v, AttentionMask::Causal);
        let cos = cosine_similarity(&expect, &out.output);
        assert!(cos > 0.95, "prefill cosine similarity {cos}");
        assert_eq!(out.output.shape(), (192, 64));
    }

    #[test]
    fn finer_partition_is_more_accurate() {
        let (q, k, v) = structured_qkv(256, 64, 3);
        let expect = baseline_attention(&q, &k, &v, AttentionMask::Causal);
        let mut rng_a = DetRng::new(4);
        let mut rng_b = DetRng::new(4);
        let fine = hack_prefill_attention(&q, &k, &v, HackConfig::with_partition(32), &mut rng_a);
        let coarse =
            hack_prefill_attention(&q, &k, &v, HackConfig::with_partition(128), &mut rng_b);
        let e_fine = relative_frobenius_error(&expect, &fine.output);
        let e_coarse = relative_frobenius_error(&expect, &coarse.output);
        assert!(
            e_fine < e_coarse * 1.05,
            "Π=32 error {e_fine} should not exceed Π=128 error {e_coarse}"
        );
    }

    #[test]
    fn returned_state_matches_prompt_length() {
        let (q, k, v) = structured_qkv(200, 64, 5);
        let mut rng = DetRng::new(6);
        let out = hack_prefill_attention(&q, &k, &v, HackConfig::paper_default(), &mut rng);
        assert_eq!(out.state.seq_len(), 200);
        assert_eq!(out.state.quantized_tokens(), 192);
        assert_eq!(out.state.tail_tokens(), 8);
    }

    #[test]
    fn op_counts_cover_both_products() {
        let (q, k, v) = structured_qkv(128, 64, 7);
        let mut rng = DetRng::new(8);
        let out = hack_prefill_attention(&q, &k, &v, HackConfig::paper_default(), &mut rng);
        // Q·Kᵀ: M=N=128, Z=64. P·V: M=128, Z=128, N=64.
        assert_eq!(out.qk_counts.int_mac_ops, 128 * 128 * 64);
        assert_eq!(out.pv_counts.int_mac_ops, 128 * 64 * 128);
        assert_eq!(out.qk_counts.sum_recompute_ops, 0);
    }

    #[test]
    fn single_token_prompt_output_is_value_row() {
        let (q, k, v) = structured_qkv(1, 64, 9);
        let mut rng = DetRng::new(10);
        let out = hack_prefill_attention(&q, &k, &v, HackConfig::paper_default(), &mut rng);
        // With one token, P = [1] exactly, so the output is the (quantized) V row; the
        // only error comes from V's 2-bit quantization.
        let cos = cosine_similarity(&out.output, &v);
        assert!(cos > 0.9, "single-token cosine {cos}");
    }

    #[test]
    fn causal_structure_is_respected() {
        // Token 0's output must not depend on later tokens: computing prefill on the
        // first token alone and on the full prompt must give similar row 0.
        let (q, k, v) = structured_qkv(64, 32, 11);
        let mut rng_a = DetRng::new(12);
        let mut rng_b = DetRng::new(12);
        let cfg = HackConfig::paper_default();
        let full = hack_prefill_attention(&q, &k, &v, cfg, &mut rng_a);
        let first = hack_prefill_attention(
            &q.row_block(0, 1),
            &k.row_block(0, 1),
            &v.row_block(0, 1),
            cfg,
            &mut rng_b,
        );
        let row_full = Matrix::from_vec(1, 32, full.output.row(0).to_vec());
        let row_first = Matrix::from_vec(1, 32, first.output.row(0).to_vec());
        let cos = cosine_similarity(&row_full, &row_first);
        assert!(cos > 0.9, "causal first-row cosine {cos}");
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_prompt_panics() {
        let q = Matrix::zeros(0, 64);
        let k = Matrix::zeros(0, 64);
        let v = Matrix::zeros(0, 64);
        let mut rng = DetRng::new(13);
        hack_prefill_attention(&q, &k, &v, HackConfig::paper_default(), &mut rng);
    }
}
