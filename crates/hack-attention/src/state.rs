//! Per-head HACK KV state and the `attn_decode` kernel (§5.3, §6).
//!
//! [`HackKvState`] is the decode-side data structure holding, for one attention head:
//!
//! * the 2-bit quantized K codes, partitioned along the **head** dimension — every new
//!   token's K forms fresh partitions, so existing metadata never changes;
//! * the 2-bit quantized V codes, partitioned along the **sequence** dimension —
//!   together with per-partition `min`/`scale` metadata and per-partition code sums
//!   (Summation Elimination);
//! * the FP16 tail buffer holding the last, partial block of V (Requantization
//!   Elimination): new tokens are accumulated here in FP16 and only quantized once a
//!   full partition of Π tokens is available, so older codes are never requantized and
//!   no extra quantization error accumulates (Fig. 8).
//!
//! Both optimizations can be switched off via [`HackConfig`] to reproduce the HACK/SE
//! and HACK/RQE ablations.
//!
//! With Summation Elimination the state also keeps the Eq. 4 right-operand lanes of
//! K' and V' ([`RightLanes`]): their metadata and stored code sums as the `f32`
//! records the homomorphic product's epilogue reads. The constructors build them,
//! and [`HackKvState::append_token`] grows them with the tensors: one lane per new
//! K' token, and for V' a re-layout when a partition is added (a tail flush under
//! RQE, or the first token of a new partition without it) or, without RQE, a rewrite
//! of the requantized last partition. Decode therefore does metadata work
//! proportional to the new token, not to the sequence, and its products are
//! bit-identical to [`homomorphic_matmul_counted`] on the same tensors. Each product
//! is one row-kernel call ([`hack_quant::RowProduct`]) for the step's single query
//! or probability row over every block of eight K' or V' rows, so a longer sequence
//! adds loop iterations, not kernel calls. Without Summation Elimination no lanes
//! are kept: every decode step recomputes the code sums and lays out the lanes
//! afresh, the work the HACK/SE ablation counts. The lanes are a host-side compute
//! layout, not KV data, so [`HackKvState::kv_bytes`] leaves them out.

use hack_quant::cost::HomomorphicOpCounts;
use hack_quant::homomorphic::{homomorphic_matmul_counted, homomorphic_matmul_with_lanes};
use hack_quant::qmatrix::AppendStats;
use hack_quant::{HackConfig, QuantizedTensor, RightLanes};
use hack_tensor::matmul::vecmat_acc;
use hack_tensor::softmax::softmax_slice_inplace;
use hack_tensor::{DetRng, Matrix};

/// Operation statistics of one decode attention step, used by the analytical cost model
/// cross-checks and the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStepStats {
    /// Integer multiply-accumulates executed on quantized codes.
    pub int_mac_ops: usize,
    /// Floating-point operations spent on the Eq. 4 approximation.
    pub approx_ops: usize,
    /// Operations spent recomputing partition sums (non-zero only without SE).
    pub sum_recompute_ops: usize,
    /// FP16 multiply-accumulates spent on the unquantized V tail (RQE path).
    pub tail_fp_ops: usize,
    /// Elements requantized while appending (non-zero only without RQE).
    pub requantized_elements: usize,
}

impl DecodeStepStats {
    fn add_product(&mut self, counts: HomomorphicOpCounts) {
        self.int_mac_ops += counts.int_mac_ops;
        self.approx_ops += counts.approx_ops;
        self.sum_recompute_ops += counts.sum_recompute_ops;
    }
}

/// Decode-side quantized KV state for a single attention head.
#[derive(Debug, Clone)]
pub struct HackKvState {
    cfg: HackConfig,
    head_dim: usize,
    /// Quantized K: `tokens × head_dim`, partitioned along the head dimension.
    k: QuantizedTensor,
    /// Quantized V: `head_dim × quantized_tokens`, partitioned along the sequence
    /// dimension (stores Vᵀ).
    v: QuantizedTensor,
    /// FP16 tail of V: `tail_tokens × head_dim`, token-major, `tail_tokens < Π`.
    v_tail: Matrix,
    /// Eq. 4 right-operand lanes of `k` and `v`, kept with Summation Elimination only.
    lanes: Option<KvLanes>,
    /// Cumulative append statistics.
    append_stats: AppendStats,
}

/// The [`RightLanes`] of K' (for `Q'·K'ᵀ`) and V' (for `P'·V'`).
#[derive(Debug, Clone)]
struct KvLanes {
    k: RightLanes,
    v: RightLanes,
}

impl HackKvState {
    /// Builds the state from the prefill-stage K and V (`L × d_h` each).
    ///
    /// With Requantization Elimination, only whole partitions of V are quantized; the
    /// remaining `L mod Π` tokens stay in the FP16 tail. Without it, all of V is
    /// quantized immediately (and will be requantized as tokens arrive).
    pub fn from_prefill(k: &Matrix, v: &Matrix, cfg: HackConfig, rng: &mut DetRng) -> Self {
        assert_eq!(k.shape(), v.shape(), "K and V must have identical shapes");
        let (tokens, head_dim) = k.shape();
        let pi = cfg.partition.get();
        let k_q = QuantizedTensor::quantize_rows(k, cfg.kv_bits, pi, cfg.rounding, rng);

        let (v_q, v_tail) = if cfg.requant_elimination {
            let quantized_tokens = (tokens / pi) * pi;
            let head = v.row_block(0, quantized_tokens);
            let tail = v.row_block(quantized_tokens, tokens).to_f16_precision();
            let v_q = if quantized_tokens > 0 {
                QuantizedTensor::quantize_cols(&head, cfg.kv_bits, pi, cfg.rounding, rng)
            } else {
                QuantizedTensor::empty(head_dim, cfg.kv_bits, pi)
            };
            (v_q, tail)
        } else {
            (
                QuantizedTensor::quantize_cols(v, cfg.kv_bits, pi, cfg.rounding, rng),
                Matrix::zeros(0, head_dim),
            )
        };

        Self::assemble(cfg, head_dim, k_q, v_q, v_tail)
    }

    /// Creates an empty state (no prefill), e.g. for unit tests.
    pub fn empty(head_dim: usize, cfg: HackConfig) -> Self {
        let pi = cfg.partition.get();
        Self::assemble(
            cfg,
            head_dim,
            // No K vectors yet, but their length is known, so appends validate.
            QuantizedTensor::from_parts(0, head_dim, cfg.kv_bits, pi, vec![], vec![], vec![]),
            QuantizedTensor::empty(head_dim, cfg.kv_bits, pi),
            Matrix::zeros(0, head_dim),
        )
    }

    /// The state of validated parts, with its lanes built from them.
    fn assemble(
        cfg: HackConfig,
        head_dim: usize,
        k: QuantizedTensor,
        v: QuantizedTensor,
        v_tail: Matrix,
    ) -> Self {
        let lanes = cfg.summation_elimination.then(|| KvLanes {
            k: RightLanes::new(&k, k.sums()),
            v: RightLanes::new(&v, v.sums()),
        });
        Self {
            cfg,
            head_dim,
            k,
            v,
            v_tail,
            lanes,
            append_stats: AppendStats::default(),
        }
    }

    /// The configuration this state was built with.
    pub fn config(&self) -> HackConfig {
        self.cfg
    }

    /// Head dimension `d_h`.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Total number of tokens represented (quantized + FP16 tail).
    pub fn seq_len(&self) -> usize {
        self.k.rows()
    }

    /// Number of V tokens currently held in quantized form.
    pub fn quantized_tokens(&self) -> usize {
        self.v.cols()
    }

    /// Number of V tokens currently held in the FP16 tail buffer.
    pub fn tail_tokens(&self) -> usize {
        self.v_tail.rows()
    }

    /// Cumulative append statistics (requantized elements are non-zero only when RQE is
    /// disabled).
    pub fn append_stats(&self) -> AppendStats {
        self.append_stats
    }

    /// Read access to the quantized K tensor (used by the transport layer).
    pub fn k_quant(&self) -> &QuantizedTensor {
        &self.k
    }

    /// Read access to the quantized V tensor (used by the transport layer).
    pub fn v_quant(&self) -> &QuantizedTensor {
        &self.v
    }

    /// Read access to the FP16 V tail (used by the transport layer).
    pub fn v_tail(&self) -> &Matrix {
        &self.v_tail
    }

    /// Rebuilds a state from its transported parts.
    ///
    /// # Panics
    /// Panics if the parts do not form a state `cfg` could have built: the layouts
    /// and token counts must agree, K and V must use `cfg`'s partition size and KV
    /// precision, and the V tail must be what `cfg` leaves there (under RQE, whole
    /// partitions of V and a tail shorter than Π; without RQE, no tail).
    pub fn from_parts(
        cfg: HackConfig,
        head_dim: usize,
        k: QuantizedTensor,
        v: QuantizedTensor,
        v_tail: Matrix,
    ) -> Self {
        let pi = cfg.partition.get();
        assert_eq!(k.cols(), head_dim, "K layout must be tokens × head_dim");
        assert_eq!(v.rows(), head_dim, "V layout must be head_dim × tokens");
        assert_eq!(
            v_tail.cols(),
            head_dim,
            "V tail layout must be tokens × head_dim"
        );
        assert_eq!(
            k.rows(),
            v.cols() + v_tail.rows(),
            "token counts of K and V (+tail) must agree"
        );
        assert_eq!(
            (k.partition(), v.partition()),
            (pi, pi),
            "K and V partition sizes must be the configured Π"
        );
        assert_eq!(
            (k.bits(), v.bits()),
            (cfg.kv_bits, cfg.kv_bits),
            "K and V precisions must be the configured KV bits"
        );
        if cfg.requant_elimination {
            assert_eq!(
                v.cols() % pi,
                0,
                "under RQE, quantized V must hold whole partitions"
            );
            assert!(
                v_tail.rows() < pi,
                "under RQE, the V tail must be shorter than Π"
            );
        } else {
            assert_eq!(v_tail.rows(), 0, "without RQE, the V tail must be empty");
        }
        Self::assemble(cfg, head_dim, k, v, v_tail)
    }

    /// Appends one token's K and V vectors (step 9 in Fig. 5).
    ///
    /// Returns the append statistics of this step (requantized elements are non-zero
    /// only when RQE is disabled).
    pub fn append_token(&mut self, k_row: &[f32], v_row: &[f32], rng: &mut DetRng) -> AppendStats {
        assert_eq!(k_row.len(), self.head_dim, "K vector length mismatch");
        assert_eq!(v_row.len(), self.head_dim, "V vector length mismatch");
        let mut stats = AppendStats::default();

        // K: the new token's vector forms its own partitions along the head dimension.
        stats = stats.merge(self.k.append_row(k_row, self.cfg.rounding, rng));
        if let Some(lanes) = &mut self.lanes {
            lanes.k.push_rows(&self.k, self.k.sums());
        }

        let v_grew = if self.cfg.requant_elimination {
            // V: accumulate in the FP16 tail; flush a full partition when it fills up.
            let mut fp16_row = v_row.to_vec();
            hack_tensor::half::round_slice_to_f16(&mut fp16_row);
            self.v_tail.push_row(&fp16_row);
            let flush = self.v_tail.rows() == self.cfg.partition.get();
            if flush {
                let block = self.v_tail.transpose(); // head_dim × Π
                stats = stats.merge(self.v.append_full_partition(&block, self.cfg.rounding, rng));
                self.v_tail = Matrix::zeros(0, self.head_dim);
            }
            flush
        } else {
            // V: append a single column, requantizing the partial last partition.
            let column = Matrix::from_vec(self.head_dim, 1, v_row.to_vec());
            stats = stats.merge(self.v.append_columns(&column, self.cfg.rounding, rng));
            true
        };
        if let (true, Some(lanes)) = (v_grew, &mut self.lanes) {
            lanes.v.extend_cols(&self.v, self.v.sums());
        }

        self.append_stats = self.append_stats.merge(stats);
        stats
    }

    /// The `attn_decode` kernel: single-query attention over the quantized KV state.
    ///
    /// The caller must have already appended the current token's K/V (the paper merges
    /// the new token's K'/V' before the attention computation). Returns the `d_h`-long
    /// output vector and the operation statistics of the step.
    pub fn decode_attention(&self, q_row: &[f32], rng: &mut DetRng) -> (Vec<f32>, DecodeStepStats) {
        assert_eq!(q_row.len(), self.head_dim, "query vector length mismatch");
        let l_kv = self.seq_len();
        assert!(l_kv > 0, "decode_attention on an empty KV state");
        let pi = self.cfg.partition.get();
        let mut stats = DecodeStepStats::default();

        // 1. Quantize Q (INT8) and compute the attention scores homomorphically.
        let q_q = QuantizedTensor::quantize_row(q_row, self.cfg.q_bits, pi, self.cfg.rounding, rng);
        let lanes = self.lanes.as_ref();
        let (mut scores, score_counts) = product(&q_q, &self.k, lanes.map(|l| &l.k));
        stats.add_product(score_counts);

        // 2. Softmax over the scaled scores, in place.
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let p = scores.row_mut(0);
        for s in p.iter_mut() {
            *s *= scale;
        }
        softmax_slice_inplace(p);

        // 3. P·V: homomorphic product over the quantized tokens plus an FP16 product
        //    over the tail.
        let quantized_tokens = self.quantized_tokens();
        let mut out = vec![0.0f32; self.head_dim];
        if quantized_tokens > 0 {
            let p_q = QuantizedTensor::quantize_row(
                &p[..quantized_tokens],
                self.cfg.p_bits,
                pi,
                self.cfg.rounding,
                rng,
            );
            let (o_main, pv_counts) = product(&p_q, &self.v, lanes.map(|l| &l.v));
            stats.add_product(pv_counts);
            for (o, m) in out.iter_mut().zip(o_main.row(0)) {
                *o += m;
            }
        }
        let tail_tokens = self.tail_tokens();
        if tail_tokens > 0 {
            let mut o_tail = vec![0.0f32; self.head_dim];
            vecmat_acc(&p[quantized_tokens..], &self.v_tail, &mut o_tail);
            stats.tail_fp_ops += 2 * tail_tokens * self.head_dim;
            for (o, t) in out.iter_mut().zip(&o_tail) {
                *o += t;
            }
        }

        (out, stats)
    }

    /// Convenience wrapper: append the current token's K/V, then run decode attention
    /// with its query (one full decode iteration for this head).
    pub fn decode_step(
        &mut self,
        q_row: &[f32],
        k_row: &[f32],
        v_row: &[f32],
        rng: &mut DetRng,
    ) -> (Vec<f32>, DecodeStepStats) {
        let append = self.append_token(k_row, v_row, rng);
        let (out, mut stats) = self.decode_attention(q_row, rng);
        stats.requantized_elements = append.requantized_elements;
        (out, stats)
    }

    /// Total bytes of this head's KV state: packed quantized codes, metadata, partition
    /// sums (when SE is enabled) and the FP16 tail (when RQE is enabled).
    pub fn kv_bytes(&self) -> usize {
        let sums = self.cfg.summation_elimination;
        self.k.total_bytes(sums) + self.v.total_bytes(sums) + 2 * self.v_tail.len()
    }

    /// Bytes the same KV state would occupy in plain FP16.
    pub fn fp16_bytes(&self) -> usize {
        2 * 2 * self.seq_len() * self.head_dim
    }
}

/// One homomorphic product with the right operand `b`: over its kept `lanes` with
/// Summation Elimination, and with its code sums recomputed without.
fn product(
    a: &QuantizedTensor,
    b: &QuantizedTensor,
    lanes: Option<&RightLanes>,
) -> (Matrix, HomomorphicOpCounts) {
    match lanes {
        Some(lanes) => homomorphic_matmul_with_lanes(a, b, lanes),
        None => homomorphic_matmul_counted(a, b, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{baseline_attention, AttentionMask};
    use hack_quant::params::RoundingMode;
    use hack_quant::{PartitionSize, QuantBits};
    use hack_tensor::cosine_similarity;
    use hack_tensor::matmul::matmul;

    /// The pre-change [`HackKvState::decode_attention`], kept as the oracle
    /// of the persistent lanes: both products through `homomorphic_matmul_counted`
    /// on the state's tensors, laying out the right operand's lanes afresh.
    fn reference_decode_attention(
        state: &HackKvState,
        q_row: &[f32],
        rng: &mut DetRng,
    ) -> (Vec<f32>, DecodeStepStats) {
        let cfg = state.config();
        let head_dim = state.head_dim();
        let pi = cfg.partition.get();
        let mut stats = DecodeStepStats::default();

        let q_m = Matrix::from_vec(1, head_dim, q_row.to_vec());
        let q_q = QuantizedTensor::quantize_rows(&q_m, cfg.q_bits, pi, cfg.rounding, rng);
        let (scores, score_counts) =
            homomorphic_matmul_counted(&q_q, state.k_quant(), cfg.summation_elimination);
        stats.add_product(score_counts);

        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut p: Vec<f32> = scores.row(0).iter().map(|s| s * scale).collect();
        softmax_slice_inplace(&mut p);

        let quantized_tokens = state.quantized_tokens();
        let mut out = vec![0.0f32; head_dim];
        if quantized_tokens > 0 {
            let p_main = Matrix::from_vec(1, quantized_tokens, p[..quantized_tokens].to_vec());
            let p_q = QuantizedTensor::quantize_rows(&p_main, cfg.p_bits, pi, cfg.rounding, rng);
            let (o_main, pv_counts) =
                homomorphic_matmul_counted(&p_q, state.v_quant(), cfg.summation_elimination);
            stats.add_product(pv_counts);
            for (o, m) in out.iter_mut().zip(o_main.row(0)) {
                *o += m;
            }
        }
        let tail_tokens = state.tail_tokens();
        if tail_tokens > 0 {
            let p_tail = Matrix::from_vec(1, tail_tokens, p[quantized_tokens..].to_vec());
            let o_tail = matmul(&p_tail, state.v_tail());
            stats.tail_fp_ops += 2 * tail_tokens * head_dim;
            for (o, t) in out.iter_mut().zip(o_tail.row(0)) {
                *o += t;
            }
        }
        (out, stats)
    }

    fn rebuilt(state: &HackKvState) -> HackKvState {
        HackKvState::from_parts(
            state.config(),
            state.head_dim(),
            state.k_quant().clone(),
            state.v_quant().clone(),
            state.v_tail().clone(),
        )
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn persistent_lanes_decode_matches_per_step_products_pi32() {
        check_persistent_lanes_decode(32);
    }

    #[test]
    fn persistent_lanes_decode_matches_per_step_products_pi64() {
        check_persistent_lanes_decode(64);
    }

    #[test]
    fn persistent_lanes_decode_matches_per_step_products_pi128() {
        check_persistent_lanes_decode(128);
    }

    fn check_persistent_lanes_decode(pi: usize) {
        // Every step's output bits, stats and next RNG draw must equal the oracle's,
        // which lays out both products' lanes afresh from the state's tensors. The
        // prefill lengths cover every L mod 8 and L mod Π ∈ {0, 1, Π−1}; each run
        // lasts 2Π + 9 steps, so V' flushes (or, without RQE, starts) at least two
        // new partitions and K' passes every block residue. Halfway through, the state
        // is replaced by its clone and a `from_parts` rebuild joins it; both must go
        // on identically. d_h = 36 leaves a ragged last K' partition at Π = 32 and
        // four dead lanes in V''s last block.
        let d_h = 36;
        let base = HackConfig {
            partition: PartitionSize(pi),
            ..HackConfig::paper_default()
        };
        let configs = [
            ("paper", base),
            (
                "no-SE",
                HackConfig {
                    summation_elimination: false,
                    ..base
                },
            ),
            (
                "no-RQE",
                HackConfig {
                    requant_elimination: false,
                    ..base
                },
            ),
        ];
        for (name, cfg) in configs {
            for len in [
                pi,
                pi + 1,
                pi + 2,
                pi + 3,
                pi + 4,
                pi + 5,
                pi + 6,
                2 * pi - 1,
            ] {
                let steps = 2 * pi + 9;
                let (k, v) = structured_kv(len + steps, d_h, (pi + len) as u64);
                let mut rng = DetRng::new(len as u64);
                let mut state = HackKvState::from_prefill(
                    &k.row_block(0, len),
                    &v.row_block(0, len),
                    cfg,
                    &mut rng,
                );
                let mut rebuilt_state: Option<(HackKvState, DetRng)> = None;
                for t in 0..steps {
                    let label = format!("{name} Π={pi} L={len} step {t}");
                    let q: Vec<f32> = (0..d_h).map(|i| ((i + t) as f32 * 0.07).sin()).collect();
                    let (k_row, v_row) = (k.row(len + t), v.row(len + t));
                    if t == steps / 2 {
                        state = state.clone();
                        rebuilt_state = Some((rebuilt(&state), rng.clone()));
                    }
                    state.append_token(k_row, v_row, &mut rng);
                    let mut ref_rng = rng.clone();
                    let (expect, expect_stats) =
                        reference_decode_attention(&state, &q, &mut ref_rng);
                    let (out, stats) = state.decode_attention(&q, &mut rng);
                    assert_eq!(bits(&out), bits(&expect), "{label}: outputs");
                    assert_eq!(stats, expect_stats, "{label}: stats");
                    assert_eq!(rng.clone().next_u64(), ref_rng.next_u64(), "{label}: RNG");
                    if let Some((other, other_rng)) = &mut rebuilt_state {
                        other.append_token(k_row, v_row, other_rng);
                        let (o, s) = other.decode_attention(&q, other_rng);
                        assert_eq!(bits(&o), bits(&out), "{label}: rebuilt outputs");
                        assert_eq!(s, stats, "{label}: rebuilt stats");
                        assert_eq!(*other_rng, rng, "{label}: rebuilt RNG");
                    }
                }
            }
        }
    }

    fn structured_kv(tokens: usize, d_h: usize, seed: u64) -> (Matrix, Matrix) {
        // Keys/values with per-channel offsets and modest noise, closer to real KV
        // distributions than i.i.d. Gaussians.
        let mut rng = DetRng::new(seed);
        let k = Matrix::from_fn(tokens, d_h, |t, c| {
            let base = ((c % 7) as f32 - 3.0) * 0.4;
            base + 0.3 * rng.normal_f32(0.0, 1.0) + 0.05 * (t as f32 * 0.01).sin()
        });
        let v = Matrix::from_fn(tokens, d_h, |t, c| {
            let base = ((c % 5) as f32 - 2.0) * 0.5;
            base + 0.3 * rng.normal_f32(0.0, 1.0) + 0.02 * (t as f32 * 0.02).cos()
        });
        (k, v)
    }

    fn cos_vec(a: &[f32], b: &[f32]) -> f32 {
        let am = Matrix::from_vec(1, a.len(), a.to_vec());
        let bm = Matrix::from_vec(1, b.len(), b.to_vec());
        cosine_similarity(&am, &bm)
    }

    #[test]
    fn from_prefill_splits_v_into_quantized_and_tail() {
        let mut rng = DetRng::new(1);
        let (k, v) = structured_kv(150, 64, 2);
        let state = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);
        assert_eq!(state.seq_len(), 150);
        assert_eq!(state.quantized_tokens(), 128); // 2 full Π=64 partitions
        assert_eq!(state.tail_tokens(), 22);
    }

    #[test]
    fn from_prefill_without_rqe_quantizes_everything() {
        let mut rng = DetRng::new(2);
        let (k, v) = structured_kv(150, 64, 3);
        let state =
            HackKvState::from_prefill(&k, &v, HackConfig::without_requant_elimination(), &mut rng);
        assert_eq!(state.quantized_tokens(), 150);
        assert_eq!(state.tail_tokens(), 0);
    }

    #[test]
    fn append_token_grows_state_and_flushes_tail() {
        let mut rng = DetRng::new(3);
        let (k, v) = structured_kv(60, 32, 4);
        let cfg = HackConfig::paper_default(); // Π = 64
        let mut state = HackKvState::from_prefill(&k, &v, cfg, &mut rng);
        assert_eq!(state.quantized_tokens(), 0);
        assert_eq!(state.tail_tokens(), 60);
        // Append 4 tokens: at 64 the tail flushes into a quantized partition.
        for i in 0..4 {
            let krow = vec![0.1 * i as f32; 32];
            let vrow = vec![0.2 * i as f32; 32];
            let stats = state.append_token(&krow, &vrow, &mut rng);
            assert_eq!(stats.requantized_elements, 0, "RQE must never requantize");
        }
        assert_eq!(state.seq_len(), 64);
        assert_eq!(state.quantized_tokens(), 64);
        assert_eq!(state.tail_tokens(), 0);
        // One more token starts a fresh tail.
        state.append_token(&[0.0; 32], &[0.0; 32], &mut rng);
        assert_eq!(state.tail_tokens(), 1);
        assert_eq!(state.seq_len(), 65);
    }

    #[test]
    fn append_without_rqe_requantizes_last_block() {
        let mut rng = DetRng::new(4);
        let (k, v) = structured_kv(70, 32, 5);
        let mut state =
            HackKvState::from_prefill(&k, &v, HackConfig::without_requant_elimination(), &mut rng);
        let stats = state.append_token(&[0.5; 32], &[0.9; 32], &mut rng);
        // 70 tokens with Π=64 leaves 6 tokens in the partial partition, all of which
        // must be requantized across the 32 channels.
        assert_eq!(stats.requantized_elements, 6 * 32);
        assert_eq!(state.quantized_tokens(), 71);
    }

    #[test]
    fn decode_attention_tracks_baseline() {
        let mut rng = DetRng::new(5);
        let d_h = 64;
        let (k, v) = structured_kv(200, d_h, 6);
        let state = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);
        let q: Vec<f32> = (0..d_h).map(|i| ((i % 11) as f32 - 5.0) * 0.2).collect();
        let (out, stats) = state.decode_attention(&q, &mut rng);

        let q_m = Matrix::from_vec(1, d_h, q.clone());
        let expect = baseline_attention(&q_m, &k, &v, AttentionMask::Causal);
        let cos = cos_vec(&out, expect.row(0));
        assert!(cos > 0.95, "decode output cosine similarity {cos}");
        assert!(stats.int_mac_ops > 0);
        assert_eq!(
            stats.sum_recompute_ops, 0,
            "SE must avoid sum recomputation"
        );
        assert!(
            stats.tail_fp_ops > 0,
            "tail of 200-64*3=8 tokens should use FP16 path"
        );
    }

    #[test]
    fn se_ablation_recomputes_sums_but_matches_output() {
        let mut rng_a = DetRng::new(7);
        let mut rng_b = DetRng::new(7);
        let d_h = 64;
        let (k, v) = structured_kv(128, d_h, 8);
        let se = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng_a);
        let no_se = HackKvState::from_prefill(
            &k,
            &v,
            HackConfig::without_summation_elimination(),
            &mut rng_b,
        );
        let q = vec![0.3; d_h];
        let mut rng_a2 = DetRng::new(99);
        let mut rng_b2 = DetRng::new(99);
        let (out_se, stats_se) = se.decode_attention(&q, &mut rng_a2);
        let (out_no_se, stats_no_se) = no_se.decode_attention(&q, &mut rng_b2);
        assert_eq!(stats_se.sum_recompute_ops, 0);
        assert!(stats_no_se.sum_recompute_ops > 0);
        // Identical quantized data + identical RNG stream => identical outputs.
        assert_eq!(out_se, out_no_se);
    }

    #[test]
    fn rqe_and_no_rqe_outputs_agree_closely() {
        let d_h = 64;
        let (k, v) = structured_kv(100, d_h, 9);
        let mut rng_a = DetRng::new(10);
        let mut rng_b = DetRng::new(10);
        let rqe = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng_a);
        let no_rqe = HackKvState::from_prefill(
            &k,
            &v,
            HackConfig::without_requant_elimination(),
            &mut rng_b,
        );
        let q: Vec<f32> = (0..d_h).map(|i| (i as f32 * 0.02).sin()).collect();
        let mut rng_a2 = DetRng::new(20);
        let mut rng_b2 = DetRng::new(20);
        let (out_rqe, _) = rqe.decode_attention(&q, &mut rng_a2);
        let (out_no_rqe, _) = no_rqe.decode_attention(&q, &mut rng_b2);
        let cos = cos_vec(&out_rqe, &out_no_rqe);
        assert!(cos > 0.98, "RQE vs no-RQE cosine {cos}");
    }

    #[test]
    fn incremental_decode_matches_full_prefill_state() {
        // Appending tokens one by one must leave the K tensor identical to quantizing
        // the whole K matrix at once (nearest rounding, shared RNG irrelevant).
        let d_h = 32;
        let total = 130;
        let (k, v) = structured_kv(total, d_h, 11);
        let cfg = HackConfig {
            rounding: RoundingMode::Nearest,
            ..HackConfig::paper_default()
        };
        let mut rng = DetRng::new(12);
        let head_k = k.row_block(0, 64);
        let head_v = v.row_block(0, 64);
        let mut state = HackKvState::from_prefill(&head_k, &head_v, cfg, &mut rng);
        for t in 64..total {
            state.append_token(k.row(t), v.row(t), &mut rng);
        }
        assert_eq!(state.seq_len(), total);
        let mut rng2 = DetRng::new(13);
        let full_state = HackKvState::from_prefill(&k, &v, cfg, &mut rng2);
        assert_eq!(state.k_quant().codes(), full_state.k_quant().codes());
        assert_eq!(state.quantized_tokens(), full_state.quantized_tokens());
        assert!(state.k_quant().sums_consistent());
        assert!(state.v_quant().sums_consistent());
    }

    #[test]
    fn decode_step_appends_then_attends() {
        let d_h = 32;
        let (k, v) = structured_kv(80, d_h, 14);
        let mut rng = DetRng::new(15);
        let mut state = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);
        let q = vec![0.1; d_h];
        let k_new = vec![0.2; d_h];
        let v_new = vec![0.3; d_h];
        let (out, _) = state.decode_step(&q, &k_new, &v_new, &mut rng);
        assert_eq!(state.seq_len(), 81);
        assert_eq!(out.len(), d_h);
    }

    #[test]
    fn memory_accounting_reports_compression() {
        let d_h = 128;
        let (k, v) = structured_kv(1024, d_h, 16);
        let mut rng = DetRng::new(17);
        let state = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);
        let q_bytes = state.kv_bytes();
        let f_bytes = state.fp16_bytes();
        let ratio = 1.0 - q_bytes as f64 / f_bytes as f64;
        assert!(ratio > 0.8, "compression ratio {ratio}");
    }

    #[test]
    fn from_parts_validates_token_counts() {
        let d_h = 32;
        let (k, v) = structured_kv(64, d_h, 18);
        let mut rng = DetRng::new(19);
        let state = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);
        let rebuilt = HackKvState::from_parts(
            state.config(),
            d_h,
            state.k_quant().clone(),
            state.v_quant().clone(),
            state.v_tail().clone(),
        );
        assert_eq!(rebuilt.seq_len(), 64);
    }

    #[test]
    #[should_panic(expected = "token counts")]
    fn from_parts_rejects_inconsistent_counts() {
        let d_h = 32;
        let (k, v) = structured_kv(64, d_h, 20);
        let mut rng = DetRng::new(21);
        let state = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);
        HackKvState::from_parts(
            state.config(),
            d_h,
            state.k_quant().clone(),
            state.v_quant().clone(),
            Matrix::zeros(3, d_h), // wrong tail length
        );
    }

    /// The parts of a `tokens`-long state built with `cfg`, for `from_parts` misuse.
    fn parts(tokens: usize, cfg: HackConfig) -> (QuantizedTensor, QuantizedTensor, Matrix) {
        let (k, v) = structured_kv(tokens, 32, 23);
        let state = HackKvState::from_prefill(&k, &v, cfg, &mut DetRng::new(24));
        (
            state.k_quant().clone(),
            state.v_quant().clone(),
            state.v_tail().clone(),
        )
    }

    #[test]
    #[should_panic(expected = "partition sizes")]
    fn from_parts_rejects_another_partition_size() {
        let small = HackConfig {
            partition: PartitionSize(32),
            ..HackConfig::paper_default()
        };
        let (k, v, tail) = parts(128, small);
        HackKvState::from_parts(HackConfig::paper_default(), 32, k, v, tail);
    }

    #[test]
    #[should_panic(expected = "precisions")]
    fn from_parts_rejects_another_kv_precision() {
        let int4 = HackConfig {
            kv_bits: QuantBits::Int4,
            ..HackConfig::paper_default()
        };
        let (k, v, tail) = parts(100, int4);
        HackKvState::from_parts(HackConfig::paper_default(), 32, k, v, tail);
    }

    #[test]
    #[should_panic(expected = "whole partitions")]
    fn from_parts_rejects_rqe_v_ending_mid_partition() {
        let (k, v, tail) = parts(70, HackConfig::without_requant_elimination());
        HackKvState::from_parts(HackConfig::paper_default(), 32, k, v, tail);
    }

    #[test]
    #[should_panic(expected = "shorter than Π")]
    fn from_parts_rejects_an_rqe_tail_of_a_whole_partition() {
        let cfg = HackConfig::paper_default();
        let (k, _, _) = parts(64, cfg);
        let (_, tail) = structured_kv(64, 32, 25);
        let v = QuantizedTensor::empty(32, cfg.kv_bits, cfg.partition.get());
        HackKvState::from_parts(cfg, 32, k, v, tail.to_f16_precision());
    }

    #[test]
    #[should_panic(expected = "tail must be empty")]
    fn from_parts_rejects_a_tail_without_rqe() {
        let (k, v, tail) = parts(70, HackConfig::paper_default());
        HackKvState::from_parts(HackConfig::without_requant_elimination(), 32, k, v, tail);
    }

    #[test]
    #[should_panic(expected = "empty KV state")]
    fn decode_on_empty_state_panics() {
        let cfg = HackConfig::paper_default();
        let state = HackKvState::empty(16, cfg);
        let mut rng = DetRng::new(22);
        state.decode_attention(&[0.0; 16], &mut rng);
    }
}
