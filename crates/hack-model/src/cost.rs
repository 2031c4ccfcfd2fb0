//! Analytical cost model: stage latencies of one model replica on one instance family.
//!
//! The simulator asks this model five questions per request, matching the JCT
//! decomposition of Fig. 10: prefill compute time, KV quantization time, KV transfer
//! bytes (the network itself is simulated with contention in `hack-cluster`),
//! dequantization/approximation time per decode iteration, and decode iteration time.
//!
//! Times are *service* times on otherwise-idle hardware; queueing, NIC contention and
//! batching effects are produced by the discrete-event simulator on top of these.

use crate::gpu::GpuSpec;
use crate::parallelism::Parallelism;
use crate::spec::ModelSpec;
use serde::Serialize;

/// How an evaluated method treats KV data. Every method in the paper maps to one of
/// these profiles (the mapping lives in `hack-core`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct KvMethodProfile {
    /// Method name (used in reports).
    pub name: &'static str,
    /// Bytes of stored/transferred KV per FP16 byte (1.0 = uncompressed).
    pub kv_size_factor: f64,
    /// Whether KV data is quantized/encoded on the prefill instance.
    pub quantizes: bool,
    /// Whether every decode iteration must dequantize the entire KV history before
    /// attention (CacheGen / KVQuant).
    pub dequant_per_iter: bool,
    /// Whether attention matmuls run on quantized codes using the INT8 datapath (HACK).
    pub int8_attention: bool,
    /// Whether the cheap Eq. 4 approximation runs every decode iteration (HACK).
    pub approx_per_iter: bool,
    /// Summation Elimination enabled (only meaningful when `approx_per_iter`).
    pub summation_elimination: bool,
    /// Requantization Elimination enabled (only meaningful when `approx_per_iter`).
    pub requant_elimination: bool,
    /// Quantization partition size Π (drives approximation cost and accuracy).
    pub partition: usize,
    /// Whether the format needs a conversion to FP16 before compute on GPUs without
    /// native support (FP8/6/4 baselines, §3).
    pub needs_fp_conversion: bool,
}

impl KvMethodProfile {
    /// The disaggregated-inference baseline: FP16 KV, FP16 compute.
    pub fn baseline() -> Self {
        Self {
            name: "baseline",
            kv_size_factor: 1.0,
            quantizes: false,
            dequant_per_iter: false,
            int8_attention: false,
            approx_per_iter: false,
            summation_elimination: false,
            requant_elimination: false,
            partition: 64,
            needs_fp_conversion: false,
        }
    }

    /// CacheGen-like: ~86% compression, dequantize-per-iteration.
    pub fn cachegen() -> Self {
        Self {
            name: "cachegen",
            kv_size_factor: 0.14,
            quantizes: true,
            dequant_per_iter: true,
            ..Self::baseline()
        }
    }

    /// KVQuant-like: 2-bit quantization, dequantize-per-iteration.
    pub fn kvquant() -> Self {
        Self {
            name: "kvquant",
            kv_size_factor: 0.145,
            quantizes: true,
            dequant_per_iter: true,
            ..Self::baseline()
        }
    }

    /// HACK with the default Π = 64.
    pub fn hack() -> Self {
        Self::hack_with_partition(64)
    }

    /// HACK with a custom partition size (Table 8 sensitivity study).
    pub fn hack_with_partition(partition: usize) -> Self {
        // Smaller partitions mean more metadata: codes are 2/16 of FP16 plus
        // 4 bytes of FP16 metadata + ~1 byte of sums per Π elements.
        let overhead_per_element = 5.0 / partition as f64;
        Self {
            name: match partition {
                32 => "hack-p32",
                128 => "hack-p128",
                _ => "hack",
            },
            kv_size_factor: 2.0 / 16.0 + overhead_per_element / 2.0,
            quantizes: true,
            dequant_per_iter: false,
            int8_attention: true,
            approx_per_iter: true,
            summation_elimination: true,
            requant_elimination: true,
            partition,
            needs_fp_conversion: false,
        }
    }

    /// HACK without Summation Elimination (ablation §7.4).
    pub fn hack_no_se() -> Self {
        Self {
            name: "hack/se",
            summation_elimination: false,
            ..Self::hack()
        }
    }

    /// HACK without Requantization Elimination (ablation §7.4).
    pub fn hack_no_rqe() -> Self {
        Self {
            name: "hack/rqe",
            requant_elimination: false,
            ..Self::hack()
        }
    }

    /// FP8 cast baseline (§3).
    pub fn fp8() -> Self {
        Self {
            name: "fp8",
            kv_size_factor: 0.5,
            quantizes: true,
            needs_fp_conversion: true,
            ..Self::baseline()
        }
    }

    /// FP6 cast baseline (§3).
    pub fn fp6() -> Self {
        Self {
            name: "fp6",
            kv_size_factor: 0.375,
            quantizes: true,
            needs_fp_conversion: true,
            ..Self::baseline()
        }
    }

    /// FP4 cast baseline (§3).
    pub fn fp4() -> Self {
        Self {
            name: "fp4",
            kv_size_factor: 0.25,
            quantizes: true,
            needs_fp_conversion: true,
            ..Self::baseline()
        }
    }
}

/// Tunable efficiency constants of the cost model. Defaults are ordinary published
/// utilisation figures for dense GEMMs, element-wise kernels and NCCL transfers; they
/// are deliberately method-independent so comparisons between methods depend only on
/// the operation/byte counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostParams {
    /// Fraction of peak tensor throughput achieved by large GEMMs.
    pub compute_efficiency: f64,
    /// Fraction of peak tensor throughput achieved by the attention kernels
    /// (score/probability matmuls interleaved with softmax are considerably less
    /// efficient than plain GEMMs).
    pub attention_efficiency: f64,
    /// Fraction of peak tensor throughput achieved by element-wise kernels
    /// (quantize / dequantize / approximation) — these are launch- and memory-bound.
    pub elementwise_efficiency: f64,
    /// Fraction of peak HBM bandwidth achieved by KV/weight streaming.
    pub memory_efficiency: f64,
    /// Fraction of peak HBM bandwidth achieved when gathering paged KV data during
    /// decode (block-granular gathers, partially host-resident data and kernel launch
    /// overheads make this far lower than bulk weight streaming; calibrated so the
    /// baseline's KV memory-access share of decode matches §2.1).
    pub kv_access_efficiency: f64,
    /// Fraction of peak tensor throughput achieved by the baselines' per-iteration KV
    /// dequantization (bitstream decoding / scattered low-precision unpacking;
    /// calibrated so the dequantization share of JCT matches the 17-38% of §2.2).
    pub dequant_efficiency: f64,
    /// Fixed per-decode-iteration overhead (scheduler step, sampling, tensor-parallel
    /// all-reduces, pipeline bubbles), independent of the KV method.
    pub decode_iter_overhead_s: f64,
    /// Fraction of NIC line rate achieved by the KV transfer.
    pub network_efficiency: f64,
    /// Pipeline-parallel bubble overhead (fraction of time lost when PP > 1).
    pub pp_bubble: f64,
    /// Average number of sequences decoded together (continuous batching); weight
    /// streaming is shared by the batch, per-sequence KV work is not.
    pub decode_batch: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            compute_efficiency: 0.5,
            attention_efficiency: 0.22,
            elementwise_efficiency: 0.005,
            memory_efficiency: 0.8,
            kv_access_efficiency: 0.05,
            dequant_efficiency: 3e-4,
            decode_iter_overhead_s: 0.03,
            network_efficiency: 0.9,
            pp_bubble: 0.10,
            decode_batch: 8.0,
        }
    }
}

/// Per-stage service times of one request (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StageTimes {
    /// Prefill compute time.
    pub prefill: f64,
    /// KV quantization/encoding time on the prefill instance.
    pub quantization: f64,
    /// KV transfer time on an uncontended link (the simulator adds contention).
    pub transfer: f64,
    /// Total dequantization (baselines) or approximation (HACK) time over all decode
    /// iterations.
    pub dequant_or_approx: f64,
    /// Total decode time over all output tokens (excluding dequant/approx).
    pub decode: f64,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total(&self) -> f64 {
        self.prefill + self.quantization + self.transfer + self.dequant_or_approx + self.decode
    }
}

/// Cost model of one model replica on one GPU family.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaCostModel {
    /// Model architecture.
    pub model: ModelSpec,
    /// GPU the replica runs on.
    pub gpu: GpuSpec,
    /// TP/PP configuration.
    pub parallel: Parallelism,
    /// Efficiency constants.
    pub params: CostParams,
}

impl ReplicaCostModel {
    /// Creates a cost model with default efficiency constants.
    pub fn new(model: ModelSpec, gpu: GpuSpec, parallel: Parallelism) -> Self {
        Self::with_params(model, gpu, parallel, CostParams::default())
    }

    /// Creates a cost model with explicit efficiency constants — the
    /// per-replica-group instantiation path of heterogeneous fleets (each
    /// group pairs its own GPU/parallelism with its own, or the fleet-wide,
    /// constants).
    pub fn with_params(
        model: ModelSpec,
        gpu: GpuSpec,
        parallel: Parallelism,
        params: CostParams,
    ) -> Self {
        Self {
            model,
            gpu,
            parallel,
            params,
        }
    }

    fn pp_factor(&self) -> f64 {
        if self.parallel.pp > 1 {
            1.0 - self.params.pp_bubble
        } else {
            1.0
        }
    }

    /// Aggregate FP16 GEMM throughput of the replica (FLOP/s).
    pub fn agg_fp16_flops(&self) -> f64 {
        self.parallel.gpus_per_replica() as f64
            * self.gpu.fp16_tflops
            * 1e12
            * self.params.compute_efficiency
            * self.pp_factor()
    }

    /// Aggregate attention-kernel throughput (op/s); `int8` selects the INT8 datapath
    /// where the GPU supports it.
    pub fn agg_attention_ops(&self, int8: bool) -> f64 {
        let peak = if int8 {
            self.gpu.effective_int8_tops()
        } else {
            self.gpu.fp16_tflops
        };
        self.parallel.gpus_per_replica() as f64
            * peak
            * 1e12
            * self.params.attention_efficiency
            * self.pp_factor()
    }

    /// Aggregate element-wise throughput (op/s) for quantize/dequantize/approximation
    /// kernels.
    pub fn agg_elementwise_ops(&self) -> f64 {
        self.parallel.gpus_per_replica() as f64
            * self.gpu.fp16_tflops
            * 1e12
            * self.params.elementwise_efficiency
    }

    /// Aggregate memory bandwidth of the replica (byte/s).
    pub fn agg_mem_bw(&self) -> f64 {
        self.parallel.gpus_per_replica() as f64
            * self.gpu.mem_bandwidth_gbs
            * 1e9
            * self.params.memory_efficiency
    }

    /// FP16 KV bytes produced by `tokens` tokens.
    pub fn kv_fp16_bytes(&self, tokens: usize) -> f64 {
        self.model.kv_bytes_per_token_fp16() as f64 * tokens as f64
    }

    /// Bytes of KV data transferred from prefill to decode for a prompt of `tokens`
    /// tokens under the given method.
    pub fn kv_transfer_bytes(&self, tokens: usize, profile: &KvMethodProfile) -> f64 {
        self.kv_fp16_bytes(tokens) * profile.kv_size_factor
    }

    /// Prefill compute time for a prompt of `prompt` tokens.
    pub fn prefill_time(&self, prompt: usize, profile: &KvMethodProfile) -> f64 {
        let attn = self.model.attention_flops(prompt, prompt);
        let linear = self.model.prefill_flops(prompt) - attn;
        let attn_rate = self.agg_attention_ops(profile.int8_attention);
        let mut t = linear / self.agg_fp16_flops() + attn / attn_rate;
        if profile.needs_fp_conversion && !self.gpu.fp8_support {
            // §3: FP4/6/8 data must be converted to FP16 before the attention matmuls.
            let conv_ops = 2.0 * 2.0 * self.model.kv_elements_per_token() as f64 * prompt as f64;
            t += conv_ops / self.agg_elementwise_ops();
        }
        t
    }

    /// KV quantization/encoding time on the prefill instance (once per request).
    pub fn quantization_time(&self, prompt: usize, profile: &KvMethodProfile) -> f64 {
        if !profile.quantizes {
            return 0.0;
        }
        // 3 ops per element (subtract, scale, round) over K and V.
        let ops = 3.0 * 2.0 * self.model.kv_elements_per_token() as f64 * prompt as f64;
        ops / self.agg_elementwise_ops()
    }

    /// Uncontended KV transfer time over a NIC of `network_gbps`.
    pub fn transfer_time(
        &self,
        tokens: usize,
        profile: &KvMethodProfile,
        network_gbps: f64,
    ) -> f64 {
        let bytes = self.kv_transfer_bytes(tokens, profile);
        bytes / (network_gbps * 1e9 / 8.0 * self.params.network_efficiency)
    }

    /// Per-iteration dequantization time (CacheGen / KVQuant) or approximation time
    /// (HACK) for one sequence at context length `kv_len`.
    pub fn dequant_or_approx_iter_time(&self, kv_len: usize, profile: &KvMethodProfile) -> f64 {
        let heads = (self.model.layers * self.model.kv_heads) as f64;
        let d_h = self.model.head_dim;
        if profile.dequant_per_iter {
            let ops = hack_quant::cost::kv_dequant_ops(d_h, kv_len) as f64 * heads;
            let rate = self.parallel.gpus_per_replica() as f64
                * self.gpu.fp16_tflops
                * 1e12
                * self.params.dequant_efficiency;
            return ops / rate;
        }
        if profile.approx_per_iter {
            let per_head = if profile.summation_elimination {
                hack_quant::cost::decode_approx_ops_with_se(d_h, kv_len)
            } else {
                hack_quant::cost::decode_approx_ops_without_se(d_h, kv_len)
            } as f64;
            let mut ops = per_head * heads;
            if !profile.requant_elimination {
                // Requantize the partial last block of V every iteration (Π/2 tokens on
                // average).
                ops += hack_quant::cost::requant_last_block_ops(profile.partition / 2, d_h) as f64
                    * heads;
            }
            return ops / self.agg_elementwise_ops();
        }
        if profile.needs_fp_conversion && !self.gpu.fp8_support {
            let ops = 2.0 * 2.0 * d_h as f64 * kv_len as f64 * heads;
            return ops / self.agg_elementwise_ops();
        }
        0.0
    }

    /// Decode iteration latency experienced by a sequence at context length `kv_len`,
    /// sharing the replica with `batch` concurrently-decoding sequences of similar
    /// length (continuous batching: weights are streamed once per iteration for the
    /// whole batch, per-sequence KV reads and compute are not shared).
    pub fn decode_iter_time(&self, kv_len: usize, profile: &KvMethodProfile, batch: f64) -> f64 {
        let batch = batch.max(1.0);
        let weight_time = self.model.param_bytes_fp16() / self.agg_mem_bw();
        // Memory the attention kernel streams for this sequence's KV data: HACK and the
        // minifloat casts read the compact representation directly; the
        // dequantize-per-iteration baselines read the compact cache *and* stream the
        // transient dequantized FP16 working set; the FP16 baseline reads full-size KV.
        let kv_read_factor = if profile.dequant_per_iter {
            profile.kv_size_factor * 1.5
        } else if profile.int8_attention || profile.needs_fp_conversion {
            profile.kv_size_factor
        } else {
            1.0
        };
        let kv_access_bw = self.parallel.gpus_per_replica() as f64
            * self.gpu.mem_bandwidth_gbs
            * 1e9
            * self.params.kv_access_efficiency;
        let kv_read_time = self.kv_fp16_bytes(kv_len) * kv_read_factor / kv_access_bw;
        let attn_flops = self.model.attention_flops(1, kv_len);
        let linear_flops = self.model.decode_flops(kv_len) - attn_flops;
        let attn_rate = self.agg_attention_ops(profile.int8_attention);
        let compute_time = linear_flops / self.agg_fp16_flops() + attn_flops / attn_rate;
        // Per iteration: the batch shares one weight stream and the fixed per-step
        // overhead; this sequence's own KV gather and attention compute are not shared.
        weight_time / batch
            + self.params.decode_iter_overhead_s / batch
            + kv_read_time
            + compute_time
    }

    /// Total (decode, dequant/approx) time of `output_len` decode iterations
    /// starting after a prompt of `input_len` tokens, summed sequentially — the
    /// O(`output_len`) loop [`crate::cost_table::DecodeCostTable`] replaces
    /// with prefix subtractions. Kept as the equivalence oracle the table path
    /// is pinned against, here and in the cluster simulator's cost-layer test.
    pub fn decode_durations_reference(
        &self,
        profile: &KvMethodProfile,
        batch: f64,
        input_len: usize,
        output_len: usize,
    ) -> (f64, f64) {
        let mut decode = 0.0;
        let mut dequant = 0.0;
        for i in 0..output_len {
            let kv_len = input_len + i + 1;
            decode += self.decode_iter_time(kv_len, profile, batch);
            dequant += self.dequant_or_approx_iter_time(kv_len, profile);
        }
        (decode, dequant)
    }

    /// Full per-request stage times: prefill on this replica, transfer over
    /// `network_gbps`, then `output_len` decode iterations at an average batch size of
    /// `CostParams::decode_batch` on the decode replica `decode_model`.
    pub fn request_stage_times(
        &self,
        decode_model: &ReplicaCostModel,
        profile: &KvMethodProfile,
        prompt: usize,
        output_len: usize,
        network_gbps: f64,
    ) -> StageTimes {
        let prefill = self.prefill_time(prompt, profile);
        let quantization = self.quantization_time(prompt, profile);
        let transfer = self.transfer_time(prompt, profile, network_gbps);
        let batch = decode_model.params.decode_batch;
        let (decode, dequant) =
            decode_model.decode_durations_reference(profile, batch, prompt, output_len);
        StageTimes {
            prefill,
            quantization,
            transfer,
            dequant_or_approx: dequant,
            decode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuKind;
    use crate::spec::ModelKind;

    fn llama_on(gpu: GpuKind) -> ReplicaCostModel {
        let model = ModelKind::Llama31_70B.spec();
        ReplicaCostModel::new(
            model,
            gpu.spec(),
            Parallelism::table3(ModelKind::Llama31_70B, gpu),
        )
    }

    fn cocktail_prompt() -> usize {
        16_200
    }

    #[test]
    fn profiles_have_sensible_size_factors() {
        assert_eq!(KvMethodProfile::baseline().kv_size_factor, 1.0);
        assert!(KvMethodProfile::hack().kv_size_factor < 0.2);
        assert!(KvMethodProfile::cachegen().kv_size_factor < 0.2);
        assert!(KvMethodProfile::fp8().kv_size_factor == 0.5);
        // Finer partitions cost more metadata.
        assert!(
            KvMethodProfile::hack_with_partition(32).kv_size_factor
                > KvMethodProfile::hack_with_partition(128).kv_size_factor
        );
    }

    #[test]
    fn hack_prefill_is_faster_than_baseline_on_int8_gpus() {
        let m = llama_on(GpuKind::A10G);
        let base = m.prefill_time(cocktail_prompt(), &KvMethodProfile::baseline());
        let hack = m.prefill_time(cocktail_prompt(), &KvMethodProfile::hack());
        assert!(hack < base, "hack {hack} vs baseline {base}");
        // The gain comes only from the attention share, so it is bounded.
        assert!(hack > base * 0.5);
    }

    #[test]
    fn hack_prefill_equals_baseline_on_v100() {
        // §7.2: V100 has no INT8 tensor cores, so HACK cannot accelerate prefill there.
        let m = llama_on(GpuKind::V100);
        let base = m.prefill_time(cocktail_prompt(), &KvMethodProfile::baseline());
        let hack = m.prefill_time(cocktail_prompt(), &KvMethodProfile::hack());
        assert!((hack - base).abs() / base < 1e-9);
    }

    #[test]
    fn transfer_time_scales_with_compression_and_bandwidth() {
        let m = llama_on(GpuKind::A10G);
        let prompt = cocktail_prompt();
        let base_40g = m.transfer_time(prompt, &KvMethodProfile::baseline(), 40.0);
        let hack_40g = m.transfer_time(prompt, &KvMethodProfile::hack(), 40.0);
        let base_400g = m.transfer_time(prompt, &KvMethodProfile::baseline(), 400.0);
        // ~5.3 GB at an effective 4.5 GB/s is on the order of a second.
        assert!(
            base_40g > 0.5 && base_40g < 3.0,
            "baseline 40G transfer {base_40g}"
        );
        assert!(hack_40g < base_40g * 0.2);
        assert!((base_40g / base_400g - 10.0).abs() < 1e-6);
    }

    #[test]
    fn dequant_dominates_approx_for_long_sequences() {
        let decode = llama_on(GpuKind::A100);
        let kv_len = 16_000;
        let dequant = decode.dequant_or_approx_iter_time(kv_len, &KvMethodProfile::kvquant());
        let approx = decode.dequant_or_approx_iter_time(kv_len, &KvMethodProfile::hack());
        assert!(
            dequant > 50.0 * approx,
            "dequant {dequant} should dwarf approximation {approx}"
        );
        // Baseline has neither.
        assert_eq!(
            decode.dequant_or_approx_iter_time(kv_len, &KvMethodProfile::baseline()),
            0.0
        );
    }

    #[test]
    fn no_se_approx_is_more_expensive_than_se() {
        let decode = llama_on(GpuKind::A100);
        let kv_len = 16_000;
        let se = decode.dequant_or_approx_iter_time(kv_len, &KvMethodProfile::hack());
        let no_se = decode.dequant_or_approx_iter_time(kv_len, &KvMethodProfile::hack_no_se());
        assert!(no_se > 5.0 * se, "no-SE {no_se} vs SE {se}");
    }

    #[test]
    fn no_rqe_overhead_does_not_scale_with_sequence_length() {
        let decode = llama_on(GpuKind::A100);
        let rqe_cost = |kv: usize| {
            decode.dequant_or_approx_iter_time(kv, &KvMethodProfile::hack_no_rqe())
                - decode.dequant_or_approx_iter_time(kv, &KvMethodProfile::hack())
        };
        let short = rqe_cost(500);
        let long = rqe_cost(16_000);
        assert!(
            (short - long).abs() / short < 0.05,
            "short {short} vs long {long}"
        );
    }

    #[test]
    fn quantized_decode_iteration_is_faster_for_long_contexts() {
        let decode = llama_on(GpuKind::A100);
        let kv_len = 16_000;
        let batch = 8.0;
        let base = decode.decode_iter_time(kv_len, &KvMethodProfile::baseline(), batch);
        let hack = decode.decode_iter_time(kv_len, &KvMethodProfile::hack(), batch);
        assert!(hack < base, "hack iter {hack} vs baseline iter {base}");
        // Iteration latency should be on the order of milliseconds to tens of ms.
        assert!(base > 1e-3 && base < 0.2, "baseline iteration {base}");
    }

    #[test]
    fn stage_times_reproduce_fig10_ordering() {
        // Llama-3.1 70B, Cocktail-like request (16.2K prompt, 159 output tokens),
        // A10G prefill -> A100 decode over the prefill instance's 40 Gbps NIC.
        let prefill = llama_on(GpuKind::A10G);
        let decode = llama_on(GpuKind::A100);
        let prompt = cocktail_prompt();
        let out = 159;

        let t = |p: &KvMethodProfile| prefill.request_stage_times(&decode, p, prompt, out, 40.0);
        let base = t(&KvMethodProfile::baseline());
        let cachegen = t(&KvMethodProfile::cachegen());
        let kvquant = t(&KvMethodProfile::kvquant());
        let hack = t(&KvMethodProfile::hack());

        // Quantized methods slash the transfer time.
        assert!(cachegen.transfer < 0.2 * base.transfer);
        assert!(hack.transfer < 0.2 * base.transfer);
        // CacheGen/KVQuant pay a dequantization bill HACK does not.
        assert!(cachegen.dequant_or_approx > 10.0 * hack.dequant_or_approx);
        assert!(kvquant.dequant_or_approx > 10.0 * hack.dequant_or_approx);
        // HACK also beats the baselines on prefill and decode compute.
        assert!(hack.prefill < base.prefill);
        assert!(hack.decode <= cachegen.decode + 1e-9);
        // End-to-end ordering of Fig. 9: HACK < CacheGen/KVQuant < baseline.
        assert!(hack.total() < cachegen.total());
        assert!(hack.total() < kvquant.total());
        assert!(cachegen.total() < base.total());
        // Quantization overhead stays a small fraction of the total (§7.2 reports
        // 1.25%-2.91%).
        assert!(cachegen.quantization / cachegen.total() < 0.05);
    }

    #[test]
    fn long_prompts_amplify_hacks_advantage() {
        let prefill = llama_on(GpuKind::A10G);
        let decode = llama_on(GpuKind::A100);
        let gain = |prompt: usize, out: usize| {
            let b = prefill
                .request_stage_times(&decode, &KvMethodProfile::kvquant(), prompt, out, 40.0)
                .total();
            let h = prefill
                .request_stage_times(&decode, &KvMethodProfile::hack(), prompt, out, 40.0)
                .total();
            (b - h) / b
        };
        // IMDb-like (short) vs Cocktail-like (long).
        let short = gain(315, 37);
        let long = gain(16_200, 159);
        assert!(
            long > short,
            "long-prompt gain {long} should exceed short-prompt gain {short}"
        );
    }

    #[test]
    fn v100_shows_smallest_gain_over_quantization_baselines() {
        // §7.2 / Fig. 12: HACK's edge over CacheGen/KVQuant is smallest on V100.
        let decode = llama_on(GpuKind::A100);
        let prompt = cocktail_prompt();
        let out = 159;
        let gain_on = |gpu: GpuKind| {
            let prefill = llama_on(gpu);
            let kv = prefill
                .request_stage_times(
                    &decode,
                    &KvMethodProfile::kvquant(),
                    prompt,
                    out,
                    gpu.instance().network_gbps,
                )
                .total();
            let h = prefill
                .request_stage_times(
                    &decode,
                    &KvMethodProfile::hack(),
                    prompt,
                    out,
                    gpu.instance().network_gbps,
                )
                .total();
            (kv - h) / kv
        };
        // The service-time model cannot reproduce the full size of the effect (most of
        // it comes from prefill INT8 acceleration that V100 lacks), but V100 must never
        // be the GPU that benefits most from HACK.
        let v100 = gain_on(GpuKind::V100);
        let best_other = [GpuKind::A10G, GpuKind::T4, GpuKind::L4, GpuKind::A100]
            .into_iter()
            .map(gain_on)
            .fold(f64::MIN, f64::max);
        assert!(
            best_other > v100,
            "best non-V100 gain {best_other} should exceed V100 gain {v100}"
        );
    }
}
