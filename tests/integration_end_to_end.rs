//! Cross-crate integration tests: the numerical pipeline end to end — quantization,
//! homomorphic attention, KV state evolution over prefill + many decode steps, and the
//! decode-instance memory accounting — checked against the exact computation.

use hack_attention::baseline::{baseline_attention, AttentionMask};
use hack_core::prelude::*;
use hack_kvcache::{CacheLayout, DecodeMemoryModel, KvShape};
use hack_quant::params::RoundingMode;

fn structured(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = DetRng::new(seed);
    Matrix::from_fn(rows, cols, |t, c| {
        ((c % 8) as f32 - 3.5) * 0.3
            + 0.25 * rng.normal_f32(0.0, 1.0)
            + 0.05 * (t as f32 * 0.02).sin()
    })
}

#[test]
fn prefill_plus_decode_tracks_exact_attention_over_many_steps() {
    // Run HACK prefill on 200 tokens, then 100 decode steps, and verify the decode
    // output stays aligned with exact attention computed over the full history.
    let d_h = 64;
    let prompt = 200;
    let steps = 100;
    let cfg = HackConfig::paper_default();

    let k_full = structured(prompt + steps, d_h, 1);
    let v_full = structured(prompt + steps, d_h, 2);
    let q_full = structured(prompt + steps, d_h, 3);

    let mut rng = DetRng::new(10);
    let prefill = hack_prefill_attention(
        &q_full.row_block(0, prompt),
        &k_full.row_block(0, prompt),
        &v_full.row_block(0, prompt),
        cfg,
        &mut rng,
    );
    let mut state = prefill.state;

    let mut cos_sum = 0.0;
    for step in 0..steps {
        let t = prompt + step;
        let (out, stats) = state.decode_step(q_full.row(t), k_full.row(t), v_full.row(t), &mut rng);
        assert_eq!(state.seq_len(), t + 1);
        assert_eq!(
            stats.requantized_elements, 0,
            "RQE must prevent requantization"
        );

        let exact = baseline_attention(
            &q_full.row_block(t, t + 1),
            &k_full.row_block(0, t + 1),
            &v_full.row_block(0, t + 1),
            AttentionMask::Causal,
        );
        let out_m = Matrix::from_vec(1, d_h, out);
        cos_sum += hack_tensor::cosine_similarity(&exact, &out_m) as f64;
    }
    let avg_cos = cos_sum / steps as f64;
    assert!(
        avg_cos > 0.93,
        "average decode cosine over {steps} steps: {avg_cos}"
    );

    // The quantized state must keep its invariants after all those appends.
    assert!(state.k_quant().sums_consistent());
    assert!(state.v_quant().sums_consistent());
    assert!(state.tail_tokens() < cfg.partition.get());
    // With a small head dimension (64) and ~15% of the short sequence still sitting in
    // the FP16 tail, the compression is a bit below the ~85% asymptotic figure.
    let compression = 1.0 - state.kv_bytes() as f64 / state.fp16_bytes() as f64;
    assert!(compression > 0.7, "state compression {compression}");
}

#[test]
fn rqe_ablation_accumulates_requantization_work() {
    let d_h = 32;
    let prompt = 100;
    let steps = 50;
    let k = structured(prompt, d_h, 4);
    let v = structured(prompt, d_h, 5);
    let mut rng = DetRng::new(11);

    let mut with_rqe = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);
    let mut without_rqe =
        HackKvState::from_prefill(&k, &v, HackConfig::without_requant_elimination(), &mut rng);

    for step in 0..steps {
        let row: Vec<f32> = (0..d_h).map(|i| ((i + step) as f32 * 0.03).sin()).collect();
        with_rqe.append_token(&row, &row, &mut rng);
        without_rqe.append_token(&row, &row, &mut rng);
    }
    assert_eq!(with_rqe.append_stats().requantized_elements, 0);
    assert!(
        without_rqe.append_stats().requantized_elements > steps * d_h,
        "no-RQE requantized {} elements",
        without_rqe.append_stats().requantized_elements
    );
    assert_eq!(with_rqe.seq_len(), without_rqe.seq_len());
}

#[test]
fn paged_cache_admits_many_more_sequences_under_hack_layout() {
    let shape = KvShape {
        layers: 8,
        kv_heads: 8,
        head_dim: 128,
    };
    let budget = 2 * 1024 * 1024 * 1024usize; // 2 GiB of KV budget

    // 4096-token sequences resident in the budget, by the decode-memory model that
    // Table 5 is computed from.
    let count_admitted = |layout: CacheLayout| {
        let model = DecodeMemoryModel {
            gpu_memory_bytes: budget,
            param_bytes: 0,
            activation_bytes: 0,
            shape,
            layout,
        };
        model.max_resident_tokens() / 4096
    };
    let fp16 = count_admitted(Method::Baseline.cache_layout());
    let hack = count_admitted(Method::hack().cache_layout());
    assert!(fp16 >= 1);
    assert!(
        hack >= 5 * fp16,
        "HACK layout admitted {hack} sequences vs {fp16} for FP16"
    );
}

#[test]
fn quantized_tensor_survives_transport_and_keeps_computing() {
    // Quantize K/V, push them through the wire format, rebuild the state on the
    // "decode side" and verify attention still matches the local computation exactly.
    let d_h = 64;
    let tokens = 150;
    let k = structured(tokens, d_h, 6);
    let v = structured(tokens, d_h, 7);
    let mut rng = DetRng::new(12);
    let state = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);

    let msg = hack_transport::KvTransferMessage {
        request_id: 1,
        layer: 0,
        head: 0,
        first_token: 3,
        k: state.k_quant().clone(),
        v: state.v_quant().clone(),
        v_tail: state.v_tail().clone(),
    };
    let rebuilt_msg = hack_transport::KvTransferMessage::decode(&msg.encode());
    let rebuilt = HackKvState::from_parts(
        HackConfig::paper_default(),
        d_h,
        rebuilt_msg.k,
        rebuilt_msg.v,
        rebuilt_msg.v_tail,
    );

    let q: Vec<f32> = (0..d_h).map(|i| (i as f32 * 0.05).cos()).collect();
    let mut rng_a = DetRng::new(77);
    let mut rng_b = DetRng::new(77);
    let (local, _) = state.decode_attention(&q, &mut rng_a);
    let (remote, _) = rebuilt.decode_attention(&q, &mut rng_b);
    assert_eq!(local, remote, "transported state must compute identically");
}

#[test]
fn stochastic_rounding_averages_to_the_exact_product() {
    // End-to-end unbiasedness: averaging HACK prefill outputs over many stochastic
    // quantizations converges towards exact attention.
    let d_h = 32;
    let tokens = 64;
    let q = structured(tokens, d_h, 8);
    let k = structured(tokens, d_h, 9);
    let v = structured(tokens, d_h, 10);
    let exact = baseline_attention(&q, &k, &v, AttentionMask::Causal);

    let trials = 24;
    let mut accumulated = Matrix::zeros(tokens, d_h);
    let cfg = HackConfig {
        rounding: RoundingMode::Stochastic,
        ..HackConfig::paper_default()
    };
    for t in 0..trials {
        let mut rng = DetRng::new(1000 + t);
        let out = hack_prefill_attention(&q, &k, &v, cfg, &mut rng).output;
        accumulated = accumulated.add(&out);
    }
    let mean = accumulated.scale(1.0 / trials as f32);
    let cos = hack_tensor::cosine_similarity(&exact, &mean);
    assert!(cos > 0.97, "averaged stochastic output cosine {cos}");
}
