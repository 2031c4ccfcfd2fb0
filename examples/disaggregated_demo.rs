//! Disaggregated prefill/decode demo over real TCP.
//!
//! A "prefill worker" thread runs HACK prefill attention on a batch of requests,
//! quantizes their KV data and ships it (2-bit codes + metadata + FP16 V-tail + first
//! token) over a localhost TCP connection to a "decode worker", which rebuilds the
//! quantized KV state and generates tokens with the homomorphic decode kernel — the
//! same split the paper implements with NCCL between AWS instances (Fig. 5).
//!
//! Run with: `cargo run --example disaggregated_demo`

use hack_core::prelude::*;
use hack_transport::{DecodeServer, KvTransferMessage, PrefillClient};
use std::time::Instant;

const HEAD_DIM: usize = 64;
const NUM_REQUESTS: u64 = 6;
const DECODE_STEPS: usize = 8;

fn synth_kv(tokens: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = DetRng::new(seed);
    let gen = |rng: &mut DetRng| {
        Matrix::from_fn(tokens, HEAD_DIM, |t, c| {
            ((c % 7) as f32 - 3.0) * 0.3
                + 0.25 * rng.normal_f32(0.0, 1.0)
                + 0.05 * (t as f32 * 0.01).cos()
        })
    };
    (gen(&mut rng), gen(&mut rng), gen(&mut rng))
}

fn main() {
    // Decode side: listens for quantized KV transfers.
    let server = DecodeServer::start().expect("bind decode server");
    let addr = server.addr();
    println!("decode worker listening on {addr}");

    // Prefill side: runs prefill for each request and streams the quantized KV.
    let prefill_handle = std::thread::spawn(move || {
        let mut client = PrefillClient::connect(addr).expect("connect to decode worker");
        let cfg = HackConfig::paper_default();
        let mut total_bytes = 0usize;
        let mut total_fp16 = 0usize;
        for id in 0..NUM_REQUESTS {
            let tokens = 192 + (id as usize % 3) * 64;
            let (q, k, v) = synth_kv(tokens, 100 + id);
            let mut rng = DetRng::new(500 + id);
            let started = Instant::now();
            let prefill = hack_prefill_attention(&q, &k, &v, cfg, &mut rng);
            // "First token": pretend the argmax over the mean output channel is it.
            let first_token = prefill
                .output
                .row(prefill.output.rows() - 1)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i as u32)
                .unwrap_or(0);
            let msg = KvTransferMessage {
                request_id: id,
                layer: 0,
                head: 0,
                first_token,
                k: prefill.state.k_quant().clone(),
                v: prefill.state.v_quant().clone(),
                v_tail: prefill.state.v_tail().clone(),
            };
            let sent = client.send(&msg).expect("send KV transfer");
            total_bytes += sent;
            total_fp16 += 2 * 2 * tokens * HEAD_DIM;
            println!(
                "prefill[{id}]: {tokens} tokens, prefill+quantize {:.1} ms, shipped {:.1} KiB",
                started.elapsed().as_secs_f64() * 1e3,
                sent as f64 / 1024.0
            );
        }
        println!(
            "prefill worker done: {:.1} KiB on the wire vs {:.1} KiB FP16 ({:.1}% compression)",
            total_bytes as f64 / 1024.0,
            total_fp16 as f64 / 1024.0,
            100.0 * (1.0 - total_bytes as f64 / total_fp16 as f64)
        );
    });

    // Decode side: rebuild each request's KV state and run a few decode iterations.
    let mut received = 0;
    while received < NUM_REQUESTS {
        let msg = server.recv().expect("receive KV transfer");
        received += 1;
        let mut state = HackKvState::from_parts(
            HackConfig::paper_default(),
            HEAD_DIM,
            msg.k.clone(),
            msg.v.clone(),
            msg.v_tail.clone(),
        );
        let mut rng = DetRng::new(900 + msg.request_id);
        let mut generated = vec![msg.first_token];
        for step in 0..DECODE_STEPS {
            let last = *generated.last().unwrap() as usize;
            let q: Vec<f32> = (0..HEAD_DIM)
                .map(|i| ((i + last + step) as f32 * 0.02).sin())
                .collect();
            let k: Vec<f32> = (0..HEAD_DIM)
                .map(|i| ((i * 3 + last) as f32 * 0.015).cos())
                .collect();
            let v: Vec<f32> = (0..HEAD_DIM)
                .map(|i| ((i + 2 * step) as f32 * 0.04).sin())
                .collect();
            let (out, _) = state.decode_step(&q, &k, &v, &mut rng);
            // Toy "sampling": index of the strongest output channel.
            let next = out
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i as u32)
                .unwrap();
            generated.push(next);
        }
        println!(
            "decode[{}]: restored {} prompt tokens ({} quantized + {} FP16 tail), generated {:?}",
            msg.request_id,
            state.seq_len() - DECODE_STEPS,
            state.quantized_tokens(),
            state.tail_tokens(),
            generated
        );
    }

    prefill_handle.join().expect("prefill worker");
    server.shutdown();
    println!("demo complete: prefill → TCP transfer of quantized KV → decode, with no dequantization step.");
}
