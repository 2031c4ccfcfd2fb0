//! Cross-crate integration tests: the real TCP prefill→decode path (the NCCL
//! substitute of §6), exercised with actual quantized attention states.

use hack_core::prelude::*;
use hack_transport::{DecodeServer, KvTransferMessage, PrefillClient};

fn build_state(tokens: usize, head_dim: usize, seed: u64) -> HackKvState {
    let mut rng = DetRng::new(seed);
    let gen = |rng: &mut DetRng| {
        Matrix::from_fn(tokens, head_dim, |t, c| {
            ((c % 5) as f32 - 2.0) * 0.4
                + 0.2 * rng.normal_f32(0.0, 1.0)
                + 0.03 * (t as f32 * 0.05).cos()
        })
    };
    let k = gen(&mut rng);
    let v = gen(&mut rng);
    HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng)
}

#[test]
fn prefill_to_decode_over_tcp_preserves_the_state_bit_for_bit() {
    let head_dim = 64;
    let server = DecodeServer::start().expect("bind server");
    let addr = server.addr();

    let states: Vec<HackKvState> = (0..3)
        .map(|i| build_state(100 + 30 * i, head_dim, i as u64))
        .collect();
    let expected: Vec<_> = states
        .iter()
        .map(|s| (s.k_quant().clone(), s.v_quant().clone(), s.v_tail().clone()))
        .collect();

    let sender = {
        let states = states.clone();
        std::thread::spawn(move || {
            let mut client = PrefillClient::connect(addr).expect("connect");
            for (i, s) in states.iter().enumerate() {
                let msg = KvTransferMessage {
                    request_id: i as u64,
                    layer: 0,
                    head: 0,
                    first_token: 11,
                    k: s.k_quant().clone(),
                    v: s.v_quant().clone(),
                    v_tail: s.v_tail().clone(),
                };
                client.send(&msg).expect("send");
            }
        })
    };
    sender.join().unwrap();

    let mut received = server.recv_n(3);
    received.sort_by_key(|m| m.request_id);
    for (i, msg) in received.iter().enumerate() {
        let (k, v, tail) = &expected[i];
        assert_eq!(&msg.k, k, "request {i}: K codes must be identical");
        assert_eq!(&msg.v, v, "request {i}: V codes must be identical");
        assert_eq!(
            &msg.v_tail, tail,
            "request {i}: FP16 tail must be identical"
        );
    }
    server.shutdown();
}

#[test]
fn transferred_state_continues_decoding_identically() {
    let head_dim = 32;
    let state = build_state(130, head_dim, 9);
    let server = DecodeServer::start().expect("bind server");
    let mut client = PrefillClient::connect(server.addr()).expect("connect");
    client
        .send(&KvTransferMessage {
            request_id: 7,
            layer: 1,
            head: 2,
            first_token: 99,
            k: state.k_quant().clone(),
            v: state.v_quant().clone(),
            v_tail: state.v_tail().clone(),
        })
        .expect("send");
    let msg = server.recv().expect("receive");
    server.shutdown();

    let mut remote = HackKvState::from_parts(
        HackConfig::paper_default(),
        head_dim,
        msg.k,
        msg.v,
        msg.v_tail,
    );
    let mut local = state;

    // Run the same decode steps on both sides with the same RNG stream; every output
    // must match exactly. 2Π steps from 130 tokens take both states through two V'
    // tail flushes (at 192 and 256 tokens) and every sequence length mod 8.
    let mut rng_local = DetRng::new(555);
    let mut rng_remote = DetRng::new(555);
    for step in 0..2 * HackConfig::paper_default().partition.get() {
        let q: Vec<f32> = (0..head_dim)
            .map(|i| ((i + step) as f32 * 0.04).sin())
            .collect();
        let kv: Vec<f32> = (0..head_dim)
            .map(|i| ((i * 2 + step) as f32 * 0.03).cos())
            .collect();
        let (out_local, _) = local.decode_step(&q, &kv, &kv, &mut rng_local);
        let (out_remote, _) = remote.decode_step(&q, &kv, &kv, &mut rng_remote);
        assert_eq!(out_local, out_remote, "step {step} diverged");
    }
}

#[test]
fn wire_size_matches_cache_accounting_scale() {
    // The bytes that cross the network should be in the same ballpark as the quantized
    // cache accounting predicts (codes + metadata + sums + tail), and far below FP16.
    let head_dim = 128;
    let tokens = 1024;
    let state = build_state(tokens, head_dim, 21);
    let msg = KvTransferMessage {
        request_id: 0,
        layer: 0,
        head: 0,
        first_token: 0,
        k: state.k_quant().clone(),
        v: state.v_quant().clone(),
        v_tail: state.v_tail().clone(),
    };
    let wire = msg.encoded_len() as f64;
    let fp16 = state.fp16_bytes() as f64;
    let accounted = state.kv_bytes() as f64;
    assert!(wire < 0.3 * fp16, "wire {wire} vs fp16 {fp16}");
    // The wire format ships sums as i32 (vs 1-2 bytes in the cache), so it is a bit
    // larger than the cache accounting but within 2x.
    assert!(
        wire < 2.0 * accounted,
        "wire {wire} vs accounted {accounted}"
    );
    assert!(wire > 0.5 * accounted);
}
