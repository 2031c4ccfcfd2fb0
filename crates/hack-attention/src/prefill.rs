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
//! No dense `L × L` f32 matrix is built. P' is an `L × L` one-byte code tensor whose
//! partitions after each row's diagonal stay zero.
//!
//! # Two threads, one draw stream
//!
//! The dots, the scaling and the softmax draw nothing from the RNG, and every query
//! row of them is independent; only the quantizations draw. So the kernel runs the
//! draw-free half on up to `available_parallelism() − 1` scoped helper threads (none
//! for a prompt of one chunk, or whose `L² · d_h` is below 2²¹, where starting a
//! thread costs more than it saves). The `&mut DetRng` never leaves the caller,
//! which draws in the serial order: Q, K, the P rows from 0 to `L − 1`, V, then
//! `from_prefill`'s K and V.
//!
//! * **Phase 1** (`Q'·K'ᵀ`, softmax, P quantization). Rows are cut into chunks of
//!   16. Helpers claim chunks in order and compute their scaled softmax rows into a
//!   per-chunk buffer. The caller quantizes the chunks strictly in row order; when
//!   the next one is not ready it claims and computes the next unclaimed chunk
//!   itself, so with zero helpers the same loop runs serially. Claims stop eight
//!   chunks past the last one quantized, which bounds the buffered score rows to 128
//!   rows of at most `L` floats (1 MiB at L = 2048); the buffers are reused from
//!   chunk to chunk.
//! * **Phase 2** (`P'·V'`). After the caller quantized V, every thread takes chunks
//!   of output rows, the longest first, from one shared iterator. The rows are
//!   disjoint, so each row accumulates exactly as in the serial loop.
//!
//! Each row's arithmetic and every draw are those of the serial loop, so the result
//! does not depend on the number of threads; a test pins 0, 1 and 3 helpers to each
//! other bit for bit.
//!
//! # Memory
//!
//! P' is the largest allocation of the kernel (4 MiB at L = 2048), so P', the
//! quantized operands and both products' metadata copies are freed before
//! [`HackKvState::from_prefill`] runs; otherwise its transient copies of V would
//! sit on top of them at the kernel's memory peak. Running `from_prefill` alongside
//! `P'·V'` would hide its time but put it back on that peak: an overlapped variant
//! read the `kernel-decode` benchmark's peak RSS 5.8% higher.
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
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

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

/// Query rows per chunk: the unit a thread claims in both phases, and the unit
/// the caller quantizes P in.
const CHUNK_ROWS: usize = 16;

/// Chunks that may be claimed past the last one the caller has quantized. It
/// caps the buffered score rows at `WINDOW_CHUNKS × CHUNK_ROWS` rows of at most
/// `L` floats each (1 MiB at L = 2048).
const WINDOW_CHUNKS: usize = 8;

/// The `L² · d_h` below which prefill runs on the caller alone. On a 2-vCPU
/// host, starting and joining the helpers of both phases cost 50–80 µs, and a
/// head of `L = 160`, `d_h = 64` (1.6 M) ran no faster on two threads than on
/// one. The reference transformer's heads (`d_h = 16`, under a hundred
/// tokens) stay far below it.
const MIN_PARALLEL_WORK: usize = 1 << 21;

/// Runs HACK prefill self-attention for a single head.
///
/// * `q`, `k`, `v`: `L × d_h` (the prompt's projections for this head).
///
/// Prompts of more than 16 rows and an `L² · d_h` of at least 2²¹ run on up
/// to `available_parallelism() − 1` helper threads besides the caller. Every
/// stochastic-rounding draw stays on the caller, in the serial order, so the
/// result does not depend on the thread count.
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
    let se = cfg.summation_elimination;
    let helpers = if l * l * d_h < MIN_PARALLEL_WORK {
        0
    } else {
        spare_threads().min(l.div_ceil(CHUNK_ROWS) - 1)
    };
    // Everything the products allocate, P' included, is freed when
    // `causal_attention` returns, so `from_prefill` starts from a smaller peak.
    let output = causal_attention(q, k, v, cfg, helpers, rng);

    // Build the decode-ready KV state (honouring RQE for the trailing partial block).
    let state = HackKvState::from_prefill(k, v, cfg, rng);

    PrefillOutput {
        output,
        state,
        qk_counts: HomomorphicOpCounts::dense(l, l, d_h, pi, se),
        pv_counts: HomomorphicOpCounts::dense(l, d_h, l, pi, se),
    }
}

/// The host's threads besides the calling one, read once per process.
fn spare_threads() -> usize {
    static SPARE: OnceLock<usize> = OnceLock::new();
    *SPARE.get_or_init(|| thread::available_parallelism().map_or(0, |n| n.get() - 1))
}

/// Steps 2–4 of causal HACK prefill: the `L × d_h` attention output, with
/// `helpers` threads besides the caller computing scores and `P'·V'` rows.
fn causal_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: HackConfig,
    helpers: usize,
    rng: &mut DetRng,
) -> Matrix {
    let (l, d_h) = q.shape();
    let pi = cfg.partition.get();
    // Without Summation Elimination every product recomputes its operands' code sums
    // from the codes instead of reading the stored ones.
    let se = cfg.summation_elimination;

    // Step 2: quantize Q (INT8, partitions along the head dimension) and K (INT2).
    let q_q = QuantizedTensor::quantize_rows(q, cfg.q_bits, pi, cfg.rounding, rng);
    let k_q = QuantizedTensor::quantize_rows(k, cfg.kv_bits, pi, cfg.rounding, rng);
    let (q_sums, k_sums) = (q_q.code_sums(se), k_q.code_sums(se));

    // Steps 3–4 and step 2 again, a chunk of query rows at a time: any thread
    // computes the homomorphic Q'·K'ᵀ over the visible keys, scaled, causal
    // softmax; the caller then quantizes P (INT8, partitions along the sequence
    // dimension) up to each row's diagonal partition, strictly in row order. The
    // partitions after it keep codes 0 and zero metadata, which is what they
    // quantize to, and are never read.
    let p_spans: Vec<(usize, usize)> = PartitionLayout::new(l, pi).ranges().collect();
    let n_parts = p_spans.len();
    let qk = RowProduct::with_sums(&k_q, &k_sums);
    let scores = ScoreRows {
        q_q: &q_q,
        q_sums: &q_sums,
        qk: &qk,
        scale: 1.0 / (d_h as f32).sqrt(),
        l,
        pi,
    };
    let mut p_codes = vec![0u8; l * l];
    let zero_meta = PartitionMeta {
        min: 0.0,
        scale: 0.0,
    };
    let mut p_metas = vec![zero_meta; l * n_parts];
    let mut p_sums = vec![0i32; l * n_parts];
    let window = Window::new(l.div_ceil(CHUNK_ROWS));
    thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(|| window.help(&scores));
        }
        let _abort = AbortOnPanic(&window);
        for c in 0..window.chunks {
            let buf = window.take(c, &scores);
            let stride = scores.stride(c);
            for (r, i) in scores.rows(c).enumerate() {
                let row = &buf[r * stride..];
                let row_codes = &mut p_codes[i * l..(i + 1) * l];
                for (p, &(s, e)) in p_spans[..=i / pi].iter().enumerate() {
                    let (meta, sum) = quantize_partition(
                        &row[s..e],
                        &mut row_codes[s..e],
                        cfg.p_bits,
                        cfg.rounding,
                        rng,
                    );
                    p_metas[i * n_parts + p] = meta;
                    p_sums[i * n_parts + p] = sum;
                }
            }
            window.release(buf);
        }
    });
    // The scores are done. Freeing their right-operand copies before P'·V' builds
    // its own keeps the two off the same memory peak.
    drop(qk);
    let p_q = QuantizedTensor::from_parts(l, l, cfg.p_bits, pi, p_codes, p_metas, p_sums);
    let p_sums = p_q.code_sums(se);

    // Step 2 again for V (INT2, partitions along the sequence dimension), then step 3
    // again: homomorphic P'·V' over each row's partitions up to the diagonal, chunks
    // of output rows on every thread, the longest rows first.
    let v_q = QuantizedTensor::quantize_cols(v, cfg.kv_bits, pi, cfg.rounding, rng);
    let v_sums = v_q.code_sums(se);
    let pv = RowProduct::with_sums(&v_q, &v_sums);
    let mut output = Matrix::zeros(l, d_h);
    let blocks = Mutex::new(
        output
            .as_mut_slice()
            .chunks_mut((CHUNK_ROWS * d_h).max(1))
            .enumerate()
            .rev(),
    );
    let run = || loop {
        let Some((c, rows)) = lock(&blocks).next() else {
            return;
        };
        for (r, out) in rows.chunks_mut(d_h).enumerate() {
            let i = c * CHUNK_ROWS + r;
            pv.accumulate(p_q.row_prefix(i, i / pi + 1, &p_sums), out);
        }
    };
    thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(run);
        }
        run();
    });
    output
}

/// Locks `mutex`, also after a thread panicked holding it. Every update made
/// under these locks is one field write or one iterator step, so the data is
/// valid whenever a lock is released, and a panicking thread sets
/// [`WindowState::aborted`] so that no other thread waits for it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The RNG-free half of a query row: `Q'·K'ᵀ` over the visible keys, scaled,
/// then the causal softmax.
struct ScoreRows<'a> {
    q_q: &'a QuantizedTensor,
    q_sums: &'a [i32],
    qk: &'a RowProduct<'a>,
    scale: f32,
    l: usize,
    pi: usize,
}

impl ScoreRows<'_> {
    /// The query rows of chunk `c`.
    fn rows(&self, c: usize) -> Range<usize> {
        c * CHUNK_ROWS..((c + 1) * CHUNK_ROWS).min(self.l)
    }

    /// The distance between rows in chunk `c`'s buffer: up to the end of its
    /// last row's diagonal partition, the furthest any of its rows is read.
    fn stride(&self, c: usize) -> usize {
        let last = self.rows(c).end - 1;
        ((last / self.pi + 1) * self.pi).min(self.l)
    }

    /// Fills `buf` with chunk `c`'s probability rows, each zero past its
    /// diagonal, so the masked tail of the diagonal partition quantizes
    /// exactly as in the dense P.
    fn fill(&self, c: usize, buf: &mut Vec<f32>) {
        let stride = self.stride(c);
        let rows = self.rows(c);
        buf.clear();
        buf.resize(rows.len() * stride, 0.0);
        let n_q = self.q_q.n_partitions();
        for (r, i) in rows.enumerate() {
            let visible = &mut buf[r * stride..][..=i];
            self.qk
                .accumulate(self.q_q.row_prefix(i, n_q, self.q_sums), visible);
            for s in visible.iter_mut() {
                *s *= self.scale;
            }
            softmax_slice_inplace(visible);
        }
    }
}

/// The chunks of score rows between the threads that compute them and the
/// caller that quantizes them in order.
struct Window {
    chunks: usize,
    state: Mutex<WindowState>,
    changed: Condvar,
}

struct WindowState {
    /// The first chunk no thread has claimed; chunks are claimed in order.
    next: usize,
    /// Chunks the caller has quantized. Claims stop at `done + WINDOW_CHUNKS`.
    done: usize,
    /// Computed chunks the caller has not taken yet.
    ready: Vec<Option<Vec<f32>>>,
    /// Buffers the caller has finished with, for the next claims.
    spare: Vec<Vec<f32>>,
    /// A thread panicked: nobody may wait for another thread any more.
    aborted: bool,
}

impl Window {
    fn new(chunks: usize) -> Self {
        Self {
            chunks,
            state: Mutex::new(WindowState {
                next: 0,
                done: 0,
                ready: (0..chunks).map(|_| None).collect(),
                spare: Vec::new(),
                aborted: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Claims the next chunk if the window has room, with a buffer for it.
    fn claim(&self, st: &mut WindowState) -> Option<(usize, Vec<f32>)> {
        let c = st.next;
        if c == self.chunks || c == st.done + WINDOW_CHUNKS {
            return None;
        }
        st.next += 1;
        Some((c, st.spare.pop().unwrap_or_default()))
    }

    fn wait<'a>(&self, st: MutexGuard<'a, WindowState>) -> MutexGuard<'a, WindowState> {
        self.changed
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper thread: computes the next unclaimed chunk while the window has
    /// room, until every chunk is claimed.
    fn help(&self, scores: &ScoreRows<'_>) {
        let _abort = AbortOnPanic(self);
        let mut st = lock(&self.state);
        while !st.aborted && st.next < self.chunks {
            let Some((c, mut buf)) = self.claim(&mut st) else {
                st = self.wait(st);
                continue;
            };
            drop(st);
            scores.fill(c, &mut buf);
            st = lock(&self.state);
            st.ready[c] = Some(buf);
            self.changed.notify_all();
        }
    }

    /// The caller: chunk `c`'s scores. While a helper still computes them the
    /// caller computes the next unclaimed chunk itself, or waits if the window
    /// is full; with no helpers it computes every chunk in turn.
    fn take(&self, c: usize, scores: &ScoreRows<'_>) -> Vec<f32> {
        let mut st = lock(&self.state);
        loop {
            assert!(!st.aborted, "a prefill helper thread panicked");
            if let Some(buf) = st.ready[c].take() {
                return buf;
            }
            let Some((claimed, mut buf)) = self.claim(&mut st) else {
                st = self.wait(st);
                continue;
            };
            drop(st);
            scores.fill(claimed, &mut buf);
            if claimed == c {
                return buf;
            }
            st = lock(&self.state);
            st.ready[claimed] = Some(buf);
        }
    }

    /// The caller has quantized the oldest chunk: slides the window by one and
    /// keeps its buffer for a later claim.
    fn release(&self, buf: Vec<f32>) {
        let mut st = lock(&self.state);
        st.done += 1;
        st.spare.push(buf);
        self.changed.notify_all();
    }
}

/// Marks the window aborted if its thread unwinds while the guard is alive,
/// so no other thread waits for it forever.
struct AbortOnPanic<'a>(&'a Window);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            lock(&self.0.state).aborted = true;
            self.0.changed.notify_all();
        }
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

    #[test]
    fn prefill_is_pinned() {
        // An FNV-1a digest over the output bits, the shipped state (codes,
        // metadata and `kv_bytes`) and the next RNG draw, under the paper
        // default (Π = 64, stochastic rounding), at lengths around the
        // partition size and two long ragged ones. Any change to what prefill
        // computes, or to the order of its draws, moves it.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &byte in bytes {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for l in [1usize, 15, 16, 17, 64, 65, 731, 1100] {
            let (q, k, v) = structured_qkv(l, 64, 300 + l as u64);
            let mut rng = DetRng::new(17 + l as u64);
            let out = hack_prefill_attention(&q, &k, &v, HackConfig::paper_default(), &mut rng);
            for x in out.output.as_slice() {
                feed(&x.to_bits().to_le_bytes());
            }
            for t in [out.state.k_quant(), out.state.v_quant()] {
                feed(t.codes());
                for m in t.metas() {
                    feed(&m.min.to_bits().to_le_bytes());
                    feed(&m.scale.to_bits().to_le_bytes());
                }
            }
            feed(&(out.state.kv_bytes() as u64).to_le_bytes());
            feed(&rng.next_u64().to_le_bytes());
        }
        assert_eq!(digest, 0xd354_7aed_09e4_5ee0, "prefill digest");
    }

    #[test]
    fn helper_count_does_not_change_prefill() {
        // Outputs, shipped state and the next RNG draw with 0, 1 and 3 helper
        // threads: a prompt shorter than one chunk, one that ends mid-chunk,
        // and longer ones whose chunks outnumber the window, under both
        // rounding modes and without Summation Elimination.
        for (l, pi) in [(9usize, 64), (40, 32), (200, 64), (331, 128)] {
            let (q, k, v) = structured_qkv(l, 64, 500 + l as u64);
            for rounding in [RoundingMode::Nearest, RoundingMode::Stochastic] {
                let cfg = HackConfig {
                    partition: PartitionSize::new(pi).unwrap(),
                    rounding,
                    summation_elimination: l != 200,
                    ..HackConfig::paper_default()
                };
                let run = |helpers: usize| {
                    let mut rng = DetRng::new(23 + l as u64);
                    let output = causal_attention(&q, &k, &v, cfg, helpers, &mut rng);
                    let state = HackKvState::from_prefill(&k, &v, cfg, &mut rng);
                    (bits_of(&output), state, rng.next_u64())
                };
                let (serial, serial_state, serial_draw) = run(0);
                for helpers in [1, 3] {
                    let label = format!("L={l} Π={pi} {rounding:?} helpers={helpers}");
                    let (output, state, draw) = run(helpers);
                    assert_eq!(output, serial, "{label}");
                    assert_eq!(state.k_quant(), serial_state.k_quant(), "{label}");
                    assert_eq!(state.v_quant(), serial_state.v_quant(), "{label}");
                    assert_eq!(
                        bits_of(state.v_tail()),
                        bits_of(serial_state.v_tail()),
                        "{label}"
                    );
                    assert_eq!(draw, serial_draw, "{label}");
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
    fn zero_width_head_gives_an_empty_output() {
        let m = Matrix::zeros(40, 0);
        let mut rng = DetRng::new(14);
        let out = hack_prefill_attention(&m, &m, &m, HackConfig::paper_default(), &mut rng);
        assert_eq!(out.output.shape(), (40, 0));
        assert_eq!(
            causal_attention(&m, &m, &m, out.state.config(), 1, &mut rng).shape(),
            (40, 0)
        );
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
