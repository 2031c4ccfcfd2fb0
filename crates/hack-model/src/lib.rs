//! # hack-model
//!
//! Model architectures, GPU/instance specifications, parallelism configurations and the
//! analytical cost model of the HACK reproduction, plus a small runnable reference
//! transformer used for end-to-end numerical (accuracy-proxy) experiments.
//!
//! The paper evaluates five real models (Mistral-v0.3 7B, Phi-3 14B, Yi 34B, Llama-3.1
//! 70B, Falcon 180B) on five AWS GPU instance families (Table 2) with the TP/PP
//! configurations of Table 3. Running those models is impossible in this environment,
//! but every JCT-style result in the paper is a function of
//!
//! * how many FLOPs and bytes each stage moves (a property of the architecture),
//! * how fast each GPU/instance executes and transfers them (a property of the
//!   hardware), and
//! * how the evaluated method changes those counts (quantization, INT8 compute,
//!   dequantization, approximation — the formulas in `hack-quant::cost`).
//!
//! This crate provides those three ingredients:
//!
//! * [`spec`] — architectural parameters and FLOP/byte counts per model.
//! * [`gpu`] — per-GPU and per-instance specs (Table 2).
//! * [`parallelism`] — TP/PP degrees per model/GPU (Table 3).
//! * [`cost`] — [`cost::ReplicaCostModel`]: stage latencies (prefill, quantization,
//!   transfer, dequantization/approximation, decode) for a model replica on a given
//!   instance, parameterised by a [`cost::KvMethodProfile`].
//!   Each formula's length-independent terms are evaluated once per
//!   configuration: per model, profile and wire bandwidth by
//!   [`cost::PrefillEvaluator`], and per model, profile and batch by the
//!   decode-side evaluator the decode cost table runs.
//! * [`cost_table`] — O(1) views of the cost model for the simulator: the
//!   decode/dequant prefix sums of [`cost_table::DecodeCostTable`]
//!   (process-wide cached), and the per-prompt-length memo
//!   [`cost_table::PrefillCostTable`], which the simulator does not use (the
//!   benchmark times its build).
//! * [`reference`](mod@reference) — a small, runnable decoder-only transformer (RMSNorm, RoPE, GQA,
//!   SwiGLU MLP) whose attention backend is pluggable, used to measure end-to-end
//!   output fidelity of HACK and the baselines (Table 6/7 proxies).

pub mod cost;
pub mod cost_table;
pub mod gpu;
pub mod parallelism;
pub mod reference;
pub mod spec;

pub use cost::{CostParams, KvMethodProfile, PrefillEvaluator, ReplicaCostModel};
pub use cost_table::{DecodeCostTable, PrefillCostTable, PrefillCosts};
pub use gpu::{GpuKind, GpuSpec, InstanceKind, InstanceSpec};
pub use parallelism::Parallelism;
pub use reference::{AttentionBackend, ReferenceConfig, ReferenceTransformer};
pub use spec::{ModelKind, ModelSpec};
