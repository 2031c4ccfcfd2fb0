//! # hack-tensor
//!
//! Dense-matrix substrate for the HACK reproduction.
//!
//! The paper's kernels run on GPU tensor cores through Triton; this crate provides the
//! CPU equivalents every other crate in the workspace builds on:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the small set of operations attention
//!   needs (transpose, row slicing, block views).
//! * [`half`] — software IEEE-754 binary16 ("FP16") emulation, used to model the
//!   storage precision the paper's baselines compute in.
//! * [`matmul`] — FP32 GEMMs and the widened-code integer inner product (u8·u8→i32)
//!   the HACK homomorphic multiplication lowers to.
//! * [`softmax`] — numerically-stable row softmax, optionally causal-masked.
//! * [`rng`] — deterministic, seedable PRNG (SplitMix64 / Xoshiro256**) with Gaussian
//!   and exponential sampling; every stochastic component in the workspace takes one of
//!   these so that experiments are reproducible bit-for-bit.
//! * [`compare`] — numerical comparison helpers (relative error, cosine similarity)
//!   used throughout the test suites.
//! * [`hash`] — a folded-multiply hasher for the integer-keyed maps of the
//!   simulators ([`IntMap`], [`IntSet`]).

pub mod compare;
pub mod half;
pub mod hash;
pub mod matmul;
pub mod matrix;
pub mod rng;
pub mod softmax;

pub use compare::{cosine_similarity, max_abs_diff, mean_abs_error, relative_frobenius_error};
pub use half::F16;
pub use hash::{IntHasher, IntMap, IntSet};
pub use matrix::Matrix;
pub use rng::DetRng;
