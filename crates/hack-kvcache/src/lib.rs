//! # hack-kvcache
//!
//! KV-cache layouts with byte-exact memory accounting.
//!
//! The paper builds HACK on top of vLLM's paged KV cache and modifies the cache
//! structure to hold 2-bit quantized codes, their FP16 `min`/`scale` metadata, the
//! per-partition code sums used by Summation Elimination, and a separate FP16 buffer
//! for the last (partial) block of V (§6). This crate models that byte layout:
//!
//! * [`layout`] — [`CacheLayout`]: how many bytes a token's KV data occupies for a
//!   given storage scheme (FP16, FP8/6/4 casts, or partitioned 2-bit quantization with
//!   optional sums/tail), for a full model (layers × KV heads × head_dim).
//! * [`accounting`] — [`DecodeMemoryModel`]: decode-instance memory accounting used to
//!   regenerate Table 5 and the SE/RQE overhead numbers of §7.4.
//! * [`prefix`] — [`PrefixCache`]: per-decode-replica residency of finished sessions'
//!   quantized KV prefixes (LRU with pinning), the model behind the cluster
//!   simulator's prefix-cache hits that skip re-prefilling shared session context.
//!
//! Whether a decode instance can accept a request is decided in `hack-cluster`, by
//! byte-level accounting of each decode replica's resident KV (`kv_used`) against its
//! budget; Table 5 sizes the same question with [`DecodeMemoryModel`].

pub mod accounting;
pub mod layout;
pub mod prefix;

pub use accounting::{DecodeMemoryModel, MemoryBreakdown};
pub use layout::{CacheLayout, KvShape};
pub use prefix::{InsertReport, PrefixCache, PrefixEntry};
