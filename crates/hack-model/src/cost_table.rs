//! Memoized cost tables: O(1) per-request analytic costs for the simulator.
//!
//! The discrete-event simulator asks [`ReplicaCostModel`] the same questions over
//! and over: the per-iteration decode and dequantization/approximation times at
//! every context length a request passes through (O(output tokens) formula
//! evaluations per request), and the prefill/quantization/transfer times of
//! prompt lengths that repeat heavily across a trace. For a fixed
//! `(ReplicaCostModel, KvMethodProfile, batch)` all of these are pure functions
//! of one integer, so a cluster run can precompute them once:
//!
//! * [`DecodeCostTable`] — per-`kv_len` decode/dequant iteration times up to the
//!   trace's maximum context, plus f64 prefix sums, turning the per-request
//!   decode-duration loop into two prefix subtractions.
//! * [`PrefillCostTable`] — prefill/quantization/uncontended-transfer times
//!   memoized by prompt length.
//!
//! Prefix sums change the f64 summation order (`prefix[a+n] - prefix[a]` versus
//! the sequential loop from `a+1` to `a+n`), so table results match the
//! reference loop ([`ReplicaCostModel::decode_durations_reference`]) exactly
//! when the request starts at context 0 and to ~1e-15 relative error elsewhere.
//! The tests in this module pin both bounds; `hack-cluster`'s `cost_layer_*`
//! test pins the simulator's lookups to the reference formulas within 1e-9.
//!
//! Tables are immutable once built and shared via [`DecodeCostTable::shared`],
//! a process-wide cache keyed by the full parameterisation: repeated simulator
//! constructions over the same configuration (benchmark iterations, capacity
//! bisections, figure grids) pay the O(max context) construction once. A
//! cached table longer than requested returns identical values for every
//! prefix difference (prefix sums are built sequentially from `kv_len = 1`,
//! independent of table length), so cache state can never change results.

use crate::cost::{KvMethodProfile, ReplicaCostModel};
use hack_tensor::IntMap;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-`kv_len` decode-side cost tables with prefix sums for one
/// `(ReplicaCostModel, KvMethodProfile, batch)` triple.
#[derive(Debug, Clone)]
pub struct DecodeCostTable {
    /// `decode_iter[k]` = `decode_iter_time(k)`; index 0 is unused (0.0).
    decode_iter: Vec<f64>,
    /// `dequant_iter[k]` = `dequant_or_approx_iter_time(k)`; index 0 unused.
    dequant_iter: Vec<f64>,
    /// `decode_prefix[k]` = sum of `decode_iter[1..=k]`, accumulated in
    /// ascending `kv_len` order; `decode_prefix[0]` = 0.
    decode_prefix: Vec<f64>,
    /// Prefix sums of `dequant_iter`, same convention.
    dequant_prefix: Vec<f64>,
}

impl DecodeCostTable {
    /// Builds the tables for context lengths `1..=max_kv_len`.
    pub fn build(
        model: &ReplicaCostModel,
        profile: &KvMethodProfile,
        batch: f64,
        max_kv_len: usize,
    ) -> Self {
        let max_kv_len = max_kv_len.max(1);
        let mut decode_iter = Vec::with_capacity(max_kv_len + 1);
        let mut dequant_iter = Vec::with_capacity(max_kv_len + 1);
        let mut decode_prefix = Vec::with_capacity(max_kv_len + 1);
        let mut dequant_prefix = Vec::with_capacity(max_kv_len + 1);
        decode_iter.push(0.0);
        dequant_iter.push(0.0);
        decode_prefix.push(0.0);
        dequant_prefix.push(0.0);
        for kv_len in 1..=max_kv_len {
            let d = model.decode_iter_time(kv_len, profile, batch);
            let q = model.dequant_or_approx_iter_time(kv_len, profile);
            decode_iter.push(d);
            dequant_iter.push(q);
            decode_prefix.push(decode_prefix[kv_len - 1] + d);
            dequant_prefix.push(dequant_prefix[kv_len - 1] + q);
        }
        Self {
            decode_iter,
            dequant_iter,
            decode_prefix,
            dequant_prefix,
        }
    }

    /// Largest context length covered by the tables.
    pub fn max_kv_len(&self) -> usize {
        self.decode_iter.len() - 1
    }

    /// Tabulated `decode_iter_time(kv_len)`.
    ///
    /// # Panics
    /// Panics if `kv_len` exceeds [`Self::max_kv_len`].
    pub fn decode_iter_time(&self, kv_len: usize) -> f64 {
        self.decode_iter[kv_len]
    }

    /// Tabulated `dequant_or_approx_iter_time(kv_len)`.
    pub fn dequant_or_approx_iter_time(&self, kv_len: usize) -> f64 {
        self.dequant_iter[kv_len]
    }

    /// Total (decode, dequant/approx) time of `output_len` decode iterations
    /// starting from a prompt of `input_len` tokens — two prefix subtractions
    /// instead of the O(`output_len`) reference loop.
    ///
    /// # Panics
    /// Panics if `input_len + output_len` exceeds [`Self::max_kv_len`].
    pub fn decode_durations(&self, input_len: usize, output_len: usize) -> (f64, f64) {
        let end = input_len + output_len;
        assert!(
            end <= self.max_kv_len(),
            "decode cost table covers kv_len <= {} but the request ends at {end}",
            self.max_kv_len()
        );
        (
            self.decode_prefix[end] - self.decode_prefix[input_len],
            self.dequant_prefix[end] - self.dequant_prefix[input_len],
        )
    }

    /// Returns a shared table covering at least `min_kv_len`, building (and
    /// caching process-wide) one if necessary. Lengths are rounded up to the
    /// next power of two so that traces of slightly different maxima reuse one
    /// table; a longer table returns bit-identical prefix differences.
    pub fn shared(
        model: &ReplicaCostModel,
        profile: &KvMethodProfile,
        batch: f64,
        min_kv_len: usize,
    ) -> Arc<Self> {
        static CACHE: OnceLock<Mutex<HashMap<String, Arc<DecodeCostTable>>>> = OnceLock::new();
        // f64 `Debug` prints the shortest round-trippable representation, so
        // distinct parameterisations always get distinct keys.
        let key = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{batch:?}",
            model.model, model.gpu, model.parallel, model.params, profile
        );
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(table) = cache
            .lock()
            .expect("decode cost-table cache poisoned")
            .get(&key)
        {
            if table.max_kv_len() >= min_kv_len {
                return table.clone();
            }
        }
        // Build outside the lock: a racing first build of the same key wastes
        // a little work instead of serializing every other key's lookup
        // behind an O(max context) construction.
        let len = min_kv_len.max(1024).next_power_of_two();
        let table = Arc::new(Self::build(model, profile, batch, len));
        let mut map = cache.lock().expect("decode cost-table cache poisoned");
        match map.get(&key) {
            // Another thread won the race with a table at least as long; use
            // it so every caller converges on one instance.
            Some(existing) if existing.max_kv_len() >= table.max_kv_len() => existing.clone(),
            _ => {
                map.insert(key, table.clone());
                table
            }
        }
    }
}

/// Prefill-side service times of one prompt length (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefillCosts {
    /// Prefill compute time.
    pub prefill: f64,
    /// KV quantization/encoding time.
    pub quantization: f64,
    /// Uncontended KV wire time at the table's network bandwidth.
    pub transfer: f64,
}

/// Prefill/quantization/transfer times memoized by prompt length for one
/// `(ReplicaCostModel, KvMethodProfile, network_gbps)` triple.
///
/// Traces repeat prompt lengths heavily (dataset length distributions are
/// discrete), so the table is built once per simulator from the distinct
/// prompt lengths of its trace.
#[derive(Debug, Clone)]
pub struct PrefillCostTable {
    entries: IntMap<usize, PrefillCosts>,
}

impl PrefillCostTable {
    /// Builds the memo over the given prompt lengths (duplicates are computed
    /// once).
    pub fn build(
        model: &ReplicaCostModel,
        profile: &KvMethodProfile,
        network_gbps: f64,
        prompts: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut entries = IntMap::default();
        for prompt in prompts {
            entries.entry(prompt).or_insert_with(|| PrefillCosts {
                prefill: model.prefill_time(prompt, profile),
                quantization: model.quantization_time(prompt, profile),
                transfer: model.transfer_time(prompt, profile, network_gbps),
            });
        }
        Self { entries }
    }

    /// A copy of this memo with the transfer column re-evaluated at a
    /// different network bandwidth, reusing the (bandwidth-independent)
    /// prefill/quantization entries. Heterogeneous fleets need one transfer
    /// memo per (prefill group, decode group) NIC pairing but only one
    /// prefill/quantization evaluation per prefill group; this avoids
    /// re-running the expensive service-time formulas per pairing. Transfer
    /// values are bit-identical to a fresh [`Self::build`] at `network_gbps`.
    pub fn with_network(
        &self,
        model: &ReplicaCostModel,
        profile: &KvMethodProfile,
        network_gbps: f64,
    ) -> Self {
        let entries = self
            .entries
            .iter()
            .map(|(&prompt, costs)| {
                (
                    prompt,
                    PrefillCosts {
                        transfer: model.transfer_time(prompt, profile, network_gbps),
                        ..*costs
                    },
                )
            })
            .collect();
        Self { entries }
    }

    /// Memoized costs of `prompt`, if it was part of the build set.
    pub fn get(&self, prompt: usize) -> Option<PrefillCosts> {
        self.entries.get(&prompt).copied()
    }

    /// Number of distinct prompt lengths memoized.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuKind;
    use crate::parallelism::Parallelism;
    use crate::spec::ModelKind;

    fn decode_model() -> ReplicaCostModel {
        let model = ModelKind::Llama31_70B.spec();
        ReplicaCostModel::new(
            model,
            GpuKind::A100.spec(),
            Parallelism::table3(ModelKind::Llama31_70B, GpuKind::A100),
        )
    }

    /// Every method profile the paper compares (the `Method` mapping in
    /// `hack-core` resolves to exactly these constructors).
    fn all_profiles() -> Vec<KvMethodProfile> {
        vec![
            KvMethodProfile::baseline(),
            KvMethodProfile::cachegen(),
            KvMethodProfile::kvquant(),
            KvMethodProfile::hack(),
            KvMethodProfile::hack_with_partition(32),
            KvMethodProfile::hack_with_partition(128),
            KvMethodProfile::hack_no_se(),
            KvMethodProfile::hack_no_rqe(),
            KvMethodProfile::fp8(),
            KvMethodProfile::fp6(),
            KvMethodProfile::fp4(),
        ]
    }

    #[test]
    fn table_matches_the_pointwise_formulas_exactly() {
        let m = decode_model();
        let batch = 8.0;
        for profile in all_profiles() {
            let table = DecodeCostTable::build(&m, &profile, batch, 4096);
            for kv_len in [1usize, 2, 63, 64, 65, 1000, 4096] {
                assert_eq!(
                    table.decode_iter_time(kv_len),
                    m.decode_iter_time(kv_len, &profile, batch),
                    "{}: decode_iter_time({kv_len})",
                    profile.name
                );
                assert_eq!(
                    table.dequant_or_approx_iter_time(kv_len),
                    m.dequant_or_approx_iter_time(kv_len, &profile),
                    "{}: dequant_or_approx_iter_time({kv_len})",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn prefix_subtraction_matches_reference_loop() {
        let m = decode_model();
        let batch = 8.0;
        for profile in all_profiles() {
            let table = DecodeCostTable::build(&m, &profile, batch, 20_000);
            for (input, output) in [(0usize, 128usize), (1, 1), (315, 37), (16_200, 159)] {
                let (td, tq) = table.decode_durations(input, output);
                let (rd, rq) = m.decode_durations_reference(&profile, batch, input, output);
                if input == 0 {
                    // Same summation order: bit-identical.
                    assert_eq!(td, rd, "{}: decode from 0", profile.name);
                    assert_eq!(tq, rq, "{}: dequant from 0", profile.name);
                } else {
                    let close =
                        |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(f64::MIN_POSITIVE);
                    assert!(close(td, rd), "{}: decode {td} vs {rd}", profile.name);
                    assert!(close(tq, rq), "{}: dequant {tq} vs {rq}", profile.name);
                }
            }
        }
    }

    #[test]
    fn zero_output_costs_nothing() {
        let m = decode_model();
        let table = DecodeCostTable::build(&m, &KvMethodProfile::hack(), 8.0, 256);
        assert_eq!(table.decode_durations(100, 0), (0.0, 0.0));
    }

    #[test]
    fn decode_iter_time_is_monotone_in_kv_len() {
        let m = decode_model();
        for profile in all_profiles() {
            let table = DecodeCostTable::build(&m, &profile, 8.0, 8192);
            for kv_len in 2..=table.max_kv_len() {
                assert!(
                    table.decode_iter_time(kv_len) >= table.decode_iter_time(kv_len - 1),
                    "{}: decode_iter_time must not decrease at kv_len {kv_len}",
                    profile.name
                );
                assert!(
                    table.dequant_or_approx_iter_time(kv_len)
                        >= table.dequant_or_approx_iter_time(kv_len - 1),
                    "{}: dequant/approx time must not decrease at kv_len {kv_len}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn shared_cache_reuses_and_grows_tables() {
        let m = decode_model();
        let profile = KvMethodProfile::cachegen();
        let a = DecodeCostTable::shared(&m, &profile, 8.0, 2000);
        let b = DecodeCostTable::shared(&m, &profile, 8.0, 1500);
        assert!(Arc::ptr_eq(&a, &b), "smaller request must reuse the table");
        let c = DecodeCostTable::shared(&m, &profile, 8.0, a.max_kv_len() + 1);
        assert!(c.max_kv_len() > a.max_kv_len());
        // The longer table returns bit-identical prefix differences.
        assert_eq!(a.decode_durations(500, 700), c.decode_durations(500, 700));
        // A different batch size is a different table.
        let d = DecodeCostTable::shared(&m, &profile, 9.0, 1000);
        assert_ne!(d.decode_iter_time(1000), a.decode_iter_time(1000));
    }

    #[test]
    fn with_network_matches_a_fresh_build() {
        let m = decode_model();
        let profile = KvMethodProfile::hack();
        let base = PrefillCostTable::build(&m, &profile, 40.0, [100, 200, 300]);
        let rebased = base.with_network(&m, &profile, 10.0);
        let fresh = PrefillCostTable::build(&m, &profile, 10.0, [100, 200, 300]);
        for prompt in [100usize, 200, 300] {
            assert_eq!(rebased.get(prompt), fresh.get(prompt), "prompt {prompt}");
            // Prefill/quantization are bandwidth-independent and carried over.
            assert_eq!(
                rebased.get(prompt).unwrap().prefill,
                base.get(prompt).unwrap().prefill
            );
        }
    }

    #[test]
    fn prefill_table_memoizes_distinct_prompts() {
        let m = decode_model();
        let profile = KvMethodProfile::hack();
        let table = PrefillCostTable::build(&m, &profile, 40.0, [100, 200, 100, 300, 200]);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        let costs = table.get(200).expect("memoized");
        assert_eq!(costs.prefill, m.prefill_time(200, &profile));
        assert_eq!(costs.quantization, m.quantization_time(200, &profile));
        assert_eq!(costs.transfer, m.transfer_time(200, &profile, 40.0));
        assert!(table.get(999).is_none());
    }
}
