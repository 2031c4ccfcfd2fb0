//! Cost tables: O(1) per-request analytic costs for the simulator.
//!
//! The discrete-event simulator asks [`ReplicaCostModel`] for the summed
//! decode and dequantization/approximation times of every request: one
//! formula evaluation per context length the request passes through, so
//! O(output tokens) per request. For a fixed `(ReplicaCostModel,
//! KvMethodProfile, batch)` those are pure functions of the context length,
//! so a cluster run precomputes their running sums once:
//!
//! * [`DecodeCostTable`] evaluates the decode-side formulas, with their
//!   length-independent terms hoisted, over every context length up to the
//!   trace's maximum and keeps the two prefix-sum columns, turning the
//!   per-request decode-duration loop into two prefix subtractions.
//! * [`PrefillCostTable`] memoizes the prefill-side costs of a set of prompt
//!   lengths. The simulator evaluates those per request through a
//!   [`crate::cost::PrefillEvaluator`] instead; the memo stays as the cost
//!   the benchmark times under `model.cost_table_build_s`.
//!
//! Prefix sums change the f64 summation order (`prefix[a+n] - prefix[a]` versus
//! the sequential loop from `a+1` to `a+n`), so table results match the
//! reference loop ([`ReplicaCostModel::decode_durations_reference`]) exactly
//! when the request starts at context 0 and to ~1e-15 relative error elsewhere.
//! The tests in this module pin both bounds; `hack-cluster`'s `cost_layer_*`
//! test pins the simulator's lookups bit for bit to the same prefix
//! differences of the pointwise formulas.
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

/// Prefix sums of the per-`kv_len` decode and dequant/approx iteration times
/// of one `(ReplicaCostModel, KvMethodProfile, batch)` triple.
#[derive(Debug, Clone)]
pub struct DecodeCostTable {
    /// `decode_prefix[k]` = the sum of `decode_iter_time(1..=k)`, accumulated
    /// in ascending `kv_len` order; `decode_prefix[0]` = 0.
    decode_prefix: Vec<f64>,
    /// The same sums of `dequant_or_approx_iter_time`.
    dequant_prefix: Vec<f64>,
}

impl DecodeCostTable {
    /// Builds the prefix sums for context lengths `1..=max_kv_len`.
    pub fn build(
        model: &ReplicaCostModel,
        profile: &KvMethodProfile,
        batch: f64,
        max_kv_len: usize,
    ) -> Self {
        let max_kv_len = max_kv_len.max(1);
        let evaluator = model.decode_evaluator(profile, batch);
        let mut decode_prefix = Vec::with_capacity(max_kv_len + 1);
        let mut dequant_prefix = Vec::with_capacity(max_kv_len + 1);
        let (mut decode, mut dequant) = (0.0, 0.0);
        decode_prefix.push(decode);
        dequant_prefix.push(dequant);
        for kv_len in 1..=max_kv_len {
            decode += evaluator.decode_iter_time(kv_len);
            dequant += evaluator.dequant_or_approx_iter_time(kv_len);
            decode_prefix.push(decode);
            dequant_prefix.push(dequant);
        }
        Self {
            decode_prefix,
            dequant_prefix,
        }
    }

    /// Largest context length covered by the tables.
    pub fn max_kv_len(&self) -> usize {
        self.decode_prefix.len() - 1
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
/// `(ReplicaCostModel, KvMethodProfile, network_gbps)` triple, evaluated
/// once per distinct length.
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
        let evaluator = model.prefill_evaluator(profile, network_gbps);
        let mut entries = IntMap::default();
        for prompt in prompts {
            entries.entry(prompt).or_insert_with(|| PrefillCosts {
                prefill: evaluator.prefill_time(prompt),
                quantization: evaluator.quantization_time(prompt),
                transfer: evaluator.transfer_time(prompt),
            });
        }
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
    use crate::cost::tests::all_profiles;
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

    #[test]
    fn table_matches_the_pointwise_formulas_exactly() {
        // From context 0 a lookup is one prefix entry: the running sum of
        // the pointwise formulas in ascending order, bit for bit.
        let m = decode_model();
        let batch = 8.0;
        let checkpoints = [1usize, 2, 63, 64, 65, 1000, 4096];
        for profile in all_profiles() {
            let table = DecodeCostTable::build(&m, &profile, batch, 4096);
            let (mut decode, mut dequant) = (0.0, 0.0);
            for kv_len in 1..=4096 {
                decode += m.decode_iter_time(kv_len, &profile, batch);
                dequant += m.dequant_or_approx_iter_time(kv_len, &profile);
                if checkpoints.contains(&kv_len) {
                    let (d, q) = table.decode_durations(0, kv_len);
                    let at = format!("{}: decode_durations(0, {kv_len})", profile.name);
                    assert_eq!(d.to_bits(), decode.to_bits(), "{at}");
                    assert_eq!(q.to_bits(), dequant.to_bits(), "{at}");
                }
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
        // The per-length costs the table sums never fall as the context
        // grows, so a longer decode never costs less.
        let m = decode_model();
        for profile in all_profiles() {
            let evaluator = m.decode_evaluator(&profile, 8.0);
            let table = DecodeCostTable::build(&m, &profile, 8.0, 8192);
            for kv_len in 2..=table.max_kv_len() {
                assert!(
                    evaluator.decode_iter_time(kv_len) >= evaluator.decode_iter_time(kv_len - 1),
                    "{}: decode_iter_time must not decrease at kv_len {kv_len}",
                    profile.name
                );
                assert!(
                    evaluator.dequant_or_approx_iter_time(kv_len)
                        >= evaluator.dequant_or_approx_iter_time(kv_len - 1),
                    "{}: dequant/approx time must not decrease at kv_len {kv_len}",
                    profile.name
                );
                let (shorter, longer) = (
                    table.decode_durations(0, kv_len - 1),
                    table.decode_durations(0, kv_len),
                );
                assert!(longer.0 > shorter.0, "{}: at kv_len {kv_len}", profile.name);
                assert!(
                    longer.1 >= shorter.1,
                    "{}: at kv_len {kv_len}",
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
        assert_ne!(d.decode_durations(0, 1000), a.decode_durations(0, 1000));
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
