//! Property-based tests on the core data structures and invariants:
//! quantization round trips, homomorphic-product equivalence, packing, entropy
//! coding, softmax, FP16 conversion, the metrics — and determinism of the
//! `hack-sim` discrete-event engine and the cluster simulator built on it.
//!
//! The external `proptest` crate is unavailable in this offline environment, so
//! inputs are generated with the workspace's own [`DetRng`]: every property runs
//! over `CASES` independently seeded random instances, which keeps the tests
//! exhaustive in spirit while staying fully deterministic and dependency-free.

use hack_baselines::entropy;
use hack_core::prelude::*;
use hack_metrics::edit::edit_similarity;
use hack_metrics::rouge::rouge1_f1;
use hack_quant::homomorphic::{dequant_matmul, homomorphic_matmul, homomorphic_matmul_no_se};
use hack_quant::packing::{pack_codes, unpack_codes};
use hack_quant::params::{QuantBits, RoundingMode};
use hack_sim::{Event, EventHandler, EventRecord, Simulation, SimulationContext};
use hack_tensor::half::round_to_f16;
use hack_tensor::softmax::softmax_rows;
use hack_workload::trace::TraceConfig;
use std::cell::RefCell;
use std::rc::Rc;

/// Number of random instances per property (mirrors the old proptest config).
const CASES: u64 = 48;

fn uniform_matrix(rows: usize, cols: usize, rng: &mut DetRng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| rng.range_f32(-10.0, 10.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn random_bytes(max_len: usize, max_value: u8, rng: &mut DetRng) -> Vec<u8> {
    let len = rng.range_usize(0, max_len + 1);
    (0..len)
        .map(|_| rng.range_usize(0, max_value as usize) as u8)
        .collect()
}

#[test]
fn quantize_dequantize_error_is_bounded_by_one_step() {
    for case in 0..CASES {
        let mut rng = DetRng::new(1000 + case);
        let m = uniform_matrix(4, 64, &mut rng);
        let bits = [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8][case as usize % 3];
        let q = QuantizedTensor::quantize_rows(&m, bits, 32, RoundingMode::Stochastic, &mut rng);
        let back = q.dequantize();
        for r in 0..m.rows() {
            for p in 0..q.n_partitions() {
                let meta = q.meta(r, p);
                let (start, end) = q.partition_range(p);
                for c in start..end {
                    let err = (m.get(r, c) - back.get(r, c)).abs();
                    // One quantization step plus FP16 metadata rounding slack.
                    assert!(
                        err <= meta.scale * 1.01 + 0.05,
                        "case {case}: err {err} exceeds step {} at ({r},{c})",
                        meta.scale
                    );
                }
            }
        }
        assert!(q.sums_consistent(), "case {case}");
    }
}

#[test]
fn codes_never_exceed_bit_range() {
    for case in 0..CASES {
        let mut rng = DetRng::new(2000 + case);
        let m = uniform_matrix(3, 48, &mut rng);
        let q = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            16,
            RoundingMode::Stochastic,
            &mut rng,
        );
        assert!(q.codes().iter().all(|&c| c <= 3), "case {case}");
    }
}

#[test]
fn homomorphic_equals_dequantized_product() {
    for case in 0..CASES {
        // Eq. 4 is an exact algebraic identity: computing on codes then correcting must
        // equal dequantizing then multiplying, up to float rounding.
        let mut rng = DetRng::new(3000 + case);
        let a = uniform_matrix(3, 64, &mut rng);
        let b = uniform_matrix(5, 64, &mut rng);
        let qa = QuantizedTensor::quantize_rows(
            &a,
            QuantBits::Int8,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let qb = QuantizedTensor::quantize_rows(
            &b,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let hom = homomorphic_matmul(&qa, &qb);
        let deq = dequant_matmul(&qa, &qb);
        let err = hack_tensor::relative_frobenius_error(&deq, &hom);
        assert!(err < 5e-3, "case {case}: relative error {err}");
    }
}

#[test]
fn summation_elimination_never_changes_the_result() {
    for case in 0..CASES {
        let mut rng = DetRng::new(4000 + case);
        let a = uniform_matrix(2, 32, &mut rng);
        let b = uniform_matrix(4, 32, &mut rng);
        let qa = QuantizedTensor::quantize_rows(
            &a,
            QuantBits::Int8,
            16,
            RoundingMode::Stochastic,
            &mut rng,
        );
        let qb = QuantizedTensor::quantize_rows(
            &b,
            QuantBits::Int2,
            16,
            RoundingMode::Stochastic,
            &mut rng,
        );
        let with_se = homomorphic_matmul(&qa, &qb);
        let without_se = homomorphic_matmul_no_se(&qa, &qb);
        assert_eq!(with_se.as_slice(), without_se.as_slice(), "case {case}");
    }
}

#[test]
fn packing_round_trips() {
    for case in 0..CASES {
        let mut rng = DetRng::new(5000 + case);
        let codes = random_bytes(200, 4, &mut rng);
        let packed = pack_codes(&codes, QuantBits::Int2);
        assert_eq!(
            unpack_codes(&packed, QuantBits::Int2, codes.len()),
            codes,
            "case {case}"
        );
    }
}

#[test]
fn entropy_coder_round_trips() {
    for case in 0..CASES {
        let mut rng = DetRng::new(6000 + case);
        let data = random_bytes(600, 16, &mut rng);
        assert_eq!(
            entropy::decode(&entropy::encode(&data)),
            data,
            "case {case}"
        );
    }
}

#[test]
fn softmax_rows_are_distributions() {
    for case in 0..CASES {
        let mut rng = DetRng::new(7000 + case);
        let m = uniform_matrix(4, 16, &mut rng);
        let p = softmax_rows(&m);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-4,
                "case {case}: row {r} sums to {sum}"
            );
            assert!(
                p.row(r).iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)),
                "case {case}"
            );
        }
    }
}

#[test]
fn f16_round_trip_is_idempotent() {
    for case in 0..CASES {
        let mut rng = DetRng::new(8000 + case);
        let x = rng.range_f32(-65000.0, 65000.0);
        let once = round_to_f16(x);
        let twice = round_to_f16(once);
        assert_eq!(once, twice, "case {case}");
        if x.abs() > 1e-3 {
            assert!(
                ((once - x) / x).abs() <= 2.0f32.powi(-10),
                "case {case}: x {x}"
            );
        }
    }
}

#[test]
fn append_token_preserves_kv_state_invariants() {
    // Fewer cases: this property builds a full KV state per case.
    for case in 0..12 {
        let mut rng = DetRng::new(9000 + case);
        let prompt_tokens = rng.range_usize(1, 90);
        let extra = rng.range_usize(1, 40);
        let d_h = 32;
        let k = Matrix::random_normal(prompt_tokens, d_h, 0.0, 1.0, &mut rng);
        let v = Matrix::random_normal(prompt_tokens, d_h, 0.0, 1.0, &mut rng);
        let mut state = HackKvState::from_prefill(&k, &v, HackConfig::paper_default(), &mut rng);
        for i in 0..extra {
            let row: Vec<f32> = (0..d_h).map(|j| ((i + j) as f32 * 0.01).sin()).collect();
            let stats = state.append_token(&row, &row, &mut rng);
            assert_eq!(stats.requantized_elements, 0, "case {case}");
        }
        assert_eq!(state.seq_len(), prompt_tokens + extra, "case {case}");
        assert_eq!(
            state.quantized_tokens() + state.tail_tokens(),
            prompt_tokens + extra,
            "case {case}"
        );
        assert!(state.tail_tokens() < 64, "case {case}");
        assert!(state.k_quant().sums_consistent(), "case {case}");
        assert!(state.v_quant().sums_consistent(), "case {case}");
    }
}

#[test]
fn edit_similarity_properties() {
    for case in 0..CASES {
        let mut rng = DetRng::new(10_000 + case);
        let len_a = rng.range_usize(0, 30);
        let len_b = rng.range_usize(0, 30);
        let a: Vec<u32> = (0..len_a).map(|_| rng.range_usize(0, 50) as u32).collect();
        let b: Vec<u32> = (0..len_b).map(|_| rng.range_usize(0, 50) as u32).collect();
        let s = edit_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s), "case {case}");
        assert!((edit_similarity(&a, &a) - 1.0).abs() < 1e-12, "case {case}");
        assert!(
            (edit_similarity(&b, &a) - s).abs() < 1e-12,
            "case {case}: symmetry"
        );
    }
}

#[test]
fn rouge_is_bounded_and_symmetric_in_f1() {
    let random_text = |rng: &mut DetRng| -> String {
        let len = rng.range_usize(0, 40);
        (0..len)
            .map(|_| ['a', 'b', 'c', 'd', ' '][rng.range_usize(0, 5)])
            .collect()
    };
    for case in 0..CASES {
        let mut rng = DetRng::new(11_000 + case);
        let a = random_text(&mut rng);
        let b = random_text(&mut rng);
        let f = rouge1_f1(&a, &b);
        assert!((0.0..=1.0).contains(&f), "case {case}");
        assert!((rouge1_f1(&b, &a) - f).abs() < 1e-12, "case {case}");
    }
}

#[test]
fn cache_layout_bytes_are_monotone_in_tokens() {
    use hack_kvcache::{CacheLayout, KvShape};
    for case in 0..CASES {
        let mut rng = DetRng::new(12_000 + case);
        let tokens_a = rng.range_usize(1, 4000);
        let tokens_b = rng.range_usize(1, 4000);
        let shape = KvShape {
            layers: 4,
            kv_heads: 4,
            head_dim: 128,
        };
        let layout = Method::hack().cache_layout();
        let (lo, hi) = if tokens_a <= tokens_b {
            (tokens_a, tokens_b)
        } else {
            (tokens_b, tokens_a)
        };
        assert!(
            layout.kv_bytes(&shape, lo) <= layout.kv_bytes(&shape, hi),
            "case {case}"
        );
        assert!(
            layout.kv_bytes(&shape, hi) < CacheLayout::Fp16.kv_bytes(&shape, hi),
            "case {case}"
        );
    }
}

// --- Engine determinism: same seed + same component logic ⇒ bit-identical
// --- event order; same config ⇒ bit-identical SimulationResult.

/// A component that reacts to every event with a random number of random-delay
/// echoes: any nondeterminism in queue ordering or RNG state shows up in its
/// event trace immediately.
struct Echo {
    ctx: SimulationContext,
    budget: u32,
}

struct Burst;

impl EventHandler for Echo {
    fn on(&mut self, event: Event) {
        if event.is::<Burst>() && self.budget > 0 {
            self.budget -= 1;
            let fan_out = 1 + (self.ctx.rand() * 3.0) as usize;
            for _ in 0..fan_out {
                let delay = self.ctx.gen_range(0.0, 2.0);
                self.ctx.emit_self(Burst, delay);
            }
        }
    }
}

fn echo_trace(seed: u64) -> (Vec<EventRecord>, f64, u64) {
    let mut sim = Simulation::new(seed);
    sim.set_log_enabled(true);
    let ctx = sim.create_context("echo");
    let echo = Rc::new(RefCell::new(Echo { ctx, budget: 200 }));
    echo.borrow().ctx.emit_self(Burst, 0.0);
    sim.add_handler("echo", echo);
    sim.run();
    (sim.take_log(), sim.time(), sim.processed_count())
}

#[test]
fn engine_event_order_is_bit_identical_across_runs() {
    for seed in 0..8 {
        let (log_a, time_a, count_a) = echo_trace(seed);
        let (log_b, time_b, count_b) = echo_trace(seed);
        assert!(!log_a.is_empty());
        assert_eq!(log_a, log_b, "seed {seed}: event traces must be identical");
        assert_eq!(
            time_a.to_bits(),
            time_b.to_bits(),
            "seed {seed}: final clock"
        );
        assert_eq!(count_a, count_b, "seed {seed}");
    }
    // Different seeds must actually diverge (the RNG is in the loop).
    assert_ne!(echo_trace(1).0, echo_trace(2).0);
}

fn random_sim_config(rng: &mut DetRng) -> SimulationConfig {
    let datasets = [
        Dataset::Imdb,
        Dataset::Cocktail,
        Dataset::Arxiv,
        Dataset::HumanEval,
    ];
    let dataset = datasets[rng.range_usize(0, datasets.len())];
    let mut cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
    cluster.pipelining = rng.chance(0.5);
    SimulationConfig {
        cluster,
        trace: TraceConfig {
            dataset,
            rps: rng.range_f64(0.02, 0.5),
            num_requests: rng.range_usize(5, 25),
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed: rng.next_u64(),
        },
        profile: if rng.chance(0.5) {
            Method::hack().profile()
        } else {
            Method::Baseline.profile()
        },
        policy: PolicyConfig::default(),
        faults: if rng.chance(0.3) {
            FaultPlan::new(&[FaultEvent::transient(
                FaultDomain::DecodeReplica(rng.range_usize(0, cluster.decode_replicas())),
                rng.range_f64(1.0, 300.0),
                1e6,
            )])
        } else {
            FaultPlan::none()
        },
        telemetry: TelemetryConfig::Off,
        cache: CacheConfig::Off,
    }
}

#[test]
fn cluster_simulation_results_are_bit_identical_for_same_config() {
    for case in 0..10 {
        let mut rng = DetRng::new(13_000 + case);
        let config = random_sim_config(&mut rng);
        let a = Simulator::new(config).run();
        let b = Simulator::new(config).run();
        // PartialEq on SimulationResult compares every f64 exactly: same seed +
        // same config must give bit-identical results, not merely close ones.
        assert_eq!(a, b, "case {case}: {config:?}");
    }
}

#[test]
fn cluster_simulation_diverges_across_trace_seeds() {
    let mut rng = DetRng::new(99);
    let config = random_sim_config(&mut rng);
    let mut other = config;
    other.trace.seed = config.trace.seed.wrapping_add(1);
    let a = Simulator::new(config).run();
    let b = Simulator::new(other).run();
    assert_ne!(a, b, "different trace seeds must change the outcome");
}

// --- Policy invariants: conservation per tenant, no cross-tenant leakage,
// --- and FCFS-equals-seed equivalence on single-tenant traces (the legacy
// --- oracle itself lives in crates/hack-cluster/tests/seed_equivalence.rs).

use hack_workload::tenant::{MultiTenantTrace, TenantSpec};
use hack_workload::trace::TenantId;
use std::sync::Arc;

/// A random multi-tenant workload (2–4 tenants, mixed datasets/rates/seeds)
/// over a random cluster config, under random scheduling, dispatch and
/// decode-fleet scaling policies — so the conservation / no-leakage /
/// determinism properties below also cover runs that grow and drain the
/// decode fleet mid-flight.
fn random_multi_tenant(rng: &mut DetRng) -> (SimulationConfig, Arc<Vec<hack_workload::Request>>) {
    use hack_cluster::{PolicyConfig, SchedulingPolicyKind, TenantClass, TenantClasses};
    let datasets = [
        Dataset::Imdb,
        Dataset::Cocktail,
        Dataset::Arxiv,
        Dataset::HumanEval,
    ];
    let num_tenants = rng.range_usize(2, 5);
    let mut specs = Vec::new();
    let mut classes = Vec::new();
    for t in 0..num_tenants {
        specs.push(TenantSpec {
            tenant: TenantId(t as u32),
            trace: TraceConfig {
                dataset: datasets[rng.range_usize(0, datasets.len())],
                rps: rng.range_f64(0.05, 0.6),
                num_requests: rng.range_usize(4, 14),
                max_context: ModelKind::Llama31_70B.spec().max_context,
                seed: rng.next_u64(),
            },
        });
        classes.push(TenantClass {
            weight: rng.range_f64(0.5, 4.0),
            slo_jct: rng.range_f64(30.0, 3000.0),
        });
    }
    let trace = MultiTenantTrace::new(specs);
    let requests = Arc::new(trace.generate());
    let scheduling = [
        SchedulingPolicyKind::Fcfs,
        SchedulingPolicyKind::WeightedRoundRobin,
        SchedulingPolicyKind::SloEdf,
    ][rng.range_usize(0, 3)];
    let dispatch = {
        let all = hack_cluster::DispatchPolicyKind::all();
        all[rng.range_usize(0, all.len())]
    };
    let scaling = {
        use hack_cluster::ScalingPolicyKind;
        [
            ScalingPolicyKind::Off,
            ScalingPolicyKind::Threshold {
                high: rng.range_f64(1.0, 6.0),
                low: rng.range_f64(0.1, 0.9),
            },
            ScalingPolicyKind::TargetUtilization {
                setpoint: rng.range_f64(0.4, 0.9),
                band: rng.range_f64(0.05, 0.2),
            },
            ScalingPolicyKind::Predictive {
                alpha: rng.range_f64(0.1, 0.9),
                per_replica_rps: rng.range_f64(0.1, 1.0),
                headroom: rng.range_f64(1.0, 1.5),
            },
        ][rng.range_usize(0, 4)]
    };
    let mut base = random_sim_config(rng);
    base.faults = FaultPlan::none(); // exercised separately; keep every request completable
    base.trace.num_requests = requests.len();
    base.policy = PolicyConfig {
        tenants: TenantClasses::new(&classes),
        dispatch,
        admission: hack_cluster::AdmissionPolicyKind::AdmitAll,
        scheduling,
        retry: hack_cluster::RetryPolicy::default(),
        scaling,
    };
    (base, requests)
}

#[test]
fn every_admitted_request_completes_exactly_once_per_tenant() {
    for case in 0..10 {
        let mut rng = DetRng::new(14_000 + case);
        let (config, requests) = random_multi_tenant(&mut rng);
        let result = Simulator::with_requests(config, requests.clone()).run();
        assert_eq!(result.rejected_requests, 0, "case {case}: AdmitAll");
        // Conservation: every generated request appears in the records exactly
        // once, and per-tenant completion counts equal per-tenant generation
        // counts.
        let mut seen = vec![0usize; requests.len()];
        for r in &result.records {
            seen[r.request.id as usize] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "case {case}: duplicate or missing completion"
        );
        for (tenant, stats) in result.per_tenant_stats() {
            let generated = requests.iter().filter(|r| r.tenant == tenant).count();
            assert_eq!(stats.count, generated, "case {case}: {tenant}");
        }
    }
}

#[test]
fn records_never_leak_across_tenants() {
    for case in 0..10 {
        let mut rng = DetRng::new(15_000 + case);
        let (config, requests) = random_multi_tenant(&mut rng);
        let result = Simulator::with_requests(config, requests.clone()).run();
        for r in &result.records {
            // A record's embedded request — tenant tag included — is exactly
            // the generated one; the policy layer can reorder service but
            // never relabel or rewrite a request.
            assert_eq!(
                r.request, requests[r.request.id as usize],
                "case {case}: record diverged from its trace entry"
            );
        }
    }
}

#[test]
fn multi_tenant_runs_are_deterministic_under_every_policy() {
    for case in 0..6 {
        let mut rng = DetRng::new(16_000 + case);
        let (config, requests) = random_multi_tenant(&mut rng);
        let a = Simulator::with_requests(config, requests.clone()).run();
        let b = Simulator::with_requests(config, requests.clone()).run();
        assert_eq!(a, b, "case {case}: {:?}", config.policy.scheduling);
    }
}

#[test]
fn fcfs_policy_equals_default_on_single_tenant_traces() {
    // The pluggable-policy frontend under any shipped scheduling policy must
    // reproduce the default (pre-policy, FCFS) simulator bit-for-bit on
    // single-tenant traces: with one tenant, round-robin has a single
    // participant and EDF a single deadline offset.
    use hack_cluster::SchedulingPolicyKind;
    for case in 0..8 {
        let mut rng = DetRng::new(17_000 + case);
        let config = random_sim_config(&mut rng);
        let default_run = Simulator::new(config).run();
        for scheduling in [
            SchedulingPolicyKind::Fcfs,
            SchedulingPolicyKind::WeightedRoundRobin,
            SchedulingPolicyKind::SloEdf,
        ] {
            let mut explicit = config;
            explicit.policy.scheduling = scheduling;
            assert_eq!(
                Simulator::new(explicit).run(),
                default_run,
                "case {case}: {scheduling:?} must coincide with FCFS on one tenant"
            );
        }
    }
}

// --- Robustness invariants: conservation under randomized fault plans
// --- (topology-aware fabric, correlated switch faults, transfer retries).

use hack_cluster::SimulationResult;

/// A random non-overlapping fault plan over every fault-domain kind. When any
/// chosen domain needs the link graph, the caller must have set a `LinkGraph`
/// topology on the cluster first (this helper derives ToR counts from it).
fn random_fault_plan(rng: &mut DetRng, cluster: &ClusterConfig) -> FaultPlan {
    let link_graph = cluster.topology.link_graph().is_some();
    let mut plan = FaultPlan::none();
    let mut used: Vec<FaultDomain> = Vec::new();
    for _ in 0..rng.range_usize(1, 4) {
        let kinds = if link_graph { 7 } else { 2 };
        let domain = match rng.range_usize(0, kinds) {
            0 => FaultDomain::DecodeReplica(rng.range_usize(0, cluster.decode_replicas())),
            1 => FaultDomain::PrefillReplica(rng.range_usize(0, cluster.prefill_replicas())),
            2 => FaultDomain::DecodeNic(rng.range_usize(0, cluster.decode_replicas())),
            3 => FaultDomain::PrefillNic(rng.range_usize(0, cluster.prefill_replicas())),
            4 => FaultDomain::DecodeTor(rng.range_usize(0, cluster.decode_tors())),
            5 => FaultDomain::PrefillTor(rng.range_usize(0, cluster.prefill_tors())),
            _ => FaultDomain::Spine(0),
        };
        // The validator rejects overlapping windows on one domain; one fault
        // per domain sidesteps overlap entirely.
        if used.contains(&domain) {
            continue;
        }
        used.push(domain);
        let at = rng.range_f64(1.0, 300.0);
        plan.push(FaultEvent::transient(
            domain,
            at,
            at + rng.range_f64(5.0, 100.0),
        ));
    }
    plan
}

/// Global conservation: every generated request is completed exactly once,
/// rejected, or accounted as aborted — never lost, never duplicated.
fn assert_conserved(result: &SimulationResult, total: usize, label: &str) {
    let mut seen = vec![0usize; total];
    for r in &result.records {
        seen[r.request.id as usize] += 1;
    }
    assert!(
        seen.iter().all(|&n| n <= 1),
        "{label}: a request completed twice"
    );
    let missing = seen.iter().filter(|&&n| n == 0).count();
    assert_eq!(
        missing,
        result.rejected_requests + result.aborted_requests,
        "{label}: completed {} + rejected {} + aborted {} != total {total}",
        result.records.len(),
        result.rejected_requests,
        result.aborted_requests
    );
}

#[test]
fn conservation_holds_under_randomized_fault_plans_across_repeat_runs() {
    use hack_cluster::{LinkGraphSpec, TopologySpec};
    for case in 0..8 {
        let mut rng = DetRng::new(18_000 + case);
        let mut config = random_sim_config(&mut rng);
        if rng.chance(0.7) {
            config.cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());
        }
        config.faults = random_fault_plan(&mut rng, &config.cluster);
        let total = config.trace.num_requests;

        // Repeat runs must agree bit-for-bit even mid-fault-storm.
        let result = Simulator::new(config).run();
        let again = Simulator::new(config).run();
        assert_eq!(
            result, again,
            "case {case}: repeat run diverged under faults"
        );

        assert_conserved(&result, total, &format!("case {case}"));

        // Fault records stay within the plan's bounds.
        assert_eq!(result.faults.len(), config.faults.len());
        for f in &result.faults {
            assert!(f.requests_aborted <= total);
            assert!(f.downtime_secs >= 0.0);
        }
    }
}

#[test]
fn per_tenant_conservation_holds_under_randomized_fault_plans() {
    use hack_cluster::{LinkGraphSpec, TopologySpec};
    for case in 0..6 {
        let mut rng = DetRng::new(19_000 + case);
        let (mut config, requests) = random_multi_tenant(&mut rng);
        config.cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());
        config.faults = random_fault_plan(&mut rng, &config.cluster);
        let result = Simulator::with_requests(config, requests.clone()).run();

        assert_conserved(&result, requests.len(), &format!("case {case}"));

        // Per-tenant: completions plus that tenant's missing requests cover
        // exactly what the tenant generated, and rejections never exceed the
        // tenant's missing share.
        let mut completed = std::collections::BTreeMap::new();
        let mut done = vec![false; requests.len()];
        for r in &result.records {
            *completed.entry(r.request.tenant).or_insert(0usize) += 1;
            done[r.request.id as usize] = true;
        }
        for (tenant, stats) in result.per_tenant_stats() {
            let generated = requests.iter().filter(|r| r.tenant == tenant).count();
            let finished = completed.get(&tenant).copied().unwrap_or(0);
            assert_eq!(stats.count, finished, "case {case}: {tenant}");
            let missing = requests
                .iter()
                .filter(|r| r.tenant == tenant && !done[r.id as usize])
                .count();
            assert_eq!(finished + missing, generated, "case {case}: {tenant}");
        }
    }
}

// --- Availability invariants: MTBF/MTTR-generated fault plans.

/// A random availability model. Link-bound kinds (NICs, ToRs, spine) are only
/// populated when the cluster actually has a link-graph fabric — on the flat
/// fabric the generator produces zero instances for them anyway, so gating
/// here just keeps the drawn specs meaningful.
fn random_availability_model(
    rng: &mut DetRng,
    link_graph: bool,
) -> hack_cluster::AvailabilityModel {
    use hack_cluster::{AvailabilityModel, MtbfSpec};
    let mut draw = |degradable: bool| -> Option<MtbfSpec> {
        if !rng.chance(0.6) {
            return None;
        }
        let mtbf = rng.range_f64(30.0, 600.0);
        let mttr = rng.range_f64(5.0, 90.0);
        if degradable && rng.chance(0.5) {
            Some(MtbfSpec::slowdown(mtbf, mttr, rng.range_f64(0.05, 0.95)))
        } else {
            Some(MtbfSpec::outage(mtbf, mttr))
        }
    };
    let mut model = AvailabilityModel {
        decode_replica: draw(false),
        prefill_replica: draw(false),
        ..AvailabilityModel::default()
    };
    if link_graph {
        model.prefill_nic = draw(true);
        model.decode_nic = draw(true);
        model.prefill_tor = draw(true);
        model.decode_tor = draw(true);
        model.spine = draw(true);
    }
    model
}

#[test]
fn generated_fault_plans_are_deterministic_and_always_validate() {
    use hack_cluster::{LinkGraphSpec, TopologySpec};
    for case in 0..24 {
        let mut rng = DetRng::new(21_000 + case);
        let mut config = random_sim_config(&mut rng);
        config.faults = hack_cluster::FaultPlan::none();
        let link_graph = rng.chance(0.6);
        if link_graph {
            config.cluster.topology =
                TopologySpec::LinkGraph(LinkGraphSpec::redundant(rng.range_usize(1, 5)));
        }
        let model = random_availability_model(&mut rng, link_graph);
        let shape = config.cluster.fleet_shape();
        let horizon = rng.range_f64(20.0, 2_000.0);
        let seed = rng.next_u64();

        let plan = model.generate_plan(&shape, horizon, seed);
        assert_eq!(
            plan,
            model.generate_plan(&shape, horizon, seed),
            "case {case}: generation must be a pure function of (model, shape, horizon, seed)"
        );
        assert!(plan.len() <= hack_cluster::MAX_FAULTS);
        for event in plan.iter() {
            assert!(event.at >= 0.0 && event.at < horizon, "case {case}");
            assert!(event.recover_at.unwrap() > event.at, "case {case}");
        }

        // Whatever the model drew, the generated plan passes the same typed
        // validator that rejects malformed hand-written plans.
        config.faults = plan;
        config
            .validate()
            .unwrap_or_else(|e| panic!("case {case}: generated plan rejected: {e}"));
    }
}

#[test]
fn conservation_holds_under_generated_plans_across_repeat_runs() {
    use hack_cluster::{LinkGraphSpec, TopologySpec};
    for case in 0..6 {
        let mut rng = DetRng::new(22_000 + case);
        let mut config = random_sim_config(&mut rng);
        config.cluster.topology =
            TopologySpec::LinkGraph(LinkGraphSpec::redundant(rng.range_usize(1, 4)));
        let model = random_availability_model(&mut rng, true);
        // A horizon past every arrival so faults can land mid-decode too.
        let horizon = config.trace.num_requests as f64 / config.trace.rps + 100.0;
        config.faults = model.generate_plan(&config.cluster.fleet_shape(), horizon, rng.next_u64());
        let total = config.trace.num_requests;

        let result = Simulator::new(config).run();
        let again = Simulator::new(config).run();
        assert_eq!(result, again, "case {case}: repeat run diverged");
        assert_conserved(&result, total, &format!("case {case}"));

        // Degradation exposure only ever comes from degrade-tagged events.
        if config.faults.iter().all(|e| e.degrade.is_none()) {
            assert_eq!(result.degraded_link_secs, 0.0, "case {case}");
            assert_eq!(result.throughput_loss_gbps_s, 0.0, "case {case}");
        }
    }
}

// --- Session invariants: causal ordering, conservation under randomized
// --- session DAGs, and cache-off bit-identity to independent requests.

use hack_workload::session::{SessionKind, SessionSpec, SessionTrace};

/// A random session-structured workload (chat and agentic streams mixed with
/// an independent background stream) over a random cluster config, with the
/// prefix cache and the session-affinity dispatcher armed on half the draws.
fn random_session_workload(
    rng: &mut DetRng,
) -> (SimulationConfig, Arc<Vec<hack_workload::Request>>) {
    let datasets = [
        Dataset::Imdb,
        Dataset::Cocktail,
        Dataset::Arxiv,
        Dataset::HumanEval,
    ];
    let mut specs = Vec::new();
    for t in 0..rng.range_usize(1, 4) {
        let kind = if rng.chance(0.5) {
            SessionKind::Chat {
                turns: rng.range_usize(2, 6),
                think_mean_s: rng.range_f64(2.0, 60.0),
            }
        } else {
            SessionKind::Agentic {
                tools: rng.range_usize(1, 5),
                tool_delay_s: rng.range_f64(0.5, 20.0),
            }
        };
        specs.push(SessionSpec {
            tenant: hack_workload::trace::TenantId(t as u32),
            kind,
            sessions: rng.range_usize(2, 6),
            rps: rng.range_f64(0.02, 0.2),
            dataset: datasets[rng.range_usize(0, datasets.len())],
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed: rng.next_u64(),
        });
    }
    let mut trace = SessionTrace::new(specs);
    if rng.chance(0.5) {
        // Independent background requests interleaved into the same stream.
        trace = trace.with_background(
            hack_workload::trace::TraceGenerator::new(TraceConfig {
                dataset: datasets[rng.range_usize(0, datasets.len())],
                rps: rng.range_f64(0.05, 0.3),
                num_requests: rng.range_usize(3, 10),
                max_context: ModelKind::Llama31_70B.spec().max_context,
                seed: rng.next_u64(),
            })
            .generate(),
        );
    }
    let requests = Arc::new(trace.generate());
    let mut config = random_sim_config(rng);
    config.faults = FaultPlan::none(); // keep every request completable
    config.trace.num_requests = requests.len();
    if rng.chance(0.5) {
        config.cache = CacheConfig::with_capacity_fraction(rng.range_f64(0.1, 1.0));
    }
    if rng.chance(0.5) {
        config.policy.dispatch = hack_cluster::DispatchPolicyKind::SessionAffinity;
    }
    (config, requests)
}

#[test]
fn session_children_never_start_before_their_parent_completes() {
    for case in 0..8 {
        let mut rng = DetRng::new(23_000 + case);
        let (config, requests) = random_session_workload(&mut rng);
        let result = Simulator::with_requests(config, requests.clone()).run();
        assert_conserved(&result, requests.len(), &format!("case {case}"));

        let mut finish = vec![f64::NAN; requests.len()];
        for r in &result.records {
            finish[r.request.id as usize] = r.finish_time;
        }
        for r in &result.records {
            let Some(parent) = r.request.parent else {
                continue;
            };
            let parent_finish = finish[parent as usize];
            assert!(
                parent_finish.is_finite(),
                "case {case}: request {} completed but its parent {parent} did not",
                r.request.id
            );
            // Dispatch to prefill happens at nominal arrival plus queueing
            // wait; gating must hold it past the parent's completion.
            let started = r.request.arrival + r.breakdown.queueing;
            assert!(
                started >= parent_finish - 1e-9,
                "case {case}: request {} started at {started} before parent {parent} \
                 finished at {parent_finish}",
                r.request.id
            );
        }
    }
}

#[test]
fn session_conservation_holds_across_repeat_runs() {
    for case in 0..6 {
        let mut rng = DetRng::new(24_000 + case);
        let (config, requests) = random_session_workload(&mut rng);
        let run = || Simulator::with_requests(config, requests.clone()).run();
        let result = run();
        assert_eq!(
            result,
            run(),
            "case {case}: repeat run diverged on session DAGs"
        );
        assert_conserved(&result, requests.len(), &format!("case {case}"));
    }
}

#[test]
fn cache_off_single_turn_sessions_match_independent_requests_exactly() {
    // With the cache off and every session a single root (no parents, no
    // shared prefixes), session tagging is inert metadata: the run must be
    // bit-identical to the same trace with the tags stripped.
    for case in 0..4 {
        let mut rng = DetRng::new(25_000 + case);
        let trace = SessionTrace::new(vec![SessionSpec {
            tenant: hack_workload::trace::TenantId(0),
            kind: SessionKind::Chat {
                turns: 1,
                think_mean_s: 10.0,
            },
            sessions: rng.range_usize(8, 20),
            rps: rng.range_f64(0.05, 0.3),
            dataset: [Dataset::Imdb, Dataset::Cocktail][rng.range_usize(0, 2)],
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed: rng.next_u64(),
        }]);
        let tagged = Arc::new(trace.generate());
        assert!(tagged.iter().all(|r| r.parent.is_none()));
        let stripped = Arc::new(
            tagged
                .iter()
                .map(|r| hack_workload::Request {
                    session: 0,
                    shared_prefix_tokens: 0,
                    ..*r
                })
                .collect::<Vec<_>>(),
        );
        let mut config = random_sim_config(&mut rng);
        config.cache = CacheConfig::Off;
        config.trace.num_requests = tagged.len();
        let mut from_tagged = Simulator::with_requests(config, tagged).run();
        let from_stripped = Simulator::with_requests(config, stripped).run();
        // Records embed the generated request; normalize the inert tags away
        // so `assert_eq!` compares every timing and cost field bit-for-bit.
        for r in &mut from_tagged.records {
            r.request.session = 0;
            r.request.shared_prefix_tokens = 0;
        }
        assert_eq!(from_tagged, from_stripped, "case {case}");
    }
}
