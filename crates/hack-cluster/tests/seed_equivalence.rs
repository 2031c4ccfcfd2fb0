//! Equivalence of the engine-based simulator with the seed's monolithic one.
//!
//! The module below is the original single-file discrete-event simulator this
//! crate shipped with (verbatim, renamed `LegacySimulator`), kept as a
//! regression oracle: `Simulator::run()` on the `hack-sim` engine must
//! reproduce its per-request JCT breakdowns within 1e-9 on every configuration
//! exercised here.

#[allow(clippy::too_many_arguments)]
mod legacy {
    //! The discrete-event simulation engine.

    use hack_cluster::SimulationConfig;
    use hack_cluster::{RequestRecord, SimulationResult};
    use hack_metrics::jct::JctBreakdown;
    use hack_model::cost::{KvMethodProfile, ReplicaCostModel};
    use hack_workload::trace::{Request, TraceGenerator};
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, VecDeque};

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum EventKind {
        /// A request arrives at the cluster.
        Arrival { req: usize },
        /// A prefill replica finishes prefill (+ quantization) of a request.
        PrefillDone { replica: usize, req: usize },
        /// A request's KV data has fully arrived at its decode replica.
        TransferDone { req: usize },
        /// A request has generated its last token.
        DecodeDone { replica: usize, req: usize },
    }

    #[derive(Debug, Clone, Copy)]
    struct Event {
        time: f64,
        seq: u64,
        kind: EventKind,
    }

    impl PartialEq for Event {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl Eq for Event {}
    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse ordering: BinaryHeap is a max-heap, we need the earliest event first.
            other
                .time
                .total_cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    #[derive(Debug, Default, Clone)]
    struct PrefillReplica {
        queue: VecDeque<usize>,
        queued_tokens: usize,
        busy: bool,
        nic_free_at: f64,
    }

    #[derive(Debug, Clone)]
    struct DecodeReplica {
        kv_capacity: f64,
        kv_used: f64,
        peak_kv: f64,
        active: usize,
        resident_tokens: usize,
    }

    #[derive(Debug, Clone, Default)]
    struct ReqState {
        prefill_replica: usize,
        decode_replica: usize,
        prefill_wait: f64,
        prefill_time: f64,
        quant_time: f64,
        comm_time: f64,
        memory_wait: f64,
        dequant_time: f64,
        decode_time: f64,
        /// Pipelined transfer completion time (if a transfer was started during prefill).
        pipelined_transfer_end: Option<f64>,
        /// When the request started waiting for decode memory.
        memory_wait_start: Option<f64>,
        kv_reserve_bytes: f64,
        finish_time: f64,
        done: bool,
        swapped: bool,
    }

    /// Discrete-event simulator of one configuration (cluster × trace × method).
    pub struct LegacySimulator {
        config: SimulationConfig,
        prefill_model: ReplicaCostModel,
        decode_model: ReplicaCostModel,
    }

    impl LegacySimulator {
        /// Creates a simulator from a configuration.
        pub fn new(config: SimulationConfig) -> Self {
            let model = config.cluster.model.spec();
            let prefill_model = ReplicaCostModel {
                model,
                gpu: config.cluster.prefill_gpu().spec(),
                parallel: config.cluster.prefill_parallelism(),
                params: config.cluster.cost_params,
            };
            let decode_model = ReplicaCostModel {
                model,
                gpu: config.cluster.decode_gpu().spec(),
                parallel: config.cluster.decode_parallelism(),
                params: config.cluster.cost_params,
            };
            Self {
                config,
                prefill_model,
                decode_model,
            }
        }

        fn profile(&self) -> &KvMethodProfile {
            &self.config.profile
        }

        fn kv_reserve_bytes(&self, request: &Request) -> f64 {
            self.decode_model.kv_fp16_bytes(request.total_tokens()) * self.profile().kv_size_factor
        }

        fn decode_durations(&self, request: &Request) -> (f64, f64) {
            let profile = self.profile();
            let batch = self.config.cluster.cost_params.decode_batch;
            let mut decode = 0.0;
            let mut dequant = 0.0;
            for i in 0..request.output_len {
                let kv_len = request.input_len + i + 1;
                decode += self.decode_model.decode_iter_time(kv_len, profile, batch);
                dequant += self
                    .decode_model
                    .dequant_or_approx_iter_time(kv_len, profile);
            }
            (decode, dequant)
        }

        /// Runs the simulation to completion and returns the aggregated result.
        pub fn run(&self) -> SimulationResult {
            let requests = TraceGenerator::new(self.config.trace).generate();
            let profile = *self.profile();
            let cluster = &self.config.cluster;

            let mut prefill: Vec<PrefillReplica> =
                vec![PrefillReplica::default(); cluster.prefill_replicas()];
            let kv_capacity = cluster.decode_kv_budget_bytes();
            let mut decode: Vec<DecodeReplica> = vec![
                DecodeReplica {
                    kv_capacity,
                    kv_used: 0.0,
                    peak_kv: 0.0,
                    active: 0,
                    resident_tokens: 0,
                };
                cluster.decode_replicas()
            ];
            let mut states: Vec<ReqState> = vec![ReqState::default(); requests.len()];
            let mut waiting_for_memory: VecDeque<usize> = VecDeque::new();

            let mut heap: BinaryHeap<Event> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut push =
                |heap: &mut BinaryHeap<Event>, seq: &mut u64, time: f64, kind: EventKind| {
                    *seq += 1;
                    heap.push(Event {
                        time,
                        seq: *seq,
                        kind,
                    });
                };

            for (i, r) in requests.iter().enumerate() {
                push(
                    &mut heap,
                    &mut seq,
                    r.arrival,
                    EventKind::Arrival { req: i },
                );
            }

            let mut completed = 0usize;
            let mut swapped = 0usize;
            let mut makespan = 0.0f64;

            while let Some(event) = heap.pop() {
                let now = event.time;
                makespan = makespan.max(now);
                match event.kind {
                    EventKind::Arrival { req } => {
                        // Shortest-queue dispatch by queued tokens (§7.1).
                        let replica = (0..prefill.len())
                            .min_by_key(|&r| {
                                prefill[r].queued_tokens
                                    + if prefill[r].busy {
                                        requests[req].input_len
                                    } else {
                                        0
                                    }
                            })
                            .unwrap();
                        states[req].prefill_replica = replica;
                        prefill[replica].queue.push_back(req);
                        prefill[replica].queued_tokens += requests[req].input_len;
                        if !prefill[replica].busy {
                            self.start_prefill(
                                replica,
                                now,
                                &requests,
                                &mut prefill,
                                &mut decode,
                                &mut states,
                                &mut heap,
                                &mut seq,
                                &mut push,
                            );
                        }
                    }
                    EventKind::PrefillDone { replica, req } => {
                        prefill[replica].busy = false;
                        prefill[replica].queued_tokens = prefill[replica]
                            .queued_tokens
                            .saturating_sub(requests[req].input_len);

                        // Hand the request to the transfer/decode pipeline.
                        if let Some(transfer_end) = states[req].pipelined_transfer_end {
                            // Pipelined: the transfer has been running during prefill; only
                            // the non-overlapped part counts as communication time.
                            let ready = transfer_end.max(now);
                            states[req].comm_time = (transfer_end - now).max(0.0);
                            push(&mut heap, &mut seq, ready, EventKind::TransferDone { req });
                        } else {
                            self.try_dispatch_to_decode(
                                req,
                                now,
                                &requests,
                                &mut prefill,
                                &mut decode,
                                &mut states,
                                &mut waiting_for_memory,
                                &mut swapped,
                                &mut heap,
                                &mut seq,
                                &mut push,
                            );
                        }

                        // Start the next queued prefill, if any.
                        if !prefill[replica].queue.is_empty() {
                            self.start_prefill(
                                replica,
                                now,
                                &requests,
                                &mut prefill,
                                &mut decode,
                                &mut states,
                                &mut heap,
                                &mut seq,
                                &mut push,
                            );
                        }
                    }
                    EventKind::TransferDone { req } => {
                        let d = states[req].decode_replica;
                        decode[d].active += 1;
                        decode[d].resident_tokens += requests[req].total_tokens();
                        let (decode_t, dequant_t) = self.decode_durations(&requests[req]);
                        // Congestion: when more sequences are resident than the nominal
                        // batch, every iteration takes proportionally longer.
                        let nominal = self.config.cluster.cost_params.decode_batch;
                        let congestion = (decode[d].active as f64 / nominal).max(1.0);
                        let decode_t = decode_t * congestion;
                        let dequant_t = dequant_t * congestion;
                        states[req].decode_time = decode_t;
                        states[req].dequant_time = dequant_t;
                        push(
                            &mut heap,
                            &mut seq,
                            now + decode_t + dequant_t,
                            EventKind::DecodeDone { replica: d, req },
                        );
                    }
                    EventKind::DecodeDone { replica, req } => {
                        decode[replica].kv_used -= states[req].kv_reserve_bytes;
                        decode[replica].active -= 1;
                        decode[replica].resident_tokens = decode[replica]
                            .resident_tokens
                            .saturating_sub(requests[req].total_tokens());
                        states[req].finish_time = now;
                        states[req].done = true;
                        completed += 1;

                        // Freed memory: admit waiting requests in FIFO order while they fit.
                        while let Some(&head) = waiting_for_memory.front() {
                            let bytes = self.kv_reserve_bytes(&requests[head]);
                            if let Some(target) = best_decode_replica(&decode, bytes) {
                                waiting_for_memory.pop_front();
                                let wait_start =
                                    states[head].memory_wait_start.take().unwrap_or(now);
                                states[head].memory_wait += now - wait_start;
                                self.reserve_and_transfer(
                                    head,
                                    target,
                                    now,
                                    &requests,
                                    &mut prefill,
                                    &mut decode,
                                    &mut states,
                                    &mut heap,
                                    &mut seq,
                                    &mut push,
                                );
                            } else {
                                break;
                            }
                        }
                    }
                }
                if completed == requests.len() {
                    break;
                }
            }

            // Assemble records.
            let kv_capacity_total = cluster.decode_replica_mem_bytes();
            let params_bytes = cluster.model.spec().param_bytes_fp16();
            let act_bytes = cluster.activation_reserve * kv_capacity_total;
            let peak_kv = decode.iter().map(|d| d.peak_kv).fold(0.0, f64::max);
            let peak_fraction = ((params_bytes + act_bytes + peak_kv) / kv_capacity_total).min(1.0);

            let mut records: Vec<RequestRecord> = requests
                .iter()
                .enumerate()
                .filter(|(i, _)| states[*i].done)
                .map(|(i, r)| {
                    let s = &states[i];
                    RequestRecord {
                        request: *r,
                        prefill_replica: s.prefill_replica,
                        decode_replica: s.decode_replica,
                        finish_time: s.finish_time,
                        breakdown: JctBreakdown {
                            prefill: s.prefill_time,
                            quantization: s.quant_time,
                            // Waiting for decode memory keeps the KV transfer pending on
                            // the prefill side (Fig. 1(d), case ii), so it is charged to
                            // communication, as in the paper's measurements.
                            communication: s.comm_time + s.memory_wait,
                            dequant_or_approx: s.dequant_time,
                            decode: s.decode_time,
                            queueing: s.prefill_wait,
                        },
                    }
                })
                .collect();
            records.sort_by(|a, b| a.finish_time.total_cmp(&b.finish_time));

            SimulationResult {
                method: profile.name.to_string(),
                records,
                peak_decode_memory_fraction: peak_fraction,
                peak_decode_kv_bytes: peak_kv,
                swapped_requests: swapped,
                rejected_requests: 0,
                rejected_by_tenant: Vec::new(),
                requeued_requests: 0,
                injected_failures: 0,
                transfer_retries: 0,
                retry_histogram: Vec::new(),
                aborted_requests: 0,
                abandoned_requests: 0,
                faults: Vec::new(),
                degraded_secs: 0.0,
                degraded_goodput: 0.0,
                degraded_link_secs: 0.0,
                throughput_loss_gbps_s: 0.0,
                rerouted_flows: 0,
                scale_ups: 0,
                scale_downs: 0,
                gpu_dollars: 0.0,
                dollars_per_1k_tokens: 0.0,
                prefix_hits: 0,
                prefix_misses: 0,
                prefix_evictions: 0,
                prefix_hit_rate: 0.0,
                prefix_bytes_saved: 0.0,
                prefill_seconds_saved: 0.0,
                prefix_cache_peak_fraction: Vec::new(),
                prefill_groups: Vec::new(),
                decode_groups: Vec::new(),
                makespan,
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn start_prefill(
            &self,
            replica: usize,
            now: f64,
            requests: &[Request],
            prefill: &mut [PrefillReplica],
            decode: &mut [DecodeReplica],
            states: &mut [ReqState],
            heap: &mut BinaryHeap<Event>,
            seq: &mut u64,
            push: &mut impl FnMut(&mut BinaryHeap<Event>, &mut u64, f64, EventKind),
        ) {
            let Some(req) = prefill[replica].queue.pop_front() else {
                return;
            };
            prefill[replica].busy = true;
            let request = &requests[req];
            let profile = self.profile();

            states[req].prefill_wait = (now - request.arrival).max(0.0);
            let prefill_t = self.prefill_model.prefill_time(request.input_len, profile);
            let quant_t = self
                .prefill_model
                .quantization_time(request.input_len, profile);
            states[req].prefill_time = prefill_t;
            states[req].quant_time = quant_t;

            // Pipelining: start the KV transfer concurrently with prefill when a decode
            // replica can take the request right now (Fig. 1(d): this hides communication
            // only while the transfer is shorter than prefill and memory is available).
            if self.config.cluster.pipelining {
                let bytes = self.kv_reserve_bytes(request);
                if let Some(target) = best_decode_replica(decode, bytes) {
                    decode[target].kv_used += bytes;
                    decode[target].peak_kv = decode[target].peak_kv.max(decode[target].kv_used);
                    states[req].decode_replica = target;
                    states[req].kv_reserve_bytes = bytes;
                    let duration = self.transfer_duration(request);
                    let start = prefill[replica].nic_free_at.max(now);
                    let end = start + duration;
                    prefill[replica].nic_free_at = end;
                    states[req].pipelined_transfer_end = Some(end);
                }
            }

            push(
                heap,
                seq,
                now + prefill_t + quant_t,
                EventKind::PrefillDone { replica, req },
            );
        }

        fn transfer_duration(&self, request: &Request) -> f64 {
            let gbps = self
                .config
                .cluster
                .prefill_network_gbps()
                .min(self.config.cluster.decode_network_gbps());
            self.prefill_model
                .transfer_time(request.input_len, self.profile(), gbps)
        }

        #[allow(clippy::too_many_arguments)]
        fn try_dispatch_to_decode(
            &self,
            req: usize,
            now: f64,
            requests: &[Request],
            prefill: &mut [PrefillReplica],
            decode: &mut [DecodeReplica],
            states: &mut [ReqState],
            waiting: &mut VecDeque<usize>,
            swapped: &mut usize,
            heap: &mut BinaryHeap<Event>,
            seq: &mut u64,
            push: &mut impl FnMut(&mut BinaryHeap<Event>, &mut u64, f64, EventKind),
        ) {
            let bytes = self.kv_reserve_bytes(&requests[req]);
            if let Some(target) = best_decode_replica(decode, bytes) {
                self.reserve_and_transfer(
                    req, target, now, requests, prefill, decode, states, heap, seq, push,
                );
            } else {
                // No decode replica has room: the prefill instance spills the (quantized)
                // KV data to its CPU memory and waits (§4).
                states[req].memory_wait_start = Some(now);
                states[req].swapped = true;
                *swapped += 1;
                waiting.push_back(req);
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn reserve_and_transfer(
            &self,
            req: usize,
            target: usize,
            now: f64,
            requests: &[Request],
            prefill: &mut [PrefillReplica],
            decode: &mut [DecodeReplica],
            states: &mut [ReqState],
            heap: &mut BinaryHeap<Event>,
            seq: &mut u64,
            push: &mut impl FnMut(&mut BinaryHeap<Event>, &mut u64, f64, EventKind),
        ) {
            let bytes = self.kv_reserve_bytes(&requests[req]);
            decode[target].kv_used += bytes;
            decode[target].peak_kv = decode[target].peak_kv.max(decode[target].kv_used);
            states[req].decode_replica = target;
            states[req].kv_reserve_bytes = bytes;

            let replica = states[req].prefill_replica;
            let duration = self.transfer_duration(&requests[req]);
            let start = prefill[replica].nic_free_at.max(now);
            let end = start + duration;
            prefill[replica].nic_free_at = end;
            // Communication time as experienced by the request: waiting for the NIC plus
            // the wire time.
            states[req].comm_time += end - now;
            push(heap, seq, end, EventKind::TransferDone { req });
        }
    }

    /// Picks the decode replica with the fewest resident tokens among those that can fit
    /// `bytes` of new KV data. A request too large to ever fit an *empty* replica is
    /// force-admitted to the emptiest one (modelling partial host offload) so the
    /// simulation always terminates.
    fn best_decode_replica(decode: &[DecodeReplica], bytes: f64) -> Option<usize> {
        let fit = decode
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kv_used + bytes <= d.kv_capacity)
            .min_by_key(|(_, d)| d.resident_tokens)
            .map(|(i, _)| i);
        if fit.is_some() {
            return fit;
        }
        if decode.iter().all(|d| bytes > d.kv_capacity) {
            // Oversized even for an empty replica: admit to the one with the most free
            // space once it is idle.
            return decode
                .iter()
                .enumerate()
                .filter(|(_, d)| d.active == 0)
                .min_by_key(|(_, d)| d.resident_tokens)
                .map(|(i, _)| i);
        }
        None
    }
}

use hack_cluster::{CacheConfig, ClusterConfig, SimulationConfig, Simulator};
use hack_model::cost::KvMethodProfile;
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::TraceConfig;

fn assert_equivalent(config: SimulationConfig, label: &str) {
    let new = Simulator::new(config).run();
    let old = legacy::LegacySimulator::new(config).run();

    assert_eq!(
        new.records.len(),
        old.records.len(),
        "{label}: record count"
    );
    assert_eq!(
        new.swapped_requests, old.swapped_requests,
        "{label}: swapped"
    );
    assert!(
        (new.makespan - old.makespan).abs() <= 1e-9,
        "{label}: makespan {} vs {}",
        new.makespan,
        old.makespan
    );
    assert!(
        (new.peak_decode_kv_bytes - old.peak_decode_kv_bytes).abs()
            <= 1e-9 * old.peak_decode_kv_bytes.max(1.0),
        "{label}: peak kv"
    );
    assert!(
        (new.peak_decode_memory_fraction - old.peak_decode_memory_fraction).abs() <= 1e-12,
        "{label}: peak fraction"
    );
    for (a, b) in new.records.iter().zip(old.records.iter()) {
        assert_eq!(a.request, b.request, "{label}: request identity");
        assert_eq!(
            a.prefill_replica, b.prefill_replica,
            "{label}: prefill replica"
        );
        assert_eq!(
            a.decode_replica, b.decode_replica,
            "{label}: decode replica"
        );
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9;
        assert!(
            close(a.finish_time, b.finish_time),
            "{label}: finish {} vs {}",
            a.finish_time,
            b.finish_time
        );
        assert!(
            close(a.breakdown.prefill, b.breakdown.prefill),
            "{label}: prefill stage"
        );
        assert!(
            close(a.breakdown.quantization, b.breakdown.quantization),
            "{label}: quant stage"
        );
        assert!(
            close(a.breakdown.communication, b.breakdown.communication),
            "{label}: comm stage"
        );
        assert!(
            close(a.breakdown.dequant_or_approx, b.breakdown.dequant_or_approx),
            "{label}: dequant stage"
        );
        assert!(
            close(a.breakdown.decode, b.breakdown.decode),
            "{label}: decode stage"
        );
        assert!(
            close(a.breakdown.queueing, b.breakdown.queueing),
            "{label}: queueing stage"
        );
    }
}

fn config(
    profile: KvMethodProfile,
    dataset: Dataset,
    rps: f64,
    n: usize,
    seed: u64,
) -> SimulationConfig {
    SimulationConfig::new(
        ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G),
        TraceConfig {
            dataset,
            rps,
            num_requests: n,
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed,
        },
        profile,
    )
}

#[test]
fn default_config_matches_seed_simulator_exactly() {
    assert_equivalent(
        config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.08, 60, 7),
        "baseline/cocktail",
    );
}

#[test]
fn explicit_fcfs_policy_is_bit_identical_to_the_default_and_the_seed() {
    // The pluggable-policy frontend under explicit FCFS must reproduce the
    // default-policy simulator bit-for-bit (PartialEq compares every f64
    // exactly) and hence, transitively with the tests above, the seed
    // simulator. An admission policy generous enough to admit everything
    // (huge token buckets) must not perturb the run either.
    let base = config(KvMethodProfile::hack(), Dataset::Cocktail, 0.08, 50, 9);
    let default_run = Simulator::new(base).run();

    let mut fcfs = base;
    fcfs.policy.scheduling = hack_cluster::SchedulingPolicyKind::Fcfs;
    assert_eq!(Simulator::new(fcfs).run(), default_run, "explicit FCFS");

    let mut buckets = base;
    buckets.policy.admission = hack_cluster::AdmissionPolicyKind::TokenBucket {
        rate_per_weight: 1e6,
        burst: 1e6,
    };
    let bucket_run = Simulator::new(buckets).run();
    assert_eq!(bucket_run.rejected_requests, 0);
    assert_eq!(bucket_run, default_run, "non-binding admission");

    // Legacy oracle on the same configuration, for direct coverage.
    assert_equivalent(fcfs, "explicit fcfs vs seed");
}

#[test]
fn every_method_matches_on_the_default_config() {
    for (name, profile) in [
        ("baseline", KvMethodProfile::baseline()),
        ("cachegen", KvMethodProfile::cachegen()),
        ("kvquant", KvMethodProfile::kvquant()),
        ("hack", KvMethodProfile::hack()),
    ] {
        assert_equivalent(config(profile, Dataset::Cocktail, 0.08, 40, 42), name);
    }
}

#[test]
fn pipelining_matches_seed_simulator() {
    let mut cfg = config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 40, 11);
    cfg.cluster.pipelining = true;
    assert_equivalent(cfg, "pipelined baseline");
}

#[test]
fn memory_pressure_and_swap_path_match_seed_simulator() {
    let mut cluster = ClusterConfig::scalability(6);
    cluster.cost_params.decode_batch = 8.0;
    cluster.activation_reserve = 0.55;
    let cfg = SimulationConfig::new(
        cluster,
        TraceConfig {
            dataset: Dataset::Cocktail,
            rps: 0.5,
            num_requests: 80,
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed: 13,
        },
        KvMethodProfile::baseline(),
    );
    assert_equivalent(cfg, "overload/swap");
}

#[test]
fn datasets_gpus_and_seeds_match_seed_simulator() {
    for (dataset, rps) in [
        (Dataset::Imdb, 0.5),
        (Dataset::Arxiv, 0.1),
        (Dataset::HumanEval, 0.8),
    ] {
        assert_equivalent(
            config(KvMethodProfile::hack(), dataset, rps, 30, 5),
            dataset.name(),
        );
    }
    let mut cfg = config(KvMethodProfile::kvquant(), Dataset::Cocktail, 0.05, 30, 23);
    cfg.cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::V100);
    assert_equivalent(cfg, "v100 fleet");
}

#[test]
fn armed_idle_prefix_cache_is_bit_identical_to_cache_off_and_the_seed() {
    // An armed cache over a sessionless trace never hits, never inserts and
    // never evicts: every hot-path probe must collapse to the exact arithmetic
    // of the cache-off run (`kv_capacity + 0.0` included), so the result is
    // bit-identical to Off — and, via the oracle, to the seed simulator.
    let off = config(KvMethodProfile::hack(), Dataset::Cocktail, 0.08, 50, 31);
    let mut armed = off;
    armed.cache = CacheConfig::on();
    let mut armed_run = Simulator::new(armed).run();
    assert_eq!(armed_run.prefix_hits + armed_run.prefix_misses, 0);
    // The armed run reports a (all-zero) per-group occupancy vector where the
    // off run reports none; every timing, record and cost field must agree
    // bit-for-bit once that sensor shape is normalized away.
    assert!(armed_run
        .prefix_cache_peak_fraction
        .iter()
        .all(|&f| f == 0.0));
    armed_run.prefix_cache_peak_fraction = Vec::new();
    assert_eq!(armed_run, Simulator::new(off).run(), "armed-idle vs off");
    assert_equivalent(armed, "armed-idle cache vs seed");
}
