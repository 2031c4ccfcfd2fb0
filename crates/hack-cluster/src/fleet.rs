//! Fleet topology: heterogeneous replica groups with per-group cost models.
//!
//! The paper's fleet model (§7.1) is homogeneous — one GPU kind, one NIC
//! bandwidth and one cost parameterisation per side. A [`FleetSpec`] lifts
//! that restriction: each side (prefill, decode) is a [`GroupSet`] of up to
//! [`MAX_GROUPS`] [`ReplicaGroup`]s, and each group carries its own GPU kind,
//! replica count, TP/PP parallelism, NIC bandwidth and (optionally) its own
//! cost-model efficiency constants. A mixed A10G + L4 prefill fleet is two
//! groups; the paper's homogeneous fleets are single-group specs, and every
//! legacy constructor lowers to one (pinned bit-identical to the pre-fleet
//! simulator by the seed-equivalence and fleet-compat suites).
//!
//! Replica indexing is global and group-major: the simulator flattens the
//! groups in order, so group 0's replicas come first. Single-group specs
//! therefore keep exactly the replica indices the flat configuration had.
//!
//! The fixed-capacity [`GroupSet`] (same pattern as
//! [`crate::policy::TenantClasses`]) keeps [`FleetSpec`] — and with it
//! [`crate::config::ClusterConfig`] and the whole
//! [`crate::config::SimulationConfig`] — `Copy`.

use hack_model::cost::{CostParams, ReplicaCostModel};
use hack_model::gpu::GpuKind;
use hack_model::parallelism::Parallelism;
use hack_model::spec::ModelKind;
use serde::{Serialize, Value};

/// Upper bound on replica groups per fleet side (sizes the fixed storage so
/// [`FleetSpec`] stays `Copy`).
pub const MAX_GROUPS: usize = 4;

/// One homogeneous group of replicas on one side of the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReplicaGroup {
    /// GPU family of every replica in the group.
    pub gpu: GpuKind,
    /// Number of model replicas.
    pub replicas: usize,
    /// TP/PP configuration of each replica.
    pub parallel: Parallelism,
    /// NIC bandwidth available to each replica, in Gbps.
    pub network_gbps: f64,
    /// Group-specific cost-model efficiency constants; `None` inherits the
    /// fleet-wide [`crate::config::ClusterConfig::cost_params`].
    pub cost_params: Option<CostParams>,
    /// On-demand price of one GPU of this group, in $/GPU-hour (defaults to
    /// the instance family's list price per GPU). One replica costs
    /// `dollars_per_gpu_hour * gpus_per_replica` per hour of uptime; the
    /// simulator turns replica uptime into the `gpu_dollars` cost sensors.
    pub dollars_per_gpu_hour: f64,
    /// Seconds between a scale-up decision and the new replica becoming
    /// dispatchable (instance launch + model load). Defaults per GPU kind;
    /// only the autoscaling controller reads it.
    pub provision_delay_s: f64,
}

impl ReplicaGroup {
    /// A group with the paper's Table 3 parallelism for `(model, gpu)`, one
    /// replica and the instance's full NIC bandwidth.
    pub fn new(model: ModelKind, gpu: GpuKind) -> Self {
        Self {
            gpu,
            replicas: 1,
            parallel: Parallelism::table3(model, gpu),
            network_gbps: gpu.instance().network_gbps,
            cost_params: None,
            dollars_per_gpu_hour: Self::default_dollars_per_gpu_hour(gpu),
            provision_delay_s: Self::default_provision_delay_s(gpu),
        }
    }

    /// On-demand list price of one GPU of `gpu`'s instance family, in
    /// $/GPU-hour (the §7.1 instance families: g5, p3, g4dn, g6, p4de).
    pub fn default_dollars_per_gpu_hour(gpu: GpuKind) -> f64 {
        match gpu {
            GpuKind::A10G => 1.21,
            GpuKind::V100 => 3.06,
            GpuKind::T4 => 0.53,
            GpuKind::L4 => 0.80,
            GpuKind::A100 => 4.10,
        }
    }

    /// Default scale-up provisioning delay of `gpu` in seconds (instance
    /// launch plus loading the model shards; bigger GPUs ship bigger shards).
    pub fn default_provision_delay_s(gpu: GpuKind) -> f64 {
        match gpu {
            GpuKind::A10G => 30.0,
            GpuKind::V100 => 45.0,
            GpuKind::T4 => 20.0,
            GpuKind::L4 => 25.0,
            GpuKind::A100 => 90.0,
        }
    }

    /// Dollars one replica of this group costs per second of uptime.
    pub fn replica_dollars_per_s(&self) -> f64 {
        self.dollars_per_gpu_hour * self.parallel.gpus_per_replica() as f64 / 3600.0
    }

    /// The paper's fleet sizing (§7.1) for `instances` instances of `gpu`:
    /// as many replicas as the GPUs allow under Table 3 parallelism, each
    /// sourcing its KV transfers from one instance NIC.
    ///
    /// NIC sharing uses *integer* replica-per-instance assignment: the NIC of
    /// an instance is split among `ceil(replicas / instances)` replicas (a
    /// replica spanning several instances still transfers from one NIC, and a
    /// NIC is never split fractionally). Every Table 2/3 combination divides
    /// evenly or leaves each replica a whole NIC, so this reproduces the
    /// pre-fleet fractional arithmetic bit-for-bit on the paper's defaults;
    /// configurations with a remainder (e.g. 5 replicas on 2 instances) now
    /// round the sharing up to the worst-loaded NIC instead of averaging.
    pub fn paper_sized(model: ModelKind, gpu: GpuKind, instances: usize) -> Self {
        assert!(instances >= 1, "a group needs at least one instance");
        let parallel = Parallelism::table3(model, gpu);
        let gpus = instances * gpu.instance().gpus;
        let replicas = (gpus / parallel.gpus_per_replica()).max(1);
        Self {
            gpu,
            replicas,
            parallel,
            network_gbps: Self::shared_nic_gbps(gpu.instance().network_gbps, replicas, instances),
            cost_params: None,
            dollars_per_gpu_hour: Self::default_dollars_per_gpu_hour(gpu),
            provision_delay_s: Self::default_provision_delay_s(gpu),
        }
    }

    /// NIC bandwidth left to each replica when `replicas` replicas source
    /// their KV transfers from `instances` instance NICs: *integer*
    /// assignment — `ceil(replicas / instances)` replicas share the
    /// worst-loaded NIC (a replica spanning several instances still transfers
    /// from one NIC, and a NIC is never split fractionally). The pre-fleet
    /// arithmetic divided by the fractional average `replicas / instances`;
    /// under Table 2/3 sizing the two coincide (the replica count is always
    /// a multiple of the instance count, or small enough for whole NICs), so
    /// the paper defaults are bit-preserved, while remainder configurations
    /// (e.g. 5 replicas on 3 instances) now see the worst NIC's share.
    pub fn shared_nic_gbps(line_rate_gbps: f64, replicas: usize, instances: usize) -> f64 {
        assert!(replicas >= 1 && instances >= 1);
        line_rate_gbps / replicas.div_ceil(instances) as f64
    }

    /// GPU memory (bytes) available to one replica of this group.
    pub fn replica_mem_bytes(&self) -> f64 {
        self.parallel.gpus_per_replica() as f64 * self.gpu.spec().mem_gib * (1u64 << 30) as f64
    }

    /// The group's cost model: its GPU/parallelism with its own efficiency
    /// constants, or the supplied fleet-wide `default_params`.
    pub fn cost_model(&self, model: ModelKind, default_params: CostParams) -> ReplicaCostModel {
        ReplicaCostModel::with_params(
            model.spec(),
            self.gpu.spec(),
            self.parallel,
            self.cost_params.unwrap_or(default_params),
        )
    }
}

/// The replica groups of one fleet side, in group order. Fixed capacity
/// ([`MAX_GROUPS`]) so the containing configuration stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSet {
    groups: [ReplicaGroup; MAX_GROUPS],
    len: usize,
}

impl GroupSet {
    /// A single-group side (the homogeneous fleets of the paper).
    pub fn single(group: ReplicaGroup) -> Self {
        Self::new(&[group])
    }

    /// A side made of the given groups, in order.
    ///
    /// # Panics
    /// Panics on an empty set, more than [`MAX_GROUPS`] groups, a group with
    /// zero replicas, or a non-positive NIC bandwidth.
    pub fn new(groups: &[ReplicaGroup]) -> Self {
        assert!(
            !groups.is_empty(),
            "a fleet side needs at least one replica group"
        );
        assert!(
            groups.len() <= MAX_GROUPS,
            "at most {MAX_GROUPS} replica groups per side, got {}",
            groups.len()
        );
        for (i, g) in groups.iter().enumerate() {
            assert!(g.replicas >= 1, "group {i} has no replicas");
            assert!(
                g.network_gbps > 0.0,
                "group {i} has non-positive NIC bandwidth {}",
                g.network_gbps
            );
        }
        let mut fixed = [groups[0]; MAX_GROUPS];
        fixed[..groups.len()].copy_from_slice(groups);
        Self {
            groups: fixed,
            len: groups.len(),
        }
    }

    /// Number of groups on this side.
    pub fn len(&self) -> usize {
        self.len
    }

    /// A fleet side always has at least one group.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The groups, in group order.
    pub fn iter(&self) -> impl Iterator<Item = &ReplicaGroup> + '_ {
        self.groups[..self.len].iter()
    }

    /// The group at `index`.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn get(&self, index: usize) -> &ReplicaGroup {
        assert!(index < self.len, "group {index} of {}", self.len);
        &self.groups[index]
    }

    /// Mutable access to the group at `index` (fleet-shaping overrides).
    pub fn get_mut(&mut self, index: usize) -> &mut ReplicaGroup {
        assert!(index < self.len, "group {index} of {}", self.len);
        &mut self.groups[index]
    }

    /// Total replicas across all groups of this side.
    pub fn total_replicas(&self) -> usize {
        self.iter().map(|g| g.replicas).sum()
    }

    /// Per-replica group indices, flattened group-major (the simulator's
    /// global replica order).
    pub fn flatten_groups(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.total_replicas());
        for (i, g) in self.iter().enumerate() {
            out.extend(std::iter::repeat_n(i, g.replicas));
        }
        out
    }
}

// Serialize only the live prefix (the derive would emit all MAX_GROUPS slots).
impl Serialize for GroupSet {
    fn serialize_value(&self) -> Value {
        Value::Array(
            self.groups[..self.len]
                .iter()
                .map(Serialize::serialize_value)
                .collect(),
        )
    }
}

/// The full fleet topology: the prefill-side and decode-side replica groups.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FleetSpec {
    /// Prefill-side replica groups.
    pub prefill: GroupSet,
    /// Decode-side replica groups.
    pub decode: GroupSet,
}

impl FleetSpec {
    /// The homogeneous fleet: one prefill group, one decode group (every
    /// legacy constructor lowers to this shape).
    pub fn homogeneous(prefill: ReplicaGroup, decode: ReplicaGroup) -> Self {
        Self {
            prefill: GroupSet::single(prefill),
            decode: GroupSet::single(decode),
        }
    }

    /// The KV wire bandwidth from prefill group `prefill_group` to decode
    /// group `decode_group`: the slower of the two groups' NICs.
    pub fn wire_gbps(&self, prefill_group: usize, decode_group: usize) -> f64 {
        let prefill = self.prefill.get(prefill_group).network_gbps;
        prefill.min(self.decode.get(decode_group).network_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a10g(replicas: usize) -> ReplicaGroup {
        ReplicaGroup {
            replicas,
            ..ReplicaGroup::new(ModelKind::Llama31_70B, GpuKind::A10G)
        }
    }

    #[test]
    fn paper_sizing_matches_table2_and_3() {
        // 10 g5 instances x 4 GPUs / (TP4*PP2 = 8) = 5 replicas, one whole
        // 40 Gbps NIC each (replicas < instances).
        let g = ReplicaGroup::paper_sized(ModelKind::Llama31_70B, GpuKind::A10G, 10);
        assert_eq!(g.replicas, 5);
        assert_eq!(g.network_gbps, 40.0);
        // 2 p4de x 8 GPUs / TP4 = 4 decode replicas, two per 400 Gbps NIC.
        let d = ReplicaGroup::paper_sized(ModelKind::Llama31_70B, GpuKind::A100, 2);
        assert_eq!(d.replicas, 4);
        assert_eq!(d.network_gbps, 200.0);
    }

    #[test]
    fn nic_sharing_rounds_to_the_worst_loaded_nic() {
        // 2 instances x 8 A100s / (TP1 = 1 GPU) on Mistral = 16 replicas:
        // integer assignment packs 8 per NIC (divides evenly, same as the old
        // fractional average).
        let even = ReplicaGroup::paper_sized(ModelKind::Mistral7B, GpuKind::A100, 2);
        assert_eq!(even.replicas, 16);
        assert_eq!(even.network_gbps, 400.0 / 8.0);
        // Fewer replicas than instances: a whole NIC each.
        let sparse = ReplicaGroup::paper_sized(ModelKind::Llama31_70B, GpuKind::A10G, 10);
        assert_eq!(sparse.replicas, 5);
        assert_eq!(sparse.network_gbps, 40.0);
        // Table 2/3 sizing always lands on one of those two shapes (an exact
        // multiple or whole NICs), which is why the paper defaults are
        // bit-preserved; the sharing rule itself — exercised directly, since
        // `paper_sized` cannot reach a remainder with Table 3 parallelism —
        // rounds a remainder *up* to the worst-loaded NIC: 5 replicas on 3
        // instances share ceil(5/3) = 2, where the old arithmetic averaged
        // 5/3 ≈ 1.67.
        assert_eq!(ReplicaGroup::shared_nic_gbps(40.0, 5, 3), 20.0);
        assert_eq!(ReplicaGroup::shared_nic_gbps(40.0, 6, 3), 20.0);
        assert_eq!(ReplicaGroup::shared_nic_gbps(40.0, 7, 3), 40.0 / 3.0);
        assert_eq!(ReplicaGroup::shared_nic_gbps(40.0, 2, 3), 40.0);
    }

    #[test]
    fn group_set_flattens_group_major() {
        let set = GroupSet::new(&[a10g(2), a10g(3)]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_replicas(), 5);
        assert_eq!(set.flatten_groups(), vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn serde_round_trips_mixed_sets() {
        let mut l4 = ReplicaGroup::new(ModelKind::Llama31_70B, GpuKind::L4);
        l4.replicas = 2;
        l4.cost_params = Some(CostParams {
            decode_batch: 4.0,
            ..CostParams::default()
        });
        let fleet = FleetSpec {
            prefill: GroupSet::new(&[a10g(3), l4]),
            decode: GroupSet::single(ReplicaGroup::paper_sized(
                ModelKind::Llama31_70B,
                GpuKind::A100,
                2,
            )),
        };
        let json = serde_json::to_string(&fleet).unwrap();
        let value = serde_json::from_str(&json).unwrap();
        assert_eq!(value, fleet.serialize_value());
        // Only the live groups serialize, not all `MAX_GROUPS` slots.
        let groups = |side: &str| match value.get_key(side) {
            Some(Value::Array(groups)) => groups.len(),
            other => panic!("{side}: {other:?}"),
        };
        assert_eq!((groups("prefill"), groups("decode")), (2, 1));
    }

    #[test]
    #[should_panic(expected = "at least one replica group")]
    fn empty_side_is_rejected() {
        GroupSet::new(&[]);
    }

    #[test]
    #[should_panic(expected = "has no replicas")]
    fn zero_replica_group_is_rejected() {
        GroupSet::new(&[a10g(0)]);
    }
}
