//! Tensor- and pipeline-parallelism configurations (Table 3 of the paper).

use crate::gpu::GpuKind;
use crate::spec::ModelKind;
use serde::Serialize;

/// Tensor-parallel (TP) and pipeline-parallel (PP) degrees of one model replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Parallelism {
    /// Tensor-parallel degree (GPUs that split each layer).
    pub tp: usize,
    /// Pipeline-parallel degree (sequential layer groups).
    pub pp: usize,
}

impl Parallelism {
    /// Creates a parallelism configuration.
    pub fn new(tp: usize, pp: usize) -> Self {
        assert!(tp >= 1 && pp >= 1, "TP and PP degrees must be at least 1");
        Self { tp, pp }
    }

    /// Total GPUs used by one model replica.
    pub fn gpus_per_replica(&self) -> usize {
        self.tp * self.pp
    }

    /// Table 3: the TP/PP degrees used for a given model on a given GPU family.
    pub fn table3(model: ModelKind, gpu: GpuKind) -> Parallelism {
        use GpuKind::*;
        use ModelKind::*;
        let (tp, pp) = match (model, gpu) {
            (Mistral7B, A10G | L4) => (4, 1),
            (Mistral7B, V100 | T4) => (4, 1),
            (Mistral7B, A100) => (1, 1),
            (Phi3_14B, A10G | L4) => (2, 2),
            (Phi3_14B, V100 | T4) => (2, 2),
            (Phi3_14B, A100) => (1, 1),
            (Yi34B, A10G | L4) => (4, 2),
            (Yi34B, V100 | T4) => (4, 2),
            (Yi34B, A100) => (4, 1),
            (Llama31_70B, A10G | L4) => (4, 2),
            (Llama31_70B, V100 | T4) => (4, 4),
            (Llama31_70B, A100) => (4, 1),
            (Falcon180B, A10G | L4) => (4, 5),
            (Falcon180B, V100 | T4) => (4, 8),
            (Falcon180B, A100) => (4, 2),
        };
        Parallelism::new(tp, pp)
    }

    /// Number of instances of the given GPU family needed to host one replica
    /// (each non-A100 instance has 4 GPUs, the A100 instance has 8 — Table 2).
    pub fn instances_per_replica(&self, gpu: GpuKind) -> usize {
        let gpus_per_instance = gpu.instance().gpus;
        self.gpus_per_replica().div_ceil(gpus_per_instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_selected_entries() {
        assert_eq!(
            Parallelism::table3(ModelKind::Llama31_70B, GpuKind::A10G),
            Parallelism::new(4, 2)
        );
        assert_eq!(
            Parallelism::table3(ModelKind::Llama31_70B, GpuKind::V100),
            Parallelism::new(4, 4)
        );
        assert_eq!(
            Parallelism::table3(ModelKind::Llama31_70B, GpuKind::A100),
            Parallelism::new(4, 1)
        );
        assert_eq!(
            Parallelism::table3(ModelKind::Mistral7B, GpuKind::A100),
            Parallelism::new(1, 1)
        );
        assert_eq!(
            Parallelism::table3(ModelKind::Falcon180B, GpuKind::T4),
            Parallelism::new(4, 8)
        );
        assert_eq!(
            Parallelism::table3(ModelKind::Falcon180B, GpuKind::A100),
            Parallelism::new(4, 2)
        );
    }

    #[test]
    fn gpus_per_replica() {
        assert_eq!(Parallelism::new(4, 2).gpus_per_replica(), 8);
        assert_eq!(Parallelism::new(1, 1).gpus_per_replica(), 1);
    }

    #[test]
    fn replica_memory_is_sufficient_for_fp16_weights() {
        // Table 3 exists to make sure each replica has enough GPU memory for the
        // FP16 parameters; verify that holds under our derived parameter counts.
        for model in ModelKind::all() {
            for gpu in GpuKind::all() {
                let p = Parallelism::table3(model, gpu);
                let replica_mem =
                    p.gpus_per_replica() as f64 * gpu.spec().mem_gib * (1u64 << 30) as f64;
                let params = model.spec().param_bytes_fp16();
                assert!(
                    replica_mem > params,
                    "{} on {}: {replica_mem:.2e} bytes of GPU memory for {params:.2e} bytes of weights",
                    model.spec().name,
                    gpu.spec().name
                );
            }
        }
    }

    #[test]
    fn instances_per_replica_llama_on_a10g() {
        // Llama-3.1 70B on A10G: TP=4, PP=2 -> 8 GPUs -> two 4-GPU g5.12xlarge
        // instances (matching §7.6: "each prefill model required two A10G instances").
        let p = Parallelism::table3(ModelKind::Llama31_70B, GpuKind::A10G);
        assert_eq!(p.instances_per_replica(GpuKind::A10G), 2);
        // On A100: TP=4 -> half a p4de.24xlarge.
        let pa = Parallelism::table3(ModelKind::Llama31_70B, GpuKind::A100);
        assert_eq!(pa.instances_per_replica(GpuKind::A100), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_degree_panics() {
        Parallelism::new(0, 1);
    }
}
