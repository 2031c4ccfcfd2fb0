//! GPU and AWS-instance specifications (Table 2 of the paper).

use serde::Serialize;

/// GPU families used in the paper's testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum GpuKind {
    /// NVIDIA A10G (g5 instances) — the paper's default prefill GPU.
    A10G,
    /// NVIDIA V100 (p3 instances) — no INT8 tensor-core acceleration.
    V100,
    /// NVIDIA T4 (g4dn instances).
    T4,
    /// NVIDIA L4 (g6 instances).
    L4,
    /// NVIDIA A100 80GB (p4de instances) — the decode GPU.
    A100,
}

impl GpuKind {
    /// All GPU kinds, in the paper's figure order (A10G, V100, T4, L4, A100).
    pub fn all() -> [GpuKind; 5] {
        [
            GpuKind::A10G,
            GpuKind::V100,
            GpuKind::T4,
            GpuKind::L4,
            GpuKind::A100,
        ]
    }

    /// Hardware specification of one GPU of this kind.
    pub fn spec(&self) -> GpuSpec {
        match self {
            GpuKind::A10G => GpuSpec {
                kind: *self,
                name: "A10G",
                fp16_tflops: 70.0,
                int8_tops: Some(140.0),
                fp8_support: false,
                mem_bandwidth_gbs: 600.0,
                mem_gib: 24.0,
            },
            GpuKind::V100 => GpuSpec {
                kind: *self,
                name: "V100",
                fp16_tflops: 112.0,
                // §7.2: the V100 tensor core does not support INT8 matrix
                // multiplication, so quantized matmuls fall back to FP16 speed.
                int8_tops: None,
                fp8_support: false,
                mem_bandwidth_gbs: 900.0,
                mem_gib: 16.0,
            },
            GpuKind::T4 => GpuSpec {
                kind: *self,
                name: "T4",
                fp16_tflops: 65.0,
                int8_tops: Some(130.0),
                fp8_support: false,
                mem_bandwidth_gbs: 320.0,
                mem_gib: 16.0,
            },
            GpuKind::L4 => GpuSpec {
                kind: *self,
                name: "L4",
                fp16_tflops: 121.0,
                int8_tops: Some(242.0),
                fp8_support: true,
                mem_bandwidth_gbs: 300.0,
                mem_gib: 24.0,
            },
            GpuKind::A100 => GpuSpec {
                kind: *self,
                name: "A100",
                fp16_tflops: 312.0,
                int8_tops: Some(624.0),
                // Pre-H100 architecture: no FP8 tensor cores (§1, §3).
                fp8_support: false,
                mem_bandwidth_gbs: 2039.0,
                mem_gib: 80.0,
            },
        }
    }

    /// The AWS instance family the paper pairs with this GPU (Table 2).
    pub fn instance(&self) -> InstanceSpec {
        InstanceKind::for_gpu(*self).spec()
    }
}

/// Hardware specification of a single GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GpuSpec {
    /// GPU family.
    pub kind: GpuKind,
    /// Marketing name.
    pub name: &'static str,
    /// Dense FP16 tensor-core throughput in TFLOPS.
    pub fp16_tflops: f64,
    /// Dense INT8 tensor-core throughput in TOPS, or `None` when the GPU cannot
    /// accelerate INT8 matrix multiplication (V100).
    pub int8_tops: Option<f64>,
    /// Whether FP8 matrix multiplication is natively supported.
    pub fp8_support: bool,
    /// HBM/GDDR bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Memory capacity in GiB.
    pub mem_gib: f64,
}

impl GpuSpec {
    /// Effective INT8 throughput: falls back to FP16 throughput when the GPU cannot
    /// accelerate INT8 (so quantized matmuls are never *slower* than FP16 ones, they
    /// just are not faster).
    pub fn effective_int8_tops(&self) -> f64 {
        self.int8_tops.unwrap_or(self.fp16_tflops)
    }
}

/// AWS instance families of Table 2.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum InstanceKind {
    /// g5.12xlarge — 4 × A10G, 96 GiB GPU memory, 40 Gbps.
    G5_12xlarge,
    /// p3.8xlarge — 4 × V100, 64 GiB GPU memory, 10 Gbps.
    P3_8xlarge,
    /// g4dn.12xlarge — 4 × T4, 64 GiB GPU memory, 50 Gbps.
    G4dn_12xlarge,
    /// g6.12xlarge — 4 × L4, 96 GiB GPU memory, 40 Gbps.
    G6_12xlarge,
    /// p4de.24xlarge — 8 × A100, 640 GiB GPU memory, 400 Gbps.
    P4de_24xlarge,
}

impl InstanceKind {
    /// The instance family the paper uses for a given GPU kind.
    pub fn for_gpu(gpu: GpuKind) -> InstanceKind {
        match gpu {
            GpuKind::A10G => InstanceKind::G5_12xlarge,
            GpuKind::V100 => InstanceKind::P3_8xlarge,
            GpuKind::T4 => InstanceKind::G4dn_12xlarge,
            GpuKind::L4 => InstanceKind::G6_12xlarge,
            GpuKind::A100 => InstanceKind::P4de_24xlarge,
        }
    }

    /// Table 2 row for this instance.
    pub fn spec(&self) -> InstanceSpec {
        match self {
            InstanceKind::G5_12xlarge => InstanceSpec {
                kind: *self,
                name: "g5.12xlarge",
                gpu: GpuKind::A10G,
                gpus: 4,
                gpu_mem_gib: 96.0,
                network_gbps: 40.0,
                vcpus: 48,
                host_mem_gib: 192.0,
            },
            InstanceKind::P3_8xlarge => InstanceSpec {
                kind: *self,
                name: "p3.8xlarge",
                gpu: GpuKind::V100,
                gpus: 4,
                gpu_mem_gib: 64.0,
                network_gbps: 10.0,
                vcpus: 32,
                host_mem_gib: 244.0,
            },
            InstanceKind::G4dn_12xlarge => InstanceSpec {
                kind: *self,
                name: "g4dn.12xlarge",
                gpu: GpuKind::T4,
                gpus: 4,
                gpu_mem_gib: 64.0,
                network_gbps: 50.0,
                vcpus: 48,
                host_mem_gib: 192.0,
            },
            InstanceKind::G6_12xlarge => InstanceSpec {
                kind: *self,
                name: "g6.12xlarge",
                gpu: GpuKind::L4,
                gpus: 4,
                gpu_mem_gib: 96.0,
                network_gbps: 40.0,
                vcpus: 48,
                host_mem_gib: 192.0,
            },
            InstanceKind::P4de_24xlarge => InstanceSpec {
                kind: *self,
                name: "p4de.24xlarge",
                gpu: GpuKind::A100,
                gpus: 8,
                gpu_mem_gib: 640.0,
                network_gbps: 400.0,
                vcpus: 96,
                host_mem_gib: 1152.0,
            },
        }
    }
}

/// One AWS instance (Table 2 row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InstanceSpec {
    /// Which family this is.
    pub kind: InstanceKind,
    /// AWS name.
    pub name: &'static str,
    /// GPU family on this instance.
    pub gpu: GpuKind,
    /// Number of GPUs.
    pub gpus: usize,
    /// Total GPU memory in GiB.
    pub gpu_mem_gib: f64,
    /// Network bandwidth in Gbps.
    pub network_gbps: f64,
    /// vCPU count.
    pub vcpus: usize,
    /// Host memory in GiB.
    pub host_mem_gib: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_match_paper() {
        let g5 = InstanceKind::G5_12xlarge.spec();
        assert_eq!(g5.gpus, 4);
        assert_eq!(g5.network_gbps, 40.0);
        assert_eq!(g5.gpu_mem_gib, 96.0);
        let p3 = InstanceKind::P3_8xlarge.spec();
        assert_eq!(p3.network_gbps, 10.0);
        assert_eq!(p3.vcpus, 32);
        let p4de = InstanceKind::P4de_24xlarge.spec();
        assert_eq!(p4de.gpus, 8);
        assert_eq!(p4de.network_gbps, 400.0);
        assert_eq!(p4de.gpu_mem_gib, 640.0);
        assert_eq!(p4de.host_mem_gib, 1152.0);
    }

    #[test]
    fn v100_has_no_int8_acceleration() {
        let v100 = GpuKind::V100.spec();
        assert!(v100.int8_tops.is_none());
        assert_eq!(v100.effective_int8_tops(), v100.fp16_tflops);
    }

    #[test]
    fn int8_speedup_is_about_2x_where_supported() {
        for gpu in [GpuKind::A10G, GpuKind::T4, GpuKind::L4, GpuKind::A100] {
            let s = gpu.spec();
            let speedup = s.effective_int8_tops() / s.fp16_tflops;
            assert!((speedup - 2.0).abs() < 0.05, "{}", s.name);
        }
    }

    #[test]
    fn no_pre_h100_gpu_has_fp8_except_l4() {
        assert!(!GpuKind::A100.spec().fp8_support);
        assert!(!GpuKind::V100.spec().fp8_support);
        assert!(GpuKind::L4.spec().fp8_support);
    }

    #[test]
    fn gpu_to_instance_mapping() {
        assert_eq!(GpuKind::A10G.instance().name, "g5.12xlarge");
        assert_eq!(GpuKind::A100.instance().name, "p4de.24xlarge");
        for gpu in GpuKind::all() {
            assert_eq!(gpu.instance().gpu, gpu);
        }
    }

    #[test]
    fn a100_is_fastest_and_best_connected() {
        let a100 = GpuKind::A100.spec();
        for other in [GpuKind::A10G, GpuKind::V100, GpuKind::T4, GpuKind::L4] {
            let o = other.spec();
            assert!(a100.fp16_tflops > o.fp16_tflops);
            assert!(a100.mem_bandwidth_gbs > o.mem_bandwidth_gbs);
            assert!(
                GpuKind::A100.instance().network_gbps > other.instance().network_gbps,
                "{}",
                o.name
            );
        }
    }
}
