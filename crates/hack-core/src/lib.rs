//! # hack-core
//!
//! The user-facing API of the HACK reproduction. It ties the substrates together:
//!
//! * [`method`] — the [`Method`] enum: every system compared in the paper (baseline,
//!   CacheGen-like, KVQuant-like, FP8/6/4, HACK and its ablations/partition variants),
//!   with mappings to the cost-model profile, the numerical attention backend and the
//!   KV cache layout.
//! * [`jct_runner`] — end-to-end JCT experiments on the cluster simulator: given a
//!   model, prefill GPU, dataset and method, produce the average JCT, its stage
//!   decomposition and the peak decode-memory usage (Figs. 1–4, 9–14, Table 5).
//! * [`fidelity`] — numerical-fidelity experiments on the reference transformer and on
//!   raw attention tensors: the accuracy proxy behind Tables 6–8.
//! * [`experiment`] — output helpers: result tables that print like the paper's
//!   figures/tables and serialise to JSON for the experiment binaries.
//!
//! ## Quick start
//!
//! ```
//! use hack_core::prelude::*;
//!
//! // Homomorphic-quantized attention on one head.
//! let mut rng = DetRng::new(7);
//! let q = Matrix::random_normal(64, 64, 0.0, 1.0, &mut rng);
//! let k = Matrix::random_normal(64, 64, 0.0, 1.0, &mut rng);
//! let v = Matrix::random_normal(64, 64, 0.0, 1.0, &mut rng);
//! let out = hack_prefill_attention(&q, &k, &v, HackConfig::paper_default(), &mut rng);
//! assert_eq!(out.output.shape(), (64, 64));
//! ```

pub mod autoscale;
pub mod availability;
pub mod experiment;
pub mod fault_storm;
pub mod fidelity;
pub mod hetero_fleet;
pub mod jct_runner;
pub mod method;
pub mod session_cache;
pub mod tenant_mix;

pub use autoscale::{AutoscaleExperiment, AutoscaleOutcome, TraceShape};
pub use availability::{nines_of, AvailabilityExperiment, AvailabilityPoint};
pub use experiment::{ExperimentTable, Row};
pub use fault_storm::{FaultScenario, FaultStormExperiment, FaultStormOutcome};
pub use fidelity::{FidelityReport, FidelitySetup};
pub use hetero_fleet::{HeteroFleetExperiment, HeteroFleetOutcome};
pub use jct_runner::{JctExperiment, JctOutcome};
pub use method::Method;
pub use session_cache::{SessionCacheExperiment, SessionCacheOutcome, SessionMix};
pub use tenant_mix::{TenantMixExperiment, TenantMixOutcome, TenantWorkload};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::autoscale::{AutoscaleExperiment, AutoscaleOutcome, TraceShape};
    pub use crate::availability::{nines_of, AvailabilityExperiment, AvailabilityPoint};
    pub use crate::experiment::{ExperimentTable, Row};
    pub use crate::fault_storm::{FaultScenario, FaultStormExperiment, FaultStormOutcome};
    pub use crate::fidelity::{FidelityReport, FidelitySetup};
    pub use crate::hetero_fleet::{HeteroFleetExperiment, HeteroFleetOutcome};
    pub use crate::jct_runner::{JctExperiment, JctOutcome};
    pub use crate::method::Method;
    pub use crate::session_cache::{SessionCacheExperiment, SessionCacheOutcome, SessionMix};
    pub use crate::tenant_mix::{TenantMixExperiment, TenantMixOutcome, TenantWorkload};
    pub use hack_attention::baseline::{baseline_attention, AttentionMask};
    pub use hack_attention::prefill::hack_prefill_attention;
    pub use hack_attention::state::HackKvState;
    pub use hack_cluster::{
        AdmissionPolicyKind, AvailabilityModel, CacheConfig, CacheSettings, ClusterConfig,
        ConfigError, DispatchPolicyKind, FaultDomain, FaultEvent, FaultPlan, FaultRecord,
        FleetShape, FleetSpec, GroupSet, GroupStats, LinkGraphSpec, MtbfSpec, PolicyConfig,
        ReplicaGroup, RetryPolicy, ScalingPolicyKind, SchedulingPolicyKind, SimulationConfig,
        Simulator, TelemetryConfig, TelemetrySettings, TenantClass, TenantClasses, TopologySpec,
        SCALE_TICK_SECS,
    };
    pub use hack_metrics::telemetry::Telemetry;
    pub use hack_model::gpu::GpuKind;
    pub use hack_model::spec::ModelKind;
    pub use hack_quant::{HackConfig, QuantizedTensor};
    pub use hack_tensor::{DetRng, Matrix};
    pub use hack_workload::dataset::Dataset;
    pub use hack_workload::session::{SessionKind, SessionSpec, SessionTrace};
    pub use hack_workload::tenant::{MultiTenantTrace, TenantSpec};
    pub use hack_workload::trace::TenantId;
    pub use hack_workload::trace::TraceConfig;
}
