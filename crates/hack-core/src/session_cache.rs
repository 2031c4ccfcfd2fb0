//! Session-cache experiments: session-structured workloads (multi-turn chat,
//! agentic fan-out) over the per-replica KV prefix cache.
//!
//! A [`SessionCacheExperiment`] describes a cluster plus a family of session
//! workloads. Its cells cross the chat/agentic/mixed workloads with cache
//! off/on and the least-loaded vs session-affinity dispatchers;
//! [`SessionCacheExperiment::grid`] reads JCT and the cache sensors (hit
//! rate, bytes saved, prefill seconds avoided) off each run into one result
//! table — the `session_cache` experiment grid.

use crate::experiment::{run_cells, Cell, ExperimentTable};
use crate::method::Method;
use hack_cluster::{
    CacheConfig, ClusterConfig, DispatchPolicyKind, PolicyConfig, SimulationConfig, Simulator,
};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::session::{SessionKind, SessionSpec, SessionTrace};
use hack_workload::trace::{TenantId, TraceConfig};
use serde::Serialize;
use std::sync::Arc;

/// Which session shapes a cell of the sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SessionMix {
    /// Linear multi-turn chat sessions only.
    Chat,
    /// Agentic fan-out sessions only.
    Agentic,
    /// Both streams merged into one arrival process.
    Mixed,
}

impl SessionMix {
    /// Every mix, in grid order.
    pub fn all() -> [SessionMix; 3] {
        [SessionMix::Chat, SessionMix::Agentic, SessionMix::Mixed]
    }

    /// Short label used in row names.
    pub fn name(self) -> &'static str {
        match self {
            SessionMix::Chat => "chat",
            SessionMix::Agentic => "agentic",
            SessionMix::Mixed => "mixed",
        }
    }
}

/// A session-cache experiment: the cluster, the session workload family and
/// the sweep axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SessionCacheExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Prefill GPU family (decode side follows the paper default).
    pub prefill_gpu: GpuKind,
    /// Sessions per stream.
    pub sessions: usize,
    /// Session-root arrivals per second per stream.
    pub rps: f64,
    /// Dataset providing the length distributions.
    pub dataset: Dataset,
    /// Turns per chat session.
    pub chat_turns: usize,
    /// Mean think time between chat turns, seconds.
    pub think_mean_s: f64,
    /// Parallel tool calls per agentic session.
    pub agent_tools: usize,
    /// Mean parent-to-dependent issue delay for agentic sessions, seconds.
    pub tool_delay_s: f64,
    /// Capacity fraction of the armed cache cells.
    pub capacity_fraction: f64,
    /// Seed of the workload streams.
    pub seed: u64,
}

impl SessionCacheExperiment {
    /// The default scenario: conversational sessions long enough that shared
    /// prefixes dominate prompt tokens, at a rate the paper-default cluster
    /// serves without collapse.
    pub fn paper_default() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            prefill_gpu: GpuKind::A10G,
            sessions: 8,
            rps: 0.04,
            dataset: Dataset::Cocktail,
            chat_turns: 4,
            think_mean_s: 25.0,
            agent_tools: 3,
            tool_delay_s: 5.0,
            capacity_fraction: CacheConfig::on()
                .settings()
                .expect("on() carries settings")
                .capacity_fraction,
            seed: 17,
        }
    }

    /// One stream of `kind` sessions for `tenant`, its seed offset by
    /// `seed_salt` from the experiment's.
    fn spec(&self, tenant: u32, kind: SessionKind, seed_salt: u64) -> SessionSpec {
        SessionSpec {
            tenant: TenantId(tenant),
            kind,
            sessions: self.sessions,
            rps: self.rps,
            dataset: self.dataset,
            max_context: self.model.spec().max_context,
            seed: self.seed.wrapping_add(seed_salt),
        }
    }

    /// The session trace of one mix.
    pub fn trace(&self, mix: SessionMix) -> SessionTrace {
        let chat = |tenant| {
            let kind = SessionKind::Chat {
                turns: self.chat_turns,
                think_mean_s: self.think_mean_s,
            };
            self.spec(tenant, kind, 0)
        };
        let agentic = |tenant| {
            let kind = SessionKind::Agentic {
                tools: self.agent_tools,
                tool_delay_s: self.tool_delay_s,
            };
            self.spec(tenant, kind, 1)
        };
        SessionTrace::new(match mix {
            SessionMix::Chat => vec![chat(0)],
            SessionMix::Agentic => vec![agentic(0)],
            SessionMix::Mixed => vec![chat(0), agentic(1)],
        })
    }

    /// The simulation configuration of one (mix, cache, dispatch) cell.
    pub fn simulation_config(
        &self,
        method: Method,
        mix: SessionMix,
        cache: CacheConfig,
        dispatch: DispatchPolicyKind,
        num_requests: usize,
    ) -> SimulationConfig {
        let cluster = ClusterConfig::paper_default(self.model, self.prefill_gpu);
        let trace = TraceConfig {
            // Descriptive aggregate view of the merged session stream; the
            // requests themselves come from [`Self::trace`].
            dataset: self.dataset,
            rps: self.rps * if mix == SessionMix::Mixed { 2.0 } else { 1.0 },
            num_requests,
            max_context: self.model.spec().max_context,
            seed: self.seed,
        };
        SimulationConfig {
            policy: PolicyConfig {
                dispatch,
                ..PolicyConfig::default()
            },
            cache,
            ..SimulationConfig::new(cluster, trace, method.profile())
        }
    }

    /// The (cache, dispatch) columns of the sweep: cache off under the default
    /// dispatcher, then the armed cache under least-loaded and
    /// session-affinity dispatch.
    fn cache_dispatch(&self) -> [(CacheConfig, DispatchPolicyKind); 3] {
        let on = CacheConfig::with_capacity_fraction(self.capacity_fraction);
        [
            (CacheConfig::Off, DispatchPolicyKind::LeastLoaded),
            (on, DispatchPolicyKind::LeastLoaded),
            (on, DispatchPolicyKind::SessionAffinity),
        ]
    }

    /// The sweep's cells, mixes × (cache, dispatch) pairs, labelled
    /// `mix/cache/dispatch`. The cells of one mix share its trace.
    pub fn cells(&self, method: Method) -> Vec<Cell> {
        let mut cells = Vec::new();
        for mix in SessionMix::all() {
            let requests = Arc::new(self.trace(mix).generate());
            for (cache, dispatch) in self.cache_dispatch() {
                let label = format!(
                    "{}/{}/{}",
                    mix.name(),
                    if cache.is_on() { "on" } else { "off" },
                    dispatch.name()
                );
                let config = self.simulation_config(method, mix, cache, dispatch, requests.len());
                cells.push((label, Simulator::with_requests(config, requests.clone())));
            }
        }
        cells
    }

    /// The `session_cache` grid: one row per cell with JCT and the cache
    /// sensors.
    pub fn grid(&self, method: Method) -> ExperimentTable {
        ExperimentTable::sweep(
            "session_cache",
            format!(
                "Session prefix-cache sweep ({} sessions/stream, {})",
                self.sessions,
                method.name()
            ),
            [
                "mean_jct_s",
                "p99_jct_s",
                "hit_rate",
                "prefill_s_saved",
                "bytes_saved_mb",
                "makespan_s",
            ],
            run_cells(self.cells(method)),
            |r| {
                vec![
                    r.average_jct(),
                    r.jct_stats().p99,
                    r.prefix_hit_rate,
                    r.prefill_seconds_saved,
                    r.prefix_bytes_saved / 1e6,
                    r.makespan,
                ]
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SessionCacheExperiment {
        SessionCacheExperiment {
            sessions: 4,
            ..SessionCacheExperiment::paper_default()
        }
    }

    #[test]
    fn every_cell_runs_and_conserves_requests() {
        let exp = small();
        let total = |label: &str| {
            let mix = SessionMix::all()
                .into_iter()
                .find(|mix| label.starts_with(mix.name()))
                .unwrap();
            exp.trace(mix).num_requests()
        };
        for (label, result) in run_cells(exp.cells(Method::hack())) {
            assert_eq!(result.records.len(), total(&label), "{label}");
            if label.contains("/off/") {
                assert_eq!(result.prefix_hits + result.prefix_misses, 0);
                assert_eq!(result.prefix_hit_rate, 0.0);
                assert_eq!(result.prefix_bytes_saved, 0.0);
            }
        }
    }

    #[test]
    fn chat_mix_cache_on_beats_cache_off_with_majority_hits() {
        // The acceptance scenario: conversational sessions hit the cache on
        // most follow-ups and the saved prefill shows up in mean JCT.
        let exp = SessionCacheExperiment::paper_default();
        let run = |cache, dispatch| {
            let requests = Arc::new(exp.trace(SessionMix::Chat).generate());
            let config = exp.simulation_config(
                Method::hack(),
                SessionMix::Chat,
                cache,
                dispatch,
                requests.len(),
            );
            Simulator::with_requests(config, requests).run()
        };
        let off = run(CacheConfig::Off, DispatchPolicyKind::LeastLoaded);
        let on = run(CacheConfig::on(), DispatchPolicyKind::SessionAffinity);
        assert!(on.prefix_hit_rate >= 0.5, "hit rate {}", on.prefix_hit_rate);
        assert!(on.prefill_seconds_saved > 0.0);
        assert!(
            on.average_jct() < off.average_jct(),
            "cache on {} must beat off {}",
            on.average_jct(),
            off.average_jct()
        );
    }

    #[test]
    fn grid_is_deterministic_and_fully_populated() {
        let exp = small();
        let a = exp.grid(Method::Baseline);
        assert_eq!(
            a.rows.len(),
            SessionMix::all().len() * exp.cache_dispatch().len()
        );
        assert_eq!(a, exp.grid(Method::Baseline));
        // Cache-off and armed rows exist for every mix, and the armed chat
        // row records a nonzero hit rate.
        let hit = a
            .value("chat/on/session-affinity", "hit_rate")
            .expect("armed chat row");
        assert!(hit > 0.0);
        assert_eq!(a.value("chat/off/least-loaded", "hit_rate"), Some(0.0));
    }
}
