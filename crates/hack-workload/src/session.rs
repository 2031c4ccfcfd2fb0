//! Session-structured traces: multi-turn chat and agentic tool-call DAGs.
//!
//! Real serving traffic is not a stream of independent requests: a chat turn
//! N+1 replays turn N's whole context as its prompt prefix, and an agent run
//! fans out tool calls that all share the planning prompt. This module models
//! that structure. A [`SessionSpec`] describes one class of sessions (tenant,
//! shape, arrival rate, length distributions); [`SessionSpec::sample_dag`]
//! draws the [`RequestDag`] of a single session; and [`SessionTrace`] turns a
//! set of specs into one deterministic [`Request`] stream, merged (stable
//! arrival sort, ids renumbered, parent links remapped, session ids offset to
//! stay globally unique) exactly the way [`crate::tenant::MultiTenantTrace`]
//! merges tenant streams.
//!
//! The generated requests carry [`Request::session`], [`Request::parent`] and
//! [`Request::shared_prefix_tokens`]; the cluster simulator gates a child
//! request on its parent's completion and uses the shared-prefix length to
//! model prefix-cache hits.

use crate::arrivals::PoissonArrivals;
use crate::dataset::Dataset;
use crate::trace::{Request, TenantId};
use hack_tensor::DetRng;
use serde::Serialize;

/// Minimum number of fresh (non-shared) prompt tokens a follow-up carries.
const MIN_FOLLOWUP_TOKENS: usize = 16;

/// Shape of the sessions a [`SessionSpec`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SessionKind {
    /// Linear multi-turn chat: each turn's prompt is the previous turn's full
    /// context plus a fresh user message, issued after an exponential
    /// think-time delay (mean `think_mean_s` seconds) from the previous
    /// turn's nominal completion.
    Chat {
        /// Turns per session (≥ 1; turn 1 is the session root).
        turns: usize,
        /// Mean think time between turns, seconds.
        think_mean_s: f64,
    },
    /// Agentic fan-out: a root planning request, `tools` parallel tool calls
    /// that each replay the root's context, and a join request (parent: the
    /// last tool call) that folds the tool outputs back into the context.
    Agentic {
        /// Parallel tool calls per session (≥ 1).
        tools: usize,
        /// Mean delay between a parent finishing and a dependent call being
        /// issued, seconds (exponential).
        tool_delay_s: f64,
    },
}

/// One node of a session's request DAG, in nominal (pre-merge) time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagNode {
    /// Index of the parent node within the DAG, if any (roots have none).
    pub parent: Option<usize>,
    /// Nominal arrival offset from the session start, seconds.
    pub offset_s: f64,
    /// Prompt length in tokens.
    pub input_len: usize,
    /// Output tokens to generate.
    pub output_len: usize,
    /// Leading prompt tokens shared with the parent's final context.
    pub shared_prefix_tokens: usize,
}

/// The sampled request DAG of a single session.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestDag {
    /// Nodes in issue order; every parent index precedes its children.
    pub nodes: Vec<DagNode>,
}

impl RequestDag {
    /// Total tokens (input + output) across the DAG.
    pub fn total_tokens(&self) -> usize {
        self.nodes.iter().map(|n| n.input_len + n.output_len).sum()
    }
}

/// Generation parameters for one stream of sessions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SessionSpec {
    /// Tenant every request of this stream is tagged with.
    pub tenant: TenantId,
    /// Session shape.
    pub kind: SessionKind,
    /// Number of sessions in the stream.
    pub sessions: usize,
    /// Session-root arrivals per second (Poisson).
    pub rps: f64,
    /// Dataset providing the root/followup length distributions.
    pub dataset: Dataset,
    /// Context-window cap; growing chat contexts are clamped to it.
    pub max_context: usize,
    /// RNG seed of this stream.
    pub seed: u64,
}

impl SessionSpec {
    /// Number of requests per session for this spec's [`SessionKind`].
    pub fn requests_per_session(&self) -> usize {
        match self.kind {
            SessionKind::Chat { turns, .. } => turns.max(1),
            SessionKind::Agentic { tools, .. } => 1 + tools.max(1) + 1,
        }
    }

    /// Total requests the stream generates.
    pub fn num_requests(&self) -> usize {
        self.sessions * self.requests_per_session()
    }

    /// Draws the request DAG of one session from `rng`.
    pub fn sample_dag(&self, rng: &mut DetRng) -> RequestDag {
        match self.kind {
            SessionKind::Chat {
                turns,
                think_mean_s,
            } => self.chat_dag(turns, think_mean_s, rng),
            SessionKind::Agentic {
                tools,
                tool_delay_s,
            } => self.agentic_dag(tools, tool_delay_s, rng),
        }
    }

    fn chat_dag(&self, turns: usize, think_mean_s: f64, rng: &mut DetRng) -> RequestDag {
        assert!(think_mean_s > 0.0, "chat think time must be positive");
        let (input_len, output_len) = self.dataset.sample_lengths(self.max_context, rng);
        let mut nodes = vec![DagNode {
            parent: None,
            offset_s: 0.0,
            input_len,
            output_len,
            shared_prefix_tokens: 0,
        }];
        let mut context = input_len + output_len;
        let mut offset = 0.0f64;
        for turn in 1..turns.max(1) {
            offset += rng.exponential(1.0 / think_mean_s);
            let (fresh_in, fresh_out) = self.dataset.sample_lengths(self.max_context, rng);
            // A follow-up message is much shorter than a root prompt; the bulk
            // of the turn's prompt is the replayed context.
            let followup = (fresh_in / 8).max(MIN_FOLLOWUP_TOKENS);
            let input_len = (context + followup).min(self.max_context).max(2);
            let shared = context.min(input_len - 1);
            nodes.push(DagNode {
                parent: Some(turn - 1),
                offset_s: offset,
                input_len,
                output_len: fresh_out,
                shared_prefix_tokens: shared,
            });
            context = input_len + fresh_out;
        }
        RequestDag { nodes }
    }

    fn agentic_dag(&self, tools: usize, tool_delay_s: f64, rng: &mut DetRng) -> RequestDag {
        assert!(tool_delay_s > 0.0, "agentic tool delay must be positive");
        let tools = tools.max(1);
        let (input_len, output_len) = self.dataset.sample_lengths(self.max_context, rng);
        let mut nodes = vec![DagNode {
            parent: None,
            offset_s: 0.0,
            input_len,
            output_len,
            shared_prefix_tokens: 0,
        }];
        let root_context = input_len + output_len;
        let mut fanout_end = 0.0f64;
        let mut tool_outputs = 0usize;
        for _ in 0..tools {
            let offset = rng.exponential(1.0 / tool_delay_s);
            let (fresh_in, fresh_out) = self.dataset.sample_lengths(self.max_context, rng);
            let tool_prompt = (fresh_in / 16).max(MIN_FOLLOWUP_TOKENS);
            let tool_output = (fresh_out / 4).max(MIN_FOLLOWUP_TOKENS);
            let input_len = (root_context + tool_prompt).min(self.max_context).max(2);
            nodes.push(DagNode {
                parent: Some(0),
                offset_s: offset,
                input_len,
                output_len: tool_output,
                shared_prefix_tokens: root_context.min(input_len - 1),
            });
            fanout_end = fanout_end.max(offset);
            tool_outputs += tool_output;
        }
        // Join point: folds every tool output back into the root context. Its
        // parent is the *last* tool call; the simulator's gating releases it
        // only after that parent completes.
        let join_offset = fanout_end + rng.exponential(1.0 / tool_delay_s);
        let (_, join_out) = self.dataset.sample_lengths(self.max_context, rng);
        let join_input = (root_context + tool_outputs + MIN_FOLLOWUP_TOKENS)
            .min(self.max_context)
            .max(2);
        nodes.push(DagNode {
            parent: Some(tools),
            offset_s: join_offset,
            input_len: join_input,
            output_len: join_out,
            shared_prefix_tokens: root_context.min(join_input - 1),
        });
        RequestDag { nodes }
    }

    /// Generates the stream of this spec alone, with local ids (positions)
    /// and sessions numbered from 1 in arrival order of their roots.
    pub fn stream(&self) -> Vec<Request> {
        assert!(
            self.sessions > 0,
            "stream must contain at least one session"
        );
        assert!(self.rps > 0.0, "session arrival rate must be positive");
        let mut rng = DetRng::new(self.seed);
        let mut arrivals = PoissonArrivals::new(self.rps);
        let mut requests = Vec::with_capacity(self.num_requests());
        for s in 0..self.sessions {
            let start = arrivals.next_arrival(&mut rng);
            let dag = self.sample_dag(&mut rng);
            let base = requests.len() as u64;
            for node in &dag.nodes {
                requests.push(Request {
                    id: requests.len() as u64,
                    tenant: self.tenant,
                    arrival: start + node.offset_s,
                    input_len: node.input_len,
                    output_len: node.output_len,
                    session: s as u64 + 1,
                    parent: node.parent.map(|p| base + p as u64),
                    shared_prefix_tokens: node.shared_prefix_tokens,
                });
            }
        }
        requests
    }
}

/// Deterministically merges per-stream request lists into one trace.
///
/// Streams are concatenated in the given order, stably sorted by arrival time
/// (ties keep stream order, like [`crate::tenant::MultiTenantTrace`]), ids are
/// renumbered to positions, parent links are remapped through the renumbering,
/// and non-zero session ids are offset per stream so sessions stay globally
/// unique. Streams of independent requests (session 0, no parents) pass
/// through untouched apart from the shared renumbering, which is how session
/// traffic merges into an existing tenant-tagged arrival stream.
pub fn merge_streams(streams: &[Vec<Request>]) -> Vec<Request> {
    for stream in streams {
        for (i, r) in stream.iter().enumerate() {
            assert_eq!(r.id, i as u64, "stream ids must be positions");
            if let Some(p) = r.parent {
                assert!(p < r.id, "stream parents must precede children");
            }
        }
    }
    let mut session_offset = Vec::with_capacity(streams.len());
    let mut acc = 0u64;
    for stream in streams {
        session_offset.push(acc);
        acc += stream.iter().map(|r| r.session).max().unwrap_or(0);
    }
    let mut tagged: Vec<(usize, Request)> = streams
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.iter().map(move |r| (i, *r)))
        .collect();
    tagged.sort_by(|a, b| a.1.arrival.total_cmp(&b.1.arrival));
    let mut remap: Vec<Vec<u64>> = streams.iter().map(|s| vec![0; s.len()]).collect();
    for (new_id, (stream, r)) in tagged.iter().enumerate() {
        remap[*stream][r.id as usize] = new_id as u64;
    }
    tagged
        .into_iter()
        .enumerate()
        .map(|(new_id, (stream, mut r))| {
            r.id = new_id as u64;
            r.parent = r.parent.map(|p| remap[stream][p as usize]);
            if r.session != 0 {
                r.session += session_offset[stream];
            }
            r
        })
        .collect()
}

/// A deterministic trace of several session streams (plus optional streams of
/// independent requests), merged by [`merge_streams`].
#[derive(Debug, Clone)]
pub struct SessionTrace {
    specs: Vec<SessionSpec>,
    /// Extra pre-generated streams (e.g. an independent background trace)
    /// merged after the session streams.
    background: Vec<Vec<Request>>,
}

impl SessionTrace {
    /// A trace of the given session streams.
    pub fn new(specs: Vec<SessionSpec>) -> Self {
        assert!(!specs.is_empty(), "session trace needs at least one spec");
        Self {
            specs,
            background: Vec::new(),
        }
    }

    /// Adds a pre-generated stream of independent requests (local ids must be
    /// positions; sessions 0) merged into the trace.
    pub fn with_background(mut self, stream: Vec<Request>) -> Self {
        self.background.push(stream);
        self
    }

    /// The session specs of this trace.
    pub fn specs(&self) -> &[SessionSpec] {
        &self.specs
    }

    /// Total number of requests the trace generates.
    pub fn num_requests(&self) -> usize {
        self.specs
            .iter()
            .map(SessionSpec::num_requests)
            .sum::<usize>()
            + self.background.iter().map(Vec::len).sum::<usize>()
    }

    /// Generates the merged trace.
    pub fn generate(&self) -> Vec<Request> {
        let mut streams: Vec<Vec<Request>> = self.specs.iter().map(SessionSpec::stream).collect();
        streams.extend(self.background.iter().cloned());
        merge_streams(&streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceConfig, TraceGenerator};

    fn chat_spec(seed: u64) -> SessionSpec {
        SessionSpec {
            tenant: TenantId(0),
            kind: SessionKind::Chat {
                turns: 4,
                think_mean_s: 20.0,
            },
            sessions: 12,
            rps: 0.05,
            dataset: Dataset::Cocktail,
            max_context: 131_072,
            seed,
        }
    }

    fn agentic_spec(seed: u64) -> SessionSpec {
        SessionSpec {
            tenant: TenantId(1),
            kind: SessionKind::Agentic {
                tools: 3,
                tool_delay_s: 5.0,
            },
            sessions: 8,
            rps: 0.04,
            dataset: Dataset::Arxiv,
            max_context: 131_072,
            seed,
        }
    }

    #[test]
    fn chat_dag_is_a_chain_with_growing_shared_prefix() {
        let spec = chat_spec(7);
        let mut rng = DetRng::new(9);
        let dag = spec.sample_dag(&mut rng);
        assert_eq!(dag.nodes.len(), 4);
        assert_eq!(dag.nodes[0].parent, None);
        assert_eq!(dag.nodes[0].shared_prefix_tokens, 0);
        let mut context = dag.nodes[0].input_len + dag.nodes[0].output_len;
        for (i, n) in dag.nodes.iter().enumerate().skip(1) {
            assert_eq!(n.parent, Some(i - 1));
            assert!(n.offset_s > dag.nodes[i - 1].offset_s);
            assert_eq!(n.shared_prefix_tokens, context.min(n.input_len - 1));
            assert!(n.shared_prefix_tokens < n.input_len);
            context = n.input_len + n.output_len;
        }
    }

    #[test]
    fn agentic_dag_fans_out_and_joins() {
        let spec = agentic_spec(11);
        let mut rng = DetRng::new(3);
        let dag = spec.sample_dag(&mut rng);
        assert_eq!(dag.nodes.len(), 1 + 3 + 1);
        for tool in &dag.nodes[1..4] {
            assert_eq!(tool.parent, Some(0));
            assert!(tool.shared_prefix_tokens > 0);
            assert!(tool.shared_prefix_tokens < tool.input_len);
        }
        let join = dag.nodes.last().unwrap();
        assert_eq!(join.parent, Some(3));
        assert!(
            join.offset_s
                >= dag.nodes[1..4]
                    .iter()
                    .map(|n| n.offset_s)
                    .fold(0.0, f64::max)
        );
    }

    #[test]
    fn merged_trace_has_valid_ids_parents_and_sessions() {
        let trace = SessionTrace::new(vec![chat_spec(1), agentic_spec(2)]).generate();
        assert_eq!(trace.len(), 12 * 4 + 8 * 5);
        let mut sessions_seen = std::collections::HashSet::new();
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.session >= 1);
            sessions_seen.insert(r.session);
            if let Some(p) = r.parent {
                assert!(p < r.id, "parent {p} must precede child {}", r.id);
                assert_eq!(trace[p as usize].session, r.session);
                assert!(trace[p as usize].arrival <= r.arrival);
                assert!(r.shared_prefix_tokens > 0);
                assert!(r.shared_prefix_tokens < r.input_len);
            }
        }
        assert_eq!(sessions_seen.len(), 12 + 8, "sessions stay globally unique");
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SessionTrace::new(vec![chat_spec(5), agentic_spec(6)]).generate();
        let b = SessionTrace::new(vec![chat_spec(5), agentic_spec(6)]).generate();
        assert_eq!(a, b);
        let c = SessionTrace::new(vec![chat_spec(50), agentic_spec(6)]).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn background_stream_merges_untouched_apart_from_renumbering() {
        let background = TraceGenerator::new(TraceConfig::cocktail_default()).generate();
        let trace = SessionTrace::new(vec![chat_spec(1)])
            .with_background(background.clone())
            .generate();
        assert_eq!(trace.len(), 12 * 4 + background.len());
        let merged_bg: Vec<_> = trace.iter().filter(|r| r.session == 0).collect();
        assert_eq!(merged_bg.len(), background.len());
        for (orig, merged) in background.iter().zip(&merged_bg) {
            assert_eq!(orig.arrival.to_bits(), merged.arrival.to_bits());
            assert_eq!(orig.input_len, merged.input_len);
            assert_eq!(orig.output_len, merged.output_len);
            assert_eq!(merged.parent, None);
        }
    }

    #[test]
    fn single_turn_sessions_are_independent_requests_with_session_tags() {
        let spec = SessionSpec {
            kind: SessionKind::Chat {
                turns: 1,
                think_mean_s: 10.0,
            },
            ..chat_spec(3)
        };
        for r in SessionTrace::new(vec![spec]).generate() {
            assert!(r.session >= 1);
            assert_eq!(r.parent, None);
            assert_eq!(r.shared_prefix_tokens, 0);
        }
    }
}
