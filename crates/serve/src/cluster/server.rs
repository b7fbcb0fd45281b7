//! The cluster serving simulator: N pipelines on one virtual clock.
//!
//! [`ClusterServer`] replays a request trace against a fleet of
//! [`ShardedEngine`] pipelines. A [`PlacementPolicy`] routes each
//! arrival to one pipeline. That pipeline's scheduling core, the same
//! one the single-board [`crate::Server`] drives, then enforces slots,
//! KV bytes and per-class FIFO through its own
//! [`AdmissionController`](crate::AdmissionController), plans each step
//! at launch and books it at completion. The pipelines share one
//! discrete-event clock: the simulator always advances to the earliest
//! pending event (a step completing on some pipeline, or the next
//! arrival), so pipelines interleave deterministically — completions
//! before arrivals on ties, lower pipeline index first.
//!
//! Step timing uses the pipeline cadence (stages overlapped on
//! successive micro-batches): each step occupies its pipeline for
//! [`ClusterStepReport::cadence_ns`](super::ClusterStepReport::cadence_ns), and a sequence's *first* token
//! additionally pays the fill residual — the cost of filling the
//! pipeline behind it — without holding the machine.

use crate::admission::AdmissionConfig;
use crate::cluster::engine::ShardedEngine;
use crate::cluster::interconnect::InterconnectConfig;
use crate::cluster::router::{PipelineLoad, PlacementPolicy};
use crate::request::{Request, RequestOutcome};
use crate::sched::{Core, OutcomeFold, PREFILL_CHUNK, STARVATION_BOUND_S};
use crate::server::PagedConfig;
use zllm_accel::{AccelConfig, ImageSpec, KvLayout, PrefillChunk};
use zllm_layout::addr_map::AllocError;
use zllm_model::ModelConfig;

/// Cluster configuration: fleet geometry plus per-pipeline serving
/// parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Replica pipelines the router spreads requests over.
    pub pipelines: usize,
    /// Boards per pipeline (pipeline-parallel stages).
    pub depth: usize,
    /// Per-sequence context capacity each stage image is built for.
    pub ctx_capacity: usize,
    /// Concurrent KV slots per pipeline.
    pub slots: usize,
    /// Admission wait-queue capacity per pipeline.
    pub queue_cap: usize,
    /// Request placement policy.
    pub policy: PlacementPolicy,
    /// The board-to-board link between pipeline stages.
    pub interconnect: InterconnectConfig,
    /// When set, every stage's KV space is paged and each pipeline's
    /// admission charges actual growth at its bottleneck stage instead
    /// of the worst case (see [`PagedConfig`]).
    pub paged: Option<PagedConfig>,
}

impl ClusterConfig {
    /// Defaults matching [`crate::ServerConfig::continuous`] for the
    /// given fleet geometry: join-shortest-KV placement over 10 GbE.
    pub fn new(pipelines: usize, depth: usize, ctx_capacity: usize, slots: usize) -> ClusterConfig {
        ClusterConfig {
            pipelines,
            depth,
            ctx_capacity,
            slots,
            queue_cap: 64,
            policy: PlacementPolicy::JoinShortestKv,
            interconnect: InterconnectConfig::ethernet_10g(),
            paged: None,
        }
    }

    /// Enables paged-KV serving with actual-growth admission on every
    /// pipeline.
    pub fn paged(mut self, paged: PagedConfig) -> ClusterConfig {
        self.paged = Some(paged);
        self
    }

    /// Total simulated boards in the fleet.
    pub fn boards(&self) -> usize {
        self.pipelines * self.depth
    }
}

/// What a pipeline is currently busy doing.
enum StepKind {
    /// Chunked prefill over these chunks.
    Prefill(Vec<PrefillChunk>),
    /// One ragged decode step: the tokens each active sequence commits
    /// (0 for a page-starved one sitting the step out).
    Decode(Vec<usize>),
}

/// A step in flight on one pipeline.
struct StepInFlight {
    kind: StepKind,
    /// When the step completes (virtual seconds).
    complete_s: f64,
    /// The cadence this step occupied the pipeline for, seconds.
    step_s: f64,
    /// Fill latency beyond the cadence, charged to first tokens.
    fill_residual_s: f64,
}

/// One pipeline: a sharded engine, the scheduling core over it, and its
/// step in flight.
struct Pipeline {
    engine: ShardedEngine,
    core: Core,
    step: Option<StepInFlight>,
}

impl Pipeline {
    fn load(&self) -> PipelineLoad {
        let c = &self.core;
        PipelineLoad {
            reserved_bytes: c.admission().reserved_bytes(),
            pending_bytes: c.pending_bytes,
            budget_bytes: c.admission().budget_bytes(),
            queue_depth: c.admission().queued(),
            active: c.active().len(),
        }
    }
}

/// The aggregate result of replaying one trace against the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Replica pipelines.
    pub pipelines: usize,
    /// Boards per pipeline.
    pub depth: usize,
    /// Total boards (`pipelines × depth`).
    pub boards: usize,
    /// Placement policy name.
    pub policy: &'static str,
    /// Per-request audit records, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Virtual seconds from first arrival to last completion.
    pub sim_seconds: f64,
    /// Requests offered to the cluster.
    pub offered: u64,
    /// Requests granted a slot on some pipeline.
    pub admitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Rejections because a wait queue was full.
    pub rejected_queue_full: u64,
    /// Rejections because the request could never fit.
    pub rejected_infeasible: u64,
    /// Completed requests that met their class deadlines.
    pub deadline_met: u64,
    /// New tokens generated across the fleet.
    pub generated_tokens: u64,
    /// Prompt tokens prefilled across the fleet.
    pub prompt_tokens: u64,
    /// Ragged decode steps priced across all pipelines.
    pub decode_steps: u64,
    /// Chunked prefill steps priced across all pipelines.
    pub prefill_steps: u64,
    /// Aggregate decode throughput, tokens per virtual second.
    pub tokens_per_s: f64,
    /// Goodput: tokens of deadline-meeting requests per second.
    pub goodput_tokens_per_s: f64,
    /// Median time to first token, ms.
    pub ttft_p50_ms: f64,
    /// 95th-percentile TTFT, ms.
    pub ttft_p95_ms: f64,
    /// 99th-percentile TTFT, ms.
    pub ttft_p99_ms: f64,
    /// Median of per-request mean decode-token latency, ms.
    pub token_p50_ms: f64,
    /// 95th percentile of per-request mean token latency, ms.
    pub token_p95_ms: f64,
    /// Sum over pipelines of peak KV bytes reserved.
    pub kv_peak_bytes: u64,
    /// Sum over pipelines of the KV budgets admissions price against.
    pub kv_budget_bytes: u64,
    /// Largest admission-queue depth seen on any pipeline.
    pub queue_peak: usize,
    /// Hidden-state bytes moved over the interconnect.
    pub activation_bytes: u64,
    /// Token-id return bytes moved over the interconnect.
    pub token_id_bytes: u64,
    /// Sum over pipelines of peak concurrently admitted sequences —
    /// the fleet's users-per-board headline.
    pub concurrent_peak: usize,
    /// Sequences preempted (evicted and requeued for recompute) by the
    /// paged reclaim policy across the fleet. Always zero under
    /// worst-case reservation.
    pub preempted: u64,
}

/// The fleet simulator.
pub struct ClusterServer {
    cfg: ClusterConfig,
    pipes: Vec<Pipeline>,
}

impl ClusterServer {
    /// Builds `pipelines × depth` shard images and wraps them in a
    /// cluster.
    ///
    /// # Errors
    ///
    /// Returns the allocation error when any stage's shard does not fit
    /// its board's DDR map.
    ///
    /// # Panics
    ///
    /// Panics on a zero-pipeline or zero-slot geometry, or a depth outside
    /// `1..=n_layers`.
    pub fn new(
        accel: &AccelConfig,
        model: &ModelConfig,
        cfg: ClusterConfig,
    ) -> Result<ClusterServer, AllocError> {
        assert!(cfg.pipelines > 0, "at least one pipeline required");
        let mut image = ImageSpec {
            batch: cfg.slots,
            ..ImageSpec::new(cfg.ctx_capacity)
        };
        if let Some(p) = &cfg.paged {
            assert!(
                p.watermark > 0.0 && p.watermark <= 1.0,
                "watermark must be in (0, 1]"
            );
            image.kv = KvLayout::Paged {
                page_tokens: p.page_tokens,
            };
        }
        let mut pipes = Vec::with_capacity(cfg.pipelines);
        for _ in 0..cfg.pipelines {
            let engine =
                ShardedEngine::new(accel, model, image.clone(), cfg.depth, cfg.interconnect)?;
            let core = Core::new(
                AdmissionConfig {
                    slots: cfg.slots,
                    budget_bytes: engine.kv_budget_bytes(),
                    queue_cap: cfg.queue_cap,
                    starvation_bound_s: STARVATION_BOUND_S,
                },
                cfg.ctx_capacity,
                PREFILL_CHUNK,
                cfg.paged.as_ref().map(|p| (p, engine.kv_page_bytes())),
            );
            pipes.push(Pipeline {
                engine,
                core,
                step: None,
            });
        }
        Ok(ClusterServer { cfg, pipes })
    }

    /// The sharded engine behind pipeline `pipe` (telemetry access:
    /// `cluster.bytes.*` live in its registry).
    pub fn engine(&self, pipe: usize) -> &ShardedEngine {
        &self.pipes[pipe].engine
    }

    /// Replays a trace (sorted by arrival time) to completion.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[Request]) -> ClusterReport {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "trace must be sorted by arrival time"
        );
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(trace.len());
        let mut next = 0usize;
        let mut now = 0.0f64;
        loop {
            let arrival = trace.get(next).map(|r| r.arrival_s);
            let completion = self
                .pipes
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.step.as_ref().map(|s| (s.complete_s, i)))
                .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
            match (completion, arrival) {
                (None, None) => break,
                // Completions win ties so a freed slot is visible to the
                // simultaneous arrival's placement decision.
                (Some((t, pipe)), arrival) if arrival.is_none_or(|a| t <= a) => {
                    now = t;
                    self.complete_step(pipe, now, &mut outcomes);
                }
                (_, Some(a)) => {
                    now = now.max(a);
                    while next < trace.len() && trace[next].arrival_s <= now {
                        let r = trace[next].clone();
                        next += 1;
                        self.ingest(r, &mut outcomes);
                    }
                    for pipe in 0..self.pipes.len() {
                        if self.pipes[pipe].step.is_none() {
                            self.start_step(pipe, now);
                        }
                    }
                }
                (Some(_), None) => unreachable!("the guard accepts every completion-only case"),
            }
        }
        outcomes.sort_by_key(|o| o.request.id);
        self.summarize(outcomes, now)
    }

    /// Routes one arrival to a pipeline and offers it to that pipeline's
    /// scheduling core.
    fn ingest(&mut self, r: Request, outcomes: &mut Vec<RequestOutcome>) {
        let loads: Vec<PipelineLoad> = self.pipes.iter().map(Pipeline::load).collect();
        let p = &mut self.pipes[self.cfg.policy.place(&loads, &r)];
        let bytes = p.engine.kv_request_bytes(r.total_tokens());
        p.core.offer(r, bytes, outcomes);
    }

    /// Books pipeline `pipe`'s finished step, retires completed
    /// sequences, and starts its next step.
    fn complete_step(&mut self, pipe: usize, now: f64, outcomes: &mut Vec<RequestOutcome>) {
        let p = &mut self.pipes[pipe];
        let step = p.step.take().expect("a step was in flight");
        match step.kind {
            StepKind::Prefill(chunks) => p.core.book_prefill(&chunks),
            StepKind::Decode(committed) => {
                let first_token_s = now + step.fill_residual_s;
                p.core.book_decode(&committed, step.step_s, first_token_s);
                p.core.retire(now, outcomes);
            }
        }
        self.start_step(pipe, now);
    }

    /// Admits what fits, then launches the next step on pipeline `pipe`
    /// (prefill while any active sequence still owes prompt tokens, else
    /// one ragged decode step). Leaves the pipeline idle when nothing is
    /// active.
    fn start_step(&mut self, pipe: usize, now: f64) {
        let p = &mut self.pipes[pipe];
        p.core.admit(now);
        if p.core.active().is_empty() {
            return;
        }
        let chunks = p.core.plan_prefill();
        let (report, kind) = if chunks.is_empty() {
            let committed = p.core.ready_for_decode(now);
            let report = p.engine.decode_step(&p.core.decode_slots(&committed));
            (report, StepKind::Decode(committed))
        } else {
            (p.engine.prefill_step(&chunks), StepKind::Prefill(chunks))
        };
        let step_s = report.cadence_ns * 1e-9;
        p.step = Some(StepInFlight {
            kind,
            complete_s: now + step_s,
            step_s,
            fill_residual_s: report.fill_residual_ns() * 1e-9,
        });
    }

    /// Folds outcomes and fleet state into the aggregate report.
    fn summarize(&self, outcomes: Vec<RequestOutcome>, sim_seconds: f64) -> ClusterReport {
        let total = |f: fn(&Pipeline) -> u64| self.pipes.iter().map(f).sum::<u64>();
        let (offered, admitted, rejected_queue_full, rejected_infeasible) = self
            .pipes
            .iter()
            .map(|p| p.core.admission().counts())
            .fold((0, 0, 0, 0), |t, c| {
                (t.0 + c.0, t.1 + c.1, t.2 + c.2, t.3 + c.3)
            });
        let generated_tokens = total(|p| p.core.generated_tokens);
        let fold = OutcomeFold::new(&outcomes, generated_tokens, sim_seconds);
        let admissions = || self.pipes.iter().map(|p| p.core.admission());
        ClusterReport {
            pipelines: self.cfg.pipelines,
            depth: self.cfg.depth,
            boards: self.cfg.boards(),
            policy: self.cfg.policy.name(),
            sim_seconds,
            offered,
            admitted,
            completed: fold.completed,
            rejected_queue_full,
            rejected_infeasible,
            deadline_met: fold.deadline_met,
            generated_tokens,
            prompt_tokens: total(|p| p.core.prompt_tokens),
            decode_steps: total(|p| p.core.decode_steps),
            prefill_steps: total(|p| p.core.prefill_steps),
            tokens_per_s: fold.tokens_per_s,
            goodput_tokens_per_s: fold.goodput_tokens_per_s,
            ttft_p50_ms: fold.ttft_ms[0],
            ttft_p95_ms: fold.ttft_ms[1],
            ttft_p99_ms: fold.ttft_ms[2],
            token_p50_ms: fold.token_ms[0],
            token_p95_ms: fold.token_ms[1],
            kv_peak_bytes: total(|p| p.core.admission().peaks().0),
            kv_budget_bytes: total(|p| p.core.admission().budget_bytes()),
            queue_peak: admissions().map(|a| a.peaks().1).max().unwrap_or(0),
            activation_bytes: total(|p| p.engine.activation_bytes()),
            token_id_bytes: total(|p| p.engine.token_id_bytes()),
            concurrent_peak: admissions().map(|a| a.peak_concurrent()).sum(),
            preempted: total(|p| p.core.preempted),
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, ArrivalModel, TrafficConfig};
    use zllm_model::ModelConfig;

    fn trace(requests: usize, rate: f64) -> Vec<Request> {
        generate(&TrafficConfig {
            requests,
            seed: 11,
            arrivals: ArrivalModel::Poisson { rate_per_s: rate },
            prompt_tokens: (8, 48),
            new_tokens: (4, 16),
            class_mix: [0.5, 0.3, 0.2],
            eos_early_fraction: 0.0,
        })
    }

    fn cluster(pipelines: usize, depth: usize) -> ClusterServer {
        ClusterServer::new(
            &AccelConfig::kv260(),
            &ModelConfig::tiny_llama_1_1b(),
            ClusterConfig::new(pipelines, depth, 128, 4),
        )
        .expect("shards fit")
    }

    #[test]
    fn replay_is_deterministic_and_complete() {
        let t = trace(12, 0.5);
        let a = cluster(2, 2).run(&t);
        let b = cluster(2, 2).run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.outcomes.len(), 12);
        assert_eq!(a.completed, 12);
        assert_eq!(a.boards, 4);
        for o in &a.outcomes {
            assert_eq!(o.generated, o.request.max_new_tokens);
            assert!(o.ttft_s().expect("served") > 0.0);
        }
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>()
        );
    }

    #[test]
    fn depth_two_itemizes_interconnect_traffic() {
        let t = trace(8, 1.0);
        let shallow = cluster(1, 1).run(&t);
        let deep = cluster(1, 2).run(&t);
        assert_eq!(shallow.activation_bytes, 0);
        assert_eq!(shallow.token_id_bytes, 0);
        assert!(deep.activation_bytes > 0, "hops must be priced");
        assert!(deep.token_id_bytes > 0);
        // The engine registry itemizes the same bytes.
        let srv = {
            let mut c = cluster(1, 2);
            c.run(&t);
            c
        };
        let snap = srv.engine(0).metrics_snapshot();
        assert_eq!(
            snap.counter("cluster.bytes.activation"),
            Some(deep.activation_bytes)
        );
        assert_eq!(
            snap.counter("cluster.bytes.token_ids"),
            Some(deep.token_id_bytes)
        );
    }

    #[test]
    fn deeper_pipelines_decode_faster_per_step() {
        // Same trace, same single pipeline, more boards: the per-step
        // cadence shrinks with the per-stage layer count, so the run
        // finishes sooner even after paying the hops.
        let t = trace(12, 5.0);
        let one = cluster(1, 1).run(&t);
        let four = cluster(1, 4).run(&t);
        assert_eq!(one.completed, 12);
        assert_eq!(four.completed, 12);
        assert!(
            four.sim_seconds < one.sim_seconds,
            "4-deep {:.3}s must beat 1-board {:.3}s",
            four.sim_seconds,
            one.sim_seconds
        );
        assert!(four.tokens_per_s > one.tokens_per_s);
    }

    #[test]
    fn more_pipelines_absorb_more_load() {
        // Saturating burst: one pipeline queues and serves serially; two
        // pipelines split the stream and finish sooner.
        let t = trace(24, 50.0);
        let one = cluster(1, 1).run(&t);
        let two = cluster(2, 1).run(&t);
        assert_eq!(two.offered, 24);
        assert!(two.completed >= one.completed);
        assert!(
            two.sim_seconds < one.sim_seconds,
            "two pipelines {:.3}s vs one {:.3}s",
            two.sim_seconds,
            one.sim_seconds
        );
        assert!(two.ttft_p95_ms < one.ttft_p95_ms);
    }

    #[test]
    fn kv_accounting_holds_per_pipeline() {
        let t = trace(20, 10.0);
        let mut c = cluster(2, 2);
        let report = c.run(&t);
        assert!(report.kv_peak_bytes <= report.kv_budget_bytes);
        assert_eq!(
            report.completed + report.rejected_queue_full + report.rejected_infeasible,
            20
        );
        for pipe in 0..2 {
            let (peak, _) = c.pipes[pipe].core.admission().peaks();
            assert!(peak <= c.pipes[pipe].core.admission().budget_bytes());
        }
    }

    #[test]
    fn paged_cluster_replay_is_deterministic_and_complete() {
        let t = generate(&TrafficConfig {
            requests: 16,
            seed: 7,
            arrivals: ArrivalModel::Poisson { rate_per_s: 20.0 },
            prompt_tokens: (8, 16),
            new_tokens: (48, 96),
            class_mix: [0.5, 0.3, 0.2],
            eos_early_fraction: 0.0,
        });
        let cfg = ClusterConfig::new(2, 2, 128, 4).paged(PagedConfig::default());
        let mut a = ClusterServer::new(
            &AccelConfig::kv260(),
            &ModelConfig::tiny_llama_1_1b(),
            cfg.clone(),
        )
        .expect("shards fit");
        let mut b = ClusterServer::new(&AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
            .expect("shards fit");
        let ra = a.run(&t);
        let rb = b.run(&t);
        assert_eq!(ra, rb, "bit-identical replay");
        assert_eq!(
            ra.completed + ra.rejected_queue_full + ra.rejected_infeasible,
            16
        );
        assert!(ra.kv_peak_bytes <= ra.kv_budget_bytes);
        assert!(ra.concurrent_peak >= 1);
        // Every served request ran to completion even if it was
        // preempted and recomputed along the way.
        for o in ra.outcomes.iter().filter(|o| o.dropped.is_none()) {
            assert_eq!(o.generated, o.request.max_new_tokens);
        }
    }

    #[test]
    fn policies_agree_on_totals_under_light_load() {
        let t = trace(10, 0.2);
        let mut cfg = ClusterConfig::new(2, 2, 128, 4);
        cfg.policy = PlacementPolicy::DeadlineAware;
        let mut aware =
            ClusterServer::new(&AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
                .expect("shards fit");
        let a = aware.run(&t);
        let b = cluster(2, 2).run(&t);
        assert_eq!(a.completed, 10);
        assert_eq!(b.completed, 10);
        assert_eq!(a.policy, "deadline-aware");
        assert_eq!(b.policy, "join-shortest-kv");
    }
}
