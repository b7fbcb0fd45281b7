//! The serving event loop: N pipelines on one virtual clock.
//!
//! [`ClusterServer`] replays a request trace against a fleet of
//! [`ShardedEngine`] pipelines; the board ([`crate::Server`]) is a fleet
//! of one pipeline of one stage. A [`PlacementPolicy`] routes each
//! arrival to one pipeline, whose scheduling core enforces slots, KV
//! bytes and per-class FIFO through its own
//! [`AdmissionController`](crate::AdmissionController), plans each step
//! at launch and books it at completion. The loop advances to the
//! earliest event (a step completing, or the next arrival); at each
//! instant it books every step that ends then, in pipeline order, offers
//! every arrival due by then, and starts every idle pipeline. Every run
//! starts from fresh cores, and replay is deterministic to the bit.
//!
//! Each step occupies its pipeline for the cadence
//! ([`ClusterStepReport::cadence_ns`](super::ClusterStepReport::cadence_ns),
//! stages overlapped on successive micro-batches), and a sequence's
//! *first* token additionally pays the fill residual without holding the
//! machine. Fleet pipelines serve continuously without speculation; the
//! board's step planning also runs lockstep gangs and verify windows.

use crate::admission::AdmissionConfig;
use crate::cluster::engine::{ShardedEngine, Step};
use crate::cluster::interconnect::InterconnectConfig;
use crate::cluster::router::{PipelineLoad, PlacementPolicy};
use crate::request::{Request, RequestOutcome};
use crate::sched::{fold, Core, PREFILL_CHUNK, STARVATION_BOUND_S};
use crate::server::{BatchingMode, PagedConfig, ServeReport, ServerConfig};
use zllm_accel::{AccelConfig, DecodeEngine, ImageSpec, KvLayout, PrefillChunk};
use zllm_layout::addr_map::AllocError;
use zllm_model::ModelConfig;

/// Cluster configuration: fleet geometry plus per-pipeline serving
/// parameters. Pipelines queue as [`ServerConfig::continuous`] does, and
/// stages talk over [`InterconnectConfig::ethernet_10g`].
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
    /// Request placement policy.
    pub policy: PlacementPolicy,
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
            policy: PlacementPolicy::JoinShortestKv,
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

/// What a pipeline is currently busy doing: chunked prefill over these
/// chunks, or a decode step committing these tokens per active sequence
/// (0 for a page-starved one sitting the step out).
enum StepKind {
    Prefill(Vec<PrefillChunk>),
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

/// One pipeline during a run: its sharded engine, a fresh scheduling core
/// over it, and its step in flight.
struct Pipeline<'e> {
    engine: &'e mut ShardedEngine,
    core: Core,
    step: Option<StepInFlight>,
}

/// The KV budget a pipeline over `engine` prices admissions against.
fn budget_bytes(engine: &ShardedEngine, cfg: &ServerConfig) -> u64 {
    cfg.kv_budget_bytes
        .unwrap_or_else(|| engine.kv_budget_bytes())
}

impl<'e> Pipeline<'e> {
    /// A pipeline over `engine` with a fresh core serving with `cfg`.
    fn new(engine: &'e mut ShardedEngine, cfg: &ServerConfig) -> Pipeline<'e> {
        Pipeline {
            core: Core::new(
                AdmissionConfig {
                    slots: cfg.slots,
                    budget_bytes: budget_bytes(engine, cfg),
                    queue_cap: cfg.queue_cap,
                    starvation_bound_s: STARVATION_BOUND_S,
                },
                cfg.ctx_capacity,
                PREFILL_CHUNK,
                cfg.paged.as_ref().map(|p| (p, engine.kv_page_bytes())),
            ),
            engine,
            step: None,
        }
    }

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

    /// Books the step that ended at `now`; a decode step's first tokens
    /// land the fill residual later, and the sequences it finished retire.
    fn book(&mut self, now: f64, outcomes: &mut Vec<RequestOutcome>) {
        let step = self.step.take().expect("a step was in flight");
        match step.kind {
            StepKind::Prefill(chunks) => self.core.book_prefill(&chunks),
            StepKind::Decode(committed) => {
                let first_token_s = now + step.fill_residual_s;
                self.core
                    .book_decode(&committed, step.step_s, first_token_s);
                self.core.retire(now, outcomes);
            }
        }
    }

    /// Admits under the discipline's rules (a lockstep gang forms only on
    /// an idle machine), then launches the next step: prefill while any
    /// active sequence owes prompt tokens, else one decode step — the
    /// gang at its padded context, a ragged step, or one verify window
    /// per sequence. Leaves the pipeline idle when nothing is active.
    fn start(&mut self, now: f64, cfg: &ServerConfig) {
        let core = &mut self.core;
        match cfg.mode {
            BatchingMode::Continuous => core.admit(now),
            BatchingMode::Lockstep if core.active().is_empty() => core.admit_gang(now),
            BatchingMode::Lockstep => {}
        }
        if core.active().is_empty() {
            return;
        }
        let chunks = core.plan_prefill();
        let (report, kind) = if chunks.is_empty() {
            let mut committed = core.ready_for_decode(now);
            let engine = &mut *self.engine;
            let report = match (cfg.mode, &cfg.speculative) {
                (BatchingMode::Lockstep, _) => engine.run(Step::Gang {
                    ctx: core.gang_ctx(),
                    batch: core.active().len(),
                }),
                (BatchingMode::Continuous, None) => {
                    engine.decode_step(&core.decode_slots(&committed))
                }
                (BatchingMode::Continuous, Some(spec)) => {
                    core.verify(&mut committed, spec, |w| engine.run(Step::Verify(w)))
                }
            };
            (report, StepKind::Decode(committed))
        } else {
            (self.engine.prefill_step(&chunks), StepKind::Prefill(chunks))
        };
        let step_s = report.cadence_ns * 1e-9;
        self.step = Some(StepInFlight {
            kind,
            complete_s: now + step_s,
            step_s,
            fill_residual_s: report.fill_residual_ns() * 1e-9,
        });
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
    policy: PlacementPolicy,
    /// How every pipeline serves: continuously and without speculation in
    /// a fleet, the board's own configuration on the board.
    pub(crate) serving: ServerConfig,
    engines: Vec<ShardedEngine>,
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
        let serving = ServerConfig {
            paged: cfg.paged.clone(),
            ..ServerConfig::continuous(cfg.ctx_capacity, cfg.slots)
        };
        ClusterServer::build(accel, model, cfg.pipelines, cfg.depth, cfg.policy, serving)
    }

    /// Builds `pipelines` pipelines of `depth` stages over shard images of
    /// `serving`'s context, slots and paging, placing by `policy`, every
    /// pipeline serving with `serving` (see [`ClusterServer::new`] for
    /// errors and panics).
    pub(crate) fn build(
        accel: &AccelConfig,
        model: &ModelConfig,
        pipelines: usize,
        depth: usize,
        policy: PlacementPolicy,
        serving: ServerConfig,
    ) -> Result<ClusterServer, AllocError> {
        assert!(pipelines > 0, "at least one pipeline required");
        assert!(serving.slots > 0, "at least one slot required");
        let continuous = serving.mode == BatchingMode::Continuous;
        if let Some(s) = &serving.speculative {
            assert!(
                continuous,
                "speculative decoding requires continuous batching"
            );
            assert!(s.k > 0, "speculation needs at least one draft token");
            assert!(
                (0.0..=1.0).contains(&s.accept_rate),
                "accept rate is a probability"
            );
        }
        let mut image = ImageSpec {
            batch: serving.slots,
            ..ImageSpec::new(serving.ctx_capacity)
        };
        if let Some(p) = &serving.paged {
            assert!(continuous, "paged serving requires continuous batching");
            assert!(
                p.watermark > 0.0 && p.watermark <= 1.0,
                "watermark must be in (0, 1]"
            );
            image.kv = KvLayout::Paged {
                page_tokens: p.page_tokens,
            };
        }
        let link = InterconnectConfig::ethernet_10g();
        let engines = (0..pipelines)
            .map(|_| ShardedEngine::new(accel, model, image.clone(), depth, link))
            .collect::<Result<_, _>>()?;
        Ok(ClusterServer {
            policy,
            serving,
            engines,
        })
    }

    /// The sharded engine behind pipeline `pipe` (telemetry access:
    /// `cluster.bytes.*` live in its registry).
    pub fn engine(&self, pipe: usize) -> &ShardedEngine {
        &self.engines[pipe]
    }

    /// The board's engine: the only stage of the only pipeline.
    pub(crate) fn board_mut(&mut self) -> &mut DecodeEngine {
        self.engines[0].stage_mut(0)
    }

    /// The KV budget the first pipeline's admission prices against.
    pub(crate) fn kv_budget_bytes(&self) -> u64 {
        budget_bytes(&self.engines[0], &self.serving)
    }

    /// Replays a trace (sorted by arrival time) to completion.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[Request]) -> ClusterReport {
        let (r, _) = self.serve(trace);
        let link = |bytes: fn(&ShardedEngine) -> u64| self.engines.iter().map(bytes).sum::<u64>();
        let (pipelines, depth) = (self.engines.len(), self.engines[0].stages().len());
        ClusterReport {
            pipelines,
            depth,
            boards: pipelines * depth,
            policy: self.policy.name(),
            outcomes: r.outcomes,
            sim_seconds: r.sim_seconds,
            offered: r.offered,
            admitted: r.admitted,
            completed: r.completed,
            rejected_queue_full: r.rejected_queue_full,
            rejected_infeasible: r.rejected_infeasible,
            deadline_met: r.deadline_met,
            generated_tokens: r.generated_tokens,
            prompt_tokens: r.prompt_tokens,
            decode_steps: r.decode_steps,
            prefill_steps: r.prefill_steps,
            tokens_per_s: r.tokens_per_s,
            goodput_tokens_per_s: r.goodput_tokens_per_s,
            ttft_p50_ms: r.ttft_p50_ms,
            ttft_p95_ms: r.ttft_p95_ms,
            ttft_p99_ms: r.ttft_p99_ms,
            token_p50_ms: r.token_p50_ms,
            token_p95_ms: r.token_p95_ms,
            kv_peak_bytes: r.kv_peak_bytes,
            kv_budget_bytes: r.kv_budget_bytes,
            queue_peak: r.queue_peak,
            activation_bytes: link(ShardedEngine::activation_bytes),
            token_id_bytes: link(ShardedEngine::token_id_bytes),
            concurrent_peak: r.concurrent_peak,
            preempted: r.preempted,
        }
    }

    /// The one event loop (see the module docs) over fresh cores, folded
    /// into the board report the fleet report is filled from. Also hands
    /// back each pipeline's finished core, in pipeline order.
    pub(crate) fn serve(&mut self, trace: &[Request]) -> (ServeReport, Vec<Core>) {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "trace must be sorted by arrival time"
        );
        let serving = &self.serving;
        let mut pipes: Vec<Pipeline> = self
            .engines
            .iter_mut()
            .map(|engine| Pipeline::new(engine, serving))
            .collect();
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(trace.len());
        let (mut next, mut now) = (0usize, 0.0f64);
        loop {
            let ends = pipes
                .iter()
                .filter_map(|p| Some(p.step.as_ref()?.complete_s));
            let arrival = trace.get(next).map(|r| r.arrival_s);
            let Some(t) = ends.chain(arrival).min_by(f64::total_cmp) else {
                break;
            };
            now = now.max(t);
            for p in &mut pipes {
                if p.step.as_ref().is_some_and(|s| s.complete_s == now) {
                    p.book(now, &mut outcomes);
                }
            }
            // Placement sees the slots and bytes the steps ending now freed.
            while let Some(r) = trace.get(next).filter(|r| r.arrival_s <= now) {
                let loads: Vec<PipelineLoad> = pipes.iter().map(Pipeline::load).collect();
                let p = &mut pipes[self.policy.place(&loads, r)];
                let bytes = p.engine.kv_request_bytes(r.total_tokens());
                p.core.offer(r.clone(), bytes, &mut outcomes);
                next += 1;
            }
            for p in &mut pipes {
                if p.step.is_none() {
                    p.start(now, serving);
                }
            }
        }
        let cores: Vec<Core> = pipes.into_iter().map(|p| p.core).collect();
        (fold(serving.mode, cores.iter(), outcomes, now), cores)
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
        let (report, cores) = cluster(2, 2).serve(&t);
        assert!(report.kv_peak_bytes <= report.kv_budget_bytes);
        assert_eq!(
            report.completed + report.rejected_queue_full + report.rejected_infeasible,
            20
        );
        assert_eq!(cores.len(), 2);
        for core in &cores {
            let (peak, _) = core.admission().peaks();
            assert!(peak <= core.admission().budget_bytes());
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
