//! The virtual-time serving simulator of one board.
//!
//! [`Server`] replays a request trace against a [`DecodeEngine`],
//! advancing a virtual clock by each priced step's wall time. Two
//! batching disciplines are modeled:
//!
//! * **Continuous** — sequences join and leave between steps; every
//!   decode step is a *ragged* batch where each sequence is priced at
//!   its own context length, and prompts are prefilled in shared chunks
//!   that fan one weight stream across all prompt tokens.
//! * **Lockstep** — the classic gang-scheduling baseline: a batch is
//!   formed only when the machine is idle, every member is padded to
//!   the longest prompt, nobody joins mid-gang, and slots drain idle as
//!   short members finish.
//!
//! The board is a one-pipeline, one-stage fleet: [`Server`] runs the
//! fleet's one event loop ([`crate::ClusterServer`]) and scheduling core,
//! whose step planning also forms gangs and sizes speculative verify
//! windows, so the comparison isolates the scheduling discipline. All
//! latencies are virtual seconds derived from the DDR/VPU pricing model —
//! the same trace on the same configuration reproduces bit-identical
//! reports.

use crate::cluster::{ClusterServer, PlacementPolicy};
use crate::request::{Request, RequestOutcome};
use zllm_accel::{AccelConfig, DecodeEngine};
use zllm_layout::addr_map::AllocError;
use zllm_model::ModelConfig;

/// The batching discipline the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchingMode {
    /// Continuous batching: ragged per-sequence contexts, join/leave
    /// between steps, chunked shared prefill.
    Continuous,
    /// Gang scheduling: batches form only on an idle machine, members
    /// pad to the longest prompt, and no one joins mid-gang.
    Lockstep,
}

impl BatchingMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BatchingMode::Continuous => "continuous",
            BatchingMode::Lockstep => "lockstep",
        }
    }
}

/// Paged-KV serving configuration: the image is built with fixed-size
/// KV pages and admission charges **actual growth** (the prompt's pages
/// at admit time, one page at a time as the sequence decodes) instead
/// of the worst-case footprint. Reclaim keeps optimistic admission
/// safe: finished sequences return their pages immediately, and a
/// high-class request that would otherwise starve preempts the
/// newest-admitted lower-class sequence (preempt-and-recompute).
#[derive(Debug, Clone)]
pub struct PagedConfig {
    /// Tokens per KV page — a positive multiple of the pack quantum
    /// ([`zllm_layout::kv_page::PAGE_TOKEN_QUANTUM`]) that divides the
    /// context capacity.
    pub page_tokens: usize,
    /// Fraction of the page pool **new admissions** may fill; the rest
    /// is headroom reserved for in-flight growth (growth itself may use
    /// the full pool). In `(0, 1]`.
    ///
    /// The default of 0.5 paces admission against future growth: a
    /// sequence admits holding only its prompt pages and then roughly
    /// doubles its footprint over its decode life, so filling half the
    /// pool with (mostly young) residents leaves about the headroom
    /// their remaining growth needs. Higher watermarks admit more
    /// eagerly but collide in-flight growth with the pool limit, and
    /// every collision is a preempt-and-recompute that throws away a
    /// sequence's progress — at 0.9 the thrash costs more goodput than
    /// the extra admissions earn.
    pub watermark: f64,
}

impl Default for PagedConfig {
    fn default() -> PagedConfig {
        PagedConfig {
            page_tokens: 16,
            watermark: 0.5,
        }
    }
}

/// Speculative-decoding configuration for the continuous decode loop.
///
/// Each decode step becomes a *verify window*: `k` draft tokens are
/// proposed per sequence and the target model verifies all `k + 1`
/// positions in one weight stream, committing between 1 and `k + 1`
/// tokens. The serving layer does not simulate the draft model token by
/// token — acceptance is drawn i.i.d. per drafted token at
/// `accept_rate` from a generator with a fixed seed, and the draft is
/// free (`DraftCost::FlatNs` at 0 ns, the upper bound on speculation's
/// uplift; see [`zllm_accel::DraftCost`]). Under the paged allocator the
/// window's up-to-`k`-token KV overhang is charged to admission before
/// the step and the rejected tokens' pages are uncharged after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// Draft tokens proposed per verify window (`K`).
    pub k: usize,
    /// Per-token probability a drafted token survives verification.
    pub accept_rate: f64,
}

impl SpeculationConfig {
    /// A window of `k` draft tokens at the given accept rate.
    pub fn new(k: usize, accept_rate: f64) -> SpeculationConfig {
        SpeculationConfig { k, accept_rate }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-sequence context capacity the image is built for.
    pub ctx_capacity: usize,
    /// Concurrent KV slots the image provisions.
    pub slots: usize,
    /// Batching discipline.
    pub mode: BatchingMode,
    /// Admission wait-queue capacity.
    pub queue_cap: usize,
    /// Overrides the KV byte budget (defaults to the image's own
    /// [`kv_budget_bytes`](zllm_accel::ModelImage::kv_budget_bytes);
    /// tighten it to study admission behaviour under capacity pressure).
    pub kv_budget_bytes: Option<u64>,
    /// When set, the KV cache is paged and admission charges actual
    /// growth instead of the worst case. Continuous batching only.
    pub paged: Option<PagedConfig>,
    /// When set, continuous decode steps are speculative verify windows
    /// instead of single-token steps. Continuous batching only.
    pub speculative: Option<SpeculationConfig>,
}

impl ServerConfig {
    /// A continuous-batching configuration with sensible defaults for
    /// the given geometry.
    pub fn continuous(ctx_capacity: usize, slots: usize) -> ServerConfig {
        ServerConfig {
            ctx_capacity,
            slots,
            mode: BatchingMode::Continuous,
            queue_cap: 64,
            kv_budget_bytes: None,
            paged: None,
            speculative: None,
        }
    }

    /// The same defaults under the lockstep baseline discipline.
    pub fn lockstep(ctx_capacity: usize, slots: usize) -> ServerConfig {
        ServerConfig {
            mode: BatchingMode::Lockstep,
            ..ServerConfig::continuous(ctx_capacity, slots)
        }
    }

    /// Enables paged-KV serving with actual-growth admission.
    pub fn paged(mut self, paged: PagedConfig) -> ServerConfig {
        self.paged = Some(paged);
        self
    }

    /// Enables speculative decoding on the continuous decode loop.
    pub fn speculative(mut self, spec: SpeculationConfig) -> ServerConfig {
        self.speculative = Some(spec);
        self
    }
}

/// The aggregate result of replaying one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Discipline that produced this report.
    pub mode: BatchingMode,
    /// Per-request audit records, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Virtual seconds from first arrival to last completion.
    pub sim_seconds: f64,
    /// Requests offered to admission.
    pub offered: u64,
    /// Requests granted a slot.
    pub admitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Rejections because the wait queue was full.
    pub rejected_queue_full: u64,
    /// Rejections because the request could never fit.
    pub rejected_infeasible: u64,
    /// Completed requests that met their class deadlines.
    pub deadline_met: u64,
    /// New tokens generated across all requests.
    pub generated_tokens: u64,
    /// Prompt tokens prefilled across all requests.
    pub prompt_tokens: u64,
    /// Ragged / gang decode steps priced.
    pub decode_steps: u64,
    /// Chunked prefill steps priced.
    pub prefill_steps: u64,
    /// Aggregate decode throughput: generated tokens over sim seconds.
    pub tokens_per_s: f64,
    /// Goodput: tokens of deadline-meeting requests over sim seconds.
    pub goodput_tokens_per_s: f64,
    /// Time-to-first-token percentiles over completed requests, ms.
    pub ttft_p50_ms: f64,
    /// 95th-percentile TTFT, ms.
    pub ttft_p95_ms: f64,
    /// 99th-percentile TTFT, ms.
    pub ttft_p99_ms: f64,
    /// Median of per-request mean decode-token latency, ms.
    pub token_p50_ms: f64,
    /// 95th percentile of per-request mean token latency, ms.
    pub token_p95_ms: f64,
    /// 99th percentile of per-request mean token latency, ms.
    pub token_p99_ms: f64,
    /// Peak KV bytes reserved at any instant.
    pub kv_peak_bytes: u64,
    /// The KV budget admissions were priced against.
    pub kv_budget_bytes: u64,
    /// Peak admission-queue depth.
    pub queue_peak: usize,
    /// Peak concurrently admitted sequences — the users-per-board
    /// headline paged admission lifts.
    pub concurrent_peak: usize,
    /// Sequences preempted (evicted and requeued for recompute) by the
    /// paged reclaim policy. Always zero under worst-case reservation.
    pub preempted: u64,
    /// Draft tokens proposed across all verify windows. Always zero
    /// when speculation is off.
    pub spec_drafted: u64,
    /// Draft tokens accepted by verification (the committed tokens
    /// beyond the one-per-window baseline).
    pub spec_accepted: u64,
}

/// The serving simulator: a decode engine plus admission control and a
/// virtual clock.
pub struct Server {
    /// One pipeline of one stage, serving with this server's configuration.
    fleet: ClusterServer,
}

impl Server {
    /// Builds the engine image for the configured geometry and wraps it
    /// in a server.
    ///
    /// # Errors
    ///
    /// Returns the allocation error when the weights plus the
    /// provisioned KV slots do not fit the accelerator's DDR map.
    pub fn new(
        accel: AccelConfig,
        model: &ModelConfig,
        cfg: ServerConfig,
    ) -> Result<Server, AllocError> {
        let fleet =
            ClusterServer::build(&accel, model, 1, 1, PlacementPolicy::JoinShortestKv, cfg)?;
        Ok(Server { fleet })
    }

    /// The engine (image, metrics registry) backing this server.
    pub fn engine(&self) -> &DecodeEngine {
        &self.fleet.engine(0).stages()[0]
    }

    /// The KV byte budget admissions are priced against.
    pub fn kv_budget_bytes(&self) -> u64 {
        self.fleet.kv_budget_bytes()
    }

    /// Replays a trace (must be sorted by arrival time) to completion
    /// and returns the aggregate report. Also publishes `serve.*`
    /// counters and gauges into the engine's metrics registry; counters
    /// accumulate across runs, so use one server per measured scenario.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[Request]) -> ServeReport {
        let (report, _) = self.fleet.serve(trace);
        self.publish(&report);
        report
    }

    /// Publishes the report into the engine's metrics registry under the
    /// `serve.` namespace.
    fn publish(&mut self, report: &ServeReport) {
        let serving = &self.fleet.serving;
        let (paged, speculative) = (serving.paged.is_some(), serving.speculative.is_some());
        let m = self.fleet.board_mut().metrics_mut();
        m.counter("serve.requests.offered").add(report.offered);
        m.counter("serve.requests.admitted").add(report.admitted);
        m.counter("serve.requests.completed").add(report.completed);
        m.counter("serve.requests.rejected_queue_full")
            .add(report.rejected_queue_full);
        m.counter("serve.requests.rejected_infeasible")
            .add(report.rejected_infeasible);
        m.counter("serve.deadline.met").add(report.deadline_met);
        m.counter("serve.tokens.generated")
            .add(report.generated_tokens);
        m.counter("serve.tokens.prompt").add(report.prompt_tokens);
        m.counter("serve.steps.decode").add(report.decode_steps);
        m.counter("serve.steps.prefill").add(report.prefill_steps);
        m.gauge("serve.sim_seconds").set(report.sim_seconds);
        m.gauge("serve.tokens_per_s").set(report.tokens_per_s);
        m.gauge("serve.goodput_tokens_per_s")
            .set(report.goodput_tokens_per_s);
        m.gauge("serve.ttft_p50_ms").set(report.ttft_p50_ms);
        m.gauge("serve.ttft_p95_ms").set(report.ttft_p95_ms);
        m.gauge("serve.ttft_p99_ms").set(report.ttft_p99_ms);
        m.gauge("serve.token_p50_ms").set(report.token_p50_ms);
        m.gauge("serve.token_p95_ms").set(report.token_p95_ms);
        m.gauge("serve.token_p99_ms").set(report.token_p99_ms);
        m.gauge("serve.kv_peak_bytes")
            .set(report.kv_peak_bytes as f64);
        m.gauge("serve.queue_peak").set(report.queue_peak as f64);
        // Paged-only keys, so contiguous scenarios keep their exact
        // baseline key sets.
        if paged {
            m.counter("serve.paged.preempted").add(report.preempted);
            m.gauge("serve.paged.concurrent_peak")
                .set(report.concurrent_peak as f64);
        }
        // Speculation-only keys, gated the same way.
        if speculative {
            m.counter("serve.spec.drafted").add(report.spec_drafted);
            m.counter("serve.spec.accepted").add(report.spec_accepted);
            let rate = if report.spec_drafted > 0 {
                report.spec_accepted as f64 / report.spec_drafted as f64
            } else {
                0.0
            };
            m.gauge("serve.spec.accept_rate").set(rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::DropReason;
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

    fn server(mode: BatchingMode) -> Server {
        let cfg = match mode {
            BatchingMode::Continuous => ServerConfig::continuous(128, 4),
            BatchingMode::Lockstep => ServerConfig::lockstep(128, 4),
        };
        Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg).expect("image fits")
    }

    #[test]
    fn continuous_run_completes_every_request_deterministically() {
        let t = trace(12, 0.5);
        let a = server(BatchingMode::Continuous).run(&t);
        let b = server(BatchingMode::Continuous).run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.outcomes.len(), 12);
        assert_eq!(a.completed, 12);
        assert_eq!(a.rejected_queue_full + a.rejected_infeasible, 0);
        for o in &a.outcomes {
            assert_eq!(o.generated, o.request.max_new_tokens);
            assert!(o.ttft_s().expect("served") > 0.0);
            assert!(o.finish_s.expect("finished") >= o.request.arrival_s);
        }
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>()
        );
        assert_eq!(
            a.prompt_tokens,
            t.iter().map(|r| r.prompt_tokens as u64).sum::<u64>()
        );
        assert!(a.prefill_steps > 0 && a.decode_steps > 0);
        assert!(a.tokens_per_s > 0.0);
    }

    #[test]
    fn continuous_beats_lockstep_on_aggregate_throughput() {
        // Load heavy enough that batching matters: the gang baseline
        // pays padded contexts and drains to idle slots, continuous
        // backfills immediately.
        let t = trace(24, 2.0);
        let cont = server(BatchingMode::Continuous).run(&t);
        let lock = server(BatchingMode::Lockstep).run(&t);
        assert_eq!(cont.completed, 24);
        assert_eq!(lock.completed, 24);
        assert!(
            cont.tokens_per_s > lock.tokens_per_s,
            "continuous {:.3} tok/s must beat lockstep {:.3} tok/s",
            cont.tokens_per_s,
            lock.tokens_per_s
        );
        assert!(cont.sim_seconds < lock.sim_seconds);
    }

    #[test]
    fn kv_occupancy_never_exceeds_budget_even_when_tightened() {
        let model = ModelConfig::tiny_llama_1_1b();
        let mut cfg = ServerConfig::continuous(128, 4);
        // Tighten the budget to roughly two max-size sequences so the
        // byte budget (not the slot count) is what binds.
        let full = Server::new(AccelConfig::kv260(), &model, cfg.clone())
            .expect("image fits")
            .kv_budget_bytes();
        cfg.kv_budget_bytes = Some(full / 2);
        let mut srv = Server::new(AccelConfig::kv260(), &model, cfg).expect("image fits");
        let report = srv.run(&trace(16, 2.0));
        assert!(report.kv_peak_bytes <= report.kv_budget_bytes);
        assert_eq!(report.kv_budget_bytes, full / 2);
        assert_eq!(
            report.completed + report.rejected_queue_full + report.rejected_infeasible,
            16
        );
        // The tight budget must actually have throttled concurrency.
        assert!(report.queue_peak > 0, "tight budget should queue requests");
    }

    #[test]
    fn oversized_and_overflow_requests_are_dropped_with_reasons() {
        let mut t = trace(4, 10.0);
        // An impossible request: prompt beyond the context capacity.
        t[0].prompt_tokens = 4096;
        let report = server(BatchingMode::Continuous).run(&t);
        let dropped = &report.outcomes[0];
        assert_eq!(dropped.dropped, Some(DropReason::Infeasible));
        assert!(dropped.finish_s.is_none());
        assert_eq!(report.rejected_infeasible, 1);
        assert_eq!(report.completed, 3);
    }

    #[test]
    fn queue_overflow_rejects_with_queue_full() {
        let model = ModelConfig::tiny_llama_1_1b();
        let mut cfg = ServerConfig::continuous(128, 1);
        cfg.queue_cap = 1;
        let mut srv = Server::new(AccelConfig::kv260(), &model, cfg).expect("image fits");
        // A burst of simultaneous arrivals: 1 runs, 1 queues, rest drop.
        let mut t = trace(6, 100.0);
        for r in &mut t {
            r.arrival_s = 0.0;
        }
        let report = srv.run(&t);
        assert!(report.rejected_queue_full >= 1);
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.dropped == Some(DropReason::QueueFull)));
        assert_eq!(
            report.completed + report.rejected_queue_full + report.rejected_infeasible,
            6
        );
    }

    fn decode_heavy_trace(requests: usize, rate: f64) -> Vec<Request> {
        generate(&TrafficConfig {
            requests,
            seed: 7,
            arrivals: ArrivalModel::Poisson { rate_per_s: rate },
            prompt_tokens: (8, 16),
            new_tokens: (48, 96),
            class_mix: [0.5, 0.3, 0.2],
            eos_early_fraction: 0.0,
        })
    }

    fn paged_server(slots: usize, budget: Option<u64>) -> Server {
        let mut cfg = ServerConfig::continuous(128, slots).paged(PagedConfig::default());
        cfg.kv_budget_bytes = budget;
        Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg).expect("image fits")
    }

    #[test]
    fn paged_run_completes_deterministically_within_budget() {
        let t = decode_heavy_trace(12, 1.0);
        let a = paged_server(4, None).run(&t);
        let b = paged_server(4, None).run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.completed, 12);
        assert!(a.kv_peak_bytes <= a.kv_budget_bytes);
        assert!(a.concurrent_peak >= 1);
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>(),
            "an unpressured pool never recomputes"
        );
        assert_eq!(a.preempted, 0);
    }

    #[test]
    fn paged_admission_lifts_concurrency_at_the_same_budget() {
        // Budget for three worst-case sequences, slots for eight:
        // worst-case reservation pins concurrency at three, while
        // actual-growth charging packs the slots because decode-heavy
        // requests use a fraction of their quote early in life.
        let model = ModelConfig::tiny_llama_1_1b();
        let probe = paged_server(8, None);
        let worst = probe.engine().image().page_rounded_request_bytes(112, 16);
        let budget = Some(3 * worst);
        let t = decode_heavy_trace(16, 50.0);
        let paged = paged_server(8, budget).run(&t);
        let mut wc_cfg = ServerConfig::continuous(128, 8);
        wc_cfg.kv_budget_bytes = budget;
        let wc = Server::new(AccelConfig::kv260(), &model, wc_cfg)
            .expect("image fits")
            .run(&t);
        assert!(
            paged.concurrent_peak > wc.concurrent_peak,
            "paged peak {} must beat worst-case peak {}",
            paged.concurrent_peak,
            wc.concurrent_peak
        );
        assert!(paged.kv_peak_bytes <= paged.kv_budget_bytes);
        assert_eq!(
            paged.completed + paged.rejected_queue_full + paged.rejected_infeasible,
            16
        );
    }

    #[test]
    fn starved_interactive_preempts_the_newest_batch_sequence() {
        use crate::request::DeadlineClass;
        // A six-page pool: both sequences admit at one page each, then
        // their growth collides. The interactive sequence must win the
        // pages; the batch one is evicted, requeued, and recomputed.
        let model = ModelConfig::tiny_llama_1_1b();
        let mut cfg = ServerConfig::continuous(128, 4).paged(PagedConfig {
            page_tokens: 16,
            watermark: 1.0,
        });
        let probe = Server::new(AccelConfig::kv260(), &model, cfg.clone()).expect("image fits");
        cfg.kv_budget_bytes = Some(6 * probe.engine().image().kv_page_bytes());
        let mut srv = Server::new(AccelConfig::kv260(), &model, cfg).expect("image fits");
        let req = |id, class| Request {
            id,
            arrival_s: 0.0,
            prompt_tokens: 16,
            max_new_tokens: 64,
            eos_tokens: None,
            class,
        };
        let report = srv.run(&[
            req(0, DeadlineClass::Interactive),
            req(1, DeadlineClass::Batch),
        ]);
        assert!(report.preempted >= 1, "growth collision must preempt");
        assert_eq!(report.completed, 2, "the victim recomputes and finishes");
        assert!(report.outcomes.iter().all(|o| o.finish_s.is_some()));
        assert!(report.kv_peak_bytes <= report.kv_budget_bytes);
        let snap = srv.engine().metrics_snapshot();
        assert_eq!(
            snap.counter("serve.paged.preempted"),
            Some(report.preempted)
        );
    }

    fn spec_server(k: usize, alpha: f64) -> Server {
        let cfg = ServerConfig::continuous(128, 4).speculative(SpeculationConfig::new(k, alpha));
        Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg).expect("image fits")
    }

    #[test]
    fn speculative_run_completes_deterministically_in_fewer_steps() {
        let t = decode_heavy_trace(10, 1.0);
        let a = spec_server(4, 0.8).run(&t);
        let b = spec_server(4, 0.8).run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.completed, 10);
        // Every request generates exactly its budget: verify windows
        // never overshoot max_new_tokens.
        for o in &a.outcomes {
            assert_eq!(o.generated, o.request.max_new_tokens);
        }
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>()
        );
        assert!(a.spec_drafted > 0, "windows must draft");
        assert!(a.spec_accepted <= a.spec_drafted);
        let plain = server(BatchingMode::Continuous).run(&t);
        assert!(
            a.decode_steps < plain.decode_steps,
            "accepted drafts must collapse steps: {} vs {}",
            a.decode_steps,
            plain.decode_steps
        );
    }

    #[test]
    fn speculation_lifts_throughput_on_a_compute_rich_engine() {
        // The stock KV260 is exactly bandwidth/compute balanced, so a
        // verify window's fanout costs as many cycles as it saves in
        // weight traffic; widening the VPU exposes the amortization.
        // Four concurrent sequences at K = 4 fan one weight beat out
        // 20 ways, so the lanes must cover 20 x 128 weights per beat.
        let mut accel = AccelConfig::kv260();
        accel.lanes = 4096;
        let model = ModelConfig::tiny_llama_1_1b();
        let t = decode_heavy_trace(8, 50.0);
        let base = Server::new(accel.clone(), &model, ServerConfig::continuous(128, 4))
            .expect("image fits")
            .run(&t);
        let cfg = ServerConfig::continuous(128, 4).speculative(SpeculationConfig::new(4, 0.9));
        let spec = Server::new(accel, &model, cfg).expect("image fits").run(&t);
        assert_eq!(spec.completed, base.completed);
        assert_eq!(spec.generated_tokens, base.generated_tokens);
        assert!(
            spec.tokens_per_s > 1.5 * base.tokens_per_s,
            "speculation {:.1} tok/s must clear 1.5x baseline {:.1} tok/s",
            spec.tokens_per_s,
            base.tokens_per_s
        );
    }

    #[test]
    fn paged_speculation_charges_the_overhang_and_uncharges_rejects() {
        let t = decode_heavy_trace(12, 2.0);
        let mk = || {
            let cfg = ServerConfig::continuous(128, 4)
                .paged(PagedConfig::default())
                .speculative(SpeculationConfig::new(4, 0.5));
            Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
                .expect("image fits")
        };
        let a = mk().run(&t);
        let b = mk().run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.completed, 12);
        assert!(a.kv_peak_bytes <= a.kv_budget_bytes);
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>()
        );
        // At alpha = 0.5 rejects are plentiful, so the transient
        // overhang must have been charged above the plain paged peak
        // and fully returned by completion (admission's release assert
        // would fire on any leak).
        let plain = paged_server(4, None).run(&t);
        assert!(
            a.kv_peak_bytes >= plain.kv_peak_bytes,
            "the K-token overhang shows up in the reserved peak"
        );
        assert!(a.spec_drafted > a.spec_accepted, "rejects must occur");
    }

    #[test]
    #[should_panic(expected = "speculative decoding requires continuous batching")]
    fn lockstep_rejects_speculation() {
        let cfg = ServerConfig::lockstep(128, 4).speculative(SpeculationConfig::new(2, 0.5));
        let _ = Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg);
    }

    #[test]
    fn spec_metrics_are_published_only_when_configured() {
        let t = trace(6, 1.0);
        let mut plain = server(BatchingMode::Continuous);
        plain.run(&t);
        let snap = plain.engine().metrics_snapshot();
        assert_eq!(snap.counter("serve.spec.drafted"), None);
        let mut spec = spec_server(2, 0.7);
        let report = spec.run(&t);
        let snap = spec.engine().metrics_snapshot();
        assert_eq!(
            snap.counter("serve.spec.drafted"),
            Some(report.spec_drafted)
        );
        assert_eq!(
            snap.counter("serve.spec.accepted"),
            Some(report.spec_accepted)
        );
        let rate = report.spec_accepted as f64 / report.spec_drafted as f64;
        assert_eq!(snap.gauge("serve.spec.accept_rate"), Some(rate));
    }

    #[test]
    fn metrics_registry_carries_serve_namespace() {
        let mut srv = server(BatchingMode::Continuous);
        let report = srv.run(&trace(8, 1.0));
        let snap = srv.engine().metrics_snapshot();
        assert_eq!(
            snap.counter("serve.requests.completed"),
            Some(report.completed)
        );
        assert_eq!(
            snap.counter("serve.tokens.generated"),
            Some(report.generated_tokens)
        );
        assert_eq!(snap.gauge("serve.tokens_per_s"), Some(report.tokens_per_s));
    }
}
