//! The scheduling core behind the serving event loop.
//!
//! A [`Core`] owns everything one engine's scheduler holds: the
//! [`AdmissionController`], the active set, the optional paged KV pool,
//! the queued bytes the cluster router reads, the lockstep gang's padding,
//! the speculative acceptance draws, and the step, token and preemption
//! tallies. It plans each step and books its outcome; the event loop in
//! [`crate::ClusterServer`] prices the plan on the pipeline's engine and
//! owns the clock, for every fleet pipeline and for the board
//! ([`crate::Server`] is a one-pipeline, one-stage fleet). The core needs
//! only three numbers from an engine — the KV budget, one page's bytes
//! and a request's contiguous quote — so the loop passes them in and no
//! engine abstraction sits between them.

use crate::admission::{AdmissionConfig, AdmissionController, Granted, Rejection};
use crate::request::{DropReason, Request, RequestOutcome};
use crate::server::{BatchingMode, PagedConfig, ServeReport, SpeculationConfig};
use zllm_accel::{PrefillChunk, SpecWindow};
use zllm_layout::kv_page::PagedKvAllocator;
use zllm_rng::StdRng;

/// Prompt tokens one chunked-prefill step may carry across every sequence
/// sharing it, on the board and on every cluster pipeline.
pub(crate) const PREFILL_CHUNK: usize = 32;

/// Seconds a queued head waits before the admission queues serve it ahead
/// of higher-priority classes, on the board and on every cluster pipeline.
pub(crate) const STARVATION_BOUND_S: f64 = 60.0;

/// Seed of the speculative acceptance draws.
const SPEC_SEED: u64 = 0x5eed;

/// An in-flight sequence: the admitted request plus its progress.
#[derive(Debug, Clone)]
pub(crate) struct Active {
    pub(crate) request: Request,
    pub(crate) slot: usize,
    bytes: u64,
    admitted_s: f64,
    prefilled: usize,
    pub(crate) generated: usize,
    first_token_s: Option<f64>,
    token_latency_sum_s: f64,
    token_latency_max_s: f64,
}

impl Active {
    fn new(g: Granted) -> Active {
        Active {
            request: g.request,
            slot: g.slot,
            bytes: g.bytes,
            admitted_s: g.admitted_s,
            prefilled: 0,
            generated: 0,
            first_token_s: None,
            token_latency_sum_s: 0.0,
            token_latency_max_s: 0.0,
        }
    }

    fn needs_prefill(&self) -> bool {
        self.prefilled < self.request.prompt_tokens
    }

    pub(crate) fn ctx(&self) -> usize {
        self.request.prompt_tokens + self.generated
    }

    fn done(&self) -> bool {
        self.generated >= self.request.decode_tokens()
    }

    fn finish(self, now: f64) -> RequestOutcome {
        RequestOutcome {
            request: self.request,
            admitted_s: Some(self.admitted_s),
            first_token_s: self.first_token_s,
            finish_s: Some(now),
            generated: self.generated,
            token_latency_sum_s: self.token_latency_sum_s,
            token_latency_max_s: self.token_latency_max_s,
            dropped: None,
        }
    }
}

/// The paged KV pool: page tables, one page's bytes, and how many pages
/// new admissions may fill.
struct Pool {
    pages: PagedKvAllocator,
    page_bytes: u64,
    watermark_pages: usize,
}

impl Pool {
    /// KV bytes of `tokens` tokens rounded up to whole pages.
    fn bytes(&self, tokens: usize) -> u64 {
        self.pages.pages_needed(tokens) as u64 * self.page_bytes
    }

    /// Whether a prompt of `tokens` tokens clears the watermark and the
    /// free pool right now.
    fn admits(&self, tokens: usize) -> bool {
        let need = self.pages.pages_needed(tokens);
        self.pages.used_pages() + need <= self.watermark_pages && need <= self.pages.free_pages()
    }
}

/// One engine's scheduler state; see the module docs. The admission
/// reservations, the active set and the page pool move together, so only
/// the core's own methods change them.
pub(crate) struct Core {
    admission: AdmissionController,
    active: Vec<Active>,
    pool: Option<Pool>,
    /// KV bytes queued-but-unadmitted requests will reserve (router
    /// visibility into demand the controller has accepted).
    pub(crate) pending_bytes: u64,
    ctx_capacity: usize,
    prefill_chunk: usize,
    /// The padded prompt length of the lockstep gang in progress.
    gang_pad: Option<usize>,
    /// Speculative acceptance draws, i.i.d. per drafted token.
    spec_rng: StdRng,
    decode_steps: u64,
    prefill_steps: u64,
    generated_tokens: u64,
    prompt_tokens: u64,
    preempted: u64,
    spec_drafted: u64,
    spec_accepted: u64,
}

impl Core {
    /// A core with every slot free. `paged` carries the paging policy and
    /// one page's KV bytes; the pool holds as many pages as the admission
    /// budget buys.
    ///
    /// # Panics
    ///
    /// Panics when a paged budget holds less than one page.
    pub(crate) fn new(
        admission: AdmissionConfig,
        ctx_capacity: usize,
        prefill_chunk: usize,
        paged: Option<(&PagedConfig, u64)>,
    ) -> Core {
        let pool = paged.map(|(p, page_bytes)| {
            let total = (admission.budget_bytes / page_bytes) as usize;
            assert!(total > 0, "KV budget holds less than one page");
            Pool {
                pages: PagedKvAllocator::new(total, admission.slots, p.page_tokens),
                page_bytes,
                watermark_pages: (p.watermark * total as f64).floor() as usize,
            }
        });
        Core {
            admission: AdmissionController::new(admission),
            active: Vec::new(),
            pool,
            pending_bytes: 0,
            ctx_capacity,
            prefill_chunk,
            gang_pad: None,
            spec_rng: StdRng::seed_from_u64(SPEC_SEED),
            decode_steps: 0,
            prefill_steps: 0,
            generated_tokens: 0,
            prompt_tokens: 0,
            preempted: 0,
            spec_drafted: 0,
            spec_accepted: 0,
        }
    }

    /// The admission controller: counts, peaks and reservations.
    pub(crate) fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The admitted sequences, in step order.
    pub(crate) fn active(&self) -> &[Active] {
        &self.active
    }

    /// Offers one arrival to admission and records a drop outcome when it
    /// is turned away. A paged request must clear the admission watermark
    /// with its prompt and fit the pool alone with its whole sequence
    /// (which guarantees growth can always be force-evicted back to
    /// progress), and is quoted at its page-rounded worst case; a
    /// contiguous one is quoted at `contiguous_bytes`.
    pub(crate) fn offer(
        &mut self,
        r: Request,
        contiguous_bytes: u64,
        outcomes: &mut Vec<RequestOutcome>,
    ) {
        let quote = if r.total_tokens() > self.ctx_capacity {
            None
        } else {
            match &self.pool {
                Some(pool) => (pool.pages.pages_needed(r.prompt_tokens) <= pool.watermark_pages
                    && pool.pages.pages_needed(r.total_tokens()) <= pool.pages.total_pages())
                .then(|| pool.bytes(r.total_tokens())),
                None => Some(contiguous_bytes),
            }
        };
        let reason = match quote {
            None => {
                self.admission.note_infeasible();
                DropReason::Infeasible
            }
            Some(bytes) => match self.admission.offer(r.clone(), bytes, r.arrival_s) {
                Ok(()) => {
                    self.pending_bytes += bytes;
                    return;
                }
                Err(Rejection::Infeasible) => DropReason::Infeasible,
                Err(Rejection::QueueFull) => DropReason::QueueFull,
            },
        };
        outcomes.push(RequestOutcome {
            request: r,
            admitted_s: None,
            first_token_s: None,
            finish_s: None,
            generated: 0,
            token_latency_sum_s: 0.0,
            token_latency_max_s: 0.0,
            dropped: Some(reason),
        });
    }

    /// Admits from the queues while slots last. Contiguous admission
    /// reserves the quoted worst case. Paged admission charges only the
    /// prompt's pages, gated by the watermark, and an Interactive head
    /// blocked on pages preempts the newest lower-class sequence rather
    /// than waiting.
    pub(crate) fn admit(&mut self, now: f64) {
        while self.admission.free_slots() > 0 {
            let granted = match &self.pool {
                None => self.admission.try_admit(now),
                Some(pool) => self.admission.try_admit_charged(
                    now,
                    |r| pool.bytes(r.prompt_tokens),
                    |r, _| pool.admits(r.prompt_tokens),
                ),
            };
            match granted {
                Some(g) => self.enter(g),
                None if self.reclaim_for_head(now) => {}
                None => break,
            }
        }
    }

    /// Lockstep gang formation, for an idle machine: admits while every
    /// member padded to the longest prompt, plus the longest tail, still
    /// fits the context, and keeps the padded prompt length for
    /// [`Core::gang_ctx`].
    pub(crate) fn admit_gang(&mut self, now: f64) {
        let (mut pad, mut tail) = (0usize, 0usize);
        let cap = self.ctx_capacity;
        while self.admission.free_slots() > 0 {
            let Some(g) = self.admission.try_admit_where(now, |r| {
                pad.max(r.prompt_tokens) + tail.max(r.max_new_tokens) <= cap
            }) else {
                break;
            };
            pad = pad.max(g.request.prompt_tokens);
            tail = tail.max(g.request.max_new_tokens);
            self.enter(g);
        }
        self.gang_pad = (!self.active.is_empty()).then_some(pad);
    }

    /// The context every member of the gang in progress is priced at: all
    /// alive members have generated the same count past the padded prompt.
    pub(crate) fn gang_ctx(&self) -> usize {
        self.gang_pad.expect("gang in progress") + self.active[0].generated
    }

    /// Activates a granted request; under paging it takes its prompt's
    /// pages, which the accept gate reserved.
    fn enter(&mut self, g: Granted) {
        let quoted = match &mut self.pool {
            Some(pool) => {
                assert!(
                    pool.pages.grow_to(g.slot, g.request.prompt_tokens),
                    "accept gate reserved the prompt pages"
                );
                pool.bytes(g.request.total_tokens())
            }
            None => g.bytes,
        };
        self.pending_bytes -= quoted;
        self.active.push(Active::new(g));
    }

    /// Admission-time reclaim, with a slot free: when the head is an
    /// Interactive request that only the page gate blocks, preempts the
    /// newest lower-class sequence. Returns whether it did.
    fn reclaim_for_head(&mut self, now: f64) -> bool {
        let (Some(pool), Some(head)) = (&self.pool, self.admission.peek_head(now)) else {
            return false;
        };
        let prio = head.class.priority();
        if prio != 0 || pool.admits(head.prompt_tokens) {
            return false; // blocked elsewhere; reclaim cannot help
        }
        match self.newest(|a| a.request.class.priority() > prio) {
            Some(i) => {
                self.preempt(i, now);
                true
            }
            None => false,
        }
    }

    /// The next chunked-prefill step: highest class first, then request
    /// id, bounded by the chunk budget. Empty when no active sequence
    /// owes prompt tokens.
    pub(crate) fn plan_prefill(&self) -> Vec<PrefillChunk> {
        let mut order: Vec<&Active> = self.active.iter().filter(|a| a.needs_prefill()).collect();
        order.sort_by_key(|a| (a.request.class.priority(), a.request.id));
        let mut budget = self.prefill_chunk;
        let mut chunks = Vec::new();
        for a in order {
            if budget == 0 {
                break;
            }
            let len = (a.request.prompt_tokens - a.prefilled).min(budget);
            chunks.push(PrefillChunk {
                slot: a.slot,
                start: a.prefilled,
                len,
            });
            budget -= len;
        }
        chunks
    }

    /// Books a priced prefill step planned by [`Core::plan_prefill`].
    pub(crate) fn book_prefill(&mut self, chunks: &[PrefillChunk]) {
        for c in chunks {
            let a = self
                .active
                .iter_mut()
                .find(|a| a.slot == c.slot)
                .expect("chunk owner is active");
            a.prefilled += c.len;
            self.prompt_tokens += c.len as u64;
        }
        self.prefill_steps += 1;
    }

    /// Page growth before a decode step, which writes each participant's
    /// next token: every participant must own the page that token lands
    /// in. Starved sequences reclaim by preempting the newest sequence of
    /// a lower class than the most urgent starved one, else sit the step
    /// out; when every sequence is starved, the newest admission is
    /// force-evicted so the machine keeps making progress. (A lone
    /// sequence never starves: [`Core::offer`] guarantees its whole
    /// sequence fits the pool.)
    ///
    /// Returns the tokens each active sequence commits on a plain step:
    /// 1, or 0 for one sitting the step out.
    pub(crate) fn ready_for_decode(&mut self, now: f64) -> Vec<usize> {
        loop {
            let committed: Vec<usize> = (0..self.active.len())
                .map(|i| usize::from(self.grow(i, self.active[i].ctx() + 1)))
                .collect();
            let starved = committed.iter().filter(|&&c| c == 0).count();
            let Some(urgent) = self
                .active
                .iter()
                .zip(&committed)
                .filter(|(_, &c)| c == 0)
                .map(|(a, _)| a.request.class.priority())
                .min()
            else {
                return committed;
            };
            // Zero progress: force-evict the newest admission of any class.
            let all_starved = starved == self.active.len();
            let victim = self
                .newest(|a| a.request.class.priority() > urgent)
                .or_else(|| self.newest(|_| all_starved));
            match victim {
                Some(i) => self.preempt(i, now),
                None => return committed, // the starved minority sits this step out
            }
        }
    }

    /// `(slot, ctx)` of every sequence committing tokens this step: the
    /// participants of a ragged decode step.
    pub(crate) fn decode_slots(&self, committed: &[usize]) -> Vec<(usize, usize)> {
        self.active
            .iter()
            .zip(committed)
            .filter(|(_, &c)| c > 0)
            .map(|(a, _)| (a.slot, a.ctx()))
            .collect()
    }

    /// One speculative verify step: sizes a window of at most `spec.k`
    /// drafts per sequence committing this step, never past its remaining
    /// tokens or the context; grows and charges the window's KV overhang
    /// first (degrading to a plain verify when the pool cannot host it);
    /// prices the windows with `price`; then commits each window's
    /// accepted drafts plus one and returns its rejected tail's pages.
    pub(crate) fn verify<R>(
        &mut self,
        committed: &mut [usize],
        spec: &SpeculationConfig,
        price: impl FnOnce(&[SpecWindow]) -> R,
    ) -> R {
        let owners: Vec<usize> = (0..committed.len()).filter(|&i| committed[i] > 0).collect();
        let windows: Vec<SpecWindow> = owners
            .iter()
            .map(|&i| {
                let a = &self.active[i];
                let (slot, ctx) = (a.slot, a.ctx());
                let remaining = a.request.decode_tokens() - a.generated;
                let mut k = spec.k.min(remaining - 1).min(self.ctx_capacity - 1 - ctx);
                if k > 0 && !self.grow(i, ctx + 1 + k) {
                    k = 0;
                }
                let rng = &mut self.spec_rng;
                let accepted = (0..k)
                    .take_while(|_| rng.gen_bool(spec.accept_rate))
                    .count();
                SpecWindow {
                    slot,
                    ctx,
                    drafted: k,
                    accepted,
                }
            })
            .collect();
        let priced = price(&windows);
        for (w, &i) in windows.iter().zip(&owners) {
            committed[i] = w.accepted + 1;
            self.spec_drafted += w.drafted as u64;
            self.spec_accepted += w.accepted as u64;
            self.shrink(i, w.keep());
        }
        priced
    }

    /// Grows sequence `i`'s pages to cover `tokens` tokens and charges
    /// them to admission. Returns `false`, allocating nothing, when the
    /// pool cannot; always `true` without paging.
    pub(crate) fn grow(&mut self, i: usize, tokens: usize) -> bool {
        let Some(pool) = self.pool.as_mut() else {
            return true;
        };
        let a = &mut self.active[i];
        let have = pool.pages.pages_of(a.slot).len();
        let need = pool.pages.pages_needed(tokens);
        if need <= have {
            return true;
        }
        if !pool.pages.grow_to(a.slot, tokens) {
            return false;
        }
        let delta = (need - have) as u64 * pool.page_bytes;
        self.admission.charge(delta);
        a.bytes += delta;
        true
    }

    /// Returns sequence `i`'s pages beyond `tokens` tokens to the pool
    /// and uncharges them: the rejected tail of a verify window.
    pub(crate) fn shrink(&mut self, i: usize, tokens: usize) {
        let Some(pool) = self.pool.as_mut() else {
            return;
        };
        let freed = pool.pages.shrink_to(self.active[i].slot, tokens).len() as u64;
        if freed > 0 {
            let delta = freed * pool.page_bytes;
            self.admission.uncharge(delta);
            self.active[i].bytes -= delta;
        }
    }

    /// Books a priced decode step of `step_s` seconds: sequence `i`
    /// banks `committed[i]` tokens, each at the step's amortized
    /// per-token latency, and a first token lands at `first_token_s`.
    pub(crate) fn book_decode(&mut self, committed: &[usize], step_s: f64, first_token_s: f64) {
        self.decode_steps += 1;
        for (a, &c) in self.active.iter_mut().zip(committed) {
            if c == 0 {
                continue;
            }
            self.generated_tokens += c as u64;
            let per_token_s = step_s / c as f64;
            for _ in 0..c {
                a.generated += 1;
                if a.generated == 1 {
                    a.first_token_s = Some(first_token_s);
                } else {
                    a.token_latency_sum_s += per_token_s;
                    a.token_latency_max_s = a.token_latency_max_s.max(per_token_s);
                }
            }
        }
    }

    /// Retires finished sequences at `now`, returning their pages and
    /// reservations at once (evict-on-finish). Survivors keep their step
    /// order, which keeps the ragged slot vectors deterministic.
    pub(crate) fn retire(&mut self, now: f64, outcomes: &mut Vec<RequestOutcome>) {
        let done: Vec<Active> = self.active.extract_if(.., |a| a.done()).collect();
        for a in done {
            self.free(&a);
            outcomes.push(a.finish(now));
        }
    }

    /// Evicts sequence `i` for reclaim and requeues its request at the
    /// head of its class, quoted at its page-rounded worst case
    /// (preempt-and-recompute: it restarts from prefill when re-admitted).
    fn preempt(&mut self, i: usize, now: f64) {
        let a = self.active.remove(i);
        self.free(&a);
        let worst = self
            .pool
            .as_ref()
            .expect("reclaim runs only under paging")
            .bytes(a.request.total_tokens());
        self.admission.requeue_front(a.request, worst, now);
        self.pending_bytes += worst;
        self.preempted += 1;
    }

    /// Returns a leaving sequence's pages and reservation.
    fn free(&mut self, a: &Active) {
        if let Some(pool) = self.pool.as_mut() {
            pool.pages.release(a.slot);
        }
        self.admission.release(a.slot, a.bytes);
    }

    /// Index of the newest-admitted active sequence matching `pred`, the
    /// reclaim victim. Ties break toward the higher request id.
    fn newest(&self, pred: impl Fn(&Active) -> bool) -> Option<usize> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, a)| pred(a))
            .max_by(|(_, x), (_, y)| {
                x.admitted_s
                    .partial_cmp(&y.admitted_s)
                    .expect("finite")
                    .then(x.request.id.cmp(&y.request.id))
            })
            .map(|(i, _)| i)
    }
}

/// Folds one run over every pipeline's core (summed; the queue peak is
/// the largest) and its outcomes into the board report, which the fleet
/// report is also filled from.
pub(crate) fn fold<'a>(
    mode: BatchingMode,
    cores: impl Iterator<Item = &'a Core> + Clone,
    mut outcomes: Vec<RequestOutcome>,
    sim_seconds: f64,
) -> ServeReport {
    outcomes.sort_by_key(|o| o.request.id);
    let sum = |f: fn(&Core) -> u64| cores.clone().map(f).sum::<u64>();
    let per_s = |tokens: u64| {
        if sim_seconds > 0.0 {
            tokens as f64 / sim_seconds
        } else {
            0.0
        }
    };
    let percentiles = |seconds: fn(&RequestOutcome) -> Option<f64>| {
        let mut v: Vec<f64> = outcomes
            .iter()
            .filter_map(seconds)
            .map(|t| t * 1e3)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        [0.50, 0.95, 0.99].map(|q| match v.len() {
            0 => 0.0,
            n => v[((n - 1) as f64 * q).round() as usize],
        })
    };
    let [ttft_p50_ms, ttft_p95_ms, ttft_p99_ms] = percentiles(RequestOutcome::ttft_s);
    let [token_p50_ms, token_p95_ms, token_p99_ms] =
        percentiles(RequestOutcome::mean_token_latency_s);
    let met = || outcomes.iter().filter(|o| o.deadline_met());
    let generated_tokens = sum(|c| c.generated_tokens);
    ServeReport {
        mode,
        sim_seconds,
        offered: sum(|c| c.admission.counts().0),
        admitted: sum(|c| c.admission.counts().1),
        completed: outcomes.iter().filter(|o| o.finish_s.is_some()).count() as u64,
        rejected_queue_full: sum(|c| c.admission.counts().2),
        rejected_infeasible: sum(|c| c.admission.counts().3),
        deadline_met: met().count() as u64,
        generated_tokens,
        prompt_tokens: sum(|c| c.prompt_tokens),
        decode_steps: sum(|c| c.decode_steps),
        prefill_steps: sum(|c| c.prefill_steps),
        tokens_per_s: per_s(generated_tokens),
        goodput_tokens_per_s: per_s(met().map(|o| o.generated as u64).sum()),
        ttft_p50_ms,
        ttft_p95_ms,
        ttft_p99_ms,
        token_p50_ms,
        token_p95_ms,
        token_p99_ms,
        kv_peak_bytes: sum(|c| c.admission.peaks().0),
        kv_budget_bytes: sum(|c| c.admission.budget_bytes()),
        queue_peak: cores
            .clone()
            .map(|c| c.admission.peaks().1)
            .max()
            .unwrap_or(0),
        concurrent_peak: cores.clone().map(|c| c.admission.peak_concurrent()).sum(),
        preempted: sum(|c| c.preempted),
        spec_drafted: sum(|c| c.spec_drafted),
        spec_accepted: sum(|c| c.spec_accepted),
        outcomes,
    }
}

#[cfg(all(test, feature = "proptest"))]
mod properties {
    use super::*;
    use crate::request::DeadlineClass;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Context capacity of the synthetic engine, in tokens.
    const CTX: usize = 64;
    const PAGE_TOKENS: usize = 16;
    /// One page's KV bytes. A contiguous quote costs the same per token.
    const PAGE_BYTES: u64 = 4096;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Contiguous,
        Paged,
        Gang,
    }

    /// One engine-free serving run: the core's configuration, the
    /// speculation knobs and the trace.
    #[derive(Debug, Clone)]
    struct Scenario {
        mode: Mode,
        admission: AdmissionConfig,
        prefill_chunk: usize,
        watermark: f64,
        spec_k: usize,
        accept_rate: f64,
        trace: Vec<Request>,
    }

    fn scenario() -> impl Strategy<Value = Scenario> {
        let knobs = (
            0usize..3,
            1usize..=4,
            1usize..=6,
            1usize..=40,
            1u64..=16,
            1u32..=10,
        );
        let spec = (0usize..=4, 0u32..=10, 0usize..3, 0u64..u64::MAX);
        // (arrival gap ms, prompt, new tokens, class, early EOS or 0)
        let request = (0u32..50, 1usize..=24, 1usize..=48, 0usize..3, 0usize..=48);
        (knobs, spec, proptest::collection::vec(request, 1..24)).prop_map(
            |(
                (mode, slots, queue_cap, prefill_chunk, pages, wm),
                (k, alpha, bound, stray),
                reqs,
            )| {
                let mode = [Mode::Contiguous, Mode::Paged, Mode::Gang][mode];
                let mut arrival_s = 0.0;
                let trace = reqs
                    .into_iter()
                    .enumerate()
                    .map(|(id, (gap_ms, prompt, new, class, eos))| {
                        arrival_s += f64::from(gap_ms) * 1e-3;
                        Request {
                            id,
                            arrival_s,
                            prompt_tokens: prompt,
                            max_new_tokens: new,
                            eos_tokens: (eos > 0).then_some(eos),
                            class: DeadlineClass::ALL[class],
                        }
                    })
                    .collect();
                Scenario {
                    mode,
                    admission: AdmissionConfig {
                        slots,
                        // A stray partial page the pool must not use.
                        budget_bytes: pages * PAGE_BYTES + stray % PAGE_BYTES,
                        queue_cap,
                        starvation_bound_s: [0.05, 0.5, 60.0][bound],
                    },
                    prefill_chunk,
                    watermark: f64::from(wm) / 10.0,
                    spec_k: if mode == Mode::Gang { 0 } else { k },
                    accept_rate: f64::from(alpha) / 10.0,
                    trace,
                }
            },
        )
    }

    /// How often the runs reached each reclaim and degrade path.
    #[derive(Debug, Default)]
    struct Reached {
        admission_reclaims: u64,
        growth_reclaims: u64,
        all_starved_steps: u64,
        overhang_degrades: u64,
    }

    /// The invariants that hold after every core call.
    fn check(core: &Core) {
        let held: u64 = core.active.iter().map(|a| a.bytes).sum();
        assert_eq!(core.admission.reserved_bytes(), held, "reserved = held");
        assert!(held <= core.admission.budget_bytes(), "within the budget");
        let mut slots: Vec<usize> = core.active.iter().map(|a| a.slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), core.active.len(), "slots are unique");
        if let Some(pool) = &core.pool {
            for a in &core.active {
                let pages = pool.pages.pages_of(a.slot).len() as u64;
                assert_eq!(a.bytes, pages * pool.page_bytes, "bytes = pages held");
            }
        }
    }

    /// Whether no active sequence can get the page its next token needs.
    fn all_starved(core: &Core) -> bool {
        core.pool.as_ref().is_some_and(|pool| {
            let mut pages = pool.pages.clone();
            core.active
                .iter()
                .all(|a| !pages.grow_to(a.slot, a.ctx() + 1))
        })
    }

    /// Drives a core through `s` the way the serving loop does, with
    /// synthetic step times, checking the invariants after every call.
    fn drive(s: &Scenario, reached: &mut Reached) -> (Core, Vec<RequestOutcome>) {
        let paged = PagedConfig {
            page_tokens: PAGE_TOKENS,
            watermark: s.watermark,
        };
        let pool = (s.mode == Mode::Paged).then_some((&paged, PAGE_BYTES));
        let mut core = Core::new(s.admission.clone(), CTX, s.prefill_chunk, pool);
        let mut outcomes = Vec::new();
        let (mut next, mut now) = (0, 0.0);
        for round in 0.. {
            assert!(round < 100_000, "the core stopped making progress");
            while next < s.trace.len() && s.trace[next].arrival_s <= now {
                let r = s.trace[next].clone();
                next += 1;
                let bytes = r.total_tokens() as u64 * (PAGE_BYTES / PAGE_TOKENS as u64);
                core.offer(r, bytes, &mut outcomes);
                check(&core);
            }
            let preempted = core.preempted;
            match s.mode {
                Mode::Gang if core.active.is_empty() => {
                    core.admit_gang(now);
                }
                Mode::Gang => {}
                _ => core.admit(now),
            }
            check(&core);
            reached.admission_reclaims += core.preempted - preempted;
            if core.active.is_empty() {
                if next < s.trace.len() {
                    now = f64::max(now, s.trace[next].arrival_s);
                    continue;
                }
                break;
            }
            let chunks = core.plan_prefill();
            if !chunks.is_empty() {
                now += 1e-3 * (1 + chunks.iter().map(|c| c.len).sum::<usize>()) as f64;
                core.book_prefill(&chunks);
                check(&core);
                continue;
            }
            reached.all_starved_steps += u64::from(all_starved(&core));
            let preempted = core.preempted;
            let mut committed = core.ready_for_decode(now);
            check(&core);
            reached.growth_reclaims += core.preempted - preempted;
            assert!(committed.iter().any(|&c| c > 0), "some sequence decodes");
            if s.spec_k > 0 {
                let spec = SpeculationConfig::new(s.spec_k, s.accept_rate);
                let windows = core.verify(&mut committed, &spec, |w| w.to_vec());
                check(&core);
                let owners = (0..committed.len()).filter(|&i| committed[i] > 0);
                for (w, i) in windows.iter().zip(owners) {
                    let a = &core.active[i];
                    let remaining = a.request.decode_tokens() - a.generated;
                    let cap = s.spec_k.min(remaining - 1).min(CTX - 1 - a.ctx());
                    assert_eq!((w.slot, w.ctx), (a.slot, a.ctx()), "a window per committer");
                    assert!(
                        w.drafted == cap || w.drafted == 0,
                        "full window or degraded"
                    );
                    assert!(w.accepted <= w.drafted);
                    assert_eq!(committed[i], w.accepted + 1);
                    if let Some(pool) = &core.pool {
                        let held = pool.pages.pages_of(a.slot).len();
                        assert_eq!(held, pool.pages.pages_needed(w.keep()), "tail returned");
                    }
                    reached.overhang_degrades += u64::from(cap > 0 && w.drafted == 0);
                }
            }
            let step_s = 1e-3 * (1 + committed.iter().sum::<usize>()) as f64;
            now += step_s;
            core.book_decode(&committed, step_s, now);
            check(&core);
            core.retire(now, &mut outcomes);
            check(&core);
        }
        (core, outcomes)
    }

    /// Conservation across random traces, slot counts, contiguous, paged
    /// and gang admission, budgets, watermarks and speculative overhangs:
    /// every request gets one outcome, every completed request generated
    /// exactly its decode tokens, and a drained core holds no
    /// reservation, queued demand or page. The run also has to reach
    /// both reclaim rules, an all-starved step and an overhang degrade.
    #[test]
    fn core_conserves_requests_bytes_and_pages() {
        let mut reached = Reached::default();
        for case in 0..256 {
            let mut prop_rng = TestRng::for_case("sched::core_conserves", case);
            let s = scenario().generate(&mut prop_rng);
            let (core, mut outcomes) = drive(&s, &mut reached);
            outcomes.sort_by_key(|o| o.request.id);
            let ids: Vec<usize> = outcomes.iter().map(|o| o.request.id).collect();
            prop_assert_eq!(ids, (0..s.trace.len()).collect::<Vec<_>>(), "{:?}", s);
            let (offered, _, queue_full, infeasible) = core.admission.counts();
            let completed = outcomes.iter().filter(|o| o.finish_s.is_some()).count() as u64;
            prop_assert_eq!(offered, s.trace.len() as u64);
            prop_assert_eq!(offered, completed + queue_full + infeasible);
            prop_assert_eq!(core.admission.reserved_bytes(), 0);
            prop_assert_eq!(core.pending_bytes, 0);
            prop_assert_eq!(core.admission.queued(), 0);
            if let Some(pool) = &core.pool {
                prop_assert_eq!(pool.pages.used_pages(), 0);
            }
            for o in outcomes.iter().filter(|o| o.finish_s.is_some()) {
                prop_assert_eq!(o.generated, o.request.decode_tokens());
            }
        }
        prop_assert!(reached.admission_reclaims > 0, "{reached:?}");
        prop_assert!(reached.growth_reclaims > 0, "{reached:?}");
        prop_assert!(reached.all_starved_steps > 0, "{reached:?}");
        prop_assert!(reached.overhang_degrades > 0, "{reached:?}");
    }
}
