//! The trace-driven performance engine: prices a decode step's schedule
//! through the DDR/AXI model and produces the token/s and bandwidth
//! utilization numbers of Tables II/III.
//!
//! This path never touches tensor data — for a bandwidth-bound workload
//! the wall time is governed entirely by the memory stream and the
//! pipeline's exposed cycles, both of which the schedule captures. The
//! numerically faithful datapath lives in [`crate::functional`], which
//! writes its op order separately from the schedule generator: the two
//! views agree where `tests/consistency.rs` checks them, per step at batch
//! one (weight, KV and pack-metadata beats against the VPU and KV-pack
//! counters), and batched, ragged, paged, prefill, verify and sharded
//! steps are unchecked (ROADMAP item 8 owns one plan for both).

use crate::config::AccelConfig;
use crate::image::{ImageSpec, ModelImage};
use crate::schedule::{
    batched_token_schedule, chunked_prefill_schedule, ragged_token_schedule,
    speculative_verify_schedule, token_schedule, OpKind, PrefillChunk, SpecWindow, TokenSchedule,
};
use crate::tier::{TierConfig, TierReport, TierState};
use crate::vpu::{Vpu, VpuCounters};
use zllm_ddr::compress::{CompressionConfig, StreamClass};
use zllm_ddr::{DdrCounters, MemorySystem, TransferReport};
use zllm_layout::addr_map::AllocError;
use zllm_model::{memory, ModelConfig};
use zllm_telemetry::{Counter, Gauge, MetricsRegistry, Snapshot};

/// Performance report of one priced step: a decode step of one or more
/// sequences, a chunked-prefill step or a speculative verify step.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenReport {
    /// The highest position the step wrote KV for (for a decode step,
    /// the longest sequence's context).
    pub ctx: usize,
    /// Tokens the step produced or committed: one per sequence for a
    /// decode step, every prompt token for a prefill step, the accepted
    /// drafts plus one bonus token per window for a verify step.
    pub batch: usize,
    /// Bytes moved (reads + writes), whole step.
    pub bytes: u64,
    /// DDR busy time in nanoseconds.
    pub mem_ns: f64,
    /// VPU streaming cycles; a beat fanned out to `F` tokens costs
    /// `⌈weights_per_beat · F / lanes⌉` cycles.
    pub vpu_cycles: u64,
    /// Exposed miscellaneous cycles (coarse pipeline only).
    pub exposed_misc_cycles: u64,
    /// Pipeline fill/drain bubbles.
    pub bubble_cycles: u64,
    /// End-to-end time for this step in nanoseconds.
    pub wall_ns: f64,
    /// Aggregate speed: `batch` tokens per step.
    pub tokens_per_s: f64,
    /// One sequence's speed at one token per step (`1 / wall_ns`, in
    /// tokens per second).
    pub seq_tokens_per_s: f64,
    /// Aggregate speed over the single-sequence weight-transfer roofline
    /// (`bandwidth / (params × 4 bits)` — Table II's "Util. %"); may
    /// exceed 1.0 on compute-rich engines where batching amortizes the
    /// weight stream.
    pub bandwidth_util: f64,
    /// Bytes that `batch` independent single-token steps would have
    /// moved, divided by the bytes this step moved. Equals 1 at
    /// `batch = 1` and approaches `batch` while weight traffic dominates.
    pub weight_amortization: f64,
    /// KV traffic ([`OpKind::is_kv`]: history reads, write-backs,
    /// scale-zero flushes, page tables and rollbacks) as a fraction of
    /// total bytes — the share that grows with `batch` and context until
    /// it ends the amortization win.
    pub kv_share: f64,
    /// Bytes per operation kind, in first-appearance order, whole step.
    pub breakdown: Vec<(OpKind, u64)>,
}

impl TokenReport {
    /// Bytes the step moved for operations of `kind`.
    pub fn bytes_for(&self, kind: OpKind) -> u64 {
        self.breakdown
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0, |&(_, b)| b)
    }
}

/// The compression stream class of an operation kind: weight tiles, KV8
/// cache lines, and FP16 activation (embedding) rows each carry their own
/// entropy-measured ratio; everything else — scale-zero flushes, page
/// tables, rollback metadata — is latency-critical control traffic the
/// controller never compresses.
fn stream_class_of(kind: OpKind) -> StreamClass {
    match kind {
        OpKind::Qkv | OpKind::Wo | OpKind::Mlp | OpKind::LmHead => StreamClass::Weight,
        OpKind::KvRead | OpKind::KvWrite => StreamClass::Kv,
        OpKind::Embedding => StreamClass::Activation,
        OpKind::KvMetaFlush
        | OpKind::KvPtRead
        | OpKind::KvPtWrite
        | OpKind::KvMetaRollback
        | OpKind::KvPtRollback => StreamClass::Meta,
    }
}

/// A step's wall time in nanoseconds. The memory stream — DDR wire time,
/// the decompressor's exposed stall and tier staging, which shares the
/// bus — overlaps VPU compute (cut-through, so a compute-bound step hides
/// all three); exposed misc cycles and the tier's demand stall add after
/// the overlap.
fn step_wall_ns(
    mem: &TransferReport,
    staging_ns: f64,
    compute_ns: f64,
    exposed_ns: f64,
    stall_ns: f64,
) -> f64 {
    (mem.wall_ns + mem.decomp_stall_ns + staging_ns).max(compute_ns) + exposed_ns + stall_ns
}

/// How a speculative step's draft tokens are priced.
///
/// The verify pass is simulated exactly (its schedule streams through the
/// engine's own DDR controller); the *draft* model is outside the target
/// engine's datapath, so its cost is parameterized: either a flat
/// per-token figure (a draft running on the host CPU, or a measured
/// external number), or a synthetic draft geometry decoded token by token
/// through the same DDR controller — its weight stream contends with
/// nothing (drafting and verification alternate) but is priced with the
/// same bank/refresh dynamics as the target's traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum DraftCost {
    /// A fixed cost per drafted token, in nanoseconds. `ns_per_token: 0.0`
    /// gives the free-draft upper bound on speculation's uplift.
    FlatNs {
        /// Nanoseconds charged per drafted token.
        ns_per_token: f64,
    },
    /// A synthetic draft model decoded through the engine's DDR
    /// controller, one token per drafted position at that position's
    /// context. The draft image is placed like a `max_batch = 1` target
    /// image (its addresses may overlap the target's — acceptable for
    /// pricing, where only the stream's geometry matters) and is cached
    /// across calls.
    Synthetic {
        /// The draft model's geometry.
        model: ModelConfig,
    },
}

/// Everything a [`DecodeEngine`] is built from besides the accelerator:
/// the image to place, and the two optional stages on its memory path.
/// Set fields with struct-update syntax over [`EngineConfig::new`].
///
/// ```
/// use zllm_accel::{AccelConfig, DecodeEngine, EngineConfig, ImageSpec, KvLayout};
/// use zllm_model::ModelConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let image = ImageSpec {
///     batch: 4,
///     kv: KvLayout::Paged { page_tokens: 16 },
///     ..ImageSpec::new(32)
/// };
/// let cfg = EngineConfig::new(image);
/// let mut engine = DecodeEngine::build(AccelConfig::kv260(), &ModelConfig::test_small(), cfg)?;
/// assert!(engine.decode_token_ragged(&[(0, 5), (3, 20)]).tokens_per_s > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EngineConfig {
    /// The model image: context capacity, batch, KV layout and layer
    /// range.
    pub image: ImageSpec,
    /// `Some` keeps the weights on flash with `weight_budget_bytes` of
    /// layer weights DDR-resident: each step is priced flat, then its
    /// layer runs are walked against the flash timeline
    /// ([`crate::tier`]), with the cache warm at start. An image too big
    /// for the 4 GiB device is then placed in a virtual address space, as
    /// [`ModelImage::build_tiered`] places it, and
    /// [`DecodeEngine::tier_physical_bytes`] is what must fit the board.
    pub tier: Option<TierConfig>,
    /// `Some` prices every step through the inline-compression stage
    /// ([`MemorySystem::set_compression`]): weight, KV and activation
    /// bursts cross the bus at their compressed wire size plus page-map
    /// metadata, and the decompressor's stall extends the wall.
    /// `decode.bytes.*` and the report's `bytes` stay logical; an
    /// all-identity stage is a bit-identical pass-through that registers
    /// no `comp.*` telemetry. Tier staging and synthetic drafts bypass it.
    pub compression: Option<CompressionConfig>,
}

impl EngineConfig {
    /// An engine over `image` with neither a weight tier nor compression.
    pub fn new(image: ImageSpec) -> EngineConfig {
        EngineConfig {
            image,
            tier: None,
            compression: None,
        }
    }
}

/// Averaged report over a generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Tokens generated.
    pub tokens: usize,
    /// Mean tokens/s across the run.
    pub tokens_per_s: f64,
    /// Mean bandwidth utilization.
    pub bandwidth_util: f64,
    /// Per-token reports.
    pub steps: Vec<TokenReport>,
}

/// The trace-driven decode engine.
///
/// # Example
///
/// ```
/// use zllm_accel::{AccelConfig, DecodeEngine};
/// use zllm_model::ModelConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut engine = DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::test_small(), 32)?;
/// let report = engine.decode_token(4);
/// assert!(report.tokens_per_s > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DecodeEngine {
    accel: AccelConfig,
    model: ModelConfig,
    image: ModelImage,
    mem: MemorySystem,
    vpu: Vpu,
    /// Flash-backed weight tier ([`EngineConfig::tier`]); `None` for the
    /// ordinary all-in-DDR engine.
    tier: Option<TierState>,
    /// The paper's theoretical roofline for this model on this bandwidth.
    roofline_tokens_per_s: f64,
    /// All components publish into this registry; [`TokenReport`] and
    /// [`zllm_ddr::DdrStats`] are value-type views over the same numbers.
    registry: MetricsRegistry,
    metrics: DecodeMetrics,
    /// The synthetic draft model's placed image
    /// ([`DraftCost::Synthetic`]), cached across speculative steps and
    /// rebuilt only when the draft geometry changes.
    draft: Option<(ModelConfig, ModelImage)>,
}

/// Pre-resolved handles for the metrics the pricing loop publishes, so
/// the hot path never performs a name lookup.
#[derive(Debug)]
struct DecodeMetrics {
    tokens: Counter,
    bytes: Counter,
    vpu_cycles: Counter,
    bubble_cycles: Counter,
    exposed_misc_cycles: Counter,
    tokens_per_s: Gauge,
    bandwidth_util: Gauge,
    wall_ns: Gauge,
    /// `decode.bytes.{kind}`, each registered when its kind is first
    /// priced, so a snapshot carries only the kinds the engine moved.
    kind_bytes: Vec<(OpKind, Counter)>,
}

impl DecodeMetrics {
    fn register(reg: &mut MetricsRegistry) -> DecodeMetrics {
        DecodeMetrics {
            tokens: reg.counter("decode.tokens"),
            bytes: reg.counter("decode.bytes"),
            vpu_cycles: reg.counter("vpu.cycles"),
            bubble_cycles: reg.counter("pipeline.bubble_cycles"),
            exposed_misc_cycles: reg.counter("pipeline.exposed_misc_cycles"),
            tokens_per_s: reg.gauge("decode.tokens_per_s"),
            bandwidth_util: reg.gauge("decode.bandwidth_util"),
            wall_ns: reg.gauge("decode.wall_ns"),
            kind_bytes: Vec::new(),
        }
    }

    /// The `decode.bytes.{kind}` counter, registered in `reg` on first use.
    fn kind_bytes(&mut self, reg: &mut MetricsRegistry, kind: OpKind) -> &Counter {
        let i = match self.kind_bytes.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                let counter = reg.counter(&format!("decode.bytes.{}", kind.name()));
                self.kind_bytes.push((kind, counter));
                self.kind_bytes.len() - 1
            }
        };
        &self.kind_bytes[i].1
    }
}

impl DecodeEngine {
    /// Builds the engine `cfg` describes, placing its image in the 4 GB
    /// map. A shard image ([`ImageSpec::layers`]) prices exactly its own
    /// DDR traffic: a stage without the embedding table or LM head
    /// schedules no bytes for them, so the union of the shard engines'
    /// traffic equals the single-board engine's.
    ///
    /// # Errors
    ///
    /// Returns the allocation error if the image does not fit: on
    /// LLaMA2-7B-class models the KV cache is 256 KiB per token per
    /// sequence, so large `batch × ctx_capacity` products hit the
    /// capacity wall the paper's single-user design deliberately avoids.
    /// With a tier, only an image that exceeds even the largest virtual
    /// map fails.
    ///
    /// # Panics
    ///
    /// Panics as [`ModelImage::from_spec`] does, or if a tier's weight
    /// budget cannot hold the largest single layer.
    pub fn build(
        accel: AccelConfig,
        model: &ModelConfig,
        cfg: EngineConfig,
    ) -> Result<DecodeEngine, AllocError> {
        let image = ModelImage::place(model, accel.format, &cfg.image, cfg.tier.is_some())?;
        Ok(DecodeEngine::with_image(
            accel,
            image,
            cfg.tier,
            cfg.compression,
        ))
    }

    /// [`DecodeEngine::build`] of the paper's one-sequence image
    /// ([`ImageSpec::new`]): the shorthand most single-board callers and
    /// the benchmark harness use.
    ///
    /// # Errors
    ///
    /// Returns the allocation error if the model does not fit.
    pub fn new(
        accel: AccelConfig,
        model: &ModelConfig,
        ctx_capacity: usize,
    ) -> Result<DecodeEngine, AllocError> {
        DecodeEngine::build(
            accel,
            model,
            EngineConfig::new(ImageSpec::new(ctx_capacity)),
        )
    }

    /// A tiered engine ([`EngineConfig::tier`]) over an image the caller
    /// has already placed, for callers that measure placement apart from
    /// engine set-up, as the benchmark harness does.
    ///
    /// # Panics
    ///
    /// Panics if the weight budget cannot hold the largest single layer.
    pub fn with_image_tiered(
        accel: AccelConfig,
        image: ModelImage,
        tier: TierConfig,
    ) -> DecodeEngine {
        DecodeEngine::with_image(accel, image, Some(tier), None)
    }

    /// [`DecodeEngine::new`] with the compression stage
    /// ([`EngineConfig::compression`]): the shorthand the compression
    /// determinism test uses.
    ///
    /// # Errors
    ///
    /// Returns the allocation error if the model does not fit.
    pub fn new_compressed(
        accel: AccelConfig,
        model: &ModelConfig,
        ctx_capacity: usize,
        cfg: CompressionConfig,
    ) -> Result<DecodeEngine, AllocError> {
        let cfg = EngineConfig {
            compression: Some(cfg),
            ..EngineConfig::new(ImageSpec::new(ctx_capacity))
        };
        DecodeEngine::build(accel, model, cfg)
    }

    fn with_image(
        accel: AccelConfig,
        image: ModelImage,
        tier: Option<TierConfig>,
        compression: Option<CompressionConfig>,
    ) -> DecodeEngine {
        let model = image.model().clone();
        let mut registry = MetricsRegistry::new();
        let mut mem = MemorySystem::with_counters(
            accel.ddr.clone(),
            accel.axi,
            accel.mem_lookahead,
            DdrCounters::register(&mut registry, "ddr.port0"),
        );
        if let Some(cfg) = compression {
            mem.set_compression(cfg);
        }
        let vpu = Vpu::with_counters(
            accel.lanes,
            zllm_fp16::vector::TreePrecision::Fp32,
            VpuCounters::register(&mut registry, "vpu"),
        );
        let roofline = memory::weight_roofline_tokens_per_s(
            &model,
            memory::WeightPrecision::Effective(4.0),
            accel
                .axi
                .bandwidth_gbps()
                .min(accel.ddr.peak_bandwidth_gbps()),
        );
        let metrics = DecodeMetrics::register(&mut registry);
        registry.gauge("decode.roofline_tokens_per_s").set(roofline);
        DecodeEngine {
            vpu,
            accel,
            model,
            tier: tier.map(|tier| TierState::new(&image, tier)),
            image,
            mem,
            roofline_tokens_per_s: roofline,
            registry,
            metrics,
            draft: None,
        }
    }

    /// The tier's activity so far, or `None` on a flat engine.
    pub fn tier_report(&self) -> Option<TierReport> {
        self.tier.as_ref().map(|t| t.report())
    }

    /// Physical DDR bytes a tiered deployment needs: everything placed
    /// except layer weights, plus the layer weight budget. `None` on a
    /// flat engine. This is the number that must fit the real board.
    pub fn tier_physical_bytes(&self) -> Option<u64> {
        self.tier
            .as_ref()
            .map(|t| self.image.non_layer_resident_bytes() + t.cache.budget_bytes())
    }

    /// The compression stage's cumulative `(logical, wire, metadata)`
    /// bytes so far, or `None` on an uncompressed engine.
    pub fn compression_bytes(&self) -> Option<(u64, u64, u64)> {
        self.mem.compression_bytes()
    }

    /// The metrics registry every component of this engine publishes into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable access to the registry (for registering extra metrics or
    /// resetting between scenarios).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// A deterministic snapshot of every metric published so far.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The placed model image.
    pub fn image(&self) -> &ModelImage {
        &self.image
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The accelerator configuration.
    pub fn accel(&self) -> &AccelConfig {
        &self.accel
    }

    /// The paper's theoretical peak for this model (pure 4-bit weight
    /// transfers at full bandwidth).
    pub fn roofline_tokens_per_s(&self) -> f64 {
        self.roofline_tokens_per_s
    }

    /// Prices one decode step at context length `ctx`.
    pub fn decode_token(&mut self, ctx: usize) -> TokenReport {
        self.decode_token_batch(ctx, 1)
    }

    /// Prices one lockstep batched decode step: `batch` sequences, each
    /// at context length `ctx`, each producing one token. The schedule
    /// streams every weight tile **once** and fans its compute out to all
    /// sequences; each sequence's KV history and write-back are priced as
    /// separate DDR streams over that sequence's own cache region.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or exceeds the engine's provisioning
    /// ([`ImageSpec::batch`]).
    pub fn decode_token_batch(&mut self, ctx: usize, batch: usize) -> TokenReport {
        let sched = batched_token_schedule(&self.image, ctx, batch, self.accel.pipeline);
        self.price(sched, 0.0)
    }

    /// Prices one *ragged* (continuous-batching) decode step: each
    /// `(slot, ctx)` pair is a sequence at its own context length in its
    /// own KV slot. Weight streams are still fetched once and fanned to
    /// all participants; each sequence pays exactly its own KV traffic,
    /// so a freshly joined sequence never pads to the longest veteran.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty, repeats a slot, or names a slot or
    /// context beyond the engine's provisioning.
    pub fn decode_token_ragged(&mut self, slots: &[(usize, usize)]) -> TokenReport {
        let sched = ragged_token_schedule(&self.image, slots, self.accel.pipeline);
        self.price(sched, 0.0)
    }

    /// Prices one chunked-prefill step: the weight stream is fetched once
    /// and its compute fanned across every prompt token of every chunk
    /// (`Σ len`), each chunk reads its own cached history once, and every
    /// chunk token's KV is written back. The report's `batch` counts
    /// prompt tokens, so `tokens_per_s` is prefill throughput.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty, a chunk is empty or repeats a slot,
    /// or a chunk runs past the engine's provisioning.
    pub fn prefill_chunked(&mut self, chunks: &[PrefillChunk]) -> TokenReport {
        let sched = chunked_prefill_schedule(&self.image, chunks, self.accel.pipeline);
        self.price(sched, 0.0)
    }

    /// Prices one speculative decode step: each window verifies its
    /// `drafted` proposals plus the preceding committed token in a single
    /// pass that streams every weight tile **once** with its compute
    /// fanned across all `drafted + 1` positions — the decode-side twin
    /// of [`DecodeEngine::prefill_chunked`]'s amortization — then commits
    /// the accepted prefix and rolls the rejected suffix's KV metadata
    /// and page-table entries back
    /// (see [`crate::schedule::speculative_verify_schedule`]).
    ///
    /// Accept outcomes are an input, not a simulation product: the
    /// functional layer's [`crate::functional::greedy_accept`] (or the
    /// serving layer's accept-rate model) resolves each
    /// [`SpecWindow::accepted`] before pricing. The report's `batch`
    /// counts **committed** tokens (`accepted + 1` per window), so
    /// `tokens_per_s` is useful-token throughput, and the draft model's
    /// cost — priced per [`DraftCost`] — is folded into `wall_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty, a window over-accepts or repeats a
    /// slot, or a window runs past the engine's provisioning; a
    /// [`DraftCost::Synthetic`] draft panics if its image does not fit
    /// the device.
    pub fn decode_speculative(&mut self, windows: &[SpecWindow], draft: &DraftCost) -> TokenReport {
        let sched = speculative_verify_schedule(&self.image, windows, self.accel.pipeline);
        // Draft first: drafting precedes verification in the real loop,
        // so its DDR traffic sets the bank/refresh phase the verify
        // stream then sees, and `price` adds its time to the wall last.
        let (draft_ns, draft_bytes) = self.draft_cost(windows, draft);
        let report = self.price(sched, draft_ns);
        // Speculation telemetry exists only once a speculative step ran,
        // so non-speculative runs (and the committed baseline scenarios)
        // keep exactly their pre-speculation key set.
        let drafted: usize = windows.iter().map(|w| w.drafted).sum();
        let accepted: usize = windows.iter().map(|w| w.accepted).sum();
        self.registry
            .counter("spec.windows")
            .add(windows.len() as u64);
        self.registry
            .counter("spec.tokens.drafted")
            .add(drafted as u64);
        self.registry
            .counter("spec.tokens.accepted")
            .add(accepted as u64);
        self.registry
            .counter("spec.tokens.committed")
            .add(report.batch as u64);
        self.registry.counter("spec.draft.bytes").add(draft_bytes);
        self.registry.gauge("spec.draft_ns").set(draft_ns);
        self.registry
            .gauge("spec.bytes_per_committed_token")
            .set(report.bytes as f64 / report.batch as f64);
        report
    }

    /// The draft model's cost for this step: `(wall ns, DDR bytes)`. A
    /// synthetic draft decodes one token per drafted position at that
    /// position's context through the engine's own memory system (its
    /// bursts bump the `ddr.port0.*` counters as real traffic, and
    /// `transfer_iter` keeps them out of any compression stage); a flat
    /// cost moves no bytes.
    fn draft_cost(&mut self, windows: &[SpecWindow], draft: &DraftCost) -> (f64, u64) {
        match draft {
            DraftCost::FlatNs { ns_per_token } => {
                let drafted: usize = windows.iter().map(|w| w.drafted).sum();
                (ns_per_token * drafted as f64, 0)
            }
            DraftCost::Synthetic { model } => {
                if !matches!(&self.draft, Some((m, _)) if m == model) {
                    let image =
                        ModelImage::build(model, self.accel.format, self.image.ctx_capacity())
                            .expect("draft model must fit the device");
                    self.draft = Some((model.clone(), image));
                }
                let DecodeEngine {
                    draft: cache,
                    mem,
                    accel,
                    vpu,
                    ..
                } = self;
                let (_, image) = cache.as_ref().expect("just built");
                let cpb = accel.beat_cycles(1);
                let mut total_ns = 0.0;
                let mut bytes = 0u64;
                for w in windows {
                    for j in 0..w.drafted {
                        let sched = token_schedule(image, w.ctx + j, accel.pipeline);
                        let report = mem
                            .transfer_iter(sched.ops.iter().flat_map(|o| o.bursts.iter().copied()));
                        let bubbles = sched.ops.len() as u64 * vpu.pipeline_latency();
                        let compute_ns =
                            accel.cycles_to_ns(sched.total_vpu_beats() * cpb + bubbles);
                        let exposed_ns = accel.cycles_to_ns(sched.total_exposed_misc());
                        total_ns += step_wall_ns(&report, 0.0, compute_ns, exposed_ns, 0.0);
                        bytes += report.bytes;
                    }
                }
                (total_ns, bytes)
            }
        }
    }

    /// Prices one step's schedule through the memory system, the VPU and
    /// the weight tier, and publishes it. `draft_ns` is a speculative
    /// step's draft time, the last term of its wall (0 for every other
    /// step kind).
    fn price(&mut self, sched: TokenSchedule, draft_ns: f64) -> TokenReport {
        let batch = sched.batch;
        // Per-step aggregates, each in first-appearance order: bytes per
        // operation kind; read beats per compute fanout (a `(fanout,
        // beats)` group costs `beats × beat_cycles(fanout)` VPU cycles);
        // and consecutive ops per layer with their bytes (`None` for
        // embedding, head and metadata traffic), the runs the tier walk
        // paces a step by.
        let mut breakdown: Vec<(OpKind, u64)> = Vec::new();
        let mut beat_groups: Vec<(u32, u64)> = Vec::new();
        let mut layer_segments: Vec<(Option<usize>, u64)> = Vec::new();
        for op in &sched.ops {
            let bytes = op.bytes();
            match layer_segments.last_mut() {
                Some((l, b)) if *l == op.layer => *b += bytes,
                _ => layer_segments.push((op.layer, bytes)),
            }
            match breakdown.iter_mut().find(|(k, _)| *k == op.kind) {
                Some((_, b)) => *b += bytes,
                None => breakdown.push((op.kind, bytes)),
            }
            match beat_groups
                .iter_mut()
                .find(|(f, _)| *f == op.compute_fanout)
            {
                Some((_, b)) => *b += op.vpu_beats,
                None => beat_groups.push((op.compute_fanout, op.vpu_beats)),
            }
        }
        // `comp.*` telemetry appears only once compressed traffic is
        // actually priced (all-identity configurations stay invisible).
        self.mem.register_compression(&mut self.registry);
        // Memory time: the whole step's classed bursts streamed through
        // the memory system (and its compression stage, when one is set),
        // without materializing an intermediate Vec. Logical bytes are
        // the engine's accounting currency; the wall is wire time.
        let report = self.mem.transfer_classed(sched.ops.iter().flat_map(|o| {
            let class = stream_class_of(o.kind);
            o.bursts.iter().map(move |b| (*b, class))
        }));

        let vpu_cycles: u64 = beat_groups
            .iter()
            .map(|&(fanout, beats)| beats * self.accel.beat_cycles(fanout))
            .sum();
        let exposed = sched.total_exposed_misc();
        // Fused-pipeline bubbles: one VPU fill/drain per operation
        // boundary (dependency handoff).
        let bubbles = sched.ops.len() as u64 * self.vpu.pipeline_latency();
        let compute_ns = self.accel.cycles_to_ns(vpu_cycles + bubbles);
        let exposed_ns = self.accel.cycles_to_ns(exposed);
        // Weight-tier effects: walk the token's layer runs against the
        // flash timeline. Prefetch staging adds contention on the DDR bus
        // (it shares the controller with the decode stream); demand
        // misses and late prefetches stall the whole pipeline. The walk
        // paces itself by the tier-free wall — conservative, since the
        // real token is never faster than that.
        let (stall_ns, staging_ns) = match self.tier.as_mut() {
            Some(tier) => {
                let pace_ns = step_wall_ns(&report, 0.0, compute_ns, exposed_ns, 0.0);
                tier.walk_token(
                    &mut self.mem,
                    &layer_segments,
                    report.logical_bytes,
                    pace_ns,
                )
            }
            None => (0.0, 0.0),
        };
        let wall_ns =
            step_wall_ns(&report, staging_ns, compute_ns, exposed_ns, stall_ns) + draft_ns;
        let tokens_per_s = batch as f64 * 1e9 / wall_ns;
        let seq_tokens_per_s = 1e9 / wall_ns;
        let bandwidth_util = tokens_per_s / self.roofline_tokens_per_s;

        // Byte split for the amortization metrics, measured from the
        // schedule itself: per-sequence kinds scale with `batch`, the
        // rest is the shared weight stream paid once.
        let bytes_where = |keep: fn(OpKind) -> bool| -> u64 {
            breakdown
                .iter()
                .filter(|&&(kind, _)| keep(kind))
                .map(|&(_, b)| b)
                .sum()
        };
        let per_seq_bytes = bytes_where(OpKind::per_sequence);
        let shared_bytes = report.logical_bytes - per_seq_bytes;
        let kv_bytes = bytes_where(OpKind::is_kv);
        // `batch` independent decodes would stream the shared weights
        // `batch` times over, plus the same per-sequence traffic.
        let independent_bytes = shared_bytes * batch as u64 + per_seq_bytes;
        let weight_amortization = independent_bytes as f64 / report.logical_bytes as f64;
        let kv_share = kv_bytes as f64 / report.logical_bytes as f64;

        // Publish into the registry: counters accumulate across the run,
        // gauges reflect the most recent priced step. The DDR counters
        // were already bumped inside `transfer_classed()` via the shared
        // handles.
        self.metrics.tokens.add(batch as u64);
        self.metrics.bytes.add(report.logical_bytes);
        self.metrics.vpu_cycles.add(vpu_cycles);
        self.metrics.bubble_cycles.add(bubbles);
        self.metrics.exposed_misc_cycles.add(exposed);
        self.metrics.tokens_per_s.set(tokens_per_s);
        self.metrics.bandwidth_util.set(bandwidth_util);
        self.metrics.wall_ns.set(wall_ns);
        for &(kind, bytes) in &breakdown {
            self.metrics.kind_bytes(&mut self.registry, kind).add(bytes);
        }
        let ns_per_cycle = self.accel.cycles_to_ns(1);
        if let Some(tier) = self.tier.as_mut() {
            tier.publish(&mut self.registry, ns_per_cycle);
        }
        // Batch gauges appear only once a batched step has been priced,
        // so single-sequence snapshots (and the committed baseline) keep
        // exactly their pre-batching key set.
        if batch > 1 {
            self.registry.gauge("decode.batch.size").set(batch as f64);
            self.registry
                .gauge("decode.batch.seq_tokens_per_s")
                .set(seq_tokens_per_s);
            self.registry
                .gauge("decode.batch.weight_amortization")
                .set(weight_amortization);
            self.registry.gauge("decode.batch.kv_share").set(kv_share);
        }

        TokenReport {
            ctx: sched.ctx,
            batch,
            bytes: report.logical_bytes,
            mem_ns: report.wall_ns,
            vpu_cycles,
            exposed_misc_cycles: exposed,
            bubble_cycles: bubbles,
            wall_ns,
            tokens_per_s,
            seq_tokens_per_s,
            bandwidth_util,
            weight_amortization,
            kv_share,
            breakdown,
        }
    }

    /// Prices a generation run: contexts `start_ctx .. start_ctx + tokens`.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is zero.
    pub fn decode_run(&mut self, start_ctx: usize, tokens: usize) -> RunReport {
        assert!(tokens > 0, "at least one token required");
        let steps: Vec<TokenReport> = (0..tokens)
            .map(|i| self.decode_token(start_ctx + i))
            .collect();
        let total_ns: f64 = steps.iter().map(|s| s.wall_ns).sum();
        let tokens_per_s = tokens as f64 * 1e9 / total_ns;
        let bandwidth_util = tokens_per_s / self.roofline_tokens_per_s;
        self.registry
            .gauge("decode.run.tokens_per_s")
            .set(tokens_per_s);
        self.registry
            .gauge("decode.run.bandwidth_util")
            .set(bandwidth_util);
        RunReport {
            tokens,
            tokens_per_s,
            bandwidth_util,
            steps,
        }
    }

    /// Estimates the prefill phase on the paper's *vector* engine, which
    /// streams the full weight set for every prompt token (no reuse —
    /// the deliberate sacrifice of §VI-B). Sampled like
    /// [`Self::decode_run_sampled`].
    ///
    /// # Panics
    ///
    /// Panics if `prompt_len` is zero or exceeds capacity.
    pub fn prefill_vector_ns(&mut self, prompt_len: usize) -> f64 {
        assert!(prompt_len > 0, "empty prompt");
        let samples = prompt_len.min(4);
        let run = self.decode_run_sampled(prompt_len, samples);
        let mean_ns: f64 =
            run.steps.iter().map(|s| s.wall_ns).sum::<f64>() / run.steps.len() as f64;
        mean_ns * prompt_len as f64
    }

    /// Analytic estimate of the same prefill on a hypothetical *matrix*
    /// engine with `macs` multipliers: weights stream **once** (token
    /// batch shares the fetch), and the engine is compute-bound at
    /// `macs` MACs/cycle.
    ///
    /// On the KV260's DSP budget this buys almost nothing — prefill flops
    /// divided by the same multiplier count dominate either way — which
    /// is exactly why the paper spends the area on a bandwidth-matched
    /// vector engine instead.
    pub fn prefill_matrix_engine_ns(&self, prompt_len: usize, macs: usize) -> f64 {
        assert!(prompt_len > 0, "empty prompt");
        assert!(macs > 0, "at least one multiplier");
        let weight_bytes =
            memory::streamed_weight_bytes(&self.model, memory::WeightPrecision::W4G128);
        let mem_ns = weight_bytes / self.accel.axi.bandwidth_gbps();
        let flops = 2.0
            * (self.model.param_count() as f64
                - (self.model.vocab_size * self.model.d_model) as f64)
            * prompt_len as f64;
        let compute_ns = flops / (2.0 * macs as f64 * self.accel.freq_mhz * 1e6) * 1e9;
        mem_ns.max(compute_ns)
    }

    /// Prices a *sampled* long generation cheaply: simulates one token at
    /// each of `samples` evenly spaced context lengths in
    /// `[0, ctx_end)` and averages the per-token cost — accurate because
    /// cost is affine in context length.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero or `ctx_end` exceeds capacity.
    pub fn decode_run_sampled(&mut self, ctx_end: usize, samples: usize) -> RunReport {
        assert!(samples > 0, "at least one sample required");
        assert!(
            ctx_end <= self.image.ctx_capacity(),
            "context beyond capacity"
        );
        let step = (ctx_end.max(1) / samples).max(1);
        let steps: Vec<TokenReport> = (0..samples)
            .map(|i| self.decode_token((i * step).min(ctx_end.saturating_sub(1))))
            .collect();
        let mean_ns: f64 = steps.iter().map(|s| s.wall_ns).sum::<f64>() / steps.len() as f64;
        let tokens_per_s = 1e9 / mean_ns;
        let bandwidth_util = tokens_per_s / self.roofline_tokens_per_s;
        self.registry
            .gauge("decode.run.tokens_per_s")
            .set(tokens_per_s);
        self.registry
            .gauge("decode.run.bandwidth_util")
            .set(bandwidth_util);
        RunReport {
            tokens: samples,
            tokens_per_s,
            bandwidth_util,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineMode;
    use crate::image::KvLayout;
    use crate::schedule::token_schedule;

    fn small_engine(mode: PipelineMode) -> DecodeEngine {
        let accel = match mode {
            PipelineMode::Fused => AccelConfig::kv260(),
            PipelineMode::Coarse => AccelConfig::kv260_coarse(),
        };
        DecodeEngine::new(accel, &ModelConfig::test_small(), 32).expect("test model fits")
    }

    fn ratios(weight: f64, kv: f64, activation: f64) -> CompressionConfig {
        use zllm_ddr::compress::StreamRatio;
        CompressionConfig::with_ratios(
            StreamRatio::from_ratio(weight),
            StreamRatio::from_ratio(kv),
            StreamRatio::from_ratio(activation),
        )
    }

    /// A `test_small` engine on the KV260.
    fn engine(cfg: EngineConfig) -> DecodeEngine {
        DecodeEngine::build(AccelConfig::kv260(), &ModelConfig::test_small(), cfg)
            .expect("test model fits")
    }

    /// `batch` contiguous `test_small` slots of 32 tokens.
    fn batched(batch: usize) -> EngineConfig {
        EngineConfig::new(ImageSpec {
            batch,
            ..ImageSpec::new(32)
        })
    }

    /// 4 slots of 32 tokens in 16-token pages.
    fn paged() -> EngineConfig {
        EngineConfig::new(ImageSpec {
            batch: 4,
            kv: KvLayout::Paged { page_tokens: 16 },
            ..ImageSpec::new(32)
        })
    }

    /// A verify pass with one window per `(slot, ctx)` that drafts
    /// nothing: a decode step with speculation switched off.
    fn zero_draft_verify(engine: &mut DecodeEngine, slots: &[(usize, usize)]) -> TokenReport {
        let windows: Vec<SpecWindow> = slots
            .iter()
            .map(|&(slot, ctx)| SpecWindow {
                slot,
                ctx,
                drafted: 0,
                accepted: 0,
            })
            .collect();
        engine.decode_speculative(&windows, &DraftCost::FlatNs { ns_per_token: 0.0 })
    }

    /// A step on a four-slot engine; with `zero_draft`, a decode step is
    /// priced as a [`zero_draft_verify`] pass.
    type Step = fn(&mut DecodeEngine, bool) -> TokenReport;

    /// One step of each kind but single-sequence decode: a lockstep
    /// batch, a ragged step, a two-chunk prefill and a two-window verify
    /// with a synthetic draft.
    const STEP_KINDS: [Step; 4] = [
        |engine, zero_draft| match zero_draft {
            true => zero_draft_verify(engine, &[(0, 5), (1, 5), (2, 5), (3, 5)]),
            false => engine.decode_token_batch(5, 4),
        },
        |engine, zero_draft| {
            let ragged = [(0, 3), (2, 17), (3, 30)];
            match zero_draft {
                true => zero_draft_verify(engine, &ragged),
                false => engine.decode_token_ragged(&ragged),
            }
        },
        |engine, _| {
            engine.prefill_chunked(&[
                PrefillChunk {
                    slot: 1,
                    start: 0,
                    len: 16,
                },
                PrefillChunk {
                    slot: 3,
                    start: 4,
                    len: 9,
                },
            ])
        },
        |engine, _| {
            let windows = [
                SpecWindow {
                    slot: 0,
                    ctx: 14,
                    drafted: 4,
                    accepted: 1,
                },
                SpecWindow {
                    slot: 2,
                    ctx: 20,
                    drafted: 3,
                    accepted: 3,
                },
            ];
            let model = ModelConfig::test_small();
            engine.decode_speculative(&windows, &DraftCost::Synthetic { model })
        },
    ];

    /// Every [`STEP_KINDS`] step, in order.
    fn every_step_kind(engine: &mut DecodeEngine, zero_draft: bool) -> Vec<TokenReport> {
        STEP_KINDS
            .iter()
            .map(|step| step(engine, zero_draft))
            .collect()
    }

    /// One 64-token `test_small` sequence behind a schedule-aware eMMC
    /// tier that holds 1.5 layers, so every token stages layers from
    /// flash.
    fn thrashing() -> EngineConfig {
        let model = ModelConfig::test_small();
        let image = ModelImage::build(&model, AccelConfig::kv260().format, 64).expect("fits");
        let layer = (0..model.n_layers)
            .map(|l| image.layer_weight_bytes(l))
            .max()
            .expect("model has layers");
        let budget = (1.5 * layer as f64) as u64;
        EngineConfig {
            tier: Some(TierConfig::schedule_aware(
                zllm_ddr::FlashConfig::emmc_hs400(),
                budget,
            )),
            ..EngineConfig::new(ImageSpec::new(64))
        }
    }

    #[test]
    fn op_kind_classes_are_pinned() {
        use OpKind::*;
        use StreamClass::{Activation, Kv, Meta, Weight};
        // (kind, name, per-sequence, KV share, compression class)
        let table = [
            (Embedding, "embedding", true, false, Activation),
            (Qkv, "qkv", false, false, Weight),
            (KvRead, "kv_read", true, true, Kv),
            (KvWrite, "kv_write", true, true, Kv),
            (Wo, "wo", false, false, Weight),
            (Mlp, "mlp", false, false, Weight),
            (LmHead, "lm_head", false, false, Weight),
            (KvMetaFlush, "kv_meta_flush", true, true, Meta),
            (KvPtRead, "kv_pt_read", true, true, Meta),
            (KvPtWrite, "kv_pt_write", true, true, Meta),
            (KvMetaRollback, "kv_meta_rollback", true, true, Meta),
            (KvPtRollback, "kv_pt_rollback", true, true, Meta),
        ];
        for (kind, name, per_sequence, is_kv, class) in table {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.per_sequence(), per_sequence, "{name}");
            assert_eq!(kind.is_kv(), is_kv, "{name}");
            assert_eq!(stream_class_of(kind), class, "{name}");
        }
    }

    #[test]
    fn reports_are_self_consistent() {
        let mut engine = small_engine(PipelineMode::Fused);
        let r = engine.decode_token(4);
        assert!(r.bytes > 0);
        assert!(r.wall_ns >= r.mem_ns);
        assert!(r.tokens_per_s > 0.0);
        assert_eq!(r.exposed_misc_cycles, 0);
        assert!(r.bandwidth_util > 0.0 && r.bandwidth_util <= 1.0);
        // Breakdown covers every byte exactly once.
        let sum: u64 = r.breakdown.iter().map(|(_, b)| b).sum();
        assert_eq!(sum, r.bytes);
        assert!(r.bytes_for(OpKind::Mlp) > r.bytes_for(OpKind::KvRead));
    }

    #[test]
    fn repeated_step_prices_the_same_schedule() {
        let mut engine = small_engine(PipelineMode::Fused);
        let first = engine.decode_token(8);
        let again = engine.decode_token(8);
        // Only the DDR phase (refresh timing) may differ between the two
        // steps, never what the schedule describes.
        assert_eq!(first.bytes, again.bytes);
        assert_eq!(first.vpu_cycles, again.vpu_cycles);
        assert_eq!(first.breakdown, again.breakdown);
        // The breakdown matches a fresh aggregation of the raw schedule,
        // byte for byte and in first-appearance order.
        let sched = token_schedule(engine.image(), 8, PipelineMode::Fused);
        let mut expected: Vec<(OpKind, u64)> = Vec::new();
        for op in &sched.ops {
            match expected.iter_mut().find(|(k, _)| *k == op.kind) {
                Some((_, b)) => *b += op.bytes(),
                None => expected.push((op.kind, op.bytes())),
            }
        }
        assert_eq!(first.breakdown, expected);
    }

    #[test]
    fn coarse_is_slower_than_fused() {
        let mut fused = small_engine(PipelineMode::Fused);
        let mut coarse = small_engine(PipelineMode::Coarse);
        let rf = fused.decode_token(16);
        let rc = coarse.decode_token(16);
        assert!(
            rc.tokens_per_s < rf.tokens_per_s,
            "coarse {} should be slower than fused {}",
            rc.tokens_per_s,
            rf.tokens_per_s
        );
        assert!(rc.exposed_misc_cycles > 0);
    }

    #[test]
    fn longer_context_costs_more() {
        let mut engine = small_engine(PipelineMode::Fused);
        let short = engine.decode_token(1);
        let long = engine.decode_token(31);
        assert!(long.bytes > short.bytes);
        assert!(long.wall_ns > short.wall_ns * 0.99);
    }

    #[test]
    fn run_averages_steps() {
        let mut engine = small_engine(PipelineMode::Fused);
        let run = engine.decode_run(0, 8);
        assert_eq!(run.steps.len(), 8);
        assert!(run.tokens_per_s > 0.0);
        let min = run
            .steps
            .iter()
            .map(|s| s.tokens_per_s)
            .fold(f64::INFINITY, f64::min);
        let max = run.steps.iter().map(|s| s.tokens_per_s).fold(0.0, f64::max);
        assert!(run.tokens_per_s >= min * 0.99 && run.tokens_per_s <= max * 1.01);
    }

    #[test]
    fn sampled_run_tracks_exact_run() {
        let mut a = small_engine(PipelineMode::Fused);
        let mut b = small_engine(PipelineMode::Fused);
        let exact = a.decode_run(0, 16);
        let sampled = b.decode_run_sampled(16, 4);
        let rel = (sampled.tokens_per_s - exact.tokens_per_s).abs() / exact.tokens_per_s;
        assert!(
            rel < 0.15,
            "sampled {} vs exact {}",
            sampled.tokens_per_s,
            exact.tokens_per_s
        );
    }

    #[test]
    fn roofline_is_positive_and_exceeds_measured() {
        let engine = small_engine(PipelineMode::Fused);
        assert!(engine.roofline_tokens_per_s() > 0.0);
    }

    #[test]
    fn halving_lanes_halves_decode_speed() {
        let mut narrow = AccelConfig::kv260();
        narrow.lanes = 64;
        let base = DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::test_small(), 32)
            .expect("fits")
            .decode_token(8)
            .tokens_per_s;
        let slow = DecodeEngine::new(narrow, &ModelConfig::test_small(), 32)
            .expect("fits")
            .decode_token(8)
            .tokens_per_s;
        let ratio = base / slow;
        assert!((1.7..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn prefill_vector_vs_matrix_engine() {
        let mut engine =
            DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::test_small(), 64).expect("fits");
        let vector = engine.prefill_vector_ns(32);
        // Matrix engine with the same 128 multipliers: no meaningful win
        // on this compute-starved device (at most the bandwidth ratio).
        let matrix_same = engine.prefill_matrix_engine_ns(32, 128);
        assert!(
            matrix_same <= vector,
            "matrix {matrix_same} vs vector {vector}"
        );
        // A 16x bigger engine would help prefill substantially...
        let matrix_big = engine.prefill_matrix_engine_ns(32, 2048);
        assert!(matrix_big < matrix_same);
        // ...but even an infinite engine cannot beat the one-shot weight
        // stream time.
        let floor = engine.prefill_matrix_engine_ns(32, usize::MAX / 2);
        assert!(matrix_big >= floor * 0.999);
    }

    #[test]
    fn all_resident_tier_prices_identically_to_flat_engine() {
        // With a budget that holds every layer the tier fetches nothing,
        // stalls nothing and stages nothing — so a tiered engine must be
        // byte- and cycle-identical to the flat one, and must register
        // no tier metrics at all. This is what lets the `tiered.*`
        // scenario enter the perf baseline without perturbing any
        // pre-existing key.
        for policy in ["schedule_aware", "blind_lru"] {
            let mut flat = small_engine(PipelineMode::Fused);
            let flash = zllm_ddr::FlashConfig::emmc_hs400();
            let tier = match policy {
                "schedule_aware" => TierConfig::schedule_aware(flash, u64::MAX / 2),
                _ => TierConfig::blind_lru(flash, u64::MAX / 2),
            };
            let mut tiered = engine(EngineConfig {
                tier: Some(tier),
                ..EngineConfig::new(ImageSpec::new(32))
            });
            assert!(!tiered.image().is_tiered_virtual());
            for ctx in [0, 4, 15, 31] {
                let f = flat.decode_token(ctx);
                let t = tiered.decode_token(ctx);
                assert_eq!(f.bytes, t.bytes, "{policy} ctx {ctx}");
                assert_eq!(f.vpu_cycles, t.vpu_cycles, "{policy} ctx {ctx}");
                assert_eq!(f.bubble_cycles, t.bubble_cycles, "{policy} ctx {ctx}");
                assert_eq!(f.wall_ns, t.wall_ns, "{policy} ctx {ctx}");
                assert_eq!(f.tokens_per_s, t.tokens_per_s, "{policy} ctx {ctx}");
                assert_eq!(f.breakdown, t.breakdown, "{policy} ctx {ctx}");
            }
            let report = tiered.tier_report().expect("tiered engine");
            assert_eq!(report.demand_misses + report.prefetch_issued, 0);
            assert_eq!(report.flash_bytes, 0);
            assert_eq!(report.stall_ns, 0.0);
            let fs = flat.metrics_snapshot();
            let ts = tiered.metrics_snapshot();
            assert_eq!(fs.counters, ts.counters, "{policy}");
            assert_eq!(
                fs.gauges.keys().collect::<Vec<_>>(),
                ts.gauges.keys().collect::<Vec<_>>(),
                "{policy}"
            );
        }
    }

    #[test]
    fn identity_compression_prices_identically_to_plain_engine() {
        // All ratios at 1.0: the stage passes every burst through
        // untouched, stalls nothing, and registers no `comp.*` metrics —
        // so a compression-off run is bit-identical in reports, DDR byte
        // counters and snapshot keys. This is what lets the `comp.*`
        // scenario enter the perf baseline without perturbing any
        // pre-existing key.
        let identity = |cfg: EngineConfig| EngineConfig {
            compression: Some(CompressionConfig::identity()),
            ..cfg
        };
        let mut plain = small_engine(PipelineMode::Fused);
        let mut comp = engine(identity(EngineConfig::new(ImageSpec::new(32))));
        for ctx in [0, 4, 15, 31] {
            let p = plain.decode_token(ctx);
            let c = comp.decode_token(ctx);
            assert_eq!(p.bytes, c.bytes, "ctx {ctx}");
            assert_eq!(p.mem_ns.to_bits(), c.mem_ns.to_bits(), "ctx {ctx}");
            assert_eq!(p.wall_ns.to_bits(), c.wall_ns.to_bits(), "ctx {ctx}");
            assert_eq!(p.tokens_per_s, c.tokens_per_s, "ctx {ctx}");
            assert_eq!(p.breakdown, c.breakdown, "ctx {ctx}");
        }
        let (logical, wire, meta) = comp.compression_bytes().expect("stage enabled");
        assert_eq!(logical, wire);
        assert_eq!(meta, 0);
        let ps = plain.metrics_snapshot();
        let cs = comp.metrics_snapshot();
        assert_eq!(ps.counters, cs.counters);
        assert_eq!(
            ps.gauges.keys().collect::<Vec<_>>(),
            cs.gauges.keys().collect::<Vec<_>>()
        );

        // Every other step kind, on a paged engine.
        let mut plain = engine(paged());
        let mut comp = engine(identity(paged()));
        let steps = every_step_kind(&mut plain, false)
            .into_iter()
            .zip(every_step_kind(&mut comp, false));
        for (i, (p, c)) in steps.enumerate() {
            assert_eq!(p.bytes, c.bytes, "step {i}");
            assert_eq!(p.mem_ns.to_bits(), c.mem_ns.to_bits(), "step {i}");
            assert_eq!(p.wall_ns.to_bits(), c.wall_ns.to_bits(), "step {i}");
            assert_eq!(p.breakdown, c.breakdown, "step {i}");
        }
        assert_eq!(
            plain.metrics_snapshot().to_json(),
            comp.metrics_snapshot().to_json()
        );
    }

    #[test]
    fn compressed_steps_of_every_kind_are_pinned() {
        // One FNV-1a hash over every numeric field of each report and
        // each engine's snapshot JSON, through a non-identity stage on a
        // paged engine (every step kind) and on a thrashing tier (three
        // decode steps). Re-record it only for a change meant to move
        // compressed pricing, and say which one.
        fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
            bytes.iter().fold(hash, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        }
        fn fold_report(hash: u64, r: &TokenReport) -> u64 {
            let fields = [
                r.ctx as u64,
                r.batch as u64,
                r.bytes,
                r.mem_ns.to_bits(),
                r.vpu_cycles,
                r.exposed_misc_cycles,
                r.bubble_cycles,
                r.wall_ns.to_bits(),
                r.tokens_per_s.to_bits(),
                r.seq_tokens_per_s.to_bits(),
                r.bandwidth_util.to_bits(),
                r.weight_amortization.to_bits(),
                r.kv_share.to_bits(),
            ];
            fields
                .into_iter()
                .chain(r.breakdown.iter().map(|&(_, bytes)| bytes))
                .fold(hash, |h, v| fnv1a(h, &v.to_le_bytes()))
        }
        let cfg = ratios(1.7, 1.3, 1.1);
        let mut paged = engine(EngineConfig {
            compression: Some(cfg),
            ..paged()
        });
        let mut tiered = engine(EngineConfig {
            compression: Some(cfg),
            ..thrashing()
        });
        let mut hash = every_step_kind(&mut paged, false)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, fold_report);
        hash = fnv1a(hash, paged.metrics_snapshot().to_json().as_bytes());
        for ctx in 4..=6 {
            hash = fold_report(hash, &tiered.decode_token(ctx));
        }
        hash = fnv1a(hash, tiered.metrics_snapshot().to_json().as_bytes());
        assert_eq!(hash, 0x67e9_01d7_d8a9_d513, "pin moved to {hash:#018x}");
    }

    #[test]
    fn step_gauges_agree_with_the_report_for_every_step_kind() {
        // After every step kind the step gauges hold the report's own
        // numbers, bit for bit: a verify step's draft time is part of the
        // one wall both are derived from.
        let flat_verify: Step = |engine, _| {
            let window = SpecWindow {
                slot: 1,
                ctx: 6,
                drafted: 3,
                accepted: 1,
            };
            let draft = DraftCost::FlatNs {
                ns_per_token: 2_500.0,
            };
            engine.decode_speculative(&[window], &draft)
        };
        let mut engine = engine(paged());
        for (i, step) in STEP_KINDS.iter().chain([&flat_verify]).enumerate() {
            let r = step(&mut engine, false);
            let gauges = engine.metrics_snapshot().gauges;
            let mut want = vec![
                ("decode.wall_ns", r.wall_ns),
                ("decode.tokens_per_s", r.tokens_per_s),
                ("decode.bandwidth_util", r.bandwidth_util),
            ];
            if r.batch > 1 {
                want.push(("decode.batch.size", r.batch as f64));
                want.push(("decode.batch.seq_tokens_per_s", r.seq_tokens_per_s));
            }
            for (name, value) in want {
                assert_eq!(gauges[name].to_bits(), value.to_bits(), "step {i}: {name}");
            }
        }
    }

    #[test]
    fn staging_and_draft_traffic_bypass_the_compression_stage() {
        // Synthetic draft and tier staging are priced with
        // `MemorySystem::transfer_iter`, which the stage never sees: they
        // move the same bytes with it on, and the stage's logical bytes
        // are exactly the priced steps' bytes.
        let model = ModelConfig::test_small();
        let cfg = ratios(2.0, 1.5, 1.2);
        let window = [SpecWindow {
            slot: 0,
            ctx: 8,
            drafted: 3,
            accepted: 2,
        }];
        let draft = DraftCost::Synthetic {
            model: model.clone(),
        };
        let mut plain = DecodeEngine::new(AccelConfig::kv260(), &model, 32).expect("fits");
        let mut comp =
            DecodeEngine::new_compressed(AccelConfig::kv260(), &model, 32, cfg).expect("fits");
        plain.decode_speculative(&window, &draft);
        let verify = comp.decode_speculative(&window, &draft);
        let draft_bytes = |e: &DecodeEngine| e.metrics_snapshot().counters["spec.draft.bytes"];
        assert!(draft_bytes(&plain) > 0);
        assert_eq!(draft_bytes(&comp), draft_bytes(&plain));
        assert_eq!(comp.compression_bytes().expect("stage set").0, verify.bytes);

        let mut plain = engine(thrashing());
        let mut comp = engine(EngineConfig {
            compression: Some(cfg),
            ..thrashing()
        });
        let mut step_bytes = 0;
        for ctx in 4..=6 {
            plain.decode_token(ctx);
            step_bytes += comp.decode_token(ctx).bytes;
        }
        assert!(comp.tier_report().expect("tiered engine").flash_bytes > 0);
        let writes = |e: &DecodeEngine| e.metrics_snapshot().counters["ddr.port0.writes"];
        assert_eq!(writes(&comp), writes(&plain));
        assert_eq!(comp.compression_bytes().expect("stage set").0, step_bytes);
    }

    #[test]
    fn off_switches_alone_and_in_pairs_price_identically_to_the_base() {
        // Every feature switched off must stay byte-invisible, also beside
        // any other: a covering tier budget, identity compression, a
        // full-range layer slice and verify windows that draft nothing,
        // each alone and in every pair, on a contiguous one-sequence base
        // (four decode steps) and on a paged four-slot base (every step
        // kind). Reports must equal the base's to the bit (their Debug
        // text round-trips every float) and so must the snapshot. A
        // zero-draft window is still a window, so with that switch on the
        // `spec.*` counts differ by design and are left out on both sides.
        type Switch = (&'static str, fn(&mut EngineConfig, &mut bool));
        let switches: [Switch; 4] = [
            ("covering tier", |cfg, _| {
                let flash = zllm_ddr::FlashConfig::emmc_hs400();
                cfg.tier = Some(TierConfig::schedule_aware(flash, u64::MAX / 2));
            }),
            ("identity compression", |cfg, _| {
                cfg.compression = Some(CompressionConfig::identity());
            }),
            ("full layer range", |cfg, _| {
                cfg.image.layers = Some(0..ModelConfig::test_small().n_layers);
            }),
            ("zero-draft verify", |_, zero_draft| *zero_draft = true),
        ];
        let priced = |cfg: EngineConfig, zero_draft: bool| {
            let mut engine = engine(cfg);
            let reports = if engine.image().batch() >= 4 {
                every_step_kind(&mut engine, zero_draft)
            } else {
                [0, 4, 15, 31]
                    .into_iter()
                    .map(|ctx| match zero_draft {
                        true => zero_draft_verify(&mut engine, &[(0, ctx)]),
                        false => engine.decode_token(ctx),
                    })
                    .collect()
            };
            (format!("{reports:?}"), engine.metrics_snapshot())
        };
        let json = |mut snap: Snapshot, without_spec: bool| {
            if without_spec {
                snap.counters.retain(|k, _| !k.starts_with("spec."));
                snap.gauges.retain(|k, _| !k.starts_with("spec."));
            }
            snap.to_json()
        };
        let bases: [fn() -> EngineConfig; 2] = [|| batched(1), paged];
        for base in bases {
            let base_name = format!("{:?}", base().image.kv);
            let (want, want_snap) = priced(base(), false);
            for i in 0..switches.len() {
                for j in i..switches.len() {
                    let (mut cfg, mut zero_draft) = (base(), false);
                    switches[i].1(&mut cfg, &mut zero_draft);
                    switches[j].1(&mut cfg, &mut zero_draft);
                    let row = match i == j {
                        true => format!("{base_name} base, {}", switches[i].0),
                        false => format!("{base_name} base, {} + {}", switches[i].0, switches[j].0),
                    };
                    let (got, got_snap) = priced(cfg, zero_draft);
                    assert_eq!(got, want, "{row}: reports");
                    assert_eq!(
                        json(got_snap, zero_draft),
                        json(want_snap.clone(), zero_draft),
                        "{row}: snapshot"
                    );
                }
            }
        }
    }

    #[test]
    fn compression_shrinks_wire_traffic_and_registers_metrics() {
        let mut plain = small_engine(PipelineMode::Fused);
        let mut comp = engine(EngineConfig {
            compression: Some(ratios(2.0, 1.2, 1.1)),
            ..EngineConfig::new(ImageSpec::new(32))
        });
        // `comp.*` appears only once compressed traffic flows.
        assert!(!comp
            .metrics_snapshot()
            .counters
            .keys()
            .any(|k| k.starts_with("comp.")));
        let p = plain.decode_token(8);
        let c = comp.decode_token(8);
        // Logical accounting is unchanged; wire traffic shrinks; the
        // memory term (wire time + decomp stall) is cheaper than the
        // uncompressed stream on this memory-bound schedule.
        assert_eq!(p.bytes, c.bytes);
        assert_eq!(p.breakdown, c.breakdown);
        let (logical, wire, meta) = comp.compression_bytes().expect("stage enabled");
        assert_eq!(logical, p.bytes);
        assert!(wire < logical, "wire {wire} !< logical {logical}");
        assert!(meta <= logical / 64);
        let snap = comp.metrics_snapshot();
        assert_eq!(snap.counters.get("comp.bytes.logical"), Some(&logical));
        assert_eq!(snap.counters.get("comp.bytes.wire"), Some(&wire));
        assert!(snap.gauges.contains_key("comp.ratio.weight"));
        // The DDR controller saw fewer column accesses than the plain
        // engine's.
        assert!(comp.mem.stats().reads < plain.mem.stats().reads);
    }

    #[test]
    fn batch_of_one_prices_identically_to_single_sequence() {
        // An engine provisioned for one sequence must be byte- and
        // cycle-identical to the pre-batching engine (same image layout,
        // so even DDR row dynamics match) — this is what keeps the
        // committed perf baseline valid.
        let mut single = small_engine(PipelineMode::Fused);
        let mut one = engine(batched(1));
        for ctx in [0, 4, 15, 31] {
            let s = single.decode_token(ctx);
            let b = one.decode_token_batch(ctx, 1);
            assert_eq!(b.batch, 1);
            assert_eq!(s.bytes, b.bytes);
            assert_eq!(s.vpu_cycles, b.vpu_cycles);
            assert_eq!(s.bubble_cycles, b.bubble_cycles);
            assert_eq!(s.wall_ns, b.wall_ns);
            assert_eq!(s.tokens_per_s, b.tokens_per_s);
            assert_eq!(b.tokens_per_s, b.seq_tokens_per_s);
            assert_eq!(b.weight_amortization, 1.0);
            assert_eq!(s.breakdown, b.breakdown);
        }
        let ss = single.metrics_snapshot();
        let bs = one.metrics_snapshot();
        assert_eq!(ss.counters, bs.counters);
        assert_eq!(
            ss.gauges.keys().collect::<Vec<_>>(),
            bs.gauges.keys().collect::<Vec<_>>()
        );

        // An engine provisioned for a *bigger* batch places KV regions at
        // different addresses (row locality may shift), but everything
        // the schedule determines is still identical at B = 1 — and no
        // decode.batch.* gauges leak into the snapshot.
        let mut wide = engine(batched(4));
        for ctx in [0, 4, 15, 31] {
            let b = wide.decode_token_batch(ctx, 1);
            let s = single.decode_token(ctx);
            assert_eq!(s.bytes, b.bytes);
            assert_eq!(s.vpu_cycles, b.vpu_cycles);
            assert_eq!(s.bubble_cycles, b.bubble_cycles);
            assert_eq!(s.breakdown, b.breakdown);
        }
        let ws = wide.metrics_snapshot();
        for key in ss.counters.keys().filter(|k| !k.starts_with("ddr.")) {
            assert_eq!(ss.counters[key], ws.counters[key], "counter {key}");
        }
        assert_eq!(
            ss.gauges.keys().collect::<Vec<_>>(),
            ws.gauges.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn batched_step_amortizes_weights_and_grows_kv_share() {
        let mut engine = engine(batched(8));
        let b1 = engine.decode_token_batch(16, 1);
        let b4 = engine.decode_token_batch(16, 4);
        let b8 = engine.decode_token_batch(16, 8);
        // Weight bytes are shared: total bytes grow far slower than B.
        assert!(b4.bytes < b1.bytes * 4);
        assert!(b4.weight_amortization > 3.0 && b4.weight_amortization <= 4.0);
        assert!(b8.weight_amortization > b4.weight_amortization);
        assert!(b8.kv_share > b4.kv_share && b4.kv_share > b1.kv_share);
        // On the balanced engine every shared beat now costs B cycles, so
        // aggregate throughput is ~flat (the paper's deliberate design).
        assert!(b4.tokens_per_s < b1.tokens_per_s * 1.3);
        assert!(b4.seq_tokens_per_s < b1.tokens_per_s);
        // KV share measured from the same breakdown that sums to bytes.
        let sum: u64 = b4.breakdown.iter().map(|(_, b)| b).sum();
        assert_eq!(sum, b4.bytes);
        // Gauges for the batch view exist once a batched step ran.
        let snap = engine.metrics_snapshot();
        assert!(snap.gauges.contains_key("decode.batch.weight_amortization"));
        assert_eq!(snap.counters["decode.tokens"], 1 + 4 + 8);
    }

    #[test]
    fn batched_compute_scales_on_shared_beats_only() {
        let mut engine = engine(batched(4));
        let b1 = engine.decode_token_batch(16, 1);
        let b4 = engine.decode_token_batch(16, 4);
        // Shared weight beats cost 4x; per-sequence KV beats are 4x as
        // many but still one cycle each — so total VPU cycles are exactly
        // 4x the single-sequence count on the balanced engine.
        assert_eq!(b4.vpu_cycles, b1.vpu_cycles * 4);
    }

    #[test]
    fn uniform_ragged_step_prices_like_lockstep() {
        let mut engine = engine(batched(4));
        let lock = engine.decode_token_batch(8, 4);
        let ragged = engine.decode_token_ragged(&[(0, 8), (1, 8), (2, 8), (3, 8)]);
        assert_eq!(lock.bytes, ragged.bytes);
        assert_eq!(lock.vpu_cycles, ragged.vpu_cycles);
        assert_eq!(lock.bubble_cycles, ragged.bubble_cycles);
        assert_eq!(lock.weight_amortization, ragged.weight_amortization);
        assert_eq!(lock.kv_share, ragged.kv_share);
        assert_eq!(lock.breakdown, ragged.breakdown);
    }

    #[test]
    fn ragged_step_prices_each_sequence_at_its_own_context() {
        let mut engine = engine(batched(4));
        let ragged = engine.decode_token_ragged(&[(0, 2), (1, 30), (3, 0)]);
        assert_eq!(ragged.batch, 3);
        assert_eq!(ragged.ctx, 30, "reported ctx is the longest sequence's");
        // Per-sequence KV bytes equal the sum of each member's own cost —
        // strictly less than padding everyone to ctx 30.
        let kv_bytes = |r: &TokenReport| {
            [OpKind::KvRead, OpKind::KvWrite, OpKind::KvMetaFlush]
                .into_iter()
                .map(|k| r.bytes_for(k))
                .sum::<u64>()
        };
        let kv_expected: u64 = [2usize, 30, 0]
            .iter()
            .map(|&c| kv_bytes(&engine.decode_token_batch(c, 1)))
            .sum();
        assert_eq!(kv_bytes(&ragged), kv_expected);
        let padded = engine.decode_token_batch(30, 3);
        assert!(ragged.bytes < padded.bytes, "raggedness avoids pad traffic");
        // A repeated ragged step is rebuilt and prices the same schedule.
        let again = engine.decode_token_ragged(&[(0, 2), (1, 30), (3, 0)]);
        assert_eq!(again.bytes, ragged.bytes);
        assert_eq!(again.vpu_cycles, ragged.vpu_cycles);
    }

    #[test]
    fn paged_engine_prices_page_tables_and_contiguous_stays_pristine() {
        let mut flat = engine(batched(4));
        let mut paged = engine(paged());
        assert!(paged.image().is_paged());
        let f = flat.decode_token_ragged(&[(0, 5), (1, 17)]);
        let p = paged.decode_token_ragged(&[(0, 5), (1, 17)]);
        // Paging adds page-table metadata traffic and nothing else.
        let pt = p.bytes_for(OpKind::KvPtRead) + p.bytes_for(OpKind::KvPtWrite);
        assert_eq!(p.bytes - pt, f.bytes);
        assert!(p.bytes_for(OpKind::KvPtRead) > 0);
        assert_eq!(p.vpu_cycles, f.vpu_cycles);
        assert!(p.kv_share > f.kv_share, "tables count as KV traffic");
        // The per-kind counters exist only on the paged engine.
        let snap = paged.metrics_snapshot();
        assert!(snap.counters.contains_key("decode.bytes.kv_pt_read"));
        let fsnap = flat.metrics_snapshot();
        assert!(!fsnap.counters.contains_key("decode.bytes.kv_pt_read"));
    }

    #[test]
    fn paged_rejection_across_a_page_boundary_prices_the_truncation() {
        // Positions 14..=22 are verified and all drafts rejected: the
        // page-table entry appended at p = 16 is truncated again.
        let mut engine = engine(paged());
        engine.decode_speculative(
            &[SpecWindow {
                slot: 0,
                ctx: 14,
                drafted: 8,
                accepted: 0,
            }],
            &DraftCost::FlatNs { ns_per_token: 0.0 },
        );
        let counters = engine.metrics_snapshot().counters;
        assert!(counters["decode.bytes.kv_pt_rollback"] > 0);
        let per_kind: u64 = counters
            .iter()
            .filter(|(name, _)| name.starts_with("decode.bytes."))
            .map(|(_, bytes)| bytes)
            .sum();
        assert_eq!(per_kind, counters["decode.bytes"]);
    }

    #[test]
    fn chunked_prefill_beats_token_by_token_bytes() {
        let mut engine = engine(batched(2));
        let chunk = engine.prefill_chunked(&[crate::schedule::PrefillChunk {
            slot: 0,
            start: 0,
            len: 16,
        }]);
        assert_eq!(chunk.batch, 16, "reports prompt tokens");
        // Token-by-token prefill streams the weights 16 times over.
        let serial_bytes: u64 = (0..16).map(|c| engine.decode_token_batch(c, 1).bytes).sum();
        assert!(chunk.bytes < serial_bytes / 8, "weights fetched once");
        assert!(chunk.weight_amortization > 8.0);
        assert!(chunk.tokens_per_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate slot in ragged schedule")]
    fn ragged_duplicate_slot_panics() {
        let mut engine = engine(batched(4));
        let _ = engine.decode_token_ragged(&[(1, 4), (1, 6)]);
    }

    #[test]
    #[should_panic(expected = "batch beyond image batch provisioning")]
    fn batch_beyond_provisioning_panics() {
        let mut engine = small_engine(PipelineMode::Fused);
        let _ = engine.decode_token_batch(4, 2);
    }

    #[test]
    fn batching_is_flat_on_the_balanced_engine_but_scales_with_lanes() {
        // The paper's engine matches compute to bandwidth exactly, so
        // batching buys (almost) nothing — by design.
        let batched = |accel: AccelConfig| {
            DecodeEngine::build(accel, &ModelConfig::test_small(), batched(8)).expect("fits")
        };
        let mut balanced = batched(AccelConfig::kv260());
        let t1 = balanced.decode_token_batch(8, 1).tokens_per_s;
        let t8 = balanced.decode_token_batch(8, 8).tokens_per_s;
        assert!(
            t8 < t1 * 1.3,
            "balanced engine should have no batching headroom: {t8} vs {t1}"
        );

        // A compute-rich (server-class) engine amortizes the weight
        // stream and scales until the fabric binds.
        let mut rich_cfg = AccelConfig::kv260();
        rich_cfg.lanes = 1024;
        let mut rich = batched(rich_cfg);
        let r1 = rich.decode_token_batch(8, 1).tokens_per_s;
        let r8 = rich.decode_token_batch(8, 8).tokens_per_s;
        assert!(
            r8 > r1 * 3.0,
            "compute-rich engine should batch well: {r8} vs {r1}"
        );
    }

    #[test]
    fn speculative_zero_draft_window_prices_like_plain_decode() {
        let mut plain = small_engine(PipelineMode::Fused);
        let mut spec = small_engine(PipelineMode::Fused);
        let p = plain.decode_token(8);
        let s = spec.decode_speculative(
            &[SpecWindow {
                slot: 0,
                ctx: 8,
                drafted: 0,
                accepted: 0,
            }],
            &DraftCost::FlatNs { ns_per_token: 0.0 },
        );
        assert_eq!(s.batch, 1);
        assert_eq!(s.bytes, p.bytes);
        assert_eq!(s.vpu_cycles, p.vpu_cycles);
        assert_eq!(s.bubble_cycles, p.bubble_cycles);
        assert_eq!(s.breakdown, p.breakdown);
    }

    #[test]
    fn spec_metrics_appear_only_after_a_speculative_step() {
        let mut engine = small_engine(PipelineMode::Fused);
        engine.decode_token(4);
        let snap = engine.metrics_snapshot();
        assert!(!snap.counters.keys().any(|k| k.starts_with("spec.")));
        assert!(!snap.gauges.keys().any(|k| k.starts_with("spec.")));
        engine.decode_speculative(
            &[SpecWindow {
                slot: 0,
                ctx: 5,
                drafted: 2,
                accepted: 1,
            }],
            &DraftCost::FlatNs { ns_per_token: 50.0 },
        );
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counters["spec.windows"], 1);
        assert_eq!(snap.counters["spec.tokens.drafted"], 2);
        assert_eq!(snap.counters["spec.tokens.accepted"], 1);
        assert_eq!(snap.counters["spec.tokens.committed"], 2);
        assert_eq!(
            snap.counters["spec.draft.bytes"], 0,
            "flat draft moves no bytes"
        );
        assert!((snap.gauges["spec.draft_ns"] - 100.0).abs() < 1e-9);
        assert!(snap.gauges["spec.bytes_per_committed_token"] > 0.0);
    }

    #[test]
    fn speculation_multiplies_throughput_on_a_compute_rich_engine() {
        let window = [SpecWindow {
            slot: 0,
            ctx: 8,
            drafted: 4,
            accepted: 4,
        }];
        let free_draft = DraftCost::FlatNs { ns_per_token: 0.0 };
        // Lanes-widened engine: the weight stream is fetched once and the
        // fanout headroom turns it into ~5 committed tokens per stream.
        let mut rich_cfg = AccelConfig::kv260();
        rich_cfg.lanes = 1024;
        let mut rich = DecodeEngine::new(rich_cfg, &ModelConfig::test_small(), 32).expect("fits");
        let plain = rich.decode_token(8);
        let spec = rich.decode_speculative(&window, &free_draft);
        assert_eq!(spec.batch, 5, "accepted + bonus tokens commit");
        assert!(spec.bytes < plain.bytes * 2, "one weight stream, not five");
        assert!(
            spec.tokens_per_s > plain.tokens_per_s * 3.0,
            "spec {} vs plain {}",
            spec.tokens_per_s,
            plain.tokens_per_s
        );
        // The paper's bandwidth-area balanced engine has no fanout
        // headroom by design: every shared beat costs K+1 cycles, so
        // speculation buys (almost) nothing there.
        let mut balanced = small_engine(PipelineMode::Fused);
        let bp = balanced.decode_token(8);
        let bs = balanced.decode_speculative(&window, &free_draft);
        assert!(
            bs.tokens_per_s < bp.tokens_per_s * 1.5,
            "balanced engine should have no speculation headroom: {} vs {}",
            bs.tokens_per_s,
            bp.tokens_per_s
        );
    }

    #[test]
    fn flat_draft_cost_extends_wall_without_moving_bytes() {
        let window = [SpecWindow {
            slot: 0,
            ctx: 8,
            drafted: 4,
            accepted: 2,
        }];
        let mut free = small_engine(PipelineMode::Fused);
        let mut paid = small_engine(PipelineMode::Fused);
        let f = free.decode_speculative(&window, &DraftCost::FlatNs { ns_per_token: 0.0 });
        let p = paid.decode_speculative(
            &window,
            &DraftCost::FlatNs {
                ns_per_token: 10_000.0,
            },
        );
        assert_eq!(f.bytes, p.bytes);
        assert!((p.wall_ns - f.wall_ns - 40_000.0).abs() < 1e-6);
        assert!(p.tokens_per_s < f.tokens_per_s);
    }

    #[test]
    fn synthetic_draft_prices_real_ddr_traffic() {
        let window = [SpecWindow {
            slot: 0,
            ctx: 8,
            drafted: 3,
            accepted: 3,
        }];
        let mut flat = small_engine(PipelineMode::Fused);
        let mut syn = small_engine(PipelineMode::Fused);
        let f = flat.decode_speculative(&window, &DraftCost::FlatNs { ns_per_token: 0.0 });
        let s = syn.decode_speculative(
            &window,
            &DraftCost::Synthetic {
                model: ModelConfig::test_small(),
            },
        );
        // The report's bytes cover the verify stream only; the draft's
        // traffic is accounted separately and costs wall time.
        assert_eq!(s.bytes, f.bytes);
        assert!(s.wall_ns > f.wall_ns);
        let snap = syn.metrics_snapshot();
        assert!(snap.counters["spec.draft.bytes"] > 0);
        assert!(snap.gauges["spec.draft_ns"] > 0.0);
        // The draft image is cached: a second step reuses it.
        let again = syn.decode_speculative(
            &window,
            &DraftCost::Synthetic {
                model: ModelConfig::test_small(),
            },
        );
        assert_eq!(again.bytes, s.bytes);
    }
}
