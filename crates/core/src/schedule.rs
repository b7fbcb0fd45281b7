//! The per-token memory/compute operation schedule.
//!
//! For each decoded token the MCU issues a fixed sequence of bursts:
//! the embedding row, then per layer the seven projections interleaved
//! with the KV-cache history reads and the current token's KV write-back,
//! then the LM head. Every operation carries its VPU beat count and — for
//! the coarse-pipeline baseline — the miscellaneous SPU cycles that would
//! be *exposed* without operator fusion (§V-A).
//!
//! One builder, [`chunked_prefill_schedule`], emits that sequence for any
//! set of per-sequence position spans. A decode step is a one-token chunk
//! per sequence ([`ragged_token_schedule`] and its uniform adapters); a
//! speculative verify step is a `K+1`-token chunk per window plus
//! rollback metadata ([`speculative_verify_schedule`]).

use crate::config::PipelineMode;
use crate::image::ModelImage;
use std::ops::Range;
use zllm_layout::BurstDescriptor;

/// What an operation moves. The kind names its `decode.bytes.{name}`
/// counter and decides whether its bytes scale with the batch, count as
/// KV traffic, and which compression stream class they travel in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Embedding-table rows, one per token produced.
    Embedding,
    /// A layer's Q, K and V projections.
    Qkv,
    /// One sequence's K and V history reads in one layer.
    KvRead,
    /// One sequence's K and V write-backs in one layer.
    KvWrite,
    /// A layer's output projection.
    Wo,
    /// A layer's gate, up and down projections.
    Mlp,
    /// The LM head projection.
    LmHead,
    /// Scale-zero metadata of every completed 16-token window.
    KvMetaFlush,
    /// Page-table lookups, one per sequence (paged images).
    KvPtRead,
    /// Page-table appends for freshly started pages (paged images).
    KvPtWrite,
    /// Scale-zero rewrites invalidating a rejected speculative suffix.
    KvMetaRollback,
    /// Page-table truncation of a rejected speculative suffix (paged
    /// images).
    KvPtRollback,
}

impl OpKind {
    /// The kind's name, as in the `decode.bytes.{name}` counters.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Embedding => "embedding",
            OpKind::Qkv => "qkv",
            OpKind::KvRead => "kv_read",
            OpKind::KvWrite => "kv_write",
            OpKind::Wo => "wo",
            OpKind::Mlp => "mlp",
            OpKind::LmHead => "lm_head",
            OpKind::KvMetaFlush => "kv_meta_flush",
            OpKind::KvPtRead => "kv_pt_read",
            OpKind::KvPtWrite => "kv_pt_write",
            OpKind::KvMetaRollback => "kv_meta_rollback",
            OpKind::KvPtRollback => "kv_pt_rollback",
        }
    }

    /// Whether the traffic is paid once **per sequence** (each sequence
    /// decodes its own tokens and owns its own KV region). The rest is
    /// the shared weight stream, paid once per step.
    pub fn per_sequence(self) -> bool {
        !matches!(
            self,
            OpKind::Qkv | OpKind::Wo | OpKind::Mlp | OpKind::LmHead
        )
    }

    /// Whether the traffic belongs to the KV cache: history reads,
    /// write-backs and all their metadata (scale-zero packs, page tables,
    /// rollbacks).
    pub fn is_kv(self) -> bool {
        self.per_sequence() && self != OpKind::Embedding
    }
}

/// One scheduled operation.
#[derive(Debug, Clone)]
pub struct MemOp {
    /// What the operation moves.
    pub kind: OpKind,
    /// The image layer the operation belongs to; `None` for embedding,
    /// LM-head and step-wide metadata traffic.
    pub layer: Option<usize>,
    /// The bursts this operation issues.
    pub bursts: Vec<BurstDescriptor>,
    /// Beats the VPU consumes (one per cycle at fanout 1).
    pub vpu_beats: u64,
    /// SPU cycles serialized after this op in the coarse pipeline
    /// (zero in the fused pipeline, where they hide under the next dense
    /// stream).
    pub exposed_misc: u64,
    /// Tokens whose activations multiply against this stream's beats.
    /// Shared weight streams carry every token of the step (`fanout = B`,
    /// each beat's codes retire against `B` activation vectors); a KV
    /// history read feeds its own chunk's tokens, and embedding rows and
    /// write-backs feed no fan-out (`fanout = 1`).
    pub compute_fanout: u32,
}

impl MemOp {
    /// An operation whose read beats stream through the VPU against
    /// `fanout` activation vectors; write bursts feed no compute.
    fn new(kind: OpKind, layer: Option<usize>, bursts: Vec<BurstDescriptor>, fanout: u32) -> MemOp {
        let vpu_beats = bursts
            .iter()
            .filter(|b| !b.write)
            .map(|b| b.beats as u64)
            .sum();
        MemOp {
            kind,
            layer,
            bursts,
            vpu_beats,
            exposed_misc: 0,
            compute_fanout: fanout,
        }
    }

    /// A page-table operation: its bursts are priced as real DDR traffic
    /// but feed no VPU compute.
    fn meta(kind: OpKind, bursts: Vec<BurstDescriptor>) -> MemOp {
        MemOp {
            vpu_beats: 0,
            ..MemOp::new(kind, None, bursts, 1)
        }
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bursts.iter().map(BurstDescriptor::bytes).sum()
    }
}

/// The complete schedule of one step.
#[derive(Debug, Clone)]
pub struct TokenSchedule {
    /// Operations in issue order.
    pub ops: Vec<MemOp>,
    /// The highest position the step writes KV for (for a decode step,
    /// the longest sequence's context).
    pub ctx: usize,
    /// Tokens the step produces or commits: one per sequence for a decode
    /// step, every prompt token for a prefill step, the committed tokens
    /// for a verify step.
    pub batch: usize,
}

impl TokenSchedule {
    /// Total bytes moved in this step.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(MemOp::bytes).sum()
    }

    /// Total VPU beats.
    pub fn total_vpu_beats(&self) -> u64 {
        self.ops.iter().map(|o| o.vpu_beats).sum()
    }

    /// Total exposed miscellaneous cycles (coarse mode only).
    pub fn total_exposed_misc(&self) -> u64 {
        self.ops.iter().map(|o| o.exposed_misc).sum()
    }
}

/// Builds the schedule for decoding one token with `ctx` tokens already
/// cached (position `ctx` is being produced; its KV is written back).
///
/// # Panics
///
/// Panics if `ctx >= image.ctx_capacity()`.
pub fn token_schedule(image: &ModelImage, ctx: usize, mode: PipelineMode) -> TokenSchedule {
    batched_token_schedule(image, ctx, 1, mode)
}

/// Builds the schedule for decoding one token for each of `batch`
/// lockstep sequences in slots `0..batch`, all at context length `ctx`
/// (the uniform [`ragged_token_schedule`]).
///
/// # Panics
///
/// Panics if `ctx >= image.ctx_capacity()`, if `batch == 0`, or if
/// `batch > image.batch()` (the image does not provision KV space for
/// that many sequences).
pub fn batched_token_schedule(
    image: &ModelImage,
    ctx: usize,
    batch: usize,
    mode: PipelineMode,
) -> TokenSchedule {
    let slots: Vec<(usize, usize)> = (0..batch).map(|s| (s, ctx)).collect();
    ragged_token_schedule(image, &slots, mode)
}

/// Builds the schedule for decoding one token for each sequence in
/// `slots`, where each `(slot, ctx)` pair names the KV slot a sequence
/// occupies and *that sequence's own* context length — the continuous-
/// batching step.
///
/// A decode step is a one-token [`chunked_prefill_schedule`] chunk per
/// sequence: shared weight streams appear once with their compute fanned
/// out to every sequence, while the embedding row, KV history read, KV
/// write-back, metadata flush and page-table traffic are sized by each
/// sequence's own position, so a step may mix a 3-token-old joiner with
/// a 200-token veteran without padding either.
///
/// # Panics
///
/// Panics if `slots` is empty, contains a duplicate slot, a slot at or
/// beyond `image.batch()`, or a context at or beyond
/// `image.ctx_capacity()`.
pub fn ragged_token_schedule(
    image: &ModelImage,
    slots: &[(usize, usize)],
    mode: PipelineMode,
) -> TokenSchedule {
    assert!(!slots.is_empty(), "batch must be at least one sequence");
    for (i, &(slot, _)) in slots.iter().enumerate() {
        assert!(
            !slots[..i].iter().any(|&(s, _)| s == slot),
            "duplicate slot in ragged schedule"
        );
    }
    let chunks: Vec<PrefillChunk> = slots
        .iter()
        .map(|&(slot, ctx)| PrefillChunk {
            slot,
            start: ctx,
            len: 1,
        })
        .collect();
    chunked_prefill_schedule(image, &chunks, mode)
}

/// One contiguous span of a sequence's positions processed in a single
/// step: tokens `start .. start + len` of the sequence occupying KV slot
/// `slot`. A decode step is a chunk of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefillChunk {
    /// KV slot the sequence occupies.
    pub slot: usize,
    /// First position this chunk covers (tokens `0..start` are already
    /// cached from earlier steps).
    pub start: usize,
    /// Tokens in this chunk (> 0).
    pub len: usize,
}

impl PrefillChunk {
    /// The positions the chunk writes.
    fn span(&self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// The scale-zero flush bursts of every 16-token window that `positions`
/// of `slot` complete: one beat per KV stream into that sequence's own
/// metadata block.
fn meta_window_bursts(
    image: &ModelImage,
    slot: usize,
    positions: Range<usize>,
) -> impl Iterator<Item = BurstDescriptor> + '_ {
    let model = image.model();
    let streams = model.n_layers * model.n_kv_heads * 2;
    positions
        .filter(|p| (p + 1).is_multiple_of(16))
        .flat_map(move |p| {
            let window = (p as u64 + 1) / 16 - 1;
            (0..streams).map(move |s| image.kv_meta_write_burst_seq(s, window, slot))
        })
}

/// The page-table entry of every page that `positions` of `slot` start
/// (none on a contiguous image).
fn page_append_bursts(
    image: &ModelImage,
    slot: usize,
    positions: Range<usize>,
) -> impl Iterator<Item = BurstDescriptor> + '_ {
    let page = image.page_tokens();
    positions.filter_map(move |p| {
        let pt = page?;
        p.is_multiple_of(pt)
            .then(|| image.kv_page_table_write_burst(slot, p / pt))
    })
}

/// Builds the schedule of one step over `chunks` — the one schedule
/// builder every step kind goes through. Each weight stream is fetched
/// **once** and its compute fanned out across every token of every
/// chunk (`fanout = Σ len`), the defining win of prefill over
/// token-by-token decode. Per chunk the step reads that sequence's
/// cached history `[0, start)` once per layer (the chunk's own K/V stay
/// on-chip and never round-trip through DDR), writes back `len` new KV
/// positions, and flushes the scale-zero metadata of every 16-token
/// window the chunk completes; on a paged image it also looks up the
/// sequence's page table once and appends an entry for every page the
/// chunk starts. Only one LM-head pass per *chunk* is scheduled — prefill
/// discards intermediate logits, and a decode chunk has just one token.
///
/// # Panics
///
/// Panics if `chunks` is empty, a chunk is empty, a slot repeats or lies
/// beyond `image.batch()`, or `start + len` exceeds
/// `image.ctx_capacity()`.
pub fn chunked_prefill_schedule(
    image: &ModelImage,
    chunks: &[PrefillChunk],
    mode: PipelineMode,
) -> TokenSchedule {
    assert!(!chunks.is_empty(), "prefill needs at least one chunk");
    for (i, c) in chunks.iter().enumerate() {
        assert!(c.len > 0, "prefill chunk must cover at least one token");
        assert!(
            c.start + c.len <= image.ctx_capacity(),
            "context beyond image capacity"
        );
        assert!(
            c.slot < image.batch(),
            "batch beyond image batch provisioning"
        );
        assert!(
            !chunks[..i].iter().any(|p| p.slot == c.slot),
            "duplicate slot in prefill schedule"
        );
    }
    let model = image.model();
    let heads = model.n_heads;
    let total: usize = chunks.iter().map(|c| c.len).sum();
    let t = total as u64;
    let fanout = total as u32;
    let mut ops: Vec<MemOp> = Vec::with_capacity(model.n_layers * (4 + 2 * chunks.len()) + 2);

    // Miscellaneous SPU latencies, exposed only in coarse mode. The SPU
    // works per activation vector, so every token pays its own pass, and
    // a token at position p runs softmax over p + 1 keys.
    let coarse = |cycles: u64| match mode {
        PipelineMode::Coarse => cycles,
        PipelineMode::Fused => 0,
    };
    let rmsnorm = 2 * model.d_model as u64;
    let rope_all = (heads + model.n_kv_heads) as u64 * model.head_dim() as u64;
    let softmax_chunk = |c: &PrefillChunk| {
        c.span()
            .map(|p| 3 * (p as u64 + 1) * heads as u64)
            .sum::<u64>()
    };
    let quant_all = 2 * 2 * model.kv_dim() as u64; // K and V, two passes
    let silu = model.d_ff as u64;

    // Every token fetches its embedding row (first stage only — later
    // shards receive hidden states over the interconnect, priced by the
    // cluster layer rather than as DDR).
    if image.owns_embedding() {
        ops.push(MemOp::new(
            OpKind::Embedding,
            None,
            (0..total).map(|_| image.embedding_row_burst(0)).collect(),
            1,
        ));
    }

    // A paged image pays one page-table lookup per chunk before any
    // fragmented KV burst can be issued — real metadata DDR traffic, not
    // free bookkeeping.
    if image.is_paged() {
        ops.push(MemOp::meta(
            OpKind::KvPtRead,
            chunks
                .iter()
                .map(|c| image.kv_page_table_read_burst(c.slot))
                .collect(),
        ));
    }

    for layer in 0..model.n_layers {
        let projs = image.layer_projections(layer);
        let stream = |names: &[&str]| -> Vec<BurstDescriptor> {
            names
                .iter()
                .map(|&name| {
                    projs
                        .iter()
                        .find(|p| p.name == name)
                        .unwrap_or_else(|| panic!("projection {name} missing"))
                        .burst()
                })
                .collect()
        };
        let at = Some(layer);

        // Pre-attention RMSNorm exposes before Q in the coarse pipeline.
        // Chunks with no history have no kv_read op to carry their
        // softmax, so it serializes here instead.
        let mut qkv = MemOp::new(OpKind::Qkv, at, stream(&["wq", "wk", "wv"]), fanout);
        qkv.exposed_misc = coarse(
            (rmsnorm + rope_all + quant_all) * t
                + chunks
                    .iter()
                    .filter(|c| c.start == 0)
                    .map(softmax_chunk)
                    .sum::<u64>(),
        );
        ops.push(qkv);

        // KV history reads (the attention DOT and weighted-value sums):
        // one stream per chunk over its own cache region; attention among
        // the chunk's own tokens uses the K/V still resident on-chip.
        for c in chunks.iter().filter(|c| c.start > 0) {
            let mut bursts = image.kv_read_bursts_seq(layer, false, c.start, c.slot);
            bursts.extend(image.kv_read_bursts_seq(layer, true, c.start, c.slot));
            let mut kv_read = MemOp::new(OpKind::KvRead, at, bursts, c.len as u32);
            kv_read.exposed_misc = coarse(softmax_chunk(c));
            ops.push(kv_read);
        }

        // Every chunk token's K/V codes are written back (metadata
        // amortized into the window flushes below).
        for c in chunks {
            let bursts = c
                .span()
                .flat_map(|p| {
                    [
                        image.kv_write_burst_seq(layer, false, p, c.slot),
                        image.kv_write_burst_seq(layer, true, p, c.slot),
                    ]
                })
                .collect();
            ops.push(MemOp::new(OpKind::KvWrite, at, bursts, 1));
        }

        ops.push(MemOp::new(OpKind::Wo, at, stream(&["wo"]), fanout));

        let mut mlp = MemOp::new(
            OpKind::Mlp,
            at,
            stream(&["w_gate", "w_up", "w_down"]),
            fanout,
        );
        mlp.exposed_misc = coarse((rmsnorm + silu) * t);
        ops.push(mlp);
    }

    // Scale-zero FIFO flush for every 16-token window a chunk completes:
    // only the crossing sequences pay.
    let flush: Vec<BurstDescriptor> = chunks
        .iter()
        .flat_map(|c| meta_window_bursts(image, c.slot, c.span()))
        .collect();
    if !flush.is_empty() {
        ops.push(MemOp::new(OpKind::KvMetaFlush, None, flush, 1));
    }

    // A chunk whose write-backs land on a fresh page appends one
    // page-table entry per page — the one-beat allocation cost of
    // on-demand paging, paid exactly when a page boundary is crossed.
    let appends: Vec<BurstDescriptor> = chunks
        .iter()
        .flat_map(|c| page_append_bursts(image, c.slot, c.span()))
        .collect();
    if !appends.is_empty() {
        ops.push(MemOp::meta(OpKind::KvPtWrite, appends));
    }

    // Only each chunk's last token needs logits, and only on the stage
    // that owns the head.
    if image.owns_head() {
        let n = chunks.len();
        let mut head = MemOp::new(
            OpKind::LmHead,
            None,
            vec![image.lm_head().burst()],
            n as u32,
        );
        head.exposed_misc = coarse(rmsnorm * n as u64);
        ops.push(head);
    }

    TokenSchedule {
        ops,
        ctx: chunks
            .iter()
            .map(|c| c.start + c.len - 1)
            .max()
            .unwrap_or(0),
        batch: total,
    }
}

/// One sequence's speculative verify window: `ctx` tokens are already
/// committed to the KV cache, a draft model proposed `drafted` tokens,
/// and the target verifies positions `ctx ..= ctx + drafted` in one
/// batched pass (the last committed token plus every draft). `accepted`
/// of the drafts survived greedy accept/reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecWindow {
    /// KV slot the sequence occupies.
    pub slot: usize,
    /// Tokens already committed (the first verify position).
    pub ctx: usize,
    /// Draft tokens proposed (K); zero degenerates to a plain decode
    /// step.
    pub drafted: usize,
    /// Drafts accepted (≤ `drafted`).
    pub accepted: usize,
}

impl SpecWindow {
    /// Tokens the window commits: the accepted drafts plus the bonus
    /// token the target emits at the first non-accepted position.
    pub fn committed(&self) -> usize {
        self.accepted + 1
    }

    /// First position past the committed prefix — the rollback
    /// boundary. Positions `keep() ..= end()` wrote KV that must be
    /// invalidated.
    pub fn keep(&self) -> usize {
        self.ctx + self.accepted + 1
    }

    /// Last verify position.
    pub fn end(&self) -> usize {
        self.ctx + self.drafted
    }
}

/// Builds the schedule for one speculative verify step over `windows`.
///
/// The verify pass is memory-wise a chunked prefill over each window's
/// `drafted + 1` positions — every weight stream is fetched **once**
/// with `compute_fanout = Σ (K+1)` ([`chunked_prefill_schedule`]'s
/// amortization applied to the decode loop), each window reads its
/// cached history `[0, ctx)` once per layer, and every verify position
/// writes its KV back. Two things differ from prefill:
///
/// * **every** verify position needs logits (each one is compared
///   against a draft), so the LM head fans out across all Σ (K+1)
///   positions instead of once per chunk;
/// * the rejected suffix `keep() ..= end()` must be *rolled back*:
///   every 16-token scale-zero window it flushed is re-written to
///   invalidate the dead packs (`kv_meta_rollback`), and — on a paged
///   image — every page-table entry it appended is truncated away
///   (`kv_pt_rollback`). Both are metadata-only DDR traffic, priced
///   like their forward twins (`kv_meta_flush` / `kv_pt_write`) but
///   feeding no VPU compute.
///
/// The returned schedule's `batch` is the number of tokens the step
/// *commits* (Σ accepted + 1 — accepted drafts plus one bonus token per
/// window), so pricing it yields honest tokens-per-second: rejected
/// positions cost bytes and cycles but produce nothing.
///
/// # Panics
///
/// Panics if `windows` is empty, a window has `accepted > drafted`, a
/// slot repeats or lies beyond `image.batch()`, or `ctx + drafted`
/// reaches `image.ctx_capacity()`.
pub fn speculative_verify_schedule(
    image: &ModelImage,
    windows: &[SpecWindow],
    mode: PipelineMode,
) -> TokenSchedule {
    assert!(!windows.is_empty(), "verify step needs at least one window");
    for w in windows {
        assert!(
            w.accepted <= w.drafted,
            "cannot accept more drafts than were proposed"
        );
    }
    let chunks: Vec<PrefillChunk> = windows
        .iter()
        .map(|w| PrefillChunk {
            slot: w.slot,
            start: w.ctx,
            len: w.drafted + 1,
        })
        .collect();
    let mut sched = chunked_prefill_schedule(image, &chunks, mode);

    // Unlike prefill, every verify position's logits are consumed by
    // accept/reject — the head's compute fans across all of them.
    let total = sched.batch;
    if let Some(head) = sched.ops.iter_mut().find(|o| o.kind == OpKind::LmHead) {
        head.compute_fanout = total as u32;
        if mode == PipelineMode::Coarse {
            head.exposed_misc = 2 * image.model().d_model as u64 * total as u64;
        }
    }

    // Rollback: re-write every scale-zero window the rejected suffix
    // flushed, invalidating the dead packs in place, and — on a paged
    // image — truncate every page-table entry it appended (the allocator
    // hands the pages back).
    let rejected = |w: &SpecWindow| w.keep()..w.end() + 1;
    let meta: Vec<BurstDescriptor> = windows
        .iter()
        .flat_map(|w| meta_window_bursts(image, w.slot, rejected(w)))
        .collect();
    if !meta.is_empty() {
        sched
            .ops
            .push(MemOp::new(OpKind::KvMetaRollback, None, meta, 1));
    }
    let truncations: Vec<BurstDescriptor> = windows
        .iter()
        .flat_map(|w| page_append_bursts(image, w.slot, rejected(w)))
        .collect();
    if !truncations.is_empty() {
        sched
            .ops
            .push(MemOp::meta(OpKind::KvPtRollback, truncations));
    }

    sched.batch = windows.iter().map(SpecWindow::committed).sum();
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{ImageSpec, KvLayout};
    use zllm_layout::weight::WeightFormat;
    use zllm_model::ModelConfig;

    fn image() -> ModelImage {
        ModelImage::build(&ModelConfig::test_small(), WeightFormat::kv260(), 32)
            .expect("test model fits")
    }

    /// `test_small` placed as `spec` describes.
    fn placed(spec: ImageSpec) -> ModelImage {
        ModelImage::from_spec(&ModelConfig::test_small(), WeightFormat::kv260(), &spec)
            .expect("test model fits")
    }

    fn batched_image(batch: usize) -> ModelImage {
        placed(ImageSpec {
            batch,
            ..ImageSpec::new(32)
        })
    }

    /// The ops of `kind` at `layer` (`None`: step-wide ops), in issue
    /// order.
    fn ops(sched: &TokenSchedule, kind: OpKind, layer: Option<usize>) -> Vec<&MemOp> {
        sched
            .ops
            .iter()
            .filter(|o| (o.kind, o.layer) == (kind, layer))
            .collect()
    }

    /// Bytes of the ops whose kind satisfies `keep`.
    fn bytes_where(sched: &TokenSchedule, keep: impl Fn(OpKind) -> bool) -> u64 {
        sched
            .ops
            .iter()
            .filter(|o| keep(o.kind))
            .map(MemOp::bytes)
            .sum()
    }

    /// Bytes split into the two halves of the batched memory model:
    /// `(shared weight-stream bytes, per-sequence bytes)`.
    fn split_bytes(sched: &TokenSchedule) -> (u64, u64) {
        let per_seq = bytes_where(sched, OpKind::per_sequence);
        (sched.total_bytes() - per_seq, per_seq)
    }

    #[test]
    fn schedule_covers_all_weights() {
        let image = image();
        let sched = token_schedule(&image, 4, PipelineMode::Fused);
        // Every projection byte appears exactly once.
        let weight_bytes: u64 = image.weight_stream_bytes();
        let sched_weight_bytes = bytes_where(&sched, |k| !k.per_sequence());
        assert_eq!(sched_weight_bytes, weight_bytes);
    }

    #[test]
    fn fused_mode_exposes_nothing() {
        let sched = token_schedule(&image(), 4, PipelineMode::Fused);
        assert_eq!(sched.total_exposed_misc(), 0);
    }

    #[test]
    fn coarse_mode_exposure_grows_with_context() {
        let image = image();
        let short = token_schedule(&image, 2, PipelineMode::Coarse);
        let long = token_schedule(&image, 30, PipelineMode::Coarse);
        assert!(short.total_exposed_misc() > 0);
        assert!(long.total_exposed_misc() > short.total_exposed_misc());
    }

    #[test]
    fn kv_reads_scale_with_context() {
        let image = image();
        let b4 = token_schedule(&image, 4, PipelineMode::Fused).total_bytes();
        let b16 = token_schedule(&image, 16, PipelineMode::Fused).total_bytes();
        assert!(b16 > b4);
    }

    #[test]
    fn zero_context_schedules_no_history_reads() {
        let sched = token_schedule(&image(), 0, PipelineMode::Fused);
        assert!(!sched.ops.iter().any(|o| o.kind == OpKind::KvRead));
        // But KV write-back still happens.
        assert!(sched.ops.iter().any(|o| o.kind == OpKind::KvWrite));
    }

    #[test]
    fn meta_flush_every_16_tokens() {
        let image = image();
        let s15 = token_schedule(&image, 15, PipelineMode::Fused);
        assert!(s15.ops.iter().any(|o| o.kind == OpKind::KvMetaFlush));
        let s14 = token_schedule(&image, 14, PipelineMode::Fused);
        assert!(!s14.ops.iter().any(|o| o.kind == OpKind::KvMetaFlush));
    }

    #[test]
    fn writes_do_not_count_as_vpu_beats() {
        let sched = token_schedule(&image(), 4, PipelineMode::Fused);
        let write_op = sched
            .ops
            .iter()
            .find(|o| o.kind == OpKind::KvWrite)
            .expect("has write op");
        assert_eq!(write_op.vpu_beats, 0);
        assert!(write_op.bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "context beyond image capacity")]
    fn capacity_checked() {
        let image = image();
        let _ = token_schedule(&image, 32, PipelineMode::Fused);
    }

    #[test]
    #[should_panic(expected = "batch beyond image batch provisioning")]
    fn batch_provisioning_checked() {
        let image = image();
        let _ = batched_token_schedule(&image, 4, 2, PipelineMode::Fused);
    }

    #[test]
    fn batch_of_one_is_the_single_sequence_schedule() {
        let image = batched_image(4);
        for mode in [PipelineMode::Fused, PipelineMode::Coarse] {
            for ctx in [0, 4, 15, 31] {
                let single = token_schedule(&image, ctx, mode);
                let batched = batched_token_schedule(&image, ctx, 1, mode);
                assert_eq!(single.batch, 1);
                assert_eq!(single.ops.len(), batched.ops.len());
                for (a, b) in single.ops.iter().zip(&batched.ops) {
                    assert_eq!((a.kind, a.layer), (b.kind, b.layer));
                    assert_eq!(a.bytes(), b.bytes());
                    assert_eq!(a.vpu_beats, b.vpu_beats);
                    assert_eq!(a.exposed_misc, b.exposed_misc);
                    assert_eq!(a.compute_fanout, 1);
                    assert_eq!(b.compute_fanout, 1);
                    assert_eq!(a.bursts.len(), b.bursts.len());
                    for (ba, bb) in a.bursts.iter().zip(&b.bursts) {
                        assert_eq!(ba.addr, bb.addr);
                        assert_eq!(ba.beats, bb.beats);
                        assert_eq!(ba.write, bb.write);
                    }
                }
            }
        }
    }

    #[test]
    fn weight_bytes_amortize_kv_bytes_scale() {
        let image = batched_image(8);
        let (w1, s1) = split_bytes(&batched_token_schedule(&image, 16, 1, PipelineMode::Fused));
        for batch in [2usize, 4, 8] {
            let sched = batched_token_schedule(&image, 16, batch, PipelineMode::Fused);
            let (w, s) = split_bytes(&sched);
            assert_eq!(w, w1, "weight bytes must not scale with batch");
            assert_eq!(s, s1 * batch as u64, "per-seq bytes must scale linearly");
        }
    }

    #[test]
    fn shared_streams_fan_out_per_sequence_streams_do_not() {
        let sched = batched_token_schedule(&batched_image(4), 16, 4, PipelineMode::Fused);
        for op in &sched.ops {
            let expect = if op.kind.per_sequence() { 1 } else { 4 };
            assert_eq!(op.compute_fanout, expect, "fanout of {:?}", op.kind);
        }
    }

    #[test]
    fn uniform_ragged_schedule_matches_batched() {
        let image = batched_image(4);
        for mode in [PipelineMode::Fused, PipelineMode::Coarse] {
            for ctx in [0, 4, 15, 31] {
                let batched = batched_token_schedule(&image, ctx, 4, mode);
                let slots: Vec<(usize, usize)> = (0..4).map(|s| (s, ctx)).collect();
                let ragged = ragged_token_schedule(&image, &slots, mode);
                assert_eq!(batched.ops.len(), ragged.ops.len());
                for (a, b) in batched.ops.iter().zip(&ragged.ops) {
                    assert_eq!((a.kind, a.layer), (b.kind, b.layer));
                    assert_eq!(a.bytes(), b.bytes());
                    assert_eq!(a.vpu_beats, b.vpu_beats);
                    assert_eq!(a.exposed_misc, b.exposed_misc);
                    assert_eq!(a.compute_fanout, b.compute_fanout);
                }
            }
        }
    }

    #[test]
    fn ragged_per_sequence_bytes_sum_per_slot_costs() {
        let image = batched_image(4);
        let slots = [(0usize, 3usize), (1, 17), (3, 0)];
        let sched = ragged_token_schedule(&image, &slots, PipelineMode::Fused);
        let (shared, per_seq) = split_bytes(&sched);
        let (shared1, _) = split_bytes(&batched_token_schedule(&image, 3, 1, PipelineMode::Fused));
        assert_eq!(shared, shared1, "weight bytes independent of raggedness");
        let expect: u64 = slots
            .iter()
            .map(|&(_, ctx)| {
                let s = batched_token_schedule(&image, ctx, 1, PipelineMode::Fused);
                split_bytes(&s).1
            })
            .sum();
        assert_eq!(per_seq, expect, "each sequence pays its own KV traffic");
    }

    #[test]
    fn ragged_meta_flush_only_for_crossing_sequences() {
        let image = batched_image(4);
        // Slot 1 crosses the 16-token window; slot 0 does not.
        let sched = ragged_token_schedule(&image, &[(0, 4), (1, 15)], PipelineMode::Fused);
        let flush = sched
            .ops
            .iter()
            .find(|o| o.kind == OpKind::KvMetaFlush)
            .expect("crossing sequence flushes");
        let single = token_schedule(&image, 15, PipelineMode::Fused);
        let single_flush = single
            .ops
            .iter()
            .find(|o| o.kind == OpKind::KvMetaFlush)
            .unwrap();
        assert_eq!(flush.bytes(), single_flush.bytes());
        let none = ragged_token_schedule(&image, &[(0, 4), (1, 14)], PipelineMode::Fused);
        assert!(!none.ops.iter().any(|o| o.kind == OpKind::KvMetaFlush));
    }

    #[test]
    #[should_panic(expected = "duplicate slot in ragged schedule")]
    fn ragged_rejects_duplicate_slots() {
        let image = batched_image(4);
        let _ = ragged_token_schedule(&image, &[(2, 4), (2, 9)], PipelineMode::Fused);
    }

    #[test]
    fn prefill_fans_weights_across_prompt_tokens() {
        let image = batched_image(2);
        let chunks = [
            PrefillChunk {
                slot: 0,
                start: 0,
                len: 8,
            },
            PrefillChunk {
                slot: 1,
                start: 4,
                len: 4,
            },
        ];
        let sched = chunked_prefill_schedule(&image, &chunks, PipelineMode::Fused);
        assert_eq!(sched.batch, 12);
        // Weight streams appear once, fanned to the 12 prompt tokens.
        let qkv = ops(&sched, OpKind::Qkv, Some(0))[0];
        assert_eq!(qkv.compute_fanout, 12);
        let single = token_schedule(&image, 0, PipelineMode::Fused);
        let sq = ops(&single, OpKind::Qkv, Some(0))[0];
        assert_eq!(qkv.bytes(), sq.bytes(), "weights fetched once per step");
        // LM head runs once per chunk, not per token.
        let head = sched.ops.iter().find(|o| o.kind == OpKind::LmHead).unwrap();
        assert_eq!(head.compute_fanout, 2);
        // Only slot 1 reads history (slot 0 starts from scratch).
        let reads: Vec<_> = ops(&sched, OpKind::KvRead, Some(0));
        assert_eq!(reads.len(), 1);
        // Every chunk token writes its KV back.
        let writes: u64 = sched
            .ops
            .iter()
            .filter(|o| (o.kind, o.layer) == (OpKind::KvWrite, Some(0)))
            .map(|o| o.bursts.len() as u64)
            .sum();
        assert_eq!(writes, 2 * 12);
    }

    #[test]
    fn prefill_chunks_of_one_token_match_decode_bytes() {
        // A one-token chunk at position p moves the same bytes as the
        // decode step at ctx = p, modulo the LM head fanout.
        let image = batched_image(2);
        let chunk = [PrefillChunk {
            slot: 0,
            start: 9,
            len: 1,
        }];
        let pre = chunked_prefill_schedule(&image, &chunk, PipelineMode::Fused);
        let dec = token_schedule(&image, 9, PipelineMode::Fused);
        assert_eq!(pre.total_bytes(), dec.total_bytes());
        assert_eq!(pre.batch, 1);
    }

    #[test]
    #[should_panic(expected = "context beyond image capacity")]
    fn prefill_capacity_checked() {
        let image = batched_image(2);
        let _ = chunked_prefill_schedule(
            &image,
            &[PrefillChunk {
                slot: 0,
                start: 16,
                len: 17,
            }],
            PipelineMode::Fused,
        );
    }

    #[test]
    fn batched_kv_reads_touch_distinct_regions() {
        let image = batched_image(2);
        let sched = batched_token_schedule(&image, 8, 2, PipelineMode::Fused);
        let reads: Vec<_> = ops(&sched, OpKind::KvRead, Some(0));
        assert_eq!(reads.len(), 2);
        assert_ne!(reads[0].bursts[0].addr, reads[1].bursts[0].addr);
        assert_eq!(reads[0].bytes(), reads[1].bytes());
    }

    fn paged_image(batch: usize) -> ModelImage {
        placed(ImageSpec {
            batch,
            kv: KvLayout::Paged { page_tokens: 16 },
            ..ImageSpec::new(32)
        })
    }

    /// Bytes in the page-table metadata ops alone.
    fn pt_bytes(sched: &TokenSchedule) -> u64 {
        bytes_where(sched, |k| matches!(k, OpKind::KvPtRead | OpKind::KvPtWrite))
    }

    #[test]
    fn paged_schedule_adds_only_page_table_traffic() {
        let flat = batched_image(4);
        let paged = paged_image(4);
        let slots = [(0usize, 3usize), (1, 17), (2, 16), (3, 0)];
        for mode in [PipelineMode::Fused, PipelineMode::Coarse] {
            let f = ragged_token_schedule(&flat, &slots, mode);
            let p = ragged_token_schedule(&paged, &slots, mode);
            // The same KV/weight bytes move; paging adds metadata bursts.
            assert_eq!(p.total_bytes() - pt_bytes(&p), f.total_bytes());
            assert!(pt_bytes(&p) > 0);
            assert_eq!(pt_bytes(&f), 0, "contiguous schedules have no tables");
            // The compute side is untouched: page tables feed no VPU.
            assert_eq!(p.total_vpu_beats(), f.total_vpu_beats());
            assert_eq!(p.total_exposed_misc(), f.total_exposed_misc());
        }
        // One lookup per sequence; appends only for boundary-crossing
        // writes (ctx 16 starts logical page 1, ctx 0 page 0).
        let p = ragged_token_schedule(&paged, &slots, PipelineMode::Fused);
        let read = p.ops.iter().find(|o| o.kind == OpKind::KvPtRead).unwrap();
        assert_eq!(read.bursts.len(), 4);
        let write = p.ops.iter().find(|o| o.kind == OpKind::KvPtWrite).unwrap();
        assert_eq!(write.bursts.len(), 2);
        let none = ragged_token_schedule(&paged, &[(0, 3), (1, 17)], PipelineMode::Fused);
        assert!(!none.ops.iter().any(|o| o.kind == OpKind::KvPtWrite));
    }

    #[test]
    fn paged_reads_fragment_into_per_page_bursts() {
        let paged = paged_image(2);
        let sched = ragged_token_schedule(&paged, &[(0, 31)], PipelineMode::Fused);
        let read = ops(&sched, OpKind::KvRead, Some(0))[0];
        // 31 tokens span two 16-token pages, K and V each: 4 bursts.
        assert_eq!(read.bursts.len(), 4);
        let flat = batched_image(2);
        let fsched = ragged_token_schedule(&flat, &[(0, 31)], PipelineMode::Fused);
        let fread = ops(&fsched, OpKind::KvRead, Some(0))[0];
        assert_eq!(fread.bursts.len(), 2);
        assert_eq!(read.bytes(), fread.bytes());
        assert_eq!(read.vpu_beats, fread.vpu_beats);
    }

    #[test]
    fn paged_prefill_prices_page_table_appends() {
        let flat = batched_image(2);
        let paged = paged_image(2);
        let chunks = [
            PrefillChunk {
                slot: 0,
                start: 0,
                len: 20,
            },
            PrefillChunk {
                slot: 1,
                start: 16,
                len: 8,
            },
        ];
        let f = chunked_prefill_schedule(&flat, &chunks, PipelineMode::Fused);
        let p = chunked_prefill_schedule(&paged, &chunks, PipelineMode::Fused);
        assert_eq!(p.total_bytes() - pt_bytes(&p), f.total_bytes());
        // Chunk 0 crosses positions 0 and 16 (2 appends); chunk 1
        // crosses position 16 (1 append).
        let write = p.ops.iter().find(|o| o.kind == OpKind::KvPtWrite).unwrap();
        assert_eq!(write.bursts.len(), 3);
        let read = p.ops.iter().find(|o| o.kind == OpKind::KvPtRead).unwrap();
        assert_eq!(read.bursts.len(), 2, "one lookup per chunk");
    }

    #[test]
    fn spec_window_of_zero_drafts_matches_decode_bytes() {
        // drafted = 0, accepted = 0: the verify window is one position —
        // a plain decode step, byte for byte.
        let image = batched_image(2);
        let w = [SpecWindow {
            slot: 0,
            ctx: 9,
            drafted: 0,
            accepted: 0,
        }];
        let spec = speculative_verify_schedule(&image, &w, PipelineMode::Fused);
        let dec = token_schedule(&image, 9, PipelineMode::Fused);
        assert_eq!(spec.total_bytes(), dec.total_bytes());
        assert_eq!(spec.batch, 1);
        assert!(!spec
            .ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::KvMetaRollback | OpKind::KvPtRollback)));
    }

    #[test]
    fn spec_verify_streams_weights_once_with_k_plus_1_fanout() {
        let image = batched_image(2);
        let w = [SpecWindow {
            slot: 0,
            ctx: 8,
            drafted: 4,
            accepted: 2,
        }];
        let spec = speculative_verify_schedule(&image, &w, PipelineMode::Fused);
        // The dense streams appear once, at the bytes of a single decode
        // step, with compute fanned across the K + 1 verify positions.
        let qkv = ops(&spec, OpKind::Qkv, Some(0))[0];
        assert_eq!(qkv.compute_fanout, 5);
        let single = token_schedule(&image, 8, PipelineMode::Fused);
        let sq = ops(&single, OpKind::Qkv, Some(0))[0];
        assert_eq!(qkv.bytes(), sq.bytes(), "weights fetched once per window");
        // Unlike prefill, every verify position needs logits.
        let head = spec.ops.iter().find(|o| o.kind == OpKind::LmHead).unwrap();
        assert_eq!(head.compute_fanout, 5);
        // The step commits accepted + 1 tokens, not K + 1.
        assert_eq!(spec.batch, 3);
        // Coarse mode exposes one final RMSNorm per verify position.
        let coarse = speculative_verify_schedule(&image, &w, PipelineMode::Coarse);
        let head = ops(&coarse, OpKind::LmHead, None)[0];
        assert_eq!(
            head.exposed_misc,
            2 * image.model().d_model as u64 * 5,
            "head norm exposed per verify position"
        );
    }

    #[test]
    fn spec_multi_window_fans_weights_across_all_verify_positions() {
        let image = batched_image(2);
        let ws = [
            SpecWindow {
                slot: 0,
                ctx: 4,
                drafted: 3,
                accepted: 3,
            },
            SpecWindow {
                slot: 1,
                ctx: 9,
                drafted: 2,
                accepted: 0,
            },
        ];
        let spec = speculative_verify_schedule(&image, &ws, PipelineMode::Fused);
        let qkv = ops(&spec, OpKind::Qkv, Some(0))[0];
        assert_eq!(qkv.compute_fanout, 4 + 3);
        let head = spec.ops.iter().find(|o| o.kind == OpKind::LmHead).unwrap();
        assert_eq!(head.compute_fanout, 4 + 3);
        assert_eq!(spec.batch, 4 + 1, "committed = Σ (accepted + 1)");
    }

    #[test]
    fn spec_rollback_prices_rejected_meta_windows() {
        let image = batched_image(2);
        // Verify positions 10..=18; keep = 12, so the rejected span
        // 12..=18 contains the window flush at p = 15 — one stream set
        // of invalidation bursts comes back out.
        let w = [SpecWindow {
            slot: 0,
            ctx: 10,
            drafted: 8,
            accepted: 1,
        }];
        let spec = speculative_verify_schedule(&image, &w, PipelineMode::Fused);
        let rb = spec
            .ops
            .iter()
            .find(|o| o.kind == OpKind::KvMetaRollback)
            .expect("rejected window flush is rolled back");
        let m = image.model();
        assert_eq!(rb.bursts.len(), m.n_layers * m.n_kv_heads * 2);
        assert_eq!(rb.vpu_beats, 0, "metadata feeds no compute");
        // Fully accepted windows roll nothing back.
        let all = [SpecWindow {
            slot: 0,
            ctx: 10,
            drafted: 8,
            accepted: 8,
        }];
        let spec = speculative_verify_schedule(&image, &all, PipelineMode::Fused);
        assert!(!spec
            .ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::KvMetaRollback | OpKind::KvPtRollback)));
        // A rejected span that crosses no flush boundary costs nothing.
        let cheap = [SpecWindow {
            slot: 0,
            ctx: 16,
            drafted: 8,
            accepted: 2,
        }];
        let spec = speculative_verify_schedule(&image, &cheap, PipelineMode::Fused);
        assert!(!spec.ops.iter().any(|o| o.kind == OpKind::KvMetaRollback));
    }

    #[test]
    fn spec_rollback_prices_page_table_truncation_only_when_paged() {
        let flat = batched_image(2);
        let paged = paged_image(2);
        // Verify positions 14..=22 append the page-table entry at
        // p = 16; rejecting everything past position 14 truncates it.
        let w = [SpecWindow {
            slot: 0,
            ctx: 14,
            drafted: 8,
            accepted: 0,
        }];
        let p = speculative_verify_schedule(&paged, &w, PipelineMode::Fused);
        let rb = p
            .ops
            .iter()
            .find(|o| o.kind == OpKind::KvPtRollback)
            .expect("paged rollback truncates the table");
        assert_eq!(rb.bursts.len(), 1);
        assert_eq!(rb.vpu_beats, 0);
        let f = speculative_verify_schedule(&flat, &w, PipelineMode::Fused);
        assert!(!f.ops.iter().any(|o| o.kind == OpKind::KvPtRollback));
        // Modulo rollback + page-table metadata, both images move the
        // same verify bytes.
        let meta: u64 = p
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OpKind::KvPtRead
                        | OpKind::KvPtWrite
                        | OpKind::KvPtRollback
                        | OpKind::KvMetaRollback
                )
            })
            .map(MemOp::bytes)
            .sum();
        let f_meta: u64 = f
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::KvMetaRollback)
            .map(MemOp::bytes)
            .sum();
        assert_eq!(p.total_bytes() - meta, f.total_bytes() - f_meta);
    }

    #[test]
    #[should_panic(expected = "cannot accept more drafts")]
    fn spec_rejects_overaccepted_window() {
        let image = batched_image(2);
        let _ = speculative_verify_schedule(
            &image,
            &[SpecWindow {
                slot: 0,
                ctx: 0,
                drafted: 2,
                accepted: 3,
            }],
            PipelineMode::Fused,
        );
    }

    #[test]
    fn shard_schedules_partition_full_ddr_traffic() {
        let cfg = ModelConfig::test_small();
        let full = batched_image(2);
        let mid = cfg.n_layers / 2;
        let shard = |layers| {
            placed(ImageSpec {
                batch: 2,
                layers: Some(layers),
                ..ImageSpec::new(32)
            })
        };
        let (first, last) = (shard(0..mid), shard(mid..cfg.n_layers));
        let slots = [(0usize, 15usize), (1, 7)];
        for mode in [PipelineMode::Fused, PipelineMode::Coarse] {
            let whole = ragged_token_schedule(&full, &slots, mode);
            let a = ragged_token_schedule(&first, &slots, mode);
            let b = ragged_token_schedule(&last, &slots, mode);
            // Every DDR byte of the single-board step lands on exactly
            // one shard: embedding on the first, head on the last, each
            // layer's weights/KV/metadata on its owner.
            assert_eq!(a.total_bytes() + b.total_bytes(), whole.total_bytes());
            assert!(a.ops.iter().any(|o| o.kind == OpKind::Embedding));
            assert!(a.ops.iter().all(|o| o.kind != OpKind::LmHead));
            assert!(b.ops.iter().all(|o| o.kind != OpKind::Embedding));
            assert!(b.ops.iter().any(|o| o.kind == OpKind::LmHead));
        }
        // Prefill conserves bytes across the split too.
        let chunks = [
            PrefillChunk {
                slot: 0,
                start: 0,
                len: 16,
            },
            PrefillChunk {
                slot: 1,
                start: 8,
                len: 8,
            },
        ];
        let whole = chunked_prefill_schedule(&full, &chunks, PipelineMode::Fused);
        let a = chunked_prefill_schedule(&first, &chunks, PipelineMode::Fused);
        let b = chunked_prefill_schedule(&last, &chunks, PipelineMode::Fused);
        assert_eq!(a.total_bytes() + b.total_bytes(), whole.total_bytes());
    }
}

#[cfg(all(test, feature = "proptest"))]
mod properties {
    use super::*;
    use crate::image::ImageSpec;
    use proptest::prelude::*;
    use zllm_layout::weight::WeightFormat;
    use zllm_model::ModelConfig;

    fn split(sched: &TokenSchedule) -> (u64, u64) {
        let per_seq: u64 = sched
            .ops
            .iter()
            .filter(|o| o.kind.per_sequence())
            .map(MemOp::bytes)
            .sum();
        (sched.total_bytes() - per_seq, per_seq)
    }

    proptest! {
        /// Weight bytes are independent of B; per-sequence bytes (KV plus
        /// embedding rows) are exactly linear in B.
        #[test]
        fn batched_schedules_conserve_bytes(
            ctx in 0usize..32,
            batch in 1usize..=6,
            coarse in proptest::bool::ANY,
        ) {
            let mode = if coarse { PipelineMode::Coarse } else { PipelineMode::Fused };
            let spec = ImageSpec {
                batch: 6,
                ..ImageSpec::new(32)
            };
            let image =
                ModelImage::from_spec(&ModelConfig::test_small(), WeightFormat::kv260(), &spec)
                    .expect("test model fits");
            let (w1, s1) = split(&batched_token_schedule(&image, ctx, 1, mode));
            let sched = batched_token_schedule(&image, ctx, batch, mode);
            let (w, s) = split(&sched);
            prop_assert_eq!(w, w1);
            prop_assert_eq!(s, s1 * batch as u64);
            prop_assert_eq!(sched.total_bytes(), w1 + s1 * batch as u64);
        }
    }
}
