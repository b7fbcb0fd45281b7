//! The functional decoder: runs a quantized model through the exact
//! on-chip datapaths — W4 dequantization into the 128-lane FP16 VPU, SPU
//! RoPE/RMSNorm/softmax/SiLU pipelines, and the KV8 online quantizer —
//! producing real logits that are validated against the f32 reference.

use crate::spu::{KvQuantizer, RmsNormUnit, RopeUnit, SiluUnit, SoftmaxUnit};
use crate::vpu::Vpu;
use zllm_fp16::F16;
use zllm_layout::kv_page::PagedKvAllocator;
use zllm_model::{ModelConfig, ModelWeights};
use zllm_quant::group::{GroupQuantConfig, GroupQuantizer, QuantizedTensor};
use zllm_quant::kv8::QuantizedKv;

/// A weight matrix quantized row-wise (each row starts fresh groups, as
/// the streaming dataflow requires).
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    rows_q: Vec<QuantizedTensor>,
}

impl QuantizedMatrix {
    /// Quantizes a row-major matrix.
    pub fn quantize(
        data: &[f32],
        rows: usize,
        cols: usize,
        cfg: GroupQuantConfig,
    ) -> QuantizedMatrix {
        assert_eq!(data.len(), rows * cols, "dimensions inconsistent");
        let quantizer = GroupQuantizer::new(cfg);
        let rows_q = data
            .chunks(cols)
            .map(|row| quantizer.quantize(row))
            .collect();
        QuantizedMatrix { rows, cols, rows_q }
    }

    /// Assembles a matrix from pre-quantized rows (AWQ/GPTQ converters).
    ///
    /// # Panics
    ///
    /// Panics if the row count or any row's length mismatches, or if the
    /// rows were quantized with different configurations (one matrix
    /// streams in one weight format).
    pub fn from_rows(rows: usize, cols: usize, rows_q: Vec<QuantizedTensor>) -> QuantizedMatrix {
        assert_eq!(rows_q.len(), rows, "row count mismatch");
        assert!(
            rows_q.iter().all(|r| r.len() == cols),
            "row length mismatch"
        );
        assert!(
            rows_q.windows(2).all(|p| p[0].config() == p[1].config()),
            "rows quantized with different configurations"
        );
        QuantizedMatrix { rows, cols, rows_q }
    }

    /// Output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantized rows.
    pub fn rows_q(&self) -> &[QuantizedTensor] {
        &self.rows_q
    }

    /// Matrix–vector product through the VPU: per output row, dequantize
    /// each group beat and accumulate the lane dot products in f32 — a
    /// one-sequence [`QuantizedMatrix::matvec_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, vpu: &Vpu, x: &[F16]) -> Vec<F16> {
        let mut outs = Vec::with_capacity(1);
        let mut scratch = BatchMatvecScratch::default();
        self.matvec_batch(vpu, &[x.to_vec()], &mut scratch, &mut outs);
        outs.pop().expect("one product per sequence")
    }

    /// Matrix–vector products for a whole batch of activation vectors in
    /// one weight pass: each group is dequantized **once** into a weight
    /// beat that every sequence reuses — the functional mirror of the
    /// trace path's weight-stream amortization.
    ///
    /// Per sequence, each row's groups run in order, each group in beats
    /// of `lanes` elements through the engine, and the beat results add
    /// into one f32 accumulator per row, so each output vector is
    /// bit-identical to a one-sequence call with that sequence's
    /// activations.
    ///
    /// With fast kernels enabled ([`zllm_fp16::fast_kernels_enabled`]) a
    /// matrix of codes at most 4 bits wide takes the row-tiled path: the
    /// rows go eight at a time, each group of the eight rows dequantizes
    /// into one lane-interleaved f32 beat ([`Vpu::dequant_beat8`]), and
    /// every sequence runs one engine pass over it ([`Vpu::dot8_f32`])
    /// against its activations, decoded once per call and replicated
    /// eight times.
    /// Every per-element value, rounding, accumulation order and counter
    /// total is identical to the F16 beat path, which wider codes and
    /// the scalar reference take.
    ///
    /// `outs` is resized to the batch; each entry receives that
    /// sequence's product (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or any `xs[i].len() != cols`.
    pub fn matvec_batch(
        &self,
        vpu: &Vpu,
        xs: &[Vec<F16>],
        scratch: &mut BatchMatvecScratch,
        outs: &mut Vec<Vec<F16>>,
    ) {
        assert!(!xs.is_empty(), "at least one sequence required");
        for x in xs {
            assert_eq!(x.len(), self.cols, "operand length mismatch");
        }
        outs.resize_with(xs.len(), Vec::new);
        for out in outs.iter_mut() {
            out.clear();
            out.reserve(self.rows);
        }
        let four_bit = self.rows_q.first().is_some_and(|r| r.config().bits <= 4);
        if four_bit && zllm_fp16::fast_kernels_enabled() {
            self.matvec_tiles(vpu, xs, scratch, outs);
        } else {
            self.matvec_rows(vpu, xs, scratch, outs);
        }
    }

    /// The F16 beat path: one row at a time, each group dequantized into
    /// F16 lane operands and dotted per sequence and beat.
    fn matvec_rows(
        &self,
        vpu: &Vpu,
        xs: &[Vec<F16>],
        scratch: &mut BatchMatvecScratch,
        outs: &mut [Vec<F16>],
    ) {
        let lanes = vpu.lanes();
        let BatchMatvecScratch { beat, accs, .. } = scratch;
        for row in &self.rows_q {
            let gs = row.config().group_size;
            accs.clear();
            accs.resize(xs.len(), 0.0f32);
            for (g, chunk) in row.codes().chunks(gs).enumerate() {
                let lo = g * gs;
                vpu.dequantize_beat_into(chunk, row.zeros()[g], row.scales()[g], beat);
                for (acc, x) in accs.iter_mut().zip(xs) {
                    for (wb, xb) in beat
                        .chunks(lanes)
                        .zip(x[lo..lo + chunk.len()].chunks(lanes))
                    {
                        *acc += vpu.dot(wb, xb);
                    }
                }
            }
            for (out, &acc) in outs.iter_mut().zip(accs.iter()) {
                out.push(F16::from_f32(acc));
            }
        }
    }

    /// The row-tiled path for codes below 16: per tile of eight rows and
    /// per group, one lane-interleaved f32 weight beat (`w8[8i + r]` is
    /// row `r`'s weight `i`; a partial tile's missing rows are +0.0) meets
    /// each sequence's replicated activations (`x8[8i + r] = x[i]`) in
    /// one engine pass per beat, and each real row's result adds into
    /// that row's accumulator in group order.
    fn matvec_tiles(
        &self,
        vpu: &Vpu,
        xs: &[Vec<F16>],
        scratch: &mut BatchMatvecScratch,
        outs: &mut [Vec<F16>],
    ) {
        let span = 8 * vpu.lanes();
        let BatchMatvecScratch {
            w8, x8, dots, accs, ..
        } = scratch;
        x8.resize_with(xs.len(), Vec::new);
        for (rep, x) in x8.iter_mut().zip(xs) {
            rep.resize(8 * x.len(), 0.0);
            for (lanes, v) in rep.chunks_exact_mut(8).zip(x) {
                lanes.fill(v.to_f32());
            }
        }
        for tile in self.rows_q.chunks(8) {
            let (n, gs) = (tile.len(), tile[0].config().group_size);
            accs.clear();
            accs.resize(8 * xs.len(), 0.0f32);
            for (g, lo) in (0..self.cols).step_by(gs).enumerate() {
                let len = gs.min(self.cols - lo);
                let row = |r: usize| &tile[r.min(n - 1)];
                let codes: [&[u8]; 8] = std::array::from_fn(|r| &row(r).codes()[lo..lo + len]);
                let zeros: [u8; 8] = std::array::from_fn(|r| row(r).zeros()[g]);
                let scales: [F16; 8] = std::array::from_fn(|r| row(r).scales()[g]);
                vpu.dequant_beat8(w8, &codes[..n], &zeros[..n], &scales[..n]);
                for (acc, x) in accs.chunks_exact_mut(8).zip(x8.iter()) {
                    for (wb, xb) in w8.chunks(span).zip(x[8 * lo..8 * (lo + len)].chunks(span)) {
                        let sums = vpu.dot8_f32(dots, n, wb, xb);
                        for (a, s) in acc.iter_mut().zip(sums) {
                            *a += s;
                        }
                    }
                }
            }
            for (out, acc) in outs.iter_mut().zip(accs.chunks_exact(8)) {
                out.extend(acc[..n].iter().map(|&a| F16::from_f32(a)));
            }
        }
    }
}

/// Reusable scratch for [`QuantizedMatrix::matvec_batch`]: the shared
/// per-group weight beat (F16 on the row path, eight rows lane-interleaved
/// in f32 on the tiled one), the per-sequence activations decoded and
/// replicated eight times, and the row accumulators.
#[derive(Debug, Clone, Default)]
pub struct BatchMatvecScratch {
    beat: crate::vpu::WeightBeat,
    w8: Vec<f32>,
    x8: Vec<Vec<f32>>,
    dots: zllm_fp16::vector::DotScratch,
    accs: Vec<f32>,
}

/// A fully quantized model in the accelerator's formats: W4 grouped
/// weights, FP16 norms and embeddings.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    config: ModelConfig,
    embedding: Vec<Vec<F16>>,
    layers: Vec<QuantizedLayer>,
    final_norm: Vec<F16>,
    lm_head: QuantizedMatrix,
}

/// One quantized transformer block.
#[derive(Debug, Clone)]
pub struct QuantizedLayer {
    /// Query projection.
    pub wq: QuantizedMatrix,
    /// Key projection.
    pub wk: QuantizedMatrix,
    /// Value projection.
    pub wv: QuantizedMatrix,
    /// Output projection.
    pub wo: QuantizedMatrix,
    /// Gate projection.
    pub w_gate: QuantizedMatrix,
    /// Up projection.
    pub w_up: QuantizedMatrix,
    /// Down projection.
    pub w_down: QuantizedMatrix,
    /// Pre-attention norm gain (FP16).
    pub attn_norm: Vec<F16>,
    /// Pre-MLP norm gain (FP16).
    pub mlp_norm: Vec<F16>,
}

impl QuantizedModel {
    /// Quantizes synthetic f32 weights into the deployment format.
    pub fn quantize(weights: &ModelWeights, group: GroupQuantConfig) -> QuantizedModel {
        let cfg = weights.config().clone();
        let q =
            |m: &zllm_model::Matrix| QuantizedMatrix::quantize(m.data(), m.rows(), m.cols(), group);
        let f16v = |v: &[f32]| v.iter().map(|&x| F16::from_f32(x)).collect::<Vec<_>>();
        let layers = weights
            .layers
            .iter()
            .map(|l| QuantizedLayer {
                wq: q(&l.wq),
                wk: q(&l.wk),
                wv: q(&l.wv),
                wo: q(&l.wo),
                w_gate: q(&l.w_gate),
                w_up: q(&l.w_up),
                w_down: q(&l.w_down),
                attn_norm: f16v(&l.attn_norm),
                mlp_norm: f16v(&l.mlp_norm),
            })
            .collect();
        let embedding = (0..cfg.vocab_size)
            .map(|t| f16v(weights.embedding.row(t)))
            .collect();
        QuantizedModel {
            embedding,
            layers,
            final_norm: f16v(&weights.final_norm),
            lm_head: q(&weights.lm_head),
            config: cfg,
        }
    }

    /// Assembles a model from converter output (see
    /// [`crate::converter`]).
    ///
    /// # Panics
    ///
    /// Panics if the layer count or embedding size mismatches the
    /// configuration.
    pub fn from_parts(
        config: ModelConfig,
        embedding: Vec<Vec<F16>>,
        layers: Vec<QuantizedLayer>,
        final_norm: Vec<F16>,
        lm_head: QuantizedMatrix,
    ) -> QuantizedModel {
        assert_eq!(layers.len(), config.n_layers, "layer count mismatch");
        assert_eq!(
            embedding.len(),
            config.vocab_size,
            "embedding rows mismatch"
        );
        assert_eq!(
            final_norm.len(),
            config.d_model,
            "final norm length mismatch"
        );
        QuantizedModel {
            config,
            embedding,
            layers,
            final_norm,
            lm_head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }
}

/// One layer's quantized KV history, as the on-chip quantizer wrote it.
#[derive(Debug, Clone, Default)]
struct LayerKv {
    /// `keys[token * n_kv_heads + head]`.
    keys: Vec<QuantizedKv>,
    values: Vec<QuantizedKv>,
}

/// The shared physical page pool of a paged batch decoder — the
/// functional mirror of [`crate::KvLayout::Paged`]: fixed-size
/// pages of `page_tokens` tokens granted on demand through the layout
/// allocator, each holding that token span's K/V codes for every layer.
/// Paging only remaps *where* codes are stored, never what is computed,
/// so a paged decoder's logits are bit-identical to the contiguous one's.
#[derive(Debug)]
struct KvPagePool {
    alloc: PagedKvAllocator,
    /// `pages[phys][layer]` — the codes resident in physical page `phys`.
    pages: Vec<Vec<LayerKv>>,
}

impl KvPagePool {
    fn new(total_pages: usize, seqs: usize, page_tokens: usize, n_layers: usize) -> KvPagePool {
        KvPagePool {
            alloc: PagedKvAllocator::new(total_pages, seqs, page_tokens),
            pages: vec![vec![LayerKv::default(); n_layers]; total_pages],
        }
    }

    /// Grants `slot` whatever pages it needs to hold position `pos`,
    /// clearing freshly granted pages of their previous owner's codes.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted — the admission layer's job is to
    /// never let concurrent growth outrun the pool.
    fn ensure(&mut self, slot: usize, pos: usize) {
        let before = self.alloc.pages_of(slot).len();
        assert!(
            self.alloc.grow_to(slot, pos + 1),
            "KV page pool exhausted (admission must bound growth)"
        );
        for i in before..self.alloc.pages_of(slot).len() {
            let phys = self.alloc.pages_of(slot)[i];
            for kv in &mut self.pages[phys] {
                kv.keys.clear();
                kv.values.clear();
            }
        }
    }

    fn release(&mut self, slot: usize) {
        self.alloc.release(slot);
    }

    fn push(
        &mut self,
        slot: usize,
        layer: usize,
        pos: usize,
        key: QuantizedKv,
        value: QuantizedKv,
    ) {
        let pt = self.alloc.page_tokens();
        let phys = self.alloc.pages_of(slot)[pos / pt];
        let kv = &mut self.pages[phys][layer];
        kv.keys.push(key);
        kv.values.push(value);
    }

    fn key(
        &self,
        slot: usize,
        layer: usize,
        t: usize,
        head: usize,
        n_kv_heads: usize,
    ) -> &QuantizedKv {
        let pt = self.alloc.page_tokens();
        let phys = self.alloc.pages_of(slot)[t / pt];
        &self.pages[phys][layer].keys[(t % pt) * n_kv_heads + head]
    }

    fn value(
        &self,
        slot: usize,
        layer: usize,
        t: usize,
        head: usize,
        n_kv_heads: usize,
    ) -> &QuantizedKv {
        let pt = self.alloc.page_tokens();
        let phys = self.alloc.pages_of(slot)[t / pt];
        &self.pages[phys][layer].values[(t % pt) * n_kv_heads + head]
    }
}

/// The functional accelerator decoder for a single sequence: an
/// [`AccelBatchDecoder`] with a batch of one, so both run the same
/// datapath code.
///
/// # Example
///
/// ```
/// use zllm_accel::{AccelDecoder, QuantizedModel};
/// use zllm_model::{ModelConfig, ModelWeights};
/// use zllm_quant::group::GroupQuantConfig;
///
/// let cfg = ModelConfig::test_small();
/// let weights = ModelWeights::generate(&cfg, 1);
/// let qmodel = QuantizedModel::quantize(&weights, GroupQuantConfig::w4_g128());
/// let mut dec = AccelDecoder::new(&qmodel);
/// let logits = dec.forward(3);
/// assert_eq!(logits.len(), cfg.vocab_size);
/// ```
#[derive(Debug)]
pub struct AccelDecoder<'m> {
    batch: AccelBatchDecoder<'m>,
}

impl<'m> AccelDecoder<'m> {
    /// Creates a decoder over a quantized model.
    pub fn new(model: &'m QuantizedModel) -> AccelDecoder<'m> {
        AccelDecoder {
            batch: AccelBatchDecoder::new(model, 1),
        }
    }

    /// Creates a decoder whose VPU and KV-pack path publish into the
    /// given registry (under `vpu.*` and `kv_pack.*`).
    pub fn with_metrics(
        model: &'m QuantizedModel,
        reg: &mut zllm_telemetry::MetricsRegistry,
    ) -> AccelDecoder<'m> {
        AccelDecoder {
            batch: AccelBatchDecoder::with_metrics(model, 1, reg),
        }
    }

    /// Tokens processed so far.
    pub fn pos(&self) -> usize {
        self.batch.seq_pos(0)
    }

    /// Processes one token through the accelerator datapath, returning
    /// next-token logits as f32.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary or the context is full.
    pub fn forward(&mut self, token: usize) -> Vec<f32> {
        let mut logits = self.batch.decode_at(&[(0, token)]);
        logits.pop().expect("one logits vector per sequence")
    }

    /// Runs the prefill phase, returning the last logits.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty.
    pub fn prefill(&mut self, prompt: &[usize]) -> Vec<f32> {
        assert!(!prompt.is_empty(), "empty prompt");
        let mut logits = Vec::new();
        for &t in prompt {
            logits = self.forward(t);
        }
        logits
    }
}

/// One sequence's private state inside the batch decoder: its KV cache
/// history, its own decode position, and the (stateful) online KV8
/// quantizer feeding its metadata FIFO. Everything else — weights, the
/// VPU, the stateless SPU units — is shared by the whole batch.
#[derive(Debug)]
struct SeqState {
    quantizer: KvQuantizer,
    kv: Vec<LayerKv>,
    pos: usize,
}

/// The functional decoder for a batch of concurrent sequences.
///
/// Runs up to `B` sequences through the accelerator datapath with every
/// weight matrix traversed **once** per step: [`QuantizedMatrix::matvec_batch`]
/// dequantizes each group a single time and fans the dot products out to
/// all sequences, exactly as the batched hardware schedule streams each
/// weight beat once. Per-sequence results are bit-identical to `B`
/// independent [`AccelDecoder`]s fed the same tokens.
///
/// Each slot keeps its own position, so sequences need not run in
/// lockstep: [`AccelBatchDecoder::decode_at`] steps any subset of slots
/// at their own context lengths (the continuous-batching step), and
/// [`AccelBatchDecoder::reset_seq`] re-arms one finished slot for a new
/// sequence without touching its neighbours.
/// [`AccelBatchDecoder::decode_batch`] is the lockstep special case.
///
/// # Example
///
/// ```
/// use zllm_accel::{AccelBatchDecoder, AccelDecoder, QuantizedModel};
/// use zllm_model::{ModelConfig, ModelWeights};
/// use zllm_quant::group::GroupQuantConfig;
///
/// let cfg = ModelConfig::test_small();
/// let weights = ModelWeights::generate(&cfg, 1);
/// let qmodel = QuantizedModel::quantize(&weights, GroupQuantConfig::w4_g128());
/// let mut batch = AccelBatchDecoder::new(&qmodel, 2);
/// let logits = batch.decode_batch(&[3, 7]);
/// let mut single = AccelDecoder::new(&qmodel);
/// assert_eq!(logits[0], single.forward(3));
/// ```
#[derive(Debug)]
pub struct AccelBatchDecoder<'m> {
    model: &'m QuantizedModel,
    /// The model layers this decoder runs: all of them, or one pipeline
    /// stage's range inside a [`ShardedBatchDecoder`]. KV state is
    /// indexed by the layer's offset in this range.
    layers: std::ops::Range<usize>,
    vpu: Vpu,
    rope: RopeUnit,
    rms: RmsNormUnit,
    softmax: SoftmaxUnit,
    silu: SiluUnit,
    seqs: Vec<SeqState>,
    /// `Some` on a paged decoder: KV codes live in shared physical pages
    /// instead of per-slot contiguous vectors.
    pool: Option<KvPagePool>,
    scratch: BatchScratch,
}

/// Per-step scratch reused across [`AccelBatchDecoder::decode_batch`]
/// calls — an allocation optimisation only; every value is produced by
/// the identical datapath operations in the identical order. Matvec
/// operands and results are per-sequence; the attention temporaries are
/// reused sequence by sequence.
#[derive(Debug, Default)]
struct BatchScratch {
    mv: BatchMatvecScratch,
    xn: Vec<Vec<F16>>,
    q: Vec<Vec<F16>>,
    k: Vec<Vec<F16>>,
    v: Vec<Vec<F16>>,
    attn_out: Vec<Vec<F16>>,
    inner: Vec<Vec<F16>>,
    proj: Vec<Vec<F16>>,
    gate: Vec<Vec<F16>>,
    up: Vec<Vec<F16>>,
    logits: Vec<Vec<F16>>,
    scores: Vec<F16>,
    kv: Vec<F16>,
    acc: Vec<f32>,
}

impl<'m> AccelBatchDecoder<'m> {
    /// Creates a decoder for `batch` concurrent sequences.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(model: &'m QuantizedModel, batch: usize) -> AccelBatchDecoder<'m> {
        AccelBatchDecoder::stage(model, batch, 0..model.config().n_layers)
    }

    /// A decoder over model layers `layers` only, with per-sequence KV
    /// state and quantizers for exactly those layers: one stage of a
    /// [`ShardedBatchDecoder`].
    fn stage(
        model: &'m QuantizedModel,
        batch: usize,
        layers: std::ops::Range<usize>,
    ) -> AccelBatchDecoder<'m> {
        assert!(batch > 0, "batch must be at least one sequence");
        let cfg = model.config();
        let seqs = (0..batch)
            .map(|_| SeqState {
                quantizer: KvQuantizer::new(layers.len() * cfg.n_kv_heads * 2),
                kv: vec![LayerKv::default(); layers.len()],
                pos: 0,
            })
            .collect();
        AccelBatchDecoder {
            model,
            layers,
            vpu: Vpu::kv260(),
            rope: RopeUnit::new(cfg.head_dim()),
            rms: RmsNormUnit::new(cfg.norm_eps),
            softmax: SoftmaxUnit::new(),
            silu: SiluUnit::new(),
            seqs,
            pool: None,
            scratch: BatchScratch::default(),
        }
    }

    /// Creates a decoder for `batch` concurrent sequences whose KV codes
    /// live in a shared pool of `total_pages` pages of `page_tokens`
    /// tokens each, granted on demand as sequences decode — the
    /// functional mirror of [`crate::KvLayout::Paged`]. Paging
    /// remaps storage only; logits are bit-identical to
    /// [`AccelBatchDecoder::new`] fed the same tokens.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero, `total_pages` is zero, or `page_tokens`
    /// is not a positive multiple of the 16-token KV pack window. A later
    /// decode step panics if growth exhausts the pool.
    pub fn new_paged(
        model: &'m QuantizedModel,
        batch: usize,
        total_pages: usize,
        page_tokens: usize,
    ) -> AccelBatchDecoder<'m> {
        let mut dec = AccelBatchDecoder::new(model, batch);
        let n_layers = dec.layers.len();
        dec.pool = Some(KvPagePool::new(total_pages, batch, page_tokens, n_layers));
        dec
    }

    /// Creates a batch decoder publishing into the given registry (under
    /// `vpu.*` and `kv_pack.*`; the sequences share the counter cells, so
    /// the totals are batch-wide).
    pub fn with_metrics(
        model: &'m QuantizedModel,
        batch: usize,
        reg: &mut zllm_telemetry::MetricsRegistry,
    ) -> AccelBatchDecoder<'m> {
        let cfg = model.config();
        let mut dec = AccelBatchDecoder::new(model, batch);
        dec.vpu = Vpu::with_counters(
            128,
            zllm_fp16::vector::TreePrecision::Fp32,
            crate::vpu::VpuCounters::register(reg, "vpu"),
        );
        let counters = zllm_layout::kv_pack::KvPackCounters::register(reg, "kv_pack");
        let streams = dec.layers.len() * cfg.n_kv_heads * 2;
        for seq in &mut dec.seqs {
            seq.quantizer = KvQuantizer::with_counters(streams, counters.clone());
        }
        dec
    }

    /// Sequences in the batch.
    pub fn batch(&self) -> usize {
        self.seqs.len()
    }

    /// Tokens processed so far by the furthest-ahead sequence (for a
    /// lockstep batch, every sequence's shared position).
    pub fn pos(&self) -> usize {
        self.seqs.iter().map(|s| s.pos).max().unwrap_or(0)
    }

    /// Tokens processed so far by the sequence in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn seq_pos(&self, slot: usize) -> usize {
        self.seqs[slot].pos
    }

    /// Re-arms `slot` for a fresh sequence joining the batch: clears its
    /// KV history, rewinds its position to zero and replaces its online
    /// quantizer's pack FIFO (keeping the shared telemetry counters), all
    /// without touching any other slot's state.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn reset_seq(&mut self, slot: usize) {
        let (n_layers, n_kv_heads) = (self.layers.len(), self.model.config().n_kv_heads);
        let state = &mut self.seqs[slot];
        state.quantizer = KvQuantizer::with_counters(
            n_layers * n_kv_heads * 2,
            state.quantizer.counters().clone(),
        );
        state.kv = vec![LayerKv::default(); n_layers];
        state.pos = 0;
        // A paged slot also returns its physical pages to the pool —
        // the functional evict-on-finish.
        if let Some(pool) = &mut self.pool {
            pool.release(slot);
        }
    }

    /// Decodes one token for every sequence in lockstep (`tokens[i]` is
    /// sequence `i`'s input), returning each sequence's next-token
    /// logits. The uniform special case of
    /// [`AccelBatchDecoder::decode_at`].
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len()` differs from the batch, the sequences
    /// are not at the same position, any token is out of vocabulary, or
    /// the context is full.
    pub fn decode_batch(&mut self, tokens: &[usize]) -> Vec<Vec<f32>> {
        let steps = self.lockstep(tokens);
        self.decode_at(&steps)
    }

    /// `tokens` as one decode step of every slot, in slot order.
    fn lockstep(&self, tokens: &[usize]) -> Vec<(usize, usize)> {
        assert_eq!(tokens.len(), self.seqs.len(), "one token per sequence");
        let pos0 = self.seqs[0].pos;
        assert!(
            self.seqs.iter().all(|s| s.pos == pos0),
            "sequences are ragged; use decode_at"
        );
        tokens.iter().copied().enumerate().collect()
    }

    /// Decodes one token for each `(slot, token)` pair, every sequence at
    /// **its own** position — the continuous-batching step. Slots not
    /// named sit out unchanged, so sequences join (after
    /// [`AccelBatchDecoder::reset_seq`]) and leave between steps freely.
    /// Weight matrices are still traversed once, fanned across the
    /// participants; per-sequence logits are bit-identical to independent
    /// [`AccelDecoder`]s at the same positions.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, repeats a slot, names a slot out of
    /// range, a token out of vocabulary, or a sequence whose context is
    /// full.
    pub fn decode_at(&mut self, steps: &[(usize, usize)]) -> Vec<Vec<f32>> {
        self.check_steps(steps);
        let mut xs = self.embed(steps);
        self.run_layers(steps, &mut xs);
        self.head(&xs)
    }

    /// Asserts what [`AccelBatchDecoder::decode_at`] documents under
    /// `# Panics`.
    fn check_steps(&self, steps: &[(usize, usize)]) {
        let cfg = self.model.config();
        assert!(!steps.is_empty(), "at least one sequence required");
        for (i, &(slot, t)) in steps.iter().enumerate() {
            assert!(slot < self.seqs.len(), "slot {slot} out of range");
            assert!(
                !steps[..i].iter().any(|&(s, _)| s == slot),
                "duplicate slot in decode step"
            );
            assert!(t < cfg.vocab_size, "token {t} out of vocabulary");
            assert!(
                self.seqs[slot].pos < cfg.max_seq_len,
                "context window exhausted"
            );
        }
    }

    /// The steps' FP16 embedding rows: the hidden states entering the
    /// first layer.
    fn embed(&self, steps: &[(usize, usize)]) -> Vec<Vec<F16>> {
        steps
            .iter()
            .map(|&(_, t)| self.model.embedding[t].clone())
            .collect()
    }

    /// Runs this decoder's layers over the hidden states `xs` of the
    /// stepping slots, then advances those slots' positions.
    fn run_layers(&mut self, steps: &[(usize, usize)], xs: &mut [Vec<F16>]) {
        // Paged storage: grant every participating sequence the page its
        // write-back lands on *before* any layer runs — one on-demand
        // allocation per crossed page boundary, exactly the step the
        // schedule prices as its `kv_pt_write` burst.
        if let Some(pool) = &mut self.pool {
            for &(slot, _) in steps {
                pool.ensure(slot, self.seqs[slot].pos);
            }
        }
        let model = self.model;
        let s = &mut self.scratch;
        s.xn.resize_with(steps.len(), Vec::new);
        s.attn_out.resize_with(steps.len(), Vec::new);
        s.inner.resize_with(steps.len(), Vec::new);
        for (kv_idx, layer) in model.layers[self.layers.clone()].iter().enumerate() {
            self.layer_forward(layer, kv_idx, steps, xs);
        }
        for &(slot, _) in steps {
            self.seqs[slot].pos += 1;
        }
    }

    /// One transformer layer of the batched datapath over the stepping
    /// slots' hidden states `xs`. `kv_idx` is the layer's offset in this
    /// decoder's range, which indexes its per-sequence KV storage. With a
    /// page pool, KV codes live in shared physical pages instead of the
    /// slot-local vectors; the arithmetic and its order are identical
    /// either way.
    fn layer_forward(
        &mut self,
        layer: &QuantizedLayer,
        kv_idx: usize,
        steps: &[(usize, usize)],
        xs: &mut [Vec<F16>],
    ) {
        let AccelBatchDecoder {
            model,
            vpu,
            rope,
            rms,
            softmax,
            silu,
            seqs,
            pool,
            scratch: s,
            ..
        } = self;
        let cfg = model.config();
        let hd = cfg.head_dim();
        let group = cfg.n_heads / cfg.n_kv_heads;
        let scale = F16::from_f32(1.0 / (hd as f32).sqrt());

        // Attention block.
        for (xn, x) in s.xn.iter_mut().zip(xs.iter()) {
            *xn = rms.normalize(x, &layer.attn_norm);
        }
        layer.wq.matvec_batch(vpu, &s.xn, &mut s.mv, &mut s.q);
        layer.wk.matvec_batch(vpu, &s.xn, &mut s.mv, &mut s.k);
        layer.wv.matvec_batch(vpu, &s.xn, &mut s.mv, &mut s.v);

        for (i, &(slot, _)) in steps.iter().enumerate() {
            let state = &mut seqs[slot];
            let pos = state.pos;
            for h in 0..cfg.n_heads {
                rope.apply(&mut s.q[i][h * hd..(h + 1) * hd], pos as u32);
            }
            for h in 0..cfg.n_kv_heads {
                rope.apply(&mut s.k[i][h * hd..(h + 1) * hd], pos as u32);
                // Online KV8 quantization into this sequence's FIFO.
                let kq = state
                    .quantizer
                    .quantize_head(0, &s.k[i][h * hd..(h + 1) * hd]);
                let vq = state
                    .quantizer
                    .quantize_head(0, &s.v[i][h * hd..(h + 1) * hd]);
                match pool.as_mut() {
                    Some(pool) => pool.push(slot, kv_idx, pos, kq.codes, vq.codes),
                    None => {
                        state.kv[kv_idx].keys.push(kq.codes);
                        state.kv[kv_idx].values.push(vq.codes);
                    }
                }
            }
        }

        for (i, &(slot, _)) in steps.iter().enumerate() {
            let state = &seqs[slot];
            let pos = state.pos;
            let attn_out = &mut s.attn_out[i];
            attn_out.clear();
            attn_out.resize(cfg.d_model, F16::ZERO);
            for h in 0..cfg.n_heads {
                let kv_head = h / group;
                let qh = &s.q[i][h * hd..(h + 1) * hd];
                s.scores.clear();
                for t in 0..=pos {
                    match pool.as_ref() {
                        Some(pool) => pool
                            .key(slot, kv_idx, t, kv_head, cfg.n_kv_heads)
                            .dequantize_f16_into(&mut s.kv),
                        None => state.kv[kv_idx].keys[t * cfg.n_kv_heads + kv_head]
                            .dequantize_f16_into(&mut s.kv),
                    }
                    s.scores.push(F16::from_f32(vpu.dot_row(qh, &s.kv)) * scale);
                }
                let probs = softmax.softmax(&s.scores);
                // Weighted value sum, accumulated in f32 per lane.
                s.acc.clear();
                s.acc.resize(hd, 0.0);
                for (t, &p) in probs.iter().enumerate() {
                    match pool.as_ref() {
                        Some(pool) => pool
                            .value(slot, kv_idx, t, kv_head, cfg.n_kv_heads)
                            .dequantize_f16_into(&mut s.kv),
                        None => state.kv[kv_idx].values[t * cfg.n_kv_heads + kv_head]
                            .dequantize_f16_into(&mut s.kv),
                    }
                    for (a, vv) in s.acc.iter_mut().zip(&s.kv) {
                        *a += (p * *vv).to_f32();
                    }
                }
                for (o, a) in attn_out[h * hd..(h + 1) * hd].iter_mut().zip(&s.acc) {
                    *o = F16::from_f32(*a);
                }
            }
        }

        layer
            .wo
            .matvec_batch(vpu, &s.attn_out, &mut s.mv, &mut s.proj);
        for (x, proj) in xs.iter_mut().zip(&s.proj) {
            for (xi, pi) in x.iter_mut().zip(proj) {
                *xi += *pi;
            }
        }

        // MLP block.
        for (xn, x) in s.xn.iter_mut().zip(xs.iter()) {
            *xn = rms.normalize(x, &layer.mlp_norm);
        }
        layer
            .w_gate
            .matvec_batch(vpu, &s.xn, &mut s.mv, &mut s.gate);
        layer.w_up.matvec_batch(vpu, &s.xn, &mut s.mv, &mut s.up);
        for (inner, (gate, up)) in s.inner.iter_mut().zip(s.gate.iter().zip(&s.up)) {
            *inner = silu.gate(gate, up);
        }
        layer
            .w_down
            .matvec_batch(vpu, &s.inner, &mut s.mv, &mut s.proj);
        for (x, proj) in xs.iter_mut().zip(&s.proj) {
            for (xi, di) in x.iter_mut().zip(proj) {
                *xi += *di;
            }
        }
    }

    /// The final norm and LM head over the last layer's hidden states:
    /// each stepping sequence's next-token logits. Runs after this
    /// decoder's [`AccelBatchDecoder::run_layers`] sized the scratch for
    /// the step.
    fn head(&mut self, xs: &[Vec<F16>]) -> Vec<Vec<f32>> {
        let s = &mut self.scratch;
        for (xn, x) in s.xn.iter_mut().zip(xs) {
            *xn = self.rms.normalize(x, &self.model.final_norm);
        }
        self.model
            .lm_head
            .matvec_batch(&self.vpu, &s.xn, &mut s.mv, &mut s.logits);
        s.logits
            .iter()
            .map(|logits| logits.iter().map(|v| v.to_f32()).collect())
            .collect()
    }

    /// Runs a prefill phase for every sequence in lockstep
    /// (`prompts[step]` holds each sequence's token at `step`), returning
    /// the last step's logits.
    ///
    /// # Panics
    ///
    /// Panics if `prompts` is empty or any step's width differs from the
    /// batch.
    pub fn prefill_batch(&mut self, prompts: &[Vec<usize>]) -> Vec<Vec<f32>> {
        prefill_lockstep(prompts, |step| self.decode_batch(step))
    }

    /// Runs the target model over one speculative verify window:
    /// `tokens[0]` is the last committed token and `tokens[1..]` are the
    /// draft proposals, each processed at the sequence's next position.
    /// Returns one logits vector per window position.
    ///
    /// The window runs token by token through
    /// [`AccelBatchDecoder::decode_at`], so every logits vector is
    /// bit-identical to sequential decode *by construction* — the
    /// hardware's batched verify pass amortizes the weight stream (priced
    /// by [`crate::schedule::speculative_verify_schedule`]) without
    /// changing any arithmetic. All window tokens are committed to the KV
    /// cache as they run; the rejected suffix is un-committed afterwards
    /// with [`AccelBatchDecoder::rollback_seq`].
    ///
    /// # Panics
    ///
    /// Panics as [`AccelBatchDecoder::decode_at`] does, or if the window
    /// is empty.
    pub fn verify_window(&mut self, slot: usize, tokens: &[usize]) -> Vec<Vec<f32>> {
        assert!(!tokens.is_empty(), "verify window needs at least one token");
        tokens
            .iter()
            .map(|&t| self.decode_at(&[(slot, t)]).remove(0))
            .collect()
    }

    /// Rolls `slot` back to a history of `keep_pos` tokens, discarding a
    /// rejected speculative suffix: KV codes past the boundary are
    /// truncated (a paged slot also returns wholly-freed pages to the
    /// pool), the position rewinds, and the online quantizer's pack FIFO
    /// is rebuilt by replaying the retained tokens' scale-zero packs in
    /// their original append order. The codes themselves are already in
    /// the cache, so nothing is re-quantized; the replay runs against a
    /// detached FIFO and the shared telemetry counters are re-attached
    /// afterwards, so they see no new packs.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `keep_pos` exceeds the
    /// sequence's position.
    pub fn rollback_seq(&mut self, slot: usize, keep_pos: usize) {
        let cfg = self.model.config();
        let n_layers = self.layers.len();
        assert!(slot < self.seqs.len(), "slot {slot} out of range");
        assert!(
            keep_pos <= self.seqs[slot].pos,
            "cannot roll forward: keep {keep_pos} > pos {}",
            self.seqs[slot].pos
        );
        if keep_pos == self.seqs[slot].pos {
            return;
        }
        // Truncate the KV storage to the retained prefix.
        match &mut self.pool {
            Some(pool) => {
                let pt = pool.alloc.page_tokens();
                if !keep_pos.is_multiple_of(pt) {
                    // The boundary page survives partially occupied.
                    let phys = pool.alloc.pages_of(slot)[keep_pos / pt];
                    for kv in &mut pool.pages[phys] {
                        kv.keys.truncate((keep_pos % pt) * cfg.n_kv_heads);
                        kv.values.truncate((keep_pos % pt) * cfg.n_kv_heads);
                    }
                }
                // Freed pages need no clearing here: `ensure` clears
                // every freshly granted page for its new owner.
                pool.alloc.shrink_to(slot, keep_pos);
            }
            None => {
                for kv in &mut self.seqs[slot].kv {
                    kv.keys.truncate(keep_pos * cfg.n_kv_heads);
                    kv.values.truncate(keep_pos * cfg.n_kv_heads);
                }
            }
        }
        // Rebuild the pack FIFO: replay the retained packs in quantize
        // order (token → layer → kv-head → K then V, exactly as
        // `batch_layer_forward` appended them).
        let mut packs = Vec::with_capacity(keep_pos * n_layers * cfg.n_kv_heads * 2);
        for t in 0..keep_pos {
            for layer in 0..n_layers {
                for h in 0..cfg.n_kv_heads {
                    let (k, v) = match &self.pool {
                        Some(pool) => (
                            pool.key(slot, layer, t, h, cfg.n_kv_heads),
                            pool.value(slot, layer, t, h, cfg.n_kv_heads),
                        ),
                        None => {
                            let kv = &self.seqs[slot].kv[layer];
                            (
                                &kv.keys[t * cfg.n_kv_heads + h],
                                &kv.values[t * cfg.n_kv_heads + h],
                            )
                        }
                    };
                    packs.push(k.meta().to_pack());
                    packs.push(v.meta().to_pack());
                }
            }
        }
        let state = &mut self.seqs[slot];
        let counters = state.quantizer.counters().clone();
        let mut fresh = KvQuantizer::new(n_layers * cfg.n_kv_heads * 2);
        for pack in packs {
            fresh.replay_pack(pack);
        }
        fresh.attach_counters(counters);
        state.quantizer = fresh;
        state.pos = keep_pos;
    }
}

/// Decodes `prompts[step]` for every sequence in lockstep, one step
/// after another, returning the last step's logits.
fn prefill_lockstep(
    prompts: &[Vec<usize>],
    mut decode_batch: impl FnMut(&[usize]) -> Vec<Vec<f32>>,
) -> Vec<Vec<f32>> {
    assert!(!prompts.is_empty(), "empty prompt");
    let mut logits = Vec::new();
    for step in prompts {
        logits = decode_batch(step);
    }
    logits
}

/// Greedy accept/reject of a verify window's logits against the draft
/// proposals: `logits[j]` is the target's next-token distribution after
/// window position `j` and `drafts[j]` is the draft model's proposal for
/// that next token, so `logits.len() == drafts.len() + 1` (the window
/// also ran the last proposal). Returns `(accepted, next_token)`: the
/// length of the longest prefix of drafts the target would itself have
/// produced under greedy sampling, plus the target's own token after the
/// accepted prefix — the "bonus" token when every draft is accepted, the
/// correction otherwise. The caller commits `accepted + 1` tokens either
/// way, which is why speculation never emits fewer tokens per verify
/// pass than plain decode.
///
/// # Panics
///
/// Panics if `logits.len() != drafts.len() + 1`.
pub fn greedy_accept(logits: &[Vec<f32>], drafts: &[usize]) -> (usize, usize) {
    assert_eq!(
        logits.len(),
        drafts.len() + 1,
        "one logits vector per verify position (drafts + 1)"
    );
    let accepted = drafts
        .iter()
        .zip(logits)
        .take_while(|&(&d, l)| zllm_model::sampler::argmax(l) == d)
        .count();
    (accepted, zllm_model::sampler::argmax(&logits[accepted]))
}

/// The functional decoder for a pipeline-parallel sharded batch.
///
/// The model's layers split into `stages` contiguous ranges (see
/// [`crate::image::split_layers`]), and each stage is an
/// [`AccelBatchDecoder`] over its own range: it keeps its own
/// per-sequence KV history and online KV8 quantizers for exactly its
/// layers, as each board of a cluster would. The first stage embeds, the
/// hidden-state vectors are handed from stage to stage exactly as the
/// interconnect would carry them, and the last stage applies the final
/// norm and LM head. KV8 codes are a pure function of the head vector
/// being quantized, so per-sequence logits are **bit-identical** to the
/// single-board decoder — the determinism test the cluster layer's
/// pricing rests on.
///
/// # Example
///
/// ```
/// use zllm_accel::{AccelBatchDecoder, QuantizedModel, ShardedBatchDecoder};
/// use zllm_model::{ModelConfig, ModelWeights};
/// use zllm_quant::group::GroupQuantConfig;
///
/// let cfg = ModelConfig::test_small();
/// let weights = ModelWeights::generate(&cfg, 1);
/// let qmodel = QuantizedModel::quantize(&weights, GroupQuantConfig::w4_g128());
/// let mut sharded = ShardedBatchDecoder::new(&qmodel, 2, 2);
/// let mut single = AccelBatchDecoder::new(&qmodel, 2);
/// assert_eq!(sharded.decode_batch(&[3, 7]), single.decode_batch(&[3, 7]));
/// ```
#[derive(Debug)]
pub struct ShardedBatchDecoder<'m> {
    /// One decoder per stage, first to last.
    stages: Vec<AccelBatchDecoder<'m>>,
}

impl<'m> ShardedBatchDecoder<'m> {
    /// Creates a decoder for `batch` concurrent sequences over `stages`
    /// pipeline shards.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero, or `stages` is zero or exceeds the
    /// model's layer count.
    pub fn new(model: &'m QuantizedModel, batch: usize, stages: usize) -> ShardedBatchDecoder<'m> {
        let stages = crate::image::split_layers(model.config().n_layers, stages)
            .into_iter()
            .map(|layers| AccelBatchDecoder::stage(model, batch, layers))
            .collect();
        ShardedBatchDecoder { stages }
    }

    /// Pipeline stages.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Sequences in the batch.
    pub fn batch(&self) -> usize {
        self.stages[0].batch()
    }

    /// Tokens processed so far by the furthest-ahead sequence.
    pub fn pos(&self) -> usize {
        self.stages[0].pos()
    }

    /// Tokens processed so far by the sequence in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn seq_pos(&self, slot: usize) -> usize {
        self.stages[0].seq_pos(slot)
    }

    /// Re-arms `slot` for a fresh sequence on **every** stage — the
    /// cluster-wide analogue of [`AccelBatchDecoder::reset_seq`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn reset_seq(&mut self, slot: usize) {
        for stage in &mut self.stages {
            stage.reset_seq(slot);
        }
    }

    /// Decodes one token for every sequence in lockstep — the uniform
    /// special case of [`ShardedBatchDecoder::decode_at`].
    ///
    /// # Panics
    ///
    /// Panics as [`AccelBatchDecoder::decode_batch`] does.
    pub fn decode_batch(&mut self, tokens: &[usize]) -> Vec<Vec<f32>> {
        let steps = self.stages[0].lockstep(tokens);
        self.decode_at(&steps)
    }

    /// Decodes one token for each `(slot, token)` pair across the whole
    /// pipeline: the first stage embeds, each stage runs its layer range
    /// over its own KV state, hidden states flow stage to stage, and the
    /// last stage applies the final norm and LM head. Bit-identical to
    /// [`AccelBatchDecoder::decode_at`] on the same model and history.
    ///
    /// # Panics
    ///
    /// Panics as [`AccelBatchDecoder::decode_at`] does.
    pub fn decode_at(&mut self, steps: &[(usize, usize)]) -> Vec<Vec<f32>> {
        self.stages[0].check_steps(steps);
        let mut xs = self.stages[0].embed(steps);
        for stage in &mut self.stages {
            stage.run_layers(steps, &mut xs);
        }
        let last = self.stages.last_mut().expect("at least one stage");
        last.head(&xs)
    }

    /// Runs a lockstep prefill phase, returning the last step's logits.
    ///
    /// # Panics
    ///
    /// Panics if `prompts` is empty or any step's width differs from the
    /// batch.
    pub fn prefill_batch(&mut self, prompts: &[Vec<usize>]) -> Vec<Vec<f32>> {
        prefill_lockstep(prompts, |step| self.decode_batch(step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zllm_model::kv_cache::KvCacheF32;
    use zllm_model::reference::Decoder;
    use zllm_model::sampler::argmax;
    use zllm_quant::error::ErrorStats;

    fn setup(seed: u64) -> (ModelConfig, ModelWeights, QuantizedModel) {
        let cfg = ModelConfig::test_small();
        let weights = ModelWeights::generate(&cfg, seed);
        let qmodel = QuantizedModel::quantize(&weights, GroupQuantConfig::w4_g128());
        (cfg, weights, qmodel)
    }

    #[test]
    fn quantized_matvec_tracks_f32() {
        let rows = 32;
        let cols = 256;
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31) % 61) as f32 / 61.0 - 0.5)
            .collect();
        let qm = QuantizedMatrix::quantize(&data, rows, cols, GroupQuantConfig::w4_g128());
        assert_eq!(qm.rows(), rows);
        assert_eq!(qm.cols(), cols);
        let x: Vec<f32> = (0..cols)
            .map(|i| ((i * 17) % 23) as f32 / 23.0 - 0.5)
            .collect();
        let x16: Vec<F16> = x.iter().map(|&v| F16::from_f32(v)).collect();
        let got = qm.matvec(&Vpu::kv260(), &x16);
        let m = zllm_model::Matrix::new(rows, cols, data);
        let want = m.matvec(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.to_f32() - w).abs() < 0.35, "{} vs {w}", g.to_f32());
        }
    }

    #[test]
    fn accel_decoder_matches_reference_closely() {
        let (cfg, weights, qmodel) = setup(21);
        let mut reference = Decoder::new(&weights, KvCacheF32::new(&cfg));
        let mut accel = AccelDecoder::new(&qmodel);
        let prompt = [3usize, 11, 7, 100, 42];
        let ref_logits = reference.prefill(&prompt);
        let acc_logits = accel.prefill(&prompt);
        let stats = ErrorStats::between(&ref_logits, &acc_logits);
        // W4 on *synthetic* (incompressible, uniform) weights is harsher
        // than on trained checkpoints; a cosine above 0.95 over two full
        // blocks confirms the datapath is numerically sound.
        assert!(stats.cosine > 0.95, "logit cosine too low: {stats}");
        // The reference argmax should be near the top of the accel ranking.
        let top = argmax(&ref_logits);
        let mut ranked: Vec<usize> = (0..acc_logits.len()).collect();
        ranked.sort_by(|&a, &b| acc_logits[b].total_cmp(&acc_logits[a]));
        let rank = ranked.iter().position(|&i| i == top).expect("present");
        assert!(
            rank < 10,
            "reference argmax ranked {rank} by the accelerator"
        );
    }

    #[test]
    fn decoder_is_deterministic() {
        let (_, _, qmodel) = setup(5);
        let mut a = AccelDecoder::new(&qmodel);
        let mut b = AccelDecoder::new(&qmodel);
        assert_eq!(a.prefill(&[1, 2, 3]), b.prefill(&[1, 2, 3]));
        assert_eq!(a.pos(), 3);
    }

    #[test]
    fn generation_loop_runs() {
        let (_, _, qmodel) = setup(9);
        let mut dec = AccelDecoder::new(&qmodel);
        let mut logits = dec.prefill(&[10, 20]);
        let mut generated = Vec::new();
        for _ in 0..5 {
            let t = argmax(&logits);
            generated.push(t);
            logits = dec.forward(t);
        }
        assert_eq!(generated.len(), 5);
        assert!(generated.iter().all(|&t| t < qmodel.config().vocab_size));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn vocabulary_checked() {
        let (cfg, _, qmodel) = setup(1);
        let mut dec = AccelDecoder::new(&qmodel);
        let _ = dec.forward(cfg.vocab_size);
    }

    #[test]
    fn matvec_batch_bit_identical_and_amortizes_dequant() {
        use crate::vpu::VpuCounters;
        use zllm_fp16::vector::TreePrecision;
        use zllm_telemetry::MetricsRegistry;

        let rows = 8;
        let cols = 256;
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 37) % 53) as f32 / 53.0 - 0.5)
            .collect();
        let qm = QuantizedMatrix::quantize(&data, rows, cols, GroupQuantConfig::w4_g128());
        let xs: Vec<Vec<F16>> = (0..4usize)
            .map(|seq| {
                (0..cols)
                    .map(|i| F16::from_f32(((i * 13 + seq * 7) % 29) as f32 / 29.0 - 0.5))
                    .collect()
            })
            .collect();

        let mut breg = MetricsRegistry::new();
        let bvpu = Vpu::with_counters(
            128,
            TreePrecision::Fp32,
            VpuCounters::register(&mut breg, "vpu"),
        );
        let mut scratch = BatchMatvecScratch::default();
        let mut outs = Vec::new();
        qm.matvec_batch(&bvpu, &xs, &mut scratch, &mut outs);

        let mut sreg = MetricsRegistry::new();
        let svpu = Vpu::with_counters(
            128,
            TreePrecision::Fp32,
            VpuCounters::register(&mut sreg, "vpu"),
        );
        for (seq, x) in xs.iter().enumerate() {
            let want = qm.matvec(&svpu, x);
            let got_bits: Vec<u16> = outs[seq].iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u16> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "sequence {seq} diverged");
        }

        // Dequantization ran once per group in the batch, B times across
        // the independent runs; the dot work is per-sequence either way.
        let batched = breg.snapshot();
        let independent = sreg.snapshot();
        let bd = batched.counters["vpu.dequant_beats"];
        assert!(bd > 0);
        assert_eq!(independent.counters["vpu.dequant_beats"], bd * 4);
        assert_eq!(
            independent.counters["vpu.dot_beats"],
            batched.counters["vpu.dot_beats"]
        );
    }

    #[test]
    fn matvec_batch_fast_path_matches_scalar_path_bit_for_bit() {
        use crate::vpu::VpuCounters;
        use zllm_fp16::vector::TreePrecision;
        use zllm_telemetry::MetricsRegistry;

        // 4-bit groups of 128, 48 (a short last group and beats shorter
        // than the lanes) and 16, plus 8-bit codes, which always take the
        // F16 beat path; whole row tiles of eight, partial last tiles,
        // several tiles and matrices of less than one tile.
        let cols = 200;
        let configs = [
            (GroupQuantConfig::w4_g128(), 128),
            (GroupQuantConfig::new(48, 4), 32),
            (GroupQuantConfig::new(16, 4), 4),
            (GroupQuantConfig::new(64, 8), 128),
        ];
        let shapes = configs
            .into_iter()
            .flat_map(|c| [1usize, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17].map(|rows| (c, rows)));
        for ((cfg, lanes), rows) in shapes {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((i * 41) % 67) as f32 / 67.0 - 0.5)
                .collect();
            let qm = QuantizedMatrix::quantize(&data, rows, cols, cfg);
            for batch in 1..=5usize {
                let xs: Vec<Vec<F16>> = (0..batch)
                    .map(|seq| {
                        (0..cols)
                            .map(|i| F16::from_f32(((i * 11 + seq * 5) % 31) as f32 / 7.0 - 2.0))
                            .collect()
                    })
                    .collect();
                let run = |fast| {
                    zllm_fp16::set_fast_kernels(fast);
                    let mut reg = MetricsRegistry::new();
                    let vpu = Vpu::with_counters(
                        lanes,
                        TreePrecision::Fp32,
                        VpuCounters::register(&mut reg, "vpu"),
                    );
                    let mut outs = Vec::new();
                    qm.matvec_batch(&vpu, &xs, &mut BatchMatvecScratch::default(), &mut outs);
                    zllm_fp16::set_fast_kernels(true);
                    let bits: Vec<Vec<u16>> = outs
                        .iter()
                        .map(|out| out.iter().map(|v| v.to_bits()).collect())
                        .collect();
                    (bits, reg.snapshot().counters)
                };
                assert_eq!(run(true), run(false), "{cfg:?}, {rows} rows, batch {batch}");
            }
        }
    }

    #[test]
    fn batch_decode_matches_independent_decoders() {
        let (_, _, qmodel) = setup(13);
        let tokens = [1usize, 50, 7, 9, 2, 101, 30, 30, 4, 77, 12, 5, 64, 3, 19];
        for width in [3usize, 4, 5] {
            let mut batch = AccelBatchDecoder::new(&qmodel, width);
            let mut singles: Vec<AccelDecoder> =
                (0..width).map(|_| AccelDecoder::new(&qmodel)).collect();
            for step in tokens.chunks_exact(width).take(3) {
                let got = batch.decode_batch(step);
                for (seq, (dec, &tok)) in singles.iter_mut().zip(step).enumerate() {
                    let want = dec.forward(tok);
                    let got_bits: Vec<u32> = got[seq].iter().map(|v| v.to_bits()).collect();
                    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got_bits, want_bits,
                        "batch {width}: sequence {seq} diverged"
                    );
                }
            }
            assert_eq!(batch.pos(), 3);
            assert_eq!(batch.batch(), width);
        }
    }

    #[test]
    fn batch_prefill_matches_single_prefill() {
        let (_, _, qmodel) = setup(4);
        let mut batch = AccelBatchDecoder::new(&qmodel, 2);
        let steps = vec![vec![10usize, 3], vec![20, 40], vec![5, 5]];
        let got = batch.prefill_batch(&steps);
        let mut a = AccelDecoder::new(&qmodel);
        let mut b = AccelDecoder::new(&qmodel);
        assert_eq!(got[0], a.prefill(&[10, 20, 5]));
        assert_eq!(got[1], b.prefill(&[3, 40, 5]));
    }

    #[test]
    #[should_panic(expected = "one token per sequence")]
    fn batch_width_checked() {
        let (_, _, qmodel) = setup(2);
        let mut batch = AccelBatchDecoder::new(&qmodel, 2);
        let _ = batch.decode_batch(&[1, 2, 3]);
    }

    #[test]
    fn sharded_decode_matches_single_board_bitwise() {
        let (cfg, _, qmodel) = setup(17);
        for stages in 1..=cfg.n_layers.min(4) {
            let mut sharded = ShardedBatchDecoder::new(&qmodel, 3, stages);
            let mut single = AccelBatchDecoder::new(&qmodel, 3);
            assert_eq!(sharded.stages(), stages);
            let steps = [[1usize, 50, 7], [9, 2, 101], [30, 30, 4]];
            for step in steps {
                let got = sharded.decode_batch(&step);
                let want = single.decode_batch(&step);
                for (seq, (g, w)) in got.iter().zip(&want).enumerate() {
                    let gb: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
                    let wb: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(gb, wb, "sequence {seq} diverged at {stages} stages");
                }
            }
            assert_eq!(sharded.pos(), single.pos());
        }
    }

    #[test]
    fn sharded_ragged_join_and_leave_matches() {
        let (_, _, qmodel) = setup(23);
        let mut sharded = ShardedBatchDecoder::new(&qmodel, 3, 2);
        let mut single = AccelBatchDecoder::new(&qmodel, 3);
        // Ragged steps: slot 1 sits out, then joins fresh after a reset.
        let phases: [&[(usize, usize)]; 4] = [
            &[(0, 5), (2, 9)],
            &[(0, 11), (2, 3)],
            &[(1, 7)],
            &[(0, 2), (1, 4), (2, 8)],
        ];
        for (i, steps) in phases.iter().enumerate() {
            if i == 2 {
                sharded.reset_seq(1);
                single.reset_seq(1);
            }
            let got = sharded.decode_at(steps);
            let want = single.decode_at(steps);
            for (seq, (g, w)) in got.iter().zip(&want).enumerate() {
                let gb: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "phase {i} participant {seq} diverged");
            }
        }
        assert_eq!(sharded.seq_pos(0), single.seq_pos(0));
        assert_eq!(sharded.seq_pos(1), single.seq_pos(1));
    }

    #[test]
    fn ragged_decode_with_join_and_leave_matches_independent_decoders() {
        let (_, _, qmodel) = setup(29);
        let mut batch = AccelBatchDecoder::new(&qmodel, 3);
        let mut a = AccelDecoder::new(&qmodel);
        let mut b = AccelDecoder::new(&qmodel);
        let mut c = AccelDecoder::new(&qmodel);

        let check = |got: &[Vec<f32>], want: &[Vec<f32>]| {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                let gb: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "participant {i} diverged");
            }
        };

        // Sequence A decodes alone for two steps.
        let got = batch.decode_at(&[(0, 5)]);
        check(&got, &[a.forward(5)]);
        let got = batch.decode_at(&[(0, 9)]);
        check(&got, &[a.forward(9)]);

        // B joins at slot 2 — A is two tokens ahead, the step is ragged.
        let got = batch.decode_at(&[(0, 11), (2, 40)]);
        check(&got, &[a.forward(11), b.forward(40)]);
        assert_eq!(batch.seq_pos(0), 3);
        assert_eq!(batch.seq_pos(2), 1);

        // A leaves; B decodes alone.
        let got = batch.decode_at(&[(2, 41)]);
        check(&got, &[b.forward(41)]);

        // C takes over A's old slot after a reset — B's history and the
        // fresh slot coexist bit-exactly.
        batch.reset_seq(0);
        assert_eq!(batch.seq_pos(0), 0);
        let got = batch.decode_at(&[(2, 42), (0, 77)]);
        check(&got, &[b.forward(42), c.forward(77)]);
        assert_eq!(batch.pos(), 3, "furthest sequence");
    }

    #[test]
    fn paged_decode_is_bit_identical_to_contiguous() {
        let (_, _, qmodel) = setup(31);
        // A deliberately tight pool: 5 pages of 16 tokens shared by 3
        // slots, so page tables scatter across the pool as slots churn.
        let mut paged = AccelBatchDecoder::new_paged(&qmodel, 3, 5, 16);
        let mut flat = AccelBatchDecoder::new(&qmodel, 3);

        let check = |got: &[Vec<f32>], want: &[Vec<f32>]| {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                let gb: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "participant {i} diverged");
            }
        };

        // Two sequences decode past a page boundary together — each
        // grows a second, non-adjacent page in the shared pool.
        for i in 0..18 {
            let steps = [(0, 7 + i), (2, 3 + i)];
            check(&paged.decode_at(&steps), &flat.decode_at(&steps));
        }
        // Slot 2 finishes, returning its pages; a successor reuses them
        // while slot 0's history stays scattered and slot 1 joins fresh.
        paged.reset_seq(2);
        flat.reset_seq(2);
        for i in 0..3 {
            let steps = [(0, 40 + i), (2, 60 + i), (1, 11 + i)];
            check(&paged.decode_at(&steps), &flat.decode_at(&steps));
        }
    }

    #[test]
    #[should_panic(expected = "KV page pool exhausted")]
    fn paged_decode_panics_when_growth_outruns_the_pool() {
        let (_, _, qmodel) = setup(7);
        let mut paged = AccelBatchDecoder::new_paged(&qmodel, 2, 2, 16);
        // Two slots fill both pages; the first boundary crossing starves.
        for i in 0..17 {
            let _ = paged.decode_at(&[(0, 1 + i), (1, 2 + i)]);
        }
    }

    #[test]
    #[should_panic(expected = "sequences are ragged")]
    fn lockstep_decode_rejects_ragged_state() {
        let (_, _, qmodel) = setup(2);
        let mut batch = AccelBatchDecoder::new(&qmodel, 2);
        let _ = batch.decode_at(&[(0, 1)]);
        let _ = batch.decode_batch(&[1, 2]);
    }

    #[test]
    fn verify_window_logits_match_sequential_decode_bitwise() {
        let (_, _, qmodel) = setup(37);
        let mut spec = AccelBatchDecoder::new(&qmodel, 2);
        let mut seq = AccelDecoder::new(&qmodel);
        for t in [5usize, 9, 2] {
            let _ = spec.decode_at(&[(1, t)]);
            let _ = seq.forward(t);
        }
        let window = [11usize, 40, 7, 3];
        let got = spec.verify_window(1, &window);
        assert_eq!(got.len(), window.len());
        for (j, &t) in window.iter().enumerate() {
            let want = seq.forward(t);
            let gb: Vec<u32> = got[j].iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "window position {j} diverged");
        }
    }

    #[test]
    fn greedy_accept_takes_the_longest_matching_prefix_plus_bonus() {
        let l = |top: usize| {
            let mut v = vec![0.0f32; 8];
            v[top] = 1.0;
            v
        };
        // The target would produce 4, then 2, then 6.
        let logits = vec![l(4), l(2), l(6)];
        assert_eq!(greedy_accept(&logits, &[4, 5]), (1, 2));
        assert_eq!(greedy_accept(&logits, &[4, 2]), (2, 6));
        assert_eq!(greedy_accept(&logits, &[0, 2]), (0, 4));
        assert_eq!(greedy_accept(&logits[..1], &[]), (0, 4));
    }

    #[test]
    fn rollback_then_continue_matches_a_never_speculated_decoder() {
        use zllm_telemetry::MetricsRegistry;
        let (cfg, _, qmodel) = setup(41);
        let mut reg = MetricsRegistry::new();
        let mut spec = AccelBatchDecoder::with_metrics(&qmodel, 2, &mut reg);
        let mut plain = AccelBatchDecoder::new(&qmodel, 2);
        for t in [3usize, 8, 50] {
            let _ = spec.decode_at(&[(0, t)]);
            let _ = plain.decode_at(&[(0, t)]);
        }
        // Speculate three drafts after the committed token; pretend only
        // the first draft was accepted (committed inputs = window[..2]).
        let window = [7usize, 12, 90, 34];
        let _ = spec.verify_window(0, &window);
        let packs_before = reg.snapshot().counters["kv_pack.packs"];
        spec.rollback_seq(0, 3 + 2);
        assert_eq!(
            reg.snapshot().counters["kv_pack.packs"],
            packs_before,
            "the FIFO replay must not be counted as new quantization"
        );
        for &t in &window[..2] {
            let _ = plain.decode_at(&[(0, t)]);
        }
        assert_eq!(spec.seq_pos(0), plain.seq_pos(0));
        // Continue far enough to cross the 16-token KV pack window, so a
        // stale FIFO or KV suffix would surface as diverging logits or a
        // mistimed metadata flush.
        for i in 0..14 {
            let t = (i * 13 + 5) % cfg.vocab_size;
            let g = spec.decode_at(&[(0, t)]);
            let w = plain.decode_at(&[(0, t)]);
            let gb: Vec<u32> = g[0].iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u32> = w[0].iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "step {i} after rollback diverged");
        }
    }

    #[test]
    fn rollback_to_current_position_is_a_no_op() {
        let (_, _, qmodel) = setup(2);
        let mut dec = AccelBatchDecoder::new(&qmodel, 1);
        let before = dec.decode_at(&[(0, 5)]);
        dec.rollback_seq(0, 1);
        assert_eq!(dec.seq_pos(0), 1);
        let after = dec.decode_at(&[(0, 5)]);
        let _ = (before, after);
    }

    #[test]
    #[should_panic(expected = "cannot roll forward")]
    fn rollback_past_the_position_panics() {
        let (_, _, qmodel) = setup(2);
        let mut dec = AccelBatchDecoder::new(&qmodel, 1);
        let _ = dec.decode_at(&[(0, 5)]);
        dec.rollback_seq(0, 2);
    }

    #[test]
    fn paged_rollback_returns_pages_and_stays_bit_identical() {
        let (_, _, qmodel) = setup(43);
        // 4 pages of 16 tokens for 2 slots: the finale below only fits
        // because rollback really returns the speculated-into page.
        let mut paged = AccelBatchDecoder::new_paged(&qmodel, 2, 4, 16);
        let mut flat = AccelBatchDecoder::new(&qmodel, 2);
        for i in 0..14 {
            let _ = paged.decode_at(&[(0, 2 + i)]);
            let _ = flat.decode_at(&[(0, 2 + i)]);
        }
        // Speculate six tokens: crosses the page boundary at 16, pulling
        // a second page; then reject everything past the first token.
        let window = [1usize, 2, 3, 4, 5, 6];
        let _ = paged.verify_window(0, &window);
        paged.rollback_seq(0, 15);
        let _ = flat.decode_at(&[(0, window[0])]);
        flat.rollback_seq(0, 15);
        assert_eq!(paged.seq_pos(0), 15);
        // Both slots now grow to two pages each — exactly the pool, so a
        // leaked rollback page would exhaust it — and every logits vector
        // stays bit-identical to the contiguous decoder's.
        let vocab = qmodel.config().vocab_size;
        for i in 0..17 {
            let steps = [(0, (3 * i + 1) % vocab), (1, (5 * i + 2) % vocab)];
            let g = paged.decode_at(&steps);
            let w = flat.decode_at(&steps);
            for (seq, (gv, wv)) in g.iter().zip(&w).enumerate() {
                let gb: Vec<u32> = gv.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = wv.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "step {i} participant {seq} diverged");
            }
        }
    }
}
