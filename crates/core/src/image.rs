//! The model's DDR image and the bare-metal memory map (Fig. 1, §VII-A).
//!
//! Builds the address map the bare-metal loader would program: the FP16
//! embedding table, every projection's interleaved 4-bit weight stream,
//! the per-layer KV-cache code regions and the packed scale-zero region.
//! Placement prefers the high 2 GB window (as the paper does for the
//! embedding table, weights and early-layer KV space) and spills to the
//! low window when full.

use zllm_layout::addr_map::{AllocError, MemoryMap, Region, Window};
use zllm_layout::kv_page::PAGE_TOKEN_QUANTUM;
use zllm_layout::weight::WeightFormat;
use zllm_layout::{BurstDescriptor, BEAT_BYTES};
use zllm_model::ModelConfig;

/// Bytes one page-table entry occupies in DDR (a 32-bit physical page
/// index — 16 entries per 512-bit beat).
const PAGE_TABLE_ENTRY_BYTES: u64 = 4;

/// The seven projections of one layer, in streaming order.
pub const PROJECTIONS: [&str; 7] = ["wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"];

/// Splits `n_layers` transformer layers into `stages` contiguous,
/// near-even ranges — the canonical pipeline-parallel shard boundaries
/// shared by the sharded engine's [`ImageSpec::layers`] and the
/// functional sharded decoder. Earlier stages absorb the remainder, so
/// stage sizes differ by at most one layer.
///
/// # Panics
///
/// Panics if `stages` is zero or exceeds `n_layers`.
pub fn split_layers(n_layers: usize, stages: usize) -> Vec<std::ops::Range<usize>> {
    assert!(
        stages > 0 && stages <= n_layers,
        "stage count {stages} must be in 1..={n_layers}"
    );
    let base = n_layers / stages;
    let extra = n_layers % stages;
    let mut out = Vec::with_capacity(stages);
    let mut start = 0;
    for s in 0..stages {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// How an image lays out each sequence's KV space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvLayout {
    /// One consecutive slot block per sequence in each (layer, K/V)
    /// region, so each sequence's history is one DDR burst.
    Contiguous,
    /// The same KV provisioning carved into fixed-size pages granted on
    /// demand, with per-sequence page tables placed in DDR and every KV
    /// access indirecting through them. A history read is one burst per
    /// page, and a decode step pays a page-table read plus a one-beat
    /// table write at each page boundary. Pages use a canonical
    /// interleaved physical placement (logical page `p` of sequence `s`
    /// lives at physical page `p × batch + s`), so the burst streams are
    /// a pure function of `(slot, ctx)` — cacheable like every other
    /// schedule — while still modelling the scatter a shared page pool
    /// produces.
    Paged {
        /// Tokens per page: a positive multiple of the 16-token pack
        /// window that divides the context capacity.
        page_tokens: usize,
    },
}

/// What one [`ModelImage`] holds: every variation of the paper's image
/// is a field here, set with struct-update syntax over [`ImageSpec::new`]
/// (see [`crate::EngineConfig`] for an example).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSpec {
    /// Maximum context length each sequence's KV space holds.
    pub ctx_capacity: usize,
    /// Concurrent sequences the KV space is provisioned for (at least
    /// one). The weight streams are placed once whatever the batch —
    /// batching never duplicates them — so only KV space scales.
    pub batch: usize,
    /// Contiguous or paged KV space.
    pub kv: KvLayout,
    /// `Some(range)` places one pipeline-parallel shard: the weight
    /// streams and KV regions of layers `range` only, plus the embedding
    /// table when the range starts at layer 0 and the LM head when it
    /// ends at the last layer. Everything on the image — layer
    /// accessors, KV budget, request pricing, schedules — then speaks
    /// shard-local layer indices (`0..range.len()`). A board holding a
    /// shard spends its DDR only on its own slice, so per-board KV
    /// budgets shrink with depth — the lever the cluster layer prices.
    /// `None` places every layer.
    pub layers: Option<std::ops::Range<usize>>,
}

impl ImageSpec {
    /// The paper's image: one sequence of `ctx_capacity` tokens,
    /// contiguous KV, every layer.
    pub fn new(ctx_capacity: usize) -> ImageSpec {
        ImageSpec {
            ctx_capacity,
            batch: 1,
            kv: KvLayout::Contiguous,
            layers: None,
        }
    }
}

/// One placed weight stream.
#[derive(Debug, Clone)]
pub struct PlacedProjection {
    /// Projection name (one of [`PROJECTIONS`] or `"lm_head"`).
    pub name: &'static str,
    /// Layer index (`usize::MAX` for the LM head).
    pub layer: usize,
    /// Output rows.
    pub rows: usize,
    /// Input columns.
    pub cols: usize,
    /// Start address of the interleaved stream.
    pub addr: u64,
    /// Stream length in 512-bit beats (metadata included).
    pub beats: u64,
}

impl PlacedProjection {
    /// The stream as one consecutive burst.
    pub fn burst(&self) -> BurstDescriptor {
        BurstDescriptor::new(self.addr, self.beats as u32)
    }

    /// Number of weights (before format padding).
    pub fn n_weights(&self) -> usize {
        self.rows * self.cols
    }
}

/// A placed model image.
#[derive(Debug, Clone)]
pub struct ModelImage {
    model: ModelConfig,
    format: WeightFormat,
    ctx_capacity: usize,
    /// Concurrent sequences the KV regions are provisioned for. The dense
    /// weight image is shared by every sequence; only KV space scales.
    batch: usize,
    map: MemoryMap,
    /// Whether this image places the LM head (the last pipeline stage).
    owns_head: bool,
    /// `None` for shards that do not hold the embedding table (every
    /// pipeline stage but the first).
    embedding: Option<Region>,
    projections: Vec<PlacedProjection>,
    /// Per (layer, K/V): contiguous code region of `batch × ctx_capacity`
    /// tokens — sequence `s` owns the slots
    /// `[s·ctx_capacity, (s+1)·ctx_capacity)`, so each sequence's history
    /// is still one consecutive DDR stream. In a paged image the same
    /// region is instead a pool of `batch × ctx_capacity / page_tokens`
    /// physical pages addressed through per-sequence page tables.
    kv_regions: Vec<Region>,
    kv_meta: Region,
    /// `Some(page_tokens)` for a paged image ([`KvLayout::Paged`]).
    page_tokens: Option<usize>,
    /// The per-sequence page tables in DDR (paged images only).
    page_table: Option<Region>,
    /// Whether the image was placed in an extended virtual address space
    /// for tiered weight storage ([`ModelImage::build_tiered`]).
    tiered_virtual: bool,
}

impl ModelImage {
    /// Builds the paper's image: one sequence of `ctx_capacity` tokens,
    /// contiguous KV, every layer ([`ImageSpec::new`]).
    ///
    /// # Errors
    ///
    /// Returns the allocation failure if the model does not fit the 4 GB
    /// device (e.g. LLaMA2-13B).
    pub fn build(
        model: &ModelConfig,
        format: WeightFormat,
        ctx_capacity: usize,
    ) -> Result<ModelImage, AllocError> {
        ModelImage::from_spec(model, format, &ImageSpec::new(ctx_capacity))
    }

    /// Builds the image for **tiered** (flash-backed) weight storage:
    /// [`ModelImage::build`] when the model fits the 4 GiB device, and
    /// otherwise placed in the smallest power-of-two
    /// [`MemoryMap::tiered_virtual`] address space that holds it. Layers
    /// keep canonical, stable addresses either way — which layers are
    /// *physically* resident is the `WeightCache`'s accounting, enforced
    /// by the tier budget, not by placement — so schedules stay cacheable
    /// and an all-resident tier prices bit-identically to a flat image.
    ///
    /// # Errors
    ///
    /// Returns the allocation failure if the model exceeds even a 64 GiB
    /// virtual address space.
    pub fn build_tiered(
        model: &ModelConfig,
        format: WeightFormat,
        ctx_capacity: usize,
    ) -> Result<ModelImage, AllocError> {
        ModelImage::place(model, format, &ImageSpec::new(ctx_capacity), true)
    }

    /// Places the image `spec` describes in the 4 GB map.
    ///
    /// # Errors
    ///
    /// Returns the allocation failure if the image (weights, KV space,
    /// scale-zero packs, page tables) exceeds the 4 GB device — for a
    /// batched image, the capacity wall the batch sweep tables.
    ///
    /// # Panics
    ///
    /// Panics if `spec.batch` is zero, a paged layout's `page_tokens` is
    /// not a positive multiple of the 16-token pack window or does not
    /// divide `spec.ctx_capacity`, or `spec.layers` is empty or out of
    /// range.
    pub fn from_spec(
        model: &ModelConfig,
        format: WeightFormat,
        spec: &ImageSpec,
    ) -> Result<ModelImage, AllocError> {
        ModelImage::place(model, format, spec, false)
    }

    /// [`ModelImage::from_spec`], except that with `virtual_fallback` an
    /// image that overflows the board goes to the smallest power-of-two
    /// virtual map that holds it: [`ModelImage::build_tiered`]'s rule,
    /// which only an engine with a weight tier may take, since only its
    /// budget keeps the physical footprint on the board.
    pub(crate) fn place(
        model: &ModelConfig,
        format: WeightFormat,
        spec: &ImageSpec,
        virtual_fallback: bool,
    ) -> Result<ModelImage, AllocError> {
        let mut last = match ModelImage::place_in(model, format, spec, MemoryMap::kv260()) {
            Ok(image) => return Ok(image),
            Err(e) if virtual_fallback => e,
            Err(e) => return Err(e),
        };
        for gib in [8u64, 16, 32, 64] {
            let map = MemoryMap::tiered_virtual(gib << 30);
            match ModelImage::place_in(model, format, spec, map) {
                Ok(mut image) => {
                    image.tiered_virtual = true;
                    return Ok(image);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn place_in(
        model: &ModelConfig,
        format: WeightFormat,
        spec: &ImageSpec,
        mut map: MemoryMap,
    ) -> Result<ModelImage, AllocError> {
        let (ctx_capacity, batch) = (spec.ctx_capacity, spec.batch);
        let layers = spec.layers.clone().unwrap_or(0..model.n_layers);
        let page_tokens = match spec.kv {
            KvLayout::Contiguous => None,
            KvLayout::Paged { page_tokens } => Some(page_tokens),
        };
        assert!(batch > 0, "batch must be at least 1");
        if let Some(pt) = page_tokens {
            assert!(
                pt > 0 && pt.is_multiple_of(PAGE_TOKEN_QUANTUM),
                "page_tokens {pt} must be a positive multiple of {PAGE_TOKEN_QUANTUM}"
            );
            assert!(
                ctx_capacity.is_multiple_of(pt),
                "ctx_capacity {ctx_capacity} must be a multiple of page_tokens {pt}"
            );
        }
        assert!(
            !layers.is_empty() && layers.end <= model.n_layers,
            "shard layer range {layers:?} must be a non-empty subrange of 0..{}",
            model.n_layers
        );
        model.validate().map_err(|e| AllocError {
            name: e,
            requested: 0,
            available: 0,
        })?;
        let owns_embedding = layers.start == 0;
        let owns_head = layers.end == model.n_layers;
        // The image speaks shard-local layer indices: a shard-local model
        // config (n_layers = the slice length) keeps every accessor and
        // scheduling loop — KV budgets, request pricing, stream counts —
        // correct without the rest of the stack knowing about shards.
        let mut shard = model.clone();
        shard.n_layers = layers.len();

        let alloc_spill = |map: &mut MemoryMap, name: &str, bytes: u64| {
            map.alloc(name, bytes, Window::High)
                .or_else(|_| map.alloc(name, bytes, Window::Low))
        };

        // FP16 embedding table — only on the first pipeline stage.
        let embedding = if owns_embedding {
            Some(alloc_spill(
                &mut map,
                "embedding table (fp16)",
                (model.vocab_size * model.d_model * 2) as u64,
            )?)
        } else {
            None
        };

        // Per-layer projections, in streaming order.
        let d = model.d_model;
        let kv = model.kv_dim();
        let ff = model.d_ff;
        let shapes: [(&str, usize, usize); 7] = [
            ("wq", d, d),
            ("wk", kv, d),
            ("wv", kv, d),
            ("wo", d, d),
            ("w_gate", ff, d),
            ("w_up", ff, d),
            ("w_down", d, ff),
        ];
        let mut projections = Vec::with_capacity(layers.len() * 7 + usize::from(owns_head));
        for layer in layers.clone() {
            for (name, rows, cols) in shapes {
                let beats = format.beats_for(rows * cols) as u64;
                let region = alloc_spill(
                    &mut map,
                    &format!("L{layer}.{name}"),
                    beats * BEAT_BYTES as u64,
                )?;
                projections.push(PlacedProjection {
                    name,
                    layer,
                    rows,
                    cols,
                    addr: region.base,
                    beats,
                });
            }
        }
        if owns_head {
            let head_beats = format.beats_for(model.vocab_size * d) as u64;
            let head_region = alloc_spill(&mut map, "lm_head", head_beats * BEAT_BYTES as u64)?;
            projections.push(PlacedProjection {
                name: "lm_head",
                layer: usize::MAX,
                rows: model.vocab_size,
                cols: d,
                addr: head_region.base,
                beats: head_beats,
            });
        }

        // KV code regions: one per (layer, K/V), each ctx_capacity × kv_dim
        // bytes, beat-aligned per token vector.
        let token_bytes = kv.max(1).next_multiple_of(BEAT_BYTES) as u64;
        let mut kv_regions = Vec::with_capacity(layers.len() * 2);
        for layer in layers.clone() {
            for which in ["K", "V"] {
                let r = alloc_spill(
                    &mut map,
                    &format!("kv.{which}.L{layer}"),
                    token_bytes * ctx_capacity as u64 * batch as u64,
                )?;
                kv_regions.push(r);
            }
        }

        // Packed scale-zero region: one beat per stream per 16 tokens,
        // one block per sequence. Streams count only this image's layers.
        let streams = (shard.n_layers * shard.n_kv_heads * 2) as u64;
        let meta_beats = streams * (ctx_capacity as u64).div_ceil(16) * batch as u64;
        let kv_meta = alloc_spill(&mut map, "kv scale-zero packs", meta_beats * 64)?;

        // Per-sequence page tables: one 32-bit physical-page entry per
        // logical page, each sequence's table rounded up to whole beats
        // so a table fetch is one aligned burst.
        let page_table = match page_tokens {
            Some(pt) => {
                let entries = (ctx_capacity / pt) as u64;
                let stride = (entries * PAGE_TABLE_ENTRY_BYTES).div_ceil(BEAT_BYTES as u64)
                    * BEAT_BYTES as u64;
                Some(alloc_spill(
                    &mut map,
                    "kv page tables",
                    stride * batch as u64,
                )?)
            }
            None => None,
        };

        Ok(ModelImage {
            model: shard,
            format,
            ctx_capacity,
            batch,
            map,
            owns_head,
            embedding,
            projections,
            kv_regions,
            kv_meta,
            page_tokens,
            page_table,
            tiered_virtual: false,
        })
    }

    /// The model configuration this image holds. For a shard
    /// ([`ImageSpec::layers`]) this is the shard-local view — `n_layers`
    /// is the slice length, and every layer-indexed accessor takes
    /// shard-local indices.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Whether this image places the FP16 embedding table (true for full
    /// images and the first pipeline stage).
    pub fn owns_embedding(&self) -> bool {
        self.embedding.is_some()
    }

    /// Whether this image places the LM head (true for full images and
    /// the last pipeline stage).
    pub fn owns_head(&self) -> bool {
        self.owns_head
    }

    /// The weight format.
    pub fn format(&self) -> WeightFormat {
        self.format
    }

    /// Maximum context length the KV regions hold (per sequence).
    pub fn ctx_capacity(&self) -> usize {
        self.ctx_capacity
    }

    /// Concurrent sequences the KV regions are provisioned for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The underlying memory map.
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// Fraction of the 4 GB device occupied (the paper's 93.3 % number).
    pub fn occupancy(&self) -> f64 {
        self.map.occupancy()
    }

    /// Whether Linux could still boot beside the image (the paper's
    /// bare-metal argument is that it cannot).
    pub fn linux_bootable(&self) -> bool {
        self.map.linux_bootable()
    }

    /// All placed projections in per-token streaming order.
    pub fn projections(&self) -> &[PlacedProjection] {
        &self.projections
    }

    /// The projections of one layer, in streaming order.
    pub fn layer_projections(&self, layer: usize) -> &[PlacedProjection] {
        &self.projections[layer * 7..layer * 7 + 7]
    }

    /// The LM head projection.
    ///
    /// # Panics
    ///
    /// Panics on a shard image that does not own the head.
    pub fn lm_head(&self) -> &PlacedProjection {
        assert!(self.owns_head, "shard image does not place the LM head");
        self.projections
            .last()
            .expect("image always has an LM head")
    }

    /// Read burst for one embedding row (FP16).
    ///
    /// # Panics
    ///
    /// Panics on a shard image that does not own the embedding table.
    pub fn embedding_row_burst(&self, token: usize) -> BurstDescriptor {
        let embedding = self
            .embedding
            .as_ref()
            .expect("shard image does not place the embedding table");
        let row_bytes = (self.model.d_model * 2) as u64;
        let beats = row_bytes.div_ceil(BEAT_BYTES as u64) as u32;
        BurstDescriptor::new(embedding.base + token as u64 * row_bytes, beats)
    }

    /// Bytes one cached token vector occupies (beat-aligned codes).
    pub fn kv_token_bytes(&self) -> u64 {
        (self.model.kv_dim().max(1)).next_multiple_of(BEAT_BYTES) as u64
    }

    /// Read burst of the whole K (or V) history of one layer up to `ctx`
    /// tokens — one consecutive burst thanks to the per-layer regions.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` exceeds the image's context capacity.
    pub fn kv_read_burst(&self, layer: usize, value: bool, ctx: usize) -> BurstDescriptor {
        self.kv_read_burst_seq(layer, value, ctx, 0)
    }

    /// [`ModelImage::kv_read_burst`] for sequence `seq` of a batched
    /// image: the same layer's history, streamed from that sequence's
    /// slot block — a separate consecutive DDR stream per sequence.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` exceeds the per-sequence capacity or `seq` exceeds
    /// the provisioned batch.
    pub fn kv_read_burst_seq(
        &self,
        layer: usize,
        value: bool,
        ctx: usize,
        seq: usize,
    ) -> BurstDescriptor {
        assert!(ctx <= self.ctx_capacity, "context beyond capacity");
        assert!(seq < self.batch, "sequence beyond provisioned batch");
        assert!(
            self.page_tokens.is_none(),
            "paged image history is fragmented; use kv_read_bursts_seq"
        );
        let region = &self.kv_regions[layer * 2 + usize::from(value)];
        let tb = self.kv_token_bytes();
        let beats = (tb * ctx as u64 / BEAT_BYTES as u64) as u32;
        BurstDescriptor::new(
            region.base + seq as u64 * self.ctx_capacity as u64 * tb,
            beats,
        )
    }

    /// The K (or V) history of one layer up to `ctx` tokens as a burst
    /// list: one consecutive burst on a contiguous image, one burst per
    /// KV page on a paged image (the fragmentation paging pays for its
    /// capacity win — each page is still a long aligned burst, never a
    /// scattered read).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` exceeds the per-sequence capacity or `seq` exceeds
    /// the provisioned batch.
    pub fn kv_read_bursts_seq(
        &self,
        layer: usize,
        value: bool,
        ctx: usize,
        seq: usize,
    ) -> Vec<BurstDescriptor> {
        let Some(pt) = self.page_tokens else {
            return vec![self.kv_read_burst_seq(layer, value, ctx, seq)];
        };
        assert!(ctx <= self.ctx_capacity, "context beyond capacity");
        assert!(seq < self.batch, "sequence beyond provisioned batch");
        let region = &self.kv_regions[layer * 2 + usize::from(value)];
        let tb = self.kv_token_bytes();
        let mut bursts = Vec::with_capacity(ctx.div_ceil(pt));
        for page in 0..ctx.div_ceil(pt) {
            let tokens = pt.min(ctx - page * pt) as u64;
            let phys = self.physical_page(seq, page);
            bursts.push(BurstDescriptor::new(
                region.base + phys * pt as u64 * tb,
                (tokens * tb / BEAT_BYTES as u64) as u32,
            ));
        }
        bursts
    }

    /// Physical page backing logical page `logical` of sequence `seq` in
    /// a paged image: the canonical interleave `logical × batch + seq` —
    /// bijective over the pool, and deliberately *not* sequence-local, so
    /// consecutive logical pages of one sequence land `batch` pages apart
    /// exactly as a shared on-demand pool scatters them.
    fn physical_page(&self, seq: usize, logical: usize) -> u64 {
        (logical * self.batch + seq) as u64
    }

    /// Write burst for the current token's K (or V) vector of one layer,
    /// for sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` exceeds the provisioned batch.
    pub fn kv_write_burst_seq(
        &self,
        layer: usize,
        value: bool,
        token: usize,
        seq: usize,
    ) -> BurstDescriptor {
        assert!(seq < self.batch, "sequence beyond provisioned batch");
        let region = &self.kv_regions[layer * 2 + usize::from(value)];
        let tb = self.kv_token_bytes();
        let addr = match self.page_tokens {
            None => region.base + (seq as u64 * self.ctx_capacity as u64 + token as u64) * tb,
            Some(pt) => {
                let phys = self.physical_page(seq, token / pt);
                region.base + (phys * pt as u64 + (token % pt) as u64) * tb
            }
        };
        BurstDescriptor::write(addr, (tb / BEAT_BYTES as u64) as u32)
    }

    /// Write burst for one flushed scale-zero FIFO element of sequence
    /// `seq`: each sequence flushes into its own block of the packed
    /// scale-zero region.
    ///
    /// # Panics
    ///
    /// Panics if `seq` exceeds the provisioned batch.
    pub fn kv_meta_write_burst_seq(
        &self,
        stream: usize,
        window16: u64,
        seq: usize,
    ) -> BurstDescriptor {
        assert!(seq < self.batch, "sequence beyond provisioned batch");
        let streams = (self.model.n_layers * self.model.n_kv_heads * 2) as u64;
        let windows = (self.ctx_capacity as u64).div_ceil(16);
        let offset = (seq as u64 * streams * windows + window16 * streams + stream as u64)
            * BEAT_BYTES as u64;
        BurstDescriptor::write(self.kv_meta.base + offset, 1)
    }

    /// Total bytes the image provisions for KV state across every slot:
    /// all per-layer K/V code regions plus the packed scale-zero region.
    /// This is the Fig. 1 KV budget an admission controller prices
    /// against — the hard capacity wall once weights are placed.
    pub fn kv_budget_bytes(&self) -> u64 {
        let codes: u64 = self.kv_regions.iter().map(|r| r.size).sum();
        codes + self.kv_meta.size
    }

    /// KV bytes one sequence holding `tokens` cached tokens occupies:
    /// its K and V codes in every layer plus its share of the packed
    /// scale-zero region (one beat per stream per started 16-token
    /// window). The admission currency — `kv_budget_bytes / batch`
    /// equals `kv_request_bytes(ctx_capacity)` rounded to whole windows.
    pub fn kv_request_bytes(&self, tokens: usize) -> u64 {
        let codes = (self.model.n_layers * 2) as u64 * self.kv_token_bytes() * tokens as u64;
        let streams = (self.model.n_layers * self.model.n_kv_heads * 2) as u64;
        let meta = streams * (tokens as u64).div_ceil(16) * BEAT_BYTES as u64;
        codes + meta
    }

    /// Tokens per KV page, or `None` on a contiguous image.
    pub fn page_tokens(&self) -> Option<usize> {
        self.page_tokens
    }

    /// Whether KV state is organised as a paged pool.
    pub fn is_paged(&self) -> bool {
        self.page_tokens.is_some()
    }

    /// KV bytes one page accounts for: its codes in every layer plus its
    /// page-aligned share of the scale-zero region. Because pages are
    /// whole 16-token windows, the pool's `batch × ctx_capacity /
    /// page_tokens` pages times `kv_page_bytes` equals
    /// [`ModelImage::kv_budget_bytes`] exactly — paging re-divides the
    /// budget, it does not shrink or inflate it.
    ///
    /// # Panics
    ///
    /// Panics on a contiguous image.
    pub fn kv_page_bytes(&self) -> u64 {
        let pt = self.page_tokens.expect("contiguous image has no pages");
        self.kv_request_bytes(pt)
    }

    /// [`ModelImage::kv_request_bytes`] rounded up to whole pages of
    /// `page_tokens` tokens — the actual-growth admission currency. Works
    /// on contiguous images too, so a worst-case and a paged controller
    /// can be compared against the same budget.
    pub fn page_rounded_request_bytes(&self, tokens: usize, page_tokens: usize) -> u64 {
        self.kv_request_bytes(page_tokens) * tokens.div_ceil(page_tokens) as u64
    }

    /// One full read of `seq`'s page table: the page-table lookup a paged
    /// decode step pays before it can issue the fragmented KV reads.
    ///
    /// # Panics
    ///
    /// Panics on a contiguous image or if `seq` exceeds the batch.
    pub fn kv_page_table_read_burst(&self, seq: usize) -> BurstDescriptor {
        assert!(seq < self.batch, "sequence beyond provisioned batch");
        let table = self
            .page_table
            .as_ref()
            .expect("contiguous image has no page tables");
        let stride = table.size / self.batch as u64;
        BurstDescriptor::new(
            table.base + seq as u64 * stride,
            (stride / BEAT_BYTES as u64) as u32,
        )
    }

    /// One-beat flush of the page-table entry mapping `seq`'s logical
    /// page `logical` — paid when a sequence crosses a page boundary and
    /// a fresh page is appended to its table.
    ///
    /// # Panics
    ///
    /// Panics on a contiguous image, if `seq` exceeds the batch, or if
    /// `logical` exceeds the per-sequence table.
    pub fn kv_page_table_write_burst(&self, seq: usize, logical: usize) -> BurstDescriptor {
        assert!(seq < self.batch, "sequence beyond provisioned batch");
        let pt = self
            .page_tokens
            .expect("contiguous image has no page tables");
        assert!(
            logical < self.ctx_capacity / pt,
            "logical page beyond capacity"
        );
        let table = self
            .page_table
            .as_ref()
            .expect("contiguous image has no page tables");
        let stride = table.size / self.batch as u64;
        let beat = logical as u64 * PAGE_TABLE_ENTRY_BYTES / BEAT_BYTES as u64;
        BurstDescriptor::write(
            table.base + seq as u64 * stride + beat * BEAT_BYTES as u64,
            1,
        )
    }

    /// Total bytes of all weight streams (format padding included).
    pub fn weight_stream_bytes(&self) -> u64 {
        self.projections
            .iter()
            .map(|p| p.beats * BEAT_BYTES as u64)
            .sum()
    }

    /// Bytes of one layer's weight streams (all seven projections, format
    /// padding included) — the unit the tiered weight cache accounts in.
    pub fn layer_weight_bytes(&self, layer: usize) -> u64 {
        self.layer_projections(layer)
            .iter()
            .map(|p| p.beats * BEAT_BYTES as u64)
            .sum()
    }

    /// Bytes that must stay DDR-resident regardless of the weight tier:
    /// everything placed except the per-layer projection streams — the
    /// embedding table, LM head, KV regions, scale-zero packs and page
    /// tables. `non_layer_resident_bytes() + weight budget` is the
    /// physical footprint a tiered deployment needs.
    pub fn non_layer_resident_bytes(&self) -> u64 {
        let layer_bytes: u64 = (0..self.model.n_layers)
            .map(|l| self.layer_weight_bytes(l))
            .sum();
        self.map.allocated_bytes() - layer_bytes
    }

    /// Whether the image lives in an extended virtual address space for
    /// tiered weight storage (see [`ModelImage::build_tiered`]).
    pub fn is_tiered_virtual(&self) -> bool {
        self.tiered_virtual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `test_small` placed as `spec` describes.
    fn small(spec: ImageSpec) -> ModelImage {
        ModelImage::from_spec(&ModelConfig::test_small(), WeightFormat::kv260(), &spec)
            .expect("fits")
    }

    /// `batch` contiguous sequences of `ctx` tokens.
    fn batched(ctx: usize, batch: usize) -> ModelImage {
        small(ImageSpec {
            batch,
            ..ImageSpec::new(ctx)
        })
    }

    /// `batch` sequences of `ctx` tokens in 16-token pages.
    fn paged(ctx: usize, batch: usize) -> ModelImage {
        small(ImageSpec {
            batch,
            kv: KvLayout::Paged { page_tokens: 16 },
            ..ImageSpec::new(ctx)
        })
    }

    /// Layers `layers` of `batch` sequences of `ctx` tokens.
    fn shard(ctx: usize, batch: usize, layers: std::ops::Range<usize>) -> ModelImage {
        small(ImageSpec {
            batch,
            layers: Some(layers),
            ..ImageSpec::new(ctx)
        })
    }

    #[test]
    fn llama2_7b_image_reproduces_fig1() {
        let image = ModelImage::build(&ModelConfig::llama2_7b(), WeightFormat::kv260(), 1024)
            .expect("7B must fit the 4GB device");
        let occ = image.occupancy();
        assert!(
            (0.90..0.96).contains(&occ),
            "occupancy {occ:.4} should be ~93%"
        );
        assert!(!image.linux_bootable(), "paper: too little room for Linux");
        assert!(image.map().check_invariants());
        // Weight stream ≈ 3.3–3.5 GB.
        let wb = image.weight_stream_bytes() as f64 / (1u64 << 20) as f64;
        assert!((3100.0..3500.0).contains(&wb), "weight stream {wb:.0} MiB");
    }

    #[test]
    fn thirteen_b_does_not_fit() {
        let mut cfg = ModelConfig::llama2_7b();
        cfg.name = "LLaMA2-13B".into();
        cfg.n_layers = 40;
        cfg.d_model = 5120;
        cfg.n_heads = 40;
        cfg.n_kv_heads = 40;
        cfg.d_ff = 13824;
        assert!(ModelImage::build(&cfg, WeightFormat::kv260(), 1024).is_err());
    }

    #[test]
    fn small_image_geometry() {
        let cfg = ModelConfig::test_small();
        let image = ModelImage::build(&cfg, WeightFormat::kv260(), 64).expect("fits");
        assert_eq!(image.projections().len(), cfg.n_layers * 7 + 1);
        assert_eq!(image.layer_projections(1).len(), 7);
        assert_eq!(image.layer_projections(1)[0].name, "wq");
        assert_eq!(image.lm_head().rows, cfg.vocab_size);
        assert_eq!(image.ctx_capacity(), 64);
    }

    #[test]
    fn kv_bursts_are_contiguous_and_sized() {
        let cfg = ModelConfig::test_small();
        let image = ModelImage::build(&cfg, WeightFormat::kv260(), 64).expect("fits");
        let tb = image.kv_token_bytes();
        assert_eq!(tb % BEAT_BYTES as u64, 0);
        let read = image.kv_read_burst(0, false, 10);
        assert_eq!(read.bytes(), tb * 10);
        let w0 = image.kv_write_burst_seq(0, false, 0, 0);
        let w1 = image.kv_write_burst_seq(0, false, 1, 0);
        assert_eq!(w1.addr - w0.addr, tb);
        assert!(w0.write);
        // K and V regions are distinct.
        let rv = image.kv_read_burst(0, true, 10);
        assert_ne!(read.addr, rv.addr);
    }

    #[test]
    fn embedding_rows_are_addressable() {
        let cfg = ModelConfig::test_small();
        let image = ModelImage::build(&cfg, WeightFormat::kv260(), 64).expect("fits");
        let b0 = image.embedding_row_burst(0);
        let b1 = image.embedding_row_burst(1);
        assert_eq!(b1.addr - b0.addr, (cfg.d_model * 2) as u64);
        assert_eq!(b0.bytes(), (cfg.d_model * 2) as u64);
    }

    #[test]
    fn meta_write_bursts_are_beat_sized() {
        let cfg = ModelConfig::test_small();
        let image = ModelImage::build(&cfg, WeightFormat::kv260(), 64).expect("fits");
        let b = image.kv_meta_write_burst_seq(3, 1, 0);
        assert_eq!(b.beats, 1);
        assert!(b.write);
    }

    #[test]
    #[should_panic(expected = "context beyond capacity")]
    fn kv_read_checks_capacity() {
        let cfg = ModelConfig::test_small();
        let image = ModelImage::build(&cfg, WeightFormat::kv260(), 16).expect("fits");
        let _ = image.kv_read_burst(0, false, 17);
    }

    #[test]
    fn batched_image_shares_weights_and_separates_kv() {
        let cfg = ModelConfig::test_small();
        let single = ModelImage::build(&cfg, WeightFormat::kv260(), 32).expect("fits");
        let batched = batched(32, 4);
        assert_eq!(single.batch(), 1);
        assert_eq!(batched.batch(), 4);
        // The dense weight image is identical — batching never duplicates it.
        assert_eq!(single.weight_stream_bytes(), batched.weight_stream_bytes());
        // Each sequence gets its own consecutive history stream.
        let tb = batched.kv_token_bytes();
        let s0 = batched.kv_read_burst_seq(0, false, 10, 0);
        let s1 = batched.kv_read_burst_seq(0, false, 10, 1);
        assert_eq!(s1.addr - s0.addr, 32 * tb);
        assert_eq!(s0.bytes(), s1.bytes());
        // Seq 0 bursts coincide with the single-sequence accessor.
        assert_eq!(batched.kv_read_burst(0, false, 10), s0);
        let w0 = batched.kv_write_burst_seq(0, true, 3, 0);
        let w2 = batched.kv_write_burst_seq(0, true, 3, 2);
        assert_eq!(w2.addr - w0.addr, 2 * 32 * tb);
        // Meta blocks are per-sequence too.
        let m0 = batched.kv_meta_write_burst_seq(0, 0, 0);
        let m1 = batched.kv_meta_write_burst_seq(0, 0, 1);
        let streams = (cfg.n_layers * cfg.n_kv_heads * 2) as u64;
        assert_eq!(m1.addr - m0.addr, streams * 2 * BEAT_BYTES as u64);
    }

    #[test]
    fn kv_budget_prices_full_occupancy() {
        let cfg = ModelConfig::test_small();
        let image = batched(32, 4);
        // A full slot costs exactly 1/batch of the provisioned budget.
        assert_eq!(image.kv_request_bytes(32) * 4, image.kv_budget_bytes());
        // Footprint is monotone in tokens and zero at zero.
        assert_eq!(image.kv_request_bytes(0), 0);
        assert!(image.kv_request_bytes(16) < image.kv_request_bytes(17));
        // Metadata rounds to whole 16-token windows.
        let one = image.kv_request_bytes(1);
        let sixteen = image.kv_request_bytes(16);
        assert_eq!(
            sixteen - one,
            15 * (cfg.n_layers * 2) as u64 * image.kv_token_bytes()
        );
    }

    #[test]
    fn paged_image_redivides_the_kv_budget_exactly() {
        let flat = batched(32, 4);
        let paged = paged(32, 4);
        assert!(paged.is_paged() && !flat.is_paged());
        assert_eq!(paged.page_tokens(), Some(16));
        // Paging re-divides the same budget: pages × page bytes is the
        // whole KV budget, and that budget matches the contiguous image.
        assert_eq!(paged.kv_budget_bytes(), flat.kv_budget_bytes());
        assert_eq!(4 * 2 * paged.kv_page_bytes(), paged.kv_budget_bytes());
        // Page-rounded charging: whole pages, monotone, capped at full.
        assert_eq!(paged.page_rounded_request_bytes(0, 16), 0);
        assert_eq!(
            paged.page_rounded_request_bytes(1, 16),
            paged.kv_page_bytes()
        );
        assert_eq!(
            paged.page_rounded_request_bytes(17, 16),
            2 * paged.kv_page_bytes()
        );
        assert_eq!(
            paged.page_rounded_request_bytes(32, 16) * 4,
            paged.kv_budget_bytes()
        );
        // Contiguous images can price page-rounded too (twin-run compare).
        assert_eq!(
            flat.page_rounded_request_bytes(17, 16),
            paged.page_rounded_request_bytes(17, 16)
        );
    }

    #[test]
    fn paged_reads_fragment_but_conserve_bytes() {
        let flat = batched(32, 4);
        let paged = paged(32, 4);
        for ctx in [1usize, 15, 16, 17, 31, 32] {
            let flat_bytes: u64 = flat
                .kv_read_bursts_seq(0, false, ctx, 1)
                .iter()
                .map(|b| b.bytes())
                .sum();
            let bursts = paged.kv_read_bursts_seq(0, false, ctx, 1);
            assert_eq!(bursts.len(), ctx.div_ceil(16), "one burst per page");
            let paged_bytes: u64 = bursts.iter().map(|b| b.bytes()).sum();
            assert_eq!(paged_bytes, flat_bytes, "ctx {ctx}: same bytes moved");
        }
        // Canonical interleave: logical page p of seq s sits at physical
        // page p·batch + s, so seq 0 / page 0 coincides with the start of
        // the region and consecutive logical pages are batch pages apart.
        let tb = paged.kv_token_bytes();
        let bursts = paged.kv_read_bursts_seq(0, false, 32, 0);
        assert_eq!(bursts[0].addr, flat.kv_read_burst_seq(0, false, 32, 0).addr);
        assert_eq!(bursts[1].addr - bursts[0].addr, 4 * 16 * tb);
        // Writes remap the same way: token 16 of seq 1 lands in physical
        // page 1·4 + 1 = 5 at offset 0.
        let w = paged.kv_write_burst_seq(0, false, 16, 1);
        assert_eq!(w.addr, bursts[0].addr + 5 * 16 * tb);
    }

    #[test]
    fn page_table_bursts_are_priced_per_sequence() {
        let paged = paged(32, 4);
        // 2 entries × 4 B rounds up to one 64 B beat per sequence.
        let r0 = paged.kv_page_table_read_burst(0);
        let r1 = paged.kv_page_table_read_burst(1);
        assert_eq!(r0.beats, 1);
        assert_eq!(r1.addr - r0.addr, BEAT_BYTES as u64);
        assert!(!r0.write);
        let w = paged.kv_page_table_write_burst(0, 1);
        assert!(w.write);
        assert_eq!(w.beats, 1);
        assert_eq!(w.addr, r0.addr);
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn paged_image_rejects_misaligned_page_size() {
        let cfg = ModelConfig::test_small();
        let spec = ImageSpec {
            batch: 4,
            kv: KvLayout::Paged { page_tokens: 24 },
            ..ImageSpec::new(32)
        };
        let _ = ModelImage::from_spec(&cfg, WeightFormat::kv260(), &spec);
    }

    #[test]
    #[should_panic(expected = "paged image history is fragmented")]
    fn contiguous_read_accessor_rejects_paged_images() {
        let paged = paged(32, 4);
        let _ = paged.kv_read_burst_seq(0, false, 4, 0);
    }

    #[test]
    #[should_panic(expected = "sequence beyond provisioned batch")]
    fn kv_read_checks_batch() {
        let image = batched(16, 2);
        let _ = image.kv_read_burst_seq(0, false, 4, 2);
    }

    #[test]
    fn shards_partition_the_full_image() {
        let cfg = ModelConfig::test_small();
        let full = batched(32, 2);
        let mid = cfg.n_layers / 2;
        let first = shard(32, 2, 0..mid);
        let last = shard(32, 2, mid..cfg.n_layers);

        // Ownership splits along the pipeline.
        assert!(first.owns_embedding() && !first.owns_head());
        assert!(!last.owns_embedding() && last.owns_head());
        assert_eq!(first.model().n_layers, mid);
        assert_eq!(last.model().n_layers, cfg.n_layers - mid);

        // The shards exactly partition the full image's weight stream
        // and KV budget — nothing duplicated, nothing dropped.
        assert_eq!(
            first.weight_stream_bytes() + last.weight_stream_bytes(),
            full.weight_stream_bytes()
        );
        assert_eq!(
            first.kv_budget_bytes() + last.kv_budget_bytes(),
            full.kv_budget_bytes()
        );
        assert_eq!(
            first.kv_request_bytes(20) + last.kv_request_bytes(20),
            full.kv_request_bytes(20)
        );

        // Shard-local accessors address the shard's own slice.
        assert_eq!(first.projections().len(), mid * 7);
        assert_eq!(last.projections().len(), (cfg.n_layers - mid) * 7 + 1);
        assert_eq!(last.lm_head().rows, cfg.vocab_size);
        assert_eq!(last.layer_projections(0)[0].layer, mid);

        // A full build is a degenerate shard.
        let whole = shard(32, 2, 0..cfg.n_layers);
        assert_eq!(whole.weight_stream_bytes(), full.weight_stream_bytes());
        assert_eq!(whole.kv_budget_bytes(), full.kv_budget_bytes());
        assert!(whole.owns_embedding() && whole.owns_head());
    }

    #[test]
    #[should_panic(expected = "does not place the embedding table")]
    fn tail_shard_has_no_embedding() {
        let cfg = ModelConfig::test_small();
        let _ = shard(16, 1, 1..cfg.n_layers).embedding_row_burst(0);
    }

    #[test]
    #[should_panic(expected = "does not place the LM head")]
    fn head_shard_has_no_lm_head() {
        let _ = shard(16, 1, 0..1).lm_head();
    }
}
