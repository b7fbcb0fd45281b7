//! The pipeline-parallel sharded decode engine.
//!
//! One [`DecodeEngine`] per stage, each over a shard image
//! ([`ImageSpec::layers`]) holding only its own layer range —
//! so each simulated board pays DDR traffic for exactly its slice
//! (embedding on the first stage, LM head on the last, every layer's
//! weights/KV/metadata on its owner), and the union of the stages'
//! traffic equals the single-board engine's byte for byte. What the
//! single board never pays — hidden states crossing stage boundaries —
//! is priced by the [`InterconnectConfig`] and itemized in telemetry
//! under `cluster.bytes.*`.

use crate::cluster::interconnect::InterconnectConfig;
use zllm_accel::telemetry::{Counter, Gauge, MetricsRegistry, Snapshot};
use zllm_accel::{split_layers, AccelConfig, DecodeEngine, EngineConfig, ImageSpec, PrefillChunk};
use zllm_layout::addr_map::AllocError;
use zllm_model::ModelConfig;

/// The priced outcome of one cluster step (decode or prefill).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterStepReport {
    /// Steady-state step time: with stages overlapped on successive
    /// micro-batches, a new result emerges every `max(stage wall + hop
    /// out)` nanoseconds — the pipeline's cadence.
    pub cadence_ns: f64,
    /// First-result-through-an-empty-pipeline time: the sum of every
    /// stage's wall plus every hop — what the first token of a fill
    /// pays on top of the cadence.
    pub fill_ns: f64,
    /// Hidden-state bytes that crossed stage boundaries this step.
    pub activation_bytes: u64,
    /// Token-id bytes returned from the last stage this step.
    pub token_id_bytes: u64,
}

impl ClusterStepReport {
    /// The fill cost in excess of one cadence — what a request's first
    /// token pays while the pipeline fills behind it.
    pub fn fill_residual_ns(&self) -> f64 {
        (self.fill_ns - self.cadence_ns).max(0.0)
    }
}

/// N trace-driven stage engines on one pipeline, plus the interconnect
/// carrying activations between them.
pub struct ShardedEngine {
    stages: Vec<DecodeEngine>,
    interconnect: InterconnectConfig,
    /// Stage whose KV footprint per sequence is largest (the most
    /// layers) — the pipeline's admission bottleneck.
    bottleneck: usize,
    registry: MetricsRegistry,
    activation_bytes: Counter,
    token_id_bytes: Counter,
    decode_steps: Counter,
    prefill_steps: Counter,
    cadence_ns: Gauge,
    fill_ns: Gauge,
}

impl ShardedEngine {
    /// Builds `depth` stage engines over near-even layer-range shards of
    /// `model` (see [`split_layers`]). `image` gives every stage its
    /// context capacity, concurrent sequence slots and KV layout; its
    /// `layers` is replaced by each stage's own range. With paged KV,
    /// each board fragments its own KV reads along page boundaries and
    /// prices its own page-table bursts, so the pipeline's admission can
    /// charge actual growth at the bottleneck stage.
    ///
    /// # Errors
    ///
    /// Returns the allocation failure if any shard misses the 4 GB
    /// per-board map (it fits whenever the full model does).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the model's layer count, or
    /// as [`zllm_accel::ModelImage::from_spec`] does.
    pub fn new(
        accel: &AccelConfig,
        model: &ModelConfig,
        image: ImageSpec,
        depth: usize,
        interconnect: InterconnectConfig,
    ) -> Result<ShardedEngine, AllocError> {
        let mut stages = Vec::with_capacity(depth);
        for range in split_layers(model.n_layers, depth) {
            let stage = ImageSpec {
                layers: Some(range),
                ..image.clone()
            };
            stages.push(DecodeEngine::build(
                accel.clone(),
                model,
                EngineConfig::new(stage),
            )?);
        }
        let bottleneck = stages
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| e.image().kv_request_bytes(image.ctx_capacity))
            .map(|(i, _)| i)
            .expect("at least one stage");
        let mut registry = MetricsRegistry::new();
        Ok(ShardedEngine {
            activation_bytes: registry.counter("cluster.bytes.activation"),
            token_id_bytes: registry.counter("cluster.bytes.token_ids"),
            decode_steps: registry.counter("cluster.steps.decode"),
            prefill_steps: registry.counter("cluster.steps.prefill"),
            cadence_ns: registry.gauge("cluster.step.cadence_ns"),
            fill_ns: registry.gauge("cluster.step.fill_ns"),
            stages,
            interconnect,
            bottleneck,
            registry,
        })
    }

    /// Pipeline depth (stages = boards on this pipeline).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Concurrent sequence slots (identical on every stage).
    pub fn slots(&self) -> usize {
        self.stages[0].image().batch()
    }

    /// The stage engines, first to last.
    pub fn stages(&self) -> &[DecodeEngine] {
        &self.stages
    }

    /// KV bytes a sequence of `tokens` costs on the *bottleneck* stage —
    /// the pipeline's admission currency. Every stage's budget is
    /// `slots` full-context sequences of its own layers, so a placement
    /// feasible at the bottleneck is feasible on every board.
    pub fn kv_request_bytes(&self, tokens: usize) -> u64 {
        self.stages[self.bottleneck]
            .image()
            .kv_request_bytes(tokens)
    }

    /// The bottleneck stage's KV budget — what admission prices against.
    pub fn kv_budget_bytes(&self) -> u64 {
        self.stages[self.bottleneck].image().kv_budget_bytes()
    }

    /// KV bytes a sequence of `tokens` costs on stage `stage` (for
    /// auditing every board's budget independently).
    pub fn stage_kv_request_bytes(&self, stage: usize, tokens: usize) -> u64 {
        self.stages[stage].image().kv_request_bytes(tokens)
    }

    /// Stage `stage`'s provisioned KV budget.
    pub fn stage_kv_budget_bytes(&self, stage: usize) -> u64 {
        self.stages[stage].image().kv_budget_bytes()
    }

    /// One page's KV bytes on the **bottleneck** stage — the pipeline's
    /// actual-growth admission currency.
    ///
    /// # Panics
    ///
    /// Panics when the engine is not paged.
    pub fn kv_page_bytes(&self) -> u64 {
        self.stages[self.bottleneck].image().kv_page_bytes()
    }

    /// Prices one ragged decode step (`(slot, ctx)` pairs, as
    /// [`DecodeEngine::decode_token_ragged`]) across the whole pipeline.
    ///
    /// Every stage prices its own DDR traffic for the step; between
    /// stage `i` and `i+1` one FP16 hidden state per sequence crosses
    /// the link, and the last stage returns 4-byte token ids. A
    /// single-stage pipeline is exactly the single-board engine: no
    /// hops, no cluster bytes.
    pub fn decode_step(&mut self, slots: &[(usize, usize)]) -> ClusterStepReport {
        let n = slots.len() as u64;
        let walls: Vec<f64> = self
            .stages
            .iter_mut()
            .map(|e| e.decode_token_ragged(slots).wall_ns)
            .collect();
        self.decode_steps.inc();
        self.price(&walls, n * self.hidden_bytes(), n)
    }

    /// Prices one chunked-prefill step across the whole pipeline: every
    /// prompt token's hidden state crosses each boundary, and one
    /// token id returns per chunk (prompt logits are discarded).
    pub fn prefill_step(&mut self, chunks: &[PrefillChunk]) -> ClusterStepReport {
        let tokens: u64 = chunks.iter().map(|c| c.len as u64).sum();
        let walls: Vec<f64> = self
            .stages
            .iter_mut()
            .map(|e| e.prefill_chunked(chunks).wall_ns)
            .collect();
        self.prefill_steps.inc();
        self.price(&walls, tokens * self.hidden_bytes(), chunks.len() as u64)
    }

    /// FP16 hidden-state bytes per token crossing one boundary.
    fn hidden_bytes(&self) -> u64 {
        (self.stages[0].model().d_model * 2) as u64
    }

    fn price(&mut self, walls: &[f64], act_per_hop: u64, seqs: u64) -> ClusterStepReport {
        let depth = walls.len();
        let forward_hops = depth as u64 - 1;
        let token_bytes = if depth > 1 { 4 * seqs } else { 0 };
        let forward_ns = self.interconnect.hop_ns(act_per_hop);
        let return_ns = self.interconnect.hop_ns(token_bytes);
        let cadence_ns = walls
            .iter()
            .enumerate()
            .map(|(i, w)| {
                if depth == 1 {
                    *w
                } else if i + 1 < depth {
                    w + forward_ns
                } else {
                    w + return_ns
                }
            })
            .fold(0.0f64, f64::max);
        let fill_ns = if depth == 1 {
            walls[0]
        } else {
            walls.iter().sum::<f64>() + forward_ns * forward_hops as f64 + return_ns
        };
        let activation_bytes = act_per_hop * forward_hops;
        self.activation_bytes.add(activation_bytes);
        self.token_id_bytes.add(token_bytes);
        self.cadence_ns.set(cadence_ns);
        self.fill_ns.set(fill_ns);
        ClusterStepReport {
            cadence_ns,
            fill_ns,
            activation_bytes,
            token_id_bytes: token_bytes,
        }
    }

    /// Point-in-time copy of the cluster telemetry (`cluster.bytes.*`,
    /// `cluster.steps.*`, `cluster.step.*`).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Total hidden-state bytes moved over the interconnect so far.
    pub fn activation_bytes(&self) -> u64 {
        self.activation_bytes.get()
    }

    /// Total token-id return bytes moved over the interconnect so far.
    pub fn token_id_bytes(&self) -> u64 {
        self.token_id_bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two slots of 32 tokens.
    fn slots() -> ImageSpec {
        ImageSpec {
            batch: 2,
            ..ImageSpec::new(32)
        }
    }

    fn engine(depth: usize) -> ShardedEngine {
        ShardedEngine::new(
            &AccelConfig::kv260(),
            &ModelConfig::test_small(),
            slots(),
            depth,
            InterconnectConfig::aurora_x4(),
        )
        .expect("test model fits")
    }

    #[test]
    fn single_stage_is_the_single_board_engine() {
        let mut sharded = engine(1);
        let mut single = DecodeEngine::build(
            AccelConfig::kv260(),
            &ModelConfig::test_small(),
            EngineConfig::new(slots()),
        )
        .expect("fits");
        let slots = [(0usize, 4usize), (1, 9)];
        let step = sharded.decode_step(&slots);
        let want = single.decode_token_ragged(&slots).wall_ns;
        assert_eq!(step.cadence_ns, want);
        assert_eq!(step.fill_ns, want);
        assert_eq!(step.activation_bytes, 0);
        assert_eq!(step.token_id_bytes, 0);
    }

    #[test]
    fn sharding_shrinks_cadence_and_itemizes_activations() {
        let mut one = engine(1);
        let mut two = engine(2);
        let slots = [(0usize, 8usize), (1, 8)];
        let s1 = one.decode_step(&slots);
        let s2 = two.decode_step(&slots);
        // Half the layers per stage: the cadence must drop well below
        // the single-board wall (hops are cheap on the serial link).
        assert!(
            s2.cadence_ns < 0.75 * s1.cadence_ns,
            "cadence {} vs single-board {}",
            s2.cadence_ns,
            s1.cadence_ns
        );
        // Fill is more than cadence (pipeline must fill) and the
        // activation traffic is itemized: 2 sequences × d_model × 2
        // bytes across 1 boundary.
        assert!(s2.fill_ns > s2.cadence_ns);
        let d_model = ModelConfig::test_small().d_model as u64;
        assert_eq!(s2.activation_bytes, 2 * d_model * 2);
        assert_eq!(s2.token_id_bytes, 8);
        let snap = two.metrics_snapshot();
        assert_eq!(
            snap.counter("cluster.bytes.activation"),
            Some(2 * d_model * 2)
        );
        assert_eq!(snap.counter("cluster.bytes.token_ids"), Some(8));
        assert_eq!(snap.counter("cluster.steps.decode"), Some(1));
    }

    #[test]
    fn stage_budgets_partition_the_single_board_budget() {
        let sharded = engine(2);
        let single = DecodeEngine::build(
            AccelConfig::kv260(),
            &ModelConfig::test_small(),
            EngineConfig::new(slots()),
        )
        .expect("fits");
        let total: u64 = (0..sharded.depth())
            .map(|s| sharded.stage_kv_budget_bytes(s))
            .sum();
        assert_eq!(total, single.image().kv_budget_bytes());
        // The bottleneck request price never exceeds the single board's.
        assert!(sharded.kv_request_bytes(20) <= single.image().kv_request_bytes(20));
        assert!(sharded.kv_budget_bytes() <= single.image().kv_budget_bytes());
        // Budget = slots × full-context request on every stage.
        for s in 0..sharded.depth() {
            assert_eq!(
                sharded.stage_kv_request_bytes(s, 32) * 2,
                sharded.stage_kv_budget_bytes(s)
            );
        }
    }

    #[test]
    fn prefill_step_prices_every_prompt_token_hop() {
        let mut two = engine(2);
        let chunks = [
            PrefillChunk {
                slot: 0,
                start: 0,
                len: 8,
            },
            PrefillChunk {
                slot: 1,
                start: 0,
                len: 4,
            },
        ];
        let step = two.prefill_step(&chunks);
        let d_model = ModelConfig::test_small().d_model as u64;
        assert_eq!(step.activation_bytes, 12 * d_model * 2);
        assert_eq!(step.token_id_bytes, 8);
        assert!(step.fill_ns > step.cadence_ns);
    }
}
