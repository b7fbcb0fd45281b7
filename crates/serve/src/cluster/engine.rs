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
use zllm_accel::{
    split_layers, AccelConfig, DecodeEngine, DraftCost, EngineConfig, ImageSpec, PrefillChunk,
    SpecWindow,
};
use zllm_layout::addr_map::AllocError;
use zllm_model::ModelConfig;

/// One step of a pipeline, as every stage engine prices it.
#[derive(Clone, Copy)]
pub(crate) enum Step<'a> {
    /// Chunked prefill, as [`DecodeEngine::prefill_chunked`].
    Prefill(&'a [PrefillChunk]),
    /// A ragged decode step, as [`DecodeEngine::decode_token_ragged`].
    Ragged(&'a [(usize, usize)]),
    /// A lockstep gang of `batch` sequences at one padded context.
    Gang { ctx: usize, batch: usize },
    /// Speculative verify windows under a free draft.
    Verify(&'a [SpecWindow]),
}

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
    /// A single-stage pipeline is exactly the single-board engine: no
    /// hops, no cluster bytes.
    pub fn decode_step(&mut self, slots: &[(usize, usize)]) -> ClusterStepReport {
        self.run(Step::Ragged(slots))
    }

    /// Prices one chunked-prefill step across the whole pipeline.
    pub fn prefill_step(&mut self, chunks: &[PrefillChunk]) -> ClusterStepReport {
        self.run(Step::Prefill(chunks))
    }

    /// The stage runner every step kind goes through. Each stage prices
    /// its own DDR traffic for `step`. One FP16 hidden state per step token
    /// crosses each stage boundary (per sequence, prompt token or verified
    /// position), and the last stage returns one 4-byte token id per
    /// sequence, prefill chunk (prompt logits are discarded) or verified
    /// position.
    pub(crate) fn run(&mut self, step: Step<'_>) -> ClusterStepReport {
        let (tokens, ids, steps) = match step {
            Step::Prefill(c) => (c.iter().map(|c| c.len).sum(), c.len(), &self.prefill_steps),
            Step::Ragged(slots) => (slots.len(), slots.len(), &self.decode_steps),
            Step::Gang { batch, .. } => (batch, batch, &self.decode_steps),
            Step::Verify(w) => {
                let n = w.iter().map(|w| w.drafted + 1).sum();
                (n, n, &self.decode_steps)
            }
        };
        steps.inc();
        let walls: Vec<f64> = self
            .stages
            .iter_mut()
            .map(|e| match step {
                Step::Prefill(chunks) => e.prefill_chunked(chunks),
                Step::Ragged(slots) => e.decode_token_ragged(slots),
                Step::Gang { ctx, batch } => e.decode_token_batch(ctx, batch),
                Step::Verify(windows) => {
                    e.decode_speculative(windows, &DraftCost::FlatNs { ns_per_token: 0.0 })
                }
            })
            .map(|r| r.wall_ns)
            .collect();
        let depth = walls.len();
        let forward_hops = depth as u64 - 1;
        let act_per_hop = (tokens * self.stages[0].model().d_model * 2) as u64;
        let token_bytes = if depth > 1 { 4 * ids as u64 } else { 0 };
        let forward_ns = self.interconnect.hop_ns(act_per_hop);
        let return_ns = self.interconnect.hop_ns(token_bytes);
        let (cadence_ns, fill_ns) = if depth == 1 {
            (walls[0], walls[0])
        } else {
            let hop_ns = |i: usize| if i + 1 < depth { forward_ns } else { return_ns };
            (
                (0..depth)
                    .map(|i| walls[i] + hop_ns(i))
                    .fold(0.0f64, f64::max),
                walls.iter().sum::<f64>() + forward_ns * forward_hops as f64 + return_ns,
            )
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

    /// Stage `stage`'s engine, for publishing into its registry.
    pub(crate) fn stage_mut(&mut self, stage: usize) -> &mut DecodeEngine {
        &mut self.stages[stage]
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
        let total: u64 = sharded
            .stages()
            .iter()
            .map(|s| s.image().kv_budget_bytes())
            .sum();
        assert_eq!(total, single.image().kv_budget_bytes());
        // The bottleneck request price never exceeds the single board's.
        assert!(sharded.kv_request_bytes(20) <= single.image().kv_request_bytes(20));
        assert!(sharded.kv_budget_bytes() <= single.image().kv_budget_bytes());
        // Budget = slots × full-context request on every stage.
        for s in sharded.stages() {
            assert_eq!(
                s.image().kv_request_bytes(32) * 2,
                s.image().kv_budget_bytes()
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
