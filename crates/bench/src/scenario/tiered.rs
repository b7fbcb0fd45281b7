//! The tiered-weight points: LLaMA decode at a fixed context whose layer
//! weights stream from flash through a DDR-resident cache of a given
//! budget.
//!
//! Budgets are multiples of the model's largest layer: `all` holds every
//! layer, `cover` half a layer less (the least streaming possible, two
//! layers per token under the pin/stream plan), `thrash` sits deep in
//! capacity pressure, `floor` barely holds one layer plus headroom, and
//! `board4g` — only for models that overflow it — is what a real 4 GiB
//! board leaves for layer weights. LLaMA layers are uniform, so `all` is
//! exactly the sum of the layer bytes.

use zllm_accel::telemetry::Snapshot;
use zllm_accel::{
    AccelConfig, DecodeEngine, EngineConfig, ImageSpec, ModelImage, TierConfig, TierReport,
};
use zllm_model::ModelConfig;

/// Decode context every run prices at.
pub const CTX: usize = 512;
/// Tokens per run. The cache starts warm, so the second token is cyclic
/// steady state and is the one reported.
pub const TOKENS: usize = 2;
/// DDR a real KV260 carries.
pub const BOARD_BYTES: u64 = 4 << 30;
/// The thrash budget, in largest-layer multiples (3 of LLaMA2-7B's 32
/// layers resident): eviction policy decides how many flash bytes each
/// token pays.
pub const THRASH_LAYERS: f64 = 3.4;
/// Largest tok/s loss vs all-resident tolerated at the covering budget
/// on NVMe.
pub const MAX_COVER_LOSS: f64 = 0.05;
/// Schedule-aware tok/s over blind-LRU tok/s required at the thrash
/// budget.
pub const MIN_UPLIFT: f64 = 2.0;

/// A model's layer geometry under an accelerator's weight format.
pub struct Geometry {
    /// Transformer layers.
    pub n_layers: usize,
    /// Bytes of the largest layer.
    pub layer_bytes: u64,
    /// Bytes of all layers together.
    pub total_layer_bytes: u64,
    /// DDR everything but the layer weights occupies.
    pub non_layer_bytes: u64,
}

impl Geometry {
    /// Measures `model` placed for [`CTX`] + [`TOKENS`] tokens.
    pub fn of(accel: &AccelConfig, model: &ModelConfig) -> Geometry {
        let image = ModelImage::build_tiered(model, accel.format, CTX + TOKENS)
            .expect("tiered image fits a virtual map");
        let layers = || (0..model.n_layers).map(|l| image.layer_weight_bytes(l));
        Geometry {
            n_layers: model.n_layers,
            layer_bytes: layers().max().expect("model has layers"),
            total_layer_bytes: layers().sum(),
            non_layer_bytes: image.non_layer_resident_bytes(),
        }
    }

    /// The budget points, `(label, layer-weight bytes)`, in sweep order.
    pub fn budgets(&self) -> Vec<(&'static str, u64)> {
        let n = self.n_layers as f64;
        let mut points: Vec<(&'static str, u64)> = [
            ("all", n),
            ("cover", n - 0.5),
            ("thrash", THRASH_LAYERS),
            ("floor", 1.5),
        ]
        .into_iter()
        .map(|(label, layers)| (label, (layers * self.layer_bytes as f64) as u64))
        .collect();
        if self.non_layer_bytes + self.total_layer_bytes > BOARD_BYTES {
            points.push(("board4g", BOARD_BYTES - self.non_layer_bytes));
        }
        points
    }

    /// The budget at `label`.
    ///
    /// # Panics
    ///
    /// Panics if this model has no such point.
    pub fn budget(&self, label: &str) -> u64 {
        self.budgets()
            .into_iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no {label} budget point"))
            .1
    }
}

/// What one tiered run measured.
pub struct Run {
    /// Tok/s of the steady-state (last) token.
    pub tokens_per_s: f64,
    /// Tier stall of the steady-state token, ns.
    pub stall_ns: f64,
    /// Staging DDR time of the steady-state token, ns.
    pub staging_ns: f64,
    /// Tier activity over the whole run.
    pub report: TierReport,
    /// Physical DDR the deployment needs.
    pub physical_bytes: u64,
    /// The engine's metrics after the run.
    pub snap: Snapshot,
}

/// Decodes [`TOKENS`] tokens at [`CTX`] on a tiered engine.
pub fn run(accel: &AccelConfig, model: &ModelConfig, tier: TierConfig) -> Run {
    let cfg = EngineConfig {
        tier: Some(tier),
        ..EngineConfig::new(ImageSpec::new(CTX + TOKENS))
    };
    let mut engine =
        DecodeEngine::build(accel.clone(), model, cfg).expect("tiered build fits a virtual map");
    for _ in 1..TOKENS {
        engine.decode_token(CTX);
    }
    let warm = engine.tier_report().expect("tiered engine");
    let tokens_per_s = engine.decode_token(CTX).tokens_per_s;
    let report = engine.tier_report().expect("tiered engine");
    Run {
        tokens_per_s,
        stall_ns: report.stall_ns - warm.stall_ns,
        staging_ns: report.staging_ddr_ns - warm.staging_ddr_ns,
        physical_bytes: engine.tier_physical_bytes().expect("tiered engine"),
        report,
        snap: engine.metrics_snapshot(),
    }
}
