//! The compression point: a TinyLlama-1.1B generation of [`TOKENS`]
//! tokens from [`START_CTX`] priced through the inline DDR
//! (de)compression stage, against a plain twin that prices the same
//! positions.
//!
//! The gated point runs on [`crate::comp_accel`]'s DDR4-2400 at the
//! ratios [`zllm_quant::entropy::measured_stream_ratios`] reports for
//! seed [`SEED`]; an all-identity stage must price byte-invisibly.

use zllm_accel::telemetry::Snapshot;
use zllm_accel::{AccelConfig, DecodeEngine, EngineConfig, ImageSpec};
use zllm_ddr::{CompressionConfig, StreamRatio};
use zllm_model::ModelConfig;
use zllm_quant::entropy::StreamRatios;

/// Per-sequence KV provisioning (tokens).
pub const CTX_CAPACITY: usize = 256;
/// Context the generation starts from.
pub const START_CTX: usize = 64;
/// Tokens per run; every twin prices exactly the same positions.
pub const TOKENS: usize = 48;
/// Default entropy-measurement seed.
pub const SEED: u64 = 7;
/// Tok/s uplift the entropy-measured point must sustain on DDR4-2400.
pub const MIN_UPLIFT: f64 = 1.3;

/// One priced generation.
pub struct Run {
    /// Simulated wall, ns.
    pub wall_ns: f64,
    /// Bytes the engine asked for.
    pub bytes_logical: u64,
    /// Bytes that crossed the bus (the logical bytes on a plain engine).
    pub bytes_wire: u64,
    /// Page-map metadata bytes (zero on a plain engine).
    pub bytes_meta: u64,
    /// The engine's metrics after the run.
    pub snap: Snapshot,
}

impl Run {
    /// Tok/s of this run over the `plain` twin's.
    pub fn uplift_over(&self, plain: &Run) -> f64 {
        plain.wall_ns / self.wall_ns
    }

    /// Whether this run priced byte-invisibly against `plain`: the same
    /// wall bit for bit and the same metrics snapshot, key set included.
    pub fn is_invisible_against(&self, plain: &Run) -> bool {
        self.wall_ns.to_bits() == plain.wall_ns.to_bits()
            && self.snap.to_json() == plain.snap.to_json()
    }
}

/// The achievable (weight, KV, activation) ratios of a measurement.
pub fn achievable(m: &StreamRatios) -> (f64, f64, f64) {
    (
        m.weight.achievable_ratio,
        m.kv.achievable_ratio,
        m.activation.achievable_ratio,
    )
}

/// Prices the generation on `engine`. A compressed engine reports its
/// own logical, wire and metadata bytes; a plain one moves its logical
/// bytes as they are.
fn priced(mut engine: DecodeEngine) -> Run {
    let (mut wall_ns, mut bytes) = (0.0f64, 0u64);
    for c in START_CTX..START_CTX + TOKENS {
        let r = engine.decode_token(c);
        wall_ns += r.wall_ns;
        bytes += r.bytes;
    }
    let (bytes_logical, bytes_wire, bytes_meta) =
        engine.compression_bytes().unwrap_or((bytes, bytes, 0));
    Run {
        wall_ns,
        bytes_logical,
        bytes_wire,
        bytes_meta,
        snap: engine.metrics_snapshot(),
    }
}

/// Prices the generation on a plain engine.
pub fn plain(accel: &AccelConfig) -> Run {
    priced(
        DecodeEngine::new(accel.clone(), &ModelConfig::tiny_llama_1_1b(), CTX_CAPACITY)
            .expect("TinyLlama-1.1B fits the 4GB device"),
    )
}

/// Prices the generation through a compression stage at the given
/// (weight, KV, activation) ratios.
pub fn compressed(accel: &AccelConfig, (weight, kv, activation): (f64, f64, f64)) -> Run {
    let cfg = CompressionConfig::with_ratios(
        StreamRatio::from_ratio(weight),
        StreamRatio::from_ratio(kv),
        StreamRatio::from_ratio(activation),
    );
    let cfg = EngineConfig {
        compression: Some(cfg),
        ..EngineConfig::new(ImageSpec::new(CTX_CAPACITY))
    };
    priced(
        DecodeEngine::build(accel.clone(), &ModelConfig::tiny_llama_1_1b(), cfg)
            .expect("TinyLlama-1.1B fits the 4GB device"),
    )
}
