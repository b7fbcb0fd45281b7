//! The speculative point: a TinyLlama-1.1B generation of [`TOKENS`]
//! committed tokens from [`START_CTX`] through verify windows of up to
//! `K` drafted tokens, acceptance drawn i.i.d. at rate α from a seeded
//! generator, against the same positions decoded sequentially.
//!
//! A verify window streams the weights once for all `K + 1` positions,
//! so on a bandwidth-bound engine the accepted prefix is nearly free.
//! The gated point is α = [`ALPHA`], K = [`K`] on
//! [`crate::spec_accel`]'s DDR4-2400.

use zllm_accel::telemetry::Snapshot;
use zllm_accel::{AccelConfig, DecodeEngine, DraftCost, SpecWindow};
use zllm_model::ModelConfig;
use zllm_rng::StdRng;

/// Per-sequence KV provisioning (tokens).
pub const CTX_CAPACITY: usize = 256;
/// Context the generation starts from (the prompt is already
/// prefilled).
pub const START_CTX: usize = 64;
/// Committed tokens per run; windows clamp to this budget, so both twins
/// price exactly the same positions.
pub const TOKENS: usize = 48;
/// Default acceptance-draw seed.
pub const SEED: u64 = 9;
/// Flat draft cost per drafted token, ns — a small draft model at
/// roughly 7 % of the target's DDR4 step time.
pub const DRAFT_NS_PER_TOKEN: f64 = 2_000_000.0;
/// The gated accept rate.
pub const ALPHA: f64 = 0.8;
/// The gated draft window size.
pub const K: usize = 4;
/// Tok/s uplift the gated point must sustain over sequential decode.
pub const MIN_UPLIFT: f64 = 1.5;

/// One speculative generation and its sequential twin.
pub struct Run {
    /// Verify windows priced.
    pub windows: u64,
    /// Tokens drafted across all windows.
    pub drafted: u64,
    /// Drafted tokens accepted.
    pub accepted: u64,
    /// Simulated wall of the speculative generation, ns.
    pub spec_wall_ns: f64,
    /// Bytes the speculative generation moved.
    pub spec_bytes: u64,
    /// Simulated wall of the sequential twin, ns.
    pub base_wall_ns: f64,
    /// Bytes the sequential twin moved.
    pub base_bytes: u64,
    /// The speculative engine's metrics, `spec.*` counters included.
    pub snap: Snapshot,
}

impl Run {
    /// Tok/s of the speculative generation over its sequential twin.
    pub fn uplift(&self) -> f64 {
        self.base_wall_ns / self.spec_wall_ns
    }
}

/// Prices the generation at accept rate `alpha` and window size `k`,
/// then its sequential twin on a fresh engine (so the DDR phase
/// matches).
pub fn run(accel: &AccelConfig, alpha: f64, k: usize, seed: u64) -> Run {
    let model = ModelConfig::tiny_llama_1_1b();
    let engine = || {
        DecodeEngine::new_batched(accel.clone(), &model, CTX_CAPACITY, 1)
            .expect("TinyLlama-1.1B fits the 4GB device")
    };
    let mut eng = engine();
    let mut rng = StdRng::seed_from_u64(seed);
    let draft = DraftCost::FlatNs {
        ns_per_token: DRAFT_NS_PER_TOKEN,
    };
    let (mut ctx, mut committed) = (START_CTX, 0usize);
    let (mut windows, mut drafted, mut accepted) = (0u64, 0u64, 0u64);
    let (mut spec_wall_ns, mut spec_bytes) = (0.0f64, 0u64);
    while committed < TOKENS {
        let remaining = TOKENS - committed;
        let k_eff = k.min(remaining - 1).min(CTX_CAPACITY - 1 - ctx);
        let acc = (0..k_eff).take_while(|_| rng.gen_bool(alpha)).count();
        let w = SpecWindow {
            slot: 0,
            ctx,
            drafted: k_eff,
            accepted: acc,
        };
        let r = eng.decode_speculative(&[w], &draft);
        spec_wall_ns += r.wall_ns;
        spec_bytes += r.bytes;
        windows += 1;
        drafted += k_eff as u64;
        accepted += acc as u64;
        committed += acc + 1;
        ctx += acc + 1;
    }
    let mut base = engine();
    let (mut base_wall_ns, mut base_bytes) = (0.0f64, 0u64);
    for c in START_CTX..START_CTX + TOKENS {
        let r = base.decode_token(c);
        base_wall_ns += r.wall_ns;
        base_bytes += r.bytes;
    }
    Run {
        windows,
        drafted,
        accepted,
        spec_wall_ns,
        spec_bytes,
        base_wall_ns,
        base_bytes,
        snap: eng.metrics_snapshot(),
    }
}
