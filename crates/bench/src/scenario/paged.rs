//! The paged-KV point: one decode-heavy trace served against a KV budget
//! of [`WORST_CASE_SEQS`] worst-case sequences, once with paged
//! actual-growth admission and once with worst-case reservation, on
//! TinyLlama-1.1B and the KV260's DDR4-2400.
//!
//! Both runs share the engine, the trace, a short admission queue and
//! the budget; only the admission pricing differs. Slots are generous,
//! so the byte budget is what binds.

use crate::decode_heavy_traffic;
use zllm_accel::telemetry::Snapshot;
use zllm_accel::AccelConfig;
use zllm_model::ModelConfig;
use zllm_serve::{generate, ArrivalModel, PagedConfig, Request, ServeReport, Server, ServerConfig};

/// Requests per trace.
pub const REQUESTS: usize = 48;
/// Default trace seed.
pub const SEED: u64 = 42;
/// The gated offered load, requests per second. The engine drains about
/// half a request per second, so this saturates the tightened budget.
pub const RATE: f64 = 8.0;
/// Loads at and above this arrive in bursts of 8 and must show the
/// uplift; lower loads arrive as a Poisson stream.
pub const SATURATING_RATE: f64 = 1.0;
/// Per-sequence KV provisioning (tokens); the decode-heavy mix tops out
/// at 112 tokens, so 128 keeps the contiguous quote honest.
pub const CTX_CAPACITY: usize = 128;
/// KV page granularity (tokens); a multiple of the pack quantum.
pub const PAGE_TOKENS: usize = 16;
/// KV slots: generous on purpose, so the byte budget — not the slot
/// count — binds in both runs.
pub const SLOTS: usize = 16;
/// Admission wait-queue capacity. Short, as a real serving front end's
/// is: a request that cannot start soon is bounced rather than parked,
/// which makes admission capacity, not queue depth, decide how much of
/// the trace is served.
pub const QUEUE_CAP: usize = 6;
/// The tightened budget holds this many worst-case sequences.
pub const WORST_CASE_SEQS: u64 = 4;
/// Uplift paged admission must sustain over worst-case reservation at a
/// saturating load, in concurrent users (and, in the sweep, in served
/// goodput tokens).
pub const MIN_UPLIFT: f64 = 1.5;

/// The point's trace at `rate` requests per second.
pub fn trace(rate: f64, seed: u64) -> Vec<Request> {
    let arrivals = if rate >= SATURATING_RATE {
        ArrivalModel::Bursty {
            rate_per_s: rate,
            burst: 8,
        }
    } else {
        ArrivalModel::Poisson { rate_per_s: rate }
    };
    generate(&decode_heavy_traffic(REQUESTS, seed, arrivals))
}

/// The budget both admission disciplines are priced against: room for
/// [`WORST_CASE_SEQS`] page-rounded worst-case sequences, taken from the
/// engine's own KV pricing so it tracks the model geometry.
pub fn budget() -> u64 {
    let cfg = decode_heavy_traffic(1, 0, ArrivalModel::Poisson { rate_per_s: 1.0 });
    let worst_tokens = cfg.prompt_tokens.1 + cfg.new_tokens.1;
    let probe = Server::new(
        AccelConfig::kv260(),
        &ModelConfig::tiny_llama_1_1b(),
        ServerConfig::continuous(CTX_CAPACITY, SLOTS),
    )
    .expect("TinyLlama-1.1B fits the 4GB device");
    WORST_CASE_SEQS
        * probe
            .engine()
            .image()
            .page_rounded_request_bytes(worst_tokens, PAGE_TOKENS)
}

/// Serves `trace` against `budget` with paged admission (`paged`) or
/// worst-case reservation; returns the report and the engine's snapshot.
pub fn run(paged: bool, budget: u64, trace: &[Request]) -> (ServeReport, Snapshot) {
    let mut cfg = ServerConfig::continuous(CTX_CAPACITY, SLOTS);
    if paged {
        cfg = cfg.paged(PagedConfig {
            page_tokens: PAGE_TOKENS,
            ..PagedConfig::default()
        });
    }
    cfg.kv_budget_bytes = Some(budget);
    cfg.queue_cap = QUEUE_CAP;
    let mut server = Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
        .expect("image fits");
    let report = server.run(trace);
    (report, server.engine().metrics_snapshot())
}

/// Peak concurrent users of the paged run per worst-case user.
pub fn users_uplift(paged: &ServeReport, worst_case: &ServeReport) -> f64 {
    paged.concurrent_peak as f64 / worst_case.concurrent_peak.max(1) as f64
}
