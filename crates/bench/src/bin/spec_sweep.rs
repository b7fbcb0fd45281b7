//! Speculative-decoding sweep: tok/s uplift and bytes per committed
//! token vs the non-speculative baseline, across accept rate and draft
//! window size.
//!
//! Embedded decode is bandwidth-bound — one full weight stream prices
//! one token — so the remaining lever is spending the same bytes on
//! more tokens. A verify window drafts `K` cheap tokens and verifies
//! all `K + 1` positions in one weight stream; at accept rate α it
//! commits `E[committed] = (1 − α^(K+1)) / (1 − α)` tokens for roughly
//! one token's weight traffic plus the per-position KV streams and a
//! flat draft cost.
//!
//! The sweep prices TinyLlama-1.1B generations (a fixed committed-token
//! budget from a fixed starting context) over α ∈ {0.5, 0.65, 0.8,
//! 0.95} × K ∈ {2, 4, 8} on two memory systems — the KV260's DDR4-2400
//! and the LPDDR5-6400 swap — using the lanes-widened engine
//! ([`zllm_bench::spec_accel`]): the stock KV260 is exactly
//! compute/bandwidth balanced, so verify fanout there costs exactly the
//! cycles it saves. One stock-engine reference row at the
//! representative (α = 0.8, K = 4) point documents that loss: its
//! uplift must stay below 1, which is why speculation is pointless
//! without compute headroom. Acceptance draws are seeded (`--seed`
//! replays a different acceptance path); everything else is
//! deterministic.
//!
//! The generation, its constants and the uplift threshold are
//! [`zllm_bench::scenario::spec`]'s, so the representative row is the
//! point `perf_gate` gates under the `spec.*` keys in
//! `bench/baseline.json`.
//!
//! ```text
//! cargo run --release -p zllm-bench --bin spec_sweep
//! cargo run --release -p zllm-bench --bin spec_sweep -- --json out.json --seed 7
//! ```

use zllm_accel::AccelConfig;
use zllm_bench::scenario::spec::{
    self, ALPHA, DRAFT_NS_PER_TOKEN, K, MIN_UPLIFT, SEED, START_CTX, TOKENS,
};
use zllm_bench::{cli_seed_arg, cli_value_arg, json_report, print_table, spec_accel, JsonField};

/// Accept rates swept.
const ALPHAS: [f64; 4] = [0.5, 0.65, 0.8, 0.95];
/// Draft window sizes swept.
const KS: [usize; 3] = [2, 4, 8];

struct Row {
    part: &'static str,
    alpha: f64,
    k: usize,
    run: spec::Run,
}

impl Row {
    fn new(part: &'static str, accel: &AccelConfig, alpha: f64, k: usize, seed: u64) -> Row {
        let run = spec::run(accel, alpha, k, seed);
        Row {
            part,
            alpha,
            k,
            run,
        }
    }
    fn uplift(&self) -> f64 {
        self.run.uplift()
    }
    fn bytes_per_token(&self) -> f64 {
        self.run.spec_bytes as f64 / TOKENS as f64
    }
    fn base_bytes_per_token(&self) -> f64 {
        self.run.base_bytes as f64 / TOKENS as f64
    }
}

fn to_json(runs: &[Row]) -> String {
    use JsonField::{Fixed3, Fixed6, Num, Str, UInt};
    let rows: Vec<Vec<(&str, JsonField)>> = runs
        .iter()
        .map(|r| {
            vec![
                ("part", Str(r.part.to_string())),
                ("alpha", Num(r.alpha)),
                ("k", UInt(r.k as u64)),
                ("windows", UInt(r.run.windows)),
                ("drafted", UInt(r.run.drafted)),
                ("accepted", UInt(r.run.accepted)),
                ("committed", UInt(TOKENS as u64)),
                ("spec_wall_ms", Fixed3(r.run.spec_wall_ns / 1e6)),
                ("base_wall_ms", Fixed3(r.run.base_wall_ns / 1e6)),
                ("uplift", Fixed6(r.uplift())),
                ("bytes_per_committed_token", Fixed3(r.bytes_per_token())),
                ("base_bytes_per_token", Fixed3(r.base_bytes_per_token())),
                (
                    "spec_tokens_per_s",
                    Fixed6(TOKENS as f64 * 1e9 / r.run.spec_wall_ns),
                ),
                (
                    "base_tokens_per_s",
                    Fixed6(TOKENS as f64 * 1e9 / r.run.base_wall_ns),
                ),
            ]
        })
        .collect();
    json_report(&rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = cli_value_arg("spec_sweep", &args, "--json");
    let seed = cli_seed_arg("spec_sweep", &args, SEED);

    let ddr4 = spec_accel();
    let mut lpddr5 = spec_accel();
    lpddr5.ddr = zllm_ddr::DdrConfig::lpddr5_6400_embedded();
    let parts: [(&'static str, &AccelConfig); 2] =
        [("spec-ddr4-2400", &ddr4), ("spec-lpddr5-6400", &lpddr5)];

    println!(
        "Speculative decoding on the lanes-widened KV260: {TOKENS} committed tokens\n\
         from ctx {START_CTX}, TinyLlama-1.1B, flat draft {:.1} ms/token, seed {seed}\n",
        DRAFT_NS_PER_TOKEN / 1e6
    );

    let mut runs = Vec::new();
    for (part, accel) in parts {
        for alpha in ALPHAS {
            for k in KS {
                runs.push(Row::new(part, accel, alpha, k, seed));
            }
        }
    }
    // The reference row: the stock, exactly balanced KV260 at the
    // representative point — where speculation loses.
    let balanced = Row::new("balanced-kv260", &AccelConfig::kv260(), ALPHA, K, seed);
    runs.push(balanced);

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.part.to_owned(),
                format!("{:.2}", r.alpha),
                format!("{}", r.k),
                format!("{}", r.run.windows),
                format!("{}/{}", r.run.accepted, r.run.drafted),
                format!("{:.2}x", r.uplift()),
                format!("{:.1}", r.bytes_per_token() / 1e6),
                format!("{:.1}", r.base_bytes_per_token() / 1e6),
                format!("{:.2}", TOKENS as f64 * 1e9 / r.run.spec_wall_ns),
                format!("{:.2}", TOKENS as f64 * 1e9 / r.run.base_wall_ns),
            ]
        })
        .collect();
    print_table(
        &[
            "part",
            "alpha",
            "K",
            "windows",
            "acc/drafted",
            "uplift",
            "MB/tok",
            "base MB/tok",
            "tok/s",
            "base tok/s",
        ],
        &rows,
    );
    println!();

    let find = |part: &str, alpha: f64, k: usize| {
        runs.iter()
            .find(|r| r.part == part && r.alpha == alpha && r.k == k)
            .expect("swept point")
    };
    // The headline gate: the representative point on DDR4-2400 must
    // clear the tentpole's uplift. A weight stream amortized across the
    // accepted prefix buys more tokens per byte, and that must survive
    // the per-position KV streams and the draft cost.
    let gate = find("spec-ddr4-2400", ALPHA, K);
    let uplift = gate.uplift();
    assert!(
        uplift >= MIN_UPLIFT,
        "speculation sustained {uplift:.2}x at alpha={ALPHA}, K={K} on DDR4-2400; \
         the tentpole claims >= {MIN_UPLIFT}x"
    );
    // Speculation spends fewer bytes per committed token than the
    // sequential baseline at the representative point.
    assert!(
        gate.bytes_per_token() < gate.base_bytes_per_token(),
        "verify windows must amortize the weight stream: {:.1} vs {:.1} MB/token",
        gate.bytes_per_token() / 1e6,
        gate.base_bytes_per_token() / 1e6
    );
    // More acceptance means more uplift: the sweep's α axis is the
    // accept-rate sensitivity the docs tabulate.
    for (part, _) in parts {
        let low = find(part, ALPHAS[0], K).uplift();
        let high = find(part, *ALPHAS.last().expect("nonempty"), K).uplift();
        assert!(
            high > low,
            "{part}: uplift must grow with accept rate ({low:.2}x at {} vs {high:.2}x at {})",
            ALPHAS[0],
            ALPHAS.last().expect("nonempty")
        );
    }
    // Where speculation loses: the stock KV260 is exactly balanced, so
    // the verify fanout costs as many cycles as the amortization saves
    // and the draft cost makes it a strict loss.
    let balanced = runs.last().expect("reference row");
    assert!(
        balanced.uplift() < 1.0,
        "the balanced engine cannot profit from speculation, got {:.2}x",
        balanced.uplift()
    );
    println!(
        "gate point (alpha={ALPHA}, K={K}, DDR4-2400): {uplift:.2}x uplift, \
         {:.1} vs {:.1} MB per committed token; balanced reference {:.2}x",
        gate.bytes_per_token() / 1e6,
        gate.base_bytes_per_token() / 1e6,
        balanced.uplift()
    );

    if let Some(path) = &json_path {
        std::fs::write(path, to_json(&runs)).expect("write spec_sweep JSON");
        eprintln!("spec_sweep: report written to {path}");
    }
}
