//! Compression-aware memory controller sweep: tok/s uplift from inline
//! (de)compression in the DDR pipeline, across compression ratio ×
//! stream kind × memory part.
//!
//! Decode is bandwidth-bound, so a burst that crosses the bus at its
//! compressed size is a direct effective-bandwidth multiplier: the
//! controller moves `ceil(logical / ratio)` beats, decompresses at line
//! rate beside the PHY (fixed pipe latency + throughput cap), and
//! charges page-map metadata beats for the compressed page table. The
//! sweep prices TinyLlama-1.1B generations twice — through an engine
//! with [`zllm_accel::EngineConfig::compression`] set and through a
//! plain twin — on two memory systems (the KV260's DDR4-2400 and the
//! LPDDR5-6400 swap), using the PL-overclocked engine
//! ([`zllm_bench::comp_accel`]): the stock KV260 consumes exactly one
//! logical beat per 300 MHz cycle — balanced against DDR4-2400 — so
//! saved wire beats there only lower a memory time the consumer already
//! floors. One stock-engine reference row documents that, and on
//! LPDDR5-6400 even the overclocked consumer saturates, which is why
//! the faster part shows smaller (ratio-independent) uplifts.
//!
//! Two kinds of points are swept:
//!
//! * an **idealized grid** — each stream kind (weight / KV / activation
//!   / all) alone at ratios 1.25 / 1.5 / 2.0, plus a ratio-1.0 row that
//!   must price bit-identically to the plain twin;
//! * the **entropy-measured point** — the honest ratios
//!   [`zllm_quant::entropy::measured_stream_ratios`] reports for the
//!   4-bit group-quantized weight stream, KV8 cache lines and FP16
//!   activations (order-0 page entropy scaled by the achievable
//!   fraction of an FSE/LZ-class hardware codec).
//!
//! The generation, the plain twin, the identity check and the uplift
//! threshold are [`zllm_bench::scenario::comp`]'s, so the measured
//! DDR4-2400 row is the point `perf_gate` gates under the `comp.*` keys
//! in `bench/baseline.json`.
//!
//! ```text
//! cargo run --release -p zllm-bench --bin compress_sweep
//! cargo run --release -p zllm-bench --bin compress_sweep -- --json out.json --seed 7
//! ```

use zllm_accel::AccelConfig;
use zllm_bench::scenario::comp::{self, MIN_UPLIFT, SEED, START_CTX, TOKENS};
use zllm_bench::{cli_seed_arg, cli_value_arg, comp_accel, json_report, print_table, JsonField};
use zllm_quant::entropy::measured_stream_ratios;

/// Idealized compression ratios swept per stream kind.
const GRID: [f64; 3] = [1.25, 1.5, 2.0];

struct Row {
    part: &'static str,
    /// Which stream kinds carry the ratio: `weight`, `kv`,
    /// `activation`, `all`, `identity` or `measured`.
    kind: &'static str,
    ratio_weight: f64,
    ratio_kv: f64,
    ratio_activation: f64,
    run: comp::Run,
    base_wall_ns: f64,
    base_bytes: u64,
}

impl Row {
    /// Prices the generation through the compression stage at `ratios`
    /// against the part's `plain` twin. An identity row must price
    /// byte-invisibly: the same wall bit for bit and the same metrics.
    fn new(
        part: &'static str,
        kind: &'static str,
        accel: &AccelConfig,
        ratios: (f64, f64, f64),
        plain: &comp::Run,
    ) -> Row {
        let run = comp::compressed(accel, ratios);
        assert!(
            kind != "identity" || run.is_invisible_against(plain),
            "{part}: the all-identity compression stage is not byte-invisible \
             (wall {} vs {})",
            run.wall_ns,
            plain.wall_ns
        );
        Row {
            part,
            kind,
            ratio_weight: ratios.0,
            ratio_kv: ratios.1,
            ratio_activation: ratios.2,
            run,
            base_wall_ns: plain.wall_ns,
            base_bytes: plain.bytes_logical,
        }
    }
    fn uplift(&self) -> f64 {
        self.base_wall_ns / self.run.wall_ns
    }
    fn wire_reduction(&self) -> f64 {
        let r = &self.run;
        r.bytes_logical as f64 / (r.bytes_wire + r.bytes_meta) as f64
    }
}

fn to_json(runs: &[Row]) -> String {
    use JsonField::{Fixed3, Fixed6, Str, UInt};
    let rows: Vec<Vec<(&str, JsonField)>> = runs
        .iter()
        .map(|r| {
            vec![
                ("part", Str(r.part.to_owned())),
                ("kind", Str(r.kind.to_owned())),
                ("ratio_weight", Fixed6(r.ratio_weight)),
                ("ratio_kv", Fixed6(r.ratio_kv)),
                ("ratio_activation", Fixed6(r.ratio_activation)),
                ("tokens", UInt(TOKENS as u64)),
                ("wall_ms", Fixed3(r.run.wall_ns / 1e6)),
                ("base_wall_ms", Fixed3(r.base_wall_ns / 1e6)),
                ("uplift", Fixed6(r.uplift())),
                ("bytes_logical", UInt(r.run.bytes_logical)),
                ("bytes_wire", UInt(r.run.bytes_wire)),
                ("bytes_meta", UInt(r.run.bytes_meta)),
                ("wire_reduction", Fixed6(r.wire_reduction())),
                ("tokens_per_s", Fixed6(TOKENS as f64 * 1e9 / r.run.wall_ns)),
                (
                    "base_tokens_per_s",
                    Fixed6(TOKENS as f64 * 1e9 / r.base_wall_ns),
                ),
            ]
        })
        .collect();
    json_report(&rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = cli_value_arg("compress_sweep", &args, "--json");
    let seed = cli_seed_arg("compress_sweep", &args, SEED);

    let measured = measured_stream_ratios(seed);
    let m = comp::achievable(&measured);
    println!(
        "Inline DDR (de)compression on the PL-overclocked KV260: {TOKENS} tokens from ctx \
         {START_CTX},\nTinyLlama-1.1B, seed {seed}. Entropy-measured ratios (page order-0 x \
         achievable fraction):\n  weight {:.3}x (H = {:.3} b/B), kv {:.3}x (H = {:.3} b/B), \
         activation {:.3}x (H = {:.3} b/B)\n",
        m.0,
        measured.weight.entropy_bits_per_byte,
        m.1,
        measured.kv.entropy_bits_per_byte,
        m.2,
        measured.activation.entropy_bits_per_byte,
    );

    let ddr4 = comp_accel();
    let mut lpddr5 = comp_accel();
    lpddr5.ddr = zllm_ddr::DdrConfig::lpddr5_6400_embedded();
    let parts: [(&'static str, &AccelConfig); 2] =
        [("comp-ddr4-2400", &ddr4), ("comp-lpddr5-6400", &lpddr5)];

    let mut runs = Vec::new();
    for (part, accel) in parts {
        let plain = comp::plain(accel);
        // The ratio-1.0 row: the compression stage must vanish.
        runs.push(Row::new(part, "identity", accel, (1.0, 1.0, 1.0), &plain));
        for r in GRID {
            runs.push(Row::new(part, "weight", accel, (r, 1.0, 1.0), &plain));
            runs.push(Row::new(part, "kv", accel, (1.0, r, 1.0), &plain));
            runs.push(Row::new(part, "activation", accel, (1.0, 1.0, r), &plain));
            runs.push(Row::new(part, "all", accel, (r, r, r), &plain));
        }
        // The honest point: what the measured stream entropy buys.
        runs.push(Row::new(part, "measured", accel, m, &plain));
    }
    // The reference row: the stock, exactly balanced KV260 at the
    // measured point — where saved wire beats buy nothing because
    // compute already floors the step.
    let balanced_accel = AccelConfig::kv260();
    let balanced_plain = comp::plain(&balanced_accel);
    runs.push(Row::new(
        "balanced-kv260",
        "measured",
        &balanced_accel,
        m,
        &balanced_plain,
    ));

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.part.to_owned(),
                r.kind.to_owned(),
                format!(
                    "{:.2}/{:.2}/{:.2}",
                    r.ratio_weight, r.ratio_kv, r.ratio_activation
                ),
                format!("{:.3}x", r.uplift()),
                format!("{:.3}x", r.wire_reduction()),
                format!(
                    "{:.1}",
                    (r.run.bytes_wire + r.run.bytes_meta) as f64 / TOKENS as f64 / 1e6
                ),
                format!("{:.2}", TOKENS as f64 * 1e9 / r.run.wall_ns),
                format!("{:.2}", TOKENS as f64 * 1e9 / r.base_wall_ns),
            ]
        })
        .collect();
    print_table(
        &[
            "part",
            "kind",
            "w/kv/act",
            "uplift",
            "wire shrink",
            "MB/tok",
            "tok/s",
            "base tok/s",
        ],
        &rows,
    );
    println!();

    let find = |part: &str, kind: &str, w: f64| {
        runs.iter()
            .find(|r| r.part == part && r.kind == kind && r.ratio_weight == w)
            .expect("swept point")
    };
    // The headline gate: the entropy-measured point on DDR4-2400 must
    // clear the tentpole's effective-bandwidth uplift.
    let gate = find("comp-ddr4-2400", "measured", m.0);
    let uplift = gate.uplift();
    let gate_run = &gate.run;
    assert!(
        uplift >= MIN_UPLIFT,
        "measured-ratio compression sustained {uplift:.3}x on DDR4-2400; \
         the tentpole claims >= {MIN_UPLIFT}x"
    );
    assert!(
        gate_run.bytes_wire + gate_run.bytes_meta < gate_run.bytes_logical,
        "compressed traffic (wire + metadata) must undercut logical bytes"
    );
    assert!(
        gate_run.bytes_meta > 0,
        "compressed weight traffic must charge page-map metadata beats"
    );
    for r in &runs {
        // Identity rows are the compression-off twin, bit for bit: the
        // stage must add no beats, no metadata and no stall.
        if r.kind == "identity" {
            let run = &r.run;
            assert!(
                r.uplift() == 1.0 && run.bytes_wire == run.bytes_logical && run.bytes_meta == 0,
                "{}: ratio-1.0 must price bit-identically to the plain engine \
                 (uplift {:.6}, wire {} vs logical {}, meta {})",
                r.part,
                r.uplift(),
                run.bytes_wire,
                run.bytes_logical,
                run.bytes_meta
            );
            assert!(
                run.bytes_logical == r.base_bytes,
                "{}: the stage's logical bytes must equal the plain engine's traffic",
                r.part
            );
        }
        // No point may lose tok/s beyond decompressor-latency noise:
        // the stage is pricing-only and its stall is bounded by the
        // fixed pipe latency per step.
        assert!(
            r.uplift() >= 0.999,
            "{} {}: compression must never cost tok/s, got {:.6}x",
            r.part,
            r.kind,
            r.uplift()
        );
    }
    // More ratio, more uplift: weights dominate decode traffic, so the
    // weight axis (and the all-kinds axis) must be strictly monotone on
    // the bandwidth-bound DDR4 part. On LPDDR5-6400 the overclocked
    // consumer saturates below the grid's ratios, so the axis is only
    // non-decreasing there — and must visibly cap below the DDR4 gain.
    for kind in ["weight", "all"] {
        for pair in GRID.windows(2) {
            let (lo, hi) = (
                find("comp-ddr4-2400", kind, pair[0]),
                find("comp-ddr4-2400", kind, pair[1]),
            );
            assert!(
                hi.uplift() > lo.uplift(),
                "comp-ddr4-2400 {kind}: uplift must grow with ratio \
                 ({:.3}x at {} vs {:.3}x at {})",
                lo.uplift(),
                pair[0],
                hi.uplift(),
                pair[1]
            );
            let (lo, hi) = (
                find("comp-lpddr5-6400", kind, pair[0]),
                find("comp-lpddr5-6400", kind, pair[1]),
            );
            assert!(
                hi.uplift() >= lo.uplift(),
                "comp-lpddr5-6400 {kind}: uplift must not shrink with ratio \
                 ({:.3}x at {} vs {:.3}x at {})",
                lo.uplift(),
                pair[0],
                hi.uplift(),
                pair[1]
            );
        }
    }
    let lp_gate = find("comp-lpddr5-6400", "measured", m.0);
    assert!(
        lp_gate.uplift() < uplift,
        "the faster part must saturate on the consume side: LPDDR5 {:.3}x vs DDR4 {uplift:.3}x",
        lp_gate.uplift()
    );
    // Where compression loses: the stock KV260's consumer is exactly
    // balanced against DDR4, so the shrunk memory time hides under the
    // compute floor and only the few-percent bandwidth headroom shows.
    let balanced = runs.last().expect("reference row");
    assert!(
        balanced.uplift() < MIN_UPLIFT && balanced.uplift() <= 1.05,
        "the balanced engine's compute floor must cap the gain near 1x, got {:.3}x",
        balanced.uplift()
    );
    println!(
        "gate point (measured ratios, DDR4-2400): {uplift:.3}x uplift, {:.3}x wire shrink \
         ({} -> {} + {} meta bytes); balanced reference {:.3}x",
        gate.wire_reduction(),
        gate_run.bytes_logical,
        gate_run.bytes_wire,
        gate_run.bytes_meta,
        balanced.uplift()
    );

    if let Some(path) = &json_path {
        std::fs::write(path, to_json(&runs)).expect("write compress_sweep JSON");
        eprintln!("compress_sweep: report written to {path}");
    }
}
