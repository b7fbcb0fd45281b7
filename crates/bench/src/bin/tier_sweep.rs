//! Tiered-weight sweep: decode throughput vs DDR weight budget when the
//! model streams its layers from flash through a DDR-resident cache.
//!
//! For 7B- and 13B-shape models on both memory systems (KV260
//! DDR4-2400 and the LPDDR5-6400 swap), the budget is swept from
//! "everything resident" down to ~1.5 layers, under both prefetch
//! policies: the schedule-aware pin/stream planner and the blind
//! LRU + fixed-lookahead strawman. The 7B/DDR4 part additionally runs
//! every sub-full budget on both flash presets (eMMC HS400 and NVMe
//! Gen3 x2) so the link-speed sensitivity is visible on one part; the
//! other parts stream from NVMe. The 13B parts add the `board4g`
//! point — the budget left for layer weights after everything else
//! claims its share of a real 4 GiB board.
//!
//! The budget points, the run and the steady-state accounting are
//! [`zllm_bench::scenario::tiered`]'s, so five rows of this sweep are the
//! points `perf_gate` gates under the `tiered.*` keys: 13B/DDR4-2400
//! `all`, `cover` and `board4g` on NVMe (schedule-aware), and
//! 7B/DDR4-2400 `thrash` on eMMC under both policies. The sweep is fully
//! deterministic and takes no seed.
//!
//! ```text
//! cargo run --release -p zllm-bench --bin tier_sweep
//! cargo run --release -p zllm-bench --bin tier_sweep -- --json out.json
//! ```

use zllm_accel::{AccelConfig, TierConfig};
use zllm_bench::scenario::tiered::{self, Geometry};
use zllm_bench::{cli_value_arg, fmt_mib, json_report, print_table, JsonField};
use zllm_ddr::FlashConfig;
use zllm_model::ModelConfig;

struct Row {
    part: &'static str,
    model: &'static str,
    flash: &'static str,
    budget: &'static str,
    policy: &'static str,
    run: tiered::Run,
}

/// A flash preset by name.
type Flash = (&'static str, fn() -> FlashConfig);
const EMMC: Flash = ("emmc", FlashConfig::emmc_hs400);
const NVME: Flash = ("nvme", FlashConfig::nvme_gen3);

/// A prefetch policy by name.
type Policy = (&'static str, fn(FlashConfig, u64) -> TierConfig);
/// The schedule-aware pin/stream planner and the blind LRU strawman.
const POLICIES: [Policy; 2] = [
    ("aware", TierConfig::schedule_aware),
    ("blind", TierConfig::blind_lru),
];

fn sweep(
    part: &'static str,
    model_name: &'static str,
    model: &ModelConfig,
    accel: &AccelConfig,
    flashes: &[Flash],
    runs: &mut Vec<Row>,
) {
    let geometry = Geometry::of(accel, model);
    println!(
        "{part} — {} layers × {}, non-layer residency {}\n",
        geometry.n_layers,
        fmt_mib(geometry.layer_bytes as f64),
        fmt_mib(geometry.non_layer_bytes as f64),
    );
    let mut rows = Vec::new();
    for (label, budget_bytes) in geometry.budgets() {
        // The full budget fetches nothing, so the flash preset cannot
        // matter; sweep presets only where there is flash traffic.
        let flashes = if label == "all" {
            &flashes[..1]
        } else {
            flashes
        };
        for &(flash, preset) in flashes {
            for (policy, tier) in POLICIES {
                let run = tiered::run(accel, model, tier(preset(), budget_bytes));
                let r = &run.report;
                rows.push(vec![
                    label.to_string(),
                    format!("{}", r.capacity_layers),
                    flash.to_string(),
                    policy.to_string(),
                    format!("{:.3}", run.tokens_per_s),
                    format!("{:.1}", run.stall_ns / 1e6),
                    fmt_mib(r.flash_bytes as f64),
                    format!("{}", r.demand_misses),
                    format!("{}", r.late_prefetches),
                    format!("{}", r.prefetch_wasted),
                    fmt_mib(run.physical_bytes as f64),
                ]);
                runs.push(Row {
                    part,
                    model: model_name,
                    flash,
                    budget: label,
                    policy,
                    run,
                });
            }
        }
    }
    print_table(
        &[
            "budget", "cap", "flash", "policy", "tok/s", "stall ms", "flash io", "demand", "late",
            "wasted", "phys",
        ],
        &rows,
    );
    println!();
}

fn to_json(runs: &[Row]) -> String {
    use JsonField::{Fixed3, Fixed6, Str, UInt};
    let rows: Vec<Vec<(&str, JsonField)>> = runs
        .iter()
        .map(|row| {
            let (run, r) = (&row.run, &row.run.report);
            vec![
                ("part", Str(row.part.to_string())),
                ("model", Str(row.model.to_string())),
                ("flash", Str(row.flash.to_string())),
                ("budget", Str(row.budget.to_string())),
                ("policy", Str(row.policy.to_string())),
                ("budget_bytes", UInt(r.budget_bytes)),
                ("capacity_layers", UInt(r.capacity_layers as u64)),
                ("physical_bytes", UInt(run.physical_bytes)),
                ("tokens_per_s", Fixed6(run.tokens_per_s)),
                ("stall_ms", Fixed3(run.stall_ns / 1e6)),
                ("staging_ddr_ms", Fixed3(run.staging_ns / 1e6)),
                ("flash_bytes", UInt(r.flash_bytes)),
                ("flash_reads", UInt(r.flash_reads)),
                ("hits", UInt(r.hits)),
                ("demand_misses", UInt(r.demand_misses)),
                ("late_prefetches", UInt(r.late_prefetches)),
                ("prefetch_issued", UInt(r.prefetch_issued)),
                ("prefetch_wasted", UInt(r.prefetch_wasted)),
                ("evictions", UInt(r.evictions)),
            ]
        })
        .collect();
    json_report(&rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = cli_value_arg("tier_sweep", &args, "--json");

    let ddr4 = AccelConfig::kv260();
    let mut lpddr5 = AccelConfig::kv260();
    lpddr5.ddr = zllm_ddr::DdrConfig::lpddr5_6400_embedded();

    let (m7, m13) = (ModelConfig::llama2_7b(), ModelConfig::llama2_13b());
    let parts: [(_, _, _, _, &[Flash]); 4] = [
        ("7b-ddr4-2400", "llama2-7b", &m7, &ddr4, &[EMMC, NVME]),
        ("7b-lpddr5-6400", "llama2-7b", &m7, &lpddr5, &[NVME]),
        ("13b-ddr4-2400", "llama2-13b", &m13, &ddr4, &[NVME]),
        ("13b-lpddr5-6400", "llama2-13b", &m13, &lpddr5, &[NVME]),
    ];
    let mut runs = Vec::new();
    for (part, model_name, model, accel, flashes) in parts {
        sweep(part, model_name, model, accel, flashes, &mut runs);
    }

    if let Some(path) = &json_path {
        std::fs::write(path, to_json(&runs)).expect("write tier_sweep JSON");
        println!("tier_sweep: report written to {path}");
    }
}
