//! The performance-regression gate run by CI.
//!
//! One table, [`SCENARIOS`], lists every gated scenario, and one loop
//! runs its rows in order. For each row the loop times the run, fails
//! the gate if one of the row's hard checks does not hold, prints the
//! row's summary and host figures, and merges the row's metrics under
//! the row's name. The merged snapshot is then diffed against the
//! committed baseline (`bench/baseline.json`).
//!
//! | row | prices | hard checks |
//! |---|---|---|
//! | `single` | LLaMA2-7B, one token at each context 64→512 | — |
//! | `batch4` | LLaMA2-7B, four sequences per step | weight-stream amortization |
//! | `serve` | a bursty trace through the continuous-batching server | — |
//! | `paged` | [`zllm_bench::scenario::paged`] | concurrent-user uplift |
//! | `tiered` | [`zllm_bench::scenario::tiered`] | cover loss, thrash uplift, 4 GiB board |
//! | `spec` | [`zllm_bench::scenario::spec`] | tok/s uplift |
//! | `comp` | [`zllm_bench::scenario::comp`] | tok/s uplift, identity invisibility |
//!
//! The four `scenario` rows run the same code, constants and thresholds
//! as their sweeps (`paged_sweep`, `tier_sweep`, `spec_sweep`,
//! `compress_sweep`), so a gated point and its sweep row cannot drift
//! apart. `single` keys are unprefixed, exactly as in pre-batching
//! baselines (a batched engine at B = 1 must reproduce them byte for
//! byte); every other row's keys land under `<name>.` unless the engine
//! already published them there, and the paged server's own
//! `serve.paged.*` keys flatten to `paged.*`. Each cross-run comparison
//! a check enforces is pinned as a key too (`paged.admission.*`,
//! `tiered.{allres,cover,thrash,board4g}.*`, `spec.uplift`,
//! `comp.uplift`).
//!
//! Byte and cycle counters must match exactly (the simulation is
//! deterministic); derived rates (gauges) get ±2% to absorb intentional
//! re-tuning of unrelated constants.
//!
//! ```text
//! cargo run -p zllm-bench --bin perf_gate            # gate (exit 1 on drift)
//! cargo run -p zllm-bench --bin perf_gate -- --bless # re-record the baseline
//! cargo run -p zllm-bench --bin perf_gate -- --print # dump the snapshot JSON
//! cargo run -p zllm-bench --bin perf_gate -- --list  # print scenario names
//! cargo run -p zllm-bench --bin perf_gate -- --only tiered
//!                                            # gate one scenario's keys only
//! cargo run -p zllm-bench --bin perf_gate -- --host-metrics-json out.json
//!                                            # also write host wall/throughput
//! ```
//!
//! Exit codes: 0 = within tolerance, 1 = regression or failed check,
//! 2 = missing/unreadable baseline or bad usage.

use std::path::PathBuf;
use zllm_accel::telemetry::{DiffStatus, MetricKind, Snapshot};
use zllm_accel::{AccelConfig, DecodeEngine, TierConfig};
use zllm_bench::scenario::tiered::{self, BOARD_BYTES, MAX_COVER_LOSS};
use zllm_bench::scenario::{comp, paged, spec};
use zllm_bench::{cli_value_arg, comp_accel, print_table, spec_accel};
use zllm_ddr::FlashConfig;
use zllm_model::ModelConfig;
use zllm_quant::entropy::measured_stream_ratios;
use zllm_serve::{generate, ArrivalModel, Server, ServerConfig, TrafficConfig};

/// Context lengths priced by the single-sequence scenario.
const CONTEXTS: [usize; 4] = [64, 128, 256, 512];

/// Concurrent sequences in the batched scenario.
const BATCH: usize = 4;
/// Per-sequence KV provisioning of the batched scenario (tokens).
const BATCH_CTX_CAPACITY: usize = 256;
/// Context lengths priced by the batched scenario.
const BATCH_CONTEXTS: [usize; 3] = [64, 128, 192];
/// Weight-stream amortization the B = 4 scenario must exceed.
const MIN_AMORTIZATION: f64 = 3.0;

/// Requests in the serving-scenario trace.
const SERVE_REQUESTS: usize = 64;
/// Serving trace seed.
const SERVE_SEED: u64 = 1187;
/// Serving offered load (requests per second, in bursts of 8).
const SERVE_RATE: f64 = 1.0;
/// Serving KV slots.
const SERVE_SLOTS: usize = 4;
/// Serving per-sequence context provisioning (tokens).
const SERVE_CTX_CAPACITY: usize = 256;

/// Relative tolerance for derived rates (gauges).
const GAUGE_TOLERANCE: f64 = 0.02;

/// One gated scenario: its `--list`/`--only` name (also its key
/// prefix), the prefix of its `--host-metrics-json` fields, and its run.
struct Scenario(&'static str, &'static str, fn() -> Outcome);

/// What a row's run hands back to the loop.
struct Outcome {
    /// The engine's metrics plus the row's cross-run keys.
    snap: Snapshot,
    /// What the row measured, one line each; a line whose flag is false
    /// is a failed hard check.
    lines: Vec<(bool, String)>,
    /// The row's `--host-metrics-json` fields after its wall time.
    host: Vec<(&'static str, Host)>,
}

/// A `--host-metrics-json` value.
enum Host {
    /// A rate or ratio.
    Num(f64),
    /// A count.
    Count(u64),
    /// Simulated GB, reported per host second of the row's run.
    GbPerHostS(f64),
}

impl Host {
    fn render(&self, wall_s: f64) -> String {
        match *self {
            Host::Num(v) => format!("{v:.6}"),
            Host::Count(v) => v.to_string(),
            Host::GbPerHostS(gb) => format!("{:.6}", gb / wall_s.max(1e-9)),
        }
    }
}

/// The gated scenarios, in run order.
const SCENARIOS: [Scenario; 7] = [
    Scenario(UNPREFIXED, "", single),
    Scenario("batch4", "batch_", batch4),
    Scenario("serve", "serve_", serve),
    Scenario("paged", "paged_", paged_row),
    Scenario("tiered", "tiered_", tiered_row),
    Scenario("spec", "spec_", spec_row),
    Scenario("comp", "comp_", comp_row),
];

/// The row whose keys stay unprefixed.
const UNPREFIXED: &str = "single";

/// Whether `key` sits under `name.`.
fn under(key: &str, name: &str) -> bool {
    key.strip_prefix(name)
        .is_some_and(|rest| rest.starts_with('.'))
}

/// The scenario a metric key belongs to, by prefix; the unprefixed
/// remainder is `single`'s.
fn scenario_of(key: &str) -> &'static str {
    SCENARIOS
        .iter()
        .map(|s| s.0)
        .find(|name| under(key, name))
        .unwrap_or(UNPREFIXED)
}

/// Where row `name`'s metric `key` lands in the merged snapshot.
/// `single`'s keys stay as published. Every other row's keys go under
/// `<name>.` unless already there, and a server's own `serve.<name>.*`
/// keys (the paged server's preemption and concurrency counters)
/// flatten to `<name>.*`.
fn merged_key(name: &str, key: &str) -> String {
    let key = key
        .strip_prefix("serve.")
        .filter(|rest| under(rest, name))
        .unwrap_or(key);
    if name == UNPREFIXED || under(key, name) {
        key.to_owned()
    } else {
        format!("{name}.{key}")
    }
}

fn simulated_gb(snap: &Snapshot) -> f64 {
    snap.counter("decode.bytes").unwrap_or(0) as f64 / 1e9
}

fn single() -> Outcome {
    let mut engine = DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::llama2_7b(), 1024)
        .expect("LLaMA2-7B fits the 4GB device");
    for ctx in CONTEXTS {
        engine.decode_token(ctx);
    }
    let snap = engine.metrics_snapshot();
    let gb = simulated_gb(&snap);
    Outcome {
        snap,
        lines: vec![(
            true,
            format!("LLaMA2-7B decode at ctx {CONTEXTS:?}, {gb:.2} GB simulated"),
        )],
        host: vec![
            ("simulated_gb", Host::Num(gb)),
            ("simulated_gb_per_host_s", Host::GbPerHostS(gb)),
        ],
    }
}

/// Batching exists to pay the dense weight stream once, so the
/// amortization is a hard check, not just a baseline diff.
fn batch4() -> Outcome {
    let mut engine = DecodeEngine::new_batched(
        AccelConfig::kv260(),
        &ModelConfig::llama2_7b(),
        BATCH_CTX_CAPACITY,
        BATCH,
    )
    .expect("LLaMA2-7B with 4 KV provisions fits the 4GB device");
    let mut min_amortization = f64::INFINITY;
    for ctx in BATCH_CONTEXTS {
        let r = engine.decode_token_batch(ctx, BATCH);
        min_amortization = min_amortization.min(r.weight_amortization);
    }
    let snap = engine.metrics_snapshot();
    let gb = simulated_gb(&snap);
    Outcome {
        snap,
        lines: vec![(
            min_amortization > MIN_AMORTIZATION,
            format!(
                "B = {BATCH} weight-stream amortization {min_amortization:.3}x at ctx \
                 {BATCH_CONTEXTS:?} (> {MIN_AMORTIZATION:.1}x required), {gb:.2} GB simulated"
            ),
        )],
        host: vec![
            ("simulated_gb", Host::Num(gb)),
            ("weight_amortization", Host::Num(min_amortization)),
        ],
    }
}

/// Replays the fixed serving trace; the engine snapshot includes the
/// server's own `serve.*` namespace. TinyLlama-1.1B keeps the replay
/// short: a trace is hundreds of steps where the other rows price a
/// handful.
fn serve() -> Outcome {
    let mut cfg = ServerConfig::continuous(SERVE_CTX_CAPACITY, SERVE_SLOTS);
    // Tight queue so the burst tail exercises the rejection path — the
    // gate pins the rejection counters, not just the happy path.
    cfg.queue_cap = 8;
    let mut server = Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
        .expect("TinyLlama-1.1B with 4 KV provisions fits the 4GB device");
    let trace = generate(&TrafficConfig {
        requests: SERVE_REQUESTS,
        seed: SERVE_SEED,
        arrivals: ArrivalModel::Bursty {
            rate_per_s: SERVE_RATE,
            burst: 8,
        },
        prompt_tokens: (16, 64),
        new_tokens: (4, 12),
        class_mix: [0.5, 0.3, 0.2],
        eos_early_fraction: 0.0,
    });
    let r = server.run(&trace);
    let snap = server.engine().metrics_snapshot();
    let gb = simulated_gb(&snap);
    let rejected = r.rejected_queue_full + r.rejected_infeasible;
    Outcome {
        snap,
        lines: vec![(
            true,
            format!(
                "serve {SERVE_REQUESTS} requests at {SERVE_RATE} req/s: {:.2} tok/s aggregate, \
                 {} completed / {} offered, {rejected} rejected, p95 token latency {:.1} ms",
                r.tokens_per_s, r.completed, r.offered, r.token_p95_ms
            ),
        )],
        host: vec![
            ("simulated_gb", Host::Num(gb)),
            ("tokens_per_s", Host::Num(r.tokens_per_s)),
            ("completed", Host::Count(r.completed)),
            ("rejected", Host::Count(rejected)),
        ],
    }
}

/// The paged point at its saturating rate: actual-growth charging must
/// keep lifting concurrent users per board at the same DDR budget.
fn paged_row() -> Outcome {
    let trace = paged::trace(paged::RATE, paged::SEED);
    let budget = paged::budget();
    let (pg, mut snap) = paged::run(true, budget, &trace);
    let (wc, _) = paged::run(false, budget, &trace);
    let uplift = paged::users_uplift(&pg, &wc);
    for (leaf, value) in [
        ("worstcase_concurrent_peak", wc.concurrent_peak as u64),
        ("worstcase_deadline_met", wc.deadline_met),
    ] {
        snap.counters
            .insert(format!("paged.admission.{leaf}"), value);
    }
    snap.gauges
        .insert("paged.admission.uplift".to_owned(), uplift);
    Outcome {
        snap,
        lines: vec![(
            uplift >= paged::MIN_UPLIFT,
            format!(
                "paged admission {uplift:.3}x the worst-case concurrent users ({} vs {}, >= \
                 {:.1}x required), {} vs {} requests served",
                pg.concurrent_peak,
                wc.concurrent_peak,
                paged::MIN_UPLIFT,
                pg.deadline_met,
                wc.deadline_met
            ),
        )],
        host: vec![
            ("concurrent_peak", Host::Count(pg.concurrent_peak as u64)),
            (
                "worstcase_concurrent_peak",
                Host::Count(wc.concurrent_peak as u64),
            ),
            ("uplift", Host::Num(uplift)),
        ],
    }
}

/// Five tiered runs: 13B all-resident, covering and 4 GiB-board budgets
/// on NVMe, and the 7B thrash budget on eMMC under both policies. The
/// thrash-budget schedule-aware engine (the richest tier and flash
/// counter set) is the one merged under `tiered.`.
fn tiered_row() -> Outcome {
    let accel = AccelConfig::kv260();
    let (m7, m13) = (ModelConfig::llama2_7b(), ModelConfig::llama2_13b());
    let g13 = tiered::Geometry::of(&accel, &m13);
    let nvme = |label| TierConfig::schedule_aware(FlashConfig::nvme_gen3(), g13.budget(label));
    let allres = tiered::run(&accel, &m13, nvme("all"));
    let cover = tiered::run(&accel, &m13, nvme("cover"));
    let board = tiered::run(&accel, &m13, nvme("board4g"));
    let thrash = tiered::Geometry::of(&accel, &m7).budget("thrash");
    let emmc = FlashConfig::emmc_hs400;
    let aware = tiered::run(&accel, &m7, TierConfig::schedule_aware(emmc(), thrash));
    let blind = tiered::run(&accel, &m7, TierConfig::blind_lru(emmc(), thrash));
    let cover_loss = 1.0 - cover.tokens_per_s / allres.tokens_per_s;
    let uplift = aware.tokens_per_s / blind.tokens_per_s;

    let mut snap = aware.snap;
    snap.counters.insert(
        "tiered.board4g.physical_bytes".to_owned(),
        board.physical_bytes,
    );
    for (key, value) in [
        ("allres.tokens_per_s", allres.tokens_per_s),
        ("cover.tokens_per_s", cover.tokens_per_s),
        ("cover.loss", cover_loss),
        ("thrash.aware.tokens_per_s", aware.tokens_per_s),
        ("thrash.blind.tokens_per_s", blind.tokens_per_s),
        ("thrash.uplift", uplift),
        ("board4g.tokens_per_s", board.tokens_per_s),
    ] {
        snap.gauges.insert(format!("tiered.{key}"), value);
    }
    Outcome {
        snap,
        lines: vec![
            (
                cover_loss <= MAX_COVER_LOSS,
                format!(
                    "13B covering budget loses {:.2}% tok/s vs all-resident ({:.3} vs {:.3}, \
                     ≤ {:.0}% allowed), stall {:.1} ms",
                    cover_loss * 100.0,
                    cover.tokens_per_s,
                    allres.tokens_per_s,
                    MAX_COVER_LOSS * 100.0,
                    cover.report.stall_ns / 1e6
                ),
            ),
            (
                uplift >= tiered::MIN_UPLIFT,
                format!(
                    "7B thrash budget: schedule-aware prefetch {uplift:.3}x blind LRU ({:.3} vs \
                     {:.3} tok/s, ≥ {:.1}x required)",
                    aware.tokens_per_s,
                    blind.tokens_per_s,
                    tiered::MIN_UPLIFT
                ),
            ),
            (
                board.physical_bytes <= BOARD_BYTES && board.tokens_per_s > 0.0,
                format!(
                    "13B on a 4 GiB board: {} physical bytes (≤ {BOARD_BYTES} allowed) at \
                     {:.3} tok/s",
                    board.physical_bytes, board.tokens_per_s
                ),
            ),
        ],
        host: vec![
            ("cover_loss", Host::Num(cover_loss)),
            ("thrash_uplift", Host::Num(uplift)),
            ("board4g_tokens_per_s", Host::Num(board.tokens_per_s)),
        ],
    }
}

/// The speculative point: one weight stream amortized across the
/// accepted prefix must keep multiplying bandwidth-bound tok/s.
fn spec_row() -> Outcome {
    let run = spec::run(&spec_accel(), spec::ALPHA, spec::K, spec::SEED);
    let uplift = run.uplift();
    let mut snap = run.snap;
    snap.gauges.insert("spec.uplift".to_owned(), uplift);
    Outcome {
        snap,
        lines: vec![(
            uplift >= spec::MIN_UPLIFT,
            format!(
                "speculative decode {uplift:.3}x sequential tok/s at alpha = {}, K = {} (>= \
                 {:.1}x required)",
                spec::ALPHA,
                spec::K,
                spec::MIN_UPLIFT
            ),
        )],
        host: vec![("uplift", Host::Num(uplift))],
    }
}

/// The compression point: bursts crossing the bus at compressed size
/// must keep multiplying bandwidth-bound tok/s, and an all-identity
/// stage must be invisible.
fn comp_row() -> Outcome {
    let accel = comp_accel();
    let plain = comp::plain(&accel);
    let identity = comp::compressed(&accel, (1.0, 1.0, 1.0));
    let ratios = comp::achievable(&measured_stream_ratios(comp::SEED));
    let measured = comp::compressed(&accel, ratios);
    let uplift = measured.uplift_over(&plain);
    let invisible = identity.is_invisible_against(&plain);
    let mut snap = measured.snap;
    snap.gauges.insert("comp.uplift".to_owned(), uplift);
    Outcome {
        snap,
        lines: vec![
            (
                invisible,
                format!(
                    "all-identity compression stage {} the plain engine (wall {} vs {} ns; \
                     byte-invisibility required)",
                    if invisible { "matches" } else { "differs from" },
                    identity.wall_ns,
                    plain.wall_ns
                ),
            ),
            (
                uplift >= comp::MIN_UPLIFT,
                format!(
                    "compressed decode {uplift:.3}x plain tok/s (>= {:.1}x required)",
                    comp::MIN_UPLIFT
                ),
            ),
        ],
        host: vec![("uplift", Host::Num(uplift))],
    }
}

fn fmt_value(kind: MetricKind, v: Option<f64>) -> String {
    match (kind, v) {
        (_, None) => "—".to_owned(),
        (MetricKind::Counter, Some(v)) => format!("{}", v as u64),
        (MetricKind::Gauge, Some(v)) => format!("{v:.6}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    let print = args.iter().any(|a| a == "--print");
    if args.iter().any(|a| a == "--list") {
        for Scenario(name, ..) in &SCENARIOS {
            println!("{name}");
        }
        return;
    }
    let only = cli_value_arg("perf_gate", &args, "--only");
    if let Some(o) = &only {
        if !SCENARIOS.iter().any(|s| s.0 == o) {
            eprintln!("perf gate: unknown scenario {o:?}; --list prints the choices");
            std::process::exit(2);
        }
        if bless {
            eprintln!("perf gate: --bless records every scenario; drop --only");
            std::process::exit(2);
        }
    }
    let host_metrics_path = cli_value_arg("perf gate", &args, "--host-metrics-json");
    if host_metrics_path.is_some() && only.is_some() {
        eprintln!("perf gate: --host-metrics-json needs the full run; drop --only");
        std::process::exit(2);
    }

    let mut current = Snapshot::default();
    // Host wall-clock figures: reported on stderr and in
    // `--host-metrics-json`, never in the gated (deterministic)
    // snapshot, so `--print` stdout stays pure JSON.
    let mut host_fields: Vec<(String, String)> = Vec::new();
    for &Scenario(name, host_prefix, run) in &SCENARIOS {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        eprintln!("perf gate: {name} (deterministic)...");
        let start = std::time::Instant::now();
        let out = run();
        let wall_s = start.elapsed().as_secs_f64();
        for (held, line) in &out.lines {
            let verdict = if *held { "" } else { " FAILED" };
            eprintln!("perf gate{verdict}: {line}");
        }
        if out.lines.iter().any(|(held, _)| !held) {
            std::process::exit(1);
        }
        let host: Vec<(String, String)> = std::iter::once(("wall_seconds", format!("{wall_s:.6}")))
            .chain(out.host.iter().map(|(k, v)| (*k, v.render(wall_s))))
            .map(|(k, v)| (format!("{host_prefix}{k}"), v))
            .collect();
        let line: Vec<String> = host.iter().map(|(k, v)| format!("{k} {v}")).collect();
        eprintln!("perf gate host ({name}): {}", line.join(", "));
        host_fields.extend(host);
        for (k, v) in out.snap.counters {
            current.counters.insert(merged_key(name, &k), v);
        }
        for (k, v) in out.snap.gauges {
            current.gauges.insert(merged_key(name, &k), v);
        }
    }

    // `--only` is refused above, so every scenario ran on this path.
    if let Some(path) = &host_metrics_path {
        let fields: Vec<String> = host_fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        std::fs::write(path, format!("{{\n{}\n}}\n", fields.join(",\n")))
            .expect("write host metrics JSON");
        eprintln!("perf gate host: metrics written to {path}");
    }

    if print {
        print!("{}", current.to_json());
        return;
    }

    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baseline.json"
    ));
    if bless {
        std::fs::write(&path, current.to_json()).expect("write baseline");
        eprintln!("perf gate: baseline re-blessed at {}", path.display());
        return;
    }

    let mut baseline = match std::fs::read_to_string(&path) {
        Ok(text) => match Snapshot::from_json(&text) {
            Ok(snap) => snap,
            Err(err) => {
                eprintln!("perf gate: baseline {} is malformed: {err}", path.display());
                std::process::exit(2);
            }
        },
        Err(err) => {
            eprintln!(
                "perf gate: cannot read baseline {}: {err}\n\
                 run `cargo run -p zllm-bench --bin perf_gate -- --bless` to record one",
                path.display()
            );
            std::process::exit(2);
        }
    };

    // Under `--only`, gate just that scenario's slice of the baseline;
    // `current` already holds only those keys. A valid scenario name
    // whose slice of the baseline is *empty* would gate zero keys and
    // pass vacuously (a baseline recorded before the scenario existed),
    // so that is a usage error, not a pass.
    if let Some(o) = only.as_deref() {
        baseline.counters.retain(|k, _| scenario_of(k) == o);
        baseline.gauges.retain(|k, _| scenario_of(k) == o);
        if baseline.counters.is_empty() && baseline.gauges.is_empty() {
            eprintln!(
                "perf gate: baseline {} holds no {o:?} keys — gating it would vacuously pass; \
                 re-bless the full baseline first",
                path.display()
            );
            std::process::exit(2);
        }
    }

    // Exact match for counters (byte/cycle counts of a deterministic
    // simulation); ±2% for derived rates.
    let report = baseline.compare(&current, |name| {
        if baseline.gauges.contains_key(name) || current.gauges.contains_key(name) {
            GAUGE_TOLERANCE
        } else {
            0.0
        }
    });

    let rows: Vec<Vec<String>> = report
        .diffs
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                d.kind.to_string(),
                fmt_value(d.kind, d.baseline),
                fmt_value(d.kind, d.current),
                match (d.kind, d.baseline, d.current) {
                    (MetricKind::Counter, Some(b), Some(c)) => {
                        format!("{:+}", c as i128 - b as i128)
                    }
                    (MetricKind::Gauge, Some(_), Some(_)) => {
                        format!("{:+.4}%", d.rel_delta * 100.0)
                    }
                    _ => "—".to_owned(),
                },
                format!("{:.1}%", d.tolerance * 100.0),
                match d.status {
                    DiffStatus::Ok => "ok".to_owned(),
                    DiffStatus::Regressed => "REGRESSED".to_owned(),
                    DiffStatus::Missing => "MISSING".to_owned(),
                    DiffStatus::NotInBaseline => "NOT IN BASELINE".to_owned(),
                },
            ]
        })
        .collect();
    print_table(
        &[
            "metric", "kind", "baseline", "current", "Δ", "tol", "status",
        ],
        &rows,
    );

    if report.passed() {
        println!(
            "\nperf gate OK: {} metrics within tolerance",
            report.diffs.len()
        );
    } else {
        let failures: Vec<&str> = report.failures().map(|d| d.name.as_str()).collect();
        println!(
            "\nperf gate FAILED: {}/{} metrics out of tolerance: {}",
            failures.len(),
            report.diffs.len(),
            failures.join(", ")
        );
        println!(
            "if the change is intentional, re-bless with \
             `cargo run -p zllm-bench --bin perf_gate -- --bless` and commit \
             bench/baseline.json"
        );
        std::process::exit(1);
    }
}
