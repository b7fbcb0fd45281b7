//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper; see `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for the recorded paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;

/// Prints an aligned text table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
///
/// # Example
///
/// ```
/// zllm_bench::print_table(
///     &["name", "value"],
///     &[vec!["a".to_owned(), "1".to_owned()]],
/// );
/// ```
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |sep: &str| {
        let mut s = String::new();
        for w in &widths {
            s.push_str(sep);
            s.push_str(&"-".repeat(w + 2));
        }
        s.push_str(sep);
        s
    };
    println!("{}", line("+"));
    let mut header = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        header.push_str(&format!("| {h:<w$} "));
    }
    println!("{header}|");
    println!("{}", line("+"));
    for row in rows {
        let mut out = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!("| {cell:<w$} "));
        }
        println!("{out}|");
    }
    println!("{}", line("+"));
}

// Deterministic fan-out now lives in `zllm-par` (the bottom of the
// dependency DAG) so the quantization and model crates can use it too;
// re-exported here because the table/figure binaries address it as
// `zllm_bench::par_map`.
pub use zllm_par::par_map;

/// Formats a ratio as a percentage string.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with sensible precision, mapping NaN to "/" as the
/// paper's tables do for unpublished values.
pub fn fmt_num(x: f64, decimals: usize) -> String {
    if x.is_nan() {
        "/".to_owned()
    } else {
        format!("{x:.decimals$}")
    }
}

/// Formats bytes as MiB.
pub fn fmt_mib(bytes: f64) -> String {
    format!("{:.0} MiB", bytes / (1u64 << 20) as f64)
}

/// Parses `--<flag> <value>` from an argument list, exiting with status
/// 2 (the sim bins' usage-error convention) when the flag is present
/// without a value. Returns `None` when the flag is absent.
pub fn cli_value_arg(bin: &str, args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .unwrap_or_else(|| {
                eprintln!("{bin}: {flag} requires a value argument");
                std::process::exit(2);
            })
            .clone()
    })
}

/// Parses `--seed <n>` (falling back to `default`), exiting with status
/// 2 on a malformed value. Every sim bin with a seeded input takes a
/// seed so a CI failure can be replayed locally on the exact same trace.
pub fn cli_seed_arg(bin: &str, args: &[String], default: u64) -> u64 {
    match cli_value_arg(bin, args, "--seed") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{bin}: --seed requires an unsigned integer, got {v:?}");
            std::process::exit(2);
        }),
        None => default,
    }
}

/// Asserts a string needs no JSON escaping and passes it through. All
/// strings the sim bins emit are static identifiers; a quote or
/// backslash sneaking in is a bug, not data.
fn json_escape_free(s: &str) -> &str {
    assert!(!s.contains('"') && !s.contains('\\'));
    s
}

/// One field value in a [`json_report`] row.
///
/// The variants encode the exact formatting the sim bins have always
/// used, so jq pipelines (and the CI job summaries built on them) keep
/// parsing byte-identical output:
///
/// * [`JsonField::Str`] — quoted, asserted to need no escaping;
/// * [`JsonField::UInt`] — integers as-is;
/// * [`JsonField::Num`] — shortest-`Display` floats (offered rates:
///   `10`, `0.5`);
/// * [`JsonField::Fixed3`] — `{:.3}` (latencies in ms);
/// * [`JsonField::Fixed6`] — `{:.6}` (rates and throughputs).
#[derive(Debug, Clone)]
pub enum JsonField {
    /// A quoted string; must contain no quote or backslash.
    Str(String),
    /// An unsigned integer, printed as-is.
    UInt(u64),
    /// A float printed with shortest-roundtrip `Display`.
    Num(f64),
    /// A float printed with three decimal places.
    Fixed3(f64),
    /// A float printed with six decimal places.
    Fixed6(f64),
}

impl std::fmt::Display for JsonField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonField::Str(s) => write!(f, "\"{}\"", json_escape_free(s)),
            JsonField::UInt(v) => write!(f, "{v}"),
            JsonField::Num(v) => write!(f, "{v}"),
            JsonField::Fixed3(v) => write!(f, "{v:.3}"),
            JsonField::Fixed6(v) => write!(f, "{v:.6}"),
        }
    }
}

/// Version stamped into every row [`json_report`] emits. Bump when the
/// shared shape (not a bin's column set) changes incompatibly.
pub const JSON_SCHEMA_VERSION: u64 = 1;

/// Serializes sweep rows as the sim bins' common JSON shape: an array
/// of flat objects, one object per line, two-space indent, key order
/// exactly as given, each row led by a `schema_version` field
/// ([`JSON_SCHEMA_VERSION`]) so downstream consumers can detect shape
/// changes. Every `--json` writer (`serve_sim`, `fleet_sim`,
/// `paged_sweep`, `tier_sweep`, `spec_sweep`, `compress_sweep`) goes
/// through here so the shape can never drift between bins.
pub fn json_report(rows: &[Vec<(&str, JsonField)>]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("  {{\"schema_version\": {JSON_SCHEMA_VERSION}"));
        for (key, value) in row.iter() {
            out.push_str(&format!(", \"{}\": {}", json_escape_free(key), value));
        }
        out.push('}');
        if i + 1 != rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// The offered-load sweep traffic shared by the serving and fleet sim
/// bins: heterogeneous mixed-length requests (prompts 16–96, outputs
/// 4–48) whose spread is what separates scheduling disciplines — the
/// gang baseline pads everyone to the longest prompt and holds slots
/// until the longest generation drains.
pub fn sweep_traffic(
    requests: usize,
    seed: u64,
    arrivals: zllm_serve::ArrivalModel,
) -> zllm_serve::TrafficConfig {
    let mut cfg = zllm_serve::TrafficConfig::default_mix(requests, seed, arrivals);
    cfg.prompt_tokens = (16, 96);
    cfg.new_tokens = (4, 48);
    cfg
}

/// The lanes-widened KV260 the speculative scenarios price on. The
/// stock engine is *exactly* compute/bandwidth balanced — 128 lanes
/// consume one 128-weight beat per cycle at the fabric's pace — so a
/// verify window's `K + 1` compute fanout costs exactly the cycles it
/// saves in weight traffic and speculation gains nothing. Widening the
/// VPU to 1024 lanes (the fabric and DDR untouched) leaves the engine
/// bandwidth-bound at fanout 1, so non-speculative pricing is
/// unchanged, while verify windows up to fanout 8 stay a single cycle
/// per beat and the weight-stream amortization becomes visible.
pub fn spec_accel() -> zllm_accel::AccelConfig {
    let mut cfg = zllm_accel::AccelConfig::kv260();
    cfg.lanes = 1024;
    cfg
}

/// The PL-overclocked KV260 the compression scenarios price on. Wire
/// beats shrink on the DDR bus, but the decompressed stream still has
/// to be *consumed*: the fabric delivers (and the VPU retires) one
/// logical 64-byte beat per PL cycle, and the stock 300 MHz clock is
/// exactly balanced against DDR4-2400's beat rate — so saved wire beats
/// hide under the compute floor and compression buys ~3% there (the
/// sweep's `balanced-kv260` reference row documents that). Tripling the
/// PL clock (fabric and VPU; DDR untouched) gives the consume side the
/// headroom to absorb a decompressed stream at up to 3× the bus's
/// logical rate, so the wire savings — not the consumer — set the
/// token time.
pub fn comp_accel() -> zllm_accel::AccelConfig {
    let mut cfg = zllm_accel::AccelConfig::kv260();
    cfg.freq_mhz = 900.0;
    cfg.axi.clock_mhz = 900.0;
    cfg
}

/// Decode-heavy traffic for the paged-KV sweep: short prompts, long
/// generation *caps*, and three quarters of the requests hitting EOS
/// before their cap. Worst-case admission must reserve
/// `prompt + max_new` for a sequence's whole lifetime; the actual KV a
/// sequence ever occupies is its ramp up to the (usually much earlier)
/// EOS point. That gap is the regime where actual-growth charging
/// packs more concurrent users into the same DDR budget.
pub fn decode_heavy_traffic(
    requests: usize,
    seed: u64,
    arrivals: zllm_serve::ArrivalModel,
) -> zllm_serve::TrafficConfig {
    let mut cfg = zllm_serve::TrafficConfig::default_mix(requests, seed, arrivals);
    cfg.prompt_tokens = (8, 16);
    cfg.new_tokens = (48, 96);
    cfg.eos_early_fraction = 0.75;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100u64).collect(), |i| i * i);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate sizes.
        assert_eq!(par_map(Vec::<u64>::new(), |i| i), Vec::<u64>::new());
        assert_eq!(par_map(vec![7u64], |i| i + 1), vec![8]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_pct(0.845), "84.5%");
        assert_eq!(fmt_num(4.9, 1), "4.9");
        assert_eq!(fmt_num(f64::NAN, 1), "/");
        assert_eq!(fmt_mib(264.0 * 1024.0 * 1024.0), "264 MiB");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(&["a", "b"], &[vec!["1".into(), "22".into()]]);
    }

    #[test]
    fn json_report_stamps_schema_version_on_every_row() {
        let rows = vec![
            vec![
                ("a", JsonField::UInt(1)),
                ("b", JsonField::Str("x".to_owned())),
            ],
            vec![
                ("a", JsonField::UInt(2)),
                ("b", JsonField::Str("y".to_owned())),
            ],
        ];
        let out = json_report(&rows);
        let expected = format!(
            "[\n  {{\"schema_version\": {v}, \"a\": 1, \"b\": \"x\"}},\n  \
             {{\"schema_version\": {v}, \"a\": 2, \"b\": \"y\"}}\n]\n",
            v = JSON_SCHEMA_VERSION
        );
        assert_eq!(out, expected);
        // Empty reports stay a bare array.
        assert_eq!(json_report(&[]), "[\n]\n");
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn ragged_rows_rejected() {
        print_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
