//! The repository benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload decode7b --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs the four workloads in one process. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). The lines
//! before it record the run's settings and print every metric in a table.

use std::process::ExitCode;
use zllm_perfbench::catalogue::{self, Clock, Metric};
use zllm_perfbench::{nproc, run, RunConfig, RunResult, Scale, Workload, THREADS};

const USAGE: &str = "usage: perfbench --workload <decode7b|serve_paged|tiered_thrash|\
functional_decode|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                out.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(value).ok_or_else(bad)?]
                }
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(out)
}

/// A JSON number with every digit, or an error for NaN and infinities.
fn json_number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("metric {name} is not finite ({v})"))
    }
}

fn print_table(w: Workload, r: &RunResult, rows: &[&Metric]) {
    println!(
        "{}: {} passes ({} traced), {} operations attempted, {} failed",
        w.name(),
        r.passes,
        r.traced_passes,
        r.attempted,
        r.failed
    );
    for m in rows {
        let value = match r.values.get(m.name) {
            Some(v) => format!("{v:.6}"),
            None => "n/a".to_owned(),
        };
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        };
        println!("  {:<32} {:>20} {:<10} {clock}", m.name, value, m.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \"nproc\": {}, \
         \"threads\": {}, \"rustc\": \"{}\", \"git_sha\": \"{}\"}}",
        args.workloads
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(","),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        THREADS,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_SHA"),
    );

    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<String> = Vec::new();
    let several = args.workloads.len() > 1;
    for w in &args.workloads {
        let result = match run(RunConfig {
            workload: *w,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: Scale::Full,
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut rows: Vec<&Metric> = catalogue::END_TO_END
            .iter()
            .chain(catalogue::WORKLOAD_RESULTS)
            .collect();
        if args.trace {
            rows.extend(catalogue::LAYER_HOST.iter().chain(catalogue::LAYER_SIM));
        }
        print_table(*w, &result, &rows);
        for f in &result.failures {
            eprintln!("perfbench: {}: check failed: {f}", w.name());
        }
        correct &= result.correct;
        attempted += result.attempted;
        failed += result.failed;
        for (m, v) in result.reported(args.trace) {
            let name = if several {
                format!("{}.{}", w.name(), m.name)
            } else {
                m.name.to_owned()
            };
            match json_number(&name, v) {
                Ok(num) => metrics.push(format!(
                    "\"{name}\": {{\"value\": {num}, \"unit\": \"{}\"}}",
                    m.unit
                )),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
