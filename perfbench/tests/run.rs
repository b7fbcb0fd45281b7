//! Whole runs at the tiny size: operation counts, the reported metric
//! sets, traced runs that leave every simulated result unchanged, and a
//! peak memory figure of each run's own.

use std::sync::Mutex;
use zllm_perfbench::catalogue::{self, Clock};
use zllm_perfbench::{peak_rss_mib, run, RunConfig, RunResult, Scale, Workload, MIN_PASSES};

/// Runs share the process's peak-memory figure; one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> RunResult {
    run(RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    })
    .expect("peak memory is readable")
}

#[test]
fn runs_count_operations_and_report_every_metric() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    for w in Workload::ALL {
        let plain = tiny(w, false);
        assert!(plain.correct, "{}: {:?}", w.name(), plain.failures);
        assert_eq!((plain.passes, plain.traced_passes), (MIN_PASSES, 0));
        assert_eq!(plain.failed, 0, "{}", w.name());
        let per_pass = w.pass(7, Scale::Tiny, false).ops;
        assert_eq!(
            plain.attempted,
            MIN_PASSES as u64 * per_pass,
            "{}",
            w.name()
        );
        for (m, v) in plain.reported(false) {
            assert!(
                plain.values.contains_key(m.name) && v > 0.0,
                "{}: {} is missing or 0",
                w.name(),
                m.name
            );
        }

        let traced = tiny(w, true);
        assert!(traced.correct, "{}: {:?}", w.name(), traced.failures);
        assert_eq!(traced.traced_passes, traced.passes);
        assert_eq!(traced.attempted, 2 * MIN_PASSES as u64 * per_pass);
        for name in ["trace.host_s", "trace.overhead_s", "host_s", "peak_rss_mib"] {
            assert!(traced.values.contains_key(name), "{}: no {name}", w.name());
        }
        assert_eq!(
            traced.reported(true).len(),
            catalogue::per_layer().count(),
            "the traced run reports every per-layer metric"
        );
        // Every simulated result of the untraced run, bit for bit.
        for (name, v) in &plain.values {
            if catalogue::find(name).is_some_and(|m| m.clock == Clock::Virtual) {
                assert_eq!(
                    traced.values.get(name).map(|t| t.to_bits()),
                    Some(v.to_bits()),
                    "{}: tracing changed {name}",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn each_run_reports_its_own_peak_memory() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    // A large allocation, freed before the runs, raises the process's
    // peak above anything the tiny runs need.
    let big = std::hint::black_box(vec![1u8; 256 << 20]);
    let before = peak_rss_mib().unwrap();
    assert!(before >= 256.0, "peak {before} MiB");
    drop(big);
    for w in [Workload::FunctionalDecode, Workload::Decode7b] {
        let peak = tiny(w, false).values["peak_rss_mib"];
        assert!(
            peak < before - 128.0,
            "{}: peak {peak} MiB is the process's {before} MiB",
            w.name()
        );
    }
}
