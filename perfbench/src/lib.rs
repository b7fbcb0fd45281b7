//! The repository benchmark.
//!
//! It measures two systems that share one code base:
//!
//! * the **simulator** on the host — wall time, set-up time and memory,
//!   which vary from run to run;
//! * the **simulated KV260** — virtual-time results, which repeat exactly
//!   for a given seed.
//!
//! A run repeats one workload's *pass* (set-up, then a fixed amount of
//! measured work) until its time is up and reports medians. Every pass of
//! a run uses the same seed, so every pass must reproduce the first
//! pass's simulated results bit for bit; a pass that does not, or that
//! breaks a conservation check, counts its operations as failed.
//!
//! Host time per layer is measured from outside: [`meter::Meter`] times
//! calls into each layer's public functions, and nothing inside the
//! library changes.

pub mod catalogue;
pub mod meter;
pub mod workloads;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;
use zllm_telemetry::Snapshot;

pub use workloads::{Scale, Workload};

/// Milliseconds the nominal host takes for [`reference_kernel_ms`]'s
/// work. Scaled host times read as if measured on that host.
pub const REFERENCE_MS: f64 = 1.0;

/// Times the benchmark's reference kernel, ms: the median of three runs
/// of 200,000 random read-modify-writes over a 4 MiB buffer. The buffer
/// outgrows a core's L2, so every run goes to the shared cache whatever
/// ran before it — where a shared host's contention lands on the
/// simulator too. The benchmark runs it just before each timed step and
/// set-up and scales a run's median step and set-up times by
/// `REFERENCE_MS / median kernel time` (see `medians`), which takes out
/// much of the host's speed swings. The kernel is part of the
/// benchmark's definition; changing it changes every scaled figure.
pub fn reference_kernel_ms() -> f64 {
    thread_local! {
        static BUF: RefCell<Vec<u64>> = RefCell::new(vec![0; 1 << 19]);
    }
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        let mask = buf.len() - 1;
        let mut runs = [0.0; 3];
        for run in &mut runs {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..200_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = x as usize & mask;
                buf[j] = buf[j].wrapping_add(x);
            }
            std::hint::black_box(&*buf);
            *run = t.elapsed().as_secs_f64() * 1e3;
        }
        median(&runs)
    })
}

/// A host time and the reference kernel's time measured just before it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// The measured time, seconds.
    pub secs: f64,
    /// [`reference_kernel_ms`] just before, ms; `None` for a time left
    /// unscaled.
    pub kernel_ms: Option<f64>,
}

/// The median of a run's samples of one kind, seconds, as measured and
/// scaled to the nominal host: times `REFERENCE_MS` over the median
/// kernel time beside the samples (as measured where none has one).
///
/// Scaling medians rather than each sample: one kernel time spreads
/// wider than the step beside it (interquartile range about 0.3 of the
/// median against 0.2 for a 7B step), so dividing each sample by its own
/// adds that noise to every sample. Recomputed from the same runs of two
/// ten-seed sets, `tiered_thrash`'s spread fell from 0.103 and 0.187 to
/// 0.079 and 0.070; the other workloads' stayed about the same.
fn medians(samples: &[Timed]) -> (f64, f64) {
    let raw = median(&samples.iter().map(|t| t.secs).collect::<Vec<_>>());
    let kernels: Vec<f64> = samples.iter().filter_map(|t| t.kernel_ms).collect();
    let scaled = if kernels.is_empty() {
        raw
    } else {
        raw * REFERENCE_MS / median(&kernels)
    };
    (raw, scaled)
}

/// What one pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Each set-up's wall time.
    pub setup_samples: Vec<Timed>,
    /// Measured wall time, seconds (replay spans excluded).
    pub host_s: f64,
    /// Engine steps the measured work priced or ran: decoded tokens,
    /// serving steps, batched forward steps.
    pub steps: u64,
    /// Host time per step: one sample per step where the benchmark can
    /// time steps one by one, else the mean over a run of steps.
    pub step_samples: Vec<Timed>,
    /// Operations attempted: tokens priced, requests offered, positions
    /// decoded.
    pub ops: u64,
    /// Operations the system refused or dropped.
    pub refused: u64,
    /// Correctness checks that failed, described.
    pub failures: Vec<String>,
    /// Simulated DDR bytes priced by the measured work.
    pub sim_bytes: u64,
    /// Virtual-time results by metric name.
    pub sim: BTreeMap<&'static str, f64>,
    /// Host-time per-layer results by metric name (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Hash over the bits of every simulated output of the pass.
    pub fingerprint: u64,
}

/// FNV-1a over a stream of 64-bit words: the pass fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float's exact bits in.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Folds every counter and gauge of a snapshot in, names included.
    pub fn snapshot(&mut self, snap: &Snapshot) {
        for (k, v) in &snap.counters {
            k.bytes().for_each(|b| self.word(b as u64));
            self.word(*v);
        }
        for (k, v) in &snap.gauges {
            k.bytes().for_each(|b| self.word(b as u64));
            self.float(*v);
        }
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Median of a sample (the mean of the middle two for even sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sample, the rule the serving report
/// uses (`q` in `[0, 1]`; 0 for an empty sample).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// one, so that [`peak_rss_mib`] reads the peak since the reset.
///
/// # Errors
///
/// Returns an error where the kernel does not accept the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident set size of this process, MiB (`VmHWM`): the largest
/// since the last [`reset_peak_rss`], or since the process started.
///
/// # Errors
///
/// Returns an error where `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The simulated per-layer counters of an engine snapshot, plus the
/// byte-conservation check: the per-kind `decode.bytes.<kind>` counters
/// must sum to `decode.bytes`.
pub fn engine_counters(snap: &Snapshot, pass: &mut Pass) {
    let c = |k: &str| snap.counter(k).unwrap_or(0);
    let hits = c("ddr.port0.row_hits");
    let accesses = hits + c("ddr.port0.row_misses") + c("ddr.port0.row_conflicts");
    let sim = &mut pass.sim;
    sim.insert("ddr.row_hit_rate", ratio(hits, accesses));
    sim.insert("ddr.row_conflicts", c("ddr.port0.row_conflicts") as f64);
    sim.insert("ddr.refreshes", c("ddr.port0.refreshes") as f64);
    sim.insert("ddr.turnarounds", c("ddr.port0.turnarounds") as f64);
    sim.insert("ddr.writes", c("ddr.port0.writes") as f64);
    for m in catalogue::LAYER_SIM {
        if m.name.starts_with("decode.bytes.") {
            sim.insert(m.name, c(m.name) as f64);
        }
    }
    sim.insert("vpu.cycles", c("vpu.cycles") as f64);
    sim.insert("pipeline.bubble_cycles", c("pipeline.bubble_cycles") as f64);
    let rh = c("decode.ragged_cache.hits");
    sim.insert(
        "engine.ragged_cache_hit_ratio",
        ratio(rh, rh + c("decode.ragged_cache.misses")),
    );
    let issued = c("tier.prefetch.issued");
    sim.insert("tier.hits", c("tier.hits") as f64);
    sim.insert("tier.misses", c("tier.misses") as f64);
    sim.insert("tier.late_prefetches", c("tier.late_prefetches") as f64);
    sim.insert(
        "tier.prefetch_useful_ratio",
        ratio(issued.saturating_sub(c("tier.prefetch.wasted")), issued),
    );
    sim.insert("tier.stall_cycles", c("tier.stall_cycles") as f64);
    sim.insert("flash.bytes.demand", c("flash.bytes.demand") as f64);
    sim.insert("flash.bytes.prefetch", c("flash.bytes.prefetch") as f64);

    let by_kind: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("decode.bytes."))
        .map(|(_, v)| v)
        .sum();
    if by_kind != c("decode.bytes") {
        pass.failures.push(format!(
            "byte conservation: decode.bytes.<kind> sum to {by_kind}, decode.bytes is {}",
            c("decode.bytes")
        ));
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed all of the workload's inputs are drawn from.
    pub seed: u64,
    /// Measure for at least this long (passes keep starting until it
    /// has elapsed).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

/// `zllm-par` threads a run may use. Host figures are one core's: on a
/// shared host, a fan-out over two cores waits for the busier one each
/// step, and `functional_decode`'s steps ran both slower and twice as
/// spread as on one thread. The reference kernel times one core too.
pub const THREADS: usize = 1;

/// Passes a run makes at the least, of each kind, whatever its time:
/// enough to check a repeat against the first pass.
pub const MIN_PASSES: usize = 2;

/// What a run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No correctness check failed.
    pub correct: bool,
    /// Operations attempted across every pass.
    pub attempted: u64,
    /// Operations that failed: refused by the system, or in a pass that
    /// failed a check.
    pub failed: u64,
    /// Failed checks, described (deduplicated).
    pub failures: Vec<String>,
    /// Untraced passes made.
    pub passes: usize,
    /// Traced passes made.
    pub traced_passes: usize,
    /// Every metric the run reports, by name: end-to-end metrics and
    /// workload results always; per-layer metrics in the traced run.
    pub values: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// The metrics a run prints in its last line: the end-to-end ones
    /// untraced, the per-layer ones traced.
    pub fn reported(&self, trace: bool) -> Vec<(&'static catalogue::Metric, f64)> {
        let list: Vec<&'static catalogue::Metric> = if trace {
            catalogue::per_layer().collect()
        } else {
            catalogue::END_TO_END.iter().collect()
        };
        list.into_iter()
            .map(|m| (m, self.values.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Runs one workload: passes until `seconds` have elapsed (and at least
/// [`MIN_PASSES`] of each kind ran), checking every pass against the
/// first. A traced run alternates untraced and traced passes so the
/// tracing overhead is the difference of their medians.
///
/// # Errors
///
/// Returns an error if peak memory cannot be reset or read.
pub fn run(cfg: RunConfig) -> Result<RunResult, String> {
    zllm_par::set_max_threads(Some(THREADS));
    // Finish the library's lazy set-up (the f16 decode table) before any
    // clock starts.
    std::hint::black_box(zllm_fp16::F16::from_f32(1.0).to_f32());
    // This run's peak, not that of a workload run before it in the process.
    reset_peak_rss()?;
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        plain.push(cfg.workload.pass(cfg.seed, cfg.scale, false));
        if cfg.trace {
            traced.push(cfg.workload.pass(cfg.seed, cfg.scale, true));
        }
        if plain.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let reference = &plain[0];
    let (attempted, failed, failures) = check_passes(&plain, &traced);

    let med = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let host_s = med(&plain, &|p| p.host_s);
    let mut values: BTreeMap<&'static str, f64> = reference.sim.clone();
    values.insert("host_s", host_s);
    let steps: Vec<Timed> = plain.iter().flat_map(|p| p.step_samples.clone()).collect();
    let setups: Vec<Timed> = plain.iter().flat_map(|p| p.setup_samples.clone()).collect();
    let (step_raw, step_scaled) = medians(&steps);
    let (setup_raw, setup_scaled) = medians(&setups);
    values.insert("host_ms_per_step", step_scaled * 1e3);
    values.insert("host_ms_per_step.raw", step_raw * 1e3);
    values.insert("setup_s", setup_scaled);
    values.insert("setup_s.raw", setup_raw);
    let kernels: Vec<f64> = steps
        .iter()
        .chain(&setups)
        .filter_map(|t| t.kernel_ms)
        .collect();
    values.insert("ref.kernel_ms", median(&kernels));
    values.insert("peak_rss_mib", peak_rss_mib()?);
    if reference.sim_bytes > 0 {
        values.insert(
            "sim_gb_per_host_s",
            reference.sim_bytes as f64 / 1e9 / host_s,
        );
    }
    if cfg.trace {
        for name in traced[0].layers.keys() {
            values.insert(name, med(&traced, &|p| p.layers[name]));
        }
        let traced_host_s = med(&traced, &|p| p.host_s);
        values.insert("trace.host_s", traced_host_s);
        values.insert("trace.overhead_s", traced_host_s - host_s);
    }
    Ok(RunResult {
        correct: failures.is_empty(),
        attempted,
        failed,
        failures,
        passes: plain.len(),
        traced_passes: traced.len(),
        values,
    })
}

/// Checks every pass against the first untraced one and counts
/// operations: returns (attempted, failed, failed checks deduplicated).
/// A pass that fails a check, or whose simulated results differ from the
/// first pass's, counts all of its operations as failed; otherwise only
/// those the system refused.
fn check_passes(plain: &[Pass], traced: &[Pass]) -> (u64, u64, Vec<String>) {
    let reference = &plain[0];
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, p) in plain.iter().chain(traced).enumerate() {
        let mut bad = p.failures.clone();
        if p.fingerprint != reference.fingerprint || !same_bits(&p.sim, &reference.sim) {
            let kind = if i < plain.len() { "repeat" } else { "traced" };
            bad.push(format!(
                "{kind} pass {i} changed the simulated results of pass 0"
            ));
        }
        attempted += p.ops;
        failed += if bad.is_empty() { p.refused } else { p.ops };
        for f in bad {
            if !failures.contains(&f) {
                failures.push(f);
            }
        }
    }
    (attempted, failed, failures)
}

/// Whether two result maps hold the same names and bit-identical values.
fn same_bits(a: &BTreeMap<&'static str, f64>, b: &BTreeMap<&'static str, f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(fingerprint: u64, ops: u64, refused: u64) -> Pass {
        let mut p = Pass {
            ops,
            refused,
            fingerprint,
            ..Pass::default()
        };
        p.sim.insert("sim_tok_s", 4.9);
        p
    }

    #[test]
    fn a_pass_that_fails_a_check_counts_all_its_operations() {
        let good = pass(1, 10, 2);
        let (attempted, failed, failures) = check_passes(&[good.clone(), good.clone()], &[]);
        assert_eq!((attempted, failed), (20, 4));
        assert!(failures.is_empty());

        let mut broken = good.clone();
        broken.failures.push("byte conservation".to_owned());
        let mut changed = good.clone();
        changed.sim.insert("sim_tok_s", 5.0);
        let (attempted, failed, failures) = check_passes(
            &[good.clone(), broken.clone(), broken],
            &[pass(2, 10, 0), changed],
        );
        assert_eq!((attempted, failed), (50, 2 + 10 + 10 + 10 + 10));
        assert_eq!(
            failures,
            [
                "byte conservation",
                "traced pass 3 changed the simulated results of pass 0",
                "traced pass 4 changed the simulated results of pass 0",
            ]
        );
    }

    #[test]
    fn medians_scale_the_median_time_by_the_median_kernel() {
        let t = |secs, kernel_ms| Timed { secs, kernel_ms };
        // Per-sample scaling would give the median of 0.1, 0.1 and 0.5.
        let samples = [t(0.2, Some(2.0)), t(0.1, Some(1.0)), t(0.5, Some(1.0))];
        assert_eq!(medians(&samples), (0.2, 0.2 * REFERENCE_MS / 1.0));
        let unscaled = [t(0.3, None), t(0.1, None), t(0.2, None)];
        assert_eq!(medians(&unscaled), (0.2, 0.2));
    }
}
