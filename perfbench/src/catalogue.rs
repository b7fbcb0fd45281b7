//! Every metric the benchmark reports: name, unit, direction and whether
//! it is host time (varies run to run) or virtual time (repeats exactly
//! for a seed). `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a metric's value depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Measured on the host; varies from run to run.
    Host,
    /// A result of the simulated KV260 (or the functional datapath);
    /// repeats bit for bit for a given seed.
    Virtual,
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit. Virtual-time units carry a `sim-` prefix.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Host or virtual.
    pub clock: Clock,
}

const fn m(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Virtual};

/// End-to-end metrics every workload reports in its untraced run. They
/// exist on every workload, so they are the ones `BENCHMARK.json` bounds.
/// Both are scaled to the nominal host (see
/// [`crate::reference_kernel_ms`]), except `serve_paged`'s host time, whose
/// calls last too long for it; host time is per engine step so that
/// it compares across seeds whose inputs need different numbers of steps.
pub const END_TO_END: &[Metric] = &[
    m("host_ms_per_step", "ms", Lower, Host),
    m("setup_s", "s", Lower, Host),
];

/// End-to-end results that are unscaled, or that only some workloads
/// produce (0 elsewhere), or that follow the seed's inputs. The untraced
/// run prints them in its table; the traced run reports them beside the
/// per-layer metrics.
pub const WORKLOAD_RESULTS: &[Metric] = &[
    m("host_ms_per_step.raw", "ms", Lower, Host),
    m("setup_s.raw", "s", Lower, Host),
    m("ref.kernel_ms", "ms", Lower, Host),
    m("peak_rss_mib", "MiB", Lower, Host),
    m("host_s", "s", Lower, Host),
    m("sim_gb_per_host_s", "GB/s", Higher, Host),
    m("sim_tok_s", "sim-tok/s", Higher, Virtual),
    m("util_err_pp", "pp", Lower, Virtual),
    m("sim_ttft_p50_ms", "sim-ms", Lower, Virtual),
    m("sim_ttft_p90_ms", "sim-ms", Lower, Virtual),
    m("sim_tpot_p50_ms", "sim-ms", Lower, Virtual),
    m("sim_tpot_p90_ms", "sim-ms", Lower, Virtual),
    m("sim_goodput_tok_s", "sim-tok/s", Higher, Virtual),
    m("req_fail_frac", "share", Lower, Virtual),
    m("ref_top1_match", "share", Higher, Virtual),
];

/// Host time of each layer, measured from outside by the traced run.
pub const LAYER_HOST: &[Metric] = &[
    m("image.build_s", "s", Lower, Host),
    m("traffic.generate_s", "s", Lower, Host),
    m("schedule.build_s", "s", Lower, Host),
    m("ddr.price_s", "s", Lower, Host),
    m("ddr.host_ns_per_sim_gb", "ns/GB", Lower, Host),
    m("engine.step_s", "s", Lower, Host),
    m("engine.self_s", "s", Lower, Host),
    m("serve.run_s", "s", Lower, Host),
    m("serve.self_s", "s", Lower, Host),
    m("serve.host_ms_per_step", "ms", Lower, Host),
    m("functional.quantize_s", "s", Lower, Host),
    m("functional.prefill_s", "s", Lower, Host),
    m("functional.decode_s", "s", Lower, Host),
    m("trace.host_s", "s", Lower, Host),
    m("trace.overhead_s", "s", Lower, Host),
];

/// Simulated counters of each layer, from the engine's metrics snapshot
/// and the serving report.
pub const LAYER_SIM: &[Metric] = &[
    m("schedule.bursts_per_step", "count", Lower, Virtual),
    m("ddr.row_hit_rate", "share", Higher, Virtual),
    m("ddr.row_conflicts", "count", Lower, Virtual),
    m("ddr.refreshes", "count", Lower, Virtual),
    m("ddr.turnarounds", "count", Lower, Virtual),
    m("ddr.writes", "count", Lower, Virtual),
    m("decode.bytes.embedding", "B", Lower, Virtual),
    m("decode.bytes.qkv", "B", Lower, Virtual),
    m("decode.bytes.kv_read", "B", Lower, Virtual),
    m("decode.bytes.kv_write", "B", Lower, Virtual),
    m("decode.bytes.wo", "B", Lower, Virtual),
    m("decode.bytes.mlp", "B", Lower, Virtual),
    m("decode.bytes.kv_meta_flush", "B", Lower, Virtual),
    m("decode.bytes.kv_pt_read", "B", Lower, Virtual),
    m("decode.bytes.kv_pt_write", "B", Lower, Virtual),
    m("decode.bytes.lm_head", "B", Lower, Virtual),
    m("vpu.cycles", "cycles", Lower, Virtual),
    m("pipeline.bubble_cycles", "cycles", Lower, Virtual),
    m("engine.ragged_cache_hit_ratio", "share", Higher, Virtual),
    m("serve.batch_mean", "count", Higher, Virtual),
    m("serve.queue_peak", "count", Lower, Virtual),
    m("serve.preempted", "count", Lower, Virtual),
    m("serve.rejected", "count", Lower, Virtual),
    m("serve.kv_peak_frac", "share", Higher, Virtual),
    m("tier.hits", "count", Higher, Virtual),
    m("tier.misses", "count", Lower, Virtual),
    m("tier.late_prefetches", "count", Lower, Virtual),
    m("tier.prefetch_useful_ratio", "share", Higher, Virtual),
    m("tier.stall_cycles", "cycles", Lower, Virtual),
    m("flash.bytes.demand", "B", Lower, Virtual),
    m("flash.bytes.prefetch", "B", Lower, Virtual),
];

/// Everything the traced run reports, in `BENCHMARK.json`'s `per_layer`
/// order.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    WORKLOAD_RESULTS.iter().chain(LAYER_HOST).chain(LAYER_SIM)
}

/// Looks a metric up by name across every list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}
