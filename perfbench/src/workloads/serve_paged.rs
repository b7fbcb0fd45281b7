//! `serve_paged`: TinyLlama-1.1B served with continuous batching over a
//! paged KV cache. Open-loop Poisson arrivals in virtual time, at a fixed
//! rate below saturation, of the decode-heavy early-EOS mix. The server
//! loop, admission, page charging, chunked prefill and one ragged
//! schedule per step carry most of the non-DDR work, and DDR prices many
//! small per-sequence KV and page-table bursts.
//!
//! A pass serves [`TRACES`] independent traces, each on a fresh server.
//! Each `Server::run` is one opaque call, so splitting the pass gives the
//! host clock several samples per pass; the latency percentiles are taken
//! over every request of the pass.
//!
//! From outside, the view stops at `Server::run`: the traced pass
//! *estimates* schedule and DDR time by replaying a few steps at the
//! pass's mean batch and context and scaling to its step count.

use super::{ReplayTally, Scale};
use crate::meter::Meter;
use crate::{engine_counters, percentile, ratio, Fingerprint, Pass, Timed};
use zllm_accel::schedule::ragged_token_schedule;
use zllm_bench::{decode_heavy_traffic, spec_accel};
use zllm_model::ModelConfig;
use zllm_serve::{generate, ArrivalModel, PagedConfig, Request, Server, ServerConfig};
use zllm_telemetry::MetricsRegistry;

/// Per-sequence context capacity: the mix's longest request (16-token
/// prompt, 96 new tokens) fits.
const CTX_CAPACITY: usize = 128;
/// Concurrent KV slots. The KV budget is the image's own (every slot's
/// worst case), so growth never forces a preemption.
const SLOTS: usize = 16;
/// Offered load, requests per virtual second.
const RATE_PER_S: f64 = 4.0;
/// Independent traces a pass serves.
const TRACES: usize = 4;
/// Requests per trace. At least 100 per pass must complete so that p90
/// has ten samples beyond it.
const REQUESTS: usize = 25;
/// Set-ups per pass: one takes a few milliseconds.
const SETUP_REPS: usize = 8;
/// Steps replayed to estimate per-step schedule and DDR host time.
const ESTIMATE_STEPS: usize = 4;

pub(super) fn pass(seed: u64, scale: Scale, meter: &mut Meter) -> Pass {
    let (traces, requests) = match scale {
        Scale::Full => (TRACES, REQUESTS),
        Scale::Tiny => (2, 3),
    };
    let mut runs: Vec<(Vec<Request>, Server)> = meter.setup(SETUP_REPS, |m| {
        (0..traces as u64)
            .map(|i| {
                let trace: Vec<Request> = m.span("traffic.generate", |_| {
                    generate(&decode_heavy_traffic(
                        requests,
                        seed.wrapping_mul(traces as u64).wrapping_add(i),
                        ArrivalModel::Poisson {
                            rate_per_s: RATE_PER_S,
                        },
                    ))
                });
                let server = m.span("image.build", |_| {
                    let mut cfg =
                        ServerConfig::continuous(CTX_CAPACITY, SLOTS).paged(PagedConfig::default());
                    // The queue never turns an arrival away: every request
                    // is served.
                    cfg.queue_cap = requests;
                    Server::new(spec_accel(), &ModelConfig::tiny_llama_1_1b(), cfg)
                        .expect("TinyLlama-1.1B with 16 KV provisions fits the 4 GB device")
                });
                (trace, server)
            })
            .collect()
    });

    let mut pass = Pass::default();
    let reports = meter.measured(|meter| {
        runs.iter_mut()
            .map(|(trace, server)| {
                let (report, timed) = meter.time(|m| m.span("serve.run", |_| server.run(trace)));
                let steps = report.decode_steps + report.prefill_steps;
                // The run is one call of seconds, and the host's speed
                // changes within it: a kernel time beside it does not
                // stand for it (scaled, this workload's host spread over
                // ten seeds was twice the unscaled one), so it stays
                // unscaled.
                pass.step_samples.push(Timed {
                    secs: timed.secs / steps as f64,
                    kernel_ms: None,
                });
                report
            })
            .collect::<Vec<_>>()
    });

    let total = |f: fn(&zllm_serve::ServeReport) -> u64| reports.iter().map(f).sum::<u64>();
    let offered = total(|r| r.offered);
    let refused = total(|r| r.rejected_queue_full + r.rejected_infeasible);
    let completed = total(|r| r.completed);
    let generated = total(|r| r.generated_tokens);
    let decode_steps = total(|r| r.decode_steps);
    pass.steps = decode_steps + total(|r| r.prefill_steps);
    pass.ops = offered;
    pass.refused = refused;
    let outcomes = reports.iter().map(|r| r.outcomes.len() as u64).sum::<u64>();
    let requested: u64 = runs.iter().map(|(t, _)| t.len() as u64).sum();
    if offered != completed + refused || offered != requested || outcomes != requested {
        pass.failures.push(format!(
            "request conservation: {requested} in the traces, {offered} offered, {completed} \
             completed, {refused} refused or dropped, {outcomes} outcomes"
        ));
    }

    // Each server's snapshot goes into the fingerprint whole: merging
    // keeps only the last server's gauges. The merged counters feed the
    // per-layer results.
    let mut fp = Fingerprint::default();
    let mut merged = MetricsRegistry::new();
    for (_, server) in &runs {
        let snap = server.engine().metrics_snapshot();
        fp.snapshot(&snap);
        merged.merge(&snap);
    }
    let snap = merged.snapshot();
    engine_counters(&snap, &mut pass);
    pass.sim_bytes = snap.counter("decode.bytes").unwrap_or(0);

    let outcomes = || reports.iter().flat_map(|r| &r.outcomes);
    let ttft_ms: Vec<f64> = outcomes()
        .filter_map(|o| o.ttft_s())
        .map(|s| s * 1e3)
        .collect();
    let tpot_ms: Vec<f64> = outcomes()
        .filter_map(|o| o.mean_token_latency_s())
        .map(|s| s * 1e3)
        .collect();
    ttft_ms.iter().chain(&tpot_ms).for_each(|v| fp.float(*v));
    let sim_seconds: f64 = reports.iter().map(|r| r.sim_seconds).sum();
    let good_tokens: f64 = reports
        .iter()
        .map(|r| r.goodput_tokens_per_s * r.sim_seconds)
        .sum();
    fp.float(sim_seconds);
    let sim = &mut pass.sim;
    sim.insert("sim_tok_s", generated as f64 / sim_seconds);
    sim.insert("sim_goodput_tok_s", good_tokens / sim_seconds);
    sim.insert("sim_ttft_p50_ms", percentile(&ttft_ms, 0.5));
    sim.insert("sim_ttft_p90_ms", percentile(&ttft_ms, 0.9));
    sim.insert("sim_tpot_p50_ms", percentile(&tpot_ms, 0.5));
    sim.insert("sim_tpot_p90_ms", percentile(&tpot_ms, 0.9));
    sim.insert(
        "req_fail_frac",
        ratio(offered - total(|r| r.deadline_met), offered),
    );
    sim.insert("serve.batch_mean", ratio(generated, decode_steps));
    let peak = |f: fn(&zllm_serve::ServeReport) -> f64| reports.iter().map(f).fold(0.0, f64::max);
    sim.insert("serve.queue_peak", peak(|r| r.queue_peak as f64));
    sim.insert("serve.preempted", total(|r| r.preempted) as f64);
    sim.insert("serve.rejected", refused as f64);
    sim.insert(
        "serve.kv_peak_frac",
        peak(|r| ratio(r.kv_peak_bytes, r.kv_budget_bytes)),
    );
    pass.fingerprint = fp.finish();

    if meter.tracing() {
        // Replay steps shaped like the pass's average: its mean batch, each
        // sequence at the mean context a request spends its decode at.
        let batch = (ratio(generated, decode_steps).round() as usize).clamp(1, SLOTS);
        let prompt = total(|r| r.prompt_tokens) as f64;
        let mean_ctx =
            ((prompt + generated as f64 / 2.0) / completed.max(1) as f64).round() as usize;
        let slots: Vec<(usize, usize)> = (0..batch).map(|s| (s, mean_ctx)).collect();
        let engine = runs[0].1.engine();
        let accel = engine.accel().clone();
        let mut tally = ReplayTally::default();
        for _ in 0..ESTIMATE_STEPS {
            tally.replay(meter, &accel, || {
                ragged_token_schedule(engine.image(), &slots, accel.pipeline)
            });
        }
        let steps = pass.steps;
        tally.publish(meter, &mut pass, Some(steps));
        let run_s = meter.total_s("serve.run");
        pass.layers.insert("serve.run_s", run_s);
        pass.layers.insert(
            "serve.self_s",
            run_s - pass.layers["schedule.build_s"] - pass.layers["ddr.price_s"],
        );
        pass.layers.insert(
            "serve.host_ms_per_step",
            run_s * 1e3 / pass.steps.max(1) as f64,
        );
        pass.layers
            .insert("traffic.generate_s", meter.per_setup_s("traffic.generate"));
        pass.layers
            .insert("image.build_s", meter.per_setup_s("image.build"));
    }
    pass
}
