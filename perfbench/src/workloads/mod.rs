//! The four workloads. Each draws all of its random inputs from the seed
//! and stresses a different part of the stack; see `README.md` for which
//! per-layer metric each is meant to move.

mod decode7b;
mod functional_decode;
mod serve_paged;
mod tiered_thrash;

use crate::meter::Meter;
use crate::{engine_counters, Fingerprint, Pass};
use zllm_accel::schedule::{token_schedule, TokenSchedule};
use zllm_accel::{AccelConfig, DecodeEngine};
use zllm_ddr::MemorySystem;
use zllm_layout::BurstDescriptor;
use zllm_rng::StdRng;

/// Workload size: the benchmark's own, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the benchmark measures.
    Full,
    /// A few steps of each workload, for the benchmark's tests.
    Tiny,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LLaMA2-7B decode on the KV260, the paper's Table II point.
    Decode7b,
    /// TinyLlama-1.1B continuous batching over paged KV.
    ServePaged,
    /// LLaMA2-7B behind an eMMC flash tier at a thrashing budget.
    TieredThrash,
    /// Bit-exact functional decode against the f32 reference.
    FunctionalDecode,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Decode7b,
        Workload::ServePaged,
        Workload::TieredThrash,
        Workload::FunctionalDecode,
    ];

    /// The command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Decode7b => "decode7b",
            Workload::ServePaged => "serve_paged",
            Workload::TieredThrash => "tiered_thrash",
            Workload::FunctionalDecode => "functional_decode",
        }
    }

    /// Why the benchmark runs it (one line, as in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Decode7b => {
                "paper Table II point: LLaMA2-7B decode on the KV260, DDR pricing of long weight \
                 streams is nearly all host time; anchors util_err_pp"
            }
            Workload::ServePaged => {
                "TinyLlama-1.1B continuous batching over paged KV, open-loop Poisson below \
                 saturation: server loop, admission, ragged schedules, many small KV bursts"
            }
            Workload::TieredThrash => {
                "LLaMA2-7B behind an eMMC flash tier at a 3.4-layer budget: tier walk, flash \
                 model and write-forced staging bursts beside the reads"
            }
            Workload::FunctionalDecode => {
                "bit-exact fp16/W4 functional decode against the f32 reference; bypasses DDR \
                 pricing, so DDR or schedule changes must leave it unchanged"
            }
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one pass: set-up, then the measured work, then the checks.
    /// The traced pass records spans and replays each step's schedule
    /// for attribution; its simulated results must equal the untraced
    /// pass's.
    pub fn pass(self, seed: u64, scale: Scale, trace: bool) -> Pass {
        let mut meter = Meter::new(trace);
        let mut pass = match self {
            Workload::Decode7b => decode7b::pass(seed, scale, &mut meter),
            Workload::ServePaged => serve_paged::pass(seed, scale, &mut meter),
            Workload::TieredThrash => tiered_thrash::pass(seed, scale, &mut meter),
            Workload::FunctionalDecode => functional_decode::pass(seed, scale, &mut meter),
        };
        pass.setup_samples = meter.setup_samples().to_vec();
        pass.host_s = meter.host_s();
        pass
    }
}

/// Context capacity of the single-sequence workloads, and the end of the
/// generation they sample.
const CTX_END: usize = 1024;
/// Set-ups per pass of the single-sequence workloads: one takes well
/// under a millisecond, so a pass repeats it for a steady median.
const SETUP_REPS: usize = 32;

/// Contexts for a closed-loop single-sequence decode: `segments` runs of
/// `run` consecutive tokens, run `i` starting at a seeded offset inside
/// the `i`-th of `segments` equal slices of `[0, CTX_END)` — a spread of
/// contexts like Table II's sampled generation.
fn spread_contexts(seed: u64, segments: usize, run: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let slice = CTX_END / segments;
    assert!(slice >= run, "runs must fit their slices");
    (0..segments)
        .flat_map(|i| {
            let start = i * slice + rng.below((slice - run + 1) as u64) as usize;
            start..start + run
        })
        .collect()
}

/// The shared body of `decode7b` and `tiered_thrash`: one sequence,
/// closed loop, one `decode_token` call per token over a seeded spread of
/// contexts, on the engine `build` sets up. Returns the pass and the
/// simulated tokens per second.
///
/// The traced pass replays each step's schedule beside the engine call
/// (and, on a tiered engine, the layers the step staged from flash) and
/// derives the engine's self time as step − schedule − DDR.
fn single_sequence_pass(
    seed: u64,
    meter: &mut Meter,
    segments: usize,
    run: usize,
    build: impl FnMut(&mut Meter) -> DecodeEngine,
) -> (Pass, f64) {
    let ctxs = spread_contexts(seed, segments, run);
    let mut engine = meter.setup(SETUP_REPS, build);
    let accel = engine.accel().clone();
    // Staging writes a whole layer; every layer of these models has the
    // same shape, so layer 0's bursts, as writes, stand for any of them.
    let staging: Vec<BurstDescriptor> = engine
        .image()
        .layer_projections(0)
        .iter()
        .map(|p| BurstDescriptor {
            write: true,
            ..p.burst()
        })
        .collect();
    let staged = |e: &DecodeEngine| {
        e.tier_report()
            .map_or(0, |t| t.demand_misses + t.prefetch_issued)
    };

    let mut pass = Pass {
        ops: ctxs.len() as u64,
        steps: ctxs.len() as u64,
        ..Pass::default()
    };
    let mut tally = ReplayTally::default();
    let mut fp = Fingerprint::default();
    let mut wall_ns = 0.0;
    meter.measured(|meter| {
        for &ctx in &ctxs {
            let before = staged(&engine);
            let (r, timed) = meter.time(|m| m.span("engine.step", |_| engine.decode_token(ctx)));
            pass.step_samples.push(timed);
            fp.float(r.wall_ns);
            wall_ns += r.wall_ns;
            if meter.tracing() {
                tally.replay(meter, &accel, || {
                    token_schedule(engine.image(), ctx, accel.pipeline)
                });
                for _ in before..staged(&engine) {
                    tally.price(meter, &accel, staging.iter().copied());
                }
            }
        }
    });

    let snap = engine.metrics_snapshot();
    fp.snapshot(&snap);
    engine_counters(&snap, &mut pass);
    // Tier staging writes flash bytes into DDR through the same controller.
    pass.sim_bytes = ["decode.bytes", "flash.bytes.demand", "flash.bytes.prefetch"]
        .iter()
        .map(|k| snap.counter(k).unwrap_or(0))
        .sum();
    let tok_s = ctxs.len() as f64 * 1e9 / wall_ns;
    pass.sim.insert("sim_tok_s", tok_s);
    pass.fingerprint = fp.finish();
    if meter.tracing() {
        tally.publish(meter, &mut pass, None);
        let step_s = meter.total_s("engine.step");
        pass.layers.insert("engine.step_s", step_s);
        pass.layers.insert(
            "engine.self_s",
            step_s - pass.layers["schedule.build_s"] - pass.layers["ddr.price_s"],
        );
        pass.layers
            .insert("image.build_s", meter.per_setup_s("image.build"));
    }
    (pass, tok_s)
}

/// Steps, bursts and bytes the traced pass replayed, for
/// `schedule.bursts_per_step` and `ddr.host_ns_per_sim_gb`.
#[derive(Debug, Default)]
struct ReplayTally {
    steps: u64,
    bursts: u64,
    bytes: u64,
}

impl ReplayTally {
    /// Rebuilds a step's schedule inside a `schedule.build` replay span
    /// and prices it.
    fn replay(
        &mut self,
        meter: &mut Meter,
        accel: &AccelConfig,
        build: impl FnOnce() -> TokenSchedule,
    ) {
        let sched = meter.replay("schedule.build", |_| build());
        self.steps += 1;
        self.bursts += sched.ops.iter().map(|o| o.bursts.len() as u64).sum::<u64>();
        self.price(
            meter,
            accel,
            sched.ops.iter().flat_map(|o| o.bursts.iter().copied()),
        );
    }

    /// Prices bursts through a fresh DDR model inside a `ddr.price`
    /// replay span.
    fn price(
        &mut self,
        meter: &mut Meter,
        accel: &AccelConfig,
        bursts: impl Iterator<Item = BurstDescriptor>,
    ) {
        let mut mem = MemorySystem::new(accel.ddr.clone(), accel.axi, accel.mem_lookahead);
        let report = meter.replay("ddr.price", |_| mem.transfer_iter(bursts));
        self.bytes += report.bytes;
    }

    /// Publishes the replay-derived layer metrics. `scale_to_steps`
    /// extrapolates sampled replays to the run's step count (the serving
    /// estimate); `None` means every step was replayed.
    fn publish(&self, meter: &Meter, pass: &mut Pass, scale_to_steps: Option<u64>) {
        if self.steps == 0 {
            return;
        }
        let k = scale_to_steps.map_or(1.0, |n| n as f64 / self.steps as f64);
        let sched_s = meter.total_s("schedule.build");
        let ddr_s = meter.total_s("ddr.price");
        pass.layers.insert("schedule.build_s", sched_s * k);
        pass.layers.insert("ddr.price_s", ddr_s * k);
        pass.layers.insert(
            "ddr.host_ns_per_sim_gb",
            ddr_s * 1e9 / (self.bytes as f64 / 1e9),
        );
        // A simulated count, but only the traced pass builds the
        // schedules it is read from.
        pass.layers.insert(
            "schedule.bursts_per_step",
            self.bursts as f64 / self.steps as f64,
        );
    }
}
