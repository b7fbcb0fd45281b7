//! `functional_decode`: `AccelBatchDecoder` prefill and decode of a
//! synthetic AWQ-quantized model at a fixed batch, teacher-forced with
//! seeded tokens, checked against the `zllm-model` f32 reference. It is
//! the host-speed coverage of the fp16/quant kernels and bypasses DDR
//! pricing entirely, so a DDR or schedule optimization must leave it
//! unchanged.

use super::Scale;
use crate::meter::Meter;
use crate::{ratio, Fingerprint, Pass};
use zllm_accel::converter::{convert, PtqMethod};
use zllm_accel::AccelBatchDecoder;
use zllm_model::calibration::capture;
use zllm_model::kv_cache::KvCacheF32;
use zllm_model::reference::Decoder;
use zllm_model::{ModelConfig, ModelWeights};
use zllm_quant::group::GroupQuantConfig;
use zllm_rng::StdRng;

/// Sequences decoded in lockstep.
const BATCH: usize = 4;
/// Prompt tokens per sequence.
const PROMPT: usize = 8;
/// Calibration tokens for AWQ.
const CALIB: usize = 24;

/// The synthetic model: LLaMA-shaped, small enough to quantize and decode
/// in well under a second per pass.
fn model(scale: Scale) -> ModelConfig {
    match scale {
        Scale::Full => ModelConfig {
            name: "perfbench-functional".to_owned(),
            n_layers: 4,
            d_model: 256,
            n_heads: 4,
            n_kv_heads: 4,
            d_ff: 768,
            vocab_size: 2048,
            max_seq_len: 128,
            norm_eps: 1e-5,
            rope_base: 10000.0,
        },
        Scale::Tiny => ModelConfig::test_small(),
    }
}

/// Argmax index (first of equals).
fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

pub(super) fn pass(seed: u64, scale: Scale, meter: &mut Meter) -> Pass {
    let cfg = model(scale);
    let decode_steps = match scale {
        Scale::Full => 8,
        Scale::Tiny => 2,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut token = || rng.below(cfg.vocab_size as u64) as usize;
    let calib_tokens: Vec<usize> = (0..CALIB).map(|_| token()).collect();
    // Step-major, as `prefill_batch` and `decode_batch` take them.
    let prompt: Vec<Vec<usize>> = (0..PROMPT)
        .map(|_| (0..BATCH).map(|_| token()).collect())
        .collect();
    let steps: Vec<Vec<usize>> = (0..decode_steps)
        .map(|_| (0..BATCH).map(|_| token()).collect())
        .collect();

    let (weights, qm) = meter.setup(1, |m| {
        m.span("functional.quantize", |_| {
            let weights = ModelWeights::generate(&cfg, seed);
            let calib = capture(&weights, &calib_tokens);
            let qm = convert(
                &weights,
                &calib,
                GroupQuantConfig::w4_g128(),
                PtqMethod::Awq,
            );
            (weights, qm)
        })
    });
    // Scratch and KV allocation only; not part of the timed set-up.
    let mut decoder = AccelBatchDecoder::new(&qm, BATCH);

    let mut step_samples = Vec::with_capacity(PROMPT + steps.len());
    // logits[p][s]: position p's logits for sequence s (p = 0 is the
    // prompt's last position).
    let logits: Vec<Vec<Vec<f32>>> = meter.measured(|meter| {
        // Prefill in one-position chunks, each timed alone, so that every
        // prompt position is a step sample beside the decode steps.
        let mut prefill = Vec::new();
        for chunk in prompt.chunks(1) {
            let (logits, timed) =
                meter.time(|m| m.span("functional.prefill", |_| decoder.prefill_batch(chunk)));
            prefill = logits;
            step_samples.push(timed);
        }
        let mut out = vec![prefill];
        for step in &steps {
            let (logits, timed) =
                meter.time(|m| m.span("functional.decode", |_| decoder.decode_batch(step)));
            out.push(logits);
            step_samples.push(timed);
        }
        out
    });

    let mut fp = Fingerprint::default();
    for v in logits.iter().flatten().flatten() {
        fp.word(v.to_bits() as u64);
    }
    // The f32 reference, fed the same tokens, outside the measured part.
    let mut matches = 0u64;
    for s in 0..BATCH {
        let mut reference = Decoder::new(&weights, KvCacheF32::new(&cfg));
        let seq_prompt: Vec<usize> = prompt.iter().map(|step| step[s]).collect();
        let mut ref_logits = vec![reference.prefill(&seq_prompt)];
        ref_logits.extend(steps.iter().map(|step| reference.forward(step[s])));
        for (p, r) in ref_logits.iter().enumerate() {
            matches += u64::from(argmax(r) == argmax(&logits[p][s]));
        }
    }
    let positions = (BATCH * logits.len()) as u64;
    let mut pass = Pass {
        ops: (BATCH * (PROMPT + decode_steps)) as u64,
        steps: (PROMPT + decode_steps) as u64,
        step_samples,
        ..Pass::default()
    };
    pass.sim.insert("ref_top1_match", ratio(matches, positions));
    pass.fingerprint = fp.finish();
    if meter.tracing() {
        for (metric, span) in [
            ("functional.quantize_s", "functional.quantize"),
            ("functional.prefill_s", "functional.prefill"),
            ("functional.decode_s", "functional.decode"),
        ] {
            pass.layers.insert(metric, meter.total_s(span));
        }
    }
    pass
}
