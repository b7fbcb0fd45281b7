//! `tiered_thrash`: LLaMA2-7B behind an eMMC flash tier with a layer-weight
//! budget of 3.4 of its largest layers, under the schedule-aware
//! prefetcher. Write-forced staging bursts sit beside the decode reads on
//! the DDR controller and cause turnarounds; the tier walk and the flash
//! model only do work here.

use super::{single_sequence_pass, Scale, CTX_END};
use crate::meter::Meter;
use crate::Pass;
use zllm_accel::{AccelConfig, DecodeEngine, ModelImage, TierConfig};
use zllm_ddr::FlashConfig;
use zllm_model::ModelConfig;

/// Slices of the generation, one run of tokens each.
const SEGMENTS: usize = 4;
/// Layer-weight budget in multiples of the largest layer.
const BUDGET_LAYERS: f64 = 3.4;

pub(super) fn pass(seed: u64, scale: Scale, meter: &mut Meter) -> Pass {
    let run = match scale {
        Scale::Full => 2,
        Scale::Tiny => 1,
    };
    let accel = AccelConfig::kv260();
    let (pass, _) = single_sequence_pass(seed, meter, SEGMENTS, run, |m| {
        let image = m.span("image.build", |_| {
            ModelImage::build_tiered(&ModelConfig::llama2_7b(), accel.format, CTX_END)
                .expect("LLaMA2-7B fits a virtual map")
        });
        let largest = (0..image.model().n_layers)
            .map(|l| image.layer_weight_bytes(l))
            .max()
            .expect("model has layers");
        let budget = (BUDGET_LAYERS * largest as f64) as u64;
        DecodeEngine::with_image_tiered(
            accel.clone(),
            image,
            TierConfig::schedule_aware(FlashConfig::emmc_hs400(), budget),
        )
    });
    pass
}
