//! Property-based stress tests over randomly drawn model geometries:
//! the image placer, schedule generator and pricing engine must uphold
//! their invariants for *any* valid small configuration, not just the
//! presets.

#![cfg(feature = "proptest")]

use proptest::prelude::*;
use zllm::accel::config::PipelineMode;
use zllm::accel::image::ModelImage;
use zllm::accel::schedule::{token_schedule, OpKind};
use zllm::accel::{AccelConfig, DecodeEngine};
use zllm::layout::weight::WeightFormat;
use zllm::model::ModelConfig;

fn arbitrary_config() -> impl Strategy<Value = ModelConfig> {
    // head_dim in {16, 32, 64}, heads 2..8, kv dividing heads, small ff.
    (
        prop_oneof![Just(16usize), Just(32), Just(64)],
        2usize..=8,
        1usize..=3,
        1usize..=4,
        64usize..=512,
    )
        .prop_map(|(head_dim, heads, kv_div, layers, ff)| {
            // Pick a kv-head count that divides heads.
            let divisors: Vec<usize> = (1..=heads).filter(|d| heads % d == 0).collect();
            let n_kv_heads = divisors[kv_div % divisors.len()];
            ModelConfig {
                name: "stress".to_owned(),
                n_layers: layers,
                d_model: head_dim * heads,
                n_heads: heads,
                n_kv_heads,
                d_ff: ff,
                vocab_size: 300,
                max_seq_len: 32,
                norm_eps: 1e-5,
                rope_base: 10000.0,
            }
        })
        .prop_filter("valid configuration", |cfg| cfg.validate().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn image_invariants_hold_for_any_geometry(cfg in arbitrary_config()) {
        let image = ModelImage::build(&cfg, WeightFormat::kv260(), 16)
            .expect("small geometry always fits 4GB");
        prop_assert!(image.map().check_invariants());
        prop_assert_eq!(image.projections().len(), cfg.n_layers * 7 + 1);
        // Every projection stream is big enough for its weights.
        for p in image.projections() {
            prop_assert!(p.beats as usize * 512 >= p.n_weights() * 4);
        }
    }

    #[test]
    fn schedule_invariants_hold_for_any_geometry(
        cfg in arbitrary_config(),
        ctx in 0usize..15,
    ) {
        let image = ModelImage::build(&cfg, WeightFormat::kv260(), 16).expect("fits");
        let fused = token_schedule(&image, ctx, PipelineMode::Fused);
        let coarse = token_schedule(&image, ctx, PipelineMode::Coarse);
        // Identical traffic, different exposure.
        prop_assert_eq!(fused.total_bytes(), coarse.total_bytes());
        prop_assert_eq!(fused.total_exposed_misc(), 0);
        prop_assert!(coarse.total_exposed_misc() > 0);
        // Weight bytes appear exactly once.
        let weight_bytes: u64 = fused
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Qkv | OpKind::Wo | OpKind::Mlp | OpKind::LmHead))
            .map(|o| o.bytes())
            .sum();
        prop_assert_eq!(weight_bytes, image.weight_stream_bytes());
    }

    #[test]
    fn pricing_respects_bounds_for_any_geometry(cfg in arbitrary_config()) {
        let mut engine = DecodeEngine::new(AccelConfig::kv260(), &cfg, 16).expect("fits");
        let r = engine.decode_token(8);
        prop_assert!(r.tokens_per_s > 0.0);
        prop_assert!(r.wall_ns >= r.mem_ns * 0.999);
        // Never faster than the bus.
        prop_assert!(r.wall_ns >= r.bytes as f64 / 19.2 * 0.999);
        // Utilization against this model's own roofline stays sub-unity.
        prop_assert!(r.bandwidth_util < 1.0, "util {}", r.bandwidth_util);
    }
}
