//! Consistency checks between the independent views of the system: the
//! analytic byte accounting (`zllm-model::memory`), the placed DDR image,
//! the per-token schedule, and the priced simulation.

use zllm::accel::config::PipelineMode;
use zllm::accel::image::ModelImage;
use zllm::accel::pipeline::softmax_hides;
use zllm::accel::schedule::token_schedule;
use zllm::accel::telemetry::MetricsRegistry;
use zllm::accel::{AccelConfig, AccelDecoder, DecodeEngine, OpKind, QuantizedModel};
use zllm::layout::weight::WeightFormat;
use zllm::layout::BEAT_BYTES;
use zllm::model::memory::{
    decode_bytes_per_token, kv8_cache_bytes, streamed_weight_bytes, WeightPrecision,
};
use zllm::model::{ModelConfig, ModelWeights};
use zllm::quant::group::GroupQuantConfig;

/// The schedule's total bytes must agree with the analytic
/// bytes-per-token model to within format padding and beat alignment.
#[test]
fn schedule_bytes_agree_with_analytic_model() {
    for cfg in [ModelConfig::test_small(), ModelConfig::llama2_7b()] {
        let ctx = 16;
        let image = ModelImage::build(&cfg, WeightFormat::kv260(), 64).expect("fits");
        let sched = token_schedule(&image, ctx, PipelineMode::Fused);
        let analytic = decode_bytes_per_token(&cfg, WeightPrecision::W4G128, ctx);
        let simulated = sched.total_bytes() as f64;
        let rel = (simulated - analytic).abs() / analytic;
        assert!(
            rel < 0.12,
            "{}: schedule {simulated} vs analytic {analytic} ({:.1}% apart)",
            cfg.name,
            rel * 100.0
        );
    }
}

/// KV traffic in the schedule grows exactly linearly with context.
#[test]
fn kv_traffic_is_linear_in_context() {
    let cfg = ModelConfig::test_small();
    let image = ModelImage::build(&cfg, WeightFormat::kv260(), 64).expect("fits");
    let bytes = |ctx| token_schedule(&image, ctx, PipelineMode::Fused).total_bytes() as i64;
    let d1 = bytes(20) - bytes(10);
    let d2 = bytes(30) - bytes(20);
    assert_eq!(d1, d2, "KV growth must be linear");
    // And the slope equals the per-token KV read footprint (both K and V,
    // beat-aligned).
    let per_token = 2 * cfg.n_layers as i64 * image.kv_token_bytes() as i64;
    assert_eq!(d1, 10 * per_token);
}

/// The weight-stream bytes in the image match the analytic streamed
/// weight footprint.
#[test]
fn image_weight_bytes_match_memory_model() {
    let cfg = ModelConfig::llama2_7b();
    let image = ModelImage::build(&cfg, WeightFormat::kv260(), 1024).expect("fits");
    let image_bytes = image.weight_stream_bytes() as f64;
    // Analytic model minus the FP16 embedding row it includes.
    let analytic = streamed_weight_bytes(&cfg, WeightPrecision::W4G128) - (cfg.d_model * 2) as f64;
    let rel = (image_bytes - analytic).abs() / analytic;
    assert!(rel < 0.005, "image {image_bytes} vs analytic {analytic}");
}

/// The KV region reservation covers exactly what the cache model says
/// 1024 tokens need (codes; metadata lives in its own region).
#[test]
fn kv_reservation_matches_cache_model() {
    let cfg = ModelConfig::llama2_7b();
    let image = ModelImage::build(&cfg, WeightFormat::kv260(), 1024).expect("fits");
    let reserved: u64 = (0..cfg.n_layers)
        .flat_map(|l| {
            [
                image.kv_read_burst(l, false, 1024).bytes(),
                image.kv_read_burst(l, true, 1024).bytes(),
            ]
        })
        .sum();
    let analytic = kv8_cache_bytes(&cfg, 1024);
    // Code regions only: analytic includes the 4-byte packs (~3%).
    let rel = (reserved as f64 - analytic).abs() / analytic;
    assert!(rel < 0.05, "reserved {reserved} vs analytic {analytic}");
}

/// The paper's design point obeys the softmax-hiding inequality for every
/// context its capacity supports, and the schedule relies on it.
#[test]
fn softmax_hiding_holds_across_supported_contexts() {
    let cfg = ModelConfig::llama2_7b();
    for ctx in [0usize, 128, 512, 1023] {
        assert!(softmax_hides(&cfg, ctx, 128), "violated at ctx {ctx}");
    }
}

/// Priced simulation stays between the hard roofline and zero, and the
/// wall time is never shorter than either domain's lower bound.
#[test]
fn simulation_respects_physical_bounds() {
    let mut engine =
        DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::test_small(), 32).expect("fits");
    for ctx in [0usize, 8, 31] {
        let r = engine.decode_token(ctx);
        let pl_lower_bound_ns = r.vpu_cycles as f64 * 1e3 / 300.0;
        assert!(
            r.wall_ns >= pl_lower_bound_ns * 0.999,
            "wall below PL bound at ctx {ctx}"
        );
        assert!(
            r.wall_ns >= r.mem_ns * 0.999,
            "wall below DDR time at ctx {ctx}"
        );
        let bytes_bound_ns = r.bytes as f64 / 19.2;
        assert!(
            r.wall_ns >= bytes_bound_ns * 0.999,
            "faster than the bus at ctx {ctx}"
        );
    }
}

/// The functional decoder and the priced schedule account for the same
/// work at batch one. Per step: the schedule's weight beats are the
/// functional decoder's dequantized beats plus the format's interleaved
/// zero and scale beats; attention dots cover the history the schedule
/// reads plus the current token, whose K and V stay on chip; and the
/// scale-zero packs and flushes match the image's streams and the
/// schedule's metadata bursts. Contexts 0-17 cross one 16-token window.
#[test]
fn functional_decoder_and_schedule_agree_at_batch_one() {
    let cfg = ModelConfig::test_small();
    let accel = AccelConfig::kv260();
    let fmt = accel.format;
    let qm = QuantizedModel::quantize(
        &ModelWeights::generate(&cfg, 11),
        GroupQuantConfig::w4_g128(),
    );
    let mut reg = MetricsRegistry::new();
    let mut dec = AccelDecoder::with_metrics(&qm, &mut reg);
    let image = ModelImage::build(&cfg, fmt, 32).expect("fits");

    let names = [
        "vpu.dequant_beats",
        "vpu.dot_beats",
        "kv_pack.flushed_beats",
        "kv_pack.packs",
    ];
    let read = |reg: &MetricsRegistry| names.map(|n| reg.counter_value(n).expect("published"));
    let code_beats = (fmt.groups_per_superblock() * fmt.weight_beats_per_group()) as u64;
    let streams = (2 * image.model().n_layers * image.model().n_kv_heads) as u64;
    let mut flushes = 0;
    for ctx in 0..18 {
        let before = read(&reg);
        dec.forward(ctx % cfg.vocab_size);
        let after = read(&reg);
        let [dequant, dot, flushed, packs] = [0, 1, 2, 3].map(|i| after[i] - before[i]);

        let sched = token_schedule(&image, ctx, PipelineMode::Fused);
        let (mut weight_beats, mut kv_read_beats, mut flush_bytes) = (0, 0, 0);
        for op in &sched.ops {
            match op.kind {
                OpKind::Qkv | OpKind::Wo | OpKind::Mlp | OpKind::LmHead => {
                    weight_beats += op.vpu_beats
                }
                OpKind::KvRead => kv_read_beats += op.vpu_beats,
                OpKind::KvMetaFlush => flush_bytes += op.bytes(),
                _ => {}
            }
        }

        assert_eq!(
            weight_beats * code_beats,
            dequant * fmt.superblock_beats() as u64,
            "ctx {ctx}: weight beats {weight_beats} vs dequantized beats {dequant}"
        );
        let attention_dots =
            cfg.n_layers * cfg.n_heads * cfg.head_dim().div_ceil(accel.lanes) * (ctx + 1);
        assert_eq!(
            dot - dequant,
            attention_dots as u64,
            "ctx {ctx}: attention dots"
        );
        let kv_reads = cfg.n_layers * 2 * cfg.kv_dim().div_ceil(BEAT_BYTES) * ctx;
        assert_eq!(
            kv_read_beats, kv_reads as u64,
            "ctx {ctx}: KV history beats"
        );
        assert_eq!(
            flushed,
            flush_bytes / BEAT_BYTES as u64,
            "ctx {ctx}: flushes"
        );
        assert_eq!(packs, streams, "ctx {ctx}: scale-zero packs");
        if flushed > 0 {
            assert_eq!(flushed, streams, "ctx {ctx}: one beat per stream");
            flushes += 1;
        }
    }
    assert_eq!(flushes, 1, "contexts 0-17 complete one 16-token window");
}
