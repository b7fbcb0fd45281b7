//! Output pins for the offline converter.
//!
//! `tests/determinism.rs` checks that each quantizer is deterministic and
//! that its fast and reference kernels agree, but not that a change to a
//! quantizer leaves its output where it was. Each case here converts one
//! seeded model and folds the whole `QuantizedModel`'s `Debug` text
//! (codes, FP16 scales, zero points, folded norms, embeddings) into one
//! FNV-1a hash, so a kernel rewrite that moves a single code moves the
//! pin. Re-record a pin only for a change that is meant to move the
//! converter's output, and say which one.

use std::fmt::Write;
use zllm::accel::converter::{convert, PtqMethod};
use zllm::model::calibration::capture;
use zllm::model::{ModelConfig, ModelWeights};
use zllm::quant::group::GroupQuantConfig;
use zllm_rng::StdRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a over formatted text, folded as it is written, so the model's
/// tens of megabytes of `Debug` text are never held at once.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = s
            .bytes()
            .fold(self.0, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME));
        Ok(())
    }
}

/// Converts a model generated from `seed`, calibrated on `calib` seeded
/// tokens, and hashes the result's `Debug` text.
fn pin(cfg: &ModelConfig, seed: u64, calib: usize, method: PtqMethod) -> u64 {
    let weights = ModelWeights::generate(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let tokens: Vec<usize> = (0..calib)
        .map(|_| rng.below(cfg.vocab_size as u64) as usize)
        .collect();
    let qm = convert(
        &weights,
        &capture(&weights, &tokens),
        GroupQuantConfig::w4_g128(),
        method,
    );
    let mut h = Fnv(FNV_OFFSET);
    write!(h, "{qm:?}").expect("hashing cannot fail");
    h.0
}

fn check(case: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{case}: pin moved to {got:#018x}");
}

/// The functional benchmark's model: 4 layers, d_model 256, d_ff 768.
fn perfbench_shaped() -> ModelConfig {
    ModelConfig {
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
    }
}

#[test]
fn rtn_test_small_is_pinned() {
    let got = pin(&ModelConfig::test_small(), 41, 8, PtqMethod::Rtn);
    check("RTN test_small", got, 0x0c8c_5cd2_6652_af3e);
}

#[test]
fn awq_test_small_is_pinned() {
    let got = pin(&ModelConfig::test_small(), 42, 17, PtqMethod::Awq);
    check("AWQ test_small", got, 0x535d_c212_9b20_2dbd);
}

#[test]
fn gptq_test_small_is_pinned() {
    let got = pin(&ModelConfig::test_small(), 43, 12, PtqMethod::Gptq);
    check("GPTQ test_small", got, 0x2c93_afff_4efc_7b1b);
}

#[test]
fn awq_test_small_gqa_is_pinned() {
    let got = pin(&ModelConfig::test_small_gqa(), 44, 13, PtqMethod::Awq);
    check("AWQ test_small_gqa", got, 0x3f5f_52a6_ccf2_9007);
}

#[test]
fn awq_perfbench_shaped_model_is_pinned() {
    let got = pin(&perfbench_shaped(), 45, 24, PtqMethod::Awq);
    check("AWQ perfbench-shaped", got, 0xfaa0_743c_f401_a4c6);
}
