//! Language-model quality evaluation: cross-entropy and perplexity.
//!
//! The paper's quantization choices (§IV: W4A16 over W8A8, KV8 over KV4)
//! rest on accuracy arguments. Trained checkpoints and benchmark suites
//! are unavailable offline, so quality is measured *relative to the f32
//! reference model on self-generated text*: the reference model samples a
//! corpus, and each quantized variant is scored by how well it predicts
//! that corpus. Degradation caused purely by quantization then shows up
//! as a perplexity gap against the reference's own score.

use crate::config::ModelConfig;
use crate::kv_cache::KvCacheF32;
use crate::reference::Decoder;
use crate::sampler::TopKSampler;
use crate::weights::ModelWeights;

/// Cross-entropy (nats) of predicting `target` from `logits`.
///
/// # Panics
///
/// Panics if `logits` is empty or `target` is out of range.
pub fn cross_entropy(logits: &[f32], target: usize) -> f64 {
    assert!(!logits.is_empty(), "empty logits");
    assert!(target < logits.len(), "target out of range");
    // Stable log-softmax.
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    let log_z = logits
        .iter()
        .map(|&l| ((l as f64) - m).exp())
        .sum::<f64>()
        .ln()
        + m;
    log_z - logits[target] as f64
}

/// Scores a decoder over a token sequence: mean cross-entropy of
/// predicting each next token, via a caller-supplied step function
/// (`forward(token) -> logits`).
///
/// # Panics
///
/// Panics if `tokens` has fewer than two elements.
pub fn mean_cross_entropy<F>(mut forward: F, tokens: &[usize]) -> f64
where
    F: FnMut(usize) -> Vec<f32>,
{
    assert!(tokens.len() >= 2, "need at least two tokens to score");
    let mut total = 0.0;
    let mut count = 0usize;
    for pair in tokens.windows(2) {
        let logits = forward(pair[0]);
        total += cross_entropy(&logits, pair[1]);
        count += 1;
    }
    total / count as f64
}

/// Perplexity from a mean cross-entropy in nats.
pub fn perplexity(mean_ce: f64) -> f64 {
    mean_ce.exp()
}

/// Samples a corpus from the reference model itself (temperature +
/// top-k), giving text the reference predicts well — the baseline every
/// quantized variant is compared against.
///
/// # Panics
///
/// Panics if `len` is zero.
pub fn sample_corpus(weights: &ModelWeights, seed: u64, len: usize) -> Vec<usize> {
    assert!(len > 0, "empty corpus requested");
    let cfg: &ModelConfig = weights.config();
    let mut decoder = Decoder::new(weights, KvCacheF32::new(cfg));
    let mut sampler = TopKSampler::new(16, 1.0, seed);
    let mut tokens = vec![(seed as usize) % cfg.vocab_size];
    let mut logits = decoder.forward(tokens[0]);
    while tokens.len() < len.min(cfg.max_seq_len) {
        let t = sampler.sample(&logits);
        tokens.push(t);
        if tokens.len() < len.min(cfg.max_seq_len) {
            logits = decoder.forward(t);
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv_cache::KvCacheQ8;

    #[test]
    fn cross_entropy_of_certain_prediction_is_small() {
        let mut logits = vec![-10.0f32; 8];
        logits[3] = 10.0;
        assert!(cross_entropy(&logits, 3) < 1e-6);
        assert!(cross_entropy(&logits, 0) > 10.0);
    }

    #[test]
    fn uniform_logits_give_log_vocab() {
        let logits = vec![0.0f32; 64];
        let ce = cross_entropy(&logits, 5);
        assert!((ce - (64f64).ln()).abs() < 1e-9);
        assert!((perplexity(ce) - 64.0).abs() < 1e-6);
    }

    #[test]
    fn corpus_is_deterministic_and_in_vocab() {
        let cfg = ModelConfig::test_small();
        let w = ModelWeights::generate(&cfg, 4);
        let a = sample_corpus(&w, 9, 20);
        let b = sample_corpus(&w, 9, 20);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert!(a.iter().all(|&t| t < cfg.vocab_size));
        assert_ne!(a, sample_corpus(&w, 10, 20));
    }

    #[test]
    fn reference_scores_better_than_chance_on_own_text() {
        let cfg = ModelConfig::test_small();
        let w = ModelWeights::generate(&cfg, 5);
        let corpus = sample_corpus(&w, 11, 24);
        let mut dec = Decoder::new(&w, KvCacheF32::new(&cfg));
        let ce = mean_cross_entropy(|t| dec.forward(t), &corpus);
        let chance = (cfg.vocab_size as f64).ln();
        assert!(
            ce < chance,
            "self-scored CE {ce} should beat chance {chance}"
        );
    }

    #[test]
    fn kv8_barely_moves_cross_entropy_kv2_wrecks_it() {
        let cfg = ModelConfig::test_small();
        let w = ModelWeights::generate(&cfg, 6);
        let corpus = sample_corpus(&w, 3, 20);

        let score = |bits: Option<u32>| {
            let corpus = corpus.clone();
            match bits {
                None => {
                    let mut d = Decoder::new(&w, KvCacheF32::new(&cfg));
                    mean_cross_entropy(|t| d.forward(t), &corpus)
                }
                Some(b) => {
                    let mut d = Decoder::new(&w, KvCacheQ8::with_bits(&cfg, b));
                    mean_cross_entropy(|t| d.forward(t), &corpus)
                }
            }
        };
        let exact = score(None);
        let kv8 = score(Some(8));
        let kv2 = score(Some(2));
        assert!(
            (kv8 - exact).abs() < 0.05,
            "KV8 gap too large: {kv8} vs {exact}"
        );
        assert!(kv2 > kv8, "KV2 ({kv2}) should degrade past KV8 ({kv8})");
    }
}
