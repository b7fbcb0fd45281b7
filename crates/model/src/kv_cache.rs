//! Key/value caches: exact f32 and KV8-quantized.
//!
//! The cache stores one K vector and one V vector per (layer, kv-head,
//! token). [`KvStore`] abstracts over precision so the reference decoder
//! can run with either and the KV8 accuracy cost can be measured directly.

use crate::config::ModelConfig;
use zllm_quant::kv8::{quantize_kv_bits, QuantizedKv};

/// Storage interface for per-token K/V head vectors.
pub trait KvStore {
    /// Appends the current token's K and V (each `kv_dim` long, laid out
    /// head-major) for one layer. Must be called once per layer per token,
    /// layers in order.
    fn append(&mut self, layer: usize, k: &[f32], v: &[f32]);

    /// Number of cached tokens.
    fn len(&self) -> usize;

    /// `true` if no tokens are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The K vector of (layer, token, kv-head), dequantized if necessary.
    fn key(&self, layer: usize, token: usize, head: usize) -> Vec<f32>;

    /// The V vector of (layer, token, kv-head).
    fn value(&self, layer: usize, token: usize, head: usize) -> Vec<f32>;

    /// Writes the K vector of (layer, token, kv-head) into `out` (cleared
    /// first). The default delegates to [`KvStore::key`]; implementations
    /// override it to skip the per-call allocation — values are identical
    /// either way.
    fn key_into(&self, layer: usize, token: usize, head: usize, out: &mut Vec<f32>) {
        let k = self.key(layer, token, head);
        out.clear();
        out.extend_from_slice(&k);
    }

    /// Writes the V vector of (layer, token, kv-head) into `out` (cleared
    /// first); the allocation-free counterpart of [`KvStore::value`].
    fn value_into(&self, layer: usize, token: usize, head: usize, out: &mut Vec<f32>) {
        let v = self.value(layer, token, head);
        out.clear();
        out.extend_from_slice(&v);
    }
}

/// Exact f32 cache.
#[derive(Debug, Clone)]
pub struct KvCacheF32 {
    head_dim: usize,
    n_kv_heads: usize,
    /// Per layer: flat `tokens × kv_dim` buffers.
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
    tokens: usize,
}

impl KvCacheF32 {
    /// Creates an empty cache for a model.
    pub fn new(config: &ModelConfig) -> KvCacheF32 {
        KvCacheF32 {
            head_dim: config.head_dim(),
            n_kv_heads: config.n_kv_heads,
            keys: vec![Vec::new(); config.n_layers],
            values: vec![Vec::new(); config.n_layers],
            tokens: 0,
        }
    }
}

impl KvStore for KvCacheF32 {
    fn append(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        let kv_dim = self.head_dim * self.n_kv_heads;
        assert_eq!(k.len(), kv_dim, "K length mismatch");
        assert_eq!(v.len(), kv_dim, "V length mismatch");
        self.keys[layer].extend_from_slice(k);
        self.values[layer].extend_from_slice(v);
        if layer == self.keys.len() - 1 {
            self.tokens += 1;
        }
    }

    fn len(&self) -> usize {
        self.tokens
    }

    fn key(&self, layer: usize, token: usize, head: usize) -> Vec<f32> {
        let kv_dim = self.head_dim * self.n_kv_heads;
        let base = token * kv_dim + head * self.head_dim;
        self.keys[layer][base..base + self.head_dim].to_vec()
    }

    fn value(&self, layer: usize, token: usize, head: usize) -> Vec<f32> {
        let kv_dim = self.head_dim * self.n_kv_heads;
        let base = token * kv_dim + head * self.head_dim;
        self.values[layer][base..base + self.head_dim].to_vec()
    }

    fn key_into(&self, layer: usize, token: usize, head: usize, out: &mut Vec<f32>) {
        let kv_dim = self.head_dim * self.n_kv_heads;
        let base = token * kv_dim + head * self.head_dim;
        out.clear();
        out.extend_from_slice(&self.keys[layer][base..base + self.head_dim]);
    }

    fn value_into(&self, layer: usize, token: usize, head: usize, out: &mut Vec<f32>) {
        let kv_dim = self.head_dim * self.n_kv_heads;
        let base = token * kv_dim + head * self.head_dim;
        out.clear();
        out.extend_from_slice(&self.values[layer][base..base + self.head_dim]);
    }
}

/// KV8-quantized cache: one [`QuantizedKv`] per (layer, token, head) per
/// K/V, exactly the granularity the accelerator's on-chip quantizer uses.
///
/// The code width defaults to the paper's 8 bits; [`KvCacheQ8::with_bits`]
/// supports the KV4 ablation of §IV-B.
#[derive(Debug, Clone)]
pub struct KvCacheQ8 {
    head_dim: usize,
    n_kv_heads: usize,
    bits: u32,
    /// `keys[layer][token * n_kv_heads + head]`.
    keys: Vec<Vec<QuantizedKv>>,
    values: Vec<Vec<QuantizedKv>>,
    tokens: usize,
}

impl KvCacheQ8 {
    /// Creates an empty 8-bit cache for a model.
    pub fn new(config: &ModelConfig) -> KvCacheQ8 {
        KvCacheQ8::with_bits(config, 8)
    }

    /// Creates an empty cache with an explicit code width (1..=8 bits).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 8.
    pub fn with_bits(config: &ModelConfig, bits: u32) -> KvCacheQ8 {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        KvCacheQ8 {
            head_dim: config.head_dim(),
            n_kv_heads: config.n_kv_heads,
            bits,
            keys: vec![Vec::new(); config.n_layers],
            values: vec![Vec::new(); config.n_layers],
            tokens: 0,
        }
    }

    /// The code width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl KvStore for KvCacheQ8 {
    fn append(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        let kv_dim = self.head_dim * self.n_kv_heads;
        assert_eq!(k.len(), kv_dim, "K length mismatch");
        assert_eq!(v.len(), kv_dim, "V length mismatch");
        for h in 0..self.n_kv_heads {
            let lo = h * self.head_dim;
            let hi = lo + self.head_dim;
            self.keys[layer].push(quantize_kv_bits(&k[lo..hi], self.bits));
            self.values[layer].push(quantize_kv_bits(&v[lo..hi], self.bits));
        }
        if layer == self.keys.len() - 1 {
            self.tokens += 1;
        }
    }

    fn len(&self) -> usize {
        self.tokens
    }

    fn key(&self, layer: usize, token: usize, head: usize) -> Vec<f32> {
        self.keys[layer][token * self.n_kv_heads + head].dequantize()
    }

    fn value(&self, layer: usize, token: usize, head: usize) -> Vec<f32> {
        self.values[layer][token * self.n_kv_heads + head].dequantize()
    }

    fn key_into(&self, layer: usize, token: usize, head: usize, out: &mut Vec<f32>) {
        self.keys[layer][token * self.n_kv_heads + head].dequantize_into(out);
    }

    fn value_into(&self, layer: usize, token: usize, head: usize, out: &mut Vec<f32>) {
        self.values[layer][token * self.n_kv_heads + head].dequantize_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kv(cfg: &ModelConfig, token: usize) -> (Vec<f32>, Vec<f32>) {
        let kv_dim = cfg.kv_dim();
        let k = (0..kv_dim)
            .map(|i| ((i + token * 7) as f32 * 0.37).sin())
            .collect();
        let v = (0..kv_dim)
            .map(|i| ((i + token * 3) as f32 * 0.21).cos())
            .collect();
        (k, v)
    }

    #[test]
    fn f32_cache_roundtrips_exactly() {
        let cfg = ModelConfig::test_small();
        let mut cache = KvCacheF32::new(&cfg);
        assert!(cache.is_empty());
        for t in 0..3 {
            let (k, v) = sample_kv(&cfg, t);
            for layer in 0..cfg.n_layers {
                cache.append(layer, &k, &v);
            }
        }
        assert_eq!(cache.len(), 3);
        let (k, _) = sample_kv(&cfg, 1);
        let head = 2;
        let d = cfg.head_dim();
        assert_eq!(cache.key(0, 1, head), k[head * d..(head + 1) * d].to_vec());
    }

    #[test]
    fn q8_cache_approximates_f32() {
        let cfg = ModelConfig::test_small();
        let mut exact = KvCacheF32::new(&cfg);
        let mut quant = KvCacheQ8::new(&cfg);
        for t in 0..4 {
            let (k, v) = sample_kv(&cfg, t);
            for layer in 0..cfg.n_layers {
                exact.append(layer, &k, &v);
                quant.append(layer, &k, &v);
            }
        }
        assert_eq!(quant.len(), 4);
        for head in 0..cfg.n_kv_heads {
            let a = exact.value(1, 2, head);
            let b = quant.value(1, 2, head);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 0.01, "{x} vs {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "K length mismatch")]
    fn append_validates_length() {
        let cfg = ModelConfig::test_small();
        let mut cache = KvCacheF32::new(&cfg);
        cache.append(0, &[0.0; 3], &[0.0; 3]);
    }
}
