//! Quantization suite for the KV260 LLM accelerator (§IV of the paper).
//!
//! Two quantization schemes carry the entire memory-footprint story:
//!
//! * **W4A16** ([`group`], [`awq`]) — weights quantized to 4-bit integers in
//!   groups of 128 with an FP16 scale and a 4-bit zero point per group,
//!   activations kept in FP16. [`awq`] adds the activation-aware per-channel
//!   scale search of the AWQ method the paper adopts.
//! * **KV8** ([`kv8`]) — the key/value cache quantized on-chip to 8-bit as
//!   vectors are produced, with one FP16 scale and one 8-bit zero point per
//!   vector, dequantized when fetched back from DDR.
//!
//! [`error`] provides the metrics used by the accuracy experiments.
//!
//! # Example
//!
//! ```
//! use zllm_quant::group::{GroupQuantizer, GroupQuantConfig};
//!
//! let weights: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) / 64.0).collect();
//! let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&weights);
//! let back = q.dequantize();
//! let max_err = weights.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
//! assert!(max_err < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod awq;
pub mod entropy;
pub mod error;
pub mod gptq;
pub mod group;
pub mod kv8;
pub mod smooth;
