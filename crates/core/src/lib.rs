//! The KV260 LLM decoding accelerator — the paper's primary contribution,
//! reproduced as a cycle-approximate, numerically faithful simulation.
//!
//! The architecture (Fig. 5) has three units:
//!
//! * [`mcu`] — the Memory Control Unit: command generation, the 4×128-bit
//!   AXI stream merge, and the demultiplexer separating scales, zero
//!   points, weights and embeddings;
//! * [`vpu`] — the Vector Processing Unit: a 128-lane FP16 dot engine
//!   sized so one 512-bit weight beat is consumed per 300 MHz cycle,
//!   exactly matching the 19.2 GB/s memory system;
//! * [`spu`] — the Scalar Processing Unit: RoPE, RMSNorm, softmax, SiLU
//!   and the online KV quantizer, all designed to run *concurrently* with
//!   the VPU so the bandwidth-bound dense stream never stalls (§V-A).
//!
//! On top of the units sit:
//!
//! * [`image`] — the model's DDR image and the bare-metal memory map
//!   (Fig. 1);
//! * [`schedule`] — the per-token memory/compute operation schedule;
//! * [`pipeline`] — the fine-grained head-wise fused pipeline (Fig. 3) and
//!   the coarse-grained baseline it is compared against;
//! * [`trace`] — the trace-driven performance engine producing the
//!   token/s and bandwidth-utilization numbers of Tables II/III;
//! * [`tier`] — the flash-backed weight tier: schedule-aware (and
//!   strawman blind-LRU) layer prefetch policies and the per-token walk
//!   that hides flash fetches behind decode;
//! * [`functional`] — a functional FP16 decoder using the exact on-chip
//!   datapaths, validated against the f32 reference;
//! * [`resources`] / [`power`] — parametric FPGA resource and power
//!   estimates regenerating Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baremetal;
pub mod config;
pub mod converter;
pub mod functional;
pub mod image;
pub mod mcu;
pub mod pipeline;
pub mod power;
pub mod resources;
pub mod schedule;
pub mod spu;
pub mod tier;
pub mod trace;
pub mod vpu;

pub use config::AccelConfig;
pub use functional::{
    greedy_accept, AccelBatchDecoder, AccelDecoder, QuantizedModel, ShardedBatchDecoder,
};
pub use image::{split_layers, ImageSpec, KvLayout, ModelImage};
pub use schedule::{OpKind, PrefillChunk, SpecWindow};
pub use tier::{BlindLru, PrefetchPolicy, ScheduleAware, TierConfig, TierReport};
pub use trace::{DecodeEngine, DraftCost, EngineConfig, TokenReport};

/// The unified metrics registry every unit publishes into — re-exported
/// so downstream crates need no direct `zllm-telemetry` dependency.
pub use zllm_telemetry as telemetry;
