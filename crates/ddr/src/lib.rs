//! Command-level DDR4 + AXI memory-subsystem simulator for the KV260.
//!
//! LLM decoding on the KV260 is entirely bandwidth-bound, so the fidelity
//! that matters is *how sustained bandwidth depends on the access pattern*:
//! burst length, address continuity, row locality, bank parallelism and
//! refresh. This crate models the PS DDR4 controller and the PL-side AXI
//! fabric at the command level:
//!
//! * [`config`] — DDR4-2400 timing and organization parameters and the
//!   PS↔PL AXI fabric geometry (4 × 128-bit HP ports at 300 MHz).
//! * [`controller`] — an open-page, in-order controller with per-bank row
//!   state, activate pacing (tRRD/tFAW), refresh, bus turnaround and a
//!   configurable read-queue lookahead that spans the range from a
//!   latency-bound single-outstanding master to a deeply pipelined
//!   datamover.
//! * [`system`] — [`system::MemorySystem`] glues the controller to the AXI
//!   fabric and prices whole burst streams, producing the bandwidth and
//!   efficiency numbers the experiments report.
//! * [`compress`] — the optional inline (de)compression stage a
//!   [`system::MemorySystem`] holds in front of its controller: classed
//!   bursts cross the bus at their compressed size, pay page-map
//!   metadata and a cut-through decompressor stall.
//! * [`traffic`] — address-stream generators for the microbenchmarks.
//! * [`flash`] / [`tiered`] — the storage tier below DDR: an eMMC/NVMe
//!   device model and [`tiered::stage_fetch`], which prices layer fetches
//!   flash→DDR as explicit bursts on both buses so models bigger than the
//!   board can stream their weights through a DDR-resident cache.
//!
//! One 512-bit PL beat equals one BL8 column access on the 64-bit DRAM bus,
//! so the two clock domains are bandwidth-matched at 19.2 GB/s — exactly
//! the balance the paper's MCU is designed around.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod config;
pub mod controller;
pub mod flash;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod tiered;
pub mod traffic;

pub use compress::{CompressionConfig, StreamClass, StreamRatio};
pub use config::{AxiConfig, DdrConfig};
pub use controller::DdrController;
pub use flash::{FlashConfig, FlashDevice, FlashStats, FlashTransfer};
pub use stats::DdrStats;
pub use system::{MemorySystem, TransferReport};
pub use telemetry::DdrCounters;
pub use tiered::{stage_fetch, TierFetch};
