//! Fleet-scale pipeline-parallel serving across a simulated multi-board
//! cluster.
//!
//! One KV260 tops out near 5 tok/s because decode is bandwidth-bound, so
//! scaling to many users means a *fleet*: the 7B image sharded by layer
//! range across N boards, hidden states crossing an explicit
//! interconnect between stages, and a router spreading request streams
//! over replica pipelines. This module prices that cluster with the same
//! rigor as the single board:
//!
//! * [`interconnect`] — the board-to-board link model: per-hop latency
//!   plus bandwidth, activation transfers priced as beat-granular bursts
//!   exactly like DDR traffic and counted in telemetry under
//!   `cluster.bytes.*`;
//! * [`engine`] — [`ShardedEngine`]: one trace-driven
//!   [`zllm_accel::DecodeEngine`] per pipeline stage over a
//!   layer-range shard image ([`zllm_accel::ImageSpec::layers`]),
//!   aggregated into per-step cadence (steady-state, stages overlapped)
//!   and fill latency (first result through an empty pipeline);
//! * [`router`] — request placement over replica pipelines:
//!   join-shortest-KV and deadline-aware policies above the per-board
//!   [`crate::AdmissionController`]s, so no board is ever asked to hold
//!   KV state its Fig. 1 map could not;
//! * [`server`] — [`ClusterServer`]: the one serving event loop, N
//!   virtual-time pipelines on one discrete-event clock (the board is
//!   one pipeline of one stage), deterministic to the bit.
//!
//! The functional twin of this pricing stack is
//! [`zllm_accel::ShardedBatchDecoder`], whose logits are pinned
//! bit-identical to the single-board decoder.

pub mod engine;
pub mod interconnect;
pub mod router;
pub mod server;

pub use engine::{ClusterStepReport, ShardedEngine};
pub use interconnect::InterconnectConfig;
pub use router::{PipelineLoad, PlacementPolicy};
pub use server::{ClusterConfig, ClusterReport, ClusterServer};
