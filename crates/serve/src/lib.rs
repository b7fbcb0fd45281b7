//! The request-level serving layer over the decode engines.
//!
//! The paper's Fig. 1 memory map leaves 93.3 % of the 4 GB DDR to
//! weights plus KV cache, so once several users share the board the
//! binding resource is KV *capacity*, not just bandwidth. This crate
//! models the serving stack an edge deployment would put on top of the
//! accelerator:
//!
//! * [`request`] — the request/sequence lifecycle (arrival, prompt, new
//!   tokens, deadline class) and per-request outcome records;
//! * [`traffic`] — a deterministic synthetic traffic generator (Poisson
//!   and bursty arrivals) seeded through `zllm-rng`;
//! * [`admission`] — the KV-capacity-aware admission controller: every
//!   admission reserves its worst-case KV footprint against the image's
//!   KV budget, requests queue FIFO within deadline class, and nothing
//!   is ever placed that the Fig. 1 map could not hold;
//! * [`cluster`] — the fleet layer: the model sharded by layer range
//!   across N simulated boards behind an explicit interconnect model,
//!   replica pipelines on one shared virtual clock, and request
//!   placement policies (join-shortest-KV, deadline-aware) above the
//!   per-pipeline admission controllers;
//! * [`server`] — the virtual-time serving simulator: continuous
//!   batching (per-sequence context, join/leave between steps, chunked
//!   prefill sharing the weight stream across the prompt dimension)
//!   against the lockstep gang-scheduling baseline.
//!
//! One event loop serves both the board and the fleet: [`ClusterServer`]
//! advances every pipeline on one discrete-event clock, and [`Server`] is
//! a fleet of one pipeline of one stage. Each pipeline runs one private
//! scheduling core (request quoting, contiguous and paged admission,
//! reclaim, prefill planning, page growth, token booking and retirement),
//! and the loop prices the planned steps on the pipeline's engine.
//!
//! Everything is deterministic: the same trace on the same configuration
//! reproduces every latency and counter bit for bit, which is what lets
//! the perf gate pin serving metrics in `bench/baseline.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cluster;
pub mod request;
mod sched;
pub mod server;
pub mod traffic;

pub use admission::{AdmissionConfig, AdmissionController, Granted, Rejection};
pub use cluster::{
    ClusterConfig, ClusterReport, ClusterServer, InterconnectConfig, PlacementPolicy, ShardedEngine,
};
pub use request::{DeadlineClass, DropReason, Request, RequestOutcome};
pub use server::{BatchingMode, PagedConfig, ServeReport, Server, ServerConfig, SpeculationConfig};
pub use traffic::{generate, ArrivalModel, TrafficConfig};
