//! The gated operating points, one module per claim.
//!
//! Each module holds a point's constants, the run that both `perf_gate`
//! and the point's sweep call, and the threshold of the claim the point
//! stands for:
//!
//! * [`paged`] — paged KV admission holds ≥ 1.5× the worst-case users
//!   (`paged_sweep`, `perf_gate`'s `paged` row);
//! * [`tiered`] — flash-backed weights: a covering budget loses ≤ 5 %
//!   tok/s and schedule-aware prefetch beats blind LRU ≥ 2× at the
//!   thrash budget (`tier_sweep`, the `tiered` row);
//! * [`spec`] — speculative verify windows lift tok/s ≥ 1.5×
//!   (`spec_sweep`, the `spec` row);
//! * [`comp`] — inline DDR compression at the entropy-measured ratios
//!   lifts tok/s ≥ 1.3× (`compress_sweep`, the `comp` row).
//!
//! Moving a constant here moves the gated point and its sweep row
//! together; `bench/baseline.json` then needs a re-bless.

pub mod comp;
pub mod paged;
pub mod spec;
pub mod tiered;
