//! Software model of the FP16 datapath used by the KV260 LLM accelerator.
//!
//! The accelerator in the paper performs all dense computation in IEEE
//! binary16 ("FP16") on FPGA DSP slices, and implements the trigonometric
//! functions needed by RoPE with a 4096-entry quarter-wave sine ROM plus an
//! inverse-frequency look-up table. This crate reproduces that datapath in
//! software with per-operation rounding, so the numerical behaviour of the
//! simulated accelerator matches what the RTL would compute:
//!
//! * [`F16`] — an IEEE 754 binary16 value with round-to-nearest-even
//!   conversions and arithmetic (each operation rounds once, exactly like a
//!   hardware FP16 unit).
//! * [`lut`] — the quarter-wave sine ROM and RoPE inverse-frequency table
//!   (§VI-C of the paper, "RoPE" submodule).
//! * [`vector`] — the 128-lane multiplier array + binary adder tree + wide
//!   accumulator of the Vector Processing Unit (§VI-B), and the eight-row
//!   engine pass and W4 weight-beat builder of the functional matvec, which
//!   run at the highest ISA level the host reports (baseline x86-64, or
//!   AVX2 + F16C), chosen once at run time, with the same bits at each.
//! * [`math`] — scalar special functions (exp, sigmoid, SiLU, rsqrt) as the
//!   Scalar Processing Unit evaluates them.
//! * [`fast`] — the process-wide fast-kernel toggle and the 65,536-entry
//!   f16→f32 decode table. Fast kernels are bit-identical to the scalar
//!   path by construction and by differential test; the toggle exists so
//!   those tests can run both implementations against each other.
//!
//! # Unsafe code
//!
//! The crate denies `unsafe` everywhere but in one private module, which
//! holds the AVX2 + F16C kernels. Reaching the host's binary16 converter
//! and choosing the ISA level at run time both take `#[target_feature]`
//! functions, whose call from code built for baseline x86-64 is `unsafe`,
//! and vector loads and stores through raw pointers, which safe code has
//! no operation for. That module takes every load and store through a
//! fixed-size array reference, so its bounds are in its type, and its
//! kernels are callable only through a value that exists once the host
//! has reported both features. Every other crate of the workspace
//! forbids `unsafe` outright.
//!
//! # Example
//!
//! ```
//! use zllm_fp16::F16;
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(2.25);
//! assert_eq!((a * b).to_f32(), 3.375);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod f16;
pub mod fast;
#[allow(unsafe_code)]
mod isa;
pub mod lut;
pub mod math;
pub mod rtl;
pub mod vector;

pub use f16::{ParseF16Error, F16};
pub use fast::{fast_kernels_enabled, set_fast_kernels};
