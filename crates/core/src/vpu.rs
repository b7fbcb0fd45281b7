//! The Vector Processing Unit (Fig. 5B): dequantizer + 128-lane FP16 dot
//! engine with adder tree, scaling multiplier and accumulator.
//!
//! The paper deliberately builds a *vector* engine rather than a matrix
//! engine: decoding is bandwidth-bound, so 128 multipliers — exactly one
//! dequantized 512-bit weight beat per cycle — saturate the memory system
//! with no idle compute (§VI-B, "bandwidth-area balanced").

use zllm_fp16::vector::{DotEngine, DotScratch, TreePrecision};
use zllm_fp16::F16;
use zllm_telemetry::{Counter, MetricsRegistry};

/// One beat of dequantized weights with its group scale/zero already
/// applied — the exact operand the multiplier array receives.
pub type WeightBeat = Vec<F16>;

/// The VPU model.
///
/// # Example
///
/// ```
/// use zllm_accel::vpu::Vpu;
/// use zllm_fp16::F16;
///
/// let vpu = Vpu::kv260();
/// let w = vec![F16::ONE; 128];
/// let x = vec![F16::from_f32(0.5); 128];
/// let y = vpu.dot(&w, &x);
/// assert_eq!(y, 64.0);
/// ```
#[derive(Debug, Clone)]
pub struct Vpu {
    engine: DotEngine,
    counters: VpuCounters,
}

/// Telemetry handles for the VPU datapath. Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct VpuCounters {
    /// Dot-engine invocations (one weight beat each).
    pub dot_beats: Counter,
    /// Weight beats dequantized.
    pub dequant_beats: Counter,
}

impl VpuCounters {
    /// Free-standing counters, not visible in any registry.
    pub fn detached() -> VpuCounters {
        VpuCounters {
            dot_beats: Counter::detached(),
            dequant_beats: Counter::detached(),
        }
    }

    /// Registers the counter set under `prefix` (e.g. `"vpu"` yields
    /// `vpu.dot_beats` and `vpu.dequant_beats`).
    pub fn register(reg: &mut MetricsRegistry, prefix: &str) -> VpuCounters {
        VpuCounters {
            dot_beats: reg.counter(&format!("{prefix}.dot_beats")),
            dequant_beats: reg.counter(&format!("{prefix}.dequant_beats")),
        }
    }
}

impl Vpu {
    /// The paper's VPU: 128 lanes, wide accumulation.
    pub fn kv260() -> Vpu {
        Vpu::new(128, TreePrecision::Fp32)
    }

    /// A VPU with explicit lane count/precision (for ablations).
    pub fn new(lanes: usize, precision: TreePrecision) -> Vpu {
        Vpu::with_counters(lanes, precision, VpuCounters::detached())
    }

    /// A VPU publishing into the given telemetry handles (see
    /// [`VpuCounters::register`]).
    pub fn with_counters(lanes: usize, precision: TreePrecision, counters: VpuCounters) -> Vpu {
        Vpu {
            engine: DotEngine::new(lanes, precision),
            counters,
        }
    }

    /// The telemetry handles this VPU publishes into.
    pub fn counters(&self) -> &VpuCounters {
        &self.counters
    }

    /// Lane count.
    pub fn lanes(&self) -> usize {
        self.engine.lanes()
    }

    /// One engine invocation: dot of up to `lanes` pairs, result in the
    /// wide accumulator domain (f32).
    pub fn dot(&self, w: &[F16], x: &[F16]) -> f32 {
        self.counters.dot_beats.inc();
        self.engine.dot(w, x).to_f32()
    }

    /// One engine pass over a tile of up to eight weight rows, lane
    /// interleaved with their activations (see
    /// [`zllm_fp16::vector::DotEngine::dot8_f32_with`]), with
    /// caller-provided engine scratch. Counts `rows` dot beats, one per
    /// real row: a partial tile pads its missing rows with +0.0 weights,
    /// whose results the caller drops. Result `r` is bit-identical to
    /// [`Vpu::dot`] on row `r`'s F16 operands.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 8` or the operands do not fit one beat.
    pub fn dot8_f32(
        &self,
        scratch: &mut DotScratch,
        rows: usize,
        w8: &[f32],
        x8: &[f32],
    ) -> [f32; 8] {
        assert!(rows <= 8, "a tile holds at most eight rows");
        self.counters.dot_beats.add(rows as u64);
        self.engine.dot8_f32_with(scratch, w8, x8).map(F16::to_f32)
    }

    /// Dequantizes one 4-bit group of up to eight rows into one
    /// lane-interleaved f32 weight beat (see
    /// [`zllm_fp16::vector::dequant_beat8`]): `w8[8i + r]` is the exact
    /// f32 decode of the F16 weight [`Vpu::dequantize_beat`] would produce
    /// for row `r`'s code `i`. Counts one dequantized beat per row, like
    /// `dequantize_beat_into` — the matvec takes exactly one of the two
    /// per row and group.
    pub fn dequant_beat8(&self, w8: &mut Vec<f32>, codes: &[&[u8]], zeros: &[u8], scales: &[F16]) {
        self.counters.dequant_beats.add(codes.len() as u64);
        zllm_fp16::vector::dequant_beat8(w8, codes, zeros, scales);
    }

    /// A full row dot product streamed beat by beat, accumulated in f32 —
    /// one output element of a matrix–vector product.
    pub fn dot_row(&self, w_row: &[F16], x: &[F16]) -> f32 {
        assert_eq!(w_row.len(), x.len(), "operand length mismatch");
        let mut acc = 0.0f32;
        let lanes = self.lanes();
        for (wc, xc) in w_row.chunks(lanes).zip(x.chunks(lanes)) {
            self.counters.dot_beats.inc();
            acc += self.engine.dot(wc, xc).to_f32();
        }
        acc
    }

    /// Dequantizes a beat of 4-bit codes into the FP16 lane operands:
    /// `(q − z) · s` per element, rounded once — what the dequantizer
    /// between demux and multipliers computes.
    pub fn dequantize_beat(&self, codes: &[u8], zero: u8, scale: F16) -> WeightBeat {
        let mut out = WeightBeat::new();
        self.dequantize_beat_into(codes, zero, scale, &mut out);
        out
    }

    /// [`Vpu::dequantize_beat`] into a caller-provided buffer (cleared
    /// first), so streaming matvecs reuse one beat buffer instead of
    /// allocating per group. Values and counter behaviour are identical.
    pub fn dequantize_beat_into(&self, codes: &[u8], zero: u8, scale: F16, out: &mut WeightBeat) {
        self.counters.dequant_beats.inc();
        out.clear();
        out.reserve(codes.len());
        out.extend(codes.iter().map(|&q| {
            let centred = q as i32 - zero as i32;
            F16::from_f32(centred as f32 * scale.to_f32())
        }));
    }

    /// Pipeline fill/drain latency of one dot product: multiplier stage +
    /// adder-tree depth + scale + accumulate (a handful of cycles, exposed
    /// only at dependency boundaries).
    pub fn pipeline_latency(&self) -> u64 {
        // 1 (dequant) + 1 (mult) + log2(lanes) (tree) + 1 (scale) + 1 (acc)
        4 + self.engine.tree_depth() as u64
    }
}

impl Default for Vpu {
    fn default() -> Vpu {
        Vpu::kv260()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zllm_quant::group::{GroupQuantConfig, GroupQuantizer};

    #[test]
    fn kv260_geometry() {
        let vpu = Vpu::kv260();
        assert_eq!(vpu.lanes(), 128);
        assert_eq!(vpu.pipeline_latency(), 11);
        assert_eq!(Vpu::default().lanes(), 128);
    }

    #[test]
    fn dot_row_matches_manual_accumulation() {
        let vpu = Vpu::new(4, TreePrecision::Fp32);
        let w: Vec<F16> = (0..10).map(|i| F16::from_f32(i as f32 * 0.1)).collect();
        let x: Vec<F16> = (0..10)
            .map(|i| F16::from_f32(1.0 - i as f32 * 0.05))
            .collect();
        let got = vpu.dot_row(&w, &x);
        let want: f32 = w
            .chunks(4)
            .zip(x.chunks(4))
            .map(|(a, b)| vpu.dot(a, b))
            .sum();
        assert_eq!(got, want);
    }

    #[test]
    fn dequantize_beat_matches_quant_crate() {
        let values: Vec<f32> = (0..128).map(|i| (i as f32 * 0.11).sin()).collect();
        let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&values);
        let vpu = Vpu::kv260();
        let beat = vpu.dequantize_beat(q.codes(), q.zeros()[0], q.scales()[0]);
        let reference = q.dequantize_f16();
        for (a, b) in beat.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn quantized_matvec_tracks_f32() {
        // End-to-end: quantize a row, dequantize beat-wise, dot against an
        // activation — must track the f32 product within quantization error.
        let cols = 256;
        let w: Vec<f32> = (0..cols)
            .map(|i| ((i * 13) % 31) as f32 / 31.0 - 0.5)
            .collect();
        let x: Vec<f32> = (0..cols)
            .map(|i| ((i * 7) % 17) as f32 / 17.0 - 0.5)
            .collect();
        let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&w);
        let vpu = Vpu::kv260();

        let x16: Vec<F16> = x.iter().map(|&v| F16::from_f32(v)).collect();
        let mut acc = 0.0f32;
        for (g, chunk) in q.codes().chunks(128).enumerate() {
            let beat = vpu.dequantize_beat(chunk, q.zeros()[g], q.scales()[g]);
            acc += vpu.dot(&beat, &x16[g * 128..g * 128 + chunk.len()]);
        }
        let exact: f32 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((acc - exact).abs() < 0.3, "accel {acc} vs exact {exact}");
    }
}
