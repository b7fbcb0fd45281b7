//! Groupwise asymmetric integer quantization (the W4 in W4A16).
//!
//! Weights are split into contiguous groups (128 elements in the paper);
//! each group stores one FP16 scale, one integer zero point of the same
//! width as the codes, and the 4-bit codes themselves. Dequantization is
//! `(q − z) · s`, performed on-chip as weights stream in (§VI-B).

use zllm_fp16::F16;

/// Configuration of a groupwise quantizer.
///
/// # Example
///
/// ```
/// use zllm_quant::group::GroupQuantConfig;
///
/// let cfg = GroupQuantConfig::w4_g128();
/// assert_eq!(cfg.levels(), 15);
/// assert_eq!(cfg.group_size, 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupQuantConfig {
    /// Elements sharing one scale/zero pair.
    pub group_size: usize,
    /// Code width in bits (≤ 8).
    pub bits: u32,
}

impl GroupQuantConfig {
    /// The paper's configuration: 4-bit codes, groups of 128.
    pub const fn w4_g128() -> GroupQuantConfig {
        GroupQuantConfig {
            group_size: 128,
            bits: 4,
        }
    }

    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero or `bits` is 0 or > 8.
    pub fn new(group_size: usize, bits: u32) -> GroupQuantConfig {
        assert!(group_size > 0, "group_size must be non-zero");
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        GroupQuantConfig { group_size, bits }
    }

    /// Number of quantization steps: `2^bits − 1`.
    pub fn levels(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Largest representable code.
    pub fn max_code(&self) -> u8 {
        self.levels() as u8
    }
}

impl Default for GroupQuantConfig {
    fn default() -> GroupQuantConfig {
        GroupQuantConfig::w4_g128()
    }
}

/// A tensor quantized groupwise: codes plus per-group scale/zero metadata.
///
/// The in-memory order here is *logical*; the bus-aligned interleaved DDR
/// layout lives in `zllm-layout`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    config: GroupQuantConfig,
    len: usize,
    codes: Vec<u8>,
    scales: Vec<F16>,
    zeros: Vec<u8>,
}

impl QuantizedTensor {
    /// Assembles a tensor from raw parts — for quantizers (e.g. GPTQ)
    /// that choose codes by algorithms other than round-to-nearest.
    ///
    /// # Panics
    ///
    /// Panics if the lengths are inconsistent with the configuration or
    /// any code/zero exceeds the code range.
    pub fn from_parts(
        config: GroupQuantConfig,
        codes: Vec<u8>,
        scales: Vec<F16>,
        zeros: Vec<u8>,
    ) -> QuantizedTensor {
        let groups = codes.len().div_ceil(config.group_size);
        assert_eq!(scales.len(), groups, "one scale per group required");
        assert_eq!(zeros.len(), groups, "one zero point per group required");
        let max = config.max_code();
        assert!(codes.iter().all(|&c| c <= max), "code exceeds range");
        assert!(zeros.iter().all(|&z| z <= max), "zero point exceeds range");
        QuantizedTensor {
            config,
            len: codes.len(),
            codes,
            scales,
            zeros,
        }
    }

    /// The quantizer configuration used.
    pub fn config(&self) -> GroupQuantConfig {
        self.config
    }

    /// Number of original (f32) elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of groups (last group may be partial).
    pub fn num_groups(&self) -> usize {
        self.scales.len()
    }

    /// The quantized codes, one per element.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Per-group scales (FP16, as stored in DDR).
    pub fn scales(&self) -> &[F16] {
        &self.scales
    }

    /// Per-group zero points.
    pub fn zeros(&self) -> &[u8] {
        &self.zeros
    }

    /// Dequantizes a single element: `(q − z) · s`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn dequantize_at(&self, idx: usize) -> f32 {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        let g = idx / self.config.group_size;
        let q = self.codes[idx] as i32;
        let z = self.zeros[g] as i32;
        (q - z) as f32 * self.scales[g].to_f32()
    }

    /// Dequantizes the whole tensor, element by element through
    /// [`QuantizedTensor::dequantize_at`].
    pub fn dequantize(&self) -> Vec<f32> {
        (0..self.len).map(|i| self.dequantize_at(i)).collect()
    }

    /// [`QuantizedTensor::dequantize`] into a caller-provided buffer
    /// (cleared first) — identical values, no allocation once the buffer
    /// has capacity. Each group's scale and zero point are decoded once,
    /// then every element takes the same `(q − z) · s` as
    /// [`QuantizedTensor::dequantize_at`]. The quantization searches use
    /// this to evaluate candidates.
    pub fn dequantize_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.len);
        let groups = self.codes.chunks(self.config.group_size);
        for ((codes, &z), s) in groups.zip(&self.zeros).zip(&self.scales) {
            let (z, s) = (i32::from(z), s.to_f32());
            out.extend(codes.iter().map(|&q| (i32::from(q) - z) as f32 * s));
        }
    }

    /// Dequantizes to FP16 (the datatype entering the VPU lanes).
    pub fn dequantize_f16(&self) -> Vec<F16> {
        let mut out = Vec::new();
        self.dequantize_f16_into(&mut out);
        out
    }

    /// [`QuantizedTensor::dequantize_f16`] into a caller-provided buffer
    /// (cleared first).
    pub fn dequantize_f16_into(&self, out: &mut Vec<F16>) {
        out.clear();
        out.reserve(self.len);
        out.extend((0..self.len).map(|i| F16::from_f32(self.dequantize_at(i))));
    }

    /// Storage cost in bits: codes + per-group scale (16) and zero point.
    ///
    /// Zero points are counted at code width (4-bit), as in the paper's
    /// interleaved format.
    pub fn storage_bits(&self) -> usize {
        self.len * self.config.bits as usize + self.num_groups() * (16 + self.config.bits as usize)
    }
}

/// Groupwise asymmetric quantizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupQuantizer {
    config: GroupQuantConfig,
}

impl GroupQuantizer {
    /// Creates a quantizer with the given configuration.
    pub fn new(config: GroupQuantConfig) -> GroupQuantizer {
        GroupQuantizer { config }
    }

    /// Quantizes a tensor.
    ///
    /// Groups are consecutive runs of `group_size` elements; a trailing
    /// partial group is allowed. Scales are rounded to FP16 *before* codes
    /// are computed, so the stored metadata and the codes are mutually
    /// consistent — exactly what an offline converter must do for the
    /// on-chip dequantizer to reproduce its intent.
    pub fn quantize(&self, values: &[f32]) -> QuantizedTensor {
        let gs = self.config.group_size;
        let levels = self.config.levels() as f32;
        let mut codes = vec![0; values.len()];
        let mut scales = Vec::with_capacity(values.len().div_ceil(gs));
        let mut zeros = Vec::with_capacity(scales.capacity());

        for (group, group_codes) in values.chunks(gs).zip(codes.chunks_mut(gs)) {
            let (min, max) = group
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            // Extend the range to include zero: this guarantees the integer
            // zero point fits its code width for *any* input distribution
            // (the standard asymmetric-quantization convention; weights are
            // zero-centred so this is a no-op for them).
            let (min, max) = (min.min(0.0), max.max(0.0));
            let range = max - min;
            let scale_f32 = if range > 0.0 { range / levels } else { 1.0 };
            let scale = F16::from_f32(scale_f32);
            let s = scale.to_f32().max(f32::MIN_POSITIVE);
            let zero = round_code(-min / s, levels);
            scales.push(scale);
            zeros.push(zero);
            let z = f32::from(zero);
            for (q, &v) in group_codes.iter_mut().zip(group) {
                *q = round_code(v / s + z, levels);
            }
        }

        QuantizedTensor {
            config: self.config,
            len: values.len(),
            codes,
            scales,
            zeros,
        }
    }

    /// The quantizer configuration.
    pub fn config(&self) -> GroupQuantConfig {
        self.config
    }
}

/// `x.round().clamp(0.0, levels) as u8` for an integer `levels` ≤ 255,
/// without the libm `roundf` call `f32::round` compiles to on baseline
/// x86-64, so the code loop vectorizes.
///
/// Clamping first gives the same code, because rounding is monotone and
/// keeps the integer bounds in place; NaN clamps to 0, where the
/// saturating cast puts it. On `[0, levels]`, adding 2²³ rounds to an
/// integer, ties to even, and leaves it in the low mantissa bits; an
/// exact tie that went down to the even neighbour steps back up, which
/// is `round`'s half away from zero.
#[inline]
fn round_code(x: f32, levels: f32) -> u8 {
    const TWO_POW_23: f32 = 8_388_608.0;
    let x = if x > 0.0 { x } else { 0.0 };
    let x = if x < levels { x } else { levels };
    let shifted = x + TWO_POW_23;
    let tie_went_down = x - (shifted - TWO_POW_23) == 0.5;
    shifted.to_bits() as u8 + u8::from(tie_went_down)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        let cfg = GroupQuantConfig::w4_g128();
        assert_eq!(cfg.bits, 4);
        assert_eq!(cfg.levels(), 15);
        assert_eq!(cfg.max_code(), 15);
        assert_eq!(GroupQuantConfig::default(), cfg);
        let w8 = GroupQuantConfig::new(64, 8);
        assert_eq!(w8.levels(), 255);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=8")]
    fn rejects_wide_codes() {
        let _ = GroupQuantConfig::new(128, 9);
    }

    #[test]
    #[should_panic(expected = "group_size must be non-zero")]
    fn rejects_zero_group() {
        let _ = GroupQuantConfig::new(0, 4);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let values: Vec<f32> = (0..512)
            .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
            .collect();
        let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&values);
        assert_eq!(q.len(), 512);
        assert_eq!(q.num_groups(), 4);
        for (i, (&v, d)) in values.iter().zip(q.dequantize()).enumerate() {
            let g = i / 128;
            let step = q.scales()[g].to_f32();
            // Half-step plus slack for the FP16 rounding of the scale and
            // the edge-of-range clamp it can induce.
            assert!(
                (v - d).abs() <= 0.55 * step + 1e-3,
                "elem {i}: {v} vs {d} (step {step})"
            );
        }
    }

    #[test]
    fn constant_group_is_exact() {
        // With zero-extended ranges, a constant group maps the constant to
        // an extreme code and reconstructs it up to the FP16 scale rounding.
        for c in [0.0f32, 3.25, -7.5] {
            let values = vec![c; 128];
            let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&values);
            for d in q.dequantize() {
                assert!(
                    (d - c).abs() <= c.abs() * 2e-3 + 1e-6,
                    "constant {c} reconstructed as {d}"
                );
            }
        }
    }

    #[test]
    fn partial_trailing_group() {
        let values: Vec<f32> = (0..150).map(|i| i as f32 / 10.0).collect();
        let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&values);
        assert_eq!(q.num_groups(), 2);
        assert_eq!(q.codes().len(), 150);
        // Trailing group spans values 12.8..14.9; its zero-extended range is
        // [0, 14.9], so the step is ~1.0 and the error stays within it.
        let d = q.dequantize();
        let step = q.scales()[1].to_f32();
        assert!((step - 14.9 / 15.0).abs() < 0.01);
        assert!((d[149] - 14.9).abs() <= 0.55 * step + 1e-3);

        // The per-group `dequantize_into` reproduces `dequantize_at` bit
        // for bit on whole and partial trailing groups, at several code
        // widths, with signed zeros and subnormals among the values.
        let mut out = vec![7.0; 3];
        for (len, group_size, bits) in [
            (150, 128, 4),
            (7, 3, 2),
            (65, 64, 8),
            (1, 32, 1),
            (96, 32, 3),
        ] {
            let values: Vec<f32> = (0..len)
                .map(|i| match i % 9 {
                    0 => -0.0,
                    4 => 1e-40,
                    _ => ((i * 37) % 23) as f32 / 7.0 - 1.5,
                })
                .collect();
            let q = GroupQuantizer::new(GroupQuantConfig::new(group_size, bits)).quantize(&values);
            q.dequantize_into(&mut out);
            assert_eq!(out.len(), len);
            for (i, v) in out.iter().enumerate() {
                let want = q.dequantize_at(i);
                assert_eq!(
                    v.to_bits(),
                    want.to_bits(),
                    "len {len}, group {group_size}, elem {i}"
                );
            }
        }
    }

    /// What [`round_code`] replaces.
    fn round_code_reference(x: f32, levels: f32) -> u8 {
        x.round().clamp(0.0, levels) as u8
    }

    #[test]
    fn round_code_matches_round_clamp_at_every_width() {
        for bits in 1..=8 {
            let levels = GroupQuantConfig::new(32, bits).levels() as f32;
            let check = |x: f32| {
                let (got, want) = (round_code(x, levels), round_code_reference(x, levels));
                assert_eq!(got, want, "x = {x:e} ({:#010x}), {bits} bits", x.to_bits());
            };
            for x in [
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                1e-45,
                -1e-45,
                f32::MAX,
                f32::MIN,
                8_388_608.0,
                8_388_607.5,
                16_777_217.0,
            ] {
                check(x);
            }
            // Every half-integer tie and its neighbours, then a dense sweep.
            for m in -2..=levels as i32 + 2 {
                let tie = m as f32 + 0.5;
                for x in [tie.next_down(), tie, tie.next_up(), m as f32] {
                    check(x);
                }
            }
            let steps = (levels as i32 + 4) * 4096;
            for k in 0..=steps {
                check(-2.0 + k as f32 / 4096.0);
            }
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 patterns (~35 s); CI runs it by name with --ignored"]
    fn round_code_matches_round_clamp_exhaustively() {
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            assert_eq!(
                round_code(x, 15.0),
                round_code_reference(x, 15.0),
                "pattern {bits:#010x}"
            );
        }
    }

    #[test]
    fn offset_data_degrades_gracefully() {
        // Data far from zero costs dynamic range (the step grows to cover
        // [0, max]) but never clamps catastrophically.
        let values: Vec<f32> = (0..128).map(|i| 100.0 + i as f32 * 0.01).collect();
        let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&values);
        let step = q.scales()[0].to_f32();
        for (&v, d) in values.iter().zip(q.dequantize()) {
            assert!((v - d).abs() <= 0.55 * step + 1e-2, "{v} vs {d}");
        }
    }

    #[test]
    fn empty_tensor() {
        let q = GroupQuantizer::default().quantize(&[]);
        assert!(q.is_empty());
        assert_eq!(q.num_groups(), 0);
        assert_eq!(q.storage_bits(), 0);
        assert!(q.dequantize().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dequantize_at_bounds_checked() {
        let q = GroupQuantizer::default().quantize(&[1.0; 4]);
        let _ = q.dequantize_at(4);
    }

    #[test]
    fn storage_bits_match_paper_overhead() {
        // 4-bit codes + (16-bit scale + 4-bit zero)/128 elements
        // = 4.15625 bits/weight, the paper's ~3.9 % metadata overhead.
        let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&vec![0.5; 1280]);
        let bits_per_weight = q.storage_bits() as f64 / 1280.0;
        assert!((bits_per_weight - 4.15625).abs() < 1e-9);
    }

    #[test]
    fn codes_use_full_range() {
        // A ramp covering [-1, 1] must produce both code 0 and code 15.
        let values: Vec<f32> = (0..128).map(|i| i as f32 / 63.5 - 1.0).collect();
        let q = GroupQuantizer::new(GroupQuantConfig::w4_g128()).quantize(&values);
        assert_eq!(*q.codes().iter().min().expect("nonempty"), 0);
        assert_eq!(*q.codes().iter().max().expect("nonempty"), 15);
    }

    #[test]
    fn dequantize_f16_matches_f32_path_within_rounding() {
        let values: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();
        let q = GroupQuantizer::default().quantize(&values);
        for (h, f) in q.dequantize_f16().iter().zip(q.dequantize()) {
            assert!((h.to_f32() - f).abs() <= f.abs() * 1e-3 + 1e-4);
        }
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_bounded_generic(
                values in proptest::collection::vec(-8.0f32..8.0, 1..400),
                bits in 2u32..=8,
            ) {
                let cfg = GroupQuantConfig::new(64, bits);
                let q = GroupQuantizer::new(cfg).quantize(&values);
                let d = q.dequantize();
                for (i, (&v, &r)) in values.iter().zip(&d).enumerate() {
                    let g = i / 64;
                    let step = q.scales()[g].to_f32().max(f32::MIN_POSITIVE);
                    prop_assert!(
                        (v - r).abs() <= step * 1.01 + 1e-3,
                        "elem {} of {}: orig {} deq {} step {}",
                        i, values.len(), v, r, step
                    );
                }
            }

            #[test]
            fn codes_always_in_range(
                values in proptest::collection::vec(-100.0f32..100.0, 1..300),
            ) {
                let cfg = GroupQuantConfig::w4_g128();
                let q = GroupQuantizer::new(cfg).quantize(&values);
                prop_assert!(q.codes().iter().all(|&c| c <= cfg.max_code()));
                prop_assert!(q.zeros().iter().all(|&z| z <= cfg.max_code()));
            }

            #[test]
            fn quantization_is_monotone_within_group(
                mut values in proptest::collection::vec(-4.0f32..4.0, 32),
            ) {
                // Sorting the inputs must produce non-decreasing codes: the
                // quantizer maps larger values to larger (or equal) codes.
                values.sort_by(f32::total_cmp);
                let q = GroupQuantizer::new(GroupQuantConfig::new(32, 4)).quantize(&values);
                for w in q.codes().windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
            }
        }
    }
}
