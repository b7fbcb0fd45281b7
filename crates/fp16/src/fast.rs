//! The functional fast-kernel toggle and the binary16 decode table.
//!
//! Mirroring the DDR fast-path discipline (`DdrController::set_fast_path`),
//! every software-side kernel speedup in the functional stack is
//! **toggleable and bit-exact**: with fast kernels enabled or disabled, all
//! conversions, dot products, matvecs and quantization searches produce
//! identical bits. The toggle exists so differential tests can run both
//! implementations against each other; it is never a model change.
//!
//! Fast kernels are **on by default**. What the flag switches:
//!
//! * [`crate::F16::to_f32`] — a lazily built 65,536-entry decode table
//!   (one `u32` bit pattern per binary16 value, recorded from the scalar
//!   decoder itself) instead of per-call exponent/mantissa bit-twiddling;
//! * [`crate::F16::from_f32`] — a branch-reduced round-to-nearest-even
//!   encoder (bias-add rounding, subnormals via a magic-constant float
//!   add) instead of the three-way branchy scalar path;
//! * [`crate::vector::DotEngine`] scratch-buffer kernels and the
//!   row-parallel matvec/quantization-search paths in `zllm-model` /
//!   `zllm-quant` (which consult this flag through their dependency on
//!   this crate).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Global enable for the exact fast kernels (default: enabled).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// The f16→f32 decode table: `TABLE[bits]` is the f32 *bit pattern* of
/// `F16::from_bits(bits)`. Stored as `u32` so NaN payloads round-trip
/// exactly without touching float registers.
static TABLE: OnceLock<Vec<u32>> = OnceLock::new();

/// Enables or disables the fast kernels process-wide.
///
/// Results are bit-identical either way — the toggle only selects the
/// implementation, exactly like `DdrController::set_fast_path` on the
/// trace-driven side.
pub fn set_fast_kernels(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// `true` if the fast kernels are currently enabled.
#[inline]
pub fn fast_kernels_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The lazily built decode table (65,536 `u32` bit patterns, 256 KiB).
///
/// Built from the scalar decoder on first use, so equality with the
/// scalar path holds by construction; the exhaustive unit test pins it
/// anyway.
#[inline]
pub(crate) fn decode_table() -> &'static [u32] {
    TABLE.get_or_init(|| {
        (0..=u16::MAX)
            .map(|bits| crate::F16::from_bits(bits).to_f32_scalar().to_bits())
            .collect()
    })
}

/// Rounds an `f32` to the nearest binary16-representable value, returned
/// as `f32` — bit-identical to `F16::from_f32(value).to_f32()` for every
/// input bit pattern, without materialising the intermediate `F16`.
///
/// This is the per-lane product rounding of the VPU dot engine: hardware
/// rounds each FP16×FP16 product once before the adder tree, and the FP32
/// tree then consumes the *decoded* value. Fusing encode+decode into pure
/// integer ALU ops avoids a decode-table load, whose index pattern is data
/// dependent and cache hostile. The dot kernels round with the cheaper
/// `demote_round_short` and fall back to this function for a beat with a
/// lane at or above 65520, or NaN. The rounding cases mirror
/// [`crate::F16::from_f32_fast`]:
///
/// * normal range — RNE on the 13 dropped mantissa bits via the same
///   bias-add (`+ 0x0FFF + odd_bit`) as the fast encoder, then clearing
///   the dropped bits;
/// * `|v| < 2⁻¹⁴` — binary16 subnormal grid (multiples of 2⁻²⁴): the
///   `+0.5 − 0.5` magic pair performs the RNE snap in the f32 adder (the
///   ulp at 0.5 is exactly one subnormal step) and the subtraction is
///   exact by Sterbenz, so the rounded value falls out directly;
/// * a normal-range result of 65536 or more — the input was ≥ 65520 and
///   overflows: NaN keeps its sign and decodes to the canonical quiet NaN
///   pattern (`sign | 0x7FC0_0000`, exactly what the scalar decoder
///   produces for the canonical F16 NaN `0x7E00`); everything else
///   becomes ±inf.
///
/// All three results are computed for every input and one is picked with
/// selects, so the function has no input-dependent branch and a loop over
/// it compiles to packed integer and float operations.
#[inline]
pub fn demote_round(value: f32) -> f32 {
    let bits = value.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = bits & 0x7FFF_FFFF;
    // Normal range: RNE the 13 dropped bits, then drop them. Identical to
    // the fast encoder's bias-add because the 0x3800_0000 rebias has zero
    // low bits and therefore commutes with the mask. `abs + 0x1000` stays
    // below 2³², and masking keeps any sum ≥ 0x4780_0000 at or above it.
    let odd = (abs >> 13) & 1;
    let normal = (abs + 0x0FFF + odd) & !0x1FFF;
    // Subnormal/zero: snap onto the 2^-24 grid with the magic pair.
    let magic = f32::from_bits(0x3F00_0000); // 0.5
    let subnormal = ((f32::from_bits(abs) + magic) - magic).to_bits();
    // 65520 and above (the carry reached 65536): NaN → canonical quiet
    // NaN, everything else → inf.
    let saturated = if abs > 0x7F80_0000 {
        0x7FC0_0000
    } else {
        0x7F80_0000
    };
    let rounded = if normal >= 0x4780_0000 {
        saturated
    } else {
        normal
    };
    let rounded = if abs < 0x3880_0000 {
        subnormal
    } else {
        rounded
    };
    f32::from_bits(sign | rounded)
}

/// `2^(−14 + 13)`: the smallest binary16 normal, 2⁻¹⁴, scaled by 2¹³.
const MIN_BIG: f32 = 0.5;

/// [`demote_round`] by one formula, bit-identical to it wherever
/// [`demote_round_check`] is non-negative (`|value| < 65520`, not NaN).
///
/// For `value`'s binade `2^e`, `big = 2^(max(e, −14) + 13)` has an f32
/// ulp of `2^(max(e, −14) − 10)`: the binary16 ulp at `|value|` in the
/// normal range, and the subnormal step 2⁻²⁴ below it. So the f32
/// adder's round-to-nearest-even in `|value| + big` is binary16's
/// rounding of `|value|` (`big` has no low bits, so the tie parity is
/// the binary16 mantissa's), and subtracting `big` again is exact, also
/// after a carry into the next binade. Only a carry past 65504 would
/// have to become inf, which takes `|value| ≥ 65520`; the check
/// excludes it and NaN. About ten packed ops per four lanes, where
/// `demote_round` needs about 24.
#[inline]
pub(crate) fn demote_round_short(value: f32) -> f32 {
    let bits = value.to_bits();
    let abs = bits & 0x7FFF_FFFF;
    // 2^(e + 13) for a finite `value` (inf and NaN give garbage here and
    // fail the check), then at least 2^(−14 + 13): the compare-and-select
    // of the value it picks compiles to one `maxps`.
    let big = f32::from_bits((abs & 0x7F80_0000) + (13 << 23));
    let big = if big > MIN_BIG { big } else { MIN_BIG };
    let rounded = (f32::from_bits(abs) + big) - big;
    f32::from_bits(rounded.to_bits() | (bits & 0x8000_0000))
}

/// Negative exactly when `|value| ≥ 65520` or `value` is NaN, the inputs
/// [`demote_round_short`] does not cover. ORed over a beat, it checks
/// every lane at once.
#[inline]
pub(crate) fn demote_round_check(value: f32) -> i32 {
    0x477F_EFFF - (value.to_bits() & 0x7FFF_FFFF) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F16;

    #[test]
    fn decode_table_matches_scalar_exhaustively() {
        let table = decode_table();
        assert_eq!(table.len(), 1 << 16);
        for bits in 0..=u16::MAX {
            let scalar = F16::from_bits(bits).to_f32_scalar().to_bits();
            assert_eq!(table[bits as usize], scalar, "pattern {bits:#06x}");
        }
    }

    #[test]
    fn demote_round_matches_encode_decode_on_boundaries() {
        // Every rounding regime and its boundaries, both signs.
        let pivots = [
            0.0f32,
            f32::MIN_POSITIVE,
            5.9604645e-8, // half the smallest f16 subnormal
            5.9604646e-8, // just above: rounds up to one step
            6.1035156e-5, // smallest f16 normal (2^-14)
            6.1035153e-5, // just below: largest subnormal region
            1.0,
            1.0 + 4.8828125e-4, // exactly half a f16 ulp above 1.0 (ties)
            1.5,
            65504.0,   // f16::MAX
            65519.999, // rounds to MAX
            65520.0,   // ties to inf
            65536.0,
            1e30,
            f32::INFINITY,
            f32::NAN,
        ];
        for &v in &pivots {
            for value in [v, -v] {
                let want = F16::from_f32_scalar(value).to_f32_scalar();
                let got = demote_round(value);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "value {value} ({:#010x})",
                    value.to_bits()
                );
            }
        }
    }

    #[test]
    fn demote_round_matches_encode_decode_on_strided_sweep() {
        // A dense stride over all f32 bit patterns (same discipline as the
        // fast-encoder sweep): covers every exponent and both signs.
        let mut bits = 0u32;
        loop {
            let value = f32::from_bits(bits);
            let want = F16::from_f32_scalar(value).to_f32_scalar();
            let got = demote_round(value);
            assert_eq!(got.to_bits(), want.to_bits(), "pattern {bits:#010x}");
            let (next, overflow) = bits.overflowing_add(9973);
            if overflow {
                break;
            }
            bits = next;
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 patterns (~30 s); CI runs it by name with --ignored"]
    fn demote_round_matches_encode_decode_exhaustively() {
        for bits in 0..=u32::MAX {
            let value = f32::from_bits(bits);
            let want = F16::from_f32_scalar(value).to_f32_scalar();
            let got = demote_round(value);
            assert_eq!(got.to_bits(), want.to_bits(), "pattern {bits:#010x}");
        }
    }

    /// The shortcut's contract for one pattern: the check fails exactly
    /// on `|v| ≥ 65520` and NaN, and where it passes the shortcut equals
    /// `demote_round` bit for bit.
    fn assert_demote_round_shortcut(bits: u32) {
        let value = f32::from_bits(bits);
        let covered = demote_round_check(value) >= 0;
        assert_eq!(
            covered,
            value.abs() < 65520.0,
            "check on pattern {bits:#010x}"
        );
        if covered {
            assert_eq!(
                demote_round_short(value).to_bits(),
                demote_round(value).to_bits(),
                "pattern {bits:#010x}"
            );
        }
    }

    #[test]
    fn demote_round_shortcut_matches_where_checked_on_strided_sweep() {
        let mut bits = 0u32;
        loop {
            assert_demote_round_shortcut(bits);
            let (next, overflow) = bits.overflowing_add(9973);
            if overflow {
                break;
            }
            bits = next;
        }
        // The check's edge and the top of the binary16 range, both signs.
        for edge in [
            0x477F_EFFFu32,
            0x477F_F000,
            0x477F_E000,
            0x7F80_0000,
            0x7F80_0001,
        ] {
            assert_demote_round_shortcut(edge);
            assert_demote_round_shortcut(edge | 0x8000_0000);
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 patterns (~30 s); CI runs it by name with --ignored"]
    fn demote_round_shortcut_matches_where_checked_exhaustively() {
        for bits in 0..=u32::MAX {
            assert_demote_round_shortcut(bits);
        }
    }

    #[test]
    fn toggle_round_trips() {
        assert!(fast_kernels_enabled());
        set_fast_kernels(false);
        assert!(!fast_kernels_enabled());
        set_fast_kernels(true);
        assert!(fast_kernels_enabled());
    }
}
