//! IEEE 754 binary16 scalar type with hardware-faithful rounding.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// An IEEE 754 binary16 ("half precision") floating point value.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
/// All conversions and arithmetic round to nearest, ties to even — the same
/// behaviour as an FPGA FP16 operator that rounds once per operation.
///
/// Arithmetic is implemented by converting to `f32`, performing the operation
/// exactly (binary32 has enough precision that a single binary16
/// add/sub/mul/div/sqrt is exact in it), and rounding the result back to
/// binary16. This is the textbook "double rounding is harmless here" case and
/// produces correctly rounded FP16 results, matching DSP-based FP16 units.
///
/// # Example
///
/// ```
/// use zllm_fp16::F16;
///
/// let x = F16::from_f32(0.1); // rounds: 0.1 is not representable
/// assert!((x.to_f32() - 0.1).abs() < 1e-4);
/// assert_eq!(F16::ONE + F16::ONE, F16::from_f32(2.0));
/// ```
#[derive(Clone, Copy, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A canonical quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, −65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2⁻¹⁴.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2⁻²⁴.
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon: the difference between 1.0 and the next larger value.
    pub const EPSILON: F16 = F16(0x1400); // 2^-10

    /// Creates an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Overflow saturates to ±infinity; values below the subnormal range
    /// round to (signed) zero. NaN payload is canonicalised to a quiet NaN
    /// with the sign preserved.
    ///
    /// Dispatches between the branchy reference encoder
    /// ([`F16::from_f32_scalar`]) and the branch-reduced fast encoder
    /// ([`F16::from_f32_fast`]) based on the process-wide
    /// [`crate::fast`] toggle; both are bit-identical for every input
    /// (enforced by exhaustive/differential tests).
    #[inline]
    pub fn from_f32(value: f32) -> F16 {
        if crate::fast::fast_kernels_enabled() {
            F16::from_f32_fast(value)
        } else {
            F16::from_f32_scalar(value)
        }
    }

    /// The reference `f32`→binary16 encoder: explicit three-way branch on
    /// the target range (normal / subnormal / special), rounding RNE.
    ///
    /// This is the path the fast encoder is differentially tested
    /// against; it is also what benchmarks call to quantify the fast
    /// path's gain.
    pub fn from_f32_scalar(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return if frac == 0 {
                F16(sign | 0x7C00)
            } else {
                F16(sign | 0x7E00)
            };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Too large for binary16 → ±inf (RNE rounds the overflow region
            // to infinity once past MAX + ½ulp; the region between MAX and
            // MAX+½ulp rounds to MAX, handled below via the generic path for
            // unbiased == 15 only, so >15 is always inf except exactly the
            // boundary — conservative: values with unbiased == 16 round to
            // inf unless they round down into range, which cannot happen
            // because the smallest such magnitude is 65536 > 65520).
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range (possibly overflowing to inf after rounding).
            // 24-bit significand including implicit leading 1.
            let sig = 0x0080_0000 | frac;
            // We need the top 11 bits of `sig` (1 + 10 mantissa), i.e. shift
            // right by 13, rounding RNE on the 13 discarded bits.
            let shifted = sig >> 13;
            let rem = sig & 0x1FFF;
            let half = 0x1000u32;
            let mut mant = shifted;
            if rem > half || (rem == half && (mant & 1) == 1) {
                mant += 1;
            }
            // mant now has the form 1.xxxxxxxxxx in its low 11 bits, or
            // overflowed to 12 bits (2.0) after rounding.
            let mut e16 = unbiased + 15;
            if mant == 0x800 {
                mant = 0x400;
                e16 += 1;
            }
            if e16 >= 31 {
                return F16(sign | 0x7C00);
            }
            return F16(sign | ((e16 as u16) << 10) | ((mant & 0x3FF) as u16));
        }
        // Subnormal or zero result. The value is sig × 2^(unbiased-23) with
        // sig a 24-bit integer; binary16 subnormals are mant × 2^-24.
        // Required right shift of the 24-bit significand: (-14 - unbiased)
        // extra positions beyond the normal-case 13.
        let shift = 13 + (-14 - unbiased) as u32;
        if shift >= 25 {
            // Rounds to zero even from the largest significand.
            return F16(sign);
        }
        let sig = (0x0080_0000 | frac) as u64;
        let shifted = (sig >> shift) as u32;
        let rem_mask = (1u64 << shift) - 1;
        let rem = sig & rem_mask;
        let half = 1u64 << (shift - 1);
        let mut mant = shifted;
        if rem > half || (rem == half && (mant & 1) == 1) {
            mant += 1;
        }
        // mant may have rounded up into the normal range (0x400); the bit
        // pattern arithmetic below handles that naturally because exponent
        // field 0 with mantissa 0x400 is exactly the encoding of the smallest
        // normal.
        F16(sign | (mant as u16))
    }

    /// The branch-reduced `f32`→binary16 encoder (fast-kernel path).
    ///
    /// Round-to-nearest-even via bias-add rounding on the raw bits: the
    /// normal range rebias + mantissa shift round in two integer adds,
    /// and subnormals round through a single magic-constant `f32`
    /// addition (adding 0.5 aligns the binary16 subnormal grid with the
    /// f32 mantissa ulp, so hardware RNE does the rounding). Bit-identical
    /// to [`F16::from_f32_scalar`] for every `f32` bit pattern.
    pub fn from_f32_fast(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let abs = bits & 0x7FFF_FFFF;

        // 65536.0 and above (incl. inf/NaN): exponent field saturates.
        if abs >= 0x4780_0000 {
            return if abs > 0x7F80_0000 {
                F16(sign | 0x7E00) // NaN → canonical quiet NaN
            } else {
                F16(sign | 0x7C00) // overflow and inf → inf
            };
        }
        // Below the smallest binary16 normal (2^-14): subnormal or zero.
        if abs < 0x3880_0000 {
            // |v| + 0.5 lands in [0.5, 0.5 + 2^-14) where the f32 ulp is
            // 2^-24 — exactly one binary16 subnormal step — so the f32
            // adder performs the RNE rounding; subtracting 0.5's bit
            // pattern leaves the subnormal mantissa (with a carry into
            // the smallest normal when the round propagates).
            let magic = 0x3F00_0000u32; // 0.5f32
            let rounded = f32::from_bits(abs) + f32::from_bits(magic);
            return F16(sign | (rounded.to_bits() - magic) as u16);
        }
        // Normal range: rebias the exponent and round the 13 dropped
        // mantissa bits with a carry-propagating bias add (RNE via the
        // odd-mantissa increment). Overflow into inf happens naturally.
        let odd = (abs >> 13) & 1;
        let biased = abs
            .wrapping_add(0xC800_0000) // exponent rebias: (15 − 127) << 23
            .wrapping_add(0x0FFF)
            .wrapping_add(odd);
        F16(sign | (biased >> 13) as u16)
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    ///
    /// Dispatches between the scalar bit-twiddling decoder
    /// ([`F16::to_f32_scalar`]) and the 65,536-entry decode table based
    /// on the process-wide [`crate::fast`] toggle; the table is recorded
    /// from the scalar decoder, so the two are bit-identical by
    /// construction.
    #[inline]
    pub fn to_f32(self) -> f32 {
        if crate::fast::fast_kernels_enabled() {
            f32::from_bits(crate::fast::decode_table()[self.0 as usize])
        } else {
            self.to_f32_scalar()
        }
    }

    /// The reference binary16→`f32` decoder (per-call exponent/mantissa
    /// bit-twiddling, including subnormal normalisation).
    pub fn to_f32_scalar(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let frac = (self.0 & 0x3FF) as u32;
        let bits = match (exp, frac) {
            (0, 0) => sign,
            (0, f) => {
                // Subnormal: value = f × 2⁻²⁴. Normalise around the highest
                // set bit p: value = 1.xxx × 2^(p−24).
                let p = 31 - f.leading_zeros();
                let f_norm = (f << (10 - p)) & 0x3FF;
                let e = 127 + p - 24;
                sign | (e << 23) | (f_norm << 13)
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, f) => sign | 0x7F80_0000 | (f << 13) | 0x0040_0000,
            (e, f) => sign | ((e + 127 - 15) << 23) | (f << 13),
        };
        f32::from_bits(bits)
    }

    /// Converts an `f64` to binary16 (via `f32`; double rounding is safe for
    /// values produced by binary16-scale computations but is documented here
    /// for transparency).
    pub fn from_f64(value: f64) -> F16 {
        F16::from_f32(value as f32)
    }

    /// Converts to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x3FF) != 0
    }

    /// Returns `true` if this value is ±infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Returns `true` if this value is subnormal.
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x3FF) != 0
    }

    /// Returns `true` for ±0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// Returns `true` if the sign bit is set (including −0 and NaN with sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> F16 {
        F16(self.0 & 0x7FFF)
    }

    /// Square root, correctly rounded.
    pub fn sqrt(self) -> F16 {
        F16::from_f32(self.to_f32().sqrt())
    }

    /// The larger of two values; NaN loses against any number (hardware
    /// `max` convention used by the softmax max-scan).
    pub fn max(self, other: F16) -> F16 {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// The smaller of two values; NaN loses against any number.
    pub fn min(self, other: F16) -> F16 {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Total number of distinct finite non-negative bit patterns; useful for
    /// exhaustive testing (`0..=0x7BFF` are all finite non-negative values).
    pub const FINITE_POSITIVE_PATTERNS: u16 = 0x7C00;
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl fmt::LowerHex for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &F16) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        if self.is_zero() && other.is_zero() {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(v: F16) -> f64 {
        v.to_f64()
    }
}

impl From<i8> for F16 {
    fn from(v: i8) -> F16 {
        F16::from_f32(v as f32)
    }
}

impl From<u8> for F16 {
    fn from(v: u8) -> F16 {
        F16::from_f32(v as f32)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl std::ops::$trait<&F16> for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: &F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl std::ops::Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

impl std::ops::AddAssign for F16 {
    fn add_assign(&mut self, rhs: F16) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for F16 {
    /// Serial FP16 summation, rounding after every addition (the order a
    /// single-accumulator hardware loop would use).
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |acc, x| acc + x)
    }
}

/// Error returned when parsing an [`F16`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseF16Error {
    _priv: (),
}

impl fmt::Display for ParseF16Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid binary16 literal")
    }
}

impl std::error::Error for ParseF16Error {}

impl FromStr for F16 {
    type Err = ParseF16Error;

    fn from_str(s: &str) -> Result<F16, ParseF16Error> {
        s.parse::<f32>()
            .map(F16::from_f32)
            .map_err(|_| ParseF16Error { _priv: () })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(bits: u16) -> u16 {
        F16::from_f32(F16::from_bits(bits).to_f32()).to_bits()
    }

    #[test]
    fn exhaustive_f32_roundtrip_is_identity() {
        // Every finite binary16 value converts to f32 and back unchanged.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan(), "bits {bits:#x}");
            } else {
                assert_eq!(roundtrip(bits), bits, "bits {bits:#x}");
            }
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(2.0f32.powi(-14)).to_bits(), 0x0400);
        assert_eq!(F16::from_f32(2.0f32.powi(-24)).to_bits(), 0x0001);
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(F16::from_f32(1e6).to_bits(), 0x7C00);
        assert_eq!(F16::from_f32(-1e6).to_bits(), 0xFC00);
        assert_eq!(F16::from_f32(f32::INFINITY).to_bits(), 0x7C00);
        // 65520 is the midpoint between MAX (65504) and the would-be next
        // value (65536): RNE rounds to even, i.e. to infinity.
        assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7C00);
        // Just below the midpoint stays at MAX.
        assert_eq!(F16::from_f32(65519.0).to_bits(), 0x7BFF);
    }

    #[test]
    fn underflow_rounds_to_zero_with_sign() {
        assert_eq!(F16::from_f32(1e-10).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-1e-10).to_bits(), 0x8000);
        // Half of the smallest subnormal is a tie → rounds to even (zero).
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_bits(), 0x0000);
        // Just above the tie rounds up to the smallest subnormal.
        let just_above = f32::from_bits((2.0f32.powi(-25)).to_bits() + 1);
        assert_eq!(F16::from_f32(just_above).to_bits(), 0x0001);
    }

    #[test]
    fn subnormal_rounding() {
        // 3 × 2^-25 is exactly halfway between subnormals 1×2^-24 and 2×2^-24
        // → ties-to-even picks 2×2^-24 (mantissa 0b10).
        assert_eq!(F16::from_f32(3.0 * 2.0f32.powi(-25)).to_bits(), 0x0002);
        // Largest subnormal.
        let largest_sub = 1023.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(largest_sub).to_bits(), 0x03FF);
        // Rounding a value just under the smallest normal up into the
        // normal range must produce the smallest normal encoding.
        let just_under_normal = f32::from_bits((2.0f32.powi(-14)).to_bits() - 1);
        assert_eq!(F16::from_f32(just_under_normal).to_bits(), 0x0400);
    }

    #[test]
    fn rne_ties_to_even_in_normal_range() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10 → even (1.0).
        assert_eq!(F16::from_f32(1.0 + 2.0f32.powi(-11)).to_bits(), 0x3C00);
        // 1 + 3×2^-11 is halfway between 1+2^-10 and 1+2^-9 → even (1+2^-9).
        assert_eq!(
            F16::from_f32(1.0 + 3.0 * 2.0f32.powi(-11)).to_bits(),
            0x3C02
        );
    }

    #[test]
    fn nan_propagates_and_compares_unequal() {
        let n = F16::NAN;
        assert!(n.is_nan());
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!((n + F16::ONE).is_nan());
        assert_ne!(n, n);
        assert_eq!(n.partial_cmp(&F16::ONE), None);
    }

    #[test]
    fn zero_signs_compare_equal() {
        assert_eq!(F16::ZERO, F16::NEG_ZERO);
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!(!F16::ZERO.is_sign_negative());
    }

    #[test]
    fn arithmetic_basics() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.5);
        assert_eq!((a + b).to_f32(), 4.0);
        assert_eq!((b - a).to_f32(), 1.0);
        assert_eq!((a * b).to_f32(), 3.75);
        assert_eq!((b / a).to_f32(), F16::from_f32(2.5 / 1.5).to_f32());
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn addition_rounds_once() {
        // 2048 + 1 in binary16: ulp at 2048 is 2, so the exact result 2049
        // is a tie → rounds to even (2048).
        let big = F16::from_f32(2048.0);
        let one = F16::ONE;
        assert_eq!((big + one).to_f32(), 2048.0);
        // 2048 + 3 = 2051 is a tie between 2050 (odd mantissa) and 2052
        // (even mantissa): ties-to-even picks 2052.
        assert_eq!((big + F16::from_f32(3.0)).to_f32(), 2052.0);
    }

    #[test]
    fn sqrt_matches_reference() {
        for v in [0.0f32, 1.0, 2.0, 4.0, 10.5, 65504.0] {
            let h = F16::from_f32(v);
            assert_eq!(h.sqrt().to_f32(), F16::from_f32(v.sqrt()).to_f32());
        }
        assert!(F16::from_f32(-1.0).sqrt().is_nan());
    }

    #[test]
    fn min_max_ignore_nan() {
        assert_eq!(F16::NAN.max(F16::ONE), F16::ONE);
        assert_eq!(F16::ONE.max(F16::NAN), F16::ONE);
        assert_eq!(F16::NAN.min(F16::ONE), F16::ONE);
        assert_eq!(F16::from_f32(3.0).max(F16::from_f32(-7.0)).to_f32(), 3.0);
        assert_eq!(F16::from_f32(3.0).min(F16::from_f32(-7.0)).to_f32(), -7.0);
    }

    #[test]
    fn parse_and_display() {
        let x: F16 = "1.25".parse().expect("parses");
        assert_eq!(x.to_f32(), 1.25);
        assert_eq!(format!("{x}"), "1.25");
        assert!("bogus".parse::<F16>().is_err());
        assert_eq!(
            format!("{}", ParseF16Error { _priv: () }),
            "invalid binary16 literal"
        );
    }

    #[test]
    fn hex_binary_formatting() {
        let x = F16::ONE;
        assert_eq!(format!("{x:x}"), "3c00");
        assert_eq!(format!("{x:X}"), "3C00");
        assert_eq!(format!("{x:b}"), "11110000000000");
    }

    #[test]
    fn serial_sum_rounds_every_step() {
        // Summing 1.0 two thousand times in FP16 stalls at 2048 because
        // 2048 + 1 rounds back to 2048 — the classic FP16 saturation the
        // hardware accumulator would show if it were FP16-only.
        let s: F16 = std::iter::repeat_n(F16::ONE, 4000).sum();
        assert_eq!(s.to_f32(), 2048.0);
    }

    #[test]
    fn infinity_arithmetic() {
        assert_eq!(F16::INFINITY + F16::ONE, F16::INFINITY);
        assert!((F16::INFINITY - F16::INFINITY).is_nan());
        assert_eq!(F16::ONE / F16::ZERO, F16::INFINITY);
        assert_eq!(F16::NEG_ONE / F16::ZERO, F16::NEG_INFINITY);
    }

    #[test]
    fn abs_and_neg_are_bit_ops() {
        assert_eq!(F16::from_f32(-3.5).abs().to_f32(), 3.5);
        assert_eq!((-F16::from_f32(3.5)).to_f32(), -3.5);
        // Negation of NaN keeps it NaN.
        assert!((-F16::NAN).is_nan());
    }

    #[test]
    fn from_integer_conversions() {
        assert_eq!(F16::from(5i8).to_f32(), 5.0);
        assert_eq!(F16::from(200u8).to_f32(), 200.0);
    }

    #[test]
    fn fast_decode_matches_scalar_exhaustively() {
        // Every one of the 65,536 bit patterns, NaNs included: the decode
        // table and the scalar decoder must agree bit-for-bit.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let lut = f32::from_bits(crate::fast::decode_table()[bits as usize]);
            assert_eq!(
                lut.to_bits(),
                h.to_f32_scalar().to_bits(),
                "pattern {bits:#06x}"
            );
        }
    }

    #[test]
    fn fast_encode_matches_scalar_on_strided_f32_sweep() {
        // A dense coprime-strided sweep of the f32 bit space (~4.3M
        // patterns covering every exponent, both signs, NaNs and infs).
        let mut bits = 0u32;
        loop {
            let v = f32::from_bits(bits);
            assert_eq!(
                F16::from_f32_fast(v).to_bits(),
                F16::from_f32_scalar(v).to_bits(),
                "f32 bits {bits:#010x}"
            );
            let (next, overflow) = bits.overflowing_add(997);
            if overflow {
                break;
            }
            bits = next;
        }
    }

    #[test]
    fn fast_encode_matches_scalar_on_rounding_boundaries() {
        // Every value the RNE boundary analysis cares about, plus one-ulp
        // neighbours on each side.
        let pivots = [
            0.0f32,
            -0.0,
            2.0f32.powi(-25),             // half smallest subnormal (tie)
            3.0 * 2.0f32.powi(-25),       // subnormal tie
            1023.0 * 2.0f32.powi(-24),    // largest subnormal
            2.0f32.powi(-14),             // smallest normal
            1.0 + 2.0f32.powi(-11),       // normal tie
            1.0 + 3.0 * 2.0f32.powi(-11), // normal tie, odd mantissa
            2048.0,
            65504.0, // MAX
            65519.0,
            65520.0, // rounds to inf
            65536.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            1e-45, // smallest f32 subnormal
        ];
        for &p in &pivots {
            for delta in [-1i32, 0, 1] {
                let v = f32::from_bits(p.to_bits().wrapping_add_signed(delta));
                assert_eq!(
                    F16::from_f32_fast(v).to_bits(),
                    F16::from_f32_scalar(v).to_bits(),
                    "pivot {p}, delta {delta}"
                );
                assert_eq!(
                    F16::from_f32_fast(-v).to_bits(),
                    F16::from_f32_scalar(-v).to_bits(),
                    "pivot {p} negated, delta {delta}"
                );
            }
        }
    }

    #[cfg(feature = "proptest")]
    mod fast_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn fast_encode_matches_scalar(bits in proptest::num::u32::ANY) {
                let v = f32::from_bits(bits);
                prop_assert_eq!(
                    F16::from_f32_fast(v).to_bits(),
                    F16::from_f32_scalar(v).to_bits()
                );
            }

            #[test]
            fn fast_decode_matches_scalar(bits in proptest::num::u16::ANY) {
                let lut = f32::from_bits(crate::fast::decode_table()[bits as usize]);
                prop_assert_eq!(
                    lut.to_bits(),
                    F16::from_bits(bits).to_f32_scalar().to_bits()
                );
            }
        }
    }
}
