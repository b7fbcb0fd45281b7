//! The host's vector ISA levels for the W4 matvec kernels, and the
//! kernels of the one level above the baseline.
//!
//! The level is detected once, from what the host reports, and never
//! configured. [`Level::Baseline`] is the portable code the compiler
//! vectorizes for the build target (SSE2 on x86-64); it is the fallback,
//! the only level on other hosts and targets, and the reference the
//! tests hold the other level to. [`Level::Avx2F16c`] runs the eight-row
//! engine pass and the eight-row weight beat on 256-bit vectors and rounds
//! each value through the host's binary16 converter
//! (`vcvtps2ph` + `vcvtph2ps` with an explicit round-to-nearest-even
//! immediate), which equals [`crate::fast::demote_round`] on every
//! non-NaN `f32`. A beat that could put a NaN through the converter is
//! declined, and the caller computes it at the baseline level, so no NaN
//! payload ever comes from the converter.
//!
//! This is the crate's only module with `unsafe` code: reaching F16C and
//! choosing the level at run time take `#[target_feature]` functions,
//! whose call from code compiled for the baseline target is `unsafe`, and
//! vector loads and stores through raw pointers. Each load and store
//! takes a fixed-size array reference, so its bounds are in its type, and
//! the only way to call a kernel is through an [`Avx2F16c`] value, which
//! only [`level`] makes, after the host has reported both features.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::Avx2F16c;

/// An ISA level the W4 matvec kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// Portable kernels, vectorized for the build target.
    Baseline,
    /// 256-bit AVX2 vectors and the F16C binary16 converter.
    #[cfg(target_arch = "x86_64")]
    Avx2F16c(Avx2F16c),
}

/// The highest level the host supports, detected on first use.
pub(crate) fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2F16c::detect() {
            return Level::Avx2F16c(avx2);
        }
        Level::Baseline
    })
}

/// Every level the host supports, the baseline first: the levels a
/// differential test runs each kernel at.
#[cfg(test)]
pub(crate) fn levels() -> Vec<Level> {
    let mut levels = vec![Level::Baseline];
    if level() != Level::Baseline {
        levels.push(level());
    }
    levels
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Proof that the host reports AVX2 and F16C: only
    /// [`Avx2F16c::detect`] makes one, so a kernel that takes it may use
    /// both.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Avx2F16c(());

    impl Avx2F16c {
        /// `Some` if the host reports both AVX2 and F16C.
        pub(super) fn detect() -> Option<Avx2F16c> {
            let found =
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("f16c");
            found.then_some(Avx2F16c(()))
        }

        /// The FP32-tree engine pass over eight interleaved rows
        /// (`w8[8i + r]` and `x8[8i + r]` are row `r`'s lane-`i`
        /// operands) on a `lanes`-wide engine: per row, each product
        /// rounded once through binary16, lanes past the operands +0.0,
        /// and the `(2i, 2i+1)` pairing at every tree level. `None`, with
        /// no result, if any product is NaN. `level` is scratch.
        ///
        /// # Panics
        ///
        /// Panics if `lanes` is not a power of two of at least 8, or the
        /// operands have different lengths, a length that is not a
        /// multiple of eight, or more than eight times `lanes`.
        pub(crate) fn dot8(
            self,
            w8: &[f32],
            x8: &[f32],
            lanes: usize,
            level: &mut Vec<f32>,
        ) -> Option<[f32; 8]> {
            assert!(
                lanes >= 8 && lanes.is_power_of_two(),
                "the AVX2 tree needs a power of two of at least 8 lanes"
            );
            assert_eq!(w8.len(), x8.len(), "operand length mismatch");
            assert_eq!(w8.len() % 8, 0, "operands must interleave eight rows");
            assert!(w8.len() <= 8 * lanes, "operands exceed lane count");
            level.resize(lanes, 0.0);
            let (w8, _) = w8.as_chunks::<8>();
            let (x8, _) = x8.as_chunks::<8>();
            let (level, _) = level.as_chunks_mut::<8>();
            // SAFETY: `self` exists only on a host that reports AVX2 and
            // F16C, the features `dot8` is compiled for.
            unsafe { dot8(w8, x8, level) }
        }

        /// The eight-row interleaved W4 weight beat: `w8[8i + r] =
        /// demote_round((codes[r][i] − zeros[r]) as f32 × scales[r])`.
        /// Returns `false`, leaving `w8` to be rebuilt at the baseline
        /// level, if the rows' length is not a multiple of 16, a scale is
        /// not finite (a product could be NaN), or a code is 16 or more.
        ///
        /// # Panics
        ///
        /// Panics if the rows have different lengths or `w8` does not hold
        /// eight weights per code of a row.
        pub(crate) fn beat8(
            self,
            w8: &mut [f32],
            codes: [&[u8]; 8],
            zeros: [u8; 8],
            scales: [f32; 8],
        ) -> bool {
            let len = codes[0].len();
            if !len.is_multiple_of(16) || scales.iter().any(|s| !s.is_finite()) {
                return false;
            }
            assert!(
                codes.iter().all(|c| c.len() == len),
                "rows of one group have equal lengths"
            );
            assert_eq!(w8.len(), 8 * len, "eight weights per code of a row");
            let rows = codes.map(|c| c.as_chunks::<16>().0);
            let (w8, _) = w8.as_chunks_mut::<128>();
            let zeros = zeros.map(i32::from);
            // SAFETY: `self` exists only on a host that reports AVX2 and
            // F16C, the features `beat8` is compiled for.
            unsafe { beat8(w8, rows, &zeros, &scales) }
        }

        /// Each lane of `v` through the binary16 round trip, and the
        /// lanes where `v` is NaN as a bit mask.
        #[cfg(test)]
        pub(crate) fn round_trip8(self, v: &[f32; 8]) -> ([f32; 8], i32) {
            // SAFETY: `self` exists only on a host that reports AVX2 and
            // F16C, the features `round_trip8` is compiled for.
            unsafe { round_trip8(v) }
        }
    }

    /// Loads eight `f32`s.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    fn load8(v: &[f32; 8]) -> __m256 {
        // SAFETY: `v` is eight contiguous, initialized `f32`s, exactly the
        // 32 bytes an unaligned load reads.
        unsafe { _mm256_loadu_ps(v.as_ptr()) }
    }

    /// Stores eight `f32`s.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    fn store8(to: &mut [f32; 8], v: __m256) {
        // SAFETY: `to` is eight contiguous, writable `f32`s, exactly the 32
        // bytes an unaligned store writes.
        unsafe { _mm256_storeu_ps(to.as_mut_ptr(), v) }
    }

    /// Loads sixteen bytes.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    fn load16(v: &[u8; 16]) -> __m128i {
        // SAFETY: `v` is sixteen contiguous, initialized bytes, exactly what
        // an unaligned load reads.
        unsafe { _mm_loadu_si128(v.as_ptr().cast()) }
    }

    /// Rounds each lane to the nearest binary16 value, ties to even,
    /// returned as `f32`. The rounding mode is the immediate's, never
    /// MXCSR's.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    fn round_trip(v: __m256) -> __m256 {
        _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v))
    }

    /// All-ones in each lane where `v` is NaN.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    fn unordered(v: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)
    }

    /// [`Avx2F16c::dot8`] after its checks: `level` holds one vector per
    /// eight lanes of the engine. Each block of eight lanes is multiplied,
    /// rounded and summed through the tree's first three levels in
    /// registers, then the remaining levels run in `level`.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    fn dot8(w8: &[[f32; 8]], x8: &[[f32; 8]], level: &mut [[f32; 8]]) -> Option<[f32; 8]> {
        let mut nan = _mm256_setzero_ps();
        for (b, sum) in level.iter_mut().enumerate() {
            // Lanes past the operands are +0.0, and still added: −0.0 +
            // +0.0 is +0.0.
            let mut v = [_mm256_setzero_ps(); 8];
            for (k, lane) in v.iter_mut().enumerate() {
                if let (Some(w), Some(x)) = (w8.get(8 * b + k), x8.get(8 * b + k)) {
                    let p = _mm256_mul_ps(load8(w), load8(x));
                    nan = _mm256_or_ps(nan, unordered(p));
                    *lane = round_trip(p);
                }
            }
            let [v0, v1, v2, v3, v4, v5, v6, v7] = v;
            let pairs = [
                _mm256_add_ps(v0, v1),
                _mm256_add_ps(v2, v3),
                _mm256_add_ps(v4, v5),
                _mm256_add_ps(v6, v7),
            ];
            let quads = [
                _mm256_add_ps(pairs[0], pairs[1]),
                _mm256_add_ps(pairs[2], pairs[3]),
            ];
            store8(sum, _mm256_add_ps(quads[0], quads[1]));
        }
        if _mm256_movemask_ps(nan) != 0 {
            return None;
        }
        let mut len = level.len();
        while len > 1 {
            len /= 2;
            // In place: sum `j` reads vectors `2j` and `2j + 1`, neither
            // of which an earlier sum of this level overwrote.
            for j in 0..len {
                let sum = _mm256_add_ps(load8(&level[2 * j]), load8(&level[2 * j + 1]));
                store8(&mut level[j], sum);
            }
        }
        Some(level[0])
    }

    /// [`Avx2F16c::beat8`] after its checks, sixteen lanes of the eight
    /// rows at a time: the rows' code bytes are transposed so that each
    /// lane's eight codes are adjacent, then each lane is widened, has the
    /// rows' zero points subtracted, is converted, multiplied by the
    /// rows' scales and rounded through binary16. `false` if a code is 16
    /// or more.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    fn beat8(
        w8: &mut [[f32; 128]],
        rows: [&[[u8; 16]]; 8],
        zeros: &[i32; 8],
        scales: &[f32; 8],
    ) -> bool {
        let [z0, z1, z2, z3, z4, z5, z6, z7] = *zeros;
        let zeros = _mm256_setr_epi32(z0, z1, z2, z3, z4, z5, z6, z7);
        let scales = load8(scales);
        let mut codes_or = _mm_setzero_si128();
        for (c, out) in w8.iter_mut().enumerate() {
            let mut r = [_mm_setzero_si128(); 8];
            for (row, codes) in r.iter_mut().zip(rows) {
                *row = load16(&codes[c]);
                codes_or = _mm_or_si128(codes_or, *row);
            }
            // Bytes of row pairs (0, 1), (2, 3), (4, 5), (6, 7)
            // interleaved, for lanes 0–7 and for lanes 8–15.
            let low = [
                _mm_unpacklo_epi8(r[0], r[1]),
                _mm_unpacklo_epi8(r[2], r[3]),
                _mm_unpacklo_epi8(r[4], r[5]),
                _mm_unpacklo_epi8(r[6], r[7]),
            ];
            let high = [
                _mm_unpackhi_epi8(r[0], r[1]),
                _mm_unpackhi_epi8(r[2], r[3]),
                _mm_unpackhi_epi8(r[4], r[5]),
                _mm_unpackhi_epi8(r[6], r[7]),
            ];
            // `quads[j]` holds rows 0–7 of lanes 2j and 2j + 1.
            let mut quads = [_mm_setzero_si128(); 8];
            for (half, p) in [low, high].into_iter().enumerate() {
                // Rows 0–3 and 4–7 of four lanes, then of the next four.
                let q = [
                    _mm_unpacklo_epi16(p[0], p[1]),
                    _mm_unpacklo_epi16(p[2], p[3]),
                    _mm_unpackhi_epi16(p[0], p[1]),
                    _mm_unpackhi_epi16(p[2], p[3]),
                ];
                quads[4 * half] = _mm_unpacklo_epi32(q[0], q[1]);
                quads[4 * half + 1] = _mm_unpackhi_epi32(q[0], q[1]);
                quads[4 * half + 2] = _mm_unpacklo_epi32(q[2], q[3]);
                quads[4 * half + 3] = _mm_unpackhi_epi32(q[2], q[3]);
            }
            let (lanes, _) = out.as_chunks_mut::<8>();
            for (two, quad) in lanes.chunks_exact_mut(2).zip(quads) {
                for (lane, bytes) in two.iter_mut().zip([quad, _mm_unpackhi_epi64(quad, quad)]) {
                    let centred = _mm256_sub_epi32(_mm256_cvtepu8_epi32(bytes), zeros);
                    let weights = _mm256_mul_ps(_mm256_cvtepi32_ps(centred), scales);
                    store8(lane, round_trip(weights));
                }
            }
        }
        _mm_testz_si128(codes_or, _mm_set1_epi8(0xF0u8 as i8)) == 1
    }

    /// [`Avx2F16c::round_trip8`]'s body.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and F16C.
    #[cfg(test)]
    #[target_feature(enable = "avx2,f16c")]
    fn round_trip8(v: &[f32; 8]) -> ([f32; 8], i32) {
        let v = load8(v);
        let mut out = [0.0; 8];
        store8(&mut out, round_trip(v));
        (out, _mm256_movemask_ps(unordered(v)))
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::fast::demote_round;

    #[test]
    #[ignore = "all 2^32 f32 patterns (~20 s); CI runs it by name with --ignored"]
    fn f16c_round_trip_matches_demote_round_exhaustively() {
        let Level::Avx2F16c(avx2) = level() else {
            eprintln!("the host lacks AVX2 or F16C: nothing to check");
            return;
        };
        for first in (0..=u32::MAX).step_by(8) {
            let v: [f32; 8] = std::array::from_fn(|k| f32::from_bits(first + k as u32));
            let (rounded, nan) = avx2.round_trip8(&v);
            for (k, (v, rounded)) in v.iter().zip(rounded).enumerate() {
                let bits = v.to_bits();
                assert_eq!((nan >> k) & 1 == 1, v.is_nan(), "NaN check on {bits:#010x}");
                if !v.is_nan() {
                    let want = demote_round(*v).to_bits();
                    assert_eq!(rounded.to_bits(), want, "pattern {bits:#010x}");
                }
            }
        }
    }
}
