//! The Vector Processing Unit datapath: 128 FP16 multipliers, a binary
//! adder tree, a scaling multiplier and a wide accumulator (§VI-B, Fig. 5B).
//!
//! The numerics of a hardware dot product differ from naive serial
//! summation: products are rounded once, then summed pairwise through a
//! `log2(N)`-deep adder tree, with the tree nodes either FP16 (smallest
//! area) or FP32 (one extra DSP column). [`DotEngine`] reproduces both
//! orderings so experiments can quantify the accuracy/area trade-off the
//! paper's "bandwidth-area balanced" engine makes.

use crate::fast::demote_round;
use crate::isa::{self, Level};
use crate::F16;
use std::cell::RefCell;

thread_local! {
    /// Per-thread scratch used by [`DotEngine::dot`] when fast kernels are
    /// enabled, so existing callers get the allocation-free path without an
    /// API change.
    static SCRATCH: RefCell<DotScratch> = RefCell::new(DotScratch::new());
}

/// Reusable scratch buffers for the allocation-free dot kernels.
///
/// One `DotScratch` per thread (or per engine owner) removes every per-call
/// `Vec` allocation from the dot/reduce path while keeping the arithmetic —
/// product rounding, pairwise tree order, wide accumulation — bit-identical
/// to the scalar implementation.
#[derive(Debug, Clone, Default)]
pub struct DotScratch {
    /// FP32 lane products, the first level of the adder tree (eight rows
    /// interleaved, for [`DotEngine::dot8_f32_with`]).
    wide: Vec<f32>,
    /// The second FP32 tree buffer: levels alternate between the two.
    spare: Vec<f32>,
    /// FP16 tree levels for [`TreePrecision::Fp16`] engines.
    narrow: Vec<F16>,
}

impl DotScratch {
    /// Creates an empty scratch; buffers grow to the engine's lane count on
    /// first use and are reused afterwards.
    pub fn new() -> DotScratch {
        DotScratch::default()
    }
}

/// Precision of the adder-tree internal nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TreePrecision {
    /// Every tree node rounds to binary16 (minimum area).
    Fp16,
    /// Tree nodes accumulate in binary32; only the final result rounds to
    /// FP16. This is what DSP58/DSP48 cascades typically provide and is the
    /// configuration the paper's engine uses (products dequantised to FP16,
    /// accumulation wide).
    #[default]
    Fp32,
}

/// A model of the VPU dot engine.
///
/// One hardware invocation multiplies `lanes` pairs of FP16 operands,
/// reduces them through the adder tree, optionally multiplies by a scale
/// (the dequantisation scale factor) and adds into a running accumulator.
///
/// # Example
///
/// ```
/// use zllm_fp16::{F16, vector::{DotEngine, TreePrecision}};
///
/// let engine = DotEngine::new(128, TreePrecision::Fp32);
/// let a: Vec<F16> = (0..128).map(|i| F16::from_f32(i as f32 / 64.0)).collect();
/// let b = vec![F16::ONE; 128];
/// let dot = engine.dot(&a, &b);
/// assert!((dot.to_f32() - 127.0 * 128.0 / 2.0 / 64.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct DotEngine {
    lanes: usize,
    precision: TreePrecision,
}

impl DotEngine {
    /// Creates an engine with the given lane count and tree precision.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or not a power of two (the adder tree is a
    /// full binary tree in hardware).
    pub fn new(lanes: usize, precision: TreePrecision) -> DotEngine {
        assert!(
            lanes > 0 && lanes.is_power_of_two(),
            "lanes must be a power of two"
        );
        DotEngine { lanes, precision }
    }

    /// The paper's configuration: 128 lanes, wide accumulation.
    pub fn kv260() -> DotEngine {
        DotEngine::new(128, TreePrecision::Fp32)
    }

    /// Number of multiplier lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Tree node precision.
    pub fn precision(&self) -> TreePrecision {
        self.precision
    }

    /// Adder-tree depth in stages (`log2(lanes)`).
    pub fn tree_depth(&self) -> u32 {
        self.lanes.trailing_zeros()
    }

    /// One beat of the engine: elementwise products then tree reduction.
    /// Inputs shorter than the lane count are zero-padded (lanes with no
    /// operand contribute nothing, exactly like masked hardware lanes).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different lengths or exceed the lane count.
    pub fn dot(&self, a: &[F16], b: &[F16]) -> F16 {
        if crate::fast::fast_kernels_enabled() {
            return SCRATCH.with(|s| self.dot_with(&mut s.borrow_mut(), a, b));
        }
        assert_eq!(a.len(), b.len(), "operand length mismatch");
        assert!(a.len() <= self.lanes, "operands exceed lane count");
        let mut prods: Vec<F16> = Vec::with_capacity(self.lanes);
        for i in 0..self.lanes {
            let p = if i < a.len() { a[i] * b[i] } else { F16::ZERO };
            prods.push(p);
        }
        self.reduce(&prods)
    }

    /// [`DotEngine::dot`] with caller-provided scratch and zero allocation.
    ///
    /// Bit-identical to the scalar path: products round once in lane order,
    /// then reduce through the same pairwise tree (`chunks(2)` pairing),
    /// with FP32 tree nodes accumulating wide exactly as
    /// `DotEngine::reduce` does. The only difference is that the tree
    /// levels live in `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different lengths or exceed the lane count.
    pub fn dot_with(&self, scratch: &mut DotScratch, a: &[F16], b: &[F16]) -> F16 {
        assert_eq!(a.len(), b.len(), "operand length mismatch");
        assert!(a.len() <= self.lanes, "operands exceed lane count");
        // The operands decode through the table directly (proven bit-equal
        // to the scalar decoder over the full input domain), skipping the
        // per-op toggle dispatch the operator overloads pay.
        let table = crate::fast::decode_table();
        let decode = |v: &F16| f32::from_bits(table[v.to_bits() as usize]);
        self.reduce_products(scratch, a.iter().zip(b).map(|(x, y)| decode(x) * decode(y)))
    }

    /// Eight dot products in one engine pass: one beat of eight weight
    /// rows against their activations, with the operands interleaved lane
    /// by lane — `w8[8i + r]` and `x8[8i + r]` are row `r`'s lane-`i`
    /// operands, given as the exact f32 decodes of F16 values.
    ///
    /// Result `r` is bit-identical to [`DotEngine::dot`] on row `r`'s F16
    /// operands: each product rounds once through binary16, lanes past
    /// the operands contribute +0.0, and the FP32 tree sums the same
    /// `(2i, 2i+1)` lane pairs of every row. On the interleaved layout a
    /// tree level is `to[8j + r] = from[16j + r] + from[16j + 8 + r]`,
    /// vertical adds with no shuffles. The pass runs at the highest ISA
    /// level the host supports; every level gives the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different lengths, a length that is
    /// not a multiple of eight, or more than eight times the lane count.
    pub fn dot8_f32_with(&self, scratch: &mut DotScratch, w8: &[f32], x8: &[f32]) -> [F16; 8] {
        self.dot8_f32_at(isa::level(), scratch, w8, x8)
    }

    /// [`DotEngine::dot8_f32_with`] at a given ISA level. The AVX2 level
    /// takes FP32 trees of at least eight lanes, and hands a beat with a
    /// NaN product back to the baseline level.
    pub(crate) fn dot8_f32_at(
        &self,
        level: Level,
        scratch: &mut DotScratch,
        w8: &[f32],
        x8: &[f32],
    ) -> [F16; 8] {
        assert_eq!(w8.len(), x8.len(), "operand length mismatch");
        assert_eq!(w8.len() % 8, 0, "operands must interleave eight rows");
        assert!(w8.len() <= 8 * self.lanes, "operands exceed lane count");
        let products = w8.iter().zip(x8).map(|(w, x)| w * x);
        match self.precision {
            TreePrecision::Fp32 => {
                let DotScratch { wide, spare, .. } = scratch;
                match level {
                    #[cfg(target_arch = "x86_64")]
                    Level::Avx2F16c(avx2) if self.lanes >= 8 => {
                        if let Some(sums) = avx2.dot8(w8, x8, self.lanes, spare) {
                            return sums.map(F16::from_f32_fast);
                        }
                    }
                    _ => {}
                }
                wide.resize(8 * self.lanes, 0.0);
                spare.resize(4 * self.lanes, 0.0);
                round_products(wide, products);
                tree_sum8_f32(wide, spare).map(F16::from_f32_fast)
            }
            TreePrecision::Fp16 => std::array::from_fn(|r| {
                let row = products.clone().skip(r).step_by(8);
                self.tree_sum_f16(&mut scratch.narrow, row.map(F16::from_f32_fast))
            }),
        }
    }

    /// The back end of [`DotEngine::dot_with`]: rounds each lane's f32
    /// product once through binary16 (lanes past the operands are zero),
    /// then runs the adder tree at the engine's node precision —
    /// bit-identical to `DotEngine::reduce` over the F16 products.
    fn reduce_products(
        &self,
        scratch: &mut DotScratch,
        products: impl ExactSizeIterator<Item = f32> + Clone,
    ) -> F16 {
        match self.precision {
            TreePrecision::Fp32 => {
                let DotScratch { wide, spare, .. } = scratch;
                wide.resize(self.lanes, 0.0);
                spare.resize(self.lanes / 2, 0.0);
                round_products(wide, products);
                F16::from_f32_fast(tree_sum_f32(wide, spare))
            }
            TreePrecision::Fp16 => {
                self.tree_sum_f16(&mut scratch.narrow, products.map(F16::from_f32_fast))
            }
        }
    }

    /// The FP16 adder tree over `products` zero-padded to the lane count,
    /// with every node rounded to binary16 and the `(2i, 2i+1)` pairing
    /// of `DotEngine::reduce`. `level` is scratch.
    fn tree_sum_f16(&self, level: &mut Vec<F16>, products: impl Iterator<Item = F16>) -> F16 {
        let table = crate::fast::decode_table();
        level.clear();
        level.extend(products);
        level.resize(self.lanes, F16::ZERO);
        let mut len = self.lanes;
        while len > 1 {
            len /= 2;
            for i in 0..len {
                let sum = f32::from_bits(table[level[2 * i].to_bits() as usize])
                    + f32::from_bits(table[level[2 * i + 1].to_bits() as usize]);
                level[i] = F16::from_f32_fast(sum);
            }
        }
        level[0]
    }

    /// Tree-reduces a full vector of lane values.
    fn reduce(&self, lanes: &[F16]) -> F16 {
        match self.precision {
            TreePrecision::Fp16 => {
                let mut level: Vec<F16> = lanes.to_vec();
                while level.len() > 1 {
                    level = level.chunks(2).map(|p| p[0] + p[1]).collect();
                }
                level[0]
            }
            TreePrecision::Fp32 => {
                let mut level: Vec<f32> = lanes.iter().map(|x| x.to_f32()).collect();
                while level.len() > 1 {
                    level = level.chunks(2).map(|p| p[0] + p[1]).collect();
                }
                F16::from_f32(level[0])
            }
        }
    }
}

/// The FP32 adder tree over a power-of-two `level`: sums `(2i, 2i+1)`
/// pairs at every level — the pairing of `DotEngine::reduce` — writing
/// each level into the other buffer, so a level is one straight loop with
/// no read-after-write hazard. Taking eight inputs to four sums at a time
/// gives the compiler the two-shuffles-and-one-packed-add shape it emits
/// for SSE2. `spare` must hold at least half of `level`.
fn tree_sum_f32(level: &mut [f32], spare: &mut [f32]) -> f32 {
    let (mut from, mut to) = (level, spare);
    let mut len = from.len();
    while len > 1 {
        len /= 2;
        let mut sums = to[..len].chunks_exact_mut(4);
        let mut pairs = from[..2 * len].chunks_exact(8);
        for (s, p) in (&mut sums).zip(&mut pairs) {
            // All loads before the stores, so the four adds pack into one
            // without proving that `to` and `from` never overlap.
            let four: [f32; 4] = std::array::from_fn(|j| p[2 * j] + p[2 * j + 1]);
            s.copy_from_slice(&four);
        }
        for (s, p) in sums
            .into_remainder()
            .iter_mut()
            .zip(pairs.remainder().chunks_exact(2))
        {
            *s = p[0] + p[1];
        }
        std::mem::swap(&mut from, &mut to);
    }
    from[0]
}

/// [`tree_sum_f32`] over eight interleaved rows, `level[8i + r]` being
/// row `r`'s lane `i`: each level computes `to[8j + r] = from[16j + r] +
/// from[16j + 8 + r]`, which for every row is the `(2i, 2i+1)` pairing,
/// as two packed adds per eight sums. `spare` must hold at least half of
/// `level`, whose length is eight times a power of two.
fn tree_sum8_f32(level: &mut [f32], spare: &mut [f32]) -> [f32; 8] {
    let (mut from, mut to) = (level, spare);
    let mut len = from.len();
    while len > 8 {
        len /= 2;
        for (s, p) in to[..len]
            .chunks_exact_mut(8)
            .zip(from[..2 * len].chunks_exact(16))
        {
            let sums: [f32; 8] = std::array::from_fn(|r| p[r] + p[8 + r]);
            s.copy_from_slice(&sums);
        }
        std::mem::swap(&mut from, &mut to);
    }
    std::array::from_fn(|r| from[r])
}

/// The fast kernels' product rounding: writes each product rounded once
/// through binary16 to the front of `level` and +0.0 to the rest, so
/// lanes past the operands add nothing — a product of 0 and a negative
/// operand would be −0.0 and flip the sign of an all-zero sum.
///
/// The lane loop runs the one-formula [`crate::fast::demote_round_short`]
/// and ORs every lane's [`crate::fast::demote_round_check`]; if any lane
/// is out of the shortcut's range (`|p| ≥ 65520` or NaN), the products
/// are recomputed and the whole beat is rounded by
/// [`crate::fast::demote_round`]. Both loops compile to packed ops.
fn round_products(level: &mut [f32], products: impl ExactSizeIterator<Item = f32> + Clone) {
    use crate::fast::{demote_round_check, demote_round_short};
    let (head, pad) = level.split_at_mut(products.len());
    let mut check = 0i32;
    for (lane, p) in head.iter_mut().zip(products.clone()) {
        check |= demote_round_check(p);
        *lane = demote_round_short(p);
    }
    if check < 0 {
        for (lane, p) in head.iter_mut().zip(products) {
            *lane = demote_round(p);
        }
    }
    pad.fill(0.0);
}

/// Builds one W4 weight beat of up to eight rows, lane-interleaved the
/// way [`DotEngine::dot8_f32_with`] takes it: `w8[8i + r]` is row `r`'s
/// weight `(codes[r][i] − zeros[r]) · scales[r]`, rounded once through
/// binary16 and given as its exact f32 decode — the operand the
/// dequantizer hands the multipliers. Rows past `codes.len()` get +0.0
/// weights. `w8` is resized to eight weights per code of a row. The beat
/// is built at the highest ISA level the host supports; every level gives
/// the same bits.
///
/// # Panics
///
/// Panics if there are no rows or more than eight, the three slices have
/// different lengths, the rows' code slices have different lengths, or a
/// code is 16 or more.
pub fn dequant_beat8(w8: &mut Vec<f32>, codes: &[&[u8]], zeros: &[u8], scales: &[F16]) {
    dequant_beat8_at(isa::level(), w8, codes, zeros, scales);
}

/// [`dequant_beat8`] at a given ISA level. The AVX2 level takes rows
/// whose length is a multiple of 16 and finite scales, and hands other
/// beats back to the baseline level.
pub(crate) fn dequant_beat8_at(
    level: Level,
    w8: &mut Vec<f32>,
    codes: &[&[u8]],
    zeros: &[u8],
    scales: &[F16],
) {
    let rows = codes.len();
    assert!((1..=8).contains(&rows), "a beat holds one to eight rows");
    assert!(
        zeros.len() == rows && scales.len() == rows,
        "one zero point and one scale per row"
    );
    let len = codes[0].len();
    assert!(
        codes.iter().all(|c| c.len() == len),
        "rows of one group have equal lengths"
    );
    // A missing row reads the first row's codes with zero point 0 and
    // scale +0.0: `(q − 0) · +0.0` is +0.0 for every code.
    let codes: [&[u8]; 8] = std::array::from_fn(|r| codes.get(r).copied().unwrap_or(codes[0]));
    let zeros: [u8; 8] = std::array::from_fn(|r| zeros.get(r).copied().unwrap_or(0));
    let scales: [f32; 8] = std::array::from_fn(|r| scales.get(r).map_or(0.0, |s| s.to_f32()));
    w8.resize(8 * len, 0.0);
    match level {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2F16c(avx2) if avx2.beat8(w8, codes, zeros, scales) => {}
        _ => beat8_tables(w8, &codes, &zeros, &scales),
    }
}

/// The baseline level of [`dequant_beat8`]: one sixteen-entry table per
/// row, entry `q` being the rounded weight of code `q` — one rounding per
/// code *value* — then the rows' codes gathered through their tables.
fn beat8_tables(w8: &mut [f32], codes: &[&[u8]; 8], zeros: &[u8; 8], scales: &[f32; 8]) {
    let tables: [[f32; 16]; 8] = std::array::from_fn(|r| {
        std::array::from_fn(|q| demote_round((q as i32 - zeros[r] as i32) as f32 * scales[r]))
    });
    // One iterator per row, each re-sliced to the beat once: the gather
    // indexes only the tables, whose bound rejects a code of 16 or more.
    let len = w8.len() / 8;
    let [c0, c1, c2, c3, c4, c5, c6, c7] = codes.map(|c| c[..len].iter());
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &tables;
    let rows = (c0.zip(c1).zip(c2).zip(c3)).zip(c4.zip(c5).zip(c6).zip(c7));
    for (w, ((((&q0, &q1), &q2), &q3), (((&q4, &q5), &q6), &q7))) in
        w8.chunks_exact_mut(8).zip(rows)
    {
        let lanes = [
            t0[q0 as usize],
            t1[q1 as usize],
            t2[q2 as usize],
            t3[q3 as usize],
            t4[q4 as usize],
            t5[q5 as usize],
            t6[q6 as usize],
            t7[q7 as usize],
        ];
        w.copy_from_slice(&lanes);
    }
}

impl Default for DotEngine {
    fn default() -> DotEngine {
        DotEngine::kv260()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact f64 dot product of FP16 operands — the "infinitely wide"
    /// reference.
    fn dot_exact(a: &[F16], b: &[F16]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x.to_f64() * y.to_f64()).sum()
    }

    #[test]
    fn engine_config() {
        let e = DotEngine::kv260();
        assert_eq!(e.lanes(), 128);
        assert_eq!(e.tree_depth(), 7);
        assert_eq!(e.precision(), TreePrecision::Fp32);
        assert_eq!(DotEngine::default().lanes(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lanes() {
        let _ = DotEngine::new(100, TreePrecision::Fp32);
    }

    #[test]
    fn short_operands_are_zero_padded() {
        let e = DotEngine::new(8, TreePrecision::Fp32);
        let a = vec![F16::ONE; 3];
        let b = vec![F16::from_f32(2.0); 3];
        assert_eq!(e.dot(&a, &b).to_f32(), 6.0);
    }

    #[test]
    fn ones_dot_counts_lanes() {
        let e = DotEngine::new(128, TreePrecision::Fp32);
        let v = vec![F16::ONE; 128];
        assert_eq!(e.dot(&v, &v).to_f32(), 128.0);
        let e16 = DotEngine::new(128, TreePrecision::Fp16);
        assert_eq!(e16.dot(&v, &v).to_f32(), 128.0);
    }

    /// Deterministic pseudo-random F16 vector (xorshift, no external deps).
    fn lcg_vec(seed: u64, n: usize) -> Vec<F16> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state >> 40) as f32 / (1u64 << 24) as f32;
                F16::from_f32(unit * 8.0 - 4.0)
            })
            .collect()
    }

    #[test]
    fn dot_with_matches_scalar_dot_bit_for_bit() {
        for (lanes, precision) in [
            (4, TreePrecision::Fp32),
            (128, TreePrecision::Fp32),
            (128, TreePrecision::Fp16),
        ] {
            let e = DotEngine::new(lanes, precision);
            let mut scratch = DotScratch::new();
            for trial in 0..32u64 {
                // Include short (zero-padded) operand lengths.
                let len = 1 + (trial as usize * 7) % lanes;
                let a = lcg_vec(trial * 2 + 1, len);
                let b = lcg_vec(trial * 2 + 2, len);
                crate::fast::set_fast_kernels(false);
                let scalar = e.dot(&a, &b);
                crate::fast::set_fast_kernels(true);
                let fast = e.dot(&a, &b);
                let explicit = e.dot_with(&mut scratch, &a, &b);
                assert_eq!(fast.to_bits(), scalar.to_bits(), "lanes {lanes}, len {len}");
                assert_eq!(explicit.to_bits(), scalar.to_bits());
            }
        }
    }

    /// Interleaves up to eight rows' operands lane by lane, the layout
    /// [`DotEngine::dot8_f32_with`] takes; rows past `rows.len()` get
    /// +0.0 weights against the first row's activations.
    fn interleave(rows: &[(Vec<F16>, Vec<F16>)]) -> (Vec<f32>, Vec<f32>) {
        let len = rows[0].0.len();
        let (mut w8, mut x8) = (Vec::new(), Vec::new());
        for i in 0..len {
            for r in 0..8 {
                let (w, x) = rows.get(r).map_or((0.0, rows[0].1[i].to_f32()), |(a, b)| {
                    (a[i].to_f32(), b[i].to_f32())
                });
                w8.push(w);
                x8.push(x);
            }
        }
        (w8, x8)
    }

    /// Asserts that the eight-dot pass over `rows`, at every ISA level
    /// the host supports, gives for every real row the bits of a single
    /// scalar dot with fast kernels off, and that the AVX2 kernel declines
    /// exactly the beats with a NaN product.
    fn assert_dot8_matches_scalar(
        e: &DotEngine,
        scratch: &mut DotScratch,
        rows: &[(Vec<F16>, Vec<F16>)],
        case: &str,
    ) {
        crate::fast::set_fast_kernels(false);
        let scalar: Vec<u16> = rows.iter().map(|(a, b)| e.dot(a, b).to_bits()).collect();
        crate::fast::set_fast_kernels(true);
        let (w8, x8) = interleave(rows);
        for level in isa::levels() {
            let fused = e.dot8_f32_at(level, scratch, &w8, &x8);
            for (r, want) in scalar.iter().enumerate() {
                assert_eq!(fused[r].to_bits(), *want, "row {r} at {level:?}: {case}");
            }
            #[cfg(target_arch = "x86_64")]
            if let Level::Avx2F16c(avx2) = level {
                if e.precision == TreePrecision::Fp32 && e.lanes >= 8 {
                    let nan = w8.iter().zip(&x8).any(|(w, x)| (w * x).is_nan());
                    let declined = avx2.dot8(&w8, &x8, e.lanes, &mut Vec::new()).is_none();
                    assert_eq!(declined, nan, "AVX2 declines NaN products: {case}");
                }
            }
        }
    }

    #[test]
    fn dot8_f32_with_matches_f16_dot_bit_for_bit() {
        for precision in [TreePrecision::Fp32, TreePrecision::Fp16] {
            let e = DotEngine::new(64, precision);
            let mut scratch = DotScratch::new();
            for trial in 0..16u64 {
                let len = 1 + (trial as usize * 11) % 64;
                let rows: Vec<(Vec<F16>, Vec<F16>)> = (0..8)
                    .map(|r| {
                        (
                            lcg_vec(trial * 17 + r, len),
                            lcg_vec(trial * 17 + r + 8, len),
                        )
                    })
                    .collect();
                // Whole tiles and partial ones padded with +0.0 weights.
                for tile in 1..=8 {
                    let case = format!("{precision:?} len {len}, {tile} rows");
                    assert_dot8_matches_scalar(&e, &mut scratch, &rows[..tile], &case);
                }
            }
        }
    }

    /// Operand pairs whose products hit binary16's special cases:
    /// 0 — signed zeros; 1 — products in the subnormal range, rounding to
    /// zero, and F16 subnormal operands; 2 — products overflowing to ±inf
    /// (their sums meet as inf − inf = NaN); 3 — NaN operands; 4 — inf × 0
    /// beside inf × finite; 5 — lanes 8k and 8k+1 cancel exactly, beside
    /// products small enough to vanish when added to one of them alone,
    /// so any tree pairing other than `(2i, 2i+1)` changes the result;
    /// 6 — every product is −0.0, so a sum stays −0.0 until a lane past
    /// the operands adds its +0.0; 7 — lanes 0 and 8 cancel exactly,
    /// beside products that vanish when added to either alone, so a
    /// pairing of the tree's blocks of eight lanes other than `(2j,
    /// 2j+1)` changes the result.
    /// No dot mixes NaNs of opposite sign: an add returns one of its NaN
    /// operands and the compiler may swap an add's operands, so such a
    /// sum has no single bit pattern on either path.
    fn special_operands(family: u64, seed: u64, n: usize) -> (Vec<F16>, Vec<F16>) {
        let scaled = |v: &[F16], s: f32| -> Vec<F16> {
            v.iter().map(|x| F16::from_f32(x.to_f32() * s)).collect()
        };
        let a = lcg_vec(seed, n);
        let b = lcg_vec(seed ^ 0x9E37_79B9, n);
        match family {
            0 => {
                let a = a
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| match i % 3 {
                        0 => F16::ZERO,
                        1 => F16::NEG_ZERO,
                        _ => v,
                    })
                    .collect();
                let b = b
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if i % 5 == 0 { F16::NEG_ZERO } else { v })
                    .collect();
                (a, b)
            }
            1 => {
                // |a|, |b| ≤ 2^-7 put products below 2^-14 (subnormal) and
                // below 2^-25 (rounds to zero); every fourth lane multiplies
                // an F16 subnormal by an ordinary value.
                let mut small_a = scaled(&a, 1.0 / 512.0);
                let mut small_b = scaled(&b, 1.0 / 512.0);
                for i in (0..n).step_by(4) {
                    let sign = (i as u16 & 8) << 12;
                    small_a[i] = F16::from_bits(sign | (1 + i % 0x3FF) as u16);
                    small_b[i] = b[i];
                }
                (small_a, small_b)
            }
            2 => {
                let mut a = scaled(&a, 8192.0);
                let mut b = scaled(&b, 16.0);
                // F16::MAX products stay finite lane by lane and overflow
                // only once the FP32 tree adds them.
                for i in (0..n).step_by(5) {
                    a[i] = F16::MAX;
                    b[i] = F16::ONE;
                }
                (a, b)
            }
            3 => {
                let a = a
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if i % 4 == 1 { F16::NAN } else { v })
                    .collect();
                let b = b
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if i % 8 == 1 { F16::ZERO } else { v })
                    .collect();
                (a, b)
            }
            4 => {
                let mut a = a;
                let mut b = b;
                for i in (2..n).step_by(4) {
                    a[i] = if i % 8 == 2 {
                        F16::INFINITY
                    } else {
                        F16::NEG_INFINITY
                    };
                    if i % 3 == 0 {
                        b[i] = if i % 2 == 0 { F16::ZERO } else { F16::NEG_ZERO };
                    }
                }
                (a, b)
            }
            5 => {
                let mut small = scaled(&a, 1.0 / 256.0);
                let mut b = b;
                for i in (0..n.saturating_sub(1)).step_by(8) {
                    let big = F16::from_f32(a[i].to_f32() * 2048.0);
                    small[i] = big;
                    small[i + 1] = -big;
                    b[i + 1] = b[i];
                }
                (small, b)
            }
            6 => (vec![F16::ZERO; n], vec![F16::from_f32(-1.5); n]),
            _ => {
                // Products of at most 2^-12: seven of them sum to less
                // than half an f32 ulp of ±32768.
                let mut small = scaled(&a, 1.0 / 65536.0);
                let mut b = b;
                if n > 8 {
                    (small[0], small[8]) = (F16::from_f32(4096.0), F16::from_f32(-4096.0));
                    (b[0], b[8]) = (F16::from_f32(8.0), F16::from_f32(8.0));
                }
                (small, b)
            }
        }
    }

    #[test]
    fn special_operands_match_scalar_dot_bit_for_bit() {
        for precision in [TreePrecision::Fp32, TreePrecision::Fp16] {
            for lanes in [4usize, 128, 1024] {
                let e = DotEngine::new(lanes, precision);
                let mut scratch = DotScratch::new();
                // Full beats and short, zero-padded ones.
                for len in [lanes, lanes - 1, lanes / 2 + 1, lanes / 2, 1] {
                    let rows: Vec<(Vec<F16>, Vec<F16>)> = (0..8u64)
                        .map(|family| special_operands(family, 7 * family + len as u64, len))
                        .collect();
                    for (family, (a, b)) in rows.iter().enumerate() {
                        crate::fast::set_fast_kernels(false);
                        let scalar = e.dot(a, b).to_bits();
                        crate::fast::set_fast_kernels(true);
                        let case =
                            format!("{precision:?}, {lanes} lanes, family {family}, len {len}");
                        assert_eq!(e.dot(a, b).to_bits(), scalar, "dot: {case}");
                        assert_eq!(
                            e.dot_with(&mut scratch, a, b).to_bits(),
                            scalar,
                            "dot_with: {case}"
                        );
                    }
                    // Every family in every row slot of an eight-dot
                    // tile, and tiles of one to eight rows.
                    for first in 0..8 {
                        let tile: Vec<_> =
                            (first..first + 8).map(|f| rows[f % 8].clone()).collect();
                        for n in 1..=8 {
                            let case = format!(
                                "{precision:?}, {lanes} lanes, {n} rows of families from \
                                 {first}, len {len}"
                            );
                            assert_dot8_matches_scalar(&e, &mut scratch, &tile[..n], &case);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot8_rounds_a_tile_with_one_out_of_range_row_through_the_fallback() {
        // Row `k` overflows binary16 in some lanes (family 2), the other
        // rows stay in the shortcut's range: the fallback must round the
        // whole beat, and only row `k` tells a skipped fallback apart.
        use crate::fast::demote_round_check;
        let e = DotEngine::new(128, TreePrecision::Fp32);
        let mut scratch = DotScratch::new();
        for len in [128, 77] {
            for k in 0..8 {
                let rows: Vec<(Vec<F16>, Vec<F16>)> = (0..8u64)
                    .map(|r| {
                        let family = if r == k as u64 {
                            2
                        } else {
                            [0, 1, 5][r as usize % 3]
                        };
                        special_operands(family, 31 + r, len)
                    })
                    .collect();
                let trips: Vec<bool> = rows
                    .iter()
                    .map(|(a, b)| {
                        a.iter()
                            .zip(b)
                            .any(|(x, y)| demote_round_check(x.to_f32() * y.to_f32()) < 0)
                    })
                    .collect();
                let want: Vec<bool> = (0..8).map(|r| r == k).collect();
                assert_eq!(trips, want, "only row {k} trips the check");
                assert_dot8_matches_scalar(&e, &mut scratch, &rows, &format!("row {k}, len {len}"));
            }
        }
    }

    /// [`dequant_beat8`]'s contract element by element:
    /// `demote_round((q − z) as f32 × s)` per row, +0.0 past the rows.
    fn beat8_reference(codes: &[&[u8]], zeros: &[u8], scales: &[F16]) -> Vec<u32> {
        (0..codes[0].len())
            .flat_map(|i| {
                (0..8).map(move |r| match codes.get(r) {
                    Some(c) => {
                        let centred = c[i] as i32 - zeros[r] as i32;
                        demote_round(centred as f32 * scales[r].to_f32()).to_bits()
                    }
                    None => 0,
                })
            })
            .collect()
    }

    #[test]
    fn dequant_beat8_matches_per_element_rounding_at_every_level() {
        // Scales of both signs and many binades, zero points that differ
        // row by row and equal some codes (a zero weight, −0.0 under a
        // negative scale), and beats with an inf scale, a NaN scale and a
        // NaN scale with a payload, which the AVX2 level must hand back.
        let specials = [
            None,
            Some(F16::INFINITY),
            Some(F16::NEG_INFINITY),
            Some(F16::NAN),
            Some(F16::from_bits(0xFE55)),
        ];
        for len in [16, 48, 72, 128] {
            for rows in 1..=8usize {
                for (case, special) in specials.iter().enumerate() {
                    let seed = (len * 8 + rows) as u64 * 5 + case as u64;
                    let bytes: Vec<u8> = lcg_vec(seed, rows * len)
                        .iter()
                        .map(|v| (v.to_bits() >> 3) as u8 & 15)
                        .collect();
                    let codes: Vec<&[u8]> = bytes.chunks(len).collect();
                    let zeros: Vec<u8> = (0..rows).map(|r| ((3 * r + case) % 16) as u8).collect();
                    let mut scales: Vec<F16> = lcg_vec(seed ^ 0xA5, rows)
                        .iter()
                        .enumerate()
                        .map(|(r, s)| F16::from_f32(s.to_f32() * [1e-3, 0.25, 40.0][r % 3]))
                        .collect();
                    if let Some(s) = special {
                        scales[rows / 2] = *s;
                    }
                    let want = beat8_reference(&codes, &zeros, &scales);
                    for level in isa::levels() {
                        let mut w8 = vec![f32::NAN; 3];
                        dequant_beat8_at(level, &mut w8, &codes, &zeros, &scales);
                        let got: Vec<u32> = w8.iter().map(|w| w.to_bits()).collect();
                        assert_eq!(got, want, "{level:?}, len {len}, {rows} rows, case {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn dequant_beat8_rejects_codes_of_16_or_more_at_every_level() {
        let codes: Vec<u8> = (0..64)
            .map(|i| if i == 37 { 16 } else { i as u8 % 16 })
            .collect();
        for level in isa::levels() {
            let built = std::panic::catch_unwind(|| {
                let mut w8 = Vec::new();
                dequant_beat8_at(level, &mut w8, &[&codes], &[3], &[F16::ONE]);
            });
            assert!(built.is_err(), "{level:?} took code 16");
        }
    }

    #[test]
    fn special_operand_families_reach_their_cases() {
        // The families above must actually produce what they are named
        // for, or the differential test proves less than it claims.
        let e = DotEngine::new(128, TreePrecision::Fp32);
        let products = |family| {
            let (a, b) = special_operands(family, 3, 128);
            a.iter().zip(&b).map(|(x, y)| *x * *y).collect::<Vec<F16>>()
        };
        assert!(products(0).iter().any(|p| p.to_bits() == 0x8000));
        assert!(products(1).iter().any(|p| p.is_subnormal()));
        assert!(products(1).iter().any(|p| p.to_bits() & 0x7FFF == 0));
        assert!(products(2).iter().any(|p| p.is_infinite()));
        assert!(products(3).iter().any(|p| p.is_nan()));
        let (a, b) = special_operands(4, 3, 128);
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.is_infinite() && y.to_f32() == 0.0));
        assert!(e.dot(&a, &b).is_nan());
        assert!(products(6).iter().all(|p| p.to_bits() == 0x8000));
        // Pairing lane i with lane i + len/2 instead gives other bits.
        let mut level: Vec<f32> = products(5).iter().map(|p| p.to_f32()).collect();
        while level.len() > 1 {
            let half = level.len() / 2;
            level = (0..half).map(|i| level[i] + level[i + half]).collect();
        }
        let (a, b) = special_operands(5, 3, 128);
        assert_ne!(F16::from_f32(level[0]).to_bits(), e.dot(&a, &b).to_bits());
        // So does pairing block j of eight lanes with block j + n/2.
        let mut level: Vec<f32> = products(7)
            .chunks(8)
            .map(|block| {
                let mut sums: Vec<f32> = block.iter().map(|p| p.to_f32()).collect();
                while sums.len() > 1 {
                    sums = sums.chunks(2).map(|p| p[0] + p[1]).collect();
                }
                sums[0]
            })
            .collect();
        while level.len() > 1 {
            let half = level.len() / 2;
            level = (0..half).map(|i| level[i] + level[i + half]).collect();
        }
        let (a, b) = special_operands(7, 3, 128);
        assert_ne!(F16::from_f32(level[0]).to_bits(), e.dot(&a, &b).to_bits());
    }

    #[test]
    fn fp32_tree_is_at_least_as_accurate_as_fp16_tree() {
        // A cancellation-heavy vector: alternating large +/- values with a
        // small residue. The FP16 tree loses the residue; FP32 keeps it.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..128 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            a.push(F16::from_f32(sign * 1000.0));
            b.push(F16::ONE);
        }
        a[127] = F16::from_f32(-1000.25);
        let exact = dot_exact(&a, &b);
        let e32 = DotEngine::new(128, TreePrecision::Fp32)
            .dot(&a, &b)
            .to_f64();
        let e16 = DotEngine::new(128, TreePrecision::Fp16)
            .dot(&a, &b)
            .to_f64();
        assert!((e32 - exact).abs() <= (e16 - exact).abs());
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Serial FP16 dot product (single multiplier + single adder),
        /// the minimal reference datapath the tree is compared against.
        fn dot_serial(a: &[F16], b: &[F16]) -> F16 {
            let mut acc = F16::ZERO;
            for (x, y) in a.iter().zip(b) {
                acc += *x * *y;
            }
            acc
        }

        fn f16_vec(n: usize) -> impl Strategy<Value = Vec<F16>> {
            proptest::collection::vec((-4.0f32..4.0).prop_map(F16::from_f32), n)
        }

        proptest! {
            #[test]
            fn tree_dot_close_to_exact(a in f16_vec(128), b in f16_vec(128)) {
                let e = DotEngine::new(128, TreePrecision::Fp32);
                let got = e.dot(&a, &b).to_f64();
                let exact = dot_exact(&a, &b);
                // FP32 tree over FP16 products: error bounded by product
                // rounding (≤ 2^-11 relative each) plus final rounding.
                let bound = 1e-2 * (1.0 + exact.abs()) + 0.6;
                prop_assert!((got - exact).abs() < bound, "got {got}, exact {exact}");
            }

            #[test]
            fn dot_is_symmetric(a in f16_vec(64), b in f16_vec(64)) {
                let e = DotEngine::new(64, TreePrecision::Fp32);
                prop_assert_eq!(e.dot(&a, &b).to_bits(), e.dot(&b, &a).to_bits());
            }

            #[test]
            fn scratch_dot_matches_scalar(a in f16_vec(64), b in f16_vec(64)) {
                let e = DotEngine::new(64, TreePrecision::Fp32);
                let mut scratch = DotScratch::new();
                crate::fast::set_fast_kernels(false);
                let scalar = e.dot(&a, &b);
                crate::fast::set_fast_kernels(true);
                prop_assert_eq!(
                    e.dot_with(&mut scratch, &a, &b).to_bits(),
                    scalar.to_bits()
                );
            }

            #[test]
            fn zero_vector_gives_zero(a in f16_vec(32)) {
                let e = DotEngine::new(32, TreePrecision::Fp16);
                let z = vec![F16::ZERO; 32];
                prop_assert_eq!(e.dot(&a, &z).to_f32(), 0.0);
            }

            #[test]
            fn serial_and_tree_agree_on_nonnegative_inputs(
                a in proptest::collection::vec((0.0f32..2.0).prop_map(F16::from_f32), 16)
            ) {
                // With all-positive values there is no cancellation; serial and
                // tree orderings agree to within a few ulps.
                let e = DotEngine::new(16, TreePrecision::Fp32);
                let tree = e.dot(&a, &a).to_f64();
                let serial = dot_serial(&a, &a).to_f64();
                let exact = dot_exact(&a, &a);
                prop_assert!((tree - exact).abs() <= 0.05 * exact.abs() + 0.1);
                prop_assert!((serial - exact).abs() <= 0.05 * exact.abs() + 0.2);
            }
        }
    }
}
