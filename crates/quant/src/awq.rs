//! Activation-aware weight quantization (AWQ), §IV-A.
//!
//! The paper adopts AWQ's W4A16 scheme: before groupwise 4-bit quantization,
//! each weight **column** (input channel) is multiplied by a per-channel
//! scale `s_j = m_j^α / norm`, where `m_j` is the mean activation magnitude
//! of channel `j` observed on calibration data. Scaling up salient channels
//! shrinks their relative quantization error; the activation entering the
//! layer is divided by the same scale at runtime (folded into the previous
//! layer in a real deployment, applied explicitly here). The exponent `α`
//! is chosen by grid search to minimise the output MSE of the layer.
//!
//! This module implements the search on row-major weight matrices, so the
//! quantized artifacts produced by the workspace are genuinely
//! activation-aware rather than plain round-to-nearest.

use crate::error::mse;
use crate::group::{GroupQuantConfig, GroupQuantizer, QuantizedTensor};

/// A weight matrix quantized with AWQ per-channel scaling.
#[derive(Debug, Clone)]
pub struct AwqQuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Chosen grid-search exponent.
    alpha: f32,
    /// Per-input-channel scales applied to columns before quantization.
    channel_scales: Vec<f32>,
    /// The quantized scaled weights, row-major, one tensor per row so each
    /// row starts a fresh quantization group (as the streaming hardware
    /// requires: a dot product consumes whole groups of one row).
    rows_q: Vec<QuantizedTensor>,
}

impl AwqQuantizedMatrix {
    /// Output dimension (number of rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input dimension (number of columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The α chosen by the grid search.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Per-channel scales (length = `cols`).
    pub fn channel_scales(&self) -> &[f32] {
        &self.channel_scales
    }

    /// The quantized row tensors.
    pub fn rows_q(&self) -> &[QuantizedTensor] {
        &self.rows_q
    }

    /// Reconstructs the effective weight matrix
    /// `Ŵ[i][j] = dequant(W·s)[i][j] / s_j`, row-major.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in &self.rows_q {
            out.extend(
                r.dequantize()
                    .iter()
                    .zip(&self.channel_scales)
                    .map(|(v, s)| v / s),
            );
        }
        out
    }

    /// Applies the runtime input transform: divides an activation vector by
    /// the per-channel scales (the x/s of AWQ).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn scale_input(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "activation length mismatch");
        x.iter()
            .zip(&self.channel_scales)
            .map(|(&v, &s)| v / s)
            .collect()
    }
}

/// Configuration of the AWQ search.
#[derive(Debug, Clone)]
pub struct AwqConfig {
    /// Groupwise quantizer settings (4-bit, group 128 in the paper).
    pub quant: GroupQuantConfig,
    /// Grid of α values to try (0 disables scaling entirely).
    pub alpha_grid: Vec<f32>,
}

impl Default for AwqConfig {
    fn default() -> AwqConfig {
        AwqConfig {
            quant: GroupQuantConfig::w4_g128(),
            alpha_grid: (0..=10).map(|i| i as f32 / 10.0).collect(),
        }
    }
}

/// Runs the AWQ grid search for one linear layer.
///
/// * `weights` — row-major `rows × cols` matrix.
/// * `calib` — calibration activations, row-major `n × cols` (at least one).
///
/// Returns the quantized matrix with the α minimising the layer output MSE
/// over the calibration set; the first of equal errors wins.
///
/// # Panics
///
/// Panics if dimensions are inconsistent, `calib` is empty, or the α grid
/// is empty.
pub fn quantize_awq(
    weights: &[f32],
    rows: usize,
    cols: usize,
    calib: &[f32],
    config: &AwqConfig,
) -> AwqQuantizedMatrix {
    let mut best: Option<(f64, AwqQuantizedMatrix)> = None;
    for (err, candidate) in evaluate_grid(weights, rows, cols, calib, config) {
        match &best {
            Some((e, _)) if *e <= err => {}
            _ => best = Some((err, candidate)),
        }
    }
    best.expect("alpha grid is non-empty").1
}

/// Every α candidate of the grid with its calibration-output MSE, in grid
/// order.
///
/// With fast kernels off, each candidate is materialized as a full Ŵ and
/// multiplied by the serial [`matmul`]: the reference evaluation. With
/// them on, candidates fan out across worker threads with one reusable
/// workspace per thread, and each is evaluated one weight row at a time
/// through [`calib_dots`]. Both paths compute every output as the same
/// serial f32 sum and every error over the same output order, so each
/// error is bit-identical for any thread count.
fn evaluate_grid(
    weights: &[f32],
    rows: usize,
    cols: usize,
    calib: &[f32],
    config: &AwqConfig,
) -> Vec<(f64, AwqQuantizedMatrix)> {
    assert_eq!(weights.len(), rows * cols, "weight dimensions inconsistent");
    assert!(
        !calib.is_empty() && calib.len().is_multiple_of(cols),
        "calibration shape mismatch"
    );
    assert!(!config.alpha_grid.is_empty(), "empty alpha grid");
    let n_calib = calib.len() / cols;

    // Mean activation magnitude per channel.
    let mut mag = vec![0.0f32; cols];
    for row in calib.chunks(cols) {
        for (m, &v) in mag.iter_mut().zip(row) {
            *m += v.abs();
        }
    }
    for m in &mut mag {
        *m /= n_calib as f32;
        // Guard channels that are silent in the calibration set.
        if *m <= 0.0 {
            *m = 1e-6;
        }
    }

    if !zllm_fp16::fast_kernels_enabled() {
        let reference = matmul(weights, rows, cols, calib, n_calib);
        return config
            .alpha_grid
            .iter()
            .map(|&alpha| {
                let candidate = quantize_with_alpha(weights, rows, cols, &mag, alpha, config.quant);
                let outputs = matmul(&candidate.dequantize(), rows, cols, calib, n_calib);
                (mse(&reference, &outputs), candidate)
            })
            .collect();
    }

    // The calibration set as `cols × n`, so one weight element meets all
    // `n` activations it multiplies in one contiguous run.
    let mut xt = vec![0.0f32; cols * n_calib];
    for (i, xrow) in calib.chunks(cols).enumerate() {
        for (j, &v) in xrow.iter().enumerate() {
            xt[j * n_calib + i] = v;
        }
    }
    let mut reference = vec![0.0f32; n_calib * rows];
    for (r, wrow) in weights.chunks(cols).enumerate() {
        calib_dots(wrow, &xt, r, &mut reference);
    }
    zllm_par::par_map_init(
        config.alpha_grid.clone(),
        AwqWorkspace::default,
        |ws, alpha| {
            let candidate =
                quantize_with_alpha_ws(weights, rows, cols, &mag, alpha, config.quant, ws);
            ws.outputs.resize(n_calib * rows, 0.0);
            for (r, row_q) in candidate.rows_q.iter().enumerate() {
                row_q.dequantize_into(&mut ws.row);
                for (v, s) in ws.row.iter_mut().zip(&candidate.channel_scales) {
                    *v /= s;
                }
                calib_dots(&ws.row, &xt, r, &mut ws.outputs);
            }
            (mse(&reference, &ws.outputs), candidate)
        },
    )
}

/// Per-thread scratch for the parallel α search: every buffer the
/// candidate evaluation needs, allocated once per worker thread.
#[derive(Debug, Default)]
struct AwqWorkspace {
    /// Per-channel scales under construction.
    scales: Vec<f32>,
    /// One scaled weight row awaiting quantization.
    scaled: Vec<f32>,
    /// One reconstructed row of Ŵ.
    row: Vec<f32>,
    /// Candidate layer outputs over the calibration set, `n × rows`.
    outputs: Vec<f32>,
}

/// Quantizes with a fixed α (no search) — used by tests and ablations.
pub fn quantize_with_alpha(
    weights: &[f32],
    rows: usize,
    cols: usize,
    channel_mag: &[f32],
    alpha: f32,
    quant: GroupQuantConfig,
) -> AwqQuantizedMatrix {
    let mut ws = AwqWorkspace::default();
    quantize_with_alpha_ws(weights, rows, cols, channel_mag, alpha, quant, &mut ws)
}

/// [`quantize_with_alpha`] with caller-provided scratch — the same
/// operations in the same order (results are bit-identical), but the
/// intermediate scale/scaled-row buffers come from `ws`.
fn quantize_with_alpha_ws(
    weights: &[f32],
    rows: usize,
    cols: usize,
    channel_mag: &[f32],
    alpha: f32,
    quant: GroupQuantConfig,
    ws: &mut AwqWorkspace,
) -> AwqQuantizedMatrix {
    assert_eq!(weights.len(), rows * cols, "weight dimensions inconsistent");
    assert_eq!(channel_mag.len(), cols, "channel magnitude length mismatch");

    // s_j = m_j^alpha, normalised to geometric mean 1 so the overall weight
    // magnitude (and hence the groupwise dynamic range) stays centred.
    let scales = &mut ws.scales;
    scales.clear();
    scales.extend(channel_mag.iter().map(|&m| m.powf(alpha)));
    let log_mean = scales
        .iter()
        .map(|&s| (s.max(1e-30) as f64).ln())
        .sum::<f64>()
        / cols as f64;
    let norm = log_mean.exp() as f32;
    for s in scales.iter_mut() {
        *s = (*s / norm).clamp(1e-4, 1e4);
    }

    let quantizer = GroupQuantizer::new(quant);
    let mut rows_q = Vec::with_capacity(rows);
    for row in weights.chunks(cols) {
        ws.scaled.clear();
        ws.scaled
            .extend(row.iter().zip(scales.iter()).map(|(&w, &s)| w * s));
        rows_q.push(quantizer.quantize(&ws.scaled));
    }

    AwqQuantizedMatrix {
        rows,
        cols,
        alpha,
        channel_scales: scales.clone(),
        rows_q,
    }
}

/// Row-major GEMM helper: `out[n][r] = Σ_j w[r][j] · x[n][j]`, each
/// output one serial sum from 0.0 in column order.
fn matmul(w: &[f32], rows: usize, cols: usize, x: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * rows];
    for (i, xrow) in x.chunks(cols).enumerate() {
        for (r, wrow) in w.chunks(cols).enumerate() {
            let mut acc = 0.0f32;
            for (a, b) in wrow.iter().zip(xrow) {
                acc += a * b;
            }
            out[i * rows + r] = acc;
        }
    }
    out
}

/// Weight row `r` against the whole calibration set: writes
/// `out[i·rows + r] = Σ_j w[j] · xt[j·n + i]` for every calibration row
/// `i`, with `xt` the calibration rows transposed to `cols × n` and `out`
/// the `n × rows` output matrix, laid out as [`matmul`]'s.
///
/// Each output is the same serial sum from 0.0 in column order as
/// [`matmul`]'s. Only independent sums sit side by side, in blocks of
/// 16, then 8, then single outputs, so the blocks compile to packed
/// arithmetic without reassociating anything.
fn calib_dots(w: &[f32], xt: &[f32], r: usize, out: &mut [f32]) {
    let n = xt.len() / w.len();
    let rows = out.len() / n;
    let mut store = |i0: usize, acc: &[f32]| {
        for (i, &v) in (i0..).zip(acc) {
            out[i * rows + r] = v;
        }
    };
    let mut i = 0;
    while n - i >= 16 {
        store(i, &dot_block::<16>(w, xt, i));
        i += 16;
    }
    if n - i >= 8 {
        store(i, &dot_block::<8>(w, xt, i));
        i += 8;
    }
    for i in i..n {
        store(i, &dot_block::<1>(w, xt, i));
    }
}

/// Outputs `i0 .. i0 + B` of [`calib_dots`], one accumulator each.
#[inline]
fn dot_block<const B: usize>(w: &[f32], xt: &[f32], i0: usize) -> [f32; B] {
    let mut acc = [0.0f32; B];
    for (&wj, xrow) in w.iter().zip(xt.chunks_exact(xt.len() / w.len())) {
        let x: &[f32; B] = xrow[i0..i0 + B].try_into().expect("block inside the row");
        for (a, &xv) in acc.iter_mut().zip(x) {
            *a += wj * xv;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use zllm_rng::StdRng;

    /// Synthetic `rows × cols` layer and `n` calibration rows with one
    /// salient input channel — the scenario AWQ is designed for.
    fn layer(seed: u64, rows: usize, cols: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        // Channel 3 carries activations 50× larger than the rest.
        let calib: Vec<f32> = (0..n * cols)
            .map(|i| {
                let base = rng.gen_range(-1.0f32..1.0);
                if i % cols == 3 {
                    base * 50.0
                } else {
                    base
                }
            })
            .collect();
        (weights, calib)
    }

    fn salient_case(seed: u64) -> (Vec<f32>, usize, usize, Vec<f32>) {
        let (rows, cols) = (8, 64);
        let (weights, calib) = layer(seed, rows, cols, 16);
        (weights, rows, cols, calib)
    }

    #[test]
    fn awq_beats_plain_rtn_on_salient_channels() {
        let (weights, rows, cols, calib) = salient_case(7);
        let cfg = AwqConfig {
            quant: GroupQuantConfig::new(32, 4),
            ..AwqConfig::default()
        };
        let awq = quantize_awq(&weights, rows, cols, &calib, &cfg);
        let mag = vec![1.0f32; cols];
        let rtn = quantize_with_alpha(&weights, rows, cols, &mag, 0.0, cfg.quant);

        let n = calib.len() / cols;
        let reference = matmul(&weights, rows, cols, &calib, n);
        let awq_out = matmul(&awq.dequantize(), rows, cols, &calib, n);
        let rtn_out = matmul(&rtn.dequantize(), rows, cols, &calib, n);
        let awq_err = mse(&reference, &awq_out);
        let rtn_err = mse(&reference, &rtn_out);
        assert!(
            awq_err <= rtn_err,
            "AWQ (α={}) err {awq_err} should not exceed RTN err {rtn_err}",
            awq.alpha()
        );
        assert!(awq.alpha() > 0.0, "search should pick a non-trivial α");
    }

    #[test]
    fn alpha_zero_matches_plain_quantization() {
        let (weights, rows, cols, _) = salient_case(11);
        let mag: Vec<f32> = (1..=cols).map(|i| i as f32).collect();
        let q = quantize_with_alpha(
            &weights,
            rows,
            cols,
            &mag,
            0.0,
            GroupQuantConfig::new(32, 4),
        );
        // α = 0 ⇒ all channel scales equal 1 after normalisation.
        for &s in q.channel_scales() {
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert_eq!(q.rows(), rows);
        assert_eq!(q.cols(), cols);
    }

    #[test]
    fn scale_input_inverts_channel_scaling() {
        let (weights, rows, cols, calib) = salient_case(13);
        let cfg = AwqConfig::default();
        let q = quantize_awq(&weights, rows, cols, &calib[..cols], &cfg);
        let x: Vec<f32> = (0..cols).map(|i| i as f32 * 0.1).collect();
        let xs = q.scale_input(&x);
        for ((orig, scaled), s) in x.iter().zip(&xs).zip(q.channel_scales()) {
            assert!((scaled * s - orig).abs() < 1e-5);
        }
    }

    #[test]
    fn scaled_matvec_matches_unscaled_reconstruction() {
        // W x  ≈  dequant(W·s) · (x/s): the runtime identity AWQ relies on.
        let (weights, rows, cols, calib) = salient_case(17);
        let q = quantize_awq(&weights, rows, cols, &calib, &AwqConfig::default());
        let x = &calib[..cols];
        let via_reconstruction = matmul(&q.dequantize(), rows, cols, x, 1);
        // Manual path: scaled weights times scaled input.
        let xs = q.scale_input(x);
        let mut manual = vec![0.0f32; rows];
        for (r, row_q) in q.rows_q().iter().enumerate() {
            let w_scaled = row_q.dequantize();
            manual[r] = w_scaled.iter().zip(&xs).map(|(a, b)| a * b).sum();
        }
        for (a, b) in via_reconstruction.iter().zip(&manual) {
            assert!((a - b).abs() <= a.abs() * 1e-4 + 1e-3, "{a} vs {b}");
        }
    }

    /// Every candidate's bits: α, channel scales, codes, FP16 scales and
    /// zero points.
    fn candidate_bits(m: &AwqQuantizedMatrix) -> Vec<u32> {
        let mut bits = vec![m.alpha().to_bits()];
        bits.extend(m.channel_scales().iter().map(|s| s.to_bits()));
        for row in m.rows_q() {
            bits.extend(row.codes().iter().map(|&c| u32::from(c)));
            bits.extend(row.scales().iter().map(|s| u32::from(s.to_bits())));
            bits.extend(row.zeros().iter().map(|&z| u32::from(z)));
        }
        bits
    }

    /// Runs the grid with fast kernels off (the serial reference) and on
    /// at several thread counts, and requires every α's error and
    /// candidate to match bit for bit.
    fn assert_kernel_paths_agree(
        case: &str,
        weights: &[f32],
        rows: usize,
        calib: &[f32],
        cfg: &AwqConfig,
    ) -> Vec<f64> {
        let cols = weights.len() / rows;
        zllm_fp16::set_fast_kernels(false);
        let slow = evaluate_grid(weights, rows, cols, calib, cfg);
        zllm_fp16::set_fast_kernels(true);
        for threads in [Some(1), Some(4), None] {
            zllm_par::set_max_threads(threads);
            let fast = evaluate_grid(weights, rows, cols, calib, cfg);
            assert_eq!(fast.len(), slow.len());
            for (k, ((fe, f), (se, s))) in fast.iter().zip(&slow).enumerate() {
                let at = format!("{case}, α #{k}, threads {threads:?}");
                assert_eq!(fe.to_bits(), se.to_bits(), "{at}: error {fe} vs {se}");
                assert_eq!(candidate_bits(f), candidate_bits(s), "{at}: candidate");
            }
        }
        zllm_par::set_max_threads(None);
        slow.iter().map(|(e, _)| *e).collect()
    }

    #[test]
    fn search_result_is_independent_of_fast_kernels_and_threads() {
        let cfg = AwqConfig {
            quant: GroupQuantConfig::new(32, 4),
            ..AwqConfig::default()
        };
        // Calibration counts that run every block of the kernel and its
        // scalar tail.
        for n in [1, 3, 8, 15, 16, 17, 24, 33] {
            let (weights, calib) = layer(23 + n as u64, 8, 64, n);
            assert_kernel_paths_agree(&format!("n = {n}"), &weights, 8, &calib, &cfg);
        }
        // A trailing partial group (72 = 2·32 + 8), on one row and on five.
        for rows in [1, 5] {
            let (weights, calib) = layer(29, rows, 72, 17);
            let case = format!("partial group, {rows} rows");
            assert_kernel_paths_agree(&case, &weights, rows, &calib, &cfg);
        }
        // ±0, subnormals and very large values among weights and
        // activations: once with finite errors, once overflowing to
        // infinities and NaN errors.
        let finite = ([0.0, -0.0, 1e-40, -3e-42, 40.0, -55.0], [1e6, -3e7]);
        let overflowing = ([0.0, -0.0, 1e-40, -3e-42, 6.5e4, 1e30], [1e20, -3e38]);
        for (case, (w_extremes, x_large)) in [("finite", finite), ("overflowing", overflowing)] {
            let (mut weights, mut calib) = layer(31, 6, 64, 19);
            for (i, w) in weights.iter_mut().enumerate().step_by(5) {
                *w = w_extremes[i % w_extremes.len()];
            }
            let x_extremes = [0.0, -0.0, 1e-41, -1e-39, x_large[0], x_large[1]];
            for (i, x) in calib.iter_mut().enumerate().step_by(3) {
                *x = x_extremes[i % x_extremes.len()];
            }
            let errors = assert_kernel_paths_agree(case, &weights, 6, &calib, &cfg);
            let finite = errors.iter().all(|e| e.is_finite());
            assert_eq!(finite, case == "finite", "{case}: {errors:?}");
        }
        // A repeated α gives bit-equal errors on both paths, so the
        // first-wins scan sees a true tie.
        let repeated = AwqConfig {
            alpha_grid: vec![0.5, 0.0, 0.5, 0.25, 0.0],
            ..cfg
        };
        let (weights, calib) = layer(37, 8, 64, 24);
        let errors = assert_kernel_paths_agree("repeated α", &weights, 8, &calib, &repeated);
        assert_eq!(errors[0].to_bits(), errors[2].to_bits(), "α = 0.5 twice");
        assert_eq!(errors[1].to_bits(), errors[4].to_bits(), "α = 0 twice");
    }

    #[test]
    #[should_panic(expected = "weight dimensions inconsistent")]
    fn dimension_check() {
        let _ = quantize_awq(&[1.0; 10], 3, 4, &[1.0; 4], &AwqConfig::default());
    }

    #[test]
    #[should_panic(expected = "calibration shape mismatch")]
    fn calibration_check() {
        let _ = quantize_awq(&[1.0; 12], 3, 4, &[1.0; 5], &AwqConfig::default());
    }
}
