//! Assembled comparison tables (the rows of Tables II and III).

use crate::platform;
use crate::published::{edge_device_rows, fpga_works, ours_reported, Workload};
use crate::roofline::{edge_theoretical_tokens_per_s, fpga_theoretical_tokens_per_s, utilization};
use zllm_accel::power::estimate_power;
use zllm_accel::resources::estimate;
use zllm_accel::AccelConfig;
use zllm_model::memory::{weight_roofline_tokens_per_s, WeightPrecision};

/// This repository's simulated result for the "Ours" rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OursResult {
    /// Simulated decoding speed in token/s.
    pub tokens_per_s: f64,
}

impl OursResult {
    /// Falls back to the paper's reported measurement (for building the
    /// tables without running the trace simulation).
    pub fn paper_reported() -> OursResult {
        OursResult {
            tokens_per_s: ours_reported::TOKENS_PER_S,
        }
    }
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Work name.
    pub name: String,
    /// Device name.
    pub device: &'static str,
    /// Reported LUTs (thousands; NaN when unpublished).
    pub lut_k: f64,
    /// Reported FFs (thousands).
    pub ff_k: f64,
    /// Reported BRAMs.
    pub bram: f64,
    /// Reported DSPs.
    pub dsp: f64,
    /// Clock MHz.
    pub mhz: f64,
    /// Power in watts.
    pub watts: f64,
    /// Bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Workload name.
    pub task: String,
    /// Precision label.
    pub precision: &'static str,
    /// Theoretical peak token/s (recomputed).
    pub theoretical: f64,
    /// Measured token/s.
    pub measured: f64,
    /// Bandwidth utilization.
    pub utilization: f64,
}

/// Builds Table II: prior FPGA works plus the "Ours" row.
///
/// Pass the simulated result from the trace engine, or
/// [`OursResult::paper_reported`] to print the paper's own measurement.
pub fn table2_rows(ours: OursResult) -> Vec<Table2Row> {
    let mut rows: Vec<Table2Row> = fpga_works()
        .iter()
        .map(|w| {
            let theoretical = fpga_theoretical_tokens_per_s(w);
            Table2Row {
                name: w.name.to_owned(),
                device: w.platform.name,
                lut_k: w.resources.lut_k,
                ff_k: w.resources.ff_k,
                bram: w.resources.bram,
                dsp: w.resources.dsp,
                mhz: w.resources.mhz,
                watts: w.resources.watts,
                bandwidth_gbps: w.platform.bandwidth_gbps,
                task: w.workload.config().name,
                precision: w.precision_label,
                theoretical,
                measured: w.reported_tokens_per_s,
                utilization: utilization(w.reported_tokens_per_s, theoretical),
            }
        })
        .collect();

    // Ours: resources/power come from our own estimators, the theoretical
    // column from the roofline, the measured column from the simulation.
    let accel = AccelConfig::kv260();
    let est = estimate(&accel).total;
    let power = estimate_power(&accel).total();
    let theoretical = weight_roofline_tokens_per_s(
        &Workload::Llama2_7b.config(),
        WeightPrecision::Effective(4.0),
        platform::KV260.bandwidth_gbps,
    );
    rows.push(Table2Row {
        name: "Ours".to_owned(),
        device: platform::KV260.name,
        lut_k: est.lut / 1e3,
        ff_k: est.ff / 1e3,
        bram: est.bram,
        dsp: est.dsp,
        mhz: accel.freq_mhz,
        watts: power,
        bandwidth_gbps: platform::KV260.bandwidth_gbps,
        task: Workload::Llama2_7b.config().name,
        precision: "W4",
        theoretical,
        measured: ours.tokens_per_s,
        utilization: utilization(ours.tokens_per_s, theoretical),
    });
    rows
}

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Device name.
    pub device: &'static str,
    /// Bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Framework name.
    pub framework: String,
    /// Theoretical peak token/s.
    pub theoretical: f64,
    /// Measured token/s.
    pub measured: f64,
    /// Bandwidth utilization.
    pub utilization: f64,
}

/// Builds Table III: embedded CPU/GPU rows plus the "Ours" row.
pub fn table3_rows(ours: OursResult) -> Vec<Table3Row> {
    let mut rows: Vec<Table3Row> = edge_device_rows()
        .iter()
        .map(|r| {
            let theoretical = edge_theoretical_tokens_per_s(r);
            Table3Row {
                device: r.platform.name,
                bandwidth_gbps: r.platform.bandwidth_gbps,
                framework: r.framework.to_owned(),
                theoretical,
                measured: r.reported_tokens_per_s,
                utilization: utilization(r.reported_tokens_per_s, theoretical),
            }
        })
        .collect();
    let theoretical = weight_roofline_tokens_per_s(
        &Workload::Llama2_7b.config(),
        WeightPrecision::Effective(4.0),
        platform::KV260.bandwidth_gbps,
    );
    rows.push(Table3Row {
        device: platform::KV260.name,
        bandwidth_gbps: platform::KV260.bandwidth_gbps,
        framework: "Ours".to_owned(),
        theoretical,
        measured: ours.tokens_per_s,
        utilization: utilization(ours.tokens_per_s, theoretical),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ours_wins_on_utilization() {
        let rows = table2_rows(OursResult::paper_reported());
        assert_eq!(rows.len(), 6);
        let ours = rows.last().expect("has ours row");
        assert_eq!(ours.name, "Ours");
        for row in &rows[..rows.len() - 1] {
            assert!(
                ours.utilization > row.utilization,
                "{} utilization {:.3} should trail ours {:.3}",
                row.name,
                row.utilization,
                ours.utilization
            );
        }
    }

    #[test]
    fn table2_cloud_fpgas_win_on_absolute_speed() {
        let rows = table2_rows(OursResult::paper_reported());
        let ours = rows.last().expect("has ours row");
        for name in ["FlightLLM", "EdgeLLM"] {
            let row = rows.iter().find(|r| r.name == name).expect("present");
            assert!(
                row.measured > ours.measured,
                "{name} should be faster in absolute terms"
            );
        }
    }

    #[test]
    fn table3_ours_beats_every_framework_on_utilization() {
        let rows = table3_rows(OursResult::paper_reported());
        assert_eq!(rows.len(), 6);
        let ours = rows.last().expect("has ours row");
        for row in &rows[..rows.len() - 1] {
            assert!(
                ours.utilization > row.utilization,
                "{}/{} utilization {:.3} should trail ours {:.3}",
                row.device,
                row.framework,
                row.utilization,
                ours.utilization
            );
        }
        // But the AGX Orin is faster in absolute token/s.
        let agx_nano_llm = rows
            .iter()
            .find(|r| r.device == "JetsonAGXOrin" && r.framework == "NanoLLM")
            .expect("present");
        assert!(agx_nano_llm.measured > ours.measured);
    }

    #[test]
    fn ours_row_resources_match_paper_scale() {
        let rows = table2_rows(OursResult::paper_reported());
        let ours = rows.last().expect("has ours row");
        assert!((70.0..85.0).contains(&ours.lut_k), "lut {}", ours.lut_k);
        assert!((280.0..300.0).contains(&ours.dsp));
        assert!((6.0..7.2).contains(&ours.watts));
        assert_eq!(ours.mhz, 300.0);
    }

    #[test]
    fn design_fits() {
        // The design must fit its device — a sanity the tables implicitly
        // claim.
        let utilization = estimate(&AccelConfig::kv260())
            .total
            .utilization(&zllm_accel::resources::kv260_device());
        assert!(utilization.max_component() < 1.0);
    }

    #[test]
    fn paper_utilization_reproduced_from_paper_measurement() {
        let rows = table2_rows(OursResult::paper_reported());
        let ours = rows.last().expect("has ours row");
        // 4.9 / ~5.8 ≈ 84.5%.
        assert!(
            (0.80..0.88).contains(&ours.utilization),
            "util {}",
            ours.utilization
        );
    }
}
