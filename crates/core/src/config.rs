//! Top-level accelerator configuration.

use zllm_ddr::config::{AxiConfig, DdrConfig};
use zllm_layout::weight::WeightFormat;

/// How the attention layer is pipelined (§V-A, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineMode {
    /// The paper's fine-grained head-wise fusion: every miscellaneous
    /// operation (RoPE, softmax, quantization, norm square-sums) is hidden
    /// inside the dense weight streaming.
    #[default]
    Fused,
    /// A DFX-style coarse pipeline: projections complete before attention
    /// starts, and miscellaneous operations expose their latency.
    Coarse,
}

impl PipelineMode {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineMode::Fused => "fused",
            PipelineMode::Coarse => "coarse",
        }
    }
}

impl std::fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Accelerator parameters.
///
/// # Example
///
/// ```
/// use zllm_accel::AccelConfig;
///
/// let cfg = AccelConfig::kv260();
/// assert_eq!(cfg.lanes, 128);
/// assert_eq!(cfg.freq_mhz, 300.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccelConfig {
    /// VPU multiplier lanes (one dequantized 512-bit beat per cycle).
    pub lanes: usize,
    /// PL clock frequency in MHz.
    pub freq_mhz: f64,
    /// Weight arrangement format.
    pub format: WeightFormat,
    /// Pipeline mode.
    pub pipeline: PipelineMode,
    /// DDR configuration.
    pub ddr: DdrConfig,
    /// AXI fabric configuration.
    pub axi: AxiConfig,
    /// Outstanding-transaction depth of the MCU's datamover.
    pub mem_lookahead: usize,
}

impl AccelConfig {
    /// The paper's configuration on the KV260.
    pub fn kv260() -> AccelConfig {
        AccelConfig {
            lanes: 128,
            freq_mhz: 300.0,
            format: WeightFormat::kv260(),
            pipeline: PipelineMode::Fused,
            ddr: DdrConfig::ddr4_2400_kv260(),
            axi: AxiConfig::kv260(),
            mem_lookahead: 32,
        }
    }

    /// Same hardware with the coarse pipeline (the ablation baseline).
    pub fn kv260_coarse() -> AccelConfig {
        AccelConfig {
            pipeline: PipelineMode::Coarse,
            ..AccelConfig::kv260()
        }
    }

    /// PL cycles per second.
    pub fn cycles_per_second(&self) -> f64 {
        self.freq_mhz * 1e6
    }

    /// Converts PL cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * 1e3 / self.freq_mhz
    }

    /// Peak bytes the PL can absorb per second (the merged stream).
    pub fn pl_peak_bytes_per_s(&self) -> f64 {
        self.axi.bandwidth_gbps() * 1e9
    }

    /// PL cycles needed per 512-bit read beat whose codes multiply
    /// against `fanout` activation vectors: the slower of the VPU's
    /// dequantize-and-multiply rate (`weights_per_beat × fanout` MACs at
    /// `lanes` per cycle) and the AXI fabric's delivery rate
    /// (`bytes_per_cycle` of the configured port set).
    pub(crate) fn beat_cycles(&self, fanout: u32) -> u64 {
        let vpu =
            (self.format.weights_per_beat() as u64 * fanout as u64).div_ceil(self.lanes as u64);
        let fabric = (zllm_layout::BEAT_BYTES as u64).div_ceil(self.axi.bytes_per_cycle().max(1));
        vpu.max(fabric)
    }
}

impl Default for AccelConfig {
    fn default() -> AccelConfig {
        AccelConfig::kv260()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv260_defaults() {
        let cfg = AccelConfig::kv260();
        assert_eq!(cfg.lanes, 128);
        assert_eq!(cfg.pipeline, PipelineMode::Fused);
        assert_eq!(AccelConfig::default(), cfg);
        assert_eq!(AccelConfig::kv260_coarse().pipeline, PipelineMode::Coarse);
    }

    #[test]
    fn clock_conversions() {
        let cfg = AccelConfig::kv260();
        assert!((cfg.cycles_to_ns(300) - 1000.0).abs() < 1e-9);
        assert_eq!(cfg.cycles_per_second(), 3e8);
        assert_eq!(cfg.pl_peak_bytes_per_s(), 19.2e9);
    }

    #[test]
    fn beat_cycles_track_lanes_ports_and_fanout() {
        // The default is perfectly balanced at 1.
        let cfg = AccelConfig::kv260();
        assert_eq!(cfg.beat_cycles(1), 1);
        // 64 lanes: two cycles to retire a 128-code beat.
        let mut narrow = AccelConfig::kv260();
        narrow.lanes = 64;
        assert_eq!(narrow.beat_cycles(1), 2);
        // 2 AXI ports: two cycles to deliver 64 bytes.
        let mut half_ports = AccelConfig::kv260();
        half_ports.axi.ports = 2;
        assert_eq!(half_ports.beat_cycles(1), 2);
        // A beat shared by 4 tokens costs 4 cycles on the balanced
        // engine; a 1024-lane engine absorbs a fanout of 8 at the
        // fabric's one beat per cycle.
        assert_eq!(cfg.beat_cycles(4), 4);
        let mut rich = AccelConfig::kv260();
        rich.lanes = 1024;
        assert_eq!(rich.beat_cycles(8), 1);
        assert_eq!(rich.beat_cycles(9), 2);
    }

    #[test]
    fn mode_names() {
        assert_eq!(PipelineMode::Fused.to_string(), "fused");
        assert_eq!(PipelineMode::Coarse.to_string(), "coarse");
    }
}
