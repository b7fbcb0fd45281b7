//! The full memory system: DDR controller behind the 4-port AXI fabric,
//! with an optional inline-compression stage in front of the controller.

use crate::compress::{CompressionConfig, CompressionStage, StreamClass};
use crate::config::{AxiConfig, DdrConfig};
use crate::controller::DdrController;
use crate::stats::DdrStats;
use crate::telemetry::DdrCounters;
use zllm_layout::BurstDescriptor;
use zllm_telemetry::MetricsRegistry;

/// Outcome of pricing one burst stream through the memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferReport {
    /// Payload bytes moved on the bus.
    pub bytes: u64,
    /// Payload bytes the requester asked for: `bytes` on an uncompressed
    /// transfer, the pre-compression size through the compression stage
    /// (whose `bytes` are wire plus page-map bytes).
    pub logical_bytes: u64,
    /// DRAM-side busy cycles (at the DRAM clock).
    pub dram_cycles: u64,
    /// PL-side minimum cycles (one 512-bit beat per 300 MHz cycle).
    pub pl_cycles: u64,
    /// Wall-clock time in nanoseconds (the slower of the two domains).
    pub wall_ns: f64,
    /// Achieved bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Fraction of the 19.2 GB/s theoretical peak achieved.
    pub efficiency: f64,
    /// Controller statistics accumulated during this transfer.
    pub stats: DdrStats,
    /// Decompressor stall exposed beyond `wall_ns`; `0.0` unless the
    /// transfer carried compressed data.
    pub decomp_stall_ns: f64,
}

impl std::fmt::Display for TransferReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} MB in {:.2} µs → {:.2} GB/s ({:.1}% of peak, {:.1}% row hits)",
            self.bytes as f64 / 1e6,
            self.wall_ns / 1e3,
            self.bandwidth_gbps,
            self.efficiency * 100.0,
            self.stats.row_hit_rate() * 100.0
        )
    }
}

/// DDR4 controller plus AXI fabric: the component the accelerator's MCU
/// talks to.
///
/// # Example
///
/// ```
/// use zllm_ddr::MemorySystem;
/// use zllm_layout::BurstDescriptor;
///
/// let mut mem = MemorySystem::kv260();
/// let report = mem.transfer(&[BurstDescriptor::new(0, 4096)]);
/// assert!(report.efficiency > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    ctrl: DdrController,
    axi: AxiConfig,
    /// Inline-compression stage between the requester and the controller
    /// ([`MemorySystem::set_compression`]).
    comp: Option<CompressionStage>,
}

impl MemorySystem {
    /// Default outstanding-transaction depth of the MCU's AXI DataMover:
    /// the datamover posts address bursts ~2 KiB ahead (32 column
    /// accesses), enough to hide activate latency across window
    /// boundaries.
    pub const DEFAULT_LOOKAHEAD: usize = 32;

    /// The KV260 memory system with default datamover depth.
    pub fn kv260() -> MemorySystem {
        MemorySystem::new(
            DdrConfig::ddr4_2400_kv260(),
            AxiConfig::kv260(),
            Self::DEFAULT_LOOKAHEAD,
        )
    }

    /// Builds a system from explicit configurations.
    pub fn new(ddr: DdrConfig, axi: AxiConfig, lookahead: usize) -> MemorySystem {
        MemorySystem {
            ctrl: DdrController::new(ddr, lookahead),
            axi,
            comp: None,
        }
    }

    /// Builds a system whose controller publishes into the given telemetry
    /// handles (see [`DdrCounters::register`]).
    pub fn with_counters(
        ddr: DdrConfig,
        axi: AxiConfig,
        lookahead: usize,
        counters: DdrCounters,
    ) -> MemorySystem {
        MemorySystem {
            ctrl: DdrController::with_counters(ddr, lookahead, counters),
            axi,
            comp: None,
        }
    }

    /// The telemetry handles the controller publishes into.
    pub fn counters(&self) -> &DdrCounters {
        self.ctrl.counters()
    }

    /// The DDR configuration.
    pub fn ddr_config(&self) -> &DdrConfig {
        self.ctrl.config()
    }

    /// Puts the inline-compression stage (see [`crate::compress`])
    /// between the requester and the controller, replacing any earlier
    /// one. Only [`MemorySystem::transfer_classed`] goes through it; what
    /// [`MemorySystem::transfer_iter`] prices bypasses it.
    pub fn set_compression(&mut self, cfg: CompressionConfig) {
        self.comp = Some(CompressionStage::new(cfg));
    }

    /// Registers the stage's `comp.*` counters and its three
    /// `comp.ratio.*` gauges in `reg`, which it publishes into from then
    /// on. Does nothing without a stage, for an all-identity stage (so a
    /// compression-off snapshot keeps its key set) and once registered.
    pub fn register_compression(&mut self, reg: &mut MetricsRegistry) {
        if let Some(stage) = self.comp.as_mut() {
            stage.register(reg);
        }
    }

    /// The stage's cumulative `(logical, wire, metadata)` payload bytes,
    /// or `None` without a stage.
    pub fn compression_bytes(&self) -> Option<(u64, u64, u64)> {
        self.compression_stage().map(CompressionStage::bytes)
    }

    /// The compression stage, if one is set.
    pub(crate) fn compression_stage(&self) -> Option<&CompressionStage> {
        self.comp.as_ref()
    }

    /// Prices a stream of classed bursts through the compression stage:
    /// each burst crosses the bus at its class's compressed size, and the
    /// report adds the logical bytes and the decompressor stall. Without
    /// a stage this is [`MemorySystem::transfer_iter`] over the bursts.
    pub fn transfer_classed<I>(&mut self, bursts: I) -> TransferReport
    where
        I: IntoIterator<Item = (BurstDescriptor, StreamClass)>,
    {
        match self.comp.take() {
            None => self.transfer_iter(bursts.into_iter().map(|(b, _)| b)),
            Some(mut stage) => {
                let report = stage.transfer(self, bursts);
                self.comp = Some(stage);
                report
            }
        }
    }

    /// Prices a stream of bursts issued back-to-back in order, returning
    /// the transfer report for this stream alone.
    pub fn transfer(&mut self, bursts: &[BurstDescriptor]) -> TransferReport {
        self.transfer_iter(bursts.iter().copied())
    }

    /// Like [`MemorySystem::transfer`], but consumes the bursts from an
    /// iterator so callers can stream a schedule straight into the model
    /// without materializing an intermediate `Vec`.
    pub fn transfer_iter<I>(&mut self, bursts: I) -> TransferReport
    where
        I: IntoIterator<Item = BurstDescriptor>,
    {
        // Only two scalars of the configuration matter per burst; copy
        // them out instead of cloning the whole `DdrConfig`.
        let bytes_per_access = self.ctrl.config().bytes_per_access();
        let stats_before = self.ctrl.stats();
        let start = self.ctrl.now();
        let mut end = start;
        let mut bytes: u64 = 0;
        for b in bursts {
            if b.beats == 0 {
                continue;
            }
            // Burst descriptors are in 512-bit PL beats; convert to DRAM
            // column accesses (which move `bytes_per_access` each — 64 B
            // on DDR4 BL8, more on BL16 LPDDR parts).
            let burst_bytes = b.bytes();
            let accesses = burst_bytes.div_ceil(bytes_per_access);
            end = self.ctrl.burst(b.addr, accesses as u32, b.write);
            bytes += burst_bytes;
        }
        let dram_cycles = end - start;

        // PL side: the merged stream absorbs `bytes_per_cycle` per PL
        // cycle (64 B with all four ports; proportionally less with
        // fewer).
        let cfg = self.ctrl.config();
        let pl_cycles = bytes.div_ceil(self.axi.bytes_per_cycle().max(1));
        let dram_ns = cfg.cycles_to_ns(dram_cycles);
        let pl_ns = self.axi.cycles_to_ns(pl_cycles);
        let wall_ns = dram_ns.max(pl_ns);
        let bandwidth_gbps = if wall_ns > 0.0 {
            bytes as f64 / wall_ns
        } else {
            0.0
        };
        let peak = cfg.peak_bandwidth_gbps().min(self.axi.bandwidth_gbps());
        let efficiency = bandwidth_gbps / peak;

        let s = self.ctrl.stats();
        let stats = DdrStats {
            row_hits: s.row_hits - stats_before.row_hits,
            row_misses: s.row_misses - stats_before.row_misses,
            row_conflicts: s.row_conflicts - stats_before.row_conflicts,
            refreshes: s.refreshes - stats_before.refreshes,
            reads: s.reads - stats_before.reads,
            writes: s.writes - stats_before.writes,
            turnarounds: s.turnarounds - stats_before.turnarounds,
        };

        TransferReport {
            bytes,
            logical_bytes: bytes,
            dram_cycles,
            pl_cycles,
            wall_ns,
            bandwidth_gbps,
            efficiency,
            stats,
            decomp_stall_ns: 0.0,
        }
    }

    /// Cumulative controller statistics since construction.
    pub fn stats(&self) -> DdrStats {
        self.ctrl.stats()
    }

    /// Current DRAM-domain time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.ctrl.config().cycles_to_ns(self.ctrl.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic;

    #[test]
    fn long_sequential_burst_approaches_peak() {
        let mut mem = MemorySystem::kv260();
        let report = mem.transfer(&traffic::sequential(0, 64 << 20));
        assert!(
            report.efficiency > 0.93,
            "sequential efficiency {}",
            report.efficiency
        );
        assert!(report.stats.row_hit_rate() > 0.96);
        assert_eq!(report.bytes, 64 << 20);
    }

    #[test]
    fn scattered_single_beats_collapse_bandwidth() {
        let mut mem = MemorySystem::new(DdrConfig::ddr4_2400_kv260(), AxiConfig::kv260(), 1);
        let report = mem.transfer(&traffic::random_single(42, 4096, 1 << 30));
        assert!(
            report.efficiency < 0.15,
            "random efficiency {}",
            report.efficiency
        );
    }

    #[test]
    fn efficiency_monotone_in_burst_length() {
        let mut last = 0.0;
        for burst_beats in [1u32, 4, 16, 64, 256] {
            let mut mem = MemorySystem::kv260();
            let bursts = traffic::strided(0, 512, burst_beats, 1 << 20);
            let report = mem.transfer(&bursts);
            // Monotone up to refresh-phase noise (<1%).
            assert!(
                report.efficiency >= last - 0.01,
                "efficiency should grow with burst length: {} at {burst_beats} beats after {last}",
                report.efficiency
            );
            last = report.efficiency;
        }
        assert!(last > 0.8);
    }

    #[test]
    fn report_display_and_bytes() {
        let mut mem = MemorySystem::kv260();
        let report = mem.transfer(&traffic::sequential(4096, 1 << 20));
        let text = report.to_string();
        assert!(text.contains("GB/s"));
        assert!(report.bandwidth_gbps > 0.0);
        assert!(report.wall_ns > 0.0);
    }

    #[test]
    fn transfer_iter_matches_slice_transfer() {
        let bursts = traffic::strided(0, 4096, 8, 4 << 20);
        let mut a = MemorySystem::kv260();
        let mut b = MemorySystem::kv260();
        let ra = a.transfer(&bursts);
        let rb = b.transfer_iter(bursts.iter().copied());
        assert_eq!(ra, rb);
        assert_eq!(a.now_ns(), b.now_ns());
    }

    #[test]
    fn empty_transfer_is_zero() {
        let mut mem = MemorySystem::kv260();
        let report = mem.transfer(&[]);
        assert_eq!(report.bytes, 0);
        assert_eq!(report.bandwidth_gbps, 0.0);
    }

    #[test]
    fn back_to_back_transfers_accumulate_time() {
        let mut mem = MemorySystem::kv260();
        let t0 = mem.now_ns();
        mem.transfer(&traffic::sequential(0, 1 << 20));
        let t1 = mem.now_ns();
        assert!(t1 > t0);
        mem.transfer(&traffic::sequential(1 << 20, 1 << 20));
        assert!(mem.now_ns() > t1);
    }
}
