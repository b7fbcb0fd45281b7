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

/// An address-contiguous run of same-direction DRAM column accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Run {
    addr: u64,
    accesses: u64,
    write: bool,
}

impl Run {
    /// Whether `next` starts where this run's last access ends, in the
    /// same direction.
    fn continued_by(&self, next: &Run, bytes_per_access: u64) -> bool {
        next.write == self.write && next.addr == self.addr + self.accesses * bytes_per_access
    }

    /// The run as `(addr, accesses)` bursts of at most `u32::MAX`
    /// accesses each, in order.
    fn pieces(self, bytes_per_access: u64) -> impl Iterator<Item = (u64, u32)> {
        let max = u64::from(u32::MAX);
        (0..self.accesses.div_ceil(max)).map(move |i| {
            let done = i * max;
            let n = (self.accesses - done).min(max) as u32;
            (self.addr + done * bytes_per_access, n)
        })
    }
}

/// The address-contiguous runs of same-direction accesses in `bursts`.
/// Burst descriptors are in 512-bit PL beats; each becomes the DRAM column
/// accesses covering its bytes (64 B each on DDR4 BL8, more on BL16 LPDDR
/// parts), so a burst whose bytes are not a multiple of
/// `bytes_per_access` ends its run unless the next one starts past its
/// last access. Zero-beat bursts are skipped.
fn runs<I>(bursts: I, bytes_per_access: u64) -> impl Iterator<Item = Run>
where
    I: Iterator<Item = BurstDescriptor>,
{
    let mut bursts = bursts
        .filter(|b| b.beats > 0)
        .map(move |b| Run {
            addr: b.addr,
            accesses: b.bytes().div_ceil(bytes_per_access),
            write: b.write,
        })
        .peekable();
    std::iter::from_fn(move || {
        let mut run = bursts.next()?;
        while let Some(next) = bursts.next_if(|next| run.continued_by(next, bytes_per_access)) {
            run.accesses += next.accesses;
        }
        Some(run)
    })
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
    ///
    /// Each address-contiguous run of same-direction bursts is priced
    /// with one [`DdrController::burst`] call, which is exact: a burst is
    /// defined as the in-order sequence of its column accesses.
    pub fn transfer_iter<I>(&mut self, bursts: I) -> TransferReport
    where
        I: IntoIterator<Item = BurstDescriptor>,
    {
        let bytes_per_access = self.ctrl.config().bytes_per_access();
        let stats_before = self.ctrl.stats();
        let start = self.ctrl.now();
        let mut end = start;
        let mut bytes: u64 = 0;
        let bursts = bursts.into_iter().inspect(|b| bytes += b.bytes());
        for run in runs(bursts, bytes_per_access) {
            for (addr, accesses) in run.pieces(bytes_per_access) {
                end = self.ctrl.burst(addr, accesses, run.write);
            }
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

        let stats = self.ctrl.stats() - stats_before;

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

    fn run(addr: u64, accesses: u64, write: bool) -> Run {
        Run {
            addr,
            accesses,
            write,
        }
    }

    fn runs_of(bursts: &[BurstDescriptor], bytes_per_access: u64) -> Vec<Run> {
        runs(bursts.iter().copied(), bytes_per_access).collect()
    }

    #[test]
    fn fast_path_runs_merge_only_contiguous_same_direction_bursts() {
        let (r, w) = (BurstDescriptor::new, BurstDescriptor::write);
        // 64 B accesses: the first two reads merge; a gap, a write and a
        // read after it each start a run.
        assert_eq!(
            runs_of(
                &[r(0, 4), r(256, 8), r(1024, 4), w(1280, 4), r(1536, 4)],
                64
            ),
            [
                run(0, 12, false),
                run(1024, 4, false),
                run(1280, 4, true),
                run(1536, 4, false)
            ]
        );
        // LPDDR5 Orin's 256 B accesses: a one-beat burst takes its whole
        // access, so a burst at the next beat starts a run and one at the
        // next access continues it.
        assert_eq!(
            runs_of(&[r(0, 1), r(64, 3), r(512, 1), r(768, 4)], 256),
            [run(0, 1, false), run(64, 1, false), run(512, 2, false)]
        );
        // Zero-beat bursts are skipped, whatever their address or
        // direction, and do not break a run.
        assert_eq!(
            runs_of(&[w(0, 0), r(0, 4), w(4096, 0), r(256, 4), r(512, 0)], 64),
            [run(0, 8, false)]
        );
    }

    #[test]
    fn fast_path_runs_split_at_u32_max_accesses() {
        // The arithmetic only: no run this long is priced.
        let max = u64::from(u32::MAX);
        assert_eq!(
            run(64, 2 * max + 5, true).pieces(64).collect::<Vec<_>>(),
            [
                (64, u32::MAX),
                (64 + max * 64, u32::MAX),
                (64 + 2 * max * 64, 5)
            ]
        );
        assert_eq!(
            run(0, max, false).pieces(128).collect::<Vec<_>>(),
            [(0, u32::MAX)]
        );
        // Bursts whose accesses add up past `u32::MAX` form one run, and
        // so does one burst of more than `u32::MAX` 32 B accesses.
        let bursts = [
            BurstDescriptor::new(0, u32::MAX),
            BurstDescriptor::new(max * 64, 10),
        ];
        assert_eq!(runs_of(&bursts, 64), [run(0, max + 10, false)]);
        let wide = runs_of(&bursts[..1], 32);
        assert_eq!(wide, [run(0, 2 * max, false)]);
        assert_eq!(
            wide[0].pieces(32).collect::<Vec<_>>(),
            [(0, u32::MAX), (max * 32, u32::MAX)]
        );
    }

    /// A read from 0 and a write from 1 GiB, each cut into bursts of
    /// uneven sizes with zero-beat bursts between them. Every size is a
    /// whole number of column accesses on every preset (at most 256 B).
    fn split_streams() -> [Vec<BurstDescriptor>; 2] {
        let sizes = [4u32, 0, 28, 1024, 4, 0, 260, 8192, 36, 50_000];
        [(0, false), (1 << 30, true)].map(|(mut addr, write)| {
            sizes
                .iter()
                .map(|&beats| {
                    let b = BurstDescriptor { addr, beats, write };
                    addr += b.bytes();
                    b
                })
                .collect()
        })
    }

    #[test]
    fn fast_path_split_contiguous_bursts_price_as_one_burst() {
        let presets = [
            DdrConfig::ddr4_2400_kv260(),
            DdrConfig::lpddr4_2133_ultra96(),
            DdrConfig::ddr4_2666_zcu102(),
            DdrConfig::lpddr5_orin_nano(),
            DdrConfig::lpddr5_6400_embedded(),
        ];
        for (i, ddr) in presets.into_iter().enumerate() {
            let system = |fast_path| {
                let lookahead = MemorySystem::DEFAULT_LOOKAHEAD;
                let mut mem = MemorySystem::new(ddr.clone(), AxiConfig::kv260(), lookahead);
                mem.ctrl.set_fast_path(fast_path);
                mem
            };
            let (mut split, mut whole, mut per_access) =
                (system(true), system(true), system(false));
            for stream in split_streams() {
                let beats = stream.iter().map(|b| b.beats).sum();
                let one = BurstDescriptor { beats, ..stream[0] };
                let report = split.transfer(&stream);
                assert_eq!(report, whole.transfer(&[one]), "preset {i}: one burst");
                assert_eq!(
                    report,
                    per_access.transfer(&stream),
                    "preset {i}: per access"
                );
                assert_eq!(split.stats(), whole.stats(), "preset {i}");
                assert_eq!(split.stats(), per_access.stats(), "preset {i}");
                assert_eq!(split.now_ns(), whole.now_ns(), "preset {i}");
                assert_eq!(split.now_ns(), per_access.now_ns(), "preset {i}");
            }
        }
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
