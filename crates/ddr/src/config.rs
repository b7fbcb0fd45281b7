//! DDR4 timing/organization parameters and the AXI fabric geometry.

/// DDR4 device timing and organization, in DRAM clock cycles (tCK).
///
/// Defaults model the KV260's 64-bit DDR4-2400 (tCK = 0.833 ns): one BL8
/// column access moves 64 bytes, matching one 512-bit PL beat.
///
/// # Example
///
/// ```
/// use zllm_ddr::DdrConfig;
///
/// let cfg = DdrConfig::ddr4_2400_kv260();
/// assert_eq!(cfg.peak_bandwidth_gbps(), 19.2);
/// assert_eq!(cfg.bytes_per_access(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DdrConfig {
    /// DRAM clock in MHz (data rate is 2× this).
    pub clock_mhz: f64,
    /// Data bus width in bits.
    pub bus_bits: u32,
    /// Burst length (column accesses transfer `burst_len` bus words).
    pub burst_len: u32,
    /// CAS read latency.
    pub cl: u32,
    /// CAS write latency.
    pub cwl: u32,
    /// ACT→CAS delay.
    pub trcd: u32,
    /// Precharge time.
    pub trp: u32,
    /// Minimum row-open time (ACT→PRE).
    pub tras: u32,
    /// ACT→ACT to different banks (short, different bank group).
    pub trrd: u32,
    /// Four-activate window.
    pub tfaw: u32,
    /// Read→write bus turnaround penalty.
    pub trtw: u32,
    /// Write→read turnaround penalty (write recovery into the bank).
    pub twtr: u32,
    /// Refresh cycle time (all banks blocked).
    pub trfc: u32,
    /// Average refresh interval.
    pub trefi: u32,
    /// Number of banks (bank groups × banks per group).
    pub banks: u32,
    /// Number of bank groups (DDR4: 4; LPDDR4 has none — set 1).
    pub bank_groups: u32,
    /// CAS→CAS gap within the same bank group (tCCD_L).
    pub tccd_l: u32,
    /// CAS→CAS gap across bank groups (tCCD_S; equals the burst
    /// occupancy, so it is absorbed by bus accounting).
    pub tccd_s: u32,
    /// Row (page) size in bytes as seen by the 64-bit channel.
    pub row_bytes: u64,
}

impl DdrConfig {
    /// The KV260's memory: 64-bit DDR4-2400, 16 banks, 8 KiB effective rows.
    ///
    /// Timing values follow a typical DDR4-2400R speed bin (17-17-17) with
    /// a 4 Gb-class tRFC.
    pub fn ddr4_2400_kv260() -> DdrConfig {
        DdrConfig {
            clock_mhz: 1200.0,
            bus_bits: 64,
            burst_len: 8,
            cl: 17,
            cwl: 12,
            trcd: 17,
            trp: 17,
            tras: 39,
            trrd: 4,
            tfaw: 26,
            trtw: 8,
            twtr: 10,
            trfc: 312,   // 260 ns
            trefi: 9360, // 7.8 µs
            banks: 16,
            bank_groups: 4,
            tccd_l: 6,
            tccd_s: 4,
            row_bytes: 8192,
        }
    }

    /// The Ultra96v2's memory: 32-bit LPDDR4-2133 (~8.5 GB/s) — the small
    /// end of the embedded boards §I surveys.
    pub fn lpddr4_2133_ultra96() -> DdrConfig {
        DdrConfig {
            clock_mhz: 1066.0,
            bus_bits: 32,
            burst_len: 16,
            cl: 20,
            cwl: 10,
            trcd: 20,
            trp: 22,
            tras: 45,
            trrd: 8,
            tfaw: 32,
            trtw: 10,
            twtr: 12,
            trfc: 200,
            trefi: 4160,
            banks: 8,
            bank_groups: 1, // LPDDR4 has no bank groups
            tccd_l: 8,
            tccd_s: 8,
            row_bytes: 2048,
        }
    }

    /// The ZCU104/ZCU102 class: 64-bit DDR4-2666 (~21.3 GB/s), LlamaF's
    /// platform in Table II.
    pub fn ddr4_2666_zcu102() -> DdrConfig {
        DdrConfig {
            clock_mhz: 1333.0,
            cl: 19,
            trcd: 19,
            trp: 19,
            tras: 43,
            trfc: 347,
            trefi: 10400,
            ..DdrConfig::ddr4_2400_kv260()
        }
    }

    /// A Jetson-Orin-Nano-class memory: 128-bit LPDDR5 (~68 GB/s). Used
    /// to sanity-check the Table III rooflines with a simulated, rather
    /// than nominal, bandwidth.
    pub fn lpddr5_orin_nano() -> DdrConfig {
        DdrConfig {
            clock_mhz: 2133.0,
            bus_bits: 128,
            burst_len: 16,
            cl: 28,
            cwl: 14,
            trcd: 24,
            trp: 26,
            tras: 52,
            trrd: 10,
            tfaw: 40,
            trtw: 12,
            twtr: 14,
            trfc: 380,
            trefi: 8300,
            banks: 16,
            bank_groups: 4,
            tccd_l: 8,
            tccd_s: 8,
            row_bytes: 4096,
        }
    }

    /// A next-generation embedded board's memory: 64-bit LPDDR5-6400
    /// (~51.2 GB/s) — the upgrade path §VII points at for the KV260
    /// class. Timings follow a typical LPDDR5-6400 speed bin converted to
    /// tCK = 0.3125 ns; LPDDR5 runs bank-group mode (4 × 4 banks) with
    /// BL16 on a 64-bit channel, so one column access still moves
    /// 128 bytes.
    pub fn lpddr5_6400_embedded() -> DdrConfig {
        DdrConfig {
            clock_mhz: 3200.0,
            bus_bits: 64,
            burst_len: 16,
            cl: 40,
            cwl: 20,
            trcd: 58,  // 18 ns
            trp: 58,   // 18 ns
            tras: 134, // 42 ns
            trrd: 16,
            tfaw: 64,
            trtw: 12,
            twtr: 16,
            trfc: 896,    // 280 ns (tRFCab)
            trefi: 12480, // 3.9 µs
            banks: 16,
            bank_groups: 4,
            tccd_l: 8,
            tccd_s: 8,
            row_bytes: 4096,
        }
    }

    /// Bytes moved by one column access (BL × bus width).
    pub fn bytes_per_access(&self) -> u64 {
        (self.burst_len * self.bus_bits / 8) as u64
    }

    /// Data-bus cycles occupied by one column access (BL/2 at DDR).
    pub fn cycles_per_access(&self) -> u64 {
        (self.burst_len / 2) as u64
    }

    /// Theoretical peak bandwidth in GB/s (decimal GB, as the paper uses).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        // data_rate(MT/s) × bus_bytes = 2 × clock × (bits/8), in 1e9 B/s.
        2.0 * self.clock_mhz * 1e6 * (self.bus_bits as f64 / 8.0) / 1e9
    }

    /// Converts DRAM cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * 1e3 / self.clock_mhz
    }

    /// Column accesses needed per row (row crossings of a sequential
    /// stream).
    pub fn accesses_per_row(&self) -> u64 {
        self.row_bytes / self.bytes_per_access()
    }

    /// Decomposes a byte address into `(row, bank, column-access index)`.
    ///
    /// Bank groups interleave at *access* (64 B) granularity — the
    /// standard controller trick so that consecutive beats alternate bank
    /// groups and pay tCCD_S rather than tCCD_L. Above that, banks
    /// interleave at row-window granularity so a sequential stream drains
    /// one set of open rows and then switches banks, letting the
    /// controller overlap the next activates with the current window's
    /// data.
    pub fn map_address(&self, addr: u64) -> (u64, u32, u64) {
        let bg_count = self.bank_groups.max(1) as u64;
        let banks_per_group = (self.banks as u64 / bg_count).max(1);
        let access = addr / self.bytes_per_access();
        let bg = access % bg_count;
        let rest = access / bg_count;
        let cols_per_bg = (self.accesses_per_row() / bg_count).max(1);
        let col = rest % cols_per_bg;
        let rest = rest / cols_per_bg;
        let bank_in_group = rest % banks_per_group;
        let row = rest / banks_per_group;
        (row, (bg + bank_in_group * bg_count) as u32, col)
    }

    /// The bank group an access's bank belongs to.
    pub fn bank_group_of(&self, bank: u32) -> u32 {
        bank % self.bank_groups.max(1)
    }
}

impl Default for DdrConfig {
    fn default() -> DdrConfig {
        DdrConfig::ddr4_2400_kv260()
    }
}

/// Geometry of the PS↔PL AXI fabric.
///
/// The Zynq UltraScale+ exposes 128-bit high-performance ports; the design
/// uses four of them at 300 MHz, merged on-chip into one 512-bit stream
/// (Fig. 5A), which equals the DDR peak of 19.2 GB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxiConfig {
    /// Number of HP ports used.
    pub ports: u32,
    /// Width of each port in bits.
    pub port_bits: u32,
    /// PL clock in MHz.
    pub clock_mhz: f64,
}

impl AxiConfig {
    /// The paper's fabric: 4 × 128-bit at 300 MHz.
    pub const fn kv260() -> AxiConfig {
        AxiConfig {
            ports: 4,
            port_bits: 128,
            clock_mhz: 300.0,
        }
    }

    /// Aggregate PL-side bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.ports as f64 * self.port_bits as f64 / 8.0 * self.clock_mhz * 1e6 / 1e9
    }

    /// Bytes accepted per PL clock cycle (the merged stream width).
    pub fn bytes_per_cycle(&self) -> u64 {
        (self.ports * self.port_bits / 8) as u64
    }

    /// Converts PL cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * 1e3 / self.clock_mhz
    }
}

impl Default for AxiConfig {
    fn default() -> AxiConfig {
        AxiConfig::kv260()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv260_peaks_match_paper() {
        let ddr = DdrConfig::ddr4_2400_kv260();
        assert_eq!(ddr.peak_bandwidth_gbps(), 19.2);
        let axi = AxiConfig::kv260();
        assert_eq!(axi.bandwidth_gbps(), 19.2);
        assert_eq!(axi.bytes_per_cycle(), 64);
    }

    #[test]
    fn access_geometry() {
        let ddr = DdrConfig::default();
        assert_eq!(ddr.bytes_per_access(), 64);
        assert_eq!(ddr.cycles_per_access(), 4);
        assert_eq!(ddr.accesses_per_row(), 128);
    }

    #[test]
    fn address_mapping_interleaves_bank_groups_per_beat() {
        let ddr = DdrConfig::default();
        assert_eq!(ddr.map_address(0), (0, 0, 0));
        // Consecutive 64-byte beats rotate through the four bank groups.
        assert_eq!(ddr.map_address(64).1, 1);
        assert_eq!(ddr.map_address(128).1, 2);
        assert_eq!(ddr.map_address(192).1, 3);
        // The fifth beat returns to bank group 0, next column.
        assert_eq!(ddr.map_address(256), (0, 0, 1));
        // After one full row window (8 KiB across the 4 groups), the next
        // bank within each group opens.
        let (row, bank, col) = ddr.map_address(8192);
        assert_eq!((row, col), (0, 0));
        assert_eq!(ddr.bank_group_of(bank), 0);
        assert_ne!(bank, 0);
        // After all 16 banks' windows, the row advances.
        assert_eq!(ddr.map_address(8192 * 4).0, 1);
    }

    #[test]
    fn clock_conversions() {
        let ddr = DdrConfig::default();
        assert!((ddr.cycles_to_ns(1200) - 1000.0).abs() < 1e-9);
        let axi = AxiConfig::kv260();
        assert!((axi.cycles_to_ns(300) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn alternative_memories_have_expected_peaks() {
        let ultra96 = DdrConfig::lpddr4_2133_ultra96();
        assert!((ultra96.peak_bandwidth_gbps() - 8.528).abs() < 0.01);
        let zcu = DdrConfig::ddr4_2666_zcu102();
        assert!((zcu.peak_bandwidth_gbps() - 21.328).abs() < 0.01);
        let nano = DdrConfig::lpddr5_orin_nano();
        assert!((nano.peak_bandwidth_gbps() - 68.256).abs() < 0.01);
        let lp5 = DdrConfig::lpddr5_6400_embedded();
        assert!((lp5.peak_bandwidth_gbps() - 51.2).abs() < 1e-9);
        assert_eq!(lp5.bytes_per_access(), 128);
    }

    #[test]
    fn alternative_memories_keep_beat_geometry_consistent() {
        for cfg in [
            DdrConfig::lpddr4_2133_ultra96(),
            DdrConfig::ddr4_2666_zcu102(),
            DdrConfig::lpddr5_orin_nano(),
            DdrConfig::lpddr5_6400_embedded(),
        ] {
            assert!(cfg.bytes_per_access() > 0);
            assert!(cfg.accesses_per_row() > 0);
            // The first access of the device is always (0, 0, 0), and a
            // full sweep of all banks' row windows advances the row.
            assert_eq!(cfg.map_address(0), (0, 0, 0));
            let window = cfg.row_bytes / cfg.bank_groups.max(1) as u64
                * cfg.bank_groups.max(1) as u64
                * (cfg.banks / cfg.bank_groups.max(1)) as u64;
            assert_eq!(cfg.map_address(window).0, 1);
        }
    }
}
