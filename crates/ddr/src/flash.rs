//! The storage tier below DDR: a command-level model of an eMMC / NVMe
//! flash device feeding layer fetches into DRAM.
//!
//! The model is deliberately simple and deterministic, matching the rest
//! of the simulator's style: a device is characterized by its sustained
//! sequential-read bandwidth, a fixed per-request (IOP) latency, and a
//! maximum request size. A fetch larger than one request is split into
//! back-to-back requests, each paying the IOP latency — which is exactly
//! why small requests run far below the datasheet bandwidth and why the
//! weight cache fetches whole layers (hundreds of MiB) rather than
//! individual projection tiles.
//!
//! [`FlashDevice`] adds the single shared link: reads serialize on one
//! `busy_until` timeline, so an aggressive prefetcher that wastes fetches
//! also delays the demand fetch it will need next — the failure mode the
//! blind-LRU strawman exhibits in `zllm-accel`'s tier simulation.

/// Timing and geometry of a flash storage device.
///
/// # Example
///
/// ```
/// use zllm_ddr::FlashConfig;
///
/// let emmc = FlashConfig::emmc_hs400();
/// // A whole 100 MiB layer amortizes the request latency almost fully…
/// assert!(emmc.efficiency(100 << 20) > 0.9);
/// // …while 4 KiB random-ish reads are dominated by it.
/// assert!(emmc.efficiency(4 << 10) < 0.15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlashConfig {
    /// Human-readable part name.
    pub name: &'static str,
    /// Sustained sequential-read bandwidth, MB/s (1 MB = 10^6 bytes).
    pub sustained_read_mbps: u64,
    /// Fixed latency per request (command issue, controller, FTL), µs.
    pub iop_latency_us: u64,
    /// Largest single request the controller accepts; larger transfers
    /// split into back-to-back requests, each paying the IOP latency.
    pub max_request_bytes: u64,
}

impl FlashConfig {
    /// The KV260 carrier's boot/storage device class: eMMC 5.1 HS400.
    /// ~250 MB/s sustained sequential read, ~150 µs per request.
    pub fn emmc_hs400() -> FlashConfig {
        FlashConfig {
            name: "eMMC 5.1 HS400",
            sustained_read_mbps: 250,
            iop_latency_us: 150,
            max_request_bytes: 512 << 10,
        }
    }

    /// An embedded NVMe drive on the carrier's M.2 slot (PCIe Gen3 ×2
    /// class): ~2.4 GB/s sustained, ~40 µs per request, 1 MiB requests.
    pub fn nvme_gen3() -> FlashConfig {
        FlashConfig {
            name: "NVMe Gen3 x2",
            sustained_read_mbps: 2400,
            iop_latency_us: 40,
            max_request_bytes: 1 << 20,
        }
    }

    /// Time to read `bytes` sequentially, in nanoseconds: one IOP latency
    /// per `max_request_bytes` slice plus the wire time at sustained
    /// bandwidth. Pure integer arithmetic — bit-exact across hosts.
    pub fn read_ns(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let requests = bytes.div_ceil(self.max_request_bytes.max(1));
        // MB/s is bytes/µs, so bytes × 1000 / (bytes/µs) is ns.
        requests * self.iop_latency_us * 1000 + bytes * 1000 / self.sustained_read_mbps.max(1)
    }

    /// Achieved fraction of the sustained bandwidth for a `bytes`-sized
    /// read: the request-size-dependent efficiency curve.
    pub fn efficiency(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let ideal = bytes * 1000 / self.sustained_read_mbps.max(1);
        ideal as f64 / self.read_ns(bytes) as f64
    }
}

/// Cumulative totals of a [`FlashDevice`]'s link activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Requests issued (IOPs, after request splitting).
    pub reads: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Total nanoseconds the link spent busy.
    pub busy_ns: u64,
}

/// One read scheduled on the flash link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashTransfer {
    /// Bytes read.
    pub bytes: u64,
    /// When the link accepted the request (≥ the requested earliest
    /// start; later if a previous read still held the link).
    pub start_ns: f64,
    /// When the last byte left the device.
    pub done_ns: f64,
}

/// A flash device with its single shared read link.
///
/// Reads serialize: a read requested while the link is busy starts when
/// the link frees. The device carries its `busy_until` horizon across
/// calls, so overlap (or the lack of it) against the decode timeline is
/// priced exactly.
#[derive(Debug, Clone)]
pub struct FlashDevice {
    cfg: FlashConfig,
    busy_until_ns: f64,
    stats: FlashStats,
}

impl FlashDevice {
    /// A device with an idle link at time zero.
    pub fn new(cfg: FlashConfig) -> FlashDevice {
        FlashDevice {
            cfg,
            busy_until_ns: 0.0,
            stats: FlashStats::default(),
        }
    }

    /// The device's timing configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.cfg
    }

    /// Schedules a sequential read of `bytes`, starting no earlier than
    /// `earliest_ns` and no earlier than the link frees.
    pub fn read(&mut self, bytes: u64, earliest_ns: f64) -> FlashTransfer {
        let start_ns = earliest_ns.max(self.busy_until_ns);
        let dur = self.cfg.read_ns(bytes);
        let done_ns = start_ns + dur as f64;
        self.busy_until_ns = done_ns;
        self.stats.reads += bytes.div_ceil(self.cfg.max_request_bytes.max(1));
        self.stats.bytes += bytes;
        self.stats.busy_ns += dur;
        FlashTransfer {
            bytes,
            start_ns,
            done_ns,
        }
    }

    /// When the link frees (ns on the shared virtual clock).
    pub fn busy_until_ns(&self) -> f64 {
        self.busy_until_ns
    }

    /// Cumulative link totals.
    pub fn stats(&self) -> FlashStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_time_is_latency_plus_wire_time() {
        let cfg = FlashConfig {
            name: "test",
            sustained_read_mbps: 100, // 100 bytes/µs
            iop_latency_us: 10,
            max_request_bytes: 1000,
        };
        // One request: 10 µs latency + 5 µs wire.
        assert_eq!(cfg.read_ns(500), 10_000 + 5_000);
        // Three requests for 2500 bytes: 30 µs latency + 25 µs wire.
        assert_eq!(cfg.read_ns(2500), 30_000 + 25_000);
        assert_eq!(cfg.read_ns(0), 0);
    }

    #[test]
    fn efficiency_grows_with_request_size() {
        let emmc = FlashConfig::emmc_hs400();
        let small = emmc.efficiency(4 << 10);
        let large = emmc.efficiency(100 << 20);
        assert!(small < large, "{small} !< {large}");
        assert!(large > 0.9);
    }

    #[test]
    fn link_serializes_reads() {
        let mut dev = FlashDevice::new(FlashConfig::emmc_hs400());
        let a = dev.read(1 << 20, 0.0);
        let b = dev.read(1 << 20, 100.0); // wants to start early…
        assert_eq!(b.start_ns, a.done_ns); // …but waits for the link
        let idle = dev.read(1 << 20, b.done_ns + 5_000.0);
        assert_eq!(idle.start_ns, b.done_ns + 5_000.0);
        let stats = dev.stats();
        assert_eq!(stats.bytes, 3 << 20);
        assert_eq!(stats.reads, 6); // 1 MiB = two 512 KiB requests
    }
}
