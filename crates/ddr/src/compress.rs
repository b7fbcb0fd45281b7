//! Compression-aware memory controller: inline (de)compression in the
//! DDR pipeline with entropy-driven burst pricing.
//!
//! "Reimagining Memory Access for LLM Inference" (PAPERS.md) moves the
//! (de)compression engine *into* the memory controller: data crosses the
//! DDR bus at compressed size and a line-rate decompressor beside the
//! PHY restores it on the fly. [`MemorySystem`] holds that stage between
//! the requester and the controller
//! ([`MemorySystem::set_compression`]): classed bursts go through it
//! ([`MemorySystem::transfer_classed`]), while
//! [`MemorySystem::transfer_iter`] stays the uncompressed path.
//!
//! * Each burst is classed by [`StreamClass`] and priced at its
//!   compressed size, rounded **up** to whole 64-byte beats (a burst
//!   never prices to zero beats).
//! * The compression page map costs real bandwidth: every compressed
//!   burst charges one page-map entry per compression page it overlaps,
//!   batched into 64-byte metadata bursts at [`META_REGION`] once a full
//!   beat of entries accumulates (partial beats stay pending, modeling
//!   the controller's map-line cache).
//! * The decompressor is a cut-through pipeline stage like
//!   [`crate::flash`]'s device model: it consumes wire beats as they
//!   arrive, bounded by a throughput cap, and adds a fixed latency; at
//!   line rate the exposed stall per transfer is just that latency.
//! * Ratio-1.0 streams bypass the stage entirely — same burst
//!   descriptors, no metadata, no stall — so a compression-off
//!   configuration is bit-identical and counter-identical to pricing
//!   through the bare [`MemorySystem`].
//!
//! Compression ratios are fixed-point ([`StreamRatio`]: wire bytes per
//! 64 KiB of logical bytes) so pricing is exact integer arithmetic; the
//! entropy-measured values come from `zllm-quant`'s stream-entropy model.
//!
//! # Example
//!
//! ```
//! use zllm_ddr::compress::{CompressionConfig, StreamClass, StreamRatio};
//! use zllm_ddr::MemorySystem;
//! use zllm_layout::BurstDescriptor;
//!
//! let mut mem = MemorySystem::kv260();
//! mem.set_compression(CompressionConfig {
//!     weight: StreamRatio::from_ratio(2.0),
//!     ..CompressionConfig::identity()
//! });
//! let t = mem.transfer_classed([(BurstDescriptor::new(0, 64), StreamClass::Weight)]);
//! assert_eq!(t.logical_bytes, 64 * 64);
//! assert_eq!(t.bytes, 32 * 64); // half the beats cross the bus
//! assert_eq!(mem.compression_bytes(), Some((64 * 64, 32 * 64, 0)));
//! ```

use crate::system::{MemorySystem, TransferReport};
use zllm_layout::BurstDescriptor;
use zllm_telemetry::{Counter, MetricsRegistry};

/// Byte address of the compression page map. Far above the model image
/// on a 4 GiB part; overlap with payload regions would only perturb row
/// dynamics, which is acceptable for pricing (same convention as the
/// tiered staging buffers).
pub const META_REGION: u64 = 0xF000_0000;

/// Logical bytes represented by one full [`StreamRatio`] denominator.
const RATIO_ONE: u64 = 65536;

/// A fixed-point compression ratio: wire bytes per 64 KiB of logical
/// bytes. Exact integer pricing, deterministic across hosts.
///
/// # Example
///
/// ```
/// use zllm_ddr::compress::StreamRatio;
///
/// let r = StreamRatio::from_ratio(2.0);
/// assert_eq!(r.wire_bytes(128), 64);
/// assert!(StreamRatio::IDENTITY.is_identity());
/// // Expansion never happens: ratios below 1.0 clamp to identity.
/// assert!(StreamRatio::from_ratio(0.5).is_identity());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamRatio(u32);

impl StreamRatio {
    /// The pass-through ratio (1.0): wire equals logical.
    pub const IDENTITY: StreamRatio = StreamRatio(RATIO_ONE as u32);

    /// Builds from a floating compression factor (logical / wire).
    /// Factors ≤ 1.0 clamp to [`StreamRatio::IDENTITY`]; the factor is
    /// otherwise rounded to the nearest 1/65536.
    pub fn from_ratio(factor: f64) -> StreamRatio {
        if factor.is_nan() || factor <= 1.0 {
            return StreamRatio::IDENTITY;
        }
        let wire = (RATIO_ONE as f64 / factor).round();
        StreamRatio((wire as u32).clamp(1, RATIO_ONE as u32))
    }

    /// Wire bytes for `logical` bytes, rounded up.
    pub fn wire_bytes(self, logical: u64) -> u64 {
        (logical * self.0 as u64).div_ceil(RATIO_ONE)
    }

    /// `true` when this ratio passes data through unchanged.
    pub fn is_identity(self) -> bool {
        self.0 as u64 == RATIO_ONE
    }

    /// The compression factor as a float (≥ 1.0).
    pub fn ratio(self) -> f64 {
        RATIO_ONE as f64 / self.0 as f64
    }
}

/// The stream kinds the decode engine moves over the bus, each carrying
/// its own compression ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamClass {
    /// Quantized weight streams (QKV/attention-out/MLP/LM-head tiles).
    Weight,
    /// KV8 cache lines (reads and write-backs).
    Kv,
    /// FP16 activation traffic (embedding rows).
    Activation,
    /// Control metadata (page tables, rollback flushes): never
    /// compressed — it is latency-critical and already dense.
    Meta,
}

/// Configuration of the compression stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionConfig {
    /// Ratio applied to [`StreamClass::Weight`] bursts.
    pub weight: StreamRatio,
    /// Ratio applied to [`StreamClass::Kv`] bursts.
    pub kv: StreamRatio,
    /// Ratio applied to [`StreamClass::Activation`] bursts.
    pub activation: StreamRatio,
    /// Fixed decompressor pipeline latency added to every transfer that
    /// carried compressed data.
    pub decomp_latency_ns: f64,
    /// Decompressor wire-side throughput cap in bytes/ns (GB/s). At or
    /// above the DDR peak this is a line-rate ("cut-through") stage and
    /// only the fixed latency is ever exposed.
    pub decomp_bytes_per_ns: f64,
    /// Compression page size: the unit compressed independently and
    /// tracked by one page-map entry.
    pub page_bytes: u64,
    /// Size of one compression page-map entry (compressed length +
    /// block offset).
    pub meta_entry_bytes: u64,
}

impl CompressionConfig {
    /// All-identity configuration: every class passes through, the
    /// decompressor never engages. Pricing through this configuration is
    /// bit-identical to the bare [`MemorySystem`].
    pub fn identity() -> CompressionConfig {
        CompressionConfig {
            weight: StreamRatio::IDENTITY,
            kv: StreamRatio::IDENTITY,
            activation: StreamRatio::IDENTITY,
            decomp_latency_ns: 120.0,
            decomp_bytes_per_ns: 64.0,
            page_bytes: 4096,
            meta_entry_bytes: 8,
        }
    }

    /// The default hardware stage with explicit per-class ratios: 120 ns
    /// pipeline latency, 64 B/ns line-rate decompressor (above both the
    /// 19.2 GB/s DDR4 and 51.2 GB/s LPDDR5-6400 peaks, so the cap never
    /// binds on a supported part), 4 KiB pages with 8 B map entries.
    pub fn with_ratios(
        weight: StreamRatio,
        kv: StreamRatio,
        activation: StreamRatio,
    ) -> CompressionConfig {
        CompressionConfig {
            weight,
            kv,
            activation,
            ..CompressionConfig::identity()
        }
    }

    /// The ratio applied to a class ([`StreamClass::Meta`] is always
    /// identity).
    pub fn ratio_of(&self, class: StreamClass) -> StreamRatio {
        match class {
            StreamClass::Weight => self.weight,
            StreamClass::Kv => self.kv,
            StreamClass::Activation => self.activation,
            StreamClass::Meta => StreamRatio::IDENTITY,
        }
    }

    /// `true` when no class compresses (the stage is fully bypassed).
    pub fn is_identity(&self) -> bool {
        self.weight.is_identity() && self.kv.is_identity() && self.activation.is_identity()
    }
}

/// Telemetry handles of the compression stage, following the
/// [`crate::telemetry::DdrCounters`] pattern: detached by default,
/// registered on first use so compression-off snapshots carry no
/// `comp.*` keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompCounters {
    /// Logical (uncompressed) payload bytes requested.
    bytes_logical: Counter,
    /// Wire payload bytes that actually crossed the bus.
    bytes_wire: Counter,
    /// Page-map metadata bytes moved.
    bytes_meta: Counter,
    /// Exposed decompressor stall, in DRAM-clock cycles.
    decomp_stall_cycles: Counter,
}

impl CompCounters {
    /// Registers the counter set under `prefix` (e.g. `"comp"` yields
    /// `comp.bytes.logical`, `comp.bytes.wire`, `comp.bytes.meta`,
    /// `comp.decomp_stall_cycles`).
    fn register(reg: &mut MetricsRegistry, prefix: &str) -> CompCounters {
        CompCounters {
            bytes_logical: reg.counter(&format!("{prefix}.bytes.logical")),
            bytes_wire: reg.counter(&format!("{prefix}.bytes.wire")),
            bytes_meta: reg.counter(&format!("{prefix}.bytes.meta")),
            decomp_stall_cycles: reg.counter(&format!("{prefix}.decomp_stall_cycles")),
        }
    }
}

/// The inline-compression stage a [`MemorySystem`] holds in front of its
/// controller.
///
/// Holds the per-class ratios, the decompressor's cut-through horizon
/// and the pending page-map bytes; the same DDR controller (and its
/// `ddr.port0.*` telemetry) prices both compressed and pass-through
/// traffic.
#[derive(Debug, Clone)]
pub(crate) struct CompressionStage {
    cfg: CompressionConfig,
    counters: CompCounters,
    /// `true` once the counters publish into a registry.
    registered: bool,
    /// Page-map bytes accumulated but not yet flushed as a full beat.
    pending_meta: u64,
    /// Decompressor busy horizon (cut-through, like `flash.rs`).
    busy_until_ns: f64,
}

impl CompressionStage {
    /// A stage with detached counters.
    pub(crate) fn new(cfg: CompressionConfig) -> CompressionStage {
        CompressionStage {
            cfg,
            counters: CompCounters::default(),
            registered: false,
            pending_meta: 0,
            busy_until_ns: 0.0,
        }
    }

    /// Swaps in counters registered under `comp`, plus the three
    /// `comp.ratio.*` gauges. Does nothing after the first registration
    /// or for an all-identity configuration, which stays invisible.
    pub(crate) fn register(&mut self, reg: &mut MetricsRegistry) {
        if self.registered || self.cfg.is_identity() {
            return;
        }
        self.counters = CompCounters::register(reg, "comp");
        reg.gauge("comp.ratio.weight").set(self.cfg.weight.ratio());
        reg.gauge("comp.ratio.kv").set(self.cfg.kv.ratio());
        reg.gauge("comp.ratio.activation")
            .set(self.cfg.activation.ratio());
        self.registered = true;
    }

    /// Cumulative `(logical, wire, metadata)` payload bytes.
    pub(crate) fn bytes(&self) -> (u64, u64, u64) {
        let k = &self.counters;
        (
            k.bytes_logical.get(),
            k.bytes_wire.get(),
            k.bytes_meta.get(),
        )
    }

    /// Prices a classed burst stream through `mem`'s controller.
    ///
    /// Compressed bursts shrink to their wire size (whole 64-byte beats,
    /// never zero), charge page-map metadata, and pay the decompressor
    /// stall; identity-class bursts pass through untouched. The report's
    /// `bytes` are wire + metadata; its `logical_bytes` are what the
    /// caller asked for.
    pub(crate) fn transfer<I>(&mut self, mem: &mut MemorySystem, bursts: I) -> TransferReport
    where
        I: IntoIterator<Item = (BurstDescriptor, StreamClass)>,
    {
        let cfg = self.cfg;
        let page = cfg.page_bytes.max(1);
        let start_ns = mem.now_ns();
        let mut logical: u64 = 0;
        let mut wire: u64 = 0;
        let mut meta: u64 = 0;
        // Wire bytes that pass through the decompressor (compressed
        // classes only; identity traffic bypasses the stage).
        let mut decomp_wire: u64 = 0;
        let mut pending_meta = self.pending_meta;

        let mut report = mem.transfer_iter(bursts.into_iter().flat_map(|(b, class)| {
            let mut out: [Option<BurstDescriptor>; 2] = [None, None];
            if b.beats > 0 {
                let bytes = b.bytes();
                logical += bytes;
                let ratio = cfg.ratio_of(class);
                if ratio.is_identity() {
                    wire += bytes;
                    out[1] = Some(b);
                } else {
                    let wire_beats = ratio.wire_bytes(bytes).div_ceil(64).max(1) as u32;
                    let wire_bytes = wire_beats as u64 * 64;
                    wire += wire_bytes;
                    decomp_wire += wire_bytes;
                    out[1] = Some(BurstDescriptor {
                        addr: b.addr,
                        beats: wire_beats,
                        write: b.write,
                    });
                    // One page-map entry per compression page the
                    // logical span overlaps, flushed beat-at-a-time.
                    let pages = (b.addr + bytes - 1) / page - b.addr / page + 1;
                    pending_meta += pages * cfg.meta_entry_bytes;
                    if pending_meta >= 64 {
                        let beats = (pending_meta / 64) as u32;
                        pending_meta %= 64;
                        let meta_addr = META_REGION + (b.addr / page) * cfg.meta_entry_bytes;
                        meta += beats as u64 * 64;
                        out[0] = Some(BurstDescriptor::new(meta_addr, beats));
                    }
                }
            }
            out.into_iter().flatten()
        }));
        self.pending_meta = pending_meta;

        let end_ns = mem.now_ns();
        let mut stall_ns = 0.0;
        if decomp_wire > 0 {
            // Cut-through: decoding starts as the first wire beat lands
            // (or when the previous transfer drains), is bounded by the
            // throughput cap, and always pays the fixed pipe latency.
            let start = start_ns.max(self.busy_until_ns);
            let drain = decomp_wire as f64 / cfg.decomp_bytes_per_ns.max(f64::MIN_POSITIVE);
            let done = end_ns.max(start + drain) + cfg.decomp_latency_ns;
            stall_ns = done - end_ns;
            self.busy_until_ns = done;
        }

        self.counters.bytes_logical.add(logical);
        self.counters.bytes_wire.add(wire);
        self.counters.bytes_meta.add(meta);
        let ddr_ns_per_cycle = mem.ddr_config().cycles_to_ns(1);
        self.counters
            .decomp_stall_cycles
            .add((stall_ns / ddr_ns_per_cycle).round() as u64);

        report.logical_bytes = logical;
        report.decomp_stall_ns = stall_ns;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight_cfg(factor: f64) -> CompressionConfig {
        CompressionConfig::with_ratios(
            StreamRatio::from_ratio(factor),
            StreamRatio::IDENTITY,
            StreamRatio::IDENTITY,
        )
    }

    /// A KV260 memory system with the stage set to `cfg`.
    fn compressed(cfg: CompressionConfig) -> MemorySystem {
        let mut mem = MemorySystem::kv260();
        mem.set_compression(cfg);
        mem
    }

    fn stage(mem: &MemorySystem) -> &CompressionStage {
        mem.compression_stage().expect("stage set")
    }

    #[test]
    fn ratio_fixed_point_is_exact() {
        assert_eq!(StreamRatio::from_ratio(1.0), StreamRatio::IDENTITY);
        assert_eq!(StreamRatio::from_ratio(2.0).wire_bytes(65536), 32768);
        assert_eq!(StreamRatio::IDENTITY.wire_bytes(12345), 12345);
        // Rounded up: one logical byte never prices to zero wire bytes.
        assert_eq!(StreamRatio::from_ratio(4.0).wire_bytes(1), 1);
        assert!((StreamRatio::from_ratio(1.424).ratio() - 1.424).abs() < 1e-4);
    }

    #[test]
    fn identity_config_is_bit_identical_to_bare_system() {
        let traffic: Vec<(BurstDescriptor, StreamClass)> = (0..64)
            .map(|i| {
                let b = if i % 5 == 0 {
                    BurstDescriptor::write(i * 8192, 17)
                } else {
                    BurstDescriptor::new(i * 4096, 64)
                };
                let class = match i % 4 {
                    0 => StreamClass::Weight,
                    1 => StreamClass::Kv,
                    2 => StreamClass::Activation,
                    _ => StreamClass::Meta,
                };
                (b, class)
            })
            .collect();

        let mut bare = MemorySystem::kv260();
        let bare_report = bare.transfer_iter(traffic.iter().map(|&(b, _)| b));

        let mut mem = compressed(CompressionConfig::identity());
        let t = mem.transfer_classed(traffic.iter().copied());
        let (_, wire, meta) = stage(&mem).bytes();

        assert_eq!(t, bare_report);
        assert_eq!(t.logical_bytes, wire);
        assert_eq!(meta, 0);
        assert_eq!(t.decomp_stall_ns, 0.0);
        assert_eq!(mem.stats(), bare.stats());
        assert_eq!(mem.now_ns().to_bits(), bare.now_ns().to_bits());
        assert_eq!(stage(&mem).counters.decomp_stall_cycles.get(), 0);
    }

    #[test]
    fn ratio_two_halves_the_wire_beats() {
        let mut mem = compressed(weight_cfg(2.0));
        let t = mem.transfer_classed([(BurstDescriptor::new(0, 64), StreamClass::Weight)]);
        let (_, wire, meta) = stage(&mem).bytes();
        assert_eq!(t.logical_bytes, 64 * 64);
        assert_eq!(wire, 32 * 64);
        // One 4 KiB logical burst = one page = one 8 B map entry, below
        // a beat: stays pending.
        assert_eq!(meta, 0);
        assert!(t.decomp_stall_ns >= stage(&mem).cfg.decomp_latency_ns);
    }

    #[test]
    fn page_map_metadata_flushes_in_whole_beats() {
        let mut mem = compressed(weight_cfg(2.0));
        // 8 bursts x 1 page x 8 B = 64 B: exactly one metadata beat.
        let bursts: Vec<_> = (0..8u64)
            .map(|i| (BurstDescriptor::new(i * 4096, 64), StreamClass::Weight))
            .collect();
        let t = mem.transfer_classed(bursts);
        let (_, wire, meta) = stage(&mem).bytes();
        assert_eq!(meta, 64);
        assert_eq!(t.bytes, wire + meta);
    }

    #[test]
    fn line_rate_decompressor_exposes_only_the_fixed_latency() {
        let mut mem = compressed(weight_cfg(2.0));
        // A long steady stream: wire time far exceeds the drain bound.
        let t = mem.transfer_classed(
            (0..256u64).map(|i| (BurstDescriptor::new(i * 16384, 255), StreamClass::Weight)),
        );
        let latency = stage(&mem).cfg.decomp_latency_ns;
        assert!(
            (t.decomp_stall_ns - latency).abs() < 1e-9,
            "stall {} != latency {}",
            t.decomp_stall_ns,
            latency
        );
    }

    #[test]
    fn throughput_cap_binds_when_below_line_rate() {
        let mut cfg = weight_cfg(2.0);
        cfg.decomp_bytes_per_ns = 1.0; // far below the 19.2 GB/s bus
        let mut mem = compressed(cfg);
        let t = mem.transfer_classed([(BurstDescriptor::new(0, 1024), StreamClass::Weight)]);
        let (_, wire, _) = stage(&mem).bytes();
        let drain = wire as f64 / 1.0;
        assert!(t.decomp_stall_ns > cfg.decomp_latency_ns);
        assert!(t.decomp_stall_ns <= drain + cfg.decomp_latency_ns);
    }

    #[test]
    fn meta_class_never_compresses() {
        let mut mem = compressed(weight_cfg(4.0));
        let t = mem.transfer_classed([(BurstDescriptor::new(0, 64), StreamClass::Meta)]);
        let (_, wire, meta) = stage(&mem).bytes();
        assert_eq!(wire, t.logical_bytes);
        assert_eq!(meta, 0);
        assert_eq!(t.decomp_stall_ns, 0.0);
    }

    #[test]
    fn counters_register_under_prefix() {
        let mut reg = MetricsRegistry::new();
        let c = CompCounters::register(&mut reg, "comp");
        c.bytes_logical.add(100);
        c.bytes_wire.add(50);
        assert_eq!(reg.counter_value("comp.bytes.logical"), Some(100));
        assert_eq!(reg.counter_value("comp.bytes.wire"), Some(50));
        assert_eq!(reg.counter_value("comp.bytes.meta"), Some(0));
        assert_eq!(reg.counter_value("comp.decomp_stall_cycles"), Some(0));
    }

    #[test]
    fn registration_happens_once_and_never_for_identity() {
        let burst = [(BurstDescriptor::new(0, 64), StreamClass::Weight)];
        // No stage, or an all-identity one: nothing registers.
        let mut reg = MetricsRegistry::new();
        let mut bare = MemorySystem::kv260();
        bare.register_compression(&mut reg);
        let mut identity = compressed(CompressionConfig::identity());
        identity.register_compression(&mut reg);
        identity.transfer_classed(burst);
        assert!(reg.is_empty());
        assert_eq!(bare.compression_bytes(), None);
        assert_eq!(identity.compression_bytes(), Some((4096, 4096, 0)));

        // A compressing stage registers four counters and three gauges
        // on its first call and publishes into them from then on.
        let mut mem = compressed(weight_cfg(2.0));
        mem.register_compression(&mut reg);
        mem.transfer_classed(burst);
        assert_eq!(reg.len(), 7);
        assert_eq!(reg.counter_value("comp.bytes.wire"), Some(32 * 64));
        assert_eq!(reg.snapshot().gauge("comp.ratio.weight"), Some(2.0));
        // Later calls register nothing again.
        reg.gauge("comp.ratio.weight").set(0.0);
        mem.register_compression(&mut reg);
        assert_eq!(reg.snapshot().gauge("comp.ratio.weight"), Some(0.0));
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_class() -> impl Strategy<Value = StreamClass> {
            prop_oneof![
                Just(StreamClass::Weight),
                Just(StreamClass::Kv),
                Just(StreamClass::Activation),
                Just(StreamClass::Meta),
            ]
        }

        proptest! {
            /// Byte conservation: wire beats never exceed logical beats,
            /// and no non-empty burst prices to zero wire beats.
            #[test]
            fn wire_beats_bounded_by_logical_beats(
                bursts in proptest::collection::vec(
                    (0u64..(1 << 28), 1u32..512, proptest::bool::ANY, arb_class()),
                    1..64,
                ),
                weight in 1.0f64..8.0,
                kv in 1.0f64..8.0,
                act in 1.0f64..8.0,
            ) {
                let cfg = CompressionConfig::with_ratios(
                    StreamRatio::from_ratio(weight),
                    StreamRatio::from_ratio(kv),
                    StreamRatio::from_ratio(act),
                );
                let mut mem = compressed(cfg);
                let logical_beats: u64 =
                    bursts.iter().map(|&(_, beats, _, _)| beats as u64).sum();
                let t = mem.transfer_classed(
                    bursts.iter().map(|&(addr, beats, write, class)| {
                        let b = if write {
                            BurstDescriptor::write(addr, beats)
                        } else {
                            BurstDescriptor::new(addr, beats)
                        };
                        (b, class)
                    }),
                );
                let (_, wire, _) = stage(&mem).bytes();
                prop_assert_eq!(t.logical_bytes, logical_beats * 64);
                prop_assert!(wire <= t.logical_bytes);
                // Every burst contributes at least one wire beat.
                prop_assert!(wire >= bursts.len() as u64 * 64);
            }

            /// Ratio-1.0 traffic is beat-identical to the uncompressed
            /// controller for any layout.
            #[test]
            fn identity_traffic_matches_bare_system(
                bursts in proptest::collection::vec(
                    (0u64..(1 << 28), 0u32..512, proptest::bool::ANY, arb_class()),
                    1..64,
                ),
            ) {
                let descriptors: Vec<BurstDescriptor> = bursts
                    .iter()
                    .map(|&(addr, beats, write, _)| {
                        if write {
                            BurstDescriptor::write(addr, beats)
                        } else {
                            BurstDescriptor::new(addr, beats)
                        }
                    })
                    .collect();
                let mut bare = MemorySystem::kv260();
                let bare_report = bare.transfer_iter(descriptors.iter().copied());

                let mut mem = compressed(CompressionConfig::identity());
                let t = mem.transfer_classed(
                    descriptors
                        .iter()
                        .zip(&bursts)
                        .map(|(&b, &(_, _, _, class))| (b, class)),
                );
                let (_, wire, meta) = stage(&mem).bytes();
                prop_assert_eq!(t, bare_report);
                prop_assert_eq!(wire, t.logical_bytes);
                prop_assert_eq!(meta, 0);
                prop_assert_eq!(t.decomp_stall_ns, 0.0);
                prop_assert_eq!(mem.now_ns().to_bits(), bare.now_ns().to_bits());
            }
        }
    }
}
