//! Layer fetches from a flash storage device into DDR.
//!
//! [`stage_fetch`] prices a layer fetch as explicit bursts on **both**
//! buses, the [`FlashDevice`]'s link and the [`MemorySystem`] (the DDR
//! controller + AXI fabric the decode schedules are priced on):
//!
//! - the flash link reads the layer sequentially (paying the device's IOP
//!   latency and sustained-bandwidth wire time, serialized against every
//!   other in-flight fetch on the single link), and
//! - the staging writes land in DDR through the *same* controller the
//!   decode stream uses, so fetch traffic contends with decode traffic on
//!   the DDR bus exactly like a second requester would.
//!
//! Staging is cut-through, not store-and-forward: data is written to DRAM
//! in request-sized slices as it arrives off the link, so a fetch is ready
//! when the *slower* of the two buses finishes, not after their sum.

use crate::flash::{FlashDevice, FlashTransfer};
use crate::system::MemorySystem;
use zllm_layout::BurstDescriptor;

/// One layer fetch priced across the flash link and the DDR bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierFetch {
    /// Bytes staged into DDR.
    pub bytes: u64,
    /// When the flash link accepted the read.
    pub flash_start_ns: f64,
    /// When the last byte left the flash device.
    pub flash_done_ns: f64,
    /// DDR bus time consumed by the staging writes.
    pub ddr_wall_ns: f64,
    /// When the layer is usable in DDR: the slower bus's finish time.
    pub ready_ns: f64,
}

/// Prices one layer fetch: a sequential flash read starting no earlier
/// than `earliest_ns` (serialized on the link), plus the staging writes
/// into the layer's canonical DDR addresses through the shared
/// controller. `bursts` must describe the DDR destination; they are
/// forced to writes.
pub fn stage_fetch(
    mem: &mut MemorySystem,
    flash: &mut FlashDevice,
    bursts: &[BurstDescriptor],
    earliest_ns: f64,
) -> TierFetch {
    let bytes: u64 = bursts
        .iter()
        .map(|b| b.beats as u64 * zllm_layout::BEAT_BYTES as u64)
        .sum();
    let FlashTransfer {
        start_ns, done_ns, ..
    } = flash.read(bytes, earliest_ns);
    let staging = mem.transfer_iter(bursts.iter().map(|b| BurstDescriptor { write: true, ..*b }));
    let ddr_wall_ns = staging.wall_ns;
    // Cut-through: DDR writes chase the link; the fetch is ready when
    // the slower bus finishes.
    let ready_ns = done_ns.max(start_ns + ddr_wall_ns);
    TierFetch {
        bytes,
        flash_start_ns: start_ns,
        flash_done_ns: done_ns,
        ddr_wall_ns,
        ready_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::FlashConfig;

    fn write_burst(beats: u32) -> BurstDescriptor {
        BurstDescriptor {
            addr: 0x8000_0000,
            beats,
            write: true,
        }
    }

    fn tiers() -> (MemorySystem, FlashDevice) {
        (
            MemorySystem::kv260(),
            FlashDevice::new(FlashConfig::emmc_hs400()),
        )
    }

    #[test]
    fn fetch_prices_both_buses() {
        let (mut mem, mut flash) = tiers();
        let f = stage_fetch(&mut mem, &mut flash, &[write_burst(1 << 20)], 0.0); // 64 MiB
        assert_eq!(f.bytes, 64 << 20);
        assert!(f.ddr_wall_ns > 0.0);
        // eMMC at ~0.25 GB/s is the slow bus; DDR staging hides under it.
        assert!(f.flash_done_ns > f.ddr_wall_ns);
        assert_eq!(f.ready_ns, f.flash_done_ns);
        assert_eq!(flash.stats().bytes, 64 << 20);
    }

    #[test]
    fn fetches_serialize_on_the_link() {
        let (mut mem, mut flash) = tiers();
        let a = stage_fetch(&mut mem, &mut flash, &[write_burst(1024)], 0.0);
        let b = stage_fetch(&mut mem, &mut flash, &[write_burst(1024)], 0.0);
        assert_eq!(b.flash_start_ns, a.flash_done_ns);
    }
}
