//! Burst descriptors: the interface between layouts and the DDR simulator.
//!
//! A layout's job is to turn a logical fetch (e.g. "the weights of layer 7's
//! gate projection") into a list of `(address, length)` bursts. The DDR
//! model then prices each burst. Long bursts at consecutive addresses win;
//! that is the entire point of §V-B.

/// One contiguous bus transfer: `beats` consecutive 512-bit words starting
/// at byte address `addr`.
///
/// # Example
///
/// ```
/// use zllm_layout::BurstDescriptor;
///
/// let b = BurstDescriptor::new(0x1000, 8);
/// assert_eq!(b.bytes(), 512);
/// assert_eq!(b.end_addr(), 0x1000 + 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BurstDescriptor {
    /// Start byte address (must be beat-aligned for the accelerator's MCU).
    pub addr: u64,
    /// Number of consecutive 512-bit beats.
    pub beats: u32,
    /// `true` for a write (KV cache write-back), `false` for a read.
    pub write: bool,
}

impl BurstDescriptor {
    /// Creates a read burst.
    pub fn new(addr: u64, beats: u32) -> BurstDescriptor {
        BurstDescriptor {
            addr,
            beats,
            write: false,
        }
    }

    /// Creates a write burst.
    pub fn write(addr: u64, beats: u32) -> BurstDescriptor {
        BurstDescriptor {
            addr,
            beats,
            write: true,
        }
    }

    /// Transfer size in bytes.
    pub fn bytes(&self) -> u64 {
        self.beats as u64 * crate::BEAT_BYTES as u64
    }

    /// One-past-the-end byte address.
    pub fn end_addr(&self) -> u64 {
        self.addr + self.bytes()
    }
}

/// Total bytes moved by a stream of bursts.
pub fn total_bytes(bursts: &[BurstDescriptor]) -> u64 {
    bursts.iter().map(BurstDescriptor::bytes).sum()
}

/// Average burst length in beats (0 for an empty stream) — the headline
/// statistic of the data-arrangement experiment.
pub fn mean_burst_beats(bursts: &[BurstDescriptor]) -> f64 {
    if bursts.is_empty() {
        return 0.0;
    }
    bursts.iter().map(|b| b.beats as f64).sum::<f64>() / bursts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        let b = BurstDescriptor::new(0, 4);
        assert_eq!(b.bytes(), 256);
        assert_eq!(total_bytes(&[b, BurstDescriptor::write(0x100, 1)]), 320);
    }

    #[test]
    fn mean_burst_statistic() {
        assert_eq!(mean_burst_beats(&[]), 0.0);
        let bursts = [BurstDescriptor::new(0, 2), BurstDescriptor::new(1024, 6)];
        assert_eq!(mean_burst_beats(&bursts), 4.0);
    }
}
