//! Synthetic traffic generators for the memory-subsystem microbenchmarks.

use zllm_layout::{BurstDescriptor, BEAT_BYTES};

/// One long sequential read of `bytes` (rounded up to whole beats).
pub fn sequential(base: u64, bytes: u64) -> Vec<BurstDescriptor> {
    let beats = bytes.div_ceil(BEAT_BYTES as u64) as u32;
    vec![BurstDescriptor::new(base, beats)]
}

/// `count` single-beat reads at pseudo-random beat-aligned addresses within
/// `[0, range)`. Deterministic in `seed` (xorshift; no external RNG needed
/// at this layer).
pub fn random_single(seed: u64, count: usize, range: u64) -> Vec<BurstDescriptor> {
    let slots = (range / BEAT_BYTES as u64).max(1);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            BurstDescriptor::new((state % slots) * BEAT_BYTES as u64, 1)
        })
        .collect()
}

/// `count` bursts of `beats` beats each, starting `stride` bytes apart.
pub fn strided(base: u64, count: usize, beats: u32, stride: u64) -> Vec<BurstDescriptor> {
    (0..count as u64)
        .map(|i| BurstDescriptor::new(base + i * stride, beats))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zllm_layout::burst::total_bytes;

    #[test]
    fn sequential_rounds_up() {
        let s = sequential(0, 100);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].beats, 2);
    }

    #[test]
    fn random_is_deterministic_and_aligned() {
        let a = random_single(5, 100, 1 << 20);
        let b = random_single(5, 100, 1 << 20);
        assert_eq!(a, b);
        assert!(a.iter().all(|d| d.addr % BEAT_BYTES as u64 == 0));
        assert!(a.iter().all(|d| d.addr < 1 << 20));
        let c = random_single(6, 100, 1 << 20);
        assert_ne!(a, c);
    }

    #[test]
    fn strided_spacing() {
        let s = strided(1024, 4, 2, 4096);
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].addr - s[0].addr, 4096);
        assert_eq!(total_bytes(&s), 4 * 2 * 64);
    }
}
