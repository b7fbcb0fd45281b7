//! Controller statistics: the measurements every bandwidth experiment reads.

use crate::config::DdrConfig;

/// Cumulative counters of a [`crate::DdrController`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdrStats {
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that required an activate (bank was closed).
    pub row_misses: u64,
    /// Column accesses that required precharge + activate (row conflict).
    pub row_conflicts: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Read column accesses.
    pub reads: u64,
    /// Write column accesses.
    pub writes: u64,
    /// Bus-direction turnarounds.
    pub turnarounds: u64,
}

impl DdrStats {
    /// Total column accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Bytes transferred.
    pub fn bytes(&self, cfg: &DdrConfig) -> u64 {
        self.accesses() * cfg.bytes_per_access()
    }

    /// Row-hit rate over all accesses (1.0 when there were none).
    pub fn row_hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            1.0
        } else {
            self.row_hits as f64 / n as f64
        }
    }

    /// `f` applied to each counter of `self` and the same one of `other`.
    fn zip(self, other: DdrStats, f: impl Fn(u64, u64) -> u64) -> DdrStats {
        DdrStats {
            row_hits: f(self.row_hits, other.row_hits),
            row_misses: f(self.row_misses, other.row_misses),
            row_conflicts: f(self.row_conflicts, other.row_conflicts),
            refreshes: f(self.refreshes, other.refreshes),
            reads: f(self.reads, other.reads),
            writes: f(self.writes, other.writes),
            turnarounds: f(self.turnarounds, other.turnarounds),
        }
    }
}

/// Counter by counter.
impl std::ops::Add for DdrStats {
    type Output = DdrStats;
    fn add(self, other: DdrStats) -> DdrStats {
        self.zip(other, |a, b| a + b)
    }
}

/// Counter by counter: the counts of a run are its end's minus its start's.
impl std::ops::Sub for DdrStats {
    type Output = DdrStats;
    fn sub(self, other: DdrStats) -> DdrStats {
        self.zip(other, |a, b| a - b)
    }
}

/// Every counter times `k`.
impl std::ops::Mul<u64> for DdrStats {
    type Output = DdrStats;
    fn mul(self, k: u64) -> DdrStats {
        self.zip(self, |a, _| a * k)
    }
}

impl std::fmt::Display for DdrStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accesses={} (r={}, w={}) hits={} misses={} conflicts={} refreshes={} turnarounds={}",
            self.accesses(),
            self.reads,
            self.writes,
            self.row_hits,
            self.row_misses,
            self.row_conflicts,
            self.refreshes,
            self.turnarounds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let stats = DdrStats {
            row_hits: 6,
            row_misses: 2,
            row_conflicts: 2,
            reads: 8,
            writes: 2,
            ..DdrStats::default()
        };
        assert_eq!(stats.accesses(), 10);
        assert_eq!(stats.row_hit_rate(), 0.6);
        assert_eq!(stats.bytes(&DdrConfig::default()), 640);
        assert!(!format!("{stats}").is_empty());
        let more = DdrStats {
            refreshes: 1,
            turnarounds: 3,
            ..stats
        };
        assert_eq!((stats + more) - more, stats);
        assert_eq!(more * 3, more + more + more);
        assert_eq!((more - stats).turnarounds, 3);
    }

    #[test]
    fn empty_stats() {
        let stats = DdrStats::default();
        assert_eq!(stats.accesses(), 0);
        assert_eq!(stats.row_hit_rate(), 1.0);
    }
}
