//! Telemetry handles for the DDR controller.
//!
//! The controller publishes into a shared [`MetricsRegistry`] through a
//! set of pre-resolved [`Counter`] handles — the hot path (`access()` runs
//! tens of millions of times per decoded token on a 7B model) bumps a
//! `Cell` directly and never performs a name lookup. [`DdrStats`] remains
//! the public value-type view: [`DdrCounters::view`] materializes it from
//! the live counters at any time.

use crate::stats::DdrStats;
use zllm_telemetry::{Counter, MetricsRegistry};

/// The controller's counter handles, either registered under a prefix in
/// a [`MetricsRegistry`] or detached (free-standing cells).
///
/// Cloning shares the underlying cells — a clone observes and contributes
/// to the same totals.
#[derive(Debug, Clone)]
pub struct DdrCounters {
    /// Accesses that hit an open row.
    pub row_hits: Counter,
    /// Accesses that opened a row in an idle bank.
    pub row_misses: Counter,
    /// Accesses that had to close another row first.
    pub row_conflicts: Counter,
    /// Refresh operations performed.
    pub refreshes: Counter,
    /// Read accesses.
    pub reads: Counter,
    /// Write accesses.
    pub writes: Counter,
    /// Bus turnaround penalties paid.
    pub turnarounds: Counter,
}

impl DdrCounters {
    /// Free-standing counters, not visible in any registry. Used by
    /// controllers constructed without telemetry.
    pub fn detached() -> DdrCounters {
        DdrCounters {
            row_hits: Counter::detached(),
            row_misses: Counter::detached(),
            row_conflicts: Counter::detached(),
            refreshes: Counter::detached(),
            reads: Counter::detached(),
            writes: Counter::detached(),
            turnarounds: Counter::detached(),
        }
    }

    /// Registers the full counter set under `prefix` (e.g. `"ddr.port0"`
    /// yields `ddr.port0.row_hits`, `ddr.port0.reads`, ...).
    pub fn register(reg: &mut MetricsRegistry, prefix: &str) -> DdrCounters {
        let name = |leaf: &str| format!("{prefix}.{leaf}");
        DdrCounters {
            row_hits: reg.counter(&name("row_hits")),
            row_misses: reg.counter(&name("row_misses")),
            row_conflicts: reg.counter(&name("row_conflicts")),
            refreshes: reg.counter(&name("refreshes")),
            reads: reg.counter(&name("reads")),
            writes: reg.counter(&name("writes")),
            turnarounds: reg.counter(&name("turnarounds")),
        }
    }

    /// Adds each counter of `delta` to the live counter of the same name.
    pub(crate) fn add(&self, delta: DdrStats) {
        self.row_hits.add(delta.row_hits);
        self.row_misses.add(delta.row_misses);
        self.row_conflicts.add(delta.row_conflicts);
        self.refreshes.add(delta.refreshes);
        self.reads.add(delta.reads);
        self.writes.add(delta.writes);
        self.turnarounds.add(delta.turnarounds);
    }

    /// Materializes the classic [`DdrStats`] value from the live counters.
    pub fn view(&self) -> DdrStats {
        DdrStats {
            row_hits: self.row_hits.get(),
            row_misses: self.row_misses.get(),
            row_conflicts: self.row_conflicts.get(),
            refreshes: self.refreshes.get(),
            reads: self.reads.get(),
            writes: self.writes.get(),
            turnarounds: self.turnarounds.get(),
        }
    }
}

impl Default for DdrCounters {
    fn default() -> DdrCounters {
        DdrCounters::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_counters_start_at_zero() {
        let c = DdrCounters::detached();
        assert_eq!(c.view(), DdrStats::default());
    }

    #[test]
    fn registered_counters_appear_under_prefix() {
        let mut reg = MetricsRegistry::new();
        let c = DdrCounters::register(&mut reg, "ddr.port0");
        c.row_hits.add(7);
        c.writes.inc();
        assert_eq!(reg.counter_value("ddr.port0.row_hits"), Some(7));
        assert_eq!(reg.counter_value("ddr.port0.writes"), Some(1));
        assert_eq!(reg.counter_value("ddr.port0.reads"), Some(0));
        let view = c.view();
        assert_eq!(view.row_hits, 7);
        assert_eq!(view.writes, 1);
    }

    #[test]
    fn clones_share_cells() {
        let a = DdrCounters::detached();
        let b = a.clone();
        b.reads.add(3);
        assert_eq!(a.view().reads, 3);
    }
}
