//! The unified telemetry registry every simulated component publishes
//! into.
//!
//! The paper's headline claim is a *number* — 84.5 % of the 19.2 GB/s
//! DDR4 roofline — so this repo lives or dies by whether its simulated
//! bandwidth and latency figures stay correct as the codebase grows.
//! Before this crate, the counters behind Tables II/III were scattered:
//! `DdrStats` in the DDR crate, `TokenReport` in the trace engine, ad-hoc
//! prints in the figure binaries. Nothing machine-checked them.
//!
//! [`MetricsRegistry`] centralizes them as named, hierarchical metrics
//! (`ddr.row_hits`, `pipeline.attn.bubble_cycles`,
//! `decode.bandwidth_util`, ...). Components hold cheap shared
//! [`Counter`]/[`Gauge`] handles and bump them on hot paths; the legacy
//! structs remain as thin *views* over the registry. A [`Snapshot`] can
//! be exported as deterministic JSON (hand-rolled — the build works with
//! no external dependencies) and compared against a committed baseline
//! with per-metric tolerances, which is exactly what the `perf_gate` CI
//! binary does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

mod json;

pub use json::JsonError;

/// A monotonically increasing `u64` metric. Cloning shares the underlying
/// cell, so a component and the registry observe the same value.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    /// A counter not (yet) attached to any registry.
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.get()
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.cell.set(0);
    }
}

/// A last-value-wins `f64` metric (rates, utilizations, times).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Rc<Cell<f64>>,
}

impl Gauge {
    /// A gauge not (yet) attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Stores a value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.set(v);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.cell.get()
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.cell.set(0.0);
    }
}

/// The registry: a flat namespace of dot-separated hierarchical metric
/// names, each owning a shared counter or gauge cell.
///
/// # Example
///
/// ```
/// use zllm_telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// let hits = reg.counter("ddr.row_hits");
/// hits.add(3);
/// assert_eq!(reg.snapshot().counter("ddr.row_hits"), Some(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it at zero
    /// on first use. The returned handle shares state with the registry.
    pub fn counter(&mut self, name: &str) -> Counter {
        handle(&mut self.counters, name)
    }

    /// Returns the gauge registered under `name`, creating it at zero on
    /// first use.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        handle(&mut self.gauges, name)
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(Counter::get)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Zeroes every metric, keeping registrations (and outstanding
    /// handles) intact.
    pub fn reset(&mut self) {
        for c in self.counters.values() {
            c.reset();
        }
        for g in self.gauges.values() {
            g.reset();
        }
    }

    /// Folds a snapshot in: counters add, gauges take the incoming value.
    /// Metrics absent from this registry are created.
    pub fn merge(&mut self, snap: &Snapshot) {
        for (name, &v) in &snap.counters {
            self.counter(name).add(v);
        }
        for (name, &v) in &snap.gauges {
            self.gauge(name).set(v);
        }
    }

    /// A point-in-time copy of every metric value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
        }
    }
}

/// The metric registered under `name` in `map`, created at its default on
/// first use. A registered name is found without allocating; only a new
/// one is copied into the map.
fn handle<T: Clone + Default>(map: &mut BTreeMap<String, T>, name: &str) -> T {
    match map.get(name) {
        Some(metric) => metric.clone(),
        None => map.entry(name.to_owned()).or_default().clone(),
    }
}

/// An immutable point-in-time capture of a [`MetricsRegistry`], ordered
/// by name (both maps are `BTreeMap`s), hence deterministic to serialize.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Every metric as `(name, kind, value-as-f64)`, counters first.
    pub fn entries(&self) -> impl Iterator<Item = (&str, MetricKind, f64)> {
        self.counters
            .iter()
            .map(|(k, &v)| (k.as_str(), MetricKind::Counter, v as f64))
            .chain(
                self.gauges
                    .iter()
                    .map(|(k, &v)| (k.as_str(), MetricKind::Gauge, v)),
            )
    }

    /// Serializes as deterministic, human-diffable JSON: keys sorted,
    /// two-space indent, shortest-roundtrip float formatting.
    pub fn to_json(&self) -> String {
        json::snapshot_to_json(self)
    }

    /// Parses a snapshot produced by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first malformed construct.
    pub fn from_json(text: &str) -> Result<Snapshot, JsonError> {
        json::snapshot_from_json(text)
    }

    /// Compares `current` against this baseline. `tolerance` maps a
    /// metric name to its allowed relative deviation (0.0 = exact).
    /// Metrics missing on either side fail the comparison.
    pub fn compare(&self, current: &Snapshot, tolerance: impl Fn(&str) -> f64) -> CompareReport {
        let mut diffs = Vec::new();
        let mut keys: Vec<(&str, MetricKind)> = self
            .entries()
            .map(|(k, kind, _)| (k, kind))
            .chain(current.entries().map(|(k, kind, _)| (k, kind)))
            .collect();
        keys.sort_unstable();
        keys.dedup();

        for (name, kind) in keys {
            let base = match kind {
                MetricKind::Counter => self.counter(name).map(|v| v as f64),
                MetricKind::Gauge => self.gauge(name),
            };
            let cur = match kind {
                MetricKind::Counter => current.counter(name).map(|v| v as f64),
                MetricKind::Gauge => current.gauge(name),
            };
            let tol = tolerance(name);
            let (status, rel) = match (base, cur) {
                (None, _) => (DiffStatus::NotInBaseline, f64::NAN),
                (_, None) => (DiffStatus::Missing, f64::NAN),
                (Some(b), Some(c)) => {
                    let rel = if b == c {
                        0.0
                    } else if b == 0.0 {
                        f64::INFINITY
                    } else {
                        (c - b).abs() / b.abs()
                    };
                    let ok = rel.is_finite() && rel <= tol + 1e-12;
                    (
                        if ok {
                            DiffStatus::Ok
                        } else {
                            DiffStatus::Regressed
                        },
                        rel,
                    )
                }
            };
            diffs.push(MetricDiff {
                name: name.to_owned(),
                kind,
                baseline: base,
                current: cur,
                rel_delta: rel,
                tolerance: tol,
                status,
            });
        }
        CompareReport { diffs }
    }
}

/// Counter or gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonic integer count.
    Counter,
    /// Instantaneous float value.
    Gauge,
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        })
    }
}

/// Per-metric outcome of a baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within tolerance.
    Ok,
    /// Deviation exceeds the tolerance.
    Regressed,
    /// Present in the baseline but not in the current run.
    Missing,
    /// Present in the current run but not in the baseline (needs a
    /// re-bless).
    NotInBaseline,
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Metric name.
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Baseline value (as f64), if present.
    pub baseline: Option<f64>,
    /// Current value (as f64), if present.
    pub current: Option<f64>,
    /// |current − baseline| / |baseline| (NaN when either side missing).
    pub rel_delta: f64,
    /// Allowed relative deviation.
    pub tolerance: f64,
    /// Outcome.
    pub status: DiffStatus,
}

impl MetricDiff {
    /// Whether this metric passes the gate.
    pub fn ok(&self) -> bool {
        self.status == DiffStatus::Ok
    }
}

/// Outcome of [`Snapshot::compare`].
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-metric rows, sorted by name.
    pub diffs: Vec<MetricDiff>,
}

impl CompareReport {
    /// Whether every metric passed.
    pub fn passed(&self) -> bool {
        self.diffs.iter().all(MetricDiff::ok)
    }

    /// The failing rows.
    pub fn failures(&self) -> impl Iterator<Item = &MetricDiff> {
        self.diffs.iter().filter(|d| !d.ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_with_registry() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter_value("a.b"), Some(5));
        // Second lookup returns the same cell.
        reg.counter("a.b").inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("a.rate");
        g.set(2.5);
        assert_eq!(reg.snapshot().gauges.get("a.rate"), Some(&2.5));
        reg.gauge("a.rate").set(3.0);
        assert_eq!(g.get(), 3.0);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        c.add(10);
        g.set(1.0);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        // Handles still live.
        c.inc();
        assert_eq!(reg.counter_value("x"), Some(1));
    }

    #[test]
    fn merge_adds_counters_and_overwrites_gauges() {
        let mut a = MetricsRegistry::new();
        a.counter("n").add(3);
        a.gauge("r").set(1.0);
        let mut b = MetricsRegistry::new();
        b.counter("n").add(4);
        b.counter("only_b").add(1);
        b.gauge("r").set(9.0);
        a.merge(&b.snapshot());
        assert_eq!(a.counter_value("n"), Some(7));
        assert_eq!(a.counter_value("only_b"), Some(1));
        assert_eq!(a.snapshot().gauges.get("r"), Some(&9.0));
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let mut reg = MetricsRegistry::new();
        // Insert out of order; snapshot must sort.
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("m.mid").set(0.5);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        let names: Vec<&str> = s1.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.first", "z.last"]);
    }

    #[test]
    fn compare_flags_each_status() {
        let mut base = MetricsRegistry::new();
        base.counter("exact").add(100);
        base.counter("gone").add(1);
        base.gauge("rate").set(10.0);
        let baseline = base.snapshot();

        let mut cur = MetricsRegistry::new();
        cur.counter("exact").add(101); // 1% off an exact metric
        cur.counter("new").add(1);
        cur.gauge("rate").set(10.1); // 1% off, within 2%
        let current = cur.snapshot();

        let report = baseline.compare(&current, |name| if name == "rate" { 0.02 } else { 0.0 });
        assert!(!report.passed());
        let by_name = |n: &str| report.diffs.iter().find(|d| d.name == n).expect("diff row");
        assert_eq!(by_name("exact").status, DiffStatus::Regressed);
        assert_eq!(by_name("gone").status, DiffStatus::Missing);
        assert_eq!(by_name("new").status, DiffStatus::NotInBaseline);
        assert_eq!(by_name("rate").status, DiffStatus::Ok);
    }

    #[test]
    fn compare_passes_identical_snapshots() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a").add(42);
        reg.gauge("b").set(4.9);
        let snap = reg.snapshot();
        let report = snap.compare(&snap.clone(), |_| 0.0);
        assert!(report.passed());
        assert_eq!(report.failures().count(), 0);
    }

    #[test]
    fn zero_baseline_with_nonzero_current_regresses() {
        let mut base = MetricsRegistry::new();
        base.counter("c").add(0);
        let mut cur = MetricsRegistry::new();
        cur.counter("c").add(5);
        let report = base.snapshot().compare(&cur.snapshot(), |_| 0.02);
        assert!(!report.passed());
    }
}
