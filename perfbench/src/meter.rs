//! Host-time measurement from outside the library: a set-up clock, a
//! measured-section clock, and an in-memory span recorder for the traced
//! run.
//!
//! Spans are recorded only around calls into the library's public
//! functions; nothing inside the library is instrumented. With tracing
//! off, [`Meter::span`] is a plain call.

use crate::{reference_kernel_ms, Timed};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the meter was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-call name, e.g. `engine.step`.
    pub name: &'static str,
    /// Start, ns since the meter's origin.
    pub start_ns: u64,
    /// End, ns since the meter's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Clocks and spans of one workload pass.
#[derive(Debug)]
pub struct Meter {
    trace: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    setup_samples: Vec<Timed>,
    measured_s: f64,
    excluded_s: f64,
    measuring: bool,
}

impl Meter {
    /// A fresh meter; `trace` turns span recording on.
    pub fn new(trace: bool) -> Meter {
        Meter {
            trace,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            setup_samples: Vec::new(),
            measured_s: 0.0,
            excluded_s: 0.0,
            measuring: false,
        }
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Runs the workload's set-up `reps` times, timing each as one
    /// `setup_s` sample, and returns the last result. Cheap set-ups repeat
    /// so that their median is taken over enough samples to be steady.
    pub fn setup<R>(&mut self, reps: usize, mut f: impl FnMut(&mut Meter) -> R) -> R {
        assert!(reps > 0, "set up at least once");
        let mut last = None;
        for _ in 0..reps {
            let (r, timed) = self.time(&mut f);
            last = Some(r);
            self.setup_samples.push(timed);
        }
        last.expect("reps > 0")
    }

    /// Runs the reference kernel, then times `f`. The kernel's own time
    /// is left out of `host_s`.
    pub fn time<R>(&mut self, f: impl FnOnce(&mut Meter) -> R) -> (R, Timed) {
        let k = Instant::now();
        let kernel_ms = reference_kernel_ms();
        if self.measuring {
            self.excluded_s += k.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        let r = f(self);
        let secs = t.elapsed().as_secs_f64();
        (
            r,
            Timed {
                secs,
                kernel_ms: Some(kernel_ms),
            },
        )
    }

    /// Runs the measured part of the workload: its wall time, less any
    /// replay spans and reference kernels inside it, counts toward
    /// `host_s`.
    pub fn measured<R>(&mut self, f: impl FnOnce(&mut Meter) -> R) -> R {
        assert!(!self.measuring, "measured sections do not nest");
        self.measuring = true;
        let t = Instant::now();
        let r = f(self);
        self.measured_s += t.elapsed().as_secs_f64();
        self.measuring = false;
        r
    }

    /// Runs `f` inside a span named `name` (a plain call when tracing is
    /// off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Meter) -> R) -> R {
        if !self.trace {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Runs attribution work the traced pass adds beside a layer call (a
    /// replay of the same work through a fresh model) inside a span. Its
    /// time is not the workload's, so it is left out of `host_s`.
    pub fn replay<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Meter) -> R) -> R {
        assert!(self.trace, "replays run only in the traced pass");
        let t = Instant::now();
        let r = self.span(name, f);
        if self.measuring {
            self.excluded_s += t.elapsed().as_secs_f64();
        }
        r
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Each set-up's wall time so far.
    pub fn setup_samples(&self) -> &[Timed] {
        &self.setup_samples
    }

    /// Measured wall time so far, replays and reference kernels excluded,
    /// seconds.
    pub fn host_s(&self) -> f64 {
        self.measured_s - self.excluded_s
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Total duration of the spans named `name` per set-up, seconds.
    pub fn per_setup_s(&self, name: &str) -> f64 {
        self.total_s(name) / self.setup_samples.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn untraced_meter_records_no_spans_but_keeps_clocks() {
        let mut m = Meter::new(false);
        m.setup(3, |m| {
            m.span("image.build", |_| std::hint::black_box(1 + 1))
        });
        m.measured(|m| m.span("engine.step", |_| ()));
        assert!(m.spans().is_empty());
        assert_eq!(m.setup_samples().len(), 3);
        assert!(m.host_s() >= 0.0);
    }

    #[test]
    fn spans_nest_and_replays_stay_out_of_host_time() {
        let mut m = Meter::new(true);
        m.measured(|m| {
            m.span("serve.run", |m| {
                m.span("engine.step", |_| {
                    std::thread::sleep(Duration::from_millis(2))
                })
            });
            m.replay("ddr.price", |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        assert_eq!(m.spans()[0].parent, None);
        assert_eq!(m.spans()[1].parent, Some(0));
        assert!(m.total_s("engine.step") >= 0.002);
        assert!(m.total_s("ddr.price") >= 0.02);
        assert!(m.host_s() < m.total_s("ddr.price"));
    }
}
