//! The request/sequence lifecycle model.
//!
//! A [`Request`] is what a client submits: it arrives at a point in
//! virtual time, carries a prompt, asks for a bounded number of new
//! tokens, and belongs to a [`DeadlineClass`] that defines when its
//! answer stops being useful. A [`RequestOutcome`] is the full audit
//! record the simulator emits for it.

/// Service class of a request: how quickly its tokens must arrive for
/// the work to count as *goodput*.
///
/// The budgets are calibrated to the edge regime this repository prices
/// — a ~5 token/s LLaMA2-7B on the KV260, where prefill runs through the
/// same bandwidth-bound vector engine as decode — not to datacenter
/// latencies. They order the classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeadlineClass {
    /// A user watching the tokens stream: tight TTFT and per-token
    /// budgets.
    Interactive,
    /// A user waiting for a short answer: relaxed but bounded.
    Standard,
    /// Offline work (summarization queues, batch jobs): hours-scale
    /// patience; effectively only throughput matters.
    Batch,
}

impl DeadlineClass {
    /// All classes, highest priority first.
    pub const ALL: [DeadlineClass; 3] = [
        DeadlineClass::Interactive,
        DeadlineClass::Standard,
        DeadlineClass::Batch,
    ];

    /// Scheduling priority: lower is served first.
    pub fn priority(self) -> usize {
        match self {
            DeadlineClass::Interactive => 0,
            DeadlineClass::Standard => 1,
            DeadlineClass::Batch => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Standard => "standard",
            DeadlineClass::Batch => "batch",
        }
    }

    /// Time-to-first-token budget in seconds.
    pub fn ttft_deadline_s(self) -> f64 {
        match self {
            DeadlineClass::Interactive => 30.0,
            DeadlineClass::Standard => 120.0,
            DeadlineClass::Batch => 1800.0,
        }
    }

    /// Mean per-token latency budget in seconds (measured over the
    /// decode phase, first token excluded).
    pub fn token_deadline_s(self) -> f64 {
        match self {
            DeadlineClass::Interactive => 1.0,
            DeadlineClass::Standard => 2.5,
            DeadlineClass::Batch => 10.0,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Stable identifier (trace order).
    pub id: usize,
    /// Arrival time in virtual seconds.
    pub arrival_s: f64,
    /// Prompt length in tokens (> 0).
    pub prompt_tokens: usize,
    /// New tokens to generate (> 0). This is the client's *cap*: the
    /// most the request may produce, and therefore what worst-case
    /// admission must reserve.
    pub max_new_tokens: usize,
    /// Where generation actually stops (the model emits EOS), if
    /// before the cap. Admission never sees this — no server knows a
    /// sequence's real length up front — but the decode loop does,
    /// and the gap between cap and reality is exactly what
    /// actual-growth KV charging converts into extra concurrency.
    pub eos_tokens: Option<usize>,
    /// Deadline class.
    pub class: DeadlineClass,
}

impl Request {
    /// Total KV positions this request will occupy when fully decoded —
    /// the worst-case footprint admission must reserve.
    pub fn total_tokens(&self) -> usize {
        self.prompt_tokens + self.max_new_tokens
    }

    /// New tokens the decode loop will actually produce: the EOS point
    /// when one is scripted (clamped into `1..=max_new_tokens`), the
    /// cap otherwise.
    pub fn decode_tokens(&self) -> usize {
        self.eos_tokens
            .map_or(self.max_new_tokens, |e| e.clamp(1, self.max_new_tokens))
    }
}

/// Why a request never produced tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The admission queue was full when it arrived.
    QueueFull,
    /// The request could never fit (prompt + new tokens beyond the
    /// per-sequence context capacity, or KV footprint beyond the whole
    /// budget) — admission rejects it immediately rather than letting it
    /// starve the queue.
    Infeasible,
}

/// The audit record of one request's trip through the server.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The request.
    pub request: Request,
    /// When admission granted it a slot (None if rejected).
    pub admitted_s: Option<f64>,
    /// When its first generated token completed (None if rejected).
    pub first_token_s: Option<f64>,
    /// When its last token completed (None if rejected).
    pub finish_s: Option<f64>,
    /// Tokens actually generated.
    pub generated: usize,
    /// Sum of decode-step latencies attributed to this request (first
    /// token excluded), seconds.
    pub token_latency_sum_s: f64,
    /// Largest single decode-step latency (first token excluded), seconds.
    pub token_latency_max_s: f64,
    /// Why it was dropped, if it was.
    pub dropped: Option<DropReason>,
}

impl RequestOutcome {
    /// Time to first token, seconds.
    pub fn ttft_s(&self) -> Option<f64> {
        self.first_token_s.map(|t| t - self.request.arrival_s)
    }

    /// Mean decode-phase per-token latency, seconds (None until at least
    /// two tokens exist).
    pub fn mean_token_latency_s(&self) -> Option<f64> {
        if self.generated >= 2 {
            Some(self.token_latency_sum_s / (self.generated - 1) as f64)
        } else {
            None
        }
    }

    /// Whether the request completed within its class deadlines: TTFT in
    /// budget and mean per-token latency in budget (single-token answers
    /// only need the TTFT).
    pub fn deadline_met(&self) -> bool {
        let class = self.request.class;
        match self.ttft_s() {
            Some(ttft) if self.generated >= self.request.decode_tokens() => {
                ttft <= class.ttft_deadline_s()
                    && self
                        .mean_token_latency_s()
                        .is_none_or(|m| m <= class.token_deadline_s())
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_order_by_priority_and_budget() {
        let mut last = 0.0;
        for (i, c) in DeadlineClass::ALL.iter().enumerate() {
            assert_eq!(c.priority(), i);
            assert!(c.ttft_deadline_s() > last);
            last = c.ttft_deadline_s();
        }
    }

    #[test]
    fn outcome_deadline_logic() {
        let req = Request {
            id: 0,
            arrival_s: 10.0,
            prompt_tokens: 8,
            max_new_tokens: 4,
            eos_tokens: None,
            class: DeadlineClass::Interactive,
        };
        let ok = RequestOutcome {
            request: req.clone(),
            admitted_s: Some(10.0),
            first_token_s: Some(12.0),
            finish_s: Some(13.5),
            generated: 4,
            token_latency_sum_s: 1.5,
            token_latency_max_s: 0.6,
            dropped: None,
        };
        assert_eq!(ok.ttft_s(), Some(2.0));
        assert_eq!(ok.mean_token_latency_s(), Some(0.5));
        assert!(ok.deadline_met());
        let late = RequestOutcome {
            first_token_s: Some(41.0),
            ..ok.clone()
        };
        assert!(!late.deadline_met(), "a 31 s TTFT misses the 30 s budget");
        let dropped = RequestOutcome {
            first_token_s: None,
            generated: 0,
            dropped: Some(DropReason::QueueFull),
            ..ok.clone()
        };
        assert!(!dropped.deadline_met());
        // An early EOS finishes (and can meet its deadline) below the
        // cap, and out-of-range scripted values clamp into it.
        let early = RequestOutcome {
            request: Request {
                eos_tokens: Some(2),
                ..ok.request.clone()
            },
            generated: 2,
            token_latency_sum_s: 0.5,
            ..ok
        };
        assert_eq!(early.request.decode_tokens(), 2);
        assert!(early.deadline_met());
        assert_eq!(
            Request {
                eos_tokens: Some(0),
                ..early.request.clone()
            }
            .decode_tokens(),
            1
        );
        assert_eq!(
            Request {
                eos_tokens: Some(99),
                ..early.request
            }
            .decode_tokens(),
            4
        );
    }
}
