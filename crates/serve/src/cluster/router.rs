//! Request placement across replica pipelines.
//!
//! The cluster router sits *above* the per-pipeline
//! [`AdmissionController`](crate::AdmissionController)s: it only picks
//! which pipeline a request is offered to, and the pipeline's own
//! controller still enforces slots, the KV byte budget and per-class
//! FIFO. That separation is what keeps the cluster-wide safety argument
//! simple — no placement decision can overcommit a board, because every
//! byte is still reserved against a single board's budget before a
//! sequence touches it.

use crate::request::{DeadlineClass, Request};

/// A point-in-time load summary of one pipeline, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineLoad {
    /// KV bytes currently reserved by admitted sequences (bottleneck
    /// stage pricing).
    pub reserved_bytes: u64,
    /// KV bytes the queued-but-unadmitted requests will reserve.
    pub pending_bytes: u64,
    /// The pipeline's KV budget (bottleneck stage).
    pub budget_bytes: u64,
    /// Requests waiting in the admission queue.
    pub queue_depth: usize,
    /// Sequences currently decoding.
    pub active: usize,
}

impl PipelineLoad {
    /// Committed fraction of the KV budget, counting both reservations
    /// and queued demand — the router's primary balance key.
    fn committed(&self) -> u64 {
        self.reserved_bytes + self.pending_bytes
    }

    /// Compares committed/budget fractions without floating point:
    /// `a/b < c/d` iff `a·d < c·b` (budgets are positive).
    fn less_committed_than(&self, other: &PipelineLoad) -> std::cmp::Ordering {
        let lhs = u128::from(self.committed()) * u128::from(other.budget_bytes);
        let rhs = u128::from(other.committed()) * u128::from(self.budget_bytes);
        lhs.cmp(&rhs)
    }
}

/// How the router maps an arriving request onto a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Send every request to the pipeline with the smallest committed
    /// fraction of its KV budget (reservations plus queued demand),
    /// breaking ties by queue depth, then pipeline index. The KV analog
    /// of join-shortest-queue: balances *bytes*, the binding resource.
    JoinShortestKv,
    /// Like [`PlacementPolicy::JoinShortestKv`] for standard and batch
    /// traffic, but interactive requests chase the fewest in-flight
    /// sequences (active plus queued) first — keeping at least one
    /// pipeline lightly loaded keeps TTFT p95 down even when byte
    /// occupancy is balanced.
    DeadlineAware,
}

impl PlacementPolicy {
    /// Display name (bench tables, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::JoinShortestKv => "join-shortest-kv",
            PlacementPolicy::DeadlineAware => "deadline-aware",
        }
    }

    /// Picks the pipeline `request` should be offered to.
    ///
    /// Deterministic: ties always resolve to the lowest pipeline index.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty.
    pub fn place(self, loads: &[PipelineLoad], request: &Request) -> usize {
        assert!(!loads.is_empty(), "cluster has no pipelines");
        let by_kv = |a: &PipelineLoad, b: &PipelineLoad| {
            a.less_committed_than(b)
                .then(a.queue_depth.cmp(&b.queue_depth))
        };
        let key = |a: &PipelineLoad, b: &PipelineLoad| match self {
            PlacementPolicy::JoinShortestKv => by_kv(a, b),
            PlacementPolicy::DeadlineAware => {
                if request.class == DeadlineClass::Interactive {
                    (a.active + a.queue_depth)
                        .cmp(&(b.active + b.queue_depth))
                        .then(by_kv(a, b))
                } else {
                    by_kv(a, b)
                }
            }
        };
        let mut best = 0;
        for i in 1..loads.len() {
            if key(&loads[i], &loads[best]) == std::cmp::Ordering::Less {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(class: DeadlineClass) -> Request {
        Request {
            id: 0,
            arrival_s: 0.0,
            prompt_tokens: 4,
            max_new_tokens: 4,
            eos_tokens: None,
            class,
        }
    }

    fn load(reserved: u64, pending: u64, budget: u64, queue: usize, active: usize) -> PipelineLoad {
        PipelineLoad {
            reserved_bytes: reserved,
            pending_bytes: pending,
            budget_bytes: budget,
            queue_depth: queue,
            active,
        }
    }

    #[test]
    fn join_shortest_kv_balances_fractions_not_bytes() {
        // Pipe 0 holds fewer bytes but a far smaller budget: 50/100 is
        // fuller than 300/1000.
        let loads = [load(50, 0, 100, 0, 1), load(300, 0, 1000, 0, 3)];
        let r = req(DeadlineClass::Standard);
        assert_eq!(PlacementPolicy::JoinShortestKv.place(&loads, &r), 1);
    }

    #[test]
    fn join_shortest_kv_counts_queued_demand_and_breaks_ties_low() {
        // Equal fractions once pending bytes are counted; queue depth
        // then index break the tie.
        let loads = [
            load(40, 10, 100, 2, 1),
            load(30, 20, 100, 1, 1),
            load(50, 0, 100, 1, 1),
        ];
        let r = req(DeadlineClass::Batch);
        assert_eq!(PlacementPolicy::JoinShortestKv.place(&loads, &r), 1);
        let even = [load(10, 0, 100, 0, 0), load(10, 0, 100, 0, 0)];
        assert_eq!(PlacementPolicy::JoinShortestKv.place(&even, &r), 0);
    }

    #[test]
    fn deadline_aware_routes_interactive_to_the_idle_pipe() {
        // Pipe 0 is byte-light but busy; pipe 1 holds more KV with no
        // one in flight. Interactive chases in-flight count; batch
        // still balances bytes.
        let loads = [load(10, 0, 100, 3, 2), load(60, 0, 100, 0, 0)];
        let interactive = req(DeadlineClass::Interactive);
        let batch = req(DeadlineClass::Batch);
        assert_eq!(
            PlacementPolicy::DeadlineAware.place(&loads, &interactive),
            1
        );
        assert_eq!(PlacementPolicy::DeadlineAware.place(&loads, &batch), 0);
    }

    #[test]
    #[should_panic(expected = "no pipelines")]
    fn empty_cluster_panics() {
        PlacementPolicy::JoinShortestKv.place(&[], &req(DeadlineClass::Standard));
    }
}

#[cfg(all(test, feature = "proptest"))]
mod properties {
    use super::*;
    use crate::admission::{AdmissionConfig, AdmissionController, Granted};
    use crate::cluster::{InterconnectConfig, ShardedEngine};
    use proptest::prelude::*;
    use zllm_accel::{AccelConfig, ImageSpec};
    use zllm_model::ModelConfig;

    #[derive(Debug, Clone)]
    enum Op {
        Offer { tokens: usize, class: usize },
        AdmitOne { pipe: usize },
        ReleaseOldest { pipe: usize },
    }

    fn op_strategy(pipes: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (1usize..32, 0usize..3).prop_map(|(tokens, class)| Op::Offer { tokens, class }),
            (0..pipes).prop_map(|pipe| Op::AdmitOne { pipe }),
            (0..pipes).prop_map(|pipe| Op::ReleaseOldest { pipe }),
        ]
    }

    struct Harness {
        engines: Vec<ShardedEngine>,
        admissions: Vec<AdmissionController>,
        live: Vec<Vec<Granted>>,
        pending_bytes: Vec<u64>,
    }

    impl Harness {
        fn new(pipes: usize, depth: usize) -> Harness {
            let model = ModelConfig::test_small();
            let engines: Vec<ShardedEngine> = (0..pipes)
                .map(|_| {
                    ShardedEngine::new(
                        &AccelConfig::kv260(),
                        &model,
                        ImageSpec {
                            batch: 2,
                            ..ImageSpec::new(32)
                        },
                        depth,
                        InterconnectConfig::aurora_x4(),
                    )
                    .expect("test model fits")
                })
                .collect();
            let admissions = engines
                .iter()
                .map(|e| {
                    AdmissionController::new(AdmissionConfig {
                        slots: e.stages()[0].image().batch(),
                        budget_bytes: e.kv_budget_bytes(),
                        queue_cap: 8,
                        starvation_bound_s: 1e9,
                    })
                })
                .collect();
            Harness {
                live: vec![Vec::new(); pipes],
                pending_bytes: vec![0; pipes],
                engines,
                admissions,
            }
        }

        fn loads(&self) -> Vec<PipelineLoad> {
            (0..self.engines.len())
                .map(|i| PipelineLoad {
                    reserved_bytes: self.admissions[i].reserved_bytes(),
                    pending_bytes: self.pending_bytes[i],
                    budget_bytes: self.admissions[i].budget_bytes(),
                    queue_depth: self.admissions[i].queued(),
                    active: self.live[i].len(),
                })
                .collect()
        }

        /// Every board's budget holds on every stage: the live
        /// sequences' per-stage KV demand never exceeds that stage's
        /// provisioned budget. This is the cluster-wide safety property
        /// the bottleneck-stage pricing is supposed to guarantee.
        fn assert_no_stage_overflow(&self) {
            for (pipe, engine) in self.engines.iter().enumerate() {
                for (stage, board) in engine.stages().iter().enumerate() {
                    let demand: u64 = self.live[pipe]
                        .iter()
                        .map(|g| board.image().kv_request_bytes(g.request.total_tokens()))
                        .sum();
                    prop_assert!(
                        demand <= board.image().kv_budget_bytes(),
                        "pipe {pipe} stage {stage}: {demand} > budget"
                    );
                }
            }
        }
    }

    proptest! {
        /// Join-shortest-KV placement over real sharded engines never
        /// admits a sequence set that exceeds ANY board's KV budget on
        /// ANY stage, under arbitrary offer/admit/release interleaving.
        #[test]
        fn join_shortest_kv_never_overflows_any_stage(
            ops in proptest::collection::vec(op_strategy(2), 1..80),
        ) {
            let mut h = Harness::new(2, 2);
            let mut now = 0.0;
            let mut next_id = 0usize;
            for op in ops {
                now += 0.25;
                match op {
                    Op::Offer { tokens, class } => {
                        let request = Request {
                            id: next_id,
                            arrival_s: now,
                            prompt_tokens: tokens.max(2) / 2,
                            max_new_tokens: tokens - tokens.max(2) / 2,
                            eos_tokens: None,
                            class: DeadlineClass::ALL[class],
                        };
                        next_id += 1;
                        if request.prompt_tokens == 0 || request.max_new_tokens == 0 {
                            continue;
                        }
                        let pipe =
                            PlacementPolicy::JoinShortestKv.place(&h.loads(), &request);
                        let bytes =
                            h.engines[pipe].kv_request_bytes(request.total_tokens());
                        if h.admissions[pipe].offer(request, bytes, now).is_ok() {
                            h.pending_bytes[pipe] += bytes;
                        }
                    }
                    Op::AdmitOne { pipe } => {
                        if let Some(g) = h.admissions[pipe].try_admit(now) {
                            h.pending_bytes[pipe] -= g.bytes;
                            h.live[pipe].push(g);
                        }
                    }
                    Op::ReleaseOldest { pipe } => {
                        if !h.live[pipe].is_empty() {
                            let g = h.live[pipe].remove(0);
                            h.admissions[pipe].release(g.slot, g.bytes);
                        }
                    }
                }
                h.assert_no_stage_overflow();
            }
        }

        /// Deadline-aware placement preserves the per-pipeline admission
        /// guarantees: within each (pipeline, class) pair requests admit
        /// strictly in offer order, and no stage budget is ever burst.
        #[test]
        fn deadline_aware_preserves_per_class_fifo(
            ops in proptest::collection::vec(op_strategy(3), 1..80),
        ) {
            let mut h = Harness::new(3, 2);
            let mut now = 0.0;
            let mut next_id = 0usize;
            // Offer order per (pipe, class); admit order must match it.
            let mut offered: Vec<[Vec<usize>; 3]> =
                vec![Default::default(); h.engines.len()];
            let mut admitted: Vec<[usize; 3]> = vec![[0; 3]; h.engines.len()];
            for op in ops {
                now += 0.25;
                match op {
                    Op::Offer { tokens, class } => {
                        let request = Request {
                            id: next_id,
                            arrival_s: now,
                            prompt_tokens: 1,
                            max_new_tokens: tokens,
                            eos_tokens: None,
                            class: DeadlineClass::ALL[class],
                        };
                        next_id += 1;
                        let pipe =
                            PlacementPolicy::DeadlineAware.place(&h.loads(), &request);
                        let bytes =
                            h.engines[pipe].kv_request_bytes(request.total_tokens());
                        let id = request.id;
                        if h.admissions[pipe].offer(request, bytes, now).is_ok() {
                            h.pending_bytes[pipe] += bytes;
                            offered[pipe][class].push(id);
                        }
                    }
                    Op::AdmitOne { pipe } => {
                        if let Some(g) = h.admissions[pipe].try_admit(now) {
                            h.pending_bytes[pipe] -= g.bytes;
                            let c = g.request.class.priority();
                            // FIFO within (pipe, class): the admitted id
                            // is exactly the next one offered there.
                            let expect = offered[pipe][c][admitted[pipe][c]];
                            prop_assert_eq!(
                                g.request.id, expect,
                                "pipe {} class {} admitted out of order", pipe, c
                            );
                            admitted[pipe][c] += 1;
                            h.live[pipe].push(g);
                        }
                    }
                    Op::ReleaseOldest { pipe } => {
                        if !h.live[pipe].is_empty() {
                            let g = h.live[pipe].remove(0);
                            h.admissions[pipe].release(g.slot, g.bytes);
                        }
                    }
                }
                h.assert_no_stage_overflow();
            }
        }
    }
}
