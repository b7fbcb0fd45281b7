//! Fleet-layer integration tests: the pipeline-parallel cluster must
//! partition the single board's work exactly, price interconnect hops
//! explicitly, and replay request traces bit-identically.

use zllm::accel::{split_layers, AccelConfig, DecodeEngine, EngineConfig, ImageSpec, ModelImage};
use zllm::model::ModelConfig;
use zllm::serve::cluster::{ClusterConfig, ClusterServer, InterconnectConfig, ShardedEngine};
use zllm::serve::{
    generate, ArrivalModel, PagedConfig, PlacementPolicy, Request, Server, ServerConfig,
    TrafficConfig,
};

fn trace(requests: usize, rate: f64) -> Vec<Request> {
    generate(&TrafficConfig {
        requests,
        seed: 7,
        arrivals: ArrivalModel::Poisson { rate_per_s: rate },
        prompt_tokens: (8, 48),
        new_tokens: (4, 16),
        class_mix: [0.5, 0.3, 0.2],
        eos_early_fraction: 0.0,
    })
}

#[test]
fn shard_images_partition_the_7b_board() {
    // The paper's deployment: LLaMA2-7B fills 93.3% of one 4 GB board.
    // Split across 4 boards, each shard must fit with room to spare and
    // the weight bytes must partition exactly — no layer is duplicated,
    // none is dropped.
    let cfg = ModelConfig::llama2_7b();
    let format = zllm::layout::weight::WeightFormat::kv260();
    let full = ModelImage::build(&cfg, format, 1024).expect("one board fits");
    let mut weight_total = 0;
    let mut kv_total = 0;
    for range in split_layers(cfg.n_layers, 4) {
        let spec = ImageSpec {
            layers: Some(range),
            ..ImageSpec::new(1024)
        };
        let shard = ModelImage::from_spec(&cfg, format, &spec).expect("shard fits");
        assert!(shard.occupancy() < full.occupancy());
        weight_total += shard.weight_stream_bytes();
        kv_total += shard.kv_budget_bytes();
    }
    assert_eq!(weight_total, full.weight_stream_bytes());
    assert_eq!(kv_total, full.kv_budget_bytes());
}

#[test]
fn sharded_engine_conserves_ddr_traffic_and_prices_hops() {
    // Four stages move exactly the bytes one board moves — the hops are
    // extra, explicit, and itemized.
    let model = ModelConfig {
        n_layers: 4,
        ..ModelConfig::test_small()
    };
    let slots = ImageSpec {
        batch: 2,
        ..ImageSpec::new(64)
    };
    let single = DecodeEngine::build(
        AccelConfig::kv260(),
        &model,
        EngineConfig::new(slots.clone()),
    )
    .expect("fits");
    let mut fleet = ShardedEngine::new(
        &AccelConfig::kv260(),
        &model,
        slots,
        4,
        InterconnectConfig::aurora_x4(),
    )
    .expect("fits");
    let slots = [(0usize, 10usize), (1, 3)];
    let mode = zllm::accel::config::PipelineMode::Fused;
    let single_bytes =
        zllm::accel::schedule::ragged_token_schedule(single.image(), &slots, mode).total_bytes();
    let fleet_bytes: u64 = fleet
        .stages()
        .iter()
        .map(|e| {
            zllm::accel::schedule::ragged_token_schedule(e.image(), &slots, mode).total_bytes()
        })
        .sum();
    let step = fleet.decode_step(&slots);
    assert_eq!(fleet_bytes, single_bytes, "DDR traffic must partition");
    assert_eq!(
        step.activation_bytes,
        2 * model.d_model as u64 * 2 * 3,
        "2 seqs x fp16 d_model across 3 boundaries"
    );
    assert!(step.fill_ns > step.cadence_ns);
}

#[test]
fn cluster_replay_is_bit_identical() {
    let t = trace(16, 2.0);
    let run = || {
        let mut cluster = ClusterServer::new(
            &AccelConfig::kv260(),
            &ModelConfig::tiny_llama_1_1b(),
            ClusterConfig::new(2, 2, 128, 4),
        )
        .expect("shards fit");
        cluster.run(&t)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "cluster replay must be deterministic");
    assert_eq!(a.offered, 16);
    assert_eq!(
        a.completed + a.rejected_queue_full + a.rejected_infeasible,
        16
    );
}

#[test]
fn fleet_scales_goodput_and_itemizes_link_traffic() {
    // The fleet_sim acceptance shape at integration scale: more boards
    // on one pipeline means proportionally more goodput at saturating
    // load, with every hidden-state hop accounted.
    let t = trace(16, 20.0);
    let run = |depth: usize| {
        let mut cluster = ClusterServer::new(
            &AccelConfig::kv260(),
            &ModelConfig::tiny_llama_1_1b(),
            ClusterConfig::new(1, depth, 128, 4 * depth),
        )
        .expect("shards fit");
        cluster.run(&t)
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.activation_bytes, 0);
    assert!(four.activation_bytes > 0);
    assert!(
        four.goodput_tokens_per_s >= 3.0 * one.goodput_tokens_per_s,
        "4 boards {:.2} goodput vs 1 board {:.2}",
        four.goodput_tokens_per_s,
        one.goodput_tokens_per_s
    );
    assert!(four.ttft_p95_ms < one.ttft_p95_ms);
}

#[test]
fn placement_policies_share_the_same_totals_but_route_differently() {
    let t = trace(24, 10.0);
    let run = |policy| {
        let mut cfg = ClusterConfig::new(2, 1, 128, 4);
        cfg.policy = policy;
        let mut cluster =
            ClusterServer::new(&AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
                .expect("shards fit");
        cluster.run(&t)
    };
    let kv = run(PlacementPolicy::JoinShortestKv);
    let aware = run(PlacementPolicy::DeadlineAware);
    assert_eq!(kv.offered, aware.offered);
    // Both policies must keep every pipeline inside its budget.
    assert!(kv.kv_peak_bytes <= kv.kv_budget_bytes);
    assert!(aware.kv_peak_bytes <= aware.kv_budget_bytes);
}

/// The fields a `ClusterReport` shares with a `ServeReport`, floats by bits.
macro_rules! shared {
    ($r:expr) => {
        (
            [
                $r.offered,
                $r.admitted,
                $r.completed,
                $r.rejected_queue_full,
                $r.rejected_infeasible,
                $r.deadline_met,
                $r.generated_tokens,
                $r.prompt_tokens,
                $r.decode_steps,
                $r.prefill_steps,
                $r.kv_peak_bytes,
                $r.kv_budget_bytes,
                $r.queue_peak as u64,
                $r.concurrent_peak as u64,
                $r.preempted,
            ],
            [
                $r.sim_seconds,
                $r.tokens_per_s,
                $r.goodput_tokens_per_s,
                $r.ttft_p50_ms,
                $r.ttft_p95_ms,
                $r.ttft_p99_ms,
                $r.token_p50_ms,
                $r.token_p95_ms,
            ]
            .map(f64::to_bits),
        )
    };
}

#[test]
fn one_stage_fleet_serves_like_the_board() {
    // The board is a one-pipeline, one-stage fleet: on the same trace it
    // must give the same outcomes, every report field the two share (floats
    // by bits) and the same stage-engine snapshot, less the board's own
    // `serve.*` keys. A decode-heavy Poisson trace with early EOS and a
    // bursty mixed trace whose longest requests overflow the context.
    let decode_heavy = generate(&TrafficConfig {
        requests: 24,
        seed: 7,
        arrivals: ArrivalModel::Poisson { rate_per_s: 4.0 },
        prompt_tokens: (8, 16),
        new_tokens: (48, 96),
        class_mix: [0.5, 0.3, 0.2],
        eos_early_fraction: 0.75,
    });
    let bursty_mixed = generate(&TrafficConfig {
        requests: 24,
        seed: 42,
        arrivals: ArrivalModel::Bursty {
            rate_per_s: 20.0,
            burst: 8,
        },
        prompt_tokens: (16, 96),
        new_tokens: (4, 48),
        class_mix: [0.5, 0.3, 0.2],
        eos_early_fraction: 0.0,
    });
    for paged in [None, Some(PagedConfig::default())] {
        for (name, t) in [
            ("decode-heavy", &decode_heavy),
            ("bursty mixed", &bursty_mixed),
        ] {
            let (mut board_cfg, mut fleet_cfg) = (
                ServerConfig::continuous(128, 4),
                ClusterConfig::new(1, 1, 128, 4),
            );
            board_cfg.paged.clone_from(&paged);
            fleet_cfg.paged.clone_from(&paged);
            let tiny = ModelConfig::tiny_llama_1_1b();
            let mut board = Server::new(AccelConfig::kv260(), &tiny, board_cfg).expect("fits");
            let mut fleet =
                ClusterServer::new(&AccelConfig::kv260(), &tiny, fleet_cfg).expect("fits");
            let (b, f) = (board.run(t), fleet.run(t));
            let case = format!("{name} trace, paged {}", paged.is_some());
            assert_eq!(f.outcomes, b.outcomes, "{case}");
            assert_eq!(shared!(f), shared!(b), "{case}");
            let mut want = board.engine().metrics_snapshot();
            want.counters.retain(|k, _| !k.starts_with("serve."));
            want.gauges.retain(|k, _| !k.starts_with("serve."));
            let got = fleet.engine(0).stages()[0].metrics_snapshot();
            assert_eq!(got.to_json(), want.to_json(), "{case}");
        }
    }
}
