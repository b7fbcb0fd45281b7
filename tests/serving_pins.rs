//! Output pins for the serving paths no gated output covers.
//!
//! `perf_gate` pins continuous and paged single-board serving, but not
//! speculative serving, lockstep gangs or any cluster run, and their unit
//! tests check only replay equality and totals. Each case here folds its
//! report's `Debug` text and every engine's telemetry snapshot JSON into
//! one FNV-1a hash, so a change to admission, paging, reclaim, step
//! planning or token booking that moves a single latency, counter or
//! outcome moves the pin. Re-record a pin only for a change that is
//! meant to move serving results, and say which one.

use zllm::accel::telemetry::Snapshot;
use zllm::accel::AccelConfig;
use zllm::model::ModelConfig;
use zllm::serve::cluster::{ClusterConfig, ClusterReport, ClusterServer};
use zllm::serve::{
    generate, ArrivalModel, DeadlineClass, PagedConfig, Request, Server, ServerConfig,
    SpeculationConfig, TrafficConfig,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(hash: u64, text: &str) -> u64 {
    text.bytes()
        .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds a report's `Debug` text and the given snapshots' JSON.
fn pin(report: &impl std::fmt::Debug, snapshots: &[Snapshot]) -> u64 {
    snapshots
        .iter()
        .fold(fnv1a(FNV_OFFSET, &format!("{report:?}")), |h, s| {
            fnv1a(h, &s.to_json())
        })
}

fn check(case: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{case}: pin moved to {got:#018x}");
}

fn tiny() -> ModelConfig {
    ModelConfig::tiny_llama_1_1b()
}

/// Short prompts, long generations: speculation and paged growth matter.
fn decode_heavy(requests: usize, rate: f64) -> Vec<Request> {
    generate(&TrafficConfig {
        requests,
        seed: 7,
        arrivals: ArrivalModel::Poisson { rate_per_s: rate },
        prompt_tokens: (8, 16),
        new_tokens: (48, 96),
        class_mix: [0.5, 0.3, 0.2],
        eos_early_fraction: 0.0,
    })
}

/// Flash crowds of mixed prompt lengths: gangs pad and drain.
fn bursty_mixed() -> Vec<Request> {
    generate(&TrafficConfig {
        requests: 16,
        seed: 11,
        arrivals: ArrivalModel::Bursty {
            rate_per_s: 4.0,
            burst: 4,
        },
        prompt_tokens: (8, 48),
        new_tokens: (4, 16),
        class_mix: [0.5, 0.3, 0.2],
        eos_early_fraction: 0.0,
    })
}

/// Every snapshot a cluster run leaves: each pipeline's link and step
/// telemetry, then each of its stage engines.
fn cluster_snapshots(cluster: &ClusterServer, report: &ClusterReport) -> Vec<Snapshot> {
    (0..report.pipelines)
        .flat_map(|p| {
            let engine = cluster.engine(p);
            std::iter::once(engine.metrics_snapshot())
                .chain(engine.stages().iter().map(|s| s.metrics_snapshot()))
        })
        .collect()
}

#[test]
fn speculative_contiguous_serving_is_pinned() {
    let mut accel = AccelConfig::kv260();
    accel.lanes = 4096;
    let cfg = ServerConfig::continuous(128, 4).speculative(SpeculationConfig::new(4, 0.8));
    let mut srv = Server::new(accel, &tiny(), cfg).expect("image fits");
    let report = srv.run(&decode_heavy(8, 50.0));
    assert_eq!(report.completed, 8);
    assert!(report.spec_accepted > 0);
    let got = pin(&report, &[srv.engine().metrics_snapshot()]);
    check("speculative contiguous", got, 0xe978_4161_be35_94ad);
}

#[test]
fn speculative_paged_serving_under_preemption_is_pinned() {
    let paged = PagedConfig {
        page_tokens: 16,
        watermark: 0.9,
    };
    let mut cfg = ServerConfig::continuous(128, 4)
        .paged(paged)
        .speculative(SpeculationConfig::new(4, 0.5));
    let probe = Server::new(AccelConfig::kv260(), &tiny(), cfg.clone()).expect("image fits");
    cfg.kv_budget_bytes = Some(10 * probe.engine().image().kv_page_bytes());
    let mut srv = Server::new(AccelConfig::kv260(), &tiny(), cfg).expect("image fits");
    let report = srv.run(&decode_heavy(12, 2.0));
    assert_eq!(report.preempted, 23, "a ten-page pool must reclaim");
    let got = pin(&report, &[srv.engine().metrics_snapshot()]);
    check("speculative paged", got, 0x9e9a_731a_6b89_36a2);
}

#[test]
fn lockstep_serving_is_pinned() {
    let cfg = ServerConfig::lockstep(128, 4);
    let mut srv = Server::new(AccelConfig::kv260(), &tiny(), cfg).expect("image fits");
    let report = srv.run(&bursty_mixed());
    assert_eq!(report.completed, 16);
    let got = pin(&report, &[srv.engine().metrics_snapshot()]);
    check("lockstep", got, 0x4662_abac_ee6f_0fcb);
}

#[test]
fn paged_cluster_with_admission_reclaim_is_pinned() {
    // Two Batch sequences fill the 0.25 watermark; the Standard arrival
    // waits, and the Interactive ones reclaim pages at admission.
    let req = |id, arrival_s, class| Request {
        id,
        arrival_s,
        prompt_tokens: 40,
        max_new_tokens: 60,
        eos_tokens: None,
        class,
    };
    let trace = [
        req(0, 0.0, DeadlineClass::Batch),
        req(1, 0.0, DeadlineClass::Batch),
        req(2, 0.5, DeadlineClass::Standard),
        req(3, 1.0, DeadlineClass::Interactive),
        req(4, 1.0, DeadlineClass::Interactive),
    ];
    let cfg = ClusterConfig::new(1, 2, 128, 4).paged(PagedConfig {
        page_tokens: 16,
        watermark: 0.25,
    });
    let mut cluster = ClusterServer::new(&AccelConfig::kv260(), &tiny(), cfg).expect("shards fit");
    let report = cluster.run(&trace);
    assert_eq!(report.completed, 5);
    assert_eq!(report.preempted, 2);
    let got = pin(&report, &cluster_snapshots(&cluster, &report));
    check("paged cluster", got, 0x7eae_a498_b710_8cef);
}

#[test]
fn contiguous_cluster_is_pinned() {
    let cfg = ClusterConfig::new(2, 2, 128, 4);
    let mut cluster = ClusterServer::new(&AccelConfig::kv260(), &tiny(), cfg).expect("shards fit");
    let report = cluster.run(&bursty_mixed());
    assert_eq!(report.completed, 16);
    let got = pin(&report, &cluster_snapshots(&cluster, &report));
    check("contiguous cluster", got, 0x85a2_0bb8_3549_70b9);
}
