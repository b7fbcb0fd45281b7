//! Minimal serving-layer demo: admit a small burst of requests, run the
//! continuous-batching server, and print each request's time-to-first-
//! token and per-token latency.
//!
//! ```text
//! cargo run --release --example server_demo
//! ```

use zllm::accel::AccelConfig;
use zllm::model::ModelConfig;
use zllm::serve::{generate, ArrivalModel, BatchingMode, Server, ServerConfig, TrafficConfig};

fn main() {
    let cfg = ServerConfig::continuous(128, 4);
    let mut server = Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
        .expect("TinyLlama-1.1B with 4 KV provisions fits the 4GB device");
    let trace = generate(&TrafficConfig::default_mix(
        10,
        7,
        ArrivalModel::Bursty {
            rate_per_s: 1.0,
            burst: 5,
        },
    ));

    println!("continuous-batching server: TinyLlama-1.1B on DDR4-2400, 4 KV slots");
    println!(
        "KV budget {:.1} MiB, {} requests in bursts of 5 at 1 req/s\n",
        server.kv_budget_bytes() as f64 / (1024.0 * 1024.0),
        trace.len()
    );

    let report = server.run(&trace);
    assert_eq!(report.mode, BatchingMode::Continuous);

    println!("  id  class        prompt  new   TTFT (s)  tok mean (s)  tok max (s)  status");
    for o in &report.outcomes {
        let r = &o.request;
        let status = match o.dropped {
            Some(reason) => format!("dropped ({reason:?})"),
            None if o.deadline_met() => "met deadline".to_owned(),
            None => "late".to_owned(),
        };
        println!(
            "  {:>2}  {:<11}  {:>5}  {:>3}  {:>8}  {:>12}  {:>11}  {status}",
            r.id,
            r.class.name(),
            r.prompt_tokens,
            r.max_new_tokens,
            o.ttft_s().map_or("—".to_owned(), |t| format!("{t:.2}")),
            o.mean_token_latency_s()
                .map_or("—".to_owned(), |t| format!("{t:.3}")),
            if o.generated >= 2 {
                format!("{:.3}", o.token_latency_max_s)
            } else {
                "—".to_owned()
            },
        );
    }
    println!(
        "\n{} completed / {} offered, {:.2} tok/s aggregate, {:.2} tok/s goodput",
        report.completed, report.offered, report.tokens_per_s, report.goodput_tokens_per_s
    );
    println!(
        "TTFT p50/p95 {:.2}/{:.2} s, token p50/p95 {:.3}/{:.3} s, peak KV {:.1} MiB of {:.1} MiB",
        report.ttft_p50_ms / 1e3,
        report.ttft_p95_ms / 1e3,
        report.token_p50_ms / 1e3,
        report.token_p95_ms / 1e3,
        report.kv_peak_bytes as f64 / (1024.0 * 1024.0),
        report.kv_budget_bytes as f64 / (1024.0 * 1024.0),
    );
}
