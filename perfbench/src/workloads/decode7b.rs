//! `decode7b`: the paper's Table II point. LLaMA2-7B on the KV260, one
//! sequence, closed loop, token by token across a spread of contexts in
//! `[0, 1024)` — Table II samples the same generation. DDR pricing of the
//! long read-only weight streams is nearly all of its host time.

use super::{single_sequence_pass, Scale, CTX_END};
use crate::meter::Meter;
use crate::Pass;
use zllm_accel::{AccelConfig, DecodeEngine};
use zllm_baselines::published::ours_reported;
use zllm_baselines::{table2_rows, OursResult};
use zllm_model::ModelConfig;

/// Slices of the generation, one run of tokens each (Table II samples
/// eight contexts).
const SEGMENTS: usize = 8;

pub(super) fn pass(seed: u64, scale: Scale, meter: &mut Meter) -> Pass {
    let run = match scale {
        Scale::Full => 2,
        Scale::Tiny => 1,
    };
    let (mut pass, tok_s) = single_sequence_pass(seed, meter, SEGMENTS, run, |m| {
        m.span("image.build", |_| {
            DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::llama2_7b(), CTX_END)
                .expect("LLaMA2-7B fits the 4 GB device")
        })
    });
    pass.sim.insert("util_err_pp", util_err_pp(tok_s));
    pass
}

/// `|util − 84.5 %|` in percentage points, with utilization computed
/// exactly as the `table2` binary's "Ours" row computes it.
fn util_err_pp(tokens_per_s: f64) -> f64 {
    let ours = table2_rows(OursResult { tokens_per_s })
        .into_iter()
        .find(|r| r.name == "Ours")
        .expect("Table II has an Ours row");
    (ours.utilization - ours_reported::UTILIZATION).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `util_err_pp` is the `table2` binary's utilization gap: at Table
    /// II's eight contexts (0, 128, …, 896, each priced there on a fresh
    /// engine) the closed-loop decode on one engine gives the same
    /// utilization to the 0.1 % that `table2` prints.
    #[test]
    fn util_err_matches_table2_at_its_contexts() {
        let ctxs: Vec<usize> = (0..SEGMENTS).map(|i| i * CTX_END / SEGMENTS).collect();
        let engine = || {
            DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::llama2_7b(), CTX_END)
                .expect("fits")
        };
        let fresh_ns: f64 = ctxs.iter().map(|&c| engine().decode_token(c).wall_ns).sum();
        let mut one = engine();
        let closed_loop_ns: f64 = ctxs.iter().map(|&c| one.decode_token(c).wall_ns).sum();
        let n = ctxs.len() as f64;
        let table2 = util_err_pp(n * 1e9 / fresh_ns);
        let ours = util_err_pp(n * 1e9 / closed_loop_ns);
        assert!(
            (ours - table2).abs() < 0.05,
            "{ours} pp vs table2's {table2} pp"
        );
        // Table II's Ours row: 90.0 % simulated against 84.5 % measured.
        assert!((table2 - 5.5).abs() < 0.05, "table2 gap {table2} pp");
    }
}
