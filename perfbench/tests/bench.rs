//! The benchmark's own tests: metric names, tiny runs of every workload,
//! bit-identical repeats, and a traced pass that leaves every simulated
//! result unchanged.

use zllm_perfbench::catalogue::{self, Metric};
use zllm_perfbench::{Pass, Scale, Workload};

fn all_metrics() -> impl Iterator<Item = &'static Metric> {
    catalogue::END_TO_END.iter().chain(catalogue::per_layer())
}

#[test]
fn metric_names_and_units_use_the_allowed_characters() {
    let mut seen = std::collections::BTreeSet::new();
    for m in all_metrics() {
        assert!(
            m.name.len() <= 64
                && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {:?}",
            m.name
        );
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} of {}",
            m.unit,
            m.name
        );
        assert!(seen.insert(m.name), "{} is listed twice", m.name);
    }
    for w in Workload::ALL {
        assert!(seen.insert(w.name()), "{} clashes with a metric", w.name());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
}

/// `BENCHMARK.json` lists exactly the catalogue's metrics and the
/// workloads, in order, with the same units and directions.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut expected = Vec::new();
    for w in Workload::ALL {
        expected.push(format!(
            "{{\"name\": \"{}\", \"why\": \"{}\"}}",
            w.name(),
            w.why()
        ));
    }
    for m in catalogue::END_TO_END {
        expected.push(format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    for m in catalogue::per_layer() {
        expected.push(format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    let mut at = 0;
    for e in &expected {
        match text[at..].find(e.as_str()) {
            Some(i) => at += i + e.len(),
            None => panic!("BENCHMARK.json lacks, or misorders, {e}"),
        }
    }
    assert_eq!(
        text.matches("\"name\"").count(),
        expected.len(),
        "BENCHMARK.json lists names the catalogue does not"
    );
}

fn same_results(a: &Pass, b: &Pass) -> bool {
    a.fingerprint == b.fingerprint
        && a.sim.len() == b.sim.len()
        && a.sim
            .iter()
            .zip(&b.sim)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

#[test]
fn every_workload_runs_tiny_repeats_bit_for_bit_and_traces_invisibly() {
    zllm_par::set_max_threads(Some(2));
    for w in Workload::ALL {
        let first = w.pass(7, Scale::Tiny, false);
        assert!(
            first.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            first.failures
        );
        assert!(
            first.ops > 0 && first.steps > 0 && first.refused == 0,
            "{}",
            w.name()
        );
        assert!(!first.sim.is_empty() && !first.setup_samples.is_empty());
        assert!(
            first.layers.is_empty(),
            "untraced passes report no layer times"
        );

        let again = w.pass(7, Scale::Tiny, false);
        assert!(
            same_results(&first, &again),
            "{}: a repeat changed the results",
            w.name()
        );

        let traced = w.pass(7, Scale::Tiny, true);
        assert!(
            traced.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            traced.failures
        );
        assert!(
            same_results(&first, &traced),
            "{}: tracing changed the simulated results",
            w.name()
        );
        assert!(
            !traced.layers.is_empty(),
            "{}: traced pass has no layer times",
            w.name()
        );
        for name in traced.layers.keys() {
            assert!(
                catalogue::find(name).is_some(),
                "{name} is not in the catalogue"
            );
        }
        for name in first.sim.keys() {
            assert!(
                catalogue::find(name).is_some(),
                "{name} is not in the catalogue"
            );
        }

        let other = w.pass(8, Scale::Tiny, false);
        assert_ne!(
            first.fingerprint,
            other.fingerprint,
            "{}: the seed does not reach the inputs",
            w.name()
        );
    }
}
