//! Tiny-size runs of every workload: each must pass its own correctness
//! checks, report the metrics `BENCHMARK.json` declares, and repeat its
//! exact counts for a seed.

use cc_hunter::detector::supervisor::PairKind;
use cchunter_e2ebench::fleet::{self, PairPlan, ReplayShape};
use cchunter_e2ebench::host::HostReference;
use cchunter_e2ebench::inputs::SplitMix64;
use cchunter_e2ebench::report::{metric_problems, valid_name, Metric};
use cchunter_e2ebench::sim::TINY;
use cchunter_e2ebench::trace::Tracer;
use cchunter_e2ebench::{run_workload, Outcome, WORKLOADS};

fn run(workload: &str, seed: u64, traced: bool) -> Outcome {
    let mut tracer = Tracer::new(traced);
    let mut host = HostReference::default();
    run_workload(workload, &TINY, seed, 0.0, &mut tracer, &mut host).expect("known workload")
}

fn names(metrics: &[Metric]) -> Vec<&'static str> {
    let mut names: Vec<_> = metrics.iter().map(|m| m.name).collect();
    names.sort_unstable();
    names
}

/// Metric names of one `BENCHMARK.json` section, sorted.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let mut names: Vec<String> = body
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("quoted name") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect();
    names.sort_unstable();
    names
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

fn assert_clean(workload: &str, out: &Outcome) {
    assert!(out.problems.is_empty(), "{workload}: {:?}", out.problems);
    assert_eq!(out.failed, 0, "{workload}");
    assert!(out.attempted > 0, "{workload}");
    assert!(metric_problems(&out.end_to_end).is_empty(), "{workload}");
    assert!(metric_problems(&out.per_layer).is_empty(), "{workload}");
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_declared_metrics() {
    // `main` adds these to every run's lists.
    let added_end_to_end = ["peak_rss_mb"];
    let added_per_layer = ["failed_ratio", "host.ref_ms"];
    let mut end_to_end = declared("end_to_end");
    end_to_end.retain(|n| !added_end_to_end.contains(&n.as_str()));
    let mut per_layer = declared("per_layer");
    per_layer.retain(|n| !added_per_layer.contains(&n.as_str()));
    for workload in WORKLOADS {
        let plain = run(workload, 7, false);
        assert_clean(workload, &plain);
        assert_eq!(names(&plain.end_to_end), end_to_end, "{workload}");
        assert!(
            plain.per_layer.is_empty(),
            "{workload}: layers need a traced run"
        );
        for m in &plain.end_to_end {
            assert!(m.value > 0.0, "{workload}: {} must never be 0", m.name);
        }
        let traced = run(workload, 7, true);
        assert_clean(workload, &traced);
        assert_eq!(names(&traced.per_layer), per_layer, "{workload}");
        assert!(
            value(&traced.per_layer, "detect_quanta") >= 1.0,
            "{workload}"
        );
        assert_eq!(value(&traced.per_layer, "false_alarms"), 0.0, "{workload}");
        assert_eq!(
            value(&traced.per_layer, "audit.probe_faults"),
            0.0,
            "{workload}"
        );
        assert_eq!(
            value(&traced.per_layer, "store.checkpoint_errors"),
            0.0,
            "{workload}"
        );
        assert!(value(&traced.per_layer, "sim.events") > 0.0, "{workload}");
        assert!(
            value(&traced.per_layer, "store.checkpoint_bytes") > 0.0,
            "{workload}"
        );
    }
}

#[test]
fn declared_names_are_valid_and_unique() {
    let mut all = declared("end_to_end");
    all.extend(declared("per_layer"));
    for name in &all {
        assert!(valid_name(name), "{name}");
    }
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "a metric name is declared twice");
}

#[test]
fn exact_counts_repeat_for_a_seed_whatever_the_run_length() {
    let exact = [
        "detect_quanta",
        "sim.events",
        "sim.committed_ops",
        "sim.bus_locks",
        "audit.conflicts",
        "fleet.analyzed",
        "fleet.verdict_flips",
        "store.checkpoint_bytes",
    ];
    let counts = |workload: &str, seed, seconds| {
        let mut tracer = Tracer::new(true);
        let mut host = HostReference::default();
        let out = run_workload(workload, &TINY, seed, seconds, &mut tracer, &mut host)
            .expect("known workload");
        assert_clean(workload, &out);
        exact.map(|n| value(&out.per_layer, n))
    };
    for workload in ["bus_channel", "fleet_replay"] {
        let first = counts(workload, 3, 0.0);
        assert_eq!(first, counts(workload, 3, 1.0), "{workload}");
        assert_ne!(
            first,
            counts(workload, 4, 0.0),
            "{workload}: the seed must change the inputs"
        );
    }
}

#[test]
fn a_benign_pair_that_convicts_is_reported() {
    // Replay covert bus harvests under a pair declared benign: the fleet
    // convicts it, and the replay must flag a false alarm.
    let mut rng = SplitMix64::new(5);
    let mut tracer = Tracer::new(false);
    let mut host = HostReference::default();
    let (pool, _, _) = fleet::record_pool(&TINY, &mut rng, &mut tracer, &mut host);
    let plans = [PairPlan::new(
        "pair-00",
        PairKind::Contention,
        false,
        &pool.covert_bus,
    )];
    let shape = ReplayShape {
        shards: 1,
        checkpoint_every: fleet::CHECKPOINT_EVERY,
        min_ticks: fleet::CHECKPOINT_EVERY,
    };
    let out = fleet::replay_layers(&plans, &shape, &TINY, &mut tracer, &mut host);
    assert!(
        out.problems
            .iter()
            .any(|p| p.contains("benign pair-00 convicted")),
        "{:?}",
        out.problems
    );
}
