//! End-to-end sim-to-verdict benchmark for the CC-Hunter reproduction.
//!
//! One command runs one workload for a given seed and time budget through
//! the real path — `Machine::run_until` → `AuditSession` harvest →
//! `detector::online` push → `ShardedFleet::tick` / `checkpoint` — timing
//! every call the benchmark makes into those layers. See `README.md` for
//! the workloads and metrics.

pub mod fleet;
pub mod host;
pub mod inputs;
pub mod report;
pub mod sim;
pub mod stats;
pub mod trace;

use host::HostReference;
use report::Metric;
use std::path::PathBuf;
use trace::Tracer;

/// The workloads, by name. `BENCHMARK.json` declares `cache_channel` and
/// `fleet_replay`; `bus_channel` runs only when named (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["bus_channel", "cache_channel", "fleet_replay"];

/// Where results, span dumps and temporary stores go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks (empty when the run is correct).
    pub problems: Vec<String>,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Extra provenance, written to the result file.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// An outcome of `attempted` operations, `failed` of which failed.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// A run that could not start its operations.
    pub fn refused(problem: String) -> Self {
        Outcome {
            problems: vec![problem],
            ..Outcome::default()
        }
    }

    /// Adds a provenance note.
    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }

    /// Folds a sub-measurement's operations, failures and problems in.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
    }
}

/// Whether a traced run records operation `op`: traced runs record blocks
/// of `block` operations and skip the blocks between, so the unrecorded
/// operations measure what recording costs. A block spans whatever cycle
/// the workload repeats (one quantum; one checkpoint interval), so every
/// kind of boundary call is recorded.
pub fn recorded(op: usize, block: usize) -> bool {
    (op / block).is_multiple_of(2)
}

/// Tracing overhead of a traced run, in percent: the median recorded
/// operation over the median unrecorded one (see [`recorded`]), less one.
pub fn overhead_pct(op_s: &[f64], block: usize) -> f64 {
    let pick = |want: bool| -> Vec<f64> {
        op_s.iter()
            .enumerate()
            .filter(|&(i, _)| recorded(i, block) == want)
            .map(|(_, &s)| s)
            .collect()
    };
    match (stats::median(&pick(true)), stats::median(&pick(false))) {
        (Some(on), Some(off)) if off > 0.0 => (on / off - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// Runs workload `name` at `scale`; `None` for an unknown name.
pub fn run_workload(
    name: &str,
    scale: &sim::Scale,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    host: &mut HostReference,
) -> Option<Outcome> {
    Some(match name {
        // The simulator does nearly all the work and the bus probe is
        // cheap: the workload for engine and event-queue changes, and the
        // control for conflict-tracker changes.
        "bus_channel" => sim::run(sim::Scenario::Bus, scale, seed, seconds, tracer, host),
        // The same engine, but the probe classifies every L2 miss and the
        // analysis builds an autocorrelogram over thousands of conflicts
        // per quantum: probe and tracker gains show here, not on the bus.
        "cache_channel" => sim::run(sim::Scenario::Cache, scale, seed, seconds, tracer, host),
        // The simulator only runs during set-up; the timed replay is pure
        // analysis, fleet and store work, with checkpoints written between
        // ticks so a tick made faster by heavier checkpoints still shows.
        "fleet_replay" => fleet::run(scale, seed, seconds, tracer, host),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_compares_recorded_with_unrecorded_operations() {
        assert_eq!(overhead_pct(&[1.1, 1.0, 1.1, 1.0], 1), 10.000000000000009);
        assert_eq!(overhead_pct(&[1.1, 1.1, 1.0, 1.0], 2), 10.000000000000009);
        assert_eq!(overhead_pct(&[1.0], 1), 0.0);
        assert!(recorded(0, 16) && recorded(15, 16) && !recorded(16, 16));
    }
}
