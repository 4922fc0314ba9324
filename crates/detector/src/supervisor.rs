//! The supervision layer: a crash-safe, self-healing fleet of per-pair
//! online detectors.
//!
//! [`crate::online`] gives one daemon per audited pair; a deployment runs
//! *many* — every suspect trojan/spy pairing on every shared unit — and the
//! audit loop must survive everything a long-horizon, adversarial
//! deployment throws at it. [`Supervisor`] owns the fleet and makes the
//! per-quantum tick crash-safe end to end:
//!
//! * **Per-pair watchdogs** — every pair's analysis runs under
//!   `catch_unwind` (via the thread pool's panic-safe
//!   [`threadpool::par_catch_map_mut`] fan-out) with a deadline budget. A
//!   panic or deadline miss becomes a typed
//!   [`DetectorError::AnalysisPanicked`] /
//!   [`DetectorError::DeadlineExceeded`], counts against that pair alone,
//!   and yields a degraded per-pair report instead of poisoning the batch.
//!   A panicked detector is rebuilt from the checkpoint store (or reset)
//!   so the fleet keeps ticking.
//! * **Retry with deterministic backoff** — a transiently missed probe is
//!   retried up to the configured budget with seeded exponential backoff +
//!   jitter ([`crate::policy::backoff_delay`]); the schedule depends only
//!   on `(seed, pair, tick, attempt)`, so fault-injected runs replay
//!   exactly, before and after a crash-restore.
//! * **Quarantine** — each pair carries a
//!   [`CircuitBreaker`]: pairs whose
//!   failure rate over a sliding window exceeds the threshold are skipped
//!   (with decaying reported confidence) and probed periodically for
//!   recovery, so one broken monitor cannot starve the fleet's audit
//!   budget.
//! * **Crash-safe state** — [`Supervisor::checkpoint`] writes every pair's
//!   sliding window plus a fleet manifest (tick, pair roster, breaker
//!   states) through the CRC-framed, generational
//!   [`CheckpointStore`];
//!   [`Supervisor::restore`] reloads the newest generations that validate,
//!   rolling back over corrupt ones and surfacing every rollback in the
//!   pair status.
//!
//! Determinism contract: given the same config, seed, and probe inputs,
//! a supervisor restored from its checkpoint store at any tick produces
//! the same verdict sequence as one that never crashed. (The deadline
//! watchdog is the one wall-clock element; with a generous budget it never
//! fires and the contract is exact.)

use crate::auditor::ConflictRecord;
use crate::ingest::IngestStats;
use crate::metrics::{
    default_registry, Counter, Family, Gauge, Histogram, Registry, LATENCY_BUCKETS_US,
};
use crate::mitigation::{
    AdvisoryEnforcer, ContainmentState, MitigationConfig, MitigationEnforcer, MitigationPolicy,
};
use crate::online::{Harvest, OnlineContentionDetector, OnlineOscillationDetector, OnlineStatus};
use crate::pipeline::{CcHunterConfig, Verdict};
use crate::policy::{
    backoff_delay, mix_seed, reconcile_quarantine_recovery, BackoffConfig, BreakerState,
    CircuitBreaker, QuarantineConfig,
};
use crate::span::{self, Tracer};
use crate::store::CheckpointStore;
use crate::DetectorError;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::mem::discriminant;
use std::time::Instant;

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Detection parameters shared by every pair's daemon.
    pub hunter: CcHunterConfig,
    /// Sliding-window length (quanta) of every pair's daemon.
    pub window_quanta: usize,
    /// Per-pair analysis deadline budget in microseconds; 0 disables the
    /// deadline watchdog.
    pub deadline_us: u64,
    /// Retry/backoff policy for transiently failing probes.
    pub backoff: BackoffConfig,
    /// Quarantine (circuit-breaker) policy.
    pub quarantine: QuarantineConfig,
    /// Closed-loop mitigation policy (conviction, escalation ladder,
    /// residual-driven step-down).
    pub mitigation: MitigationConfig,
    /// Automatically checkpoint every N ticks when a store is attached
    /// (0 = manual checkpoints only).
    pub checkpoint_every: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            hunter: CcHunterConfig::default(),
            window_quanta: 64,
            deadline_us: 0,
            backoff: BackoffConfig::default(),
            quarantine: QuarantineConfig::default(),
            mitigation: MitigationConfig::default(),
            checkpoint_every: 0,
            seed: 0xCC_4117,
        }
    }
}

/// A chaos-engineering input for exercising the watchdogs: first-class so
/// robustness tests and drills can inject the exact failure modes the
/// supervisor must contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOp {
    /// The pair's analysis panics mid-push.
    Panic,
    /// The pair's analysis stalls for the given number of microseconds
    /// before completing (to trip the deadline watchdog).
    StallUs(u64),
}

/// One pair's harvested input for one tick.
#[derive(Debug, Clone, PartialEq)]
pub enum PairInput {
    /// A contention pair's per-quantum harvest.
    Harvest(Harvest),
    /// An oscillation pair's drained conflict records.
    Conflicts {
        /// The records drained this quantum.
        records: Vec<ConflictRecord>,
        /// Estimated corrupted/lost fraction, in `[0, 1]`.
        lost_fraction: f64,
    },
    /// The probe produced nothing at all (kind-agnostic gap).
    Missed,
    /// An injected failure (see [`ChaosOp`]).
    Chaos(ChaosOp),
}

impl PairInput {
    /// Whether this input is a retryable non-observation.
    fn is_missed(&self) -> bool {
        matches!(
            self,
            PairInput::Missed | PairInput::Harvest(Harvest::Missed)
        )
    }
}

/// A transient probe failure, retried under the backoff policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFault {
    /// Human-readable cause.
    pub reason: String,
}

impl fmt::Display for ProbeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probe fault: {}", self.reason)
    }
}

impl std::error::Error for ProbeFault {}

/// Source of per-pair probe inputs, polled once per pair per tick (plus
/// retries). Implemented for closures
/// `FnMut(pair, tick, attempt) -> Result<PairInput, ProbeFault>`.
pub trait ProbeSource {
    /// Harvests pair `pair`'s input for `tick`; `attempt` is 0 for the
    /// first try and counts up across retries.
    ///
    /// # Errors
    ///
    /// Returns [`ProbeFault`] for a transient failure the supervisor
    /// should retry under its backoff policy.
    fn probe(&mut self, pair: usize, tick: u64, attempt: u32) -> Result<PairInput, ProbeFault>;
}

impl<F> ProbeSource for F
where
    F: FnMut(usize, u64, u32) -> Result<PairInput, ProbeFault>,
{
    fn probe(&mut self, pair: usize, tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
        self(pair, tick, attempt)
    }
}

/// The two daemon kinds a pair can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// Combinational resource: recurrent-burst daemon.
    Contention,
    /// Memory resource: oscillation daemon.
    Oscillation,
}

impl fmt::Display for PairKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PairKind::Contention => f.write_str("contention"),
            PairKind::Oscillation => f.write_str("oscillation"),
        }
    }
}

#[derive(Debug)]
enum PairDetector {
    Contention(OnlineContentionDetector),
    Oscillation(OnlineOscillationDetector),
}

/// What [`analyze`] yields for one pair: the post-push status plus
/// whether the quantum was actually observed.
type AnalysisResult = Result<(OnlineStatus, bool), DetectorError>;

/// An [`AnalysisResult`] paired with its elapsed microseconds, as it
/// comes back from the panic-catching fan-out.
type TimedAnalysis = Result<(AnalysisResult, u64), threadpool::JobPanic>;

/// What the probe phase decided for one pair.
enum Plan {
    /// The pair's breaker is open: no probe, no analysis this tick.
    Skip,
    /// The pair was probed; `input` is the final attempt's result (a miss
    /// once the retry budget ran out).
    Analyze {
        input: PairInput,
        retries: u32,
        backoff_us: u64,
    },
}

/// The probe phase's result for one tick ([`Supervisor::probe_tick`]),
/// consumed by [`Supervisor::settle_tick`].
pub(crate) struct ProbedTick {
    /// One plan per pair, in pair order.
    plans: Vec<Plan>,
    /// Wall-clock microseconds the probe phase took; counted in the tick
    /// latency.
    probe_us: u64,
}

/// How a panicked pair's detector was brought back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Restored from the checkpoint store.
    RestoredFromStore {
        /// The generation the state came from.
        generation: u64,
    },
    /// No usable checkpoint: the window was reset empty.
    Reset,
}

/// Where a pair's state came from at restore time — surfaced so operators
/// can see that (and how far) a rollback happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoredFrom {
    /// Store generation the state was loaded from.
    pub generation: u64,
    /// Corrupt newer generations skipped to reach it.
    pub rolled_back: usize,
}

#[derive(Debug)]
struct Pair {
    label: String,
    kind: PairKind,
    detector: PairDetector,
    breaker: CircuitBreaker,
    mitigation: MitigationPolicy,
    /// Confidence reported while quarantined; decays per skipped tick.
    quarantine_confidence: f64,
    last_verdict: Verdict,
    restored_from: Option<RestoredFrom>,
    /// Degraded mode: the pair's window provenance is untrusted (e.g. its
    /// checkpoint was unrecoverable after a shard death), so Clean
    /// verdicts floor to [`Verdict::Inconclusive`] — a blinded monitor
    /// must never acquit.
    degraded: bool,
    failures: u64,
    panics: u64,
    deadline_misses: u64,
    retries: u64,
    backoff_waited_us: u64,
}

/// Outcome of one pair's tick.
#[derive(Debug)]
pub enum PairOutcome {
    /// The analysis ran cleanly.
    Analyzed(OnlineStatus),
    /// The analysis produced a status but something went wrong around it
    /// (final probe missed after retries, wrong-kind input, deadline
    /// miss); the window advanced with a gap or the status is tainted.
    Degraded {
        /// The daemon's status after the (gap) push.
        status: OnlineStatus,
        /// The typed cause.
        error: DetectorError,
    },
    /// The pair is quarantined and was skipped this tick.
    Skipped {
        /// The decayed confidence the fleet reports for it.
        confidence: f64,
    },
    /// The analysis panicked; the detector was rebuilt.
    Failed {
        /// The typed cause ([`DetectorError::AnalysisPanicked`]).
        error: DetectorError,
        /// How the pair's detector was brought back.
        recovery: Recovery,
    },
}

/// One pair's report for one tick.
#[derive(Debug)]
pub struct PairReport {
    /// Pair index.
    pub pair: usize,
    /// Pair label.
    pub label: String,
    /// What happened.
    pub outcome: PairOutcome,
    /// Breaker state after the tick.
    pub health: BreakerState,
    /// Containment state after the tick.
    pub containment: ContainmentState,
    /// Probe retries spent this tick.
    pub retries: u32,
    /// Virtual microseconds of backoff delay scheduled this tick.
    pub backoff_us: u64,
}

/// Fleet-wide report for one tick.
#[derive(Debug)]
pub struct TickReport {
    /// The tick that ran (the supervisor's quantum counter before
    /// incrementing).
    pub tick: u64,
    /// Per-pair reports, in pair order.
    pub reports: Vec<PairReport>,
    /// Generation written by this tick's automatic checkpoint, if one ran.
    pub checkpoint_generation: Option<u64>,
    /// Error from this tick's automatic checkpoint, if it failed (the tick
    /// itself still completes).
    pub checkpoint_error: Option<String>,
}

/// A pair's standing in the fleet (for status tables and monitoring).
#[derive(Debug, Clone)]
pub struct PairStatus {
    /// Pair index.
    pub index: usize,
    /// Pair label.
    pub label: String,
    /// Daemon kind.
    pub kind: PairKind,
    /// Breaker state.
    pub health: BreakerState,
    /// Failure rate over the breaker's window.
    pub failure_rate: f64,
    /// The pair's current verdict (last analyzed status).
    pub verdict: Verdict,
    /// Where the pair stands on the containment ladder.
    pub containment: ContainmentState,
    /// Where the pair's state was restored from, if it was.
    pub restored_from: Option<RestoredFrom>,
    /// Whether the pair runs in degraded mode (untrusted window
    /// provenance; Clean verdicts floor to [`Verdict::Inconclusive`]).
    pub degraded: bool,
    /// Total probe/analysis failures recorded.
    pub failures: u64,
    /// Contained analysis panics.
    pub panics: u64,
    /// Deadline misses.
    pub deadline_misses: u64,
    /// Total probe retries.
    pub retries: u64,
}

/// One pair's portable state: everything needed to re-create the pair in
/// another fleet running the same configuration. This is the unit of
/// migration when a shard dies — [`Supervisor::export_pair`] produces one
/// from a live pair, [`Supervisor::recover_pairs`] reads a whole dead
/// fleet's worth back from its checkpoint store, and
/// [`Supervisor::import_pair`] re-creates the pair on a survivor.
///
/// Breaker and containment states travel in their serialized (manifest)
/// form so the importing fleet re-validates them against *its* config —
/// and so an imported active containment comes back flagged for
/// re-assertion through the new fleet's enforcer, exactly like a
/// crash-restore.
#[derive(Debug, Clone)]
pub(crate) struct PairSnapshot {
    pub(crate) label: String,
    pub(crate) kind: PairKind,
    /// The detector's window checkpoint. `None` means the window was
    /// unrecoverable: the pair can only be imported degraded.
    pub(crate) window: Option<Vec<u8>>,
    pub(crate) breaker: String,
    pub(crate) mitigation: String,
    pub(crate) quarantine_confidence: f64,
    pub(crate) degraded: bool,
    pub(crate) provenance: Option<RestoredFrom>,
    pub(crate) failures: u64,
    pub(crate) panics: u64,
    pub(crate) deadline_misses: u64,
    pub(crate) retries: u64,
}

impl PairSnapshot {
    /// The pair's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The pair's daemon kind.
    pub fn kind(&self) -> PairKind {
        self.kind
    }

    /// Whether importing this snapshot yields a degraded pair.
    pub fn is_degraded(&self) -> bool {
        self.degraded || self.window.is_none()
    }

    /// Discards the window checkpoint, forcing a degraded import: the
    /// fallback when a snapshot's window fails validation on the
    /// importing fleet.
    pub fn degrade(mut self) -> Self {
        self.window = None;
        self.degraded = true;
        self
    }
}

/// Report of a [`Supervisor::restore`]: which generations the fleet state
/// actually came from.
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// Manifest provenance.
    pub manifest: RestoredFrom,
    /// Per-pair provenance, in pair order.
    pub pairs: Vec<RestoredFrom>,
}

impl RestoreReport {
    /// Total corrupt generations rolled over across manifest and pairs.
    pub fn total_rolled_back(&self) -> usize {
        self.manifest.rolled_back + self.pairs.iter().map(|p| p.rolled_back).sum::<usize>()
    }
}

const MANIFEST_MAGIC: &str = "cchunter-supervisor,v1";
const MANIFEST_NAME: &str = "supervisor";

/// The fleet's registered instrument set (see DESIGN.md §12 for the name
/// and label scheme). Families are labeled by pair label.
#[derive(Debug, Clone)]
struct FleetMetrics {
    ticks: Counter,
    tick_latency_us: Histogram,
    audit_latency_us: Histogram,
    pair_audit_latency_us: Family<Histogram>,
    analyzed: Family<Counter>,
    degraded: Family<Counter>,
    failures: Family<Counter>,
    panics: Family<Counter>,
    deadline_misses: Family<Counter>,
    retries: Family<Counter>,
    backoff_us: Family<Counter>,
    quarantine_skips: Family<Counter>,
    verdict_flips: Family<Counter>,
    breaker_transitions: Family<Counter>,
    recoveries: Family<Counter>,
    confidence: Family<Gauge>,
    covert: Family<Gauge>,
    quarantined: Family<Gauge>,
    mitigations_applied: Family<Counter>,
    mitigation_failures: Family<Counter>,
    mitigation_escalations: Family<Counter>,
    mitigation_stepdowns: Family<Counter>,
    containment_level: Family<Gauge>,
    contained_pairs: Gauge,
    checkpoints: Counter,
    checkpoint_errors: Counter,
    restore_rollbacks: Counter,
    durability_degraded: Gauge,
    shadow_checkpoints: Counter,
    durability_heals: Counter,
}

impl FleetMetrics {
    fn register(registry: &Registry) -> Self {
        const PAIR: &str = "pair";
        FleetMetrics {
            ticks: registry.counter(
                "cchunter_supervisor_ticks_total",
                "Supervised fleet ticks completed.",
            ),
            tick_latency_us: registry.histogram(
                "cchunter_supervisor_tick_latency_us",
                "Wall-clock latency of one supervised fleet tick, in microseconds.",
                &LATENCY_BUCKETS_US,
            ),
            audit_latency_us: registry.histogram(
                "cchunter_audit_latency_us",
                "Per-pair analysis latency, in microseconds.",
                &LATENCY_BUCKETS_US,
            ),
            pair_audit_latency_us: registry.histogram_family(
                "cchunter_pair_audit_latency_us",
                "Per-pair analysis latency, in microseconds, by pair.",
                PAIR,
                &LATENCY_BUCKETS_US,
            ),
            analyzed: registry.counter_family(
                "cchunter_pair_analyzed_total",
                "Clean per-pair analyses.",
                PAIR,
            ),
            degraded: registry.counter_family(
                "cchunter_pair_degraded_total",
                "Degraded per-pair outcomes (gaps, wrong-kind inputs, deadline misses).",
                PAIR,
            ),
            failures: registry.counter_family(
                "cchunter_pair_failures_total",
                "Per-pair probe/analysis failures.",
                PAIR,
            ),
            panics: registry.counter_family(
                "cchunter_pair_panics_total",
                "Contained per-pair analysis panics.",
                PAIR,
            ),
            deadline_misses: registry.counter_family(
                "cchunter_pair_deadline_misses_total",
                "Per-pair deadline watchdog trips.",
                PAIR,
            ),
            retries: registry.counter_family(
                "cchunter_pair_retries_total",
                "Per-pair probe retries.",
                PAIR,
            ),
            backoff_us: registry.counter_family(
                "cchunter_pair_backoff_us_total",
                "Virtual microseconds of retry backoff scheduled per pair.",
                PAIR,
            ),
            quarantine_skips: registry.counter_family(
                "cchunter_pair_quarantine_skips_total",
                "Ticks skipped because the pair was quarantined.",
                PAIR,
            ),
            verdict_flips: registry.counter_family(
                "cchunter_pair_verdict_flips_total",
                "Per-pair verdict changes (clean <-> covert).",
                PAIR,
            ),
            breaker_transitions: registry.counter_family(
                "cchunter_pair_breaker_transitions_total",
                "Per-pair circuit-breaker state transitions.",
                PAIR,
            ),
            recoveries: registry.counter_family(
                "cchunter_pair_recoveries_total",
                "Detector rebuilds after contained panics.",
                PAIR,
            ),
            confidence: registry.gauge_family(
                "cchunter_pair_confidence",
                "The pair's current covert-channel confidence, in [0, 1].",
                PAIR,
            ),
            covert: registry.gauge_family(
                "cchunter_pair_covert",
                "1 when the pair's current verdict is covert, else 0.",
                PAIR,
            ),
            quarantined: registry.gauge_family(
                "cchunter_pair_quarantined",
                "1 when the pair's breaker is open or half-open, else 0.",
                PAIR,
            ),
            mitigations_applied: registry.counter_family(
                "cchunter_pair_mitigations_applied_total",
                "Accepted mitigation enforcement calls, by pair.",
                PAIR,
            ),
            mitigation_failures: registry.counter_family(
                "cchunter_pair_mitigation_failures_total",
                "Refused mitigation enforcement calls (apply or release), by pair.",
                PAIR,
            ),
            mitigation_escalations: registry.counter_family(
                "cchunter_pair_mitigation_escalations_total",
                "Containment-ladder rungs escalated past, by pair.",
                PAIR,
            ),
            mitigation_stepdowns: registry.counter_family(
                "cchunter_pair_mitigation_stepdowns_total",
                "Containment-ladder rungs stepped down, by pair.",
                PAIR,
            ),
            containment_level: registry.gauge_family(
                "cchunter_pair_containment_level",
                "The pair's containment rung (0 inactive, 1 flush-on-switch … 4 deschedule).",
                PAIR,
            ),
            contained_pairs: registry.gauge(
                "cchunter_contained_pairs",
                "Pairs with an active or pending containment.",
            ),
            checkpoints: registry.counter(
                "cchunter_checkpoints_total",
                "Successful fleet checkpoints.",
            ),
            checkpoint_errors: registry.counter(
                "cchunter_checkpoint_errors_total",
                "Failed fleet checkpoint attempts.",
            ),
            restore_rollbacks: registry.counter(
                "cchunter_restore_rollbacks_total",
                "Corrupt checkpoint generations rolled over during restores.",
            ),
            durability_degraded: registry.gauge(
                "cchunter_durability_degraded",
                "1 while checkpoints are shadow-only (storage browning out), else 0.",
            ),
            shadow_checkpoints: registry.counter(
                "cchunter_shadow_checkpoints_total",
                "In-memory shadow checkpoints taken while storage was degraded.",
            ),
            durability_heals: registry.counter(
                "cchunter_durability_heals_total",
                "Durable-write resumptions (full re-persists) after storage healed.",
            ),
        }
    }
}

/// Fleet-local (unregistered) mirrors of the cross-pair aggregates.
///
/// [`Supervisor::metrics_snapshot`] reads these instead of the registry so
/// the digest stays exact for *this* fleet even when several supervisors
/// share the process-wide default registry. Instruments (not plain ints)
/// so `&self` methods like [`Supervisor::checkpoint`] can bump them.
#[derive(Debug)]
struct FleetTotals {
    analyzed: Counter,
    degraded: Counter,
    quarantine_skips: Counter,
    verdict_flips: Counter,
    breaker_transitions: Counter,
    recoveries: Counter,
    checkpoints: Counter,
    checkpoint_errors: Counter,
    restore_rollbacks: Counter,
    shadow_checkpoints: Counter,
    durability_heals: Counter,
    audit_latency_us: Histogram,
    tick_latency_us: Histogram,
}

impl FleetTotals {
    fn new() -> Self {
        FleetTotals {
            analyzed: Counter::new(),
            degraded: Counter::new(),
            quarantine_skips: Counter::new(),
            verdict_flips: Counter::new(),
            breaker_transitions: Counter::new(),
            recoveries: Counter::new(),
            checkpoints: Counter::new(),
            checkpoint_errors: Counter::new(),
            restore_rollbacks: Counter::new(),
            shadow_checkpoints: Counter::new(),
            durability_heals: Counter::new(),
            audit_latency_us: Histogram::latency_us(),
            tick_latency_us: Histogram::latency_us(),
        }
    }
}

/// A compact latency-distribution digest taken from a fixed-bucket
/// histogram; quantiles are bucket-interpolated (see
/// [`Histogram::quantile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Observations recorded.
    pub count: u64,
    /// Mean, in microseconds.
    pub mean_us: f64,
    /// Interpolated median, in microseconds.
    pub p50_us: f64,
    /// Interpolated 90th percentile, in microseconds.
    pub p90_us: f64,
    /// Largest observation, in microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    pub(crate) fn from_histogram(h: &Histogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean_us: h.mean(),
            p50_us: h.quantile(0.5),
            p90_us: h.quantile(0.9),
            max_us: h.max(),
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1}µs p50={:.1}µs p90={:.1}µs max={:.1}µs",
            self.count, self.mean_us, self.p50_us, self.p90_us, self.max_us
        )
    }
}

/// Ingest-layer totals, summed over every [`IngestStats`] handle attached
/// to the fleet (all zeros when no hardened ingest pipeline is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSnapshot {
    /// Raw events offered to admission queues.
    pub events_offered: u64,
    /// Events shed by admission queues under overload.
    pub events_shed: u64,
    /// Events repaired (reorder-clamped) by sanitizers.
    pub events_repaired: u64,
    /// Hostile events dropped by sanitizers.
    pub events_dropped: u64,
    /// Quanta whose 16-bit accumulators saturated.
    pub saturated_quanta: u64,
    /// Quanta harvested through ingest pipelines.
    pub quanta: u64,
    /// Quanta degraded to partial harvests.
    pub partial_harvests: u64,
    /// Quanta refused outright (biased shedding past tolerance).
    pub missed_harvests: u64,
}

impl IngestSnapshot {
    /// Whether any ingest activity was recorded at all.
    pub fn is_empty(&self) -> bool {
        *self == IngestSnapshot::default()
    }
}

/// A point-in-time numeric digest of one fleet's health, computed from the
/// fleet's own state (exact for this fleet even when the metrics registry
/// is shared process-wide).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Ticks completed.
    pub ticks: u64,
    /// Supervised pairs.
    pub pairs: usize,
    /// Pairs whose breaker is not closed.
    pub quarantined_pairs: usize,
    /// Pairs whose current verdict is covert.
    pub covert_pairs: usize,
    /// Pairs with an active or pending containment.
    pub contained_pairs: usize,
    /// Clean analyses across all pairs and ticks.
    pub analyzed: u64,
    /// Degraded outcomes (gaps, wrong-kind inputs, deadline misses).
    pub degraded: u64,
    /// Probe/analysis failures.
    pub failures: u64,
    /// Contained analysis panics.
    pub panics: u64,
    /// Deadline watchdog trips.
    pub deadline_misses: u64,
    /// Probe retries.
    pub retries: u64,
    /// Ticks skipped under quarantine.
    pub quarantine_skips: u64,
    /// Verdict changes (clean <-> covert).
    pub verdict_flips: u64,
    /// Circuit-breaker state transitions.
    pub breaker_transitions: u64,
    /// Detector rebuilds after contained panics.
    pub recoveries: u64,
    /// Accepted mitigation enforcement calls.
    pub mitigations_applied: u64,
    /// Refused mitigation enforcement calls (apply or release).
    pub mitigation_failures: u64,
    /// Containment-ladder rungs escalated past.
    pub mitigation_escalations: u64,
    /// Containment-ladder rungs stepped down.
    pub mitigation_stepdowns: u64,
    /// Successful checkpoints.
    pub checkpoints: u64,
    /// Failed checkpoint attempts.
    pub checkpoint_errors: u64,
    /// Corrupt generations rolled over during restores.
    pub restore_rollbacks: u64,
    /// Whether checkpoints are currently shadow-only (storage degraded).
    pub durability_degraded: bool,
    /// In-memory shadow checkpoints taken while storage was degraded.
    pub shadow_checkpoints: u64,
    /// Durable-write resumptions (full re-persists) after storage healed.
    pub durability_heals: u64,
    /// Mean covert-channel confidence across pairs.
    pub mean_confidence: f64,
    /// Ingest-layer totals (shedding, sanitization, saturation) from every
    /// attached [`IngestStats`] handle; zeros when none is attached.
    pub ingest: IngestSnapshot,
    /// Per-pair analysis latency distribution.
    pub audit_latency: LatencySummary,
    /// Whole-tick latency distribution.
    pub tick_latency: LatencySummary,
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} pairs ({} covert, {} quarantined, {} contained) at tick {}",
            self.pairs, self.covert_pairs, self.quarantined_pairs, self.contained_pairs, self.ticks
        )?;
        writeln!(
            f,
            "  analyzed {}  degraded {}  failures {}  panics {}  deadline misses {}",
            self.analyzed, self.degraded, self.failures, self.panics, self.deadline_misses
        )?;
        writeln!(
            f,
            "  retries {}  quarantine skips {}  verdict flips {}  breaker transitions {}  recoveries {}",
            self.retries,
            self.quarantine_skips,
            self.verdict_flips,
            self.breaker_transitions,
            self.recoveries
        )?;
        writeln!(
            f,
            "  mitigations: {} applied  {} refused  {} escalations  {} step-downs",
            self.mitigations_applied,
            self.mitigation_failures,
            self.mitigation_escalations,
            self.mitigation_stepdowns
        )?;
        writeln!(
            f,
            "  checkpoints {} ({} failed)  restore rollbacks {}  mean confidence {:.3}",
            self.checkpoints, self.checkpoint_errors, self.restore_rollbacks, self.mean_confidence
        )?;
        if self.durability_degraded || self.shadow_checkpoints > 0 {
            writeln!(
                f,
                "  durability: {}  shadow checkpoints {}  heals {}",
                if self.durability_degraded {
                    "DEGRADED (shadow-only)"
                } else {
                    "durable"
                },
                self.shadow_checkpoints,
                self.durability_heals
            )?;
        }
        if !self.ingest.is_empty() {
            writeln!(
                f,
                "  ingest: {} offered  {} shed  {} repaired  {} dropped  {} saturated quanta  {} partial  {} refused",
                self.ingest.events_offered,
                self.ingest.events_shed,
                self.ingest.events_repaired,
                self.ingest.events_dropped,
                self.ingest.saturated_quanta,
                self.ingest.partial_harvests,
                self.ingest.missed_harvests
            )?;
        }
        writeln!(f, "  audit latency: {}", self.audit_latency)?;
        write!(f, "  tick latency:  {}", self.tick_latency)
    }
}

/// Whether the fleet's checkpoints are currently landing on stable
/// storage.
///
/// Under a persistent storage fault (a disk brownout) the supervisor does
/// not wedge and does not silently no-op: it keeps checkpointing *in
/// memory* (shadow checkpoints), reports `Degraded` here and in metrics,
/// and resumes durable writes — with a full re-persist of every pair plus
/// the manifest — the first time the medium heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Checkpoints are landing on stable storage.
    Durable,
    /// Checkpoints are shadow-only (in memory) until the medium heals.
    Degraded {
        /// The tick at which durable writes started failing.
        since_tick: u64,
    },
}

impl Durability {
    /// Whether durable writes are currently suspended.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Durability::Degraded { .. })
    }
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::Durable => f.write_str("durable"),
            Durability::Degraded { since_tick } => {
                write!(f, "degraded (since tick {since_tick})")
            }
        }
    }
}

/// The in-memory stand-in for a durable checkpoint, taken while the
/// storage medium is browning out. Holds exactly the entries a durable
/// checkpoint would have written (every pair's window plus the manifest),
/// so the most recent fleet state survives as long as the process does.
#[derive(Debug, Clone)]
struct ShadowCheckpoint {
    tick: u64,
    entries: Vec<(String, Vec<u8>)>,
}

/// Everything a monitoring page needs about one fleet: the tick counter,
/// every pair's standing, the durability mode, and the numeric digest.
#[derive(Debug, Clone)]
pub struct FleetStatus {
    /// Ticks completed.
    pub tick: u64,
    /// Per-pair standing, in pair order.
    pub pairs: Vec<PairStatus>,
    /// Whether checkpoints are landing durably or shadow-only.
    pub durability: Durability,
    /// The numeric digest.
    pub metrics: MetricsSnapshot,
}

/// The supervised audit service: owns the per-pair daemons, their
/// watchdogs and breakers, and (optionally) a durable checkpoint store.
///
/// ```
/// use cchunter_detector::supervisor::{PairInput, ProbeFault, Supervisor, SupervisorConfig};
/// use cchunter_detector::online::Harvest;
///
/// let mut fleet = Supervisor::new(SupervisorConfig::default()).unwrap();
/// fleet.add_contention_pair("memory-bus: pid 17 <-> pid 23").unwrap();
/// let report = fleet.tick(&mut |_pair: usize, _tick: u64, _attempt: u32| {
///     Ok::<PairInput, ProbeFault>(PairInput::Missed)
/// });
/// assert_eq!(report.reports.len(), 1);
/// ```
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    pairs: Vec<Pair>,
    store: Option<CheckpointStore>,
    tick: u64,
    registry: Registry,
    metrics: FleetMetrics,
    totals: FleetTotals,
    tracer: Tracer,
    ingest_stats: Vec<IngestStats>,
    durability: Durability,
    shadow: Option<ShadowCheckpoint>,
}

impl Supervisor {
    /// Creates an empty fleet. Instruments register in the process-wide
    /// [`default_registry`] and structured events go to the
    /// `CCHUNTER_TRACE`-controlled [`span::global`] tracer; see
    /// [`Supervisor::with_registry`] / [`Supervisor::with_tracer`] to
    /// redirect either.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `window_quanta` is zero.
    pub fn new(config: SupervisorConfig) -> Result<Self, DetectorError> {
        if config.window_quanta == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "supervisor window must hold at least one quantum".to_string(),
            });
        }
        config.mitigation.validate()?;
        let registry = default_registry();
        let metrics = FleetMetrics::register(&registry);
        Ok(Supervisor {
            config,
            pairs: Vec::new(),
            store: None,
            tick: 0,
            registry,
            metrics,
            totals: FleetTotals::new(),
            tracer: span::global().clone(),
            ingest_stats: Vec::new(),
            durability: Durability::Durable,
            shadow: None,
        })
    }

    /// Attaches a durable checkpoint store (builder style).
    pub fn with_store(mut self, store: CheckpointStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Rebinds this fleet's instruments to `registry` (builder style) —
    /// e.g. a fresh [`Registry`] per fleet when exact isolation matters.
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.metrics = FleetMetrics::register(&registry);
        self.registry = registry;
        self
    }

    /// Redirects this fleet's structured events to `tracer` (builder
    /// style).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches an ingest pipeline's shared counters (see
    /// [`crate::IngestPipeline::stats`]): the handle's totals are summed
    /// into [`MetricsSnapshot::ingest`] so every shed / sanitize /
    /// saturation event is visible in this fleet's digest. Attach one
    /// handle per pipeline; repeat for each audited pair that routes
    /// through hardened ingest.
    pub fn attach_ingest_stats(&mut self, stats: IngestStats) {
        self.ingest_stats.push(stats);
    }

    /// The registry this fleet's instruments live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The tracer receiving this fleet's structured events.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Renders this fleet's registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// The fleet configuration.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Ticks completed so far.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Number of supervised pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Number of pairs currently running in degraded mode.
    pub fn degraded_pairs(&self) -> usize {
        self.pairs.iter().filter(|p| p.degraded).count()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    fn add_pair(&mut self, label: String, kind: PairKind) -> Result<usize, DetectorError> {
        let detector = self.fresh_detector(kind)?;
        self.pairs.push(Pair {
            label,
            kind,
            detector,
            breaker: CircuitBreaker::new(self.config.quarantine),
            mitigation: MitigationPolicy::new(self.config.mitigation)
                .expect("mitigation config validated at construction"),
            quarantine_confidence: 0.0,
            last_verdict: Verdict::Clean,
            restored_from: None,
            degraded: false,
            failures: 0,
            panics: 0,
            deadline_misses: 0,
            retries: 0,
            backoff_waited_us: 0,
        });
        Ok(self.pairs.len() - 1)
    }

    fn fresh_detector(&self, kind: PairKind) -> Result<PairDetector, DetectorError> {
        Ok(match kind {
            PairKind::Contention => PairDetector::Contention(OnlineContentionDetector::new(
                self.config.hunter,
                self.config.window_quanta,
            )?),
            PairKind::Oscillation => PairDetector::Oscillation(OnlineOscillationDetector::new(
                self.config.hunter,
                self.config.window_quanta,
            )?),
        })
    }

    /// Adds a contention (combinational-resource) pair; returns its index.
    ///
    /// # Errors
    ///
    /// Propagates daemon-construction errors.
    pub fn add_contention_pair(
        &mut self,
        label: impl Into<String>,
    ) -> Result<usize, DetectorError> {
        self.add_pair(label.into(), PairKind::Contention)
    }

    /// Adds an oscillation (memory-resource) pair; returns its index.
    ///
    /// # Errors
    ///
    /// Propagates daemon-construction errors.
    pub fn add_oscillation_pair(
        &mut self,
        label: impl Into<String>,
    ) -> Result<usize, DetectorError> {
        self.add_pair(label.into(), PairKind::Oscillation)
    }

    /// Runs one supervised tick: probes every non-quarantined pair
    /// (retrying transient misses under the backoff policy), fans the
    /// analyses out across the thread pool under the panic/deadline
    /// watchdogs, updates every breaker, and (when due) auto-checkpoints.
    ///
    /// Never panics and never aborts the batch: every per-pair failure is
    /// contained and reported in the returned [`TickReport`].
    ///
    /// Mitigation decisions run against the [`AdvisoryEnforcer`]
    /// (shadow mode); use [`Supervisor::tick_with_enforcer`] to actuate a
    /// real scheduler/hardware backend.
    pub fn tick<S: ProbeSource + ?Sized>(&mut self, source: &mut S) -> TickReport {
        self.tick_with_enforcer(source, &mut AdvisoryEnforcer)
    }

    /// Like [`Supervisor::tick`], but drives each pair's containment
    /// policy through `enforcer`, so convictions actuate real scheduler
    /// and cache-hardware responses (and failed applies escalate the
    /// ladder).
    pub fn tick_with_enforcer<S: ProbeSource + ?Sized, E: MitigationEnforcer + ?Sized>(
        &mut self,
        source: &mut S,
        enforcer: &mut E,
    ) -> TickReport {
        let probed = self.probe_tick(source);
        self.settle_tick(probed, enforcer)
    }

    /// The serial first phase of a tick: decides which pairs their
    /// breakers skip and probes the rest through `source`, retrying misses
    /// and faults under the backoff policy. It changes no state, so a
    /// sharded fleet can run it for every shard from one source before
    /// the shards settle in parallel.
    pub(crate) fn probe_tick<S: ProbeSource + ?Sized>(&self, source: &mut S) -> ProbedTick {
        let started = Instant::now();
        let tick = self.tick;
        let mut plans = Vec::with_capacity(self.pairs.len());
        for (idx, pair) in self.pairs.iter().enumerate() {
            if !pair.breaker.should_attempt(tick) {
                plans.push(Plan::Skip);
                continue;
            }
            let seed = mix_seed(self.config.seed, idx as u64, tick);
            let mut attempt: u32 = 0;
            let mut backoff_us: u64 = 0;
            let input = loop {
                let result = source.probe(idx, tick, attempt);
                let retryable = match &result {
                    Ok(input) => input.is_missed(),
                    Err(_) => true,
                };
                if !retryable {
                    break result.expect("non-retryable is Ok");
                }
                match backoff_delay(&self.config.backoff, seed, attempt) {
                    Some(delay) => {
                        // The delay is virtual: the schedule is recorded
                        // (and reproducible), not slept, so supervised
                        // tests replay instantly.
                        backoff_us += delay;
                        attempt += 1;
                    }
                    None => break PairInput::Missed,
                }
            };
            plans.push(Plan::Analyze {
                input,
                retries: attempt,
                backoff_us,
            });
        }
        ProbedTick {
            plans,
            probe_us: started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        }
    }

    /// The second phase of a tick: records the probe phase's skips and
    /// retries, runs every planned analysis under the watchdogs, settles
    /// breakers, verdicts and containment, and (when due) auto-checkpoints.
    pub(crate) fn settle_tick<E: MitigationEnforcer + ?Sized>(
        &mut self,
        probed: ProbedTick,
        enforcer: &mut E,
    ) -> TickReport {
        let tick = self.tick;
        let deadline_us = self.config.deadline_us;
        let settle_started = Instant::now();
        let mut tick_span = self.tracer.span("supervisor", "tick");
        debug_assert_eq!(probed.plans.len(), self.pairs.len());

        // Record the probe phase and hand each probed input to its
        // analysis job. Jobs are per-pair &mut state.
        struct Job<'a> {
            pair: &'a mut Pair,
            input: Option<PairInput>,
        }
        let mut jobs: Vec<Job<'_>> = Vec::new();
        // Per pair: `None` when skipped, else its (retries, backoff µs).
        let mut probes: Vec<Option<(u32, u64)>> = Vec::with_capacity(self.pairs.len());
        for (pair, plan) in self.pairs.iter_mut().zip(probed.plans) {
            let Plan::Analyze {
                input,
                retries,
                backoff_us,
            } = plan
            else {
                pair.quarantine_confidence *= pair.breaker.config().confidence_decay;
                self.metrics.quarantine_skips.with_label(&pair.label).inc();
                self.totals.quarantine_skips.inc();
                self.metrics
                    .confidence
                    .with_label(&pair.label)
                    .set(pair.quarantine_confidence);
                if self.tracer.is_enabled() {
                    self.tracer.event(
                        "supervisor",
                        "quarantine-skip",
                        format_args!(
                            "{} (confidence {:.3})",
                            pair.label, pair.quarantine_confidence
                        ),
                    );
                }
                probes.push(None);
                continue;
            };
            pair.retries += retries as u64;
            pair.backoff_waited_us += backoff_us;
            if retries > 0 {
                self.metrics
                    .retries
                    .with_label(&pair.label)
                    .inc_by(retries as u64);
                self.metrics
                    .backoff_us
                    .with_label(&pair.label)
                    .inc_by(backoff_us);
                if self.tracer.is_enabled() {
                    self.tracer.event(
                        "policy",
                        "retry-backoff",
                        format_args!(
                            "{}: {retries} retries, {backoff_us} µs scheduled at tick {tick}",
                            pair.label
                        ),
                    );
                }
            }
            probes.push(Some((retries, backoff_us)));
            jobs.push(Job {
                pair,
                input: Some(input),
            });
        }

        // Run every planned analysis under the watchdogs; a panicking job
        // is contained in its own slot.
        let results = threadpool::par_catch_map_mut(&mut jobs, |job| {
            let input = job.input.take().expect("input set at plan time");
            let start = Instant::now();
            let pushed = analyze(&mut job.pair.detector, input);
            let elapsed_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            (pushed, elapsed_us)
        });
        drop(jobs);

        // Bookkeeping — breakers, verdicts, recovery.
        let mut analysis_results = results.into_iter();
        let mut reports = Vec::with_capacity(self.pairs.len());
        for (idx, probe) in probes.into_iter().enumerate() {
            let Some((retries, backoff_us)) = probe else {
                let pair = &self.pairs[idx];
                reports.push(PairReport {
                    pair: idx,
                    label: pair.label.clone(),
                    outcome: PairOutcome::Skipped {
                        confidence: pair.quarantine_confidence,
                    },
                    health: pair.breaker.state(),
                    containment: pair.mitigation.state(),
                    retries: 0,
                    backoff_us: 0,
                });
                continue;
            };
            let result = analysis_results.next().expect("one result per planned job");
            let outcome = self.settle_pair(idx, tick, deadline_us, result);
            self.drive_mitigation(idx, tick, enforcer);
            let pair = &self.pairs[idx];
            reports.push(PairReport {
                pair: idx,
                label: pair.label.clone(),
                outcome,
                health: pair.breaker.state(),
                containment: pair.mitigation.state(),
                retries,
                backoff_us,
            });
        }
        self.metrics.contained_pairs.set(
            self.pairs
                .iter()
                .filter(|p| p.mitigation.state().is_active())
                .count() as f64,
        );

        self.tick = tick + 1;

        // Automatic checkpoint, if due. Every due tick attempts a full
        // durable checkpoint — while degraded that doubles as the heal
        // probe (success *is* the full re-persist) — and a storage fault
        // degrades durability to in-memory shadows instead of wedging or
        // silently no-opping.
        let mut checkpoint_generation = None;
        let mut checkpoint_error = None;
        if self.store.is_some()
            && self.config.checkpoint_every > 0
            && self.tick.is_multiple_of(self.config.checkpoint_every)
        {
            let (generation, error) = self.checkpoint_or_degrade();
            checkpoint_generation = generation;
            checkpoint_error = error;
        }

        let tick_elapsed_us = probed
            .probe_us
            .saturating_add(settle_started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        self.metrics.ticks.inc();
        self.metrics.tick_latency_us.observe(tick_elapsed_us as f64);
        self.totals.tick_latency_us.observe(tick_elapsed_us as f64);
        if self.tracer.is_enabled() {
            tick_span.detail(format_args!("tick {tick}: {} pairs", reports.len()));
        }
        drop(tick_span);

        TickReport {
            tick,
            reports,
            checkpoint_generation,
            checkpoint_error,
        }
    }

    /// Converts one pair's raw analysis result into its outcome, updating
    /// breaker, verdict, and recovery state.
    fn settle_pair(
        &mut self,
        idx: usize,
        tick: u64,
        deadline_us: u64,
        result: TimedAnalysis,
    ) -> PairOutcome {
        let label = self.pairs[idx].label.clone();
        let breaker_before = self.pairs[idx].breaker.state();
        let verdict_before = self.pairs[idx].last_verdict;
        let outcome = match result {
            Err(panic) => {
                let recovery = self.rebuild_detector(idx);
                let pair = &mut self.pairs[idx];
                pair.panics += 1;
                pair.failures += 1;
                pair.quarantine_confidence = 0.0;
                pair.breaker.record_failure(tick);
                self.metrics.panics.with_label(&label).inc();
                self.metrics.failures.with_label(&label).inc();
                self.metrics.recoveries.with_label(&label).inc();
                self.totals.recoveries.inc();
                if self.tracer.is_enabled() {
                    self.tracer.event(
                        "supervisor",
                        "panic-contained",
                        format_args!("{label}: {} ({recovery:?})", panic.message),
                    );
                }
                PairOutcome::Failed {
                    error: DetectorError::AnalysisPanicked {
                        context: label.clone(),
                        message: panic.message,
                    },
                    recovery,
                }
            }
            Ok((pushed, elapsed_us)) => {
                self.metrics.audit_latency_us.observe(elapsed_us as f64);
                self.metrics
                    .pair_audit_latency_us
                    .with_label(&label)
                    .observe(elapsed_us as f64);
                self.totals.audit_latency_us.observe(elapsed_us as f64);
                let pair = &mut self.pairs[idx];
                let deadline_missed = deadline_us > 0 && elapsed_us > deadline_us;
                match pushed {
                    Ok((mut status, observed)) => {
                        if pair.degraded && status.verdict == Verdict::Clean {
                            status.verdict = Verdict::Inconclusive;
                        }
                        pair.last_verdict = status.verdict;
                        pair.quarantine_confidence = status.confidence;
                        if deadline_missed {
                            pair.deadline_misses += 1;
                            pair.failures += 1;
                            pair.breaker.record_failure(tick);
                            self.metrics.deadline_misses.with_label(&label).inc();
                            self.metrics.failures.with_label(&label).inc();
                            self.metrics.degraded.with_label(&label).inc();
                            self.totals.degraded.inc();
                            if self.tracer.is_enabled() {
                                self.tracer.event(
                                    "supervisor",
                                    "deadline-miss",
                                    format_args!(
                                        "{label}: {elapsed_us} µs > {deadline_us} µs budget"
                                    ),
                                );
                            }
                            PairOutcome::Degraded {
                                status,
                                error: DetectorError::DeadlineExceeded {
                                    context: label.clone(),
                                    budget_us: deadline_us,
                                    elapsed_us,
                                },
                            }
                        } else if observed {
                            pair.breaker.record_success(tick);
                            self.metrics.analyzed.with_label(&label).inc();
                            self.totals.analyzed.inc();
                            PairOutcome::Analyzed(status)
                        } else {
                            // The window advanced with a gap: the analysis
                            // behaved, but the probe ultimately failed.
                            pair.failures += 1;
                            pair.breaker.record_failure(tick);
                            self.metrics.failures.with_label(&label).inc();
                            self.metrics.degraded.with_label(&label).inc();
                            self.totals.degraded.inc();
                            if self.tracer.is_enabled() {
                                self.tracer.event(
                                    "supervisor",
                                    "probe-gap",
                                    format_args!("{label}: probe missed after exhausting retries"),
                                );
                            }
                            PairOutcome::Degraded {
                                status,
                                error: DetectorError::BadHarvest {
                                    reason: "probe missed after exhausting retries".to_string(),
                                },
                            }
                        }
                    }
                    Err(error) => {
                        pair.failures += 1;
                        pair.breaker.record_failure(tick);
                        let mut status = push_gap(&mut pair.detector);
                        if pair.degraded && status.verdict == Verdict::Clean {
                            status.verdict = Verdict::Inconclusive;
                        }
                        pair.last_verdict = status.verdict;
                        pair.quarantine_confidence = status.confidence;
                        self.metrics.failures.with_label(&label).inc();
                        self.metrics.degraded.with_label(&label).inc();
                        self.totals.degraded.inc();
                        if self.tracer.is_enabled() {
                            self.tracer.event(
                                "supervisor",
                                "analysis-error",
                                format_args!("{label}: {error}"),
                            );
                        }
                        PairOutcome::Degraded { status, error }
                    }
                }
            }
        };
        let pair = &self.pairs[idx];
        let breaker_after = pair.breaker.state();
        if discriminant(&breaker_after) != discriminant(&breaker_before) {
            self.metrics.breaker_transitions.with_label(&label).inc();
            self.totals.breaker_transitions.inc();
        }
        // A quarantined pair leaving quarantine needs its two supervision
        // axes reconciled: without this, a contained pair re-enters full
        // auditing with a decayed confidence and stale verdict streaks
        // (double decay / instant re-escalation; see
        // `policy::reconcile_quarantine_recovery`).
        if let Some(reconciliation) = reconcile_quarantine_recovery(
            breaker_before,
            breaker_after,
            self.pairs[idx].mitigation.is_contained(),
        ) {
            let pair = &mut self.pairs[idx];
            pair.mitigation.reconcile_recovery(reconciliation);
            if reconciliation.restore_confidence {
                // `quarantine_confidence` already tracks the freshly
                // reported status on the success path; clamp out any
                // residue of the quarantine decay for the degraded paths.
                pair.quarantine_confidence = pair.quarantine_confidence.clamp(0.0, 1.0);
            }
            if self.tracer.is_enabled() {
                self.tracer.event(
                    "policy",
                    "quarantine-recovered",
                    format_args!(
                        "{label}: breaker closed, streaks {}",
                        if reconciliation.reset_covert_streak {
                            "reset (contained)"
                        } else {
                            "kept"
                        }
                    ),
                );
            }
        }
        let pair = &self.pairs[idx];
        if pair.last_verdict != verdict_before {
            self.metrics.verdict_flips.with_label(&label).inc();
            self.totals.verdict_flips.inc();
        }
        self.metrics
            .confidence
            .with_label(&label)
            .set(pair.quarantine_confidence);
        self.metrics
            .covert
            .with_label(&label)
            .set(if pair.last_verdict.is_covert() {
                1.0
            } else {
                0.0
            });
        self.metrics
            .quarantined
            .with_label(&label)
            .set(if breaker_after == BreakerState::Closed {
                0.0
            } else {
                1.0
            });
        outcome
    }

    /// Drives one pair's containment state machine with its settled
    /// verdict, actuating through `enforcer` and mirroring the outcome
    /// into metrics and traces.
    fn drive_mitigation<E: MitigationEnforcer + ?Sized>(
        &mut self,
        idx: usize,
        tick: u64,
        enforcer: &mut E,
    ) {
        let covert = self.pairs[idx].last_verdict.is_covert();
        let seed = self.config.seed;
        let label = self.pairs[idx].label.clone();
        let report = self.pairs[idx]
            .mitigation
            .drive(covert, tick, seed, idx, enforcer);
        if report.applied > 0 {
            self.metrics
                .mitigations_applied
                .with_label(&label)
                .inc_by(report.applied as u64);
        }
        if report.apply_failures > 0 {
            self.metrics
                .mitigation_failures
                .with_label(&label)
                .inc_by(report.apply_failures as u64);
        }
        if report.step_downs > 0 {
            self.metrics
                .mitigation_stepdowns
                .with_label(&label)
                .inc_by(report.step_downs as u64);
        }
        if report.escalations > 0 {
            self.metrics
                .mitigation_escalations
                .with_label(&label)
                .inc_by(report.escalations as u64);
            if self.tracer.is_enabled() {
                let mut span = self.tracer.span("mitigation", "escalate");
                span.detail(format_args!(
                    "{label}: {} rung(s) at tick {tick} -> {}",
                    report.escalations, report.state
                ));
            }
        }
        self.metrics
            .containment_level
            .with_label(&label)
            .set(report.state.level().map_or(0.0, |l| f64::from(l.rank())));
        if self.tracer.is_enabled() {
            if report.convicted {
                self.tracer.event(
                    "mitigation",
                    "convicted",
                    format_args!("{label}: covert streak reached at tick {tick}"),
                );
            }
            if report.step_downs > 0 {
                self.tracer.event(
                    "mitigation",
                    "step-down",
                    format_args!("{label}: -> {} at tick {tick}", report.state),
                );
            }
            if report.stuck {
                self.tracer.event(
                    "mitigation",
                    "stuck",
                    format_args!("{label}: ladder exhausted, top rung not in force at tick {tick}"),
                );
            }
        }
    }

    /// Feeds a post-mitigation re-measurement into `pair`'s containment
    /// policy: `residual_fraction` is the channel's goodput as a fraction
    /// of its unmitigated baseline, `overhead_fraction` the benign
    /// co-runner slowdown (see [`ResidualProbe`](crate::ResidualProbe)).
    /// A residual under the configured cap lets the policy step the ladder
    /// down; one above it escalates.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range pair
    /// index or a non-finite fraction.
    pub fn report_residual(
        &mut self,
        pair: usize,
        residual_fraction: f64,
        overhead_fraction: f64,
    ) -> Result<(), DetectorError> {
        if !residual_fraction.is_finite() || !overhead_fraction.is_finite() {
            return Err(DetectorError::InvalidConfig {
                reason: "residual and overhead fractions must be finite".to_string(),
            });
        }
        let tick = self.tick;
        let pair = self
            .pairs
            .get_mut(pair)
            .ok_or_else(|| DetectorError::InvalidConfig {
                reason: format!("no supervised pair {pair}"),
            })?;
        pair.mitigation
            .record_residual(crate::mitigation::ResidualReading {
                residual_fraction: residual_fraction.clamp(0.0, 1.0),
                overhead_fraction: overhead_fraction.clamp(0.0, 1.0),
                tick,
            });
        if self.tracer.is_enabled() {
            self.tracer.event(
                "mitigation",
                "residual",
                format_args!(
                    "{}: residual {:.3} of baseline, overhead {:.3}",
                    pair.label, residual_fraction, overhead_fraction
                ),
            );
        }
        Ok(())
    }

    /// One pair's containment standing (None for an out-of-range index).
    pub fn containment(&self, pair: usize) -> Option<ContainmentState> {
        self.pairs.get(pair).map(|p| p.mitigation.state())
    }

    /// One pair's detection-to-containment latency in ticks, once the
    /// current episode's first rung has taken force.
    pub fn containment_latency_ticks(&self, pair: usize) -> Option<u64> {
        self.pairs
            .get(pair)
            .and_then(|p| p.mitigation.containment_latency_ticks())
    }

    /// Brings a panicked pair's detector back: from the store when
    /// possible, otherwise a fresh (empty-window) daemon. Never fails —
    /// a rebuild error degrades to the reset path.
    fn rebuild_detector(&mut self, idx: usize) -> Recovery {
        let kind = self.pairs[idx].kind;
        if let Some(store) = &self.store {
            if let Ok(Some(loaded)) = store.load_latest(&pair_entry_name(idx)) {
                let restored = match kind {
                    PairKind::Contention => OnlineContentionDetector::restore(
                        self.config.hunter,
                        loaded.payload.as_slice(),
                    )
                    .map(PairDetector::Contention),
                    PairKind::Oscillation => OnlineOscillationDetector::restore(
                        self.config.hunter,
                        loaded.payload.as_slice(),
                    )
                    .map(PairDetector::Oscillation),
                };
                if let Ok(detector) = restored {
                    self.pairs[idx].detector = detector;
                    self.pairs[idx].restored_from = Some(RestoredFrom {
                        generation: loaded.generation,
                        rolled_back: loaded.rolled_back,
                    });
                    return Recovery::RestoredFromStore {
                        generation: loaded.generation,
                    };
                }
            }
        }
        let fresh = self
            .fresh_detector(kind)
            .expect("config validated at construction");
        self.pairs[idx].detector = fresh;
        Recovery::Reset
    }

    /// The fleet's current standing, pair by pair.
    pub fn pair_statuses(&self) -> Vec<PairStatus> {
        self.pairs
            .iter()
            .enumerate()
            .map(|(index, pair)| PairStatus {
                index,
                label: pair.label.clone(),
                kind: pair.kind,
                health: pair.breaker.state(),
                failure_rate: pair.breaker.failure_rate(),
                verdict: pair.last_verdict,
                containment: pair.mitigation.state(),
                restored_from: pair.restored_from,
                degraded: pair.degraded,
                failures: pair.failures,
                panics: pair.panics,
                deadline_misses: pair.deadline_misses,
                retries: pair.retries,
            })
            .collect()
    }

    /// Whether `pair` runs in degraded mode (None for an out-of-range
    /// index).
    pub fn is_degraded(&self, pair: usize) -> Option<bool> {
        self.pairs.get(pair).map(|p| p.degraded)
    }

    /// Marks `pair` degraded (or lifts the mark): while degraded, the
    /// pair's Clean verdicts floor to [`Verdict::Inconclusive`] because
    /// its window provenance is untrusted. The supervision layers set this
    /// when a pair is imported without a recoverable checkpoint; lifting
    /// it is an operator decision.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range index.
    pub(crate) fn set_degraded(
        &mut self,
        pair: usize,
        degraded: bool,
    ) -> Result<(), DetectorError> {
        let entry = self
            .pairs
            .get_mut(pair)
            .ok_or_else(|| DetectorError::InvalidConfig {
                reason: format!("no supervised pair {pair}"),
            })?;
        entry.degraded = degraded;
        if degraded && entry.last_verdict == Verdict::Clean {
            entry.last_verdict = Verdict::Inconclusive;
        }
        Ok(())
    }

    /// Durably checkpoints the whole fleet (every pair's window plus the
    /// manifest) to the attached store. Returns the manifest's new
    /// generation.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] when no store is attached
    /// and any store/serialization error. A failed checkpoint never
    /// corrupts previously stored generations (every write is atomic).
    pub fn checkpoint(&self) -> Result<u64, DetectorError> {
        let store = self.store.as_ref().ok_or(DetectorError::InvalidConfig {
            reason: "no checkpoint store attached".to_string(),
        })?;
        let entries = self.build_checkpoint_entries()?;
        let mut generation = 0;
        for (name, payload) in &entries {
            // The manifest is last in the entry list, so the returned
            // generation is the manifest's.
            generation = store.save(name, payload)?;
        }
        // Drop a Prometheus-text metrics dump next to the checkpoint so the
        // fleet's last known state is scrapeable post-mortem.
        store.write_sidecar("metrics.prom", self.registry.render_prometheus().as_bytes())?;
        self.metrics.checkpoints.inc();
        self.totals.checkpoints.inc();
        if self.tracer.is_enabled() {
            self.tracer.event(
                "supervisor",
                "checkpoint",
                format_args!("generation {generation} at tick {}", self.tick),
            );
        }
        Ok(generation)
    }

    /// Serializes everything one durable checkpoint writes — every pair's
    /// window, then the manifest (always last) — without touching storage.
    /// The shared substrate of [`Supervisor::checkpoint`] and the shadow
    /// checkpoints of durability-degraded mode.
    fn build_checkpoint_entries(&self) -> Result<Vec<(String, Vec<u8>)>, DetectorError> {
        let mut entries = Vec::with_capacity(self.pairs.len() + 1);
        for (idx, pair) in self.pairs.iter().enumerate() {
            let mut payload = Vec::new();
            match &pair.detector {
                PairDetector::Contention(d) => d.checkpoint(&mut payload)?,
                PairDetector::Oscillation(d) => d.checkpoint(&mut payload)?,
            }
            entries.push((pair_entry_name(idx), payload));
        }
        let mut manifest = String::new();
        manifest.push_str(MANIFEST_MAGIC);
        manifest.push('\n');
        manifest.push_str(&format!("tick,{}\n", self.tick));
        manifest.push_str(&format!("pairs,{}\n", self.pairs.len()));
        for (idx, pair) in self.pairs.iter().enumerate() {
            manifest.push_str(&format!(
                "pair,{idx},{},{},{},{},{},{},{},{}\n",
                pair.kind,
                pair.breaker.serialize(),
                pair.quarantine_confidence,
                pair.failures,
                pair.panics,
                pair.deadline_misses,
                pair.retries,
                pair.label
            ));
            // Containment state rides in its own tagged line (after its
            // pair line) so v1 manifests without it still parse.
            manifest.push_str(&format!("mit,{idx},{}\n", pair.mitigation.serialize()));
            // Degraded mode likewise: optional, absent in older manifests.
            if pair.degraded {
                manifest.push_str(&format!("deg,{idx}\n"));
            }
        }
        manifest.push_str("end\n");
        entries.push((MANIFEST_NAME.to_string(), manifest.into_bytes()));
        Ok(entries)
    }

    /// The Phase-4 checkpoint attempt with durability-degraded fallback:
    /// on success (re-)enters [`Durability::Durable`] (a success while
    /// degraded *is* the full re-persist — every pair plus the manifest
    /// was just rewritten); on a storage fault enters or stays in
    /// [`Durability::Degraded`] and takes an in-memory shadow checkpoint
    /// so the freshest fleet state still survives as long as the process
    /// does. Non-storage errors (serialization bugs) only count as
    /// checkpoint errors — they say nothing about the medium.
    fn checkpoint_or_degrade(&mut self) -> (Option<u64>, Option<String>) {
        match self.checkpoint() {
            Ok(generation) => {
                if let Durability::Degraded { since_tick } = self.durability {
                    self.durability = Durability::Durable;
                    self.shadow = None;
                    self.metrics.durability_degraded.set(0.0);
                    self.metrics.durability_heals.inc();
                    self.totals.durability_heals.inc();
                    if self.tracer.is_enabled() {
                        self.tracer.event(
                            "supervisor",
                            "durability-healed",
                            format_args!(
                                "full re-persist at tick {} (degraded since tick {since_tick})",
                                self.tick
                            ),
                        );
                    }
                }
                (Some(generation), None)
            }
            Err(e) => {
                self.metrics.checkpoint_errors.inc();
                self.totals.checkpoint_errors.inc();
                if self.tracer.is_enabled() {
                    self.tracer.event("supervisor", "checkpoint-error", &e);
                }
                if matches!(e, DetectorError::StorageFault { .. }) {
                    if !self.durability.is_degraded() {
                        self.durability = Durability::Degraded {
                            since_tick: self.tick,
                        };
                        self.metrics.durability_degraded.set(1.0);
                        if self.tracer.is_enabled() {
                            self.tracer.event(
                                "supervisor",
                                "durability-degraded",
                                format_args!("checkpoints shadow-only from tick {}", self.tick),
                            );
                        }
                    }
                    // The failed durable attempt may have persisted a prefix
                    // of the pairs; the shadow holds the complete set.
                    if let Ok(entries) = self.build_checkpoint_entries() {
                        self.shadow = Some(ShadowCheckpoint {
                            tick: self.tick,
                            entries,
                        });
                        self.metrics.shadow_checkpoints.inc();
                        self.totals.shadow_checkpoints.inc();
                    }
                }
                (None, Some(e.to_string()))
            }
        }
    }

    /// Whether checkpoints are currently landing durably or shadow-only.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// The tick of the freshest in-memory shadow checkpoint, when storage
    /// is (or recently was) degraded.
    pub fn shadow_checkpoint_tick(&self) -> Option<u64> {
        self.shadow.as_ref().map(|s| s.tick)
    }

    /// The freshest shadow checkpoint's entries — exactly what a durable
    /// checkpoint would have written (`pair-NNNN` payloads then the
    /// manifest) — so an operator can spool fleet state to a healthy
    /// medium while the primary one browns out.
    pub fn shadow_checkpoint_entries(&self) -> Option<&[(String, Vec<u8>)]> {
        self.shadow.as_ref().map(|s| s.entries.as_slice())
    }

    /// Removes `pair` from this fleet and returns its portable snapshot
    /// (the drain/rebalance primitive: export, then excise). The removal
    /// is `swap_remove` — the *last* pair takes the removed pair's index,
    /// and the caller owns fixing any external index maps.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range index
    /// and propagates window-serialization errors (in which case the pair
    /// is *not* removed).
    pub(crate) fn remove_pair(&mut self, pair: usize) -> Result<PairSnapshot, DetectorError> {
        let snapshot = self.export_pair(pair)?;
        self.pairs.swap_remove(pair);
        Ok(snapshot)
    }

    /// Exports one pair's portable state (see [`PairSnapshot`]) for
    /// migration to another fleet. The source pair is left untouched;
    /// removing it (usually by dropping the whole dead fleet) is the
    /// caller's concern.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an out-of-range index
    /// and propagates window-serialization errors.
    pub(crate) fn export_pair(&self, pair: usize) -> Result<PairSnapshot, DetectorError> {
        let p = self
            .pairs
            .get(pair)
            .ok_or_else(|| DetectorError::InvalidConfig {
                reason: format!("no supervised pair {pair}"),
            })?;
        let mut window = Vec::new();
        match &p.detector {
            PairDetector::Contention(d) => d.checkpoint(&mut window)?,
            PairDetector::Oscillation(d) => d.checkpoint(&mut window)?,
        }
        Ok(PairSnapshot {
            label: p.label.clone(),
            kind: p.kind,
            window: Some(window),
            breaker: p.breaker.serialize(),
            mitigation: p.mitigation.serialize(),
            quarantine_confidence: p.quarantine_confidence,
            degraded: p.degraded,
            provenance: p.restored_from,
            failures: p.failures,
            panics: p.panics,
            deadline_misses: p.deadline_misses,
            retries: p.retries,
        })
    }

    /// Imports a migrated pair into this fleet, appending it at the next
    /// index and seeding its per-pair instruments. A snapshot without a
    /// window (or marked degraded) comes in with a fresh empty window and
    /// runs degraded — its Clean verdicts floor to
    /// [`Verdict::Inconclusive`]. An imported active containment is
    /// re-asserted through this fleet's enforcer on the next tick.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::CheckpointMismatch`] when the snapshot's
    /// breaker/containment state cannot be decoded under this fleet's
    /// config, or its window fails validation (wrong kind or capacity) —
    /// callers that must not lose the pair retry with
    /// [`PairSnapshot::degrade`].
    pub(crate) fn import_pair(&mut self, snapshot: PairSnapshot) -> Result<usize, DetectorError> {
        let breaker = CircuitBreaker::deserialize(self.config.quarantine, &snapshot.breaker)
            .ok_or_else(|| DetectorError::CheckpointMismatch {
                reason: format!("pair {:?}: undecodable breaker state", snapshot.label),
            })?;
        let mitigation =
            MitigationPolicy::deserialize(self.config.mitigation, &snapshot.mitigation)
                .ok_or_else(|| DetectorError::CheckpointMismatch {
                    reason: format!("pair {:?}: undecodable containment state", snapshot.label),
                })?;
        let (detector, degraded) = match &snapshot.window {
            Some(payload) if !snapshot.degraded => {
                let detector = match snapshot.kind {
                    PairKind::Contention => PairDetector::Contention(
                        OnlineContentionDetector::restore(self.config.hunter, payload.as_slice())?,
                    ),
                    PairKind::Oscillation => PairDetector::Oscillation(
                        OnlineOscillationDetector::restore(self.config.hunter, payload.as_slice())?,
                    ),
                };
                let capacity = match &detector {
                    PairDetector::Contention(d) => d.capacity(),
                    PairDetector::Oscillation(d) => d.capacity(),
                };
                let expected = self.config.window_quanta.min(512);
                if capacity != expected {
                    return Err(DetectorError::CheckpointMismatch {
                        reason: format!(
                            "pair {:?}: window capacity {capacity} does not match the configured {expected}",
                            snapshot.label
                        ),
                    });
                }
                (detector, false)
            }
            _ => (self.fresh_detector(snapshot.kind)?, true),
        };
        self.pairs.push(Pair {
            label: snapshot.label,
            kind: snapshot.kind,
            detector,
            breaker,
            mitigation,
            quarantine_confidence: if degraded {
                0.0
            } else {
                snapshot.quarantine_confidence
            },
            // Until the adoptive fleet's first analysis, the pair's
            // standing is unknown here — reporting Clean would let a
            // migration silently acquit a convicted pair.
            last_verdict: Verdict::Inconclusive,
            restored_from: snapshot.provenance,
            degraded,
            failures: snapshot.failures,
            panics: snapshot.panics,
            deadline_misses: snapshot.deadline_misses,
            retries: snapshot.retries,
            backoff_waited_us: 0,
        });
        let idx = self.pairs.len() - 1;
        self.seed_pair_metrics(&self.pairs[idx]);
        if self.tracer.is_enabled() {
            self.tracer.event(
                "supervisor",
                "pair-imported",
                format_args!(
                    "{} as pair {idx}{}",
                    self.pairs[idx].label,
                    if degraded { " (degraded)" } else { "" }
                ),
            );
        }
        Ok(idx)
    }

    /// Reads every pair of a (possibly dead) fleet out of its checkpoint
    /// store without constructing a `Supervisor`, in the dead fleet's pair
    /// order: the newest valid manifest generation, then every listed
    /// pair's newest valid window, rolling back over corrupt generations.
    /// Pairs whose windows are unrecoverable are returned without a window
    /// (forcing a degraded import), never dropped — the migration path's
    /// zero-lost-pairs guarantee starts here.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::CheckpointMismatch`] when the store has no
    /// manifest at all, manifest parse errors, and config-validation
    /// errors; per-pair window failures degrade instead of erroring.
    pub(crate) fn recover_pairs(
        config: &SupervisorConfig,
        store: &CheckpointStore,
    ) -> Result<Vec<PairSnapshot>, DetectorError> {
        config.mitigation.validate()?;
        let loaded =
            store
                .load_latest(MANIFEST_NAME)?
                .ok_or(DetectorError::CheckpointMismatch {
                    reason: "store has no supervisor manifest".to_string(),
                })?;
        let manifest = parse_manifest(&loaded.payload, config.quarantine, config.mitigation)?;
        let fallback_policy = MitigationPolicy::new(config.mitigation)?;
        let mut pairs = Vec::with_capacity(manifest.pairs.len());
        for (idx, entry) in manifest.pairs.into_iter().enumerate() {
            let (window, provenance) = match store.load_latest(&pair_entry_name(idx)) {
                Ok(Some(l)) => {
                    let provenance = RestoredFrom {
                        generation: l.generation,
                        rolled_back: l.rolled_back,
                    };
                    (Some(l.payload), Some(provenance))
                }
                Ok(None) | Err(_) => (None, None),
            };
            let degraded = entry.degraded || window.is_none();
            pairs.push(PairSnapshot {
                label: entry.label,
                kind: entry.kind,
                window,
                breaker: entry.breaker.serialize(),
                mitigation: entry
                    .mitigation
                    .as_ref()
                    .unwrap_or(&fallback_policy)
                    .serialize(),
                quarantine_confidence: entry.quarantine_confidence,
                degraded,
                provenance,
                failures: entry.failures,
                panics: entry.panics,
                deadline_misses: entry.deadline_misses,
                retries: entry.retries,
            });
        }
        Ok(pairs)
    }

    /// This fleet's private latency totals (audit, tick) for hierarchical
    /// rollups.
    pub(crate) fn totals_latency(&self) -> (&Histogram, &Histogram) {
        (&self.totals.audit_latency_us, &self.totals.tick_latency_us)
    }

    /// A point-in-time numeric digest of this fleet's health. Monotonic
    /// event totals survive checkpoint/restore (re-seeded from the
    /// manifest); latency distributions restart per process.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut failures = 0u64;
        let mut panics = 0u64;
        let mut deadline_misses = 0u64;
        let mut retries = 0u64;
        let mut quarantined_pairs = 0usize;
        let mut covert_pairs = 0usize;
        let mut contained_pairs = 0usize;
        let mut confidence_sum = 0.0f64;
        let mut mitigations_applied = 0u64;
        let mut mitigation_failures = 0u64;
        let mut mitigation_escalations = 0u64;
        let mut mitigation_stepdowns = 0u64;
        for pair in &self.pairs {
            failures += pair.failures;
            panics += pair.panics;
            deadline_misses += pair.deadline_misses;
            retries += pair.retries;
            if pair.breaker.state() != BreakerState::Closed {
                quarantined_pairs += 1;
            }
            if pair.last_verdict.is_covert() {
                covert_pairs += 1;
            }
            if pair.mitigation.state().is_active() {
                contained_pairs += 1;
            }
            mitigations_applied += pair.mitigation.applies();
            mitigation_failures += pair.mitigation.apply_failures();
            mitigation_escalations += pair.mitigation.escalations();
            mitigation_stepdowns += pair.mitigation.step_downs();
            confidence_sum += pair.quarantine_confidence;
        }
        MetricsSnapshot {
            ticks: self.tick,
            pairs: self.pairs.len(),
            quarantined_pairs,
            covert_pairs,
            contained_pairs,
            analyzed: self.totals.analyzed.get(),
            degraded: self.totals.degraded.get(),
            failures,
            panics,
            deadline_misses,
            retries,
            quarantine_skips: self.totals.quarantine_skips.get(),
            verdict_flips: self.totals.verdict_flips.get(),
            breaker_transitions: self.totals.breaker_transitions.get(),
            recoveries: self.totals.recoveries.get(),
            mitigations_applied,
            mitigation_failures,
            mitigation_escalations,
            mitigation_stepdowns,
            checkpoints: self.totals.checkpoints.get(),
            checkpoint_errors: self.totals.checkpoint_errors.get(),
            restore_rollbacks: self.totals.restore_rollbacks.get(),
            durability_degraded: self.durability.is_degraded(),
            shadow_checkpoints: self.totals.shadow_checkpoints.get(),
            durability_heals: self.totals.durability_heals.get(),
            mean_confidence: if self.pairs.is_empty() {
                0.0
            } else {
                confidence_sum / self.pairs.len() as f64
            },
            ingest: self.ingest_totals(),
            audit_latency: LatencySummary::from_histogram(&self.totals.audit_latency_us),
            tick_latency: LatencySummary::from_histogram(&self.totals.tick_latency_us),
        }
    }

    /// Sums every attached [`IngestStats`] handle into one digest.
    fn ingest_totals(&self) -> IngestSnapshot {
        let mut out = IngestSnapshot::default();
        for stats in &self.ingest_stats {
            out.events_offered += stats.events_offered.get();
            out.events_shed += stats.events_shed.get();
            out.events_repaired += stats.events_repaired.get();
            out.events_dropped += stats.events_dropped.get();
            out.saturated_quanta += stats.saturated_quanta.get();
            out.quanta += stats.quanta.get();
            out.partial_harvests += stats.partial_harvests.get();
            out.missed_harvests += stats.missed_harvests.get();
        }
        out
    }

    /// The whole fleet's standing for a monitoring page: tick counter,
    /// per-pair table, and the numeric digest.
    pub fn fleet_status(&self) -> FleetStatus {
        FleetStatus {
            tick: self.tick,
            pairs: self.pair_statuses(),
            durability: self.durability,
            metrics: self.metrics_snapshot(),
        }
    }

    /// Restores a whole fleet from `store`: loads the newest valid
    /// manifest generation, then every pair's newest valid window, rolling
    /// back over corrupt generations and reporting the provenance of
    /// everything that was loaded.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::CorruptCheckpoint`] when an entry exists
    /// but no generation validates, [`DetectorError::CheckpointMismatch`]
    /// when the stored state is incompatible with `config` (e.g. a window
    /// capacity that differs from `config.window_quanta`), and
    /// [`DetectorError::Trace`] on manifest parse failures. The recovery
    /// path never panics.
    pub fn restore(
        config: SupervisorConfig,
        store: CheckpointStore,
    ) -> Result<(Self, RestoreReport), DetectorError> {
        Self::restore_with_registry(config, store, default_registry())
    }

    /// Like [`Supervisor::restore`], but binds the restored fleet's
    /// instruments to `registry` instead of the process-wide default.
    /// Persisted monotonic counters (failures, panics, deadline misses,
    /// retries, the tick count) re-seed their instruments so scrapes stay
    /// monotonic across the crash.
    ///
    /// # Errors
    ///
    /// As for [`Supervisor::restore`].
    pub fn restore_with_registry(
        config: SupervisorConfig,
        store: CheckpointStore,
        registry: Registry,
    ) -> Result<(Self, RestoreReport), DetectorError> {
        let mut fleet = Supervisor::new(config)?.with_registry(registry);
        let loaded =
            store
                .load_latest(MANIFEST_NAME)?
                .ok_or(DetectorError::CheckpointMismatch {
                    reason: "store has no supervisor manifest".to_string(),
                })?;
        let manifest_from = RestoredFrom {
            generation: loaded.generation,
            rolled_back: loaded.rolled_back,
        };
        let manifest = parse_manifest(&loaded.payload, config.quarantine, config.mitigation)?;
        fleet.tick = manifest.tick;

        let mut pair_provenance = Vec::with_capacity(manifest.pairs.len());
        for (idx, entry) in manifest.pairs.into_iter().enumerate() {
            let pair_loaded = store.load_latest(&pair_entry_name(idx))?.ok_or_else(|| {
                DetectorError::CheckpointMismatch {
                    reason: format!("manifest lists pair {idx} but the store has no window for it"),
                }
            })?;
            let detector = match entry.kind {
                PairKind::Contention => {
                    PairDetector::Contention(OnlineContentionDetector::restore(
                        config.hunter,
                        pair_loaded.payload.as_slice(),
                    )?)
                }
                PairKind::Oscillation => {
                    PairDetector::Oscillation(OnlineOscillationDetector::restore(
                        config.hunter,
                        pair_loaded.payload.as_slice(),
                    )?)
                }
            };
            let capacity = match &detector {
                PairDetector::Contention(d) => d.capacity(),
                PairDetector::Oscillation(d) => d.capacity(),
            };
            let expected = config.window_quanta.min(512);
            if capacity != expected {
                return Err(DetectorError::CheckpointMismatch {
                    reason: format!(
                        "pair {idx} window capacity {capacity} does not match the configured {expected}"
                    ),
                });
            }
            let restored_from = RestoredFrom {
                generation: pair_loaded.generation,
                rolled_back: pair_loaded.rolled_back,
            };
            fleet.pairs.push(Pair {
                label: entry.label,
                kind: entry.kind,
                detector,
                breaker: entry.breaker,
                // Pre-mitigation (v1) manifests restore with an idle
                // policy; an active containment comes back flagged for
                // re-assertion through the enforcer.
                mitigation: entry.mitigation.unwrap_or(
                    MitigationPolicy::new(config.mitigation)
                        .expect("mitigation config validated at construction"),
                ),
                quarantine_confidence: entry.quarantine_confidence,
                // A degraded pair must not come back silently Clean.
                last_verdict: if entry.degraded {
                    Verdict::Inconclusive
                } else {
                    Verdict::Clean
                },
                restored_from: Some(restored_from),
                degraded: entry.degraded,
                failures: entry.failures,
                panics: entry.panics,
                deadline_misses: entry.deadline_misses,
                retries: entry.retries,
                backoff_waited_us: 0,
            });
            pair_provenance.push(restored_from);
        }
        fleet.store = Some(store);
        let report = RestoreReport {
            manifest: manifest_from,
            pairs: pair_provenance,
        };
        fleet.seed_restored_metrics(&report);
        Ok((fleet, report))
    }

    /// Re-seeds registered instruments from counters that survived in the
    /// manifest, so a restored fleet's scrape picks up where the crashed
    /// one left off. `Counter::seed` is a max-merge, so re-seeding into a
    /// registry that already saw this fleet never double-counts.
    fn seed_restored_metrics(&self, report: &RestoreReport) {
        self.metrics.ticks.seed(self.tick);
        let rolled_back = report.total_rolled_back() as u64;
        if rolled_back > 0 {
            self.metrics.restore_rollbacks.inc_by(rolled_back);
            self.totals.restore_rollbacks.inc_by(rolled_back);
        }
        for pair in &self.pairs {
            self.seed_pair_metrics(pair);
        }
        self.metrics.contained_pairs.set(
            self.pairs
                .iter()
                .filter(|p| p.mitigation.state().is_active())
                .count() as f64,
        );
        if self.tracer.is_enabled() {
            self.tracer.event(
                "supervisor",
                "restore",
                format_args!(
                    "{} pairs at tick {}, {rolled_back} generations rolled back",
                    self.pairs.len(),
                    self.tick
                ),
            );
        }
    }

    /// Seeds one pair's per-pair instruments from its persisted counters
    /// and current state — shared by whole-fleet restore and single-pair
    /// import. `Counter::seed` is a max-merge, so re-seeding never
    /// double-counts.
    fn seed_pair_metrics(&self, pair: &Pair) {
        self.metrics
            .failures
            .with_label(&pair.label)
            .seed(pair.failures);
        self.metrics
            .panics
            .with_label(&pair.label)
            .seed(pair.panics);
        self.metrics
            .deadline_misses
            .with_label(&pair.label)
            .seed(pair.deadline_misses);
        self.metrics
            .retries
            .with_label(&pair.label)
            .seed(pair.retries);
        self.metrics
            .confidence
            .with_label(&pair.label)
            .set(pair.quarantine_confidence);
        self.metrics.quarantined.with_label(&pair.label).set(
            if pair.breaker.state() == BreakerState::Closed {
                0.0
            } else {
                1.0
            },
        );
        self.metrics
            .mitigations_applied
            .with_label(&pair.label)
            .seed(pair.mitigation.applies());
        self.metrics
            .mitigation_failures
            .with_label(&pair.label)
            .seed(pair.mitigation.apply_failures());
        self.metrics
            .mitigation_escalations
            .with_label(&pair.label)
            .seed(pair.mitigation.escalations());
        self.metrics
            .mitigation_stepdowns
            .with_label(&pair.label)
            .seed(pair.mitigation.step_downs());
        self.metrics.containment_level.with_label(&pair.label).set(
            pair.mitigation
                .state()
                .level()
                .map_or(0.0, |l| f64::from(l.rank())),
        );
    }
}

fn pair_entry_name(idx: usize) -> String {
    format!("pair-{idx:04}")
}

/// Runs one input through a pair's detector. The bool reports whether the
/// quantum was actually observed (false = gap). May panic only for
/// [`ChaosOp::Panic`] — which the caller contains.
fn analyze(
    detector: &mut PairDetector,
    input: PairInput,
) -> Result<(OnlineStatus, bool), DetectorError> {
    match (detector, input) {
        (PairDetector::Contention(d), PairInput::Harvest(h)) => {
            let observed = !matches!(h, Harvest::Missed);
            Ok((d.push_quantum(h), observed))
        }
        (
            PairDetector::Oscillation(d),
            PairInput::Conflicts {
                records,
                lost_fraction,
            },
        ) => Ok((d.push_quantum_degraded(&records, lost_fraction), true)),
        (PairDetector::Contention(d), PairInput::Missed) => {
            Ok((d.push_quantum(Harvest::Missed), false))
        }
        (PairDetector::Oscillation(d), PairInput::Missed) => Ok((d.push_missed(), false)),
        (_, PairInput::Chaos(ChaosOp::Panic)) => {
            panic!("chaos: injected analysis panic")
        }
        (d, PairInput::Chaos(ChaosOp::StallUs(us))) => {
            std::thread::sleep(std::time::Duration::from_micros(us));
            Ok((push_gap(d), false))
        }
        (PairDetector::Contention(_), PairInput::Conflicts { .. }) => {
            Err(DetectorError::BadHarvest {
                reason: "conflict records delivered to a contention pair".to_string(),
            })
        }
        (PairDetector::Oscillation(_), PairInput::Harvest(_)) => Err(DetectorError::BadHarvest {
            reason: "density harvest delivered to an oscillation pair".to_string(),
        }),
    }
}

/// Advances a pair's window with a zero-observation gap.
fn push_gap(detector: &mut PairDetector) -> OnlineStatus {
    match detector {
        PairDetector::Contention(d) => d.push_quantum(Harvest::Missed),
        PairDetector::Oscillation(d) => d.push_missed(),
    }
}

struct ManifestPair {
    kind: PairKind,
    breaker: CircuitBreaker,
    mitigation: Option<MitigationPolicy>,
    quarantine_confidence: f64,
    degraded: bool,
    failures: u64,
    panics: u64,
    deadline_misses: u64,
    retries: u64,
    label: String,
}

struct Manifest {
    tick: u64,
    pairs: Vec<ManifestPair>,
}

fn manifest_error(line: usize, reason: impl Into<String>) -> DetectorError {
    DetectorError::Trace(crate::trace::TraceError::Parse {
        line,
        reason: reason.into(),
    })
}

fn parse_manifest(
    payload: &[u8],
    quarantine: QuarantineConfig,
    mitigation: MitigationConfig,
) -> Result<Manifest, DetectorError> {
    let mut tick: Option<u64> = None;
    let mut declared_pairs: Option<usize> = None;
    let mut pairs: Vec<ManifestPair> = Vec::new();
    let mut saw_magic = false;
    let mut saw_end = false;
    for (idx, line) in BufReader::new(payload).lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| manifest_error(line_no, format!("unreadable line: {e}")))?;
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        if !saw_magic {
            if text != MANIFEST_MAGIC {
                return Err(manifest_error(
                    line_no,
                    format!("expected {MANIFEST_MAGIC:?} magic, got {text:?}"),
                ));
            }
            saw_magic = true;
            continue;
        }
        if text == "end" {
            saw_end = true;
            break;
        }
        let (tag, rest) = text.split_once(',').unwrap_or((text, ""));
        match tag {
            "tick" => {
                tick = Some(
                    rest.trim()
                        .parse()
                        .map_err(|e| manifest_error(line_no, format!("bad tick {rest:?}: {e}")))?,
                );
            }
            "pairs" => {
                let n: usize = rest.trim().parse().map_err(|e| {
                    manifest_error(line_no, format!("bad pair count {rest:?}: {e}"))
                })?;
                if n > 65_536 {
                    return Err(manifest_error(
                        line_no,
                        format!("absurd pair count {n} (limit 65536)"),
                    ));
                }
                declared_pairs = Some(n);
            }
            "pair" => {
                // pair,<idx>,<kind>,<breaker>,<confidence>,
                //      <failures>,<panics>,<deadline-misses>,<retries>,<label…>
                let mut fields = rest.splitn(9, ',');
                let idx_field: usize = fields
                    .next()
                    .unwrap_or("")
                    .trim()
                    .parse()
                    .map_err(|e| manifest_error(line_no, format!("bad pair index: {e}")))?;
                if idx_field != pairs.len() {
                    return Err(manifest_error(
                        line_no,
                        format!(
                            "pair index {idx_field} out of order (expected {})",
                            pairs.len()
                        ),
                    ));
                }
                let kind = match fields.next().unwrap_or("").trim() {
                    "contention" => PairKind::Contention,
                    "oscillation" => PairKind::Oscillation,
                    other => {
                        return Err(manifest_error(
                            line_no,
                            format!("unknown pair kind {other:?}"),
                        ))
                    }
                };
                let breaker_field = fields.next().unwrap_or("");
                let breaker =
                    CircuitBreaker::deserialize(quarantine, breaker_field).ok_or_else(|| {
                        manifest_error(line_no, format!("bad breaker state {breaker_field:?}"))
                    })?;
                let confidence: f64 = fields
                    .next()
                    .unwrap_or("")
                    .trim()
                    .parse()
                    .map_err(|e| manifest_error(line_no, format!("bad confidence: {e}")))?;
                if !(0.0..=1.0).contains(&confidence) {
                    return Err(manifest_error(
                        line_no,
                        format!("confidence {confidence} out of [0, 1]"),
                    ));
                }
                let mut counter = |what: &str| -> Result<u64, DetectorError> {
                    fields
                        .next()
                        .unwrap_or("")
                        .trim()
                        .parse()
                        .map_err(|e| manifest_error(line_no, format!("bad {what} count: {e}")))
                };
                let failures = counter("failure")?;
                let panics = counter("panic")?;
                let deadline_misses = counter("deadline-miss")?;
                let retries = counter("retry")?;
                let label = fields.next().unwrap_or("").to_string();
                pairs.push(ManifestPair {
                    kind,
                    breaker,
                    mitigation: None,
                    quarantine_confidence: confidence,
                    degraded: false,
                    failures,
                    panics,
                    deadline_misses,
                    retries,
                    label,
                });
            }
            "mit" => {
                // mit,<idx>,<serialized policy> — optional, must follow
                // the pair line it annotates.
                let (idx_field, policy_field) = rest.split_once(',').ok_or_else(|| {
                    manifest_error(line_no, format!("malformed mitigation line {rest:?}"))
                })?;
                let mit_idx: usize = idx_field.trim().parse().map_err(|e| {
                    manifest_error(line_no, format!("bad mitigation pair index: {e}"))
                })?;
                if mit_idx + 1 != pairs.len() {
                    return Err(manifest_error(
                        line_no,
                        format!(
                            "mitigation line for pair {mit_idx} does not follow its pair entry"
                        ),
                    ));
                }
                let policy =
                    MitigationPolicy::deserialize(mitigation, policy_field).ok_or_else(|| {
                        manifest_error(line_no, format!("bad containment state {policy_field:?}"))
                    })?;
                let entry = pairs.last_mut().expect("index checked above");
                if entry.mitigation.is_some() {
                    return Err(manifest_error(
                        line_no,
                        format!("duplicate mitigation line for pair {mit_idx}"),
                    ));
                }
                entry.mitigation = Some(policy);
            }
            "deg" => {
                // deg,<idx> — optional degraded-mode marker, must follow
                // the pair entry it annotates.
                let deg_idx: usize = rest.trim().parse().map_err(|e| {
                    manifest_error(line_no, format!("bad degraded pair index: {e}"))
                })?;
                if deg_idx + 1 != pairs.len() {
                    return Err(manifest_error(
                        line_no,
                        format!("degraded line for pair {deg_idx} does not follow its pair entry"),
                    ));
                }
                pairs.last_mut().expect("index checked above").degraded = true;
            }
            other => {
                return Err(manifest_error(
                    line_no,
                    format!("unknown manifest tag {other:?}"),
                ));
            }
        }
    }
    if !saw_magic || !saw_end {
        return Err(manifest_error(
            0,
            "truncated manifest (missing magic or end)",
        ));
    }
    let tick = tick.ok_or_else(|| manifest_error(0, "manifest has no tick line"))?;
    if let Some(declared) = declared_pairs {
        if declared != pairs.len() {
            return Err(manifest_error(
                0,
                format!(
                    "manifest declares {declared} pairs but lists {}",
                    pairs.len()
                ),
            ));
        }
    }
    Ok(Manifest { tick, pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::{DensityHistogram, HISTOGRAM_BINS};
    use crate::mitigation::{ApplyError, MitigationLevel};

    fn covert_histogram() -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_400;
        bins[19] = 20;
        bins[20] = 150;
        bins[21] = 25;
        DensityHistogram::from_bins(bins, 100_000).unwrap()
    }

    fn quiet_histogram() -> DensityHistogram {
        let mut bins = vec![0u64; HISTOGRAM_BINS];
        bins[0] = 2_495;
        bins[1] = 5;
        DensityHistogram::from_bins(bins, 100_000).unwrap()
    }

    fn test_config() -> SupervisorConfig {
        SupervisorConfig {
            window_quanta: 8,
            ..SupervisorConfig::default()
        }
    }

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!(
            "cchunter-supervisor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir, 3).unwrap()
    }

    fn cleanup(store_dir: &std::path::Path) {
        let _ = std::fs::remove_dir_all(store_dir);
    }

    #[test]
    fn healthy_fleet_detects_and_reports() {
        let mut fleet = Supervisor::new(test_config()).unwrap();
        fleet.add_contention_pair("bus").unwrap();
        fleet.add_contention_pair("divider").unwrap();
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(if pair == 0 {
                covert_histogram()
            } else {
                quiet_histogram()
            })))
        };
        for _ in 0..6 {
            let report = fleet.tick(&mut source);
            assert_eq!(report.reports.len(), 2);
            for r in &report.reports {
                assert!(matches!(r.outcome, PairOutcome::Analyzed(_)), "{r:?}");
            }
        }
        let statuses = fleet.pair_statuses();
        assert!(statuses[0].verdict.is_covert(), "{statuses:?}");
        assert_eq!(statuses[1].verdict, Verdict::Clean);
        assert!(statuses.iter().all(|s| s.health == BreakerState::Closed));
    }

    #[test]
    fn panicking_pair_is_contained_and_does_not_poison_the_batch() {
        let mut fleet = Supervisor::new(test_config()).unwrap();
        fleet.add_contention_pair("healthy").unwrap();
        fleet.add_contention_pair("panicky").unwrap();
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(if pair == 1 {
                PairInput::Chaos(ChaosOp::Panic)
            } else {
                PairInput::Harvest(Harvest::Complete(covert_histogram()))
            })
        };
        let report = fleet.tick(&mut source);
        assert!(matches!(
            report.reports[0].outcome,
            PairOutcome::Analyzed(_)
        ));
        match &report.reports[1].outcome {
            PairOutcome::Failed { error, recovery } => {
                assert!(matches!(error, DetectorError::AnalysisPanicked { .. }));
                assert_eq!(*recovery, Recovery::Reset, "no store attached");
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        assert_eq!(fleet.pair_statuses()[1].panics, 1);
        // The healthy pair keeps working on subsequent ticks.
        let report = fleet.tick(&mut source);
        assert!(matches!(
            report.reports[0].outcome,
            PairOutcome::Analyzed(_)
        ));
    }

    #[test]
    fn deadline_miss_is_typed_and_counted() {
        let config = SupervisorConfig {
            deadline_us: 500,
            ..test_config()
        };
        let mut fleet = Supervisor::new(config).unwrap();
        fleet.add_contention_pair("slow").unwrap();
        let mut source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Chaos(ChaosOp::StallUs(5_000)))
        };
        let report = fleet.tick(&mut source);
        match &report.reports[0].outcome {
            PairOutcome::Degraded { error, .. } => {
                assert!(
                    matches!(error, DetectorError::DeadlineExceeded { .. }),
                    "{error}"
                );
            }
            other => panic!("expected deadline degradation, got {other:?}"),
        }
        assert_eq!(fleet.pair_statuses()[0].deadline_misses, 1);
    }

    #[test]
    fn transient_misses_retry_with_recorded_backoff() {
        let mut fleet = Supervisor::new(test_config()).unwrap();
        fleet.add_contention_pair("flaky").unwrap();
        // Fails twice per tick, then delivers.
        let mut source = |_pair: usize, _tick: u64, attempt: u32| {
            if attempt < 2 {
                Err(ProbeFault {
                    reason: "harvest deadline slipped".to_string(),
                })
            } else {
                Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
            }
        };
        let report = fleet.tick(&mut source);
        assert!(matches!(
            report.reports[0].outcome,
            PairOutcome::Analyzed(_)
        ));
        assert_eq!(report.reports[0].retries, 2);
        assert!(report.reports[0].backoff_us > 0);
        // Deterministic: the same tick replayed yields the same schedule.
        let mut fleet2 = Supervisor::new(test_config()).unwrap();
        fleet2.add_contention_pair("flaky").unwrap();
        let report2 = fleet2.tick(&mut source);
        assert_eq!(report.reports[0].backoff_us, report2.reports[0].backoff_us);
    }

    #[test]
    fn fully_faulty_pair_is_quarantined_and_neighbors_unaffected() {
        let config = SupervisorConfig {
            quarantine: QuarantineConfig {
                failure_window: 4,
                trip_threshold: 0.75,
                min_observations: 4,
                probe_interval: 8,
                recovery_successes: 2,
                confidence_decay: 0.5,
            },
            ..test_config()
        };
        let faulty_idx = 1usize;
        let run = |with_faulty: bool| {
            let mut fleet = Supervisor::new(config).unwrap();
            fleet.add_contention_pair("good-0").unwrap();
            if with_faulty {
                fleet.add_contention_pair("broken").unwrap();
            }
            fleet.add_contention_pair("good-1").unwrap();
            let mut verdicts: Vec<Vec<Verdict>> = Vec::new();
            for _ in 0..12 {
                let report = fleet.tick(&mut |pair: usize, _tick: u64, _attempt: u32| {
                    if with_faulty && pair == faulty_idx {
                        Err(ProbeFault {
                            reason: "dead monitor".to_string(),
                        })
                    } else {
                        Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
                    }
                });
                verdicts.push(
                    report
                        .reports
                        .iter()
                        .filter_map(|r| match &r.outcome {
                            PairOutcome::Analyzed(s) => Some((r.label.clone(), s.verdict)),
                            _ => None,
                        })
                        .filter(|(label, _)| label.starts_with("good"))
                        .map(|(_, v)| v)
                        .collect(),
                );
            }
            (fleet.pair_statuses(), verdicts)
        };
        let (with_statuses, with_verdicts) = run(true);
        let (without_statuses, without_verdicts) = run(false);

        // The 100%-faulty pair trips open within the 4-outcome window.
        assert!(
            with_statuses[faulty_idx].health != BreakerState::Closed,
            "faulty pair must be quarantined: {with_statuses:?}"
        );
        assert!(with_statuses[faulty_idx].failures >= 4);
        // And the healthy pairs' verdict sequences are identical with or
        // without the broken neighbor.
        assert_eq!(with_verdicts, without_verdicts);
        assert!(with_statuses[0].verdict.is_covert());
        assert!(with_statuses[2].verdict.is_covert());
        assert_eq!(without_statuses[0].verdict, with_statuses[0].verdict);
    }

    #[test]
    fn quarantined_pair_skips_decay_confidence_and_recovers() {
        let config = SupervisorConfig {
            quarantine: QuarantineConfig {
                failure_window: 4,
                trip_threshold: 0.5,
                min_observations: 2,
                probe_interval: 3,
                recovery_successes: 1,
                confidence_decay: 0.5,
            },
            ..test_config()
        };
        let mut fleet = Supervisor::new(config).unwrap();
        fleet.add_contention_pair("wobbly").unwrap();
        // Faulty for the first 4 ticks, healthy afterwards.
        let mut source = |_pair: usize, tick: u64, _attempt: u32| {
            if tick < 4 {
                Err(ProbeFault {
                    reason: "flapping".to_string(),
                })
            } else {
                Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
            }
        };
        let mut saw_skip = false;
        let mut recovered = false;
        for _ in 0..12 {
            let report = fleet.tick(&mut source);
            match &report.reports[0].outcome {
                PairOutcome::Skipped { confidence } => {
                    saw_skip = true;
                    assert!(*confidence < 1.0);
                }
                PairOutcome::Analyzed(_) if saw_skip => {
                    recovered = true;
                }
                _ => {}
            }
        }
        assert!(saw_skip, "quarantine must skip ticks");
        assert!(recovered, "recovery probes must close the breaker");
        assert_eq!(fleet.pair_statuses()[0].health, BreakerState::Closed);
    }

    #[test]
    fn checkpoint_restore_roundtrips_fleet_state() {
        let store = temp_store("roundtrip");
        let dir = store.dir().to_path_buf();
        let config = test_config();
        let mut fleet = Supervisor::new(config).unwrap().with_store(store);
        fleet.add_contention_pair("bus: t <-> s").unwrap();
        fleet.add_oscillation_pair("l2: t <-> s").unwrap();
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(match pair {
                0 => PairInput::Harvest(Harvest::Complete(covert_histogram())),
                _ => PairInput::Missed,
            })
        };
        for _ in 0..5 {
            fleet.tick(&mut source);
        }
        fleet.checkpoint().unwrap();

        let (restored, report) =
            Supervisor::restore(config, CheckpointStore::open(&dir, 3).unwrap()).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.tick_count(), 5);
        assert_eq!(report.total_rolled_back(), 0);
        let statuses = restored.pair_statuses();
        assert_eq!(statuses[0].label, "bus: t <-> s");
        assert_eq!(statuses[0].kind, PairKind::Contention);
        assert_eq!(statuses[1].kind, PairKind::Oscillation);
        assert!(statuses.iter().all(|s| s.restored_from.is_some()));
        cleanup(&dir);
    }

    #[test]
    fn restore_without_manifest_is_typed() {
        let store = temp_store("empty");
        let dir = store.dir().to_path_buf();
        let err = Supervisor::restore(test_config(), store).unwrap_err();
        assert!(matches!(err, DetectorError::CheckpointMismatch { .. }));
        cleanup(&dir);
    }

    #[test]
    fn fleet_metrics_snapshot_counts_outcomes() {
        let registry = Registry::new();
        let tracer = Tracer::new(256);
        let mut fleet = Supervisor::new(test_config())
            .unwrap()
            .with_registry(registry.clone())
            .with_tracer(tracer.clone());
        fleet.add_contention_pair("bus").unwrap();
        fleet.add_contention_pair("chaotic").unwrap();
        let mut source = |pair: usize, tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(if pair == 1 && tick == 0 {
                PairInput::Chaos(ChaosOp::Panic)
            } else {
                PairInput::Harvest(Harvest::Complete(covert_histogram()))
            })
        };
        for _ in 0..6 {
            fleet.tick(&mut source);
        }
        let snap = fleet.metrics_snapshot();
        assert_eq!(snap.ticks, 6);
        assert_eq!(snap.pairs, 2);
        assert_eq!(snap.analyzed, 11, "{snap:?}");
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.recoveries, 1);
        assert_eq!(snap.failures, 1);
        assert!(snap.verdict_flips >= 1, "{snap:?}");
        assert_eq!(snap.covert_pairs, 2);
        assert_eq!(snap.audit_latency.count, 11);
        assert_eq!(snap.tick_latency.count, 6);
        let text = fleet.render_prometheus();
        assert!(text.contains("cchunter_supervisor_ticks_total 6"), "{text}");
        assert!(
            text.contains("cchunter_pair_panics_total{pair=\"chaotic\"} 1"),
            "{text}"
        );
        assert!(tracer.recorded() > 0, "tick spans must be traced");
        let status = fleet.fleet_status();
        assert_eq!(status.tick, 6);
        assert_eq!(status.pairs.len(), 2);
        assert_eq!(status.metrics, snap);
    }

    #[test]
    fn restore_seeds_persistent_counters_into_fresh_registry() {
        let store = temp_store("metrics-restore");
        let dir = store.dir().to_path_buf();
        let config = test_config();
        let mut fleet = Supervisor::new(config)
            .unwrap()
            .with_registry(Registry::new())
            .with_store(store);
        fleet.add_contention_pair("flaky").unwrap();
        let mut source = |_pair: usize, tick: u64, _attempt: u32| {
            if tick.is_multiple_of(2) {
                Err(ProbeFault {
                    reason: "gap".to_string(),
                })
            } else {
                Ok(PairInput::Harvest(Harvest::Complete(covert_histogram())))
            }
        };
        for _ in 0..6 {
            fleet.tick(&mut source);
        }
        fleet.checkpoint().unwrap();
        let before = fleet.metrics_snapshot();
        assert!(before.failures > 0 && before.retries > 0, "{before:?}");
        assert_eq!(before.checkpoints, 1);

        let registry = Registry::new();
        let (restored, _) = Supervisor::restore_with_registry(
            config,
            CheckpointStore::open(&dir, 3).unwrap(),
            registry.clone(),
        )
        .unwrap();
        let after = restored.metrics_snapshot();
        assert_eq!(after.failures, before.failures);
        assert_eq!(after.retries, before.retries);
        assert_eq!(after.ticks, before.ticks);
        // The registered instruments were re-seeded, so the scrape stays
        // monotonic across the crash.
        let text = registry.render_prometheus();
        assert!(
            text.contains(&format!(
                "cchunter_pair_failures_total{{pair=\"flaky\"}} {}",
                before.failures
            )),
            "{text}"
        );
        // metrics.prom was dumped beside the checkpoint and parses back.
        let dump = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        let scrape = crate::metrics::parse_prometheus(&dump);
        assert!(scrape.is_clean(), "{:?}", scrape.skipped);
        assert!(scrape
            .samples
            .iter()
            .any(|s| s.name == "cchunter_supervisor_ticks_total"));
        cleanup(&dir);
    }

    #[test]
    fn manifest_parser_rejects_garbage() {
        let q = QuarantineConfig::default();
        let m = MitigationConfig::default();
        for bad in [
            &b""[..],
            b"not-a-manifest\nend\n",
            b"cchunter-supervisor,v1\ntick,5\n", // no end
            b"cchunter-supervisor,v1\ntick,5\npairs,2\npair,0,contention,closed;0;0;,1,x\nend\n",
            b"cchunter-supervisor,v1\ntick,5\npair,0,weird,closed;0;0;,1,x\nend\n",
            b"cchunter-supervisor,v1\ntick,5\npair,0,contention,closed;0;0;,7,x\nend\n",
            // Mitigation line with no preceding pair entry.
            b"cchunter-supervisor,v1\ntick,5\nmit,0,inactive;-;0;0;0;0;0;0;0;0;-;-\nend\n",
            // Garbled containment state.
            b"cchunter-supervisor,v1\ntick,5\npair,0,contention,closed;0;0;,1,0,0,0,0,x\nmit,0,contained;warp\nend\n",
        ] {
            assert!(parse_manifest(bad, q, m).is_err(), "{bad:?}");
        }
        // A v1 manifest without mit lines still parses (idle policy).
        let ok =
            b"cchunter-supervisor,v1\ntick,5\npair,0,contention,closed;0;0;,1,0,0,0,0,x\nend\n";
        let manifest = parse_manifest(ok, q, m).unwrap();
        assert!(manifest.pairs[0].mitigation.is_none());
    }

    /// Records enforcement calls; refuses every level in `refuse`.
    #[derive(Default)]
    struct RecordingEnforcer {
        applied: Vec<(usize, MitigationLevel)>,
        released: Vec<(usize, MitigationLevel)>,
        refuse: Vec<MitigationLevel>,
    }

    impl MitigationEnforcer for RecordingEnforcer {
        fn apply(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            if self.refuse.contains(&level) {
                return Err(ApplyError {
                    reason: format!("chaos: {level} refused"),
                });
            }
            self.applied.push((pair, level));
            Ok(())
        }

        fn release(&mut self, pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
            self.released.push((pair, level));
            Ok(())
        }
    }

    #[test]
    fn covert_pair_is_convicted_and_contained() {
        let mut fleet = Supervisor::new(test_config()).unwrap();
        fleet.add_contention_pair("bus: trojan <-> spy").unwrap();
        fleet.add_contention_pair("benign").unwrap();
        let mut enforcer = RecordingEnforcer::default();
        let mut source = |pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(if pair == 0 {
                covert_histogram()
            } else {
                quiet_histogram()
            })))
        };
        for _ in 0..12 {
            fleet.tick_with_enforcer(&mut source, &mut enforcer);
        }
        let statuses = fleet.pair_statuses();
        assert!(
            statuses[0].containment.is_active(),
            "covert pair contained: {:?}",
            statuses[0].containment
        );
        assert_eq!(
            statuses[1].containment,
            ContainmentState::Inactive,
            "benign pair untouched"
        );
        assert!(enforcer
            .applied
            .contains(&(0, MitigationLevel::FlushOnSwitch)));
        assert!(enforcer.applied.iter().all(|(pair, _)| *pair == 0));
        assert!(fleet.containment_latency_ticks(0).is_some());
        let snapshot = fleet.metrics_snapshot();
        assert_eq!(snapshot.contained_pairs, 1);
        assert!(snapshot.mitigations_applied >= 1);
        let prom = fleet.render_prometheus();
        assert!(
            prom.contains("cchunter_pair_containment_level"),
            "containment gauge exported"
        );
    }

    #[test]
    fn refused_rung_escalates_instead_of_silently_dropping() {
        let mut fleet = Supervisor::new(test_config()).unwrap();
        fleet.add_contention_pair("bus").unwrap();
        let mut enforcer = RecordingEnforcer {
            refuse: vec![MitigationLevel::FlushOnSwitch],
            ..RecordingEnforcer::default()
        };
        let mut source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram())))
        };
        for _ in 0..12 {
            fleet.tick_with_enforcer(&mut source, &mut enforcer);
        }
        let containment = fleet.containment(0).unwrap();
        assert!(containment.is_active(), "{containment:?}");
        assert_ne!(
            containment.level(),
            Some(MitigationLevel::FlushOnSwitch),
            "refused first rung was escalated past: {containment:?}"
        );
        assert!(
            !enforcer
                .applied
                .iter()
                .any(|(_, l)| *l == MitigationLevel::FlushOnSwitch),
            "the refused rung never took force"
        );
        let snapshot = fleet.metrics_snapshot();
        assert!(snapshot.mitigation_failures >= 1);
        assert!(snapshot.mitigation_escalations >= 1);
    }

    #[test]
    fn low_residual_steps_containment_back_down() {
        let config = SupervisorConfig {
            mitigation: MitigationConfig {
                convict_streak: 2,
                step_down_streak: 2,
                ..MitigationConfig::default()
            },
            ..test_config()
        };
        let mut fleet = Supervisor::new(config).unwrap();
        fleet.add_contention_pair("bus").unwrap();
        let mut enforcer = RecordingEnforcer::default();
        let mut covert_source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram())))
        };
        for _ in 0..10 {
            fleet.tick_with_enforcer(&mut covert_source, &mut enforcer);
        }
        assert!(fleet.containment(0).unwrap().is_active());
        // The channel goes quiet and the re-measured residual is ~zero:
        // the ladder walks back down to fully released.
        let mut quiet_source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(quiet_histogram())))
        };
        for _ in 0..40 {
            fleet.report_residual(0, 0.0, 0.02).unwrap();
            fleet.tick_with_enforcer(&mut quiet_source, &mut enforcer);
            if fleet.containment(0).unwrap() == ContainmentState::Inactive {
                break;
            }
        }
        assert_eq!(fleet.containment(0).unwrap(), ContainmentState::Inactive);
        assert!(enforcer
            .released
            .contains(&(0, MitigationLevel::FlushOnSwitch)));
        assert!(fleet.metrics_snapshot().mitigation_stepdowns >= 1);
    }

    #[test]
    fn containment_survives_checkpoint_and_restore() {
        let store = temp_store("containment");
        let dir = store.dir().to_path_buf();
        let config = test_config();
        let mut fleet = Supervisor::new(config).unwrap().with_store(store);
        fleet.add_contention_pair("bus").unwrap();
        let mut enforcer = RecordingEnforcer::default();
        let mut source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram())))
        };
        for _ in 0..12 {
            fleet.tick_with_enforcer(&mut source, &mut enforcer);
        }
        let containment = fleet.containment(0).unwrap();
        assert!(containment.is_active());
        let latency = fleet.containment_latency_ticks(0);
        fleet.checkpoint().unwrap();
        drop(fleet);

        // Kill-and-restore: the containment state comes back and the first
        // tick re-asserts it through the (fresh) enforcer, whose hardware
        // state did not survive the crash.
        let (mut restored, _report) =
            Supervisor::restore(config, CheckpointStore::open(&dir, 3).unwrap()).unwrap();
        assert_eq!(restored.containment(0).unwrap(), containment);
        assert_eq!(restored.containment_latency_ticks(0), latency);
        let mut fresh_enforcer = RecordingEnforcer::default();
        restored.tick_with_enforcer(&mut source, &mut fresh_enforcer);
        assert_eq!(
            fresh_enforcer.applied,
            vec![(0, containment.level().unwrap())],
            "restored containment re-asserted"
        );
        cleanup(&dir);
    }

    #[test]
    fn storage_brownout_degrades_durability_and_heals_with_full_repersist() {
        use crate::fault::{StorageFaultClass, StorageFaultConfig, StorageFaultInjector};

        let dir = std::env::temp_dir().join(format!(
            "cchunter-supervisor-durability-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let injector = StorageFaultInjector::new(StorageFaultConfig::none(), 7);
        let store =
            CheckpointStore::open_with_medium(&dir, 3, std::sync::Arc::new(injector.clone()))
                .unwrap();
        let config = SupervisorConfig {
            checkpoint_every: 1,
            ..test_config()
        };
        let mut fleet = Supervisor::new(config).unwrap().with_store(store);
        fleet.add_contention_pair("bus").unwrap();
        let mut source = |_pair: usize, _tick: u64, _attempt: u32| {
            Ok::<_, ProbeFault>(PairInput::Harvest(Harvest::Complete(covert_histogram())))
        };

        // Healthy medium: the due-tick checkpoint lands durably.
        let report = fleet.tick(&mut source);
        let first_generation = report.checkpoint_generation.expect("durable checkpoint");
        assert_eq!(fleet.durability(), Durability::Durable);

        // Brownout: every write fails with ENOSPC. The fleet keeps ticking,
        // degrades durability, and shadows the freshest state in memory.
        injector.set_config(StorageFaultConfig::none().with_rate(StorageFaultClass::NoSpace, 1.0));
        let report = fleet.tick(&mut source);
        assert!(report.checkpoint_generation.is_none());
        let error = report.checkpoint_error.expect("typed checkpoint error");
        assert!(error.contains("no-space"), "{error}");
        assert_eq!(
            fleet.durability(),
            Durability::Degraded { since_tick: 2 },
            "degraded from the first failing due tick"
        );
        assert_eq!(fleet.shadow_checkpoint_tick(), Some(2));
        let entries = fleet.shadow_checkpoint_entries().expect("shadow present");
        assert_eq!(
            entries.last().map(|(name, _)| name.as_str()),
            Some(MANIFEST_NAME),
            "shadow holds the full durable entry set, manifest last"
        );
        let status = fleet.fleet_status();
        assert!(status.durability.is_degraded());
        assert!(status.metrics.durability_degraded);
        assert_eq!(status.metrics.shadow_checkpoints, 1);

        // Still browning out: the shadow tracks the newest tick.
        let _ = fleet.tick(&mut source);
        assert_eq!(fleet.shadow_checkpoint_tick(), Some(3));

        // Heal: the next due tick's success IS the full re-persist.
        injector.set_config(StorageFaultConfig::none());
        let report = fleet.tick(&mut source);
        let healed_generation = report.checkpoint_generation.expect("durable again");
        assert_eq!(fleet.durability(), Durability::Durable);
        assert!(fleet.shadow_checkpoint_tick().is_none(), "shadow retired");
        let metrics = fleet.metrics_snapshot();
        assert!(!metrics.durability_degraded);
        assert_eq!(metrics.durability_heals, 1);
        assert_eq!(metrics.shadow_checkpoints, 2);
        assert_eq!(metrics.checkpoint_errors, 2);

        // The re-persisted generation restores the whole fleet.
        drop(fleet);
        let (restored, _report) =
            Supervisor::restore(config, CheckpointStore::open(&dir, 3).unwrap()).unwrap();
        assert_eq!(restored.pair_statuses().len(), 1);
        assert!(healed_generation > first_generation, "fresh generation");
        cleanup(&dir);
    }
}
