//! The fleet side of the path: recorded paper-scale harvests replayed
//! through `ShardedFleet::tick`, checkpointed into a store with
//! `ShardedFleet::checkpoint`, and the same inputs pushed through bare
//! online detectors for comparison.

use crate::host::HostReference;
use crate::inputs::SplitMix64;
use crate::report::Metric;
use crate::sim::{self, Rig, Scale, Scenario, Stepped, WINDOW_QUANTA};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Outcome;
use cc_hunter::detector::shard::{ShardedFleet, ShardedFleetConfig};
use cc_hunter::detector::supervisor::{
    PairInput, PairKind, PairOutcome, ProbeFault, SupervisorConfig,
};
use cc_hunter::detector::{
    CcHunterConfig, DetectorError, OnlineContentionDetector, OnlineOscillationDetector,
    OnlineStatus,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Pairs in the `fleet_replay` fleet.
pub const FLEET_PAIRS: usize = 64;
/// Shards (failure domains) the pairs spread over.
pub const FLEET_SHARDS: usize = 8;
/// Every fourth pair audits a memory resource (oscillation daemon); the
/// rest audit combinational resources (contention daemon).
const OSCILLATION_EVERY: usize = 4;
/// Ticks between explicit `ShardedFleet::checkpoint` calls. A checkpoint
/// of the 64-pair fleet costs about ten ticks, almost all of it in `fsync`,
/// whose latency on a shared disk swings by 2× within a run; every 64 ticks
/// it is about a seventh of the timed work, enough to show a heavier
/// checkpoint without letting the disk set the result.
pub const CHECKPOINT_EVERY: usize = 64;
/// Set-ups per untraced run (each records the replay pool, seconds of
/// simulation).
const SETUPS: usize = 3;
/// Ticks the bare-detector comparison replays at most.
const BARE_TICKS: usize = 256;

/// A bare online detector of either kind.
#[derive(Debug)]
pub enum Daemon {
    /// Recurrent-burst daemon for a combinational resource.
    Contention(OnlineContentionDetector),
    /// Oscillation daemon for a memory resource.
    Oscillation(OnlineOscillationDetector),
}

impl Daemon {
    /// A daemon of `kind` with a `window`-quantum sliding window.
    ///
    /// # Errors
    ///
    /// Propagates detector construction errors.
    pub fn new(
        kind: PairKind,
        config: CcHunterConfig,
        window: usize,
    ) -> Result<Daemon, DetectorError> {
        Ok(match kind {
            PairKind::Contention => {
                Daemon::Contention(OnlineContentionDetector::new(config, window)?)
            }
            PairKind::Oscillation => {
                Daemon::Oscillation(OnlineOscillationDetector::new(config, window)?)
            }
        })
    }

    /// Pushes one quantum's input; an input of the wrong kind is refused.
    pub fn push(&mut self, input: PairInput) -> Result<OnlineStatus, &'static str> {
        match (self, input) {
            (Daemon::Contention(d), PairInput::Harvest(h)) => Ok(d.push_quantum(h)),
            (
                Daemon::Oscillation(d),
                PairInput::Conflicts {
                    records,
                    lost_fraction,
                },
            ) => Ok(d.push_quantum_degraded(&records, lost_fraction)),
            _ => Err("input of the wrong kind for the daemon"),
        }
    }
}

/// One fleet pair: its kind, whether its inputs are covert, and the
/// recorded inputs it replays cyclically.
#[derive(Debug, Clone)]
pub struct PairPlan<'a> {
    label: String,
    kind: PairKind,
    covert: bool,
    inputs: &'a [PairInput],
}

impl<'a> PairPlan<'a> {
    /// A pair plan. `inputs` must not be empty.
    pub fn new(
        label: impl Into<String>,
        kind: PairKind,
        covert: bool,
        inputs: &'a [PairInput],
    ) -> Self {
        assert!(!inputs.is_empty(), "a pair needs recorded inputs to replay");
        PairPlan {
            label: label.into(),
            kind,
            covert,
            inputs,
        }
    }

    fn input(&self, tick: u64) -> PairInput {
        self.inputs[tick as usize % self.inputs.len()].clone()
    }
}

/// How a replay is laid out.
#[derive(Debug, Clone, Copy)]
pub struct ReplayShape {
    /// Shards.
    pub shards: usize,
    /// Ticks between checkpoints.
    pub checkpoint_every: usize,
    /// Ticks replayed at least, whatever `--seconds` says; a multiple of
    /// `checkpoint_every`. The exact counts and `checkpoint_bytes` are
    /// taken after this many ticks, so they repeat on every run of a seed.
    pub min_ticks: usize,
}

/// Everything one replay measured.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Host seconds of each `ShardedFleet::tick`.
    pub tick_s: Vec<f64>,
    /// Host seconds of each `ShardedFleet::checkpoint`.
    pub checkpoint_s: Vec<f64>,
    /// Tick (1-based) by which every covert pair had been convicted.
    pub detect_ticks: Option<u64>,
    /// Benign pairs convicted at any tick.
    pub false_alarms: usize,
    /// Checkpoints that returned an error.
    pub checkpoint_errors: u64,
    /// Bytes of the newest generation of every stored entry, at the cut.
    pub checkpoint_bytes: u64,
    /// Pair-ticks plus checkpoints attempted.
    pub attempted: u64,
    /// Pair-ticks that were not analysed cleanly, plus failed checkpoints.
    pub failed: u64,
    /// What went wrong.
    pub problems: Vec<String>,
    /// `metrics_snapshot` counts at the cut: analysed, degraded, failures,
    /// retries, verdict flips.
    pub counts: [u64; 5],
}

/// A fresh store directory inside the benchmark's output directory.
fn store_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    crate::out_dir().join(format!(
        "store-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Builds a fleet of `plans` over `shards` shards, checkpointing into
/// `dir`.
fn build_fleet(
    plans: &[PairPlan<'_>],
    shards: usize,
    scale: &Scale,
    dir: &Path,
) -> Result<ShardedFleet, DetectorError> {
    let config = ShardedFleetConfig {
        shards,
        base: SupervisorConfig {
            hunter: scale.hunter(),
            window_quanta: WINDOW_QUANTA,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    };
    let mut fleet = ShardedFleet::with_store_root(config, dir)?;
    for plan in plans {
        match plan.kind {
            PairKind::Contention => fleet.add_contention_pair(plan.label.clone())?,
            PairKind::Oscillation => fleet.add_oscillation_pair(plan.label.clone())?,
        };
    }
    Ok(fleet)
}

/// Sum of the newest generation of every `*.g<generation>.ckpt` entry
/// under `dir`: the bytes one full checkpoint wrote.
fn checkpoint_bytes(dir: &Path) -> u64 {
    let mut newest: HashMap<PathBuf, (u64, u64)> = HashMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                pending.push(path);
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some((stem, generation)) = name
                .strip_suffix(".ckpt")
                .and_then(|n| n.rsplit_once(".g"))
                .and_then(|(stem, g)| Some((stem.to_string(), g.parse::<u64>().ok()?)))
            else {
                continue;
            };
            let slot = newest.entry(d.join(stem)).or_insert((0, 0));
            if generation >= slot.0 {
                *slot = (generation, meta.len());
            }
        }
    }
    newest.values().map(|&(_, bytes)| bytes).sum()
}

/// Replays `plans` through `fleet` until `seconds` have passed and at least
/// `shape.min_ticks` ticks ran, checkpointing every
/// `shape.checkpoint_every` ticks.
fn replay(
    fleet: &mut ShardedFleet,
    plans: &[PairPlan<'_>],
    shape: &ReplayShape,
    store: &Path,
    seconds: f64,
    tracer: &mut Tracer,
    host: &mut HostReference,
) -> Replayed {
    assert!(
        shape.min_ticks > 0 && shape.min_ticks.is_multiple_of(shape.checkpoint_every),
        "the cut must fall on a checkpoint"
    );
    let mut out = Replayed::default();
    let index: HashMap<&str, usize> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| (p.label.as_str(), i))
        .collect();
    let covert_total = plans.iter().filter(|p| p.covert).count();
    let mut convicted = vec![false; plans.len()];
    let mut source = |pair: usize, tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
        Ok(plans[pair].input(tick))
    };
    let started = Instant::now();
    let mut last_reference = started;
    let mut tick = 0usize;
    while tick < shape.min_ticks || started.elapsed().as_secs_f64() < seconds {
        tracer.begin_op(
            tick as u64,
            "op",
            crate::recorded(tick, shape.checkpoint_every),
        );
        let (report, tick_s) = tracer.time("fleet.tick", || fleet.tick(&mut source));
        let checkpoint = (tick + 1)
            .is_multiple_of(shape.checkpoint_every)
            .then(|| tracer.time("store.checkpoint", || fleet.checkpoint()));
        tracer.end_op();
        out.tick_s.push(tick_s);
        out.attempted += plans.len() as u64;
        let mut reported = 0u64;
        for shard in report.shard_reports.iter().flatten() {
            for pair in &shard.reports {
                reported += 1;
                let Some(&global) = index.get(pair.label.as_str()) else {
                    out.failed += 1;
                    out.problems
                        .push(format!("unknown pair {:?} in a report", pair.label));
                    continue;
                };
                let verdict = match &pair.outcome {
                    PairOutcome::Analyzed(status) => Some(status.verdict),
                    other => {
                        out.failed += 1;
                        if out.problems.len() < 16 {
                            out.problems.push(format!(
                                "tick {tick}: {} was not analysed: {other:?}",
                                pair.label
                            ));
                        }
                        None
                    }
                };
                if verdict.is_some_and(|v| v.is_covert()) && !convicted[global] {
                    convicted[global] = true;
                    if !plans[global].covert {
                        out.false_alarms += 1;
                        out.problems
                            .push(format!("tick {tick}: benign {} convicted", pair.label));
                    }
                }
            }
        }
        if reported != plans.len() as u64 {
            out.failed += plans.len() as u64 - reported.min(plans.len() as u64);
            out.problems.push(format!(
                "tick {tick}: {reported} of {} pairs reported",
                plans.len()
            ));
        }
        if !report.heartbeat_misses.is_empty() || !report.deaths.is_empty() {
            out.problems.push(format!(
                "tick {tick}: heartbeat misses {:?}, deaths {:?}",
                report.heartbeat_misses, report.deaths
            ));
        }
        let convicted_covert = plans
            .iter()
            .zip(&convicted)
            .filter(|(p, &c)| p.covert && c)
            .count();
        if covert_total > 0 && convicted_covert == covert_total {
            out.detect_ticks.get_or_insert(tick as u64 + 1);
        }
        if let Some((result, s)) = checkpoint {
            out.attempted += 1;
            out.checkpoint_s.push(s);
            if let Err(e) = result {
                out.failed += 1;
                out.checkpoint_errors += 1;
                out.problems
                    .push(format!("tick {tick}: checkpoint failed: {e}"));
            }
        }
        if tick + 1 == shape.min_ticks {
            let snapshot = fleet.metrics_snapshot();
            out.counts = [
                snapshot.analyzed,
                snapshot.degraded,
                snapshot.failures,
                snapshot.retries,
                snapshot.verdict_flips,
            ];
            out.checkpoint_bytes = checkpoint_bytes(store);
        }
        if last_reference.elapsed().as_secs_f64() >= 0.5 {
            host.sample();
            last_reference = Instant::now();
        }
        tick += 1;
    }
    if covert_total > 0 && out.detect_ticks.is_none() {
        out.problems.push(format!(
            "{} of {covert_total} covert pairs never convicted in {tick} ticks",
            covert_total
                - convicted
                    .iter()
                    .zip(plans)
                    .filter(|(&c, p)| c && p.covert)
                    .count()
        ));
    }
    if let Err(e) = fleet.verify_accounting() {
        out.problems
            .push(format!("fleet accounting does not reconcile: {e}"));
    }
    out
}

/// Host seconds of every push when the first `ticks` inputs of every plan
/// go through bare online detectors, one pair after another.
fn bare_pushes(plans: &[PairPlan<'_>], ticks: usize, scale: &Scale) -> Result<Vec<f64>, String> {
    let mut daemons = plans
        .iter()
        .map(|p| Daemon::new(p.kind, scale.hunter(), WINDOW_QUANTA))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut pushes = Vec::with_capacity(ticks * plans.len());
    for tick in 0..ticks as u64 {
        for (plan, daemon) in plans.iter().zip(&mut daemons) {
            let input = plan.input(tick);
            let start = Instant::now();
            let status = daemon.push(input);
            pushes.push(start.elapsed().as_secs_f64());
            status.map_err(str::to_string)?;
        }
    }
    Ok(pushes)
}

/// Builds a fleet for `plans`, replays them for `seconds` (at least
/// `shape.min_ticks` ticks) and removes the store afterwards.
fn replay_in_fresh_fleet(
    plans: &[PairPlan<'_>],
    shape: &ReplayShape,
    scale: &Scale,
    seconds: f64,
    tracer: &mut Tracer,
    host: &mut HostReference,
) -> Result<Replayed, String> {
    let dir = store_dir();
    let result = build_fleet(plans, shape.shards, scale, &dir)
        .map(|mut fleet| replay(&mut fleet, plans, shape, &dir, seconds, tracer, host))
        .map_err(|e| format!("fleet construction failed: {e}"));
    // Best effort: a leftover store is only litter inside the output
    // directory, never an error of the program under test.
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The `fleet.*` and `store.*` per-layer metrics, plus `analysis.push_us`
/// when `with_push` (the fleet workload has no live pushes of its own).
fn fleet_layers(replayed: &Replayed, bare: &[f64], pairs: usize, with_push: bool) -> Vec<Metric> {
    let [analyzed, degraded, failures, retries, flips] = replayed.counts;
    let mut layers = Vec::new();
    if with_push {
        layers.push(Metric::new(
            "analysis.push_us",
            median(bare).unwrap_or(0.0) * 1e6,
            "us",
        ));
    }
    let bare_ticks = bare.len() / pairs.max(1);
    layers.extend([
        Metric::new(
            "fleet.analysis_us_per_pair",
            bare.iter().sum::<f64>() / (pairs * bare_ticks).max(1) as f64 * 1e6,
            "us",
        ),
        Metric::new("fleet.analyzed", analyzed as f64, "count"),
        Metric::new("fleet.degraded", degraded as f64, "count"),
        Metric::new("fleet.failures", failures as f64, "count"),
        Metric::new("fleet.retries", retries as f64, "count"),
        Metric::new("fleet.verdict_flips", flips as f64, "count"),
        Metric::new(
            "store.checkpoint_ms",
            median(&replayed.checkpoint_s).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        Metric::new(
            "store.checkpoint_bytes",
            replayed.checkpoint_bytes as f64,
            "bytes",
        ),
        Metric::new(
            "store.checkpoint_errors",
            replayed.checkpoint_errors as f64,
            "count",
        ),
    ]);
    layers
}

/// Replays `plans` once through a fresh fleet and through bare detectors,
/// for the per-layer metrics of a traced run of a simulator workload.
pub fn replay_layers(
    plans: &[PairPlan<'_>],
    shape: &ReplayShape,
    scale: &Scale,
    tracer: &mut Tracer,
    host: &mut HostReference,
) -> Outcome {
    let replayed = match replay_in_fresh_fleet(plans, shape, scale, 0.0, tracer, host) {
        Ok(r) => r,
        Err(e) => return Outcome::refused(e),
    };
    let mut out = Outcome::new(replayed.attempted, replayed.failed);
    out.problems.extend(replayed.problems.iter().cloned());
    let bare =
        bare_pushes(plans, replayed.tick_s.len().min(BARE_TICKS), scale).unwrap_or_else(|e| {
            out.problems.push(format!("bare replay: {e}"));
            Vec::new()
        });
    out.per_layer = fleet_layers(&replayed, &bare, plans.len(), false);
    out
}

/// The replay pool: paper-scale harvests recorded from the simulator.
#[derive(Debug, Default)]
pub struct Pool {
    /// Covert bus-channel histograms.
    pub covert_bus: Vec<PairInput>,
    /// Covert cache-channel conflict records.
    pub covert_cache: Vec<PairInput>,
    /// The benign pair's bus histograms.
    pub benign_bus: Vec<PairInput>,
    /// The benign pair's conflict records.
    pub benign_cache: Vec<PairInput>,
}

/// Records the pool: [`Scale::pool_quanta`] quanta each of the covert bus
/// channel, the covert cache channel and the benign pair. A traced run
/// also steps an unaudited twin of each machine for `audit.probe_ms`.
pub fn record_pool(
    scale: &Scale,
    rng: &mut SplitMix64,
    tracer: &mut Tracer,
    host: &mut HostReference,
) -> (Pool, Vec<Stepped>, u64) {
    // Exact counts cover the whole recording.
    let scale = &Scale {
        count_quanta: scale.pool_quanta,
        ..*scale
    };
    let bus_bits = sim::message_bits(Scenario::Bus, scale, scale.count_quanta, rng);
    let cache_bits = sim::message_bits(Scenario::Cache, scale, scale.count_quanta, rng);
    let noise = [rng.sub_seed(), rng.sub_seed(), rng.sub_seed()];
    let benign_seeds = [rng.sub_seed(), rng.sub_seed()];
    let mut pool = Pool::default();
    let mut stepped_all = Vec::new();
    let mut probe_faults = 0;
    for (scenario, bits, noise_seed) in [
        (Scenario::Bus, &bus_bits, noise[0]),
        (Scenario::Cache, &cache_bits, noise[1]),
        (Scenario::Benign, &Vec::new(), noise[2]),
    ] {
        let mut rig = Rig::build(scenario, scale, bits, noise_seed, benign_seeds, true);
        let mut twin = tracer
            .enabled()
            .then(|| Rig::build(scenario, scale, bits, noise_seed, benign_seeds, false));
        let mut stepped = sim::step(
            &mut rig,
            twin.as_mut(),
            None,
            scale,
            scale.pool_quanta,
            0.0,
            true,
            tracer,
            host,
            &mut || {},
        );
        probe_faults += rig.probe_faults();
        for inputs in stepped.inputs.drain(..) {
            let mut inputs = inputs.into_iter();
            let (first, second) = (inputs.next(), inputs.next());
            match scenario {
                Scenario::Bus => pool.covert_bus.extend(first),
                Scenario::Cache => pool.covert_cache.extend(first),
                Scenario::Benign => {
                    pool.benign_bus.extend(first);
                    pool.benign_cache.extend(second);
                }
            }
        }
        stepped_all.push(stepped);
    }
    (pool, stepped_all, probe_faults)
}

/// The fleet's pairs: three quarters contention, one quarter oscillation,
/// half of each kind covert, shuffled by the seed; each replays its
/// recorded inputs from the start, so conviction times depend on the
/// recorded harvests alone.
pub fn plan_pairs<'a>(pool: &'a Pool, pairs: usize, rng: &mut SplitMix64) -> Vec<PairPlan<'a>> {
    let kinds: Vec<PairKind> = (0..pairs)
        .map(|i| {
            if i % OSCILLATION_EVERY == OSCILLATION_EVERY - 1 {
                PairKind::Oscillation
            } else {
                PairKind::Contention
            }
        })
        .collect();
    let mut flags_for = |kind: PairKind| {
        let n = kinds.iter().filter(|&&k| k == kind).count();
        let mut flags: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
        rng.shuffle(&mut flags);
        flags.into_iter()
    };
    let mut contention = flags_for(PairKind::Contention);
    let mut oscillation = flags_for(PairKind::Oscillation);
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let covert = match kind {
                PairKind::Contention => contention.next(),
                PairKind::Oscillation => oscillation.next(),
            }
            .expect("one flag per pair of each kind");
            let inputs = match (kind, covert) {
                (PairKind::Contention, true) => &pool.covert_bus,
                (PairKind::Contention, false) => &pool.benign_bus,
                (PairKind::Oscillation, true) => &pool.covert_cache,
                (PairKind::Oscillation, false) => &pool.benign_cache,
            };
            PairPlan::new(format!("pair-{i:02}"), kind, covert, inputs)
        })
        .collect()
}

/// Runs the `fleet_replay` workload.
pub fn run(
    scale: &Scale,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    host: &mut HostReference,
) -> Outcome {
    let setups = if tracer.enabled() { 1 } else { SETUPS };
    // A set-up simulates for seconds, long enough for the host to change
    // phase within it, so like the timed operations it is costed in its
    // fastest phase: each recording's `run_until` slices at the fast-phase
    // slice time of that recording over every set-up, plus the fast-phase
    // rest of a set-up (building machines, collecting harvests).
    let mut rest_s = Vec::with_capacity(setups);
    let mut slice_s: Vec<Vec<f64>> = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let mut rng = SplitMix64::new(seed);
        let start = Instant::now();
        let (pool, stepped, probe_faults) = record_pool(scale, &mut rng, tracer, host);
        let total_s = start.elapsed().as_secs_f64();
        slice_s.resize_with(stepped.len(), Vec::new);
        for (all, recording) in slice_s.iter_mut().zip(&stepped) {
            all.extend(&recording.slice_s);
        }
        let sliced_s: f64 = stepped.iter().flat_map(|r| &r.slice_s).sum();
        rest_s.push(total_s - sliced_s);
        built = Some((pool, stepped, probe_faults, rng));
    }
    let (pool, stepped, probe_faults, mut rng) = built.expect("at least one set-up");
    let setup_s = Summary::of(&rest_s).expect("at least one set-up").fast
        + stepped
            .iter()
            .zip(&slice_s)
            .filter_map(|(recording, all)| {
                Some(recording.slice_s.len() as f64 * Summary::of(all)?.fast)
            })
            .sum::<f64>();
    let mut out = Outcome::new(0, 0);
    for s in &stepped {
        out.problems.extend(s.problems.iter().cloned());
    }
    if pool.covert_bus.is_empty()
        || pool.covert_cache.is_empty()
        || pool.benign_bus.is_empty()
        || pool.benign_cache.is_empty()
    {
        out.problems.push("the replay pool is incomplete".into());
        return out;
    }
    let plans = plan_pairs(&pool, FLEET_PAIRS, &mut rng);
    let shape = ReplayShape {
        shards: FLEET_SHARDS,
        checkpoint_every: CHECKPOINT_EVERY,
        min_ticks: 4 * CHECKPOINT_EVERY,
    };
    // The fleet is built after set-up is timed but before the timed
    // replay: constructing it claims the store directories.
    let replayed = match replay_in_fresh_fleet(&plans, &shape, scale, seconds, tracer, host) {
        Ok(r) => r,
        Err(e) => return Outcome::refused(e),
    };
    out.attempted += replayed.attempted;
    out.failed += replayed.failed;
    out.problems.extend(replayed.problems.iter().cloned());
    let ticks = Summary::of(&replayed.tick_s).expect("min_ticks > 0");
    // A tick costs more while the detectors' windows fill, so the fast
    // phase is taken over full-window ticks; each tick carries its share
    // of a checkpoint.
    let full_ticks = Summary::of(&replayed.tick_s[WINDOW_QUANTA..]).expect("min_ticks > window");
    let checkpoints = Summary::of(&replayed.checkpoint_s).expect("min_ticks ends on a checkpoint");
    let tick_s = full_ticks.fast + checkpoints.fast / shape.checkpoint_every as f64;
    out.end_to_end = vec![
        Metric::new("host_s_per_sim_s", tick_s / scale.quantum_seconds(), "s/s"),
        Metric::new("us_per_pair_tick", tick_s / plans.len() as f64 * 1e6, "us"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    out.note("ticks", ticks.count.to_string());
    out.note(
        "tick_p99_samples_beyond",
        crate::stats::samples_beyond(&replayed.tick_s, 0.99).to_string(),
    );
    if tracer.enabled() {
        let mut combined = Stepped::default();
        for s in &stepped {
            combined.probe_s.extend(&s.probe_s);
            combined.cut_run_s += s.cut_run_s;
            let c = s.counts.unwrap_or_default();
            let total = combined.counts.get_or_insert_with(Default::default);
            total.stats.events_dispatched += c.stats.events_dispatched;
            total.stats.committed_ops += c.stats.committed_ops;
            total.stats.bus_locks += c.stats.bus_locks;
            total.conflicts += c.conflicts;
            total.misses.0 += c.misses.0;
            total.misses.1 += c.misses.1;
        }
        let bare = bare_pushes(&plans, replayed.tick_s.len().min(BARE_TICKS), scale)
            .unwrap_or_else(|e| {
                out.problems.push(format!("bare replay: {e}"));
                Vec::new()
            });
        out.per_layer = vec![
            Metric::new("quantum_ms_p50", ticks.p50 * 1e3, "ms"),
            Metric::new("tick_ms_p50", ticks.p50 * 1e3, "ms"),
            Metric::new(
                "detect_quanta",
                replayed.detect_ticks.map_or(0.0, |t| t as f64),
                "quanta",
            ),
            Metric::new("tick_ms_p99", ticks.p99 * 1e3, "ms"),
            Metric::new("false_alarms", replayed.false_alarms as f64, "count"),
        ];
        out.per_layer
            .extend(sim::sim_audit_layers(tracer, &combined, probe_faults));
        out.per_layer
            .extend(fleet_layers(&replayed, &bare, plans.len(), true));
        out.per_layer.push(Metric::new(
            "trace.overhead_pct",
            crate::overhead_pct(&replayed.tick_s, shape.checkpoint_every),
            "%",
        ));
    }
    out
}
