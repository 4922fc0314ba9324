//! The soak runner: every chaos soak and drill of the detection service in
//! one binary. Each scenario drives the real library through the faults it
//! must survive and asserts its own contract, so a clean exit is itself the
//! evidence; a wrong verdict, a lost pair or a broken containment sequence
//! panics.
//!
//! | scenario | what it drives | summary file |
//! |---|---|---|
//! | `ingest` | a supervised fleet fed through admission queues, sanitizers and hostile feeds | `soak_ingest.json` |
//! | `sharded` | thousands of pairs on crash-contained shards, killed and revived mid-run | `soak_sharded.json` |
//! | `grayfail` | a storage brownout and heal, a latency-SLO suspicion and drain, a kill and revive | `soak_grayfail.json` |
//! | `mitigation` | convict → contain → residual loop → restore → step-down on a live bus channel | `mitigation_drill.json` |
//! | `service` | an audit service through a contained panic, a wedged monitor, two crashes and a storage brownout, with its metrics, scrape and trace | — |
//!
//! Summary files land in the working directory for CI artifact upload.
//! With no scenario named, all of them run in the order above. `--quick`
//! selects the CI smoke sizes; `CCHUNTER_SHARDS` overrides the shard
//! count of `sharded` (default 8) and `grayfail` (default 4).
//!
//! ```sh
//! cargo run --release --example soak                     # every scenario, full size
//! cargo run --release --example soak -- --quick          # CI smoke
//! cargo run --release --example soak -- --quick sharded grayfail
//! ```

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use cc_hunter::audit::{AuditSession, QuantumRunner};
use cc_hunter::channels::{
    BitClock, BusChannelConfig, BusSpy, BusTrojan, DecodeRule, Message, SpyLog, SpyLogHandle,
};
use cc_hunter::detector::auditor::ConflictRecord;
use cc_hunter::detector::mitigation::goodput_fraction;
use cc_hunter::detector::policy::mix_seed;
use cc_hunter::detector::span;
use cc_hunter::detector::supervisor::ChaosOp;
use cc_hunter::detector::{
    shard_count_from_env, AdmissionConfig, ApplyError, CcHunterConfig, CheckpointStore,
    ContainmentState, DeltaTPolicy, DensityHistogram, Harvest, IngestConfig, IngestPipeline,
    LatencySloConfig, MitigationConfig, MitigationEnforcer, MitigationLevel, PairInput, ProbeFault,
    ProbeSource, QuarantineConfig, RawEvent, ResidualProbe, ShardHealth, ShardedFleet,
    ShardedFleetConfig, ShedPolicy, StorageFaultClass, StorageFaultConfig, StorageFaultInjector,
    Supervisor, SupervisorConfig, SuspicionConfig, Verdict, HISTOGRAM_BINS,
};
use cc_hunter::sim::{ContextId, FnProgram, Machine, MachineConfig, Op};
use cc_hunter::{FaultClass, FaultConfig, FaultInjector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const QUANTUM: u64 = 2_500_000;

/// A scenario: runs to completion (quick or full size) or panics.
type Scenario = fn(bool);

/// The scenarios, in run order.
const SCENARIOS: [(&str, Scenario); 5] = [
    ("ingest", ingest),
    ("sharded", sharded),
    ("grayfail", grayfail),
    ("mitigation", mitigation),
    ("service", service),
];

fn main() {
    let mut quick = false;
    let mut chosen: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            name if SCENARIOS.iter().any(|(n, _)| *n == name) => chosen.push(arg.clone()),
            _ => {
                eprintln!("soak: unknown argument `{arg}`");
                eprintln!("usage: soak [--quick] [ingest|sharded|grayfail|mitigation|service]...");
                std::process::exit(2);
            }
        }
    }

    // Injected chaos panics (pair-level analysis panics and shard-level
    // heartbeat kills) are contained by the watchdogs; silence only those
    // in the default panic hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos:"));
        if !expected {
            default_hook(info);
        }
    }));

    let mode = if quick { "quick" } else { "full" };
    for (name, run) in SCENARIOS {
        if chosen.is_empty() || chosen.iter().any(|c| c == name) {
            println!("=== {name} ({mode} mode) ===");
            run(quick);
            println!();
        }
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

/// A covert-looking synthetic bus/divider histogram, varied by tick.
fn covert_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_400 + (tick % 7) * 3;
    bins[19] = 20;
    bins[20] = 150 + (tick % 5);
    bins[21] = 25;
    DensityHistogram::from_bins(bins, 100_000).expect("valid bins")
}

/// A benign synthetic histogram.
fn quiet_histogram(tick: u64) -> DensityHistogram {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    bins[0] = 2_490 + (tick % 9);
    bins[1] = 5;
    DensityHistogram::from_bins(bins, 100_000).expect("valid bins")
}

fn covert(tick: u64) -> PairInput {
    PairInput::Harvest(Harvest::Complete(covert_histogram(tick)))
}

fn quiet(tick: u64) -> PairInput {
    PairInput::Harvest(Harvest::Complete(quiet_histogram(tick)))
}

/// A fresh, empty per-process scratch directory for checkpoint stores.
fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cchunter-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a scenario's machine-readable summary for the CI artifact.
fn write_summary(path: &str, json: &str) {
    std::fs::write(path, json).expect("summary written");
    println!("summary written to {path}");
}

// ---------------------------------------------------------------------------
// `ingest`: the hardened ingest layer under overload and hostile feeds.
// ---------------------------------------------------------------------------

const INGEST_CAPACITY: usize = 512;
const INGEST_PAIRS: usize = 4;

/// A unit-weight raw bus event.
fn event(time: u64, context: u64) -> RawEvent {
    RawEvent {
        time,
        weight: 1,
        context: context as u8,
    }
}

/// Per-(pair, tick) deterministic event streams.
///
/// * pair 0 — benign trickle: sparse well-formed events.
/// * pair 1 — flooded covert channel: bursty foreground + a ~5× uniform
///   benign flood that overwhelms the admission queue every quantum.
/// * pair 2 — hostile feed: duplicates, zero-Δt packing, time travel, and
///   out-of-range context IDs on top of a benign base train.
/// * pair 3 — benign trickle whose *harvest* is then mangled by the fault
///   injector (dropped/truncated read-outs).
fn events_for(pair: usize, tick: u64, start: u64, end: u64) -> Vec<RawEvent> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(0x50CC, pair as u64, tick));
    let span = end - start;
    let mut events = Vec::new();
    match pair {
        1 => {
            // The covert channel: 10 bursts of 30 back-to-back events.
            for burst in 0..10u64 {
                let base = start + burst * span / 10;
                for i in 0..30u64 {
                    events.push(event(base + i * 97, i % 2));
                }
            }
            // The flood: chatty neighbours at ~4× the channel's volume.
            for _ in 0..1_200 {
                events.push(event(
                    start + rng.gen_range(0..span),
                    rng.gen_range(2..8u64),
                ));
            }
            events.sort_by_key(|e| e.time);
        }
        2 => {
            for _ in 0..300 {
                events.push(event(
                    start + rng.gen_range(0..span),
                    rng.gen_range(0..8u64),
                ));
            }
            events.sort_by_key(|e| e.time);
            for i in 0..25usize {
                let dup = events[i * events.len() / 25];
                events.push(dup); // exact duplicates
            }
            let t = start + span / 2;
            for i in 0..2_000u64 {
                events.push(event(t, i % 8)); // zero-Δt packing attack
            }
            for _ in 0..20 {
                events.push(event(start.saturating_sub(500_000), 0)); // time travel
            }
            for _ in 0..20 {
                events.push(event(end - 1, 250)); // out-of-range context
            }
        }
        _ => {
            // Benign trickle (pairs 0 and 3).
            for _ in 0..rng.gen_range(10..40) {
                events.push(event(
                    start + rng.gen_range(0..span),
                    rng.gen_range(0..8u64),
                ));
            }
            events.sort_by_key(|e| e.time);
            if pair == 3 {
                // The flaky collector also delivers slightly out of order,
                // within the sanitizer's bounded repair tolerance.
                for i in (3..events.len()).step_by(5) {
                    events[i].time = events[i - 1].time.saturating_sub(300);
                }
            }
        }
    }
    events
}

/// A supervised fleet fed for thousands of OS quanta through admission
/// queues, sanitizers, and saturating accumulators while an adversary
/// floods the buses, feeds hostile event trains, and the analysis itself
/// is made to panic. No panic escapes, memory stays bounded by the
/// admission capacity, per-push cost stays O(1)-cheap, the benign pair
/// never flips covert, the flooded covert pair is still convicted under
/// reservoir shedding, and every shed/repair/drop is visible in the
/// fleet's metrics snapshot.
fn ingest(quick: bool) {
    let ticks: u64 = if quick { 250 } else { 2_500 };

    let mut fleet = Supervisor::new(SupervisorConfig {
        window_quanta: 32,
        ..SupervisorConfig::default()
    })
    .expect("valid fleet config");
    for label in [
        "benign-bus: pid 8 <-> pid 31",
        "flooded-bus: pid 17 <-> pid 23",
        "hostile-feed: pid 50 <-> pid 51",
        "faulty-collector: pid 4 <-> pid 9",
    ] {
        fleet.add_contention_pair(label).expect("valid pair");
    }

    let mut pipelines: Vec<IngestPipeline> = (0..INGEST_PAIRS)
        .map(|pair| {
            IngestPipeline::new(IngestConfig {
                admission: AdmissionConfig {
                    capacity: INGEST_CAPACITY,
                    policy: if pair == 1 {
                        ShedPolicy::Reservoir { seed: 0xD1CE }
                    } else {
                        ShedPolicy::DropOldest
                    },
                },
                // Δt per resource, following each pair's mean event rate.
                delta_t: if pair == 1 || pair == 2 {
                    100_000
                } else {
                    10_000
                },
                ..IngestConfig::default()
            })
            .expect("valid ingest config")
        })
        .collect();
    let stats: Vec<_> = pipelines.iter().map(|p| p.stats()).collect();
    for s in &stats {
        fleet.attach_ingest_stats(s.clone());
    }
    let mut injector = FaultInjector::new(
        FaultConfig::only(FaultClass::DroppedQuantum)
            .with_rate(FaultClass::DroppedQuantum, 0.1)
            .with_rate(FaultClass::TruncatedHistogram, 0.2),
        0xB5_0003,
    );

    let mut offers: u64 = 0;
    let mut offer_ns: u128 = 0;
    let mut max_queue = 0usize;

    let started = Instant::now();
    let mut benign_flips = 0u64;
    let mut probe = |pair: usize, tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
        if pair == 2 && tick.is_multiple_of(97) {
            return Ok(PairInput::Chaos(ChaosOp::Panic));
        }
        let start = tick * QUANTUM;
        let end = start + QUANTUM;
        let pipeline = &mut pipelines[pair];
        let events = events_for(pair, tick, start, end);
        let t0 = Instant::now();
        for event in events {
            pipeline.offer(event);
            let len = pipeline.queue_len();
            assert!(len <= INGEST_CAPACITY, "queue exceeded capacity: {len}");
            max_queue = max_queue.max(len);
            offers += 1;
        }
        offer_ns += t0.elapsed().as_nanos();
        let (harvest, _report) = pipeline.end_quantum(start, end);
        if pair == 3 {
            // The collector between pipeline and daemon is flaky.
            if let Some(h) = harvest.histogram() {
                return Ok(PairInput::Harvest(injector.perturb_harvest(h.clone())));
            }
        }
        Ok(PairInput::Harvest(harvest))
    };

    for tick in 0..ticks {
        fleet.tick(&mut probe);
        if tick.is_multiple_of(25) || tick + 1 == ticks {
            let statuses = fleet.pair_statuses();
            if statuses[0].verdict.is_covert() {
                benign_flips += 1;
            }
        }
    }
    let elapsed = started.elapsed();

    let snap = fleet.metrics_snapshot();
    let statuses = fleet.pair_statuses();
    let mean_push_ns = offer_ns as f64 / offers.max(1) as f64;

    println!();
    println!("soak: {ticks} quanta x {INGEST_PAIRS} pairs in {elapsed:.2?}");
    println!(
        "ingest: {} offered, {} shed, {} repaired, {} dropped, {} partial, {} missed",
        snap.ingest.events_offered,
        snap.ingest.events_shed,
        snap.ingest.events_repaired,
        snap.ingest.events_dropped,
        snap.ingest.partial_harvests,
        snap.ingest.missed_harvests,
    );
    println!(
        "bounds: max queue {max_queue}/{INGEST_CAPACITY}, mean push {:.0} ns, {} contained failures",
        mean_push_ns, snap.failures
    );
    for s in &statuses {
        println!(
            "pair {}: {:<12} {}",
            s.index,
            s.verdict.to_string(),
            s.label
        );
    }

    // The robustness contract, asserted every run.
    assert_eq!(benign_flips, 0, "benign pair must never flip covert");
    assert_eq!(
        statuses[0].verdict,
        Verdict::Clean,
        "benign pair ends affirmatively clean"
    );
    assert!(
        statuses[1].verdict.is_covert(),
        "flooded covert pair must still be convicted under reservoir shedding: {:?}",
        statuses[1]
    );
    assert!(max_queue <= INGEST_CAPACITY, "admission memory is bounded");
    assert!(
        mean_push_ns < 10_000.0,
        "per-push cost must stay O(1)-cheap, got {mean_push_ns:.0} ns"
    );
    assert!(
        snap.failures > 0,
        "chaos panics were injected and contained"
    );
    assert!(
        !snap.ingest.is_empty(),
        "ingest activity visible in metrics"
    );
    assert!(snap.ingest.events_shed > 0 && snap.ingest.events_dropped > 0);
    assert!(snap.ingest.events_repaired > 0, "reorder repair exercised");
    let offered_via_handles: u64 = stats.iter().map(|s| s.events_offered.get()).sum();
    assert_eq!(snap.ingest.events_offered, offered_via_handles);
    assert_eq!(snap.ingest.events_offered, offers);

    let pair_json: Vec<String> = statuses
        .iter()
        .map(|s| {
            format!(
                "    {{ \"pair\": {}, \"label\": \"{}\", \"verdict\": \"{}\", \"panics\": {}, \"failures\": {} }}",
                s.index, s.label, s.verdict, s.panics, s.failures
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"ticks\": {ticks},\n  \"quick\": {quick},\n  \"elapsed_ms\": {},\n  \
         \"offers\": {offers},\n  \"mean_push_ns\": {mean_push_ns:.1},\n  \
         \"max_queue_len\": {max_queue},\n  \"capacity\": {INGEST_CAPACITY},\n  \
         \"benign_covert_flips\": {benign_flips},\n  \"contained_failures\": {},\n  \
         \"ingest\": {{\n    \"events_offered\": {},\n    \"events_shed\": {},\n    \
         \"events_repaired\": {},\n    \"events_dropped\": {},\n    \
         \"saturated_quanta\": {},\n    \"quanta\": {},\n    \
         \"partial_harvests\": {},\n    \"missed_harvests\": {}\n  }},\n  \
         \"pairs\": [\n{}\n  ]\n}}\n",
        elapsed.as_millis(),
        snap.failures,
        snap.ingest.events_offered,
        snap.ingest.events_shed,
        snap.ingest.events_repaired,
        snap.ingest.events_dropped,
        snap.ingest.saturated_quanta,
        snap.ingest.quanta,
        snap.ingest.partial_harvests,
        snap.ingest.missed_harvests,
        pair_json.join(",\n"),
    );
    write_summary("soak_ingest.json", &json);
}

// ---------------------------------------------------------------------------
// The sharded soaks (`sharded`, `grayfail`): shared fleet shape.
// ---------------------------------------------------------------------------

/// Adds the soak population: pair 0 is the planted covert channel, the
/// rest are benign.
fn add_soak_pairs(fleet: &mut ShardedFleet, pairs: usize) {
    fleet
        .add_contention_pair("covert-bus: pid 17 <-> pid 23")
        .expect("covert pair");
    for i in 1..pairs {
        fleet
            .add_contention_pair(format!(
                "pair-{i:05}: pid {} <-> pid {}",
                100 + i,
                20_000 + i
            ))
            .expect("benign pair");
    }
}

/// The soak population's probe: pair 0 transmits covertly, pairs below
/// `active` are chatty benign neighbours that feed real harvests every
/// tick, and the rest are the quiet long tail of co-scheduled pairs whose
/// probes miss (nothing to report).
fn soak_input(pair: usize, tick: u64, active: usize) -> PairInput {
    if pair == 0 {
        covert(tick)
    } else if pair < active {
        quiet(tick + pair as u64)
    } else {
        PairInput::Missed
    }
}

/// Ten thousand pairs hashed across eight crash-contained shard
/// supervisors, killed and resurrected mid-run while a planted covert
/// channel keeps transmitting. Every pair added is accounted for on every
/// sampled tick (monitored, degraded, or orphaned — never silently gone),
/// shard deaths migrate pairs onto survivors by checkpoint restore, the
/// planted covert pair is re-convicted after each forced migration, quiet
/// pairs never flip covert, and the coordinator's tick latency stays
/// bounded.
fn sharded(quick: bool) {
    const ACTIVE_PAIRS: usize = 64;
    let ticks: u64 = if quick { 80 } else { 500 };
    let pairs: usize = if quick { 1_024 } else { 10_240 };
    let shards = shard_count_from_env(8);

    let root = temp_root("soak-sharded");
    let config = ShardedFleetConfig {
        shards,
        base: SupervisorConfig {
            window_quanta: 8,
            ..SupervisorConfig::default()
        },
        ..ShardedFleetConfig::default()
    };
    let mut fleet = ShardedFleet::with_store_root(config, &root).expect("valid fleet");
    add_soak_pairs(&mut fleet, pairs);
    assert_eq!(fleet.len(), pairs);

    // The chaos schedule, in coordinator ticks.
    let checkpoint_every = ticks / 4;
    let kill_first = checkpoint_every + 2; // covert pair's home, post-checkpoint
    let kill_second = kill_first + 5; // covert pair's *new* home (fresh state → degraded import)
    let revive_all_at = ticks / 2;
    let panic_kill_at = revive_all_at + ticks / 8; // organic death via the heartbeat watchdog
    let revive_last_at = ticks - ticks / 8;

    let started = Instant::now();
    let mut tick_us: Vec<u64> = Vec::with_capacity(ticks as usize);
    let mut deaths_seen = 0usize;
    let mut migrated_total = 0usize;
    let mut degraded_imports_total = 0usize;
    let mut orphaned_total = 0usize;
    let mut heartbeat_misses_total = 0usize;
    let mut benign_flips = 0u64;
    let mut covert_convictions_after_migration = 0u64;
    let mut forced_migrations = 0u64;

    for tick in 0..ticks {
        if tick > 0 && tick.is_multiple_of(checkpoint_every) {
            fleet.checkpoint().expect("fleet checkpoint");
        }
        if tick == kill_first || tick == kill_second {
            let home = fleet.shard_of(0).expect("covert pair is hosted");
            let report = fleet.kill_shard(home).expect("shard killed");
            forced_migrations += 1;
            migrated_total += report.migrated;
            degraded_imports_total += report.degraded_imports;
            orphaned_total += report.orphaned;
            deaths_seen += 1;
            println!(
                "tick {tick:>4}: killed shard {home} (covert home) — {} migrated, {} degraded, {} orphaned",
                report.migrated, report.degraded_imports, report.orphaned
            );
        }
        if tick == panic_kill_at {
            // Let the heartbeat watchdog declare this death on its own.
            let home = fleet.shard_of(0).expect("covert pair is hosted");
            let dead_after = fleet.config().dead_after;
            fleet.panic_shard(home, dead_after).expect("chaos armed");
            println!("tick {tick:>4}: armed {dead_after} chaos panics on shard {home}");
        }
        if tick == revive_all_at || tick == revive_last_at {
            for status in fleet.shard_statuses() {
                if status.health == ShardHealth::Dead {
                    let report = fleet.revive_shard(status.index).expect("shard revived");
                    migrated_total += report.migrated;
                    println!(
                        "tick {tick:>4}: revived shard {} ({} orphans adopted)",
                        status.index, report.migrated
                    );
                }
            }
        }

        let mut probe = |pair: usize, _tick: u64, _attempt: u32| -> Result<PairInput, ProbeFault> {
            // One chatty neighbour's analysis panics now and then: the
            // pair watchdog (inside the shard) must contain it.
            if pair == 7 && tick.is_multiple_of(37) {
                return Ok(PairInput::Chaos(ChaosOp::Panic));
            }
            Ok(soak_input(pair, tick, ACTIVE_PAIRS))
        };
        let t0 = Instant::now();
        let report = fleet.tick(&mut probe);
        tick_us.push(t0.elapsed().as_micros() as u64);

        heartbeat_misses_total += report.heartbeat_misses.len();
        deaths_seen += report.deaths.len();
        migrated_total += report.migration.migrated;
        degraded_imports_total += report.migration.degraded_imports;
        orphaned_total += report.migration.orphaned;
        if !report.deaths.is_empty() {
            println!(
                "tick {tick:>4}: watchdog buried shards {:?} — {} migrated",
                report.deaths, report.migration.migrated
            );
        }

        if tick.is_multiple_of(25) || tick + 1 == ticks {
            let statuses = fleet.pair_statuses();
            assert_eq!(statuses.len(), pairs, "every pair accounted for");
            if statuses[0].verdict.is_covert() && forced_migrations > 0 {
                covert_convictions_after_migration += 1;
            }
            if statuses[1..].iter().any(|s| s.verdict.is_covert()) {
                benign_flips += 1;
            }
        }
    }
    let elapsed = started.elapsed();

    tick_us.sort_unstable();
    let pct = |p: f64| tick_us[((tick_us.len() - 1) as f64 * p) as usize];
    let (p50_us, p99_us) = (pct(0.50), pct(0.99));

    let statuses = fleet.pair_statuses();
    let shard_statuses = fleet.shard_statuses();
    let snap = fleet.metrics_snapshot();
    let live = fleet.live_shard_ids().len();
    let degraded_pairs = statuses.iter().filter(|s| s.degraded).count();
    let orphans_final = statuses.iter().filter(|s| s.shard.is_none()).count();

    println!();
    println!("soak: {ticks} ticks x {pairs} pairs x {shards} shards in {elapsed:.2?}");
    println!("latency: p50 {p50_us} us, p99 {p99_us} us; {live}/{shards} shards live at end");
    println!(
        "chaos: {deaths_seen} deaths, {heartbeat_misses_total} heartbeat misses, \
         {migrated_total} pair migrations, {degraded_imports_total} degraded imports, \
         {orphaned_total} transiently orphaned"
    );
    println!(
        "fleet: {} contained failures, {} panics, verdict[covert-pair] = {}, {} degraded pairs",
        snap.failures, snap.panics, statuses[0].verdict, degraded_pairs
    );

    // The sharding contract, asserted every run.
    assert!(deaths_seen >= 3, "two forced kills plus one watchdog death");
    assert!(forced_migrations >= 2, "covert pair force-migrated twice");
    assert!(migrated_total > 0, "migrations happened");
    assert_eq!(orphans_final, 0, "no pair left orphaned after revival");
    assert_eq!(statuses.len(), pairs, "zero lost pairs");
    assert_eq!(live, shards, "every shard revived by the end");
    assert!(
        statuses[0].verdict.is_covert(),
        "planted covert pair convicted at end-of-run: {:?}",
        statuses[0]
    );
    assert!(
        covert_convictions_after_migration > 0,
        "covert pair re-convicted after migration"
    );
    assert_eq!(benign_flips, 0, "no quiet pair ever flips covert");
    assert!(
        statuses[1..].iter().all(|s| !s.verdict.is_covert()),
        "quiet pairs end non-covert"
    );
    assert!(snap.panics > 0, "pair-level chaos panics were contained");
    assert!(
        heartbeat_misses_total >= fleet.config().dead_after as usize,
        "shard-level chaos tripped the heartbeat watchdog"
    );

    let shard_json: Vec<String> = shard_statuses
        .iter()
        .map(|s| {
            format!(
                "    {{ \"shard\": {}, \"pairs\": {}, \"deaths\": {}, \"panics\": {}, \"last_tick_us\": {} }}",
                s.index, s.pairs, s.deaths, s.panics, s.last_tick_us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"ticks\": {ticks},\n  \"pairs\": {pairs},\n  \"shards\": {shards},\n  \
         \"quick\": {quick},\n  \"elapsed_ms\": {},\n  \"tick_p50_us\": {p50_us},\n  \
         \"tick_p99_us\": {p99_us},\n  \"deaths\": {deaths_seen},\n  \
         \"heartbeat_misses\": {heartbeat_misses_total},\n  \"migrated\": {migrated_total},\n  \
         \"degraded_imports\": {degraded_imports_total},\n  \
         \"transient_orphans\": {orphaned_total},\n  \"final_orphans\": {orphans_final},\n  \
         \"degraded_pairs\": {degraded_pairs},\n  \"benign_covert_flips\": {benign_flips},\n  \
         \"covert_verdict\": \"{}\",\n  \"contained_failures\": {},\n  \
         \"shard_statuses\": [\n{}\n  ]\n}}\n",
        elapsed.as_millis(),
        statuses[0].verdict,
        snap.failures,
        shard_json.join(",\n"),
    );
    write_summary("soak_sharded.json", &json);

    let _ = std::fs::remove_dir_all(&root);
}

/// Gray failures while a planted covert channel keeps transmitting:
///
/// - An ENOSPC brownout (injected through the [`StorageFaultInjector`]
///   every shard store writes through) flips the fleet to
///   durability-degraded operation — detection continues, checkpoints go
///   to in-memory shadows — and healing the medium resumes durable
///   writes with a full re-persist.
/// - A shard stalled past the latency SLO is *suspected* (not killed):
///   its pairs drain proactively onto healthy shards, and once its
///   latency recovers the suspicion clears and the pairs walk back.
/// - A killed-and-revived shard gets its rendezvous-home pairs back,
///   at most `rebalance_per_tick` per tick.
/// - Throughout: the planted covert pair stays convicted, no quiet pair
///   ever flips covert, no pair is lost, and the placement/accounting
///   books balance on every sampled tick.
fn grayfail(quick: bool) {
    const ACTIVE_PAIRS: usize = 48;
    let pairs: usize = if quick { 160 } else { 512 };
    let shards = shard_count_from_env(4);
    let stall_us: u64 = 100_000;

    let root = temp_root("soak-grayfail");
    let config = ShardedFleetConfig {
        shards,
        base: SupervisorConfig {
            window_quanta: 8,
            checkpoint_every: 4,
            ..SupervisorConfig::default()
        },
        latency_slo: Some(LatencySloConfig {
            p99_budget_us: 25_000,
            window_ticks: 4,
            suspicion: SuspicionConfig {
                breach_ticks: 3,
                clear_ticks: 4,
            },
            drain_per_tick: 64,
        }),
        rebalance_per_tick: 24,
        ..ShardedFleetConfig::default()
    };
    let rebalance_per_tick = config.rebalance_per_tick;
    // The injector clone is the live control handle: flipping its config
    // browns out (and heals) every shard store at once.
    let injector = StorageFaultInjector::new(StorageFaultConfig::none(), 0x6AF1);
    let mut fleet =
        ShardedFleet::with_store_root_and_medium(config, &root, Arc::new(injector.clone()))
            .expect("valid fleet");
    add_soak_pairs(&mut fleet, pairs);

    let started = Instant::now();
    let mut tick: u64 = 0;
    let mut benign_flips = 0u64;
    let mut degraded_ticks = 0u64;
    let mut suspected_events = 0usize;
    let mut cleared_events = 0usize;
    let mut drained_total = 0usize;
    let mut rebalanced_total = 0usize;
    let mut watchdog_deaths = 0usize;

    // Shared per-tick bookkeeping, with the benign-flip audit sampled;
    // `soak_tick!(n)` runs `n` ticks.
    macro_rules! soak_tick {
        ($n:expr) => {
            for _ in 0..$n {
                soak_tick!();
            }
        };
        () => {{
            let report = fleet.tick(&mut |pair: usize, _t: u64, _a: u32| {
                Ok::<_, ProbeFault>(soak_input(pair, tick, ACTIVE_PAIRS))
            });
            tick += 1;
            suspected_events += report.suspected.len();
            cleared_events += report.cleared.len();
            drained_total += report.drained;
            rebalanced_total += report.rebalanced;
            watchdog_deaths += report.deaths.len();
            assert!(
                report.rebalanced <= rebalance_per_tick,
                "churn budget violated: {report:?}"
            );
            if fleet.metrics_snapshot().durability_degraded {
                degraded_ticks += 1;
            }
            if tick.is_multiple_of(5) {
                let statuses = fleet.pair_statuses();
                assert_eq!(statuses.len(), pairs, "every pair accounted for");
                if statuses[1..].iter().any(|s| s.verdict.is_covert()) {
                    benign_flips += 1;
                }
                fleet.verify_accounting().expect("books balance");
            }
            report
        }};
    }

    // Phase 1: warmup — the covert pair convicts under healthy storage.
    soak_tick!(24);
    assert!(
        fleet.pair_statuses()[0].verdict.is_covert(),
        "covert pair convicted in warmup"
    );
    let checkpoints_before_brownout = fleet.metrics_snapshot().checkpoints;
    assert!(
        checkpoints_before_brownout > 0,
        "healthy checkpoints landed"
    );
    println!("phase 1: warmup done — covert pair convicted, {checkpoints_before_brownout} checkpoints durable");

    // Phase 2: ENOSPC brownout. Every durable write fails; the fleet must
    // keep detecting and fall back to shadow checkpoints.
    injector.set_config(StorageFaultConfig::none().with_rate(StorageFaultClass::NoSpace, 1.0));
    soak_tick!(12);
    let snap = fleet.metrics_snapshot();
    assert!(
        snap.durability_degraded,
        "brownout must surface as degraded durability"
    );
    assert!(snap.shadow_checkpoints > 0, "shadow checkpoints were taken");
    assert!(snap.checkpoint_errors > 0, "the failures were counted");
    assert!(
        fleet.pair_statuses()[0].verdict.is_covert(),
        "detection continues through the brownout"
    );
    println!(
        "phase 2: brownout — durability degraded, {} shadow checkpoints, {} checkpoint errors",
        snap.shadow_checkpoints, snap.checkpoint_errors
    );

    // Phase 3: heal. Durable writes resume with a full re-persist.
    injector.set_config(StorageFaultConfig::none());
    soak_tick!(12);
    let snap = fleet.metrics_snapshot();
    assert!(
        !snap.durability_degraded,
        "healed medium restores durability"
    );
    assert!(snap.durability_heals >= 1, "the heal was a full re-persist");
    assert!(
        snap.checkpoints > checkpoints_before_brownout,
        "durable checkpoints resumed after the heal"
    );
    println!(
        "phase 3: healed — {} durability heals, checkpoints {} -> {}",
        snap.durability_heals, checkpoints_before_brownout, snap.checkpoints
    );

    // Phase 4: a gray-slow shard. The covert pair's home stalls past the
    // latency SLO every tick until it is suspected and drained — it must
    // never be declared dead for being slow.
    let victim = fleet.shard_of(0).expect("covert pair hosted");
    let victim_home_pairs: Vec<usize> = fleet
        .pair_statuses()
        .iter()
        .enumerate()
        .filter_map(|(p, s)| (s.shard == Some(victim)).then_some(p))
        .collect();
    let mut suspect_seen = false;
    for _ in 0..20 {
        fleet.stall_shard(victim, stall_us).expect("stall armed");
        let report = soak_tick!();
        if report.suspected.contains(&victim) {
            suspect_seen = true;
            break;
        }
    }
    assert!(suspect_seen, "sustained SLO breach raises suspicion");
    assert_eq!(
        fleet.shard_health(victim),
        Some(ShardHealth::Live),
        "a slow shard is suspected, not buried"
    );
    for _ in 0..8 {
        if fleet.shard_statuses()[victim].pairs == 0 {
            break;
        }
        fleet.stall_shard(victim, stall_us).expect("stall armed");
        soak_tick!();
    }
    assert_eq!(
        fleet.shard_statuses()[victim].pairs,
        0,
        "the suspected shard drains fully"
    );
    println!(
        "phase 4: shard {victim} suspected and drained ({} pairs moved off)",
        victim_home_pairs.len()
    );

    // Phase 5: the stall is gone; suspicion clears and the drained pairs
    // rebalance back onto their rendezvous home within the churn budget.
    let mut cleared_seen = false;
    for _ in 0..80 {
        let report = soak_tick!();
        if report.cleared.contains(&victim) {
            cleared_seen = true;
            break;
        }
    }
    assert!(cleared_seen, "recovered latency clears the suspicion");
    let returned = |fleet: &ShardedFleet, home_pairs: &[usize], home: usize| {
        home_pairs
            .iter()
            .filter(|&&p| fleet.shard_of(p) == Some(home))
            .count()
    };
    for _ in 0..60 {
        if returned(&fleet, &victim_home_pairs, victim) == victim_home_pairs.len() {
            break;
        }
        soak_tick!();
    }
    let back = returned(&fleet, &victim_home_pairs, victim);
    assert!(
        back * 10 >= victim_home_pairs.len() * 9,
        "at least 90% of the drained pairs must be home again: {back}/{}",
        victim_home_pairs.len()
    );
    println!(
        "phase 5: suspicion cleared, {back}/{} pairs rebalanced home",
        victim_home_pairs.len()
    );

    // Phase 6: hard kill and revive. The revived shard starts empty and
    // gets its rendezvous-home pairs back, bounded per tick.
    fleet.checkpoint().expect("pre-kill checkpoint");
    let homes: Vec<usize> = (0..pairs)
        .map(|p| fleet.shard_of(p).expect("hosted"))
        .collect();
    let killed = fleet.shard_of(0).expect("covert pair hosted");
    let killed_home_pairs: Vec<usize> = homes
        .iter()
        .enumerate()
        .filter_map(|(p, &h)| (h == killed).then_some(p))
        .collect();
    let report = fleet.kill_shard(killed).expect("shard killed");
    assert_eq!(report.orphaned, 0, "survivors adopt everything");
    soak_tick!();
    fleet.revive_shard(killed).expect("shard revived");
    for _ in 0..60 {
        if returned(&fleet, &killed_home_pairs, killed) == killed_home_pairs.len() {
            break;
        }
        soak_tick!();
    }
    let back = returned(&fleet, &killed_home_pairs, killed);
    assert!(
        back * 10 >= killed_home_pairs.len() * 9,
        "at least 90% of the revived shard's home pairs must return: {back}/{}",
        killed_home_pairs.len()
    );
    // Settle and verify the final placement is the rendezvous placement.
    soak_tick!(8);
    for (p, &home) in homes.iter().enumerate() {
        assert_eq!(
            fleet.shard_of(p),
            Some(home),
            "pair {p} must end at its rendezvous home"
        );
    }
    println!(
        "phase 6: shard {killed} killed and revived, {back}/{} home pairs rebalanced back",
        killed_home_pairs.len()
    );
    let elapsed = started.elapsed();

    // The gray-failure contract, asserted every run.
    let statuses = fleet.pair_statuses();
    let snap = fleet.metrics_snapshot();
    fleet.verify_accounting().expect("final books balance");
    assert_eq!(watchdog_deaths, 0, "no shard died for being slow");
    assert_eq!(
        fleet.live_shard_ids().len(),
        shards,
        "every shard live at end"
    );
    assert!(suspected_events >= 1 && cleared_events >= 1);
    assert!(drained_total > 0 && rebalanced_total > 0);
    assert_eq!(
        statuses.iter().filter(|s| s.shard.is_none()).count(),
        0,
        "no pair left orphaned"
    );
    assert!(
        statuses[0].verdict.is_covert(),
        "planted covert pair convicted at end-of-run: {:?}",
        statuses[0]
    );
    assert_eq!(benign_flips, 0, "no quiet pair ever flips covert");
    assert!(!snap.durability_degraded, "durable at end-of-run");

    println!();
    println!("soak: {tick} ticks x {pairs} pairs x {shards} shards in {elapsed:.2?}");
    println!(
        "gray failures: {degraded_ticks} degraded ticks, {} shadow checkpoints, {} heals, \
         {suspected_events} suspicions, {cleared_events} clears, \
         {drained_total} drained, {rebalanced_total} rebalanced",
        snap.shadow_checkpoints, snap.durability_heals
    );

    let json = format!(
        "{{\n  \"ticks\": {tick},\n  \"pairs\": {pairs},\n  \"shards\": {shards},\n  \
         \"quick\": {quick},\n  \"elapsed_ms\": {},\n  \"degraded_ticks\": {degraded_ticks},\n  \
         \"shadow_checkpoints\": {},\n  \"durability_heals\": {},\n  \
         \"checkpoint_errors\": {},\n  \"suspected_events\": {suspected_events},\n  \
         \"cleared_events\": {cleared_events},\n  \"drained_pairs\": {drained_total},\n  \
         \"rebalanced_pairs\": {rebalanced_total},\n  \"watchdog_deaths\": {watchdog_deaths},\n  \
         \"home_return_fraction\": {:.3},\n  \"benign_covert_flips\": {benign_flips},\n  \
         \"covert_verdict\": \"{}\"\n}}\n",
        elapsed.as_millis(),
        snap.shadow_checkpoints,
        snap.durability_heals,
        snap.checkpoint_errors,
        back as f64 / killed_home_pairs.len().max(1) as f64,
        statuses[0].verdict,
    );
    write_summary("soak_grayfail.json", &json);

    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// The simulated bus-channel rig (`mitigation`, `service`).
// ---------------------------------------------------------------------------

const BIT_CYCLES: u64 = 250_000;
/// The paper's evaluation platform runs at 2.5 GHz.
const CLOCK_HZ: f64 = 2.5e9;
const NOMINAL_BPS: f64 = CLOCK_HZ / BIT_CYCLES as f64;
/// Long enough that no scenario runs the trojan out of message.
const MESSAGE_BITS: usize = 800;

/// One simulated machine carrying the bus covert channel (trojan on core 0,
/// spy on core 1) and a benign streaming co-runner on core 2 whose issue
/// rate measures mitigation collateral. The rig is the "hardware": it
/// keeps running when the audit service crashes, and it is stepped one
/// quantum per supervisor tick, with dropped-quantum fault injection on
/// the read-out path.
struct BusRig {
    machine: Rc<RefCell<Machine>>,
    session: AuditSession,
    runner: QuantumRunner,
    injector: FaultInjector,
    log: SpyLogHandle,
    sent: Message,
    benign_ops: Rc<Cell<u64>>,
    trojan_ctx: ContextId,
    spy_ctx: ContextId,
    quanta: u64,
}

impl BusRig {
    fn new(drop_rate: f64, fault_seed: u64) -> Self {
        let config = MachineConfig::builder()
            .quantum_cycles(QUANTUM)
            .build()
            .expect("valid machine config");
        let mut machine = Machine::new(config);
        let trojan_ctx = machine.config().context_id(0, 0);
        let spy_ctx = machine.config().context_id(1, 0);
        let benign_ctx = machine.config().context_id(2, 0);

        let sent = Message::alternating(MESSAGE_BITS);
        let clock = BitClock::new(0, BIT_CYCLES);
        let channel = BusChannelConfig::new(sent.clone(), clock);
        let log: SpyLogHandle = SpyLog::new_handle();
        machine.spawn(
            Box::new(BusTrojan::new(channel.clone(), 0x1000_0000)),
            trojan_ctx,
        );
        machine.spawn(
            Box::new(BusSpy::new(channel, 0x4000_0000, log.clone())),
            spy_ctx,
        );

        // Benign co-runner: a streaming reader whose issued-op count is the
        // collateral-damage meter.
        let benign_ops = Rc::new(Cell::new(0u64));
        let counter = benign_ops.clone();
        let mut cursor = 0u64;
        machine.spawn(
            Box::new(FnProgram::new("benign-stream", move |_v| {
                counter.set(counter.get() + 1);
                cursor = cursor.wrapping_add(1);
                if cursor.is_multiple_of(4) {
                    Op::Compute { cycles: 400 }
                } else {
                    Op::Load {
                        addr: 0x7000_0000 + (cursor % 65_536) * 64,
                    }
                }
            })),
            benign_ctx,
        );

        let mut session = AuditSession::new();
        session.audit_bus(100_000).expect("bus audit");
        session.attach(&mut machine);

        BusRig {
            machine: Rc::new(RefCell::new(machine)),
            session,
            runner: QuantumRunner::new(QUANTUM).expect("nonzero quantum"),
            injector: FaultInjector::new(
                FaultConfig::only(FaultClass::DroppedQuantum)
                    .with_rate(FaultClass::DroppedQuantum, drop_rate),
                fault_seed,
            ),
            log,
            sent,
            benign_ops,
            trojan_ctx,
            spy_ctx,
            quanta: 0,
        }
    }

    /// Advances one quantum and hands back the bus harvest. A read-out the
    /// injector dropped is a miss, and so is every retry of it: the quantum
    /// already drained the auditor's buffer, so there is nothing to re-read
    /// and a retry must not advance the hardware again.
    fn harvest(&mut self, attempt: u32) -> PairInput {
        if attempt > 0 {
            return PairInput::Missed;
        }
        self.quanta += 1;
        let quantum = self
            .runner
            .run_quantum_with_injector(
                &mut self.machine.borrow_mut(),
                &mut self.session,
                &mut self.injector,
            )
            .expect("audit harvest");
        match quantum.bus.expect("bus is audited") {
            Harvest::Missed => PairInput::Missed,
            harvest => PairInput::Harvest(harvest),
        }
    }

    /// Message bits whose transmission window has fully elapsed.
    fn bits_transmitted(&self) -> usize {
        ((self.quanta * QUANTUM / BIT_CYCLES) as usize).min(MESSAGE_BITS)
    }

    /// Goodput fraction over decoded bits `[lo, hi)`, judged against the
    /// sent message.
    fn goodput_between(&self, lo: usize, hi: usize) -> f64 {
        let decoded = self.log.borrow().decode(DecodeRule::Midpoint, MESSAGE_BITS);
        let correct = (lo..hi)
            .filter(|&i| decoded.bit(i) == self.sent.bit(i))
            .count();
        goodput_fraction(correct, hi - lo)
    }
}

/// The rig as a single-pair probe source.
impl ProbeSource for BusRig {
    fn probe(&mut self, _pair: usize, _tick: u64, attempt: u32) -> Result<PairInput, ProbeFault> {
        Ok(self.harvest(attempt))
    }
}

/// The supervisor configuration for fleets probing a [`BusRig`]: the
/// rig's fixed Δt, no analysis deadline, a checkpoint every 5 quanta, and
/// a quarantine that trips on a wedged monitor within a few quanta.
fn bus_fleet_config() -> SupervisorConfig {
    SupervisorConfig {
        hunter: CcHunterConfig {
            quantum_cycles: QUANTUM,
            delta_t: DeltaTPolicy::Fixed(100_000),
            ..CcHunterConfig::default()
        },
        window_quanta: 8,
        deadline_us: 0,
        checkpoint_every: 5,
        quarantine: QuarantineConfig {
            failure_window: 6,
            trip_threshold: 0.5,
            min_observations: 4,
            probe_interval: 4,
            recovery_successes: 2,
            confidence_decay: 0.7,
        },
        ..SupervisorConfig::default()
    }
}

// ---------------------------------------------------------------------------
// `mitigation`: closed-loop containment of a live channel.
// ---------------------------------------------------------------------------

const MITIGATION_DROP_RATE: f64 = 0.10;
const MAX_CONTAIN_TICKS: u64 = 40;

/// The sim-side actuator: maps ladder rungs onto the machine's scheduler
/// and cache-hardware containment controls. Refusals in `refuse` model a
/// wedged firmware interface — the policy must escalate past them, never
/// silently no-op.
struct MachineEnforcer {
    machine: Rc<RefCell<Machine>>,
    trojan_ctx: ContextId,
    spy_ctx: ContextId,
    refuse: Vec<MitigationLevel>,
    refusals_served: u64,
    applied: Vec<MitigationLevel>,
    released: Vec<MitigationLevel>,
}

impl MachineEnforcer {
    fn new(rig: &BusRig, refuse: Vec<MitigationLevel>) -> Self {
        MachineEnforcer {
            machine: rig.machine.clone(),
            trojan_ctx: rig.trojan_ctx,
            spy_ctx: rig.spy_ctx,
            refuse,
            refusals_served: 0,
            applied: Vec::new(),
            released: Vec::new(),
        }
    }
}

impl MitigationEnforcer for MachineEnforcer {
    fn apply(&mut self, _pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
        if self.refuse.contains(&level) {
            self.refusals_served += 1;
            return Err(ApplyError {
                reason: format!("injected: firmware rejected {level} control write"),
            });
        }
        let mut m = self.machine.borrow_mut();
        match level {
            MitigationLevel::FlushOnSwitch => m.set_flush_on_switch(true),
            MitigationLevel::TemporalPartition => {
                m.set_temporal_phase(self.trojan_ctx, Some(0));
                m.set_temporal_phase(self.spy_ctx, Some(1));
            }
            MitigationLevel::WayPartition => {
                m.set_l2_way_mask(self.trojan_ctx, 0x0F)
                    .map_err(|reason| ApplyError { reason })?;
                m.set_l2_way_mask(self.spy_ctx, 0xF0)
                    .map_err(|reason| ApplyError { reason })?;
            }
            MitigationLevel::Deschedule => m.park_context(self.trojan_ctx),
        }
        self.applied.push(level);
        Ok(())
    }

    fn release(&mut self, _pair: usize, level: MitigationLevel) -> Result<(), ApplyError> {
        let mut m = self.machine.borrow_mut();
        match level {
            MitigationLevel::FlushOnSwitch => m.set_flush_on_switch(false),
            MitigationLevel::TemporalPartition => {
                m.set_temporal_phase(self.trojan_ctx, None);
                m.set_temporal_phase(self.spy_ctx, None);
            }
            MitigationLevel::WayPartition => {
                m.clear_l2_way_mask(self.trojan_ctx);
                m.clear_l2_way_mask(self.spy_ctx);
            }
            MitigationLevel::Deschedule => m.resume_context(self.trojan_ctx),
        }
        self.released.push(level);
        Ok(())
    }
}

fn rig_fleet_config(convict_streak: u32) -> SupervisorConfig {
    let base = bus_fleet_config();
    SupervisorConfig {
        checkpoint_every: 10,
        quarantine: QuarantineConfig {
            trip_threshold: 0.9,
            min_observations: 5,
            ..base.quarantine
        },
        mitigation: MitigationConfig {
            convict_streak,
            // Hold whatever rung ends up containing the channel for the
            // whole measurement window; the step-down path is exercised by
            // the synthetic fleet below.
            step_down_streak: 1_000,
            ..MitigationConfig::default()
        },
        ..base
    }
}

/// Outcome of one conviction run against a fresh rig.
struct ContainRun {
    rig: BusRig,
    fleet: Supervisor,
    enforcer: MachineEnforcer,
    conviction_tick: u64,
    containment_tick: u64,
    latency_ticks: u64,
    bits_leaked: usize,
    bits_before_containment: usize,
}

/// Drives a fresh rig under a supervisor until containment is in force,
/// returning the latency/leakage point for the headline curve.
fn run_until_contained(
    convict_streak: u32,
    refuse: Vec<MitigationLevel>,
    store: Option<CheckpointStore>,
    fault_seed: u64,
) -> ContainRun {
    let mut rig = BusRig::new(MITIGATION_DROP_RATE, fault_seed);
    let mut enforcer = MachineEnforcer::new(&rig, refuse);
    let mut fleet = Supervisor::new(rig_fleet_config(convict_streak)).expect("valid fleet config");
    if let Some(store) = store {
        fleet = fleet.with_store(store);
    }
    fleet
        .add_contention_pair("memory-bus: trojan core 0 <-> spy core 1")
        .expect("valid pair");

    let mut conviction_tick = None;
    let (containment_tick, latency_ticks) = loop {
        assert!(
            fleet.tick_count() < MAX_CONTAIN_TICKS,
            "channel must be contained within {MAX_CONTAIN_TICKS} quanta \
             (convict_streak {convict_streak}); containment: {:?}",
            fleet.containment(0)
        );
        let report = fleet.tick_with_enforcer(&mut rig, &mut enforcer);
        let containment = fleet.containment(0).expect("pair 0 exists");
        if conviction_tick.is_none() && containment.is_active() {
            conviction_tick = Some(report.tick);
        }
        if matches!(containment, ContainmentState::Contained { .. }) {
            break (
                report.tick,
                fleet
                    .containment_latency_ticks(0)
                    .expect("containment latency is recorded once a rung holds"),
            );
        }
    };

    let bits_before_containment = rig.bits_transmitted();
    let goodput = rig.goodput_between(0, bits_before_containment);
    let bits_leaked = (goodput * bits_before_containment as f64).round() as usize;
    ContainRun {
        rig,
        fleet,
        enforcer,
        conviction_tick: conviction_tick.expect("conviction precedes containment"),
        containment_tick,
        latency_ticks,
        bits_leaked,
        bits_before_containment,
    }
}

/// Convict a live simulated bus channel, contain it through the escalation
/// ladder (with an injected enforcement refusal), re-measure the residual
/// leak and the benign overhead, survive a kill-and-restore of the audit
/// service, and step back down once the leak closes. The summary's
/// headline is detection-to-containment latency versus bits leaked, swept
/// over the conviction threshold, plus the residual-bandwidth drop the
/// applied rung achieved.
fn mitigation(quick: bool) {
    let baseline_quanta: u64 = if quick { 8 } else { 12 };
    let residual_quanta: u64 = if quick { 8 } else { 12 };
    let sweep_streaks: &[u32] = if quick { &[2] } else { &[1, 2, 3, 4] };
    let started = Instant::now();

    println!("mitigation drill: bus channel at {NOMINAL_BPS:.0} bps nominal");

    // --- Phase A: unmitigated baseline. -----------------------------------
    let mut baseline_rig = BusRig::new(MITIGATION_DROP_RATE, 0xD11_0000);
    for _ in 0..baseline_quanta {
        let _ = baseline_rig.harvest(0);
    }
    let baseline_bits = baseline_rig.bits_transmitted();
    let baseline_goodput = baseline_rig.goodput_between(0, baseline_bits);
    let baseline_bps = baseline_goodput * NOMINAL_BPS;
    let baseline_benign_rate = baseline_rig.benign_ops.get() as f64 / baseline_quanta as f64;
    println!(
        "baseline: goodput {baseline_goodput:.3} over {baseline_bits} bits \
         -> {baseline_bps:.0} bps; benign {baseline_benign_rate:.0} ops/quantum"
    );
    assert!(
        baseline_goodput > 0.5,
        "unmitigated channel must decode well, got goodput {baseline_goodput:.3}"
    );

    // --- Phase B: conviction + containment with an injected refusal. ------
    let store_dir = temp_root("mitigation-drill");
    let mut run = run_until_contained(
        2,
        vec![MitigationLevel::FlushOnSwitch],
        Some(CheckpointStore::open(&store_dir, 3).expect("store opens")),
        0xD11_0001,
    );
    let contained_level = run
        .fleet
        .containment(0)
        .and_then(|c| c.level())
        .expect("containment holds a rung");
    println!(
        "contained: convicted at tick {}, rung `{contained_level}` in force at tick {} \
         (latency {} ticks); {} injected refusal(s) forced {} escalation(s)",
        run.conviction_tick,
        run.containment_tick,
        run.latency_ticks,
        run.enforcer.refusals_served,
        run.fleet.metrics_snapshot().mitigation_escalations,
    );
    assert!(
        run.enforcer.refusals_served > 0,
        "the injected first-rung refusal must have been exercised"
    );
    assert!(
        !run.enforcer
            .applied
            .contains(&MitigationLevel::FlushOnSwitch),
        "a refused rung must never be recorded as applied"
    );
    assert!(
        contained_level.rank() >= MitigationLevel::TemporalPartition.rank(),
        "refusing flush-on-switch must escalate to a stronger rung, got {contained_level}"
    );
    assert!(
        run.fleet.metrics_snapshot().mitigation_escalations >= 1,
        "escalation must be visible in metrics"
    );

    // --- Phase C: the closed residual loop. -------------------------------
    // Re-measure the leak under the rung in force, report it back, and let
    // the policy escalate whenever the reading stays above the cap — until
    // the residual bandwidth is down >= 90% from the unmitigated baseline.
    let probe = ResidualProbe::new(baseline_bps, baseline_benign_rate).expect("valid baseline");
    let mut trajectory: Vec<(MitigationLevel, f64, f64, f64)> = Vec::new();
    let final_reading = loop {
        let level = run
            .fleet
            .containment(0)
            .and_then(|c| c.level())
            .expect("containment stays active through the residual loop");
        let bits_lo = run.rig.bits_transmitted();
        let benign_lo = run.rig.benign_ops.get();
        for _ in 0..residual_quanta {
            run.fleet
                .tick_with_enforcer(&mut run.rig, &mut run.enforcer);
        }
        let window_goodput = run.rig.goodput_between(bits_lo, run.rig.bits_transmitted());
        let window_bps = window_goodput * NOMINAL_BPS;
        let benign_rate = (run.rig.benign_ops.get() - benign_lo) as f64 / residual_quanta as f64;
        let reading = probe.reading(window_bps, benign_rate, run.fleet.tick_count());
        run.fleet
            .report_residual(0, reading.residual_fraction, reading.overhead_fraction)
            .expect("residual report accepted");
        println!(
            "residual under `{level}`: goodput {window_goodput:.3} -> {window_bps:.0} bps \
             ({:.1}% of baseline); benign overhead {:.1}%",
            reading.residual_fraction * 100.0,
            reading.overhead_fraction * 100.0,
        );
        trajectory.push((
            level,
            window_goodput,
            reading.residual_fraction,
            reading.overhead_fraction,
        ));
        if reading.residual_fraction <= 0.1 {
            break reading;
        }
        assert!(
            trajectory.len() <= MitigationLevel::LADDER.len(),
            "the ladder must close the leak before it runs out of rungs: {trajectory:?}"
        );
        // One transition tick: the policy sees the over-cap reading and
        // escalates, so the next window measures the stronger rung.
        run.fleet
            .tick_with_enforcer(&mut run.rig, &mut run.enforcer);
    };
    let drop_percent = (1.0 - final_reading.residual_fraction) * 100.0;
    let residual_windows = trajectory.len() as u64;
    assert!(
        final_reading.residual_fraction <= 0.1,
        "containment must cut the leak by >= 90%, residual fraction {:.3}",
        final_reading.residual_fraction
    );
    if trajectory.len() > 1 {
        assert!(
            run.fleet.metrics_snapshot().mitigation_escalations >= trajectory.len() as u64,
            "each over-cap reading must escalate the ladder"
        );
    }

    // --- Phase D: the audit service dies; containment must survive. -------
    let generation = run.fleet.checkpoint().expect("checkpoint written");
    let containment_before = run.fleet.containment(0).expect("pair exists");
    let latency_before = run.fleet.containment_latency_ticks(0);
    drop(run.fleet);
    let (mut restored, _report) = Supervisor::restore(
        rig_fleet_config(2),
        CheckpointStore::open(&store_dir, 3).expect("store reopens"),
    )
    .expect("restore succeeds");
    assert_eq!(
        restored.containment(0),
        Some(containment_before),
        "containment round-trips the checkpoint"
    );
    assert_eq!(
        restored.containment_latency_ticks(0),
        latency_before,
        "containment latency round-trips the checkpoint"
    );
    // A restarted service cannot trust the hardware state it inherited:
    // the first tick must re-assert the rung through the enforcer.
    let mut fresh_enforcer = MachineEnforcer::new(&run.rig, Vec::new());
    restored.tick_with_enforcer(&mut run.rig, &mut fresh_enforcer);
    let reasserted = containment_before
        .level()
        .expect("containment is active at the crash");
    assert!(
        fresh_enforcer.applied.contains(&reasserted),
        "restored supervisor must re-assert `{reasserted}` through the enforcer, applied: {:?}",
        fresh_enforcer.applied
    );
    println!(
        "restore: containment `{}` survived generation {generation} and was re-asserted",
        containment_before.name()
    );

    // --- Phase E: the ladder steps down when the leak closes. -------------
    let mut stepdown_fleet = Supervisor::new(SupervisorConfig {
        window_quanta: 8,
        deadline_us: 0,
        mitigation: MitigationConfig {
            convict_streak: 2,
            step_down_streak: 2,
            ..MitigationConfig::default()
        },
        ..SupervisorConfig::default()
    })
    .expect("valid step-down config");
    stepdown_fleet
        .add_contention_pair("divider: synthetic step-down pair")
        .expect("valid pair");
    // The step-down pair is synthetic, so the enforcer actuates an idle
    // spare machine — only the apply/release bookkeeping matters here.
    let dummy_rig = BusRig::new(MITIGATION_DROP_RATE, 0xD11_0002);
    let mut advisory = MachineEnforcer::new(&dummy_rig, Vec::new());
    let mut covert_source = |_p: usize, tick: u64, _a: u32| Ok::<_, ProbeFault>(covert(tick));
    while !stepdown_fleet
        .containment(0)
        .expect("pair exists")
        .is_active()
    {
        assert!(stepdown_fleet.tick_count() < 30, "synthetic pair convicts");
        stepdown_fleet.tick_with_enforcer(&mut covert_source, &mut advisory);
    }
    let mut quiet_source = |_p: usize, tick: u64, _a: u32| Ok::<_, ProbeFault>(quiet(tick));
    let mut stepdown_ticks = 0u64;
    while stepdown_fleet
        .containment(0)
        .expect("pair exists")
        .is_active()
    {
        assert!(
            stepdown_ticks < 60,
            "quiet pair must step all the way down, stuck at {:?}",
            stepdown_fleet.containment(0)
        );
        stepdown_fleet
            .report_residual(0, 0.02, 0.01)
            .expect("residual accepted");
        stepdown_fleet.tick_with_enforcer(&mut quiet_source, &mut advisory);
        stepdown_ticks += 1;
    }
    let step_downs = stepdown_fleet.metrics_snapshot().mitigation_stepdowns;
    assert!(step_downs >= 1, "at least one step-down must be recorded");
    assert!(
        advisory.released.contains(&MitigationLevel::FlushOnSwitch),
        "the final rung must be released through the enforcer"
    );
    println!(
        "step-down: synthetic pair released to inactive after {stepdown_ticks} quiet quanta \
         ({step_downs} step-down(s))"
    );

    // --- Phase F: latency-vs-leak sweep over the conviction threshold. ----
    let mut sweep = Vec::new();
    for &streak in sweep_streaks {
        // Same fault seed for every point: the runs differ only in the
        // conviction threshold, so the latency curve is monotone by
        // construction.
        let point = run_until_contained(streak, Vec::new(), None, 0xD11_0100);
        println!(
            "sweep: convict_streak {streak} -> contained at tick {} \
             (latency {} ticks), ~{} bits leaked of {} transmitted",
            point.containment_tick,
            point.latency_ticks,
            point.bits_leaked,
            point.bits_before_containment,
        );
        sweep.push((streak, point));
    }
    // More patience before conviction can only leak more bits.
    for pair in sweep.windows(2) {
        assert!(
            pair[1].1.containment_tick >= pair[0].1.containment_tick,
            "a higher conviction threshold cannot contain earlier"
        );
    }

    // --- The diffable artifact. -------------------------------------------
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(streak, p)| {
            format!(
                "    {{ \"convict_streak\": {streak}, \"conviction_tick\": {}, \
                 \"containment_tick\": {}, \"latency_ticks\": {}, \"latency_cycles\": {}, \
                 \"bits_transmitted\": {}, \"bits_leaked\": {} }}",
                p.conviction_tick,
                p.containment_tick,
                p.latency_ticks,
                p.latency_ticks * QUANTUM,
                p.bits_before_containment,
                p.bits_leaked,
            )
        })
        .collect();
    let trajectory_json: Vec<String> = trajectory
        .iter()
        .map(|(level, goodput, fraction, overhead)| {
            format!(
                "      {{ \"level\": \"{level}\", \"goodput\": {goodput:.4}, \
                 \"fraction_of_baseline\": {fraction:.4}, \
                 \"benign_overhead_fraction\": {overhead:.4} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"elapsed_ms\": {},\n  \"clock_hz\": {CLOCK_HZ},\n  \
         \"nominal_bps\": {NOMINAL_BPS},\n  \"baseline\": {{\n    \"quanta\": {baseline_quanta},\n    \
         \"goodput\": {baseline_goodput:.4},\n    \"bandwidth_bps\": {baseline_bps:.1},\n    \
         \"benign_ops_per_quantum\": {baseline_benign_rate:.1}\n  }},\n  \"containment\": {{\n    \
         \"convict_streak\": 2,\n    \"injected_refusals\": {},\n    \
         \"first_contained_level\": \"{contained_level}\",\n    \"final_level\": \"{reasserted}\",\n    \
         \"conviction_tick\": {},\n    \"containment_tick\": {},\n    \"latency_ticks\": {},\n    \
         \"bits_leaked_before_containment\": {},\n    \"residual\": {{\n      \
         \"window_quanta\": {residual_quanta},\n      \"windows\": {residual_windows},\n      \
         \"fraction_of_baseline\": {:.4},\n      \"drop_percent\": {drop_percent:.1},\n      \
         \"benign_overhead_fraction\": {:.4},\n      \"trajectory\": [\n{}\n      ]\n    }}\n  }},\n  \
         \"restore\": {{\n    \"generation\": {generation},\n    \"containment_preserved\": true,\n    \
         \"reasserted_level\": \"{reasserted}\"\n  }},\n  \"step_down\": {{\n    \
         \"quiet_quanta\": {stepdown_ticks},\n    \"step_downs\": {step_downs},\n    \
         \"released_to_inactive\": true\n  }},\n  \"latency_vs_leak\": [\n{}\n  ]\n}}\n",
        started.elapsed().as_millis(),
        run.enforcer.refusals_served,
        run.conviction_tick,
        run.containment_tick,
        run.latency_ticks,
        run.bits_leaked,
        final_reading.residual_fraction,
        final_reading.overhead_fraction,
        trajectory_json.join(",\n"),
        sweep_json.join(",\n"),
    );
    write_summary("mitigation_drill.json", &json);
    let _ = std::fs::remove_dir_all(&store_dir);
}

// ---------------------------------------------------------------------------
// `service`: the audit service's crash/restore, panic and wedge flow, with
// its metrics and tracing surface.
// ---------------------------------------------------------------------------

const SERVICE_TICKS: u64 = 40;
const SERVICE_DROP_RATE: f64 = 0.15;
const PANIC_AT: u64 = 12;
/// A clean crash: the restore resumes at the newest checkpoint.
const CRASH_AT: u64 = 20;
const WEDGED_UNTIL: u64 = 28;
/// A crash whose newest checkpoint generation is corrupt: the restore
/// rolls back one generation per entry and re-runs the lost quanta.
const CORRUPT_CRASH_AT: u64 = 30;
/// Stable storage browns out across quantum 30's (re-run) checkpoint and
/// heals before quantum 35's.
const BROWNOUT_AT: u64 = 29;
const HEAL_AT: u64 = 32;

/// A complete batch of cache conflict records.
fn conflicts(records: impl Iterator<Item = ConflictRecord>) -> PairInput {
    PairInput::Conflicts {
        records: records.collect(),
        lost_fraction: 0.0,
    }
}

/// A strongly periodic covert conflict batch.
fn covert_conflicts(tick: u64) -> PairInput {
    conflicts((0..128u64).map(|i| ConflictRecord {
        cycle: tick * QUANTUM + i * 700,
        replacer: if i % 2 == 0 { 2 } else { 5 },
        victim: if i % 2 == 0 { 5 } else { 2 },
    }))
}

/// A sparse, aperiodic (benign) conflict batch.
fn quiet_conflicts(tick: u64) -> PairInput {
    conflicts((0..12u64).map(|i| ConflictRecord {
        cycle: tick * QUANTUM + i * i * 3_517 + (tick % 11) * 101,
        replacer: ((i * 5 + tick) % 7) as u8,
        victim: ((i * 3 + tick / 2) % 7) as u8,
    }))
}

fn build_service(store: CheckpointStore) -> Supervisor {
    let mut fleet = Supervisor::new(bus_fleet_config())
        .expect("valid fleet config")
        .with_store(store);
    for label in [
        "memory-bus: pid 17 <-> pid 23 (simulated hardware)",
        "memory-bus: pid 8 <-> pid 31",
        "divider: pid 4 <-> pid 9",
        "multiplier: pid 5 <-> pid 12",
    ] {
        fleet.add_contention_pair(label).expect("valid pair");
    }
    fleet
        .add_oscillation_pair("l2-cache: pid 17 <-> pid 23")
        .expect("valid pair");
    fleet
        .add_oscillation_pair("l1-cache: pid 2 <-> pid 6")
        .expect("valid pair");
    fleet
        .add_contention_pair("divider: pid 40 <-> pid 41 (flaky analysis)")
        .expect("valid pair");
    fleet
        .add_contention_pair("memory-bus: pid 50 <-> pid 51 (wedged monitor)")
        .expect("valid pair");
    fleet
}

/// Restarts the crashed service from its checkpoint store.
fn restart(store: CheckpointStore) -> Supervisor {
    let (fleet, report) = Supervisor::restore(bus_fleet_config(), store).expect("restore succeeds");
    println!(
        "restored {} pairs at quantum {} from manifest generation {} ({} corrupt generation(s) rolled over)",
        fleet.pair_statuses().len(),
        fleet.tick_count(),
        report.manifest.generation,
        report.total_rolled_back()
    );
    fleet
}

/// The audit service view: a supervisor driving an 8-pair fleet through
/// fault injection, a contained analysis panic, a simulated daemon crash
/// (drop + restore from the durable checkpoint store), a second crash with
/// a corrupted newest checkpoint generation, a storage brownout that flips
/// the fleet to durability-degraded (shadow-only) checkpointing and heals,
/// and the quarantine and recovery of a wedged monitor — ending with the
/// per-pair status table an operator would read, the fleet's numeric
/// digest, a Prometheus-format scrape of the shared registry (simulator
/// counters included), and the structured trace timeline.
///
/// The run has no quick/full distinction; its size is fixed.
fn service(_quick: bool) {
    // Force tracing on regardless of CCHUNTER_TRACE: the supervisor,
    // pipeline, and sim quantum loop all record into this process-wide
    // ring. The previous setting is restored at the end.
    let tracer = span::global();
    let was_tracing = tracer.is_enabled();
    tracer.set_enabled(true);

    let store_dir = temp_root("service");
    let mut rig = BusRig::new(SERVICE_DROP_RATE, 0xB5_0001);
    // Pair 3's collector is degraded but functional: partial harvests.
    let mut flaky_injector = FaultInjector::new(
        FaultConfig::only(FaultClass::TruncatedHistogram)
            .with_rate(FaultClass::TruncatedHistogram, 0.4),
        0xB5_0002,
    );

    // One probe closure drives all 8 pairs; it is a pure function of
    // (pair, tick, attempt) except for the simulated hardware, which
    // outlives the audit service on purpose.
    let mut probe = move |pair: usize, tick: u64, attempt: u32| -> Result<PairInput, ProbeFault> {
        Ok(match pair {
            0 => rig.harvest(attempt),
            1 => covert(tick),
            2 => quiet(tick),
            3 => PairInput::Harvest(flaky_injector.perturb_harvest(quiet_histogram(tick))),
            4 => covert_conflicts(tick),
            5 => quiet_conflicts(tick),
            6 if tick == PANIC_AT && attempt == 0 => PairInput::Chaos(ChaosOp::Panic),
            6 => covert(tick),
            _ if tick < WEDGED_UNTIL => {
                return Err(ProbeFault {
                    reason: "hardware interface wedged".to_string(),
                })
            }
            _ => covert(tick),
        })
    };

    let mut fleet = build_service(CheckpointStore::open(&store_dir, 3).expect("store opens"));
    println!("supervised audit service: 8 pairs, checkpoint every 5 quanta");
    for _ in 0..CRASH_AT {
        fleet.tick(&mut probe);
    }

    // --- Simulated crash: the service dies with all in-memory state. ---
    println!();
    println!("*** audit service crashed at quantum {CRASH_AT} — restarting from the store ***");
    drop(fleet);
    let mut fleet = restart(CheckpointStore::open(&store_dir, 3).expect("store reopens"));
    assert_eq!(
        fleet.tick_count(),
        CRASH_AT,
        "auto-checkpoint at quantum 20"
    );
    for _ in CRASH_AT..CORRUPT_CRASH_AT {
        fleet.tick(&mut probe);
    }

    // --- Crash with a corrupted newest checkpoint generation: the restore
    // rolls back a generation per entry and the rollbacks become metrics.
    println!();
    println!(
        "*** crash at quantum {CORRUPT_CRASH_AT}; newest checkpoint generation is corrupt ***"
    );
    let pairs = fleet.pair_statuses().len();
    drop(fleet);
    let probe_store = CheckpointStore::open(&store_dir, 3).expect("store reopens");
    let entries = (0..pairs).map(|p| format!("pair-{p:04}"));
    for name in std::iter::once("supervisor".to_string()).chain(entries) {
        let newest = *probe_store
            .generations(&name)
            .expect("entry has generations")
            .last()
            .expect("at least one generation");
        let path = store_dir.join(format!("{name}.g{newest:08}.ckpt"));
        let mut bytes = std::fs::read(&path).expect("checkpoint readable");
        let mid = bytes.len() / 2;
        let end = (mid + 16).min(bytes.len());
        for b in &mut bytes[mid..end] {
            *b ^= 0xA5;
        }
        std::fs::write(&path, &bytes).expect("checkpoint writable");
    }
    // The restored fleet writes through a storage-fault injector so the
    // run can brown out the medium: checkpoints fall back to in-memory
    // shadows (durability: degraded) and the first successful write after
    // the heal is a full re-persist.
    let storage_injector = StorageFaultInjector::new(StorageFaultConfig::none(), 0x0B5E_0003);
    let mut fleet = restart(
        CheckpointStore::open_with_medium(&store_dir, 3, Arc::new(storage_injector.clone()))
            .expect("store reopens"),
    );
    println!();
    for _ in fleet.tick_count()..SERVICE_TICKS {
        if fleet.tick_count() == BROWNOUT_AT {
            println!("*** storage brownout (ENOSPC on every write) before quantum {CORRUPT_CRASH_AT} ***");
            storage_injector
                .set_config(StorageFaultConfig::none().with_rate(StorageFaultClass::NoSpace, 1.0));
        }
        if fleet.tick_count() == HEAL_AT {
            println!("*** storage healed ***");
            storage_injector.set_config(StorageFaultConfig::none());
        }
        fleet.tick(&mut probe);
        if fleet.tick_count() == CORRUPT_CRASH_AT {
            println!(
                "durability after quantum {CORRUPT_CRASH_AT}: {}",
                fleet.durability()
            );
        }
    }
    println!("durability at end of run: {}", fleet.durability());

    // --- The operator's status table. ---
    println!();
    println!("pair | health     | fail% | verdict | panics | retries | restored | label");
    println!("-----+------------+-------+---------+--------+---------+----------+------");
    let statuses = fleet.pair_statuses();
    for s in &statuses {
        println!(
            "{:>4} | {:<10} | {:>5.1} | {:<7} | {:>6} | {:>7} | {:<8} | {}",
            s.index,
            s.health.to_string(),
            s.failure_rate * 100.0,
            s.verdict.to_string(),
            s.panics,
            s.retries,
            s.restored_from
                .map(|r| format!("gen {}", r.generation))
                .unwrap_or_else(|| "-".to_string()),
            s.label
        );
    }

    // The per-pair story the run must tell, every time.
    assert!(
        statuses[0].verdict.is_covert(),
        "simulated bus channel caught"
    );
    assert!(
        statuses[1].verdict.is_covert(),
        "synthetic bus channel caught"
    );
    assert_eq!(
        statuses[2].verdict,
        Verdict::Clean,
        "clean divider stays clean"
    );
    assert_eq!(
        statuses[3].verdict,
        Verdict::Clean,
        "flaky-but-benign multiplier stays clean"
    );
    assert!(statuses[4].verdict.is_covert(), "cache oscillation caught");
    assert_eq!(
        statuses[5].verdict,
        Verdict::Clean,
        "benign cache stays clean"
    );
    assert!(
        statuses[6].verdict.is_covert(),
        "pair recovers after contained panic"
    );
    assert_eq!(statuses[6].panics, 1, "exactly one contained panic");
    assert!(
        statuses[7].failures >= 4,
        "wedged monitor accumulated failures"
    );
    assert!(
        statuses.iter().all(|s| s.restored_from.is_some()),
        "every pair carries restore provenance after the crash"
    );

    // --- The fleet digest a monitoring page would poll. ---
    println!();
    let status = fleet.fleet_status();
    println!("{}", status.metrics);
    println!();

    // --- The Prometheus scrape (histogram bucket lines elided here for
    // readability; the full exposition is what checkpoint dumps carry). ---
    println!("Prometheus scrape of the shared registry (bucket lines elided):");
    let scrape = fleet.render_prometheus();
    for line in scrape.lines() {
        if !line.contains("_bucket{") {
            println!("  {line}");
        }
    }
    println!();

    // --- The structured trace timeline (newest events). ---
    println!("trace timeline (last 25 of {} events):", tracer.recorded());
    print!("{}", tracer.render_timeline(25));
    println!();

    // The fleet-level story: every fault is visible in the metrics.
    let snap = &status.metrics;
    assert!(snap.quarantine_skips > 0, "wedged pair was quarantined");
    assert!(snap.restore_rollbacks > 0, "corrupt generation rolled back");
    assert!(snap.panics >= 1, "chaos panic contained");
    assert!(snap.checkpoints > 0, "periodic checkpoints ran");
    assert!(
        snap.shadow_checkpoints > 0,
        "brownout forced shadow checkpoints"
    );
    assert!(
        snap.durability_heals >= 1,
        "healed medium triggered a re-persist"
    );
    assert!(!snap.durability_degraded, "durable again at end of run");
    assert!(
        snap.audit_latency.count > 0,
        "audit latency histogram populated"
    );
    assert!(snap.covert_pairs >= 2, "covert channels detected");
    assert!(tracer.recorded() > 0, "trace ring saw events");
    for needle in [
        "cchunter_pair_quarantine_skips_total",
        "cchunter_restore_rollbacks_total",
        "cchunter_durability_degraded",
        "cchunter_shadow_checkpoints_total",
        "cchunter_audit_latency_us_count",
        "cchunter_sim_quanta_total",
    ] {
        assert!(scrape.contains(needle), "scrape exposes {needle}");
    }
    println!(
        "service survived two crashes, {} contained panic(s), a storage brownout and a wedged \
         monitor — {} quanta audited, {} trace events",
        statuses.iter().map(|s| s.panics).sum::<u64>(),
        fleet.tick_count(),
        tracer.recorded()
    );

    tracer.set_enabled(was_tracing);
    let _ = std::fs::remove_dir_all(&store_dir);
}
