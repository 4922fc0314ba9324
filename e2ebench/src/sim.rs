//! The simulated side of the path: a `cchunter-sim` machine running a
//! covert channel (or a benign pair) under an [`AuditSession`], stepped one
//! OS quantum at a time with `Machine::run_until`, harvested at every
//! boundary, and — on the `bus_channel` and `cache_channel` workloads —
//! judged by an online detector after every quantum.

use crate::fleet::{self, Daemon, ReplayShape};
use crate::host::HostReference;
use crate::inputs::SplitMix64;
use crate::report::Metric;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Outcome;
use cc_hunter::audit::{AuditSession, TrackerKind};
use cc_hunter::channels::{
    BitClock, BusChannelConfig, BusSpy, BusTrojan, CacheChannelConfig, CacheSpy, CacheTrojan,
    DecodeRule, Message, SpyLog, SpyLogHandle,
};
use cc_hunter::detector::supervisor::{PairInput, PairKind};
use cc_hunter::detector::CcHunterConfig;
use cc_hunter::sim::{Machine, MachineConfig, MachineStats};
use cc_hunter::workloads::noise::spawn_standard_noise;
use cc_hunter::workloads::workload_by_name;
use std::time::Instant;

/// Modelled clock: 2.5 GHz (paper §V).
pub const CLOCK_HZ: f64 = 2.5e9;
/// Δt of the memory-bus audit: 100 000 cycles (paper §V).
pub const BUS_DELTA_T: u64 = 100_000;
/// Signalling sets of the cache channel (the paper's Figure 8 setting).
pub const CACHE_SETS: u32 = 512;
/// Background noise processes (the paper runs "at least three").
pub const NOISE_PROCESSES: usize = 3;
/// Cycle at which bit 0 of a message starts.
const EPOCH: u64 = 1_000_000;
/// Sliding window of the fleet's online detectors, in quanta (the
/// supervisor's default).
pub const WINDOW_QUANTA: usize = 64;
/// Sliding window of the `bus_channel` and `cache_channel` detectors. A
/// contention push costs more as its window fills, so the tick metrics of
/// those workloads count only quanta after the window is full; a short
/// window keeps that steady state within reach of a short run.
pub const DAEMON_WINDOW: usize = 16;
/// Steady-state quanta (after [`DAEMON_WINDOW`]) every run measures at
/// least.
const STEADY_QUANTA: usize = 8;
/// `run_until` calls per quantum, each timed. The host's fast phases can
/// be shorter than a quantum, so timing fifths of one lets a run's fastest
/// phase show far more often (spread of the fast-phase quantum cost over
/// nine seeds: 0.14 timed per quantum, 0.03–0.06 per fifth). A fifth of a
/// paper-scale quantum is 20 ms simulated, one bit pair of the cache
/// channel, so its slices do equal work. Slicing changes nothing simulated.
pub const SLICES: u64 = 5;
/// The benign pair: the first pair of the paper's Figure 14 study.
pub const BENIGN_PAIR: [&str; 2] = ["gobmk", "sjeng"];

/// How big the simulated runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// OS time quantum in cycles.
    pub quantum_cycles: u64,
    /// Bit interval of the bus channel, in cycles.
    pub bus_bit_cycles: u64,
    /// Bit interval of the cache channel, in cycles.
    pub cache_bit_cycles: u64,
    /// Quanta over which the exact counts (`sim.events`, ...) are taken;
    /// every run simulates at least this many, whatever `--seconds` says,
    /// so the counts of one seed are identical on every run.
    pub count_quanta: usize,
    /// Quanta of each kind recorded into the fleet's replay pool.
    pub pool_quanta: usize,
    /// Upper bound on audited quanta per run (the message length).
    pub max_quanta: usize,
}

/// The paper's scale: 0.1 s quanta at 2.5 GHz, a 1000 bps bus channel and
/// a 100 bps cache channel.
pub const PAPER: Scale = Scale {
    quantum_cycles: 250_000_000,
    bus_bit_cycles: 2_500_000,
    cache_bit_cycles: 25_000_000,
    count_quanta: 8,
    pool_quanta: 3,
    max_quanta: 1_024,
};

/// A tenth of the paper's scale for smoke tests: the same bits per
/// quantum, a tenth of the cycles.
pub const TINY: Scale = Scale {
    quantum_cycles: 25_000_000,
    bus_bit_cycles: 250_000,
    cache_bit_cycles: 2_500_000,
    count_quanta: 8,
    pool_quanta: 3,
    max_quanta: 64,
};

impl Scale {
    /// Simulated seconds per quantum.
    pub fn quantum_seconds(&self) -> f64 {
        self.quantum_cycles as f64 / CLOCK_HZ
    }

    /// Detection parameters at this scale (the paper's otherwise).
    pub fn hunter(&self) -> CcHunterConfig {
        CcHunterConfig {
            quantum_cycles: self.quantum_cycles,
            ..CcHunterConfig::default()
        }
    }
}

/// What a rig runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Memory-bus covert channel, bus audited.
    Bus,
    /// Shared-L2 covert channel, core 0's L2 audited with the practical
    /// generation tracker.
    Cache,
    /// The benign pair, bus and L2 audited (the auditor's two slots).
    Benign,
}

/// A machine with its programs, its audit session and the spy's log.
pub struct Rig {
    machine: Machine,
    /// `None` for a twin.
    session: Option<AuditSession>,
    scenario: Scenario,
    spy: Option<(SpyLogHandle, Message, u64)>,
}

impl Rig {
    /// Builds `scenario` at `scale` with message `bits` and noise seed
    /// `noise_seed` (`bits` is ignored, and `benign_seeds` used, for the
    /// benign pair). `audited = false` builds the twin: the same machine and
    /// programs with no probe attached.
    pub fn build(
        scenario: Scenario,
        scale: &Scale,
        bits: &[bool],
        noise_seed: u64,
        benign_seeds: [u64; 2],
        audited: bool,
    ) -> Rig {
        let config = MachineConfig::builder()
            .quantum_cycles(scale.quantum_cycles)
            .build()
            .expect("the benchmark's machine configuration is valid");
        let mut machine = Machine::new(config);
        let message = Message::from_bits(bits.to_vec());
        let log = SpyLog::new_handle();
        let spy = match scenario {
            Scenario::Bus => {
                let clock = BitClock::new(EPOCH, scale.bus_bit_cycles);
                let channel = BusChannelConfig::new(message.clone(), clock);
                let trojan = machine.config().context_id(0, 0);
                let spy = machine.config().context_id(1, 0);
                machine.spawn(
                    Box::new(BusTrojan::new(channel.clone(), 0x1000_0000)),
                    trojan,
                );
                machine.spawn(
                    Box::new(BusSpy::new(channel, 0x4000_0000, log.clone())),
                    spy,
                );
                Some((log, message, scale.bus_bit_cycles))
            }
            Scenario::Cache => {
                let clock = BitClock::new(EPOCH, scale.cache_bit_cycles);
                let mut channel = CacheChannelConfig::new(message.clone(), clock, CACHE_SETS);
                if scale.cache_bit_cycles > 20_000_000 {
                    // Long bits re-modulate every ~10 ms, as the paper-figure
                    // harness does, to keep the conflict rate up.
                    channel = channel.with_resweep(25_000_000);
                }
                let trojan = machine.config().context_id(0, 0);
                let spy = machine.config().context_id(0, 1);
                machine.spawn(Box::new(CacheTrojan::new(channel.clone())), trojan);
                machine.spawn(Box::new(CacheSpy::new(channel, log.clone())), spy);
                Some((log, message, scale.cache_bit_cycles))
            }
            Scenario::Benign => {
                for (ctx, (name, seed)) in BENIGN_PAIR.iter().zip(benign_seeds).enumerate() {
                    let context = machine.config().context_id(0, ctx as u8);
                    machine.spawn(workload_by_name(name, seed), context);
                }
                None
            }
        };
        spawn_standard_noise(&mut machine, 0, NOISE_PROCESSES, noise_seed);
        let session = audited.then(|| {
            let mut session = AuditSession::new();
            if scenario != Scenario::Cache {
                session
                    .audit_bus(BUS_DELTA_T)
                    .expect("a fresh auditor has a free slot for the bus");
            }
            if scenario != Scenario::Bus {
                let blocks = machine.config().l2.total_blocks() as usize;
                session
                    .audit_cache(0, blocks, TrackerKind::Practical)
                    .expect("a fresh auditor has a free slot for the L2");
            }
            session.attach(&mut machine);
            session
        });
        Rig {
            machine,
            session,
            scenario,
            spy,
        }
    }

    /// Harvests every audited unit at quantum boundary `boundary`: the bus
    /// histogram first, then the quantum's conflict records.
    pub fn harvest(&self, boundary: u64) -> Result<Vec<PairInput>, String> {
        let session = self.session.as_ref().ok_or("a twin has no audit session")?;
        let mut inputs = Vec::with_capacity(2);
        if self.scenario != Scenario::Cache {
            let harvest = session.harvest_bus(boundary).map_err(|e| e.to_string())?;
            inputs.push(PairInput::Harvest(harvest));
        }
        if self.scenario != Scenario::Bus {
            let records = session.drain_conflicts().map_err(|e| e.to_string())?;
            inputs.push(PairInput::Conflicts {
                records,
                lost_fraction: 0.0,
            });
        }
        Ok(inputs)
    }

    /// Probe deliveries the auditor refused so far.
    pub fn probe_faults(&self) -> u64 {
        self.session
            .as_ref()
            .map_or(0, AuditSession::probe_fault_count)
    }

    /// `(conflict misses, total misses)` seen by the cache audit.
    pub fn miss_counts(&self) -> (u64, u64) {
        self.session
            .as_ref()
            .map_or((0, 0), AuditSession::cache_miss_counts)
    }

    /// The spy's bit error rate over the bits completed by cycle `now`
    /// (`None` for the benign pair or before the first bit ends).
    pub fn bit_error_rate(&self, now: u64) -> Option<f64> {
        let (log, message, bit_cycles) = self.spy.as_ref()?;
        let done = (now.saturating_sub(EPOCH) / bit_cycles).min(message.len() as u64) as usize;
        if done == 0 {
            return None;
        }
        let rule = match self.scenario {
            Scenario::Cache => DecodeRule::FixedThreshold(1.0),
            _ => DecodeRule::Midpoint,
        };
        let sent = Message::from_bits(message.bits()[..done].to_vec());
        Some(sent.bit_error_rate(&log.borrow().decode(rule, done)))
    }
}

/// The message a covert channel transmits over `quanta` quanta at `scale`.
///
/// The bus channel sends seeded random bits. The cache channel sends
/// alternating bits: with random bits at 100 bps over 512 sets the online
/// oscillation detector flags at most an isolated quantum and never
/// convicts within a run (seeds 1 and 2, plain and Manchester-coded), so a
/// random message would measure a channel the detector cannot see. Its
/// seeded input is the noise seed alone.
pub fn message_bits(
    scenario: Scenario,
    scale: &Scale,
    quanta: usize,
    rng: &mut SplitMix64,
) -> Vec<bool> {
    match scenario {
        Scenario::Cache => {
            let len = quanta * (scale.quantum_cycles / scale.cache_bit_cycles) as usize;
            (0..len).map(|i| i % 2 == 0).collect()
        }
        _ => rng.bits(quanta * (scale.quantum_cycles / scale.bus_bit_cycles) as usize),
    }
}

/// Exact simulated counts over the first [`Scale::count_quanta`] quanta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Machine statistics at the cut.
    pub stats: MachineStats,
    /// Conflict records harvested up to the cut.
    pub conflicts: u64,
    /// `(conflict misses, total misses)` at the cut.
    pub misses: (u64, u64),
}

/// Per-quantum timings and inputs from stepping a rig.
#[derive(Debug, Default)]
pub struct Stepped {
    /// Host seconds of each whole audited quantum (`run_until` + harvest +
    /// push).
    pub op_s: Vec<f64>,
    /// Host seconds of each quantum's detection tick (harvest + push).
    pub tick_s: Vec<f64>,
    /// Host seconds of each `run_until` slice, [`SLICES`] per quantum.
    pub slice_s: Vec<f64>,
    /// Audited minus twin `run_until` seconds, per quantum (traced runs).
    pub probe_s: Vec<f64>,
    /// Host seconds `run_until` took over the quanta before the cut.
    pub cut_run_s: f64,
    /// Harvested inputs, per quantum, per audited unit.
    pub inputs: Vec<Vec<PairInput>>,
    /// Quantum (1-based) of the first covert verdict.
    pub detect_quanta: Option<u64>,
    /// Counts at the cut.
    pub counts: Option<Counts>,
    /// Operations attempted / failed.
    pub attempted: u64,
    /// Operations that failed (harvest error, probe fault, twin drift).
    pub failed: u64,
    /// Why operations failed.
    pub problems: Vec<String>,
}

/// Steps `rig` quantum by quantum until `seconds` have passed and at least
/// `min_quanta` (and [`Scale::count_quanta`]) quanta ran, timing every boundary call through
/// `tracer`. With a `daemon`, each quantum's first harvest is pushed into
/// it; with a `twin`, the twin machine runs the same quantum right before
/// or after (alternating), so `probe_s` compares the two in the same host
/// phase. `keep_inputs` retains every harvest. `between` runs after every
/// quantum, outside its timing.
#[allow(clippy::too_many_arguments)]
pub fn step(
    rig: &mut Rig,
    mut twin: Option<&mut Rig>,
    mut daemon: Option<&mut Daemon>,
    scale: &Scale,
    min_quanta: usize,
    seconds: f64,
    keep_inputs: bool,
    tracer: &mut Tracer,
    host: &mut HostReference,
    between: &mut dyn FnMut(),
) -> Stepped {
    let mut out = Stepped::default();
    let started = Instant::now();
    let mut last_reference = started;
    let mut conflicts = 0u64;
    let mut faults = rig.probe_faults();
    for q in 0..scale.max_quanta {
        if q >= min_quanta.max(scale.count_quanta) && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let boundary = (q as u64 + 1) * scale.quantum_cycles;
        // Twin order alternates every two quanta, out of step with the
        // recorded/unrecorded alternation below.
        let twin_first = q % 4 == 1 || q % 4 == 2;
        let mut twin_s = None;
        let mut run_twin = |twin: &mut Option<&mut Rig>, tracer: &mut Tracer| {
            if let Some(t) = twin.as_deref_mut() {
                let (_, s) = tracer.time("sim.twin_run_until", || {
                    t.machine.run_until(boundary.into())
                });
                twin_s = Some(s);
            }
        };
        if twin_first {
            run_twin(&mut twin, tracer);
        }
        tracer.begin_op(q as u64, "op", crate::recorded(q, 1));
        let op_start = Instant::now();
        let (_, run_s) = tracer.time("sim.run_until", || {
            let start = boundary - scale.quantum_cycles;
            for k in 1..=SLICES {
                let slice_start = Instant::now();
                rig.machine
                    .run_until((start + scale.quantum_cycles * k / SLICES).into());
                out.slice_s.push(slice_start.elapsed().as_secs_f64());
            }
        });
        let (harvest, harvest_s) = tracer.time("audit.harvest", || rig.harvest(boundary));
        let mut push_s = 0.0;
        out.attempted += 1;
        let mut ok = true;
        match harvest {
            Ok(mut inputs) => {
                conflicts += inputs
                    .iter()
                    .map(|i| match i {
                        PairInput::Conflicts { records, .. } => records.len() as u64,
                        _ => 0,
                    })
                    .sum::<u64>();
                if let Some(d) = daemon.as_deref_mut() {
                    let input = if keep_inputs {
                        inputs[0].clone()
                    } else {
                        inputs.swap_remove(0)
                    };
                    let (status, s) = tracer.time("analysis.push", || d.push(input));
                    push_s = s;
                    match status {
                        Ok(status) if status.verdict.is_covert() => {
                            out.detect_quanta.get_or_insert(q as u64 + 1);
                        }
                        Ok(_) => {}
                        Err(e) => {
                            ok = false;
                            out.problems.push(format!("quantum {q}: push refused: {e}"));
                        }
                    }
                }
                if keep_inputs {
                    out.inputs.push(inputs);
                }
            }
            Err(e) => {
                ok = false;
                out.problems
                    .push(format!("quantum {q}: harvest failed: {e}"));
            }
        }
        let op_s = op_start.elapsed().as_secs_f64();
        tracer.end_op();
        if !twin_first {
            run_twin(&mut twin, tracer);
        }
        if let Some(t) = twin_s {
            out.probe_s.push(run_s - t);
        }
        if rig.probe_faults() != faults {
            faults = rig.probe_faults();
            ok = false;
            out.problems
                .push(format!("quantum {q}: probe faults rose to {faults}"));
        }
        if q < scale.count_quanta {
            out.cut_run_s += run_s;
        }
        if q + 1 == scale.count_quanta {
            out.counts = Some(Counts {
                stats: rig.machine.stats(),
                conflicts,
                misses: rig.miss_counts(),
            });
            if let Some(t) = twin.as_deref() {
                // The probe only observes: the twin must have simulated
                // exactly the same events.
                if t.machine.stats() != rig.machine.stats() {
                    ok = false;
                    out.problems
                        .push("the unaudited twin diverged from the audited machine".into());
                }
            }
        }
        if !ok {
            out.failed += 1;
        }
        out.op_s.push(op_s);
        out.tick_s.push(harvest_s + push_s);
        between();
        if last_reference.elapsed().as_secs_f64() >= 0.5 {
            host.sample();
            last_reference = Instant::now();
        }
    }
    out
}

/// The per-layer `sim.*` and `audit.*` metrics of a traced run.
pub(crate) fn sim_audit_layers(
    tracer: &Tracer,
    stepped: &Stepped,
    probe_faults: u64,
) -> Vec<Metric> {
    let runs = tracer.durations("sim.run_until");
    let harvests = tracer.durations("audit.harvest");
    let counts = stepped.counts.unwrap_or_default();
    let (conflict_misses, total_misses) = counts.misses;
    vec![
        Metric::new("sim.run_ms", median(&runs).unwrap_or(0.0) * 1e3, "ms"),
        Metric::new(
            "sim.events_per_s",
            counts.stats.events_dispatched as f64 / stepped.cut_run_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        Metric::new("sim.events", counts.stats.events_dispatched as f64, "count"),
        Metric::new(
            "sim.committed_ops",
            counts.stats.committed_ops as f64,
            "count",
        ),
        Metric::new("sim.bus_locks", counts.stats.bus_locks as f64, "count"),
        Metric::new(
            "audit.probe_ms",
            median(&stepped.probe_s).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        Metric::new(
            "audit.harvest_us",
            median(&harvests).unwrap_or(0.0) * 1e6,
            "us",
        ),
        Metric::new("audit.conflicts", counts.conflicts as f64, "count"),
        Metric::new(
            "audit.conflict_ratio",
            if total_misses == 0 {
                0.0
            } else {
                conflict_misses as f64 / total_misses as f64
            },
            "ratio",
        ),
        Metric::new("audit.probe_faults", probe_faults as f64, "count"),
    ]
}

/// Runs the `bus_channel` or `cache_channel` workload.
pub fn run(
    scenario: Scenario,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    host: &mut HostReference,
) -> Outcome {
    let mut rng = SplitMix64::new(seed);
    let bits = message_bits(scenario, scale, scale.max_quanta, &mut rng);
    let noise_seed = rng.sub_seed();
    let kind = if scenario == Scenario::Cache {
        PairKind::Oscillation
    } else {
        PairKind::Contention
    };
    let set_up = || {
        let start = Instant::now();
        let rig = Rig::build(scenario, scale, &bits, noise_seed, [0, 0], true);
        let daemon = Daemon::new(kind, scale.hunter(), DAEMON_WINDOW);
        (rig, daemon, start.elapsed().as_secs_f64())
    };
    let (mut rig, daemon, first_setup_s) = set_up();
    // Building a machine takes tens of microseconds, so an untraced run
    // builds (and drops) one more after every quantum, outside the
    // quantum's timing: `setup_s` then samples the host's phases across
    // the whole run, as the quantum timings do.
    let traced = tracer.enabled();
    let mut setup_s = vec![first_setup_s];
    let mut resample_setup = || {
        if !traced {
            setup_s.push(set_up().2);
        }
    };
    let mut daemon = match daemon {
        Ok(d) => d,
        Err(e) => return Outcome::refused(format!("detector construction failed: {e}")),
    };
    let mut twin = traced.then(|| Rig::build(scenario, scale, &bits, noise_seed, [0, 0], false));
    let stepped = step(
        &mut rig,
        twin.as_mut(),
        Some(&mut daemon),
        scale,
        DAEMON_WINDOW + STEADY_QUANTA,
        seconds,
        traced,
        tracer,
        host,
        &mut resample_setup,
    );
    let mut out = Outcome::new(stepped.attempted, stepped.failed);
    out.problems.extend(stepped.problems.iter().cloned());
    let detect = stepped.detect_quanta.unwrap_or_else(|| {
        out.problems.push(format!(
            "no covert verdict in {} quanta of a covert channel",
            stepped.op_s.len()
        ));
        0
    });
    if let Some(ber) = rig.bit_error_rate(rig.machine.now().as_u64()) {
        out.note("spy_bit_error_rate", ber.to_string());
    }
    let ops = Summary::of(&stepped.op_s).expect("quanta ran");
    let ticks = Summary::of(&stepped.tick_s[DAEMON_WINDOW..]).expect("steady-state quanta ran");
    let slices = Summary::of(&stepped.slice_s).expect("quanta ran");
    out.end_to_end = vec![
        Metric::new(
            "host_s_per_sim_s",
            (SLICES as f64 * slices.fast + ticks.fast) / scale.quantum_seconds(),
            "s/s",
        ),
        Metric::new("us_per_pair_tick", ticks.fast * 1e6, "us"),
        Metric::new(
            "setup_s",
            Summary::of(&setup_s).expect("at least one set-up").fast,
            "s",
        ),
    ];
    out.note("quanta", ops.count.to_string());
    if tracer.enabled() {
        let mut layers = vec![
            Metric::new("quantum_ms_p50", ops.p50 * 1e3, "ms"),
            Metric::new("tick_ms_p50", ticks.p50 * 1e3, "ms"),
            Metric::new("detect_quanta", detect as f64, "quanta"),
            Metric::new("tick_ms_p99", ticks.p99 * 1e3, "ms"),
        ];
        layers.extend(sim_audit_layers(tracer, &stepped, rig.probe_faults()));
        let pushes = tracer.durations("analysis.push");
        layers.push(Metric::new(
            "analysis.push_us",
            median(&pushes).unwrap_or(0.0) * 1e6,
            "us",
        ));
        // The fleet and store layers see this run's own harvests (the
        // quanta every run simulates, so the counts are exact): one pair on
        // one shard, replayed through `ShardedFleet::tick` and
        // checkpointed, plus the same inputs through a bare detector.
        let inputs: Vec<PairInput> = stepped.inputs[..DAEMON_WINDOW + STEADY_QUANTA]
            .iter()
            .map(|i| i[0].clone())
            .collect();
        let plans = [fleet::PairPlan::new("pair-00", kind, true, &inputs)];
        let shape = ReplayShape {
            shards: 1,
            checkpoint_every: fleet::CHECKPOINT_EVERY,
            min_ticks: 2 * fleet::CHECKPOINT_EVERY,
        };
        let replayed = fleet::replay_layers(&plans, &shape, scale, tracer, host);
        layers.extend(replayed.per_layer.iter().cloned());
        layers.push(Metric::new("false_alarms", 0.0, "count"));
        layers.push(Metric::new(
            "trace.overhead_pct",
            crate::overhead_pct(&stepped.op_s, 1),
            "%",
        ));
        out.merge(replayed);
        out.per_layer = layers;
    }
    out
}
