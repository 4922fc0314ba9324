//! Bit-identity pins for the simulator: two seeded runs at a tenth of the
//! paper's scale (25 M-cycle quanta), audited the way the end-to-end
//! benchmark audits them, with every simulated statistic asserted exactly.
//!
//! The constants were captured before the simulator's event queue, dispatch
//! loop, probe-event filtering and cache layout were reworked for speed;
//! any change that alters one simulated event, one conflict record or one
//! histogram bin fails here. If a change is *meant* to alter simulated
//! behaviour, re-capture the constants and say why in the change log.

use cc_hunter::audit::{AuditSession, TrackerKind};
use cc_hunter::channels::{
    BitClock, BusChannelConfig, BusSpy, BusTrojan, CacheChannelConfig, CacheSpy, CacheTrojan,
    Message, SpyLog,
};
use cc_hunter::sim::{Cycle, Machine, MachineConfig, MachineStats, ProbeEvent, ProbeSink};
use cc_hunter::workloads::noise::spawn_standard_noise;
use std::cell::RefCell;
use std::rc::Rc;

/// OS quantum: a tenth of the paper's 0.1 s at 2.5 GHz.
const QUANTUM: u64 = 25_000_000;
/// Quanta simulated per run.
const QUANTA: u64 = 3;
/// Cycle at which bit 0 of a message starts.
const EPOCH: u64 = 1_000_000;
/// The paper's "at least three" background processes.
const NOISE_PROCESSES: usize = 3;

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A sink that wants every event and folds each one, in delivery order,
/// into a fingerprint.
struct HashSink {
    fnv: Fnv,
    events: u64,
}

impl ProbeSink for HashSink {
    fn on_event(&mut self, event: &ProbeEvent) {
        self.fnv.bytes(format!("{event:?}").as_bytes());
        self.events += 1;
    }
}

/// The bus channel beside three noise processes: trojan on core 0, spy on
/// core 1, noise on cores 1–3.
fn bus_channel_machine() -> Machine {
    let mut m = machine();
    // 100 bits per quantum, seeded rather than periodic.
    let bits = (0..QUANTA as u32 * 100)
        .map(|i| 0x4929_1273_5521_8674u64.rotate_left(i * 7) & 1 == 1)
        .collect();
    let message = Message::from_bits(bits);
    let channel = BusChannelConfig::new(message, BitClock::new(EPOCH, 250_000));
    m.spawn(
        Box::new(BusTrojan::new(channel.clone(), 0x1000_0000)),
        m.config().context_id(0, 0),
    );
    m.spawn(
        Box::new(BusSpy::new(channel, 0x4000_0000, SpyLog::new_handle())),
        m.config().context_id(1, 0),
    );
    spawn_standard_noise(&mut m, 0, NOISE_PROCESSES, 11);
    m
}

fn machine() -> Machine {
    Machine::new(
        MachineConfig::builder()
            .quantum_cycles(QUANTUM)
            .build()
            .expect("valid config"),
    )
}

#[test]
fn cache_channel_run_is_bit_identical() {
    let mut m = machine();
    let message = Message::alternating(30);
    let channel = CacheChannelConfig::new(message, BitClock::new(EPOCH, 2_500_000), 512);
    m.spawn(
        Box::new(CacheTrojan::new(channel.clone())),
        m.config().context_id(0, 0),
    );
    m.spawn(
        Box::new(CacheSpy::new(channel, SpyLog::new_handle())),
        m.config().context_id(0, 1),
    );
    spawn_standard_noise(&mut m, 0, NOISE_PROCESSES, 7);
    let mut session = AuditSession::new();
    let blocks = m.config().l2.total_blocks() as usize;
    session
        .audit_cache(0, blocks, TrackerKind::Practical)
        .expect("cache audit");
    session.attach(&mut m);

    let mut fnv = Fnv::new();
    let mut records = 0u64;
    for q in 1..=QUANTA {
        m.run_until(Cycle::new(q * QUANTUM));
        for r in session.drain_conflicts().expect("cache under audit") {
            fnv.word(r.cycle);
            fnv.word(((r.replacer as u64) << 8) | r.victim as u64);
            records += 1;
        }
    }

    assert_eq!(
        m.stats(),
        MachineStats {
            committed_ops: 793_954,
            memory_ops: 429_542,
            divisions: 70_602,
            multiplications: 0,
            bus_locks: 0,
            context_switches: 0,
            halted_threads: 0,
            events_dispatched: 793_954,
            mitigation_flushes: 0,
            partition_stalls: 0,
        }
    );
    assert_eq!(records, 8_032);
    assert_eq!(session.cache_miss_counts(), (8_051, 69_641));
    assert_eq!(session.probe_fault_count(), 0);
    assert_eq!(fnv.0, 0x137c_5a67_1289_f358, "conflict-record fingerprint");
}

#[test]
fn bus_channel_run_is_bit_identical() {
    let mut m = bus_channel_machine();
    let mut session = AuditSession::new();
    session.audit_bus(100_000).expect("bus audit");
    session.attach(&mut m);

    let mut fnv = Fnv::new();
    let mut windows = 0u64;
    for q in 1..=QUANTA {
        let boundary = q * QUANTUM;
        m.run_until(Cycle::new(boundary));
        let histogram = session.harvest_bus_histogram(boundary).expect("bus audit");
        for &bin in histogram.bins() {
            fnv.word(bin);
        }
        windows += histogram.bins().iter().sum::<u64>();
    }

    assert_eq!(
        m.stats(),
        MachineStats {
            committed_ops: 571_137,
            memory_ops: 288_522,
            divisions: 53_459,
            multiplications: 0,
            bus_locks: 5_760,
            context_switches: 0,
            halted_threads: 0,
            events_dispatched: 570_732,
            mitigation_flushes: 0,
            partition_stalls: 0,
        }
    );
    assert_eq!(windows, 750);
    assert_eq!(session.probe_fault_count(), 0);
    assert_eq!(fnv.0, 0x237d_282c_00b3_891f, "bus-histogram fingerprint");
}

#[test]
fn full_event_stream_is_bit_identical() {
    // A sink that wants everything sees every event kind the bus-channel
    // machine produces (locks, bus transactions, L2 accesses and
    // replacements on every core, divider waits between the noise
    // hyperthreads), in delivery order.
    let mut m = bus_channel_machine();
    let sink = Rc::new(RefCell::new(HashSink {
        fnv: Fnv::new(),
        events: 0,
    }));
    m.attach_probe(sink.clone());
    m.run_until(Cycle::new(QUANTUM));
    let sink = sink.borrow();
    assert_eq!(m.stats().events_dispatched, 189_945);
    assert_eq!(sink.events, 261_270);
    assert_eq!(
        sink.fnv.0, 0xe467_ff63_f58f_d8b3,
        "event-stream fingerprint"
    );
}
