//! Property-based tests for the simulator substrate.
//!
//! Hand-rolled deterministic harness (no crates.io access for proptest):
//! each property runs over `CASES` seeded random inputs and assertion
//! messages carry the case seed for direct reproduction.

use cchunter_sim::engine::EventQueue;
use cchunter_sim::{
    Bus, BusConfig, Cache, CacheConfig, ContextId, Cycle, Machine, MachineConfig, Op, OpScript,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const CASES: u64 = 48;

/// A reference per-set LRU model.
#[derive(Default)]
struct RefCache {
    sets: Vec<VecDeque<u64>>, // tag queues, MRU front
    ways: usize,
    set_mask: u64,
    line_shift: u32,
}

impl RefCache {
    fn new(sets: usize, ways: usize, line: u64) -> Self {
        RefCache {
            sets: vec![VecDeque::new(); sets],
            ways,
            set_mask: sets as u64 - 1,
            line_shift: line.trailing_zeros(),
        }
    }

    /// Returns (hit, victim block address).
    fn access(&mut self, addr: u64) -> (bool, Option<u64>) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.sets.len().trailing_zeros();
        let q = &mut self.sets[set];
        if let Some(pos) = q.iter().position(|&t| t == tag) {
            q.remove(pos);
            q.push_front(tag);
            return (true, None);
        }
        q.push_front(tag);
        let victim = if q.len() > self.ways {
            q.pop_back()
                .map(|t| ((t << self.sets.len().trailing_zeros()) | set as u64) << self.line_shift)
        } else {
            None
        };
        (false, victim)
    }
}

fn vec_of(rng: &mut SmallRng, lo: usize, hi: usize, max: u64) -> Vec<u64> {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| rng.gen_range(0..max)).collect()
}

#[test]
fn cache_matches_reference_lru_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x51C0_0000 + case);
        let accesses = vec_of(&mut rng, 1, 400, 4_096);
        // 4 sets × 2 ways of 64 B lines.
        let config = CacheConfig {
            capacity_bytes: 512,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        };
        let mut cache = Cache::new(config);
        let mut reference = RefCache::new(4, 2, 64);
        let ctx = ContextId::new(0, 0);
        for &a in &accesses {
            let addr = a * 64;
            let out = cache.access(addr, ctx);
            let (ref_hit, ref_victim) = reference.access(addr);
            assert_eq!(out.hit, ref_hit, "case {case} addr {addr:#x}");
            assert_eq!(
                out.victim.map(|(b, _)| b),
                ref_victim,
                "case {case} addr {addr:#x}"
            );
        }
    }
}

#[test]
fn cache_occupancy_never_exceeds_capacity() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0CC0_0000 + case);
        let accesses = vec_of(&mut rng, 1, 300, 100_000);
        let config = CacheConfig {
            capacity_bytes: 2_048,
            line_bytes: 64,
            ways: 4,
            hit_latency: 1,
        };
        let mut cache = Cache::new(config);
        let ctx = ContextId::new(1, 1);
        for &a in &accesses {
            cache.access(a * 64, ctx);
            assert!(cache.occupancy() <= 32, "case {case}");
        }
    }
}

#[test]
fn bus_grants_are_serialized_and_monotone() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB050_0000 + case);
        let n = rng.gen_range(1usize..100);
        let mut requests: Vec<(u64, bool)> = (0..n)
            .map(|_| (rng.gen_range(0u64..100_000), rng.gen_bool(0.5)))
            .collect();
        requests.sort_unstable_by_key(|&(t, _)| t);
        let mut bus = Bus::new(BusConfig {
            transaction_cycles: 10,
            dram_latency: 50,
            lock_hold_cycles: 40,
        });
        let mut last_release = Cycle::ZERO;
        for &(t, locked) in &requests {
            let grant = if locked {
                bus.lock(Cycle::new(t))
            } else {
                bus.transaction(Cycle::new(t))
            };
            assert!(grant.start >= Cycle::new(t), "case {case}");
            assert!(grant.start >= last_release, "case {case}: grants overlap");
            assert!(grant.release > grant.start, "case {case}");
            last_release = grant.release;
        }
    }
}

#[test]
fn event_queue_pops_in_time_then_fifo_order() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xE0E0_0000 + case);
        let events = vec_of(&mut rng, 1, 200, 1_000);
        let mut q = EventQueue::new();
        for (i, &t) in events.iter().enumerate() {
            q.push(Cycle::new(t), i);
        }
        let mut last: Option<(Cycle, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt, "case {case}");
                if t == lt {
                    assert!(i > li, "case {case}: same-instant events must pop FIFO");
                }
            }
            last = Some((t, i));
        }
    }
}

#[test]
fn machine_runs_random_scripts_deterministically() {
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(0xDE70_0000 + case);
        let n = rng.gen_range(1usize..60);
        let ops: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..6)).collect();
        let addr_seed = rng.gen_range(0u64..1_000);
        let build_script = |ops: &[u8]| -> Vec<Op> {
            ops.iter()
                .enumerate()
                .map(|(i, &k)| {
                    let addr = (addr_seed + i as u64) * 64;
                    match k {
                        0 => Op::Compute {
                            cycles: 10 + i as u64,
                        },
                        1 => Op::Load { addr },
                        2 => Op::Store { addr },
                        3 => Op::Div {
                            count: 1 + (i % 3) as u32,
                        },
                        4 => Op::Idle { cycles: 100 },
                        _ => Op::AtomicUnaligned { addr },
                    }
                })
                .collect()
        };
        let run = || {
            let mut m = Machine::new(
                MachineConfig::builder()
                    .quantum_cycles(10_000)
                    .build()
                    .unwrap(),
            );
            let trace = m.attach_trace();
            m.spawn(
                Box::new(OpScript::new("p", build_script(&ops))),
                m.config().context_id(0, 0),
            );
            m.run_for(10_000_000);
            let events = trace.borrow().len();
            (m.now(), m.stats(), events)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "case {case}");
        // Every scripted op commits (plus the final Halt).
        assert_eq!(a.1.committed_ops, ops.len() as u64 + 1, "case {case}");
    }
}

#[test]
fn simulated_time_never_runs_backwards() {
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(0x71FE_0000 + case);
        let n = rng.gen_range(1usize..40);
        let script: Vec<Op> = (0..n)
            .map(|i| match rng.gen_range(0u8..6) {
                0 => Op::Compute {
                    cycles: 1 + i as u64,
                },
                1 => Op::Load {
                    addr: i as u64 * 64,
                },
                2 => Op::Div { count: 2 },
                3 => Op::Idle { cycles: 50 },
                4 => Op::Yield,
                _ => Op::AtomicUnaligned {
                    addr: i as u64 * 128,
                },
            })
            .collect();
        let mut m = Machine::new(
            MachineConfig::builder()
                .quantum_cycles(5_000)
                .build()
                .unwrap(),
        );
        let trace = m.attach_trace();
        m.spawn(
            Box::new(OpScript::new("p", script)),
            m.config().context_id(0, 0),
        );
        m.run_for(5_000_000);
        let events = trace.borrow().events().to_vec();
        for pair in events.windows(2) {
            // Events from different resources may interleave slightly (a
            // divider wait is stamped at issue time); they must stay
            // within one op's span.
            let ordered = pair[1].cycle() >= pair[0].cycle()
                || pair[0].cycle().saturating_since(pair[1].cycle()) < 10_000;
            assert!(ordered, "case {case}");
        }
    }
}

/// A random op over a small per-thread region, so the L2 sees hits,
/// misses and replacements. `penalties` admits the ops whose probe events
/// can be stamped after their dispatch instant: locked atomics (stamped at
/// the lock grant) and yields (which pay the switch cost first).
fn random_op(rng: &mut SmallRng, region: u64, penalties: bool) -> Op {
    let addr = region + rng.gen_range(0u64..2_048) * 64;
    match rng.gen_range(0u8..if penalties { 10 } else { 8 }) {
        0 => Op::Compute {
            cycles: rng.gen_range(1u64..300),
        },
        1..=4 => Op::Load { addr },
        5 => Op::Store { addr },
        6 => Op::Div {
            count: rng.gen_range(1u32..4),
        },
        7 => Op::Idle {
            cycles: rng.gen_range(1u64..2_000),
        },
        8 => Op::Yield,
        _ => Op::AtomicUnaligned { addr },
    }
}

/// Builds a machine running random scripts (several threads per context,
/// so quanta rotate) and returns it with the case's generator.
fn random_machine(case: u64, penalties: bool) -> (Machine, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(0x0D3E_0000 + case);
    let switch_cost = if penalties {
        rng.gen_range(0u64..200)
    } else {
        0
    };
    let mut m = Machine::new(
        MachineConfig::builder()
            .quantum_cycles(rng.gen_range(2_000u64..20_000))
            .switch_cost(switch_cost)
            .build()
            .unwrap(),
    );
    let contexts: Vec<ContextId> = m.config().contexts().collect();
    for t in 0..rng.gen_range(2u64..12) {
        let ctx = contexts[rng.gen_range(0..contexts.len())];
        let script: Vec<Op> = (0..rng.gen_range(1usize..300))
            .map(|_| random_op(&mut rng, 0x100_0000 * (t % 3), penalties))
            .collect();
        m.spawn(Box::new(OpScript::new("p", script)), ctx);
    }
    (m, rng)
}

/// Runs `m` in `run_until` slices of random length, which exercises the
/// run-ahead cut at `end`.
fn run_random_slices(m: &mut Machine, rng: &mut SmallRng) {
    let mut now = 0u64;
    while now < 3_000_000 {
        now += rng.gen_range(1u64..200_000);
        m.run_until(Cycle::new(now));
    }
}

/// Every probe event of a random machine run, in delivery order.
fn random_machine_trace(case: u64, penalties: bool) -> Vec<cchunter_sim::ProbeEvent> {
    let (mut m, mut rng) = random_machine(case, penalties);
    let trace = m.attach_trace();
    run_random_slices(&mut m, &mut rng);
    let events = trace.borrow().events().to_vec();
    events
}

/// Asserts that the events `stream` selects (by key) arrive in
/// nondecreasing cycle order per key.
fn assert_ordered_per_key(
    case: u64,
    events: &[cchunter_sim::ProbeEvent],
    what: &str,
    stream: impl Fn(&cchunter_sim::ProbeEvent) -> Option<usize>,
) {
    let mut last = [Cycle::ZERO; 8];
    for (i, event) in events.iter().enumerate() {
        if let Some(key) = stream(event) {
            assert!(
                event.cycle() >= last[key],
                "case {case}: event {i}, {what} {key} at {}, follows one at {}",
                event.cycle(),
                last[key]
            );
            last[key] = event.cycle();
        }
    }
}

#[test]
fn probe_delivery_order_matches_the_sink_contract() {
    // Always: the bus-grant stream (locks and transactions together) is
    // nondecreasing, and so is each context's own stream of unit events.
    use cchunter_sim::ProbeEvent;
    for case in 0..CASES {
        let events = random_machine_trace(case, true);
        assert_ordered_per_key(case, &events, "bus", |e| match e {
            ProbeEvent::BusLock { .. } | ProbeEvent::BusTransaction { .. } => Some(0),
            _ => None,
        });
        assert_ordered_per_key(case, &events, "context", |e| match *e {
            ProbeEvent::BusLock { ctx, .. }
            | ProbeEvent::BusTransaction { ctx, .. }
            | ProbeEvent::CacheAccess { ctx, .. }
            | ProbeEvent::CacheReplacement { replacer: ctx, .. }
            | ProbeEvent::DividerWait { waiter: ctx, .. }
            | ProbeEvent::MultiplierWait { waiter: ctx, .. } => Some(ctx.index(2) as usize),
            ProbeEvent::ContextSwitch { .. } => None,
        });
    }
}

#[test]
fn l2_events_per_core_are_ordered_without_stamp_delays() {
    // Without locked atomics or switch penalties every L2 event is stamped
    // at its dispatch instant, so each core's L2 stream, SMT siblings
    // interleaved, is nondecreasing.
    use cchunter_sim::ProbeEvent;
    for case in 0..CASES {
        let events = random_machine_trace(case, false);
        assert_ordered_per_key(case, &events, "core", |e| match *e {
            ProbeEvent::CacheAccess { core, .. } | ProbeEvent::CacheReplacement { core, .. } => {
                Some(core as usize)
            }
            _ => None,
        });
    }
}

#[test]
fn l2_events_of_siblings_can_precede_a_delayed_stamp() {
    // The documented exception is real: with atomics and yields in the
    // mix, some case delivers a core's L2 event earlier than one already
    // delivered for that core.
    use cchunter_sim::ProbeEvent;
    let out_of_order = (0..CASES).any(|case| {
        let mut last = [Cycle::ZERO; 8];
        random_machine_trace(case, true).iter().any(|e| match *e {
            ProbeEvent::CacheAccess { core, cycle, .. }
            | ProbeEvent::CacheReplacement { core, cycle, .. } => {
                let behind = cycle < last[core as usize];
                last[core as usize] = last[core as usize].max(cycle);
                behind
            }
            _ => false,
        })
    });
    assert!(out_of_order);
}

/// Records what it receives; declares a fixed interest.
struct InterestTrace {
    interest: cchunter_sim::Interest,
    events: Vec<cchunter_sim::ProbeEvent>,
}

impl cchunter_sim::ProbeSink for InterestTrace {
    fn on_event(&mut self, event: &cchunter_sim::ProbeEvent) {
        self.events.push(*event);
    }

    fn interest(&self) -> cchunter_sim::Interest {
        self.interest
    }
}

#[test]
fn a_narrow_interest_sees_exactly_its_slice_of_the_full_stream() {
    // Filtering only skips building events: a sink attached alone with a
    // narrow interest receives the full stream's events of that interest,
    // in the same order, and the simulated run is unchanged.
    use cchunter_sim::Interest;
    for case in 0..CASES {
        let full = random_machine_trace(case, true);
        let mut interest = Interest::l2(case as u8 % 4) | Interest::BUS_LOCKS;
        if case % 2 == 0 {
            interest = interest | Interest::divider(1) | Interest::BUS_TRANSACTIONS;
        }
        let (mut m, mut rng) = random_machine(case, true);
        let sink = std::rc::Rc::new(std::cell::RefCell::new(InterestTrace {
            interest,
            events: Vec::new(),
        }));
        m.attach_probe(sink.clone());
        run_random_slices(&mut m, &mut rng);
        let expected: Vec<_> = full.into_iter().filter(|e| interest.wants(e)).collect();
        assert_eq!(sink.borrow().events, expected, "case {case}");
    }
}
