//! Probe events: the indicator-event firehose consumed by CC-Hunter.
//!
//! The paper's CC-auditor receives wired event signals from the hardware
//! units under audit. The simulator reports the same signals through the
//! [`ProbeSink`] trait: bus lock acquisitions, integer-divider wait cycles,
//! and shared-cache accesses/replacements annotated with the hardware
//! contexts involved. Sinks are attached to a [`crate::Machine`] before a
//! run.

use crate::cache::CacheLevel;
use crate::time::Cycle;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Identifier of a physical core.
pub type CoreId = u8;

/// Identifier of a software thread managed by the simulated OS.
pub type ThreadId = u32;

/// A hardware context: one SMT thread slot of one core.
///
/// The paper's conflict-miss tracker stores three-bit context IDs (four
/// cores × two SMT threads); [`ContextId::index`] yields exactly that
/// encoding.
///
/// ```
/// use cchunter_sim::ContextId;
/// let ctx = ContextId::new(2, 1);
/// assert_eq!(ctx.core(), 2);
/// assert_eq!(ctx.smt(), 1);
/// assert_eq!(ctx.index(2), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId {
    core: CoreId,
    smt: u8,
}

impl ContextId {
    /// Creates a context identifier for SMT slot `smt` of core `core`.
    pub const fn new(core: CoreId, smt: u8) -> Self {
        ContextId { core, smt }
    }

    /// The physical core this context belongs to.
    pub const fn core(self) -> CoreId {
        self.core
    }

    /// The SMT slot within the core.
    pub const fn smt(self) -> u8 {
        self.smt
    }

    /// Flat index of this context given `smt_per_core` slots per core.
    ///
    /// This matches the three-bit context ID stored in cache block metadata
    /// by the paper's conflict-miss tracker.
    pub const fn index(self, smt_per_core: u8) -> u8 {
        self.core * smt_per_core + self.smt
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}t{}", self.core, self.smt)
    }
}

/// A microarchitectural indicator event reported by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// The memory bus was locked (x86 `LOCK` semantics for an atomic
    /// unaligned access spanning two cache lines). This is the indicator
    /// event of the memory-bus covert channel.
    BusLock {
        /// Instant the lock was granted.
        cycle: Cycle,
        /// Context that acquired the lock.
        ctx: ContextId,
        /// Number of cycles the bus stays locked.
        hold: u64,
    },
    /// A regular (unlocked) bus transaction was granted.
    BusTransaction {
        /// Instant the transaction started on the bus.
        cycle: Cycle,
        /// Requesting context.
        ctx: ContextId,
        /// Cycles the request waited for the bus (queuing + lock delays).
        wait: u64,
    },
    /// A division from `waiter` stalled on a divider occupied by an
    /// instruction from `holder`. One event covers a contiguous run of
    /// `cycles` wait cycles starting at `start`; this is the indicator event
    /// of the integer-divider covert channel ("cycles where one thread waits
    /// for another").
    DividerWait {
        /// First stalled cycle.
        start: Cycle,
        /// Length of the stall in cycles.
        cycles: u64,
        /// Context whose division stalled.
        waiter: ContextId,
        /// Context whose division occupies the unit.
        holder: ContextId,
    },
    /// A multiplication from `waiter` stalled on a multiplier occupied by
    /// an instruction from `holder` (run semantics as [`ProbeEvent::DividerWait`]).
    MultiplierWait {
        /// First stalled cycle.
        start: Cycle,
        /// Length of the stall in cycles.
        cycles: u64,
        /// Context whose multiplication stalled.
        waiter: ContextId,
        /// Context whose multiplication occupies the unit.
        holder: ContextId,
    },
    /// An access to a monitored cache level completed.
    CacheAccess {
        /// Instant the access was issued.
        cycle: Cycle,
        /// Which cache level (only the shared L2 is reported by default).
        level: CacheLevel,
        /// Core whose cache was accessed.
        core: CoreId,
        /// Accessing context.
        ctx: ContextId,
        /// Block (line-aligned) address.
        block: u64,
        /// Whether the access hit.
        hit: bool,
    },
    /// A cache miss evicted a resident block. This is the raw material of
    /// the conflict-miss trackers: the detector classifies the miss as a
    /// conflict miss and labels it replacer→victim.
    CacheReplacement {
        /// Instant of the miss.
        cycle: Cycle,
        /// Which cache level.
        level: CacheLevel,
        /// Core whose cache was accessed.
        core: CoreId,
        /// Set index the replacement happened in.
        set: u32,
        /// Context that requested the incoming block.
        replacer: ContextId,
        /// Incoming block (line-aligned) address.
        new_block: u64,
        /// Evicted block (line-aligned) address.
        victim_block: u64,
        /// Owner context recorded in the evicted block's metadata.
        victim_owner: ContextId,
    },
    /// The OS switched the software thread running on a context.
    ContextSwitch {
        /// Instant of the switch.
        cycle: Cycle,
        /// The hardware context affected.
        ctx: ContextId,
        /// Outgoing thread, if any.
        from: Option<ThreadId>,
        /// Incoming thread, if any.
        to: Option<ThreadId>,
    },
}

impl ProbeEvent {
    /// The instant the event occurred (start instant for run events).
    pub fn cycle(&self) -> Cycle {
        match *self {
            ProbeEvent::BusLock { cycle, .. }
            | ProbeEvent::BusTransaction { cycle, .. }
            | ProbeEvent::CacheAccess { cycle, .. }
            | ProbeEvent::CacheReplacement { cycle, .. }
            | ProbeEvent::ContextSwitch { cycle, .. } => cycle,
            ProbeEvent::DividerWait { start, .. } | ProbeEvent::MultiplierWait { start, .. } => {
                start
            }
        }
    }
}

/// The set of probe events a [`ProbeSink`] consumes.
///
/// The machine builds an event only when some attached sink's interest
/// covers it, so a sink that declares a narrow interest lets the simulator
/// skip the event firehose it would ignore. Per-core classes cover cores
/// 0–7, the machine's whole 3-bit context space.
///
/// ```
/// use cchunter_sim::probe::Interest;
/// use cchunter_sim::{ContextId, Cycle, ProbeEvent};
/// let audit = Interest::l2(0) | Interest::BUS_LOCKS;
/// let lock = ProbeEvent::BusLock { cycle: Cycle::new(1), ctx: ContextId::new(2, 0), hold: 9 };
/// assert!(audit.wants(&lock));
/// assert!(!audit.contains(Interest::l2(1)));
/// assert!(Interest::ALL.contains(audit));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interest(u32);

impl Interest {
    /// No events.
    pub const NONE: Interest = Interest(0);
    /// Every event.
    pub const ALL: Interest = Interest(u32::MAX);
    /// [`ProbeEvent::BusLock`].
    pub const BUS_LOCKS: Interest = Interest(1 << 24);
    /// [`ProbeEvent::BusTransaction`].
    pub const BUS_TRANSACTIONS: Interest = Interest(1 << 25);
    /// [`ProbeEvent::ContextSwitch`].
    pub const CONTEXT_SWITCHES: Interest = Interest(1 << 26);

    /// L2 [`ProbeEvent::CacheAccess`] and [`ProbeEvent::CacheReplacement`]
    /// events of `core`.
    pub const fn l2(core: CoreId) -> Interest {
        Interest(1 << (core & 7))
    }

    /// [`ProbeEvent::DividerWait`] events on `core`'s divider bank.
    pub const fn divider(core: CoreId) -> Interest {
        Interest(1 << (8 + (core & 7)))
    }

    /// [`ProbeEvent::MultiplierWait`] events on `core`'s multiplier bank.
    pub const fn multiplier(core: CoreId) -> Interest {
        Interest(1 << (16 + (core & 7)))
    }

    /// Whether every event in `other` is also in `self`.
    pub const fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether `event` falls in this interest.
    pub fn wants(self, event: &ProbeEvent) -> bool {
        self.contains(match *event {
            ProbeEvent::BusLock { .. } => Self::BUS_LOCKS,
            ProbeEvent::BusTransaction { .. } => Self::BUS_TRANSACTIONS,
            ProbeEvent::DividerWait { waiter, .. } => Self::divider(waiter.core()),
            ProbeEvent::MultiplierWait { waiter, .. } => Self::multiplier(waiter.core()),
            ProbeEvent::CacheAccess { core, .. } | ProbeEvent::CacheReplacement { core, .. } => {
                Self::l2(core)
            }
            ProbeEvent::ContextSwitch { .. } => Self::CONTEXT_SWITCHES,
        })
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;

    fn bitor(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

/// Observer of probe events. Implementations must be cheap: they run inline
/// with the simulation.
///
/// # Delivery order
///
/// Events are delivered in the order the machine produces them, which is
/// *not* globally nondecreasing in `cycle`: a bus transaction is stamped at
/// its grant, which can lie after the issue time of events another context
/// produces next. What holds, and what sinks may rely on:
///
/// * the bus-grant stream ([`ProbeEvent::BusLock`] and
///   [`ProbeEvent::BusTransaction`] together) is nondecreasing, because
///   the bus serialises its grants;
/// * each hardware context's own unit events (everything but
///   [`ProbeEvent::ContextSwitch`]) are nondecreasing;
/// * each core's L2 events ([`ProbeEvent::CacheAccess`],
///   [`ProbeEvent::CacheReplacement`]), SMT siblings interleaved, are
///   nondecreasing while no context on the core runs a locked atomic or
///   pays a context-switch or yield penalty: such an op's L2 events are
///   stamped later than its dispatch instant (at the lock grant, or after
///   the penalty), so a sibling dispatched in between can deliver an
///   earlier stamp.
///
/// The cache channel's trojan and spy (loads and sleeps only, one thread
/// per context) meet the last condition. The simulator's property tests
/// check all three, and that the third fails without its condition.
pub trait ProbeSink {
    /// Called for every built probe event, in the order described above.
    fn on_event(&mut self, event: &ProbeEvent);

    /// The events this sink consumes. The machine re-reads it at every
    /// [`Machine::run_until`](crate::Machine::run_until) and builds only
    /// the union of its sinks' interests; events outside a sink's interest
    /// may still reach it when another sink wants them. Defaults to every
    /// event.
    fn interest(&self) -> Interest {
        Interest::ALL
    }
}

/// A sink that records every event into a vector, for offline analysis.
#[derive(Debug, Default)]
pub struct VecTrace {
    events: Vec<ProbeEvent>,
}

impl VecTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events.
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// Consumes the trace, returning the recorded events.
    pub fn into_events(self) -> Vec<ProbeEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl ProbeSink for VecTrace {
    fn on_event(&mut self, event: &ProbeEvent) {
        self.events.push(*event);
    }
}

/// A sink with a hard capacity ceiling, modelling the finite FIFO between
/// a hardware unit and the CC-auditor.
///
/// Real auditor wiring cannot buffer an unbounded event firehose: the
/// paper's CC-auditor harvests per OS quantum, and anything the FIFO cannot
/// hold between harvests is lost. `BoundedTrace` reproduces that contract
/// in the simulator: it retains at most `capacity` events, drops the
/// *oldest* on overflow (the auditor always sees the most recent signal
/// window), and counts every loss in [`BoundedTrace::shed`] so harvest glue
/// can report a quantified loss fraction instead of silently thinning the
/// train. Memory use is bounded by `capacity` regardless of event rate.
#[derive(Debug)]
pub struct BoundedTrace {
    ring: std::collections::VecDeque<ProbeEvent>,
    capacity: usize,
    offered: u64,
    shed: u64,
}

impl BoundedTrace {
    /// Creates a sink that retains at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        BoundedTrace {
            ring: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            offered: 0,
            shed: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ProbeEvent> {
        self.ring.iter()
    }

    /// Total events offered to the sink so far (retained + shed).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Events dropped because the ring was full.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The capacity ceiling.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Fraction of offered events lost since the last [`BoundedTrace::drain`].
    pub fn lost_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Removes and returns the retained events (oldest first), resetting
    /// the offered/shed accounting for the next harvest interval.
    pub fn drain(&mut self) -> Vec<ProbeEvent> {
        self.offered = 0;
        self.shed = 0;
        self.ring.drain(..).collect()
    }
}

impl ProbeSink for BoundedTrace {
    fn on_event(&mut self, event: &ProbeEvent) {
        self.offered += 1;
        if self.capacity == 0 {
            self.shed += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.shed += 1;
        }
        self.ring.push_back(*event);
    }
}

/// A sink that keeps only events matching a predicate.
pub struct FilteredTrace<F> {
    inner: VecTrace,
    keep: F,
}

impl<F: Fn(&ProbeEvent) -> bool> FilteredTrace<F> {
    /// Creates a trace retaining only events for which `keep` returns true.
    pub fn new(keep: F) -> Self {
        FilteredTrace {
            inner: VecTrace::new(),
            keep,
        }
    }

    /// The recorded events.
    pub fn events(&self) -> &[ProbeEvent] {
        self.inner.events()
    }

    /// Consumes the trace, returning the recorded events.
    pub fn into_events(self) -> Vec<ProbeEvent> {
        self.inner.into_events()
    }
}

impl<F> fmt::Debug for FilteredTrace<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilteredTrace")
            .field("recorded", &self.inner.len())
            .finish()
    }
}

impl<F: Fn(&ProbeEvent) -> bool> ProbeSink for FilteredTrace<F> {
    fn on_event(&mut self, event: &ProbeEvent) {
        if (self.keep)(event) {
            self.inner.on_event(event);
        }
    }
}

/// A lossy wrapper around another sink that models a degraded harvest path.
///
/// Real CC-auditor wiring can lose or delay indicator signals: the event
/// queue between the hardware unit and the auditor can overflow, and
/// signal propagation can smear timestamps. `DegradedProbe` reproduces
/// both effects deterministically from a seed so fault-tolerance tests
/// are repeatable: each event is independently dropped with probability
/// `drop_rate`, and surviving events have their cycle stamp jittered
/// forward by up to `jitter_cycles`.
///
/// Jitter is clamped so the wrapped sink never sees a resource class move
/// backwards in time: a jittered timestamp is never allowed to move behind
/// the last cycle already forwarded for the same resource class. (This is
/// stricter than the [`ProbeSink`] delivery order for events the machine
/// already interleaves out of order, such as bus transactions among L2
/// events.)
///
/// It keeps the default [`ProbeSink::interest`] (every event) whatever the
/// wrapped sink wants: its seeded draws are made per event received, so
/// receiving fewer events would change which ones it drops.
pub struct DegradedProbe {
    inner: Rc<RefCell<dyn ProbeSink>>,
    drop_rate: f64,
    jitter_cycles: u64,
    rng: SmallRng,
    dropped: u64,
    jittered: u64,
    forwarded: u64,
    // Last forwarded cycle per resource class (bus, divider, multiplier,
    // cache, scheduler) — the floor for jittered timestamps.
    floor: [u64; 5],
}

impl DegradedProbe {
    /// Wraps `inner`, dropping each event with probability `drop_rate`
    /// (clamped to `[0, 1]`) and jittering survivors forward by up to
    /// `jitter_cycles`. All randomness derives from `seed`.
    pub fn new(
        inner: Rc<RefCell<dyn ProbeSink>>,
        drop_rate: f64,
        jitter_cycles: u64,
        seed: u64,
    ) -> Self {
        DegradedProbe {
            inner,
            drop_rate: drop_rate.clamp(0.0, 1.0),
            jitter_cycles,
            rng: SmallRng::seed_from_u64(seed),
            dropped: 0,
            jittered: 0,
            forwarded: 0,
            floor: [0; 5],
        }
    }

    /// Number of events silently dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events whose timestamp was perturbed so far.
    pub fn jittered(&self) -> u64 {
        self.jittered
    }

    /// Number of events forwarded to the wrapped sink so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    fn class(event: &ProbeEvent) -> usize {
        match event {
            ProbeEvent::BusLock { .. } | ProbeEvent::BusTransaction { .. } => 0,
            ProbeEvent::DividerWait { .. } => 1,
            ProbeEvent::MultiplierWait { .. } => 2,
            ProbeEvent::CacheAccess { .. } | ProbeEvent::CacheReplacement { .. } => 3,
            ProbeEvent::ContextSwitch { .. } => 4,
        }
    }

    fn restamp(event: &ProbeEvent, cycle: Cycle) -> ProbeEvent {
        let mut out = *event;
        match &mut out {
            ProbeEvent::BusLock { cycle: c, .. }
            | ProbeEvent::BusTransaction { cycle: c, .. }
            | ProbeEvent::CacheAccess { cycle: c, .. }
            | ProbeEvent::CacheReplacement { cycle: c, .. }
            | ProbeEvent::ContextSwitch { cycle: c, .. } => *c = cycle,
            ProbeEvent::DividerWait { start, .. } | ProbeEvent::MultiplierWait { start, .. } => {
                *start = cycle
            }
        }
        out
    }
}

impl fmt::Debug for DegradedProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DegradedProbe")
            .field("drop_rate", &self.drop_rate)
            .field("jitter_cycles", &self.jitter_cycles)
            .field("dropped", &self.dropped)
            .field("jittered", &self.jittered)
            .field("forwarded", &self.forwarded)
            .finish()
    }
}

impl ProbeSink for DegradedProbe {
    fn on_event(&mut self, event: &ProbeEvent) {
        if self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate) {
            self.dropped += 1;
            return;
        }
        let class = Self::class(event);
        let mut cycle = event.cycle().as_u64();
        if self.jitter_cycles > 0 {
            let shift = self.rng.gen_range(0..=self.jitter_cycles);
            if shift > 0 {
                cycle = cycle.saturating_add(shift);
                self.jittered += 1;
            }
        }
        // Never move behind what the wrapped sink already saw for this
        // resource: the auditor requires nondecreasing signal times.
        cycle = cycle.max(self.floor[class]);
        self.floor[class] = cycle;
        self.forwarded += 1;
        if cycle == event.cycle().as_u64() {
            self.inner.borrow_mut().on_event(event);
        } else {
            self.inner
                .borrow_mut()
                .on_event(&Self::restamp(event, Cycle::new(cycle)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_id_flat_index_matches_three_bit_encoding() {
        // Four cores, two hyperthreads: indices 0..8 fit in three bits.
        let mut seen = Vec::new();
        for core in 0..4 {
            for smt in 0..2 {
                seen.push(ContextId::new(core, smt).index(2));
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn vec_trace_records_in_order() {
        let mut trace = VecTrace::new();
        for i in 0..4u64 {
            trace.on_event(&ProbeEvent::BusLock {
                cycle: Cycle::new(i * 10),
                ctx: ContextId::new(0, 0),
                hold: 5,
            });
        }
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.events()[3].cycle(), Cycle::new(30));
    }

    #[test]
    fn filtered_trace_drops_unmatched() {
        let mut trace = FilteredTrace::new(|e| matches!(e, ProbeEvent::BusLock { .. }));
        trace.on_event(&ProbeEvent::BusLock {
            cycle: Cycle::new(1),
            ctx: ContextId::new(0, 0),
            hold: 1,
        });
        trace.on_event(&ProbeEvent::BusTransaction {
            cycle: Cycle::new(2),
            ctx: ContextId::new(0, 0),
            wait: 0,
        });
        assert_eq!(trace.events().len(), 1);
    }

    #[test]
    fn event_cycle_accessor_covers_all_variants() {
        let ctx = ContextId::new(1, 0);
        let events = [
            ProbeEvent::BusLock {
                cycle: Cycle::new(1),
                ctx,
                hold: 2,
            },
            ProbeEvent::BusTransaction {
                cycle: Cycle::new(2),
                ctx,
                wait: 0,
            },
            ProbeEvent::DividerWait {
                start: Cycle::new(3),
                cycles: 4,
                waiter: ctx,
                holder: ContextId::new(1, 1),
            },
            ProbeEvent::ContextSwitch {
                cycle: Cycle::new(4),
                ctx,
                from: None,
                to: Some(7),
            },
        ];
        let cycles: Vec<u64> = events.iter().map(|e| e.cycle().as_u64()).collect();
        assert_eq!(cycles, vec![1, 2, 3, 4]);
    }

    #[test]
    fn context_display_is_compact() {
        assert_eq!(ContextId::new(3, 1).to_string(), "c3t1");
    }

    fn bus_lock_at(cycle: u64) -> ProbeEvent {
        ProbeEvent::BusLock {
            cycle: Cycle::new(cycle),
            ctx: ContextId::new(0, 0),
            hold: 5,
        }
    }

    #[test]
    fn bounded_trace_drops_oldest_and_quantifies_loss() {
        let mut sink = BoundedTrace::new(4);
        for i in 0..10u64 {
            sink.on_event(&bus_lock_at(i * 10));
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.offered(), 10);
        assert_eq!(sink.shed(), 6);
        assert!((sink.lost_fraction() - 0.6).abs() < 1e-12);
        // The survivors are the *newest* events.
        let kept: Vec<u64> = sink.events().map(|e| e.cycle().as_u64()).collect();
        assert_eq!(kept, vec![60, 70, 80, 90]);
        // Draining resets the accounting for the next quantum.
        let drained = sink.drain();
        assert_eq!(drained.len(), 4);
        assert!(sink.is_empty());
        assert_eq!(sink.offered(), 0);
        assert_eq!(sink.lost_fraction(), 0.0);
    }

    #[test]
    fn bounded_trace_zero_capacity_sheds_everything() {
        let mut sink = BoundedTrace::new(0);
        sink.on_event(&bus_lock_at(5));
        assert!(sink.is_empty());
        assert_eq!(sink.shed(), 1);
        assert_eq!(sink.lost_fraction(), 1.0);
    }

    #[test]
    fn degraded_probe_is_transparent_at_zero_rates() {
        let trace = Rc::new(RefCell::new(VecTrace::new()));
        let mut probe = DegradedProbe::new(trace.clone(), 0.0, 0, 7);
        for i in 0..16u64 {
            probe.on_event(&bus_lock_at(i * 10));
        }
        assert_eq!(probe.dropped(), 0);
        assert_eq!(probe.jittered(), 0);
        assert_eq!(probe.forwarded(), 16);
        let recorded: Vec<u64> = trace
            .borrow()
            .events()
            .iter()
            .map(|e| e.cycle().as_u64())
            .collect();
        assert_eq!(recorded, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn degraded_probe_drops_and_is_deterministic() {
        let run = |seed| {
            let trace = Rc::new(RefCell::new(VecTrace::new()));
            let mut probe = DegradedProbe::new(trace.clone(), 0.5, 0, seed);
            for i in 0..256u64 {
                probe.on_event(&bus_lock_at(i * 10));
            }
            let kept = trace.borrow().len();
            (probe.dropped(), kept)
        };
        let (dropped, kept) = run(42);
        assert!(dropped > 0, "a 50% drop rate must lose something");
        assert_eq!(dropped as usize + kept, 256);
        assert_eq!(run(42), (dropped, kept), "same seed, same losses");
    }

    #[test]
    fn degraded_probe_jitter_preserves_per_resource_order() {
        let trace = Rc::new(RefCell::new(VecTrace::new()));
        let mut probe = DegradedProbe::new(trace.clone(), 0.0, 500, 3);
        for i in 0..128u64 {
            probe.on_event(&bus_lock_at(i * 10));
        }
        assert!(probe.jittered() > 0, "a 500-cycle jitter must fire");
        let recorded: Vec<u64> = trace
            .borrow()
            .events()
            .iter()
            .map(|e| e.cycle().as_u64())
            .collect();
        assert!(
            recorded.windows(2).all(|w| w[0] <= w[1]),
            "jittered bus events must stay nondecreasing: {recorded:?}"
        );
    }
}
