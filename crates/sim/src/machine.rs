//! The top-level simulated machine.

use crate::config::MachineConfig;
use crate::divider::DividerBank;
use crate::engine::EventQueue;
use crate::memory::MemorySystem;
use crate::ops::Op;
use crate::probe::{ContextId, Interest, ProbeEvent, ProbeSink, ThreadId, VecTrace};
use crate::program::{Program, ProgramView};
use crate::scheduler::{ContextSched, TemporalGate, ThreadState};
use crate::stats::MachineStats;
use crate::time::Cycle;
use std::cell::RefCell;
use std::rc::Rc;

struct Thread {
    program: Box<dyn Program>,
    state: ThreadState,
    last_latency: u64,
    ctx: ContextId,
    /// Migration target applied at the next op boundary.
    pending_ctx: Option<ContextId>,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("name", &self.program.name())
            .field("state", &self.state)
            .field("ctx", &self.ctx)
            .finish()
    }
}

#[derive(Debug, Clone, Copy)]
enum EngineEvent {
    /// An op completion for the context's running thread.
    OpComplete(usize),
    /// A (possibly spurious) request to dispatch work on an idle context.
    Wake(usize),
}

/// A simulated multicore machine.
///
/// Construct with a validated [`MachineConfig`], [`spawn`](Machine::spawn)
/// programs onto hardware contexts, attach [`ProbeSink`]s, and advance time
/// with [`run_for`](Machine::run_for) / [`run_until`](Machine::run_until).
///
/// Runs are fully deterministic: same configuration, same programs, same
/// event order.
pub struct Machine {
    config: MachineConfig,
    memory: MemorySystem,
    dividers: Vec<DividerBank>,
    multipliers: Vec<DividerBank>,
    threads: Vec<Thread>,
    contexts: Vec<ContextSched>,
    /// The [`ContextId`] of each flat context index.
    context_ids: Vec<ContextId>,
    queue: EventQueue<EngineEvent>,
    probes: Vec<Rc<RefCell<dyn ProbeSink>>>,
    /// Union of the attached sinks' interests: the events worth building.
    interest: Interest,
    now: Cycle,
    stats: MachineStats,
    event_buf: Vec<ProbeEvent>,
    /// Flush the switching core's private caches at every context switch
    /// (the lowest rung of the containment escalation ladder).
    flush_on_switch: bool,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .field("probes", &self.probes.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Machine {
    /// Builds an idle machine.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MachineConfig::validate`].
    pub fn new(config: MachineConfig) -> Self {
        config.validate().expect("invalid machine configuration");
        let memory = MemorySystem::new(&config);
        let dividers = (0..config.cores)
            .map(|_| DividerBank::new(config.divider))
            .collect();
        let multipliers = (0..config.cores)
            .map(|_| DividerBank::new(config.multiplier))
            .collect();
        let contexts = (0..config.context_count())
            .map(|_| ContextSched::new())
            .collect();
        let context_ids = config.contexts().collect();
        Machine {
            config,
            memory,
            dividers,
            multipliers,
            threads: Vec::new(),
            contexts,
            context_ids,
            queue: EventQueue::new(),
            probes: Vec::new(),
            interest: Interest::NONE,
            now: Cycle::ZERO,
            stats: MachineStats::default(),
            event_buf: Vec::new(),
            flush_on_switch: false,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// The memory system (for inspecting caches and the bus).
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// The divider bank of `core`.
    pub fn divider(&self, core: u8) -> &DividerBank {
        &self.dividers[core as usize]
    }

    /// The multiplier bank of `core`.
    pub fn multiplier(&self, core: u8) -> &DividerBank {
        &self.multipliers[core as usize]
    }

    /// Attaches a probe sink that will observe all subsequent events in
    /// its [`interest`](ProbeSink::interest).
    pub fn attach_probe(&mut self, sink: Rc<RefCell<dyn ProbeSink>>) {
        self.probes.push(sink);
        self.refresh_interest();
    }

    /// Re-reads the attached sinks' interests, so a sink may widen or
    /// narrow its interest between runs (an audit unit programmed after
    /// `attach`, say).
    fn refresh_interest(&mut self) {
        self.interest = self
            .probes
            .iter()
            .fold(Interest::NONE, |acc, p| acc | p.borrow().interest());
    }

    /// Creates, attaches and returns a recording trace.
    pub fn attach_trace(&mut self) -> Rc<RefCell<VecTrace>> {
        let trace = Rc::new(RefCell::new(VecTrace::new()));
        self.attach_probe(trace.clone());
        trace
    }

    /// Spawns `program` as a software thread affine to hardware context
    /// `ctx`, returning its thread id. Multiple threads may share a context;
    /// the OS scheduler time-slices them.
    pub fn spawn(&mut self, program: Box<dyn Program>, ctx: ContextId) -> ThreadId {
        let idx = self.ctx_index(ctx);
        let tid = self.threads.len() as ThreadId;
        self.threads.push(Thread {
            program,
            state: ThreadState::Ready,
            last_latency: 0,
            ctx,
            pending_ctx: None,
        });
        self.contexts[idx].queue.push_back(tid);
        if !self.contexts[idx].busy {
            self.queue.push(self.now, EngineEvent::Wake(idx));
        }
        tid
    }

    /// The lifecycle state of a thread.
    pub fn thread_state(&self, tid: ThreadId) -> ThreadState {
        self.threads[tid as usize].state
    }

    /// Migrates a software thread to another hardware context (the OS
    /// rebalancing at a context switch, paper §V-A). Queued and sleeping
    /// threads move immediately; a thread whose op is in flight moves at
    /// the next op boundary.
    ///
    /// # Panics
    ///
    /// Panics if `new_ctx` is out of range or the thread has halted.
    pub fn migrate_thread(&mut self, tid: ThreadId, new_ctx: ContextId) {
        let new_idx = self.ctx_index(new_ctx);
        let thread = &mut self.threads[tid as usize];
        assert!(
            !matches!(thread.state, ThreadState::Halted),
            "cannot migrate a halted thread"
        );
        let old_ctx = thread.ctx;
        if old_ctx == new_ctx {
            return;
        }
        let old_idx = old_ctx.index(self.config.smt_per_core) as usize;
        if self.contexts[old_idx].current == Some(tid) {
            // Op in flight: defer to the next boundary.
            self.threads[tid as usize].pending_ctx = Some(new_ctx);
            return;
        }
        // Remove from the old context's holding structures.
        self.contexts[old_idx].queue.retain(|&t| t != tid);
        self.contexts[old_idx].sleeping.retain(|&t| t != tid);
        self.threads[tid as usize].ctx = new_ctx;
        match self.threads[tid as usize].state {
            ThreadState::Sleeping { .. } => {
                self.contexts[new_idx].sleeping.push(tid);
                // Re-arm the wake on the new context.
                self.contexts[new_idx].wake_scheduled = false;
                if let ThreadState::Sleeping { until } = self.threads[tid as usize].state {
                    self.contexts[new_idx].wake_scheduled = true;
                    self.queue.push(until, EngineEvent::Wake(new_idx));
                }
            }
            _ => {
                self.contexts[new_idx].queue.push_back(tid);
                if !self.contexts[new_idx].busy {
                    self.queue.push(self.now, EngineEvent::Wake(new_idx));
                }
            }
        }
        self.refresh_interest();
        if self.interest.contains(Interest::CONTEXT_SWITCHES) {
            self.event_buf.push(ProbeEvent::ContextSwitch {
                cycle: self.now,
                ctx: new_ctx,
                from: None,
                to: Some(tid),
            });
            self.emit_events();
        }
    }

    /// The context a thread is affine to.
    pub fn thread_context(&self, tid: ThreadId) -> ContextId {
        self.threads[tid as usize].ctx
    }

    /// Enables or disables flush-on-context-switch containment: while on,
    /// every context switch write-backs and invalidates the switching
    /// core's private L1/L2 and costs
    /// [`MitigationCostConfig::flush_cycles`](crate::config::MitigationCostConfig)
    /// extra cycles.
    pub fn set_flush_on_switch(&mut self, on: bool) {
        self.flush_on_switch = on;
    }

    /// Whether flush-on-context-switch containment is active.
    pub fn flush_on_switch(&self) -> bool {
        self.flush_on_switch
    }

    /// Installs (`Some(phase)`) or removes (`None`) a temporal-partition
    /// gate on `ctx`: gated contexts only dispatch during slots of their
    /// phase parity, so two contexts gated with opposite phases never
    /// co-execute. Slot length comes from the machine's
    /// [`MitigationCostConfig`](crate::config::MitigationCostConfig).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn set_temporal_phase(&mut self, ctx: ContextId, phase: Option<u8>) {
        let idx = self.ctx_index(ctx);
        match phase {
            Some(p) => {
                self.contexts[idx].gate = Some(TemporalGate {
                    slot_cycles: self.config.mitigation.partition_slot_cycles,
                    phase: p % 2,
                });
            }
            None => {
                self.contexts[idx].gate = None;
                if !self.contexts[idx].busy {
                    self.queue.push(self.now, EngineEvent::Wake(idx));
                }
            }
        }
    }

    /// The temporal-partition phase of `ctx`, if gated.
    pub fn temporal_phase(&self, ctx: ContextId) -> Option<u8> {
        self.contexts[ctx.index(self.config.smt_per_core) as usize]
            .gate
            .map(|g| g.phase)
    }

    /// Installs a way-partition mask restricting `ctx`'s fills into its
    /// core's L2 (see [`crate::Cache::set_way_mask`]).
    ///
    /// # Errors
    ///
    /// Returns a message if the mask selects no way.
    pub fn set_l2_way_mask(&mut self, ctx: ContextId, mask: u64) -> Result<(), String> {
        self.ctx_index(ctx); // bounds check
        self.memory.l2_mut(ctx.core()).set_way_mask(ctx, mask)
    }

    /// Removes any L2 way-partition mask for `ctx`.
    pub fn clear_l2_way_mask(&mut self, ctx: ContextId) {
        self.ctx_index(ctx); // bounds check
        self.memory.l2_mut(ctx.core()).clear_way_mask(ctx);
    }

    /// Parks (deschedules) a hardware context: its threads stay attached
    /// but nothing further is dispatched until
    /// [`resume_context`](Machine::resume_context). The op in flight, if
    /// any, completes first — containment takes effect at the next op
    /// boundary, like migration.
    pub fn park_context(&mut self, ctx: ContextId) {
        let idx = self.ctx_index(ctx);
        self.contexts[idx].parked = true;
    }

    /// Resumes a parked context after the configured deschedule cost.
    pub fn resume_context(&mut self, ctx: ContextId) {
        let idx = self.ctx_index(ctx);
        if !self.contexts[idx].parked {
            return;
        }
        self.contexts[idx].parked = false;
        let when = self.now + self.config.mitigation.deschedule_cycles;
        self.queue.push(when, EngineEvent::Wake(idx));
    }

    /// Whether `ctx` is currently parked.
    pub fn is_parked(&self, ctx: ContextId) -> bool {
        self.contexts[ctx.index(self.config.smt_per_core) as usize].parked
    }

    /// Runs the machine for `cycles` more cycles of simulated time.
    pub fn run_for(&mut self, cycles: u64) {
        let end = self.now + cycles;
        self.run_until(end);
    }

    /// Runs the machine until simulated time reaches `end`.
    ///
    /// An op completion that falls at or before `end` and strictly before
    /// every pending event would be the queue's next pop, so it is
    /// delivered directly ("run-ahead") without a queue round trip; ties
    /// still go through the queue to keep FIFO order. Either way it counts
    /// as one dispatched event.
    pub fn run_until(&mut self, end: Cycle) {
        self.refresh_interest();
        while let Some(when) = self.queue.peek_time() {
            if when > end {
                break;
            }
            // Invariant: peek_time() just returned Some, and nothing popped
            // in between.
            let (mut t, ev) = self.queue.pop().expect("peeked event");
            self.now = self.now.max(t);
            self.stats.events_dispatched += 1;
            let idx = match ev {
                EngineEvent::OpComplete(idx) => idx,
                EngineEvent::Wake(idx) => {
                    self.contexts[idx].wake_scheduled = false;
                    if self.contexts[idx].busy {
                        continue;
                    }
                    idx
                }
            };
            self.contexts[idx].busy = false;
            while let Some(done) = self.dispatch(idx, t) {
                let next_pop = done <= end && self.queue.peek_time().is_none_or(|p| done < p);
                if !next_pop {
                    self.contexts[idx].busy = true;
                    self.queue.push(done, EngineEvent::OpComplete(idx));
                    break;
                }
                t = done;
                self.now = self.now.max(t);
                self.stats.events_dispatched += 1;
            }
        }
        self.now = self.now.max(end);
    }

    /// Whether any thread is still runnable or sleeping.
    pub fn has_live_threads(&self) -> bool {
        self.contexts.iter().any(|c| c.has_threads())
    }

    fn ctx_index(&self, ctx: ContextId) -> usize {
        assert!(
            ctx.core() < self.config.cores && ctx.smt() < self.config.smt_per_core,
            "context {ctx} out of range"
        );
        ctx.index(self.config.smt_per_core) as usize
    }

    fn emit_events(&mut self) {
        if self.event_buf.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.event_buf);
        for ev in &events {
            for probe in &self.probes {
                probe.borrow_mut().on_event(ev);
            }
        }
        self.event_buf = events;
        self.event_buf.clear();
    }

    /// Core scheduling + execution loop for one idle context, starting at
    /// `t`. Runs exactly one timed op and returns its completion instant
    /// (the caller schedules it and marks the context busy), or idles the
    /// context and returns `None`.
    fn dispatch(&mut self, idx: usize, mut t: Cycle) -> Option<Cycle> {
        let ctx_id = self.context_ids[idx];
        let interest = self.interest;
        let quantum = self.config.scheduler.quantum_cycles;
        let switch_cost = self.config.scheduler.switch_cost;
        loop {
            // Containment: a parked context dispatches nothing until it is
            // resumed (the resume pushes the wake that restarts it).
            if self.contexts[idx].parked {
                self.emit_events();
                return None;
            }

            // Containment: outside its temporal-partition slot the context
            // stalls until the slot reopens, plus the drain overhead the
            // handover costs.
            if let Some(gate) = self.contexts[idx].gate {
                if !gate.allows(t) {
                    self.stats.partition_stalls += 1;
                    if !self.contexts[idx].wake_scheduled {
                        self.contexts[idx].wake_scheduled = true;
                        let reopen =
                            gate.next_open(t) + self.config.mitigation.partition_drain_cycles;
                        self.queue.push(reopen, EngineEvent::Wake(idx));
                    }
                    self.emit_events();
                    return None;
                }
            }

            // Wake any sleepers that are due.
            let threads = &mut self.threads;
            self.contexts[idx].wake_due(|tid| {
                let thread = &mut threads[tid as usize];
                match thread.state {
                    ThreadState::Sleeping { until } if until > t => false,
                    ThreadState::Sleeping { .. } => {
                        thread.state = ThreadState::Ready;
                        true
                    }
                    _ => true,
                }
            });

            // Deferred migration: the finished thread moves away now.
            if let Some(cur) = self.contexts[idx].current {
                if let Some(target) = self.threads[cur as usize].pending_ctx.take() {
                    self.contexts[idx].current = None;
                    self.threads[cur as usize].ctx = target;
                    let target_idx = self.ctx_index(target);
                    self.contexts[target_idx].queue.push_back(cur);
                    if target_idx != idx && !self.contexts[target_idx].busy {
                        self.queue.push(t, EngineEvent::Wake(target_idx));
                    }
                    self.stats.context_switches += 1;
                    if interest.contains(Interest::CONTEXT_SWITCHES) {
                        self.event_buf.push(ProbeEvent::ContextSwitch {
                            cycle: t,
                            ctx: target,
                            from: None,
                            to: Some(cur),
                        });
                    }
                    continue;
                }
            }

            // Quantum rotation.
            if let Some(cur) = self.contexts[idx].current {
                if t >= self.contexts[idx].quantum_end && !self.contexts[idx].queue.is_empty() {
                    self.contexts[idx].queue.push_back(cur);
                    self.contexts[idx].current = None;
                    self.stats.context_switches += 1;
                    if interest.contains(Interest::CONTEXT_SWITCHES) {
                        let next = self.contexts[idx].queue.front().copied();
                        self.event_buf.push(ProbeEvent::ContextSwitch {
                            cycle: t,
                            ctx: ctx_id,
                            from: Some(cur),
                            to: next,
                        });
                    }
                    t += switch_cost;
                    if self.flush_on_switch {
                        self.memory.flush_core(ctx_id.core());
                        self.stats.mitigation_flushes += 1;
                        t += self.config.mitigation.flush_cycles;
                    }
                }
            }

            // Pick a thread.
            if self.contexts[idx].current.is_none() {
                match self.contexts[idx].queue.pop_front() {
                    Some(next) => {
                        self.contexts[idx].current = Some(next);
                        self.contexts[idx].quantum_end = t + quantum;
                    }
                    None => {
                        // Idle: arm a wake for the earliest sleeper, if any.
                        let threads = &self.threads;
                        let next_wake =
                            self.contexts[idx].next_wake(|tid| match threads[tid as usize].state {
                                ThreadState::Sleeping { until } => until,
                                _ => Cycle::MAX,
                            });
                        if let Some(wake) = next_wake {
                            if !self.contexts[idx].wake_scheduled {
                                self.contexts[idx].wake_scheduled = true;
                                self.queue.push(wake, EngineEvent::Wake(idx));
                            }
                        }
                        self.emit_events();
                        return None;
                    }
                }
            }

            // Invariant: the dispatch path above either scheduled a thread
            // onto this context or returned early.
            let tid = self.contexts[idx].current.expect("thread picked");
            let view = ProgramView {
                now: t,
                last_latency: self.threads[tid as usize].last_latency,
                ctx: ctx_id,
                thread: tid,
            };
            let op = self.threads[tid as usize].program.next_op(&view);
            self.stats.committed_ops += 1;

            let done = match op {
                Op::Compute { cycles } => t + cycles.max(1),
                Op::Load { addr } | Op::Store { addr } => {
                    self.stats.memory_ops += 1;
                    let access = self
                        .memory
                        .access(ctx_id, addr, t, interest, &mut self.event_buf);
                    t + access.latency
                }
                Op::AtomicUnaligned { addr } => {
                    self.stats.memory_ops += 1;
                    self.stats.bus_locks += 1;
                    let latency = self.memory.atomic_unaligned(
                        ctx_id,
                        addr,
                        t,
                        interest,
                        &mut self.event_buf,
                    );
                    t + latency
                }
                Op::Div { count } => {
                    self.stats.divisions += count as u64;
                    let mut cur = t;
                    let bank = &mut self.dividers[ctx_id.core() as usize];
                    let probed = interest.contains(Interest::divider(ctx_id.core()));
                    for _ in 0..count {
                        let issue = bank.issue(ctx_id, cur);
                        if let (true, Some(holder)) = (probed, issue.contended_with) {
                            self.event_buf.push(ProbeEvent::DividerWait {
                                start: cur,
                                cycles: issue.wait,
                                waiter: ctx_id,
                                holder,
                            });
                        }
                        cur = issue.complete;
                    }
                    cur.max(t + 1)
                }
                Op::Mul { count } => {
                    self.stats.multiplications += count as u64;
                    let mut cur = t;
                    let bank = &mut self.multipliers[ctx_id.core() as usize];
                    let probed = interest.contains(Interest::multiplier(ctx_id.core()));
                    for _ in 0..count {
                        let issue = bank.issue(ctx_id, cur);
                        if let (true, Some(holder)) = (probed, issue.contended_with) {
                            self.event_buf.push(ProbeEvent::MultiplierWait {
                                start: cur,
                                cycles: issue.wait,
                                waiter: ctx_id,
                                holder,
                            });
                        }
                        cur = issue.complete;
                    }
                    cur.max(t + 1)
                }
                Op::Idle { cycles } => {
                    self.threads[tid as usize].state = ThreadState::Sleeping {
                        until: t + cycles.max(1),
                    };
                    self.contexts[idx].sleeping.push(tid);
                    self.contexts[idx].current = None;
                    continue;
                }
                Op::Yield => {
                    self.contexts[idx].queue.push_back(tid);
                    self.contexts[idx].current = None;
                    self.stats.context_switches += 1;
                    t += switch_cost.max(1);
                    if self.flush_on_switch {
                        self.memory.flush_core(ctx_id.core());
                        self.stats.mitigation_flushes += 1;
                        t += self.config.mitigation.flush_cycles;
                    }
                    continue;
                }
                Op::Halt => {
                    self.threads[tid as usize].state = ThreadState::Halted;
                    self.contexts[idx].current = None;
                    self.stats.halted_threads += 1;
                    continue;
                }
            };

            self.threads[tid as usize].last_latency = done - t;
            self.emit_events();
            return Some(done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::program::OpScript;

    fn tiny_config() -> MachineConfig {
        MachineConfig::builder()
            .quantum_cycles(10_000)
            .switch_cost(10)
            .build()
            .unwrap()
    }

    #[test]
    fn compute_script_runs_to_halt() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        let tid = m.spawn(
            Box::new(OpScript::new(
                "t",
                vec![Op::Compute { cycles: 100 }, Op::Compute { cycles: 50 }],
            )),
            ctx,
        );
        m.run_for(1_000);
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
        assert_eq!(m.stats().committed_ops, 3); // two computes + halt
        assert!(!m.has_live_threads());
    }

    #[test]
    fn idle_thread_sleeps_and_wakes() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        let tid = m.spawn(
            Box::new(OpScript::new(
                "sleeper",
                vec![Op::Idle { cycles: 5_000 }, Op::Compute { cycles: 10 }],
            )),
            ctx,
        );
        m.run_for(1_000);
        assert!(matches!(m.thread_state(tid), ThreadState::Sleeping { .. }));
        m.run_for(10_000);
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
    }

    #[test]
    fn two_threads_share_a_context_via_quanta() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        let a = m.spawn(
            Box::new(OpScript::new("a", vec![Op::Compute { cycles: 30_000 }])),
            ctx,
        );
        let b = m.spawn(
            Box::new(OpScript::new("b", vec![Op::Compute { cycles: 30_000 }])),
            ctx,
        );
        // Each op is a single indivisible 30k-cycle chunk but rotation
        // happens at op boundaries; both threads eventually finish.
        m.run_for(200_000);
        assert_eq!(m.thread_state(a), ThreadState::Halted);
        assert_eq!(m.thread_state(b), ThreadState::Halted);
        assert!(m.stats().context_switches >= 1);
    }

    #[test]
    fn memory_ops_reach_the_bus() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        let trace = m.attach_trace();
        m.spawn(
            Box::new(OpScript::new(
                "loads",
                vec![Op::Load { addr: 0x1000 }, Op::Load { addr: 0x80_0000 }],
            )),
            ctx,
        );
        m.run_for(10_000);
        let events = trace.borrow();
        let bus_txns = events
            .events()
            .iter()
            .filter(|e| matches!(e, ProbeEvent::BusTransaction { .. }))
            .count();
        assert_eq!(bus_txns, 2, "both cold loads miss to DRAM");
    }

    #[test]
    fn atomic_unaligned_emits_bus_lock() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        let trace = m.attach_trace();
        m.spawn(
            Box::new(OpScript::new(
                "locker",
                vec![Op::AtomicUnaligned { addr: 0x1000 }],
            )),
            ctx,
        );
        m.run_for(10_000);
        assert_eq!(m.stats().bus_locks, 1);
        assert!(trace
            .borrow()
            .events()
            .iter()
            .any(|e| matches!(e, ProbeEvent::BusLock { .. })));
    }

    #[test]
    fn divider_contention_between_hyperthreads() {
        let mut m = Machine::new(tiny_config());
        let c0 = m.config().context_id(0, 0);
        let c1 = m.config().context_id(0, 1);
        let trace = m.attach_trace();
        m.spawn(
            Box::new(OpScript::new("d0", vec![Op::Div { count: 50 }])),
            c0,
        );
        m.spawn(
            Box::new(OpScript::new("d1", vec![Op::Div { count: 50 }])),
            c1,
        );
        m.run_for(100_000);
        let waits = trace
            .borrow()
            .events()
            .iter()
            .filter(|e| matches!(e, ProbeEvent::DividerWait { .. }))
            .count();
        assert!(waits > 0, "co-resident division streams must contend");
    }

    #[test]
    fn multiplier_contention_between_hyperthreads() {
        let mut m = Machine::new(tiny_config());
        let c0 = m.config().context_id(0, 0);
        let c1 = m.config().context_id(0, 1);
        let trace = m.attach_trace();
        m.spawn(
            Box::new(OpScript::new("m0", vec![Op::Mul { count: 50 }])),
            c0,
        );
        m.spawn(
            Box::new(OpScript::new("m1", vec![Op::Mul { count: 50 }])),
            c1,
        );
        m.run_for(100_000);
        assert_eq!(m.stats().multiplications, 100);
        let waits = trace
            .borrow()
            .events()
            .iter()
            .filter(|e| matches!(e, ProbeEvent::MultiplierWait { .. }))
            .count();
        assert!(waits > 0, "co-resident multiplication streams must contend");
        // Divider bank untouched.
        assert_eq!(m.divider(0).issued(), 0);
        assert_eq!(m.multiplier(0).issued(), 100);
    }

    #[test]
    fn determinism_same_seedless_run_twice() {
        let run = || {
            let mut m = Machine::new(tiny_config());
            let ctx = m.config().context_id(0, 0);
            let trace = m.attach_trace();
            m.spawn(
                Box::new(OpScript::new(
                    "x",
                    vec![
                        Op::Load { addr: 0x1000 },
                        Op::Div { count: 3 },
                        Op::AtomicUnaligned { addr: 0x40 },
                        Op::Compute { cycles: 77 },
                    ],
                )),
                ctx,
            );
            m.run_for(100_000);
            let events = trace.borrow().events().to_vec();
            (m.now(), m.stats(), events)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn run_until_advances_now_even_when_idle() {
        let mut m = Machine::new(tiny_config());
        m.run_until(Cycle::new(123_456));
        assert_eq!(m.now(), Cycle::new(123_456));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spawn_on_invalid_context_panics() {
        let mut m = Machine::new(tiny_config());
        m.spawn(Box::new(OpScript::new("x", vec![])), ContextId::new(7, 0));
    }

    #[test]
    fn migration_moves_queued_thread_immediately() {
        let mut m = Machine::new(tiny_config());
        let c0 = m.config().context_id(0, 0);
        let c1 = m.config().context_id(2, 1);
        // Two threads on c0: the second sits queued.
        m.spawn(
            Box::new(OpScript::new("hog", vec![Op::Compute { cycles: 50_000 }])),
            c0,
        );
        let tid = m.spawn(
            Box::new(OpScript::new("mover", vec![Op::Compute { cycles: 10 }])),
            c0,
        );
        m.migrate_thread(tid, c1);
        assert_eq!(m.thread_context(tid), c1);
        m.run_for(1_000);
        assert_eq!(
            m.thread_state(tid),
            ThreadState::Halted,
            "ran on the new context"
        );
    }

    #[test]
    fn migration_of_running_thread_defers_to_op_boundary() {
        let mut m = Machine::new(tiny_config());
        let c0 = m.config().context_id(0, 0);
        let c1 = m.config().context_id(1, 0);
        let tid = m.spawn(
            Box::new(OpScript::new(
                "runner",
                vec![Op::Compute { cycles: 5_000 }, Op::Compute { cycles: 5_000 }],
            )),
            c0,
        );
        m.run_for(1_000); // first op in flight
        m.migrate_thread(tid, c1);
        assert_eq!(m.thread_context(tid), c0, "still on old context mid-op");
        m.run_for(20_000);
        assert_eq!(m.thread_context(tid), c1);
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
    }

    #[test]
    fn migration_moves_sleeping_thread() {
        let mut m = Machine::new(tiny_config());
        let c0 = m.config().context_id(0, 0);
        let c1 = m.config().context_id(3, 1);
        let tid = m.spawn(
            Box::new(OpScript::new(
                "sleeper",
                vec![Op::Idle { cycles: 5_000 }, Op::Compute { cycles: 10 }],
            )),
            c0,
        );
        m.run_for(1_000);
        assert!(matches!(m.thread_state(tid), ThreadState::Sleeping { .. }));
        m.migrate_thread(tid, c1);
        assert_eq!(m.thread_context(tid), c1);
        m.run_for(10_000);
        assert_eq!(
            m.thread_state(tid),
            ThreadState::Halted,
            "woke on new context"
        );
    }

    #[test]
    #[should_panic(expected = "halted")]
    fn migrating_halted_thread_panics() {
        let mut m = Machine::new(tiny_config());
        let c0 = m.config().context_id(0, 0);
        let tid = m.spawn(Box::new(OpScript::new("done", vec![])), c0);
        m.run_for(1_000);
        m.migrate_thread(tid, m.config().context_id(1, 0));
    }

    #[test]
    fn flush_on_switch_invalidates_private_caches() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        let trace = m.attach_trace();
        m.set_flush_on_switch(true);
        m.spawn(
            Box::new(OpScript::new(
                "reloader",
                vec![
                    Op::Load { addr: 0x1000 },
                    Op::Yield,
                    Op::Load { addr: 0x1000 },
                ],
            )),
            ctx,
        );
        m.run_for(100_000);
        assert!(m.stats().mitigation_flushes >= 1, "yield flushed the core");
        let misses = trace
            .borrow()
            .events()
            .iter()
            .filter(|e| matches!(e, ProbeEvent::CacheAccess { hit: false, .. }))
            .count();
        assert_eq!(misses, 2, "the re-load misses again after the flush");
    }

    #[test]
    fn temporal_gate_stalls_context_until_its_slot() {
        use crate::config::MitigationCostConfig;
        let config = MachineConfig::builder()
            .quantum_cycles(10_000)
            .switch_cost(10)
            .mitigation(MitigationCostConfig {
                partition_slot_cycles: 50_000,
                partition_drain_cycles: 100,
                ..MitigationCostConfig::default()
            })
            .build()
            .unwrap();
        let mut m = Machine::new(config);
        let ctx = m.config().context_id(0, 0);
        let tid = m.spawn(
            Box::new(OpScript::new("gated", vec![Op::Compute { cycles: 100 }])),
            ctx,
        );
        // Phase 1 owns odd slots: closed during [0, 50k).
        m.set_temporal_phase(ctx, Some(1));
        m.run_for(40_000);
        assert_eq!(m.stats().committed_ops, 0, "gate closed: nothing ran");
        assert!(m.stats().partition_stalls >= 1);
        m.run_for(20_000);
        assert_eq!(m.thread_state(tid), ThreadState::Halted, "slot opened");
        assert_eq!(m.temporal_phase(ctx), Some(1));
        m.set_temporal_phase(ctx, None);
        assert_eq!(m.temporal_phase(ctx), None);
    }

    #[test]
    fn parked_context_dispatches_nothing_until_resumed() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        let tid = m.spawn(
            Box::new(OpScript::new("parked", vec![Op::Compute { cycles: 10 }])),
            ctx,
        );
        m.park_context(ctx);
        assert!(m.is_parked(ctx));
        m.run_for(100_000);
        assert_eq!(m.stats().committed_ops, 0, "parked context never ran");
        m.resume_context(ctx);
        assert!(!m.is_parked(ctx));
        m.run_for(200_000);
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
    }

    #[test]
    fn l2_way_mask_installs_and_clears_through_machine() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        assert!(m.set_l2_way_mask(ctx, 0).is_err(), "empty mask rejected");
        m.set_l2_way_mask(ctx, 0b11).unwrap();
        assert!(m.memory().l2(0).is_way_partitioned());
        assert_eq!(m.memory().l2(0).way_mask(ctx), 0b11);
        m.clear_l2_way_mask(ctx);
        assert!(!m.memory().l2(0).is_way_partitioned());
    }

    #[test]
    fn yield_rotates_between_threads() {
        let mut m = Machine::new(tiny_config());
        let ctx = m.config().context_id(0, 0);
        let a = m.spawn(
            Box::new(OpScript::new(
                "y1",
                vec![Op::Yield, Op::Compute { cycles: 5 }],
            )),
            ctx,
        );
        let b = m.spawn(
            Box::new(OpScript::new("y2", vec![Op::Compute { cycles: 5 }])),
            ctx,
        );
        m.run_for(100_000);
        assert_eq!(m.thread_state(a), ThreadState::Halted);
        assert_eq!(m.thread_state(b), ThreadState::Halted);
    }
}
