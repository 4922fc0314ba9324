//! OS thread scheduling over hardware contexts.
//!
//! Each hardware context owns a run queue of software threads (threads are
//! affine to a context unless respawned elsewhere, mirroring the pinned
//! trojan/spy placement of the paper's experiments). Threads rotate
//! round-robin at quantum boundaries; sleeping threads ([`crate::Op::Idle`])
//! leave the context free for other runnable threads.

use crate::probe::ThreadId;
use crate::time::Cycle;
use std::collections::VecDeque;

/// Lifecycle state of a software thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable (queued or currently on a context).
    Ready,
    /// Blocked in an [`crate::Op::Idle`] until the given instant.
    Sleeping {
        /// Wake-up time.
        until: Cycle,
    },
    /// Terminated.
    Halted,
}

/// A time-division gate used for temporal partitioning of a context
/// (fence.t-style, Wistoff et al.): time is divided into slots of
/// `slot_cycles`, and the context may only run during slots of its `phase`
/// parity. Two contexts gated with opposite phases never co-execute, which
/// removes every contention-timing channel between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalGate {
    /// Slot length in cycles (nonzero).
    pub slot_cycles: u64,
    /// Which slot parity (0 or 1) this context owns.
    pub phase: u8,
}

impl TemporalGate {
    /// Whether the gate is open at `now`.
    pub fn allows(&self, now: Cycle) -> bool {
        (now.as_u64() / self.slot_cycles) % 2 == self.phase as u64 % 2
    }

    /// First cycle at or after `now` at which the gate is open.
    pub fn next_open(&self, now: Cycle) -> Cycle {
        if self.allows(now) {
            return now;
        }
        let slot = now.as_u64() / self.slot_cycles;
        Cycle::new((slot + 1) * self.slot_cycles)
    }
}

/// Scheduling state of one hardware context.
#[derive(Debug, Clone)]
pub struct ContextSched {
    /// Runnable threads waiting for this context.
    pub queue: VecDeque<ThreadId>,
    /// Threads sleeping on this context.
    pub sleeping: Vec<ThreadId>,
    /// The thread currently running, if any.
    pub current: Option<ThreadId>,
    /// End of the running thread's quantum.
    pub quantum_end: Cycle,
    /// Whether an op-completion event is in flight for this context.
    pub busy: bool,
    /// Whether a wake event is already scheduled (avoids duplicates).
    pub wake_scheduled: bool,
    /// Temporal-partition gate, if this context is being contained.
    pub gate: Option<TemporalGate>,
    /// Whether the context is parked (descheduled): attached threads are
    /// kept but nothing is dispatched until the context is resumed.
    pub parked: bool,
}

impl ContextSched {
    /// Creates an idle context with no threads.
    pub fn new() -> Self {
        ContextSched {
            queue: VecDeque::new(),
            sleeping: Vec::new(),
            current: None,
            quantum_end: Cycle::ZERO,
            busy: false,
            wake_scheduled: false,
            gate: None,
            parked: false,
        }
    }

    /// Moves every sleeping thread for which `due` returns true back to the
    /// run queue, in sleeping-list order with swap-removal; returns how many
    /// woke. `due` may update the thread's own state as it decides.
    pub fn wake_due(&mut self, mut due: impl FnMut(ThreadId) -> bool) -> usize {
        let mut woke = 0;
        let mut i = 0;
        while i < self.sleeping.len() {
            if due(self.sleeping[i]) {
                let tid = self.sleeping.swap_remove(i);
                self.queue.push_back(tid);
                woke += 1;
            } else {
                i += 1;
            }
        }
        woke
    }

    /// Earliest wake time among sleeping threads.
    pub fn next_wake(&self, wake_time: impl Fn(ThreadId) -> Cycle) -> Option<Cycle> {
        self.sleeping.iter().map(|&t| wake_time(t)).min()
    }

    /// Whether any thread (running, queued, or sleeping) is attached.
    pub fn has_threads(&self) -> bool {
        self.current.is_some() || !self.queue.is_empty() || !self.sleeping.is_empty()
    }
}

impl Default for ContextSched {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_due_moves_expired_sleepers() {
        let mut ctx = ContextSched::new();
        ctx.sleeping = vec![1, 2, 3];
        let woke = ctx.wake_due(|t| Cycle::new(t as u64 * 100) <= Cycle::new(250));
        assert_eq!(woke, 2);
        assert_eq!(ctx.sleeping, vec![3]);
        assert_eq!(ctx.queue.len(), 2);
    }

    #[test]
    fn next_wake_is_minimum() {
        let mut ctx = ContextSched::new();
        ctx.sleeping = vec![5, 2, 9];
        let wake = |t: ThreadId| Cycle::new(t as u64);
        assert_eq!(ctx.next_wake(wake), Some(Cycle::new(2)));
    }

    #[test]
    fn temporal_gate_alternates_slots() {
        let even = TemporalGate {
            slot_cycles: 100,
            phase: 0,
        };
        let odd = TemporalGate {
            slot_cycles: 100,
            phase: 1,
        };
        for t in [0u64, 50, 99, 200, 250] {
            assert!(even.allows(Cycle::new(t)), "even gate open at {t}");
            assert!(!odd.allows(Cycle::new(t)), "odd gate closed at {t}");
        }
        for t in [100u64, 199, 300] {
            assert!(!even.allows(Cycle::new(t)));
            assert!(odd.allows(Cycle::new(t)));
        }
        // Opposite phases are never simultaneously open.
        for t in 0..1000u64 {
            let now = Cycle::new(t);
            assert!(even.allows(now) != odd.allows(now));
        }
    }

    #[test]
    fn temporal_gate_next_open_is_slot_boundary() {
        let odd = TemporalGate {
            slot_cycles: 100,
            phase: 1,
        };
        assert_eq!(odd.next_open(Cycle::new(0)), Cycle::new(100));
        assert_eq!(odd.next_open(Cycle::new(99)), Cycle::new(100));
        assert_eq!(odd.next_open(Cycle::new(150)), Cycle::new(150), "open now");
        assert_eq!(odd.next_open(Cycle::new(200)), Cycle::new(300));
    }

    #[test]
    fn has_threads_covers_all_holding_places() {
        let mut ctx = ContextSched::new();
        assert!(!ctx.has_threads());
        ctx.current = Some(1);
        assert!(ctx.has_threads());
        ctx.current = None;
        ctx.sleeping.push(2);
        assert!(ctx.has_threads());
    }
}
