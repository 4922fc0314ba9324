//! The memory hierarchy: per-core L1/L2 caches in front of a shared bus and
//! DRAM.
//!
//! Latency model per access:
//!
//! * L1 hit: `l1.hit_latency`
//! * L2 hit: `l1.hit_latency + l2.hit_latency`
//! * L2 miss: `l1 + l2 + bus wait + bus transaction + dram_latency`
//!
//! An atomic unaligned access spanning two lines bypasses the caches for its
//! locked bus phase (x86 split-lock behaviour) and holds the bus lock for
//! the configured duration.

use crate::bus::Bus;
use crate::cache::{Cache, CacheLevel};
use crate::config::MachineConfig;
use crate::probe::{ContextId, Interest, ProbeEvent};
use crate::time::Cycle;

/// Result of a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Whether the access hit in L1.
    pub l1_hit: bool,
    /// Whether the access hit in L2 (meaningless when `l1_hit`).
    pub l2_hit: bool,
}

/// The full memory system: per-core L1 and L2, one shared bus, DRAM.
#[derive(Debug)]
pub struct MemorySystem {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    bus: Bus,
    l1_hit_latency: u64,
    l2_hit_latency: u64,
    dram_latency: u64,
}

impl MemorySystem {
    /// Builds the hierarchy for `config`.
    pub fn new(config: &MachineConfig) -> Self {
        MemorySystem {
            l1: (0..config.cores).map(|_| Cache::new(config.l1)).collect(),
            l2: (0..config.cores).map(|_| Cache::new(config.l2)).collect(),
            bus: Bus::new(config.bus),
            l1_hit_latency: config.l1.hit_latency,
            l2_hit_latency: config.l2.hit_latency,
            dram_latency: config.bus.dram_latency,
        }
    }

    /// Immutable view of the shared bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The L2 cache of `core`.
    pub fn l2(&self, core: u8) -> &Cache {
        &self.l2[core as usize]
    }

    /// Mutable access to the L2 cache of `core` (e.g. to install a
    /// way-partition mask).
    pub fn l2_mut(&mut self, core: u8) -> &mut Cache {
        &mut self.l2[core as usize]
    }

    /// Invalidates the entire private hierarchy (L1 and L2) of `core`; the
    /// enforcement half of flush-on-context-switch containment.
    pub fn flush_core(&mut self, core: u8) {
        self.l1[core as usize].flush();
        self.l2[core as usize].flush();
    }

    /// Performs a load or store by `ctx` at `addr`, starting at `now`.
    /// Probe events in `interest` are appended to `events`.
    pub fn access(
        &mut self,
        ctx: ContextId,
        addr: u64,
        now: Cycle,
        interest: Interest,
        events: &mut Vec<ProbeEvent>,
    ) -> MemAccess {
        let core = ctx.core() as usize;
        if self.l1[core].access(addr, ctx).hit {
            return MemAccess {
                latency: self.l1_hit_latency,
                l1_hit: true,
                l2_hit: false,
            };
        }
        let l2_hit = self.l2_access(ctx, addr, now, interest, events);
        if l2_hit {
            return MemAccess {
                latency: self.l1_hit_latency + self.l2_hit_latency,
                l1_hit: false,
                l2_hit: true,
            };
        }
        // Miss: go over the shared bus to DRAM.
        let issue = now + self.l1_hit_latency + self.l2_hit_latency;
        let grant = self.bus.transaction(issue);
        if interest.contains(Interest::BUS_TRANSACTIONS) {
            events.push(ProbeEvent::BusTransaction {
                cycle: grant.start,
                ctx,
                wait: grant.wait,
            });
        }
        let done = grant.release + self.dram_latency;
        MemAccess {
            latency: done - now,
            l1_hit: false,
            l2_hit: false,
        }
    }

    /// Performs an atomic unaligned access spanning the two lines at `addr`
    /// and `addr + line`: acquires the bus lock, emitting a
    /// [`ProbeEvent::BusLock`] when `interest` covers it.
    ///
    /// Returns the end-to-end latency.
    pub fn atomic_unaligned(
        &mut self,
        ctx: ContextId,
        addr: u64,
        now: Cycle,
        interest: Interest,
        events: &mut Vec<ProbeEvent>,
    ) -> u64 {
        let grant = self.bus.lock(now);
        if interest.contains(Interest::BUS_LOCKS) {
            events.push(ProbeEvent::BusLock {
                cycle: grant.start,
                ctx,
                hold: grant.release - grant.start,
            });
        }
        // Keep the two touched lines warm in the local hierarchy (their
        // fills ride inside the locked window; no separate bus grant).
        let core = ctx.core() as usize;
        let line = self.l1[core].config().line_bytes;
        for a in [addr, addr + line] {
            if !self.l1[core].access(a, ctx).hit {
                self.l2_access(ctx, a, grant.start, interest, events);
            }
        }
        grant.release + self.dram_latency - now
    }

    /// Accesses `ctx`'s L2 at `addr` after an L1 miss, stamping the probe
    /// events (when `interest` covers the core's L2) at `at`. Returns
    /// whether the access hit.
    fn l2_access(
        &mut self,
        ctx: ContextId,
        addr: u64,
        at: Cycle,
        interest: Interest,
        events: &mut Vec<ProbeEvent>,
    ) -> bool {
        let l2 = &mut self.l2[ctx.core() as usize];
        let out = l2.access(addr, ctx);
        if interest.contains(Interest::l2(ctx.core())) {
            let block = l2.block_address(addr);
            events.push(ProbeEvent::CacheAccess {
                cycle: at,
                level: CacheLevel::L2,
                core: ctx.core(),
                ctx,
                block,
                hit: out.hit,
            });
            if let Some((victim_block, victim_owner)) = out.victim {
                events.push(ProbeEvent::CacheReplacement {
                    cycle: at,
                    level: CacheLevel::L2,
                    core: ctx.core(),
                    set: out.set,
                    replacer: ctx,
                    new_block: block,
                    victim_block,
                    victim_owner,
                });
            }
        }
        out.hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(&MachineConfig::default())
    }

    fn ctx() -> ContextId {
        ContextId::new(0, 0)
    }

    #[test]
    fn cold_access_goes_to_dram() {
        let mut m = sys();
        let mut ev = Vec::new();
        let out = m.access(ctx(), 0x1000, Cycle::new(0), Interest::ALL, &mut ev);
        assert!(!out.l1_hit && !out.l2_hit);
        // l1 + l2 + bus transaction + dram.
        assert_eq!(out.latency, 3 + 15 + 36 + 160);
        assert!(ev
            .iter()
            .any(|e| matches!(e, ProbeEvent::BusTransaction { .. })));
        assert!(ev
            .iter()
            .any(|e| matches!(e, ProbeEvent::CacheAccess { hit: false, .. })));
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut m = sys();
        let mut ev = Vec::new();
        m.access(ctx(), 0x1000, Cycle::new(0), Interest::ALL, &mut ev);
        let out = m.access(ctx(), 0x1000, Cycle::new(500), Interest::ALL, &mut ev);
        assert!(out.l1_hit);
        assert_eq!(out.latency, 3);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = sys();
        let mut ev = Vec::new();
        // Fill one L1 set (64 sets × 8 ways; stride 64*64 = 4096 stays in
        // one L1 set; L2 has 512 sets so these spread across L2 sets 0,64,...
        // wrapping: 4096/64 = 64 line-index stride → L2 sets differ).
        for i in 0..9u64 {
            m.access(ctx(), i * 4096, Cycle::new(0), Interest::ALL, &mut ev);
        }
        // First address was evicted from 8-way L1 but still lives in L2.
        let out = m.access(ctx(), 0, Cycle::new(1_000), Interest::ALL, &mut ev);
        assert!(!out.l1_hit);
        assert!(out.l2_hit);
        assert_eq!(out.latency, 3 + 15);
    }

    #[test]
    fn atomic_unaligned_locks_bus_and_delays_others() {
        let mut m = sys();
        let mut ev = Vec::new();
        let lat = m.atomic_unaligned(ctx(), 0x2000, Cycle::new(0), Interest::ALL, &mut ev);
        assert!(lat >= 400, "lock hold dominates latency, got {lat}");
        assert!(ev.iter().any(|e| matches!(e, ProbeEvent::BusLock { .. })));
        // A miss from another core right behind the lock waits it out.
        let other = ContextId::new(1, 0);
        let out = m.access(other, 0x9000, Cycle::new(10), Interest::ALL, &mut ev);
        assert!(
            out.latency > 400,
            "load behind a bus lock should stall, got {}",
            out.latency
        );
    }

    #[test]
    fn l2_replacement_emits_victim_event() {
        let mut m = sys();
        let mut ev = Vec::new();
        // 9 distinct lines in one L2 set (stride = 512 sets × 64 B = 32 KB),
        // all missing L1 too (L1 set stride wraps at 4 KB so they also share
        // an L1 set, but L1 evictions are not probed).
        for i in 0..9u64 {
            m.access(
                ctx(),
                0x10_0000 + i * 32 * 1024,
                Cycle::new(i * 1000),
                Interest::ALL,
                &mut ev,
            );
        }
        let replacements: Vec<_> = ev
            .iter()
            .filter(|e| matches!(e, ProbeEvent::CacheReplacement { .. }))
            .collect();
        assert_eq!(replacements.len(), 1, "ninth line evicts the first");
        if let ProbeEvent::CacheReplacement {
            victim_block,
            new_block,
            ..
        } = replacements[0]
        {
            assert_eq!(*victim_block, 0x10_0000);
            assert_eq!(*new_block, 0x10_0000 + 8 * 32 * 1024);
        }
    }

    #[test]
    fn events_outside_the_interest_are_not_built() {
        let mut m = sys();
        let mut ev = Vec::new();
        m.access(
            ctx(),
            0x1000,
            Cycle::new(0),
            Interest::BUS_TRANSACTIONS,
            &mut ev,
        );
        assert!(!ev
            .iter()
            .any(|e| matches!(e, ProbeEvent::CacheAccess { .. })));
        // The bus transaction is wanted and built.
        assert!(ev
            .iter()
            .any(|e| matches!(e, ProbeEvent::BusTransaction { .. })));
    }
}
