//! Set-associative cache model with true-LRU replacement and per-block
//! owner-context metadata.
//!
//! The owner context stored in each block's metadata is what the paper's
//! conflict-miss tracker reads to label a replacement's *victim*; the
//! requesting context is the *replacer*.

use crate::config::CacheConfig;
use crate::probe::ContextId;

/// Identifies a cache level in probe events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Private per-core L1 (shared by a core's hyperthreads).
    L1,
    /// Per-core L2 (shared by a core's hyperthreads); the shared resource of
    /// the cache covert channel.
    L2,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Set index the access mapped to.
    pub set: u32,
    /// If the fill evicted a valid block: `(block_address, owner_context)`.
    pub victim: Option<(u64, ContextId)>,
}

/// A set-associative cache with true-LRU replacement.
///
/// Addresses are byte addresses; the cache works on line-aligned block
/// addresses internally. The model tracks contents and ownership only — data
/// values are irrelevant to timing channels.
///
/// Sets are stored as three parallel arrays indexed `set * ways + way`: a
/// key per block (its line number plus one, so 0 marks an invalid way), an
/// LRU stamp and an owner context. A set's keys are contiguous, so a hit
/// check scans one short run of `u64`s.
///
/// ```
/// use cchunter_sim::{Cache, CacheConfig, ContextId};
/// let cfg = CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 2, hit_latency: 3 };
/// let mut cache = Cache::new(cfg);
/// let ctx = ContextId::new(0, 0);
/// assert!(!cache.access(0, ctx).hit);   // cold miss
/// assert!(cache.access(0, ctx).hit);    // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: u32,
    ways: u32,
    /// Line number + 1 of each block; 0 = invalid.
    keys: Vec<u64>,
    /// LRU timestamp of each block: larger is more recent.
    stamps: Vec<u64>,
    /// Current owner context of each block.
    owners: Vec<ContextId>,
    tick: u64,
    line_shift: u32,
    /// Per-context fill restrictions (way-partitioning, Intel CAT style):
    /// a restricted context may only *allocate* into its masked ways; hits
    /// anywhere still hit. Empty when no partition is active.
    way_masks: Vec<(ContextId, u64)>,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache geometry");
        let sets = config.sets();
        let ways = config.ways;
        Cache {
            config,
            sets,
            ways,
            keys: vec![0; (sets * ways) as usize],
            stamps: vec![0; (sets * ways) as usize],
            owners: vec![ContextId::new(0, 0); (sets * ways) as usize],
            tick: 0,
            line_shift: config.line_bytes.trailing_zeros(),
            way_masks: Vec::new(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Line-aligned block address for a byte address.
    pub fn block_address(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// Set index a byte address maps to.
    pub fn set_index(&self, addr: u64) -> u32 {
        ((addr >> self.line_shift) & (self.sets as u64 - 1)) as u32
    }

    /// Full way mask for this geometry (all ways allocatable).
    fn full_mask(&self) -> u64 {
        if self.ways as usize >= u64::BITS as usize {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    /// Restricts `ctx` to allocate only into the ways selected by `mask`
    /// (bit *i* set ⇒ way *i* allowed). Hits in other ways are unaffected;
    /// only victim selection on a fill is masked, mirroring way-partitioning
    /// hardware such as Intel CAT.
    ///
    /// # Errors
    ///
    /// Returns a message if `mask` selects no way within this cache's
    /// associativity (which would make every fill impossible).
    pub fn set_way_mask(&mut self, ctx: ContextId, mask: u64) -> Result<(), String> {
        if mask & self.full_mask() == 0 {
            return Err(format!(
                "way mask {mask:#x} selects no way of a {}-way cache",
                self.ways
            ));
        }
        let mask = mask & self.full_mask();
        match self.way_masks.iter_mut().find(|(c, _)| *c == ctx) {
            Some(entry) => entry.1 = mask,
            None => self.way_masks.push((ctx, mask)),
        }
        Ok(())
    }

    /// Removes any fill restriction for `ctx`.
    pub fn clear_way_mask(&mut self, ctx: ContextId) {
        self.way_masks.retain(|(c, _)| *c != ctx);
    }

    /// The effective allocation mask for `ctx` (the full mask when no
    /// partition is active).
    pub fn way_mask(&self, ctx: ContextId) -> u64 {
        self.way_masks
            .iter()
            .find(|(c, _)| *c == ctx)
            .map(|(_, m)| *m)
            .unwrap_or_else(|| self.full_mask())
    }

    /// Whether any context currently has a fill restriction.
    pub fn is_way_partitioned(&self) -> bool {
        !self.way_masks.is_empty()
    }

    /// Accesses `addr` on behalf of `ctx`: returns hit/miss and, on a miss
    /// that evicts a valid block, the victim's block address and owner.
    ///
    /// On a miss the line is filled (write-allocate) and owned by `ctx`; on
    /// a hit the block's recency is refreshed and ownership transfers to the
    /// accessor, mirroring the paper's "current owner context" metadata.
    pub fn access(&mut self, addr: u64, ctx: ContextId) -> CacheAccessOutcome {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        let key = (addr >> self.line_shift) + 1;
        let mask = if self.way_masks.is_empty() {
            u64::MAX
        } else {
            self.way_mask(ctx)
        };
        let ways = self.ways as usize;
        let base = set as usize * ways;
        let keys = &mut self.keys[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        let owners = &mut self.owners[base..base + ways];

        // One pass: stop at a hit; otherwise note the first invalid allowed
        // way and the true-LRU allowed way (stamps of valid blocks are
        // unique, so the minimum is too). `NONE` marks "not found".
        const NONE: usize = usize::MAX;
        let mut invalid = NONE;
        let mut lru = NONE;
        let mut lru_stamp = u64::MAX;
        for way in 0..ways {
            let k = keys[way];
            if k == key {
                stamps[way] = tick;
                owners[way] = ctx;
                return CacheAccessOutcome {
                    hit: true,
                    set,
                    victim: None,
                };
            }
            if mask & (1u64 << way) != 0 {
                if k == 0 {
                    if invalid == NONE {
                        invalid = way;
                    }
                } else if stamps[way] < lru_stamp {
                    lru_stamp = stamps[way];
                    lru = way;
                }
            }
        }

        // Miss: fill into an invalid allowed way, else evict the LRU one.
        let (way, victim) = if invalid != NONE {
            (invalid, None)
        } else {
            assert!(lru != NONE, "a way mask selects at least one way");
            let victim_addr = (keys[lru] - 1) << self.line_shift;
            (lru, Some((victim_addr, owners[lru])))
        };
        keys[way] = key;
        stamps[way] = tick;
        owners[way] = ctx;
        CacheAccessOutcome {
            hit: false,
            set,
            victim,
        }
    }

    /// Probes whether `addr` is resident without disturbing LRU state.
    pub fn contains(&self, addr: u64) -> bool {
        let base = (self.set_index(addr) * self.ways) as usize;
        let key = (addr >> self.line_shift) + 1;
        self.keys[base..base + self.ways as usize].contains(&key)
    }

    /// Number of valid blocks currently resident.
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }

    /// Invalidates all contents.
    pub fn flush(&mut self) {
        self.keys.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 64B lines.
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        })
    }

    fn ctx(n: u8) -> ContextId {
        ContextId::new(n, 0)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let out = c.access(0x40, ctx(0));
        assert!(!out.hit);
        assert!(out.victim.is_none());
        assert!(c.access(0x40, ctx(0)).hit);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn same_set_eviction_is_lru_and_reports_victim() {
        let mut c = small();
        // Addresses mapping to set 0: stride = sets*line = 4*64 = 256.
        let a = 0u64;
        let b = 256u64;
        let d = 512u64;
        c.access(a, ctx(0));
        c.access(b, ctx(1));
        c.access(a, ctx(0)); // refresh a; b is now LRU
        let out = c.access(d, ctx(2));
        assert!(!out.hit);
        let (victim_addr, victim_owner) = out.victim.unwrap();
        assert_eq!(victim_addr, b);
        assert_eq!(victim_owner, ctx(1));
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn ownership_transfers_on_hit() {
        let mut c = small();
        c.access(0, ctx(0));
        c.access(0, ctx(1)); // hit by another context takes ownership
        c.access(256, ctx(2));
        // Fill the set and evict the LRU (address 0, now owned by ctx 1).
        let out = c.access(512, ctx(2));
        assert_eq!(out.victim.unwrap(), (0, ctx(1)));
    }

    #[test]
    fn victim_address_reconstruction_roundtrips() {
        let mut c = small();
        for i in 0..3u64 {
            let addr = 0x1000 + i * 256; // same set, different tags
            let out = c.access(addr, ctx(0));
            if let Some((victim, _)) = out.victim {
                assert_eq!(victim, 0x1000, "oldest block evicted first");
            }
        }
    }

    #[test]
    fn set_index_and_block_address() {
        let c = small();
        assert_eq!(c.set_index(0x40), 1);
        assert_eq!(c.set_index(0x100), 0);
        assert_eq!(c.block_address(0x47), 0x40);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.access(0, ctx(0));
        c.access(64, ctx(0));
        assert_eq!(c.occupancy(), 2);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(0));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        // 8 lines across 4 sets: fits exactly (2 ways each), no evictions.
        for i in 0..8u64 {
            let out = c.access(i * 64, ctx(0));
            assert!(out.victim.is_none());
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn way_mask_confines_fills_to_allowed_ways() {
        let mut c = small();
        // Restrict ctx 1 to way 0 only; ctx 0 stays unrestricted.
        c.set_way_mask(ctx(1), 0b01).unwrap();
        // ctx 0 fills both ways of set 0.
        c.access(0, ctx(0));
        c.access(256, ctx(0));
        // ctx 1 must always evict way 0's occupant and never touch way 1.
        let out = c.access(512, ctx(1));
        assert_eq!(out.victim.unwrap().0, 0, "way 0 (LRU-oldest fill) evicted");
        let out = c.access(768, ctx(1));
        assert_eq!(out.victim.unwrap().0, 512, "ctx 1 churns only way 0");
        assert!(c.contains(256), "way 1 line untouched by partition");
    }

    #[test]
    fn way_mask_does_not_block_hits() {
        let mut c = small();
        c.access(0, ctx(0)); // fills way 0
        c.set_way_mask(ctx(1), 0b10).unwrap();
        assert!(
            c.access(0, ctx(1)).hit,
            "hit in a disallowed way still hits"
        );
    }

    #[test]
    fn way_mask_rejects_empty_and_clears() {
        let mut c = small();
        assert!(c.set_way_mask(ctx(0), 0).is_err());
        assert!(c.set_way_mask(ctx(0), 0b100).is_err(), "outside 2 ways");
        c.set_way_mask(ctx(0), 0b01).unwrap();
        assert!(c.is_way_partitioned());
        assert_eq!(c.way_mask(ctx(0)), 0b01);
        c.clear_way_mask(ctx(0));
        assert!(!c.is_way_partitioned());
        assert_eq!(c.way_mask(ctx(0)), 0b11, "back to the full mask");
    }

    #[test]
    fn paper_l2_geometry_has_512_sets() {
        let c = Cache::new(CacheConfig {
            capacity_bytes: 256 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency: 15,
        });
        assert_eq!(c.sets(), 512);
    }
}
