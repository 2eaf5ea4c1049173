//! A set-associative cache tag array with true-LRU replacement and
//! MSHR-limited miss tracking.

use crate::LINE_BYTES;
use std::collections::VecDeque;

/// Geometry and timing of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles (pipelined; adds to the request's total).
    pub hit_latency: u64,
    /// Number of miss-status holding registers.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    pub fn sets(&self) -> usize {
        let sets = (self.size_bytes / LINE_BYTES) as usize / self.ways;
        assert!(sets.is_power_of_two(), "cache sets must be a power of two, got {sets}");
        sets
    }

    /// Storage of the data array in bits (for reporting).
    pub fn storage_bits(&self) -> usize {
        (self.size_bytes * 8) as usize
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    lru: u32,
    /// A way is live iff its epoch matches the cache's current epoch.
    /// [`Cache::reset`] bumps the cache epoch, aging out every way in
    /// O(1) instead of rewriting every allocated group.
    epoch: u32,
}

/// Per-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses merged into an already-outstanding line (MSHR hit).
    pub mshr_merges: u64,
    /// Cycles of stall charged because all MSHRs were busy.
    pub mshr_stall_cycles: u64,
    /// Lines installed by prefetch.
    pub prefetch_fills: u64,
}

/// Sets per tag-storage group: the unit [`Cache`] allocates on first fill.
///
/// 16 sets of a 12-way L3 are 3 KiB, so a snapshot copies only the
/// groups its live lines fall in instead of the whole 3 MiB tag array,
/// while a full cache pays one 4-byte directory entry per group.
const GROUP_SETS: usize = 16;

/// Directory entry of a group that holds no storage yet.
const UNALLOCATED: u32 = u32::MAX;

/// One cache level: tag array + MSHRs.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag storage of the allocated groups, in allocation order:
    /// `group_sets * cfg.ways` consecutive ways per group, `cfg.ways`
    /// consecutive ways per set — so a probe walks one contiguous span.
    ways: Vec<Way>,
    /// Per group, the offset of its first way in `ways`, or
    /// [`UNALLOCATED`]. A group is allocated on its first fill, so tag
    /// storage (and the cost of a clone) grows with the sets in use.
    groups: Vec<u32>,
    /// log2 of the sets per group (`GROUP_SETS`, or fewer for a cache
    /// with fewer sets).
    group_shift: u32,
    set_mask: usize,
    lru_clock: u32,
    /// Current validity epoch; ways whose epoch differs are empty.
    epoch: u32,
    /// Outstanding misses: (line, completion_cycle). Pruned lazily.
    inflight: VecDeque<(u64, u64)>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache. Only the group directory is allocated;
    /// tag storage follows the fills.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        let group_sets = GROUP_SETS.min(sets);
        Cache {
            cfg,
            ways: Vec::new(),
            groups: vec![UNALLOCATED; sets / group_sets],
            group_shift: group_sets.trailing_zeros(),
            set_mask: sets - 1,
            lru_clock: 0,
            epoch: 1,
            inflight: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Restores the cache to the state `Cache::new(cfg)` would produce,
    /// keeping the allocated tag storage.
    ///
    /// Validity is epoch-gated, so invalidating every way is a single
    /// epoch bump — stale ways read as empty to [`probe`](Cache::probe)
    /// and rank as free slots to [`fill`](Cache::fill)'s victim search,
    /// exactly like a fresh cache's default ways (and like a group that
    /// was never allocated). `reset_equivalence` tests pin fresh/reset
    /// indistinguishability, which the lane batch's hierarchy recycling
    /// relies on for byte-identical statistics.
    pub fn reset(&mut self) {
        match self.epoch.checked_add(1) {
            Some(next) => self.epoch = next,
            None => {
                // One slab rewrite every 2^32 resets keeps the epoch
                // compare a plain equality test.
                self.ways.fill(Way::default());
                self.epoch = 1;
            }
        }
        self.lru_clock = 0;
        self.inflight.clear();
        self.stats = CacheStats::default();
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The level's statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// `line`'s group, and the offset of its set within the group's ways.
    #[inline]
    fn locate(&self, line: u64) -> (usize, usize) {
        let set = (line as usize) & self.set_mask;
        (set >> self.group_shift, (set & ((1 << self.group_shift) - 1)) * self.cfg.ways)
    }

    /// Looks up `line`, updating LRU on hit. Returns true on hit.
    pub fn probe(&mut self, line: u64) -> bool {
        self.lru_clock += 1;
        let (group, offset) = self.locate(line);
        if self.groups[group] == UNALLOCATED {
            return false;
        }
        let base = self.groups[group] as usize + offset;
        let clock = self.lru_clock;
        let epoch = self.epoch;
        for way in &mut self.ways[base..base + self.cfg.ways] {
            if way.epoch == epoch && way.tag == line {
                way.lru = clock;
                return true;
            }
        }
        false
    }

    /// Installs `line`, evicting the LRU way. Returns the evicted line.
    pub fn fill(&mut self, line: u64) -> Option<u64> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let epoch = self.epoch;
        let (group, offset) = self.locate(line);
        if self.groups[group] == UNALLOCATED {
            // First fill into this group: append its (empty) ways.
            let start = self.ways.len();
            self.groups[group] = u32::try_from(start).expect("tag storage fits u32 offsets");
            self.ways.resize(start + (1 << self.group_shift) * self.cfg.ways, Way::default());
        }
        let base = self.groups[group] as usize + offset;
        let set = &mut self.ways[base..base + self.cfg.ways];
        // Already present (e.g. a prefetch raced a demand fill): refresh.
        for way in set.iter_mut() {
            if way.epoch == epoch && way.tag == line {
                way.lru = clock;
                return None;
            }
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.epoch == epoch { w.lru } else { 0 })
            .expect("ways > 0");
        let evicted = (victim.epoch == epoch).then_some(victim.tag);
        *victim = Way { tag: line, lru: clock, epoch };
        evicted
    }

    fn prune_inflight(&mut self, now: u64) {
        while let Some(&(_, done)) = self.inflight.front() {
            if done <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Accounts a miss for `line` that will be filled by `fill_done`.
    ///
    /// Returns the actual completion cycle after MSHR constraints:
    /// * if the line is already outstanding, the request merges and
    ///   completes with the existing miss;
    /// * if all MSHRs are busy, the request is delayed until one frees.
    pub fn track_miss(&mut self, line: u64, now: u64, fill_done: u64) -> u64 {
        self.prune_inflight(now);
        if let Some(&(_, done)) = self.inflight.iter().find(|(l, _)| *l == line) {
            self.stats.mshr_merges += 1;
            return done;
        }
        let mut start = now;
        if self.inflight.len() >= self.cfg.mshrs {
            // Wait for the oldest outstanding miss to retire its MSHR.
            let free_at = self.inflight[self.inflight.len() - self.cfg.mshrs].1;
            self.stats.mshr_stall_cycles += free_at.saturating_sub(now);
            start = free_at;
        }
        let done = fill_done + (start - now);
        // Keep completion order sorted so pruning stays correct.
        let pos = self.inflight.partition_point(|&(_, d)| d <= done);
        self.inflight.insert(pos, (line, done));
        self.stats.misses += 1;
        done
    }

    /// Records a demand hit.
    pub fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Records a prefetch fill.
    pub fn note_prefetch_fill(&mut self) {
        self.stats.prefetch_fills += 1;
    }

    /// Hit latency of this level.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig { size_bytes: 4 * 64 * 2, ways: 2, hit_latency: 3, mshrs: 2 })
    }

    #[test]
    fn config_sets() {
        let c = CacheConfig { size_bytes: 48 * 1024, ways: 12, hit_latency: 5, mshrs: 64 };
        assert_eq!(c.sets(), 64, "48KB/12-way/64B lines = 64 sets (Alder Lake L1D)");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_bad_geometry() {
        let c = CacheConfig { size_bytes: 48 * 1024, ways: 10, hit_latency: 5, mshrs: 64 };
        let _ = c.sets();
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.probe(100));
        c.fill(100);
        assert!(c.probe(100));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(); // 4 sets, 2 ways
        // Lines 0, 4, 8 all map to set 0.
        c.fill(0);
        c.fill(4);
        assert!(c.probe(0), "refresh line 0");
        let evicted = c.fill(8);
        assert_eq!(evicted, Some(4), "line 4 is LRU");
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn mshr_merge_returns_same_completion() {
        let mut c = small();
        let d1 = c.track_miss(100, 10, 110);
        let d2 = c.track_miss(100, 12, 130);
        assert_eq!(d1, 110);
        assert_eq!(d2, 110, "second request merges into the outstanding miss");
        assert_eq!(c.stats().mshr_merges, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn mshr_exhaustion_delays() {
        let mut c = small(); // 2 MSHRs
        let d1 = c.track_miss(1, 0, 100);
        let _d2 = c.track_miss(2, 0, 100);
        let d3 = c.track_miss(3, 0, 100);
        assert_eq!(d1, 100);
        assert!(d3 > 100, "third concurrent miss must wait for an MSHR");
        assert!(c.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn mshrs_free_over_time() {
        let mut c = small();
        c.track_miss(1, 0, 50);
        c.track_miss(2, 0, 50);
        // At cycle 60, both are done; a new miss proceeds immediately.
        let d = c.track_miss(3, 60, 160);
        assert_eq!(d, 160);
    }

    #[test]
    fn fill_of_present_line_evicts_nothing() {
        let mut c = small();
        c.fill(0);
        assert_eq!(c.fill(0), None);
    }

    /// Drives `c` with a mixed probe/fill/miss stream over `span` lines and
    /// logs every observable outcome.
    fn drive(c: &mut Cache, span: u64) -> (Vec<(bool, Option<u64>, u64)>, CacheStats) {
        let mut log = Vec::new();
        for i in 0..4 * span {
            let hit = c.probe((i * 3) % span);
            if hit {
                c.note_hit();
            }
            let evicted = if i % 2 == 0 { c.fill(i % span) } else { None };
            let done = c.track_miss(i % 8, i, i + 50);
            log.push((hit, evicted, done));
        }
        (log, *c.stats())
    }

    /// A dirtied-then-reset cache must be observably identical to a fresh
    /// one: same hits, same victims, same MSHR timing, same stats. The
    /// lane batch recycles tag storage on the strength of this.
    #[test]
    fn reset_equivalence() {
        let mut fresh = small();
        let mut recycled = small();
        // Dirty every set, the LRU clock, the MSHRs and the stats.
        for i in 0..200u64 {
            recycled.probe(i);
            recycled.fill(i * 7);
            recycled.track_miss(i, i, i + 90);
        }
        recycled.reset();
        assert_eq!(drive(&mut fresh, 24), drive(&mut recycled, 24));
    }

    /// A dirtied cache and its clone must be observably identical: warm
    /// snapshots are clones, and clones copy only the allocated groups.
    /// The stream reaches groups the dirtying never touched, so both
    /// copies allocate them on the way.
    #[test]
    fn clone_equivalence() {
        // 128 sets x 2 ways: eight 16-set groups.
        let cfg = CacheConfig { size_bytes: 128 * 64 * 2, ways: 2, hit_latency: 3, mshrs: 2 };
        let mut original = Cache::new(cfg);
        for i in 0..300u64 {
            original.probe(i % 40);
            original.fill((i * 7) % 40);
            original.track_miss(i, i, i + 90);
        }
        let mut copy = original.clone();
        assert_eq!(drive(&mut original, 120), drive(&mut copy, 120));
    }

    /// A probe of a group no fill has reached is a miss and allocates
    /// nothing; a new cache holds only its group directory.
    #[test]
    fn tag_storage_follows_fills() {
        let cfg = CacheConfig { size_bytes: 128 * 64 * 2, ways: 2, hit_latency: 3, mshrs: 2 };
        let mut c = Cache::new(cfg);
        assert!(c.ways.is_empty());
        assert!(!c.probe(5));
        assert!(c.ways.is_empty(), "a probe allocates nothing");
        c.fill(5);
        c.fill(6);
        assert_eq!(c.ways.len(), GROUP_SETS * 2, "one group per touched 16 sets");
        c.fill(5 + 16);
        assert_eq!(c.ways.len(), 2 * GROUP_SETS * 2);
        assert!(c.probe(5) && c.probe(6) && c.probe(21));
    }
}
