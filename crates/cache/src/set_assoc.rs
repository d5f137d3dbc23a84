//! Set-associative cache with pluggable replacement.
//!
//! The line array lives behind an `Arc` so snapshots and forks of a
//! warmed cache are O(1): clones share the array, and the first write on
//! either side copies it (`Arc::make_mut`). That first write copies the
//! whole array, so it still costs O(cache size).
//!
//! Each line is two `u64` words (16 bytes), encoded so that the empty
//! line is all zero bits: the tag word is 0 for an invalid way and
//! `tag + 1` for a valid one, and the meta word holds the LRU stamp, the
//! dirty bit and `RRPV_MAX - rrpv`. `vec![[0; 2]; n]` therefore asks the
//! allocator for zeroed memory, which it takes from fresh zero pages that
//! nobody writes. An empty cache costs no pages until a set is touched,
//! so building even a 128 MB LLC writes nothing. All of this is safe
//! code: std's `vec!` recognises the all-zero element by itself.

use std::sync::Arc;

use impact_core::addr::PhysAddr;
use impact_core::config::{CacheLevelConfig, ReplacementKind};
use impact_core::snapshot::Snapshot;
use impact_core::time::Cycles;

/// Maximum re-reference prediction value for 2-bit SRRIP.
const RRPV_MAX: u64 = 3;
/// Insertion RRPV for SRRIP ("long re-reference interval").
const RRPV_INSERT: u64 = 2;

/// One line: `[tag word, meta word]`; all zero bits is the empty line.
///
/// The tag word is `tag + 1` for a valid line. It cannot overflow:
/// `new` asserts `line_bytes * sets >= 2`, so a tag is at most
/// `u64::MAX / 2` (`u64::MAX / 64` with the 64-byte lines every
/// configuration uses).
///
/// The meta word is `stamp << STAMP_SHIFT | dirty * DIRTY | (RRPV_MAX - rrpv)`.
/// The stamp is the level's access count, so the shift loses its top bits
/// only after 2^61 accesses, 73 years at one access per nanosecond.
type Line = [u64; 2];

/// Meta-word bits holding `RRPV_MAX - rrpv`: 0 is a line whose RRPV has
/// reached `RRPV_MAX`, as an empty way's has.
const RRPV_BITS: u64 = 0b11;
/// Meta-word dirty bit.
const DIRTY: u64 = 0b100;
/// Meta-word position of the LRU stamp (higher = more recent).
const STAMP_SHIFT: u32 = 3;

/// Meta word of a line stamped `stamp` with the given dirty bit and RRPV.
fn meta(stamp: u64, dirty: bool, rrpv: u64) -> u64 {
    (stamp << STAMP_SHIFT) | (DIRTY * u64::from(dirty)) | (RRPV_MAX - rrpv)
}

/// A line evicted from a cache (victim of a fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned physical address of the victim.
    pub addr: PhysAddr,
    /// Whether the victim was dirty (needs a write-back to memory).
    pub dirty: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Victim evicted to make room on a miss-fill, if any.
    pub evicted: Option<EvictedLine>,
}

/// A set-associative cache level.
///
/// Addresses are physical; the cache operates on line-aligned addresses.
///
/// # Example
///
/// ```
/// use impact_cache::SetAssocCache;
/// use impact_core::config::{CacheLevelConfig, ReplacementKind};
/// use impact_core::addr::PhysAddr;
///
/// let cfg = CacheLevelConfig {
///     size_bytes: 4096,
///     ways: 4,
///     line_bytes: 64,
///     latency_cycles: 4,
///     replacement: ReplacementKind::Lru,
/// };
/// let mut c = SetAssocCache::new(cfg);
/// assert!(!c.access(PhysAddr(0), false).hit);
/// assert!(c.access(PhysAddr(0), false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheLevelConfig,
    sets: u64,
    lines: Arc<Vec<Line>>,
    tick: u64,
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets, or a single set of
    /// one-byte lines (whose tags would fill all 64 bits).
    #[must_use]
    pub fn new(cfg: CacheLevelConfig) -> SetAssocCache {
        let sets = cfg.sets();
        assert!(
            sets * u64::from(cfg.line_bytes) >= 2,
            "cache must span at least two bytes per way"
        );
        SetAssocCache {
            cfg,
            sets,
            lines: Arc::new(vec![[0; 2]; (sets * u64::from(cfg.ways)) as usize]),
            tick: 0,
        }
    }

    /// Configuration of this level.
    #[must_use]
    pub fn config(&self) -> &CacheLevelConfig {
        &self.cfg
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        self.sets
    }

    /// Access latency of this level.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        Cycles(self.cfg.latency_cycles)
    }

    /// Set index for an address.
    #[must_use]
    pub fn set_index(&self, addr: PhysAddr) -> u64 {
        (addr.0 / u64::from(self.cfg.line_bytes)) % self.sets
    }

    /// Tag word a valid line holding `addr` carries (never 0; see [`Line`]).
    fn tag_word(&self, addr: PhysAddr) -> u64 {
        (addr.0 / u64::from(self.cfg.line_bytes)) / self.sets + 1
    }

    /// Line-aligned address of the valid line with tag word `tag_word` in
    /// `set`.
    fn addr_of(&self, set: u64, tag_word: u64) -> PhysAddr {
        PhysAddr(((tag_word - 1) * self.sets + set) * u64::from(self.cfg.line_bytes))
    }

    /// The lines of `set` for mutation: copies the whole array first if a
    /// snapshot or fork still shares it.
    fn set_slice_mut(&mut self, set: u64) -> &mut [Line] {
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        // analyze::allow(cow-aliasing): sole unshare point for the line
        // array; every mutation funnels through here, so a shared fork
        // gets its own copy before the first write
        &mut Arc::make_mut(&mut self.lines)[base..base + ways]
    }

    fn set_slice(&self, set: u64) -> &[Line] {
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        &self.lines[base..base + ways]
    }

    /// True if the line is currently cached (no state change).
    #[must_use]
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let tag_word = self.tag_word(addr);
        self.set_slice(self.set_index(addr))
            .iter()
            .any(|l| l[0] == tag_word)
    }

    /// Accesses a line, filling it on a miss; returns hit/miss and any
    /// victim evicted by the fill.
    pub fn access(&mut self, addr: PhysAddr, write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        let tag_word = self.tag_word(addr);
        let repl = self.cfg.replacement;
        let lines = self.set_slice_mut(set);

        // Hit path: SRRIP promotes the line to RRPV 0.
        if let Some(line) = lines.iter_mut().find(|l| l[0] == tag_word) {
            line[1] = meta(tick, write || line[1] & DIRTY != 0, 0);
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }

        // Miss: fill a victim way.
        let way = choose_victim(lines, repl);
        let victim = std::mem::replace(&mut lines[way], [tag_word, meta(tick, write, RRPV_INSERT)]);
        AccessResult {
            hit: false,
            evicted: (victim[0] != 0).then(|| EvictedLine {
                addr: self.addr_of(set, victim[0]),
                dirty: victim[1] & DIRTY != 0,
            }),
        }
    }

    /// Fills a line without counting as a demand access (prefetch fill).
    pub fn fill(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
        let r = self.access(addr, false);
        r.evicted
    }

    /// Invalidates (flushes) a line if present, returning it.
    ///
    /// Models `clflush`: the line is removed from this level; the caller is
    /// responsible for charging any write-back latency if the line was
    /// dirty.
    pub fn flush(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
        let set = self.set_index(addr);
        let tag_word = self.tag_word(addr);
        let line = self
            .set_slice_mut(set)
            .iter_mut()
            .find(|l| l[0] == tag_word)?;
        let dirty = line[1] & DIRTY != 0;
        *line = [0; 2];
        Some(EvictedLine {
            addr: self.addr_of(set, tag_word),
            dirty,
        })
    }

    /// Addresses currently resident in the set containing `addr`
    /// (test/diagnostic aid).
    #[must_use]
    pub fn resident_in_set(&self, addr: PhysAddr) -> Vec<PhysAddr> {
        let set = self.set_index(addr);
        self.set_slice(set)
            .iter()
            .filter(|l| l[0] != 0)
            .map(|l| self.addr_of(set, l[0]))
            .collect()
    }

    /// Clears all lines by installing a fresh zeroed array, leaving any
    /// snapshot or fork that shares the old one untouched.
    pub fn reset(&mut self) {
        self.lines = Arc::new(vec![[0; 2]; self.lines.len()]);
        self.tick = 0;
    }
}

/// Way of `set` to fill on a miss: an invalid way if there is one, else
/// the policy's victim. SRRIP ages the set until a victim appears.
fn choose_victim(set: &mut [Line], repl: ReplacementKind) -> usize {
    if let Some(way) = set.iter().position(|l| l[0] == 0) {
        return way;
    }
    match repl {
        ReplacementKind::Lru => set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l[1] >> STAMP_SHIFT)
            .map(|(i, _)| i)
            .expect("non-empty set"),
        ReplacementKind::Srrip => loop {
            if let Some(way) = set.iter().position(|l| l[1] & RRPV_BITS == 0) {
                return way;
            }
            // Every way's RRPV is below the maximum (its bits are >= 1),
            // so aging is a decrement that never borrows from the dirty bit.
            for l in set.iter_mut() {
                l[1] -= 1;
            }
        },
    }
}

impl Snapshot for SetAssocCache {
    /// The cache is its own snapshot: clones share the line array `Arc`.
    type Snap = SetAssocCache;

    fn snapshot(&self) -> SetAssocCache {
        self.clone()
    }

    fn restore(&mut self, snap: &SetAssocCache) {
        self.lines = Arc::clone(&snap.lines);
        self.tick = snap.tick;
    }

    fn fork(&self) -> SetAssocCache {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ways: u32, repl: ReplacementKind) -> CacheLevelConfig {
        CacheLevelConfig {
            size_bytes: u64::from(ways) * 64 * 4, // 4 sets
            ways,
            line_bytes: 64,
            latency_cycles: 10,
            replacement: repl,
        }
    }

    /// Returns `n` distinct line addresses all mapping to the same set as
    /// `base`.
    fn congruent(cache: &SetAssocCache, base: PhysAddr, n: usize) -> Vec<PhysAddr> {
        let stride = cache.num_sets() * 64;
        (1..=n as u64)
            .map(|i| PhysAddr(base.0 + i * stride))
            .collect()
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(cfg(4, ReplacementKind::Lru));
        let a = PhysAddr(0x1000);
        assert!(!c.access(a, false).hit);
        assert!(c.access(a, false).hit);
        assert!(c.probe(a));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let a = PhysAddr(0);
        let others = congruent(&c, a, 2);
        c.access(a, false);
        c.access(others[0], false);
        // Touch `a` so others[0] is LRU.
        c.access(a, false);
        let r = c.access(others[1], false);
        assert_eq!(
            r.evicted,
            Some(EvictedLine {
                addr: others[0],
                dirty: false
            })
        );
        assert!(c.probe(a));
        assert!(!c.probe(others[0]));
    }

    #[test]
    fn srrip_scan_resistance() {
        // A hot line re-referenced between scans should survive a one-pass
        // scan of the set under SRRIP.
        let mut c = SetAssocCache::new(cfg(4, ReplacementKind::Srrip));
        let hot = PhysAddr(0);
        c.access(hot, false);
        c.access(hot, false); // rrpv -> 0
        let scan = congruent(&c, hot, 6);
        for &s in &scan {
            c.access(s, false);
        }
        assert!(c.probe(hot), "hot line evicted by scan under SRRIP");
    }

    #[test]
    fn flush_removes_line() {
        let mut c = SetAssocCache::new(cfg(4, ReplacementKind::Lru));
        let a = PhysAddr(0x40);
        c.access(a, true);
        let flushed = c.flush(a).expect("line was resident");
        assert!(flushed.dirty);
        assert!(!c.probe(a));
        assert_eq!(c.flush(a), None);
    }

    #[test]
    fn dirty_writeback_on_eviction() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let a = PhysAddr(0);
        let others = congruent(&c, a, 2);
        c.access(a, true); // dirty
        c.access(others[0], false);
        let r = c.access(others[1], false);
        let ev = r.evicted.expect("must evict");
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
    }

    #[test]
    fn set_index_partitions_addresses() {
        let c = SetAssocCache::new(cfg(4, ReplacementKind::Lru));
        // 4 sets: consecutive lines land in consecutive sets.
        assert_eq!(c.set_index(PhysAddr(0)), 0);
        assert_eq!(c.set_index(PhysAddr(64)), 1);
        assert_eq!(c.set_index(PhysAddr(64 * 4)), 0);
    }

    #[test]
    fn resident_in_set_reports_contents() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let a = PhysAddr(0);
        c.access(a, false);
        let others = congruent(&c, a, 1);
        c.access(others[0], false);
        let mut resident = c.resident_in_set(a);
        resident.sort();
        assert_eq!(resident, vec![a, others[0]]);
    }

    #[test]
    fn reset_clears() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        c.access(PhysAddr(0), false);
        c.reset();
        assert!(!c.probe(PhysAddr(0)));
    }

    #[test]
    fn fill_behaves_like_clean_access() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let a = PhysAddr(0x80);
        assert_eq!(c.fill(a), None);
        assert!(c.probe(a));
    }

    #[test]
    fn address_zero_is_not_an_empty_way() {
        for repl in [ReplacementKind::Lru, ReplacementKind::Srrip] {
            let mut c = SetAssocCache::new(cfg(4, repl));
            let zero = PhysAddr(0);
            assert!(!c.probe(zero), "empty way read as tag 0 in set 0");
            assert_eq!(c.flush(zero), None);
            assert!(c.resident_in_set(zero).is_empty());
            assert_eq!(
                c.access(zero, false),
                AccessResult {
                    hit: false,
                    evicted: None
                }
            );
            assert!(c.access(zero, false).hit);
            assert_eq!(c.resident_in_set(zero), vec![zero]);
        }
    }

    #[test]
    fn highest_line_round_trips_through_eviction() {
        let mut c = SetAssocCache::new(cfg(2, ReplacementKind::Lru));
        let top = PhysAddr(u64::MAX).line_aligned();
        let stride = c.num_sets() * 64;
        c.access(top, true);
        assert_eq!(c.resident_in_set(top), vec![top]);
        c.access(PhysAddr(top.0 - stride), false);
        let r = c.access(PhysAddr(top.0 - 2 * stride), false);
        assert_eq!(
            r.evicted,
            Some(EvictedLine {
                addr: top,
                dirty: true
            })
        );
        c.access(top, false);
        assert_eq!(
            c.flush(top),
            Some(EvictedLine {
                addr: top,
                dirty: false
            })
        );
    }

    #[test]
    fn reset_on_either_side_of_a_fork_spares_the_other() {
        let lines = [PhysAddr(0), PhysAddr(0x40), PhysAddr(0x1000)];
        let mut parent = SetAssocCache::new(cfg(2, ReplacementKind::Srrip));
        for &a in &lines {
            parent.access(a, true);
        }

        let mut child = parent.fork();
        child.reset();
        assert!(lines.iter().all(|&a| parent.probe(a)));
        assert!(lines.iter().all(|&a| !child.probe(a)));

        let child = parent.fork();
        parent.reset();
        assert!(lines.iter().all(|&a| child.probe(a)));
        assert!(lines.iter().all(|&a| !parent.probe(a)));
    }
}

/// The struct-array cache that the zero-page line encoding replaced, kept
/// as the reference model the equivalence proptest compares against. A
/// clone is a deep copy, which is what a copy-on-write fork must look like.
#[cfg(test)]
mod reference {
    use impact_core::addr::PhysAddr;
    use impact_core::config::{CacheLevelConfig, ReplacementKind};

    use super::{AccessResult, EvictedLine};

    const RRPV_MAX: u8 = 3;
    const RRPV_INSERT: u8 = 2;

    #[derive(Debug, Clone, Copy)]
    struct LineMeta {
        tag: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
        rrpv: u8,
    }

    const EMPTY: LineMeta = LineMeta {
        tag: 0,
        valid: false,
        dirty: false,
        stamp: 0,
        rrpv: RRPV_MAX,
    };

    #[derive(Debug, Clone)]
    pub(super) struct RefCache {
        cfg: CacheLevelConfig,
        sets: u64,
        lines: Vec<LineMeta>,
        tick: u64,
    }

    impl RefCache {
        pub(super) fn new(cfg: CacheLevelConfig) -> RefCache {
            let sets = cfg.sets();
            RefCache {
                cfg,
                sets,
                lines: vec![EMPTY; (sets * u64::from(cfg.ways)) as usize],
                tick: 0,
            }
        }

        fn set_index(&self, addr: PhysAddr) -> u64 {
            (addr.0 / u64::from(self.cfg.line_bytes)) % self.sets
        }

        fn tag_of(&self, addr: PhysAddr) -> u64 {
            (addr.0 / u64::from(self.cfg.line_bytes)) / self.sets
        }

        fn addr_of(&self, set: u64, tag: u64) -> PhysAddr {
            PhysAddr((tag * self.sets + set) * u64::from(self.cfg.line_bytes))
        }

        fn set_slice(&mut self, set: u64) -> &mut [LineMeta] {
            let ways = self.cfg.ways as usize;
            let base = set as usize * ways;
            &mut self.lines[base..base + ways]
        }

        pub(super) fn probe(&mut self, addr: PhysAddr) -> bool {
            let tag = self.tag_of(addr);
            self.set_slice(self.set_index(addr))
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        pub(super) fn access(&mut self, addr: PhysAddr, write: bool) -> AccessResult {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(addr);
            let tag = self.tag_of(addr);
            let repl = self.cfg.replacement;
            if let Some(line) = self
                .set_slice(set)
                .iter_mut()
                .find(|l| l.valid && l.tag == tag)
            {
                line.stamp = tick;
                line.rrpv = 0;
                line.dirty |= write;
                return AccessResult {
                    hit: true,
                    evicted: None,
                };
            }
            let way = self.choose_victim(set, repl);
            let victim = self.set_slice(set)[way];
            let evicted = victim.valid.then(|| EvictedLine {
                addr: self.addr_of(set, victim.tag),
                dirty: victim.dirty,
            });
            self.set_slice(set)[way] = LineMeta {
                tag,
                valid: true,
                dirty: write,
                stamp: tick,
                rrpv: RRPV_INSERT,
            };
            AccessResult {
                hit: false,
                evicted,
            }
        }

        pub(super) fn fill(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
            self.access(addr, false).evicted
        }

        pub(super) fn flush(&mut self, addr: PhysAddr) -> Option<EvictedLine> {
            let set = self.set_index(addr);
            let tag = self.tag_of(addr);
            let line = self
                .set_slice(set)
                .iter_mut()
                .find(|l| l.valid && l.tag == tag)?;
            let dirty = line.dirty;
            *line = EMPTY;
            Some(EvictedLine {
                addr: self.addr_of(set, tag),
                dirty,
            })
        }

        pub(super) fn resident_in_set(&mut self, addr: PhysAddr) -> Vec<PhysAddr> {
            let set = self.set_index(addr);
            let tags: Vec<u64> = self
                .set_slice(set)
                .iter()
                .filter(|l| l.valid)
                .map(|l| l.tag)
                .collect();
            tags.into_iter().map(|t| self.addr_of(set, t)).collect()
        }

        pub(super) fn reset(&mut self) {
            self.lines.fill(EMPTY);
            self.tick = 0;
        }

        fn choose_victim(&mut self, set: u64, repl: ReplacementKind) -> usize {
            let lines = self.set_slice(set);
            if let Some(way) = lines.iter().position(|l| !l.valid) {
                return way;
            }
            match repl {
                ReplacementKind::Lru => lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .map(|(i, _)| i)
                    .expect("non-empty set"),
                ReplacementKind::Srrip => loop {
                    if let Some(way) = lines.iter().position(|l| l.rrpv >= RRPV_MAX) {
                        return way;
                    }
                    for l in lines.iter_mut() {
                        l.rrpv = (l.rrpv + 1).min(RRPV_MAX);
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::RefCache;
    use super::*;
    use proptest::prelude::*;

    /// `(ways, sets)` of the geometries the reference comparison covers,
    /// each under LRU and SRRIP.
    const GEOMETRIES: [(u32, u64); 6] = [(1, 4), (2, 1), (4, 4), (8, 16), (16, 1), (16, 4)];

    /// Runs `ops` on instances of both the cache and the reference: each op
    /// `(kind, raw address, high half, target instance)` accesses, fills,
    /// flushes, probes, lists a set, resets, or forks the target (restoring
    /// it from another instance's snapshot once four exist). Every result
    /// must be equal, and every set must end with the same lines in the
    /// same ways.
    fn check_against_reference(
        cfg: CacheLevelConfig,
        ops: &[(u8, u64, bool, usize)],
    ) -> TestCaseResult {
        let mut caches = vec![(SetAssocCache::new(cfg), RefCache::new(cfg))];
        let sets = cfg.sets();
        let pool = 3 * sets * u64::from(cfg.ways);
        let top = PhysAddr(u64::MAX).line_aligned().0;
        for &(op, raw, high, target) in ops {
            let line = (raw % pool) * 64;
            let offset = (raw >> 10) % 64;
            let addr = PhysAddr(if high { top - line } else { line } + offset);
            let n = caches.len();
            let (c, r) = &mut caches[target % n];
            match op {
                0..=5 => {
                    let write = op >= 4;
                    prop_assert_eq!(
                        c.access(addr, write),
                        r.access(addr, write),
                        "access {}",
                        addr
                    );
                }
                6 => prop_assert_eq!(c.fill(addr), r.fill(addr), "fill {}", addr),
                7 => prop_assert_eq!(c.flush(addr), r.flush(addr), "flush {}", addr),
                8 => prop_assert_eq!(c.probe(addr), r.probe(addr), "probe {}", addr),
                9 => prop_assert_eq!(c.resident_in_set(addr), r.resident_in_set(addr)),
                10 if n < 4 => {
                    let fork = (c.fork(), r.clone());
                    caches.push(fork);
                }
                10 => {
                    let (snap, ref_snap) = {
                        let (c, r) = &caches[(target + 1) % n];
                        (c.snapshot(), r.clone())
                    };
                    let (c, r) = &mut caches[target % n];
                    c.restore(&snap);
                    *r = ref_snap;
                }
                _ => {
                    c.reset();
                    r.reset();
                }
            }
        }
        for (c, r) in &mut caches {
            for set in 0..sets {
                let addr = PhysAddr(set * 64);
                prop_assert_eq!(
                    c.resident_in_set(addr),
                    r.resident_in_set(addr),
                    "set {}",
                    set
                );
            }
        }
        Ok(())
    }

    fn small_cache() -> SetAssocCache {
        SetAssocCache::new(CacheLevelConfig {
            size_bytes: 4 * 64 * 4, // 4 sets x 4 ways
            ways: 4,
            line_bytes: 64,
            latency_cycles: 1,
            replacement: ReplacementKind::Lru,
        })
    }

    proptest! {
        /// Occupancy invariant: a set never holds more lines than ways,
        /// and the most recently accessed line is always resident.
        #[test]
        fn capacity_and_mru_residency(addrs in prop::collection::vec(0u64..4096, 1..200)) {
            let mut c = small_cache();
            for a in addrs {
                let a = PhysAddr(a).line_aligned();
                c.access(a, false);
                prop_assert!(c.probe(a), "MRU line {a} evicted");
                prop_assert!(c.resident_in_set(a).len() <= 4);
            }
        }

        /// Flush is precise: it removes exactly the requested line.
        #[test]
        fn flush_is_precise(addrs in prop::collection::vec(0u64..2048, 2..50)) {
            let mut c = small_cache();
            let lines: Vec<PhysAddr> =
                addrs.iter().map(|&a| PhysAddr(a).line_aligned()).collect();
            for &a in &lines {
                c.access(a, false);
            }
            let victim = lines[0];
            let resident_before: Vec<PhysAddr> = lines
                .iter()
                .copied()
                .filter(|&l| l != victim && c.probe(l))
                .collect();
            c.flush(victim);
            prop_assert!(!c.probe(victim));
            for l in resident_before {
                prop_assert!(c.probe(l), "flush evicted bystander {l}");
            }
        }

        /// The zero-page line encoding behaves exactly like the struct-array
        /// reference at every geometry and policy (see
        /// `check_against_reference`).
        #[test]
        fn matches_struct_array_reference(
            ops in prop::collection::vec((0u8..12, 0u64..1 << 16, any::<bool>(), 0usize..4), 1..400),
        ) {
            for (ways, sets) in GEOMETRIES {
                for replacement in [ReplacementKind::Lru, ReplacementKind::Srrip] {
                    let cfg = CacheLevelConfig {
                        size_bytes: u64::from(ways) * sets * 64,
                        ways,
                        line_bytes: 64,
                        latency_cycles: 1,
                        replacement,
                    };
                    check_against_reference(cfg, &ops)?;
                }
            }
        }

        /// Under LRU, filling a set with `ways` fresh lines evicts
        /// everything older, deterministically.
        #[test]
        fn lru_eviction_is_deterministic(base in 0u64..256) {
            let mut c = small_cache();
            let base = PhysAddr(base * 64);
            let stride = c.num_sets() * 64;
            c.access(base, false);
            for i in 1..=4u64 {
                c.access(PhysAddr(base.0 + i * stride), false);
            }
            prop_assert!(!c.probe(base), "LRU kept the oldest line");
        }
    }
}
