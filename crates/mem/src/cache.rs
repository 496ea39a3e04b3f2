//! A set-associative tag-only cache timing model.

use std::fmt;

use csb_isa::Addr;
use serde::Serialize;

/// Configuration of one cache level. The default is the zero geometry,
/// which [`CacheConfig::validate`] rejects: it marks a blank [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Access latency in CPU cycles charged on a hit at this level.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// A 32 KiB, 2-way, 1-cycle L1 with the given line size.
    pub fn l1_default(line: usize) -> Self {
        CacheConfig {
            size: 32 * 1024,
            assoc: 2,
            line,
            hit_latency: 1,
        }
    }

    /// A 1 MiB, 4-way, 10-cycle L2 with the given line size.
    pub fn l2_default(line: usize) -> Self {
        CacheConfig {
            size: 1024 * 1024,
            assoc: 4,
            line,
            hit_latency: 10,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] unless size, associativity, and line are
    /// nonzero, line and set count are powers of two, and
    /// `size = sets * assoc * line` is satisfiable.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.size == 0 || self.assoc == 0 || self.line == 0 {
            return Err(CacheConfigError::Zero);
        }
        if !self.line.is_power_of_two() {
            return Err(CacheConfigError::LineNotPow2(self.line));
        }
        if !self.size.is_multiple_of(self.assoc * self.line) {
            return Err(CacheConfigError::Indivisible {
                size: self.size,
                assoc: self.assoc,
                line: self.line,
            });
        }
        let sets = self.size / (self.assoc * self.line);
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPow2(sets));
        }
        Ok(())
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size / (self.assoc * self.line)
    }
}

/// Invalid [`CacheConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Size, associativity, or line size was zero.
    Zero,
    /// Line size is not a power of two.
    LineNotPow2(usize),
    /// Size is not divisible by `assoc * line`.
    Indivisible {
        /// Cache size.
        size: usize,
        /// Associativity.
        assoc: usize,
        /// Line size.
        line: usize,
    },
    /// The implied set count is not a power of two.
    SetsNotPow2(usize),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::Zero => f.write_str("cache size, assoc, and line must be nonzero"),
            CacheConfigError::LineNotPow2(l) => write!(f, "line size {l} is not a power of two"),
            CacheConfigError::Indivisible { size, assoc, line } => {
                write!(
                    f,
                    "cache size {size} not divisible by assoc {assoc} * line {line}"
                )
            }
            CacheConfigError::SetsNotPow2(s) => write!(f, "set count {s} is not a power of two"),
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Per-cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty lines evicted.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 if no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One level of set-associative, write-allocate, write-back cache
/// (tags and timing only; data lives in [`crate::FlatMemory`]).
/// `Cache::default()` is a blank with no sets, which only a
/// [`crate::MemoryHierarchy::reset_with`] replaces by a cache.
///
/// # Examples
///
/// ```
/// use csb_isa::Addr;
/// use csb_mem::{Cache, CacheConfig};
///
/// # fn main() -> Result<(), csb_mem::CacheConfigError> {
/// let mut l1 = Cache::new(CacheConfig::l1_default(64))?;
/// assert!(!l1.lookup(Addr::new(0x1000), false)); // cold miss
/// l1.fill(Addr::new(0x1000), false);
/// assert!(l1.lookup(Addr::new(0x1038), false)); // same line hits
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line state, set-major: way `w` of set `s` is index `s * assoc + w`.
    /// Zero-initialised storage is an all-invalid cache that the OS maps
    /// in lazily, page by page, as sets are first touched.
    tags: Vec<u64>,
    /// A line is valid iff its epoch matches the cache's current epoch
    /// (see [`Cache::clear`]); epoch 0 never matches a live cache.
    epochs: Vec<u64>,
    lrus: Vec<u64>,
    dirty: Vec<bool>,
    epoch: u64,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] for invalid geometry.
    pub fn new(cfg: CacheConfig) -> Result<Self, CacheConfigError> {
        cfg.validate()?;
        let lines = cfg.sets() * cfg.assoc;
        Ok(Cache {
            cfg,
            tags: vec![0; lines],
            epochs: vec![0; lines],
            lrus: vec![0; lines],
            dirty: vec![false; lines],
            epoch: 1,
            tick: 0,
            stats: CacheStats::default(),
        })
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Invalidates every line and zeroes the statistics in place, keeping
    /// the set storage — indistinguishable from a fresh cache without any
    /// allocator traffic (the simulator's warm-reset path).
    ///
    /// O(1): validity is epoch-tagged, so bumping the cache epoch retires
    /// every resident line at once instead of sweeping the set arrays
    /// (the L2's ~16K lines would otherwise dominate a short point's
    /// warm-reset cost).
    pub fn clear(&mut self) {
        self.epoch += 1;
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn index(&self, addr: Addr) -> (usize, u64) {
        let line_addr = addr.raw() / self.cfg.line as u64;
        let set = (line_addr % self.cfg.sets() as u64) as usize;
        let tag = line_addr / self.cfg.sets() as u64;
        (set, tag)
    }

    /// The storage indices of `set`'s ways, in way order.
    fn ways(&self, set: usize) -> std::ops::Range<usize> {
        set * self.cfg.assoc..(set + 1) * self.cfg.assoc
    }

    /// The storage index of the valid line holding `tag` in `set`.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.ways(set)
            .find(|&i| self.epochs[i] == self.epoch && self.tags[i] == tag)
    }

    /// Looks up `addr`; on a hit updates LRU (and the dirty bit if `write`)
    /// and returns `true`. On a miss returns `false` without allocating.
    pub fn lookup(&mut self, addr: Addr, write: bool) -> bool {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        if let Some(i) = self.find(set, tag) {
            self.lrus[i] = self.tick;
            self.dirty[i] |= write;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Fills the line containing `addr`, evicting the LRU way. Returns `true`
    /// if a dirty line was evicted (a writeback).
    pub fn fill(&mut self, addr: Addr, write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let epoch = self.epoch;
        let victim = self
            .ways(set)
            .min_by_key(|&i| {
                if self.epochs[i] == epoch {
                    self.lrus[i]
                } else {
                    0
                }
            })
            .expect("associativity is nonzero");
        let wb = self.epochs[victim] == epoch && self.dirty[victim];
        if wb {
            self.stats.writebacks += 1;
        }
        self.tags[victim] = tag;
        self.epochs[victim] = epoch;
        self.dirty[victim] = write;
        self.lrus[victim] = tick;
        wb
    }

    /// Walks the resident lines, LRU clock, and statistics. Only lines
    /// valid in the current epoch are visited (as explicit `(set, way)`
    /// coordinates), so the byte stream is independent of how many stale
    /// lines past epochs left behind — two caches with identical
    /// observable state snapshot identically. A restore reads into an
    /// empty cache of the same geometry (fresh, or after
    /// [`Cache::clear`]) and reinstalls the valid lines at their exact way
    /// indices; everything else is invalid, exactly as in the snapshotted
    /// cache (invalid ways tie-break victim selection by position, so
    /// their stale contents are behaviorally invisible).
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream or line
    /// coordinates outside this cache's geometry.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        s.tag("cache")?;
        s.u64(&mut self.tick)?;
        s.u64(&mut self.stats.hits)?;
        s.u64(&mut self.stats.misses)?;
        s.u64(&mut self.stats.writebacks)?;
        let assoc = self.cfg.assoc;
        let mut lines: Vec<usize> = (0..self.epochs.len())
            .filter(|&i| self.epochs[i] == self.epoch)
            .collect();
        let max = self.tags.len();
        s.list(&mut lines, max, "cache lines", 0, |s, i| {
            let (mut set, mut way) = ((*i / assoc) as u32, (*i % assoc) as u32);
            s.u32(&mut set)?;
            s.u32(&mut way)?;
            let (set, way) = (set as usize, way as usize);
            if s.reading() && (set >= self.cfg.sets() || way >= assoc) {
                return Err(csb_snap::SnapshotError::Corrupt(format!(
                    "cache line at set {set} way {way} outside geometry"
                )));
            }
            *i = set * assoc + way;
            self.epochs[*i] = self.epoch;
            s.u64(&mut self.tags[*i])?;
            s.bool(&mut self.dirty[*i])?;
            s.u64(&mut self.lrus[*i])
        })
    }

    /// Returns `true` if the line containing `addr` is present (no LRU or
    /// stats side effects).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.index(addr);
        self.find(set, tag).is_some()
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: Addr) {
        let (set, tag) = self.index(addr);
        for i in self.ways(set) {
            if self.epochs[i] == self.epoch && self.tags[i] == tag {
                self.epochs[i] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B.
        Cache::new(CacheConfig {
            size: 128,
            assoc: 2,
            line: 16,
            hit_latency: 1,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::l1_default(64).validate().is_ok());
        assert!(matches!(
            CacheConfig {
                size: 0,
                assoc: 1,
                line: 16,
                hit_latency: 1
            }
            .validate(),
            Err(CacheConfigError::Zero)
        ));
        assert!(matches!(
            CacheConfig {
                size: 96,
                assoc: 1,
                line: 24,
                hit_latency: 1
            }
            .validate(),
            Err(CacheConfigError::LineNotPow2(24))
        ));
        assert!(matches!(
            CacheConfig {
                size: 100,
                assoc: 2,
                line: 16,
                hit_latency: 1
            }
            .validate(),
            Err(CacheConfigError::Indivisible { .. })
        ));
        assert!(matches!(
            CacheConfig {
                size: 96,
                assoc: 2,
                line: 16,
                hit_latency: 1
            }
            .validate(),
            Err(CacheConfigError::SetsNotPow2(3))
        ));
        assert_eq!(CacheConfig::l2_default(64).sets(), 4096);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = Addr::new(0x100);
        assert!(!c.lookup(a, false));
        c.fill(a, false);
        assert!(c.lookup(a, false));
        assert!(c.lookup(Addr::new(0x10f), false)); // same 16B line
        assert!(!c.lookup(Addr::new(0x110), false)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_and_writeback() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 * 16 = 64 B).
        let (a, b, d) = (Addr::new(0x000), Addr::new(0x040), Addr::new(0x080));
        c.fill(a, true); // dirty
        c.fill(b, false);
        assert!(c.probe(a) && c.probe(b));
        // Touch a so b becomes LRU.
        assert!(c.lookup(a, false));
        let wb = c.fill(d, false);
        assert!(!wb, "b was clean");
        assert!(c.probe(a) && !c.probe(b) && c.probe(d));
        // Now evict dirty a: touch d, fill b again.
        assert!(c.lookup(d, false));
        let wb = c.fill(b, false);
        assert!(wb, "a was dirty");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_sets_dirty_via_lookup() {
        let mut c = tiny();
        c.fill(Addr::new(0), false);
        assert!(c.lookup(Addr::new(0), true));
        // Force eviction of set 0 line: fill two more lines in set 0.
        c.fill(Addr::new(0x40), false);
        c.fill(Addr::new(0x80), false);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate() {
        let mut c = tiny();
        c.fill(Addr::new(0x20), false);
        assert!(c.probe(Addr::new(0x20)));
        c.invalidate(Addr::new(0x20));
        assert!(!c.probe(Addr::new(0x20)));
        // Invalidate of an absent line is a no-op.
        c.invalidate(Addr::new(0x999));
    }

    #[test]
    fn hit_rate() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.lookup(Addr::new(0), false);
        c.fill(Addr::new(0), false);
        c.lookup(Addr::new(0), false);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
