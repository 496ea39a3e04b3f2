//! The two-level hierarchy: L1 → L2 → memory latency composition.

use std::fmt;

use csb_isa::Addr;
use serde::Serialize;

use crate::cache::{Cache, CacheConfig, CacheConfigError, CacheStats};

/// Kind of cached access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
    /// Atomic read-modify-write (`swap`): requires the line like a write.
    Atomic,
}

impl AccessKind {
    fn is_write(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum HitLevel {
    /// Serviced by the L1.
    L1,
    /// Serviced by the L2.
    L2,
    /// Went to main memory.
    Memory,
}

impl fmt::Display for HitLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HitLevel::L1 => f.write_str("L1"),
            HitLevel::L2 => f.write_str("L2"),
            HitLevel::Memory => f.write_str("memory"),
        }
    }
}

/// Hierarchy configuration.
///
/// The default reproduces the paper's cache-miss anchor: an access that
/// misses both caches completes `mem_latency = 100` CPU cycles after it
/// starts — "the cache miss latency is 100 cycles, which corresponds to
/// 166 ns on a 600 MHz processor" (§4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct MemoryConfig {
    /// L1 geometry and hit latency.
    pub l1: CacheConfig,
    /// L2 geometry and hit latency.
    pub l2: CacheConfig,
    /// Total latency of an access serviced by main memory, in CPU cycles.
    pub mem_latency: u64,
}

impl MemoryConfig {
    /// Paper-style defaults for a given cache line size.
    pub fn with_line(line: usize) -> Self {
        MemoryConfig {
            l1: CacheConfig::l1_default(line),
            l2: CacheConfig::l2_default(line),
            mem_latency: 100,
        }
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::with_line(64)
    }
}

/// Aggregate statistics for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct MemoryStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Accesses serviced by main memory.
    pub mem_accesses: u64,
}

/// The two-level cache hierarchy (timing only).
/// `MemoryHierarchy::default()` is a blank with no cache storage: only
/// [`MemoryHierarchy::reset_with`] makes it a hierarchy.
///
/// # Examples
///
/// ```
/// use csb_isa::Addr;
/// use csb_mem::{AccessKind, HitLevel, MemoryConfig, MemoryHierarchy};
///
/// # fn main() -> Result<(), csb_mem::CacheConfigError> {
/// let mut mem = MemoryHierarchy::new(MemoryConfig::default())?;
/// let a = Addr::new(0x4000);
///
/// // Cold: goes to memory, costs the full 100-cycle miss latency.
/// let (ready, level) = mem.access(a, AccessKind::Read, 0);
/// assert_eq!(level, HitLevel::Memory);
/// assert_eq!(ready, 100);
///
/// // Warm: L1 hit at the L1 latency.
/// let (ready, level) = mem.access(a, AccessKind::Read, 200);
/// assert_eq!(level, HitLevel::L1);
/// assert_eq!(ready, 201);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryHierarchy {
    cfg: MemoryConfig,
    l1: Cache,
    l2: Cache,
    stats_mem: u64,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if either cache geometry is invalid.
    pub fn new(cfg: MemoryConfig) -> Result<Self, CacheConfigError> {
        let mut hier = MemoryHierarchy::default();
        hier.reset_with(cfg)?;
        Ok(hier)
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Resets to an empty hierarchy under `cfg`, reusing each level's set
    /// array when its geometry is unchanged — the common case across a
    /// sweep, where reallocating the caches would dominate the cost of
    /// re-preparing a short point. A level's own geometry decides: a
    /// blank's (`MemoryHierarchy::default()`) is the zero one, which no
    /// valid configuration has, so a blank's levels are always built.
    ///
    /// # Errors
    ///
    /// As for [`MemoryHierarchy::new`]. On error the hierarchy is
    /// unchanged.
    pub fn reset_with(&mut self, cfg: MemoryConfig) -> Result<(), CacheConfigError> {
        // Validate (and build) any changed geometry before mutating.
        let new_l1 = (cfg.l1 != *self.l1.config())
            .then(|| Cache::new(cfg.l1))
            .transpose()?;
        let new_l2 = (cfg.l2 != *self.l2.config())
            .then(|| Cache::new(cfg.l2))
            .transpose()?;
        match new_l1 {
            Some(c) => self.l1 = c,
            None => self.l1.clear(),
        }
        match new_l2 {
            Some(c) => self.l2 = c,
            None => self.l2.clear(),
        }
        self.cfg = cfg;
        self.stats_mem = 0;
        Ok(())
    }

    /// Walks both cache levels and the memory-access counter (the
    /// geometry itself comes from the [`MemoryConfig`] the restoring side
    /// already holds).
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        s.tag("hier")?;
        self.l1.state(s)?;
        self.l2.state(s)?;
        s.u64(&mut self.stats_mem)
    }

    /// Performs a timed access starting at CPU cycle `now`.
    ///
    /// Returns `(ready_at, level)`: the cycle at which the access completes
    /// and which level serviced it. Lines are allocated in both levels on a
    /// miss (inclusive hierarchy).
    pub fn access(&mut self, addr: Addr, kind: AccessKind, now: u64) -> (u64, HitLevel) {
        let write = kind.is_write();
        if self.l1.lookup(addr, write) {
            return (now + self.cfg.l1.hit_latency, HitLevel::L1);
        }
        if self.l2.lookup(addr, write) {
            self.l1.fill(addr, write);
            return (now + self.cfg.l2.hit_latency, HitLevel::L2);
        }
        self.stats_mem += 1;
        self.l2.fill(addr, write);
        self.l1.fill(addr, write);
        (now + self.cfg.mem_latency, HitLevel::Memory)
    }

    /// Pre-loads the line containing `addr` into both levels (test/benchmark
    /// warm-up without timing side effects on the experiment).
    pub fn warm(&mut self, addr: Addr) {
        self.l2.fill(addr, false);
        self.l1.fill(addr, false);
    }

    /// Evicts the line containing `addr` from both levels, forcing the next
    /// access to miss to memory (used by the Figure 5(b) lock-miss setup).
    pub fn flush_line(&mut self, addr: Addr) {
        self.l1.invalidate(addr);
        self.l2.invalidate(addr);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            l1: *self.l1.stats(),
            l2: *self.l2.stats(),
            mem_accesses: self.stats_mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(MemoryConfig::default()).unwrap()
    }

    #[test]
    fn miss_hit_l2_hit_l1() {
        let mut m = hier();
        let a = Addr::new(0x8000);
        let (t, lvl) = m.access(a, AccessKind::Read, 10);
        assert_eq!((t, lvl), (110, HitLevel::Memory));
        // Evict from L1 only: conflict lines in the same L1 set.
        // L1: 32KiB/2way/64B -> 256 sets -> set stride 16 KiB.
        m.access(Addr::new(0x8000 + 16 * 1024), AccessKind::Read, 0);
        m.access(Addr::new(0x8000 + 32 * 1024), AccessKind::Read, 0);
        assert!(!m.l1.probe(a));
        let (t, lvl) = m.access(a, AccessKind::Read, 200);
        assert_eq!((t, lvl), (210, HitLevel::L2));
        let (t, lvl) = m.access(a, AccessKind::Read, 300);
        assert_eq!((t, lvl), (301, HitLevel::L1));
    }

    #[test]
    fn warm_and_flush() {
        let mut m = hier();
        let a = Addr::new(0x1234_0000);
        m.warm(a);
        let (t, lvl) = m.access(a, AccessKind::Atomic, 0);
        assert_eq!((t, lvl), (1, HitLevel::L1));
        m.flush_line(a);
        let (t, lvl) = m.access(a, AccessKind::Atomic, 0);
        assert_eq!((t, lvl), (100, HitLevel::Memory));
        assert_eq!(m.stats().mem_accesses, 1);
    }

    #[test]
    fn writes_allocate() {
        let mut m = hier();
        let a = Addr::new(0x9000);
        m.access(a, AccessKind::Write, 0);
        assert!(m.l1.probe(a));
        let (t, lvl) = m.access(a, AccessKind::Write, 50);
        assert_eq!((t, lvl), (51, HitLevel::L1));
    }

    #[test]
    fn stats_accumulate() {
        let mut m = hier();
        m.access(Addr::new(0), AccessKind::Read, 0);
        m.access(Addr::new(0), AccessKind::Read, 0);
        let s = m.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.mem_accesses, 1);
        assert_eq!(HitLevel::Memory.to_string(), "memory");
    }
}
