//! Whole-machine configuration.

use std::fmt;

use csb_bus::BusConfig;
use csb_cpu::CpuConfig;
use csb_isa::{Addr, AddressMap, AddressSpace};
use csb_mem::MemoryConfig;
use csb_uncached::{CsbConfig, UncachedConfig};
use serde::Serialize;

/// Base of the plain uncached I/O window (64 KiB).
pub const UNCACHED_BASE: u64 = 0x1000_0000;
/// Base of the uncached *combining* (CSB) window (64 KiB).
pub const COMBINING_BASE: u64 = 0x2000_0000;
/// Cached address used as the lock variable by the Figure 5 benchmark.
pub const LOCK_ADDR: u64 = 0x8000;

/// Size of each I/O window.
pub const IO_WINDOW: u64 = 0x1_0000;

/// Configuration of the complete simulated machine.
///
/// The default reproduces the paper's baseline: a 4-wide out-of-order core,
/// 64-byte cache lines with a 100-cycle miss, an 8-byte multiplexed bus at a
/// CPU:bus frequency ratio of 6, a non-combining uncached buffer, and a
/// single-buffered full-line CSB.
///
/// # Examples
///
/// ```
/// use csb_core::SimConfig;
/// use csb_bus::BusConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Figure 4(c)'s machine: 16-byte split bus with a turnaround cycle.
/// let cfg = SimConfig::default()
///     .bus(BusConfig::split(16).turnaround(1).max_burst(64).build()?)
///     .combining_block(32);
/// cfg.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimConfig {
    /// Core microarchitecture.
    pub cpu: CpuConfig,
    /// Cache hierarchy and memory latency.
    pub mem: MemoryConfig,
    /// System bus model.
    pub bus: BusConfig,
    /// CPU cycles per bus cycle (the paper's processor:bus frequency ratio).
    pub ratio: u64,
    /// Uncached buffer (combining block size = the baseline scheme).
    pub uncached: UncachedConfig,
    /// Conditional store buffer.
    pub csb: CsbConfig,
    /// Page-attribute map. [`SimConfig::default_map`] provides the standard
    /// layout used by all workload generators.
    pub map: AddressMap,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cpu: CpuConfig::default(),
            mem: MemoryConfig::with_line(64),
            bus: BusConfig::default(),
            ratio: 6,
            uncached: UncachedConfig::non_combining(),
            csb: CsbConfig::new(64),
            map: Self::default_map(),
        }
    }
}

impl SimConfig {
    /// The standard address layout: a plain-uncached window at
    /// [`UNCACHED_BASE`] and a combining window at [`COMBINING_BASE`];
    /// everything else cached.
    pub fn default_map() -> AddressMap {
        let mut map = AddressMap::new();
        map.add_region(Addr::new(UNCACHED_BASE), IO_WINDOW, AddressSpace::Uncached)
            .expect("static layout is valid");
        map.add_region(
            Addr::new(COMBINING_BASE),
            IO_WINDOW,
            AddressSpace::UncachedCombining,
        )
        .expect("static layout is valid");
        map
    }

    /// Cache-line size shared by the caches, the bus burst limit, and the
    /// CSB data register.
    pub fn line(&self) -> usize {
        self.mem.l1.line
    }

    /// Replaces the bus model.
    pub fn bus(mut self, bus: BusConfig) -> Self {
        self.bus = bus;
        self
    }

    /// Sets the CPU:bus frequency ratio.
    pub fn frequency_ratio(mut self, ratio: u64) -> Self {
        self.ratio = ratio;
        self
    }

    /// Sets the uncached buffer's combining block size.
    pub fn combining_block(mut self, block: usize) -> Self {
        self.uncached.block = block;
        self
    }

    /// Replaces the core configuration.
    pub fn cpu(mut self, cpu: CpuConfig) -> Self {
        self.cpu = cpu;
        self
    }

    /// Sets the cache-line size everywhere it appears (caches, bus burst
    /// limit, CSB line), keeping the machine self-consistent.
    pub fn line_size(mut self, line: usize) -> Self {
        self.mem = MemoryConfig {
            mem_latency: self.mem.mem_latency,
            ..MemoryConfig::with_line(line)
        };
        self.csb = CsbConfig { line, ..self.csb };
        let b = self.bus;
        let mut builder = match b.kind() {
            csb_bus::BusKind::Multiplexed => BusConfig::multiplexed(b.width()),
            csb_bus::BusKind::Split => BusConfig::split(b.width()),
        }
        .turnaround(b.turnaround())
        .min_addr_delay(b.min_addr_delay())
        .max_burst(line);
        if let Some(bg) = b.background() {
            builder = builder.background(bg.utilization, bg.burst);
        }
        if let Ok(bus) = builder.build() {
            self.bus = bus;
        }
        self
    }

    /// Enables the double-buffered CSB extension.
    pub fn csb_double_buffered(mut self) -> Self {
        self.csb.double_buffered = true;
        self
    }

    /// Enables the variable-burst CSB extension.
    pub fn csb_variable_burst(mut self) -> Self {
        self.csb.variable_burst = true;
        self
    }

    /// Checks cross-component consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError`] if the ratio is zero, line sizes disagree
    /// between the caches, the bus burst limit, and the CSB, or the
    /// combining block exceeds the line.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.ratio == 0 {
            return Err(SimConfigError::ZeroRatio);
        }
        let line = self.line();
        if self.mem.l2.line != line {
            return Err(SimConfigError::LineMismatch {
                what: "L2 line",
                got: self.mem.l2.line,
                line,
            });
        }
        if self.bus.max_burst() != line {
            return Err(SimConfigError::LineMismatch {
                what: "bus max burst",
                got: self.bus.max_burst(),
                line,
            });
        }
        if self.csb.line != line {
            return Err(SimConfigError::LineMismatch {
                what: "CSB line",
                got: self.csb.line,
                line,
            });
        }
        if self.uncached.block > line {
            return Err(SimConfigError::BlockExceedsLine {
                block: self.uncached.block,
                line,
            });
        }
        Ok(())
    }
}

/// Inconsistent [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimConfigError {
    /// The CPU:bus frequency ratio was zero.
    ZeroRatio,
    /// A component disagrees with the machine's cache-line size.
    LineMismatch {
        /// Which component.
        what: &'static str,
        /// Its configured size.
        got: usize,
        /// The machine line size.
        line: usize,
    },
    /// The uncached combining block exceeds the cache line.
    BlockExceedsLine {
        /// Configured block.
        block: usize,
        /// The machine line size.
        line: usize,
    },
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::ZeroRatio => f.write_str("CPU:bus frequency ratio must be nonzero"),
            SimConfigError::LineMismatch { what, got, line } => {
                write!(f, "{what} is {got} but the machine line size is {line}")
            }
            SimConfigError::BlockExceedsLine { block, line } => {
                write!(f, "combining block {block} exceeds the cache line {line}")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let cfg = SimConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.line(), 64);
        assert_eq!(cfg.ratio, 6);
        assert_eq!(cfg.uncached.block, 8);
    }

    #[test]
    fn line_size_rebuilds_everything() {
        for line in [32usize, 64, 128] {
            let cfg = SimConfig::default().line_size(line);
            cfg.validate().unwrap();
            assert_eq!(cfg.line(), line);
            assert_eq!(cfg.bus.max_burst(), line);
            assert_eq!(cfg.csb.line, line);
        }
    }

    #[test]
    fn validation_catches_mismatches() {
        let cfg = SimConfig {
            ratio: 0,
            ..SimConfig::default()
        };
        assert_eq!(cfg.validate(), Err(SimConfigError::ZeroRatio));

        let mut cfg = SimConfig::default();
        cfg.csb.line = 32;
        assert!(matches!(
            cfg.validate(),
            Err(SimConfigError::LineMismatch { .. })
        ));

        let cfg = SimConfig::default().line_size(32).combining_block(64);
        assert!(matches!(
            cfg.validate(),
            Err(SimConfigError::BlockExceedsLine { .. })
        ));
        assert!(!cfg.validate().unwrap_err().to_string().is_empty());
    }

    #[test]
    fn default_map_layout() {
        let map = SimConfig::default_map();
        assert_eq!(map.space_of(Addr::new(LOCK_ADDR)), AddressSpace::Cached);
        assert_eq!(
            map.space_of(Addr::new(UNCACHED_BASE)),
            AddressSpace::Uncached
        );
        assert_eq!(
            map.space_of(Addr::new(COMBINING_BASE + 0x100)),
            AddressSpace::UncachedCombining
        );
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = SimConfig::default()
            .frequency_ratio(9)
            .combining_block(64)
            .csb_double_buffered()
            .csb_variable_burst();
        assert_eq!(cfg.ratio, 9);
        assert!(cfg.csb.double_buffered);
        assert!(cfg.csb.variable_burst);
        cfg.validate().unwrap();
    }
}
