//! Bus configuration and validation.

use std::fmt;
use std::hash::{Hash, Hasher};

use serde::Serialize;

/// Bus organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BusKind {
    /// Address and data share the wires; every transaction pays one address
    /// cycle before its data beats (paper §4.3.1, Figure 3).
    Multiplexed,
    /// Separate address and data paths; a transaction occupies the data path
    /// only for its data beats (paper §4.3.1, Figure 4).
    Split,
}

impl fmt::Display for BusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusKind::Multiplexed => f.write_str("multiplexed"),
            BusKind::Split => f.write_str("split"),
        }
    }
}

/// Deterministic foreign-master (background) traffic model.
///
/// The paper approximates "a heavily loaded bus with multiple masters" with
/// a turnaround cycle (§4.3.1, Figure 3(g)). This model does it directly: a
/// fair arbiter grants foreign masters `utilization` of the bus cycles, as
/// whole transactions of `burst` bytes interleaved with the local master's.
/// The schedule is deterministic (a debt accumulator, not a random draw) so
/// simulations stay reproducible.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BackgroundTraffic {
    /// Long-run fraction of bus cycles held by foreign masters, `0.0..1.0`.
    pub utilization: f64,
    /// Foreign transaction size in bytes (power of two within the burst
    /// limit).
    pub burst: usize,
}

/// Bit-for-bit: IEEE equality would call a utilization of `0.0` equal to
/// `-0.0`, whose bits differ, and configurations that compare equal must
/// hash alike (cache keys and frame fingerprints hash the bits).
impl PartialEq for BackgroundTraffic {
    fn eq(&self, other: &Self) -> bool {
        self.utilization.to_bits() == other.utilization.to_bits() && self.burst == other.burst
    }
}

/// The utilization by its bits, as [`PartialEq`] compares it.
impl Hash for BackgroundTraffic {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.utilization.to_bits().hash(state);
        self.burst.hash(state);
    }
}

/// Invalid [`BusConfig`] parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum BusConfigError {
    /// Data-path width must be a nonzero power of two.
    BadWidth(usize),
    /// Maximum burst must be a nonzero power of two and at least the width.
    BadMaxBurst(usize),
    /// Background utilization must be in `0.0..1.0` and its burst a power
    /// of two within the burst limit.
    BadBackground(BackgroundTraffic),
}

impl fmt::Display for BusConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusConfigError::BadWidth(w) => {
                write!(f, "bus width {w} is not a nonzero power of two")
            }
            BusConfigError::BadMaxBurst(b) => write!(
                f,
                "max burst {b} is not a nonzero power of two at least the bus width"
            ),
            BusConfigError::BadBackground(bg) => write!(
                f,
                "background traffic utilization {} / burst {} invalid",
                bg.utilization, bg.burst
            ),
        }
    }
}

impl std::error::Error for BusConfigError {}

/// Validated bus parameters.
///
/// Construct with [`BusConfig::multiplexed`] or [`BusConfig::split`], which
/// return a [`BusConfigBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Hash, Serialize)]
pub struct BusConfig {
    kind: BusKind,
    width: usize,
    turnaround: u64,
    min_addr_delay: u64,
    max_burst: usize,
    background: Option<BackgroundTraffic>,
}

/// The paper's baseline: an 8-byte multiplexed bus with 64-byte bursts.
impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::multiplexed(8)
            .build()
            .expect("the default bus is valid")
    }
}

impl BusConfig {
    /// Starts building a multiplexed bus of the given data width in bytes.
    pub fn multiplexed(width: usize) -> BusConfigBuilder {
        BusConfigBuilder::new(BusKind::Multiplexed, width)
    }

    /// Starts building a split address/data bus of the given data width.
    pub fn split(width: usize) -> BusConfigBuilder {
        BusConfigBuilder::new(BusKind::Split, width)
    }

    /// Bus organization.
    pub fn kind(&self) -> BusKind {
        self.kind
    }

    /// Data-path width in bytes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Idle cycles inserted after every transaction.
    pub fn turnaround(&self) -> u64 {
        self.turnaround
    }

    /// Minimum bus cycles between consecutive address cycles.
    pub fn min_addr_delay(&self) -> u64 {
        self.min_addr_delay
    }

    /// Largest legal transfer (one cache line).
    pub fn max_burst(&self) -> usize {
        self.max_burst
    }

    /// Foreign-master traffic sharing the bus, if configured.
    pub fn background(&self) -> Option<BackgroundTraffic> {
        self.background
    }

    /// Number of bus cycles a transaction of `size` bytes occupies the bus.
    ///
    /// Multiplexed: one address cycle plus `ceil(size / width)` data cycles.
    /// Split: `max(1, ceil(size / width))` data cycles (address in parallel).
    pub fn transaction_cycles(&self, size: usize) -> u64 {
        let data = size.div_ceil(self.width).max(1) as u64;
        match self.kind {
            BusKind::Multiplexed => 1 + data,
            BusKind::Split => data,
        }
    }
}

/// Builder for [`BusConfig`] (see [`BusConfig::multiplexed`]).
///
/// # Examples
///
/// ```
/// use csb_bus::BusConfig;
///
/// # fn main() -> Result<(), csb_bus::BusConfigError> {
/// let cfg = BusConfig::split(16)
///     .turnaround(1)
///     .min_addr_delay(4)
///     .max_burst(64)
///     .build()?;
/// assert_eq!(cfg.transaction_cycles(64), 4);
/// assert_eq!(cfg.transaction_cycles(8), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BusConfigBuilder {
    kind: BusKind,
    width: usize,
    turnaround: u64,
    min_addr_delay: u64,
    max_burst: usize,
    background: Option<BackgroundTraffic>,
}

impl BusConfigBuilder {
    fn new(kind: BusKind, width: usize) -> Self {
        BusConfigBuilder {
            kind,
            width,
            turnaround: 0,
            min_addr_delay: 0,
            max_burst: 64,
            background: None,
        }
    }

    /// Sets idle cycles inserted after every transaction (default 0).
    pub fn turnaround(mut self, cycles: u64) -> Self {
        self.turnaround = cycles;
        self
    }

    /// Sets the minimum spacing between address cycles (default 0).
    pub fn min_addr_delay(mut self, cycles: u64) -> Self {
        self.min_addr_delay = cycles;
        self
    }

    /// Sets the largest legal transfer, i.e. the cache-line size (default 64).
    pub fn max_burst(mut self, bytes: usize) -> Self {
        self.max_burst = bytes;
        self
    }

    /// Adds deterministic foreign-master traffic (see
    /// [`BackgroundTraffic`]).
    pub fn background(mut self, utilization: f64, burst: usize) -> Self {
        self.background = Some(BackgroundTraffic { utilization, burst });
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BusConfigError`] if the width or max burst is not a nonzero
    /// power of two, or the max burst is smaller than the width.
    pub fn build(self) -> Result<BusConfig, BusConfigError> {
        if self.width == 0 || !self.width.is_power_of_two() {
            return Err(BusConfigError::BadWidth(self.width));
        }
        if self.max_burst == 0 || !self.max_burst.is_power_of_two() || self.max_burst < self.width {
            return Err(BusConfigError::BadMaxBurst(self.max_burst));
        }
        if let Some(bg) = self.background {
            let ok = (0.0..1.0).contains(&bg.utilization)
                && bg.burst.is_power_of_two()
                && bg.burst <= self.max_burst
                && bg.burst > 0;
            if !ok {
                return Err(BusConfigError::BadBackground(bg));
            }
        }
        Ok(BusConfig {
            kind: self.kind,
            width: self.width,
            turnaround: self.turnaround,
            min_addr_delay: self.min_addr_delay,
            max_burst: self.max_burst,
            background: self.background,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplexed_timing() {
        let cfg = BusConfig::multiplexed(8).max_burst(64).build().unwrap();
        assert_eq!(cfg.transaction_cycles(8), 2); // addr + 1 beat
        assert_eq!(cfg.transaction_cycles(16), 3);
        assert_eq!(cfg.transaction_cycles(64), 9);
        assert_eq!(cfg.transaction_cycles(1), 2);
    }

    #[test]
    fn split_timing() {
        let cfg = BusConfig::split(16).max_burst(64).build().unwrap();
        assert_eq!(cfg.transaction_cycles(8), 1); // sub-width still one beat
        assert_eq!(cfg.transaction_cycles(16), 1);
        assert_eq!(cfg.transaction_cycles(64), 4);
        let wide = BusConfig::split(32).max_burst(64).build().unwrap();
        // Paper: on a 256-bit bus a line burst takes two cycles, the same as
        // two individual doubleword stores.
        assert_eq!(wide.transaction_cycles(64), 2);
        assert_eq!(wide.transaction_cycles(8) * 2, 2);
    }

    #[test]
    fn validation() {
        assert!(matches!(
            BusConfig::multiplexed(0).build(),
            Err(BusConfigError::BadWidth(0))
        ));
        assert!(matches!(
            BusConfig::multiplexed(12).build(),
            Err(BusConfigError::BadWidth(12))
        ));
        assert!(matches!(
            BusConfig::multiplexed(8).max_burst(48).build(),
            Err(BusConfigError::BadMaxBurst(48))
        ));
        assert!(matches!(
            BusConfig::split(32).max_burst(16).build(),
            Err(BusConfigError::BadMaxBurst(16))
        ));
        let err = BusConfig::multiplexed(12).build().unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn accessors() {
        let cfg = BusConfig::split(16)
            .turnaround(1)
            .min_addr_delay(4)
            .max_burst(128)
            .build()
            .unwrap();
        assert_eq!(cfg.kind(), BusKind::Split);
        assert_eq!(cfg.width(), 16);
        assert_eq!(cfg.turnaround(), 1);
        assert_eq!(cfg.min_addr_delay(), 4);
        assert_eq!(cfg.max_burst(), 128);
        assert_eq!(BusKind::Multiplexed.to_string(), "multiplexed");
        assert_eq!(BusKind::Split.to_string(), "split");
    }
}
