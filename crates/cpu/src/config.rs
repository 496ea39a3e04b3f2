//! Processor configuration.

use serde::Serialize;

/// Microarchitectural parameters of the out-of-order core.
///
/// The default matches the paper's configuration (§4.1): 4-wide dispatch and
/// retire, two integer and two floating-point units, speculative address
/// calculation, and one non-speculative uncached operation per cycle.
///
/// # Examples
///
/// ```
/// use csb_cpu::CpuConfig;
///
/// let four = CpuConfig::default();
/// assert_eq!(four.fetch_width, 4);
///
/// // The paper's superscalar-width ablation (§4.3.2) uses 2- and 8-wide
/// // machines; the lock overhead is expected not to change.
/// let two = CpuConfig::superscalar(2);
/// assert_eq!(two.int_units, 1);
/// let eight = CpuConfig::superscalar(8);
/// assert_eq!(eight.retire_width, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CpuConfig {
    /// Instructions fetched (and dispatched) per cycle.
    pub fetch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Integer ALUs (branches also resolve on an integer unit).
    pub int_units: usize,
    /// Floating-point units.
    pub fp_units: usize,
    /// Address-generation slots per cycle in the memory queue.
    pub agen_units: usize,
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Fetch-queue capacity.
    pub fetch_queue: usize,
    /// Integer ALU latency in cycles.
    pub int_latency: u64,
    /// Floating-point latency in cycles.
    pub fp_latency: u64,
    /// Address-generation latency in cycles.
    pub agen_latency: u64,
    /// Non-speculative uncached operations issued per cycle at retirement.
    pub uncached_per_cycle: usize,
    /// Cycles the conditional-flush `swap` occupies before its result is
    /// available to dependent instructions.
    pub flush_latency: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::superscalar(4)
    }
}

impl CpuConfig {
    /// A `width`-wide machine with `width / 2` units of each kind (minimum
    /// one), scaled the way the paper's 2-way/4-way/8-way comparison implies.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn superscalar(width: usize) -> Self {
        assert!(width > 0, "width must be nonzero");
        let units = (width / 2).max(1);
        CpuConfig {
            fetch_width: width,
            retire_width: width,
            int_units: units,
            fp_units: units,
            agen_units: units,
            rob_size: 16 * width,
            fetch_queue: 4 * width,
            int_latency: 1,
            fp_latency: 2,
            agen_latency: 1,
            uncached_per_cycle: 1,
            flush_latency: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_machine() {
        let c = CpuConfig::default();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.retire_width, 4);
        assert_eq!(c.int_units, 2);
        assert_eq!(c.fp_units, 2);
        assert_eq!(c.uncached_per_cycle, 1);
    }

    #[test]
    fn superscalar_scaling() {
        assert_eq!(CpuConfig::superscalar(1).int_units, 1);
        assert_eq!(CpuConfig::superscalar(8).int_units, 4);
        assert_eq!(CpuConfig::superscalar(2).rob_size, 32);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_width_rejected() {
        CpuConfig::superscalar(0);
    }
}
