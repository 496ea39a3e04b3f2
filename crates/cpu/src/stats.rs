//! Pipeline statistics and timing markers.

use std::collections::HashMap;

use serde::Serialize;

/// Counters and timing markers accumulated over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CpuStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired (committed).
    pub retired: u64,
    /// Instructions squashed by branch misprediction or context switch.
    pub squashed: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Retired loads (cached + uncached).
    pub loads: u64,
    /// Retired stores (cached + uncached + combining).
    pub stores: u64,
    /// Retired uncached operations (loads, stores, swaps, flushes).
    pub uncached_ops: u64,
    /// Retired combining stores (subset of `stores`).
    pub combining_stores: u64,
    /// Conditional flushes that succeeded.
    pub flush_successes: u64,
    /// Conditional flushes that failed (software must retry).
    pub flush_failures: u64,
    /// Cycles the head of the ROB stalled on uncached flow control (buffer
    /// full or CSB busy).
    pub uncached_stall_cycles: u64,
    /// Cycles retirement stalled waiting for a `membar` to drain.
    pub membar_stall_cycles: u64,
    /// Retirement cycles of each `mark` pseudo-instruction, keyed by id,
    /// in retirement order.
    pub marks: HashMap<u32, Vec<u64>>,
}

impl CpuStats {
    /// Retirement cycle of the most recent `mark #id`, if any.
    pub fn last_mark(&self, id: u32) -> Option<u64> {
        self.marks.get(&id).and_then(|v| v.last().copied())
    }

    /// Cycles between the latest `mark #from` and the latest `mark #to`.
    ///
    /// Returns `None` if either marker has not retired or the interval is
    /// negative.
    pub fn mark_interval(&self, from: u32, to: u32) -> Option<u64> {
        let a = self.last_mark(from)?;
        let b = self.last_mark(to)?;
        b.checked_sub(a)
    }

    /// Instructions per cycle over the run (0.0 for an empty run).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_and_intervals() {
        let mut s = CpuStats::default();
        s.marks.entry(0).or_default().push(10);
        s.marks.entry(1).or_default().push(25);
        s.marks.entry(1).or_default().push(40);
        assert_eq!(s.last_mark(0), Some(10));
        assert_eq!(s.last_mark(1), Some(40));
        assert_eq!(s.mark_interval(0, 1), Some(30));
        assert_eq!(s.mark_interval(1, 0), None);
        assert_eq!(s.mark_interval(0, 2), None);
    }

    #[test]
    fn ipc() {
        let s = CpuStats {
            cycles: 100,
            retired: 250,
            ..CpuStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(CpuStats::default().ipc(), 0.0);
    }
}
