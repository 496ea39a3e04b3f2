//! Bus statistics and the effective-bandwidth metric.

use serde::Serialize;

/// Number of power-of-two size buckets: transfers are 1..=128 bytes.
const SIZE_BUCKETS: usize = 8;

/// Transactions per transfer size, held in a fixed array indexed by
/// `log2(size)` so recording a transaction never allocates (transfer sizes
/// are powers of two up to 128 bytes). Serializes as the same JSON object
/// of `"size": count` pairs, ascending, that the earlier
/// `BTreeMap<usize, u64>` field produced — checked-in artifacts are
/// unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    counts: [u64; SIZE_BUCKETS],
}

impl SizeHistogram {
    fn bucket(size: usize) -> usize {
        assert!(
            size.is_power_of_two() && size <= 1 << (SIZE_BUCKETS - 1),
            "transfer size {size} is not a power of two in 1..=128"
        );
        size.trailing_zeros() as usize
    }

    /// Counts one transaction of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two in `1..=128`.
    pub fn add(&mut self, size: usize) {
        self.counts[Self::bucket(size)] += 1;
    }

    /// Transactions recorded at `size` bytes (0 for sizes never seen).
    pub fn get(&self, size: usize) -> u64 {
        self.counts[Self::bucket(size)]
    }

    /// `(size, count)` pairs for every size with a nonzero count, in
    /// ascending size order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(b, &n)| (1usize << b, n))
    }

    /// Returns `true` if no transaction has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&n| n == 0)
    }
}

impl std::ops::Index<usize> for SizeHistogram {
    type Output = u64;

    fn index(&self, size: usize) -> &u64 {
        &self.counts[Self::bucket(size)]
    }
}

impl Serialize for SizeHistogram {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(
            self.iter()
                .map(|(size, n)| (size.to_string(), n.to_value()))
                .collect(),
        )
    }
}

/// Counters accumulated by [`crate::SystemBus`].
///
/// The effective-bandwidth metric matches the paper's definition: payload
/// bytes divided by the bus cycles from the first transaction's address
/// cycle through the last transaction's final data cycle, inclusive. A
/// turnaround cycle following the final transaction is *not* counted ("the
/// transfer is considered complete at the end of the last transaction",
/// §4.3.1).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct BusStats {
    /// Transactions issued.
    pub transactions: u64,
    /// Raw bytes moved (including padding).
    pub bytes_on_bus: u64,
    /// Program bytes moved.
    pub payload_bytes: u64,
    /// Bus cycles spent occupied by transactions.
    pub busy_cycles: u64,
    /// Address cycle of the first transaction, if any.
    pub first_addr_cycle: Option<u64>,
    /// Final data cycle of the last transaction, if any.
    pub last_data_cycle: Option<u64>,
    /// Transactions per transfer size.
    pub size_histogram: SizeHistogram,
    /// Foreign-master transactions interleaved by the background-traffic
    /// model.
    pub foreign_transactions: u64,
    /// Bus cycles consumed by foreign masters.
    pub foreign_cycles: u64,
}

impl BusStats {
    /// Records one issued transaction.
    pub(crate) fn record(
        &mut self,
        addr_cycle: u64,
        completes_at: u64,
        size: usize,
        payload: usize,
    ) {
        self.transactions += 1;
        self.bytes_on_bus += size as u64;
        self.payload_bytes += payload as u64;
        self.busy_cycles += completes_at - addr_cycle + 1;
        if self.first_addr_cycle.is_none() {
            self.first_addr_cycle = Some(addr_cycle);
        }
        self.last_data_cycle = Some(self.last_data_cycle.unwrap_or(0).max(completes_at));
        self.size_histogram.add(size);
    }

    /// Records one foreign-master occupancy.
    pub(crate) fn record_foreign(&mut self, cycles: u64) {
        self.foreign_transactions += 1;
        self.foreign_cycles += cycles;
    }

    /// Walks every counter.
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        s.tag("bus_stats")?;
        for v in [
            &mut self.transactions,
            &mut self.bytes_on_bus,
            &mut self.payload_bytes,
            &mut self.busy_cycles,
        ] {
            s.u64(v)?;
        }
        s.opt_u64(&mut self.first_addr_cycle)?;
        s.opt_u64(&mut self.last_data_cycle)?;
        let foreign = [&mut self.foreign_transactions, &mut self.foreign_cycles];
        for v in self.size_histogram.counts.iter_mut().chain(foreign) {
            s.u64(v)?;
        }
        Ok(())
    }

    /// Bus cycles from the first address cycle through the last data cycle,
    /// inclusive. Zero if no transaction was issued.
    pub fn window_cycles(&self) -> u64 {
        match (self.first_addr_cycle, self.last_data_cycle) {
            (Some(f), Some(l)) => l - f + 1,
            _ => 0,
        }
    }

    /// Effective bandwidth in payload bytes per bus cycle over the window.
    ///
    /// Returns 0.0 if no transaction was issued.
    pub fn effective_bandwidth(&self) -> f64 {
        let w = self.window_cycles();
        if w == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / w as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = BusStats::default();
        assert_eq!(s.window_cycles(), 0);
        assert_eq!(s.effective_bandwidth(), 0.0);
    }

    #[test]
    fn window_and_bandwidth() {
        let mut s = BusStats::default();
        // Two back-to-back 2-cycle doubleword transactions: cycles 0-1, 2-3.
        s.record(0, 1, 8, 8);
        s.record(2, 3, 8, 8);
        assert_eq!(s.window_cycles(), 4);
        assert_eq!(s.effective_bandwidth(), 4.0); // the paper's 4 B/cycle
        assert_eq!(s.transactions, 2);
        assert_eq!(s.busy_cycles, 4);
        assert_eq!(s.size_histogram[8], 2);
    }

    #[test]
    fn padding_counted() {
        let mut s = BusStats::default();
        // A CSB full-line burst carrying two doublewords of payload.
        s.record(0, 8, 64, 16);
        assert_eq!(s.bytes_on_bus, 64);
        assert_eq!(s.payload_bytes, 16);
        assert!((s.effective_bandwidth() - 16.0 / 9.0).abs() < 1e-12);
    }
}
