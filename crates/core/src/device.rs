//! The I/O device sink observing every transaction the bus delivers.

use csb_isa::Addr;
use csb_uncached::PayloadBuf;
use serde::Serialize;

/// One write transaction as delivered to the device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DeliveredWrite {
    /// Start address of the transfer.
    pub addr: Addr,
    /// The full transferred data (padding included). Serializes as the
    /// same JSON byte array the earlier `Vec<u8>` field produced.
    pub data: PayloadBuf,
    /// How many of the bytes were program payload.
    pub payload: usize,
    /// Bus cycle of the transaction's address phase.
    pub bus_cycle: u64,
}

/// A passive I/O device: records every write the bus delivers, in order.
///
/// The paper's microbenchmarks target an abstract device (a network
/// interface's transmit window); what matters architecturally is *which bus
/// transactions arrive, when, and with what data* — which is exactly what
/// this sink captures. Integration tests use it to check exactly-once and
/// atomicity properties; the examples use it as a toy NI.
///
/// The device also answers uncached reads from the simulator's functional
/// memory, so device "registers" can be pre-loaded by tests.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct IoDevice {
    writes: Vec<DeliveredWrite>,
}

impl IoDevice {
    /// Creates an empty device with room for a typical run's deliveries
    /// pre-reserved, so steady-state recording does not reallocate.
    pub fn new() -> Self {
        let mut device = IoDevice::default();
        device.clear();
        device
    }

    /// Discards all recorded deliveries, keeping the reserved storage or
    /// reserving it first (the simulator's warm-reset path).
    pub(crate) fn clear(&mut self) {
        self.writes.clear();
        self.writes.reserve(256);
    }

    /// Records a delivered write.
    pub(crate) fn deliver(&mut self, addr: Addr, data: PayloadBuf, payload: usize, bus_cycle: u64) {
        self.writes.push(DeliveredWrite {
            addr,
            data,
            payload,
            bus_cycle,
        });
    }

    /// Walks the delivery log.
    pub(crate) fn state(
        &mut self,
        s: &mut impl csb_snap::Codec,
    ) -> Result<(), csb_snap::SnapshotError> {
        s.tag("dev")?;
        let blank = DeliveredWrite {
            addr: Addr::default(),
            data: PayloadBuf::empty(),
            payload: 0,
            bus_cycle: 0,
        };
        s.list(
            &mut self.writes,
            usize::MAX,
            "device deliveries",
            blank,
            |s, d| {
                s.u64_as(&mut d.addr, Addr::raw, Addr::new)?;
                d.data.state(s)?;
                s.usize(&mut d.payload)?;
                s.u64(&mut d.bus_cycle)
            },
        )
    }

    /// All deliveries, in bus order.
    pub fn writes(&self) -> &[DeliveredWrite] {
        &self.writes
    }

    /// Number of deliveries.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Returns `true` if nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Total payload bytes delivered.
    pub fn payload_bytes(&self) -> u64 {
        self.writes.iter().map(|w| w.payload as u64).sum()
    }

    /// Reconstructs the byte at `addr` from the deliveries (last write
    /// wins), or `None` if it was never written.
    pub fn byte_at(&self, addr: Addr) -> Option<u8> {
        let a = addr.raw();
        self.writes.iter().rev().find_map(|w| {
            let start = w.addr.raw();
            let end = start + w.data.len() as u64;
            (a >= start && a < end).then(|| w.data[(a - start) as usize])
        })
    }

    /// Reconstructs `len` bytes starting at `addr` (unwritten bytes read 0).
    pub fn bytes_at(&self, addr: Addr, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.byte_at(addr.offset(i as i64)).unwrap_or(0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_reconstructs() {
        let mut d = IoDevice::new();
        d.deliver(
            Addr::new(0x100),
            PayloadBuf::from_slice(&[1, 2, 3, 4]),
            4,
            10,
        );
        d.deliver(Addr::new(0x102), PayloadBuf::from_slice(&[9, 9]), 2, 12);
        assert_eq!(d.len(), 2);
        assert_eq!(d.payload_bytes(), 6);
        assert_eq!(d.byte_at(Addr::new(0x100)), Some(1));
        assert_eq!(d.byte_at(Addr::new(0x102)), Some(9)); // overwritten
        assert_eq!(d.byte_at(Addr::new(0x105)), None);
        assert_eq!(d.bytes_at(Addr::new(0x100), 5), vec![1, 2, 9, 9, 0]);
        assert!(!d.is_empty());
    }
}
