//! The processor's connection to the memory system, uncached buffer, and
//! conditional store buffer.

use std::collections::HashMap;

use csb_isa::{Addr, AddressMap, AddressSpace};
use csb_mem::AccessKind;

use crate::Pid;

/// Everything outside the core that the pipeline talks to.
///
/// `csb-core` implements this over the real bus/buffer/CSB models; tests use
/// [`SimpleMemPort`]. All `now` parameters and returned times are CPU
/// cycles.
///
/// The `bool`-returning uncached methods implement flow control: `false`
/// means "stall and retry next cycle" (buffer full, CSB busy).
/// [`MemPort::uncached_poll`] completes split transactions: it returns
/// `Some(value)` once the bus round trip identified by `tag` has finished.
pub trait MemPort {
    /// Page attribute of `addr` (the TLB lookup).
    fn space_of(&self, addr: Addr) -> AddressSpace;

    /// Starts a timed cached access; returns its completion cycle.
    fn cached_access(&mut self, addr: Addr, kind: AccessKind, now: u64) -> u64;

    /// Functional read of `width` bytes.
    fn read(&mut self, addr: Addr, width: usize) -> u64;

    /// Functional write of `width` bytes.
    fn write(&mut self, addr: Addr, width: usize, value: u64);

    /// Functional atomic swap of the 8-byte word at `addr`; returns the old
    /// value. (Timing comes from [`MemPort::cached_access`] with
    /// [`AccessKind::Atomic`].)
    fn swap_value(&mut self, addr: Addr, new: u64) -> u64;

    /// Offers an uncached store to the uncached buffer.
    fn uncached_store(&mut self, addr: Addr, width: usize, value: u64) -> bool;

    /// Issues an uncached read of `width` bytes at `addr` — a load, or with
    /// `swap: Some(new)` an atomic swap to plain uncached space, which
    /// writes `new` in the same bus round trip. The value read (for a
    /// swap, the old value) arrives via [`MemPort::uncached_poll`] under
    /// `tag`.
    fn uncached_read(&mut self, addr: Addr, width: usize, swap: Option<u64>, tag: u64) -> bool;

    /// Polls for the completion of uncached read `tag`.
    fn uncached_poll(&mut self, tag: u64) -> Option<u64>;

    /// `true` when the uncached buffer has handed everything to the bus —
    /// the condition `membar` retirement waits for.
    fn uncached_drained(&self) -> bool;

    /// Offers a combining store to the CSB.
    fn csb_store(&mut self, pid: Pid, addr: Addr, width: usize, value: u64) -> bool;

    /// `true` if the CSB can accept a conditional flush this cycle.
    fn csb_can_flush(&self) -> bool;

    /// Executes a conditional flush; returns the value left in the `swap`
    /// register (`expected` on success, 0 on failure).
    fn csb_flush(&mut self, pid: Pid, addr: Addr, expected: u64) -> u64;

    // ------------------------------------------------------------------
    // Pure peeks for the fast-forward path. Each asks the same decision
    // its mutating method acts on (the machine calls one function for
    // both), without the side effects (no stall counters, no trace events,
    // no state changes), so the simulator can prove a stalled cycle would
    // repeat and skip it.
    //
    // Defaults return `true` ("would make progress"), which is always
    // safe: over-claiming activity only costs a real tick, never
    // correctness.
    // ------------------------------------------------------------------

    /// `true` if [`MemPort::uncached_store`] would currently succeed.
    fn uncached_store_would_accept(&self, _addr: Addr, _width: usize) -> bool {
        true
    }

    /// `true` if [`MemPort::uncached_read`] would currently succeed.
    fn uncached_read_would_accept(&self) -> bool {
        true
    }

    /// `true` if [`MemPort::csb_store`] would currently succeed.
    fn csb_store_would_accept(&self) -> bool {
        true
    }

    /// `true` if [`MemPort::uncached_poll`] for `tag` would return a value
    /// this cycle.
    fn uncached_ready(&self, _tag: u64) -> bool {
        true
    }
}

/// A minimal, latency-one port for unit tests and examples.
///
/// Cached accesses complete in one cycle; uncached operations are accepted
/// unconditionally and complete `uncached_latency` cycles later; the CSB is
/// emulated as always-successful commits into flat memory. The order of all
/// uncached operations is recorded for assertions.
///
/// # Examples
///
/// ```
/// use csb_cpu::{MemPort, SimpleMemPort};
/// use csb_isa::Addr;
///
/// let mut p = SimpleMemPort::new();
/// p.write(Addr::new(0x100), 8, 77);
/// assert_eq!(p.read(Addr::new(0x100), 8), 77);
/// assert!(p.uncached_store(Addr::new(0x1000_0000), 8, 5));
/// assert_eq!(p.uncached_log().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SimpleMemPort {
    mem: HashMap<u64, u8>,
    map: AddressMap,
    uncached_latency: u64,
    pending: HashMap<u64, (u64, u64)>, // tag -> (ready_at, value)
    now_hint: u64,
    log: Vec<(Addr, usize, u64)>,
    csb_count: u64,
    /// When set, combining stores and flushes are refused `refuse_csb` times
    /// (to exercise stall paths).
    pub refuse_csb: u32,
}

impl SimpleMemPort {
    /// Creates a port whose every address is cached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a port using `map` for page attributes and the given
    /// uncached round-trip latency.
    pub fn with_map(map: AddressMap, uncached_latency: u64) -> Self {
        SimpleMemPort {
            map,
            uncached_latency,
            ..Self::default()
        }
    }

    /// The ordered log of uncached/combining operations `(addr, width,
    /// value)`.
    pub fn uncached_log(&self) -> &[(Addr, usize, u64)] {
        &self.log
    }

    fn read_raw(&self, addr: Addr, width: usize) -> u64 {
        let mut v = 0u64;
        for i in (0..width).rev() {
            v = (v << 8) | u64::from(*self.mem.get(&(addr.raw() + i as u64)).unwrap_or(&0));
        }
        v
    }

    fn write_raw(&mut self, addr: Addr, width: usize, value: u64) {
        for i in 0..width {
            self.mem
                .insert(addr.raw() + i as u64, (value >> (8 * i)) as u8);
        }
    }
}

impl MemPort for SimpleMemPort {
    fn space_of(&self, addr: Addr) -> AddressSpace {
        self.map.space_of(addr)
    }

    fn cached_access(&mut self, _addr: Addr, _kind: AccessKind, now: u64) -> u64 {
        self.now_hint = now;
        now + 1
    }

    fn read(&mut self, addr: Addr, width: usize) -> u64 {
        self.read_raw(addr, width)
    }

    fn write(&mut self, addr: Addr, width: usize, value: u64) {
        self.write_raw(addr, width, value);
    }

    fn swap_value(&mut self, addr: Addr, new: u64) -> u64 {
        let old = self.read_raw(addr, 8);
        self.write_raw(addr, 8, new);
        old
    }

    fn uncached_store(&mut self, addr: Addr, width: usize, value: u64) -> bool {
        self.write_raw(addr, width, value);
        self.log.push((addr, width, value));
        true
    }

    fn uncached_read(&mut self, addr: Addr, width: usize, swap: Option<u64>, tag: u64) -> bool {
        let v = self.read_raw(addr, width);
        if let Some(new) = swap {
            self.write_raw(addr, width, new);
            self.log.push((addr, width, new));
        }
        self.pending
            .insert(tag, (self.now_hint + self.uncached_latency, v));
        true
    }

    fn uncached_poll(&mut self, tag: u64) -> Option<u64> {
        // SimpleMemPort has no clock of its own; completions are immediate
        // unless a latency was configured, in which case they are released
        // on the first poll after `ready_at` (polls happen every cycle).
        let (ready_at, v) = *self.pending.get(&tag)?;
        self.now_hint += 1;
        if self.now_hint >= ready_at {
            self.pending.remove(&tag);
            Some(v)
        } else {
            None
        }
    }

    fn uncached_drained(&self) -> bool {
        true
    }

    fn csb_store(&mut self, _pid: Pid, addr: Addr, width: usize, value: u64) -> bool {
        if self.refuse_csb > 0 {
            self.refuse_csb -= 1;
            return false;
        }
        self.write_raw(addr, width, value);
        self.log.push((addr, width, value));
        self.csb_count += 1;
        true
    }

    fn csb_can_flush(&self) -> bool {
        self.refuse_csb == 0
    }

    fn csb_flush(&mut self, _pid: Pid, _addr: Addr, expected: u64) -> u64 {
        let count = std::mem::take(&mut self.csb_count);
        if count == expected {
            expected
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_memory() {
        let mut p = SimpleMemPort::new();
        p.write(Addr::new(0x10), 8, 0xdead_beef);
        assert_eq!(p.read(Addr::new(0x10), 8), 0xdead_beef);
        assert_eq!(p.swap_value(Addr::new(0x10), 7), 0xdead_beef);
        assert_eq!(p.read(Addr::new(0x10), 8), 7);
    }

    #[test]
    fn csb_emulation_counts_stores() {
        let mut p = SimpleMemPort::new();
        p.csb_store(1, Addr::new(0x100), 8, 1);
        p.csb_store(1, Addr::new(0x108), 8, 2);
        assert_eq!(p.csb_flush(1, Addr::new(0x100), 2), 2);
        // Counter reset by the flush.
        assert_eq!(p.csb_flush(1, Addr::new(0x100), 2), 0);
    }

    #[test]
    fn refusal_exercises_stall_path() {
        let mut p = SimpleMemPort {
            refuse_csb: 2,
            ..SimpleMemPort::default()
        };
        assert!(!p.csb_store(1, Addr::new(0), 8, 0));
        assert!(!p.csb_can_flush());
        assert!(!p.csb_store(1, Addr::new(0), 8, 0)); // second refusal
        assert!(p.csb_can_flush());
        assert!(p.csb_store(1, Addr::new(0), 8, 0));
    }

    #[test]
    fn uncached_round_trip() {
        let mut p = SimpleMemPort::new();
        p.write(Addr::new(0x20), 4, 0x55);
        assert!(p.uncached_read(Addr::new(0x20), 4, None, 9));
        assert_eq!(p.uncached_poll(9), Some(0x55));
        assert_eq!(p.uncached_poll(9), None);
    }
}
