//! The conditional store buffer (the paper's contribution, §3.2).

use std::collections::VecDeque;
use std::fmt;

use csb_bus::Transaction;
use csb_faults::{FaultInjector, FaultKind};
use csb_isa::Addr;
use csb_obs::{EventKind, TraceSink, Track};
use serde::Serialize;

use crate::mask::{decompose_into, ByteMask, MAX_BLOCK};
use crate::{PayloadBuf, PreparedTxn};

/// A process identifier as seen by the CSB.
///
/// Real implementations source this from the supervisor-mode process ID /
/// address-space register (MIPS ASID, PA-RISC space ID, Alpha PID — §3.1).
pub type Pid = u32;

/// CSB configuration. The default (a zero line) fails validation: it
/// marks a blank [`ConditionalStoreBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub struct CsbConfig {
    /// Line size in bytes — the data register is exactly one cache line.
    pub line: usize,
    /// Adds the second line buffer suggested in §3.2, letting new combining
    /// stores proceed while a flushed line awaits the system interface.
    pub double_buffered: bool,
    /// Relaxes the always-full-line rule: emit the smallest set of naturally
    /// aligned bursts covering the written bytes instead of one padded line
    /// (the paper notes this option for buses with multiple burst sizes).
    pub variable_burst: bool,
}

impl CsbConfig {
    /// Baseline single-buffered, full-line CSB with the given line size.
    pub fn new(line: usize) -> Self {
        CsbConfig {
            line,
            double_buffered: false,
            variable_burst: false,
        }
    }

    /// Enables the second line buffer.
    pub fn double_buffered(mut self) -> Self {
        self.double_buffered = true;
        self
    }

    /// Enables variable-size bursts.
    pub fn variable_burst(mut self) -> Self {
        self.variable_burst = true;
        self
    }
}

/// Invalid [`CsbConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsbConfigError {
    /// The rejected line size.
    pub line: usize,
}

impl fmt::Display for CsbConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CSB line size {} is not a power of two in 8..={MAX_BLOCK}",
            self.line
        )
    }
}

impl std::error::Error for CsbConfigError {}

/// Error returned by [`ConditionalStoreBuffer::store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsbError {
    /// The buffer is busy delivering a flushed line (single-buffered CSB):
    /// the processor must stall the store and retry.
    Busy,
    /// The store is wider than a register, misaligned, or crosses a line.
    BadStore {
        /// Offending address.
        addr: Addr,
        /// Store width.
        width: usize,
    },
}

impl fmt::Display for CsbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsbError::Busy => f.write_str("CSB busy delivering a flushed line"),
            CsbError::BadStore { addr, width } => {
                write!(f, "invalid combining store: {width}B at {addr}")
            }
        }
    }
}

impl std::error::Error for CsbError {}

/// Result of one combining store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Matched the buffered line and PID; hit counter incremented.
    Merged {
        /// Hit counter value after the store.
        count: u64,
    },
    /// Mismatch (different line, different PID, or empty buffer): the buffer
    /// was cleared and restarted with this store; hit counter is 1.
    Reset,
}

/// Result of a conditional flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Line, PID, and expected count all matched: the line was committed as
    /// an atomic burst. The `swap` destination register keeps its value.
    Success,
    /// A condition failed: the buffer was cleared, nothing was issued, and
    /// the `swap` destination register receives 0.
    Fail,
}

impl FlushOutcome {
    /// The value the conditional-flush `swap` leaves in its register, given
    /// the expected count it carried in (§3.2: unchanged on success, 0 on
    /// failure).
    pub fn register_value(self, expected: u64) -> u64 {
        match self {
            FlushOutcome::Success => expected,
            FlushOutcome::Fail => 0,
        }
    }
}

/// Counters accumulated by the CSB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CsbStats {
    /// Combining stores accepted.
    pub stores: u64,
    /// Stores that reset the buffer (conflict or cold start).
    pub resets: u64,
    /// The subset of `resets` where the buffered line belonged to a
    /// *different* process — the §3.2 interference the many-core
    /// contention sweep counts (a same-PID line change or cold start is
    /// not contention).
    pub cross_pid_resets: u64,
    /// Successful conditional flushes.
    pub flush_successes: u64,
    /// Failed conditional flushes.
    pub flush_failures: u64,
    /// Burst transactions handed to the bus.
    pub bursts: u64,
    /// Payload bytes committed.
    pub payload_bytes: u64,
    /// Stalls reported while busy.
    pub busy_stalls: u64,
}

impl fmt::Display for CsbStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flushes = self.flush_successes + self.flush_failures;
        write!(
            f,
            "csb: {} stores ({} resets, {} cross-pid), {}/{} flushes ok, {} bursts, \
             {} payload bytes, {} busy stalls",
            self.stores,
            self.resets,
            self.cross_pid_resets,
            self.flush_successes,
            flushes,
            self.bursts,
            self.payload_bytes,
            self.busy_stalls
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct LineBuf {
    base: Addr,
    pid: Pid,
    mask: ByteMask,
    /// Inline line staging; the first `line` bytes are live. Fixed at the
    /// maximum line size so resets are a zeroing memcpy, not an allocation.
    data: [u8; MAX_BLOCK],
    count: u64,
}

/// The conditional store buffer.
///
/// State per Figure 2 of the paper: one cache line of data, the owning
/// process ID, the line-aligned address of the most recent combining store,
/// and a hit counter counting consecutive unconflicted stores.
///
/// * A combining store whose (line address, PID) match the buffered values
///   merges and increments the counter; any mismatch clears the buffer and
///   restarts it with the new store (counter = 1). Stores may arrive in any
///   order within the line — only the count matters for conflict detection.
/// * A conditional flush carrying the expected count succeeds iff line
///   address, PID, *and* count match; it then emits the line as one burst
///   (unwritten bytes padded with zero, avoiding information leaks between
///   processes) and clears the buffer. On any mismatch it clears the buffer,
///   emits nothing, and signals failure so software can retry.
///
/// See the crate-level example for typical use.
/// `ConditionalStoreBuffer::default()` is a blank with no configuration:
/// only [`ConditionalStoreBuffer::reset_with`] makes it a CSB.
#[derive(Debug, Clone, Default)]
pub struct ConditionalStoreBuffer {
    cfg: CsbConfig,
    current: Option<LineBuf>,
    /// Flushed bursts awaiting the system interface.
    pending: VecDeque<PreparedTxn>,
    stats: CsbStats,
    /// Structured trace sink (disabled by default; see
    /// [`ConditionalStoreBuffer::set_trace_sink`]).
    sink: TraceSink,
    /// Fault-injection hook (disabled by default; see
    /// [`ConditionalStoreBuffer::set_fault_hook`]).
    faults: FaultInjector,
    /// Flushes forced to fail by the fault hook.
    fault_disturbs: u64,
}

impl ConditionalStoreBuffer {
    /// Creates an empty CSB.
    ///
    /// # Errors
    ///
    /// Returns [`CsbConfigError`] if the line size is not a power of two in
    /// `8..=128`.
    pub fn new(cfg: CsbConfig) -> Result<Self, CsbConfigError> {
        let mut csb = ConditionalStoreBuffer::default();
        csb.reset_with(cfg)?;
        Ok(csb)
    }

    /// Resets to an empty CSB under `cfg`, keeping the pending-burst
    /// storage (its reservation grows if the new shape needs more). The
    /// simulator's warm-reset path.
    ///
    /// # Errors
    ///
    /// As for [`ConditionalStoreBuffer::new`]. On error the CSB is
    /// unchanged.
    pub fn reset_with(&mut self, cfg: CsbConfig) -> Result<(), CsbConfigError> {
        if cfg.line < 8 || cfg.line > MAX_BLOCK || !cfg.line.is_power_of_two() {
            return Err(CsbConfigError { line: cfg.line });
        }
        self.current = None;
        self.pending.clear();
        // Worst case: a variable-burst flush decomposes into one chunk per
        // written byte, doubled when double-buffered.
        self.pending
            .reserve(if cfg.variable_burst { 2 * cfg.line } else { 2 });
        self.cfg = cfg;
        self.stats = CsbStats::default();
        self.sink = TraceSink::disabled();
        self.faults = FaultInjector::disabled();
        self.fault_disturbs = 0;
        Ok(())
    }

    /// Installs a fault-injection hook. Each conditional flush asks the
    /// schedule whether it is disturbed ([`FaultKind::FlushDisturb`]): a
    /// disturbed flush behaves exactly as if a competing access had hit
    /// the buffered line — the buffer is cleared, nothing is issued, and
    /// the flush reports [`FlushOutcome::Fail`] so software retries.
    /// This makes the paper's retry path exercisable without a second
    /// processor.
    pub fn set_fault_hook(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Flushes forced to fail by the fault hook (0 when no hook is set).
    pub fn fault_disturbs(&self) -> u64 {
        self.fault_disturbs
    }

    /// Installs a structured trace sink; stores, busy stalls, and flush
    /// attempts/outcomes emit instants on the CSB track, stamped by the
    /// sink's shared clock.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// The CSB configuration.
    pub fn config(&self) -> &CsbConfig {
        &self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &CsbStats {
        &self.stats
    }

    fn flush_capacity(&self) -> usize {
        if self.cfg.double_buffered {
            2
        } else {
            1
        }
    }

    /// Returns `true` if a combining store would be accepted right now.
    ///
    /// A single-buffered CSB stalls stores that follow a flush until the
    /// flushed line has been handed to the system interface (§3.2); the
    /// double-buffered variant hides that latency.
    pub fn can_accept_store(&self) -> bool {
        // `variable_burst` may leave several chunks pending from one flush;
        // they count as one logical line in flight.
        self.pending.is_empty() || self.cfg.double_buffered
    }

    /// Returns `true` if a conditional flush would be accepted right now
    /// (there is room to queue the resulting burst).
    pub fn can_accept_flush(&self) -> bool {
        self.pending.len() < self.flush_capacity()
    }

    /// Bulk-accounts `n` busy stalls the fast-forward path skipped (each
    /// skipped cycle would have re-offered a store and been refused).
    pub fn add_busy_stalls(&mut self, n: u64) {
        self.stats.busy_stalls += n;
    }

    /// Walks the CSB's architectural state: the line buffer, queued
    /// bursts, counters, and the fault-disturb count. The configuration,
    /// trace sink, and fault hook are wiring the restoring side supplies:
    /// it restores into an empty CSB configured with the same
    /// [`CsbConfig`].
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream, a line that does
    /// not fit the configured line, or a burst no flush emits.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        s.tag("csb")?;
        let st = &mut self.stats;
        for v in [
            &mut st.stores,
            &mut st.resets,
            &mut st.cross_pid_resets,
            &mut st.flush_successes,
            &mut st.flush_failures,
            &mut st.bursts,
            &mut st.payload_bytes,
            &mut st.busy_stalls,
            &mut self.fault_disturbs,
        ] {
            s.u64(v)?;
        }
        let line = self.cfg.line;
        let empty = || LineBuf {
            base: Addr::default(),
            pid: 0,
            mask: ByteMask::empty(),
            data: [0u8; MAX_BLOCK],
            count: 0,
        };
        s.opt(&mut self.current, empty, |s, l| {
            s.u64_as(&mut l.base, Addr::raw, Addr::new)?;
            s.u32(&mut l.pid)?;
            s.u128_as(&mut l.mask, |m| m.bits(), ByteMask::from_bits)?;
            let bits = l.mask.bits();
            let fits = l.base.is_aligned(line as u64) && (line == MAX_BLOCK || bits >> line == 0);
            if s.reading() && !fits {
                return Err(csb_snap::SnapshotError::Corrupt(format!(
                    "CSB line at {} with mask {bits:#x} does not fit a {line}-byte line",
                    l.base
                )));
            }
            l.mask.walk_bytes(&mut l.data, s)?;
            s.u64(&mut l.count)
        })?;
        let blank = PreparedTxn {
            txn: Transaction::write(Addr::default(), 0),
            data: PayloadBuf::empty(),
        };
        s.list(
            &mut self.pending,
            usize::MAX,
            "CSB bursts",
            blank,
            |s, p| {
                let txn = &mut p.txn;
                s.u64_as(&mut txn.addr, Addr::raw, Addr::new)?;
                s.usize(&mut txn.size)?;
                let mut k = u8::from(txn.kind == csb_bus::TxnKind::Read);
                s.kind(&mut k, 2, "transaction kind")?;
                txn.kind = [csb_bus::TxnKind::Write, csb_bus::TxnKind::Read][usize::from(k)];
                s.usize(&mut txn.payload)?;
                s.u64(&mut txn.tag)?;
                p.data.state(s)?;
                // What a flush emits: a naturally aligned power-of-two burst
                // within one line, carrying at most its size.
                let (addr, size, payload) = (txn.addr, txn.size, txn.payload);
                let legal = size.is_power_of_two()
                    && size <= line
                    && addr.is_aligned(size as u64)
                    && payload <= size
                    && p.data.len() <= size;
                if s.reading() && !legal {
                    return Err(csb_snap::SnapshotError::Corrupt(format!(
                        "CSB burst of {size} bytes at {addr} carrying {payload} ({} staged)",
                        p.data.len()
                    )));
                }
                Ok(())
            },
        )
    }

    /// Performs a combining store of `data.len()` bytes at `addr` on behalf
    /// of process `pid`.
    ///
    /// # Errors
    ///
    /// * [`CsbError::Busy`] if the CSB cannot accept stores (see
    ///   [`ConditionalStoreBuffer::can_accept_store`]); the processor stalls
    ///   and retries — this is flow control, not a conflict.
    /// * [`CsbError::BadStore`] if the width is not a power of two in
    ///   `1..=8` or the address is not naturally aligned.
    pub fn store(&mut self, pid: Pid, addr: Addr, data: &[u8]) -> Result<StoreOutcome, CsbError> {
        let width = data.len();
        if !(1..=8).contains(&width) || !width.is_power_of_two() || !addr.is_aligned(width as u64) {
            return Err(CsbError::BadStore { addr, width });
        }
        if !self.can_accept_store() {
            self.stats.busy_stalls += 1;
            self.sink
                .emit(Track::Csb, EventKind::CsbBusy { addr: addr.raw() });
            return Err(CsbError::Busy);
        }
        let base = addr.align_down(self.cfg.line as u64);
        let off = addr.offset_in(self.cfg.line as u64) as usize;
        self.stats.stores += 1;

        match &mut self.current {
            Some(line) if line.base == base && line.pid == pid => {
                line.mask.set_range(off, width);
                line.data[off..off + width].copy_from_slice(data);
                line.count += 1;
                self.sink.emit(
                    Track::Csb,
                    EventKind::CsbStore {
                        pid,
                        addr: addr.raw(),
                        width,
                        count: line.count,
                        reset: false,
                    },
                );
                Ok(StoreOutcome::Merged { count: line.count })
            }
            slot => {
                // Mismatch or cold buffer: clear (zero padding) and restart.
                self.stats.resets += 1;
                if slot.as_ref().is_some_and(|line| line.pid != pid) {
                    self.stats.cross_pid_resets += 1;
                }
                let mut line = LineBuf {
                    base,
                    pid,
                    mask: ByteMask::empty(),
                    data: [0u8; MAX_BLOCK],
                    count: 1,
                };
                line.mask.set_range(off, width);
                line.data[off..off + width].copy_from_slice(data);
                *slot = Some(line);
                self.sink.emit(
                    Track::Csb,
                    EventKind::CsbStore {
                        pid,
                        addr: addr.raw(),
                        width,
                        count: 1,
                        reset: true,
                    },
                );
                Ok(StoreOutcome::Reset)
            }
        }
    }

    /// Executes a conditional flush: process `pid` claims the line at `addr`
    /// holds exactly `expected` of its stores.
    ///
    /// On success the line is queued as an atomic burst for the system
    /// interface (retrieve it with
    /// [`ConditionalStoreBuffer::peek_transaction`]). On failure the buffer
    /// is cleared and nothing is issued.
    ///
    /// Callers should gate on [`ConditionalStoreBuffer::can_accept_flush`];
    /// a flush issued while the burst queue is full fails unconditionally
    /// (and still clears the buffer), mirroring hardware that cannot accept
    /// the commit.
    pub fn conditional_flush(&mut self, pid: Pid, addr: Addr, expected: u64) -> FlushOutcome {
        let base = addr.align_down(self.cfg.line as u64);
        self.sink.emit(
            Track::Csb,
            EventKind::CsbFlushAttempt {
                pid,
                addr: base.raw(),
                expected,
            },
        );
        let disturbed = self.faults.inject(FaultKind::FlushDisturb);
        if disturbed {
            self.fault_disturbs += 1;
            self.sink
                .emit(Track::Csb, EventKind::FlushDisturb { addr: base.raw() });
        }
        let ok = !disturbed
            && self.can_accept_flush()
            && self
                .current
                .as_ref()
                .is_some_and(|line| line.base == base && line.pid == pid && line.count == expected);
        let line = self.current.take();
        if !ok {
            self.stats.flush_failures += 1;
            self.sink.emit(
                Track::Csb,
                EventKind::CsbFlushOutcome {
                    success: false,
                    payload: 0,
                },
            );
            return FlushOutcome::Fail;
        }
        let line = line.expect("checked above");
        self.stats.flush_successes += 1;
        let payload_total = line.mask.count();
        self.sink.emit(
            Track::Csb,
            EventKind::CsbFlushOutcome {
                success: true,
                payload: payload_total as u64,
            },
        );
        self.stats.payload_bytes += payload_total as u64;
        if self.cfg.variable_burst {
            let pending = &mut self.pending;
            let bursts = &mut self.stats.bursts;
            decompose_into(line.mask, self.cfg.line, |c| {
                pending.push_back(PreparedTxn {
                    txn: Transaction::write(line.base.offset(c.offset as i64), c.size),
                    data: PayloadBuf::from_slice(&line.data[c.offset..c.offset + c.size]),
                });
                *bursts += 1;
            });
        } else {
            // Always a full line; unwritten bytes are zero padding.
            self.pending.push_back(PreparedTxn {
                txn: Transaction::write(line.base, self.cfg.line).payload(payload_total),
                data: PayloadBuf::from_slice(&line.data[..self.cfg.line]),
            });
            self.stats.bursts += 1;
        }
        FlushOutcome::Success
    }

    /// Clears the data register without issuing anything — the effect of a
    /// cold reset or a supervisor-initiated clear.
    pub fn clear(&mut self) {
        self.current = None;
    }

    /// Appends what decides the CSB's future to `out`, with every address
    /// relative to `origin`: the line being combined and each committed
    /// burst. Two CSBs with equal prints whose origins differ by a
    /// multiple of the line behave alike, every address shifted by that
    /// difference, which is what a store stream's skip compares.
    pub fn stream_print(&self, origin: u64, out: &mut Vec<u64>) {
        if let Some(line) = &self.current {
            let bits = line.mask.bits();
            out.extend_from_slice(&[
                line.base.raw().wrapping_sub(origin),
                u64::from(line.pid),
                bits as u64,
                (bits >> 64) as u64,
                line.count,
            ]);
            out.extend(crate::words_of(&line.data[..self.cfg.line]));
        }
        out.push(u64::from(self.current.is_some()));
        for pt in &self.pending {
            let t = &pt.txn;
            out.extend_from_slice(&[
                t.addr.raw().wrapping_sub(origin),
                t.size as u64,
                t.payload as u64,
                u64::from(matches!(t.kind, csb_bus::TxnKind::Read)),
                t.tag,
            ]);
            out.extend(crate::words_of(&pt.data));
        }
        out.push(self.pending.len() as u64);
    }

    /// Returns the next committed burst to present to the bus, if any.
    pub fn peek_transaction(&self) -> Option<&PreparedTxn> {
        self.pending.front()
    }

    /// Acknowledges that the bus accepted the burst most recently returned
    /// by [`ConditionalStoreBuffer::peek_transaction`].
    ///
    /// # Panics
    ///
    /// Panics if no burst was pending.
    pub fn transaction_accepted(&mut self) -> PreparedTxn {
        self.pending.pop_front().expect("no pending CSB burst")
    }

    /// Returns `true` if no committed burst is waiting for the bus.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csb() -> ConditionalStoreBuffer {
        ConditionalStoreBuffer::new(CsbConfig::new(64)).unwrap()
    }

    fn dword(v: u64) -> [u8; 8] {
        v.to_le_bytes()
    }

    #[test]
    fn config_validation() {
        assert!(ConditionalStoreBuffer::new(CsbConfig::new(4)).is_err());
        assert!(ConditionalStoreBuffer::new(CsbConfig::new(96)).is_err());
        assert!(ConditionalStoreBuffer::new(CsbConfig::new(256)).is_err());
        let err = ConditionalStoreBuffer::new(CsbConfig::new(4)).unwrap_err();
        assert!(err.to_string().contains('4'));
    }

    #[test]
    fn stores_in_any_order_commit() {
        // §3.2: "combining stores can be issued in any order, since only the
        // total number of stores is needed for conflict detection."
        let mut c = csb();
        let line = Addr::new(0x1000);
        let order = [0i64, 5, 1, 7, 2, 6, 3, 4];
        for (n, &i) in order.iter().enumerate() {
            let out = c.store(1, line.offset(8 * i), &dword(i as u64)).unwrap();
            if n == 0 {
                assert_eq!(out, StoreOutcome::Reset);
            } else {
                assert_eq!(
                    out,
                    StoreOutcome::Merged {
                        count: n as u64 + 1
                    }
                );
            }
        }
        assert_eq!(c.conditional_flush(1, line, 8), FlushOutcome::Success);
        let t = c.transaction_accepted();
        assert_eq!(t.txn.size, 64);
        assert_eq!(t.txn.payload, 64);
        for i in 0..8usize {
            assert_eq!(&t.data[8 * i..8 * i + 8], &dword(i as u64));
        }
    }

    #[test]
    fn wrong_expected_count_fails() {
        let mut c = csb();
        let line = Addr::new(0x1000);
        c.store(1, line, &dword(1)).unwrap();
        c.store(1, line.offset(8), &dword(2)).unwrap();
        assert_eq!(c.conditional_flush(1, line, 3), FlushOutcome::Fail);
        // Buffer was cleared: restarting gives count 1 again.
        assert_eq!(c.store(1, line, &dword(1)).unwrap(), StoreOutcome::Reset);
        assert_eq!(c.stats().flush_failures, 1);
    }

    #[test]
    fn competing_pid_resets_and_original_flush_fails() {
        // The scenario narrated in §3.2: a process is interrupted before its
        // flush; the competitor's first store clears the buffer.
        let mut c = csb();
        let line = Addr::new(0x1000);
        for i in 0..4i64 {
            c.store(1, line.offset(8 * i), &dword(9)).unwrap();
        }
        assert_eq!(c.store(2, line, &dword(7)).unwrap(), StoreOutcome::Reset);
        assert_eq!(c.stats().cross_pid_resets, 1, "competitor reset counts");
        let out = c.conditional_flush(1, line, 4);
        assert_eq!(out, FlushOutcome::Fail);
        assert_eq!(out.register_value(4), 0);
        // And PID 2's own sequence still works.
        c.store(2, line.offset(8), &dword(8)).unwrap();
        // First store by pid 2 above was cleared by the failed flush, so
        // count restarted at 1.
        assert_eq!(c.conditional_flush(2, line, 1), FlushOutcome::Success);
    }

    #[test]
    fn different_line_same_pid_conflicts() {
        // §3.2: including the address detects conflicts between threads
        // sharing a PID.
        let mut c = csb();
        c.store(1, Addr::new(0x1000), &dword(1)).unwrap();
        assert_eq!(
            c.store(1, Addr::new(0x2000), &dword(2)).unwrap(),
            StoreOutcome::Reset
        );
        assert_eq!(
            c.conditional_flush(1, Addr::new(0x1000), 1),
            FlushOutcome::Fail
        );
    }

    #[test]
    fn partial_line_pads_with_zeroes() {
        let mut c = csb();
        let line = Addr::new(0x1000);
        c.store(1, line.offset(16), &dword(0xffff_ffff_ffff_ffff))
            .unwrap();
        assert_eq!(c.conditional_flush(1, line, 1), FlushOutcome::Success);
        let t = c.transaction_accepted();
        assert_eq!(t.txn.size, 64);
        assert_eq!(t.txn.payload, 8);
        assert!(t.data[..16].iter().all(|&b| b == 0));
        assert!(t.data[16..24].iter().all(|&b| b == 0xff));
        assert!(t.data[24..].iter().all(|&b| b == 0));
    }

    #[test]
    fn single_buffered_stalls_until_drained() {
        let mut c = csb();
        let line = Addr::new(0x1000);
        c.store(1, line, &dword(1)).unwrap();
        c.conditional_flush(1, line, 1);
        assert!(!c.can_accept_store());
        assert_eq!(c.store(1, line, &dword(2)), Err(CsbError::Busy));
        assert_eq!(c.stats().busy_stalls, 1);
        c.transaction_accepted();
        assert!(c.can_accept_store());
        assert!(c.store(1, line, &dword(2)).is_ok());
    }

    #[test]
    fn double_buffered_overlaps_flush_with_stores() {
        let mut c = ConditionalStoreBuffer::new(CsbConfig::new(64).double_buffered()).unwrap();
        let line = Addr::new(0x1000);
        c.store(1, line, &dword(1)).unwrap();
        c.conditional_flush(1, line, 1);
        // Burst still pending, but the second line buffer accepts stores.
        assert!(c.can_accept_store());
        c.store(1, line.offset(64), &dword(2)).unwrap();
        assert!(c.can_accept_flush());
        assert_eq!(
            c.conditional_flush(1, line.offset(64), 1),
            FlushOutcome::Success
        );
        // Both buffers now full: a third flush cannot be accepted.
        c.store(1, line.offset(128), &dword(3)).unwrap();
        assert!(!c.can_accept_flush());
        assert_eq!(
            c.conditional_flush(1, line.offset(128), 1),
            FlushOutcome::Fail
        );
        // Each accepted burst frees a line buffer for the next flush.
        c.transaction_accepted();
        assert!(c.can_accept_flush());
        c.transaction_accepted();
        assert!(c.is_drained());
        assert_eq!(c.stats().flush_successes, 2);
    }

    #[test]
    fn variable_burst_emits_aligned_chunks() {
        let mut c = ConditionalStoreBuffer::new(CsbConfig::new(64).variable_burst()).unwrap();
        let line = Addr::new(0x1000);
        for i in 1..8i64 {
            c.store(1, line.offset(8 * i), &dword(i as u64)).unwrap();
        }
        assert_eq!(c.conditional_flush(1, line, 7), FlushOutcome::Success);
        let mut sizes = Vec::new();
        while c.peek_transaction().is_some() {
            sizes.push(c.transaction_accepted().txn.size);
        }
        assert_eq!(sizes, vec![8, 16, 32]);
        assert_eq!(c.stats().bursts, 3);
    }

    #[test]
    fn fault_hook_forces_flush_failures() {
        use csb_faults::FaultConfig;
        let mut c = csb();
        c.set_fault_hook(FaultInjector::enabled(
            FaultConfig::new(9)
                .flush_disturb_rate(1.0)
                .max_consecutive(2),
        ));
        let line = Addr::new(0x1000);
        // Two disturbed attempts, then the consecutive bound forces one
        // through — the retry loop the paper's software is written for.
        for attempt in 0..3 {
            c.store(1, line, &dword(attempt)).unwrap();
            let out = c.conditional_flush(1, line, 1);
            if attempt < 2 {
                assert_eq!(out, FlushOutcome::Fail, "attempt {attempt}");
                // Disturbance clears the buffer, like a real conflict.
                assert_eq!(c.store(1, line, &dword(0)).unwrap(), StoreOutcome::Reset);
                c.clear();
            } else {
                assert_eq!(out, FlushOutcome::Success);
            }
        }
        assert_eq!(c.fault_disturbs(), 2);
        assert_eq!(c.stats().flush_failures, 2);
        assert_eq!(c.stats().flush_successes, 1);
    }

    #[test]
    fn fault_hook_emits_disturb_events() {
        use csb_faults::FaultConfig;
        let mut c = csb();
        let sink = TraceSink::enabled();
        c.set_trace_sink(sink.clone());
        c.set_fault_hook(FaultInjector::enabled(
            FaultConfig::new(9).flush_disturb_rate(1.0),
        ));
        let line = Addr::new(0x1000);
        c.store(1, line, &dword(1)).unwrap();
        assert_eq!(c.conditional_flush(1, line, 1), FlushOutcome::Fail);
        let kinds: Vec<&'static str> = sink.snapshot().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec!["csb.store", "csb.flush", "fault.disturb", "csb.flush.done"]
        );
    }

    #[test]
    fn bad_store_rejected() {
        let mut c = csb();
        assert!(matches!(
            c.store(1, Addr::new(0x1004), &dword(1)),
            Err(CsbError::BadStore { .. })
        ));
        assert!(matches!(
            c.store(1, Addr::new(0x1000), &[0u8; 3]),
            Err(CsbError::BadStore { .. })
        ));
        assert!(matches!(
            c.store(1, Addr::new(0x1000), &[]),
            Err(CsbError::BadStore { .. })
        ));
    }

    #[test]
    fn flush_on_empty_buffer_fails() {
        let mut c = csb();
        assert_eq!(
            c.conditional_flush(1, Addr::new(0x1000), 0),
            FlushOutcome::Fail
        );
    }

    #[test]
    fn clear_discards_state() {
        let mut c = csb();
        c.store(1, Addr::new(0x1000), &dword(1)).unwrap();
        c.clear();
        assert_eq!(
            c.conditional_flush(1, Addr::new(0x1000), 1),
            FlushOutcome::Fail
        );
    }

    #[test]
    fn repeated_store_to_same_byte_counts() {
        // The counter counts stores, not bytes: two stores to the same
        // doubleword give count 2 with 8 payload bytes.
        let mut c = csb();
        let line = Addr::new(0x1000);
        c.store(1, line, &dword(1)).unwrap();
        c.store(1, line, &dword(2)).unwrap();
        assert_eq!(c.conditional_flush(1, line, 2), FlushOutcome::Success);
        let t = c.transaction_accepted();
        assert_eq!(t.txn.payload, 8);
        assert_eq!(&t.data[..8], &dword(2));
    }

    #[test]
    fn register_value_semantics() {
        assert_eq!(FlushOutcome::Success.register_value(8), 8);
        assert_eq!(FlushOutcome::Fail.register_value(8), 0);
    }

    #[test]
    fn stats_display_summarizes_counters() {
        let mut c = csb();
        let line = Addr::new(0x1000);
        c.store(1, line, &dword(1)).unwrap();
        c.store(1, line.offset(8), &dword(2)).unwrap();
        c.conditional_flush(1, line, 2);
        let s = c.stats().to_string();
        assert_eq!(
            s,
            "csb: 2 stores (1 resets, 0 cross-pid), 1/1 flushes ok, 1 bursts, \
             16 payload bytes, 0 busy stalls"
        );
    }

    #[test]
    fn trace_sink_records_store_and_flush_lifecycle() {
        let mut c = csb();
        let sink = TraceSink::enabled();
        c.set_trace_sink(sink.clone());
        let line = Addr::new(0x1000);
        sink.set_now(5);
        c.store(1, line, &dword(1)).unwrap();
        c.store(1, line.offset(8), &dword(2)).unwrap();
        sink.set_now(9);
        c.conditional_flush(1, line.offset(8), 2);
        // Busy stall after the flush (single-buffered).
        c.store(1, line, &dword(3)).unwrap_err();
        let kinds: Vec<&'static str> = sink.snapshot().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "csb.store",
                "csb.store",
                "csb.flush",
                "csb.flush.done",
                "csb.busy"
            ]
        );
        let events = sink.snapshot();
        assert_eq!(events[0].cycle, 5);
        assert!(matches!(
            events[0].kind,
            EventKind::CsbStore {
                reset: true,
                count: 1,
                ..
            }
        ));
        // The flush attempt reports the line-aligned address.
        assert!(matches!(
            events[2].kind,
            EventKind::CsbFlushAttempt {
                addr: 0x1000,
                expected: 2,
                ..
            }
        ));
        assert!(matches!(
            events[3].kind,
            EventKind::CsbFlushOutcome {
                success: true,
                payload: 16,
            }
        ));
        assert_eq!(events[4].cycle, 9);
    }

    #[test]
    fn error_display() {
        assert!(!CsbError::Busy.to_string().is_empty());
        let e = CsbError::BadStore {
            addr: Addr::new(4),
            width: 3,
        };
        assert!(e.to_string().contains("3B"));
    }
}
