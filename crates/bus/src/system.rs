//! The system bus: occupancy, ordering, and completion tracking.

use csb_faults::{FaultInjector, FaultKind};
use csb_obs::{EventKind, TraceSink, Track};
use serde::Serialize;

use crate::config::BusConfig;
use crate::stats::BusStats;
use crate::transaction::{Transaction, TxnError};

/// Issue receipt returned by [`SystemBus::try_issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Issued {
    /// The transaction's address cycle (= the issue cycle).
    pub addr_cycle: u64,
    /// The transaction's final data cycle (inclusive).
    pub completes_at: u64,
    /// Tag copied from the transaction.
    pub tag: u64,
}

/// A cycle-level system bus shared by memory and I/O traffic.
///
/// The model enforces the paper's ordering rules for uncached traffic:
/// transactions never overlap, a configurable turnaround separates them, and
/// consecutive address cycles are at least `min_addr_delay` apart (the
/// unpipelined-acknowledgment penalty for strongly ordered I/O accesses).
///
/// Drive it by polling: call [`SystemBus::can_accept`] each bus cycle and
/// [`SystemBus::try_issue`] when there is a transaction to send.
///
/// # Examples
///
/// ```
/// use csb_bus::{BusConfig, SystemBus, Transaction};
/// use csb_isa::Addr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Figure 3(h): minimum 4 cycles between address cycles.
/// let cfg = BusConfig::multiplexed(8).min_addr_delay(4).build()?;
/// let mut bus = SystemBus::new(cfg);
///
/// let a = bus.try_issue(0, Transaction::write(Addr::new(0x0), 8))?.unwrap();
/// assert_eq!(a.completes_at, 1);
/// // The bus itself is free at cycle 2, but the next address cycle must
/// // wait for the acknowledgment window.
/// assert!(!bus.can_accept(2));
/// assert!(bus.can_accept(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SystemBus {
    cfg: BusConfig,
    /// Earliest cycle the next transaction may start (occupancy+turnaround).
    next_free: u64,
    /// Address cycle of the most recent transaction.
    last_addr: Option<u64>,
    /// Fair-share accumulator for the background-traffic model: bus cycles
    /// owed to foreign masters.
    foreign_debt: f64,
    stats: BusStats,
    /// Structured trace sink (disabled by default; see
    /// [`SystemBus::set_trace_sink`]).
    sink: TraceSink,
    /// Fault-injection hook (disabled by default; see
    /// [`SystemBus::set_fault_hook`]).
    faults: FaultInjector,
}

impl SystemBus {
    /// Creates an idle bus.
    pub fn new(cfg: BusConfig) -> Self {
        SystemBus {
            cfg,
            next_free: 0,
            last_addr: None,
            foreign_debt: 0.0,
            stats: BusStats::default(),
            sink: TraceSink::disabled(),
            faults: FaultInjector::disabled(),
        }
    }

    /// Installs a fault-injection hook. Each accepted issue asks the
    /// schedule whether the transaction errors ([`FaultKind::BusError`]):
    /// an errored transaction consumes its occupancy (address + data
    /// cycles, turnaround, address-delay window, and any foreign-debt
    /// accrual) exactly like a successful one, but delivers nothing and
    /// is *not* recorded in [`SystemBus::stats`] — the master sees
    /// [`SystemBus::try_issue`] return `Ok(None)` and must re-arbitrate.
    /// Bounded hardware retry comes from the schedule's
    /// `max_consecutive` parameter, which forces an eventual clean slot.
    pub fn set_fault_hook(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Installs a structured trace sink; every local transaction emits a
    /// [`EventKind::BusTxn`] span and every foreign occupancy a
    /// [`EventKind::ForeignTxn`] span. Timestamps passed to the bus are in
    /// bus cycles, so callers should hand in a handle pre-scaled by the
    /// CPU:bus frequency ratio (see [`TraceSink::scaled`]).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Earliest cycle at or after `now` at which a new transaction may
    /// present its address.
    pub fn earliest_start(&self, now: u64) -> u64 {
        let mut t = now.max(self.next_free);
        if let Some(last) = self.last_addr {
            t = t.max(last + self.cfg.min_addr_delay());
        }
        t
    }

    /// Returns `true` if a transaction presented at `now` would be accepted
    /// immediately.
    pub fn can_accept(&self, now: u64) -> bool {
        self.earliest_start(now) == now
    }

    /// Validates a transaction against the bus's architectural rules without
    /// issuing it.
    ///
    /// # Errors
    ///
    /// Returns [`TxnError`] if the size is not a power of two within the
    /// maximum burst, the address is not naturally aligned, or the payload
    /// exceeds the size.
    pub fn validate(&self, txn: &Transaction) -> Result<(), TxnError> {
        if txn.size == 0 || !txn.size.is_power_of_two() || txn.size > self.cfg.max_burst() {
            return Err(TxnError::BadSize {
                size: txn.size,
                max_burst: self.cfg.max_burst(),
            });
        }
        if !txn.addr.is_aligned(txn.size as u64) {
            return Err(TxnError::Misaligned {
                addr: txn.addr,
                size: txn.size,
            });
        }
        if txn.payload > txn.size {
            return Err(TxnError::BadPayload {
                payload: txn.payload,
                size: txn.size,
            });
        }
        Ok(())
    }

    /// Attempts to issue `txn` at bus cycle `now`.
    ///
    /// Returns `Ok(None)` if the bus cannot accept a transaction this cycle
    /// (occupied, in turnaround, or within the address-delay window).
    ///
    /// # Errors
    ///
    /// Returns [`TxnError`] for architecturally illegal transactions (see
    /// [`SystemBus::validate`]); illegal transactions are rejected even when
    /// the bus is busy.
    pub fn try_issue(&mut self, now: u64, txn: Transaction) -> Result<Option<Issued>, TxnError> {
        self.validate(&txn)?;
        if !self.can_accept(now) {
            return Ok(None);
        }
        let duration = self.cfg.transaction_cycles(txn.size);
        let completes_at = now + duration - 1;
        self.next_free = completes_at + 1 + self.cfg.turnaround();
        self.last_addr = Some(now);
        // An injected bus error consumes the occupancy just computed but
        // delivers nothing: the caller sees `Ok(None)` (the same signal as
        // a busy bus), keeps the transaction queued, and re-arbitrates.
        let faulted = self.faults.inject(FaultKind::BusError);
        if faulted {
            self.sink.emit_span(
                now,
                duration,
                Track::Bus,
                EventKind::BusFault {
                    addr: txn.addr.raw(),
                    size: txn.size,
                },
            );
        } else {
            self.stats.record(now, completes_at, txn.size, txn.payload);
            self.sink.emit_span(
                now,
                duration,
                Track::Bus,
                EventKind::BusTxn {
                    addr: txn.addr.raw(),
                    size: txn.size,
                    payload: txn.payload,
                    write: matches!(txn.kind, crate::transaction::TxnKind::Write),
                    tag: txn.tag,
                },
            );
        }
        // Fair arbitration against foreign masters: every local transaction
        // accrues a proportional debt of foreign bus time, paid off as whole
        // foreign transactions before the local master may issue again.
        if let Some(bg) = self.cfg.background() {
            let foreign = self.cfg.transaction_cycles(bg.burst);
            self.foreign_debt += duration as f64 * bg.utilization / (1.0 - bg.utilization);
            while self.foreign_debt >= foreign as f64 {
                let start = self.next_free;
                self.next_free += foreign + self.cfg.turnaround();
                self.foreign_debt -= foreign as f64;
                self.stats.record_foreign(foreign);
                self.sink.emit_span(
                    start,
                    foreign,
                    Track::Foreign,
                    EventKind::ForeignTxn { size: bg.burst },
                );
            }
        }
        if faulted {
            return Ok(None);
        }
        Ok(Some(Issued {
            addr_cycle: now,
            completes_at,
            tag: txn.tag,
        }))
    }

    /// Walks the bus timing state and statistics. The trace sink and
    /// fault hook are wiring, not state — the restoring side re-installs
    /// them, into an idle bus with the same configuration. The stream
    /// does not say which cycle the bus resumes at, so the caller checks
    /// the restored state against it with [`SystemBus::check_restored`].
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        s.tag("bus")?;
        s.u64(&mut self.next_free)?;
        s.opt_u64(&mut self.last_addr)?;
        s.f64(&mut self.foreign_debt)?;
        self.stats.state(s)
    }

    /// Rejects restored timing state that no run reaches by bus cycle
    /// `now`: an address cycle after `now`, a next free cycle later than
    /// the last transaction can occupy the bus, or foreign debt outside
    /// what one local transaction leaves behind. Callers that jump to
    /// [`SystemBus::earliest_start`] trust it to lie a bounded distance
    /// ahead.
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError::Corrupt`] naming the first bad field.
    pub fn check_restored(&self, now: u64) -> Result<(), csb_snap::SnapshotError> {
        let corrupt = |what: String| Err(csb_snap::SnapshotError::Corrupt(what));
        let foreign = self
            .cfg
            .background()
            .map(|bg| self.cfg.transaction_cycles(bg.burst));
        let debt_ok = match foreign {
            Some(cycles) => (0.0..cycles as f64).contains(&self.foreign_debt),
            None => self.foreign_debt == 0.0,
        };
        if !debt_ok {
            return corrupt(format!("bus foreign debt {}", self.foreign_debt));
        }
        let Some(last) = self.last_addr else {
            return match self.next_free {
                0 => Ok(()),
                free => corrupt(format!("idle bus free from cycle {free}")),
            };
        };
        if last > now {
            return corrupt(format!("bus address cycle {last} after cycle {now}"));
        }
        if self.next_free <= last || self.next_free - last > self.occupancy_bound() {
            return corrupt(format!(
                "bus free from cycle {} after an address cycle at {last}",
                self.next_free
            ));
        }
        Ok(())
    }

    /// The most bus cycles one issue can push `next_free` past its address
    /// cycle: the longest transaction and its turnaround, then the foreign
    /// transactions its debt can buy. The debt left before the issue is
    /// under one foreign transaction, and the issue adds its duration
    /// times `u / (1 - u)`.
    fn occupancy_bound(&self) -> u64 {
        let turnaround = self.cfg.turnaround();
        let longest = self.cfg.transaction_cycles(self.cfg.max_burst());
        let foreign = self.cfg.background().map_or(0, |bg| {
            let cycles = self.cfg.transaction_cycles(bg.burst);
            let owed = longest as f64 * bg.utilization / (1.0 - bg.utilization);
            // One more for the debt carried in, one for rounding.
            let count = (owed / cycles as f64).ceil() as u64 + 2;
            count.saturating_mul(cycles + turnaround)
        });
        (longest + turnaround).saturating_add(foreign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BusConfigError;
    use crate::transaction::TxnKind;
    use csb_isa::Addr;

    fn mux8() -> SystemBus {
        SystemBus::new(BusConfig::multiplexed(8).max_burst(64).build().unwrap())
    }

    #[test]
    fn back_to_back_singles_give_4_bytes_per_cycle() {
        // Paper §4.3.1: without combining, each store is a two-cycle
        // transaction and the effective bandwidth is 4 bytes per bus cycle.
        let mut bus = mux8();
        let mut now = 0;
        for i in 0..8u64 {
            let txn = Transaction::write(Addr::new(i * 8), 8);
            let issued = bus.try_issue(now, txn).unwrap().unwrap();
            now = issued.completes_at + 1;
        }
        assert_eq!(bus.stats().window_cycles(), 16);
        assert_eq!(bus.stats().effective_bandwidth(), 4.0);
    }

    #[test]
    fn turnaround_spacing_matches_paper_example() {
        // Paper: with a turnaround cycle, one doubleword transaction takes 2
        // cycles, two take 5, three take 8 (the trailing turnaround is not
        // counted).
        for n in 1..=5u64 {
            let cfg = BusConfig::multiplexed(8).turnaround(1).build().unwrap();
            let mut bus = SystemBus::new(cfg);
            let mut now = 0;
            for i in 0..n {
                now = bus.earliest_start(now);
                let issued = bus
                    .try_issue(now, Transaction::write(Addr::new(i * 8), 8))
                    .unwrap()
                    .unwrap();
                now = issued.completes_at + 1;
            }
            assert_eq!(bus.stats().window_cycles(), 3 * n - 1);
        }
    }

    #[test]
    fn min_addr_delay_blocks_early_reissue() {
        let cfg = BusConfig::multiplexed(8).min_addr_delay(8).build().unwrap();
        let mut bus = SystemBus::new(cfg);
        bus.try_issue(0, Transaction::write(Addr::new(0), 8))
            .unwrap()
            .unwrap();
        for c in 1..8 {
            assert!(!bus.can_accept(c), "cycle {c} should be blocked");
        }
        assert!(bus.can_accept(8));
        // An 8-cycle burst (9 cycles on a multiplexed bus) completely hides
        // a 4-cycle acknowledgment window (paper, Figure 3(h) discussion).
        let cfg = BusConfig::multiplexed(8).min_addr_delay(4).build().unwrap();
        let mut bus = SystemBus::new(cfg);
        let issued = bus
            .try_issue(0, Transaction::write(Addr::new(0), 64))
            .unwrap()
            .unwrap();
        assert_eq!(issued.completes_at, 8);
        assert!(bus.can_accept(9));
    }

    #[test]
    fn rejects_illegal_transactions() {
        let mut bus = mux8();
        assert!(matches!(
            bus.try_issue(0, Transaction::write(Addr::new(0), 24)),
            Err(TxnError::BadSize { .. })
        ));
        assert!(matches!(
            bus.try_issue(0, Transaction::write(Addr::new(8), 16)),
            Err(TxnError::Misaligned { .. })
        ));
        assert!(matches!(
            bus.try_issue(0, Transaction::write(Addr::new(0), 128)),
            Err(TxnError::BadSize { .. })
        ));
        assert!(matches!(
            bus.try_issue(0, Transaction::write(Addr::new(0), 8).payload(16)),
            Err(TxnError::BadPayload { .. })
        ));
        // Reads validate the same way.
        assert!(bus.try_issue(0, Transaction::read(Addr::new(0), 8)).is_ok());
    }

    #[test]
    fn busy_bus_returns_none() {
        let mut bus = mux8();
        bus.try_issue(0, Transaction::write(Addr::new(0), 64))
            .unwrap()
            .unwrap();
        assert_eq!(
            bus.try_issue(4, Transaction::write(Addr::new(64), 8))
                .unwrap(),
            None
        );
        assert!(bus
            .try_issue(9, Transaction::write(Addr::new(64), 8))
            .unwrap()
            .is_some());
    }

    #[test]
    fn fault_hook_consumes_slot_without_recording() {
        use csb_faults::FaultConfig;
        let mut bus = mux8();
        // Every issue faults until the consecutive bound forces a clean
        // slot: bounded hardware retry.
        bus.set_fault_hook(FaultInjector::enabled(
            FaultConfig::new(1).bus_error_rate(1.0).max_consecutive(2),
        ));
        let txn = Transaction::write(Addr::new(0), 8);
        assert_eq!(bus.try_issue(0, txn).unwrap(), None); // fault 1
        assert!(!bus.can_accept(1)); // slot was consumed anyway
        let mut now = bus.earliest_start(1);
        assert_eq!(bus.try_issue(now, txn).unwrap(), None); // fault 2
        now = bus.earliest_start(now);
        let issued = bus.try_issue(now, txn).unwrap();
        assert!(issued.is_some(), "third attempt must be forced clean");
        assert_eq!(bus.faults.stats().injected(FaultKind::BusError), 2);
        // Errored transactions never enter the architectural statistics.
        assert_eq!(bus.stats().transactions, 1);
        // An errored issue's address cycle still opens the address-delay
        // window, which governs the retry grant.
        let cfg = BusConfig::multiplexed(8).min_addr_delay(8).build().unwrap();
        let mut bus = SystemBus::new(cfg);
        bus.set_fault_hook(FaultInjector::enabled(
            FaultConfig::new(1).bus_error_rate(1.0).max_consecutive(1),
        ));
        assert_eq!(bus.try_issue(0, txn).unwrap(), None);
        assert_eq!(bus.earliest_start(2), 8);
    }

    #[test]
    fn fault_hook_emits_bus_fault_spans() {
        use csb_faults::FaultConfig;
        let mut bus = mux8();
        let sink = TraceSink::enabled();
        bus.set_trace_sink(sink.scaled(6));
        bus.set_fault_hook(FaultInjector::enabled(
            FaultConfig::new(1).bus_error_rate(1.0).max_consecutive(1),
        ));
        assert_eq!(
            bus.try_issue(0, Transaction::write(Addr::new(0x40), 8))
                .unwrap(),
            None
        );
        let events = sink.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].track, Track::Bus);
        assert!(matches!(
            events[0].kind,
            EventKind::BusFault {
                addr: 0x40,
                size: 8
            }
        ));
        assert_eq!(events[0].kind.name(), "fault.bus");
    }

    #[test]
    fn split_bus_sub_width_wastes_bandwidth() {
        // Paper Figure 4(a): a doubleword uses half of a 128-bit bus.
        let cfg = BusConfig::split(16).max_burst(64).build().unwrap();
        let mut bus = SystemBus::new(cfg);
        let mut now = 0;
        for i in 0..8u64 {
            let issued = bus
                .try_issue(now, Transaction::write(Addr::new(i * 8), 8))
                .unwrap()
                .unwrap();
            now = issued.completes_at + 1;
        }
        assert_eq!(bus.stats().effective_bandwidth(), 8.0); // half of 16 B/c
    }

    #[test]
    fn busy_until_its_transaction_ends() {
        let mut bus = mux8();
        assert!(bus.can_accept(0));
        bus.try_issue(0, Transaction::write(Addr::new(0), 64))
            .unwrap()
            .unwrap();
        assert!(!bus.can_accept(5));
        assert!(bus.can_accept(9));
    }

    #[test]
    fn tag_round_trips() {
        let mut bus = mux8();
        let issued = bus
            .try_issue(0, Transaction::write(Addr::new(0), 8).tag(42))
            .unwrap()
            .unwrap();
        assert_eq!(issued.tag, 42);
        assert_eq!(issued.addr_cycle, 0);
    }

    #[test]
    fn config_error_display() {
        let e = BusConfig::multiplexed(7).build().unwrap_err();
        assert!(matches!(e, BusConfigError::BadWidth(7)));
        let _ = TxnKind::Write;
    }

    #[test]
    fn background_traffic_shares_the_bus_fairly() {
        // 50% utilization with equal burst sizes: every local transaction
        // is followed by one foreign transaction of the same length, so the
        // local master gets exactly half the raw bandwidth.
        let cfg = BusConfig::multiplexed(8)
            .max_burst(64)
            .background(0.5, 8)
            .build()
            .unwrap();
        let mut bus = SystemBus::new(cfg);
        let mut now = 0;
        for i in 0..10u64 {
            now = bus.earliest_start(now);
            let issued = bus
                .try_issue(now, Transaction::write(Addr::new(i * 8), 8))
                .unwrap()
                .unwrap();
            now = issued.completes_at + 1;
        }
        let s = bus.stats();
        assert_eq!(s.transactions, 10);
        assert_eq!(s.foreign_transactions, 10);
        assert_eq!(s.foreign_cycles, 20);
        // Window: 10 local + 10 foreign 2-cycle txns, minus the trailing
        // foreign one that falls outside the last local data cycle.
        assert!((s.effective_bandwidth() - 80.0 / 38.0).abs() < 1e-9);
    }

    #[test]
    fn background_matches_turnaround_approximation_at_one_third() {
        // The paper reads a turnaround cycle as "an approximation of a
        // heavily loaded bus". For 2-cycle doubleword transactions, one
        // idle cycle per transaction equals a foreign utilization of 1/3:
        // both settle at 8 bytes per 3 bus cycles.
        let approx = BusConfig::multiplexed(8).turnaround(1).build().unwrap();
        let real = BusConfig::multiplexed(8)
            .background(1.0 / 3.0, 16)
            .build()
            .unwrap();
        let run = |cfg: BusConfig| {
            let mut bus = SystemBus::new(cfg);
            let mut now = 0;
            for i in 0..64u64 {
                now = bus.earliest_start(now);
                let issued = bus
                    .try_issue(now, Transaction::write(Addr::new(i * 8), 8))
                    .unwrap()
                    .unwrap();
                now = issued.completes_at + 1;
            }
            bus.stats().effective_bandwidth()
        };
        let (a, r) = (run(approx), run(real));
        assert!(
            (a - r).abs() < 0.2,
            "turnaround approx {a} vs real contention {r}"
        );
    }

    #[test]
    fn background_config_validation() {
        assert!(matches!(
            BusConfig::multiplexed(8).background(1.5, 8).build(),
            Err(BusConfigError::BadBackground(_))
        ));
        assert!(matches!(
            BusConfig::multiplexed(8).background(0.5, 24).build(),
            Err(BusConfigError::BadBackground(_))
        ));
        assert!(matches!(
            BusConfig::multiplexed(8)
                .max_burst(64)
                .background(0.5, 128)
                .build(),
            Err(BusConfigError::BadBackground(_))
        ));
        let e = BusConfig::multiplexed(8)
            .background(1.5, 8)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn trace_sink_records_local_and_foreign_spans() {
        let cfg = BusConfig::multiplexed(8)
            .background(0.5, 8)
            .build()
            .unwrap();
        let mut bus = SystemBus::new(cfg);
        let sink = TraceSink::enabled();
        // Pretend a 6:1 CPU:bus ratio, as the full simulator does.
        bus.set_trace_sink(sink.scaled(6));
        bus.try_issue(0, Transaction::write(Addr::new(0x40), 8).tag(9))
            .unwrap()
            .unwrap();
        let events = sink.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].track, Track::Bus);
        assert_eq!(events[0].dur, 12); // 2 bus cycles × 6
        assert!(matches!(
            events[0].kind,
            EventKind::BusTxn {
                addr: 0x40,
                write: true,
                tag: 9,
                ..
            }
        ));
        assert_eq!(events[1].track, Track::Foreign);
        assert_eq!(events[1].cycle, 12); // foreign txn starts at bus cycle 2
    }

    #[test]
    fn zero_utilization_is_harmless() {
        let cfg = BusConfig::multiplexed(8)
            .background(0.0, 8)
            .build()
            .unwrap();
        let mut bus = SystemBus::new(cfg);
        bus.try_issue(0, Transaction::write(Addr::new(0), 8))
            .unwrap()
            .unwrap();
        assert_eq!(bus.stats().foreign_transactions, 0);
        assert!(bus.can_accept(2));
    }

    #[test]
    fn every_state_a_run_reaches_passes_the_restore_check() {
        for (utilization, burst, turnaround, delay) in [
            (0.0, 8, 0, 0),
            (1.0 / 3.0, 64, 0, 0),
            (0.5, 8, 1, 4),
            (0.9, 64, 1, 0),
            (0.99, 8, 0, 8),
        ] {
            let cfg = BusConfig::multiplexed(8)
                .max_burst(64)
                .turnaround(turnaround)
                .min_addr_delay(delay)
                .background(utilization, burst)
                .build()
                .unwrap();
            let mut bus = SystemBus::new(cfg);
            assert!(bus.check_restored(0).is_ok());
            let mut now = 0;
            for i in 0..200u64 {
                let size = 8 << (i % 4);
                now = bus.earliest_start(now);
                let txn = Transaction::write(Addr::new(i * 64), size);
                let issued = bus.try_issue(now, txn).unwrap().unwrap();
                for at in [now, now + 1, bus.earliest_start(now)] {
                    assert!(bus.check_restored(at).is_ok(), "u {utilization}, issue {i}");
                }
                now = issued.completes_at + 1;
            }
        }
    }

    #[test]
    fn restored_timing_no_run_reaches_is_rejected() {
        let mut bus = mux8();
        bus.try_issue(30, Transaction::write(Addr::new(0), 64))
            .unwrap()
            .unwrap();
        assert!(bus.check_restored(30).is_ok());
        assert!(
            bus.check_restored(29).is_err(),
            "address cycle in the future"
        );
        let mut far = bus.clone();
        far.next_free += 1 << 63;
        assert!(
            far.check_restored(1 << 40).is_err(),
            "horizon past the transaction"
        );
        let mut idle = mux8();
        idle.next_free = 5;
        assert!(
            idle.check_restored(10).is_err(),
            "horizon without a transaction"
        );
        let mut owed = bus.clone();
        owed.foreign_debt = 1.0;
        assert!(
            owed.check_restored(30).is_err(),
            "debt without foreign traffic"
        );
    }
}
