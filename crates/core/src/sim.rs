//! The clocked full-system simulator.

use std::collections::HashMap;
use std::fmt;

use csb_bus::{BusStats, SystemBus, TxnKind};
use csb_cpu::{Cpu, CpuHorizon, CpuStats, MemPort, Pid, StallCause};
use csb_faults::{FaultConfig, FaultInjector, FaultKind, FaultStats};
use csb_isa::{Addr, AddressMap, AddressSpace, Program};
use csb_mem::{AccessKind, FlatMemory, HitLevel, MemoryHierarchy, MemoryStats};
use csb_obs::{
    EventKind, MetricsRegistry, MetricsSnapshot, TimelineEvent, TraceEvent, TraceSink, Track,
};
use csb_uncached::{
    ConditionalStoreBuffer, CsbError, CsbStats, PayloadBuf, PushOutcome, StoreOutcome,
    UncachedBuffer, UncachedStats,
};
use serde::Serialize;

use crate::config::{SimConfig, SimConfigError};
use crate::device::IoDevice;

/// Error from constructing or running a [`Simulator`].
#[derive(Debug)]
pub enum SimError {
    /// Inconsistent machine configuration.
    Config(SimConfigError),
    /// A component rejected its configuration.
    Component(String),
    /// The program did not halt (and drain) within the cycle limit.
    CycleLimit {
        /// The limit that was hit, in CPU cycles.
        limit: u64,
    },
    /// The progress watchdog detected a livelock: the machine is still
    /// ticking but provably going nowhere (see [`WatchdogConfig`]). The
    /// boxed report carries the trigger and a per-actor state snapshot.
    Livelock(Box<LivelockReport>),
    /// The program issued an uncached or combining access that is not
    /// naturally aligned. The machine models no trap for it, so the
    /// access is dropped and the run stops.
    Misaligned {
        /// CPU cycle the access issued at.
        cycle: u64,
        /// The access's address.
        addr: u64,
        /// Its width in bytes.
        width: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid machine configuration: {e}"),
            SimError::Component(e) => write!(f, "component configuration rejected: {e}"),
            SimError::CycleLimit { limit } => {
                write!(f, "simulation did not complete within {limit} CPU cycles")
            }
            SimError::Livelock(r) => write!(f, "{r}"),
            SimError::Misaligned { cycle, addr, width } => write!(
                f,
                "cycle {cycle}: misaligned {width}-byte uncached access at {addr:#x}"
            ),
        }
    }
}

/// What convinced the watchdog the run is livelocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivelockTrigger {
    /// No instruction retired and no bus transaction was accepted or
    /// delivered for [`WatchdogConfig::stall_cycles`] CPU cycles: the
    /// machine is hard-stalled (e.g. a device NACKing every delivery).
    HardStall,
    /// [`WatchdogConfig::futile_flushes`] conditional flushes failed in a
    /// row without a single success or device delivery in between: the
    /// software retry loop is spinning without progress (the paper's
    /// §3.2 livelock — instructions still retire, so this is invisible
    /// to the hard-stall trigger).
    FlushFutility,
}

impl fmt::Display for LivelockTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LivelockTrigger::HardStall => f.write_str("hard stall"),
            LivelockTrigger::FlushFutility => f.write_str("flush futility"),
        }
    }
}

/// One actor's state at the moment the watchdog fired. For a plain
/// [`Simulator`] run there is a single actor (the running process); a
/// [`crate::multiproc::MultiSim`] replaces the list with one entry per
/// time-sliced process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorState {
    /// Actor label (`"pid0"`, or `"proc2"` under [`crate::multiproc`]).
    pub name: String,
    /// `true` if this actor owned the core when the watchdog fired.
    pub running: bool,
    /// `true` if the actor's program has halted.
    pub halted: bool,
    /// Completion cycle, when the actor finished before the livelock.
    pub completion_cycle: Option<u64>,
    /// Current scheduler slice in CPU cycles (0 outside multiproc runs).
    pub slice: u64,
}

impl fmt::Display for ActorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.name)?;
        match (self.halted, self.running) {
            (true, _) => write!(f, "done")?,
            (false, true) => write!(f, "running")?,
            (false, false) => write!(f, "waiting")?,
        }
        if let Some(c) = self.completion_cycle {
            write!(f, "@{c}")?;
        }
        if self.slice > 0 {
            write!(f, ", slice {}", self.slice)?;
        }
        f.write_str("]")
    }
}

/// The structured diagnostic carried by [`SimError::Livelock`].
#[derive(Debug, Clone, PartialEq)]
pub struct LivelockReport {
    /// CPU cycle at which the watchdog fired.
    pub cycle: u64,
    /// Which condition fired.
    pub trigger: LivelockTrigger,
    /// CPU cycles since the last retirement or bus progress.
    pub no_progress_for: u64,
    /// Failed conditional flushes since the last success or delivery.
    pub consecutive_flush_failures: u64,
    /// Instructions retired in total.
    pub retired: u64,
    /// Bus transactions completed in total.
    pub bus_transactions: u64,
    /// Faults injected by the active schedule (0 without one).
    pub injected_faults: u64,
    /// CSB counters at the time of the report.
    pub csb: CsbStats,
    /// One entry per process known to the run.
    pub actors: Vec<ActorState>,
}

impl fmt::Display for LivelockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "livelock detected at cycle {} ({}): {} consecutive failed \
             flushes, {} cycles without progress, {} retired, {} bus txns, \
             {} injected faults; actors:",
            self.cycle,
            self.trigger,
            self.consecutive_flush_failures,
            self.no_progress_for,
            self.retired,
            self.bus_transactions,
            self.injected_faults
        )?;
        for a in &self.actors {
            write!(f, " {a}")?;
        }
        Ok(())
    }
}

/// Progress-watchdog thresholds (see [`Simulator::set_watchdog`]).
///
/// Both triggers are conservative: they fire only on provable
/// non-progress, never on a slow-but-advancing run, and detection is
/// cycle-exact — the naive tick loop and the fast-forward path report
/// the livelock at the same cycle with the same statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Fire [`LivelockTrigger::HardStall`] after this many CPU cycles
    /// with no retirement and no bus progress (0 disables the trigger).
    pub stall_cycles: u64,
    /// Fire [`LivelockTrigger::FlushFutility`] after this many
    /// consecutive failed conditional flushes with no success and no
    /// device delivery in between (0 disables the trigger).
    pub futile_flushes: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_cycles: 10_000,
            futile_flushes: 64,
        }
    }
}

impl WatchdogConfig {
    /// A watchdog that never fires.
    pub fn disabled() -> Self {
        WatchdogConfig {
            stall_cycles: 0,
            futile_flushes: 0,
        }
    }
}

impl std::error::Error for SimError {}

impl From<SimConfigError> for SimError {
    fn from(e: SimConfigError) -> Self {
        SimError::Config(e)
    }
}

/// Everything outside the core; implements [`MemPort`] for the CPU.
#[derive(Debug)]
pub(crate) struct Machine {
    map: AddressMap,
    pub(crate) flat: FlatMemory,
    pub(crate) hier: MemoryHierarchy,
    ubuf: UncachedBuffer,
    csb: ConditionalStoreBuffer,
    bus: SystemBus,
    ratio: u64,
    /// Mirror of the CPU clock, kept by the tick loop for latency math.
    now: u64,
    device: IoDevice,
    /// Uncached reads between the bus and the core's poll, by tag: swaps
    /// still on the bus and delivered values. A load has no entry until
    /// its value is delivered.
    reads: HashMap<u64, Read>,
    /// Structured trace sink shared with every component (disabled unless
    /// [`Simulator::enable_tracing`] ran).
    obs: TraceSink,
    /// Metrics registry (disabled unless [`Simulator::enable_metrics`] ran).
    metrics: MetricsRegistry,
    /// CPU cycle of the combining store that started the current CSB line
    /// (for the store→flush gap histogram).
    csb_line_start: Option<u64>,
    /// CPU cycle of the first failed conditional flush of the current retry
    /// sequence (for the flush retry latency histogram).
    csb_retry_since: Option<u64>,
    /// Master handle on the fault schedule (clones installed into the bus
    /// and CSB hooks); disabled unless [`Simulator::set_faults`] ran.
    faults: FaultInjector,
    /// Monotone count of bus transactions accepted and delivered — the
    /// machine-side progress signal the livelock watchdog monitors.
    /// Faulted issues and NACKed deliveries do *not* count.
    progress: u64,
    /// CPU cycle at which the watchdog would observe the most recent
    /// `progress` increment in the naive loop: the accepting cycle + 1
    /// (the naive tick advances the clock before the watchdog check).
    /// Keeping this per-accept stamp lets bulk-applied accepts reset the
    /// hard-stall deadline at exactly the cycle the naive loop would.
    progress_at: u64,
    /// Consecutive failed conditional flushes with no success and no
    /// device delivery in between (the watchdog's futility signal).
    futile_flushes: u64,
    /// The first misaligned uncached or combining access — cycle, address,
    /// width — which the run reports as [`SimError::Misaligned`].
    misaligned: Option<(u64, Addr, usize)>,
    /// Optional NI attached as the receive side of the I/O window
    /// (`None` by default: detached simulations pay nothing).
    nic: Option<NicAttachment>,
}

/// One uncached read of [`Machine::reads`]: issued through the uncached
/// buffer, it makes one bus round trip before the core polls its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    /// A swap still on the bus, and what it writes when its read delivers.
    Swap { width: usize, value: u64 },
    /// A delivered value, pollable from CPU cycle `ready` on. `swap` tells
    /// a swap's old value from a load's, which the frame lists apart.
    Done { ready: u64, value: u64, swap: bool },
}

impl Read {
    /// The frame list the read is saved in: delivered loads, delivered
    /// swaps, then swaps on the bus.
    fn list(self) -> usize {
        match self {
            Read::Done { swap: false, .. } => 0,
            Read::Done { swap: true, .. } => 1,
            Read::Swap { .. } => 2,
        }
    }
}

/// A [`csb_nic::Nic`] watching bus writes at and above `base`.
#[derive(Debug)]
struct NicAttachment {
    nic: csb_nic::Nic,
    /// Bus address of window offset 0.
    base: u64,
}

/// What one grant attempt in [`Machine::issue_step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueOutcome {
    /// A transaction was accepted and delivered. `from_csb` tells which
    /// buffer drained; `freed_entry` whether the accept released queue
    /// capacity (an uncached entry fully drained, or a CSB burst slot
    /// freed) — the condition that can unblock a capacity-stalled CPU.
    Accepted { from_csb: bool, freed_entry: bool },
    /// The bus fault hook errored the transaction: the slot is spent,
    /// nothing was delivered, the transaction stays queued for retry.
    Faulted,
    /// The device NACKed the write delivery: slot spent, transaction
    /// stays queued and reissues.
    Nacked,
    /// Neither buffer had a transaction to offer.
    NoWork,
}

/// Which bulk-applied bus event must hand control back to real ticking
/// during a [`Machine::fast_forward`] walk — the machine-side mirror of
/// the CPU's [`StallCause`]. Stopping too early is always safe (the next
/// real tick re-evaluates everything); failing to stop when an event
/// could change the CPU's horizon would be unsound, so every mapping
/// below is conservative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainWake {
    /// CPU halted: only a full I/O drain (or the cap) ends the walk.
    Drained,
    /// A membar holds retirement: wake when the uncached buffer empties.
    UncachedDrained,
    /// The head uncached store/load was refused for capacity: wake on
    /// any accept that frees an uncached-buffer entry.
    UncachedAccept,
    /// The head combining store/flush was refused: wake on any CSB-burst
    /// accept (each frees both store and flush capacity).
    CsbAccept,
    /// The CPU waits only on its own timetable (`stall: None`): bus
    /// accepts cannot unblock it — uncached ops issue exclusively at the
    /// ROB head, so no pending completion can appear out of a grant —
    /// and only pending read/swap completions stop the walk.
    None,
}

/// The buffer refusing a stalled head op. Each cycle the op re-attempts,
/// the buffer counts one stall and, under tracing, emits one refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refuser {
    /// The uncached buffer is full.
    Uncached,
    /// The CSB is busy.
    Csb,
}

impl Refuser {
    /// The event a refused re-attempt of the op at `addr` emits.
    fn event(self, addr: Addr) -> (Track, EventKind) {
        match self {
            Refuser::Uncached => (
                Track::Uncached,
                EventKind::UncachedFull { addr: addr.raw() },
            ),
            Refuser::Csb => (Track::Csb, EventKind::CsbBusy { addr: addr.raw() }),
        }
    }
}

impl Machine {
    /// Records `addr` as the run's first misaligned uncached access when
    /// it is not aligned to `width`; the caller then drops the access.
    fn drop_misaligned(&mut self, addr: Addr, width: usize) -> bool {
        if addr.is_aligned(width as u64) {
            return false;
        }
        self.misaligned.get_or_insert((self.now, addr, width));
        true
    }

    fn bus_now(&self) -> u64 {
        self.now / self.ratio
    }

    /// One bus cycle: hand ready transactions to the bus (uncached buffer
    /// first — program order for strongly ordered I/O — then CSB bursts).
    fn bus_tick(&mut self) {
        let bus_now = self.bus_now();
        while self.bus.can_accept(bus_now) {
            if !matches!(
                self.issue_step(bus_now, self.now),
                IssueOutcome::Accepted { .. }
            ) {
                break;
            }
        }
    }

    /// One grant attempt, shared verbatim by the naive loop's [`bus_tick`]
    /// and the fast-forward walk: offers the uncached buffer's head
    /// transaction (program order first), else the CSB's oldest committed
    /// burst, to the bus at `bus_now`. One body serves both sources; the
    /// source decides only which buffer hears of the accept and which
    /// payload histogram it feeds. `cpu_cycle` is the CPU cycle this
    /// grant belongs to; an accept stamps `progress_at = cpu_cycle + 1`,
    /// the cycle the naive loop's watchdog would observe it. The caller
    /// must hold `bus.can_accept(bus_now)`; the fault hooks are invoked in
    /// exactly the naive order (one `BusError` draw inside each accepted
    /// `try_issue` slot, one `DeviceNack` draw per issued write), so the
    /// per-kind fault ordinals — and therefore the whole schedule — replay
    /// identically however many grants are applied per call.
    ///
    /// [`bus_tick`]: Machine::bus_tick
    fn issue_step(&mut self, bus_now: u64, cpu_cycle: u64) -> IssueOutcome {
        let (pt, from_csb) = if let Some(pt) = self.ubuf.peek_transaction() {
            (pt, false)
        } else if let Some(&pt) = self.csb.peek_transaction() {
            (pt, true)
        } else {
            return IssueOutcome::NoWork;
        };
        // `can_accept` held, so `Ok(None)` can only mean the bus fault
        // hook errored the transaction: the slot is spent, nothing was
        // delivered, and the transaction stays queued for hardware retry
        // on a later bus cycle.
        let Some(issued) = self
            .bus
            .try_issue(bus_now, pt.txn)
            .expect("the uncached buffer and the CSB emit only legal transactions")
        else {
            self.metrics.inc("fault_bus_errors");
            self.metrics.timeline_mark(cpu_cycle, TimelineEvent::Fault);
            return IssueOutcome::Faulted;
        };
        if matches!(pt.txn.kind, TxnKind::Write) && self.faults.inject(FaultKind::DeviceNack) {
            // The device NACKed the delivery: the bus slot was spent
            // carrying it, but the transaction stays queued and reissues
            // (each carry counts in the bus stats).
            self.metrics.inc("fault_device_nacks");
            self.metrics.timeline_mark(cpu_cycle, TimelineEvent::Fault);
            // Stamped at the explicit grant cycle so the naive loop (where
            // it equals the shared clock) and the fast-forward walk (where
            // the shared clock is frozen) emit byte-identical events.
            self.obs.emit_at(
                cpu_cycle,
                Track::Bus,
                EventKind::DeviceNack {
                    addr: pt.txn.addr.raw(),
                },
            );
            return IssueOutcome::Nacked;
        }
        let freed_entry = if from_csb {
            // Every CSB accept pops one pending burst, freeing both flush
            // capacity and (single-buffered) store capacity.
            self.csb.transaction_accepted();
            true
        } else {
            let entries_before = self.ubuf.len();
            self.ubuf.transaction_accepted();
            self.ubuf.len() < entries_before
        };
        self.progress += 1;
        self.progress_at = cpu_cycle + 1;
        let histogram = if from_csb {
            "csb_burst_bytes"
        } else {
            "uncached_txn_bytes"
        };
        self.metrics.observe(histogram, pt.txn.payload as u64);
        self.metrics.timeline_mark(
            cpu_cycle,
            TimelineEvent::BusTxn {
                busy_cycles: (issued.completes_at - issued.addr_cycle) * self.ratio,
                payload: pt.txn.payload as u64,
            },
        );
        self.deliver(pt.txn, pt.data, issued.addr_cycle, issued.completes_at);
        IssueOutcome::Accepted {
            from_csb,
            freed_entry,
        }
    }

    fn deliver(
        &mut self,
        txn: csb_bus::Transaction,
        data: PayloadBuf,
        addr_cycle: u64,
        completes_at: u64,
    ) {
        match txn.kind {
            TxnKind::Write => {
                self.flat.write_bytes(txn.addr, &data);
                if let Some(att) = &mut self.nic {
                    if txn.addr.raw() >= att.base {
                        let torn_before = att.nic.stats().torn_frames;
                        let msgs_before = att.nic.messages().len();
                        att.nic
                            .ingest_bytes(txn.addr.raw() - att.base, &data, addr_cycle);
                        // Stamped at the delivery's CPU-cycle equivalent of
                        // the bus address phase — a pure function of the
                        // transaction timeline, so the naive loop and a
                        // fast-forward walk (where the shared clock is
                        // frozen) emit byte-identical streams.
                        let cycle = addr_cycle * self.ratio;
                        for _ in torn_before..att.nic.stats().torn_frames {
                            self.metrics.inc("nic_torn_frames");
                            self.obs.emit_at(
                                cycle,
                                Track::Bus,
                                EventKind::NicTornFrame {
                                    offset: txn.addr.raw() - att.base,
                                },
                            );
                        }
                        for m in &att.nic.messages()[msgs_before..] {
                            self.metrics.inc("nic_messages");
                            self.metrics
                                .observe("nic_e2e_latency", m.device_latency() * self.ratio);
                            self.obs.emit_at(
                                cycle,
                                Track::Bus,
                                EventKind::NicMessage {
                                    sender: m.sender,
                                    seq: m.seq,
                                    len: m.payload.len(),
                                    arrival: m.arrived_at * self.ratio,
                                },
                            );
                        }
                    }
                }
                self.device.deliver(txn.addr, data, txn.payload, addr_cycle);
                // A delivery is forward progress for the retry loop even
                // when the triggering flush itself keeps failing.
                self.futile_flushes = 0;
            }
            TxnKind::Read => {
                // Value travels back with the data phase; the register is
                // written the CPU cycle after the transaction completes.
                let ready = (completes_at + 1) * self.ratio;
                let done = match self.reads.get(&txn.tag) {
                    Some(&Read::Swap { width, value }) => {
                        let old = self.flat.read(txn.addr, width);
                        self.flat.write(txn.addr, width, value);
                        Read::Done {
                            ready,
                            value: old,
                            swap: true,
                        }
                    }
                    _ => Read::Done {
                        ready,
                        value: self.flat.read(txn.addr, txn.size.min(8)),
                        swap: false,
                    },
                };
                self.reads.insert(txn.tag, done);
            }
        }
    }

    fn io_drained(&self) -> bool {
        self.ubuf.is_empty() && self.csb.is_drained()
    }

    /// The value of read `tag`, once delivered and ready at `now`: the
    /// decision behind both the core's poll and its readiness peek.
    fn delivered(&self, tag: u64) -> Option<u64> {
        match self.reads.get(&tag)? {
            &Read::Done { ready, value, .. } if self.now >= ready => Some(value),
            _ => None,
        }
    }

    /// Writes [`Machine::reads`] as the frame's three lists — delivered
    /// loads and delivered swaps as `(tag, ready, value)`, then swaps on
    /// the bus as `(tag, width, value)` — each sorted by tag so the byte
    /// stream is deterministic.
    fn save_reads(&self, w: &mut csb_snap::SnapshotWriter) {
        let mut tags: Vec<u64> = self.reads.keys().copied().collect();
        tags.sort_unstable();
        for list in 0..3 {
            let listed = || tags.iter().filter(|t| self.reads[t].list() == list);
            w.put_usize(listed().count());
            for &tag in listed() {
                w.put_u64(tag);
                match self.reads[&tag] {
                    Read::Done { ready, value, .. } => {
                        w.put_u64(ready);
                        w.put_u64(value);
                    }
                    Read::Swap { width, value } => {
                        w.put_usize(width);
                        w.put_u64(value);
                    }
                }
            }
        }
    }

    /// Restores the lists written by [`Machine::save_reads`], rejecting a
    /// tag listed twice: one tag is one read.
    fn restore_reads(
        &mut self,
        r: &mut csb_snap::SnapshotReader<'_>,
    ) -> Result<(), csb_snap::SnapshotError> {
        self.reads.clear();
        for list in 0..3 {
            for _ in 0..r.take_usize()? {
                let tag = r.take_u64()?;
                let read = if list == 2 {
                    Read::Swap {
                        width: r.take_usize()?,
                        value: r.take_u64()?,
                    }
                } else {
                    Read::Done {
                        ready: r.take_u64()?,
                        value: r.take_u64()?,
                        swap: list == 1,
                    }
                };
                if self.reads.insert(tag, read).is_some() {
                    return Err(csb_snap::SnapshotError::Corrupt(format!(
                        "uncached read tag {tag} listed twice"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Transaction-granular drain walk: bulk-applies every machine-side
    /// event strictly before `target` that cannot change the (stalled or
    /// halted) CPU's behaviour, and returns the CPU cycle at which real
    /// ticking must resume (always `<= target`). Each accepted, faulted,
    /// or NACKed issue costs O(1) — the bus timeline is frozen at issue
    /// time (state mutates exclusively inside `try_issue`), so the walk
    /// hops from `earliest_start` to `earliest_start` instead of ticking
    /// through every occupied cycle.
    ///
    /// Events, in cursor order:
    /// - An outstanding uncached read/swap becoming ready stops the walk
    ///   at its ready cycle: only a real CPU tick can poll it.
    /// - A queued transaction issuing is applied via [`issue_step`] —
    ///   exactly the naive `bus_tick` body, fault hooks included, so the
    ///   per-kind fault ordinals (and therefore any replayed schedule)
    ///   are identical however many grants are bulk-applied. After an
    ///   accept the `wake` condition decides whether the CPU could react:
    ///   if so the walk stops *at the issue cycle* (the naive loop's
    ///   `bus_tick` runs before the CPU tick of the same cycle, so the
    ///   CPU observes the accept at exactly that cycle; re-entering
    ///   `bus_tick` there is a provable no-op because the slot is spent).
    /// - A fully drained I/O system under [`DrainWake::Drained`] resumes
    ///   at the cycle *after* the final accept — mirroring the naive
    ///   loop's last halted tick, which advances the clock past the
    ///   accepting cycle before `complete()` turns true.
    ///
    /// The walk terminates: every issue spends a bus slot, which pushes
    /// `earliest_start` forward by at least one bus cycle.
    ///
    /// # Event synthesis under tracing
    ///
    /// When structured tracing is enabled the walk must leave behind the
    /// byte-identical event stream the naive loop would have: inside the
    /// jump, the only per-cycle emissions are the stalled head op's
    /// refusal events (`uncached.full` / `csb.busy`, one per re-attempted
    /// cycle — `refusal` carries the prebuilt event, `None` for causes
    /// that bump counters without emitting). Everything else is already
    /// stamped correctly: bus spans carry explicit timestamps inside
    /// `try_issue`, and device NACKs are stamped at the grant cycle by
    /// [`issue_step`]. The walk therefore emits the refusal for every
    /// skipped cycle — in nondecreasing cycle order, after any bus events
    /// of the same cycle, matching the naive `bus_tick`-before-CPU-tick
    /// order within each cycle — and emits nothing at a cycle the walk
    /// stops *at*, because that cycle is ticked for real.
    ///
    /// [`issue_step`]: Machine::issue_step
    fn fast_forward(
        &mut self,
        target: u64,
        wake: DrainWake,
        refusal: Option<&(Track, EventKind)>,
    ) -> u64 {
        // First cycle whose refusal event has not been emitted yet.
        let mut cursor = self.now;
        let emit_refusals = |obs: &TraceSink, from: u64, to: u64| {
            if let Some((track, kind)) = refusal {
                for c in from..to {
                    obs.emit_at(c, *track, kind.clone());
                }
            }
        };
        let mut t = self.now;
        loop {
            let ready = self
                .reads
                .values()
                .filter_map(|read| match *read {
                    Read::Done { ready, .. } => Some(ready),
                    Read::Swap { .. } => None,
                })
                .min();
            // First bus tick at or after `t` is bus cycle ceil(t/ratio);
            // the bus accepts at `earliest_start` of that cycle (idempotent
            // at its own result, so that really is the issue cycle).
            let issue = (!self.ubuf.is_empty() || !self.csb.is_drained())
                .then(|| self.bus.earliest_start(t.div_ceil(self.ratio)) * self.ratio);
            let (at, is_issue) = match (ready, issue) {
                (None, None) => {
                    emit_refusals(&self.obs, cursor, target);
                    return target;
                }
                // Ties go to the ready event: stopping early is safe, and
                // the real tick's own `bus_tick` performs the issue.
                (Some(r), Some(i)) if r <= i => (r, false),
                (Some(r), None) => (r, false),
                (_, Some(i)) => (i, true),
            };
            if at >= target {
                emit_refusals(&self.obs, cursor, target);
                return target;
            }
            if !is_issue {
                emit_refusals(&self.obs, cursor, at);
                return at;
            }
            // Refusals strictly before the grant cycle go first; the grant
            // cycle's own refusal is emitted only if the walk continues
            // past it (a stop at `at` means that cycle is ticked for real).
            emit_refusals(&self.obs, cursor, at);
            cursor = cursor.max(at);
            t = at;
            match self.issue_step(at / self.ratio, at) {
                IssueOutcome::Accepted {
                    from_csb,
                    freed_entry,
                } => match wake {
                    DrainWake::Drained => {
                        if self.io_drained() {
                            return at + 1;
                        }
                    }
                    DrainWake::UncachedDrained => {
                        if self.ubuf.is_empty() {
                            return at;
                        }
                    }
                    DrainWake::UncachedAccept => {
                        if !from_csb && freed_entry {
                            return at;
                        }
                    }
                    DrainWake::CsbAccept => {
                        if from_csb {
                            return at;
                        }
                    }
                    DrainWake::None => {}
                },
                // Slot spent, transaction still queued: the next issue
                // candidate is strictly later, keep walking (this is what
                // makes NACK/bus-error retry storms O(1) per carry).
                IssueOutcome::Faulted | IssueOutcome::Nacked => {}
                IssueOutcome::NoWork => unreachable!("the walk issues only with work queued"),
            }
            // The walk continues past the grant cycle: the naive loop's
            // CPU tick at `at` would still have been refused, after the
            // grant's bus events.
            emit_refusals(&self.obs, cursor, at + 1);
            cursor = at + 1;
        }
    }
}

impl MemPort for Machine {
    fn space_of(&self, addr: Addr) -> AddressSpace {
        self.map.space_of(addr)
    }

    fn cached_access(&mut self, addr: Addr, kind: AccessKind, now: u64) -> u64 {
        let (done_at, level) = self.hier.access(addr, kind, now);
        match level {
            HitLevel::L1 => {}
            HitLevel::L2 => self.obs.emit(
                Track::Cpu,
                EventKind::CacheMiss {
                    addr: addr.raw(),
                    level: "L2",
                },
            ),
            HitLevel::Memory => self.obs.emit(
                Track::Cpu,
                EventKind::CacheMiss {
                    addr: addr.raw(),
                    level: "memory",
                },
            ),
        }
        done_at
    }

    fn read(&mut self, addr: Addr, width: usize) -> u64 {
        self.flat.read(addr, width)
    }

    fn write(&mut self, addr: Addr, width: usize, value: u64) {
        self.flat.write(addr, width, value);
    }

    fn swap_value(&mut self, addr: Addr, new: u64) -> u64 {
        self.flat.swap(addr, new)
    }

    fn uncached_store(&mut self, addr: Addr, width: usize, value: u64) -> bool {
        if self.drop_misaligned(addr, width) {
            return true;
        }
        let bytes = value.to_le_bytes();
        self.ubuf.push_store(addr, &bytes[..width]) != PushOutcome::Full
    }

    fn uncached_read(&mut self, addr: Addr, width: usize, swap: Option<u64>, tag: u64) -> bool {
        if self.drop_misaligned(addr, width) {
            return true;
        }
        if !self.ubuf.push_load(addr, width, tag) {
            return false;
        }
        if let Some(value) = swap {
            self.reads.insert(tag, Read::Swap { width, value });
        }
        true
    }

    fn uncached_poll(&mut self, tag: u64) -> Option<u64> {
        let value = self.delivered(tag)?;
        self.reads.remove(&tag);
        Some(value)
    }

    fn uncached_drained(&self) -> bool {
        self.ubuf.is_empty()
    }

    fn csb_store(&mut self, pid: Pid, addr: Addr, width: usize, value: u64) -> bool {
        if self.drop_misaligned(addr, width) {
            return true;
        }
        let bytes = value.to_le_bytes();
        match self.csb.store(pid, addr, &bytes[..width]) {
            Ok(outcome) => {
                if matches!(outcome, StoreOutcome::Reset) {
                    self.csb_line_start = Some(self.now);
                }
                true
            }
            Err(CsbError::Busy) => false,
            Err(e @ CsbError::BadStore { .. }) => {
                unreachable!("aligned instruction-width stores are legal: {e}")
            }
        }
    }

    fn csb_can_flush(&self) -> bool {
        self.csb.can_accept_flush()
    }

    fn csb_flush(&mut self, pid: Pid, addr: Addr, expected: u64) -> u64 {
        let disturbs_before = self.csb.fault_disturbs();
        let outcome = self.csb.conditional_flush(pid, addr, expected);
        if self.csb.fault_disturbs() != disturbs_before {
            self.metrics.inc("fault_flush_disturbs");
            self.metrics.timeline_mark(self.now, TimelineEvent::Fault);
        }
        match outcome {
            csb_uncached::FlushOutcome::Success => self.futile_flushes = 0,
            csb_uncached::FlushOutcome::Fail => self.futile_flushes += 1,
        }
        // Flushes only happen in real CPU ticks (never mid-jump), so
        // `self.now` stamps the same window on both simulation loops.
        self.metrics.timeline_mark(
            self.now,
            match outcome {
                csb_uncached::FlushOutcome::Success => TimelineEvent::FlushSuccess,
                csb_uncached::FlushOutcome::Fail => TimelineEvent::FlushFailure,
            },
        );
        if self.metrics.is_enabled() {
            match outcome {
                csb_uncached::FlushOutcome::Success => {
                    // Latency of the software retry sequence: 0 when the
                    // first attempt succeeded, else the distance back to
                    // the first failure. One observation per success, so
                    // the histogram count equals `CsbStats.flush_successes`.
                    let latency = self.now - self.csb_retry_since.take().unwrap_or(self.now);
                    self.metrics.observe("csb_flush_retry_latency", latency);
                    if latency == 0 {
                        self.metrics.inc("csb_flush_first_try");
                    } else {
                        self.metrics.inc("csb_flush_retried");
                    }
                    if let Some(start) = self.csb_line_start.take() {
                        self.metrics
                            .observe("csb_store_flush_gap", self.now - start);
                    }
                }
                csb_uncached::FlushOutcome::Fail => {
                    self.csb_retry_since.get_or_insert(self.now);
                }
            }
        }
        outcome.register_value(expected)
    }

    fn uncached_store_would_accept(&self, addr: Addr, width: usize) -> bool {
        self.ubuf.would_accept_store(addr, width)
    }

    fn uncached_read_would_accept(&self) -> bool {
        self.ubuf.would_accept_load()
    }

    fn csb_store_would_accept(&self) -> bool {
        self.csb.can_accept_store()
    }

    fn uncached_ready(&self, tag: u64) -> bool {
        self.delivered(tag).is_some()
    }
}

/// Everything a metrics JSON artifact holds for one simulation point: the
/// end-of-run statistics of every component plus the histogram snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsReport {
    /// Total CPU cycles simulated.
    pub cycles: u64,
    /// Core statistics.
    pub cpu: CpuStats,
    /// Bus statistics.
    pub bus: BusStats,
    /// Uncached buffer statistics.
    pub uncached: UncachedStats,
    /// Conditional store buffer statistics.
    pub csb: CsbStats,
    /// Cache hierarchy statistics.
    pub mem: MemoryStats,
    /// Counters and histogram summaries recorded during the run.
    pub metrics: MetricsSnapshot,
}

/// Aggregated results of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunSummary {
    /// Total CPU cycles simulated (including post-halt bus drain).
    pub cycles: u64,
    /// Core statistics.
    pub cpu: CpuStats,
    /// Bus statistics (the bandwidth figures read these).
    pub bus: BusStats,
    /// Uncached buffer statistics.
    pub uncached: UncachedStats,
    /// Conditional store buffer statistics.
    pub csb: CsbStats,
    /// Cache hierarchy statistics.
    pub mem: MemoryStats,
}

/// The complete simulated machine: one out-of-order core, caches, the
/// uncached buffer, the CSB, and a system bus feeding an [`IoDevice`].
///
/// Time advances in CPU cycles; the bus ticks once every
/// [`SimConfig::ratio`] CPU cycles. See the crate-level example.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    cpu: Cpu,
    machine: Machine,
    /// Event-driven idle-gap skipping (cycle-exact; see
    /// [`Simulator::set_fast_forward`]).
    fast_forward: bool,
    /// CPU cycles until the next bus tick (hoisted out of the per-cycle
    /// `now % ratio` check).
    bus_countdown: u64,
    /// Real (non-skipped) ticks executed, for fast-forward diagnostics.
    ticks: u64,
    /// Progress-watchdog thresholds (see [`Simulator::set_watchdog`]).
    watchdog: WatchdogConfig,
    /// CPU cycle at which progress was last observed.
    wd_last_progress: u64,
    /// Retirement count at the last watchdog check.
    wd_seen_retired: u64,
    /// Machine progress count at the last watchdog check.
    wd_seen_progress: u64,
}

impl Simulator {
    /// Builds a machine about to run `program` as process 0.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is inconsistent or a
    /// component rejects its parameters.
    pub fn new(cfg: SimConfig, program: Program) -> Result<Self, SimError> {
        cfg.validate()?;
        let machine = Machine {
            map: cfg.map.clone(),
            flat: FlatMemory::new(),
            hier: MemoryHierarchy::new(cfg.mem).map_err(|e| SimError::Component(e.to_string()))?,
            ubuf: UncachedBuffer::new(cfg.uncached)
                .map_err(|e| SimError::Component(e.to_string()))?,
            csb: ConditionalStoreBuffer::new(cfg.csb)
                .map_err(|e| SimError::Component(e.to_string()))?,
            bus: SystemBus::new(cfg.bus),
            ratio: cfg.ratio,
            now: 0,
            device: IoDevice::new(),
            reads: HashMap::with_capacity(16),
            obs: TraceSink::disabled(),
            metrics: MetricsRegistry::disabled(),
            csb_line_start: None,
            csb_retry_since: None,
            faults: FaultInjector::disabled(),
            progress: 0,
            progress_at: 0,
            futile_flushes: 0,
            misaligned: None,
            nic: None,
        };
        let cpu = Cpu::new(cfg.cpu, program);
        Ok(Simulator {
            cfg,
            cpu,
            machine,
            fast_forward: true,
            bus_countdown: 0,
            ticks: 0,
            watchdog: WatchdogConfig::default(),
            wd_last_progress: 0,
            wd_seen_retired: 0,
            wd_seen_progress: 0,
        })
    }

    /// Warm-resets this simulator to the state [`Simulator::new`] would
    /// produce for `(cfg, program)`, reusing the arena-backed storage a
    /// cold construction would reallocate: the CPU's ROB ring and fetch
    /// queue, both cache levels' set arrays (when the geometry is
    /// unchanged), the uncached buffer's entry/drain queues, the CSB's
    /// pending-burst queue, the functional memory's touched chunks
    /// (zeroed in place), and the device log's reserved capacity. Every
    /// observable result of a subsequent run — summary, stats, metrics,
    /// device contents — is byte-identical to a cold-constructed
    /// simulator's; the experiment engine uses this so each worker thread
    /// drives its whole point queue through one simulator.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`]. A failed reset may leave the simulator
    /// partially reset — run nothing on it until a later `reset_with`
    /// succeeds (every field is unconditionally reassigned, so a
    /// subsequent successful reset fully recovers).
    pub fn reset_with(&mut self, cfg: SimConfig, program: Program) -> Result<(), SimError> {
        cfg.validate()?;
        let m = &mut self.machine;
        m.hier
            .reset_with(cfg.mem)
            .map_err(|e| SimError::Component(e.to_string()))?;
        m.ubuf
            .reset_with(cfg.uncached)
            .map_err(|e| SimError::Component(e.to_string()))?;
        m.csb
            .reset_with(cfg.csb)
            .map_err(|e| SimError::Component(e.to_string()))?;
        m.map = cfg.map.clone();
        m.flat.reset();
        m.bus = SystemBus::new(cfg.bus);
        m.ratio = cfg.ratio;
        m.now = 0;
        m.device.clear();
        m.reads.clear();
        m.obs = TraceSink::disabled();
        m.metrics = MetricsRegistry::disabled();
        m.csb_line_start = None;
        m.csb_retry_since = None;
        m.faults = FaultInjector::disabled();
        m.progress = 0;
        m.progress_at = 0;
        m.futile_flushes = 0;
        m.misaligned = None;
        m.nic = None;
        self.cpu
            .reset_with(cfg.cpu, program, csb_cpu::CpuContext::new(0));
        self.cfg = cfg;
        self.fast_forward = true;
        self.bus_countdown = 0;
        self.ticks = 0;
        self.watchdog = WatchdogConfig::default();
        self.wd_last_progress = 0;
        self.wd_seen_retired = 0;
        self.wd_seen_progress = 0;
        Ok(())
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The core (for register and statistics inspection).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable core access (context setup for multi-process experiments).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The I/O device sink.
    pub fn device(&self) -> &IoDevice {
        &self.machine.device
    }

    /// Attaches a network interface as the receive side of the I/O
    /// window starting at `window_base` (typically
    /// [`crate::COMBINING_BASE`] for CSB senders or
    /// [`crate::UNCACHED_BASE`] for locked senders). Every bus write
    /// delivered at or above the base is ingested live — identically on
    /// the naive tick loop and the fast-forward walk — so the NI
    /// assembles messages, detects torn frames, and timestamps wire
    /// arrivals as the run progresses. Replaces any previous attachment;
    /// [`Simulator::reset_with`] detaches.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Component`] if `cfg` is rejected by
    /// [`csb_nic::Nic::new`].
    pub fn attach_nic(
        &mut self,
        cfg: csb_nic::NicConfig,
        window_base: Addr,
    ) -> Result<(), SimError> {
        let nic = csb_nic::Nic::new(cfg).map_err(|e| SimError::Component(e.to_string()))?;
        self.machine.nic = Some(NicAttachment {
            nic,
            base: window_base.raw(),
        });
        Ok(())
    }

    /// The attached network interface, if any.
    pub fn nic(&self) -> Option<&csb_nic::Nic> {
        self.machine.nic.as_ref().map(|att| &att.nic)
    }

    /// Functional memory (test setup and inspection).
    pub fn memory_mut(&mut self) -> &mut FlatMemory {
        &mut self.machine.flat
    }

    /// Pre-loads the cache line containing `addr` (Figure 5(a) lock-hit
    /// setup).
    pub fn warm_line(&mut self, addr: Addr) {
        self.machine.hier.warm(addr);
    }

    /// Evicts the cache line containing `addr` (Figure 5(b) lock-miss
    /// setup).
    pub fn evict_line(&mut self, addr: Addr) {
        self.machine.hier.flush_line(addr);
    }

    /// Starts recording cycle-stamped structured events from every
    /// component into one shared [`TraceSink`]: CPU retires/squashes/stall
    /// runs, CSB store and flush lifecycle, uncached-buffer traffic, and
    /// bus/foreign occupancy (bus timestamps rescaled by the CPU:bus
    /// ratio). Read the stream with [`Simulator::trace_events`] or export
    /// it with [`Simulator::chrome_trace`]. Costs memory per event;
    /// intended for single diagnostic runs, not sweeps.
    pub fn enable_tracing(&mut self) {
        if self.machine.obs.is_enabled() {
            return;
        }
        let sink = TraceSink::enabled();
        self.cpu.set_trace_sink(sink.clone());
        self.machine.ubuf.set_trace_sink(sink.clone());
        self.machine.csb.set_trace_sink(sink.clone());
        self.machine.bus.set_trace_sink(sink.scaled(self.cfg.ratio));
        self.machine.obs = sink;
    }

    /// Starts recording counters and latency histograms (flush retry
    /// latency, store→flush gaps, burst payload sizes, ROB stall runs)
    /// into a [`MetricsRegistry`], snapshotted by
    /// [`Simulator::metrics_snapshot`] / [`Simulator::metrics_report`].
    pub fn enable_metrics(&mut self) {
        if self.machine.metrics.is_enabled() {
            return;
        }
        let metrics = MetricsRegistry::enabled();
        self.cpu.set_metrics(metrics.clone());
        self.machine.metrics = metrics;
    }

    /// Installs a deterministic fault schedule (or clears it with
    /// `None`). One [`FaultInjector`] is shared by every hook point —
    /// bus transaction errors, device NACKs on write delivery, and
    /// forced conditional-flush disturbances — so each fault kind draws
    /// from its own ordinal stream and the whole schedule replays
    /// identically for a given [`FaultConfig`], independent of
    /// fast-forward and of which worker thread runs the simulation.
    ///
    /// With no schedule installed (or a zero-rate one) every hook is a
    /// single predicted-false branch and the simulation is byte-identical
    /// to one without the fault layer.
    pub fn set_faults(&mut self, cfg: Option<FaultConfig>) {
        let injector = match cfg {
            Some(cfg) => FaultInjector::enabled(cfg),
            None => FaultInjector::disabled(),
        };
        self.machine.bus.set_fault_hook(injector.clone());
        self.machine.csb.set_fault_hook(injector.clone());
        self.machine.faults = injector;
    }

    /// Counters of the active fault schedule (all zeros when none is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.machine.faults.stats()
    }

    /// Replaces the progress-watchdog thresholds. The default
    /// ([`WatchdogConfig::default`]) is conservative enough never to fire
    /// on a fault-free run; pass [`WatchdogConfig::disabled`] to turn the
    /// watchdog off entirely.
    pub fn set_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = cfg;
    }

    /// The active progress-watchdog thresholds.
    pub fn watchdog(&self) -> WatchdogConfig {
        self.watchdog
    }

    /// Serializes every stateful component (the same inventory
    /// [`Simulator::reset_with`] reassigns) into `w`. The public framed
    /// entry point is [`Simulator::snapshot`].
    pub(crate) fn save_state(&self, w: &mut csb_snap::SnapshotWriter) {
        w.put_tag("sim");
        self.cpu.save_state(w);
        let m = &self.machine;
        m.flat.save_state(w);
        m.hier.save_state(w);
        m.ubuf.save_state(w);
        m.csb.save_state(w);
        m.bus.save_state(w);
        w.put_u64(m.now);
        m.device.save_state(w);
        match &m.nic {
            Some(att) => {
                w.put_bool(true);
                w.put_u64(att.base);
                // Config echo: the NI is attached per point (not part of
                // `SimConfig`), so the frame must carry enough to rebuild
                // the attachment on restore.
                let c = att.nic.config();
                w.put_usize(c.slot_size);
                w.put_usize(c.slots);
                w.put_u64(c.process_cycles);
                w.put_u64(c.wire.latency);
                w.put_u64(c.wire.cycles_per_dword);
                att.nic.save_state(w);
            }
            None => w.put_bool(false),
        }
        m.save_reads(w);
        w.put_opt_u64(m.csb_line_start);
        w.put_opt_u64(m.csb_retry_since);
        match m.faults.config() {
            Some(fc) => {
                w.put_bool(true);
                w.put_u64(fc.seed);
                w.put_f64(fc.bus_error_rate);
                w.put_f64(fc.device_nack_rate);
                w.put_f64(fc.flush_disturb_rate);
                w.put_u32(fc.max_consecutive);
                match fc.window {
                    Some(win) => {
                        w.put_bool(true);
                        w.put_u64(win.start);
                        w.put_u64(win.len);
                    }
                    None => w.put_bool(false),
                }
                let stats = m.faults.stats();
                for v in stats.checks.iter().chain(stats.injected.iter()) {
                    w.put_u64(*v);
                }
                for v in m.faults.consecutive_runs() {
                    w.put_u32(v);
                }
            }
            None => w.put_bool(false),
        }
        w.put_u64(m.progress);
        w.put_u64(m.progress_at);
        w.put_u64(m.futile_flushes);
        w.put_bool(m.obs.is_enabled());
        w.put_bool(m.metrics.is_enabled());
        w.put_bool(self.fast_forward);
        w.put_u64(self.bus_countdown);
        w.put_u64(self.ticks);
        w.put_u64(self.watchdog.stall_cycles);
        w.put_u64(self.watchdog.futile_flushes);
        w.put_u64(self.wd_last_progress);
        w.put_u64(self.wd_seen_retired);
        w.put_u64(self.wd_seen_progress);
    }

    /// Restores state written by [`Simulator::save_state`]. The caller
    /// (see [`Simulator::restore`]) must have warm-reset `self` with the
    /// same `(cfg, program)` the snapshot was taken under.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut csb_snap::SnapshotReader<'_>,
    ) -> Result<(), csb_snap::SnapshotError> {
        r.take_tag("sim")?;
        self.cpu.restore_state(r)?;
        let m = &mut self.machine;
        m.flat.restore_state(r)?;
        m.hier.restore_state(r)?;
        m.ubuf.restore_state(r)?;
        m.csb.restore_state(r)?;
        m.bus.restore_state(r)?;
        m.now = r.take_u64()?;
        m.bus.check_restored(m.now / m.ratio)?;
        m.device.restore_state(r)?;
        m.nic = if r.take_bool()? {
            let base = r.take_u64()?;
            let cfg = csb_nic::NicConfig {
                slot_size: r.take_usize()?,
                slots: r.take_usize()?,
                process_cycles: r.take_u64()?,
                wire: csb_nic::WireModel {
                    latency: r.take_u64()?,
                    cycles_per_dword: r.take_u64()?,
                },
            };
            // Every slot serializes at least one byte, so a slot count
            // the rest of the frame cannot hold is corrupt — reject it
            // before `Nic::new` allocates per slot.
            if cfg.slots > r.remaining() {
                return Err(csb_snap::SnapshotError::Corrupt(format!(
                    "NIC attachment claims {} slots, {} bytes remain",
                    cfg.slots,
                    r.remaining()
                )));
            }
            let mut nic = csb_nic::Nic::new(cfg).map_err(|e| {
                csb_snap::SnapshotError::Corrupt(format!("NIC attachment invalid: {e}"))
            })?;
            nic.restore_state(r)?;
            Some(NicAttachment { nic, base })
        } else {
            None
        };
        m.restore_reads(r)?;
        m.csb_line_start = r.take_opt_u64()?;
        m.csb_retry_since = r.take_opt_u64()?;
        if r.take_bool()? {
            let seed = r.take_u64()?;
            let bus_error_rate = r.take_f64()?;
            let device_nack_rate = r.take_f64()?;
            let flush_disturb_rate = r.take_f64()?;
            let max_consecutive = r.take_u32()?;
            let window = if r.take_bool()? {
                Some(csb_faults::FaultWindow {
                    start: r.take_u64()?,
                    len: r.take_u64()?,
                })
            } else {
                None
            };
            let mut stats = FaultStats::default();
            for v in stats.checks.iter_mut().chain(stats.injected.iter_mut()) {
                *v = r.take_u64()?;
            }
            let mut consecutive = [0u32; 3];
            for v in &mut consecutive {
                *v = r.take_u32()?;
            }
            self.set_faults(Some(FaultConfig {
                seed,
                bus_error_rate,
                device_nack_rate,
                flush_disturb_rate,
                max_consecutive,
                window,
            }));
            self.machine.faults.restore_counters(stats, consecutive);
        } else {
            self.set_faults(None);
        }
        let m = &mut self.machine;
        m.progress = r.take_u64()?;
        m.progress_at = r.take_u64()?;
        m.futile_flushes = r.take_u64()?;
        let obs_enabled = r.take_bool()?;
        let metrics_enabled = r.take_bool()?;
        self.fast_forward = r.take_bool()?;
        self.bus_countdown = r.take_u64()?;
        self.ticks = r.take_u64()?;
        self.watchdog.stall_cycles = r.take_u64()?;
        self.watchdog.futile_flushes = r.take_u64()?;
        self.wd_last_progress = r.take_u64()?;
        self.wd_seen_retired = r.take_u64()?;
        self.wd_seen_progress = r.take_u64()?;
        // Sinks are wiring, not state: a restored machine records the
        // *continuation* of the run, which tests concatenate with the
        // pre-snapshot stream.
        if obs_enabled {
            self.enable_tracing();
        }
        if metrics_enabled {
            self.enable_metrics();
        }
        Ok(())
    }

    /// Advances the machine by one CPU cycle (bus included on its ticks).
    pub fn tick(&mut self) {
        self.machine.obs.set_now(self.cpu.now());
        if self.bus_countdown == 0 {
            self.machine.bus_tick();
            self.bus_countdown = self.machine.ratio;
        }
        self.bus_countdown -= 1;
        self.cpu.tick(&mut self.machine);
        self.machine.now = self.cpu.now();
        self.ticks += 1;
    }

    /// Enables or disables event-driven fast-forward for this simulator.
    ///
    /// When enabled (the default), [`Simulator::advance`] jumps the
    /// clock over cycles in which provably nothing can happen — the CPU
    /// pipeline is stalled or drained and no bus slot or uncached
    /// completion falls in the gap — bulk-updating cycle counters and
    /// stall statistics so every observable result (summary, stats,
    /// metrics) is identical to ticking cycle by cycle. It also skips
    /// whole periods of a countdown delay loop the core is busy in
    /// ([`Cpu::skip_loop_periods`]), shifting the pipeline by the loop's
    /// period while the machine walks the same cycles on its own.
    /// Structured tracing composes with fast-forward: the walk
    /// synthesizes the per-cycle refusal events a naive loop would have
    /// emitted inside each jump, so the exported trace is byte-identical
    /// either way; loop periods are ticked while tracing, since their
    /// per-instruction events are not synthesized. Disabled, the
    /// simulator ticks every cycle and takes no skip of either kind.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// `true` if event-driven fast-forward is enabled for this simulator.
    pub fn fast_forward_enabled(&self) -> bool {
        self.fast_forward
    }

    /// Real ticks executed so far. Cycles that fast-forward skipped, idle
    /// gaps and delay-loop periods alike, are not counted; without
    /// fast-forward this equals [`Cpu::now`].
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Attempts one fast-forward jump, never past `cap`. Returns `false`
    /// when the next cycle must be simulated for real.
    ///
    /// Unlike the original idle-gap jump, the machine side is a
    /// transaction-granular walk ([`Machine::fast_forward`]): queued bus
    /// transactions issuing inside the gap are bulk-applied instead of
    /// ending it, so an I/O-active phase costs O(1) per transaction
    /// rather than O(cycles). The walk may mutate machine state and still
    /// report `resume <= now` (an issue landing on the current cycle);
    /// that is safe — the real tick's `bus_tick` re-entry is a no-op for
    /// a spent slot, and no stall cycles are skipped.
    fn try_fast_forward(&mut self, cap: u64) -> bool {
        if !self.fast_forward {
            return false;
        }
        let now = self.cpu.now();
        if now >= cap {
            return false;
        }
        // The horizon scan runs after every tick — [`Cpu::next_event`]
        // resolves the common busy-pipeline verdicts from the ROB head in
        // O(1), so even sub-2-transaction bus-idle gaps engage the walk on
        // their first stalled cycle instead of ticking through for real
        // (the old quiet-tick gate burned one real tick per stall entry).
        let CpuHorizon::Idle { wake, stall } = self.cpu.next_event(&self.machine) else {
            return self.try_loop_skip(cap);
        };
        let mut target = cap;
        if let Some(w) = wake {
            target = target.min(w);
        }
        if target <= now {
            return false;
        }
        // What the jump waits for, and which buffer refuses the stalled
        // head op meanwhile (`CsbFlushWait` and `Membar` stalls bump CPU
        // counters only; a halted CPU attempts nothing).
        let (drain_wake, refuser) = match (self.cpu.halted(), stall) {
            (true, _) => (DrainWake::Drained, None),
            (_, Some(StallCause::UncachedStoreFull | StallCause::UncachedLoadFull)) => {
                (DrainWake::UncachedAccept, Some(Refuser::Uncached))
            }
            (_, Some(StallCause::CsbStoreBusy)) => (DrainWake::CsbAccept, Some(Refuser::Csb)),
            (_, Some(StallCause::CsbFlushWait)) => (DrainWake::CsbAccept, None),
            (_, Some(StallCause::Membar)) => (DrainWake::UncachedDrained, None),
            (_, None) => (DrainWake::None, None),
        };
        // The refusal event the naive loop would emit in each skipped
        // cycle, prebuilt so the walk can synthesize the identical stream.
        let refusal = refuser
            .filter(|_| self.machine.obs.is_enabled())
            .zip(self.cpu.head_addr())
            .map(|(buffer, addr)| buffer.event(addr));
        let resume = self
            .machine
            .fast_forward(target, drain_wake, refusal.as_ref());
        if resume <= now {
            return false;
        }
        // The refusing buffer's stall counter over the skipped cycles (the
        // CPU-side counters are handled by `Cpu::fast_forward`).
        let skipped = resume - now;
        match refuser {
            Some(Refuser::Uncached) => self.machine.ubuf.add_full_stalls(skipped),
            Some(Refuser::Csb) => self.machine.csb.add_busy_stalls(skipped),
            None => {}
        }
        self.cpu.fast_forward(resume, stall);
        self.resume_at(resume);
        true
    }

    /// Periodic fast-forward for an `Active` core: lets the core observe
    /// its countdown delay loop and jump whole periods of it
    /// ([`Cpu::skip_loop_periods`]), never past `cap`, then walks the
    /// machine over the same cycles. The loop touches no memory, so the
    /// machine runs on its own in the meantime, and the walk applies its
    /// bus grants, faults and deliveries exactly as the naive loop would.
    /// No uncached read or swap can complete inside the span: one in
    /// flight would sit in the ROB, which holds only the loop.
    fn try_loop_skip(&mut self, cap: u64) -> bool {
        let m = &self.machine;
        // No delivered value waits to be polled. A swap still on the bus
        // does not count; no run reaches a loop with one in flight.
        let quiet = !m
            .reads
            .values()
            .any(|read| matches!(read, Read::Done { .. }));
        let now = self.cpu.now();
        // A period longer than the hard-stall threshold could hide a gap
        // between retirements the watchdog would have fired in.
        let max_period = match self.watchdog.stall_cycles {
            0 => u64::MAX,
            n => n,
        };
        let max_cycles = if quiet { cap - now } else { 0 };
        let skipped = self.cpu.skip_loop_periods(max_cycles, max_period);
        if skipped == 0 {
            return false;
        }
        let target = now + skipped;
        let resume = self.machine.fast_forward(target, DrainWake::None, None);
        assert_eq!(
            resume, target,
            "a completion stopped the machine inside a skipped loop span"
        );
        self.resume_at(target);
        true
    }

    /// Re-aligns the machine's clock and the bus countdown with the core
    /// after a jump to `cycle`.
    fn resume_at(&mut self, cycle: u64) {
        self.machine.now = cycle;
        let ratio = self.machine.ratio;
        self.bus_countdown = (ratio - cycle % ratio) % ratio;
    }

    /// Advances simulated time: one fast-forward jump over a provably
    /// inert gap (never past `cap`) if possible, else one real
    /// [`Simulator::tick`].
    pub fn advance(&mut self, cap: u64) {
        if !self.try_fast_forward(cap) {
            self.tick();
        }
    }

    /// [`Simulator::advance`] plus the livelock watchdog. Fast-forward
    /// jumps are additionally capped at the hard-stall deadline, so the
    /// naive tick loop and the fast-forward path observe a livelock at
    /// exactly the same cycle with identical statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] when a watchdog trigger fires; the
    /// simulation can still be inspected (summary, stats, device) but has
    /// provably stopped making progress.
    pub fn advance_checked(&mut self, cap: u64) -> Result<(), SimError> {
        let mut cap = cap;
        if self.watchdog.stall_cycles > 0 {
            cap = cap.min(self.wd_last_progress + self.watchdog.stall_cycles);
        }
        self.advance(cap);
        self.check_watchdog()
    }

    fn check_watchdog(&mut self) -> Result<(), SimError> {
        if let Some((cycle, addr, width)) = self.machine.misaligned {
            return Err(SimError::Misaligned {
                cycle,
                addr: addr.raw(),
                width,
            });
        }
        let retired = self.cpu.stats().retired;
        let progress = self.machine.progress;
        if retired != self.wd_seen_retired || progress != self.wd_seen_progress {
            // Stamp each signal at the cycle the naive loop would observe
            // it: retirement happens only in real ticks (the post-tick
            // clock is exact); bus progress may have been bulk-applied
            // mid-jump, so it carries its own accept-cycle stamp.
            let mut at = 0;
            if retired != self.wd_seen_retired {
                at = self.cpu.now();
            }
            if progress != self.wd_seen_progress {
                at = at.max(self.machine.progress_at);
            }
            self.wd_seen_retired = retired;
            self.wd_seen_progress = progress;
            self.wd_last_progress = at;
        }
        let w = self.watchdog;
        if w.futile_flushes > 0 && self.machine.futile_flushes >= w.futile_flushes {
            return Err(SimError::Livelock(
                self.livelock_report(LivelockTrigger::FlushFutility),
            ));
        }
        if w.stall_cycles > 0
            && self.cpu.now().saturating_sub(self.wd_last_progress) >= w.stall_cycles
        {
            return Err(SimError::Livelock(
                self.livelock_report(LivelockTrigger::HardStall),
            ));
        }
        Ok(())
    }

    fn livelock_report(&self, trigger: LivelockTrigger) -> Box<LivelockReport> {
        Box::new(LivelockReport {
            cycle: self.cpu.now(),
            trigger,
            no_progress_for: self.cpu.now().saturating_sub(self.wd_last_progress),
            consecutive_flush_failures: self.machine.futile_flushes,
            retired: self.cpu.stats().retired,
            bus_transactions: self.machine.bus.stats().transactions,
            injected_faults: self.machine.faults.stats().total_injected(),
            csb: *self.machine.csb.stats(),
            actors: vec![ActorState {
                name: format!("pid{}", self.cpu.context().pid()),
                running: true,
                halted: self.cpu.halted(),
                completion_cycle: None,
                slice: 0,
            }],
        })
    }

    /// `true` once the program halted *and* all buffered I/O reached the
    /// bus.
    pub fn complete(&self) -> bool {
        self.cpu.halted() && self.machine.io_drained()
    }

    /// Tells the progress watchdog that the caller has *scheduled* the
    /// next work for cycle `at`: a fully idle machine (halted CPU, drained
    /// I/O) sleeping toward a planned wake — e.g. [`crate::multiproc::MultiSim`]
    /// waiting for the next process arrival — is waiting, not stalled, so
    /// the hard-stall deadline moves to `at + stall_cycles`. A no-op
    /// unless the machine is fully idle ([`Simulator::complete`]): while
    /// I/O is still draining, a genuine stall (device NACK storm, flush
    /// futility) keeps its original deadline and fires at the identical
    /// cycle on every loop. Idempotent and monotone — the mark never moves
    /// backwards.
    pub fn note_scheduled_wake(&mut self, at: u64) {
        if self.complete() {
            self.wd_last_progress = self.wd_last_progress.max(at);
        }
    }

    /// Runs until completion or `limit` CPU cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimit`] if the run does not complete in
    /// time, or [`SimError::Livelock`] if the progress watchdog detects
    /// that the run has provably stopped making progress (e.g. a device
    /// NACKing every delivery, or conditional-flush retries that can
    /// never succeed).
    pub fn run(&mut self, limit: u64) -> Result<RunSummary, SimError> {
        while !self.complete() {
            if self.cpu.now() >= limit {
                return Err(SimError::CycleLimit { limit });
            }
            self.advance_checked(limit)?;
        }
        Ok(self.summary())
    }

    /// Conditional store buffer counters (cheap accessor for schedulers).
    pub fn csb_stats(&self) -> csb_uncached::CsbStats {
        *self.machine.csb.stats()
    }

    /// A copy of the recorded structured event stream (empty unless
    /// [`Simulator::enable_tracing`] was called before running).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.machine.obs.snapshot()
    }

    /// The recorded event stream exported as Chrome trace-event JSON,
    /// loadable in `ui.perfetto.dev` (one track per agent, one trace
    /// microsecond per CPU cycle).
    pub fn chrome_trace(&self) -> String {
        csb_obs::chrome_trace_json(&self.machine.obs.snapshot())
    }

    /// A snapshot of the recorded counters and histograms (empty unless
    /// [`Simulator::enable_metrics`] was called before running).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.machine.metrics.snapshot()
    }

    /// The full metrics artifact for this run: component statistics plus
    /// the histogram snapshot, ready for JSON serialization.
    pub fn metrics_report(&self) -> MetricsReport {
        let s = self.summary();
        MetricsReport {
            cycles: s.cycles,
            cpu: s.cpu,
            bus: s.bus,
            uncached: s.uncached,
            csb: s.csb,
            mem: s.mem,
            metrics: self.metrics_snapshot(),
        }
    }

    /// Snapshot of all statistics.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            cycles: self.cpu.now(),
            cpu: self.cpu.stats().clone(),
            bus: self.machine.bus.stats().clone(),
            uncached: *self.machine.ubuf.stats(),
            csb: *self.machine.csb.stats(),
            mem: self.machine.hier.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{COMBINING_BASE, UNCACHED_BASE};
    use crate::workloads;
    use csb_isa::{Assembler, Reg};

    fn assemble(f: impl FnOnce(&mut Assembler)) -> Program {
        let mut a = Assembler::new();
        f(&mut a);
        a.assemble().unwrap()
    }

    #[test]
    fn single_uncached_store_reaches_device() {
        let program = assemble(|a| {
            a.movi(Reg::O1, UNCACHED_BASE as i64);
            a.movi(Reg::L0, 0xabcd);
            a.std(Reg::L0, Reg::O1, 0);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        let s = sim.run(100_000).unwrap();
        assert_eq!(s.bus.transactions, 1);
        assert_eq!(s.bus.payload_bytes, 8);
        let d = sim.device();
        assert_eq!(d.len(), 1);
        assert_eq!(&d.writes()[0].data[..2], &[0xcd, 0xab]);
    }

    #[test]
    fn misaligned_uncached_accesses_stop_the_run_with_an_error() {
        for (base, swap) in [
            (UNCACHED_BASE, false),
            (COMBINING_BASE, false),
            (UNCACHED_BASE, true),
        ] {
            let program = assemble(|a| {
                a.movi(Reg::O1, base as i64 + 4);
                if swap {
                    a.swap(Reg::L4, Reg::O1, 0);
                } else {
                    a.std(Reg::L0, Reg::O1, 0);
                }
                a.halt();
            });
            for ff in [false, true] {
                let mut sim = Simulator::new(SimConfig::default(), program.clone()).unwrap();
                sim.set_fast_forward(ff);
                let err = sim.run(100_000).unwrap_err();
                assert!(
                    matches!(err, SimError::Misaligned { addr, width: 8, .. } if addr == base + 4),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn csb_sequence_is_one_burst() {
        let program = assemble(|a| {
            let retry = a.new_label();
            a.movi(Reg::O1, COMBINING_BASE as i64);
            a.bind(retry).unwrap();
            a.movi(Reg::L4, 8);
            for i in 0..8 {
                a.movi(Reg::L0, 0x10 + i);
                a.std(Reg::L0, Reg::O1, 8 * i);
            }
            a.swap(Reg::L4, Reg::O1, 0);
            a.cmpi(Reg::L4, 8);
            a.bnz(retry);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        let s = sim.run(100_000).unwrap();
        assert_eq!(s.bus.transactions, 1);
        assert_eq!(s.csb.flush_successes, 1);
        let w = &sim.device().writes()[0];
        assert_eq!(w.data.len(), 64);
        assert_eq!(w.payload, 64);
        assert_eq!(w.data[0], 0x10);
        assert_eq!(w.data[56], 0x17);
    }

    #[test]
    fn uncached_load_round_trips_through_bus() {
        let program = assemble(|a| {
            a.movi(Reg::O1, UNCACHED_BASE as i64);
            a.ld(Reg::L1, Reg::O1, 0x40, csb_isa::MemWidth::B8);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        sim.memory_mut()
            .write(Addr::new(UNCACHED_BASE + 0x40), 8, 0x7777);
        let s = sim.run(100_000).unwrap();
        assert_eq!(sim.cpu().context().int_reg(Reg::L1), 0x7777);
        assert_eq!(s.bus.transactions, 1);
        assert_eq!(s.cpu.uncached_ops, 1);
    }

    #[test]
    fn non_combining_bandwidth_is_4_bytes_per_cycle() {
        // The paper's headline baseline number.
        let cfg = SimConfig::default();
        let program =
            workloads::store_bandwidth(1024, &cfg, workloads::StorePath::Uncached).unwrap();
        let mut sim = Simulator::new(cfg, program).unwrap();
        let s = sim.run(10_000_000).unwrap();
        assert_eq!(s.bus.transactions, 128);
        let bw = s.bus.effective_bandwidth();
        assert!((bw - 4.0).abs() < 0.05, "expected ~4 B/cycle, got {bw}");
    }

    #[test]
    fn run_summary_cycles_cover_drain() {
        let program = assemble(|a| {
            a.movi(Reg::O1, UNCACHED_BASE as i64);
            a.movi(Reg::L0, 1);
            a.std(Reg::L0, Reg::O1, 0);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        let s = sim.run(100_000).unwrap();
        assert!(sim.complete());
        assert!(s.cycles > 0);
    }

    #[test]
    fn cycle_limit_reported() {
        let program = assemble(|a| {
            let spin = a.new_label();
            a.bind(spin).unwrap();
            a.ba(spin);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        match sim.run(1000) {
            Err(SimError::CycleLimit { limit: 1000 }) => {}
            other => panic!("expected cycle limit, got {other:?}"),
        }
    }

    #[test]
    fn tracing_and_metrics_cover_a_csb_run() {
        let program = assemble(|a| {
            let retry = a.new_label();
            a.movi(Reg::O1, COMBINING_BASE as i64);
            a.bind(retry).unwrap();
            a.movi(Reg::L4, 8);
            for i in 0..8 {
                a.movi(Reg::L0, 0x10 + i);
                a.std(Reg::L0, Reg::O1, 8 * i);
            }
            a.swap(Reg::L4, Reg::O1, 0);
            a.cmpi(Reg::L4, 8);
            a.bnz(retry);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        sim.enable_tracing();
        sim.enable_metrics();
        let s = sim.run(100_000).unwrap();

        let events = sim.trace_events();
        // Each component spoke on its own track.
        for track in [Track::Cpu, Track::Csb, Track::Bus] {
            assert!(
                events.iter().any(|e| e.track == track),
                "no events on {track:?}"
            );
        }
        // The trace agrees with the counters.
        let retires = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retire { .. }))
            .count() as u64;
        assert_eq!(retires, s.cpu.retired);
        let flush_done = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CsbFlushOutcome { .. }))
            .count() as u64;
        assert_eq!(flush_done, s.csb.flush_successes + s.csb.flush_failures);
        // The bus span lands on the rescaled CPU timeline.
        let bus_txn = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::BusTxn { .. }))
            .expect("bus transaction traced");
        assert!(bus_txn.dur >= sim.config().ratio);
        assert!(bus_txn.cycle < s.cycles);

        // One flush-retry-latency observation per successful flush — the
        // invariant the metrics artifact is validated against.
        let snap = sim.metrics_snapshot();
        assert_eq!(
            snap.histograms["csb_flush_retry_latency"].count,
            s.csb.flush_successes
        );
        assert_eq!(
            snap.counters
                .get("csb_flush_first_try")
                .copied()
                .unwrap_or(0)
                + snap.counters.get("csb_flush_retried").copied().unwrap_or(0),
            s.csb.flush_successes
        );
        assert_eq!(snap.histograms["csb_burst_bytes"].count, s.csb.bursts);
        assert_eq!(
            snap.histograms["csb_store_flush_gap"].count,
            s.csb.flush_successes
        );

        // The report serializes with everything embedded.
        let report = sim.metrics_report();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("csb_flush_retry_latency"));
        assert!(json.contains("\"flush_successes\""));

        // And the Chrome export is parseable JSON naming all five tracks.
        let chrome = sim.chrome_trace();
        assert!(serde_json::parse_value(&chrome).is_ok());
        assert!(chrome.contains("CPU pipeline") && chrome.contains("Foreign traffic"));
    }

    #[test]
    fn tracing_disabled_is_inert() {
        let program = assemble(|a| {
            a.movi(Reg::O1, UNCACHED_BASE as i64);
            a.movi(Reg::L0, 1);
            a.std(Reg::L0, Reg::O1, 0);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        sim.run(100_000).unwrap();
        assert!(sim.trace_events().is_empty());
        assert!(sim.metrics_snapshot().is_empty());
    }

    #[test]
    fn invalid_config_rejected() {
        let program = assemble(|a| {
            a.halt();
        });
        let cfg = SimConfig::default().combining_block(128); // > 64B line
        assert!(matches!(
            Simulator::new(cfg, program),
            Err(SimError::Config(SimConfigError::BlockExceedsLine { .. }))
        ));
    }

    /// One full-line CSB sequence with the §3.2 retry loop.
    fn csb_program() -> Program {
        assemble(|a| {
            let retry = a.new_label();
            a.movi(Reg::O1, COMBINING_BASE as i64);
            a.bind(retry).unwrap();
            a.movi(Reg::L4, 8);
            for i in 0..8 {
                a.movi(Reg::L0, 0x10 + i);
                a.std(Reg::L0, Reg::O1, 8 * i);
            }
            a.swap(Reg::L4, Reg::O1, 0);
            a.cmpi(Reg::L4, 8);
            a.bnz(retry);
            a.halt();
        })
    }

    #[test]
    fn zero_rate_fault_schedule_changes_nothing() {
        let mut plain = Simulator::new(SimConfig::default(), csb_program()).unwrap();
        let baseline = plain.run(100_000).unwrap();

        let mut faulted = Simulator::new(SimConfig::default(), csb_program()).unwrap();
        faulted.set_faults(Some(FaultConfig::new(42)));
        let s = faulted.run(100_000).unwrap();
        assert_eq!(s, baseline, "zero-rate schedule must be inert");
        let stats = faulted.fault_stats();
        assert_eq!(stats.total_injected(), 0);
        assert!(
            stats.checks(FaultKind::FlushDisturb) > 0,
            "hooks must still count ordinals"
        );
    }

    #[test]
    fn flush_disturbs_force_software_retries() {
        let mut sim = Simulator::new(SimConfig::default(), csb_program()).unwrap();
        sim.set_faults(Some(
            FaultConfig::new(9)
                .flush_disturb_rate(1.0)
                .max_consecutive(2),
        ));
        let s = sim.run(100_000).unwrap();
        assert_eq!(s.csb.flush_failures, 2, "two forced disturbances");
        assert_eq!(s.csb.flush_successes, 1, "third attempt forced clean");
        assert_eq!(sim.device().payload_bytes(), 64, "payload still delivered");
        assert_eq!(sim.fault_stats().injected(FaultKind::FlushDisturb), 2);
    }

    #[test]
    fn naive_and_fast_forward_agree_under_faults() {
        let schedule = FaultConfig::new(7)
            .flush_disturb_rate(0.5)
            .bus_error_rate(0.25)
            .device_nack_rate(0.25)
            .max_consecutive(8);
        let mut results = Vec::new();
        for ff in [false, true] {
            let mut sim = Simulator::new(SimConfig::default(), csb_program()).unwrap();
            sim.set_fast_forward(ff);
            sim.set_faults(Some(schedule));
            let s = sim.run(1_000_000).unwrap();
            results.push((s, sim.fault_stats(), sim.device().payload_bytes()));
        }
        assert_eq!(
            results[0], results[1],
            "fault schedule must be path-invariant"
        );
    }

    #[test]
    fn device_nack_livelock_detected_on_both_paths() {
        // A device NACKing every delivery: the store stays queued, every
        // bus slot is spent re-carrying it, nothing ever retires or
        // drains. Both execution paths must report a hard stall at the
        // same cycle — not hang until the cycle limit.
        let mut reports = Vec::new();
        for ff in [false, true] {
            let program = assemble(|a| {
                a.movi(Reg::O1, UNCACHED_BASE as i64);
                a.movi(Reg::L0, 1);
                a.std(Reg::L0, Reg::O1, 0);
                a.halt();
            });
            let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
            sim.set_fast_forward(ff);
            sim.set_faults(Some(FaultConfig::new(1).device_nack_rate(1.0)));
            match sim.run(1_000_000) {
                Err(SimError::Livelock(r)) => {
                    assert_eq!(r.trigger, LivelockTrigger::HardStall);
                    assert_eq!(r.no_progress_for, sim.watchdog().stall_cycles);
                    assert!(r.injected_faults > 0, "NACKs must be on record");
                    assert!(r.bus_transactions > 0, "slots were spent re-carrying");
                    assert_eq!(r.actors.len(), 1);
                    reports.push((r.cycle, r.retired, r.bus_transactions));
                }
                other => panic!("expected livelock (ff={ff}), got {other:?}"),
            }
        }
        assert_eq!(reports[0], reports[1], "livelock must be cycle-exact");
    }

    #[test]
    fn disabled_watchdog_falls_back_to_cycle_limit() {
        let program = assemble(|a| {
            a.movi(Reg::O1, UNCACHED_BASE as i64);
            a.movi(Reg::L0, 1);
            a.std(Reg::L0, Reg::O1, 0);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        sim.set_faults(Some(FaultConfig::new(1).device_nack_rate(1.0)));
        sim.set_watchdog(WatchdogConfig::disabled());
        assert!(matches!(
            sim.run(50_000),
            Err(SimError::CycleLimit { limit: 50_000 })
        ));
    }

    #[test]
    fn bus_errors_retry_transparently() {
        // Bounded hardware retry: with a consecutive-fault bound the
        // program needs no software involvement and still completes.
        let program = assemble(|a| {
            a.movi(Reg::O1, UNCACHED_BASE as i64);
            a.movi(Reg::L0, 1);
            a.std(Reg::L0, Reg::O1, 0);
            a.halt();
        });
        let mut sim = Simulator::new(SimConfig::default(), program).unwrap();
        sim.set_faults(Some(
            FaultConfig::new(5).bus_error_rate(1.0).max_consecutive(3),
        ));
        let s = sim.run(100_000).unwrap();
        assert_eq!(sim.device().payload_bytes(), 8);
        assert_eq!(sim.fault_stats().injected(FaultKind::BusError), 3);
        assert_eq!(s.bus.transactions, 1, "errored carries are not recorded");
    }
}
