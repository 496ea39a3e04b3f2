//! Multi-process execution: context switches, CSB conflicts, livelock, and
//! backoff.
//!
//! The CSB's non-blocking synchronization is only interesting when several
//! processes compete for it. This module time-slices one core between
//! processes (each with its own [`csb_cpu::CpuContext`] and PID) exactly the
//! way the paper's §3.2 scenario describes: a context switch in the middle
//! of a combining-store sequence lets the next process's first store clear
//! the buffer, so the interrupted process's conditional flush fails and its
//! software retry loop runs the sequence again.
//!
//! Two scheduling policies are provided:
//!
//! * [`SwitchPolicy::Fixed`] — switch every `n` CPU cycles. A slice shorter
//!   than a sequence reproduces the theoretical livelock the paper notes:
//!   every attempt is interrupted, every flush fails, nobody progresses.
//! * [`SwitchPolicy::Backoff`] — exponential backoff: a process whose slice
//!   ended with new flush failures gets a doubled slice next time (up to a
//!   cap). The paper suggests software backoff; granting a longer
//!   uninterrupted window models the same remedy at the scheduler level and
//!   restores progress.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use csb_cpu::CpuContext;
use csb_isa::Program;
use csb_snap::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use serde::Serialize;

use crate::config::SimConfig;
use crate::sim::{ActorState, SimError, Simulator, WatchdogConfig};
use crate::snapshot::{
    config_fingerprint, program_fingerprint, AutosnapConfig, SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
};
use csb_faults::{FaultConfig, FaultStats};

/// Scheduling policy for the time-sliced core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SwitchPolicy {
    /// Round-robin with a fixed slice length in CPU cycles.
    Fixed(u64),
    /// Round-robin with exponential backoff: a slice that ends with new
    /// conditional-flush failures doubles the process's next slice.
    Backoff {
        /// Initial slice length in CPU cycles.
        base: u64,
        /// Upper bound on the slice length.
        max: u64,
    },
}

/// How the scheduler finds the next runnable process.
///
/// Both modes implement the *same* scheduling function — run the undone,
/// arrived process with the smallest `(wake, seq)` key (least recently
/// scheduled first, arrival order among never-run processes) — so every
/// simulation observable is byte-identical between them. They differ only
/// in traversal cost, i.e. host wall-clock:
///
/// * [`SchedulerMode::RoundRobin`] re-scans all `n` processes at every
///   pick and steps the clock through idle gaps one slice quantum at a
///   time — O(n) per pick, O(n · gap/quantum) per idle gap. This is the
///   legacy slicer, kept as the differential baseline.
/// * [`SchedulerMode::HorizonHeap`] keeps undone, non-running processes
///   in a binary min-heap keyed by `(wake, seq, pid)` — O(log n) per pick
///   — and jumps the clock straight to the heap minimum, so a fully idle
///   machine crosses an arrival gap in O(1) advances no matter how many
///   processors are parked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum SchedulerMode {
    /// Legacy O(n) scan + slice-quantum clock stepping.
    RoundRobin,
    /// O(log n) horizon heap + single-jump idle gaps (the default).
    #[default]
    HorizonHeap,
}

/// Result of a multi-process run.
#[derive(Debug, Clone, Serialize)]
pub struct MultiSummary {
    /// Total CPU cycles.
    pub cycles: u64,
    /// Context switches performed.
    pub switches: u64,
    /// Conditional flushes that failed (conflicts + interrupted sequences).
    pub flush_failures: u64,
    /// Conditional flushes that succeeded.
    pub flush_successes: u64,
    /// Per-process completion cycle, indexed by process.
    pub completions: Vec<u64>,
}

#[derive(Debug)]
struct Proc {
    program: Program,
    ctx: Option<CpuContext>, // None while running or never started
    done: bool,
    /// Cycle this process becomes schedulable for the first time
    /// (open-loop arrival; 0 = resident at reset).
    arrival: u64,
    /// Scheduling key, first component: the cycle this process last
    /// yielded the core (or its arrival, if it never ran).
    wake: u64,
    /// Scheduling key, second component: a monotone stamp that makes the
    /// ready queue FIFO among equal wakes (arrival/pid order before any
    /// process has run).
    seq: u64,
}

/// A time-sliced multi-process simulation on one core.
///
/// # Examples
///
/// Two processes hammering different CSB lines, switched every 200 cycles —
/// every switch mid-sequence costs a failed flush and a retry, but both
/// finish:
///
/// ```
/// use csb_core::{multiproc::{MultiSim, SwitchPolicy}, SimConfig, workloads};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SimConfig::default();
/// let programs = vec![
///     workloads::csb_worker(5, 8, 0, &cfg)?,
///     workloads::csb_worker(5, 8, 1, &cfg)?,
/// ];
/// let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(200))?;
/// let summary = ms.run(10_000_000)?;
/// assert_eq!(summary.flush_successes, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiSim {
    sim: Simulator,
    procs: Vec<Proc>,
    slices: Vec<u64>,
    policy: SwitchPolicy,
    current: usize,
    switches: u64,
    completions: Vec<Option<u64>>,
    /// CPU cycle the running process's slice started. Lives on the struct
    /// (not as a `run` local) so a snapshot taken mid-run resumes
    /// mid-slice.
    slice_start: u64,
    /// Flush-failure count at the slice boundary (backoff bookkeeping).
    failures_at_slice_start: u64,
    /// Flush-success count at the slice boundary (backoff bookkeeping).
    successes_at_slice_start: u64,
    /// Traversal strategy; never serialized (both modes compute the same
    /// schedule, so snapshots are mode-agnostic).
    mode: SchedulerMode,
    /// Next value of [`Proc::seq`]; starts at `n` (0..n seed the initial
    /// arrival order).
    seq_counter: u64,
    /// Ready queue for [`SchedulerMode::HorizonHeap`]: exactly the undone,
    /// non-running processes, keyed `(wake, seq, pid)`. Entries are exact,
    /// never stale — one push when a process yields (or at reset/restore
    /// rebuild), one pop when it is picked; the running process has no
    /// entry, and a key is never re-written while queued.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
}

impl MultiSim {
    /// Creates a run of `programs`, process `i` receiving PID `i`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid machine configurations.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn new(
        cfg: SimConfig,
        programs: Vec<Program>,
        policy: SwitchPolicy,
    ) -> Result<Self, SimError> {
        assert!(!programs.is_empty(), "at least one process required");
        let base_slice = match policy {
            SwitchPolicy::Fixed(n) => n,
            SwitchPolicy::Backoff { base, .. } => base,
        };
        let n = programs.len();
        let sim = Simulator::new(cfg, programs[0].clone())?;
        let procs = programs
            .into_iter()
            .enumerate()
            .map(|(i, program)| Proc {
                program,
                ctx: if i == 0 {
                    None
                } else {
                    Some(CpuContext::new(i as u32))
                },
                done: false,
                arrival: 0,
                wake: 0,
                seq: i as u64,
            })
            .collect();
        let mut ms = MultiSim {
            sim,
            procs,
            slices: vec![base_slice.max(1); n],
            policy,
            current: 0,
            switches: 0,
            completions: vec![None; n],
            slice_start: 0,
            failures_at_slice_start: 0,
            successes_at_slice_start: 0,
            mode: SchedulerMode::default(),
            seq_counter: n as u64,
            heap: BinaryHeap::new(),
        };
        ms.rebuild_heap();
        Ok(ms)
    }

    /// Installs per-process arrival cycles (open-loop workload): process
    /// `i` first becomes schedulable at cycle `arrivals[i]`. Must be
    /// called before the run starts; process 0 is resident at reset, so
    /// `arrivals[0]` must be 0.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals.len()` differs from the process count, if
    /// `arrivals[0] != 0`, or if the run has already started.
    pub fn set_arrivals(&mut self, arrivals: &[u64]) {
        assert_eq!(
            arrivals.len(),
            self.procs.len(),
            "one arrival cycle per process"
        );
        assert_eq!(arrivals[0], 0, "process 0 is resident at reset");
        assert!(
            self.sim.cpu().now() == 0 && self.switches == 0,
            "arrivals must be installed before the run starts"
        );
        for (p, &at) in self.procs.iter_mut().zip(arrivals) {
            p.arrival = at;
            p.wake = at;
        }
        self.rebuild_heap();
    }

    /// Selects the scheduler traversal (see [`SchedulerMode`]). Both modes
    /// produce byte-identical simulations; this only changes host cost.
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.mode = mode;
        self.rebuild_heap();
    }

    /// The active scheduler traversal.
    pub fn scheduler(&self) -> SchedulerMode {
        self.mode
    }

    /// Repopulates the ready heap from the per-process `(wake, seq)`
    /// fields — the heap is derived state (reset, restore, mode change).
    fn rebuild_heap(&mut self) {
        self.heap.clear();
        for (i, p) in self.procs.iter().enumerate() {
            if !p.done && i != self.current {
                self.heap.push(Reverse((p.wake, p.seq, i)));
            }
        }
    }

    /// Minimum `(wake, seq, pid)` over the schedulable processes, without
    /// removing it. Within the pick block the running process is included
    /// when still undone (it was just yield-stamped).
    fn peek_next(&self) -> Option<(u64, u64, usize)> {
        match self.mode {
            SchedulerMode::HorizonHeap => self.heap.peek().map(|Reverse(k)| *k),
            SchedulerMode::RoundRobin => self
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.done)
                .map(|(i, p)| (p.wake, p.seq, i))
                .min(),
        }
    }

    /// Clock step for legacy idle-gap crossing: one base slice per
    /// advance, mirroring the per-slice wakeups a round-robin slicer
    /// would burn while every resident process is parked.
    fn gap_quantum(&self) -> u64 {
        match self.policy {
            SwitchPolicy::Fixed(n) => n.max(1),
            SwitchPolicy::Backoff { base, .. } => base.max(1),
        }
    }

    fn switch_to(&mut self, next: usize) {
        let incoming = self.procs[next]
            .ctx
            .take()
            .expect("undone, non-running process has a saved context");
        let program = self.procs[next].program.clone();
        let outgoing = self.sim.cpu_mut().switch_context(incoming, Some(program));
        if !self.procs[self.current].done {
            self.procs[self.current].ctx = Some(outgoing);
        }
        self.current = next;
        self.switches += 1;
    }

    /// Builds the per-process actor snapshot for a livelock report.
    fn enrich_livelock(&self, e: SimError) -> SimError {
        match e {
            SimError::Livelock(mut r) => {
                r.actors = self
                    .procs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| ActorState {
                        name: format!("proc{i}"),
                        running: i == self.current,
                        halted: p.done,
                        completion_cycle: self.completions[i],
                        slice: self.slices[i],
                    })
                    .collect();
                SimError::Livelock(r)
            }
            other => other,
        }
    }

    /// Runs until every process has halted and the machine drained.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] when the progress watchdog detects a
    /// livelock (e.g. a fixed slice shorter than the CSB sequence, so no
    /// flush ever succeeds — the paper's §3.2 scenario), with one
    /// [`ActorState`] per process in the report, or
    /// [`SimError::CycleLimit`] if the run merely ran out of cycles.
    pub fn run(&mut self, limit: u64) -> Result<MultiSummary, SimError> {
        loop {
            if self.procs.iter().all(|p| p.done) {
                // Drain remaining bus traffic.
                while !self.sim.complete() {
                    if self.sim.cpu().now() >= limit {
                        return Err(SimError::CycleLimit { limit });
                    }
                    self.sim
                        .advance_checked(limit)
                        .map_err(|e| self.enrich_livelock(e))?;
                }
                break;
            }
            let now = self.sim.cpu().now();
            if now >= limit {
                return Err(SimError::CycleLimit { limit });
            }

            // Pick before advancing: if the running process is done or its
            // slice is over, hand the core to the minimum-(wake, seq)
            // schedulable process — crossing the idle gap first when that
            // minimum is a future arrival.
            let cur_done = self.procs[self.current].done;
            let slice_over = !cur_done
                && now.saturating_sub(self.slice_start) >= self.slices[self.current]
                // A precise interrupt waits for an in-flight side-effecting
                // head instruction (e.g. a conditional flush that already
                // reached the CSB) to retire; switching under it would
                // replay the I/O operation.
                && self.sim.cpu().switch_safe();
            if cur_done || slice_over {
                // Backoff bookkeeping for the outgoing process: a slice that
                // saw a failed flush doubles the next slice; a slice that
                // made progress (successful flush) resets it; an inconclusive
                // slice (sequence still mid-flight) keeps the current length
                // so doubling can accumulate out of a livelock.
                if let SwitchPolicy::Backoff { base, max } = self.policy {
                    let stats = self.sim.csb_stats();
                    let idx = self.current;
                    if !cur_done && stats.flush_failures > self.failures_at_slice_start {
                        self.slices[idx] = (self.slices[idx] * 2).min(max.max(base));
                    } else if stats.flush_successes > self.successes_at_slice_start {
                        self.slices[idx] = base.max(1);
                    }
                }
                // Yield-stamp the outgoing process: it re-enters the ready
                // queue behind everything already waiting (monotone seq
                // keeps the queue FIFO, which is exactly the legacy
                // rotation order).
                if !cur_done {
                    let p = &mut self.procs[self.current];
                    p.wake = now;
                    p.seq = self.seq_counter;
                    self.seq_counter += 1;
                    if self.mode == SchedulerMode::HorizonHeap {
                        self.heap.push(Reverse((p.wake, p.seq, self.current)));
                    }
                }
                // Commit the pick, crossing the idle gap first if every
                // schedulable process is a future arrival. A gap can only
                // open once the running process halted (an undone resident
                // would have wake == now), so the machine is quiescent
                // modulo bus drain and advancing to the next arrival is
                // safe. The planned sleep is reported to the watchdog so
                // it does not read as a stall — `note_scheduled_wake`
                // defers only once the machine is drained, so a genuine
                // NACK storm keeps its original deadline in both modes.
                loop {
                    let (wake, _seq, idx) = self.peek_next().expect("an undone process exists");
                    let now = self.sim.cpu().now();
                    if wake <= now {
                        if self.mode == SchedulerMode::HorizonHeap {
                            self.heap.pop();
                        }
                        if idx != self.current {
                            self.switch_to(idx);
                        }
                        self.slice_start = now;
                        let stats = self.sim.csb_stats();
                        self.failures_at_slice_start = stats.flush_failures;
                        self.successes_at_slice_start = stats.flush_successes;
                        break;
                    }
                    if now >= limit {
                        return Err(SimError::CycleLimit { limit });
                    }
                    self.sim.note_scheduled_wake(wake.min(limit));
                    let cap = match self.mode {
                        // One jump to the next arrival, however far.
                        SchedulerMode::HorizonHeap => wake.min(limit),
                        // Legacy stepping: one slice quantum per advance,
                        // the cost profile of a slicer that re-polls every
                        // parked process each slice.
                        SchedulerMode::RoundRobin => {
                            wake.min(limit).min(now.saturating_add(self.gap_quantum()))
                        }
                    };
                    self.sim
                        .advance_checked(cap.max(now + 1))
                        .map_err(|e| self.enrich_livelock(e))?;
                }
            }

            let now = self.sim.cpu().now();
            if now >= limit {
                return Err(SimError::CycleLimit { limit });
            }
            // Fast-forward may jump an idle gap, but never past the point
            // where this loop would act: the end of the current slice (the
            // first cycle `slice_over` can fire — `switch_safe` is
            // invariant while the pipeline is inert, so if it is false now
            // it stays false until a real tick) or the cycle limit.
            let cap = if self.sim.cpu().switch_safe() {
                limit.min(self.slice_start.saturating_add(self.slices[self.current]))
            } else {
                limit
            };
            self.sim
                .advance_checked(cap.max(now + 1))
                .map_err(|e| self.enrich_livelock(e))?;

            if self.sim.cpu().halted() && !self.procs[self.current].done {
                self.procs[self.current].done = true;
                self.completions[self.current] = Some(self.sim.cpu().now());
            }
        }
        let summary = self.sim.summary();
        Ok(MultiSummary {
            cycles: summary.cycles,
            switches: self.switches,
            flush_failures: summary.csb.flush_failures,
            flush_successes: summary.csb.flush_successes,
            completions: self.completions.iter().map(|c| c.unwrap_or(0)).collect(),
        })
    }

    /// [`MultiSim::run`] with periodic snapshot dumps: at every multiple of
    /// `auto.every` CPU cycles a [`MultiSim::snapshot`] frame goes to
    /// `auto.dir`, named like a single machine's frame, with one
    /// fingerprint over all the process programs. [`MultiSim::run`]
    /// returns at each boundary and picks up where it stopped, so results
    /// are byte-identical to a plain run.
    pub(crate) fn run_autosnap(
        &mut self,
        limit: u64,
        auto: AutosnapConfig<'_>,
    ) -> Result<MultiSummary, SimError> {
        let cfg_fp = config_fingerprint(self.sim.config());
        let programs: Vec<u8> = self
            .procs
            .iter()
            .flat_map(|p| program_fingerprint(&p.program).to_le_bytes())
            .collect();
        let prog_fp = csb_snap::fnv1a(&programs);
        loop {
            let next = auto.next_boundary(self.sim.cpu().now(), limit);
            match self.run(next) {
                Err(SimError::CycleLimit { .. }) => {
                    let now = self.sim.cpu().now();
                    if auto.is_boundary(now) {
                        auto.write(cfg_fp, prog_fp, now, &self.snapshot());
                    }
                    if next == limit {
                        return Err(SimError::CycleLimit { limit });
                    }
                }
                result => return result,
            }
        }
    }

    /// The fingerprints a frame starts with: the machine configuration
    /// and the policy, whose mismatch is a configuration mismatch, then
    /// the process count and every process's program, whose mismatch is
    /// a program mismatch.
    fn fingerprints(&self) -> [Vec<u64>; 2] {
        let policy = csb_snap::fnv1a(format!("{:?}", self.policy).as_bytes());
        let config = vec![config_fingerprint(self.sim.config()), policy];
        let programs = self.procs.iter().map(|p| program_fingerprint(&p.program));
        let count = self.procs.len() as u64;
        [config, std::iter::once(count).chain(programs).collect()]
    }

    /// Serializes the whole multi-process state — scheduler (per-process
    /// contexts, slices, backoff bookkeeping) plus the underlying machine
    /// — into a versioned frame. Valid at any point, including after a
    /// [`SimError::CycleLimit`] return from [`MultiSim::run`]: a restored
    /// scheduler resumes mid-slice and finishes byte-identically to one
    /// that never stopped. [`MultiSim::restore`] needs the same
    /// `(cfg, programs, policy)` triple again. The walk needs `&mut`
    /// fields but changes nothing.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let mut w = SnapshotWriter::framed(SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION);
        for fp in self.fingerprints().concat() {
            w.put_u64(fp);
        }
        self.state(&mut w).expect("a writer never fails");
        w.finish()
    }

    /// Rebuilds a multi-process run from a [`MultiSim::snapshot`] frame
    /// taken under the same `(cfg, programs, policy)` triple.
    ///
    /// # Errors
    ///
    /// [`crate::RestoreError`] when the triple fails validation, the
    /// frame is malformed, or the fingerprints reveal a different
    /// configuration, policy, or program list.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty (as [`MultiSim::new`]).
    pub fn restore(
        cfg: SimConfig,
        programs: Vec<Program>,
        policy: SwitchPolicy,
        bytes: &[u8],
    ) -> Result<Self, crate::RestoreError> {
        use crate::RestoreError::{ConfigMismatch, ProgramMismatch};
        let mut ms = MultiSim::new(cfg, programs, policy)?;
        let mut r = SnapshotReader::framed(bytes, SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION)?;
        let [config, programs] = ms.fingerprints();
        for (fps, mismatch) in [(config, ConfigMismatch), (programs, ProgramMismatch)] {
            for fp in fps {
                if r.take_u64()? != fp {
                    return Err(mismatch);
                }
            }
        }
        ms.state(&mut r)?;
        r.expect_end("multi-process snapshot")?;
        Ok(ms)
    }

    /// Walks the scheduler state, then the machine's. The ready heap is
    /// derived state, rebuilt on restore; [`SchedulerMode`] is
    /// deliberately absent — both traversals compute the same schedule,
    /// so a snapshot taken under either restores under either.
    fn state(&mut self, s: &mut impl Codec) -> Result<(), SnapshotError> {
        s.tag("multi")?;
        let n = self.procs.len();
        let mut current = self.current;
        s.usize(&mut current)?;
        if s.reading() && current >= n {
            return Err(SnapshotError::Corrupt(format!(
                "running process {current} of {n}"
            )));
        }
        for p in &mut self.procs {
            s.opt(&mut p.ctx, || CpuContext::new(0), |s, ctx| ctx.state(s))?;
        }
        for v in &mut self.slices {
            s.u64(v)?;
        }
        s.u64(&mut self.switches)?;
        for c in &mut self.completions {
            s.opt_u64(c)?;
        }
        // A process is done once it has a completion cycle. Only a process
        // waiting for the core holds a saved context: the running one's is
        // in the CPU, and a finished one's is gone.
        if s.reading() {
            for (i, (p, c)) in self.procs.iter_mut().zip(&self.completions).enumerate() {
                p.done = c.is_some();
                if p.ctx.is_some() != (i != current && !p.done) {
                    return Err(SnapshotError::Corrupt(format!(
                        "process {i} saved context does not match its state"
                    )));
                }
            }
        }
        s.u64(&mut self.slice_start)?;
        s.u64(&mut self.failures_at_slice_start)?;
        s.u64(&mut self.successes_at_slice_start)?;
        // Scheduler keys (format v2).
        for p in &mut self.procs {
            s.u64(&mut p.arrival)?;
            s.u64(&mut p.wake)?;
            s.u64(&mut p.seq)?;
        }
        s.u64(&mut self.seq_counter)?;
        // Install the running process's program before restoring the
        // machine: the CPU re-derives its in-flight instructions from the
        // program it holds.
        if s.reading() && current != 0 {
            let program = self.procs[current].program.clone();
            let _ = self
                .sim
                .cpu_mut()
                .switch_context(CpuContext::new(current as u32), Some(program));
        }
        self.current = current;
        self.sim.state(s)?;
        if s.reading() {
            self.rebuild_heap();
        }
        Ok(())
    }

    /// The underlying simulator (device and statistics inspection).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Enables or disables event-driven fast-forward on the underlying
    /// simulator (see [`Simulator::set_fast_forward`]).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.sim.set_fast_forward(on);
    }

    /// Starts recording counters and latency histograms on the underlying
    /// simulator (see [`Simulator::enable_metrics`]).
    pub fn enable_metrics(&mut self) {
        self.sim.enable_metrics();
    }

    /// Starts recording structured trace events on the underlying
    /// simulator (see [`Simulator::enable_tracing`]).
    pub fn enable_tracing(&mut self) {
        self.sim.enable_tracing();
    }

    /// Installs a deterministic fault schedule on the underlying simulator
    /// (see [`Simulator::set_faults`]).
    pub fn set_faults(&mut self, cfg: Option<FaultConfig>) {
        self.sim.set_faults(cfg);
    }

    /// Counters of the active fault schedule (see
    /// [`Simulator::fault_stats`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.sim.fault_stats()
    }

    /// Replaces the progress-watchdog thresholds (see
    /// [`Simulator::set_watchdog`]).
    pub fn set_watchdog(&mut self, cfg: WatchdogConfig) {
        self.sim.set_watchdog(cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn two_workers(cfg: &SimConfig, iters: usize) -> Vec<Program> {
        vec![
            workloads::csb_worker(iters, 8, 0, cfg).unwrap(),
            workloads::csb_worker(iters, 8, 1, cfg).unwrap(),
        ]
    }

    #[test]
    fn long_slices_avoid_conflicts() {
        let cfg = SimConfig::default();
        let programs = two_workers(&cfg, 3);
        let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(100_000)).unwrap();
        let s = ms.run(10_000_000).unwrap();
        assert_eq!(s.flush_successes, 6);
        assert_eq!(s.flush_failures, 0);
        assert!(s.completions.iter().all(|&c| c > 0));
    }

    #[test]
    fn short_slices_cause_conflicts_but_progress() {
        let cfg = SimConfig::default();
        let programs = two_workers(&cfg, 4);
        // A sequence is ~15-20 cycles; 60-cycle slices interrupt often but
        // leave room to finish sequences.
        let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(60)).unwrap();
        let s = ms.run(10_000_000).unwrap();
        assert_eq!(s.flush_successes, 8);
        assert!(
            s.flush_failures > 0,
            "interrupted sequences must fail flushes"
        );
        assert!(s.switches > 2);
    }

    #[test]
    fn pathological_slices_livelock() {
        let cfg = SimConfig::default();
        let programs = two_workers(&cfg, 1);
        // Slices far shorter than a sequence: no flush can ever succeed.
        // The watchdog must report a structured livelock well before the
        // cycle limit, with one actor per process.
        let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(6)).unwrap();
        match ms.run(300_000) {
            Err(SimError::Livelock(r)) => {
                assert_eq!(r.trigger, crate::sim::LivelockTrigger::FlushFutility);
                assert!(r.cycle < 300_000, "must fire before the cycle limit");
                assert_eq!(r.consecutive_flush_failures, 64);
                assert_eq!(r.csb.flush_successes, 0);
                assert_eq!(r.actors.len(), 2);
                assert!(r.actors.iter().all(|a| !a.halted));
                assert_eq!(r.actors[0].name, "proc0");
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn backoff_recovers_from_livelock() {
        let cfg = SimConfig::default();
        let programs = two_workers(&cfg, 2);
        let mut ms =
            MultiSim::new(cfg, programs, SwitchPolicy::Backoff { base: 6, max: 4096 }).unwrap();
        let s = ms.run(10_000_000).unwrap();
        assert_eq!(s.flush_successes, 4);
        assert!(s.flush_failures > 0, "backoff should be exercised");
    }

    #[test]
    fn retry_limit_fallback_survives_pathological_slicing() {
        // The paper's first livelock remedy: "limit the number of failed
        // conditional flushes". With 6-cycle slices the pure-CSB workers
        // livelock (see pathological_slices_livelock); the fallback workers
        // burn their retry budget and finish over the lock path instead.
        let cfg = SimConfig::default();
        let programs = vec![
            workloads::csb_sequence_with_fallback(8, 3, &cfg).unwrap(),
            workloads::csb_sequence_with_fallback(8, 3, &cfg).unwrap(),
        ];
        let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(6)).unwrap();
        let s = ms.run(10_000_000).unwrap();
        assert!(s.flush_failures >= 6, "both budgets must be exhausted");
        assert_eq!(
            s.flush_successes, 0,
            "no flush can succeed under 6-cycle slices"
        );
        assert!(s.completions.iter().all(|&c| c > 0), "fallback must finish");
        // The device still received both messages (16 dwords), via the
        // uncached window.
        assert_eq!(ms.simulator().device().payload_bytes(), 128);
    }

    #[test]
    fn single_process_degenerates_to_plain_run() {
        let cfg = SimConfig::default();
        let programs = vec![workloads::csb_worker(2, 4, 0, &cfg).unwrap()];
        let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(50)).unwrap();
        let s = ms.run(1_000_000).unwrap();
        assert_eq!(s.flush_successes, 2);
        assert_eq!(s.flush_failures, 0);
    }
}
