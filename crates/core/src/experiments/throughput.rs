//! Simulated-cycles-per-second throughput measurement: the naive
//! cycle-by-cycle loop vs. event-driven fast-forward, on representative
//! figure points and one delay-loop point each of the fault and the
//! messaging sweep.
//!
//! What is timed is the sweep engine's steady-state per-point cost: one
//! simulator is cold-constructed (and its caches faulted in) *outside*
//! the measured region, then `reps` executions run back to back through
//! it, each a warm reset ([`Simulator::reset_with`], including the lock
//! line warm/evict replay) followed by the simulation loop — exactly the
//! per-worker reuse path the sweep engine takes after a worker's first
//! point. Fast-forward is toggled per leg, and the run summaries of
//! both legs are asserted identical, so the throughput bench doubles as
//! one more differential check. Each point also records the real
//! ticks and fast-forward jumps one execution takes: unlike the wall
//! times these counts are deterministic, so they gate fast-forward
//! coverage exactly. `runner_bench` serializes the resulting
//! [`ThroughputReport`] to `BENCH_sim_throughput.json`.

use std::time::Instant;

use serde::Serialize;

use super::faults::FaultPoint;
use super::messaging::{MessagingPoint, SendPath};
use super::runner::{PointSpec, PointWork, SweepPoint};
use super::{contend, faults, ExpError, Scheme, POINT_LIMIT};
use crate::config::SimConfig;
use crate::multiproc::{MultiSim, SchedulerMode, SwitchPolicy};
use crate::sim::{RunSummary, Simulator};
use crate::workloads::{self, RetryPolicy, StoreOrder};

/// Before/after throughput for one figure point.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputPoint {
    /// Runner label, e.g. `"5b/8dw/64B"`.
    pub label: String,
    /// CPU cycles one execution of the point simulates (identical on
    /// both legs).
    pub sim_cycles: u64,
    /// Best-of-samples wall seconds per execution, naive loop.
    pub naive_wall_s: f64,
    /// Simulated cycles per wall second, naive loop.
    pub naive_cycles_per_sec: f64,
    /// Best-of-samples wall seconds per execution with fast-forward on.
    pub ff_wall_s: f64,
    /// Simulated cycles per wall second with fast-forward on.
    pub ff_cycles_per_sec: f64,
    /// `ff_cycles_per_sec / naive_cycles_per_sec`.
    pub speedup: f64,
    /// Real ticks one execution takes with fast-forward on.
    pub ff_ticks: u64,
    /// Fast-forward jumps one execution takes (`None` for the many-core
    /// scheduler point, whose jumps happen inside [`MultiSim::run`]).
    pub ff_jumps: Option<u64>,
}

/// The full before/after sweep `runner_bench` writes to
/// `BENCH_sim_throughput.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// Wall-clock samples taken per leg (the best is reported).
    pub samples: usize,
    /// Executions batched inside each timed sample.
    pub reps: usize,
    /// One row per measured figure point.
    pub points: Vec<ThroughputPoint>,
}

impl ThroughputReport {
    /// The row for `label`, if it was measured.
    pub fn point(&self, label: &str) -> Option<&ThroughputPoint> {
        self.points.iter().find(|p| p.label == label)
    }

    /// Plain-text rendering for the bench's stderr output.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "point                            sim cycles   naive Mc/s      ff Mc/s   speedup  ff ticks  ff jumps\n",
        );
        for p in &self.points {
            let jumps = p
                .ff_jumps
                .map_or_else(|| "-".to_string(), |j| j.to_string());
            out.push_str(&format!(
                "{:<32} {:>10} {:>12.2} {:>12.2} {:>8.2}x {:>9} {:>9}\n",
                p.label,
                p.sim_cycles,
                p.naive_cycles_per_sec / 1e6,
                p.ff_cycles_per_sec / 1e6,
                p.speedup,
                p.ff_ticks,
                jumps
            ));
        }
        out
    }
}

/// The representative points the throughput bench sweeps: one Figure 4
/// bandwidth point (bus-bound CSB store stream on the split bus) and the
/// Figure 5(b) lock-miss point under full-line combining — the lock swap
/// pays the 100-cycle miss and the stores wait out long bus bursts, so
/// nearly every cycle is provably inert: the fast-forward's home turf.
///
/// # Panics
///
/// Panics if the figure harnesses stop enumerating these labels — the
/// bench must fail loudly rather than silently measure nothing.
pub fn default_points() -> Vec<PointSpec> {
    let want = ["4a/256B/CSB", "5b/8dw/64B"];
    let mut all = super::figure_points();
    let mut points: Vec<PointSpec> = want
        .iter()
        .map(|label| {
            let idx = all
                .iter()
                .position(|s| &s.label == label)
                .unwrap_or_else(|| panic!("figure harnesses no longer enumerate {label}"));
            all.swap_remove(idx)
        })
        .collect();
    points.push(long_point());
    points.push(csb_active_point());
    points
}

/// The bench's deliberately *long* point: a Figure-3-shaped machine (8 B
/// multiplexed bus, 64 B line, 8-cycle address-to-address delay) pushed to
/// a CPU:bus ratio of 12, streaming a 1 KB uncombined store sequence.
/// Every doubleword pays the full flow-control acknowledgment spacing at
/// twice the usual CPU cycles per bus cycle, so one execution simulates
/// well over 10 000 CPU cycles — long enough that per-run fixed costs
/// (construction, warmup, cache effects) are noise in the measured rate.
pub fn long_point() -> PointSpec {
    let cfg = SimConfig::default()
        .line_size(64)
        .bus(
            csb_bus::BusConfig::multiplexed(8)
                .max_burst(64)
                .min_addr_delay(8)
                .build()
                .expect("static long-point bus config is valid"),
        )
        .frequency_ratio(12);
    PointSpec {
        label: "3long/1024B/none".to_string(),
        cfg,
        work: PointWork::Bandwidth {
            transfer: 1024,
            scheme: Scheme::Uncached { block: 8 },
            order: StoreOrder::Ascending,
        },
    }
}

/// The bench's long *CSB-active* point: a Figure-4-shaped split bus (8 B
/// data path, 64 B bursts) at a CPU:bus ratio of 12, streaming 16 KB
/// through the conditional store buffer — 256 full-line bursts of
/// sustained store/flush traffic, well over 10 000 CPU cycles with the
/// bus occupied almost end to end. The kernel uses the out-of-line retry
/// layout ([`Scheme::CsbOutlined`]) so successful flushes retire without
/// branch squashes; the CPU then genuinely *waits* on CSB capacity for
/// most of the run, and those waits are bridged by the
/// transaction-granular drain walk rather than ticked through. This is
/// the bench's gate for fast-forward staying O(1) per bus transaction
/// while the bus is busy (the idle-gap points above cannot show that).
pub fn csb_active_point() -> PointSpec {
    let cfg = SimConfig::default()
        .line_size(64)
        .bus(
            csb_bus::BusConfig::split(8)
                .max_burst(64)
                .build()
                .expect("static csb-active bus config is valid"),
        )
        .frequency_ratio(12);
    PointSpec {
        label: "4along/16KB/CSB".to_string(),
        cfg,
        work: PointWork::Bandwidth {
            transfer: 16 * 1024,
            scheme: Scheme::CsbOutlined,
            order: StoreOrder::Ascending,
        },
    }
}

/// The bench's delay-loop point: the fault sweep's `backoff-12` policy
/// at disturb rate 0.9 under one seed whose flushes keep failing, so the
/// run spends most of its cycles in the countdown delay loops between
/// retries. Periodic fast-forward skips those loops; without it every
/// loop cycle is a real tick.
pub const BACKOFF_POINT_LABEL: &str = "faults/r90/backoff-12";

/// The fault-schedule seed of [`BACKOFF_POINT_LABEL`]: the fourth seed of
/// that cell of the fault sweep.
const BACKOFF_POINT_SEED: u64 = 0x5eed_1453;

/// A sweep point the bench times: how to ready a simulator for one
/// execution of it — cold construction into an empty slot, a warm reset
/// of a filled one, as the sweeps do. Its label is its sweep's.
pub(super) trait Timed: SweepPoint {
    fn install<'s>(&self, slot: &'s mut Option<Simulator>) -> Result<&'s mut Simulator, ExpError>;
}

impl Timed for PointSpec {
    fn install<'s>(&self, slot: &'s mut Option<Simulator>) -> Result<&'s mut Simulator, ExpError> {
        self.work.install(slot, &self.cfg)
    }
}

/// The `backoff-12` policy the fault and messaging sweeps share.
fn backoff() -> RetryPolicy {
    faults::policies()
        .into_iter()
        .find(|p| matches!(p, RetryPolicy::Backoff { .. }))
        .expect("the fault and messaging sweeps have a backoff policy")
}

/// The point [`BACKOFF_POINT_LABEL`] names.
pub(super) fn backoff_point() -> FaultPoint {
    FaultPoint {
        policy: backoff(),
        rate: 0.9,
        seed: BACKOFF_POINT_SEED,
    }
}

/// The bench's messaging delay-loop point, the slowest point of the
/// messaging sweep: the CSB sender's `backoff-12` policy with one-dword
/// messages at disturb rate 0.9, under a seed whose sender enters the
/// backoff delay loop many times, from a few distinct pipeline states.
/// The first loop from each state ticks through its warm-up; the later
/// ones replay it and jump straight into the periodic skip. Metrics
/// record, as on every point of the sweep.
pub const MESSAGING_POINT_LABEL: &str = "messaging/csb/8B/r90/backoff-12";

/// The fault-schedule seed of [`MESSAGING_POINT_LABEL`]: the first seed
/// of that cell of the messaging sweep.
const MESSAGING_POINT_SEED: u64 = 0x0e2e_0000 + 102_000;

/// The point [`MESSAGING_POINT_LABEL`] names.
fn messaging_point() -> MessagingPoint {
    MessagingPoint {
        path: SendPath::Csb,
        size: 1,
        policy: backoff(),
        rate: 0.9,
        seed: MESSAGING_POINT_SEED,
    }
}

/// Readies the simulator in `slot` for one execution of `point` with the
/// requested loop flavor.
fn prepare_into<'a>(
    slot: &'a mut Option<Simulator>,
    point: &impl Timed,
    fast_forward: bool,
) -> Result<&'a mut Simulator, ExpError> {
    let sim = point.install(slot)?;
    sim.set_fast_forward(fast_forward);
    Ok(sim)
}

/// Cold-builds the ready-to-run simulator for `spec` (test hook).
#[cfg(test)]
fn prepare(spec: &PointSpec, fast_forward: bool) -> Result<Simulator, ExpError> {
    let mut slot = None;
    prepare_into(&mut slot, spec, fast_forward)?;
    Ok(slot.expect("slot was just filled"))
}

/// One timed sample: `reps` executions back to back through one reused
/// simulator — each a warm reset plus a full run, the sweep engine's
/// steady-state per-point cost. Returns (wall seconds per execution,
/// cycles per second, the last execution's summary).
fn sample(
    point: &impl Timed,
    fast_forward: bool,
    reps: usize,
) -> Result<(f64, f64, RunSummary), ExpError> {
    let reps = reps.max(1);
    let mut slot = None;
    // Cold construction (and cache/allocator faulting) stays untimed, as
    // it does in a sweep: every worker pays it once, not per point.
    prepare_into(&mut slot, point, fast_forward)?;
    let mut total = 0u64;
    let mut last = None;
    let t0 = Instant::now();
    for _ in 0..reps {
        let sim = prepare_into(&mut slot, point, fast_forward)?;
        let summary = sim.run(POINT_LIMIT)?;
        total += summary.cycles;
        last = Some(summary);
    }
    let wall = t0.elapsed().as_secs_f64();
    let last = last.expect("at least one rep ran");
    Ok((wall / reps as f64, total as f64 / wall, last))
}

/// Real ticks and fast-forward jumps one execution of `point` takes with
/// fast-forward on, counted by driving the loop [`Simulator::run`] runs.
fn ff_counts(point: &impl Timed) -> Result<(u64, u64), ExpError> {
    let mut slot = None;
    let sim = prepare_into(&mut slot, point, true)?;
    let mut jumps = 0;
    while !sim.complete() {
        if sim.cpu().now() >= POINT_LIMIT {
            return Err(crate::sim::SimError::CycleLimit { limit: POINT_LIMIT }.into());
        }
        let ticks = sim.ticks();
        sim.advance_checked(POINT_LIMIT)?;
        jumps += u64::from(sim.ticks() == ticks);
    }
    Ok((sim.ticks(), jumps))
}

/// Measures one point both ways: naive loop first, then fast-forward.
/// Takes `samples` timed samples of `reps` executions per leg (plus one
/// warmup each) and reports the best.
///
/// # Errors
///
/// Propagates simulation failures from either leg.
///
/// # Panics
///
/// Panics if the two legs' runs disagree on any summary field — that
/// would be a cycle-exactness bug, not a throughput result.
fn measure_timed(
    point: &impl Timed,
    samples: usize,
    reps: usize,
) -> Result<ThroughputPoint, ExpError> {
    let label = point.label();
    let mut best: [Option<(f64, f64, RunSummary)>; 2] = [None, None];
    for (leg, slot) in [false, true].into_iter().zip(best.iter_mut()) {
        sample(point, leg, reps)?; // warmup: page in code + allocator state
        for _ in 0..samples.max(1) {
            let s = sample(point, leg, reps)?;
            if slot.as_ref().is_none_or(|b| s.0 < b.0) {
                *slot = Some(s);
            }
        }
    }
    let (naive_wall_s, naive_cps, naive_summary) = best[0].take().expect("naive leg sampled");
    let (ff_wall_s, ff_cps, ff_summary) = best[1].take().expect("ff leg sampled");
    assert_eq!(
        naive_summary, ff_summary,
        "{label}: fast-forward changed the run"
    );
    let (ff_ticks, ff_jumps) = ff_counts(point)?;
    Ok(ThroughputPoint {
        label,
        sim_cycles: ff_summary.cycles,
        naive_wall_s,
        naive_cycles_per_sec: naive_cps,
        ff_wall_s,
        ff_cycles_per_sec: ff_cps,
        speedup: ff_cps / naive_cps,
        ff_ticks,
        ff_jumps: Some(ff_jumps),
    })
}

/// Label of the many-core scheduler point appended by [`measure`].
pub const SCHED_POINT_LABEL: &str = "c64multi/sched";

/// Processors in the scheduler point.
const SCHED_CORES: usize = 64;

/// Arrival span of the scheduler point: I/O bursts trickle in over twenty
/// million cycles, so the machine is parked for ~99.9% of the run.
const SCHED_SPAN: u64 = 20_000_000;

/// Scheduler slice of the scheduler point. Deliberately short: the legacy
/// round-robin traversal polls the parked processors once per slice
/// quantum while crossing an idle gap, so the quantum sets how much
/// per-slice overhead the horizon heap's single jump saves.
const SCHED_SLICE: u64 = 60;

/// The scheduler point's per-processor programs: each processor owes one
/// short CSB burst pair on its own line. Assembled once per sample, not
/// per rep — program assembly is identical on both legs and not what the
/// point measures.
pub(super) fn sched_programs() -> Result<Vec<csb_isa::Program>, ExpError> {
    let cfg = SimConfig::default();
    Ok((0..SCHED_CORES)
        .map(|i| workloads::csb_worker(2, 8, i, &cfg))
        .collect::<Result<Vec<_>, _>>()?)
}

/// Builds the scheduler point's [`MultiSim`]: 64 processors arriving
/// open-loop across [`SCHED_SPAN`] cycles — the server-class mostly-idle
/// shape where per-slice polling of parked processors is pure overhead.
fn sched_multisim(
    programs: &[csb_isa::Program],
    mode: SchedulerMode,
) -> Result<MultiSim, ExpError> {
    let mut ms = MultiSim::new(
        SimConfig::default(),
        programs.to_vec(),
        SwitchPolicy::Fixed(SCHED_SLICE),
    )?;
    ms.set_arrivals(&contend::arrival_schedule(SCHED_CORES, SCHED_SPAN, 0xc0de));
    ms.set_scheduler(mode);
    ms.set_fast_forward(true);
    Ok(ms)
}

/// One timed sample of the scheduler point: `reps` cold-constructed runs
/// (MultiSim has no warm-reset path; construction is identical on both
/// legs, so it only dilutes the measured gap). Returns (wall seconds per
/// execution, cycles per second, result digest, cycles per execution).
fn sched_sample(
    programs: &[csb_isa::Program],
    mode: SchedulerMode,
    reps: usize,
) -> Result<(f64, f64, String, u64), ExpError> {
    let reps = reps.max(1);
    let mut cycles = 0u64;
    let mut digest = String::new();
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut ms = sched_multisim(programs, mode)?;
        let summary = ms.run(POINT_LIMIT)?;
        cycles = summary.cycles;
        digest = format!("{summary:?}");
    }
    let wall = t0.elapsed().as_secs_f64();
    Ok((
        wall / reps as f64,
        (cycles * reps as u64) as f64 / wall,
        digest,
        cycles,
    ))
}

/// Measures the many-core scheduler point both ways: legacy round-robin
/// traversal as the "naive" leg, the horizon heap as the "ff" leg —
/// fast-forward stays *on* for both, so the measured gap isolates the
/// scheduler (O(n · gap/quantum) polling vs. O(log n) picks with
/// single-jump idle gaps). The two legs' [`crate::multiproc::MultiSummary`]
/// digests are asserted identical, extending the bench's differential
/// guarantee to the scheduler.
///
/// # Errors
///
/// Propagates simulation failures from either leg.
///
/// # Panics
///
/// Panics if the traversals disagree on any summary field — that would be
/// a scheduling-equivalence bug, not a throughput result.
pub fn sched_point(samples: usize, reps: usize) -> Result<ThroughputPoint, ExpError> {
    let programs = sched_programs()?;
    let mut best: [Option<(f64, f64, String, u64)>; 2] = [None, None];
    let legs = [SchedulerMode::RoundRobin, SchedulerMode::HorizonHeap];
    for (mode, slot) in legs.into_iter().zip(best.iter_mut()) {
        sched_sample(&programs, mode, reps)?; // warmup: page in code + allocator state
        for _ in 0..samples.max(1) {
            let s = sched_sample(&programs, mode, reps)?;
            if slot.as_ref().is_none_or(|b| s.0 < b.0) {
                *slot = Some(s);
            }
        }
    }
    let (rr_wall_s, rr_cps, rr_digest, rr_cycles) = best[0].take().expect("round-robin sampled");
    let (heap_wall_s, heap_cps, heap_digest, heap_cycles) = best[1].take().expect("heap sampled");
    assert_eq!(
        rr_digest, heap_digest,
        "{SCHED_POINT_LABEL}: the scheduler traversal changed the simulation"
    );
    assert_eq!(rr_cycles, heap_cycles);
    let mut ms = sched_multisim(&programs, SchedulerMode::HorizonHeap)?;
    ms.run(POINT_LIMIT)?;
    Ok(ThroughputPoint {
        label: SCHED_POINT_LABEL.to_string(),
        sim_cycles: heap_cycles,
        naive_wall_s: rr_wall_s,
        naive_cycles_per_sec: rr_cps,
        ff_wall_s: heap_wall_s,
        ff_cycles_per_sec: heap_cps,
        speedup: heap_cps / rr_cps,
        ff_ticks: ms.simulator().ticks(),
        ff_jumps: None,
    })
}

/// Measures every [`default_points`] spec, the delay-loop points
/// ([`BACKOFF_POINT_LABEL`], [`MESSAGING_POINT_LABEL`]), and the many-core
/// scheduler point
/// ([`sched_point`] — heap vs. round-robin rather than fast-forward vs.
/// naive, reported through the same before/after row).
///
/// # Errors
///
/// Propagates the first failing point.
pub fn measure(samples: usize, reps: usize) -> Result<ThroughputReport, ExpError> {
    let mut points = default_points()
        .iter()
        .map(|spec| measure_timed(spec, samples, reps))
        .collect::<Result<Vec<_>, _>>()?;
    points.push(measure_timed(&backoff_point(), samples, reps)?);
    points.push(measure_timed(&messaging_point(), samples, reps)?);
    points.push(sched_point(samples, reps)?);
    Ok(ThroughputReport {
        samples,
        reps,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_points_enumerate_both_figures() {
        let points = default_points();
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "4a/256B/CSB",
                "5b/8dw/64B",
                "3long/1024B/none",
                "4along/16KB/CSB"
            ]
        );
    }

    #[test]
    fn measure_point_agrees_across_legs() {
        let points = default_points();
        let spec = &points[1];
        let p = measure_timed(spec, 1, 4).expect("point simulates");
        assert_eq!(p.label, "5b/8dw/64B");
        assert!(p.sim_cycles > 0);
        // Fast-forward covers the point: it jumps, so it takes fewer
        // real ticks than cycles.
        let jumps = p.ff_jumps.expect("single-core points count jumps");
        assert!(p.ff_ticks < p.sim_cycles && jumps > 0);
        assert!(p.naive_cycles_per_sec > 0.0 && p.ff_cycles_per_sec > 0.0);
    }

    #[test]
    #[ignore = "manual profiling aid"]
    fn profile_breakdown() {
        for spec in default_points() {
            let mut slot = None;
            prepare_into(&mut slot, &spec, true).unwrap();
            slot.as_mut().unwrap().run(POINT_LIMIT).unwrap();
            let n = 3000;
            let t0 = Instant::now();
            for _ in 0..n {
                prepare_into(&mut slot, &spec, true).unwrap();
            }
            let reset = t0.elapsed().as_secs_f64() / f64::from(n);
            let t0 = Instant::now();
            let mut cycles = 0;
            for _ in 0..n {
                prepare_into(&mut slot, &spec, true).unwrap();
                cycles = slot.as_mut().unwrap().run(POINT_LIMIT).unwrap().cycles;
            }
            let full = t0.elapsed().as_secs_f64() / f64::from(n);
            let t0 = Instant::now();
            for _ in 0..n {
                prepare_into(&mut slot, &spec, true).unwrap();
                let sim = slot.as_mut().unwrap();
                while !sim.complete() {
                    sim.tick();
                }
            }
            let naive = t0.elapsed().as_secs_f64() / f64::from(n);
            println!(
                "{}: cycles={cycles} reset={:.2}us reset+run(ff)+summary={:.2}us reset+naive-ticks={:.2}us",
                spec.label,
                reset * 1e6,
                full * 1e6,
                naive * 1e6,
            );
        }
    }

    #[test]
    fn backoff_point_spends_its_cycles_in_skipped_delay_loops() {
        let p = measure_timed(&backoff_point(), 1, 1).expect("backoff point simulates");
        assert_eq!(p.label, BACKOFF_POINT_LABEL);
        let jumps = p.ff_jumps.expect("single-core points count jumps");
        assert!(
            p.ff_ticks * 10 < p.sim_cycles && jumps > 0,
            "{} ticks and {jumps} jumps over {} cycles",
            p.ff_ticks,
            p.sim_cycles
        );
    }

    #[test]
    fn messaging_point_replays_its_delay_loop_warm_ups() {
        let p = measure_timed(&messaging_point(), 1, 1).expect("messaging point simulates");
        assert_eq!(p.label, MESSAGING_POINT_LABEL);
        let jumps = p.ff_jumps.expect("single-core points count jumps");
        assert!(
            p.ff_ticks * 10 < p.sim_cycles && jumps > 0,
            "{} ticks and {jumps} jumps over {} cycles",
            p.ff_ticks,
            p.sim_cycles
        );
    }

    #[test]
    fn sched_point_legs_agree() {
        let p = sched_point(1, 1).expect("scheduler point simulates");
        assert_eq!(p.label, SCHED_POINT_LABEL);
        // The run ends shortly after the last arrival's burst, which lands
        // somewhere in the top of the [0, SPAN) window.
        assert!(
            p.sim_cycles >= SCHED_SPAN / 2,
            "the run must cross the arrival window, got {}",
            p.sim_cycles
        );
        assert!(p.naive_cycles_per_sec > 0.0 && p.ff_cycles_per_sec > 0.0);
        println!(
            "sched speedup {:.2}x (rr {:.3}ms heap {:.3}ms, {} cycles)",
            p.speedup,
            p.naive_wall_s * 1e3,
            p.ff_wall_s * 1e3,
            p.sim_cycles
        );
    }

    #[test]
    fn long_point_simulates_at_least_ten_thousand_cycles() {
        let spec = long_point();
        let mut sim = prepare(&spec, true).expect("long point builds");
        let summary = sim.run(POINT_LIMIT).expect("long point completes");
        assert!(
            summary.cycles >= 10_000,
            "long point must stay long: simulated only {} cycles",
            summary.cycles
        );
    }

    #[test]
    fn csb_active_point_is_long_and_bus_bound() {
        let spec = csb_active_point();
        let mut sim = prepare(&spec, true).expect("csb-active point builds");
        let summary = sim.run(POINT_LIMIT).expect("csb-active point completes");
        assert!(
            summary.cycles >= 10_000,
            "csb-active point must stay long: simulated only {} cycles",
            summary.cycles
        );
        // 16 KB through 64 B CSB bursts: the point is meaningless if the
        // traffic stops flowing through the conditional store buffer.
        assert_eq!(summary.csb.flush_successes, 256);
        assert_eq!(summary.bus.transactions, 256);
    }
}
