//! Fault sweeps: success rate and latency degradation of software retry
//! policies under a seeded, deterministic fault schedule.
//!
//! Each point runs the CSB atomic-access kernel
//! ([`workloads::csb_sequence_with_policy`]) on the paper's default
//! machine with a [`FaultConfig`] injecting forced conditional-flush
//! disturbances at the swept rate, plus bus errors and device NACKs at a
//! quarter of it (the hardware-retry paths — transparent to software but
//! visible as latency). A run *succeeds* when the device received the
//! full payload and the end timing mark retired; a run that gives up
//! (bounded budget exhausted) or is stopped by the livelock watchdog
//! counts as a failure.
//!
//! Per seed, raising the rate can only add fault ordinals (the injector
//! compares a hash against a rate-proportional threshold), so each
//! policy's success curve is monotone non-increasing in the rate by
//! construction — the sweep's acceptance check, not a statistical
//! accident.

use serde::Serialize;

use super::runner::{
    run_sweep, LabeledArtifacts, ObsConfig, PointArtifacts, PointValue, RunReport, SweepPoint,
};
use super::throughput::Timed;
use super::{format_table, ExpError, DWORD_BYTES};
use crate::cache::PointCache;
use crate::config::SimConfig;
use crate::sim::{SimError, Simulator};
use crate::workloads::{self, RetryPolicy, MARK_END, MARK_START};
use csb_faults::FaultConfig;
use csb_snap::{Codec, SnapshotError};

/// Fault rates swept (fraction of decisions that inject).
pub const RATES: [f64; 6] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9];

/// Independent seeds per (rate, policy) cell.
pub const SEEDS_PER_CELL: u64 = 16;

/// Doublewords per access (one full line on the default machine).
pub(super) const DWORDS: usize = 8;

/// Cycle budget per point (the watchdog fires far earlier on livelock).
const POINT_LIMIT: u64 = 2_000_000;

/// The retry-policy ladder the sweep compares.
pub fn policies() -> Vec<RetryPolicy> {
    vec![
        RetryPolicy::NaiveSpin,
        RetryPolicy::Bounded { attempts: 4 },
        RetryPolicy::Backoff {
            attempts: 12,
            base: 32,
            max: 1024,
            seed: 0, // replaced per point so actors de-synchronize
        },
    ]
}

/// Column label for one policy, including its budget.
pub(crate) fn policy_label(p: RetryPolicy) -> String {
    match p {
        RetryPolicy::NaiveSpin => "naive-spin".to_string(),
        RetryPolicy::Bounded { attempts } => format!("bounded-{attempts}"),
        RetryPolicy::Backoff { attempts, .. } => format!("backoff-{attempts}"),
    }
}

/// Aggregated outcomes of one (rate, policy) cell across its seeds.
#[derive(Debug, Clone, Serialize)]
pub struct FaultCell {
    /// Policy label (column header).
    pub policy: String,
    /// Runs whose full payload reached the device.
    pub successes: u64,
    /// Runs stopped by the livelock watchdog.
    pub livelocks: u64,
    /// Total runs (== [`SEEDS_PER_CELL`]).
    pub runs: u64,
    /// Mean conditional-flush attempts per run.
    pub mean_attempts: f64,
    /// Mean access latency of *successful* runs in CPU cycles (0 when
    /// none succeeded).
    pub mean_latency: f64,
}

impl FaultCell {
    /// Success fraction in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.successes as f64 / self.runs as f64
        }
    }
}

/// One fault rate's cells across the policy ladder.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    /// Injection rate for flush disturbances (bus errors and NACKs run at
    /// a quarter of it).
    pub rate: f64,
    /// One cell per policy, in [`policies`] order.
    pub cells: Vec<FaultCell>,
}

/// The whole sweep: rate × policy, aggregated over seeds.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweep {
    /// Sweep id (`"faults"`).
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Policy labels, in column order.
    pub policies: Vec<String>,
    /// One row per rate.
    pub rows: Vec<FaultRow>,
}

impl FaultSweep {
    /// Renders the sweep as a fixed-width text table: per policy, the
    /// success percentage and the mean successful-run latency (with the
    /// latency-degradation factor relative to the zero-fault row).
    pub fn to_table(&self) -> String {
        let mut headers = vec!["rate".to_string()];
        for p in &self.policies {
            headers.push(format!("{p} ok%"));
            headers.push(format!("{p} lat"));
        }
        let base: Vec<f64> = self
            .rows
            .first()
            .map(|r| r.cells.iter().map(|c| c.mean_latency).collect())
            .unwrap_or_default();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![format!("{:.2}", r.rate)];
                for (i, c) in r.cells.iter().enumerate() {
                    row.push(format!("{:.0}", 100.0 * c.success_rate()));
                    if c.successes == 0 {
                        row.push("-".to_string());
                    } else {
                        let degr = match base.get(i) {
                            Some(&b) if b > 0.0 => {
                                format!(" ({:.2}x)", c.mean_latency / b)
                            }
                            _ => String::new(),
                        };
                        row.push(format!("{:.0}{degr}", c.mean_latency));
                    }
                }
                row
            })
            .collect();
        format!(
            "Fault sweep — {}\n{}",
            self.title,
            format_table(&headers, &rows)
        )
    }
}

/// Raw outcome of a single seeded run.
#[derive(Debug, Clone, Default)]
pub(super) struct PointResult {
    pub(super) success: bool,
    pub(super) livelock: bool,
    pub(super) attempts: u64,
    pub(super) latency: u64,
    pub(super) sim_cycles: u64,
}

/// The backoff policy carries the point seed so jitter differs per seed.
pub(crate) fn policy_for_seed(policy: RetryPolicy, seed: u64) -> RetryPolicy {
    match policy {
        RetryPolicy::Backoff {
            attempts,
            base,
            max,
            ..
        } => RetryPolicy::Backoff {
            attempts,
            base,
            max,
            seed,
        },
        other => other,
    }
}

/// Installs the seeded fault schedule a sweep point runs under: forced
/// flush disturbances at `rate`, bus errors and device NACKs at a quarter
/// of it. Rate 0 installs nothing.
pub(crate) fn inject_faults(sim: &mut Simulator, rate: f64, seed: u64) {
    if rate > 0.0 {
        sim.set_faults(Some(
            FaultConfig::new(seed)
                .flush_disturb_rate(rate)
                .bus_error_rate(rate * 0.25)
                .device_nack_rate(rate * 0.25),
        ));
    }
}

/// One seeded (rate, policy) point of the sweep.
pub(super) struct FaultPoint {
    /// The ladder policy (unseeded; [`policy_for_seed`] seeds it).
    pub(super) policy: RetryPolicy,
    pub(super) rate: f64,
    pub(super) seed: u64,
}

impl FaultPoint {
    /// Every point of the sweep: rate, then policy, then seed.
    pub(super) fn all() -> Vec<FaultPoint> {
        let mut points = Vec::new();
        for (ri, &rate) in RATES.iter().enumerate() {
            for (pi, &policy) in policies().iter().enumerate() {
                for seed in 0..SEEDS_PER_CELL {
                    // Seeds differ per cell so no two cells share a schedule.
                    let seed = 0x5eed_0000 + (ri as u64) * 1_000 + (pi as u64) * 100 + seed;
                    points.push(FaultPoint { policy, rate, seed });
                }
            }
        }
        points
    }
}

impl Timed for FaultPoint {
    /// Readies `slot` to run this point: its program and fault schedule.
    fn install<'s>(&self, slot: &'s mut Option<Simulator>) -> Result<&'s mut Simulator, ExpError> {
        let cfg = SimConfig::default();
        let policy = policy_for_seed(self.policy, self.seed);
        let program = workloads::csb_sequence_with_policy(DWORDS, policy, &cfg)?;
        let sim = super::install_sim(slot, cfg, program)?;
        inject_faults(sim, self.rate, self.seed);
        Ok(sim)
    }
}

impl SweepPoint for FaultPoint {
    type Output = PointResult;

    fn label(&self) -> String {
        format!(
            "faults/r{:02}/{}",
            (self.rate * 100.0).round() as u32,
            policy_label(self.policy)
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    /// Machine configuration, workload parameters (dwords + per-seed
    /// policy), fault rate by its bits, and seed.
    fn cache_key(&self) -> u64 {
        PointCache::key_of(&(
            SimConfig::default(),
            "faults",
            DWORDS,
            policy_for_seed(self.policy, self.seed),
            self.rate.to_bits(),
            self.seed,
        ))
    }

    fn simulate(
        &self,
        slot: &mut Option<Simulator>,
        obs: ObsConfig<'_>,
    ) -> Result<(PointResult, PointArtifacts), ExpError> {
        let sim = self.install(slot)?;
        let (summary, livelock) = match obs.simulate(sim, POINT_LIMIT) {
            Ok(summary) => (summary, false),
            Err(SimError::Livelock(_)) => (sim.summary(), true),
            Err(e) => return Err(e.into()),
        };
        let delivered = sim.device().payload_bytes() == (DWORDS * DWORD_BYTES) as u64;
        let latency = summary.cpu.mark_interval(MARK_START, MARK_END);
        let result = PointResult {
            success: !livelock && delivered && latency.is_some(),
            livelock,
            attempts: summary.csb.flush_successes + summary.csb.flush_failures,
            latency: latency.unwrap_or(0),
            sim_cycles: summary.cycles,
        };
        Ok((result, PointArtifacts::capture(sim, obs)))
    }

    fn payload(&self, r: &mut PointResult, s: &mut impl Codec) -> Result<(), SnapshotError> {
        s.tag("fpt")?;
        s.bool(&mut r.success)?;
        s.bool(&mut r.livelock)?;
        s.u64(&mut r.attempts)?;
        s.u64(&mut r.latency)?;
        s.u64(&mut r.sim_cycles)
    }

    fn value(r: &PointResult) -> PointValue {
        PointValue::Latency(r.latency)
    }

    fn sim_cycles(r: &PointResult) -> u64 {
        r.sim_cycles
    }
}

/// Runs the full sweep on `jobs` workers (`0` = all cores). Every seeded
/// point runs with tracing and/or metrics per `obs` and yields one
/// [`LabeledArtifacts`] (label `faults/r<rate%>/<policy>`, distinguished
/// per seed by [`LabeledArtifacts::seed`]), in sweep-enumeration order —
/// the same per-point artifact contract as the figure harnesses.
///
/// # Errors
///
/// Propagates the first point that fails for a reason other than the
/// expected fault outcomes (livelock and give-up are *results*, not
/// errors); the lowest-indexed failing point wins.
pub fn run_jobs_observed(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(FaultSweep, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let policies = policies();
    let (results, artifacts, report) = run_sweep(&FaultPoint::all(), jobs, obs)?;

    // Points enumerate rate, then policy, then seed: each run of
    // SEEDS_PER_CELL results is one cell, in row-major order.
    let mut cells = results.chunks(SEEDS_PER_CELL as usize);
    let rows = RATES
        .iter()
        .map(|&rate| FaultRow {
            rate,
            cells: policies
                .iter()
                .map(|&policy| {
                    let rs = cells.next().expect("one chunk per (rate, policy) cell");
                    let successes = rs.iter().filter(|r| r.success).count() as u64;
                    let latencies: Vec<u64> =
                        rs.iter().filter(|r| r.success).map(|r| r.latency).collect();
                    FaultCell {
                        policy: policy_label(policy),
                        successes,
                        livelocks: rs.iter().filter(|r| r.livelock).count() as u64,
                        runs: rs.len() as u64,
                        mean_attempts: rs.iter().map(|r| r.attempts).sum::<u64>() as f64
                            / rs.len().max(1) as f64,
                        mean_latency: if latencies.is_empty() {
                            0.0
                        } else {
                            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
                        },
                    }
                })
                .collect(),
        })
        .collect();

    Ok((
        FaultSweep {
            id: "faults".to_string(),
            title: format!(
                "retry policies under seeded faults; {DWORDS} dwords, \
                 {SEEDS_PER_CELL} seeds/cell, disturb rate swept \
                 (bus errors and NACKs at rate/4)"
            ),
            policies: policies.iter().map(|&p| policy_label(p)).collect(),
            rows,
        },
        artifacts,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_point(
        slot: &mut Option<Simulator>,
        policy: RetryPolicy,
        rate: f64,
        seed: u64,
    ) -> PointResult {
        FaultPoint { policy, rate, seed }
            .simulate(slot, ObsConfig::default())
            .expect("fault point simulates")
            .0
    }

    #[test]
    fn loop_skip_matches_naive_on_every_backoff_point() {
        let (mut ff, mut naive) = (0, 0);
        for p in FaultPoint::all() {
            if !matches!(p.policy, RetryPolicy::Backoff { .. }) {
                continue;
            }
            let label = format!("{} seed {:#x}", p.label(), p.seed);
            let install = |slot: &mut Option<Simulator>| p.install(slot).map(|_| ());
            let (f, n) = super::super::assert_loops_agree(&label, install, POINT_LIMIT);
            assert!(f <= n, "{label}: {f} fast-forward ticks, {n} naive");
            ff += f;
            naive += n;
        }
        // Points that never retry run no delay loop, so the halving holds
        // over the sweep's backoff points, not at each of them.
        assert!(
            2 * ff <= naive,
            "faults backoff points: {ff} fast-forward ticks, {naive} naive"
        );
    }

    #[test]
    fn zero_rate_always_succeeds() {
        let mut slot = None;
        for (i, &policy) in policies().iter().enumerate() {
            let r = run_point(&mut slot, policy, 0.0, 7 + i as u64);
            assert!(r.success, "{}: zero-fault run must succeed", i);
            assert!(!r.livelock);
            assert_eq!(r.attempts, 1, "no retries without faults");
        }
    }

    #[test]
    fn bounded_policy_gives_up_under_total_disturbance() {
        let mut slot = None;
        let r = run_point(&mut slot, RetryPolicy::Bounded { attempts: 4 }, 0.9, 3);
        // Seed 3 at rate 0.9: not guaranteed to fault 4 times in a row,
        // so assert only the structural invariant — a failed bounded run
        // halts cleanly instead of livelocking.
        if !r.success {
            assert!(!r.livelock, "bounded budget must give up, not livelock");
            assert_eq!(r.attempts, 4);
        }
    }

    #[test]
    fn success_rate_is_monotone_per_policy() {
        // The per-seed monotonicity argument, checked end to end on a
        // small slice of the sweep: for every policy and seed, success at
        // a higher rate implies success at every lower rate.
        let mut slot = None;
        for &policy in &policies() {
            let mut prev_successes = u64::MAX;
            for &rate in &[0.0, 0.5, 0.9] {
                let mut successes = 0;
                for seed in 0..8 {
                    if run_point(&mut slot, policy, rate, 100 + seed).success {
                        successes += 1;
                    }
                }
                assert!(
                    successes <= prev_successes,
                    "{}: successes rose from {prev_successes} to {successes}",
                    policy_label(policy)
                );
                prev_successes = successes;
            }
        }
    }
}
