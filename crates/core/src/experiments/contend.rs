//! Many-core contention sweep: throughput and flush-latency tails of a
//! server-class I/O mix as the processor count grows.
//!
//! Each point time-slices one [`crate::multiproc::MultiSim`] core between
//! 16/32/64 processes with seeded open-loop arrivals (SplitMix64 offsets
//! over a fixed span; process 0 is resident at reset) and compares three
//! schemes:
//!
//! * `lock` — the conventional §4.2 baseline: every process takes the one
//!   global spin lock around its uncached stores, so accesses convoy.
//! * `csb` — per-process CSB lines ([`workloads::csb_worker`] gives each
//!   process its own combining line): non-blocking, but a context switch
//!   mid-sequence still resets the buffer (the §3.2 interference counted
//!   by [`CsbStats::cross_pid_resets`]).
//! * `csb2x` — the same sharded workload on the paper's optional
//!   double-buffered CSB (§3.3's second line buffer), the ablation knob
//!   for how much buffering the sharded scheme needs.
//!
//! The metric pair matches the paper's framing: delivered device payload
//! bytes per CPU kilocycle (throughput) and the
//! `csb_flush_retry_latency` histogram's p50/p95/p99/p99.9 tail (latency),
//! merged across the seeds of each (cores, scheme) cell. Cached cells
//! persist their raw bucket counts so a cache hit merges exactly like a
//! live run.
//!
//! [`CsbStats::cross_pid_resets`]: csb_uncached::CsbStats::cross_pid_resets

use serde::Serialize;

use super::runner::{
    run_sweep, AdvanceCounts, LabeledArtifacts, ObsConfig, PointArtifacts, PointValue, RunReport,
    SweepPoint,
};
use super::{format_table, histogram_state, merge_histograms, ExpError};
use crate::cache::PointCache;
use crate::config::SimConfig;
use crate::multiproc::{MultiSim, SwitchPolicy};
use crate::sim::Simulator;
use crate::workloads;
use csb_obs::HistogramSummary;
use csb_snap::{Codec, SnapshotError};

/// Processor counts swept.
pub const CORES: [usize; 3] = [16, 32, 64];

/// Independent arrival seeds per (cores, scheme) cell.
pub const SEEDS_PER_CELL: u64 = 2;

/// CSB sequences (or locked accesses) per process.
pub(super) const ITERATIONS: usize = 8;

/// Doublewords per access (one full line on the default machine).
pub(super) const DWORDS: usize = 8;

/// Cycle span the open-loop arrivals are scattered over — short enough
/// that the later processors pile onto an already-busy core (the point of
/// the sweep is the contention regime, not isolated runs).
pub(super) const ARRIVAL_SPAN: u64 = 4_000;

/// Fixed scheduler slice in CPU cycles: a few sequences long, so slice
/// boundaries regularly land mid-sequence (the §3.2 interference window).
pub(super) const SLICE: u64 = 60;

/// Cycle budget per point (the lock convoy at 64 cores stays far under).
const POINT_LIMIT: u64 = 50_000_000;

/// The flush-latency histogram the quantile columns read.
const FLUSH_HISTOGRAM: &str = "csb_flush_retry_latency";

/// One contention scheme (column group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ContendScheme {
    /// Global spin lock around uncached stores (conventional baseline).
    Lock,
    /// Per-process CSB lines, single-buffered.
    Csb,
    /// Per-process CSB lines on the double-buffered CSB (§3.3 ablation).
    CsbDouble,
}

/// The scheme ladder the sweep compares, in column order.
pub fn schemes() -> Vec<ContendScheme> {
    vec![
        ContendScheme::Lock,
        ContendScheme::Csb,
        ContendScheme::CsbDouble,
    ]
}

impl ContendScheme {
    /// Short label for tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            ContendScheme::Lock => "lock",
            ContendScheme::Csb => "csb",
            ContendScheme::CsbDouble => "csb2x",
        }
    }

    /// Machine configuration for this scheme.
    pub(super) fn config(self) -> SimConfig {
        match self {
            ContendScheme::Lock | ContendScheme::Csb => SimConfig::default(),
            ContendScheme::CsbDouble => SimConfig::default().csb_double_buffered(),
        }
    }
}

/// Seeded open-loop arrival schedule: process 0 is resident at reset,
/// every later process arrives at a SplitMix64 offset in `[0, span)`.
/// Shared with the engine-throughput contention point so both harnesses
/// measure the same workload.
pub fn arrival_schedule(n: usize, span: u64, seed: u64) -> Vec<u64> {
    let mut arrivals = vec![0u64; n];
    if span > 0 {
        for (k, a) in (0u64..).zip(arrivals.iter_mut()).skip(1) {
            let draw = seed.wrapping_add((k - 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            *a = csb_faults::splitmix64(draw) % span;
        }
    }
    arrivals
}

/// Aggregated outcomes of one (cores, scheme) cell across its seeds.
#[derive(Debug, Clone, Serialize)]
pub struct ContendCell {
    /// Scheme label (column group).
    pub scheme: String,
    /// Mean delivered device payload bytes per CPU cycle across seeds.
    pub throughput: f64,
    /// Mean run length in CPU cycles across seeds.
    pub mean_cycles: f64,
    /// Total context switches across seeds.
    pub switches: u64,
    /// Total conditional-flush failures across seeds.
    pub flush_failures: u64,
    /// Total CSB resets caused by a *different* process's store (§3.2
    /// interference; 0 for the lock scheme).
    pub cross_pid_resets: u64,
    /// Flush retry latency merged across seeds (absent for the lock
    /// scheme, which never touches the CSB).
    pub flush: Option<HistogramSummary>,
}

/// One processor count's cells across the scheme ladder.
#[derive(Debug, Clone, Serialize)]
pub struct ContendRow {
    /// Simulated processor count.
    pub cores: usize,
    /// One cell per scheme, in [`schemes`] order.
    pub cells: Vec<ContendCell>,
}

/// The whole sweep: cores × scheme, aggregated over arrival seeds.
#[derive(Debug, Clone, Serialize)]
pub struct ContendSweep {
    /// Sweep id (`"contend"`).
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Scheme labels, in column-group order.
    pub schemes: Vec<String>,
    /// One row per processor count.
    pub rows: Vec<ContendRow>,
}

impl ContendSweep {
    /// Renders the sweep as a fixed-width text table: one line per
    /// (cores, scheme) cell with throughput in payload bytes per
    /// kilocycle and the flush-latency quantile ladder.
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = [
            "cores", "scheme", "B/kc", "switch", "x-pid", "p50", "p95", "p99", "p99.9", "max",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut rows = Vec::new();
        for row in &self.rows {
            for c in &row.cells {
                let mut line = vec![
                    row.cores.to_string(),
                    c.scheme.clone(),
                    format!("{:.2}", c.throughput * 1000.0),
                    c.switches.to_string(),
                    c.cross_pid_resets.to_string(),
                ];
                match &c.flush {
                    Some(h) => {
                        for v in [h.p50, h.p95, h.p99, h.p999, h.max] {
                            line.push(v.to_string());
                        }
                    }
                    None => line.extend(std::iter::repeat_n("-".to_string(), 5)),
                }
                rows.push(line);
            }
        }
        format!(
            "Many-core contention — {}\n{}",
            self.title,
            format_table(&headers, &rows)
        )
    }
}

/// Raw outcome of a single seeded run.
#[derive(Debug, Clone, Default)]
pub(super) struct PointResult {
    pub(super) payload_bytes: u64,
    pub(super) cycles: u64,
    pub(super) switches: u64,
    pub(super) flush_failures: u64,
    pub(super) cross_pid_resets: u64,
    pub(super) flush: Option<HistogramSummary>,
    pub(super) sim_cycles: u64,
}

impl PointResult {
    fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.cycles as f64
        }
    }
}

/// Per-process programs for one point.
pub(super) fn programs(
    scheme: ContendScheme,
    cores: usize,
    cfg: &SimConfig,
) -> Result<Vec<csb_isa::Program>, ExpError> {
    (0..cores)
        .map(|i| match scheme {
            ContendScheme::Lock => Ok(workloads::lock_worker(ITERATIONS, DWORDS)?),
            ContendScheme::Csb | ContendScheme::CsbDouble => {
                Ok(workloads::csb_worker(ITERATIONS, DWORDS, i, cfg)?)
            }
        })
        .collect()
}

/// One seeded (cores, scheme) point of the sweep.
pub(super) struct ContendPoint {
    pub(super) scheme: ContendScheme,
    pub(super) cores: usize,
    pub(super) seed: u64,
}

impl ContendPoint {
    /// Every point of the sweep: cores, then scheme, then seed.
    pub(super) fn all() -> Vec<ContendPoint> {
        let mut points = Vec::new();
        for (ci, &cores) in CORES.iter().enumerate() {
            for (si, &scheme) in schemes().iter().enumerate() {
                for seed in 0..SEEDS_PER_CELL {
                    // Seeds differ per cell so no two cells share arrivals.
                    let seed = 0xc0de_0000 + (ci as u64) * 1_000 + (si as u64) * 100 + seed;
                    points.push(ContendPoint {
                        scheme,
                        cores,
                        seed,
                    });
                }
            }
        }
        points
    }
}

impl SweepPoint for ContendPoint {
    type Output = PointResult;

    fn label(&self) -> String {
        format!("contend/c{}/{}", self.cores, self.scheme.label())
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    /// Machine configuration, workload shape, scheduling, arrival span,
    /// and seed.
    fn cache_key(&self) -> u64 {
        PointCache::key_of(&(
            self.scheme.config(),
            "contend",
            self.scheme,
            self.cores,
            ITERATIONS,
            DWORDS,
            SLICE,
            ARRIVAL_SPAN,
            self.seed,
        ))
    }

    /// Builds its own [`MultiSim`]; the worker's single-process slot goes
    /// unused.
    fn simulate(
        &self,
        _slot: &mut Option<Simulator>,
        obs: ObsConfig<'_>,
    ) -> Result<(PointResult, PointArtifacts), ExpError> {
        let cfg = self.scheme.config();
        let programs = programs(self.scheme, self.cores, &cfg)?;
        let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(SLICE))?;
        ms.set_arrivals(&arrival_schedule(self.cores, ARRIVAL_SPAN, self.seed));
        ms.set_fast_forward(obs.fast_forward);
        // The latency quantiles *are* the result, so metrics always record.
        ms.enable_metrics();
        if obs.trace {
            ms.enable_tracing();
        }
        let summary = match obs.autosnap {
            Some(auto) => ms.run_autosnap(POINT_LIMIT, auto),
            None => ms.run(POINT_LIMIT),
        }?;
        let report = ms.simulator().metrics_report();
        let result = PointResult {
            payload_bytes: ms.simulator().device().payload_bytes(),
            cycles: summary.cycles,
            switches: summary.switches,
            flush_failures: summary.flush_failures,
            cross_pid_resets: report.csb.cross_pid_resets,
            flush: report.metrics.histograms.get(FLUSH_HISTOGRAM).cloned(),
            sim_cycles: summary.cycles,
        };
        let artifacts = PointArtifacts {
            trace_json: obs.trace.then(|| ms.simulator().chrome_trace()),
            metrics: obs.metrics.then_some(report),
            advance: AdvanceCounts::of(ms.simulator()),
        };
        Ok((result, artifacts))
    }

    fn payload(&self, r: &mut PointResult, s: &mut impl Codec) -> Result<(), SnapshotError> {
        s.tag("cnt")?;
        for v in [
            &mut r.payload_bytes,
            &mut r.cycles,
            &mut r.switches,
            &mut r.flush_failures,
            &mut r.cross_pid_resets,
            &mut r.sim_cycles,
        ] {
            s.u64(v)?;
        }
        histogram_state(&mut r.flush, s)
    }

    fn value(r: &PointResult) -> PointValue {
        PointValue::Bandwidth(r.throughput())
    }

    fn sim_cycles(r: &PointResult) -> u64 {
        r.sim_cycles
    }
}

/// Runs the full sweep on `jobs` workers (`0` = all cores). Every seeded
/// point runs with tracing and/or metrics per `obs` and yields one
/// [`LabeledArtifacts`] (label `contend/c<cores>/<scheme>`, distinguished
/// per seed by [`LabeledArtifacts::seed`]), in sweep-enumeration order.
///
/// # Errors
///
/// Propagates the first failing point, lowest index first (livelock here
/// is an error — the swept schemes are all progress-safe by
/// construction).
pub fn run_jobs_observed(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(ContendSweep, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let schemes = schemes();
    let (results, artifacts, report) = run_sweep(&ContendPoint::all(), jobs, obs)?;

    // Points enumerate cores, then scheme, then seed: each run of
    // SEEDS_PER_CELL results is one cell, in row-major order.
    let mut cells = results.chunks(SEEDS_PER_CELL as usize);
    let rows = CORES
        .iter()
        .map(|&cores| ContendRow {
            cores,
            cells: schemes
                .iter()
                .map(|&scheme| {
                    let rs = cells.next().expect("one chunk per (cores, scheme) cell");
                    let runs = rs.len().max(1) as f64;
                    let flush = merge_histograms(rs.iter().filter_map(|r| r.flush.as_ref()));
                    ContendCell {
                        scheme: scheme.label().to_string(),
                        throughput: rs.iter().map(|r| r.throughput()).sum::<f64>() / runs,
                        mean_cycles: rs.iter().map(|r| r.cycles).sum::<u64>() as f64 / runs,
                        switches: rs.iter().map(|r| r.switches).sum(),
                        flush_failures: rs.iter().map(|r| r.flush_failures).sum(),
                        cross_pid_resets: rs.iter().map(|r| r.cross_pid_resets).sum(),
                        flush,
                    }
                })
                .collect(),
        })
        .collect();

    Ok((
        ContendSweep {
            id: "contend".to_string(),
            title: format!(
                "{ITERATIONS} accesses × {DWORDS} dwords per process, \
                 {SLICE}-cycle slices, arrivals over {ARRIVAL_SPAN} cycles, \
                 {SEEDS_PER_CELL} seeds/cell"
            ),
            schemes: schemes.iter().map(|&s| s.label().to_string()).collect(),
            rows,
        },
        artifacts,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::runner::{read_payload, write_payload};

    fn run_point(scheme: ContendScheme, cores: usize, seed: u64) -> PointResult {
        ContendPoint {
            scheme,
            cores,
            seed,
        }
        .simulate(&mut None, ObsConfig::default())
        .expect("contention point simulates")
        .0
    }

    #[test]
    fn arrival_schedules_are_seeded_and_bounded() {
        let a = arrival_schedule(64, ARRIVAL_SPAN, 7);
        let b = arrival_schedule(64, ARRIVAL_SPAN, 7);
        let c = arrival_schedule(64, ARRIVAL_SPAN, 8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a[0], 0, "process 0 is resident at reset");
        assert!(a.iter().all(|&at| at < ARRIVAL_SPAN));
    }

    #[test]
    fn csb_point_delivers_full_payload_and_tracks_interference() {
        let r = run_point(ContendScheme::Csb, 4, 0xc0de_0000);
        assert_eq!(
            r.payload_bytes,
            (4 * ITERATIONS * DWORDS * 8) as u64,
            "every process's every access must reach the device"
        );
        let h = r.flush.expect("CSB scheme records flush latency");
        // One observation per successful flush; every access ends in one.
        assert_eq!(h.count, (4 * ITERATIONS) as u64);
        assert!(h.p999 >= h.p99 && h.p99 >= h.p50);
    }

    #[test]
    fn lock_point_delivers_without_touching_the_csb() {
        let r = run_point(ContendScheme::Lock, 4, 0xc0de_0000);
        assert_eq!(r.payload_bytes, (4 * ITERATIONS * DWORDS * 8) as u64);
        assert!(r.flush.is_none(), "lock path never flushes the CSB");
        assert_eq!(r.cross_pid_resets, 0);
    }

    #[test]
    fn autosnap_frames_restore_and_leave_the_result_unchanged() {
        let point = ContendPoint {
            scheme: ContendScheme::Csb,
            cores: 16,
            seed: 0xc0de_0000,
        };
        let dir = std::env::temp_dir().join(format!("csb-autosnap-contend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("autosnap dir");
        let key = point.cache_key();
        let obs = ObsConfig {
            autosnap: Some(crate::snapshot::AutosnapConfig::new(997, &dir).for_point(key)),
            ..ObsConfig::default()
        };
        let snapped = point.simulate(&mut None, obs).expect("point simulates").0;
        let plain = run_point(point.scheme, point.cores, point.seed);
        assert_eq!(format!("{snapped:?}"), format!("{plain:?}"));

        let mut frames: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(&dir)
            .expect("autosnap dir readable")
            .map(|e| {
                let path = e.expect("dir entry").path();
                let name = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
                assert!(name.contains(&format!("-{key:016x}-")), "{name}");
                let cycle = name.rsplit('-').next().and_then(|c| c.parse().ok());
                (cycle.expect("frame names its cycle"), path)
            })
            .collect();
        frames.sort();
        assert!(frames.len() > 2, "{} frame(s)", frames.len());
        assert!(frames.iter().all(|(cycle, _)| cycle % 997 == 0));

        let cfg = point.scheme.config();
        let programs = programs(point.scheme, point.cores, &cfg).expect("programs build");
        let policy = SwitchPolicy::Fixed(SLICE);
        let mut whole = MultiSim::new(cfg.clone(), programs.clone(), policy).expect("builds");
        whole.set_arrivals(&arrival_schedule(point.cores, ARRIVAL_SPAN, point.seed));
        let expected = whole.run(POINT_LIMIT).expect("run completes");
        let bytes = std::fs::read(&frames[frames.len() / 2].1).expect("frame readable");
        let mut resumed = MultiSim::restore(cfg, programs, policy, &bytes).expect("frame restores");
        let got = resumed.run(POINT_LIMIT).expect("resumed run completes");
        assert_eq!(format!("{got:?}"), format!("{expected:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_point_round_trips_histogram_buckets() {
        let live = run_point(ContendScheme::Csb, 4, 0xc0de_0001);
        let point = ContendPoint {
            scheme: ContendScheme::Csb,
            cores: 4,
            seed: 0xc0de_0001,
        };
        let payload = write_payload(&point, &mut live.clone());
        let decoded = read_payload(&point, &payload).expect("payload reads back");
        assert_eq!(decoded.payload_bytes, live.payload_bytes);
        assert_eq!(decoded.cycles, live.cycles);
        assert_eq!(
            decoded.flush, live.flush,
            "quantiles re-derived from buckets must match the live summary"
        );
    }
}
