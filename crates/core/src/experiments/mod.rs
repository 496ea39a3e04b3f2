//! Experiment harnesses regenerating every figure in the paper's evaluation.
//!
//! * [`fig3`] — uncached store bandwidth on a multiplexed bus, panels (a)–(i),
//! * [`fig4`] — uncached store bandwidth on a split address/data bus, (a)–(e),
//! * [`fig5`] — lock/access/unlock vs. CSB latency, panels (a)–(b),
//! * [`ablations`] — the in-text studies: superscalar width vs. lock
//!   overhead, the double-buffered CSB, and the variable-burst CSB,
//! * [`throughput`] — simulated-cycles-per-second of the engine itself,
//!   naive loop vs. idle-cycle fast-forward,
//! * [`faults`] — success rate and latency degradation of software retry
//!   policies under a seeded fault schedule (robustness study),
//! * [`contend`] — many-core contention: throughput and flush-latency
//!   tails at 16/32/64 processors, lock vs. per-process CSB lines vs. the
//!   double-buffered CSB (server-class scenario, not a paper figure),
//! * [`messaging`] — end-to-end reliable NIC messaging: exactly-once
//!   delivery accounting and latency tails of sequence-numbered messages
//!   through the attached NI, send path × size × fault rate × retry
//!   policy (robustness study, not a paper figure).
//!
//! Each sweep has exactly one entry point taking a worker count and an
//! [`runner::ObsConfig`], runs its points through the [`runner`] engine,
//! and returns serializable panel structures with a plain-text table
//! renderer, so the `csb-bench` binaries can print the same rows and
//! series the paper plots. The metric conventions match the paper: payload
//! bytes per bus cycle for Figures 3 and 4, CPU cycles per sequence for
//! Figure 5.

pub mod ablations;
pub mod contend;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod messaging;
pub mod runner;
pub mod throughput;

use std::fmt;

use serde::Serialize;

use csb_isa::Program;
use csb_obs::{BucketCount, HistogramSummary};
use csb_snap::{SnapshotReader, SnapshotWriter};

use crate::config::SimConfig;
use crate::sim::{SimError, Simulator};
use crate::workloads::{self, StorePath, WorkloadError};

/// Transfer sizes (bytes) swept by the bandwidth figures.
pub const TRANSFERS: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];

/// Bytes per doubleword store (Figure 5 sweeps doubleword counts).
pub(crate) const DWORD_BYTES: usize = 8;

/// Cycle budget per simulated point.
const POINT_LIMIT: u64 = 50_000_000;

/// Errors from experiment harnesses.
#[derive(Debug)]
pub enum ExpError {
    /// Workload generation failed.
    Workload(WorkloadError),
    /// Simulation failed.
    Sim(SimError),
    /// A required measurement (timing mark) was missing.
    MissingMark,
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Workload(e) => write!(f, "workload: {e}"),
            ExpError::Sim(e) => write!(f, "simulation: {e}"),
            ExpError::MissingMark => f.write_str("timing mark missing from run"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<WorkloadError> for ExpError {
    fn from(e: WorkloadError) -> Self {
        ExpError::Workload(e)
    }
}

impl From<SimError> for ExpError {
    fn from(e: SimError) -> Self {
        ExpError::Sim(e)
    }
}

/// A store-handling scheme compared in the figures: hardware combining with
/// a given block size (8 = non-combining), or the CSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scheme {
    /// Uncached buffer with the given combining block in bytes.
    Uncached {
        /// Combining block size (8 = non-combining).
        block: usize,
    },
    /// MIPS R10000 uncached-accelerated mode: sequential-pattern combining
    /// over a full line; partial lines degrade to single beats.
    R10k,
    /// PowerPC 620: pairs of same-size consecutive stores only.
    Ppc620,
    /// The conditional store buffer.
    Csb,
    /// The CSB driven by the out-of-line-retry kernel layout
    /// ([`workloads::StorePath::CsbOutlined`]): identical hardware, retry
    /// branches compiled off the hot path. Used by the throughput bench's
    /// long CSB-active point; not part of the figure ladders.
    CsbOutlined,
}

impl Scheme {
    /// The schemes a machine with the given line size compares: combining
    /// blocks from 8 bytes (none) up to the full line, then the CSB — the
    /// left-to-right bar order of the paper's figures.
    pub fn ladder(line: usize) -> Vec<Scheme> {
        let mut v = Vec::new();
        let mut b = 8;
        while b <= line {
            v.push(Scheme::Uncached { block: b });
            b *= 2;
        }
        v.push(Scheme::Csb);
        v
    }

    /// The machine this scheme runs on — `cfg` with the scheme's
    /// uncached-buffer overrides — and the store path its kernels take.
    pub fn machine(self, cfg: &SimConfig) -> (SimConfig, StorePath) {
        let mut cfg = cfg.clone();
        let path = match self {
            Scheme::Uncached { block } => {
                cfg = cfg.combining_block(block);
                StorePath::Uncached
            }
            Scheme::R10k => {
                cfg.uncached = csb_uncached::UncachedConfig::r10000(cfg.line());
                StorePath::Uncached
            }
            Scheme::Ppc620 => {
                cfg.uncached = csb_uncached::UncachedConfig::ppc620();
                StorePath::Uncached
            }
            Scheme::Csb => StorePath::Csb,
            Scheme::CsbOutlined => StorePath::CsbOutlined,
        };
        (cfg, path)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::Uncached { block: 8 } => f.write_str("none"),
            Scheme::Uncached { block } => write!(f, "{block}B"),
            Scheme::R10k => f.write_str("R10000"),
            Scheme::Ppc620 => f.write_str("PPC620"),
            Scheme::Csb => f.write_str("CSB"),
            Scheme::CsbOutlined => f.write_str("CSBo"),
        }
    }
}

/// One bandwidth panel: a machine configuration swept over transfer sizes
/// and schemes.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthPanel {
    /// Panel id, e.g. `"3a"`.
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Scheme labels, in column order.
    pub schemes: Vec<String>,
    /// One row per transfer size.
    pub rows: Vec<BandwidthRow>,
}

/// One transfer size's measurements across all schemes.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthRow {
    /// Transfer size in bytes.
    pub transfer: usize,
    /// Bytes per bus cycle, one per scheme.
    pub values: Vec<f64>,
}

impl BandwidthPanel {
    /// Renders the panel as a fixed-width text table (bytes/bus-cycle).
    pub fn to_table(&self) -> String {
        let mut headers = vec!["bytes".to_string()];
        headers.extend(self.schemes.iter().cloned());
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![r.transfer.to_string()];
                row.extend(r.values.iter().map(|v| format!("{v:.2}")));
                row
            })
            .collect();
        format!(
            "Figure {} — {}\n{}",
            self.id,
            self.title,
            format_table(&headers, &rows)
        )
    }
}

/// One latency panel (Figure 5): CPU cycles per sequence.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyPanel {
    /// Panel id, e.g. `"5a"`.
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Scheme labels, in column order.
    pub schemes: Vec<String>,
    /// One row per transfer size.
    pub rows: Vec<LatencyRow>,
}

/// One transfer size's latency across all schemes.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyRow {
    /// Transfer size in bytes (doublewords × 8).
    pub transfer: usize,
    /// CPU cycles per sequence, one per scheme.
    pub cycles: Vec<u64>,
}

impl LatencyPanel {
    /// Renders the panel as a fixed-width text table (CPU cycles).
    pub fn to_table(&self) -> String {
        let mut headers = vec!["bytes".to_string()];
        headers.extend(self.schemes.iter().cloned());
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![r.transfer.to_string()];
                row.extend(r.cycles.iter().map(|c| c.to_string()));
                row
            })
            .collect();
        format!(
            "Figure {} — {}\n{}",
            self.id,
            self.title,
            format_table(&headers, &rows)
        )
    }
}

/// Measures effective bandwidth (payload bytes per bus cycle) for one
/// machine configuration, transfer size, and scheme.
///
/// # Errors
///
/// Returns [`ExpError`] if the workload is invalid or the simulation does
/// not complete.
pub fn bandwidth_point(cfg: &SimConfig, transfer: usize, scheme: Scheme) -> Result<f64, ExpError> {
    bandwidth_point_ordered(cfg, transfer, scheme, workloads::StoreOrder::Ascending)
}

/// [`bandwidth_point`] with an explicit per-line store issue order — the
/// knob that separates pattern-based hardware combining (R10000, PowerPC
/// 620) from block combining and the order-insensitive CSB.
///
/// # Errors
///
/// As for [`bandwidth_point`].
pub fn bandwidth_point_ordered(
    cfg: &SimConfig,
    transfer: usize,
    scheme: Scheme,
    order: workloads::StoreOrder,
) -> Result<f64, ExpError> {
    let work = runner::PointWork::Bandwidth {
        transfer,
        scheme,
        order,
    };
    let (value, _, _) = work.measure(&mut None, cfg, runner::ObsConfig::default())?;
    Ok(value
        .bandwidth()
        .expect("a bandwidth point measures bandwidth"))
}

/// Readies `slot` to simulate `(cfg, program)`: warm-resets the simulator
/// already in the slot, or cold-constructs one into an empty slot. Both
/// paths yield identical simulation results; the warm path skips the
/// allocations construction would repeat.
pub(crate) fn install_sim(
    slot: &mut Option<Simulator>,
    cfg: SimConfig,
    program: Program,
) -> Result<&mut Simulator, ExpError> {
    match slot {
        Some(sim) => sim.reset_with(cfg, program)?,
        None => *slot = Some(Simulator::new(cfg, program)?),
    }
    Ok(slot.as_mut().expect("slot was just filled"))
}

/// Runs the simulator `install` readies on both loops, metrics on, and
/// asserts that every observable the periodic skip could disturb is
/// byte-identical: the outcome (summary or livelock report), the final
/// summary, `CsbStats`, the metrics snapshot with its timeline, and the
/// NI's message log. Returns the real ticks of (fast-forward, naive).
#[cfg(test)]
pub(crate) fn assert_loops_agree(
    label: &str,
    install: impl Fn(&mut Option<Simulator>) -> Result<(), ExpError>,
    limit: u64,
) -> (u64, u64) {
    let mut runs = Vec::new();
    for fast_forward in [true, false] {
        let mut slot = None;
        install(&mut slot).expect("point installs");
        let sim = slot.as_mut().expect("install fills the slot");
        sim.set_fast_forward(fast_forward);
        sim.enable_metrics();
        let outcome = match sim.run(limit) {
            Ok(summary) => serde_json::to_string(&summary).expect("summary serializes"),
            Err(e) => format!("{e:?}"),
        };
        runs.push((
            outcome,
            serde_json::to_string(&sim.summary()).expect("summary serializes"),
            sim.csb_stats(),
            sim.metrics_snapshot(),
            format!("{:?}", sim.nic().map(|nic| (nic.messages(), nic.stats()))),
            sim.ticks(),
        ));
    }
    let (ff, naive) = (&runs[0], &runs[1]);
    assert_eq!(ff.0, naive.0, "{label}: outcome");
    assert_eq!(ff.1, naive.1, "{label}: summary");
    assert_eq!(ff.2, naive.2, "{label}: CsbStats");
    assert_eq!(ff.3, naive.3, "{label}: metrics snapshot");
    assert_eq!(ff.4, naive.4, "{label}: NI message log");
    (ff.5, naive.5)
}

/// Writes an optional latency histogram into a cache payload as raw
/// bucket counts, so a cached point merges across seeds exactly like a
/// live one ([`take_histogram`] re-derives the quantiles).
pub(crate) fn put_histogram(w: &mut SnapshotWriter, h: Option<&HistogramSummary>) {
    match h {
        Some(h) => {
            w.put_bool(true);
            w.put_u64(h.count);
            w.put_u64(h.sum);
            w.put_u64(h.min);
            w.put_u64(h.max);
            w.put_usize(h.buckets.len());
            for b in &h.buckets {
                w.put_u64(b.le);
                w.put_u64(b.n);
            }
        }
        None => w.put_bool(false),
    }
}

/// Reads what [`put_histogram`] wrote; the outer `None` means the payload
/// is malformed. Merging the raw buckets into an empty summary runs the
/// exact ranked-walk estimator, so a decoded histogram is
/// indistinguishable from a live capture.
pub(crate) fn take_histogram(r: &mut SnapshotReader<'_>) -> Option<Option<HistogramSummary>> {
    if !r.take_bool().ok()? {
        return Some(None);
    }
    let empty = || HistogramSummary {
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
        p50: 0,
        p95: 0,
        p99: 0,
        p999: 0,
        buckets: Vec::new(),
    };
    let mut raw = empty();
    raw.count = r.take_u64().ok()?;
    raw.sum = r.take_u64().ok()?;
    raw.min = r.take_u64().ok()?;
    raw.max = r.take_u64().ok()?;
    for _ in 0..r.take_usize().ok()? {
        let le = r.take_u64().ok()?;
        let n = r.take_u64().ok()?;
        raw.buckets.push(BucketCount { le, n });
    }
    let mut summary = empty();
    summary.merge(&raw);
    Some(Some(summary))
}

/// Merges per-seed latency histograms into one cell's; `None` when no
/// seed recorded one.
pub(crate) fn merge_histograms<'a>(
    hs: impl Iterator<Item = &'a HistogramSummary>,
) -> Option<HistogramSummary> {
    hs.fold(None, |acc, h| match acc {
        Some(mut s) => {
            s.merge(h);
            Some(s)
        }
        None => Some(h.clone()),
    })
}

/// Renders a fixed-width text table.
pub fn format_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::runner::{KeyMemo, PointSpec, SweepPoint};
    use super::*;
    use crate::cache::PointCache;

    #[test]
    fn scheme_ladder_and_labels() {
        let l = Scheme::ladder(64);
        assert_eq!(l.len(), 5); // 8,16,32,64 + CSB
        assert_eq!(l[0].to_string(), "none");
        assert_eq!(l[2].to_string(), "32B");
        assert_eq!(l[4].to_string(), "CSB");
        assert_eq!(Scheme::ladder(32).len(), 4);
    }

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["a".into(), "bbb".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbb"));
    }

    /// A seeded point's key as its sweep derived it before the key memo:
    /// the configuration's rendering, the workload rendering and the seed,
    /// through [`PointCache::key`] at once.
    fn one_shot_seeded(cfg: &SimConfig, work: &str, seed: u64) -> u64 {
        let cfg = format!("{cfg:?}");
        PointCache::key(&[cfg.as_bytes(), work.as_bytes(), &seed.to_le_bytes()])
    }

    /// Keys `points` the way `run_sweep` does — every worker forks its
    /// own memo's configuration state — at one and at four workers, and
    /// with one memo over the points in reverse, so runs break at other
    /// places; each key must be `one_shot`'s.
    fn assert_engine_keys<P: SweepPoint>(sweep: &str, points: &[P], one_shot: impl Fn(&P) -> u64) {
        let expected: Vec<u64> = points.iter().map(one_shot).collect();
        for jobs in [1, 4] {
            let keys = runner::parallel_map_with(points, jobs, KeyMemo::default, |memo, p| {
                p.cache_key(memo)
            });
            assert_eq!(keys, expected, "{sweep} at {jobs} worker(s)");
        }
        let mut memo = KeyMemo::default();
        for (p, want) in points.iter().zip(&expected).rev() {
            assert_eq!(p.cache_key(&mut memo), *want, "{sweep} reversed");
        }
    }

    /// Every point of the three figures, in sweep order.
    fn figure_specs() -> Vec<PointSpec> {
        [fig3::panel_specs(), fig4::panel_specs()]
            .iter()
            .flatten()
            .flat_map(runner::BandwidthPanelSpec::enumerate)
            .chain(
                fig5::panel_specs()
                    .iter()
                    .flat_map(runner::LatencyPanelSpec::enumerate),
            )
            .collect()
    }

    #[test]
    fn engine_keys_equal_the_one_shot_derivation() {
        let specs = |p: &PointSpec| PointCache::key_debug(&[&p.cfg, &p.work], 0);
        assert_engine_keys("figures", &figure_specs(), specs);
        assert_engine_keys("ablations", &ablations::all_specs(), specs);

        assert_engine_keys("faults", &faults::FaultPoint::all(), |p| {
            let work = format!(
                "faults {}dw {:?} rate {:016x}",
                faults::DWORDS,
                faults::policy_for_seed(p.policy, p.seed),
                p.rate.to_bits()
            );
            one_shot_seeded(&SimConfig::default(), &work, p.seed)
        });
        assert_engine_keys("messaging", &messaging::MessagingPoint::all(), |p| {
            let work = format!(
                "messaging {} {}x{}dw s{} {:?} rate {:016x}",
                p.path.label(),
                messaging::MESSAGES,
                p.size,
                messaging::SLOTS,
                faults::policy_for_seed(p.policy, p.seed),
                p.rate.to_bits()
            );
            one_shot_seeded(&p.path.config(), &work, p.seed)
        });
        assert_engine_keys("contend", &contend::ContendPoint::all(), |p| {
            let work = format!(
                "contend {} c{} {}it {}dw slice{} span{}",
                p.scheme.label(),
                p.cores,
                contend::ITERATIONS,
                contend::DWORDS,
                contend::SLICE,
                contend::ARRIVAL_SPAN
            );
            one_shot_seeded(&p.scheme.config(), &work, p.seed)
        });
    }

    /// Appends one line per distinct program in `programs`: who built it
    /// first, its length and its fingerprint.
    fn pin_distinct(
        out: &mut String,
        set: &str,
        programs: impl IntoIterator<Item = (String, Program)>,
    ) {
        let mut seen = std::collections::HashSet::new();
        for (name, program) in programs {
            let fp = crate::snapshot::program_fingerprint(&program);
            if seen.insert(fp) {
                let _ = writeln!(out, "{set} {name}: {} {fp:016x}", program.len());
            }
        }
    }

    /// The program a sweep point installed into `slot`.
    fn installed(slot: Result<&mut Simulator, ExpError>) -> Program {
        slot.expect("point installs").cpu().program().clone()
    }

    /// Every distinct program the sweeps and the throughput bench build.
    fn sweep_kernels(out: &mut String) {
        use throughput::Timed as _;
        let mut slot = None;
        let specs = |specs: Vec<PointSpec>, slot: &mut Option<Simulator>| {
            specs
                .into_iter()
                .map(|p| (p.label.clone(), installed(p.work.install(slot, &p.cfg))))
                .collect::<Vec<_>>()
        };
        pin_distinct(out, "figures", specs(figure_specs(), &mut slot));
        pin_distinct(out, "ablations", specs(ablations::all_specs(), &mut slot));
        let faults: Vec<_> = faults::FaultPoint::all()
            .iter()
            .map(|p| {
                let name = format!("{} seed {:#x}", p.label(), p.seed);
                (name, installed(p.install(&mut slot)))
            })
            .collect();
        pin_distinct(out, "faults", faults);
        let messaging: Vec<_> = messaging::MessagingPoint::all()
            .iter()
            .map(|p| {
                let name = format!("{} seed {:#x}", p.label(), p.seed);
                (name, installed(p.install(&mut slot)))
            })
            .collect();
        pin_distinct(out, "messaging", messaging);
        let contend: Vec<_> = contend::ContendPoint::all()
            .iter()
            .flat_map(|p| {
                let programs = contend::programs(p.scheme, p.cores, &p.scheme.config())
                    .expect("contend programs build");
                let label = p.label();
                programs
                    .into_iter()
                    .enumerate()
                    .map(move |(i, program)| (format!("{label} proc {i}"), program))
            })
            .collect();
        pin_distinct(out, "contend", contend);
        let mut bench = specs(throughput::default_points(), &mut slot);
        let backoff = throughput::BackoffPoint;
        bench.push((backoff.label(), installed(backoff.install(&mut slot))));
        let sched = throughput::sched_programs().expect("scheduler programs build");
        bench.extend(
            sched
                .into_iter()
                .enumerate()
                .map(|(i, program)| (format!("sched proc {i}"), program)),
        );
        pin_distinct(out, "runner_bench", bench);
    }

    /// Every public generator over a grid of its inputs: line sizes 32, 64
    /// and 128, every store path and order, and the fault ladder's
    /// policies under several seeds.
    fn generator_kernels(out: &mut String) {
        use workloads::{MessagingSpec, RandomMix, RetryPolicy, StoreOrder};
        let mut grid: Vec<(String, Program)> = Vec::new();
        let mut pin = |name: String, program: Result<Program, WorkloadError>| {
            grid.push((
                name.clone(),
                program.unwrap_or_else(|e| panic!("{name}: {e}")),
            ));
        };
        for dwords in [1, 2, 3, 7, 8, 16, 64, 512] {
            pin(
                format!("lock_sequence({dwords})"),
                workloads::lock_sequence(dwords),
            );
        }
        for iterations in [1, 8] {
            for dwords in [1, 8, 16] {
                pin(
                    format!("lock_worker({iterations}, {dwords})"),
                    workloads::lock_worker(iterations, dwords),
                );
            }
        }
        let mut policies = vec![
            RetryPolicy::Bounded { attempts: 1 },
            RetryPolicy::Backoff {
                attempts: 2,
                base: 1,
                max: 0,
                seed: 5,
            },
            RetryPolicy::Backoff {
                attempts: 6,
                base: 100,
                max: 10,
                seed: 3,
            },
        ];
        for seed in [0, 1, 0x5eed_1453, u64::MAX] {
            policies.extend(
                faults::policies()
                    .into_iter()
                    .map(|p| faults::policy_for_seed(p, seed)),
            );
        }
        for line in [32, 64, 128] {
            let cfg = SimConfig::default().line_size(line);
            let max = line / 8;
            for path in [StorePath::Uncached, StorePath::Csb, StorePath::CsbOutlined] {
                for order in [StoreOrder::Ascending, StoreOrder::Shuffled] {
                    for bytes in [8, 16, 24, 32, 40, 64, 80, 128, 200, 256, 512, 1024, 4096] {
                        pin(
                            format!("store_bandwidth_ordered({bytes}, line {line}, {path:?}, {order:?})"),
                            workloads::store_bandwidth_ordered(bytes, &cfg, path, order),
                        );
                    }
                }
            }
            for dwords in 1..=max {
                pin(
                    format!("csb_sequence({dwords}, line {line})"),
                    workloads::csb_sequence(dwords, &cfg),
                );
            }
            for dwords in [1, max / 2, max] {
                for retries in [1, 3, 64] {
                    pin(
                        format!("csb_sequence_with_fallback({dwords}, {retries}, line {line})"),
                        workloads::csb_sequence_with_fallback(dwords, retries, &cfg),
                    );
                }
                for policy in &policies {
                    pin(
                        format!("csb_sequence_with_policy({dwords}, {policy:?}, line {line})"),
                        workloads::csb_sequence_with_policy(dwords, *policy, &cfg),
                    );
                }
                for iterations in [1, 8] {
                    for line_index in [0, 1, 63] {
                        pin(
                            format!(
                                "csb_worker({iterations}, {dwords}, {line_index}, line {line})"
                            ),
                            workloads::csb_worker(iterations, dwords, line_index, &cfg),
                        );
                    }
                }
            }
            for payload_dwords in [1, max - 1] {
                for (count, slots) in [(1, 1), (16, 4), (5, 2)] {
                    let spec = MessagingSpec {
                        count,
                        payload_dwords,
                        sender: 3,
                        slots,
                    };
                    for policy in &policies {
                        pin(
                            format!("csb_messages({spec:?}, {policy:?}, line {line})"),
                            workloads::csb_messages(spec, *policy, &cfg),
                        );
                        pin(
                            format!("lock_messages({spec:?}, {policy:?}, line {line})"),
                            workloads::lock_messages(spec, *policy, &cfg),
                        );
                    }
                }
            }
            for seed in [0, 1, 7] {
                for mix in [
                    RandomMix::default(),
                    RandomMix {
                        ops: 50,
                        mem_percent: 100,
                    },
                ] {
                    pin(
                        format!("random_mixed({seed}, {mix:?}, line {line})"),
                        workloads::random_mixed(seed, mix, &cfg),
                    );
                }
            }
        }
        for (name, program) in grid {
            let fp = crate::snapshot::program_fingerprint(&program);
            let _ = writeln!(out, "grid {name}: {} {fp:016x}", program.len());
        }
    }

    /// Pins every kernel: the programs the sweeps build and a grid over
    /// every public generator keep their length and fingerprint, label
    /// ids included. Regenerate with `UPDATE_GOLDEN=1 cargo test -p
    /// csb-core kernels_match_golden` only for an intentional kernel
    /// change.
    #[test]
    fn kernels_match_golden() {
        let mut actual = String::new();
        sweep_kernels(&mut actual);
        generator_kernels(&mut actual);
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/kernels.txt");
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(&path, &actual).expect("golden file writes");
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "{} missing — run UPDATE_GOLDEN=1 cargo test -p csb-core kernels_match_golden",
                path.display()
            )
        });
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                a,
                e,
                "kernel {} drifted from tests/golden/kernels.txt",
                i + 1
            );
        }
        assert_eq!(
            actual.lines().count(),
            expected.lines().count(),
            "kernel count"
        );
    }

    #[test]
    fn configurations_that_render_apart_key_apart() {
        // A utilization of -0.0 equals 0.0 under IEEE comparison but
        // renders differently, so a memo that trusted it would hand one
        // configuration the other's key.
        let bus = |utilization: f64| {
            csb_bus::BusConfig::multiplexed(8)
                .max_burst(64)
                .background(utilization, 64)
                .build()
                .unwrap()
        };
        let (zero, negative) = (
            SimConfig::default().bus(bus(0.0)),
            SimConfig::default().bus(bus(-0.0)),
        );
        assert_ne!(format!("{zero:?}"), format!("{negative:?}"));
        let mut memo = KeyMemo::default();
        for cfg in [&zero, &negative, &zero] {
            assert_eq!(memo.seeded(cfg, "work", 1), one_shot_seeded(cfg, "work", 1));
        }
    }

    #[test]
    fn bandwidth_point_baseline() {
        // Cross-check the paper's 4 B/cycle non-combining anchor through
        // the public harness entry point.
        let cfg = SimConfig::default();
        let bw = bandwidth_point(&cfg, 256, Scheme::Uncached { block: 8 }).unwrap();
        assert!((bw - 4.0).abs() < 0.1, "got {bw}");
    }

    #[test]
    fn csb_small_transfer_penalty() {
        // A 16-byte transfer through the full-line CSB pays for a 64-byte
        // burst: 16 bytes / 9 bus cycles.
        let cfg = SimConfig::default();
        let bw = bandwidth_point(&cfg, 16, Scheme::Csb).unwrap();
        assert!((bw - 16.0 / 9.0).abs() < 0.05, "got {bw}");
    }
}
