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

use serde::value::Value;
use serde::Serialize;

use csb_isa::Program;
use csb_obs::{BucketCount, HistogramSummary};
use csb_snap::{Codec, SnapshotError};

use crate::config::SimConfig;
use crate::sim::{SimError, Simulator};
use crate::workloads::{StorePath, WorkloadError};
use runner::{PanelSpec, PointSpec, PointValue};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
    /// ([`StorePath::CsbOutlined`]): identical hardware, retry
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

/// One panel of Figures 3–5: a machine configuration swept over sizes and
/// schemes.
#[derive(Debug, Clone, Serialize)]
pub struct Panel {
    /// Panel id, e.g. `"3a"`.
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Scheme labels, in column order.
    pub schemes: Vec<String>,
    /// One row per size.
    pub rows: Vec<PanelRow>,
}

/// One size's measurements across all schemes.
#[derive(Debug, Clone)]
pub struct PanelRow {
    /// Transfer size in bytes (doublewords × 8 for Figure 5).
    pub transfer: usize,
    /// Bytes per bus cycle or CPU cycles per sequence, one per scheme.
    pub values: Vec<PointValue>,
}

/// `transfer` plus the readings under `values` for bandwidth rows and
/// under `cycles` for latency rows.
impl Serialize for PanelRow {
    fn to_value(&self) -> Value {
        let key = match self.values.first() {
            Some(PointValue::Latency(_)) => "cycles",
            _ => "values",
        };
        Value::Object(vec![
            ("transfer".to_string(), self.transfer.to_value()),
            (key.to_string(), self.values.to_value()),
        ])
    }
}

impl Panel {
    /// Renders the panel as a fixed-width text table: bytes per bus cycle
    /// to two decimals, or CPU cycles.
    pub fn to_table(&self) -> String {
        let mut headers = vec!["bytes".to_string()];
        headers.extend(self.schemes.iter().cloned());
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![r.transfer.to_string()];
                row.extend(r.values.iter().map(|v| match v {
                    PointValue::Bandwidth(b) => format!("{b:.2}"),
                    PointValue::Latency(c) => c.to_string(),
                }));
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

/// Every point of Figures 3–5, in figure, panel and enumeration order.
pub fn figure_points() -> Vec<PointSpec> {
    [
        fig3::panel_specs(),
        fig4::panel_specs(),
        fig5::panel_specs(),
    ]
    .iter()
    .flatten()
    .flat_map(PanelSpec::enumerate)
    .collect()
}

/// The flow-control part of a Figure 3 or 4 panel title: its turnaround,
/// else its minimum address-to-address delay.
fn flow_control(turnaround: u64, delay: u64) -> String {
    if turnaround > 0 {
        format!("{turnaround}-cycle turnaround")
    } else if delay > 0 {
        format!("min addr delay {delay}")
    } else {
        "no turnaround".to_string()
    }
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

/// Walks an optional latency histogram in a cache payload as raw bucket
/// counts, so a cached point merges across seeds exactly like a live one:
/// a restore merges the raw buckets into an empty summary, which runs the
/// exact ranked-walk estimator and re-derives the quantiles.
pub(crate) fn histogram_state(
    h: &mut Option<HistogramSummary>,
    s: &mut impl Codec,
) -> Result<(), SnapshotError> {
    s.opt(h, HistogramSummary::default, |s, h| {
        for v in [&mut h.count, &mut h.sum, &mut h.min, &mut h.max] {
            s.u64(v)?;
        }
        let blank = BucketCount { le: 0, n: 0 };
        s.list(
            &mut h.buckets,
            usize::MAX,
            "histogram buckets",
            blank,
            |s, b| {
                s.u64(&mut b.le)?;
                s.u64(&mut b.n)
            },
        )?;
        if s.reading() {
            let raw = std::mem::take(h);
            h.merge(&raw);
        }
        Ok(())
    })
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
    use std::collections::HashMap;
    use std::fmt::Write as _;

    use super::fig5::LockResidency;
    use super::runner::{ObsConfig, PointWork, SweepPoint};
    use super::*;
    use crate::cache::PointCache;
    use crate::workloads::{self, StoreOrder};

    /// Effective bandwidth (payload bytes per bus cycle) of one transfer
    /// size and scheme on `cfg`, its stores in ascending order.
    pub(crate) fn bandwidth_point(
        cfg: &SimConfig,
        transfer: usize,
        scheme: Scheme,
    ) -> Result<f64, ExpError> {
        bandwidth_point_ordered(cfg, transfer, scheme, StoreOrder::Ascending)
    }

    /// [`bandwidth_point`] with an explicit per-line store issue order —
    /// the knob that separates pattern-based hardware combining (R10000,
    /// PowerPC 620) from block combining and the order-insensitive CSB.
    pub(crate) fn bandwidth_point_ordered(
        cfg: &SimConfig,
        transfer: usize,
        scheme: Scheme,
        order: StoreOrder,
    ) -> Result<f64, ExpError> {
        let work = PointWork::Bandwidth {
            transfer,
            scheme,
            order,
        };
        let (value, _, _) = work.measure(&mut None, cfg, ObsConfig::default())?;
        Ok(value
            .bandwidth()
            .expect("a bandwidth point measures bandwidth"))
    }

    /// CPU cycles of a lock-based sequence of `dwords` stores under the
    /// given combining block, or of the CSB sequence.
    pub(crate) fn latency_point(
        cfg: &SimConfig,
        dwords: usize,
        scheme: Scheme,
        residency: LockResidency,
    ) -> Result<u64, ExpError> {
        let work = PointWork::Latency {
            dwords,
            scheme,
            residency,
        };
        let (value, _, _) = work.measure(&mut None, cfg, ObsConfig::default())?;
        Ok(value.latency().expect("a latency point measures latency"))
    }

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

    /// Checks that `points`' keys group them exactly as their
    /// descriptions do — two points share a key if and only if `describe`
    /// renders them alike — and returns the number of distinct keys and
    /// of points.
    fn partition<P: SweepPoint>(points: &[P], describe: impl Fn(&P) -> String) -> (usize, usize) {
        let mut by_key: HashMap<u64, String> = HashMap::new();
        let mut by_description: HashMap<String, u64> = HashMap::new();
        for p in points {
            let (key, description) = (p.cache_key(), describe(p));
            let first = by_key.entry(key).or_insert_with(|| description.clone());
            assert_eq!(*first, description, "two descriptions share key {key:016x}");
            let first = by_description.entry(description).or_insert(key);
            assert_eq!(*first, key, "{}: one description, two keys", p.label());
        }
        (by_key.len(), points.len())
    }

    #[test]
    fn keys_partition_points_as_their_descriptions_do() {
        let spec = |p: &PointSpec| format!("{:?}", (&p.cfg, p.work, 0));
        assert_eq!(partition(&figure_points(), spec), (511, 539));
        assert_eq!(partition(&ablations::all_specs(), spec), (70, 84));
        let policy = faults::policy_for_seed;
        let fault = |p: &faults::FaultPoint| {
            let work = (faults::DWORDS, policy(p.policy, p.seed), p.rate);
            format!("{:?}", (SimConfig::default(), work, p.seed))
        };
        assert_eq!(partition(&faults::FaultPoint::all(), fault), (288, 288));
        let message = |p: &messaging::MessagingPoint| {
            let shape = (messaging::MESSAGES, p.size, messaging::SLOTS);
            let work = (p.path, shape, policy(p.policy, p.seed), p.rate);
            format!("{:?}", (p.path.config(), work, p.seed))
        };
        let points = messaging::MessagingPoint::all();
        assert_eq!(partition(&points, message), (288, 288));
        let contention = |p: &contend::ContendPoint| {
            let shape = (contend::ITERATIONS, contend::DWORDS);
            let work = (
                p.scheme,
                p.cores,
                shape,
                contend::SLICE,
                contend::ARRIVAL_SPAN,
            );
            format!("{:?}", (p.scheme.config(), work, p.seed))
        };
        assert_eq!(
            partition(&contend::ContendPoint::all(), contention),
            (18, 18)
        );
    }

    /// Each sweep's keys, as `run_sweep` takes them from its points, equal
    /// [`PointCache::key_of`] over the identity written out at once: the
    /// configuration, the work with every module constant that shapes it,
    /// and the seed. A figure point's is the derivation `explore` uses, so
    /// its ledger record carries the key the point has in a sweep.
    #[test]
    fn engine_keys_equal_the_one_shot_derivation() {
        fn assert_keys<P: SweepPoint>(sweep: &str, points: &[P], one_shot: impl Fn(&P) -> u64) {
            for p in points {
                assert_eq!(p.cache_key(), one_shot(p), "{sweep}: {}", p.label());
            }
        }
        let specs = |p: &PointSpec| PointCache::key_of(&(&p.cfg, &p.work));
        assert_keys("figures", &figure_points(), specs);
        assert_keys("ablations", &ablations::all_specs(), specs);
        let policy = faults::policy_for_seed;
        assert_keys("faults", &faults::FaultPoint::all(), |p| {
            PointCache::key_of(&(
                SimConfig::default(),
                "faults",
                faults::DWORDS,
                policy(p.policy, p.seed),
                p.rate.to_bits(),
                p.seed,
            ))
        });
        assert_keys("messaging", &messaging::MessagingPoint::all(), |p| {
            PointCache::key_of(&(
                p.path.config(),
                "messaging",
                p.path,
                messaging::MESSAGES,
                p.size,
                messaging::SLOTS,
                policy(p.policy, p.seed),
                p.rate.to_bits(),
                p.seed,
            ))
        });
        assert_keys("contend", &contend::ContendPoint::all(), |p| {
            PointCache::key_of(&(
                p.scheme.config(),
                "contend",
                p.scheme,
                p.cores,
                contend::ITERATIONS,
                contend::DWORDS,
                contend::SLICE,
                contend::ARRIVAL_SPAN,
                p.seed,
            ))
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
            let fp = csb_snap::hash_of(&program);
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
        pin_distinct(out, "figures", specs(figure_points(), &mut slot));
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
        let backoff = throughput::backoff_point();
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
            let fp = csb_snap::hash_of(&program);
            let _ = writeln!(out, "grid {name}: {} {fp:016x}", program.len());
        }
    }

    /// Pins every kernel: the programs the sweeps build and a grid over
    /// every public generator keep their length and fingerprint (each
    /// branch by its resolved target). Regenerate with `UPDATE_GOLDEN=1 cargo test -p
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

    /// Appends the length and FNV-1a of `output`'s cache payload under
    /// `point`, after checking that the payload reads back to `output`.
    fn pin_payload<P: SweepPoint>(out: &mut String, kind: &str, point: &P, mut output: P::Output)
    where
        P::Output: fmt::Debug,
    {
        let payload = runner::write_payload(point, &mut output);
        let decoded = runner::read_payload(point, &payload).expect("payload reads back");
        assert_eq!(format!("{decoded:?}"), format!("{output:?}"), "{kind}");
        let sum = csb_snap::fnv1a(&payload);
        let _ = writeln!(out, "{kind} {} {sum:016x}", payload.len());
    }

    /// Pins the cache payload of one fixed output of every point kind:
    /// bandwidth and latency specs, and fault, messaging and contention
    /// points, the last two with a multi-bucket histogram. Regenerate with
    /// `UPDATE_GOLDEN=1 cargo test -p csb-core payloads_match_golden` only
    /// for an intentional payload change.
    #[test]
    fn payloads_match_golden() {
        let histogram = |values: &[u64]| {
            let mut h = csb_obs::Histogram::default();
            for &v in values {
                h.observe(v);
            }
            h.summary()
        };
        let specs = figure_points();
        let kind = |bandwidth: bool| {
            specs
                .iter()
                .find(|p| matches!(p.work, runner::PointWork::Bandwidth { .. }) == bandwidth)
                .expect("the figures measure both kinds")
        };
        let mut actual = String::new();
        let out = &mut actual;
        let (bandwidth, latency) = (PointValue::Bandwidth(2.75), PointValue::Latency(87));
        pin_payload(out, "bandwidth", kind(true), (bandwidth, 1_234));
        pin_payload(out, "latency", kind(false), (latency, 4_321));
        // The kind guard: a latency spec rejects a bandwidth payload.
        let payload = runner::write_payload(kind(true), &mut (bandwidth, 1_234));
        assert!(runner::read_payload(kind(false), &payload).is_none());
        let fault = faults::PointResult {
            success: true,
            livelock: false,
            attempts: 3,
            latency: 57,
            sim_cycles: 990,
        };
        pin_payload(out, "fault", &faults::FaultPoint::all()[0], fault);
        let message = messaging::PointResult {
            delivered: 29,
            torn: 1,
            duplicates: 2,
            dropped: 3,
            corrupt: 1,
            livelock: true,
            e2e: Some(histogram(&[40, 41, 95, 260, 1_900])),
            sim_cycles: 123_456,
        };
        let sender = &messaging::MessagingPoint::all()[0];
        pin_payload(out, "messaging", sender, message);
        let contention = contend::PointResult {
            payload_bytes: 8_192,
            cycles: 77_000,
            switches: 130,
            flush_failures: 12,
            cross_pid_resets: 9,
            flush: Some(histogram(&[7, 7, 33, 500, 12_000, 80_000])),
            sim_cycles: 77_001,
        };
        pin_payload(out, "contend", &contend::ContendPoint::all()[0], contention);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/payloads.txt");
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(&path, &actual).expect("golden file writes");
            return;
        }
        let expected = std::fs::read_to_string(&path).expect("tests/golden/payloads.txt reads");
        assert_eq!(actual, expected, "a cache payload drifted");
    }

    #[test]
    fn configurations_that_render_apart_key_apart() {
        // A utilization of -0.0 equals 0.0 under IEEE comparison, but its
        // bits and its rendering differ, so it is another configuration
        // and another key. Equal configurations key alike however they
        // were built.
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
        assert_ne!(zero, negative);
        let work = figure_points()[0].work;
        let key = |cfg: &SimConfig| PointCache::key_of(&(cfg, &work));
        assert_eq!(key(&zero), key(&SimConfig::default().bus(bus(0.0))));
        assert_ne!(key(&zero), key(&negative));
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
