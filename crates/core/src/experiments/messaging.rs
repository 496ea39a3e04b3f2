//! Reliable NIC messaging sweep: exactly-once delivery under fault
//! injection (the robustness study for the paper's §2/§5 NI scenario).
//!
//! Each point runs one of the messaging senders
//! ([`workloads::csb_messages`] / [`workloads::lock_messages`]) against a
//! [`csb_nic::Nic`] attached to the machine's I/O window, so every bus
//! write the sender produces is assembled into sequence-numbered frames by
//! the device itself. The receive-side seq accounting then classifies the
//! outcome per message: **delivered** (first copy of a seq with an intact
//! payload), **duplicate** (a seq seen again), **torn** (a header landed
//! on an incomplete frame — counted by the NI), and **dropped** (a seq
//! that never completed, because the sender's retry budget ran dry or the
//! livelock watchdog stopped a hard-stalled run).
//!
//! The sweep crosses send path (global lock over single uncached beats,
//! CSB line bursts, double-buffered CSB) × message size × fault rate
//! (conditional-flush disturbances, with bus errors and device NACKs at a
//! quarter of the rate) × retry policy, and reports per-cell delivery
//! counts plus the `nic_e2e_latency` histogram's p50/p95/p99/p99.9 tail —
//! end-to-end from the first header store on the bus to wire arrival
//! through [`csb_nic::WireModel`].
//!
//! Two invariants are checked rather than plotted:
//!
//! * **exactly-once at rate 0** ([`MessagingSweep::exactly_once_at_zero`]):
//!   with no faults, every path delivers every message exactly once — zero
//!   torn, duplicate, and dropped counts — by construction (the uncached
//!   path is FIFO and strongly ordered; the CSB delivers a line only on a
//!   successful atomic flush).
//! * **per-seed monotone degradation**
//!   ([`MessagingSweep::per_seed_monotone`]): seeds are shared across the
//!   rate axis, and the injector compares an ordinal hash against a
//!   rate-proportional threshold, so raising the rate only adds fault
//!   ordinals to the same schedule — per seed, the delivered count can
//!   only fall as the rate rises.

use serde::Serialize;

use super::faults::{inject_faults, policy_for_seed, policy_label};
use super::runner::{
    run_sweep, AdvanceCounts, LabeledArtifacts, ObsConfig, PointArtifacts, PointValue, RunReport,
    SweepPoint,
};
use super::throughput::Timed;
use super::{format_table, histogram_state, merge_histograms, ExpError};
use crate::cache::PointCache;
use crate::config::{SimConfig, COMBINING_BASE, UNCACHED_BASE};
use crate::sim::{SimError, Simulator};
use crate::workloads::{self, MessagingSpec, RetryPolicy};
use csb_isa::Addr;
use csb_obs::HistogramSummary;
use csb_snap::{Codec, SnapshotError};

/// Fault rates swept (flush-disturb fraction; bus errors and device NACKs
/// run at a quarter of it). Seeds are shared across this axis so each
/// seed's degradation curve is monotone by construction.
pub const RATES: [f64; 4] = [0.0, 0.25, 0.5, 0.9];

/// Payload sizes swept, in doublewords (8 and 56 payload bytes: a
/// doorbell-sized message and a near-full line).
pub const SIZES: [usize; 2] = [1, 7];

/// Independent fault-schedule seeds per (path, size, policy) group.
pub const SEEDS_PER_CELL: u64 = 4;

/// Messages per point (sequence numbers `0..MESSAGES`).
pub const MESSAGES: usize = 16;

/// NI window slots the sender cycles through.
pub(super) const SLOTS: usize = 4;

/// Sender id stamped into every header.
const SENDER: u16 = 1;

/// Cycle budget per point (the watchdog fires far earlier on livelock).
const POINT_LIMIT: u64 = 2_000_000;

/// The end-to-end latency histogram the quantile columns read.
const E2E_HISTOGRAM: &str = "nic_e2e_latency";

/// One send path (row group): how header and payload stores reach the NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SendPath {
    /// Global spin lock around single uncached beats (conventional
    /// baseline: the NI assembles each frame from a dribble of writes).
    Lock,
    /// CSB line bursts: each message arrives as one atomic flush.
    Csb,
    /// The same sender on the double-buffered CSB (§3.3 ablation).
    CsbDouble,
}

/// The send-path ladder the sweep compares, in row-group order.
pub fn paths() -> Vec<SendPath> {
    vec![SendPath::Lock, SendPath::Csb, SendPath::CsbDouble]
}

impl SendPath {
    /// Short label for tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            SendPath::Lock => "lock",
            SendPath::Csb => "csb",
            SendPath::CsbDouble => "csb2x",
        }
    }

    /// Machine configuration for this path.
    pub(super) fn config(self) -> SimConfig {
        match self {
            SendPath::Lock | SendPath::Csb => SimConfig::default(),
            SendPath::CsbDouble => SimConfig::default().csb_double_buffered(),
        }
    }

    /// Bus address the NI window is mapped at for this path.
    fn window_base(self) -> u64 {
        match self {
            SendPath::Lock => UNCACHED_BASE,
            SendPath::Csb | SendPath::CsbDouble => COMBINING_BASE,
        }
    }
}

/// Aggregated outcomes of one (path, size, rate, policy) cell across its
/// seeds.
#[derive(Debug, Clone, Serialize)]
pub struct MessagingCell {
    /// Policy label (column group).
    pub policy: String,
    /// Messages delivered exactly once with an intact payload.
    pub delivered: u64,
    /// Frames torn by a header overwriting an incomplete message.
    pub torn: u64,
    /// Extra copies of an already-delivered sequence number.
    pub duplicates: u64,
    /// Sequence numbers that never completed.
    pub dropped: u64,
    /// Delivered messages whose payload bytes were wrong.
    pub corrupt: u64,
    /// Runs stopped by the livelock watchdog.
    pub livelocks: u64,
    /// Total runs (== [`SEEDS_PER_CELL`]).
    pub runs: u64,
    /// End-to-end latency (first header store to wire arrival, CPU
    /// cycles) merged across seeds; absent when nothing was delivered.
    pub e2e: Option<HistogramSummary>,
}

impl MessagingCell {
    /// Delivered fraction of the cell's expected message count.
    pub fn delivered_fraction(&self) -> f64 {
        let expected = self.runs * MESSAGES as u64;
        if expected == 0 {
            0.0
        } else {
            self.delivered as f64 / expected as f64
        }
    }

    /// The hard reliability invariant: every expected message delivered,
    /// nothing torn, duplicated, dropped, or corrupted.
    pub fn exactly_once(&self) -> bool {
        self.delivered == self.runs * MESSAGES as u64
            && self.torn == 0
            && self.duplicates == 0
            && self.dropped == 0
            && self.corrupt == 0
    }
}

/// One (path, size, rate) row across the policy ladder.
#[derive(Debug, Clone, Serialize)]
pub struct MessagingRow {
    /// Send-path label.
    pub path: String,
    /// Payload bytes per message.
    pub bytes: usize,
    /// Flush-disturb injection rate.
    pub rate: f64,
    /// One cell per policy, in [`super::faults::policies`] order.
    pub cells: Vec<MessagingCell>,
}

/// The whole sweep: path × size × rate × policy, aggregated over seeds.
#[derive(Debug, Clone, Serialize)]
pub struct MessagingSweep {
    /// Sweep id (`"messaging"`).
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Policy labels, in column order.
    pub policies: Vec<String>,
    /// One row per (path, size, rate), rates innermost.
    pub rows: Vec<MessagingRow>,
    /// Whether every seed's delivered count was monotone non-increasing
    /// along the rate axis, for every (path, size, policy) group.
    pub per_seed_monotone: bool,
}

impl MessagingSweep {
    /// The hard exactly-once invariant at fault rate 0: every cell of
    /// every zero-rate row passed [`MessagingCell::exactly_once`].
    pub fn exactly_once_at_zero(&self) -> bool {
        self.rows
            .iter()
            .filter(|r| r.rate == 0.0)
            .all(|r| r.cells.iter().all(MessagingCell::exactly_once))
    }

    /// Renders the sweep as a fixed-width text table: one line per
    /// (path, size, rate, policy) cell with delivery accounting and the
    /// end-to-end latency quantile ladder.
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = [
            "path", "bytes", "rate", "policy", "ok%", "torn", "dup", "drop", "ll", "p50", "p95",
            "p99", "p99.9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut rows = Vec::new();
        for row in &self.rows {
            for c in &row.cells {
                let mut line = vec![
                    row.path.clone(),
                    row.bytes.to_string(),
                    format!("{:.2}", row.rate),
                    c.policy.clone(),
                    format!("{:.0}", 100.0 * c.delivered_fraction()),
                    c.torn.to_string(),
                    c.duplicates.to_string(),
                    c.dropped.to_string(),
                    c.livelocks.to_string(),
                ];
                match &c.e2e {
                    Some(h) => {
                        for v in [h.p50, h.p95, h.p99, h.p999] {
                            line.push(v.to_string());
                        }
                    }
                    None => line.extend(std::iter::repeat_n("-".to_string(), 4)),
                }
                rows.push(line);
            }
        }
        format!(
            "Reliable messaging — {}\n{}",
            self.title,
            format_table(&headers, &rows)
        )
    }
}

/// Raw outcome of a single seeded run.
#[derive(Debug, Clone, Default)]
pub(super) struct PointResult {
    pub(super) delivered: u64,
    pub(super) torn: u64,
    pub(super) duplicates: u64,
    pub(super) dropped: u64,
    pub(super) corrupt: u64,
    pub(super) livelock: bool,
    pub(super) e2e: Option<HistogramSummary>,
    pub(super) sim_cycles: u64,
}

/// The message stream every point sends.
fn spec(size: usize) -> MessagingSpec {
    MessagingSpec {
        count: MESSAGES,
        payload_dwords: size,
        sender: SENDER,
        slots: SLOTS,
    }
}

/// One seeded (path, size, rate, policy) point of the sweep.
pub(super) struct MessagingPoint {
    pub(super) path: SendPath,
    /// Payload doublewords per message.
    pub(super) size: usize,
    /// The ladder policy (unseeded; [`policy_for_seed`] seeds it).
    pub(super) policy: RetryPolicy,
    pub(super) rate: f64,
    pub(super) seed: u64,
}

impl MessagingPoint {
    /// Every point of the sweep: path, size, rate, policy, then seed.
    pub(super) fn all() -> Vec<MessagingPoint> {
        let policies = super::faults::policies();
        let mut points = Vec::new();
        for (pa, &path) in paths().iter().enumerate() {
            for (si, &size) in SIZES.iter().enumerate() {
                for &rate in &RATES {
                    for (pi, &policy) in policies.iter().enumerate() {
                        for s in 0..SEEDS_PER_CELL {
                            // Seeds differ per (path, size, policy) group but
                            // are *shared across rates*, so each seed's
                            // degradation curve rides one fault schedule (the
                            // monotonicity argument in the module docs).
                            let seed = 0x0e2e_0000
                                + (pa as u64) * 100_000
                                + (si as u64) * 10_000
                                + (pi as u64) * 1_000
                                + s;
                            points.push(MessagingPoint {
                                path,
                                size,
                                policy,
                                rate,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        points
    }
}

impl Timed for MessagingPoint {
    /// Readies `slot` to run this point: its program, the attached NI,
    /// the fault schedule, and metrics, which record on every point
    /// because the end-to-end quantiles are the result.
    fn install<'s>(&self, slot: &'s mut Option<Simulator>) -> Result<&'s mut Simulator, ExpError> {
        let cfg = self.path.config();
        let seeded = policy_for_seed(self.policy, self.seed);
        let program = match self.path {
            SendPath::Lock => workloads::lock_messages(spec(self.size), seeded, &cfg)?,
            SendPath::Csb | SendPath::CsbDouble => {
                workloads::csb_messages(spec(self.size), seeded, &cfg)?
            }
        };
        let nic_cfg = csb_nic::NicConfig {
            slot_size: cfg.line(),
            slots: SLOTS,
            ..csb_nic::NicConfig::default()
        };
        let sim = super::install_sim(slot, cfg, program)?;
        sim.attach_nic(nic_cfg, Addr::new(self.path.window_base()))?;
        inject_faults(sim, self.rate, self.seed);
        sim.enable_metrics();
        Ok(sim)
    }
}

impl SweepPoint for MessagingPoint {
    type Output = PointResult;

    fn label(&self) -> String {
        format!(
            "messaging/{}/{}B/r{:02}/{}",
            self.path.label(),
            self.size * 8,
            (self.rate * 100.0).round() as u32,
            policy_label(self.policy)
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    /// Machine configuration, send path, message shape, per-seed policy,
    /// fault rate by its bits, and seed.
    fn cache_key(&self) -> u64 {
        PointCache::key_of(&(
            self.path.config(),
            "messaging",
            self.path,
            MESSAGES,
            self.size,
            SLOTS,
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
        let size = self.size;
        let sim = self.install(slot)?;
        let livelock = match obs.simulate(sim, POINT_LIMIT) {
            Ok(_) => false,
            Err(SimError::Livelock(_)) => true,
            Err(e) => return Err(e.into()),
        };
        let sim_cycles = sim.summary().cycles;
        let report = sim.metrics_report();
        let nic = sim.nic().expect("NIC attached above");
        // Receive-side seq accounting: first intact copy of each expected
        // seq is a delivery, repeats are duplicates, the rest of the
        // expected window is dropped.
        let mut seen = [false; MESSAGES];
        let mut delivered = 0u64;
        let mut duplicates = 0u64;
        let mut corrupt = 0u64;
        for m in nic.messages() {
            let sq = m.seq as usize;
            if m.sender != SENDER || sq >= MESSAGES {
                corrupt += 1;
                continue;
            }
            if seen[sq] {
                duplicates += 1;
                continue;
            }
            seen[sq] = true;
            let pat = MessagingSpec::payload_pattern(m.seq).to_le_bytes();
            let intact =
                m.payload.len() == size * 8 && m.payload.chunks(8).all(|c| c == &pat[..c.len()]);
            if intact {
                delivered += 1;
            } else {
                corrupt += 1;
            }
        }
        let distinct = seen.iter().filter(|&&s| s).count() as u64;
        let result = PointResult {
            delivered,
            torn: nic.stats().torn_frames,
            duplicates,
            dropped: MESSAGES as u64 - distinct,
            corrupt,
            livelock,
            e2e: report.metrics.histograms.get(E2E_HISTOGRAM).cloned(),
            sim_cycles,
        };
        let artifacts = PointArtifacts {
            trace_json: obs.trace.then(|| sim.chrome_trace()),
            metrics: obs.metrics.then_some(report),
            advance: AdvanceCounts::of(sim),
        };
        Ok((result, artifacts))
    }

    fn payload(&self, r: &mut PointResult, s: &mut impl Codec) -> Result<(), SnapshotError> {
        s.tag("msg")?;
        for v in [
            &mut r.delivered,
            &mut r.torn,
            &mut r.duplicates,
            &mut r.dropped,
            &mut r.corrupt,
        ] {
            s.u64(v)?;
        }
        s.bool(&mut r.livelock)?;
        s.u64(&mut r.sim_cycles)?;
        histogram_state(&mut r.e2e, s)
    }

    fn value(r: &PointResult) -> PointValue {
        PointValue::Bandwidth(r.delivered as f64 / MESSAGES as f64)
    }

    fn sim_cycles(r: &PointResult) -> u64 {
        r.sim_cycles
    }
}

/// Aggregates one cell's seeded runs.
fn cell(policy: RetryPolicy, rs: &[PointResult]) -> MessagingCell {
    MessagingCell {
        policy: policy_label(policy),
        delivered: rs.iter().map(|r| r.delivered).sum(),
        torn: rs.iter().map(|r| r.torn).sum(),
        duplicates: rs.iter().map(|r| r.duplicates).sum(),
        dropped: rs.iter().map(|r| r.dropped).sum(),
        corrupt: rs.iter().map(|r| r.corrupt).sum(),
        livelocks: rs.iter().filter(|r| r.livelock).count() as u64,
        runs: rs.len() as u64,
        e2e: merge_histograms(rs.iter().filter_map(|r| r.e2e.as_ref())),
    }
}

/// Runs the full sweep on `jobs` workers (`0` = all cores). Every seeded
/// point runs with tracing and/or metrics per `obs` and yields one
/// [`LabeledArtifacts`] (label `messaging/<path>/<bytes>B/r<rate%>/<policy>`,
/// distinguished per seed by [`LabeledArtifacts::seed`]), in
/// sweep-enumeration order.
///
/// # Errors
///
/// Propagates the first point that fails for a reason other than the
/// expected fault outcomes (livelock and give-up are *results*, not
/// errors); the lowest-indexed failing point wins.
pub fn run_jobs_observed(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(MessagingSweep, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let paths = paths();
    let policies = super::faults::policies();
    let (results, artifacts, report) = run_sweep(&MessagingPoint::all(), jobs, obs)?;

    // Points enumerate path, size, rate, policy, then seed: each run of
    // SEEDS_PER_CELL results is one cell, and each run of `row` results is
    // one rate's row of cells. Within a (path, size) group, index `k` of
    // every row is the same (policy, seed) pair, so the rows' `k`th
    // entries are that seed's delivered curve along the rate axis.
    let row = policies.len() * SEEDS_PER_CELL as usize;
    let per_seed_monotone = results.chunks(row * RATES.len()).all(|group| {
        (0..row).all(|k| {
            group
                .chunks(row)
                .zip(group.chunks(row).skip(1))
                .all(|(lo, hi)| hi[k].delivered <= lo[k].delivered)
        })
    });

    let mut cells = results.chunks(SEEDS_PER_CELL as usize);
    let mut rows = Vec::new();
    for &path in &paths {
        for &size in &SIZES {
            for &rate in &RATES {
                rows.push(MessagingRow {
                    path: path.label().to_string(),
                    bytes: size * 8,
                    rate,
                    cells: policies
                        .iter()
                        .map(|&policy| cell(policy, cells.next().expect("one chunk per cell")))
                        .collect(),
                });
            }
        }
    }

    Ok((
        MessagingSweep {
            id: "messaging".to_string(),
            title: format!(
                "{MESSAGES} messages over {SLOTS} NI slots, \
                 {SEEDS_PER_CELL} seeds/cell shared across rates, \
                 disturb rate swept (bus errors and NACKs at rate/4)"
            ),
            policies: policies.iter().map(|&p| policy_label(p)).collect(),
            rows,
            per_seed_monotone,
        },
        artifacts,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::runner::{read_payload, write_payload};

    fn point(
        path: SendPath,
        size: usize,
        policy: RetryPolicy,
        rate: f64,
        seed: u64,
    ) -> MessagingPoint {
        MessagingPoint {
            path,
            size,
            policy,
            rate,
            seed,
        }
    }

    fn run_point(
        slot: &mut Option<Simulator>,
        path: SendPath,
        size: usize,
        policy: RetryPolicy,
        rate: f64,
        seed: u64,
    ) -> PointResult {
        point(path, size, policy, rate, seed)
            .simulate(slot, ObsConfig::default())
            .expect("messaging point simulates")
            .0
    }

    #[test]
    fn loop_skip_matches_naive_on_every_backoff_point() {
        let (mut ff, mut naive) = (0, 0);
        for p in MessagingPoint::all() {
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
            "messaging backoff points: {ff} fast-forward ticks, {naive} naive"
        );
    }

    #[test]
    fn autosnap_frames_of_two_seeds_are_distinct() {
        // One program under two fault schedules: the frames carry each
        // point's cache key, so neither seed overwrites the other's.
        let dir = std::env::temp_dir().join(format!("csb-autosnap-seeds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("autosnap dir");
        let policy = RetryPolicy::Bounded { attempts: 4 };
        let points =
            [0x0e2e_0001, 0x0e2e_0002].map(|seed| point(SendPath::Csb, 1, policy, 0.5, seed));
        let obs = ObsConfig {
            autosnap: Some(crate::snapshot::AutosnapConfig::new(97, &dir)),
            ..ObsConfig::default()
        };
        run_sweep(&points, 1, obs).expect("points simulate");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("autosnap dir readable")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect();
        let written = |p: &MessagingPoint| {
            let key = format!("-{:016x}-", p.cache_key());
            names.iter().filter(|n| n.contains(&key)).count()
        };
        let (a, b) = (written(&points[0]), written(&points[1]));
        assert!(a > 0 && b > 0, "both seeds write frames: {a} and {b}");
        assert_eq!(a + b, names.len(), "every frame names its point");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_rate_is_exactly_once_on_every_path() {
        let mut slot = None;
        for &path in &paths() {
            for &policy in &super::super::faults::policies() {
                let r = run_point(&mut slot, path, 1, policy, 0.0, 42);
                let label = format!("{}/{}", path.label(), policy_label(policy));
                assert_eq!(r.delivered, MESSAGES as u64, "{label}: all delivered");
                assert_eq!(r.torn, 0, "{label}: no torn frames");
                assert_eq!(r.duplicates, 0, "{label}: no duplicates");
                assert_eq!(r.dropped, 0, "{label}: no drops");
                assert_eq!(r.corrupt, 0, "{label}: payloads intact");
                assert!(!r.livelock, "{label}: no livelock");
                let h = r.e2e.expect("every message records e2e latency");
                assert_eq!(h.count, MESSAGES as u64);
                assert!(h.p999 >= h.p50);
            }
        }
    }

    #[test]
    fn csb_bursts_beat_locked_beats_on_e2e_latency() {
        // The paper's qualitative claim, end to end: a message that
        // arrives as one atomic line burst finishes assembly in one bus
        // transaction, while the locked path dribbles it a beat at a time.
        let mut slot = None;
        let lock = run_point(&mut slot, SendPath::Lock, 7, RetryPolicy::NaiveSpin, 0.0, 1);
        let csb = run_point(&mut slot, SendPath::Csb, 7, RetryPolicy::NaiveSpin, 0.0, 1);
        let (l, c) = (lock.e2e.unwrap(), csb.e2e.unwrap());
        assert!(
            c.p50 < l.p50,
            "CSB p50 {} must beat lock p50 {}",
            c.p50,
            l.p50
        );
    }

    #[test]
    fn per_seed_delivery_is_monotone_on_a_slice() {
        // The shared-seed monotonicity argument, checked end to end on a
        // small slice: for every path and seed, the delivered count can
        // only fall as the rate rises.
        let mut slot = None;
        for &path in &paths() {
            for seed in [0x0e2e_0007, 0x0e2e_0008] {
                let mut prev = u64::MAX;
                for &rate in &[0.0, 0.5, 0.9] {
                    let r = run_point(
                        &mut slot,
                        path,
                        1,
                        RetryPolicy::Bounded { attempts: 4 },
                        rate,
                        seed,
                    );
                    assert!(
                        r.delivered <= prev,
                        "{} seed {seed:#x}: delivered rose from {prev} to {} at rate {rate}",
                        path.label(),
                        r.delivered
                    );
                    prev = r.delivered;
                }
            }
        }
    }

    #[test]
    fn cached_point_round_trips_histogram_buckets() {
        let mut slot = None;
        let live = run_point(
            &mut slot,
            SendPath::Csb,
            7,
            RetryPolicy::NaiveSpin,
            0.25,
            0x0e2e_0100,
        );
        let point = point(SendPath::Csb, 7, RetryPolicy::NaiveSpin, 0.25, 0x0e2e_0100);
        let payload = write_payload(&point, &mut live.clone());
        let decoded = read_payload(&point, &payload).expect("payload reads back");
        assert_eq!(decoded.delivered, live.delivered);
        assert_eq!(decoded.dropped, live.dropped);
        assert_eq!(decoded.torn, live.torn);
        assert_eq!(decoded.livelock, live.livelock);
        assert_eq!(
            decoded.e2e, live.e2e,
            "quantiles re-derived from buckets must match the live summary"
        );
    }
}
