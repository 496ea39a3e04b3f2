//! Traced in-process replica of the benchmark's sweeps.
//!
//! Usage: `csb-perf-tracer <figures|messaging|manycore> <seconds> <scratch-dir>`
//!
//! One repetition re-executes every point of one sweep through the public
//! `csb-core` calls the sweep itself makes (program builders,
//! `Simulator::new`/`reset_with`, `warm_line`/`evict_line`, `attach_nic`,
//! `set_faults`, `enable_metrics`, `MultiSim::new`/`set_arrivals`/`run`,
//! and `PointCache::key`/`load`/`store` against a scratch cache) and
//! records a span (name, start, end, point) around each call. Simulator
//! points are driven by the harness itself: it calls `advance_checked`
//! until the machine completes and splits the calls by their `ticks()`
//! delta into real ticks and fast-forward jumps.
//!
//! Every replica must reproduce the value and the simulated cycle count
//! that the sweep's own `run_jobs_observed(1, ObsConfig::default())`
//! reports for its point; mismatches are listed in the output. Besides the
//! traced replica each repetition runs untraced replicas of every point
//! with fast-forward off, metrics off and metrics on. Repetitions continue
//! until `seconds` have passed (at least one, at most `MAX_REPS`). Then
//! fixed probe points run on every workload: two figure points with
//! fast-forward on and off, and one `MultiSim` point. The result is
//! printed to stdout as one JSON document.

use std::fmt::Debug;
use std::path::PathBuf;
use std::time::Instant;

use csb_core::cache::PointCache;
use csb_core::experiments::contend::{self, ContendScheme};
use csb_core::experiments::fig5::LockResidency;
use csb_core::experiments::messaging::{self, SendPath};
use csb_core::experiments::runner::{
    LabeledArtifacts, ObsConfig, PointSpec, PointValue, PointWork, RunReport,
};
use csb_core::experiments::{faults, fig3, fig4, fig5, ExpError, Scheme};
use csb_core::multiproc::{MultiSim, SwitchPolicy};
use csb_core::workloads::{self, MessagingSpec, RetryPolicy, StorePath, MARK_END, MARK_START};
use csb_core::{
    FaultConfig, RunSummary, SimConfig, SimError, Simulator, COMBINING_BASE, LOCK_ADDR,
    UNCACHED_BASE,
};
use csb_isa::{Addr, Program};
use csb_snap::{SnapshotReader, SnapshotWriter};
use serde::Serialize;

// Sweep parameters that are private to their modules, mirrored here. A
// drift shows up as a replica mismatch, never as silently different work.
const FIGURE_LIMIT: u64 = 50_000_000;
const MSG_SLOTS: usize = 4;
const MSG_SENDER: u16 = 1;
const MSG_LIMIT: u64 = 2_000_000;
const MSG_HISTOGRAM: &str = "nic_e2e_latency";
const CONTEND_ITERATIONS: usize = 8;
const CONTEND_DWORDS: usize = 8;
const CONTEND_SPAN: u64 = 4_000;
const CONTEND_SLICE: u64 = 60;
const CONTEND_LIMIT: u64 = 50_000_000;
const CONTEND_HISTOGRAM: &str = "csb_flush_retry_latency";

/// Fast-forward-vs-naive probe points (the ROADMAP puts `4a/256B/CSB` at
/// about 0.95x with fast-forward on) and the runs per side.
const PROBES: [&str; 2] = ["4a/256B/CSB", "5b/8dw/64B"];
const PROBE_RUNS: usize = 301;

/// The `MultiSim` point every workload's traced run times, so that the
/// scheduler layer is measured whichever sweep runs: the first `contend`
/// point, 16 processes on the lock (about 30 ms). It runs
/// `MULTIPROC_PROBE_RUNS` times.
const MULTIPROC_PROBE: &str = "contend/c16/lock";
const MULTIPROC_PROBE_JOB: Job = Job::Contend {
    scheme: ContendScheme::Lock,
    cores: 16,
    seed: 0xc0de_0000,
};
const MULTIPROC_PROBE_RUNS: usize = 21;

/// Repetitions at most: enough for stable medians, while the span log of
/// a `figures` repetition is already a few hundred KiB of JSON.
const MAX_REPS: usize = 20;

/// Simulated counters summed per pass (a host-speed change must leave
/// them identical).
const COUNTERS: [&str; 13] = [
    "cpu.retired",
    "cpu.uncached_stall_cycles",
    "cpu.membar_stall_cycles",
    "uncached.full_stalls",
    "csb.flush_failures",
    "csb.cross_pid_resets",
    "csb.busy_stalls",
    "bus.transactions",
    "bus.busy_cycles",
    "mem.l1_misses",
    "faults.injected",
    "nic.messages",
    "nic.torn_frames",
];

type Histogram = (u64, u64, u64, u64, Vec<(u64, u64)>);

/// In-memory span log, written out when the run ends. A span's point is
/// its index in sweep order; nesting follows from the intervals.
struct Spans {
    origin: Instant,
    names: Vec<&'static str>,
    rows: Vec<(usize, u32, u64, u64)>,
}

impl Spans {
    fn new(origin: Instant) -> Self {
        Spans {
            origin,
            names: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Closes the span `name` opened at `start`.
    fn close(&mut self, name: &'static str, point: u32, start: u64) {
        let end = self.now();
        let idx = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        self.rows.push((idx, point, start, end));
    }

    /// Duration of the latest span named `name`.
    fn last(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .rev()
            .find(|r| self.names[r.0] == name)
            .map_or(0, |r| r.3 - r.2)
    }
}

/// What one replica produced: the sweep-visible value and cycles, plus
/// the counters and histogram the report and the cache payload need.
struct Outcome {
    value: Option<PointValue>,
    cycles: u64,
    ticks: u64,
    switches: u64,
    counters: [u64; COUNTERS.len()],
    histogram: Option<Histogram>,
}

fn summary_counters(
    s: &RunSummary,
    injected: u64,
    nic: Option<&csb_nic::Nic>,
) -> [u64; COUNTERS.len()] {
    [
        s.cpu.retired,
        s.cpu.uncached_stall_cycles,
        s.cpu.membar_stall_cycles,
        s.uncached.full_stalls,
        s.csb.flush_failures,
        s.csb.cross_pid_resets,
        s.csb.busy_stalls,
        s.bus.transactions,
        s.bus.busy_cycles,
        s.mem.l1.misses,
        injected,
        nic.map_or(0, |n| n.stats().messages),
        nic.map_or(0, |n| n.stats().torn_frames),
    ]
}

/// Per-point measurements of one repetition.
#[derive(Default, Serialize)]
struct PointRec {
    label: String,
    seed: u64,
    /// The sweep's own (untraced) wall time for this point.
    wall_ns: u64,
    cycles: u64,
    ticks: u64,
    /// `advance_checked` calls that ran a real tick, and their host time.
    advances: u64,
    advance_ns: u64,
    /// `advance_checked` calls that jumped, and their host time.
    jumps: u64,
    jump_ns: u64,
    naive_ticks: u64,
    naive_ns: u64,
    plain_ns: u64,
    metrics_ns: u64,
    switches: u64,
    counters: [u64; COUNTERS.len()],
}

/// How a replica runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Mirrors the sweep; the harness drives the loop and times each call.
    Traced,
    /// Fast-forward off, one timed `run` call.
    Naive,
    /// Metrics off, one timed `run` call.
    Plain,
    /// Metrics on, one timed `run` call.
    Metrics,
}

/// One sweep point, enough to rebuild it through public calls.
enum Job {
    Figure(Box<PointSpec>),
    Message {
        path: SendPath,
        size: usize,
        policy: RetryPolicy,
        rate: f64,
        seed: u64,
    },
    Contend {
        scheme: ContendScheme,
        cores: usize,
        seed: u64,
    },
}

impl Job {
    /// The sweep's content address for this point.
    fn key(&self) -> u64 {
        match self {
            Job::Figure(spec) => PointCache::key_debug(&[&spec.cfg as &dyn Debug, &spec.work], 0),
            Job::Message {
                path,
                size,
                policy,
                rate,
                seed,
            } => {
                let cfg = format!("{:?}", path_config(*path));
                let work = format!(
                    "messaging {} {}x{size}dw s{MSG_SLOTS} {:?} rate {:016x}",
                    path.label(),
                    messaging::MESSAGES,
                    policy_for_seed(*policy, *seed),
                    rate.to_bits()
                );
                PointCache::key(&[cfg.as_bytes(), work.as_bytes(), &seed.to_le_bytes()])
            }
            Job::Contend {
                scheme,
                cores,
                seed,
            } => {
                let cfg = format!("{:?}", scheme_config(*scheme));
                let work = format!(
                    "contend {} c{cores} {CONTEND_ITERATIONS}it {CONTEND_DWORDS}dw \
                     slice{CONTEND_SLICE} span{CONTEND_SPAN}",
                    scheme.label()
                );
                PointCache::key(&[cfg.as_bytes(), work.as_bytes(), &seed.to_le_bytes()])
            }
        }
    }
}

fn path_config(path: SendPath) -> SimConfig {
    match path {
        SendPath::Lock | SendPath::Csb => SimConfig::default(),
        SendPath::CsbDouble => SimConfig::default().csb_double_buffered(),
    }
}

fn scheme_config(scheme: ContendScheme) -> SimConfig {
    match scheme {
        ContendScheme::Lock | ContendScheme::Csb => SimConfig::default(),
        ContendScheme::CsbDouble => SimConfig::default().csb_double_buffered(),
    }
}

fn policy_for_seed(policy: RetryPolicy, seed: u64) -> RetryPolicy {
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

/// The scheme-specialized machine and program of one figure point.
fn figure_parts(spec: &PointSpec) -> Result<(SimConfig, Program), ExpError> {
    let mut cfg = spec.cfg.clone();
    let scheme = match spec.work {
        PointWork::Bandwidth { scheme, .. } | PointWork::Latency { scheme, .. } => scheme,
    };
    let path = match scheme {
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
    let program = match spec.work {
        PointWork::Bandwidth {
            transfer, order, ..
        } => workloads::store_bandwidth_ordered(transfer, &cfg, path, order)?,
        PointWork::Latency { dwords, .. } if path == StorePath::Uncached => {
            workloads::lock_sequence(dwords)?
        }
        PointWork::Latency { dwords, .. } => workloads::csb_sequence(dwords, &cfg)?,
    };
    Ok((cfg, program))
}

/// Drives `sim` to completion exactly as `Simulator::run` does, timing
/// every `advance_checked` call with one clock read per call.
fn drive(sim: &mut Simulator, limit: u64, rec: &mut PointRec) -> Result<(), SimError> {
    let mut prev = Instant::now();
    while !sim.complete() {
        if sim.cpu().now() >= limit {
            return Err(SimError::CycleLimit { limit });
        }
        let before = sim.ticks();
        let step = sim.advance_checked(limit);
        let t = Instant::now();
        let dt = u64::try_from((t - prev).as_nanos()).unwrap_or(u64::MAX);
        prev = t;
        if sim.ticks() > before {
            rec.advances += 1;
            rec.advance_ns += dt;
        } else {
            rec.jumps += 1;
            rec.jump_ns += dt;
        }
        match step {
            Ok(()) => {}
            // The messaging sweep counts a livelock as a result.
            Err(SimError::Livelock(_)) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One `Simulator::run`; a livelock is a result, not an error.
fn run_once(sim: &mut Simulator, limit: u64) -> Result<(), SimError> {
    match sim.run(limit) {
        Ok(_) | Err(SimError::Livelock(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Messages delivered once with an intact payload (the messaging sweep's
/// receive-side accounting).
fn delivered(nic: &csb_nic::Nic, size: usize) -> u64 {
    let mut seen = [false; messaging::MESSAGES];
    let mut delivered = 0;
    for m in nic.messages() {
        let sq = m.seq as usize;
        if m.sender != MSG_SENDER || sq >= messaging::MESSAGES || seen[sq] {
            continue;
        }
        seen[sq] = true;
        let pat = MessagingSpec::payload_pattern(m.seq).to_le_bytes();
        if m.payload.len() == size * 8 && m.payload.chunks(8).all(|c| c == &pat[..c.len()]) {
            delivered += 1;
        }
    }
    delivered
}

fn histogram(sim: &Simulator, name: &str) -> Option<Histogram> {
    sim.metrics_report().metrics.histograms.get(name).map(|h| {
        (
            h.count,
            h.sum,
            h.min,
            h.max,
            h.buckets.iter().map(|b| (b.le, b.n)).collect(),
        )
    })
}

/// Executes one Simulator-based point (figure or messaging) in `mode`
/// through the reusable `slot`, with a span around every call.
fn exec_sim(
    job: &Job,
    slot: &mut Option<Simulator>,
    mode: Mode,
    sp: &mut Spans,
    point: u32,
    rec: &mut PointRec,
) -> Result<Outcome, ExpError> {
    // The messaging sweep always records metrics; the figures never do.
    let sweep_metrics = matches!(job, Job::Message { .. });
    let metrics = match mode {
        Mode::Traced | Mode::Naive => sweep_metrics,
        Mode::Plain => false,
        Mode::Metrics => true,
    };
    let root = sp.now();
    let t = sp.now();
    std::hint::black_box(job.key());
    sp.close("cache.key", point, t);

    let t = sp.now();
    let (cfg, program, limit) = match job {
        Job::Figure(spec) => {
            let (cfg, program) = figure_parts(spec)?;
            (cfg, program, FIGURE_LIMIT)
        }
        Job::Message {
            path,
            size,
            policy,
            seed,
            ..
        } => {
            let cfg = path_config(*path);
            let spec = MessagingSpec {
                count: messaging::MESSAGES,
                payload_dwords: *size,
                sender: MSG_SENDER,
                slots: MSG_SLOTS,
            };
            let seeded = policy_for_seed(*policy, *seed);
            let program = match path {
                SendPath::Lock => workloads::lock_messages(spec, seeded, &cfg)?,
                SendPath::Csb | SendPath::CsbDouble => workloads::csb_messages(spec, seeded, &cfg)?,
            };
            (cfg, program, MSG_LIMIT)
        }
        Job::Contend { .. } => unreachable!("contention points run on MultiSim"),
    };
    sp.close("workloads.build", point, t);

    let t = sp.now();
    let sim = match slot {
        Some(sim) => {
            sim.reset_with(cfg, program)?;
            sp.close("sim.reset", point, t);
            sim
        }
        None => {
            let sim = slot.insert(Simulator::new(cfg, program)?);
            sp.close("sim.new", point, t);
            sim
        }
    };

    match job {
        Job::Figure(spec) => {
            if let PointWork::Latency { residency, .. } = spec.work {
                let t = sp.now();
                match residency {
                    LockResidency::Hit => {
                        sim.warm_line(Addr::new(LOCK_ADDR));
                        sp.close("sim.warm_line", point, t);
                    }
                    LockResidency::Miss => {
                        sim.evict_line(Addr::new(LOCK_ADDR));
                        sp.close("sim.evict_line", point, t);
                    }
                }
            }
        }
        Job::Message {
            path, rate, seed, ..
        } => {
            let t = sp.now();
            let nic_cfg = csb_nic::NicConfig {
                slot_size: sim.config().line(),
                slots: MSG_SLOTS,
                ..csb_nic::NicConfig::default()
            };
            let base = match path {
                SendPath::Lock => UNCACHED_BASE,
                SendPath::Csb | SendPath::CsbDouble => COMBINING_BASE,
            };
            sim.attach_nic(nic_cfg, Addr::new(base))?;
            sp.close("nic.attach", point, t);
            if *rate > 0.0 {
                let t = sp.now();
                sim.set_faults(Some(
                    FaultConfig::new(*seed)
                        .flush_disturb_rate(*rate)
                        .bus_error_rate(rate * 0.25)
                        .device_nack_rate(rate * 0.25),
                ));
                sp.close("faults.set", point, t);
            }
        }
        Job::Contend { .. } => unreachable!("contention points run on MultiSim"),
    }
    if metrics {
        let t = sp.now();
        sim.enable_metrics();
        sp.close("obs.enable_metrics", point, t);
    }

    let t = sp.now();
    match mode {
        Mode::Traced => drive(sim, limit, rec)?,
        Mode::Naive => {
            sim.set_fast_forward(false);
            run_once(sim, limit)?;
        }
        Mode::Plain | Mode::Metrics => run_once(sim, limit)?,
    }
    sp.close("sim.run", point, t);

    let t = sp.now();
    let summary = sim.summary();
    let (value, hist) = match job {
        Job::Figure(spec) => {
            let value = match spec.work {
                PointWork::Bandwidth { .. } => {
                    Some(PointValue::Bandwidth(summary.bus.effective_bandwidth()))
                }
                PointWork::Latency { .. } => summary
                    .cpu
                    .mark_interval(MARK_START, MARK_END)
                    .map(PointValue::Latency),
            };
            (value, None)
        }
        Job::Message { size, .. } => {
            let nic = sim.nic().expect("NIC attached above");
            let value = delivered(nic, *size) as f64 / messaging::MESSAGES as f64;
            let hist = metrics.then(|| histogram(sim, MSG_HISTOGRAM)).flatten();
            (Some(PointValue::Bandwidth(value)), hist)
        }
        Job::Contend { .. } => unreachable!("contention points run on MultiSim"),
    };
    let out = Outcome {
        value,
        cycles: summary.cycles,
        ticks: sim.ticks(),
        switches: 0,
        counters: summary_counters(&summary, sim.fault_stats().total_injected(), sim.nic()),
        histogram: hist,
    };
    sp.close("runner.account", point, t);
    sp.close("runner.point", point, root);
    Ok(out)
}

/// Executes one contention point in `mode` on a fresh `MultiSim` (the
/// sweep builds one per point).
fn exec_contend(job: &Job, mode: Mode, sp: &mut Spans, point: u32) -> Result<Outcome, ExpError> {
    let Job::Contend {
        scheme,
        cores,
        seed,
    } = *job
    else {
        unreachable!("only contention points run on MultiSim")
    };
    // The sweep always records metrics.
    let metrics = mode != Mode::Plain;
    let root = sp.now();
    let t = sp.now();
    std::hint::black_box(job.key());
    sp.close("cache.key", point, t);

    let t = sp.now();
    let cfg = scheme_config(scheme);
    let programs = (0..cores)
        .map(|i| match scheme {
            ContendScheme::Lock => workloads::lock_worker(CONTEND_ITERATIONS, CONTEND_DWORDS),
            ContendScheme::Csb | ContendScheme::CsbDouble => {
                workloads::csb_worker(CONTEND_ITERATIONS, CONTEND_DWORDS, i, &cfg)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    sp.close("workloads.build", point, t);

    let t = sp.now();
    let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(CONTEND_SLICE))?;
    sp.close("multiproc.new", point, t);
    let t = sp.now();
    ms.set_arrivals(&contend::arrival_schedule(cores, CONTEND_SPAN, seed));
    sp.close("multiproc.set_arrivals", point, t);
    if metrics {
        let t = sp.now();
        ms.enable_metrics();
        sp.close("obs.enable_metrics", point, t);
    }
    if mode == Mode::Naive {
        ms.set_fast_forward(false);
    }
    let t = sp.now();
    let summary = ms.run(CONTEND_LIMIT)?;
    sp.close("multiproc.run", point, t);

    let t = sp.now();
    let sim = ms.simulator();
    let throughput = if summary.cycles == 0 {
        0.0
    } else {
        sim.device().payload_bytes() as f64 / summary.cycles as f64
    };
    let out = Outcome {
        value: Some(PointValue::Bandwidth(throughput)),
        cycles: summary.cycles,
        ticks: sim.ticks(),
        switches: summary.switches,
        counters: summary_counters(&sim.summary(), ms.fault_stats().total_injected(), None),
        histogram: metrics.then(|| histogram(sim, CONTEND_HISTOGRAM)).flatten(),
    };
    sp.close("runner.account", point, t);
    sp.close("runner.point", point, root);
    Ok(out)
}

fn exec(
    job: &Job,
    slot: &mut Option<Simulator>,
    mode: Mode,
    sp: &mut Spans,
    point: usize,
    rec: &mut PointRec,
) -> Result<Outcome, ExpError> {
    let point = u32::try_from(point).expect("sweeps have fewer than 2^32 points");
    match job {
        Job::Contend { .. } => exec_contend(job, mode, sp, point),
        _ => exec_sim(job, slot, mode, sp, point, rec),
    }
}

/// The cache payload: value, cycles and the raw histogram buckets, the
/// shape of the sweeps' own entries.
fn encode(o: &Outcome) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_tag("perf");
    match o.value {
        Some(PointValue::Bandwidth(b)) => {
            w.put_u8(0);
            w.put_f64(b);
        }
        Some(PointValue::Latency(c)) => {
            w.put_u8(1);
            w.put_u64(c);
        }
        None => w.put_u8(2),
    }
    w.put_u64(o.cycles);
    match &o.histogram {
        Some((count, sum, min, max, buckets)) => {
            w.put_bool(true);
            for v in [*count, *sum, *min, *max] {
                w.put_u64(v);
            }
            w.put_usize(buckets.len());
            for &(le, n) in buckets {
                w.put_u64(le);
                w.put_u64(n);
            }
        }
        None => w.put_bool(false),
    }
    w.finish()
}

/// Decodes a payload back to (value, cycles); `None` if malformed.
fn decode(bytes: &[u8]) -> Option<(Option<PointValue>, u64)> {
    let mut r = SnapshotReader::new(bytes);
    r.take_tag("perf").ok()?;
    let value = match r.take_u8().ok()? {
        0 => Some(PointValue::Bandwidth(r.take_f64().ok()?)),
        1 => Some(PointValue::Latency(r.take_u64().ok()?)),
        _ => None,
    };
    let cycles = r.take_u64().ok()?;
    if r.take_bool().ok()? {
        for _ in 0..4 {
            r.take_u64().ok()?;
        }
        for _ in 0..r.take_usize().ok()? {
            r.take_u64().ok()?;
            r.take_u64().ok()?;
        }
    }
    r.take_u64().ok()?;
    r.expect_end("benchmark cache payload").ok()?;
    Some((value, cycles))
}

/// A sweep's jobs in sweep order plus its own per-point results. Jobs
/// sharing a group index share one reusable simulator slot, because each
/// figure harness runs as a sweep of its own.
struct Sweep {
    jobs: Vec<(usize, Job)>,
    reference: Vec<LabeledArtifacts>,
    report_wall_ns: u64,
}

fn wall_ns(reports: &[&RunReport]) -> u64 {
    reports
        .iter()
        .map(|r| u64::try_from(r.wall.as_nanos()).unwrap_or(u64::MAX))
        .sum()
}

fn figure_sweep() -> Result<Sweep, ExpError> {
    let obs = ObsConfig::default();
    let (_, a3, r3) = fig3::run_jobs_observed(1, obs)?;
    let (_, a4, r4) = fig4::run_jobs_observed(1, obs)?;
    let (_, a5, r5) = fig5::run_jobs_observed(1, obs)?;
    let groups = [
        fig3::panel_specs()
            .iter()
            .flat_map(|p| p.enumerate())
            .collect::<Vec<_>>(),
        fig4::panel_specs()
            .iter()
            .flat_map(|p| p.enumerate())
            .collect(),
        fig5::panel_specs()
            .iter()
            .flat_map(|p| p.enumerate())
            .collect(),
    ];
    let jobs = groups
        .into_iter()
        .enumerate()
        .flat_map(|(g, specs)| {
            specs
                .into_iter()
                .map(move |s| (g, Job::Figure(Box::new(s))))
        })
        .collect();
    Ok(Sweep {
        jobs,
        reference: [a3, a4, a5].concat(),
        report_wall_ns: wall_ns(&[&r3, &r4, &r5]),
    })
}

fn messaging_sweep() -> Result<Sweep, ExpError> {
    let (_, reference, report) = messaging::run_jobs_observed(1, ObsConfig::default())?;
    let mut jobs = Vec::new();
    for (pa, &path) in messaging::paths().iter().enumerate() {
        for (si, &size) in messaging::SIZES.iter().enumerate() {
            for &rate in &messaging::RATES {
                for (pi, &policy) in faults::policies().iter().enumerate() {
                    for s in 0..messaging::SEEDS_PER_CELL {
                        let seed = 0x0e2e_0000
                            + (pa as u64) * 100_000
                            + (si as u64) * 10_000
                            + (pi as u64) * 1_000
                            + s;
                        let job = Job::Message {
                            path,
                            size,
                            policy,
                            rate,
                            seed,
                        };
                        jobs.push((0, job));
                    }
                }
            }
        }
    }
    Ok(Sweep {
        jobs,
        reference,
        report_wall_ns: wall_ns(&[&report]),
    })
}

fn contend_sweep() -> Result<Sweep, ExpError> {
    let (_, reference, report) = contend::run_jobs_observed(1, ObsConfig::default())?;
    let mut jobs = Vec::new();
    for (ci, &cores) in contend::CORES.iter().enumerate() {
        for (si, &scheme) in contend::schemes().iter().enumerate() {
            for s in 0..contend::SEEDS_PER_CELL {
                let seed = 0xc0de_0000 + (ci as u64) * 1_000 + (si as u64) * 100 + s;
                let job = Job::Contend {
                    scheme,
                    cores,
                    seed,
                };
                jobs.push((0, job));
            }
        }
    }
    Ok(Sweep {
        jobs,
        reference,
        report_wall_ns: wall_ns(&[&report]),
    })
}

/// One repetition's measurements, as printed.
#[derive(Serialize)]
struct Rep {
    report_wall_ns: u64,
    span_names: Vec<&'static str>,
    /// `(index into span_names, point, start ns, end ns)` in closing order.
    spans: Vec<(usize, u32, u64, u64)>,
    points: Vec<PointRec>,
}

fn same(a: Option<PointValue>, b: PointValue) -> bool {
    match (a, b) {
        (Some(PointValue::Bandwidth(x)), PointValue::Bandwidth(y)) => x.to_bits() == y.to_bits(),
        (Some(PointValue::Latency(x)), PointValue::Latency(y)) => x == y,
        _ => false,
    }
}

/// One repetition: the sweep itself, the traced replica (filling the
/// scratch `cache` point by point, when given), a replay from that cache,
/// then the untraced replicas.
fn run_rep(
    workload: &str,
    origin: Instant,
    cache: Option<&PointCache>,
    mismatches: &mut Vec<String>,
) -> Result<Rep, ExpError> {
    let sweep = match workload {
        "figures" => figure_sweep()?,
        "messaging" => messaging_sweep()?,
        _ => contend_sweep()?,
    };
    let mut rep = Rep {
        report_wall_ns: sweep.report_wall_ns,
        span_names: Vec::new(),
        spans: Vec::new(),
        points: Vec::new(),
    };
    let labels_match = sweep.jobs.len() == sweep.reference.len()
        && sweep
            .jobs
            .iter()
            .zip(&sweep.reference)
            .all(|((_, j), la)| match j {
                Job::Figure(spec) => spec.label == la.label,
                Job::Message { seed, .. } | Job::Contend { seed, .. } => *seed == la.seed,
            });
    if !labels_match {
        mismatches.push(format!(
            "replica enumerates {} points, the sweep reports {} (or in another order)",
            sweep.jobs.len(),
            sweep.reference.len()
        ));
        return Ok(rep);
    }
    let mut spans = Spans::new(origin);
    let sp = &mut spans;
    rep.points = sweep
        .reference
        .iter()
        .map(|la| PointRec {
            label: la.label.clone(),
            seed: la.seed,
            wall_ns: u64::try_from(la.wall.as_nanos()).unwrap_or(u64::MAX),
            ..PointRec::default()
        })
        .collect();

    let mut slot = None;
    let mut group = usize::MAX;
    for (i, ((g, job), la)) in sweep.jobs.iter().zip(&sweep.reference).enumerate() {
        if *g != group {
            group = *g;
            slot = None;
        }
        let rec = &mut rep.points[i];
        let out = exec(job, &mut slot, Mode::Traced, sp, i, rec)?;
        if !same(out.value, la.value) || out.cycles != la.sim_cycles {
            mismatches.push(format!(
                "{}#{}: replica {:?} in {} cycles, sweep {:?} in {} cycles",
                la.label, la.seed, out.value, out.cycles, la.value, la.sim_cycles
            ));
        }
        rec.cycles = out.cycles;
        rec.ticks = out.ticks;
        rec.switches = out.switches;
        rec.counters = out.counters;
        if matches!(job, Job::Contend { .. }) {
            // MultiSim::run is one call, so the traced replica doubles as
            // the untraced metrics-on replica.
            rec.metrics_ns = sp.last("multiproc.run");
        }
        let Some(cache) = cache else { continue };
        let point = i as u32;
        let key = job.key();
        let root = sp.now();
        let t = sp.now();
        let hit = cache.load(key).and_then(|p| decode(&p)).is_some();
        sp.close("cache.load", point, t);
        if hit {
            cache.note_hit();
        } else {
            let payload = encode(&out);
            let t = sp.now();
            cache.store(key, &payload);
            sp.close("cache.store", point, t);
            cache.note_miss();
        }
        sp.close("cache.fill", point, root);
    }

    if let Some(cache) = cache {
        for (i, ((_, job), la)) in sweep.jobs.iter().zip(&sweep.reference).enumerate() {
            let point = i as u32;
            let root = sp.now();
            let t = sp.now();
            let key = job.key();
            sp.close("cache.key", point, t);
            let t = sp.now();
            let decoded = cache.load(key).and_then(|p| decode(&p));
            sp.close("cache.load", point, t);
            sp.close("cache.replay", point, root);
            match decoded {
                Some((value, cycles)) if same(value, la.value) && cycles == la.sim_cycles => {
                    cache.note_hit();
                }
                _ => {
                    cache.note_miss();
                    mismatches.push(format!("{}#{}: cache replay differs", la.label, la.seed));
                }
            }
        }
    }

    let modes: &[Mode] = if workload == "manycore" {
        &[Mode::Naive, Mode::Plain]
    } else {
        &[Mode::Naive, Mode::Plain, Mode::Metrics]
    };
    let mut scratch = Spans::new(origin);
    for &mode in modes {
        let mut slot = None;
        let mut group = usize::MAX;
        for (i, ((g, job), la)) in sweep.jobs.iter().zip(&sweep.reference).enumerate() {
            if *g != group {
                group = *g;
                slot = None;
            }
            scratch.rows.clear();
            let out = exec(
                job,
                &mut slot,
                mode,
                &mut scratch,
                i,
                &mut PointRec::default(),
            )?;
            if out.cycles != la.sim_cycles {
                mismatches.push(format!(
                    "{}#{}: {} cycles untraced, sweep {}",
                    la.label, la.seed, out.cycles, la.sim_cycles
                ));
            }
            let run_ns = scratch.last("sim.run").max(scratch.last("multiproc.run"));
            let rec = &mut rep.points[i];
            match mode {
                Mode::Naive => {
                    rec.naive_ns = run_ns;
                    rec.naive_ticks = out.ticks;
                }
                Mode::Plain => rec.plain_ns = run_ns,
                Mode::Metrics | Mode::Traced => rec.metrics_ns = run_ns,
            }
        }
    }
    rep.span_names = spans.names;
    rep.spans = spans.rows;
    Ok(rep)
}

/// Median host ns of `Simulator::run` for one figure point with
/// fast-forward on and off, alternating the sides run by run.
fn probe(label: &str) -> Result<(f64, f64), ExpError> {
    let spec = [fig3::panel_specs(), fig4::panel_specs()]
        .concat()
        .iter()
        .flat_map(|p| p.enumerate())
        .chain(fig5::panel_specs().iter().flat_map(|p| p.enumerate()))
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("probe point {label} is not in the figures"));
    let job = Job::Figure(Box::new(spec));
    let mut slot = None;
    let mut sides = [Vec::new(), Vec::new()];
    let mut sp = Spans::new(Instant::now());
    for run in 0..2 * PROBE_RUNS {
        let naive = run % 2 == 1;
        let mode = if naive { Mode::Naive } else { Mode::Plain };
        sp.rows.clear();
        exec(&job, &mut slot, mode, &mut sp, 0, &mut PointRec::default())?;
        sides[usize::from(naive)].push(sp.last("sim.run") as f64);
    }
    Ok((median(&mut sides[0]), median(&mut sides[1])))
}

/// Median host ns of `MultiSim::new` and `MultiSim::run` for the
/// `MultiSim` probe point, metrics off, and its context switches.
fn multiproc_probe() -> Result<MultiprocProbe, ExpError> {
    let mut sp = Spans::new(Instant::now());
    let (mut new, mut run) = (Vec::new(), Vec::new());
    let mut switches = 0;
    for _ in 0..MULTIPROC_PROBE_RUNS {
        sp.rows.clear();
        switches = exec_contend(&MULTIPROC_PROBE_JOB, Mode::Plain, &mut sp, 0)?.switches;
        new.push(sp.last("multiproc.new") as f64);
        run.push(sp.last("multiproc.run") as f64);
    }
    Ok(MultiprocProbe {
        label: MULTIPROC_PROBE,
        new_ns: median(&mut new),
        run_ns: median(&mut run),
        switches,
    })
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Median delta between back-to-back clock reads: the bias one timed
/// call carries.
fn timer_ns() -> f64 {
    let mut v = Vec::with_capacity(20_001);
    let mut prev = Instant::now();
    for _ in 0..20_001 {
        let t = Instant::now();
        v.push((t - prev).as_nanos() as f64);
        prev = t;
    }
    median(&mut v)
}

/// Host time of one probe point's `Simulator::run`, with fast-forward on
/// and off.
#[derive(Serialize)]
struct Probe {
    label: &'static str,
    ff_ns: f64,
    naive_ns: f64,
}

/// Host time of the `MultiSim` probe point.
#[derive(Serialize)]
struct MultiprocProbe {
    label: &'static str,
    new_ns: f64,
    run_ns: f64,
    switches: u64,
}

/// The document printed to stdout.
#[derive(Serialize)]
struct Output {
    workload: String,
    timer_ns: f64,
    counters: &'static [&'static str],
    mismatches: Vec<String>,
    probes: Vec<Probe>,
    multiproc: MultiprocProbe,
    reps: Vec<Rep>,
}

/// Peak resident set (KiB) of this process's waited-for children.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_peak_rss_kib() -> i64 {
    // struct rusage on 64-bit Linux: ru_utime and ru_stime (struct
    // timeval, two longs each) then fourteen longs, the first of which is
    // ru_maxrss.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a live, aligned buffer exactly the size of the
    // struct rusage that getrusage writes through the pointer, and the
    // call retains no reference to it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.0[4]
    } else {
        0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_peak_rss_kib() -> i64 {
    0
}

/// Runs `program` with this process's stdio and writes
/// `<wall ns> <peak RSS KiB> <exit code>` to `result` (a path, such as
/// `/dev/fd/N` for a pipe the caller passed down). The benchmark launches
/// every timed pass through here: a child forked straight from the Python
/// harness records the harness's own resident set as its peak RSS, while
/// this launcher's is a few hundred KiB.
fn spawn(result: &str, program: &str, args: &[String]) -> std::io::Result<()> {
    let t = Instant::now();
    let status = std::process::Command::new(program).args(args).status()?;
    let wall = t.elapsed().as_nanos();
    let code = status.code().unwrap_or(-1);
    std::fs::write(
        result,
        format!("{wall} {} {code}\n", children_peak_rss_kib()),
    )
}

fn main() {
    let usage =
        "usage: csb-perf-tracer <figures|messaging|manycore> <seconds> <scratch-dir>\n       \
                 csb-perf-tracer spawn <result-file> <program> [args...]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, result, program, rest @ ..] = args.as_slice() {
        if cmd == "spawn" {
            if let Err(e) = spawn(result, program, rest) {
                eprintln!("csb-perf-tracer: cannot run {program}: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let [workload, seconds, scratch] = args.as_slice() else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    if !matches!(workload.as_str(), "figures" | "messaging" | "manycore") {
        eprintln!("unknown workload {workload:?}\n{usage}");
        std::process::exit(2);
    }
    let Ok(seconds) = seconds.parse::<f64>() else {
        eprintln!("seconds must be a number\n{usage}");
        std::process::exit(2);
    };
    // The first repetition fills and replays a scratch cache, which is
    // deleted right after it (see passes.py beside this package for why
    // that is soon).
    let dir = PathBuf::from(scratch).join("cache");
    let cache = PointCache::open(&dir).unwrap_or_else(|e| {
        eprintln!("csb-perf-tracer: cannot open {}: {e}", dir.display());
        std::process::exit(1);
    });
    let origin = Instant::now();
    let timer = timer_ns();
    let mut mismatches = Vec::new();
    let mut reps = Vec::new();
    while reps.is_empty() || (reps.len() < MAX_REPS && origin.elapsed().as_secs_f64() < seconds) {
        let cache = reps.is_empty().then_some(&cache);
        match run_rep(workload, origin, cache, &mut mismatches) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                eprintln!("csb-perf-tracer: {workload} replica failed: {e}");
                std::process::exit(1);
            }
        }
        if reps.len() == 1 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        if !mismatches.is_empty() {
            break;
        }
    }
    let mut probes = Vec::new();
    for label in PROBES {
        match probe(label) {
            Ok((ff_ns, naive_ns)) => probes.push(Probe {
                label,
                ff_ns,
                naive_ns,
            }),
            Err(e) => {
                eprintln!("csb-perf-tracer: probe {label} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let multiproc = multiproc_probe().unwrap_or_else(|e| {
        eprintln!("csb-perf-tracer: probe {MULTIPROC_PROBE} failed: {e}");
        std::process::exit(1);
    });

    let doc = Output {
        workload: workload.clone(),
        timer_ns: timer,
        counters: &COUNTERS,
        mismatches,
        probes,
        multiproc,
        reps,
    };
    println!(
        "{}",
        serde_json::to_string(&doc).expect("the output is plain data")
    );
}
