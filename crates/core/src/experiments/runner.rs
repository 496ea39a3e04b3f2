//! Parallel experiment engine: enumerate simulation points, fan them out
//! across cores, reassemble deterministically.
//!
//! Every sweep in the paper's evaluation is a grid of *independent*
//! execution-driven simulation points — (panel × transfer × scheme) for the
//! bandwidth figures, (panel × doublewords × scheme) for Figure 5, the
//! ablation sweeps, and the seeded fault, messaging and contention points.
//! Every one of them runs through this engine:
//!
//! 1. **Enumeration** — a sweep lists its points: [`PointSpec`]s
//!    (machine configuration + workload parameters + a human label) for
//!    the figures and ablations, its own seeded point type for the fault,
//!    messaging and contention sweeps.
//! 2. **Execution** — the engine drives the points on a scoped worker
//!    pool ([`parallel_map_with`]). It alone owns the point-cache round
//!    trip (key → load → decode → invalidate → simulate → store), the
//!    [`RunReport`] and the [`LabeledArtifacts`] list; a sweep supplies
//!    only its point function and payload codec.
//! 3. **Reassembly** — results come back *keyed by point index*, so the
//!    tables built from them are byte-identical no matter how many workers
//!    ran (`jobs = 1` takes the exact serial path: same closure, same
//!    iteration order, current thread).
//!
//! The pool is a hand-rolled `std::thread::scope` + atomic-cursor design
//! rather than rayon: this build environment has no registry access (see
//! `vendor/README.md`), and work-stealing buys nothing here — points are
//! coarse (millions of simulated cycles each), so a shared take-a-ticket
//! counter already load-balances them.
//!
//! Execution is instrumented: each point reports its wall-clock and
//! simulated cycle count, and a sweep returns a [`RunReport`] with pool
//! utilization, aggregate throughput, and the slowest point. The bench
//! binaries print the report to **stderr**, keeping stdout (the tables)
//! byte-identical across `--jobs` settings.
//!
//! Nothing here is process-global: the cache, the fast-forward switch and
//! the autosnap setting travel in the [`ObsConfig`] each sweep is given,
//! so two sweeps on two threads never see each other's settings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use csb_isa::Addr;
use csb_obs::MetricsSnapshot;
use csb_snap::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};

use serde::value::Value;
use serde::Serialize;

use super::fig5::{self, LockResidency};
use super::{ExpError, Panel, PanelRow, Scheme, DWORD_BYTES, POINT_LIMIT, TRANSFERS};
use crate::cache::{CacheStats, PointCache};
use crate::config::{SimConfig, LOCK_ADDR};
use crate::sim::{MetricsReport, RunSummary, SimError, Simulator};
use crate::snapshot::AutosnapConfig;
use crate::workloads::{self, StoreOrder, StorePath, MARK_END, MARK_START};

/// How every point of a sweep runs and what it records.
///
/// The default captures nothing, consults no cache, writes no snapshots,
/// and simulates with event-driven fast-forward on. No setting changes a
/// table: fast-forward is cycle-exact, cached points replay their stored
/// values, and captures only add artifacts.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig<'a> {
    /// Capture a Chrome trace-event JSON document per point.
    pub trace: bool,
    /// Capture a [`MetricsReport`] (counters + latency histograms) per
    /// point.
    pub metrics: bool,
    /// Jump provably idle cycles ([`Simulator::set_fast_forward`]). Off
    /// forces the naive cycle-by-cycle loop, with identical results.
    pub fast_forward: bool,
    /// Store that serves unchanged points and keeps newly simulated ones.
    /// Points that capture artifacts bypass it: traces and metrics are not
    /// stored, so a cached result could not carry them.
    pub cache: Option<&'a PointCache>,
    /// Periodic restorable snapshots of every simulated point.
    pub autosnap: Option<AutosnapConfig<'a>>,
}

impl Default for ObsConfig<'_> {
    fn default() -> Self {
        ObsConfig {
            trace: false,
            metrics: false,
            fast_forward: true,
            cache: None,
            autosnap: None,
        }
    }
}

impl ObsConfig<'_> {
    /// Whether any artifact capture is enabled.
    pub fn any(self) -> bool {
        self.trace || self.metrics
    }

    /// Runs `sim` until it completes or reaches `limit` CPU cycles under
    /// these settings: the fast-forward switch, the trace and metrics
    /// capture, and autosnap dumps. Every simulated sweep point runs
    /// through here.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run`].
    pub fn simulate(self, sim: &mut Simulator, limit: u64) -> Result<RunSummary, SimError> {
        sim.set_fast_forward(self.fast_forward);
        if self.trace {
            sim.enable_tracing();
        }
        if self.metrics {
            sim.enable_metrics();
        }
        match self.autosnap {
            Some(auto) => sim.run_autosnap(limit, auto),
            None => sim.run(limit),
        }
    }
}

/// Observability artifacts captured for one executed point.
#[derive(Debug, Clone, Default)]
pub struct PointArtifacts {
    /// Chrome trace-event JSON (present when [`ObsConfig::trace`] was set).
    pub trace_json: Option<String>,
    /// Per-point metrics report (present when [`ObsConfig::metrics`] was
    /// set).
    pub metrics: Option<MetricsReport>,
}

impl PointArtifacts {
    /// Whether this point captured anything.
    pub fn is_empty(&self) -> bool {
        self.trace_json.is_none() && self.metrics.is_none()
    }

    /// What `obs` asked to capture from a finished run of `sim`.
    pub(crate) fn capture(sim: &Simulator, obs: ObsConfig<'_>) -> Self {
        PointArtifacts {
            trace_json: obs.trace.then(|| sim.chrome_trace()),
            metrics: obs.metrics.then(|| sim.metrics_report()),
        }
    }
}

/// One point's artifacts tagged with the label and seed that name the
/// point — what the bench binaries key artifact filenames on. Also
/// carries the point's key, measured value, simulated cycle count, and
/// wall time so ledger records can be assembled from this struct alone.
#[derive(Debug, Clone)]
pub struct LabeledArtifacts {
    /// The spec's display label, e.g. `"3e/256B/CSB"`.
    pub label: String,
    /// The point's measured value.
    pub value: PointValue,
    /// CPU cycles the point's simulation ran for.
    pub sim_cycles: u64,
    /// Wall-clock time the point took on its worker.
    pub wall: Duration,
    /// Fault-schedule seed (0 for deterministic points).
    pub seed: u64,
    /// The point's cache key ([`PointCache::key_of`] over its
    /// configuration, workload and seed): it addresses the point's cache
    /// entry, names its autosnap frames, and is its ledger record's
    /// `config_hash`.
    pub key: u64,
    /// The captured artifacts.
    pub artifacts: PointArtifacts,
}

/// The workload half of a simulation point: what to measure on the
/// machine a [`PointSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointWork {
    /// Uncached store bandwidth (Figures 3/4 and the bandwidth ablations):
    /// payload bytes per bus cycle.
    Bandwidth {
        /// Transfer size in bytes.
        transfer: usize,
        /// Store-handling scheme under test.
        scheme: Scheme,
        /// Per-line store issue order.
        order: StoreOrder,
    },
    /// Lock-sequence latency (Figure 5 and the latency ablations): CPU
    /// cycles between the timing marks.
    Latency {
        /// Uncached doubleword stores in the sequence.
        dwords: usize,
        /// Store-handling scheme under test.
        scheme: Scheme,
        /// Whether the lock variable hits in the L1.
        residency: LockResidency,
    },
}

impl PointWork {
    /// Readies `slot` to measure this work on `cfg`: the scheme's machine,
    /// its kernel, and for a latency point the lock line warmed or evicted
    /// per its residency. Cold construction into an empty slot and a warm
    /// reset of a filled one give the same results. Not yet run.
    pub(crate) fn install<'s>(
        &self,
        slot: &'s mut Option<Simulator>,
        cfg: &SimConfig,
    ) -> Result<&'s mut Simulator, ExpError> {
        let (PointWork::Bandwidth { scheme, .. } | PointWork::Latency { scheme, .. }) = *self;
        let (cfg, path) = scheme.machine(cfg);
        let program = match *self {
            PointWork::Bandwidth {
                transfer, order, ..
            } => workloads::store_bandwidth_ordered(transfer, &cfg, path, order)?,
            PointWork::Latency { dwords, .. } if path == StorePath::Uncached => {
                workloads::lock_sequence(dwords)?
            }
            // The latency kernel has no retry branch worth outlining, so
            // both CSB flavors measure the same sequence.
            PointWork::Latency { dwords, .. } => workloads::csb_sequence(dwords, &cfg)?,
        };
        let sim = super::install_sim(slot, cfg, program)?;
        // The lock line is prepared after the reset, exactly as after a
        // cold construction.
        if let PointWork::Latency { residency, .. } = *self {
            match residency {
                LockResidency::Hit => sim.warm_line(Addr::new(LOCK_ADDR)),
                LockResidency::Miss => sim.evict_line(Addr::new(LOCK_ADDR)),
            }
        }
        Ok(sim)
    }

    /// The figure value a completed run of this work measured.
    pub(crate) fn value(&self, summary: &RunSummary) -> Result<PointValue, ExpError> {
        match self {
            PointWork::Bandwidth { .. } => {
                Ok(PointValue::Bandwidth(summary.bus.effective_bandwidth()))
            }
            PointWork::Latency { .. } => summary
                .cpu
                .mark_interval(MARK_START, MARK_END)
                .map(PointValue::Latency)
                .ok_or(ExpError::MissingMark),
        }
    }

    /// Measures this work on `cfg` through `slot` under `obs`: the value,
    /// the simulated cycle count, and the captured artifacts.
    pub(crate) fn measure(
        &self,
        slot: &mut Option<Simulator>,
        cfg: &SimConfig,
        obs: ObsConfig<'_>,
    ) -> Result<(PointValue, u64, PointArtifacts), ExpError> {
        let sim = self.install(slot, cfg)?;
        let summary = obs.simulate(sim, POINT_LIMIT)?;
        let value = self.value(&summary)?;
        Ok((value, summary.cycles, PointArtifacts::capture(sim, obs)))
    }
}

/// One fully-described simulation point: a machine plus the measurement to
/// take on it. Specs are pure data — enumerating them runs no simulation.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Display label, e.g. `"3e/256B/CSB"` — used by [`RunReport`] to name
    /// the slowest point.
    pub label: String,
    /// Machine configuration (already specialized for the panel; the
    /// scheme in [`PointSpec::work`] applies its own overrides on top).
    pub cfg: SimConfig,
    /// The measurement to take.
    pub work: PointWork,
}

/// The measured value of one executed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointValue {
    /// Payload bytes per bus cycle.
    Bandwidth(f64),
    /// CPU cycles per sequence.
    Latency(u64),
}

/// A zero latency, the value a cached point is read into.
impl Default for PointValue {
    fn default() -> Self {
        PointValue::Latency(0)
    }
}

/// The reading alone: a float for bandwidth, an integer for latency.
impl Serialize for PointValue {
    fn to_value(&self) -> Value {
        match *self {
            PointValue::Bandwidth(b) => b.to_value(),
            PointValue::Latency(c) => c.to_value(),
        }
    }
}

impl PointValue {
    /// The bandwidth reading, if this was a bandwidth point.
    pub fn bandwidth(self) -> Option<f64> {
        match self {
            PointValue::Bandwidth(b) => Some(b),
            PointValue::Latency(_) => None,
        }
    }

    /// The latency reading, if this was a latency point.
    pub fn latency(self) -> Option<u64> {
        match self {
            PointValue::Latency(c) => Some(c),
            PointValue::Bandwidth(_) => None,
        }
    }
}

/// One point of a sweep as the engine sees it: how to name, address,
/// simulate and cache it. The engine supplies everything else.
pub(crate) trait SweepPoint: Sync {
    /// What one execution yields: the value the sweep's tables are built
    /// from, including the simulated cycle count. It is also what the
    /// point cache stores; a cached one is read into a default value.
    type Output: Send + Default;

    /// Display label; ledger records and the slowest-point line use it.
    fn label(&self) -> String;

    /// Fault-schedule or arrival seed (0 for deterministic points).
    fn seed(&self) -> u64 {
        0
    }

    /// The point's one key, [`PointCache::key_of`] over everything its
    /// result depends on: its content address in a [`PointCache`], the
    /// name of its autosnap frames, and its ledger record's `config_hash`.
    fn cache_key(&self) -> u64;

    /// Simulates the point through the worker's reusable simulator slot,
    /// under `obs`'s fast-forward, capture and autosnap settings.
    fn simulate(
        &self,
        slot: &mut Option<Simulator>,
        obs: ObsConfig<'_>,
    ) -> Result<(Self::Output, PointArtifacts), ExpError>;

    /// Walks `output` as the point's cache payload (see
    /// [`write_payload`] and [`read_payload`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a cached payload is malformed or is not this
    /// point's kind of result; the entry is then invalidated.
    fn payload(&self, output: &mut Self::Output, s: &mut impl Codec) -> Result<(), SnapshotError>;

    /// The output as the single value a ledger record carries.
    fn value(output: &Self::Output) -> PointValue;

    /// CPU cycles the point's simulation ran for.
    fn sim_cycles(output: &Self::Output) -> u64;
}

/// The cache payload of `output`: `point`'s walk, unframed (the pack
/// record's checksum covers it).
pub(crate) fn write_payload<P: SweepPoint>(point: &P, output: &mut P::Output) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    point.payload(output, &mut w).expect("a writer never fails");
    w.into_bytes()
}

/// `point`'s output read back from a cache payload; `None` when the
/// payload is malformed or is not this point's kind of result.
pub(crate) fn read_payload<P: SweepPoint>(point: &P, payload: &[u8]) -> Option<P::Output> {
    let mut r = SnapshotReader::new(payload);
    let mut output = P::Output::default();
    point.payload(&mut output, &mut r).ok()?;
    r.expect_end("cached point payload").ok()?;
    Some(output)
}

/// Runs one point, serving it from `cache` when a valid entry exists and
/// storing it after a simulation otherwise; `key` addresses the entry and
/// names the autosnap frames. Returns the output, the point's wall-clock
/// time, and its artifacts.
fn execute<P: SweepPoint>(
    slot: &mut Option<Simulator>,
    point: &P,
    key: u64,
    obs: ObsConfig<'_>,
    cache: Option<&PointCache>,
) -> Result<(P::Output, Duration, PointArtifacts), ExpError> {
    let t0 = Instant::now();
    let obs = ObsConfig {
        autosnap: obs.autosnap.map(|auto| auto.for_point(key)),
        ..obs
    };
    let Some(cache) = cache else {
        let (output, artifacts) = point.simulate(slot, obs)?;
        return Ok((output, t0.elapsed(), artifacts));
    };
    if let Some(payload) = cache.load(key) {
        if let Some(output) = read_payload(point, &payload) {
            cache.note_hit();
            return Ok((output, t0.elapsed(), PointArtifacts::default()));
        }
        cache.invalidate(key);
    }
    let (mut output, artifacts) = point.simulate(slot, obs)?;
    cache.note_miss();
    cache.store(key, &write_payload(point, &mut output));
    Ok((output, t0.elapsed(), artifacts))
}

/// A sweep's outputs in point order, one [`LabeledArtifacts`] per point,
/// and its [`RunReport`].
pub(crate) type Swept<O> = (Vec<O>, Vec<LabeledArtifacts>, RunReport);

/// Runs every point on `jobs` workers (`0` = all cores). Returns the
/// outputs in point order, one [`LabeledArtifacts`] per point, and the
/// sweep's [`RunReport`].
///
/// A serial pass first derives each point's key once; that key is the
/// point's only identity, for the cache, the autosnap frames and the
/// ledger. Each worker then threads one simulator slot through its whole
/// queue, so every point after a worker's first runs on a warm-reset
/// simulator.
///
/// Without a cache and without captures, a sweep simulates each distinct
/// key once: a later point with the key of an earlier one is read from
/// the earlier one's cache payload, as a cache hit would read it, with a
/// wall time of zero and no artifacts.
///
/// # Errors
///
/// The failure of the lowest-indexed failing point — exactly what a
/// serial `?`-loop would report.
pub(crate) fn run_sweep<P: SweepPoint>(
    points: &[P],
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<Swept<P::Output>, ExpError> {
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    let cache = obs.cache.filter(|_| !obs.any());
    let cache_before = cache.map(PointCache::stats);
    let t0 = Instant::now();
    // The map below is sized once, before any simulator is built: grown
    // instead, it raised cold-pass peak RSS by about 4% (EXPERIMENTS.md).
    let keys: Vec<u64> = points.iter().map(SweepPoint::cache_key).collect();
    // For each repeated key, the index of the first point with it.
    let mut firsts = HashMap::new();
    if obs.cache.is_none() && !obs.any() {
        firsts.reserve(points.len());
        for (i, &key) in keys.iter().enumerate() {
            firsts.entry(key).or_insert(i);
        }
    }
    let first_of = |i: usize| firsts.get(&keys[i]).copied().unwrap_or(i);
    let simulated: Vec<usize> = (0..points.len()).filter(|&i| first_of(i) == i).collect();
    let mut results = parallel_map_with(
        &simulated,
        jobs,
        || None,
        |slot, &i| execute(slot, &points[i], keys[i], obs, cache),
    )
    .into_iter();
    let mut report = RunReport::default();
    let mut outputs: Vec<P::Output> = Vec::with_capacity(points.len());
    let mut labeled = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        let first = first_of(i);
        let (output, wall, artifacts) = if first == i {
            results.next().expect("one result per simulated point")?
        } else {
            let payload = write_payload(&points[first], &mut outputs[first]);
            let output = read_payload(point, &payload)
                .expect("a point reads the payload of a point with its key");
            (output, Duration::ZERO, PointArtifacts::default())
        };
        let sim_cycles = P::sim_cycles(&output);
        let label = point.label();
        report.busy += wall;
        report.sim_cycles += sim_cycles;
        if report.slowest.as_ref().is_none_or(|(_, d)| wall > *d) {
            report.slowest = Some((label.clone(), wall));
        }
        if let Some(point_metrics) = &artifacts.metrics {
            report
                .metrics
                .get_or_insert_with(MetricsSnapshot::default)
                .merge(&point_metrics.metrics);
        }
        labeled.push(LabeledArtifacts {
            label,
            value: P::value(&output),
            sim_cycles,
            wall,
            seed: point.seed(),
            key: keys[i],
            artifacts,
        });
        outputs.push(output);
    }
    let wall = t0.elapsed();
    let workers = jobs.min(simulated.len()).max(1);
    report.jobs = workers;
    report.points = points.len();
    report.wall = wall;
    report.capacity = wall * workers as u32;
    if let (Some(cache), Some(before)) = (cache, cache_before) {
        let delta = cache.stats().delta(&before);
        if delta.any() {
            report.cache = Some(delta);
            // Surface the pair in the metrics aggregate too, so a metrics
            // consumer sees cache effectiveness alongside the counters.
            let m = report.metrics.get_or_insert_with(MetricsSnapshot::default);
            m.counters.insert("cache.hit".to_string(), delta.hits);
            m.counters.insert("cache.miss".to_string(), delta.misses);
        }
    }
    Ok((outputs, labeled, report))
}

impl SweepPoint for PointSpec {
    type Output = (PointValue, u64);

    fn label(&self) -> String {
        self.label.clone()
    }

    /// Machine configuration + workload. The display label is
    /// deliberately excluded — the same point reached from different
    /// sweeps shares one entry.
    fn cache_key(&self) -> u64 {
        PointCache::key_of(&(&self.cfg, &self.work))
    }

    fn simulate(
        &self,
        slot: &mut Option<Simulator>,
        obs: ObsConfig<'_>,
    ) -> Result<(Self::Output, PointArtifacts), ExpError> {
        let (value, sim_cycles, artifacts) = self.work.measure(slot, &self.cfg, obs)?;
        Ok(((value, sim_cycles), artifacts))
    }

    /// Besides the byte layout, checks that a cached value's kind is
    /// what the spec measures (a key-collision guard).
    fn payload(
        &self,
        (value, sim_cycles): &mut Self::Output,
        s: &mut impl Codec,
    ) -> Result<(), SnapshotError> {
        s.tag("pt")?;
        if s.reading() {
            *value = match self.work {
                PointWork::Bandwidth { .. } => PointValue::Bandwidth(0.0),
                PointWork::Latency { .. } => PointValue::Latency(0),
            };
        }
        let kind = u8::from(matches!(value, PointValue::Latency(_)));
        let mut k = kind;
        s.u8(&mut k)?;
        if s.reading() && k != kind {
            return Err(SnapshotError::Corrupt(format!(
                "cached value of kind {k} for a point of kind {kind}"
            )));
        }
        match value {
            PointValue::Bandwidth(b) => s.f64(b)?,
            PointValue::Latency(c) => s.u64(c)?,
        }
        s.u64(sim_cycles)
    }

    fn value(&(value, _): &Self::Output) -> PointValue {
        value
    }

    fn sim_cycles(&(_, sim_cycles): &Self::Output) -> u64 {
        sim_cycles
    }
}

/// The number of workers `jobs = 0` ("all cores") resolves to.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item and returns the outputs *in item order*.
///
/// With `jobs <= 1` (after resolving `0` to [`default_jobs`]) this is a
/// plain serial loop on the calling thread. Otherwise `min(jobs, len)`
/// scoped workers pull indices from a shared atomic cursor and write into
/// an index-addressed slot table, so the output order never depends on
/// scheduling.
pub fn parallel_map<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map_with(items, jobs, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker state: `init` builds one state value
/// per worker (one total on the serial path), and `f` receives that
/// worker's state alongside each item it pulls. The experiment engine uses
/// this to hand every worker a reusable simulator slot for its whole point
/// queue. The state never migrates between threads, so the output is still
/// a pure function of the items whenever `f`'s *result* is — state may
/// only carry reusable storage, not values that leak into outputs.
pub fn parallel_map_with<S, I, T, N, F>(items: &[I], jobs: usize, init: N, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, &I) -> T + Sync,
{
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    let workers = jobs.min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(&mut state, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index below the cursor was filled")
        })
        .collect()
}

/// Instrumentation for one sweep through the engine.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Points executed.
    pub points: usize,
    /// Wall-clock for the whole sweep, from the first point's dispatch to
    /// the end of reassembly.
    pub wall: Duration,
    /// Sum of per-point wall-clock across all workers.
    pub busy: Duration,
    /// Total simulated CPU cycles across all points.
    pub sim_cycles: u64,
    /// Label and wall-clock of the slowest point.
    pub slowest: Option<(String, Duration)>,
    /// Pool capacity actually offered: Σ per-sweep `wall × jobs`. Kept
    /// separately from `wall` so merging sweeps that ran with *different*
    /// worker counts cannot inflate the [`RunReport::utilization`]
    /// denominator (`max(jobs) × Σwall` overstates capacity whenever any
    /// sweep ran narrower than the widest one).
    pub capacity: Duration,
    /// Aggregate metrics across every observed point (present only when a
    /// sweep ran with [`ObsConfig::metrics`]).
    pub metrics: Option<MetricsSnapshot>,
    /// Point-cache effectiveness over this sweep (present only when the
    /// sweep consulted an [`ObsConfig::cache`]).
    pub cache: Option<CacheStats>,
}

impl RunReport {
    /// The pool's wall-clock capacity: the tracked [`RunReport::capacity`]
    /// when one was recorded, else `wall × jobs` (a report built by hand or
    /// by an older producer).
    pub fn pool_capacity(&self) -> Duration {
        if self.capacity > Duration::ZERO {
            self.capacity
        } else {
            self.wall * self.jobs.max(1) as u32
        }
    }

    /// Fraction of the pool's wall-clock capacity spent simulating:
    /// `busy / capacity`. 1.0 means every worker was saturated.
    pub fn utilization(&self) -> f64 {
        let capacity = self.pool_capacity().as_secs_f64();
        if capacity > 0.0 {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Folds another sweep's report into this one. Wall-clock adds (sweeps
    /// run back to back), as do point counts, cycle totals, and pool
    /// capacities; the worker count keeps the maximum seen. Capacities are
    /// normalized through [`RunReport::pool_capacity`] *before* the merge so
    /// each sweep contributes `its own wall × its own jobs` — not the
    /// merged maximum.
    pub fn merge(&mut self, other: &RunReport) {
        self.capacity = self.pool_capacity() + other.pool_capacity();
        self.jobs = self.jobs.max(other.jobs);
        self.points += other.points;
        self.wall += other.wall;
        self.busy += other.busy;
        self.sim_cycles += other.sim_cycles;
        self.slowest = match (&self.slowest, &other.slowest) {
            (Some(x), Some(y)) => Some(if x.1 >= y.1 { x.clone() } else { y.clone() }),
            (Some(x), None) => Some(x.clone()),
            (None, y) => y.clone(),
        };
        self.metrics = match (self.metrics.take(), &other.metrics) {
            (Some(mut m), Some(o)) => {
                m.merge(o);
                Some(m)
            }
            (Some(m), None) => Some(m),
            (None, o) => o.clone(),
        };
        self.cache = match (self.cache.take(), &other.cache) {
            (Some(mut c), Some(o)) => {
                c.add(o);
                Some(c)
            }
            (Some(c), None) => Some(c),
            (None, o) => *o,
        };
    }

    /// Renders the report as the multi-line block the bench binaries print
    /// to stderr.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "runner: {} point(s) on {} worker(s) in {:.3}s",
            self.points,
            self.jobs.max(1),
            self.wall.as_secs_f64()
        ));
        out.push('\n');
        let wall = self.wall.as_secs_f64();
        let per_point = if self.points > 0 {
            self.busy.as_secs_f64() / self.points as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "runner: {} simulated cycles ({:.1}M cycles/s), {:.1}us avg/point, utilization {:.0}%",
            self.sim_cycles,
            if wall > 0.0 {
                self.sim_cycles as f64 / wall / 1e6
            } else {
                0.0
            },
            per_point * 1e6,
            self.utilization() * 100.0
        ));
        if let Some((label, d)) = &self.slowest {
            out.push_str(&format!(
                "\nrunner: slowest point {} at {:.1}ms",
                label,
                d.as_secs_f64() * 1e3
            ));
        }
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "\nrunner: cache {} hit(s), {} miss(es), {} invalidation(s), {:.1} KiB read, {:.1} KiB written",
                c.hits,
                c.misses,
                c.invalidations,
                c.bytes_read as f64 / 1024.0,
                c.bytes_written as f64 / 1024.0
            ));
        }
        if let Some(metrics) = &self.metrics {
            if let Some(h) = metrics.histograms.get("csb_flush_retry_latency") {
                out.push_str(&format!(
                    "\nrunner: flush retry latency p50 {} p95 {} p99 {} p99.9 {} max {} cycles over {} flush(es)",
                    h.p50, h.p95, h.p99, h.p999, h.max, h.count
                ));
            }
        }
        out
    }
}

/// Executes every spec on `jobs` workers (`0` = all cores): the values in
/// spec order, one [`LabeledArtifacts`] per spec (empty artifacts when
/// `obs` captures nothing), and the sweep's [`RunReport`].
///
/// # Errors
///
/// The first (in spec order) point failure.
pub fn run_values_observed(
    specs: &[PointSpec],
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<PointValue>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let (outputs, artifacts, report) = run_sweep(specs, jobs, obs)?;
    let values = outputs.into_iter().map(|(value, _)| value).collect();
    Ok((values, artifacts, report))
}

/// What a panel of Figures 3–5 measures at each of its sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Bytes per bus cycle of a store stream of each of [`TRANSFERS`]
    /// bytes (Figures 3 and 4).
    Bandwidth,
    /// CPU cycles of a lock sequence of each of [`fig5::DWORDS`]
    /// doublewords, the lock line resident or not (Figure 5).
    Latency(LockResidency),
}

impl Measure {
    /// The sizes a panel sweeps: transfer bytes or doublewords.
    fn sizes(self) -> &'static [usize] {
        match self {
            Measure::Bandwidth => &TRANSFERS,
            Measure::Latency(_) => &fig5::DWORDS,
        }
    }
}

/// Declarative description of one panel of Figures 3–5: the engine
/// expands it to its measure's sizes × the machine's scheme ladder.
#[derive(Debug, Clone)]
pub struct PanelSpec {
    /// Panel id, e.g. `"3a"`.
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// The panel's machine.
    pub cfg: SimConfig,
    /// What the panel measures.
    pub measure: Measure,
}

impl PanelSpec {
    /// Builds a spec.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        cfg: SimConfig,
        measure: Measure,
    ) -> Self {
        PanelSpec {
            id: id.into(),
            title: title.into(),
            cfg,
            measure,
        }
    }

    /// The points this panel expands to, in row-major (size, scheme)
    /// order — the serial harness's iteration order — labeled
    /// `3e/256B/CSB` or `5a/4dw/CSB`.
    pub fn enumerate(&self) -> Vec<PointSpec> {
        let schemes = Scheme::ladder(self.cfg.line());
        let sizes = self.measure.sizes();
        let mut points = Vec::with_capacity(sizes.len() * schemes.len());
        for &size in sizes {
            for &scheme in &schemes {
                let (unit, work) = match self.measure {
                    Measure::Bandwidth => (
                        "B",
                        PointWork::Bandwidth {
                            transfer: size,
                            scheme,
                            order: StoreOrder::Ascending,
                        },
                    ),
                    Measure::Latency(residency) => (
                        "dw",
                        PointWork::Latency {
                            dwords: size,
                            scheme,
                            residency,
                        },
                    ),
                };
                points.push(PointSpec {
                    label: format!("{}/{size}{unit}/{scheme}", self.id),
                    cfg: self.cfg.clone(),
                    work,
                });
            }
        }
        points
    }
}

/// Runs a set of panels through the engine on `jobs` workers (`0` = all
/// cores): the assembled panels, one [`LabeledArtifacts`] per enumerated
/// point in enumeration order, and the sweep's [`RunReport`].
///
/// # Errors
///
/// The first (in enumeration order) point failure.
pub fn run_panels_observed(
    panels: &[PanelSpec],
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<Panel>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let specs: Vec<PointSpec> = panels.iter().flat_map(PanelSpec::enumerate).collect();
    let (values, artifacts, report) = run_values_observed(&specs, jobs, obs)?;
    let mut values = values.into_iter();
    let assembled = panels
        .iter()
        .map(|panel| {
            let schemes = Scheme::ladder(panel.cfg.line());
            let rows = panel
                .measure
                .sizes()
                .iter()
                .map(|&size| PanelRow {
                    transfer: match panel.measure {
                        Measure::Bandwidth => size,
                        Measure::Latency(_) => size * DWORD_BYTES,
                    },
                    values: values.by_ref().take(schemes.len()).collect(),
                })
                .collect();
            Panel {
                id: panel.id.clone(),
                title: panel.title.clone(),
                schemes: schemes.iter().map(Scheme::to_string).collect(),
                rows,
            }
        })
        .collect();
    Ok((assembled, artifacts, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..67).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(13);
        assert_eq!(parallel_map(&items, 1, f), parallel_map(&items, 8, f));
    }

    #[test]
    fn warm_reset_reuse_matches_cold_construction() {
        let small = SimConfig::default().line_size(32).bus(
            csb_bus::BusConfig::multiplexed(8)
                .max_burst(32)
                .build()
                .expect("static test bus config is valid"),
        );
        let default = SimConfig::default();

        // Bandwidth and latency points deliberately alternating machine
        // shapes, schemes, and workloads, all through ONE simulator slot —
        // every warm reset crosses a configuration change.
        let bw = |transfer, scheme, order| PointWork::Bandwidth {
            transfer,
            scheme,
            order,
        };
        let lat = |dwords, scheme, residency| PointWork::Latency {
            dwords,
            scheme,
            residency,
        };
        let queue = [
            (&default, bw(256, Scheme::Csb, StoreOrder::Ascending)),
            (
                &default,
                lat(8, Scheme::Uncached { block: 8 }, LockResidency::Miss),
            ),
            (
                &small,
                bw(64, Scheme::Uncached { block: 32 }, StoreOrder::Shuffled),
            ),
            (&default, lat(4, Scheme::Csb, LockResidency::Hit)),
            (&default, bw(128, Scheme::R10k, StoreOrder::Ascending)),
            (&small, bw(512, Scheme::Ppc620, StoreOrder::Ascending)),
        ];

        let mut slot: Option<Simulator> = None;
        for (i, (cfg, work)) in queue.iter().enumerate() {
            let warm = work.install(&mut slot, cfg).expect("warm install");
            let mut fresh = None;
            let cold = work.install(&mut fresh, cfg).expect("cold install");
            let warm_summary = warm.run(POINT_LIMIT).expect("warm run completes");
            let cold_summary = cold.run(POINT_LIMIT).expect("cold run completes");
            assert_eq!(
                serde_json::to_string(&warm_summary).unwrap(),
                serde_json::to_string(&cold_summary).unwrap(),
                "point {i}: warm-reset summary must be byte-identical to cold"
            );
            assert_eq!(
                serde_json::to_string(warm.device()).unwrap(),
                serde_json::to_string(cold.device()).unwrap(),
                "point {i}: warm-reset device log must be byte-identical to cold"
            );
        }
    }

    #[test]
    fn run_points_first_error_wins() {
        // Two invalid transfers among valid points: the engine must report
        // the lowest-indexed failure regardless of worker count.
        let cfg = SimConfig::default();
        let point = |transfer: usize| PointSpec {
            label: format!("t/{transfer}"),
            cfg: cfg.clone(),
            work: PointWork::Bandwidth {
                transfer,
                scheme: Scheme::Uncached { block: 8 },
                order: StoreOrder::Ascending,
            },
        };
        // transfer=7 is not a multiple of 8 → workload error.
        let specs = vec![point(16), point(7), point(32), point(3)];
        for jobs in [1, 4] {
            let err = run_values_observed(&specs, jobs, ObsConfig::default()).unwrap_err();
            match err {
                ExpError::Workload(crate::workloads::WorkloadError::BadTransfer { bytes }) => {
                    assert_eq!(bytes, 7, "jobs={jobs} must surface the first failure");
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn bandwidth_panel_parallel_matches_serial() {
        // One panel both ways: same row order, same values, and the same
        // serialized bytes (what the golden files and --json dumps see).
        let cfg = SimConfig::default().line_size(32).bus(
            csb_bus::BusConfig::multiplexed(8)
                .max_burst(32)
                .build()
                .expect("static test bus config is valid"),
        );
        let spec = PanelSpec::new("t", "serial/parallel equivalence", cfg, Measure::Bandwidth);
        let obs = ObsConfig::default();
        let (serial, _, r1) = run_panels_observed(std::slice::from_ref(&spec), 1, obs).unwrap();
        let (parallel, _, r4) = run_panels_observed(std::slice::from_ref(&spec), 4, obs).unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        assert_eq!(serial[0].to_table(), parallel[0].to_table());
        assert_eq!(r1.points, r4.points);
        assert_eq!(r1.sim_cycles, r4.sim_cycles, "same points were simulated");
        assert_eq!(r1.jobs, 1);
        assert_eq!(r4.jobs, 4);
    }

    #[test]
    fn repeated_keys_are_simulated_once_with_the_same_results() {
        let spec = PanelSpec::new("t", "repeats", SimConfig::default(), Measure::Bandwidth);
        let distinct: Vec<PointSpec> = spec.enumerate().into_iter().take(4).collect();
        // Each repeat carries a label of its own, as Figure 3(d)'s points
        // repeat 3(b)'s.
        let order = [0, 1, 0, 2, 1, 3, 0];
        let repeated: Vec<PointSpec> = order
            .iter()
            .enumerate()
            .map(|(n, &i)| PointSpec {
                label: format!("r{n}"),
                ..distinct[i].clone()
            })
            .collect();
        let captured = ObsConfig {
            metrics: true,
            ..ObsConfig::default()
        };
        for jobs in [1, 4] {
            let (once, _, _) = run_sweep(&distinct, jobs, ObsConfig::default()).unwrap();
            let (outputs, labeled, report) =
                run_sweep(&repeated, jobs, ObsConfig::default()).unwrap();
            let expected: Vec<_> = order.iter().map(|&i| once[i]).collect();
            assert_eq!(outputs, expected, "jobs={jobs}");
            // A capture simulates every point.
            let (simulated, _, _) = run_sweep(&repeated, jobs, captured).unwrap();
            assert_eq!(outputs, simulated, "jobs={jobs}");
            let labels: Vec<&str> = labeled.iter().map(|la| la.label.as_str()).collect();
            assert_eq!(labels, ["r0", "r1", "r2", "r3", "r4", "r5", "r6"]);
            let repeats = labeled.iter().filter(|la| la.wall == Duration::ZERO);
            assert_eq!(repeats.count(), 3, "jobs={jobs}");
            assert_eq!(report.points, repeated.len());
            assert_eq!(
                report.sim_cycles,
                expected.iter().map(|&(_, cycles)| cycles).sum::<u64>()
            );
        }
    }

    #[test]
    fn latency_panel_parallel_matches_serial() {
        let spec = fig5::panel_spec(&SimConfig::default(), LockResidency::Hit);
        let obs = ObsConfig::default();
        let (serial, _, _) = run_panels_observed(std::slice::from_ref(&spec), 1, obs).unwrap();
        let (parallel, _, _) = run_panels_observed(std::slice::from_ref(&spec), 3, obs).unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        assert_eq!(serial[0].to_table(), parallel[0].to_table());
    }

    #[test]
    fn report_merge_and_utilization() {
        let mut a = RunReport {
            jobs: 2,
            points: 4,
            wall: Duration::from_secs(2),
            busy: Duration::from_secs(3),
            sim_cycles: 100,
            slowest: Some(("a".into(), Duration::from_millis(900))),
            ..RunReport::default()
        };
        let b = RunReport {
            jobs: 1,
            points: 1,
            wall: Duration::from_secs(1),
            busy: Duration::from_secs(1),
            sim_cycles: 50,
            slowest: Some(("b".into(), Duration::from_millis(1000))),
            ..RunReport::default()
        };
        a.merge(&b);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.points, 5);
        assert_eq!(a.sim_cycles, 150);
        assert_eq!(a.slowest.as_ref().unwrap().0, "b");
        // Capacity is per-sweep wall × jobs: 2s × 2 + 1s × 1 = 5s — NOT
        // max(jobs) × Σwall = 6s, which would dilute utilization of the
        // narrower sweep. busy 4s over 5s capacity = 4/5.
        assert_eq!(a.pool_capacity(), Duration::from_secs(5));
        assert!((a.utilization() - 4.0 / 5.0).abs() < 1e-9);
        assert!(a.render().contains("5 point(s)"));
    }

    #[test]
    fn merge_normalizes_untracked_capacity() {
        // A report built without an explicit capacity (older producer /
        // hand-rolled) falls back to wall × jobs on both sides of a merge.
        let mut a = RunReport {
            jobs: 4,
            wall: Duration::from_secs(1),
            busy: Duration::from_secs(4),
            ..RunReport::default()
        };
        assert!((a.utilization() - 1.0).abs() < 1e-9);
        let b = RunReport {
            jobs: 1,
            wall: Duration::from_secs(4),
            busy: Duration::from_secs(2),
            ..RunReport::default()
        };
        a.merge(&b);
        // a offered 1s × 4 workers, b offered 4s × 1 worker → 8s total.
        assert_eq!(a.pool_capacity(), Duration::from_secs(8));
        assert!((a.utilization() - 6.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn observed_run_captures_artifacts_and_merged_metrics() {
        let cfg = SimConfig::default();
        let specs = vec![
            PointSpec {
                label: "obs/64B/CSB".into(),
                cfg: cfg.clone(),
                work: PointWork::Bandwidth {
                    transfer: 64,
                    scheme: Scheme::Csb,
                    order: StoreOrder::Ascending,
                },
            },
            PointSpec {
                label: "obs/2dw/CSB".into(),
                cfg,
                work: PointWork::Latency {
                    dwords: 2,
                    scheme: Scheme::Csb,
                    residency: LockResidency::Hit,
                },
            },
        ];
        let obs = ObsConfig {
            trace: true,
            metrics: true,
            ..ObsConfig::default()
        };
        let (values, artifacts, report) = run_values_observed(&specs, 2, obs).unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(artifacts.len(), 2);
        let mut flushes = 0;
        for la in &artifacts {
            let trace = la.artifacts.trace_json.as_deref().expect("trace captured");
            assert!(serde_json::parse_value(trace).is_ok(), "{}", la.label);
            let m = la.artifacts.metrics.as_ref().expect("metrics captured");
            assert_eq!(
                m.metrics.histograms["csb_flush_retry_latency"].count, m.csb.flush_successes,
                "{}",
                la.label
            );
            flushes += m.csb.flush_successes;
        }
        // The report's aggregate is the sum of the per-point snapshots.
        let agg = report.metrics.as_ref().expect("aggregate metrics");
        assert_eq!(agg.histograms["csb_flush_retry_latency"].count, flushes);
        let rendered = report.render();
        assert!(rendered.contains("flush retry latency"));
        assert!(rendered.contains(" p99 "), "{rendered}");
        assert!(rendered.contains(" p99.9 "), "{rendered}");
    }

    #[test]
    fn unobserved_run_captures_nothing() {
        let specs = vec![PointSpec {
            label: "plain/16B".into(),
            cfg: SimConfig::default(),
            work: PointWork::Bandwidth {
                transfer: 16,
                scheme: Scheme::Uncached { block: 8 },
                order: StoreOrder::Ascending,
            },
        }];
        let (_, artifacts, report) = run_values_observed(&specs, 1, ObsConfig::default()).unwrap();
        assert!(artifacts[0].artifacts.is_empty());
        assert!(report.metrics.is_none());
    }

    #[test]
    fn default_jobs_report_fills_the_pool() {
        // `jobs = 0` resolves to every core, capped at the point count, and
        // the capacity, utilization and slowest point follow from it.
        let specs: Vec<PointSpec> = [16usize, 32, 64]
            .iter()
            .map(|&transfer| PointSpec {
                label: format!("pool/{transfer}B"),
                cfg: SimConfig::default(),
                work: PointWork::Bandwidth {
                    transfer,
                    scheme: Scheme::Csb,
                    order: StoreOrder::Ascending,
                },
            })
            .collect();
        let (_, _, report) = run_values_observed(&specs, 0, ObsConfig::default()).unwrap();
        assert_eq!(report.jobs, default_jobs().min(specs.len()));
        assert_eq!(report.pool_capacity(), report.wall * report.jobs as u32);
        assert!(report.slowest.is_some(), "{}", report.render());
        assert!(report.render().contains("slowest point"));
    }

    #[test]
    fn observed_artifacts_identical_across_jobs() {
        // The per-point artifacts are produced by single-threaded
        // simulations and reassembled by index, so worker count must not
        // leak into them.
        let spec = fig5::panel_spec(&SimConfig::default(), LockResidency::Hit);
        let obs = ObsConfig {
            trace: true,
            metrics: true,
            ..ObsConfig::default()
        };
        let specs = spec.enumerate();
        let short: Vec<PointSpec> = specs.into_iter().take(6).collect();
        let (v1, a1, _) = run_values_observed(&short, 1, obs).unwrap();
        let (v4, a4, _) = run_values_observed(&short, 4, obs).unwrap();
        assert_eq!(v1, v4);
        for (x, y) in a1.iter().zip(&a4) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.artifacts.trace_json, y.artifacts.trace_json);
            assert_eq!(
                serde_json::to_string(x.artifacts.metrics.as_ref().unwrap()).unwrap(),
                serde_json::to_string(y.artifacts.metrics.as_ref().unwrap()).unwrap()
            );
        }
    }

    /// A point that simulates nothing, keyed by its index, and counts how
    /// often the engine derives its key.
    struct CountingPoint<'a>(u64, &'a AtomicUsize);

    impl SweepPoint for CountingPoint<'_> {
        type Output = u64;

        fn label(&self) -> String {
            format!("counting/{}", self.0)
        }

        fn cache_key(&self) -> u64 {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0
        }

        fn simulate(
            &self,
            _slot: &mut Option<Simulator>,
            _obs: ObsConfig<'_>,
        ) -> Result<(u64, PointArtifacts), ExpError> {
            Ok((1, PointArtifacts::default()))
        }

        fn payload(&self, output: &mut u64, s: &mut impl Codec) -> Result<(), SnapshotError> {
            s.u64(output)
        }

        fn value(output: &u64) -> PointValue {
            PointValue::Latency(*output)
        }

        fn sim_cycles(output: &u64) -> u64 {
            *output
        }
    }

    #[test]
    fn each_key_is_derived_once_per_point() {
        let dir = std::env::temp_dir().join(format!("csb-runner-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::open(&dir).expect("temp cache opens");
        let calls = AtomicUsize::new(0);
        // Two points share key 3, as Figure 3(d)'s points repeat 3(b)'s.
        let points: Vec<CountingPoint> = [0, 3, 1, 3, 2]
            .into_iter()
            .map(|key| CountingPoint(key, &calls))
            .collect();
        for captured in [false, true] {
            for cached in [false, true] {
                for snapped in [false, true] {
                    for jobs in [1, 2] {
                        let obs = ObsConfig {
                            metrics: captured,
                            cache: cached.then_some(&cache),
                            autosnap: snapped.then(|| AutosnapConfig::new(10, &dir)),
                            ..ObsConfig::default()
                        };
                        calls.store(0, Ordering::Relaxed);
                        let (_, labeled, _) = run_sweep(&points, jobs, obs).unwrap();
                        let what = format!(
                            "captured {captured} cached {cached} snapped {snapped} jobs {jobs}"
                        );
                        assert_eq!(calls.load(Ordering::Relaxed), points.len(), "{what}");
                        let keys: Vec<u64> = labeled.iter().map(|la| la.key).collect();
                        assert_eq!(keys, [0, 3, 1, 3, 2], "{what}");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
