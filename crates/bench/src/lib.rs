//! Shared plumbing for the figure-reproduction binaries.
//!
//! Each binary (`fig3`, `fig4`, `fig5`, `ablations`, `repro_all`) regenerates
//! the corresponding table/figure of the paper and prints it as fixed-width
//! text; pass `--json <path>` to also dump the raw panel data for further
//! processing (EXPERIMENTS.md is generated from these dumps). Pass
//! `--jobs N` to fan the simulation points out over `N` worker threads
//! (default: all cores; `--jobs 1` is the serial path) — the tables on
//! stdout are byte-identical either way, and the engine's `RunReport`
//! goes to stderr. Pass `--no-fast-forward` to force the naive
//! cycle-by-cycle simulation loop (results are identical; only wall
//! clock changes).
//!
//! Observability: `--trace-out <file>` captures a Chrome trace-event JSON
//! document per simulation point and `--metrics-out <file>` a metrics
//! report (counters + latency histograms). Both expand the given path per
//! point — `trace.json` becomes `trace-3e_256B_CSB.json` — so a sweep
//! leaves one artifact per point. The `trace` binary replays a single
//! named figure point with both captures on.
//!
//! Ledger: `--ledger <file>` appends one [`LedgerRecord`] JSON line per
//! executed point (config hash, seed, scheme, cycles, wall time, value,
//! flush-latency quantiles) to the given JSONL file — the cross-run perf
//! trajectory the `ledger` binary diffs for regressions. `--ledger`
//! implies metrics capture (the records need the flush histograms), but
//! writes no per-point metrics files unless `--metrics-out` is also
//! given.
//!
//! Caching: `--cache-dir <dir>` makes every sweep incremental — each
//! completed point is stored content-addressed by (configuration,
//! workload, seed, snapshot-format version), and a later run serves
//! unchanged points from the store instead of simulating them (the
//! `RunReport` on stderr counts hits/misses/invalidations). `--no-cache`
//! disables the store even when a script passes `--cache-dir`, and
//! `--snapshot-every N` additionally dumps a restorable machine snapshot
//! every N CPU cycles of every point into `<dir>/autosnap/`.
//!
//! [`obs_from_args`] parses all of these into one owned [`BenchObs`]; its
//! [`BenchObs::obs`] is the [`ObsConfig`] a binary hands to each sweep.
//! Nothing is installed process-wide.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use csb_core::cache::PointCache;
use csb_core::experiments::runner::{LabeledArtifacts, ObsConfig, PointValue};
use csb_core::snapshot::AutosnapConfig;
use csb_obs::LedgerRecord;

/// The value-taking flags every figure binary accepts.
pub const STANDARD_VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "--json",
    "--trace-out",
    "--metrics-out",
    "--ledger",
    "--cache-dir",
    "--snapshot-every",
];

/// The bare flags every figure binary accepts.
pub const STANDARD_BARE_FLAGS: &[&str] = &["--no-fast-forward", "--no-cache"];

/// Prints a one-line error and exits with status 2 (bad invocation).
/// These binaries are user-facing harnesses: a mistyped flag or an
/// inconsistent machine configuration is an input error, not a bug, and
/// must not produce a panic backtrace.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// [`die`] plus a usage line.
pub fn usage_error(usage: &str, msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// Validates the raw command line against the binary's flag vocabulary:
/// every `--flag` must be a known value-taking flag (followed by a value,
/// or written `--flag=value`) or a known bare flag, and at most
/// `max_positional` non-flag arguments may appear. Anything else prints
/// the usage line and exits 2. Call this first in `main`, before the
/// flag-extraction helpers.
pub fn validate_args(
    usage: &str,
    value_flags: &[&str],
    bare_flags: &[&str],
    max_positional: usize,
) {
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            positional += 1;
            if positional > max_positional {
                usage_error(usage, format!("unexpected argument {a:?}"));
            }
            continue;
        }
        let name = a.split_once('=').map_or(a.as_str(), |(n, _)| n);
        if value_flags.contains(&name) {
            if !a.contains('=') && args.next().is_none() {
                usage_error(usage, format!("{name} requires a value"));
            }
        } else if bare_flags.contains(&name) {
            if a.contains('=') {
                usage_error(usage, format!("{name} does not take a value"));
            }
        } else {
            usage_error(usage, format!("unknown flag {name}"));
        }
    }
}

/// [`validate_args`] with the standard figure-binary vocabulary
/// (`--jobs`, `--json`, `--trace-out`, `--metrics-out`, `--ledger`,
/// `--no-fast-forward`) and no positional arguments.
pub fn validate_standard_args(usage: &str) {
    validate_args(usage, STANDARD_VALUE_FLAGS, STANDARD_BARE_FLAGS, 0);
}

/// Parses an optional `--json <path>` argument from the command line.
///
/// Exits with status 2 if `--json` is given without a path.
pub fn json_path_from_args() -> Option<PathBuf> {
    flag_path_from_args("--json")
}

/// Parses an optional `<flag> <path>` (or `<flag>=<path>`) argument from
/// the command line.
///
/// Exits with status 2 if the flag is given without a path.
pub fn flag_path_from_args(flag: &str) -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            let Some(p) = args.next() else {
                die(format!("{flag} requires a path"));
            };
            return Some(PathBuf::from(p));
        }
        if let Some(p) = a.strip_prefix(&format!("{flag}=")) {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// The run settings a bench binary parsed from its command line: the
/// observability and ledger outputs, the point cache, the autosnap
/// cadence, and the fast-forward switch. It owns what the
/// [`ObsConfig`] from [`BenchObs::obs`] borrows.
#[derive(Debug)]
pub struct BenchObs {
    /// `--trace-out` base path for per-point Chrome traces.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-out` base path for per-point metrics reports.
    pub metrics_out: Option<PathBuf>,
    /// `--ledger` JSONL path records are appended to.
    pub ledger: Option<PathBuf>,
    /// The `--cache-dir` store (absent under `--no-cache`).
    cache: Option<PointCache>,
    /// `--snapshot-every` cadence and the `<cache-dir>/autosnap/`
    /// directory the frames go to.
    autosnap: Option<(u64, PathBuf)>,
    /// `false` under `--no-fast-forward`.
    fast_forward: bool,
}

impl BenchObs {
    /// The settings every sweep of the binary runs with. `--ledger`
    /// forces metrics capture on: ledger records need the flush-latency
    /// histograms.
    pub fn obs(&self) -> ObsConfig<'_> {
        ObsConfig {
            trace: self.trace_out.is_some(),
            metrics: self.metrics_out.is_some() || self.ledger.is_some(),
            fast_forward: self.fast_forward,
            cache: self.cache.as_ref(),
            autosnap: self
                .autosnap
                .as_ref()
                .map(|(every, dir)| AutosnapConfig { every: *every, dir }),
        }
    }

    /// Writes every requested artifact for one sweep: per-point trace and
    /// metrics files, plus one appended ledger record per point under the
    /// given bench name.
    pub fn emit(&self, bench: &str, artifacts: &[LabeledArtifacts]) {
        write_artifacts(
            artifacts,
            self.trace_out.as_ref(),
            self.metrics_out.as_ref(),
        );
        if let Some(path) = &self.ledger {
            append_ledger(path, bench, artifacts);
        }
    }
}

/// Parses the run-setting flags into a [`BenchObs`]:
///
/// * `--trace-out <file>`, `--metrics-out <file>` and `--ledger <file>`
///   name the artifact outputs.
/// * `--cache-dir <dir>` opens (creating if needed) the content-addressed
///   point cache at `dir`: sweeps serve unchanged points from it instead
///   of simulating them, so a warm re-run is pure replay and an edited
///   configuration re-runs only its own points. `--no-cache` wins over
///   `--cache-dir` (useful for scripts that pass a standard flag set).
/// * `--snapshot-every <cycles>` additionally dumps a restorable
///   full-machine snapshot every N CPU cycles of every simulated point
///   into `<dir>/autosnap/`, for post-mortem dissection of long or
///   misbehaving points. It requires `--cache-dir` (the snapshots need a
///   store to land in).
/// * `--no-fast-forward` forces the naive cycle-by-cycle loop. Results
///   are identical either way (differential tests enforce that); the flag
///   is an escape hatch and serves before/after throughput measurements.
///
/// Exits with status 2 on an unusable directory or count, or a flag given
/// without its value.
pub fn obs_from_args() -> BenchObs {
    let fast_forward = !std::env::args().skip(1).any(|a| a == "--no-fast-forward");
    let no_cache = std::env::args().skip(1).any(|a| a == "--no-cache");
    let cache_dir = flag_path_from_args("--cache-dir");
    let every = flag_path_from_args("--snapshot-every");
    let (cache, autosnap) = match cache_dir {
        _ if no_cache => (None, None),
        None => {
            if every.is_some() {
                die("--snapshot-every requires --cache-dir (snapshots are written under it)");
            }
            (None, None)
        }
        Some(dir) => {
            let cache = PointCache::open(&dir)
                .unwrap_or_else(|e| die(format!("cannot open cache dir {}: {e}", dir.display())));
            let autosnap = every.map(|every| {
                let every: u64 = every
                    .to_str()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--snapshot-every requires a positive cycle count"));
                let snap_dir = dir.join("autosnap");
                fs::create_dir_all(&snap_dir)
                    .unwrap_or_else(|e| die(format!("cannot create {}: {e}", snap_dir.display())));
                (every, snap_dir)
            });
            (Some(cache), autosnap)
        }
    };
    BenchObs {
        trace_out: flag_path_from_args("--trace-out"),
        metrics_out: flag_path_from_args("--metrics-out"),
        ledger: flag_path_from_args("--ledger"),
        cache,
        autosnap,
        fast_forward,
    }
}

/// Builds the ledger record for one executed point: identity from the
/// label/seed/config hash, gauges from the point's value, cycle count,
/// wall time, and (when metrics were captured) the flush-retry latency
/// histogram.
pub fn ledger_record(bench: &str, la: &LabeledArtifacts) -> LedgerRecord {
    let metrics = la.artifacts.metrics.as_ref();
    let flush = metrics.and_then(|m| m.metrics.histograms.get("csb_flush_retry_latency"));
    LedgerRecord {
        bench: bench.to_string(),
        label: la.label.clone(),
        scheme: la.label.rsplit('/').next().unwrap_or("").to_string(),
        config_hash: la.config_hash,
        seed: la.seed,
        cycles: la.sim_cycles,
        wall_us: u64::try_from(la.wall.as_micros()).unwrap_or(u64::MAX),
        value: match la.value {
            PointValue::Bandwidth(b) => b,
            PointValue::Latency(c) => c as f64,
        },
        flush_successes: metrics.map_or(0, |m| m.csb.flush_successes),
        bus_transactions: metrics.map_or(0, |m| m.bus.transactions),
        flush_p50: flush.map_or(0, |h| h.p50),
        flush_p95: flush.map_or(0, |h| h.p95),
        flush_p99: flush.map_or(0, |h| h.p99),
        flush_p999: flush.map_or(0, |h| h.p999),
    }
}

/// Appends one [`LedgerRecord`] JSONL line per point to `path`, creating
/// the file on first use. Appending (instead of rewriting) is what turns
/// the ledger into a cross-run trajectory; [`csb_obs::diff_ledgers`]
/// resolves duplicate keys newest-wins.
///
/// # Panics
///
/// Panics on I/O failure — a requested ledger that cannot be written
/// should abort loudly.
pub fn append_ledger(path: &Path, bench: &str, artifacts: &[LabeledArtifacts]) {
    let mut lines = String::new();
    for la in artifacts {
        lines.push_str(&ledger_record(bench, la).to_jsonl_line());
        lines.push('\n');
    }
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
    file.write_all(lines.as_bytes())
        .unwrap_or_else(|e| panic!("cannot append to {}: {e}", path.display()));
    eprintln!(
        "appended {} ledger record(s) to {}",
        artifacts.len(),
        path.display()
    );
}

/// Collapses a point label into a filename-safe token: every run of
/// non-alphanumeric characters becomes a single `_`, e.g. `"3e/256B/CSB"`
/// → `"3e_256B_CSB"`.
pub fn sanitize_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// Expands an artifact base path for one labeled point:
/// `trace.json` + `"3e/256B/CSB"` → `trace-3e_256B_CSB.json`.
pub fn artifact_path(base: &Path, label: &str) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("artifact");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("json");
    base.with_file_name(format!("{stem}-{}.{ext}", sanitize_label(label)))
}

/// Writes every captured artifact to disk: Chrome traces under the
/// `--trace-out` base path, metrics reports under the `--metrics-out`
/// base, one file per point keyed by its sanitized label.
///
/// # Panics
///
/// Panics on I/O failure — a requested artifact that cannot be written
/// should abort loudly.
pub fn write_artifacts(
    artifacts: &[LabeledArtifacts],
    trace_out: Option<&PathBuf>,
    metrics_out: Option<&PathBuf>,
) {
    for la in artifacts {
        if let (Some(base), Some(trace)) = (trace_out, la.artifacts.trace_json.as_deref()) {
            let path = artifact_path(base, &la.label);
            fs::write(&path, trace)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
        }
        if let (Some(base), Some(metrics)) = (metrics_out, la.artifacts.metrics.as_ref()) {
            let path = artifact_path(base, &la.label);
            dump_json(&path, metrics);
        }
    }
}

/// Parses an optional `--jobs <N>` (or `--jobs=N`) argument: the worker
/// count for the parallel experiment runner. Returns `0` ("all cores",
/// which the runner resolves via `available_parallelism`) when absent. A
/// request beyond the host's available parallelism is capped to it, with
/// a warning on stderr — oversubscribed simulator workers only fight each
/// other for cycles and skew per-point wall-clock numbers.
///
/// Exits with status 2 if `--jobs` is given without a positive integer.
pub fn jobs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = if a == "--jobs" {
            match args.next() {
                Some(v) => Some(v),
                None => die("--jobs requires a worker count"),
            }
        } else {
            a.strip_prefix("--jobs=").map(str::to_string)
        };
        if let Some(v) = value {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => {
                    let avail = host_parallelism();
                    if n > avail {
                        eprintln!(
                            "warning: --jobs {n} exceeds the {avail} available host \
                             core(s); capping at {avail}"
                        );
                        return avail;
                    }
                    return n;
                }
                _ => die(format!("--jobs requires a positive integer, got {v:?}")),
            }
        }
    }
    0
}

/// The host's available parallelism (1 when it cannot be determined).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Warns (stderr) when `jobs` workers × `simulated_cores` time-sliced
/// processes per worker outstrips the host: each worker single-threads its
/// whole MultiSim, so the product is memory pressure, not parallelism —
/// worth a note before a 64-process sweep fans out. `jobs == 0` means
/// "all cores" (the runner's convention) and is resolved before the check.
pub fn warn_if_oversubscribed(jobs: usize, simulated_cores: usize) {
    let avail = host_parallelism();
    let jobs = if jobs == 0 { avail } else { jobs };
    if jobs.saturating_mul(simulated_cores) > avail {
        eprintln!(
            "note: {jobs} worker(s) x {simulated_cores} simulated processor(s) \
             share {avail} host core(s); each worker time-slices its processes \
             on one thread"
        );
    }
}

/// Parses an optional `<flag> <N>` (or `<flag>=N`) argument holding a
/// positive count, e.g. the throughput bench's `--reps`/`--samples`.
/// Returns `default` when the flag is absent.
///
/// Exits with status 2 if the flag is given without a positive integer.
pub fn count_from_args(flag: &str, default: usize) -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = if a == flag {
            match args.next() {
                Some(v) => Some(v),
                None => die(format!("{flag} requires a positive integer")),
            }
        } else {
            a.strip_prefix(&format!("{flag}=")).map(str::to_string)
        };
        if let Some(v) = value {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => return n,
                _ => die(format!("{flag} requires a positive integer, got {v:?}")),
            }
        }
    }
    default
}

/// Serializes `value` to `path` as pretty-printed JSON.
///
/// # Panics
///
/// Panics on serialization or I/O failure — these binaries are harnesses,
/// not library code, and a failed dump should abort loudly.
pub fn dump_json<T: serde::Serialize>(path: &PathBuf, value: &T) {
    let text = serde_json::to_string_pretty(value).expect("panel data serializes");
    fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    #[test]
    fn dump_json_round_trips() {
        let dir = std::env::temp_dir().join("csb-bench-test.json");
        super::dump_json(&dir, &vec![1, 2, 3]);
        let back: Vec<i32> = serde_json::from_str(&std::fs::read_to_string(&dir).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn sanitize_label_collapses_punctuation() {
        assert_eq!(super::sanitize_label("3e/256B/CSB"), "3e_256B_CSB");
        assert_eq!(super::sanitize_label("5a/4dw/comb-64"), "5a_4dw_comb_64");
        assert_eq!(super::sanitize_label("//x//"), "x");
    }

    #[test]
    fn ledger_appends_one_parseable_record_per_point() {
        use csb_core::experiments::runner::{LabeledArtifacts, PointArtifacts, PointValue};
        let la = |label: &str, cycles: u64| LabeledArtifacts {
            label: label.into(),
            value: PointValue::Bandwidth(3.5),
            sim_cycles: cycles,
            wall: std::time::Duration::from_micros(250),
            seed: 0,
            config_hash: csb_obs::hash_config("cfg"),
            artifacts: PointArtifacts::default(),
        };
        let rec = super::ledger_record("fig4", &la("4a/256B/CSB", 900));
        assert_eq!(rec.scheme, "CSB");
        assert_eq!(rec.key(), "fig4::4a/256B/CSB#0");
        assert_eq!(rec.wall_us, 250);
        assert_eq!(rec.value, 3.5);

        let path = std::env::temp_dir().join("csb-bench-ledger-test.jsonl");
        let _ = std::fs::remove_file(&path);
        super::append_ledger(&path, "fig4", &[la("4a/256B/CSB", 900)]);
        super::append_ledger(&path, "fig4", &[la("4a/256B/CSB", 905)]);
        let records = csb_obs::parse_ledger(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(records.len(), 2, "appends accumulate, not overwrite");
        assert_eq!(records[1].cycles, 905);
        let diff = csb_obs::diff_ledgers(&records[..1], &records[1..], 0.10);
        assert!(!diff.is_regression());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn artifact_path_keys_on_label() {
        let base = PathBuf::from("/tmp/out/trace.json");
        assert_eq!(
            super::artifact_path(&base, "3e/256B/CSB"),
            PathBuf::from("/tmp/out/trace-3e_256B_CSB.json")
        );
        let bare = PathBuf::from("metrics");
        assert_eq!(
            super::artifact_path(&bare, "5a/2dw/CSB"),
            PathBuf::from("metrics-5a_2dw_CSB.json")
        );
    }
}
