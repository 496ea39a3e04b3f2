//! The bench binaries of the CSB reproduction and the code they share.
//!
//! The sweep binaries regenerate the paper's evaluation and the extended
//! sweeps, one row each in the [`sweeps`] table:
//!
//! * `fig3`, `fig4`, `fig5` — Figures 3–5;
//! * `ablations` — the in-text ablations (§4.3.2 superscalar width, §3.2
//!   CSB extensions, §5 PIO/DMA break-even) and the related-work,
//!   buffer-depth, issue-rate and loaded-bus studies;
//! * `repro_all` — Figures 3–5 back to back;
//! * `faults`, `contend`, `messaging` — the fault-injection, many-core
//!   contention and reliable NIC messaging sweeps.
//!
//! Three tools keep their own `main`: `explore` simulates one machine
//! configuration and shows its bus timeline (or sweeps transfer sizes),
//! `trace` replays one figure point with tracing and metrics on, and
//! `ledger` diffs two perf ledgers. Every binary reads its command line
//! through one parser, [`cli::Cli`], which builds the usage line a bad
//! invocation prints (with exit status 2).
//!
//! A sweep binary prints fixed-width tables on stdout; pass `--json
//! <path>` (not `repro_all`) to also dump the raw results for further
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
//! point by the point's `label#seed`, the seed written only when nonzero
//! — `trace.json` becomes `trace-3e_256B_CSB.json` for a figure point and
//! `trace-faults_r90_backoff_12_1592595539.json` for a seeded one — so a
//! sweep leaves one artifact per point.
//!
//! Ledger: `--ledger <file>` appends one [`LedgerRecord`] JSON line per
//! executed point (its cache key as `config_hash`, seed, scheme, cycles,
//! wall time, value, flush-latency quantiles) to the given JSONL file —
//! the cross-run perf trajectory the `ledger` binary diffs for
//! regressions. The key joins a record to the point's cache entry and
//! autosnap frames. `--ledger`
//! implies metrics capture (the records need the flush histograms), but
//! writes no per-point metrics files unless `--metrics-out` is also
//! given.
//!
//! Caching: `--cache-dir <dir>` makes every sweep incremental — each
//! completed point is appended to the dir's one pack file, content-addressed
//! by (configuration, workload, seed, snapshot-format version), and a later
//! run serves unchanged points from the pack instead of simulating them
//! (the `RunReport` on stderr counts hits/misses/invalidations), and
//! `--snapshot-every N` additionally dumps a restorable machine snapshot
//! every N CPU cycles of every point into `<dir>/autosnap/`.
//!
//! [`cli::Args::obs`] parses all of these into one owned [`BenchObs`];
//! its [`BenchObs::obs`] is the [`ObsConfig`] a binary hands to each
//! sweep. Nothing is installed process-wide.

pub mod cli;
pub mod sweeps;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use csb_core::cache::PointCache;
use csb_core::experiments::runner::{LabeledArtifacts, ObsConfig, PointValue};
use csb_core::snapshot::AutosnapConfig;
use csb_obs::LedgerRecord;

/// Prints a one-line error and exits with status 2: an input the binary
/// cannot use, such as an unreadable file or an inconsistent machine
/// configuration, must not produce a panic backtrace.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
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
    /// The `--cache-dir` store, if given.
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
                .map(|(every, dir)| AutosnapConfig::new(*every, dir)),
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

/// Builds the ledger record for one executed point: identity from the
/// label and seed, the point's cache key as its `config_hash`, gauges
/// from the point's value, cycle count, wall time, and (when metrics were
/// captured) the flush-retry latency histogram.
pub fn ledger_record(bench: &str, la: &LabeledArtifacts) -> LedgerRecord {
    let metrics = la.artifacts.metrics.as_ref();
    let flush = metrics.and_then(|m| m.metrics.histograms.get("csb_flush_retry_latency"));
    LedgerRecord {
        bench: bench.to_string(),
        label: la.label.clone(),
        scheme: la.label.rsplit('/').next().unwrap_or("").to_string(),
        config_hash: la.key,
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

/// Expands an artifact base path for one point by the identity the
/// ledger keys records on, `label#seed`, the seed written only when
/// nonzero: `trace.json` + `"3e/256B/CSB"` → `trace-3e_256B_CSB.json`,
/// and with seed 7 → `trace-3e_256B_CSB_7.json`.
pub fn artifact_path(base: &Path, label: &str, seed: u64) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("artifact");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("json");
    let id = match seed {
        0 => sanitize_label(label),
        seed => sanitize_label(&format!("{label}#{seed}")),
    };
    base.with_file_name(format!("{stem}-{id}.{ext}"))
}

/// Writes every captured artifact to disk: Chrome traces under the
/// `--trace-out` base path, metrics reports under the `--metrics-out`
/// base, one file per point named by [`artifact_path`].
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
            let path = artifact_path(base, &la.label, la.seed);
            fs::write(&path, trace)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
        }
        if let (Some(base), Some(metrics)) = (metrics_out, la.artifacts.metrics.as_ref()) {
            let path = artifact_path(base, &la.label, la.seed);
            dump_json(&path, metrics);
        }
    }
}

/// The host's available parallelism (1 when it cannot be determined).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Serializes `value` to `path` as pretty-printed JSON.
///
/// # Panics
///
/// Panics on serialization or I/O failure — these binaries are harnesses,
/// not library code, and a failed dump should abort loudly.
pub fn dump_json<T: serde::Serialize>(path: &Path, value: &T) {
    write_file(
        path,
        &serde_json::to_string_pretty(value).expect("panel data serializes"),
    );
}

/// Writes `text` to `path` and notes it on stderr.
///
/// # Panics
///
/// Panics on I/O failure, as [`dump_json`] does.
fn write_file(path: &Path, text: &str) {
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
        let back = serde_json::parse_value(&std::fs::read_to_string(&dir).unwrap()).unwrap();
        assert_eq!(back, serde::Serialize::to_value(&vec![1, 2, 3]));
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
            key: 0x5eed,
            artifacts: PointArtifacts::default(),
        };
        let rec = super::ledger_record("fig4", &la("4a/256B/CSB", 900));
        assert_eq!(rec.scheme, "CSB");
        assert_eq!(rec.config_hash, 0x5eed, "the record carries the cache key");
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
            super::artifact_path(&base, "3e/256B/CSB", 0),
            PathBuf::from("/tmp/out/trace-3e_256B_CSB.json")
        );
        let bare = PathBuf::from("metrics");
        assert_eq!(
            super::artifact_path(&bare, "5a/2dw/CSB", 0),
            PathBuf::from("metrics-5a_2dw_CSB.json")
        );
    }

    #[test]
    fn two_seeds_of_one_label_get_two_paths() {
        // A seeded sweep repeats each label once per seed.
        let base = PathBuf::from("metrics.json");
        let label = "faults/r90/backoff-12";
        assert_eq!(
            super::artifact_path(&base, label, 0x5eed_1453),
            PathBuf::from("metrics-faults_r90_backoff_12_1592595539.json")
        );
        assert_ne!(
            super::artifact_path(&base, label, 1),
            super::artifact_path(&base, label, 2)
        );
    }
}
