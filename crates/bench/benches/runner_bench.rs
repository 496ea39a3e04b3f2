//! Engine throughput benchmarks: serial vs. parallel execution of one
//! Figure 3 panel through the experiment runner, plus the naive-loop vs.
//! fast-forward simulated-cycles-per-second sweep.
//!
//! Run with `cargo bench -p csb-bench --bench runner_bench`; the parallel
//! numbers are recorded in EXPERIMENTS.md, and the fast-forward sweep is
//! written to `BENCH_sim_throughput.json` in the workspace root (the
//! checked-in copy at the repo root is regenerated this way; CI's
//! perf-smoke job gates on the Figure 5(b) and long-CSB-point speedups in
//! it).
//!
//! `-- --samples N` overrides the wall-clock samples taken per sweep leg
//! and `-- --reps N` the executions batched inside each timed sample;
//! both default to the values the checked-in JSON was generated with.

use criterion::{BenchmarkId, Criterion};
use csb_core::experiments::runner::{run_bandwidth_panels_observed, ObsConfig};
use csb_core::experiments::{fig3, throughput};

fn bench_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("runner");
    group.sample_size(10);

    // Panel 3e: the default machine (64-byte line, ratio 6) — 7 transfer
    // sizes × 5 schemes = 35 independent simulation points. `jobs1` is the
    // serial baseline; the speedup of the other legs tracks the host's
    // core count (on a single-core host they only measure pool overhead).
    let spec = fig3::PANELS[4].spec();
    let specs = std::slice::from_ref(&spec);

    for jobs in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("fig3e", format!("jobs{jobs}")), |b| {
            b.iter(|| {
                run_bandwidth_panels_observed(specs, jobs, ObsConfig::default())
                    .expect("panel simulates")
            })
        });
    }
    group.finish();
}

/// Runs the criterion group. A hand-rolled driver instead of
/// `criterion_group!`: the generated runner calls `configure_from_args`,
/// whose clap parser would reject this harness's own `--reps`/`--samples`
/// flags (the criterion defaults are what CI and the checked-in numbers
/// use anyway).
fn benches() {
    let mut criterion = Criterion::default();
    bench_runner(&mut criterion);
}

/// Wall-clock samples per leg of the fast-forward sweep; the best is
/// reported, so a handful suffices. Overridable with `--samples N`.
const THROUGHPUT_SAMPLES: usize = 5;

/// Executions batched inside each timed sample — the figure points are
/// short programs, so a single run is below timer resolution.
/// Overridable with `--reps N`.
const THROUGHPUT_REPS: usize = 64;

/// The harness's value flags. `--bench`/`--test` below are accepted bare
/// because cargo appends them when dispatching bench targets.
const VALUE_FLAGS: &[&str] = &["--reps", "--samples"];

/// Bare flags cargo itself passes to bench executables.
const BARE_FLAGS: &[&str] = &["--bench", "--test"];

const USAGE: &str = "cargo bench -p csb-bench --bench runner_bench [-- --samples N] [-- --reps N]";

fn main() {
    csb_bench::validate_args(USAGE, VALUE_FLAGS, BARE_FLAGS, 0);
    let samples = csb_bench::count_from_args("--samples", THROUGHPUT_SAMPLES);
    let reps = csb_bench::count_from_args("--reps", THROUGHPUT_REPS);

    benches();

    let report = throughput::measure(samples, reps).expect("throughput points simulate");
    eprint!("{}", report.render());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Anchor to the workspace root: cargo-bench's CWD is the package dir.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sim_throughput.json"
    );
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}
