//! Simulated-cycles-per-second of the naive loop vs. fast-forward on seven
//! figure, fault-sweep, messaging-sweep and contention points.
//!
//! Run with `cargo bench -p csb-bench --bench runner_bench`; the sweep is
//! written to `BENCH_sim_throughput.json` in the workspace root (the
//! checked-in copy at the repo root is regenerated this way; CI's
//! perf-smoke job fails when a point needs more real ticks or jumps than
//! the checked-in copy records, and gates the scheduler point's speedup).
//!
//! `-- --samples N` overrides the wall-clock samples taken per sweep leg
//! and `-- --reps N` the executions batched inside each timed sample;
//! both default to the values the checked-in JSON was generated with.

use csb_bench::cli::Cli;
use csb_core::experiments::throughput;

/// Wall-clock samples per leg of the fast-forward sweep; the best is
/// reported, so a handful suffices. Overridable with `--samples N`.
const THROUGHPUT_SAMPLES: usize = 5;

/// Executions batched inside each timed sample — the figure points are
/// short programs, so a single run is below timer resolution.
/// Overridable with `--reps N`.
const THROUGHPUT_REPS: usize = 64;

/// `--bench`/`--test` are accepted because cargo passes them when it
/// runs bench targets.
const CLI: Cli = Cli {
    synopsis: "cargo bench -p csb-bench --bench runner_bench --",
    flags: &[&["--samples N", "--reps N", "--bench", "--test"]],
};

fn main() {
    let args = CLI.from_env();
    let samples = args
        .count("--samples", THROUGHPUT_SAMPLES)
        .unwrap_or_else(|e| CLI.fail(e));
    let reps = args
        .count("--reps", THROUGHPUT_REPS)
        .unwrap_or_else(|e| CLI.fail(e));

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
