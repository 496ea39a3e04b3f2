//! Many-core contention sweep: throughput and flush-latency tails at
//! 16/32/64 time-sliced processors, comparing the global-lock baseline
//! against per-process CSB lines (single- and double-buffered).
//!
//! Usage: `cargo run -p csb-bench --bin contend [--jobs N] [--json out.json]
//! [--trace-out trace.json] [--metrics-out metrics.json]
//! [--ledger ledger.jsonl] [--no-fast-forward] [--cache-dir DIR]`
//!
//! Every cell merges a batch of seeded open-loop arrival schedules; the
//! same seeds produce the same table on every run and worker count, and
//! `--cache-dir` reuses finished points across invocations (cached cells
//! carry their raw histogram buckets, so the merged quantiles are
//! identical either way). The observability flags capture one artifact per
//! seeded point (labels like `contend/c64/csb`), exactly as the figure
//! harnesses do.

use std::io::{BufWriter, Write};

use csb_core::experiments::contend;

const USAGE: &str = "contend [--jobs N] [--json out.json] [--trace-out trace.json] \
[--metrics-out metrics.json] [--ledger ledger.jsonl] [--no-fast-forward] \
[--cache-dir DIR] [--no-cache] [--snapshot-every N]";

fn main() {
    csb_bench::validate_standard_args(USAGE);
    let bo = csb_bench::obs_from_args();
    let jobs = csb_bench::jobs_from_args();
    let max_cores = contend::CORES.iter().copied().max().unwrap_or(1);
    csb_bench::warn_if_oversubscribed(jobs, max_cores);
    let (sweep, artifacts, report) =
        contend::run_jobs_observed(jobs, bo.obs()).expect("contention sweep simulates");
    let mut out = BufWriter::new(std::io::stdout().lock());
    writeln!(out, "{}", sweep.to_table()).expect("stdout writable");
    out.flush().expect("stdout flushes");
    eprintln!("{}", report.render());
    bo.emit("contend", &artifacts);
    if let Some(path) = csb_bench::json_path_from_args() {
        csb_bench::dump_json(&path, &sweep);
    }
}
