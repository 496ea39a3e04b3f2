//! End-to-end reliable NIC messaging sweep: exactly-once delivery
//! accounting and latency tails of sequence-numbered messages through the
//! Machine-attached NI, crossing send path (lock vs. CSB vs.
//! double-buffered CSB) × message size × fault rate × retry policy.
//!
//! Usage: `cargo run -p csb-bench --bin messaging [--jobs N]
//! [--json out.json] [--trace-out trace.json] [--metrics-out metrics.json]
//! [--ledger ledger.jsonl] [--no-fast-forward] [--cache-dir DIR]`
//!
//! Every cell merges a batch of seeded fault schedules shared across the
//! rate axis; the same seeds produce the same table on every run and
//! worker count, and `--cache-dir` reuses finished points across
//! invocations (cached cells carry their raw histogram buckets, so the
//! merged quantiles are identical either way). The process exits nonzero
//! if the hard reliability invariants fail: exactly-once delivery at
//! fault rate 0, and per-seed monotone degradation along the rate axis.

use std::io::{BufWriter, Write};

use csb_core::experiments::messaging;

const USAGE: &str = "messaging [--jobs N] [--json out.json] [--trace-out trace.json] \
[--metrics-out metrics.json] [--ledger ledger.jsonl] [--no-fast-forward] \
[--cache-dir DIR] [--no-cache] [--snapshot-every N]";

fn main() {
    csb_bench::validate_standard_args(USAGE);
    let bo = csb_bench::obs_from_args();
    let jobs = csb_bench::jobs_from_args();
    let (sweep, artifacts, report) =
        messaging::run_jobs_observed(jobs, bo.obs()).expect("messaging sweep simulates");
    let mut out = BufWriter::new(std::io::stdout().lock());
    writeln!(out, "{}", sweep.to_table()).expect("stdout writable");
    writeln!(
        out,
        "exactly-once at rate 0: {}; per-seed degradation monotone: {}",
        sweep.exactly_once_at_zero(),
        sweep.per_seed_monotone
    )
    .expect("stdout writable");
    out.flush().expect("stdout flushes");
    eprintln!("{}", report.render());
    bo.emit("messaging", &artifacts);
    if let Some(path) = csb_bench::json_path_from_args() {
        csb_bench::dump_json(&path, &sweep);
    }
    if !sweep.exactly_once_at_zero() {
        eprintln!("messaging: exactly-once invariant violated at fault rate 0");
        std::process::exit(1);
    }
    if !sweep.per_seed_monotone {
        eprintln!("messaging: per-seed degradation curve is not monotone");
        std::process::exit(1);
    }
}
