//! Fault-injection sweep: success rate and latency degradation of each
//! software retry policy (naive spin, bounded, exponential backoff) as the
//! deterministic fault schedule's rates rise.
//!
//! Usage: `cargo run -p csb-bench --bin faults [--jobs N] [--json out.json]
//! [--trace-out trace.json] [--metrics-out metrics.json]
//! [--ledger ledger.jsonl] [--no-fast-forward]`
//!
//! Every cell averages a batch of seeded schedules; the same seeds produce
//! the same table on every run and worker count. Pass `--json` to dump the
//! raw sweep (per-cell success counts, livelocks, attempt and latency
//! means) for further processing. The observability flags capture one
//! artifact per seeded point (labels like `faults/r50/backoff-12`),
//! exactly as fig3/fig4/fig5 do for figure points — fault traces stay
//! byte-identical between the naive and fast-forward loops.

use std::io::{BufWriter, Write};

use csb_core::experiments::faults;

const USAGE: &str = "faults [--jobs N] [--json out.json] [--trace-out trace.json] \
[--metrics-out metrics.json] [--ledger ledger.jsonl] [--no-fast-forward] \
[--cache-dir DIR] [--no-cache] [--snapshot-every N]";

fn main() {
    csb_bench::validate_standard_args(USAGE);
    let bo = csb_bench::obs_from_args();
    let jobs = csb_bench::jobs_from_args();
    let (sweep, artifacts, report) =
        faults::run_jobs_observed(jobs, bo.obs()).expect("fault sweep simulates");
    let mut out = BufWriter::new(std::io::stdout().lock());
    writeln!(out, "{}", sweep.to_table()).expect("stdout writable");
    out.flush().expect("stdout flushes");
    eprintln!("{}", report.render());
    bo.emit("faults", &artifacts);
    if let Some(path) = csb_bench::json_path_from_args() {
        csb_bench::dump_json(&path, &sweep);
    }
}
