//! Regenerates Figure 5: lock/access/unlock vs. CSB latency, panels (a)-(b).
//!
//! Usage: `cargo run -p csb-bench --bin fig5 [--jobs N] [--json out.json]
//! [--trace-out trace.json] [--metrics-out metrics.json]
//! [--ledger ledger.jsonl] [--no-fast-forward]`

use std::io::{BufWriter, Write};

use csb_core::experiments::fig5;

const USAGE: &str = "fig5 [--jobs N] [--json out.json] [--trace-out trace.json] \
[--metrics-out metrics.json] [--ledger ledger.jsonl] [--no-fast-forward] \
[--cache-dir DIR] [--no-cache] [--snapshot-every N]";

fn main() {
    csb_bench::validate_standard_args(USAGE);
    let bo = csb_bench::obs_from_args();
    let jobs = csb_bench::jobs_from_args();
    let (panels, artifacts, report) =
        fig5::run_jobs_observed(jobs, bo.obs()).expect("Figure 5 panels simulate");
    // Lock stdout once and buffer: the tables are thousands of short
    // lines, and a per-line lock/flush dominates the print path.
    let mut out = BufWriter::new(std::io::stdout().lock());
    for p in &panels {
        writeln!(out, "{}", p.to_table()).expect("stdout writable");
    }
    out.flush().expect("stdout flushes");
    eprintln!("{}", report.render());
    bo.emit("fig5", &artifacts);
    if let Some(path) = csb_bench::json_path_from_args() {
        csb_bench::dump_json(&path, &panels);
    }
}
