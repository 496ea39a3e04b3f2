//! Runs every figure harness back to back — the one-shot reproduction of
//! the paper's whole evaluation section.
//!
//! Usage: `cargo run --release -p csb-bench --bin repro_all [--jobs N]
//! [--trace-out trace.json] [--metrics-out metrics.json]
//! [--ledger ledger.jsonl] [--no-fast-forward]`
//!
//! `--jobs N` fans the simulation points of each figure out over `N`
//! worker threads (default: all cores). The tables on stdout are
//! byte-identical for every worker count; the engine's aggregate
//! `RunReport` is printed to stderr at the end. The observability flags
//! capture one artifact per simulation point across all three figures.
//! `--no-fast-forward` forces the naive cycle-by-cycle simulation loop
//! (identical tables, slower wall clock).

use std::io::{BufWriter, Write};

use csb_core::experiments::{fig3, fig4, fig5};

const USAGE: &str = "repro_all [--jobs N] [--trace-out trace.json] \
[--metrics-out metrics.json] [--ledger ledger.jsonl] [--no-fast-forward] \
[--cache-dir DIR] [--no-cache] [--snapshot-every N]";

fn main() {
    csb_bench::validate_args(
        USAGE,
        &[
            "--jobs",
            "--trace-out",
            "--metrics-out",
            "--ledger",
            "--cache-dir",
            "--snapshot-every",
        ],
        csb_bench::STANDARD_BARE_FLAGS,
        0,
    );
    let bo = csb_bench::obs_from_args();
    let jobs = csb_bench::jobs_from_args();
    // One stdout lock + buffer for the whole reproduction; per-line
    // println! costs a lock and flush each.
    let mut out = BufWriter::new(std::io::stdout().lock());

    writeln!(
        out,
        "=================================================================="
    )
    .unwrap();
    writeln!(
        out,
        "Figure 3: uncached store bandwidth, 8-byte multiplexed bus"
    )
    .unwrap();
    writeln!(
        out,
        "==================================================================\n"
    )
    .unwrap();
    let (panels, artifacts, mut report) =
        fig3::run_jobs_observed(jobs, bo.obs()).expect("Figure 3 simulates");
    for p in panels {
        writeln!(out, "{}", p.to_table()).unwrap();
    }
    bo.emit("fig3", &artifacts);

    writeln!(
        out,
        "=================================================================="
    )
    .unwrap();
    writeln!(
        out,
        "Figure 4: uncached store bandwidth, split address/data bus"
    )
    .unwrap();
    writeln!(
        out,
        "==================================================================\n"
    )
    .unwrap();
    let (panels, artifacts, r4) =
        fig4::run_jobs_observed(jobs, bo.obs()).expect("Figure 4 simulates");
    report.merge(&r4);
    for p in panels {
        writeln!(out, "{}", p.to_table()).unwrap();
    }
    bo.emit("fig4", &artifacts);

    writeln!(
        out,
        "=================================================================="
    )
    .unwrap();
    writeln!(
        out,
        "Figure 5: locking vs. conditional store buffer (CPU cycles)"
    )
    .unwrap();
    writeln!(
        out,
        "==================================================================\n"
    )
    .unwrap();
    let (panels, artifacts, r5) =
        fig5::run_jobs_observed(jobs, bo.obs()).expect("Figure 5 simulates");
    report.merge(&r5);
    for p in panels {
        writeln!(out, "{}", p.to_table()).unwrap();
    }
    bo.emit("fig5", &artifacts);
    out.flush().expect("stdout flushes");

    eprintln!("{}", report.render());
}
