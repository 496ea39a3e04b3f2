//! Replays one named figure point with tracing and metrics enabled —
//! the quickest way from "that bar looks wrong" to a Perfetto timeline.
//!
//! Usage: `cargo run -p csb-bench --bin trace -- <point> [flags]`, with
//! the run-setting flags of the sweep binaries (see the `csb_bench` crate
//! docs) and `--list`; a bad or missing argument prints the usage line.
//!
//! `<point>` is a runner label like `3e/256B/CSB` (figure 3/4 bandwidth
//! points) or `5a/4dw/CSB` (figure 5 latency points); run with `--list`
//! to print every label. The Chrome trace-event JSON (default
//! `trace.json`) loads directly into Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`, with one track per agent: CPU pipeline, CSB,
//! uncached buffer, bus master, foreign traffic.

use std::path::PathBuf;
use std::process::ExitCode;

use csb_bench::cli::{Cli, RUN_FLAGS};
use csb_core::experiments::figure_points;
use csb_core::experiments::runner::{run_values_observed, ObsConfig, PointValue};

const CLI: Cli = Cli {
    synopsis: "trace <point>",
    flags: &[RUN_FLAGS, &["--list"]],
};

fn main() -> ExitCode {
    let args = CLI.from_env();
    let bo = args.obs().unwrap_or_else(|e| CLI.fail(e));
    if args.has("--list") {
        for spec in figure_points() {
            println!("{}", spec.label);
        }
        return ExitCode::SUCCESS;
    }
    let Some(label) = args.positionals().first() else {
        CLI.fail("missing the <point> to replay (--list prints every label)");
    };

    let specs = figure_points();
    let Some(spec) = specs.iter().find(|s| &s.label == label) else {
        eprintln!("no figure point named {label:?}; run with --list to see every label");
        return ExitCode::FAILURE;
    };

    // Trace replays always capture artifacts, so the point itself is
    // never served from cache — but --snapshot-every still dumps
    // restorable mid-run snapshots under <cache-dir>/autosnap/. Tracing
    // composes with fast-forward (the walk synthesizes the per-cycle
    // events), so --no-fast-forward genuinely switches loops.
    let obs = ObsConfig {
        trace: true,
        metrics: true,
        ..bo.obs()
    };
    let (_, labeled, _) =
        run_values_observed(std::slice::from_ref(spec), 1, obs).expect("figure point simulates");
    let point = &labeled[0];

    match point.value {
        PointValue::Bandwidth(bw) => println!("{}: {bw:.2} payload bytes/bus cycle", spec.label),
        PointValue::Latency(cycles) => println!("{}: {cycles} CPU cycles", spec.label),
    }
    let report = point
        .artifacts
        .metrics
        .as_ref()
        .expect("metrics were enabled");
    println!("{}", report.csb);
    if let Some(h) = report.metrics.histograms.get("csb_flush_retry_latency") {
        println!(
            "flush retry latency: p50 {} p95 {} p99 {} p99.9 {} max {} cycles over {} flush(es)",
            h.p50, h.p95, h.p99, h.p999, h.max, h.count
        );
    }

    let trace_out = bo
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from("trace.json"));
    let trace = point
        .artifacts
        .trace_json
        .as_deref()
        .expect("tracing was enabled");
    std::fs::write(&trace_out, trace)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_out.display()));
    eprintln!(
        "wrote {} ({} events) — open in https://ui.perfetto.dev",
        trace_out.display(),
        trace.matches("\"ph\":").count()
    );
    if let Some(metrics_out) = &bo.metrics_out {
        csb_bench::dump_json(metrics_out, report);
    }
    if let Some(ledger) = &bo.ledger {
        csb_bench::append_ledger(ledger, "trace", &labeled);
    }
    ExitCode::SUCCESS
}
