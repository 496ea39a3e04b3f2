//! Many-core contention sweep: throughput and flush-latency tails at
//! 16/32/64 time-sliced processors, comparing the global-lock baseline
//! against per-process CSB lines (single- and double-buffered).
//!
//! Usage: `cargo run -p csb-bench --bin contend -- [flags]`, with the
//! sweep flags described in the `csb_bench` crate docs; a bad flag prints
//! the usage line.
//!
//! Every cell merges a batch of seeded open-loop arrival schedules; the
//! same seeds produce the same table on every run and worker count, and
//! `--cache-dir` reuses finished points across invocations (cached cells
//! carry their raw histogram buckets, so the merged quantiles are
//! identical either way). The observability flags capture one artifact per
//! seeded point (labels like `contend/c64/csb`), exactly as the figure
//! harnesses do.

fn main() -> std::process::ExitCode {
    csb_bench::sweeps::CONTEND.main()
}
