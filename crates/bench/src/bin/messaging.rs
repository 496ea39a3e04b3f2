//! End-to-end reliable NIC messaging sweep: exactly-once delivery
//! accounting and latency tails of sequence-numbered messages through the
//! Machine-attached NI, crossing send path (lock vs. CSB vs.
//! double-buffered CSB) × message size × fault rate × retry policy.
//!
//! Usage: `cargo run -p csb-bench --bin messaging -- [flags]`, with the
//! sweep flags described in the `csb_bench` crate docs; a bad flag prints
//! the usage line.
//!
//! Every cell merges a batch of seeded fault schedules shared across the
//! rate axis; the same seeds produce the same table on every run and
//! worker count, and `--cache-dir` reuses finished points across
//! invocations (cached cells carry their raw histogram buckets, so the
//! merged quantiles are identical either way). The process exits 1, after
//! writing its tables and outputs, if the hard reliability invariants
//! fail: exactly-once delivery at fault rate 0, and per-seed monotone
//! degradation along the rate axis.

fn main() -> std::process::ExitCode {
    csb_bench::sweeps::MESSAGING.main()
}
