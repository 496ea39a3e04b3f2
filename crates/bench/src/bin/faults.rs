//! Fault-injection sweep: success rate and latency degradation of each
//! software retry policy (naive spin, bounded, exponential backoff) as the
//! deterministic fault schedule's rates rise.
//!
//! Usage: `cargo run -p csb-bench --bin faults -- [flags]`, with the sweep
//! flags described in the `csb_bench` crate docs; a bad flag prints the
//! usage line.
//!
//! Every cell averages a batch of seeded schedules; the same seeds produce
//! the same table on every run and worker count. Pass `--json` to dump the
//! raw sweep (per-cell success counts, livelocks, attempt and latency
//! means) for further processing. The observability flags capture one
//! artifact per seeded point (labels like `faults/r50/backoff-12`),
//! exactly as fig3/fig4/fig5 do for figure points — fault traces stay
//! byte-identical between the naive and fast-forward loops.

fn main() -> std::process::ExitCode {
    csb_bench::sweeps::FAULTS.main()
}
