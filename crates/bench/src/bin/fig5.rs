//! Regenerates Figure 5: lock/access/unlock vs. CSB latency, panels (a)-(b).
//!
//! Usage: `cargo run -p csb-bench --bin fig5 -- [flags]`, with the sweep
//! flags described in the `csb_bench` crate docs; a bad flag prints the
//! usage line.

fn main() -> std::process::ExitCode {
    csb_bench::sweeps::FIG5.main()
}
