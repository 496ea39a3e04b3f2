//! Regenerates Figure 3: uncached store bandwidth on a multiplexed bus,
//! panels (a)-(i).
//!
//! Usage: `cargo run -p csb-bench --bin fig3 -- [flags]`, with the sweep
//! flags described in the `csb_bench` crate docs; a bad flag prints the
//! usage line.

fn main() -> std::process::ExitCode {
    csb_bench::sweeps::FIG3.main()
}
