//! Regenerates Figure 4: uncached store bandwidth on a split address/data
//! bus, panels (a)-(e).
//!
//! Usage: `cargo run -p csb-bench --bin fig4 -- [flags]`, with the sweep
//! flags described in the `csb_bench` crate docs; a bad flag prints the
//! usage line.

fn main() -> std::process::ExitCode {
    csb_bench::sweeps::FIG4.main()
}
