//! Runs every figure harness back to back — the one-shot reproduction of
//! the paper's whole evaluation section.
//!
//! Usage: `cargo run --release -p csb-bench --bin repro_all -- [flags]`,
//! with the sweep flags described in the `csb_bench` crate docs except
//! `--json`; a bad flag prints the usage line.
//!
//! `--jobs N` fans the simulation points of each figure out over `N`
//! worker threads (default: all cores). The tables on stdout are
//! byte-identical for every worker count; the engine's aggregate
//! `RunReport` is printed to stderr at the end. The observability flags
//! capture one artifact per simulation point across all three figures,
//! recorded in the ledger under `fig3`, `fig4` and `fig5`.
//! `--no-fast-forward` forces the naive cycle-by-cycle simulation loop
//! (identical tables, slower wall clock).

fn main() -> std::process::ExitCode {
    csb_bench::sweeps::REPRO_ALL.main()
}
