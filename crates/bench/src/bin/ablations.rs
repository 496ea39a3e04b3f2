//! Regenerates the in-text ablation studies: superscalar width vs. lock
//! overhead (§4.3.2), the double-buffered CSB, the variable-burst CSB
//! (§3.2), and the PIO/DMA break-even sweep (§5), plus the related-work,
//! buffer-depth, issue-rate and loaded-bus studies.
//!
//! Usage: `cargo run -p csb-bench --bin ablations -- [flags]`, with the
//! sweep flags described in the `csb_bench` crate docs; a bad flag prints
//! the usage line.
//!
//! `--json` writes one object with a key per printed table. The
//! observability flags capture one artifact per ablation point across
//! every sweep (the PIO/DMA break-even model is analytic per message size
//! and contributes no runner points).

fn main() -> std::process::ExitCode {
    csb_bench::sweeps::ABLATIONS.main()
}
