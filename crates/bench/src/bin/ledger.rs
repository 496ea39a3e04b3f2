//! Diffs two perf ledgers and fails on regressions — the cross-run
//! counterpart of the per-run `RunReport`.
//!
//! Usage: `cargo run -p csb-bench --bin ledger -- <baseline.jsonl>
//! <current.jsonl> [flags]`; a bad or missing argument prints the usage
//! line.
//!
//! Both inputs are JSONL ledgers written by the bench binaries' `--ledger`
//! flag. Every point in the baseline must reappear in the current ledger
//! (matched on `bench::label#seed`, newest record wins within a file) with
//! its simulated cycle count and flush-latency quantiles no more than
//! `--threshold` (relative, default 0.10 = 10%) above the baseline.
//! Missing coverage or any regressed gauge prints a report to stderr and
//! exits 1 — the contract CI's ledger-diff step enforces against the
//! checked-in baseline. `--json` additionally dumps the structured
//! [`csb_obs::LedgerDiff`].

use std::process::ExitCode;

use csb_bench::cli::Cli;

const CLI: Cli = Cli {
    synopsis: "ledger <baseline.jsonl> <current.jsonl>",
    flags: &[&["--threshold 0.10", "--json out.json"]],
};

fn main() -> ExitCode {
    let args = CLI.from_env();
    let [baseline_path, current_path] = args.positionals() else {
        CLI.fail("expected exactly two ledger paths");
    };
    let threshold = match args.value("--threshold") {
        None => 0.10,
        Some(raw) => match raw.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t,
            _ => CLI.fail(format!(
                "--threshold requires a non-negative number, got {raw:?}"
            )),
        },
    };

    let read_ledger = |path: &str| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| csb_bench::die(format!("cannot read {path}: {e}")));
        csb_obs::parse_ledger(&text).unwrap_or_else(|e| csb_bench::die(format!("{path}: {e}")))
    };
    let baseline = read_ledger(baseline_path);
    let current = read_ledger(current_path);

    let diff = csb_obs::diff_ledgers(&baseline, &current, threshold);
    eprint!("{}", diff.render());
    if let Some(path) = args.path("--json") {
        csb_bench::dump_json(&path, &diff);
    }
    if diff.is_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
