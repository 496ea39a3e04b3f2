//! The sweep binaries' one driver and the table it reads.
//!
//! Each sweep binary is one row of the table below, a [`SweepBin`]: its
//! command-line vocabulary and its sections, each one sweep call. Its
//! `main` is [`SweepBin::main`], which parses the command line, runs the
//! row's sections in order, writes their tables to stdout and one merged
//! `RunReport` to stderr, then writes the artifacts and ledger records,
//! the `--json` dump and the exit status. Each binary names its own row,
//! so it links only its own sweeps.

use std::io::{BufWriter, Write};
use std::process::ExitCode;

use csb_core::dma::{BreakEvenRow, DmaModel, PioMethod, MESSAGE_SIZES};
use csb_core::experiments::runner::{
    run_panels_observed, LabeledArtifacts, ObsConfig, PanelSpec, RunReport,
};
use csb_core::experiments::{
    ablations, contend, faults, fig3, fig4, fig5, format_table, messaging, ExpError,
};
use csb_core::SimConfig;
use serde::Serialize;

use crate::cli::{Cli, RUN_FLAGS};

/// What every section of one run is given.
#[derive(Clone, Copy)]
struct Run<'a> {
    /// `--jobs` (0 = all cores).
    jobs: usize,
    obs: ObsConfig<'a>,
    /// `--json` was given: sections serialize their payloads.
    json: bool,
}

/// What one sweep call hands the driver.
struct Output {
    /// Its stdout text.
    text: String,
    /// Its pretty-printed `--json` payload; `None` without `--json`.
    json: Option<String>,
    artifacts: Vec<LabeledArtifacts>,
    report: RunReport,
    /// The invariants its results break; any one makes the binary exit 1.
    failures: Vec<&'static str>,
}

type SweepFn = fn(Run<'_>) -> Result<Output, ExpError>;

/// One sweep call of a binary.
struct Section {
    /// Its key in the `--json` document of a binary with several sections.
    name: &'static str,
    /// The ledger bench name its points are recorded under.
    bench: &'static str,
    /// A banner printed above its text.
    heading: Option<&'static str>,
    run: SweepFn,
}

/// A section recorded in the ledger under its own name.
const fn section(name: &'static str, run: SweepFn) -> Section {
    Section {
        name,
        bench: name,
        heading: None,
        run,
    }
}

/// A section of the `ablations` binary.
const fn ablation(name: &'static str, run: SweepFn) -> Section {
    Section {
        bench: "ablations",
        ..section(name, run)
    }
}

/// One sweep binary: a row of the table.
pub struct SweepBin {
    cli: Cli,
    sections: &'static [Section],
}

/// A sweep binary that dumps `--json`.
const fn bin(name: &'static str, sections: &'static [Section]) -> SweepBin {
    SweepBin {
        cli: Cli {
            synopsis: name,
            flags: &[&["--jobs N", "--json out.json"], RUN_FLAGS],
        },
        sections,
    }
}

pub const FIG3: SweepBin = bin(
    "fig3",
    &[section("fig3", |run| panels(run, fig3::panel_specs()))],
);
pub const FIG4: SweepBin = bin(
    "fig4",
    &[section("fig4", |run| panels(run, fig4::panel_specs()))],
);
pub const FIG5: SweepBin = bin(
    "fig5",
    &[section("fig5", |run| panels(run, fig5::panel_specs()))],
);
pub const FAULTS: SweepBin = bin("faults", &[section("faults", fault_sweep)]);
pub const CONTEND: SweepBin = bin("contend", &[section("contend", contend_sweep)]);
pub const MESSAGING: SweepBin = bin("messaging", &[section("messaging", messaging_sweep)]);
pub const ABLATIONS: SweepBin = bin(
    "ablations",
    &[
        ablation("superscalar_widths", superscalar_widths),
        ablation("double_buffered", double_buffered),
        ablation("variable_burst", variable_burst),
        ablation("related_work", related_work),
        ablation("buffer_capacity", buffer_capacity),
        ablation("uncached_issue_rate", uncached_issue_rate),
        ablation("loaded_bus", loaded_bus),
        ablation("pio_dma_locked", |run| {
            pio_dma(run, PioMethod::Locked, "locked PIO")
        }),
        ablation("pio_dma_csb", |run| pio_dma(run, PioMethod::Csb, "CSB PIO")),
    ],
);

/// Figures 3–5 back to back, each under its own banner and ledger name.
pub const REPRO_ALL: SweepBin = SweepBin {
    cli: Cli {
        synopsis: "repro_all",
        flags: &[&["--jobs N"], RUN_FLAGS],
    },
    sections: &[
        Section {
            heading: Some("Figure 3: uncached store bandwidth, 8-byte multiplexed bus"),
            ..FIG3.sections[0]
        },
        Section {
            heading: Some("Figure 4: uncached store bandwidth, split address/data bus"),
            ..FIG4.sections[0]
        },
        Section {
            heading: Some("Figure 5: locking vs. conditional store buffer (CPU cycles)"),
            ..FIG5.sections[0]
        },
    ],
};

const BANNER: &str = "==================================================================";

impl SweepBin {
    /// The binary's `main`: parses the command line, runs each section,
    /// prints the tables and the merged `RunReport`, writes the
    /// artifacts, ledger records and `--json` dump, and exits 1 if a
    /// section reports a broken invariant.
    ///
    /// # Panics
    ///
    /// When a sweep fails to simulate.
    pub fn main(&self) -> ExitCode {
        let args = self.cli.from_env();
        let jobs = args.jobs().unwrap_or_else(|e| self.cli.fail(e));
        let bo = args.obs().unwrap_or_else(|e| self.cli.fail(e));
        let json_path = args.path("--json");
        let run = Run {
            jobs,
            obs: bo.obs(),
            json: json_path.is_some(),
        };

        let mut report = RunReport::default();
        let mut artifacts: Vec<(&str, Vec<LabeledArtifacts>)> = Vec::new();
        let mut payloads = Vec::new();
        let mut failures = Vec::new();
        // Lock stdout once and buffer: the tables are thousands of short
        // lines, and a per-line lock and flush dominates the print path.
        let mut out = BufWriter::new(std::io::stdout().lock());
        for section in self.sections {
            if let Some(heading) = section.heading {
                write!(out, "{BANNER}\n{heading}\n{BANNER}\n\n").expect("stdout writable");
            }
            let output = (section.run)(run)
                .unwrap_or_else(|e| panic!("the {} sweep failed to simulate: {e}", section.name));
            out.write_all(output.text.as_bytes())
                .expect("stdout writable");
            report.merge(&output.report);
            match artifacts.last_mut() {
                Some((bench, list)) if *bench == section.bench => list.extend(output.artifacts),
                _ => artifacts.push((section.bench, output.artifacts)),
            }
            payloads.extend(output.json.map(|json| (section.name, json)));
            failures.extend(output.failures);
        }
        out.flush().expect("stdout flushes");

        eprintln!("{}", report.render());
        for (bench, list) in &artifacts {
            bo.emit(bench, list);
        }
        if let Some(path) = json_path {
            crate::write_file(&path, &json_document(payloads));
        }
        for failure in &failures {
            eprintln!("{failure}");
        }
        if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The `--json` document: a lone section's payload as it is, or the
/// payloads of several as one object keyed by section name.
fn json_document(mut payloads: Vec<(&str, String)>) -> String {
    if payloads.len() == 1 {
        return payloads.remove(0).1;
    }
    // Pretty JSON has no raw newline inside a string, so indenting every
    // line after the first nests a payload one level down.
    let fields: Vec<String> = payloads
        .iter()
        .map(|(name, json)| format!("  \"{name}\": {}", json.replace('\n', "\n  ")))
        .collect();
    format!("{{\n{}\n}}", fields.join(",\n"))
}

impl Run<'_> {
    /// Packs one sweep's results; `text` renders the stdout text from the
    /// payload, which is serialized only under `--json`.
    fn output<T: Serialize>(
        self,
        results: Result<(T, Vec<LabeledArtifacts>, RunReport), ExpError>,
        text: impl FnOnce(&T) -> String,
    ) -> Result<Output, ExpError> {
        let (payload, artifacts, report) = results?;
        Ok(Output {
            text: text(&payload),
            json: self
                .json
                .then(|| serde_json::to_string_pretty(&payload).expect("sweep results serialize")),
            artifacts,
            report,
            failures: Vec::new(),
        })
    }
}

/// A figure's panels, one table each.
fn panels(run: Run<'_>, specs: Vec<PanelSpec>) -> Result<Output, ExpError> {
    run.output(run_panels_observed(&specs, run.jobs, run.obs), |panels| {
        panels.iter().map(|p| p.to_table() + "\n").collect()
    })
}

fn fault_sweep(run: Run<'_>) -> Result<Output, ExpError> {
    run.output(faults::run_jobs_observed(run.jobs, run.obs), |sweep| {
        sweep.to_table() + "\n"
    })
}

fn contend_sweep(run: Run<'_>) -> Result<Output, ExpError> {
    // Each worker time-slices a whole MultiSim on one thread, so workers
    // × simulated processors is memory pressure, not parallelism: worth a
    // note before a 64-process sweep fans out.
    let avail = crate::host_parallelism();
    let jobs = if run.jobs == 0 { avail } else { run.jobs };
    let cores = contend::CORES.iter().copied().max().unwrap_or(1);
    if jobs.saturating_mul(cores) > avail {
        eprintln!(
            "note: {jobs} worker(s) x {cores} simulated processor(s) share {avail} host \
             core(s); each worker time-slices its processes on one thread"
        );
    }
    run.output(contend::run_jobs_observed(run.jobs, run.obs), |sweep| {
        sweep.to_table() + "\n"
    })
}

/// The messaging sweep fails on the two hard reliability invariants:
/// exactly-once delivery at fault rate 0, and per-seed monotone
/// degradation along the rate axis.
fn messaging_sweep(run: Run<'_>) -> Result<Output, ExpError> {
    let mut failures = Vec::new();
    let output = run.output(messaging::run_jobs_observed(run.jobs, run.obs), |sweep| {
        if !sweep.exactly_once_at_zero() {
            failures.push("messaging: exactly-once invariant violated at fault rate 0");
        }
        if !sweep.per_seed_monotone {
            failures.push("messaging: per-seed degradation curve is not monotone");
        }
        format!(
            "{}\nexactly-once at rate 0: {}; per-seed degradation monotone: {}\n",
            sweep.to_table(),
            sweep.exactly_once_at_zero(),
            sweep.per_seed_monotone
        )
    })?;
    Ok(Output { failures, ..output })
}

/// One titled ablation table, followed by a blank line.
fn table(title: &str, headers: &[&str], rows: impl Iterator<Item = Vec<String>>) -> String {
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows.collect();
    format!("{title}\n{}\n", format_table(&headers, &rows))
}

fn superscalar_widths(run: Run<'_>) -> Result<Output, ExpError> {
    let results = ablations::superscalar_widths(4, run.jobs, run.obs);
    run.output(results, |rows| {
        table(
            "Superscalar width vs. atomic-access latency (4 dwords, lock hits L1)",
            &["width", "lock cycles", "CSB cycles"],
            rows.iter().map(|r| {
                vec![
                    format!("{}-way", r.width),
                    r.lock_cycles.to_string(),
                    r.csb_cycles.to_string(),
                ]
            }),
        )
    })
}

fn csb_variant_table(title: &str, rows: &[ablations::CsbVariantRow]) -> String {
    table(
        title,
        &["bytes", "baseline B/c", "variant B/c"],
        rows.iter().map(|r| {
            vec![
                r.transfer.to_string(),
                format!("{:.2}", r.baseline),
                format!("{:.2}", r.variant),
            ]
        }),
    )
}

fn double_buffered(run: Run<'_>) -> Result<Output, ExpError> {
    run.output(ablations::double_buffered(run.jobs, run.obs), |rows| {
        csb_variant_table("Double-buffered CSB (second line buffer, §3.2)", rows)
    })
}

fn variable_burst(run: Run<'_>) -> Result<Output, ExpError> {
    run.output(ablations::variable_burst(run.jobs, run.obs), |rows| {
        csb_variant_table("Variable-burst CSB (multiple burst sizes, §3.2)", rows)
    })
}

fn related_work(run: Run<'_>) -> Result<Output, ExpError> {
    run.output(ablations::related_work(run.jobs, run.obs), |rows| {
        table(
            "Hardware pattern combining vs. store order (§2: R10000 / PowerPC 620)",
            &["bytes", "scheme", "ascending B/c", "shuffled B/c"],
            rows.iter().map(|r| {
                vec![
                    r.transfer.to_string(),
                    r.scheme.clone(),
                    format!("{:.2}", r.ascending),
                    format!("{:.2}", r.shuffled),
                ]
            }),
        )
    })
}

fn buffer_capacity(run: Run<'_>) -> Result<Output, ExpError> {
    run.output(ablations::buffer_capacity(run.jobs, run.obs), |rows| {
        table(
            "Uncached buffer depth vs. bandwidth (1 KiB)",
            &["entries", "none B/c", "full-line B/c"],
            rows.iter().map(|r| {
                vec![
                    r.capacity.to_string(),
                    format!("{:.2}", r.none),
                    format!("{:.2}", r.full_line),
                ]
            }),
        )
    })
}

fn uncached_issue_rate(run: Run<'_>) -> Result<Output, ExpError> {
    run.output(ablations::uncached_issue_rate(run.jobs, run.obs), |rows| {
        table(
            "Retirement-stage uncached issue rate vs. CSB latency",
            &["uncached/cycle", "CSB cycles (8 dwords)"],
            rows.iter()
                .map(|r| vec![r.per_cycle.to_string(), r.csb_cycles.to_string()]),
        )
    })
}

fn loaded_bus(run: Run<'_>) -> Result<Output, ExpError> {
    run.output(ablations::loaded_bus(run.jobs, run.obs), |rows| {
        table(
            "Loaded bus: the paper's turnaround approximation vs. real multi-master \
             contention (1 KiB)",
            &["scheme", "idle B/c", "turnaround approx", "1/3 contention"],
            rows.iter().map(|r| {
                vec![
                    r.scheme.clone(),
                    format!("{:.2}", r.idle),
                    format!("{:.2}", r.turnaround_approx),
                    format!("{:.2}", r.contention),
                ]
            }),
        )
    })
}

/// One PIO/DMA break-even table (§5): the rows and the smallest message
/// size at which DMA wins.
#[derive(Serialize)]
struct BreakEven {
    rows: Vec<BreakEvenRow>,
    crossover: Option<usize>,
}

/// The break-even model is analytic per message size: it runs no points
/// through the engine, so it has no artifacts and an empty report.
fn pio_dma(run: Run<'_>, method: PioMethod, name: &str) -> Result<Output, ExpError> {
    let results = DmaModel::default()
        .break_even(&SimConfig::default(), method, &MESSAGE_SIZES, run.obs)
        .map(|(rows, crossover)| {
            let payload = BreakEven { rows, crossover };
            (payload, Vec::new(), RunReport::default())
        });
    run.output(results, |b| {
        let rows = table(
            &format!("PIO/DMA break-even, {name}"),
            &["bytes", "PIO cycles", "DMA cycles"],
            b.rows.iter().map(|r| {
                vec![
                    r.bytes.to_string(),
                    r.pio_cycles.to_string(),
                    r.dma_cycles.to_string(),
                ]
            }),
        );
        match b.crossover {
            Some(bytes) => format!("{rows}DMA wins from {bytes} bytes\n\n"),
            None => format!("{rows}PIO wins across the sweep\n\n"),
        }
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    #[test]
    fn json_document_nests_several_payloads_as_serde_would() {
        let pretty = |v: &Vec<Vec<u32>>| serde_json::to_string_pretty(v).unwrap();
        let (a, b) = (vec![vec![1, 2], vec![3]], vec![vec![]]);
        let doc = super::json_document(vec![("a", pretty(&a)), ("b", pretty(&b))]);
        let map = BTreeMap::from([("a", a.clone()), ("b", b)]);
        assert_eq!(doc, serde_json::to_string_pretty(&map).unwrap());
        let lone = super::json_document(vec![("a", pretty(&a))]);
        assert_eq!(lone, pretty(&a), "a lone payload is not wrapped");
    }
}
