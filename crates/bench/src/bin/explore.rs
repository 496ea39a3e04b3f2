//! One-off configuration explorer: simulate a single bandwidth point and
//! show its bus timeline.
//!
//! Usage: `cargo run -p csb-bench --bin explore -- [flags]`; a bad flag
//! prints the usage line with every flag. The machine flags (`--bus`,
//! `--width`, `--line`, `--ratio`, `--turnaround`, `--delay`, `--scheme`)
//! default to the paper's baseline machine with the CSB at one cache
//! line.
//!
//! `--bytes` accepts a comma-separated list, turning the explorer into a
//! transfer-size sweep executed on the parallel experiment runner
//! (`--jobs N` workers, default all cores); the timeline is only shown
//! for a single point.
//!
//! With `--asm FILE` the workload is assembled from a SPARC-flavored
//! source file (see `csb_isa::parse_asm`) instead of generated.
//!
//! `--ledger`, `--no-fast-forward` and the cache flags work as in the
//! sweep binaries (see the `csb_bench` crate docs).

use std::io::{BufWriter, Write};
use std::str::FromStr;

use csb_bench::cli::{Args, Cli};
use csb_bus::BusConfig;
use csb_core::cache::PointCache;
use csb_core::experiments::runner::{
    run_values_observed, LabeledArtifacts, ObsConfig, PointArtifacts, PointSpec, PointValue,
    PointWork,
};
use csb_core::experiments::{format_table, Scheme};
use csb_core::workloads::StoreOrder;
use csb_core::{trace, workloads, SimConfig, Simulator};

const CLI: Cli = Cli {
    synopsis: "explore",
    flags: &[&[
        "--bus mux|split",
        "--width N",
        "--line N",
        "--ratio N",
        "--turnaround N",
        "--delay N",
        "--scheme none|16|32|64|128|r10k|ppc620|csb",
        "--bytes N[,N...]",
        "--jobs N",
        "--timeline N",
        "--asm FILE",
        "--ledger FILE",
        "--no-fast-forward",
        "--cache-dir DIR",
        "--snapshot-every N",
    ]],
};

/// The explorer's run, read from the command line.
struct Settings {
    cfg: SimConfig,
    /// The `--scheme` flag as given, for the report and ledger label.
    scheme_flag: String,
    scheme: Scheme,
    bytes: Vec<usize>,
    jobs: usize,
    timeline: u64,
    asm: Option<String>,
}

/// Numeric flags share one error shape: the flag plus a value that must
/// parse as an integer.
fn int<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} requires an integer, got {value:?}"))
}

/// The integer value of `flag`, or `default` where it is absent.
fn num<T: FromStr>(args: &Args, flag: &str, default: T) -> Result<T, String> {
    args.value(flag).map_or(Ok(default), |v| int(flag, v))
}

/// The explorer's settings, each flag's default where it is absent.
fn settings(args: &Args) -> Result<Settings, String> {
    let width = num(args, "--width", 8)?;
    let line = num(args, "--line", 64)?;
    let bus = match args.value("--bus").unwrap_or("mux") {
        "mux" => BusConfig::multiplexed(width),
        "split" => BusConfig::split(width),
        other => return Err(format!("--bus must be mux or split, got {other}")),
    }
    .max_burst(line)
    .turnaround(num(args, "--turnaround", 0)?)
    .min_addr_delay(num(args, "--delay", 0)?)
    .build()
    .map_err(|e| e.to_string())?;
    let cfg = SimConfig::default()
        .line_size(line)
        .bus(bus)
        .frequency_ratio(num(args, "--ratio", 6)?);
    cfg.validate().map_err(|e| e.to_string())?;
    let scheme_flag = args.value("--scheme").unwrap_or("csb");
    let scheme = match scheme_flag {
        "csb" => Scheme::Csb,
        "none" => Scheme::Uncached { block: 8 },
        "r10k" => Scheme::R10k,
        "ppc620" => Scheme::Ppc620,
        n => Scheme::Uncached {
            block: n.parse().map_err(|_| {
                format!("--scheme none|16|32|64|128|r10k|ppc620|csb, got {n} (line {line}B)")
            })?,
        },
    };
    Ok(Settings {
        cfg,
        scheme_flag: scheme_flag.into(),
        scheme,
        bytes: match args.value("--bytes") {
            Some(list) => list
                .split(',')
                .map(|b| int("--bytes", b))
                .collect::<Result<_, _>>()?,
            None => vec![64],
        },
        jobs: args.jobs()?,
        timeline: num(args, "--timeline", 40)?,
        asm: args.value("--asm").map(str::to_string),
    })
}

fn main() {
    let parsed = CLI.from_env();
    let args = settings(&parsed).unwrap_or_else(|e| CLI.fail(e));
    let bo = parsed.obs().unwrap_or_else(|e| CLI.fail(e));
    let cfg = args.cfg;
    let scheme = args.scheme;
    let work = |transfer| PointWork::Bandwidth {
        transfer,
        scheme,
        order: StoreOrder::Ascending,
    };

    // A comma list of transfer sizes runs as a sweep on the parallel
    // experiment runner instead of the single-point timeline path.
    if args.bytes.len() > 1 {
        if args.asm.is_some() {
            CLI.fail("--asm is a single-point mode; drop the --bytes list");
        }
        let specs: Vec<PointSpec> = args
            .bytes
            .iter()
            .map(|&transfer| PointSpec {
                label: format!("explore/{transfer}B/{scheme}"),
                cfg: cfg.clone(),
                work: work(transfer),
            })
            .collect();
        let (_, labeled, report) =
            run_values_observed(&specs, args.jobs, bo.obs()).unwrap_or_else(|e| csb_bench::die(e));
        // Lock stdout once and buffer the sweep output.
        let mut out = BufWriter::new(std::io::stdout().lock());
        writeln!(
            out,
            "machine : {} bus, {}B wide, {}B line, ratio {}, turnaround {}, delay {}",
            cfg.bus.kind(),
            cfg.bus.width(),
            cfg.line(),
            cfg.ratio,
            cfg.bus.turnaround(),
            cfg.bus.min_addr_delay()
        )
        .unwrap();
        writeln!(
            out,
            "sweep   : {} over {} transfer sizes\n",
            scheme,
            args.bytes.len()
        )
        .unwrap();
        let headers = vec![
            "bytes".to_string(),
            "B/bus-cycle".to_string(),
            "sim cycles".to_string(),
            "wall ms".to_string(),
        ];
        let rows: Vec<Vec<String>> = args
            .bytes
            .iter()
            .zip(&labeled)
            .map(|(&b, la)| {
                vec![
                    b.to_string(),
                    format!("{:.2}", la.value.bandwidth().expect("bandwidth point")),
                    la.sim_cycles.to_string(),
                    format!("{:.1}", la.wall.as_secs_f64() * 1e3),
                ]
            })
            .collect();
        writeln!(out, "{}", format_table(&headers, &rows)).unwrap();
        out.flush().expect("stdout flushes");
        eprintln!("{}", report.render());
        bo.emit("explore", &labeled);
        return;
    }
    let bytes = args.bytes[0];

    let (machine, path) = scheme.machine(&cfg);
    let program = match &args.asm {
        Some(file) => {
            let source = std::fs::read_to_string(file)
                .unwrap_or_else(|e| csb_bench::die(format!("cannot read {file}: {e}")));
            csb_isa::parse_asm(&source).unwrap_or_else(|e| csb_bench::die(format!("{file}: {e}")))
        }
        None => workloads::store_bandwidth(bytes, &machine, path)
            .unwrap_or_else(|e| csb_bench::die(format!("--bytes {bytes}: {e}"))),
    };
    let mut sim = Simulator::new(machine.clone(), program).expect("valid machine");
    let obs = ObsConfig {
        trace: true,
        ..bo.obs()
    };
    let t0 = std::time::Instant::now();
    let s = obs
        .simulate(&mut sim, 100_000_000)
        .unwrap_or_else(|e| csb_bench::die(e));
    let wall = t0.elapsed();

    // Lock stdout once and buffer the report + timeline.
    let mut out = BufWriter::new(std::io::stdout().lock());
    writeln!(
        out,
        "machine : {} bus, {}B wide, {}B line, ratio {}, turnaround {}, delay {}",
        machine.bus.kind(),
        machine.bus.width(),
        machine.line(),
        machine.ratio,
        machine.bus.turnaround(),
        machine.bus.min_addr_delay()
    )
    .unwrap();
    match &args.asm {
        Some(f) => writeln!(out, "workload: assembled from {f}").unwrap(),
        None => writeln!(out, "workload: {} bytes via {}", bytes, args.scheme_flag).unwrap(),
    }
    writeln!(
        out,
        "result  : {:.2} bytes/bus-cycle over {} bus cycles, {} transactions, {} CPU cycles",
        s.bus.effective_bandwidth(),
        s.bus.window_cycles(),
        s.bus.transactions,
        s.cycles
    )
    .unwrap();
    let t = trace::timeline(&sim.trace_events(), 0, args.timeline, machine.ratio);
    writeln!(out, "\n{}", t.render()).unwrap();
    out.flush().expect("stdout flushes");
    if bo.ledger.is_some() {
        // The key the point has in a sweep. An assembled program has no
        // workload to name, so the program itself, on the machine it runs
        // on, stands in for one.
        let (label, key) = match &args.asm {
            Some(f) => {
                let key = PointCache::key_of(&(&machine, sim.cpu().program()));
                (format!("explore/asm/{f}"), key)
            }
            None => {
                let key = PointCache::key_of(&(&cfg, &work(bytes)));
                (format!("explore/{bytes}B/{}", args.scheme_flag), key)
            }
        };
        let la = LabeledArtifacts {
            label,
            value: PointValue::Bandwidth(s.bus.effective_bandwidth()),
            sim_cycles: s.cycles,
            wall,
            seed: 0,
            key,
            artifacts: PointArtifacts {
                trace_json: None,
                metrics: Some(sim.metrics_report()),
                ..PointArtifacts::default()
            },
        };
        bo.emit("explore", &[la]);
    }
}
