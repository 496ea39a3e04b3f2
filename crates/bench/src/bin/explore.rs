//! One-off configuration explorer: simulate a single bandwidth point and
//! show its bus timeline.
//!
//! ```text
//! cargo run -p csb-bench --bin explore -- \
//!     [--bus mux|split] [--width N] [--line N] [--ratio N] \
//!     [--turnaround N] [--delay N] [--scheme none|16|32|64|128|r10k|ppc620|csb] \
//!     [--bytes N[,N...]] [--jobs N] [--timeline N] [--asm FILE] \
//!     [--ledger ledger.jsonl] [--no-fast-forward]
//! ```
//!
//! `--bytes` accepts a comma-separated list, turning the explorer into a
//! transfer-size sweep executed on the parallel experiment runner
//! (`--jobs N` workers, default all cores); the timeline is only shown
//! for a single point.
//!
//! With `--asm FILE` the workload is assembled from a SPARC-flavored
//! source file (see `csb_isa::parse_asm`) instead of generated.
//!
//! Defaults reproduce the paper's baseline machine with the CSB at one
//! cache line.

use std::io::{BufWriter, Write};

use csb_bus::BusConfig;
use csb_core::experiments::runner::{
    run_values_observed, LabeledArtifacts, ObsConfig, PointArtifacts, PointSpec, PointValue,
    PointWork,
};
use csb_core::experiments::{format_table, Scheme};
use csb_core::workloads::StoreOrder;
use csb_core::{trace, workloads, SimConfig, Simulator};

#[derive(Debug)]
struct Args {
    bus: String,
    width: usize,
    line: usize,
    ratio: u64,
    turnaround: u64,
    delay: u64,
    scheme: String,
    bytes: Vec<usize>,
    jobs: usize,
    timeline: u64,
    asm: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            bus: "mux".into(),
            width: 8,
            line: 64,
            ratio: 6,
            turnaround: 0,
            delay: 0,
            scheme: "csb".into(),
            bytes: vec![64],
            jobs: 0,
            timeline: 40,
            asm: None,
        }
    }
}

const USAGE: &str = "explore [--bus mux|split] [--width N] [--line N] [--ratio N] \
[--turnaround N] [--delay N] [--scheme none|16|32|64|128|r10k|ppc620|csb] \
[--bytes N[,N...]] [--jobs N] [--timeline N] [--asm FILE] [--ledger FILE] \
[--no-fast-forward] [--cache-dir DIR] [--no-cache] [--snapshot-every N]";

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                csb_bench::usage_error(USAGE, format!("{name} requires a value"))
            })
        };
        // Numeric flags share one error shape: `--flag` plus a value that
        // must parse as an integer.
        fn num<T: std::str::FromStr>(name: &str, v: String) -> T {
            v.parse().unwrap_or_else(|_| {
                csb_bench::usage_error(USAGE, format!("{name} requires an integer, got {v:?}"))
            })
        }
        match flag.as_str() {
            "--bus" => args.bus = val("--bus"),
            "--width" => args.width = num("--width", val("--width")),
            "--line" => args.line = num("--line", val("--line")),
            "--ratio" => args.ratio = num("--ratio", val("--ratio")),
            "--turnaround" => args.turnaround = num("--turnaround", val("--turnaround")),
            "--delay" => args.delay = num("--delay", val("--delay")),
            "--scheme" => args.scheme = val("--scheme"),
            "--bytes" => {
                let list = val("--bytes");
                args.bytes = list.split(',').map(|b| num("--bytes", b.into())).collect();
                if args.bytes.is_empty() {
                    csb_bench::usage_error(USAGE, "--bytes requires at least one size");
                }
            }
            "--jobs" => {
                args.jobs = num("--jobs", val("--jobs"));
                if args.jobs == 0 {
                    csb_bench::usage_error(USAGE, "--jobs requires a positive integer");
                }
            }
            "--timeline" => args.timeline = num("--timeline", val("--timeline")),
            "--asm" => args.asm = Some(val("--asm")),
            // Consumed by obs_from_args (which re-reads the raw command
            // line); only the values must be skipped here.
            "--ledger" | "--cache-dir" | "--snapshot-every" => {
                val(&flag);
            }
            "--no-cache" | "--no-fast-forward" => {}
            other => csb_bench::usage_error(USAGE, format!("unknown flag {other}")),
        }
    }
    args
}

/// Maps the `--scheme` flag to the experiment layer's scheme enum.
fn scheme_from_flag(flag: &str, line: usize) -> Scheme {
    match flag {
        "csb" => Scheme::Csb,
        "none" => Scheme::Uncached { block: 8 },
        "r10k" => Scheme::R10k,
        "ppc620" => Scheme::Ppc620,
        n => Scheme::Uncached {
            block: n.parse().unwrap_or_else(|_| {
                csb_bench::usage_error(
                    USAGE,
                    format!("--scheme none|16|32|64|128|r10k|ppc620|csb, got {n} (line {line}B)"),
                )
            }),
        },
    }
}

fn main() {
    let args = parse_args();
    let bo = csb_bench::obs_from_args();
    let bus = match args.bus.as_str() {
        "mux" => BusConfig::multiplexed(args.width),
        "split" => BusConfig::split(args.width),
        other => csb_bench::usage_error(USAGE, format!("--bus must be mux or split, got {other}")),
    }
    .max_burst(args.line)
    .turnaround(args.turnaround)
    .min_addr_delay(args.delay)
    .build()
    .unwrap_or_else(|e| csb_bench::die(e));
    let cfg = SimConfig::default()
        .line_size(args.line)
        .bus(bus)
        .frequency_ratio(args.ratio);
    if let Err(e) = cfg.validate() {
        csb_bench::die(e);
    }

    // A comma list of transfer sizes runs as a sweep on the parallel
    // experiment runner instead of the single-point timeline path.
    if args.bytes.len() > 1 {
        if args.asm.is_some() {
            csb_bench::usage_error(USAGE, "--asm is a single-point mode; drop the --bytes list");
        }
        let scheme = scheme_from_flag(&args.scheme, args.line);
        let specs: Vec<PointSpec> = args
            .bytes
            .iter()
            .map(|&transfer| PointSpec {
                label: format!("explore/{transfer}B/{scheme}"),
                cfg: cfg.clone(),
                work: PointWork::Bandwidth {
                    transfer,
                    scheme,
                    order: StoreOrder::Ascending,
                },
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

    let (cfg, path) = scheme_from_flag(&args.scheme, args.line).machine(&cfg);
    let program = match &args.asm {
        Some(file) => {
            let source = std::fs::read_to_string(file)
                .unwrap_or_else(|e| csb_bench::die(format!("cannot read {file}: {e}")));
            csb_isa::parse_asm(&source).unwrap_or_else(|e| csb_bench::die(format!("{file}: {e}")))
        }
        None => workloads::store_bandwidth(bytes, &cfg, path)
            .unwrap_or_else(|e| csb_bench::die(format!("--bytes {bytes}: {e}"))),
    };
    let mut sim = Simulator::new(cfg.clone(), program).expect("valid machine");
    let obs = ObsConfig {
        trace: true,
        ..bo.obs()
    };
    let t0 = std::time::Instant::now();
    let s = obs.simulate(&mut sim, 100_000_000).expect("run completes");
    let wall = t0.elapsed();

    // Lock stdout once and buffer the report + timeline.
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
    match &args.asm {
        Some(f) => writeln!(out, "workload: assembled from {f}").unwrap(),
        None => writeln!(out, "workload: {} bytes via {}", bytes, args.scheme).unwrap(),
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
    let t = trace::timeline_from_events(&sim.trace_events(), 0, args.timeline, cfg.ratio);
    writeln!(out, "\n{}", t.render()).unwrap();
    out.flush().expect("stdout flushes");
    if bo.ledger.is_some() {
        let label = match &args.asm {
            Some(f) => format!("explore/asm/{f}"),
            None => format!("explore/{bytes}B/{}", args.scheme),
        };
        let la = LabeledArtifacts {
            label,
            value: PointValue::Bandwidth(s.bus.effective_bandwidth()),
            sim_cycles: s.cycles,
            wall,
            seed: 0,
            config_hash: csb_obs::hash_config(&format!("{cfg:?} {:?}", args.asm)),
            artifacts: PointArtifacts {
                trace_json: None,
                metrics: Some(sim.metrics_report()),
            },
        };
        bo.emit("explore", &[la]);
    }
}
