//! Regenerates the in-text ablation studies: superscalar width vs. lock
//! overhead (§4.3.2), the double-buffered CSB, the variable-burst CSB
//! (§3.2), and the PIO/DMA break-even sweep (§5).
//!
//! Usage: `cargo run -p csb-bench --bin ablations [--jobs N] [--json out.json]
//! [--trace-out trace.json] [--metrics-out metrics.json]
//! [--ledger ledger.jsonl] [--no-fast-forward]`
//!
//! The observability flags capture one artifact per ablation point across
//! every sweep (the PIO/DMA break-even model is analytic per message size
//! and contributes no runner points).

use csb_core::dma::{DmaModel, PioMethod, MESSAGE_SIZES};
use csb_core::experiments::{ablations, format_table};
use csb_core::SimConfig;

const USAGE: &str = "ablations [--jobs N] [--json out.json] [--trace-out trace.json] \
[--metrics-out metrics.json] [--ledger ledger.jsonl] [--no-fast-forward] \
[--cache-dir DIR] [--no-cache] [--snapshot-every N]";

fn main() {
    csb_bench::validate_standard_args(USAGE);
    let bo = csb_bench::obs_from_args();
    let jobs = csb_bench::jobs_from_args();
    let mut all_artifacts = Vec::new();

    // --- Superscalar width vs. lock overhead --------------------------
    let (widths, arts, mut report) =
        ablations::superscalar_widths(4, jobs, bo.obs()).expect("width ablation simulates");
    all_artifacts.extend(arts);
    let headers = vec![
        "width".to_string(),
        "lock cycles".to_string(),
        "CSB cycles".to_string(),
    ];
    let rows: Vec<Vec<String>> = widths
        .iter()
        .map(|r| {
            vec![
                format!("{}-way", r.width),
                r.lock_cycles.to_string(),
                r.csb_cycles.to_string(),
            ]
        })
        .collect();
    println!("Superscalar width vs. atomic-access latency (4 dwords, lock hits L1)");
    println!("{}", format_table(&headers, &rows));

    // --- CSB extensions ------------------------------------------------
    let headers = vec![
        "bytes".to_string(),
        "baseline B/c".to_string(),
        "variant B/c".to_string(),
    ];
    let render = |rows: &[ablations::CsbVariantRow]| -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| {
                vec![
                    r.transfer.to_string(),
                    format!("{:.2}", r.baseline),
                    format!("{:.2}", r.variant),
                ]
            })
            .collect()
    };
    let (double, arts, r) =
        ablations::double_buffered(jobs, bo.obs()).expect("double-buffer ablation simulates");
    all_artifacts.extend(arts);
    report.merge(&r);
    println!("Double-buffered CSB (second line buffer, §3.2)");
    println!("{}", format_table(&headers, &render(&double)));
    let (variable, arts, r) =
        ablations::variable_burst(jobs, bo.obs()).expect("variable-burst ablation simulates");
    all_artifacts.extend(arts);
    report.merge(&r);
    println!("Variable-burst CSB (multiple burst sizes, §3.2)");
    println!("{}", format_table(&headers, &render(&variable)));

    // --- Related-work baselines under store-order pressure --------------
    let (rows, arts, r) =
        ablations::related_work(jobs, bo.obs()).expect("related-work ablation simulates");
    all_artifacts.extend(arts);
    report.merge(&r);
    let headers = vec![
        "bytes".to_string(),
        "scheme".to_string(),
        "ascending B/c".to_string(),
        "shuffled B/c".to_string(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.transfer.to_string(),
                r.scheme.clone(),
                format!("{:.2}", r.ascending),
                format!("{:.2}", r.shuffled),
            ]
        })
        .collect();
    println!("Hardware pattern combining vs. store order (§2: R10000 / PowerPC 620)");
    println!("{}", format_table(&headers, &table));

    // --- Buffer depth and uncached issue rate ---------------------------
    let (rows, arts, r) =
        ablations::buffer_capacity(jobs, bo.obs()).expect("capacity ablation simulates");
    all_artifacts.extend(arts);
    report.merge(&r);
    let headers = vec![
        "entries".to_string(),
        "none B/c".to_string(),
        "full-line B/c".to_string(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.capacity.to_string(),
                format!("{:.2}", r.none),
                format!("{:.2}", r.full_line),
            ]
        })
        .collect();
    println!("Uncached buffer depth vs. bandwidth (1 KiB)");
    println!("{}", format_table(&headers, &table));

    let (rows, arts, r) =
        ablations::uncached_issue_rate(jobs, bo.obs()).expect("issue-rate ablation simulates");
    all_artifacts.extend(arts);
    report.merge(&r);
    let headers = vec![
        "uncached/cycle".to_string(),
        "CSB cycles (8 dwords)".to_string(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.per_cycle.to_string(), r.csb_cycles.to_string()])
        .collect();
    println!("Retirement-stage uncached issue rate vs. CSB latency");
    println!("{}", format_table(&headers, &table));

    // --- Loaded bus: turnaround approximation vs. real contention -------
    let (rows, arts, r) =
        ablations::loaded_bus(jobs, bo.obs()).expect("loaded-bus ablation simulates");
    all_artifacts.extend(arts);
    report.merge(&r);
    let headers = vec![
        "scheme".to_string(),
        "idle B/c".to_string(),
        "turnaround approx".to_string(),
        "1/3 contention".to_string(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.idle),
                format!("{:.2}", r.turnaround_approx),
                format!("{:.2}", r.contention),
            ]
        })
        .collect();
    println!(
        "Loaded bus: the paper's turnaround approximation vs. real multi-master contention (1 KiB)"
    );
    println!("{}", format_table(&headers, &table));

    // --- PIO vs. DMA break-even (§5) ------------------------------------
    let cfg = SimConfig::default();
    let model = DmaModel::default();
    for (method, name) in [
        (PioMethod::Locked, "locked PIO"),
        (PioMethod::Csb, "CSB PIO"),
    ] {
        let (rows, crossover) = model
            .break_even(&cfg, method, &MESSAGE_SIZES, bo.obs())
            .expect("break-even simulates");
        let headers = vec![
            "bytes".to_string(),
            "PIO cycles".to_string(),
            "DMA cycles".to_string(),
        ];
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.bytes.to_string(),
                    r.pio_cycles.to_string(),
                    r.dma_cycles.to_string(),
                ]
            })
            .collect();
        println!("PIO/DMA break-even, {name}");
        println!("{}", format_table(&headers, &table));
        match crossover {
            Some(b) => println!("DMA wins from {b} bytes\n"),
            None => println!("PIO wins across the sweep\n"),
        }
    }

    eprintln!("{}", report.render());
    bo.emit("ablations", &all_artifacts);
    if let Some(path) = csb_bench::json_path_from_args() {
        csb_bench::dump_json(&path, &(widths, double, variable));
    }
}
