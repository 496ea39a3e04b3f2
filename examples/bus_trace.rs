//! Visualize what each combining scheme actually puts on the bus.
//!
//! Renders cycle-by-cycle bus timelines for a 64-byte store burst under
//! the non-combining buffer, 16-byte and full-line hardware combining,
//! the R10000 sequential detector, and the CSB. Legend: `A` address
//! cycle, `D` data cycle, `.` idle.
//!
//! The timelines come from the structured trace stream
//! (`Simulator::enable_tracing` + `trace::timeline`), the same stream the
//! `--trace-out` Perfetto export reads.
//!
//! Run with: `cargo run --example bus_trace`

use csb_core::{trace, workloads, SimConfig, Simulator};
use csb_obs::{TraceEvent, Track};
use csb_uncached::UncachedConfig;

fn run_traced(cfg: SimConfig, label: &str) {
    let ratio = cfg.ratio;
    let program =
        workloads::store_bandwidth(64, &cfg, workloads::StorePath::Uncached).expect("valid size");
    let mut sim = Simulator::new(cfg, program).expect("valid machine");
    sim.enable_tracing();
    let s = sim.run(1_000_000).expect("run completes");
    show(label, &sim.trace_events(), ratio, s.bus.transactions);
}

fn show(label: &str, events: &[TraceEvent], ratio: u64, txns: u64) {
    // Bus spans are stamped in CPU cycles (pre-scaled by the ratio); the
    // last occupied bus cycle bounds the window.
    let last = events
        .iter()
        .filter(|e| matches!(e.track, Track::Bus | Track::Foreign))
        .map(|e| ((e.cycle + e.dur) / ratio).saturating_sub(1))
        .max()
        .unwrap_or(0);
    let window = trace::timeline(events, 0, last, ratio);
    let busy = window.lane.chars().filter(|&c| c != '.').count();
    let t = trace::timeline(events, 0, last.max(20), ratio);
    println!(
        "{label}  ({txns} transactions, {:.0}% occupied)",
        busy as f64 / window.lane.len() as f64 * 100.0
    );
    println!("{}\n", t.render());
}

fn main() {
    println!("one cache line (8 doubleword stores) through each scheme\n");

    run_traced(
        SimConfig::default().combining_block(8),
        "non-combining      ",
    );
    run_traced(
        SimConfig::default().combining_block(16),
        "16B combining      ",
    );
    run_traced(
        SimConfig::default().combining_block(64),
        "full-line combining",
    );
    let r10k = SimConfig {
        uncached: UncachedConfig::r10000(64),
        ..SimConfig::default()
    };
    run_traced(r10k, "R10000 accelerated ");

    // The CSB path: stores park in the CSB (no bus activity at all) until
    // the conditional flush commits the whole line as one burst.
    let cfg = SimConfig::default();
    let ratio = cfg.ratio;
    let program =
        workloads::store_bandwidth(64, &cfg, workloads::StorePath::Csb).expect("valid size");
    let mut sim = Simulator::new(cfg, program).expect("valid machine");
    sim.enable_tracing();
    sim.cpu_mut().enable_trace();
    let s = sim.run(1_000_000).expect("run completes");
    show(
        "conditional store buffer",
        &sim.trace_events(),
        ratio,
        s.bus.transactions,
    );

    // And the CPU-side view of the same sequence: the combining stores
    // retire one per cycle; the conditional flush executes at the ROB head.
    println!(
        "pipeline view of the CSB sequence (F fetch, D dispatch, I issue, C complete, R retire):
"
    );
    let end = sim.cpu().now().min(40);
    println!("{}", csb_cpu::trace::render(sim.cpu().trace(), 0, end));

    println!("The first store always leaves the buffer alone (the bus is idle when it");
    println!("arrives); hardware combining only wins once the bus backs up. The CSB");
    println!("waits for software's flush and issues exactly one 9-cycle line burst.");
}
