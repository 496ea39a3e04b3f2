//! PIO vs. DMA break-even analysis (the paper's §5, quantified).
//!
//! DMA pays a fixed setup cost (descriptor, doorbell, completion) and then
//! streams cache-line bursts autonomously; programmed I/O costs the CPU per
//! byte. The paper argues the CSB moves the PIO/DMA break-even point toward
//! larger messages, "potentially completely eliminating the need for DMA on
//! the send side for many applications". This example sweeps message sizes
//! and prints both send latencies for the conventional locked PIO path and
//! for CSB PIO.
//!
//! Run with: `cargo run --example pio_vs_dma`

use csb_core::dma::{DmaModel, PioMethod, MESSAGE_SIZES};
use csb_core::experiments::runner::ObsConfig;
use csb_core::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig::default();
    let model = DmaModel::default();
    println!(
        "DMA model: {} descriptor dwords, {}-bus-cycle start delay, {}-cycle completion\n",
        model.setup_dwords, model.start_delay_bus_cycles, model.completion_overhead
    );

    for method in [PioMethod::Locked, PioMethod::Csb] {
        let name = match method {
            PioMethod::Locked => "PIO = lock + uncached stores + unlock",
            PioMethod::Csb => "PIO = conditional store buffer",
        };
        println!("=== {name} ===");
        let (rows, crossover) =
            model.break_even(&cfg, method, &MESSAGE_SIZES, ObsConfig::default())?;
        println!(
            "{:>8} {:>12} {:>12} {:>8}",
            "bytes", "PIO cycles", "DMA cycles", "winner"
        );
        for r in &rows {
            println!(
                "{:>8} {:>12} {:>12} {:>8}",
                r.bytes,
                r.pio_cycles,
                r.dma_cycles,
                if r.pio_cycles <= r.dma_cycles {
                    "PIO"
                } else {
                    "DMA"
                }
            );
        }
        match crossover {
            Some(b) => println!("break-even: DMA wins from {b} bytes\n"),
            None => println!("break-even: PIO wins across the whole sweep\n"),
        }
    }

    println!("The CSB pushes the crossover toward larger messages — the §5 claim.");
    Ok(())
}
