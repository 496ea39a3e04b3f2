//! PIO vs. DMA: the qualitative evaluation of §5, made quantitative.
//!
//! Short messages are sent with programmed I/O because DMA pays a fixed
//! setup cost (building and posting a descriptor, starting the engine, and
//! fielding the completion); long messages amortize that cost over a
//! line-burst transfer the engine performs autonomously. The paper argues
//! the CSB moves the PIO/DMA break-even point toward *larger* messages —
//! potentially eliminating send-side DMA for fine-grain communication.
//!
//! The PIO side here is fully simulated (the same kernels as Figure 3/5);
//! the DMA engine is an analytic-but-cycle-accurate model built on the same
//! bus timing: the paper had no DMA microbenchmark, so this module models
//! the engine the way its NI references (Atoll, Medusa) describe — setup
//! stores, a start delay, cache-line bursts on the same bus, and a
//! completion overhead.

use serde::Serialize;

use crate::config::SimConfig;
use crate::experiments::runner::ObsConfig;
use crate::experiments::ExpError;
use crate::sim::Simulator;
use crate::workloads::{self, StorePath, MARK_END, MARK_START};

/// DMA engine cost model (CPU cycles unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DmaModel {
    /// Descriptor doublewords posted to the device to start a transfer
    /// (source address, length, flags, doorbell — 4 is typical).
    pub setup_dwords: usize,
    /// Bus cycles between the doorbell and the engine's first burst.
    pub start_delay_bus_cycles: u64,
    /// CPU cycles of completion handling (interrupt or completion-queue
    /// poll) charged to the message.
    pub completion_overhead: u64,
}

impl Default for DmaModel {
    fn default() -> Self {
        DmaModel {
            setup_dwords: 4,
            start_delay_bus_cycles: 10,
            completion_overhead: 150,
        }
    }
}

/// How the processor performs programmed I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PioMethod {
    /// Lock, uncached stores, membar, unlock (the conventional path).
    Locked,
    /// CSB combining stores + conditional flush per line.
    Csb,
}

/// One message size's send latencies in CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BreakEvenRow {
    /// Message size in bytes.
    pub bytes: usize,
    /// Simulated PIO latency.
    pub pio_cycles: u64,
    /// Modeled DMA latency.
    pub dma_cycles: u64,
}

impl DmaModel {
    /// Latency of a DMA send of `bytes`: simulated descriptor post (via the
    /// given PIO method, under `obs`'s run settings), start delay, line
    /// bursts on the bus, completion overhead.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError`] if the setup simulation fails.
    pub fn dma_latency(
        &self,
        cfg: &SimConfig,
        method: PioMethod,
        bytes: usize,
        obs: ObsConfig<'_>,
    ) -> Result<u64, ExpError> {
        let setup = pio_latency(cfg, method, self.setup_dwords * 8, obs)?;
        let line = cfg.line();
        let lines = bytes.div_ceil(line) as u64;
        let burst = cfg.bus.transaction_cycles(line);
        let turnaround = cfg.bus.turnaround();
        let spacing = burst.max(cfg.bus.min_addr_delay()) + turnaround;
        // Last transaction's trailing turnaround is not part of the message.
        let transfer_bus = if lines == 0 {
            0
        } else {
            spacing * (lines - 1) + burst
        };
        Ok(setup
            + (self.start_delay_bus_cycles + transfer_bus) * cfg.ratio
            + self.completion_overhead)
    }

    /// Sweeps message sizes and returns `(rows, break_even)`: the smallest
    /// swept size at which DMA is at least as fast as PIO (`None` if PIO
    /// wins everywhere swept). The PIO runs take `obs`'s run settings (see
    /// [`pio_latency`]).
    ///
    /// # Errors
    ///
    /// Propagates the first failing simulation.
    pub fn break_even(
        &self,
        cfg: &SimConfig,
        method: PioMethod,
        sizes: &[usize],
        obs: ObsConfig<'_>,
    ) -> Result<(Vec<BreakEvenRow>, Option<usize>), ExpError> {
        let mut rows = Vec::new();
        let mut crossover = None;
        for &bytes in sizes {
            let pio_cycles = pio_latency(cfg, method, bytes, obs)?;
            let dma_cycles = self.dma_latency(cfg, method, bytes, obs)?;
            if crossover.is_none() && dma_cycles <= pio_cycles {
                crossover = Some(bytes);
            }
            rows.push(BreakEvenRow {
                bytes,
                pio_cycles,
                dma_cycles,
            });
        }
        Ok((rows, crossover))
    }
}

/// Simulated latency of a PIO send of `bytes` using the given method,
/// measured between the workload's timing marks. The run takes `obs`'s
/// fast-forward and autosnap settings and captures no artifacts.
///
/// # Errors
///
/// Returns [`ExpError`] for invalid sizes or failed simulations.
pub fn pio_latency(
    cfg: &SimConfig,
    method: PioMethod,
    bytes: usize,
    obs: ObsConfig<'_>,
) -> Result<u64, ExpError> {
    let program = match method {
        PioMethod::Locked => workloads::lock_sequence(bytes / 8)?,
        PioMethod::Csb => workloads::store_bandwidth(bytes, cfg, StorePath::Csb)?,
    };
    let mut sim = Simulator::new(cfg.clone(), program)?;
    sim.warm_line(csb_isa::Addr::new(crate::config::LOCK_ADDR));
    let run = ObsConfig {
        trace: false,
        metrics: false,
        ..obs
    };
    let summary = run.simulate(&mut sim, 100_000_000)?;
    summary
        .cpu
        .mark_interval(MARK_START, MARK_END)
        .ok_or(ExpError::MissingMark)
}

/// Message sizes swept by the break-even analysis (bytes).
pub const MESSAGE_SIZES: [usize; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pio_csb_beats_pio_locked_for_small_messages() {
        let cfg = SimConfig::default();
        let locked = pio_latency(&cfg, PioMethod::Locked, 64, ObsConfig::default()).unwrap();
        let csb = pio_latency(&cfg, PioMethod::Csb, 64, ObsConfig::default()).unwrap();
        assert!(csb < locked, "CSB PIO {csb} vs locked PIO {locked}");
    }

    #[test]
    fn dma_latency_grows_with_size() {
        let cfg = SimConfig::default();
        let m = DmaModel::default();
        let small = m
            .dma_latency(&cfg, PioMethod::Csb, 64, ObsConfig::default())
            .unwrap();
        let large = m
            .dma_latency(&cfg, PioMethod::Csb, 4096, ObsConfig::default())
            .unwrap();
        assert!(large > small);
    }

    #[test]
    fn csb_moves_break_even_to_larger_messages() {
        // The paper's §5 claim, quantified.
        let cfg = SimConfig::default();
        let m = DmaModel::default();
        let (_, be_locked) = m
            .break_even(
                &cfg,
                PioMethod::Locked,
                &MESSAGE_SIZES,
                ObsConfig::default(),
            )
            .unwrap();
        let (_, be_csb) = m
            .break_even(&cfg, PioMethod::Csb, &MESSAGE_SIZES, ObsConfig::default())
            .unwrap();
        let locked = be_locked.expect("DMA must eventually beat locked PIO");
        // None means CSB PIO wins across the whole sweep: even stronger.
        if let Some(csb) = be_csb {
            assert!(
                csb > locked,
                "CSB break-even {csb} should exceed locked break-even {locked}"
            );
        }
    }

    #[test]
    fn rows_are_monotone_in_size() {
        let cfg = SimConfig::default();
        let m = DmaModel::default();
        let (rows, _) = m
            .break_even(&cfg, PioMethod::Csb, &[64, 256, 1024], ObsConfig::default())
            .unwrap();
        assert!(rows.windows(2).all(|w| w[0].pio_cycles <= w[1].pio_cycles));
        assert!(rows.windows(2).all(|w| w[0].dma_cycles <= w[1].dma_cycles));
    }
}
