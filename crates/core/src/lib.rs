//! Full-system simulator for the conditional store buffer reproduction.
//!
//! This crate wires together every substrate built for the reproduction of
//! Schaelicke & Davis, *"Improving I/O Performance with a Conditional Store
//! Buffer"* (MICRO 1998):
//!
//! * the out-of-order core (`csb-cpu`),
//! * the two-level cache hierarchy and functional memory (`csb-mem`),
//! * the uncached combining buffer and the CSB itself (`csb-uncached`),
//! * the multiplexed / split system bus models (`csb-bus`),
//!
//! and adds everything the evaluation needs on top:
//!
//! * [`Simulator`] — the clocked machine (CPU cycles; the bus ticks every
//!   `ratio` CPU cycles) with an [`IoDevice`] sink recording every bus write,
//! * [`workloads`] — generators for the paper's microbenchmark kernels,
//! * [`experiments`] — harnesses that regenerate Figures 3, 4, and 5 plus
//!   the ablations discussed in the text,
//! * [`multiproc`] — a context-switching scheduler for the multi-process
//!   conflict, livelock, and backoff studies,
//! * [`dma`] — the PIO-vs-DMA break-even model from the qualitative
//!   evaluation (§5),
//! * fault injection ([`Simulator::set_faults`], re-exported from
//!   `csb-faults`) and a livelock watchdog
//!   ([`Simulator::set_watchdog`]) for the robustness studies: seeded,
//!   deterministic bus errors, device NACKs, and forced flush
//!   disturbances, with structured [`SimError::Livelock`] reports when
//!   retry loops stop making progress.
//!
//! # Examples
//!
//! Measure uncached store bandwidth through the CSB on the paper's default
//! machine (8-byte multiplexed bus, 64-byte lines, CPU:bus ratio 6):
//!
//! ```
//! use csb_core::{SimConfig, Simulator, workloads};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SimConfig::default();
//! let program = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb)?;
//! let mut sim = Simulator::new(cfg, program)?;
//! let summary = sim.run(1_000_000)?;
//!
//! // 256 bytes = 4 full-line bursts of 9 bus cycles each.
//! assert_eq!(summary.bus.transactions, 4);
//! let bw = summary.bus.effective_bandwidth();
//! assert!(bw > 6.0, "CSB should approach peak bandwidth, got {bw}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod device;
mod sim;

pub mod cache;
pub mod dma;
pub mod experiments;
pub mod multiproc;
pub mod snapshot;
pub mod trace;
pub mod workloads;

pub use config::{SimConfig, SimConfigError, COMBINING_BASE, LOCK_ADDR, UNCACHED_BASE};
pub use csb_faults::{FaultConfig, FaultInjector, FaultKind, FaultStats};
pub use device::{DeliveredWrite, IoDevice};
pub use sim::{
    ActorState, LivelockReport, LivelockTrigger, MetricsReport, RunSummary, SimError, Simulator,
    WatchdogConfig,
};
pub use snapshot::{RestoreError, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC};
