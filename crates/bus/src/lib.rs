//! Cycle-level system bus models for the CSB reproduction.
//!
//! The paper evaluates the conditional store buffer on two bus
//! organizations (§4.1):
//!
//! * a **multiplexed** bus, where address and data share one set of wires —
//!   every transaction spends one extra cycle transferring the address;
//! * a **split** address/data bus (Sun UPA, PowerPC 60x style), where the
//!   address travels on its own path and a transaction occupies the data
//!   path only for its data beats.
//!
//! Both are fully pipelined with arbitration overlapped with the current
//! transaction. The configurable overheads studied in Figures 3(g–i) and
//! 4(c–e) are modeled directly:
//!
//! * `turnaround` — idle cycles inserted after every transaction (some buses
//!   require one even between transactions driven by the same master; also an
//!   approximation of a loaded bus),
//! * `min_addr_delay` — minimum spacing between address cycles. This models
//!   selective flow control: the target acknowledges a transaction a fixed
//!   number of cycles after its address cycle, and because uncached I/O
//!   accesses must remain *strongly ordered*, the interface cannot pipeline a
//!   transaction with the previous one's acknowledgment.
//!
//! Transfer sizes are powers of two from 1 byte up to one cache line, and
//! every transaction must be naturally aligned — the restriction that shapes
//! the combining results.
//!
//! All times in this crate are **bus cycles**. The simulator layer converts
//! between CPU and bus cycles with the processor:bus frequency ratio.
//!
//! # Examples
//!
//! ```
//! use csb_bus::{BusConfig, BusKind, SystemBus, Transaction, TxnKind};
//! use csb_isa::Addr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = BusConfig::multiplexed(8).max_burst(64).build()?;
//! let mut bus = SystemBus::new(cfg);
//!
//! // A doubleword store: 1 address cycle + 1 data cycle.
//! let txn = Transaction::write(Addr::new(0x1000), 8).payload(8);
//! let issued = bus.try_issue(0, txn)?.expect("bus idle");
//! assert_eq!(issued.completes_at, 1);
//!
//! // A full-line burst: 1 address cycle + 8 data cycles.
//! let burst = Transaction::write(Addr::new(0x1040), 64).payload(64);
//! let issued = bus.try_issue(2, burst)?.expect("bus free again");
//! assert_eq!(issued.completes_at, 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod stats;
mod system;
mod transaction;

pub use config::{BackgroundTraffic, BusConfig, BusConfigBuilder, BusConfigError, BusKind};
pub use stats::{BusStats, SizeHistogram};
pub use system::{Issued, SystemBus};
pub use transaction::{Transaction, TxnError, TxnKind};
